/**
 * @file
 * Runtime support for *generated* C++ (what the paper calls "compiled,
 * along with some libraries, into an executable program"). The
 * generated translation units from codegen_cpp.hpp include only this
 * header. It provides:
 *
 *   - gen::Reg / gen::Fifo / gen::Bram / gen::Device: primitive state
 *     with the same guarded interfaces as the runtime primitives
 *     (gen::Fifo on a fixed ring of `capacity` slots, so a message
 *     costs no allocation),
 *   - shadow copies with commit/rollback (the change-log discipline
 *     of section 6.1),
 *   - gen::GuardFail for the try/catch strategy of Figure 9,
 *   - gen::BitWriter / gen::BitReader: the canonical little-endian
 *     word-wise value layout (identical to core/value.hpp's
 *     BitSink/BitCursor), used by the generated C ABI to exchange
 *     marshaled messages with the host harness (runtime/gencc.hpp)
 *     without either side linking the other's value representation.
 *
 * Values in generated code are plain structs/arrays (the data-format
 * problem of section 2.3 is solved by generating both sides from one
 * Type), so everything here is a template over the value type.
 *
 * Contract: this header must stay self-contained (standard library
 * only) — generated translation units are compiled out of tree by the
 * gencc harness with only -I<src> on the command line.
 */
#ifndef BCL_RUNTIME_GEN_SUPPORT_HPP
#define BCL_RUNTIME_GEN_SUPPORT_HPP

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

namespace bcl {
namespace gen {

/** Guard-failure unwind for the naive (Figure 9) strategy. */
struct GuardFail
{
};

/** A register with shadow/commit/rollback. */
template <typename T>
class Reg
{
  public:
    explicit Reg(T init = T{}) : value(init) {}

    const T &read() const { return value; }
    void write(const T &v) { value = v; }

    /** Snapshot for rollback. */
    T shadow() const { return value; }
    void rollback(const T &shadow) { value = shadow; }

  private:
    T value;
};

/**
 * A guarded FIFO with shadow/commit/rollback.
 *
 * Storage is a ring of `capacity` slots allocated once, in the
 * constructor: enq/first/deq are index arithmetic and never allocate
 * (a 512-byte Vorbis frame is copied into its slot, not into a fresh
 * heap node). Memory is therefore capacity x sizeof(T) from the start.
 * Each slot wraps its value in a struct so that Fifo<bool> (the BCL
 * Bool type) does not land on std::vector<bool>, whose elements are
 * bits that first() could not return a reference to.
 * The snapshot is a std::deque of the entries, oldest first; only a
 * unit that shadows a fifo (a rule whose guard is not fully lifted)
 * instantiates deque code for its element type.
 *
 * The reserved-slot count is host-set state, not rule state: the
 * compiled hardware backend reserves one slot per message still
 * waiting on the host side of a SyncTx, so the producer guard feels
 * the synchronizer's full occupancy. shadow/rollback/clear leave it
 * alone.
 */
template <typename T>
class Fifo
{
  public:
    explicit Fifo(int capacity)
        : ring(static_cast<std::size_t>(capacity > 0 ? capacity : 0))
    {
    }

    bool canEnq() const { return count + reserved < capacity(); }
    bool canDeq() const { return count > 0; }
    bool notEmpty() const { return count > 0; }
    bool notFull() const { return canEnq(); }
    std::size_t size() const { return static_cast<std::size_t>(count); }

    void
    enq(const T &v)
    {
        if (!canEnq())
            throw GuardFail{};
        ring[slot(count)].v = v;
        count++;
    }

    const T &
    first() const
    {
        if (count == 0)
            throw GuardFail{};
        return ring[static_cast<std::size_t>(head)].v;
    }

    void
    deq()
    {
        if (count == 0)
            throw GuardFail{};
        head = static_cast<int>(slot(1));
        count--;
    }

    void
    clear()
    {
        head = 0;
        count = 0;
    }

    /** Hold @p slots (negative reads as 0) for entries that live
     *  outside this fifo. */
    void reserve(int slots) { reserved = slots > 0 ? slots : 0; }

    std::deque<T>
    shadow() const
    {
        std::deque<T> out;
        for (int i = 0; i < count; i++)
            out.push_back(ring[slot(i)].v);
        return out;
    }

    /** Restore a shadow() of this fifo. A snapshot of more than
     *  capacity entries cannot come from it: refused with GuardFail,
     *  the fifo unchanged. (No <stdexcept>: it would add ~13k
     *  preprocessed lines to every generated unit.) */
    void
    rollback(const std::deque<T> &shadow)
    {
        if (shadow.size() > ring.size())
            throw GuardFail{};
        clear();
        for (const T &v : shadow)
            ring[static_cast<std::size_t>(count++)].v = v;
    }

  private:
    struct Slot
    {
        T v;
    };

    int capacity() const { return static_cast<int>(ring.size()); }

    /** Ring index of the entry @p i places after the head. */
    std::size_t
    slot(int i) const
    {
        int s = head + i;
        return static_cast<std::size_t>(s >= capacity() ? s - capacity()
                                                        : s);
    }

    std::vector<Slot> ring;
    int head = 0;
    int count = 0;
    int reserved = 0;
};

/** An addressable memory. */
template <typename T>
class Bram
{
  public:
    explicit Bram(int size) : mem(static_cast<size_t>(size)) {}

    /** Pre-initialized memory (table ROMs); padded with T{} to
     *  @p size like the interpreter's zero fill. */
    Bram(int size, std::vector<T> init) : mem(std::move(init))
    {
        mem.resize(static_cast<size_t>(size));
    }

    const T &read(std::uint32_t addr) const { return mem.at(addr); }
    void write(std::uint32_t addr, const T &v) { mem.at(addr) = v; }

    std::vector<T> shadow() const { return mem; }
    void rollback(const std::vector<T> &shadow) { mem = shadow; }

  private:
    std::vector<T> mem;
};

/**
 * Output device sink (AudioDev / Bitmap stand-in). The host harness
 * drains outputs through the generated C ABI (popFront), so the log
 * is a queue, not an append-only vector; the cumulative output
 * history lives host-side (mirrored into the domain's Store).
 */
template <typename T>
class Device
{
  public:
    void output(const T &v) { log.push_back(v); }
    const std::deque<T> &data() const { return log; }
    bool empty() const { return log.empty(); }

    /** Oldest undrained output (ABI pop; call only when !empty()). */
    const T &front() const { return log.front(); }
    void popFront() { log.pop_front(); }

    std::deque<T> shadow() const { return log; }
    void rollback(const std::deque<T> &shadow) { log = shadow; }

  private:
    std::deque<T> log;
};

// ---------------------------------------------------------------------------
// Canonical word-wise value layout (mirror of core BitSink/BitCursor).
// ---------------------------------------------------------------------------

/** Sign-extend the low @p width bits of @p raw (width in [1,64]). */
inline std::int64_t
sign_extend(std::uint64_t raw, int width)
{
    if (width >= 64)
        return static_cast<std::int64_t>(raw);
    std::uint64_t sign = 1ull << (width - 1);
    std::uint64_t mask = (1ull << width) - 1;
    raw &= mask;
    return static_cast<std::int64_t>((raw ^ sign) - sign);
}

/**
 * Writes a little-endian bit stream into a caller-provided word
 * buffer (LSB of the first scalar is bit 0 of word 0) — the exact
 * layout of marshalValue(). The buffer is zeroed on construction;
 * writing past the end is silently dropped (the generated ABI checks
 * word counts before packing, so overflow indicates a harness bug,
 * not a data-dependent condition).
 */
class BitWriter
{
  public:
    BitWriter(std::uint32_t *words, int nwords)
        : words_(words), capBits_(static_cast<size_t>(nwords) * 32)
    {
        for (int i = 0; i < nwords; i++)
            words_[i] = 0;
    }

    /** Append the low @p nbits of @p raw (nbits in [1,64]). */
    void
    put(std::uint64_t raw, int nbits)
    {
        if (nbits <= 0 || nbits > 64 || bits_ + static_cast<size_t>(nbits) > capBits_)
            return;
        if (nbits < 64)
            raw &= (1ull << nbits) - 1;
        size_t word = bits_ / 32;
        int off = static_cast<int>(bits_ % 32);
        words_[word] |= static_cast<std::uint32_t>(raw << off);
        int taken = 32 - off;
        if (nbits > taken) {
            std::uint64_t rest = raw >> taken;
            words_[word + 1] |= static_cast<std::uint32_t>(rest);
            if (nbits > taken + 32)
                words_[word + 2] |=
                    static_cast<std::uint32_t>(rest >> 32);
        }
        bits_ += static_cast<size_t>(nbits);
    }

    size_t bitCount() const { return bits_; }

  private:
    std::uint32_t *words_;
    size_t capBits_;
    size_t bits_ = 0;
};

/** Reads the BitWriter/BitSink layout back; inverse of BitWriter. */
class BitReader
{
  public:
    BitReader(const std::uint32_t *words, int nwords)
        : words_(words), capBits_(static_cast<size_t>(nwords) * 32)
    {
    }

    /** Consume @p nbits (in [1,64]); reads past the end yield 0. */
    std::uint64_t
    take(int nbits)
    {
        if (nbits <= 0 || nbits > 64 ||
            pos_ + static_cast<size_t>(nbits) > capBits_)
            return 0;
        size_t word = pos_ / 32;
        int off = static_cast<int>(pos_ % 32);
        std::uint64_t out = words_[word] >> off;
        int got = 32 - off;
        if (nbits > got) {
            out |= static_cast<std::uint64_t>(words_[word + 1]) << got;
            if (nbits > got + 32)
                out |= static_cast<std::uint64_t>(words_[word + 2])
                       << (got + 32);
        }
        if (nbits < 64)
            out &= (1ull << nbits) - 1;
        pos_ += static_cast<size_t>(nbits);
        return out;
    }

    size_t bitPos() const { return pos_; }

  private:
    const std::uint32_t *words_;
    size_t capBits_;
    size_t pos_ = 0;
};

} // namespace gen
} // namespace bcl

#endif // BCL_RUNTIME_GEN_SUPPORT_HPP
