/**
 * @file
 * Property tests of runtime/gen_support.hpp — the library the
 * generated C++ links against. Two families:
 *
 *   1. Shadow/commit/rollback (the §6.1 change-log discipline):
 *      randomized operation sequences against gen::Reg / gen::Fifo /
 *      gen::Bram / gen::Device, mirrored into naive reference models;
 *      every transaction either commits (states equal the mutated
 *      reference) or rolls back (states equal the pre-transaction
 *      snapshot), with guard failures never leaking partial state.
 *
 *   2. BitWriter/BitReader mirror the core BitSink/BitCursor word
 *      layout bit for bit — the invariant the marshaled C ABI stands
 *      on (host packs with one, shared object unpacks with the
 *      other).
 *
 * All randomness is seeded through common/rng.hpp, so failures
 * reproduce exactly.
 */
#include <gtest/gtest.h>

#include <deque>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/value.hpp"
#include "runtime/gen_support.hpp"

namespace bcl {
namespace {

constexpr int kIterations = 1000;

TEST(GenSupportProperty, RegShadowCommitRollback)
{
    Rng rng(0xC0FFEEu);
    gen::Reg<std::int32_t> reg{17};
    std::int32_t model = 17;

    for (int iter = 0; iter < kIterations; iter++) {
        auto shadow = reg.shadow();
        std::int32_t before = model;
        int ops = static_cast<int>(rng.below(4)) + 1;
        for (int i = 0; i < ops; i++) {
            auto v = static_cast<std::int32_t>(
                rng.range(-100000, 100000));
            reg.write(v);
            model = v;
            ASSERT_EQ(reg.read(), model);
        }
        if (rng.chance(0.4)) {
            reg.rollback(shadow);
            model = before;
        }
        ASSERT_EQ(reg.read(), model);
    }
}

TEST(GenSupportProperty, FifoShadowCommitRollbackAndGuards)
{
    Rng rng(0xF1F0u);
    const int cap = 4;
    gen::Fifo<std::int32_t> fifo{cap};
    std::deque<std::int32_t> model;

    for (int iter = 0; iter < kIterations; iter++) {
        auto shadow = fifo.shadow();
        std::deque<std::int32_t> before = model;
        int ops = static_cast<int>(rng.below(5)) + 1;
        for (int i = 0; i < ops; i++) {
            ASSERT_EQ(fifo.canEnq(),
                      static_cast<int>(model.size()) < cap);
            ASSERT_EQ(fifo.canDeq(), !model.empty());
            ASSERT_EQ(fifo.notEmpty(), !model.empty());
            ASSERT_EQ(fifo.notFull(),
                      static_cast<int>(model.size()) < cap);
            switch (rng.below(3)) {
              case 0: {
                auto v = static_cast<std::int32_t>(
                    rng.range(-1000, 1000));
                if (static_cast<int>(model.size()) < cap) {
                    fifo.enq(v);
                    model.push_back(v);
                } else {
                    // Full: enq must throw and change nothing.
                    EXPECT_THROW(fifo.enq(v), gen::GuardFail);
                }
                break;
              }
              case 1:
                if (!model.empty()) {
                    ASSERT_EQ(fifo.first(), model.front());
                    fifo.deq();
                    model.pop_front();
                } else {
                    EXPECT_THROW({ fifo.first(); }, gen::GuardFail);
                    EXPECT_THROW(fifo.deq(), gen::GuardFail);
                }
                break;
              case 2:
                if (!model.empty()) {
                    ASSERT_EQ(fifo.first(), model.front());
                }
                break;
            }
        }
        if (rng.chance(0.4)) {
            fifo.rollback(shadow);
            model = before;
        }
        ASSERT_EQ(fifo.shadow(), model);
    }
}

TEST(GenSupportProperty, FifoReservedSlotsCountTowardCapacity)
{
    const int cap = 4;
    gen::Fifo<std::int32_t> fifo{cap};
    fifo.reserve(2);
    fifo.enq(1);
    EXPECT_TRUE(fifo.canEnq());
    fifo.enq(2);

    // size + reserved == cap: full, though the queue holds only two.
    EXPECT_EQ(fifo.size(), 2u);
    EXPECT_FALSE(fifo.canEnq());
    EXPECT_FALSE(fifo.notFull());
    EXPECT_THROW(fifo.enq(3), gen::GuardFail);
    EXPECT_EQ(fifo.size(), 2u);

    // Host-set state: a transaction's rollback restores the entries
    // and keeps the reservation set after its shadow was taken.
    auto shadow = fifo.shadow();
    fifo.deq();
    fifo.reserve(1);
    fifo.rollback(shadow);
    EXPECT_EQ(fifo.size(), 2u);
    EXPECT_EQ(fifo.first(), 1);
    EXPECT_TRUE(fifo.canEnq());  // 2 + 1 < 4
    shadow = fifo.shadow();
    fifo.enq(3);
    EXPECT_FALSE(fifo.canEnq());  // 3 + 1 == 4
    fifo.reserve(0);
    fifo.rollback(shadow);
    EXPECT_EQ(fifo.size(), 2u);

    // Released slots go back to the rules.
    fifo.enq(3);
    fifo.enq(4);
    EXPECT_EQ(fifo.size(), 4u);
    EXPECT_FALSE(fifo.canEnq());
}

/**
 * The fifo's fixed ring against a std::deque model of element type T,
 * at capacity @p cap. Random enq/deq/clear/reserve inside
 * shadow/rollback transactions; the run must roll back shadows taken
 * after the head went round the ring at least once, so the shadow's
 * oldest-first order and the restore are checked across the wrap.
 * @p draw makes the next value to enqueue.
 */
template <typename T, typename Draw>
void
checkRingAgainstDequeModel(int cap, Rng &rng, Draw draw)
{
    gen::Fifo<T> fifo{cap};
    std::deque<T> model;
    int reserved = 0;
    int deqs_since_reset = 0;  // rollback and clear restart the ring
    int wrapped_rollbacks = 0;

    for (int iter = 0; iter < 4 * kIterations; iter++) {
        const auto shadow = fifo.shadow();
        ASSERT_EQ(shadow, model);
        const std::deque<T> before = model;
        const bool wrapped = deqs_since_reset >= cap;
        int ops = static_cast<int>(rng.below(6)) + 1;
        for (int i = 0; i < ops; i++) {
            const bool room =
                static_cast<int>(model.size()) + reserved < cap;
            ASSERT_EQ(fifo.canEnq(), room);
            ASSERT_EQ(fifo.notFull(), room);
            ASSERT_EQ(fifo.canDeq(), !model.empty());
            ASSERT_EQ(fifo.size(), model.size());
            switch (rng.below(8)) {
              case 0:
                // Host-set: survives the rollback below.
                reserved = static_cast<int>(
                    rng.below(static_cast<std::uint64_t>(cap)));
                fifo.reserve(reserved);
                break;
              case 1:
                if (rng.chance(0.1)) {
                    fifo.clear();
                    model.clear();
                    deqs_since_reset = 0;
                }
                break;
              case 2:
              case 3:
              case 4:
                if (!model.empty()) {
                    // first() refers into the fifo's own storage: the
                    // same object on every call until the deq.
                    const T &head = fifo.first();
                    ASSERT_EQ(&head, &fifo.first());
                    ASSERT_EQ(head, model.front());
                    fifo.deq();
                    model.pop_front();
                    deqs_since_reset++;
                } else {
                    EXPECT_THROW({ fifo.first(); }, gen::GuardFail);
                    EXPECT_THROW(fifo.deq(), gen::GuardFail);
                }
                break;
              default: {
                const T v = draw();
                if (room) {
                    fifo.enq(v);
                    model.push_back(v);
                } else {
                    EXPECT_THROW(fifo.enq(v), gen::GuardFail);
                }
                break;
              }
            }
        }
        if (rng.chance(0.4)) {
            fifo.rollback(shadow);
            model = before;
            deqs_since_reset = 0;
            if (wrapped)
                wrapped_rollbacks++;
        }
        ASSERT_EQ(fifo.shadow(), model);
    }
    EXPECT_GT(wrapped_rollbacks, 0);

    // A snapshot holds at most capacity entries; a larger one is
    // refused and leaves the fifo as it was.
    fifo.reserve(-1);  // reads as no reservation
    EXPECT_EQ(fifo.canEnq(), static_cast<int>(model.size()) < cap);
    std::deque<T> oversized(static_cast<size_t>(cap) + 1, draw());
    EXPECT_THROW(fifo.rollback(oversized), gen::GuardFail);
    EXPECT_EQ(fifo.shadow(), model);
}

/**
 * Capacities where the ring is one slot, not a power of two, and
 * eight slots; 32-bit elements and bool elements (generated code's
 * type for BCL Bool, which must not end up in std::vector<bool>).
 */
TEST(GenSupportProperty, FifoRingMatchesDequeModelAcrossWraps)
{
    for (int cap : {1, 3, 8}) {
        SCOPED_TRACE("capacity " + std::to_string(cap));
        Rng rng(0x517Au + static_cast<std::uint64_t>(cap));
        auto word = [&] {
            return static_cast<std::int32_t>(rng.range(-1000, 1000));
        };
        auto flag = [&] { return rng.chance(0.5); };
        ASSERT_NO_FATAL_FAILURE(
            checkRingAgainstDequeModel<std::int32_t>(cap, rng, word));
        ASSERT_NO_FATAL_FAILURE(
            checkRingAgainstDequeModel<bool>(cap, rng, flag));
    }
}

TEST(GenSupportProperty, BramShadowCommitRollback)
{
    Rng rng(0xB4A8u);
    const int size = 16;
    gen::Bram<std::int32_t> bram{size};
    std::vector<std::int32_t> model(size, 0);

    for (int iter = 0; iter < kIterations; iter++) {
        auto shadow = bram.shadow();
        std::vector<std::int32_t> before = model;
        int ops = static_cast<int>(rng.below(6)) + 1;
        for (int i = 0; i < ops; i++) {
            auto addr =
                static_cast<std::uint32_t>(rng.below(size));
            if (rng.chance(0.5)) {
                auto v = static_cast<std::int32_t>(
                    rng.range(-1000, 1000));
                bram.write(addr, v);
                model[addr] = v;
            }
            ASSERT_EQ(bram.read(addr), model[addr]);
        }
        if (rng.chance(0.4)) {
            bram.rollback(shadow);
            model = before;
        }
        ASSERT_EQ(bram.shadow(), model);
    }
}

TEST(GenSupportProperty, BramInitListMatchesPaddedContents)
{
    gen::Bram<std::int32_t> bram{5, {7, 8, 9}};
    EXPECT_EQ(bram.read(0), 7);
    EXPECT_EQ(bram.read(2), 9);
    EXPECT_EQ(bram.read(3), 0);  // zero padded to size
    EXPECT_EQ(bram.read(4), 0);
}

TEST(GenSupportProperty, DeviceDrainPreservesOrderAndRollback)
{
    Rng rng(0xDE11CEu);
    gen::Device<std::int32_t> dev;
    std::deque<std::int32_t> model;

    for (int iter = 0; iter < kIterations; iter++) {
        auto shadow = dev.shadow();
        std::deque<std::int32_t> before = model;
        int ops = static_cast<int>(rng.below(4)) + 1;
        for (int i = 0; i < ops; i++) {
            auto v =
                static_cast<std::int32_t>(rng.range(-1000, 1000));
            dev.output(v);
            model.push_back(v);
        }
        if (rng.chance(0.3)) {
            dev.rollback(shadow);
            model = before;
        }
        // Harness-side drain (outside any transaction).
        while (rng.chance(0.5) && !model.empty()) {
            ASSERT_FALSE(dev.empty());
            ASSERT_EQ(dev.front(), model.front());
            dev.popFront();
            model.pop_front();
        }
        ASSERT_EQ(dev.data(), model);
    }
}

/** Random bit-field streams: BitWriter must produce BitSink's words,
 *  and BitReader must read back exactly what either wrote. */
TEST(GenSupportProperty, BitWriterMirrorsBitSinkBitForBit)
{
    Rng rng(0xB175u);
    for (int iter = 0; iter < kIterations; iter++) {
        int nfields = static_cast<int>(rng.below(12)) + 1;
        std::vector<std::pair<std::uint64_t, int>> fields;
        size_t total_bits = 0;
        for (int i = 0; i < nfields; i++) {
            int nbits = static_cast<int>(rng.below(64)) + 1;
            fields.emplace_back(rng.next(), nbits);
            total_bits += static_cast<size_t>(nbits);
        }
        int nwords = static_cast<int>((total_bits + 31) / 32);

        BitSink sink;
        for (auto [raw, nbits] : fields)
            sink.put(raw, nbits);
        std::vector<std::uint32_t> expect = sink.takeWords();

        std::vector<std::uint32_t> got(
            static_cast<size_t>(nwords), 0xdeadbeef);
        gen::BitWriter writer(got.data(), nwords);
        for (auto [raw, nbits] : fields)
            writer.put(raw, nbits);
        ASSERT_EQ(got, expect);

        gen::BitReader reader(got.data(), nwords);
        for (auto [raw, nbits] : fields) {
            std::uint64_t mask = nbits >= 64
                                     ? ~0ull
                                     : (1ull << nbits) - 1;
            ASSERT_EQ(reader.take(nbits), raw & mask);
        }
    }
}

TEST(GenSupportProperty, SignExtendMatchesCoreSemantics)
{
    Rng rng(0x51E4u);
    for (int iter = 0; iter < kIterations; iter++) {
        int width = static_cast<int>(rng.below(64)) + 1;
        std::uint64_t raw = rng.next();
        Value v = Value::makeBits(width, raw);
        ASSERT_EQ(gen::sign_extend(raw, width), v.asInt())
            << "width " << width << " raw " << raw;
    }
}

} // namespace
} // namespace bcl
