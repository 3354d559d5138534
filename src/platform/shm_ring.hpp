/**
 * @file
 * Shared-memory word ring for cross-process co-simulation: a
 * single-producer/single-consumer ring over a mmap'd segment with
 * process-shared atomics, so one end of a channel (or a whole
 * partition relay) can live in a forked child process.
 *
 * The segment is anonymous MAP_SHARED memory created BEFORE fork();
 * both processes address the same physical pages at the same virtual
 * address, so no name, unlink or permission handling is needed and
 * the pages vanish with the last process. The ring stores raw 32-bit
 * words — exactly the canonical marshaled form every in-flight
 * message already has (platform/marshal.hpp) — with free-running
 * head/tail indices in std::atomic<uint32_t>. Those indices ARE the
 * credit state: the producer's free-space check is the credit check,
 * observed with acquire loads across the process boundary.
 *
 * On top of the raw ring, ShmFrameLink speaks the same logical frames
 * as the TCP transport (platform/net_transport.hpp Frame) so the
 * remote-partition protocol is transport-agnostic; records are
 * published atomically (single tail store with release ordering), so
 * the consumer never observes a torn frame. No checksums — shared
 * memory does not corrupt in transit.
 *
 * SPSC contract per ring: exactly one producer process and one
 * consumer process. A frame link uses two rings, one per direction.
 */
#ifndef BCL_PLATFORM_SHM_RING_HPP
#define BCL_PLATFORM_SHM_RING_HPP

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

#include "platform/net_transport.hpp"

namespace bcl {

/** Anonymous MAP_SHARED segment; create before fork(). */
class ShmSegment
{
  public:
    explicit ShmSegment(std::size_t bytes);
    ~ShmSegment();
    ShmSegment(const ShmSegment &) = delete;
    ShmSegment &operator=(const ShmSegment &) = delete;

    void *base() const { return base_; }
    std::size_t size() const { return size_; }
    bool valid() const { return base_ != nullptr; }

  private:
    void *base_ = nullptr;
    std::size_t size_ = 0;
};

/**
 * SPSC ring of 32-bit words over caller-provided (shared) memory.
 * Capacity must be a power of two. push/pop are all-or-nothing for
 * their word count, so a multi-word record published by one push is
 * observed atomically by the matching pop.
 */
class ShmWordRing
{
  public:
    /** Bytes of shared memory a ring of @p capacity_words needs. */
    static std::size_t bytesFor(std::uint32_t capacity_words);

    /** View over @p mem (>= bytesFor(capacity_words)). Exactly one
     *  side passes @p init = true, before the other side attaches. */
    ShmWordRing(void *mem, std::uint32_t capacity_words, bool init);

    std::uint32_t capacity() const { return cap_; }
    std::uint32_t usedWords() const;
    std::uint32_t freeWords() const;

    /** Append @p n words if they all fit. @return false when full. */
    bool push(const std::uint32_t *w, std::uint32_t n);
    /** Copy @p n words from the front without consuming.
     *  @p offset_words skips already-peeked words.
     *  @return false when fewer than offset+n words are buffered. */
    bool peek(std::uint32_t *w, std::uint32_t n,
              std::uint32_t offset_words = 0) const;
    /** Consume @p n words. @return false when under-filled. */
    bool pop(std::uint32_t *w, std::uint32_t n);
    /** Consume @p n words without copying. */
    bool skip(std::uint32_t n);

  private:
    struct Hdr
    {
        std::atomic<std::uint32_t> head;  ///< consumer index
        std::atomic<std::uint32_t> tail;  ///< producer index
    };

    Hdr *hdr_;
    std::uint32_t *words_;
    std::uint32_t cap_;
};

/**
 * Bidirectional frame link over two shm rings — the SharedMem
 * counterpart of a framed TCP connection. send() blocks (bounded by
 * the timeout) while the ring is full, which is exactly the credit
 * backpressure; recv() waits for a complete record. Both waits abort
 * early when @p peer_dead reports the other process gone.
 *
 * Record layout in the ring (no magic/checksum; the segment is
 * private to the pair): [type, channel, words, flowLo, flowHi,
 * argLo, argHi, payload...].
 */
class ShmFrameLink
{
  public:
    /** Shared-memory bytes for a link whose rings hold
     *  @p ring_words words each. */
    static std::size_t bytesFor(std::uint32_t ring_words);

    /**
     * View over @p mem. The parent passes @p parent_side = true and
     * @p init = true before forking; the child attaches with
     * @p parent_side = false, @p init = false. Each side sends on its
     * own ring and receives on the other's.
     */
    ShmFrameLink(void *mem, std::uint32_t ring_words, bool parent_side,
                 bool init);

    /** Liveness probe for the other process; polled inside waits. */
    void setPeerDeadCheck(std::function<bool()> fn)
    {
        peerDead_ = std::move(fn);
    }

    /** Send one frame, waiting for ring space up to @p timeout_ms. */
    bool send(const Frame &f, int timeout_ms);
    /** Receive one frame within @p timeout_ms. Corrupt is returned
     *  for an impossible record (oversized length — only a stomped
     *  segment produces one). */
    RecvStatus recv(Frame &out, int timeout_ms);
    const std::string &error() const { return error_; }

  private:
    static constexpr std::uint32_t kRecHdrWords = 7;

    ShmWordRing tx_;
    ShmWordRing rx_;
    std::function<bool()> peerDead_;
    std::string error_;
};

/** Default per-direction ring capacity (words; power of two). Large
 *  enough that a whole Vorbis frame of channel messages plus slice
 *  control fits without blocking; blocking is still correct, just
 *  slower. */
constexpr std::uint32_t kShmRingWords = 1u << 15;

} // namespace bcl

#endif // BCL_PLATFORM_SHM_RING_HPP
