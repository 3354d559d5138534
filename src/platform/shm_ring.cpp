#include "platform/shm_ring.hpp"

#include <chrono>
#include <cstring>
#include <thread>

#include <sys/mman.h>

#include "common/logging.hpp"

namespace bcl {

// ---------------------------------------------------------------------------
// ShmSegment
// ---------------------------------------------------------------------------

ShmSegment::ShmSegment(std::size_t bytes) : size_(bytes)
{
    void *p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    base_ = (p == MAP_FAILED) ? nullptr : p;
}

ShmSegment::~ShmSegment()
{
    if (base_)
        ::munmap(base_, size_);
}

// ---------------------------------------------------------------------------
// ShmWordRing
// ---------------------------------------------------------------------------

std::size_t
ShmWordRing::bytesFor(std::uint32_t capacity_words)
{
    return sizeof(Hdr) + static_cast<std::size_t>(capacity_words) * 4;
}

ShmWordRing::ShmWordRing(void *mem, std::uint32_t capacity_words,
                         bool init)
    : hdr_(static_cast<Hdr *>(mem)),
      words_(reinterpret_cast<std::uint32_t *>(
          static_cast<char *>(mem) + sizeof(Hdr))),
      cap_(capacity_words)
{
    if ((cap_ & (cap_ - 1)) != 0 || cap_ == 0)
        panic("ShmWordRing: capacity must be a power of two");
    if (init) {
        hdr_->head.store(0, std::memory_order_relaxed);
        hdr_->tail.store(0, std::memory_order_relaxed);
    }
}

std::uint32_t
ShmWordRing::usedWords() const
{
    return hdr_->tail.load(std::memory_order_acquire) -
           hdr_->head.load(std::memory_order_acquire);
}

std::uint32_t
ShmWordRing::freeWords() const
{
    return cap_ - usedWords();
}

bool
ShmWordRing::push(const std::uint32_t *w, std::uint32_t n)
{
    std::uint32_t tail = hdr_->tail.load(std::memory_order_relaxed);
    std::uint32_t head = hdr_->head.load(std::memory_order_acquire);
    if (cap_ - (tail - head) < n)
        return false;
    for (std::uint32_t i = 0; i < n; i++)
        words_[(tail + i) & (cap_ - 1)] = w[i];
    // Single release publish: the consumer observes the whole record
    // or none of it.
    hdr_->tail.store(tail + n, std::memory_order_release);
    return true;
}

bool
ShmWordRing::peek(std::uint32_t *w, std::uint32_t n,
                  std::uint32_t offset_words) const
{
    std::uint32_t head = hdr_->head.load(std::memory_order_relaxed);
    std::uint32_t tail = hdr_->tail.load(std::memory_order_acquire);
    if (tail - head < offset_words + n)
        return false;
    for (std::uint32_t i = 0; i < n; i++)
        w[i] = words_[(head + offset_words + i) & (cap_ - 1)];
    return true;
}

bool
ShmWordRing::pop(std::uint32_t *w, std::uint32_t n)
{
    if (!peek(w, n))
        return false;
    hdr_->head.store(hdr_->head.load(std::memory_order_relaxed) + n,
                     std::memory_order_release);
    return true;
}

bool
ShmWordRing::skip(std::uint32_t n)
{
    std::uint32_t head = hdr_->head.load(std::memory_order_relaxed);
    std::uint32_t tail = hdr_->tail.load(std::memory_order_acquire);
    if (tail - head < n)
        return false;
    hdr_->head.store(head + n, std::memory_order_release);
    return true;
}

// ---------------------------------------------------------------------------
// ShmFrameLink
// ---------------------------------------------------------------------------

std::size_t
ShmFrameLink::bytesFor(std::uint32_t ring_words)
{
    return 2 * ShmWordRing::bytesFor(ring_words);
}

ShmFrameLink::ShmFrameLink(void *mem, std::uint32_t ring_words,
                           bool parent_side, bool init)
    // Ring A (first) carries parent->child, ring B child->parent.
    : tx_(parent_side
              ? mem
              : static_cast<char *>(mem) +
                    ShmWordRing::bytesFor(ring_words),
          ring_words, init),
      rx_(parent_side
              ? static_cast<void *>(
                    static_cast<char *>(mem) +
                    ShmWordRing::bytesFor(ring_words))
              : mem,
          ring_words, init)
{
}

namespace {

/** Bounded wait: poll @p ready, giving the CPU up between polls.
 *  @return false on timeout or peer death. */
bool
waitFor(const std::function<bool()> &ready,
        const std::function<bool()> &peer_dead, int timeout_ms)
{
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(timeout_ms);
    int spins = 0;
    while (!ready()) {
        if (peer_dead && peer_dead())
            return false;
        if (std::chrono::steady_clock::now() >= deadline)
            return false;
        // Brief spin for the common in-flight case, then sleep. The
        // 50 us sleep is not small against every slice: a ray
        // partition B slice takes 19-24 us at the median
        // (platform.remote.slice_us_p50 of perfbench
        // ray_roundtrip_shm, RelWithDebInfo, 4-vCPU VM), so a reply
        // that misses the spin waits up to two slices longer.
        if (++spins < 64)
            std::this_thread::yield();
        else
            std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    return true;
}

} // namespace

bool
ShmFrameLink::send(const Frame &f, int timeout_ms)
{
    std::uint32_t n =
        kRecHdrWords + static_cast<std::uint32_t>(f.payload.size());
    if (f.payload.size() > kMaxFramePayloadWords) {
        error_ = "shm frame: payload exceeds kMaxFramePayloadWords";
        return false;
    }
    if (n > tx_.capacity()) {
        error_ = "shm frame: record of " + std::to_string(n) +
                 " words exceeds ring capacity " +
                 std::to_string(tx_.capacity()) +
                 " — raise kShmRingWords";
        return false;
    }
    std::vector<std::uint32_t> rec(n);
    rec[0] = static_cast<std::uint32_t>(f.type);
    rec[1] = f.channel;
    rec[2] = static_cast<std::uint32_t>(f.payload.size());
    rec[3] = static_cast<std::uint32_t>(f.flowId);
    rec[4] = static_cast<std::uint32_t>(f.flowId >> 32);
    rec[5] = static_cast<std::uint32_t>(f.arg);
    rec[6] = static_cast<std::uint32_t>(f.arg >> 32);
    if (!f.payload.empty())
        std::memcpy(rec.data() + kRecHdrWords, f.payload.data(),
                    f.payload.size() * 4);
    if (tx_.push(rec.data(), n))
        return true;
    // Ring full: the peer must drain — bounded credit wait.
    if (!waitFor([&] { return tx_.freeWords() >= n; }, peerDead_,
                 timeout_ms)) {
        error_ = "shm frame: send timed out waiting for ring credit";
        return false;
    }
    return tx_.push(rec.data(), n);
}

RecvStatus
ShmFrameLink::recv(Frame &out, int timeout_ms)
{
    std::uint32_t hdr[kRecHdrWords];
    if (!waitFor([&] { return rx_.usedWords() >= kRecHdrWords; },
                 peerDead_, timeout_ms)) {
        if (peerDead_ && peerDead_())
            return RecvStatus::Closed;
        return RecvStatus::Timeout;
    }
    rx_.peek(hdr, kRecHdrWords);
    std::uint32_t words = hdr[2];
    if (words > kMaxFramePayloadWords) {
        error_ = "shm frame: impossible record length " +
                 std::to_string(words) + " words (segment stomped?)";
        return RecvStatus::Corrupt;
    }
    if (!waitFor(
            [&] { return rx_.usedWords() >= kRecHdrWords + words; },
            peerDead_, timeout_ms)) {
        if (peerDead_ && peerDead_())
            return RecvStatus::Closed;
        return RecvStatus::Timeout;
    }
    out.type = static_cast<FrameType>(hdr[0]);
    out.channel = hdr[1];
    out.flowId = hdr[3] | (static_cast<std::uint64_t>(hdr[4]) << 32);
    out.arg = hdr[5] | (static_cast<std::uint64_t>(hdr[6]) << 32);
    out.payload.resize(words);
    rx_.skip(kRecHdrWords);
    if (words > 0)
        rx_.pop(out.payload.data(), words);
    return RecvStatus::Ok;
}

} // namespace bcl
