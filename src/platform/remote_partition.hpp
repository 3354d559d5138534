/**
 * @file
 * Remote hardware partitions: run a partition's executor in another
 * process and relay its latency-insensitive channel traffic per
 * slice. This is the distributed-LIBDN cash-in of the paper's §4.4
 * argument — because every cross-domain interface is a synchronizer
 * whose timing is semantics-free, a partition can move from a thread
 * to a forked child (shared-memory rings) or to another process
 * entirely (framed TCP) without changing functional outputs or
 * firing counts.
 *
 * Architecture (mirror-store relay): every ChannelTransport stays in
 * the coordinator process, operating on the domain's mirror Store —
 * flow pairing, channel.* metrics, credit checks and deadlock
 * detection are untouched. RemoteHwPartition is the coordinator's
 * DomainExecutor for the domain; only the boundary crosses the wire:
 *
 *   parent: deliveries land in mirror SyncRx queues
 *         -> exchangeIn(): marshal + Msg frames to the child
 *         -> step(budget) = Run{budget}: the child clocks its own
 *            executor up to `budget` cycles (stopping early when
 *            idle — no new input can arrive mid-slice), then ships
 *            SyncTx/device output back as Msg frames and
 *            SliceDone{consumed, cumulative stats, active}
 *         -> exchangeOut(): demarshal into mirror queues; transports
 *            pick them up; hw.time += consumed.
 *
 * A forked child builds its executor through makeDomainExecutor from
 * an artifact the coordinator resolved before the fork. The child is
 * stateless with respect to absolute virtual time (the parent owns
 * the clock), so the coordinator's quiescence-advance logic needs no
 * changes. A handshake verifying kCppGenAbiVersion and the program
 * signature runs before any payload; peer death, a slice overrunning
 * the transport timeout, a malformed slice report or an exception in
 * the child surfaces as one clean FatalError naming the domain and
 * pid.
 */
#ifndef BCL_PLATFORM_REMOTE_PARTITION_HPP
#define BCL_PLATFORM_REMOTE_PARTITION_HPP

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <sys/types.h>

#include "core/elaborate.hpp"
#include "runtime/domain_executor.hpp"
#include "platform/net_transport.hpp"
#include "runtime/store.hpp"

namespace bcl {

/** Where a domain's simulator runs (CosimConfig::transportOf). */
enum class TransportKind : std::uint8_t {
    InThread,   ///< historical: same process, direct store access
    SharedMem,  ///< forked child over mmap'd word rings
    Tcp,        ///< forked child (or remote host) over framed TCP
};

const char *transportName(TransportKind k);
/** Parse "inthread" | "shm" | "tcp" (bench flags); an unknown name
 *  is a FatalError (user input, not an internal invariant). */
TransportKind parseTransportKind(const std::string &name);

/**
 * Order-insensitive-free structural hash of an elaborated partition:
 * FNV-1a64 over every prim's identity (id, kind, path, width,
 * capacity, domains, channel) and initial state (marshaled words),
 * and every rule's (id, name, domain).
 * Both handshake sides compute it from their own ElabProgram — a
 * match means the two processes elaborated the same partition, so
 * marshaled payloads demarshal identically.
 */
std::uint64_t programSignature(const ElabProgram &prog);

/** Transport-agnostic frame pipe between coordinator and partition
 *  host (framed TCP or shm rings speak the same logical frames). */
class RemoteLink
{
  public:
    virtual ~RemoteLink() = default;
    virtual bool send(const Frame &f, int timeout_ms) = 0;
    virtual RecvStatus recv(Frame &out, int timeout_ms) = 0;
    virtual const std::string &error() const = 0;
};

/** Tuning/testing knobs for a remote partition. */
struct RemoteOptions
{
    /** Bound on every blocking transport operation (handshake, slice
     *  round trip). A peer that stays silent longer is declared dead. */
    int timeoutMs = 10000;
    /** Test hooks: when set, replace the real values in the Hello so
     *  handshake refusal paths can be exercised. 0 / -1 = real. */
    std::uint64_t helloHashOverride = 0;
    int helloAbiOverride = -1;
};

/** Builds a partition host's executor over the Store it owns. */
using ExecutorFactory =
    std::function<std::unique_ptr<DomainExecutor>(Store &)>;

/**
 * Coordinator-side proxy for one remote hardware domain. Constructing
 * one forks (or connects to) the partition host and completes the
 * handshake; any refusal, timeout or death is a FatalError. The proxy
 * maintains a local HwStats mirror refreshed from every SliceDone, so
 * CoSim::hwStats keeps working across the process boundary.
 */
class RemoteHwPartition final : public DomainExecutor
{
  public:
    /** Fork flavor: spawn a child of this process serving @p prog
     *  over @p kind (SharedMem or Tcp) with the executor
     *  @p make_executor builds (only the handshake runs without
     *  one). The child inherits the elaborated program by fork —
     *  nothing is serialized. */
    RemoteHwPartition(const ElabProgram &prog, TransportKind kind,
                      std::string domain, RemoteOptions opts = {},
                      ExecutorFactory make_executor = {});

    /** Connect flavor: attach to an already-running
     *  cosim_partition_host at @p endpoint ("127.0.0.1:PORT" or
     *  ":PORT"; loopback only). */
    RemoteHwPartition(const ElabProgram &prog,
                      const std::string &endpoint, std::string domain,
                      RemoteOptions opts = {});

    ~RemoteHwPartition() override;
    RemoteHwPartition(const RemoteHwPartition &) = delete;
    RemoteHwPartition &operator=(const RemoteHwPartition &) = delete;

    /** Marshal and ship every staged @p mirror SyncRx message. */
    bool exchangeIn(Store &mirror) override;

    /** Run one remote slice of up to @p budget cycles. */
    ExecStep step(std::uint64_t budget) override;

    /** The slice report a settled child would send, without the round
     *  trip: its burst leaves stats unchanged on a leading idle
     *  cycle, so the stats mirror stays as it is. */
    ExecStep settledStep() override;

    /** Demarshal the last slice's SyncTx/device output into
     *  @p mirror. */
    bool exchangeOut(Store &mirror) override;

    /** False while the child's pipelines were still draining when
     *  the last slice's budget ran out. */
    bool idle() const override { return !active_; }

    const HwStats *hwStats() const override { return &stats_; }
    /** Child pid (fork flavors); -1 for the connect flavor. */
    pid_t childPid() const override { return pid_; }

  private:
    void handshake(const RemoteOptions &opts);
    [[noreturn]] void die(const std::string &why) const;

    const ElabProgram &prog_;
    std::string domain_;
    int timeoutMs_;
    std::unique_ptr<RemoteLink> link_;
    pid_t pid_ = -1;
    bool reaped_ = false;
    HwStats stats_;
    bool active_ = true;
    const MirrorPrims prims_;
    std::map<int, TypePtr> payloadType_;  ///< prim id -> message type
    /** The last slice's output, (prim id, message), until
     *  exchangeOut. */
    std::vector<std::pair<int, Value>> produced_;
    std::uint64_t nextFlow_ = 1;
};

/**
 * Partition-host slice server: the child/host half of the protocol.
 * Handshakes (refusing an ABI or program-signature mismatch before
 * any payload), builds its executor with @p make_executor over a
 * Store it owns, then serves Msg/Run until Shutdown or peer death.
 * An exception while serving is reported to the coordinator as an
 * Error frame (the diagnostic text) instead of escaping.
 * @return process exit code (0 orderly, 2 bad handshake frame,
 * 3 refused, 4 transport corrupt, 6 exception reported).
 */
int servePartitionSlices(RemoteLink &link, const ElabProgram &prog,
                         int timeout_ms,
                         const ExecutorFactory &make_executor);

} // namespace bcl

#endif // BCL_PLATFORM_REMOTE_PARTITION_HPP
