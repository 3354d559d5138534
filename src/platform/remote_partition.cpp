#include "platform/remote_partition.hpp"

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <thread>
#include <utility>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/logging.hpp"
#include "core/codegen_cpp.hpp"
#include "obs/metrics.hpp"
#include "platform/marshal.hpp"
#include "platform/shm_ring.hpp"

namespace bcl {

const char *
transportName(TransportKind k)
{
    switch (k) {
    case TransportKind::InThread:
        return "inthread";
    case TransportKind::SharedMem:
        return "shm";
    case TransportKind::Tcp:
        return "tcp";
    }
    return "?";
}

TransportKind
parseTransportKind(const std::string &name)
{
    if (name == "inthread")
        return TransportKind::InThread;
    if (name == "shm")
        return TransportKind::SharedMem;
    if (name == "tcp")
        return TransportKind::Tcp;
    fatal("unknown transport '" + name +
          "' (expected inthread|shm|tcp)");
}

namespace {

void
mix64(std::uint64_t &h, std::uint64_t v)
{
    for (int i = 0; i < 8; i++) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 1099511628211ull;
    }
}

void
mixStr(std::uint64_t &h, const std::string &s)
{
    mix64(h, s.size());
    for (char c : s) {
        h ^= static_cast<std::uint8_t>(c);
        h *= 1099511628211ull;
    }
}

} // namespace

std::uint64_t
programSignature(const ElabProgram &prog)
{
    std::uint64_t h = 14695981039346656037ull;
    mix64(h, prog.prims.size());
    for (const auto &prim : prog.prims) {
        mix64(h, static_cast<std::uint64_t>(prim.id));
        mixStr(h, prim.kind);
        mixStr(h, prim.path);
        mix64(h, prim.type
                     ? static_cast<std::uint64_t>(prim.type->flatWidth())
                     : ~0ull);
        mix64(h, static_cast<std::uint64_t>(prim.capacity));
        mix64(h, static_cast<std::uint64_t>(prim.size));
        mixStr(h, prim.domA);
        mixStr(h, prim.domB);
        mix64(h, static_cast<std::uint64_t>(prim.channelId));
        // Initial state (a Reg's reset value, a Bram's contents — the
        // ray scene lives there): two partitions that differ only in
        // data they were built with must not shake hands.
        if (prim.init.valid()) {
            for (std::uint32_t w : marshalValue(prim.init))
                mix64(h, w);
        }
    }
    mix64(h, prog.rules.size());
    for (const auto &rule : prog.rules) {
        mix64(h, static_cast<std::uint64_t>(rule.id));
        mixStr(h, rule.name);
        mixStr(h, rule.domain);
    }
    return h;
}

// ---------------------------------------------------------------------------
// Concrete links
// ---------------------------------------------------------------------------

namespace {

/** Parent side: owns the segment and initializes the rings; child
 *  side: views the same pages over @p base (the segment object stays
 *  in the parent's proxy). */
class ShmRemoteLink final : public RemoteLink
{
  public:
    ShmRemoteLink(void *base, std::unique_ptr<ShmSegment> seg,
                  bool parent_side)
        : seg_(std::move(seg)),
          link_(base, kShmRingWords, parent_side, parent_side)
    {
    }

    ShmFrameLink &frameLink() { return link_; }

    bool
    send(const Frame &f, int timeout_ms) override
    {
        return link_.send(f, timeout_ms);
    }

    RecvStatus
    recv(Frame &out, int timeout_ms) override
    {
        return link_.recv(out, timeout_ms);
    }

    const std::string &error() const override
    {
        return link_.error();
    }

  private:
    std::unique_ptr<ShmSegment> seg_;
    ShmFrameLink link_;
};

std::uint16_t
parseEndpointPort(const std::string &endpoint)
{
    auto colon = endpoint.rfind(':');
    std::string host = colon == std::string::npos
                           ? std::string()
                           : endpoint.substr(0, colon);
    std::string port_s = colon == std::string::npos
                             ? endpoint
                             : endpoint.substr(colon + 1);
    if (!host.empty() && host != "127.0.0.1" && host != "localhost")
        panic("remote endpoint '" + endpoint +
              "': only loopback hosts are supported");
    int port = std::atoi(port_s.c_str());
    if (port <= 0 || port > 65535)
        panic("remote endpoint '" + endpoint + "': bad port");
    return static_cast<std::uint16_t>(port);
}

/** SliceDone payload layout (words). */
enum SliceReportField {
    kRepConsumedLo,
    kRepConsumedHi,
    kRepFiredLo,
    kRepFiredHi,
    kRepActive,
    kRepStatCyclesLo,
    kRepStatCyclesHi,
    kRepStatFiredLo,
    kRepStatFiredHi,
    kRepStatBusyLo,
    kRepStatBusyHi,
    kRepNumRules,
    kRepWords,  // fixed prefix; 2 words per rule follow
};

void
put64(std::vector<std::uint32_t> &p, std::size_t at, std::uint64_t v)
{
    p[at] = static_cast<std::uint32_t>(v);
    p[at + 1] = static_cast<std::uint32_t>(v >> 32);
}

std::uint64_t
get64(const std::vector<std::uint32_t> &p, std::size_t at)
{
    return p[at] | (static_cast<std::uint64_t>(p[at + 1]) << 32);
}

/** Message type of every prim that crosses the wire, by prim id. */
std::map<int, TypePtr>
payloadTypes(const ElabProgram &prog, const MirrorPrims &prims)
{
    std::map<int, TypePtr> types;
    for (int id : prims.rx)
        types[id] = prog.prims[static_cast<size_t>(id)].type;
    for (int id : prims.tx)
        types[id] = prog.prims[static_cast<size_t>(id)].type;
    for (int id : prims.dev)
        types[id] = devicePayloadType(prog, id);
    return types;
}

} // namespace

// ---------------------------------------------------------------------------
// Child/host half: serve slices over a link
// ---------------------------------------------------------------------------

namespace {

/** Send a diagnostic to the coordinator (best effort). */
void
sendError(RemoteLink &link, const std::string &why, int timeout_ms)
{
    Frame err;
    err.type = FrameType::Error;
    err.setText("partition host: " + why);
    link.send(err, timeout_ms);
}

/** Ship and clear every queued message of @p prims. */
bool
shipQueues(RemoteLink &link, Store &store, const std::vector<int> &prims,
           int timeout_ms)
{
    for (int id : prims) {
        // Empty queues stay untouched: a mutable at() would move the
        // SyncTx's version and re-run the rules that use it.
        if (std::as_const(store).at(id).queue.empty())
            continue;
        auto &q = store.at(id).queue;
        for (const Value &v : q) {
            Frame m;
            m.type = FrameType::Msg;
            m.channel = static_cast<std::uint32_t>(id);
            m.payload = marshalValue(v);
            if (!link.send(m, timeout_ms))
                return false;
        }
        q.pop_front(q.size());
    }
    return true;
}

int
serveSlices(RemoteLink &link, const ElabProgram &prog, int timeout_ms,
            const ExecutorFactory &make_executor)
{
    const std::uint64_t hash = programSignature(prog);

    // --- handshake: refuse before any payload flows ----------------
    Frame f;
    RecvStatus st = link.recv(f, timeout_ms);
    if (st != RecvStatus::Ok || f.type != FrameType::Hello ||
        f.payload.size() < 3)
        return 2;
    std::uint32_t peer_abi = f.payload[0];
    std::uint64_t peer_hash = get64(f.payload, 1);
    if (peer_abi != static_cast<std::uint32_t>(kCppGenAbiVersion) ||
        peer_hash != hash) {
        Frame refuse;
        refuse.type = FrameType::Refuse;
        std::string why =
            peer_abi != static_cast<std::uint32_t>(kCppGenAbiVersion)
                ? "ABI version mismatch: peer " +
                      std::to_string(peer_abi) + ", host " +
                      std::to_string(kCppGenAbiVersion)
                : "program signature mismatch: the two processes "
                  "elaborated different partitions";
        refuse.setText(why);
        link.send(refuse, timeout_ms);
        return 3;
    }
    Frame ack;
    ack.type = FrameType::HelloAck;
    ack.payload.assign(3, 0);
    ack.payload[0] = static_cast<std::uint32_t>(kCppGenAbiVersion);
    put64(ack.payload, 1, hash);
    if (!link.send(ack, timeout_ms))
        return 2;

    // --- partition state (fork flavor inherits prog; the exec'd
    // host rebuilt it from the workload name) ----------------------
    Store store(prog);
    std::unique_ptr<DomainExecutor> exec = make_executor(store);
    const MirrorPrims prims(prog);
    const std::map<int, TypePtr> types = payloadTypes(prog, prims);

    for (;;) {
        st = link.recv(f, 1000);
        if (st == RecvStatus::Timeout)
            continue;  // idle between slices; peer death ends this
        if (st == RecvStatus::Closed)
            return 0;  // coordinator gone — nothing left to serve
        if (st == RecvStatus::Corrupt) {
            sendError(link, "transport corrupt: " + link.error(),
                      timeout_ms);
            return 4;
        }
        switch (f.type) {
        case FrameType::Msg: {
            auto it = types.find(static_cast<int>(f.channel));
            if (it == types.end() ||
                prog.prims[static_cast<size_t>(it->first)].kind !=
                    "SyncRx") {
                sendError(link,
                          "Msg for prim " + std::to_string(f.channel) +
                              " which is not a SyncRx here",
                          timeout_ms);
                return 4;
            }
            store.at(static_cast<int>(f.channel))
                .queue.push_back(
                    demarshalValue(it->second, f.payload));
            break;
        }
        case FrameType::Run: {
            exec->exchangeIn(store);
            ExecStep r = exec->step(f.arg > 0 ? f.arg : 1);
            exec->exchangeOut(store);
            // Ship produced messages before the report so the
            // coordinator sees a complete slice at SliceDone.
            if (!shipQueues(link, store, prims.tx, timeout_ms) ||
                !shipQueues(link, store, prims.dev, timeout_ms))
                return 4;
            const HwStats &hs = *exec->hwStats();
            Frame doneF;
            doneF.type = FrameType::SliceDone;
            doneF.payload.assign(
                kRepWords + 2 * hs.perRuleFires.size(), 0);
            put64(doneF.payload, kRepConsumedLo, r.consumed);
            put64(doneF.payload, kRepFiredLo, r.fired);
            doneF.payload[kRepActive] = exec->idle() ? 0 : 1;
            put64(doneF.payload, kRepStatCyclesLo, hs.cycles);
            put64(doneF.payload, kRepStatFiredLo, hs.rulesFired);
            put64(doneF.payload, kRepStatBusyLo, hs.busyCycles);
            doneF.payload[kRepNumRules] = static_cast<std::uint32_t>(
                hs.perRuleFires.size());
            for (std::size_t i = 0; i < hs.perRuleFires.size(); i++)
                put64(doneF.payload, kRepWords + 2 * i,
                      hs.perRuleFires[i]);
            if (!link.send(doneF, timeout_ms))
                return 4;
            break;
        }
        case FrameType::Shutdown:
            return 0;
        default:
            break;  // Hello retransmits etc. — ignore
        }
    }
}

} // namespace

int
servePartitionSlices(RemoteLink &link, const ElabProgram &prog,
                     int timeout_ms, const ExecutorFactory &make_executor)
{
    // Catch everything: in a forked child an escaping exception would
    // unwind into the child's copy of the parent's stack.
    try {
        return serveSlices(link, prog, timeout_ms, make_executor);
    } catch (const std::exception &e) {
        sendError(link, e.what(), timeout_ms);
    } catch (...) {
        sendError(link, "unknown exception", timeout_ms);
    }
    return 6;
}

// ---------------------------------------------------------------------------
// Coordinator-side proxy
// ---------------------------------------------------------------------------

void
RemoteHwPartition::die(const std::string &why) const
{
    fatal("remote partition '" + domain_ + "' (" +
          (pid_ > 0 ? "pid " + std::to_string(pid_)
                    : std::string("connected host")) +
          ", transport timeout " + std::to_string(timeoutMs_) +
          " ms): " + why);
}

RemoteHwPartition::RemoteHwPartition(const ElabProgram &prog,
                                     TransportKind kind,
                                     std::string domain,
                                     RemoteOptions opts,
                                     ExecutorFactory make_executor)
    : prog_(prog), domain_(std::move(domain)),
      timeoutMs_(opts.timeoutMs), prims_(prog),
      payloadType_(payloadTypes(prog, prims_))
{
    if (kind == TransportKind::SharedMem) {
        auto seg = std::make_unique<ShmSegment>(
            ShmFrameLink::bytesFor(kShmRingWords));
        if (!seg->valid())
            die("mmap of the shared-memory segment failed");
        void *base = seg->base();
        // Parent view initializes both rings BEFORE the fork so the
        // child attaches to a consistent segment.
        auto plink =
            std::make_unique<ShmRemoteLink>(base, std::move(seg), true);
        pid_t pid = ::fork();
        if (pid < 0)
            die("fork failed: " + std::string(std::strerror(errno)));
        if (pid == 0) {
            // Child: serve slices over its own view of the same
            // pages; the program was inherited by fork, nothing was
            // serialized. Exit without running parent atexit state.
            ShmRemoteLink clink(base, nullptr, false);
            pid_t parent = ::getppid();
            clink.frameLink().setPeerDeadCheck(
                [parent] { return ::getppid() != parent; });
            ::_exit(servePartitionSlices(clink, prog, opts.timeoutMs,
                                         make_executor));
        }
        pid_ = pid;
        plink->frameLink().setPeerDeadCheck([this] {
            if (reaped_)
                return true;
            int status = 0;
            pid_t r = ::waitpid(pid_, &status, WNOHANG);
            if (r == pid_)
                reaped_ = true;
            return reaped_;
        });
        link_ = std::move(plink);
    } else if (kind == TransportKind::Tcp) {
        if (!netTransportAvailable())
            die("loopback TCP sockets unavailable in this sandbox");
        TcpListener listener;
        if (!listener.open())
            die("could not open a loopback listener");
        std::uint16_t port = listener.port();
        pid_t pid = ::fork();
        if (pid < 0)
            die("fork failed: " + std::string(std::strerror(errno)));
        if (pid == 0) {
            listener.close();  // the child's copy of the fd only
            int fd = tcpConnect(port, opts.timeoutMs);
            if (fd < 0)
                ::_exit(5);
            TcpRemoteLink clink(fd);
            ::_exit(servePartitionSlices(clink, prog, opts.timeoutMs,
                                         make_executor));
        }
        pid_ = pid;
        int cfd = listener.acceptWithin(opts.timeoutMs);
        if (cfd < 0)
            die("partition child never connected back");
        link_ = std::make_unique<TcpRemoteLink>(cfd);
    } else {
        panic("RemoteHwPartition: InThread is not a remote "
              "transport");
    }
    handshake(opts);
}

RemoteHwPartition::RemoteHwPartition(const ElabProgram &prog,
                                     const std::string &endpoint,
                                     std::string domain,
                                     RemoteOptions opts)
    : prog_(prog), domain_(std::move(domain)),
      timeoutMs_(opts.timeoutMs), prims_(prog),
      payloadType_(payloadTypes(prog, prims_))
{
    if (!netTransportAvailable())
        die("loopback TCP sockets unavailable in this sandbox");
    int fd = tcpConnect(parseEndpointPort(endpoint), opts.timeoutMs);
    if (fd < 0)
        die("could not connect to partition host at " + endpoint);
    link_ = std::make_unique<TcpRemoteLink>(fd);
    handshake(opts);
}

void
RemoteHwPartition::handshake(const RemoteOptions &opts)
{
    stats_.perRuleFires.assign(prog_.rules.size(), 0);
    Frame hello;
    hello.type = FrameType::Hello;
    hello.payload.assign(3, 0);
    hello.payload[0] =
        opts.helloAbiOverride >= 0
            ? static_cast<std::uint32_t>(opts.helloAbiOverride)
            : static_cast<std::uint32_t>(kCppGenAbiVersion);
    put64(hello.payload, 1,
          opts.helloHashOverride != 0 ? opts.helloHashOverride
                                      : programSignature(prog_));
    if (!link_->send(hello, timeoutMs_))
        die("handshake send failed (peer gone?)");
    Frame resp;
    RecvStatus st = link_->recv(resp, timeoutMs_);
    if (st == RecvStatus::Timeout)
        die("handshake timed out");
    if (st == RecvStatus::Closed)
        die("peer closed the connection during the handshake");
    if (st == RecvStatus::Corrupt)
        die("handshake corrupt: " + link_->error());
    if (resp.type == FrameType::Refuse)
        die("handshake refused before any payload: " + resp.text());
    if (resp.type != FrameType::HelloAck || resp.payload.size() < 3)
        die("unexpected handshake reply");
    // Verify the acceptor's triple too — a cosim_partition_host
    // serving a different workload is caught here even though it
    // accepted ours (it cannot have: hashes differ symmetrically).
    if (resp.payload[0] !=
            static_cast<std::uint32_t>(kCppGenAbiVersion) ||
        get64(resp.payload, 1) != programSignature(prog_))
        die("handshake ack advertises a different ABI/program");
}

RemoteHwPartition::~RemoteHwPartition()
{
    if (link_) {
        Frame bye;
        bye.type = FrameType::Shutdown;
        link_->send(bye, 200);  // best effort
    }
    if (pid_ > 0 && !reaped_) {
        // Grace period for the orderly exit, then force it.
        for (int i = 0; i < 100 && !reaped_; i++) {
            int status = 0;
            if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                reaped_ = true;
                break;
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
        }
        if (!reaped_) {
            ::kill(pid_, SIGKILL);
            int status = 0;
            ::waitpid(pid_, &status, 0);
            reaped_ = true;
        }
    }
}

bool
RemoteHwPartition::exchangeIn(Store &mirror)
{
    bool moved = false;
    for (int id : prims_.rx) {
        if (std::as_const(mirror).at(id).queue.empty())
            continue;
        auto &queue = mirror.at(id).queue;
        for (const Value &v : queue) {
            Frame m;
            m.type = FrameType::Msg;
            m.channel = static_cast<std::uint32_t>(id);
            m.flowId = nextFlow_++;
            m.payload = marshalValue(v);
            if (!link_->send(m, timeoutMs_))
                die("shipping a channel message failed mid-slice");
            moved = true;
        }
        queue.pop_front(queue.size());
    }
    return moved;
}

ExecStep
RemoteHwPartition::step(std::uint64_t budget)
{
    auto t0 = std::chrono::steady_clock::now();
    Frame runF;
    runF.type = FrameType::Run;
    runF.arg = budget;
    if (!link_->send(runF, timeoutMs_))
        die("slice request failed (peer dead?)");

    ExecStep res;
    for (;;) {
        Frame f;
        RecvStatus st = link_->recv(f, timeoutMs_);
        if (st == RecvStatus::Timeout)
            die("slice overran the transport timeout");
        if (st == RecvStatus::Closed)
            die("peer died mid-slice");
        if (st == RecvStatus::Corrupt)
            die("transport corrupt mid-slice: " + link_->error());
        if (f.type == FrameType::Error)
            die("peer reported: " + f.text());
        if (f.type == FrameType::Msg) {
            auto it = payloadType_.find(static_cast<int>(f.channel));
            if (it == payloadType_.end())
                die("produced message for unknown prim " +
                    std::to_string(f.channel));
            produced_.emplace_back(
                it->first, demarshalValue(it->second, f.payload));
            continue;
        }
        if (f.type == FrameType::SliceDone) {
            if (f.payload.size() < kRepWords)
                die("short slice report");
            std::size_t n = f.payload[kRepNumRules];
            if (f.payload.size() < kRepWords + 2 * n)
                die("truncated slice report: " + std::to_string(n) +
                    " rules declared, per-rule counts for " +
                    std::to_string((f.payload.size() - kRepWords) / 2));
            res.consumed = get64(f.payload, kRepConsumedLo);
            res.cycles = static_cast<double>(res.consumed);
            res.fired = get64(f.payload, kRepFiredLo);
            active_ = f.payload[kRepActive] != 0;
            stats_.cycles = get64(f.payload, kRepStatCyclesLo);
            stats_.rulesFired = get64(f.payload, kRepStatFiredLo);
            stats_.busyCycles = get64(f.payload, kRepStatBusyLo);
            stats_.perRuleFires.resize(n);
            for (std::size_t i = 0; i < n; i++)
                stats_.perRuleFires[i] =
                    get64(f.payload, kRepWords + 2 * i);
            break;
        }
        // Anything else mid-slice is a protocol error.
        die("unexpected frame type " +
            std::to_string(static_cast<int>(f.type)) + " mid-slice");
    }
    if (obs::metrics().enabled()) {
        obs::metrics()
            .histogram("cosim.remote.slice_us",
                       obs::Histogram::exponentialBounds(1.0, 2.0, 22))
            .observe(std::chrono::duration<double, std::micro>(
                         std::chrono::steady_clock::now() - t0)
                         .count());
    }
    return res;
}

ExecStep
RemoteHwPartition::settledStep()
{
    active_ = false;
    ExecStep r;
    r.consumed = 1;
    r.cycles = 1;
    return r;
}

bool
RemoteHwPartition::exchangeOut(Store &mirror)
{
    bool moved = !produced_.empty();
    for (auto &[id, v] : produced_)
        mirror.at(id).queue.push_back(std::move(v));
    produced_.clear();
    return moved;
}

} // namespace bcl
