/**
 * @file
 * Fault injection for the remote partition transports. The happy
 * path is pinned by the determinism matrix (test_partition_cosim);
 * this suite pins the failure semantics promised by
 * docs/ARCHITECTURE.md "Distributed co-simulation":
 *
 *   - a peer killed mid-slice surfaces as ONE clean FatalError
 *     naming the domain and pid, bounded by the configured transport
 *     timeout — never a hang, never a second error;
 *   - an ABI or program-signature mismatch is refused during the
 *     handshake, before any payload flows (exercised through the
 *     RemoteOptions hello overrides) — including two partitions that
 *     differ only in the scene their block RAMs were built with;
 *   - an exception inside the partition child reaches the parent as
 *     one FatalError carrying the child's diagnostic, not as a
 *     transport timeout;
 *   - a slice report shorter than its declared rule count is
 *     rejected by name;
 *   - in the serving layer, a Session whose remote partition dies
 *     fails alone: the pool drains, healthy neighbors complete with
 *     byte-identical outputs (PR 6's error-isolation contract,
 *     extended across a process boundary).
 *
 * Deliberately NOT in the TSan job: these tests fork with pool
 * workers / histories alive, which TSan's fork semantics do not
 * support cleanly.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <string>
#include <thread>
#include <vector>

#include <sys/types.h>

#include "common/logging.hpp"
#include "core/builder.hpp"
#include "core/domains.hpp"
#include "core/elaborate.hpp"
#include "core/partition.hpp"
#include "platform/cosim.hpp"
#include "serve/pool.hpp"
#include "workloads/workload.hpp"

namespace bcl {
namespace {

using namespace bcl::serve;

TypePtr w32() { return Type::bits(32); }

/** The SW->HW->SW echo pipeline (same shape as test_partition_cosim):
 *  push(x) -> toHw -> [HW: y = 2x+1] -> fromHw -> audio out. */
Program
makeEchoProgram()
{
    ModuleBuilder b("Top");
    b.addFifo("inQ", w32(), 8);
    b.addSync("toHw", w32(), 4, "SW", "HW");
    b.addSync("fromHw", w32(), 4, "HW", "SW");
    b.addAudioDev("out", "SW");
    b.addActionMethod("push", {{"x", w32()}},
                      callA("inQ", "enq", {varE("x")}), "SW");
    b.addRule("feed", parA({callA("toHw", "enq", {callV("inQ", "first")}),
                            callA("inQ", "deq")}));
    b.addRule("compute",
              letA("x", callV("toHw", "first"),
                   parA({callA("toHw", "deq"),
                         callA("fromHw", "enq",
                               {primE(PrimOp::Add,
                                      {primE(PrimOp::Mul,
                                             {varE("x"), intE(32, 2)}),
                                       intE(32, 1)})})})));
    b.addRule("drain", parA({callA("out", "output",
                                   {callV("fromHw", "first")}),
                             callA("fromHw", "deq")}));
    return ProgramBuilder().add(b.build()).setRoot("Top").build();
}

/** The echo pipeline with a lookup in hardware: the HW rule returns
 *  mem[x] for each message x, so an address past the 16-entry Bram
 *  panics inside whichever process runs the HW partition. */
Program
makeLookupProgram()
{
    ModuleBuilder b("Top");
    b.addFifo("inQ", w32(), 8);
    b.addSync("toHw", w32(), 4, "SW", "HW");
    b.addSync("fromHw", w32(), 4, "HW", "SW");
    b.addBram("mem", w32(), 16);
    b.addAudioDev("out", "SW");
    b.addActionMethod("push", {{"x", w32()}},
                      callA("inQ", "enq", {varE("x")}), "SW");
    b.addRule("feed", parA({callA("toHw", "enq", {callV("inQ", "first")}),
                            callA("inQ", "deq")}));
    b.addRule("lookup",
              letA("a", callV("toHw", "first"),
                   parA({callA("toHw", "deq"),
                         callA("fromHw", "enq",
                               {callV("mem", "read", {varE("a")})})})));
    b.addRule("drain", parA({callA("out", "output",
                                   {callV("fromHw", "first")}),
                             callA("fromHw", "deq")}));
    return ProgramBuilder().add(b.build()).setRoot("Top").build();
}

/** Attach @p inputs to the SW domain's push method, then stop. */
void
feedInputs(CoSim &cosim, const PartitionResult &parts,
           std::vector<std::int64_t> inputs)
{
    int push = parts.part("SW").prog.rootMethod("push");
    auto next = std::make_shared<size_t>(0);
    SwDriver driver;
    driver.step = [push, inputs, next](SwPort &port) -> std::uint64_t {
        if (*next >= inputs.size() ||
            !port.callActionMethod(
                push, {Value::makeInt(32, inputs[*next])}))
            return 0;
        (*next)++;
        return 1;
    };
    driver.done = [inputs, next] { return *next >= inputs.size(); };
    cosim.setDriver("SW", driver);
}

std::vector<TransportKind>
remoteTransportKinds()
{
    std::vector<TransportKind> kinds{TransportKind::SharedMem};
    if (netTransportAvailable())
        kinds.push_back(TransportKind::Tcp);
    return kinds;
}

TEST(RemoteFault, ChildKilledMidEpochIsOneBoundedCleanError)
{
    for (TransportKind kind : remoteTransportKinds()) {
        Program p = makeEchoProgram();
        ElabProgram elab = elaborate(p);
        DomainAssignment doms = inferDomains(elab);
        PartitionResult parts = partitionProgram(elab, doms);

        CosimConfig cfg;
        cfg.defaultTransport = kind;
        cfg.transportTimeoutMs = 2000;
        CoSim cosim(parts, cfg);

        const PartitionPart &sw = parts.part("SW");
        int push = sw.prog.rootMethod("push");
        int out_prim = sw.prog.primByPath("out");

        // Endless input: the run can only end via the injected fault.
        std::int64_t next_in = 0;
        SwDriver driver;
        driver.step = [&](SwPort &port) -> std::uint64_t {
            if (port.callActionMethod(
                    push, {Value::makeInt(32, next_in)})) {
                next_in++;
                return 1;
            }
            return 0;
        };
        driver.done = [] { return false; };
        cosim.setDriver("SW", driver);

        bool killed = false;
        auto done = [&](CoSim &cs) {
            if (!killed &&
                cs.storeOf("SW").at(out_prim).queue.size() >= 5) {
                pid_t pid = cs.remotePid("HW");
                EXPECT_GT(pid, 0) << transportName(kind);
                ::kill(pid, SIGKILL);
                killed = true;
            }
            return false;
        };

        const auto start = std::chrono::steady_clock::now();
        try {
            cosim.run(done);
            FAIL() << "a SIGKILLed partition child must surface as "
                      "FatalError (" << transportName(kind) << ")";
        } catch (const FatalError &e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find("remote partition 'HW'"),
                      std::string::npos)
                << transportName(kind) << ": " << msg;
        }
        const auto elapsed =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - start)
                .count();
        EXPECT_TRUE(killed) << transportName(kind)
                            << ": fault was never injected";
        // Detection is EOF/waitpid-driven, so it lands well inside
        // the 2 s transport timeout even on a loaded machine; the
        // bound proves "bounded by the timeout", with slack for CI.
        EXPECT_LT(elapsed, 15000)
            << transportName(kind)
            << ": death detection must not hang";
    }
}

TEST(RemoteFault, AbiMismatchIsRefusedBeforePayload)
{
    Program p = makeEchoProgram();
    ElabProgram elab = elaborate(p);
    DomainAssignment doms = inferDomains(elab);
    PartitionResult parts = partitionProgram(elab, doms);
    const ElabProgram &hw = parts.part("HW").prog;

    for (TransportKind kind : remoteTransportKinds()) {
        RemoteOptions opts;
        opts.helloAbiOverride = kCppGenAbiVersion + 7;
        try {
            RemoteHwPartition proxy(hw, kind, "HW", opts);
            FAIL() << "ABI mismatch accepted over "
                   << transportName(kind);
        } catch (const FatalError &e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find("refused"), std::string::npos)
                << transportName(kind) << ": " << msg;
            EXPECT_NE(msg.find("ABI"), std::string::npos)
                << transportName(kind) << ": " << msg;
        }
    }
}

TEST(RemoteFault, ProgramSignatureMismatchIsRefusedBeforePayload)
{
    Program p = makeEchoProgram();
    ElabProgram elab = elaborate(p);
    DomainAssignment doms = inferDomains(elab);
    PartitionResult parts = partitionProgram(elab, doms);
    const ElabProgram &hw = parts.part("HW").prog;

    for (TransportKind kind : remoteTransportKinds()) {
        RemoteOptions opts;
        opts.helloHashOverride = 0xBADC0FFEE0DDF00Dull;
        try {
            RemoteHwPartition proxy(hw, kind, "HW", opts);
            FAIL() << "program-hash mismatch accepted over "
                   << transportName(kind);
        } catch (const FatalError &e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find("refused"), std::string::npos)
                << transportName(kind) << ": " << msg;
            EXPECT_NE(msg.find("signature"), std::string::npos)
                << transportName(kind) << ": " << msg;
        }
    }
}

/**
 * The signature covers initial state: two ray-C hardware partitions
 * built from different seeds have identical structure but different
 * scenes in their BVH/scene block RAMs. A host holding one scene must
 * refuse a coordinator that elaborated the other, or the coordinator
 * would silently receive pixels of the wrong scene.
 */
TEST(RemoteFault, SceneMismatchIsRefusedBeforePayload)
{
    const NamedWorkload &c = findWorkload("ray_C");
    const WorkloadSize size{.side = 4, .prims = 16};
    PartitionResult a =
        partitionWorkload(*c.workload, c.partition->domains, size, 1);
    PartitionResult b =
        partitionWorkload(*c.workload, c.partition->domains, size, 2);
    const ElabProgram &hw_a = a.part("HW").prog;
    const ElabProgram &hw_b = b.part("HW").prog;
    ASSERT_EQ(hw_a.prims.size(), hw_b.prims.size());
    EXPECT_NE(programSignature(hw_a), programSignature(hw_b));

    RemoteOptions opts;
    opts.helloHashOverride = programSignature(hw_b);
    try {
        RemoteHwPartition proxy(hw_a, TransportKind::SharedMem, "HW",
                                opts);
        FAIL() << "a hello carrying the other scene's signature was "
                  "accepted";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("refused"), std::string::npos) << msg;
        EXPECT_NE(msg.find("signature"), std::string::npos) << msg;
    }
}

TEST(RemoteFault, ChildExceptionIsReportedNotTimedOut)
{
    Program p = makeLookupProgram();
    ElabProgram elab = elaborate(p);
    DomainAssignment doms = inferDomains(elab);
    PartitionResult parts = partitionProgram(elab, doms);

    const int timeout_ms = 20000;
    CosimConfig cfg;
    cfg.defaultTransport = TransportKind::SharedMem;
    cfg.transportTimeoutMs = timeout_ms;
    CoSim cosim(parts, cfg);
    feedInputs(cosim, parts, {3, 99});

    const auto start = std::chrono::steady_clock::now();
    int fatals = 0;
    try {
        cosim.run([](CoSim &) { return false; });
    } catch (const FatalError &e) {
        fatals++;
        const std::string msg = e.what();
        EXPECT_NE(msg.find("remote partition 'HW'"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("read address 99"), std::string::npos)
            << "the child's own diagnostic must reach the parent: "
            << msg;
    }
    EXPECT_EQ(fatals, 1);
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start)
            .count();
    EXPECT_LT(elapsed, timeout_ms / 2)
        << "the child's exception must be reported, not timed out";
}

TEST(RemoteFault, TruncatedSliceReportIsRejected)
{
    if (!netTransportAvailable())
        GTEST_SKIP() << "loopback TCP unavailable in this sandbox";
    Program p = makeEchoProgram();
    ElabProgram elab = elaborate(p);
    DomainAssignment doms = inferDomains(elab);
    PartitionResult parts = partitionProgram(elab, doms);
    const ElabProgram &hw = parts.part("HW").prog;

    // A fake partition host: a correct handshake, then a SliceDone
    // that declares every rule but carries per-rule counts for none.
    TcpListener listener;
    ASSERT_TRUE(listener.open());
    std::thread peer([&] {
        int fd = listener.acceptWithin(10000);
        if (fd < 0)
            return;
        FrameConn conn(fd);
        Frame f;
        while (conn.recv(f, 10000) == RecvStatus::Ok) {
            Frame reply;
            if (f.type == FrameType::Hello) {
                const std::uint64_t sig = programSignature(hw);
                reply.type = FrameType::HelloAck;
                reply.payload = {
                    static_cast<std::uint32_t>(kCppGenAbiVersion),
                    static_cast<std::uint32_t>(sig),
                    static_cast<std::uint32_t>(sig >> 32)};
            } else if (f.type == FrameType::Run) {
                // Fixed prefix of 12 words; word 11 = rule count.
                reply.type = FrameType::SliceDone;
                reply.payload.assign(12, 0);
                reply.payload[11] =
                    static_cast<std::uint32_t>(hw.rules.size());
            } else {
                continue;
            }
            conn.send(reply);
        }
    });

    CosimConfig cfg;
    cfg.defaultTransport = TransportKind::Tcp;
    cfg.remoteEndpoints["HW"] =
        "127.0.0.1:" + std::to_string(listener.port());
    cfg.transportTimeoutMs = 5000;
    {
        CoSim cosim(parts, cfg);
        feedInputs(cosim, parts, {1, 2, 3});
        try {
            cosim.run([](CoSim &) { return false; });
            ADD_FAILURE() << "a truncated slice report was accepted";
        } catch (const FatalError &e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find("truncated slice report"),
                      std::string::npos)
                << msg;
        }
    }  // the proxy closes the connection; the fake host returns
    peer.join();
}

/**
 * Serving-layer isolation across the process boundary: four Vorbis
 * sessions over shm-remote hardware partitions; the LAST queued
 * session's partition child is killed right after submission. Its
 * session must fail (drain rethrows), while the three healthy
 * neighbors complete with PCM byte-identical to the solo in-thread
 * reference — one dead remote cannot wedge the pool or bleed into
 * other streams.
 */
TEST(RemoteFault, DeadRemoteSessionFailsAloneWhilePoolDrains)
{
    const int frames = 2;
    const NamedWorkload &b = findWorkload("vorbis_B");
    const WorkloadSize size{.frames = frames};
    PartitionResult parts = partitionWorkload(
        *b.workload, b.partition->domains, size, b.workload->defaultSeed);

    // The hardware domains of this partitioning (every non-SW part).
    std::vector<std::string> hw_domains;
    for (const auto &part : parts.parts) {
        if (part.domain != "SW")
            hw_domains.push_back(part.domain);
    }
    ASSERT_FALSE(hw_domains.empty());

    CosimConfig cfg;
    cfg.defaultTransport = TransportKind::SharedMem;
    cfg.transportTimeoutMs = 60000;

    SessionManager mgr({2, {}});
    std::vector<std::shared_ptr<Session>> sessions;
    for (int i = 0; i < 4; i++) {
        sessions.push_back(mgr.startSession(
            parts, cfg,
            b.workload->stream(parts, size,
                               300 + static_cast<std::uint64_t>(i))));
    }

    // Kill the last session's remote children. It was queued behind
    // three two-quantum sessions on two workers, so it cannot have
    // finished yet; its next remote operation hits a dead peer.
    for (const std::string &dom : hw_domains) {
        pid_t pid = sessions[3]->cosim().remotePid(dom);
        ASSERT_GT(pid, 0) << dom;
        ::kill(pid, SIGKILL);
    }

    EXPECT_THROW(mgr.drain(), Error);
    PoolStats stats = mgr.pool().stats();
    EXPECT_EQ(stats.failed, 1u);
    EXPECT_EQ(stats.completed, 3u);

    for (int i = 0; i < 3; i++) {
        ASSERT_TRUE(sessions[static_cast<size_t>(i)]->finished());
        std::vector<std::uint32_t> got = b.workload->output(
            sessions[static_cast<size_t>(i)]->cosim(), parts);
        RunResult want = runWorkload(
            "vorbis_B", size, CosimConfig{},
            300 + static_cast<std::uint64_t>(i));
        EXPECT_EQ(got, want.output)
            << "healthy neighbor " << i
            << " diverged after a sibling's remote died";
    }
}

} // namespace
} // namespace bcl
