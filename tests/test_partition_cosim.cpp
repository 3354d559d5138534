/**
 * @file
 * Integration tests of the partitioning + co-simulation pipeline on a
 * small SW->HW->SW echo/compute program: domain inference, partition
 * extraction, synchronizer splitting, channel transport with bus
 * timing, and bit-exact equivalence between the unpartitioned
 * interpreter run and the co-simulated partitioned run (the
 * latency-insensitivity property of section 4.3).
 */
#include <gtest/gtest.h>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "core/builder.hpp"
#include "core/domains.hpp"
#include "core/elaborate.hpp"
#include "core/partition.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "platform/cosim.hpp"
#include "platform/marshal.hpp"
#include "runtime/exec.hpp"
#include "serve/compile_cache.hpp"
#include "workloads/workload.hpp"

#include "random_types.hpp"

namespace bcl {
namespace {

TypePtr w32() { return Type::bits(32); }

/**
 * Pipeline: push(x) -> inQ -> [SW rule] -> toHw Sync -> [HW rule:
 * y = 2x+1] -> fromHw Sync -> [SW rule] -> audio out.
 */
Program
makeEchoProgram(int sync_capacity = 4)
{
    ModuleBuilder b("Top");
    b.addFifo("inQ", w32(), 8);
    b.addSync("toHw", w32(), sync_capacity, "SW", "HW");
    b.addSync("fromHw", w32(), sync_capacity, "HW", "SW");
    b.addAudioDev("out", "SW");

    b.addActionMethod("push", {{"x", w32()}},
                      callA("inQ", "enq", {varE("x")}), "SW");

    b.addRule("feed", parA({callA("toHw", "enq", {callV("inQ", "first")}),
                            callA("inQ", "deq")}));
    ActPtr compute = letA(
        "x", callV("toHw", "first"),
        parA({callA("toHw", "deq"),
              callA("fromHw", "enq",
                    {primE(PrimOp::Add,
                           {primE(PrimOp::Mul, {varE("x"), intE(32, 2)}),
                            intE(32, 1)})})}));
    b.addRule("compute", compute);
    b.addRule("drain", parA({callA("out", "output",
                                   {callV("fromHw", "first")}),
                             callA("fromHw", "deq")}));
    return ProgramBuilder().add(b.build()).setRoot("Top").build();
}

TEST(Domains, EchoProgramInfersThreeDomainsOfRules)
{
    Program p = makeEchoProgram();
    ElabProgram elab = elaborate(p);
    DomainAssignment doms = inferDomains(elab);
    EXPECT_TRUE(doms.partitioned());
    EXPECT_EQ(doms.domains.size(), 2u);
    EXPECT_EQ(elab.rules[elab.ruleByName("feed")].domain, "SW");
    EXPECT_EQ(elab.rules[elab.ruleByName("compute")].domain, "HW");
    EXPECT_EQ(elab.rules[elab.ruleByName("drain")].domain, "SW");
    // The input FIFO floats into SW; the audio device is pinned.
    EXPECT_EQ(doms.primDomain[elab.primByPath("inQ")], "SW");
    EXPECT_EQ(doms.primDomain[elab.primByPath("out")], "SW");
    // Syncs span.
    EXPECT_EQ(doms.primDomain[elab.primByPath("toHw")], "");
}

TEST(Domains, RuleSpanningTwoDomainsIsRejected)
{
    ModuleBuilder b("Top");
    b.addSync("s", w32(), 2, "SW", "HW");
    b.addAudioDev("out", "SW");
    // Illegal: reads the HW side of the sync and writes a SW device.
    b.addRule("bad", parA({callA("out", "output", {callV("s", "first")}),
                           callA("s", "deq")}));
    Program p = ProgramBuilder().add(b.build()).setRoot("Top").build();
    ElabProgram elab = elaborate(p);
    EXPECT_THROW(inferDomains(elab), FatalError);
}

TEST(Domains, FifoSharedAcrossDomainsIsRejected)
{
    // The common pitfall: plain FIFO used from both sides instead of a
    // Sync. Domain inference must refuse.
    ModuleBuilder b("Top");
    b.addFifo("f", w32(), 2);
    b.addSync("s", w32(), 2, "SW", "HW");
    b.addRule("swSide", callA("f", "enq", {intE(32, 1)}));
    b.addRule("hwSide", parA({callA("s", "enq", {callV("f", "first")}),
                              callA("f", "deq")}));
    // swSide touches f only (floats); hwSide pins f's domain to SW
    // via... actually hwSide pins itself to SW (sync enq side) and f
    // floats there too. Make it conflict: a rule that deqs s (HW) and
    // enqs f.
    b.addRule("hwSide2", parA({callA("f", "enq", {callV("s", "first")}),
                               callA("s", "deq")}));
    Program p = ProgramBuilder().add(b.build()).setRoot("Top").build();
    ElabProgram elab = elaborate(p);
    EXPECT_THROW(inferDomains(elab), FatalError);
}

TEST(Partition, EchoSplitsIntoTwoPartsWithChannels)
{
    Program p = makeEchoProgram();
    ElabProgram elab = elaborate(p);
    DomainAssignment doms = inferDomains(elab);
    PartitionResult parts = partitionProgram(elab, doms);

    ASSERT_EQ(parts.parts.size(), 2u);
    ASSERT_EQ(parts.channels.size(), 2u);

    const PartitionPart &sw = parts.part("SW");
    const PartitionPart &hw = parts.part("HW");
    // SW: inQ, toHw-Tx, fromHw-Rx, out; 2 rules + method.
    EXPECT_EQ(sw.prog.rules.size(), 2u);
    EXPECT_EQ(sw.prog.methods.size(), 1u);
    EXPECT_EQ(hw.prog.rules.size(), 1u);
    EXPECT_EQ(hw.prog.methods.size(), 0u);

    int tx_count = 0, rx_count = 0;
    for (const auto &prim : sw.prog.prims) {
        if (prim.kind == "SyncTx")
            tx_count++;
        if (prim.kind == "SyncRx")
            rx_count++;
    }
    EXPECT_EQ(tx_count, 1);
    EXPECT_EQ(rx_count, 1);

    for (const auto &chan : parts.channels) {
        EXPECT_EQ(chan.payloadWords, 1);
        EXPECT_GE(chan.txPrim, 0);
        EXPECT_GE(chan.rxPrim, 0);
    }
}

/** Run the unpartitioned program as the functional reference. */
std::vector<std::int64_t>
referenceRun(const std::vector<std::int64_t> &inputs)
{
    Program p = makeEchoProgram();
    ElabProgram elab = elaborate(p);
    Store store(elab);
    Interp interp(elab, store);
    RuleEngine engine(interp, SwStrategy::StaticOrder);
    int push = elab.rootMethod("push");

    size_t fed = 0;
    while (true) {
        engine.runToQuiescence();
        if (fed < inputs.size() &&
            interp.callActionMethod(
                push, {Value::makeInt(32, inputs[fed])})) {
            fed++;
            engine.poke();
            continue;
        }
        if (fed >= inputs.size() && engine.quiescent())
            break;
    }
    std::vector<std::int64_t> out;
    for (const auto &v : store.at(elab.primByPath("out")).queue)
        out.push_back(v.asInt());
    return out;
}

/** Run the partitioned program under co-simulation. */
std::vector<std::int64_t>
cosimRun(const std::vector<std::int64_t> &inputs,
         std::uint64_t *cycles_out = nullptr,
         CosimConfig cfg = CosimConfig{})
{
    Program p = makeEchoProgram();
    ElabProgram elab = elaborate(p);
    DomainAssignment doms = inferDomains(elab);
    PartitionResult parts = partitionProgram(elab, doms);

    CoSim cosim(parts, cfg);
    const PartitionPart &sw = parts.part("SW");
    int push = sw.prog.rootMethod("push");
    int out_prim = sw.prog.primByPath("out");

    size_t fed = 0;
    SwDriver driver;
    driver.step = [&](SwPort &port) -> std::uint64_t {
        if (fed >= inputs.size())
            return 0;
        std::uint64_t before = port.work();
        if (port.callActionMethod(
                push, {Value::makeInt(32, inputs[fed])})) {
            fed++;
            return port.work() - before + 1;
        }
        return 0;
    };
    driver.done = [&] { return fed >= inputs.size(); };
    cosim.setDriver("SW", driver);

    std::uint64_t cycles = cosim.run([&](CoSim &cs) {
        return cs.storeOf("SW").at(out_prim).queue.size() ==
               inputs.size();
    });
    if (cycles_out)
        *cycles_out = cycles;

    std::vector<std::int64_t> out;
    for (const auto &v : cosim.storeOf("SW").at(out_prim).queue)
        out.push_back(v.asInt());
    return out;
}

TEST(CoSim, EchoComputesSameResultsAsUnpartitionedReference)
{
    std::vector<std::int64_t> inputs;
    for (int i = 0; i < 50; i++)
        inputs.push_back(i * 3 - 25);

    std::vector<std::int64_t> ref = referenceRun(inputs);
    ASSERT_EQ(ref.size(), inputs.size());
    for (size_t i = 0; i < inputs.size(); i++)
        EXPECT_EQ(ref[i], inputs[i] * 2 + 1);

    std::uint64_t cycles = 0;
    std::vector<std::int64_t> cos = cosimRun(inputs, &cycles);
    EXPECT_EQ(cos, ref);
    EXPECT_GT(cycles, 0u);
}

TEST(CoSim, SingleMessageRoundTripNearHundredCycles)
{
    // Section 7: "we achieve a round-trip latency of approximately
    // 100 FPGA cycles". That figure is the synchronizer/transport
    // layer itself, so measure with the software driver-side cost
    // zeroed out (it is a separate, software, cost).
    CosimConfig cfg;
    cfg.swCosts.perSyncMessage = 0;
    std::uint64_t cycles = 0;
    std::vector<std::int64_t> out = cosimRun({7}, &cycles, cfg);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 15);
    EXPECT_GE(cycles, 60u);
    EXPECT_LE(cycles, 220u);
}

TEST(CoSim, ThroughputBenefitsFromSyncCapacityPipelining)
{
    // More synchronizer buffering lets transfers overlap; with
    // capacity 1 every message pays the full round trip.
    std::vector<std::int64_t> inputs(64);
    for (size_t i = 0; i < inputs.size(); i++)
        inputs[i] = static_cast<std::int64_t>(i);

    auto run_with_capacity = [&](int cap) {
        Program p = makeEchoProgram(cap);
        ElabProgram elab = elaborate(p);
        DomainAssignment doms = inferDomains(elab);
        PartitionResult parts = partitionProgram(elab, doms);
        CoSim cosim(parts, CosimConfig{});
        const PartitionPart &sw = parts.part("SW");
        int push = sw.prog.rootMethod("push");
        int out_prim = sw.prog.primByPath("out");
        size_t fed = 0;
        SwDriver driver;
        driver.step = [&](SwPort &port) -> std::uint64_t {
            if (fed >= inputs.size())
                return 0;
            std::uint64_t before = port.work();
            if (port.callActionMethod(
                    push, {Value::makeInt(32, inputs[fed])})) {
                fed++;
                return port.work() - before + 1;
            }
            return 0;
        };
        driver.done = [&] { return fed >= inputs.size(); };
        cosim.setDriver("SW", driver);
        return cosim.run([&](CoSim &cs) {
            return cs.storeOf("SW").at(out_prim).queue.size() ==
                   inputs.size();
        });
    };

    std::uint64_t slow = run_with_capacity(1);
    std::uint64_t fast = run_with_capacity(16);
    EXPECT_LT(fast, slow);
}

TEST(CoSim, DeadlockIsReportedNotHung)
{
    // HW consumes but never produces; the done predicate waits for
    // output that can never appear.
    ModuleBuilder b("Top");
    b.addSync("toHw", w32(), 2, "SW", "HW");
    b.addAudioDev("out", "SW");
    b.addReg("sink", w32());  // HW-side sink register
    b.addActionMethod("push", {{"x", w32()}},
                      callA("toHw", "enq", {varE("x")}), "SW");
    b.addRule("consume", parA({regWrite("sink", callV("toHw", "first")),
                               callA("toHw", "deq")}));
    Program p = ProgramBuilder().add(b.build()).setRoot("Top").build();
    ElabProgram elab = elaborate(p);
    DomainAssignment doms = inferDomains(elab);
    PartitionResult parts = partitionProgram(elab, doms);

    CoSim cosim(parts, CosimConfig{});
    const PartitionPart &sw = parts.part("SW");
    int push = sw.prog.rootMethod("push");
    int out_prim = sw.prog.primByPath("out");
    bool pushed = false;
    SwDriver driver;
    driver.step = [&](SwPort &port) -> std::uint64_t {
        if (pushed)
            return 0;
        std::uint64_t before = port.work();
        if (port.callActionMethod(push, {Value::makeInt(32, 1)})) {
            pushed = true;
            return port.work() - before + 1;
        }
        return 0;
    };
    driver.done = [&] { return pushed; };
    cosim.setDriver("SW", driver);

    EXPECT_THROW(cosim.run([&](CoSim &cs) {
        return !cs.storeOf("SW").at(out_prim).queue.empty();
    }),
                 FatalError);
}

TEST(Schedule, DataflowOrderPutsProducersFirst)
{
    Program p = makeEchoProgram();
    ElabProgram elab = elaborate(p);
    SwSchedule sched = buildSwSchedule(elab);
    ASSERT_EQ(sched.order.size(), 3u);
    int feed = elab.ruleByName("feed");
    int compute = elab.ruleByName("compute");
    int drain = elab.ruleByName("drain");
    auto pos = [&](int r) {
        for (size_t i = 0; i < sched.order.size(); i++) {
            if (sched.order[i] == r)
                return static_cast<int>(i);
        }
        return -1;
    };
    EXPECT_LT(pos(feed), pos(compute));
    EXPECT_LT(pos(compute), pos(drain));
    // feed enables compute; compute enables drain.
    EXPECT_FALSE(sched.enables[feed].empty());
    EXPECT_FALSE(sched.enables[compute].empty());
}

TEST(Hw, ValidateRejectsLoopsAndSeq)
{
    ModuleBuilder b("Top");
    b.addReg("r", w32());
    b.addRule("looper", loopA(boolE(false), noOpA()));
    Program p = ProgramBuilder().add(b.build()).setRoot("Top").build();
    ElabProgram elab = elaborate(p);
    EXPECT_THROW(validateForHardware(elab), FatalError);

    ModuleBuilder c("Top");
    c.addReg("r", w32());
    c.addRule("seqr", seqA({regWrite("r", intE(32, 1)),
                            regWrite("r", intE(32, 2))}));
    Program p2 = ProgramBuilder().add(c.build()).setRoot("Top").build();
    ElabProgram elab2 = elaborate(p2);
    EXPECT_THROW(validateForHardware(elab2), FatalError);
}

TEST(Marshal, RoundTripsEveryShapeInCanonicalWordCount)
{
    TypePtr cplx = Type::record(
        "Complex", {{"re", Type::bits(32)}, {"im", Type::bits(32)}});
    TypePtr t = Type::vec(3, cplx);
    Value v = Value::makeVec(
        {Value::makeStruct({{"re", Value::makeInt(32, -7)},
                            {"im", Value::makeInt(32, 42)}}),
         Value::makeStruct({{"re", Value::makeInt(32, 1 << 30)},
                            {"im", Value::makeInt(32, -3)}}),
         Value::makeStruct({{"re", Value::makeInt(32, 0)},
                            {"im", Value::makeInt(32, -1)}})});
    std::vector<std::uint32_t> words = marshalValue(v);
    EXPECT_EQ(static_cast<int>(words.size()),
              (t->flatWidth() + 31) / 32);
    EXPECT_EQ(demarshalValue(t, words), v);

    // Odd (non word-multiple) widths round-trip too.
    TypePtr odd = Type::record("Odd", {{"a", Type::bits(13)},
                                       {"b", Type::boolean()},
                                       {"c", Type::bits(24)}});
    Value ov = Value::makeStruct({{"a", Value::makeBits(13, 0x1234)},
                                  {"b", Value::makeBool(true)},
                                  {"c", Value::makeBits(24, 0xabcdef)}});
    std::vector<std::uint32_t> owords = marshalValue(ov);
    EXPECT_EQ(owords.size(), 2u);  // 38 bits -> 2 words
    EXPECT_EQ(demarshalValue(odd, owords), ov);
}

// ---------------------------------------------------------------------------
// Randomized marshal round-trip: generated types and values, not just
// the hand-picked shapes above. Seeded (common/rng.hpp) so failures
// reproduce exactly.
// ---------------------------------------------------------------------------

TEST(Marshal, RandomizedRoundTripIsBitExact)
{
    Rng rng(0x4A55u);
    for (int iter = 0; iter < 500; iter++) {
        TypePtr t = randomType(rng, 3);
        Value v = randomValue(rng, t);
        std::vector<std::uint32_t> words = marshalValue(v);
        ASSERT_EQ(static_cast<int>(words.size()),
                  (t->flatWidth() + 31) / 32)
            << "canonical sizing violated for " << t->str();
        Value back = demarshalValue(t, words);
        ASSERT_EQ(back, v)
            << "round-trip mismatch for " << t->str() << ": "
            << v.str() << " vs " << back.str();
    }
}

TEST(Marshal, RandomizedTruncatedPrefixesAndExcessAreRejected)
{
    Rng rng(0x7A75u);
    for (int iter = 0; iter < 200; iter++) {
        TypePtr t = randomType(rng, 2);
        Value v = randomValue(rng, t);
        std::vector<std::uint32_t> words = marshalValue(v);
        // EVERY strict prefix must be diagnosed, not just size-1.
        for (size_t keep = 0; keep < words.size(); keep++) {
            std::vector<std::uint32_t> prefix(words.begin(),
                                              words.begin() + keep);
            EXPECT_THROW(demarshalValue(t, prefix), PanicError)
                << t->str() << " with " << keep << "/" << words.size()
                << " words";
        }
        std::vector<std::uint32_t> excess = words;
        excess.push_back(0);
        EXPECT_THROW(demarshalValue(t, excess), PanicError)
            << t->str();
    }
}

// ---------------------------------------------------------------------------
// Bus model: burst accounting must split at the documented boundary
// (maxBurstWords counts the header word — satellite of the 256/1024
// default mismatch fix, now pinned through the PlatformSpec preset).
// ---------------------------------------------------------------------------

TEST(Bus, OccupancySplitsBurstsAtDocumentedBoundary)
{
    // The ml507 preset's one link class must be the BusParams
    // defaults — the single source of the calibration (the duplicate
    // factory that once disagreed, 256 vs 1024, is gone).
    PlatformSpec spec = PlatformSpec::ml507();
    BusParams bus = spec.resolveLink("SW", "HW");
    ASSERT_EQ(bus.maxBurstWords, 1024);
    ASSERT_EQ(bus, BusParams{})
        << "constructor default and ml507 preset must agree";

    // words + 1 header <= 1024 -> a single burst: one per-message
    // overhead plus one cycle per word.
    EXPECT_EQ(bus.occupancyCycles(1), bus.perMessageOverhead + 2);
    EXPECT_EQ(bus.occupancyCycles(1023),
              bus.perMessageOverhead + 1024);
    // 1024 payload words + header = 1025 -> exactly two bursts.
    EXPECT_EQ(bus.occupancyCycles(1024),
              2 * bus.perMessageOverhead + 1025);
    // Large transfer: ceil(4097/1024) = 5 bursts.
    EXPECT_EQ(bus.occupancyCycles(4096),
              5 * bus.perMessageOverhead + 4097);

    // The §7 calibration: a 512-word streaming message sustains at
    // least 380 MB/s of the "up to 400 MB/s" line rate (4 B/cycle at
    // 100 MHz); the once-divergent 256-word default capped this at
    // ~349 MB/s.
    std::uint64_t occ = bus.occupancyCycles(512);
    double mbps = 512.0 * 4.0 /
                  static_cast<double>(occ) * 100.0;  // 100 MHz
    EXPECT_GT(mbps, 380.0);
    EXPECT_LE(mbps, 400.0);
}

// ---------------------------------------------------------------------------
// ChannelTransport accounting. A transport is driven by hand over the
// echo program's first channel so pump/deliver times are exact.
// ---------------------------------------------------------------------------

/** Harness owning the two stores + arbiter a transport needs. */
struct TransportRig
{
    Program prog = makeEchoProgram();
    ElabProgram elab;
    DomainAssignment doms;
    PartitionResult parts;
    std::unique_ptr<Store> txStore;
    std::unique_ptr<Store> rxStore;
    LinkArbiter link;
    ChannelSpec spec;

    explicit TransportRig()
    {
        elab = elaborate(prog);
        doms = inferDomains(elab);
        parts = partitionProgram(elab, doms);
        // SW -> HW channel ("toHw").
        for (const auto &c : parts.channels) {
            if (c.fromDomain == "SW")
                spec = c;
        }
        txStore = std::make_unique<Store>(parts.part("SW").prog);
        rxStore = std::make_unique<Store>(parts.part("HW").prog);
    }

    Value msg(std::int64_t v) { return Value::makeInt(32, v); }
};

TEST(Channel, StallChargesDeferredCyclesNotPumpAttempts)
{
    TransportRig rig;
    ChannelTransport ch(rig.spec, *rig.txStore, *rig.rxStore, rig.link,
                        BusParams{});

    // Exhaust credits: consumer half full to capacity.
    PrimState &rx = rig.rxStore->at(rig.spec.rxPrim);
    for (int i = 0; i < rig.spec.capacity; i++)
        rx.queue.push_back(rig.msg(100 + i));

    // Stage one message; the pickup must defer.
    rig.txStore->at(rig.spec.txPrim).queue.push_back(rig.msg(7));
    ch.pump(100);
    EXPECT_EQ(ch.stats().messages, 0u);
    EXPECT_EQ(ch.stats().stallEvents, 1u);
    EXPECT_EQ(ch.stats().stallCycles, 0u)
        << "no cycles have elapsed yet";

    // The charge is elapsed virtual time, never an attempt count:
    // nine polls spanning 90 cycles accrue exactly 90 (the pre-fix
    // behavior counted one per pump call), and re-polling the same
    // instant charges zero.
    for (std::uint64_t t = 110; t <= 190; t += 10)
        ch.pump(t);
    EXPECT_EQ(ch.stats().stallEvents, 1u);
    EXPECT_EQ(ch.stats().stallCycles, 90u);
    ch.pump(190);
    ch.pump(190);
    EXPECT_EQ(ch.stats().stallCycles, 90u)
        << "same-instant polls must not double-charge";

    // Consumer drains at t=300; the restarted pickup completes the
    // episode at the actual deferral span: 300 - 100.
    rx.queue.clear();
    ch.pump(300);
    EXPECT_EQ(ch.stats().messages, 1u);
    EXPECT_EQ(ch.stats().stallCycles, 200u);
    EXPECT_EQ(ch.stats().stallEvents, 1u);

    // An unstalled pickup charges nothing.
    rig.txStore->at(rig.spec.txPrim).queue.push_back(rig.msg(8));
    rx.queue.clear();
    ch.pump(400);
    EXPECT_EQ(ch.stats().messages, 2u);
    EXPECT_EQ(ch.stats().stallCycles, 200u);
    EXPECT_EQ(ch.stats().stallEvents, 1u);
}

TEST(Channel, RxOverflowPanics)
{
    // The credit invariant is enforced at delivery: stuff the consumer
    // half behind the transport's back after a pickup and the landing
    // message must panic instead of overflowing the synchronizer.
    TransportRig rig;
    ChannelTransport ch(rig.spec, *rig.txStore, *rig.rxStore, rig.link,
                        BusParams{});

    rig.txStore->at(rig.spec.txPrim).queue.push_back(rig.msg(1));
    ch.pump(0);
    ASSERT_EQ(ch.stats().messages, 1u);

    PrimState &rx = rig.rxStore->at(rig.spec.rxPrim);
    for (int i = 0; i < rig.spec.capacity; i++)
        rx.queue.push_back(rig.msg(200 + i));

    EXPECT_THROW(ch.deliver(100000), PanicError);
}

TEST(Channel, ValueQueueOverPopPanics)
{
    // The FIFO invariant is hard: over-popping panics instead of
    // wrapping the front index past the buffer.
    ValueQueue q;
    q.push_back(Value::makeInt(32, 1));
    q.pop_front();
    EXPECT_TRUE(q.empty());
    EXPECT_THROW(q.pop_front(), PanicError);
    q.push_back(Value::makeInt(32, 2));
    EXPECT_THROW(q.pop_front(2), PanicError);
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(q.front().asInt(), 2);
}

TEST(CoSim, RejectsThreadCountsOtherThanOne)
{
    // The loop is sequential; CosimConfig::threads only accepts 1.
    Program p = makeEchoProgram();
    ElabProgram elab = elaborate(p);
    DomainAssignment doms = inferDomains(elab);
    PartitionResult parts = partitionProgram(elab, doms);
    for (int threads : {0, 2}) {
        CosimConfig cfg;
        cfg.threads = threads;
        EXPECT_THROW(CoSim cosim(parts, cfg), FatalError)
            << "threads=" << threads;
    }
}

TEST(CoSim, TracingOnMatchesTracingOff)
{
    // Tracing is purely observational: with the global recorder and
    // registry enabled, outputs AND cycle accounting stay
    // byte-identical (an event site that perturbed scheduling would
    // show up here).
    std::vector<std::int64_t> inputs;
    for (int i = 0; i < 50; i++)
        inputs.push_back(i * 7 - 100);
    std::uint64_t cycles_off = 0;
    std::vector<std::int64_t> off = cosimRun(inputs, &cycles_off);

    obs::trace().enable(true);
    obs::metrics().enable(true);
    std::uint64_t cycles_on = 0;
    std::vector<std::int64_t> on = cosimRun(inputs, &cycles_on);
    obs::trace().enable(false);
    obs::metrics().enable(false);
    obs::trace().clear();

    EXPECT_EQ(on, off);
    EXPECT_EQ(cycles_on, cycles_off);
}

// ---------------------------------------------------------------------------
// Determinism matrix: Vorbis / ray-tracer partitionings (the lettered
// Figure 12/14 configurations plus the per-stage splits with >= 3
// domains) must reproduce the interpreted in-thread ml507 reference
// across the software backend, the hardware backend, the platform
// model and the partition transport. Outputs and firing counts are
// byte-identical on every axis; the compiled hardware backend is also
// cycle-exact. The ray harness reads results back through mirror
// registers, which the compiled software ABI does not sync, so ray
// runs interpreted software (see docs/ARCHITECTURE.md "Executing
// generated software").
// ---------------------------------------------------------------------------

/** Every registered partition of @p workload ("vorbis_F", ...). */
std::vector<std::string>
namesOf(const std::string &workload)
{
    std::vector<std::string> names;
    for (const NamedWorkload &nw : allWorkloads()) {
        if (nw.workload->name == workload)
            names.push_back(nw.name);
    }
    return names;
}

TEST(CoSimMatrix, VorbisDeterminismMatrixCompiled)
{
    if (!CompiledPartition::hostCompilerAvailable())
        GTEST_SKIP() << "no host compiler";
    const WorkloadSize size{.frames = 2};
    const std::vector<std::string> configs = namesOf("vorbis");

    // Interpreted is the golden reference for the compiled backend
    // (the differential contract).
    for (size_t ci = 0; ci < configs.size(); ci++) {
        RunResult ref = runWorkload(configs[ci], size);
        EXPECT_FALSE(ref.output.empty()) << "config " << ci;
        CosimConfig cfg;
        cfg.swBackend = SwBackend::Compiled;
        RunResult r = runWorkload(configs[ci], size, cfg);
        EXPECT_EQ(r.output, ref.output) << "config " << ci;
        EXPECT_EQ(r.swRulesFired, ref.swRulesFired) << "config " << ci;
    }
}

// The hardware-backend axis: every run below must reproduce the
// interpreted golden reference — and because the two hardware
// backends are cycle-exact against each other (unlike the software
// ones), hwRuleFires and fpgaCycles must match too.

TEST(CoSimMatrix, VorbisDeterminismMatrixCompiledHw)
{
    if (!CompiledHwPartition::hostCompilerAvailable())
        GTEST_SKIP() << "no host compiler";
    const WorkloadSize size{.frames = 2};
    const std::vector<std::string> configs{"vorbis_E", "vorbis_split"};

    serve::CompileCache cache;
    auto provider = [&cache](const ElabProgram &prog,
                             const GenccOptions &opts) {
        return cache.get(prog, opts);
    };

    RunResult ref;
    for (size_t ci = 0; ci < configs.size(); ci++) {
        ref = runWorkload(configs[ci], size);
        CosimConfig cfg;
        cfg.hwBackend = HwBackend::Compiled;
        cfg.compileProvider = provider;
        RunResult r = runWorkload(configs[ci], size, cfg);
        EXPECT_EQ(r.output, ref.output) << "config " << ci;
        EXPECT_EQ(r.swRulesFired, ref.swRulesFired) << "config " << ci;
        EXPECT_EQ(r.hwRuleFires, ref.hwRuleFires) << "config " << ci;
        EXPECT_EQ(r.fpgaCycles, ref.fpgaCycles)
            << "config " << ci << ": compiled hw must be cycle-exact";
    }

    // Both backends compiled at once (the all-generated pipeline) on
    // the last config; the software side only promises
    // output/firing equivalence, so cycle counts are not compared.
    CosimConfig cfg;
    cfg.swBackend = SwBackend::Compiled;
    cfg.hwBackend = HwBackend::Compiled;
    cfg.compileProvider = provider;
    RunResult r = runWorkload(configs.back(), size, cfg);
    EXPECT_EQ(r.output, ref.output);
    EXPECT_EQ(r.swRulesFired, ref.swRulesFired);
}

TEST(CoSimMatrix, RayDeterminismMatrixCompiledHw)
{
    if (!CompiledHwPartition::hostCompilerAvailable())
        GTEST_SKIP() << "no host compiler";
    const WorkloadSize size{.side = 6, .prims = 32};
    const std::vector<std::string> configs{"ray_C", "ray_split"};

    serve::CompileCache cache;
    auto provider = [&cache](const ElabProgram &prog,
                             const GenccOptions &opts) {
        return cache.get(prog, opts);
    };

    for (size_t ci = 0; ci < configs.size(); ci++) {
        RunResult ref = runWorkload(configs[ci], size);
        CosimConfig cfg;
        cfg.hwBackend = HwBackend::Compiled;
        cfg.compileProvider = provider;
        RunResult r = runWorkload(configs[ci], size, cfg);
        EXPECT_EQ(r.output, ref.output) << "config " << ci;
        EXPECT_EQ(r.hwRuleFires, ref.hwRuleFires) << "config " << ci;
        EXPECT_EQ(r.fpgaCycles, ref.fpgaCycles)
            << "config " << ci << ": compiled hw must be cycle-exact";
    }
}

// ---------------------------------------------------------------------------
// Transport axis of the determinism matrix: the LIBDN license (§4.4)
// that lets link timing shift also lets a whole hardware partition
// move OUT OF PROCESS — forked child over shared-memory rings, or
// framed loopback TCP. Outputs and firing counts must stay
// byte-identical to the in-thread reference; only cycle accounting
// may shift. TCP cases degrade to shm-only when the sandbox forbids
// loopback sockets.
// ---------------------------------------------------------------------------

std::vector<TransportKind>
remoteTransportKinds()
{
    std::vector<TransportKind> kinds{TransportKind::SharedMem};
    if (netTransportAvailable())
        kinds.push_back(TransportKind::Tcp);
    return kinds;
}

// The platform axis: link timing is a latency-insensitivity axis
// exactly like transports. Any platform model — here the
// heterogeneous two-class topology, the strongest case because
// different channel pairs run under different BusParams in one run —
// must reproduce the ml507 outputs and firing counts, in-thread, over
// the shared-memory transport, and under the compiled software
// backend where the host supports it.
TEST(CoSimMatrix, VorbisDeterminismAcrossPlatformModels)
{
    const WorkloadSize size{.frames = 2};
    const std::string config = "vorbis_split";

    CosimConfig ref_cfg; // ml507 preset, in-thread
    RunResult ref = runWorkload(config, size, ref_cfg);
    EXPECT_FALSE(ref.output.empty());

    std::vector<PlatformSpec> platforms{
        PlatformSpec::pcie(),
        loadPlatformSpec(
            BCL_SRC_DIR "/../configs/het_onchip_offchip.config")};
    for (const PlatformSpec &plat : platforms) {
        {
            CosimConfig cfg;
            cfg.platform = plat;
            RunResult r = runWorkload(config, size, cfg);
            EXPECT_EQ(r.output, ref.output) << plat.name;
            EXPECT_EQ(r.swRulesFired, ref.swRulesFired) << plat.name;
            EXPECT_EQ(r.hwRuleFires, ref.hwRuleFires) << plat.name;
        }
        {
            CosimConfig cfg;
            cfg.platform = plat;
            cfg.defaultTransport = TransportKind::SharedMem;
            cfg.transportTimeoutMs = 60000;
            RunResult r = runWorkload(config, size, cfg);
            EXPECT_EQ(r.output, ref.output) << plat.name << " over shm";
            EXPECT_EQ(r.hwRuleFires, ref.hwRuleFires)
                << plat.name << " over shm";
        }
        if (CompiledPartition::hostCompilerAvailable()) {
            CosimConfig cfg;
            cfg.platform = plat;
            cfg.swBackend = SwBackend::Compiled;
            RunResult r = runWorkload(config, size, cfg);
            EXPECT_EQ(r.output, ref.output) << plat.name << " compiled";
            EXPECT_EQ(r.swRulesFired, ref.swRulesFired)
                << plat.name << " compiled";
        }
    }
}

TEST(CoSimTransport, LoopbackTcpProbe)
{
    // Surfaces as a SKIP (not silence) in environments where the TCP
    // legs of the matrix below cannot run.
    if (!netTransportAvailable())
        GTEST_SKIP() << "loopback TCP unavailable in this sandbox; "
                        "transport matrix runs shm-only";
}

TEST(CoSimTransport, EchoMatchesInThreadReference)
{
    std::vector<std::int64_t> inputs;
    for (int i = 0; i < 50; i++)
        inputs.push_back(i * 3 - 25);
    std::vector<std::int64_t> ref = referenceRun(inputs);

    for (TransportKind kind : remoteTransportKinds()) {
        CosimConfig cfg;
        cfg.defaultTransport = kind;
        cfg.transportTimeoutMs = 60000;
        std::uint64_t cycles = 0;
        std::vector<std::int64_t> out = cosimRun(inputs, &cycles, cfg);
        EXPECT_EQ(out, ref) << transportName(kind);
        EXPECT_GT(cycles, 0u) << transportName(kind);
    }
}

TEST(CoSimTransport, SoftwareDomainOverrideIsRejected)
{
    Program p = makeEchoProgram();
    ElabProgram elab = elaborate(p);
    DomainAssignment doms = inferDomains(elab);
    PartitionResult parts = partitionProgram(elab, doms);
    CosimConfig cfg;
    cfg.remoteEndpoints["SW"] = "127.0.0.1:1";
    EXPECT_THROW(CoSim cosim(parts, cfg), FatalError);
}

TEST(CoSimTransport, VorbisDeterminismMatrix)
{
    const WorkloadSize size{.frames = 2};
    // The per-stage split: several hardware domains, so the remote
    // flavors run multiple partition children at once.
    const std::vector<std::string> configs{"vorbis_B", "vorbis_split"};
    serve::CompileCache cache;  // the shm x compiled-hw leg

    for (size_t ci = 0; ci < configs.size(); ci++) {
        RunResult ref = runWorkload(configs[ci], size);
        EXPECT_FALSE(ref.output.empty());
        for (TransportKind kind : remoteTransportKinds()) {
            CosimConfig cfg;
            cfg.defaultTransport = kind;
            cfg.transportTimeoutMs = 60000;
            RunResult r = runWorkload(configs[ci], size, cfg);
            EXPECT_EQ(r.output, ref.output)
                << "config " << ci << " over " << transportName(kind);
            EXPECT_EQ(r.swRulesFired, ref.swRulesFired)
                << "config " << ci << " over " << transportName(kind);
            EXPECT_EQ(r.hwRuleFires, ref.hwRuleFires)
                << "config " << ci << " over " << transportName(kind);
        }
        if (!CompiledHwPartition::hostCompilerAvailable())
            continue;
        // shm x compiled clock edge: the forked child builds its
        // executor through the same factory, instantiating an
        // artifact the coordinator resolved before the fork — so the
        // provider's calls are counted in this process.
        int provided = 0;
        CosimConfig cfg;
        cfg.defaultTransport = TransportKind::SharedMem;
        cfg.transportTimeoutMs = 60000;
        cfg.hwBackend = HwBackend::Compiled;
        cfg.compileProvider = [&](const ElabProgram &prog,
                                  const GenccOptions &opts) {
            provided++;
            return cache.get(prog, opts);
        };
        RunResult r = runWorkload(configs[ci], size, cfg);
        EXPECT_EQ(r.output, ref.output)
            << "config " << ci << " shm x compiled";
        EXPECT_EQ(r.swRulesFired, ref.swRulesFired)
            << "config " << ci << " shm x compiled";
        EXPECT_EQ(r.hwRuleFires, ref.hwRuleFires)
            << "config " << ci << " shm x compiled";
        EXPECT_GT(provided, 0)
            << "config " << ci
            << ": the remote child's artifact must come from "
               "compileProvider";
    }
    if (!CompiledHwPartition::hostCompilerAvailable())
        GTEST_SKIP() << "no host compiler: shm x compiled-hw leg skipped";
}

TEST(CoSimTransport, RayDeterminismMatrix)
{
    const WorkloadSize size{.side = 6, .prims = 32};
    const std::vector<std::string> configs{"ray_C", "ray_split"};

    for (size_t ci = 0; ci < configs.size(); ci++) {
        RunResult ref = runWorkload(configs[ci], size);
        for (TransportKind kind : remoteTransportKinds()) {
            CosimConfig cfg;
            cfg.defaultTransport = kind;
            cfg.transportTimeoutMs = 60000;
            RunResult r = runWorkload(configs[ci], size, cfg);
            EXPECT_EQ(r.output, ref.output)
                << "config " << ci << " over " << transportName(kind);
            EXPECT_EQ(r.hwRuleFires, ref.hwRuleFires)
                << "config " << ci << " over " << transportName(kind);
        }
    }
}

TEST(Marshal, ShortWordStreamIsRejectedWithDiagnostic)
{
    // A short stream must be diagnosed, never silently demarshaled
    // against zero-filled padding.
    TypePtr t = Type::vec(3, Type::bits(32));
    Value v = Value::makeVec({Value::makeBits(32, 1),
                              Value::makeBits(32, 2),
                              Value::makeBits(32, 3)});
    std::vector<std::uint32_t> words = marshalValue(v);
    words.pop_back();
    EXPECT_THROW(demarshalValue(t, words), PanicError);
    EXPECT_THROW(demarshalValue(t, {}), PanicError);

    // Excess words violate the canonical sizing contract as well.
    std::vector<std::uint32_t> padded = marshalValue(v);
    padded.push_back(0);
    EXPECT_THROW(demarshalValue(t, padded), PanicError);
}

} // namespace
} // namespace bcl
