/**
 * @file
 * Differential tests of the compiled hardware backend (hwsim/
 * compiled_hw.hpp): the same hardware partition clocked (a) by the
 * reference ClockSim and (b) through the generated `bcl_gen_hw_cycle`
 * entry point must agree bit for bit — cycle counts, per-rule firing
 * counts, and every message that leaves the partition. Unlike the
 * software backends (which only promise identical outputs), the two
 * hardware backends implement the same synchronous semantics, so the
 * contract here is cycle-exact.
 *
 * Also covers the ClockSim::run()/stepCycles() trailing-idle-probe
 * accounting both backends share, the end-to-end co-simulation
 * equivalence on the full-hardware Vorbis and ray-tracer partitions,
 * and packed messages (aggregates a compiled partition hands over as
 * marshaled words) read element by element by an interpreted
 * consumer.
 *
 * Every compiled test auto-skips when no host C++ compiler is
 * available.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "common/logging.hpp"
#include "core/builder.hpp"
#include "core/domains.hpp"
#include "core/elaborate.hpp"
#include "core/parser.hpp"
#include "core/partition.hpp"
#include "core/typecheck.hpp"
#include "hwsim/clocksim.hpp"
#include "hwsim/compiled_hw.hpp"
#include "platform/cosim.hpp"
#include "vorbis/ifft_bcl.hpp"
#include "workloads/workload.hpp"

namespace bcl {
namespace {

#define REQUIRE_HOST_COMPILER()                                       \
    do {                                                              \
        if (!CompiledHwPartition::hostCompilerAvailable())            \
            GTEST_SKIP() << "no host C++ compiler on this machine — " \
                            "compiled-hardware tests skipped";        \
    } while (0)

TypePtr w32() { return Type::bits(32); }

/** One guarded rule draining a FIFO: fires once per prefilled entry,
 *  then the guard fails — the smallest program whose quiescence the
 *  accounting tests can see. */
ElabProgram
drainProgram()
{
    ModuleBuilder b("Top");
    b.addFifo("q", w32(), 8);
    b.addRule("drain", callA("q", "deq"));
    Program p = ProgramBuilder().add(b.build()).setRoot("Top").build();
    return elaborate(p);
}

void
prefill(Store &store, const ElabProgram &elab, int n)
{
    for (int i = 0; i < n; i++) {
        store.at(elab.primByPath("q"))
            .queue.push_back(Value::makeInt(32, i));
    }
}

// ---------------------------------------------------------------------------
// The one accounting across run()/stepCycles()/cycle(): free-running
// entry points exclude the trailing idle probe from stats().cycles
// (their *return value* still includes it — the caller consumed that
// virtual time), while a direct cycle() call always counts.
// ---------------------------------------------------------------------------

TEST(ClockSimAccounting, RunExcludesTrailingIdleProbe)
{
    ElabProgram elab = drainProgram();
    Store store(elab);
    prefill(store, elab, 5);
    ClockSim sim(elab, store);

    // 5 busy cycles + 1 idle probe consumed, 5 counted.
    EXPECT_EQ(sim.run(100), 6u);
    EXPECT_EQ(sim.stats().cycles, 5u);
    EXPECT_EQ(sim.stats().busyCycles, 5u);
    EXPECT_EQ(sim.stats().rulesFired, 5u);
    EXPECT_TRUE(sim.idle());

    // Probing an already-quiescent design consumes a cycle but never
    // inflates the count.
    EXPECT_EQ(sim.run(100), 1u);
    EXPECT_EQ(sim.stats().cycles, 5u);

    // A direct cycle() is the caller's own clock edge: it counts.
    EXPECT_EQ(sim.cycle(), 0);
    EXPECT_EQ(sim.stats().cycles, 6u);
}

TEST(ClockSimAccounting, StepCyclesExcludesTrailingIdleProbe)
{
    ElabProgram elab = drainProgram();
    Store store(elab);
    prefill(store, elab, 5);
    ClockSim sim(elab, store);

    std::uint64_t fired = 0;
    // Budget exhausted while busy: every cycle counts.
    EXPECT_EQ(sim.stepCycles(3, fired), 3u);
    EXPECT_EQ(fired, 3u);
    EXPECT_EQ(sim.stats().cycles, 3u);
    EXPECT_FALSE(sim.idle());

    // Quiescence inside the budget: the idle probe is consumed (used
    // = 2 fires + 1 probe) but not counted.
    fired = 0;
    EXPECT_EQ(sim.stepCycles(10, fired), 3u);
    EXPECT_EQ(fired, 2u);
    EXPECT_EQ(sim.stats().cycles, 5u);
    EXPECT_TRUE(sim.idle());
}

TEST(CompiledHwAccounting, MirrorsClockSimTrailingIdleProbe)
{
    REQUIRE_HOST_COMPILER();
    ElabProgram elab = drainProgram();
    CompiledHwPartition hw(elab);
    int q = elab.primByPath("q");
    for (int i = 0; i < 5; i++)
        ASSERT_TRUE(hw.pushPrim(q, Value::makeInt(32, i)));

    EXPECT_EQ(hw.run(100), 6u);
    EXPECT_EQ(hw.stats().cycles, 5u);
    EXPECT_EQ(hw.stats().busyCycles, 5u);
    EXPECT_EQ(hw.stats().rulesFired, 5u);
    EXPECT_TRUE(hw.idle());

    EXPECT_EQ(hw.run(100), 1u);
    EXPECT_EQ(hw.stats().cycles, 5u);
    EXPECT_EQ(hw.cycle(), 0);
    EXPECT_EQ(hw.stats().cycles, 6u);
    ASSERT_EQ(hw.stats().perRuleFires.size(), 1u);
    EXPECT_EQ(hw.stats().perRuleFires[0], 5u);
}

// ---------------------------------------------------------------------------
// Generation-time synthesizability gating: a partition that fails
// validateForHardware ships only stub hw entry points, and
// CompiledHwPartition refuses to wrap it (with the validator's own
// diagnostic, not a raw stub error).
// ---------------------------------------------------------------------------

TEST(CodegenHw, RejectsNonSynthesizablePartition)
{
    REQUIRE_HOST_COMPILER();
    ModuleBuilder b("Top");
    b.addReg("r", w32());
    b.addRule("seqr", seqA({regWrite("r", intE(32, 1)),
                            regWrite("r", intE(32, 2))}));
    Program p = ProgramBuilder().add(b.build()).setRoot("Top").build();
    ElabProgram elab = elaborate(p);

    // The artifact itself compiles fine (the partition still works as
    // software) — only the clock-edge surface is stubbed out.
    CompiledPartition sw(elab);
    EXPECT_FALSE(sw.artifact()->hwValid());
    EXPECT_THROW(CompiledHwPartition{elab}, FatalError);
}

// ---------------------------------------------------------------------------
// Differential drives. Each feeds both backends the identical
// cycle-by-cycle stimulus (fill input fifos to capacity, clock one
// edge, drain outputs) and requires every observable to match.
// ---------------------------------------------------------------------------

/** SW->HW->SW echo pipeline; we clock its HW partition (one rule:
 *  y = 2x + 1 from SyncRx to SyncTx, both capacity 4). */
PartitionResult
echoParts()
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
    Program p = ProgramBuilder().add(b.build()).setRoot("Top").build();
    ElabProgram elab = elaborate(p);
    DomainAssignment doms = inferDomains(elab);
    return partitionProgram(elab, doms);
}

TEST(CodegenHw, EchoHwPartitionMatchesClockSimCycleExactly)
{
    REQUIRE_HOST_COMPILER();
    PartitionResult parts = echoParts();
    const ElabProgram &hw = parts.part("HW").prog;
    int rx = hw.primByPath("toHw");
    int tx = hw.primByPath("fromHw");
    const int kCap = 4;

    std::vector<std::int64_t> inputs;
    for (int i = 0; i < 40; i++)
        inputs.push_back(i * 5 - 60);

    // Reference: ClockSim over the interpreter.
    Store store(hw);
    ClockSim sim(hw, store);
    std::vector<Value> ref_out;
    size_t fed = 0;
    while (true) {
        ValueQueue &rxq = store.at(rx).queue;
        while (fed < inputs.size() &&
               static_cast<int>(rxq.size()) < kCap) {
            rxq.push_back(Value::makeInt(32, inputs[fed]));
            fed++;
        }
        int f = sim.cycle();
        ValueQueue &txq = store.at(tx).queue;
        while (!txq.empty()) {
            ref_out.push_back(txq.front());
            txq.pop_front();
        }
        if (f == 0 && fed == inputs.size())
            break;
    }

    // Same dance across the ABI; pushPrim rejects exactly where the
    // interpreted queue hits capacity.
    CompiledHwPartition chw(hw);
    std::vector<Value> got_out;
    fed = 0;
    Value v;
    while (true) {
        while (fed < inputs.size() &&
               chw.pushPrim(rx, Value::makeInt(32, inputs[fed])))
            fed++;
        int f = chw.cycle();
        while (chw.popPrim(tx, v))
            got_out.push_back(v);
        if (f == 0 && fed == inputs.size())
            break;
    }

    ASSERT_EQ(got_out.size(), ref_out.size());
    for (size_t i = 0; i < ref_out.size(); i++)
        EXPECT_EQ(got_out[i], ref_out[i]) << "message " << i;
    EXPECT_EQ(chw.stats().cycles, sim.stats().cycles);
    EXPECT_EQ(chw.stats().busyCycles, sim.stats().busyCycles);
    EXPECT_EQ(chw.stats().rulesFired, sim.stats().rulesFired);
    EXPECT_EQ(chw.stats().perRuleFires, sim.stats().perRuleFires);
}

/** What one side of the mirror-exchange differential observed. */
struct MirrorTrace
{
    std::vector<int> fires;       ///< per cycle
    std::vector<size_t> rxSizes;  ///< mirror SyncRx, after the drain
    std::vector<size_t> txSizes;  ///< mirror SyncTx, after the drain
    std::vector<Value> out;       ///< drained SyncTx messages
    HwStats stats;
};

/**
 * Clock @p exec for @p cycles against @p mirror the way CoSim paces
 * an in-thread domain (exchangeIn -> one cycle -> exchangeOut), with
 * a scripted channel around it: bursts of four arrivals every three
 * cycles (held back while the SyncRx mirror holds @p rx_limit), and
 * a SyncTx drain that alternates between none (the fifo fills up and
 * backpressures the rule), one message per cycle and everything.
 */
MirrorTrace
driveMirror(ClockedPartition &exec, Store &mirror, int rx, int tx,
            int cycles, int rx_limit)
{
    const int kInputs = 40;
    MirrorTrace t;
    int sent = 0;
    int pending = 0;
    for (int c = 0; c < cycles; c++) {
        if (c % 3 == 0 && sent + pending < kInputs)
            pending += std::min(4, kInputs - sent - pending);
        ValueQueue &rxq = mirror.at(rx).queue;
        while (pending > 0 && static_cast<int>(rxq.size()) < rx_limit) {
            rxq.push_back(Value::makeInt(32, sent * 7 - 90));
            sent++;
            pending--;
        }
        exec.exchangeIn(mirror);
        t.fires.push_back(exec.cycle());
        exec.exchangeOut(mirror);

        ValueQueue &txq = mirror.at(tx).queue;
        size_t drain = 0;
        switch ((c / 8) % 3) {
          case 0: drain = 0; break;
          case 1: drain = std::min<size_t>(1, txq.size()); break;
          default: drain = txq.size(); break;
        }
        for (size_t k = 0; k < drain; k++) {
            t.out.push_back(txq.front());
            txq.pop_front();
        }
        t.rxSizes.push_back(mirror.at(rx).queue.size());
        t.txSizes.push_back(txq.size());
    }
    t.stats = *exec.hwStats();
    return t;
}

TEST(CodegenHw, MirrorExchangeMatchesClockSimUnderBackpressure)
{
    REQUIRE_HOST_COMPILER();
    PartitionResult parts = echoParts();
    const ElabProgram &hw = parts.part("HW").prog;
    int rx = hw.primByPath("toHw");
    int tx = hw.primByPath("fromHw");
    const int kCycles = 120;

    // Credits bound the mirror by the fifo capacity (4) in-thread; a
    // remote child's mirror is not credit-bounded and may hold more
    // than the instance can take.
    for (int rx_limit : {4, 12}) {
        SCOPED_TRACE("SyncRx mirror limit " + std::to_string(rx_limit));
        // ClockSim's guards read the store itself: the reference.
        Store store(hw);
        ClockSim sim(hw, store);
        MirrorTrace ref =
            driveMirror(sim, store, rx, tx, kCycles, rx_limit);

        // The compiled instance sees the mirror only through the two
        // exchanges.
        Store mirror(hw);
        CompiledHwPartition chw(hw);
        MirrorTrace got =
            driveMirror(chw, mirror, rx, tx, kCycles, rx_limit);

        // The script really exercised the contract: bursts filled the
        // SyncRx mirror, and the SyncTx filled and stalled the rule.
        EXPECT_EQ(
            *std::max_element(ref.rxSizes.begin(), ref.rxSizes.end()),
            static_cast<size_t>(rx_limit));
        EXPECT_EQ(
            *std::max_element(ref.txSizes.begin(), ref.txSizes.end()),
            4u);
        EXPECT_EQ(ref.out.size(), 40u);

        EXPECT_EQ(got.fires, ref.fires);
        EXPECT_EQ(got.rxSizes, ref.rxSizes);
        EXPECT_EQ(got.txSizes, ref.txSizes);
        ASSERT_EQ(got.out.size(), ref.out.size());
        for (size_t i = 0; i < ref.out.size(); i++)
            EXPECT_EQ(got.out[i], ref.out[i]) << "message " << i;
        EXPECT_EQ(got.stats.cycles, ref.stats.cycles);
        EXPECT_EQ(got.stats.busyCycles, ref.stats.busyCycles);
        EXPECT_EQ(got.stats.rulesFired, ref.stats.rulesFired);
        EXPECT_EQ(got.stats.perRuleFires, ref.stats.perRuleFires);
    }
}

/** The shipped counter.bcl, partitioned. */
PartitionResult
counterParts()
{
    std::ifstream in(std::string(BCL_SRC_DIR) +
                     "/../examples/counter.bcl");
    EXPECT_TRUE(in.good());
    std::string src((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    Program p = parseProgram(src);
    ElabProgram elab = elaborate(p);
    typecheck(elab);
    DomainAssignment doms = inferDomains(elab);
    return partitionProgram(elab, doms);
}

TEST(CodegenHw, CounterHwPartitionMatchesClockSimCycleExactly)
{
    REQUIRE_HOST_COMPILER();
    PartitionResult parts = counterParts();
    const ElabProgram &hw = parts.part("HW").prog;
    int rx = hw.primByPath("toHw");
    const int kCap = 4;
    const int kSamples = 25;

    auto sample = [](int i) {
        return Value::makeStruct(
            {{"left", Value::makeInt(32, i)},
             {"right", Value::makeInt(32, i ^ 99)}});
    };

    Store store(hw);
    ClockSim sim(hw, store);
    int fed = 0;
    while (true) {
        ValueQueue &rxq = store.at(rx).queue;
        while (fed < kSamples && static_cast<int>(rxq.size()) < kCap)
            rxq.push_back(sample(fed++));
        if (sim.cycle() == 0 && fed == kSamples)
            break;
    }

    CompiledHwPartition chw(hw);
    fed = 0;
    while (true) {
        while (fed < kSamples && chw.pushPrim(rx, sample(fed)))
            fed++;
        if (chw.cycle() == 0 && fed == kSamples)
            break;
    }

    EXPECT_EQ(chw.stats().cycles, sim.stats().cycles);
    EXPECT_EQ(chw.stats().rulesFired, sim.stats().rulesFired);
    EXPECT_EQ(chw.stats().busyCycles, sim.stats().busyCycles);
    EXPECT_EQ(chw.stats().perRuleFires, sim.stats().perRuleFires);
}

/**
 * Values circulating through a capacity-3 and a capacity-1 fifo. A
 * hardware rule cannot deq and enq one fifo itself (sequential
 * composition is not synthesizable and a parallel one is a double
 * write), so here the deq and the enq of each fifo come from two
 * rules, often in one clock edge: `up` moves three -> one, `back`
 * one -> three, so both rings wrap on every lap. A value leaves
 * through `done` once three laps have lifted it past 300.
 */
ElabProgram
circulateProgram()
{
    ModuleBuilder b("Top");
    b.addReg("n", w32());
    b.addFifo("three", w32(), 3);
    b.addFifo("one", w32(), 1);
    b.addFifo("done", w32(), 4);
    auto cmp = [](PrimOp op, const char *v, int k) {
        return primE(op, {varE(v), intE(32, k)});
    };
    // Fill only while `one` is empty: at most three values circulate,
    // so the two full rings never block each other.
    b.addRule("fill",
              whenA(parA({callA("three", "enq", {regRead("n")}),
                          regWrite("n", primE(PrimOp::Add,
                                              {regRead("n"),
                                               intE(32, 1)}))}),
                    primE(PrimOp::And,
                          {primE(PrimOp::Lt,
                                 {regRead("n"), intE(32, 10)}),
                           primE(PrimOp::Not,
                                 {callV("one", "notEmpty")})})));
    b.addRule("up",
              letA("x", callV("three", "first"),
                   whenA(parA({callA("three", "deq"),
                               callA("one", "enq",
                                     {cmp(PrimOp::Add, "x", 100)})}),
                         cmp(PrimOp::Lt, "x", 300))));
    b.addRule("back",
              letA("y", callV("one", "first"),
                   parA({callA("one", "deq"),
                         callA("three", "enq", {varE("y")})})));
    b.addRule("out",
              letA("x", callV("three", "first"),
                   whenA(parA({callA("three", "deq"),
                               callA("done", "enq", {varE("x")})}),
                         cmp(PrimOp::Ge, "x", 300))));
    Program p = ProgramBuilder().add(b.build()).setRoot("Top").build();
    return elaborate(p);
}

TEST(CodegenHw, CirculatingFifoRingsMatchClockSimCycleExactly)
{
    REQUIRE_HOST_COMPILER();
    ElabProgram hw = circulateProgram();
    int done = hw.primByPath("done");

    Store store(hw);
    ClockSim sim(hw, store);
    std::vector<Value> ref_out;
    while (sim.cycle() > 0) {
        ValueQueue &q = store.at(done).queue;
        while (!q.empty()) {
            ref_out.push_back(q.front());
            q.pop_front();
        }
    }
    ASSERT_EQ(ref_out.size(), 10u);

    CompiledHwPartition chw(hw);
    std::vector<Value> got_out;
    Value v;
    while (chw.cycle() > 0) {
        while (chw.popPrim(done, v))
            got_out.push_back(v);
    }

    ASSERT_EQ(got_out.size(), ref_out.size());
    for (size_t i = 0; i < ref_out.size(); i++)
        EXPECT_EQ(got_out[i], ref_out[i]) << "message " << i;
    EXPECT_EQ(chw.stats().cycles, sim.stats().cycles);
    EXPECT_EQ(chw.stats().busyCycles, sim.stats().busyCycles);
    EXPECT_EQ(chw.stats().perRuleFires, sim.stats().perRuleFires);
}

TEST(CodegenHw, IfftPipeMatchesClockSimCycleExactly)
{
    REQUIRE_HOST_COMPILER();
    Program prog = ProgramBuilder()
                       .add(vorbis::makeIFFTPipeModule())
                       .setRoot("IFFT")
                       .build();
    ElabProgram elab = elaborate(prog);
    int in_q = elab.primByPath("inQ16");
    int out_q = elab.primByPath("outQ16");
    const int kCap = 2;  // inQ16/outQ16 capacity (ifft_bcl.cpp)
    const int frames = 4;
    const std::uint64_t budget = 1u << 20;

    auto frames_in = vorbis::makeFrames(frames);
    auto make_sub = [&](const std::vector<Fix32> &frame, int sub) {
        std::vector<Value> elems;
        for (int i = 0; i < 16; i++) {
            int idx = sub * 16 + i;
            Fix32 re = idx < vorbis::kFrameIn
                           ? frame[static_cast<size_t>(idx)]
                           : Fix32(0);
            elems.push_back(Value::makeStruct(
                {{"re", vorbis::fixValue(re)},
                 {"im", vorbis::fixValue(Fix32(0))}}));
        }
        return Value::makeVec(std::move(elems));
    };

    // Reference run over the interpreter.
    Store store(elab);
    ClockSim sim(elab, store);
    std::vector<Value> ref_out;
    {
        size_t frame_idx = 0;
        int sub_idx = 0;
        std::uint64_t cycles = 0;
        while (ref_out.size() <
                   static_cast<size_t>(frames) * 4 &&
               cycles < budget) {
            ValueQueue &in = store.at(in_q).queue;
            while (frame_idx < frames_in.size() &&
                   static_cast<int>(in.size()) < kCap) {
                in.push_back(
                    make_sub(frames_in[frame_idx], sub_idx));
                if (++sub_idx == 4) {
                    sub_idx = 0;
                    frame_idx++;
                }
            }
            sim.cycle();
            cycles++;
            ValueQueue &out = store.at(out_q).queue;
            while (!out.empty()) {
                ref_out.push_back(out.front());
                out.pop_front();
            }
        }
        ASSERT_EQ(ref_out.size(), static_cast<size_t>(frames) * 4)
            << "reference run did not converge";
    }

    // Compiled run with the identical host-side feed/drain loop.
    CompiledHwPartition chw(elab);
    std::vector<Value> got_out;
    {
        size_t frame_idx = 0;
        int sub_idx = 0;
        std::uint64_t cycles = 0;
        Value v;
        while (got_out.size() <
                   static_cast<size_t>(frames) * 4 &&
               cycles < budget) {
            while (frame_idx < frames_in.size() &&
                   chw.pushPrim(in_q, make_sub(frames_in[frame_idx],
                                               sub_idx))) {
                if (++sub_idx == 4) {
                    sub_idx = 0;
                    frame_idx++;
                }
            }
            chw.cycle();
            cycles++;
            while (chw.popPrim(out_q, v))
                got_out.push_back(v);
        }
    }

    ASSERT_EQ(got_out.size(), ref_out.size());
    for (size_t i = 0; i < ref_out.size(); i++)
        EXPECT_EQ(got_out[i], ref_out[i]) << "sub-block " << i;
    EXPECT_EQ(chw.stats().cycles, sim.stats().cycles);
    EXPECT_EQ(chw.stats().rulesFired, sim.stats().rulesFired);
    EXPECT_EQ(chw.stats().perRuleFires, sim.stats().perRuleFires);
}

// ---------------------------------------------------------------------------
// End to end through the co-simulation: the full-hardware Vorbis (E)
// and ray-tracer (C) partitions under cfg.hwBackend = Compiled must
// reproduce the interpreted run exactly — PCM / pixels, per-domain
// firing counts, message counts AND virtual-time cycle counts (the
// sequential engine's sync-occupancy projection makes the compiled
// fifo guards see what the interpreted single queue would).
// ---------------------------------------------------------------------------

TEST(CodegenHw, VorbisFullHwCosimMatchesInterpreted)
{
    REQUIRE_HOST_COMPILER();
    const WorkloadSize size{.frames = 2};
    RunResult ref = runWorkload("vorbis_E", size);
    ASSERT_FALSE(ref.output.empty());

    CosimConfig cfg;
    cfg.hwBackend = HwBackend::Compiled;
    RunResult got = runWorkload("vorbis_E", size, cfg);

    EXPECT_EQ(got.output, ref.output);
    EXPECT_EQ(got.hwRuleFires, ref.hwRuleFires);
    EXPECT_EQ(got.swRulesFired, ref.swRulesFired);
    EXPECT_EQ(got.fpgaCycles, ref.fpgaCycles);
    EXPECT_EQ(got.messages, ref.messages);
}

TEST(CodegenHw, RayFullHwCosimMatchesInterpreted)
{
    REQUIRE_HOST_COMPILER();
    const int w = 6, h = 6;
    const WorkloadSize size{.side = w, .prims = 32};
    RunResult ref = runWorkload("ray_C", size);
    ASSERT_EQ(ref.output.size(), static_cast<size_t>(w) * h);

    CosimConfig cfg;
    cfg.hwBackend = HwBackend::Compiled;
    RunResult got = runWorkload("ray_C", size, cfg);

    EXPECT_EQ(got.output, ref.output);
    EXPECT_EQ(got.hwRuleFires, ref.hwRuleFires);
    EXPECT_EQ(got.fpgaCycles, ref.fpgaCycles);
    EXPECT_EQ(got.messages, ref.messages);
}

// ---------------------------------------------------------------------------
// Packed messages into interpreted consumers: a Vec popped from a
// compiled partition stays marshaled (core/value.hpp) until the
// interpreter indexes it. The runs below route one into each
// interpreted side and must reproduce the all-interpreted run:
// outputs, modeled software work, per-channel traffic and every
// hardware rule's firing count.
//   vorbis_B, compiled HW: s2 carries Vector#(16, Complex) from the
//     compiled IFFT to interpreted SW, whose postGather rule reads it
//     one element at a time (idx + Update).
//   vorbis_D, compiled SW: s0 carries the 32-sample frame from
//     compiled SW to ClockSim, whose preTwiddle rule reads each
//     sample.
// ---------------------------------------------------------------------------

struct DetailedRun
{
    std::vector<std::uint32_t> output;
    ExecStats sw;
    std::uint64_t swRulesFired = 0;
    std::map<std::string, std::vector<std::uint64_t>> hwPerRuleFires;
    std::vector<std::pair<std::string, std::uint64_t>> channelMessages;
};

DetailedRun
runDetailed(const std::string &name, const CosimConfig &cfg)
{
    const WorkloadSize size{.frames = 2};
    const NamedWorkload &nw = findWorkload(name);
    const Workload &w = *nw.workload;
    PartitionResult parts = partitionWorkload(w, nw.partition->domains,
                                              size, w.defaultSeed);
    CoSim cosim(parts, cfg);
    StreamSpec spec = w.stream(parts, size, w.defaultSeed);
    if (spec.driver.step)
        cosim.setDriver(spec.swDomain, spec.driver);
    cosim.run([&](CoSim &cs) { return spec.progress(cs) >= spec.target; });

    DetailedRun r;
    r.output = w.output(cosim, parts);
    r.sw = cosim.swInterp(spec.swDomain).stats();
    r.swRulesFired = r.sw.rulesFired;
    if (const CompiledPartition *cp = cosim.swCompiled(spec.swDomain))
        r.swRulesFired = cp->rulesFired();
    for (const PartitionPart &part : parts.parts) {
        if (const HwStats *hw = cosim.hwStats(part.domain))
            r.hwPerRuleFires[part.domain] = hw->perRuleFires;
    }
    for (const auto &chan : cosim.channels())
        r.channelMessages.emplace_back(chan->spec().name,
                                       chan->stats().messages);
    return r;
}

TEST(CodegenHw, PackedMessagesReadByInterpretedConsumersMatch)
{
    REQUIRE_HOST_COMPILER();
    for (const char *name : {"vorbis_B", "vorbis_D"}) {
        DetailedRun ref = runDetailed(name, {});
        ASSERT_FALSE(ref.output.empty()) << name;
        CosimConfig cfg;
        if (std::string(name) == "vorbis_B")
            cfg.hwBackend = HwBackend::Compiled;
        else
            cfg.swBackend = SwBackend::Compiled;
        DetailedRun got = runDetailed(name, cfg);

        EXPECT_EQ(got.output, ref.output) << name;
        EXPECT_EQ(got.swRulesFired, ref.swRulesFired) << name;
        EXPECT_EQ(got.hwPerRuleFires, ref.hwPerRuleFires) << name;
        EXPECT_EQ(got.channelMessages, ref.channelMessages) << name;
        if (cfg.swBackend == SwBackend::Interpreted) {
            // The consumer is the interpreter itself: its modeled
            // counts must not see the packed form.
            EXPECT_EQ(got.sw.work, ref.sw.work) << name;
            EXPECT_EQ(got.sw.rulesAttempted, ref.sw.rulesAttempted)
                << name;
            EXPECT_EQ(got.sw.shadowCopies, ref.sw.shadowCopies) << name;
        }
    }
}

} // namespace
} // namespace bcl
