/**
 * @file
 * Regenerates the section 6.3 software-cost ablations as measured
 * work-unit counts (google-benchmark wall clock is reported too, but
 * the figure of merit is the modeled work, which is what Figure 13's
 * software bars are made of):
 *
 *   - scheduling strategies: round-robin vs static dataflow order vs
 *     dataflow-directed - fraction of rule attempts wasted on guard
 *     failures ("The most important concern in scheduling software is
 *     to choose a rule which will not fail"),
 *   - guard lifting: work with full rule bodies vs lifted canonical
 *     form (early exit avoids "the useless execution of the remainder
 *     of the rule body"),
 *   - sequentialization: dynamic parallel-shadow frames avoided per
 *     firing.
 */
#include <benchmark/benchmark.h>

#include <utility>

#include "core/axioms.hpp"
#include "core/builder.hpp"
#include "core/elaborate.hpp"
#include "core/sequentialize.hpp"
#include "runtime/exec.hpp"
#include "vorbis/backend_bcl.hpp"
#include "vorbis/partitions.hpp"

using namespace bcl;
using namespace bcl::vorbis;

namespace {

/** Drive N frames through the full-SW Vorbis program. */
struct SwRun
{
    std::uint64_t work = 0;
    std::uint64_t attempts = 0;
    std::uint64_t fires = 0;
    std::uint64_t wasted = 0;
    std::uint64_t shadows = 0;
};

SwRun
runVorbisSw(SwStrategy strategy, int frames,
            bool lift_rules = false, bool sequentialize = false)
{
    Program prog = makeVorbisProgram(partitionConfig(VorbisPartition::F));
    ElabProgram elab = elaborate(prog);
    if (lift_rules) {
        for (size_t i = 0; i < elab.rules.size(); i++)
            elab.rules[i] = liftRule(elab, static_cast<int>(i));
    }
    if (sequentialize)
        elab = sequentializeProgram(elab);

    Store store(elab);
    Interp interp(elab, store);
    RuleEngine engine(interp, strategy);
    int push = elab.rootMethod("input");
    int audio = elab.primByPath("audio");

    auto inputs = makeFrames(frames);
    size_t fed = 0;
    while (std::as_const(store).at(audio).queue.size() <
           static_cast<size_t>(frames)) {
        engine.runToQuiescence(1u << 20);
        if (fed < inputs.size()) {
            std::vector<Value> elems;
            for (Fix32 s : inputs[fed])
                elems.push_back(fixValue(s));
            if (interp.callActionMethod(
                    push, {Value::makeVec(std::move(elems))})) {
                fed++;
                engine.poke();
            }
        }
    }
    SwRun r;
    r.work = interp.stats().work;
    r.attempts = interp.stats().rulesAttempted;
    r.fires = interp.stats().rulesFired;
    r.wasted = interp.stats().wastedWork;
    r.shadows = interp.stats().shadowCopies;
    return r;
}

void
BM_Scheduler(benchmark::State &state)
{
    SwStrategy strategy = static_cast<SwStrategy>(state.range(0));
    SwRun last;
    for (auto _ : state)
        last = runVorbisSw(strategy, 8);
    state.counters["work/frame"] =
        static_cast<double>(last.work) / 8;
    state.counters["wasted%"] =
        100.0 * static_cast<double>(last.wasted) /
        static_cast<double>(last.work);
    state.counters["fail%"] =
        100.0 *
        (1.0 - static_cast<double>(last.fires) /
                   static_cast<double>(last.attempts));
}

/**
 * Guard lifting pays when the guard sits *deep* in the rule: "early
 * failure avoids the useless execution of the remainder of the rule
 * body". This rule computes a 64-tap expression and only then
 * discovers its output FIFO is full; the lifted form tests notFull
 * first. (The Vorbis rules read their input FIFOs first, so their
 * guards are already early - lifting is about the rules that are not
 * so lucky.)
 */
Program
makeDeepGuardProgram()
{
    ModuleBuilder b("Top");
    b.addReg("x", Type::bits(32), Value::makeInt(32, 3));
    b.addFifo("outQ", Type::bits(32), 1);  // full almost always
    b.addFifo("drainGate", Type::bits(32), 1);
    // Expensive body, guard (outQ.enq) only at the end.
    ExprPtr acc = regRead("x");
    for (int i = 0; i < 64; i++) {
        acc = primE(PrimOp::Add,
                    {primE(PrimOp::MulFx, {acc, intE(32, 3 << 20)}, 24),
                     intE(32, i)});
    }
    b.addRule("produce", callA("outQ", "enq", {acc}));
    // Drain one element only when the gate allows (rarely ready).
    b.addRule("drain",
              parA({callA("outQ", "deq"),
                    callA("drainGate", "deq")}));
    b.addActionMethod("gate", {{"v", Type::bits(32)}},
                      callA("drainGate", "enq", {varE("v")}), "SW");
    return ProgramBuilder().add(b.build()).setRoot("Top").build();
}

void
BM_GuardLifting(benchmark::State &state)
{
    bool lifted = state.range(0) != 0;
    Program prog = makeDeepGuardProgram();
    std::uint64_t work = 0, wasted = 0;
    for (auto _ : state) {
        ElabProgram elab = elaborate(prog);
        if (lifted) {
            for (size_t i = 0; i < elab.rules.size(); i++)
                elab.rules[i] = liftRule(elab, static_cast<int>(i));
        }
        Store store(elab);
        Interp interp(elab, store);
        RuleEngine engine(interp, SwStrategy::RoundRobin);
        int gate = elab.rootMethod("gate");
        for (int round = 0; round < 256; round++) {
            engine.runToQuiescence(1u << 16);
            interp.callActionMethod(gate, {Value::makeInt(32, round)});
            engine.poke();
        }
        work = interp.stats().work;
        wasted = interp.stats().wastedWork;
    }
    state.counters["work"] = static_cast<double>(work);
    state.counters["wasted%"] =
        100.0 * static_cast<double>(wasted) /
        static_cast<double>(work);
}

void
BM_Sequentialize(benchmark::State &state)
{
    bool seq = state.range(0) != 0;
    SwRun last;
    for (auto _ : state)
        last = runVorbisSw(SwStrategy::Dataflow, 8, false, seq);
    state.counters["shadow copies/frame"] =
        static_cast<double>(last.shadows) / 8;
    state.counters["work/frame"] =
        static_cast<double>(last.work) / 8;
}

} // namespace

BENCHMARK(BM_Scheduler)
    ->Arg(static_cast<int>(SwStrategy::RoundRobin))
    ->Arg(static_cast<int>(SwStrategy::StaticOrder))
    ->Arg(static_cast<int>(SwStrategy::Dataflow))
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GuardLifting)->Arg(0)->Arg(1)->Unit(
    benchmark::kMillisecond);
BENCHMARK(BM_Sequentialize)->Arg(0)->Arg(1)->Unit(
    benchmark::kMillisecond);

BENCHMARK_MAIN();
