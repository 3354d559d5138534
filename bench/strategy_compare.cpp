/**
 * @file
 * Reproduces the section 6.3 cost ladder of the paper with *actually
 * executed* generated code: the full-software Vorbis partition runs
 * under
 *
 *   interp   - the reference interpreter (RuleEngine, the repo's
 *              software performance model),
 *   naive    - compiled, every rule under try/catch with shadows
 *              (Figure 9),
 *   inlined  - compiled, methods inlined, branch-to-rollback
 *              (Figure 10),
 *   lifted   - compiled, when-lifting first; fully-lifted rules test
 *              the guard once and run in place with no shadows,
 *
 * all driven through the same frame loop, all checked bit-exact
 * against the interpreter's PCM. Reported: wall-clock per frame and
 * rules fired per second (the ladder the paper's Figures 9/10
 * narrative predicts: naive < inlined < lifted, interpreter far
 * below all three).
 *
 * Flags: the shared --frames --json (bench/bench_main.hpp); --json
 * feeds scripts/bench_report.py -> BENCH_runtime.json.
 */
#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_main.hpp"
#include "common/stats.hpp"
#include "core/domains.hpp"
#include "core/elaborate.hpp"
#include "core/partition.hpp"
#include "core/typecheck.hpp"
#include "runtime/exec.hpp"
#include "runtime/gencc.hpp"
#include "vorbis/backend_bcl.hpp"
#include "vorbis/partitions.hpp"

using namespace bcl;
using namespace bcl::bench;
using namespace bcl::vorbis;

namespace {

struct StrategyResult
{
    std::string name;
    double wallNs = 0;
    std::uint64_t rulesFired = 0;
    std::vector<std::int32_t> pcm;

    double
    rulesPerSec() const
    {
        return wallNs > 0 ? static_cast<double>(rulesFired) /
                                (wallNs / 1e9)
                          : 0;
    }
};

double
nowNs()
{
    return std::chrono::duration<double, std::nano>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::vector<Value>
frameValues(const std::vector<std::vector<Fix32>> &inputs, size_t i)
{
    std::vector<Value> elems;
    elems.reserve(inputs[i].size());
    for (Fix32 s : inputs[i])
        elems.push_back(fixValue(s));
    return {Value::makeVec(std::move(elems))};
}

/** Interpreter baseline over the same frame loop. */
StrategyResult
runInterpreter(const ElabProgram &sw, int push, int audio,
               const std::vector<std::vector<Fix32>> &inputs)
{
    StrategyResult res;
    res.name = "interp";
    Store store(sw);
    Interp interp(sw, store);
    RuleEngine engine(interp, SwStrategy::Dataflow);

    double t0 = nowNs();
    size_t fed = 0;
    while (true) {
        engine.runToQuiescence();
        if (fed < inputs.size() &&
            interp.callActionMethod(push, frameValues(inputs, fed))) {
            fed++;
            engine.poke();
            continue;
        }
        if (fed >= inputs.size() && engine.quiescent())
            break;
    }
    res.wallNs = nowNs() - t0;
    res.rulesFired = interp.stats().rulesFired;
    for (const auto &v : std::as_const(store).at(audio).queue) {
        for (const auto &s : v.elems())
            res.pcm.push_back(static_cast<std::int32_t>(s.asInt()));
    }
    return res;
}

/** One compiled strategy over the same frame loop. Compilation
 *  (generate + host compiler + dlopen) happens outside the timer —
 *  it is build cost, not execution cost. */
StrategyResult
runCompiled(const ElabProgram &sw, int push, int audio,
            const std::vector<std::vector<Fix32>> &inputs,
            CppGenMode mode, const char *name)
{
    StrategyResult res;
    res.name = name;
    GenccOptions opts;
    opts.mode = mode;
    CompiledPartition part(sw, opts);

    double t0 = nowNs();
    size_t fed = 0;
    while (true) {
        part.runToQuiescence();
        if (fed < inputs.size() &&
            part.callActionMethod(push, frameValues(inputs, fed))) {
            fed++;
            continue;
        }
        if (fed >= inputs.size()) {
            part.runToQuiescence();
            break;
        }
    }
    res.wallNs = nowNs() - t0;
    res.rulesFired = part.rulesFired();
    Value v;
    while (part.popDevice(audio, v)) {
        for (const auto &s : v.elems())
            res.pcm.push_back(static_cast<std::int32_t>(s.asInt()));
    }
    return res;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchMain bench("strategy_compare", kFrames | kJson);
    bench.size.frames = 128;
    bench.parse(argc, argv);
    const int frames = bench.size.frames > 0 ? bench.size.frames : 128;

    if (!CompiledPartition::hostCompilerAvailable()) {
        std::printf("strategy_compare: no host C++ compiler — compiled "
                    "strategies unavailable on this machine\n");
        return 0;
    }

    Program prog =
        makeVorbisProgram(partitionConfig(VorbisPartition::F));
    ElabProgram elab = elaborate(prog);
    typecheck(elab);
    DomainAssignment doms = inferDomains(elab);
    PartitionResult parts = partitionProgram(elab, doms);
    const ElabProgram &sw = parts.part("SW").prog;
    int push = sw.rootMethod("input");
    int audio = sw.primByPath("audio");
    auto inputs = makeFrames(frames);

    std::printf("== section 6.3 strategy ladder: full-SW Vorbis, %d "
                "frames ==\n\n",
                frames);

    // Warm-up pass keeps allocator/page-fault noise out of the
    // interpreter measurement (the compiled runs construct fresh
    // partitions anyway).
    runInterpreter(sw, push, audio,
                   makeFrames(frames > 8 ? 8 : frames));

    std::vector<StrategyResult> results;
    results.push_back(runInterpreter(sw, push, audio, inputs));
    results.push_back(runCompiled(sw, push, audio, inputs,
                                  CppGenMode::Naive, "naive"));
    results.push_back(runCompiled(sw, push, audio, inputs,
                                  CppGenMode::Inlined, "inlined"));
    results.push_back(runCompiled(sw, push, audio, inputs,
                                  CppGenMode::Lifted, "lifted"));

    bool bit_exact = true;
    for (const auto &r : results)
        bit_exact &= r.pcm == results[0].pcm;

    TextTable table;
    table.header({"strategy", "ns/frame", "rules fired", "rules/sec",
                  "vs interp"});
    for (const auto &r : results) {
        table.row({r.name,
                   withCommas(static_cast<std::uint64_t>(r.wallNs /
                                                         frames)),
                   withCommas(r.rulesFired),
                   withCommas(static_cast<std::uint64_t>(
                       r.rulesPerSec())),
                   fixedDecimal(r.rulesPerSec() /
                                    results[0].rulesPerSec(),
                                2)});
    }
    std::printf("%s\n", table.str().c_str());
    std::printf("PCM bit-exact across all strategies: %s\n",
                bit_exact ? "yes" : "NO (ERROR)");

    // Acceptance floor (docs/EXPERIMENTS.md): lifted-mode compiled
    // execution must stay >= 2x the interpreter's rules/sec. It sits
    // two orders of magnitude above that today, so tripping this
    // means the backend regressed catastrophically, not that the
    // machine is slow.
    double lifted_speedup =
        results.back().rulesPerSec() / results[0].rulesPerSec();
    bool fast_enough = lifted_speedup >= 2.0;
    if (!fast_enough) {
        std::printf("ERROR: lifted-mode speedup %.2fx is below the "
                    "2x acceptance floor\n",
                    lifted_speedup);
    }

    Json strategies = Json::object();
    for (const StrategyResult &r : results) {
        strategies.set(
            r.name,
            Json::object()
                .set("wall_ns_per_frame", r.wallNs / frames)
                .set("rules_fired", r.rulesFired)
                .set("rules_per_sec", r.rulesPerSec())
                .set("speedup_vs_interp",
                     r.rulesPerSec() / results[0].rulesPerSec()));
    }
    return bench.finish(Json::object()
                            .set("bench", "strategy_compare")
                            .set("frames", frames)
                            .set("pcm_bit_exact", bit_exact)
                            .set("strategies", std::move(strategies)),
                        bit_exact && fast_enough);
}
