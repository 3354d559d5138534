/**
 * @file
 * Regenerates the section 7.1 analysis: "in order for the net speedup
 * from moving a module from SW to HW to be positive, the speedup
 * observed in the module itself must outweigh the cost of the
 * communication."
 *
 * Sweeps the software-side per-message driver cost (the dominant
 * communication term) and reports where each hardware partition of
 * the Vorbis back-end crosses the full-software baseline - the
 * design-space exploration that BCL makes a one-line change.
 *
 * Also measures the hardware-backend comparison: the full-hardware
 * Vorbis (E) and ray-tracer (C) partitions clocked by the interpreted
 * ClockSim versus the compiled clock-edge backend
 * (hwsim/compiled_hw.hpp). The two are cycle-exact against each
 * other, so the frontier above is backend-invariant; what the
 * compiled backend buys is simulated-FPGA-cycles per wall-clock
 * second, reported per backend with byte-equality of outputs and
 * cycle counts verified in-process.
 *
 * Flags: the shared --frames --ray-size --ray-prims --platform
 * --hw-backend --json (bench/bench_main.hpp), plus --compare-frames N.
 * --frames drives the frontier sweep; --compare-frames (default 256)
 * drives the backend comparison, which needs enough simulated cycles
 * to amortize the fixed elaborate-and-partition setup each run pays.
 * --hw-backend selects the backend executing the frontier sweep
 * (default interpreted; the frontier's cycle counts are identical
 * either way). --json emits the frontier plus the
 * "hw_backend_compare" section scripts/bench_report.py folds into
 * BENCH_runtime.json. --platform times the whole sweep under a
 * loaded platform model, so the Fig. 13 frontier can be emitted per
 * scenario (the partition-autotuner axis: "best partition on WHICH
 * platform").
 */
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_main.hpp"
#include "common/stats.hpp"

using namespace bcl;
using namespace bcl::bench;

namespace {

/** One backend's timed pass over a workload. */
struct BackendPoint
{
    double wallMs = 0;
    std::uint64_t fpgaCycles = 0;
    std::uint64_t hwRuleFires = 0;

    double
    cyclesPerSec() const
    {
        return wallMs > 0 ? static_cast<double>(fpgaCycles) /
                                (wallMs / 1000.0)
                          : 0;
    }

    Json
    toJson() const
    {
        return Json::object()
            .set("wall_ms", wallMs)
            .set("fpga_cycles", fpgaCycles)
            .set("hw_rule_fires", hwRuleFires)
            .set("cycles_per_sec", cyclesPerSec());
    }
};

/** Interpreted-vs-compiled result for one full-HW workload. */
struct BackendCompare
{
    std::string name;
    BackendPoint interp, comp;
    bool compiledAvailable = false;
    bool outputsMatch = true;
    bool cyclesMatch = true;

    /** Simulated-FPGA-cycle rate ratio, compiled over interpreted. */
    double
    speedup() const
    {
        return interp.cyclesPerSec() > 0
                   ? comp.cyclesPerSec() / interp.cyclesPerSec()
                   : 0;
    }
};

/** Run @p name once for warm-up (which also compiles into the
 *  bench's cache when @p cfg asks for the compiled backend) and once
 *  timed. */
RunResult
timedRun(const std::string &name, const WorkloadSize &size,
         const CosimConfig &cfg, BackendPoint &pt)
{
    runWorkload(name, size, cfg);
    auto t0 = std::chrono::steady_clock::now();
    RunResult r = runWorkload(name, size, cfg);
    pt.wallMs = msSince(t0);
    pt.fpgaCycles = r.fpgaCycles;
    pt.hwRuleFires = r.hwRuleFires;
    return r;
}

/** Both runs share one software configuration so the wall-clock
 *  delta isolates the hardware clock: the software partition is
 *  compiled (sharing the bench's cache) where the workload supports
 *  it — on full-HW Vorbis the interpreted software driver would
 *  otherwise dominate both sides; the ray driver's software side is
 *  a few cheap register-bound rules and stays interpreted. */
BackendCompare
compareBackends(BenchMain &bench, const std::string &name,
                const WorkloadSize &size)
{
    BackendCompare cmp;
    cmp.name = name;
    CosimConfig icfg;
    if (findWorkload(name).workload->compiledSw &&
        CompiledPartition::hostCompilerAvailable())
        icfg.swBackend = SwBackend::Compiled;
    icfg.compileProvider = bench.provider();
    RunResult ri = timedRun(name, size, icfg, cmp.interp);

    if (!CompiledHwPartition::hostCompilerAvailable())
        return cmp;
    cmp.compiledAvailable = true;
    CosimConfig ccfg = icfg;
    ccfg.hwBackend = HwBackend::Compiled;
    RunResult rc = timedRun(name, size, ccfg, cmp.comp);
    cmp.outputsMatch = rc.output == ri.output;
    cmp.cyclesMatch = rc.fpgaCycles == ri.fpgaCycles &&
                      rc.hwRuleFires == ri.hwRuleFires;
    return cmp;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchMain bench("partition_sweep", kFrames | kRaySize | kRayPrims |
                                           kPlatform | kHwBackend |
                                           kJson);
    bench.size = {.frames = 32, .side = 12, .prims = 64};
    int cmp_frames = 256;
    bench.option("--compare-frames", &cmp_frames);
    bench.parse(argc, argv);
    if (bench.size.frames <= 0)
        bench.size.frames = 32;
    if (cmp_frames <= 0)
        cmp_frames = 256;

    std::printf("== Section 7.1: communication cost vs partition "
                "choice (Vorbis, %d frames, %s hw backend, %s "
                "platform) ==\n\n",
                bench.size.frames, bench.hwBackend.c_str(),
                bench.platform.name.c_str());

    // The frontier: every lettered Vorbis partition against full
    // software (the first name) as the per-message cost grows.
    const std::vector<std::string> frontier_names{
        "vorbis_F", "vorbis_A", "vorbis_B",
        "vorbis_C", "vorbis_D", "vorbis_E"};
    Json frontier = Json::array();
    TextTable table;
    table.header({"sync msg cost (work)", "A/F", "B/F", "C/F", "D/F",
                  "E/F"});
    for (std::uint64_t msg_cost : {0ull, 700ull, 1400ull, 2800ull,
                                   5600ull}) {
        CosimConfig cfg = bench.config();
        cfg.swCosts.perSyncMessage = msg_cost;
        std::vector<std::string> trow = {std::to_string(msg_cost)};
        Json cells = Json::object();
        std::uint64_t f_cycles = 0;
        for (const std::string &name : frontier_names) {
            RunResult r = runWorkload(name, bench.size, cfg);
            if (f_cycles == 0)
                f_cycles = r.fpgaCycles;
            const double ratio = static_cast<double>(r.fpgaCycles) /
                                 static_cast<double>(f_cycles);
            cells.set(findWorkload(name).partition->name,
                      Json::object()
                          .set("fpga_cycles", r.fpgaCycles)
                          .set("messages", r.messages)
                          .set("vs_F", ratio));
            if (name != frontier_names.front())
                trow.push_back(fixedDecimal(ratio, 3));
        }
        frontier.push(Json::object()
                          .set("sync_msg_cost", msg_cost)
                          .set("partitions", std::move(cells)));
        table.row(std::move(trow));
    }
    std::printf("%s\n", table.str().c_str());
    std::printf("reading: ratios < 1 mean the partition beats full "
                "software. As communication gets\n"
                "costlier, first C, then B flip from wins to losses "
                "(A was never worth it; D and E\n"
                "amortize their two crossings per frame over the "
                "whole back-end's compute).\n\n");

    // --- hardware-backend comparison (full-HW Vorbis E + ray C) ----------
    WorkloadSize cmp_size = bench.size;
    cmp_size.frames = cmp_frames;
    std::vector<BackendCompare> compares;
    for (const char *name : {"vorbis_E", "ray_C"})
        compares.push_back(compareBackends(bench, name, cmp_size));

    std::printf("== Hardware backend: interpreted ClockSim vs "
                "compiled clock edge ==\n\n");
    TextTable hwt;
    hwt.header({"workload", "backend", "wall ms", "FPGA cycles",
                "cycles/sec", "speedup", "identical"});
    bool all_exact = true;
    Json hw_compare = Json::object();
    for (const BackendCompare &c : compares) {
        hwt.row({c.name, "interpreted",
                 fixedDecimal(c.interp.wallMs, 2),
                 withCommas(c.interp.fpgaCycles),
                 withCommas(static_cast<std::uint64_t>(
                     c.interp.cyclesPerSec())),
                 "1.00", "-"});
        Json entry =
            Json::object().set("interpreted", c.interp.toJson());
        if (!c.compiledAvailable) {
            hwt.row({c.name, "compiled", "(no host compiler)", "-",
                     "-", "-", "-"});
            hw_compare.set(c.name, entry.set("compiled", Json()));
            continue;
        }
        bool exact = c.outputsMatch && c.cyclesMatch;
        all_exact &= exact;
        hwt.row({c.name, "compiled", fixedDecimal(c.comp.wallMs, 2),
                 withCommas(c.comp.fpgaCycles),
                 withCommas(static_cast<std::uint64_t>(
                     c.comp.cyclesPerSec())),
                 fixedDecimal(c.speedup(), 2),
                 exact ? "yes" : "NO — DIVERGED"});
        hw_compare.set(c.name, entry.set("compiled", c.comp.toJson())
                                   .set("speedup", c.speedup())
                                   .set("outputs_match", c.outputsMatch)
                                   .set("cycles_match", c.cyclesMatch));
    }
    std::printf("%s\n", hwt.str().c_str());
    std::printf("identical = outputs, cycle counts and per-domain "
                "firing totals byte-equal across backends\n");

    return bench.finish(
        Json::object()
            .set("bench", "partition_sweep")
            .set("platform", bench.platform.name)
            .set("frames", bench.size.frames)
            .set("compare_frames", cmp_frames)
            .set("hardware_concurrency",
                 std::thread::hardware_concurrency())
            .set("sweep_hw_backend", bench.hwBackend)
            .set("frontier", std::move(frontier))
            .set("hw_backend_compare", std::move(hw_compare)),
        all_exact);
}
