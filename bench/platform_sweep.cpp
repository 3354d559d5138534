/**
 * @file
 * Platform scenario sweep: the same two partitioned workloads — the
 * split Vorbis back-end (4 domains) and the split ray tracer (4
 * domains) — re-timed under each platform model in configs/. The
 * LIBDN synchronizers make link timing invisible to the computation,
 * so every scenario must reproduce the baseline outputs byte for
 * byte; only fpga_cycles (and the wall-clock cost of simulating
 * them) may move. That is the paper's portability claim in
 * executable form, and this bench fails (exit 1) if any scenario
 * breaks it.
 *
 * Scenarios: the built-in ml507 preset is the baseline; fast_fabric,
 * slow_bus and noc_mesh (see configs/) bracket it from both sides.
 * A final heterogeneous leg runs the split Vorbis under
 * het_onchip_offchip.config, whose topology section times SW<->HW
 * crossings as a slow off-chip bus while HW<->HW links stay on-chip
 * — and reports per-link occupancy to show the per-pair resolution
 * actually changes where cycles are charged.
 *
 * Flags: the shared --frames --ray-size --ray-prims --json
 * (bench/bench_main.hpp), plus --configs DIR.
 * --configs points at the directory holding the scenario .config
 * files (default "configs", i.e. run from the repo root;
 * scripts/bench_report.py passes the absolute path).
 */
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_main.hpp"

using namespace bcl;
using namespace bcl::bench;

namespace {

/** The workloads every scenario re-times; the heterogeneous leg
 *  re-times the first. */
const std::vector<std::string> kWorkloads{"vorbis_split", "ray_split"};

/** One workload timed under one platform. */
struct WorkloadPoint
{
    RunResult run;
    double wallMs = 0;
    bool outputsMatch = true;
};

struct Scenario
{
    std::string name;
    std::string source; ///< "preset" or the loaded config path
    PlatformSpec spec;
    std::vector<WorkloadPoint> points;  ///< parallel to kWorkloads
};

/** Run @p name under @p plat; @p baseline (null for the baseline run
 *  itself) holds the outputs it must reproduce. */
WorkloadPoint
runUnder(const std::string &name, const PlatformSpec &plat,
         const WorkloadSize &size, const WorkloadPoint *baseline)
{
    CosimConfig cfg;
    cfg.platform = plat;
    auto t0 = std::chrono::steady_clock::now();
    WorkloadPoint p;
    p.run = runWorkload(name, size, cfg);
    p.wallMs = msSince(t0);
    if (baseline)
        p.outputsMatch = p.run.output == baseline->run.output;
    return p;
}

Json
linksJson(const std::vector<CoSim::LinkUsage> &ls)
{
    Json out = Json::array();
    for (const CoSim::LinkUsage &l : ls) {
        out.push(Json::object()
                     .set("from", l.from)
                     .set("to", l.to)
                     .set("class", l.linkClass)
                     .set("busy_cycles", l.busyCycles)
                     .set("grants", l.grants));
    }
    return out;
}

double
cycleRatio(const WorkloadPoint &p, const WorkloadPoint &base)
{
    return base.run.fpgaCycles
               ? static_cast<double>(p.run.fpgaCycles) /
                     static_cast<double>(base.run.fpgaCycles)
               : 0;
}

Json
pointJson(const WorkloadPoint &p, const WorkloadPoint &base)
{
    return Json::object()
        .set("fpga_cycles", p.run.fpgaCycles)
        .set("messages", p.run.messages)
        .set("channel_words", p.run.channelWords)
        .set("wall_ms", p.wallMs)
        .set("outputs_match", p.outputsMatch)
        .set("vs_baseline", Json::object().set("fpga_cycles_ratio",
                                               cycleRatio(p, base)));
}

} // namespace

int
main(int argc, char **argv)
{
    BenchMain bench("platform_sweep",
                    kFrames | kRaySize | kRayPrims | kJson);
    bench.size = {.frames = 16, .side = 10, .prims = 64};
    std::string configs_dir = "configs";
    bench.option("--configs", &configs_dir, "DIR");
    bench.parse(argc, argv);

    std::vector<Scenario> scenarios;
    scenarios.push_back({"ml507", "preset", PlatformSpec::ml507(), {}});
    for (const char *file :
         {"fast_fabric.config", "slow_bus.config", "noc_mesh.config"}) {
        Scenario s;
        s.source = configs_dir + "/" + file;
        s.spec = loadPlatformSpec(s.source);
        s.name = s.spec.name;
        scenarios.push_back(std::move(s));
    }

    std::printf("platform scenario sweep: vorbis split (%d frames), "
                "ray split (%dx%d, %d prims)\n",
                bench.size.frames, bench.size.side, bench.size.side,
                bench.size.prims);
    std::printf("%-14s", "scenario");
    for (const std::string &name : kWorkloads)
        std::printf(" %14s %9s", (name + "_cycles").c_str(), "vs_base");
    std::printf("  outputs\n");

    bool all_match = true;
    Json json_scenarios = Json::array();
    for (Scenario &s : scenarios) {
        const Scenario &base = scenarios.front();
        bool match = true;
        std::printf("%-14s", s.name.c_str());
        Json js = Json::object().set("name", s.name).set("source",
                                                         s.source);
        for (size_t w = 0; w < kWorkloads.size(); w++) {
            s.points.push_back(runUnder(
                kWorkloads[w], s.spec, bench.size,
                &s == &base ? nullptr : &base.points[w]));
            const WorkloadPoint &p = s.points.back();
            match &= p.outputsMatch;
            std::printf(" %14llu %8.3fx",
                        (unsigned long long)p.run.fpgaCycles,
                        cycleRatio(p, base.points[w]));
            js.set(findWorkload(kWorkloads[w]).workload->name,
                   pointJson(p, base.points[w]));
        }
        all_match &= match;
        std::printf("  %s\n", match ? "match" : "MISMATCH");
        json_scenarios.push(std::move(js));
    }

    // Heterogeneous topology leg: same workload, but the platform's
    // topology section charges SW<->HW crossings to a slow off-chip
    // class while HW<->HW stays on-chip. Outputs must still match;
    // the per-link accounting must differ from the uniform baseline.
    const std::string het_path =
        configs_dir + "/het_onchip_offchip.config";
    const PlatformSpec het = loadPlatformSpec(het_path);
    const WorkloadPoint &het_base = scenarios.front().points.front();
    const WorkloadPoint het_pt =
        runUnder(kWorkloads.front(), het, bench.size, &het_base);
    all_match &= het_pt.outputsMatch;
    bool occupancy_differs = false;
    for (const CoSim::LinkUsage &l : het_pt.run.linkUsage) {
        for (const CoSim::LinkUsage &b : het_base.run.linkUsage)
            if (b.from == l.from && b.to == l.to &&
                (b.linkClass != l.linkClass ||
                 b.busyCycles != l.busyCycles))
                occupancy_differs = true;
    }
    const std::string het_workload =
        findWorkload(kWorkloads.front()).workload->name;
    std::printf("heterogeneous (%s): %s %llu cycles, outputs %s, "
                "per-link occupancy %s baseline\n",
                het.name.c_str(), het_workload.c_str(),
                (unsigned long long)het_pt.run.fpgaCycles,
                het_pt.outputsMatch ? "match" : "MISMATCH",
                occupancy_differs ? "differs from" : "IDENTICAL to");
    for (const CoSim::LinkUsage &l : het_pt.run.linkUsage)
        std::printf("  link %s->%s [%s]: busy %llu cycles over %llu "
                    "grants\n",
                    l.from.c_str(), l.to.c_str(), l.linkClass.c_str(),
                    (unsigned long long)l.busyCycles,
                    (unsigned long long)l.grants);

    const int rc = bench.finish(
        Json::object()
            .set("bench", "platform_sweep")
            .set("frames", bench.size.frames)
            .set("ray_size", bench.size.side)
            .set("ray_prims", bench.size.prims)
            .set("scenarios", std::move(json_scenarios))
            .set("heterogeneous",
                 Json::object()
                     .set("config", het_path)
                     .set("platform", het.name)
                     .set(het_workload, pointJson(het_pt, het_base))
                     .set("links", linksJson(het_pt.run.linkUsage))
                     .set("baseline_links",
                          linksJson(het_base.run.linkUsage))
                     .set("occupancy_differs", occupancy_differs)),
        all_match);
    if (rc != 0) {
        std::fprintf(stderr,
                     "FAIL: a scenario changed workload outputs — "
                     "link timing must be semantics-preserving\n");
        return rc;
    }
    if (!occupancy_differs) {
        std::fprintf(stderr,
                     "FAIL: heterogeneous topology did not change "
                     "per-link occupancy accounting\n");
        return 1;
    }
    return 0;
}
