/**
 * @file
 * Parallel co-simulation scaling sweep: every Vorbis partitioning
 * (Figure 12's six letters plus the per-stage split that puts IMDCT,
 * IFFT and Window in three separate hardware domains) and every
 * ray-tracer partitioning (Figure 14's four letters plus the
 * per-engine split) is run under CosimConfig::threads in {1, 2, ...,
 * hardware_concurrency}, measuring wall-clock per run and verifying
 * that outputs are byte-identical to the threads=1 run — the LIBDN
 * latency-insensitivity guarantee is what licenses running domains
 * concurrently at all (section 4.4).
 *
 * The lettered partitionings have two domains, so their speedup caps
 * near 1x (plus barrier overhead); the split configurations have four
 * domains and are the scaling workloads. Speedups are physical — on a
 * single-core host every configuration reports ~1x and the sweep
 * degenerates to a correctness + overhead measurement (the recorded
 * hardware_concurrency says which regime produced the numbers).
 *
 * Flags: the shared --frames --ray-size --ray-prims --platform
 * --hw-backend --transport --json --trace (bench/bench_main.hpp).
 * --json emits the sweep for scripts/bench_report.py to fold into
 * BENCH_runtime.json; each workload entry carries a "metrics" object
 * (per-channel traffic of its threads=1 run under the stable
 * cosim.channel.* names). --trace records the whole sweep as a
 * Chrome trace_event timeline (epoch spans, per-domain worker
 * slices, channel flow arrows; use small --frames/--ray-size — every
 * message becomes two events). --hw-backend clocks the hardware
 * domains with the interpreted ClockSim (default) or the compiled
 * clock edge; outputs and cycle counts are identical either way.
 * --transport places hardware domains in-thread (default), in forked
 * children over shared-memory rings, or in forked children over
 * framed loopback TCP; remote transports force the sequential engine
 * so the sweep degenerates to threads=1 and measures the relay
 * overhead per transport (outputs stay byte-identical — the same
 * §4.4 license).
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_main.hpp"
#include "common/stats.hpp"
#include "obs/metrics.hpp"

using namespace bcl;
using namespace bcl::bench;

namespace {

struct RunPoint
{
    int threads = 0;
    double wallMs = 0;
    std::uint64_t fpgaCycles = 0;
    bool outputsMatch = true;
};

struct WorkloadResult
{
    std::string name;
    int domains = 0;
    std::vector<RunPoint> runs;
    /** Per-channel traffic of the threads=1 run (the baseline every
     *  other run must match bit-for-bit anyway). */
    std::vector<std::pair<std::string, ChannelStats>> channelStats;

    double
    speedupAt(int threads) const
    {
        double base = 0, at = 0;
        for (const RunPoint &r : runs) {
            if (r.threads == 1)
                base = r.wallMs;
            if (r.threads == threads)
                at = r.wallMs;
        }
        return (base > 0 && at > 0) ? base / at : 0;
    }

    /** Best speedup among threads>1 runs — the threads=1 baseline is
     *  excluded so a parallel-engine slowdown reads as < 1 instead
     *  of being floored at 1.0. */
    double
    bestSpeedup() const
    {
        double best = 0;
        for (const RunPoint &r : runs) {
            if (r.threads > 1)
                best = std::max(best, speedupAt(r.threads));
        }
        return best;
    }
};

std::vector<int>
threadSweep(bool remote)
{
    // Remote transports force the sequential engine, so only the
    // threads=1 point is meaningful: the sweep then measures per-
    // transport relay cost, not parallel scaling.
    if (remote)
        return {1};
    unsigned hc = std::thread::hardware_concurrency();
    std::vector<int> sweep{1, 2};
    for (int t = 4; t <= static_cast<int>(hc); t *= 2)
        sweep.push_back(t);
    if (hc > 2 &&
        std::find(sweep.begin(), sweep.end(), static_cast<int>(hc)) ==
            sweep.end())
        sweep.push_back(static_cast<int>(hc));
    return sweep;
}

WorkloadResult
sweepWorkload(BenchMain &bench, const std::string &name,
              const std::vector<int> &sweep)
{
    WorkloadResult res;
    res.name = name;
    std::vector<std::uint32_t> ref;
    for (int threads : sweep) {
        CosimConfig cfg = bench.config();
        cfg.threads = threads;
        // Warm-up pass (allocator, code paths), then the timed pass.
        runWorkload(name, bench.size, cfg);
        auto t0 = std::chrono::steady_clock::now();
        RunResult r = runWorkload(name, bench.size, cfg);
        RunPoint pt;
        pt.threads = threads;
        pt.wallMs = msSince(t0);
        pt.fpgaCycles = r.fpgaCycles;
        if (res.runs.empty()) {
            ref = r.output;
            res.domains = r.domains;
            res.channelStats = r.channelStats;
        } else {
            pt.outputsMatch = r.output == ref;
        }
        res.runs.push_back(pt);
    }
    return res;
}

Json
toJson(const WorkloadResult &w)
{
    Json runs = Json::array();
    for (const RunPoint &r : w.runs) {
        runs.push(Json::object()
                      .set("threads", r.threads)
                      .set("wall_ms", r.wallMs)
                      .set("fpga_cycles", r.fpgaCycles)
                      .set("outputs_match", r.outputsMatch));
    }
    // Per-channel traffic under the stable names, via a private
    // registry so one workload's channels never bleed into another's
    // snapshot.
    obs::MetricsRegistry reg;
    reg.enable(true);
    for (const auto &[chan, st] : w.channelStats)
        snapshotChannelStats(reg, "cosim.channel." + chan, st);
    return Json::object()
        .set("name", w.name)
        .set("domains", w.domains)
        .set("runs", std::move(runs))
        .set("metrics", Json::raw(reg.toJson()))
        .set("best_speedup", w.bestSpeedup());
}

} // namespace

int
main(int argc, char **argv)
{
    BenchMain bench("cosim_parallel", kFrames | kRaySize | kRayPrims |
                                          kPlatform | kHwBackend |
                                          kTransport | kJson | kTrace);
    bench.size = {.frames = 16, .side = 10, .prims = 64};
    bench.parse(argc, argv);
    const bool remote = bench.transportKind != TransportKind::InThread;

    std::printf("== Parallel co-simulation scaling sweep ==\n");
    std::printf("hardware_concurrency: %u; vorbis frames: %d; "
                "ray: %dx%d/%d prims; hw backend: %s; transport: "
                "%s\n\n",
                std::thread::hardware_concurrency(), bench.size.frames,
                bench.size.side, bench.size.side, bench.size.prims,
                bench.hwBackend.c_str(), bench.transport.c_str());

    // Every registered partitioning. The bench's one compile cache
    // serves the whole sweep: a partition's clock-edge artifact is
    // compiled once and shared across every thread count.
    std::vector<WorkloadResult> results;
    for (const NamedWorkload &nw : allWorkloads())
        results.push_back(
            sweepWorkload(bench, nw.name, threadSweep(remote)));

    TextTable table;
    table.header({"workload", "domains", "threads", "wall ms",
                  "speedup", "outputs"});
    bool all_match = true;
    Json workloads = Json::array();
    for (const WorkloadResult &w : results) {
        for (const RunPoint &r : w.runs) {
            all_match &= r.outputsMatch;
            table.row({w.name, std::to_string(w.domains),
                       std::to_string(r.threads),
                       fixedDecimal(r.wallMs, 2),
                       fixedDecimal(w.speedupAt(r.threads), 2),
                       r.outputsMatch ? "match" : "MISMATCH"});
        }
        workloads.push(toJson(w));
    }
    std::printf("%s\n", table.str().c_str());
    std::printf("outputs byte-identical across all thread counts: "
                "%s\n",
                all_match ? "yes" : "NO — LIBDN VIOLATION");

    return bench.finish(
        Json::object()
            .set("hardware_concurrency",
                 std::thread::hardware_concurrency())
            .set("hw_backend", bench.hwBackend)
            .set("transport", bench.transport)
            .set("workloads", std::move(workloads)),
        all_match);
}
