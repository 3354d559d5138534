/**
 * @file
 * Regenerates Figure 13 (left) of the paper: execution times of the
 * Ogg Vorbis back-end under the six HW/SW partitions of Figure 12,
 * plus the two baselines F1 (SystemC) and F2 (hand-written C++), all
 * reported in FPGA cycles.
 *
 * Expected shape (the paper's findings, section 7.1):
 *   - the slowest partition is NOT the full-software one (F);
 *     partitions A (Window in HW) and C (IFFT+Window in HW) are both
 *     slightly slower than F, because the communication cost
 *     outweighs the compute moved,
 *   - moving only the IFFT to HW (B) has a marginal effect, because
 *     the IMDCT FSMs invoke the IFFT repeatedly per frame,
 *   - D and E are substantially faster; E (full HW back-end) wins,
 *   - F1 (SystemC) is roughly 3x slower than F; F2 (manual C++) is
 *     slightly faster than F.
 *
 * Flags: the shared --frames --json --hw-backend --platform
 * (bench/bench_main.hpp).
 * (default 512 frames; the paper used a 10000-frame test bench -
 * pass --frames 10000 to match). --json additionally writes
 * machine-readable metrics for the full-software partition —
 * wall-clock ns/frame, modeled work units, rules fired per second —
 * which scripts/bench_report.py folds into BENCH_runtime.json (the
 * perf-trajectory artifact; see docs/EXPERIMENTS.md). --hw-backend
 * selects the clock for the hardware partitions (compiled runs the
 * codegen'd clock edge; cycle counts and PCM are identical either
 * way, so the figure itself is backend-invariant).
 */
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>

#include "bench_main.hpp"
#include "common/stats.hpp"
#include "vorbis/native.hpp"
#include "vorbis/sysc_backend.hpp"

using namespace bcl;
using namespace bcl::bench;
using namespace bcl::vorbis;

int
main(int argc, char **argv)
{
    BenchMain bench("fig13_vorbis",
                    kFrames | kJson | kHwBackend | kPlatform);
    bench.size.frames = 512;
    bench.parse(argc, argv);
    if (bench.size.frames <= 0)
        bench.size.frames = 512;
    const int frames = bench.size.frames;

    std::printf("== Figure 13 (left): Ogg Vorbis partitions, %d frames "
                "(%s hw backend) ==\n",
                frames, bench.hwBackend.c_str());
    std::printf("(execution time in FPGA cycles at 100 MHz; PPC440 at "
                "400 MHz)\n\n");

    const CosimConfig cfg = bench.config();
    // Native/SystemC work is counted in CPU-cycle-like units already
    // (no interpreter node inflation), so their conversion is the
    // plain clock ratio.
    const double work_to_cycles = 1.0 / cfg.platform.cpuClockRatio;

    // Reference PCM from the hand-written baseline.
    auto inputs = makeFrames(frames);
    NativeResult native = runNativeBackend(inputs);
    const std::vector<std::uint32_t> native_words(native.pcm.begin(),
                                                  native.pcm.end());

    TextTable table;
    table.header({"impl", "hardware content", "FPGA cycles",
                  "cyc/frame", "vs F", "msgs"});

    std::uint64_t f_cycles = 0;
    bool all_match = true;
    Json partitions = Json::object();
    for (const char *name : {"vorbis_F", "vorbis_A", "vorbis_B",
                             "vorbis_C", "vorbis_D", "vorbis_E"}) {
        const WorkloadPartition &p = *findWorkload(name).partition;
        RunResult r = runWorkload(name, bench.size, cfg);
        if (f_cycles == 0)
            f_cycles = r.fpgaCycles;
        all_match &= r.output == native_words;
        partitions.set(p.name, Json::object()
                                   .set("fpga_cycles", r.fpgaCycles)
                                   .set("messages", r.messages));
        table.row({p.name, p.description, withCommas(r.fpgaCycles),
                   withCommas(r.fpgaCycles /
                              static_cast<std::uint64_t>(frames)),
                   fixedDecimal(static_cast<double>(r.fpgaCycles) /
                                    static_cast<double>(f_cycles),
                                3),
                   withCommas(r.messages)});
    }

    SyscResult sc = runSyscBackend(inputs);
    std::uint64_t f1_cycles = static_cast<std::uint64_t>(
        static_cast<double>(sc.work) * work_to_cycles);
    all_match &= sc.pcm == native.pcm;
    table.row({"F1", "SystemC model (full SW)", withCommas(f1_cycles),
               withCommas(f1_cycles / static_cast<std::uint64_t>(frames)),
               fixedDecimal(static_cast<double>(f1_cycles) /
                                static_cast<double>(f_cycles),
                            3),
               "0"});

    std::uint64_t f2_cycles = static_cast<std::uint64_t>(
        static_cast<double>(native.work) * work_to_cycles);
    table.row({"F2", "hand-written C++ (full SW)",
               withCommas(f2_cycles),
               withCommas(f2_cycles / static_cast<std::uint64_t>(frames)),
               fixedDecimal(static_cast<double>(f2_cycles) /
                                static_cast<double>(f_cycles),
                            3),
               "0"});

    std::printf("%s\n", table.str().c_str());
    std::printf("PCM bit-exact across all implementations: %s\n",
                all_match ? "yes" : "NO (ERROR)");
    std::printf("\nshape checks (paper section 7.1):\n");
    std::printf("  A, C slower than F; B marginal; E fastest; "
                "F1 ~3x F; F2 < F\n");

    Json doc;
    if (!bench.jsonPath.empty()) {
        // Wall-clock + modeled metrics of the full-SW partition. One
        // warm-up run keeps allocator/page-fault noise out of the
        // measured pass.
        runWorkload("vorbis_F", {.frames = frames > 8 ? 8 : frames},
                    cfg);
        auto t0 = std::chrono::steady_clock::now();
        RunResult r = runWorkload("vorbis_F", bench.size, cfg);
        const double wall_ns = std::round(msSince(t0) * 1e6);
        const double secs = wall_ns / 1e9;
        doc = Json::object()
                  .set("bench", "fig13_vorbis")
                  .set("frames", frames)
                  .set("hw_backend", bench.hwBackend)
                  .set("pcm_bit_exact", all_match)
                  .set("full_sw",
                       Json::object()
                           .set("wall_ns",
                                static_cast<std::uint64_t>(wall_ns))
                           .set("wall_ns_per_frame", wall_ns / frames)
                           .set("rules_fired", r.swRulesFired)
                           .set("rules_attempted", r.swRulesAttempted)
                           .set("rules_per_sec",
                                static_cast<double>(r.swRulesFired) /
                                    secs)
                           .set("work_units", r.swWork)
                           .set("work_per_frame",
                                static_cast<double>(r.swWork) / frames)
                           .set("shadow_copies", r.swShadowCopies)
                           .set("fpga_cycles", r.fpgaCycles))
                  .set("partitions", std::move(partitions));
    }
    return bench.finish(std::move(doc), all_match);
}
