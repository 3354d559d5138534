/**
 * @file
 * Golden modeled-count regression test for the co-simulation loop.
 * Short runs of split Vorbis on the compiled clock edge (three
 * hardware domains, backpressured channels) and of ray partition B on
 * ClockSim, each in-thread and over the shared-memory transport, must
 * reproduce every modeled count: virtual time, per-domain HwStats
 * (cycles, busy cycles, fires, per-rule fires), per-channel messages
 * and stalls, and per-link occupancy and grants.
 *
 * The determinism matrices compare configurations with each other, so
 * a loop change that shifts every configuration alike passes them.
 * These numbers were captured once, before the loop accounted settled
 * hardware cycles without clocking them, and are never regenerated:
 * a mechanism change in the loop (which cycles it clocks, which
 * slices it relays) may move wall-clock time, never these counts. A
 * mismatch prints the observed block in the same format.
 */
#include <gtest/gtest.h>

#include <sstream>

#include "platform/cosim.hpp"
#include "serve/compile_cache.hpp"
#include "workloads/workload.hpp"

namespace bcl {
namespace {

/** Run registry entry @p name to completion and render its modeled
 *  counts, one line per domain, channel and link. */
std::string
modeledCounts(const std::string &name, const WorkloadSize &size,
              const CosimConfig &cfg)
{
    RunResult r = runWorkload(name, size, cfg);
    std::ostringstream os;
    os << "now " << r.fpgaCycles << "\n";
    for (const auto &[domain, hw] : r.hwStats) {
        os << "domain " << domain << " cycles " << hw.cycles << " busy "
           << hw.busyCycles << " fired " << hw.rulesFired << " per_rule";
        for (std::uint64_t f : hw.perRuleFires)
            os << " " << f;
        os << "\n";
    }
    for (const auto &[chan, st] : r.channelStats) {
        os << "channel " << chan << " messages " << st.messages
           << " stall_cycles " << st.stallCycles << " stall_events "
           << st.stallEvents << "\n";
    }
    for (const CoSim::LinkUsage &u : r.linkUsage) {
        os << "link " << u.from << "_" << u.to << " busy " << u.busyCycles
           << " grants " << u.grants << "\n";
    }
    return os.str();
}

// Split Vorbis, 32 frames, compiled clock edge; in-thread, s0, s1
// and s2 stall.
const char *const kVorbisSplitInThread =
    "now 8014\n"
    "domain HWA cycles 709 busy 306 fired 320 per_rule 32 128 128 32\n"
    "domain HWB cycles 1485 busy 591 fired 608 per_rule 32 32 32 "
    "128 128 128 128\n"
    "domain HWC cycles 301 busy 96 fired 96 per_rule 32 32 32\n"
    "channel s0 messages 32 stall_cycles 3401 stall_events 13\n"
    "channel s1 messages 128 stall_cycles 6543 stall_events 62\n"
    "channel s2 messages 128 stall_cycles 1669 stall_events 41\n"
    "channel s3 messages 32 stall_cycles 0 stall_events 0\n"
    "channel s4 messages 32 stall_cycles 0 stall_events 0\n"
    "link HWA_HWB busy 6016 grants 128\n"
    "link HWA_HWC busy 2528 grants 32\n"
    "link HWB_HWA busy 6016 grants 128\n"
    "link HWC_SW busy 1504 grants 32\n"
    "link SW_HWA busy 1504 grants 32\n";
const char *const kVorbisSplitShm =
    "now 8644\n"
    "domain HWA cycles 320 busy 320 fired 320 per_rule 32 128 128 32\n"
    "domain HWB cycles 608 busy 608 fired 608 per_rule 32 32 32 "
    "128 128 128 128\n"
    "domain HWC cycles 96 busy 96 fired 96 per_rule 32 32 32\n"
    "channel s0 messages 32 stall_cycles 1280 stall_events 3\n"
    "channel s1 messages 128 stall_cycles 7364 stall_events 77\n"
    "channel s2 messages 128 stall_cycles 0 stall_events 0\n"
    "channel s3 messages 32 stall_cycles 0 stall_events 0\n"
    "channel s4 messages 32 stall_cycles 0 stall_events 0\n"
    "link HWA_HWB busy 6016 grants 128\n"
    "link HWA_HWC busy 2528 grants 32\n"
    "link HWB_HWA busy 6016 grants 128\n"
    "link HWC_SW busy 1504 grants 32\n"
    "link SW_HWA busy 1504 grants 32\n";

// Ray partition B, 6x6 pixels over 32 spheres, ClockSim.
const char *const kRayBInThread =
    "now 154064\n"
    "domain HW cycles 2009 busy 502 fired 502 per_rule 428 74\n"
    "channel boxReqQ messages 428 stall_cycles 0 stall_events 0\n"
    "channel boxRspQ messages 428 stall_cycles 0 stall_events 0\n"
    "channel geomReqQ messages 74 stall_cycles 0 stall_events 0\n"
    "channel geomRspQ messages 74 stall_cycles 0 stall_events 0\n"
    "link HW_SW busy 8534 grants 502\n"
    "link SW_HW busy 13406 grants 502\n";
const char *const kRayBShm =
    "now 154065\n"
    "domain HW cycles 502 busy 502 fired 502 per_rule 428 74\n"
    "channel boxReqQ messages 428 stall_cycles 0 stall_events 0\n"
    "channel boxRspQ messages 428 stall_cycles 0 stall_events 0\n"
    "channel geomReqQ messages 74 stall_cycles 0 stall_events 0\n"
    "channel geomRspQ messages 74 stall_cycles 0 stall_events 0\n"
    "link HW_SW busy 8534 grants 502\n"
    "link SW_HW busy 13406 grants 502\n";

void
expectGolden(const std::string &got, const char *golden)
{
    EXPECT_EQ(got, golden) << "observed:\n" << got;
}

TEST(ModeledGolden, VorbisSplitCompiledHw)
{
    if (!CompiledHwPartition::hostCompilerAvailable())
        GTEST_SKIP() << "no host compiler";
    serve::CompileCache cache;
    CosimConfig cfg;
    cfg.hwBackend = HwBackend::Compiled;
    cfg.compileProvider = [&cache](const ElabProgram &prog,
                                   const GenccOptions &opts) {
        return cache.get(prog, opts);
    };
    cfg.transportTimeoutMs = 60000;
    const WorkloadSize size{.frames = 32};
    expectGolden(modeledCounts("vorbis_split", size, cfg),
                 kVorbisSplitInThread);
    cfg.defaultTransport = TransportKind::SharedMem;
    expectGolden(modeledCounts("vorbis_split", size, cfg),
                 kVorbisSplitShm);
}

TEST(ModeledGolden, RayBClockSim)
{
    CosimConfig cfg;
    cfg.transportTimeoutMs = 60000;
    const WorkloadSize size{.side = 6, .prims = 32};
    expectGolden(modeledCounts("ray_B", size, cfg), kRayBInThread);
    cfg.defaultTransport = TransportKind::SharedMem;
    expectGolden(modeledCounts("ray_B", size, cfg), kRayBShm);
}

} // namespace
} // namespace bcl
