/**
 * @file
 * Unit tests of the PlatformSpec layer: the config parser and its
 * line-numbered diagnostics, the built-in presets (pinned to the
 * historical ML507 calibration, byte for byte), per-pair topology
 * resolution with wildcard fallback, the str()/parse round trip, the
 * HwDelayModel plumbing into the timing estimator, and an end-to-end
 * check that a heterogeneous topology changes per-link occupancy
 * accounting without changing workload outputs.
 */
#include <gtest/gtest.h>

#include <string>

#include "common/logging.hpp"
#include "core/builder.hpp"
#include "core/elaborate.hpp"
#include "hwsim/timing.hpp"
#include "platform/platform_spec.hpp"
#include "workloads/workload.hpp"

namespace bcl {
namespace {

/** Expect parsePlatformSpec to reject @p text with a diagnostic that
 *  names the source and the 1-based line @p line. */
void
expectRejects(const std::string &text, int line,
              const std::string &needle)
{
    try {
        parsePlatformSpec(text, "cfg");
        FAIL() << "expected rejection: " << needle;
    } catch (const FatalError &e) {
        std::string msg = e.what();
        std::string at = "cfg:" + std::to_string(line) + ":";
        EXPECT_NE(msg.find(at), std::string::npos)
            << "missing '" << at << "' in: " << msg;
        EXPECT_NE(msg.find(needle), std::string::npos)
            << "missing '" << needle << "' in: " << msg;
    }
}

TEST(PlatformSpec, Ml507PresetPinsHistoricalCalibration)
{
    PlatformSpec spec = PlatformSpec::ml507();
    EXPECT_EQ(spec.name, "ml507");
    EXPECT_DOUBLE_EQ(spec.cpuClockRatio, 4.0);

    // The preset resolves every pair to the BusParams defaults — the
    // single source of the ML507 calibration.
    BusParams bus = spec.resolveLink("SW", "HW");
    EXPECT_EQ(bus, BusParams{});
    EXPECT_EQ(spec.resolveLink("HW", "SW"), BusParams{});

    // Section 7 numbers: ~100-cycle 1-word round trip, and a 512-word
    // streaming message at ~388 MB/s on the 100 MHz fabric (the
    // paper's "stream up to 400 megabytes per second").
    EXPECT_EQ(bus.roundTripCycles(), 100u);
    EXPECT_EQ(bus.occupancyCycles(512), 527u);
    double mbps = 512.0 * 4 * (100e6 / bus.occupancyCycles(512)) / 1e6;
    EXPECT_NEAR(mbps, 388.0, 2.0);

    // Default delay weights are the historical timing constants.
    EXPECT_EQ(spec.hwDelays, HwDelayModel{});
    EXPECT_EQ(spec.hwDelays.div, 3 * spec.hwDelays.mul);
    EXPECT_EQ(spec.hwDelays.sqrt, 4 * spec.hwDelays.mul);
}

TEST(PlatformSpec, PciePresetKeepsFabricSideCalibration)
{
    PlatformSpec spec = PlatformSpec::pcie();
    BusParams bus = spec.resolveLink("SW", "HW");
    EXPECT_EQ(bus.requestLatency, 220u);
    EXPECT_EQ(bus.perMessageOverhead, 40u);
    EXPECT_EQ(bus.maxBurstWords, 512);
    // Deliberate: the CPU ratio stays at the ML507 4.0 so ml507-vs-
    // pcie comparisons isolate the link-timing axis.
    EXPECT_DOUBLE_EQ(spec.cpuClockRatio, 4.0);
}

TEST(PlatformSpec, PresetsSurviveStrParseRoundTrip)
{
    for (const std::string &name : platformPresetNames()) {
        PlatformSpec spec = resolvePlatform(name);
        PlatformSpec back = parsePlatformSpec(spec.str(), name);
        EXPECT_EQ(back, spec) << "round trip broke preset " << name;
    }
}

TEST(PlatformSpec, ParsesFullSchema)
{
    PlatformSpec spec = parsePlatformSpec(R"(# full grammar
platform demo
cpu_clock_ratio 2.5
link fast 6 2 1 1024
link slow 220 40 2 256
default_link fast
topology SW HW0 slow
topology SW * slow
topology * SW slow
hw_delay mul 10
hw_delay bram 6
)",
                                          "demo.config");
    EXPECT_EQ(spec.name, "demo");
    EXPECT_DOUBLE_EQ(spec.cpuClockRatio, 2.5);
    EXPECT_EQ(spec.linkClasses.size(), 2u);
    EXPECT_EQ(spec.linkClass("slow").perWordCycles, 2u);
    EXPECT_EQ(spec.defaultLink, "fast");
    EXPECT_EQ(spec.topology.size(), 3u);
    EXPECT_EQ(spec.hwDelays.mul, 10);
    EXPECT_EQ(spec.hwDelays.bram, 6);
    EXPECT_EQ(spec.hwDelays.add, 2); // untouched fields keep defaults
}

TEST(PlatformSpec, TopologyResolutionPrecedence)
{
    PlatformSpec spec = parsePlatformSpec(R"(platform prec
link a 1 1 1 8
link b 2 2 1 8
link c 3 3 1 8
link d 4 4 1 8
link e 5 5 1 8
default_link e
topology SW HW0 a
topology SW * b
topology * HW1 c
topology * * d
)",
                                          "prec");
    // exact > (from,*) > (*,to) > (*,*) > default_link
    EXPECT_EQ(spec.resolveLinkClass("SW", "HW0"), "a");
    EXPECT_EQ(spec.resolveLinkClass("SW", "HW1"), "b");
    EXPECT_EQ(spec.resolveLinkClass("HW0", "HW1"), "c");
    EXPECT_EQ(spec.resolveLinkClass("HW0", "HW2"), "d");
    EXPECT_EQ(spec.resolveLink("SW", "HW0").requestLatency, 1u);

    PlatformSpec no_rules = parsePlatformSpec(
        "platform p\nlink only 1 1 1 8\ndefault_link only\n", "p");
    EXPECT_EQ(no_rules.resolveLinkClass("X", "Y"), "only");
}

TEST(PlatformSpec, RejectsMalformedConfigsWithLineNumbers)
{
    const std::string ok = "platform p\nlink l 1 1 1 8\n";
    expectRejects("platform p\nbogus 1 2\n", 2, "unknown directive");
    expectRejects("platform p\nlink l 1 1 1\n", 2, "expected");
    expectRejects("platform p\nlink l 1 1 1 grue\n", 2, "integer");
    expectRejects(ok + "link l 2 2 2 8\n", 3, "duplicate link class");
    expectRejects("platform p\nplatform q\nlink l 1 1 1 8\n", 2,
                  "duplicate");
    expectRejects(ok + "topology SW HW l\ntopology SW HW l\n", 4,
                  "duplicate topology");
    expectRejects(ok + "default_link nope\n", 3, "unknown link class");
    expectRejects(ok + "topology SW HW nope\n", 3,
                  "unknown link class");
    expectRejects(ok + "hw_delay frobnicate 3\n", 3, "unknown hw_delay");
    expectRejects(ok + "cpu_clock_ratio 0\n", 3, "must be > 0");
    expectRejects(ok + "cpu_clock_ratio -2\n", 3, "must be > 0");
    expectRejects("platform p\nlink l 1 1 1 0\n", 2, "max_burst");
    expectRejects("platform p\n", 1, "link class");
}

TEST(PlatformSpec, LoadsEveryShippedConfig)
{
    const char *dir = BCL_SRC_DIR "/../configs/";
    for (const char *f :
         {"ml507.config", "pcie.config", "fast_fabric.config",
          "slow_bus.config", "noc_mesh.config",
          "het_onchip_offchip.config"}) {
        PlatformSpec spec = loadPlatformSpec(std::string(dir) + f);
        EXPECT_FALSE(spec.name.empty()) << f;
        EXPECT_FALSE(spec.linkClasses.empty()) << f;
    }

    // The shipped ml507.config is the preset, field for field — the
    // file documents the calibration, the preset is the truth.
    EXPECT_EQ(loadPlatformSpec(std::string(dir) + "ml507.config"),
              PlatformSpec::ml507());
    EXPECT_EQ(loadPlatformSpec(std::string(dir) + "pcie.config"),
              PlatformSpec::pcie());
}

TEST(PlatformSpec, ResolvePlatformPrefersPresetsThenFiles)
{
    EXPECT_EQ(resolvePlatform("ml507"), PlatformSpec::ml507());
    EXPECT_EQ(resolvePlatform("pcie"), PlatformSpec::pcie());
    PlatformSpec from_file = resolvePlatform(
        std::string(BCL_SRC_DIR "/../configs/slow_bus.config"));
    EXPECT_EQ(from_file.name, "slow_bus");
    EXPECT_THROW(resolvePlatform("no_such_platform_anywhere"),
                 FatalError);
}

TEST(PlatformSpec, HwDelayModelThreadsIntoTimingEstimate)
{
    // One rule whose body multiplies: its depth must move 1:1 with
    // the platform's mul weight.
    ModuleBuilder b("T");
    b.addFifo("q", Type::bits(32), 4);
    b.addRule("m",
              callA("q", "enq",
                    {primE(PrimOp::Mul,
                           {intE(32, 3), intE(32, 5)})}));
    Program prog =
        ProgramBuilder().add(b.build()).setRoot("T").build();
    ElabProgram elab = elaborate(prog);

    HwTiming base = estimateTiming(elab); // default HwDelayModel
    HwDelayModel heavy;
    heavy.mul = heavy.mul + 7;
    HwTiming slow = estimateTiming(elab, heavy);
    EXPECT_EQ(slow.criticalDepth, base.criticalDepth + 7);
}

TEST(PlatformSpec, HeterogeneousTopologyChangesOccupancyNotOutputs)
{
    const WorkloadSize size{.frames = 2};
    CosimConfig base_cfg; // ml507 preset by default
    RunResult base = runWorkload("vorbis_split", size, base_cfg);

    CosimConfig het_cfg;
    het_cfg.platform = loadPlatformSpec(
        BCL_SRC_DIR "/../configs/het_onchip_offchip.config");
    RunResult het = runWorkload("vorbis_split", size, het_cfg);

    // Latency-insensitive: identical outputs under any link timing.
    EXPECT_EQ(het.output, base.output);

    // But the topology section charges SW crossings to off_chip and
    // HW<->HW links to on_chip, and occupancy shifts accordingly.
    ASSERT_EQ(het.linkUsage.size(), base.linkUsage.size());
    bool saw_off = false, saw_on = false, busy_differs = false;
    for (size_t i = 0; i < het.linkUsage.size(); i++) {
        const CoSim::LinkUsage &l = het.linkUsage[i];
        const CoSim::LinkUsage &b2 = base.linkUsage[i];
        EXPECT_EQ(b2.linkClass, "local_link");
        if (l.from == "SW" || l.to == "SW") {
            EXPECT_EQ(l.linkClass, "off_chip");
            saw_off = true;
        } else {
            EXPECT_EQ(l.linkClass, "on_chip");
            saw_on = true;
        }
        if (l.busyCycles != b2.busyCycles)
            busy_differs = true;
    }
    EXPECT_TRUE(saw_off);
    EXPECT_TRUE(saw_on);
    EXPECT_TRUE(busy_differs);
}

} // namespace
} // namespace bcl
