/**
 * @file
 * Vorbis back-end tests: numeric sanity of the fixed-point IFFT
 * against a double-precision inverse DFT, bit-exact equivalence of
 * the hand-written baseline and every BCL partitioning (the
 * latency-insensitivity theorem of section 4.3 applied to the real
 * application), and basic timing-shape checks.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <complex>

#include "vorbis/native.hpp"
#include "vorbis/partitions.hpp"
#include "workloads/workload.hpp"

namespace bcl {
namespace vorbis {
namespace {

/** Double-precision model of the whole back-end for one frame. */
std::vector<double>
doubleModel(const std::vector<Fix32> &frame, std::vector<double> &prev)
{
    const Tables &t = tables();
    constexpr double pi = 3.14159265358979323846;
    std::vector<std::complex<double>> v(kIfftSize);
    for (int i = 0; i < kFrameIn; i++) {
        double x = frame[i].toDouble();
        v[i] = {t.pre1[i].re.toDouble() * x,
                t.pre1[i].im.toDouble() * x};
        v[i + kFrameIn] = {t.pre2[i].re.toDouble() * x,
                           t.pre2[i].im.toDouble() * x};
    }
    // Direct inverse DFT (positive exponent kernel).
    std::vector<std::complex<double>> y(kIfftSize);
    for (int n = 0; n < kIfftSize; n++) {
        std::complex<double> acc = 0;
        for (int k = 0; k < kIfftSize; k++) {
            double a = 2.0 * pi * n * k / kIfftSize;
            acc += v[k] * std::complex<double>(std::cos(a),
                                               std::sin(a));
        }
        y[n] = acc;
    }
    std::vector<double> mid(kIfftSize);
    for (int n = 0; n < kIfftSize; n++) {
        std::complex<double> p = {t.post[n].re.toDouble(),
                                  t.post[n].im.toDouble()};
        mid[n] = (p * y[n]).real();
    }
    std::vector<double> out(kPcmOut);
    for (int i = 0; i < kPcmOut; i++) {
        out[i] = prev[i] * t.winPrev[i].toDouble() +
                 mid[i] * t.winCur[i].toDouble();
        prev[i] = mid[i + kPcmOut];
    }
    return out;
}

TEST(VorbisNative, MatchesDoublePrecisionModelWithinTolerance)
{
    auto frames = makeFrames(4, 777);
    NativeBackend backend;
    std::vector<double> prev(kPcmOut, 0.0);
    size_t sample = 0;
    for (const auto &f : frames) {
        backend.pushFrame(f);
        std::vector<double> expect = doubleModel(f, prev);
        for (int i = 0; i < kPcmOut; i++, sample++) {
            double got = Fix32(backend.pcm()[sample]).toDouble();
            // 64-term fixed-point accumulation: allow generous but
            // meaningful tolerance.
            EXPECT_NEAR(got, expect[i], 2e-4)
                << "frame " << sample / kPcmOut << " sample " << i;
        }
    }
    EXPECT_GT(backend.work(), 0u);
}

TEST(VorbisNative, DigitRev4IsAnInvolutionPermutation)
{
    std::vector<bool> seen(kIfftSize, false);
    for (int i = 0; i < kIfftSize; i++) {
        int r = digitRev4(i);
        ASSERT_GE(r, 0);
        ASSERT_LT(r, kIfftSize);
        EXPECT_EQ(digitRev4(r), i);
        seen[r] = true;
    }
    for (bool s : seen)
        EXPECT_TRUE(s);
}

TEST(VorbisNative, FrameGeneratorIsDeterministic)
{
    auto a = makeFrames(3, 42);
    auto b = makeFrames(3, 42);
    auto c = makeFrames(3, 43);
    EXPECT_EQ(a.size(), 3u);
    for (int f = 0; f < 3; f++) {
        for (int i = 0; i < kFrameIn; i++)
            EXPECT_EQ(a[f][i].raw, b[f][i].raw);
    }
    bool any_diff = false;
    for (int i = 0; i < kFrameIn; i++)
        any_diff |= a[0][i].raw != c[0][i].raw;
    EXPECT_TRUE(any_diff);
}

TEST(VorbisPartition, FullSoftwareMatchesNativeBitExactly)
{
    const int frames = 6;
    auto inputs = makeFrames(frames);
    NativeResult native = runNativeBackend(inputs);
    RunResult f = runWorkload("vorbis_F", {.frames = frames});
    ASSERT_EQ(f.output.size(), native.pcm.size());
    for (size_t i = 0; i < native.pcm.size(); i++)
        ASSERT_EQ(static_cast<std::int32_t>(f.output[i]), native.pcm[i])
            << "sample " << i;
    EXPECT_GT(f.fpgaCycles, 0u);
    EXPECT_EQ(f.messages, 0u);  // no partition boundary in F
}

TEST(VorbisPartition, EveryPartitionProducesIdenticalPcm)
{
    const int frames = 5;
    RunResult ref = runWorkload("vorbis_F", {.frames = frames});
    for (const WorkloadPartition &p : vorbisWorkload().partitions) {
        if (p.name == "F")
            continue;
        RunResult r = runWorkload(vorbisWorkload(), p.domains,
                                  {.frames = frames});
        ASSERT_EQ(r.output.size(), ref.output.size())
            << "partition " << p.name;
        for (size_t i = 0; i < ref.output.size(); i++) {
            ASSERT_EQ(r.output[i], ref.output[i])
                << "partition " << p.name << " sample " << i;
        }
        EXPECT_GT(r.messages, 0u) << p.name;
    }
}

TEST(VorbisPartition, HardwarePartitionsMoveTraffic)
{
    const int frames = 4;
    RunResult b = runWorkload("vorbis_B", {.frames = frames});
    RunResult e = runWorkload("vorbis_E", {.frames = frames});
    // B crosses the cut 8x per frame with 32-word sub-blocks.
    EXPECT_EQ(b.messages, static_cast<std::uint64_t>(8 * frames));
    EXPECT_EQ(b.channelWords,
              static_cast<std::uint64_t>(8 * 32 * frames));
    // E crosses twice per frame (frame in, PCM out).
    EXPECT_EQ(e.messages, static_cast<std::uint64_t>(2 * frames));
    EXPECT_GT(b.hwRuleFires, 0u);
    EXPECT_GT(e.hwRuleFires, b.hwRuleFires);
}

TEST(VorbisPartition, CombIfftMatchesPipelinedIfft)
{
    const int frames = 3;
    CosimConfig cfg;
    RunResult pipe = runWorkload("vorbis_F", {.frames = frames});

    Program prog = [&] {
        VorbisConfig c = partitionConfig(VorbisPartition::F);
        c.pipelinedIfft = false;
        return makeVorbisProgram(c);
    }();
    // Run the comb variant through the same harness manually.
    ElabProgram elab = elaborate(prog);
    DomainAssignment doms = inferDomains(elab);
    PartitionResult parts = partitionProgram(elab, doms);
    CoSim cosim(parts, cfg);
    const PartitionPart &sw = parts.part("SW");
    int push = sw.prog.rootMethod("input");
    int audio = sw.prog.primByPath("audio");
    auto inputs = makeFrames(frames);
    size_t fed = 0;
    SwDriver driver;
    driver.step = [&](SwPort &port) -> std::uint64_t {
        if (fed >= inputs.size())
            return 0;
        std::vector<Value> elems;
        for (Fix32 s : inputs[fed])
            elems.push_back(fixValue(s));
        std::uint64_t before = port.work();
        if (port.callActionMethod(push,
                                  {Value::makeVec(std::move(elems))})) {
            fed++;
            return port.work() - before + kFrameIn;
        }
        return 0;
    };
    driver.done = [&] { return fed >= inputs.size(); };
    cosim.setDriver("SW", driver);
    cosim.run([&](CoSim &cs) {
        return cs.storeOf("SW").at(audio).queue.size() ==
               static_cast<size_t>(frames);
    });
    std::vector<std::uint32_t> comb_pcm;
    for (const auto &v : cosim.storeOf("SW").at(audio).queue) {
        for (const auto &s : v.elems())
            comb_pcm.push_back(static_cast<std::uint32_t>(s.asInt()));
    }
    EXPECT_EQ(comb_pcm, pipe.output);
}

} // namespace
} // namespace vorbis
} // namespace bcl
