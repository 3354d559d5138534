#include "vorbis/partitions.hpp"

#include <utility>

#include "workloads/workload.hpp"

namespace bcl {
namespace vorbis {

namespace {

VorbisConfig
configFor(const StageDomains &domains)
{
    VorbisConfig cfg;
    cfg.imdctDom = stageDomain(domains, "imdct");
    cfg.ifftDom = stageDomain(domains, "ifft");
    cfg.winDom = stageDomain(domains, "win");
    return cfg;
}

class VorbisWorkload final : public Workload
{
  public:
    VorbisWorkload()
    {
        name = "vorbis";
        defaultSeed = 12345;
        stages = {"imdct", "ifft", "win"};
        partitions = {
            {"F", "full SW", {}},
            {"A", "Window in HW", {{"win", "HW"}}},
            {"B", "IFFT in HW", {{"ifft", "HW"}}},
            {"C", "IFFT+Window in HW", {{"ifft", "HW"}, {"win", "HW"}}},
            {"D", "IMDCT+IFFT in HW",
             {{"imdct", "HW"}, {"ifft", "HW"}}},
            {"E", "full HW back-end",
             {{"imdct", "HW"}, {"ifft", "HW"}, {"win", "HW"}}},
            {"split", "IMDCT, IFFT, Window in three HW domains",
             {{"imdct", "HWA"}, {"ifft", "HWB"}, {"win", "HWC"}}},
        };
    }

    Program
    build(const StageDomains &domains, const WorkloadSize &,
          std::uint64_t) const override
    {
        return makeVorbisProgram(configFor(domains));
    }

    StreamSpec
    stream(const PartitionResult &parts, const WorkloadSize &size,
           std::uint64_t seed) const override
    {
        const ElabProgram &sw = parts.part("SW").prog;
        StreamSpec spec;
        spec.driver = makeVorbisStreamDriver(
            makeVorbisStreamState(size.frames, seed),
            sw.rootMethod("input"));
        int audio = sw.primByPath("audio");
        spec.progress = [audio](CoSim &cs) {
            return static_cast<std::uint64_t>(
                std::as_const(cs.storeOf("SW")).at(audio).queue.size());
        };
        spec.target = static_cast<std::uint64_t>(size.frames);
        return spec;
    }

    std::vector<std::uint32_t>
    output(CoSim &cs, const PartitionResult &parts) const override
    {
        std::vector<std::int32_t> pcm =
            extractPcm(cs, parts.part("SW").prog.primByPath("audio"));
        return {pcm.begin(), pcm.end()};
    }
};

} // namespace

const Workload &
vorbisWorkload()
{
    static const VorbisWorkload w;
    return w;
}

VorbisConfig
partitionConfig(VorbisPartition p)
{
    return configFor(
        vorbisWorkload().partitions[static_cast<size_t>(p)].domains);
}

VorbisConfig
splitVorbisConfig()
{
    return configFor(vorbisWorkload().partition("split").domains);
}

std::shared_ptr<VorbisStreamState>
makeVorbisStreamState(int frames, std::uint64_t seed)
{
    auto state = std::make_shared<VorbisStreamState>();
    state->inputs = makeFrames(frames, seed);
    return state;
}

SwDriver
makeVorbisStreamDriver(std::shared_ptr<VorbisStreamState> state,
                       int push_method)
{
    SwDriver driver;
    driver.step = [state, push_method](SwPort &port) -> std::uint64_t {
        if (state->fed >= state->inputs.size())
            return 0;
        std::vector<Value> elems;
        elems.reserve(kFrameIn);
        for (Fix32 s : state->inputs[state->fed])
            elems.push_back(fixValue(s));
        std::uint64_t before = port.work();
        if (port.callActionMethod(
                push_method, {Value::makeVec(std::move(elems))})) {
            state->fed++;
            // Front-end framing cost: the frame was produced by the
            // (hand-written) front end; pushing it costs the method
            // call work already counted, plus loop bookkeeping.
            return port.work() - before + kFrameIn;
        }
        return 0;
    };
    driver.done = [state] {
        return state->fed >= state->inputs.size();
    };
    return driver;
}

std::vector<std::int32_t>
extractPcm(CoSim &cs, int audio_prim)
{
    std::vector<std::int32_t> pcm;
    for (const auto &v :
         std::as_const(cs.storeOf("SW")).at(audio_prim).queue) {
        for (const auto &s : v.elems())
            pcm.push_back(static_cast<std::int32_t>(s.asInt()));
    }
    return pcm;
}

} // namespace vorbis
} // namespace bcl
