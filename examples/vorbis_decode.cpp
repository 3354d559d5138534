/**
 * @file
 * Vorbis decode example: run any HW/SW partition of the Ogg Vorbis
 * back-end end to end under co-simulation, verify the PCM against
 * the hand-written baseline, and report the time split.
 *
 * Run: ./example_vorbis_decode [partition F|A|B|C|D|E|split]
 *      [frames]
 */
#include <cstdio>
#include <cstdlib>
#include <string>
#include <cstring>

#include "vorbis/native.hpp"
#include "workloads/workload.hpp"

using namespace bcl;
using namespace bcl::vorbis;

int
main(int argc, char **argv)
{
    std::string part = "D";
    int frames = 64;
    if (argc > 1)
        part = argv[1];
    if (argc > 2)
        frames = std::atoi(argv[2]);

    const NamedWorkload &nw = findWorkload("vorbis_" + part);
    std::printf("decoding %d frames under partition %s (%s)\n", frames,
                nw.partition->name.c_str(),
                nw.partition->description.c_str());

    RunResult r = runWorkload(nw.name, {.frames = frames});
    NativeResult native = runNativeBackend(makeFrames(frames));

    bool match = r.output == std::vector<std::uint32_t>(
                                 native.pcm.begin(), native.pcm.end());
    std::printf("PCM samples: %zu, bit-exact vs hand-written C++: %s\n",
                r.output.size(), match ? "yes" : "NO");
    std::printf("time: %llu FPGA cycles (%.1f cycles/frame)\n",
                static_cast<unsigned long long>(r.fpgaCycles),
                static_cast<double>(r.fpgaCycles) / frames);
    std::printf("traffic: %llu messages, %llu payload words\n",
                static_cast<unsigned long long>(r.messages),
                static_cast<unsigned long long>(r.channelWords));
    std::printf("hardware rule firings: %llu\n",
                static_cast<unsigned long long>(r.hwRuleFires));

    // First few samples, as a decoded waveform teaser.
    std::printf("first samples (Q8.24):");
    for (size_t i = 0; i < 8 && i < r.output.size(); i++)
        std::printf(" %.5f",
                    Fix32(static_cast<std::int32_t>(r.output[i]))
                        .toDouble());
    std::printf("\n");
    return match ? 0 : 1;
}
