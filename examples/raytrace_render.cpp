/**
 * @file
 * Ray-tracing example: render a procedural scene under any of the
 * four partitions of Figure 14, verify against the native renderer,
 * and write the image as a PPM file.
 *
 * Run: ./example_raytrace_render [partition A|B|C|D|split] [size] [out.ppm]
 */
#include <cstdio>
#include <cstdlib>
#include <string>
#include <fstream>

#include "ray/native.hpp"
#include "workloads/workload.hpp"

using namespace bcl;
using namespace bcl::ray;

int
main(int argc, char **argv)
{
    std::string part = "C";
    int size = 32;
    const char *out_path = "render.ppm";
    if (argc > 1)
        part = argv[1];
    if (argc > 2)
        size = std::atoi(argv[2]);
    if (argc > 3)
        out_path = argv[3];

    const int prims = 256;
    const NamedWorkload &nw = findWorkload("ray_" + part);
    std::printf("rendering %dx%d, %d spheres, partition %s (%s)\n",
                size, size, prims, nw.partition->name.c_str(),
                nw.partition->description.c_str());

    RunResult r = runWorkload(nw.name, {.side = size, .prims = prims});

    std::vector<Sphere> scene = makeScene(prims);
    Bvh bvh = buildBvh(scene);
    RenderResult native =
        renderNative(scene, bvh, makeCamera(), size, size);
    bool match = r.output == native.pixels;

    std::printf("image bit-exact vs native renderer: %s\n",
                match ? "yes" : "NO");
    std::printf("time: %llu FPGA cycles; %llu messages; %llu HW rule "
                "firings\n",
                static_cast<unsigned long long>(r.fpgaCycles),
                static_cast<unsigned long long>(r.messages),
                static_cast<unsigned long long>(r.hwRuleFires));

    std::ofstream ppm(out_path, std::ios::binary);
    ppm << "P6\n" << size << " " << size << "\n255\n";
    for (std::uint32_t px : r.output) {
        char rgb[3] = {static_cast<char>((px >> 16) & 0xff),
                       static_cast<char>((px >> 8) & 0xff),
                       static_cast<char>(px & 0xff)};
        ppm.write(rgb, 3);
    }
    std::printf("wrote %s\n", out_path);
    return match ? 0 : 1;
}
