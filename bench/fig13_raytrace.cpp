/**
 * @file
 * Regenerates Figure 13 (right) of the paper: execution times of the
 * ray tracer under the four partitions of Figure 14.
 *
 * Expected shape (section 7.2): the fastest partition is C (the
 * ray/geometry intersection engine in hardware with the scene in
 * on-chip block RAM); "Configurations B and D, though they both use
 * HW acceleration, are slower than the pure software implementation
 * because the savings in computation are outweighed by the incurred
 * cost of communication."
 *
 * Usage: fig13_raytrace [--ray-size N] [--ray-prims N]
 *                       [--platform FILE|PRESET]
 * (defaults: 24x24 image, 1024 primitives - the paper's scene size -
 * on the ml507 platform model).
 */
#include <cstdio>

#include "bench_main.hpp"
#include "common/stats.hpp"
#include "ray/native.hpp"

using namespace bcl;
using namespace bcl::bench;
using namespace bcl::ray;

int
main(int argc, char **argv)
{
    BenchMain bench("fig13_raytrace", kRaySize | kRayPrims | kPlatform);
    bench.size = {.side = 24, .prims = 1024};
    bench.parse(argc, argv);
    const int size = bench.size.side, prims = bench.size.prims;
    const CosimConfig cfg = bench.config();

    std::printf("== Figure 13 (right): ray tracer partitions, %dx%d "
                "image, %d primitives (platform: %s) ==\n\n",
                size, size, prims, cfg.platform.name.c_str());

    // Native oracle for the image.
    std::vector<Sphere> scene = makeScene(prims);
    Bvh bvh = buildBvh(scene);
    RenderResult native =
        renderNative(scene, bvh, makeCamera(), size, size);

    TextTable table;
    table.header({"part", "hardware content", "FPGA cycles", "vs A",
                  "msgs", "HW rule fires"});
    std::uint64_t a_cycles = 0;
    bool all_match = true;
    for (const char *name : {"ray_A", "ray_B", "ray_C", "ray_D"}) {
        const WorkloadPartition &p = *findWorkload(name).partition;
        RunResult r = runWorkload(name, bench.size, cfg);
        if (a_cycles == 0)
            a_cycles = r.fpgaCycles;
        all_match &= r.output == native.pixels;
        table.row({p.name, p.description, withCommas(r.fpgaCycles),
                   fixedDecimal(static_cast<double>(r.fpgaCycles) /
                                    static_cast<double>(a_cycles),
                                3),
                   withCommas(r.messages), withCommas(r.hwRuleFires)});
    }
    std::printf("%s\n", table.str().c_str());
    std::printf("image bit-exact across all partitions and the native "
                "renderer: %s\n",
                all_match ? "yes" : "NO (ERROR)");
    std::printf("\nshape check: C < A < D < B (paper: C fastest; B and "
                "D slower than full SW)\n");
    return bench.finish({}, all_match);
}
