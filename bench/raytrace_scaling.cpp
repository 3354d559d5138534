/**
 * @file
 * Regenerates the section 7.2 scaling claims:
 *
 *   1. "With the scene in this form [a BVH], we can perform log(n)
 *      intersection tests instead of n in the number of scene
 *      primitives" - geometry tests per ray, BVH vs brute force,
 *      swept over scene size;
 *   2. "if the number of geometry primitives falls below some
 *      threshold, a full SW implementation might be faster" - the
 *      A-vs-C crossover as the scene shrinks (communication per ray
 *      is constant, compute per ray shrinks with log n).
 *
 * Takes no flags.
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
    BenchMain bench("raytrace_scaling", 0);
    bench.parse(argc, argv);
    std::printf("== Section 7.2 scaling ==\n\n");

    // --- log(n) vs n geometry tests -------------------------------------
    {
        TextTable table;
        table.header({"primitives", "geom tests/ray (BVH)",
                      "geom tests/ray (brute)", "speedup"});
        for (int prims : {32, 128, 512, 1024, 2048}) {
            std::vector<Sphere> scene = makeScene(prims);
            Bvh bvh = buildBvh(scene);
            Camera cam = makeCamera();
            std::uint64_t bvh_tests = 0, brute_tests = 0, rays = 0;
            for (int py = 0; py < 12; py++) {
                for (int px = 0; px < 12; px++) {
                    Ray3 r = primaryRay(cam, px, py, 12, 12);
                    bvh_tests += traverse(bvh, scene, r).geomTests;
                    brute_tests += bruteForce(scene, r).geomTests;
                    rays++;
                }
            }
            table.row(
                {std::to_string(prims),
                 fixedDecimal(static_cast<double>(bvh_tests) / rays, 1),
                 fixedDecimal(static_cast<double>(brute_tests) / rays,
                              1),
                 fixedDecimal(static_cast<double>(brute_tests) /
                                  static_cast<double>(bvh_tests),
                              1)});
        }
        std::printf("BVH log(n) vs brute-force n:\n%s\n",
                    table.str().c_str());
    }

    // --- A vs C crossover over scene size --------------------------------
    {
        TextTable table;
        table.header({"primitives", "A (full SW) cycles",
                      "C (HW engine) cycles", "C/A"});
        for (int prims : {16, 64, 256, 1024}) {
            const WorkloadSize size{.side = 12, .prims = prims};
            RunResult a = runWorkload("ray_A", size);
            RunResult c = runWorkload("ray_C", size);
            table.row({std::to_string(prims), withCommas(a.fpgaCycles),
                       withCommas(c.fpgaCycles),
                       fixedDecimal(static_cast<double>(c.fpgaCycles) /
                                        static_cast<double>(
                                            a.fpgaCycles),
                                    3)});
        }
        std::printf("partition A vs C over scene size (C/A rises as "
                    "the scene shrinks):\n%s\n",
                    table.str().c_str());
        std::printf("paper: \"if the number of geometry primitives "
                    "falls below some threshold, a full SW\n"
                    "implementation might be faster\"\n");
    }
    return 0;
}
