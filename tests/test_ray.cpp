/**
 * @file
 * Ray tracer tests: intersection kernels against double-precision
 * oracles, BVH-vs-brute-force agreement, and bit-exact image
 * equivalence between the native renderer and every BCL partitioning.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "ray/native.hpp"
#include "workloads/workload.hpp"

namespace bcl {
namespace ray {
namespace {

TEST(RayGeom, Fx16RoundTripAndOps)
{
    Fx16 a = Fx16::fromDouble(1.5), b = Fx16::fromDouble(-2.25);
    EXPECT_NEAR((a * b).toDouble(), -3.375, 1e-4);
    EXPECT_NEAR((a / b).toDouble(), -0.6667, 1e-3);
    EXPECT_NEAR(Fx16::fromDouble(2.0).sqrt().toDouble(),
                std::sqrt(2.0), 1e-4);
    EXPECT_EQ((a / Fx16(0)).raw, 0);     // defined total semantics
    EXPECT_EQ(Fx16(-100).sqrt().raw, 0); // negative -> 0
}

TEST(RayGeom, Isqrt64MatchesFloorSqrt)
{
    for (std::uint64_t v :
         {0ull, 1ull, 2ull, 3ull, 4ull, 15ull, 16ull, 17ull,
          1ull << 20, (1ull << 32) - 1, 1ull << 40,
          0xffffffffffffull}) {
        std::uint64_t r = isqrt64(v);
        EXPECT_LE(r * r, v);
        EXPECT_GT((r + 1) * (r + 1), v);
    }
}

TEST(RayGeom, SphereIntersectMatchesAnalytic)
{
    Sphere s;
    s.center = {Fx16::fromDouble(0), Fx16::fromDouble(0),
                Fx16::fromDouble(5)};
    s.radius = Fx16::fromDouble(1.0);
    Ray3 r;
    r.o = {Fx16::fromDouble(0), Fx16::fromDouble(0),
           Fx16::fromDouble(0)};
    r.d = {Fx16::fromDouble(0.01), Fx16::fromDouble(0.01),
           Fx16::fromDouble(1.0)};
    HitT h = sphereIntersect(r, s);
    ASSERT_TRUE(h.hit);
    EXPECT_NEAR(h.t.toDouble(), 4.0, 0.05);

    // Pointing away: miss.
    r.d.z = Fx16::fromDouble(-1.0);
    EXPECT_FALSE(sphereIntersect(r, s).hit);
}

TEST(RayGeom, BoxIntersectSlabsBehave)
{
    Aabb b;
    b.lo = {Fx16::fromDouble(-1), Fx16::fromDouble(-1),
            Fx16::fromDouble(4)};
    b.hi = {Fx16::fromDouble(1), Fx16::fromDouble(1),
            Fx16::fromDouble(6)};
    Ray3 r;
    r.o = {Fx16::fromDouble(0), Fx16::fromDouble(0),
           Fx16::fromDouble(0)};
    r.d = {Fx16::fromDouble(0.01), Fx16::fromDouble(0.01),
           Fx16::fromDouble(1.0)};
    HitT h = boxIntersect(r, b);
    ASSERT_TRUE(h.hit);
    EXPECT_NEAR(h.t.toDouble(), 4.0, 0.05);

    // Origin inside the box: hit with t = 0.
    r.o.z = Fx16::fromDouble(5.0);
    h = boxIntersect(r, b);
    ASSERT_TRUE(h.hit);
    EXPECT_EQ(h.t.raw, 0);

    // Clearly off to the side: miss.
    r.o = {Fx16::fromDouble(10), Fx16::fromDouble(10),
           Fx16::fromDouble(0)};
    EXPECT_FALSE(boxIntersect(r, b).hit);
}

TEST(RayBvh, TraversalAgreesWithBruteForce)
{
    std::vector<Sphere> scene = makeScene(128, 99);
    Bvh bvh = buildBvh(scene);
    Camera cam = makeCamera();
    int hits = 0;
    for (int py = 0; py < 16; py++) {
        for (int px = 0; px < 16; px++) {
            Ray3 r = primaryRay(cam, px, py, 16, 16);
            TraceHit a = traverse(bvh, scene, r);
            TraceHit b = bruteForce(scene, r);
            ASSERT_EQ(a.hit, b.hit) << px << "," << py;
            if (a.hit) {
                hits++;
                EXPECT_EQ(a.t.raw, b.t.raw);
                EXPECT_EQ(a.sphere, b.sphere);
                // The BVH must do fewer geometry tests than brute
                // force (the log(n) claim of section 7.2).
                EXPECT_LT(a.geomTests, b.geomTests);
            }
        }
    }
    EXPECT_GT(hits, 10);  // scene dense enough to be meaningful
}

TEST(RayBvh, CoversAllPrimitivesOnce)
{
    std::vector<Sphere> scene = makeScene(64, 7);
    Bvh bvh = buildBvh(scene);
    std::vector<int> seen(64, 0);
    for (std::int32_t i : bvh.leafPrims)
        seen[static_cast<size_t>(i)]++;
    for (int c : seen)
        EXPECT_EQ(c, 1);
    EXPECT_LE(bvh.maxDepth(), 30);
}

TEST(RayNative, RenderProducesHitsAndBackground)
{
    std::vector<Sphere> scene = makeScene(256, 11);
    Bvh bvh = buildBvh(scene);
    RenderResult img = renderNative(scene, bvh, makeCamera(), 16, 16);
    int bg = 0, lit = 0;
    for (std::uint32_t p : img.pixels) {
        if (p == ShadeParams{}.background)
            bg++;
        else
            lit++;
    }
    EXPECT_GT(lit, 0);
    EXPECT_GT(img.work, 0u);
    EXPECT_GT(img.boxTests, 0u);
}

TEST(RayPartition, FullSoftwareMatchesNativeImage)
{
    const int w = 12, h = 12, prims = 96;
    std::vector<Sphere> scene = makeScene(prims, 4242);
    Bvh bvh = buildBvh(scene);
    RenderResult native =
        renderNative(scene, bvh, makeCamera(), w, h);

    RunResult a = runWorkload("ray_A", {.side = w, .prims = prims});
    ASSERT_EQ(a.output.size(), native.pixels.size());
    for (size_t i = 0; i < native.pixels.size(); i++)
        ASSERT_EQ(a.output[i], native.pixels[i]) << "pixel " << i;
    EXPECT_EQ(a.messages, 0u);
    EXPECT_GT(a.fpgaCycles, 0u);
}

TEST(RayPartition, EveryPartitionRendersIdenticalImage)
{
    const WorkloadSize size{.side = 10, .prims = 64};
    RunResult ref = runWorkload("ray_A", size);
    for (const WorkloadPartition &p : rayWorkload().partitions) {
        if (p.name == "A")
            continue;
        RunResult r = runWorkload(rayWorkload(), p.domains, size);
        ASSERT_EQ(r.output.size(), ref.output.size());
        for (size_t i = 0; i < ref.output.size(); i++) {
            ASSERT_EQ(r.output[i], ref.output[i])
                << p.name << " pixel " << i;
        }
        EXPECT_GT(r.messages, 0u) << p.name;
        EXPECT_GT(r.hwRuleFires, 0u) << p.name;
    }
}

TEST(RayPartition, CommunicationVolumeOrdering)
{
    // B crosses per node test, D per leaf test, C once per ray:
    // message counts must order B > D > C.
    const WorkloadSize size{.side = 8, .prims = 64};
    RunResult rb = runWorkload("ray_B", size);
    RunResult rc = runWorkload("ray_C", size);
    RunResult rd = runWorkload("ray_D", size);
    EXPECT_GT(rb.messages, rd.messages);
    EXPECT_GT(rd.messages, rc.messages);
}

} // namespace
} // namespace ray
} // namespace bcl
