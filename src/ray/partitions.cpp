#include "ray/partitions.hpp"

#include <utility>

#include "workloads/workload.hpp"

namespace bcl {
namespace ray {

namespace {

RayConfig
configFor(const StageDomains &domains, int width, int height)
{
    RayConfig cfg;
    cfg.width = width;
    cfg.height = height;
    cfg.travDom = stageDomain(domains, "trav");
    cfg.boxDom = stageDomain(domains, "box");
    cfg.geomDom = stageDomain(domains, "geom");
    return cfg;
}

class RayWorkload final : public Workload
{
  public:
    RayWorkload()
    {
        name = "ray";
        defaultSeed = 4242;
        stages = {"trav", "box", "geom"};
        partitions = {
            {"A", "full SW", {}},
            {"B", "Box+Geom intersect in HW",
             {{"box", "HW"}, {"geom", "HW"}}},
            {"C", "BVH traversal engine + BRAM scene in HW",
             {{"trav", "HW"}, {"box", "HW"}, {"geom", "HW"}}},
            {"D", "Geom intersect in HW", {{"geom", "HW"}}},
            {"split", "C with each engine in its own HW domain",
             {{"trav", "HWT"}, {"box", "HWX"}, {"geom", "HWG"}}},
        };
        compiledSw = false;  // progress and output are registers
    }

    Program
    build(const StageDomains &domains, const WorkloadSize &size,
          std::uint64_t seed) const override
    {
        std::vector<Sphere> scene = makeScene(size.prims, seed);
        Bvh bvh = buildBvh(scene);
        return makeRayProgram(configFor(domains, size.side, size.side),
                              scene, bvh, makeCamera());
    }

    StreamSpec
    stream(const PartitionResult &parts, const WorkloadSize &size,
           std::uint64_t) const override
    {
        int done_cnt = parts.part("SW").prog.primByPath("doneCnt");
        StreamSpec spec;
        spec.progress = [done_cnt](CoSim &cs) {
            return std::as_const(cs.storeOf("SW")).at(done_cnt).val.asUInt();
        };
        spec.target = static_cast<std::uint64_t>(size.side) * size.side;
        return spec;
    }

    std::vector<std::uint32_t>
    output(CoSim &cs, const PartitionResult &parts) const override
    {
        int fb = parts.part("SW").prog.primByPath("fb");
        std::vector<std::uint32_t> pixels;
        for (const Value &px :
             std::as_const(cs.storeOf("SW")).at(fb).val.elems())
            pixels.push_back(static_cast<std::uint32_t>(px.asUInt()));
        return pixels;
    }
};

} // namespace

const Workload &
rayWorkload()
{
    static const RayWorkload w;
    return w;
}

RayConfig
rayPartitionConfig(RayPartition p, int width, int height)
{
    return configFor(
        rayWorkload().partitions[static_cast<size_t>(p)].domains, width,
        height);
}

} // namespace ray
} // namespace bcl
