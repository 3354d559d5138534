/**
 * @file
 * The ray tracer's partitions: the four HW/SW decompositions
 * evaluated in Figure 13 (right) / Figure 14 of the paper, plus the
 * per-engine split.
 *
 *   A - full software
 *   B - Box Inter + Geom Inter in HW (every node test crosses the
 *       cut: communication swamps the accelerated arithmetic)
 *   C - BVH Trav + both intersection engines + BVH/Scene memories in
 *       HW (scene in block RAM; one crossing pair per ray - the
 *       fastest configuration in the paper)
 *   D - Geom Inter only in HW (crossings per leaf test - slower
 *       than full software)
 *   split - partition C with each engine in its own hardware domain
 *       (4 domains incl. SW — the parallel-scaling workload)
 *
 * Stages "trav", "box" and "geom" may take any domain. Pixels are
 * bit-identical across every assignment.
 */
#ifndef BCL_RAY_PARTITIONS_HPP
#define BCL_RAY_PARTITIONS_HPP

#include "ray/trace_bcl.hpp"

namespace bcl {
namespace ray {

/** Partition labels (Figure 14), in the workload's partition order. */
enum class RayPartition { A, B, C, D };

/** Domain configuration realizing partition @p p. */
RayConfig rayPartitionConfig(RayPartition p, int width = 32,
                             int height = 32);

} // namespace ray
} // namespace bcl

#endif // BCL_RAY_PARTITIONS_HPP
