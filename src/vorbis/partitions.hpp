/**
 * @file
 * The Vorbis back-end's partitions: the six HW/SW partitions
 * evaluated in Figure 12/13 of the paper, plus the per-stage split.
 *
 *   F - full software
 *   A - Window in HW, rest SW
 *   B - IFFT core (+ its tables) in HW, rest SW
 *   C - IFFT + Window in HW, IMDCT FSMs in SW
 *   D - IMDCT FSMs + IFFT in HW, Window in SW
 *   E - full hardware back-end (PCM emission still SW)
 *   split - IMDCT, IFFT and Window each in their own hardware domain
 *       (4 domains incl. SW — the parallel-scaling workload)
 *
 * Stages "imdct", "ifft" and "win" may take any domain; domain
 * polymorphism makes every assignment legal. Every partition must
 * produce bit-identical PCM; their execution times differ - that
 * ordering is Figure 13 (left).
 */
#ifndef BCL_VORBIS_PARTITIONS_HPP
#define BCL_VORBIS_PARTITIONS_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "platform/cosim.hpp"
#include "vorbis/backend_bcl.hpp"

namespace bcl {
namespace vorbis {

/** Partition labels (Figure 12), in the workload's partition order. */
enum class VorbisPartition { F, A, B, C, D, E };

/** Domain configuration realizing partition @p p. */
VorbisConfig partitionConfig(VorbisPartition p);

/** Domain configuration realizing the per-stage "split" partition. */
VorbisConfig splitVorbisConfig();

/**
 * Per-stream input state captured by the driver closure. One per
 * stream; the shared_ptr keeps it alive inside the SwDriver.
 */
struct VorbisStreamState
{
    std::vector<std::vector<Fix32>> inputs;
    size_t fed = 0;
};

/** Driver feeding @p state's frames through the `input` root method
 *  @p push_method — the driver of the workload's stream. */
SwDriver makeVorbisStreamDriver(
    std::shared_ptr<VorbisStreamState> state, int push_method);

/** Fresh per-stream input state (@p frames frames from @p seed; same
 *  seed => same PCM in every partition). */
std::shared_ptr<VorbisStreamState> makeVorbisStreamState(
    int frames, std::uint64_t seed);

/** Decoded PCM currently on @p audio_prim of @p cs ("SW" store). */
std::vector<std::int32_t> extractPcm(CoSim &cs, int audio_prim);

} // namespace vorbis
} // namespace bcl

#endif // BCL_VORBIS_PARTITIONS_HPP
