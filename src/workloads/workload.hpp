/**
 * @file
 * One interface every workload implements, the one harness that runs
 * any of them, and the registry that names them (§7: moving a module
 * across the HW/SW cut is one annotation). A new workload is one file
 * implementing Workload, declared below and listed in workload.cpp.
 * Its stream is a serve::StreamSpec, so a served stream and its solo
 * run share one driver and one progress counter.
 */
#ifndef BCL_WORKLOADS_WORKLOAD_HPP
#define BCL_WORKLOADS_WORKLOAD_HPP

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hpp"
#include "core/ast.hpp"
#include "platform/cosim.hpp"
#include "serve/session.hpp"

namespace bcl {

using serve::StreamSpec;

/** Stage name -> domain ("SW" or a hardware domain name). */
using StageDomains = std::map<std::string, std::string>;

/** Domain of @p stage under @p domains ("SW" when unlisted). */
inline std::string
stageDomain(const StageDomains &domains, const std::string &stage)
{
    auto it = domains.find(stage);
    return it == domains.end() ? "SW" : it->second;
}

/** A named partition: a Figure 12/14 letter, or "split". */
struct WorkloadPartition
{
    std::string name;
    std::string description;  ///< what runs in hardware
    StageDomains domains;
};

/** How large a run is; each workload reads its fields: Vorbis streams
 *  @c frames frames, ray renders @c side x @c side over @c prims spheres. */
struct WorkloadSize
{
    int frames = 4;
    int side = 32;
    int prims = 1024;
};

/** A workload: see file comment. */
class Workload
{
  public:
    Workload() = default;
    Workload(const Workload &) = delete;
    Workload &operator=(const Workload &) = delete;
    virtual ~Workload() = default;

    /** Registry prefix ("vorbis", "ray"). */
    std::string name;
    /** Seed used when a caller names none. */
    std::uint64_t defaultSeed = 0;
    /** The stages a StageDomains may move. */
    std::vector<std::string> stages;
    /** Named partitions, in reporting order. */
    std::vector<WorkloadPartition> partitions;
    /** Can the SW domain run compiled? Not when progress or output
     *  live in registers, which the compiled ABI never copies back. */
    bool compiledSw = true;

    /** The named partition @p partition (FatalError when absent). */
    const WorkloadPartition &
    partition(const std::string &partition) const
    {
        for (const WorkloadPartition &p : partitions)
            if (p.name == partition)
                return p;
        fatal("workload '" + name + "' has no partition '" + partition +
              "'");
    }

    /** The program realizing @p domains. @p seed picks data baked
     *  into the program (the ray scene), if any. */
    virtual Program build(const StageDomains &domains,
                          const WorkloadSize &size,
                          std::uint64_t seed) const = 0;

    /** The input stream over @p parts; @p seed picks its data. */
    virtual StreamSpec stream(const PartitionResult &parts,
                              const WorkloadSize &size,
                              std::uint64_t seed) const = 0;

    /** The output produced so far, as words (PCM samples, pixels). */
    virtual std::vector<std::uint32_t> output(
        CoSim &cs, const PartitionResult &parts) const = 0;
};

/** Result of one runWorkload(). */
struct RunResult
{
    std::uint64_t fpgaCycles = 0;        ///< end-to-end virtual time
    double runMs = 0;                    ///< host wall time of CoSim::run
    std::vector<std::uint32_t> output;   ///< Workload::output words
    int domains = 0;                     ///< partitions the run used
    std::uint64_t swWork = 0;            ///< software work units
    std::uint64_t swRulesFired = 0;      ///< software rule firings
    std::uint64_t swRulesAttempted = 0;  ///< incl. guard failures
    std::uint64_t swShadowCopies = 0;    ///< modeled state snapshots
    std::uint64_t hwRuleFires = 0;       ///< over every HW domain
    /** Each hardware domain's counters, in partition order. */
    std::vector<std::pair<std::string, HwStats>> hwStats;
    std::uint64_t messages = 0;          ///< cross-partition messages
    std::uint64_t channelWords = 0;      ///< payload words moved
    /** Per-channel traffic, by channel name in construction order —
     *  feed to snapshotChannelStats for stable metric names. */
    std::vector<std::pair<std::string, ChannelStats>> channelStats;
    /** Per-(from,to) link occupancy, with the link class the
     *  platform's topology section resolved for each pair. */
    std::vector<CoSim::LinkUsage> linkUsage;
};

/** Elaborate, infer domains and partition @p w's program for
 *  @p domains (a serving fleet's sessions share one result).
 *  @throws FatalError when @p domains names a stage @p w lacks. */
PartitionResult partitionWorkload(const Workload &w,
                                  const StageDomains &domains,
                                  const WorkloadSize &size,
                                  std::uint64_t seed);

/** Run @p w under @p domains end to end: partitionWorkload, a CoSim
 *  over @p cfg, the stream until its progress reaches the target,
 *  then statistics. The same seed gives the same output words under
 *  every partition, backend, thread count, transport and platform. */
RunResult runWorkload(const Workload &w, const StageDomains &domains,
                      const WorkloadSize &size,
                      const CosimConfig &cfg = {},
                      std::optional<std::uint64_t> seed = std::nullopt);

/** The registrations, each defined next to its BCL design: "vorbis"
 *  (driver pushes frames; raw Q8.24 PCM words out) and "ray" (runs on
 *  its own Ray Gen rules; "fb" pixels of the seed's scene out). */
namespace vorbis { const Workload &vorbisWorkload(); }

namespace ray { const Workload &rayWorkload(); }

/** One registry entry: a workload and one named partition. */
struct NamedWorkload
{
    std::string name;  ///< "<workload>_<partition>"
    const Workload *workload = nullptr;
    const WorkloadPartition *partition = nullptr;
};

/** Every entry: workloads in registration order, each one's
 *  partitions in reporting order. The only name -> assignment map. */
const std::vector<NamedWorkload> &allWorkloads();

/** Resolve @p name. @throws FatalError listing the registered names
 *  when @p name is not one of them. */
const NamedWorkload &findWorkload(const std::string &name);

/** runWorkload over the registered @p name. */
RunResult runWorkload(const std::string &name, const WorkloadSize &size,
                      const CosimConfig &cfg = {},
                      std::optional<std::uint64_t> seed = std::nullopt);

} // namespace bcl

#endif // BCL_WORKLOADS_WORKLOAD_HPP
