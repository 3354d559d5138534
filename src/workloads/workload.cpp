#include "workloads/workload.hpp"

#include <algorithm>
#include <chrono>

#include "common/strutil.hpp"
#include "core/domains.hpp"
#include "core/elaborate.hpp"
#include "core/partition.hpp"

namespace bcl {

PartitionResult
partitionWorkload(const Workload &w, const StageDomains &domains,
                  const WorkloadSize &size, std::uint64_t seed)
{
    for (const auto &[stage, dom] : domains) {
        if (std::find(w.stages.begin(), w.stages.end(), stage) ==
            w.stages.end())
            fatal("workload '" + w.name + "' has no stage '" + stage +
                  "' (stages: " + join(w.stages, ", ") + ")");
    }
    ElabProgram elab = elaborate(w.build(domains, size, seed));
    DomainAssignment doms = inferDomains(elab);
    return partitionProgram(elab, doms);
}

RunResult
runWorkload(const Workload &w, const StageDomains &domains,
            const WorkloadSize &size, const CosimConfig &cfg,
            std::optional<std::uint64_t> seed)
{
    const std::uint64_t s = seed.value_or(w.defaultSeed);
    PartitionResult parts = partitionWorkload(w, domains, size, s);
    CoSim cosim(parts, cfg);
    StreamSpec spec = w.stream(parts, size, s);
    if (spec.driver.step)
        cosim.setDriver(spec.swDomain, spec.driver);

    RunResult res;
    auto t0 = std::chrono::steady_clock::now();
    res.fpgaCycles = cosim.run([&](CoSim &cs) {
        return spec.progress(cs) >= spec.target;
    });
    res.runMs = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    res.output = w.output(cosim, parts);
    res.domains = static_cast<int>(parts.parts.size());
    const ExecStats &sw = cosim.swInterp(spec.swDomain).stats();
    res.swWork = sw.work;
    res.swRulesFired = sw.rulesFired;
    res.swRulesAttempted = sw.rulesAttempted;
    res.swShadowCopies = sw.shadowCopies;
    if (const CompiledPartition *cp = cosim.swCompiled(spec.swDomain)) {
        // Compiled backend: firings counted inside the shared object;
        // work is not modeled there.
        res.swRulesFired = cp->rulesFired();
        res.swRulesAttempted = cp->rulesAttempted();
    }
    // Every hardware domain of the partitioning (null for software).
    for (const PartitionPart &part : parts.parts) {
        if (const HwStats *hw = cosim.hwStats(part.domain)) {
            res.hwRuleFires += hw->rulesFired;
            res.hwStats.emplace_back(part.domain, *hw);
        }
    }
    for (const auto &chan : cosim.channels()) {
        res.messages += chan->stats().messages;
        res.channelWords += chan->stats().payloadWords;
        res.channelStats.emplace_back(chan->spec().name,
                                      chan->stats());
    }
    res.linkUsage = cosim.linkUsage();
    return res;
}

const std::vector<NamedWorkload> &
allWorkloads()
{
    static const std::vector<NamedWorkload> all = [] {
        std::vector<NamedWorkload> out;
        for (const Workload *w :
             {&vorbis::vorbisWorkload(), &ray::rayWorkload()}) {
            for (const WorkloadPartition &p : w->partitions)
                out.push_back({w->name + "_" + p.name, w, &p});
        }
        return out;
    }();
    return all;
}

const NamedWorkload &
findWorkload(const std::string &name)
{
    std::vector<std::string> names;
    for (const NamedWorkload &nw : allWorkloads()) {
        if (nw.name == name)
            return nw;
        names.push_back(nw.name);
    }
    fatal("unknown workload '" + name + "' (registered: " +
          join(names, ", ") + ")");
}

RunResult
runWorkload(const std::string &name, const WorkloadSize &size,
            const CosimConfig &cfg, std::optional<std::uint64_t> seed)
{
    const NamedWorkload &nw = findWorkload(name);
    return runWorkload(*nw.workload, nw.partition->domains, size, cfg,
                       seed);
}

} // namespace bcl
