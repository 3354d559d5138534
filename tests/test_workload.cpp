/**
 * @file
 * The Workload interface and its registry (workloads/workload.hpp):
 *
 *   - registry resolution: "<workload>_<partition>" names map to the
 *     workload and its stage -> domain assignment; an unknown name is
 *     one FatalError listing every registered name;
 *   - serving == solo: a serve::Session built from a workload's
 *     stream factory produces the output words and SW firings of
 *     runWorkload() for the same seed (both registrations);
 *   - the one-file contract: a two-domain workload defined entirely
 *     in this file runs through runWorkload() and through a Session
 *     with no edit anywhere else.
 */
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/logging.hpp"
#include "core/builder.hpp"
#include "serve/session.hpp"
#include "workloads/workload.hpp"

namespace bcl {
namespace {

TEST(WorkloadRegistry, ResolvesNamedPartitions)
{
    const NamedWorkload &b = findWorkload("vorbis_B");
    EXPECT_EQ(b.name, "vorbis_B");
    EXPECT_EQ(b.workload->name, "vorbis");
    EXPECT_EQ(b.partition->name, "B");
    EXPECT_EQ(b.partition->domains,
              (StageDomains{{"ifft", "HW"}}));

    const NamedWorkload &split = findWorkload("ray_split");
    EXPECT_EQ(split.workload->name, "ray");
    EXPECT_EQ(split.partition->domains,
              (StageDomains{{"trav", "HWT"}, {"box", "HWX"},
                            {"geom", "HWG"}}));

    // Every registered entry resolves to itself.
    for (const NamedWorkload &nw : allWorkloads())
        EXPECT_EQ(&findWorkload(nw.name), &nw) << nw.name;
}

TEST(WorkloadRegistry, UnknownNameListsRegisteredNames)
{
    int fatals = 0;
    try {
        findWorkload("vorbis_Z");
    } catch (const FatalError &e) {
        fatals++;
        const std::string msg = e.what();
        EXPECT_NE(msg.find("vorbis_Z"), std::string::npos) << msg;
        for (const NamedWorkload &nw : allWorkloads())
            EXPECT_NE(msg.find(nw.name), std::string::npos) << msg;
    }
    EXPECT_EQ(fatals, 1);
}

TEST(WorkloadRegistry, UnknownStageIsRejected)
{
    const Workload &w = *findWorkload("vorbis_F").workload;
    EXPECT_THROW(partitionWorkload(w, {{"imdtc", "HW"}}, {}, 1),
                 FatalError);
}

/** Serve one stream of @p nw to completion in a Session and check it
 *  against the solo runWorkload() of the same seed. */
void
expectServedMatchesSolo(const std::string &name, const WorkloadSize &size,
                        std::uint64_t seed)
{
    const NamedWorkload &nw = findWorkload(name);
    const Workload &w = *nw.workload;
    PartitionResult parts =
        partitionWorkload(w, nw.partition->domains, size, seed);
    serve::Session session(0, parts, CosimConfig{},
                           w.stream(parts, size, seed));
    while (session.advance()) {
    }
    RunResult solo = runWorkload(name, size, CosimConfig{}, seed);
    ASSERT_FALSE(solo.output.empty()) << name;
    EXPECT_EQ(w.output(session.cosim(), parts), solo.output) << name;
    EXPECT_EQ(session.cosim().swInterp().stats().rulesFired,
              solo.swRulesFired)
        << name;
}

TEST(Workload, ServedStreamMatchesSoloRun)
{
    expectServedMatchesSolo("vorbis_B", {.frames = 2}, 77);
    expectServedMatchesSolo("ray_C", {.side = 4, .prims = 16}, 78);
}

// ---------------------------------------------------------------------------
// The one-file contract: push(x) -> toAcc -> [compute: 2x+1] ->
// fromAcc -> out, with the "compute" stage in whatever domain the
// partition names.
// ---------------------------------------------------------------------------

class EchoWorkload final : public Workload
{
  public:
    EchoWorkload()
    {
        name = "echo";
        defaultSeed = 5;
        stages = {"compute"};
        partitions = {{"hw", "compute in HW", {{"compute", "HW"}}}};
    }

    Program
    build(const StageDomains &domains, const WorkloadSize &,
          std::uint64_t) const override
    {
        const TypePtr w32 = Type::bits(32);
        const std::string acc = stageDomain(domains, "compute");
        ModuleBuilder b("Top");
        b.addFifo("inQ", w32, 8);
        b.addSync("toAcc", w32, 4, "SW", acc);
        b.addSync("fromAcc", w32, 4, acc, "SW");
        b.addAudioDev("out", "SW");
        b.addActionMethod("push", {{"x", w32}},
                          callA("inQ", "enq", {varE("x")}), "SW");
        b.addRule("feed",
                  parA({callA("toAcc", "enq", {callV("inQ", "first")}),
                        callA("inQ", "deq")}));
        b.addRule(
            "compute",
            letA("x", callV("toAcc", "first"),
                 parA({callA("toAcc", "deq"),
                       callA("fromAcc", "enq",
                             {primE(PrimOp::Add,
                                    {primE(PrimOp::Mul,
                                           {varE("x"), intE(32, 2)}),
                                     intE(32, 1)})})})));
        b.addRule("drain", parA({callA("out", "output",
                                       {callV("fromAcc", "first")}),
                                 callA("fromAcc", "deq")}));
        return ProgramBuilder().add(b.build()).setRoot("Top").build();
    }

    StreamSpec
    stream(const PartitionResult &parts, const WorkloadSize &size,
           std::uint64_t seed) const override
    {
        const ElabProgram &sw = parts.part("SW").prog;
        const int push = sw.rootMethod("push");
        const int out = sw.primByPath("out");
        auto fed = std::make_shared<int>(0);
        const int n = size.frames;
        StreamSpec spec;
        spec.driver.step = [=](SwPort &port) -> std::uint64_t {
            if (*fed >= n ||
                !port.callActionMethod(
                    push, {Value::makeInt(
                              32, static_cast<std::int64_t>(seed) +
                                      *fed)}))
                return 0;
            (*fed)++;
            return 1;
        };
        spec.driver.done = [=] { return *fed >= n; };
        spec.progress = [out](CoSim &cs) {
            return static_cast<std::uint64_t>(
                cs.storeOf("SW").at(out).queue.size());
        };
        spec.target = static_cast<std::uint64_t>(n);
        return spec;
    }

    std::vector<std::uint32_t>
    output(CoSim &cs, const PartitionResult &parts) const override
    {
        std::vector<std::uint32_t> words;
        for (const Value &v :
             cs.storeOf("SW").at(parts.part("SW").prog.primByPath("out"))
                 .queue)
            words.push_back(static_cast<std::uint32_t>(v.asUInt()));
        return words;
    }
};

TEST(Workload, WorkloadDefinedInOneFileRunsSoloAndServed)
{
    const EchoWorkload echo;
    const StageDomains &hw = echo.partition("hw").domains;
    const WorkloadSize size{.frames = 6};

    RunResult solo = runWorkload(echo, hw, size);
    std::vector<std::uint32_t> want;
    for (int i = 0; i < size.frames; i++)
        want.push_back(static_cast<std::uint32_t>(2 * (5 + i) + 1));
    EXPECT_EQ(solo.output, want);
    EXPECT_EQ(solo.domains, 2);
    EXPECT_EQ(solo.messages, static_cast<std::uint64_t>(2 * size.frames));
    EXPECT_EQ(solo.hwRuleFires, static_cast<std::uint64_t>(size.frames));

    PartitionResult parts =
        partitionWorkload(echo, hw, size, echo.defaultSeed);
    serve::Session session(0, parts, CosimConfig{},
                           echo.stream(parts, size, echo.defaultSeed));
    while (session.advance()) {
    }
    EXPECT_EQ(echo.output(session.cosim(), parts), want);
    EXPECT_EQ(session.cosim().swInterp().stats().rulesFired,
              solo.swRulesFired);
}

} // namespace
} // namespace bcl
