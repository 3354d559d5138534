/**
 * @file
 * Differential tests of the compiled-execution backend (runtime/
 * gencc.hpp): the same software partition run (a) under the reference
 * interpreter and (b) as generated C++ compiled to a shared object
 * must produce bit-identical outputs and identical rule-firing
 * counts, for every CppGenMode. This is the §6 trust anchor — the
 * generated code is *executed and checked*, not just syntax-checked.
 *
 * Every test auto-skips with a clear message when no host C++
 * compiler is available on the machine.
 */
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hpp"
#include "core/builder.hpp"
#include "core/codegen_cpp.hpp"
#include "core/domains.hpp"
#include "core/elaborate.hpp"
#include "core/parser.hpp"
#include "core/partition.hpp"
#include "core/typecheck.hpp"
#include "obs/metrics.hpp"
#include "platform/cosim.hpp"
#include "runtime/exec.hpp"
#include "runtime/gencc.hpp"
#include "serve/compile_cache.hpp"
#include "vorbis/backend_bcl.hpp"
#include "vorbis/partitions.hpp"
#include "workloads/workload.hpp"

namespace bcl {
namespace {

#define REQUIRE_HOST_COMPILER()                                       \
    do {                                                              \
        if (!CompiledPartition::hostCompilerAvailable())              \
            GTEST_SKIP() << "no host C++ compiler on this machine — " \
                            "compiled-execution tests skipped";       \
    } while (0)

class CodegenExec : public ::testing::TestWithParam<CppGenMode>
{
  protected:
    GenccOptions
    options() const
    {
        GenccOptions opts;
        opts.mode = GetParam();
        return opts;
    }
};

/** The shipped counter.bcl, partitioned; returns the SW part. */
PartitionResult
counterParts()
{
    std::ifstream in(std::string(BCL_SRC_DIR) +
                     "/../examples/counter.bcl");
    EXPECT_TRUE(in.good());
    std::string src((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    Program p = parseProgram(src);
    ElabProgram elab = elaborate(p);
    typecheck(elab);
    DomainAssignment doms = inferDomains(elab);
    return partitionProgram(elab, doms);
}

/**
 * Counter SW partition: the producer rule fills the SyncTx half to
 * capacity, quiesces, and resumes as the harness drains — several
 * rounds of run/drain must yield the same message stream and firing
 * count as the interpreter doing the same dance.
 */
TEST_P(CodegenExec, CounterSwPartitionMatchesInterpreter)
{
    REQUIRE_HOST_COMPILER();
    PartitionResult parts = counterParts();
    const ElabProgram &sw = parts.part("SW").prog;
    int tx = sw.primByPath("toHw");

    Store store(sw);
    Interp interp(sw, store);
    RuleEngine engine(interp, SwStrategy::StaticOrder);
    std::vector<Value> expect;
    for (int round = 0; round < 6; round++) {
        engine.runToQuiescence();
        for (auto &v : store.at(tx).queue)
            expect.push_back(v);
        store.at(tx).queue.clear();
        engine.poke();
    }

    CompiledPartition compiled(sw, options());
    std::vector<Value> got;
    for (int round = 0; round < 6; round++) {
        compiled.runToQuiescence();
        Value v;
        while (compiled.popPrim(tx, v))
            got.push_back(v);
    }

    EXPECT_EQ(compiled.rulesFired(), interp.stats().rulesFired);
    ASSERT_EQ(got.size(), expect.size());
    for (size_t i = 0; i < got.size(); i++)
        EXPECT_EQ(got[i], expect[i]) << "message " << i;
}

/** Root-interface methods share the interpreter's all-or-nothing
 *  transaction contract (here: reset while the FIFO is full). */
TEST_P(CodegenExec, CounterResetMethodIsTransactional)
{
    REQUIRE_HOST_COMPILER();
    PartitionResult parts = counterParts();
    const ElabProgram &sw = parts.part("SW").prog;
    int tx = sw.primByPath("toHw");
    int reset = sw.rootMethod("reset");

    CompiledPartition compiled(sw, options());
    compiled.runToQuiescence();  // fill the synchronizer

    // reset(100): count := 100 commits independent of FIFO state.
    EXPECT_TRUE(compiled.callActionMethod(
        reset, {Value::makeInt(32, 100)}));
    Value v;
    while (compiled.popPrim(tx, v)) {
    }
    compiled.runToQuiescence();
    ASSERT_TRUE(compiled.popPrim(tx, v));
    // produce enqueues {left = count, right = count ^ 99} then bumps;
    // after reset the next message carries left == 100.
    EXPECT_EQ(v.field("left").asInt(), 100);
}

/**
 * The rollback half of the method contract: a root method that
 * writes a register and THEN hits a failing guard (sequential
 * composition, so the write has already executed) must undo the
 * write and report failure — in every strategy, matching
 * Interp::callActionMethod bit for bit.
 */
TEST_P(CodegenExec, MethodGuardFailureRollsBackPartialWrites)
{
    REQUIRE_HOST_COMPILER();
    ModuleBuilder b("Top");
    b.addReg("last", Type::bits(32));
    b.addFifo("f", Type::bits(32), 1);
    // push(x) = (last := x ; f.enq(x)): with f full, the enq guard
    // fails after last was written inside the transaction.
    b.addActionMethod("push", {{"x", Type::bits(32)}},
                      seqA({regWrite("last", varE("x")),
                            callA("f", "enq", {varE("x")})}),
                      "SW");
    // emit() = f.enq(last): makes the register's committed value
    // observable through the ABI message stream.
    b.addActionMethod("emit", {},
                      callA("f", "enq", {regRead("last")}), "SW");
    Program p = ProgramBuilder().add(b.build()).setRoot("Top").build();
    ElabProgram elab = elaborate(p);
    typecheck(elab);
    int push = elab.rootMethod("push");
    int emit = elab.rootMethod("emit");
    int last = elab.primByPath("last");
    int fifo = elab.primByPath("f");

    // Interpreter reference for the exact same call sequence.
    Store store(elab);
    Interp interp(elab, store);
    ASSERT_TRUE(
        interp.callActionMethod(push, {Value::makeInt(32, 11)}));
    ASSERT_FALSE(
        interp.callActionMethod(push, {Value::makeInt(32, 22)}));
    ASSERT_EQ(store.at(last).val.asInt(), 11);

    CompiledPartition compiled(elab, options());
    EXPECT_TRUE(
        compiled.callActionMethod(push, {Value::makeInt(32, 11)}));
    // FIFO now full: the second call fails after its register write
    // already ran — the write must be rolled back.
    EXPECT_FALSE(
        compiled.callActionMethod(push, {Value::makeInt(32, 22)}));
    Value v;
    ASSERT_TRUE(compiled.popPrim(fifo, v));
    EXPECT_EQ(v.asInt(), 11);
    ASSERT_FALSE(compiled.popPrim(fifo, v));  // 22 never enqueued
    // emit() publishes the committed register: 11, not the rolled-
    // back 22 — the direct observation of the rollback.
    EXPECT_TRUE(compiled.callActionMethod(emit, {}));
    ASSERT_TRUE(compiled.popPrim(fifo, v));
    EXPECT_EQ(v.asInt(), 11);
}

/**
 * Rules that deq and enq the SAME fifo, on a capacity-3 and a
 * capacity-1 fifo: the enq lands in the slot the deq just freed, so
 * the generated fifo's ring wraps on every rotation. `rot3` checks its
 * guard only after the deq/enq ran, so a failed attempt rolls a
 * wrapped ring back from its shadow. Values climb by 100 through the
 * capacity-3 ring, move to the capacity-1 ring, climb by 1000 and
 * leave through `done`. Each value leaving also tags a Bool fifo of
 * capacity 2, which `flag` drains inverted into `flags`, so generated
 * code runs gen::Fifo<bool> in rules and in the ABI pop. Outputs and
 * firing counts must match the interpreter under every strategy.
 */
ElabProgram
sameFifoProgram()
{
    TypePtr t = Type::bits(32);
    ModuleBuilder b("Top");
    b.addReg("n", t);
    b.addFifo("three", t, 3);
    b.addFifo("one", t, 1);
    b.addFifo("done", t, 16);
    b.addFifo("bits", Type::boolean(), 2);
    b.addFifo("flags", Type::boolean(), 16);
    auto lt = [](const char *v, int k) {
        return primE(PrimOp::Lt, {varE(v), intE(32, k)});
    };
    auto plus = [](const char *v, int k) {
        return primE(PrimOp::Add, {varE(v), intE(32, k)});
    };
    b.addRule("fill",
              whenA(parA({callA("three", "enq", {regRead("n")}),
                          regWrite("n", primE(PrimOp::Add,
                                              {regRead("n"),
                                               intE(32, 1)}))}),
                    primE(PrimOp::Lt, {regRead("n"), intE(32, 10)})));
    b.addRule("rot3",
              letA("x", callV("three", "first"),
                   seqA({callA("three", "deq"),
                         callA("three", "enq", {plus("x", 100)}),
                         whenA(noOpA(), lt("x", 300))})));
    b.addRule("move",
              letA("x", callV("three", "first"),
                   whenA(parA({callA("three", "deq"),
                               callA("one", "enq", {varE("x")})}),
                         primE(PrimOp::Ge, {varE("x"),
                                            intE(32, 300)}))));
    b.addRule("rot1",
              letA("x", callV("one", "first"),
                   whenA(seqA({callA("one", "deq"),
                               callA("one", "enq", {plus("x", 1000)})}),
                         lt("x", 3000))));
    b.addRule("drain",
              letA("x", callV("one", "first"),
                   whenA(parA({callA("one", "deq"),
                               callA("done", "enq", {varE("x")}),
                               callA("bits", "enq", {lt("x", 3305)})}),
                         primE(PrimOp::Ge, {varE("x"),
                                            intE(32, 3000)}))));
    b.addRule("flag",
              letA("f", callV("bits", "first"),
                   parA({callA("bits", "deq"),
                         callA("flags", "enq",
                               {primE(PrimOp::Not, {varE("f")})})})));
    ElabProgram elab = elaborate(
        ProgramBuilder().add(b.build()).setRoot("Top").build());
    typecheck(elab);
    return elab;
}

TEST_P(CodegenExec, SameFifoDeqEnqRingsMatchInterpreter)
{
    REQUIRE_HOST_COMPILER();
    ElabProgram prog = sameFifoProgram();
    Store store(prog);
    Interp interp(prog, store);
    RuleEngine engine(interp, SwStrategy::StaticOrder);
    engine.runToQuiescence();
    EXPECT_GT(interp.stats().guardFails, 0u);

    CompiledPartition compiled(prog, options());
    compiled.runToQuiescence();
    EXPECT_EQ(compiled.rulesFired(), interp.stats().rulesFired);

    for (const char *out : {"done", "flags"}) {
        SCOPED_TRACE(out);
        int id = prog.primByPath(out);
        std::vector<Value> expect(store.at(id).queue.begin(),
                                  store.at(id).queue.end());
        ASSERT_EQ(expect.size(), 10u);
        std::vector<Value> got;
        Value v;
        while (compiled.popPrim(id, v))
            got.push_back(v);
        ASSERT_EQ(got.size(), expect.size());
        for (size_t i = 0; i < got.size(); i++)
            EXPECT_EQ(got[i], expect[i]) << "message " << i;
    }
}

/**
 * The full-software Vorbis partition: frames pushed through the
 * generated `input` method, PCM drained from the generated AudioDev,
 * everything bit-identical to the interpreter — including the rule
 * firing count (the pipeline is a deterministic dataflow, so the
 * count is schedule-independent).
 */
TEST_P(CodegenExec, FullSwVorbisBitExactVsInterpreter)
{
    REQUIRE_HOST_COMPILER();
    using namespace vorbis;
    const int frames = 6;
    Program prog =
        makeVorbisProgram(partitionConfig(VorbisPartition::F));
    ElabProgram elab = elaborate(prog);
    typecheck(elab);
    DomainAssignment doms = inferDomains(elab);
    PartitionResult parts = partitionProgram(elab, doms);
    const ElabProgram &sw = parts.part("SW").prog;
    int push = sw.rootMethod("input");
    int audio = sw.primByPath("audio");
    auto inputs = makeFrames(frames);
    auto frameValue = [&](size_t i) {
        std::vector<Value> elems;
        for (Fix32 s : inputs[i])
            elems.push_back(fixValue(s));
        return Value::makeVec(std::move(elems));
    };

    // Interpreter reference.
    Store store(sw);
    Interp interp(sw, store);
    RuleEngine engine(interp, SwStrategy::StaticOrder);
    std::vector<std::int32_t> expect_pcm;
    {
        size_t fed = 0;
        while (true) {
            engine.runToQuiescence();
            if (fed < inputs.size() &&
                interp.callActionMethod(push, {frameValue(fed)})) {
                fed++;
                engine.poke();
                continue;
            }
            if (fed >= inputs.size() && engine.quiescent())
                break;
        }
        for (const auto &v : store.at(audio).queue) {
            for (const auto &s : v.elems())
                expect_pcm.push_back(
                    static_cast<std::int32_t>(s.asInt()));
        }
    }

    CompiledPartition compiled(sw, options());
    std::vector<std::int32_t> pcm;
    {
        size_t fed = 0;
        while (true) {
            compiled.runToQuiescence();
            if (fed < inputs.size() &&
                compiled.callActionMethod(push, {frameValue(fed)})) {
                fed++;
                continue;
            }
            if (fed >= inputs.size()) {
                compiled.runToQuiescence();
                break;
            }
        }
        Value v;
        while (compiled.popDevice(audio, v)) {
            for (const auto &s : v.elems())
                pcm.push_back(static_cast<std::int32_t>(s.asInt()));
        }
    }

    EXPECT_EQ(compiled.rulesFired(), interp.stats().rulesFired);
    ASSERT_EQ(pcm.size(), expect_pcm.size());
    EXPECT_EQ(pcm, expect_pcm);
}

/**
 * The CoSim config switch on a finite SW->HW->SW echo workload: the
 * SW domain runs compiled (rules AND the driver-fed push method
 * through its SwPort), the HW domain clock-simulated, with real
 * channel transports between them — outputs and firing counts must
 * match the interpreted run exactly.
 */
TEST_P(CodegenExec, CosimBackendSwitchIsFunctionallyInvisible)
{
    REQUIRE_HOST_COMPILER();
    std::vector<std::int64_t> inputs;
    for (int i = 0; i < 40; i++)
        inputs.push_back(i * 5 - 60);

    auto run = [&](SwBackend backend) {
        ModuleBuilder b("Top");
        b.addFifo("inQ", Type::bits(32), 8);
        b.addSync("toHw", Type::bits(32), 4, "SW", "HW");
        b.addSync("fromHw", Type::bits(32), 4, "HW", "SW");
        b.addAudioDev("out", "SW");
        b.addActionMethod("push", {{"x", Type::bits(32)}},
                          callA("inQ", "enq", {varE("x")}), "SW");
        b.addRule("feed",
                  parA({callA("toHw", "enq", {callV("inQ", "first")}),
                        callA("inQ", "deq")}));
        b.addRule("compute",
                  letA("x", callV("toHw", "first"),
                       parA({callA("toHw", "deq"),
                             callA("fromHw", "enq",
                                   {primE(PrimOp::Add,
                                          {primE(PrimOp::Mul,
                                                 {varE("x"),
                                                  intE(32, 3)}),
                                           intE(32, 7)})})})));
        b.addRule("drain",
                  parA({callA("out", "output",
                              {callV("fromHw", "first")}),
                        callA("fromHw", "deq")}));
        Program p =
            ProgramBuilder().add(b.build()).setRoot("Top").build();
        ElabProgram elab = elaborate(p);
        typecheck(elab);
        DomainAssignment doms = inferDomains(elab);
        PartitionResult parts = partitionProgram(elab, doms);

        CosimConfig cfg;
        cfg.swBackend = backend;
        cfg.swGenMode = GetParam();
        CoSim cosim(parts, cfg);
        const PartitionPart &sw = parts.part("SW");
        int push = sw.prog.rootMethod("push");
        int out = sw.prog.primByPath("out");
        size_t fed = 0;
        SwDriver driver;
        driver.step = [&](SwPort &port) -> std::uint64_t {
            if (fed >= inputs.size())
                return 0;
            std::uint64_t before = port.work();
            if (port.callActionMethod(
                    push, {Value::makeInt(32, inputs[fed])})) {
                fed++;
                return port.work() - before + 1;
            }
            return 0;
        };
        driver.done = [&] { return fed >= inputs.size(); };
        cosim.setDriver("SW", driver);
        cosim.run([&](CoSim &cs) {
            return cs.storeOf("SW").at(out).queue.size() ==
                   inputs.size();
        });

        std::vector<std::int64_t> got;
        for (const auto &v : cosim.storeOf("SW").at(out).queue)
            got.push_back(v.asInt());
        std::uint64_t fires =
            cosim.swCompiled("SW")
                ? cosim.swCompiled("SW")->rulesFired()
                : cosim.swInterp().stats().rulesFired;
        return std::make_pair(got, fires);
    };

    auto interp = run(SwBackend::Interpreted);
    auto compiled = run(SwBackend::Compiled);
    ASSERT_EQ(interp.first.size(), inputs.size());
    for (size_t i = 0; i < inputs.size(); i++)
        EXPECT_EQ(interp.first[i], inputs[i] * 3 + 7);
    EXPECT_EQ(compiled.first, interp.first);
    EXPECT_EQ(compiled.second, interp.second);
}

/** Vorbis partition D (IMDCT+IFFT in HW, window in SW) under the
 *  compiled backend: mixed-domain cosim stays bit-exact. */
/**
 * Thread confinement: the first mutating ABI call binds the owning
 * thread, a second thread panics until rebindThread() moves
 * ownership at a synchronization point (the contract the serving pool
 * relies on when a session migrates between workers).
 */
TEST(CodegenExecConfinement, SecondThreadPanicsUntilRebound)
{
    REQUIRE_HOST_COMPILER();
    PartitionResult parts = counterParts();
    CompiledPartition cp(parts.part("SW").prog, GenccOptions{});

    // Bind to this thread.
    cp.runToQuiescence();

    // Mutating calls from another thread must panic. The counter
    // read below does not bind ownership, and is safe here only
    // because the owner is quiesced (this thread blocks in join):
    // stat counters are plain memory in the shared object.
    bool panicked = false;
    std::uint64_t fired = 0;
    std::thread intruder([&] {
        fired = cp.rulesFired();
        try {
            cp.runToQuiescence();
        } catch (const PanicError &) {
            panicked = true;
        }
    });
    intruder.join();
    EXPECT_TRUE(panicked);
    EXPECT_GT(fired, 0u);

    // After an explicit rebind (join above is the sync point), a new
    // thread may take ownership...
    cp.rebindThread();
    bool ok = false;
    std::thread heir([&] {
        cp.runToQuiescence();
        ok = true;
    });
    heir.join();
    EXPECT_TRUE(ok);

    // ...and the original thread is now the intruder.
    cp.rebindThread();
    cp.runToQuiescence();
}

/** runToQuiescence/drain rounds against the counter SW partition's
 *  SyncTx half; returns the message stream and the firing count. */
std::pair<std::vector<Value>, std::uint64_t>
drainRounds(CompiledPartition &cp, int tx, int rounds)
{
    std::vector<Value> got;
    for (int r = 0; r < rounds; r++) {
        cp.runToQuiescence();
        Value v;
        while (cp.popPrim(tx, v))
            got.push_back(v);
    }
    return {got, cp.rulesFired()};
}

/**
 * The share-the-artifact / isolate-the-instance split: two
 * CompiledPartition instances over ONE cached shared object, driven
 * from two threads at the same time, must each produce the complete
 * solo message stream — per-instance state lives in bcl_gen_create's
 * object, and nothing in the .so (or the dlopen handle both
 * instances share) is mutable per-run.
 */
TEST(CodegenExecSharedArtifact, TwoInstancesOnTwoThreadsDontInterfere)
{
    REQUIRE_HOST_COMPILER();
    PartitionResult parts = counterParts();
    const ElabProgram &sw = parts.part("SW").prog;
    int tx = sw.primByPath("toHw");

    serve::CompileCache cache;
    auto artifact = cache.get(sw);
    ASSERT_EQ(cache.stats().compiles, 1u);

    // Solo reference from a third instance of the same artifact.
    CompiledPartition solo(artifact);
    auto expect = drainRounds(solo, tx, 6);
    ASSERT_FALSE(expect.first.empty());

    CompiledPartition a(artifact);
    CompiledPartition b(artifact);
    std::pair<std::vector<Value>, std::uint64_t> ra, rb;
    std::thread ta([&] { ra = drainRounds(a, tx, 6); });
    std::thread tb([&] { rb = drainRounds(b, tx, 6); });
    ta.join();
    tb.join();

    EXPECT_EQ(ra.first, expect.first);
    EXPECT_EQ(ra.second, expect.second);
    EXPECT_EQ(rb.first, expect.first);
    EXPECT_EQ(rb.second, expect.second);
    EXPECT_EQ(cache.stats().compiles, 1u);
}

/** Confinement survives the artifact refactor: an instance from a
 *  shared artifact still binds its first mutating caller and panics
 *  on wrong-thread mutation. */
TEST(CodegenExecSharedArtifact, WrongThreadMutationStillPanics)
{
    REQUIRE_HOST_COMPILER();
    PartitionResult parts = counterParts();
    const ElabProgram &sw = parts.part("SW").prog;
    auto artifact =
        std::make_shared<const CompiledArtifact>(sw, GenccOptions{});

    CompiledPartition cp(artifact);
    cp.runToQuiescence();  // bind to this thread

    bool panicked = false;
    std::thread intruder([&] {
        try {
            cp.runToQuiescence();
        } catch (const PanicError &) {
            panicked = true;
        }
    });
    intruder.join();
    EXPECT_TRUE(panicked);

    // A sibling instance of the same artifact is unaffected by the
    // first instance's binding: it binds ITS first caller.
    bool sibling_ok = false;
    CompiledPartition sibling(artifact);
    std::thread other([&] {
        sibling.runToQuiescence();
        sibling_ok = true;
    });
    other.join();
    EXPECT_TRUE(sibling_ok);
}

/**
 * rebindThread() migrates an instance between threads mid-run (the
 * serving pool does this on every frame quantum): half the rounds on
 * one thread, rebind at the join synchronization point, the rest on
 * another — the concatenated stream and final firing count must be
 * identical to an uninterrupted single-threaded run.
 */
TEST(CodegenExecSharedArtifact, RebindThreadMigratesMidRun)
{
    REQUIRE_HOST_COMPILER();
    PartitionResult parts = counterParts();
    const ElabProgram &sw = parts.part("SW").prog;
    int tx = sw.primByPath("toHw");
    auto artifact =
        std::make_shared<const CompiledArtifact>(sw, GenccOptions{});

    CompiledPartition solo(artifact);
    auto expect = drainRounds(solo, tx, 6);

    CompiledPartition cp(artifact);
    std::pair<std::vector<Value>, std::uint64_t> first, second;
    std::thread early([&] { first = drainRounds(cp, tx, 3); });
    early.join();
    cp.rebindThread();  // join above is the required sync point
    std::thread late([&] { second = drainRounds(cp, tx, 3); });
    late.join();

    std::vector<Value> all = first.first;
    all.insert(all.end(), second.first.begin(), second.first.end());
    EXPECT_EQ(all, expect.first);
    EXPECT_EQ(second.second, expect.second)
        << "cumulative firing count after migration";
}

TEST(CodegenExecCosim, VorbisPartitionDCompiledMatchesInterpreted)
{
    REQUIRE_HOST_COMPILER();
    const WorkloadSize size{.frames = 4};
    CosimConfig icfg;
    RunResult ir = runWorkload("vorbis_D", size, icfg);
    CosimConfig ccfg;
    ccfg.swBackend = SwBackend::Compiled;
    RunResult cr = runWorkload("vorbis_D", size, ccfg);
    EXPECT_EQ(cr.output, ir.output);
    EXPECT_EQ(cr.swRulesFired, ir.swRulesFired);
    EXPECT_EQ(cr.messages, ir.messages);
}

/** The full-software Vorbis back end's SW partition: the largest
 *  generated program in the tree. */
ElabProgram
fullSwVorbis()
{
    using namespace vorbis;
    Program prog =
        makeVorbisProgram(partitionConfig(VorbisPartition::F));
    ElabProgram elab = elaborate(prog);
    typecheck(elab);
    return partitionProgram(elab, inferDomains(elab)).part("SW").prog;
}

/** Euclid's GCD in one domain: a small program. */
ElabProgram
gcdProgram()
{
    TypePtr t = Type::bits(32);
    ModuleBuilder b("Gcd");
    b.addReg("x", t);
    b.addReg("y", t);
    ExprPtr x = regRead("x"), y = regRead("y");
    b.addRule("swap", whenA(parA({regWrite("x", y), regWrite("y", x)}),
                            primE(PrimOp::Lt, {x, y})));
    b.addRule("sub",
              whenA(regWrite("x", primE(PrimOp::Sub, {x, y})),
                    primE(PrimOp::And,
                          {primE(PrimOp::Ge, {x, y}),
                           primE(PrimOp::Ne, {y, intE(32, 0)})})));
    ElabProgram elab = elaborate(
        ProgramBuilder().add(b.build()).setRoot("Gcd").build());
    typecheck(elab);
    return elab;
}

/**
 * The unit split (core/codegen_cpp.hpp): a pure function of the
 * program, one unit under the size target, and on a large program
 * several units that each compile on their own.
 */
TEST(CodegenUnits, SplitIsDeterministicAndUnitsStandAlone)
{
    ElabProgram gcd = gcdProgram();
    std::vector<CppUnit> small = generateCpp(gcd, "BclGenPartition");
    ASSERT_EQ(small.size(), 1u);
    EXPECT_EQ(small[0].name, "partition");

    ElabProgram vorbis = fullSwVorbis();
    std::vector<CppUnit> a = generateCpp(vorbis, "BclGenPartition");
    std::vector<CppUnit> b = generateCpp(vorbis, "BclGenPartition");
    ASSERT_GE(a.size(), 3u);
    EXPECT_EQ(a.size(), 1 + kCppRuleUnits);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); i++) {
        EXPECT_EQ(a[i].name, b[i].name);
        EXPECT_TRUE(a[i].text == b[i].text)
            << "unit " << a[i].name << " differs between two calls";
    }

    if (!CompiledPartition::hostCompilerAvailable())
        GTEST_SKIP() << "no host C++ compiler — syntax checks skipped";
    const std::string dir = ::testing::TempDir();
    for (const CppUnit &u : a) {
        const std::string file = dir + "/bcl_unit_" + u.name + ".cpp";
        const std::string err = file + ".err";
        {
            std::ofstream out(file);
            out << u.text;
        }
        const std::string cmd = "c++ -std=c++20 -fsyntax-only -I\"" +
                                std::string(BCL_SRC_DIR) + "\" \"" +
                                file + "\" 2> \"" + err + "\"";
        EXPECT_EQ(std::system(cmd.c_str()), 0)
            << "unit " << u.name << " does not compile on its own";
        std::remove(file.c_str());
        std::remove(err.c_str());
    }
}

/**
 * A unit that fails to compile ends the build with one error naming
 * that unit and carrying its log and command, after every child is
 * reaped, and leaves nothing behind in a shared scratch directory.
 */
TEST(CodegenUnits, FailedUnitIsNamedReapedAndCleanedUp)
{
    REQUIRE_HOST_COMPILER();
    ElabProgram prog = fullSwVorbis();
    const std::string dir = ::testing::TempDir() + "/bcl_unit_fail_" +
                            std::to_string(::getpid());
    std::filesystem::create_directories(dir);
    GenccOptions opts;
    opts.workDir = dir;
    // Breaks only the ABI unit's source; -O0 keeps the rule units,
    // still compiling when the ABI unit fails, quick.
    opts.extraFlags = "-O0 -Dbcl_gen_abi_version=1";

    std::string msg;
    try {
        CompiledArtifact art(prog, opts);
        ADD_FAILURE() << "the broken unit compiled";
    } catch (const FatalError &e) {
        msg = e.what();
    }
    EXPECT_NE(msg.find("unit 'abi' failed"), std::string::npos) << msg;
    EXPECT_NE(msg.find("error"), std::string::npos)
        << "the unit's compiler log: " << msg;
    EXPECT_NE(msg.find("(command: "), std::string::npos) << msg;
    EXPECT_NE(msg.find(".abi.cpp"), std::string::npos) << msg;

    errno = 0;
    EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1)
        << "a compile child was left unreaped";
    EXPECT_EQ(errno, ECHILD);

    std::vector<std::string> left;
    for (const auto &e : std::filesystem::directory_iterator(dir))
        left.push_back(e.path().filename().string());
    EXPECT_TRUE(left.empty())
        << left.size() << " file(s) left, first: " << left.front();
    std::filesystem::remove_all(dir);
}

/** Every unit compile records its CPU time (the child reaped with
 *  wait4), one observation per unit; the link records none. */
TEST(CodegenUnits, UnitCpuTimeIsRecordedPerUnit)
{
    REQUIRE_HOST_COMPILER();
    obs::MetricsRegistry &reg = obs::metrics();
    const bool was_enabled = reg.enabled();
    reg.enable(true);
    obs::Histogram &cpu = reg.histogram(
        "gencc.unit_cpu_ms",
        obs::Histogram::exponentialBounds(1.0, 2.0, 16));
    const std::uint64_t before = cpu.count();
    const double sum_before = cpu.sum();

    CompiledArtifact art(gcdProgram());
    EXPECT_EQ(cpu.count() - before, 1u);  // one unit: "partition"
    EXPECT_GT(cpu.sum() - sum_before, 0.0);
    reg.enable(was_enabled);
}

INSTANTIATE_TEST_SUITE_P(AllModes, CodegenExec,
                         ::testing::Values(CppGenMode::Naive,
                                           CppGenMode::Inlined,
                                           CppGenMode::Lifted),
                         [](const auto &info) {
                             switch (info.param) {
                               case CppGenMode::Naive:
                                 return "Naive";
                               case CppGenMode::Inlined:
                                 return "Inlined";
                               case CppGenMode::Lifted:
                                 return "Lifted";
                             }
                             return "?";
                         });

} // namespace
} // namespace bcl
