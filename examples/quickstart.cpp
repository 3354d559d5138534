/**
 * @file
 * Quickstart: the whole BCL flow on a 20-line program.
 *
 *   1. build a kernel program with a SW domain and a HW domain,
 *   2. type-check it and infer computational domains,
 *   3. run it unpartitioned (functional reference),
 *   4. partition it, generate the HW/SW interface artifacts,
 *   5. co-simulate the partitioned system and compare the outputs.
 *
 * Run: ./example_quickstart
 */
#include <cstdio>
#include <utility>

#include "core/builder.hpp"
#include "core/codegen_bsv.hpp"
#include "core/codegen_cpp.hpp"
#include "core/domains.hpp"
#include "core/elaborate.hpp"
#include "core/interface_gen.hpp"
#include "core/partition.hpp"
#include "core/typecheck.hpp"
#include "platform/cosim.hpp"
#include "runtime/exec.hpp"

using namespace bcl;

namespace {

/** GCD accelerator: software feeds pairs, hardware iterates. */
Program
makeGcdProgram()
{
    TypePtr t = Type::bits(32);
    TypePtr pair = Type::record("PairT", {{"a", t}, {"b", t}});

    ModuleBuilder b("GcdTop");
    b.addSync("args", pair, 2, "SW", "HW");
    b.addSync("res", t, 2, "HW", "SW");
    b.addReg("x", t);
    b.addReg("y", t);
    b.addReg("busy", Type::boolean());
    b.addAudioDev("out", "SW");  // result sink

    b.addActionMethod("compute", {{"p", pair}},
                      callA("args", "enq", {varE("p")}), "SW");

    // start: grab a request.
    b.addRule(
        "start",
        whenA(letA("p", callV("args", "first"),
                   parA({callA("args", "deq"),
                         regWrite("x", primE(PrimOp::Field,
                                             {varE("p")}, 0, "a")),
                         regWrite("y", primE(PrimOp::Field,
                                             {varE("p")}, 0, "b")),
                         regWrite("busy", boolE(true))})),
              primE(PrimOp::Not, {regRead("busy")})));

    // Euclid steps, one subtraction/swap per clock cycle.
    ExprPtr x = regRead("x"), y = regRead("y");
    b.addRule("swap",
              whenA(parA({regWrite("x", y), regWrite("y", x)}),
                    primE(PrimOp::And,
                          {regRead("busy"),
                           primE(PrimOp::Lt, {x, y})})));
    b.addRule("sub",
              whenA(regWrite("x", primE(PrimOp::Sub, {x, y})),
                    primE(PrimOp::And,
                          {regRead("busy"),
                           primE(PrimOp::And,
                                 {primE(PrimOp::Ge, {x, y}),
                                  primE(PrimOp::Ne,
                                        {y, intE(32, 0)})})})));
    // done: y == 0 -> x is the gcd.
    b.addRule("done",
              whenA(parA({callA("res", "enq", {x}),
                          regWrite("busy", boolE(false))}),
                    primE(PrimOp::And,
                          {regRead("busy"),
                           primE(PrimOp::Eq,
                                 {y, intE(32, 0)})})));

    b.addRule("collect", parA({callA("out", "output",
                                     {callV("res", "first")}),
                               callA("res", "deq")}));
    return ProgramBuilder().add(b.build()).setRoot("GcdTop").build();
}

Value
pairValue(int a, int b)
{
    return Value::makeStruct({{"a", Value::makeInt(32, a)},
                              {"b", Value::makeInt(32, b)}});
}

} // namespace

int
main()
{
    std::printf("== BCL quickstart: GCD accelerator ==\n\n");
    Program prog = makeGcdProgram();

    // 1+2: elaborate, type-check, infer domains.
    ElabProgram elab = elaborate(prog);
    typecheck(elab);
    DomainAssignment doms = inferDomains(elab);
    std::printf("domains:");
    for (const auto &d : doms.domains)
        std::printf(" %s", d.c_str());
    std::printf("  (rules:");
    for (const auto &r : elab.rules)
        std::printf(" %s@%s", r.name.c_str(), r.domain.c_str());
    std::printf(")\n\n");

    // 3: unpartitioned reference run.
    const std::pair<int, int> inputs[] = {
        {12, 18}, {35, 49}, {1071, 462}, {17, 5}};
    {
        Store store(elab);
        Interp interp(elab, store);
        RuleEngine engine(interp, SwStrategy::StaticOrder);
        int meth = elab.rootMethod("compute");
        for (auto [a, b] : inputs) {
            while (!interp.callActionMethod(meth, {pairValue(a, b)})) {
                engine.poke();  // external state changed
                engine.runToQuiescence();
            }
            engine.poke();
            engine.runToQuiescence();
        }
        std::printf("reference results: ");
        for (const auto &v :
             std::as_const(store).at(elab.primByPath("out")).queue) {
            std::printf("%lld ", static_cast<long long>(v.asInt()));
        }
        std::printf("\n");
    }

    // 4: partition + interface artifacts.
    PartitionResult parts = partitionProgram(elab, doms);
    InterfaceArtifacts art = generateInterface(parts.channels, "Gcd");
    std::printf("\ngenerated interface contract:\n%s\n",
                art.header.c_str());

    // 5: co-simulate.
    CoSim cosim(parts, CosimConfig{});
    const PartitionPart &sw = parts.part("SW");
    int push = sw.prog.rootMethod("compute");
    int out = sw.prog.primByPath("out");
    size_t fed = 0;
    SwDriver driver;
    driver.step = [&](SwPort &port) -> std::uint64_t {
        if (fed >= 4)
            return 0;
        std::uint64_t before = port.work();
        if (port.callActionMethod(
                push, {pairValue(inputs[fed].first,
                                 inputs[fed].second)})) {
            fed++;
            return port.work() - before + 1;
        }
        return 0;
    };
    driver.done = [&] { return fed >= 4; };
    cosim.setDriver("SW", driver);
    std::uint64_t cycles = cosim.run([&](CoSim &cs) {
        const Store &sw = cs.storeOf("SW");
        return sw.at(out).queue.size() == 4;
    });

    std::printf("co-simulated results (HW gcd engine): ");
    const Store &swStore = cosim.storeOf("SW");
    for (const auto &v : swStore.at(out).queue)
        std::printf("%lld ", static_cast<long long>(v.asInt()));
    std::printf("\n%llu FPGA cycles end to end\n",
                static_cast<unsigned long long>(cycles));

    // Bonus: show a snippet of the generated software partition.
    std::string cpp = generateCpp(sw.prog, "GcdSw",
                                  CppGenMode::Lifted)
                          .front()
                          .text;
    std::printf("\ngenerated SW partition (first lines):\n%.600s...\n",
                cpp.c_str());
    return 0;
}
