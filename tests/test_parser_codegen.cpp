/**
 * @file
 * Parser round-trip tests and code-generation tests. Generated C++
 * is syntax-checked with the host compiler when one is available
 * (the generated translation unit includes runtime/gen_support.hpp,
 * so this validates the real compilation path of section 6).
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <cstdlib>
#include <fstream>

#include "common/logging.hpp"
#include "common/strutil.hpp"
#include "core/astprint.hpp"
#include "core/builder.hpp"
#include "core/codegen_bsv.hpp"
#include "core/codegen_cpp.hpp"
#include "core/codegen_verilog.hpp"
#include "core/domains.hpp"
#include "core/elaborate.hpp"
#include "core/interface_gen.hpp"
#include "core/parser.hpp"
#include "core/partition.hpp"
#include "core/typecheck.hpp"
#include "runtime/store.hpp"

namespace bcl {
namespace {

TypePtr w32() { return Type::bits(32); }

Program
makeEchoProgram()
{
    ModuleBuilder b("Top");
    b.addFifo("inQ", w32(), 8);
    b.addSync("toHw", w32(), 4, "SW", "HW");
    b.addSync("fromHw", w32(), 4, "HW", "SW");
    b.addAudioDev("out", "SW");
    b.addReg("cnt", w32());
    b.addActionMethod("push", {{"x", w32()}},
                      callA("inQ", "enq", {varE("x")}), "SW");
    b.addRule("feed", parA({callA("toHw", "enq",
                                  {callV("inQ", "first")}),
                            callA("inQ", "deq")}));
    b.addRule("compute",
              letA("x", callV("toHw", "first"),
                   parA({callA("toHw", "deq"),
                         callA("fromHw", "enq",
                               {primE(PrimOp::Add,
                                      {primE(PrimOp::Mul,
                                             {varE("x"), intE(32, 2)}),
                                       intE(32, 1)})})})));
    b.addRule("drain",
              parA({callA("out", "output", {callV("fromHw", "first")}),
                    callA("fromHw", "deq"),
                    regWrite("cnt", primE(PrimOp::Add,
                                          {regRead("cnt"),
                                           intE(32, 1)}))}));
    return ProgramBuilder().add(b.build()).setRoot("Top").build();
}

TEST(Parser, PrintParseRoundTripIsStable)
{
    Program p = makeEchoProgram();
    std::string text1 = printProgram(p);
    Program p2 = parseProgram(text1);
    std::string text2 = printProgram(p2);
    EXPECT_EQ(text1, text2);
    // The reparsed program elaborates and typechecks identically.
    ElabProgram e1 = elaborate(p);
    ElabProgram e2 = elaborate(p2);
    EXPECT_EQ(e1.prims.size(), e2.prims.size());
    EXPECT_EQ(e1.rules.size(), e2.rules.size());
    EXPECT_NO_THROW(typecheck(e2));
}

TEST(Parser, HandwrittenSourceParses)
{
    const char *src = R"(
// A hand-written kernel-BCL file.
struct Pair { lo: Bit#(32), hi: Bit#(32) }

module Counter
  inst count = Reg(Bit#(32), 0:32)
  inst hist = Fifo(Pair, 2)
  rule tick = (count := (count + 1:32) when hist.notFull())
  rule log = hist.enq(struct#lo,hi((count - 1:32), count))
  amethod (SW) reset(v: Bit#(32)) = count := v
  vmethod current() : Bit#(32) = count
endmodule
root Counter
)";
    Program p = parseProgram(src);
    ElabProgram elab = elaborate(p);
    EXPECT_NO_THROW(typecheck(elab));
    EXPECT_EQ(elab.rules.size(), 2u);
    EXPECT_EQ(elab.prims.size(), 2u);
}

TEST(Parser, ShippedSampleFileParsesAndPartitions)
{
    std::ifstream in(std::string(BCL_SRC_DIR) +
                     "/../examples/counter.bcl");
    ASSERT_TRUE(in.good());
    std::string src((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    Program p = parseProgram(src);
    ElabProgram elab = elaborate(p);
    typecheck(elab);
    DomainAssignment doms = inferDomains(elab);
    EXPECT_TRUE(doms.partitioned());
    PartitionResult parts = partitionProgram(elab, doms);
    EXPECT_EQ(parts.channels.size(), 1u);
    EXPECT_EQ(parts.channels[0].payloadWords, 2);  // Sample = 64 bits
}

TEST(Parser, SyntaxErrorsReportLine)
{
    try {
        parseProgram("module Top\n  inst r = Reg(,)\nendmodule\nroot "
                     "Top\n");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("line 2"),
                  std::string::npos);
    }
    EXPECT_THROW(parseProgram("module Top endmodule"), FatalError);
}

TEST(Parser, ValueLiterals)
{
    const char *src = R"(
module Top
  inst v = Reg(Vector#(2, Bit#(8)), [1:8, -2:8])
  inst b = Reg(Bool, true)
endmodule
root Top
)";
    Program p = parseProgram(src);
    ElabProgram elab = elaborate(p);
    Store store(elab);
    EXPECT_EQ(store.at(elab.primByPath("v")).val.at(1).asInt(), -2);
    EXPECT_TRUE(store.at(elab.primByPath("b")).val.asBool());
}

class CodegenCpp : public ::testing::TestWithParam<CppGenMode>
{
};

TEST_P(CodegenCpp, GeneratesExpectedStructure)
{
    Program p = makeEchoProgram();
    ElabProgram elab = elaborate(p);
    DomainAssignment doms = inferDomains(elab);
    PartitionResult parts = partitionProgram(elab, doms);

    std::vector<CppUnit> units =
        generateCpp(parts.part("SW").prog, "SwPart", GetParam());
    ASSERT_EQ(units.size(), 1u) << "a small partition stays one unit";
    const std::string &code = units[0].text;
    EXPECT_TRUE(containsString(code, "class SwPart"));
    EXPECT_TRUE(containsString(code, "bool SwPart::rule_feed()"));
    EXPECT_TRUE(containsString(code, "bool SwPart::rule_drain()"));
    EXPECT_TRUE(containsString(code, "run_to_quiescence"));
    EXPECT_TRUE(containsString(code, "gen_support.hpp"));
    if (GetParam() == CppGenMode::Naive) {
        EXPECT_TRUE(containsString(code, "try {"));
        EXPECT_TRUE(containsString(code, "GuardFail"));
    } else {
        // Figures 9 vs 10: the branch strategies carry no try/catch
        // in rule bodies.
        EXPECT_EQ(countOccurrences(code, "try {"), 0);
    }
    if (GetParam() == CppGenMode::Lifted) {
        EXPECT_TRUE(containsString(code, "guard fully lifted"));
    }
}

TEST_P(CodegenCpp, GeneratedCodeCompiles)
{
    if (std::system("g++ --version > /dev/null 2>&1") != 0)
        GTEST_SKIP() << "no host compiler";

    Program p = makeEchoProgram();
    ElabProgram elab = elaborate(p);
    DomainAssignment doms = inferDomains(elab);
    PartitionResult parts = partitionProgram(elab, doms);
    std::string code =
        generateCpp(parts.part("SW").prog, "SwPart", GetParam())
            .front()
            .text;

    std::string dir = ::testing::TempDir();
    std::string file = dir + "/bcl_gen_test.cpp";
    {
        std::ofstream out(file);
        out << code << "\nint main() { SwPart p; return (int)p."
               "run_to_quiescence() * 0; }\n";
    }
    std::string cmd = "g++ -std=c++20 -fsyntax-only -I" +
                      std::string(BCL_SRC_DIR) + " " + file +
                      " 2> " + dir + "/bcl_gen_err.txt";
    int rc = std::system(cmd.c_str());
    if (rc != 0) {
        std::ifstream err(dir + "/bcl_gen_err.txt");
        std::string line, all;
        while (std::getline(err, line))
            all += line + "\n";
        FAIL() << "generated code did not compile:\n"
               << all.substr(0, 4000);
    }
}

INSTANTIATE_TEST_SUITE_P(AllModes, CodegenCpp,
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

TEST(CodegenBsv, EmitsRulesWithLiftedGuards)
{
    Program p = makeEchoProgram();
    ElabProgram elab = elaborate(p);
    DomainAssignment doms = inferDomains(elab);
    PartitionResult parts = partitionProgram(elab, doms);

    std::string bsv = generateBsv(parts.part("HW").prog, "HwPart");
    EXPECT_TRUE(containsString(bsv, "module mkHwPart"));
    EXPECT_TRUE(containsString(bsv, "rule compute"));
    // The lifted guard references the synchronizer probes.
    EXPECT_TRUE(containsString(bsv, "notEmpty"));
    EXPECT_TRUE(containsString(bsv, "mkLIBDNFifo"));
    EXPECT_TRUE(containsString(bsv, "endmodule"));
}

TEST(CodegenBsv, RejectsSoftwareOnlyConstructs)
{
    ModuleBuilder b("Top");
    b.addReg("r", w32());
    b.addRule("looper", loopA(boolE(false), noOpA()));
    Program p = ProgramBuilder().add(b.build()).setRoot("Top").build();
    ElabProgram elab = elaborate(p);
    EXPECT_THROW(generateBsv(elab, "Bad"), FatalError);
}

TEST(CodegenVerilog, EmitsSchedulerShell)
{
    Program p = makeEchoProgram();
    ElabProgram elab = elaborate(p);
    DomainAssignment doms = inferDomains(elab);
    PartitionResult parts = partitionProgram(elab, doms);

    std::string v = generateVerilog(parts.part("HW").prog, "hw_part");
    EXPECT_TRUE(containsString(v, "module hw_part"));
    EXPECT_TRUE(containsString(v, "CAN_FIRE_compute"));
    EXPECT_TRUE(containsString(v, "WILL_FIRE_compute"));
    EXPECT_TRUE(containsString(v, "always @(posedge CLK)"));
    EXPECT_TRUE(containsString(v, "endmodule"));
}

TEST(InterfaceGen, EmitsContractProxyAndGlue)
{
    Program p = makeEchoProgram();
    ElabProgram elab = elaborate(p);
    DomainAssignment doms = inferDomains(elab);
    PartitionResult parts = partitionProgram(elab, doms);

    InterfaceArtifacts art =
        generateInterface(parts.channels, "Echo");
    // Contract: both channels with ids, word counts, credits.
    EXPECT_TRUE(containsString(art.header, "Echo_CHAN_toHw_ID"));
    EXPECT_TRUE(containsString(art.header, "Echo_CHAN_fromHw_WORDS 1"));
    EXPECT_TRUE(containsString(art.header, "_CREDITS 4"));
    // Proxy: send on the SW->HW channel, recv on the HW->SW one.
    EXPECT_TRUE(containsString(art.swProxy, "send_toHw"));
    EXPECT_TRUE(containsString(art.swProxy, "recv_fromHw"));
    EXPECT_TRUE(containsString(art.swProxy, "LinkDriver"));
    // Glue: a LIBDN half and an arbiter per channel set.
    EXPECT_TRUE(containsString(art.hwGlue, "mkRoundRobinArbiter"));
    EXPECT_EQ(countOccurrences(art.hwGlue, "mkLIBDNFifo"), 2);
}

} // namespace
} // namespace bcl
