/**
 * @file
 * Codegen exploration: emit every artifact the compiler produces for
 * a partitioned design - the three C++ strategies for the software
 * partition (Figure 9 vs Figure 10 vs guard-lifted) side by side
 * with a structural diff of how they differ, the BSV and Verilog for
 * the hardware partition, the HW/SW interface contract, and the
 * textual kernel program itself. When a host C++ compiler is
 * available, each emitted C++ unit is additionally compiled and
 * loaded through the gencc harness (the real execution path, not
 * just a syntax check).
 *
 * Run: ./example_codegen_explore [out_dir]   (default: ./generated)
 */
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <vector>

#include "common/strutil.hpp"
#include "core/astprint.hpp"
#include "core/codegen_bsv.hpp"
#include "core/codegen_cpp.hpp"
#include "core/codegen_verilog.hpp"
#include "core/domains.hpp"
#include "core/elaborate.hpp"
#include "core/interface_gen.hpp"
#include "core/partition.hpp"
#include "core/typecheck.hpp"
#include "runtime/gencc.hpp"
#include "vorbis/backend_bcl.hpp"
#include "vorbis/partitions.hpp"

using namespace bcl;
using namespace bcl::vorbis;

namespace {

/** Strategy-revealing markers counted per emitted unit. */
struct StrategyShape
{
    std::string name;
    size_t bytes = 0;
    size_t lines = 0;
    int tryCatch = 0;     ///< Figure 9 rules (try { ... } catch)
    int branchFails = 0;  ///< Figure 10 branch-to-rollback exits
    int shadows = 0;      ///< dynamic shadow snapshots taken
    int liftedRules = 0;  ///< rules running in place, no shadows
};

StrategyShape
analyze(const std::string &name, const std::string &code)
{
    StrategyShape s;
    s.name = name;
    s.bytes = code.size();
    s.lines = static_cast<size_t>(countOccurrences(code, "\n"));
    s.tryCatch = countOccurrences(code, "try {");
    s.branchFails = countOccurrences(code, ")) return false;");
    s.shadows = countOccurrences(code, ".shadow();");
    s.liftedRules = countOccurrences(code, "guard fully lifted");
    return s;
}

} // namespace

int
main(int argc, char **argv)
{
    std::filesystem::path dir =
        argc > 1 ? argv[1] : "generated";
    std::filesystem::create_directories(dir);

    // Partition D: IMDCT+IFFT in hardware, window in software.
    Program prog = makeVorbisProgram(
        partitionConfig(VorbisPartition::D));
    ElabProgram elab = elaborate(prog);
    typecheck(elab);
    DomainAssignment doms = inferDomains(elab);
    PartitionResult parts = partitionProgram(elab, doms);

    auto emit = [&](const std::string &name, const std::string &text) {
        std::ofstream out(dir / name);
        out << text;
        std::printf("  %-32s %6zu bytes\n", name.c_str(), text.size());
    };

    std::printf("emitting compiler artifacts for Vorbis partition D "
                "into %s/:\n",
                dir.string().c_str());
    emit("vorbis_kernel.bcl", printProgram(prog));

    struct ModeSpec
    {
        CppGenMode mode;
        const char *label;
        const char *stem;  ///< output file name without ".cpp"
    };
    const std::vector<ModeSpec> modes = {
        {CppGenMode::Naive, "naive", "sw_partition_naive"},
        {CppGenMode::Inlined, "inlined", "sw_partition_inlined"},
        {CppGenMode::Lifted, "lifted", "sw_partition_lifted"},
    };
    std::vector<StrategyShape> shapes;
    for (const auto &m : modes) {
        // A partition over the unit size target comes as several
        // units; each is written as <file stem>.<unit>.cpp.
        std::vector<CppUnit> units =
            generateCpp(parts.part("SW").prog, "VorbisSw", m.mode);
        std::string code;
        for (const CppUnit &u : units) {
            emit(units.size() == 1
                     ? std::string(m.stem) + ".cpp"
                     : std::string(m.stem) + "." + u.name + ".cpp",
                 u.text);
            code += u.text;
        }
        shapes.push_back(analyze(m.label, code));
    }

    emit("hw_partition.bsv",
         generateBsv(parts.part("HW").prog, "VorbisHw"));
    emit("hw_partition.v",
         generateVerilog(parts.part("HW").prog, "vorbis_hw"));

    InterfaceArtifacts art =
        generateInterface(parts.channels, "Vorbis");
    emit("vorbis_channels.h", art.header);
    emit("vorbis_proxy.hpp", art.swProxy);
    emit("vorbis_glue.bsv", art.hwGlue);

    std::printf("\nchannel table (%zu virtual channels over one "
                "physical link):\n",
                parts.channels.size());
    for (const auto &c : parts.channels) {
        std::printf("  ch%-2d %-8s %s -> %s, %d words, %d credits\n",
                    c.id, c.name.c_str(), c.fromDomain.c_str(),
                    c.toDomain.c_str(), c.payloadWords, c.capacity);
    }

    // --- the three strategies, side by side --------------------------
    std::printf("\nstrategy diff (Figures 9/10 and when-lifting, "
                "section 6.3):\n");
    std::printf("  %-8s %7s %9s %12s %8s %7s\n", "mode", "lines",
                "try/catch", "branch-fails", "shadows", "lifted");
    for (const auto &s : shapes) {
        std::printf("  %-8s %7zu %9d %12d %8d %7d\n", s.name.c_str(),
                    s.lines, s.tryCatch, s.branchFails, s.shadows,
                    s.liftedRules);
    }
    std::printf("  (naive: every rule a try/catch; inlined: guard "
                "checks branch to rollback;\n   lifted: fully-lifted "
                "rules drop their shadows entirely)\n");

    // --- compile-check each unit through the real execution path ----
    if (!CompiledPartition::hostCompilerAvailable()) {
        std::printf("\nno host C++ compiler found — skipping "
                    "compile checks of the emitted units\n");
        return 0;
    }
    std::printf("\ncompile-checking each strategy with the gencc "
                "harness (host compiler + dlopen):\n");
    for (const auto &m : modes) {
        GenccOptions opts;
        opts.mode = m.mode;
        CompiledPartition compiled(parts.part("SW").prog, opts);
        std::uint64_t fired = compiled.runToQuiescence();
        // No input was fed, so a fresh partition quiesces immediately;
        // loading + running it proves the unit is executable.
        std::printf("  %-8s compiled, loaded, quiesced (%llu rules "
                    "fired on empty input)\n",
                    m.label, static_cast<unsigned long long>(fired));
    }
    return 0;
}
