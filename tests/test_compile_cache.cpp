/**
 * @file
 * Compile-cache semantics (src/serve/compile_cache.hpp): once-only
 * compilation under concurrent requests, key separation between
 * different generated sources and gen modes, the persistent disk
 * layer, and its corrupt-entry fallback. Also pins the gencc scratch
 * naming satellite: two artifacts compiled into the SAME directory
 * must not collide, and destroying one must not take the other's
 * files with it (the pre-PR behavior used a fixed "partition.cpp"
 * stem, which made concurrent compiles clobber each other).
 *
 * Every test auto-skips when no host C++ compiler is available.
 */
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hpp"
#include "core/builder.hpp"
#include "core/domains.hpp"
#include "core/elaborate.hpp"
#include "core/parser.hpp"
#include "core/partition.hpp"
#include "core/typecheck.hpp"
#include "serve/compile_cache.hpp"

namespace bcl {
namespace {

using namespace bcl::serve;
namespace fs = std::filesystem;

#define REQUIRE_HOST_COMPILER()                                       \
    do {                                                              \
        if (!CompiledPartition::hostCompilerAvailable())              \
            GTEST_SKIP() << "no host C++ compiler on this machine — " \
                            "compile-cache tests skipped";            \
    } while (0)

/** The shipped counter.bcl's SW partition (the full program never
 *  quiesces — producer and consumer feed each other forever; the SW
 *  half stops when its SyncTx fills). */
ElabProgram
counterProgram()
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
    return partitionProgram(elab, doms).part("SW").prog;
}

/** A second, structurally different program (distinct generated
 *  source by construction): fills a bounded FIFO with an arithmetic
 *  sequence, then quiesces. */
ElabProgram
sequenceProgram()
{
    ModuleBuilder b("Top");
    b.addReg("count", Type::bits(32));
    b.addFifo("out", Type::bits(32), 3);
    b.addRule("produce",
              parA({callA("out", "enq", {regRead("count")}),
                    regWrite("count",
                             primE(PrimOp::Add, {regRead("count"),
                                                 intE(32, 2)}))}));
    Program p = ProgramBuilder().add(b.build()).setRoot("Top").build();
    ElabProgram elab = elaborate(p);
    typecheck(elab);
    return elab;
}

/** Run an instance of @p artifact to quiescence and drain the named
 *  primitive's queue. */
std::vector<std::int64_t>
driveAndDrain(std::shared_ptr<const CompiledArtifact> artifact,
              const ElabProgram &prog, const char *prim_path)
{
    CompiledPartition cp(std::move(artifact));
    cp.runToQuiescence();
    std::vector<std::int64_t> got;
    Value v;
    while (cp.popPrim(prog.primByPath(prim_path), v))
        got.push_back(v.asInt());
    return got;
}

/**
 * Once-semantics under a concurrent pile-on: many threads request
 * the same program through one cold cache; exactly one compile may
 * happen, everyone else blocks on the shared future and is counted
 * a hit, and all callers get the SAME artifact object.
 */
TEST(CompileCache, SameSourceManyThreadsCompilesOnce)
{
    REQUIRE_HOST_COMPILER();
    ElabProgram prog = counterProgram();
    CompileCache cache;

    const int kThreads = 4;
    std::vector<std::shared_ptr<const CompiledArtifact>> got(
        kThreads);
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; i++)
        threads.emplace_back(
            [&, i] { got[static_cast<size_t>(i)] = cache.get(prog); });
    for (auto &t : threads)
        t.join();

    for (int i = 1; i < kThreads; i++)
        EXPECT_EQ(got[static_cast<size_t>(i)], got[0])
            << "thread " << i << " got a different artifact";
    CompileCacheStats stats = cache.stats();
    EXPECT_EQ(stats.compiles, 1u);
    EXPECT_EQ(stats.hits, static_cast<std::uint64_t>(kThreads - 1));
    EXPECT_EQ(stats.diskHits, 0u);

    // And the shared artifact actually runs.
    std::vector<std::int64_t> msgs;
    CompiledPartition cp(got[0]);
    cp.runToQuiescence();
    Value v;
    while (cp.popPrim(prog.primByPath("toHw"), v))
        msgs.push_back(v.field("left").asInt());
    EXPECT_FALSE(msgs.empty());
}

/**
 * Key separation: different generated sources never alias, and the
 * same source under a different gen mode (different binary) gets its
 * own key too — the key covers everything that changes the .so.
 */
TEST(CompileCache, DifferentSourcesAndModesNeverAlias)
{
    REQUIRE_HOST_COMPILER();
    ElabProgram counter = counterProgram();
    ElabProgram sequence = sequenceProgram();

    GenccOptions lifted;
    lifted.mode = CppGenMode::Lifted;
    GenccOptions naive;
    naive.mode = CppGenMode::Naive;
    EXPECT_NE(compileCacheKey(counter, lifted),
              compileCacheKey(sequence, lifted));
    EXPECT_NE(compileCacheKey(counter, lifted),
              compileCacheKey(counter, naive));
    GenccOptions flagged = lifted;
    flagged.extraFlags = "-DBCL_CACHE_KEY_PROBE";
    EXPECT_NE(compileCacheKey(counter, lifted),
              compileCacheKey(counter, flagged));

    CompileCache cache;
    auto a = cache.get(counter, lifted);
    auto b = cache.get(sequence, lifted);
    EXPECT_NE(a, b);
    EXPECT_EQ(cache.stats().compiles, 2u);
    EXPECT_EQ(cache.stats().hits, 0u);

    // Each artifact runs ITS program: the sequence fills its
    // 3-deep FIFO with 0, 2, 4 and quiesces.
    std::vector<std::int64_t> seq =
        driveAndDrain(b, sequence, "out");
    EXPECT_EQ(seq, (std::vector<std::int64_t>{0, 2, 4}));
}

/**
 * The key covers the support library the units include, read from
 * the include root the compile will use: a persisted .so built
 * against another runtime/gen_support.hpp must never be a disk hit.
 * Needs no compiler: the key is derived from generated text only.
 */
TEST(CompileCache, KeyFollowsSupportHeaderBytes)
{
    ElabProgram prog = sequenceProgram();
    fs::path inc = fs::temp_directory_path() /
                   ("bcl_cache_test_" + std::to_string(::getpid()) +
                    "_inc");
    fs::create_directories(inc / "runtime");
    const fs::path header = inc / "runtime" / "gen_support.hpp";
    fs::copy_file(std::string(BCL_SRC_DIR) + "/runtime/gen_support.hpp",
                  header, fs::copy_options::overwrite_existing);

    GenccOptions opts;
    opts.includeDir = inc.string();
    const std::string original = compileCacheKey(prog, opts);
    EXPECT_EQ(compileCacheKey(prog, opts), original);

    // Same path, edited bytes: a different key.
    std::ofstream(header, std::ios::app) << "// edited\n";
    EXPECT_NE(compileCacheKey(prog, opts), original);
    fs::remove_all(inc);
}

/**
 * Disk layer: a second cache instance pointed at the same directory
 * reuses the persisted .so without invoking the compiler, and its
 * instances behave identically to the compiling cache's.
 */
TEST(CompileCache, DiskLayerReusesAcrossCacheInstances)
{
    REQUIRE_HOST_COMPILER();
    ElabProgram prog = sequenceProgram();
    fs::path dir = fs::temp_directory_path() /
                   ("bcl_cache_test_" +
                    std::to_string(::getpid()) + "_disk");
    fs::create_directories(dir);

    std::vector<std::int64_t> first;
    {
        CompileCache cold({dir.string()});
        first = driveAndDrain(cold.get(prog), prog, "out");
        EXPECT_EQ(cold.stats().compiles, 1u);
        EXPECT_EQ(cold.stats().diskHits, 0u);
    }
    // The artifact persisted beyond the cache's lifetime.
    GenccOptions opts;
    fs::path so = dir / (compileCacheKey(prog, opts) + ".so");
    ASSERT_TRUE(fs::exists(so)) << so;

    {
        CompileCache warm({dir.string()});
        std::vector<std::int64_t> second =
            driveAndDrain(warm.get(prog), prog, "out");
        EXPECT_EQ(warm.stats().compiles, 0u)
            << "warm cache must not invoke the compiler";
        EXPECT_EQ(warm.stats().diskHits, 1u);
        EXPECT_EQ(warm.stats().corruptFallbacks, 0u);
        EXPECT_EQ(second, first);
    }
    fs::remove_all(dir);
}

/**
 * Corrupt-entry fallback: a damaged persisted .so fails validation
 * (dlopen / ABI check) and the cache recompiles instead of serving
 * garbage — counted, and functionally invisible to the caller.
 */
TEST(CompileCache, CorruptedDiskEntryFallsBackToRecompile)
{
    REQUIRE_HOST_COMPILER();
    ElabProgram prog = sequenceProgram();
    fs::path dir = fs::temp_directory_path() /
                   ("bcl_cache_test_" +
                    std::to_string(::getpid()) + "_corrupt");
    fs::create_directories(dir);

    std::vector<std::int64_t> first;
    {
        CompileCache cold({dir.string()});
        first = driveAndDrain(cold.get(prog), prog, "out");
    }
    GenccOptions opts;
    fs::path so = dir / (compileCacheKey(prog, opts) + ".so");
    ASSERT_TRUE(fs::exists(so));
    {
        std::ofstream truncate(so, std::ios::trunc);
        truncate << "not an ELF shared object\n";
    }

    CompileCache fallback({dir.string()});
    std::vector<std::int64_t> second =
        driveAndDrain(fallback.get(prog), prog, "out");
    EXPECT_EQ(fallback.stats().corruptFallbacks, 1u);
    EXPECT_EQ(fallback.stats().compiles, 1u);
    EXPECT_EQ(fallback.stats().diskHits, 0u);
    EXPECT_EQ(second, first);

    // The recompile healed the entry: one more cache instance now
    // disk-hits it.
    CompileCache healed({dir.string()});
    EXPECT_EQ(driveAndDrain(healed.get(prog), prog, "out"), first);
    EXPECT_EQ(healed.stats().diskHits, 1u);
    EXPECT_EQ(healed.stats().compiles, 0u);
    fs::remove_all(dir);
}

/**
 * Scratch-name uniqueness (the gencc satellite): two artifacts built
 * into ONE caller-provided directory get distinct file stems, and
 * destroying the first removes only its own files — the second's
 * shared object keeps working and is still on disk.
 */
TEST(CompileCache, ArtifactsShareADirectoryWithoutColliding)
{
    REQUIRE_HOST_COMPILER();
    ElabProgram prog = sequenceProgram();
    fs::path dir = fs::temp_directory_path() /
                   ("bcl_cache_test_" +
                    std::to_string(::getpid()) + "_scratch");
    fs::create_directories(dir);
    GenccOptions opts;
    opts.workDir = dir.string();

    auto countSo = [&] {
        int n = 0;
        for (const auto &e : fs::directory_iterator(dir))
            if (e.path().extension() == ".so")
                n++;
        return n;
    };

    auto a = std::make_shared<const CompiledArtifact>(prog, opts);
    auto b = std::make_shared<const CompiledArtifact>(prog, opts);
    EXPECT_EQ(countSo(), 2) << "same directory, two distinct stems";

    std::vector<std::int64_t> expect{0, 2, 4};
    EXPECT_EQ(driveAndDrain(a, prog, "out"), expect);
    a.reset();  // destroys artifact a, removes ITS files only
    EXPECT_EQ(countSo(), 1)
        << "destroying one artifact must not sweep the directory";
    EXPECT_EQ(driveAndDrain(b, prog, "out"), expect);
    b.reset();
    EXPECT_EQ(countSo(), 0);
    fs::remove_all(dir);
}

/**
 * Two-PROCESS contention on one shared disk cache directory. The
 * in-process promise map cannot arbitrate across processes, so the
 * disk layer itself must be concurrency-safe: each compile lands
 * under a process-unique temp stem and is published by an atomic
 * rename, so no process ever observes (or dlopens) a half-written
 * .cpp/.so and simultaneous publishers are harmless last-wins over
 * identical content. Pre-fix, both processes wrote the same
 * deterministic <key>.cpp/.so and could clobber each other mid-
 * compile.
 */
TEST(CompileCache, TwoProcessesShareOneDiskDirSafely)
{
    REQUIRE_HOST_COMPILER();
    ElabProgram prog = sequenceProgram();
    const std::vector<std::int64_t> expected{0, 2, 4};
    fs::path dir = fs::temp_directory_path() /
                   ("bcl_cache_test_" +
                    std::to_string(::getpid()) + "_2proc");
    fs::create_directories(dir);

    constexpr int kChildren = 2;
    std::vector<pid_t> kids;
    for (int i = 0; i < kChildren; i++) {
        pid_t pid = ::fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            // Child: cold cache over the shared dir, racing the
            // parent and its sibling. Plain exit codes — gtest
            // machinery must not run in the child.
            int rc = 1;
            try {
                CompileCache cache({dir.string()});
                rc = driveAndDrain(cache.get(prog), prog, "out") ==
                             expected
                         ? 0
                         : 1;
            } catch (...) {
                rc = 2;
            }
            ::_exit(rc);
        }
        kids.push_back(pid);
    }

    // Parent races them through its own cache instance.
    CompileCache cache({dir.string()});
    EXPECT_EQ(driveAndDrain(cache.get(prog), prog, "out"), expected);

    for (pid_t pid : kids) {
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        ASSERT_TRUE(WIFEXITED(status));
        EXPECT_EQ(WEXITSTATUS(status), 0)
            << "child " << pid
            << " failed its concurrent compile/validate";
    }

    // The published entry exists under its final name, and no
    // temp stems leaked.
    GenccOptions opts;
    const std::string key = compileCacheKey(prog, opts);
    EXPECT_TRUE(fs::exists(dir / (key + ".so")));
    for (const auto &entry : fs::directory_iterator(dir)) {
        EXPECT_EQ(entry.path().filename().string().find(".tmp."),
                  std::string::npos)
            << "unpublished temp artifact leaked: " << entry.path();
    }

    // And the published entry is a valid disk hit for a fresh cache.
    CompileCache warm({dir.string()});
    EXPECT_EQ(driveAndDrain(warm.get(prog), prog, "out"), expected);
    EXPECT_EQ(warm.stats().compiles, 0u);
    EXPECT_EQ(warm.stats().diskHits, 1u);
    fs::remove_all(dir);
}

} // namespace
} // namespace bcl
