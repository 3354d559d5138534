/**
 * @file
 * Hoisted gencc compile cache: many sessions, one shared object per
 * distinct generated source. The serving layer's whole premise — the
 * paper's generated HW/SW interface makes the runtime artifact cheap
 * to instantiate — only holds if the expensive half (generateCpp +
 * host compiler + dlopen) happens once. This cache keys artifacts on
 * a hash of the *generated units* (plus everything that changes the
 * binary: gen mode, compile flags, include root and the bytes of the
 * runtime/gen_support.hpp under it), so two sessions
 * serving the same partition share one CompiledArtifact while
 * different partitions can never alias.
 *
 * Concurrency: get() is callable from any thread. The first caller
 * of a key compiles; concurrent callers of the same key block on a
 * shared future and count as hits — same source from two threads
 * yields exactly one compile. Different keys compile concurrently
 * (the artifact's unique scratch names make that safe even inside
 * one shared directory).
 *
 * Disk layer (optional, CompileCacheOptions::dir): artifacts compile
 * into the given directory and are published there as <key>.so and
 * <key>.log (the per-unit sources are not kept), so a
 * later cache instance pointed at the same directory reuses the .so
 * without invoking the compiler (a "disk hit"). A reused object is
 * still ABI-version- and layout-checked against the program; a
 * corrupted or stale entry fails those checks and falls back to a
 * fresh compile (counted in stats().corruptFallbacks). With no dir,
 * the cache is purely in-process and artifacts clean up their
 * scratch space on destruction.
 */
#ifndef BCL_SERVE_COMPILE_CACHE_HPP
#define BCL_SERVE_COMPILE_CACHE_HPP

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "runtime/gencc.hpp"

namespace bcl {
namespace serve {

/** Cache configuration. */
struct CompileCacheOptions
{
    /**
     * Persistent artifact directory; "" = in-process only (each
     * artifact uses its own scratch dir and removes it when the last
     * session drops it).
     */
    std::string dir;
};

/** Observability counters (monotone; read while quiesced for exact
 *  values — get() updates them under the cache lock). */
struct CompileCacheStats
{
    std::uint64_t compiles = 0;  ///< host compiler actually invoked
    std::uint64_t hits = 0;  ///< served from a live in-memory artifact
                             ///< (or by waiting on an in-flight compile)
    std::uint64_t diskHits = 0;  ///< reused a persisted .so, no compile
    std::uint64_t corruptFallbacks = 0;  ///< persisted .so failed
                                         ///< validation; recompiled
};

/** The key get() derives for a request (exposed for tests). */
std::string compileCacheKey(const ElabProgram &prog,
                            const GenccOptions &opts);

/** Thread-safe artifact cache; see file comment. */
class CompileCache
{
  public:
    explicit CompileCache(CompileCacheOptions opts = {});

    CompileCache(const CompileCache &) = delete;
    CompileCache &operator=(const CompileCache &) = delete;

    /**
     * The artifact for @p prog under @p opts, compiling at most once
     * per key. Ignores opts.workDir/fileStem/reuseSoPath (the cache
     * owns placement); mode/extraFlags/includeDir participate in the
     * key. Generates the units once: they give the key and, on a
     * miss, are what compiles. Throws what CompiledArtifact's
     * constructor throws (e.g. no host compiler, generated code fails
     * to compile) — the error is rethrown to every waiter of the key,
     * and the key is cleared so a later call may retry.
     */
    std::shared_ptr<const CompiledArtifact> get(
        const ElabProgram &prog, const GenccOptions &opts = {});

    CompileCacheStats stats() const;

    /**
     * Publish stats() into @p reg under the stable names
     * `serve.cache.compiles/hits/disk_hits/corrupt_fallbacks`
     * (counters) and `serve.cache.hit_ratio` (gauge: fraction of
     * artifact acquisitions that avoided the host compiler). The one
     * place the CompileCacheStats field list meets the registry.
     */
    void snapshotMetrics(obs::MetricsRegistry &reg) const;

    const CompileCacheOptions &options() const { return opts_; }

  private:
    using ArtifactFuture =
        std::shared_future<std::shared_ptr<const CompiledArtifact>>;

    std::shared_ptr<const CompiledArtifact> build(
        const ElabProgram &prog, GenccOptions opts,
        std::vector<CppUnit> units, const std::string &key);

    CompileCacheOptions opts_;
    mutable std::mutex mu_;
    std::map<std::string, ArtifactFuture> entries_;
    CompileCacheStats stats_;
};

} // namespace serve
} // namespace bcl

#endif // BCL_SERVE_COMPILE_CACHE_HPP
