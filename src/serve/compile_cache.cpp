#include "serve/compile_cache.hpp"

#include <atomic>
#include <cstdio>
#include <filesystem>

#include <unistd.h>

#include "common/logging.hpp"
#include "obs/trace.hpp"

namespace bcl {
namespace serve {

namespace {

/** FNV-1a over the bytes of @p s, folded into the running @p h. */
std::uint64_t
fnv1a(std::uint64_t h, const std::string &s)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    // Separator: "ab"+"c" and "a"+"bc" must not collide.
    h ^= 0xff;
    h *= 1099511628211ull;
    return h;
}

std::string
hex64(std::uint64_t h)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

const char *
modeName(CppGenMode m)
{
    switch (m) {
      case CppGenMode::Naive: return "naive";
      case CppGenMode::Inlined: return "inlined";
      case CppGenMode::Lifted: return "lifted";
    }
    return "?";
}

/** The key of @p units (generateCpp() output) under @p opts. */
std::string
unitsKey(const std::vector<CppUnit> &units, const GenccOptions &opts)
{
    // The generated units are the ground truth the .so was built
    // from; mode is folded in as well (it changes the units anyway,
    // but belt and braces), and the flag/include knobs change the
    // binary without changing the units.
    std::uint64_t h = 1469598103934665603ull;
    for (const CppUnit &u : units) {
        h = fnv1a(h, u.name);
        h = fnv1a(h, u.text);
    }
    h = fnv1a(h, modeName(opts.mode));
    h = fnv1a(h, opts.extraFlags);
    h = fnv1a(h, opts.includeDir);
    return hex64(h);
}

} // namespace

std::string
compileCacheKey(const ElabProgram &prog, const GenccOptions &opts)
{
    return unitsKey(generateCpp(prog, "BclGenPartition", opts.mode),
                    opts);
}

CompileCache::CompileCache(CompileCacheOptions opts)
    : opts_(std::move(opts))
{
    if (!opts_.dir.empty())
        std::filesystem::create_directories(opts_.dir);
}

std::shared_ptr<const CompiledArtifact>
CompileCache::build(const ElabProgram &prog, GenccOptions opts,
                    std::vector<CppUnit> units, const std::string &key)
{
    if (!opts_.dir.empty()) {
        // Disk layer: deterministic published name inside the cache
        // dir, files persisted past the artifact (keepArtifacts) so
        // a later cache instance gets a disk hit.
        opts.workDir = opts_.dir;
        opts.keepArtifacts = true;
        std::string so = opts_.dir + "/" + key + ".so";
        if (std::filesystem::exists(so)) {
            GenccOptions reuse = opts;
            reuse.reuseSoPath = so;
            try {
                auto art = std::make_shared<const CompiledArtifact>(
                    prog, std::move(reuse));
                obs::trace().instant("cache.disk_hit", "serve.cache");
                std::lock_guard<std::mutex> lock(mu_);
                stats_.diskHits++;
                return art;
            } catch (const Error &err) {
                // Corrupted / stale / truncated entry: drop it and
                // recompile. Validation is dlopen + ABI version +
                // marshaled-layout cross-check (gencc.cpp).
                warn("compile cache: persisted entry " + so +
                     " failed validation (" + err.what() +
                     "); recompiling");
                std::error_code ec;
                std::filesystem::remove(so, ec);
                std::lock_guard<std::mutex> lock(mu_);
                stats_.corruptFallbacks++;
            }
        }
    } else {
        opts.workDir.clear();
        opts.fileStem.clear();
        opts.keepArtifacts = false;
    }
    opts.reuseSoPath.clear();
    obs::trace().instant("cache.compile", "serve.cache");

    if (opts_.dir.empty()) {
        auto art = std::make_shared<const CompiledArtifact>(
            prog, std::move(opts), std::move(units));
        std::lock_guard<std::mutex> lock(mu_);
        stats_.compiles++;
        return art;
    }

    // Disk layer, compile path. The published stem must never be
    // written directly: two PROCESSES sharing one cache dir would
    // race on <key>.so/.log (the in-process promise map cannot
    // arbitrate across processes), and a reader could dlopen a
    // half-written .so. Compile under a process-unique temp stem,
    // dlopen that, then publish with rename(2) — atomic within the
    // directory, so concurrent publishers are last-wins over
    // identical content (the key IS a hash of the generated units)
    // and readers only ever see a complete file. The per-unit
    // sources never outlive the link (gencc removes them), and a
    // disk hit needs only the .so.
    static std::atomic<std::uint64_t> tmpCounter{0};
    std::string tmp_stem =
        key + ".tmp." +
        std::to_string(static_cast<long long>(::getpid())) + "." +
        std::to_string(
            tmpCounter.fetch_add(1, std::memory_order_relaxed));
    opts.fileStem = tmp_stem;
    auto art = std::make_shared<const CompiledArtifact>(
        prog, std::move(opts), std::move(units));
    for (const char *ext : {".so", ".log"}) {
        std::error_code ec;
        std::filesystem::rename(opts_.dir + "/" + tmp_stem + ext,
                                opts_.dir + "/" + key + ext, ec);
        // A missing .log (compiler wrote nothing) is fine; a failed
        // .so publish only costs a future disk hit, never
        // correctness — this process keeps its dlopen'd instance.
    }
    std::lock_guard<std::mutex> lock(mu_);
    stats_.compiles++;
    return art;
}

std::shared_ptr<const CompiledArtifact>
CompileCache::get(const ElabProgram &prog, const GenccOptions &opts)
{
    // Generated once: hashed here for the key, compiled by build().
    std::vector<CppUnit> units =
        generateCpp(prog, "BclGenPartition", opts.mode);
    const std::string key = unitsKey(units, opts);

    std::promise<std::shared_ptr<const CompiledArtifact>> promise;
    ArtifactFuture future;
    bool builder = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = entries_.find(key);
        if (it == entries_.end()) {
            future = promise.get_future().share();
            entries_.emplace(key, future);
            builder = true;
        } else {
            future = it->second;
            stats_.hits++;
        }
    }
    if (!builder)
        obs::trace().instant("cache.hit", "serve.cache");

    if (builder) {
        try {
            promise.set_value(build(prog, opts, std::move(units), key));
        } catch (...) {
            // Propagate to every waiter, then clear the key so a
            // later call can retry (e.g. compiler installed, disk
            // freed).
            promise.set_exception(std::current_exception());
            std::lock_guard<std::mutex> lock(mu_);
            entries_.erase(key);
        }
    }
    return future.get();
}

CompileCacheStats
CompileCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

void
CompileCache::snapshotMetrics(obs::MetricsRegistry &reg) const
{
    const CompileCacheStats s = stats();
    reg.counter("serve.cache.compiles").set(s.compiles);
    reg.counter("serve.cache.hits").set(s.hits);
    reg.counter("serve.cache.disk_hits").set(s.diskHits);
    reg.counter("serve.cache.corrupt_fallbacks")
        .set(s.corruptFallbacks);
    const std::uint64_t avoided = s.hits + s.diskHits;
    const std::uint64_t total = avoided + s.compiles;
    reg.gauge("serve.cache.hit_ratio")
        .set(total > 0 ? static_cast<double>(avoided) /
                             static_cast<double>(total)
                       : 0.0);
}

} // namespace serve
} // namespace bcl
