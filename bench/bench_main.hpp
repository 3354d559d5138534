/**
 * @file
 * The shared front end of the benches (every one except the two
 * Google Benchmark binaries). Each workload bench names the registered
 * workloads it runs (workloads/workload.hpp) and hands everything
 * else to one BenchMain, which
 *
 *   - parses the shared flags the bench honours plus its own, and
 *     rejects anything else (usage on stderr, exit 2) — an unknown or
 *     non-numeric flag never silently runs the default sweep;
 *   - applies the fallbacks: --hw-backend compiled without a host
 *     compiler runs interpreted, --transport tcp without loopback TCP
 *     runs shm (the effective choice is what the JSON records);
 *   - owns the CompileCache behind every compiled-backend config;
 *   - writes the --json document stamped with the host
 *     ({git_sha, build_type, hardware_concurrency, cpu}) and the
 *     --trace timeline;
 *   - turns "outputs differ" (a LIBDN violation) into exit code 1.
 *
 * Shared flags:
 *   --frames N               Vorbis frames per run
 *   --ray-size N             ray image side (N x N pixels)
 *   --ray-prims N            ray scene primitives
 *   --platform FILE|PRESET   platform model (a configs/ file, ml507,
 *                            pcie); outputs never change, cycles do
 *   --hw-backend interpreted|compiled
 *                            hardware clock: ClockSim or the
 *                            generated clock edge (cycle-exact)
 *   --transport inthread|shm|tcp
 *                            hardware domains in-thread, in forked
 *                            children over shared-memory rings, or
 *                            over framed loopback TCP
 *   --json FILE              machine-readable results, folded into
 *                            BENCH_runtime.json by
 *                            scripts/bench_report.py
 *   --trace FILE             Chrome trace_event timeline (Perfetto,
 *                            chrome://tracing)
 */
#ifndef BCL_BENCH_BENCH_MAIN_HPP
#define BCL_BENCH_BENCH_MAIN_HPP

#include <chrono>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "serve/compile_cache.hpp"
#include "workloads/workload.hpp"

namespace bcl {
namespace bench {

/** An ordered JSON document (keys keep insertion order). */
class Json
{
  public:
    Json() : text_("null") {}
    Json(bool b) : text_(b ? "true" : "false") {}
    Json(double v);
    Json(const char *s);
    Json(const std::string &s);
    template <typename T,
              typename = std::enable_if_t<std::is_integral_v<T>>>
    Json(T v) : text_(std::to_string(v))
    {
    }

    static Json object();
    static Json array();
    /** Pre-rendered JSON text (a metrics-registry snapshot). */
    static Json raw(std::string text);

    /** Object member. */
    Json &set(const std::string &key, Json v);
    /** Array element. */
    Json &push(Json v);

    std::string dump(int indent = 0) const;

  private:
    enum class Kind { Scalar, Object, Array };
    Kind kind_ = Kind::Scalar;
    std::string text_;
    std::vector<std::pair<std::string, Json>> items_;
};

/** CosimConfig::compileProvider's type. */
using CompileProvider = decltype(CosimConfig::compileProvider);

/** The shared flags; a bench ORs together the ones it honours. */
enum SharedFlag : unsigned
{
    kFrames = 1u << 0,
    kRaySize = 1u << 1,
    kRayPrims = 1u << 2,
    kPlatform = 1u << 3,
    kHwBackend = 1u << 4,
    kTransport = 1u << 5,
    kJson = 1u << 6,
    kTrace = 1u << 7,
};

/** See file comment. */
class BenchMain
{
  public:
    /** @p shared: the SharedFlag set the bench honours. */
    BenchMain(std::string bench, unsigned shared);

    /** A bench-specific flag taking a value (@p metavar in usage). */
    void option(const std::string &flag, int *dst,
                const std::string &metavar = "N");
    void option(const std::string &flag, std::string *dst,
                const std::string &metavar);

    /** Parse @p argv, then apply the fallbacks. Prints usage and
     *  exits 2 on an unknown flag, a missing or non-numeric value. */
    void parse(int argc, char **argv);

    // -- parsed values (set defaults before parse()) -----------------
    WorkloadSize size;           ///< --frames, --ray-size, --ray-prims
    std::string platformArg;     ///< --platform as given ("" = ml507)
    PlatformSpec platform;       ///< --platform resolved
    std::string hwBackend = "interpreted";
    std::string transport = "inthread";  ///< effective, after fallback
    TransportKind transportKind = TransportKind::InThread;
    std::string jsonPath;
    std::string tracePath;

    serve::CompileCache &cache() { return cache_; }

    /** A compile provider sharing cache() (one compile per artifact
     *  across the whole bench). */
    CompileProvider provider();

    /** Cosim config of the parsed flags: platform, transport and
     *  hardware backend (compiled through provider()). */
    CosimConfig config();

    /** @p text as an int; a usage error naming @p flag otherwise. */
    int number(const std::string &flag, const std::string &text) const;

    /** Write @p doc (plus "host") to --json and the timeline to
     *  --trace. @return the exit code: 0 when @p outputs_match, else
     *  1 (a LIBDN violation). */
    int finish(Json doc, bool outputs_match);

  private:
    /** Print @p msg plus the usage line to stderr and exit 2. */
    [[noreturn]] void usageError(const std::string &msg) const;

    struct Option
    {
        int *num = nullptr;
        std::string *str = nullptr;
        std::string metavar;
    };
    std::string bench_;
    std::map<std::string, Option> options_;
    std::vector<std::string> order_;  ///< flags in declaration order
    serve::CompileCache cache_;
};

/** Fall back to "interpreted" when @p backend is "compiled" but no
 *  host compiler exists; @p what names the backend in the notice. */
void compilerFallback(std::string &backend, const char *what);

/** Wall-clock milliseconds since @p t0. */
double msSince(std::chrono::steady_clock::time_point t0);

} // namespace bench
} // namespace bcl

#endif // BCL_BENCH_BENCH_MAIN_HPP
