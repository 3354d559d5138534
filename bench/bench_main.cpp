#include "bench_main.hpp"

#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/logging.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "platform/net_transport.hpp"

namespace bcl {
namespace bench {

namespace {

std::string
quote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
trimmed(std::string s)
{
    const char *ws = " \t\r\n";
    s.erase(0, s.find_first_not_of(ws));
    s.erase(s.find_last_not_of(ws) + 1);
    return s;
}

/** {git_sha, build_type, hardware_concurrency, cpu} of this run. */
Json
hostStamp()
{
    std::string sha = "unknown";
    // The commit, suffixed "-dirty" when the tree has local changes.
    if (FILE *p = popen("git -C \"" BCL_SOURCE_DIR "\" describe "
                        "--always --dirty --abbrev=40 --match=NONE "
                        "2>/dev/null",
                        "r")) {
        char buf[80] = {};
        if (std::fgets(buf, sizeof buf, p) && trimmed(buf).size())
            sha = trimmed(buf);
        pclose(p);
    }
    std::string cpu = "unknown";
    std::ifstream info("/proc/cpuinfo");
    for (std::string line; std::getline(info, line);) {
        if (line.rfind("model name", 0) == 0) {
            cpu = trimmed(line.substr(line.find(':') + 1));
            break;
        }
    }
    return Json::object()
        .set("git_sha", sha)
        .set("build_type", BCL_BUILD_TYPE)
        .set("hardware_concurrency", std::thread::hardware_concurrency())
        .set("cpu", cpu);
}

} // namespace

// ---------------------------------------------------------------------------
// Json
// ---------------------------------------------------------------------------

Json::Json(double v)
{
    if (!std::isfinite(v)) {
        text_ = "null";
    } else if (std::fabs(v) >= 1e6 && std::fabs(v) < 1e15) {
        // Large magnitudes (ns, cycles/sec) as plain integers.
        text_ = std::to_string(std::llround(v));
    } else {
        // The default stream format (6 significant digits).
        std::ostringstream os;
        os << v;
        text_ = os.str();
    }
}

Json::Json(const char *s) : text_(quote(s)) {}

Json::Json(const std::string &s) : text_(quote(s)) {}

Json
Json::object()
{
    Json j;
    j.kind_ = Kind::Object;
    return j;
}

Json
Json::array()
{
    Json j;
    j.kind_ = Kind::Array;
    return j;
}

Json
Json::raw(std::string text)
{
    Json j;
    j.text_ = std::move(text);
    return j;
}

Json &
Json::set(const std::string &key, Json v)
{
    items_.emplace_back(key, std::move(v));
    return *this;
}

Json &
Json::push(Json v)
{
    items_.emplace_back("", std::move(v));
    return *this;
}

std::string
Json::dump(int indent) const
{
    if (kind_ == Kind::Scalar)
        return text_;
    const bool obj = kind_ == Kind::Object;
    if (items_.empty())
        return obj ? "{}" : "[]";
    const std::string pad(static_cast<size_t>(indent) + 2, ' ');
    std::string out = obj ? "{\n" : "[\n";
    for (size_t i = 0; i < items_.size(); i++) {
        out += pad;
        if (obj)
            out += quote(items_[i].first) + ": ";
        out += items_[i].second.dump(indent + 2);
        out += i + 1 < items_.size() ? ",\n" : "\n";
    }
    return out + std::string(static_cast<size_t>(indent), ' ') +
           (obj ? "}" : "]");
}

// ---------------------------------------------------------------------------
// BenchMain
// ---------------------------------------------------------------------------

BenchMain::BenchMain(std::string bench, unsigned shared)
    : bench_(std::move(bench))
{
    if (shared & kFrames)
        option("--frames", &size.frames);
    if (shared & kRaySize)
        option("--ray-size", &size.side);
    if (shared & kRayPrims)
        option("--ray-prims", &size.prims);
    if (shared & kPlatform)
        option("--platform", &platformArg, "FILE|PRESET");
    if (shared & kHwBackend)
        option("--hw-backend", &hwBackend, "interpreted|compiled");
    if (shared & kTransport)
        option("--transport", &transport, "inthread|shm|tcp");
    if (shared & kJson)
        option("--json", &jsonPath, "FILE");
    if (shared & kTrace)
        option("--trace", &tracePath, "FILE");
}

void
BenchMain::option(const std::string &flag, int *dst,
                  const std::string &metavar)
{
    options_[flag] = {dst, nullptr, metavar};
    order_.push_back(flag);
}

void
BenchMain::option(const std::string &flag, std::string *dst,
                  const std::string &metavar)
{
    options_[flag] = {nullptr, dst, metavar};
    order_.push_back(flag);
}

void
BenchMain::usageError(const std::string &msg) const
{
    std::string usage = "usage: " + bench_;
    for (const std::string &flag : order_)
        usage += " [" + flag + " " + options_.at(flag).metavar + "]";
    std::fprintf(stderr, "%s: %s\n%s\n", bench_.c_str(), msg.c_str(),
                 usage.c_str());
    std::exit(2);
}

int
BenchMain::number(const std::string &flag, const std::string &text) const
{
    char *end = nullptr;
    long n = std::strtol(text.c_str(), &end, 10);
    if (text.empty() || *end != '\0' || n < INT_MIN || n > INT_MAX)
        usageError(flag + " expects a number, got '" + text + "'");
    return static_cast<int>(n);
}

void
BenchMain::parse(int argc, char **argv)
{
    for (int i = 1; i < argc; i++) {
        auto it = options_.find(argv[i]);
        if (it == options_.end())
            usageError(std::string("unknown flag '") + argv[i] + "'");
        if (i + 1 >= argc)
            usageError(std::string(argv[i]) + " needs a value");
        const char *value = argv[++i];
        if (it->second.str)
            *it->second.str = value;
        else
            *it->second.num = number(it->first, value);
    }

    if (hwBackend != "interpreted" && hwBackend != "compiled")
        usageError("unknown --hw-backend '" + hwBackend + "'");
    try {
        transportKind = parseTransportKind(transport);
    } catch (const FatalError &e) {
        usageError(e.what());
    }
    compilerFallback(hwBackend, "hardware");
    if (transportKind == TransportKind::Tcp && !netTransportAvailable()) {
        std::printf("loopback TCP unavailable in this sandbox — "
                    "falling back to the shm transport\n");
        transportKind = TransportKind::SharedMem;
    }
    transport = transportName(transportKind);
    platform = platformArg.empty() ? PlatformSpec::ml507()
                                   : resolvePlatform(platformArg);
    if (!tracePath.empty()) {
        obs::trace().enable(true);
        obs::metrics().enable(true);  // occupancy/latency histograms
    }
}

CompileProvider
BenchMain::provider()
{
    return [this](const ElabProgram &p, const GenccOptions &o) {
        return cache_.get(p, o);
    };
}

CosimConfig
BenchMain::config()
{
    CosimConfig cfg;
    cfg.platform = platform;
    cfg.defaultTransport = transportKind;
    cfg.transportTimeoutMs = 60000;
    if (hwBackend == "compiled") {
        cfg.hwBackend = HwBackend::Compiled;
        cfg.compileProvider = provider();
    }
    return cfg;
}

int
BenchMain::finish(Json doc, bool outputs_match)
{
    if (!jsonPath.empty()) {
        doc.set("host", hostStamp());
        std::ofstream out(jsonPath);
        out << doc.dump() << "\n";
        if (!out)
            fatal("cannot write " + jsonPath);
        std::printf("wrote %s\n", jsonPath.c_str());
    }
    if (!tracePath.empty()) {
        obs::trace().writeJson(tracePath);
        std::printf("trace (%llu events) written to %s — load in "
                    "Perfetto or chrome://tracing\n",
                    static_cast<unsigned long long>(
                        obs::trace().eventCount()),
                    tracePath.c_str());
    }
    return outputs_match ? 0 : 1;
}

void
compilerFallback(std::string &backend, const char *what)
{
    if (backend == "compiled" &&
        !CompiledArtifact::hostCompilerAvailable()) {
        std::printf("no host C++ compiler — falling back to the "
                    "interpreted %s backend\n",
                    what);
        backend = "interpreted";
    }
}

double
msSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace bench
} // namespace bcl
