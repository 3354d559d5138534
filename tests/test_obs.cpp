/**
 * @file
 * Tests of the unified observability layer (src/obs/): trace JSON
 * well-formedness and parse-back, span nesting balance per thread,
 * flow-id pairing of channel pickup/deliver across cosim worker
 * threads, histogram bucket math, registry typing, the disabled-path
 * overhead guard, the serving/remote event sites, and — the
 * property everything else leans on — byte-identical workload
 * outputs with tracing on and off.
 *
 * The recorder and registry are process-global singletons, so every
 * test that enables them disables them again before returning (and
 * clears recorded events while all emitting threads are quiescent).
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "platform/cosim.hpp"
#include "serve/pool.hpp"
#include "workloads/workload.hpp"

namespace bcl {
namespace {

// ---------------------------------------------------------------------------
// Mini JSON parser — enough to parse back the recorder's trace files
// and the registry snapshot (objects, arrays, strings, numbers,
// true/false/null). Throws std::runtime_error on malformed input, so
// "parses" doubles as the well-formedness check.
// ---------------------------------------------------------------------------

struct Json
{
    enum class Kind { Null, Bool, Num, Str, Arr, Obj };
    Kind kind = Kind::Null;
    bool b = false;
    double num = 0;
    std::string str;
    std::vector<Json> arr;
    std::map<std::string, Json> obj;

    const Json &
    at(const std::string &key) const
    {
        auto it = obj.find(key);
        if (it == obj.end())
            throw std::runtime_error("missing key " + key);
        return it->second;
    }
    bool has(const std::string &key) const
    {
        return obj.count(key) > 0;
    }
};

class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : s_(text) {}

    Json
    parse()
    {
        Json v = value();
        skipWs();
        if (pos_ != s_.size())
            fail("trailing garbage");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &why)
    {
        throw std::runtime_error("JSON error at byte " +
                                 std::to_string(pos_) + ": " + why);
    }

    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_])))
            pos_++;
    }

    char
    peek()
    {
        if (pos_ >= s_.size())
            fail("unexpected end");
        return s_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        pos_++;
    }

    Json
    value()
    {
        skipWs();
        char c = peek();
        if (c == '{')
            return object();
        if (c == '[')
            return array();
        if (c == '"') {
            Json v;
            v.kind = Json::Kind::Str;
            v.str = string();
            return v;
        }
        if (s_.compare(pos_, 4, "true") == 0) {
            pos_ += 4;
            Json v;
            v.kind = Json::Kind::Bool;
            v.b = true;
            return v;
        }
        if (s_.compare(pos_, 5, "false") == 0) {
            pos_ += 5;
            Json v;
            v.kind = Json::Kind::Bool;
            return v;
        }
        if (s_.compare(pos_, 4, "null") == 0) {
            pos_ += 4;
            return Json{};
        }
        return number();
    }

    Json
    object()
    {
        Json v;
        v.kind = Json::Kind::Obj;
        expect('{');
        skipWs();
        if (peek() == '}') {
            pos_++;
            return v;
        }
        for (;;) {
            skipWs();
            std::string key = string();
            skipWs();
            expect(':');
            v.obj[key] = value();
            skipWs();
            if (peek() == ',') {
                pos_++;
                continue;
            }
            expect('}');
            return v;
        }
    }

    Json
    array()
    {
        Json v;
        v.kind = Json::Kind::Arr;
        expect('[');
        skipWs();
        if (peek() == ']') {
            pos_++;
            return v;
        }
        for (;;) {
            v.arr.push_back(value());
            skipWs();
            if (peek() == ',') {
                pos_++;
                continue;
            }
            expect(']');
            return v;
        }
    }

    std::string
    string()
    {
        expect('"');
        std::string out;
        for (;;) {
            if (pos_ >= s_.size())
                fail("unterminated string");
            char c = s_[pos_++];
            if (c == '"')
                return out;
            if (c == '\\') {
                if (pos_ >= s_.size())
                    fail("bad escape");
                out += s_[pos_++];
                continue;
            }
            out += c;
        }
    }

    Json
    number()
    {
        size_t start = pos_;
        if (peek() == '-')
            pos_++;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '.' || s_[pos_] == 'e' ||
                s_[pos_] == 'E' || s_[pos_] == '+' || s_[pos_] == '-'))
            pos_++;
        if (pos_ == start)
            fail("expected value");
        Json v;
        v.kind = Json::Kind::Num;
        v.num = std::stod(s_.substr(start, pos_ - start));
        return v;
    }

    const std::string &s_;
    size_t pos_ = 0;
};

/** Scoped enable of recorder + registry; restores the disabled
 *  default and clears recorded events on exit (tests only return
 *  once their emitting threads have joined, so clear() is safe). */
class ScopedObs
{
  public:
    ScopedObs()
    {
        obs::trace().clear();
        obs::trace().enable(true);
        obs::metrics().enable(true);
    }
    ~ScopedObs()
    {
        obs::trace().enable(false);
        obs::metrics().enable(false);
        obs::trace().clear();
    }
};

// ---------------------------------------------------------------------------
// Histogram bucket math
// ---------------------------------------------------------------------------

TEST(Histogram, BucketAssignmentAndCounts)
{
    std::atomic<bool> gate{true};
    obs::Histogram h(gate, {1.0, 10.0, 100.0});
    h.observe(0.5);    // bucket 0 (le 1)
    h.observe(1.0);    // bucket 0 (inclusive upper edge)
    h.observe(5.0);    // bucket 1
    h.observe(100.0);  // bucket 2
    h.observe(1e6);    // overflow
    EXPECT_EQ(h.count(), 5u);
    EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 5.0 + 100.0 + 1e6);
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(2), 1u);
    EXPECT_EQ(h.bucketCount(3), 1u);  // overflow slot
}

TEST(Histogram, PercentileInterpolationAndOverflow)
{
    std::atomic<bool> gate{true};
    obs::Histogram h(gate, {10.0, 20.0});
    // 10 observations in (10, 20]: p50 should land mid-bucket.
    for (int i = 0; i < 10; i++)
        h.observe(15.0);
    double p50 = h.percentile(0.50);
    EXPECT_GE(p50, 10.0);
    EXPECT_LE(p50, 20.0);
    // All mass in the overflow bucket: percentiles report its lower
    // edge (the last finite bound) rather than inventing a value.
    obs::Histogram over(gate, {1.0, 2.0});
    over.observe(50.0);
    EXPECT_DOUBLE_EQ(over.percentile(0.99), 2.0);
    // Empty histogram: 0.
    obs::Histogram empty(gate, {1.0});
    EXPECT_DOUBLE_EQ(empty.percentile(0.5), 0.0);
}

TEST(Histogram, ResetAndGate)
{
    std::atomic<bool> gate{false};
    obs::Histogram h(gate, {1.0});
    h.observe(0.5);  // gate closed: dropped
    EXPECT_EQ(h.count(), 0u);
    gate.store(true);
    h.observe(0.5);
    EXPECT_EQ(h.count(), 1u);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.sum(), 0.0);
    EXPECT_EQ(h.bucketCount(0), 0u);
}

TEST(Histogram, ExponentialBounds)
{
    auto b = obs::Histogram::exponentialBounds(1.0, 2.0, 4);
    ASSERT_EQ(b.size(), 4u);
    EXPECT_DOUBLE_EQ(b[0], 1.0);
    EXPECT_DOUBLE_EQ(b[3], 8.0);
}

// ---------------------------------------------------------------------------
// Registry typing and JSON snapshot
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, TypedAccessorsAndConflicts)
{
    obs::MetricsRegistry reg;
    reg.enable(true);
    reg.counter("a.count").add(3);
    reg.gauge("a.gauge").set(2.5);
    reg.histogram("a.hist", {1.0, 2.0}).observe(1.5);
    EXPECT_EQ(reg.counter("a.count").value(), 3u);
    EXPECT_DOUBLE_EQ(reg.gauge("a.gauge").value(), 2.5);
    EXPECT_EQ(&reg.counter("a.count"), &reg.counter("a.count"));
    EXPECT_THROW(reg.gauge("a.count"), std::logic_error);
    EXPECT_THROW(reg.counter("a.hist"), std::logic_error);
    EXPECT_THROW(reg.histogram("a.gauge"), std::logic_error);
    reg.reset();
    EXPECT_EQ(reg.counter("a.count").value(), 0u);
}

TEST(MetricsRegistry, JsonSnapshotParsesBack)
{
    obs::MetricsRegistry reg;
    reg.enable(true);
    reg.counter("c").set(42);
    reg.gauge("g").set(0.75);
    auto &h = reg.histogram("h", {1.0, 10.0});
    h.observe(0.5);
    h.observe(20.0);

    Json root = JsonParser(reg.toJson()).parse();
    EXPECT_EQ(root.at("c").at("type").str, "counter");
    EXPECT_DOUBLE_EQ(root.at("c").at("value").num, 42.0);
    EXPECT_EQ(root.at("g").at("type").str, "gauge");
    EXPECT_DOUBLE_EQ(root.at("g").at("value").num, 0.75);
    const Json &hist = root.at("h");
    EXPECT_EQ(hist.at("type").str, "histogram");
    EXPECT_DOUBLE_EQ(hist.at("count").num, 2.0);
    ASSERT_EQ(hist.at("buckets").arr.size(), 2u);
    EXPECT_DOUBLE_EQ(hist.at("buckets").arr[0].at("count").num, 1.0);
    EXPECT_DOUBLE_EQ(hist.at("overflow").num, 1.0);
}

TEST(MetricsRegistry, ChannelStatsSnapshotUsesStableNames)
{
    obs::MetricsRegistry reg;
    reg.enable(true);
    ChannelStats st;
    st.messages = 7;
    st.payloadWords = 21;
    st.stallCycles = 100;
    st.stallEvents = 2;
    snapshotChannelStats(reg, "cosim.channel.toHw", st);
    EXPECT_EQ(reg.counter("cosim.channel.toHw.messages").value(), 7u);
    EXPECT_EQ(reg.counter("cosim.channel.toHw.payload_words").value(),
              21u);
    EXPECT_EQ(reg.counter("cosim.channel.toHw.stall_cycles").value(),
              100u);
    EXPECT_EQ(reg.counter("cosim.channel.toHw.stall_events").value(),
              2u);
}

// ---------------------------------------------------------------------------
// Trace recorder: JSON shape, span nesting, flow pairing
// ---------------------------------------------------------------------------

/** Events of one parsed trace, filtered per tid in array order
 *  (array order preserves per-thread append order). */
std::map<double, std::vector<Json>>
eventsByTid(const Json &root)
{
    std::map<double, std::vector<Json>> by;
    for (const Json &e : root.at("traceEvents").arr) {
        if (e.at("ph").str == "M")
            continue;
        by[e.at("tid").num].push_back(e);
    }
    return by;
}

TEST(TraceRecorder, JsonWellFormedAndSpansBalancePerThread)
{
    ScopedObs on;
    obs::trace().setThreadName("test.main");
    {
        obs::TraceSpan outer("outer", "test");
        obs::TraceSpan inner("inner", "test", "k", 7);
        obs::trace().instant("mark", "test");
    }
    std::thread t([] {
        obs::trace().setThreadName("test.worker");
        for (int i = 0; i < 3; i++) {
            obs::TraceSpan s("worker-span", "test");
            obs::trace().instant("tick", "test", "i", i);
        }
    });
    t.join();

    Json root = JsonParser(obs::trace().toJson()).parse();

    // Thread-name metadata made it out.
    int named = 0;
    for (const Json &e : root.at("traceEvents").arr) {
        if (e.at("ph").str == "M") {
            EXPECT_EQ(e.at("name").str, "thread_name");
            named++;
        }
    }
    EXPECT_GE(named, 2);

    // Per thread: B/E balance exactly, depth never goes negative
    // (events appear in per-thread append order).
    for (const auto &[tid, events] : eventsByTid(root)) {
        int depth = 0;
        for (const Json &e : events) {
            const std::string &ph = e.at("ph").str;
            if (ph == "B")
                depth++;
            else if (ph == "E") {
                depth--;
                ASSERT_GE(depth, 0) << "tid " << tid;
            }
        }
        EXPECT_EQ(depth, 0) << "tid " << tid;
    }

    // The instant carries its arg and the thread scope marker.
    bool saw_mark = false;
    for (const Json &e : root.at("traceEvents").arr) {
        if (e.at("ph").str == "i" && e.at("name").str == "mark") {
            saw_mark = true;
            EXPECT_EQ(e.at("s").str, "t");
        }
        if (e.at("ph").str == "B" && e.at("name").str == "inner") {
            EXPECT_DOUBLE_EQ(e.at("args").at("k").num, 7.0);
        }
    }
    EXPECT_TRUE(saw_mark);
}

TEST(TraceRecorder, FlowIdsPairAcrossThreads)
{
    ScopedObs on;
    const std::uint64_t base = obs::TraceRecorder::nextFlowBase();
    std::thread producer([&] {
        for (std::uint64_t i = 1; i <= 5; i++)
            obs::trace().flowStart("msg", "test", base + i);
    });
    producer.join();
    std::thread consumer([&] {
        for (std::uint64_t i = 1; i <= 5; i++)
            obs::trace().flowEnd("msg", "test", base + i);
    });
    consumer.join();

    Json root = JsonParser(obs::trace().toJson()).parse();
    std::multiset<std::string> starts, ends;
    for (const Json &e : root.at("traceEvents").arr) {
        if (e.at("ph").str == "s")
            starts.insert(e.at("id").str);
        if (e.at("ph").str == "f") {
            ends.insert(e.at("id").str);
            EXPECT_EQ(e.at("bp").str, "e");
        }
    }
    EXPECT_EQ(starts.size(), 5u);
    EXPECT_EQ(starts, ends);
}

TEST(TraceRecorder, LongNamesAreTruncatedNotCorrupted)
{
    ScopedObs on;
    std::string longname(200, 'x');
    obs::trace().instant(longname.c_str(), "test");
    Json root = JsonParser(obs::trace().toJson()).parse();
    bool found = false;
    for (const Json &e : root.at("traceEvents").arr) {
        if (e.at("ph").str == "i") {
            found = true;
            EXPECT_LT(e.at("name").str.size(),
                      obs::TraceEvent::kNameBytes);
        }
    }
    EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------------
// End-to-end: a traced parallel cosim run emits channel flows, slice
// spans and epoch spans — and its outputs match the untraced run.
// ---------------------------------------------------------------------------

TEST(TracedCosim, PartitionedRunEmitsFlowsSlicesAndEpochs)
{
    ScopedObs on;
    CosimConfig cfg;
    cfg.threads = 2;  // parallel engine: worker slice spans
    RunResult r = runWorkload("vorbis_B", {.frames = 2}, cfg);
    ASSERT_FALSE(r.output.empty());
    ASSERT_GT(r.messages, 0u);

    Json root = JsonParser(obs::trace().toJson()).parse();
    std::multiset<std::string> starts, ends;
    int slices = 0, epochs = 0;
    for (const Json &e : root.at("traceEvents").arr) {
        const std::string &ph = e.at("ph").str;
        if (ph == "s")
            starts.insert(e.at("id").str);
        if (ph == "f")
            ends.insert(e.at("id").str);
        if (ph == "B" && e.at("cat").str == "cosim.slice")
            slices++;
        if (ph == "B" && e.at("name").str == "epoch")
            epochs++;
    }
    // Every picked-up message was delivered: ids pair exactly, one
    // flow per message.
    EXPECT_FALSE(starts.empty());
    EXPECT_EQ(starts, ends);
    EXPECT_EQ(starts.size(), static_cast<size_t>(r.messages));
    EXPECT_GT(slices, 0);
    EXPECT_GT(epochs, 0);
    // The registry side saw epoch wall times and channel occupancy.
    EXPECT_GT(obs::metrics().histogram("cosim.epoch.wall_us").count(),
              0u);
}

TEST(TracedCosim, OutputsIdenticalWithTracingOnAndOff)
{
    // Reference: tracing fully off (the process default).
    RunResult off = runWorkload("vorbis_B", {.frames = 2});
    std::vector<std::uint32_t> pcm_off = off.output;
    std::uint64_t cycles_off = off.fpgaCycles;
    {
        ScopedObs on;
        RunResult traced = runWorkload("vorbis_B", {.frames = 2});
        EXPECT_EQ(traced.output, pcm_off);
        EXPECT_EQ(traced.fpgaCycles, cycles_off);
        EXPECT_GT(obs::trace().eventCount(), 0u);
    }
    // And once more after disabling, to catch any state leak.
    RunResult again = runWorkload("vorbis_B", {.frames = 2});
    EXPECT_EQ(again.output, pcm_off);
    EXPECT_EQ(again.fpgaCycles, cycles_off);
}

TEST(TracedCosim, SnapshotPublishesCosimMetrics)
{
    ScopedObs on;
    // Build a cosim directly so we can snapshot it: partition B, tiny
    // run, sequential (snapshot is a quiesced-state operation).
    const NamedWorkload &b = findWorkload("vorbis_B");
    const WorkloadSize size{.frames = 1};
    PartitionResult parts =
        partitionWorkload(*b.workload, b.partition->domains, size, 7);
    CosimConfig cfg;
    cfg.threads = 1;
    cfg.swBackend = SwBackend::Interpreted;
    CoSim cs(parts, cfg);
    StreamSpec spec = b.workload->stream(parts, size, 7);
    cs.setDriver("SW", spec.driver);
    cs.run([&](CoSim &c) { return spec.progress(c) >= 1; });

    obs::MetricsRegistry reg;
    reg.enable(true);
    cs.snapshotMetrics(reg);
    EXPECT_GT(reg.gauge("cosim.fpga_cycles").value(), 0.0);
    Json root = JsonParser(reg.toJson()).parse();
    bool saw_channel = false;
    for (const auto &[name, v] : root.obj) {
        if (name.rfind("cosim.channel.", 0) == 0 &&
            name.find(".messages") != std::string::npos) {
            saw_channel = true;
            EXPECT_GT(v.at("value").num, 0.0) << name;
        }
    }
    EXPECT_TRUE(saw_channel);
}

// ---------------------------------------------------------------------------
// Serving and remote sites: with the global switch on, every session
// and every remote slice is observed (there is no per-object gate).
// ---------------------------------------------------------------------------

TEST(TracedServing, SessionsAndRemoteSlicesAreObserved)
{
    ScopedObs on;
    const NamedWorkload &b = findWorkload("vorbis_B");
    const WorkloadSize size{.frames = 2};
    const std::uint64_t seed = b.workload->defaultSeed;

    // The remote leg first: its partition child forks before this
    // test starts any pool threads.
    obs::Histogram &slice_us =
        obs::metrics().histogram("cosim.remote.slice_us");
    const std::uint64_t slices_before = slice_us.count();
    CosimConfig remote;
    remote.defaultTransport = TransportKind::SharedMem;
    remote.transportTimeoutMs = 60000;
    ASSERT_FALSE(runWorkload("vorbis_B", size, remote).output.empty());
    EXPECT_GT(slice_us.count(), slices_before);

    obs::Histogram &frame_ms =
        obs::metrics().histogram("serve.session.frame_ms");
    const std::uint64_t frames_before = frame_ms.count();
    PartitionResult parts =
        partitionWorkload(*b.workload, b.partition->domains, size, seed);
    {
        serve::SessionManagerOptions mopts;
        mopts.workers = 2;
        serve::SessionManager mgr(mopts);
        for (int i = 0; i < 2; i++) {
            mgr.startSession(parts, CosimConfig{},
                             b.workload->stream(parts, size, seed));
        }
        mgr.drain();
    }
    // One frame latency per served quantum, at least one per session.
    EXPECT_GE(frame_ms.count() - frames_before, 2u);

    std::map<std::string, int> serve_events;
    Json root = JsonParser(obs::trace().toJson()).parse();
    for (const Json &e : root.at("traceEvents").arr) {
        if (e.has("cat") && e.at("cat").str == "serve")
            serve_events[e.at("ph").str + " " + e.at("name").str]++;
    }
    EXPECT_EQ(serve_events["i session.queued"], 2);
    EXPECT_GE(serve_events["B session.advance"], 2);
    EXPECT_EQ(serve_events["i session.done"], 2);
}

// ---------------------------------------------------------------------------
// Disabled-path overhead guard
// ---------------------------------------------------------------------------

TEST(Overhead, DisabledEventSitesAreNearFree)
{
    ASSERT_FALSE(obs::trace().enabled());
    ASSERT_FALSE(obs::metrics().enabled());
    obs::Counter &c = obs::metrics().counter("overhead.test");
    obs::Histogram &h = obs::metrics().histogram(
        "overhead.test.hist", {1.0, 2.0});

    constexpr int kIters = 200000;
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kIters; i++) {
        c.add(1);
        h.observe(1.5);
        obs::trace().instant("x", "t");
        obs::trace().begin("x", "t");
        obs::trace().end("x", "t");
    }
    auto t1 = std::chrono::steady_clock::now();
    const double ns_per_site =
        std::chrono::duration<double, std::nano>(t1 - t0).count() /
        (kIters * 5.0);

    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(obs::trace().eventCount(), 0u);
    // A disabled site is one relaxed load + branch — single-digit ns.
    // The bound is deliberately loose (sanitizer builds, shared CI
    // boxes) while still catching an accidental lock or allocation,
    // which would cost microseconds.
    EXPECT_LT(ns_per_site, 500.0);
}

} // namespace
} // namespace bcl
