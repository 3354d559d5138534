/**
 * @file
 * Measurement driver of the repository benchmark (see README.md next
 * to this file). One process runs one workload:
 *
 *   vorbis_stream_split  Vorbis back end, IMDCT/IFFT/Window each in its
 *                        own HW domain, compiled HW clock, interpreted
 *                        SW, sequential engine (threads = 1)
 *   ray_roundtrip        ray partition B, interpreted SW + ClockSim,
 *                        sequential engine (threads = 1)
 *   ray_roundtrip_shm    the same program with the HW domain in a
 *                        forked child over shared-memory rings
 *   serve_fleet          SessionManager serving many full-software
 *                        compiled Vorbis streams from one artifact
 *
 * Every layer is reached through its public entry points only; the
 * driver wraps each call in its own obs::TraceSpan (category "bench")
 * and a steady_clock timer, so the traced run's Chrome trace holds
 * both these spans and the ones the program already emits
 * (cosim.slice, session.advance, gencc.compile).
 *
 * The co-simulations run the sequential engine. On a shared virtual
 * machine the epoch-parallel engine (threads = 0) waits at a barrier
 * every few tens of microseconds for whichever vCPU the hypervisor
 * took away, so its throughput moved by 3x between runs of one seed;
 * a single thread only loses the time actually taken from it.
 *
 * Structure of a run: inputs and native references are made once from
 * the seed; the full cold set-up (program build, elaborate, domain
 * inference, partition, artifact resolve with a fresh CompileCache,
 * CoSim/Session construction) is repeated (--setups, --setup-seconds);
 * unmeasured warm-up passes run for --warmup-seconds; then measured
 * passes repeat until --seconds have elapsed. A pass is the whole
 * input through a fresh CoSim (or a fresh fleet of sessions); for the
 * ray workloads it is one scene, round robin over --scenes scenes, and
 * a round over all scenes is one throughput and latency sample. Every
 * pass's output is compared with the native reference.
 *
 * With --trace-out, the passes above run untraced and are followed by
 * a traced phase (one set-up plus traced passes, tracing and metrics
 * on) whose Chrome trace is written to the given path; run.py turns
 * it into the per-layer ledger.
 *
 * The last stdout line is "PERFBENCH_RESULT <json>" with the raw
 * measurements; run.py derives the reported metrics from it.
 */
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/domains.hpp"
#include "core/elaborate.hpp"
#include "core/partition.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "ray/native.hpp"
#include "ray/partitions.hpp"
#include "serve/pool.hpp"
#include "vorbis/native.hpp"
#include "vorbis/partitions.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_ID
#define PERFBENCH_CXX_ID "unknown"
#endif

using namespace bcl;

namespace {

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/** Nearest-rank percentile of an unsorted sample. */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t idx = static_cast<size_t>(q * static_cast<double>(v.size()));
    return v[std::min(idx, v.size() - 1)];
}

/** Workload sizes; defaults per workload, overridable for tuning. */
struct Sizes
{
    int frames = 0;    ///< Vorbis frames per stream
    int size = 0;      ///< ray image width = height
    int prims = 0;     ///< ray scene primitives
    int sessions = 0;  ///< serve_fleet concurrent streams
    int scenes = 0;    ///< ray scenes per pass
};

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    int setups = 3;           ///< minimum cold set-ups
    double setupSeconds = 1;  ///< ... and at least this much set-up time
    double warmupSeconds = 1;  ///< unmeasured passes before timing
    int minPasses = 3;
    std::string traceOut;  ///< non-empty: add the traced phase
    bool flipReference = false;
    Sizes sizes;
};

/** Everything one phase (untraced or traced) measured. */
struct Recorder
{
    std::vector<double> setupS;
    /** Per-set-up phase times and counts (last set-up wins). */
    std::map<std::string, double> setup;
    std::vector<double> itemsPerS, simCyclesPerS, fpgaCycles;
    /** Item latencies of the pass in progress, and each finished
     *  pass's p50/p99 of them. */
    std::vector<double> passLatency, latP50, latP99;
    std::uint64_t latSamples = 0;
    /** Additive per-pass counters and times, summed over passes. */
    std::map<std::string, double> sums;
    /** Domain name -> "sw" | "hw" | "remote". */
    std::map<std::string, std::string> domains;
    /** serve_fleet traced phase: per-session quantum latencies. */
    std::map<int, std::vector<double>> sessionLatencies;
    int passes = 0;
    std::uint64_t attempted = 0, failed = 0;
    std::vector<std::string> failures;

    void
    fail(const std::string &what)
    {
        failed++;
        if (failures.size() < 8)
            failures.push_back(what);
    }
};

/**
 * Bench-side span: one obs::TraceSpan (category "bench") plus a
 * steady_clock timer that adds the elapsed ms to @p sink when the
 * scope ends.
 */
class Phase
{
  public:
    Phase(const char *name, double &sink)
        : span_(name, "bench"), sink_(sink), t0_(Clock::now())
    {
    }

    Phase(const Phase &) = delete;
    Phase &operator=(const Phase &) = delete;

    ~Phase() { sink_ += msSince(t0_); }

  private:
    obs::TraceSpan span_;
    double &sink_;
    Clock::time_point t0_;
};

/** The elaborated, partitioned program one set-up produces. */
struct Built
{
    ElabProgram elab;
    PartitionResult parts;
};

/** core: builder output -> elaborate -> inferDomains -> partition,
 *  each step's time added to @p rec's set-up map. */
template <class BuildFn>
std::unique_ptr<Built>
buildAndPartition(Recorder &rec, BuildFn &&build)
{
    auto out = std::make_unique<Built>();
    double &build_ms = rec.setup["core.build_ms"];
    double &elab_ms = rec.setup["core.elaborate_ms"];
    double &infer_ms = rec.setup["core.infer_domains_ms"];
    double &part_ms = rec.setup["core.partition_ms"];
    Program prog;
    {
        Phase p("core.build", build_ms);
        prog = build();
    }
    {
        Phase p("core.elaborate", elab_ms);
        out->elab = elaborate(prog);
    }
    DomainAssignment doms;
    {
        Phase p("core.infer_domains", infer_ms);
        doms = inferDomains(out->elab);
    }
    {
        Phase p("core.partition", part_ms);
        out->parts = partitionProgram(out->elab, doms);
    }
    return out;
}

/** Copy the per-pass counters every co-simulation exposes. */
void
recordCosimStats(Recorder &rec, const CoSim &cs, const CosimConfig &cfg,
                 const PartitionResult &parts)
{
    auto &s = rec.sums;
    for (const auto &part : parts.parts) {
        const std::string &d = part.domain;
        if (cfg.kindOf(d) == DomainKind::Software) {
            rec.domains[d] = "sw";
            continue;
        }
        rec.domains[d] = cfg.transportOf(d) == TransportKind::InThread
                             ? "hw"
                             : "remote";
        if (const HwStats *hw = cs.hwStats(d)) {
            s["hwsim." + d + ".cycles"] += static_cast<double>(hw->cycles);
            s["hwsim." + d + ".busy_cycles"] +=
                static_cast<double>(hw->busyCycles);
            s["hwsim." + d + ".rules_fired"] +=
                static_cast<double>(hw->rulesFired);
        }
    }
    for (const auto &t : cs.channels()) {
        const ChannelStats &st = t->stats();
        const std::string base = "platform.channel." + t->spec().name;
        s[base + ".messages"] += static_cast<double>(st.messages);
        s[base + ".payload_words"] += static_cast<double>(st.payloadWords);
        s[base + ".stall_cycles"] += static_cast<double>(st.stallCycles);
        s[base + ".stall_events"] += static_cast<double>(st.stallEvents);
    }
    for (const auto &u : cs.linkUsage()) {
        const std::string base = "platform.link." + u.from + "_" + u.to;
        s[base + ".busy_cycles"] += static_cast<double>(u.busyCycles);
        s[base + ".grants"] += static_cast<double>(u.grants);
    }
}

void
recordInterpStats(Recorder &rec, const ExecStats &st)
{
    auto &s = rec.sums;
    s["runtime.sw.rules_fired"] += static_cast<double>(st.rulesFired);
    s["runtime.sw.rules_attempted"] +=
        static_cast<double>(st.rulesAttempted);
    s["runtime.sw.work"] += static_cast<double>(st.work);
    s["runtime.sw.wasted_work"] += static_cast<double>(st.wastedWork);
    s["runtime.sw.shadow_copies"] += static_cast<double>(st.shadowCopies);
}

/** Destroy a pass's CoSim under its own span (a remote domain's
 *  child is stopped and reaped here). */
void
teardown(Recorder &rec, std::unique_ptr<CoSim> &cosim)
{
    Phase p("platform.cosim.dtor", rec.sums["platform.cosim.dtor_ms"]);
    cosim.reset();
}

/**
 * Records host time between the k-th item entering the system and the
 * k-th item leaving it, pairing entries and exits in order. Exits (and
 * the ray generator's entries) are sampled by the completion
 * predicate, i.e. once per loop iteration of the engine.
 */
class ItemClock
{
  public:
    void
    observe(std::uint64_t entered, std::uint64_t left)
    {
        const Clock::time_point now = Clock::now();
        while (in_.size() < entered)
            in_.push_back(now);
        while (out_ < left && out_ < in_.size()) {
            lat_.push_back(std::chrono::duration<double, std::milli>(
                               now - in_[out_])
                               .count());
            out_++;
        }
    }

    void
    entered(Clock::time_point t)
    {
        in_.push_back(t);
    }

    const std::vector<double> &latencies() const { return lat_; }

  private:
    std::vector<Clock::time_point> in_;
    size_t out_ = 0;
    std::vector<double> lat_;
};

/** Driver-step time of one Vorbis stream; touched only by the thread
 *  that runs the stream's SW domain. */
struct StepTimer
{
    double us = 0;
    double calls = 0;
    ItemClock *clock = nullptr;  ///< if set, told when a frame is accepted
};

/** The library's Vorbis stream driver with a timer around each step
 *  (framing plus the `input` root-method call). */
SwDriver
timedStreamDriver(const std::shared_ptr<vorbis::VorbisStreamState> &state,
                  int push, std::shared_ptr<StepTimer> timer)
{
    SwDriver d = vorbis::makeVorbisStreamDriver(state, push);
    d.step = [step = std::move(d.step), state,
              timer](SwPort &port) -> std::uint64_t {
        const size_t fed = state->fed;
        const Clock::time_point t0 = Clock::now();
        const std::uint64_t work = step(port);
        const Clock::time_point t1 = Clock::now();
        timer->us += std::chrono::duration<double, std::micro>(t1 - t0)
                         .count();
        timer->calls += 1;
        if (timer->clock && state->fed > fed)
            timer->clock->entered(t1);
        return work;
    };
    return d;
}

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Seeded inputs plus native references (once per process). */
    virtual void prepare(Recorder &rec) = 0;

    /** One full cold set-up; leaves what pass 1 needs. */
    virtual void setup(Recorder &rec) = 0;

    /** Run one unit of the input and check it. */
    virtual void pass(Recorder &rec) = 0;

    /** Passes that together cover the whole input once. */
    virtual int passesPerInput() const { return 1; }

    /** Called between the warm-up and the measured passes. */
    virtual void startMeasuring() {}

    /** True when a pass runs on the calling thread alone. */
    virtual bool singleThreaded() const { return false; }
};

/**
 * Moves the calling thread to the next allowed CPU before each pass of
 * a single-threaded workload, so every run samples every CPU alike. On
 * a shared virtual machine each vCPU's speed follows its neighbours'
 * load for seconds at a time, and a thread left alone stays on one
 * vCPU: single-threaded throughput then moved by 30% between runs of
 * one seed. The original mask is restored on destruction.
 */
class CpuRotation
{
  public:
    explicit CpuRotation(bool on)
    {
        CPU_ZERO(&all_);
        if (!on || sched_getaffinity(0, sizeof all_, &all_) != 0)
            return;
        for (int c = 0; c < CPU_SETSIZE; c++)
            if (CPU_ISSET(c, &all_))
                cpus_.push_back(c);
    }

    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    ~CpuRotation()
    {
        if (!cpus_.empty())
            sched_setaffinity(0, sizeof all_, &all_);
    }

    void
    next()
    {
        if (cpus_.empty())
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[next_++ % cpus_.size()], &one);
        sched_setaffinity(0, sizeof one, &one);
    }

  private:
    cpu_set_t all_;
    std::vector<int> cpus_;
    size_t next_ = 0;
};

/** Time @p fn as the timed region of a pass; an exception (deadlock,
 *  dead remote child, failed session) is recorded as a failure. */
template <class Fn>
bool
timedRun(Recorder &rec, const char *label, double &run_ms, Fn &&fn)
{
    try {
        Phase p(label, run_ms);
        fn();
        return true;
    } catch (const std::exception &e) {
        rec.fail(std::string(label) + ": " + e.what());
        return false;
    }
}

/** Close one sample of the whole input: throughput, simulator speed
 *  and the item latency percentiles of the sample. */
void
recordSample(Recorder &rec, double items, double run_ms,
             double fpga_cycles)
{
    rec.latP50.push_back(percentile(rec.passLatency, 0.50));
    rec.latP99.push_back(percentile(rec.passLatency, 0.99));
    rec.latSamples += rec.passLatency.size();
    rec.passLatency.clear();
    rec.itemsPerS.push_back(items / (run_ms / 1e3));
    rec.simCyclesPerS.push_back(fpga_cycles / (run_ms / 1e3));
}

// ---------------------------------------------------------------------------
// vorbis_stream_split
// ---------------------------------------------------------------------------

class VorbisSplit final : public Workload
{
  public:
    VorbisSplit(const Options &o) : opts_(o) {}

    void
    prepare(Recorder &rec) override
    {
        double &in_ms = rec.setup["bench.inputs_ms"] = 0;
        double &ref_ms = rec.setup["bench.oracle_ms"] = 0;
        {
            Phase p("bench.inputs", in_ms);
            stream_ = vorbis::makeVorbisStreamState(opts_.sizes.frames,
                                                    opts_.seed);
        }
        Phase p("bench.oracle", ref_ms);
        reference_ = vorbis::runNativeBackend(stream_->inputs).pcm;
        if (opts_.flipReference && !reference_.empty())
            reference_[reference_.size() / 2] ^= 1;
    }

    void
    setup(Recorder &rec) override
    {
        cosim_.reset();
        built_.reset();
        memo_.clear();
        cache_ = std::make_unique<serve::CompileCache>();
        built_ = buildAndPartition(rec, [] {
            return vorbis::makeVorbisProgram(vorbis::splitVorbisConfig());
        });
        const PartitionPart &sw = built_->parts.part("SW");
        push_ = sw.prog.rootMethod("input");
        audio_ = sw.prog.primByPath("audio");

        cfg_ = CosimConfig{};
        cfg_.hwBackend = HwBackend::Compiled;
        cfg_.threads = 1;
        double &resolve_ms = rec.setup["runtime.gencc.resolve_ms"] = 0;
        double &artifacts = rec.setup["runtime.gencc.artifacts"] = 0;
        // The provider is the bench's own: it times CompileCache::get
        // and memoizes per partition program, so passes after the
        // first construct their CoSim without re-running codegen.
        cfg_.compileProvider = [this, &resolve_ms, &artifacts](
                                   const ElabProgram &p,
                                   const GenccOptions &o) {
            auto it = memo_.find(&p);
            if (it != memo_.end())
                return it->second;
            Phase ph("runtime.gencc.resolve", resolve_ms);
            auto art = cache_->get(p, o);
            artifacts += 1;
            memo_.emplace(&p, art);
            return art;
        };
        double &ctor_ms = rec.setup["platform.cosim.ctor_ms"] = 0;
        {
            Phase p("platform.cosim.ctor", ctor_ms);
            cosim_ = std::make_unique<CoSim>(built_->parts, cfg_);
        }
        // Report construction without the artifact resolve it
        // triggered (that has its own entry).
        ctor_ms -= resolve_ms;
    }

    void
    pass(Recorder &rec) override
    {
        auto &s = rec.sums;
        if (!cosim_) {
            Phase p("platform.cosim.ctor", s["platform.cosim.ctor_ms"]);
            cosim_ = std::make_unique<CoSim>(built_->parts, cfg_);
        }
        CoSim &cs = *cosim_;
        const size_t nframes = stream_->inputs.size();
        stream_->fed = 0;
        ItemClock clock;
        auto timer = std::make_shared<StepTimer>();
        timer->clock = &clock;
        cs.setDriver("SW", timedStreamDriver(stream_, push_, timer));

        std::uint64_t cycles = 0;
        double run_ms = 0;
        const bool ok = timedRun(rec, "platform.cosim.run", run_ms, [&] {
            cycles = cs.run([&](CoSim &c) {
                const size_t out = c.storeOf("SW").at(audio_).queue.size();
                clock.observe(0, out);
                return out == nframes;
            });
        });
        s["platform.cosim.run_ms"] += run_ms;
        s["runtime.sw.driver_call_us"] += timer->us;
        s["runtime.sw.driver_calls"] += timer->calls;
        rec.attempted++;
        if (ok) {
            double check_ms = 0;
            Phase p("bench.check", check_ms);
            if (vorbis::extractPcm(cs, audio_) != reference_)
                rec.fail("vorbis_stream_split: PCM differs from "
                         "runNativeBackend");
            recordInterpStats(rec, cs.swInterp().stats());
            recordCosimStats(rec, cs, cfg_, built_->parts);
            rec.passLatency = clock.latencies();
            rec.passes++;
            recordSample(rec, static_cast<double>(nframes), run_ms,
                         static_cast<double>(cycles));
            rec.fpgaCycles.push_back(static_cast<double>(cycles));
        }
        teardown(rec, cosim_);
    }

    bool singleThreaded() const override { return true; }

  private:
    Options opts_;
    std::shared_ptr<vorbis::VorbisStreamState> stream_;
    std::vector<std::int32_t> reference_;
    std::unique_ptr<serve::CompileCache> cache_;
    std::map<const ElabProgram *, std::shared_ptr<const CompiledArtifact>>
        memo_;
    std::unique_ptr<Built> built_;
    CosimConfig cfg_;
    std::unique_ptr<CoSim> cosim_;
    int push_ = -1, audio_ = -1;
};

// ---------------------------------------------------------------------------
// ray_roundtrip / ray_roundtrip_shm
// ---------------------------------------------------------------------------

class RayRoundtrip final : public Workload
{
  public:
    RayRoundtrip(const Options &o, bool shm) : opts_(o), shm_(shm) {}

    void
    prepare(Recorder &rec) override
    {
        const int n = opts_.sizes.size;
        double &in_ms = rec.setup["bench.inputs_ms"] = 0;
        double &ref_ms = rec.setup["bench.oracle_ms"] = 0;
        const ray::Camera cam = ray::makeCamera();
        for (int j = 0; j < opts_.sizes.scenes; j++) {
            auto sc = std::make_unique<Scene>();
            sc->cam = cam;
            {
                // Scenes of one run never overlap another seed's.
                Phase p("bench.inputs", in_ms);
                sc->spheres = ray::makeScene(
                    opts_.sizes.prims,
                    opts_.seed * static_cast<std::uint64_t>(
                                     opts_.sizes.scenes) +
                        static_cast<std::uint64_t>(j));
                sc->bvh = ray::buildBvh(sc->spheres);
            }
            Phase p("bench.oracle", ref_ms);
            sc->reference =
                ray::renderNative(sc->spheres, sc->bvh, cam, n, n).pixels;
            scenes_.push_back(std::move(sc));
        }
        auto &ref = scenes_.front()->reference;
        if (opts_.flipReference && !ref.empty())
            ref[ref.size() / 2] ^= 1;
    }

    void
    setup(Recorder &rec) override
    {
        const int n = opts_.sizes.size;
        cfg_ = CosimConfig{};
        cfg_.threads = 1;
        if (shm_)
            cfg_.defaultTransport = TransportKind::SharedMem;
        double &ctor_ms = rec.setup["platform.cosim.ctor_ms"];
        next_ = 0;
        for (auto &sc : scenes_) {
            sc->cosim.reset();
            sc->built = buildAndPartition(rec, [&] {
                return ray::makeRayProgram(
                    ray::rayPartitionConfig(ray::RayPartition::B, n, n),
                    sc->spheres, sc->bvh, sc->cam);
            });
            Phase p("platform.cosim.ctor", ctor_ms);
            sc->cosim = std::make_unique<CoSim>(sc->built->parts, cfg_);
        }
        const PartitionPart &sw = scenes_.front()->built->parts.part("SW");
        doneCnt_ = sw.prog.primByPath("doneCnt");
        fb_ = sw.prog.primByPath("fb");
        px_ = sw.prog.primByPath("px");
        py_ = sw.prog.primByPath("py");
    }

    /** One pass renders the next scene, round robin. A round over all
     *  scenes is the whole input and one sample, so every sample
     *  holds the same mix of cheap and expensive scenes. */
    void
    pass(Recorder &rec) override
    {
        Scene &sc = *scenes_[next_];
        next_ = (next_ + 1) % scenes_.size();
        if (!render(rec, sc, roundRunMs_, roundCycles_))
            return;
        rec.passes++;
        if (++roundPasses_ < scenes_.size())
            return;
        const double n = opts_.sizes.size;
        recordSample(rec, n * n * static_cast<double>(roundPasses_),
                     roundRunMs_, roundCycles_);
        rec.fpgaCycles.push_back(roundCycles_);
        startMeasuring();
    }

    int
    passesPerInput() const override
    {
        return static_cast<int>(scenes_.size());
    }

    /** The shm workload has two processes; its child would inherit
     *  the pin of the pass that forked it. */
    bool singleThreaded() const override { return !shm_; }

    void
    startMeasuring() override
    {
        roundRunMs_ = 0;
        roundCycles_ = 0;
        roundPasses_ = 0;
    }

  private:
    struct Scene
    {
        std::vector<ray::Sphere> spheres;
        ray::Bvh bvh;
        ray::Camera cam;
        std::vector<std::uint32_t> reference;
        std::unique_ptr<Built> built;
        std::unique_ptr<CoSim> cosim;
    };

    /** Render one scene through its own CoSim and check the pixels;
     *  false when the run failed. */
    bool
    render(Recorder &rec, Scene &sc, double &run_total, double &cycles_total)
    {
        auto &s = rec.sums;
        if (!sc.cosim) {
            Phase p("platform.cosim.ctor", s["platform.cosim.ctor_ms"]);
            sc.cosim = std::make_unique<CoSim>(sc.built->parts, cfg_);
        }
        CoSim &cs = *sc.cosim;
        const std::uint64_t n = static_cast<std::uint64_t>(opts_.sizes.size);
        const std::uint64_t total = n * n;
        ItemClock clock;
        std::uint64_t cycles = 0;
        double run_ms = 0;
        const bool ok = timedRun(rec, "platform.cosim.run", run_ms, [&] {
            cycles = cs.run([&](CoSim &c) {
                Store &st = c.storeOf("SW");
                const std::uint64_t py = st.at(py_).val.asUInt();
                const std::uint64_t gen =
                    std::min(total, py * n + st.at(px_).val.asUInt());
                const std::uint64_t done = st.at(doneCnt_).val.asUInt();
                clock.observe(gen, done);
                return done == total;
            });
        });
        s["platform.cosim.run_ms"] += run_ms;
        rec.attempted++;
        if (ok) {
            double check_ms = 0;
            Phase p("bench.check", check_ms);
            std::vector<std::uint32_t> pixels;
            for (const Value &px : cs.storeOf("SW").at(fb_).val.elems())
                pixels.push_back(static_cast<std::uint32_t>(px.asUInt()));
            if (pixels != sc.reference)
                rec.fail(std::string(shm_ ? "ray_roundtrip_shm"
                                          : "ray_roundtrip") +
                         ": pixels differ from renderNative");
            recordInterpStats(rec, cs.swInterp().stats());
            recordCosimStats(rec, cs, cfg_, sc.built->parts);
            rec.passLatency.insert(rec.passLatency.end(),
                                   clock.latencies().begin(),
                                   clock.latencies().end());
            run_total += run_ms;
            cycles_total += static_cast<double>(cycles);
        }
        // A dead shm child surfaces as the run's FatalError above.
        teardown(rec, sc.cosim);
        return ok;
    }

    Options opts_;
    bool shm_;
    std::vector<std::unique_ptr<Scene>> scenes_;
    size_t next_ = 0;  ///< scene the next pass renders
    /** The round in progress: run time, cycles and scenes so far. */
    double roundRunMs_ = 0, roundCycles_ = 0;
    size_t roundPasses_ = 0;
    CosimConfig cfg_;
    int doneCnt_ = -1, fb_ = -1, px_ = -1, py_ = -1;
};

// ---------------------------------------------------------------------------
// serve_fleet
// ---------------------------------------------------------------------------

class ServeFleet final : public Workload
{
  public:
    ServeFleet(const Options &o) : opts_(o) {}

    void
    prepare(Recorder &rec) override
    {
        const int n = opts_.sizes.sessions;
        double &in_ms = rec.setup["bench.inputs_ms"] = 0;
        double &ref_ms = rec.setup["bench.oracle_ms"] = 0;
        {
            Phase p("bench.inputs", in_ms);
            for (int i = 0; i < n; i++) {
                streams_.push_back(vorbis::makeVorbisStreamState(
                    opts_.sizes.frames,
                    opts_.seed + static_cast<std::uint64_t>(i)));
            }
        }
        Phase p("bench.oracle", ref_ms);
        for (const auto &st : streams_)
            references_.push_back(vorbis::runNativeBackend(st->inputs).pcm);
        if (opts_.flipReference && !references_.empty() &&
            !references_.back().empty())
            references_.back()[references_.back().size() / 2] ^= 1;
    }

    void
    setup(Recorder &rec) override
    {
        sessions_.clear();
        timers_.clear();
        mgr_.reset();
        built_.reset();
        built_ = buildAndPartition(rec, [] {
            return vorbis::makeVorbisProgram(vorbis::VorbisConfig{});
        });
        const PartitionPart &sw = built_->parts.part("SW");
        push_ = sw.prog.rootMethod("input");
        audio_ = sw.prog.primByPath("audio");

        double &mgr_ms = rec.setup["serve.manager_ms"] = 0;
        {
            Phase p("serve.manager", mgr_ms);
            mgr_ = std::make_unique<serve::SessionManager>();
        }
        cfg_ = CosimConfig{};
        cfg_.swBackend = SwBackend::Compiled;
        {
            double &resolve_ms = rec.setup["runtime.gencc.resolve_ms"] = 0;
            Phase p("runtime.gencc.resolve", resolve_ms);
            GenccOptions gopts;
            gopts.mode = cfg_.swGenMode;
            cfg_.swArtifact = mgr_->cache().get(sw.prog, gopts);
        }
        rec.setup["runtime.gencc.artifacts"] = 1;
        createSessions(rec.setup["serve.create_session_ms"] = 0,
                       &rec.setup["serve.create_session_ms_p50"]);
        // Every session acquires the one resolved artifact without a
        // compile: count those acquisitions as hits next to the cache's.
        const serve::CompileCacheStats cs = mgr_->cache().stats();
        rec.setup["serve.cache.compiles"] = static_cast<double>(cs.compiles);
        rec.setup["serve.cache.hits"] =
            static_cast<double>(cs.hits + sessions_.size());
        rec.setup["serve.pool.workers"] = mgr_->pool().workers();
    }

    void
    pass(Recorder &rec) override
    {
        auto &s = rec.sums;
        if (sessions_.empty())
            createSessions(s["serve.create_session_ms"], nullptr);
        const serve::PoolStats before = mgr_->pool().stats();
        double drain_ms = 0;
        bool ok = timedRun(rec, "serve.drain", drain_ms, [&] {
            for (auto &ses : sessions_)
                mgr_->start(ses);
            mgr_->drain();
        });
        s["serve.drain_ms"] += drain_ms;
        const serve::PoolStats after = mgr_->pool().stats();
        s["serve.pool.quanta"] +=
            static_cast<double>(after.quanta - before.quanta);
        const std::uint64_t failed = after.failed - before.failed;
        s["serve.pool.failed"] += static_cast<double>(failed);
        rec.attempted += sessions_.size();
        if (ok && failed == 0) {
            double check_ms = 0;
            Phase p("bench.check", check_ms);
            double cycles = 0;
            std::uint64_t mismatches = 0;
            for (size_t i = 0; i < sessions_.size(); i++) {
                serve::Session &ses = *sessions_[i];
                CoSim &cs = ses.cosim();
                if (vorbis::extractPcm(cs, audio_) != references_[i])
                    mismatches++;
                cycles += static_cast<double>(cs.now());
                s["runtime.sw.driver_call_us"] += timers_[i]->us;
                s["runtime.sw.driver_calls"] += timers_[i]->calls;
                if (const CompiledPartition *cp = cs.swCompiled()) {
                    s["runtime.sw.rules_fired"] +=
                        static_cast<double>(cp->rulesFired());
                    s["runtime.sw.rules_attempted"] +=
                        static_cast<double>(cp->rulesAttempted());
                }
                const auto &lat = ses.frameLatenciesMs();
                rec.passLatency.insert(rec.passLatency.end(), lat.begin(),
                                       lat.end());
                if (obs::trace().enabled())
                    rec.sessionLatencies[ses.id()] = lat;
            }
            for (std::uint64_t m = 0; m < mismatches; m++)
                rec.fail("serve_fleet: session PCM differs from "
                         "runNativeBackend");
            rec.domains["SW"] = "sw";
            const double frames =
                static_cast<double>(sessions_.size()) * opts_.sizes.frames;
            rec.passes++;
            recordSample(rec, frames, drain_ms, cycles);
            rec.fpgaCycles.push_back(cycles);
        } else if (ok) {
            for (std::uint64_t m = 0; m < failed; m++)
                rec.fail("serve_fleet: session failed");
        }
        sessions_.clear();
        timers_.clear();
    }

  private:
    /** Stamp out one session per stream; per-call times feed the
     *  p50 when @p p50_out is given. */
    void
    createSessions(double &total_ms, double *p50_out)
    {
        std::vector<double> each;
        Phase p("serve.create_sessions", total_ms);
        const int audio = audio_;
        for (const auto &st : streams_) {
            const Clock::time_point t0 = Clock::now();
            st->fed = 0;
            auto timer = std::make_shared<StepTimer>();
            serve::StreamSpec spec;
            spec.driver = timedStreamDriver(st, push_, timer);
            spec.progress = [audio](CoSim &cs) {
                return static_cast<std::uint64_t>(
                    cs.storeOf("SW").at(audio).queue.size());
            };
            spec.target = st->inputs.size();
            sessions_.push_back(
                mgr_->createSession(built_->parts, cfg_, std::move(spec)));
            timers_.push_back(std::move(timer));
            each.push_back(msSince(t0));
        }
        if (p50_out && !each.empty()) {
            std::sort(each.begin(), each.end());
            *p50_out = each[each.size() / 2];
        }
    }

    Options opts_;
    std::vector<std::shared_ptr<vorbis::VorbisStreamState>> streams_;
    std::vector<std::vector<std::int32_t>> references_;  ///< ∥ streams_
    std::unique_ptr<Built> built_;
    CosimConfig cfg_;
    std::unique_ptr<serve::SessionManager> mgr_;
    std::vector<std::shared_ptr<serve::Session>> sessions_;  ///< ∥ streams_
    std::vector<std::shared_ptr<StepTimer>> timers_;  ///< ∥ sessions_
    int push_ = -1, audio_ = -1;
};

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

std::unique_ptr<Workload>
makeWorkload(const Options &o)
{
    if (o.workload == "vorbis_stream_split")
        return std::make_unique<VorbisSplit>(o);
    if (o.workload == "ray_roundtrip")
        return std::make_unique<RayRoundtrip>(o, false);
    if (o.workload == "ray_roundtrip_shm")
        return std::make_unique<RayRoundtrip>(o, true);
    if (o.workload == "serve_fleet")
        return std::make_unique<ServeFleet>(o);
    return nullptr;
}

/** Default sizes. On a 4-core host a pass takes about 0.5 s
 *  (vorbis_stream_split), 0.2 s (one ray scene) or 0.1 s (one fleet
 *  drain): long enough that start and finish transients are small,
 *  short enough that a 10 s run holds many passes. */
Sizes
defaultSizes(const std::string &w)
{
    Sizes s;
    if (w == "vorbis_stream_split") {
        s.frames = 512;
    } else if (w == "ray_roundtrip" || w == "ray_roundtrip_shm") {
        s.size = 5;
        s.prims = 128;
        s.scenes = 20;
    } else if (w == "serve_fleet") {
        s.frames = 256;
        s.sessions = 128;
    }
    return s;
}

constexpr int kMaxSetups = 100;
/** Traced passes stop past this many events (keeps the Chrome trace
 *  and its analysis small). */
constexpr std::uint64_t kMaxTraceEvents = 400000;

/**
 * Set up at least @p min_setups times and until @p setup_budget_s of
 * set-up time has accumulated (cheap set-ups repeat more, so their
 * median is steady). Then run warm-up passes for @p warmup_s — checked
 * and counted as attempts, but not measured, because the first seconds
 * of multi-threaded load on a virtual machine run at a different speed
 * — and measured passes until @p seconds have elapsed and at least
 * @p min_passes ran, stopping after a whole input. A non-zero
 * @p max_events stops the measured passes once the trace holds that
 * many events.
 */
void
runPhase(Workload &w, Recorder &rec, int min_setups, double setup_budget_s,
         double warmup_s, double seconds, int min_passes,
         std::uint64_t max_events)
{
    double setup_total = 0;
    for (int i = 0; i < min_setups ||
                    (setup_total < setup_budget_s && i < kMaxSetups);
         i++) {
        // Set-up entries describe the latest set-up; prepare()'s
        // bench.* entries stay.
        for (auto it = rec.setup.begin(); it != rec.setup.end();)
            it = it->first.rfind("bench.", 0) == 0 ? std::next(it)
                                                   : rec.setup.erase(it);
        const Clock::time_point t0 = Clock::now();
        w.setup(rec);
        rec.setupS.push_back(msSince(t0) / 1e3);
        setup_total += rec.setupS.back();
    }
    CpuRotation cpus(w.singleThreaded());
    if (warmup_s > 0) {
        Recorder scratch;
        const Clock::time_point t0 = Clock::now();
        while (scratch.failed == 0 && msSince(t0) / 1e3 < warmup_s) {
            cpus.next();
            w.pass(scratch);
        }
        rec.attempted += scratch.attempted;
        rec.failed += scratch.failed;
        rec.failures = scratch.failures;
        if (rec.failed > 0)
            return;
    }
    w.startMeasuring();
    const int per_input = w.passesPerInput();
    min_passes = std::max(min_passes, per_input);
    const Clock::time_point t0 = Clock::now();
    for (int i = 0;; i++) {
        // Stop only between whole inputs: every sample is complete.
        const bool boundary = i % per_input == 0;
        if (boundary && i >= min_passes && msSince(t0) / 1e3 >= seconds)
            break;
        if (boundary && max_events && i >= 1 &&
            obs::trace().eventCount() > max_events)
            break;
        cpus.next();
        double pass_ms = 0;
        Phase p("bench.pass", pass_ms);
        w.pass(rec);
        if (rec.failed > 0)
            break;
    }
}

// -- JSON output -------------------------------------------------------------

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out;
}

std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
numList(const std::vector<double> &v)
{
    std::string out = "[";
    for (size_t i = 0; i < v.size(); i++)
        out += (i ? ", " : "") + num(v[i]);
    return out + "]";
}

template <class Map>
std::string
numMap(const Map &m)
{
    std::string out = "{";
    bool first = true;
    for (const auto &[k, v] : m) {
        out += (first ? "\"" : ", \"") + jsonEscape(k) + "\": " + num(v);
        first = false;
    }
    return out + "}";
}

std::string
phaseJson(const Recorder &rec)
{
    std::ostringstream o;
    o << "{\"setup_s\": " << numList(rec.setupS)
      << ", \"setup\": " << numMap(rec.setup)
      << ", \"passes\": " << rec.passes
      << ", \"items_per_s\": " << numList(rec.itemsPerS)
      << ", \"sim_cycles_per_s\": " << numList(rec.simCyclesPerS)
      << ", \"fpga_cycles\": " << numList(rec.fpgaCycles)
      << ", \"latency_ms\": {\"p50\": " << numList(rec.latP50)
      << ", \"p99\": " << numList(rec.latP99)
      << ", \"samples\": " << rec.latSamples << "}"
      << ", \"sums\": " << numMap(rec.sums) << ", \"domains\": {";
    bool first = true;
    for (const auto &[d, kind] : rec.domains) {
        o << (first ? "\"" : ", \"") << jsonEscape(d) << "\": \"" << kind
          << "\"";
        first = false;
    }
    o << "}, \"attempted\": " << rec.attempted
      << ", \"failed\": " << rec.failed << ", \"failures\": [";
    for (size_t i = 0; i < rec.failures.size(); i++)
        o << (i ? ", \"" : "\"") << jsonEscape(rec.failures[i]) << "\"";
    o << "]";
    if (!rec.sessionLatencies.empty()) {
        o << ", \"session_latency_ms\": {";
        bool f = true;
        for (const auto &[id, lat] : rec.sessionLatencies) {
            o << (f ? "\"" : ", \"") << id << "\": " << numList(lat);
            f = false;
        }
        o << "}";
    }
    o << "}";
    return o.str();
}

/**
 * Peak resident memory in MB: this process image's VmHWM (getrusage's
 * ru_maxrss would keep the peak of the process that exec'd it). With
 * @p children, also the largest reaped child (a remote HW domain's
 * partition host, stopped at CoSim teardown); a forked child starts
 * with the parent's pages, so the larger of the two is the peak.
 */
double
peakRssMb(bool children)
{
    long kib = 0;  // KiB on Linux
    if (std::FILE *f = std::fopen("/proc/self/status", "r")) {
        char line[256];
        while (std::fgets(line, sizeof line, f))
            if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1)
                break;
        std::fclose(f);
    }
    if (children) {
        struct rusage ru;
        std::memset(&ru, 0, sizeof ru);
        getrusage(RUSAGE_CHILDREN, &ru);
        kib = std::max(kib, ru.ru_maxrss);
    }
    return static_cast<double>(kib) / 1024.0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME [--seed N] "
                 "[--seconds S] [--setups K] [--setup-seconds S]\n"
                 "                 [--warmup-seconds S] [--min-passes P]\n"
                 "                 [--trace-out FILE] [--flip-reference]\n"
                 "                 [--frames N] [--size N] [--prims N] "
                 "[--sessions N] [--scenes N]\n"
                 "workloads: vorbis_stream_split ray_roundtrip "
                 "ray_roundtrip_shm serve_fleet\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    Sizes over;
    for (int i = 1; i < argc; i++) {
        const std::string a = argv[i];
        if (a == "--flip-reference") {
            o.flipReference = true;
            continue;
        }
        if (i + 1 >= argc)
            return usage();
        const char *v = argv[++i];
        if (a == "--workload")
            o.workload = v;
        else if (a == "--seed")
            o.seed = std::strtoull(v, nullptr, 10);
        else if (a == "--seconds")
            o.seconds = std::atof(v);
        else if (a == "--setups")
            o.setups = std::atoi(v);
        else if (a == "--setup-seconds")
            o.setupSeconds = std::atof(v);
        else if (a == "--warmup-seconds")
            o.warmupSeconds = std::atof(v);
        else if (a == "--min-passes")
            o.minPasses = std::atoi(v);
        else if (a == "--trace-out")
            o.traceOut = v;
        else if (a == "--frames")
            over.frames = std::atoi(v);
        else if (a == "--size")
            over.size = std::atoi(v);
        else if (a == "--prims")
            over.prims = std::atoi(v);
        else if (a == "--sessions")
            over.sessions = std::atoi(v);
        else if (a == "--scenes")
            over.scenes = std::atoi(v);
        else
            return usage();
    }
    o.sizes = defaultSizes(o.workload);
    if (over.frames)
        o.sizes.frames = over.frames;
    if (over.size)
        o.sizes.size = over.size;
    if (over.prims)
        o.sizes.prims = over.prims;
    if (over.sessions)
        o.sizes.sessions = over.sessions;
    if (over.scenes)
        o.sizes.scenes = over.scenes;
    if (o.setups < 1 || o.seconds < 0)
        return usage();

    std::unique_ptr<Workload> w = makeWorkload(o);
    if (!w)
        return usage();
    // The compile workloads' children are the host compiler, whose
    // memory is not the workload's; the others' are remote domains.
    const bool host_compiles = o.workload == "vorbis_stream_split" ||
                               o.workload == "serve_fleet";
    if (!CompiledArtifact::hostCompilerAvailable() && host_compiles) {
        std::fprintf(stderr, "perfbench: %s needs a host C++ compiler\n",
                     o.workload.c_str());
        return 2;
    }

    std::printf("perfbench %s seed=%llu frames=%d size=%d prims=%d "
                "scenes=%d sessions=%d hardware_concurrency=%u\n",
                o.workload.c_str(),
                static_cast<unsigned long long>(o.seed), o.sizes.frames,
                o.sizes.size, o.sizes.prims, o.sizes.scenes,
                o.sizes.sessions, std::thread::hardware_concurrency());
    std::fflush(stdout);

    Recorder plain;
    std::string traced_json, metrics_json = "{}";
    double traced_wall_ms = 0;
    try {
        w->prepare(plain);
        // Untraced phase: the end-to-end numbers.
        runPhase(*w, plain, o.setups, o.setupSeconds, o.warmupSeconds,
                 o.seconds, o.minPasses, 0);
        if (!o.traceOut.empty() && plain.failed == 0) {
            // Traced phase: one set-up plus traced passes for the same
            // time budget, bounded so the Chrome trace stays small.
            Recorder traced;
            obs::metrics().reset();
            obs::metrics().enable(true);
            obs::trace().clear();
            obs::trace().enable(true);
            obs::trace().setThreadName("bench.main");
            {
                Phase p("bench.workload", traced_wall_ms);
                runPhase(*w, traced, 1, 0, 0, o.seconds, 1,
                         kMaxTraceEvents);
            }
            obs::trace().enable(false);
            obs::metrics().enable(false);
            obs::trace().writeJson(o.traceOut);
            traced_json = phaseJson(traced);
            // One line: run.py reads the result line by line.
            metrics_json = obs::metrics().toJson();
            std::replace(metrics_json.begin(), metrics_json.end(), '\n',
                         ' ');
            plain.attempted += traced.attempted;
            plain.failed += traced.failed;
            plain.failures.insert(plain.failures.end(),
                                  traced.failures.begin(),
                                  traced.failures.end());
        }
    } catch (const std::exception &e) {
        plain.fail(std::string("uncaught: ") + e.what());
    }
    w.reset();

    std::ostringstream out;
    out << "PERFBENCH_RESULT {\"workload\": \"" << o.workload
        << "\", \"seed\": " << o.seed << ", \"host\": {\"build_type\": \""
        << PERFBENCH_BUILD_TYPE << "\", \"bench_compiler\": \""
        << PERFBENCH_CXX_ID << "\", \"hardware_concurrency\": "
        << std::thread::hardware_concurrency() << "}"
        << ", \"sizes\": {\"frames\": " << o.sizes.frames
        << ", \"size\": " << o.sizes.size << ", \"prims\": " << o.sizes.prims
        << ", \"scenes\": " << o.sizes.scenes
        << ", \"sessions\": " << o.sizes.sessions << "}"
        << ", \"peak_rss_mb\": " << num(peakRssMb(!host_compiles))
        << ", \"plain\": " << phaseJson(plain);
    if (!traced_json.empty()) {
        out << ", \"traced\": " << traced_json
            << ", \"traced_wall_ms\": " << num(traced_wall_ms)
            << ", \"registry\": " << metrics_json;
    }
    out << "}";
    std::printf("%s\n", out.str().c_str());
    return plain.failed == 0 ? 0 : 1;
}
