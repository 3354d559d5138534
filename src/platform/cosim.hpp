/**
 * @file
 * Hardware/software co-simulation in virtual time. Executes a
 * partitioned program end to end:
 *
 *   - each domain runs behind one DomainExecutor
 *     (runtime/domain_executor.hpp); software work is converted to
 *     FPGA cycles through the CPU clock ratio and CPI (PPC440 at
 *     400 MHz vs fabric at 100 MHz: 4 CPU cycles per FPGA cycle),
 *   - hardware runs one rule set per FPGA cycle, skipping idle gaps
 *     event-driven,
 *   - channels move messages between partitions with bus timing and
 *     credit-based flow control.
 *
 * An optional SwDriver plays the role of the software "up the stack"
 * (the Vorbis front end invoking backend.input(frame)).
 *
 * Timing approximation: software runs in bounded quanta (kSwQuantum,
 * 64 rule firings) ahead of hardware; because every cross-domain
 * interface is a latency-insensitive synchronizer, the quantum
 * affects reported cycle counts only within a pipeline batch, never
 * functional results (§4.4). The quantum and the other timing
 * calibrations (kSwCyclesPerWork below, the per-firing charge of
 * compiled software) are constants: no caller needs another value.
 * Tests verify bit-identical outputs across all partitionings of a
 * program.
 *
 * One thread runs the whole loop: every domain slices in turn, so
 * reported cycle counts are a pure function of program, partitioning
 * and config. Cores are used across sessions instead (serve/pool.hpp);
 * docs/EXPERIMENTS.md records why domains do not run on their own
 * threads.
 *
 * Contract: construct from a PartitionResult whose parts/channels are
 * untouched since partitionProgram(); the cosim owns one executor per
 * partition and advances them in virtual time until the caller's done
 * predicate holds. Global quiescence before then (no engine can fire,
 * no message in flight, driver blocked) is reported as a deadlock
 * FatalError, never an infinite loop. Results are deterministic for a
 * given program, partitioning and config.
 */
#ifndef BCL_PLATFORM_COSIM_HPP
#define BCL_PLATFORM_COSIM_HPP

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/codegen_cpp.hpp"
#include "core/partition.hpp"
#include "hwsim/clocksim.hpp"
#include "hwsim/compiled_hw.hpp"
#include "platform/channel.hpp"
#include "platform/platform_spec.hpp"
#include "platform/remote_partition.hpp"
#include "runtime/exec.hpp"
#include "runtime/gencc.hpp"

namespace bcl {

/** Execution discipline of a domain (CosimConfig::kindOf). */
enum class DomainKind : std::uint8_t { Software, Hardware };

/**
 * How a software domain executes its rules:
 *   Interpreted - RuleEngine over the reference interpreter (also the
 *                 performance model; virtual time from modeled work),
 *   Compiled    - generateCpp + host compiler + dlopen (the paper's
 *                 actual software story; native speed, virtual time
 *                 approximated per firing — see
 *                 kSwCompiledCyclesPerFiring in
 *                 domain_executors.cpp).
 * Functional results are identical either way (differential-tested);
 * only wall-clock speed and the fidelity of reported cycle counts
 * differ.
 */
enum class SwBackend : std::uint8_t { Interpreted, Compiled };

/**
 * How a hardware domain executes its clock:
 *   Interpreted - ClockSim over the reference interpreter, one
 *                 dynamic matrix walk per cycle (the rule-accurate
 *                 reference),
 *   Compiled    - generateCpp + host compiler + dlopen; the clock
 *                 edge is a generated function with the WILL_FIRE
 *                 selection baked from the static ConflictMatrix
 *                 (hwsim/compiled_hw.hpp).
 * Unlike the software backends, the two are cycle-exact against each
 * other: cycle counts, per-rule fire counts and outputs are
 * byte-identical (differential-tested in tests/test_codegen_hw.cpp)
 * — only wall-clock simulated-cycles/sec differs.
 */
enum class HwBackend : std::uint8_t { Interpreted, Compiled };

/** Co-simulation parameters. */
struct CosimConfig
{
    /**
     * The platform timing model: per-link-class bus parameters with
     * a (from, to) -> class topology, hw functional-unit delays, and
     * the CPU/FPGA clock ratio. Replaces the historical single
     * global BusParams — each channel's transport now gets the
     * BusParams its (fromDomain, toDomain) pair resolves to, so
     * heterogeneous platforms (fast on-chip + slow off-chip links in
     * one run) are expressible. Defaults to the ML507 preset, which
     * is byte-identical to the old hard-coded calibration.
     */
    PlatformSpec platform = PlatformSpec::ml507();

    /** Execution backend for software domains (the config switch
     *  between the interpreter and compiled shared objects). */
    SwBackend swBackend = SwBackend::Interpreted;

    /** Code-generation strategy when swBackend == Compiled (also
     *  used for hardware domains when hwBackend == Compiled: the
     *  generated units are the same either way, so one
     *  CompileCache entry serves both uses of a program). */
    CppGenMode swGenMode = CppGenMode::Lifted;

    /**
     * Execution backend for hardware domains. Compiled requires a
     * host C++ compiler (CompiledHwPartition::hostCompilerAvailable)
     * and partitions that pass validateForHardware — which every
     * DomainKind::Hardware partition already must. Compilation
     * routes through compileProvider when set (the CompileCache
     * path), exactly like software domains.
     */
    HwBackend hwBackend = HwBackend::Interpreted;

    /**
     * Artifact source for Compiled software domains. Unset, every
     * CoSim compiles its own shared object per software partition
     * (the historical behavior). The serving layer sets this to its
     * CompileCache so a thousand sessions of the same partition
     * share one compile/dlopen and differ only in their
     * bcl_gen_create instances.
     */
    std::function<std::shared_ptr<const CompiledArtifact>(
        const ElabProgram &, const GenccOptions &)>
        compileProvider;

    /**
     * Pre-resolved artifact for the software domain, taking
     * precedence over compileProvider. compileProvider keys on a
     * hash of the generated source, so every lookup re-runs codegen
     * (~tens of ms for Vorbis); a caller stamping out thousands of
     * sessions of ONE partitioning resolves the artifact once
     * (CompileCache::get) and passes it here, making instantiation
     * pure bcl_gen_create. The caller asserts the artifact was built
     * from this partition's program under swGenMode — the layout
     * cross-check at load time does not re-run per instance.
     */
    std::shared_ptr<const CompiledArtifact> swArtifact;

    /** Cost model applied to software partitions (calibration knobs;
     *  see docs/EXPERIMENTS.md). */
    CostModel swCosts;

    /**
     * Worker threads for the co-simulation. The loop is sequential,
     * so 1 is the only legal value; CoSim rejects anything else with
     * a FatalError. The field stays so existing callers that spell
     * out threads = 1 keep compiling.
     */
    int threads = 1;

    /** Software domains are the ones named "SW"; every other
     *  domain is hardware. */
    DomainKind
    kindOf(const std::string &domain) const
    {
        return domain == "SW" ? DomainKind::Software
                              : DomainKind::Hardware;
    }

    /**
     * Where each hardware domain's simulator runs. InThread is the
     * historical everything-in-one-process mode; SharedMem forks a
     * child per remote domain relaying slices over mmap'd word
     * rings; Tcp does the same over framed loopback sockets (or
     * attaches to a cosim_partition_host named in remoteEndpoints).
     * Channel transports always stay in the coordinator over the
     * domain's mirror store — placement is a late, semantics-free
     * choice (§4.4): outputs and firing counts are byte-identical
     * across transports, only reported cycle counts may shift.
     * Software domains always run in-thread (host drivers call into
     * them directly).
     */
    TransportKind defaultTransport = TransportKind::InThread;

    TransportKind
    transportOf(const std::string &domain) const
    {
        return kindOf(domain) == DomainKind::Software
                   ? TransportKind::InThread
                   : defaultTransport;
    }

    /** Bound on every blocking remote-transport operation; a peer
     *  silent longer than this is declared dead (one clean
     *  FatalError, never a hang). */
    int transportTimeoutMs = 10000;

    /** Tcp domains listed here attach to an already-running
     *  cosim_partition_host ("127.0.0.1:PORT") instead of forking a
     *  child. Naming the software domain is a fatal configuration
     *  error. */
    std::map<std::string, std::string> remoteEndpoints;
};

/**
 * Host-side input source driving a software partition. step() and
 * done() run on the thread that calls CoSim::run, interleaved with
 * the domain slices and the completion predicate.
 */
struct SwDriver
{
    /**
     * Try to make progress (e.g. push one frame through a root
     * method). Returns abstract work consumed; 0 = blocked or done.
     */
    std::function<std::uint64_t(SwPort &)> step;

    /** True when the driver has no more input to offer. */
    std::function<bool()> done;
};

/**
 * CPU cycles per abstract work unit of an interpreted software domain
 * and of host-driver work. Work units are interpreter AST-node
 * counts, which overestimate the instructions of the *compiled*
 * generated C++ by roughly 4x (many nodes fold into single
 * instructions); 0.23 calibrates the full-software Vorbis partition
 * to ~1.2x the hand-written baseline, the paper's "slightly faster"
 * F2 relation. See docs/EXPERIMENTS.md.
 */
inline constexpr double kSwCyclesPerWork = 0.23;

/**
 * The executor behind partition @p part per swBackend / hwBackend /
 * transportOf — the only code that names a concrete backend. In-
 * process hardware steps one counted cycle at a time when
 * @p per_cycle (CoSim's own executors), else in budget-sized bursts
 * (the forked remote child, which is offered whole slices).
 */
std::unique_ptr<DomainExecutor> makeDomainExecutor(
    const PartitionPart &part, const CosimConfig &cfg, Store &mirror,
    bool per_cycle);

/** Co-simulation engine over a PartitionResult. */
class CoSim
{
  public:
    CoSim(const PartitionResult &parts, CosimConfig cfg);

    /** Attach the host driver to software domain @p domain. */
    void setDriver(const std::string &domain, SwDriver driver);

    /**
     * Run until @p done returns true. @p done may read the stores
     * but not change them; a caller may change them between runs.
     * @return total virtual FPGA cycles elapsed.
     * @throws FatalError on deadlock (no process can advance, channel
     * queues empty, done() still false).
     */
    std::uint64_t run(const std::function<bool(CoSim &)> &done);

    /** Store of a domain's partition. */
    Store &storeOf(const std::string &domain);

    /** Interpreter of a software domain (the mirror interpreter when
     *  the domain runs compiled: its stats stay zero). */
    Interp &swInterp(const std::string &domain = "SW");

    /** Compiled backend of a software domain; nullptr when the domain
     *  runs interpreted. */
    const CompiledPartition *swCompiled(
        const std::string &domain = "SW") const;

    /** Hardware statistics of a hardware domain (nullptr if none).
     *  For remote domains this is the proxy's mirror, refreshed from
     *  every slice report. */
    const HwStats *hwStats(const std::string &domain) const;

    /** Pid of a remote hardware domain's child process; -1 when the
     *  domain is local or attached to an external host (fault-
     *  injection tests use this to kill a peer mid-run). */
    pid_t remotePid(const std::string &domain) const;

    /** Channel transports (for traffic statistics). */
    const std::vector<std::unique_ptr<ChannelTransport>> &
    channels() const
    {
        return transports;
    }

    /** Occupancy accounting of one (from, to) link direction. */
    struct LinkUsage
    {
        std::string from, to;
        std::string linkClass;     ///< platform class the pair
                                   ///< resolved to
        std::uint64_t busyCycles;  ///< wire-occupied cycles
        std::uint64_t grants;      ///< messages granted
    };

    /** Per-link-direction arbiter accounting with the platform link
     *  class each pair resolved to (call while quiesced). */
    std::vector<LinkUsage> linkUsage() const;

    /**
     * Release compiled-partition thread ownership for every domain
     * (DomainExecutor::rebindThread). The serving layer calls this
     * when a session yields its frame quantum so the next worker
     * that claims the session may drive it; the pool's ready queue is
     * the required synchronization point.
     */
    void rebindCompiledThreads();

    /** Current virtual time (max over processes), FPGA cycles. */
    std::uint64_t now() const;

    /** Total software work units consumed so far. */
    std::uint64_t swWork() const;

    /**
     * Publish this cosim's state under the stable metric names
     * (cosim.fpga_cycles, cosim.sw_work, cosim.domain.<d>.cycles,
     * cosim.domain.<d>.settled_cycles, cosim.channel.<c>.*). The
     * internal structs stay the source of truth; call while quiesced
     * (after run()) — set() semantics, so the registry reflects THIS
     * cosim afterwards.
     */
    void snapshotMetrics(obs::MetricsRegistry &reg) const;

  private:
    /** The channels a domain's slices pump and deliver, in channel
     *  order, resolved once at construction. */
    struct Channels
    {
        std::vector<ChannelTransport *> out;  ///< from this domain
        std::vector<ChannelTransport *> in;   ///< to this domain
    };

    struct SwProc
    {
        std::string domain;
        /** Channel-facing state: the committed store when
         *  interpreted, the mirror of the shared object's
         *  synchronizer/device queues when compiled. Transports,
         *  done-predicates and drivers read/write it either way. */
        std::unique_ptr<Store> store;
        std::unique_ptr<DomainExecutor> exec;
        SwDriver driver;
        double time = 0;  ///< local virtual time, FPGA cycles
        bool driverBlocked = false;
        Channels chans = {};
    };

    struct HwProc
    {
        std::string domain;
        /** Channel-facing (mirror) store; see SwProc::store. */
        std::unique_ptr<Store> store;
        std::unique_ptr<DomainExecutor> exec;
        std::uint64_t time = 0;
        Channels chans = {};
        /**
         * Settled: the last step fired no rule, and the store's
         * stamp() is still settledStamp, so no delivery, pickup or
         * caller poke has changed it since (store.hpp versions). Its
         * state is unchanged since a cycle that fired nothing, so the
         * next cycle fires nothing too and is accounted by
         * DomainExecutor::settledStep instead.
         */
        bool settled = false;
        std::uint64_t settledStamp = 0;
        std::uint64_t settledCycles = 0;  ///< accounted, not run
    };

    bool sliceSoftware(SwProc &sw);
    bool tryDriver(SwProc &sw);
    bool sliceHardware(HwProc &hw, std::uint64_t horizon);
    Channels &channelsOf(const std::string &domain);
    std::uint64_t nextChannelEvent() const;
    std::uint64_t hwHorizon() const;
    void advancePast(std::uint64_t next);

    CosimConfig cfg;
    std::vector<SwProc> swProcs;
    std::vector<HwProc> hwProcs;
    std::vector<std::unique_ptr<ChannelTransport>> transports;
    // One arbiter per (from-domain, to-domain) link direction.
    std::map<std::pair<std::string, std::string>,
             std::unique_ptr<LinkArbiter>>
        links;
};

} // namespace bcl

#endif // BCL_PLATFORM_COSIM_HPP
