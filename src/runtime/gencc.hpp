/**
 * @file
 * Compiled-execution backend for software partitions (section 6 of
 * the paper made real): take a single-domain ElabProgram, run it
 * through generateCpp(), build its translation units with the host
 * C++ compiler into one shared object, dlopen it, and drive it
 * through the generated `bcl_gen_*` C ABI.
 *
 * The build: each unit is written to <stem>.<unit>.cpp in the scratch
 * directory and compiled by its own `/bin/sh -c` child started with
 * posix_spawn — at most hardware_concurrency at a time (at the limit
 * the oldest is waited for before the next starts), all started and
 * reaped (waitpid on their own pids only) by the calling thread, no
 * helper threads. A multi-unit build then links the objects with
 * one more child; a single unit compiles straight to the .so. The
 * children's diagnostics are gathered into <stem>.log, and every
 * per-unit source, object and log is removed once the link is done.
 * A failing child ends the build with one FatalError naming its unit
 * and carrying its log and command, after every started child has
 * been reaped and every file the build emitted removed.
 *
 * This is the missing half of the paper's claim that software
 * partitions are *compiled* — rules become member functions with
 * shadow/commit/rollback and a static schedule driver — where the
 * interpreter (runtime/interp.hpp) is only the semantic reference
 * and performance model. Differential tests pin the two against each
 * other bit for bit (tests/test_codegen_exec.cpp).
 *
 * All data crosses the host/compiled boundary as marshaled 32-bit
 * words in the canonical Value layout (core BitSink / generated
 * gen::BitWriter), so the harness and the shared object share no C++
 * types — the same single-source-of-truth answer the paper gives to
 * the section 2.3 data-format problem.
 *
 * The backend is split along the paper's own artifact/instance line:
 *
 *   CompiledArtifact  - generate + compile + dlopen, ONCE per distinct
 *                       generated source. Immutable after
 *                       construction and safe to share across threads;
 *                       it owns the dl handle, the resolved ABI entry
 *                       points and a private copy of the ElabProgram
 *                       (so its lifetime is self-contained). The
 *                       serving layer's CompileCache hands the same
 *                       artifact to thousands of sessions.
 *   CompiledPartition - ONE live instance of the generated class
 *                       (`bcl_gen_create`), holding a shared_ptr to
 *                       its artifact. Cheap to construct: no compile,
 *                       no dlopen — just an instance allocation
 *                       inside the already-loaded object.
 *
 * Construction fatals when no host compiler is available — callers
 * that want to degrade gracefully check hostCompilerAvailable()
 * first.
 *
 * Thread confinement: a generated *instance* is single-threaded
 * state; every mutating ABI call (runToQuiescence / pushPrim /
 * popPrim / primSize / popDevice / callActionMethod) must come from
 * one thread at a time. The partition *enforces* this per instance —
 * the first mutating call binds the owning thread and a call from any
 * other thread panics — so a serving pool that accidentally shared an
 * instance across workers fails loudly instead of corrupting the
 * shadow state. Two instances of the same artifact are independent
 * and may be driven from two threads concurrently. Ownership of one
 * instance moves between threads only through an explicit
 * rebindThread() at a synchronization point (the serving pool calls
 * it when a session is requeued so the next worker can claim it).
 * Counter reads (rulesFired / rulesAttempted) do not bind
 * ownership, but they read plain (non-atomic) counters inside the
 * shared object — reading them while another thread is actively
 * driving the instance is a data race; read them from the owning
 * thread, or from anywhere only across a synchronization point with
 * the owner quiesced (join, barrier, pool drain).
 */
#ifndef BCL_RUNTIME_GENCC_HPP
#define BCL_RUNTIME_GENCC_HPP

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/codegen_cpp.hpp"
#include "core/elaborate.hpp"

namespace bcl {

/** Build options for a compiled partition. */
struct GenccOptions
{
    /** Generation strategy (the §6.3 cost ladder). */
    CppGenMode mode = CppGenMode::Lifted;

    /** Scratch directory; "" creates a unique one under TMPDIR. A
     *  caller-provided directory may be shared by concurrent
     *  compiles: emitted file names are unique per artifact
     *  (pid + process-wide counter), and destruction removes only
     *  this artifact's files, never the directory. */
    std::string workDir;

    /** Keep the .so and its compile log on destruction (the
     *  per-unit sources and objects never outlive the link). */
    bool keepArtifacts = false;

    /**
     * Include root for runtime/gen_support.hpp; "" uses the source
     * tree the harness itself was built from.
     */
    std::string includeDir;

    /** Extra flags appended to the compile command (e.g. "-O0 -g"). */
    std::string extraFlags;

    /**
     * File stem for the emitted files inside workDir; ""
     * picks a unique pid+counter stem. A caller that sets this owns
     * the uniqueness guarantee (the CompileCache uses the source
     * hash and serializes compiles per key, so its stems never
     * collide).
     */
    std::string fileStem;

    /**
     * Reuse a pre-existing shared object instead of compiling: when
     * non-empty, skip the generate/compile steps and dlopen this
     * path directly. The ABI-version and marshaled-layout checks
     * still run, so a stale or corrupted object fatals (the
     * CompileCache catches that and falls back to a fresh compile).
     */
    std::string reuseSoPath;
};

/**
 * One generated software partition compiled to a shared object and
 * loaded into the process — the share-everything half of the
 * backend. Immutable after construction; any number of
 * CompiledPartition instances (and threads) may use it concurrently.
 */
class CompiledArtifact
{
  public:
    /** True when a host C++ compiler responds on this machine
     *  (cached after the first call). */
    static bool hostCompilerAvailable();

    /** The include root @p opts compiles against: opts.includeDir, or
     *  the source tree the harness was built from ("" if neither). */
    static std::string includeDir(const GenccOptions &opts);

    /** Generate, compile and dlopen (or reuse, see
     *  GenccOptions::reuseSoPath) the partition for @p prog. Non-empty
     *  @p units are compiled instead of generating them again: they
     *  must be generateCpp(prog, "BclGenPartition", opts.mode) output
     *  the caller already holds (the CompileCache hashes them for its
     *  key). */
    CompiledArtifact(const ElabProgram &prog, GenccOptions opts = {},
                     std::vector<CppUnit> units = {});
    ~CompiledArtifact();

    CompiledArtifact(const CompiledArtifact &) = delete;
    CompiledArtifact &operator=(const CompiledArtifact &) = delete;

    /** The artifact's private copy of the partition program (valid
     *  for the artifact's whole lifetime). */
    const ElabProgram &program() const { return prog_; }

    /** The generated translation units (for tests/diagnostics;
     *  empty when the artifact was loaded via reuseSoPath). */
    const std::vector<CppUnit> &units() const { return units_; }

    /** Where the .so and compile log live. */
    const std::string &artifactDir() const { return dir_; }

    /** Path of the loaded shared object. */
    const std::string &soPath() const { return so_; }

    const GenccOptions &options() const { return opts_; }

    /** True when the generated object carries a real clock-edge
     *  scheduler (the partition passed validateForHardware at
     *  generation time); false means bcl_gen_hw_cycle is a stub. */
    bool hwValid() const { return fnHwValid_() != 0; }

  private:
    friend class CompiledPartition;
    friend class CompiledHwPartition;

    /** Compile units_ into <stem>.so (see the file comment). */
    void compile(const std::string &stem, const std::string &inc);
    void load(const std::string &so_path);
    void resolveAbi();

    ElabProgram prog_;  ///< private copy: lifetime self-contained
    GenccOptions opts_;
    /** Device payload types, resolved once at load (deriving one is
     *  a whole-program scan — see devicePayloadType). */
    std::map<int, TypePtr> deviceTypes_;
    std::vector<CppUnit> units_;
    std::string dir_;
    std::string so_;
    bool ownDir_ = false;  ///< we created dir_ (vs caller-provided)
    std::vector<std::string> files_;  ///< .so and log in dir_
    void *dl_ = nullptr;

    // Resolved ABI entry points (immutable after construction).
    void *(*fnCreate_)() = nullptr;
    void (*fnDestroy_)(void *) = nullptr;
    std::uint64_t (*fnRun_)(void *) = nullptr;
    std::uint64_t (*fnStat_)(void *, int) = nullptr;
    int (*fnPush_)(void *, int, const std::uint32_t *, int) = nullptr;
    int (*fnPop_)(void *, int, std::uint32_t *, int) = nullptr;
    // FIFO occupancy; sets the reserved-slot count first when the
    // last argument is >= 0 (ABI v3).
    int (*fnSize_)(void *, int, int) = nullptr;
    int (*fnDevPop_)(void *, int, std::uint32_t *, int) = nullptr;
    int (*fnCall_)(void *, int, const std::uint32_t *, int) = nullptr;
    int (*fnWords_)(int) = nullptr;
    // Hardware clock-edge entry points (ABI v2; stubs when the
    // partition is not synthesizable).
    int (*fnHwValid_)() = nullptr;
    int (*fnHwCycle_)(void *) = nullptr;
    std::uint64_t (*fnHwStats_)(void *, int, int) = nullptr;
};

/**
 * One live instance of a compiled partition — the isolate-everything
 * half. Mirrors the engine surface exec.hpp exposes (run to
 * quiescence, external pokes arrive as pushPrim calls) plus the
 * host-driver entry points CoSim needs. Thread-confined; see the
 * file comment.
 */
class CompiledPartition
{
  public:
    /** True when a host C++ compiler responds on this machine. */
    static bool hostCompilerAvailable()
    {
        return CompiledArtifact::hostCompilerAvailable();
    }

    /** Compile privately (one artifact, one instance — the
     *  historical constructor). @p prog must be a valid
     *  generateCpp() input (single-domain, typechecked). */
    CompiledPartition(const ElabProgram &prog,
                      GenccOptions opts = {});

    /** New instance of an already-compiled artifact (the serving
     *  path: the .so compiled once, dlopened once, instantiated N
     *  times). */
    explicit CompiledPartition(
        std::shared_ptr<const CompiledArtifact> artifact);

    ~CompiledPartition();

    CompiledPartition(const CompiledPartition &) = delete;
    CompiledPartition &operator=(const CompiledPartition &) = delete;

    /**
     * Run the generated static schedule until no rule can fire.
     * @return rules fired by this call.
     */
    std::uint64_t runToQuiescence();

    /**
     * Enqueue @p v into FIFO-kind primitive @p prim_id (Fifo / Sync /
     * SyncTx / SyncRx) — the harness side of a channel delivery.
     * @return false when the FIFO is full.
     */
    bool pushPrim(int prim_id, const Value &v);

    /**
     * Dequeue the head of FIFO-kind primitive @p prim_id into @p out
     * — the harness side of a channel pickup.
     * @return false when empty.
     */
    bool popPrim(int prim_id, Value &out);

    /** Drain one output of device primitive @p prim_id (AudioDev).
     *  @return false when no undrained output remains. */
    bool popDevice(int prim_id, Value &out);

    /**
     * Occupancy of FIFO-kind primitive @p prim_id. When @p reserve
     * is >= 0, first set the FIFO's reserved-slot count: its canEnq
     * then means size + reserve < capacity (gen::Fifo).
     */
    int primSize(int prim_id, int reserve = -1);

    /**
     * Invoke root-interface action method @p meth_id transactionally
     * (same all-or-nothing contract as Interp::callActionMethod).
     * @return true when it committed.
     */
    bool callActionMethod(int meth_id, const std::vector<Value> &args);

    /**
     * Release thread ownership: the next mutating ABI call (from any
     * thread) becomes the new owner. Only call when the current owner
     * is quiesced and a happens-before edge to the next user exists
     * (join, barrier, mutex) — the rebind publishes no state itself.
     */
    void rebindThread();

    /** Cumulative rule firings inside this instance. */
    std::uint64_t rulesFired() const;

    /** Cumulative rule attempts (schedule slots tried). */
    std::uint64_t rulesAttempted() const;

    const ElabProgram &program() const
    {
        return artifact_->program();
    }

    /** The generated translation units (for tests/diagnostics). */
    const std::vector<CppUnit> &units() const
    {
        return artifact_->units();
    }

    /** Where the .so and compile log live. */
    const std::string &artifactDir() const
    {
        return artifact_->artifactDir();
    }

    /** The shared compile/dlopen half behind this instance. */
    const std::shared_ptr<const CompiledArtifact> &artifact() const
    {
        return artifact_;
    }

  private:
    /** The compiled hardware backend (hwsim/compiled_hw.hpp) wraps a
     *  CompiledPartition for marshaling/thread-confinement and clocks
     *  the same instance through bcl_gen_hw_cycle. */
    friend class CompiledHwPartition;

    Value popValue(int prim_id, const TypePtr &type, bool device,
                   bool &ok);

    /** Bind-or-verify the owning thread (see file comment). */
    void checkThread(const char *op);

    /** Owning thread of the mutating ABI; default-constructed id =
     *  unbound. */
    std::atomic<std::thread::id> owner_{};

    std::shared_ptr<const CompiledArtifact> artifact_;
    void *inst_ = nullptr;
};

} // namespace bcl

#endif // BCL_RUNTIME_GENCC_HPP
