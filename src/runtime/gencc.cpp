#include "runtime/gencc.hpp"

#include <dlfcn.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "common/logging.hpp"
#include "core/typecheck.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace bcl {

namespace {

/** The compiler the harness invokes (overridable via $CXX). */
std::string
compilerCommand()
{
    const char *cxx = std::getenv("CXX");
    return cxx && *cxx ? cxx : "c++";
}

std::string
makeWorkDir()
{
    const char *tmp = std::getenv("TMPDIR");
    std::string tmpl = std::string(tmp && *tmp ? tmp : "/tmp") +
                       "/bcl_gencc_XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    if (!mkdtemp(buf.data()))
        fatal("gencc: cannot create scratch directory " + tmpl);
    return std::string(buf.data());
}

/**
 * Unique per-artifact file stem: pid + process-wide counter. Two
 * concurrent compiles of different partitions may legitimately share
 * a caller-provided workDir (the CompileCache does exactly that), so
 * emitted names must never collide — neither within this process
 * (counter) nor across processes pointed at the same directory
 * (pid).
 */
std::string
uniqueStem()
{
    static std::atomic<std::uint64_t> counter{0};
    return "partition_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter.fetch_add(1));
}

std::string
readAll(const std::string &path, size_t limit = 4000)
{
    std::ifstream in(path);
    std::string line, all;
    while (std::getline(in, line)) {
        all += line + "\n";
        if (all.size() > limit)
            break;
    }
    return all.substr(0, limit);
}

/** One host-compiler child: the unit it builds, its shell command
 *  and where its diagnostics go. */
struct CompileJob
{
    std::string unit;
    std::string cmd;
    std::string log;
    pid_t pid = -1;
    int spawnErr = 0;  ///< posix_spawn's error when it could not start
    double cpuMs = 0;  ///< user+sys of the child and its compiler
};

/** Wait for OUR child @p job only — a forked shm partition child of
 *  the same process must never be reaped here. Records the child's
 *  CPU time (wait4 folds in the compiler processes the shell waited
 *  for) in job.cpuMs. True on exit 0. */
bool
reap(CompileJob &job)
{
    int status = 0;
    struct rusage ru{};
    pid_t rc = -1;
    do {
        rc = ::wait4(job.pid, &status, 0, &ru);
    } while (rc < 0 && errno == EINTR);
    auto ms = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) * 1e3 +
               static_cast<double>(tv.tv_usec) / 1e3;
    };
    job.cpuMs = ms(ru.ru_utime) + ms(ru.ru_stime);
    return rc == job.pid && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

/**
 * Run @p jobs as `/bin/sh -c` children, in list order, at most
 * @p limit at a time, from the calling thread (no helper threads).
 * At the limit, the oldest running child is waited for before the
 * next starts. After the first failure no further child starts, and
 * every started one is still reaped before returning.
 * @return index of the first job that failed, or jobs.size().
 */
size_t
runJobs(std::vector<CompileJob> &jobs, size_t limit)
{
    size_t failed = jobs.size();
    std::deque<size_t> running;
    for (size_t next = 0; next < jobs.size() || !running.empty();) {
        if (next < jobs.size() && failed == jobs.size() &&
            running.size() < limit) {
            CompileJob &job = jobs[next];
            const char *argv[] = {"/bin/sh", "-c", job.cmd.c_str(),
                                  nullptr};
            job.spawnErr = ::posix_spawn(
                &job.pid, "/bin/sh", nullptr, nullptr,
                const_cast<char *const *>(argv), environ);
            if (job.spawnErr != 0)
                failed = next;
            else
                running.push_back(next);
            next++;
            continue;
        }
        if (running.empty())
            break;  // a failure stopped the remaining starts
        const size_t i = running.front();
        running.pop_front();
        if (!reap(jobs[i]) && failed == jobs.size())
            failed = i;
    }
    return failed;
}

} // namespace

// ---------------------------------------------------------------------------
// CompiledArtifact — the compile/dlopen half, shared across instances
// ---------------------------------------------------------------------------

bool
CompiledArtifact::hostCompilerAvailable()
{
    static const bool available = [] {
        std::string cmd =
            compilerCommand() + " --version > /dev/null 2>&1";
        return std::system(cmd.c_str()) == 0;
    }();
    return available;
}

std::string
CompiledArtifact::includeDir(const GenccOptions &opts)
{
    if (!opts.includeDir.empty())
        return opts.includeDir;
#ifdef BCL_GENCC_INCLUDE_DIR
    return BCL_GENCC_INCLUDE_DIR;
#else
    return "";
#endif
}

CompiledArtifact::CompiledArtifact(const ElabProgram &prog,
                                   GenccOptions opts,
                                   std::vector<CppUnit> units)
    : prog_(prog), opts_(std::move(opts)), units_(std::move(units))
{
    const bool reuse = !opts_.reuseSoPath.empty();
    if (!reuse && !hostCompilerAvailable())
        fatal("gencc: no host C++ compiler ('" + compilerCommand() +
              "') — guard call sites with hostCompilerAvailable()");

    if (reuse) {
        // Adopt an existing shared object (CompileCache disk hit).
        // No files are emitted, so destruction removes nothing.
        units_.clear();
        dir_ = std::filesystem::path(opts_.reuseSoPath)
                   .parent_path()
                   .string();
        load(opts_.reuseSoPath);
    } else {
        const std::string inc = includeDir(opts_);
        if (inc.empty())
            fatal("gencc: include directory for "
                  "runtime/gen_support.hpp unknown; set "
                  "GenccOptions::includeDir");
        // The compile line runs through the shell; double quotes
        // handle spaces, but quote/expansion metacharacters in a path
        // would still break out — refuse them rather than misparse.
        auto rejectMeta = [](const std::string &what,
                             const std::string &s) {
            if (s.find_first_of("\"$`\\") != std::string::npos)
                fatal("gencc: " + what +
                      " contains shell metacharacters: " + s);
        };
        rejectMeta("include directory", inc);

        if (units_.empty())
            units_ =
                generateCpp(prog_, "BclGenPartition", opts_.mode);
        ownDir_ = opts_.workDir.empty();
        dir_ = ownDir_ ? makeWorkDir() : opts_.workDir;
        rejectMeta("scratch directory", dir_);  // covers $TMPDIR too
        std::filesystem::create_directories(dir_);

        const std::string stem =
            dir_ + "/" +
            (opts_.fileStem.empty() ? uniqueStem() : opts_.fileStem);
        files_ = {stem + ".so", stem + ".log"};
        try {
            compile(stem, inc);
        } catch (...) {
            // A failed artifact has no destructor to clean up after
            // it; the error already carries the log and command.
            std::error_code ec;
            if (ownDir_)
                std::filesystem::remove_all(dir_, ec);
            for (const std::string &f : files_)
                std::filesystem::remove(f, ec);
            throw;
        }
        load(stem + ".so");
    }
}

void
CompiledArtifact::compile(const std::string &stem,
                          const std::string &inc)
{
    // -O2: the whole point is native-speed execution; the §6.3
    // strategies differ in what they make the optimizer's job easy
    // on. Paths are quoted — source trees and TMPDIRs with spaces must
    // not split the shell command.
    const std::string cxx = compilerCommand();
    const std::string extra =
        opts_.extraFlags.empty() ? "" : opts_.extraFlags + " ";
    const std::string so = stem + ".so";
    const bool single = units_.size() == 1;

    // Per-unit sources, objects and logs are scratch: removed once
    // the shared object is linked (or the build failed), whatever
    // keepArtifacts says — only the .so and one log outlive this.
    struct Scratch
    {
        std::vector<std::string> paths;
        Scratch() = default;
        Scratch(const Scratch &) = delete;
        Scratch &operator=(const Scratch &) = delete;
        ~Scratch()
        {
            std::error_code ec;
            for (const std::string &p : paths)
                std::filesystem::remove(p, ec);
        }
    } scratch;

    std::vector<CompileJob> jobs;
    std::string objects;
    std::int64_t source_bytes = 0;
    for (const CppUnit &u : units_) {
        const std::string base = stem + "." + u.name;
        const std::string cpp = base + ".cpp";
        const std::string out = single ? so : base + ".o";
        scratch.paths.push_back(cpp);
        scratch.paths.push_back(base + ".log");
        if (!single) {
            scratch.paths.push_back(out);
            objects += "\"" + out + "\" ";
        }
        std::ofstream file(cpp);
        file << u.text;
        if (!file)
            fatal("gencc: cannot write " + cpp);
        source_bytes += static_cast<std::int64_t>(u.text.size());
        jobs.push_back({u.name,
                        cxx + " -std=c++20 -O2 -fPIC " +
                            (single ? "-shared " : "-c ") + "-I\"" +
                            inc + "\" " + extra + "\"" + cpp +
                            "\" -o \"" + out + "\" 2> \"" + base +
                            ".log\"",
                        base + ".log"});
    }

    // Host-compiler invocations dominate cold-start latency; the one
    // span (on the calling thread, around every child) and the
    // histogram make them visible next to the cache hits they should
    // be.
    obs::TraceSpan span("gencc.compile", "gencc", "source_bytes",
                        source_bytes);
    auto t0 = std::chrono::steady_clock::now();
    // Reaps every child of @p batch, then names the first failure.
    auto run = [](std::vector<CompileJob> &batch, size_t limit) {
        const size_t failed = runJobs(batch, limit);
        if (failed == batch.size())
            return;
        const CompileJob &job = batch[failed];
        fatal("gencc: generated unit '" + job.unit +
              "' failed to build:\n" +
              (job.spawnErr ? std::string("cannot start /bin/sh: ") +
                                  std::strerror(job.spawnErr)
                            : readAll(job.log)) +
              "\n(command: " + job.cmd + ")");
    };
    run(jobs, std::max(1u, std::thread::hardware_concurrency()));
    if (!single) {
        const std::string log = stem + ".link.log";
        scratch.paths.push_back(log);
        std::vector<CompileJob> link{
            {"link",
             cxx + " -shared -fPIC " + extra + objects + "-o \"" + so +
                 "\" 2> \"" + log + "\"",
             log}};
        run(link, 1);
        jobs.push_back(link[0]);
    }

    // One log for the artifact: every child's diagnostics in order.
    std::ofstream log(stem + ".log");
    for (const CompileJob &job : jobs) {
        std::ifstream in(job.log);
        std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
        if (!text.empty())
            log << "[" << job.unit << "]\n" << text;
    }

    obs::metrics().counter("gencc.compiles").add(1);
    obs::metrics().counter("gencc.units").add(units_.size());
    obs::metrics()
        .histogram("gencc.compile_ms",
                   obs::Histogram::exponentialBounds(1.0, 2.0, 16))
        .observe(std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count());
    // Per unit (not the link): the slowest unit bounds the wall time
    // above, so its bucket is the one to act on.
    obs::Histogram &unit_cpu = obs::metrics().histogram(
        "gencc.unit_cpu_ms",
        obs::Histogram::exponentialBounds(1.0, 2.0, 16));
    for (size_t i = 0; i < units_.size(); i++)
        unit_cpu.observe(jobs[i].cpuMs);
}

void
CompiledArtifact::load(const std::string &so_path)
{
    so_ = so_path;
    dl_ = dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
    if (!dl_)
        fatal(std::string("gencc: dlopen failed: ") + dlerror());
    resolveAbi();
}

void
CompiledArtifact::resolveAbi()
{
    auto resolve = [&](const char *name) -> void * {
        void *sym = dlsym(dl_, name);
        if (!sym)
            fatal(std::string("gencc: generated object lacks symbol ") +
                  name);
        return sym;
    };
    auto *fnAbi = reinterpret_cast<int (*)()>(
        resolve("bcl_gen_abi_version"));
    if (fnAbi() != kCppGenAbiVersion) {
        fatal("gencc: ABI version mismatch: harness " +
              std::to_string(kCppGenAbiVersion) + ", generated " +
              std::to_string(fnAbi()));
    }
    fnCreate_ =
        reinterpret_cast<void *(*)()>(resolve("bcl_gen_create"));
    fnDestroy_ = reinterpret_cast<void (*)(void *)>(
        resolve("bcl_gen_destroy"));
    fnRun_ = reinterpret_cast<std::uint64_t (*)(void *)>(
        resolve("bcl_gen_run"));
    fnStat_ = reinterpret_cast<std::uint64_t (*)(void *, int)>(
        resolve("bcl_gen_stat"));
    fnPush_ = reinterpret_cast<int (*)(void *, int,
                                       const std::uint32_t *, int)>(
        resolve("bcl_gen_prim_push"));
    fnPop_ =
        reinterpret_cast<int (*)(void *, int, std::uint32_t *, int)>(
            resolve("bcl_gen_prim_pop"));
    fnSize_ = reinterpret_cast<int (*)(void *, int, int)>(
        resolve("bcl_gen_prim_size"));
    fnCall_ = reinterpret_cast<int (*)(void *, int,
                                       const std::uint32_t *, int)>(
        resolve("bcl_gen_call_action"));
    fnWords_ =
        reinterpret_cast<int (*)(int)>(resolve("bcl_gen_payload_words"));
    fnHwValid_ =
        reinterpret_cast<int (*)()>(resolve("bcl_gen_hw_valid"));
    fnHwCycle_ = reinterpret_cast<int (*)(void *)>(
        resolve("bcl_gen_hw_cycle"));
    fnHwFires_ = reinterpret_cast<int (*)(void *, std::uint64_t *, int)>(
        resolve("bcl_gen_hw_fires"));

    // Layout cross-check: the word count the generated side derived
    // for every ABI-visible primitive must match the host's own
    // derivation from the same Type — any drift here would corrupt
    // every message silently. On a reused .so this doubles as the
    // cache-integrity check: a stale object for a different program
    // fatals here instead of aliasing.
    for (const auto &prim : prog_.prims) {
        int host_words = -1;
        if (prim.kind == "Fifo" || prim.kind == "Sync" ||
            prim.kind == "SyncTx" || prim.kind == "SyncRx") {
            host_words = (prim.type->flatWidth() + 31) / 32;
        } else if (prim.kind == "AudioDev") {
            TypePtr t = devicePayloadType(prog_, prim.id);
            deviceTypes_[prim.id] = t;
            host_words = (t->flatWidth() + 31) / 32;
        } else {
            continue;
        }
        int gen_words = fnWords_(prim.id);
        if (gen_words != host_words) {
            fatal("gencc: marshaled layout mismatch on " + prim.path +
                  ": generated side expects " +
                  std::to_string(gen_words) + " words, host " +
                  std::to_string(host_words));
        }
    }
}

CompiledArtifact::~CompiledArtifact()
{
    if (dl_)
        dlclose(dl_);
    if (opts_.keepArtifacts)
        return;
    std::error_code ec;
    if (ownDir_) {
        if (!dir_.empty())
            std::filesystem::remove_all(dir_, ec);
    } else {
        // Caller-provided (possibly shared) directory: remove only
        // the files this artifact emitted, never the directory or a
        // sibling compile's output.
        for (const std::string &f : files_)
            std::filesystem::remove(f, ec);
    }
}

// ---------------------------------------------------------------------------
// CompiledPartition — one live instance, thread-confined
// ---------------------------------------------------------------------------

CompiledPartition::CompiledPartition(const ElabProgram &prog,
                                     GenccOptions opts)
    : CompiledPartition(std::make_shared<const CompiledArtifact>(
          prog, std::move(opts)))
{
}

CompiledPartition::CompiledPartition(
    std::shared_ptr<const CompiledArtifact> artifact)
    : artifact_(std::move(artifact))
{
    if (!artifact_)
        fatal("gencc: CompiledPartition needs a non-null artifact");
    inst_ = artifact_->fnCreate_();
    if (!inst_)
        fatal("gencc: bcl_gen_create returned null");
}

CompiledPartition::~CompiledPartition()
{
    if (inst_)
        artifact_->fnDestroy_(inst_);
}

void
CompiledPartition::checkThread(const char *op)
{
    const std::thread::id cur = std::this_thread::get_id();
    // Bound to the caller: the common case, one load.
    std::thread::id expect = owner_.load(std::memory_order_acquire);
    if (expect == cur)
        return;
    // Unbound -> bind to the calling thread; already-bound -> must
    // match. The CAS only ever installs over the unbound id, so the
    // bound owner is stable until rebindThread().
    if (expect == std::thread::id{} &&
        owner_.compare_exchange_strong(expect, cur,
                                       std::memory_order_acq_rel))
        return;
    if (expect != cur) {
        panic(std::string("gencc: ") + op +
              " called from a second thread while the partition "
              "instance is bound to another (compiled instances are "
              "thread-confined; rebindThread() moves ownership at a "
              "synchronization point)");
    }
}

void
CompiledPartition::rebindThread()
{
    owner_.store(std::thread::id{}, std::memory_order_release);
}

std::uint64_t
CompiledPartition::runToQuiescence()
{
    checkThread("runToQuiescence");
    return artifact_->fnRun_(inst_);
}

std::uint64_t
CompiledPartition::rulesFired() const
{
    return artifact_->fnStat_(inst_, 0);
}

std::uint64_t
CompiledPartition::rulesAttempted() const
{
    return artifact_->fnStat_(inst_, 1);
}

bool
CompiledPartition::pushPrim(int prim_id, const Value &v)
{
    checkThread("pushPrim");
    // A message popped packed from another compiled partition goes
    // back in as the same words; anything else is marshaled here.
    std::vector<std::uint32_t> marshaled;
    const std::vector<std::uint32_t> *words = v.packedWords();
    if (!words) {
        BitSink sink;
        v.packWords(sink);
        marshaled = sink.takeWords();
        words = &marshaled;
    }
    int rc = artifact_->fnPush_(inst_, prim_id, words->data(),
                                static_cast<int>(words->size()));
    if (rc < 0) {
        panic("gencc: prim_push(" + std::to_string(prim_id) +
              ") rejected with " + std::to_string(rc) +
              " (id unknown or word count mismatch)");
    }
    return rc == 1;
}

bool
CompiledPartition::pop(int prim_id, const TypePtr &type, Value &out)
{
    int nwords = (type->flatWidth() + 31) / 32;
    std::vector<std::uint32_t> words(
        static_cast<size_t>(nwords > 0 ? nwords : 1));
    int rc = artifact_->fnPop_(inst_, prim_id, words.data(), nwords);
    if (rc < 0) {
        panic("gencc: pop(" + std::to_string(prim_id) +
              ") rejected with " + std::to_string(rc) +
              " (id unknown or word count mismatch)");
    }
    if (rc == 0) {
        out = Value();
        return false;
    }
    // Aggregates stay marshaled until something reads them (see
    // core/value.hpp); a pushPrim into the next compiled partition
    // never unpacks them.
    if (type->isVec() || type->isStruct()) {
        words.resize(static_cast<size_t>(nwords));
        out = Value::makePacked(type, std::move(words));
    } else {
        BitCursor cursor(words.data(), static_cast<size_t>(nwords));
        out = type->unpackWords(cursor);
    }
    return true;
}

bool
CompiledPartition::popPrim(int prim_id, Value &out)
{
    checkThread("popPrim");
    const ElabProgram &prog = artifact_->program();
    return pop(prim_id, prog.prims[static_cast<size_t>(prim_id)].type,
               out);
}

int
CompiledPartition::primSize(int prim_id, int reserve)
{
    checkThread("primSize");
    int n = artifact_->fnSize_(inst_, prim_id, reserve);
    if (n < 0)
        panic("gencc: prim_size(" + std::to_string(prim_id) +
              ") rejected (id unknown)");
    return n;
}

bool
CompiledPartition::popDevice(int prim_id, Value &out)
{
    checkThread("popDevice");
    auto it = artifact_->deviceTypes_.find(prim_id);
    if (it == artifact_->deviceTypes_.end())
        panic("gencc: popDevice on non-device prim " +
              std::to_string(prim_id));
    return pop(prim_id, it->second, out);
}

bool
CompiledPartition::callActionMethod(int meth_id,
                                    const std::vector<Value> &args)
{
    checkThread("callActionMethod");
    // Per-argument marshaling, each argument starting on a word
    // boundary (the generated side unpacks each from its own offset).
    std::vector<std::uint32_t> words;
    for (const Value &a : args) {
        BitSink sink;
        a.packWords(sink);
        std::vector<std::uint32_t> part = sink.takeWords();
        words.insert(words.end(), part.begin(), part.end());
    }
    int rc = artifact_->fnCall_(inst_, meth_id, words.data(),
                                static_cast<int>(words.size()));
    if (rc < 0) {
        panic("gencc: call_action(" + std::to_string(meth_id) +
              ") rejected with " + std::to_string(rc) +
              " (id unknown or word count mismatch)");
    }
    return rc == 1;
}

} // namespace bcl
