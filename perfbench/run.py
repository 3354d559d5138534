#!/usr/bin/env python3
"""The repository benchmark.

Builds the measurement driver (perfbench.cpp, against the repository's
own libraries) into .bench_build, runs one workload and prints every
metric by name with its unit. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload vorbis_stream_split --seed 1 \\
        --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics of an untraced run. --trace 1
runs the workload untraced and then traced (tracing and metrics on),
writes the Chrome trace to .bench_build/traces/, prints the per-layer
ledger and reports the per-layer metrics.

    python3 perfbench/run.py --self-check

runs every workload at tiny sizes and asserts that each metric is
emitted with its unit, that the ledger adds up, and that a single
flipped reference sample or pixel fails the run.

See README.md in this directory for the workloads, the metric
catalogue and the seed-commit baseline.
"""

import argparse
import bisect
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ["vorbis_stream_split", "ray_roundtrip", "ray_roundtrip_shm",
             "serve_fleet"]
V, R, S, F = WORKLOADS
COSIM = (V, R, S)

DEFAULT_SEED = 1  # the held-out seed is in README.md

# An untraced run splits its time over this many driver processes and
# pools their samples: part of the run-to-run spread is fixed for the
# life of a process (its memory and code layout), so several processes
# sample it the way many passes sample the host's passing noise.
PROCESSES = 3

# Tiny sizes for --self-check (the driver's defaults are the real ones).
SMOKE_ARGS = {
    V: ["--frames", "8"],
    R: ["--size", "3", "--prims", "16", "--scenes", "2"],
    S: ["--size", "3", "--prims", "16", "--scenes", "2"],
    F: ["--frames", "2", "--sessions", "8"],
}

# End-to-end metrics: (name, unit).
END_TO_END = [
    ("setup_s", "s"),
    ("items_per_s", "items/s"),
    ("sim_cycles_per_s", "cycles/s"),
    ("fpga_cycles", "cycles"),
    ("item_latency_ms_p50", "ms"),
    ("item_latency_ms_p99", "ms"),
    ("peak_rss_mb", "MB"),
]

# Per-layer metrics: (name, unit, end-to-end metric it should move,
# workloads where it is measured and non-zero). Every metric is emitted
# on every workload; outside its workloads it reads 0 (the mechanism is
# not on that workload's path).
PER_LAYER = [
    ("core.build_ms", "ms", "setup_s", WORKLOADS),
    ("core.elaborate_ms", "ms", "setup_s", WORKLOADS),
    ("core.infer_domains_ms", "ms", "setup_s", WORKLOADS),
    ("core.partition_ms", "ms", "setup_s", WORKLOADS),
    ("runtime.gencc.resolve_ms", "ms", "setup_s", (V, F)),
    ("runtime.gencc.artifacts", "count", "setup_s", (V, F)),
    ("runtime.gencc.compile_ms", "ms", "setup_s", (V, F)),
    ("runtime.sw.rules_fired", "count", "items_per_s", WORKLOADS),
    ("runtime.sw.rules_attempted", "count", "items_per_s", WORKLOADS),
    ("runtime.sw.fire_ratio", "ratio", "items_per_s", WORKLOADS),
    ("runtime.sw.work", "count", "items_per_s", COSIM),
    ("runtime.sw.wasted_work", "count", "items_per_s", COSIM),
    ("runtime.sw.shadow_copies", "count", "items_per_s", COSIM),
    ("runtime.sw.driver_call_us", "us", "items_per_s", (V, F)),
    ("hwsim.cycles", "cycles", "sim_cycles_per_s", COSIM),
    ("hwsim.busy_cycles", "cycles", "fpga_cycles", COSIM),
    ("hwsim.rules_fired", "count", "sim_cycles_per_s", COSIM),
    ("hwsim.utilization", "ratio", "fpga_cycles", COSIM),
    ("hwsim.host_ns_per_cycle", "ns", "sim_cycles_per_s", COSIM),
    ("platform.cosim.ctor_ms", "ms", "setup_s", COSIM),
    ("platform.cosim.run_ms", "ms", "items_per_s", WORKLOADS),
    ("platform.cosim.sw.slice_ms", "ms", "items_per_s", WORKLOADS),
    ("platform.cosim.sw.wait_ms", "ms", "items_per_s", WORKLOADS),
    ("platform.cosim.hw.slice_ms", "ms", "items_per_s", COSIM),
    ("platform.cosim.hw.wait_ms", "ms", "items_per_s", COSIM),
    ("platform.channel.messages", "count", "items_per_s", COSIM),
    ("platform.channel.payload_words", "count", "items_per_s", COSIM),
    ("platform.channel.stall_cycles", "cycles", "fpga_cycles", (V,)),
    ("platform.channel.stall_events", "count", "fpga_cycles", (V,)),
    ("platform.channel.host_ns_per_message", "ns", "items_per_s", COSIM),
    ("platform.link.busy_cycles", "cycles", "fpga_cycles", COSIM),
    ("platform.link.grants", "count", "fpga_cycles", COSIM),
    ("platform.remote.slices", "count", "items_per_s", (S,)),
    ("platform.remote.slice_us_p50", "us", "items_per_s", (S,)),
    ("serve.create_session_ms", "ms", "setup_s", (F,)),
    ("serve.create_session_ms_p50", "ms", "setup_s", (F,)),
    ("serve.cache.compiles", "count", "setup_s", (F,)),
    ("serve.cache.hits", "count", "setup_s", (F,)),
    ("serve.drain_ms", "ms", "items_per_s", (F,)),
    ("serve.pool.quanta", "count", "items_per_s", (F,)),
    ("serve.pool.failed", "count", "items_per_s", ()),
    ("serve.advance_ms_p50", "ms", "item_latency_ms_p50", (F,)),
    ("serve.advance_ms_p99", "ms", "item_latency_ms_p99", (F,)),
    ("serve.queue_wait_ms_p50", "ms", "item_latency_ms_p50", (F,)),
    ("serve.queue_wait_ms_p99", "ms", "item_latency_ms_p99", (F,)),
    ("serve.worker_busy_frac", "ratio", "items_per_s", (F,)),
    ("obs.trace_overhead_frac", "ratio", "items_per_s", ()),
    ("ledger.wall_ms", "ms", "setup_s", WORKLOADS),
    ("ledger.unattributed_frac", "ratio", "items_per_s", ()),
]


class BenchError(Exception):
    """A failure that ends the run without a result line."""


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q):
    """Nearest-rank percentile (same rule as the driver's)."""
    if not values:
        return 0.0
    v = sorted(values)
    return v[min(int(q * len(v)), len(v) - 1)]


# ---------------------------------------------------------------------------
# Build
# ---------------------------------------------------------------------------

def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"))


def build():
    """Configure (once) and build the driver; returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("repository sources not found next to "
                         "perfbench/ (need CMakeLists.txt and src/)")
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "perfbench-build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            rc = subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                                 stdin=subprocess.DEVNULL, cwd=ROOT)
            if rc != 0:
                raise BenchError("build failed (%s); see %s"
                                 % (" ".join(cmd[:2]), log_path))
    return os.path.join(bdir, "perfbench")


# ---------------------------------------------------------------------------
# Host stamp
# ---------------------------------------------------------------------------

def first_line(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=20, cwd=ROOT, stdin=subprocess.DEVNULL)
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0 or not out.stdout.strip():
        return None
    return out.stdout.strip().splitlines()[0]


def host_stamp(raw):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        nproc = os.cpu_count()
    host = raw.get("host", {})
    return {
        "git_sha": first_line(["git", "rev-parse", "HEAD"]) or
        "unknown (not a git checkout)",
        "build_type": host.get("build_type", "unknown"),
        "nproc": nproc,
        "hardware_concurrency": host.get("hardware_concurrency"),
        "cpu": cpu,
        "host_compiler": first_line([os.environ.get("CXX") or "c++",
                                     "--version"]) or "unknown",
        "bench_compiler": host.get("bench_compiler", "unknown"),
    }


# ---------------------------------------------------------------------------
# Running the driver
# ---------------------------------------------------------------------------

def run_driver(exe, workload, seed, seconds, trace_path=None, extra=(),
               timeout=170):
    """Run perfbench once; returns (exit code, parsed result or None)."""
    scratch = os.path.join(build_dir(), "tmp")
    os.makedirs(scratch, exist_ok=True)
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if trace_path:
        cmd += ["--trace-out", trace_path]
    cmd += list(extra)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        env = dict(os.environ, TMPDIR=tmp)
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  env=env, timeout=timeout, cwd=ROOT,
                                  stdin=subprocess.DEVNULL)
        except subprocess.TimeoutExpired:
            raise BenchError("%s did not finish within %d s"
                             % (workload, timeout))
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("PERFBENCH_RESULT "):
            result = json.loads(line[len("PERFBENCH_RESULT "):])
        else:
            print(line)
    if proc.stderr.strip():
        sys.stderr.write(proc.stderr)
    return proc.returncode, result


def merge_runs(raws):
    """One raw result from the untraced phases of several processes."""
    ps = [r["plain"] for r in raws]
    p = dict(ps[0])
    for key in ("setup_s", "items_per_s", "sim_cycles_per_s", "fpga_cycles",
                "failures"):
        p[key] = [v for q in ps for v in q[key]]
    for key in ("passes", "attempted", "failed"):
        p[key] = sum(q[key] for q in ps)
    p["latency_ms"] = {
        "p50": [v for q in ps for v in q["latency_ms"]["p50"]],
        "p99": [v for q in ps for v in q["latency_ms"]["p99"]],
        "samples": sum(q["latency_ms"]["samples"] for q in ps),
    }
    return dict(raws[0], plain=p,
                peak_rss_mb=max(r["peak_rss_mb"] for r in raws))


def end_to_end(raw):
    p = raw["plain"]
    lat = p["latency_ms"]
    return {
        "setup_s": median(p["setup_s"]),
        "items_per_s": median(p["items_per_s"]),
        "sim_cycles_per_s": median(p["sim_cycles_per_s"]),
        "fpga_cycles": median(p["fpga_cycles"]),
        "item_latency_ms_p50": median(lat["p50"]),
        "item_latency_ms_p99": median(lat["p99"]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


# ---------------------------------------------------------------------------
# Trace analysis: spans per thread, and the per-layer ledger
# ---------------------------------------------------------------------------

class Span:
    __slots__ = ("name", "cat", "tid", "start", "end", "args", "children")

    def __init__(self, name, cat, tid, start, args):
        self.name, self.cat, self.tid = name, cat, tid
        self.start, self.end, self.args = start, start, args
        self.children = []

    @property
    def dur(self):
        return self.end - self.start


def load_spans(path):
    """Rebuild B/E pairs per thread; returns (roots per tid, all spans)."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    stacks, roots, spans = {}, {}, []
    for e in events:
        ph = e.get("ph")
        if ph not in ("B", "E"):
            continue
        tid = e["tid"]
        ts = float(e["ts"]) / 1e3  # us -> ms
        stack = stacks.setdefault(tid, [])
        if ph == "B":
            sp = Span(e["name"], e["cat"], tid, ts, e.get("args", {}))
            (stack[-1].children if stack else
             roots.setdefault(tid, [])).append(sp)
            stack.append(sp)
            spans.append(sp)
        elif stack:
            stack.pop().end = ts
    return roots, spans


def slice_row(kind):
    return {"sw": "runtime.sw.exec", "hw": "hwsim.clock",
            "remote": "platform.remote.slice"}.get(kind, "platform.other")


def row_layer(row):
    return "-" if row == "unattributed" else row.split(".", 1)[0]


class Ledger:
    """Critical-path attribution of the traced wall time: every ms of
    the main thread's bench.workload span lands in exactly one row."""

    def __init__(self, roots, spans, domains, workers):
        self.rows = {}
        self.domains = domains
        self.workers = max(1, workers)
        main = None
        for tid, rs in roots.items():
            for sp in rs:
                if sp.name == "bench.workload":
                    main = sp
        if main is None:
            raise BenchError("trace has no bench.workload span")
        self.wall = main.dur
        others = [sp for sp in spans if sp.tid != main.tid]
        self.slices = sorted((sp for sp in others
                              if sp.cat == "cosim.slice"),
                             key=lambda s: s.start)
        self.slice_starts = [sp.start for sp in self.slices]
        self.advances = sorted((sp for sp in others
                                if sp.name == "session.advance"),
                               key=lambda s: s.start)
        self.adv_starts = [sp.start for sp in self.advances]
        self.walk(main)

    def add(self, row, ms):
        self.rows[row] = self.rows.get(row, 0.0) + ms

    def walk(self, sp):
        if sp.name == "serve.drain":
            return self.drain(sp)
        for c in sp.children:
            self.walk(c)
        own = sp.dur - sum(c.dur for c in sp.children)
        self.add(self.self_row(sp), own)

    def self_row(self, sp):
        if sp.name == "bench.workload":
            return "unattributed"
        if sp.cat == "cosim.slice":
            return slice_row(self.domains.get(sp.name))
        if sp.name == "platform.cosim.run":
            return "platform.cosim.loop"
        if sp.cat == "gencc":
            return "runtime.gencc.compile"
        if sp.name == "bench.pass":
            return "bench.pass"
        return sp.name

    def within(self, starts, items, lo, hi):
        i = bisect.bisect_left(starts, lo)
        while i < len(items) and items[i].start < hi:
            yield items[i]
            i += 1

    def drain(self, dr):
        # Workers serve sessions concurrently; the drain is split by the
        # average worker's occupancy.
        adv = slc = 0.0
        for a in self.within(self.adv_starts, self.advances, dr.start,
                             dr.end):
            adv += a.dur
        for sl in self.within(self.slice_starts, self.slices, dr.start,
                              dr.end):
            slc += sl.dur
        w = self.workers
        self.add("runtime.sw.exec", slc / w)
        self.add("serve.advance", (adv - slc) / w)
        self.add("serve.idle", dr.dur - adv / w)
        for c in dr.children:
            self.walk(c)


def domain_slices(spans, domains):
    """Total cosim.slice ms per domain, on every thread."""
    out = {d: 0.0 for d in domains}
    for sp in spans:
        if sp.cat == "cosim.slice":
            out[sp.name] = out.get(sp.name, 0.0) + sp.dur
    return out


def serve_latency_split(spans, session_lat):
    """Per quantum: advance (service) time, and ready-to-done latency
    minus service (queue wait), pairing the k-th advance span of a
    session with its k-th recorded latency."""
    adv = {}
    for sp in spans:
        if sp.name == "session.advance":
            adv.setdefault(int(sp.args.get("session", -1)), []).append(sp)
    service, wait = [], []
    for sid, lat in session_lat.items():
        sps = sorted(adv.get(int(sid), []), key=lambda s: s.start)
        for sp, ms in zip(sps, lat):
            service.append(sp.dur)
            wait.append(max(0.0, ms - sp.dur))
    return service, wait


def per_layer(raw, trace_path):
    """The per-layer metrics plus the ledger rows and per-domain /
    per-channel detail, from the traced phase."""
    t = raw["traced"]
    reg = raw.get("registry", {})
    passes = max(1, t["passes"])
    su, st = t["sums"], t["setup"]
    domains = t["domains"]
    roots, spans = load_spans(trace_path)
    workers = int(st.get("serve.pool.workers", 1))
    ledger = Ledger(roots, spans, domains, workers)

    def per_pass(key):
        return su.get(key, 0.0) / passes

    def total(prefix, field):
        """Sum of per-domain/per-channel counters <prefix><x>.<field>."""
        return sum(v for k, v in su.items()
                   if k.startswith(prefix) and
                   k.rsplit(".", 1)[1] == field) / passes

    def hist(name, field):
        h = reg.get(name)
        return float(h.get(field, 0.0)) if h else 0.0

    m = {}
    for k in ("core.build_ms", "core.elaborate_ms", "core.infer_domains_ms",
              "core.partition_ms", "runtime.gencc.resolve_ms",
              "runtime.gencc.artifacts", "serve.create_session_ms_p50",
              "serve.cache.compiles", "serve.cache.hits"):
        m[k] = st.get(k, 0.0)
    m["runtime.gencc.compile_ms"] = hist("gencc.compile_ms", "sum")

    for k in ("rules_fired", "rules_attempted", "work", "wasted_work",
              "shadow_copies"):
        m["runtime.sw." + k] = per_pass("runtime.sw." + k)
    att = m["runtime.sw.rules_attempted"]
    m["runtime.sw.fire_ratio"] = (m["runtime.sw.rules_fired"] / att
                                  if att else 0.0)
    m["runtime.sw.driver_call_us"] = per_pass("runtime.sw.driver_call_us")

    m["hwsim.cycles"] = total("hwsim.", "cycles")
    m["hwsim.busy_cycles"] = total("hwsim.", "busy_cycles")
    m["hwsim.rules_fired"] = total("hwsim.", "rules_fired")
    m["hwsim.utilization"] = (m["hwsim.busy_cycles"] / m["hwsim.cycles"]
                              if m["hwsim.cycles"] else 0.0)

    dslice = domain_slices(spans, domains)
    sw_doms = [d for d, k in domains.items() if k == "sw"]
    hw_doms = [d for d, k in domains.items() if k != "sw"]
    run_ms = per_pass("platform.cosim.run_ms")
    if raw["workload"] == F:
        run_ms = sum(sp.dur for sp in spans
                     if sp.name == "session.advance") / passes
    sw_slice = sum(dslice.get(d, 0.0) for d in sw_doms) / passes
    hw_slice = sum(dslice.get(d, 0.0) for d in hw_doms) / passes
    m["hwsim.host_ns_per_cycle"] = (hw_slice * 1e6 / m["hwsim.cycles"]
                                    if m["hwsim.cycles"] else 0.0)
    ctor_total = st.get("platform.cosim.ctor_ms", 0.0) + su.get(
        "platform.cosim.ctor_ms", 0.0)
    m["platform.cosim.ctor_ms"] = ctor_total / passes
    m["platform.cosim.run_ms"] = run_ms
    m["platform.cosim.sw.slice_ms"] = sw_slice
    m["platform.cosim.hw.slice_ms"] = hw_slice
    m["platform.cosim.sw.wait_ms"] = (max(0.0, run_ms * len(sw_doms) -
                                          sw_slice) if sw_doms else 0.0)
    m["platform.cosim.hw.wait_ms"] = (max(0.0, run_ms * len(hw_doms) -
                                          hw_slice) if hw_doms else 0.0)

    for k in ("messages", "payload_words", "stall_cycles", "stall_events"):
        m["platform.channel." + k] = total("platform.channel.", k)
    msgs = m["platform.channel.messages"]
    m["platform.channel.host_ns_per_message"] = (run_ms * 1e6 / msgs
                                                 if msgs else 0.0)
    m["platform.link.busy_cycles"] = total("platform.link.", "busy_cycles")
    m["platform.link.grants"] = total("platform.link.", "grants")
    m["platform.remote.slices"] = hist("cosim.remote.slice_us",
                                       "count") / passes
    m["platform.remote.slice_us_p50"] = hist("cosim.remote.slice_us", "p50")

    m["serve.create_session_ms"] = (st.get("serve.create_session_ms", 0.0) +
                                    su.get("serve.create_session_ms",
                                           0.0)) / passes
    m["serve.drain_ms"] = per_pass("serve.drain_ms")
    m["serve.pool.quanta"] = per_pass("serve.pool.quanta")
    m["serve.pool.failed"] = per_pass("serve.pool.failed")
    service, wait = serve_latency_split(spans,
                                        t.get("session_latency_ms", {}))
    m["serve.advance_ms_p50"] = percentile(service, 0.5)
    m["serve.advance_ms_p99"] = percentile(service, 0.99)
    m["serve.queue_wait_ms_p50"] = percentile(wait, 0.5)
    m["serve.queue_wait_ms_p99"] = percentile(wait, 0.99)
    drain_total = su.get("serve.drain_ms", 0.0)
    adv_total = sum(sp.dur for sp in spans if sp.name == "session.advance")
    m["serve.worker_busy_frac"] = (adv_total / (workers * drain_total)
                                   if drain_total else 0.0)

    plain_ips = median(raw["plain"]["items_per_s"])
    traced_ips = median(t["items_per_s"])
    m["obs.trace_overhead_frac"] = (1.0 - traced_ips / plain_ips
                                    if plain_ips else 0.0)
    m["ledger.wall_ms"] = ledger.wall
    m["ledger.unattributed_frac"] = (ledger.rows.get("unattributed", 0.0) /
                                     ledger.wall if ledger.wall else 0.0)

    detail = {
        "passes": t["passes"],
        "domains": {d: {"kind": k, "slice_ms": dslice.get(d, 0.0) / passes,
                        "wait_ms": max(0.0, run_ms -
                                       dslice.get(d, 0.0) / passes)}
                    for d, k in domains.items()},
        "counters": {k: v / passes for k, v in su.items()
                     if k.startswith(("hwsim.", "platform.channel.",
                                      "platform.link."))},
        "latency_samples": raw["plain"]["latency_ms"]["samples"],
        "host_ns_per_message_base": {"run_ms": run_ms, "messages": msgs},
        "serve_quanta_sampled": len(service),
    }
    return m, ledger, detail


def print_ledger(ledger):
    rows = sorted(ledger.rows.items(),
                  key=lambda kv: (kv[0] == "unattributed", -kv[1]))
    total = sum(ledger.rows.values())
    print("per-layer ledger (traced wall %.1f ms, critical path):"
          % ledger.wall)
    print("  %-10s %-28s %12s %8s" % ("layer", "row", "ms", "share"))
    for row, ms in rows:
        print("  %-10s %-28s %12.2f %7.2f%%"
              % (row_layer(row), row, ms,
                 100.0 * ms / ledger.wall if ledger.wall else 0.0))
    print("  %-10s %-28s %12.2f %7.2f%%" % ("", "sum of rows", total,
                                            100.0 * total / ledger.wall
                                            if ledger.wall else 0.0))


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def measure(exe, workload, seed, seconds, trace, extra=()):
    """One benchmark run; returns (result dict, exit code)."""
    trace_path = None
    if trace:
        tdir = os.path.join(build_dir(), "traces")
        os.makedirs(tdir, exist_ok=True)
        trace_path = os.path.join(tdir, "%s-seed%d.json" % (workload, seed))
        # Half the time untraced (the overhead baseline), half traced.
        extra = ["--setups", "1", "--setup-seconds", "0"] + list(extra)
        rc, raw = run_driver(exe, workload, seed, max(1.0, seconds / 2.0),
                             trace_path, extra)
        raws = [raw]
    else:
        # One set-up per process keeps the set-up count of one process.
        extra = ["--setups", "1", "--setup-seconds",
                 str(1.0 / PROCESSES)] + list(extra)
        rc, raws = 0, []
        for _ in range(PROCESSES):
            rc_k, raw = run_driver(exe, workload, seed, seconds / PROCESSES,
                                   None, extra, timeout=170 // PROCESSES)
            rc = rc or rc_k
            raws.append(raw)
            if raw is None or raw["plain"]["failed"]:
                break
    if None in raws:
        raise BenchError("%s exited %d without a result" % (workload, rc))
    raw = merge_runs(raws) if len(raws) > 1 else raws[0]
    p = raw["plain"]
    host = host_stamp(raw)
    print("host: " + json.dumps(host, sort_keys=True))
    print("sizes: " + json.dumps(raw["sizes"], sort_keys=True) +
          "; passes: %d; setups: %d" % (p["passes"], len(p["setup_s"])))
    for f in p["failures"]:
        print("FAILURE: " + f)
    if trace and "traced" in raw:
        metrics, ledger, detail = per_layer(raw, trace_path)
        units = {n: u for n, u, _, _ in PER_LAYER}
        print_ledger(ledger)
        print("detail: " + json.dumps(detail, sort_keys=True))
        print("chrome trace: " + os.path.relpath(trace_path, ROOT))
    else:
        metrics = end_to_end(raw)
        units = dict(END_TO_END)
        print("item latency: median over %d passes of each pass's p50/p99;"
              " %d samples" % (p["passes"], p["latency_ms"]["samples"]))
    metrics = {n: metrics[n] for n in units}  # catalogue order
    for name, value in metrics.items():
        print("  %-40s %16.6g %s" % (name, value, units[name]))
    correct = p["failed"] == 0 and rc == 0
    result = {
        "correct": correct,
        "attempted": int(p["attempted"]),
        "failed": int(p["failed"]) + (0 if correct or p["failed"] else 1),
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in metrics.items()},
    }
    return result, rc


def self_check(exe):
    """Smoke mode: every metric emitted with its unit, the ledger adds
    up, and a flipped reference is caught."""
    problems = []
    e2e_units = dict(END_TO_END)
    for w in WORKLOADS:
        print("== self-check %s" % w)
        res, rc = measure(exe, w, DEFAULT_SEED, 2, True,
                          SMOKE_ARGS[w] + ["--warmup-seconds", "0"])
        got = res["metrics"]
        if not res["correct"] or rc != 0:
            problems.append("%s: smoke run failed" % w)
        for name, unit, _, applies in PER_LAYER:
            if name not in got or got[name]["unit"] != unit:
                problems.append("%s: %s missing or wrong unit" % (w, name))
            elif w in applies and not got[name]["value"] > 0:
                problems.append("%s: %s reads %r" % (w, name,
                                                     got[name]["value"]))
        if got.get("ledger.unattributed_frac", {}).get("value", 1) > 0.05:
            problems.append("%s: ledger leaves more than 5%% unattributed"
                            % w)
        res, rc = measure(exe, w, DEFAULT_SEED, 1, False,
                          SMOKE_ARGS[w] + ["--warmup-seconds", "0",
                                           "--setups", "1",
                                           "--setup-seconds", "0"])
        for name, unit in END_TO_END:
            m = res["metrics"].get(name)
            if m is None or m["unit"] != e2e_units[name] or \
                    not m["value"] > 0:
                problems.append("%s: end-to-end %s missing or zero"
                                % (w, name))
        print("-- one flipped reference value: a FAILURE is expected")
        res, rc = measure(exe, w, DEFAULT_SEED, 0, False,
                          SMOKE_ARGS[w] + ["--warmup-seconds", "0",
                                           "--setups", "1",
                                           "--setup-seconds", "0",
                                           "--min-passes", "1",
                                           "--flip-reference"])
        if rc == 0 or res["correct"] or res["failed"] < 1:
            problems.append("%s: flipped reference not reported as a "
                            "failure" % w)
    bench_json = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.isfile(bench_json):
        with open(bench_json) as f:
            spec = json.load(f)
        if [w["name"] for w in spec["workloads"]] != WORKLOADS:
            problems.append("BENCHMARK.json workloads differ from run.py")
        if {m["name"]: m["unit"] for m in spec["end_to_end"]} != e2e_units:
            problems.append("BENCHMARK.json end_to_end differs from run.py")
        if {m["name"]: m["unit"] for m in spec["per_layer"]} != \
                {n: u for n, u, _, _ in PER_LAYER}:
            problems.append("BENCHMARK.json per_layer differs from run.py")
    for p in problems:
        print("SELF-CHECK FAILED: " + p)
    print("self-check: %s" % ("ok" if not problems else
                              "%d problem(s)" % len(problems)))
    return 0 if not problems else 1


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args(argv)
    try:
        exe = build()
        if args.self_check:
            return self_check(exe)
        if not args.workload:
            ap.error("--workload is required")
        result, rc = measure(exe, args.workload, args.seed, args.seconds,
                             args.trace == 1)
    except BenchError as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
