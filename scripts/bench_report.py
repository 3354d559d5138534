#!/usr/bin/env python3
"""Assemble BENCH_runtime.json, the repo's performance-trajectory
artifact (see docs/EXPERIMENTS.md).

Runs the built benchmarks listed in SECTIONS and merges their
machine-readable output, one report section per row:

  - fig13_vorbis: wall-clock ns/frame, modeled work units and rules
    fired/sec for the full-software Vorbis partition,
  - strategy_compare: the section 6.3 compiled-execution cost ladder
    (skipped when no host compiler is available),
  - serving: streams/sec and p50/p99 frame latency per concurrent
    session count, streams spot-verified against solo runs,
  - partition_sweep: the section 7.1 communication-cost frontier, plus
    the interpreted-vs-compiled hardware clock comparison promoted to
    the top-level "hw_backend" section,
  - platform_scenarios: the split workloads re-timed under each
    configs/ platform model plus the heterogeneous-topology leg,
  - transports: serving re-run per channel transport (in-thread,
    forked shm rings, loopback TCP) at small sizes — the relay cost of
    distributing LIBDN partitions,
  - sw_runtime_opts (Google Benchmark, optional): runtime ablations.

The report also carries "metrics_snapshot" (the src/obs/ registry dump
of the serving sweep, channel counters included) and "host" (git sha,
build type, cores, cpu).

Gating: a bench that exits nonzero fails the report (exit 1, after
writing whatever was collected) — a LIBDN violation (outputs that
differ) in any bench is a correctness bug, never a section to omit.
The only omitted sections are explicit skips: a bench that is not
built, or one that wrote no output because no host compiler exists.

Usage:
  scripts/bench_report.py --build-dir build [--out BENCH_runtime.json]
                          [--frames 128]

Only the Python standard library is used. The script is wired to the
`bench-report` CMake target.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

# Benches run from the repo root, so recorded config paths are
# relative to it.
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Skipped(Exception):
    """A bench that is not built or produced nothing on this host."""


def run_bench(build_dir, bench, args, failures):
    """Run one bench with --json (or Google Benchmark's --benchmark_out)
    and return its parsed output. A nonzero exit is recorded in
    @failures; the output it wrote is still returned."""
    exe = os.path.join(os.path.abspath(build_dir), bench)
    if not os.path.exists(exe):
        raise Skipped(f"{bench} not built")
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        path = tmp.name
    gbench = bench == "sw_runtime_opts"
    out_args = ([f"--benchmark_out={path}", "--benchmark_out_format=json"]
                if gbench else ["--json", path])
    try:
        rc = subprocess.run([exe, *map(str, args), *out_args], cwd=REPO,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL if gbench else None
                            ).returncode
        if rc != 0:
            failures.append(f"{bench} {' '.join(map(str, args))} "
                            f"exited {rc}")
        if os.path.getsize(path) == 0:
            if rc != 0:
                return None
            raise Skipped(f"{bench} wrote no output (no host compiler)")
        with open(path) as f:
            return json.load(f)
    finally:
        os.unlink(path)


def first_point(raw, transport):
    pt = raw["points"][0] if raw.get("points") else {}
    return {"effective": raw.get("transport", transport),
            **{k: pt.get(k) for k in ("streams_per_sec", "frame_ms_p50",
                                      "frame_ms_p99", "outputs_match")}}


def ablations(raw):
    to_ms = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}
    return {b["name"]: {
        "real_time_ms": round(b.get("real_time", 0.0)
                              * to_ms.get(b.get("time_unit", "ns"), 1e-6),
                              6),
        "counters": {k: round(v, 3) for k, v in b.items()
                     if isinstance(v, float)
                     and k not in ("real_time", "cpu_time")},
    } for b in raw.get("benchmarks", [])}


def sections(args):
    """(report path, bench, bench args, shape of the section)."""
    f = args.frames
    rows = [
        (("fig13_vorbis",), "fig13_vorbis", ["--frames", f], None),
        (("strategy_compare",), "strategy_compare", ["--frames", f], None),
        (("serving",), "serving",
         ["--sessions", args.serving_sessions,
          "--frames", args.serving_frames], None),
        (("partition_sweep",), "partition_sweep",
         ["--frames", min(f, 32)], None),
        (("platform_scenarios",), "platform_sweep",
         ["--frames", min(f, 16), "--configs", "configs"], None),
    ]
    # Small sizes: remote transports fork one child per hardware
    # domain (per live session, for serving) — relay cost, not scale.
    for t in ("inthread", "shm", "tcp"):
        rows.append((("transports", t, "serving"), "serving",
                     ["--sessions", 8, "--frames", 2, "--workers", 2,
                      "--partition", "B", "--backend", "interpreted",
                      "--verify", 4, "--transport", t],
                     lambda raw, t=t: first_point(raw, t)))
    rows.append((("sw_runtime_opts",), "sw_runtime_opts",
                 ["--benchmark_min_time=0.05"], ablations))
    return rows


def outputs_mismatches(node, path=""):
    """Every outputs_match that is false, by JSON path."""
    if isinstance(node, dict):
        bad = [path] if node.get("outputs_match") is False else []
        for k, v in node.items():
            bad += outputs_mismatches(v, f"{path}/{k}")
        return bad
    if isinstance(node, list):
        return [p for i, v in enumerate(node)
                for p in outputs_mismatches(v, f"{path}[{i}]")]
    return []


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--build-dir", default="build")
    ap.add_argument("--out", default="BENCH_runtime.json")
    ap.add_argument("--frames", type=int, default=128)
    ap.add_argument("--serving-sessions", default="100,1000,10000",
                    help="comma-separated concurrent-session counts "
                    "for the serving sweep")
    ap.add_argument("--serving-frames", type=int, default=4,
                    help="frames decoded per serving session")
    args = ap.parse_args()

    report = {"schema": "bcl-bench-runtime/1", "frames": args.frames}
    failures = []
    for path, bench, bench_args, shape in sections(args):
        try:
            raw = run_bench(args.build_dir, bench, bench_args, failures)
        except Skipped as why:
            print(f"skipped {'/'.join(path)}: {why}", file=sys.stderr)
            continue
        if raw is None:
            continue
        if "host" in raw:
            report.setdefault("host", raw["host"])
        node = report
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = shape(raw) if shape else raw

    sweep = report.pop("partition_sweep", None)
    if sweep is not None:
        # The interpreted-vs-compiled hardware-clock comparison is the
        # compiled backend's headline number: a top-level section.
        report["partition_sweep"] = {
            k: sweep[k] for k in ("frames", "sweep_hw_backend", "frontier")}
        report["hw_backend"] = {"compare_frames": sweep["compare_frames"],
                                "workloads": sweep["hw_backend_compare"]}
    if "metrics" in report.get("serving", {}):
        report["metrics_snapshot"] = {"serving": report["serving"]["metrics"]}

    with open(args.out, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    print(f"wrote {args.out}")
    full_sw = report.get("fig13_vorbis", {}).get("full_sw")
    if full_sw:
        print(f"full-SW Vorbis: {full_sw['wall_ns_per_frame']:.0f} "
              f"ns/frame, {full_sw['rules_per_sec']:.0f} rules/s, "
              f"{full_sw['work_per_frame']:.0f} work/frame")

    failures += [f"outputs_match false at {p}"
                 for p in outputs_mismatches(report)]
    if failures:
        sys.exit("error: " + "; ".join(failures))


if __name__ == "__main__":
    main()
