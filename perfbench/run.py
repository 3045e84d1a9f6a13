#!/usr/bin/env python3
"""Repository benchmark: end-to-end sweep timings and a traced per-layer run.

    python3 perfbench/run.py --workload fig7|degraded|observed \\
        --seed N --seconds S --trace 0|1 [--jobs J]

Run from the repository root. Builds the sweep binaries and the tracer in
release mode first (into `$CARGO_TARGET_DIR`, default `.bench_build`),
outside every metric.

--trace 0 repeats the workload for about S seconds, at least three
repetitions of one pass (fig7) or five passes (degraded, observed) over
its binaries, and reports per-pass medians of wall_s, cpu_s, setup_s and
peak_rss_mb; failed_frac is printed with them. The seed does not reach
the binaries, which fix their own.

--trace 1 runs the workload's binaries once untraced, then repeats the
workload's grid in-process under the tracer and reports the per-layer
metrics, cross-checking every traced cell against the untraced outputs
(seed 0 only: the seed the binaries themselves use).

Every file a workload writes is byte-compared with the committed copy
under `results/`. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics. Exit codes: 0 result printed,
1 usage error, 2 build failure, 3 run failure (no result).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness as h  # noqa: E402

MIN_REPS = 3
SETUP_PROBES = 5
# Measurement budget per run after the build; the run must end well
# inside three minutes.
RUN_LIMIT_S = 160.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=h.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--jobs", type=int, default=None, help="sweep workers (default: min(2, nproc))")
    a = p.parse_args(argv)
    if a.seed < 0 or a.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return a


def main(argv=None) -> int:
    a = parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    cores = h.nproc()
    jobs = a.jobs if a.jobs is not None else min(2, cores)
    if not 1 <= jobs <= cores:
        print(f"run.py: --jobs {jobs} is outside 1..nproc ({cores})", file=sys.stderr)
        return 1

    def stop(signum, _frame):
        raise h.BenchError(f"terminated by signal {signum}")

    # Unwinding on SIGTERM lets every child started so far be killed and
    # waited for on the way out.
    signal.signal(signal.SIGTERM, stop)
    work = root / ".bench_work"
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    target = target if target.is_absolute() else root / target
    try:
        (work / "reports").mkdir(parents=True, exist_ok=True)
        bins = h.build(root, target, work / "build.log")
    except (h.BenchError, OSError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2
    host = h.host_record(root, jobs)
    w = h.workload(a.workload, bins, jobs)
    run_dir = work / f"run-{os.getpid()}"
    h.become_subreaper()
    procs = h.Procs(RUN_LIMIT_S, str(bins / h.SPAWN))
    try:
        if a.trace:
            record = traced(a, w, root, bins, run_dir, work / "reports", jobs, procs)
        else:
            record = untraced(a, w, root, bins, run_dir, procs)
    except (h.BenchError, OSError, ValueError, KeyError) as e:
        print(f"run.py: {a.workload}: {e}", file=sys.stderr)
        return 3
    finally:
        procs.close()
        shutil.rmtree(run_dir, ignore_errors=True)
    metrics, checks, lines, samples = record
    report = {
        "workload": a.workload,
        "seed": a.seed,
        "seconds": a.seconds,
        "trace": a.trace,
        "host": host,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "samples": samples,
        "checks": [{"name": c.name, "ok": c.ok, "detail": "" if c.ok else c.detail} for c in checks],
    }
    path = work / "reports" / f"{a.workload}-trace{a.trace}-seed{a.seed}-{os.getpid()}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print("host: " + " ".join(f"{k}={v}" for k, v in host.items()))
    for line in lines:
        print(line)
    for c in checks:
        if not c.ok:
            print(f"  FAILED {c.name}: {c.detail}")
    print(f"  report: {path.relative_to(root)}")
    line = h.result_line(checks, metrics)
    h.parse_result(line)
    print(line)
    return 0


def untraced(a, w, root, bins, run_dir, procs):
    t0 = time.perf_counter()
    probe = h.fresh_dir(run_dir / "probe")
    setups = [h.setup_probe(w, probe, procs) for _ in range(SETUP_PROBES)]
    reps = []
    while True:
        reps.append(h.run_rep(w, run_dir / "rep", root, procs))
        elapsed = time.perf_counter() - t0
        if len(reps) >= MIN_REPS and elapsed + elapsed / len(reps) > a.seconds:
            break
    passes = [p for r in reps for p in r.passes]
    checks = [c for p in passes for c in p.checks]
    checks += h.run_checks(w, reps[-1].workdir, root, str(bins / "obs_lint"), procs)
    setups += [p.setup_s for p in passes]
    samples = {
        "wall_s": [r.wall_s for r in reps],
        "cpu_s": [r.cpu_s for r in reps],
        "setup_s": setups,
        "peak_rss_mb": [r.rss_mb for r in reps],
        "pass_wall_s": [p.wall_s for p in passes],
    }
    metrics = {
        "wall_s": (statistics.median(samples["wall_s"]), "s"),
        "cpu_s": (statistics.median(samples["cpu_s"]), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(samples["peak_rss_mb"]), "MB"),
    }
    frac = h.failed_frac(checks)
    lines = [
        f"workload {a.workload}: {len(reps)} repetitions of {w.passes} pass(es), "
        f"{len(setups)} set-up samples, tracing off; times are per pass"
    ]
    lines += [
        f"  {k:<12} {v:>12.6f} {u:<5} (median of {len(samples[k])}; range {min(samples[k]):.6f}..{max(samples[k]):.6f})"
        for k, (v, u) in metrics.items()
    ]
    lines.append(f"  {'failed_frac':<12} {frac:>12.6f} ratio ({sum(not c.ok for c in checks)} of {len(checks)} checks)")
    return metrics, checks, lines, samples


def traced(a, w, root, bins, run_dir, reports, jobs, procs):
    plain_dir = h.fresh_dir(run_dir / "untraced")
    rep = h.run_pass(w, plain_dir, root, procs)
    checks = rep.checks + h.run_checks(w, plain_dir, root, str(bins / "obs_lint"), procs)
    trace_dir = h.fresh_dir(run_dir / "traced")
    out = reports / f"{a.workload}-tracer-seed{a.seed}-{os.getpid()}.json"
    argv = [str(bins / h.TRACER), "--workload", a.workload, "--seed", str(a.seed), "--jobs", str(jobs),
            "--out", str(out)]
    run = procs.run(h.Child("tracer", argv), trace_dir)
    checks += h.status_checks([run])
    if run.status != 0:
        raise h.BenchError(f"tracer failed: {run.tail[-500:]}")
    t = json.loads(out.read_text())
    inv = t["invariants"]
    checks.append(h.Check(f"invariants ({inv['checked']} drain and channel-time checks)", inv["failed"] == 0,
                          f"{inv['failed']} failed"))
    checks.append(h.Check("no quarantined cells", t["quarantined"] == 0, f"{t['quarantined']} quarantined"))
    cross = h.cross_check(t, plain_dir, trace_dir) if a.seed == h.BINARY_SEED else []
    checks += cross
    m = {k: (v["value"], v["unit"]) for k, v in t["metrics"].items()}
    v = lambda k: m[k][0]  # noqa: E731
    cpu = rep.cpu_s
    m["trace.traced_wall_s"] = (t["traced_wall_s"], "s")
    m["trace.untraced_wall_s"] = (rep.wall_s, "s")
    m["trace.overhead_s"] = (t["traced_wall_s"] - rep.wall_s, "s")
    curves = v("queueing.controlled_curve_s") + v("queueing.fcfs_curve_s") + v("queueing.lcfs_curve_s")
    m["share.queueing_of_cpu"] = (curves / cpu, "ratio")
    m["share.engine_of_cpu"] = ((v("engine.build_s") + v("engine.run_s")) / cpu, "ratio")
    m["share.obs_of_cpu"] = ((v("obs.capture_s") + v("obs.write_s")) / cpu, "ratio")
    m["share.journal_of_wall"] = (v("supervise.journal_s") / rep.wall_s, "ratio")
    metrics = {k: m[k] for k, _ in h.PER_LAYER}
    lines = [
        f"workload {a.workload}: traced in-process, seed {a.seed}; untraced wall {rep.wall_s:.3f} s, cpu {cpu:.3f} s",
        "  cross-check: " + (f"{sum(c.ok for c in cross)} of {len(cross)} traced cells and files match the untraced run"
                             if a.seed == h.BINARY_SEED else "skipped (seed differs from the binaries' own)"),
    ]
    lines += [f"  {k:<28} {val:>18.6f} {u}" for k, (val, u) in metrics.items()]
    lines.append("  self time by span (s):")
    spans = sorted(t["spans"].items(), key=lambda kv: -kv[1]["self_s"])
    lines += [f"    {n:<30} {s['self_s']:>10.4f}  ({s['count']} spans, {s['total_s']:.4f} total)" for n, s in spans]
    lines.append(f"  spans: {out.with_suffix('').relative_to(root)}.spans.ndjson")
    return metrics, checks, lines, {"untraced_cpu_s": [cpu]}


if __name__ == "__main__":
    sys.exit(main())
