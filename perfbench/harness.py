"""Workloads, checks and the report line of the repository benchmark.

`run.py` is the command; this module holds everything it is made of, so
the self-tests in `perfbench/tests/` can drive the pieces directly.

A workload is a list of sweep binaries run one after another as child
processes, each in a scratch working directory, so the repository's own
`results/` is never rewritten. Every file a workload writes that the
repository also commits is byte-compared with the committed copy.
"""

from __future__ import annotations

import csv
import ctypes
import hashlib
import json
import os
import re
import shutil
import signal
import subprocess
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

WORKLOADS = ("fig7", "degraded", "observed")

# The binaries seed every cell themselves (fig7 base 42; robustness,
# churn and aoi 1983). Seed 0 runs the traced replay on those seeds, so
# its cells can be cross-checked against the untraced run's outputs.
BINARY_SEED = 0

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("queueing.controlled_curve_s", "s"),
    ("queueing.fcfs_curve_s", "s"),
    ("queueing.lcfs_curve_s", "s"),
    ("queueing.curves", "count"),
    ("queueing.k_points", "count"),
    ("sweep.cells", "count"),
    ("sweep.busy_s", "s"),
    ("sweep.idle_s", "s"),
    ("sweep.max_cell_s", "s"),
    ("sweep.queue_wait_s", "s"),
    ("engine.build_s", "s"),
    ("engine.run_s", "s"),
    ("engine.slots", "count"),
    ("engine.ns_per_slot", "ns/slot"),
    ("engine.fastpath_share", "ratio"),
    ("engine.jumps", "count"),
    ("engine.batched_runs", "count"),
    ("engine.collision_slots", "count"),
    ("engine.success_share", "ratio"),
    ("engine.allocs_per_slot", "allocs/slot"),
    ("mac.fault_slots", "count"),
    ("mac.resyncs", "count"),
    ("mac.churn_events", "count"),
    ("mac.reopened", "count"),
    ("supervise.journal_appends", "count"),
    ("supervise.journal_bytes", "bytes"),
    ("supervise.journal_s", "s"),
    ("obs.capture_s", "s"),
    ("obs.span_records", "count"),
    ("obs.span_bytes", "bytes"),
    ("obs.prom_bytes", "bytes"),
    ("obs.write_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("share.queueing_of_cpu", "ratio"),
    ("share.engine_of_cpu", "ratio"),
    ("share.obs_of_cpu", "ratio"),
    ("share.journal_of_wall", "ratio"),
)

BINARIES = ("fig7", "robustness", "churn", "aoi", "obs_lint")
TRACER = "perfbench-tracer"
SPAWN = "perfbench-spawn"

FIG7_PANELS = ("rho25_m25", "rho25_m100", "rho50_m25", "rho50_m100", "rho75_m25", "rho75_m100")
CHURN_OUT = ("results/churn.csv", "results/churn.txt", "results/failures/failure_churn_divergence_seed1983.json")


class BenchError(Exception):
    """A run that cannot produce a result (build failure, timeout)."""


@dataclass
class Child:
    """One child process of a workload; `argv[0]` is the program path."""

    label: str
    argv: list


@dataclass
class Workload:
    name: str
    timed: list
    # Files the timed children write, relative to the working directory,
    # that must equal the committed copy under the same relative path.
    expected: list
    # Checks made once per run: extra children, their expected files and
    # files `obs_lint` must accept.
    check_children: list = field(default_factory=list)
    check_expected: list = field(default_factory=list)
    lint: list = field(default_factory=list)
    # Passes per timed repetition: enough that one repetition lasts
    # several seconds, so second-scale interference averages out in it.
    passes: int = 1


def workload(name: str, bins: Path, jobs: int) -> Workload:
    b = lambda n: str(bins / n)  # noqa: E731
    j = ["--jobs", str(jobs)]
    if name == "fig7":
        return Workload(
            name,
            [Child("fig7", [b("fig7"), *j])],
            [f"results/fig7_{p}.csv" for p in FIG7_PANELS],
        )
    if name == "degraded":
        return Workload(
            name,
            [
                Child("robustness", [b("robustness"), *j, "--resume", "journal/robustness.journal"]),
                Child("churn", [b("churn"), *j]),
            ],
            [
                "results/robustness.csv",
                "results/robustness.txt",
                "results/failures/failure_divergence_seed1983_p02.json",
                *CHURN_OUT,
            ],
            passes=5,
        )
    if name == "observed":
        obs = lambda s: ["--spans", f"obs/{s}.spans.ndjson", "--metrics", f"obs/{s}.prom"]  # noqa: E731
        cell = "results/obs/"
        return Workload(
            name,
            [Child("aoi", [b("aoi"), *j, *obs("aoi")]), Child("churn", [b("churn"), *j, *obs("churn")])],
            ["results/aoi.csv", "results/aoi.txt", *CHURN_OUT],
            check_children=[
                Child(
                    "fig7 --obs-cell",
                    [b("fig7"), "--obs-cell", "--trace-events", cell + "fig7_cell.events.ndjson",
                     "--metrics", cell + "fig7_cell.prom"],
                ),
                Child(
                    "aoi --obs-cell",
                    [b("aoi"), "--obs-cell", "--spans", cell + "aoi_cell.spans.ndjson",
                     "--metrics", cell + "aoi_cell.prom"],
                ),
            ],
            check_expected=[
                cell + f for f in
                ("fig7_cell.events.ndjson", "fig7_cell.prom", "aoi_cell.spans.ndjson", "aoi_cell.prom")
            ],
            lint=[
                "obs/aoi.spans.ndjson", "obs/aoi.prom", "obs/churn.spans.ndjson", "obs/churn.prom",
                cell + "aoi_cell.spans.ndjson", cell + "fig7_cell.events.ndjson", cell + "fig7_cell.prom",
            ],
            passes=5,
        )
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# Child processes


@dataclass
class ChildRun:
    label: str
    status: int
    wall_s: float
    setup_s: float
    cpu_s: float
    rss_mb: float
    tail: str = ""


class Procs:
    """Starts the benchmark's child processes and kills any still running
    once the run's time budget is spent.

    With `spawn` (the `perfbench-spawn` helper) each child is started
    through the helper, which reports the child's CPU time and peak
    resident set; Linux carries the spawning process's resident high-water
    mark into a child's `ru_maxrss`, and this interpreter is larger than
    some binaries it measures. Without it they come from `wait4`."""

    def __init__(self, seconds: float, spawn: str | None = None):
        self.spawn = spawn
        self.at = time.monotonic() + seconds
        self.expired = False
        self._live: set = set()
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._watch, daemon=True)
        self._thread.start()

    def _watch(self):
        while not self._stop.wait(0.2):
            if time.monotonic() >= self.at:
                with self._lock:
                    self.expired = True
                    for p in self._live:
                        _kill(p)
                return

    def close(self):
        self._stop.set()
        self._thread.join()

    def run(self, child: Child, cwd: Path, setup_only: bool = False) -> ChildRun:
        """Runs `child` in `cwd`. Set-up time is spawn to first stdout
        line; with `setup_only` the child is killed once that line arrives."""
        label = child.label.split()[0]
        usage_file = cwd / f"{label}.usage"
        usage_file.unlink(missing_ok=True)
        argv = [self.spawn, str(usage_file), *child.argv] if self.spawn else child.argv
        with open(cwd / f"{label}.stderr", "ab") as err:
            t0 = time.perf_counter()
            try:
                p = subprocess.Popen(argv, cwd=cwd, stdout=subprocess.PIPE, stderr=err,
                                     stdin=subprocess.DEVNULL, start_new_session=True)
            except OSError as e:
                return ChildRun(child.label, 127, 0.0, 0.0, 0.0, 0.0, str(e))
            with self._lock:
                self._live.add(p)
                if self.expired:
                    _kill(p)
            try:
                first = p.stdout.readline()
                t1 = time.perf_counter()
                if setup_only:
                    _kill(p)
                rest = p.stdout.read()
                p.stdout.close()
                status, usage = _reap(p)
                t2 = time.perf_counter()
            finally:
                with self._lock:
                    self._live.discard(p)
                if p.returncode is None:
                    _kill(p)
                    _reap(p)
        if self.expired:
            raise BenchError(f"{child.label}: killed at the run's time limit")
        cpu, rss_kb = usage.ru_utime + usage.ru_stime, usage.ru_maxrss
        if self.spawn and usage_file.is_file():
            code, user, system, rss_kb = usage_file.read_text().split()
            status, cpu, rss_kb = int(code), float(user) + float(system), int(rss_kb)
        return ChildRun(
            child.label,
            0 if setup_only and first else status,
            t2 - t0,
            t1 - t0,
            cpu,
            rss_kb / 1024.0,
            (first + rest)[-2000:].decode(errors="replace"),
        )


def _kill(p):
    """Kills the child's whole process group (it leads its own session),
    which takes a program started through the spawn helper with it."""
    if p.returncode is None:
        try:
            os.killpg(p.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def _reap(p) -> tuple:
    """Waits for `p`, then for anything left of its process group, and
    returns `p`'s exit code and resource usage."""
    _, status, usage = os.wait4(p.pid, 0)
    p.returncode = os.waitstatus_to_exitcode(status)
    # A program orphaned by a killed helper is re-parented to this
    # process (see `become_subreaper`); wait for it too.
    while True:
        try:
            os.waitpid(-p.pid, 0)
        except ChildProcessError:
            return p.returncode, usage


def become_subreaper():
    """Makes orphaned descendants children of this process, so a killed
    helper's program is waited for here instead of by init."""
    pr_set_child_subreaper = 36
    ctypes.CDLL(None, use_errno=True).prctl(pr_set_child_subreaper, 1, 0, 0, 0)


# ---------------------------------------------------------------------------
# Checks


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


def status_checks(runs: list) -> list:
    return [Check(f"exit {r.label}", r.status == 0, f"status {r.status}") for r in runs]


def byte_gate(workdir: Path, root: Path, files: list) -> list:
    """One check per file: the copy under `workdir` equals the one under
    `root` byte for byte."""
    out = []
    for rel in files:
        got, want = workdir / rel, root / rel
        if not got.is_file():
            out.append(Check(f"bytes {rel}", False, "not written"))
        elif not want.is_file():
            out.append(Check(f"bytes {rel}", False, "no committed copy"))
        else:
            out.append(Check(f"bytes {rel}", got.read_bytes() == want.read_bytes(), "differs"))
    return out


def _csv_rows(path: Path, cache: dict) -> list:
    if path not in cache:
        with open(path, newline="") as f:
            cache[path] = list(csv.DictReader(f))
    return cache[path]


def cross_check(report: dict, untraced: Path, traced: Path) -> list:
    """Compares the traced run's cells with the untraced run's outputs:
    every CSV row the tracer expects, every offered count it expects in a
    Prometheus file, and every telemetry file both runs wrote."""
    checks, cache = [], {}
    for row in report["rows"]:
        path = untraced / row["file"]
        name = f"cross {row['file']} " + " ".join(f"{k}={v}" for k, v in row["key"])
        if not path.is_file():
            checks.append(Check(name, False, "untraced run wrote no such file"))
            continue
        hits = [r for r in _csv_rows(path, cache) if all(r.get(k) == v for k, v in row["key"])]
        if len(hits) != 1:
            checks.append(Check(name, False, f"{len(hits)} matching rows"))
            continue
        diff = [f"{k}: untraced {hits[0].get(k)!r} traced {v!r}" for k, v in row["expect"] if hits[0].get(k) != v]
        checks.append(Check(name, not diff, "; ".join(diff)))
    prom: dict = {}
    for file, sample, value in report["samples"]:
        if file not in prom:
            p = untraced / file
            lines = p.read_text().splitlines() if p.is_file() else []
            prom[file] = dict(line.rsplit(" ", 1) for line in lines if line and not line.startswith("#"))
        got = prom[file].get(sample)
        checks.append(Check(f"cross {file} {sample}", got == value, f"untraced {got!r} traced {value!r}"))
    for rel in report["artifacts"]:
        a, b = untraced / rel, traced / rel
        same = a.is_file() and b.is_file() and _digest(a) == _digest(b)
        checks.append(Check(f"cross bytes {rel}", same, "traced and untraced telemetry differ"))
    return checks


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Repetitions


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    setup_s: float
    rss_mb: float
    checks: list


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    (path / "results").mkdir(parents=True)
    return path


def run_pass(w: Workload, workdir: Path, root: Path, procs: Procs) -> Pass:
    """Runs the workload's timed children once, in order, in `workdir`."""
    t0 = time.perf_counter()
    runs = [procs.run(c, workdir) for c in w.timed]
    wall = time.perf_counter() - t0
    checks = status_checks(runs) + byte_gate(workdir, root, w.expected)
    return Pass(
        wall,
        sum(r.cpu_s for r in runs),
        sum(r.setup_s for r in runs),
        max(r.rss_mb for r in runs),
        checks,
    )


@dataclass
class Rep:
    """`passes` back-to-back passes, each in a fresh directory; times are
    per pass, averaged over the repetition."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    passes: list
    workdir: Path


def run_rep(w: Workload, workdir: Path, root: Path, procs: Procs) -> Rep:
    passes = [run_pass(w, fresh_dir(workdir), root, procs) for _ in range(w.passes)]
    return Rep(
        sum(p.wall_s for p in passes) / len(passes),
        sum(p.cpu_s for p in passes) / len(passes),
        max(p.rss_mb for p in passes),
        passes,
        workdir,
    )


def setup_probe(w: Workload, workdir: Path, procs: Procs) -> float:
    """Set-up time of one pass over the workload's children, each killed
    once it has printed its header."""
    return sum(procs.run(c, workdir, setup_only=True).setup_s for c in w.timed)


def run_checks(w: Workload, workdir: Path, root: Path, obs_lint: str, procs: Procs) -> list:
    """The once-per-run checks, made on the outputs left in `workdir`."""
    runs = [procs.run(c, workdir) for c in w.check_children]
    checks = status_checks(runs) + byte_gate(workdir, root, w.check_expected)
    if w.lint:
        run = procs.run(Child("obs_lint", [obs_lint, *w.lint]), workdir)
        checks.append(Check("obs_lint", run.status == 0, f"status {run.status}: {run.tail[-300:]}"))
    return checks


# ---------------------------------------------------------------------------
# Statistics and the report line


def failed_frac(checks: list) -> float:
    return sum(not c.ok for c in checks) / max(len(checks), 1)


def result_line(checks: list, metrics: dict) -> str:
    """The last stdout line: correctness, check counts and metrics."""
    failed = sum(not c.ok for c in checks)
    return json.dumps(
        {
            "correct": failed == 0 and len(checks) > 0,
            "attempted": max(len(checks), 1),
            "failed": failed if checks else 1,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


def parse_result(line: str) -> dict:
    """Parses and validates a result line; raises ValueError if malformed."""
    r = json.loads(line)
    if set(r) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(r)}")
    if not isinstance(r["correct"], bool):
        raise ValueError("correct is not a boolean")
    for k in ("attempted", "failed"):
        if not isinstance(r[k], int) or isinstance(r[k], bool) or r[k] < 0:
            raise ValueError(f"{k} is not a whole number")
    if r["attempted"] < 1 or r["failed"] > r["attempted"]:
        raise ValueError("attempted/failed out of range")
    for name, m in r["metrics"].items():
        if not NAME_RE.match(name) or set(m) != {"value", "unit"}:
            raise ValueError(f"metric {name!r}")
        if not isinstance(m["value"], (int, float)) or isinstance(m["value"], bool):
            raise ValueError(f"metric {name!r} value")
    return r


# ---------------------------------------------------------------------------
# Host record


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def host_record(root: Path, jobs: int) -> dict:
    def out(argv):
        try:
            return subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return ""

    commit = out(["git", "rev-parse", "HEAD"]) if (root / ".git").exists() else ""
    return {
        "commit": commit or "none",
        "source_sha256": source_digest(root),
        "rustc": out(["rustc", "--version"]) or "unknown",
        "nproc": nproc(),
        "jobs": jobs,
    }


def source_digest(root: Path) -> str:
    """Digest of the sources the benchmark builds, so a report names the
    code it measured even where the checkout is not a git repository."""
    h = hashlib.sha256()
    files = [root / "Cargo.toml", root / "Cargo.lock"]
    for top in ("crates", "perfbench"):
        files += sorted(
            p for p in (root / top).rglob("*")
            if p.is_file() and not {"target", "__pycache__"} & set(p.parts)
        )
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(root)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Build


def build(root: Path, target: Path, log: Path) -> Path:
    """Builds the sweep binaries and the tracer in release mode; returns
    the directory holding them."""
    if not (root / "Cargo.toml").is_file() or not (root / "crates").is_dir():
        raise BenchError(f"no cargo workspace at {root}")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    bins = [a for n in BINARIES[:-1] for a in ("--bin", n)]
    steps = [
        ["cargo", "build", "--release", "--offline", "-p", "tcw-experiments", "-p", "tcw-obs",
         *bins, "--bin", "obs_lint"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/tracer/Cargo.toml"],
    ]
    with open(log, "ab") as f:
        for argv in steps:
            if subprocess.run(argv, cwd=root, env=env, stdout=f, stderr=f, stdin=subprocess.DEVNULL).returncode:
                raise BenchError(f"build failed: {' '.join(argv)} (see {log})")
    out = target / "release"
    missing = [n for n in (*BINARIES, TRACER, SPAWN) if not (out / n).is_file()]
    if missing:
        raise BenchError(f"build left no {', '.join(missing)}")
    return out
