"""Self-tests of the benchmark harness.

    python3 -m unittest discover -s perfbench/tests

They need no build: child processes are small Python programs standing
in for the sweep binaries.
"""

import json
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(PERFBENCH))

import harness as h  # noqa: E402

ROOT = PERFBENCH.parent

# The names the benchmark's definition fixes.
WORKLOADS = {"fig7", "degraded", "observed"}
END_TO_END = {"wall_s", "cpu_s", "setup_s", "peak_rss_mb"}
PER_LAYER = {
    "queueing.controlled_curve_s", "queueing.fcfs_curve_s", "queueing.lcfs_curve_s",
    "queueing.curves", "queueing.k_points",
    "sweep.cells", "sweep.busy_s", "sweep.idle_s", "sweep.max_cell_s", "sweep.queue_wait_s",
    "engine.build_s", "engine.run_s", "engine.slots", "engine.ns_per_slot", "engine.fastpath_share",
    "engine.jumps", "engine.batched_runs", "engine.collision_slots", "engine.success_share",
    "engine.allocs_per_slot",
    "mac.fault_slots", "mac.resyncs", "mac.churn_events", "mac.reopened",
    "supervise.journal_appends", "supervise.journal_bytes", "supervise.journal_s",
    "obs.capture_s", "obs.span_records", "obs.span_bytes", "obs.prom_bytes", "obs.write_s",
    "trace.overhead_s",
}


def child(label: str, code: str) -> h.Child:
    return h.Child(label, [sys.executable, "-c", code])


class Scratch(unittest.TestCase):
    def setUp(self):
        scratch = ROOT / ".bench_work"
        scratch.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="test-", dir=scratch))
        self.procs = h.Procs(60)

    def tearDown(self):
        self.procs.close()
        shutil.rmtree(self.dir, ignore_errors=True)


class Names(unittest.TestCase):
    def test_definition_names_are_well_formed_and_the_fixed_ones(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = [w["name"] for w in spec["workloads"]]
        names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        for n in names:
            self.assertRegex(n, r"^[A-Za-z0-9_.-]+$")
            self.assertRegex(n, h.NAME_RE)
        self.assertEqual(len(names), len(set(names)), "a name is used twice")
        self.assertEqual({w["name"] for w in spec["workloads"]}, WORKLOADS)
        self.assertEqual(set(h.WORKLOADS), WORKLOADS)
        self.assertEqual({m["name"] for m in spec["end_to_end"]}, END_TO_END)
        self.assertEqual({n for n, _ in h.END_TO_END}, END_TO_END)
        layer = {m["name"] for m in spec["per_layer"]}
        self.assertLessEqual(PER_LAYER, layer)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], list(h.PER_LAYER))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], list(h.END_TO_END))

    def test_setup_has_the_largest_bound(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])
        self.assertLessEqual(max(bounds.values()), 0.25)


class Gates(Scratch):
    def test_tampered_expected_file_raises_failed_frac(self):
        committed, written = self.dir / "repo", h.fresh_dir(self.dir / "run")
        for d in (committed, written):
            (d / "results").mkdir(parents=True, exist_ok=True)
            (d / "results" / "a.csv").write_text("k,loss\n1,0.5\n")
        clean = h.byte_gate(written, committed, ["results/a.csv"])
        self.assertEqual(h.failed_frac(clean), 0.0)
        (committed / "results" / "a.csv").write_text("k,loss\n1,0.6\n")
        tampered = h.byte_gate(written, committed, ["results/a.csv"])
        self.assertEqual(h.failed_frac(tampered), 1.0)
        missing = h.byte_gate(written, committed, ["results/b.csv"])
        self.assertEqual(h.failed_frac(missing), 1.0)

    def test_child_that_exits_nonzero_raises_failed_frac(self):
        ok = child("ok", "print('header'); open('results/a.csv', 'w').write('x')")
        bad = child("bad", "import sys; print('header'); sys.exit(3)")
        repo = self.dir / "repo"
        (repo / "results").mkdir(parents=True)
        (repo / "results" / "a.csv").write_text("x")
        w = h.Workload("t", [ok], ["results/a.csv"])
        rep = h.run_pass(w, h.fresh_dir(self.dir / "rep"), repo, self.procs)
        self.assertEqual(h.failed_frac(rep.checks), 0.0)
        self.assertGreater(rep.setup_s, 0.0)
        self.assertGreaterEqual(rep.wall_s, rep.setup_s)
        w = h.Workload("t", [ok, bad], ["results/a.csv"])
        rep = h.run_pass(w, h.fresh_dir(self.dir / "rep"), repo, self.procs)
        self.assertGreater(h.failed_frac(rep.checks), 0.0)
        self.assertEqual([c.name for c in rep.checks if not c.ok], ["exit bad"])

    def test_setup_probe_stops_each_child_after_its_header(self):
        slow = child("slow", "import time; print('header', flush=True); time.sleep(30)")
        w = h.Workload("t", [slow, slow], [])
        setup = h.setup_probe(w, h.fresh_dir(self.dir / "probe"), self.procs)
        self.assertGreater(setup, 0.0)
        self.assertLess(setup, 20.0)

    def test_cross_check_flags_a_traced_value_the_untraced_run_lacks(self):
        untraced, traced = self.dir / "u", self.dir / "t"
        for d in (untraced, traced):
            (d / "obs").mkdir(parents=True)
            (d / "obs" / "x.prom").write_text('# TYPE m counter\nm{a="1"} 7\n')
        (untraced / "r.csv").write_text("k,loss\n1,0.5\n2,0.25\n")
        report = {
            "rows": [{"file": "r.csv", "key": [["k", "2"]], "expect": [["loss", "0.25"]]}],
            "samples": [["obs/x.prom", 'm{a="1"}', "7"]],
            "artifacts": ["obs/x.prom"],
        }
        self.assertTrue(all(c.ok for c in h.cross_check(report, untraced, traced)))
        report["rows"][0]["expect"] = [["loss", "0.5"]]
        (traced / "obs" / "x.prom").write_text('# TYPE m counter\nm{a="1"} 8\n')
        failed = [c.name for c in h.cross_check(report, untraced, traced) if not c.ok]
        self.assertEqual(failed, ["cross r.csv k=2", "cross bytes obs/x.prom"])


class Report(unittest.TestCase):
    def test_result_line_round_trips_through_the_parser(self):
        checks = [h.Check("a", True), h.Check("b", False, "differs"), h.Check("c", True)]
        metrics = {"wall_s": (12.3456789, "s"), "peak_rss_mb": (13.6, "MB")}
        r = h.parse_result(h.result_line(checks, metrics))
        self.assertEqual((r["correct"], r["attempted"], r["failed"]), (False, 3, 1))
        self.assertEqual(r["metrics"]["wall_s"], {"value": 12.3456789, "unit": "s"})
        self.assertEqual(r["metrics"]["peak_rss_mb"], {"value": 13.6, "unit": "MB"})
        clean = h.parse_result(h.result_line(checks[:1], metrics))
        self.assertTrue(clean["correct"])

    def test_parser_rejects_malformed_lines(self):
        good = json.loads(h.result_line([h.Check("a", True)], {"x": (1.0, "s")}))
        for bad in (
            {**good, "extra": 1},
            {**good, "attempted": 0},
            {**good, "failed": 2},
            {**good, "correct": "yes"},
            {**good, "metrics": {"bad name": {"value": 1.0, "unit": "s"}}},
        ):
            with self.assertRaises(ValueError):
                h.parse_result(json.dumps(bad))


if __name__ == "__main__":
    unittest.main()
