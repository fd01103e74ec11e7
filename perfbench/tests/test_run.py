"""Tests for perfbench/run.py. They fake the processes it spawns, so they
need no build:

    python3 -m unittest discover -s perfbench/tests
"""

import contextlib
import importlib.util
import io
import json
import re
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = importlib.util.spec_from_file_location("perfbench_run", HERE.parent / "run.py")
run = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(run)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

RUN_JSON = {"duration_s": 1.0, "warmup_s": 0.5, "generated": 100, "completed": 97,
            "throughput_qps": 194.0, "events_processed": 2000,
            "latency_s": {"count": 50, "mean": 1e-3, "p50": 1e-3, "p95": 2e-3,
                          "p99": 3e-3, "max": 4e-3}}
SWEEP_CSV = ("offered_qps,reps,completed,dropped,shed,retried\n"
             "4000.000,2,10,1,0,3\n14000.000,2,30,0,0,2\n24000.000,2,40,0,0,1\n")


def cli_stdout(kind, completed):
    if kind == "why":
        return json.dumps({"requests": 40, "e2e": {"p50_ns": 10, "p99_ns": 20}})
    if kind == "sweep":
        return SWEEP_CSV
    doc = dict(RUN_JSON, completed=completed)
    if kind == "gen":
        doc["cells"] = 30
    return json.dumps(doc)


def probe_digest(kind):
    if kind == "why":
        return {"generated": 50, "completed": 48, "events": 900,
                "requests": 40, "p50_ns": 10, "p99_ns": 20}
    if kind == "sweep":
        return {"completed": 80, "retried": 6}
    return {"generated": 100, "completed": 97, "events": 2000,
            "p50": 1e-3, "p99": 3e-3, "live": 3}


class FakeHost:
    """Stands in for `run.spawn`: answers each command the benchmark runs
    with canned output for the workload's kind."""

    def __init__(self, kind, completed=97, cli_code=0):
        self.kind, self.completed, self.cli_code = kind, completed, cli_code

    def __call__(self, argv, launcher=False):
        argv = [str(a) for a in argv]
        if argv[0].endswith("/uqsim"):
            out = cli_stdout(self.kind, self.completed)
            err = "why: 9 span events replayed, 3 spans audited, streaming == replay\n"
            return run.Proc(argv, 0.5, 20.0, self.cli_code, out, err)
        mode = argv[1]
        if mode == "calibrate":
            return run.Proc(argv, 0.1, 1.0, 0, '{"calibration_s": 0.1}', "")
        spans = argv[argv.index("--spans") + 1] if "--spans" in argv else None
        if spans:
            Path(spans).write_text(json.dumps({"workload": "w", "spans": [
                {"id": 0, "name": "command", "start_s": 0.0, "end_s": 0.3, "parent": None},
                {"id": 1, "name": "setup", "start_s": 0.01, "end_s": 0.02, "parent": 0},
                {"id": 2, "name": "sim.run_for", "start_s": 0.02, "end_s": 0.29, "parent": 0},
            ]}))
        if mode == "cmd":
            csv = SWEEP_CSV if self.kind == "sweep" else None
            out = {"setup_s": 0.01, "setup_samples": 5, "sim_s": 0.2, "completed": 97,
                   "cli_calls_s": 0.25, "digest": probe_digest(self.kind), "csv": csv,
                   "failures": []}
        else:
            names = [k for k, _, _ in run.PER_LAYER if k not in ("cli.overhead_s", "error_rate")]
            out = {"metrics": {k: 1.0 for k in names}, "failures": []}
        return run.Proc(argv, 0.4, 30.0, 0, json.dumps(out), "")


class Bench(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        saved = {k: getattr(run, k) for k in ("WORK", "spawn", "build", "build_id",
                                              "host_fingerprint", "MIN_REPS")}
        self.addCleanup(lambda: [setattr(run, k, v) for k, v in saved.items()])
        self.addCleanup(self.tmp.cleanup)
        run.WORK = Path(self.tmp.name)
        run.build = lambda: None
        run.build_id = lambda: "test-build"
        run.host_fingerprint = lambda: {"nproc": 1}
        run.MIN_REPS = 2

    def bench(self, workload, host, trace=0):
        run.spawn = host
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run.main(["--workload", workload, "--seed", "1", "--seconds", "0",
                             "--trace", str(trace)])
        return code, json.loads(out.getvalue().strip().splitlines()[-1])


class MetricNames(unittest.TestCase):
    def test_names_are_well_formed_and_unique(self):
        names = [k for k, _, _ in run.END_TO_END + run.PER_LAYER] + list(run.WORKLOADS)
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)))
        self.assertTrue(set(run.DETERMINISTIC) <= {k for k, _, _ in run.PER_LAYER})

    def test_benchmark_json_declares_what_run_py_prints(self):
        path = run.ROOT / "BENCHMARK.json"
        if not path.exists():
            self.skipTest("BENCHMARK.json sits at the repository root")
        doc = json.loads(path.read_text())
        self.assertTrue({w["name"] for w in doc["workloads"]} <= set(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]],
                         run.PER_LAYER)


class EveryWorkload(Bench):
    def test_every_workload_emits_every_end_to_end_metric(self):
        for workload, w in run.WORKLOADS.items():
            code, last = self.bench(workload, FakeHost(w["kind"]))
            self.assertEqual(code, 0, workload)
            self.assertTrue(last["correct"], workload)
            self.assertEqual(set(last["metrics"]), {k for k, _, _ in run.END_TO_END})
            self.assertEqual(last["failed"], 0)
            self.assertGreaterEqual(last["attempted"], 2 * run.MIN_REPS)

    def test_traced_run_emits_every_per_layer_metric(self):
        code, last = self.bench("steady_two_tier", FakeHost("run"), trace=1)
        self.assertEqual(code, 0)
        self.assertEqual(set(last["metrics"]), {k for k, _, _ in run.PER_LAYER})


class FailingChecks(Bench):
    def test_broken_conservation_exits_non_zero(self):
        # completed > generated: the JSON breaks request conservation.
        code, last = self.bench("steady_two_tier", FakeHost("run", completed=150))
        self.assertNotEqual(code, 0)
        self.assertFalse(last["correct"])
        self.assertGreater(last["failed"], 0)

    def test_failed_command_exits_non_zero(self):
        code, last = self.bench("sweep_faults", FakeHost("sweep", cli_code=1))
        self.assertNotEqual(code, 0)
        self.assertFalse(last["correct"])

    def test_counter_drift_exits_non_zero(self):
        host = FakeHost("run")
        self.assertEqual(self.bench("steady_two_tier", host, trace=1)[0], 0)
        ledger = run.WORK / "ledger.json"
        data = json.loads(ledger.read_text())
        key = next(k for k in data if k.endswith("|sim.events_per_request"))
        data[key] = 2.0
        ledger.write_text(json.dumps(data))
        code, last = self.bench("steady_two_tier", host, trace=1)
        self.assertNotEqual(code, 0)
        self.assertFalse(last["correct"])


class Spans(unittest.TestCase):
    SPANS = [
        {"id": 0, "name": "root", "start_s": 0.0, "end_s": 10.0, "parent": None},
        {"id": 1, "name": "a", "start_s": 1.0, "end_s": 4.0, "parent": 0},
        {"id": 2, "name": "b", "start_s": 3.0, "end_s": 6.0, "parent": 0},  # overlaps a
        {"id": 3, "name": "a1", "start_s": 1.5, "end_s": 2.0, "parent": 1},
        {"id": 4, "name": "late", "start_s": 11.0, "end_s": 12.0, "parent": None},
    ]

    def test_self_times_are_non_negative_and_fit_the_wall(self):
        st = run.self_times(self.SPANS)
        self.assertAlmostEqual(st[0], 5.0)  # children cover 1..6
        self.assertAlmostEqual(st[1], 2.5)
        self.assertTrue(all(v >= 0 for v in st.values()))
        fails, _ = run.check_spans(self.SPANS, wall_s=12.0)
        self.assertEqual(fails, [])
        self.assertLessEqual(sum(st.values()), 12.0)

    def test_spans_longer_than_the_wall_fail(self):
        fails, _ = run.check_spans(self.SPANS, wall_s=5.0)
        self.assertTrue(fails)


if __name__ == "__main__":
    unittest.main()
