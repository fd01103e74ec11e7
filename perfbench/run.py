#!/usr/bin/env python3
"""perfbench: the µqSim benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The script builds the release
`uqsim` binary and the in-process layer probe (`perfbench/probe`), then:

* `--trace 0` alternates one `uqsim` process per repetition (timed from
  spawn to exit, peak RSS from `wait4`) with one probe process that repeats
  the same command's library calls in-process (set-up and simulate calls
  timed), for `--seconds`, and prints the end-to-end metrics;
* `--trace 1` does the same loop for half the time, adds a probe pass that
  records spans, then a probe pass that times every layer, and prints the
  per-layer metrics. Spans are written under the work directory.

Every simulation run is checked (exit status, conservation, streaming ==
replay, shard invariance, repeatable digests and counters); a failed check
counts in `error_rate` and makes the script exit non-zero. The last line of
stdout is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
See perfbench/README.md for why each workload and metric exists.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "crates" / "cli" / "configs"
PROBE_MANIFEST = ROOT / "perfbench" / "probe" / "Cargo.toml"
WORK = ROOT / ".bench_build" / "perfbench"

NPROC = os.cpu_count() or 1
CORES = min(2, len(os.sched_getaffinity(0)))
MIN_REPS = 3
MAX_REPS = 60
CHILD_TIMEOUT_S = 150

# name, unit, better
END_TO_END = [
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("sim_req_per_s", "req/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]
PER_LAYER = [
    ("config.parse_s", "s", "lower"),
    ("synth.generate_s", "s", "lower"),
    ("builder.build_s", "s", "lower"),
    ("partition.plan_s", "s", "lower"),
    ("partition.cells", "count", "higher"),
    ("partition.shard_imbalance", "ratio", "lower"),
    ("partition.run_s", "s", "lower"),
    ("partition.speedup", "ratio", "higher"),
    ("partition.merge_s", "s", "lower"),
    ("sim.run_s", "s", "lower"),
    ("sim.ns_per_event", "ns", "lower"),
    ("sim.events_per_request", "count", "lower"),
    ("sim.allocs_per_event", "count", "lower"),
    ("event.queue_len", "count", "lower"),
    ("event.hold_ns_per_op", "ns", "lower"),
    ("telemetry.sampler_s", "s", "lower"),
    ("telemetry.export_s", "s", "lower"),
    ("critpath.stream_s", "s", "lower"),
    ("critpath.replay_s", "s", "lower"),
    ("critpath.report_s", "s", "lower"),
    ("trace.record_s", "s", "lower"),
    ("trace.audit_s", "s", "lower"),
    ("trace.span_events", "count", "lower"),
    ("trace.bytes_per_span_event", "B", "lower"),
    ("metrics.summary_s", "s", "lower"),
    ("metrics.samples", "count", "lower"),
    ("fault.retry_ratio", "ratio", "lower"),
    ("fault.goodput_ratio", "ratio", "higher"),
    ("runner.cell_s", "s", "lower"),
    ("runner.cell_max_s", "s", "lower"),
    ("runner.parallel_eff", "ratio", "higher"),
    ("cli.overhead_s", "s", "lower"),
    ("error_rate", "fraction", "lower"),
]
# Counts that must repeat exactly for the same code and seed.
DETERMINISTIC = [
    "sim.events_per_request",
    "sim.allocs_per_event",
    "trace.span_events",
    "partition.cells",
    "metrics.samples",
    "fault.retry_ratio",
]

# Why each workload exists is in README.md. `duration` is the command's
# simulated seconds; `xduration` the length of the observer on/off
# experiments, sized so span tracing stays under `events`.
WORKLOADS = {
    "steady_two_tier": {
        "kind": "run", "config": "two_tier.json",
        "duration": 10, "xduration": 4, "setup_reps": 30,
    },
    "explain_social": {
        "kind": "why", "config": "social_network.json",
        "duration": 3, "xduration": 3, "setup_reps": 30,
    },
    "gen_cluster_sharded": {
        "kind": "gen", "spec": "gen_dsb.json",
        "duration": 2, "xduration": 0.5, "setup_reps": 5,
    },
    "sweep_faults": {
        "kind": "sweep", "config": "social_network.json",
        "faults": "social_network_faults.json", "qps": [4000, 14000, 24000],
        "reps": 2, "duration": 3, "xduration": 3, "setup_reps": 20,
    },
}
SPAN_EVENTS = 4_000_000


def fmt_num(x):
    return f"{x:g}"


def target_dir():
    t = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return t if t.is_absolute() else (Path.cwd() / t).resolve()


def uqsim_bin():
    return target_dir() / "release" / "uqsim"


def probe_bin():
    return target_dir() / "release" / "uqsim-probe"


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    for extra in (["--bin", "uqsim"], ["--manifest-path", str(PROBE_MANIFEST)]):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", *extra]
        subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, check=True)


def cli_argv(name, seed, shards=CORES):
    w = WORKLOADS[name]
    d = fmt_num(w["duration"])
    b = str(uqsim_bin())
    if w["kind"] == "run":
        return [b, "run", str(CONFIGS / w["config"]), "--duration", d, "--seed", str(seed), "--json"]
    if w["kind"] == "why":
        return [b, "why", "--config", str(CONFIGS / w["config"]), "--duration", d,
                "--seed", str(seed), "--events", str(SPAN_EVENTS), "--json",
                "--out", str(WORK / "why-out")]
    if w["kind"] == "gen":
        return [b, "run", "--gen", str(CONFIGS / w["spec"]), "--seed", str(seed),
                "--shards", str(shards), "--duration", d, "--json"]
    return [b, "sweep", "--config", str(CONFIGS / w["config"]),
            "--faults", str(CONFIGS / w["faults"]),
            "--qps", ",".join(str(q) for q in w["qps"]), "--reps", str(w["reps"]),
            "--jobs", str(CORES), "--duration", d, "--seed", str(seed)]


def probe_argv(mode, name, seed, spans=None):
    w = WORKLOADS[name]
    argv = [str(probe_bin()), mode, "--workload", name, "--kind", w["kind"],
            "--seed", str(seed), "--gen-spec", str(CONFIGS / "gen_dsb.json"),
            "--duration", fmt_num(w["duration"]), "--xduration", fmt_num(w["xduration"]),
            "--shards", str(CORES), "--events", str(SPAN_EVENTS)]
    if "config" in w:
        argv += ["--config", str(CONFIGS / w["config"])]
    if "faults" in w:
        argv += ["--faults", str(CONFIGS / w["faults"])]
    if "qps" in w:
        argv += ["--qps", ",".join(str(q) for q in w["qps"]), "--reps", str(w["reps"])]
    if mode == "cmd":
        argv += ["--setup-reps", str(w["setup_reps"])]
    if spans is not None:
        argv += ["--spans", str(spans)]
    return argv


@dataclass
class Proc:
    """One finished child process: wall time from spawn to exit, peak RSS."""

    argv: list
    wall_s: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str


def spawn(argv, launcher=False):
    """Runs `argv` to completion. With `launcher`, the probe's `exec` mode
    spawns it and reports wall time and `wait4` peak RSS; otherwise the wall
    time is taken here and the RSS is not meaningful."""
    out, err, rep = WORK / "stdout.txt", WORK / "stderr.txt", WORK / "rusage.json"
    env = dict(os.environ, TMPDIR=str(WORK / "tmp"))
    full = [str(probe_bin()), "exec", str(rep), *argv] if launcher else argv
    rep.unlink(missing_ok=True)
    with open(out, "wb") as fo, open(err, "wb") as fe:
        start = time.perf_counter()
        p = subprocess.Popen(full, stdout=fo, stderr=fe, env=env, start_new_session=True)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, os.killpg, (p.pid, signal.SIGKILL))
        watchdog.start()
        _, status, _ = os.wait4(p.pid, 0)
        wall = time.perf_counter() - start
        watchdog.cancel()
        # Reaped here; tell Popen so it does not wait on the pid again.
        p.returncode = code = os.waitstatus_to_exitcode(status)
    rss = float("nan")
    if launcher and code == 0 and rep.exists():
        r = json.loads(rep.read_text())
        wall, rss, code = r["wall_s"], r["maxrss_kb"] / 1024.0, r["code"]
    elif launcher and code == 0:
        code = -1
    return Proc(argv, wall, rss, code, out.read_text(errors="replace"),
                err.read_text(errors="replace"))


def remove_gen_dir(stderr):
    """`uqsim run --gen` leaves its generated scenario directory behind and
    names it on stderr (`... -> <dir>`); delete it after each run."""
    tmp = (WORK / "tmp").resolve()
    for line in stderr.splitlines():
        if line.startswith("generated ") and " -> " in line:
            d = Path(line.rsplit(" -> ", 1)[1].strip()).resolve()
            if tmp in d.parents:
                shutil.rmtree(d, ignore_errors=True)


def digest_of(fields):
    text = " ".join(f"{k}={fields[k]}" for k in sorted(fields))
    return hashlib.sha256(text.encode()).hexdigest()[:16], text


def check_cli(name, p):
    """Checks one `uqsim` run. Returns (failures, digest fields)."""
    if p.code != 0:
        return [f"uqsim exited {p.code}: {p.stderr.strip()[-300:]}"], {}
    try:
        return parse_cli(name, p)
    except (ValueError, KeyError, IndexError) as e:
        return [f"uqsim output unreadable: {e!r}"], {}


def parse_cli(name, p):
    kind = WORKLOADS[name]["kind"]
    fails = []
    if kind == "sweep":
        rows = [r.split(",") for r in p.stdout.strip().splitlines()]
        head, body = rows[0], rows[1:]
        col = {c: i for i, c in enumerate(head)}
        w = WORKLOADS[name]
        if len(body) != len(w["qps"]) or any(int(r[col["reps"]]) != w["reps"] for r in body):
            fails.append("sweep: table does not cover the qps grid")
        if any(int(r[col["completed"]]) <= 0 for r in body):
            fails.append("sweep: a cell completed no request")
        if sum(int(r[col["retried"]]) for r in body) <= 0:
            fails.append("sweep: the fault plan fired no retry")
        return fails, {"csv_sha256": hashlib.sha256(p.stdout.encode()).hexdigest()}
    doc = json.loads(p.stdout)
    if kind == "why":
        if "streaming == replay" not in p.stderr or "truncated" in p.stderr:
            fails.append("why: streaming != replay, or the span log was truncated")
        return fails, {"requests": doc["requests"], "p50_ns": doc["e2e"]["p50_ns"],
                       "p99_ns": doc["e2e"]["p99_ns"]}
    faults = doc.get("faults") or {}
    dropped, shed = faults.get("dropped", 0), faults.get("shed", 0)
    live = doc["generated"] - doc["completed"] - dropped - shed
    if live < 0:
        fails.append(f"conservation: completed+dropped+shed exceeds generated by {-live}")
    fields = {"generated": doc["generated"], "completed": doc["completed"],
              "events": doc["events_processed"], "p50": doc["latency_s"]["p50"],
              "p99": doc["latency_s"]["p99"], "live": live}
    if kind == "gen":
        fields["cells"] = doc["cells"]
    return fails, fields


def check_probe(p):
    """Checks one probe run. Returns (failures, parsed output)."""
    if p.code != 0:
        return [f"probe exited {p.code}: {p.stderr.strip()[-300:]}"], None
    out = json.loads(p.stdout.strip().splitlines()[-1])
    return list(out["failures"]), out


def cross_check(name, cli_fields, probe_out, cli_stdout):
    """The in-process run and the `uqsim` process simulate the same thing."""
    kind = WORKLOADS[name]["kind"]
    d = probe_out["digest"]
    if kind == "sweep":
        csv = probe_out["csv"]
        same = cli_stdout == (csv if csv.endswith("\n") else csv + "\n")
    elif kind == "why":
        same = all(cli_fields[k] == d.get(k) for k in ("requests", "p50_ns", "p99_ns"))
    else:
        keys = ["generated", "completed", "events", "p50", "p99"]
        if kind == "run":
            keys.append("live")  # exact: the probe reads Simulator::live_requests
        same = all(cli_fields[k] == d[k] for k in keys)
    return [] if same else ["in-process run and uqsim process disagree on the simulated statistics"]


class Ledger:
    """Counts and digests per (workload, seed, build). Any drift between
    two runs of the same build and seed is a failed check."""

    def __init__(self, build_id):
        self.path = WORK / "ledger.json"
        self.build_id = build_id
        self.data = json.loads(self.path.read_text()) if self.path.exists() else {}

    def check(self, name, seed, what, value):
        key = f"{name}|{seed}|{self.build_id}|{what}"
        old = self.data.setdefault(key, value)
        self.path.write_text(json.dumps(self.data, indent=1, sort_keys=True))
        return [] if old == value else [f"{what} drifted for the same build and seed: {old} -> {value}"]


def build_id():
    h = hashlib.sha256()
    for b in (uqsim_bin(), probe_bin()):
        with open(b, "rb") as f:
            for chunk in iter(lambda: f.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()[:16]


def host_fingerprint():
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
    cal = spawn([str(probe_bin()), "calibrate"])
    return {"nproc": NPROC, "cores_used": CORES, "cpu": cpu, "rustc": rustc,
            "profile": "release (debug = true)",
            "calibration_s": json.loads(cal.stdout)["calibration_s"]}


def self_times(spans):
    """Each span's duration minus the part of it its children cover."""
    kids = {}
    for s in spans:
        if s["parent"] is not None:
            kids.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start_s"]
        for c in sorted(kids.get(s["id"], []), key=lambda c: c["start_s"]):
            lo, hi = max(c["start_s"], reach), min(c["end_s"], s["end_s"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = (s["end_s"] - s["start_s"]) - covered
    return out


def check_spans(spans, wall_s):
    st = self_times(spans)
    fails = []
    if any(v < -1e-9 for v in st.values()):
        fails.append("spans: a self time is negative")
    if sum(st.values()) > wall_s + 1e-9:
        fails.append(f"spans: self times sum to {sum(st.values()):.6f}s, over the {wall_s:.6f}s wall")
    return fails, st


def probe_plain(name, seed, run, cli):
    """One untraced probe run, cross-checked against the `uqsim` run `cli`
    (a (Proc, digest fields) pair) when that run passed its own checks."""
    q = spawn(probe_argv("cmd", name, seed))
    fails, out = check_probe(q)
    if out is not None:
        run.probe.append((q, out))
        if cli is not None:
            fails += cross_check(name, cli[1], out, cli[0].stdout)
    run.record(fails)


def probe_traced(name, seed, run):
    spans_file = WORK / f"spans-{name}-cmd.json"
    t = spawn(probe_argv("cmd", name, seed, spans_file))
    fails, out = check_probe(t)
    if out is not None:
        doc = json.loads(spans_file.read_text())
        fails += check_spans(doc["spans"], t.wall_s)[0]
        run.traced.append((t, out, doc))
    run.record(fails)


def measure(name, seed, seconds, traced, run):
    """Alternates `uqsim` processes and untraced probe processes (plus, when
    traced, span-recording probe processes) until `seconds` have passed."""
    start = time.perf_counter()
    loop_s = seconds / 2 if traced else seconds
    i = 0
    while i < MIN_REPS or (time.perf_counter() - start) * (i + 1) / i < loop_s:
        if i >= MAX_REPS:
            break
        i += 1
        p = spawn(cli_argv(name, seed), launcher=True)
        remove_gen_dir(p.stderr)
        shutil.rmtree(WORK / "why-out", ignore_errors=True)
        fails, fields = check_cli(name, p)
        run.record(fails)
        if not fails:
            run.cli.append(p)
            run.cli_fields.append(fields)
        steps = [lambda: probe_plain(name, seed, run, None if fails else (p, fields))]
        if traced:
            # Alternate which probe goes first, so neither always runs in
            # the other's wake.
            steps.append(lambda: probe_traced(name, seed, run))
            if i % 2 == 0:
                steps.reverse()
        for step in steps:
            step()
    if len({digest_of(f)[0] for f in run.cli_fields}) > 1 or \
            len({json.dumps(o["digest"], sort_keys=True) for _, o in run.probe}) > 1:
        run.fail_last(["simulated statistics differ between repetitions of the same seed"])


class Run:
    def __init__(self):
        self.cli, self.cli_fields, self.probe, self.traced = [], [], [], []
        self.attempted, self.failed, self.failures = 0, 0, []
        self.last_failed = False

    def record(self, fails):
        """One simulation run and the checks it failed."""
        self.attempted += 1
        self.last_failed = bool(fails)
        self.failed += self.last_failed
        self.failures.extend(fails)

    def fail_last(self, fails):
        """Checks that fail the most recent run after the fact."""
        if fails and not self.last_failed:
            self.failed += 1
            self.last_failed = True
        self.failures.extend(fails)


def end_to_end(run):
    return {
        "wall_s": statistics.median(p.wall_s for p in run.cli),
        "setup_s": statistics.median(o["setup_s"] for _, o in run.probe),
        "sim_req_per_s": statistics.median(o["completed"] / o["sim_s"] for _, o in run.probe),
        "peak_rss_mb": statistics.median(p.rss_mb for p in run.cli),
    }


def with_self_times(spans):
    st = self_times(spans)
    return [dict(s, self_s=st[s["id"]]) for s in spans]


def layers(name, seed, run, ledger, e2e, host):
    """The traced run's per-layer metrics, its tracing overhead, and the
    spans file. Returns (metrics, tracing overhead in seconds)."""
    spans_file = WORK / f"spans-{name}-layers.json"
    p = spawn(probe_argv("layers", name, seed, spans_file))
    fails, out = check_probe(p)
    if out is None:
        run.record(fails)
        return {}, float("nan")
    doc = json.loads(spans_file.read_text())
    run.record(fails + check_spans(doc["spans"], p.wall_s)[0])
    m = dict(out["metrics"])
    for k in DETERMINISTIC:
        run.fail_last(ledger.check(name, seed, k, m[k]))
    if name == "gen_cluster_sharded":
        one = spawn(cli_argv(name, seed, shards=1))
        remove_gen_dir(one.stderr)
        same = one.code == 0 and run.cli and one.stdout == run.cli[-1].stdout
        run.record([] if same else [f"{name}: --json output differs between 1 shard and {CORES}"])
    untraced = statistics.median(q.wall_s for q, _ in run.probe)
    traced = statistics.median(t.wall_s for t, _, _ in run.traced)
    m["cli.overhead_s"] = e2e["wall_s"] - statistics.median(o["cli_calls_s"] for _, o in run.probe)
    m["error_rate"] = run.failed / run.attempted
    print(f"  tracing overhead: {traced - untraced:+.6f} s ({100 * (traced / untraced - 1):+.2f}%): "
          f"probe wall with spans {traced:.6f} s vs without {untraced:.6f} s "
          f"(medians of n={len(run.traced)})")
    spans_out = WORK / f"spans-{name}-seed{seed}.json"
    spans_out.write_text(json.dumps({
        "workload": name, "seed": seed, "host": host, "tracing_overhead_s": traced - untraced,
        "command": with_self_times(run.traced[-1][2]["spans"]),
        "layers": with_self_times(doc["spans"])}))
    print(f"  spans written to {os.path.relpath(spans_out, ROOT)}")
    return m, traced - untraced


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    name, seed, traced = args.workload, args.seed, bool(args.trace)
    if not (ROOT / "Cargo.toml").is_file() or not (CONFIGS / "two_tier.json").is_file():
        print(f"perfbench: {ROOT} is not a uqsim source checkout", file=sys.stderr)
        return 2
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    host = host_fingerprint()
    ledger = Ledger(build_id())
    print(f"perfbench {name} seed={seed} seconds={fmt_num(args.seconds)} trace={int(traced)}")
    print("host: " + " ".join(f"{k}={json.dumps(v)}" for k, v in host.items()))
    print("command: " + " ".join(str(a).replace(str(ROOT) + "/", "") for a in cli_argv(name, seed)))

    run = Run()
    measure(name, seed, args.seconds, traced, run)
    shutil.rmtree(WORK / "tmp", ignore_errors=True)
    (WORK / "tmp").mkdir(exist_ok=True)
    if not run.cli or not run.probe:
        print(json.dumps({"correct": False, "attempted": run.attempted, "failed": run.failed,
                          "metrics": {}}))
        for f in run.failures:
            print(f"check failed: {f}", file=sys.stderr)
        return 1

    # The digest covers what the command prints, plus the in-process
    # counts for commands that print no request totals (why, sweep).
    probe_digest = run.probe[0][1]["digest"]
    fields = {k: probe_digest[k] for k in ("generated", "completed", "events", "retried")
              if k in probe_digest}
    fields.update(run.cli_fields[0])
    dg, text = digest_of(fields)
    run.fail_last(ledger.check(name, seed, "digest", dg))
    print(f"digest {name} seed={seed}: {dg} ({text})")
    e2e = end_to_end(run)
    n_cli, n_probe = len(run.cli), len(run.probe)
    notes = {
        "wall_s": f"median of n={n_cli} uqsim processes",
        "setup_s": f"median of n={n_probe} probe processes, each the median of "
                   f"{WORKLOADS[name]['setup_reps']} set-ups",
        "sim_req_per_s": f"median of n={n_probe} probe processes",
        "peak_rss_mb": f"median of n={n_cli} uqsim processes",
    }
    for k, unit, _ in END_TO_END:
        print(f"  {name:<20} {k:<28} {e2e[k]:>14.6g} {unit:<8} {notes[k]}")

    result = {"workload": name, "seed": seed, "trace": int(traced), "host": host,
              "end_to_end": e2e, "digest": fields, "failures": run.failures,
              "cli_wall_s": [p.wall_s for p in run.cli],
              "probe": [o for _, o in run.probe]}
    if traced:
        m, overhead = layers(name, seed, run, ledger, e2e, host)
        for k, unit, _ in PER_LAYER:
            if k != "error_rate":  # printed below, with its counts
                print(f"  {name:<20} {k:<28} {m.get(k, float('nan')):>14.6g} {unit}")
        result["per_layer"] = m
        result["tracing_overhead_s"] = overhead
        metrics = {k: {"value": m[k], "unit": u} for k, u, _ in PER_LAYER if k in m}
        complete = len(metrics) == len(PER_LAYER)
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u, _ in END_TO_END}
        complete = True
    err_rate = run.failed / run.attempted
    print(f"  {name:<20} {'error_rate':<28} {err_rate:>14.6g} fraction "
          f"({run.failed} failed of {run.attempted} runs)")
    for f in run.failures:
        print(f"check failed: {f}", file=sys.stderr)
    correct = not run.failures and complete
    (WORK / "results").mkdir(exist_ok=True)
    (WORK / "results" / f"{name}-seed{seed}-trace{int(traced)}.json").write_text(
        json.dumps(result, indent=1))
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed if correct else max(run.failed, 1),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
