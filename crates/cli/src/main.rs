//! `uqsim` — run a simulation scenario described entirely in JSON.
//!
//! ```text
//! uqsim run <scenario.json> [--duration <secs>] [--seed <n>] [--json]
//!           [--metrics-out <dir>] [--sample-interval <secs>] [--faults <faults.json>]
//!           [--shards <n>]
//! uqsim chaos <scenario.json> --faults <faults.json> [--duration <secs>]
//!             [--seed <n>] [--json] [--events <n>] [--shards <n>]
//! uqsim why --config <scenario.json> [--faults <faults.json>] [--duration <secs>]
//!           [--seed <n>] [--json] [--events <n>] [--shards <n>] [--out <dir>]
//! uqsim top --config <scenario.json> [--duration <secs>] [--interval <secs>]
//!           [--seed <n>] [--no-ansi]
//! uqsim sweep --config <scenario.json> --qps <lo:hi:step|a,b,..> [--reps <k>]
//!             [--jobs <n>] [--duration <secs>] [--seed <n>] [--json] [--out <file>]
//!             [--faults <faults.json>] [--shards <n>]
//! uqsim trace --config <scenario.json> [--out <trace.json>] [--duration <secs>] [--events <n>]
//!             [--shards <n>]
//! uqsim gen --spec <gen.json> [--seed <n>] [--out <dir>] [--json]
//! uqsim validate <scenario.json>
//! uqsim split <scenario.json> <dir>
//! uqsim example
//! ```
//!
//! Every command accepting `<scenario.json>` also accepts a *directory* in
//! the paper's Table I layout (`machines.json`, `services.json`,
//! `graph.json`, `path.json`, `client.json`, optional `sim.json`); `split`
//! converts a single-file scenario into that layout.
//!
//! `run` executes the scenario and prints a latency/throughput summary
//! (machine-readable with `--json`). With `--metrics-out <dir>` it enables
//! the telemetry layer (periodic sampler) and writes `metrics.prom`
//! (Prometheus text), `metrics.csv` (long-form `t_s,metric,label,value`
//! time series), and `metrics.json` (full telemetry dump) into the
//! directory. `top` is a live terminal view: it steps the simulation one
//! sampler interval at a time and redraws a per-instance utilization /
//! queue-depth / thread-occupancy table plus the latest windowed latency
//! percentiles, like `top(1)` for the simulated cluster. `sweep` runs the
//! scenario across a QPS grid × seed replications on the [`uqsim_runner`]
//! thread pool and emits an aggregated CSV (or `--json`) table with 95%
//! confidence intervals; its output is byte-identical at any `--jobs`
//! value. `trace` records the full per-request span log, writes it as
//! Chrome `trace_event` JSON (open the file in `about:tracing` or
//! <https://ui.perfetto.dev>), and audits it against the simulator's
//! invariants, exiting non-zero on any violation. `validate` parses and
//! builds without running. `example` prints a complete scenario file to
//! start from; more elaborate ones ship under `crates/cli/configs/`.
//!
//! `run` and `sweep` accept `--faults <faults.json>`: a fault plan
//! ([`uqsim_core::FaultPlan`]) of scheduled fault windows (instance
//! crashes, machine slowdowns, network degradation, pool leaks) plus
//! per-client resilience policies (retries with backoff and jitter,
//! hedging, retry budgets, circuit breakers). `chaos` runs one faulted
//! scenario with full span tracing, audits request-outcome conservation,
//! and prints a failure-mode report (timeline, terminal-outcome counters,
//! resilience activity, goodput vs. achieved throughput); it exits
//! non-zero if the audit finds violations. Faulted runs stay
//! deterministic: the same scenario + plan + seed reproduces the same
//! report byte-for-byte at any `--jobs` value.
//!
//! `run`, `chaos`, `why`, `trace`, and `sweep` all execute through
//! [`uqsim_core::run_partitioned`]: the scenario is split into
//! request-closed *cells* (DESIGN.md §11) that run on `--shards <n>`
//! worker threads (default 1). A scenario that forms one cell runs under
//! its own seed, exactly as one simulator. Every output — the printed
//! summary, metrics files, Chrome trace, chaos report, attribution
//! report, sweep table — is byte-identical with `--shards` absent, `1`, or
//! any other value, so `--shards` is purely a wall-clock knob, like
//! `--jobs` for sweeps. Partition diagnostics go to stderr.
//!
//! `gen` synthesizes a DeathStarBench-class scenario from a compact
//! generation spec ([`uqsim_synth::GenSpec`]): layered service graphs with
//! sampled widths and fan-outs, instance placement, pools, request DAGs,
//! and clients. Generation is deterministic per `(spec, seed)` — `--json`
//! output is byte-identical across runs and machines. `run`, `chaos`,
//! `why`, and `sweep` accept `--gen <gen.json>` in place of a scenario
//! path: the spec is generated in memory (the command's `--seed` doubles
//! as the generation seed) and run like any hand-written scenario; report
//! headers name the spec file. An example spec ships at
//! `crates/cli/configs/gen_dsb.json`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};

use serde_json::{json, Value};
use uqsim_core::config::ScenarioConfig;
use uqsim_core::partition::CellOutput;
use uqsim_core::telemetry::TelemetryConfig;
use uqsim_core::time::SimDuration;
use uqsim_core::{FaultPlan, PartitionOptions, PartitionedRun, SimError, TraceLog};

const EXAMPLE: &str = include_str!("../configs/quickstart.json");

/// Heap allocations made by this process. `uqsim-core` forbids `unsafe`
/// and so cannot count allocations itself; the binary installs this
/// counting wrapper around the system allocator and hands the counter to
/// the self-profiler via [`uqsim_core::telemetry::set_alloc_probe`].
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: every method delegates to `System` unchanged; the only addition
// is a relaxed atomic increment, which cannot violate allocator contracts.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  uqsim run <scenario.json> [--duration <secs>] [--json] \
         [--metrics-out <dir>] [--sample-interval <secs>] [--faults <faults.json>] \
         [--shards <n>]\n  \
         uqsim chaos <scenario.json> --faults <faults.json> [--duration <secs>] \
         [--seed <n>] [--json] [--events <n>] [--shards <n>]\n  \
         uqsim why --config <scenario.json> [--faults <faults.json>] [--duration <secs>] \
         [--seed <n>] [--json] [--events <n>] [--shards <n>] [--out <dir>]\n  \
         uqsim top --config <scenario.json> [--duration <secs>] [--interval <secs>] \
         [--seed <n>] [--no-ansi]\n  \
         uqsim sweep --config <scenario.json> --qps <lo:hi:step|a,b,..> [--reps <k>] \
         [--jobs <n>] [--duration <secs>] [--seed <n>] [--json] [--out <file>] \
         [--faults <faults.json>] [--shards <n>]\n  \
         uqsim trace --config <scenario.json> [--out <trace.json>] [--duration <secs>] \
         [--events <n>] [--shards <n>]\n  \
         uqsim gen --spec <gen.json> [--seed <n>] [--out <dir>] [--json]\n  \
         uqsim validate <scenario.json|dir>\n  uqsim split <scenario.json> <dir>\n  uqsim example\n\
         \nrun, chaos, why, and sweep also accept --gen <gen.json> in place of a\n\
         scenario path: the spec is generated (seed = --seed) and run like any scenario."
    );
    ExitCode::from(2)
}

/// Why a command did not finish normally.
enum Fail {
    /// Malformed command line: print the usage text, exit 2.
    Usage,
    /// A well-formed but invalid argument value: print it, exit 2.
    Input(String),
    /// The simulation or its I/O failed: print it, exit 1.
    Sim(SimError),
}

impl From<SimError> for Fail {
    fn from(e: SimError) -> Self {
        Fail::Sim(e)
    }
}

impl From<std::io::Error> for Fail {
    fn from(e: std::io::Error) -> Self {
        Fail::Sim(e.into())
    }
}

/// `Ok(true)`: success; `Ok(false)`: the command ran but its checks
/// failed (exit 1).
type Outcome = Result<bool, Fail>;

/// One command's parsed flags. `spec` lists the flags it accepts; a name
/// ending in `=` takes a value. Unknown flags, missing values and surplus
/// positional arguments are usage errors; a repeated flag keeps its last
/// value.
struct Flags {
    positional: Option<String>,
    values: Vec<(&'static str, Option<String>)>,
}

impl Flags {
    fn parse(args: &[String], spec: &[&'static str], positional: bool) -> Result<Flags, Fail> {
        let mut flags = Flags {
            positional: None,
            values: Vec::new(),
        };
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            if let Some(&name) = spec
                .iter()
                .find(|s| s.trim_end_matches('=') == arg.as_str())
            {
                let value = if name.ends_with('=') {
                    Some(args.next().ok_or(Fail::Usage)?.clone())
                } else {
                    None
                };
                flags.values.push((name.trim_end_matches('='), value));
            } else if positional && !arg.starts_with("--") && flags.positional.is_none() {
                flags.positional = Some(arg.clone());
            } else {
                return Err(Fail::Usage);
            }
        }
        Ok(flags)
    }

    fn has(&self, name: &str) -> bool {
        self.values.iter().any(|(n, _)| *n == name)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    /// The flag's value parsed as `T`: `None` when absent, a usage error
    /// when unparsable.
    fn opt<T: FromStr>(&self, name: &str) -> Result<Option<T>, Fail> {
        self.get(name)
            .map(|v| v.parse().map_err(|_| Fail::Usage))
            .transpose()
    }

    /// [`Flags::opt`] with a default for an absent flag.
    fn num<T: FromStr>(&self, name: &str, default: T) -> Result<T, Fail> {
        Ok(self.opt(name)?.unwrap_or(default))
    }

    /// A strictly positive `name` (default `default`).
    fn positive(&self, name: &str, default: f64) -> Result<f64, Fail> {
        let v = self.num(name, default)?;
        if v > 0.0 {
            Ok(v)
        } else {
            Err(Fail::Usage)
        }
    }
}

/// Loads a scenario from a single file or a Table I directory.
fn load(path: &Path) -> Result<ScenarioConfig, SimError> {
    if path.is_dir() {
        ScenarioConfig::from_dir(path)
    } else {
        ScenarioConfig::from_file(path)
    }
}

/// `--gen <spec>` support: generates the spec's scenario in memory, so
/// every command runs it exactly like a hand-written scenario. The
/// command's `--seed` doubles as the generation seed (falling back to the
/// spec's own default), keeping `(spec, seed) → scenario` reproducible
/// from any entry point. The summary goes to stderr; stdout stays
/// reserved for the command's own (byte-stable) output.
fn generate(spec_path: &Path, seed: Option<u64>) -> Result<ScenarioConfig, SimError> {
    let spec = uqsim_synth::GenSpec::from_file(spec_path)?;
    let seed = seed.unwrap_or(spec.seed);
    let cfg = spec.generate(seed)?;
    eprintln!(
        "generated {} seed {seed}: {}",
        spec.name,
        uqsim_synth::summarize(&cfg)
    );
    Ok(cfg)
}

/// `uqsim gen`: generate a scenario from a spec, deterministically per
/// `(spec, seed)`. `--out <dir>` writes the Table I layout the other
/// commands load; `--json` prints the single-file scenario to stdout
/// (byte-identical across runs — CI regenerates and `cmp`s it); with
/// neither, the spec is validated, generated, and built.
fn gen_cmd(args: &[String]) -> Outcome {
    let f = Flags::parse(args, &["--spec=", "--seed=", "--out=", "--json"], false)?;
    let spec = f.get("--spec").ok_or(Fail::Usage)?;
    let cfg = generate(Path::new(spec), f.opt("--seed")?)?;
    if let Some(dir) = f.get("--out") {
        cfg.write_dir(Path::new(dir))?;
        eprintln!("wrote Table I layout to {dir}");
    }
    if f.has("--json") {
        println!("{}", cfg.to_json());
    }
    if !f.has("--out") && !f.has("--json") {
        // Dry run: prove the generated scenario actually builds.
        cfg.build()?;
    }
    Ok(true)
}

/// A scenario ready to run, with the parameters every simulating command
/// shares.
struct Job {
    /// The scenario, its seed already overridden by `--seed`.
    cfg: ScenarioConfig,
    /// How report headers name the scenario: its path, or the `--gen`
    /// spec's path.
    source: String,
    /// The `--faults` plan and its path.
    faults: Option<(FaultPlan, String)>,
    duration_s: f64,
    shards: usize,
}

impl Job {
    /// Reads the scenario (from `path_flag`'s value, or the positional
    /// argument when `None`, or `--gen`), `--seed`, `--faults`,
    /// `--duration` (default `duration_s`), and `--shards`.
    fn load(f: &Flags, path_flag: Option<&str>, duration_s: f64) -> Result<Job, Fail> {
        let seed = f.opt("--seed")?;
        let duration_s = f.num("--duration", duration_s)?;
        let shards = f.num("--shards", 1usize)?;
        if shards == 0 {
            return Err(Fail::Usage);
        }
        let path = match path_flag {
            Some(flag) => f.get(flag),
            None => f.positional.as_deref(),
        };
        let (mut cfg, source) = match (path, f.get("--gen")) {
            (Some(path), None) => (load(Path::new(path))?, path),
            (None, Some(spec)) => (generate(Path::new(spec), seed)?, spec),
            _ => return Err(Fail::Usage),
        };
        if let Some(seed) = seed {
            cfg.seed = seed;
        }
        let faults = match f.get("--faults") {
            Some(p) => Some((FaultPlan::from_file(Path::new(p))?, p.to_string())),
            None => None,
        };
        Ok(Job {
            cfg,
            source: source.to_string(),
            faults,
            duration_s,
            shards,
        })
    }

    /// Runs the scenario on `shards` workers, recording only what
    /// `telemetry` and `span_tracing` ask for.
    fn run(
        &self,
        telemetry: TelemetryConfig,
        span_tracing: Option<usize>,
    ) -> Result<PartitionedRun, SimError> {
        let opts = PartitionOptions {
            telemetry,
            span_tracing,
            ..PartitionOptions::with_shards(self.shards)
        };
        let run = uqsim_core::run_partitioned(
            &self.cfg,
            self.faults.as_ref().map(|(plan, _)| plan),
            self.cfg.seed,
            SimDuration::from_secs_f64(self.duration_s),
            &opts,
        )?;
        eprintln!(
            "partition: {} cell(s) on {} shard(s)",
            run.cells.len(),
            run.shards
        );
        Ok(run)
    }
}

/// Telemetry that streams the critical-path profile and nothing else.
fn critpath() -> TelemetryConfig {
    TelemetryConfig {
        critpath: true,
        ..TelemetryConfig::default()
    }
}

/// `head`'s keys, then `"cells"` when the run had more than one cell (a
/// one-cell run prints exactly what a single simulator does), then
/// `tail`'s keys.
fn with_cells(head: Value, cells: usize, tail: Value) -> Value {
    let mut out = head.as_object().cloned().unwrap_or_default();
    if cells > 1 {
        out.insert("cells", json!(cells));
    }
    for (k, v) in tail.as_object().into_iter().flatten() {
        out.insert(k.clone(), v.clone());
    }
    Value::Object(out)
}

/// Prints a pretty JSON document on stdout.
fn print_json(doc: &Value) {
    println!(
        "{}",
        serde_json::to_string_pretty(doc).expect("report serializes")
    );
}

fn main() -> ExitCode {
    uqsim_core::telemetry::set_alloc_probe(|| ALLOCATIONS.load(Ordering::Relaxed));
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return usage();
    };
    let outcome = match cmd.as_str() {
        "example" => {
            println!("{EXAMPLE}");
            Ok(true)
        }
        "split" => match rest {
            [src, dst, ..] => load(Path::new(src))
                .and_then(|c| c.write_dir(Path::new(dst)))
                .map(|()| {
                    println!("wrote Table I layout to {dst}");
                    true
                })
                .map_err(Fail::Sim),
            _ => Err(Fail::Usage),
        },
        "validate" => match rest.first() {
            Some(path) => match load(Path::new(path)).and_then(|c| c.build()) {
                Ok(sim) => {
                    println!(
                        "ok: {} instances, {} pending events at t=0",
                        sim.instance_count(),
                        sim.live_requests()
                    );
                    Ok(true)
                }
                Err(e) => {
                    eprintln!("invalid: {e}");
                    Ok(false)
                }
            },
            None => Err(Fail::Usage),
        },
        "gen" => gen_cmd(rest),
        "run" => run_cmd(rest),
        "chaos" => chaos_cmd(rest),
        "why" => why_cmd(rest),
        "top" => top_cmd(rest),
        "sweep" => sweep_cmd(rest),
        "trace" => trace_cmd(rest),
        _ => Err(Fail::Usage),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(Fail::Usage) => usage(),
        Err(Fail::Input(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
        Err(Fail::Sim(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `uqsim run`: prints the run summary and, with `--metrics-out`, writes
/// the metrics files.
fn run_cmd(args: &[String]) -> Outcome {
    let f = Flags::parse(
        args,
        &[
            "--gen=",
            "--duration=",
            "--seed=",
            "--json",
            "--metrics-out=",
            "--sample-interval=",
            "--faults=",
            "--shards=",
        ],
        true,
    )?;
    let sample_interval = f.positive("--sample-interval", 0.1)?;
    let metrics_out = f.get("--metrics-out").map(Path::new);
    let job = Job::load(&f, None, 5.0)?;
    let telemetry = TelemetryConfig {
        sample_interval: metrics_out.map(|_| SimDuration::from_secs_f64(sample_interval)),
        ..TelemetryConfig::default()
    };
    let run = job.run(telemetry, None)?;
    let (r, duration_s, warmup_s) = (&run.result, job.duration_s, job.cfg.warmup_s);
    if f.has("--json") {
        let mut out = with_cells(
            json!({ "duration_s": duration_s, "warmup_s": warmup_s }),
            run.cells.len(),
            json!({
                "generated": r.generated,
                "completed": r.completed,
                "throughput_qps": r.achieved_qps,
                "latency_s": {
                    "count": r.latency.count, "mean": r.latency.mean, "p50": r.latency.p50,
                    "p95": r.latency.p95, "p99": r.latency.p99, "max": r.latency.max,
                },
                "events_processed": r.events_processed,
            }),
        );
        if let (Some(fs), Value::Object(obj)) = (&r.fault, &mut out) {
            obj.insert("goodput_qps", json!(r.goodput_qps));
            obj.insert(
                "faults",
                serde_json::to_value(fs).expect("fault summary serializes"),
            );
        }
        print_json(&out);
    } else {
        println!("simulated {duration_s}s (warmup {warmup_s}s)");
        println!(
            "requests: generated {}, completed {}",
            r.generated, r.completed
        );
        println!(
            "throughput: {:.0} req/s over the measured window",
            r.achieved_qps
        );
        println!(
            "latency: mean {:.3}ms p50 {:.3}ms p95 {:.3}ms p99 {:.3}ms max {:.3}ms ({} samples)",
            r.latency.mean * 1e3,
            r.latency.p50 * 1e3,
            r.latency.p95 * 1e3,
            r.latency.p99 * 1e3,
            r.latency.max * 1e3,
            r.latency.count
        );
        println!("engine: {} events processed", r.events_processed);
        if let Some(fs) = &r.fault {
            println!(
                "faults: {} dropped, {} shed, {} timed out, {} retries, {} degraded \
                 ({:.0} req/s goodput)",
                fs.dropped, fs.shed, fs.timed_out, fs.retried, fs.degraded, r.goodput_qps
            );
        }
    }
    if let Some(dir) = metrics_out {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join("metrics.prom"), run.prometheus())?;
        std::fs::write(
            dir.join("metrics.csv"),
            run.csv().expect("sampler is enabled"),
        )?;
        std::fs::write(
            dir.join("metrics.json"),
            serde_json::to_string_pretty(&run.json()).expect("metrics serialize"),
        )?;
        eprintln!(
            "wrote metrics.prom, metrics.csv, metrics.json to {}",
            dir.display()
        );
    }
    Ok(true)
}

/// Span events dropped across all cells; warns per truncated cell.
fn dropped_spans(run: &PartitionedRun, events: usize, consequence: &str) -> u64 {
    for c in run.cells.iter().filter(|c| c.span_dropped() > 0) {
        eprintln!(
            "{consequence}: cell {} span log truncated ({} events dropped at capacity \
             {events}) — raise --events",
            c.cell,
            c.span_dropped()
        );
    }
    run.cells.iter().map(CellOutput::span_dropped).sum()
}

/// Span events recorded across all cells.
fn span_events(run: &PartitionedRun) -> usize {
    run.cells
        .iter()
        .filter_map(|c| c.span_log.as_ref())
        .map(TraceLog::len)
        .sum()
}

/// `uqsim chaos`: runs one faulted scenario with full span tracing,
/// audits request-outcome conservation, and prints a failure-mode report:
/// the fault timeline, terminal-outcome counters, resilience activity, and
/// goodput vs. achieved throughput. Succeeds when the audit is clean.
///
/// The report is deterministic: the same scenario + plan + seed prints
/// byte-identical text on every run, at any `--shards`.
fn chaos_cmd(args: &[String]) -> Outcome {
    let f = Flags::parse(
        args,
        &[
            "--gen=",
            "--duration=",
            "--seed=",
            "--json",
            "--faults=",
            "--events=",
            "--shards=",
        ],
        true,
    )?;
    let events = f.num("--events", 4_000_000usize)?;
    if !f.has("--faults") {
        return Err(Fail::Usage);
    }
    let job = Job::load(&f, None, 5.0)?;
    let faults_path = job.faults.as_ref().map_or("", |(_, p)| p.as_str());
    let run = job.run(critpath(), Some(events))?;
    let (r, duration_s, warmup_s, seed) =
        (&run.result, job.duration_s, job.cfg.warmup_s, job.cfg.seed);
    let fs = r.fault.as_ref().expect("fault plan is installed");
    let (s, ts) = (&r.latency, &r.timeout_latency);
    let dropped = dropped_spans(&run, events, "warning: audit skipped");
    let report = (dropped == 0).then(|| run.audit().expect("span tracing is enabled"));
    let clean = report.as_ref().is_some_and(|rep| rep.is_clean());
    let critpath = r
        .critpath
        .as_ref()
        .map(|p| p.report())
        .filter(|rep| rep.requests > 0);

    if f.has("--json") {
        print_json(&with_cells(
            json!({
                "scenario": job.source,
                "faults": faults_path,
                "seed": seed,
                "duration_s": duration_s,
                "warmup_s": warmup_s,
            }),
            run.cells.len(),
            json!({
                "generated": r.generated,
                "completed": r.completed,
                "outcomes": {
                    "dropped": fs.dropped,
                    "shed": fs.shed,
                    "timed_out": fs.timed_out,
                    "degraded": fs.degraded,
                },
                "resilience": {
                    "retried": fs.retried,
                    "hedged": fs.hedged,
                    "breaker_trips": fs.breaker_trips,
                    "jobs_killed": fs.jobs_killed,
                    "packets_dropped": fs.packets_dropped,
                    "retransmits": fs.retransmits,
                },
                "throughput_qps": r.achieved_qps,
                "goodput_qps": r.goodput_qps,
                "latency_s": {
                    "count": s.count, "mean": s.mean, "p50": s.p50,
                    "p95": s.p95, "p99": s.p99, "max": s.max,
                },
                "timeout_latency_s": { "count": ts.count, "p50": ts.p50, "p99": ts.p99 },
                "timeline": serde_json::to_value(&fs.timeline).expect("timeline serializes"),
                "critpath": critpath.as_ref().map(|rep| rep.to_json()),
                "audit": match &report {
                    None => json!({ "skipped": "span log truncated; raise --events" }),
                    Some(rep) => json!({
                        "clean": rep.is_clean(),
                        "violations": rep.violations.iter().map(|v| v.to_string()).collect::<Vec<_>>(),
                    }),
                },
            }),
        ));
        return Ok(clean);
    }
    println!(
        "chaos report: {} + {faults_path} (seed {seed}, {duration_s}s simulated, warmup {warmup_s}s)",
        job.source
    );
    println!();
    println!("timeline:");
    if fs.timeline.is_empty() {
        println!("  (no fault windows fired)");
    }
    for entry in &fs.timeline {
        println!("  t={:>8.3}s  {}", entry.t_s, entry.what);
    }
    println!();
    println!("outcomes:");
    println!(
        "  generated {}  completed {}  dropped {}  shed {}  timed out {}",
        r.generated, r.completed, fs.dropped, fs.shed, fs.timed_out
    );
    println!(
        "  degraded responses {} (breaker sheds + quorum early-fires)",
        fs.degraded
    );
    println!();
    println!("resilience:");
    println!(
        "  retries {}  hedges {}  breaker trips {}",
        fs.retried, fs.hedged, fs.breaker_trips
    );
    println!(
        "  jobs killed {}  packets dropped {}  retransmits {}",
        fs.jobs_killed, fs.packets_dropped, fs.retransmits
    );
    println!();
    println!(
        "latency (within-deadline completions): mean {:.3}ms p50 {:.3}ms p95 {:.3}ms \
         p99 {:.3}ms ({} samples)",
        s.mean * 1e3,
        s.p50 * 1e3,
        s.p95 * 1e3,
        s.p99 * 1e3,
        s.count
    );
    if ts.count > 0 {
        println!(
            "latency at timeout deadline: p50 {:.3}ms p99 {:.3}ms ({} requests)",
            ts.p50 * 1e3,
            ts.p99 * 1e3,
            ts.count
        );
    }
    println!(
        "goodput: {:.0} req/s of {:.0} req/s achieved ({:.1}% full fidelity)",
        r.goodput_qps,
        r.achieved_qps,
        100.0 * r.goodput_qps / r.achieved_qps.max(f64::EPSILON)
    );
    println!();
    if let Some(rep) = &critpath {
        print_tail_attribution(rep);
    }
    match &report {
        None => println!("audit: skipped ({dropped} span events dropped; raise --events)"),
        Some(rep) if rep.is_clean() => println!(
            "audit: clean — every request reached exactly one terminal state \
             ({} spans checked)",
            rep.spans_checked
        ),
        Some(rep) => {
            println!("audit: {} violations", rep.violations.len());
            for v in &rep.violations {
                println!("  {v}");
            }
        }
    }
    Ok(clean)
}

/// Prints the chaos report's tail-attribution section: where the
/// p99+-band requests spent their critical path, and which `(site, kind)`
/// components grew the most from the median cohort to the tail — the
/// direct answer to "which fault inflated the tail, and through what
/// mechanism". Deterministic: share-ranked with `(site, kind)` tie-breaks.
fn print_tail_attribution(rep: &uqsim_core::CpcReport) {
    println!("tail attribution (critical path):");
    if let Some(top) = rep.top_p99() {
        println!(
            "  p99+ cohort spends {:.1}% of its critical path in {} {}",
            top.p99_share * 100.0,
            top.site,
            top.kind.name()
        );
    }
    let mut any = false;
    for row in rep.ranked_by_diff().into_iter().take(3) {
        // Half a percentage point keeps sub-noise rows out of the report.
        if row.diff_share < 0.005 {
            break;
        }
        any = true;
        println!(
            "  {} {}: {:.1}% of the median cohort's path -> {:.1}% of the tail's \
             (+{:.1} pts)",
            row.site,
            row.kind.name(),
            row.p50_share * 100.0,
            row.p99_share * 100.0,
            row.diff_share * 100.0
        );
    }
    if !any {
        println!("  (no component grows from the median cohort to the tail)");
    }
    println!();
}

/// `uqsim why`: critical-path extraction and tail-latency attribution.
///
/// Runs the scenario (optionally faulted) with both streaming critical-path
/// accumulation and full span tracing, cross-checks every cell's streaming
/// profile against an independent replay of its recorded trace, audits the
/// trace, and prints the cohort/differential attribution report of the
/// merged profile. Fails (non-zero exit) when a span log truncated — a
/// truncated stream would silently under-attribute — when the audit finds
/// violations, or when streaming and replayed attribution disagree.
fn why_cmd(args: &[String]) -> Outcome {
    let f = Flags::parse(
        args,
        &[
            "--gen=",
            "--config=",
            "--faults=",
            "--duration=",
            "--seed=",
            "--json",
            "--events=",
            "--shards=",
            "--out=",
        ],
        false,
    )?;
    let events = f.num("--events", 4_000_000usize)?;
    let job = Job::load(&f, Some("--config"), 5.0)?;
    let run = job.run(critpath(), Some(events))?;
    if dropped_spans(&run, events, "error: attribution would be incomplete") > 0 {
        return Ok(false);
    }
    let audit = run.audit().expect("span tracing is enabled");
    if !audit.is_clean() {
        eprintln!(
            "error: trace audit found {} violation(s); refusing to attribute",
            audit.violations.len()
        );
        for v in &audit.violations {
            eprintln!("  {v}");
        }
        return Ok(false);
    }
    for c in &run.cells {
        let (Some(log), Some(meta)) = (&c.span_log, &c.trace_meta) else {
            unreachable!("span tracing is enabled");
        };
        match uqsim_core::CpcProfile::from_trace(log, meta) {
            Ok(replayed) if Some(&replayed) == c.result.critpath.as_ref() => {}
            Ok(_) => {
                eprintln!(
                    "error: streaming and trace-replayed attribution disagree in cell {}; \
                     this is an engine bug — please report it",
                    c.cell
                );
                return Ok(false);
            }
            Err(msg) => {
                eprintln!("error: {msg}");
                return Ok(false);
            }
        }
    }
    eprintln!(
        "why: {} span events replayed, {} spans audited, streaming == replay",
        span_events(&run),
        audit.spans_checked
    );
    let profile = run
        .result
        .critpath
        .as_ref()
        .expect("critpath telemetry is enabled");
    emit_why(
        &job,
        f.has("--json"),
        profile,
        f.get("--out").map(Path::new),
    )?;
    Ok(true)
}

/// Renders an attribution profile to stdout (text, or the full report JSON
/// with `--json`) and, with `--out <dir>`, writes the machine-readable
/// artifact set: `critpath.txt`, `critpath.csv`, `critpath.json`,
/// `critpath.folded` (flame-graph folded stacks), and `critpath.prom`
/// (Prometheus `uqsim_critpath_*` exposition). All renderings are
/// deterministic functions of the profile.
fn emit_why(
    job: &Job,
    json: bool,
    profile: &uqsim_core::CpcProfile,
    out: Option<&Path>,
) -> Result<(), SimError> {
    let faults = job.faults.as_ref().map(|(_, p)| p.as_str());
    let (seed, duration_s, warmup_s) = (job.cfg.seed, job.duration_s, job.cfg.warmup_s);
    let report = profile.report();
    if json {
        let mut doc = report.to_json();
        if let Value::Object(obj) = &mut doc {
            obj.insert("scenario", json!(job.source));
            obj.insert("faults", json!(faults));
            obj.insert("seed", json!(seed));
            obj.insert("duration_s", json!(duration_s));
            obj.insert("warmup_s", json!(warmup_s));
        }
        print_json(&doc);
    } else {
        println!(
            "why: {}{} (seed {seed}, {duration_s}s simulated, warmup {warmup_s}s)",
            job.source,
            faults.map(|f| format!(" + {f}")).unwrap_or_default()
        );
        println!();
        print!("{}", report.to_text());
    }
    if let Some(dir) = out {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join("critpath.txt"), report.to_text())?;
        std::fs::write(dir.join("critpath.csv"), report.to_csv())?;
        std::fs::write(
            dir.join("critpath.json"),
            serde_json::to_string_pretty(&report.to_json()).expect("report serializes"),
        )?;
        std::fs::write(dir.join("critpath.folded"), profile.to_folded())?;
        std::fs::write(
            dir.join("critpath.prom"),
            profile.registry().to_prometheus(),
        )?;
        eprintln!(
            "wrote critpath.txt, critpath.csv, critpath.json, critpath.folded, \
             critpath.prom to {}",
            dir.display()
        );
    }
    Ok(())
}

/// `uqsim top`: the live terminal view (see [`top`]).
fn top_cmd(args: &[String]) -> Outcome {
    let f = Flags::parse(
        args,
        &[
            "--config=",
            "--duration=",
            "--interval=",
            "--seed=",
            "--no-ansi",
        ],
        false,
    )?;
    let interval = f.positive("--interval", 1.0)?;
    let job = Job::load(&f, Some("--config"), 10.0)?;
    top(&job.cfg, job.duration_s, interval, !f.has("--no-ansi"))?;
    Ok(true)
}

/// `top(1)` for the simulated cluster: steps the simulation one sampler
/// interval at a time and redraws per-instance utilization, queue depth,
/// and thread occupancy plus the latest windowed latency percentiles.
/// With ANSI enabled each frame overdraws the previous one; `--no-ansi`
/// appends frames instead (useful for piping to a file).
fn top(cfg: &ScenarioConfig, duration_s: f64, interval_s: f64, ansi: bool) -> Result<(), SimError> {
    let mut sim = cfg.build()?;
    let interval = SimDuration::from_secs_f64(interval_s);
    sim.enable_telemetry(TelemetryConfig {
        sample_interval: Some(interval),
        self_profile: true,
        ..TelemetryConfig::default()
    });
    let deadline = sim.now() + SimDuration::from_secs_f64(duration_s);
    while sim.now() < deadline {
        let step = interval.min(deadline - sim.now());
        sim.run_for(step);
        if ansi {
            // Clear the screen and home the cursor before each frame.
            print!("\x1b[2J\x1b[H");
        }
        print_top_frame(&sim, interval_s);
    }
    Ok(())
}

/// Renders one `uqsim top` frame from the latest sampler tick.
fn print_top_frame(sim: &uqsim_core::sim::Simulator, interval_s: f64) {
    println!(
        "uqsim top — t={:.3}s  (sampler interval {interval_s}s)",
        sim.now().as_secs_f64()
    );
    if let Some(p) = sim.self_profile().last() {
        let allocs = p
            .allocs_per_sim_s
            .map(|a| format!(", {a:.0} allocs/sim-s"))
            .unwrap_or_default();
        println!(
            "engine: {} events total, {:.0} events/wall-s, heap {}{allocs}",
            p.events_processed, p.events_per_wall_s, p.event_heap
        );
    }
    println!(
        "in flight: {} requests, {} jobs;  completed {} / generated {} ({} timeouts)",
        sim.live_requests(),
        sim.live_jobs(),
        sim.completed(),
        sim.generated(),
        sim.timeouts()
    );
    if let Some(w) = sim.telemetry_windows().last() {
        println!(
            "window: {} done, {:.0} qps, p50 {:.3}ms p95 {:.3}ms p99 {:.3}ms",
            w.count,
            w.throughput,
            w.p50_s * 1e3,
            w.p95_s * 1e3,
            w.p99_s * 1e3
        );
    }
    let Some(series) = sim.telemetry_series() else {
        return;
    };
    println!();
    println!(
        "{:<24} {:>6} {:>7} {:>5} {:>5}",
        "INSTANCE", "UTIL", "QDEPTH", "RUN", "BLK"
    );
    for def in series.defs() {
        if def.metric != "instance_queue_depth" {
            continue;
        }
        let Some((_, name)) = &def.label else {
            continue;
        };
        let get = |metric| series.latest(metric, Some(name.as_str())).unwrap_or(0.0);
        println!(
            "{name:<24} {:>5.1}% {:>7} {:>5} {:>5}",
            get("instance_utilization") * 100.0,
            get("instance_queue_depth") as u64,
            get("threads_running") as u64,
            get("threads_blocked") as u64
        );
    }
    println!();
    println!("{:<24} {:>8} {:>6}", "MACHINE", "NET-UTIL", "NETQ");
    for def in series.defs() {
        if def.metric != "network_utilization" {
            continue;
        }
        let Some((_, name)) = &def.label else {
            continue;
        };
        let get = |metric| series.latest(metric, Some(name.as_str())).unwrap_or(0.0);
        println!(
            "{name:<24} {:>7.1}% {:>6}",
            get("network_utilization") * 100.0,
            get("net_queue_depth") as u64
        );
    }
    let pools: Vec<&String> = series
        .defs()
        .iter()
        .filter(|d| d.metric == "pool_free")
        .filter_map(|d| d.label.as_ref().map(|(_, v)| v))
        .collect();
    if !pools.is_empty() {
        println!();
        println!("{:<32} {:>6} {:>8}", "POOL", "FREE", "WAITERS");
        for name in pools {
            let get = |metric| series.latest(metric, Some(name.as_str())).unwrap_or(0.0);
            println!(
                "{name:<32} {:>6} {:>8}",
                get("pool_free") as u64,
                get("pool_waiters") as u64
            );
        }
    }
}

/// `uqsim sweep`: `Q` QPS points × `K` seed replications fanned across
/// the [`uqsim_runner`] pool, aggregated into a CSV/JSON table with
/// across-replication 95% confidence intervals. Progress goes to stderr;
/// the table goes to stdout (or `--out`), and its bytes depend on neither
/// `--jobs` nor `--shards`.
fn sweep_cmd(args: &[String]) -> Outcome {
    let f = Flags::parse(
        args,
        &[
            "--shards=",
            "--faults=",
            "--config=",
            "--gen=",
            "--qps=",
            "--reps=",
            "--jobs=",
            "--duration=",
            "--seed=",
            "--json",
            "--out=",
        ],
        false,
    )?;
    let qps = f.get("--qps").ok_or(Fail::Usage)?;
    let reps = f.num("--reps", 3usize)?;
    let jobs = f.num("--jobs", uqsim_runner::available_jobs())?;
    let qps = uqsim_runner::sweep::parse_qps_spec(qps).map_err(Fail::Input)?;
    let job = Job::load(&f, Some("--config"), 5.0)?;
    let spec = uqsim_runner::sweep::SweepSpec {
        qps,
        reps: reps.max(1),
        base_seed: job.cfg.seed,
        duration: SimDuration::from_secs_f64(job.duration_s),
        jobs: jobs.max(1),
        faults: job.faults.map(|(plan, _)| plan),
        shards: job.shards,
    };
    eprintln!(
        "sweep: {} qps points x {} reps = {} cells on {} worker(s), {} shard(s) per cell",
        spec.qps.len(),
        spec.reps,
        spec.qps.len() * spec.reps,
        spec.jobs,
        spec.shards
    );
    let table = uqsim_runner::sweep::run_scenario_sweep(&job.cfg, &spec, &|p| {
        eprintln!(
            "  [{}/{}] qps={:.0} seed={}",
            p.finished, p.total, p.offered_qps, p.seed
        );
    })?;
    let mut text = if f.has("--json") {
        table.to_json()
    } else {
        table.to_csv()
    };
    if !text.ends_with('\n') {
        text.push('\n');
    }
    match f.get("--out") {
        Some(file) => {
            std::fs::write(file, &text)?;
            eprintln!("wrote {file}");
        }
        None => print!("{text}"),
    }
    Ok(true)
}

/// `uqsim trace`: runs the scenario with span tracing enabled, writes a
/// Chrome `trace_event` JSON file (viewable in `about:tracing` or
/// Perfetto), and audits the trace against the simulator's invariants.
/// Succeeds when the audit is clean and no span log truncated.
fn trace_cmd(args: &[String]) -> Outcome {
    let f = Flags::parse(
        args,
        &[
            "--config=",
            "--out=",
            "--duration=",
            "--events=",
            "--shards=",
        ],
        false,
    )?;
    let events = f.num("--events", 1_000_000usize)?;
    let job = Job::load(&f, Some("--config"), 2.0)?;
    let run = job.run(TelemetryConfig::default(), Some(events))?;
    let chrome = run.chrome_trace().expect("span tracing is enabled");
    let text = serde_json::to_string_pretty(&chrome).expect("trace serializes");
    match f.get("--out") {
        Some(file) => {
            std::fs::write(file, text)?;
            eprintln!("wrote {file}");
        }
        None => println!("{text}"),
    }
    let report = run.audit().expect("span tracing is enabled");
    let dropped: u64 = run.cells.iter().map(CellOutput::span_dropped).sum();
    eprintln!(
        "trace: {} events ({dropped} dropped), {} spans audited, {} completed requests",
        span_events(&run),
        report.spans_checked,
        run.result.completed
    );
    if report.is_clean() {
        eprintln!("audit: clean");
    } else {
        eprintln!("audit: {} violations", report.violations.len());
        for v in &report.violations {
            eprintln!("  {v}");
        }
    }
    if dropped_spans(&run, events, "error: the trace is incomplete") > 0 {
        return Ok(false);
    }
    Ok(report.is_clean())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundled_quickstart_builds_and_runs() {
        let cfg = ScenarioConfig::from_json(EXAMPLE).unwrap();
        let mut sim = cfg.build().unwrap();
        sim.run_for(SimDuration::from_secs(1));
        assert!(sim.completed() > 100);
    }

    #[test]
    fn bundled_social_network_builds_and_runs() {
        // Exercises block_thread_until / pin_thread_of / reply_via purely
        // from JSON.
        let text = include_str!("../configs/social_network.json");
        let cfg = ScenarioConfig::from_json(text).unwrap();
        let mut sim = cfg.build().unwrap();
        sim.run_for(SimDuration::from_secs(2));
        assert!(sim.completed() > 10_000, "completed {}", sim.completed());
        let s = sim.latency_summary();
        assert!(s.p99 < 20e-3, "p99 {}", s.p99);
        assert_eq!(
            sim.generated(),
            sim.completed() + sim.live_requests() as u64
        );
    }

    #[test]
    fn bundled_two_tier_builds_and_runs() {
        let text = include_str!("../configs/two_tier.json");
        let cfg = ScenarioConfig::from_json(text).unwrap();
        let mut sim = cfg.build().unwrap();
        sim.run_for(SimDuration::from_secs(1));
        assert!(sim.completed() > 1_000, "completed {}", sim.completed());
        let s = sim.latency_summary();
        assert!(s.p99 < 10e-3, "p99 {}", s.p99);
    }

    /// Runs one bundled config with span tracing on and asserts the trace
    /// audit comes back with zero violations and the Chrome export is
    /// well-formed.
    fn audit_config(text: &str, secs: u64) {
        let cfg = ScenarioConfig::from_json(text).unwrap();
        let mut sim = cfg.build().unwrap();
        sim.enable_span_tracing(2_000_000);
        sim.run_for(SimDuration::from_secs(secs));
        let log = sim.span_log().expect("tracing enabled");
        assert_eq!(log.dropped(), 0, "event capacity too small for this test");
        let report = sim.audit_trace().expect("tracing enabled");
        assert!(report.is_clean(), "violations: {:#?}", report.violations);
        assert!(report.spans_checked > 0, "no spans correlated");
        let chrome = sim.chrome_trace().expect("tracing enabled");
        let events = chrome["traceEvents"].as_array().expect("traceEvents array");
        assert!(events.len() > 100, "only {} chrome events", events.len());
        // Every event carries the mandatory Chrome trace_event keys.
        for ev in events {
            assert!(ev["ph"].as_str().is_some(), "event without ph: {ev}");
            assert!(ev["pid"].as_u64().is_some(), "event without pid: {ev}");
        }
    }

    /// The PR's acceptance scenario: under the bundled retry-storm fault
    /// plan, the p99-cohort's top critical-path contributor must be the
    /// faulted backend tier's queueing (or retry) component — attribution
    /// points at the fault, not at healthy services.
    #[test]
    fn social_network_retry_storm_attributes_tail_to_faulted_tier() {
        let cfg =
            ScenarioConfig::from_json(include_str!("../configs/social_network.json")).unwrap();
        let plan =
            uqsim_core::FaultPlan::from_json(include_str!("../configs/social_network_faults.json"))
                .unwrap();
        let result = uqsim_core::run::run_one_faulted(
            &cfg,
            Some(&plan),
            cfg.seed,
            SimDuration::from_secs(3),
        )
        .unwrap();
        assert!(result.retried > 0, "retry storm produced no retries");
        let report = result
            .critpath
            .expect("run_one_faulted streams a critpath profile")
            .report();
        let top = report.top_p99().expect("profile is non-empty");
        assert!(
            matches!(
                top.kind,
                uqsim_core::EdgeKind::QueueWait | uqsim_core::EdgeKind::RetryBackoff
            ),
            "top p99 contributor is {} {}, expected queue_wait/retry_backoff",
            top.site,
            top.kind.name()
        );
        assert!(
            ["user", "post", "media"]
                .iter()
                .any(|b| top.site.starts_with(b)),
            "top p99 contributor {} is not on the faulted backend tier",
            top.site
        );
    }

    #[test]
    fn quickstart_trace_audits_clean() {
        audit_config(EXAMPLE, 1);
    }

    #[test]
    fn two_tier_trace_audits_clean() {
        audit_config(include_str!("../configs/two_tier.json"), 1);
    }

    #[test]
    fn social_network_trace_audits_clean() {
        audit_config(include_str!("../configs/social_network.json"), 1);
    }
}
