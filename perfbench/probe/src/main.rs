//! `uqsim-probe`: runs one perfbench workload's library calls in-process and
//! times each call into a layer of `uqsim-core`, `uqsim-synth` and
//! `uqsim-runner`. `perfbench/run.py` drives it; each invocation prints one
//! JSON object on stdout.
//!
//! ```text
//! uqsim-probe calibrate
//! uqsim-probe exec   <report.json> <command> [args...]
//! uqsim-probe cmd    <workload args> [--setup-reps M] [--spans FILE]
//! uqsim-probe layers <workload args> [--spans FILE]
//! ```
//!
//! `cmd` repeats the calls the workload's `uqsim` command makes (set-up,
//! then the simulate call, then its post-processing). `layers` times every
//! layer metric of the benchmark on the workload's scenario, including the
//! observer on/off pairs that need extra simulations.

mod alloc;
mod hold;
mod launch;
mod spans;

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use serde_json::{json, Map, Value};
use uqsim_core::config::ScenarioConfig;
use uqsim_core::partition::{merge_json, merge_registries, merge_results};
use uqsim_core::run::run_one_faulted;
use uqsim_core::{
    run_partitioned, CpcProfile, FaultPlan, PartitionOptions, PartitionPlan, RunResult,
    SimDuration, SimTime, Simulator, TelemetryConfig,
};
use uqsim_runner::sweep::{run_scenario_sweep, seed_for, SweepSpec};
use uqsim_synth::GenSpec;

use spans::Tracer;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Sampler interval of the `telemetry.sampler_s` on/off pair.
const SAMPLER_INTERVAL: SimDuration = SimDuration::from_millis(10);

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// `uqsim run <scenario>`: classic engine, no observers.
    Run,
    /// `uqsim why --config <scenario>`: span tracing, critpath, audit, replay.
    Why,
    /// `uqsim run --gen <spec> --shards K`: generated cluster, partitioned.
    Gen,
    /// `uqsim sweep --config <scenario> --faults <plan>`: the runner grid.
    Sweep,
}

/// One workload, as `run.py` describes it on the command line.
struct Workload {
    name: String,
    kind: Kind,
    seed: u64,
    config: Option<PathBuf>,
    gen_spec: PathBuf,
    faults: Option<PathBuf>,
    duration_s: f64,
    shards: usize,
    qps: Vec<f64>,
    reps: usize,
    events: usize,
    x_duration_s: f64,
}

type Res<T> = Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out = match args.first().map(String::as_str) {
        Some("calibrate") => Ok(json!({ "calibration_s": calibrate() })),
        Some("exec") if args.len() > 2 => launch::run(&args[2..]).and_then(|f| {
            let report = json!({ "wall_s": f.wall_s, "maxrss_kb": f.maxrss_kb, "code": f.code });
            std::fs::write(&args[1], report.to_string()).map_err(err)?;
            std::process::exit(0)
        }),
        Some(mode @ ("cmd" | "layers")) => parse_args(&args[1..]).and_then(|(w, opts)| {
            let mut tr = Tracer::new(opts.spans.is_some());
            let doc = if mode == "cmd" {
                command(&w, &mut tr, opts.setup_reps)
            } else {
                layers(&w, &mut tr)
            }?;
            if let Some(path) = &opts.spans {
                let text = serde_json::to_string(&tr.to_json(&w.name)).map_err(err)?;
                std::fs::write(path, text).map_err(err)?;
            }
            Ok(doc)
        }),
        _ => Err(
            "usage: uqsim-probe calibrate | exec <report> <cmd>... | cmd <args> | layers <args>"
                .to_string(),
        ),
    };
    match out {
        Ok(doc) => println!(
            "{}",
            serde_json::to_string(&doc).expect("output serializes")
        ),
        Err(e) => {
            eprintln!("uqsim-probe: {e}");
            std::process::exit(1);
        }
    }
}

struct Opts {
    setup_reps: usize,
    spans: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Res<(Workload, Opts)> {
    let mut w = Workload {
        name: String::new(),
        kind: Kind::Run,
        seed: 1,
        config: None,
        gen_spec: PathBuf::new(),
        faults: None,
        duration_s: 1.0,
        shards: 1,
        qps: Vec::new(),
        reps: 1,
        events: 4_000_000,
        x_duration_s: 1.0,
    };
    let mut opts = Opts {
        setup_reps: 1,
        spans: None,
    };
    for pair in args.chunks(2) {
        let [key, val] = pair else {
            return Err(format!("flag {} needs a value", pair[0]));
        };
        let num = |v: &str| v.parse::<f64>().map_err(|e| format!("{key}: {e}"));
        let int = |v: &str| v.parse::<u64>().map_err(|e| format!("{key}: {e}"));
        match key.as_str() {
            "--workload" => w.name = val.clone(),
            "--kind" => {
                w.kind = match val.as_str() {
                    "run" => Kind::Run,
                    "why" => Kind::Why,
                    "gen" => Kind::Gen,
                    "sweep" => Kind::Sweep,
                    other => return Err(format!("unknown kind {other}")),
                }
            }
            "--seed" => w.seed = int(val)?,
            "--config" => w.config = Some(PathBuf::from(val)),
            "--gen-spec" => w.gen_spec = PathBuf::from(val),
            "--faults" => w.faults = Some(PathBuf::from(val)),
            "--duration" => w.duration_s = num(val)?,
            "--shards" => w.shards = int(val)?.max(1) as usize,
            "--qps" => {
                w.qps = val.split(',').map(num).collect::<Res<Vec<f64>>>()?;
            }
            "--reps" => w.reps = int(val)?.max(1) as usize,
            "--events" => w.events = int(val)? as usize,
            "--xduration" => w.x_duration_s = num(val)?,
            "--setup-reps" => opts.setup_reps = int(val)?.max(1) as usize,
            "--spans" => opts.spans = Some(PathBuf::from(val)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if w.kind != Kind::Gen && w.config.is_none() {
        return Err("--config is required".to_string());
    }
    Ok((w, opts))
}

/// A fixed integer loop: its time is the host-speed reference printed with
/// every result, so figures from different hosts are never compared.
fn calibrate() -> f64 {
    let start = Instant::now();
    let mut rng = hold::SplitMix64::new(1);
    let mut acc = 0u64;
    for _ in 0..50_000_000u32 {
        acc = acc.wrapping_add(rng.next_u64() >> 7);
    }
    black_box(acc);
    start.elapsed().as_secs_f64()
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// What the command's set-up produced, and how long each layer took.
struct Setup {
    cfg: ScenarioConfig,
    plan: Option<FaultPlan>,
    sim: Option<Simulator>,
    parse_s: f64,
    generate_s: f64,
    build_s: f64,
    plan_s: f64,
}

impl Setup {
    fn total_s(&self) -> f64 {
        self.parse_s + self.generate_s + self.build_s + self.plan_s
    }
}

fn load_faults(w: &Workload, tr: &mut Tracer) -> Res<(Option<FaultPlan>, f64)> {
    match &w.faults {
        None => Ok((None, 0.0)),
        Some(p) => {
            let (plan, secs) = tr.time("config.parse", || FaultPlan::from_file(p));
            Ok((Some(plan.map_err(err)?), secs))
        }
    }
}

fn scenario_path(w: &Workload) -> &Path {
    w.config.as_deref().expect("parse_args requires --config")
}

/// The public calls the workload's command makes before its first
/// simulated event.
fn setup(w: &Workload, tr: &mut Tracer) -> Res<Setup> {
    let open = tr.open("setup");
    let out = match w.kind {
        Kind::Run | Kind::Why => {
            let (cfg, parse_s) = tr.time("config.parse", || {
                ScenarioConfig::from_file(scenario_path(w))
            });
            let mut cfg = cfg.map_err(err)?;
            cfg.seed = w.seed;
            let (plan, faults_s) = load_faults(w, tr)?;
            let (sim, build_s) = tr.time("builder.build", || cfg.build());
            Setup {
                sim: Some(sim.map_err(err)?),
                cfg,
                plan,
                parse_s: parse_s + faults_s,
                generate_s: 0.0,
                build_s,
                plan_s: 0.0,
            }
        }
        Kind::Gen => {
            let (spec, parse_s) = tr.time("config.parse", || GenSpec::from_file(&w.gen_spec));
            let spec = spec.map_err(err)?;
            let (cfg, generate_s) = tr.time("synth.generate", || spec.generate(w.seed));
            let cfg = cfg.map_err(err)?;
            let (sim, build_s) = tr.time("builder.build", || cfg.build());
            sim.map_err(err)?;
            let (plan, plan_s) = tr.time("partition.plan", || PartitionPlan::new(&cfg, w.shards));
            plan.map_err(err)?;
            Setup {
                cfg,
                plan: None,
                sim: None,
                parse_s,
                generate_s,
                build_s,
                plan_s,
            }
        }
        Kind::Sweep => {
            let (cfg, parse_s) = tr.time("config.parse", || {
                ScenarioConfig::from_file(scenario_path(w))
            });
            let cfg = cfg.map_err(err)?;
            let (plan, faults_s) = load_faults(w, tr)?;
            // One build per sweep cell, as `run_one_faulted` does them.
            let (built, build_s) = tr.time("builder.build", || -> Res<()> {
                for &q in &w.qps {
                    let scaled = cfg.with_offered_qps(q);
                    for rep in 0..w.reps {
                        scaled
                            .with_seed(seed_for(w.seed, rep))
                            .build()
                            .map_err(err)?;
                    }
                }
                Ok(())
            });
            built?;
            Setup {
                cfg,
                plan,
                sim: None,
                parse_s: parse_s + faults_s,
                generate_s: 0.0,
                build_s,
                plan_s: 0.0,
            }
        }
    };
    tr.close(open);
    Ok(out)
}

fn sweep_spec(w: &Workload, plan: Option<FaultPlan>) -> SweepSpec {
    SweepSpec {
        qps: w.qps.clone(),
        reps: w.reps,
        base_seed: w.seed,
        duration: SimDuration::from_secs_f64(w.duration_s),
        jobs: w.shards,
        faults: plan,
        shards: 0,
    }
}

/// `generated == completed + dropped + shed + live`, the engine's request
/// conservation identity.
fn conserve(failures: &mut Vec<String>, what: &str, sim: &Simulator) {
    let lhs = sim.generated();
    let rhs = sim.completed() + sim.dropped() + sim.shed() + sim.live_requests() as u64;
    if lhs != rhs {
        failures.push(format!(
            "{what}: conservation broken: generated {lhs} != completed+dropped+shed+live {rhs}"
        ));
    }
}

/// The same identity for a summarized run, whose live count is not kept:
/// the terminal states may not exceed the requests generated.
fn conserve_result(failures: &mut Vec<String>, what: &str, r: &RunResult) {
    if r.completed + r.dropped + r.shed > r.generated {
        failures.push(format!(
            "{what}: conservation broken: completed+dropped+shed {} > generated {}",
            r.completed + r.dropped + r.shed,
            r.generated
        ));
    }
}

fn sim_digest(sim: &Simulator) -> Value {
    let s = sim.latency_summary();
    json!({
        "generated": sim.generated(), "completed": sim.completed(),
        "events": sim.events_processed(), "p50": s.p50, "p99": s.p99,
        "dropped": sim.dropped(), "shed": sim.shed(), "live": sim.live_requests(),
    })
}

fn result_digest(r: &RunResult) -> Value {
    json!({
        "generated": r.generated, "completed": r.completed, "events": r.events_processed,
        "p50": r.latency.p50, "p99": r.latency.p99, "dropped": r.dropped, "shed": r.shed,
    })
}

/// `cmd` mode: set-up (`setup_reps` times, median reported), then the
/// command's simulate call and post-processing, once.
fn command(w: &Workload, tr: &mut Tracer, setup_reps: usize) -> Res<Value> {
    let open = tr.open("command");
    let mut samples = Vec::with_capacity(setup_reps);
    let mut last = None;
    for _ in 0..setup_reps {
        let s = setup(w, tr)?;
        samples.push(s.total_s());
        last = Some(s);
    }
    let mut s = last.expect("setup_reps >= 1");
    // The calls the CLI itself makes (it does no separate build or plan
    // for a sharded run), for `cli.overhead_s`.
    let mut cli_calls_s = match w.kind {
        Kind::Gen => s.parse_s + s.generate_s,
        _ => s.total_s(),
    };
    let mut failures = Vec::new();
    let duration = SimDuration::from_secs_f64(w.duration_s);
    let (sim_s, completed, digest, csv) = match w.kind {
        Kind::Run => {
            let mut sim = s.sim.take().expect("classic set-up builds a simulator");
            let ((), sim_s) = tr.time("sim.run_for", || sim.run_for(duration));
            let (_, summary_s) = tr.time("metrics.summary", || sim.latency_summary());
            cli_calls_s += sim_s + summary_s;
            conserve(&mut failures, "run", &sim);
            (sim_s, sim.completed(), sim_digest(&sim), None)
        }
        Kind::Why => {
            let mut sim = s.sim.take().expect("classic set-up builds a simulator");
            sim.enable_span_tracing(w.events);
            sim.enable_telemetry(TelemetryConfig {
                critpath: true,
                ..TelemetryConfig::default()
            });
            let ((), sim_s) = tr.time("sim.run_for", || sim.run_for(duration));
            let (report, post_s) = why_post(tr, &sim, &mut failures);
            cli_calls_s += sim_s + post_s;
            conserve(&mut failures, "why", &sim);
            let mut digest = sim_digest(&sim);
            if let (Value::Object(d), Some(r)) = (&mut digest, report) {
                d.insert("requests".to_string(), r["requests"].clone());
                d.insert("p50_ns".to_string(), r["e2e"]["p50_ns"].clone());
                d.insert("p99_ns".to_string(), r["e2e"]["p99_ns"].clone());
            }
            (sim_s, sim.completed(), digest, None)
        }
        Kind::Gen => {
            let opts = PartitionOptions::with_shards(w.shards);
            let (run, sim_s) = tr.time("partition.run", || {
                run_partitioned(&s.cfg, None, w.seed, duration, &opts)
            });
            let run = run.map_err(err)?;
            cli_calls_s += sim_s;
            conserve_result(&mut failures, "gen", &run.result);
            let mut digest = result_digest(&run.result);
            if let Value::Object(d) = &mut digest {
                d.insert("cells".to_string(), json!(run.cells.len()));
            }
            (sim_s, run.result.completed, digest, None)
        }
        Kind::Sweep => {
            let spec = sweep_spec(w, s.plan.take());
            let (table, sim_s) = tr.time("runner.sweep", || {
                run_scenario_sweep(&s.cfg, &spec, &|_| {})
            });
            let table = table.map_err(err)?;
            let (csv, csv_s) = tr.time("runner.csv", || table.to_csv());
            cli_calls_s += sim_s + csv_s;
            let completed = table.rows.iter().map(|r| r.completed).sum::<u64>();
            let retried = table.rows.iter().map(|r| r.retried).sum::<u64>();
            let digest = json!({ "completed": completed, "retried": retried });
            (sim_s, completed, digest, Some(csv))
        }
    };
    tr.close(open);
    Ok(json!({
        "setup_s": median(&samples),
        "setup_samples": samples.len(),
        "sim_s": sim_s,
        "completed": completed,
        "cli_calls_s": cli_calls_s,
        "digest": digest,
        "csv": csv,
        "failures": failures,
    }))
}

/// `why`'s post-processing: truncation check, audit, replay fold, and the
/// report rendering. Returns the report JSON and the time spent.
fn why_post(tr: &mut Tracer, sim: &Simulator, failures: &mut Vec<String>) -> (Option<Value>, f64) {
    let log = sim.span_log().expect("span tracing is enabled");
    if log.dropped() > 0 {
        failures.push(format!(
            "why: span log truncated ({} dropped)",
            log.dropped()
        ));
        return (None, 0.0);
    }
    let (audit, audit_s) = tr.time("trace.audit", || sim.audit_trace());
    if !audit.is_some_and(|a| a.is_clean()) {
        failures.push("why: trace audit not clean".to_string());
    }
    let streaming = sim
        .critpath_profile()
        .expect("critpath telemetry is enabled");
    let (replayed, replay_s) = tr.time("critpath.replay", || {
        CpcProfile::from_trace(log, &sim.trace_meta())
    });
    if replayed.as_ref() != Ok(&streaming) {
        failures.push("why: streaming and replayed attribution disagree".to_string());
    }
    let (doc, report_s) = tr.time("critpath.report", || {
        let report = streaming.report();
        black_box(report.to_text());
        report.to_json()
    });
    (Some(doc), audit_s + replay_s + report_s)
}

/// Observers switched on for one classic experiment.
#[derive(Clone, Copy, Default)]
struct Observers {
    sampler: bool,
    critpath: bool,
    trace: Option<usize>,
}

/// One classic `run_for` experiment on the workload's scenario.
struct Exp {
    sim: Simulator,
    run_s: f64,
    allocs_warm: u64,
    events_warm: u64,
    heap_growth: i64,
}

fn experiment(
    tr: &mut Tracer,
    name: &'static str,
    cfg: &ScenarioConfig,
    plan: Option<&FaultPlan>,
    dx: f64,
    obs: Observers,
) -> Res<Exp> {
    let mut sim = cfg.build().map_err(err)?;
    if let Some(plan) = plan {
        sim.install_faults(plan).map_err(err)?;
    }
    if let Some(cap) = obs.trace {
        sim.enable_span_tracing(cap);
    }
    if obs.sampler || obs.critpath {
        sim.enable_telemetry(TelemetryConfig {
            sample_interval: obs.sampler.then_some(SAMPLER_INTERVAL),
            critpath: obs.critpath,
            ..TelemetryConfig::default()
        });
    }
    let warm = SimTime::ZERO + SimDuration::from_secs_f64(cfg.warmup_s.min(dx));
    let end = SimTime::ZERO + SimDuration::from_secs_f64(dx);
    let open = tr.open(name);
    let bytes0 = alloc::live_bytes();
    sim.run_until(warm);
    let (allocs0, events0) = (alloc::allocations(), sim.events_processed());
    sim.run_until(end);
    let run_s = tr.close(open);
    Ok(Exp {
        allocs_warm: alloc::allocations() - allocs0,
        events_warm: sim.events_processed() - events0,
        heap_growth: alloc::live_bytes() - bytes0,
        sim,
        run_s,
    })
}

/// Runs `f` `n` times, each inside a span named `name`; returns the
/// median duration.
fn median_time(
    tr: &mut Tracer,
    name: &'static str,
    n: usize,
    mut f: impl FnMut() -> Res<()>,
) -> Res<f64> {
    let mut times = Vec::with_capacity(n);
    for _ in 0..n {
        let (out, secs) = tr.time(name, &mut f);
        out?;
        times.push(secs);
    }
    Ok(median(&times))
}

fn put(m: &mut Map, name: &str, v: f64) {
    m.insert(name.to_string(), json!(v));
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Mean of the `event_heap` gauge over the sampler ticks of a classic run.
fn mean_event_heap(sim: &Simulator) -> Option<f64> {
    let series = sim.telemetry_series()?;
    let idx = series
        .defs()
        .iter()
        .position(|d| d.metric == "event_heap")?;
    let col = series.column(idx);
    (!col.is_empty()).then(|| col.iter().sum::<f64>() / col.len() as f64)
}

/// Mean per-cell `event_heap` over every cell's sampler CSV.
fn mean_cell_event_heap(run: &uqsim_core::PartitionedRun) -> Option<f64> {
    let (mut sum, mut n) = (0.0, 0usize);
    for cell in &run.cells {
        for line in cell.csv.as_deref()?.lines() {
            let mut f = line.split(',');
            if f.nth(1) == Some("event_heap") {
                sum += f.nth(1)?.parse::<f64>().ok()?;
                n += 1;
            }
        }
    }
    (n > 0).then(|| sum / n as f64)
}

/// `layers` mode: every per-layer metric, measured on this workload.
fn layers(w: &Workload, tr: &mut Tracer) -> Res<Value> {
    let mut m = Map::new();
    let mut failures: Vec<String> = Vec::new();

    // Set-up layers, median of several repetitions.
    let reps = 5;
    let mut setups = Vec::new();
    for _ in 0..reps {
        setups.push(setup(w, tr)?);
    }
    let med = |f: fn(&Setup) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    put(&mut m, "config.parse_s", med(|s| s.parse_s));
    put(&mut m, "builder.build_s", med(|s| s.build_s));
    let Setup {
        cfg,
        plan,
        generate_s,
        plan_s,
        ..
    } = setups.pop().expect("reps > 0");
    drop(setups);
    let cfg = cfg.with_seed(w.seed);
    // Layers the command does not call are still timed: the generator on
    // the bundled spec, the partition planner on this scenario.
    if w.kind == Kind::Gen {
        put(&mut m, "synth.generate_s", generate_s);
        put(&mut m, "partition.plan_s", plan_s);
    } else {
        let spec = GenSpec::from_file(&w.gen_spec).map_err(err)?;
        let generate_s = median_time(tr, "synth.generate", 3, || {
            black_box(spec.generate(w.seed).map_err(err)?);
            Ok(())
        })?;
        put(&mut m, "synth.generate_s", generate_s);
        let plan_s = median_time(tr, "partition.plan", reps, || {
            black_box(PartitionPlan::new(&cfg, w.shards).map_err(err)?);
            Ok(())
        })?;
        put(&mut m, "partition.plan_s", plan_s);
    }

    // Classic engine: the same run_for call and seed with each observer
    // on and off. The off run is repeated to check the deterministic
    // counters and to halve its timing noise.
    let dx = w.x_duration_s;
    let plan_ref = plan.as_ref();
    let off = Observers::default();
    let a = experiment(tr, "exp.off", &cfg, plan_ref, dx, off)?;
    let b = experiment(tr, "exp.off", &cfg, plan_ref, dx, off)?;
    let counters = |e: &Exp| {
        (
            e.sim.events_processed(),
            e.sim.completed(),
            e.allocs_warm,
            e.sim.latency_samples().len(),
        )
    };
    if counters(&a) != counters(&b) {
        failures.push(format!(
            "deterministic counters drifted between identical runs: {:?} vs {:?}",
            counters(&a),
            counters(&b)
        ));
    }
    let off_s = 0.5 * (a.run_s + b.run_s);
    drop(b);
    let events = a.sim.events_processed();
    let completed = a.sim.completed();
    conserve(&mut failures, "exp.off", &a.sim);
    put(&mut m, "sim.run_s", off_s);
    put(
        &mut m,
        "sim.ns_per_event",
        ratio(off_s * 1e9, events as f64),
    );
    put(
        &mut m,
        "sim.events_per_request",
        ratio(events as f64, completed as f64),
    );
    put(
        &mut m,
        "sim.allocs_per_event",
        ratio(a.allocs_warm as f64, a.events_warm as f64),
    );
    let summary_s = median_time(tr, "metrics.summary", 3, || {
        black_box(a.sim.latency_summary());
        Ok(())
    })?;
    put(&mut m, "metrics.summary_s", summary_s);
    put(
        &mut m,
        "metrics.samples",
        a.sim.latency_samples().len() as f64,
    );
    let non_perturbing = |what: &str, e: &Exp, failures: &mut Vec<String>| {
        conserve(failures, what, &e.sim);
        if (e.sim.events_processed(), e.sim.completed()) != (events, completed) {
            failures.push(format!("{what}: observer changed the simulation"));
        }
    };
    drop(a);

    let samp = experiment(
        tr,
        "exp.sampler",
        &cfg,
        plan_ref,
        dx,
        Observers {
            sampler: true,
            ..off
        },
    )?;
    conserve(&mut failures, "exp.sampler", &samp.sim);
    put(&mut m, "telemetry.sampler_s", samp.run_s - off_s);
    let classic_queue = mean_event_heap(&samp.sim).unwrap_or(0.0);
    let ((), export_s) = tr.time("telemetry.export", || {
        black_box(samp.sim.metrics_prometheus());
        black_box(samp.sim.metrics_csv());
        black_box(samp.sim.metrics_json());
    });
    put(&mut m, "telemetry.export_s", export_s);
    drop(samp);

    let cp = experiment(
        tr,
        "exp.critpath",
        &cfg,
        plan_ref,
        dx,
        Observers {
            critpath: true,
            ..off
        },
    )?;
    non_perturbing("exp.critpath", &cp, &mut failures);
    put(&mut m, "critpath.stream_s", cp.run_s - off_s);
    let streaming = cp.sim.critpath_profile();
    drop(cp);

    let trx = experiment(
        tr,
        "exp.trace",
        &cfg,
        plan_ref,
        dx,
        Observers {
            trace: Some(w.events),
            ..off
        },
    )?;
    non_perturbing("exp.trace", &trx, &mut failures);
    put(&mut m, "trace.record_s", trx.run_s - off_s);
    let log = trx.sim.span_log().expect("span tracing is enabled");
    if log.dropped() > 0 {
        failures.push(format!(
            "exp.trace: span log truncated ({} dropped)",
            log.dropped()
        ));
    }
    let (audit, audit_s) = tr.time("trace.audit", || trx.sim.audit_trace());
    if !audit.is_some_and(|a| a.is_clean()) {
        failures.push("exp.trace: trace audit not clean".to_string());
    }
    put(&mut m, "trace.audit_s", audit_s);
    put(&mut m, "trace.span_events", log.len() as f64);
    put(
        &mut m,
        "trace.bytes_per_span_event",
        ratio(trx.heap_growth as f64, log.len() as f64),
    );
    let (replayed, replay_s) = tr.time("critpath.replay", || {
        CpcProfile::from_trace(log, &trx.sim.trace_meta())
    });
    put(&mut m, "critpath.replay_s", replay_s);
    let replayed = replayed.map_err(|e| format!("critpath replay: {e}"))?;
    if streaming.as_ref() != Some(&replayed) {
        failures.push("exp.trace: streaming and replayed attribution disagree".to_string());
    }
    let ((), report_s) = tr.time("critpath.report", || {
        let report = replayed.report();
        black_box(report.to_text());
        black_box(report.to_json());
    });
    put(&mut m, "critpath.report_s", report_s);
    drop(trx);

    // Partitioned engine at `shards` and at 1 shard. The generated
    // cluster runs its own command; other workloads run their scenario.
    let pd = if w.kind == Kind::Gen {
        w.duration_s
    } else {
        dx
    };
    let pcfg = &cfg;
    let pdur = SimDuration::from_secs_f64(pd);
    let pplan = PartitionPlan::new(pcfg, w.shards).map_err(err)?;
    let weights = pplan.weights();
    let mut load = vec![0u64; pplan.shards];
    for (c, &s) in pplan.assignment.iter().enumerate() {
        load[s] += weights[c];
    }
    let mean_load = load.iter().sum::<u64>() as f64 / load.len() as f64;
    put(&mut m, "partition.cells", pplan.cells.len() as f64);
    put(
        &mut m,
        "partition.shard_imbalance",
        ratio(load.iter().copied().max().unwrap_or(0) as f64, mean_load),
    );
    let opts = PartitionOptions::with_shards(w.shards);
    let (run_n, run_n_s) = tr.time("partition.run", || {
        run_partitioned(pcfg, plan_ref, w.seed, pdur, &opts)
    });
    let run_n = run_n.map_err(err)?;
    conserve_result(&mut failures, "partition.run", &run_n.result);
    let (run_1, run_1_s) = tr.time("partition.run", || {
        run_partitioned(
            pcfg,
            plan_ref,
            w.seed,
            pdur,
            &PartitionOptions::with_shards(1),
        )
    });
    if run_1.map_err(err)?.result != run_n.result {
        failures.push("partition: result differs between 1 shard and many".to_string());
    }
    put(&mut m, "partition.run_s", run_n_s);
    put(&mut m, "partition.speedup", ratio(run_1_s, run_n_s));
    let ((), merge_s) = tr.time("partition.merge", || {
        let merged = merge_results(w.seed, &run_n.cells);
        black_box(merge_registries(&run_n.cells));
        black_box(merge_json(&merged, &run_n.cells));
    });
    put(&mut m, "partition.merge_s", merge_s);
    // Queue length the event core works at: one queue per cell on the
    // partitioned path, one queue for the whole scenario otherwise.
    let cell_events_per_s =
        run_n.result.events_processed as f64 / run_n.cells.len().max(1) as f64 / pd;
    drop(run_n);
    let (queue_len, events_per_queue_s) = if w.kind == Kind::Gen {
        let mut sopts = PartitionOptions::with_shards(w.shards);
        sopts.telemetry.sample_interval = Some(SAMPLER_INTERVAL);
        let (srun, _) = tr.time("partition.run", || {
            run_partitioned(pcfg, plan_ref, w.seed, pdur, &sopts)
        });
        (
            mean_cell_event_heap(&srun.map_err(err)?).unwrap_or(0.0),
            cell_events_per_s,
        )
    } else {
        (classic_queue, events as f64 / dx)
    };
    put(&mut m, "event.queue_len", queue_len);

    // Event core alone: hold-model replay at that queue length and event
    // density.
    let len = queue_len.round().max(1.0) as usize;
    let gap_ns = ratio(len as f64 * 1e9, events_per_queue_s);
    let mut hold_ns = Vec::new();
    for rep in 0..3 {
        let (h, _) = tr.time("event.hold", || {
            hold::replay(len, gap_ns, 1_000_000, w.seed + rep)
        });
        if !h.in_order || h.final_len != len {
            failures.push("event: hold replay popped out of (time, seq) order".to_string());
        }
        hold_ns.push(h.ns_per_op);
    }
    put(&mut m, "event.hold_ns_per_op", median(&hold_ns));

    // Runner: every cell serially, then the same cells on `shards` workers.
    let cells: Vec<(ScenarioConfig, u64)> = match w.kind {
        Kind::Sweep => w
            .qps
            .iter()
            .flat_map(|&q| (0..w.reps).map(move |r| (q, r)))
            .map(|(q, r)| (cfg.with_offered_qps(q), seed_for(w.seed, r)))
            .collect(),
        _ => (0..2).map(|r| (cfg.clone(), seed_for(w.seed, r))).collect(),
    };
    let rd = SimDuration::from_secs_f64(if w.kind == Kind::Sweep {
        w.duration_s
    } else {
        dx
    });
    let mut cell_s = Vec::new();
    let mut serial = Vec::new();
    for (c, seed) in &cells {
        let (r, secs) = tr.time("runner.cell", || run_one_faulted(c, plan_ref, *seed, rd));
        let r = r.map_err(err)?;
        conserve_result(&mut failures, "runner.cell", &r);
        cell_s.push(secs);
        serial.push(r);
    }
    let (parallel, wall) = match w.kind {
        Kind::Sweep => {
            let spec = sweep_spec(w, plan.clone());
            let (t, wall) = tr.time("runner.sweep", || run_scenario_sweep(&cfg, &spec, &|_| {}));
            let t = t.map_err(err)?;
            let sums = (
                t.rows.iter().map(|r| r.completed).sum::<u64>(),
                t.rows.iter().map(|r| r.retried).sum::<u64>(),
            );
            (sums, wall)
        }
        _ => {
            let (rs, wall) = tr.time("runner.parallel", || {
                uqsim_runner::try_run_indexed(w.shards, cells.len(), |i| {
                    run_one_faulted(&cells[i].0, plan_ref, cells[i].1, rd)
                })
            });
            let rs = rs.map_err(err)?;
            let sums = (
                rs.iter().map(|r| r.completed).sum::<u64>(),
                rs.iter().map(|r| r.retried).sum::<u64>(),
            );
            (sums, wall)
        }
    };
    let serial_sums = (
        serial.iter().map(|r| r.completed).sum::<u64>(),
        serial.iter().map(|r| r.retried).sum::<u64>(),
    );
    if parallel != serial_sums {
        failures.push(format!(
            "runner: parallel cells {parallel:?} differ from serial {serial_sums:?}"
        ));
    }
    put(&mut m, "runner.cell_s", median(&cell_s));
    put(
        &mut m,
        "runner.cell_max_s",
        cell_s.iter().copied().fold(0.0, f64::max),
    );
    put(
        &mut m,
        "runner.parallel_eff",
        ratio(cell_s.iter().sum::<f64>(), w.shards as f64 * wall),
    );
    let sum = |f: fn(&RunResult) -> u64| serial.iter().map(f).sum::<u64>() as f64;
    let generated = sum(|r| r.generated);
    put(
        &mut m,
        "fault.retry_ratio",
        ratio(sum(|r| r.retried), generated),
    );
    put(
        &mut m,
        "fault.goodput_ratio",
        ratio(sum(|r| r.completed) - sum(|r| r.degraded), generated),
    );

    Ok(json!({ "metrics": Value::Object(m), "failures": failures }))
}
