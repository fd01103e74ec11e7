//! Integration tests of the telemetry layer: streaming-histogram accuracy
//! against exact percentiles (proptest), merge algebra, the telescoping
//! latency-decomposition invariant on trace-audited runs, sampler windows
//! against an oracle rebuilt from the span log, and gap-free window series
//! over trailing idle time.

use proptest::prelude::*;
use std::collections::HashMap;
use uqsim_core::client::{ArrivalProcess, RateSchedule};
use uqsim_core::config::ScenarioConfig;
use uqsim_core::dist::Distribution;
use uqsim_core::metrics::LatencySummary;
use uqsim_core::run::EXAMPLE_SCENARIO;
use uqsim_core::telemetry::{StreamingHistogram, TelemetryConfig};
use uqsim_core::time::{SimDuration, SimTime};
use uqsim_core::trace::{TraceEvent, TraceLog};

/// Per-job service time that makes every request of the deterministic
/// scenario take exactly 500 µs (60 µs of network plus service), so its
/// 2000 qps uniform arrivals complete on the sampler's 50 ms grid.
const BOUNDARY_PER_JOB_S: f64 = 440e-6;

/// Exact nearest-rank quantile over sorted integer samples — the reference
/// the streaming histogram is measured against.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.max(1) - 1]
}

fn hist_of(samples: &[u64]) -> StreamingHistogram {
    let mut h = StreamingHistogram::new();
    for &s in samples {
        h.record(s);
    }
    h
}

proptest! {
    /// The streaming estimate never under-reports a quantile and
    /// over-reports by at most one sub-bucket width (1/32 relative, +1 ns
    /// integer slack) — the histogram's documented resolution contract.
    #[test]
    fn streaming_quantiles_track_exact(
        samples in proptest::collection::vec(0u64..2_000_000_000, 1..400),
    ) {
        let h = hist_of(&samples);
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        prop_assert_eq!(h.count(), samples.len() as u64);
        prop_assert_eq!(h.min_ns(), sorted[0]);
        prop_assert_eq!(h.max_ns(), *sorted.last().unwrap());
        prop_assert_eq!(h.sum_ns(), sorted.iter().map(|&s| s as u128).sum::<u128>());
        for q in [0.5, 0.95, 0.99, 1.0] {
            let exact = exact_quantile(&sorted, q);
            let est = h.quantile_ns(q);
            prop_assert!(
                est >= exact,
                "q{q}: estimate {est} under exact {exact}"
            );
            prop_assert!(
                est <= exact + exact / 32 + 1,
                "q{q}: estimate {est} beyond resolution of exact {exact}"
            );
        }
    }

    /// Merging is commutative, associative, and identical to having
    /// recorded the concatenated sample streams into one histogram — the
    /// property that makes per-shard histograms aggregable in any order.
    #[test]
    fn streaming_merge_algebra(
        a in proptest::collection::vec(0u64..1_000_000_000, 0..200),
        b in proptest::collection::vec(0u64..1_000_000_000, 0..200),
        c in proptest::collection::vec(0u64..1_000_000_000, 0..200),
    ) {
        let (ha, hb, hc) = (hist_of(&a), hist_of(&b), hist_of(&c));

        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(&ab, &ba, "merge must be commutative");

        let mut ab_c = ab.clone();
        ab_c.merge(&hc);
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut a_bc = ha.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(&ab_c, &a_bc, "merge must be associative");

        let concatenated: Vec<u64> = a.iter().chain(&b).copied().collect();
        prop_assert_eq!(
            &ab,
            &hist_of(&concatenated),
            "merge must equal recording the union"
        );
    }
}

/// Runs `cfg` for `secs` with full telemetry and span tracing, asserts the
/// trace audit is clean, and checks the telescoping invariant: for *every*
/// retained request the component attributions sum to the end-to-end
/// latency exactly (the ISSUE's 1 ns acceptance bound, met with 0 ns
/// error by construction).
fn assert_decomposition_telescopes(cfg: &ScenarioConfig, secs: f64, min_requests: usize) {
    let mut sim = cfg.build().expect("config builds");
    sim.enable_telemetry(TelemetryConfig {
        breakdown_capacity: 1_000_000,
        ..TelemetryConfig::default()
    });
    sim.enable_span_tracing(4_000_000);
    sim.run_for(SimDuration::from_secs_f64(secs));
    let report = sim.audit_trace().expect("tracing enabled");
    assert!(report.is_clean(), "violations: {:#?}", report.violations);
    let breakdowns = sim.latency_breakdowns();
    assert!(
        breakdowns.len() >= min_requests,
        "only {} breakdowns retained",
        breakdowns.len()
    );
    for b in breakdowns {
        assert_eq!(
            b.total_ns(),
            b.e2e_ns(),
            "decomposition does not telescope: {b:?}"
        );
    }
}

#[test]
fn decomposition_sums_to_e2e_on_audited_single_tier_run() {
    let cfg = ScenarioConfig::from_json(EXAMPLE_SCENARIO).unwrap();
    assert_decomposition_telescopes(&cfg, 1.0, 500);
}

#[test]
fn decomposition_sums_to_e2e_on_audited_two_tier_run() {
    // The bundled two-tier scenario exercises connection pools (Blocking)
    // and multi-node request paths (per-hop Network charges).
    let text = include_str!("../../cli/configs/two_tier.json");
    let cfg = ScenarioConfig::from_json(text).unwrap();
    assert_decomposition_telescopes(&cfg, 1.0, 500);
}

#[test]
fn decomposition_sums_to_e2e_on_audited_social_network_run() {
    // The bundled social-network scenario adds fan-out/fan-in (FanInSync)
    // and blocking RPC threads.
    let text = include_str!("../../cli/configs/social_network.json");
    let cfg = ScenarioConfig::from_json(text).unwrap();
    assert_decomposition_telescopes(&cfg, 1.0, 1_000);
}

/// The oracle for sampler windows, rebuilt from the span log: one latency
/// per completed request (`RequestEmitted` → `RequestCompleted`, not timed
/// out, warmup included), binned into `[end - interval, end)` for each
/// window `end` and summarized with [`LatencySummary::from_samples`].
/// Also returns how many completions landed exactly on a window end.
fn span_log_windows(
    log: &TraceLog,
    ends: &[SimTime],
    interval: SimDuration,
) -> (Vec<LatencySummary>, usize) {
    let mut emitted = HashMap::new();
    let mut bins = vec![Vec::new(); ends.len()];
    let mut on_boundary = 0;
    for ev in log.events() {
        match *ev {
            TraceEvent::RequestEmitted { request, t, .. } => {
                emitted.insert(request, t);
            }
            TraceEvent::RequestCompleted {
                request,
                timed_out: false,
                t,
                ..
            } => {
                let latency = (t - emitted[&request]).as_secs_f64();
                if ends.contains(&t) {
                    on_boundary += 1;
                }
                if let Some(k) = ends.iter().position(|&end| t < end && t + interval >= end) {
                    bins[k].push(latency);
                }
            }
            _ => {}
        }
    }
    let summaries = bins
        .iter()
        .map(|b| LatencySummary::from_samples(b))
        .collect();
    (summaries, on_boundary)
}

/// Runs `cfg` for one second with the sampler at `interval` and the span
/// log on, and checks every sampler window bitwise against the span-log
/// oracle. Returns the number of completions that landed exactly on a
/// window end.
fn assert_windows_match_span_log(cfg: &ScenarioConfig, interval: SimDuration) -> usize {
    let mut sim = cfg.build().unwrap();
    sim.enable_telemetry(TelemetryConfig {
        sample_interval: Some(interval),
        ..TelemetryConfig::default()
    });
    sim.enable_span_tracing(1_000_000);
    sim.run_for(SimDuration::from_secs(1));
    let log = sim.span_log().unwrap();
    assert_eq!(log.dropped(), 0, "span log truncated");
    let tw = sim.telemetry_windows();
    assert!(tw.len() >= 15, "only {} sampler windows", tw.len());
    let ends: Vec<SimTime> = tw.iter().map(|w| w.end).collect();
    let (oracle, on_boundary) = span_log_windows(log, &ends, interval);
    for (k, (w, o)) in tw.iter().zip(&oracle).enumerate() {
        assert_eq!(w.count as usize, o.count, "window {k} count");
        assert_eq!(w.p50_s.to_bits(), o.p50.to_bits(), "window {k} p50");
        assert_eq!(w.p95_s.to_bits(), o.p95.to_bits(), "window {k} p95");
        assert_eq!(w.p99_s.to_bits(), o.p99.to_bits(), "window {k} p99");
        let throughput = o.count as f64 / interval.as_secs_f64();
        assert_eq!(
            w.throughput.to_bits(),
            throughput.to_bits(),
            "window {k} throughput"
        );
    }
    on_boundary
}

/// Sampler windows equal an independent oracle built from the span log,
/// bitwise, on a Poisson run and on a deterministic run whose completions
/// land exactly on window ends (those belong to the *next* window).
#[test]
fn telemetry_windows_match_span_log_oracle() {
    let interval = SimDuration::from_millis(50);
    let cfg = ScenarioConfig::from_json(EXAMPLE_SCENARIO).unwrap();
    assert_windows_match_span_log(&cfg, interval);

    // Constant service and network times under uniform arrivals: every
    // request takes the same latency, chosen so completions fall on the
    // 50 ms grid.
    let mut cfg = ScenarioConfig::from_json(EXAMPLE_SCENARIO).unwrap();
    cfg.machines[0].network.rx_time = Distribution::constant(20e-6);
    cfg.services[0].stages[0].service.per_job = Distribution::constant(BOUNDARY_PER_JOB_S);
    cfg.clients[0].arrivals = ArrivalProcess::Uniform {
        schedule: RateSchedule {
            segments: vec![(0.0, 2000.0)],
        },
    };
    let on_boundary = assert_windows_match_span_log(&cfg, interval);
    assert!(
        on_boundary > 0,
        "no completion landed on a window end; the boundary rule is untested"
    );
}

/// A run whose load stops well before the deadline must still produce a
/// gap-free sampler series up to the last tick before the deadline, with
/// explicit count-0 windows over the idle tail.
#[test]
fn idle_tail_emits_trailing_empty_windows() {
    let mut cfg = ScenarioConfig::from_json(EXAMPLE_SCENARIO).unwrap();
    // Deterministic arrivals that effectively stop at t=0.25s (the 0.01
    // qps tail means the next arrival lands 100 simulated seconds out).
    cfg.clients[0].arrivals = ArrivalProcess::Uniform {
        schedule: RateSchedule {
            segments: vec![(0.0, 2000.0), (0.25, 0.01)],
        },
    };
    let interval = SimDuration::from_millis(100);
    let mut sim = cfg.build().unwrap();
    sim.enable_telemetry(TelemetryConfig {
        sample_interval: Some(interval),
        ..TelemetryConfig::default()
    });
    sim.run_for(SimDuration::from_secs(1));

    // The sampler ticks at 0.1s..0.9s: the 1.0s tick lands exactly on the
    // deadline and is never processed.
    let tw = sim.telemetry_windows();
    assert_eq!(tw.len(), 9);
    assert!(tw[0].count > 0, "load phase produced no completions");
    for (k, w) in tw.iter().enumerate() {
        assert_eq!(
            w.end,
            SimTime::from_nanos(interval.as_nanos() * (k as u64 + 1)),
            "window {k} leaves a gap"
        );
    }
    for w in &tw[5..] {
        assert_eq!(w.count, 0, "idle sampler window at {:?}", w.end);
    }
}
