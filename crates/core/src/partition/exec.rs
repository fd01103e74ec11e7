//! The partitioned execution engine: cells on shards, merged.
//!
//! Spec: DESIGN.md §11.1 ("Execution"). [`run_partitioned`] is the one
//! way every command runs a scenario: it splits the scenario into cells,
//! assigns them to shards, runs every cell through the same run sequence
//! as [`run_one_faulted`](crate::run::run_one_faulted), and merges the
//! per-cell outputs deterministically. The shard count (and the worker
//! scheduling under it) affects wall-clock time only — never a single
//! output byte.

use std::collections::HashSet;

use minipool::Pool;
use serde::Value;

use crate::config::ScenarioConfig;
use crate::error::{SimError, SimResult};
use crate::fault::{FaultPlan, FaultSpec};
use crate::run::{simulate, RunResult};
use crate::telemetry::{MetricsRegistry, StreamingHistogram, TelemetryConfig};
use crate::time::SimDuration;
use crate::trace::{AuditReport, TraceLog, TraceMeta};

use super::graph::split_fault_plan;
use super::merge::{
    merge_audits, merge_chrome_traces, merge_csv, merge_json, merge_registries, merge_results,
};
use super::plan::{cell_seed, PartitionPlan};

/// Knobs for a partitioned run. Only [`PartitionOptions::shards`] affects
/// scheduling; everything else selects what each cell records, and is
/// applied identically to every cell.
#[derive(Debug, Clone)]
pub struct PartitionOptions {
    /// Worker shards to spread cells over (`0` is treated as `1`).
    pub shards: usize,
    /// Telemetry installed on every cell. Left at
    /// [`TelemetryConfig::default()`], no telemetry layer is installed at
    /// all (the run summary needs none); setting any field — the sampler
    /// interval, [`TelemetryConfig::critpath`], … — installs it.
    /// [`TelemetryConfig::self_profile`] is forcibly disabled: wall-clock
    /// samples are inherently nondeterministic and would break the
    /// byte-identical-output guarantee.
    pub telemetry: TelemetryConfig,
    /// Span-log capacity per cell; `Some` enables span tracing (and with
    /// it the merged Chrome trace and audit report).
    pub span_tracing: Option<usize>,
}

impl PartitionOptions {
    /// Options for a plain `shards`-way run that records the run summary
    /// only: no telemetry, no span tracing.
    pub fn with_shards(shards: usize) -> Self {
        PartitionOptions {
            shards: shards.max(1),
            telemetry: TelemetryConfig::default(),
            span_tracing: None,
        }
    }
}

impl Default for PartitionOptions {
    fn default() -> Self {
        PartitionOptions::with_shards(1)
    }
}

/// Everything one cell produced: its run summary plus the raw material
/// (samples, histograms, registry, exports) the `merge` layer needs to
/// reassemble cluster-level outputs losslessly.
#[derive(Debug, Clone)]
pub struct CellOutput {
    /// Cell index (position in [`PartitionPlan::cells`]).
    pub cell: usize,
    /// Shard that executed the cell (diagnostic only — results never
    /// depend on it).
    pub shard: usize,
    /// Machines the cell owns (sizes the Chrome-trace pid space).
    pub machines: usize,
    /// Instances the cell owns (weights the utilization merge).
    pub instances: usize,
    /// Machines with irq cores (weights the network-utilization merge).
    pub irq_machines: usize,
    /// The cell's run summary: under the master seed when the plan has
    /// one cell, under its derived [`cell_seed`] otherwise.
    pub result: RunResult,
    /// Degraded completions inside the measurement window (the goodput
    /// subtrahend; re-aggregated by [`merge_results`]).
    pub degraded_measured: u64,
    /// Raw post-warmup latency samples, seconds, in completion order.
    pub latency_samples: Vec<f64>,
    /// Raw timeout-latency samples, seconds, in deadline order.
    pub timeout_samples: Vec<f64>,
    /// The cell's Prometheus registry.
    pub registry: MetricsRegistry,
    /// The cell's e2e latency histogram (when telemetry is enabled).
    pub e2e_hist: Option<StreamingHistogram>,
    /// The cell's per-component latency histograms (when telemetry is
    /// enabled), in [`LatencyComponent`](crate::telemetry::LatencyComponent)
    /// order.
    pub comp_hists: Option<Vec<StreamingHistogram>>,
    /// The cell's time-series CSV (when the sampler is enabled).
    pub csv: Option<String>,
    /// The cell's full `metrics_json` dump.
    pub json: Value,
    /// The cell's span log (when span tracing is enabled). A nonzero
    /// [`TraceLog::dropped`] means the audit and Chrome trace are
    /// incomplete — raise the per-cell capacity.
    pub span_log: Option<TraceLog>,
    /// Entity names for rendering the span log (when span tracing is
    /// enabled).
    pub trace_meta: Option<TraceMeta>,
    /// The cell's audit report (when span tracing is enabled).
    pub audit: Option<AuditReport>,
}

impl CellOutput {
    /// Span events this cell dropped because its log filled up (`0` when
    /// tracing is off).
    pub fn span_dropped(&self) -> u64 {
        self.span_log.as_ref().map_or(0, TraceLog::dropped)
    }
}

/// A completed partitioned run: the merged cluster-level summary plus the
/// per-cell outputs and the plan that produced them.
#[derive(Debug, Clone)]
pub struct PartitionedRun {
    /// Cluster-level summary (master seed, merged per [`merge_results`]).
    pub result: RunResult,
    /// Per-cell outputs, in cell order.
    pub cells: Vec<CellOutput>,
    /// Shard count the run used.
    pub shards: usize,
    /// `assignment[cell] = shard` (diagnostic only).
    pub assignment: Vec<usize>,
}

impl PartitionedRun {
    /// The merged Prometheus exposition (byte-identical at any shard
    /// count).
    pub fn prometheus(&self) -> String {
        merge_registries(&self.cells).to_prometheus()
    }

    /// The merged time-series CSV, or `None` when the sampler was off.
    pub fn csv(&self) -> Option<String> {
        merge_csv(&self.cells)
    }

    /// The merged JSON metrics dump (the cell's own dump for a one-cell
    /// run; a cluster header plus per-cell dumps otherwise).
    pub fn json(&self) -> Value {
        merge_json(&self.result, &self.cells)
    }

    /// The merged Chrome trace, or `None` when span tracing was off.
    pub fn chrome_trace(&self) -> Option<Value> {
        merge_chrome_traces(&self.cells)
    }

    /// The merged audit report, or `None` when span tracing was off.
    pub fn audit(&self) -> Option<AuditReport> {
        merge_audits(&self.cells)
    }
}

/// Rejects fault-plan references that no cell will claim, with the same
/// [`SimError::UnknownEntity`] the unsharded
/// [`Simulator::install_faults`](crate::sim::Simulator::install_faults)
/// raises — per-cell plans are *filtered*, so without this check a
/// misspelled entity name would silently vanish instead of erroring.
fn validate_fault_plan(cfg: &ScenarioConfig, plan: &FaultPlan) -> SimResult<()> {
    let instances: HashSet<&str> = cfg.instances.iter().map(|i| i.name.as_str()).collect();
    let machines: HashSet<&str> = cfg.machines.iter().map(|m| m.name.as_str()).collect();
    let clients: HashSet<&str> = cfg.clients.iter().map(|c| c.name.as_str()).collect();
    let unknown = |kind: &'static str, name: &str| SimError::UnknownEntity {
        kind,
        name: name.to_string(),
    };
    for spec in &plan.faults {
        match spec {
            FaultSpec::InstanceCrash { instance, .. }
            | FaultSpec::PoolLeak { up: instance, .. } => {
                if !instances.contains(instance.as_str()) {
                    return Err(unknown("instance", instance));
                }
            }
            FaultSpec::MachineSlowdown { machine, .. }
            | FaultSpec::NetworkDegrade { machine, .. } => {
                if !machines.contains(machine.as_str()) {
                    return Err(unknown("machine", machine));
                }
            }
        }
    }
    for p in &plan.policy.clients {
        if !clients.contains(p.client.as_str()) {
            return Err(unknown("client", &p.client));
        }
    }
    Ok(())
}

/// Runs one cell through the shared run sequence and collects what the
/// merges need (see [`run_partitioned`]).
fn run_cell(
    plan: &PartitionPlan,
    cell: usize,
    shard: usize,
    faults: Option<&FaultPlan>,
    master_seed: u64,
    duration: SimDuration,
    opts: &PartitionOptions,
) -> SimResult<CellOutput> {
    let spec = &plan.cells[cell];
    // A one-cell plan *is* the scenario: it keeps the master seed, so its
    // outputs equal an unpartitioned run's byte for byte.
    let seed = if plan.cells.len() == 1 {
        master_seed
    } else {
        cell_seed(master_seed, cell as u64)
    };
    let cfg = spec.config.with_seed(seed);
    // Install the plan even when the filtered slice is empty: its presence
    // changes which metric families the registry emits, and every cell
    // must stay structurally congruent for the merge.
    let cell_faults = faults.map(|p| split_fault_plan(p, spec));
    let mut telemetry = opts.telemetry;
    telemetry.self_profile = false;
    let telemetry = (telemetry != TelemetryConfig::default()).then_some(telemetry);
    let (mut sim, result) = simulate(
        &cfg,
        cell_faults.as_ref(),
        duration,
        telemetry,
        opts.span_tracing,
    )?;
    Ok(CellOutput {
        cell,
        shard,
        machines: cfg.machines.len(),
        instances: cfg.instances.len(),
        irq_machines: cfg
            .machines
            .iter()
            .filter(|m| m.network.irq_cores > 0)
            .count(),
        degraded_measured: sim.degraded_measured(),
        registry: sim.metrics_registry(),
        e2e_hist: sim.e2e_latency_histogram().cloned(),
        comp_hists: sim.component_latency_histograms().map(<[_]>::to_vec),
        csv: sim.metrics_csv(),
        json: sim.metrics_json(),
        audit: sim.audit_trace(),
        trace_meta: sim.span_log().map(|_| sim.trace_meta()),
        // Moved out last: the exports above still read them.
        span_log: sim.take_span_log(),
        latency_samples: sim.e2e.take_samples(),
        timeout_samples: sim.e2e_timeout.take_samples(),
        result,
    })
}

/// Runs `cfg` partitioned across `opts.shards` worker threads and merges
/// the per-cell outputs into cluster-level results.
///
/// The scenario is split into request-closed cells
/// ([`split_cells`](crate::partition::split_cells)), each cell runs as an
/// independent simulator under its [`cell_seed`], shards execute cells in
/// parallel, and every output — run summary, Prometheus text, CSV, JSON,
/// Chrome trace, audit, chaos summary — is merged in cell order. **The
/// merged outputs are byte-identical at any `shards` value**, faulted or
/// not; see the module docs and DESIGN.md §11 for the argument.
///
/// A scenario that forms a single cell runs under the master seed and its
/// merge is the identity, so its outputs equal
/// [`run_one_faulted`](crate::run::run_one_faulted)'s (with the same
/// observers) byte for byte.
///
/// # Errors
///
/// Propagates cell-construction failures and fault-plan references to
/// unknown entities (checked against the whole scenario before any cell
/// runs, so a typo errors rather than silently filtering away). When
/// several cells fail, the lowest-numbered cell's error wins,
/// deterministically.
///
/// # Examples
///
/// ```
/// use uqsim_core::config::ScenarioConfig;
/// use uqsim_core::partition::{run_partitioned, PartitionOptions};
/// use uqsim_core::time::SimDuration;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cfg = ScenarioConfig::from_json(uqsim_core::run::EXAMPLE_SCENARIO)?;
/// let run = run_partitioned(
///     &cfg,
///     None,
///     7,
///     SimDuration::from_millis(400),
///     &PartitionOptions::with_shards(2),
/// )?;
/// assert!(run.result.completed > 0);
/// assert_eq!(run.cells.len(), 1); // the example scenario is one cell
/// # Ok(())
/// # }
/// ```
pub fn run_partitioned(
    cfg: &ScenarioConfig,
    faults: Option<&FaultPlan>,
    seed: u64,
    duration: SimDuration,
    opts: &PartitionOptions,
) -> SimResult<PartitionedRun> {
    if let Some(plan) = faults {
        validate_fault_plan(cfg, plan)?;
    }
    let plan = PartitionPlan::new(cfg, opts.shards)?;
    let plan_ref = &plan;
    let tasks: Vec<_> = (0..plan.shards)
        .map(|s| {
            move || -> Vec<(usize, SimResult<CellOutput>)> {
                plan_ref
                    .shard_cells(s)
                    .into_iter()
                    .map(|cell| {
                        (
                            cell,
                            run_cell(plan_ref, cell, s, faults, seed, duration, opts),
                        )
                    })
                    .collect()
            }
        })
        .collect();
    let pool = Pool::new(plan.shards.min(plan.cells.len().max(1)));
    let mut outputs: Vec<(usize, SimResult<CellOutput>)> =
        pool.run(tasks).into_iter().flatten().collect();
    outputs.sort_by_key(|&(cell, _)| cell);
    let mut cells = Vec::with_capacity(outputs.len());
    for (_, out) in outputs {
        cells.push(out?);
    }
    let result = merge_results(seed, &cells);
    Ok(PartitionedRun {
        result,
        cells,
        shards: plan.shards,
        assignment: plan.assignment,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::EXAMPLE_SCENARIO;

    #[test]
    fn unknown_fault_entities_error_before_any_cell_runs() {
        let cfg = ScenarioConfig::from_json(EXAMPLE_SCENARIO).unwrap();
        let plan = FaultPlan::from_json(
            r#"{ "faults": [ { "kind": "instance_crash",
                 "instance": "nope", "at_s": 0.1 } ] }"#,
        )
        .unwrap();
        let err = run_partitioned(
            &cfg,
            Some(&plan),
            1,
            SimDuration::from_millis(100),
            &PartitionOptions::with_shards(2),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            SimError::UnknownEntity {
                kind: "instance",
                ..
            }
        ));
    }

    #[test]
    fn shard_count_never_changes_the_merged_result() {
        let cfg = ScenarioConfig::from_json(EXAMPLE_SCENARIO).unwrap();
        let d = SimDuration::from_millis(300);
        let one = run_partitioned(&cfg, None, 5, d, &PartitionOptions::with_shards(1)).unwrap();
        let four = run_partitioned(&cfg, None, 5, d, &PartitionOptions::with_shards(4)).unwrap();
        assert_eq!(one.result, four.result);
        assert_eq!(one.prometheus(), four.prometheus());
    }
}
