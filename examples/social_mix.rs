//! The full social network with the paper's complete action set: reads
//! (cache hit and miss), composes (writes), and profile browses — plus the
//! observability features: per-request-type latency breakdowns and sampled
//! distributed-style traces built from the span log.
//!
//! ```text
//! cargo run --release -p uqsim-examples --example social_mix
//! ```

use std::collections::{BTreeMap, HashMap};
use uqsim_apps::scenarios::{social_network_full, SocialNetworkFullConfig};
use uqsim_core::ids::{InstanceId, PathNodeId, RequestId, RequestTypeId};
use uqsim_core::time::{SimDuration, SimTime};
use uqsim_core::trace::{TraceEvent, TraceLog};

/// Every this-many-th completion is shown as a sampled trace …
const SAMPLE_EVERY: usize = 2_000;
/// … up to this many traces.
const MAX_TRACES: usize = 4;
/// Span-log capacity: the sampled completions need ~150 events per request.
const LOG_CAPACITY: usize = 1_400_000;

/// One sampled request: its type, emission and completion times, and per
/// path node the `enter → NodeDone` interval at the executing instance.
struct SampledTrace {
    ty: RequestTypeId,
    submitted: SimTime,
    completed: SimTime,
    nodes: BTreeMap<PathNodeId, (SimTime, SimTime, InstanceId)>,
}

/// Picks every `SAMPLE_EVERY`-th completion from the log and rebuilds its
/// per-node spans: a node is entered at its first stage enqueue and left at
/// its `NodeDone`.
fn sample_traces(log: &TraceLog) -> Vec<SampledTrace> {
    let mut emitted: HashMap<RequestId, SimTime> = HashMap::new();
    let mut sampled: HashMap<RequestId, SampledTrace> = HashMap::new();
    let mut order = Vec::new();
    let mut completions = 0;
    for ev in log.events() {
        match *ev {
            TraceEvent::RequestEmitted { request, t, .. } => {
                emitted.insert(request, t);
            }
            TraceEvent::RequestCompleted {
                request,
                request_type,
                t,
                ..
            } => {
                completions += 1;
                if completions % SAMPLE_EVERY == 0 && order.len() < MAX_TRACES {
                    sampled.insert(
                        request,
                        SampledTrace {
                            ty: request_type,
                            submitted: emitted[&request],
                            completed: t,
                            nodes: BTreeMap::new(),
                        },
                    );
                    order.push(request);
                }
            }
            _ => {}
        }
    }
    let mut entered: HashMap<(RequestId, PathNodeId), SimTime> = HashMap::new();
    for ev in log.events() {
        match *ev {
            TraceEvent::Enqueue {
                request, node, t, ..
            } if sampled.contains_key(&request) => {
                entered.entry((request, node)).or_insert(t);
            }
            TraceEvent::NodeDone {
                request,
                node,
                instance,
                t,
                ..
            } => {
                if let Some(trace) = sampled.get_mut(&request) {
                    let enter = entered[&(request, node)];
                    trace.nodes.insert(node, (enter, t, instance));
                }
            }
            _ => {}
        }
    }
    order
        .iter()
        .map(|r| sampled.remove(r).expect("sampled"))
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = SocialNetworkFullConfig::at_qps(3_500.0);
    let mut sim = social_network_full(&cfg)?;
    sim.enable_span_tracing(LOG_CAPACITY);
    sim.run_for(SimDuration::from_secs(5));

    println!("mix: 65% read, 15% read-miss, 15% compose, 5% browse @ 3.5 kQPS\n");
    println!(
        "{:>16} {:>8} {:>9} {:>9} {:>9}",
        "request type", "count", "mean_us", "p50_us", "p99_us"
    );
    for name in ["read_post", "read_post_miss", "compose_post", "browse_user"] {
        let ty = sim.request_type_by_name(name).expect("type registered");
        let s = sim.type_latency_summary(ty);
        println!(
            "{:>16} {:>8} {:>9.0} {:>9.0} {:>9.0}",
            name,
            s.count,
            s.mean * 1e6,
            s.p50 * 1e6,
            s.p99 * 1e6
        );
    }

    println!("\nper-tier p99 residency (us):");
    for name in ["frontend", "user", "post", "media", "mongod", "disk"] {
        let id = sim.instance_by_name(name).expect("tier deployed");
        println!(
            "  {:>9}: {:>8.0}",
            name,
            sim.instance_residency(id).p99 * 1e6
        );
    }

    println!("\nsampled traces (one span per path node):");
    let meta = sim.trace_meta();
    let log = sim.span_log().expect("span tracing enabled");
    for t in sample_traces(log) {
        let ty = &meta.request_types[t.ty.index()];
        println!(
            "  {} [{:.0}us total]",
            ty.name,
            (t.completed - t.submitted).as_micros_f64()
        );
        for (node, (enter, exit, instance)) in &t.nodes {
            println!(
                "    {:>10} @ {:<10} {:>7.0}us",
                ty.nodes[node.index()],
                meta.instances[instance.index()].name,
                (*exit - *enter).as_micros_f64()
            );
        }
    }
    println!("\nCache misses pay a ~2.5ms disk read inside the post service's blocked worker;");
    println!("watch read_post_miss's p50 sit milliseconds above read_post's.");
    Ok(())
}
