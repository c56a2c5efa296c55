//! The throughput sweep shared by Figures 5 and 8: traces × overestimation
//! × memory axis × policies, normalised against the baseline policy on a
//! fully provisioned system.

use crate::durable::{DurableError, DurableOptions, Fingerprint, Journaled};
use crate::runner::run_parallel;
use crate::scale::Scale;
use crate::scenario::{
    grizzly_bundle, grizzly_rep_workload, grizzly_system, median_response, memory_axis,
    norm_throughput, simulate, synthetic_system, synthetic_workload, BASE_SEED,
};
use dmhpc_core::cluster::{MemoryMix, TopologySpec};
use dmhpc_core::json::Object;
use dmhpc_core::policy::PolicySpec;
use dmhpc_core::sim::Workload;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

/// Which trace a sweep leg runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TraceSpec {
    /// The synthetic (CIRNE + Google + Archer) trace with the given
    /// fraction of large-memory jobs.
    Synthetic {
        /// Fraction of large-memory jobs in `[0,1]`.
        large_fraction: f64,
    },
    /// The Grizzly-derived trace (representative high-utilisation week).
    Grizzly,
}

impl TraceSpec {
    /// Label used in tables ("large 50%" / "grizzly").
    pub fn label(&self) -> String {
        match self {
            TraceSpec::Synthetic { large_fraction } => {
                format!("large {:.0}%", large_fraction * 100.0)
            }
            TraceSpec::Grizzly => "grizzly".to_string(),
        }
    }
}

/// One simulated point of the sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepPoint {
    /// Trace label (see [`TraceSpec::label`]).
    pub trace: String,
    /// Overestimation factor.
    pub overest: f64,
    /// Total system memory as a percent of the all-large system.
    pub mem_pct: u32,
    /// Allocation policy.
    pub policy: PolicySpec,
    /// Fabric topology the system ran on.
    pub topology: TopologySpec,
    /// Raw throughput in jobs/s.
    pub throughput_jps: f64,
    /// Whether every job could run (false ⇒ "missing bar").
    pub feasible: bool,
    /// Completed jobs.
    pub completed: u32,
    /// OOM kill events (dynamic policy).
    pub oom_kills: u32,
    /// Distinct jobs killed at least once for OOM.
    pub jobs_oom_killed: u32,
    /// Median response time of completed jobs, seconds.
    pub median_response_s: f64,
    /// Time-weighted fraction of allocated memory borrowed across rack
    /// boundaries (always 0 on flat).
    pub cross_rack_fraction: f64,
}

impl Journaled for SweepPoint {
    fn encode(&self) -> Object {
        let mut p = Object::new();
        p.push_str("trace", &self.trace);
        p.push_f64_bits("overest", self.overest);
        p.push_u64("mem_pct", self.mem_pct as u64);
        p.push_str("policy", &self.policy.to_string());
        p.push_str("topology", &self.topology.to_string());
        p.push_f64_bits("cross_rack_fraction", self.cross_rack_fraction);
        p.push_f64_bits("throughput_jps", self.throughput_jps);
        p.push_bool("feasible", self.feasible);
        p.push_u64("completed", self.completed as u64);
        p.push_u64("oom_kills", self.oom_kills as u64);
        p.push_u64("jobs_oom_killed", self.jobs_oom_killed as u64);
        p.push_f64_bits("median_response_s", self.median_response_s);
        p
    }

    fn decode(p: &Object) -> Result<Self, String> {
        Ok(SweepPoint {
            trace: p.str("trace")?.to_string(),
            overest: p.f64_bits("overest")?,
            mem_pct: p.u64("mem_pct")? as u32,
            policy: p
                .str("policy")?
                .parse::<PolicySpec>()
                .map_err(|e| e.to_string())?,
            topology: p
                .str("topology")?
                .parse::<TopologySpec>()
                .map_err(|e| e.to_string())?,
            cross_rack_fraction: p.f64_bits("cross_rack_fraction")?,
            throughput_jps: p.f64_bits("throughput_jps")?,
            feasible: p.bool("feasible")?,
            completed: p.u64("completed")? as u32,
            oom_kills: p.u64("oom_kills")? as u32,
            jobs_oom_killed: p.u64("jobs_oom_killed")? as u32,
            median_response_s: p.f64_bits("median_response_s")?,
        })
    }
}

/// A finished sweep with its normalisation references.
#[derive(Clone, Debug)]
pub struct ThroughputSweep {
    /// All simulated points.
    pub points: Vec<SweepPoint>,
}

impl ThroughputSweep {
    /// How many of the selected high-utilisation Grizzly weeks the sweep
    /// aggregates over. The paper simulates seven periods; three capture
    /// the week-to-week spread at a fraction of the cost (and reduced
    /// datasets may have fewer eligible weeks anyway).
    pub const GRIZZLY_WEEKS: usize = 3;

    /// Run the sweep over `policies` × `topologies` through the durable
    /// execution layer (`crate::durable`): each `(leg, mem, policy,
    /// topology)` point is fingerprinted, journaled to `opts.manifest`
    /// the moment it completes, isolated against panics, and skipped on
    /// resume when its outcome is already journaled. Simulated values
    /// do not depend on `opts` — the layer only decides *whether* a
    /// point runs, never how. Callers with no journal pass
    /// [`DurableOptions::default()`]; `label` names the run in the
    /// manifest header and on the progress line.
    ///
    /// `overs` must contain `0.0` and `policies` must contain
    /// [`PolicySpec::Baseline`]: normalisation is per `(trace,
    /// topology)` against Baseline at 100% memory and +0%
    /// overestimation *on that topology*, so topology legs compare
    /// policy effects, not raw fabric overhead.
    ///
    /// Grizzly points are the mean over up to [`Self::GRIZZLY_WEEKS`]
    /// selected weeks; a configuration counts as feasible only when every
    /// simulated week ran all its jobs (the paper's missing-bar rule).
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        label: &str,
        scale: Scale,
        traces: &[TraceSpec],
        overs: &[f64],
        threads: usize,
        policies: &[PolicySpec],
        topologies: &[TopologySpec],
        opts: &DurableOptions,
    ) -> Result<Self, DurableError> {
        assert!(
            policies.contains(&PolicySpec::Baseline),
            "sweep needs the baseline policy for normalisation"
        );
        assert!(
            overs.contains(&0.0),
            "sweep needs the 0% overestimation leg for normalisation"
        );
        assert!(!topologies.is_empty(), "sweep needs at least one topology");
        // Phase 1: build one workload per (trace, over, week), in
        // parallel. Synthetic legs have a single "week" (index 0).
        let needs_grizzly = traces.contains(&TraceSpec::Grizzly);
        let grizzly = needs_grizzly.then(|| grizzly_bundle(scale, BASE_SEED ^ 0x312));
        let n_weeks = grizzly
            .as_ref()
            .map(|(_, weeks)| weeks.len().min(Self::GRIZZLY_WEEKS))
            .unwrap_or(1)
            .max(1);
        let mut legs: Vec<(TraceSpec, f64, usize)> = Vec::new();
        for &t in traces {
            for &o in overs {
                match t {
                    TraceSpec::Synthetic { .. } => legs.push((t, o, 0)),
                    TraceSpec::Grizzly => {
                        for w in 0..n_weeks {
                            legs.push((t, o, w));
                        }
                    }
                }
            }
        }
        // Each workload is built exactly once and shared via `Arc`:
        // every (mem, policy) point of a leg reads the same jobs and
        // profile pool instead of receiving a deep copy.
        let workloads: Vec<Arc<Workload>> =
            run_parallel(legs.clone(), threads, |&(t, o, week)| match t {
                TraceSpec::Synthetic { large_fraction } => Arc::new(synthetic_workload(
                    scale,
                    large_fraction,
                    o,
                    BASE_SEED ^ 0x51,
                )),
                TraceSpec::Grizzly => {
                    let (ds, weeks) = grizzly.as_ref().expect("grizzly built");
                    Arc::new(grizzly_rep_workload(
                        ds,
                        &weeks[week..],
                        o,
                        BASE_SEED ^ 0x312,
                    ))
                }
            });
        // Phase 2: simulate every (leg, mem, policy, topology) point.
        let axis = memory_axis();
        let mut tasks: Vec<(usize, u32, MemoryMix, PolicySpec, TopologySpec)> = Vec::new();
        for (leg_idx, _) in legs.iter().enumerate() {
            for &(pct, mix) in &axis {
                for &policy in policies {
                    for &topo in topologies {
                        tasks.push((leg_idx, pct, mix, policy, topo));
                    }
                }
            }
        }
        // Fingerprint every point over everything that decides its
        // result: scale, trace, overestimation bits, week, memory
        // point, policy spec, topology spec, and the derived simulation
        // seed.
        let fps: Vec<String> = tasks
            .iter()
            .map(|&(leg_idx, pct, _mix, policy, topo)| {
                let (trace, over, week) = legs[leg_idx];
                Fingerprint::new("sweep-point")
                    .field("scale", scale.label())
                    .field("trace", &trace.label())
                    .field_bits("overest", over)
                    .field_u64("week", week as u64)
                    .field_u64("mem_pct", pct as u64)
                    .field("policy", &policy.to_string())
                    .field("topology", &topo.to_string())
                    .field_hex("seed", BASE_SEED ^ ((leg_idx as u64) << 8) ^ pct as u64)
                    .finish()
            })
            .collect();
        let raw = crate::durable::run_durable(
            label,
            tasks,
            fps,
            threads,
            opts,
            |&(leg_idx, pct, mix, policy, topo)| {
                let (trace, over, _week) = legs[leg_idx];
                let system = match trace {
                    TraceSpec::Synthetic { .. } => synthetic_system(scale, mix),
                    TraceSpec::Grizzly => {
                        grizzly_system(mix, &grizzly.as_ref().expect("grizzly built").0)
                    }
                }
                .with_topology(topo);
                let mut out = simulate(
                    system,
                    Arc::clone(&workloads[leg_idx]),
                    policy,
                    BASE_SEED ^ ((leg_idx as u64) << 8) ^ pct as u64,
                );
                let median = median_response(&mut out.response_times_s);
                SweepPoint {
                    trace: trace.label(),
                    overest: over,
                    mem_pct: pct,
                    policy,
                    topology: topo,
                    throughput_jps: out.stats.throughput_jps,
                    feasible: out.feasible,
                    completed: out.stats.completed,
                    oom_kills: out.stats.oom_kills,
                    jobs_oom_killed: out.stats.jobs_oom_killed,
                    median_response_s: median,
                    cross_rack_fraction: out.stats.avg_cross_rack_fraction,
                }
            },
        )?;
        // Phase 3: aggregate multi-week legs into one point per
        // (trace, over, mem, policy). All weeks of one trace share the
        // same normalisation reference, so averaging raw throughputs is
        // averaging normalised ones.
        Ok(Self {
            points: aggregate(raw),
        })
    }

    /// The normalisation reference for a `(trace, topology)` pair:
    /// Baseline throughput at 100% memory and +0% overestimation *on
    /// that topology*. Per-topology references keep topology legs
    /// comparing policy effects rather than raw fabric overhead.
    pub fn reference_jps(&self, trace: &str, topology: TopologySpec) -> Option<f64> {
        self.points
            .iter()
            .find(|p| {
                p.trace == trace
                    && p.overest == 0.0
                    && p.mem_pct == 100
                    && p.policy == PolicySpec::Baseline
                    && p.topology == topology
                    && p.feasible
            })
            .map(|p| p.throughput_jps)
    }

    /// Normalised throughput of a point, `None` for missing bars.
    pub fn normalized(&self, p: &SweepPoint) -> Option<f64> {
        let reference = self.reference_jps(&p.trace, p.topology)?;
        if !p.feasible {
            return None;
        }
        norm_throughput(&fake_outcome(p.throughput_jps, p.feasible), reference)
    }

    /// Points matching a `(trace, overest)` leg, in memory-axis order.
    /// Spans every topology the sweep ran; single-topology sweeps are
    /// unaffected.
    pub fn leg<'a>(&'a self, trace: &'a str, overest: f64) -> impl Iterator<Item = &'a SweepPoint> {
        self.points
            .iter()
            .filter(move |p| p.trace == trace && p.overest == overest)
    }

    /// The distinct topologies in this sweep, in first-seen order.
    pub fn topologies(&self) -> Vec<TopologySpec> {
        let mut out: Vec<TopologySpec> = Vec::new();
        for p in &self.points {
            if !out.contains(&p.topology) {
                out.push(p.topology);
            }
        }
        out
    }
}

/// Aggregation key of one raw sweep point. The overestimation factor is
/// keyed by its bit pattern — legs copy one `f64` around and never
/// recompute it, so equal legs are bit-equal — and the policy by its
/// canonical display form, which is injective over registered specs
/// (`PolicySpec` carries `f64` parameters, so it cannot derive `Hash`
/// itself).
type AggKey = (String, u64, u32, String, String);

fn agg_key(p: &SweepPoint) -> AggKey {
    (
        p.trace.clone(),
        p.overest.to_bits(),
        p.mem_pct,
        p.policy.to_string(),
        p.topology.to_string(),
    )
}

/// Fold raw per-week points into one point per `(trace, overest,
/// mem_pct, policy, topology)`, preserving first-seen order. The fold target is
/// found through a `HashMap` in O(1) per raw point; the previous
/// per-point linear `position` scan made aggregation quadratic in sweep
/// size (~2.9M comparisons for a full two-trace sweep). The merge
/// arithmetic is untouched, so output is bit-identical to the linear
/// version — pinned by `hashmap_aggregation_matches_linear_reference`.
pub(crate) fn aggregate(raw: Vec<SweepPoint>) -> Vec<SweepPoint> {
    let mut points: Vec<SweepPoint> = Vec::new();
    let mut counts: Vec<u32> = Vec::new();
    let mut index: HashMap<AggKey, usize> = HashMap::with_capacity(raw.len());
    for p in raw {
        match index.entry(agg_key(&p)) {
            Entry::Occupied(e) => {
                let i = *e.get();
                let q = &mut points[i];
                let k = counts[i] as f64;
                q.throughput_jps = (q.throughput_jps * k + p.throughput_jps) / (k + 1.0);
                q.median_response_s = (q.median_response_s * k + p.median_response_s) / (k + 1.0);
                q.cross_rack_fraction =
                    (q.cross_rack_fraction * k + p.cross_rack_fraction) / (k + 1.0);
                q.feasible &= p.feasible;
                q.completed += p.completed;
                q.oom_kills += p.oom_kills;
                q.jobs_oom_killed += p.jobs_oom_killed;
                counts[i] += 1;
            }
            Entry::Vacant(e) => {
                e.insert(points.len());
                points.push(p);
                counts.push(1);
            }
        }
    }
    points
}

/// Minimal outcome wrapper so normalisation flows through the same
/// `norm_throughput` helper as ad-hoc runs.
fn fake_outcome(jps: f64, feasible: bool) -> dmhpc_core::sim::SimulationOutcome {
    dmhpc_core::sim::SimulationOutcome {
        stats: dmhpc_core::sim::Stats {
            throughput_jps: jps,
            ..Default::default()
        },
        response_times_s: vec![],
        wait_times_s: vec![],
        job_records: vec![],
        feasible,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A flat, unjournaled sweep of one synthetic trace.
    fn synthetic(
        large_fraction: f64,
        overs: &[f64],
        threads: usize,
        policies: &[PolicySpec],
    ) -> ThroughputSweep {
        ThroughputSweep::run(
            "sweep",
            Scale::Small,
            &[TraceSpec::Synthetic { large_fraction }],
            overs,
            threads,
            policies,
            &[TopologySpec::Flat],
            &DurableOptions::default(),
        )
        .unwrap()
    }

    #[test]
    fn small_sweep_has_reference_and_ordering() {
        let sweep = synthetic(0.5, &[0.0], 0, &PolicySpec::all_default());
        // 8 memory points × 6 registered policies.
        assert_eq!(sweep.points.len(), 48);
        let reference = sweep
            .reference_jps("large 50%", TopologySpec::Flat)
            .expect("reference exists");
        assert!(reference > 0.0);
        // Normalised baseline at 100% is exactly 1.
        let base100 = sweep
            .points
            .iter()
            .find(|p| p.policy == PolicySpec::Baseline && p.mem_pct == 100)
            .unwrap();
        assert!((sweep.normalized(base100).unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn policy_subset_sweep_runs_only_those_policies() {
        let policies = [PolicySpec::Baseline, PolicySpec::Overcommit { factor: 0.8 }];
        let sweep = synthetic(0.5, &[0.0], 0, &policies);
        // 8 memory points × 2 policies.
        assert_eq!(sweep.points.len(), 16);
        assert!(sweep.points.iter().all(|p| policies.contains(&p.policy)));
    }

    #[test]
    #[should_panic(expected = "baseline policy")]
    fn sweep_requires_baseline_policy() {
        synthetic(0.0, &[0.0], 1, &[PolicySpec::Dynamic]);
    }

    #[test]
    #[should_panic(expected = "0% overestimation")]
    fn sweep_requires_zero_leg() {
        synthetic(0.0, &[0.6], 1, &PolicySpec::all_default());
    }

    /// The linear-scan aggregation `aggregate` replaced, kept verbatim
    /// as the oracle for the bit-identity golden.
    fn aggregate_linear_reference(raw: Vec<SweepPoint>) -> Vec<SweepPoint> {
        let mut points: Vec<SweepPoint> = Vec::new();
        let mut counts: Vec<u32> = Vec::new();
        for p in raw {
            if let Some(i) = points.iter().position(|q| {
                q.trace == p.trace
                    && q.overest == p.overest
                    && q.mem_pct == p.mem_pct
                    && q.policy == p.policy
                    && q.topology == p.topology
            }) {
                let q = &mut points[i];
                let k = counts[i] as f64;
                q.throughput_jps = (q.throughput_jps * k + p.throughput_jps) / (k + 1.0);
                q.median_response_s = (q.median_response_s * k + p.median_response_s) / (k + 1.0);
                q.cross_rack_fraction =
                    (q.cross_rack_fraction * k + p.cross_rack_fraction) / (k + 1.0);
                q.feasible &= p.feasible;
                q.completed += p.completed;
                q.oom_kills += p.oom_kills;
                q.jobs_oom_killed += p.jobs_oom_killed;
                counts[i] += 1;
            } else {
                points.push(p);
                counts.push(1);
            }
        }
        points
    }

    /// Raw points shaped like a real multi-week sweep: grizzly legs
    /// repeat each (overest, mem, policy, topology) cell once per week with
    /// week-dependent values, interleaved with single-week synthetic
    /// legs, in the exact leg-major order phase 2 emits.
    fn multiweek_raw() -> Vec<SweepPoint> {
        let policies = PolicySpec::all_default();
        let topologies = [TopologySpec::Flat, "racks:size=4".parse().unwrap()];
        let mut raw = Vec::new();
        let mut salt = 0u32;
        for (trace, weeks) in [("grizzly", 3usize), ("large 50%", 1)] {
            for over in [0.0, 0.6] {
                for week in 0..weeks {
                    for mem_pct in [37u32, 62, 100] {
                        for &policy in &policies {
                            for topology in topologies {
                                salt += 1;
                                raw.push(SweepPoint {
                                    trace: trace.to_string(),
                                    overest: over,
                                    mem_pct,
                                    policy,
                                    topology,
                                    throughput_jps: 0.017 * (salt as f64) + week as f64,
                                    feasible: !salt.is_multiple_of(7),
                                    completed: 100 + salt,
                                    oom_kills: salt % 5,
                                    jobs_oom_killed: salt % 3,
                                    median_response_s: 3600.0 / salt as f64,
                                    cross_rack_fraction: (salt % 11) as f64 / 100.0,
                                });
                            }
                        }
                    }
                }
            }
        }
        raw
    }

    #[test]
    fn hashmap_aggregation_matches_linear_reference() {
        let raw = multiweek_raw();
        let fast = aggregate(raw.clone());
        let slow = aggregate_linear_reference(raw);
        // Bit-identical: same order, same f64 bits, same counters.
        assert_eq!(fast.len(), slow.len());
        for (f, s) in fast.iter().zip(&slow) {
            assert_eq!(f, s);
            assert_eq!(
                f.throughput_jps.to_bits(),
                s.throughput_jps.to_bits(),
                "{} {} {} {}",
                f.trace,
                f.overest,
                f.mem_pct,
                f.policy
            );
            assert_eq!(f.median_response_s.to_bits(), s.median_response_s.to_bits());
        }
        // Three grizzly weeks folded into one point per cell: 2 traces ×
        // 2 overs × 3 mem × 6 policies × 2 topologies.
        assert_eq!(fast.len(), 144);
    }

    #[test]
    fn journal_payload_round_trips_and_needs_topology() {
        for p in multiweek_raw() {
            assert_eq!(SweepPoint::decode(&p.encode()).unwrap(), p);
            // Every field is required: a payload that lacks the
            // topology or the cross-rack fraction does not decode.
            for key in ["topology", "cross_rack_fraction"] {
                let json = p.encode().to_json();
                let renamed = json.replace(&format!("\"{key}\""), "\"renamed\"");
                let payload = dmhpc_core::json::parse_object(&renamed).unwrap();
                let err = SweepPoint::decode(&payload).unwrap_err();
                assert_eq!(err, format!("missing field \"{key}\""));
            }
        }
    }

    #[test]
    fn aggregation_preserves_first_seen_order() {
        let raw = multiweek_raw();
        let first_seen: Vec<AggKey> = {
            let mut seen = Vec::new();
            for p in &raw {
                let k = agg_key(p);
                if !seen.contains(&k) {
                    seen.push(k);
                }
            }
            seen
        };
        let folded = aggregate(raw);
        let got: Vec<AggKey> = folded.iter().map(agg_key).collect();
        assert_eq!(got, first_seen);
    }

    #[test]
    fn trace_labels() {
        assert_eq!(
            TraceSpec::Synthetic {
                large_fraction: 0.25
            }
            .label(),
            "large 25%"
        );
        assert_eq!(TraceSpec::Grizzly.label(), "grizzly");
    }
}
