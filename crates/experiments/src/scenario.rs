//! Shared scenario construction: systems, workloads, Grizzly bundles and
//! normalisation — the vocabulary every per-figure experiment speaks.

use crate::scale::Scale;
use dmhpc_core::cluster::MemoryMix;
use dmhpc_core::config::SystemConfig;
use dmhpc_core::policy::PolicySpec;
use dmhpc_core::sim::{SimBuilder, SimulationOutcome, Workload};
use dmhpc_model::rng::Rng64;
use dmhpc_traces::grizzly::GrizzlyDataset;
use dmhpc_traces::workload::{grizzly_workload, WorkloadBuilder};
use dmhpc_traces::CirneModel;
use std::sync::Arc;

/// Base seed for all experiments; combined with per-experiment offsets.
pub const BASE_SEED: u64 = 0xD15A_66E6;

/// The eight memory-axis points of Figures 5 and 8, `(percent, mix)`.
pub fn memory_axis() -> Vec<(u32, MemoryMix)> {
    MemoryMix::paper_axis()
}

/// The synthetic-trace system at this scale with the given mix.
pub fn synthetic_system(scale: Scale, mix: MemoryMix) -> SystemConfig {
    SystemConfig::with_nodes(scale.synthetic_nodes()).with_memory_mix(mix)
}

/// Build the synthetic workload for `(large_fraction, overestimation)` at
/// this scale. The workload depends only on these parameters (plus the
/// scale and seed), never on the memory mix being simulated, so one
/// workload serves the whole memory axis and all three policies.
pub fn synthetic_workload(
    scale: Scale,
    large_fraction: f64,
    overestimation: f64,
    seed: u64,
) -> Workload {
    let cirne = CirneModel {
        max_nodes: scale.max_job_nodes(),
        ..CirneModel::default()
    };
    WorkloadBuilder::new(seed)
        .jobs(scale.synthetic_jobs())
        .large_job_fraction(large_fraction)
        .overestimation(overestimation)
        .google_pool(scale.google_pool())
        .cirne(cirne)
        .build_for(&synthetic_system(scale, MemoryMix::all_large()))
}

/// The `bench-dynloop` leg workload: [`synthetic_workload`] shifted to
/// the long-running-job regime (median runtime in the hours, as on the
/// modelled HPC systems, instead of the default ~50 minutes). Long jobs
/// are where the dynamic-memory update loop lives — each one takes tens
/// of five-minute updates within each memory phase — so this is the
/// distribution the fast path must be judged on.
pub fn dynloop_stress_workload(
    scale: Scale,
    large_fraction: f64,
    overestimation: f64,
    seed: u64,
) -> Workload {
    let cirne = CirneModel {
        max_nodes: scale.max_job_nodes(),
        runtime_ln_mean: 10.2, // e^10.2 ≈ 7.5 h
        runtime_ln_sigma: 0.9,
        min_runtime_s: 3600.0,
        ..CirneModel::default()
    };
    WorkloadBuilder::new(seed)
        .jobs(scale.synthetic_jobs())
        .large_job_fraction(large_fraction)
        .overestimation(overestimation)
        .google_pool(scale.google_pool())
        .cirne(cirne)
        // Merge monitoring noise into the phase plateaus: demand then
        // changes when the job changes phase, not when the 5-minute
        // window jitters by a few percent.
        .rdp_epsilon(0.08)
        .build_for(&synthetic_system(scale, MemoryMix::all_large()))
}

/// The Grizzly dataset at this scale plus the paper's week selection
/// (≥ 70% utilisation, up to seven weeks).
pub fn grizzly_bundle(scale: Scale, seed: u64) -> (GrizzlyDataset, Vec<usize>) {
    let ds = GrizzlyDataset::synthesize(scale.grizzly(seed));
    let mut rng = Rng64::stream(seed, 0x533D);
    let mut weeks = ds.sample_high_util_weeks(0.7, 7, &mut rng);
    if weeks.is_empty() {
        // Small datasets may have no ≥70% week; fall back to the busiest.
        let busiest = ds
            .weeks
            .iter()
            .max_by(|a, b| a.cpu_utilization.total_cmp(&b.cpu_utilization))
            .map(|w| w.index)
            .unwrap();
        weeks.push(busiest);
    }
    (ds, weeks)
}

/// The Grizzly-trace system for this dataset with the given mix (the
/// dataset carries the node count: 1490 at full scale).
pub fn grizzly_system(mix: MemoryMix, ds: &GrizzlyDataset) -> SystemConfig {
    SystemConfig::with_nodes(ds.config.nodes).with_memory_mix(mix)
}

/// Representative Grizzly workload: the first selected week with the
/// given overestimation.
pub fn grizzly_rep_workload(
    ds: &GrizzlyDataset,
    weeks: &[usize],
    overestimation: f64,
    seed: u64,
) -> Workload {
    grizzly_workload(ds, weeks[0], overestimation, seed)
}

/// One simulation point: run `workload` on `system` under the policy
/// `spec` resolves to. [`PolicySpec`] accepts the paper's three
/// policies plus the parameterized extensions.
///
/// The workload is `impl Into<Arc<Workload>>`: a sweep that simulates
/// the same workload at many `(memory, policy)` points passes an
/// `Arc<Workload>` clone per point (a reference-count bump) instead of
/// deep-copying every job and usage trace; one-off callers keep passing
/// an owned [`Workload`].
pub fn simulate(
    system: SystemConfig,
    workload: impl Into<Arc<Workload>>,
    policy: PolicySpec,
    seed: u64,
) -> SimulationOutcome {
    SimBuilder::new(system, workload)
        .policy(policy)
        .seed(seed)
        .run()
}

/// [`simulate`] with an optional telemetry spec: when `Some`, the run
/// is observed through a fresh [`TelemetryCollector`] (each sweep point
/// gets its own — points run in parallel) and the run's wall-clock
/// phase [`Profile`] is returned alongside the outcome. The outcome is
/// bit-identical either way — telemetry is observation-only, enforced
/// by the determinism goldens.
///
/// [`Profile`]: dmhpc_core::telemetry::Profile
/// [`TelemetryCollector`]: dmhpc_core::telemetry::TelemetryCollector
pub fn simulate_observed(
    system: SystemConfig,
    workload: impl Into<Arc<Workload>>,
    policy: PolicySpec,
    seed: u64,
    telemetry: Option<dmhpc_core::telemetry::TelemetrySpec>,
) -> (SimulationOutcome, dmhpc_core::telemetry::Profile) {
    match telemetry {
        None => (simulate(system, workload, policy, seed), Default::default()),
        Some(spec) => {
            let collector = dmhpc_core::telemetry::TelemetryCollector::new(spec);
            let out = SimBuilder::new(system, workload)
                .policy(policy)
                .seed(seed)
                .telemetry(collector.clone())
                .run();
            (out, collector.snapshot().profile)
        }
    }
}

/// Median of `times` (the upper median `sorted[len/2]`, matching the
/// previous clone-and-full-sort implementation) computed in place with
/// `select_nth_unstable_by` — O(n) instead of O(n log n), and no clone
/// of the response vector. `total_cmp` is a total order, so the selected
/// order statistic is exactly the element the sorted version indexed.
pub fn median_response(times: &mut [f64]) -> f64 {
    if times.is_empty() {
        return 0.0;
    }
    let mid = times.len() / 2;
    let (_, m, _) = times.select_nth_unstable_by(mid, f64::total_cmp);
    *m
}

/// Normalised throughput: `outcome / reference`, or `None` when the
/// configuration could not run every job (the paper's missing bars).
pub fn norm_throughput(outcome: &SimulationOutcome, reference_jps: f64) -> Option<f64> {
    if !outcome.feasible || reference_jps <= 0.0 {
        None
    } else {
        Some(outcome.stats.throughput_jps / reference_jps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_axis_is_the_paper_axis() {
        let pts: Vec<u32> = memory_axis().iter().map(|&(p, _)| p).collect();
        assert_eq!(pts, vec![37, 43, 50, 57, 62, 75, 87, 100]);
    }

    #[test]
    fn workload_independent_of_mix() {
        let a = synthetic_workload(Scale::Small, 0.5, 0.0, 1);
        let b = synthetic_workload(Scale::Small, 0.5, 0.0, 1);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.jobs.iter().zip(&b.jobs) {
            assert_eq!(x.mem_request_mb, y.mem_request_mb);
        }
    }

    #[test]
    fn grizzly_bundle_selects_high_util() {
        let (ds, weeks) = grizzly_bundle(Scale::Small, 5);
        assert!(!weeks.is_empty());
        for &w in &weeks {
            assert!(w < ds.weeks.len());
        }
    }

    #[test]
    fn median_matches_sort_based_reference() {
        let mut rng = Rng64::stream(0x3D1A, 7);
        for n in [1usize, 2, 3, 10, 101, 1000] {
            let times: Vec<f64> = (0..n).map(|_| rng.range_f64(0.0, 1e6)).collect();
            let mut sorted = times.clone();
            sorted.sort_unstable_by(f64::total_cmp);
            let expect = sorted[sorted.len() / 2];
            let mut scratch = times.clone();
            assert_eq!(median_response(&mut scratch), expect, "n={n}");
        }
        assert_eq!(median_response(&mut []), 0.0);
    }

    #[test]
    fn norm_throughput_handles_infeasible() {
        let w = synthetic_workload(Scale::Small, 0.0, 0.0, 2);
        let sys = synthetic_system(Scale::Small, MemoryMix::all_large());
        let out = simulate(sys, w, PolicySpec::Dynamic, 3);
        assert!(out.feasible);
        assert!(norm_throughput(&out, out.stats.throughput_jps).unwrap() > 0.99);
        assert!(norm_throughput(&out, 0.0).is_none());
    }
}
