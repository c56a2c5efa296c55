//! Golden-shape integration tests: the qualitative results the paper
//! reports must hold end-to-end (trace generation → simulation →
//! metrics), at test scale.

use dmhpc::core::cluster::MemoryMix;
use dmhpc::core::config::SystemConfig;
use dmhpc::core::policy::PolicySpec;
use dmhpc::core::sim::{SimBuilder, SimulationOutcome, Workload};
use dmhpc::metrics::ecdf::Ecdf;
use dmhpc::traces::workload::WorkloadBuilder;

fn workload(system: &SystemConfig, large: f64, over: f64, seed: u64) -> Workload {
    WorkloadBuilder::new(seed)
        .jobs(300)
        .max_job_nodes(16)
        .large_job_fraction(large)
        .overestimation(over)
        .build_for(system)
}

fn run(system: &SystemConfig, w: &Workload, policy: PolicySpec) -> SimulationOutcome {
    SimBuilder::new(system.clone(), w.clone())
        .policy(policy)
        .run()
}

/// Underprovisioned system, overestimated requests: the paper's stress
/// scenario. Dynamic must beat static on throughput and response time.
#[test]
fn dynamic_beats_static_when_stressed() {
    let system =
        SystemConfig::with_nodes(96).with_memory_mix(MemoryMix::new(64 * 1024, 128 * 1024, 0.25));
    let w = workload(&system, 0.5, 0.6, 11);
    let stat = run(&system, &w, PolicySpec::Static);
    let dynm = run(&system, &w, PolicySpec::Dynamic);
    assert!(stat.feasible && dynm.feasible);
    assert_eq!(stat.stats.completed + stat.stats.failed_exceeded, 300);
    assert!(
        dynm.stats.throughput_jps > stat.stats.throughput_jps,
        "dynamic {} <= static {}",
        dynm.stats.throughput_jps,
        stat.stats.throughput_jps
    );
    let med = |o: &SimulationOutcome| Ecdf::new(o.response_times_s.clone()).unwrap().median();
    assert!(med(&dynm) < med(&stat), "median response must drop");
}

/// With exact requests and ample memory, the three policies converge
/// (top-left panel of Fig. 5).
#[test]
fn policies_converge_when_memory_is_ample() {
    let system = SystemConfig::with_nodes(96).with_memory_mix(MemoryMix::all_large());
    let w = workload(&system, 0.0, 0.0, 13);
    let outs: Vec<SimulationOutcome> = [
        PolicySpec::Baseline,
        PolicySpec::Static,
        PolicySpec::Dynamic,
    ]
    .iter()
    .map(|&p| run(&system, &w, p))
    .collect();
    let t0 = outs[0].stats.throughput_jps;
    for o in &outs {
        assert!(o.feasible);
        assert_eq!(o.stats.completed, 300);
        let ratio = o.stats.throughput_jps / t0;
        assert!(
            (ratio - 1.0).abs() < 0.05,
            "throughput ratio {ratio} should be ~1"
        );
    }
}

/// Memory utilisation ordering: dynamic allocates closest to the true
/// usage, static allocates the request, baseline allocates whole nodes.
#[test]
fn memory_utilization_ordering() {
    let system = SystemConfig::with_nodes(96).with_memory_mix(MemoryMix::all_large());
    let w = workload(&system, 0.3, 0.6, 17);
    let base = run(&system, &w, PolicySpec::Baseline);
    let stat = run(&system, &w, PolicySpec::Static);
    let dynm = run(&system, &w, PolicySpec::Dynamic);
    assert!(
        dynm.stats.avg_mem_utilization < stat.stats.avg_mem_utilization,
        "dynamic {} !< static {}",
        dynm.stats.avg_mem_utilization,
        stat.stats.avg_mem_utilization
    );
    assert!(
        stat.stats.avg_mem_utilization < base.stats.avg_mem_utilization,
        "static {} !< baseline {}",
        stat.stats.avg_mem_utilization,
        base.stats.avg_mem_utilization
    );
}

/// The paper reports <1% of jobs failing on OOM in the most extreme
/// scenario; our restart cap must never be the binding constraint at
/// normal stress, and all jobs complete.
#[test]
fn oom_kills_are_rare_and_jobs_complete() {
    let system =
        SystemConfig::with_nodes(96).with_memory_mix(MemoryMix::new(32 * 1024, 64 * 1024, 0.5));
    let w = workload(&system, 0.5, 1.0, 19);
    let dynm = run(&system, &w, PolicySpec::Dynamic);
    assert!(dynm.feasible);
    assert_eq!(
        dynm.stats.completed + dynm.stats.failed_restarts,
        300,
        "all jobs must resolve"
    );
    assert_eq!(dynm.stats.failed_restarts, 0, "no job may hit the cap");
    // OOM kill events stay a small fraction of the job count.
    assert!(
        (dynm.stats.oom_kills as f64) < 0.25 * 300.0,
        "{} OOM kills is too many",
        dynm.stats.oom_kills
    );
}

/// Overestimation hurts static throughput monotonically (in trend);
/// dynamic stays within a few percent of its exact-request throughput
/// (Fig. 8).
#[test]
fn dynamic_immune_to_overestimation() {
    let system =
        SystemConfig::with_nodes(96).with_memory_mix(MemoryMix::new(64 * 1024, 128 * 1024, 0.25));
    let tput = |over: f64, policy: PolicySpec| {
        let w = workload(&system, 0.5, over, 23);
        run(&system, &w, policy).stats.throughput_jps
    };
    let d0 = tput(0.0, PolicySpec::Dynamic);
    let d1 = tput(1.0, PolicySpec::Dynamic);
    assert!(d1 > 0.93 * d0, "dynamic dropped too much: {d1} vs {d0}");
    let s0 = tput(0.0, PolicySpec::Static);
    let s1 = tput(1.0, PolicySpec::Static);
    assert!(s1 < 0.97 * s0, "static should degrade: {s1} vs {s0}");
    assert!(d1 > s1, "dynamic must end above static");
}

/// Baseline cannot run jobs whose request exceeds every node; the
/// disaggregated policies can (missing-bars semantics).
#[test]
fn baseline_missing_bars() {
    let system =
        SystemConfig::with_nodes(96).with_memory_mix(MemoryMix::new(64 * 1024, 128 * 1024, 0.5));
    // +60% overestimation pushes the biggest requests past 128 GB.
    let w = workload(&system, 0.5, 0.6, 29);
    let has_oversized = w.jobs.iter().any(|j| j.mem_request_mb > 128 * 1024);
    assert!(has_oversized, "workload should contain oversized requests");
    let base = run(&system, &w, PolicySpec::Baseline);
    assert!(!base.feasible);
    assert!(base.stats.unschedulable > 0);
    let stat = run(&system, &w, PolicySpec::Static);
    assert!(stat.feasible);
}

/// The dynamic policy's median-response advantage in the stress scenario
/// is statistically solid: the bootstrap CI of the static/dynamic median
/// ratio excludes parity.
#[test]
fn dynamic_advantage_is_significant() {
    use dmhpc::metrics::bootstrap::ratio_interval;
    let system =
        SystemConfig::with_nodes(96).with_memory_mix(MemoryMix::new(64 * 1024, 128 * 1024, 0.25));
    let w = workload(&system, 0.5, 0.6, 37);
    let stat = run(&system, &w, PolicySpec::Static);
    let dynm = run(&system, &w, PolicySpec::Dynamic);
    let median = |s: &[f64]| {
        let mut v = s.to_vec();
        v.sort_unstable_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let iv = ratio_interval(
        &stat.response_times_s,
        &dynm.response_times_s,
        median,
        400,
        0.95,
        7,
    );
    assert!(
        iv.point > 1.0 && iv.excludes(1.0),
        "static/dynamic median ratio CI [{:.2}, {:.2}] must exclude 1",
        iv.lo,
        iv.hi
    );
}

/// Checkpoint/Restart never completes fewer jobs than Fail/Restart and
/// wastes no more work.
#[test]
fn checkpoint_restart_not_worse() {
    use dmhpc::core::config::RestartStrategy;
    let mk = |strat| {
        let system = SystemConfig::with_nodes(96)
            .with_memory_mix(MemoryMix::new(64 * 1024, 128 * 1024, 0.25))
            .with_restart(strat);
        let w = workload(&system, 0.6, 1.0, 31);
        run(&system, &w, PolicySpec::Dynamic)
    };
    let fr = mk(RestartStrategy::FailRestart);
    let cr = mk(RestartStrategy::CheckpointRestart);
    assert!(fr.feasible && cr.feasible);
    assert!(cr.stats.completed >= fr.stats.completed);
    if fr.stats.oom_kills > 0 {
        // With restarts happening, C/R must not take longer overall.
        assert!(cr.stats.makespan_s <= fr.stats.makespan_s * 1.05);
    }
}
