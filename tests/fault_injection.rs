//! Fault-injection robustness tests: determinism under faults, job
//! accounting conservation, ledger invariants on randomized fault
//! schedules, Actuator retry/escalation ordering, and scripted
//! crash/degradation scenarios.

use dmhpc::core::cluster::{MemoryMix, NodeId};
use dmhpc::core::config::{RestartStrategy, SystemConfig};
use dmhpc::core::engine::SimTime;
use dmhpc::core::faults::{FaultConfig, FaultEvent, FaultSchedule};
use dmhpc::core::job::{Job, JobId, MemoryUsageTrace};
use dmhpc::core::policy::PolicySpec;
use dmhpc::core::sim::{SimBuilder, SimulationOutcome, Workload};
use dmhpc::experiments::scenario::{synthetic_system, synthetic_workload};
use dmhpc::experiments::Scale;
use dmhpc::model::{ProfileId, ProfilePool};
use proptest::prelude::*;

fn faulty_run(policy: PolicySpec, faults: FaultConfig, seed: u64) -> SimulationOutcome {
    let cfg = synthetic_system(Scale::Small, MemoryMix::new(4096, 16384, 0.5))
        .with_restart(RestartStrategy::CheckpointRestart)
        .with_faults(faults);
    let workload = synthetic_workload(Scale::Small, 0.5, 0.6, seed);
    SimBuilder::new(cfg, workload)
        .policy(policy)
        .seed(seed)
        .run()
}

/// One job that needs `peak` MB throughout, on a uniform small cluster.
fn one_job_workload(peak: u64) -> Workload {
    let job = Job {
        id: JobId(0),
        submit_s: 0.0,
        nodes: 1,
        base_runtime_s: 4000.0,
        time_limit_s: 40_000.0,
        mem_request_mb: peak + peak / 2,
        usage: MemoryUsageTrace::flat(peak),
        profile: ProfileId(0),
    };
    Workload::try_new(vec![job], ProfilePool::synthetic(4, 1)).unwrap()
}

fn uniform_system(nodes: u32, node_mb: u64) -> SystemConfig {
    SystemConfig::with_nodes(nodes).with_memory_mix(MemoryMix::new(node_mb, node_mb, 1.0))
}

/// Fixed fault seed + nonzero rates: two runs are identical, field for
/// field, for every policy.
#[test]
fn nonzero_fault_rates_are_deterministic() {
    let faults = FaultConfig::heavy().with_seed(0xFA11);
    // Every registered policy, the paper's three plus the parameterized
    // extensions, must reproduce a faulty run exactly.
    for policy in PolicySpec::all_default() {
        let a = faulty_run(policy, faults, 0xD15A);
        let b = faulty_run(policy, faults, 0xD15A);
        assert_eq!(a, b, "{policy:?}: faulty run must reproduce exactly");
    }
    // The heavy profile must actually exercise the fault machinery.
    let dynamic = faulty_run(PolicySpec::Dynamic, faults, 0xD15A);
    assert!(
        dynamic.stats.fault_node_crashes > 0 || dynamic.stats.fault_pool_degrades > 0,
        "heavy profile injected no faults"
    );
    assert!(dynamic.stats.avg_pool_availability < 1.0);
}

/// Faults reshuffle jobs between outcome buckets but never lose one:
/// completed + unschedulable + permanently failed == submitted.
#[test]
fn fault_accounting_conserves_jobs() {
    let faults = FaultConfig::heavy().with_seed(0xACC0);
    for policy in PolicySpec::all_default() {
        let out = faulty_run(policy, faults, 0xBEEF);
        let s = &out.stats;
        let total = synthetic_workload(Scale::Small, 0.5, 0.6, 0xBEEF).len() as u32;
        assert_eq!(
            s.completed + s.unschedulable + s.failed_exceeded + s.failed_restarts,
            total,
            "{policy:?}: jobs must be conserved under faults"
        );
        assert_eq!(out.response_times_s.len(), s.completed as usize);
        assert!(s.jobs_fault_killed <= total);
        assert!(s.fault_work_lost_s >= 0.0);
        assert!(s.fault_checkpoint_credit_s >= 0.0);
        assert!((0.0..=1.0).contains(&s.avg_pool_availability));
    }
}

/// A crashed node kills its resident job, which re-enters the queue and
/// completes elsewhere; checkpoints limit the lost work under C/R and
/// save nothing under F/R.
#[test]
fn node_crash_requeues_resident_job() {
    let schedule = FaultSchedule {
        events: vec![
            (
                SimTime::from_secs(1000.0),
                FaultEvent::NodeFail { node: NodeId(0) },
            ),
            (
                SimTime::from_secs(4600.0),
                FaultEvent::NodeRepair { node: NodeId(0) },
            ),
        ],
    };
    let base_makespan = SimBuilder::new(uniform_system(1, 8192), one_job_workload(2048))
        .policy(PolicySpec::Dynamic)
        .run()
        .stats
        .makespan_s;
    for (strategy, expect_credit) in [
        (RestartStrategy::CheckpointRestart, true),
        (RestartStrategy::FailRestart, false),
    ] {
        // One node only: the job must wait out the repair, then restart.
        let out = SimBuilder::new(
            uniform_system(1, 8192).with_restart(strategy),
            one_job_workload(2048),
        )
        .policy(PolicySpec::Dynamic)
        .fault_schedule(schedule.clone())
        .run();
        let s = &out.stats;
        assert_eq!(s.fault_node_crashes, 1, "{strategy:?}");
        assert_eq!(s.jobs_fault_killed, 1, "{strategy:?}");
        assert_eq!(s.completed, 1, "{strategy:?}: job must finish after repair");
        assert!(
            out.stats.makespan_s > base_makespan,
            "{strategy:?}: crash must delay completion"
        );
        if expect_credit {
            assert!(
                s.fault_checkpoint_credit_s > 0.0,
                "C/R must bank checkpointed progress"
            );
        } else {
            assert_eq!(s.fault_checkpoint_credit_s, 0.0);
            assert!(s.fault_work_lost_s > 0.0, "F/R loses all progress");
        }
    }
}

/// Degrading an idle node's blade shrinks the pool without touching any
/// job; the availability metric records the outage.
#[test]
fn pool_degrade_reduces_availability() {
    let schedule = FaultSchedule {
        events: vec![
            (
                SimTime::from_secs(100.0),
                FaultEvent::PoolDegrade {
                    node: NodeId(3),
                    mb: 4096,
                },
            ),
            (
                SimTime::from_secs(3000.0),
                FaultEvent::PoolRestore {
                    node: NodeId(3),
                    mb: 4096,
                },
            ),
        ],
    };
    let out = SimBuilder::new(uniform_system(4, 8192), one_job_workload(2048))
        .policy(PolicySpec::Dynamic)
        .fault_schedule(schedule)
        .run();
    let s = &out.stats;
    assert_eq!(s.fault_pool_degrades, 1);
    assert_eq!(s.jobs_fault_killed, 0, "idle-node degrade kills nothing");
    assert_eq!(s.completed, 1);
    assert!(s.avg_pool_availability < 1.0);
}

/// With every actuation failing, each escalation is preceded by exactly
/// `actuator_max_retries` backoff retries; the escalated job falls back
/// to its static-guaranteed allocation and still completes.
#[test]
fn actuator_retries_then_escalates() {
    // Usage collapses after 10% progress, so the Decider keeps trying to
    // shrink (usage never exceeds the allocation — no OOM can interfere
    // with the retry cycle).
    let job = Job {
        id: JobId(0),
        submit_s: 0.0,
        nodes: 1,
        base_runtime_s: 8000.0,
        time_limit_s: 80_000.0,
        mem_request_mb: 6144,
        usage: MemoryUsageTrace::new(vec![(0.0, 4096), (0.1, 256)]).unwrap(),
        profile: ProfileId(0),
    };
    let workload = Workload::try_new(vec![job], ProfilePool::synthetic(4, 1)).unwrap();
    let faults = FaultConfig {
        actuator_fail_prob: 1.0,
        actuator_max_retries: 2,
        ..FaultConfig::none()
    };
    let out = SimBuilder::new(
        uniform_system(2, 8192)
            .with_restart(RestartStrategy::CheckpointRestart)
            .with_faults(faults),
        workload,
    )
    .policy(PolicySpec::Dynamic)
    .run();
    let s = &out.stats;
    assert!(s.actuator_escalations > 0, "shrink attempts must escalate");
    assert_eq!(
        s.actuator_retries,
        faults.actuator_max_retries * s.actuator_escalations,
        "every escalation is preceded by exactly max_retries retries"
    );
    assert_eq!(s.completed, 1, "static fallback must let the job finish");
}

proptest! {
    /// Arbitrary fault configurations keep the simulator sound: jobs are
    /// conserved, metrics stay in range, and the run reproduces exactly.
    /// (Debug builds additionally run `check_invariants` after every
    /// injected fault event inside the simulator.)
    #[test]
    fn random_fault_configs_preserve_invariants(
        fault_seed in 0u64..1_000,
        sim_seed in 0u64..1_000,
        mtbf_idx in 0usize..3,
        degrade_idx in 0usize..3,
        monitor_loss in 0.0f64..0.3,
        actuator_fail in 0.0f64..0.5,
        policy_idx in 0usize..6,
    ) {
        // One index per registered policy (all six at default params).
        let all = PolicySpec::all_default();
        prop_assert_eq!(all.len(), 6);
        let policy = all[policy_idx];
        let mtbf = [0.0f64, 20_000.0, 100_000.0][mtbf_idx];
        let degrade = [0u64, 1024, 4096][degrade_idx];
        let faults = FaultConfig {
            node_mtbf_s: mtbf,
            node_repair_s: 1_800.0,
            pool_degrade_interval_s: if degrade > 0 { 30_000.0 } else { 0.0 },
            pool_degrade_mb: degrade,
            pool_repair_s: 3_600.0,
            monitor_loss_prob: monitor_loss,
            actuator_fail_prob: actuator_fail,
            horizon_s: 200_000.0,
            ..FaultConfig::none()
        }
        .with_seed(fault_seed);
        let mk = || {
            let cfg = SystemConfig::with_nodes(8)
                .with_memory_mix(MemoryMix::new(2048, 8192, 0.5))
                .with_restart(RestartStrategy::CheckpointRestart)
                .with_faults(faults);
            let workload = {
                use dmhpc::model::rng::Rng64;
                let mut rng = Rng64::new(sim_seed);
                let jobs: Vec<Job> = (0..12u32)
                    .map(|i| {
                        let peak = rng.range_u64(128, 4000);
                        Job {
                            id: JobId(i),
                            submit_s: rng.range_f64(0.0, 5_000.0),
                            nodes: rng.range_u64(1, 4) as u32,
                            base_runtime_s: rng.range_f64(500.0, 6_000.0),
                            time_limit_s: 60_000.0,
                            mem_request_mb: (peak as f64 * rng.range_f64(1.0, 1.8)) as u64,
                            usage: MemoryUsageTrace::new(vec![(0.0, peak / 2), (0.4, peak)])
                                .unwrap(),
                            profile: ProfileId(0),
                        }
                    })
                    .collect();
                Workload::try_new(jobs, ProfilePool::synthetic(4, 1)).unwrap()
            };
            SimBuilder::new(cfg, workload).policy(policy).seed(sim_seed).run()
        };
        let out = mk();
        let s = &out.stats;
        prop_assert_eq!(
            s.completed + s.unschedulable + s.failed_exceeded + s.failed_restarts,
            12
        );
        prop_assert_eq!(out.response_times_s.len(), s.completed as usize);
        prop_assert!((0.0..=1.0).contains(&s.avg_pool_availability));
        prop_assert!(s.fault_work_lost_s >= 0.0);
        prop_assert!(s.fault_checkpoint_credit_s >= 0.0);
        // Determinism under faults.
        let out2 = mk();
        prop_assert_eq!(out, out2);
    }
}
