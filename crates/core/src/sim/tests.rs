//! Behavioral tests for the simulation driver, exercised through the
//! boxed [`MemoryPolicy`](super::hooks::MemoryPolicy) implementations
//! so no test depends on the config-layer policy enum.

use super::builder::SimBuilder;
use super::hooks::{Baseline, DynamicAlloc, MemoryPolicy, StaticAlloc};
use super::state::Workload;
use crate::cluster::MemoryMix;
use crate::config::{RestartStrategy, SystemConfig};
use crate::job::{Job, JobId, MemoryUsageTrace};
use dmhpc_model::{ProfileId, ProfilePool};

fn small_cfg(nodes: u32) -> SystemConfig {
    SystemConfig::with_nodes(nodes).with_memory_mix(MemoryMix::new(1000, 2000, 0.5))
}

fn flat_job(id: u32, submit: f64, nodes: u32, runtime: f64, mem: u64) -> Job {
    Job {
        id: JobId(id),
        submit_s: submit,
        nodes,
        base_runtime_s: runtime,
        time_limit_s: runtime * 1.5,
        mem_request_mb: mem,
        usage: MemoryUsageTrace::flat(mem),
        profile: ProfileId(0),
    }
}

fn pool() -> ProfilePool {
    ProfilePool::synthetic(4, 99)
}

fn workload(jobs: Vec<Job>) -> Workload {
    Workload::try_new(jobs, pool()).unwrap()
}

fn sim(cfg: SystemConfig, jobs: Vec<Job>, policy: Box<dyn MemoryPolicy>) -> SimBuilder {
    SimBuilder::new(cfg, workload(jobs)).policy_impl(policy)
}

#[test]
fn single_job_completes() {
    let jobs = vec![flat_job(0, 0.0, 2, 600.0, 500)];
    let out = sim(small_cfg(4), jobs, Box::new(DynamicAlloc)).run();
    assert_eq!(out.stats.completed, 1);
    assert!(out.feasible);
    assert_eq!(out.stats.oom_kills, 0);
    // Fully local run: no slowdown; completes at ~630 s (first tick
    // at 30 s boundary can delay the start by up to one interval).
    assert!(out.stats.makespan_s >= 600.0 && out.stats.makespan_s < 700.0);
    assert!((out.stats.mean_slowdown - 1.0).abs() < 1e-5);
}

#[test]
fn jobs_queue_when_cluster_full() {
    // 2 nodes, two sequential 1-node jobs + a third that must wait.
    let jobs = vec![
        flat_job(0, 0.0, 1, 300.0, 500),
        flat_job(1, 0.0, 1, 300.0, 500),
        flat_job(2, 0.0, 1, 300.0, 500),
    ];
    let cfg = SystemConfig::with_nodes(2).with_memory_mix(MemoryMix::new(1000, 1000, 0.0));
    let out = sim(cfg, jobs, Box::new(StaticAlloc)).run();
    assert_eq!(out.stats.completed, 3);
    // Third job waits for a release: response > its runtime.
    let max_resp = out.response_times_s.iter().cloned().fold(0.0, f64::max);
    assert!(max_resp > 300.0);
}

#[test]
fn baseline_rejects_oversized_jobs() {
    let jobs = vec![flat_job(0, 0.0, 1, 100.0, 5000)];
    let out = sim(small_cfg(4), jobs, Box::new(Baseline)).run();
    assert_eq!(out.stats.completed, 0);
    assert_eq!(out.stats.unschedulable, 1);
    assert!(!out.feasible);
}

#[test]
fn disaggregated_runs_oversized_jobs() {
    // 3000 MB on one node: > any node, < total (4 nodes: 2×1000+2×2000).
    let jobs = vec![flat_job(0, 0.0, 1, 100.0, 3000)];
    let out = sim(small_cfg(4), jobs, Box::new(StaticAlloc)).run();
    assert_eq!(out.stats.completed, 1);
    assert!(out.feasible);
    // Borrowing slows the job: runtime stretched.
    assert!(out.stats.mean_slowdown > 1.0);
}

#[test]
fn dynamic_reclaims_unused_memory() {
    // Job 0 requests 2000 but uses only 200: dynamic shrinks it, so
    // job 1 (needing 1800 local) can start before job 0 finishes.
    let mut j0 = flat_job(0, 0.0, 1, 2000.0, 2000);
    j0.usage = MemoryUsageTrace::flat(200);
    let j1 = flat_job(1, 30.0, 1, 300.0, 1800);
    let cfg = SystemConfig::with_nodes(2).with_memory_mix(MemoryMix::new(2000, 2000, 0.0));
    let mk = |policy: Box<dyn MemoryPolicy>| {
        sim(cfg.clone(), vec![j0.clone(), j1.clone()], policy).run()
    };
    let stat = mk(Box::new(StaticAlloc));
    let dyn_ = mk(Box::new(DynamicAlloc));
    assert_eq!(stat.stats.completed, 2);
    assert_eq!(dyn_.stats.completed, 2);
    // Under static, both jobs fit side by side (two nodes, all local),
    // so compare memory utilisation instead: dynamic must allocate
    // less memory over time.
    assert!(dyn_.stats.avg_mem_utilization < stat.stats.avg_mem_utilization);
}

#[test]
fn dynamic_oom_restarts_job() {
    // One node of 1000 MB; the job ramps 100 → 900 but a competitor's
    // static 600 MB allocation on the lender leaves no room to grow.
    let mut j0 = flat_job(0, 0.0, 1, 1200.0, 1000);
    j0.usage = MemoryUsageTrace::new(vec![(0.0, 100), (0.5, 950)]).unwrap();
    let j1 = flat_job(1, 0.0, 1, 4000.0, 900);
    let cfg = SystemConfig::with_nodes(2).with_memory_mix(MemoryMix::new(1000, 1000, 0.0));
    let out = sim(cfg, vec![j0, j1], Box::new(DynamicAlloc)).run();
    // Both eventually finish; j0 may restart if its growth collided
    // with j1's occupancy.
    assert_eq!(out.stats.completed, 2);
}

#[test]
fn exceeded_request_kills_static_job() {
    // Usage (800) exceeds the request (500): static kills it.
    let mut j = flat_job(0, 0.0, 1, 600.0, 500);
    j.usage = MemoryUsageTrace::new(vec![(0.0, 300), (0.5, 800)]).unwrap();
    let out = sim(small_cfg(2), vec![j], Box::new(StaticAlloc)).run();
    assert_eq!(out.stats.completed, 0);
    assert_eq!(out.stats.failed_exceeded, 1);
}

#[test]
fn dynamic_tolerates_usage_above_request() {
    // Same job under dynamic: allocation follows usage, no kill.
    let mut j = flat_job(0, 0.0, 1, 600.0, 500);
    j.usage = MemoryUsageTrace::new(vec![(0.0, 300), (0.5, 800)]).unwrap();
    let out = sim(small_cfg(2), vec![j], Box::new(DynamicAlloc)).run();
    assert_eq!(out.stats.completed, 1);
    assert_eq!(out.stats.failed_exceeded, 0);
}

#[test]
fn deterministic_across_runs() {
    let jobs: Vec<Job> = (0..20)
        .map(|i| flat_job(i, i as f64 * 50.0, 1 + (i % 3), 400.0 + i as f64, 600))
        .collect();
    let mk = || {
        sim(small_cfg(6), jobs.clone(), Box::new(DynamicAlloc))
            .seed(7)
            .run()
    };
    let a = mk();
    let b = mk();
    assert_eq!(a.stats.completed, b.stats.completed);
    assert_eq!(a.stats.makespan_s, b.stats.makespan_s);
    assert_eq!(a.response_times_s, b.response_times_s);
}

#[test]
fn waits_and_responses_consistent() {
    let jobs = vec![flat_job(0, 100.0, 1, 300.0, 500)];
    let out = sim(small_cfg(2), jobs, Box::new(StaticAlloc)).run();
    assert_eq!(out.wait_times_s.len(), 1);
    assert_eq!(out.response_times_s.len(), 1);
    // Response ≥ wait + base runtime.
    assert!(out.response_times_s[0] >= out.wait_times_s[0] + 300.0 - 1e-6);
    // Wait is bounded by the scheduling interval for an empty system.
    assert!(out.wait_times_s[0] <= 31.0);
}

#[test]
fn workload_validates_ids() {
    let j = flat_job(5, 0.0, 1, 10.0, 10);
    let err = Workload::try_new(vec![j], pool()).unwrap_err();
    assert!(err.to_string().contains("indexed by id"), "{err}");
}

#[test]
fn workload_validates_profiles() {
    let mut j = flat_job(0, 0.0, 1, 10.0, 10);
    j.profile = ProfileId(99);
    let err = Workload::try_new(vec![j], pool()).unwrap_err();
    assert!(err.to_string().contains("missing profile"), "{err}");
}

#[test]
fn backfill_lets_small_jobs_jump_a_blocked_head() {
    // 2 nodes. Job 0 occupies both for a long time. Job 1 (head of
    // queue) needs 2 nodes — blocked. Job 2 needs 1 node for a short
    // time... but nothing is free, so backfilling can't help while
    // job 0 holds both nodes. Instead: job 0 takes ONE node, job 1
    // needs 2 (blocked until job 0 ends), job 2 needs 1 node and
    // finishes before job 0's limit → backfills onto the free node.
    let j0 = flat_job(0, 0.0, 1, 5000.0, 500);
    let j1 = flat_job(1, 10.0, 2, 1000.0, 500);
    let j2 = flat_job(2, 20.0, 1, 600.0, 500); // limit 900 < j0 end
    let cfg = SystemConfig::with_nodes(2).with_memory_mix(MemoryMix::new(1000, 1000, 0.0));
    let out = sim(cfg, vec![j0, j1, j2], Box::new(StaticAlloc)).run();
    assert_eq!(out.stats.completed, 3);
    // Job 2 must finish long before job 1 even though it was queued
    // behind it (EASY backfill), i.e. its response ≪ job 1's.
    // Completion order → response vector order: j2 completes first
    // among the queued pair.
    let r1 = out.response_times_s[1]; // second completion
    let r2 = out.response_times_s[2]; // third completion
                                      // First completion is j2 (600 s), then j0 (5000 s), then j1.
    let first = out.response_times_s[0];
    assert!(first < 700.0, "backfilled job should finish first: {first}");
    assert!(r1 > first && r2 > first);
}

#[test]
fn checkpoint_restart_wastes_less_work_than_fail_restart() {
    // A job that grows to 900 MB at 60% progress on a 1000 MB node,
    // while a long-running neighbour has borrowed 400 MB from that
    // node: the growth OOMs, the job restarts. Under C/R it resumes
    // from its last update; under F/R it starts over.
    let mut grower = flat_job(0, 0.0, 1, 3000.0, 100);
    grower.usage = MemoryUsageTrace::new(vec![(0.0, 100), (0.6, 950)]).unwrap();
    // The blocker runs on node 1 and borrows 400 from node 0,
    // leaving grower (on node 0) at most 600 local + 0 remote.
    let mut blocker = flat_job(1, 0.0, 1, 10_000.0, 1400);
    blocker.usage = MemoryUsageTrace::flat(1400);
    let mk = |strat| {
        let cfg = SystemConfig::with_nodes(2)
            .with_memory_mix(MemoryMix::new(1000, 1000, 0.0))
            .with_restart(strat);
        sim(
            cfg,
            vec![grower.clone(), blocker.clone()],
            Box::new(DynamicAlloc),
        )
        .run()
    };
    let fr = mk(RestartStrategy::FailRestart);
    let cr = mk(RestartStrategy::CheckpointRestart);
    assert_eq!(fr.stats.completed, 2);
    assert_eq!(cr.stats.completed, 2);
    assert!(fr.stats.oom_kills >= 1, "scenario must trigger OOM");
    assert!(cr.stats.oom_kills >= 1);
    // C/R finishes the grower no later than F/R (it keeps progress).
    assert!(
        cr.stats.makespan_s <= fr.stats.makespan_s,
        "C/R {} vs F/R {}",
        cr.stats.makespan_s,
        fr.stats.makespan_s
    );
}

#[test]
fn utilization_accounting_bounds() {
    let jobs: Vec<Job> = (0..10)
        .map(|i| flat_job(i, i as f64 * 100.0, 1, 500.0, 400))
        .collect();
    let out = sim(small_cfg(4), jobs, Box::new(StaticAlloc)).run();
    assert!(out.stats.avg_node_utilization > 0.0);
    assert!(out.stats.avg_node_utilization <= 1.0);
    assert!(out.stats.avg_mem_utilization > 0.0);
    assert!(out.stats.avg_mem_utilization <= 1.0);
    // 10 × 500 node-seconds on 4 nodes over the makespan.
    let expect = 10.0 * 500.0 / (4.0 * out.stats.makespan_s);
    assert!((out.stats.avg_node_utilization - expect).abs() < 0.05);
}

#[test]
fn stale_events_are_ignored_after_restart() {
    // A job that OOMs and restarts must not be double-completed by
    // its pre-kill end event.
    let mut grower = flat_job(0, 0.0, 1, 1000.0, 100);
    grower.usage = MemoryUsageTrace::new(vec![(0.0, 100), (0.5, 2000)]).unwrap();
    let blocker = flat_job(1, 0.0, 1, 20_000.0, 1900);
    let cfg = SystemConfig::with_nodes(2).with_memory_mix(MemoryMix::new(2000, 2000, 0.0));
    let out = sim(cfg, vec![grower, blocker], Box::new(DynamicAlloc)).run();
    // Exactly two completions; total = completed regardless of the
    // number of restarts in between.
    assert_eq!(out.stats.completed, 2);
    assert_eq!(out.response_times_s.len(), 2);
}

#[test]
fn static_fallback_breaks_restart_loops() {
    use crate::config::OomMitigation;
    // Same pathological scenario as the restart-cap test: the grower
    // wants far more than its request and can never be satisfied.
    // With the static fallback it is demoted after 2 kills and then
    // killed once for exceeding its (pinned) request — no livelock,
    // far fewer OOM kills.
    let mut grower = flat_job(0, 0.0, 1, 1000.0, 100);
    grower.usage = MemoryUsageTrace::new(vec![(0.0, 100), (0.2, 1800)]).unwrap();
    let blocker = flat_job(1, 0.0, 1, 3_000_000.0, 1500);
    let cfg = SystemConfig::with_nodes(2)
        .with_memory_mix(MemoryMix::new(1000, 1000, 0.0))
        .with_mitigation(OomMitigation::StaticFallback { after: 2 });
    let out = sim(cfg, vec![grower, blocker], Box::new(DynamicAlloc))
        .max_restarts(50)
        .run();
    assert_eq!(out.stats.completed, 1);
    assert_eq!(out.stats.oom_kills, 2, "fallback must stop the kills");
    assert_eq!(
        out.stats.failed_exceeded, 1,
        "static rule applies after demotion"
    );
    assert_eq!(out.stats.failed_restarts, 0);
}

#[test]
fn static_fallback_guarantees_adequate_requests() {
    use crate::config::OomMitigation;
    // The grower's request (950) covers its peak; dynamically it gets
    // shrunk and then cannot regrow because the blocker's own growth
    // races it. After the fallback the request is pinned, so the
    // second attempt is guaranteed to finish.
    let mut grower = flat_job(0, 0.0, 1, 2000.0, 950);
    grower.usage = MemoryUsageTrace::new(vec![(0.0, 100), (0.5, 950)]).unwrap();
    let mut racer = flat_job(1, 0.0, 1, 2000.0, 950);
    racer.usage = MemoryUsageTrace::new(vec![(0.0, 100), (0.5, 950)]).unwrap();
    let third = flat_job(2, 0.0, 1, 8000.0, 900);
    let cfg = SystemConfig::with_nodes(3)
        .with_memory_mix(MemoryMix::new(1000, 1000, 0.0))
        .with_mitigation(OomMitigation::StaticFallback { after: 1 });
    let out = sim(cfg, vec![grower, racer, third], Box::new(DynamicAlloc)).run();
    assert_eq!(out.stats.completed, 3, "everything completes eventually");
    assert_eq!(out.stats.failed_restarts, 0);
}

#[test]
fn priority_boost_requeues_at_head() {
    use crate::config::OomMitigation;
    // The boosted job must start before older queue entries after
    // its OOM kill.
    let mut grower = flat_job(0, 0.0, 1, 1200.0, 1000);
    grower.usage = MemoryUsageTrace::new(vec![(0.0, 100), (0.4, 1000)]).unwrap();
    let blocker = flat_job(1, 0.0, 1, 5000.0, 950);
    // A queue of patient small jobs behind the grower.
    let tail: Vec<Job> = (2..8).map(|i| flat_job(i, 50.0, 1, 3000.0, 800)).collect();
    let mut jobs = vec![grower, blocker];
    jobs.extend(tail);
    let cfg = SystemConfig::with_nodes(2)
        .with_memory_mix(MemoryMix::new(1000, 1000, 0.0))
        .with_mitigation(OomMitigation::PriorityBoost { after: 1 });
    let boosted = sim(cfg.clone(), jobs.clone(), Box::new(DynamicAlloc)).run();
    let plain = sim(
        cfg.with_mitigation(OomMitigation::None),
        jobs,
        Box::new(DynamicAlloc),
    )
    .run();
    assert_eq!(boosted.stats.completed, 8);
    assert_eq!(plain.stats.completed, 8);
    if boosted.stats.oom_kills > 0 {
        // The grower itself must not finish later with the boost.
        let grower_b = boosted.job_records[0].response_s().unwrap();
        let grower_p = plain.job_records[0].response_s().unwrap();
        assert!(
            grower_b <= grower_p + 1e-6,
            "boosted {grower_b} vs plain {grower_p}"
        );
        assert!(boosted.job_records[0].restarts >= 1);
    }
}

#[test]
fn max_restart_cap_fails_job_permanently() {
    // The grower can never fit: it wants 2000 MB on a node where a
    // 30-day blocker borrowed everything beyond 500 MB.
    let mut grower = flat_job(0, 0.0, 1, 1000.0, 100);
    grower.usage = MemoryUsageTrace::new(vec![(0.0, 100), (0.2, 1800)]).unwrap();
    let blocker = flat_job(1, 0.0, 1, 3_000_000.0, 1500);
    let cfg = SystemConfig::with_nodes(2).with_memory_mix(MemoryMix::new(1000, 1000, 0.0));
    let out = sim(cfg, vec![grower, blocker], Box::new(DynamicAlloc))
        .max_restarts(3)
        .run();
    assert_eq!(out.stats.completed, 1, "only the blocker completes");
    assert_eq!(out.stats.failed_restarts, 1);
    assert!(
        out.stats.oom_kills >= 4,
        "cap+1 kills, got {}",
        out.stats.oom_kills
    );
}
