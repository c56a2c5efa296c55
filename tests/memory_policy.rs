//! The `MemoryPolicy` trait is the simulator's extension point: the
//! runner must route every policy-dependent decision — placement,
//! management mode, the Decider, growth planning, OOM response —
//! through the boxed trait object. These tests plug in out-of-tree mock
//! policies and verify each hook is exercised and honoured.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use dmhpc::core::cluster::{Cluster, JobAlloc, MemoryMix, NodeId};
use dmhpc::core::config::SystemConfig;
use dmhpc::core::dynmem::{decide, Decision};
use dmhpc::core::job::{Job, JobId, MemoryUsageTrace};
use dmhpc::core::policy::{
    place_spread_reference, place_spread_with, plan_growth, plan_growth_reference,
    PlacementScratch, PolicySpec,
};
use dmhpc::core::sim::{
    DynamicAlloc, MemManagement, MemoryPolicy, SimBuilder, StaticAlloc, Workload,
};
use dmhpc::model::{ProfileId, ProfilePool};

#[derive(Debug, Default)]
struct Counters {
    place: AtomicUsize,
    management: AtomicUsize,
    decide: AtomicUsize,
    plan_growth: AtomicUsize,
}

/// Spread placement with managed (or pinned) allocations, counting
/// every hook invocation. Clones share the counters, so the runner's
/// internal `clone_box` calls keep accumulating into the same tallies.
#[derive(Clone, Debug)]
struct CountingPolicy {
    counters: Arc<Counters>,
    managed: bool,
}

impl CountingPolicy {
    fn new(managed: bool) -> (Self, Arc<Counters>) {
        let counters = Arc::new(Counters::default());
        (
            Self {
                counters: Arc::clone(&counters),
                managed,
            },
            counters,
        )
    }
}

impl MemoryPolicy for CountingPolicy {
    fn name(&self) -> &'static str {
        "counting"
    }

    fn place(
        &self,
        cluster: &Cluster,
        nodes: u32,
        request_mb: u64,
        scratch: &mut PlacementScratch,
    ) -> Option<JobAlloc> {
        self.counters.place.fetch_add(1, Ordering::Relaxed);
        place_spread_with(cluster, nodes, request_mb, scratch)
    }

    fn place_reference(&self, cluster: &Cluster, nodes: u32, request_mb: u64) -> Option<JobAlloc> {
        self.counters.place.fetch_add(1, Ordering::Relaxed);
        place_spread_reference(cluster, nodes, request_mb)
    }

    fn management(&self, static_mode: bool) -> MemManagement {
        self.counters.management.fetch_add(1, Ordering::Relaxed);
        if self.managed && !static_mode {
            MemManagement::Managed
        } else {
            MemManagement::Pinned
        }
    }

    fn decide(&self, entries: &[(NodeId, u64)], demand_mb: u64) -> Decision {
        self.counters.decide.fetch_add(1, Ordering::Relaxed);
        decide(entries, demand_mb)
    }

    fn plan_growth(
        &self,
        cluster: &Cluster,
        entry_node: NodeId,
        compute_ids: &[NodeId],
        need_mb: u64,
        reference: bool,
    ) -> Option<(u64, Vec<(NodeId, u64)>)> {
        self.counters.plan_growth.fetch_add(1, Ordering::Relaxed);
        if reference {
            plan_growth_reference(cluster, entry_node, compute_ids, need_mb)
        } else {
            plan_growth(cluster, entry_node, compute_ids, need_mb)
        }
    }

    fn clone_box(&self) -> Box<dyn MemoryPolicy> {
        Box::new(self.clone())
    }
}

/// A managed policy whose growth planner always refuses: every needed
/// grow becomes an out-of-memory event.
#[derive(Clone, Debug)]
struct DenyGrowth;

impl MemoryPolicy for DenyGrowth {
    fn name(&self) -> &'static str {
        "deny-growth"
    }

    fn place(
        &self,
        cluster: &Cluster,
        nodes: u32,
        request_mb: u64,
        scratch: &mut PlacementScratch,
    ) -> Option<JobAlloc> {
        place_spread_with(cluster, nodes, request_mb, scratch)
    }

    fn place_reference(&self, cluster: &Cluster, nodes: u32, request_mb: u64) -> Option<JobAlloc> {
        place_spread_reference(cluster, nodes, request_mb)
    }

    fn management(&self, static_mode: bool) -> MemManagement {
        if static_mode {
            MemManagement::Pinned
        } else {
            MemManagement::Managed
        }
    }

    fn plan_growth(
        &self,
        _cluster: &Cluster,
        _entry_node: NodeId,
        _compute_ids: &[NodeId],
        _need_mb: u64,
        _reference: bool,
    ) -> Option<(u64, Vec<(NodeId, u64)>)> {
        None
    }

    fn clone_box(&self) -> Box<dyn MemoryPolicy> {
        Box::new(self.clone())
    }
}

fn job(id: u32, runtime: f64, request_mb: u64, usage: MemoryUsageTrace) -> Job {
    Job {
        id: JobId(id),
        submit_s: 0.0,
        nodes: 1,
        base_runtime_s: runtime,
        time_limit_s: runtime * 4.0,
        mem_request_mb: request_mb,
        usage,
        profile: ProfileId(0),
    }
}

fn two_node_cfg() -> SystemConfig {
    SystemConfig::with_nodes(2).with_memory_mix(MemoryMix::new(2000, 2000, 0.0))
}

fn workload(jobs: Vec<Job>) -> Workload {
    Workload::try_new(jobs, ProfilePool::synthetic(4, 7)).unwrap()
}

#[test]
fn managed_mock_policy_drives_all_hooks() {
    // Ramping usage forces the full loop: the first update shrinks the
    // oversized request, later updates must grow it back.
    let ramp = MemoryUsageTrace::new(vec![(0.0, 200), (0.5, 1500)]).unwrap();
    let (policy, counters) = CountingPolicy::new(true);
    let out = SimBuilder::new(
        two_node_cfg(),
        workload(vec![job(0, 4000.0, 1600, ramp.clone())]),
    )
    .policy_impl(Box::new(policy))
    // The dynloop fast path elides Decider calls it can prove would
    // hold; the reference twin decides on every update, which is the
    // per-update hook contract this test counts.
    .reference_dynloop(true)
    .run();
    assert_eq!(out.stats.completed, 1);
    assert!(out.feasible);
    // Feasibility screen + scheduling pass both place.
    assert!(counters.place.load(Ordering::Relaxed) >= 2);
    // start_job and every memory update consult the management mode.
    assert!(counters.management.load(Ordering::Relaxed) >= 2);
    // A 4000 s job at ~300 s update intervals sees many Decider calls.
    assert!(counters.decide.load(Ordering::Relaxed) >= 5);
    // The ramp guarantees at least one grow was planned.
    assert!(counters.plan_growth.load(Ordering::Relaxed) >= 1);

    // With the fast path on (the default), the Decider still runs
    // whenever the sampled demand or the allocation actually changed —
    // the ramp forces at least the initial shrink and the later growth.
    let (policy, fast_counters) = CountingPolicy::new(true);
    let fast = SimBuilder::new(two_node_cfg(), workload(vec![job(0, 4000.0, 1600, ramp)]))
        .policy_impl(Box::new(policy))
        .run();
    assert_eq!(fast, out, "fast path must be outcome-identical");
    let fast_decides = fast_counters.decide.load(Ordering::Relaxed);
    assert!(fast_decides >= 2, "got {fast_decides}");
    assert!(fast_decides < counters.decide.load(Ordering::Relaxed));
}

#[test]
fn pinned_mock_policy_matches_static_alloc_exactly() {
    // A mock that answers Pinned with spread placement is
    // indistinguishable from the in-tree static policy: the runner has
    // no policy knowledge outside the trait surface, so the outcomes
    // must be bit-identical.
    let jobs: Vec<Job> = (0..6)
        .map(|i| {
            job(
                i,
                600.0 + 50.0 * f64::from(i),
                900 + 100 * u64::from(i),
                MemoryUsageTrace::flat(800),
            )
        })
        .collect();
    let (policy, _) = CountingPolicy::new(false);
    let mock = SimBuilder::new(two_node_cfg(), workload(jobs.clone()))
        .policy_impl(Box::new(policy))
        .seed(11)
        .run();
    let reference = SimBuilder::new(two_node_cfg(), workload(jobs))
        .policy_impl(Box::new(StaticAlloc))
        .seed(11)
        .run();
    assert_eq!(mock, reference);
}

#[test]
fn oom_hook_routes_through_policy_growth_plan() {
    // DenyGrowth refuses every grow, so the ramping job OOMs on its
    // first needed grow, restarts, and eventually trips the restart cap
    // — proving the runner takes its OOM decision from the policy.
    let ramp = MemoryUsageTrace::new(vec![(0.0, 200), (0.5, 1500)]).unwrap();
    let out = SimBuilder::new(two_node_cfg(), workload(vec![job(0, 4000.0, 1600, ramp)]))
        .policy_impl(Box::new(DenyGrowth))
        .max_restarts(2)
        .run();
    assert_eq!(out.stats.completed, 0);
    assert!(out.stats.oom_kills >= 3, "got {}", out.stats.oom_kills);
    assert_eq!(out.stats.failed_restarts, 1);
}

/// The mixed workload the equivalence goldens run: flat and ramping
/// usage, varied requests, enough jobs to force queueing on two nodes.
fn golden_jobs() -> Vec<Job> {
    (0..6)
        .map(|i| {
            let usage = if i % 2 == 0 {
                MemoryUsageTrace::flat(700 + 50 * u64::from(i))
            } else {
                MemoryUsageTrace::new(vec![(0.0, 300), (0.5, 900 + 40 * u64::from(i))]).unwrap()
            };
            job(
                i,
                600.0 + 50.0 * f64::from(i),
                1000 + 100 * u64::from(i),
                usage,
            )
        })
        .collect()
}

fn golden_run(policy: Box<dyn MemoryPolicy>) -> dmhpc::core::sim::SimulationOutcome {
    SimBuilder::new(two_node_cfg(), workload(golden_jobs()))
        .policy_impl(policy)
        .seed(11)
        .run()
}

#[test]
fn predictive_without_history_matches_static_exactly() {
    // With history off, Predictive sizes every allocation at the full
    // request and pins it — there is nothing left to distinguish it
    // from the static policy, so the outcomes must be bit-identical.
    let predictive = golden_run(PolicySpec::Predictive { history: false }.build());
    let reference = golden_run(Box::new(StaticAlloc));
    assert_eq!(predictive, reference);
}

#[test]
fn overcommit_unit_factor_matches_dynamic_exactly() {
    // factor=1.0 sizes admission at exactly the request; every other
    // hook equals DynamicAlloc, so the bet-free overcommit run must be
    // bit-identical to the dynamic policy.
    let overcommit = golden_run(PolicySpec::Overcommit { factor: 1.0 }.build());
    let reference = golden_run(Box::new(DynamicAlloc));
    assert_eq!(overcommit, reference);
}

#[test]
fn conservative_unit_quantum_matches_dynamic_exactly() {
    // quantum=1 MB collapses the hysteresis band and the growth padding
    // to the dynamic policy's exact-fit behaviour.
    let conservative = golden_run(PolicySpec::Conservative { quantum_mb: 1 }.build());
    let reference = golden_run(Box::new(DynamicAlloc));
    assert_eq!(conservative, reference);
}

#[test]
fn boxed_policies_clone_and_debug() {
    let (policy, counters) = CountingPolicy::new(true);
    let boxed: Box<dyn MemoryPolicy> = Box::new(policy);
    let cloned = boxed.clone();
    assert_eq!(cloned.name(), "counting");
    assert!(format!("{cloned:?}").contains("CountingPolicy"));
    // Clones share the counter state (Arc), as the runner relies on.
    cloned.management(false);
    assert_eq!(counters.management.load(Ordering::Relaxed), 1);
}
