//! The policy trait surface between the runner and the memory
//! subsystem.
//!
//! The runner is policy-agnostic: every decision that differs between
//! the paper's Baseline / Static / Dynamic schemes goes through
//! [`MemoryPolicy`] — placement, growth planning, the Decider
//! comparison, whether a running job's allocation is actively managed,
//! and the fallback-to-static fairness ladder. A
//! [`PolicySpec`](crate::policy::PolicySpec) resolves to one of the
//! implementations here (or to an extension under [`crate::policy`])
//! via its `build` method and never reaches the runner itself.
//!
//! The Monitor→Decider→Actuator→Executor stages (§2.2, Fig. 1a) map
//! onto this surface as follows: the Monitor stays a pure sampler
//! ([`crate::dynmem::Monitor`]); the Decider is [`MemoryPolicy::decide`];
//! the Actuator's planning half is [`MemoryPolicy::plan_growth`] (the
//! ledger mutation half lives in [`crate::cluster::Cluster`]); the
//! Executor is the runner's speed/end-event refresh.

use crate::cluster::{Cluster, JobAlloc, NodeId};
use crate::dynmem::{decide, Decision};
use crate::policy::{place_exclusive_with, place_spread_with, plan_growth, PlacementScratch};

/// How a policy manages a running job's allocation over its lifetime.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemManagement {
    /// The allocation is pinned at the submission request; the only
    /// runtime memory event is the exceeded-request kill probe.
    Pinned,
    /// The Monitor→Decider→Actuator→Executor loop resizes the
    /// allocation to track actual usage.
    Managed,
}

/// The §2.2 fairness ladder: what the runner does to a job that an
/// escalating fault (irrecoverable degradation, Actuator retry
/// exhaustion) killed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultEscalation {
    /// Resubmit with the allocation pinned at the request
    /// (static-guaranteed), leaving the dynamic loop.
    DemoteToStatic,
    /// Resubmit at the head of the pending queue.
    BoostPriority,
}

/// A memory-allocation policy: everything the simulation runner needs
/// to place, resize, and recover jobs without knowing which of the
/// paper's schemes it is executing.
///
/// Implementations must be deterministic pure functions of their
/// arguments — the runner's bit-identical replay guarantee rests on it.
pub trait MemoryPolicy: std::fmt::Debug + Send + Sync {
    /// Short CLI-style name (`baseline`, `static`, `dynamic`, …).
    fn name(&self) -> &'static str;

    /// Place a job needing `nodes` nodes with `request_mb` per node,
    /// reading the cluster's incremental free-memory indexes. Returns
    /// the allocation to apply, or `None` if the job cannot start now.
    fn place(
        &self,
        cluster: &Cluster,
        nodes: u32,
        request_mb: u64,
        scratch: &mut PlacementScratch,
    ) -> Option<JobAlloc>;

    /// How the runner manages a job's memory while it runs.
    /// `static_mode` is true once the fairness ladder pinned the job's
    /// allocation; every policy must answer [`MemManagement::Pinned`]
    /// for it. `undersized` is true when
    /// [`size_request`](MemoryPolicy::size_request) placed the job below
    /// its submitted request, which lets a policy pin right-sized jobs
    /// but manage undersized ones (the predictive scheme).
    fn management(&self, static_mode: bool, undersized: bool) -> MemManagement;

    /// Size the per-node allocation the scheduler places for a job:
    /// the submitted request, or a policy-adjusted figure derived from
    /// `class_peak_mb` — the historical peak of completed jobs of the
    /// same application class (`None` until one completes). The default
    /// honours the request verbatim. The runner always pins a
    /// static-mode (fairness-ladder) job at its full request, so
    /// implementations never see that case.
    fn size_request(&self, request_mb: u64, class_peak_mb: Option<u64>) -> u64 {
        let _ = class_peak_mb;
        request_mb
    }

    /// The Decider (§2.2): compare the job's per-node allocations
    /// against the demand the Monitor sampled and decide what the
    /// Actuator must do. Only consulted for [`MemManagement::Managed`]
    /// jobs.
    fn decide(&self, entries: &[(NodeId, u64)], demand_mb: u64) -> Decision {
        decide(entries, demand_mb)
    }

    /// The Actuator's planning half: grow one compute-node entry by
    /// `need_mb`, local memory first, then borrows from the lenders
    /// with the most free memory. Also used by fault recovery to
    /// re-home revoked slices. Returns `(add_local, borrows)`, or
    /// `None` when the cluster cannot satisfy the demand (the
    /// out-of-memory case).
    fn plan_growth(
        &self,
        cluster: &Cluster,
        entry_node: NodeId,
        compute_ids: &[NodeId],
        need_mb: u64,
    ) -> Option<(u64, Vec<(NodeId, u64)>)> {
        plan_growth(cluster, entry_node, compute_ids, need_mb)
    }

    /// Which rung of the §2.2 fairness ladder an escalating fault kill
    /// lands on for a job currently in (or out of) static mode.
    fn fault_escalation(&self, static_mode: bool) -> FaultEscalation {
        let _ = static_mode;
        FaultEscalation::BoostPriority
    }

    /// Clone into a boxed trait object ([`Box<dyn MemoryPolicy>`] is
    /// `Clone` through this).
    fn clone_box(&self) -> Box<dyn MemoryPolicy>;
}

impl Clone for Box<dyn MemoryPolicy> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// No disaggregated memory: a job runs only on nodes whose whole DRAM
/// satisfies the request and gets each node's full memory exclusively.
#[derive(Clone, Copy, Debug, Default)]
pub struct Baseline;

impl MemoryPolicy for Baseline {
    fn name(&self) -> &'static str {
        "baseline"
    }

    fn place(
        &self,
        cluster: &Cluster,
        nodes: u32,
        request_mb: u64,
        scratch: &mut PlacementScratch,
    ) -> Option<JobAlloc> {
        place_exclusive_with(cluster, nodes, request_mb, scratch)
    }

    fn management(&self, _static_mode: bool, _undersized: bool) -> MemManagement {
        MemManagement::Pinned
    }

    fn clone_box(&self) -> Box<dyn MemoryPolicy> {
        Box::new(*self)
    }
}

/// Disaggregated memory with a fixed allocation equal to the submission
/// request (Zacarias et al., ICPADS'21): prefer nodes with enough free
/// memory, otherwise borrow the remainder from lender nodes.
#[derive(Clone, Copy, Debug, Default)]
pub struct StaticAlloc;

impl MemoryPolicy for StaticAlloc {
    fn name(&self) -> &'static str {
        "static"
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

    fn management(&self, _static_mode: bool, _undersized: bool) -> MemManagement {
        MemManagement::Pinned
    }

    fn clone_box(&self) -> Box<dyn MemoryPolicy> {
        Box::new(*self)
    }
}

/// This paper's scheme (§2.2): same initial placement as
/// [`StaticAlloc`], then the Monitor→Decider→Actuator→Executor loop
/// resizes the allocation to track actual usage. Growth is local-first
/// then remote; shrinking releases remote memory first.
#[derive(Clone, Copy, Debug, Default)]
pub struct DynamicAlloc;

impl MemoryPolicy for DynamicAlloc {
    fn name(&self) -> &'static str {
        "dynamic"
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

    fn management(&self, static_mode: bool, _undersized: bool) -> MemManagement {
        if static_mode {
            MemManagement::Pinned
        } else {
            MemManagement::Managed
        }
    }

    fn fault_escalation(&self, static_mode: bool) -> FaultEscalation {
        if static_mode {
            FaultEscalation::BoostPriority
        } else {
            FaultEscalation::DemoteToStatic
        }
    }

    fn clone_box(&self) -> Box<dyn MemoryPolicy> {
        Box::new(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn management_modes() {
        assert_eq!(Baseline.management(false, false), MemManagement::Pinned);
        assert_eq!(StaticAlloc.management(false, false), MemManagement::Pinned);
        assert_eq!(
            DynamicAlloc.management(false, false),
            MemManagement::Managed
        );
        // Static mode pins every policy.
        assert_eq!(DynamicAlloc.management(true, false), MemManagement::Pinned);
    }

    #[test]
    fn default_sizing_honours_the_request() {
        // The paper's three policies place exactly what was submitted,
        // with or without class history, and ignore the undersized hint.
        assert_eq!(StaticAlloc.size_request(4096, None), 4096);
        assert_eq!(StaticAlloc.size_request(4096, Some(1024)), 4096);
        assert_eq!(DynamicAlloc.size_request(4096, Some(9999)), 4096);
        assert_eq!(DynamicAlloc.management(false, true), MemManagement::Managed);
        assert_eq!(StaticAlloc.management(false, true), MemManagement::Pinned);
    }

    #[test]
    fn escalation_ladder() {
        // Dynamic jobs demote to a static-guaranteed allocation first,
        // then boost; pinned policies go straight to the boost rung.
        assert_eq!(
            DynamicAlloc.fault_escalation(false),
            FaultEscalation::DemoteToStatic
        );
        assert_eq!(
            DynamicAlloc.fault_escalation(true),
            FaultEscalation::BoostPriority
        );
        assert_eq!(
            StaticAlloc.fault_escalation(false),
            FaultEscalation::BoostPriority
        );
        assert_eq!(
            Baseline.fault_escalation(false),
            FaultEscalation::BoostPriority
        );
    }

    #[test]
    fn boxed_policies_clone() {
        let b: Box<dyn MemoryPolicy> = Box::new(DynamicAlloc);
        let c = b.clone();
        assert_eq!(c.name(), "dynamic");
        assert_eq!(Baseline.name(), "baseline");
        assert_eq!(StaticAlloc.name(), "static");
    }
}
