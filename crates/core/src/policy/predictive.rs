//! The predictive allocation policy: size allocations from the
//! historical peak of the job's application class instead of the user
//! request.
//!
//! HPC users systematically overestimate their memory needs (the
//! paper's Fig. 5 sweeps that overestimation explicitly), but job
//! footprints within an application class are predictable from history
//! — the same observation that lets Borg schedule against *expected*
//! rather than requested usage. The runner accumulates the per-class
//! peak of completed jobs; this policy places each job at
//! `min(request, class_peak)` and falls back to the request when no
//! job of the class has completed yet (or when `history` is off).
//!
//! A job placed below its request is actively managed: the Decider
//! grows the allocation when the true demand outpaces the historical
//! floor, but never shrinks below it — the floor is already the class's
//! known footprint, so shrink/re-grow churn against it would only add
//! Actuator traffic. A job placed at its full request is pinned, which
//! makes `predictive:history=off` bit-identical to the static policy.

use crate::cluster::{Cluster, JobAlloc, NodeId};
use crate::dynmem::Decision;
use crate::policy::{place_spread_with, PlacementScratch};
use crate::sim::hooks::{FaultEscalation, MemManagement, MemoryPolicy};

/// Disaggregated placement sized from class history (see the module
/// docs). `history = false` disables the lookup entirely, reducing the
/// policy to the static scheme.
#[derive(Clone, Copy, Debug)]
pub struct Predictive {
    /// Whether to consult the per-class peak history when sizing.
    pub history: bool,
}

impl Default for Predictive {
    fn default() -> Self {
        Self { history: true }
    }
}

impl MemoryPolicy for Predictive {
    fn name(&self) -> &'static str {
        "predictive"
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

    fn size_request(&self, request_mb: u64, class_peak_mb: Option<u64>) -> u64 {
        match class_peak_mb {
            // The request stays an upper bound: history never sizes a
            // job *above* what the user asked (and paid) for.
            Some(peak) if self.history => request_mb.min(peak),
            _ => request_mb,
        }
    }

    fn management(&self, static_mode: bool, undersized: bool) -> MemManagement {
        // Right-sized (or history-off) jobs are pinned; only undersized
        // ones run the dynamic loop.
        if static_mode || !undersized {
            MemManagement::Pinned
        } else {
            MemManagement::Managed
        }
    }

    fn decide(&self, entries: &[(NodeId, u64)], demand_mb: u64) -> Decision {
        // Growth-only Decider: the initial allocation is the class's
        // historical floor, so only demand above it actuates.
        Decision {
            shrink_to_mb: None,
            grows: entries
                .iter()
                .filter(|&&(_, alloc_mb)| alloc_mb < demand_mb)
                .map(|&(node, alloc_mb)| (node, demand_mb - alloc_mb))
                .collect(),
        }
    }

    fn fault_escalation(&self, static_mode: bool) -> FaultEscalation {
        if self.history && !static_mode {
            FaultEscalation::DemoteToStatic
        } else {
            FaultEscalation::BoostPriority
        }
    }

    fn clone_box(&self) -> Box<dyn MemoryPolicy> {
        Box::new(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn sizes_from_history_capped_by_request() {
        let p = Predictive::default();
        assert_eq!(p.size_request(4096, None), 4096, "no history: request");
        assert_eq!(p.size_request(4096, Some(1500)), 1500);
        assert_eq!(p.size_request(4096, Some(9000)), 4096, "request is a cap");
        let off = Predictive { history: false };
        assert_eq!(off.size_request(4096, Some(1500)), 4096);
    }

    #[test]
    fn management_tracks_undersizing() {
        let p = Predictive::default();
        assert_eq!(p.management(false, true), MemManagement::Managed);
        assert_eq!(p.management(false, false), MemManagement::Pinned);
        // The fairness ladder pins regardless of sizing.
        assert_eq!(p.management(true, true), MemManagement::Pinned);
    }

    #[test]
    fn decider_grows_but_never_shrinks() {
        let p = Predictive::default();
        let d = p.decide(&[(n(0), 1000), (n(1), 400)], 700);
        assert_eq!(d.shrink_to_mb, None, "no shrink below the floor");
        assert_eq!(d.grows, vec![(n(1), 300)]);
        assert!(p.decide(&[(n(0), 1000)], 700).is_hold());
    }

    #[test]
    fn escalation_matches_management_style() {
        // With history the job may run managed, so the ladder demotes
        // first; history-off behaves exactly like the static policy.
        let p = Predictive::default();
        assert_eq!(p.fault_escalation(false), FaultEscalation::DemoteToStatic);
        assert_eq!(p.fault_escalation(true), FaultEscalation::BoostPriority);
        let off = Predictive { history: false };
        assert_eq!(off.fault_escalation(false), FaultEscalation::BoostPriority);
    }
}
