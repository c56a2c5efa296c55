//! The conservative-growth allocation policy: resize in `quantum_mb`
//! steps instead of tracking demand exactly, trading pool headroom for
//! fewer Actuator round-trips.
//!
//! Every resize is a real Monitor→Decider→Actuator→Executor round trip
//! (Fig. 1a) — the loop cost the paper identifies as the dynamic
//! scheme's operational overhead, and what the Actuator retry
//! histogram and `MemGrow` trace counts measure. Growing in quanta
//! over-provisions each grow so the next small demand increase is
//! already covered, and the Decider holds instead of shrinking until
//! the surplus reaches a full quantum. `quantum = 1` MB degenerates to
//! exact tracking and is bit-identical to the dynamic policy.

use crate::cluster::{Cluster, JobAlloc, NodeId};
use crate::dynmem::Decision;
use crate::policy::{place_spread_with, plan_growth, PlacementScratch};
use crate::sim::hooks::{FaultEscalation, MemManagement, MemoryPolicy};

/// Dynamic disaggregated allocation that grows and shrinks in
/// `quantum_mb` steps (see the module docs).
#[derive(Clone, Copy, Debug)]
pub struct ConservativeGrowth {
    /// Resize granularity in MB. Growth is padded up to a multiple of
    /// this; shrinking waits until the surplus reaches it. Must be at
    /// least 1.
    pub quantum_mb: u64,
}

impl Default for ConservativeGrowth {
    fn default() -> Self {
        Self { quantum_mb: 4096 }
    }
}

impl MemoryPolicy for ConservativeGrowth {
    fn name(&self) -> &'static str {
        "conservative"
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

    fn decide(&self, entries: &[(NodeId, u64)], demand_mb: u64) -> Decision {
        // Hysteresis: hold until the surplus reaches a full quantum, so
        // a grow padded by `plan_growth` below is not immediately
        // clawed back. With quantum = 1 the condition collapses to
        // `alloc > demand` — exactly the dynamic Decider.
        let mut shrink = false;
        let mut grows = Vec::new();
        for &(node, alloc_mb) in entries {
            if alloc_mb >= demand_mb.saturating_add(self.quantum_mb) {
                shrink = true;
            } else if alloc_mb < demand_mb {
                grows.push((node, demand_mb - alloc_mb));
            }
        }
        Decision {
            shrink_to_mb: shrink.then_some(demand_mb),
            grows,
        }
    }

    fn plan_growth(
        &self,
        cluster: &Cluster,
        entry_node: NodeId,
        compute_ids: &[NodeId],
        need_mb: u64,
    ) -> Option<(u64, Vec<(NodeId, u64)>)> {
        let plan = |mb: u64| plan_growth(cluster, entry_node, compute_ids, mb);
        let padded = need_mb.div_ceil(self.quantum_mb) * self.quantum_mb;
        // The padding is an optimisation, not a requirement: when the
        // pool cannot spare a full quantum, fall back to the exact need
        // rather than manufacture a spurious OOM.
        match plan(padded) {
            Some(p) => Some(p),
            None if padded > need_mb => plan(need_mb),
            None => None,
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
    use crate::cluster::{AllocEntry, Cluster, JobAlloc};
    use crate::dynmem::decide;
    use crate::job::JobId;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn holds_inside_the_quantum_band() {
        let p = ConservativeGrowth { quantum_mb: 1000 };
        // Surplus of 999 < quantum: hold.
        assert!(p.decide(&[(n(0), 1499)], 500).is_hold());
        // Surplus of exactly one quantum: shrink to demand.
        let d = p.decide(&[(n(0), 1500)], 500);
        assert_eq!(d.shrink_to_mb, Some(500));
        // Below demand always grows (by the exact deficit; padding is
        // plan_growth's job).
        let d = p.decide(&[(n(0), 200)], 500);
        assert_eq!(d.grows, vec![(n(0), 300)]);
    }

    #[test]
    fn unit_quantum_matches_dynamic_decider() {
        let p = ConservativeGrowth { quantum_mb: 1 };
        for demand in [0u64, 100, 500, 900] {
            let entries = [(n(0), 800), (n(1), 300), (n(2), 500)];
            assert_eq!(p.decide(&entries, demand), decide(&entries, demand));
        }
    }

    #[test]
    fn growth_pads_to_quantum_with_exact_fallback() {
        let p = ConservativeGrowth { quantum_mb: 600 };
        let mut c = Cluster::new(vec![2000; 2], 0.5);
        c.start_job(
            JobId(1),
            JobAlloc {
                entries: vec![AllocEntry {
                    node: n(0),
                    local_mb: 1000,
                    remote: vec![],
                }],
            },
            1.0,
        );
        // Need 100 → padded to 600, which fits locally.
        let (local, borrows) = p.plan_growth(&c, n(0), &[n(0)], 100).unwrap();
        assert_eq!(local + borrows.iter().map(|&(_, m)| m).sum::<u64>(), 600);
        // Fill the pool so only 150 MB remain anywhere.
        c.start_job(
            JobId(2),
            JobAlloc {
                entries: vec![AllocEntry {
                    node: n(1),
                    local_mb: 2000,
                    remote: vec![(n(0), 850)],
                }],
            },
            1.0,
        );
        // A full quantum no longer fits; the exact need of 100 must.
        let (local, borrows) = p.plan_growth(&c, n(0), &[n(0)], 100).unwrap();
        assert_eq!(local + borrows.iter().map(|&(_, m)| m).sum::<u64>(), 100);
        // And a need the pool truly cannot meet still reports OOM.
        assert!(p.plan_growth(&c, n(0), &[n(0)], 500).is_none());
    }

    #[test]
    fn manages_like_dynamic() {
        let p = ConservativeGrowth::default();
        assert_eq!(p.management(false, false), MemManagement::Managed);
        assert_eq!(p.management(true, false), MemManagement::Pinned);
        assert_eq!(p.fault_escalation(false), FaultEscalation::DemoteToStatic);
    }
}
