//! The overcommit allocation policy: admit jobs against expected usage
//! — the request scaled by a constant `factor` — instead of the full
//! request, and let the OOM kill-and-resubmit ladder absorb the cases
//! where the bet loses.
//!
//! With users overestimating requests by tens of percent (Fig. 5's
//! sweep axis), scheduling against `factor × request` packs more jobs
//! onto the same pool. The job runs under the same
//! Monitor→Decider→Actuator loop as the dynamic policy, so a job whose
//! true demand exceeds its scaled admission simply grows — the bet
//! only loses when the *cluster* cannot satisfy the growth, which
//! lands on the existing OOM ladder (F/R or C/R resubmission,
//! escalating to a pinned static-guaranteed allocation). `factor = 1`
//! is bit-identical to the dynamic policy.

use crate::cluster::{Cluster, JobAlloc};
use crate::policy::{place_spread_with, PlacementScratch};
use crate::sim::hooks::{FaultEscalation, MemManagement, MemoryPolicy};

/// Dynamic disaggregated allocation admitted at `factor × request`
/// (see the module docs).
#[derive(Clone, Copy, Debug)]
pub struct Overcommit {
    /// Scale applied to the submitted request at admission time.
    /// `< 1` overcommits the pool; `> 1` pads it. Must be positive and
    /// finite.
    pub factor: f64,
}

impl Default for Overcommit {
    fn default() -> Self {
        Self { factor: 0.8 }
    }
}

impl MemoryPolicy for Overcommit {
    fn name(&self) -> &'static str {
        "overcommit"
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

    fn size_request(&self, request_mb: u64, _class_peak_mb: Option<u64>) -> u64 {
        // Round-to-nearest keeps `factor = 1.0` an exact identity, the
        // basis of the bit-identical-to-dynamic equivalence golden.
        (request_mb as f64 * self.factor).round() as u64
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
    fn scales_the_request() {
        let p = Overcommit { factor: 0.8 };
        assert_eq!(p.size_request(1000, None), 800);
        assert_eq!(p.size_request(1000, Some(5000)), 800, "history ignored");
        // Rounds to nearest, not down.
        assert_eq!(p.size_request(999, None), 799);
        let pad = Overcommit { factor: 1.5 };
        assert_eq!(pad.size_request(1000, None), 1500);
    }

    #[test]
    fn unit_factor_is_identity() {
        let p = Overcommit { factor: 1.0 };
        for req in [0u64, 1, 999, 4096, 130_046] {
            assert_eq!(p.size_request(req, None), req);
        }
    }

    #[test]
    fn manages_like_dynamic() {
        let p = Overcommit::default();
        assert_eq!(p.management(false, false), MemManagement::Managed);
        assert_eq!(p.management(true, false), MemManagement::Pinned);
        assert_eq!(p.fault_escalation(false), FaultEscalation::DemoteToStatic);
        assert_eq!(p.fault_escalation(true), FaultEscalation::BoostPriority);
    }
}
