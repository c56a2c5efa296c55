//! Profiled application descriptions.
//!
//! The simulation methodology characterises each application by the
//! figures the contention model needs (paper §2.1): a sensitivity curve, a
//! contentiousness value (remote bandwidth at full performance), the
//! read/write ratio, and the size/runtime hints used to match synthetic
//! jobs to profiled applications (Fig. 3 steps 2–3).

use crate::sensitivity::SensitivityCurve;

/// Index of a profile inside its [`crate::ProfilePool`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProfileId(pub u32);

/// A profiled application: everything the contention model and the trace
/// matching pipeline need to know about one workload.
#[derive(Clone, Debug)]
pub struct AppProfile {
    /// Stable identifier within the pool.
    pub id: ProfileId,
    /// Human-readable name (synthetic pools generate e.g. `app-017`).
    pub name: String,
    /// Typical number of nodes this application runs on (matching hint).
    pub nodes_hint: u32,
    /// Typical runtime in seconds at full performance (matching hint).
    pub runtime_hint_s: f64,
    /// Contentiousness: memory bandwidth demand at full performance, in
    /// GB/s per node. When a fraction `r` of the job's memory is remote,
    /// the remote link sees `r * bandwidth_gbs` of demand from this job.
    pub bandwidth_gbs: f64,
    /// Fraction of memory traffic that is reads (0..=1). Reads stall the
    /// pipeline; profiles with higher read ratios get steeper curves in
    /// the synthetic pool.
    pub read_ratio: f64,
    /// Sensitivity of performance to remote-bandwidth pressure.
    pub sensitivity: SensitivityCurve,
}

impl AppProfile {
    /// Squared Euclidean distance between this profile's hints and a job's
    /// `(nodes, runtime)` in the normalised space used by the matching
    /// step. `node_scale` and `runtime_scale` are the normalisation
    /// constants (typically the max over the pool).
    pub fn match_distance2(
        &self,
        nodes: u32,
        runtime_s: f64,
        node_scale: f64,
        runtime_scale: f64,
    ) -> f64 {
        let dn = (self.nodes_hint as f64 - nodes as f64) / node_scale.max(1.0);
        let dr = (self.runtime_hint_s - runtime_s) / runtime_scale.max(1.0);
        dn * dn + dr * dr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(nodes: u32, runtime: f64) -> AppProfile {
        AppProfile {
            id: ProfileId(0),
            name: "t".into(),
            nodes_hint: nodes,
            runtime_hint_s: runtime,
            bandwidth_gbs: 5.0,
            read_ratio: 0.7,
            sensitivity: SensitivityCurve::insensitive(),
        }
    }

    #[test]
    fn distance_zero_for_exact_match() {
        let p = profile(8, 3600.0);
        assert_eq!(p.match_distance2(8, 3600.0, 128.0, 86_400.0), 0.0);
    }

    #[test]
    fn distance_grows_with_gap() {
        let p = profile(8, 3600.0);
        let near = p.match_distance2(9, 3600.0, 128.0, 86_400.0);
        let far = p.match_distance2(64, 3600.0, 128.0, 86_400.0);
        assert!(far > near);
    }

    #[test]
    fn distance_is_scale_normalised() {
        let p = profile(8, 3600.0);
        // A 1-node gap with scale 1 equals a 3600 s gap with scale 3600.
        let a = p.match_distance2(9, 3600.0, 1.0, 86_400.0);
        let b = p.match_distance2(8, 7200.0, 128.0, 3600.0);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn zero_scales_do_not_divide_by_zero() {
        let p = profile(8, 3600.0);
        let d = p.match_distance2(9, 3700.0, 0.0, 0.0);
        assert!(d.is_finite());
    }
}
