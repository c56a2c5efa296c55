//! The contention model: remote fraction × sensitivity(pressure).
//!
//! Given a job whose memory is partly remote, the model computes the job's
//! slowdown as
//!
//! ```text
//! slowdown = 1 + remote_fraction × (sensitivity(pressure) − 1)
//! ```
//!
//! where `pressure` is the aggregate remote bandwidth demand on the most
//! loaded link the job borrows from, divided by the link capacity. With a
//! fully local job (`remote_fraction = 0`) the slowdown is exactly 1; with
//! a fully remote job it is the raw curve value. This is the
//! interpolation the SC-W'23 evaluation relies on: remote accesses do not
//! create *cache* contention in the disaggregated system, only latency and
//! bandwidth effects (paper §2.1), so scaling by the remote fraction is
//! the right first-order composition.

use crate::profile::AppProfile;

/// Remote-access situation of one job at one instant, as seen by the
/// simulator's memory ledger.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RemoteAccess {
    /// Fraction of the job's allocated memory that is remote, in `[0, 1]`.
    pub remote_fraction: f64,
    /// Aggregate bandwidth demand on the hottest remote link the job
    /// uses, divided by that link's capacity. 0 when nothing is remote.
    pub pressure: f64,
}

impl RemoteAccess {
    /// A fully local job: no remote memory, no pressure.
    pub const LOCAL: RemoteAccess = RemoteAccess {
        remote_fraction: 0.0,
        pressure: 0.0,
    };
}

/// Parameters of the cluster-wide contention model.
///
/// ```
/// use dmhpc_model::{ContentionModel, ProfilePool, RemoteAccess};
///
/// let model = ContentionModel::default();
/// let pool = ProfilePool::synthetic(8, 1);
/// let profile = &pool.profiles()[0];
/// // Fully local jobs never slow down…
/// assert_eq!(model.slowdown(profile, RemoteAccess::LOCAL), 1.0);
/// // …and slowdown grows with the remote fraction.
/// let quarter = model.slowdown(profile, RemoteAccess { remote_fraction: 0.25, pressure: 0.5 });
/// let half = model.slowdown(profile, RemoteAccess { remote_fraction: 0.5, pressure: 0.5 });
/// assert!(half >= quarter && quarter >= 1.0);
/// ```
#[derive(Clone, Debug)]
pub struct ContentionModel {
    /// Capacity of one node's remote-memory link in GB/s. The Grizzly-era
    /// interconnect (Intel Omni-Path, 100 Gb/s) gives 12.5 GB/s per
    /// direction, which is the default.
    pub link_capacity_gbs: f64,
}

impl Default for ContentionModel {
    fn default() -> Self {
        Self {
            link_capacity_gbs: 12.5,
        }
    }
}

impl ContentionModel {
    /// Create a model with an explicit link capacity.
    ///
    /// # Panics
    /// Panics if the capacity is not strictly positive.
    pub fn new(link_capacity_gbs: f64) -> Self {
        assert!(
            link_capacity_gbs > 0.0,
            "link capacity must be positive, got {link_capacity_gbs}"
        );
        Self { link_capacity_gbs }
    }

    /// Convert an aggregate demand in GB/s into a pressure value.
    #[inline]
    pub fn pressure(&self, aggregate_demand_gbs: f64) -> f64 {
        (aggregate_demand_gbs / self.link_capacity_gbs).max(0.0)
    }

    /// Slowdown multiplier (≥ 1) for `profile` under `access`.
    pub fn slowdown(&self, profile: &AppProfile, access: RemoteAccess) -> f64 {
        let r = access.remote_fraction.clamp(0.0, 1.0);
        if r == 0.0 {
            return 1.0;
        }
        let curve = profile.sensitivity.slowdown(access.pressure);
        1.0 + r * (curve - 1.0)
    }

    /// The bandwidth demand this job contributes to the remote links it
    /// borrows from, in GB/s: its contentiousness scaled by how much of
    /// its footprint is remote.
    #[inline]
    pub fn remote_demand_gbs(&self, profile: &AppProfile, remote_fraction: f64) -> f64 {
        profile.bandwidth_gbs * remote_fraction.clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ProfileId;
    use crate::sensitivity::SensitivityCurve;

    fn profile_with_curve(curve: SensitivityCurve) -> AppProfile {
        AppProfile {
            id: ProfileId(1),
            name: "p".into(),
            nodes_hint: 4,
            runtime_hint_s: 100.0,
            bandwidth_gbs: 10.0,
            read_ratio: 0.6,
            sensitivity: curve,
        }
    }

    #[test]
    fn local_job_never_slows() {
        let m = ContentionModel::default();
        let p = profile_with_curve(SensitivityCurve::kneed(1.5, 0.8, 4.0));
        assert_eq!(m.slowdown(&p, RemoteAccess::LOCAL), 1.0);
    }

    #[test]
    fn fully_remote_equals_curve() {
        let m = ContentionModel::default();
        let c = SensitivityCurve::new(vec![(0.0, 1.4), (1.0, 2.0)]).unwrap();
        let p = profile_with_curve(c.clone());
        let acc = RemoteAccess {
            remote_fraction: 1.0,
            pressure: 0.5,
        };
        assert!((m.slowdown(&p, acc) - c.slowdown(0.5)).abs() < 1e-12);
    }

    #[test]
    fn half_remote_is_midpoint() {
        let m = ContentionModel::default();
        let c = SensitivityCurve::new(vec![(0.0, 2.0)]).unwrap();
        let p = profile_with_curve(c);
        let acc = RemoteAccess {
            remote_fraction: 0.5,
            pressure: 0.0,
        };
        assert!((m.slowdown(&p, acc) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn slowdown_monotone_in_pressure() {
        let m = ContentionModel::default();
        let p = profile_with_curve(SensitivityCurve::kneed(1.1, 0.9, 3.0));
        let mut prev = 0.0;
        for i in 0..50 {
            let acc = RemoteAccess {
                remote_fraction: 0.7,
                pressure: i as f64 * 0.1,
            };
            let s = m.slowdown(&p, acc);
            assert!(s >= prev);
            prev = s;
        }
    }

    #[test]
    fn remote_fraction_clamped() {
        let m = ContentionModel::default();
        let p = profile_with_curve(SensitivityCurve::new(vec![(0.0, 3.0)]).unwrap());
        let over = RemoteAccess {
            remote_fraction: 2.0,
            pressure: 0.0,
        };
        assert!((m.slowdown(&p, over) - 3.0).abs() < 1e-12);
        let under = RemoteAccess {
            remote_fraction: -1.0,
            pressure: 0.0,
        };
        assert_eq!(m.slowdown(&p, under), 1.0);
    }

    #[test]
    fn pressure_from_demand() {
        let m = ContentionModel::new(10.0);
        assert!((m.pressure(25.0) - 2.5).abs() < 1e-12);
        assert_eq!(m.pressure(-3.0), 0.0);
    }

    #[test]
    fn remote_demand_scales_with_fraction() {
        let m = ContentionModel::default();
        let p = profile_with_curve(SensitivityCurve::insensitive());
        assert!((m.remote_demand_gbs(&p, 0.25) - 2.5).abs() < 1e-12);
        assert_eq!(m.remote_demand_gbs(&p, 0.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        ContentionModel::new(0.0);
    }
}
