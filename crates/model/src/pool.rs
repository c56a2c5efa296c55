//! Synthetic pool of profiled applications.
//!
//! The paper's methodology keeps a pool of applications that were profiled
//! on real hardware (size, runtime, memory bandwidth, read/write ratio,
//! sensitivity). That pool is proprietary to the authors' testbed, so we
//! generate a synthetic pool spanning the same parameter space:
//!
//! * node counts follow the power-of-two-biased distribution of HPC jobs;
//! * runtimes are log-normal (minutes to a day);
//! * bandwidth demand is uniform over 1–11 GB/s per node, covering both
//!   compute-bound and bandwidth-bound codes;
//! * sensitivity curves use the kneed family: latency penalty 1.02–1.6×,
//!   contention slope correlated with bandwidth demand and read ratio
//!   (bandwidth-hungry, read-heavy codes suffer most from a saturated
//!   link, mirroring the measured curves in the CF'20 paper).
//!
//! Matching (Fig. 3 step 3) is nearest-neighbour in normalised
//! `(nodes, runtime)` space via [`ProfilePool::match_job`].

use crate::profile::{AppProfile, ProfileId};
use crate::rng::Rng64;
use crate::sensitivity::SensitivityCurve;

/// A pool of application profiles plus cached normalisation constants for
/// nearest-neighbour matching.
#[derive(Clone, Debug)]
pub struct ProfilePool {
    profiles: Vec<AppProfile>,
    node_scale: f64,
    runtime_scale: f64,
}

impl ProfilePool {
    /// Build a pool from explicit profiles.
    ///
    /// # Panics
    /// Panics if `profiles` is empty (matching would be undefined).
    pub fn new(profiles: Vec<AppProfile>) -> Self {
        assert!(!profiles.is_empty(), "profile pool cannot be empty");
        let node_scale = profiles
            .iter()
            .map(|p| p.nodes_hint as f64)
            .fold(1.0, f64::max);
        let runtime_scale = profiles
            .iter()
            .map(|p| p.runtime_hint_s)
            .fold(1.0, f64::max);
        Self {
            profiles,
            node_scale,
            runtime_scale,
        }
    }

    /// Generate a synthetic pool of `n` profiles, deterministic in `seed`.
    pub fn synthetic(n: usize, seed: u64) -> Self {
        assert!(n > 0, "pool size must be positive");
        let mut rng = Rng64::stream(seed, 0xB00);
        let mut profiles = Vec::with_capacity(n);
        for i in 0..n {
            let power = rng.range_u64(0, 7); // 1..=128 nodes
            let jitter = rng.chance(0.3);
            let mut nodes = 1u32 << power;
            if jitter && nodes > 1 {
                // Some codes run on non-power-of-two node counts.
                nodes = nodes - (rng.below(nodes as u64 / 2) as u32);
            }
            // Runtime: log-normal centred on ~1 h, spanning ~2 min–24 h.
            let runtime = rng.lognormal(8.2, 1.3).clamp(120.0, 86_400.0);
            let bandwidth = rng.range_f64(1.0, 11.0);
            let read_ratio = rng.range_f64(0.4, 0.95);
            // Latency penalty: memory-intensity proxy = bandwidth/11.
            let intensity = bandwidth / 11.0;
            let base = 1.02 + 0.58 * intensity * rng.range_f64(0.6, 1.0);
            let knee = rng.range_f64(0.7, 0.95);
            let slope = (0.5 + 3.5 * intensity) * (0.5 + read_ratio);
            profiles.push(AppProfile {
                id: ProfileId(i as u32),
                name: format!("app-{i:03}"),
                nodes_hint: nodes.max(1),
                runtime_hint_s: runtime,
                bandwidth_gbs: bandwidth,
                read_ratio,
                sensitivity: SensitivityCurve::kneed(base, knee, slope),
            });
        }
        Self::new(profiles)
    }

    /// Number of profiles in the pool.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Whether the pool is empty (never true for a constructed pool).
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// All profiles.
    pub fn profiles(&self) -> &[AppProfile] {
        &self.profiles
    }

    /// Profile lookup by id.
    ///
    /// # Panics
    /// Panics if the id does not belong to this pool.
    pub fn get(&self, id: ProfileId) -> &AppProfile {
        &self.profiles[id.0 as usize]
    }

    /// Match a job to the nearest profile in normalised `(nodes, runtime)`
    /// space (Fig. 3 step 3). Ties break towards the lower profile id,
    /// which keeps matching deterministic.
    pub fn match_job(&self, nodes: u32, runtime_s: f64) -> ProfileId {
        let mut best = ProfileId(0);
        let mut best_d = f64::INFINITY;
        for p in &self.profiles {
            let d = p.match_distance2(nodes, runtime_s, self.node_scale, self.runtime_scale);
            if d < best_d {
                best_d = d;
                best = p.id;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_is_deterministic() {
        let a = ProfilePool::synthetic(64, 7);
        let b = ProfilePool::synthetic(64, 7);
        for (pa, pb) in a.profiles().iter().zip(b.profiles()) {
            assert_eq!(pa.nodes_hint, pb.nodes_hint);
            assert_eq!(pa.runtime_hint_s, pb.runtime_hint_s);
            assert_eq!(pa.bandwidth_gbs, pb.bandwidth_gbs);
        }
    }

    #[test]
    fn synthetic_differs_across_seeds() {
        let a = ProfilePool::synthetic(64, 7);
        let b = ProfilePool::synthetic(64, 8);
        let same = a
            .profiles()
            .iter()
            .zip(b.profiles())
            .filter(|(x, y)| x.runtime_hint_s == y.runtime_hint_s)
            .count();
        assert!(same < 4);
    }

    #[test]
    fn synthetic_parameters_in_range() {
        let pool = ProfilePool::synthetic(256, 3);
        for p in pool.profiles() {
            assert!((1..=128).contains(&p.nodes_hint));
            assert!((120.0..=86_400.0).contains(&p.runtime_hint_s));
            assert!((1.0..=11.0).contains(&p.bandwidth_gbs));
            assert!((0.4..=0.95).contains(&p.read_ratio));
            assert!(p.sensitivity.base_slowdown() >= 1.0);
        }
    }

    #[test]
    fn match_exact_profile_hits_itself() {
        let pool = ProfilePool::synthetic(32, 11);
        for p in pool.profiles() {
            let id = pool.match_job(p.nodes_hint, p.runtime_hint_s);
            let matched = pool.get(id);
            // Either itself or an identical-hint twin.
            assert_eq!(
                (matched.nodes_hint, matched.runtime_hint_s),
                (p.nodes_hint, p.runtime_hint_s)
            );
        }
    }

    #[test]
    fn match_prefers_nearby() {
        let mk = |id: u32, nodes: u32, rt: f64| AppProfile {
            id: ProfileId(id),
            name: format!("a{id}"),
            nodes_hint: nodes,
            runtime_hint_s: rt,
            bandwidth_gbs: 5.0,
            read_ratio: 0.5,
            sensitivity: SensitivityCurve::insensitive(),
        };
        let pool = ProfilePool::new(vec![mk(0, 1, 100.0), mk(1, 64, 100.0), mk(2, 64, 80_000.0)]);
        assert_eq!(pool.match_job(2, 90.0), ProfileId(0));
        assert_eq!(pool.match_job(60, 200.0), ProfileId(1));
        assert_eq!(pool.match_job(64, 70_000.0), ProfileId(2));
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_pool_rejected() {
        ProfilePool::new(vec![]);
    }

    #[test]
    fn bandwidth_correlates_with_slope() {
        // Pool-level sanity: the most bandwidth-hungry quartile should have
        // visibly steeper curves at pressure 2 than the least hungry one.
        let pool = ProfilePool::synthetic(400, 21);
        let mut hungry = Vec::new();
        let mut light = Vec::new();
        for p in pool.profiles() {
            let s = p.sensitivity.slowdown(2.0);
            if p.bandwidth_gbs > 8.5 {
                hungry.push(s);
            } else if p.bandwidth_gbs < 3.5 {
                light.push(s);
            }
        }
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(avg(&hungry) > avg(&light));
    }
}
