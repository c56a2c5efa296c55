//! Seeded, deterministic fault injection for the dynamic-memory loop.
//!
//! The simulator's fault model covers four failure classes of a
//! disaggregated-memory machine:
//!
//! * **Node crashes** — a node goes down for a configurable repair time;
//!   its resident job is killed and resubmitted under the configured
//!   restart strategy, and every borrow served from the node is revoked.
//! * **Pool-blade degradation** — a slice of a node's DRAM drops out of
//!   the lending pool mid-run (a failing CXL blade, a capacity fence);
//!   the Actuator reclaims remote MB, shrinking borrowers remote-first
//!   before falling back to the §2.2 static-guaranteed allocation.
//! * **Monitor sample loss** — a memory-usage sample never reaches the
//!   Decider, which keeps acting on the last-known demand; a job whose
//!   true usage outgrew that stale allocation OOMs.
//! * **Actuator transient failures** — grow/shrink attempts fail with
//!   probability `p` and are retried with bounded exponential backoff
//!   before escalating to kill-and-resubmit.
//!
//! Crash and degradation schedules are **pre-generated** from
//! [`FaultConfig::seed`] by [`FaultSchedule::generate`] before the run
//! starts; sample-loss and actuation failures draw from a dedicated
//! [`Rng64`] stream keyed by the same seed. There is no wall-clock
//! anywhere: a fixed seed reproduces a faulty run bit for bit, and a
//! config with every rate at zero produces *no* schedule and *no* RNG
//! draws, leaving fault-free runs byte-identical to builds without this
//! module.

use crate::cluster::NodeId;
use crate::engine::SimTime;
use crate::error::CoreError;
use dmhpc_model::rng::Rng64;

/// Per-node crash streams are keyed off this base so they are
/// independent of each other and of the pool-degradation stream.
const STREAM_NODE_CRASH: u64 = 0xFA11_0000;
/// Stream id for the pool-degradation renewal process.
const STREAM_POOL_DEGRADE: u64 = 0xDE64_AB1E;

/// Fault-injection rates and repair times. All rates default to zero
/// (no faults); [`FaultConfig::enabled`] reports whether any class is
/// active.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultConfig {
    /// Seed for the fault schedule and the sample-loss/actuation streams.
    /// Independent of the simulation seed so fault scenarios can be
    /// varied while holding the workload fixed.
    pub seed: u64,
    /// Mean time between failures per node, seconds (exponential
    /// interarrival). Zero disables node crashes.
    pub node_mtbf_s: f64,
    /// Downtime per crash before the node rejoins the pool, seconds.
    pub node_repair_s: f64,
    /// Mean time between pool-blade degradation events across the whole
    /// machine, seconds. Zero disables degradation.
    pub pool_degrade_interval_s: f64,
    /// Capacity lost per degradation event, MB (capped so a node's
    /// outstanding degradation never exceeds its capacity).
    pub pool_degrade_mb: u64,
    /// Time until a degraded slice is restored, seconds.
    pub pool_repair_s: f64,
    /// Probability that a Monitor usage sample is lost in transit.
    pub monitor_loss_prob: f64,
    /// Probability that an Actuator grow/shrink attempt fails
    /// transiently.
    pub actuator_fail_prob: f64,
    /// Failed actuations are retried this many times before the job is
    /// killed and resubmitted.
    pub actuator_max_retries: u32,
    /// Base retry delay, seconds; attempt `k` waits `backoff · 2^(k−1)`.
    pub actuator_backoff_s: f64,
    /// Crash/degradation schedules are generated out to this horizon,
    /// seconds. Repairs for faults inside the horizon are always
    /// scheduled, so the machine ends the run whole.
    pub horizon_s: f64,
}

impl FaultConfig {
    /// The fault-free configuration: every rate zero, sane repair and
    /// retry parameters for configs that flip a single class on.
    pub fn none() -> Self {
        Self {
            seed: 0x5EED_FA17,
            node_mtbf_s: 0.0,
            node_repair_s: 3_600.0,
            pool_degrade_interval_s: 0.0,
            pool_degrade_mb: 0,
            pool_repair_s: 7_200.0,
            monitor_loss_prob: 0.0,
            actuator_fail_prob: 0.0,
            actuator_max_retries: 3,
            actuator_backoff_s: 30.0,
            horizon_s: 14.0 * 86_400.0,
        }
    }

    /// A mild fault profile: rare crashes, occasional blade degradation,
    /// 2% sample loss and actuation failure.
    pub fn light() -> Self {
        Self {
            node_mtbf_s: 1_000_000.0,
            pool_degrade_interval_s: 250_000.0,
            pool_degrade_mb: 8 * 1024,
            pool_repair_s: 50_000.0,
            monitor_loss_prob: 0.02,
            actuator_fail_prob: 0.02,
            ..Self::none()
        }
    }

    /// An aggressive fault profile: frequent crashes and degradation,
    /// 10% sample loss and actuation failure, slower repairs.
    pub fn heavy() -> Self {
        Self {
            node_mtbf_s: 200_000.0,
            node_repair_s: 7_200.0,
            pool_degrade_interval_s: 50_000.0,
            pool_degrade_mb: 16 * 1024,
            pool_repair_s: 100_000.0,
            monitor_loss_prob: 0.10,
            actuator_fail_prob: 0.10,
            actuator_max_retries: 2,
            actuator_backoff_s: 60.0,
            ..Self::none()
        }
    }

    /// Look up a named profile: `none`, `light`, or `heavy`.
    pub fn profile(name: &str) -> Result<Self, CoreError> {
        match name {
            "none" => Ok(Self::none()),
            "light" => Ok(Self::light()),
            "heavy" => Ok(Self::heavy()),
            other => Err(CoreError::invalid_config(format!(
                "unknown fault profile '{other}' (expected none, light, or heavy)"
            ))),
        }
    }

    /// Builder: replace the fault seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Whether any fault class is active.
    pub fn enabled(&self) -> bool {
        self.node_mtbf_s > 0.0
            || (self.pool_degrade_interval_s > 0.0 && self.pool_degrade_mb > 0)
            || self.monitor_loss_prob > 0.0
            || self.actuator_fail_prob > 0.0
    }

    /// Validate rates and times; returns the first violation found.
    pub fn validate(&self) -> Result<(), CoreError> {
        let bad = |msg: String| Err(CoreError::InvalidConfig(msg));
        for (name, v) in [
            ("node_mtbf_s", self.node_mtbf_s),
            ("node_repair_s", self.node_repair_s),
            ("pool_degrade_interval_s", self.pool_degrade_interval_s),
            ("pool_repair_s", self.pool_repair_s),
            ("actuator_backoff_s", self.actuator_backoff_s),
            ("horizon_s", self.horizon_s),
        ] {
            if !v.is_finite() || v < 0.0 {
                return bad(format!("fault {name} must be finite and >= 0, got {v}"));
            }
        }
        for (name, p) in [
            ("monitor_loss_prob", self.monitor_loss_prob),
            ("actuator_fail_prob", self.actuator_fail_prob),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return bad(format!("fault {name} must be within [0, 1], got {p}"));
            }
        }
        if self.node_mtbf_s > 0.0 && self.node_repair_s <= 0.0 {
            return bad("node_repair_s must be > 0 when node crashes are enabled".into());
        }
        if self.pool_degrade_interval_s > 0.0 && self.pool_repair_s <= 0.0 {
            return bad("pool_repair_s must be > 0 when pool degradation is enabled".into());
        }
        if self.actuator_fail_prob > 0.0 && self.actuator_backoff_s <= 0.0 {
            return bad("actuator_backoff_s must be > 0 when actuation faults are enabled".into());
        }
        if self.actuator_max_retries > 32 {
            return bad(format!(
                "actuator_max_retries must be <= 32, got {}",
                self.actuator_max_retries
            ));
        }
        if (self.node_mtbf_s > 0.0 || self.pool_degrade_interval_s > 0.0) && self.horizon_s <= 0.0 {
            return bad("horizon_s must be > 0 when scheduled faults are enabled".into());
        }
        Ok(())
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self::none()
    }
}

/// One injected fault, addressed to the cluster.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultEvent {
    /// The node crashes: resident job killed, borrows revoked, node out
    /// of the pool until its repair.
    NodeFail {
        /// The crashing node.
        node: NodeId,
    },
    /// The node's repair completes; it rejoins the pool empty.
    NodeRepair {
        /// The repaired node.
        node: NodeId,
    },
    /// `mb` of the node's DRAM leaves the lending pool.
    PoolDegrade {
        /// The node losing blade capacity.
        node: NodeId,
        /// Capacity lost, MB.
        mb: u64,
    },
    /// A previously degraded slice comes back.
    PoolRestore {
        /// The node regaining blade capacity.
        node: NodeId,
        /// Capacity restored, MB.
        mb: u64,
    },
}

impl FaultEvent {
    /// The trace event this fault appears as once the recovery handlers
    /// apply it. Handlers emit through this mapping (with clamped
    /// amounts where applicable), so the trace stream records faults
    /// that took effect, not every scheduled one.
    pub fn trace_kind(self) -> crate::trace::TraceKind {
        use crate::trace::TraceKind;
        match self {
            FaultEvent::NodeFail { node } => TraceKind::NodeCrash { node },
            FaultEvent::NodeRepair { node } => TraceKind::NodeRepair { node },
            FaultEvent::PoolDegrade { node, mb } => TraceKind::PoolDegrade { node, mb },
            FaultEvent::PoolRestore { node, mb } => TraceKind::PoolRestore { node, mb },
        }
    }
}

/// A time-sorted, pre-generated schedule of [`FaultEvent`]s.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultSchedule {
    /// Events sorted by time; ties keep generation order (crashes by
    /// node id, then degradations).
    pub events: Vec<(SimTime, FaultEvent)>,
}

impl FaultSchedule {
    /// Generate the crash and degradation schedule for a machine whose
    /// node `i` has `capacities[i]` MB of DRAM.
    ///
    /// * Per-node crashes follow a renewal process — exponential uptime
    ///   with mean [`FaultConfig::node_mtbf_s`], then a fixed repair
    ///   window — drawn from a per-node RNG stream, so one node's crash
    ///   history never perturbs another's.
    /// * Degradation events arrive machine-wide with exponential
    ///   interarrival, strike a uniformly chosen node, and are capped so
    ///   a node's outstanding degradation never exceeds its capacity
    ///   (events that would are skipped). Every degrade is paired with a
    ///   restore [`FaultConfig::pool_repair_s`] later.
    ///
    /// Events past [`FaultConfig::horizon_s`] are not generated, but
    /// repairs/restores of in-horizon faults always are: the machine is
    /// guaranteed whole after `horizon + max(repair)` seconds, which
    /// bounds how long a requeued job can stay unplaceable.
    pub fn generate(cfg: &FaultConfig, capacities: &[u64]) -> Self {
        let mut events: Vec<(SimTime, FaultEvent)> = Vec::new();
        if cfg.node_mtbf_s > 0.0 {
            for (i, _) in capacities.iter().enumerate() {
                let node = NodeId(i as u32);
                let mut rng = Rng64::stream(cfg.seed, STREAM_NODE_CRASH ^ i as u64);
                let mut t = 0.0f64;
                loop {
                    t += rng.exponential(1.0 / cfg.node_mtbf_s);
                    if t >= cfg.horizon_s {
                        break;
                    }
                    events.push((SimTime::from_secs(t), FaultEvent::NodeFail { node }));
                    t += cfg.node_repair_s;
                    events.push((SimTime::from_secs(t), FaultEvent::NodeRepair { node }));
                }
            }
        }
        if cfg.pool_degrade_interval_s > 0.0 && cfg.pool_degrade_mb > 0 && !capacities.is_empty() {
            let mut rng = Rng64::stream(cfg.seed, STREAM_POOL_DEGRADE);
            // Outstanding degradation per node as (restore_time, mb)
            // slices, purged as generation time passes them.
            let mut outstanding: Vec<Vec<(f64, u64)>> = vec![Vec::new(); capacities.len()];
            let mut t = 0.0f64;
            loop {
                t += rng.exponential(1.0 / cfg.pool_degrade_interval_s);
                if t >= cfg.horizon_s {
                    break;
                }
                let victim = rng.below(capacities.len() as u64) as usize;
                let slices = &mut outstanding[victim];
                slices.retain(|&(restore, _)| restore > t);
                let held: u64 = slices.iter().map(|&(_, mb)| mb).sum();
                let mb = cfg.pool_degrade_mb.min(capacities[victim] - held);
                if mb == 0 {
                    continue;
                }
                let node = NodeId(victim as u32);
                let restore_at = t + cfg.pool_repair_s;
                slices.push((restore_at, mb));
                events.push((SimTime::from_secs(t), FaultEvent::PoolDegrade { node, mb }));
                events.push((
                    SimTime::from_secs(restore_at),
                    FaultEvent::PoolRestore { node, mb },
                ));
            }
        }
        // Stable by time: ties keep generation order, so the schedule is
        // a pure function of (seed, capacities).
        events.sort_by_key(|&(t, _)| t);
        Self { events }
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rates_generate_nothing() {
        let cfg = FaultConfig::none();
        assert!(!cfg.enabled());
        let s = FaultSchedule::generate(&cfg, &[1024; 8]);
        assert!(s.is_empty());
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = FaultConfig::heavy().with_seed(42);
        let caps = vec![128 * 1024; 16];
        let a = FaultSchedule::generate(&cfg, &caps);
        let b = FaultSchedule::generate(&cfg, &caps);
        assert_eq!(a, b);
        assert!(!a.is_empty(), "heavy profile must generate events");
        let c = FaultSchedule::generate(&cfg.with_seed(43), &caps);
        assert_ne!(a, c, "different seeds must generate different schedules");
    }

    #[test]
    fn schedule_is_time_sorted() {
        let cfg = FaultConfig::heavy().with_seed(7);
        let s = FaultSchedule::generate(&cfg, &[128 * 1024; 32]);
        assert!(s.events.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn crashes_pair_with_repairs_without_overlap() {
        let cfg = FaultConfig::heavy().with_seed(11);
        let s = FaultSchedule::generate(&cfg, &[128 * 1024; 8]);
        for i in 0..8u32 {
            let node = NodeId(i);
            let mine: Vec<_> = s
                .events
                .iter()
                .filter(|(_, e)| {
                    matches!(e, FaultEvent::NodeFail { node: n } | FaultEvent::NodeRepair { node: n } if *n == node)
                })
                .collect();
            // Strictly alternating fail/repair per node: no overlap.
            for (k, (_, e)) in mine.iter().enumerate() {
                if k % 2 == 0 {
                    assert!(matches!(e, FaultEvent::NodeFail { .. }));
                } else {
                    assert!(matches!(e, FaultEvent::NodeRepair { .. }));
                }
            }
            assert_eq!(mine.len() % 2, 0, "every fail has its repair");
        }
    }

    #[test]
    fn degradation_never_exceeds_capacity() {
        let cfg = FaultConfig {
            pool_degrade_interval_s: 1_000.0,
            pool_degrade_mb: 100 * 1024, // huge vs. the 128 GB nodes
            pool_repair_s: 500_000.0,    // slices pile up
            horizon_s: 200_000.0,
            ..FaultConfig::none()
        };
        let caps = vec![128 * 1024u64; 4];
        let s = FaultSchedule::generate(&cfg, &caps);
        let mut held = [0i64; 4];
        for &(_, e) in &s.events {
            match e {
                FaultEvent::PoolDegrade { node, mb } => {
                    held[node.0 as usize] += mb as i64;
                    assert!(held[node.0 as usize] <= caps[node.0 as usize] as i64);
                }
                FaultEvent::PoolRestore { node, mb } => held[node.0 as usize] -= mb as i64,
                _ => {}
            }
        }
    }

    #[test]
    fn profiles_parse_and_validate() {
        for name in ["none", "light", "heavy"] {
            let p = FaultConfig::profile(name).unwrap();
            p.validate().unwrap();
            assert_eq!(p.enabled(), name != "none");
        }
        assert!(FaultConfig::profile("chaos").is_err());
    }

    #[test]
    fn validate_rejects_bad_rates() {
        let mut cfg = FaultConfig::none();
        cfg.monitor_loss_prob = 1.5;
        assert!(cfg.validate().is_err());
        let mut cfg = FaultConfig::none();
        cfg.node_mtbf_s = -1.0;
        assert!(cfg.validate().is_err());
        let mut cfg = FaultConfig::light();
        cfg.actuator_backoff_s = 0.0;
        cfg.actuator_fail_prob = 0.5;
        assert!(cfg.validate().is_err());
    }
}
