//! Simulated system configurations (paper Table 4).

use crate::cluster::{MemoryMix, TopologySpec};
use crate::engine::SimTime;
use crate::error::CoreError;
use crate::faults::FaultConfig;

/// The band each memory-update delay is drawn from, as multiples of
/// `mem_update_interval_s` (the paper's "on average every 5 minutes").
pub(crate) const UPDATE_JITTER: std::ops::Range<f64> = 0.8..1.2;

/// How jobs that run out of memory under the dynamic policy are handled
/// (paper §2.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RestartStrategy {
    /// Fail/Restart: the job is killed and resubmitted from scratch. The
    /// paper finds OOM is rare (<1% of jobs in the most extreme scenario)
    /// and uses F/R for all results.
    FailRestart,
    /// Checkpoint/Restart: the job is killed and resubmitted, resuming
    /// from the work completed at its last usage update (which doubles as
    /// the checkpoint instant). Implemented for the ablation study.
    CheckpointRestart,
}

/// Fairness mitigation for jobs that fail repeatedly under the dynamic
/// policy (paper §2.2: "the resource manager can take several actions to
/// ensure fairness").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OomMitigation {
    /// No mitigation: resubmitted jobs join the tail of the queue (the
    /// paper's evaluated configuration — OOM kills are rare).
    None,
    /// "Increase the job's priority … after a specified number of
    /// failures": after `after` OOM kills the job re-enters at the head
    /// of the pending queue.
    PriorityBoost {
        /// Number of OOM kills before the boost kicks in.
        after: u32,
    },
    /// "Initiate the job without dynamic resource allocation, instead
    /// assigning resources in a static and guaranteed manner": after
    /// `after` OOM kills the job restarts with its full request pinned
    /// for its whole lifetime (no dynamic reclamation).
    StaticFallback {
        /// Number of OOM kills before the fallback kicks in.
        after: u32,
    },
}

/// Complete description of a simulated system (Table 4) plus the policy
/// tunables of §2.2.
#[derive(Clone, Debug)]
pub struct SystemConfig {
    /// Total number of nodes (1024 synthetic / 1490 Grizzly).
    pub nodes: u32,
    /// Cores per node (32 in the paper; jobs get nodes exclusively, so
    /// this only matters for utilisation accounting).
    pub cores_per_node: u32,
    /// Memory capacities: the normal/large split.
    pub memory_mix: MemoryMix,
    /// Scheduling and backfill interval in seconds (30 s).
    pub sched_interval_s: f64,
    /// Main scheduling queue depth considered per pass (100).
    pub queue_depth: usize,
    /// Backfill window: how many queued jobs past the blocked head are
    /// considered for backfilling (100).
    pub backfill_depth: usize,
    /// Average interval between memory-usage updates for the dynamic
    /// policy, in seconds (300 s = 5 min, as in the paper and the Google
    /// trace sampling).
    pub mem_update_interval_s: f64,
    /// A node may keep accepting new jobs while it has lent at most this
    /// fraction of its capacity; beyond it, it temporarily becomes a
    /// memory-only node (paper §2.1; 0.5).
    pub lend_cap_fraction: f64,
    /// What to do when a dynamic job's demand cannot be satisfied.
    pub restart: RestartStrategy,
    /// Fairness mitigation for repeatedly failing jobs.
    pub oom_mitigation: OomMitigation,
    /// Remote link capacity for the contention model, GB/s.
    pub link_capacity_gbs: f64,
    /// Fault-injection configuration; all rates zero by default
    /// (fault-free runs are bit-identical to pre-fault-model builds).
    pub faults: FaultConfig,
    /// Fabric topology; flat by default (flat runs are bit-identical to
    /// pre-topology builds).
    pub topology: TopologySpec,
}

impl SystemConfig {
    /// The 1024-node synthetic-trace system of Table 4 (memory mix must
    /// still be chosen with [`SystemConfig::with_memory_mix`]).
    pub fn synthetic_1024() -> Self {
        Self::with_nodes(1024)
    }

    /// The 1490-node Grizzly-trace system of Table 4.
    pub fn grizzly_1490() -> Self {
        Self::with_nodes(1490)
    }

    /// A system with the paper's defaults and the given node count.
    pub fn with_nodes(nodes: u32) -> Self {
        Self {
            nodes,
            cores_per_node: 32,
            memory_mix: MemoryMix::all_large(),
            sched_interval_s: 30.0,
            queue_depth: 100,
            backfill_depth: 100,
            mem_update_interval_s: 300.0,
            lend_cap_fraction: 0.5,
            restart: RestartStrategy::FailRestart,
            oom_mitigation: OomMitigation::None,
            link_capacity_gbs: 12.5,
            faults: FaultConfig::none(),
            topology: TopologySpec::Flat,
        }
    }

    /// Replace the memory mix.
    pub fn with_memory_mix(mut self, mix: MemoryMix) -> Self {
        self.memory_mix = mix;
        self
    }

    /// Replace the restart strategy.
    pub fn with_restart(mut self, restart: RestartStrategy) -> Self {
        self.restart = restart;
        self
    }

    /// Replace the OOM fairness mitigation.
    pub fn with_mitigation(mut self, mitigation: OomMitigation) -> Self {
        self.oom_mitigation = mitigation;
        self
    }

    /// The longest delay between two memory updates of a job: the top
    /// of the jitter band ([`UPDATE_JITTER`]) around the interval.
    pub(crate) fn longest_update_interval(&self) -> SimTime {
        SimTime::from_secs(self.mem_update_interval_s * UPDATE_JITTER.end)
    }

    /// Replace the memory-update interval (ablation).
    pub fn with_update_interval(mut self, secs: f64) -> Self {
        self.mem_update_interval_s = secs;
        self
    }

    /// Replace the lend cap (ablation).
    pub fn with_lend_cap(mut self, fraction: f64) -> Self {
        self.lend_cap_fraction = fraction;
        self
    }

    /// Replace the fault-injection configuration.
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// Replace the fabric topology.
    pub fn with_topology(mut self, topology: TopologySpec) -> Self {
        self.topology = topology;
        self
    }

    /// Validate the configuration, returning the first violation found.
    /// Nothing checks this on construction: an invalid config panics
    /// somewhere inside the run (a zero-node cluster when it is built),
    /// so callers building configs from user input (`dmhpc simulate`)
    /// call it to surface a named error instead.
    pub fn validate(&self) -> Result<(), CoreError> {
        let bad = |msg: String| Err(CoreError::InvalidConfig(msg));
        if self.nodes == 0 {
            return bad("nodes must be > 0".to_string());
        }
        if self.cores_per_node == 0 {
            return bad("cores_per_node must be > 0".to_string());
        }
        if !(self.sched_interval_s > 0.0 && self.sched_interval_s.is_finite()) {
            return bad(format!(
                "sched_interval_s must be positive, got {}",
                self.sched_interval_s
            ));
        }
        if !(self.mem_update_interval_s > 0.0 && self.mem_update_interval_s.is_finite()) {
            return bad(format!(
                "mem_update_interval_s must be positive, got {}",
                self.mem_update_interval_s
            ));
        }
        if self.queue_depth == 0 {
            return bad("queue_depth must be > 0".to_string());
        }
        if !(0.0..=1.0).contains(&self.lend_cap_fraction) {
            return bad(format!(
                "lend_cap_fraction must be within [0, 1], got {}",
                self.lend_cap_fraction
            ));
        }
        if !(self.link_capacity_gbs > 0.0 && self.link_capacity_gbs.is_finite()) {
            return bad(format!(
                "link_capacity_gbs must be positive, got {}",
                self.link_capacity_gbs
            ));
        }
        // The cluster's free-memory indexes pack a node's free MB into
        // the high 32 bits of a key.
        let max_mb = u64::from(u32::MAX);
        if self.memory_mix.normal_mb > max_mb || self.memory_mix.large_mb > max_mb {
            return bad(format!(
                "node capacity must be at most {max_mb} MB, got normal {} / large {}",
                self.memory_mix.normal_mb, self.memory_mix.large_mb
            ));
        }
        self.topology.validate()?;
        self.faults.validate()
    }

    /// Total system memory in MB under this mix.
    pub fn total_memory_mb(&self) -> u64 {
        self.memory_mix.total_memory_mb(self.nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table4() {
        let c = SystemConfig::synthetic_1024();
        assert_eq!(c.nodes, 1024);
        assert_eq!(c.cores_per_node, 32);
        assert_eq!(c.sched_interval_s, 30.0);
        assert_eq!(c.queue_depth, 100);
        assert_eq!(c.backfill_depth, 100);
        assert_eq!(c.mem_update_interval_s, 300.0);
        assert_eq!(c.lend_cap_fraction, 0.5);
        assert!(!c.faults.enabled(), "defaults must be fault-free");
        assert_eq!(SystemConfig::grizzly_1490().nodes, 1490);
    }

    #[test]
    fn validate_accepts_defaults_and_rejects_bad_fields() {
        SystemConfig::synthetic_1024().validate().unwrap();
        SystemConfig::synthetic_1024()
            .with_faults(FaultConfig::heavy())
            .validate()
            .unwrap();
        let mut c = SystemConfig::with_nodes(0);
        assert!(c.validate().is_err());
        c.nodes = 8;
        c.lend_cap_fraction = 1.5;
        assert!(c.validate().is_err());
        c.lend_cap_fraction = 0.5;
        c.faults.monitor_loss_prob = 2.0;
        assert!(c.validate().is_err());
        c.faults.monitor_loss_prob = 0.0;
        c.validate().unwrap();
        // Node capacity is bounded by the packed index key: u32::MAX MB
        // is the largest accepted, on either node class.
        let max_mb = u64::from(u32::MAX);
        c.memory_mix = MemoryMix::new(max_mb, max_mb, 0.5);
        c.validate().unwrap();
        c.memory_mix = MemoryMix::new(64, max_mb + 1, 0.5);
        assert!(matches!(c.validate(), Err(CoreError::InvalidConfig(_))));
        c.memory_mix = MemoryMix {
            normal_mb: max_mb + 1,
            large_mb: 128,
            large_fraction: 0.0,
        };
        assert!(matches!(c.validate(), Err(CoreError::InvalidConfig(_))));
    }
}
