//! Simulated system configurations (paper Table 4).

use crate::cluster::{MemoryMix, TopologySpec};
use crate::error::CoreError;
use crate::faults::FaultConfig;

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
    /// Cost of one node excluding memory, in dollars (Table 4: $10,154,
    /// including node, network, switches and small storage).
    pub cost_per_node_usd: f64,
    /// Cost of 128 GB of memory in dollars (Table 4: $1,280).
    pub cost_per_128gb_usd: f64,
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
            cost_per_node_usd: 10_154.0,
            cost_per_128gb_usd: 1_280.0,
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
    /// The simulator asserts this on construction; callers building
    /// configs from user input (CLI flags, config files) should call it
    /// to surface errors instead of panics.
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
        self.topology.validate()?;
        self.faults.validate()
    }

    /// Total system memory in MB under this mix.
    pub fn total_memory_mb(&self) -> u64 {
        self.memory_mix.total_memory_mb(self.nodes)
    }

    /// Total system memory as a fraction of an all-large (128 GB/node)
    /// system — the x-axis of Figures 5 and 8.
    pub fn memory_fraction_of_full(&self) -> f64 {
        self.total_memory_mb() as f64 / (self.nodes as u64 * MemoryMix::FULL_NODE_MB) as f64
    }

    /// Total system cost in dollars: nodes plus provisioned memory
    /// (Table 4 / §4.3).
    pub fn total_cost_usd(&self) -> f64 {
        let mem_128gb_units = self.total_memory_mb() as f64 / (128.0 * 1024.0);
        self.nodes as f64 * self.cost_per_node_usd + mem_128gb_units * self.cost_per_128gb_usd
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
        assert_eq!(c.cost_per_node_usd, 10_154.0);
        assert_eq!(c.cost_per_128gb_usd, 1_280.0);
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
    }

    #[test]
    fn full_system_memory_fraction_is_one() {
        let c = SystemConfig::synthetic_1024().with_memory_mix(MemoryMix::all_large());
        assert!((c.memory_fraction_of_full() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cost_scales_with_memory() {
        let full = SystemConfig::synthetic_1024().with_memory_mix(MemoryMix::all_large());
        let half = SystemConfig::synthetic_1024().with_memory_mix(MemoryMix::new(
            64 * 1024,
            128 * 1024,
            0.0,
        ));
        assert!(full.total_cost_usd() > half.total_cost_usd());
        // Node cost dominates: $10,154 × 1024 vs memory $1,280 × 1024.
        let node_part = 1024.0 * 10_154.0;
        assert!(full.total_cost_usd() - node_part > 0.0);
        assert!((full.total_cost_usd() - node_part - 1024.0 * 1_280.0).abs() < 1.0);
    }
}
