//! High-level workload construction API.
//!
//! [`WorkloadBuilder`] is the fluent front door over the Fig. 3 pipeline:
//!
//! ```
//! use dmhpc_core::cluster::MemoryMix;
//! use dmhpc_core::config::SystemConfig;
//! use dmhpc_traces::workload::WorkloadBuilder;
//!
//! let system = SystemConfig::with_nodes(64).with_memory_mix(MemoryMix::half_large());
//! let workload = WorkloadBuilder::new(7)
//!     .jobs(100)
//!     .large_job_fraction(0.25)
//!     .overestimation(0.6)
//!     .build_for(&system);
//! assert_eq!(workload.len(), 100);
//! ```

use crate::cirne::CirneModel;
use crate::grizzly::GrizzlyDataset;
use crate::pipeline::{build_grizzly_week, build_synthetic, PipelineConfig};
use dmhpc_core::config::SystemConfig;
use dmhpc_core::sim::Workload;

/// Fluent builder for synthetic workloads (Fig. 3 pipeline).
#[derive(Clone, Debug)]
pub struct WorkloadBuilder {
    cfg: PipelineConfig,
}

impl WorkloadBuilder {
    /// Start a builder with the paper's defaults and the given seed.
    pub fn new(seed: u64) -> Self {
        let cfg = PipelineConfig {
            seed,
            ..PipelineConfig::default()
        };
        Self { cfg }
    }

    /// Number of jobs to generate.
    pub fn jobs(mut self, n: usize) -> Self {
        self.cfg.job_count = n;
        self
    }

    /// Fraction of large-memory jobs (the "% Jobs Large" axis).
    pub fn large_job_fraction(mut self, f: f64) -> Self {
        assert!((0.0..=1.0).contains(&f));
        self.cfg.large_fraction = f;
        self
    }

    /// Memory-request overestimation factor (0.0 = exact peak,
    /// 0.6 = the paper's realistic setting).
    pub fn overestimation(mut self, o: f64) -> Self {
        assert!(o > -1.0);
        self.cfg.overestimation = o;
        self
    }

    /// Target offered load of the CIRNE arrival process.
    pub fn target_utilization(mut self, u: f64) -> Self {
        assert!(u > 0.0 && u <= 1.5);
        self.cfg.cirne.target_utilization = u;
        self
    }

    /// Override the whole CIRNE model.
    pub fn cirne(mut self, model: CirneModel) -> Self {
        self.cfg.cirne = model;
        self
    }

    /// Cap the largest job size in nodes. The paper's 1024-node system
    /// runs jobs of up to 128 nodes (1/8 of the machine); scaled-down
    /// systems should scale this cap too, or the biggest jobs' aggregate
    /// memory request cannot fit the machine.
    pub fn max_job_nodes(mut self, n: u32) -> Self {
        assert!(n >= 1);
        self.cfg.cirne.max_nodes = n;
        self
    }

    /// Override the Google-like pool size (bigger = more shape variety).
    pub fn google_pool(mut self, n: usize) -> Self {
        self.cfg.google_pool_size = n;
        self
    }

    /// Relative RDP tolerance for usage traces (Fig. 3 step 8). The
    /// default 0.02 compresses aggressively; pass something small
    /// (e.g. 0.001) to keep traces near the 5-minute monitoring-window
    /// resolution of the source shapes.
    pub fn rdp_epsilon(mut self, e: f64) -> Self {
        assert!(e >= 0.0);
        self.cfg.rdp_epsilon = e;
        self
    }

    /// The underlying pipeline configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.cfg
    }

    /// Build the workload for a system.
    pub fn build_for(self, system: &SystemConfig) -> Workload {
        build_synthetic(&self.cfg, system)
    }
}

/// Build a workload from one week of a Grizzly dataset with the given
/// request overestimation (§3.2.1).
pub fn grizzly_workload(
    dataset: &GrizzlyDataset,
    week_index: usize,
    overestimation: f64,
    seed: u64,
) -> Workload {
    build_grizzly_week(dataset, week_index, overestimation, seed, 64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmhpc_core::cluster::MemoryMix;

    #[test]
    fn builder_defaults_and_overrides() {
        let b = WorkloadBuilder::new(3)
            .jobs(50)
            .large_job_fraction(0.1)
            .overestimation(0.25)
            .target_utilization(0.7)
            .google_pool(500);
        assert_eq!(b.config().job_count, 50);
        assert_eq!(b.config().large_fraction, 0.1);
        assert_eq!(b.config().overestimation, 0.25);
        let sys = SystemConfig::with_nodes(32).with_memory_mix(MemoryMix::half_large());
        let w = b.build_for(&sys);
        assert_eq!(w.len(), 50);
    }

    #[test]
    #[should_panic]
    fn builder_rejects_bad_fraction() {
        WorkloadBuilder::new(1).large_job_fraction(1.5);
    }

    #[test]
    fn grizzly_workload_smoke() {
        let ds = GrizzlyDataset::synthesize(crate::grizzly::GrizzlyConfig::small(5));
        let w = grizzly_workload(&ds, 1, 0.0, 9);
        assert_eq!(w.len(), ds.weeks[1].jobs.len());
    }
}
