//! # dmhpc — Dynamic Memory Provisioning on Disaggregated HPC Systems
//!
//! Facade crate for the reproduction of Zacarias, Carpenter & Petrucci,
//! *Dynamic Memory Provisioning on Disaggregated HPC Systems* (SC-W 2023).
//!
//! This crate re-exports the workspace's public API so downstream users can
//! depend on a single crate:
//!
//! * [`model`] — the contention-aware slowdown model (sensitivity curves,
//!   contentiousness, synthetic application pool);
//! * [`core`] — the discrete-event cluster simulator, node/memory ledgers,
//!   scheduler, and the Baseline / Static / Dynamic allocation policies;
//! * [`traces`] — SWF parsing, the CIRNE workload model, Grizzly-like and
//!   Google-like synthetic datasets, the Archer request distribution, RDP
//!   trace reduction, and the Fig. 3 matching pipeline;
//! * [`metrics`] — throughput, response-time ECDF, quantiles, utilisation
//!   and the cost model;
//! * [`experiments`] — runners that regenerate every table and figure of
//!   the paper.
//!
//! ## Quickstart
//!
//! ```
//! use dmhpc::prelude::*;
//!
//! // Generate a small workload, simulate it under the dynamic policy,
//! // and report throughput.
//! let system = SystemConfig::synthetic_1024().with_memory_mix(MemoryMix::half_large());
//! let workload = WorkloadBuilder::new(4242)
//!     .jobs(200)
//!     .large_job_fraction(0.5)
//!     .overestimation(0.6)
//!     .build_for(&system);
//! let outcome = SimBuilder::new(system, workload)
//!     .policy(PolicySpec::Dynamic)
//!     .seed(4242)
//!     .run();
//! assert!(outcome.stats.completed > 0);
//! ```

pub use dmhpc_core as core;
pub use dmhpc_experiments as experiments;
pub use dmhpc_metrics as metrics;
pub use dmhpc_model as model;
pub use dmhpc_traces as traces;

/// Convenience re-exports of the most frequently used types.
pub mod prelude {
    pub use dmhpc_core::cluster::{MemoryMix, TopologySpec};
    pub use dmhpc_core::config::SystemConfig;
    pub use dmhpc_core::job::{Job, JobId, MemoryUsageTrace};
    pub use dmhpc_core::policy::PolicySpec;
    pub use dmhpc_core::sim::{SimBuilder, Simulation, SimulationOutcome};
    pub use dmhpc_metrics::ecdf::Ecdf;
    pub use dmhpc_model::{AppProfile, ContentionModel, ProfilePool, SensitivityCurve};
    pub use dmhpc_traces::workload::WorkloadBuilder;
}
