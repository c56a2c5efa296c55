//! # dmhpc-core — discrete-event simulator for disaggregated-memory HPC
//!
//! Reproduction of the scheduling system of Zacarias, Carpenter &
//! Petrucci, *Dynamic Memory Provisioning on Disaggregated HPC Systems*
//! (SC-W 2023). The crate models a Slurm-like resource manager:
//!
//! * [`cluster`] — nodes, the disaggregated-memory lend/borrow ledger and
//!   its invariants (lend cap, memory-node rule);
//! * [`policy`] — the allocation policies (the paper's Baseline, Static,
//!   Dynamic plus the predictive/overcommit/conservative extensions),
//!   their placement/growth logic, and the parameterized
//!   [`policy::PolicySpec`] construction API;
//! * [`sched`] — FCFS + EASY-backfill queue machinery;
//! * [`engine`] — simulated time and the re-schedulable event queue;
//! * [`sim`] — the driver tying it all together: job lifecycle,
//!   Monitor→Decider→Actuator→Executor dynamic loop, out-of-memory
//!   Fail/Restart & Checkpoint/Restart handling, metrics;
//! * [`job`] — the job model with progress-keyed memory usage traces;
//! * [`config`] — the simulated system configurations of Table 4;
//! * [`faults`] — seeded deterministic fault injection (node crashes,
//!   pool-blade degradation, Monitor sample loss, Actuator failures);
//! * [`spec`] — the shared [`spec::SpecRegistry`] grammar behind the
//!   policy and topology registries (`name:key=value` parsing, list
//!   continuation, uniform error vocabulary);
//! * [`trace`] — structured per-run event tracing behind the
//!   [`trace::TraceSink`] trait (zero-cost when disabled);
//! * [`telemetry`] — sim-time gauge sampling into a fixed-capacity
//!   time series plus a wall-clock phase profiler, with Prometheus /
//!   CSV / JSONL exporters (zero-cost when disabled, like tracing);
//! * [`error`] — the crate-wide [`CoreError`] type.
//!
//! ## Example
//!
//! ```
//! use dmhpc_core::cluster::MemoryMix;
//! use dmhpc_core::config::SystemConfig;
//! use dmhpc_core::job::{Job, JobId, MemoryUsageTrace};
//! use dmhpc_core::policy::PolicySpec;
//! use dmhpc_core::sim::{SimBuilder, Workload};
//! use dmhpc_model::{ProfileId, ProfilePool};
//!
//! let cfg = SystemConfig::with_nodes(4)
//!     .with_memory_mix(MemoryMix::new(32 * 1024, 64 * 1024, 0.5));
//! let job = Job {
//!     id: JobId(0),
//!     submit_s: 0.0,
//!     nodes: 2,
//!     base_runtime_s: 3600.0,
//!     time_limit_s: 7200.0,
//!     mem_request_mb: 24 * 1024,
//!     usage: MemoryUsageTrace::flat(16 * 1024),
//!     profile: ProfileId(0),
//! };
//! let workload = Workload::try_new(vec![job], ProfilePool::synthetic(8, 1)).unwrap();
//! let outcome = SimBuilder::new(cfg, workload)
//!     .policy(PolicySpec::Dynamic)
//!     .run();
//! assert_eq!(outcome.stats.completed, 1);
//! ```

#![warn(missing_docs)]
// Human-facing output belongs to the CLI/experiments layer; the core
// simulator communicates through return values and trace sinks only.
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod cluster;
pub mod config;
pub mod dynmem;
pub mod engine;
pub mod error;
pub mod faults;
pub mod job;
pub mod policy;
pub mod sched;
pub mod sim;
pub mod spec;
pub mod telemetry;
pub mod trace;

pub use cluster::{Cluster, JobAlloc, MemoryMix, NodeId, Topology, TopologySpec};
pub use config::{OomMitigation, RestartStrategy, SystemConfig};
pub use engine::SimTime;
pub use error::CoreError;
pub use faults::{FaultConfig, FaultEvent, FaultSchedule};
pub use job::{Job, JobId, MemoryUsageTrace};
pub use policy::PolicySpec;
pub use sim::{JobOutcome, JobRecord, SimBuilder, Simulation, SimulationOutcome, Stats, Workload};
pub use spec::{SpecInfo, SpecRegistry};
pub use telemetry::{Phase, Profile, Sample, Telemetry, TelemetryCollector, TelemetrySpec};
pub use trace::{
    CountingSink, FanoutSink, JsonlSink, NullSink, RingSink, RunMetrics, TraceEvent, TraceKind,
    TraceSink,
};
