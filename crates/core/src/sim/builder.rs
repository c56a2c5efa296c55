//! The unified simulation-construction API.
//!
//! [`SimBuilder`] is the only way to configure a [`Simulation`]: one
//! fluent path that speaks the spec registries directly. Policies
//! arrive as [`PolicySpec`] (or, for custom and test policies, as a
//! boxed [`MemoryPolicy`]) and topologies as [`TopologySpec`], so a CLI
//! string parses straight into a configured run.
//!
//! ```
//! use dmhpc_core::config::SystemConfig;
//! use dmhpc_core::policy::PolicySpec;
//! use dmhpc_core::sim::SimBuilder;
//! # use dmhpc_core::job::{Job, JobId, MemoryUsageTrace};
//! # use dmhpc_model::{ProfileId, ProfilePool};
//! # let job = Job {
//! #     id: JobId(0),
//! #     submit_s: 0.0,
//! #     nodes: 1,
//! #     base_runtime_s: 100.0,
//! #     time_limit_s: 200.0,
//! #     mem_request_mb: 512,
//! #     usage: MemoryUsageTrace::flat(512),
//! #     profile: ProfileId(0),
//! # };
//! # let pool = ProfilePool::synthetic(4, 99);
//! # let workload = dmhpc_core::sim::Workload::try_new(vec![job], pool).unwrap();
//! let outcome = SimBuilder::new(SystemConfig::with_nodes(4), workload)
//!     .policy("dynamic".parse::<PolicySpec>().unwrap())
//!     .seed(42)
//!     .build()
//!     .run();
//! ```

use crate::cluster::TopologySpec;
use crate::config::SystemConfig;
use crate::faults::{FaultConfig, FaultSchedule};
use crate::policy::PolicySpec;
use crate::telemetry::TelemetryCollector;
use crate::trace::{NullSink, TraceSink};
use std::sync::Arc;

use super::hooks::MemoryPolicy;
use super::runner::Simulation;
use super::state::Workload;

/// Fluent constructor for [`Simulation`]: start from a system config
/// and a workload, layer on specs and options, then [`build`] (or
/// [`run`]) the configured simulation.
///
/// Defaults: dynamic policy, seed `0x5EED`, restart cap 64, no tracing,
/// no telemetry, generated fault schedule.
///
/// [`build`]: SimBuilder::build
/// [`run`]: SimBuilder::run
#[derive(Clone, Debug)]
pub struct SimBuilder {
    sim: Simulation,
}

impl SimBuilder {
    /// Start a builder for `workload` on `cfg`.
    ///
    /// The workload is taken as `impl Into<Arc<Workload>>`: passing an
    /// owned [`Workload`] moves it into a fresh `Arc`, while passing an
    /// `Arc<Workload>` shares it — a sweep builds each workload once
    /// and every point of the grid reads the same jobs and profile
    /// pool. Sharing is sound because the runner keeps all mutable
    /// per-job state internal, never in the workload.
    pub fn new(cfg: SystemConfig, workload: impl Into<Arc<Workload>>) -> Self {
        Self {
            sim: Simulation {
                cfg,
                workload: workload.into(),
                policy: PolicySpec::Dynamic.build(),
                seed: 0x5EED,
                max_restarts: 64,
                fault_schedule: None,
                sink: Box::new(NullSink),
                telemetry: None,
            },
        }
    }

    /// Select the memory policy by registry spec
    /// (`"overcommit:factor=0.8".parse()?`). Default: [`PolicySpec::Dynamic`].
    pub fn policy(mut self, spec: PolicySpec) -> Self {
        self.sim.policy = spec.build();
        self
    }

    /// Install an arbitrary [`MemoryPolicy`] implementation — the
    /// runner never needs to know which scheme it executes, so custom
    /// and test policies plug in here.
    pub fn policy_impl(mut self, policy: Box<dyn MemoryPolicy>) -> Self {
        self.sim.policy = policy;
        self
    }

    /// Select the fabric topology by registry spec, overriding
    /// `cfg.topology`.
    pub fn topology(mut self, spec: TopologySpec) -> Self {
        self.sim.cfg.topology = spec;
        self
    }

    /// Replace the fault-injection configuration, overriding
    /// `cfg.faults`.
    pub fn faults(mut self, faults: FaultConfig) -> Self {
        self.sim.cfg.faults = faults;
        self
    }

    /// Inject an explicit fault schedule instead of generating one from
    /// the fault config. Used by tests that need a crash or degradation
    /// at an exact instant; the Monitor-loss and Actuator-failure
    /// probabilities of the config still apply.
    pub fn fault_schedule(mut self, schedule: FaultSchedule) -> Self {
        self.sim.fault_schedule = Some(schedule);
        self
    }

    /// Override the seed for the memory-update jitter stream.
    pub fn seed(mut self, seed: u64) -> Self {
        self.sim.seed = seed;
        self
    }

    /// Override the OOM restart cap (dynamic policy fairness guard).
    pub fn max_restarts(mut self, cap: u32) -> Self {
        self.sim.max_restarts = cap;
        self
    }

    /// Attach a [`TraceSink`] that receives every structured
    /// [`TraceEvent`](crate::trace::TraceEvent) the run emits. Tracing
    /// is observation-only: the outcome is bit-identical with or
    /// without a sink. The default is [`NullSink`], whose disabled
    /// state the runner caches in one bool so the scheduling hot path
    /// pays a single predictable branch.
    pub fn trace_sink(mut self, sink: Box<dyn TraceSink>) -> Self {
        self.sim.sink = sink;
        self
    }

    /// Attach a [`TelemetryCollector`] that receives the run's gauge
    /// time series and wall-clock phase profile. Telemetry is
    /// observation-only and, like tracing, costs one cached-bool branch
    /// per event when absent: the outcome is bit-identical with or
    /// without a collector. The runner accumulates locally and flushes
    /// into the collector once at finalize; keep a clone of the handle
    /// and read [`TelemetryCollector::snapshot`] after the run.
    pub fn telemetry(mut self, collector: TelemetryCollector) -> Self {
        self.sim.telemetry = Some(collector);
        self
    }

    /// Finish: the configured [`Simulation`], ready to run.
    pub fn build(self) -> Simulation {
        self.sim
    }

    /// Convenience for `build().run()`.
    pub fn run(self) -> super::SimulationOutcome {
        self.sim.run()
    }
}
