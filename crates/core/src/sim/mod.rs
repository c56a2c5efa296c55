//! The discrete-event simulation driver.
//!
//! Mirrors Figure 1b of the paper: the simulated controller receives job
//! submissions, runs FCFS+backfill scheduling passes every 30 s, replays
//! each running job's offline memory-usage trace through the
//! Monitor→Decider→Actuator→Executor loop (dynamic policy), applies the
//! contention model to stretch job durations, and handles out-of-memory
//! events by terminating and resubmitting the job (Fail/Restart or
//! Checkpoint/Restart).
//!
//! Job progress is tracked in *work seconds*: a job needs
//! `base_runtime_s` seconds of work; its instantaneous speed is
//! `1 / slowdown`, so remote-memory contention stretches wallclock
//! without touching the usage trace (which is keyed on progress).
//!
//! # Layering
//!
//! The module is split by subsystem; each file extends the `Runner`
//! state machine with one concern:
//!
//! - [`hooks`] — the [`MemoryPolicy`] trait the runner calls for every
//!   policy-dependent decision, plus the [`Baseline`], [`StaticAlloc`],
//!   and [`DynamicAlloc`] implementations (the predictive, overcommit,
//!   and conservative-growth extensions live under
//!   [`crate::policy`]). The runner itself contains no per-policy
//!   branches.
//! - `builder` — [`SimBuilder`], the unified construction surface:
//!   policy/topology specs, fault config, switches, sinks.
//! - [`runner`](self) — [`Simulation`] (the built configuration) and
//!   the event loop that dispatches events to the layers below.
//! - `state` — [`Workload`], the per-job lifecycle state machine, and
//!   the [`JobRecord`]s a run produces.
//! - `schedule` — FCFS + EASY-backfill passes, job start-up, and the
//!   contention-driven speed refresh.
//! - `dynloop` — the runtime memory events: the §2.2
//!   Monitor→Decider→Actuator→Executor loop for managed allocations and
//!   the exceeded-request probe for pinned ones.
//! - `oom` — kill-and-restart handling (OOM, fault, exceeded-request)
//!   including the §2.2 fairness ladder.
//! - `recovery` — injected node crash/repair and pool degrade/restore
//!   handlers.
//! - `stats` — [`Stats`], [`SimulationOutcome`], and the streaming
//!   metric accumulators.
//! - `bench` — the [`SchedPassBench`] fixture for the scheduling-pass
//!   benchmarks.
//!
//! Every subsystem also emits structured [`crate::trace::TraceEvent`]s
//! through the sink attached with [`SimBuilder::trace_sink`];
//! with the default [`crate::trace::NullSink`] each emit point costs a
//! single cached-bool branch.

pub mod hooks;

mod bench;
mod builder;
mod dynloop;
mod oom;
mod recovery;
mod runner;
mod schedule;
mod state;
mod stats;

#[cfg(test)]
mod tests;

pub use bench::SchedPassBench;
pub use builder::SimBuilder;
pub use hooks::{
    Baseline, DynamicAlloc, FaultEscalation, MemManagement, MemoryPolicy, StaticAlloc,
};
pub use runner::Simulation;
pub use state::{FailReason, JobOutcome, JobRecord, Workload};
pub use stats::{SimulationOutcome, Stats};
