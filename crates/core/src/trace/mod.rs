//! Structured per-run event tracing.
//!
//! Every interesting transition in a run — job lifecycle, dynamic-memory
//! actions, scheduler passes, injected faults — can be emitted as a
//! [`TraceEvent`] through a [`TraceSink`]. The default sink is
//! [`NullSink`], whose `enabled()` check the runner caches in a single
//! bool so the allocation-free scheduling hot path pays one predictable
//! branch and nothing else. Tracing is strictly observational: sinks
//! receive `&TraceEvent` and cannot influence the simulation, so any
//! run's outcome is bit-identical with or without a sink attached.
//!
//! Sinks provided here:
//!
//! * [`NullSink`] — zero-cost default (`enabled() == false`).
//! * [`JsonlSink`] — streams one JSON object per line to any writer.
//! * [`CountingSink`] — folds the stream into a [`RunMetrics`] summary
//!   (per-kind and per-subsystem counts, the Actuator retry histogram);
//!   the time series live in [`crate::telemetry`].
//! * [`FanoutSink`] — duplicates events to several sinks.
//!
//! The JSONL format goes through the one JSON codec, [`crate::json`]:
//! flat objects with a fixed key order per kind, so equal runs produce
//! byte-identical streams. [`parse_jsonl`] and [`validate_stream`] read
//! it back for filtering, diffing and CI validation.
//!
//! The module tree splits the surface by concern, in the
//! `core::cluster` decomposition style:
//!
//! * [`kinds`] — the event taxonomy ([`TraceEvent`], [`TraceKind`],
//!   [`KillReason`], [`Subsystem`]);
//! * [`sinks`] — the [`TraceSink`] trait and every shipped sink;
//! * [`jsonl`] — each kind's fixed-key-order JSONL line, the `t` and
//!   `kind` reader, and stream validation;
//! * [`metrics`] — the [`RunMetrics`] fold behind [`CountingSink`].

pub mod jsonl;
pub mod kinds;
pub mod metrics;
pub mod sinks;

pub use jsonl::{parse_jsonl, validate_stream, ParsedEvent};
pub use kinds::{KillReason, Subsystem, TraceEvent, TraceKind};
pub use metrics::{CountingSink, RunMetrics};
pub use sinks::{FanoutSink, JsonlSink, NullSink, SharedBuf, TraceSink};
