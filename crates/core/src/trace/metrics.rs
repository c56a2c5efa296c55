//! The [`RunMetrics`] fold behind [`CountingSink`].

use std::sync::{Arc, Mutex};

use super::kinds::{Subsystem, TraceEvent, TraceKind};
use super::sinks::TraceSink;

/// Run-level summary built from the event stream by [`CountingSink`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunMetrics {
    /// Total events recorded.
    pub total_events: u64,
    /// Job submissions (first submits plus resubmissions).
    pub job_submits: u64,
    /// Job starts.
    pub job_starts: u64,
    /// Successful completions.
    pub job_finishes: u64,
    /// Kill events (OOM, fault, exceeded-request).
    pub job_kills: u64,
    /// Resubmissions after a kill.
    pub job_requeues: u64,
    /// Decider invocations.
    pub mem_decides: u64,
    /// Decider invocations that held the allocation steady.
    pub mem_holds: u64,
    /// Executed entry grows.
    pub mem_grows: u64,
    /// Executed shrinks.
    pub mem_shrinks: u64,
    /// Injected Monitor sample losses.
    pub monitor_losses: u64,
    /// Actuator escalations (retry budget exhausted).
    pub actuator_escalations: u64,
    /// Retries by consecutive-attempt number: `histogram[i]` counts
    /// retries that were attempt `i + 1` (attempts beyond 16 saturate
    /// into the last bucket).
    pub actuator_retry_histogram: Vec<u64>,
    /// Scheduling passes that examined a non-empty window.
    pub sched_passes: u64,
    /// Queue-window jobs examined, summed over passes.
    pub jobs_considered: u64,
    /// Jobs placed by scheduling passes.
    pub jobs_placed: u64,
    /// Deepest backfill scan behind a blocked head.
    pub max_backfill_depth: u32,
    /// Injected node crashes that took effect.
    pub node_crashes: u64,
    /// Node repairs.
    pub node_repairs: u64,
    /// Pool degradations that took effect.
    pub pool_degrades: u64,
    /// Pool restores.
    pub pool_restores: u64,
    /// Events per subsystem, indexed by `Subsystem as usize`.
    subsystem_events: [u64; 4],
}

/// Every subsystem in declaration order, so `SUBSYSTEMS[sub as usize]`
/// is `sub`.
const SUBSYSTEMS: [Subsystem; 4] = [
    Subsystem::Job,
    Subsystem::Mem,
    Subsystem::Sched,
    Subsystem::Fault,
];

/// Retry-histogram saturation bucket (attempt numbers ≥ 16 share it).
const RETRY_HIST_BUCKETS: usize = 16;

impl RunMetrics {
    /// Events recorded for one subsystem, as `(subsystem, count)` rows.
    pub fn by_subsystem(&self) -> [(Subsystem, u64); 4] {
        std::array::from_fn(|i| (SUBSYSTEMS[i], self.subsystem_events[i]))
    }

    fn fold(&mut self, ev: &TraceEvent) {
        self.total_events += 1;
        self.subsystem_events[ev.kind.subsystem() as usize] += 1;
        match ev.kind {
            TraceKind::JobSubmit { .. } => self.job_submits += 1,
            TraceKind::JobStart { .. } => self.job_starts += 1,
            TraceKind::JobFinish { .. } => self.job_finishes += 1,
            TraceKind::JobKill { .. } => self.job_kills += 1,
            TraceKind::JobRequeue { .. } => self.job_requeues += 1,
            TraceKind::MemDecide {
                grow_mb,
                shrink_to_mb,
                ..
            } => {
                self.mem_decides += 1;
                if grow_mb == 0 && shrink_to_mb == 0 {
                    self.mem_holds += 1;
                }
            }
            TraceKind::MemGrow { .. } => self.mem_grows += 1,
            TraceKind::MemShrink { .. } => self.mem_shrinks += 1,
            TraceKind::MonitorLoss { .. } => self.monitor_losses += 1,
            TraceKind::ActuatorRetry { attempt, .. } => {
                let bucket = (attempt.max(1) as usize - 1).min(RETRY_HIST_BUCKETS - 1);
                if self.actuator_retry_histogram.len() <= bucket {
                    self.actuator_retry_histogram.resize(bucket + 1, 0);
                }
                self.actuator_retry_histogram[bucket] += 1;
            }
            TraceKind::ActuatorEscalate { .. } => self.actuator_escalations += 1,
            TraceKind::SchedPassStart { .. } => self.sched_passes += 1,
            TraceKind::SchedPassEnd {
                considered,
                started,
                backfill_depth,
            } => {
                self.jobs_considered += u64::from(considered);
                self.jobs_placed += u64::from(started);
                self.max_backfill_depth = self.max_backfill_depth.max(backfill_depth);
            }
            TraceKind::NodeCrash { .. } => self.node_crashes += 1,
            TraceKind::NodeRepair { .. } => self.node_repairs += 1,
            TraceKind::PoolDegrade { .. } => self.pool_degrades += 1,
            TraceKind::PoolRestore { .. } => self.pool_restores += 1,
        }
    }
}

/// Folds the stream into a shared [`RunMetrics`]; clones share the
/// accumulator, so keep a handle and call [`CountingSink::metrics`]
/// after the run.
#[derive(Clone, Debug, Default)]
pub struct CountingSink {
    shared: Arc<Mutex<RunMetrics>>,
}

impl CountingSink {
    /// Same as [`CountingSink::default`]. The argument is unused: the
    /// constructor keeps its signature only for the benchmark in
    /// `perfbench/`, and goes with the next change to that benchmark.
    pub fn new(_sample_interval_s: f64) -> Self {
        Self::default()
    }

    /// Snapshot of the accumulated metrics.
    pub fn metrics(&self) -> RunMetrics {
        self.shared.lock().expect("counting sink poisoned").clone()
    }
}

impl TraceSink for CountingSink {
    fn record(&mut self, ev: &TraceEvent) {
        self.shared.lock().expect("counting sink poisoned").fold(ev);
    }

    fn clone_box(&self) -> Box<dyn TraceSink> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SimTime;
    use crate::job::JobId;

    #[test]
    fn counting_sink_builds_histogram_and_subsystem_counts() {
        let counting = CountingSink::default();
        let mut sink: Box<dyn TraceSink> = Box::new(counting.clone());
        for (t, attempt) in [(0.0, 1), (1.0, 1), (2.0, 2), (3.0, 99)] {
            sink.record(&TraceEvent {
                t: SimTime::from_secs(t),
                kind: TraceKind::ActuatorRetry {
                    job: JobId(0),
                    attempt,
                    backoff_s: 30.0,
                },
            });
        }
        for t in [0.0, 5.0, 10.0, 11.0, 35.0] {
            sink.record(&TraceEvent {
                t: SimTime::from_secs(t),
                kind: TraceKind::SchedPassStart {
                    queued: 4,
                    alloc_mb: 500,
                    cap_mb: 1000,
                },
            });
        }
        let m = counting.metrics();
        assert_eq!(m.actuator_retry_histogram[0], 2);
        assert_eq!(m.actuator_retry_histogram[1], 1);
        assert_eq!(m.actuator_retry_histogram[RETRY_HIST_BUCKETS - 1], 1);
        assert_eq!(m.sched_passes, 5);
        assert_eq!(m.total_events, 9);
        assert_eq!(
            m.by_subsystem(),
            [
                (Subsystem::Job, 0),
                (Subsystem::Mem, 4),
                (Subsystem::Sched, 5),
                (Subsystem::Fault, 0)
            ]
        );
    }
}
