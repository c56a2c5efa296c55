//! Sim-time gauge telemetry and wall-clock phase profiling.
//!
//! Two complementary observers, both strictly observation-only (a run's
//! outcome is bit-identical with or without them, enforced by the
//! determinism goldens):
//!
//! * **Gauge sampling** — at a configurable simulated interval the
//!   runner snapshots queue depth, pool utilisation, borrowed and
//!   cross-rack MB (total and per rack, riding the
//!   [`crate::cluster::Topology`] layer), resident-job count, and the
//!   cumulative OOM-kill / Actuator-retry counters into a
//!   fixed-capacity [`TimeSeries`]. Everything sampled is a pure
//!   function of simulation state, so equal seeds produce equal series
//!   and the exporters below emit byte-identical streams.
//! * **Phase profiling** — wall-clock [`std::time::Instant`] spans
//!   around the simulator's own phases (scheduling pass, dynamic-memory
//!   loop, OOM ladder, fault recovery, final aggregation) accumulate
//!   into a per-run [`Profile`]. Wall-clock is inherently
//!   non-deterministic, so the profile is kept out of the
//!   machine-readable exports and surfaced only in human-facing tables.
//!
//! Like tracing ([`crate::trace`]), telemetry is disabled by default
//! and gated by one cached bool in the runner, so the off path costs
//! one branch per phase. The repository benchmark (`perfbench/`) times
//! every workload with telemetry off, and reports the on-path cost as
//! `telemetry.overhead_frac`. Results travel
//! through a shared [`TelemetryCollector`] handle — the caller keeps a
//! clone, the runner flushes its locally-accumulated state into it once
//! at finalize, and [`TelemetryCollector::snapshot`] reads it back.
//!
//! Exporters on [`Telemetry`]: Prometheus text exposition
//! (textfile-collector compatible) and CSV, written directly, and JSONL
//! with a fixed key order, written through the workspace's one JSON
//! codec ([`crate::json`]).

use crate::json;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Number of profiled phases (the length of [`Phase::ALL`]).
pub const PHASE_COUNT: usize = 5;

/// A profiled simulator phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// One scheduling pass (queue scan, placement, backfill).
    Schedule,
    /// One dynamic-memory update (Monitor → Decider → Actuator →
    /// Executor).
    DynLoop,
    /// The OOM ladder: kill, allocation teardown, fairness bookkeeping,
    /// resubmission. Usually entered from inside a dynamic-memory
    /// update or a recovery handler, so its time also counts toward the
    /// enclosing phase — treat it as a nested sub-span, not a disjoint
    /// slice.
    Oom,
    /// Fault recovery: crash evacuation, repair, pool degrade/restore.
    Recovery,
    /// End-of-run aggregation (metric folds, per-job records).
    Finalize,
}

impl Phase {
    /// Every phase, in the fixed rendering/export order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::Schedule,
        Phase::DynLoop,
        Phase::Oom,
        Phase::Recovery,
        Phase::Finalize,
    ];

    /// Stable snake-case name (journal keys, table rows).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Schedule => "schedule",
            Phase::DynLoop => "dynloop",
            Phase::Oom => "oom",
            Phase::Recovery => "recovery",
            Phase::Finalize => "finalize",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::Schedule => 0,
            Phase::DynLoop => 1,
            Phase::Oom => 2,
            Phase::Recovery => 3,
            Phase::Finalize => 4,
        }
    }
}

/// Accumulated wall-clock totals per [`Phase`]. Wall-clock values are
/// non-deterministic by nature; keep them out of byte-compared exports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Profile {
    totals_ns: [u64; PHASE_COUNT],
    calls: [u64; PHASE_COUNT],
}

impl Profile {
    /// Add one span of `dur` to `phase`.
    pub fn record(&mut self, phase: Phase, dur: Duration) {
        let i = phase.index();
        self.totals_ns[i] = self.totals_ns[i].saturating_add(dur.as_nanos() as u64);
        self.calls[i] += 1;
    }

    /// Overwrite one phase's accumulated totals (journal decode).
    pub fn set_phase(&mut self, phase: Phase, ns: u64, calls: u64) {
        let i = phase.index();
        self.totals_ns[i] = ns;
        self.calls[i] = calls;
    }

    /// Fold another profile into this one (sweep aggregation).
    pub fn merge(&mut self, other: &Profile) {
        for i in 0..PHASE_COUNT {
            self.totals_ns[i] = self.totals_ns[i].saturating_add(other.totals_ns[i]);
            self.calls[i] += other.calls[i];
        }
    }

    /// Accumulated wall-clock nanoseconds for `phase`.
    pub fn phase_ns(&self, phase: Phase) -> u64 {
        self.totals_ns[phase.index()]
    }

    /// Number of spans recorded for `phase`.
    pub fn phase_calls(&self, phase: Phase) -> u64 {
        self.calls[phase.index()]
    }

    /// Sum of all phase totals, nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.totals_ns.iter().sum()
    }

    /// True when no span was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.calls.iter().all(|&c| c == 0)
    }
}

/// One gauge snapshot at a simulated instant. Every field is a pure
/// function of simulation state — no wall-clock values here.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Sample {
    /// Simulated time of the snapshot, seconds.
    pub t_s: f64,
    /// Pending-queue depth.
    pub queue_depth: u32,
    /// Jobs currently running.
    pub resident_jobs: u32,
    /// Allocated / total capacity (0 when capacity is 0).
    pub pool_util: f64,
    /// Unallocated online memory, MB.
    pub free_pool_mb: u64,
    /// Memory borrowed from remote lenders, MB (all racks).
    pub borrowed_mb: u64,
    /// Portion of `borrowed_mb` crossing a rack boundary, MB.
    pub cross_rack_mb: u64,
    /// Cumulative OOM kill events so far.
    pub oom_kills: u32,
    /// Cumulative Actuator retries so far.
    pub actuator_retries: u32,
    /// MB lent out by each rack's nodes, indexed by rack id.
    pub rack_lent_mb: Vec<u64>,
}

/// Fixed-capacity gauge series. When the store fills, it compacts
/// deterministically: every other sample is dropped and the effective
/// sampling stride doubles, so an arbitrarily long run keeps a bounded,
/// evenly-spaced summary whose contents depend only on simulated state.
#[derive(Clone, Debug, PartialEq)]
pub struct TimeSeries {
    samples: Vec<Sample>,
    capacity: usize,
    base_interval_s: f64,
    interval_s: f64,
    next_sample_s: f64,
}

impl TimeSeries {
    /// Create a series sampling every `interval_s` simulated seconds
    /// (min 1 s) into at most `capacity` slots (min 2).
    pub fn new(interval_s: f64, capacity: usize) -> Self {
        let interval_s = interval_s.max(1.0);
        Self {
            samples: Vec::new(),
            capacity: capacity.max(2),
            base_interval_s: interval_s,
            interval_s,
            next_sample_s: 0.0,
        }
    }

    /// Whether a sample is due at simulated time `t_s`. The runner
    /// checks this before paying the gauge-gathering cost.
    #[inline]
    pub fn due(&self, t_s: f64) -> bool {
        t_s >= self.next_sample_s
    }

    /// Record one sample taken at its `t_s`. Skips ahead past any idle
    /// gap (a burst after a lull contributes one sample, not a
    /// backlog), then compacts if the store is full.
    pub fn push(&mut self, sample: Sample) {
        let t = sample.t_s;
        self.samples.push(sample);
        self.next_sample_s = ((t / self.interval_s).floor() + 1.0) * self.interval_s;
        if self.samples.len() >= self.capacity {
            // Keep even indices: the oldest sample survives and spacing
            // stays uniform at twice the previous stride.
            let mut keep = 0usize;
            for i in (0..self.samples.len()).step_by(2) {
                self.samples.swap(keep, i);
                keep += 1;
            }
            self.samples.truncate(keep);
            self.interval_s *= 2.0;
        }
    }

    /// Force-record the end-of-run sample regardless of the stride, so
    /// the series always ends on the final simulated state.
    pub fn push_final(&mut self, sample: Sample) {
        if self.samples.last().is_some_and(|s| s.t_s >= sample.t_s) {
            return;
        }
        self.samples.push(sample);
        if self.samples.len() > self.capacity {
            self.samples.remove(0);
        }
    }

    /// The retained samples, oldest first.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// The configured sampling interval, seconds.
    pub fn base_interval_s(&self) -> f64 {
        self.base_interval_s
    }

    /// The effective stride after compactions, seconds.
    pub fn interval_s(&self) -> f64 {
        self.interval_s
    }
}

/// Telemetry configuration: sampling interval and series capacity.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TelemetrySpec {
    /// Simulated seconds between gauge samples (min 1 s).
    pub sample_interval_s: f64,
    /// Maximum retained samples before deterministic compaction.
    pub capacity: usize,
}

impl Default for TelemetrySpec {
    fn default() -> Self {
        Self {
            sample_interval_s: 60.0,
            capacity: 4096,
        }
    }
}

impl TelemetrySpec {
    /// Default spec with a custom sampling interval.
    pub fn with_interval(sample_interval_s: f64) -> Self {
        Self {
            sample_interval_s,
            ..Self::default()
        }
    }
}

/// Everything one run's telemetry produced: the gauge series and the
/// wall-clock phase profile.
#[derive(Clone, Debug)]
pub struct Telemetry {
    /// The sampled gauge series.
    pub series: TimeSeries,
    /// Accumulated wall-clock phase spans.
    pub profile: Profile,
}

impl Telemetry {
    fn new(spec: TelemetrySpec) -> Self {
        Self {
            series: TimeSeries::new(spec.sample_interval_s, spec.capacity),
            profile: Profile::default(),
        }
    }

    /// Render the series as Prometheus text exposition format
    /// (textfile-collector compatible): fixed family order, run-level
    /// aggregates as labelled gauge samples plus the cumulative
    /// counters from the final sample. Deterministic for equal series.
    pub fn prometheus(&self) -> String {
        let mut out = String::with_capacity(2048);
        let samples = self.series.samples();
        let gauge_u32 = |out: &mut String, name: &str, help: &str, get: &dyn Fn(&Sample) -> f64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} gauge");
            let (mut min, mut max, mut sum) = (f64::INFINITY, f64::NEG_INFINITY, 0.0);
            for s in samples {
                let v = get(s);
                min = min.min(v);
                max = max.max(v);
                sum += v;
            }
            if samples.is_empty() {
                min = 0.0;
                max = 0.0;
            }
            let mean = if samples.is_empty() {
                0.0
            } else {
                sum / samples.len() as f64
            };
            let last = samples.last().map_or(0.0, get);
            for (stat, v) in [("min", min), ("mean", mean), ("max", max), ("last", last)] {
                let _ = writeln!(out, "{name}{{stat=\"{stat}\"}} {v:.6}");
            }
        };
        gauge_u32(
            &mut out,
            "dmhpc_queue_depth",
            "Pending-queue depth at the sampling interval.",
            &|s| f64::from(s.queue_depth),
        );
        gauge_u32(
            &mut out,
            "dmhpc_resident_jobs",
            "Running jobs at the sampling interval.",
            &|s| f64::from(s.resident_jobs),
        );
        gauge_u32(
            &mut out,
            "dmhpc_pool_utilization",
            "Allocated over total memory capacity.",
            &|s| s.pool_util,
        );
        gauge_u32(
            &mut out,
            "dmhpc_free_pool_mb",
            "Unallocated online memory, MB.",
            &|s| s.free_pool_mb as f64,
        );
        gauge_u32(
            &mut out,
            "dmhpc_borrowed_mb",
            "Memory borrowed from remote lenders, MB.",
            &|s| s.borrowed_mb as f64,
        );
        gauge_u32(
            &mut out,
            "dmhpc_cross_rack_mb",
            "Borrowed memory crossing a rack boundary, MB.",
            &|s| s.cross_rack_mb as f64,
        );
        // Per-rack lender pressure from the final sample.
        let racks = samples.last().map_or(0, |s| s.rack_lent_mb.len());
        let _ = writeln!(
            out,
            "# HELP dmhpc_rack_lent_mb MB lent out by each rack's nodes (final sample)."
        );
        let _ = writeln!(out, "# TYPE dmhpc_rack_lent_mb gauge");
        for rack in 0..racks {
            let mb = samples.last().map_or(0, |s| s.rack_lent_mb[rack]);
            let _ = writeln!(out, "dmhpc_rack_lent_mb{{rack=\"{rack}\"}} {mb}");
        }
        // Cumulative counters: monotone within a run, so the final
        // sample is the run total.
        let last = samples.last();
        let _ = writeln!(out, "# HELP dmhpc_oom_kills_total OOM kill events.");
        let _ = writeln!(out, "# TYPE dmhpc_oom_kills_total counter");
        let _ = writeln!(
            out,
            "dmhpc_oom_kills_total {}",
            last.map_or(0, |s| s.oom_kills)
        );
        let _ = writeln!(
            out,
            "# HELP dmhpc_actuator_retries_total Actuator retries after transient failures."
        );
        let _ = writeln!(out, "# TYPE dmhpc_actuator_retries_total counter");
        let _ = writeln!(
            out,
            "dmhpc_actuator_retries_total {}",
            last.map_or(0, |s| s.actuator_retries)
        );
        let _ = writeln!(
            out,
            "# HELP dmhpc_telemetry_samples_total Retained samples."
        );
        let _ = writeln!(out, "# TYPE dmhpc_telemetry_samples_total counter");
        let _ = writeln!(out, "dmhpc_telemetry_samples_total {}", samples.len());
        let _ = writeln!(
            out,
            "# HELP dmhpc_sample_interval_seconds Effective sampling stride, simulated seconds."
        );
        let _ = writeln!(out, "# TYPE dmhpc_sample_interval_seconds gauge");
        let _ = writeln!(
            out,
            "dmhpc_sample_interval_seconds {:.6}",
            self.series.interval_s()
        );
        out
    }

    /// Render the series as CSV: fixed header, one row per sample,
    /// per-rack lent-MB columns appended. Deterministic for equal
    /// series.
    pub fn csv(&self) -> String {
        let samples = self.series.samples();
        let racks = samples
            .iter()
            .map(|s| s.rack_lent_mb.len())
            .max()
            .unwrap_or(0);
        let mut out = String::with_capacity(64 * (samples.len() + 1));
        out.push_str(
            "t_s,queue_depth,resident_jobs,pool_util,free_pool_mb,borrowed_mb,cross_rack_mb,oom_kills,actuator_retries",
        );
        for rack in 0..racks {
            let _ = write!(out, ",rack{rack}_lent_mb");
        }
        out.push('\n');
        for s in samples {
            let _ = write!(
                out,
                "{:.3},{},{},{:.6},{},{},{},{},{}",
                s.t_s,
                s.queue_depth,
                s.resident_jobs,
                s.pool_util,
                s.free_pool_mb,
                s.borrowed_mb,
                s.cross_rack_mb,
                s.oom_kills,
                s.actuator_retries
            );
            for rack in 0..racks {
                let _ = write!(out, ",{}", s.rack_lent_mb.get(rack).copied().unwrap_or(0));
            }
            out.push('\n');
        }
        out
    }

    /// Render the series as JSONL: one object per sample with a fixed
    /// key order. Deterministic for equal series.
    pub fn jsonl(&self) -> String {
        let samples = self.series.samples();
        let mut out = String::with_capacity(128 * samples.len());
        for s in samples {
            json::write_object(&mut out, |w| {
                w.fixed("t", s.t_s, 3)
                    .u64("queue_depth", s.queue_depth)
                    .u64("resident_jobs", s.resident_jobs)
                    .fixed("pool_util", s.pool_util, 6)
                    .u64("free_pool_mb", s.free_pool_mb)
                    .u64("borrowed_mb", s.borrowed_mb)
                    .u64("cross_rack_mb", s.cross_rack_mb)
                    .u64("oom_kills", s.oom_kills)
                    .u64("actuator_retries", s.actuator_retries)
                    .u64s("rack_lent_mb", s.rack_lent_mb.iter().copied());
            });
            out.push('\n');
        }
        out
    }
}

/// Shared handle collecting one run's telemetry. Clones share the
/// accumulator: pass a clone to [`crate::sim::SimBuilder::telemetry`],
/// keep one, and read [`TelemetryCollector::snapshot`] after the run.
/// The runner accumulates locally and flushes once at finalize, so the
/// event loop never touches the lock.
#[derive(Clone, Debug)]
pub struct TelemetryCollector {
    shared: Arc<Mutex<Telemetry>>,
    spec: TelemetrySpec,
}

impl TelemetryCollector {
    /// Create a collector with the given sampling spec.
    pub fn new(spec: TelemetrySpec) -> Self {
        Self {
            shared: Arc::new(Mutex::new(Telemetry::new(spec))),
            spec,
        }
    }

    /// The sampling spec this collector was built with.
    pub fn spec(&self) -> TelemetrySpec {
        self.spec
    }

    /// Replace the accumulated state with a finished run's series and
    /// merge its profile (sequential reuse across runs accumulates the
    /// profile while keeping the latest series).
    pub(crate) fn absorb(&self, series: TimeSeries, profile: &Profile) {
        let mut t = self.shared.lock().expect("telemetry collector poisoned");
        t.series = series;
        t.profile.merge(profile);
    }

    /// Snapshot of the accumulated telemetry.
    pub fn snapshot(&self) -> Telemetry {
        self.shared
            .lock()
            .expect("telemetry collector poisoned")
            .clone()
    }
}

impl Default for TelemetryCollector {
    fn default() -> Self {
        Self::new(TelemetrySpec::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(t: f64, depth: u32) -> Sample {
        Sample {
            t_s: t,
            queue_depth: depth,
            resident_jobs: 1,
            pool_util: 0.5,
            free_pool_mb: 100,
            borrowed_mb: 10,
            cross_rack_mb: 5,
            oom_kills: 0,
            actuator_retries: 0,
            rack_lent_mb: vec![7, 3],
        }
    }

    #[test]
    fn phase_names_follow_all_order() {
        let names: Vec<_> = Phase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            ["schedule", "dynloop", "oom", "recovery", "finalize"]
        );
        for (i, p) in Phase::ALL.into_iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }

    #[test]
    fn profile_records_and_merges() {
        let mut a = Profile::default();
        a.record(Phase::Schedule, Duration::from_nanos(100));
        a.record(Phase::Schedule, Duration::from_nanos(50));
        a.record(Phase::Oom, Duration::from_nanos(25));
        let mut b = Profile::default();
        b.record(Phase::Schedule, Duration::from_nanos(10));
        a.merge(&b);
        assert_eq!(a.phase_ns(Phase::Schedule), 160);
        assert_eq!(a.phase_calls(Phase::Schedule), 3);
        assert_eq!(a.phase_ns(Phase::Oom), 25);
        assert_eq!(a.total_ns(), 185);
        assert!(!a.is_empty());
        assert!(Profile::default().is_empty());

        let mut c = Profile::default();
        c.set_phase(Phase::Recovery, 42, 2);
        assert_eq!(c.phase_ns(Phase::Recovery), 42);
        assert_eq!(c.phase_calls(Phase::Recovery), 2);
    }

    #[test]
    fn time_series_samples_at_stride_and_skips_idle_gaps() {
        let mut ts = TimeSeries::new(10.0, 64);
        for t in [0.0, 5.0, 10.0, 11.0, 35.0] {
            if ts.due(t) {
                ts.push(sample(t, 4));
            }
        }
        let times: Vec<_> = ts.samples().iter().map(|s| s.t_s).collect();
        assert_eq!(times, vec![0.0, 10.0, 35.0]);
    }

    #[test]
    fn time_series_compacts_deterministically() {
        let mut ts = TimeSeries::new(1.0, 4);
        for i in 0..10 {
            let t = f64::from(i);
            if ts.due(t) {
                ts.push(sample(t, i as u32));
            }
        }
        // Capacity 4 with stride doubling: the survivors stay evenly
        // spaced and bounded, and the same input always yields the same
        // survivors.
        assert!(ts.samples().len() < 4);
        assert!(ts.interval_s() > ts.base_interval_s());
        let mut ts2 = TimeSeries::new(1.0, 4);
        for i in 0..10 {
            let t = f64::from(i);
            if ts2.due(t) {
                ts2.push(sample(t, i as u32));
            }
        }
        assert_eq!(ts.samples(), ts2.samples());
    }

    #[test]
    fn push_final_always_lands_once() {
        let mut ts = TimeSeries::new(10.0, 8);
        ts.push(sample(0.0, 1));
        ts.push_final(sample(42.0, 0));
        ts.push_final(sample(42.0, 0));
        let times: Vec<_> = ts.samples().iter().map(|s| s.t_s).collect();
        assert_eq!(times, vec![0.0, 42.0]);
    }

    #[test]
    fn exporters_are_deterministic_and_fixed_order() {
        let spec = TelemetrySpec::with_interval(10.0);
        let make = || {
            let mut t = Telemetry::new(spec);
            t.series.push(sample(0.0, 4));
            t.series.push(sample(10.0, 2));
            t
        };
        let (a, b) = (make(), make());
        assert_eq!(a.prometheus(), b.prometheus());
        assert_eq!(a.csv(), b.csv());
        assert_eq!(a.jsonl(), b.jsonl());

        let prom = a.prometheus();
        for family in [
            "dmhpc_queue_depth",
            "dmhpc_resident_jobs",
            "dmhpc_pool_utilization",
            "dmhpc_free_pool_mb",
            "dmhpc_borrowed_mb",
            "dmhpc_cross_rack_mb",
            "dmhpc_rack_lent_mb",
            "dmhpc_oom_kills_total",
            "dmhpc_actuator_retries_total",
            "dmhpc_telemetry_samples_total",
            "dmhpc_sample_interval_seconds",
        ] {
            assert!(prom.contains(&format!("# TYPE {family}")), "{family}");
        }
        assert!(prom.contains("dmhpc_rack_lent_mb{rack=\"0\"} 7"));

        let csv = a.csv();
        assert!(csv.starts_with("t_s,queue_depth,resident_jobs,pool_util,"));
        assert!(csv.contains("rack0_lent_mb,rack1_lent_mb"));
        assert_eq!(csv.lines().count(), 3);

        let jsonl = a.jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.starts_with("{\"t\":0.000,\"queue_depth\":4,"));
        assert!(jsonl.contains("\"rack_lent_mb\":[7,3]"));
    }

    #[test]
    fn collector_absorbs_and_snapshots() {
        let collector = TelemetryCollector::new(TelemetrySpec::with_interval(5.0));
        let clone = collector.clone();
        let mut series = TimeSeries::new(5.0, 16);
        series.push(sample(0.0, 9));
        let mut profile = Profile::default();
        profile.record(Phase::Finalize, Duration::from_nanos(7));
        clone.absorb(series, &profile);
        let snap = collector.snapshot();
        assert_eq!(snap.series.samples().len(), 1);
        assert_eq!(snap.series.samples()[0].queue_depth, 9);
        assert_eq!(snap.profile.phase_ns(Phase::Finalize), 7);
        assert_eq!(collector.spec().sample_interval_s, 5.0);
    }
}
