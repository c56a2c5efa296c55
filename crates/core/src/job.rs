//! Job model: what a user submits plus the offline memory-usage trace the
//! simulator replays (paper §2.3 — the Decider receives memory usage from
//! the offline trace rather than from live nodes).

use crate::error::CoreError;
use dmhpc_model::ProfileId;

/// Unique job identifier within a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u32);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job{}", self.0)
    }
}

/// Per-node memory consumption of a job over its lifetime, as a piecewise
/// constant function of *progress* (the fraction of the job's total work
/// completed, in `[0, 1]`).
///
/// Keying on progress rather than wallclock makes the trace invariant to
/// slowdown: if contention stretches the job's execution, its memory
/// phases stretch with it, which is exactly how the simulator applies
/// usage updates (paper §2.3: "To calculate the expected simulation time
/// it uses the job's progress").
///
/// Points are `(progress, mem_mb)`; the value at progress `p` is the
/// `mem_mb` of the last point with `progress <= p`. The first point is
/// always at progress 0.
///
/// ```
/// use dmhpc_core::job::MemoryUsageTrace;
///
/// let t = MemoryUsageTrace::new(vec![(0.0, 512), (0.5, 4096)]).unwrap();
/// assert_eq!(t.usage_at(0.25), 512);
/// assert_eq!(t.usage_at(0.75), 4096);
/// assert_eq!(t.peak(), 4096);
/// // The Decider provisions the max over the coming window:
/// assert_eq!(t.max_in(0.4, 0.6), 4096);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct MemoryUsageTrace {
    points: Vec<(f64, u64)>,
}

impl MemoryUsageTrace {
    /// Build a trace from `(progress, mem_mb)` points.
    ///
    /// # Errors
    /// Returns an error if points are empty, unsorted, out of `[0,1]`, or
    /// do not start at progress 0.
    pub fn new(points: Vec<(f64, u64)>) -> Result<Self, CoreError> {
        if points.is_empty() {
            return Err(CoreError::invalid_trace(
                "usage trace needs at least one point",
            ));
        }
        if points[0].0 != 0.0 {
            return Err(CoreError::invalid_trace(format!(
                "usage trace must start at progress 0, starts at {}",
                points[0].0
            )));
        }
        for w in points.windows(2) {
            if w[1].0 <= w[0].0 {
                return Err(CoreError::invalid_trace(format!(
                    "usage trace progress must be strictly increasing: {} then {}",
                    w[0].0, w[1].0
                )));
            }
        }
        if let Some(&(p, _)) = points.iter().find(|&&(p, _)| !(0.0..=1.0).contains(&p)) {
            return Err(CoreError::invalid_trace(format!(
                "usage trace progress {p} outside [0,1]"
            )));
        }
        Ok(Self { points })
    }

    /// A flat trace: constant memory use over the whole job.
    pub fn flat(mem_mb: u64) -> Self {
        Self {
            points: vec![(0.0, mem_mb)],
        }
    }

    /// Memory in use at the given progress (clamped to `[0,1]`).
    pub fn usage_at(&self, progress: f64) -> u64 {
        let p = progress.clamp(0.0, 1.0);
        // Last point with progress <= p. partition_point gives the first
        // index with point.0 > p; the answer is the one before it.
        let idx = self.points.partition_point(|&(q, _)| q <= p);
        self.points[idx.saturating_sub(1)].1
    }

    /// Maximum memory used over the progress interval `[from, to]`
    /// (clamped). This is the demand the Decider enforces for the period
    /// between two usage updates (paper §2.3: "the maximum memory usage in
    /// the time period between the current progress and the next update").
    pub fn max_in(&self, from: f64, to: f64) -> u64 {
        let (from, to) = (from.clamp(0.0, 1.0), to.clamp(0.0, 1.0));
        let (from, to) = if from <= to { (from, to) } else { (to, from) };
        let mut max = self.usage_at(from);
        for &(p, m) in &self.points {
            if p > from && p <= to {
                max = max.max(m);
            }
        }
        max
    }

    /// [`Self::usage_at`] with a resumable cursor: `cursor` is the index
    /// of the segment active at the previous query, and the scan resumes
    /// there instead of binary-searching the whole trace. Per-job
    /// progress only moves forward between restarts, so across a job's
    /// life the cursor walks each trace point once — O(1) amortized
    /// per call. A backwards query (job restarted with checkpoint
    /// credit) rewinds the cursor linearly; result is identical to
    /// [`Self::usage_at`] either way.
    pub fn usage_at_from(&self, progress: f64, cursor: &mut usize) -> u64 {
        let p = progress.clamp(0.0, 1.0);
        let mut i = (*cursor).min(self.points.len() - 1);
        // Rewind if the caller moved backwards (restart rewound progress).
        while i > 0 && self.points[i].0 > p {
            i -= 1;
        }
        // Advance to the last point with progress <= p.
        while i + 1 < self.points.len() && self.points[i + 1].0 <= p {
            i += 1;
        }
        *cursor = i;
        self.points[i].1
    }

    /// [`Self::max_in`] with a resumable cursor (see
    /// [`Self::usage_at_from`]): the cursor advances to `from`, and the
    /// window scan reads only the points inside `(from, to]`, which sit
    /// immediately after it — no full-trace rescan per Monitor sample.
    pub fn max_in_from(&self, from: f64, to: f64, cursor: &mut usize) -> u64 {
        let (from, to) = (from.clamp(0.0, 1.0), to.clamp(0.0, 1.0));
        let (from, to) = if from <= to { (from, to) } else { (to, from) };
        let mut max = self.usage_at_from(from, cursor);
        // The cursor is the last point at or before `from`; every later
        // point has progress > from, so scan forward while <= to.
        let mut i = *cursor + 1;
        while i < self.points.len() && self.points[i].0 <= to {
            max = max.max(self.points[i].1);
            i += 1;
        }
        max
    }

    /// Peak memory over the whole job.
    pub fn peak(&self) -> u64 {
        self.points.iter().map(|&(_, m)| m).max().unwrap_or(0)
    }

    /// Time-average memory use, weighting each segment by its progress
    /// span (equals the wallclock average when the job runs at constant
    /// speed).
    pub fn average(&self) -> f64 {
        let mut acc = 0.0;
        for (i, &(p, m)) in self.points.iter().enumerate() {
            let next = self.points.get(i + 1).map(|&(q, _)| q).unwrap_or(1.0);
            acc += (next - p) * m as f64;
        }
        acc
    }

    /// The underlying `(progress, mem_mb)` points.
    pub fn points(&self) -> &[(f64, u64)] {
        &self.points
    }

    /// Number of points in the trace.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Always false: a constructed trace has at least one point.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// A job as the resource manager sees it.
#[derive(Clone, Debug)]
pub struct Job {
    /// Identifier, unique within the workload.
    pub id: JobId,
    /// Submission time in seconds from the start of the trace.
    pub submit_s: f64,
    /// Number of (exclusive) nodes requested.
    pub nodes: u32,
    /// Base runtime in seconds at full performance (no remote slowdown).
    pub base_runtime_s: f64,
    /// The user's wallclock limit in seconds (≥ runtime; used by
    /// backfill to estimate when resources free up).
    pub time_limit_s: f64,
    /// Memory requested per node in MB — what the user wrote in the
    /// submission script, i.e. peak × (1 + overestimation).
    pub mem_request_mb: u64,
    /// True per-node memory consumption over progress.
    pub usage: MemoryUsageTrace,
    /// Profile used by the slowdown model (not visible to the policy).
    pub profile: ProfileId,
}

impl Job {
    /// Peak per-node memory consumption in MB.
    pub fn peak_mb(&self) -> u64 {
        self.usage.peak()
    }

    /// Node-hours of the job at its base runtime.
    pub fn node_hours(&self) -> f64 {
        self.nodes as f64 * self.base_runtime_s / 3600.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> MemoryUsageTrace {
        MemoryUsageTrace::new(vec![(0.0, 100), (0.25, 400), (0.5, 200), (0.9, 800)]).unwrap()
    }

    #[test]
    fn rejects_empty_and_unsorted() {
        assert!(MemoryUsageTrace::new(vec![]).is_err());
        assert!(MemoryUsageTrace::new(vec![(0.0, 1), (0.5, 2), (0.5, 3)]).is_err());
        assert!(MemoryUsageTrace::new(vec![(0.1, 1)]).is_err());
        assert!(MemoryUsageTrace::new(vec![(0.0, 1), (1.5, 2)]).is_err());
    }

    #[test]
    fn usage_at_steps() {
        let t = trace();
        assert_eq!(t.usage_at(0.0), 100);
        assert_eq!(t.usage_at(0.1), 100);
        assert_eq!(t.usage_at(0.25), 400);
        assert_eq!(t.usage_at(0.3), 400);
        assert_eq!(t.usage_at(0.5), 200);
        assert_eq!(t.usage_at(0.95), 800);
        assert_eq!(t.usage_at(1.0), 800);
    }

    #[test]
    fn usage_clamps_out_of_range() {
        let t = trace();
        assert_eq!(t.usage_at(-1.0), 100);
        assert_eq!(t.usage_at(2.0), 800);
    }

    #[test]
    fn max_in_window() {
        let t = trace();
        assert_eq!(t.max_in(0.0, 0.2), 100);
        assert_eq!(t.max_in(0.0, 0.25), 400);
        assert_eq!(t.max_in(0.3, 0.6), 400); // value at 0.3 is 400
        assert_eq!(t.max_in(0.55, 0.8), 200);
        assert_eq!(t.max_in(0.0, 1.0), 800);
    }

    #[test]
    fn max_in_swapped_bounds() {
        let t = trace();
        assert_eq!(t.max_in(1.0, 0.0), 800);
    }

    #[test]
    fn cursor_twins_match_full_scans_on_monotone_and_rewound_queries() {
        let t = trace();
        // Forward walk: the cursor variants must agree with the
        // full-scan originals at every step.
        let mut cur = 0usize;
        for i in 0..=100 {
            let p = i as f64 / 100.0;
            assert_eq!(t.usage_at_from(p, &mut cur), t.usage_at(p), "p={p}");
        }
        // Rewind (job restart): the cursor walks back and still agrees.
        assert_eq!(t.usage_at_from(0.1, &mut cur), t.usage_at(0.1));
        assert_eq!(cur, 0);
        // Windowed max over a forward walk, including swapped bounds.
        let mut cur = 0usize;
        for i in 0..=50 {
            let from = i as f64 / 50.0 * 0.9;
            let to = from + 0.15;
            assert_eq!(t.max_in_from(from, to, &mut cur), t.max_in(from, to));
        }
        let mut cur = 3usize;
        assert_eq!(t.max_in_from(1.0, 0.0, &mut cur), t.max_in(1.0, 0.0));
    }

    #[test]
    fn cursor_twins_randomized_equivalence() {
        // Deterministic LCG over random traces and monotone query
        // sequences with occasional rewinds — the `first_exceed_at`
        // style equivalence sweep for the cursor twins.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 11
        };
        for _ in 0..200 {
            let n = 1 + (next() % 9) as usize;
            let mut pts = vec![(0.0, 64 + next() % 4096)];
            let mut p = 0.0;
            for _ in 1..n {
                p += 0.01 + (next() % 100) as f64 / 500.0;
                if p > 1.0 {
                    break;
                }
                pts.push((p, 64 + next() % 4096));
            }
            let t = MemoryUsageTrace::new(pts).unwrap();
            let mut cur = 0usize;
            let mut q = 0.0f64;
            for _ in 0..40 {
                if next() % 8 == 0 {
                    q = (q - 0.3).max(0.0); // restart-style rewind
                } else {
                    q = (q + (next() % 100) as f64 / 1000.0).min(1.0);
                }
                let horizon = q + (next() % 200) as f64 / 1000.0;
                assert_eq!(t.usage_at_from(q, &mut cur), t.usage_at(q));
                assert_eq!(t.max_in_from(q, horizon, &mut cur), t.max_in(q, horizon));
            }
        }
    }

    #[test]
    fn peak_and_average() {
        let t = trace();
        assert_eq!(t.peak(), 800);
        // Segments: [0,0.25)x100 + [0.25,0.5)x400 + [0.5,0.9)x200 + [0.9,1]x800
        let expect = 0.25 * 100.0 + 0.25 * 400.0 + 0.4 * 200.0 + 0.1 * 800.0;
        assert!((t.average() - expect).abs() < 1e-9);
    }

    #[test]
    fn flat_trace() {
        let t = MemoryUsageTrace::flat(512);
        assert_eq!(t.peak(), 512);
        assert_eq!(t.usage_at(0.5), 512);
        assert!((t.average() - 512.0).abs() < 1e-9);
    }

    #[test]
    fn job_node_hours() {
        let j = Job {
            id: JobId(1),
            submit_s: 0.0,
            nodes: 4,
            base_runtime_s: 1800.0,
            time_limit_s: 3600.0,
            mem_request_mb: 1000,
            usage: MemoryUsageTrace::flat(800),
            profile: ProfileId(0),
        };
        assert!((j.node_hours() - 2.0).abs() < 1e-12);
        assert_eq!(j.peak_mb(), 800);
    }
}
