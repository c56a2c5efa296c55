//! Google-Borg-like per-job memory traces (paper §3.1.3).
//!
//! The paper takes per-job memory-over-time shapes from the 2019 Google
//! cluster trace (cell *b*): usage is sampled once per second on each
//! machine and recorded as **average and maximum values over 5-minute
//! windows**; memory sizes are normalised to the largest machine (the
//! paper denormalises with 12 TB). Only *best-effort batch* jobs that are
//! latency-insensitive and finished normally at least once are kept.
//!
//! The real trace is proprietary-obfuscated and ~TBs; this module
//! generates a statistical clone exercising the identical code path: a
//! pool of jobs with priorities, scheduling classes, terminal states and
//! 5-minute windowed (avg, max) memory profiles spanning the shape
//! families seen in cloud batch workloads (ramps, phase steps, periodic
//! spikes, front/back-loaded). Matching (Fig. 3 step 6) then selects the
//! nearest job in (size, runtime, memory) space and its shape becomes
//! the synthetic job's usage trace.

use dmhpc_model::rng::Rng64;

/// Denormalisation constant: the largest machine memory reported at the
/// time of the trace (12 TB), in MB.
pub const MAX_MACHINE_MB: f64 = 12.0 * 1024.0 * 1024.0;

/// Borg priority tiers (coarsened from the trace's 0–450 bands).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Priority {
    /// Free tier (≤ 99).
    Free,
    /// Best-effort batch (100–115) — what the paper keeps.
    BestEffortBatch,
    /// Mid tier (116–359).
    Mid,
    /// Production / monitoring (≥ 360) — user-facing, excluded.
    Production,
}

/// One 5-minute measurement window: average and maximum memory usage as
/// fractions of the largest machine (the trace's normalised form).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MemWindow {
    /// Mean usage over the window, normalised.
    pub avg: f64,
    /// Peak usage over the window, normalised. `avg <= max`.
    pub max: f64,
}

/// One job of the (synthetic) Google trace.
#[derive(Clone, Debug)]
pub struct GoogleJob {
    /// Identifier within the pool.
    pub id: u32,
    /// Number of parallel tasks (the paper matches this against the HPC
    /// job's node count).
    pub tasks: u32,
    /// Wallclock duration in seconds.
    pub runtime_s: f64,
    /// Priority tier.
    pub priority: Priority,
    /// Latency-sensitivity class, 0 (insensitive) to 3 (user-facing).
    pub scheduling_class: u8,
    /// Whether at least one execution finished normally.
    pub finished_normally: bool,
    /// 5-minute windows covering the runtime.
    pub windows: Vec<MemWindow>,
}

impl GoogleJob {
    /// Peak normalised memory over the job.
    pub fn peak_norm(&self) -> f64 {
        self.windows.iter().map(|w| w.max).fold(0.0, f64::max)
    }

    /// Peak memory in MB after denormalisation against the 12 TB
    /// largest-machine capacity.
    pub fn peak_mb(&self) -> f64 {
        self.peak_norm() * MAX_MACHINE_MB
    }

    /// The usage shape as `(progress, fraction_of_peak)` points, built
    /// from the window **maxima** — the paper uses the max within each
    /// window to define the usage for the period, and scales the trace's
    /// runtime to the job's wallclock (here: progress).
    pub fn shape(&self) -> Vec<(f64, f64)> {
        let peak = self.peak_norm();
        if peak <= 0.0 || self.windows.is_empty() {
            return vec![(0.0, 1.0)];
        }
        let n = self.windows.len();
        self.windows
            .iter()
            .enumerate()
            .map(|(i, w)| (i as f64 / n as f64, w.max / peak))
            .collect()
    }
}

/// A pool of Google-like jobs plus matching-normalisation constants.
#[derive(Clone, Debug)]
pub struct GooglePool {
    jobs: Vec<GoogleJob>,
    /// Every job's match keys, sorted by task count (ties in pool
    /// order), so [`match_job`](Self::match_job) reads no window.
    by_tasks: Vec<MatchKey>,
    task_scale: f64,
    runtime_scale: f64,
    mem_scale: f64,
}

/// One pool job's coordinates in matching space, computed once when the
/// pool is built: `tasks as f64`, `runtime_s` and `peak_mb()`.
#[derive(Clone, Copy, Debug)]
struct MatchKey {
    tasks: f64,
    runtime_s: f64,
    peak_mb: f64,
    /// Position of the job in [`GooglePool::jobs`].
    index: u32,
}

/// Shape families generated by the synthetic pool.
const N_FAMILIES: u64 = 5;

impl GooglePool {
    /// Generate a synthetic pool of `n` raw jobs (before filtering).
    pub fn synthetic(n: usize, seed: u64) -> Self {
        assert!(n > 0);
        let mut rng = Rng64::stream(seed, 0x600613);
        let jobs = (0..n).map(|i| Self::gen_job(i as u32, &mut rng)).collect();
        Self::from_jobs(jobs)
    }

    fn from_jobs(jobs: Vec<GoogleJob>) -> Self {
        let mut by_tasks: Vec<MatchKey> = jobs
            .iter()
            .enumerate()
            .map(|(i, j)| MatchKey {
                tasks: j.tasks as f64,
                runtime_s: j.runtime_s,
                peak_mb: j.peak_mb(),
                index: i as u32,
            })
            .collect();
        let task_scale = by_tasks.iter().map(|k| k.tasks).fold(1.0, f64::max);
        let runtime_scale = by_tasks.iter().map(|k| k.runtime_s).fold(1.0, f64::max);
        let mem_scale = by_tasks.iter().map(|k| k.peak_mb).fold(1.0, f64::max);
        // Stable: equal task counts stay in pool order.
        by_tasks.sort_by(|a, b| a.tasks.total_cmp(&b.tasks));
        Self {
            jobs,
            by_tasks,
            task_scale,
            runtime_scale,
            mem_scale,
        }
    }

    fn gen_job(id: u32, rng: &mut Rng64) -> GoogleJob {
        let priority = match rng.weighted(&[0.2, 0.4, 0.25, 0.15]) {
            0 => Priority::Free,
            1 => Priority::BestEffortBatch,
            2 => Priority::Mid,
            _ => Priority::Production,
        };
        let scheduling_class = if priority == Priority::Production {
            rng.range_u64(2, 3) as u8
        } else {
            rng.range_u64(0, 2) as u8
        };
        let finished_normally = rng.chance(0.8);
        let tasks = rng.range_u64(1, 128) as u32;
        let runtime_s = rng.lognormal(8.3, 1.5).clamp(600.0, 7.0 * 86_400.0);
        let n_windows = ((runtime_s / 300.0).ceil() as usize).clamp(2, 256);
        // Peak as a fraction of the largest machine: heavy-tailed, small.
        let peak = rng.lognormal(-5.5, 1.4).min(0.011); // ≤ ~135 GB
        let windows = Self::gen_windows(rng, n_windows, peak);
        GoogleJob {
            id,
            tasks,
            runtime_s,
            priority,
            scheduling_class,
            finished_normally,
            windows,
        }
    }

    /// Generate a windowed profile of the given family with `peak` as its
    /// maximum. The families reproduce the paper's observation that the
    /// average usage sits well below the maximum (§3.3.1).
    fn gen_windows(rng: &mut Rng64, n: usize, peak: f64) -> Vec<MemWindow> {
        let family = rng.below(N_FAMILIES);
        let base_frac = rng.range_f64(0.15, 0.55);
        let mut maxes: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 / (n - 1).max(1) as f64;
                let frac: f64 = match family {
                    // Ramp up to the peak near the end.
                    0 => base_frac + (1.0 - base_frac) * t,
                    // Front-loaded: peak early, then decay.
                    1 => 1.0 - (1.0 - base_frac) * t,
                    // Two-phase step.
                    2 => {
                        if t < 0.5 {
                            base_frac
                        } else {
                            1.0
                        }
                    }
                    // Occasional spikes over a low baseline. Real batch
                    // jobs revisit their peak rarely (allocation phases),
                    // not every few windows.
                    3 => {
                        if i % 16 == 8 {
                            0.9
                        } else {
                            base_frac
                        }
                    }
                    // Mid-job bulge.
                    _ => base_frac + (1.0 - base_frac) * (std::f64::consts::PI * t).sin(),
                };
                (frac * peak * rng.range_f64(0.95, 1.0)).max(1e-9)
            })
            .collect();
        // Force the exact peak to appear once.
        let argmax = maxes
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap();
        maxes[argmax] = peak;
        maxes
            .into_iter()
            .map(|mx| MemWindow {
                avg: mx * rng.range_f64(0.55, 0.95),
                max: mx,
            })
            .collect()
    }

    /// All jobs (unfiltered).
    pub fn jobs(&self) -> &[GoogleJob] {
        &self.jobs
    }

    /// Number of jobs in the pool.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// The paper's filter (§3.2.2): keep best-effort batch jobs that are
    /// latency-insensitive (class ≤ 1) and finished normally at least
    /// once.
    pub fn filter_batch(&self) -> GooglePool {
        let jobs: Vec<GoogleJob> = self
            .jobs
            .iter()
            .filter(|j| {
                j.priority == Priority::BestEffortBatch
                    && j.scheduling_class <= 1
                    && j.finished_normally
            })
            .cloned()
            .collect();
        assert!(
            !jobs.is_empty(),
            "batch filter removed every job; enlarge the pool"
        );
        Self::from_jobs(jobs)
    }

    /// Fig. 3 step 6: the job minimising the normalised Euclidean
    /// distance of `(size, runtime, memory demand)`; ties go to the
    /// lowest pool index, and a query no job gets a finite distance to
    /// (a NaN runtime, say) yields the first job.
    ///
    /// An exact pruned search over the cached match keys: it visits
    /// jobs in order of `|tasks - nodes|`, nearest first, and stops once
    /// the task term `dn²` alone exceeds the best distance found. Under
    /// round-to-nearest, adding the non-negative runtime and memory
    /// terms never lowers a sum, so every unvisited job has `d ≥ dn²`
    /// and none can win or tie. Each visited job's `d` is the same
    /// expression as in [`match_job_reference`](Self::match_job_reference),
    /// which debug builds check every call against.
    pub fn match_job(&self, nodes: u32, runtime_s: f64, peak_mb: f64) -> &GoogleJob {
        let keys = &self.by_tasks;
        let n = nodes as f64;
        // keys[..lo] lie at or below `nodes`, keys[hi..] above; both
        // cursors move outward.
        let mut hi = keys.partition_point(|k| k.tasks < n);
        let mut lo = hi;
        let mut best = 0u32;
        let mut best_d = f64::INFINITY;
        loop {
            let below = match (lo.checked_sub(1), keys.get(hi)) {
                (None, None) => break,
                (Some(b), Some(a)) => n - keys[b].tasks <= a.tasks - n,
                (b, _) => b.is_some(),
            };
            let k = if below {
                lo -= 1;
                &keys[lo]
            } else {
                hi += 1;
                &keys[hi - 1]
            };
            let dn = (k.tasks - n) / self.task_scale;
            let dn2 = dn * dn;
            // The nearest job left in task count: no later one can do
            // better.
            if dn2 > best_d {
                break;
            }
            let dr = (k.runtime_s - runtime_s) / self.runtime_scale;
            let dm = (k.peak_mb - peak_mb) / self.mem_scale;
            let d = dn2 + dr * dr + dm * dm;
            // While best_d is infinite nothing ties below index 0, so
            // only a finite distance takes the lead, as in the scan.
            if d < best_d || (d == best_d && k.index < best) {
                best_d = d;
                best = k.index;
            }
        }
        let best = &self.jobs[best as usize];
        debug_assert!(
            std::ptr::eq(best, self.match_job_reference(nodes, runtime_s, peak_mb)),
            "pruned Google match diverged from the linear-scan oracle"
        );
        best
    }

    /// Linear-scan twin of [`match_job`](Self::match_job): every job,
    /// in pool order, with its peak folded from the windows again. The
    /// equivalence oracle for the pruned search.
    pub fn match_job_reference(&self, nodes: u32, runtime_s: f64, peak_mb: f64) -> &GoogleJob {
        let mut best = &self.jobs[0];
        let mut best_d = f64::INFINITY;
        for j in &self.jobs {
            let dn = (j.tasks as f64 - nodes as f64) / self.task_scale;
            let dr = (j.runtime_s - runtime_s) / self.runtime_scale;
            let dm = (j.peak_mb() - peak_mb) / self.mem_scale;
            let d = dn * dn + dr * dr + dm * dm;
            if d < best_d {
                best_d = d;
                best = j;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_is_deterministic() {
        let a = GooglePool::synthetic(100, 3);
        let b = GooglePool::synthetic(100, 3);
        for (x, y) in a.jobs().iter().zip(b.jobs()) {
            assert_eq!(x.tasks, y.tasks);
            assert_eq!(x.runtime_s, y.runtime_s);
            assert_eq!(x.windows.len(), y.windows.len());
        }
    }

    #[test]
    fn windows_cover_runtime_at_5min() {
        let pool = GooglePool::synthetic(200, 5);
        for j in pool.jobs() {
            let expect = ((j.runtime_s / 300.0).ceil() as usize).clamp(2, 256);
            assert_eq!(j.windows.len(), expect);
        }
    }

    #[test]
    fn avg_below_max_everywhere() {
        let pool = GooglePool::synthetic(300, 7);
        for j in pool.jobs() {
            for w in &j.windows {
                assert!(w.avg <= w.max, "avg {} > max {}", w.avg, w.max);
                assert!(w.max > 0.0);
            }
            // The paper's headroom observation: job-level average usage
            // sits below the peak.
            let avg = j.windows.iter().map(|w| w.avg).sum::<f64>() / j.windows.len() as f64;
            assert!(avg < j.peak_norm());
        }
    }

    #[test]
    fn filter_keeps_only_batch() {
        let pool = GooglePool::synthetic(2000, 11).filter_batch();
        assert!(!pool.is_empty());
        for j in pool.jobs() {
            assert_eq!(j.priority, Priority::BestEffortBatch);
            assert!(j.scheduling_class <= 1);
            assert!(j.finished_normally);
        }
        assert!(pool.len() < 2000);
    }

    #[test]
    fn peaks_denormalise_to_plausible_mb() {
        let pool = GooglePool::synthetic(500, 13);
        for j in pool.jobs() {
            let mb = j.peak_mb();
            assert!(mb > 0.0 && mb <= 140.0 * 1024.0, "peak {mb} MB");
        }
    }

    #[test]
    fn shape_is_normalised() {
        let pool = GooglePool::synthetic(100, 17);
        for j in pool.jobs() {
            let s = j.shape();
            assert_eq!(s[0].0, 0.0);
            let top = s.iter().map(|&(_, f)| f).fold(0.0f64, f64::max);
            assert!((top - 1.0).abs() < 1e-12, "shape peak {top}");
            assert!(s.iter().all(|&(p, f)| (0.0..1.0).contains(&p) && f > 0.0));
            assert!(s.windows(2).all(|w| w[1].0 > w[0].0));
        }
    }

    #[test]
    fn matching_prefers_similar_jobs() {
        let pool = GooglePool::synthetic(1000, 19).filter_batch();
        let j = &pool.jobs()[pool.len() / 2];
        let m = pool.match_job(j.tasks, j.runtime_s, j.peak_mb());
        // Must find the job itself (distance 0) or an identical twin.
        assert_eq!(
            (m.tasks, m.runtime_s, m.peak_mb()),
            (j.tasks, j.runtime_s, j.peak_mb())
        );
    }

    /// A pool job with the given match coordinates (`peak` normalised).
    fn job_at(id: u32, tasks: u32, runtime_s: f64, peak: f64) -> GoogleJob {
        GoogleJob {
            id,
            tasks,
            runtime_s,
            priority: Priority::BestEffortBatch,
            scheduling_class: 0,
            finished_normally: true,
            windows: vec![
                MemWindow {
                    avg: peak * 0.4,
                    max: peak * 0.5,
                },
                MemWindow {
                    avg: peak * 0.8,
                    max: peak,
                },
            ],
        }
    }

    #[test]
    fn match_job_matches_linear_scan() {
        let mut rng = Rng64::new(0x0060_061E);
        for case in 0..120u64 {
            let n = 1 + rng.below(60) as usize;
            // Every third pool draws from a handful of values, so task
            // counts, runtimes and peaks repeat and distances tie.
            let ties = case % 3 == 0;
            let jobs: Vec<GoogleJob> = (0..n as u32)
                .map(|id| {
                    if ties {
                        let tasks = 2 * rng.range_u64(1, 3) as u32;
                        let runtime = [600.0, 1800.0][rng.below(2) as usize];
                        let peak = [1e-4, 2e-4][rng.below(2) as usize];
                        job_at(id, tasks, runtime, peak)
                    } else {
                        let tasks = rng.range_u64(1, 128) as u32;
                        let runtime = rng.range_f64(600.0, 86_400.0);
                        job_at(id, tasks, runtime, rng.range_f64(1e-6, 0.011))
                    }
                })
                .collect();
            let pool = GooglePool::from_jobs(jobs.clone());
            let max_tasks = jobs.iter().map(|j| j.tasks).max().unwrap();
            let mut queries: Vec<(u32, f64, f64)> = vec![
                (0, 3600.0, 2048.0),
                (1, 3600.0, 2048.0),
                (max_tasks + 1, 3600.0, 2048.0),
                (u32::MAX, 3600.0, 2048.0),
                (3, 1e9, 2048.0),
                (3, -1e9, -2048.0),
                (3, 600.0, 1e12),
                (5, 0.0, 0.0),
                (5, f64::NAN, 2048.0),
                (5, 3600.0, f64::NAN),
                (5, 3600.0, f64::INFINITY),
                (5, f64::MAX, f64::MAX),
            ];
            // Every job's own coordinates (distance 0, twins tie) and
            // points between neighbouring task counts.
            for j in &jobs {
                queries.push((j.tasks, j.runtime_s, j.peak_mb()));
                queries.push((j.tasks + 1, j.runtime_s * 1.01, j.peak_mb() * 0.99));
            }
            for _ in 0..40 {
                queries.push((
                    rng.below(u64::from(max_tasks) + 3) as u32,
                    rng.range_f64(0.0, 2.0 * 86_400.0),
                    rng.range_f64(0.0, 0.012 * MAX_MACHINE_MB),
                ));
            }
            for &(nodes, runtime_s, peak_mb) in &queries {
                let fast = pool.match_job(nodes, runtime_s, peak_mb);
                let slow = pool.match_job_reference(nodes, runtime_s, peak_mb);
                assert!(
                    std::ptr::eq(fast, slow),
                    "case {case}: query ({nodes}, {runtime_s}, {peak_mb}) matched job {} not {}",
                    fast.id,
                    slow.id
                );
            }
        }
    }

    #[test]
    fn matching_distance_is_normalised() {
        // A small-memory 1-task job must not match a 12 TB monster just
        // because runtimes align.
        let pool = GooglePool::synthetic(2000, 23).filter_batch();
        let m = pool.match_job(1, 3600.0, 2048.0);
        assert!(m.peak_mb() < 0.3 * MAX_MACHINE_MB);
    }
}
