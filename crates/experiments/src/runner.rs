//! Parallel scenario sweep driver.
//!
//! Each experiment expands into dozens-to-hundreds of independent
//! simulation points (configuration × workload × policy). Points are
//! deterministic and single-threaded internally, so the sweep
//! parallelises across OS threads with a shared atomic work index —
//! results land in their input order regardless of completion order, so
//! output is reproducible.
//!
//! There is exactly one thread-scatter implementation,
//! [`run_parallel_observed`]; [`run_parallel`] is it with no observer,
//! and the durable layer ([`crate::durable`]) wraps the same code path
//! with an observer that journals each point and ticks a [`Progress`]
//! line.

use std::io::IsTerminal;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::time::Instant;

/// How the stderr [`Progress`] line decides whether to draw.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProgressMode {
    /// Draw only when stderr is a terminal (the default heuristic).
    Auto,
    /// Never draw, even on a terminal — the CLI's `--quiet`.
    Off,
    /// Always draw, even when stderr is piped — the CLI's `--progress`
    /// (useful under `tee` or CI logs that want the ticks).
    On,
}

/// Process-global progress mode, set once by the CLI before any sweep
/// starts. 0 = Auto, 1 = Off, 2 = On.
static PROGRESS_MODE: AtomicU8 = AtomicU8::new(0);

/// Override the TTY heuristic for every [`Progress`] built after this
/// call (`--quiet` forces Off, `--progress` forces On).
pub fn set_progress_mode(mode: ProgressMode) {
    let v = match mode {
        ProgressMode::Auto => 0,
        ProgressMode::Off => 1,
        ProgressMode::On => 2,
    };
    PROGRESS_MODE.store(v, Ordering::Relaxed);
}

/// The currently configured [`ProgressMode`].
pub fn progress_mode() -> ProgressMode {
    match PROGRESS_MODE.load(Ordering::Relaxed) {
        1 => ProgressMode::Off,
        2 => ProgressMode::On,
        _ => ProgressMode::Auto,
    }
}

/// Run `f` over all `inputs` on up to `threads` worker threads (0 =
/// hardware parallelism), returning outputs in input order. `observe`
/// is called once per completed input, on the worker thread that ran
/// it, with the input index and a reference to the fresh output —
/// progress ticks and durable journaling hang off this hook so every
/// caller shares one scatter implementation.
pub fn run_parallel_observed<I, O, F, Obs>(
    inputs: Vec<I>,
    threads: usize,
    f: F,
    observe: Obs,
) -> Vec<O>
where
    I: Send + Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
    Obs: Fn(usize, &O) + Sync,
{
    let n = inputs.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = if threads == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(4)
    } else {
        threads
    }
    .min(n);
    if threads == 1 {
        return inputs
            .iter()
            .enumerate()
            .map(|(i, input)| {
                let out = f(input);
                observe(i, &out);
                out
            })
            .collect();
    }
    // Workers claim items off a shared atomic index and buffer
    // `(index, output)` pairs privately; the main thread scatters them
    // into place after joining. No per-item allocation or lock — the
    // only shared write is the work counter.
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<O>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut local: Vec<(usize, O)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let out = f(&inputs[i]);
                        observe(i, &out);
                        local.push((i, out));
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            for (i, out) in h.join().expect("sweep worker panicked") {
                slots[i] = Some(out);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("worker must fill its slot"))
        .collect()
}

/// Run `f` over all `inputs` on up to `threads` worker threads (0 =
/// hardware parallelism), returning outputs in input order.
pub fn run_parallel<I, O, F>(inputs: Vec<I>, threads: usize, f: F) -> Vec<O>
where
    I: Send + Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    run_parallel_observed(inputs, threads, f, |_, _| {})
}

/// Live progress for a sweep: `label: done/total (pct, ETA)` redrawn on
/// stderr. The ETA comes from a monotonic [`Instant`] held entirely
/// outside simulation state, so reporting can never perturb a run's
/// determinism; output goes to stderr (stdout stays machine-readable)
/// and only when stderr is a terminal, so piped and CI runs stay quiet.
///
/// The estimate extrapolates from the points finished *this run*:
/// points completed in a previous run (resume) are excluded from the
/// rate, so a sweep that restarts 90% done does not report an ETA
/// near zero — see [`eta_seconds`].
pub struct Progress {
    label: String,
    total: usize,
    pre_done: usize,
    done: AtomicUsize,
    start: Instant,
    active: bool,
}

impl Progress {
    /// Start reporting a sweep of `total` points under `label`, of which
    /// `pre_done` are already complete from a previous run. Those count
    /// toward the displayed `done/total` but contribute neither elapsed
    /// time nor remaining points to the ETA.
    pub fn new(label: &str, total: usize, pre_done: usize) -> Self {
        let left = total.saturating_sub(pre_done);
        Self {
            label: label.to_string(),
            total,
            pre_done,
            done: AtomicUsize::new(0),
            start: Instant::now(),
            active: match progress_mode() {
                ProgressMode::Off => false,
                ProgressMode::On => left > 0,
                ProgressMode::Auto => std::io::stderr().is_terminal() && left > 1,
            },
        }
    }

    /// Record the completion of one point and redraw the status line.
    pub fn tick(&self) {
        let finished = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        if !self.active {
            return;
        }
        let done = self.pre_done + finished;
        let eta = eta_seconds(
            self.start.elapsed().as_secs_f64(),
            finished,
            self.total.saturating_sub(done),
        );
        let line = format_progress(&self.label, done, self.total, eta);
        if done >= self.total {
            eprintln!("\r{line}");
        } else {
            eprint!("\r{line}");
        }
    }
}

/// Extrapolated seconds remaining after `elapsed_s` seconds spent
/// finishing `done` points *this run*, with `remaining` still to run:
/// `elapsed × remaining ÷ done`. Returns `None` until some point has
/// finished (no rate to extrapolate) and once nothing remains. Callers
/// must not count pre-completed (resumed) points in `done` — they took
/// none of `elapsed_s`, so counting them would deflate the estimate.
pub fn eta_seconds(elapsed_s: f64, done: usize, remaining: usize) -> Option<f64> {
    if done == 0 || remaining == 0 {
        return None;
    }
    Some(elapsed_s * remaining as f64 / done as f64)
}

/// Render one progress line: `label: done/total (pct%, ETA Ns)`. The
/// ETA is omitted when `None` (nothing finished yet, or nothing left).
pub fn format_progress(label: &str, done: usize, total: usize, eta: Option<f64>) -> String {
    let pct = (done * 100).checked_div(total).unwrap_or(100);
    let eta = match eta {
        Some(s) => format!(", ETA {s:.0}s"),
        None => String::new(),
    };
    format!("{label}: {done}/{total} ({pct}%{eta})")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn preserves_input_order() {
        let inputs: Vec<u64> = (0..200).collect();
        let out = run_parallel(inputs.clone(), 8, |&x| x * 2);
        assert_eq!(out, inputs.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input() {
        let out: Vec<u32> = run_parallel(Vec::<u32>::new(), 4, |_| 1);
        assert!(out.is_empty());
    }

    #[test]
    fn single_thread_path() {
        let out = run_parallel(vec![1, 2, 3], 1, |&x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn auto_thread_count() {
        let out = run_parallel((0..50).collect::<Vec<u32>>(), 0, |&x| x);
        assert_eq!(out.len(), 50);
    }

    #[test]
    fn observer_sees_every_completion_once() {
        for threads in [1, 4] {
            let seen = Mutex::new(vec![0u32; 64]);
            let out = run_parallel_observed(
                (0..64u64).collect::<Vec<_>>(),
                threads,
                |&x| x * 10,
                |i, &o| {
                    assert_eq!(o, i as u64 * 10, "observer gets the point's own output");
                    seen.lock().unwrap()[i] += 1;
                },
            );
            assert_eq!(out.len(), 64);
            assert!(seen.lock().unwrap().iter().all(|&c| c == 1));
        }
    }

    #[test]
    fn progress_formatting() {
        // No ETA before the first completion…
        assert_eq!(format_progress("sweep", 0, 8, None), "sweep: 0/8 (0%)");
        // …rate extrapolation in the middle…
        assert_eq!(
            format_progress("sweep", 2, 8, eta_seconds(10.0, 2, 6)),
            "sweep: 2/8 (25%, ETA 30s)"
        );
        // …and none once everything finished.
        assert_eq!(format_progress("sweep", 8, 8, None), "sweep: 8/8 (100%)");
        assert_eq!(format_progress("x", 0, 0, None), "x: 0/0 (100%)");
    }

    #[test]
    fn eta_excludes_resumed_points_from_rate() {
        // 10-point plan, 8 pre-completed on a previous run. The rate
        // must come only from this run's 2 points: after 1 of them
        // (30 s), ETA is 30 s — not 30/9ths of a second, which is what
        // feeding all 9 "done" points into the rate would produce.
        let eta = eta_seconds(30.0, 1, 1).unwrap();
        assert!((eta - 30.0).abs() < 1e-9);
        // Nothing-left and nothing-done edges.
        assert_eq!(eta_seconds(30.0, 2, 0), None);
        assert_eq!(eta_seconds(0.0, 0, 5), None);
    }

    #[test]
    fn new_counts_pre_done() {
        let p = Progress::new("resume", 4, 2);
        assert_eq!(p.pre_done, 2);
        assert_eq!(p.total, 4);
        // Ticking the remaining points counts only this run's.
        p.tick();
        p.tick();
        assert_eq!(p.done.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn progress_mode_overrides_the_tty_heuristic() {
        // Tests run without a stderr TTY, so Auto must be inactive and
        // On must force activity anyway (the CLI's --progress); Off
        // stays quiet regardless.
        assert_eq!(progress_mode(), ProgressMode::Auto);
        assert!(!Progress::new("auto", 8, 0).active);
        set_progress_mode(ProgressMode::On);
        assert_eq!(progress_mode(), ProgressMode::On);
        assert!(Progress::new("forced", 8, 0).active);
        // On still skips fully pre-completed plans: nothing will tick.
        assert!(!Progress::new("done", 2, 2).active);
        set_progress_mode(ProgressMode::Off);
        assert!(!Progress::new("quiet", 8, 0).active);
        set_progress_mode(ProgressMode::Auto);
    }

    #[test]
    fn uneven_work_is_balanced() {
        // Heavier items early; order must still hold.
        let inputs: Vec<u64> = (0..64).rev().collect();
        let out = run_parallel(inputs.clone(), 8, |&x| {
            let mut acc = 0u64;
            for i in 0..(x * 1000) {
                acc = acc.wrapping_add(i);
            }
            (x, acc).0
        });
        assert_eq!(out, inputs);
    }
}
