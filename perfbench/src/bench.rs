//! Running one workload: set-up, timed passes with tracing off, the
//! correctness checks, and the end-to-end metrics.

use crate::calibrate::Calibrator;
use crate::check::{check_outcome, combine, input_digest, outcome_digest, reference_digest};
use crate::layers;
use crate::report::{median, Metric, Report};
use crate::workloads::{Kind, Run};
use dmhpc_core::sim::{SimBuilder, SimulationOutcome, Workload};
use std::sync::Arc;
use std::time::Instant;

/// How many times set-up runs; `setup_s` is the median.
const SETUP_BUILDS: usize = 3;

/// How long the timed part of a run lasts.
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    /// Exactly this many passes.
    Reps(usize),
    /// Passes until another would overrun this many seconds, at least
    /// two, so every run repeats its first pass once.
    Seconds(f64),
}

/// Settings of one workload run.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    pub seed: u64,
    pub smoke: bool,
    pub budget: Budget,
    /// Run the traced pass and report the per-layer metrics.
    pub traced: bool,
}

/// A workload's inputs and run lists, ready to simulate.
pub struct Prepared {
    pub inputs: Vec<Arc<Workload>>,
    /// `runs[k]` is the run list of trace `k`.
    pub runs: Vec<Vec<Run>>,
}

impl Prepared {
    pub fn new(kind: Kind, opts: &Options, inputs: Vec<Arc<Workload>>) -> Self {
        let runs = (0..inputs.len())
            .map(|k| kind.runs(opts.seed, k, opts.smoke))
            .collect();
        Self { inputs, runs }
    }

    pub fn runs_per_pass(&self) -> usize {
        self.runs.iter().map(Vec::len).sum()
    }
}

/// Run one simulation through the public builder; `extra` adds
/// observers.
pub fn simulate(
    run: &Run,
    input: &Arc<Workload>,
    extra: impl FnOnce(SimBuilder) -> SimBuilder,
) -> SimulationOutcome {
    extra(
        SimBuilder::new(run.system.clone(), Arc::clone(input))
            .policy(run.policy)
            .seed(run.sim_seed),
    )
    .run()
}

/// The simulated results a workload reports, folded run by run.
#[derive(Default)]
pub struct Outcomes {
    throughput_sum: f64,
    feasible_runs: u32,
    completed: u64,
    responses: Vec<f64>,
}

impl Outcomes {
    pub fn add(&mut self, out: &SimulationOutcome) {
        if out.feasible {
            self.throughput_sum += out.stats.throughput_jps;
            self.feasible_runs += 1;
        }
        self.completed += u64::from(out.stats.completed);
        self.responses.extend_from_slice(&out.response_times_s);
    }

    /// Mean simulated throughput over the feasible runs, jobs/s.
    pub fn throughput_jps(&self) -> f64 {
        self.throughput_sum / f64::from(self.feasible_runs.max(1))
    }

    /// Completed jobs summed over every run.
    pub fn completed(&self) -> f64 {
        self.completed as f64
    }

    /// Median response time pooled over every run, seconds.
    pub fn median_response_s(&self) -> f64 {
        median(&self.responses)
    }
}

/// Failed checks, counted in runs.
#[derive(Default)]
struct Failures {
    failed: u64,
    problems: Vec<String>,
}

impl Failures {
    fn add(&mut self, runs: u64, problem: String) {
        self.failed += runs.max(1);
        self.problems.push(problem);
    }

    /// Count every run whose digest differs from the first pass's.
    fn compare(&mut self, what: &str, expected: &[u64], got: &[u64], labels: &[String]) {
        let diverged: Vec<&String> = expected
            .iter()
            .zip(got)
            .zip(labels)
            .filter(|((e, g), _)| e != g)
            .map(|(_, l)| l)
            .collect();
        if let Some(first) = diverged.first() {
            self.failed += diverged.len() as u64;
            self.problems.push(format!(
                "{what}: {} runs differ from the first pass, first {first}",
                diverged.len()
            ));
        }
    }
}

/// One pass over every run of every trace, with a calibration chunk
/// after each trace.
struct Pass {
    /// Calibrated seconds inside the runs.
    wall: f64,
    /// Host seconds inside the runs, as measured.
    raw: f64,
    /// The slowest run position (sweep point), as its mean calibrated
    /// seconds over the traces.
    critical: f64,
    digests: Vec<u64>,
}

fn timed_pass(
    p: &Prepared,
    cal: &mut Calibrator,
    mut inspect: impl FnMut(&str, &SimulationOutcome),
) -> Pass {
    let mut raw = 0.0;
    // Every trace has the same run list, so position `i` is one sweep
    // point throughout.
    let mut point_secs = vec![0.0; p.runs[0].len()];
    let mut digests = Vec::with_capacity(p.runs_per_pass());
    let mark = cal.mark();
    for (input, runs) in p.inputs.iter().zip(&p.runs) {
        for (run, total) in runs.iter().zip(&mut point_secs) {
            let start = Instant::now();
            let out = simulate(run, input, |b| b);
            let secs = start.elapsed().as_secs_f64();
            raw += secs;
            *total += secs;
            digests.push(outcome_digest(&out));
            inspect(&run.label, &out);
        }
        cal.chunk();
    }
    let factor = cal.factor_since(mark);
    let slowest = point_secs.into_iter().fold(0.0, f64::max);
    Pass {
        wall: raw * factor,
        raw,
        critical: slowest * factor / p.inputs.len() as f64,
        digests,
    }
}

/// Peak resident set size of this process so far, MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Run one workload: set-up, timed passes, checks, and, when asked, the
/// traced pass.
pub fn run(kind: Kind, opts: &Options) -> Report {
    let name = kind.name();
    let mut fails = Failures::default();
    let mut cal = Calibrator::new();

    // Set-up, repeated: the median time is reported and every build
    // must generate the same inputs.
    let mut setup = Vec::with_capacity(SETUP_BUILDS);
    let mut kept: Option<(u64, Vec<Arc<Workload>>)> = None;
    cal.chunk();
    for _ in 0..SETUP_BUILDS {
        let start = Instant::now();
        let inputs = kind.build_inputs(opts.seed, opts.smoke);
        setup.push(start.elapsed().as_secs_f64());
        cal.chunk();
        let digest = input_digest(&inputs);
        match &kept {
            None => kept = Some((digest, inputs)),
            Some((first, _)) if *first != digest => fails.add(
                1,
                "set-up generated different inputs from the same seed".to_string(),
            ),
            Some(_) => {}
        }
    }
    let factor = cal.factor_since(0);
    setup.iter_mut().for_each(|s| *s *= factor);
    let (_, inputs) = kept.expect("at least one set-up build");
    let prepared = Prepared::new(kind, opts, inputs);
    let per_pass = prepared.runs_per_pass();
    let labels: Vec<String> = prepared
        .runs
        .iter()
        .enumerate()
        .flat_map(|(k, runs)| {
            runs.iter()
                .map(move |r| format!("{} on trace {k}", r.label))
        })
        .collect();
    eprintln!(
        "{name}: {} traces, {per_pass} runs per pass, set-up {:.3} s",
        prepared.inputs.len(),
        median(&setup)
    );

    // Timed passes, tracing off. The first pass's outcomes are checked
    // and folded into the simulated metrics; later passes must repeat
    // them bit for bit.
    let mut outcomes = Outcomes::default();
    let mut run_no = 0usize;
    let start = Instant::now();
    let first = timed_pass(&prepared, &mut cal, |label, out| {
        if let Err(e) = check_outcome(out) {
            fails.add(1, format!("{label} (run {run_no}): {e}"));
        }
        outcomes.add(out);
        run_no += 1;
    });
    eprintln!(
        "{name}: pass 1 {:.3} s, {:.3} s calibrated",
        first.raw, first.wall
    );
    let mut walls = vec![first.wall];
    let mut raws = vec![first.raw];
    let mut criticals = vec![first.critical];
    loop {
        let passes = walls.len();
        let more = match opts.budget {
            Budget::Reps(n) => passes < n,
            Budget::Seconds(s) => {
                let spent = start.elapsed().as_secs_f64();
                passes < 2 || spent + spent / passes as f64 <= s
            }
        };
        if !more {
            break;
        }
        let pass = timed_pass(&prepared, &mut cal, |_, _| {});
        eprintln!(
            "{name}: pass {} {:.3} s, {:.3} s calibrated",
            passes + 1,
            pass.raw,
            pass.wall
        );
        fails.compare("repeated pass", &first.digests, &pass.digests, &labels);
        walls.push(pass.wall);
        raws.push(pass.raw);
        criticals.push(pass.critical);
    }
    let mut attempted = (walls.len() * per_pass) as u64;
    let rss = peak_rss_mb().unwrap_or_else(|e| {
        fails.add(0, e);
        0.0
    });

    let digest = format!("{:016x}", combine(&first.digests));
    if let Some(expected) = reference_digest(name, opts.smoke, opts.seed) {
        if expected != digest {
            fails.add(
                per_pass as u64,
                format!(
                    "outcome digest {digest} differs from the reference {expected} for seed {}",
                    opts.seed
                ),
            );
        }
    }

    let end_to_end = vec![
        Metric::new("wall_s", walls.clone()),
        Metric::new("critical_point_s", criticals),
        Metric::new("setup_s", setup),
        Metric::new("peak_rss_mb", vec![rss]),
        Metric::new("sim_throughput_jps", vec![outcomes.throughput_jps()]),
        Metric::new("sim_completed", vec![outcomes.completed()]),
    ];

    let (per_layer, spans) = if opts.traced {
        let traced = layers::traced_pass(kind, opts, median(&walls));
        attempted += per_pass as u64;
        fails.compare("traced pass", &first.digests, &traced.digests, &labels);
        let mut per_layer = traced.metrics;
        per_layer.extend([
            Metric::new("sim_median_response_s", vec![outcomes.median_response_s()]),
            Metric::new("host.raw_wall_s", raws),
            Metric::new("host.calibration_ms", vec![cal.median_chunk_s() * 1e3]),
        ]);
        (per_layer, traced.spans)
    } else {
        (Vec::new(), Vec::new())
    };

    Report {
        workload: name.to_string(),
        attempted,
        failed: fails.failed,
        problems: fails.problems,
        digest,
        end_to_end,
        per_layer,
        spans,
    }
}
