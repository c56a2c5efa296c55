//! The traced pass: every run once more under the phase profiler and a
//! counting trace sink, benchmark-side spans around each call into a
//! layer, and micro-benchmarks of single layers.

use crate::bench::{simulate, Options, Outcomes, Prepared};
use crate::calibrate::Calibrator;
use crate::check::outcome_digest;
use crate::report::{median, Metric, Span};
use crate::workloads::{Kind, Run};
use dmhpc_core::cluster::Cluster;
use dmhpc_core::dynmem::Monitor;
use dmhpc_core::engine::{EventKind, EventQueue, SimTime};
use dmhpc_core::job::JobId;
use dmhpc_core::policy::PlacementScratch;
use dmhpc_core::sim::{SchedPassBench, Workload};
use dmhpc_core::telemetry::{Phase, Profile, TelemetryCollector};
use dmhpc_core::trace::{CountingSink, RunMetrics};
use dmhpc_model::rng::Rng64;
use std::hint::black_box;
use std::time::Instant;

/// What the traced pass produced.
pub struct Traced {
    pub metrics: Vec<Metric>,
    pub spans: Vec<Span>,
    /// Outcome digests in run order, to compare with the untraced pass.
    pub digests: Vec<u64>,
}

/// In-memory span recorder. Spans nest by call structure; ids start at 1
/// in opening order.
struct Spans {
    workload: &'static str,
    base: Instant,
    spans: Vec<Span>,
    open: Vec<u64>,
}

impl Spans {
    fn new(workload: &'static str) -> Self {
        Self {
            workload,
            base: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    fn span<T>(&mut self, name: impl Into<String>, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.len() as u64 + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.into(),
            workload: self.workload.to_string(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize - 1].end_ns = self.now_ns();
        out
    }
}

/// The counters the traced pass sums over runs.
#[derive(Default)]
struct Counts {
    events: u64,
    considered: u64,
    placed: u64,
    decides: u64,
    holds: u64,
    grows: u64,
    shrinks: u64,
    requeues: u64,
    crashes: u64,
    oom_kills: u64,
}

impl Counts {
    fn add(&mut self, m: &RunMetrics, oom_kills: u32) {
        self.events += m.total_events;
        self.considered += m.jobs_considered;
        self.placed += m.jobs_placed;
        self.decides += m.mem_decides;
        self.holds += m.mem_holds;
        self.grows += m.mem_grows;
        self.shrinks += m.mem_shrinks;
        self.requeues += m.job_requeues;
        self.crashes += m.node_crashes;
        self.oom_kills += u64::from(oom_kills);
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Run the traced pass. Its times are calibrated like the end-to-end
/// ones (see `calibrate`); `untraced_wall` is the calibrated median host
/// time of one untraced pass, the base of `telemetry.overhead_frac`.
pub fn traced_pass(kind: Kind, opts: &Options, untraced_wall: f64) -> Traced {
    let mut sp = Spans::new(kind.name());
    let mut cal = Calibrator::new();
    let (metrics, digests) = sp.span("workload", |sp| {
        let inputs = sp.span("build", |_| kind.build_inputs(opts.seed, opts.smoke));
        let p = Prepared::new(kind, opts, inputs);
        let mut profile = Profile::default();
        let mut counts = Counts::default();
        let mut outcomes = Outcomes::default();
        let mut digests = Vec::with_capacity(p.runs_per_pass());
        let mut wall = 0.0;
        for (k, (input, runs)) in p.inputs.iter().zip(&p.runs).enumerate() {
            for run in runs {
                let collector = TelemetryCollector::default();
                let sink = CountingSink::new(3600.0);
                let start = Instant::now();
                let out = sp.span(format!("run {} trace {k}", run.label), |_| {
                    simulate(run, input, |b| {
                        b.telemetry(collector.clone())
                            .trace_sink(Box::new(sink.clone()))
                    })
                });
                wall += start.elapsed().as_secs_f64();
                profile.merge(&collector.snapshot().profile);
                counts.add(&sink.metrics(), out.stats.oom_kills);
                digests.push(outcome_digest(&out));
                outcomes.add(&out);
            }
            cal.chunk();
        }
        black_box(sp.span("aggregate", |_| {
            (
                outcomes.throughput_jps(),
                outcomes.completed(),
                outcomes.median_response_s(),
            )
        }));

        let focus = &p.runs[0][kind.focus_run()];
        let first = &p.inputs[0];
        let push_pop = sp.span("micro engine.push_pop", |_| engine_push_pop_ns(opts.seed));
        let pass = sp.span("micro sched.pass", |_| {
            sched_pass_us(focus.system.nodes, opts.seed)
        });
        let place = sp.span("micro policy.place", |_| policy_place_us(focus, first));
        let sample = sp.span("micro dynmem.sample", |_| dynmem_sample_ns(focus, first));

        let factor = cal.factor_since(0);
        let wall = wall * factor;
        let secs = |ph: Phase| factor * profile.phase_ns(ph) as f64 / 1e9;
        let calls = |ph: Phase| profile.phase_calls(ph) as f64;
        let attributed = [
            Phase::Schedule,
            Phase::DynLoop,
            Phase::Recovery,
            Phase::Finalize,
        ]
        .into_iter()
        .map(secs)
        .sum::<f64>();
        let c = &counts;
        let values = [
            ("sim.schedule.s", secs(Phase::Schedule)),
            ("sim.schedule.calls", calls(Phase::Schedule)),
            (
                "sim.schedule.us_per_call",
                1e6 * ratio(secs(Phase::Schedule), calls(Phase::Schedule)),
            ),
            ("sched.considered", c.considered as f64),
            ("sched.placed", c.placed as f64),
            (
                "sched.place_hit_ratio",
                ratio(c.placed as f64, c.considered as f64),
            ),
            ("sim.dynloop.s", secs(Phase::DynLoop)),
            ("sim.dynloop.calls", calls(Phase::DynLoop)),
            (
                "sim.dynloop.us_per_call",
                1e6 * ratio(secs(Phase::DynLoop), calls(Phase::DynLoop)),
            ),
            ("dynmem.decides", c.decides as f64),
            ("dynmem.hold_ratio", ratio(c.holds as f64, c.decides as f64)),
            ("dynmem.grows", c.grows as f64),
            ("dynmem.shrinks", c.shrinks as f64),
            ("sim.oom.s", secs(Phase::Oom)),
            ("sim.oom.calls", calls(Phase::Oom)),
            (
                "sim.oom.ms_per_call",
                1e3 * ratio(secs(Phase::Oom), calls(Phase::Oom)),
            ),
            ("oom.kills", c.oom_kills as f64),
            ("job.requeues", c.requeues as f64),
            ("sim.recovery.s", secs(Phase::Recovery)),
            ("sim.recovery.calls", calls(Phase::Recovery)),
            ("faults.node_crashes", c.crashes as f64),
            // OOM is left out: it nests inside dynloop and recovery.
            ("sim.unattributed.s", wall - attributed),
            ("trace.events", c.events as f64),
            ("engine.push_pop_ns", factor * push_pop),
            ("sched.pass_us", factor * pass),
            ("policy.place_us", factor * place),
            ("dynmem.sample_ns", factor * sample),
            (
                "traces.jobs",
                p.inputs.iter().map(|w| w.len()).sum::<usize>() as f64,
            ),
            (
                "traces.usage_points",
                p.inputs
                    .iter()
                    .flat_map(|w| &w.jobs)
                    .map(|j| j.usage.len())
                    .sum::<usize>() as f64,
            ),
            ("telemetry.overhead_frac", ratio(wall, untraced_wall) - 1.0),
        ];
        let metrics = values
            .into_iter()
            .map(|(name, v)| Metric::new(name, vec![v]))
            .collect();
        (metrics, digests)
    });
    Traced {
        metrics,
        spans: sp.spans,
        digests,
    }
}

/// Median ns of one `EventQueue` push plus pop with 10⁴ live events:
/// each step pops the earliest event and schedules a replacement a
/// random interval later, so the heap stays at its working size.
fn engine_push_pop_ns(seed: u64) -> f64 {
    const LIVE: usize = 10_000;
    const STEPS: usize = 200_000;
    let mut rng = Rng64::stream(seed, 0xE7E7);
    let mut q = EventQueue::new();
    for i in 0..LIVE {
        q.push(
            SimTime(rng.range_u64(0, 1 << 32)),
            EventKind::Submit(JobId(i as u32)),
        );
    }
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..STEPS {
                let e = q.pop().expect("the queue never drains");
                q.push(
                    SimTime(e.time.0 + rng.range_u64(1, 1 << 24)),
                    black_box(e.kind),
                );
            }
            start.elapsed().as_nanos() as f64 / STEPS as f64
        })
        .collect();
    median(&samples)
}

/// Median µs of one `schedule_pass` at `nodes` nodes with 256 queued
/// jobs, on a fresh clone of the frozen fixture per sample.
fn sched_pass_us(nodes: u32, seed: u64) -> f64 {
    let fixture = SchedPassBench::new(nodes, 256, seed, false);
    let samples: Vec<f64> = (0..64)
        .map(|_| {
            let mut f = fixture.clone();
            let start = Instant::now();
            black_box(f.run_pass());
            start.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    median(&samples)
}

/// Median µs of one `MemoryPolicy::place` call on an empty cluster of
/// the run's system, over every job of `input`.
fn policy_place_us(run: &Run, input: &Workload) -> f64 {
    let policy = run.policy.build();
    let cluster = Cluster::from_config(&run.system);
    let mut scratch = PlacementScratch::new();
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            for job in &input.jobs {
                black_box(policy.place(&cluster, job.nodes, job.mem_request_mb, &mut scratch));
            }
            start.elapsed().as_nanos() as f64 / 1e3 / input.len().max(1) as f64
        })
        .collect();
    median(&samples)
}

/// Median ns of one `Monitor::sample_demand_at`, walking every job's
/// usage trace from start to end at full speed with a resumed cursor.
fn dynmem_sample_ns(run: &Run, input: &Workload) -> f64 {
    let monitor = Monitor::new(run.system.mem_update_interval_s)
        .expect("the system's update interval is valid");
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let mut calls = 0u64;
            let start = Instant::now();
            for job in &input.jobs {
                let (mut progress, mut cursor) = (0.0, 0usize);
                while progress < 1.0 {
                    black_box(monitor.sample_demand_at(
                        &job.usage,
                        progress,
                        1.0,
                        job.base_runtime_s,
                        &mut cursor,
                    ));
                    progress = monitor.horizon(progress, 1.0, job.base_runtime_s);
                    calls += 1;
                }
            }
            start.elapsed().as_nanos() as f64 / calls.max(1) as f64
        })
        .collect();
    median(&samples)
}
