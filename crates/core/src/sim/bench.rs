//! Benchmark fixture for the scheduling pass.

use crate::config::SystemConfig;
use crate::job::{Job, JobId};
use dmhpc_model::rng::Rng64;
use dmhpc_model::ProfilePool;

use super::builder::SimBuilder;
use super::hooks::StaticAlloc;
use super::runner::Runner;
use super::state::{Status, Workload};

/// Benchmark fixture for the scheduling pass, used by the
/// `engine_micro` benches and the `dmhpc bench-sched` subcommand.
///
/// Freezes a runner at steady-state queue pressure: ~70% of nodes busy
/// with long-running jobs and a deep pending queue whose requests mix
/// placeable and blocked shapes, so one pass exercises placement hits
/// and misses, the EASY reservation, backfill, and dominance pruning.
/// `schedule_pass` mutates scheduler state (jobs start), so callers
/// clone the fixture per measured iteration: the clone replays the
/// identical pass every time.
#[derive(Clone)]
pub struct SchedPassBench {
    runner: Runner,
}

impl SchedPassBench {
    /// Build the frozen state: `nodes` nodes (half 32 GB / half 128 GB),
    /// ~70% started with long 48 GB jobs, and `queued` pending jobs with
    /// seeded pseudo-random shapes (1–8 nodes, 4–96 GB, varied limits).
    /// `reference` routes placement through the retained full-scan
    /// implementation instead of the cluster indexes.
    pub fn new(nodes: u32, queued: usize, seed: u64, reference: bool) -> Self {
        use crate::cluster::MemoryMix;
        use crate::job::MemoryUsageTrace;

        let cfg = SystemConfig::with_nodes(nodes).with_memory_mix(MemoryMix::half_large());
        let busy = (nodes as usize) * 7 / 10;
        let mut rng = Rng64::stream(seed, 0xBE7C);
        let mut jobs = Vec::with_capacity(busy + queued);
        for i in 0..busy + queued {
            let (n, req, limit) = if i < busy {
                (1, 48 * 1024, 100_000.0)
            } else {
                (
                    rng.range_u64(1, 9) as u32,
                    rng.range_u64(4, 97) * 1024,
                    rng.range_f64(600.0, 50_000.0),
                )
            };
            jobs.push(Job {
                id: JobId(i as u32),
                submit_s: 0.0,
                nodes: n,
                base_runtime_s: limit * 0.9,
                time_limit_s: limit,
                mem_request_mb: req,
                usage: MemoryUsageTrace::flat(req),
                profile: dmhpc_model::ProfileId(0),
            });
        }
        let workload =
            Workload::try_new(jobs, ProfilePool::synthetic(4, 1)).expect("fixture ids are dense");
        let sim = SimBuilder::new(cfg, workload)
            .policy_impl(Box::new(StaticAlloc))
            .seed(seed)
            .reference_scheduler(reference)
            .build();
        let mut runner = Runner::new(sim);
        for i in 0..busy {
            let jid = JobId(i as u32);
            let alloc = runner.place(1, 48 * 1024).expect("busy job fits");
            runner.start_job(jid, alloc, 48 * 1024);
        }
        for i in busy..busy + queued {
            let jid = JobId(i as u32);
            runner.st[i].status = Status::Pending;
            runner.pending.push(jid);
        }
        debug_assert_eq!(runner.cluster.check_invariants(), Ok(()));
        Self { runner }
    }

    /// Attach a trace sink to the frozen runner, so the bench can
    /// measure the cost of tracing a pass relative to the `NullSink`
    /// default.
    pub fn with_sink(mut self, sink: Box<dyn crate::trace::TraceSink>) -> Self {
        self.runner.trace_on = sink.enabled();
        self.runner.sink = sink;
        self
    }

    /// Run one `schedule_pass` on this (mutable) state; returns how many
    /// jobs started. Call on a fresh clone per iteration.
    pub fn run_pass(&mut self) -> usize {
        let before = self.runner.running.len();
        self.runner.schedule_pass();
        self.runner.running.len() - before
    }
}
