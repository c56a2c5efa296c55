//! Benchmark fixture for the scheduling pass.

use crate::cluster::{Cluster, JobAlloc};
use crate::config::SystemConfig;
use crate::job::{Job, JobId};
use crate::oracle;
use crate::policy::PlacementScratch;
use dmhpc_model::rng::Rng64;
use dmhpc_model::ProfilePool;

use super::builder::SimBuilder;
use super::hooks::{MemManagement, MemoryPolicy, StaticAlloc};
use super::runner::Runner;
use super::state::{Status, Workload};

/// Benchmark fixture for the scheduling pass, used by the criterion
/// `sched_pass` group in `engine_micro` (indexed vs full-scan) and the
/// repository benchmark's `sched.pass_us` layer number.
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
    /// `reference` places through the full-scan
    /// [`oracle::place_spread_reference`] instead of the cluster
    /// indexes.
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
        let policy: Box<dyn MemoryPolicy> = if reference {
            Box::new(ScanSpread)
        } else {
            Box::new(StaticAlloc)
        };
        let sim = SimBuilder::new(cfg, workload)
            .policy_impl(policy)
            .seed(seed)
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

    /// Run one `schedule_pass` on this (mutable) state; returns how many
    /// jobs started. Call on a fresh clone per iteration.
    pub fn run_pass(&mut self) -> usize {
        let before = self.runner.running.len();
        self.runner.schedule_pass();
        self.runner.running.len() - before
    }
}

/// The static policy with its placement taken straight from the
/// full-scan oracle: the reference side of [`SchedPassBench`].
#[derive(Clone, Copy, Debug)]
struct ScanSpread;

impl MemoryPolicy for ScanSpread {
    fn name(&self) -> &'static str {
        "static"
    }

    fn place(
        &self,
        cluster: &Cluster,
        nodes: u32,
        request_mb: u64,
        _scratch: &mut PlacementScratch,
    ) -> Option<JobAlloc> {
        oracle::place_spread_reference(cluster, nodes, request_mb)
    }

    fn management(&self, _static_mode: bool, _undersized: bool) -> MemManagement {
        MemManagement::Pinned
    }

    fn clone_box(&self) -> Box<dyn MemoryPolicy> {
        Box::new(*self)
    }
}
