//! The benchmark's named workloads.
//!
//! A workload is an ensemble of independent synthetic input traces, all
//! derived from the benchmark seed, and a fixed list of simulation runs
//! executed over every trace. The ensemble exists because host time per
//! trace varies between seeds by 10–20% at 256 nodes, and by a factor
//! of two at 1024 nodes (usage shapes and queue backlogs differ), while
//! the sum over a few dozen traces varies by 2–3%: one big trace would
//! make every host-time metric depend more on the seed than on the code.
//! Every trace is a 256-node system, the repository's medium scale.

use dmhpc_core::cluster::{MemoryMix, TopologySpec};
use dmhpc_core::config::{RestartStrategy, SystemConfig};
use dmhpc_core::faults::FaultConfig;
use dmhpc_core::policy::PolicySpec;
use dmhpc_core::sim::Workload;
use dmhpc_traces::{CirneModel, WorkloadBuilder};
use std::sync::Arc;

/// A named workload of the benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// The fig5 sweep leg: every memory-axis point under baseline,
    /// static and dynamic.
    PaperLeg,
    /// The static policy at 37% memory: scheduling and placement under
    /// a deep backlog, no dynamic-memory loop at all.
    TightStatic,
    /// Long-running jobs under the dynamic policy: the dynloop hold
    /// fast path.
    DynloopSteady,
    /// Heavy faults on a racked fabric: requeue churn, boosted queue
    /// heads, rack-local lenders, recovery.
    FaultsRacked,
}

impl Kind {
    /// Every workload, in reporting order.
    pub const ALL: [Kind; 4] = [
        Kind::PaperLeg,
        Kind::TightStatic,
        Kind::DynloopSteady,
        Kind::FaultsRacked,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperLeg => "paper-leg",
            Kind::TightStatic => "tight-static",
            Kind::DynloopSteady => "dynloop-steady",
            Kind::FaultsRacked => "faults-racked",
        }
    }

    /// Look a workload up by its command-line name.
    pub fn parse(name: &str) -> Result<Kind, String> {
        Kind::ALL
            .into_iter()
            .find(|k| k.name() == name)
            .ok_or_else(|| {
                let known: Vec<_> = Kind::ALL.iter().map(|k| k.name()).collect();
                format!("unknown workload '{name}' (known: {})", known.join(", "))
            })
    }

    /// The shape of the workload's traces. The trace counts keep one
    /// pass over the ensemble at roughly 3–10 s of host time on a 2-vCPU
    /// x86-64 VM, so a 15 s measurement holds two or three passes.
    fn shape(self, smoke: bool) -> Shape {
        let (traces, nodes, jobs, google_pool) = match self {
            _ if smoke => (2, 96, 320, 600),
            Kind::PaperLeg => (16, 256, 1200, 1500),
            Kind::TightStatic => (64, 256, 1200, 1500),
            Kind::DynloopSteady => (64, 256, 1200, 1500),
            Kind::FaultsRacked => (32, 256, 1200, 1500),
        };
        Shape {
            traces,
            nodes,
            jobs,
            google_pool,
            long_jobs: matches!(self, Kind::DynloopSteady | Kind::FaultsRacked),
        }
    }

    /// Generate the workload's input traces from `seed`.
    pub fn build_inputs(self, seed: u64, smoke: bool) -> Vec<Arc<Workload>> {
        let shape = self.shape(smoke);
        (0..shape.traces)
            .map(|k| Arc::new(shape.build(derive(seed, k as u64))))
            .collect()
    }

    /// The simulation runs the workload executes over trace number
    /// `trace`, in order. Simulation and fault seeds derive from `seed`.
    pub fn runs(self, seed: u64, trace: usize, smoke: bool) -> Vec<Run> {
        let nodes = self.shape(smoke).nodes;
        let axis = MemoryMix::paper_axis();
        let (tight_pct, tight_mix) = axis[0];
        // 64/128 GB nodes, a quarter of them large: the 62% point.
        let (mid_pct, mid_mix) = axis[4];
        let mut runs = Vec::new();
        match self {
            Kind::PaperLeg => {
                for (pct, mix) in axis {
                    for policy in [
                        PolicySpec::Baseline,
                        PolicySpec::Static,
                        PolicySpec::Dynamic,
                    ] {
                        runs.push(Run::new(policy, pct, nodes, mix));
                    }
                }
            }
            Kind::TightStatic => {
                runs.push(Run::new(PolicySpec::Static, tight_pct, nodes, tight_mix))
            }
            Kind::DynloopSteady => {
                let mut run = Run::new(PolicySpec::Dynamic, mid_pct, nodes, mid_mix);
                run.system = run.system.with_restart(RestartStrategy::CheckpointRestart);
                runs.push(run);
            }
            Kind::FaultsRacked => {
                let mut run = Run::new(PolicySpec::Dynamic, mid_pct, nodes, mid_mix);
                let racks: TopologySpec = "racks:size=32".parse().expect("valid topology spec");
                let faults =
                    FaultConfig::heavy().with_seed(derive(seed, 0xFA17_0000 + trace as u64));
                run.system = run
                    .system
                    .with_restart(RestartStrategy::CheckpointRestart)
                    .with_topology(racks)
                    .with_faults(faults);
                runs.push(run);
            }
        }
        let base = derive(seed, 0x5EED_0000 + trace as u64);
        for (i, run) in runs.iter_mut().enumerate() {
            run.sim_seed = derive(base, i as u64);
        }
        runs
    }

    /// Index of the run the layer micro-benchmarks take their system
    /// and policy from: the critical point on paper-leg (dynamic at 37%
    /// memory), the only run elsewhere.
    pub fn focus_run(self) -> usize {
        match self {
            Kind::PaperLeg => 2,
            _ => 0,
        }
    }
}

/// One simulation of a workload.
#[derive(Clone, Debug)]
pub struct Run {
    /// `policy@memory%`, unique within one trace's run list.
    pub label: String,
    /// The simulated system.
    pub system: SystemConfig,
    /// The memory policy.
    pub policy: PolicySpec,
    /// Seed of the memory-update jitter stream.
    pub sim_seed: u64,
}

impl Run {
    fn new(policy: PolicySpec, pct: u32, nodes: u32, mix: MemoryMix) -> Self {
        Self {
            label: format!("{policy}@{pct}"),
            system: SystemConfig::with_nodes(nodes).with_memory_mix(mix),
            policy,
            sim_seed: 0,
        }
    }
}

/// Parameters of a workload's synthetic traces: 50% large jobs, +60%
/// request overestimation (the paper's realistic setting), and jobs of
/// up to an eighth of the machine, as at paper scale (128 of 1024
/// nodes).
struct Shape {
    traces: usize,
    nodes: u32,
    jobs: usize,
    google_pool: usize,
    /// Shift the CIRNE runtimes to the hours-long regime where the
    /// dynamic-memory loop does most of its work.
    long_jobs: bool,
}

impl Shape {
    fn build(&self, seed: u64) -> Workload {
        let mut cirne = CirneModel {
            max_nodes: self.nodes / 8,
            ..CirneModel::default()
        };
        let mut builder = WorkloadBuilder::new(seed)
            .jobs(self.jobs)
            .large_job_fraction(0.5)
            .overestimation(0.6)
            .google_pool(self.google_pool);
        if self.long_jobs {
            // The dynloop stress parameters: median runtime ~7.5 h, and
            // usage plateaus merged so demand changes with the job's
            // phase rather than with monitoring noise.
            cirne.runtime_ln_mean = 10.2;
            cirne.runtime_ln_sigma = 0.9;
            cirne.min_runtime_s = 3600.0;
            builder = builder.rdp_epsilon(0.08);
        }
        let system = SystemConfig::with_nodes(self.nodes).with_memory_mix(MemoryMix::all_large());
        builder.cirne(cirne).build_for(&system)
    }
}

/// Derive an independent seed for stream `k` of `seed` (the SplitMix64
/// finaliser over the pair).
fn derive(seed: u64, k: u64) -> u64 {
    let mut z = seed ^ k.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
