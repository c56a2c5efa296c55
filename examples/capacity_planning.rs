//! Capacity planning: how much disaggregated memory does a system need?
//!
//! An operator provisioning a new cluster must pick a memory
//! configuration before knowing the exact workload. This example sweeps
//! the paper's memory axis (37%…100% of a fully provisioned 128 GB/node
//! system) for an expected job mix and reports, per policy, the
//! throughput, the cost, and the cheapest configuration that keeps
//! throughput within 95% of fully provisioned — the Figure 9 question.
//!
//! ```text
//! cargo run --release --example capacity_planning
//! ```

use dmhpc::core::cluster::MemoryMix;
use dmhpc::core::config::SystemConfig;
use dmhpc::core::policy::PolicySpec;
use dmhpc::core::sim::SimBuilder;
use dmhpc::metrics::cost::CostModel;
use dmhpc::traces::workload::WorkloadBuilder;

fn main() {
    let nodes = 128;
    let cost = CostModel::default();
    // Expected production mix: 50% large-memory jobs, users overestimate
    // by 60% (the paper's realistic setting).
    let workload = WorkloadBuilder::new(7)
        .jobs(400)
        .max_job_nodes(16)
        .large_job_fraction(0.5)
        .overestimation(0.6)
        .build_for(&SystemConfig::with_nodes(nodes));

    // Reference: baseline on the fully provisioned system with accurate
    // requests.
    let exact = WorkloadBuilder::new(7)
        .jobs(400)
        .max_job_nodes(16)
        .large_job_fraction(0.5)
        .overestimation(0.0)
        .build_for(&SystemConfig::with_nodes(nodes));
    let full = SystemConfig::with_nodes(nodes).with_memory_mix(MemoryMix::all_large());
    let ref_jps = SimBuilder::new(full, exact)
        .policy(PolicySpec::Baseline)
        .run()
        .stats
        .throughput_jps;
    println!("reference throughput (baseline, 100% memory, exact requests): {ref_jps:.5} jobs/s\n");

    println!(
        "{:>5} {:>14} {:>8} {:>8} {:>10} {:>10}",
        "mem%", "cost($)", "static", "dynamic", "stat_ok95", "dyn_ok95"
    );
    let mut cheapest: [Option<(u32, f64)>; 2] = [None, None];
    for (pct, mix) in MemoryMix::paper_axis() {
        let system = SystemConfig::with_nodes(nodes).with_memory_mix(mix);
        let usd = cost.system_cost_usd(nodes, system.total_memory_mb());
        let mut norms = [0.0f64; 2];
        for (i, policy) in [PolicySpec::Static, PolicySpec::Dynamic]
            .into_iter()
            .enumerate()
        {
            let out = SimBuilder::new(system.clone(), workload.clone())
                .policy(policy)
                .run();
            norms[i] = if out.feasible {
                out.stats.throughput_jps / ref_jps
            } else {
                f64::NAN
            };
            if norms[i] >= 0.95 && cheapest[i].is_none() {
                cheapest[i] = Some((pct, usd));
            }
        }
        println!(
            "{:>5} {:>14.0} {:>8.3} {:>8.3} {:>10} {:>10}",
            pct,
            usd,
            norms[0],
            norms[1],
            if norms[0] >= 0.95 { "yes" } else { "." },
            if norms[1] >= 0.95 { "yes" } else { "." },
        );
    }
    println!();
    for (i, name) in ["static", "dynamic"].iter().enumerate() {
        match cheapest[i] {
            Some((pct, usd)) => {
                println!("cheapest {name} config at ≥95% throughput: {pct}% memory (${usd:.0})")
            }
            None => println!("{name}: no configuration on the axis reaches 95%"),
        }
    }
}
