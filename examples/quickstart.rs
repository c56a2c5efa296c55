//! Quickstart: generate a workload, run it under all three memory
//! allocation policies, and compare throughput and response times.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use dmhpc::prelude::*;

fn main() {
    // A 128-node system, provisioned at 75% of full memory:
    // half the nodes have 64 GB, half 128 GB.
    let system = SystemConfig::with_nodes(128).with_memory_mix(MemoryMix::half_large());

    // A synthetic workload in the style of the paper's methodology
    // (CIRNE arrivals, Archer/Google-shaped memory): 400 jobs, half of
    // them large-memory, with users overestimating their memory
    // requests by 60%.
    let workload = WorkloadBuilder::new(2024)
        .jobs(400)
        .max_job_nodes(16)
        .large_job_fraction(0.5)
        .overestimation(0.6)
        .build_for(&system);
    println!(
        "workload: {} jobs, {} large-memory",
        workload.len(),
        workload
            .jobs
            .iter()
            .filter(|j| j.peak_mb() > 64 * 1024)
            .count()
    );

    println!(
        "\n{:<10} {:>9} {:>11} {:>12} {:>10} {:>9}",
        "policy", "completed", "tput(j/h)", "median_rt(s)", "mem_util", "oom_kills"
    );
    for policy in [
        PolicySpec::Baseline,
        PolicySpec::Static,
        PolicySpec::Dynamic,
    ] {
        let out = SimBuilder::new(system.clone(), workload.clone())
            .policy(policy)
            .run();
        if !out.feasible {
            println!(
                "{:<10} {:>9}",
                policy.to_string(),
                "infeasible (some jobs cannot run without disaggregation)"
            );
            continue;
        }
        let median = Ecdf::new(out.response_times_s.clone())
            .map(|e| e.median())
            .unwrap_or(0.0);
        println!(
            "{:<10} {:>9} {:>11.2} {:>12.0} {:>9.1}% {:>9}",
            policy.to_string(),
            out.stats.completed,
            out.stats.throughput_jps * 3600.0,
            median,
            out.stats.avg_mem_utilization * 100.0,
            out.stats.oom_kills
        );
    }
    println!(
        "\nThe dynamic policy reclaims overallocated memory, so more jobs\n\
         run concurrently: higher throughput, lower response times, and a\n\
         smaller memory footprint than the static allocation."
    );
}
