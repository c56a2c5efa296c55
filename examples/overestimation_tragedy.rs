//! The tragedy of the commons in memory requests.
//!
//! Prior work (Zacarias et al., PMBS'21) showed that a single user
//! overestimating memory barely hurts them, but *everyone* doing it
//! collapses system performance — so users have no incentive to be
//! accurate. This example sweeps the overestimation factor and shows how
//! the static policy degrades while the dynamic policy stays flat,
//! removing the need for accurate requests (the paper's Figure 8 story).
//!
//! ```text
//! cargo run --release --example overestimation_tragedy
//! ```

use dmhpc::core::cluster::MemoryMix;
use dmhpc::core::config::SystemConfig;
use dmhpc::core::policy::PolicySpec;
use dmhpc::core::sim::SimBuilder;
use dmhpc::metrics::ecdf::Ecdf;
use dmhpc::traces::workload::WorkloadBuilder;

fn main() {
    // An underprovisioned system: only a quarter of the nodes are large,
    // while half the jobs have large-memory demands.
    let system =
        SystemConfig::with_nodes(128).with_memory_mix(MemoryMix::new(64 * 1024, 128 * 1024, 0.25));

    println!(
        "{:>7} {:>16} {:>16} {:>14} {:>14}",
        "overest", "static_tput(j/h)", "dynamic_tput(j/h)", "static_med(s)", "dynamic_med(s)"
    );
    for over in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let workload = WorkloadBuilder::new(99)
            .jobs(400)
            .max_job_nodes(16)
            .large_job_fraction(0.5)
            .overestimation(over)
            .build_for(&system);
        let mut cells = Vec::new();
        for policy in [PolicySpec::Static, PolicySpec::Dynamic] {
            let out = SimBuilder::new(system.clone(), workload.clone())
                .policy(policy)
                .run();
            let med = Ecdf::new(out.response_times_s.clone())
                .map(|e| e.median())
                .unwrap_or(f64::NAN);
            cells.push((out.stats.throughput_jps * 3600.0, med));
        }
        println!(
            "{:>6.0}% {:>16.2} {:>16.2} {:>14.0} {:>14.0}",
            over * 100.0,
            cells[0].0,
            cells[1].0,
            cells[0].1,
            cells[1].1
        );
    }
    println!(
        "\nStatic allocation pays for every megabyte the user overestimates;\n\
         dynamic allocation reclaims it, so accuracy no longer matters."
    );
}
