//! Integration tests spanning trace generation, formats and simulation.

use dmhpc::core::config::SystemConfig;
use dmhpc::core::policy::PolicySpec;
use dmhpc::core::sim::SimBuilder;
use dmhpc::traces::grizzly::{GrizzlyConfig, GrizzlyDataset};
use dmhpc::traces::swf;
use dmhpc::traces::workload::{grizzly_workload, WorkloadBuilder};

#[test]
fn synthetic_workload_exports_to_swf_and_back() {
    let system = SystemConfig::with_nodes(64);
    let w = WorkloadBuilder::new(3)
        .jobs(80)
        .max_job_nodes(8)
        .large_job_fraction(0.25)
        .overestimation(0.5)
        .build_for(&system);
    let recs: Vec<swf::SwfRecord> = w
        .jobs
        .iter()
        .map(|j| swf::from_job(j, system.cores_per_node))
        .collect();
    let text = swf::write(&recs, "integration test");
    let parsed = swf::parse(&text).expect("SWF parses");
    assert_eq!(parsed.len(), w.len());
    for (r, j) in parsed.iter().zip(&w.jobs) {
        assert_eq!(r.allocated_processors as u32, j.nodes * 32);
        assert_eq!(r.run_time, j.base_runtime_s.round());
        // Requested memory per processor reassembles to the request
        // (modulo the integer division by cores).
        let total = r.requested_memory_kb as u64 * 32 / 1024;
        assert!(total <= j.mem_request_mb && total + 32 > j.mem_request_mb);
    }
}

#[test]
fn grizzly_dataset_simulates_end_to_end() {
    let ds = GrizzlyDataset::synthesize(GrizzlyConfig::small(7));
    // Pick the busiest week.
    let week = ds
        .weeks
        .iter()
        .max_by(|a, b| a.cpu_utilization.total_cmp(&b.cpu_utilization))
        .unwrap()
        .index;
    let w = grizzly_workload(&ds, week, 0.6, 5);
    let system = SystemConfig::with_nodes(ds.config.nodes);
    let out = SimBuilder::new(system, w.clone())
        .policy(PolicySpec::Dynamic)
        .run();
    assert!(out.feasible);
    assert_eq!(out.stats.completed as usize, w.len());
    assert!(out.stats.makespan_s > 0.0);
}

#[test]
fn simulation_deterministic_across_platforms() {
    // End-to-end determinism: trace gen + simulation twice from the same
    // seeds must agree bit-for-bit on every reported metric.
    let run = || {
        let system = SystemConfig::with_nodes(48);
        let w = WorkloadBuilder::new(21)
            .jobs(120)
            .max_job_nodes(8)
            .large_job_fraction(0.4)
            .overestimation(0.6)
            .build_for(&system);
        SimBuilder::new(system, w)
            .policy(PolicySpec::Dynamic)
            .seed(9)
            .run()
    };
    let a = run();
    let b = run();
    assert_eq!(a.stats.completed, b.stats.completed);
    assert_eq!(a.stats.makespan_s, b.stats.makespan_s);
    assert_eq!(a.stats.oom_kills, b.stats.oom_kills);
    assert_eq!(a.response_times_s, b.response_times_s);
    assert_eq!(a.wait_times_s, b.wait_times_s);
    assert_eq!(a.stats.avg_mem_utilization, b.stats.avg_mem_utilization);
}

#[test]
fn workload_statistics_survive_the_full_pipeline() {
    // The Fig. 3 pipeline must preserve its advertised marginals after
    // matching, scaling and RDP reduction.
    let system = SystemConfig::with_nodes(64);
    let w = WorkloadBuilder::new(33)
        .jobs(500)
        .max_job_nodes(16)
        .large_job_fraction(0.5)
        .overestimation(0.0)
        .build_for(&system);
    // Exactly half large (by the 64 GB boundary).
    let large = w.jobs.iter().filter(|j| j.peak_mb() > 64 * 1024).count();
    assert_eq!(large, 250);
    // Large-memory medians in the Table 3 ballpark (86,961 MB ± 15%).
    let mut lm: Vec<u64> = w
        .jobs
        .iter()
        .filter(|j| j.peak_mb() > 64 * 1024)
        .map(|j| j.peak_mb())
        .collect();
    lm.sort_unstable();
    let median = lm[lm.len() / 2] as f64;
    assert!(
        (median - 86_961.0).abs() / 86_961.0 < 0.15,
        "large-memory median {median}"
    );
    // Usage traces are valid and below the request everywhere.
    for j in &w.jobs {
        assert!(j.usage.peak() <= j.mem_request_mb);
        assert!(j.usage.average() > 0.0);
    }
}
