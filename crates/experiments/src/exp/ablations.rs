//! Ablation studies beyond the paper's headline figures.
//!
//! All ablations run the stress scenario where the dynamic policy
//! matters most (underprovisioned system, 50% large jobs, +60%
//! overestimation) and vary one design choice at a time:
//!
//! * **restart strategy** — Fail/Restart vs Checkpoint/Restart (§2.2
//!   discusses both; the paper ships F/R because OOM kills are rare);
//! * **memory-update interval** — the Monitor cadence (paper: 5 min);
//! * **lend cap** — the fraction of a node's memory it may lend while
//!   still accepting jobs (paper: 1/2);
//! * **backfill depth** — how aggressively the scheduler backfills.

use crate::runner::run_parallel;
use crate::scale::Scale;
use crate::scenario::{median_response, simulate, stress_system, stress_workload, BASE_SEED};
use crate::table::TextTable;
use dmhpc_core::config::{RestartStrategy, SystemConfig};
use dmhpc_core::policy::PolicySpec;
use dmhpc_core::sim::Workload;
use std::sync::Arc;

/// One ablation result row.
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// Which knob and value.
    pub variant: String,
    /// Throughput in jobs/s.
    pub throughput_jps: f64,
    /// Median response time, s.
    pub median_response_s: f64,
    /// OOM kills.
    pub oom_kills: u32,
    /// Jobs that hit the restart cap.
    pub failed_restarts: u32,
}

/// All ablation rows.
pub struct Ablations {
    /// Rows grouped by knob (the variant string carries the group).
    pub rows: Vec<AblationRow>,
}

fn run_one(system: SystemConfig, workload: Arc<Workload>, label: String) -> AblationRow {
    let mut out = simulate(system, workload, PolicySpec::Dynamic, BASE_SEED ^ 0xAB);
    let median = median_response(&mut out.response_times_s);
    AblationRow {
        variant: label,
        throughput_jps: out.stats.throughput_jps,
        median_response_s: median,
        oom_kills: out.stats.oom_kills,
        failed_restarts: out.stats.failed_restarts,
    }
}

/// Run every ablation.
pub fn run(scale: Scale, threads: usize) -> Ablations {
    let workload = Arc::new(stress_workload(scale, BASE_SEED ^ 0xAB1));
    let mut tasks: Vec<(String, SystemConfig)> = Vec::new();
    // Restart strategy.
    for (name, strat) in [
        ("restart=F/R", RestartStrategy::FailRestart),
        ("restart=C/R", RestartStrategy::CheckpointRestart),
    ] {
        tasks.push((name.to_string(), stress_system(scale).with_restart(strat)));
    }
    // Update interval.
    for secs in [60.0, 300.0, 900.0, 1800.0] {
        tasks.push((
            format!("update_interval={secs:.0}s"),
            stress_system(scale).with_update_interval(secs),
        ));
    }
    // Lend cap.
    for cap in [0.25, 0.5, 0.75, 1.0] {
        tasks.push((
            format!("lend_cap={cap}"),
            stress_system(scale).with_lend_cap(cap),
        ));
    }
    // Backfill depth.
    for depth in [1usize, 10, 100] {
        let mut sys = stress_system(scale);
        sys.backfill_depth = depth;
        tasks.push((format!("backfill_depth={depth}"), sys));
    }
    // OOM fairness mitigations (§2.2).
    use dmhpc_core::config::OomMitigation;
    for (name, m) in [
        ("mitigation=none", OomMitigation::None),
        (
            "mitigation=boost",
            OomMitigation::PriorityBoost { after: 1 },
        ),
        (
            "mitigation=static_fallback",
            OomMitigation::StaticFallback { after: 2 },
        ),
    ] {
        tasks.push((name.to_string(), stress_system(scale).with_mitigation(m)));
    }
    let rows = run_parallel(tasks, threads, |(label, sys)| {
        run_one(sys.clone(), workload.clone(), label.clone())
    });
    Ablations { rows }
}

impl Ablations {
    /// Render the table.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(vec![
            "variant",
            "throughput_jps",
            "median_resp_s",
            "oom_kills",
            "failed_restarts",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.variant.clone(),
                format!("{:.5}", r.throughput_jps),
                format!("{:.0}", r.median_response_s),
                r.oom_kills.to_string(),
                r.failed_restarts.to_string(),
            ]);
        }
        t
    }
}
