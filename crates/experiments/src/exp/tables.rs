//! Tables 1–4 of the paper.
//!
//! Table 1 is the trace-capability matrix (static facts). Tables 2 and 3
//! are regenerated from our samplers/workloads next to the paper's
//! published values so the reproduction error is visible. Table 4 prints
//! the simulated system configuration constants.

use crate::scale::Scale;
use crate::scenario::{grizzly_bundle, synthetic_workload, BASE_SEED};
use crate::table::TextTable;
use dmhpc_core::config::SystemConfig;
use dmhpc_core::spec::SpecRegistry;
use dmhpc_metrics::cost::CostModel;
use dmhpc_metrics::summary::{binned_percentages, FiveNumber};
use dmhpc_traces::distributions::{table2_percentages, Dataset, SizeClass, TABLE2_EDGES_GB};
use dmhpc_traces::pipeline::NORMAL_NODE_MB;

/// Table 1: which fields each source trace provides.
pub fn table1() -> TextTable {
    let mut t = TextTable::new(vec![
        "trace",
        "domain",
        "submit_times",
        "mem_request",
        "num_nodes",
        "duration",
        "mem_trace",
    ]);
    t.row(vec!["Grizzly", "HPC", "no", "no", "yes", "yes", "yes"]);
    t.row(vec!["CIRNE", "HPC", "yes", "yes", "yes", "yes", "no"]);
    t.row(vec![
        "Google",
        "Cloud",
        "no",
        "partial",
        "yes",
        "yes",
        "normalized",
    ]);
    t
}

/// Table 2: maximum memory usage per node (percent of jobs per bin),
/// measured from our generated workloads/datasets next to the paper's
/// figures.
pub fn table2(scale: Scale) -> TextTable {
    // Synthetic workload at the *natural* Archer mix: Table 2's All
    // column implies P(peak > 64 GB) ≈ 2.0% + 6.9%×(96−64)/(96−48) ≈
    // 6.6% of jobs are large-memory. (The evaluation scenarios then
    // sweep the large fraction explicitly; this table characterises the
    // base distribution.)
    let w = synthetic_workload(scale, 0.066, 0.0, BASE_SEED ^ 0x22);
    let (ds, _) = grizzly_bundle(scale, BASE_SEED ^ 0x312);
    let gather = |pred: &dyn Fn(u32) -> bool, jobs: &mut dyn Iterator<Item = (u32, u64)>| {
        let gbs: Vec<f64> = jobs
            .filter(|&(n, _)| pred(n))
            .map(|(_, mb)| mb as f64 / 1024.0)
            .collect();
        binned_percentages(&gbs, &TABLE2_EDGES_GB)
    };
    let synth: Vec<(u32, u64)> = w.jobs.iter().map(|j| (j.nodes, j.peak_mb())).collect();
    let griz: Vec<(u32, u64)> = ds
        .weeks
        .iter()
        .flat_map(|wk| wk.jobs.iter().map(|j| (j.nodes, j.peak_mb)))
        .collect();
    let bins = ["(0,12)", "[12,24)", "[24,48)", "[48,96)", "[96,128)"];
    let mut t = TextTable::new(vec![
        "max_mem_GB",
        "synth_all",
        "synth_all_paper",
        "griz_all",
        "griz_all_paper",
        "griz_normal",
        "griz_large",
    ]);
    let all = |_: u32| true;
    let synth_all = gather(&all, &mut synth.iter().copied());
    let griz_all = gather(&all, &mut griz.iter().copied());
    let griz_n = gather(&|n| n <= 32, &mut griz.iter().copied());
    let griz_l = gather(&|n| n > 32, &mut griz.iter().copied());
    let paper_s = table2_percentages(Dataset::Synthetic, SizeClass::All);
    let paper_g = table2_percentages(Dataset::Grizzly, SizeClass::All);
    for i in 0..5 {
        t.row(vec![
            bins[i].to_string(),
            format!("{:.1}%", synth_all[i]),
            format!("{:.1}%", paper_s[i]),
            format!("{:.1}%", griz_all[i]),
            format!("{:.1}%", paper_g[i]),
            format!("{:.1}%", griz_n[i]),
            format!("{:.1}%", griz_l[i]),
        ]);
    }
    t
}

/// Paper reference rows for Table 3 (memory in MB).
pub const TABLE3_PAPER_NORMAL: [f64; 5] = [0.0, 4_037.0, 8_089.0, 15_341.0, 65_532.0];
/// Paper reference rows for Table 3, large-memory jobs.
pub const TABLE3_PAPER_LARGE: [f64; 5] = [65_538.0, 76_176.0, 86_961.0, 99_956.0, 130_046.0];

/// Table 3: normal vs large memory job characteristics (per-node memory
/// and node-hours five-number summaries).
pub fn table3(scale: Scale) -> TextTable {
    let w = synthetic_workload(scale, 0.5, 0.0, BASE_SEED ^ 0x33);
    let (mut nm, mut lm, mut nh_n, mut nh_l) = (vec![], vec![], vec![], vec![]);
    for j in &w.jobs {
        let mem = j.peak_mb() as f64;
        if j.peak_mb() > NORMAL_NODE_MB {
            lm.push(mem);
            nh_l.push(j.node_hours());
        } else {
            nm.push(mem);
            nh_n.push(j.node_hours());
        }
    }
    let mut t = TextTable::new(vec!["metric", "min", "q1", "median", "q3", "max"]);
    let mut push = |name: &str, f: Option<FiveNumber>| {
        let cells = match f {
            Some(f) => vec![
                name.to_string(),
                format!("{:.0}", f.min),
                format!("{:.0}", f.q1),
                format!("{:.0}", f.median),
                format!("{:.0}", f.q3),
                format!("{:.0}", f.max),
            ],
            None => vec![
                name.to_string(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ],
        };
        t.row(cells);
    };
    push("normal_mem_MB", FiveNumber::of(&nm).ok());
    push("normal_mem_MB_paper", Some(five(&TABLE3_PAPER_NORMAL)));
    push("large_mem_MB", FiveNumber::of(&lm).ok());
    push("large_mem_MB_paper", Some(five(&TABLE3_PAPER_LARGE)));
    push("normal_node_hours", FiveNumber::of(&nh_n).ok());
    push("large_node_hours", FiveNumber::of(&nh_l).ok());
    t
}

fn five(v: &[f64; 5]) -> FiveNumber {
    FiveNumber {
        min: v[0],
        q1: v[1],
        median: v[2],
        q3: v[3],
        max: v[4],
    }
}

/// Table 4: simulated system configurations.
pub fn table4() -> TextTable {
    let synth = SystemConfig::synthetic_1024();
    let griz = SystemConfig::grizzly_1490();
    let mut t = TextTable::new(vec!["parameter", "synthetic", "grizzly"]);
    t.row(vec![
        "system size (nodes)".to_string(),
        synth.nodes.to_string(),
        griz.nodes.to_string(),
    ]);
    t.row(vec![
        "cores per node".to_string(),
        synth.cores_per_node.to_string(),
        griz.cores_per_node.to_string(),
    ]);
    t.row(vec![
        "memory per node (GB)".to_string(),
        "32/64/128".into(),
        "32/64/128".into(),
    ]);
    let policies = dmhpc_core::policy::PolicySpec::spec_registry()
        .iter()
        .map(|i| i.name)
        .collect::<Vec<_>>()
        .join("/");
    t.row(vec![
        "allocation policy".to_string(),
        policies.clone(),
        policies,
    ]);
    t.row(vec![
        "scheduling policy".to_string(),
        "backfill".into(),
        "backfill".into(),
    ]);
    t.row(vec![
        "queue & backfill size".to_string(),
        synth.queue_depth.to_string(),
        griz.queue_depth.to_string(),
    ]);
    t.row(vec![
        "sched interval (s)".to_string(),
        format!("{:.0}", synth.sched_interval_s),
        format!("{:.0}", griz.sched_interval_s),
    ]);
    t.row(vec![
        "% large nodes".to_string(),
        "0/15/25/50/75/100".into(),
        "0/15/25/50/75/100".into(),
    ]);
    // Both systems are priced by the §4.3 cost model Figure 7 uses.
    let cost = CostModel::default();
    t.row(vec![
        "cost per node (excl. mem)".to_string(),
        format!("${:.0}", cost.per_node_usd),
        format!("${:.0}", cost.per_node_usd),
    ]);
    t.row(vec![
        "cost per 128 GB".to_string(),
        format!("${:.0}", cost.per_128gb_usd),
        format!("${:.0}", cost.per_128gb_usd),
    ]);
    t.row(vec![
        "mem update interval (s)".to_string(),
        format!("{:.0}", synth.mem_update_interval_s),
        format!("{:.0}", griz.mem_update_interval_s),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_is_the_capability_matrix() {
        let t = table1();
        assert_eq!(t.len(), 3);
        let r = t.render();
        assert!(r.contains("Grizzly") && r.contains("CIRNE") && r.contains("Google"));
    }

    #[test]
    fn table2_tracks_paper_marginals() {
        // The Grizzly columns are direct sampler output and must land
        // within a couple of percentage points of the paper.
        let t = table2(Scale::Small);
        assert_eq!(t.len(), 5);
        let csv = t.to_csv();
        let rows: Vec<&str> = csv.lines().skip(1).collect();
        // Index from the end: the first cell ("(0,12)") is quoted and
        // contains a comma. griz_normal is the second-to-last column.
        let pct = |row: &str, col_from_end: usize| -> f64 {
            row.rsplit(',')
                .nth(col_from_end)
                .unwrap()
                .trim_end_matches('%')
                .parse()
                .unwrap()
        };
        // At small scale the partition caps job sizes at ≤32 nodes, so
        // every job is in the Normal size class — compare that column.
        let paper = table2_percentages(Dataset::Grizzly, SizeClass::Normal);
        for (i, row) in rows.iter().enumerate() {
            let measured = pct(row, 1);
            assert!(
                (measured - paper[i]).abs() < 6.0,
                "grizzly bin {i}: {measured} vs paper {}",
                paper[i]
            );
        }
    }

    #[test]
    fn table3_medians_match_paper() {
        let t = table3(Scale::Small);
        let csv = t.to_csv();
        let get = |name: &str, col: usize| -> f64 {
            csv.lines()
                .find(|l| l.starts_with(name))
                .unwrap()
                .split(',')
                .nth(col)
                .unwrap()
                .parse()
                .unwrap()
        };
        // Medians within 15% of Table 3 (col 3 = median).
        let nm = get("normal_mem_MB,", 3);
        assert!((nm - 8_089.0).abs() / 8_089.0 < 0.15, "normal median {nm}");
        let lm = get("large_mem_MB,", 3);
        assert!((lm - 86_961.0).abs() / 86_961.0 < 0.15, "large median {lm}");
    }

    #[test]
    fn table4_lists_paper_constants() {
        let r = table4().render();
        assert!(r.contains("1024") && r.contains("1490"));
        assert!(r.contains("$10154") && r.contains("$1280"));
        assert!(r.contains("backfill"));
    }
}
