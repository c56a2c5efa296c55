//! Figure 9: the minimum system memory needed to sustain ≥ 95% of the
//! fully provisioned baseline throughput, as a function of the memory
//! overestimation, for the static and dynamic policies (synthetic trace,
//! 50% large jobs).
//!
//! Derived from the Figure 8 sweep: for each overestimation and policy,
//! walk the memory axis upward and report the first point whose
//! normalised throughput reaches the threshold.

use crate::durable::{DurableError, DurableOptions};
use crate::exp::fig8::{self, Fig8};
use crate::scale::Scale;
use crate::table::TextTable;
use dmhpc_core::cluster::TopologySpec;
use dmhpc_core::policy::PolicySpec;

/// The throughput threshold (fraction of the fully provisioned
/// baseline).
pub const THRESHOLD: f64 = 0.95;

/// One row of Figure 9.
#[derive(Clone, Debug, PartialEq)]
pub struct Fig9Row {
    /// Overestimation factor.
    pub overest: f64,
    /// Policy.
    pub policy: PolicySpec,
    /// Minimum memory percent reaching the threshold, `None` if no
    /// configuration on the axis reaches it.
    pub min_mem_pct: Option<u32>,
}

/// Figure 9's data.
pub struct Fig9 {
    /// Rows in (overestimation, policy) order.
    pub rows: Vec<Fig9Row>,
}

/// Derive Figure 9 from an existing Figure 8 sweep.
pub fn derive(fig8: &Fig8, trace: &str) -> Fig9 {
    let mut rows = Vec::new();
    for &over in &fig8::OVERS {
        for policy in [PolicySpec::Static, PolicySpec::Dynamic] {
            let mut mems: Vec<(u32, Option<f64>)> = fig8
                .sweep
                .leg(trace, over)
                .filter(|p| p.policy == policy)
                .map(|p| (p.mem_pct, fig8.sweep.normalized(p)))
                .collect();
            mems.sort_unstable_by_key(|&(m, _)| m);
            let min_mem_pct = mems
                .iter()
                .find(|(_, n)| n.is_some_and(|v| v >= THRESHOLD))
                .map(|&(m, _)| m);
            rows.push(Fig9Row {
                overest: over,
                policy,
                min_mem_pct,
            });
        }
    }
    Fig9 { rows }
}

/// Run Figure 8 over every registered policy on the flat fabric and
/// derive Figure 9 from it.
pub fn run(scale: Scale, threads: usize) -> Result<Fig9, DurableError> {
    let f8 = fig8::run(
        scale,
        threads,
        &PolicySpec::all_default(),
        &[TopologySpec::Flat],
        &DurableOptions::default(),
    )?;
    Ok(derive(&f8, "large 50%"))
}

impl Fig9 {
    /// Render the table.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(vec!["overest", "policy", "min_mem_for_95%"]);
        for r in &self.rows {
            t.row(vec![
                format!("+{:.0}%", r.overest * 100.0),
                r.policy.to_string(),
                r.min_mem_pct
                    .map(|m| format!("{m}%"))
                    .unwrap_or_else(|| "n/a".into()),
            ]);
        }
        t
    }

    /// Memory saving of dynamic over static at the given overestimation,
    /// in percentage points of system memory (paper: up to ~40%).
    pub fn saving_pp(&self, overest: f64) -> Option<i64> {
        let get = |policy| {
            self.rows
                .iter()
                .find(|r| r.overest == overest && r.policy == policy)
                .and_then(|r| r.min_mem_pct)
        };
        Some(get(PolicySpec::Static)? as i64 - get(PolicySpec::Dynamic)? as i64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{SweepPoint, ThroughputSweep};

    /// Hand-build a sweep where the reference is 1.0 and throughput
    /// rises linearly with memory, with static lagging dynamic.
    fn synthetic_sweep() -> Fig8 {
        let mut points = Vec::new();
        for &over in &fig8::OVERS {
            for &mem in &[37u32, 43, 50, 57, 62, 75, 87, 100] {
                for policy in [
                    PolicySpec::Baseline,
                    PolicySpec::Static,
                    PolicySpec::Dynamic,
                ] {
                    let handicap = match policy {
                        PolicySpec::Baseline => 0.0,
                        PolicySpec::Static => 0.25 + over * 0.3,
                        _ => 0.02,
                    };
                    points.push(SweepPoint {
                        trace: "t".into(),
                        overest: over,
                        mem_pct: mem,
                        policy,
                        topology: dmhpc_core::cluster::TopologySpec::Flat,
                        cross_rack_fraction: 0.0,
                        throughput_jps: (mem as f64 / 100.0 + 1.0 - handicap).min(1.0),
                        feasible: true,
                        completed: 1,
                        oom_kills: 0,
                        jobs_oom_killed: 0,
                        median_response_s: 1.0,
                    });
                }
            }
        }
        Fig8 {
            sweep: ThroughputSweep { points },
        }
    }

    #[test]
    fn derive_picks_first_threshold_crossing() {
        let f9 = derive(&synthetic_sweep(), "t");
        assert_eq!(f9.rows.len(), fig8::OVERS.len() * 2);
        // Dynamic: 1 + mem/100 - 0.02 >= 0.95 already at 37%.
        let dyn0 = f9
            .rows
            .iter()
            .find(|r| r.overest == 0.0 && r.policy == PolicySpec::Dynamic)
            .unwrap();
        assert_eq!(dyn0.min_mem_pct, Some(37));
        // Static at +100%: needs mem/100 >= 0.95 - 1 + 0.55 = 0.5.
        let stat1 = f9
            .rows
            .iter()
            .find(|r| r.overest == 1.0 && r.policy == PolicySpec::Static)
            .unwrap();
        assert_eq!(stat1.min_mem_pct, Some(50));
        // Savings grow with overestimation.
        assert!(f9.saving_pp(1.0).unwrap() >= f9.saving_pp(0.0).unwrap());
    }

    #[test]
    fn derive_reports_none_when_unreachable() {
        let mut f8 = synthetic_sweep();
        // Cripple static at +100% so it never reaches the threshold.
        for p in &mut f8.sweep.points {
            if p.policy == PolicySpec::Static && p.overest == 1.0 {
                p.throughput_jps = 0.1;
            }
        }
        let f9 = derive(&f8, "t");
        let stat1 = f9
            .rows
            .iter()
            .find(|r| r.overest == 1.0 && r.policy == PolicySpec::Static)
            .unwrap();
        assert_eq!(stat1.min_mem_pct, None);
        assert!(f9.saving_pp(1.0).is_none());
        // Table renders the gap as n/a.
        let rendered = f9.table().render();
        assert!(rendered.contains("n/a"));
    }
}
