//! Figure 8: throughput vs system memory for overestimation factors
//! {0, 25, 50, 60, 75, 100}%, for the synthetic trace at 50% large jobs
//! and the Grizzly trace.

use crate::durable::{DurableError, DurableOptions};
use crate::scale::Scale;
use crate::sweep::{ThroughputSweep, TraceSpec};
use crate::table::{opt_cell, TextTable};
use dmhpc_core::cluster::TopologySpec;
use dmhpc_core::policy::PolicySpec;

/// The overestimation sweep of Figure 8.
pub const OVERS: [f64; 6] = [0.0, 0.25, 0.5, 0.6, 0.75, 1.0];

/// Figure 8's data.
pub struct Fig8 {
    /// The raw sweep.
    pub sweep: ThroughputSweep,
}

/// Run the Figure 8 experiment over `policies` (must include
/// baseline, the normalisation reference), once per entry of
/// `topologies`, through the durable execution layer: journals each
/// point to `opts.manifest`, resumes from `opts.resume`, and drains
/// gracefully on interruption (see `crate::durable`).
pub fn run(
    scale: Scale,
    threads: usize,
    policies: &[PolicySpec],
    topologies: &[TopologySpec],
    opts: &DurableOptions,
) -> Result<Fig8, DurableError> {
    let traces = [
        TraceSpec::Synthetic {
            large_fraction: 0.5,
        },
        TraceSpec::Grizzly,
    ];
    Ok(Fig8 {
        sweep: ThroughputSweep::run(
            "fig8", scale, &traces, &OVERS, threads, policies, topologies, opts,
        )?,
    })
}

impl Fig8 {
    /// Long-format table.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(vec![
            "trace",
            "overest",
            "mem%",
            "policy",
            "topology",
            "norm_throughput",
        ]);
        for p in &self.sweep.points {
            t.row(vec![
                p.trace.clone(),
                format!("+{:.0}%", p.overest * 100.0),
                p.mem_pct.to_string(),
                p.policy.to_string(),
                p.topology.to_string(),
                opt_cell(self.sweep.normalized(p), 3),
            ]);
        }
        t
    }

    /// Dynamic − static normalised-throughput gap at the most
    /// underprovisioned point (37% memory) for a given overestimation —
    /// the paper reports > 38 percentage points at +100%.
    pub fn gap_at_37(&self, trace: &str, overest: f64) -> Option<f64> {
        let find = |policy: PolicySpec| {
            self.sweep
                .points
                .iter()
                .find(|p| {
                    p.trace == trace
                        && p.overest == overest
                        && p.mem_pct == 37
                        && p.policy == policy
                })
                .and_then(|p| self.sweep.normalized(p))
        };
        Some(find(PolicySpec::Dynamic)? - find(PolicySpec::Static)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{SweepPoint, ThroughputSweep};

    fn point(over: f64, mem: u32, policy: PolicySpec, jps: f64, feasible: bool) -> SweepPoint {
        SweepPoint {
            trace: "t".into(),
            overest: over,
            mem_pct: mem,
            policy,
            topology: TopologySpec::Flat,
            throughput_jps: jps,
            feasible,
            completed: 10,
            oom_kills: 0,
            jobs_oom_killed: 0,
            median_response_s: 1.0,
            cross_rack_fraction: 0.0,
        }
    }

    fn sweep_with(points: Vec<SweepPoint>) -> Fig8 {
        Fig8 {
            sweep: ThroughputSweep { points },
        }
    }

    #[test]
    fn gap_at_37_subtracts_normalised_values() {
        let f = sweep_with(vec![
            point(0.0, 100, PolicySpec::Baseline, 2.0, true), // reference
            point(1.0, 37, PolicySpec::Static, 0.8, true),    // 0.4 norm
            point(1.0, 37, PolicySpec::Dynamic, 1.6, true),   // 0.8 norm
        ]);
        let gap = f.gap_at_37("t", 1.0).unwrap();
        assert!((gap - 0.4).abs() < 1e-12);
    }

    #[test]
    fn gap_none_when_infeasible_or_missing() {
        let f = sweep_with(vec![
            point(0.0, 100, PolicySpec::Baseline, 2.0, true),
            point(1.0, 37, PolicySpec::Static, 0.8, false), // missing bar
            point(1.0, 37, PolicySpec::Dynamic, 1.6, true),
        ]);
        assert!(f.gap_at_37("t", 1.0).is_none());
        assert!(f.gap_at_37("t", 0.5).is_none());
        assert!(f.gap_at_37("other", 1.0).is_none());
    }

    #[test]
    fn table_marks_missing_bars() {
        let f = sweep_with(vec![
            point(0.0, 100, PolicySpec::Baseline, 2.0, true),
            point(0.0, 37, PolicySpec::Baseline, 0.0, false),
        ]);
        let rendered = f.table().render();
        assert!(rendered.contains("n/a"));
        assert!(rendered.contains("1.000"));
    }
}
