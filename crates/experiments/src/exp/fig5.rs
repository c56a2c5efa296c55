//! Figure 5: normalised throughput vs total system memory, for large-job
//! mixes {0, 15, 25, 50, 75, 100}% and the Grizzly trace, at +0% and
//! +60% overestimation, under every registered policy (the paper's
//! three plus the predictive/overcommit/conservative extensions).

use crate::durable::{DurableError, DurableOptions};
use crate::scale::Scale;
use crate::sweep::{SweepPoint, ThroughputSweep, TraceSpec};
use crate::table::{opt_cell, TextTable};
use dmhpc_core::cluster::TopologySpec;
use dmhpc_core::policy::PolicySpec;

/// The large-job mixes of Figure 5's columns.
pub const LARGE_MIXES: [f64; 6] = [0.0, 0.15, 0.25, 0.5, 0.75, 1.0];

/// The overestimation rows of Figure 5.
pub const OVERS: [f64; 2] = [0.0, 0.6];

/// Figure 5's data: the underlying sweep.
pub struct Fig5 {
    /// The raw sweep.
    pub sweep: ThroughputSweep,
}

/// Run the Figure 5 experiment over `policies` (must include
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
) -> Result<Fig5, DurableError> {
    let mut traces: Vec<TraceSpec> = LARGE_MIXES
        .iter()
        .map(|&f| TraceSpec::Synthetic { large_fraction: f })
        .collect();
    traces.push(TraceSpec::Grizzly);
    Ok(Fig5 {
        sweep: ThroughputSweep::run(
            "fig5", scale, &traces, &OVERS, threads, policies, topologies, opts,
        )?,
    })
}

impl Fig5 {
    /// Render as a long-format table: one row per simulated point.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(vec![
            "trace",
            "overest",
            "mem%",
            "policy",
            "topology",
            "norm_throughput",
            "oom_kills",
            "cross_frac",
        ]);
        for p in &self.sweep.points {
            t.row(vec![
                p.trace.clone(),
                format!("+{:.0}%", p.overest * 100.0),
                p.mem_pct.to_string(),
                p.policy.to_string(),
                p.topology.to_string(),
                opt_cell(self.sweep.normalized(p), 3),
                p.oom_kills.to_string(),
                format!("{:.3}", p.cross_rack_fraction),
            ]);
        }
        t
    }

    /// The largest dynamic-over-static throughput advantage observed on
    /// underprovisioned systems (the paper headline: up to +13% at +60%
    /// overestimation). Returns `(trace, overest, mem_pct, gain)`.
    pub fn max_dynamic_gain(&self) -> Option<(String, f64, u32, f64)> {
        let mut best: Option<(String, f64, u32, f64)> = None;
        for p in &self.sweep.points {
            if p.policy != PolicySpec::Dynamic {
                continue;
            }
            let Some(dyn_norm) = self.sweep.normalized(p) else {
                continue;
            };
            let stat = self.sweep.points.iter().find(|q| {
                q.trace == p.trace
                    && q.overest == p.overest
                    && q.mem_pct == p.mem_pct
                    && q.policy == PolicySpec::Static
                    && q.topology == p.topology
            });
            let Some(stat_norm) = stat.and_then(|q| self.sweep.normalized(q)) else {
                continue;
            };
            if stat_norm <= 0.0 {
                continue;
            }
            let gain = dyn_norm / stat_norm - 1.0;
            if best.as_ref().is_none_or(|b| gain > b.3) {
                best = Some((p.trace.clone(), p.overest, p.mem_pct, gain));
            }
        }
        best
    }

    /// Access the points of one panel (trace column, overestimation row).
    pub fn panel<'a>(&'a self, trace: &'a str, overest: f64) -> Vec<&'a SweepPoint> {
        self.sweep.leg(trace, overest).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{SweepPoint, ThroughputSweep};

    fn point(trace: &str, over: f64, mem: u32, policy: PolicySpec, jps: f64) -> SweepPoint {
        SweepPoint {
            trace: trace.into(),
            overest: over,
            mem_pct: mem,
            policy,
            topology: TopologySpec::Flat,
            throughput_jps: jps,
            feasible: true,
            completed: 10,
            oom_kills: 0,
            jobs_oom_killed: 0,
            median_response_s: 1.0,
            cross_rack_fraction: 0.0,
        }
    }

    #[test]
    fn max_dynamic_gain_finds_the_biggest_ratio() {
        let f = Fig5 {
            sweep: ThroughputSweep {
                points: vec![
                    point("a", 0.0, 100, PolicySpec::Baseline, 1.0),
                    point("a", 0.6, 37, PolicySpec::Static, 0.5),
                    point("a", 0.6, 37, PolicySpec::Dynamic, 0.9), // +80%
                    point("a", 0.6, 75, PolicySpec::Static, 0.9),
                    point("a", 0.6, 75, PolicySpec::Dynamic, 0.99), // +10%
                ],
            },
        };
        let (trace, over, mem, gain) = f.max_dynamic_gain().unwrap();
        assert_eq!((trace.as_str(), over, mem), ("a", 0.6, 37));
        assert!((gain - 0.8).abs() < 1e-9);
    }

    #[test]
    fn panel_filters_by_trace_and_over() {
        let f = Fig5 {
            sweep: ThroughputSweep {
                points: vec![
                    point("a", 0.0, 100, PolicySpec::Baseline, 1.0),
                    point("a", 0.6, 37, PolicySpec::Dynamic, 0.9),
                    point("b", 0.6, 37, PolicySpec::Dynamic, 0.9),
                ],
            },
        };
        assert_eq!(f.panel("a", 0.6).len(), 1);
        assert_eq!(f.panel("a", 0.0).len(), 1);
        assert_eq!(f.panel("c", 0.6).len(), 0);
    }
}
