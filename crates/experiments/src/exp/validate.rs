//! `dmhpc validate`: programmatic checks of the paper's headline claims.
//!
//! Each check runs the relevant experiment and asserts the *shape* of
//! the result (who wins, in which regime, by at least a conservative
//! margin), printing PASS/FAIL per claim. Exact magnitudes depend on
//! the statistical trace clones, so thresholds are deliberately set
//! below the paper's reported figures.

use crate::durable::{DurableError, DurableOptions};
use crate::exp::{fig5, fig6, fig7, fig8, fig9};
use crate::scale::Scale;
use crate::table::TextTable;
use dmhpc_core::cluster::TopologySpec;
use dmhpc_core::policy::PolicySpec;

/// One validated claim.
#[derive(Clone, Debug)]
pub struct Claim {
    /// Short name.
    pub name: &'static str,
    /// What the paper reports.
    pub paper: &'static str,
    /// What we measured.
    pub measured: String,
    /// Whether the shape holds.
    pub pass: bool,
}

/// The validation report.
pub struct Validation {
    /// All claims.
    pub claims: Vec<Claim>,
}

/// Run all validations.
pub fn run(scale: Scale, threads: usize) -> Result<Validation, DurableError> {
    let mut claims = Vec::new();

    // Figures 5 + 8 share the sweep machinery; run fig8 once (it has the
    // overestimation sweep) and fig5 for the mix sweep.
    let policies = PolicySpec::all_default();
    let (flat, journal) = ([TopologySpec::Flat], DurableOptions::default());
    let f5 = fig5::run(scale, threads, &policies, &flat, &journal)?;
    let gain = f5.max_dynamic_gain();
    claims.push(Claim {
        name: "fig5_dynamic_gain",
        paper: "dynamic up to +13% throughput over static (+60% overest, underprovisioned)",
        measured: match &gain {
            Some((trace, over, mem, g)) => format!(
                "+{:.1}% ({trace}, +{:.0}%, {mem}% mem)",
                g * 100.0,
                over * 100.0
            ),
            None => "no comparable points".into(),
        },
        pass: gain.is_some_and(|(_, _, _, g)| g >= 0.08),
    });
    // Ordering: at every point dynamic >= static - small tolerance.
    let mut order_ok = true;
    let mut worst = 0.0f64;
    for p in &f5.sweep.points {
        if p.policy != PolicySpec::Static {
            continue;
        }
        let d = f5.sweep.points.iter().find(|q| {
            q.trace == p.trace
                && q.overest == p.overest
                && q.mem_pct == p.mem_pct
                && q.policy == PolicySpec::Dynamic
        });
        if let (Some(sn), Some(dn)) = (
            f5.sweep.normalized(p),
            d.and_then(|q| f5.sweep.normalized(q)),
        ) {
            let deficit = sn - dn;
            worst = worst.max(deficit);
            if deficit > 0.05 {
                order_ok = false;
            }
        }
    }
    claims.push(Claim {
        name: "fig5_ordering",
        paper: "dynamic never loses to static (beyond noise)",
        measured: format!("worst static-over-dynamic margin: {:.1} pp", worst * 100.0),
        pass: order_ok,
    });

    let f6 = fig6::run(scale, threads);
    let red = f6.median_reduction(fig6::Provisioning::Under, 0.6);
    claims.push(Claim {
        name: "fig6_median_response",
        paper: "median response time −69% (underprovisioned, +60% overest)",
        measured: red.map_or("n/a".into(), |r| format!("−{:.0}%", r * 100.0)),
        pass: red.is_some_and(|r| r >= 0.3),
    });
    let red0 = f6.median_reduction(fig6::Provisioning::Over, 0.0);
    claims.push(Claim {
        name: "fig6_exact_requests_close",
        paper: "≤5% quantile gap between policies at +0% overprovisioned",
        measured: red0.map_or("n/a".into(), |r| format!("median gap {:.1}%", r * 100.0)),
        pass: red0.is_some_and(|r| r.abs() <= 0.15),
    });

    let f7 = fig7::run(scale, threads);
    let adv = f7.max_dynamic_advantage(0.6);
    claims.push(Claim {
        name: "fig7_throughput_per_dollar",
        paper: "dynamic up to +38% throughput/$ at +60% overestimation",
        measured: adv.map_or("n/a".into(), |a| format!("+{:.1}%", a * 100.0)),
        pass: adv.is_some_and(|a| a >= 0.15),
    });

    let f8 = fig8::run(scale, threads, &policies, &flat, &journal)?;
    let gap = f8.gap_at_37("large 50%", 1.0);
    claims.push(Claim {
        name: "fig8_overestimation_gap",
        paper: ">38 pp dynamic-static gap at 37% memory, +100% overestimation",
        measured: gap.map_or("n/a".into(), |g| format!("{:.1} pp", g * 100.0)),
        pass: gap.is_some_and(|g| g >= 0.15),
    });
    let oom_frac = {
        let worst_killed: u32 = f8
            .sweep
            .points
            .iter()
            .filter(|p| p.policy == PolicySpec::Dynamic)
            .map(|p| p.jobs_oom_killed)
            .max()
            .unwrap_or(0);
        let jobs = f8
            .sweep
            .points
            .iter()
            .map(|p| p.completed)
            .max()
            .unwrap_or(1);
        worst_killed as f64 / jobs as f64
    };
    claims.push(Claim {
        name: "oom_rarity",
        paper: "<1% of jobs fail on OOM in the most extreme scenario",
        measured: format!(
            "worst case {:.1}% of jobs killed at least once",
            oom_frac * 100.0
        ),
        pass: oom_frac < 0.10,
    });

    let f9 = fig9::derive(&f8, "large 50%");
    let saving = fig8::OVERS
        .iter()
        .filter_map(|&o| f9.saving_pp(o))
        .max()
        .unwrap_or(0);
    claims.push(Claim {
        name: "fig9_memory_saving",
        paper: "dynamic reaches 95% throughput with ~40% less memory",
        measured: format!("max saving {saving} pp of system memory"),
        pass: saving >= 12,
    });

    Ok(Validation { claims })
}

impl Validation {
    /// Render the PASS/FAIL table.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(vec!["claim", "paper", "measured", "verdict"]);
        for c in &self.claims {
            t.row(vec![
                c.name.to_string(),
                c.paper.to_string(),
                c.measured.clone(),
                if c.pass { "PASS" } else { "FAIL" }.to_string(),
            ]);
        }
        t
    }

    /// Whether every claim passed.
    pub fn all_pass(&self) -> bool {
        self.claims.iter().all(|c| c.pass)
    }
}
