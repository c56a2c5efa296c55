//! Golden determinism tests for the telemetry layer.
//!
//! Telemetry is strictly observational: attaching a collector must
//! leave every simulated bit of the outcome untouched, and a fixed
//! seed must reproduce every machine export byte for byte. These are
//! the acceptance bars that let `--telemetry` ship default-off without
//! a parallel validation matrix.

use dmhpc::core::cluster::MemoryMix;
use dmhpc::core::faults::FaultConfig;
use dmhpc::core::policy::PolicySpec;
use dmhpc::core::sim::SimBuilder;
use dmhpc::core::telemetry::{Telemetry, TelemetryCollector, TelemetrySpec};
use dmhpc::experiments::scenario::{synthetic_system, synthetic_workload};
use dmhpc::experiments::Scale;

fn system() -> dmhpc::core::config::SystemConfig {
    synthetic_system(Scale::Small, MemoryMix::new(4096, 16384, 0.5))
        .with_faults(FaultConfig::profile("light").unwrap().with_seed(11))
}

fn observed(policy: PolicySpec, seed: u64, interval_s: f64) -> Telemetry {
    let collector = TelemetryCollector::new(TelemetrySpec::with_interval(interval_s));
    SimBuilder::new(system(), synthetic_workload(Scale::Small, 0.5, 1.2, 0xACE))
        .policy(policy)
        .seed(seed)
        .telemetry(collector.clone())
        .run();
    collector.snapshot()
}

/// Attaching a telemetry collector is outcome-inert: the run with a
/// collector equals the run without one, bit for bit, for every policy.
#[test]
fn telemetry_off_and_on_outcomes_are_bit_identical() {
    for policy in [
        PolicySpec::Baseline,
        PolicySpec::Static,
        PolicySpec::Dynamic,
    ] {
        let workload = || synthetic_workload(Scale::Small, 0.5, 1.2, 0xACE);
        let plain = SimBuilder::new(system(), workload())
            .policy(policy)
            .seed(0xACE)
            .run();
        let collector = TelemetryCollector::new(TelemetrySpec::default());
        let watched = SimBuilder::new(system(), workload())
            .policy(policy)
            .seed(0xACE)
            .telemetry(collector.clone())
            .run();
        assert_eq!(
            plain, watched,
            "{policy:?}: telemetry must not perturb the simulation"
        );
        // And the collector actually observed the run.
        let telem = collector.snapshot();
        assert!(!telem.series.samples().is_empty(), "{policy:?}: no samples");
        assert!(!telem.profile.is_empty(), "{policy:?}: no phase spans");
    }
}

/// Same seed, same interval → every export format reproduces byte for
/// byte; a different sim seed diverges (the gauges track real state).
#[test]
fn telemetry_exports_are_byte_deterministic() {
    let a = observed(PolicySpec::Dynamic, 0xACE, 30.0);
    let b = observed(PolicySpec::Dynamic, 0xACE, 30.0);
    assert_eq!(a.prometheus(), b.prometheus());
    assert_eq!(a.csv(), b.csv());
    assert_eq!(a.jsonl(), b.jsonl());
    let c = observed(PolicySpec::Dynamic, 0xACF, 30.0);
    assert_ne!(a.csv(), c.csv(), "a different sim seed must diverge");
    // Export shape sanity: prometheus exposes the gauge families, the
    // CSV has a header plus one line per sample, JSONL parses per line.
    let prom = a.prometheus();
    for family in ["dmhpc_queue_depth", "dmhpc_pool_util", "dmhpc_oom_kills"] {
        assert!(prom.contains(family), "prometheus missing {family}");
    }
    let csv = a.csv();
    assert_eq!(csv.lines().count(), a.series.samples().len() + 1);
    assert!(csv.lines().next().unwrap().starts_with("t_s,"));
    for line in a.jsonl().lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
    }
}

/// The wall-clock phase profile stays out of every deterministic
/// export: two runs of the same seed have different wall-clock nanos
/// but identical export bytes (checked above); here we pin that no
/// export mentions the profile at all.
#[test]
fn wall_clock_profile_never_enters_the_exports() {
    let t = observed(PolicySpec::Dynamic, 0xACE, 30.0);
    assert!(!t.profile.is_empty(), "profiled run must record spans");
    for export in [t.prometheus(), t.csv(), t.jsonl()] {
        for phase in ["schedule", "dynloop", "finalize"] {
            assert!(
                !export.contains(&format!("{phase}_ns")),
                "export leaked wall-clock field {phase}_ns"
            );
        }
    }
}
