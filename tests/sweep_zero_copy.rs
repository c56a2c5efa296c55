//! Goldens for the zero-copy sweep pipeline.
//!
//! The sweep engine builds each workload once and shares it across
//! every `(memory, policy)` point through `Arc<Workload>` instead of
//! deep-copying jobs and usage traces per point. These tests prove the
//! sharing is outcome-invisible — an owned workload and a shared one
//! produce bit-identical `SimulationOutcome`s — and that the whole
//! sweep (including the HashMap phase-3 aggregation over multi-week
//! Grizzly legs) yields identical `SweepPoint` values and ordering at
//! threads 1 vs N.

use dmhpc::core::cluster::MemoryMix;
use dmhpc::core::policy::PolicySpec;
use dmhpc::core::sim::{SimBuilder, Workload};
use dmhpc::experiments::scenario::{simulate, synthetic_system, synthetic_workload};
use dmhpc::experiments::{Scale, ThroughputSweep, TraceSpec};
use std::sync::Arc;

fn stress_workload(seed: u64) -> Workload {
    synthetic_workload(Scale::Small, 0.5, 0.6, seed)
}

/// Same seed ⇒ the same outcome whether the simulation owns its
/// workload or shares one `Arc` with other runs — including runs under
/// other policies interleaved on the same shared workload.
#[test]
fn shared_workload_is_bit_identical_to_owned() {
    let sys = || synthetic_system(Scale::Small, MemoryMix::new(4096, 16384, 0.5));
    let shared = Arc::new(stress_workload(0x5EED));
    for policy in [
        PolicySpec::Baseline,
        PolicySpec::Static,
        PolicySpec::Dynamic,
        PolicySpec::Overcommit { factor: 0.8 },
    ] {
        // Owned: a freshly built workload moved into the simulation,
        // exactly what the pre-zero-copy pipeline handed each point.
        let owned = simulate(sys(), stress_workload(0x5EED), policy, 0xABCD);
        let via_arc = simulate(sys(), Arc::clone(&shared), policy, 0xABCD);
        assert_eq!(
            owned, via_arc,
            "{policy}: sharing the workload changed the outcome"
        );
        assert!(owned.stats.completed > 0, "{policy}: nothing simulated");
    }
    // The shared workload survives all runs untouched and unique refs
    // were never needed.
    assert_eq!(shared.len(), stress_workload(0x5EED).len());
}

/// The builder API accepts both owned and pre-shared workloads.
#[test]
fn constructors_accept_owned_and_shared() {
    let sys = synthetic_system(Scale::Small, MemoryMix::all_large());
    let w = Arc::new(stress_workload(7));
    let a = SimBuilder::new(sys.clone(), stress_workload(7))
        .policy(PolicySpec::Dynamic)
        .seed(3)
        .run();
    let b = SimBuilder::new(sys, Arc::clone(&w))
        .policy(PolicySpec::Dynamic)
        .seed(3)
        .run();
    assert_eq!(a, b);
}

/// Full-sweep golden: synthetic + multi-week Grizzly legs, threads 1 vs
/// 4, must agree in point values AND ordering bit for bit. This covers
/// the shared phase-1 workloads, the lock-free parallel runner, and the
/// HashMap aggregation in one pass.
#[test]
fn sweep_threads_one_vs_n_bit_identical() {
    let traces = [
        TraceSpec::Synthetic {
            large_fraction: 0.5,
        },
        TraceSpec::Grizzly,
    ];
    let policies = [PolicySpec::Baseline, PolicySpec::Dynamic];
    let one = ThroughputSweep::run_with_policies(Scale::Small, &traces, &[0.0], 1, &policies);
    let many = ThroughputSweep::run_with_policies(Scale::Small, &traces, &[0.0], 4, &policies);
    assert_eq!(one.points.len(), many.points.len());
    assert!(!one.points.is_empty());
    for (a, b) in one.points.iter().zip(&many.points) {
        assert_eq!(a, b, "sweep point diverged between thread counts");
        assert_eq!(
            a.throughput_jps.to_bits(),
            b.throughput_jps.to_bits(),
            "{} {} {}%: throughput bits diverged",
            a.trace,
            a.policy,
            a.mem_pct
        );
        assert_eq!(a.median_response_s.to_bits(), b.median_response_s.to_bits());
    }
    // Both traces actually contributed points, and the grizzly legs
    // (up to three weeks) folded into one point per cell: 8 memory
    // points × 2 policies per trace.
    for trace in ["large 50%", "grizzly"] {
        let n = one.points.iter().filter(|p| p.trace == trace).count();
        assert_eq!(n, 16, "{trace}: expected 8 mem × 2 policies");
    }
}
