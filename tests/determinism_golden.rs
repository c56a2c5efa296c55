//! Golden determinism tests for the indexed scheduling hot path.
//!
//! The cluster keeps incremental free-memory indexes and the scheduler
//! runs on reusable scratch buffers; the original full-scan
//! implementations are retained as `*_reference`. These tests prove the
//! two produce **bit-identical** `SimulationOutcome`s on realistic
//! workloads, and that a fixed seed reproduces a run exactly — the
//! acceptance bar for every optimisation in this module.

use dmhpc::core::cluster::{Cluster, MemoryMix};
use dmhpc::core::job::JobId;
use dmhpc::core::policy::{plan_growth, plan_growth_reference, PlacementScratch, PolicySpec};
use dmhpc::core::sim::{SimBuilder, SimulationOutcome};
use dmhpc::experiments::scenario::{synthetic_system, synthetic_workload};
use dmhpc::experiments::Scale;
use proptest::prelude::*;

/// The paper's three schemes (§3.5).
const PAPER_POLICIES: [PolicySpec; 3] = [
    PolicySpec::Baseline,
    PolicySpec::Static,
    PolicySpec::Dynamic,
];

fn run_synthetic(policy: PolicySpec, seed: u64, reference: bool) -> SimulationOutcome {
    let mix = MemoryMix::new(4096, 16384, 0.5);
    let cfg = synthetic_system(Scale::Small, mix);
    let workload = synthetic_workload(Scale::Small, 0.5, 1.2, seed);
    SimBuilder::new(cfg, workload)
        .policy(policy)
        .seed(seed)
        .reference_scheduler(reference)
        .run()
}

/// Same seed, same configuration → the same outcome, field for field.
#[test]
fn seeded_run_is_reproducible() {
    for policy in PAPER_POLICIES {
        let a = run_synthetic(policy, 0xD15A_66E6, false);
        let b = run_synthetic(policy, 0xD15A_66E6, false);
        assert_eq!(a, b, "{policy:?}: same seed must reproduce the run exactly");
        assert!(
            a.stats.completed > 0,
            "{policy:?}: workload must exercise the scheduler"
        );
    }
}

/// The incremental indexes and scratch-buffer hot path must be
/// outcome-invisible: a full run under the indexed scheduler equals a
/// full run under the retained reference scans, bit for bit.
#[test]
fn indexed_and_reference_schedulers_agree() {
    for policy in PAPER_POLICIES {
        let indexed = run_synthetic(policy, 0xBEEF, false);
        let reference = run_synthetic(policy, 0xBEEF, true);
        assert_eq!(
            indexed, reference,
            "{policy:?}: indexed scheduler diverged from the reference scans"
        );
    }
}

/// Fault injection with every rate at zero is invisible: the outcome is
/// bit-identical to a run that never mentions faults, regardless of the
/// fault seed (no schedule is generated and no fault RNG is drawn).
#[test]
fn faults_off_is_identity() {
    use dmhpc::core::faults::FaultConfig;
    let mix = MemoryMix::new(4096, 16384, 0.5);
    let workload = || synthetic_workload(Scale::Small, 0.5, 1.2, 0xFADE);
    for policy in PAPER_POLICIES {
        let plain = SimBuilder::new(synthetic_system(Scale::Small, mix), workload())
            .policy(policy)
            .seed(0xFADE)
            .run();
        let zero_rates = SimBuilder::new(
            synthetic_system(Scale::Small, mix)
                .with_faults(FaultConfig::none().with_seed(0xDEAD_BEEF)),
            workload(),
        )
        .policy(policy)
        .seed(0xFADE)
        .run();
        assert_eq!(
            plain, zero_rates,
            "{policy:?}: zero-rate fault config must be bit-identical"
        );
    }
}

/// Structured tracing is deterministic and inert: the JSONL stream of a
/// faulted dynamic run reproduces byte for byte under the same seed,
/// differs under another seed, and attaching any sink (including the
/// default NullSink) leaves the `SimulationOutcome` bit-identical to a
/// run that never mentions tracing.
#[test]
fn trace_stream_is_deterministic_and_inert() {
    use dmhpc::core::faults::FaultConfig;
    use dmhpc::core::trace::{validate_stream, JsonlSink, NullSink, RingSink, TraceSink};
    let mix = MemoryMix::new(4096, 16384, 0.5);
    let system = || {
        synthetic_system(Scale::Small, mix)
            .with_faults(FaultConfig::profile("heavy").unwrap().with_seed(7))
    };
    let workload = || synthetic_workload(Scale::Small, 0.5, 1.2, 0xACE);
    let traced = |seed: u64| {
        let (sink, buf) = JsonlSink::buffered();
        let out = SimBuilder::new(system(), workload())
            .policy(PolicySpec::Dynamic)
            .seed(seed)
            .trace_sink(Box::new(sink))
            .run();
        (out, buf.contents())
    };
    let (out_a, stream_a) = traced(0xACE);
    let (out_b, stream_b) = traced(0xACE);
    assert_eq!(
        stream_a, stream_b,
        "same seed must reproduce the stream byte for byte"
    );
    let n = validate_stream(stream_a.lines()).expect("stream validates");
    assert!(n > 0, "a faulted dynamic run must emit events");
    let (_, stream_c) = traced(0xACF);
    assert_ne!(stream_a, stream_c, "a different sim seed must diverge");
    // Sinks are outcome-inert: untraced, NullSink, and RingSink runs
    // all produce the identical SimulationOutcome.
    let plain = SimBuilder::new(system(), workload())
        .policy(PolicySpec::Dynamic)
        .seed(0xACE)
        .run();
    assert_eq!(plain, out_a, "JsonlSink must not perturb the run");
    assert_eq!(plain, out_b);
    for sink in [
        Box::new(NullSink) as Box<dyn TraceSink>,
        Box::new(RingSink::new(64)),
    ] {
        let out = SimBuilder::new(system(), workload())
            .policy(PolicySpec::Dynamic)
            .seed(0xACE)
            .trace_sink(sink)
            .run();
        assert_eq!(plain, out, "sinks must be outcome-inert");
    }
}

/// Drive a cluster into a random occupied state by replaying a sequence
/// of placements/releases, mirroring `tests/property_invariants.rs`.
fn occupy(cluster: &mut Cluster, ops: &[(u32, u64, u8)], policy: PolicySpec) {
    let policy = policy.build();
    let mut placed: Vec<JobId> = Vec::new();
    let mut next_id = 0u32;
    for &(nodes, req, action) in ops {
        if action == 0 && !placed.is_empty() {
            let id = placed.remove(0);
            cluster.finish_job(id);
        } else if let Some(alloc) = policy.place_reference(cluster, nodes, req) {
            let id = JobId(next_id);
            next_id += 1;
            cluster.start_job(id, alloc, 3.0);
            placed.push(id);
        }
    }
}

proptest! {
    /// On arbitrary cluster states, indexed placement returns exactly
    /// the allocation the reference scan would have chosen (including
    /// `None`s), for every policy.
    #[test]
    fn try_place_matches_reference(
        caps in prop::collection::vec(512u64..8192, 4..16),
        ops in prop::collection::vec((1u32..4, 64u64..6000, 0u8..4), 0..40),
        nodes in 1u32..6,
        req in 1u64..10_000,
        policy_idx in 0usize..3,
    ) {
        let spec = PAPER_POLICIES[policy_idx];
        let mut cluster = Cluster::new(caps, 0.5);
        occupy(&mut cluster, &ops, spec);
        prop_assert_eq!(cluster.check_invariants(), Ok(()));
        let policy = spec.build();
        let mut scratch = PlacementScratch::new();
        let indexed = policy.place(&cluster, nodes, req, &mut scratch);
        let reference = policy.place_reference(&cluster, nodes, req);
        prop_assert_eq!(indexed, reference);
    }

    /// Growth planning streams the lender index in the same order the
    /// reference sort produced, so the borrow plans are identical.
    #[test]
    fn plan_growth_matches_reference(
        caps in prop::collection::vec(512u64..8192, 4..16),
        ops in prop::collection::vec((1u32..4, 64u64..6000, 0u8..4), 0..40),
        need in 1u64..8_000,
    ) {
        let mut cluster = Cluster::new(caps, 0.5);
        occupy(&mut cluster, &ops, PolicySpec::Dynamic);
        // Grow on behalf of the busiest surviving allocation, if any.
        let Some(id) = (0..40).map(JobId).find(|&j| cluster.alloc_of(j).is_some()) else {
            return Ok(());
        };
        let alloc = cluster.alloc_of(id).unwrap().clone();
        let computes: Vec<_> = alloc.entries.iter().map(|e| e.node).collect();
        for e in &alloc.entries {
            let indexed = plan_growth(&cluster, e.node, &computes, need);
            let reference = plan_growth_reference(&cluster, e.node, &computes, need);
            prop_assert_eq!(indexed, reference);
        }
    }
}
