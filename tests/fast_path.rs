//! Goldens for the dynloop hold fast path and the SimBuilder API.
//!
//! The dynamic-memory update loop keeps three caches per job — the last
//! sampled demand, the cluster's per-job allocation version, and the
//! flat trace segment the monitoring horizon last landed in — and skips
//! the Decider/Actuator entirely when nothing changed (the policies are
//! deterministic functions of those inputs, so an unchanged input set
//! must reproduce the previous hold). `SimBuilder::reference_dynloop`
//! keeps the original resample-and-decide-every-update twin; these tests
//! prove the two **bit-identical** across every policy spec, fault
//! profile, and topology, and that every allocation mutation bumps the
//! version the fast path keys on.

use dmhpc::core::cluster::{Cluster, MemoryMix, TopologySpec};
use dmhpc::core::faults::FaultConfig;
use dmhpc::core::job::JobId;
use dmhpc::core::policy::{place_spread_reference, PolicySpec};
use dmhpc::core::sim::{SimBuilder, SimulationOutcome};
use dmhpc::experiments::scenario::{synthetic_system, synthetic_workload};
use dmhpc::experiments::Scale;
use proptest::prelude::*;

fn run_stress(
    policy: PolicySpec,
    fault_profile: &str,
    topology: TopologySpec,
    reference_dynloop: bool,
) -> SimulationOutcome {
    let seed = 0xFA57_0001;
    let cfg = synthetic_system(Scale::Small, MemoryMix::new(4096, 16384, 0.5))
        .with_faults(FaultConfig::profile(fault_profile).unwrap().with_seed(11))
        .with_topology(topology);
    // Underprovisioned mix + overestimated requests: plenty of grow,
    // shrink, OOM and (under faults) revoke traffic, so both the hold
    // and the actuate arms of the loop run.
    let workload = synthetic_workload(Scale::Small, 0.5, 1.2, seed);
    SimBuilder::new(cfg, workload)
        .policy(policy)
        .seed(seed)
        .reference_dynloop(reference_dynloop)
        .build()
        .run()
}

/// The tentpole golden: the hold fast path is outcome-invisible for
/// every registered policy spec × fault profile × topology. A run on
/// the fast path equals a run on the always-decide reference twin, bit
/// for bit.
#[test]
fn fast_path_matches_reference_dynloop() {
    let racked = "racks:size=8".parse::<TopologySpec>().unwrap();
    for policy in PolicySpec::all_default() {
        for fault_profile in ["none", "light", "heavy"] {
            for topology in [TopologySpec::Flat, racked] {
                let fast = run_stress(policy, fault_profile, topology, false);
                let reference = run_stress(policy, fault_profile, topology, true);
                assert_eq!(
                    fast, reference,
                    "{policy}/{fault_profile}/{topology}: fast path diverged from the reference twin"
                );
            }
        }
    }
}

/// Installing a built policy through `policy_impl` runs exactly the
/// policy the spec-level `policy` entry point selects.
#[test]
fn policy_impl_matches_policy_spec() {
    let run = |builder: SimBuilder| builder.seed(0xB11D).run();
    let builder = || {
        SimBuilder::new(
            synthetic_system(Scale::Small, MemoryMix::new(4096, 16384, 0.5)),
            synthetic_workload(Scale::Small, 0.5, 1.2, 0xB11D),
        )
    };
    let spec = "overcommit:factor=0.8".parse::<PolicySpec>().unwrap();
    assert_eq!(
        run(builder().policy_impl(spec.build())),
        run(builder().policy(spec))
    );
}

proptest! {
    /// Every allocation mutation the simulator can issue — start, grow,
    /// shrink, lender revocation — strictly bumps the mutated job's
    /// alloc version, leaves every other job's version untouched, and
    /// finishing a job retires its version to 0. This is the invariant
    /// the hold fast path keys on: an unchanged version proves the
    /// allocation is the one the cached decision was computed for.
    #[test]
    fn alloc_mutations_bump_the_version(
        caps in prop::collection::vec(2048u64..8192, 4..12),
        ops in prop::collection::vec((1u32..4, 64u64..6000, 0u8..4), 1..40),
        shrink_to in 1u64..4096,
        grow_mb in 1u64..512,
    ) {
        let mut cluster = Cluster::new(caps, 0.5);
        // Placement bumps: every started job gets a fresh non-zero
        // version; finish retires it.
        let mut placed: Vec<JobId> = Vec::new();
        let mut next_id = 0u32;
        let mut versions: Vec<(JobId, u64)> = Vec::new();
        for &(nodes, req, action) in &ops {
            if action == 0 && !placed.is_empty() {
                let id = placed.remove(0);
                cluster.finish_job(id);
                prop_assert!(cluster.alloc_version(id) == 0, "finish must retire {}", id);
                versions.retain(|&(j, _)| j != id);
            } else if let Some(alloc) = place_spread_reference(&cluster, nodes, req) {
                let id = JobId(next_id);
                next_id += 1;
                let before = cluster.alloc_version(id);
                prop_assert!(before == 0, "fresh job must start unversioned");
                cluster.start_job(id, alloc, 3.0);
                prop_assert!(cluster.alloc_version(id) > 0, "start must bump {}", id);
                versions.push((id, cluster.alloc_version(id)));
                placed.push(id);
            }
        }
        let Some(&victim) = placed.first() else { return Ok(()) };

        let check_bump = |cluster: &Cluster, versions: &mut Vec<(JobId, u64)>, what: &str| {
            for (j, v) in versions.iter_mut() {
                let now = cluster.alloc_version(*j);
                if *j == victim {
                    assert!(now > *v, "{what} must bump {j}'s version ({now} <= {v})");
                } else {
                    assert_eq!(now, *v, "{what} must not touch {j}'s version");
                }
                *v = now;
            }
        };

        // Shrink (unconditionally re-versions, even when nothing is
        // released — the ledger pass itself is the mutation).
        cluster.shrink_job(victim, shrink_to, 3.0);
        check_bump(&cluster, &mut versions, "shrink_job");

        // Grow, when a node has local headroom.
        let alloc = cluster.alloc_of(victim).unwrap().clone();
        if let Some(e) = alloc
            .entries
            .iter()
            .find(|e| cluster.node(e.node).free_mb() >= grow_mb)
        {
            cluster.grow_entry(victim, e.node, grow_mb, &[], 3.0);
            check_bump(&cluster, &mut versions, "grow_entry");
        }

        // Revoke bumps even when the job borrows nothing from the lender
        // (the allocation was still reopened and rewritten).
        let lender = (0..cluster.len() as u32)
            .map(dmhpc::core::cluster::NodeId)
            .find(|&n| cluster.node(n).running != Some(victim))
            .unwrap();
        cluster.revoke_lender(victim, lender, 3.0);
        check_bump(&cluster, &mut versions, "revoke_lender");

        prop_assert_eq!(cluster.check_invariants(), Ok(()));
    }
}
