//! Flat-topology bit-identity goldens and rack-partition invariants.
//!
//! The cluster decomposition behind the `Topology` layer carries a
//! non-negotiable guarantee: the `flat` topology (one fabric domain
//! holding every node) reproduces the pre-refactor simulator bit for
//! bit. These tests pin that guarantee the same way the sim
//! decomposition was pinned — a behavior-snapshot digest per
//! (fault profile, policy), captured on the pre-topology tree and
//! compared forever after — and add property tests that the cluster
//! ledger, the per-rack indexes, and the remote/cross counters stay
//! consistent under random operation sequences on random rack
//! partitions, with the indexed placements matching their full-scan
//! reference twins exactly.

use dmhpc::core::cluster::{Cluster, MemoryMix, NodeId, TopologySpec};
use dmhpc::core::config::{RestartStrategy, SystemConfig};
use dmhpc::core::faults::FaultConfig;
use dmhpc::core::job::JobId;
use dmhpc::core::policy::{
    place_spread_with, plan_growth, plan_growth_reference, PlacementScratch, PolicySpec,
};
use dmhpc::core::sim::SimulationOutcome;
use dmhpc::experiments::scenario::{simulate, synthetic_system, synthetic_workload, BASE_SEED};
use dmhpc::experiments::Scale;
use proptest::prelude::*;

/// The fault-sweep seed (`exp::faults::FAULT_SEED`), restated so the
/// golden cannot drift if the experiment layer changes its default.
const FAULT_SEED: u64 = 0xFA57_5EED;

/// Behavior digests captured on the pre-topology tree (commit
/// `dd039c6`), one per (fault profile, policy spec) point of the
/// fault-sweep stress scenario. The flat topology must reproduce every
/// one of these forever; a mismatch means the refactor changed
/// simulated behavior, not just code layout.
const FLAT_DIGESTS: [(&str, &str, u64); 18] = [
    ("none", "baseline", 0xD2170CB29CE839DD),
    ("none", "static", 0xF32EA9DC71535F11),
    ("none", "dynamic", 0xA3103CB3CE0C490A),
    ("none", "predictive:history=on", 0xE26F958E836FFFA1),
    ("none", "overcommit:factor=0.8", 0x299E1D976584EED7),
    ("none", "conservative:quantum=4096", 0x70DE4EE39FC3194C),
    ("light", "baseline", 0x53231B34C2F27B22),
    ("light", "static", 0xEBE769A7F2651753),
    ("light", "dynamic", 0xB503555D90D636BA),
    ("light", "predictive:history=on", 0x15A0492285BBDDC1),
    ("light", "overcommit:factor=0.8", 0x622E824C7D1E5B7A),
    ("light", "conservative:quantum=4096", 0x30B1BD35D6B94903),
    ("heavy", "baseline", 0x71D11475FAF31A55),
    ("heavy", "static", 0x913B5110EE2ECF7C),
    ("heavy", "dynamic", 0x110CE46E1C55FCB7),
    ("heavy", "predictive:history=on", 0x815434621EB64A7A),
    ("heavy", "overcommit:factor=0.8", 0x74CA00DB2D2CA11D),
    ("heavy", "conservative:quantum=4096", 0x1B2FF338C18B6AD4),
];

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Digest of everything a simulation decides, over the field set that
/// existed before the topology layer (new additive fields must not move
/// a flat digest, so they are deliberately not hashed).
fn digest_outcome(out: &SimulationOutcome) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let s = &out.stats;
    for v in [
        s.total_jobs as u64,
        s.completed as u64,
        s.unschedulable as u64,
        s.failed_exceeded as u64,
        s.failed_restarts as u64,
        s.oom_kills as u64,
        s.jobs_oom_killed as u64,
        s.makespan_s.to_bits(),
        s.throughput_jps.to_bits(),
        s.avg_node_utilization.to_bits(),
        s.avg_mem_utilization.to_bits(),
        s.mean_slowdown.to_bits(),
        s.fault_node_crashes as u64,
        s.fault_pool_degrades as u64,
        s.fault_job_kills as u64,
        s.jobs_fault_killed as u64,
        s.fault_work_lost_s.to_bits(),
        s.fault_checkpoint_credit_s.to_bits(),
        s.monitor_samples_lost as u64,
        s.actuator_retries as u64,
        s.actuator_escalations as u64,
        s.avg_pool_availability.to_bits(),
        out.feasible as u64,
        out.response_times_s.len() as u64,
        out.wait_times_s.len() as u64,
    ] {
        fnv1a(&mut h, &v.to_le_bytes());
    }
    for t in &out.response_times_s {
        fnv1a(&mut h, &t.to_bits().to_le_bytes());
    }
    for t in &out.wait_times_s {
        fnv1a(&mut h, &t.to_bits().to_le_bytes());
    }
    h
}

/// The fault-sweep stress scenario: underprovisioned mix, 50% large
/// jobs, +60% overestimation, Checkpoint/Restart.
fn stress_system(profile: &str) -> SystemConfig {
    synthetic_system(Scale::Small, MemoryMix::new(64 * 1024, 128 * 1024, 0.25))
        .with_restart(RestartStrategy::CheckpointRestart)
        .with_faults(
            FaultConfig::profile(profile)
                .expect("built-in profile")
                .with_seed(FAULT_SEED),
        )
}

fn run_point(policy: PolicySpec, profile: &str, topology: TopologySpec) -> SimulationOutcome {
    let workload = synthetic_workload(Scale::Small, 0.5, 0.6, BASE_SEED ^ 0xFA);
    simulate(
        stress_system(profile).with_topology(topology),
        workload,
        policy,
        BASE_SEED ^ 0xFA17,
    )
}

/// The tentpole golden: every (profile, policy) point of the stress
/// scenario on the flat topology digests to its pre-refactor value —
/// both through the default config (no topology mentioned at all) and
/// through an explicit `flat` spec.
#[test]
fn flat_topology_is_bit_identical_to_pre_refactor() {
    for &(profile, spec, want) in &FLAT_DIGESTS {
        let policy: PolicySpec = spec.parse().expect("golden spec parses");
        let got = digest_outcome(&run_point(policy, profile, TopologySpec::Flat));
        assert_eq!(
            got, want,
            "flat digest moved for ({profile}, {spec}): got 0x{got:016X}, want 0x{want:016X}"
        );
    }
}

/// The golden table covers the whole policy registry and every fault
/// profile — a new policy or profile must be added to the snapshot.
#[test]
fn golden_table_covers_the_registries() {
    let policies: Vec<String> = PolicySpec::all_default()
        .iter()
        .map(|p| p.to_string())
        .collect();
    for profile in ["none", "light", "heavy"] {
        for p in &policies {
            assert!(
                FLAT_DIGESTS
                    .iter()
                    .any(|&(pr, sp, _)| pr == profile && sp == p),
                "golden table is missing ({profile}, {p})"
            );
        }
    }
    assert_eq!(FLAT_DIGESTS.len(), 3 * policies.len());
}

/// Thread count must not change simulated bits, on flat and racked
/// topologies alike: the fault sweep at 1 and 4 worker threads produces
/// identical rows.
#[test]
fn sweep_rows_are_thread_count_invariant() {
    use dmhpc::experiments::exp::faults::run_opts;
    let policies = [PolicySpec::Baseline, PolicySpec::Dynamic];
    let topologies = [
        TopologySpec::Flat,
        TopologySpec::Racks {
            size: 16,
            cross_cap: 1.0,
        },
    ];
    let a = run_opts(
        Scale::Small,
        1,
        FAULT_SEED,
        Some("light"),
        &policies,
        &topologies,
    )
    .unwrap();
    let b = run_opts(
        Scale::Small,
        4,
        FAULT_SEED,
        Some("light"),
        &policies,
        &topologies,
    )
    .unwrap();
    assert_eq!(a.rows.len(), b.rows.len());
    assert_eq!(a.rows.len(), policies.len() * topologies.len());
    for (x, y) in a.rows.iter().zip(&b.rows) {
        assert_eq!(x.topology, y.topology);
        assert_eq!(
            x.sample, y.sample,
            "{} {} {}",
            x.profile, x.policy, x.topology
        );
        assert_eq!(
            x.throughput_jps.to_bits(),
            y.throughput_jps.to_bits(),
            "{} {} {}",
            x.profile,
            x.policy,
            x.topology
        );
    }
}

/// A racked simulation never borrows across racks when `cross_cap` is
/// zero, and its cross-rack fraction is bounded by its remote fraction.
#[test]
fn cross_cap_zero_keeps_borrowing_inside_the_rack() {
    let capped = run_point(
        PolicySpec::Dynamic,
        "none",
        TopologySpec::Racks {
            size: 4,
            cross_cap: 0.0,
        },
    );
    assert_eq!(capped.stats.avg_cross_rack_fraction, 0.0);
    let open = run_point(
        PolicySpec::Dynamic,
        "none",
        TopologySpec::Racks {
            size: 4,
            cross_cap: 1.0,
        },
    );
    assert!(open.stats.avg_cross_rack_fraction <= open.stats.avg_remote_fraction + 1e-12);
    assert!(open.stats.avg_remote_fraction <= 1.0);
}

/// Decode one proptest op draw into a mutation on the cluster, keeping
/// the shadow bookkeeping (`placed`, `degraded`) in sync.
fn apply_op(
    cluster: &mut Cluster,
    placed: &mut Vec<JobId>,
    degraded: &mut [u64],
    next_id: &mut u32,
    nodes: u32,
    req: u64,
    action: u8,
) {
    match action {
        // Place a new job via the disaggregated spread policy.
        0 | 1 => {
            let mut scratch = PlacementScratch::new();
            if let Some(alloc) = place_spread_with(cluster, nodes, req, &mut scratch) {
                let id = JobId(*next_id);
                *next_id += 1;
                cluster.start_job(id, alloc, 3.0);
                placed.push(id);
            }
        }
        // Finish the oldest job.
        2 => {
            if !placed.is_empty() {
                let id = placed.remove(0);
                cluster.finish_job(id);
            }
        }
        // Shrink then regrow the newest job.
        3 => {
            if let Some(&id) = placed.last() {
                cluster.shrink_job(id, req / 2, 3.0);
                let alloc = cluster.alloc_of(id).unwrap().clone();
                let computes: Vec<NodeId> = alloc.entries.iter().map(|x| x.node).collect();
                for e in &alloc.entries {
                    if let Some((l, borrows)) = plan_growth(cluster, e.node, &computes, 128) {
                        cluster.grow_entry(id, e.node, l, &borrows, 3.0);
                    }
                }
            }
        }
        // Degrade part of one node's free memory (blade fault)...
        4 => {
            let id = NodeId(nodes % cluster.len() as u32);
            let mb = cluster.node(id).free_mb().min(req);
            if mb > 0 {
                cluster.apply_degrade(id, mb);
                degraded[id.0 as usize] += mb;
            }
        }
        // ...and restore a previously degraded slice.
        _ => {
            let id = NodeId(nodes % cluster.len() as u32);
            let mb = degraded[id.0 as usize];
            if mb > 0 {
                cluster.restore_degrade(id, mb);
                degraded[id.0 as usize] = 0;
            }
        }
    }
}

proptest! {
    /// `check_invariants` (ledger conservation, index consistency, the
    /// per-rack free indexes, and the remote/cross counters) holds
    /// after every operation of a random start/finish/grow/shrink/
    /// degrade sequence on a random rack partition, and draining
    /// returns every counter to zero.
    #[test]
    fn invariants_hold_on_random_rack_partitions(
        caps in prop::collection::vec(512u64..4096, 3..12),
        rack_size in 1u32..6,
        cross_idx in 0usize..4,
        ops in prop::collection::vec((1u32..4, 64u64..6000, 0u8..6), 1..60),
    ) {
        let cross_cap = [0.0, 0.25, 0.5, 1.0][cross_idx];
        let spec = TopologySpec::Racks { size: rack_size, cross_cap };
        let n = caps.len();
        let mut cluster = Cluster::new_with_topology(caps, 0.5, spec);
        prop_assert_eq!(cluster.topology().racks(), (n as u32).div_ceil(rack_size));
        let mut placed: Vec<JobId> = Vec::new();
        let mut degraded = vec![0u64; n];
        let mut next_id = 0u32;
        for (nodes, req, action) in ops {
            apply_op(
                &mut cluster, &mut placed, &mut degraded, &mut next_id, nodes, req, action,
            );
            prop_assert_eq!(cluster.check_invariants(), Ok(()));
            prop_assert!(cluster.total_cross_rack_mb() <= cluster.total_remote_mb());
            prop_assert!(cluster.total_remote_mb() <= cluster.total_allocated_mb());
            if cross_cap == 0.0 {
                prop_assert_eq!(cluster.total_cross_rack_mb(), 0);
            }
        }
        // Draining everything returns the ledger to zero.
        for id in placed {
            cluster.finish_job(id);
        }
        prop_assert_eq!(cluster.check_invariants(), Ok(()));
        prop_assert_eq!(cluster.total_allocated_mb(), 0);
        prop_assert_eq!(cluster.total_remote_mb(), 0);
        prop_assert_eq!(cluster.total_cross_rack_mb(), 0);
    }

    /// On racked clusters the index-backed placement and growth paths
    /// return exactly what their full-scan reference twins return, at
    /// every step of a random placement sequence.
    #[test]
    fn racked_indexed_paths_match_reference(
        caps in prop::collection::vec(512u64..4096, 3..12),
        rack_size in 1u32..6,
        cross_idx in 0usize..4,
        ops in prop::collection::vec((1u32..4, 64u64..6000, 0u8..4), 1..40),
        kind_idx in 0usize..3,
    ) {
        let cross_cap = [0.0, 0.25, 0.5, 1.0][cross_idx];
        let spec = TopologySpec::Racks { size: rack_size, cross_cap };
        let policy = [PolicySpec::Baseline, PolicySpec::Static, PolicySpec::Dynamic][kind_idx].build();
        let mut scratch = PlacementScratch::new();
        let mut cluster = Cluster::new_with_topology(caps, 0.5, spec);
        let mut placed: Vec<JobId> = Vec::new();
        let mut next_id = 0u32;
        for (nodes, req, action) in ops {
            let indexed = policy.place(&cluster, nodes, req, &mut scratch);
            let reference = policy.place_reference(&cluster, nodes, req);
            prop_assert_eq!(&indexed, &reference);
            match action {
                0 | 1 => {
                    if let Some(alloc) = indexed {
                        let id = JobId(next_id);
                        next_id += 1;
                        cluster.start_job(id, alloc, 3.0);
                        placed.push(id);
                    }
                }
                2 => {
                    if !placed.is_empty() {
                        let id = placed.remove(0);
                        cluster.finish_job(id);
                    }
                }
                _ => {
                    if let Some(&id) = placed.last() {
                        let alloc = cluster.alloc_of(id).unwrap().clone();
                        let computes: Vec<NodeId> =
                            alloc.entries.iter().map(|x| x.node).collect();
                        let home = alloc.entries[0].node;
                        let a = plan_growth(&cluster, home, &computes, req);
                        let b = plan_growth_reference(&cluster, home, &computes, req);
                        prop_assert_eq!(&a, &b);
                        if let Some((l, borrows)) = a {
                            cluster.grow_entry(id, home, l, &borrows, 3.0);
                        }
                    }
                }
            }
            prop_assert_eq!(cluster.check_invariants(), Ok(()));
        }
    }
}
