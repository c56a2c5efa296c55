//! Flat-topology bit-identity goldens and rack-partition invariants.
//!
//! The cluster decomposition behind the `Topology` layer carries a
//! non-negotiable guarantee: the `flat` topology (one fabric domain
//! holding every node) reproduces the pre-refactor simulator bit for
//! bit. These tests pin that guarantee the same way the sim
//! decomposition was pinned — a behavior-snapshot digest per
//! (fault profile, policy), captured on the pre-topology tree and
//! compared forever after. The racked walk where the cross cap binds,
//! and two points at the paper's 1,024 nodes (every plan checked
//! against the oracle in a debug build), are pinned the same way.
//! Property tests check that the cluster
//! ledger, the per-rack indexes, and the remote/cross counters stay
//! consistent under random operation sequences on random rack
//! partitions, with the indexed placements matching their full-scan
//! reference twins exactly.

mod common;

use dmhpc::core::cluster::{Cluster, MemoryMix, NodeId, TopologySpec};
use dmhpc::core::config::{RestartStrategy, SystemConfig};
use dmhpc::core::faults::FaultConfig;
use dmhpc::core::job::JobId;
use dmhpc::core::oracle;
use dmhpc::core::policy::{place_spread_with, plan_growth, PlacementScratch, PolicySpec};
use dmhpc::core::sim::SimulationOutcome;
use dmhpc::experiments::scenario::{simulate, synthetic_system, synthetic_workload, BASE_SEED};
use dmhpc::experiments::Scale;
use dmhpc::traces::{CirneModel, WorkloadBuilder};
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

/// Behavior digests of the same 18 points on 16-node racks with
/// `cross_cap=0.5`, captured at commit `df14d4d` (the last tree whose
/// flat and racked fabrics took separate lender walks). Half of each
/// plan's remote need may cross racks, so the cap binds: these pin the
/// locality-aware walk where it differs from the flat one.
const RACKED_DIGESTS: [(&str, &str, u64); 18] = [
    ("none", "baseline", 0xD2170CB29CE839DD),
    ("none", "static", 0x2D3FB13679710355),
    ("none", "dynamic", 0xC0689C7CAA6398F3),
    ("none", "predictive:history=on", 0x70FD93468743BC4C),
    ("none", "overcommit:factor=0.8", 0xC0A48A31760645DA),
    ("none", "conservative:quantum=4096", 0xB4311CFDFA2BE967),
    ("light", "baseline", 0x53231B34C2F27B22),
    ("light", "static", 0xF2892D0E23894A8B),
    ("light", "dynamic", 0x26F33E39EB686E8F),
    ("light", "predictive:history=on", 0x530582FA9C57F302),
    ("light", "overcommit:factor=0.8", 0xBBDD2CD69F606D88),
    ("light", "conservative:quantum=4096", 0xF1B278F5C7408D2D),
    ("heavy", "baseline", 0x71D11475FAF31A55),
    ("heavy", "static", 0xEA4DDE650EEFC2BB),
    ("heavy", "dynamic", 0x6F6BDB054716C0AA),
    ("heavy", "predictive:history=on", 0x99A9872839023B8F),
    ("heavy", "overcommit:factor=0.8", 0xF23CEF712EB4193E),
    ("heavy", "conservative:quantum=4096", 0x77D36A906267F1C8),
];

/// Digest of everything a simulation decides, over the field set that
/// existed before the topology layer (new additive fields must not move
/// a flat digest, so they are deliberately not hashed).
fn digest_outcome(out: &SimulationOutcome) -> u64 {
    let s = &out.stats;
    let words = [
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
    ];
    let times = out.response_times_s.iter().chain(&out.wait_times_s);
    let words = words.into_iter().chain(times.map(|t| t.to_bits()));
    common::fnv1a(words.flat_map(u64::to_le_bytes))
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

/// Every point of the stress scenario on `racks:size=16,cross_cap=0.5`
/// digests to its [`RACKED_DIGESTS`] value.
#[test]
fn racked_topology_with_a_binding_cross_cap_is_pinned() {
    let racks = TopologySpec::Racks {
        size: 16,
        cross_cap: 0.5,
    };
    for &(profile, spec, want) in &RACKED_DIGESTS {
        let policy: PolicySpec = spec.parse().expect("golden spec parses");
        let got = digest_outcome(&run_point(policy, profile, racks));
        assert_eq!(
            got, want,
            "racked digest moved for ({profile}, {spec}): got 0x{got:016X}, want 0x{want:016X}"
        );
    }
}

/// Jobs of each paper-scale point: enough for a backlog at 1,024 nodes,
/// few enough that a test-profile build (every placement, growth plan
/// and dynloop update checked against `core::oracle`) runs each point
/// in about ten seconds.
const PAPER_SCALE_JOBS: usize = 500;

/// One dynamic-policy point at the paper's 1,024 nodes: 50% large jobs,
/// +60% overestimation, Checkpoint/Restart.
fn paper_scale_point(mix: MemoryMix, profile: &str, topology: TopologySpec) -> u64 {
    let scale = Scale::Full;
    let cirne = CirneModel {
        max_nodes: scale.max_job_nodes(),
        ..CirneModel::default()
    };
    let workload = WorkloadBuilder::new(BASE_SEED ^ 0xFA)
        .jobs(PAPER_SCALE_JOBS)
        .large_job_fraction(0.5)
        .overestimation(0.6)
        .google_pool(scale.google_pool())
        .cirne(cirne)
        .build_for(&synthetic_system(scale, MemoryMix::all_large()));
    let system = synthetic_system(scale, mix)
        .with_restart(RestartStrategy::CheckpointRestart)
        .with_faults(
            FaultConfig::profile(profile)
                .expect("built-in profile")
                .with_seed(FAULT_SEED),
        )
        .with_topology(topology);
    digest_outcome(&simulate(
        system,
        workload,
        PolicySpec::Dynamic,
        BASE_SEED ^ 0xFA17,
    ))
}

/// The tight end of the memory axis (37%) on the flat fabric, at the
/// paper's scale; digest from the release build at `df14d4d`.
#[test]
fn paper_scale_tight_memory_point_is_pinned() {
    let tight = MemoryMix::paper_axis()[0].1;
    let got = paper_scale_point(tight, "none", TopologySpec::Flat);
    assert_eq!(got, 0x944A_CC6E_CD6B_1926, "got 0x{got:016X}");
}

/// Heavy faults on 32-node racks whose plans may take half their remote
/// need across racks, at the paper's scale; digest from the release
/// build at `df14d4d`.
#[test]
fn paper_scale_heavy_fault_racked_point_is_pinned() {
    let mid = MemoryMix::new(64 * 1024, 128 * 1024, 0.25);
    let racks = TopologySpec::Racks {
        size: 32,
        cross_cap: 0.5,
    };
    let got = paper_scale_point(mid, "heavy", racks);
    assert_eq!(got, 0xF153_E238_BCF3_11E9, "got 0x{got:016X}");
}

/// The golden table covers the whole policy registry and every fault
/// profile — a new policy or profile must be added to the snapshot.
#[test]
fn golden_table_covers_the_registries() {
    let policies: Vec<String> = PolicySpec::all_default()
        .iter()
        .map(|p| p.to_string())
        .collect();
    for table in [&FLAT_DIGESTS, &RACKED_DIGESTS] {
        for profile in ["none", "light", "heavy"] {
            for p in &policies {
                assert!(
                    table.iter().any(|&(pr, sp, _)| pr == profile && sp == p),
                    "golden table is missing ({profile}, {p})"
                );
            }
        }
        assert_eq!(table.len(), 3 * policies.len());
    }
}

/// Thread count must not change simulated bits, on flat and racked
/// topologies alike: the fault sweep at 1 and 4 worker threads produces
/// identical rows.
#[test]
fn sweep_rows_are_thread_count_invariant() {
    use dmhpc::experiments::durable::DurableOptions;
    use dmhpc::experiments::exp::faults;
    let policies = [PolicySpec::Baseline, PolicySpec::Dynamic];
    let topologies = [
        TopologySpec::Flat,
        TopologySpec::Racks {
            size: 16,
            cross_cap: 1.0,
        },
    ];
    let run = |threads| {
        let opts = DurableOptions::default();
        faults::run(
            Scale::Small,
            threads,
            FAULT_SEED,
            Some("light"),
            &policies,
            &topologies,
            &opts,
            None,
        )
        .unwrap()
    };
    let (a, b) = (run(1), run(4));
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

    /// Placement failure is monotone in `(nodes, mem)` at a fixed
    /// cluster state, for every placing policy on flat and racked
    /// fabrics: if `place(n, m)` fails, so does every `place(n', m')`
    /// with `n' ≥ n` and `m' ≥ m`. The scheduler's dominance pruning
    /// and its admission-first backfill test both rely on this.
    #[test]
    fn placement_failure_is_monotone_in_nodes_and_memory(
        caps in prop::collection::vec(512u64..4096, 3..12),
        rack_size in 0u32..6,
        cross_idx in 0usize..4,
        ops in prop::collection::vec((1u32..4, 64u64..6000, 0u8..6), 0..40),
        probes in prop::collection::vec((1u32..5, 64u64..8000, 0u32..3, 0u64..3000), 1..8),
    ) {
        let cross_cap = [0.0, 0.25, 0.5, 1.0][cross_idx];
        let spec = if rack_size == 0 {
            TopologySpec::Flat
        } else {
            TopologySpec::Racks { size: rack_size, cross_cap }
        };
        let n = caps.len();
        let mut cluster = Cluster::new_with_topology(caps, 0.5, spec);
        let mut placed: Vec<JobId> = Vec::new();
        let mut degraded = vec![0u64; n];
        let mut next_id = 0u32;
        for (nodes, req, action) in ops {
            apply_op(
                &mut cluster, &mut placed, &mut degraded, &mut next_id, nodes, req, action,
            );
        }
        let mut scratch = PlacementScratch::new();
        for kind in PolicySpec::all_default() {
            let policy = kind.build();
            for &(nodes, mem, dn, dm) in &probes {
                if policy.place(&cluster, nodes, mem, &mut scratch).is_some() {
                    continue;
                }
                for (n2, m2) in [(nodes + dn, mem), (nodes, mem + dm), (nodes + dn, mem + dm)] {
                    prop_assert!(
                        policy.place(&cluster, n2, m2, &mut scratch).is_none(),
                        "{}: ({}, {}) fails but ({}, {}) places",
                        kind.label(), nodes, mem, n2, m2
                    );
                }
            }
        }
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
        let kind = [PolicySpec::Baseline, PolicySpec::Static, PolicySpec::Dynamic][kind_idx];
        let policy = kind.build();
        let mut scratch = PlacementScratch::new();
        let mut cluster = Cluster::new_with_topology(caps, 0.5, spec);
        let mut placed: Vec<JobId> = Vec::new();
        let mut next_id = 0u32;
        for (nodes, req, action) in ops {
            let indexed = policy.place(&cluster, nodes, req, &mut scratch);
            let reference = if kind == PolicySpec::Baseline {
                oracle::place_exclusive_reference(&cluster, nodes, req)
            } else {
                oracle::place_spread_reference(&cluster, nodes, req)
            };
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
                        let b = oracle::plan_growth_reference(&cluster, home, &computes, req);
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
