use super::*;
use crate::job::JobId;

fn cluster4() -> Cluster {
    // 4 nodes of 1000 MB, lend cap 50%.
    Cluster::new(vec![1000; 4], 0.5)
}

fn local_alloc(nodes: &[u32], mb: u64) -> JobAlloc {
    JobAlloc {
        entries: nodes
            .iter()
            .map(|&n| AllocEntry {
                node: NodeId(n),
                local_mb: mb,
                remote: vec![],
            })
            .collect(),
    }
}

#[test]
fn memory_mix_axis_fractions() {
    for (pct, mix) in MemoryMix::paper_axis() {
        let total = mix.total_memory_mb(1024) as f64;
        let frac = total / (1024 * MemoryMix::FULL_NODE_MB) as f64 * 100.0;
        // Label is the floor-ish value used in the paper.
        assert!(
            (frac - pct as f64).abs() < 1.0,
            "axis point {pct}: got {frac:.2}"
        );
    }
}

#[test]
fn memory_mix_large_nodes_spread() {
    let mix = MemoryMix::new(64, 128, 0.25);
    let caps = mix.capacities(8);
    assert_eq!(caps.iter().filter(|&&c| c == 128).count(), 2);
    // Evenly spread: one large in each half.
    assert!(caps[..4].contains(&128) && caps[4..].contains(&128));
}

#[test]
fn memory_mix_extremes() {
    let all = MemoryMix::all_large();
    assert_eq!(all.large_nodes(10), 10);
    let none = MemoryMix::new(64, 128, 0.0);
    assert_eq!(none.large_nodes(10), 0);
}

#[test]
fn start_and_finish_job_roundtrip() {
    let mut c = cluster4();
    c.start_job(JobId(1), local_alloc(&[0, 1], 600), 5.0);
    assert_eq!(c.idle_count(), 2);
    assert_eq!(c.node(NodeId(0)).local_alloc_mb, 600);
    assert_eq!(c.total_allocated_mb(), 1200);
    let alloc = c.finish_job(JobId(1));
    assert_eq!(alloc.total_mb(), 1200);
    assert_eq!(c.idle_count(), 4);
    assert_eq!(c.total_allocated_mb(), 0);
    assert_eq!(c.check_invariants(), Ok(()));
}

#[test]
fn borrow_accounting() {
    let mut c = cluster4();
    let alloc = JobAlloc {
        entries: vec![AllocEntry {
            node: NodeId(0),
            local_mb: 1000,
            remote: vec![(NodeId(1), 400), (NodeId(2), 100)],
        }],
    };
    c.start_job(JobId(7), alloc, 8.0);
    assert_eq!(c.node(NodeId(1)).lent_mb, 400);
    assert_eq!(c.node(NodeId(2)).lent_mb, 100);
    assert_eq!(c.node(NodeId(1)).free_mb(), 600);
    assert_eq!(c.borrowers_of(NodeId(1)), &[JobId(7)]);
    // Demand split by slice share: total 1500, node1 carries 400.
    let d1 = c.node(NodeId(1)).remote_demand_gbs;
    assert!((d1 - 8.0 * 400.0 / 1500.0).abs() < 1e-9);
    assert!(c.hottest_lender_demand_gbs(JobId(7)) >= d1);
    c.finish_job(JobId(7));
    assert_eq!(c.node(NodeId(1)).lent_mb, 0);
    assert!(c.node(NodeId(1)).remote_demand_gbs.abs() < 1e-9);
    assert!(c.borrowers_of(NodeId(1)).is_empty());
}

#[test]
fn schedulable_respects_lend_cap() {
    let mut c = cluster4();
    // Job on node 0 borrowing 600 from node 1 (> 50% of 1000).
    let alloc = JobAlloc {
        entries: vec![AllocEntry {
            node: NodeId(0),
            local_mb: 1000,
            remote: vec![(NodeId(1), 600)],
        }],
    };
    c.start_job(JobId(1), alloc, 1.0);
    assert!(!c.schedulable(NodeId(1)), "memory node must not schedule");
    assert!(c.schedulable(NodeId(2)));
    assert!(!c.schedulable(NodeId(0)), "busy node must not schedule");
}

#[test]
fn shrink_releases_remote_first() {
    let mut c = cluster4();
    let alloc = JobAlloc {
        entries: vec![AllocEntry {
            node: NodeId(0),
            local_mb: 500,
            remote: vec![(NodeId(1), 300)],
        }],
    };
    c.start_job(JobId(1), alloc, 4.0);
    // Shrink 800 -> 600: only remote shrinks (300 -> 100).
    let released = c.shrink_job(JobId(1), 600, 4.0);
    assert_eq!(released, 200);
    let a = c.alloc_of(JobId(1)).unwrap();
    assert_eq!(a.entries[0].local_mb, 500);
    assert_eq!(a.entries[0].remote, vec![(NodeId(1), 100)]);
    assert_eq!(c.node(NodeId(1)).lent_mb, 100);
    // Shrink to 200: remote gone, local 500 -> 200.
    let released = c.shrink_job(JobId(1), 200, 4.0);
    assert_eq!(released, 400);
    let a = c.alloc_of(JobId(1)).unwrap();
    assert_eq!(a.entries[0].local_mb, 200);
    assert!(a.entries[0].remote.is_empty());
    assert!(c.borrowers_of(NodeId(1)).is_empty());
    assert_eq!(c.check_invariants(), Ok(()));
}

#[test]
fn shrink_below_target_is_noop() {
    let mut c = cluster4();
    c.start_job(JobId(1), local_alloc(&[0], 300), 1.0);
    assert_eq!(c.shrink_job(JobId(1), 500, 1.0), 0);
    assert_eq!(c.alloc_of(JobId(1)).unwrap().total_mb(), 300);
}

#[test]
fn grow_local_and_remote() {
    let mut c = cluster4();
    c.start_job(JobId(1), local_alloc(&[0], 300), 6.0);
    c.grow_entry(JobId(1), NodeId(0), 700, &[(NodeId(3), 250)], 6.0);
    let a = c.alloc_of(JobId(1)).unwrap();
    assert_eq!(a.entries[0].local_mb, 1000);
    assert_eq!(a.entries[0].remote, vec![(NodeId(3), 250)]);
    assert_eq!(c.node(NodeId(0)).free_mb(), 0);
    assert_eq!(c.node(NodeId(3)).lent_mb, 250);
    assert_eq!(c.borrowers_of(NodeId(3)), &[JobId(1)]);
    // Growing again merges into the same lender slot.
    c.grow_entry(JobId(1), NodeId(0), 0, &[(NodeId(3), 50)], 6.0);
    let a = c.alloc_of(JobId(1)).unwrap();
    assert_eq!(a.entries[0].remote, vec![(NodeId(3), 300)]);
    assert_eq!(c.borrowers_of(NodeId(3)), &[JobId(1)]);
}

/// Every rack's lender index, merged into one `(free desc, id asc)`
/// list: the whole lender pool.
fn lender_pool_desc(c: &Cluster) -> Vec<(u64, NodeId)> {
    let mut all: Vec<_> = c.rack_lenders.iter().flat_map(FreeIndex::desc).collect();
    all.sort_by_key(|&(f, id)| (std::cmp::Reverse(f), id));
    all
}

/// Every index iterator against a sorted rebuild from the node table,
/// plus the full invariant audit.
fn assert_indexes_match_rebuild(c: &Cluster) {
    let desc = |keep: &dyn Fn(NodeId, &Node) -> bool| {
        let mut v: Vec<(u64, NodeId)> = c
            .iter()
            .filter(|&(id, n)| keep(id, n))
            .map(|(id, n)| (n.free_mb(), id))
            .collect();
        v.sort_by_key(|&(f, id)| (std::cmp::Reverse(f), id));
        v
    };
    let sched = desc(&|id, _| c.schedulable(id));
    let mut sched_asc = sched.clone();
    sched_asc.sort();
    assert_eq!(c.schedulable_by_free_asc(0).collect::<Vec<_>>(), sched_asc);
    assert_eq!(c.schedulable_by_free_desc().collect::<Vec<_>>(), sched);
    // One lender index per rack, flat clusters included.
    assert_eq!(c.rack_lenders.len(), c.topology().racks() as usize);
    for (rack, index) in (0..).zip(&c.rack_lenders) {
        assert_eq!(
            index.desc().collect::<Vec<_>>(),
            desc(&|id, n| c.rack_of(id) == rack && n.free_mb() > 0)
        );
    }
    assert_eq!(c.check_invariants(), Ok(()));
}

/// Ledger changes re-key nodes into and out of tie runs and out of the
/// lender indexes altogether; every index must keep `(free, id)` order.
#[test]
fn index_rekeys_through_ties_and_back() {
    let spec = TopologySpec::Racks {
        size: 2,
        cross_cap: 1.0,
    };
    // Eight equal nodes: every index starts as one tie run.
    let mut c = Cluster::new_with_topology(vec![1000; 8], 0.5, spec);
    assert_indexes_match_rebuild(&c);
    // Node 1 leaves the 1000 MB tie for a key of its own.
    c.start_job(JobId(1), local_alloc(&[1], 300), 1.0);
    assert_indexes_match_rebuild(&c);
    // Node 0 joins it at 700 MB, ahead of it: a lone key becomes a
    // tie with the new id first.
    c.start_job(JobId(2), local_alloc(&[0], 300), 1.0);
    assert_indexes_match_rebuild(&c);
    // Node 1 returns to 1000 MB: the 700 MB tie is down to node 0.
    c.finish_job(JobId(1));
    assert_indexes_match_rebuild(&c);
    // Node 0 fills up and leaves the lender indexes; node 3 lends into
    // a key of its own, then rejoins the 1000 MB tie.
    c.grow_entry(JobId(2), NodeId(0), 700, &[(NodeId(3), 250)], 1.0);
    assert_eq!(c.node(NodeId(0)).free_mb(), 0);
    assert_indexes_match_rebuild(&c);
    assert_eq!(c.shrink_job(JobId(2), 1000, 1.0), 250);
    assert_indexes_match_rebuild(&c);
    c.finish_job(JobId(2));
    assert_indexes_match_rebuild(&c);
    // Back to the start: one eight-way tie in the schedulable index
    // and in the merged lender walk.
    let pool = lender_pool_desc(&c);
    assert_eq!(pool.len(), 8);
    assert!(pool.iter().all(|&(f, _)| f == 1000));
}

/// The debug-build oracle check is wired: with the schedulable index
/// out of step with the node table, indexed best fit picks a different
/// node than the full scan, and `place_spread_with` panics.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "diverged from the full-scan oracle")]
fn desynced_index_trips_the_placement_oracle() {
    use crate::policy::{place_spread_with, PlacementScratch};
    let mut c = Cluster::new(vec![1000, 2000], 0.5);
    // Re-key node 0 (1000 MB free) as if it had 5000 MB free: the index
    // now ranks it behind node 1, while the scan still best-fits it.
    c.sched_index.remove(1000, NodeId(0));
    c.sched_index.insert(5000, NodeId(0));
    place_spread_with(&c, 1, 500, &mut PlacementScratch::new());
}

#[test]
#[should_panic(expected = "busy")]
fn start_on_busy_node_panics() {
    let mut c = cluster4();
    c.start_job(JobId(1), local_alloc(&[0], 100), 1.0);
    c.start_job(JobId(2), local_alloc(&[0], 100), 1.0);
}

#[test]
#[should_panic(expected = "free")]
fn over_allocation_panics() {
    let mut c = cluster4();
    c.start_job(JobId(1), local_alloc(&[0], 1500), 1.0);
}

#[test]
#[should_panic(expected = "own node")]
fn self_borrow_panics() {
    let mut c = cluster4();
    let alloc = JobAlloc {
        entries: vec![AllocEntry {
            node: NodeId(0),
            local_mb: 100,
            remote: vec![(NodeId(0), 50)],
        }],
    };
    c.start_job(JobId(1), alloc, 1.0);
}

#[test]
#[should_panic(expected = "lender")]
fn overdrawn_lender_panics() {
    let mut c = cluster4();
    // Lender 1 has 1000 free; two entries borrowing 600 each overdraw.
    let alloc = JobAlloc {
        entries: vec![
            AllocEntry {
                node: NodeId(0),
                local_mb: 0,
                remote: vec![(NodeId(1), 600)],
            },
            AllocEntry {
                node: NodeId(2),
                local_mb: 0,
                remote: vec![(NodeId(1), 600)],
            },
        ],
    };
    c.start_job(JobId(1), alloc, 1.0);
}

#[test]
fn hottest_lender_is_the_max_across_lenders() {
    let mut c = Cluster::new(vec![1000; 4], 0.5);
    // Job 1 borrows lightly from node 2.
    c.start_job(
        JobId(1),
        JobAlloc {
            entries: vec![AllocEntry {
                node: NodeId(0),
                local_mb: 900,
                remote: vec![(NodeId(2), 100)],
            }],
        },
        2.0,
    );
    // Job 2 borrows heavily from node 3 AND lightly from node 2.
    c.start_job(
        JobId(2),
        JobAlloc {
            entries: vec![AllocEntry {
                node: NodeId(1),
                local_mb: 200,
                remote: vec![(NodeId(3), 700), (NodeId(2), 100)],
            }],
        },
        10.0,
    );
    // Node 3 carries 10 × 700/1000 = 7 GB/s; node 2 carries
    // 2×0.1 + 10×0.1 = 1.2 GB/s.
    let hot1 = c.hottest_lender_demand_gbs(JobId(1));
    let hot2 = c.hottest_lender_demand_gbs(JobId(2));
    assert!((hot1 - 1.2).abs() < 1e-9, "job1 sees node2: {hot1}");
    assert!((hot2 - 7.0).abs() < 1e-9, "job2 sees node3: {hot2}");
    // Both jobs appear in node 2's borrower list.
    assert_eq!(c.borrowers_of(NodeId(2)).len(), 2);
}

#[test]
fn shared_lender_across_entries_is_counted_once_and_fully_released() {
    let mut c = cluster4();
    let empty = cluster4();
    // Both compute entries borrow from node 3; the second also from 2.
    let alloc = JobAlloc {
        entries: vec![
            AllocEntry {
                node: NodeId(0),
                local_mb: 800,
                remote: vec![(NodeId(3), 200)],
            },
            AllocEntry {
                node: NodeId(1),
                local_mb: 700,
                remote: vec![(NodeId(3), 100), (NodeId(2), 200)],
            },
        ],
    };
    c.start_job(JobId(1), alloc.clone(), 10.0);
    assert_eq!(c.node(NodeId(3)).lent_mb, 300);
    assert_eq!(c.borrowers_of(NodeId(3)), &[JobId(1)]);
    assert_eq!(c.borrowers_of(NodeId(2)), &[JobId(1)]);
    // Node 3 carries 10 × (200 + 100) / 2000 = 1.5 GB/s, node 2
    // 10 × 200 / 2000 = 1.0 GB/s; every term is exact in binary.
    assert_eq!(c.node(NodeId(3)).remote_demand_gbs, 1.5);
    assert_eq!(c.node(NodeId(2)).remote_demand_gbs, 1.0);
    assert_eq!(c.hottest_lender_demand_gbs(JobId(1)), 1.5);

    assert_eq!(c.finish_job(JobId(1)), alloc);
    assert_eq!(c.check_invariants(), Ok(()));
    for (id, n) in c.iter() {
        assert_eq!(n.lent_mb, 0, "{id:?} still lends");
        assert_eq!(n.local_alloc_mb, 0, "{id:?} keeps local memory");
        assert_eq!(n.running, None, "{id:?} still runs a job");
        assert_eq!(n.remote_demand_gbs, 0.0, "{id:?} keeps demand");
        assert!(c.borrowers_of(id).is_empty(), "{id:?} keeps borrowers");
    }
    assert_eq!(c.hottest_lender_demand_gbs(JobId(1)), 0.0);
    assert_eq!(c.alloc_version(JobId(1)), 0);
    assert_eq!(c.total_allocated_mb(), 0);
    assert_eq!(c.total_remote_mb(), 0);
    assert_eq!(c.idle_count(), 4);
    assert_eq!(lender_pool_desc(&c), lender_pool_desc(&empty));
    assert!(c
        .schedulable_by_free_desc()
        .eq(empty.schedulable_by_free_desc()));
}

#[test]
fn fully_local_job_has_zero_hot_demand() {
    let mut c = cluster4();
    c.start_job(JobId(1), local_alloc(&[0], 500), 9.0);
    assert_eq!(c.hottest_lender_demand_gbs(JobId(1)), 0.0);
    assert_eq!(c.hottest_lender_demand_gbs(JobId(99)), 0.0);
}

#[test]
fn down_node_leaves_pool_and_indexes() {
    let mut c = cluster4();
    assert_eq!(c.free_pool_mb(), 4000);
    c.set_node_down(NodeId(1));
    assert!(c.is_down(NodeId(1)));
    assert_eq!(c.down_count(), 1);
    assert_eq!(c.total_offline_mb(), 1000);
    assert_eq!(c.free_pool_mb(), 3000);
    assert_eq!(c.node(NodeId(1)).free_mb(), 0);
    assert!(!c.schedulable(NodeId(1)));
    assert_eq!(c.schedulable_count(), 3);
    // The free/sched indexes must not offer the down node.
    assert!(lender_pool_desc(&c).iter().all(|&(_, id)| id != NodeId(1)));
    assert!(c.schedulable_by_free_asc(0).all(|(_, id)| id != NodeId(1)));
    c.repair_node(NodeId(1));
    assert_eq!(c.total_offline_mb(), 0);
    assert_eq!(c.schedulable_count(), 4);
    assert_eq!(c.node(NodeId(1)).free_mb(), 1000);
    assert_eq!(c.check_invariants(), Ok(()));
}

#[test]
fn degrade_and_restore_roundtrip() {
    let mut c = cluster4();
    c.apply_degrade(NodeId(2), 400);
    assert_eq!(c.node(NodeId(2)).free_mb(), 600);
    assert_eq!(c.total_offline_mb(), 400);
    assert_eq!(c.free_pool_mb(), 3600);
    // Degraded slices accumulate.
    c.apply_degrade(NodeId(2), 100);
    assert_eq!(c.node(NodeId(2)).degraded_mb, 500);
    c.restore_degrade(NodeId(2), 500);
    assert_eq!(c.node(NodeId(2)).free_mb(), 1000);
    assert_eq!(c.total_offline_mb(), 0);
    assert_eq!(c.check_invariants(), Ok(()));
}

#[test]
fn degrade_on_down_node_does_not_double_count() {
    let mut c = cluster4();
    c.set_node_down(NodeId(0));
    c.apply_degrade(NodeId(0), 300);
    // The whole node is already offline; degradation adds nothing.
    assert_eq!(c.total_offline_mb(), 1000);
    c.repair_node(NodeId(0));
    // Back up, but still missing the degraded slice.
    assert_eq!(c.total_offline_mb(), 300);
    assert_eq!(c.node(NodeId(0)).free_mb(), 700);
    c.restore_degrade(NodeId(0), 300);
    assert_eq!(c.total_offline_mb(), 0);
    assert_eq!(c.check_invariants(), Ok(()));
}

#[test]
#[should_panic(expected = "overlaps allocated")]
fn degrade_cannot_overlap_allocation() {
    let mut c = cluster4();
    c.start_job(JobId(1), local_alloc(&[0], 800), 1.0);
    c.apply_degrade(NodeId(0), 300);
}

#[test]
fn revoke_lender_strips_borrows_and_reports_loss() {
    let mut c = cluster4();
    let alloc = JobAlloc {
        entries: vec![
            AllocEntry {
                node: NodeId(0),
                local_mb: 1000,
                remote: vec![(NodeId(2), 300)],
            },
            AllocEntry {
                node: NodeId(1),
                local_mb: 1000,
                remote: vec![(NodeId(2), 200), (NodeId(3), 100)],
            },
        ],
    };
    c.start_job(JobId(5), alloc, 6.0);
    let lost = c.revoke_lender(JobId(5), NodeId(2), 6.0);
    assert_eq!(lost, vec![(NodeId(0), 300), (NodeId(1), 200)]);
    assert_eq!(c.node(NodeId(2)).lent_mb, 0);
    assert!(c.borrowers_of(NodeId(2)).is_empty());
    assert_eq!(c.borrowers_of(NodeId(3)), &[JobId(5)]);
    let a = c.alloc_of(JobId(5)).unwrap();
    assert_eq!(a.remote_mb(), 100);
    assert_eq!(c.check_invariants(), Ok(()));
    // Revoking a lender the job does not use is a no-op.
    assert!(c.revoke_lender(JobId(5), NodeId(2), 6.0).is_empty());
}

#[test]
fn two_borrowers_share_lender_demand() {
    let mut c = cluster4();
    let mk = |node: u32, lender: u32| JobAlloc {
        entries: vec![AllocEntry {
            node: NodeId(node),
            local_mb: 500,
            remote: vec![(NodeId(lender), 500)],
        }],
    };
    c.start_job(JobId(1), mk(0, 2), 10.0);
    c.start_job(JobId(2), mk(1, 3), 4.0);
    // Each job is half remote: contributes bandwidth × 0.5.
    assert!((c.node(NodeId(2)).remote_demand_gbs - 5.0).abs() < 1e-9);
    assert!((c.node(NodeId(3)).remote_demand_gbs - 2.0).abs() < 1e-9);
    c.finish_job(JobId(1));
    assert!(c.node(NodeId(2)).remote_demand_gbs.abs() < 1e-9);
    assert!((c.node(NodeId(3)).remote_demand_gbs - 2.0).abs() < 1e-9);
}

mod free_index {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    /// Free values for the property: a narrow range so ties are common,
    /// plus the largest value a packed key holds.
    fn free_of(pick: u64) -> u64 {
        if pick == 7 {
            u64::from(u32::MAX)
        } else {
            pick
        }
    }

    proptest! {
        /// Random insert/remove/rekey sequences leave the sorted-array
        /// index yielding the same `(free asc, id asc)` and
        /// `(free desc, id asc)` orders as a `BTreeSet` reference.
        #[test]
        fn free_index_orders_match_btreeset(
            ops in prop::collection::vec((0u64..3, 0u32..12, 0u64..8), 0..300),
        ) {
            let mut index = FreeIndex::default();
            let mut reference: BTreeSet<(u64, NodeId)> = BTreeSet::new();
            let mut at: BTreeMap<NodeId, u64> = BTreeMap::new();
            for &(op, id, pick) in &ops {
                let (id, free) = (NodeId(id), free_of(pick));
                match (op, at.get(&id).copied()) {
                    (_, None) => {
                        index.insert(free, id);
                        reference.insert((free, id));
                        at.insert(id, free);
                    }
                    (0, Some(old)) => {
                        index.remove(old, id);
                        reference.remove(&(old, id));
                        at.remove(&id);
                    }
                    (_, Some(old)) => {
                        index.rekey(old, free, id);
                        reference.remove(&(old, id));
                        reference.insert((free, id));
                        at.insert(id, free);
                    }
                }
                for min in [0, 1, 3, 6, u64::from(u32::MAX), u64::from(u32::MAX) + 1] {
                    let want: Vec<_> = reference.iter().copied().filter(|&(f, _)| f >= min).collect();
                    prop_assert_eq!(index.asc_from(min).collect::<Vec<_>>(), want);
                }
                let mut want: Vec<_> = reference.iter().copied().collect();
                want.sort_by_key(|&(f, id)| (std::cmp::Reverse(f), id));
                prop_assert_eq!(index.desc().collect::<Vec<_>>(), want);
            }
        }
    }
}

/// The audit is the only rebuild check on the per-rack lender indexes
/// and their free-MB counter: a stale key in one rack's index, and a
/// counter off by 1 MB, are each reported.
#[test]
fn audit_catches_a_stale_rack_lender_index() {
    let spec = TopologySpec::Racks {
        size: 2,
        cross_cap: 1.0,
    };
    let mut c = Cluster::new_with_topology(vec![1000; 6], 0.5, spec);
    c.start_job(JobId(1), local_alloc(&[2], 300), 1.0);
    assert_eq!(c.check_invariants(), Ok(()));
    // Rack 1 (nodes 2 and 3) still keys node 2 as idle.
    let mut stale = c.clone();
    stale.rack_lenders[1].rekey(700, 1000, NodeId(2));
    let err = stale.check_invariants().unwrap_err().to_string();
    assert!(
        err.contains("rack 1 lender index out of sync with node ledgers"),
        "{err}"
    );
    let mut stale = c.clone();
    stale.lender_free_mb += 1;
    let err = stale.check_invariants().unwrap_err().to_string();
    assert!(
        err.contains("lender free counter mismatch: rebuild 5700 vs counter 5701"),
        "{err}"
    );
}

mod rack_lenders {
    use super::*;
    use crate::oracle::{borrow_reference, lender_pool};
    use crate::policy::{place_spread_with, plan_growth, PlacementScratch};
    use proptest::prelude::*;

    const JOBS: u32 = 6;

    /// Borrow sequences off fresh lender cursors against the full-scan
    /// oracle (the node table sorted once, with a drained overlay): from
    /// every start node, the borrows of `needs` homed on it and the
    /// nodes after it, with the start node and its successor excluded
    /// as a plan's compute nodes are. Until a borrow crosses racks, the
    /// cursors must not have built the cross-rack merge.
    fn check(c: &Cluster, needs: &[u64]) -> Result<(), String> {
        let n = c.len() as u32;
        for start in 0..n {
            let exclude = [NodeId(start), NodeId((start + 1) % n)];
            let mut cursors = c.lender_cursors(|id| exclude.contains(&id));
            let mut pool = lender_pool(c, &exclude);
            let mut crossed = false;
            for (k, &need) in (0..).zip(needs) {
                let home = NodeId((start + k) % n);
                let got = cursors.borrow(home, need);
                let want = borrow_reference(c, &mut pool, home, need);
                prop_assert!(got == want, "from {start}, borrow {k}: {got:?} vs {want:?}");
                let Some(slices) = want else {
                    break;
                };
                crossed |= slices.iter().any(|&(l, _)| c.is_cross(home, l));
                prop_assert!(
                    crossed || cursors.heads.capacity() == 0,
                    "from {start}, borrow {k}: merge built inside the home rack"
                );
            }
        }
        Ok(())
    }

    /// Crash `id` after evacuating it (its job finished, its borrowers
    /// revoked), or repair it if it is down.
    fn crash_or_repair(c: &mut Cluster, id: NodeId) {
        if c.is_down(id) {
            c.repair_node(id);
            return;
        }
        if let Some(job) = c.node(id).running {
            c.finish_job(job);
        }
        for job in c.borrowers_of(id).to_vec() {
            c.revoke_lender(job, id, 1.0);
        }
        c.set_node_down(id);
    }

    proptest! {
        /// Random start/grow/shrink/finish/crash/degrade sequences on
        /// random rack partitions (sizes that do not divide the node
        /// count, and sizes of at least the node count, included) and
        /// on the flat fabric keep every borrow sequence off the lender
        /// cursors equal to the full-scan oracle's after every step.
        /// Capacities are multiples of 256 MB, so equal-free lenders in
        /// different racks are common and the merge's tie order counts.
        #[test]
        fn lender_cursors_match_full_sort(
            units in prop::collection::vec(1u64..16, 3..24),
            rack_size in 1u32..28,
            cross_idx in 0usize..3,
            ops in prop::collection::vec((0u64..6, 0u32..JOBS, 0u64..64, 1u64..4000), 1..80),
            needs in prop::collection::vec(1u64..4000, 1..6),
        ) {
            let cross_cap = [0.0, 0.5, 1.0][cross_idx];
            let caps: Vec<u64> = units.iter().map(|u| u * 256).collect();
            for spec in [TopologySpec::Flat, TopologySpec::Racks { size: rack_size, cross_cap }] {
                let mut c = Cluster::new_with_topology(caps.clone(), 0.5, spec);
                let mut scratch = PlacementScratch::new();
                let mut compute = Vec::new();
                check(&c, &needs)?;
                for &(op, j, pick, mb) in &ops {
                    let job = JobId(j);
                    let node = NodeId((pick % caps.len() as u64) as u32);
                    match (op, c.alloc_of(job)) {
                        (4, _) => crash_or_repair(&mut c, node),
                        (5, _) => {
                            let degraded = c.node(node).degraded_mb;
                            let free = c.node(node).free_mb();
                            if degraded > 0 {
                                c.restore_degrade(node, degraded);
                            } else if free > 0 {
                                c.apply_degrade(node, free.min(mb));
                            }
                        }
                        (_, None) => {
                            let nodes = 1 + (pick % 4) as u32;
                            if let Some(a) = place_spread_with(&c, nodes, 256 + mb, &mut scratch) {
                                c.start_job(job, a, 1.0);
                            }
                        }
                        (0 | 1, Some(alloc)) => {
                            compute.clear();
                            compute.extend(alloc.entries.iter().map(|e| e.node));
                            let entry = compute[pick as usize % compute.len()];
                            if let Some((local, borrows)) = plan_growth(&c, entry, &compute, mb) {
                                c.grow_entry(job, entry, local, &borrows, 1.0);
                            }
                        }
                        (2, Some(alloc)) => {
                            let min = alloc.entries.iter().map(AllocEntry::total_mb).min().unwrap();
                            c.shrink_job(job, min.saturating_sub(mb), 1.0);
                        }
                        _ => {
                            c.finish_job(job);
                        }
                    }
                    check(&c, &needs)?;
                }
                prop_assert_eq!(c.check_invariants(), Ok(()));
            }
        }
    }
}

/// `shrink_job` re-indexes each lender once after peeling every entry:
/// four entries borrowing from the same two lenders, shrunk part-way
/// and then fully to local, against hand-computed ledgers.
#[test]
fn shrink_across_entries_sharing_lenders_reindexes_once_per_lender() {
    let mut c = Cluster::new(vec![1000; 8], 0.5);
    let alloc = JobAlloc {
        entries: (0..4)
            .map(|n| AllocEntry {
                node: NodeId(n),
                local_mb: 500,
                remote: vec![(NodeId(4), 100), (NodeId(5), 100)],
            })
            .collect(),
    };
    c.start_job(JobId(1), alloc, 8.0);
    assert_eq!(c.node(NodeId(4)).lent_mb, 400);
    assert_eq!(c.node(NodeId(5)).lent_mb, 400);
    assert_eq!(c.total_remote_mb(), 800);
    assert_indexes_match_rebuild(&c);
    // 700 -> 650 per entry: each entry peels 50 MB off its last lender,
    // node 5, which ends up lending 4 × 50.
    assert_eq!(c.shrink_job(JobId(1), 650, 8.0), 200);
    assert_eq!(c.node(NodeId(4)).lent_mb, 400);
    assert_eq!(c.node(NodeId(5)).lent_mb, 200);
    assert_eq!(c.total_remote_mb(), 600);
    assert_eq!(c.total_allocated_mb(), 4 * 650);
    assert_eq!(c.borrowers_of(NodeId(5)), &[JobId(1)]);
    assert_indexes_match_rebuild(&c);
    // 650 -> 500: node 5's last 50 MB and node 4's 100 MB go from every
    // entry; both lenders are empty and unlinked, the job fully local.
    assert_eq!(c.shrink_job(JobId(1), 500, 8.0), 600);
    assert_eq!(c.node(NodeId(4)).lent_mb, 0);
    assert_eq!(c.node(NodeId(5)).lent_mb, 0);
    assert_eq!(c.total_remote_mb(), 0);
    assert_eq!(c.total_allocated_mb(), 4 * 500);
    assert!(c.borrowers_of(NodeId(4)).is_empty());
    assert!(c.borrowers_of(NodeId(5)).is_empty());
    assert!(c
        .alloc_of(JobId(1))
        .unwrap()
        .entries
        .iter()
        .all(|e| e.remote.is_empty() && e.local_mb == 500));
    assert_eq!(c.node(NodeId(4)).remote_demand_gbs, 0.0);
    assert_eq!(c.node(NodeId(5)).remote_demand_gbs, 0.0);
    assert_indexes_match_rebuild(&c);
}

/// The linear-find demand fold `refresh_demand` used before its dense
/// row map, kept verbatim as the reference for the bit-identity test.
fn reference_refresh_demand(
    alloc: &JobAlloc,
    bandwidth_gbs: f64,
    contribs: &mut Vec<(NodeId, f64)>,
    demand: &mut [f64],
) {
    for &(lender, gbs) in contribs.iter() {
        let d = &mut demand[lender.0 as usize];
        *d = (*d - gbs).max(0.0);
    }
    contribs.clear();
    let total = alloc.total_mb();
    if total > 0 {
        for e in &alloc.entries {
            for &(lender, mb) in &e.remote {
                let gbs = bandwidth_gbs * mb as f64 / total as f64;
                if let Some(c) = contribs.iter_mut().find(|(l, _)| *l == lender) {
                    c.1 += gbs;
                } else {
                    contribs.push((lender, gbs));
                }
            }
        }
        for &(lender, gbs) in contribs.iter() {
            demand[lender.0 as usize] += gbs;
        }
    }
}

mod demand_refresh {
    use super::*;
    use proptest::prelude::*;

    /// Compute nodes of the three jobs; nodes 10..16 only lend.
    const COMPUTE: [&[u32]; 3] = [&[0, 1, 2, 3], &[4, 5, 6], &[7, 8, 9]];
    const LENDERS: u32 = 6;

    proptest! {
        /// `Node::remote_demand_gbs` after random starts, grows and
        /// shrinks with lenders repeated across entries is bit-identical
        /// to the linear-find fold.
        #[test]
        fn refresh_demand_matches_find_fold_bitwise(
            starts in prop::collection::vec((100u64..600, 0u32..LENDERS, 1u64..60, 0u32..LENDERS, 1u64..60), 10..11),
            ops in prop::collection::vec((0u64..4, 0u64..3, 0u64..4, 0u32..LENDERS, 1u64..60, 0u32..LENDERS), 0..80),
        ) {
            let mut c = Cluster::new(vec![8000; 16], 0.5);
            let mut demand = vec![0.0f64; 16];
            let mut contribs: Vec<Vec<(NodeId, f64)>> = vec![Vec::new(); 3];
            let bandwidth = [7.3, 11.9, 3.1];
            let lender = |l: u32| NodeId(10 + l);
            let mut rows = starts.iter();
            for (j, nodes) in COMPUTE.iter().enumerate() {
                let entries = nodes
                    .iter()
                    .map(|&n| {
                        let &(local, l1, mb1, l2, mb2) = rows.next().unwrap();
                        let mut remote = vec![(lender(l1), mb1)];
                        if l2 != l1 {
                            remote.push((lender(l2), mb2));
                        }
                        AllocEntry { node: NodeId(n), local_mb: local, remote }
                    })
                    .collect();
                let job = JobId(j as u32);
                c.start_job(job, JobAlloc { entries }, bandwidth[j]);
                reference_refresh_demand(c.alloc_of(job).unwrap(), bandwidth[j], &mut contribs[j], &mut demand);
            }
            for &(op, j, entry, l1, mb, l2) in &ops {
                let job = JobId(j as u32);
                let j = j as usize;
                if op == 0 {
                    // Shrink every entry to somewhere inside its range.
                    let alloc = c.alloc_of(job).unwrap();
                    let min = alloc.entries.iter().map(AllocEntry::total_mb).min().unwrap();
                    c.shrink_job(job, min.saturating_sub(mb), bandwidth[j]);
                } else {
                    let node = NodeId(COMPUTE[j][entry as usize % COMPUTE[j].len()]);
                    let mut add = vec![(lender(l1), mb)];
                    if l2 != l1 {
                        add.push((lender(l2), mb / 2 + 1));
                    }
                    c.grow_entry(job, node, mb % 7, &add, bandwidth[j]);
                }
                reference_refresh_demand(c.alloc_of(job).unwrap(), bandwidth[j], &mut contribs[j], &mut demand);
                for (id, n) in c.iter() {
                    prop_assert!(
                        n.remote_demand_gbs.to_bits() == demand[id.0 as usize].to_bits(),
                        "{id:?}: {} vs fold {}", n.remote_demand_gbs, demand[id.0 as usize]
                    );
                }
            }
            prop_assert_eq!(c.check_invariants(), Ok(()));
        }
    }
}

/// Phase-2 spread placement when the lender pool is 1 MB short of the
/// borrowing the compute nodes need (`None`, from the pool-capacity
/// early exit) and when it holds exactly enough (`Some`), on the flat
/// fabric and on two racks of two, where every borrow crosses racks.
/// Debug builds also check each answer against the oracle.
#[test]
fn spread_placement_pool_exactly_enough_or_one_mb_short() {
    use crate::policy::{place_spread_with, PlacementScratch};
    let racked = TopologySpec::Racks {
        size: 2,
        cross_cap: 1.0,
    };
    for spec in [TopologySpec::Flat, racked] {
        for (occupied, fits) in [(500, true), (501, false)] {
            let mut c = Cluster::new_with_topology(vec![1000; 4], 0.5, spec);
            // Nodes 2 and 3 turn busy and lend what is left; nodes 0
            // and 1 stay schedulable with 1000 MB each.
            c.start_job(JobId(1), local_alloc(&[2, 3], occupied), 1.0);
            assert_eq!(c.lender_free_mb(), 2000 + 2 * (1000 - occupied));
            // Two entries of 1500 MB borrow 500 MB each: 1000 MB in all,
            // against 2 × (1000 − occupied) MB of lender pool.
            let placed = place_spread_with(&c, 2, 1500, &mut PlacementScratch::new());
            assert_eq!(placed.is_some(), fits, "{spec}, {occupied} MB occupied");
            if let Some(alloc) = placed {
                assert_eq!(alloc.remote_mb(), 1000);
                c.start_job(JobId(2), alloc, 1.0);
                assert_eq!(c.lender_free_mb(), 0);
                assert_eq!(c.check_invariants(), Ok(()));
            }
        }
    }
}

mod contention_inputs {
    use super::*;
    use crate::oracle::{hottest_lender_demand_reference, priced_remote_fraction_reference};
    use crate::policy::{place_spread_with, plan_growth, PlacementScratch};
    use proptest::prelude::*;

    const JOBS: u32 = 5;

    /// Assert both contention inputs of every job against the oracle's
    /// slice folds, bit for bit, and the ledger against a rebuild.
    fn check(c: &Cluster) -> Result<(), String> {
        for j in 0..JOBS {
            let job = JobId(j);
            let (got, want) = (
                c.priced_remote_fraction(job),
                priced_remote_fraction_reference(c, job),
            );
            prop_assert!(
                got.to_bits() == want.to_bits(),
                "{job} remote fraction {got} vs fold {want}"
            );
            let (got, want) = (
                c.hottest_lender_demand_gbs(job),
                hottest_lender_demand_reference(c, job),
            );
            prop_assert!(
                got.to_bits() == want.to_bits(),
                "{job} hottest lender {got} vs fold {want}"
            );
        }
        prop_assert_eq!(c.check_invariants(), Ok(()));
        Ok(())
    }

    proptest! {
        /// Random start/grow/shrink/revoke/finish sequences on a flat
        /// and a `racks:size=16` cluster leave the O(1) contention
        /// inputs equal to the slice folds after every step.
        #[test]
        fn contention_inputs_match_slice_folds(
            caps in prop::collection::vec(500u64..3000, 48..49),
            ops in prop::collection::vec((0u64..5, 0u32..JOBS, 0u64..64, 1u64..4000), 1..120),
        ) {
            let racked: TopologySpec = "racks:size=16".parse().unwrap();
            for spec in [TopologySpec::Flat, racked] {
                let mut c = Cluster::new_with_topology(caps.clone(), 0.5, spec);
                let mut scratch = PlacementScratch::new();
                let mut compute = Vec::new();
                let mut lenders = Vec::new();
                for &(op, j, pick, mb) in &ops {
                    let job = JobId(j);
                    let bandwidth = 1.5 + f64::from(j) * 2.75;
                    let Some(alloc) = c.alloc_of(job) else {
                        // Start: 1-8 nodes at up to 7 GB each.
                        let nodes = 1 + (pick % 8) as u32;
                        if let Some(a) = place_spread_with(&c, nodes, 1000 + mb * 3 / 2, &mut scratch) {
                            c.start_job(job, a, bandwidth);
                        }
                        check(&c)?;
                        continue;
                    };
                    compute.clear();
                    compute.extend(alloc.entries.iter().map(|e| e.node));
                    alloc.lenders_into(&mut lenders);
                    match op {
                        0 | 1 => {
                            let node = compute[pick as usize % compute.len()];
                            if let Some((local, borrows)) = plan_growth(&c, node, &compute, mb) {
                                c.grow_entry(job, node, local, &borrows, bandwidth);
                            }
                        }
                        2 => {
                            let min = alloc.entries.iter().map(AllocEntry::total_mb).min().unwrap();
                            c.shrink_job(job, min.saturating_sub(mb), bandwidth);
                        }
                        3 if !lenders.is_empty() => {
                            let lender = lenders[pick as usize % lenders.len()];
                            c.revoke_lender(job, lender, bandwidth);
                        }
                        // Op 4, or op 3 on a fully local job.
                        _ => {
                            c.finish_job(job);
                        }
                    }
                    check(&c)?;
                }
            }
        }
    }
}
