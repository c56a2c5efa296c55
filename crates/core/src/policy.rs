//! Memory allocation policies (paper §3.5).
//!
//! * **Baseline** — no disaggregated memory: a job runs only on nodes
//!   whose whole DRAM satisfies the request, and it gets the node's full
//!   memory exclusively.
//! * **Static** — disaggregated memory with a fixed allocation equal to
//!   the submission request (Zacarias et al., ICPADS'21): prefer nodes
//!   with enough free memory; otherwise pick the nodes with the most free
//!   memory and borrow the remainder from lender nodes.
//! * **Dynamic** — same initial allocation as Static, then the
//!   Monitor→Decider→Actuator→Executor loop resizes the allocation to
//!   track actual usage (this paper, §2.2). Growth is local-first then
//!   remote; shrinking releases remote memory first.
//!
//! Three extensions beyond the paper's comparison live in submodules
//! behind the same [`MemoryPolicy`](crate::sim::MemoryPolicy) trait —
//! [`predictive`] (class-history sizing), [`overcommit`] (admission at
//! a scaled request), and [`conservative`] (quantized growth). The
//! parameterized construction API over all six is [`PolicySpec`].
//!
//! Placement functions are pure with respect to the cluster (they only
//! read); the simulation applies the returned [`JobAlloc`] through
//! [`Cluster::start_job`] / [`Cluster::grow_entry`].
//!
//! Placement runs off the cluster's persistent free-memory indexes
//! ([`Cluster::schedulable_by_free_asc`] and friends), so a successful
//! phase-1 placement costs O(log N + n) instead of an O(N log N) scan
//! and sort. The original full-scan implementation is kept as
//! [`place_exclusive_reference`] / [`place_spread_reference`] /
//! [`plan_growth_reference`]: property tests assert the two agree
//! exactly, and the benchmark harness measures the speedup between them.

use crate::cluster::{AllocEntry, Cluster, JobAlloc, NodeId};

pub mod conservative;
pub mod overcommit;
pub mod predictive;
pub mod spec;

pub use conservative::ConservativeGrowth;
pub use overcommit::Overcommit;
pub use predictive::Predictive;
pub use spec::PolicySpec;

/// Reusable buffers for [`place_exclusive_with`] / [`place_spread_with`];
/// owning one across calls makes the placement hot path allocation-free
/// apart from the returned [`JobAlloc`] itself.
#[derive(Clone, Debug, Default)]
pub struct PlacementScratch {
    /// Baseline candidate list as `(capacity, id)`.
    fit: Vec<(u64, NodeId)>,
    /// Phase-2 compute-node selection as `(free, id)`.
    compute: Vec<(u64, NodeId)>,
    /// Racked phase-2 drain overlay as `(lender, mb already planned)`:
    /// rack-aware lender iteration restarts per entry, so drained
    /// amounts are tracked on the side instead of in a single stream.
    taken: Vec<(NodeId, u64)>,
}

impl PlacementScratch {
    /// Empty scratch; buffers grow to steady state on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Baseline placement off the cluster indexes: only nodes whose full
/// usable DRAM covers the request, and the job gets each node's whole
/// memory (exclusive access, no disaggregation).
pub fn place_exclusive_with(
    cluster: &Cluster,
    nodes: u32,
    request_mb: u64,
    scratch: &mut PlacementScratch,
) -> Option<JobAlloc> {
    let n = nodes as usize;
    if n == 0 {
        return None;
    }
    if cluster.schedulable_count() < n {
        return None;
    }
    // Only nodes whose full usable DRAM covers the request; the job
    // gets the whole node (exclusive access to all resources). An idle
    // baseline node never lends, so its free memory IS its usable
    // capacity — minus any degraded blade slice, which exclusive
    // allocation must not touch. Keyed by free, so this still needs a
    // sort — but only over the schedulable subset, and into a reused
    // buffer.
    scratch.fit.clear();
    scratch.fit.extend(
        cluster
            .schedulable_by_free_asc(0)
            .filter(|&(free, _)| free >= request_mb),
    );
    if scratch.fit.len() < n {
        return None;
    }
    // Best fit: smallest adequate node first, preserving large nodes
    // for large jobs.
    scratch.fit.sort_unstable();
    Some(JobAlloc {
        entries: scratch.fit[..n]
            .iter()
            .map(|&(free, id)| AllocEntry {
                node: id,
                local_mb: free,
                remote: vec![],
            })
            .collect(),
    })
}

/// Static/Dynamic placement off the cluster indexes: fill the request
/// locally where possible, otherwise spread the job over the nodes with
/// the most free memory and borrow the remainder from lender nodes.
pub fn place_spread_with(
    cluster: &Cluster,
    nodes: u32,
    request_mb: u64,
    scratch: &mut PlacementScratch,
) -> Option<JobAlloc> {
    let n = nodes as usize;
    if n == 0 {
        return None;
    }
    if cluster.schedulable_count() < n {
        return None;
    }
    // Phase 1: enough nodes can hold the request entirely locally. The
    // index range walk yields best-fit order (least free first)
    // directly.
    let mut entries = Vec::with_capacity(n);
    entries.extend(
        cluster
            .schedulable_by_free_asc(request_mb)
            .take(n)
            .map(|(_, id)| AllocEntry {
                node: id,
                local_mb: request_mb,
                remote: vec![],
            }),
    );
    if entries.len() == n {
        return Some(JobAlloc { entries });
    }
    entries.clear();
    if !cluster.is_flat() {
        return place_spread_racked(cluster, n, request_mb, scratch);
    }
    // Phase 2: the n nodes with the most free memory become compute
    // nodes; the rest of the free pool lends.
    scratch.compute.clear();
    scratch
        .compute
        .extend(cluster.schedulable_by_free_desc().take(n));
    let compute = &scratch.compute[..];
    // Lenders stream straight off the free index (most free first),
    // skipping the job's own compute nodes; `current` carries the
    // partially drained lender across entries.
    let mut lender_iter = cluster
        .free_by_free_desc()
        .filter(|(_, id)| !compute.iter().any(|&(_, c)| c == *id));
    let mut current: Option<(u64, NodeId)> = None;
    for &(free, id) in compute {
        let local = free.min(request_mb);
        let mut need = request_mb - local;
        let mut remote = Vec::new();
        while need > 0 {
            match current {
                Some((rem, lid)) if rem > 0 => {
                    let take = rem.min(need);
                    remote.push((lid, take));
                    current = Some((rem - take, lid));
                    need -= take;
                }
                _ => {
                    current = Some(lender_iter.next()?); // pool exhausted
                }
            }
        }
        entries.push(AllocEntry {
            node: id,
            local_mb: local,
            remote,
        });
    }
    Some(JobAlloc { entries })
}

/// Phase-2 spread placement on a racked topology. Compute nodes are
/// still the globally most-free schedulable nodes — rack boundaries do
/// not change where a job *runs* — but each entry's borrows walk the
/// locality-aware lender order (own rack first, then cross-rack) and
/// cross-rack borrowing is capped at the topology's per-plan budget.
/// Because the lender order restarts per entry, drained amounts are
/// tracked in the `scratch.taken` overlay rather than a single
/// partially-consumed stream.
fn place_spread_racked(
    cluster: &Cluster,
    n: usize,
    request_mb: u64,
    scratch: &mut PlacementScratch,
) -> Option<JobAlloc> {
    scratch.compute.clear();
    scratch
        .compute
        .extend(cluster.schedulable_by_free_desc().take(n));
    scratch.taken.clear();
    let PlacementScratch { compute, taken, .. } = scratch;
    let compute = &compute[..];
    let mut entries = Vec::with_capacity(n);
    for &(free, id) in compute {
        let local = free.min(request_mb);
        let mut need = request_mb - local;
        let mut cross_budget = cluster.topology().cross_budget(need);
        let mut remote = Vec::new();
        for (lfree, lid) in cluster.lenders_from(id) {
            if need == 0 {
                break;
            }
            if compute.iter().any(|&(_, c)| c == lid) {
                continue;
            }
            let already = taken
                .iter()
                .find(|&&(t, _)| t == lid)
                .map_or(0, |&(_, a)| a);
            let avail = lfree - already;
            let is_cross = cluster.is_cross(id, lid);
            let take = if is_cross {
                avail.min(need).min(cross_budget)
            } else {
                avail.min(need)
            };
            if take == 0 {
                continue;
            }
            remote.push((lid, take));
            need -= take;
            if is_cross {
                cross_budget -= take;
            }
            match taken.iter_mut().find(|&&mut (t, _)| t == lid) {
                Some(slot) => slot.1 += take,
                None => taken.push((lid, take)),
            }
        }
        if need > 0 {
            return None; // pool (or cross-rack budget) exhausted
        }
        entries.push(AllocEntry {
            node: id,
            local_mb: local,
            remote,
        });
    }
    Some(JobAlloc { entries })
}

/// Schedulable nodes (idle and within the lend cap) as `(free, id)`,
/// collected by a full scan — the reference placements sort this per
/// call.
fn sched_scan(cluster: &Cluster) -> Vec<(u64, NodeId)> {
    cluster
        .iter()
        .filter(|&(id, _)| cluster.schedulable(id))
        .map(|(id, node)| (node.free_mb(), id))
        .collect()
}

/// Full-scan twin of [`place_exclusive_with`].
pub fn place_exclusive_reference(
    cluster: &Cluster,
    nodes: u32,
    request_mb: u64,
) -> Option<JobAlloc> {
    let n = nodes as usize;
    if n == 0 {
        return None;
    }
    let sched = sched_scan(cluster);
    if sched.len() < n {
        return None;
    }
    // Only nodes whose full usable DRAM covers the request; the job
    // gets the whole node (exclusive access to all resources). Free
    // equals usable capacity on an idle baseline node and excludes
    // degraded blade slices.
    let mut fit: Vec<(u64, NodeId)> = sched
        .iter()
        .copied()
        .filter(|&(free, _)| free >= request_mb)
        .collect();
    if fit.len() < n {
        return None;
    }
    // Best fit: smallest adequate node first, preserving large nodes
    // for large jobs.
    fit.sort_unstable();
    Some(JobAlloc {
        entries: fit[..n]
            .iter()
            .map(|&(free, id)| AllocEntry {
                node: id,
                local_mb: free,
                remote: vec![],
            })
            .collect(),
    })
}

/// Full-scan twin of [`place_spread_with`].
pub fn place_spread_reference(cluster: &Cluster, nodes: u32, request_mb: u64) -> Option<JobAlloc> {
    let n = nodes as usize;
    if n == 0 {
        return None;
    }
    let mut sched = sched_scan(cluster);
    if sched.len() < n {
        return None;
    }
    // Phase 1: enough nodes can hold the request entirely locally.
    let mut fit: Vec<(u64, NodeId)> = sched
        .iter()
        .copied()
        .filter(|&(free, _)| free >= request_mb)
        .collect();
    if fit.len() >= n {
        // Best fit: least free first.
        fit.sort_unstable();
        return Some(JobAlloc {
            entries: fit[..n]
                .iter()
                .map(|&(_, id)| AllocEntry {
                    node: id,
                    local_mb: request_mb,
                    remote: vec![],
                })
                .collect(),
        });
    }
    if !cluster.is_flat() {
        return place_spread_racked_reference(cluster, sched, n, request_mb);
    }
    // Phase 2: nodes with the most free memory + borrowing.
    // Sort descending by free, ascending by id for determinism.
    sched.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let compute = &sched[..n];
    let compute_ids: Vec<NodeId> = compute.iter().map(|&(_, id)| id).collect();
    // Lenders: every other node with free memory, most free first.
    let mut lenders: Vec<(u64, NodeId)> = cluster
        .iter()
        .filter(|(id, node)| node.free_mb() > 0 && !compute_ids.contains(id))
        .map(|(id, node)| (node.free_mb(), id))
        .collect();
    lenders.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut li = 0usize;
    let mut entries = Vec::with_capacity(n);
    for &(free, id) in compute {
        let local = free.min(request_mb);
        let mut need = request_mb - local;
        let mut remote = Vec::new();
        while need > 0 {
            let Some(slot) = lenders.get_mut(li) else {
                return None; // pool exhausted
            };
            let take = slot.0.min(need);
            if take > 0 {
                remote.push((slot.1, take));
                slot.0 -= take;
                need -= take;
            }
            if slot.0 == 0 {
                li += 1;
            }
        }
        entries.push(AllocEntry {
            node: id,
            local_mb: local,
            remote,
        });
    }
    Some(JobAlloc { entries })
}

/// Full-scan twin of [`place_spread_racked`], kept as the equivalence
/// oracle: the lender pool is re-sorted per entry by
/// `(cross-rack?, free desc, id asc)` with original free-memory keys,
/// and drained amounts live in a side overlay exactly like the indexed
/// implementation.
fn place_spread_racked_reference(
    cluster: &Cluster,
    mut sched: Vec<(u64, NodeId)>,
    n: usize,
    request_mb: u64,
) -> Option<JobAlloc> {
    sched.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let compute = &sched[..n];
    let compute_ids: Vec<NodeId> = compute.iter().map(|&(_, id)| id).collect();
    let lenders: Vec<(u64, NodeId)> = cluster
        .iter()
        .filter(|(id, node)| node.free_mb() > 0 && !compute_ids.contains(id))
        .map(|(id, node)| (node.free_mb(), id))
        .collect();
    let mut taken: Vec<(NodeId, u64)> = Vec::new();
    let mut entries = Vec::with_capacity(n);
    for &(free, id) in compute {
        let local = free.min(request_mb);
        let mut need = request_mb - local;
        let mut cross_budget = cluster.topology().cross_budget(need);
        // Re-order the pool for *this* entry: own-rack lenders first.
        let mut order = lenders.clone();
        order.sort_unstable_by(|a, b| {
            cluster
                .is_cross(id, a.1)
                .cmp(&cluster.is_cross(id, b.1))
                .then(b.0.cmp(&a.0))
                .then(a.1.cmp(&b.1))
        });
        let mut remote = Vec::new();
        for (lfree, lid) in order {
            if need == 0 {
                break;
            }
            let already = taken
                .iter()
                .find(|&&(t, _)| t == lid)
                .map_or(0, |&(_, a)| a);
            let avail = lfree - already;
            let is_cross = cluster.is_cross(id, lid);
            let take = if is_cross {
                avail.min(need).min(cross_budget)
            } else {
                avail.min(need)
            };
            if take == 0 {
                continue;
            }
            remote.push((lid, take));
            need -= take;
            if is_cross {
                cross_budget -= take;
            }
            match taken.iter_mut().find(|&&mut (t, _)| t == lid) {
                Some(slot) => slot.1 += take,
                None => taken.push((lid, take)),
            }
        }
        if need > 0 {
            return None; // pool (or cross-rack budget) exhausted
        }
        entries.push(AllocEntry {
            node: id,
            local_mb: local,
            remote,
        });
    }
    Some(JobAlloc { entries })
}

/// Plan the growth of one compute-node entry by `need_mb`: local memory
/// first, then borrows from the lenders with the most free memory
/// (paper §2.2: "allocate memory locally, if possible, and then remotely
/// if necessary", maximising the local-to-remote ratio).
///
/// `compute_ids` are all compute nodes of the job (excluded as lenders).
/// Returns `(add_local, borrows)`, or `None` if the cluster cannot
/// satisfy the demand — the out-of-memory case the Actuator resolves by
/// terminating and resubmitting the job.
pub fn plan_growth(
    cluster: &Cluster,
    entry_node: NodeId,
    compute_ids: &[NodeId],
    need_mb: u64,
) -> Option<(u64, Vec<(NodeId, u64)>)> {
    if need_mb == 0 {
        return Some((0, vec![]));
    }
    let local = cluster.node(entry_node).free_mb().min(need_mb);
    let mut need = need_mb - local;
    if need == 0 {
        return Some((local, vec![]));
    }
    if !cluster.is_flat() {
        // Racked: walk the locality-aware order (own rack first) under
        // the cross-rack budget.
        let mut cross_budget = cluster.topology().cross_budget(need);
        let mut borrows = Vec::new();
        for (free, id) in cluster.lenders_from(entry_node) {
            if compute_ids.contains(&id) {
                continue;
            }
            let is_cross = cluster.is_cross(entry_node, id);
            let take = if is_cross {
                free.min(need).min(cross_budget)
            } else {
                free.min(need)
            };
            if take == 0 {
                continue;
            }
            borrows.push((id, take));
            need -= take;
            if is_cross {
                cross_budget -= take;
            }
            if need == 0 {
                break;
            }
        }
        return if need > 0 {
            None
        } else {
            Some((local, borrows))
        };
    }
    // Lenders stream off the free index (most free first) instead of a
    // collect-and-sort pass over every node.
    let mut borrows = Vec::new();
    for (free, id) in cluster.free_by_free_desc() {
        if compute_ids.contains(&id) {
            continue;
        }
        let take = free.min(need);
        borrows.push((id, take));
        need -= take;
        if need == 0 {
            break;
        }
    }
    if need > 0 {
        None
    } else {
        Some((local, borrows))
    }
}

/// Full-scan twin of [`plan_growth`], kept as the equivalence-test
/// oracle.
pub fn plan_growth_reference(
    cluster: &Cluster,
    entry_node: NodeId,
    compute_ids: &[NodeId],
    need_mb: u64,
) -> Option<(u64, Vec<(NodeId, u64)>)> {
    if need_mb == 0 {
        return Some((0, vec![]));
    }
    let local = cluster.node(entry_node).free_mb().min(need_mb);
    let mut need = need_mb - local;
    if need == 0 {
        return Some((local, vec![]));
    }
    let mut lenders: Vec<(u64, NodeId)> = cluster
        .iter()
        .filter(|(id, node)| node.free_mb() > 0 && !compute_ids.contains(id))
        .map(|(id, node)| (node.free_mb(), id))
        .collect();
    if !cluster.is_flat() {
        // Racked twin: sort by (cross-rack?, free desc, id asc) and walk
        // under the cross-rack budget.
        lenders.sort_unstable_by(|a, b| {
            cluster
                .is_cross(entry_node, a.1)
                .cmp(&cluster.is_cross(entry_node, b.1))
                .then(b.0.cmp(&a.0))
                .then(a.1.cmp(&b.1))
        });
        let mut cross_budget = cluster.topology().cross_budget(need);
        let mut borrows = Vec::new();
        for (free, id) in lenders {
            if need == 0 {
                break;
            }
            let is_cross = cluster.is_cross(entry_node, id);
            let take = if is_cross {
                free.min(need).min(cross_budget)
            } else {
                free.min(need)
            };
            if take == 0 {
                continue;
            }
            borrows.push((id, take));
            need -= take;
            if is_cross {
                cross_budget -= take;
            }
        }
        return if need > 0 {
            None
        } else {
            Some((local, borrows))
        };
    }
    lenders.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut borrows = Vec::new();
    for (free, id) in lenders {
        if need == 0 {
            break;
        }
        let take = free.min(need);
        borrows.push((id, take));
        need -= take;
    }
    if need > 0 {
        None
    } else {
        Some((local, borrows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 2 large (2000) + 2 normal (1000) nodes, lend cap 50%.
    fn mixed_cluster() -> Cluster {
        Cluster::new(vec![2000, 1000, 2000, 1000], 0.5)
    }

    fn exclusive(c: &Cluster, nodes: u32, request_mb: u64) -> Option<JobAlloc> {
        place_exclusive_with(c, nodes, request_mb, &mut PlacementScratch::new())
    }

    fn spread(c: &Cluster, nodes: u32, request_mb: u64) -> Option<JobAlloc> {
        place_spread_with(c, nodes, request_mb, &mut PlacementScratch::new())
    }

    #[test]
    fn baseline_needs_full_capacity() {
        let c = mixed_cluster();
        // 1500 MB fits only the two 2000-capacity nodes.
        let a = exclusive(&c, 2, 1500).unwrap();
        let ids: Vec<u32> = a.entries.iter().map(|e| e.node.0).collect();
        assert_eq!(ids, vec![0, 2]);
        // Full node allocated (exclusive access).
        assert!(a
            .entries
            .iter()
            .all(|e| e.local_mb == 2000 && e.remote.is_empty()));
        // Three such nodes don't exist.
        assert!(exclusive(&c, 3, 1500).is_none());
    }

    #[test]
    fn baseline_best_fit_prefers_small_nodes() {
        let c = mixed_cluster();
        let a = exclusive(&c, 2, 800).unwrap();
        let ids: Vec<u32> = a.entries.iter().map(|e| e.node.0).collect();
        assert_eq!(ids, vec![1, 3], "small jobs should use normal nodes");
    }

    #[test]
    fn static_local_when_possible() {
        let c = mixed_cluster();
        let a = spread(&c, 2, 900).unwrap();
        // Best fit: the 1000-MB nodes take it, fully local.
        let ids: Vec<u32> = a.entries.iter().map(|e| e.node.0).collect();
        assert_eq!(ids, vec![1, 3]);
        assert!(a
            .entries
            .iter()
            .all(|e| e.local_mb == 900 && e.remote.is_empty()));
    }

    #[test]
    fn static_borrows_when_needed() {
        let c = mixed_cluster();
        // 1500/node on 3 nodes: two 2000-nodes fit locally; third entry on a
        // 1000-node borrows 500.
        let a = spread(&c, 3, 1500).unwrap();
        assert_eq!(a.total_mb(), 4500);
        let borrowed: u64 = a.remote_mb();
        assert_eq!(borrowed, 500);
        // The lender must be the remaining idle node.
        for e in &a.entries {
            for &(lender, _) in &e.remote {
                assert!(!a.entries.iter().any(|x| x.node == lender));
            }
        }
    }

    #[test]
    fn static_fails_when_pool_exhausted() {
        let c = mixed_cluster();
        // 4 nodes × 2500 MB = 10000 > total 6000.
        assert!(spread(&c, 4, 2500).is_none());
    }

    #[test]
    fn static_can_exceed_node_capacity_via_borrowing() {
        let c = mixed_cluster();
        // A 1-node job needing 2500 (> any node) borrows 500.
        let a = spread(&c, 1, 2500).unwrap();
        assert_eq!(a.entries[0].local_mb, 2000);
        assert_eq!(a.remote_mb(), 500);
        // Baseline cannot run it at all.
        assert!(exclusive(&c, 1, 2500).is_none());
    }

    #[test]
    fn placement_respects_busy_nodes() {
        let mut c = mixed_cluster();
        let a = spread(&c, 2, 1800).unwrap();
        c.start_job(JobId(1), a, 1.0);
        // The two large nodes are busy; a second large-memory job needs
        // borrowing from... remaining free: nodes 1,3 (1000 each) + 2×200.
        let b = spread(&c, 2, 1200);
        let b = b.expect("should borrow to fit");
        assert_eq!(b.total_mb(), 2400);
        assert!(b.remote_mb() > 0);
    }

    #[test]
    fn lend_cap_blocks_scheduling_not_lending() {
        let mut c = Cluster::new(vec![1000; 3], 0.5);
        // Job on node 0 borrows 600 from node 1 → node 1 over the cap.
        let alloc = JobAlloc {
            entries: vec![AllocEntry {
                node: NodeId(0),
                local_mb: 1000,
                remote: vec![(NodeId(1), 600)],
            }],
        };
        c.start_job(JobId(1), alloc, 1.0);
        // Node 1 (memory node) must not be selected as compute.
        let a = spread(&c, 1, 500).unwrap();
        assert_eq!(a.entries[0].node, NodeId(2));
        // Only node 2 is schedulable; a 2-node job must fail.
        assert!(spread(&c, 2, 100).is_none());
        // But node 1 can still lend its remaining 400.
        let b = spread(&c, 1, 1400).unwrap();
        assert!(b.remote_mb() >= 400);
    }

    #[test]
    fn plan_growth_local_first() {
        let mut c = Cluster::new(vec![1000; 3], 0.5);
        c.start_job(
            JobId(1),
            JobAlloc {
                entries: vec![AllocEntry {
                    node: NodeId(0),
                    local_mb: 400,
                    remote: vec![],
                }],
            },
            1.0,
        );
        // Need 800 more: 600 local remain, 200 borrowed.
        let (local, borrows) = plan_growth(&c, NodeId(0), &[NodeId(0)], 800).unwrap();
        assert_eq!(local, 600);
        assert_eq!(borrows.iter().map(|&(_, m)| m).sum::<u64>(), 200);
        assert!(borrows.iter().all(|&(l, _)| l != NodeId(0)));
    }

    #[test]
    fn plan_growth_zero_need() {
        let c = Cluster::new(vec![1000; 2], 0.5);
        assert_eq!(
            plan_growth(&c, NodeId(0), &[NodeId(0)], 0),
            Some((0, vec![]))
        );
    }

    #[test]
    fn plan_growth_fails_on_exhaustion() {
        let mut c = Cluster::new(vec![1000; 2], 0.5);
        c.start_job(
            JobId(1),
            JobAlloc {
                entries: vec![AllocEntry {
                    node: NodeId(0),
                    local_mb: 1000,
                    remote: vec![(NodeId(1), 900)],
                }],
            },
            1.0,
        );
        // Only 100 MB free in the whole system.
        assert!(plan_growth(&c, NodeId(0), &[NodeId(0)], 200).is_none());
        assert!(plan_growth(&c, NodeId(0), &[NodeId(0)], 100).is_some());
    }

    use crate::job::JobId;
}
