//! Full-scan twins of the indexed placement and growth planners.
//!
//! Each function here recomputes its answer from a scan and sort of the
//! whole node table, the way the planners worked before the cluster
//! kept free-memory indexes. They are the equivalence oracle:
//! [`place_exclusive_with`](crate::policy::place_exclusive_with),
//! [`place_spread_with`](crate::policy::place_spread_with) and
//! [`plan_growth`](crate::policy::plan_growth) `debug_assert_eq!` their
//! result against the twin here, so every simulation a debug build runs
//! cross-checks the indexed hot path call by call, while release builds
//! compile the checks out. Property tests and the reference side of
//! `SchedPassBench` call the twins directly.
//!
//! The contention inputs have twins here too: the speed refresh reads
//! [`Cluster::priced_remote_fraction`] and
//! [`Cluster::hottest_lender_demand_gbs`] off per-job cached totals and
//! demand rows, and `debug_assert`s both against the slice folds below
//! bit for bit.

use crate::cluster::{AllocEntry, Cluster, JobAlloc, NodeId, CROSS_RACK_WEIGHT};
use crate::job::JobId;

/// Schedulable nodes (idle and within the lend cap) as `(free, id)`,
/// collected by a full scan — the reference placements sort this per
/// call.
pub fn sched_scan(cluster: &Cluster) -> Vec<(u64, NodeId)> {
    cluster
        .iter()
        .filter(|&(id, _)| cluster.schedulable(id))
        .map(|(id, node)| (node.free_mb(), id))
        .collect()
}

/// Full-scan twin of [`place_exclusive_with`](crate::policy::place_exclusive_with).
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

/// Full-scan twin of [`place_spread_with`](crate::policy::place_spread_with).
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

/// Full-scan twin of the racked phase-2 spread placement: `sched` is
/// the [`sched_scan`] of `cluster`, and the lender pool is re-sorted
/// per entry by `(cross-rack?, free desc, id asc)` with original
/// free-memory keys, drained amounts living in a side overlay exactly
/// like the indexed implementation.
pub fn place_spread_racked_reference(
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

/// Full-scan twin of [`plan_growth`](crate::policy::plan_growth).
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

/// Slice-fold twin of [`Cluster::priced_remote_fraction`]: every remote
/// slice weighted by [`CROSS_RACK_WEIGHT`] when it crosses racks, over
/// the allocation's total.
pub fn priced_remote_fraction_reference(cluster: &Cluster, job: JobId) -> f64 {
    let Some(alloc) = cluster.alloc_of(job) else {
        return 0.0;
    };
    if cluster.is_flat() {
        return alloc.remote_fraction();
    }
    let total = alloc.total_mb();
    if total == 0 {
        return 0.0;
    }
    let mut weighted = 0.0;
    for e in &alloc.entries {
        for &(lender, mb) in &e.remote {
            let w = if cluster.is_cross(e.node, lender) {
                CROSS_RACK_WEIGHT
            } else {
                1.0
            };
            weighted += w * mb as f64;
        }
    }
    weighted / total as f64
}

/// Slice-fold twin of [`Cluster::hottest_lender_demand_gbs`]: the
/// maximum lender demand over every remote slice of the allocation.
pub fn hottest_lender_demand_reference(cluster: &Cluster, job: JobId) -> f64 {
    let Some(alloc) = cluster.alloc_of(job) else {
        return 0.0;
    };
    alloc
        .entries
        .iter()
        .flat_map(|e| &e.remote)
        .map(|&(l, _)| cluster.node(l).remote_demand_gbs)
        .fold(0.0, f64::max)
}
