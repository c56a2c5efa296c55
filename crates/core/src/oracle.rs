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
    // Phase 2: nodes with the most free memory + borrowing.
    // Sort descending by free, ascending by id for determinism.
    sched.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let compute = &sched[..n];
    let compute_ids: Vec<NodeId> = compute.iter().map(|&(_, id)| id).collect();
    let mut pool = lender_pool(cluster, &compute_ids);
    // The pool's lenders before `first` are drained: skipping them keeps
    // a flat placement one pass over the pool.
    let mut first = 0;
    let mut entries = Vec::with_capacity(n);
    for &(free, id) in compute {
        let local = free.min(request_mb);
        let remote = borrow_reference(cluster, &mut pool[first..], id, request_mb - local)?;
        first += pool[first..].iter().take_while(|l| l.1 == 0).count();
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
    let local = cluster.node(entry_node).free_mb().min(need_mb);
    let mut pool = lender_pool(cluster, compute_ids);
    let borrows = borrow_reference(cluster, &mut pool, entry_node, need_mb - local)?;
    Some((local, borrows))
}

/// The lender pool of a plan whose compute nodes are `exclude`: every
/// other node with free memory as `(id, MB left)`, sorted by
/// `(free desc, id asc)`. Borrows lower the left column in place.
pub(crate) fn lender_pool(cluster: &Cluster, exclude: &[NodeId]) -> Vec<(NodeId, u64)> {
    let mut pool: Vec<(NodeId, u64)> = cluster
        .iter()
        .filter(|(id, node)| node.free_mb() > 0 && !exclude.contains(id))
        .map(|(id, node)| (id, node.free_mb()))
        .collect();
    pool.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    pool
}

/// Borrow `need` MB from `pool` for an entry homed on `home`: one pass
/// over the home rack's lenders in pool order, then one over every
/// other rack's, whose takes together stay within the topology's cross
/// budget for `need`. `None` when the pool or the budget runs out.
pub(crate) fn borrow_reference(
    cluster: &Cluster,
    pool: &mut [(NodeId, u64)],
    home: NodeId,
    mut need: u64,
) -> Option<Vec<(NodeId, u64)>> {
    let mut cross_budget = cluster.topology().cross_budget(need);
    let mut remote = Vec::new();
    for cross in [false, true] {
        for (id, left) in pool.iter_mut() {
            if need == 0 {
                break;
            }
            if cluster.is_cross(home, *id) != cross {
                continue;
            }
            let cap = if cross { cross_budget } else { need };
            let take = (*left).min(need).min(cap);
            if take == 0 {
                continue;
            }
            remote.push((*id, take));
            *left -= take;
            need -= take;
            if cross {
                cross_budget -= take;
            }
        }
    }
    (need == 0).then_some(remote)
}

/// Slice-fold twin of [`Cluster::priced_remote_fraction`]: every remote
/// slice weighted by [`CROSS_RACK_WEIGHT`] when it crosses racks, over
/// the allocation's total.
pub fn priced_remote_fraction_reference(cluster: &Cluster, job: JobId) -> f64 {
    let Some(alloc) = cluster.alloc_of(job) else {
        return 0.0;
    };
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
