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
//! and sort. The original full-scan implementations live in
//! [`crate::oracle`]: each planner here `debug_assert_eq!`s its result
//! against its twin there, so debug builds check every call and release
//! builds run only the indexed code.

use crate::cluster::{AllocEntry, Cluster, JobAlloc, NodeId};
use crate::oracle;

pub mod conservative;
pub mod overcommit;
pub mod predictive;
pub mod spec;

pub use conservative::ConservativeGrowth;
pub use overcommit::Overcommit;
pub use predictive::Predictive;
pub use spec::PolicySpec;

/// Reusable buffers for [`place_spread_with`]; owning one across calls
/// makes the placement hot path allocation-free apart from the returned
/// [`JobAlloc`] and its lender cursors.
#[derive(Clone, Debug, Default)]
pub struct PlacementScratch {
    /// Phase-2 compute-node selection as `(free, id)`.
    compute: Vec<(u64, NodeId)>,
    /// Per-node phase-2 mark, set on the job's compute nodes (which do
    /// not lend to it) and all clear between calls.
    mark: Vec<bool>,
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
pub fn place_exclusive_with(cluster: &Cluster, nodes: u32, request_mb: u64) -> Option<JobAlloc> {
    let alloc = place_exclusive_indexed(cluster, nodes, request_mb);
    debug_assert_eq!(
        alloc,
        oracle::place_exclusive_reference(cluster, nodes, request_mb),
        "indexed exclusive placement diverged from the full-scan oracle"
    );
    alloc
}

fn place_exclusive_indexed(cluster: &Cluster, nodes: u32, request_mb: u64) -> Option<JobAlloc> {
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
    // allocation must not touch. The index range walk yields best fit
    // (smallest adequate node first, preserving large nodes for large
    // jobs) directly, and knows its length.
    let fits = cluster.schedulable_by_free_asc(request_mb);
    if fits.len() < n {
        return None;
    }
    Some(JobAlloc {
        entries: fits
            .take(n)
            .map(|(free, id)| AllocEntry {
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
    let alloc = place_spread_indexed(cluster, nodes, request_mb, scratch);
    debug_assert_eq!(
        alloc,
        oracle::place_spread_reference(cluster, nodes, request_mb),
        "indexed spread placement diverged from the full-scan oracle"
    );
    alloc
}

fn place_spread_indexed(
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
    // directly, and knows its length, so a miss allocates nothing.
    let fits = cluster.schedulable_by_free_asc(request_mb);
    if fits.len() >= n {
        let entries = fits
            .take(n)
            .map(|(_, id)| AllocEntry {
                node: id,
                local_mb: request_mb,
                remote: vec![],
            })
            .collect();
        return Some(JobAlloc { entries });
    }
    // Phase 2: the n nodes with the most free memory become compute
    // nodes, on any topology (racks decide where a job borrows, not
    // where it runs); the rest of the free pool lends.
    scratch.compute.clear();
    scratch
        .compute
        .extend(cluster.schedulable_by_free_desc().take(n));
    // Pool-capacity early exit, before anything is allocated: the
    // entries together must borrow `Σ (req − min(free_i, req))`, and the
    // lenders (the free pool minus the compute nodes) hold
    // `lender free − Σ free_i`. On a one-rack fabric the borrow walk
    // below fails exactly when the first exceeds the second; on racked
    // ones that is one of its failure cases, so the exit is exact on
    // both.
    let (need, compute_free) = scratch
        .compute
        .iter()
        .fold((0u64, 0u64), |(need, sum), &(free, _)| {
            (need + (request_mb - free.min(request_mb)), sum + free)
        });
    if need > cluster.lender_free_mb() - compute_free {
        return None;
    }
    let PlacementScratch { compute, mark, .. } = scratch;
    if mark.len() < cluster.len() {
        mark.resize(cluster.len(), false);
    }
    for &(_, id) in compute.iter() {
        mark[id.0 as usize] = true;
    }
    // Each entry borrows what its node lacks, off one set of lender
    // cursors shared by the whole job, so the entries drain the pool in
    // turn.
    let mut lenders = cluster.lender_cursors(|id: NodeId| mark[id.0 as usize]);
    let mut entries = Vec::with_capacity(compute.len());
    for &(free, id) in compute.iter() {
        let local = free.min(request_mb);
        let Some(remote) = lenders.borrow(id, request_mb - local) else {
            break; // pool (or cross-rack budget) exhausted
        };
        entries.push(AllocEntry {
            node: id,
            local_mb: local,
            remote,
        });
    }
    for &(_, id) in compute.iter() {
        mark[id.0 as usize] = false;
    }
    (entries.len() == compute.len()).then_some(JobAlloc { entries })
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
    let plan = plan_growth_indexed(cluster, entry_node, compute_ids, need_mb);
    debug_assert_eq!(
        plan,
        oracle::plan_growth_reference(cluster, entry_node, compute_ids, need_mb),
        "indexed growth plan diverged from the full-scan oracle"
    );
    plan
}

fn plan_growth_indexed(
    cluster: &Cluster,
    entry_node: NodeId,
    compute_ids: &[NodeId],
    need_mb: u64,
) -> Option<(u64, Vec<(NodeId, u64)>)> {
    let local = cluster.node(entry_node).free_mb().min(need_mb);
    if local == need_mb {
        return Some((local, vec![]));
    }
    let borrows = cluster
        .lender_cursors(|id| compute_ids.contains(&id))
        .borrow(entry_node, need_mb - local)?;
    Some((local, borrows))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 2 large (2000) + 2 normal (1000) nodes, lend cap 50%.
    fn mixed_cluster() -> Cluster {
        Cluster::new(vec![2000, 1000, 2000, 1000], 0.5)
    }

    fn exclusive(c: &Cluster, nodes: u32, request_mb: u64) -> Option<JobAlloc> {
        place_exclusive_with(c, nodes, request_mb)
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
