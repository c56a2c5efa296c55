//! The fault surface: node crash/repair, pool-blade degradation, and
//! lender revocation. All mutations route through [`Cluster::touch`] so
//! the free/schedulable indexes and offline accounting stay exact.

use super::alloc::{mb_add, mb_sub};
use super::{Cluster, NodeId};
use crate::job::JobId;

impl Cluster {
    /// Mark a node as crashed. The caller (the simulation's fault
    /// handler) is responsible for evacuating the resident job and
    /// revoking borrows — this only flips the node out of the free and
    /// schedulable indexes and into the offline accounting.
    ///
    /// # Panics
    /// Panics if the node is already down.
    pub fn set_node_down(&mut self, id: NodeId) {
        let (down, cap, degraded) = {
            let n = self.node(id);
            (n.down, n.capacity_mb, n.degraded_mb)
        };
        assert!(!down, "{id:?} is already down");
        self.total_offline_mb = mb_add(self.total_offline_mb, cap - degraded);
        self.down_count += 1;
        self.touch(id, |n| n.down = true);
        self.debug_check();
    }

    /// Complete a node's repair: it rejoins the pool with whatever
    /// capacity is not still degraded.
    ///
    /// # Panics
    /// Panics if the node is not down.
    pub fn repair_node(&mut self, id: NodeId) {
        let (down, cap, degraded) = {
            let n = self.node(id);
            (n.down, n.capacity_mb, n.degraded_mb)
        };
        assert!(down, "{id:?} is not down");
        self.total_offline_mb = mb_sub(self.total_offline_mb, cap - degraded);
        self.down_count -= 1;
        self.touch(id, |n| n.down = false);
        self.debug_check();
    }

    /// Take `mb` of a node's capacity out of the pool (blade
    /// degradation). The caller must have reclaimed enough memory first:
    /// the node's allocation must fit in the remaining capacity.
    ///
    /// # Panics
    /// Panics if the degraded slice would not fit the capacity or would
    /// overlap allocated memory.
    pub fn apply_degrade(&mut self, id: NodeId, mb: u64) {
        assert!(mb > 0, "zero-size degrade");
        let (down, degraded) = {
            let n = self.node(id);
            let degraded = mb_add(n.degraded_mb, mb);
            assert!(
                degraded <= n.capacity_mb,
                "{id:?}: degrade {degraded} exceeds capacity {}",
                n.capacity_mb
            );
            assert!(
                n.local_alloc_mb + n.lent_mb <= n.capacity_mb - degraded,
                "{id:?}: degrade overlaps allocated memory"
            );
            (n.down, degraded)
        };
        if !down {
            self.total_offline_mb = mb_add(self.total_offline_mb, mb);
        }
        self.touch(id, |n| n.degraded_mb = degraded);
        self.debug_check();
    }

    /// Return a previously degraded slice to the pool.
    ///
    /// # Panics
    /// Panics if `mb` exceeds the node's outstanding degradation.
    pub fn restore_degrade(&mut self, id: NodeId, mb: u64) {
        let (down, degraded) = {
            let n = self.node(id);
            (n.down, mb_sub(n.degraded_mb, mb))
        };
        if !down {
            self.total_offline_mb = mb_sub(self.total_offline_mb, mb);
        }
        self.touch(id, |n| n.degraded_mb = degraded);
        self.debug_check();
    }

    /// Revoke every slice `job` borrows from `lender`, returning the
    /// lost MB per compute node so the fault handler can try to re-grow
    /// the allocation elsewhere. Used when a lender crashes or loses
    /// blade capacity.
    ///
    /// # Panics
    /// Panics if the job is not placed.
    pub fn revoke_lender(
        &mut self,
        job: JobId,
        lender: NodeId,
        bandwidth_gbs: f64,
    ) -> Vec<(NodeId, u64)> {
        let mut alloc = self.take_alloc(job, "revoke");
        let mut lost: Vec<(NodeId, u64)> = Vec::new();
        let mut total = 0u64;
        for e in &mut alloc.entries {
            let mut here = 0u64;
            e.remote.retain(|&(l, mb)| {
                if l == lender {
                    here = mb_add(here, mb);
                    false
                } else {
                    true
                }
            });
            if here > 0 {
                lost.push((e.node, here));
                total = mb_add(total, here);
            }
        }
        if total > 0 {
            self.touch(lender, |n| n.lent_mb = mb_sub(n.lent_mb, total));
            let cross = lost
                .iter()
                .filter(|&&(node, _)| self.is_cross(node, lender))
                .map(|&(_, mb)| mb)
                .sum();
            self.debit(job, 0, total, cross);
            self.unlink_borrower(lender, job);
        }
        self.put_alloc(job, alloc);
        self.bump_alloc_version(job);
        self.refresh_demand(job, bandwidth_gbs);
        self.debug_check();
        lost
    }
}
