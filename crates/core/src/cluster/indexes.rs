//! The incremental free-memory indexes and the whole-cluster invariant
//! audit that keeps them honest.
//!
//! Every index is one sorted `Vec<u64>` of packed keys
//! `free_mb << 32 | node_id`, ascending. Ascending key order is exactly
//! `(free asc, id asc)`, and walking the array from its end while
//! yielding each tie run front to back gives `(free desc, id asc)` —
//! the two orders the placement policy sorts by. Re-keying a node
//! (every ledger change does) costs two binary searches and a shift of
//! the keys between its old and new positions: no allocation and no
//! pointer chasing. The shift is linear in the number of indexed
//! nodes; that beats a B-tree up to a few thousand nodes but not at
//! ten thousand (DESIGN.md §9). The packed key needs
//! `capacity_mb <= u32::MAX`, which [`Cluster::new_with_topology`]
//! asserts. The indexes are maintained solely by [`Cluster::touch`];
//! [`Cluster::check_invariants`] compares them against a from-scratch
//! rebuild.

use super::{Cluster, NodeId};
use crate::error::CoreError;
use crate::job::JobId;
use std::collections::HashMap;

/// The packed index key of `id` at `free` MB.
#[inline]
fn pack(free: u64, id: NodeId) -> u64 {
    debug_assert!(free <= u64::from(u32::MAX), "{free} MB does not fit a key");
    free << 32 | u64::from(id.0)
}

/// The `(free, id)` pair of a packed key.
#[inline]
fn unpack(key: u64) -> (u64, NodeId) {
    (key >> 32, NodeId(key as u32))
}

/// A free-memory index: the packed keys of its nodes, sorted ascending.
#[derive(Clone, Debug, Default)]
pub(super) struct FreeIndex {
    keys: Vec<u64>,
}

impl FreeIndex {
    /// Index `id` at `free` MB.
    pub(super) fn insert(&mut self, free: u64, id: NodeId) {
        let key = pack(free, id);
        match self.keys.binary_search(&key) {
            Ok(_) => panic!("{id:?} already indexed at {free}"),
            Err(pos) => self.keys.insert(pos, key),
        }
    }

    /// Drop `id`, indexed at `free` MB.
    pub(super) fn remove(&mut self, free: u64, id: NodeId) {
        let pos = self
            .keys
            .binary_search(&pack(free, id))
            .expect("node missing from index");
        self.keys.remove(pos);
    }

    /// Move `id` from `old` to `new` free MB, shifting only the keys
    /// between its old and new positions.
    pub(super) fn rekey(&mut self, old: u64, new: u64, id: NodeId) {
        let (old_key, new_key) = (pack(old, id), pack(new, id));
        let pos = self
            .keys
            .binary_search(&old_key)
            .expect("node missing from index");
        if new_key > old_key {
            let end = pos + 1 + self.keys[pos + 1..].partition_point(|&k| k < new_key);
            self.keys.copy_within(pos + 1..end, pos);
            self.keys[end - 1] = new_key;
        } else {
            let start = self.keys[..pos].partition_point(|&k| k < new_key);
            self.keys.copy_within(start..pos, start + 1);
            self.keys[start] = new_key;
        }
    }

    /// Nodes with at least `min_free` MB free, `(free asc, id asc)`.
    pub(super) fn asc_from(
        &self,
        min_free: u64,
    ) -> impl ExactSizeIterator<Item = (u64, NodeId)> + '_ {
        let start = self.keys.partition_point(|&k| k >> 32 < min_free);
        self.keys[start..].iter().map(|&k| unpack(k))
    }

    /// Every node, `(free desc, id asc)`: tie runs from the back of
    /// the array, each read front to back.
    pub(super) fn desc(&self) -> impl Iterator<Item = (u64, NodeId)> + '_ {
        self.keys
            .chunk_by(|a, b| a >> 32 == b >> 32)
            .rev()
            .flatten()
            .map(|&k| unpack(k))
    }

    /// The packed keys, ascending; for the invariant audit.
    pub(super) fn keys(&self) -> &[u64] {
        &self.keys
    }
}

/// The index a from-scratch rebuild would hold for `nodes`.
fn rebuild(nodes: impl Iterator<Item = (u64, NodeId)>) -> Vec<u64> {
    let mut keys: Vec<u64> = nodes.map(|(free, id)| pack(free, id)).collect();
    keys.sort_unstable();
    keys
}

impl Cluster {
    /// Full invariant check; `debug_assert!`ed after every mutation and
    /// callable from tests.
    pub fn check_invariants(&self) -> Result<(), CoreError> {
        let err = |msg: String| Err(CoreError::Ledger(msg));
        let mut lent_expected: HashMap<NodeId, u64> = HashMap::new();
        let mut local_expected: HashMap<NodeId, u64> = HashMap::new();
        // Borrower-index links a placed job's lenders must have; the
        // lists may hold nothing else.
        let mut links = 0usize;
        let mut lenders = Vec::new();
        let (mut remote_sum, mut cross_sum) = (0u64, 0u64);
        for (i, slot) in self.jobs.iter().enumerate() {
            let job = JobId(i as u32);
            let totals = (slot.total_mb, slot.remote_mb, slot.cross_mb);
            let Some(alloc) = &slot.alloc else {
                if slot.version != 0 || !slot.demand.is_empty() || totals != (0, 0, 0) {
                    return err(format!("{job} not placed but keeps ledger state"));
                }
                continue;
            };
            if slot.version == 0 {
                return err(format!("{job} placed without a version stamp"));
            }
            // The job's cached totals must match a rebuild from its
            // entries exactly.
            let mut rebuilt = (0u64, 0u64, 0u64);
            for e in &alloc.entries {
                let n = self.node(e.node);
                if n.running != Some(job) {
                    return err(format!("{job} allocated on {:?} but not running", e.node));
                }
                *local_expected.entry(e.node).or_insert(0) += e.local_mb;
                rebuilt.0 += e.local_mb;
                for &(lender, mb) in &e.remote {
                    *lent_expected.entry(lender).or_insert(0) += mb;
                    rebuilt.0 += mb;
                    rebuilt.1 += mb;
                    if self.is_cross(e.node, lender) {
                        rebuilt.2 += mb;
                    }
                }
            }
            if totals != rebuilt {
                return err(format!(
                    "{job} cached (total, remote, cross) MB {totals:?} vs rebuild {rebuilt:?}"
                ));
            }
            remote_sum += rebuilt.1;
            cross_sum += rebuilt.2;
            alloc.lenders_into(&mut lenders);
            if !self.job_lenders(job).eq(lenders.iter().copied()) {
                return err(format!("{job} demand rows differ from its lenders"));
            }
            for &l in &lenders {
                if !self.borrowers_of(l).contains(&job) {
                    return err(format!("{job} borrows from {l:?} but is not indexed there"));
                }
            }
            links += lenders.len();
        }
        if self.borrowers.iter().map(Vec::len).sum::<usize>() != links {
            return err("borrower index holds stale links".to_string());
        }
        for (id, n) in self.iter() {
            if n.local_alloc_mb + n.lent_mb + n.degraded_mb > n.capacity_mb {
                return err(format!("{id:?} over capacity"));
            }
            if n.local_alloc_mb != local_expected.get(&id).copied().unwrap_or(0) {
                return err(format!("{id:?} local ledger mismatch"));
            }
            if n.lent_mb != lent_expected.get(&id).copied().unwrap_or(0) {
                return err(format!("{id:?} lent ledger mismatch"));
            }
            if n.running.is_none() && n.local_alloc_mb != 0 {
                return err(format!("{id:?} idle but has local allocation"));
            }
            if n.remote_demand_gbs < -1e-9 {
                return err(format!("{id:?} negative demand"));
            }
        }
        let idle = self.nodes.iter().filter(|n| n.running.is_none()).count();
        if idle != self.idle_nodes {
            return err("idle counter mismatch".to_string());
        }
        let down = self.nodes.iter().filter(|n| n.down).count();
        if down != self.down_count {
            return err(format!(
                "down counter mismatch: rebuild {down} vs counter {}",
                self.down_count
            ));
        }
        let offline_sum: u64 = self
            .nodes
            .iter()
            .map(|n| if n.down { n.capacity_mb } else { n.degraded_mb })
            .sum();
        if offline_sum != self.total_offline_mb {
            return err(format!(
                "offline counter mismatch: rebuild {offline_sum} vs counter {}",
                self.total_offline_mb
            ));
        }
        let alloc_sum: u64 = self
            .nodes
            .iter()
            .map(|n| n.local_alloc_mb + n.lent_mb)
            .sum();
        if alloc_sum != self.total_alloc_mb {
            return err(format!(
                "allocated counter mismatch: ledger {alloc_sum} vs counter {}",
                self.total_alloc_mb
            ));
        }
        // The remote/cross-rack occupancy counters must match a rebuild
        // from the allocation ledger.
        if remote_sum != self.total_remote_mb {
            return err(format!(
                "remote counter mismatch: rebuild {remote_sum} vs counter {}",
                self.total_remote_mb
            ));
        }
        if cross_sum != self.total_cross_mb {
            return err(format!(
                "cross-rack counter mismatch: rebuild {cross_sum} vs counter {}",
                self.total_cross_mb
            ));
        }
        // The incremental indexes must match a from-scratch rebuild.
        let free_expected = rebuild(
            self.iter()
                .filter(|(_, n)| n.free_mb() > 0)
                .map(|(id, n)| (n.free_mb(), id)),
        );
        let sched_expected = rebuild(
            self.iter()
                .filter(|&(id, _)| self.schedulable(id))
                .map(|(id, n)| (n.free_mb(), id)),
        );
        if self.free_index.keys() != &free_expected[..] {
            return err("free index out of sync with node ledgers".to_string());
        }
        let lender_free: u64 = free_expected.iter().map(|&k| unpack(k).0).sum();
        if lender_free != self.lender_free_mb {
            return err(format!(
                "lender free counter mismatch: rebuild {lender_free} vs counter {}",
                self.lender_free_mb
            ));
        }
        if self.sched_index.keys() != &sched_expected[..] {
            return err("schedulable index out of sync with node ledgers".to_string());
        }
        if sched_expected.len() != self.schedulable_count {
            return err(format!(
                "schedulable counter mismatch: rebuild {} vs counter {}",
                sched_expected.len(),
                self.schedulable_count
            ));
        }
        // Per-rack lender indexes exist exactly when the topology has
        // more than one rack, and must match a per-rack rebuild.
        if self.rack_free.is_empty() {
            if self.topology.racks() > 1 {
                return err("multi-rack topology without rack indexes".to_string());
            }
        } else {
            if self.rack_free.len() != self.topology.racks() as usize {
                return err("rack index count mismatch".to_string());
            }
            let mut rack_expected = vec![Vec::new(); self.rack_free.len()];
            for (id, n) in self.iter() {
                if n.free_mb() > 0 {
                    rack_expected[self.topology.rack_of(id) as usize].push(pack(n.free_mb(), id));
                }
            }
            let in_sync = rack_expected
                .iter_mut()
                .zip(&self.rack_free)
                .all(|(expected, index)| {
                    expected.sort_unstable();
                    index.keys() == &expected[..]
                });
            if !in_sync {
                return err("rack lender indexes out of sync with node ledgers".to_string());
            }
        }
        Ok(())
    }

    #[inline]
    pub(super) fn debug_check(&self) {
        debug_assert_eq!(self.check_invariants(), Ok(()));
    }
}
