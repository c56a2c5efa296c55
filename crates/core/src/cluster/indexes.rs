//! The incremental free-memory indexes and the whole-cluster invariant
//! audit that keeps them honest.
//!
//! Every index is a `BTreeMap<free_mb, Bucket>` with ids ascending
//! within each bucket, so forward iteration yields `(free asc, id asc)`
//! and reverse bucket iteration yields `(free desc, id asc)` — exactly
//! the two orders the placement policy sorts by. Free MB values are
//! nearly always distinct per node, so a bucket holds its lone node
//! inline and allocates only for ties: re-keying a node (every ledger
//! change does) costs two tree operations and no heap traffic. The
//! indexes are maintained solely by [`Cluster::touch`];
//! [`Cluster::check_invariants`] compares them against a from-scratch
//! rebuild.

use super::{Cluster, NodeId};
use crate::error::CoreError;
use crate::job::JobId;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap};

/// The nodes indexed at one free-memory value.
#[derive(Clone, Debug)]
pub(super) enum Bucket {
    /// A single node, stored inline.
    One(NodeId),
    /// Two or more tied nodes, ids ascending.
    Many(Vec<NodeId>),
}

impl Bucket {
    /// The bucket's node ids, ascending.
    #[inline]
    pub(super) fn ids(&self) -> &[NodeId] {
        match self {
            Bucket::One(id) => std::slice::from_ref(id),
            Bucket::Many(ids) => ids,
        }
    }
}

/// A free-memory index: free MB → the nodes with exactly that much free.
pub(super) type FreeIndex = BTreeMap<u64, Bucket>;

/// Insert `id` into the `key` bucket, keeping ids sorted ascending.
pub(super) fn index_insert(index: &mut FreeIndex, key: u64, id: NodeId) {
    match index.entry(key) {
        Entry::Vacant(slot) => {
            slot.insert(Bucket::One(id));
        }
        Entry::Occupied(mut slot) => {
            let bucket = slot.get_mut();
            match bucket {
                Bucket::One(other) => {
                    debug_assert_ne!(*other, id, "{id:?} already indexed at {key}");
                    let pair = if *other < id {
                        vec![*other, id]
                    } else {
                        vec![id, *other]
                    };
                    *bucket = Bucket::Many(pair);
                }
                Bucket::Many(ids) => match ids.binary_search(&id) {
                    Ok(_) => debug_assert!(false, "{id:?} already indexed at {key}"),
                    Err(pos) => ids.insert(pos, id),
                },
            }
        }
    }
}

/// Remove `id` from the `key` bucket, dropping the bucket when empty
/// and storing a last tied node inline again.
pub(super) fn index_remove(index: &mut FreeIndex, key: u64, id: NodeId) {
    let Entry::Occupied(mut slot) = index.entry(key) else {
        panic!("index bucket missing");
    };
    let bucket = slot.get_mut();
    match bucket {
        Bucket::One(only) => {
            assert_eq!(*only, id, "node missing from index bucket");
            slot.remove();
        }
        Bucket::Many(ids) => {
            let pos = ids
                .binary_search(&id)
                .expect("node missing from index bucket");
            ids.remove(pos);
            if let [last] = ids[..] {
                *bucket = Bucket::One(last);
            }
        }
    }
}

/// Whether `index` holds exactly the buckets of `expected` (a rebuild
/// with ids ascending), each tie in a `Many` bucket of two or more.
fn index_matches(index: &FreeIndex, expected: &BTreeMap<u64, Vec<NodeId>>) -> bool {
    index.len() == expected.len()
        && index.iter().zip(expected).all(|((k, b), (ek, ids))| {
            k == ek && b.ids() == &ids[..] && !matches!(b, Bucket::Many(v) if v.len() < 2)
        })
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
        for (i, slot) in self.jobs.iter().enumerate() {
            let job = JobId(i as u32);
            let Some(alloc) = &slot.alloc else {
                if slot.version != 0 || !slot.demand.is_empty() {
                    return err(format!("{job} not placed but keeps ledger state"));
                }
                continue;
            };
            if slot.version == 0 {
                return err(format!("{job} placed without a version stamp"));
            }
            for e in &alloc.entries {
                let n = self.node(e.node);
                if n.running != Some(job) {
                    return err(format!("{job} allocated on {:?} but not running", e.node));
                }
                *local_expected.entry(e.node).or_insert(0) += e.local_mb;
                for &(lender, mb) in &e.remote {
                    *lent_expected.entry(lender).or_insert(0) += mb;
                }
            }
            alloc.lenders_into(&mut lenders);
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
        let mut remote_sum = 0u64;
        let mut cross_sum = 0u64;
        for alloc in self.jobs.iter().filter_map(|s| s.alloc.as_ref()) {
            for e in &alloc.entries {
                for &(lender, mb) in &e.remote {
                    remote_sum += mb;
                    if self.is_cross(e.node, lender) {
                        cross_sum += mb;
                    }
                }
            }
        }
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
        let mut sched_expected: BTreeMap<u64, Vec<NodeId>> = BTreeMap::new();
        let mut free_expected: BTreeMap<u64, Vec<NodeId>> = BTreeMap::new();
        let mut sched_count = 0usize;
        for (id, n) in self.iter() {
            if n.free_mb() > 0 {
                free_expected.entry(n.free_mb()).or_default().push(id);
            }
            if self.schedulable(id) {
                sched_expected.entry(n.free_mb()).or_default().push(id);
                sched_count += 1;
            }
        }
        if !index_matches(&self.free_index, &free_expected) {
            return err("free index out of sync with node ledgers".to_string());
        }
        if !index_matches(&self.sched_index, &sched_expected) {
            return err("schedulable index out of sync with node ledgers".to_string());
        }
        if sched_count != self.schedulable_count {
            return err(format!(
                "schedulable counter mismatch: rebuild {sched_count} vs counter {}",
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
            let mut rack_expected: Vec<BTreeMap<u64, Vec<NodeId>>> =
                vec![BTreeMap::new(); self.rack_free.len()];
            for (id, n) in self.iter() {
                if n.free_mb() > 0 {
                    rack_expected[self.topology.rack_of(id) as usize]
                        .entry(n.free_mb())
                        .or_default()
                        .push(id);
                }
            }
            if !rack_expected
                .iter()
                .zip(&self.rack_free)
                .all(|(expected, index)| index_matches(index, expected))
            {
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
