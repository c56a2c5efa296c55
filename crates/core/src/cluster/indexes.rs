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
//!
//! The lender pool is one index per rack and nothing beside it (a flat
//! cluster has one rack). A borrow plan reads it through
//! [`LenderCursors`], one cursor per rack: an entry borrows from its
//! home rack's walk first and, only if that runs out, from a merge of
//! the other racks' heads by the same key. Merging sorted sequences of
//! disjoint nodes yields the order one global index would, so no global
//! index is kept.

use super::{Cluster, NodeId, Topology};
use crate::error::CoreError;
use crate::job::JobId;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
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
    pub(super) fn desc(&self) -> Desc<'_> {
        Desc {
            rest: &self.keys,
            run: [].iter(),
        }
    }

    /// The packed keys, ascending; for the invariant audit.
    pub(super) fn keys(&self) -> &[u64] {
        &self.keys
    }
}

/// A walk of one index in `(free desc, id asc)` order.
#[derive(Clone, Debug)]
pub(super) struct Desc<'a> {
    /// The keys not yet reached, all below the current tie run.
    rest: &'a [u64],
    /// What is left of the current tie run, read front to back.
    run: std::slice::Iter<'a, u64>,
}

impl Iterator for Desc<'_> {
    type Item = (u64, NodeId);

    #[inline]
    fn next(&mut self) -> Option<(u64, NodeId)> {
        if let Some(&key) = self.run.next() {
            return Some(unpack(key));
        }
        let &last = self.rest.last()?;
        let start = self
            .rest
            .iter()
            .rposition(|&k| k >> 32 != last >> 32)
            .map_or(0, |p| p + 1);
        let (rest, run) = self.rest.split_at(start);
        self.rest = rest;
        self.run = run[1..].iter();
        Some(unpack(run[0]))
    }
}

/// One rack's place in a borrow plan: its lender walk, positioned
/// just past `head`, the first lender the plan has not drained.
#[derive(Debug)]
struct Cursor<'a> {
    walk: Desc<'a>,
    /// `(free, id, MB left)` of the head; `None` until pulled off the
    /// walk.
    head: Option<(u64, NodeId, u64)>,
}

impl Cursor<'_> {
    /// The head, pulling the next lender `skip` lets through once the
    /// last one is drained.
    #[inline]
    fn head(&mut self, skip: &impl Fn(NodeId) -> bool) -> Option<(u64, NodeId, u64)> {
        if self.head.is_none() {
            self.head = self
                .walk
                .find(|&(_, id)| !skip(id))
                .map(|(free, id)| (free, id, free));
        }
        self.head
    }

    /// Take `mb` of what the head has left, moving past it once it is
    /// drained.
    #[inline]
    fn take(&mut self, mb: u64) {
        if let Some((_, _, left)) = &mut self.head {
            *left -= mb;
            if *left == 0 {
                self.head = None;
            }
        }
    }
}

/// The lender pool as one placement or growth plan sees it: a cursor
/// per rack, over the nodes `skip` lets through (the plan's compute
/// nodes are not lenders). A plan drains each rack's lenders in its
/// walk order — the home rack from the top, the other racks by their
/// heads in the cross-rack merge — so each rack's drained lenders are
/// a prefix of its walk and one cursor per rack replaces any re-walk.
#[derive(Debug)]
pub(crate) struct LenderCursors<'a, S> {
    topology: &'a Topology,
    cursors: Vec<Cursor<'a>>,
    /// The other racks' heads as `(free << 32 | !id, rack)`, so the
    /// max-heap's top is the `(free desc, id asc)` first; rebuilt by
    /// each borrow that leaves its home rack and empty until one does.
    pub(super) heads: BinaryHeap<(u64, u32)>,
    skip: S,
}

impl<'a, S: Fn(NodeId) -> bool> LenderCursors<'a, S> {
    pub(super) fn new(racks: &'a [FreeIndex], topology: &'a Topology, skip: S) -> Self {
        let cursors = racks
            .iter()
            .map(|index| Cursor {
                walk: index.desc(),
                head: None,
            })
            .collect();
        LenderCursors {
            topology,
            cursors,
            heads: BinaryHeap::new(),
            skip,
        }
    }

    /// Borrow `need` MB for an entry homed on `home`: the home rack's
    /// lenders first, then the other racks' by `(free desc, id asc)`,
    /// taking at most the topology's cross budget for `need` across
    /// racks. Returns the `(lender, MB)` slices in walk order, or
    /// `None` when the pool or the cross budget runs out.
    pub(crate) fn borrow(&mut self, home: NodeId, mut need: u64) -> Option<Vec<(NodeId, u64)>> {
        // The budget is the cap's share of the entry's whole remote
        // need, not of what the home rack leaves.
        let budget_of = need;
        let home_rack = self.topology.rack_of(home) as usize;
        let skip = &self.skip;
        let mut remote = Vec::new();
        let cursor = &mut self.cursors[home_rack];
        while need > 0 {
            let Some((_, id, left)) = cursor.head(skip) else {
                break;
            };
            let take = left.min(need);
            remote.push((id, take));
            cursor.take(take);
            need -= take;
        }
        if need == 0 {
            return Some(remote);
        }
        let mut cross_budget = self.topology.cross_budget(budget_of);
        if cross_budget == 0 {
            return None;
        }
        self.heads.clear();
        for (rack, cursor) in self.cursors.iter_mut().enumerate() {
            if rack != home_rack {
                if let Some((free, id, _)) = cursor.head(skip) {
                    self.heads.push((rank(free, id), rack as u32));
                }
            }
        }
        while need > 0 && cross_budget > 0 {
            let Some(mut top) = self.heads.peek_mut() else {
                break;
            };
            let cursor = &mut self.cursors[top.1 as usize];
            let (_, id, left) = cursor.head(skip).expect("a merged rack has a head");
            let take = left.min(need).min(cross_budget);
            remote.push((id, take));
            cursor.take(take);
            need -= take;
            cross_budget -= take;
            match cursor.head(skip) {
                Some((free, id, _)) => top.0 = rank(free, id),
                None => {
                    PeekMut::pop(top);
                }
            }
        }
        (need == 0).then_some(remote)
    }
}

/// A merge key whose descending order is `(free desc, id asc)`.
#[inline]
fn rank(free: u64, id: NodeId) -> u64 {
    free << 32 | u64::from(!id.0)
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
        // The incremental indexes must match a from-scratch rebuild:
        // one lender index per rack, then the schedulable index.
        if self.rack_lenders.len() != self.topology.racks() as usize {
            return err(format!(
                "{} rack lender indexes for {} racks",
                self.rack_lenders.len(),
                self.topology.racks()
            ));
        }
        let mut rack_expected = vec![Vec::new(); self.rack_lenders.len()];
        let mut lender_free = 0u64;
        for (id, n) in self.iter() {
            if n.free_mb() > 0 {
                rack_expected[self.topology.rack_of(id) as usize].push(pack(n.free_mb(), id));
                lender_free += n.free_mb();
            }
        }
        for (rack, (expected, index)) in
            rack_expected.iter_mut().zip(&self.rack_lenders).enumerate()
        {
            expected.sort_unstable();
            if index.keys() != &expected[..] {
                return err(format!(
                    "rack {rack} lender index out of sync with node ledgers"
                ));
            }
        }
        if lender_free != self.lender_free_mb {
            return err(format!(
                "lender free counter mismatch: rebuild {lender_free} vs counter {}",
                self.lender_free_mb
            ));
        }
        let sched_expected = rebuild(
            self.iter()
                .filter(|&(id, _)| self.schedulable(id))
                .map(|(id, n)| (n.free_mb(), id)),
        );
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
        Ok(())
    }

    #[inline]
    pub(super) fn debug_check(&self) {
        debug_assert_eq!(self.check_invariants(), Ok(()));
    }
}
