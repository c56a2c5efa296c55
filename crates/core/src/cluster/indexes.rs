//! The free-memory indexes and the whole-cluster invariant audit that
//! keeps them honest.
//!
//! Every index is one sorted `Vec<u64>` of packed keys
//! `free_mb << 32 | node_id`, ascending. Ascending key order is exactly
//! `(free asc, id asc)`, and walking the array from its end while
//! yielding each tie run front to back gives `(free desc, id asc)` —
//! the two orders the placement policy sorts by. Re-keying a node
//! costs two binary searches and a shift of the keys between its old
//! and new positions: no allocation and no pointer chasing. The shift
//! is linear in the number of indexed nodes; that beats a B-tree up to
//! a few thousand nodes but not at ten thousand (DESIGN.md §9). The
//! packed key needs `capacity_mb <= u32::MAX`, which
//! [`Cluster::new_with_topology`] asserts.
//!
//! The schedulable index is eager: [`Cluster::touch`] re-keys it on
//! every ledger change, because every placement attempt reads it.
//!
//! The lender pool is one index per rack and nothing beside it (a flat
//! cluster has one rack), held in a [`LenderPool`] that is lazy: a
//! ledger change only marks its node changed, and the first borrow
//! plan after it brings each changed rack up to date in one batch —
//! node by node for a few changed nodes, one merge pass for many
//! ([`merges`] states the cut-over). Ledger changes outnumber plans
//! that borrow about 4 to 22 times over, and a node changed several
//! times between two plans is re-keyed once. A borrow plan reads the
//! pool through [`LenderCursors`], one cursor per rack: an entry
//! borrows from its home rack's walk first and, only if that runs out,
//! from a merge of the other racks' heads by the same key. Merging
//! sorted sequences of disjoint nodes yields the order one global index
//! would, so no global index is kept.
//!
//! [`Cluster::check_invariants`] compares the schedulable index with a
//! rebuild from the node ledgers, and each rack index with a rebuild
//! from the MB its keys hold; it never syncs, so the lazy state it
//! audits is the state the next plan reads.

use super::{Cluster, Node, NodeId, Topology};
use crate::error::CoreError;
use crate::job::JobId;
use std::cell::Ref;
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

    /// Drop the key of every node `stale` flags and merge in `fresh`,
    /// packed keys sorted ascending: one pass over the index, filling
    /// it from the back.
    fn merge(&mut self, stale: impl Fn(NodeId) -> bool, fresh: &[u64]) {
        self.keys.retain(|&k| !stale(unpack(k).1));
        let (mut i, mut j) = (self.keys.len(), fresh.len());
        self.keys.resize(i + j, 0);
        while j > 0 {
            if i > 0 && self.keys[i - 1] > fresh[j - 1] {
                self.keys[i + j - 1] = self.keys[i - 1];
                i -= 1;
            } else {
                self.keys[i + j - 1] = fresh[j - 1];
                j -= 1;
            }
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
            keys: &self.keys,
            at: DescAt::new(&self.keys),
        }
    }

    /// The packed keys, ascending; for the invariant audit.
    pub(super) fn keys(&self) -> &[u64] {
        &self.keys
    }
}

/// A position in the `(free desc, id asc)` walk of one index's keys.
/// It holds offsets, not a borrow, so a cursor can keep it beside the
/// borrow of the keys it walks.
#[derive(Clone, Copy, Debug)]
struct DescAt {
    /// The keys below the current tie run are `keys[..rest]`.
    rest: usize,
    /// What is left of the current tie run, `keys[run..run_end]`, read
    /// front to back.
    run: usize,
    run_end: usize,
}

impl DescAt {
    /// The start of a walk over `keys`.
    fn new(keys: &[u64]) -> Self {
        DescAt {
            rest: keys.len(),
            run: 0,
            run_end: 0,
        }
    }

    /// The next node of the walk over `keys`, the keys it started on.
    #[inline]
    fn next(&mut self, keys: &[u64]) -> Option<(u64, NodeId)> {
        if self.run < self.run_end {
            self.run += 1;
            return Some(unpack(keys[self.run - 1]));
        }
        let rest = &keys[..self.rest];
        let &last = rest.last()?;
        let start = rest
            .iter()
            .rposition(|&k| k >> 32 != last >> 32)
            .map_or(0, |p| p + 1);
        self.run_end = self.rest;
        self.run = start + 1;
        self.rest = start;
        Some(unpack(keys[start]))
    }
}

/// A walk of one index in `(free desc, id asc)` order.
#[derive(Clone, Debug)]
pub(super) struct Desc<'a> {
    keys: &'a [u64],
    at: DescAt,
}

impl Iterator for Desc<'_> {
    type Item = (u64, NodeId);

    #[inline]
    fn next(&mut self) -> Option<(u64, NodeId)> {
        self.at.next(self.keys)
    }
}

/// Whether bringing a rack index of `len` keys up to date with
/// `changed` nodes takes one merge pass rather than a re-key per node:
/// when at least [`MERGE_MIN`] of its nodes changed and they are at
/// least one in [`MERGE_SHARE`] of its keys. That is 4 changed nodes
/// on a 256-node flat fabric or a 32-node rack, 16 at 1,024 nodes and
/// 160 at 10,240.
///
/// A re-key costs two binary searches and a shift of the keys between
/// the node's old and new positions, a few keys for a Monitor resize
/// and much of the index for a job start or end; a merge pass moves
/// every key once, with a compare each. A warm-cache micro-benchmark
/// (EXPERIMENTS.md, *Lazy lender index*) puts the break-even at 16–64
/// changed nodes on 256 keys, about 64 on 1,024 and 64–256 on 10,240;
/// end to end on 256 nodes, merging from 4 changed nodes ran faster
/// than from 16. Most syncs bring 1–3 changed nodes, which are
/// re-keyed on every index size, and a 10,240-key index is merged only
/// for 160 or more, where the micro-benchmark has the two about even.
pub(super) fn merges(changed: usize, len: usize) -> bool {
    changed >= MERGE_MIN && changed * MERGE_SHARE >= len
}

/// The fewest changed nodes a merge pass takes.
const MERGE_MIN: usize = 4;

/// A merge pass needs at least one changed node per this many keys.
const MERGE_SHARE: usize = 64;

/// The lender pool: one index per rack of the nodes with free memory,
/// brought up to date when a plan reads it rather than on every ledger
/// change. Each index holds its nodes at the MB in `keyed`; a node
/// whose free MB may differ from that is flagged in `changed` and
/// listed once on its rack's `pending` list.
#[derive(Clone, Debug)]
pub(super) struct LenderPool {
    pub(super) racks: Vec<FreeIndex>,
    /// Per node, the free MB its key holds; 0 when it holds none.
    pub(super) keyed: Vec<u64>,
    /// Per node, whether it is on its rack's `pending` list.
    pub(super) changed: Vec<bool>,
    /// Per rack, its changed nodes in the order they first changed.
    pub(super) pending: Vec<Vec<NodeId>>,
    /// The racks with a non-empty `pending` list, each once.
    pub(super) stale_racks: Vec<u32>,
    /// A merge pass's new keys, sorted; reused.
    fresh: Vec<u64>,
}

impl LenderPool {
    /// The pool of `nodes` on `topology`, every index up to date.
    pub(super) fn new(nodes: &[Node], topology: &Topology) -> Self {
        let mut racks = vec![FreeIndex::default(); topology.racks() as usize];
        let keyed: Vec<u64> = nodes.iter().map(Node::free_mb).collect();
        for (i, &free) in keyed.iter().enumerate() {
            let id = NodeId(i as u32);
            if free > 0 {
                racks[topology.rack_of(id) as usize]
                    .keys
                    .push(pack(free, id));
            }
        }
        for index in &mut racks {
            index.keys.sort_unstable();
        }
        LenderPool {
            pending: vec![Vec::new(); racks.len()],
            racks,
            changed: vec![false; keyed.len()],
            keyed,
            stale_racks: Vec::new(),
            fresh: Vec::new(),
        }
    }

    /// Note that `id`, in `rack`, changed its free MB.
    #[inline]
    pub(super) fn mark(&mut self, id: NodeId, rack: u32) {
        let i = id.0 as usize;
        if self.changed[i] {
            return;
        }
        self.changed[i] = true;
        let pending = &mut self.pending[rack as usize];
        if pending.is_empty() {
            self.stale_racks.push(rack);
        }
        pending.push(id);
    }

    /// Whether some rack index lags its nodes' ledgers.
    #[inline]
    pub(super) fn is_stale(&self) -> bool {
        !self.stale_racks.is_empty()
    }

    /// Bring every stale rack index up to date with `nodes`, by one
    /// merge pass where `merges(changed, len)` says so (the cluster
    /// passes [`merges`]; tests force either path).
    pub(super) fn sync(&mut self, nodes: &[Node], merges: fn(usize, usize) -> bool) {
        let LenderPool {
            racks,
            keyed,
            changed,
            pending,
            stale_racks,
            fresh,
        } = self;
        for rack in stale_racks.drain(..) {
            let (index, pending) = (&mut racks[rack as usize], &mut pending[rack as usize]);
            if merges(pending.len(), index.keys.len()) {
                fresh.clear();
                for &id in pending.iter() {
                    let i = id.0 as usize;
                    keyed[i] = nodes[i].free_mb();
                    if keyed[i] > 0 {
                        fresh.push(pack(keyed[i], id));
                    }
                }
                fresh.sort_unstable();
                index.merge(|id| changed[id.0 as usize], fresh);
            } else {
                for &id in pending.iter() {
                    let i = id.0 as usize;
                    let (old, new) = (keyed[i], nodes[i].free_mb());
                    // An index holds exactly the nodes with free memory:
                    // one re-key while the node stays a member, an
                    // insert or remove when it joins or leaves.
                    match (old > 0, new > 0) {
                        _ if old == new => {}
                        (true, true) => index.rekey(old, new, id),
                        (true, false) => index.remove(old, id),
                        (false, true) => index.insert(new, id),
                        (false, false) => {}
                    }
                    keyed[i] = new;
                }
            }
            for id in pending.drain(..) {
                changed[id.0 as usize] = false;
            }
        }
    }
}

/// One rack's place in a borrow plan: its lender walk, positioned
/// just past `head`, the first lender the plan has not drained.
#[derive(Debug)]
struct Cursor {
    walk: DescAt,
    /// `(free, id, MB left)` of the head; `None` until pulled off the
    /// walk.
    head: Option<(u64, NodeId, u64)>,
}

impl Cursor {
    /// The head, pulling the next lender of `keys` that `skip` lets
    /// through once the last one is drained.
    #[inline]
    fn head(&mut self, keys: &[u64], skip: &impl Fn(NodeId) -> bool) -> Option<(u64, NodeId, u64)> {
        while self.head.is_none() {
            let (free, id) = self.walk.next(keys)?;
            if !skip(id) {
                self.head = Some((free, id, free));
            }
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
/// It holds the pool's borrow, so the pool stays as it was synced
/// until the plan is dropped.
#[derive(Debug)]
pub(crate) struct LenderCursors<'a, S> {
    topology: &'a Topology,
    racks: Ref<'a, [FreeIndex]>,
    cursors: Vec<Cursor>,
    /// The other racks' heads as `(free << 32 | !id, rack)`, so the
    /// max-heap's top is the `(free desc, id asc)` first; rebuilt by
    /// each borrow that leaves its home rack and empty until one does.
    pub(super) heads: BinaryHeap<(u64, u32)>,
    skip: S,
}

impl<'a, S: Fn(NodeId) -> bool> LenderCursors<'a, S> {
    /// Cursors over `pool`'s rack indexes, which must be up to date.
    pub(super) fn new(pool: Ref<'a, LenderPool>, topology: &'a Topology, skip: S) -> Self {
        debug_assert!(!pool.is_stale(), "lender cursors over a stale pool");
        let racks = Ref::map(pool, |pool| &pool.racks[..]);
        let cursors = racks
            .iter()
            .map(|index| Cursor {
                walk: DescAt::new(&index.keys),
                head: None,
            })
            .collect();
        LenderCursors {
            topology,
            racks,
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
        let (racks, skip) = (&*self.racks, &self.skip);
        let mut remote = Vec::new();
        let (keys, cursor) = (racks[home_rack].keys(), &mut self.cursors[home_rack]);
        while need > 0 {
            let Some((_, id, left)) = cursor.head(keys, skip) else {
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
                if let Some((free, id, _)) = cursor.head(racks[rack].keys(), skip) {
                    self.heads.push((rank(free, id), rack as u32));
                }
            }
        }
        while need > 0 && cross_budget > 0 {
            let Some(mut top) = self.heads.peek_mut() else {
                break;
            };
            let rack = top.1 as usize;
            let (keys, cursor) = (racks[rack].keys(), &mut self.cursors[rack]);
            let (_, id, left) = cursor.head(keys, skip).expect("a merged rack has a head");
            let take = left.min(need).min(cross_budget);
            remote.push((id, take));
            cursor.take(take);
            need -= take;
            cross_budget -= take;
            match cursor.head(keys, skip) {
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
        // The lender pool, without syncing it: each rack index must
        // hold exactly its nodes at the MB their keys hold, every node
        // off the changed lists must be keyed at its free MB, and the
        // lists must name each changed node once, filed under its rack.
        let pool = self.lenders.borrow();
        if pool.racks.len() != self.topology.racks() as usize {
            return err(format!(
                "{} rack lender indexes for {} racks",
                pool.racks.len(),
                self.topology.racks()
            ));
        }
        let mut rack_expected = vec![Vec::new(); pool.racks.len()];
        let mut lender_free = 0u64;
        for (id, n) in self.iter() {
            let keyed = pool.keyed[id.0 as usize];
            if keyed > 0 {
                rack_expected[self.topology.rack_of(id) as usize].push(pack(keyed, id));
            }
            if !pool.changed[id.0 as usize] && keyed != n.free_mb() {
                return err(format!(
                    "{id:?} not marked changed but keyed at {keyed} MB with {} MB free",
                    n.free_mb()
                ));
            }
            lender_free += n.free_mb();
        }
        for (rack, (expected, index)) in rack_expected.iter_mut().zip(&pool.racks).enumerate() {
            expected.sort_unstable();
            if index.keys() != &expected[..] {
                return err(format!(
                    "rack {rack} lender index out of sync with its keyed MB"
                ));
            }
        }
        if lender_free != self.lender_free_mb {
            return err(format!(
                "lender free counter mismatch: rebuild {lender_free} vs counter {}",
                self.lender_free_mb
            ));
        }
        let mut stale = vec![false; pool.racks.len()];
        for &rack in &pool.stale_racks {
            if std::mem::replace(&mut stale[rack as usize], true) {
                return err(format!("rack {rack} on the stale-rack list twice"));
            }
        }
        let mut listed = vec![false; self.nodes.len()];
        for (rack, pending) in (0..).zip(&pool.pending) {
            for &id in pending {
                let i = id.0 as usize;
                if !pool.changed[i] || listed[i] || self.topology.rack_of(id) != rack {
                    return err(format!(
                        "{id:?} on rack {rack}'s changed list unmarked, twice or misfiled"
                    ));
                }
                listed[i] = true;
            }
            if pending.is_empty() == stale[rack as usize] {
                return err(format!(
                    "rack {rack} changed list and stale-rack list disagree"
                ));
            }
        }
        if let Some(i) = (0..listed.len()).find(|&i| pool.changed[i] && !listed[i]) {
            return err(format!(
                "{:?} marked changed but on no changed list",
                NodeId(i as u32)
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
