//! The allocation ledger: per-job allocation records and the checked
//! start/finish/shrink/grow mutations that keep every node's ledger and
//! the cluster-wide counters consistent.

use super::{Cluster, NodeId};
use crate::job::JobId;

/// Checked ledger addition: MB counters must never wrap, even under
/// fault-driven churn (crash evacuation, degrade/restore cycles).
#[inline]
pub(super) fn mb_add(a: u64, b: u64) -> u64 {
    a.checked_add(b)
        .unwrap_or_else(|| panic!("MB ledger overflow: {a} + {b}"))
}

/// Checked ledger subtraction: an underflow means a release without a
/// matching reservation — fail loudly instead of wrapping to ~2^64 MB.
#[inline]
pub(super) fn mb_sub(a: u64, b: u64) -> u64 {
    a.checked_sub(b)
        .unwrap_or_else(|| panic!("MB ledger underflow: {a} - {b}"))
}

/// The memory allocation of one running job: one entry per compute node.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct JobAlloc {
    /// Per-compute-node allocation entries.
    pub entries: Vec<AllocEntry>,
}

/// Allocation on a single compute node: a local slice plus zero or more
/// remote slices borrowed from lender nodes.
#[derive(Clone, Debug, PartialEq)]
pub struct AllocEntry {
    /// The compute node the job runs on.
    pub node: NodeId,
    /// Local memory allocated on that node, MB.
    pub local_mb: u64,
    /// Borrowed slices as `(lender, mb)`; a lender appears at most once.
    pub remote: Vec<(NodeId, u64)>,
}

impl AllocEntry {
    /// Total memory of this entry (local + remote), MB.
    pub fn total_mb(&self) -> u64 {
        self.local_mb + self.remote_mb()
    }

    /// Remote memory of this entry, MB.
    pub fn remote_mb(&self) -> u64 {
        self.remote.iter().map(|&(_, mb)| mb).sum()
    }
}

impl JobAlloc {
    /// Total allocated memory across all compute nodes, MB.
    pub fn total_mb(&self) -> u64 {
        self.entries.iter().map(AllocEntry::total_mb).sum()
    }

    /// Total remote memory, MB.
    pub fn remote_mb(&self) -> u64 {
        self.entries.iter().map(AllocEntry::remote_mb).sum()
    }

    /// Remote fraction of the whole allocation in `[0,1]` (0 when the
    /// allocation is empty).
    pub fn remote_fraction(&self) -> f64 {
        let total = self.total_mb();
        if total == 0 {
            0.0
        } else {
            self.remote_mb() as f64 / total as f64
        }
    }

    /// Collect the distinct lender nodes into `out` (cleared first), in
    /// first-appearance order, reusing the caller's buffer.
    pub fn lenders_into(&self, out: &mut Vec<NodeId>) {
        out.clear();
        for e in &self.entries {
            for &(l, _) in &e.remote {
                if !out.contains(&l) {
                    out.push(l);
                }
            }
        }
    }
}

/// Add `mb` to `lender`'s row of a per-lender tally kept sorted by
/// lender id.
#[inline]
fn tally(per_lender: &mut Vec<(NodeId, u64)>, lender: NodeId, mb: u64) {
    match per_lender.binary_search_by_key(&lender, |&(l, _)| l) {
        Ok(pos) => per_lender[pos].1 += mb,
        Err(pos) => per_lender.insert(pos, (lender, mb)),
    }
}

impl Cluster {
    /// Book `local` + `remote` MB (`cross` of it cross-rack) to `job`'s
    /// cached totals and to the cluster-wide counters.
    #[inline]
    fn credit(&mut self, job: JobId, local: u64, remote: u64, cross: u64) {
        self.total_alloc_mb = mb_add(self.total_alloc_mb, local + remote);
        self.total_remote_mb = mb_add(self.total_remote_mb, remote);
        self.total_cross_mb = mb_add(self.total_cross_mb, cross);
        let slot = self.slot_mut(job);
        slot.total_mb = mb_add(slot.total_mb, local + remote);
        slot.remote_mb = mb_add(slot.remote_mb, remote);
        slot.cross_mb = mb_add(slot.cross_mb, cross);
    }

    /// Release what [`Self::credit`] booked.
    #[inline]
    pub(super) fn debit(&mut self, job: JobId, local: u64, remote: u64, cross: u64) {
        self.total_alloc_mb = mb_sub(self.total_alloc_mb, local + remote);
        self.total_remote_mb = mb_sub(self.total_remote_mb, remote);
        self.total_cross_mb = mb_sub(self.total_cross_mb, cross);
        let slot = self.slot_mut(job);
        slot.total_mb = mb_sub(slot.total_mb, local + remote);
        slot.remote_mb = mb_sub(slot.remote_mb, remote);
        slot.cross_mb = mb_sub(slot.cross_mb, cross);
    }

    /// The cross-rack MB among `remote`, the borrows of compute node
    /// `node`. Zero on a one-rack cluster, without a look at the slices.
    #[inline]
    fn cross_mb_of(&self, node: NodeId, remote: &[(NodeId, u64)]) -> u64 {
        if self.topology.racks() == 1 {
            return 0;
        }
        remote
            .iter()
            .filter(|&&(lender, _)| self.is_cross(node, lender))
            .map(|&(_, mb)| mb)
            .sum()
    }

    /// Place a job on the cluster with the given allocation, recording
    /// its bandwidth demand `bandwidth_gbs` for contention accounting.
    ///
    /// Validation is linear in the allocation: duplicate lenders are
    /// looked up among the entry's earlier slices, and each lender's
    /// free check reads the local MB placed on it from a dense per-node
    /// mark.
    ///
    /// # Panics
    /// Panics if the allocation violates the ledger (node busy, not
    /// enough free memory on a compute node or lender, job already
    /// placed, self-borrow, duplicate lender within an entry).
    pub fn start_job(&mut self, job: JobId, alloc: JobAlloc, bandwidth_gbs: f64) {
        assert!(self.alloc_of(job).is_none(), "{job} is already placed");
        assert!(!alloc.entries.is_empty(), "empty allocation for {job}");
        // Validate first so a panic cannot leave a half-applied ledger.
        for e in &alloc.entries {
            let n = self.node(e.node);
            assert!(n.running.is_none(), "node {:?} is busy", e.node);
            assert!(
                e.local_mb <= n.free_mb(),
                "node {:?}: local {} > free {}",
                e.node,
                e.local_mb,
                n.free_mb()
            );
            for (k, &(lender, mb)) in e.remote.iter().enumerate() {
                assert!(lender != e.node, "{job} borrows from its own node");
                assert!(
                    !e.remote[..k].iter().any(|&(l, _)| l == lender),
                    "duplicate lender {lender:?}"
                );
                assert!(mb > 0, "zero-size borrow from {lender:?}");
            }
        }
        // Aggregate borrows per lender across entries for the free check.
        // A sorted scratch Vec instead of a HashMap: no allocation after
        // warm-up, and a deterministic lender apply order.
        let mut per_lender = std::mem::take(&mut self.scratch_per_lender);
        per_lender.clear();
        for e in &alloc.entries {
            for &(lender, mb) in &e.remote {
                tally(&mut per_lender, lender, mb);
            }
        }
        // If a lender is also one of the job's compute nodes, its free
        // memory shrinks by the local slice being placed there. The
        // marks are cleared before the check can panic.
        for e in &alloc.entries {
            self.local_mark[e.node.0 as usize] += e.local_mb;
        }
        let overdrawn = per_lender.iter().find_map(|&(lender, mb)| {
            let local_here = self.local_mark[lender.0 as usize];
            let free = self.node(lender).free_mb().saturating_sub(local_here);
            (mb > free).then_some((lender, mb, free))
        });
        for e in &alloc.entries {
            self.local_mark[e.node.0 as usize] = 0;
        }
        if let Some((lender, mb, free)) = overdrawn {
            panic!("lender {lender:?}: borrow {mb} > free {free}");
        }
        // Apply.
        let (mut local, mut remote, mut cross) = (0u64, 0u64, 0u64);
        for e in &alloc.entries {
            self.touch(e.node, |n| {
                n.running = Some(job);
                n.local_alloc_mb = mb_add(n.local_alloc_mb, e.local_mb);
            });
            self.idle_nodes -= 1;
            local += e.local_mb;
            cross += self.cross_mb_of(e.node, &e.remote);
        }
        for &(lender, mb) in &per_lender {
            self.touch(lender, |n| n.lent_mb = mb_add(n.lent_mb, mb));
            self.borrowers[lender.0 as usize].push(job);
            remote += mb;
        }
        self.credit(job, local, remote, cross);
        self.scratch_per_lender = per_lender;
        self.put_alloc(job, alloc);
        self.bump_alloc_version(job);
        self.refresh_demand(job, bandwidth_gbs);
        self.debug_check();
    }

    /// Remove a finished (or killed) job, releasing all its memory.
    /// Returns the final allocation.
    ///
    /// # Panics
    /// Panics if the job is not placed.
    pub fn finish_job(&mut self, job: JobId) -> JobAlloc {
        let alloc = self.take_alloc(job, "finish");
        // Release the borrowed MB aggregated per lender, as `start_job`
        // reserves it, so each lender is re-indexed once rather than
        // once per slice.
        let mut per_lender = std::mem::take(&mut self.scratch_per_lender);
        per_lender.clear();
        let (mut local, mut remote, mut cross) = (0u64, 0u64, 0u64);
        for e in &alloc.entries {
            debug_assert_eq!(self.nodes[e.node.0 as usize].running, Some(job));
            self.touch(e.node, |n| {
                n.running = None;
                n.local_alloc_mb = mb_sub(n.local_alloc_mb, e.local_mb);
            });
            self.idle_nodes += 1;
            local += e.local_mb;
            cross += self.cross_mb_of(e.node, &e.remote);
            for &(lender, mb) in &e.remote {
                tally(&mut per_lender, lender, mb);
                remote += mb;
            }
        }
        for &(lender, mb) in &per_lender {
            self.touch(lender, |n| n.lent_mb = mb_sub(n.lent_mb, mb));
            self.unlink_borrower(lender, job);
        }
        self.debit(job, local, remote, cross);
        self.scratch_per_lender = per_lender;
        // Clear contention contributions and the version stamp (the
        // clock itself never rewinds, so a later restart gets a fresh,
        // never-seen stamp).
        let slot = &mut self.jobs[job.0 as usize];
        slot.version = 0;
        let contribs = std::mem::take(&mut slot.demand);
        for (lender, gbs) in contribs {
            let n = &mut self.nodes[lender.0 as usize];
            n.remote_demand_gbs = (n.remote_demand_gbs - gbs).max(0.0);
        }
        self.debug_check();
        alloc
    }

    /// Shrink a job's allocation towards `target_mb` per compute node,
    /// releasing remote memory first, then local (paper §2.2: "It will
    /// deallocate remote memory before deallocating local memory").
    /// Entries already at or below target are untouched. Returns the MB
    /// released.
    ///
    /// # Panics
    /// Panics if the job is not placed.
    pub fn shrink_job(&mut self, job: JobId, target_mb: u64, bandwidth_gbs: f64) -> u64 {
        let mut alloc = self.take_alloc(job, "shrink");
        let mut released = 0u64;
        // Release the peeled MB aggregated per lender, as `finish_job`
        // does, so a lender several entries borrow from is re-indexed
        // once rather than once per slice.
        let mut per_lender = std::mem::take(&mut self.scratch_per_lender);
        per_lender.clear();
        let (mut remote, mut cross) = (0u64, 0u64);
        for e in &mut alloc.entries {
            let mut excess = e.total_mb().saturating_sub(target_mb);
            if excess == 0 {
                continue;
            }
            released += excess;
            // Remote first: peel borrows from the back (most recently
            // added lender first — the coldest slice in the local-first
            // allocation order).
            while excess > 0 {
                let Some(&mut (lender, ref mut mb)) = e.remote.last_mut() else {
                    break;
                };
                let take = (*mb).min(excess);
                *mb -= take;
                excess -= take;
                tally(&mut per_lender, lender, take);
                remote += take;
                if self.is_cross(e.node, lender) {
                    cross += take;
                }
                if *mb == 0 {
                    e.remote.pop();
                }
            }
            // Then local.
            if excess > 0 {
                e.local_mb = mb_sub(e.local_mb, excess);
                self.touch(e.node, |n| {
                    n.local_alloc_mb = mb_sub(n.local_alloc_mb, excess)
                });
            }
        }
        for &(lender, mb) in &per_lender {
            self.touch(lender, |n| n.lent_mb = mb_sub(n.lent_mb, mb));
        }
        // Drop reverse-index entries for lenders no longer used.
        let mut still = std::mem::take(&mut self.scratch_lenders);
        alloc.lenders_into(&mut still);
        for &(lender, _) in &per_lender {
            if !still.contains(&lender) {
                self.unlink_borrower(lender, job);
            }
        }
        self.scratch_lenders = still;
        self.scratch_per_lender = per_lender;
        self.debit(job, released - remote, remote, cross);
        self.put_alloc(job, alloc);
        self.bump_alloc_version(job);
        self.refresh_demand(job, bandwidth_gbs);
        self.debug_check();
        released
    }

    /// Grow one compute-node entry of a job: `add_local` MB locally plus
    /// the given borrowed slices. The caller (the policy) has already
    /// chosen the lenders; this method validates and applies.
    ///
    /// # Panics
    /// Panics on ledger violations (not enough free local memory, lender
    /// without free memory, self-borrow) or if the job/entry is unknown.
    pub fn grow_entry(
        &mut self,
        job: JobId,
        node: NodeId,
        add_local: u64,
        add_remote: &[(NodeId, u64)],
        bandwidth_gbs: f64,
    ) {
        {
            let n = self.node(node);
            assert_eq!(n.running, Some(job), "grow on a node not running {job}");
            assert!(
                add_local <= n.free_mb(),
                "grow local {} > free {}",
                add_local,
                n.free_mb()
            );
        }
        for &(lender, mb) in add_remote {
            assert!(lender != node, "{job} borrowing from its own node");
            assert!(mb > 0, "zero-size borrow");
            assert!(
                mb <= self.node(lender).free_mb(),
                "lender {lender:?} lacks {mb} MB"
            );
        }
        {
            let alloc = self.alloc_of(job).expect("grow of unplaced job");
            assert!(
                alloc.entries.iter().any(|e| e.node == node),
                "grow on a node outside the job's allocation"
            );
        }
        // Apply to the node ledgers (through the index-tracking `touch`),
        // then mirror into the job's allocation entry.
        self.touch(node, |n| {
            n.local_alloc_mb = mb_add(n.local_alloc_mb, add_local)
        });
        let mut remote = 0u64;
        for &(lender, mb) in add_remote {
            self.touch(lender, |n| n.lent_mb = mb_add(n.lent_mb, mb));
            remote += mb;
            let bs = &mut self.borrowers[lender.0 as usize];
            if !bs.contains(&job) {
                bs.push(job);
            }
        }
        let cross = self.cross_mb_of(node, add_remote);
        self.credit(job, add_local, remote, cross);
        let alloc = self.jobs[job.0 as usize]
            .alloc
            .as_mut()
            .expect("grow of unplaced job");
        let entry = alloc
            .entries
            .iter_mut()
            .find(|e| e.node == node)
            .expect("grow on a node outside the job's allocation");
        entry.local_mb = mb_add(entry.local_mb, add_local);
        for &(lender, mb) in add_remote {
            if let Some(slot) = entry.remote.iter_mut().find(|(l, _)| *l == lender) {
                slot.1 = mb_add(slot.1, mb);
            } else {
                entry.remote.push((lender, mb));
            }
        }
        self.bump_alloc_version(job);
        self.refresh_demand(job, bandwidth_gbs);
        self.debug_check();
    }

    /// Recompute the job's bandwidth contributions to its lenders from its
    /// current allocation. Contribution to lender `L` is
    /// `bandwidth × (mb on L) / (total mb)` summed over compute nodes —
    /// the slice-weighted share of the job's traffic that crosses `L`'s
    /// link.
    pub(super) fn refresh_demand(&mut self, job: JobId, bandwidth_gbs: f64) {
        let slot = &mut self.jobs[job.0 as usize];
        let mut contribs = std::mem::take(&mut slot.demand);
        let alloc = slot.alloc.as_ref().expect("demand of unplaced job");
        for &(lender, gbs) in &contribs {
            let n = &mut self.nodes[lender.0 as usize];
            n.remote_demand_gbs = (n.remote_demand_gbs - gbs).max(0.0);
        }
        contribs.clear();
        let total = slot.total_mb;
        if total > 0 {
            // One row per lender in first-appearance order, each summed
            // in slice order; `demand_row` maps a lender to its row.
            for e in &alloc.entries {
                for &(lender, mb) in &e.remote {
                    let gbs = bandwidth_gbs * mb as f64 / total as f64;
                    let row = &mut self.demand_row[lender.0 as usize];
                    if *row == u32::MAX {
                        *row = contribs.len() as u32;
                        contribs.push((lender, gbs));
                    } else {
                        contribs[*row as usize].1 += gbs;
                    }
                }
            }
            for &(lender, gbs) in &contribs {
                self.nodes[lender.0 as usize].remote_demand_gbs += gbs;
                self.demand_row[lender.0 as usize] = u32::MAX;
            }
        }
        self.jobs[job.0 as usize].demand = contribs;
    }
}
