//! Fault-recovery handlers: injected node crashes and repairs,
//! pool-blade degradations and restores, lender-side reclamation, and
//! the re-grow-or-demote path for revoked borrowers.

use crate::cluster::NodeId;
use crate::faults::FaultEvent;
use crate::job::JobId;

use super::oom::KillCause;
use super::runner::Runner;
use super::state::Status;

impl Runner {
    /// Injected node crash: revoke everything other jobs borrowed from
    /// the node, evacuate (kill) the resident job, and take the node out
    /// of the pool until its repair completes. Revoked borrowers re-grow
    /// their lost slices elsewhere or are killed-and-resubmitted.
    pub(crate) fn on_node_fail(&mut self, node: NodeId) {
        if self.cluster.is_down(node) {
            return;
        }
        let span = self.phase_start();
        self.stats.fault_node_crashes += 1;
        self.emit(FaultEvent::NodeFail { node }.trace_kind());
        let resident = self.cluster.node(node).running;
        // Strip borrows first so the node's ledger empties, then kill
        // the resident (its own alloc, including borrows from *other*
        // lenders, leaves with it), then flip the node down.
        let revoked = self.reclaim_from_lender(node, 0);
        if let Some(jid) = resident {
            self.kill(jid, KillCause::Fault { escalate: false });
        }
        self.cluster.set_node_down(node);
        self.regrow_or_demote(revoked, node);
        self.change_counter += 1;
        self.ensure_tick();
        debug_assert_eq!(self.cluster.check_invariants(), Ok(()));
        self.phase_end(crate::telemetry::Phase::Recovery, span);
    }

    /// A crashed node's repair completed: it rejoins the free and
    /// schedulable pools (minus any still-degraded capacity).
    pub(crate) fn on_node_repair(&mut self, node: NodeId) {
        if !self.cluster.is_down(node) {
            return;
        }
        let span = self.phase_start();
        self.emit(FaultEvent::NodeRepair { node }.trace_kind());
        self.cluster.repair_node(node);
        self.change_counter += 1;
        self.ensure_tick();
        debug_assert_eq!(self.cluster.check_invariants(), Ok(()));
        self.phase_end(crate::telemetry::Phase::Recovery, span);
    }

    /// Injected pool-blade degradation: `mb` of the node's memory leaves
    /// the pool mid-run. The Actuator reclaims remote MB first (revoking
    /// borrowers lender-side); if the resident job's own allocation
    /// still overlaps the failed blade it is killed and resubmitted with
    /// escalation (§2.2 static-fallback, then priority boost). Revoked
    /// borrowers re-grow elsewhere or are killed as a last resort.
    pub(crate) fn on_pool_degrade(&mut self, node: NodeId, mb: u64) {
        let (cap, degraded) = {
            let n = self.cluster.node(node);
            (n.capacity_mb, n.degraded_mb)
        };
        if mb == 0 || degraded + mb > cap {
            return;
        }
        let span = self.phase_start();
        self.stats.fault_pool_degrades += 1;
        self.emit(FaultEvent::PoolDegrade { node, mb }.trace_kind());
        let allowed = cap - degraded - mb;
        let revoked = self.reclaim_from_lender(node, allowed);
        let (still_over, resident) = {
            let n = self.cluster.node(node);
            (n.local_alloc_mb + n.lent_mb > allowed, n.running)
        };
        if still_over {
            if let Some(jid) = resident {
                self.kill(jid, KillCause::Fault { escalate: true });
            }
        }
        // Degrade BEFORE re-growing the revoked slices, so the planner
        // cannot hand the reclaimed memory right back to a borrower.
        {
            let n = self.cluster.node(node);
            if n.local_alloc_mb + n.lent_mb <= allowed {
                self.cluster.apply_degrade(node, mb);
            }
        }
        self.regrow_or_demote(revoked, node);
        self.change_counter += 1;
        self.ensure_tick();
        debug_assert_eq!(self.cluster.check_invariants(), Ok(()));
        self.phase_end(crate::telemetry::Phase::Recovery, span);
    }

    /// A previously degraded slice returns to the pool (clamped to the
    /// node's outstanding degradation, since a crash handler may have
    /// skipped part of the original degrade).
    pub(crate) fn on_pool_restore(&mut self, node: NodeId, mb: u64) {
        let mb = mb.min(self.cluster.node(node).degraded_mb);
        if mb == 0 {
            return;
        }
        let span = self.phase_start();
        // The clamped amount, so the trace records what actually
        // returned to the pool.
        self.emit(FaultEvent::PoolRestore { node, mb }.trace_kind());
        self.cluster.restore_degrade(node, mb);
        self.change_counter += 1;
        self.ensure_tick();
        debug_assert_eq!(self.cluster.check_invariants(), Ok(()));
        self.phase_end(crate::telemetry::Phase::Recovery, span);
    }

    /// Revoke borrowed slices from `lender`, borrower by borrower, until
    /// its allocation (local + lent) fits within `allowed_mb`. Returns
    /// the per-job lost slices so the caller can try to re-grow them.
    fn reclaim_from_lender(
        &mut self,
        lender: NodeId,
        allowed_mb: u64,
    ) -> Vec<(JobId, Vec<(NodeId, u64)>)> {
        let mut revoked = Vec::new();
        let mut borrowers = std::mem::take(&mut self.scratch.borrowers);
        borrowers.clear();
        borrowers.extend_from_slice(self.cluster.borrowers_of(lender));
        for &b in &borrowers {
            {
                let n = self.cluster.node(lender);
                if n.local_alloc_mb + n.lent_mb <= allowed_mb {
                    break;
                }
            }
            let bw = self.workload.pool.get(self.job(b).profile).bandwidth_gbs;
            let lost = self.cluster.revoke_lender(b, lender, bw);
            if !lost.is_empty() {
                revoked.push((b, lost));
            }
        }
        self.scratch.borrowers = borrowers;
        revoked
    }

    /// Try to re-grow each revoked slice somewhere else (local-first,
    /// then remote — the normal growth planner, which now excludes the
    /// faulted capacity). Jobs whose slices cannot be re-grown are
    /// killed and resubmitted with escalation.
    fn regrow_or_demote(&mut self, revoked: Vec<(JobId, Vec<(NodeId, u64)>)>, eased: NodeId) {
        for (jid, lost) in revoked {
            if self.st[jid.0 as usize].status != Status::Running
                || self.cluster.alloc_of(jid).is_none()
            {
                continue; // already killed earlier in this handler
            }
            let bw = self.workload.pool.get(self.job(jid).profile).bandwidth_gbs;
            let mut compute_ids = std::mem::take(&mut self.scratch.compute_ids);
            compute_ids.clear();
            compute_ids.extend(
                self.cluster
                    .alloc_of(jid)
                    .expect("checked above")
                    .entries
                    .iter()
                    .map(|e| e.node),
            );
            let mut ok = true;
            for &(node, need) in &lost {
                match self
                    .policy
                    .plan_growth(&self.cluster, node, &compute_ids, need)
                {
                    Some((local, borrows)) => {
                        self.cluster.grow_entry(jid, node, local, &borrows, bw);
                    }
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            self.scratch.compute_ids = compute_ids;
            if ok {
                let mut lenders = self.take_lenders(jid);
                if !lenders.contains(&eased) {
                    lenders.push(eased);
                }
                self.refresh_speeds(jid, &lenders);
                self.scratch.lenders = lenders;
            } else {
                self.kill(jid, KillCause::Fault { escalate: true });
            }
        }
        // Pressure on the eased lender dropped for surviving borrowers.
        self.update_borrower_speeds(&[eased]);
    }
}
