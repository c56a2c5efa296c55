//! Kill-and-restart handling: dynamic OOM kills (Fail/Restart vs
//! Checkpoint/Restart), fault kills with the §2.2 fairness-ladder
//! escalation, and the static exceeded-request kill.

use crate::config::{OomMitigation, RestartStrategy};
use crate::engine::EventKind;
use crate::job::JobId;
use crate::trace::{KillReason, TraceKind};

use super::hooks::FaultEscalation;
use super::runner::Runner;
use super::state::{FailReason, Status};

impl Runner {
    /// Kill a running job because of an injected fault and resubmit it
    /// (F/R from scratch, C/R from the last checkpoint — the same §2.2
    /// machinery as an OOM kill). `escalate` requests the §2.2 fairness
    /// ladder directly: the policy picks the rung — demote the job to a
    /// static-guaranteed allocation, or boost its queue priority.
    pub(crate) fn fault_kill(&mut self, jid: JobId, escalate: bool) {
        let span = self.phase_start();
        self.advance_work(jid);
        self.stats.fault_job_kills += 1;
        let lenders = self.take_lenders(jid);
        self.cluster.finish_job(jid);
        self.running.retain(|&r| r != jid);
        let cap = self.max_restarts;
        let restart = self.cfg.restart;
        let escalation = self
            .policy
            .fault_escalation(self.st[jid.0 as usize].static_mode);
        let s = &mut self.st[jid.0 as usize];
        if !s.fault_killed {
            s.fault_killed = true;
            self.stats.jobs_fault_killed += 1;
        }
        s.life_epoch += 1;
        s.end_epoch += 1;
        // The pending JobEnd is orphaned (as in `oom_kill`).
        self.queue.note_stale(1);
        let credit = match restart {
            RestartStrategy::FailRestart => {
                s.checkpoint_s = 0.0;
                0.0
            }
            RestartStrategy::CheckpointRestart => s.checkpoint_s,
        };
        self.stats.fault_work_lost_s += (s.work_done_s - credit).max(0.0);
        self.stats.fault_checkpoint_credit_s += credit;
        s.restarts += 1;
        s.actuator_attempts = 0;
        if escalate {
            match escalation {
                FaultEscalation::DemoteToStatic => s.static_mode = true,
                FaultEscalation::BoostPriority => s.boosted = true,
            }
        }
        let (restarts, boosted, static_mode) = (s.restarts, s.boosted, s.static_mode);
        let terminal = restarts > cap;
        if terminal {
            s.status = Status::Failed(FailReason::TooManyRestarts);
            self.stats.failed_restarts += 1;
            self.live_jobs = self.live_jobs.saturating_sub(1);
        } else {
            s.status = Status::Waiting;
            self.submits_remaining += 1;
            self.queue.push(self.now, EventKind::Submit(jid));
        }
        self.emit(TraceKind::JobKill {
            job: jid,
            reason: KillReason::Fault,
            restarts,
        });
        if !terminal {
            self.emit(TraceKind::JobRequeue {
                job: jid,
                boosted,
                static_mode,
            });
        }
        self.change_counter += 1;
        self.update_borrower_speeds(&lenders);
        self.scratch.lenders = lenders;
        self.ensure_tick();
        self.phase_end(crate::telemetry::Phase::Oom, span);
    }

    /// Dynamic OOM: kill, release, and resubmit (F/R from scratch, C/R
    /// from the last checkpoint).
    pub(crate) fn oom_kill(&mut self, jid: JobId) {
        let span = self.phase_start();
        self.stats.oom_kills += 1;
        if self.st[jid.0 as usize].restarts == 0 {
            self.stats.jobs_oom_killed += 1;
        }
        let lenders = self.take_lenders(jid);
        self.cluster.finish_job(jid);
        self.running.retain(|&r| r != jid);
        let cap = self.max_restarts;
        let restart = self.cfg.restart;
        let s = &mut self.st[jid.0 as usize];
        s.life_epoch += 1;
        s.end_epoch += 1;
        // The job's pending JobEnd event is now orphaned (a pending
        // MemUpdate may be too, but that is not guaranteed — undercount
        // rather than let the stale estimate drift high).
        self.queue.note_stale(1);
        s.restarts += 1;
        match restart {
            RestartStrategy::FailRestart => s.checkpoint_s = 0.0,
            RestartStrategy::CheckpointRestart => { /* keep checkpoint credit */ }
        }
        match self.cfg.oom_mitigation {
            OomMitigation::PriorityBoost { after } if s.restarts >= after => {
                s.boosted = true;
            }
            OomMitigation::StaticFallback { after } if s.restarts >= after => {
                s.static_mode = true;
            }
            _ => {}
        }
        let (restarts, boosted, static_mode) = (s.restarts, s.boosted, s.static_mode);
        let terminal = restarts > cap;
        if terminal {
            s.status = Status::Failed(FailReason::TooManyRestarts);
            self.stats.failed_restarts += 1;
            self.live_jobs = self.live_jobs.saturating_sub(1);
        } else {
            s.status = Status::Waiting;
            self.submits_remaining += 1;
            self.queue.push(self.now, EventKind::Submit(jid));
        }
        self.emit(TraceKind::JobKill {
            job: jid,
            reason: KillReason::Oom,
            restarts,
        });
        if !terminal {
            self.emit(TraceKind::JobRequeue {
                job: jid,
                boosted,
                static_mode,
            });
        }
        self.change_counter += 1;
        self.update_borrower_speeds(&lenders);
        self.scratch.lenders = lenders;
        self.ensure_tick();
        self.phase_end(crate::telemetry::Phase::Oom, span);
    }

    /// Static/baseline kill for exceeding the request: permanent failure.
    pub(crate) fn kill_job(&mut self, jid: JobId, reason: FailReason) {
        let span = self.phase_start();
        let lenders = self.take_lenders(jid);
        self.cluster.finish_job(jid);
        self.running.retain(|&r| r != jid);
        let s = &mut self.st[jid.0 as usize];
        s.life_epoch += 1;
        s.end_epoch += 1;
        // As in `oom_kill`: the pending JobEnd is definitely stale now.
        self.queue.note_stale(1);
        s.status = Status::Failed(reason);
        let restarts = s.restarts;
        self.stats.failed_exceeded += 1;
        self.live_jobs = self.live_jobs.saturating_sub(1);
        self.emit(TraceKind::JobKill {
            job: jid,
            reason: KillReason::ExceededRequest,
            restarts,
        });
        self.change_counter += 1;
        self.update_borrower_speeds(&lenders);
        self.scratch.lenders = lenders;
        self.ensure_tick();
        self.phase_end(crate::telemetry::Phase::Oom, span);
    }
}
