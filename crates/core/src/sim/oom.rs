//! Kill-and-restart handling: one [`Runner::kill`] for dynamic OOM
//! kills (Fail/Restart vs Checkpoint/Restart), fault kills with the
//! §2.2 fairness-ladder escalation, and the static exceeded-request
//! kill. Every kill counter and terminal bucket in [`super::Stats`] is
//! booked here, once.

use crate::config::{OomMitigation, RestartStrategy};
use crate::engine::EventKind;
use crate::job::JobId;
use crate::trace::{KillReason, TraceKind};

use super::hooks::FaultEscalation;
use super::runner::Runner;
use super::state::{FailReason, Status};

/// Why a running job is being killed.
#[derive(Clone, Copy, Debug)]
pub(crate) enum KillCause {
    /// Dynamic OOM: the job outgrew an allocation that could not grow.
    Oom,
    /// An injected fault took the job down. `escalate` requests the
    /// §2.2 fairness ladder directly: the policy picks the rung —
    /// demote the job to a static-guaranteed allocation, or boost its
    /// queue priority.
    Fault { escalate: bool },
    /// Static/baseline rule: usage exceeded the request (terminal).
    ExceededRequest,
}

impl KillCause {
    fn reason(self) -> KillReason {
        match self {
            KillCause::Oom => KillReason::Oom,
            KillCause::Fault { .. } => KillReason::Fault,
            KillCause::ExceededRequest => KillReason::ExceededRequest,
        }
    }
}

impl Runner {
    /// Kill a running job: release its memory, orphan its pending
    /// events, then either resubmit it (F/R from scratch, C/R from the
    /// last checkpoint) or move it to its terminal bucket. An
    /// exceeded-request kill is always terminal; OOM and fault kills are
    /// terminal once the job passes the restart cap.
    pub(crate) fn kill(&mut self, jid: JobId, cause: KillCause) {
        let span = self.phase_start();
        if let KillCause::Fault { .. } = cause {
            // Book the work done up to now: it is what the kill loses
            // (minus checkpoint credit).
            self.advance_work(jid);
        }
        let lenders = self.take_lenders(jid);
        self.cluster.finish_job(jid);
        self.running.retain(|&r| r != jid);
        let escalation = match cause {
            KillCause::Fault { escalate: true } => Some(
                self.policy
                    .fault_escalation(self.st[jid.0 as usize].static_mode),
            ),
            _ => None,
        };
        let s = &mut self.st[jid.0 as usize];
        s.life_epoch += 1;
        s.end_epoch += 1;
        // The job's pending JobEnd event is now orphaned (a pending
        // MemUpdate may be too, but that is not guaranteed — undercount
        // rather than let the stale estimate drift high).
        self.queue.note_stale(1);
        match cause {
            KillCause::Oom => {
                self.stats.oom_kills += 1;
                // Counts first-life OOMs only: a job a fault killed
                // before its first OOM is never counted (kept until the
                // next digest re-pin; see ROADMAP).
                if s.restarts == 0 {
                    self.stats.jobs_oom_killed += 1;
                }
                s.restarts += 1;
                if self.cfg.restart == RestartStrategy::FailRestart {
                    s.checkpoint_s = 0.0;
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
                // The Actuator retry streak carries into the next life,
                // unlike a fault kill (kept until the next digest
                // re-pin; see ROADMAP).
            }
            KillCause::Fault { .. } => {
                self.stats.fault_job_kills += 1;
                if !s.fault_killed {
                    s.fault_killed = true;
                    self.stats.jobs_fault_killed += 1;
                }
                let credit = match self.cfg.restart {
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
                match escalation {
                    Some(FaultEscalation::DemoteToStatic) => s.static_mode = true,
                    Some(FaultEscalation::BoostPriority) => s.boosted = true,
                    None => {}
                }
            }
            KillCause::ExceededRequest => {}
        }
        let (restarts, boosted, static_mode) = (s.restarts, s.boosted, s.static_mode);
        let terminal = match cause {
            KillCause::ExceededRequest => Some(FailReason::ExceededRequest),
            _ if restarts > self.max_restarts => Some(FailReason::TooManyRestarts),
            _ => None,
        };
        match terminal {
            Some(reason) => {
                s.status = Status::Failed(reason);
                match reason {
                    FailReason::ExceededRequest => self.stats.failed_exceeded += 1,
                    FailReason::TooManyRestarts => self.stats.failed_restarts += 1,
                }
                self.live_jobs = self.live_jobs.saturating_sub(1);
            }
            None => {
                s.status = Status::Waiting;
                self.submits_remaining += 1;
                self.queue.push(self.now, EventKind::Submit(jid));
            }
        }
        self.emit(TraceKind::JobKill {
            job: jid,
            reason: cause.reason(),
            restarts,
        });
        if terminal.is_none() {
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
}
