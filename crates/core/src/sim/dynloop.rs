//! The runtime memory-event layer: the Monitor→Decider→Actuator→
//! Executor loop for managed allocations, the exceeded-request kill
//! probe for pinned ones, and the injected Monitor/Actuator fault
//! handlers.

use crate::engine::EventKind;
use crate::job::JobId;
use crate::trace::TraceKind;

use super::hooks::MemManagement;
use super::oom::KillCause;
use super::runner::Runner;
use super::state::Status;

impl Runner {
    /// Jittered memory-update interval ("on average every 5 minutes").
    pub(crate) fn next_update_interval(&mut self) -> f64 {
        let band = crate::config::UPDATE_JITTER;
        self.cfg.mem_update_interval_s * self.rng.range_f64(band.start, band.end)
    }

    /// Wallclock (at current speed) until the job's usage next exceeds
    /// its request, or `None` if no future trace point does (a transient
    /// exceed phase that already passed unobserved does not reschedule —
    /// otherwise a late-firing probe would re-arm every second for the
    /// rest of the job).
    pub(crate) fn time_to_exceed(&self, jid: JobId) -> Option<f64> {
        let job = self.job(jid);
        let s = &self.st[jid.0 as usize];
        let p_now = s.work_done_s / job.base_runtime_s;
        let p_exceed = first_exceed_at(job.usage.points(), job.mem_request_mb, p_now)?;
        Some(((p_exceed - p_now).max(0.0) * job.base_runtime_s) / s.speed)
    }

    /// [`Self::time_to_exceed`] resuming from an already-positioned
    /// trace cursor (the last point at or before the job's progress):
    /// the first candidate at or past `p_now` is the cursor itself or
    /// its successor, so the probe skips the binary search entirely.
    fn time_to_exceed_from(&self, jid: JobId, cursor: usize) -> Option<f64> {
        let job = self.job(jid);
        let s = &self.st[jid.0 as usize];
        let p_now = s.work_done_s / job.base_runtime_s;
        let points = job.usage.points();
        let start = if points[cursor].0 >= p_now {
            cursor
        } else {
            cursor + 1
        };
        debug_assert_eq!(
            start,
            points.partition_point(|&(p, _)| p < p_now),
            "cursor start must match the binary-search start"
        );
        let p_exceed = points[start.min(points.len())..]
            .iter()
            .find(|&&(_, m)| m > job.mem_request_mb)
            .map(|&(p, _)| p)?;
        Some(((p_exceed - p_now).max(0.0) * job.base_runtime_s) / s.speed)
    }

    pub(crate) fn on_mem_update(&mut self, jid: JobId, epoch: u32) {
        {
            let s = &self.st[jid.0 as usize];
            if s.status != Status::Running || s.life_epoch != epoch {
                self.queue.note_stale_popped();
                return;
            }
        }
        let span = self.phase_start();
        // The management mode is fixed for the whole attempt (resolved
        // at placement from inputs that only change across restarts).
        let management = self.st[jid.0 as usize].management;
        debug_assert_eq!(
            management,
            self.job_management(jid),
            "cached management mode diverged from the policy hook"
        );
        if management == MemManagement::Managed {
            // Fault injection: the Monitor sample may be lost, in which
            // case the Decider acts on the last-known demand (i.e. the
            // allocation stays put) and the job OOMs if its true usage
            // outgrew it.
            if self.faults.monitor_loss_prob > 0.0
                && self.fault_rng.chance(self.faults.monitor_loss_prob)
            {
                self.on_monitor_loss(jid);
            } else {
                self.dynamic_update(jid);
            }
        } else {
            // For pinned (static/baseline and static-fallback) jobs this
            // event is the exceeded-request probe.
            self.exceed_probe(jid);
        }
        self.phase_end(crate::telemetry::Phase::DynLoop, span);
    }

    /// Static/baseline: kill the job once its usage exceeds its request
    /// ("any job that exceeds its memory request is killed", §2.1).
    fn exceed_probe(&mut self, jid: JobId) {
        self.advance_work(jid);
        let job = self.job(jid);
        let s = &self.st[jid.0 as usize];
        let progress = (s.work_done_s / job.base_runtime_s).min(1.0);
        let mut cursor = s.trace_cursor;
        let usage = job.usage.usage_at_from(progress, &mut cursor);
        let next = self.time_to_exceed_from(jid, cursor);
        debug_assert_eq!(
            (usage, next),
            (job.usage.usage_at(progress), self.time_to_exceed(jid)),
            "cursor-based exceed probe diverged from the full-trace scan"
        );
        let request = job.mem_request_mb;
        self.st[jid.0 as usize].trace_cursor = cursor;
        if usage > request {
            self.kill(jid, KillCause::ExceededRequest);
        } else if let Some(t) = next {
            // Re-arm for the next exceed point still ahead of the job.
            let epoch = self.st[jid.0 as usize].life_epoch;
            self.queue.push(
                self.now.plus_secs(t.max(1.0)),
                EventKind::MemUpdate { job: jid, epoch },
            );
        }
    }

    /// The Monitor→Decider→Actuator→Executor loop of §2.2 (see
    /// [`crate::dynmem`] for the module breakdown).
    fn dynamic_update(&mut self, jid: JobId) {
        self.advance_work(jid);
        let job = self.job(jid);
        let base = job.base_runtime_s;
        let s = &self.st[jid.0 as usize];
        let progress = (s.work_done_s / base).min(1.0);
        let speed = s.speed;
        // Monitor: demand for the period until the next nominal update,
        // resumed from the per-job trace cursor. When the previous
        // window sat inside one flat trace segment and this horizon is
        // still short of the segment's end, the demand *is* the cached
        // segment value — progress is monotone within a life, so the
        // new window [progress, horizon] ⊂ [segment start, seg_end) —
        // and the trace is not touched at all.
        let mut cursor = s.trace_cursor;
        let (demand, seg_demand, seg_end);
        let horizon = self.monitor.horizon(progress, speed, base);
        if horizon < s.seg_end {
            demand = s.seg_demand;
            (seg_demand, seg_end) = (s.seg_demand, s.seg_end);
        } else {
            demand = job.usage.max_in_from(progress, horizon, &mut cursor);
            // max_in_from leaves the cursor on the last point at or
            // before `progress`; if its successor lies past the
            // (unclamped) horizon, the window stayed inside the cursor's
            // segment and the sampled max is that segment's value —
            // cache it. A window that crossed a boundary invalidates the
            // cache (seg_end = -inf).
            let next = job
                .usage
                .points()
                .get(cursor + 1)
                .map_or(f64::INFINITY, |&(p, _)| p);
            (seg_demand, seg_end) = if next > horizon {
                (demand, next)
            } else {
                (0, f64::NEG_INFINITY)
            };
        }
        debug_assert_eq!(
            demand,
            self.monitor
                .sample_demand(&job.usage, progress, speed, base),
            "segment-cached demand diverged from the full Monitor sample"
        );

        // Hold fast path: every shipped Decider is a deterministic pure
        // function of (entries, demand) whose post-update allocation it
        // holds (it grows/shrinks *to* a fixpoint), so if the demand and
        // the allocation version are unchanged since the last successful
        // update, the decision is a hold by determinism. (Speed needs no
        // check of its own: it reaches the Decider only through the
        // horizon, which the demand sample above already folded in.)
        // Skip the entry/lender rebuild, the Decider, and the growth
        // planner, and go straight to re-arm. Rng draw order is
        // untouched: a hold never draws the Actuator-failure chance
        // (hold decisions actuate nothing), and the re-arm interval draw
        // fires exactly as on the slow path, so outcomes are
        // bit-identical by construction. Debug builds ask the Decider
        // anyway and assert the hold.
        if s.last_demand == demand && s.last_alloc_version == self.cluster.alloc_version(jid) {
            debug_assert!(
                {
                    let alloc = self.cluster.alloc_of(jid).expect("running job has alloc");
                    let entries: Vec<_> = alloc
                        .entries
                        .iter()
                        .map(|e| (e.node, e.total_mb()))
                        .collect();
                    self.policy.decide(&entries, demand).is_hold()
                },
                "hold fast path skipped a Decider that would resize"
            );
            if self.trace_on {
                self.emit(TraceKind::MemDecide {
                    job: jid,
                    demand_mb: demand,
                    grow_mb: 0,
                    shrink_to_mb: 0,
                });
            }
            // Inline epilogue: `last_demand` and `last_alloc_version`
            // are unchanged by definition of the hold, so only the
            // cursor/segment cache, the checkpoint, and the re-arm need
            // touching (and the alloc-version re-read is saved).
            let s = &mut self.st[jid.0 as usize];
            s.trace_cursor = cursor;
            s.seg_demand = seg_demand;
            s.seg_end = seg_end;
            s.checkpoint_s = s.work_done_s;
            s.actuator_attempts = 0;
            let epoch = s.life_epoch;
            let dt = self.next_update_interval();
            self.queue.push(
                self.now.plus_secs(dt),
                EventKind::MemUpdate { job: jid, epoch },
            );
            return;
        }
        let bw = self.workload.pool.get(job.profile).bandwidth_gbs;

        let mut lenders_before = self.take_lenders(jid);
        let alloc = self.cluster.alloc_of(jid).expect("running job has alloc");
        let mut entries = std::mem::take(&mut self.scratch.entries);
        entries.clear();
        entries.extend(alloc.entries.iter().map(|e| (e.node, e.total_mb())));
        let mut compute_ids = std::mem::take(&mut self.scratch.compute_ids);
        compute_ids.clear();
        compute_ids.extend(entries.iter().map(|&(n, _)| n));

        // Decider: compare usage against the allocation.
        let decision = self.policy.decide(&entries, demand);
        if self.trace_on {
            let grow_mb: u64 = decision.grows.iter().map(|&(_, need)| need).sum();
            self.emit(TraceKind::MemDecide {
                job: jid,
                demand_mb: demand,
                grow_mb,
                shrink_to_mb: decision.shrink_to_mb.unwrap_or(0),
            });
        }
        // Fault injection: the Actuator's resize fails with probability
        // p; retry with bounded deterministic backoff before escalating
        // to kill-and-resubmit. Hold decisions actuate nothing and
        // cannot fail.
        if !decision.is_hold()
            && self.faults.actuator_fail_prob > 0.0
            && self.fault_rng.chance(self.faults.actuator_fail_prob)
        {
            self.scratch.lenders = lenders_before;
            self.scratch.entries = entries;
            self.scratch.compute_ids = compute_ids;
            self.on_actuator_failure(jid);
            return;
        }
        let mut changed = false;
        // Actuator: deallocate (remote first) …
        if let Some(target) = decision.shrink_to_mb {
            let released = self.cluster.shrink_job(jid, target, bw);
            changed |= released > 0;
            if released > 0 {
                self.emit(TraceKind::MemShrink {
                    job: jid,
                    released_mb: released,
                });
            }
        }
        // … and allocate (local first, then remote).
        for &(node, need) in &decision.grows {
            match self
                .policy
                .plan_growth(&self.cluster, node, &compute_ids, need)
            {
                Some((local, borrows)) => {
                    if self.trace_on {
                        let borrowed_mb: u64 = borrows.iter().map(|&(_, mb)| mb).sum();
                        self.emit(TraceKind::MemGrow {
                            job: jid,
                            node,
                            local_mb: local,
                            borrowed_mb,
                        });
                    }
                    self.cluster.grow_entry(jid, node, local, &borrows, bw);
                    changed = true;
                }
                None => {
                    // Out of memory: terminate and resubmit (§2.2).
                    self.scratch.lenders = lenders_before;
                    self.scratch.entries = entries;
                    self.scratch.compute_ids = compute_ids;
                    self.kill(jid, KillCause::Oom);
                    return;
                }
            }
        }
        if changed {
            self.change_counter += 1;
            for l in self.cluster.job_lenders(jid) {
                if !lenders_before.contains(&l) {
                    lenders_before.push(l);
                }
            }
            self.refresh_speeds(jid, &lenders_before);
            self.ensure_tick();
        }
        self.scratch.lenders = lenders_before;
        self.scratch.entries = entries;
        self.scratch.compute_ids = compute_ids;
        self.rearm_after_update(jid, cursor, demand, seg_demand, seg_end);
    }

    /// Successful-update epilogue of the full Decider path: cache the
    /// fast-path state `(demand, alloc version)` — the version read
    /// *after* any grows/shrinks so the stamp covers them — persist the
    /// Monitor's cursor and segment cache, checkpoint (a successful
    /// update doubles as the checkpoint instant), clear the Actuator
    /// retry streak, and re-arm the next update. The hold fast path
    /// inlines the same epilogue minus the redundant stamp writes; the
    /// jittered-interval rng draw fires last on both paths, keeping
    /// draw order identical.
    fn rearm_after_update(
        &mut self,
        jid: JobId,
        cursor: usize,
        demand: u64,
        seg_demand: u64,
        seg_end: f64,
    ) {
        let version = self.cluster.alloc_version(jid);
        let s = &mut self.st[jid.0 as usize];
        s.trace_cursor = cursor;
        s.seg_demand = seg_demand;
        s.seg_end = seg_end;
        s.last_demand = demand;
        s.last_alloc_version = version;
        s.checkpoint_s = s.work_done_s;
        s.actuator_attempts = 0;
        let epoch = s.life_epoch;
        let dt = self.next_update_interval();
        self.queue.push(
            self.now.plus_secs(dt),
            EventKind::MemUpdate { job: jid, epoch },
        );
    }

    /// A Monitor sample was lost: the Decider sees nothing and the
    /// allocation stays at its last-known level. If the job's true usage
    /// outgrew that level on any of its nodes, it OOMs; otherwise the
    /// loop re-arms for the next update. The checkpoint does NOT advance
    /// — only successful updates checkpoint.
    fn on_monitor_loss(&mut self, jid: JobId) {
        self.stats.monitor_samples_lost += 1;
        self.emit(TraceKind::MonitorLoss { job: jid });
        self.advance_work(jid);
        let job = self.job(jid);
        let s = &self.st[jid.0 as usize];
        let progress = (s.work_done_s / job.base_runtime_s).min(1.0);
        let usage = job.usage.usage_at(progress);
        let min_alloc = self
            .cluster
            .alloc_of(jid)
            .expect("running job has alloc")
            .entries
            .iter()
            .map(|e| e.total_mb())
            .min()
            .unwrap_or(0);
        if usage > min_alloc {
            self.kill(jid, KillCause::Oom);
            return;
        }
        let epoch = self.st[jid.0 as usize].life_epoch;
        let dt = self.next_update_interval();
        self.queue.push(
            self.now.plus_secs(dt),
            EventKind::MemUpdate { job: jid, epoch },
        );
    }

    /// The Actuator's resize failed transiently. Retry the update after
    /// a deterministic exponential backoff; once the retry budget is
    /// exhausted, escalate to kill-and-resubmit.
    fn on_actuator_failure(&mut self, jid: JobId) {
        let max_retries = self.faults.actuator_max_retries;
        let s = &mut self.st[jid.0 as usize];
        s.actuator_attempts += 1;
        let attempts = s.actuator_attempts;
        if attempts > max_retries {
            s.actuator_attempts = 0;
            self.stats.actuator_escalations += 1;
            self.emit(TraceKind::ActuatorEscalate { job: jid, attempts });
            // Retry budget exhausted: kill-and-resubmit, escalating down
            // the §2.2 fairness ladder (static-guaranteed allocation
            // first) so a persistently failing Actuator cannot livelock
            // the job through endless dynamic retry cycles.
            self.kill(jid, KillCause::Fault { escalate: true });
            return;
        }
        self.stats.actuator_retries += 1;
        let exp = (attempts - 1).min(16);
        let backoff = self.faults.actuator_backoff_s * (1u64 << exp) as f64;
        let epoch = s.life_epoch;
        self.emit(TraceKind::ActuatorRetry {
            job: jid,
            attempt: attempts,
            backoff_s: backoff,
        });
        self.queue.push(
            self.now.plus_secs(backoff),
            EventKind::MemUpdate { job: jid, epoch },
        );
    }
}

/// Progress of the first trace point at or past `p_now` whose usage
/// exceeds `request`. Points are sorted by progress, so the probe binary
/// searches to the first eligible point (`partition_point`) and scans
/// forward only from there — a kill probe re-armed late in a long trace
/// no longer walks the whole prefix it has already lived through.
fn first_exceed_at(points: &[(f64, u64)], request: u64, p_now: f64) -> Option<f64> {
    let start = points.partition_point(|&(p, _)| p < p_now);
    points[start..]
        .iter()
        .find(|&&(_, m)| m > request)
        .map(|&(p, _)| p)
}

#[cfg(test)]
mod tests {
    use super::first_exceed_at;
    use dmhpc_model::rng::Rng64;

    /// The linear scan `first_exceed_at` replaced, kept as the oracle.
    fn linear_reference(points: &[(f64, u64)], request: u64, p_now: f64) -> Option<f64> {
        points
            .iter()
            .find(|&&(p, m)| m > request && p >= p_now)
            .map(|&(p, _)| p)
    }

    #[test]
    fn binary_search_matches_linear_scan() {
        let mut rng = Rng64::stream(0xE7CE, 0xED);
        for case in 0..200 {
            let n = (case % 17) + 1;
            let mut points: Vec<(f64, u64)> = Vec::new();
            let mut p = 0.0;
            for _ in 0..n {
                p += rng.range_f64(0.0, 0.2);
                points.push((p.min(1.0), (rng.range_f64(0.0, 8.0) as u64) * 100));
            }
            for request in [0, 150, 350, 800] {
                for p_now in [0.0, 0.25, 0.5, 0.99, 1.5] {
                    assert_eq!(
                        first_exceed_at(&points, request, p_now),
                        linear_reference(&points, request, p_now),
                        "case {case}, request {request}, p_now {p_now}: {points:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_and_boundary_traces() {
        assert_eq!(first_exceed_at(&[], 100, 0.0), None);
        // Exactly at p_now counts (`p >= p_now`).
        assert_eq!(first_exceed_at(&[(0.5, 200)], 100, 0.5), Some(0.5));
        // Just before p_now does not.
        assert_eq!(first_exceed_at(&[(0.49, 200)], 100, 0.5), None);
        // Equal to the request is not an exceed (`m > request`).
        assert_eq!(first_exceed_at(&[(0.5, 100)], 100, 0.0), None);
    }
}
