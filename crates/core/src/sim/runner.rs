//! The event loop: a configured [`Simulation`] builds a [`Runner`]
//! that pops events in time order and dispatches them to the layered
//! subsystems — scheduling ([`super::schedule`]), the dynamic-memory
//! loop ([`super::dynloop`]), OOM/restart handling ([`super::oom`]) and
//! fault recovery ([`super::recovery`]) — then folds the accumulated
//! metrics into a [`SimulationOutcome`].

use crate::cluster::{Cluster, JobAlloc, NodeId};
use crate::config::SystemConfig;
use crate::engine::{EventKind, EventQueue, SimTime};
use crate::faults::{FaultConfig, FaultEvent, FaultSchedule};
use crate::job::{Job, JobId};
use crate::sched::PendingQueue;
use dmhpc_model::rng::Rng64;
use dmhpc_model::ContentionModel;

use crate::telemetry::{Phase, Profile, Sample, TelemetryCollector, TimeSeries};
use crate::trace::{TraceEvent, TraceKind, TraceSink};
use std::sync::Arc;

use super::hooks::{MemManagement, MemoryPolicy};
use super::schedule::SchedScratch;
use super::state::{FailReason, JobOutcome, JobRecord, JobState, Status, Workload};
use super::stats::{Metrics, SimulationOutcome, Stats};

/// RNG stream for the runtime fault draws (Monitor sample loss and
/// Actuator transient failures), derived from the *fault* seed so fault
/// realisations are independent of the scheduler jitter stream.
const STREAM_SIM_FAULTS: u64 = 0xFA57_0001;

/// A configured simulation, ready to run. Built by
/// [`SimBuilder`](super::SimBuilder), the only construction path.
#[derive(Clone, Debug)]
pub struct Simulation {
    pub(crate) cfg: SystemConfig,
    pub(crate) workload: Arc<Workload>,
    pub(crate) policy: Box<dyn MemoryPolicy>,
    pub(crate) seed: u64,
    pub(crate) max_restarts: u32,
    pub(crate) fault_schedule: Option<FaultSchedule>,
    pub(crate) sink: Box<dyn TraceSink>,
    pub(crate) telemetry: Option<TelemetryCollector>,
}

impl Simulation {
    /// Run the simulation to completion.
    pub fn run(self) -> SimulationOutcome {
        Runner::new(self).run()
    }
}

/// The event-loop state machine. Fields are `pub(crate)` because the
/// sibling subsystem modules (`schedule`, `dynloop`, `oom`, `recovery`)
/// extend `Runner` with their own `impl` blocks.
#[derive(Clone)]
pub(crate) struct Runner {
    pub(crate) cfg: SystemConfig,
    pub(crate) policy: Box<dyn MemoryPolicy>,
    /// The immutable problem statement: jobs and profile pool, shared
    /// (not copied) with whoever built the simulation. All per-job
    /// mutable state lives in `st`.
    pub(crate) workload: Arc<Workload>,
    pub(crate) model: ContentionModel,
    pub(crate) max_restarts: u32,

    pub(crate) cluster: Cluster,
    pub(crate) queue: EventQueue,
    pub(crate) pending: PendingQueue,
    pub(crate) st: Vec<JobState>,
    pub(crate) running: Vec<JobId>,
    pub(crate) rng: Rng64,
    pub(crate) scratch: SchedScratch,
    pub(crate) monitor: crate::dynmem::Monitor,
    /// Highest peak usage of any *completed* job, per application
    /// class (indexed by `ProfileId`); 0 until a job of the class
    /// completes. The [`MemoryPolicy::size_request`] hook reads it to
    /// size allocations predictively.
    pub(crate) class_peaks: Vec<u64>,

    // Fault injection.
    pub(crate) faults: FaultConfig,
    pub(crate) faults_enabled: bool,
    pub(crate) fault_rng: Rng64,
    /// Jobs not yet in a terminal state; lets a faulted run stop once
    /// the outcome is decided instead of draining the fault schedule.
    pub(crate) live_jobs: u32,

    pub(crate) now: SimTime,
    pub(crate) tick_scheduled: bool,
    pub(crate) change_counter: u64,
    pub(crate) last_pass_counter: u64,
    pub(crate) submits_remaining: u32,

    pub(crate) stats: Stats,
    pub(crate) metrics: Metrics,

    // Tracing.
    pub(crate) sink: Box<dyn TraceSink>,
    /// Cached `sink.enabled()`: the only tracing cost a `NullSink` run
    /// pays is testing this bool at each emit point.
    pub(crate) trace_on: bool,

    // Telemetry. Samples and spans accumulate locally (the event loop
    // never takes the collector's lock) and flush once at finalize.
    pub(crate) telem: Option<TelemetryCollector>,
    /// Cached `telem.is_some()`: with no collector, every sampling and
    /// profiling point costs one predictable branch — the same
    /// zero-cost contract as `trace_on`.
    pub(crate) telem_on: bool,
    pub(crate) series: TimeSeries,
    pub(crate) profile: Profile,
}

impl Runner {
    pub(crate) fn new(sim: Simulation) -> Self {
        let cluster = Cluster::from_config(&sim.cfg);
        let model = ContentionModel::new(sim.cfg.link_capacity_gbs);
        let n = sim.workload.jobs.len();
        let mut stats = Stats {
            total_jobs: n as u32,
            ..Stats::default()
        };
        // Start-up events, in the order that stamps their tie-break
        // seqs: submits in job-id order, the first tick, then faults.
        let mut startup = Vec::with_capacity(n + 1);
        let mut st = vec![JobState::new(); n];
        // Feasibility screen on the empty cluster: unschedulable jobs are
        // excluded up front (they would pin the queue head forever). The
        // screen sizes with no class history (none exists yet) and takes
        // the max with the raw request, because a job the fairness
        // ladder later demotes to static mode must be placeable at its
        // full request — placement success is monotone decreasing in
        // the request, so screening at the max covers both modes.
        let mut submits = 0u32;
        let mut screen_scratch = crate::policy::PlacementScratch::new();
        for job in &sim.workload.jobs {
            let screen_mb = sim
                .policy
                .size_request(job.mem_request_mb, None)
                .max(job.mem_request_mb);
            let ok = job.nodes as usize <= cluster.len()
                && sim
                    .policy
                    .place(&cluster, job.nodes, screen_mb, &mut screen_scratch)
                    .is_some();
            if ok {
                startup.push((SimTime::from_secs(job.submit_s), EventKind::Submit(job.id)));
                submits += 1;
            } else {
                st[job.id.0 as usize].status = Status::Unschedulable;
                stats.unschedulable += 1;
            }
        }
        startup.push((SimTime::ZERO, EventKind::SchedTick));
        // Fault schedule: pre-generated from the fault seed before the
        // run starts, so injection is deterministic and never consults
        // the wallclock. Zero-rate configs generate nothing and take no
        // draw — fault-free runs are bit-identical to pre-fault builds.
        let faults = sim.cfg.faults;
        let schedule = match sim.fault_schedule {
            Some(s) => s,
            None if faults.enabled() => {
                let capacities: Vec<u64> = (0..cluster.len())
                    .map(|i| cluster.node(NodeId(i as u32)).capacity_mb)
                    .collect();
                FaultSchedule::generate(&faults, &capacities)
            }
            None => FaultSchedule::default(),
        };
        let faults_enabled = !schedule.is_empty()
            || faults.monitor_loss_prob > 0.0
            || faults.actuator_fail_prob > 0.0;
        startup.extend(schedule.events.iter().map(|&(t, fe)| {
            let kind = match fe {
                FaultEvent::NodeFail { node } => EventKind::NodeFail { node },
                FaultEvent::NodeRepair { node } => EventKind::NodeRepair { node },
                FaultEvent::PoolDegrade { node, mb } => EventKind::PoolDegrade { node, mb },
                FaultEvent::PoolRestore { node, mb } => EventKind::PoolRestore { node, mb },
            };
            (t, kind)
        }));
        let monitor = crate::dynmem::Monitor::new(sim.cfg.mem_update_interval_s)
            .expect("SystemConfig carries a positive update interval");
        let trace_on = sim.sink.enabled();
        let telem_on = sim.telemetry.is_some();
        let telem_spec = sim
            .telemetry
            .as_ref()
            .map(TelemetryCollector::spec)
            .unwrap_or_default();
        let class_peaks = vec![0u64; sim.workload.pool.len()];
        // The ring lane spans the longest memory-update re-arm, so every
        // periodic update lands in it.
        let queue = EventQueue::with_arrivals(sim.cfg.longest_update_interval(), startup);
        Self {
            rng: Rng64::stream(sim.seed, 0xD15A),
            fault_rng: Rng64::stream(faults.seed, STREAM_SIM_FAULTS),
            faults,
            faults_enabled,
            live_jobs: submits,
            monitor,
            cfg: sim.cfg,
            policy: sim.policy,
            workload: sim.workload,
            model,
            max_restarts: sim.max_restarts,
            cluster,
            queue,
            pending: PendingQueue::new(),
            st,
            running: Vec::new(),
            scratch: SchedScratch::default(),
            class_peaks,
            now: SimTime::ZERO,
            tick_scheduled: true,
            change_counter: 1,
            last_pass_counter: 0,
            submits_remaining: submits,
            stats,
            metrics: Metrics::default(),
            sink: sim.sink,
            trace_on,
            telem: sim.telemetry,
            telem_on,
            series: TimeSeries::new(telem_spec.sample_interval_s, telem_spec.capacity),
            profile: Profile::default(),
        }
    }

    pub(crate) fn job(&self, id: JobId) -> &Job {
        &self.workload.jobs[id.0 as usize]
    }

    /// The per-node MB the scheduler asks the policy to place for this
    /// job right now: the submitted request, adjusted by the policy's
    /// [`MemoryPolicy::size_request`] hook using the accumulated
    /// class-peak history. A job the fairness ladder demoted to static
    /// mode is always pinned at its full request — the
    /// static-guaranteed promise of §2.2.
    pub(crate) fn effective_request(&self, jid: JobId) -> u64 {
        let job = &self.workload.jobs[jid.0 as usize];
        if self.st[jid.0 as usize].static_mode {
            return job.mem_request_mb;
        }
        let peak = self.class_peaks[job.profile.0 as usize];
        self.policy
            .size_request(job.mem_request_mb, (peak > 0).then_some(peak))
    }

    /// Management mode for a placed job: the policy's answer given the
    /// job's fairness-ladder state and whether its current attempt was
    /// placed below the submitted request.
    pub(crate) fn job_management(&self, jid: JobId) -> MemManagement {
        let s = &self.st[jid.0 as usize];
        let undersized = s.sized_mb < self.workload.jobs[jid.0 as usize].mem_request_mb;
        self.policy.management(s.static_mode, undersized)
    }

    /// Emit one trace event at the current sim-time. `TraceKind` is
    /// `Copy` (plain scalars), so constructing the argument costs a few
    /// register moves; with the default [`NullSink`] the cached flag
    /// makes this a single predictable branch. Call sites whose fields
    /// are expensive to gather guard on `self.trace_on` themselves.
    #[inline]
    pub(crate) fn emit(&mut self, kind: TraceKind) {
        if self.trace_on {
            self.sink.record(&TraceEvent { t: self.now, kind });
        }
    }

    /// Start a wall-clock phase span; `None` (one branch, no clock
    /// read) when no telemetry collector is attached.
    #[inline]
    pub(crate) fn phase_start(&self) -> Option<std::time::Instant> {
        self.telem_on.then(std::time::Instant::now)
    }

    /// Close a span opened by [`Runner::phase_start`], folding its
    /// elapsed wall-clock into the run profile.
    #[inline]
    pub(crate) fn phase_end(&mut self, phase: Phase, span: Option<std::time::Instant>) {
        if let Some(t0) = span {
            self.profile.record(phase, t0.elapsed());
        }
    }

    /// Snapshot the gauge set at the current instant. Every field is a
    /// pure function of simulation state, so equal seeds yield equal
    /// samples. The per-rack lend scan is O(nodes) but runs only at
    /// sample instants with telemetry attached.
    fn gauge_sample(&self) -> Sample {
        let racks = self.cluster.topology().racks() as usize;
        let mut rack_lent_mb = vec![0u64; racks];
        for (id, node) in self.cluster.iter() {
            if node.lent_mb > 0 {
                rack_lent_mb[self.cluster.rack_of(id) as usize] += node.lent_mb;
            }
        }
        let cap = self.cluster.total_capacity_mb();
        let alloc = self.cluster.total_allocated_mb();
        Sample {
            t_s: self.now.as_secs(),
            queue_depth: self.pending.len() as u32,
            resident_jobs: self.running.len() as u32,
            pool_util: if cap > 0 {
                alloc as f64 / cap as f64
            } else {
                0.0
            },
            free_pool_mb: self.cluster.free_pool_mb(),
            borrowed_mb: self.cluster.total_remote_mb(),
            cross_rack_mb: self.cluster.total_cross_rack_mb(),
            oom_kills: self.stats.oom_kills,
            actuator_retries: self.stats.actuator_retries,
            rack_lent_mb,
        }
    }

    pub(crate) fn run(mut self) -> SimulationOutcome {
        while let Some(ev) = self.queue.pop() {
            self.metrics.advance_integrals(&self.cluster, ev.time);
            self.now = ev.time;
            // Gauge sampling: one branch when telemetry is off; when
            // on, one f64 compare per event plus the gauge snapshot at
            // crossing instants (idle gaps contribute one sample).
            if self.telem_on && self.series.due(ev.time.as_secs()) {
                let sample = self.gauge_sample();
                self.series.push(sample);
            }
            match ev.kind {
                EventKind::Submit(job) => self.on_submit(job),
                EventKind::SchedTick => self.on_tick(),
                EventKind::JobEnd { job, epoch } => self.on_job_end(job, epoch),
                EventKind::MemUpdate { job, epoch } => self.on_mem_update(job, epoch),
                EventKind::NodeFail { node } => self.on_node_fail(node),
                EventKind::NodeRepair { node } => self.on_node_repair(node),
                EventKind::PoolDegrade { node, mb } => self.on_pool_degrade(node, mb),
                EventKind::PoolRestore { node, mb } => self.on_pool_restore(node, mb),
            }
            // Under fault injection the schedule can extend far past the
            // last job; stop once every job reached a terminal state.
            if self.faults_enabled && self.live_jobs == 0 {
                break;
            }
            if self.queue.should_compact() {
                self.compact_events();
            }
        }
        self.finalize()
    }

    /// Drop stale events once lazy deletion has let them outnumber live
    /// ones (see [`EventQueue::should_compact`]), bounding queue growth.
    /// Survivors keep their `(time, seq)` keys, so live events pop in
    /// the same order. The sweep is not outcome-neutral: every stale
    /// pop advances the metric integrals, so *when* it fires is part of
    /// the run's behaviour. The trigger is deterministic and counts the
    /// pending events of every queue lane.
    fn compact_events(&mut self) {
        let st = &self.st;
        self.queue.compact(|e| match e.kind {
            EventKind::JobEnd { job, epoch } => {
                let s = &st[job.0 as usize];
                s.status == Status::Running && s.end_epoch == epoch
            }
            EventKind::MemUpdate { job, epoch } => {
                let s = &st[job.0 as usize];
                s.status == Status::Running && s.life_epoch == epoch
            }
            EventKind::Submit(_)
            | EventKind::SchedTick
            | EventKind::NodeFail { .. }
            | EventKind::NodeRepair { .. }
            | EventKind::PoolDegrade { .. }
            | EventKind::PoolRestore { .. } => true,
        });
    }

    fn on_submit(&mut self, job: JobId) {
        let s = &mut self.st[job.0 as usize];
        debug_assert!(matches!(s.status, Status::Waiting | Status::Pending));
        s.status = Status::Pending;
        if s.boosted {
            self.pending.push_front(job);
        } else {
            self.pending.push(job);
        }
        self.submits_remaining = self.submits_remaining.saturating_sub(1);
        self.change_counter += 1;
        self.emit(TraceKind::JobSubmit { job });
        self.ensure_tick();
    }

    pub(crate) fn ensure_tick(&mut self) {
        if !self.tick_scheduled {
            self.queue
                .schedule_tick(self.now.plus_secs(self.cfg.sched_interval_s));
            self.tick_scheduled = true;
        }
    }

    fn on_tick(&mut self) {
        self.tick_scheduled = false;
        if self.change_counter != self.last_pass_counter {
            self.schedule_pass();
            self.last_pass_counter = self.change_counter;
        }
        if !self.pending.is_empty() || !self.running.is_empty() || self.submits_remaining > 0 {
            self.ensure_tick();
        }
    }

    /// Place a job through the policy, reusing the runner's placement
    /// scratch buffers.
    pub(crate) fn place(&mut self, nodes: u32, req: u64) -> Option<JobAlloc> {
        self.policy
            .place(&self.cluster, nodes, req, &mut self.scratch.place)
    }

    /// Advance a running job's completed work to `self.now`.
    pub(crate) fn advance_work(&mut self, jid: JobId) {
        let s = &mut self.st[jid.0 as usize];
        let dt = self.now - s.last_advance;
        if dt > 0.0 {
            s.work_done_s += dt * s.speed;
            s.last_advance = self.now;
        }
    }

    fn on_job_end(&mut self, jid: JobId, epoch: u32) {
        {
            let s = &self.st[jid.0 as usize];
            if s.status != Status::Running || s.end_epoch != epoch {
                self.queue.note_stale_popped();
                return;
            }
        }
        self.advance_work(jid);
        let lenders = self.take_lenders(jid);
        self.cluster.finish_job(jid);
        self.running.retain(|&r| r != jid);
        let job_submit = self.job(jid).submit_s;
        let base = self.job(jid).base_runtime_s;
        // Completion feeds the class-peak history the predictive sizing
        // hook reads; only completed jobs count (a killed attempt's
        // observed usage is censored).
        let class = self.job(jid).profile.0 as usize;
        self.class_peaks[class] = self.class_peaks[class].max(self.job(jid).peak_mb());
        let s = &mut self.st[jid.0 as usize];
        s.status = Status::Done;
        s.life_epoch += 1;
        s.finish = Some(self.now);
        let attempt_wallclock = self.now - s.start;
        let attempt_work = base - s.credit_at_start_s;
        let first = s.first_start.unwrap_or(s.start);
        let restarts = s.restarts;
        self.stats.completed += 1;
        self.live_jobs = self.live_jobs.saturating_sub(1);
        self.metrics
            .note_completion(self.now, job_submit, first, attempt_wallclock, attempt_work);
        self.change_counter += 1;
        self.emit(TraceKind::JobFinish { job: jid, restarts });
        // Freed memory may unblock queued jobs and eases pressure on the
        // lenders this job was borrowing from.
        self.update_borrower_speeds(&lenders);
        self.scratch.lenders = lenders;
        self.ensure_tick();
    }

    fn finalize(mut self) -> SimulationOutcome {
        let span = self.phase_start();
        debug_assert!(self.running.is_empty(), "run ended with running jobs");
        debug_assert!(self.pending.is_empty(), "run ended with pending jobs");
        // The series always ends on the final simulated state, even if
        // the stride would not be due yet.
        if self.telem_on {
            let sample = self.gauge_sample();
            self.series.push_final(sample);
        }
        // Conservation checks, in release builds too: one O(jobs +
        // nodes) pass per run. Every job must end in exactly one
        // terminal bucket, and the cluster ledgers must match a rebuild.
        if let Err(e) = self.stats.reconcile() {
            panic!("end-of-run stats check failed: {e}");
        }
        if let Err(e) = self.cluster.check_invariants() {
            panic!("end-of-run cluster check failed: {e}");
        }
        let metrics = std::mem::take(&mut self.metrics);
        let (resp, waits) = metrics.finish(&mut self.stats, &self.cluster);
        let feasible = self.stats.unschedulable == 0;
        let job_records = self
            .workload
            .jobs
            .iter()
            .map(|job| {
                let s = &self.st[job.id.0 as usize];
                let outcome = match s.status {
                    Status::Done => JobOutcome::Completed,
                    Status::Failed(FailReason::ExceededRequest) => JobOutcome::FailedExceeded,
                    Status::Failed(FailReason::TooManyRestarts) => JobOutcome::FailedRestarts,
                    Status::Unschedulable => JobOutcome::Unschedulable,
                    other => unreachable!("{} ended in state {other:?}", job.id),
                };
                JobRecord {
                    id: job.id,
                    submit_s: job.submit_s,
                    first_start_s: s.first_start.map(SimTime::as_secs),
                    finish_s: s.finish.map(SimTime::as_secs),
                    restarts: s.restarts,
                    outcome,
                }
            })
            .collect();
        self.phase_end(Phase::Finalize, span);
        if let Some(collector) = self.telem.take() {
            collector.absorb(self.series, &self.profile);
        }
        SimulationOutcome {
            stats: self.stats,
            response_times_s: resp,
            wait_times_s: waits,
            job_records,
            feasible,
        }
    }
}
