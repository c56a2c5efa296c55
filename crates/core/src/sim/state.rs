//! Job-lifecycle state: the workload container, the per-job state
//! machine the runner drives, and the per-job records a run produces.

use super::hooks::MemManagement;
use crate::engine::SimTime;
use crate::error::CoreError;
use crate::job::{Job, JobId};
use dmhpc_model::ProfilePool;

/// A workload: the jobs to simulate plus the profile pool their slowdown
/// model draws from. Jobs must be indexed by their [`JobId`]
/// (`jobs[i].id == JobId(i)`).
#[derive(Clone, Debug)]
pub struct Workload {
    /// Jobs, indexed by id.
    pub jobs: Vec<Job>,
    /// Application profiles referenced by `Job::profile`.
    pub pool: ProfilePool,
}

impl Workload {
    /// Build a workload, validating the id-index correspondence.
    ///
    /// # Errors
    /// Returns an error if `jobs[i].id != JobId(i)` for some `i`, or if
    /// a job references a profile outside the pool.
    pub fn try_new(jobs: Vec<Job>, pool: ProfilePool) -> Result<Self, CoreError> {
        for (i, j) in jobs.iter().enumerate() {
            if j.id != JobId(i as u32) {
                return Err(CoreError::invalid_trace(format!(
                    "jobs must be indexed by id: slot {i} holds {}",
                    j.id
                )));
            }
            if (j.profile.0 as usize) >= pool.len() {
                return Err(CoreError::invalid_trace(format!(
                    "{} references missing profile {:?}",
                    j.id, j.profile
                )));
            }
        }
        Ok(Self { jobs, pool })
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the workload has no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }
}

/// Why a job permanently failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailReason {
    /// Static/baseline policy: actual usage exceeded the request.
    ExceededRequest,
    /// Dynamic policy: job hit the restart cap after repeated OOM kills.
    TooManyRestarts,
}

/// Where a job is in its lifecycle.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Status {
    /// Submit event not yet fired.
    Waiting,
    /// In the pending queue.
    Pending,
    /// Running on the cluster.
    Running,
    /// Completed successfully.
    Done,
    /// Permanently failed.
    Failed(FailReason),
    /// Could not run even on an empty cluster ("missing bars").
    Unschedulable,
}

/// Mutable per-job state the runner updates as events fire.
#[derive(Clone, Debug)]
pub(crate) struct JobState {
    pub(crate) status: Status,
    /// Bumped whenever the job-end event must be re-keyed.
    pub(crate) end_epoch: u32,
    /// Bumped on kill/finish; invalidates pending MemUpdate events.
    pub(crate) life_epoch: u32,
    pub(crate) start: SimTime,
    pub(crate) first_start: Option<SimTime>,
    pub(crate) last_advance: SimTime,
    /// Seconds of base work completed in the current attempt (includes
    /// checkpoint credit).
    pub(crate) work_done_s: f64,
    /// Work credited on restart under Checkpoint/Restart; advanced to the
    /// latest successful memory update while running (the update doubles
    /// as the checkpoint instant).
    pub(crate) checkpoint_s: f64,
    /// Snapshot of `checkpoint_s` when the current attempt started; used
    /// to compute the attempt's true work for slowdown accounting.
    pub(crate) credit_at_start_s: f64,
    pub(crate) speed: f64,
    pub(crate) restarts: u32,
    pub(crate) finish: Option<SimTime>,
    /// §2.2 fairness: resubmissions jump to the queue head.
    pub(crate) boosted: bool,
    /// §2.2 fairness: the job now runs with a pinned static allocation.
    pub(crate) static_mode: bool,
    /// The job has been killed by an injected fault at least once.
    pub(crate) fault_killed: bool,
    /// Consecutive Actuator failures on the current resize; reset to
    /// zero by every successful update.
    pub(crate) actuator_attempts: u32,
    /// Per-node MB the current attempt was placed with (the policy's
    /// [`size_request`](crate::sim::MemoryPolicy::size_request) answer);
    /// below `mem_request_mb` means the job runs undersized.
    pub(crate) sized_mb: u64,
    /// Demand the last *successful* memory update provisioned, or
    /// `u64::MAX` when no update has completed this attempt. Together
    /// with `last_alloc_version` this is the dynloop hold-fast-path
    /// cache: an unchanged (demand, alloc version) pair proves the
    /// Decider would hold, so the update re-arms without rebuilding
    /// entries or running the Decider. Speed needs no stamp of its own —
    /// it enters the decision only through the Monitor's horizon, which
    /// is resampled into `demand` on every update.
    pub(crate) last_demand: u64,
    /// [`crate::cluster::Cluster::alloc_version`] stamp observed when
    /// `last_demand` was cached.
    pub(crate) last_alloc_version: u64,
    /// Resumable usage-trace cursor (segment index of the last sampled
    /// progress); reset on every (re)start since restarts rewind
    /// progress to the checkpoint.
    pub(crate) trace_cursor: usize,
    /// Monitor segment cache: when the last sampled window sat entirely
    /// inside one flat trace segment, the segment's value; demand stays
    /// exactly this while the horizon remains below `seg_end`, so the
    /// Monitor skips the trace walk. Invalidated (`seg_end = -inf`)
    /// whenever the window crossed a segment boundary.
    pub(crate) seg_demand: u64,
    /// Progress of the first trace point past the cached segment
    /// (`f64::INFINITY` when the cursor sits on the last point).
    pub(crate) seg_end: f64,
    /// Management mode resolved at placement. `static_mode` and
    /// `sized_mb` are fixed for the whole attempt and
    /// [`MemoryPolicy::management`] is pure, so the answer cannot
    /// change between updates; debug builds re-ask the policy every
    /// update and assert it did not.
    ///
    /// [`MemoryPolicy::management`]: crate::sim::MemoryPolicy::management
    pub(crate) management: MemManagement,
}

impl JobState {
    pub(crate) fn new() -> Self {
        Self {
            status: Status::Waiting,
            end_epoch: 0,
            life_epoch: 0,
            start: SimTime::ZERO,
            first_start: None,
            last_advance: SimTime::ZERO,
            work_done_s: 0.0,
            checkpoint_s: 0.0,
            credit_at_start_s: 0.0,
            speed: 1.0,
            restarts: 0,
            finish: None,
            boosted: false,
            static_mode: false,
            fault_killed: false,
            actuator_attempts: 0,
            sized_mb: 0,
            last_demand: u64::MAX,
            last_alloc_version: 0,
            trace_cursor: 0,
            seg_demand: 0,
            seg_end: f64::NEG_INFINITY,
            management: MemManagement::Pinned,
        }
    }

    /// Invalidate the dynloop fast-path cache and rewind the trace
    /// cursor. Called at every (re)start of the job: a restart rewinds
    /// progress to the checkpoint, and the fresh placement has a fresh
    /// allocation version anyway.
    pub(crate) fn reset_dynloop_cache(&mut self) {
        self.last_demand = u64::MAX;
        self.last_alloc_version = 0;
        self.trace_cursor = 0;
        self.seg_demand = 0;
        self.seg_end = f64::NEG_INFINITY;
    }
}

/// How one job ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobOutcome {
    /// Ran to completion.
    Completed,
    /// Killed for exceeding its request (static/baseline rule).
    FailedExceeded,
    /// Hit the OOM restart cap.
    FailedRestarts,
    /// Could not be placed even on an empty cluster.
    Unschedulable,
}

/// Per-job record of a run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JobRecord {
    /// The job.
    pub id: JobId,
    /// Submission time, seconds.
    pub submit_s: f64,
    /// First dispatch time, if the job ever started.
    pub first_start_s: Option<f64>,
    /// Completion time, if the job completed.
    pub finish_s: Option<f64>,
    /// Number of OOM restarts the job went through.
    pub restarts: u32,
    /// Terminal state.
    pub outcome: JobOutcome,
}
