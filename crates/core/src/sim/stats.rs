//! Aggregate statistics and the metric accumulators the runner feeds
//! while the event loop executes.

use crate::cluster::Cluster;
use crate::engine::SimTime;

use super::state::JobRecord;

/// Aggregate results of one simulation run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Stats {
    /// Jobs in the workload.
    pub total_jobs: u32,
    /// Jobs that completed successfully.
    pub completed: u32,
    /// Jobs that could never be placed (→ the configuration is reported
    /// as a missing bar in the paper's plots).
    pub unschedulable: u32,
    /// Jobs killed for exceeding their request (static/baseline).
    pub failed_exceeded: u32,
    /// Jobs that hit the restart cap (dynamic).
    pub failed_restarts: u32,
    /// Out-of-memory kill events (each may be followed by a restart).
    pub oom_kills: u32,
    /// Distinct jobs killed at least once for OOM — the quantity the
    /// paper bounds ("less than 1% of jobs fail due to insufficient
    /// memory" in the most extreme scenario).
    pub jobs_oom_killed: u32,
    /// Wallclock from t=0 to the last completion, seconds.
    pub makespan_s: f64,
    /// System throughput: completed jobs per second of makespan.
    pub throughput_jps: f64,
    /// Mean fraction of nodes busy over the makespan.
    pub avg_node_utilization: f64,
    /// Mean fraction of total memory allocated over the makespan.
    pub avg_mem_utilization: f64,
    /// Mean slowdown experienced by completed jobs (wallclock runtime of
    /// the final attempt ÷ base runtime).
    pub mean_slowdown: f64,
    /// Injected node crashes that actually took a node down.
    pub fault_node_crashes: u32,
    /// Injected pool-blade degradations that removed capacity.
    pub fault_pool_degrades: u32,
    /// Kill events caused by faults (crash evacuations, irrecoverable
    /// degradations, Actuator escalations); each may be followed by a
    /// restart.
    pub fault_job_kills: u32,
    /// Distinct jobs killed at least once by a fault.
    pub jobs_fault_killed: u32,
    /// Work seconds discarded by fault kills (work done minus checkpoint
    /// credit, summed over kills).
    pub fault_work_lost_s: f64,
    /// Work seconds preserved across fault kills by Checkpoint/Restart.
    pub fault_checkpoint_credit_s: f64,
    /// Monitor samples dropped by injected sample loss.
    pub monitor_samples_lost: u32,
    /// Actuator operations retried after a transient injected failure.
    pub actuator_retries: u32,
    /// Actuator failures that exhausted their retry budget and escalated
    /// to kill-and-resubmit.
    pub actuator_escalations: u32,
    /// Mean fraction of total memory capacity online over the makespan
    /// (1.0 in fault-free runs).
    pub avg_pool_availability: f64,
    /// Time-weighted fraction of allocated memory that was borrowed
    /// (remote), over the makespan. Zero under the baseline policy.
    pub avg_remote_fraction: f64,
    /// Time-weighted fraction of allocated memory borrowed across rack
    /// boundaries. Always zero on the flat topology — this is the
    /// quantity `cross_cap` prices.
    pub avg_cross_rack_fraction: f64,
}

impl Stats {
    /// Conservation check: every workload job must end in exactly one
    /// terminal bucket, so the sum of `completed`, `unschedulable`,
    /// `failed_exceeded`, and `failed_restarts` must equal
    /// `total_jobs`. The runner asserts this in debug builds at run
    /// end; a mismatch means a terminal counter was double-counted or
    /// skipped.
    ///
    /// # Errors
    /// Returns a description of the imbalance.
    pub fn reconcile(&self) -> Result<(), String> {
        let accounted =
            self.completed + self.unschedulable + self.failed_exceeded + self.failed_restarts;
        if accounted == self.total_jobs {
            Ok(())
        } else {
            Err(format!(
                "terminal buckets hold {accounted} jobs (completed {} + unschedulable {} \
                 + failed_exceeded {} + failed_restarts {}) but the workload has {}",
                self.completed,
                self.unschedulable,
                self.failed_exceeded,
                self.failed_restarts,
                self.total_jobs
            ))
        }
    }
}

/// Everything a run produces: stats plus per-job timing distributions.
#[derive(Clone, Debug, PartialEq)]
pub struct SimulationOutcome {
    /// Aggregate statistics.
    pub stats: Stats,
    /// Response time (submission → completion) of each completed job.
    pub response_times_s: Vec<f64>,
    /// Wait time (submission → first start) of each completed job.
    pub wait_times_s: Vec<f64>,
    /// Per-job records, indexed by [`crate::job::JobId`].
    pub job_records: Vec<JobRecord>,
    /// True when every job could run under this configuration.
    pub feasible: bool,
}

/// Streaming metric accumulators: time-weighted utilisation integrals
/// and the per-completion distributions. The runner advances the
/// integrals before every event and notes each completion; [`finish`]
/// folds the accumulated values into a [`Stats`].
///
/// [`finish`]: Metrics::finish
#[derive(Clone, Debug, Default)]
pub(crate) struct Metrics {
    pub(crate) resp: Vec<f64>,
    pub(crate) waits: Vec<f64>,
    pub(crate) slowdown_sum: f64,
    pub(crate) last_completion: SimTime,
    pub(crate) util_last: SimTime,
    pub(crate) busy_integral: f64,
    pub(crate) mem_integral: f64,
    pub(crate) offline_integral: f64,
    pub(crate) remote_integral: f64,
    pub(crate) cross_integral: f64,
}

impl Metrics {
    /// Advance the busy/allocated/offline integrals to `to` against the
    /// cluster's current occupancy.
    pub(crate) fn advance_integrals(&mut self, cluster: &Cluster, to: SimTime) {
        let dt = to - self.util_last;
        if dt > 0.0 {
            let busy = cluster.len() - cluster.idle_count();
            self.busy_integral += dt * busy as f64;
            self.mem_integral += dt * cluster.total_allocated_mb() as f64;
            self.offline_integral += dt * cluster.total_offline_mb() as f64;
            self.remote_integral += dt * cluster.total_remote_mb() as f64;
            self.cross_integral += dt * cluster.total_cross_rack_mb() as f64;
            self.util_last = to;
        }
    }

    /// Record one successful completion at `now`: response and wait
    /// samples plus the final attempt's slowdown contribution.
    pub(crate) fn note_completion(
        &mut self,
        now: SimTime,
        submit_s: f64,
        first_start: SimTime,
        attempt_wallclock: f64,
        attempt_work_s: f64,
    ) {
        if attempt_work_s > 0.0 {
            self.slowdown_sum += attempt_wallclock / attempt_work_s;
        } else {
            self.slowdown_sum += 1.0;
        }
        self.resp.push(now.as_secs() - submit_s);
        self.waits.push(first_start.as_secs() - submit_s);
        self.last_completion = now;
    }

    /// Fold the accumulators into `stats` (makespan, throughput,
    /// utilisations, mean slowdown, pool availability) and hand back the
    /// response/wait distributions.
    pub(crate) fn finish(self, stats: &mut Stats, cluster: &Cluster) -> (Vec<f64>, Vec<f64>) {
        let makespan = self.last_completion.as_secs();
        stats.makespan_s = makespan;
        stats.throughput_jps = if makespan > 0.0 {
            stats.completed as f64 / makespan
        } else {
            0.0
        };
        if makespan > 0.0 {
            stats.avg_node_utilization = self.busy_integral / (makespan * cluster.len() as f64);
            stats.avg_mem_utilization =
                self.mem_integral / (makespan * cluster.total_capacity_mb() as f64);
            stats.avg_pool_availability =
                1.0 - self.offline_integral / (makespan * cluster.total_capacity_mb() as f64);
        } else {
            stats.avg_pool_availability = 1.0;
        }
        stats.mean_slowdown = if stats.completed > 0 {
            self.slowdown_sum / stats.completed as f64
        } else {
            0.0
        };
        // Remote/cross fractions are of allocated byte-seconds, not
        // capacity: "how much of what jobs held was remote".
        if self.mem_integral > 0.0 {
            stats.avg_remote_fraction = self.remote_integral / self.mem_integral;
            stats.avg_cross_rack_fraction = self.cross_integral / self.mem_integral;
        }
        (self.resp, self.waits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reconcile_accepts_balanced_buckets() {
        let stats = Stats {
            total_jobs: 10,
            completed: 6,
            unschedulable: 1,
            failed_exceeded: 2,
            failed_restarts: 1,
            ..Stats::default()
        };
        assert_eq!(stats.reconcile(), Ok(()));
    }

    #[test]
    fn reconcile_reports_double_counting() {
        // A job counted both as completed and as failed would inflate
        // the terminal buckets past the workload size.
        let stats = Stats {
            total_jobs: 10,
            completed: 10,
            failed_restarts: 1,
            ..Stats::default()
        };
        let err = stats.reconcile().unwrap_err();
        assert!(err.contains("11 jobs"), "{err}");
        assert!(err.contains("workload has 10"), "{err}");

        let missing = Stats {
            total_jobs: 10,
            completed: 9,
            ..Stats::default()
        };
        assert!(missing.reconcile().is_err());
    }
}
