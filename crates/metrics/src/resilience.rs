//! Resilience metrics for fault-injection runs.
//!
//! Fault sweeps (node crashes, pool-blade degradation, Monitor sample
//! loss, Actuator failures — see `dmhpc-core::faults`) produce per-run
//! counters. This module condenses them into the quantities the fault
//! experiments report: how much submitted work each policy completed,
//! how much progress faults destroyed versus how much checkpointing
//! saved, and how hard the Actuator had to work to keep allocations
//! alive. Plain numbers in, plain numbers out — no dependency on the
//! simulator crate, so the statistics stay reusable for external logs.

/// Fault-related counters from one simulation run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ResilienceSample {
    /// Jobs submitted in the workload.
    pub total_jobs: u32,
    /// Jobs that ran to completion.
    pub completed: u32,
    /// Fault-induced kill events (a job can die more than once).
    pub fault_kills: u32,
    /// Distinct jobs killed by a fault at least once.
    pub jobs_fault_killed: u32,
    /// Work-seconds of progress destroyed by fault kills (after
    /// checkpoint credit).
    pub work_lost_s: f64,
    /// Work-seconds preserved by checkpoints at fault-kill time.
    pub checkpoint_credit_s: f64,
    /// Time-averaged fraction of pool capacity that stayed online,
    /// in `[0, 1]`.
    pub pool_availability: f64,
    /// Actuator grow/shrink retries after transient failures.
    pub actuator_retries: u32,
    /// Actuator escalations (retry budget exhausted → job killed).
    pub actuator_escalations: u32,
}

impl ResilienceSample {
    /// Fraction of submitted jobs that completed, in `[0, 1]`.
    pub fn completion_rate(&self) -> f64 {
        if self.total_jobs == 0 {
            return 1.0;
        }
        self.completed as f64 / self.total_jobs as f64
    }

    /// Fraction of fault-destroyed progress that checkpoints saved:
    /// `credit / (credit + lost)`. `1.0` when faults destroyed nothing.
    pub fn checkpoint_save_ratio(&self) -> f64 {
        let total = self.checkpoint_credit_s + self.work_lost_s;
        if total <= 0.0 {
            return 1.0;
        }
        self.checkpoint_credit_s / total
    }
}

/// Aggregate over a set of runs (e.g. one policy across fault seeds).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ResilienceSummary {
    /// Number of runs aggregated.
    pub runs: usize,
    /// Mean completion rate across runs.
    pub mean_completion_rate: f64,
    /// Mean pool availability across runs.
    pub mean_pool_availability: f64,
    /// Total fault kill events across runs.
    pub total_fault_kills: u32,
    /// Total work-seconds lost across runs.
    pub total_work_lost_s: f64,
    /// Total work-seconds saved by checkpoints across runs.
    pub total_checkpoint_credit_s: f64,
    /// Total Actuator retries across runs.
    pub total_actuator_retries: u32,
    /// Total Actuator escalations across runs.
    pub total_actuator_escalations: u32,
}

impl ResilienceSummary {
    /// Aggregate `samples`; returns `None` for an empty slice.
    pub fn of(samples: &[ResilienceSample]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let n = samples.len() as f64;
        Some(Self {
            runs: samples.len(),
            mean_completion_rate: samples
                .iter()
                .map(ResilienceSample::completion_rate)
                .sum::<f64>()
                / n,
            mean_pool_availability: samples.iter().map(|s| s.pool_availability).sum::<f64>() / n,
            total_fault_kills: samples.iter().map(|s| s.fault_kills).sum(),
            total_work_lost_s: samples.iter().map(|s| s.work_lost_s).sum(),
            total_checkpoint_credit_s: samples.iter().map(|s| s.checkpoint_credit_s).sum(),
            total_actuator_retries: samples.iter().map(|s| s.actuator_retries).sum(),
            total_actuator_escalations: samples.iter().map(|s| s.actuator_escalations).sum(),
        })
    }

    /// Overall checkpoint save ratio over the aggregate totals.
    pub fn checkpoint_save_ratio(&self) -> f64 {
        let total = self.total_checkpoint_credit_s + self.total_work_lost_s;
        if total <= 0.0 {
            return 1.0;
        }
        self.total_checkpoint_credit_s / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(completed: u32, lost: f64, credit: f64) -> ResilienceSample {
        ResilienceSample {
            total_jobs: 100,
            completed,
            fault_kills: 6,
            jobs_fault_killed: 3,
            work_lost_s: lost,
            checkpoint_credit_s: credit,
            pool_availability: 0.9,
            actuator_retries: 4,
            actuator_escalations: 1,
        }
    }

    #[test]
    fn completion_rate_and_empty_workload() {
        assert_eq!(sample(80, 0.0, 0.0).completion_rate(), 0.8);
        let empty = ResilienceSample {
            total_jobs: 0,
            ..sample(0, 0.0, 0.0)
        };
        assert_eq!(empty.completion_rate(), 1.0);
    }

    #[test]
    fn checkpoint_save_ratio_bounds() {
        assert_eq!(sample(100, 0.0, 0.0).checkpoint_save_ratio(), 1.0);
        assert_eq!(sample(100, 300.0, 100.0).checkpoint_save_ratio(), 0.25);
        assert_eq!(sample(100, 100.0, 0.0).checkpoint_save_ratio(), 0.0);
    }

    #[test]
    fn summary_aggregates() {
        let s = ResilienceSummary::of(&[sample(100, 10.0, 30.0), sample(50, 20.0, 20.0)]).unwrap();
        assert_eq!(s.runs, 2);
        assert!((s.mean_completion_rate - 0.75).abs() < 1e-12);
        assert!((s.mean_pool_availability - 0.9).abs() < 1e-12);
        assert_eq!(s.total_fault_kills, 12);
        assert_eq!(s.total_work_lost_s, 30.0);
        assert_eq!(s.total_checkpoint_credit_s, 50.0);
        assert_eq!(s.total_actuator_retries, 8);
        assert_eq!(s.total_actuator_escalations, 2);
        assert!((s.checkpoint_save_ratio() - 0.625).abs() < 1e-12);
    }

    #[test]
    fn summary_of_empty_is_none() {
        assert!(ResilienceSummary::of(&[]).is_none());
    }
}
