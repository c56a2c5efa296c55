//! Correctness checks on simulation outcomes and the bit-level digests
//! that prove repeated runs identical.

use dmhpc_core::sim::{JobOutcome, SimulationOutcome, Workload};

/// The seed every workload runs at unless `--seed` says otherwise.
pub const DEFAULT_SEED: u64 = 1;

/// Reference outcome digests: `workload preset seed digest` rows.
const DIGESTS: &str = include_str!("../digests.txt");

/// 64-bit FNV-1a over fixed-width words. Every field is fed as its full
/// bit pattern, so equal digests mean bit-identical values (up to hash
/// collisions), and a field can never shift into its neighbour.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(mut self, w: u64) -> Self {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    fn float(self, x: f64) -> Self {
        self.word(x.to_bits())
    }

    fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of everything a run produced: every `Stats` field, both
/// timing distributions, every job record and the feasibility flag.
pub fn outcome_digest(out: &SimulationOutcome) -> u64 {
    let s = &out.stats;
    let mut h = Fnv::new();
    for count in [
        s.total_jobs,
        s.completed,
        s.unschedulable,
        s.failed_exceeded,
        s.failed_restarts,
        s.oom_kills,
        s.jobs_oom_killed,
        s.fault_node_crashes,
        s.fault_pool_degrades,
        s.fault_job_kills,
        s.jobs_fault_killed,
        s.monitor_samples_lost,
        s.actuator_retries,
        s.actuator_escalations,
    ] {
        h = h.word(u64::from(count));
    }
    for x in [
        s.makespan_s,
        s.throughput_jps,
        s.avg_node_utilization,
        s.avg_mem_utilization,
        s.mean_slowdown,
        s.fault_work_lost_s,
        s.fault_checkpoint_credit_s,
        s.avg_pool_availability,
        s.avg_remote_fraction,
        s.avg_cross_rack_fraction,
    ] {
        h = h.float(x);
    }
    h = h.word(out.response_times_s.len() as u64);
    for &x in out.response_times_s.iter().chain(&out.wait_times_s) {
        h = h.float(x);
    }
    for r in &out.job_records {
        h = h
            .word(u64::from(r.id.0))
            .float(r.submit_s)
            .float(r.first_start_s.unwrap_or(-1.0))
            .float(r.finish_s.unwrap_or(-1.0))
            .word(u64::from(r.restarts))
            .word(r.outcome as u64);
    }
    h.word(u64::from(out.feasible)).finish()
}

/// Digest of a workload's generated inputs: every job field and usage
/// point, so two set-ups that disagree anywhere are caught.
pub fn input_digest(inputs: &[std::sync::Arc<Workload>]) -> u64 {
    let mut h = Fnv::new();
    for w in inputs {
        h = h.word(w.len() as u64).word(w.pool.len() as u64);
        for j in &w.jobs {
            h = h
                .float(j.submit_s)
                .word(u64::from(j.nodes))
                .float(j.base_runtime_s)
                .float(j.time_limit_s)
                .word(j.mem_request_mb)
                .word(u64::from(j.profile.0))
                .word(j.usage.len() as u64);
            for &(p, mb) in j.usage.points() {
                h = h.float(p).word(mb);
            }
        }
    }
    h.finish()
}

/// Combine per-run digests, in run order, into one workload digest.
pub fn combine(digests: &[u64]) -> u64 {
    digests.iter().fold(Fnv::new(), |h, &d| h.word(d)).finish()
}

/// Internal-consistency checks on one run's outcome.
pub fn check_outcome(out: &SimulationOutcome) -> Result<(), String> {
    let s = &out.stats;
    s.reconcile()?;
    if out.response_times_s.len() != s.completed as usize
        || out.wait_times_s.len() != s.completed as usize
    {
        return Err(format!(
            "{} response and {} wait samples for {} completed jobs",
            out.response_times_s.len(),
            out.wait_times_s.len(),
            s.completed
        ));
    }
    if out.job_records.len() != s.total_jobs as usize {
        return Err(format!(
            "{} job records for {} jobs",
            out.job_records.len(),
            s.total_jobs
        ));
    }
    let count = |o: JobOutcome| out.job_records.iter().filter(|r| r.outcome == o).count() as u32;
    let records = [
        count(JobOutcome::Completed),
        count(JobOutcome::FailedExceeded),
        count(JobOutcome::FailedRestarts),
        count(JobOutcome::Unschedulable),
    ];
    let stats = [
        s.completed,
        s.failed_exceeded,
        s.failed_restarts,
        s.unschedulable,
    ];
    if records != stats {
        return Err(format!(
            "job records count completed/exceeded/restarts/unschedulable {records:?}, stats say {stats:?}"
        ));
    }
    Ok(())
}

/// The reference digest for a workload at `seed`, if the table has one.
pub fn reference_digest(workload: &str, smoke: bool, seed: u64) -> Option<String> {
    let preset = if smoke { "smoke" } else { "full" };
    DIGESTS
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .find_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            (f.len() == 4 && f[0] == workload && f[1] == preset && f[2].parse() == Ok(seed))
                .then(|| f[3].to_string())
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_the_reference_vector() {
        // FNV-1a 64 of the eight zero bytes of the word 0.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for _ in 0..8 {
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        assert_eq!(Fnv::new().word(0).finish(), h);
        assert_ne!(
            Fnv::new().float(0.0).finish(),
            Fnv::new().float(-0.0).finish()
        );
    }

    #[test]
    fn every_table_row_is_well_formed() {
        for line in DIGESTS
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
        {
            let f: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(f.len(), 4, "{line}");
            assert!(crate::workloads::Kind::parse(f[0]).is_ok(), "{line}");
            assert!(matches!(f[1], "full" | "smoke"), "{line}");
            assert!(f[2].parse::<u64>().is_ok(), "{line}");
            assert!(
                u64::from_str_radix(f[3], 16).is_ok() && f[3].len() == 16,
                "{line}"
            );
        }
    }
}
