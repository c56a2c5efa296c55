//! Import SWF job traces (plus optional usage-trace sidecars) as
//! simulator workloads — the adoption path for real archives from the
//! Parallel Workloads Archive or a site's own Slurm accounting export.
//!
//! SWF knows nothing about memory-over-time, so each job's usage trace
//! comes from (in priority order):
//! 1. a sidecar usage file (see [`crate::usagefile`]), keyed by the SWF
//!    job number − 1;
//! 2. the record's *used memory* field (flat trace at the observed
//!    usage);
//! 3. the *requested memory* field (flat at the request — the
//!    conservative fallback where dynamic and static behave alike).

use crate::swf::SwfRecord;
use crate::usagefile;
use dmhpc_core::error::CoreError;
use dmhpc_core::job::{Job, JobId, MemoryUsageTrace};
use dmhpc_core::sim::Workload;
use dmhpc_model::ProfilePool;
use std::collections::BTreeMap;

/// Options for the SWF import.
#[derive(Clone, Debug)]
pub struct ImportOptions {
    /// Cores per node, to turn SWF processor counts into node counts.
    pub cores_per_node: u32,
    /// Profiled-application pool size for slowdown-model matching.
    pub profile_pool_size: usize,
    /// Seed for the profile pool.
    pub seed: u64,
    /// Skip records that did not complete normally (SWF status ≠ 1),
    /// mirroring the paper's filtering of the Google trace.
    pub completed_only: bool,
}

impl Default for ImportOptions {
    fn default() -> Self {
        Self {
            cores_per_node: 32,
            profile_pool_size: 64,
            seed: 1,
            completed_only: true,
        }
    }
}

/// Build a workload from SWF records and optional usage sidecars.
///
/// Records with non-finite times, non-positive runtimes or processor
/// counts, or node counts and memory sizes out of range are rejected
/// (malformed archives are common; the error names the job).
pub fn workload_from_swf(
    records: &[SwfRecord],
    usage: Option<&BTreeMap<JobId, MemoryUsageTrace>>,
    opts: &ImportOptions,
) -> Result<Workload, CoreError> {
    if opts.cores_per_node == 0 {
        return Err(CoreError::invalid_config("cores_per_node must be > 0"));
    }
    let pool = ProfilePool::synthetic(opts.profile_pool_size, opts.seed);
    let mut jobs: Vec<Job> = Vec::with_capacity(records.len());
    let mut kept: Vec<&SwfRecord> = records
        .iter()
        .filter(|r| !opts.completed_only || r.status == 1)
        .collect();
    // SWF archives are submit-ordered by convention, but enforce it.
    kept.sort_by(|a, b| a.submit_time.total_cmp(&b.submit_time));
    for r in kept {
        let invalid =
            |what: String| CoreError::invalid_trace(format!("job {}: {what}", r.job_number));
        for (name, t) in [
            ("submit time", r.submit_time),
            ("run time", r.run_time),
            ("requested time", r.requested_time),
        ] {
            if !t.is_finite() {
                return Err(invalid(format!("non-finite {name}")));
            }
        }
        if r.run_time <= 0.0 {
            return Err(invalid("non-positive run time".into()));
        }
        let procs = if r.requested_processors > 0 {
            r.requested_processors
        } else {
            r.allocated_processors
        };
        if procs <= 0 {
            return Err(invalid("no processor count".into()));
        }
        let nodes = u32::try_from((procs as u64).div_ceil(opts.cores_per_node as u64).max(1))
            .map_err(|_| invalid(format!("{procs} processors exceed the node count range")))?;
        let kb_to_node_mb = |kb: i64| -> Result<Option<u64>, CoreError> {
            if kb <= 0 {
                return Ok(None);
            }
            (kb as u64)
                .checked_mul(opts.cores_per_node as u64)
                .map(|node_kb| Some(node_kb / 1024))
                .ok_or_else(|| invalid(format!("{kb} KB per processor overflows a node's memory")))
        };
        let used_mb = kb_to_node_mb(r.used_memory_kb)?;
        let requested_mb = kb_to_node_mb(r.requested_memory_kb)?;
        let request = requested_mb
            .or(used_mb)
            .ok_or_else(|| invalid("no memory information".into()))?;
        let sidecar = match usage {
            Some(m) => {
                // Sidecars are keyed by job number − 1 (job 1 is id 0).
                let key = r
                    .job_number
                    .checked_sub(1)
                    .and_then(|k| u32::try_from(k.max(0)).ok())
                    .ok_or_else(|| invalid("job number out of the usage-file id range".into()))?;
                m.get(&JobId(key)).cloned()
            }
            None => None,
        };
        let trace = sidecar
            .or_else(|| used_mb.map(MemoryUsageTrace::flat))
            .unwrap_or_else(|| MemoryUsageTrace::flat(request));
        let time_limit = if r.requested_time > 0.0 {
            r.requested_time.max(r.run_time)
        } else {
            r.run_time * 1.5
        };
        let id = JobId(jobs.len() as u32);
        let profile = pool.match_job(nodes, r.run_time);
        jobs.push(Job {
            id,
            submit_s: r.submit_time.max(0.0),
            nodes,
            base_runtime_s: r.run_time,
            time_limit_s: time_limit,
            mem_request_mb: request.max(trace.peak().min(request).max(1)),
            usage: trace,
            profile,
        });
    }
    if jobs.is_empty() {
        return Err(CoreError::invalid_trace(
            "no usable records in the SWF input",
        ));
    }
    Workload::try_new(jobs, pool)
}

/// Convenience: parse SWF text (and optional usage text) and import.
pub fn workload_from_text(
    swf_text: &str,
    usage_text: Option<&str>,
    opts: &ImportOptions,
) -> Result<Workload, CoreError> {
    let records = crate::swf::parse(swf_text)?;
    let usage = usage_text.map(usagefile::parse).transpose()?;
    workload_from_swf(&records, usage.as_ref(), opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::swf;

    fn record(n: i64, submit: f64, procs: i64, runtime: f64, req_kb: i64) -> SwfRecord {
        SwfRecord {
            job_number: n,
            submit_time: submit,
            run_time: runtime,
            allocated_processors: procs,
            requested_processors: procs,
            requested_time: runtime * 2.0,
            requested_memory_kb: req_kb,
            used_memory_kb: req_kb / 2,
            ..SwfRecord::unknown(n)
        }
    }

    #[test]
    fn imports_basic_records() {
        let recs = vec![
            record(1, 0.0, 64, 1000.0, 1024 * 1024), // 2 nodes, 32 GB/node
            record(2, 50.0, 32, 500.0, 512 * 1024),
        ];
        let w = workload_from_swf(&recs, None, &ImportOptions::default()).unwrap();
        assert_eq!(w.len(), 2);
        assert_eq!(w.jobs[0].nodes, 2);
        assert_eq!(w.jobs[0].mem_request_mb, 32 * 1024);
        // Usage falls back to the used-memory field (half the request).
        assert_eq!(w.jobs[0].usage.peak(), 16 * 1024);
        assert_eq!(w.jobs[1].nodes, 1);
    }

    #[test]
    fn sidecar_usage_wins() {
        let recs = vec![record(1, 0.0, 32, 1000.0, 1024 * 1024)];
        let mut usage = BTreeMap::new();
        usage.insert(
            JobId(0),
            MemoryUsageTrace::new(vec![(0.0, 100), (0.5, 9000)]).unwrap(),
        );
        let w = workload_from_swf(&recs, Some(&usage), &ImportOptions::default()).unwrap();
        assert_eq!(w.jobs[0].usage.peak(), 9000);
    }

    #[test]
    fn filters_incomplete_jobs() {
        let mut bad = record(1, 0.0, 32, 1000.0, 1024);
        bad.status = 0;
        let good = record(2, 10.0, 32, 1000.0, 1024 * 512);
        let w = workload_from_swf(
            &[bad.clone(), good.clone()],
            None,
            &ImportOptions::default(),
        )
        .unwrap();
        assert_eq!(w.len(), 1);
        let all = workload_from_swf(
            &[bad, good],
            None,
            &ImportOptions {
                completed_only: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn reorders_by_submit_time() {
        let recs = vec![
            record(1, 500.0, 32, 100.0, 2048),
            record(2, 10.0, 32, 100.0, 2048),
        ];
        let w = workload_from_swf(&recs, None, &ImportOptions::default()).unwrap();
        assert!(w.jobs[0].submit_s < w.jobs[1].submit_s);
    }

    #[test]
    fn rejects_malformed() {
        let mut r = record(1, 0.0, 32, 100.0, 2048);
        r.run_time = -1.0;
        assert!(workload_from_swf(&[r], None, &ImportOptions::default())
            .unwrap_err()
            .to_string()
            .contains("run time"));
        let mut r = record(1, 0.0, -1, 100.0, 2048);
        r.allocated_processors = -1;
        assert!(workload_from_swf(&[r], None, &ImportOptions::default())
            .unwrap_err()
            .to_string()
            .contains("processor"));
        assert!(workload_from_swf(&[], None, &ImportOptions::default()).is_err());
    }

    /// Import `r` alone, with an empty usage sidecar: it must fail as an
    /// invalid trace naming the job and saying `what`.
    fn assert_rejected(r: SwfRecord, what: &str) {
        let job = format!("job {}: ", r.job_number);
        let usage = BTreeMap::new();
        let err = workload_from_swf(&[r], Some(&usage), &ImportOptions::default()).unwrap_err();
        let msg = err.to_string();
        assert!(matches!(err, CoreError::InvalidTrace(_)), "{err:?}");
        assert!(msg.starts_with(&job) && msg.contains(what), "{msg}");
    }

    #[test]
    fn rejects_memory_that_overflows_a_node() {
        let r = record(7, 0.0, 32, 100.0, 900_000_000_000_000_000);
        assert_rejected(r, "overflows");
        let mut r = record(7, 0.0, 32, 100.0, -1);
        r.used_memory_kb = i64::MAX;
        assert_rejected(r, "overflows");
    }

    #[test]
    fn rejects_non_finite_times() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let valid = || record(7, 0.0, 32, 100.0, 2048);
            let (mut run, mut submit, mut requested) = (valid(), valid(), valid());
            (run.run_time, submit.submit_time, requested.requested_time) = (bad, bad, bad);
            assert_rejected(run, "non-finite run time");
            assert_rejected(submit, "non-finite submit time");
            assert_rejected(requested, "non-finite requested time");
        }
    }

    #[test]
    fn rejects_processor_counts_beyond_the_node_range() {
        let r = record(7, 0.0, 1_000_000_000_000_000_000, 100.0, 2048);
        assert_rejected(r, "processors");
        // The largest count that still fits imports.
        let max = record(7, 0.0, i64::from(u32::MAX) * 32, 100.0, 2048);
        let w = workload_from_swf(&[max], None, &ImportOptions::default()).unwrap();
        assert_eq!(w.jobs[0].nodes, u32::MAX);
    }

    #[test]
    fn rejects_job_numbers_outside_the_usage_id_range() {
        for n in [i64::MIN, i64::MAX] {
            let r = record(n, 0.0, 32, 100.0, 2048);
            assert_rejected(r.clone(), "job number");
            // Without a usage file the job number is never used as a key.
            assert!(workload_from_swf(&[r], None, &ImportOptions::default()).is_ok());
        }
    }

    #[test]
    fn full_text_roundtrip_through_simulator() {
        use dmhpc_core::config::SystemConfig;
        use dmhpc_core::policy::PolicySpec;
        use dmhpc_core::sim::SimBuilder;
        // Export a generated workload, reimport it, and simulate.
        let system = SystemConfig::with_nodes(16);
        let original = crate::workload::WorkloadBuilder::new(9)
            .jobs(30)
            .max_job_nodes(4)
            .overestimation(0.4)
            .build_for(&system);
        let swf_text = swf::write(
            &original
                .jobs
                .iter()
                .map(|j| swf::from_job(j, system.cores_per_node))
                .collect::<Vec<_>>(),
            "roundtrip",
        );
        let usage_text = usagefile::write(&usagefile::from_workload(&original));
        let imported =
            workload_from_text(&swf_text, Some(&usage_text), &ImportOptions::default()).unwrap();
        assert_eq!(imported.len(), original.len());
        for (a, b) in imported.jobs.iter().zip(&original.jobs) {
            assert_eq!(a.nodes, b.nodes);
            assert_eq!(a.usage, b.usage);
            // KB-per-core rounding may shave < cores_per_node MB.
            assert!(a.mem_request_mb <= b.mem_request_mb);
            assert!(a.mem_request_mb + 32 > b.mem_request_mb);
        }
        let out = SimBuilder::new(system, imported)
            .policy(PolicySpec::Dynamic)
            .run();
        assert_eq!(out.stats.completed, 30);
    }
}
