//! Per-job memory usage trace files.
//!
//! The paper's pipeline "generates the memory usage traces and job trace
//! binaries needed by the simulator" (Fig. 3, steps 8–9): an SWF job
//! trace plus one usage-trace file per job that the simulated Decider
//! replays. This module implements that sidecar format as a plain-text,
//! diff-friendly file:
//!
//! ```text
//! # dmhpc usage trace v1
//! job 17 points 3
//! 0 512
//! 0.25 8192
//! 0.8 2048
//! ```
//!
//! Each point is `progress mem_mb` (progress in `[0,1]`, piecewise
//! constant to the next point). Multiple jobs concatenate in one file or
//! live in one file per job (`job_<id>.usage`).

use dmhpc_core::error::CoreError;
use dmhpc_core::job::{JobId, MemoryUsageTrace};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Magic first line of the format.
pub const HEADER: &str = "# dmhpc usage trace v1";

/// Serialise usage traces for a set of jobs into one text blob,
/// ascending by job id.
pub fn write(traces: &BTreeMap<JobId, MemoryUsageTrace>) -> String {
    let mut s = String::with_capacity(64 + traces.len() * 64);
    let _ = writeln!(s, "{HEADER}");
    for (id, trace) in traces {
        let _ = writeln!(s, "job {} points {}", id.0, trace.len());
        for &(p, m) in trace.points() {
            // Progress with enough digits to round-trip f64 exactly for
            // the values RDP produces.
            let _ = writeln!(s, "{p:.17} {m}");
        }
    }
    s
}

/// Parse a usage trace blob.
///
/// # Errors
/// Reports the first malformed line with its 1-based number; missing
/// header, truncated point lists and invalid traces are all errors.
pub fn parse(text: &str) -> Result<BTreeMap<JobId, MemoryUsageTrace>, CoreError> {
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, l)) if l.trim() == HEADER => {}
        _ => return Err(CoreError::parse(format!("missing header line '{HEADER}'"))),
    }
    // Trace being accumulated: id, declared point count, points so far.
    type Partial = (JobId, usize, Vec<(f64, u64)>);
    let mut out = BTreeMap::new();
    let mut current: Option<Partial> = None;
    for (lineno, raw) in lines {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |msg: &str| CoreError::parse_at(lineno + 1, msg);
        if let Some(rest) = line.strip_prefix("job ") {
            if let Some((id, n, pts)) = current.take() {
                if pts.len() != n {
                    return Err(err(&format!(
                        "job {} declared {} points but provided {}",
                        id.0,
                        n,
                        pts.len()
                    )));
                }
                insert(&mut out, id, pts)?;
            }
            let mut parts = rest.split_whitespace();
            let id: u32 = parts
                .next()
                .ok_or_else(|| err("missing job id"))?
                .parse()
                .map_err(|e| err(&format!("job id: {e}")))?;
            match (parts.next(), parts.next()) {
                (Some("points"), Some(n)) => {
                    let n: usize = n.parse().map_err(|e| err(&format!("points: {e}")))?;
                    // `n` is untrusted: no pre-sizing from it. The
                    // declared-vs-provided check rejects a mismatch.
                    current = Some((JobId(id), n, Vec::new()));
                }
                _ => return Err(err("expected 'job <id> points <n>'")),
            }
        } else {
            let Some((_, _, pts)) = current.as_mut() else {
                return Err(err("point line before any 'job' header"));
            };
            let mut parts = line.split_whitespace();
            let p: f64 = parts
                .next()
                .ok_or_else(|| err("missing progress"))?
                .parse()
                .map_err(|e| err(&format!("progress: {e}")))?;
            let m: u64 = parts
                .next()
                .ok_or_else(|| err("missing mem_mb"))?
                .parse()
                .map_err(|e| err(&format!("mem_mb: {e}")))?;
            pts.push((p, m));
        }
    }
    if let Some((id, n, pts)) = current.take() {
        if pts.len() != n {
            return Err(CoreError::parse(format!(
                "job {} declared {} points but provided {}",
                id.0,
                n,
                pts.len()
            )));
        }
        insert(&mut out, id, pts)?;
    }
    Ok(out)
}

fn insert(
    out: &mut BTreeMap<JobId, MemoryUsageTrace>,
    id: JobId,
    pts: Vec<(f64, u64)>,
) -> Result<(), CoreError> {
    if out.contains_key(&id) {
        return Err(CoreError::parse(format!("duplicate job {}", id.0)));
    }
    let trace = MemoryUsageTrace::new(pts)
        .map_err(|e| CoreError::invalid_trace(format!("job {}: {e}", id.0)))?;
    out.insert(id, trace);
    Ok(())
}

/// Collect a workload's usage traces into the map [`write()`] expects.
pub fn from_workload(workload: &dmhpc_core::sim::Workload) -> BTreeMap<JobId, MemoryUsageTrace> {
    workload
        .jobs
        .iter()
        .map(|j| (j.id, j.usage.clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BTreeMap<JobId, MemoryUsageTrace> {
        let mut m = BTreeMap::new();
        m.insert(
            JobId(0),
            MemoryUsageTrace::new(vec![(0.0, 512), (0.25, 8192), (0.8, 2048)]).unwrap(),
        );
        m.insert(JobId(7), MemoryUsageTrace::flat(1024));
        m
    }

    #[test]
    fn roundtrip() {
        let m = sample();
        let text = write(&m);
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed, m);
    }

    #[test]
    fn roundtrip_preserves_rdp_progress_exactly() {
        // Progress values from RDP are arbitrary f64s; the format must
        // round-trip them bit-exactly.
        let mut m = BTreeMap::new();
        m.insert(
            JobId(1),
            MemoryUsageTrace::new(vec![
                (0.0, 1),
                (0.333_333_333_333_333_3, 2),
                (0.666_666_666_666_666_6, 3),
            ])
            .unwrap(),
        );
        let parsed = parse(&write(&m)).unwrap();
        assert_eq!(parsed, m);
    }

    #[test]
    fn missing_header_rejected() {
        assert!(parse("job 0 points 1\n0 5\n").is_err());
    }

    #[test]
    fn wrong_point_count_rejected() {
        let text = format!("{HEADER}\njob 0 points 2\n0 5\n");
        let err = parse(&text).unwrap_err().to_string();
        assert!(err.contains("declared 2"), "{err}");
    }

    #[test]
    fn huge_point_count_is_an_error_not_a_panic() {
        for n in [u64::MAX, u64::MAX / 2, 1 << 40] {
            let text = format!("{HEADER}\njob 0 points {n}\n0 5\n");
            let err = parse(&text).unwrap_err().to_string();
            assert!(err.contains("provided 1"), "{err}");
        }
    }

    #[test]
    fn duplicate_job_rejected() {
        let text = format!("{HEADER}\njob 0 points 1\n0 5\njob 0 points 1\n0 6\n");
        assert!(parse(&text).unwrap_err().to_string().contains("duplicate"));
    }

    #[test]
    fn invalid_trace_rejected() {
        // Starts at progress 0.5 → MemoryUsageTrace invariant violated.
        let text = format!("{HEADER}\njob 0 points 1\n0.5 5\n");
        assert!(parse(&text).is_err());
    }

    #[test]
    fn point_before_job_rejected() {
        let text = format!("{HEADER}\n0 5\n");
        assert!(parse(&text).unwrap_err().to_string().contains("before any"));
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = format!("{HEADER}\n\n# note\njob 3 points 1\n0 99\n");
        let m = parse(&text).unwrap();
        assert_eq!(m[&JobId(3)].peak(), 99);
    }

    #[test]
    fn from_workload_collects_all_jobs() {
        use dmhpc_core::config::SystemConfig;
        let w = crate::workload::WorkloadBuilder::new(5)
            .jobs(20)
            .max_job_nodes(4)
            .build_for(&SystemConfig::with_nodes(16));
        let m = from_workload(&w);
        assert_eq!(m.len(), 20);
        let text = write(&m);
        assert_eq!(parse(&text).unwrap(), m);
    }
}
