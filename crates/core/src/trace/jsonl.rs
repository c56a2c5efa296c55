//! The JSONL form of the trace stream: one object per event with a
//! fixed key order per kind, written and read back through
//! [`crate::json`] for filtering and stream validation.

use crate::json::{self, ObjectWriter, Value};

use super::kinds::{TraceEvent, TraceKind};

impl TraceEvent {
    /// Render the event as one JSONL line (no trailing newline). Key
    /// order is fixed per kind, so identical runs produce byte-identical
    /// streams.
    pub fn to_jsonl(&self) -> String {
        let mut s = String::with_capacity(96);
        json::write_object(&mut s, |w| self.write_members(w));
        s
    }

    fn write_members(&self, w: &mut ObjectWriter<'_>) {
        w.fixed("t", self.t.as_secs(), 6)
            .str("kind", self.kind.name());
        match self.kind {
            TraceKind::JobSubmit { job } | TraceKind::MonitorLoss { job } => w.u64("job", job.0),
            TraceKind::JobStart {
                job,
                nodes,
                mem_mb,
                remote_mb,
            } => w
                .u64("job", job.0)
                .u64("nodes", nodes)
                .u64("mem_mb", mem_mb)
                .u64("remote_mb", remote_mb),
            TraceKind::JobFinish { job, restarts } => w.u64("job", job.0).u64("restarts", restarts),
            TraceKind::JobKill {
                job,
                reason,
                restarts,
            } => w
                .u64("job", job.0)
                .str("reason", reason.as_str())
                .u64("restarts", restarts),
            TraceKind::JobRequeue {
                job,
                boosted,
                static_mode,
            } => w
                .u64("job", job.0)
                .bool("boosted", boosted)
                .bool("static_mode", static_mode),
            TraceKind::MemDecide {
                job,
                demand_mb,
                grow_mb,
                shrink_to_mb,
            } => w
                .u64("job", job.0)
                .u64("demand_mb", demand_mb)
                .u64("grow_mb", grow_mb)
                .u64("shrink_to_mb", shrink_to_mb),
            TraceKind::MemGrow {
                job,
                node,
                local_mb,
                borrowed_mb,
            } => w
                .u64("job", job.0)
                .u64("node", node.0)
                .u64("local_mb", local_mb)
                .u64("borrowed_mb", borrowed_mb),
            TraceKind::MemShrink { job, released_mb } => {
                w.u64("job", job.0).u64("released_mb", released_mb)
            }
            TraceKind::ActuatorRetry {
                job,
                attempt,
                backoff_s,
            } => w
                .u64("job", job.0)
                .u64("attempt", attempt)
                .fixed("backoff_s", backoff_s, 3),
            TraceKind::ActuatorEscalate { job, attempts } => {
                w.u64("job", job.0).u64("attempts", attempts)
            }
            TraceKind::SchedPassStart {
                queued,
                alloc_mb,
                cap_mb,
            } => w
                .u64("queued", queued)
                .u64("alloc_mb", alloc_mb)
                .u64("cap_mb", cap_mb),
            TraceKind::SchedPassEnd {
                considered,
                started,
                backfill_depth,
            } => w
                .u64("considered", considered)
                .u64("started", started)
                .u64("backfill_depth", backfill_depth),
            TraceKind::NodeCrash { node } | TraceKind::NodeRepair { node } => w.u64("node", node.0),
            TraceKind::PoolDegrade { node, mb } | TraceKind::PoolRestore { node, mb } => {
                w.u64("node", node.0).u64("mb", mb)
            }
        };
    }
}

/// The two fields of a JSONL line that every reader needs.
#[derive(Clone, Debug, PartialEq)]
pub struct ParsedEvent {
    /// Simulation time, seconds.
    pub t: f64,
    /// The kind name (e.g. `"job_start"`).
    pub kind: String,
}

/// Read `t` and `kind` from one line of [`TraceEvent::to_jsonl`]: a flat
/// JSON object (numbers, strings and booleans) with a finite number `t`.
///
/// # Errors
/// A human-readable description of the first problem.
pub fn parse_jsonl(line: &str) -> Result<ParsedEvent, String> {
    let obj = json::parse_object(line)?;
    if let Some((key, _)) = obj
        .iter()
        .find(|(_, v)| matches!(v, Value::Arr(_) | Value::Obj(_)))
    {
        return Err(format!("field {key:?} is not a number, string or boolean"));
    }
    Ok(ParsedEvent {
        t: obj.f64("t")?,
        kind: obj.str("kind")?.to_string(),
    })
}

/// Validate a JSONL event stream: every non-empty line must parse, name
/// a known kind, and carry a sim-time no earlier than the previous
/// line's. Returns the number of events.
///
/// # Errors
/// Returns `"line N: …"` for the first offending line.
pub fn validate_stream<'a>(lines: impl Iterator<Item = &'a str>) -> Result<usize, String> {
    let mut last_t = f64::NEG_INFINITY;
    let mut count = 0usize;
    for (i, line) in lines.enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let ev = parse_jsonl(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if !TraceKind::NAMES.contains(&ev.kind.as_str()) {
            return Err(format!("line {}: unknown kind '{}'", i + 1, ev.kind));
        }
        if ev.t < last_t {
            return Err(format!(
                "line {}: sim-time went backwards ({} after {})",
                i + 1,
                ev.t,
                last_t
            ));
        }
        last_t = ev.t;
        count += 1;
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::super::kinds::KillReason;
    use super::*;
    use crate::cluster::NodeId;
    use crate::engine::SimTime;
    use crate::job::JobId;

    fn every_kind() -> Vec<TraceKind> {
        vec![
            TraceKind::JobSubmit { job: JobId(1) },
            TraceKind::JobStart {
                job: JobId(1),
                nodes: 2,
                mem_mb: 4096,
                remote_mb: 1024,
            },
            TraceKind::JobFinish {
                job: JobId(1),
                restarts: 3,
            },
            TraceKind::JobKill {
                job: JobId(1),
                reason: KillReason::Oom,
                restarts: 1,
            },
            TraceKind::JobRequeue {
                job: JobId(1),
                boosted: true,
                static_mode: false,
            },
            TraceKind::MemDecide {
                job: JobId(1),
                demand_mb: 2048,
                grow_mb: 512,
                shrink_to_mb: 0,
            },
            TraceKind::MemGrow {
                job: JobId(1),
                node: NodeId(7),
                local_mb: 256,
                borrowed_mb: 256,
            },
            TraceKind::MemShrink {
                job: JobId(1),
                released_mb: 300,
            },
            TraceKind::MonitorLoss { job: JobId(1) },
            TraceKind::ActuatorRetry {
                job: JobId(1),
                attempt: 2,
                backoff_s: 60.0,
            },
            TraceKind::ActuatorEscalate {
                job: JobId(1),
                attempts: 4,
            },
            TraceKind::SchedPassStart {
                queued: 10,
                alloc_mb: 5000,
                cap_mb: 10000,
            },
            TraceKind::SchedPassEnd {
                considered: 10,
                started: 4,
                backfill_depth: 6,
            },
            TraceKind::NodeCrash { node: NodeId(3) },
            TraceKind::NodeRepair { node: NodeId(3) },
            TraceKind::PoolDegrade {
                node: NodeId(3),
                mb: 8192,
            },
            TraceKind::PoolRestore {
                node: NodeId(3),
                mb: 8192,
            },
        ]
    }

    #[test]
    fn every_kind_round_trips_through_jsonl() {
        let kinds = every_kind();
        assert_eq!(kinds.len(), TraceKind::NAMES.len());
        for (i, kind) in kinds.into_iter().enumerate() {
            let ev = TraceEvent {
                t: SimTime::from_secs(i as f64 + 0.5),
                kind,
            };
            let line = ev.to_jsonl();
            let parsed = parse_jsonl(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(parsed.kind, kind.name(), "{line}");
            // The line is canonical: decoding and re-encoding it through
            // the codec reproduces its bytes.
            assert_eq!(json::parse_object(&line).unwrap().to_json(), line);
            assert!((parsed.t - ev.t.as_secs()).abs() < 1e-9);
            assert_eq!(
                TraceKind::NAMES[i],
                kind.name(),
                "NAMES order matches taxonomy"
            );
        }
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        for bad in [
            "",
            "{",
            "{}",
            "{\"t\":1.0}",
            "{\"kind\":\"job_submit\"}",
            "{\"t\":\"x\",\"kind\":\"job_submit\"}",
            "{\"t\":1.0,\"kind\":\"job_submit\"} trailing",
            "{\"t\":1.0 \"kind\":\"job_submit\"}",
            "not json",
            // Not JSON numbers, or not finite as an f64.
            "{\"t\":1e400,\"kind\":\"job_submit\",\"job\":0}",
            "{\"t\":-1e400,\"kind\":\"job_submit\",\"job\":0}",
            "{\"t\":1.,\"kind\":\"job_submit\",\"job\":0}",
            "{\"t\":-.5e1,\"kind\":\"job_submit\",\"job\":0}",
            // Not flat.
            "{\"t\":1.0,\"kind\":\"job_submit\",\"job\":[0]}",
            "{\"t\":1.0,\"kind\":\"job_submit\",\"job\":{}}",
        ] {
            assert!(parse_jsonl(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn validate_stream_checks_kind_and_monotonicity() {
        let good = "{\"t\":1.0,\"kind\":\"job_submit\",\"job\":0}\n{\"t\":1.0,\"kind\":\"job_start\",\"job\":0,\"nodes\":1,\"mem_mb\":1,\"remote_mb\":0}";
        assert_eq!(validate_stream(good.lines()), Ok(2));

        let unknown = "{\"t\":1.0,\"kind\":\"warp_drive\"}";
        assert!(validate_stream(unknown.lines())
            .unwrap_err()
            .contains("unknown kind"));

        let backwards = "{\"t\":2.0,\"kind\":\"job_submit\",\"job\":0}\n{\"t\":1.0,\"kind\":\"job_submit\",\"job\":1}";
        assert!(validate_stream(backwards.lines())
            .unwrap_err()
            .contains("went backwards"));
    }
}
