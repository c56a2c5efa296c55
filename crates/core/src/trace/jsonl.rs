//! The JSONL serialisation of the trace stream: a fixed-key-order
//! writer, a minimal flat parser, and stream validation.
//!
//! Hand-rolled (the workspace carries no serialization crate): the writer
//! emits flat objects with a fixed key order per kind, so equal runs
//! produce byte-identical streams.

use std::fmt::Write as _;

use super::kinds::{TraceEvent, TraceKind};

impl TraceEvent {
    /// Render the event as one JSONL line (no trailing newline). Key
    /// order is fixed per kind, so identical runs produce byte-identical
    /// streams.
    pub fn to_jsonl(&self) -> String {
        let mut s = String::with_capacity(96);
        let _ = write!(
            s,
            "{{\"t\":{:.6},\"kind\":\"{}\"",
            self.t.as_secs(),
            self.kind.name()
        );
        match self.kind {
            TraceKind::JobSubmit { job } | TraceKind::MonitorLoss { job } => {
                let _ = write!(s, ",\"job\":{}", job.0);
            }
            TraceKind::JobStart {
                job,
                nodes,
                mem_mb,
                remote_mb,
            } => {
                let _ = write!(
                    s,
                    ",\"job\":{},\"nodes\":{nodes},\"mem_mb\":{mem_mb},\"remote_mb\":{remote_mb}",
                    job.0
                );
            }
            TraceKind::JobFinish { job, restarts } => {
                let _ = write!(s, ",\"job\":{},\"restarts\":{restarts}", job.0);
            }
            TraceKind::JobKill {
                job,
                reason,
                restarts,
            } => {
                let _ = write!(
                    s,
                    ",\"job\":{},\"reason\":\"{}\",\"restarts\":{restarts}",
                    job.0,
                    reason.as_str()
                );
            }
            TraceKind::JobRequeue {
                job,
                boosted,
                static_mode,
            } => {
                let _ = write!(
                    s,
                    ",\"job\":{},\"boosted\":{boosted},\"static_mode\":{static_mode}",
                    job.0
                );
            }
            TraceKind::MemDecide {
                job,
                demand_mb,
                grow_mb,
                shrink_to_mb,
            } => {
                let _ = write!(
                    s,
                    ",\"job\":{},\"demand_mb\":{demand_mb},\"grow_mb\":{grow_mb},\"shrink_to_mb\":{shrink_to_mb}",
                    job.0
                );
            }
            TraceKind::MemGrow {
                job,
                node,
                local_mb,
                borrowed_mb,
            } => {
                let _ = write!(
                    s,
                    ",\"job\":{},\"node\":{},\"local_mb\":{local_mb},\"borrowed_mb\":{borrowed_mb}",
                    job.0, node.0
                );
            }
            TraceKind::MemShrink { job, released_mb } => {
                let _ = write!(s, ",\"job\":{},\"released_mb\":{released_mb}", job.0);
            }
            TraceKind::ActuatorRetry {
                job,
                attempt,
                backoff_s,
            } => {
                let _ = write!(
                    s,
                    ",\"job\":{},\"attempt\":{attempt},\"backoff_s\":{backoff_s:.3}",
                    job.0
                );
            }
            TraceKind::ActuatorEscalate { job, attempts } => {
                let _ = write!(s, ",\"job\":{},\"attempts\":{attempts}", job.0);
            }
            TraceKind::SchedPassStart {
                queued,
                alloc_mb,
                cap_mb,
            } => {
                let _ = write!(
                    s,
                    ",\"queued\":{queued},\"alloc_mb\":{alloc_mb},\"cap_mb\":{cap_mb}"
                );
            }
            TraceKind::SchedPassEnd {
                considered,
                started,
                backfill_depth,
            } => {
                let _ = write!(
                    s,
                    ",\"considered\":{considered},\"started\":{started},\"backfill_depth\":{backfill_depth}"
                );
            }
            TraceKind::NodeCrash { node } | TraceKind::NodeRepair { node } => {
                let _ = write!(s, ",\"node\":{}", node.0);
            }
            TraceKind::PoolDegrade { node, mb } | TraceKind::PoolRestore { node, mb } => {
                let _ = write!(s, ",\"node\":{},\"mb\":{mb}", node.0);
            }
        }
        s.push('}');
        s
    }
}

/// A parsed JSONL field value (the format only emits numbers, strings,
/// and booleans).
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// A JSON number.
    Num(f64),
    /// A JSON string.
    Str(String),
    /// A JSON boolean.
    Bool(bool),
}

/// One JSONL line read back as data.
#[derive(Clone, Debug, PartialEq)]
pub struct ParsedEvent {
    /// Simulation time, seconds.
    pub t: f64,
    /// The kind name (e.g. `"job_start"`).
    pub kind: String,
    /// The remaining fields, in stream order.
    pub fields: Vec<(String, JsonValue)>,
}

impl ParsedEvent {
    /// Look up a field by name.
    pub fn field(&self, name: &str) -> Option<&JsonValue> {
        self.fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }
}

/// Parse one flat JSONL object produced by [`TraceEvent::to_jsonl`].
///
/// This is a minimal hand-rolled parser: it accepts exactly the flat
/// `{"key":value,…}` shape the writer emits, requires `t` and `kind`,
/// and rejects everything else with a description of the offending
/// byte.
///
/// # Errors
/// Returns a human-readable description of the first syntax problem.
pub fn parse_jsonl(line: &str) -> Result<ParsedEvent, String> {
    let mut p = Parser {
        bytes: line.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    p.expect(b'{')?;
    let mut t: Option<f64> = None;
    let mut kind: Option<String> = None;
    let mut fields = Vec::new();
    loop {
        p.skip_ws();
        if p.eat(b'}') {
            break;
        }
        if !fields.is_empty() || t.is_some() || kind.is_some() {
            p.expect(b',')?;
            p.skip_ws();
        }
        let key = p.string()?;
        p.skip_ws();
        p.expect(b':')?;
        p.skip_ws();
        let value = p.value()?;
        match (key.as_str(), &value) {
            ("t", JsonValue::Num(v)) => t = Some(*v),
            ("t", _) => return Err("field 't' must be a number".into()),
            ("kind", JsonValue::Str(v)) => kind = Some(v.clone()),
            ("kind", _) => return Err("field 'kind' must be a string".into()),
            _ => fields.push((key, value)),
        }
    }
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(ParsedEvent {
        t: t.ok_or("missing field 't'")?,
        kind: kind.ok_or("missing field 'kind'")?,
        fields,
    })
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at offset {}, found {:?}",
                b as char,
                self.pos,
                self.bytes.get(self.pos).map(|&c| c as char)
            ))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'"' => {
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| "invalid UTF-8 in string".to_string())?
                        .to_string();
                    self.pos += 1;
                    return Ok(s);
                }
                b'\\' => return Err("escape sequences are not part of the format".into()),
                _ => self.pos += 1,
            }
        }
        Err("unterminated string".into())
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.bytes.get(self.pos) {
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') if self.bytes[self.pos..].starts_with(b"true") => {
                self.pos += 4;
                Ok(JsonValue::Bool(true))
            }
            Some(b'f') if self.bytes[self.pos..].starts_with(b"false") => {
                self.pos += 5;
                Ok(JsonValue::Bool(false))
            }
            Some(&b) if b == b'-' || b.is_ascii_digit() => {
                let start = self.pos;
                while self.bytes.get(self.pos).is_some_and(|&c| {
                    c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E')
                }) {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
                text.parse::<f64>()
                    .map(JsonValue::Num)
                    .map_err(|_| format!("bad number '{text}'"))
            }
            other => Err(format!(
                "unexpected value at offset {}: {:?}",
                self.pos,
                other.map(|&c| c as char)
            )),
        }
    }
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
