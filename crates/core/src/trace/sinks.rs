//! The [`TraceSink`] trait and every shipped sink.

use std::sync::{Arc, Mutex};

use super::kinds::TraceEvent;

/// Where trace events go. Implementations must be cheap to clone
/// (`clone_box` — the runner is `Clone` for the bench fixtures) and
/// observation-only: a sink must never influence the simulation.
pub trait TraceSink: std::fmt::Debug + Send {
    /// Whether this sink wants events at all. The runner caches the
    /// answer once at construction; `false` reduces every emit point to
    /// one predictable branch.
    fn enabled(&self) -> bool {
        true
    }

    /// Receive one event. Called in simulation-time order.
    fn record(&mut self, ev: &TraceEvent);

    /// Clone into a box (object-safe `Clone`).
    fn clone_box(&self) -> Box<dyn TraceSink>;
}

impl Clone for Box<dyn TraceSink> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// The zero-cost default sink: disabled, records nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    #[inline]
    fn enabled(&self) -> bool {
        false
    }

    #[inline]
    fn record(&mut self, _ev: &TraceEvent) {}

    fn clone_box(&self) -> Box<dyn TraceSink> {
        Box::new(NullSink)
    }
}

/// Shared in-memory byte buffer implementing [`std::io::Write`]; the
/// convenient target for [`JsonlSink::buffered`].
#[derive(Clone, Debug, Default)]
pub struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    /// The buffered bytes as UTF-8 (the JSONL writer only emits ASCII).
    pub fn contents(&self) -> String {
        String::from_utf8_lossy(&self.0.lock().expect("shared buf poisoned")).into_owned()
    }
}

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .expect("shared buf poisoned")
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Streams one JSONL line per event to a writer. Clones share the
/// writer; the first write error is latched (see [`JsonlSink::error`])
/// and stops further output instead of panicking mid-run.
#[derive(Clone)]
pub struct JsonlSink {
    out: Arc<Mutex<Box<dyn std::io::Write + Send>>>,
    error: Arc<Mutex<Option<String>>>,
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink")
            .field("error", &*self.error.lock().expect("jsonl sink poisoned"))
            .finish()
    }
}

impl JsonlSink {
    /// Stream into an arbitrary writer (a file, a pipe, a buffer).
    pub fn new(out: Box<dyn std::io::Write + Send>) -> Self {
        Self {
            out: Arc::new(Mutex::new(out)),
            error: Arc::new(Mutex::new(None)),
        }
    }

    /// Stream into a fresh in-memory buffer; returns the sink and a
    /// handle for reading the stream back after the run.
    pub fn buffered() -> (Self, SharedBuf) {
        let buf = SharedBuf::default();
        (Self::new(Box::new(buf.clone())), buf)
    }

    /// The first write error, if any occurred.
    pub fn error(&self) -> Option<String> {
        self.error.lock().expect("jsonl sink poisoned").clone()
    }

    /// Flush the underlying writer.
    pub fn flush(&self) -> std::io::Result<()> {
        self.out.lock().expect("jsonl sink poisoned").flush()
    }
}

impl TraceSink for JsonlSink {
    fn record(&mut self, ev: &TraceEvent) {
        let mut err = self.error.lock().expect("jsonl sink poisoned");
        if err.is_some() {
            return;
        }
        let mut out = self.out.lock().expect("jsonl sink poisoned");
        let line = ev.to_jsonl();
        if let Err(e) = out
            .write_all(line.as_bytes())
            .and_then(|()| out.write_all(b"\n"))
        {
            *err = Some(e.to_string());
        }
    }

    fn clone_box(&self) -> Box<dyn TraceSink> {
        Box::new(self.clone())
    }
}

/// Duplicates every event to each child sink, in order.
#[derive(Debug)]
pub struct FanoutSink {
    sinks: Vec<Box<dyn TraceSink>>,
}

impl FanoutSink {
    /// Combine several sinks into one.
    pub fn new(sinks: Vec<Box<dyn TraceSink>>) -> Self {
        Self { sinks }
    }
}

impl TraceSink for FanoutSink {
    fn enabled(&self) -> bool {
        self.sinks.iter().any(|s| s.enabled())
    }

    fn record(&mut self, ev: &TraceEvent) {
        for s in &mut self.sinks {
            s.record(ev);
        }
    }

    fn clone_box(&self) -> Box<dyn TraceSink> {
        Box::new(FanoutSink {
            sinks: self.sinks.iter().map(|s| s.clone_box()).collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::jsonl::validate_stream;
    use super::super::kinds::TraceKind;
    use super::super::metrics::CountingSink;
    use super::*;
    use crate::cluster::NodeId;
    use crate::engine::SimTime;
    use crate::job::JobId;

    #[test]
    fn fanout_and_null_compose() {
        let counting = CountingSink::default();
        let fanout = FanoutSink::new(vec![Box::new(NullSink), Box::new(counting.clone())]);
        assert!(fanout.enabled());
        assert!(!FanoutSink::new(vec![Box::new(NullSink)]).enabled());
        let mut boxed: Box<dyn TraceSink> = Box::new(fanout);
        let cloned = boxed.clone();
        boxed.record(&TraceEvent {
            t: SimTime::ZERO,
            kind: TraceKind::NodeCrash { node: NodeId(0) },
        });
        drop(cloned);
        assert_eq!(counting.metrics().node_crashes, 1);
        assert!(!NullSink.enabled());
    }

    #[test]
    fn jsonl_sink_streams_and_latches_errors() {
        let (mut sink, buf) = JsonlSink::buffered();
        sink.record(&TraceEvent {
            t: SimTime::from_secs(1.0),
            kind: TraceKind::JobSubmit { job: JobId(0) },
        });
        sink.record(&TraceEvent {
            t: SimTime::from_secs(2.0),
            kind: TraceKind::JobFinish {
                job: JobId(0),
                restarts: 0,
            },
        });
        let text = buf.contents();
        assert_eq!(text.lines().count(), 2);
        assert_eq!(validate_stream(text.lines()), Ok(2));
        assert!(sink.error().is_none());

        #[derive(Debug)]
        struct FailWriter;
        impl std::io::Write for FailWriter {
            fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut failing = JsonlSink::new(Box::new(FailWriter));
        failing.record(&TraceEvent {
            t: SimTime::ZERO,
            kind: TraceKind::JobSubmit { job: JobId(0) },
        });
        assert!(failing.error().unwrap().contains("disk full"));
    }
}
