//! Durable sweep execution: journaled checkpoints, panic isolation,
//! resumable runs, and graceful interruption.
//!
//! A Huge-tier sweep point runs for hours; an all-or-nothing pipeline
//! throws that work away on the first panic, OOM kill, or Ctrl-C. This
//! module wraps the single scatter implementation in
//! [`crate::runner::run_parallel_observed`] with:
//!
//! * a **manifest** — an append-only JSONL journal, written and read
//!   through the workspace's one JSON codec (`dmhpc_core::json`: fixed
//!   key order, exact `u64` numbers, a depth cap), recording each
//!   point's outcome the moment it completes, keyed by a deterministic
//!   **fingerprint** of everything that decides its result;
//! * **panic isolation** — each point runs once under `catch_unwind`,
//!   so one poisoned point becomes a recorded `failed` entry instead of
//!   killing its siblings (a point is a deterministic function of its
//!   fingerprint, so running it again would panic again);
//! * **resume** — a later run loads the manifest, hard-errors on any
//!   code/config fingerprint mismatch, decodes completed points from
//!   their journaled payloads, and re-runs only failed/missing ones;
//! * **graceful drain** — a SIGINT (or a `--point-limit` budget) stops
//!   workers from claiming new points; in-flight points finish and are
//!   journaled, then the run reports [`DurableError::Interrupted`] so
//!   the CLI can exit with the distinct code [`EXIT_INTERRUPTED`].
//!
//! Floats are journaled as their IEEE-754 bit patterns, so a resumed
//! sweep aggregates to *byte-identical* CSV against an uninterrupted
//! run — the golden in `tests/durable_sweep.rs`.

use crate::runner::{run_parallel_observed, Progress};
use dmhpc_core::error::CoreError;
use dmhpc_core::json::{self, Object, Value};
use std::collections::HashMap;
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Manifest schema version; bumped on any incompatible layout change.
pub const MANIFEST_FORMAT: u32 = 1;

/// Process exit code for a cleanly drained (interrupted, resumable)
/// sweep — distinct from `1` (failure) so scripts can tell "interrupted
/// cleanly, resume me" from "crashed".
pub const EXIT_INTERRUPTED: i32 = 75;

/// Code version stamped into manifests; a resume across versions is a
/// hard error (simulated bits are only guaranteed stable within one).
const CODE_VERSION: &str = env!("CARGO_PKG_VERSION");

/// Parse one manifest line: a JSON object whose values, at every depth,
/// are the only shapes the journal writes: exact `u64` integers (floats
/// travel as bit patterns), strings, booleans and objects.
///
/// # Errors
/// The decoder's error, or the first member holding anything else.
pub fn parse_manifest_line(line: &str) -> Result<Object, String> {
    fn check(o: &Object) -> Result<(), String> {
        for (key, v) in o.iter() {
            match v {
                Value::Str(_) | Value::Bool(_) => {}
                Value::Num(n) if n.as_u64().is_some() => {}
                Value::Obj(inner) => check(inner)?,
                _ => return Err(format!("field {key:?} is not a manifest value")),
            }
        }
        Ok(())
    }
    let obj = json::parse_object(line)?;
    check(&obj).map(|()| obj)
}

// ---------------------------------------------------------------------
// Fingerprints.
// ---------------------------------------------------------------------

/// Builder for a sweep point's deterministic fingerprint: a
/// `kind;key=value;…` string over everything that decides the point's
/// result (trace, overestimation bits, mem%, policy spec, scale, seeds,
/// fault profile). Values have `\`, `;`, and `=` backslash-escaped, so
/// the encoding is injective over field tuples — two points collide
/// only if every field is equal.
#[derive(Clone, Debug)]
pub struct Fingerprint {
    buf: String,
}

impl Fingerprint {
    /// Start a fingerprint of the given point kind.
    pub fn new(kind: &str) -> Self {
        Self {
            buf: escape_fp(kind),
        }
    }

    /// Append a string-valued field.
    pub fn field(mut self, key: &str, value: &str) -> Self {
        self.buf.push(';');
        self.buf.push_str(key);
        self.buf.push('=');
        self.buf.push_str(&escape_fp(value));
        self
    }

    /// Append an integer-valued field.
    pub fn field_u64(self, key: &str, value: u64) -> Self {
        let v = value.to_string();
        self.field(key, &v)
    }

    /// Append an integer-valued field in hex (seeds read better).
    pub fn field_hex(self, key: &str, value: u64) -> Self {
        let v = format!("{value:x}");
        self.field(key, &v)
    }

    /// Append a float field by exact bit pattern (never formatted, so
    /// `0.6` and the nearest-but-different double can't collide).
    pub fn field_bits(self, key: &str, value: f64) -> Self {
        self.field_hex(key, value.to_bits())
    }

    /// Finish into the fingerprint string.
    pub fn finish(self) -> String {
        self.buf
    }
}

fn escape_fp(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        if matches!(c, '\\' | ';' | '=') {
            out.push('\\');
        }
        out.push(c);
    }
    out
}

/// 64-bit FNV-1a over a byte stream.
fn fnv1a64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Hash the whole sweep plan — format, code version, run label, point
/// count, and every point fingerprint in order — into the 16-hex-digit
/// config fingerprint stamped in the manifest header. Resuming against
/// a manifest whose config fingerprint differs is a hard error.
pub fn config_fingerprint(label: &str, fps: &[String]) -> String {
    let mut stream: Vec<u8> = Vec::new();
    stream.extend_from_slice(format!("format={MANIFEST_FORMAT}\n").as_bytes());
    stream.extend_from_slice(format!("version={CODE_VERSION}\n").as_bytes());
    stream.extend_from_slice(format!("run={label}\n").as_bytes());
    stream.extend_from_slice(format!("points={}\n", fps.len()).as_bytes());
    for fp in fps {
        stream.extend_from_slice(fp.as_bytes());
        stream.push(b'\n');
    }
    format!("{:016x}", fnv1a64(stream))
}

// ---------------------------------------------------------------------
// Manifest records.
// ---------------------------------------------------------------------

/// The first line of every manifest: what run this journal belongs to.
#[derive(Clone, Debug, PartialEq)]
pub struct ManifestHeader {
    /// Manifest schema version ([`MANIFEST_FORMAT`]).
    pub format: u32,
    /// Run label (`fig5`, `fault-sweep`, …).
    pub run: String,
    /// Code version that wrote the manifest.
    pub version: String,
    /// [`config_fingerprint`] of the full sweep plan.
    pub config: String,
    /// Total points in the plan.
    pub points: u64,
}

impl ManifestHeader {
    fn to_payload(&self) -> Object {
        let mut p = Object::new();
        p.push_str("kind", "header");
        p.push_u64("format", self.format as u64);
        p.push_str("run", &self.run);
        p.push_str("version", &self.version);
        p.push_str("config", &self.config);
        p.push_u64("points", self.points);
        p
    }

    fn from_payload(p: &Object) -> Result<Self, String> {
        if p.str("kind")? != "header" {
            return Err("first manifest line is not a header".to_string());
        }
        Ok(Self {
            format: p.u64("format")? as u32,
            run: p.str("run")?.to_string(),
            version: p.str("version")?.to_string(),
            config: p.str("config")?.to_string(),
            points: p.u64("points")?,
        })
    }
}

/// Journaled outcome of one sweep point.
#[derive(Clone, Debug, PartialEq)]
pub enum PointStatus {
    /// The point completed; `payload` decodes back into its output.
    Done {
        /// Wall-clock time of the successful run, milliseconds.
        wall_ms: u64,
        /// The encoded output ([`Journaled::encode`]).
        payload: Object,
    },
    /// The point panicked.
    Failed {
        /// The panic payload (or error text).
        error: String,
    },
}

/// A loaded manifest: header, per-point records (last record wins), and
/// the trailing interruption marker if the writing run drained early.
#[derive(Clone, Debug)]
pub struct ResumeState {
    /// Path the manifest was loaded from.
    pub path: String,
    /// The manifest header.
    pub header: ManifestHeader,
    /// `(fingerprint, status)` in first-seen order, one entry per
    /// distinct fingerprint with the latest status.
    pub records: Vec<(String, PointStatus)>,
    index: HashMap<String, usize>,
}

impl ResumeState {
    /// Load and validate a manifest. The first non-empty line must be a
    /// header. A parse failure on the *last* non-empty line is
    /// tolerated (a torn tail from a hard kill mid-write — the point it
    /// described simply re-runs); a parse failure anywhere earlier is a
    /// hard error, because silently skipping interior corruption could
    /// resurrect stale results.
    pub fn load(path: &str) -> Result<Self, CoreError> {
        let text = std::fs::read_to_string(path).map_err(|e| CoreError::io(path, e))?;
        let lines: Vec<(usize, &str)> = text
            .lines()
            .enumerate()
            .map(|(i, l)| (i + 1, l.trim()))
            .filter(|(_, l)| !l.is_empty())
            .collect();
        let Some(&(first_no, first)) = lines.first() else {
            return Err(CoreError::parse(format!("{path}: empty manifest")));
        };
        let header = parse_manifest_line(first)
            .and_then(|p| ManifestHeader::from_payload(&p))
            .map_err(|e| CoreError::parse_at(first_no, format!("{path}: {e}")))?;
        let mut records: Vec<(String, PointStatus)> = Vec::new();
        let mut index: HashMap<String, usize> = HashMap::new();
        let last_no = lines.last().map(|&(n, _)| n).unwrap_or(0);
        for &(line_no, line) in &lines[1..] {
            let record = parse_manifest_line(line).and_then(|p| match p.str("kind")? {
                "point" => point_record(&p).map(Some),
                "interrupted" => Ok(None), // informational marker
                k => Err(format!("unknown record kind {k:?}")),
            });
            let (fp, status) = match record {
                Ok(Some(r)) => r,
                Ok(None) => continue,
                Err(_) if line_no == last_no => break, // torn tail
                Err(e) => {
                    return Err(CoreError::parse_at(line_no, format!("{path}: {e}")));
                }
            };
            match index.get(&fp) {
                Some(&i) => records[i].1 = status,
                None => {
                    index.insert(fp.clone(), records.len());
                    records.push((fp, status));
                }
            }
        }
        Ok(Self {
            path: path.to_string(),
            header,
            records,
            index,
        })
    }

    /// Check that this manifest belongs to the sweep about to run.
    /// Every mismatch — schema format, run label, code version, config
    /// fingerprint, point count — is a hard error: a manifest is only
    /// reusable when the code would recompute exactly the same plan.
    pub fn verify(&self, run: &str, config: &str, points: usize) -> Result<(), String> {
        let h = &self.header;
        if h.format != MANIFEST_FORMAT {
            return Err(format!(
                "{}: manifest format {} but this build writes {MANIFEST_FORMAT}",
                self.path, h.format
            ));
        }
        if h.run != run {
            return Err(format!(
                "{}: manifest is for run {:?}, not {run:?}",
                self.path, h.run
            ));
        }
        if h.version != CODE_VERSION {
            return Err(format!(
                "{}: manifest written by version {} but this is {CODE_VERSION}",
                self.path, h.version
            ));
        }
        if h.points != points as u64 {
            return Err(format!(
                "{}: manifest plans {} points but this sweep has {points}",
                self.path, h.points
            ));
        }
        if h.config != config {
            return Err(format!(
                "{}: config fingerprint {} does not match this sweep's {config} \
                 (different scale, traces, policies, seeds, or flags)",
                self.path, h.config
            ));
        }
        Ok(())
    }

    /// Status of the point with this fingerprint, if journaled.
    pub fn status(&self, fp: &str) -> Option<&PointStatus> {
        self.index.get(fp).map(|&i| &self.records[i].1)
    }

    /// `(completed, failed, pending)` counts against the header's plan.
    pub fn counts(&self) -> (u64, u64, u64) {
        let done = self
            .records
            .iter()
            .filter(|(_, s)| matches!(s, PointStatus::Done { .. }))
            .count() as u64;
        let failed = self.records.len() as u64 - done;
        let pending = self.header.points.saturating_sub(done + failed);
        (done, failed, pending)
    }
}

fn point_record(p: &Object) -> Result<(String, PointStatus), String> {
    let fp = p.str("fp")?.to_string();
    let status = match p.str("status")? {
        "done" => PointStatus::Done {
            wall_ms: p.u64("wall_ms")?,
            payload: p.map("payload")?.clone(),
        },
        "failed" => PointStatus::Failed {
            error: p.str("error")?.to_string(),
        },
        s => return Err(format!("unknown point status {s:?}")),
    };
    Ok((fp, status))
}

/// Append-only manifest writer. Each record is one line, flushed
/// immediately (journaling happens at point granularity — once per
/// simulated point, never inside the hot path). The first I/O error is
/// latched and surfaced at the end of the run; later writes are
/// dropped, matching the error discipline of `core::trace::JsonlSink`.
struct ManifestWriter {
    path: String,
    file: std::fs::File,
    error: Option<CoreError>,
}

impl ManifestWriter {
    /// Create (truncate) a fresh manifest and write its header.
    fn create(path: &str, header: &ManifestHeader) -> Result<Self, CoreError> {
        let file = std::fs::File::create(path).map_err(|e| CoreError::io(path, e))?;
        let mut w = Self {
            path: path.to_string(),
            file,
            error: None,
        };
        w.write_line(&header.to_payload());
        match w.error.take() {
            Some(e) => Err(e),
            None => Ok(w),
        }
    }

    /// Open an existing manifest for appending (resume).
    fn append(path: &str) -> Result<Self, CoreError> {
        let file = std::fs::OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| CoreError::io(path, e))?;
        Ok(Self {
            path: path.to_string(),
            file,
            error: None,
        })
    }

    /// Write one record line and flush; latch the first failure.
    fn write_line(&mut self, payload: &Object) {
        if self.error.is_some() {
            return;
        }
        let mut line = payload.to_json();
        line.push('\n');
        let r = self
            .file
            .write_all(line.as_bytes())
            .and_then(|()| self.file.flush());
        if let Err(e) = r {
            self.error = Some(CoreError::io(&self.path, e));
        }
    }
}

// ---------------------------------------------------------------------
// The durable runner.
// ---------------------------------------------------------------------

/// A sweep output that can round-trip through the manifest. `decode ∘
/// encode` must be the identity on every field that feeds aggregation —
/// floats through [`Object::push_f64_bits`], so resumed points carry
/// the exact bits the original run computed.
pub trait Journaled: Sized {
    /// Encode this output into a manifest payload.
    fn encode(&self) -> Object;
    /// Decode an output back from a manifest payload.
    fn decode(p: &Object) -> Result<Self, String>;
}

/// Options for [`run_durable`].
#[derive(Clone, Debug, Default)]
pub struct DurableOptions {
    /// Journal outcomes to this manifest path (`None` = no journal).
    pub manifest: Option<String>,
    /// Resume from a previously loaded manifest; implies appending to
    /// it when `manifest` names the same file.
    pub resume: Option<ResumeState>,
    /// Stop claiming new points once this many completed this run —
    /// the deterministic stand-in for Ctrl-C used by tests and CI.
    pub point_limit: Option<usize>,
    /// External graceful-stop flag (see [`install_sigint_drain`]);
    /// once set, unclaimed points are left pending.
    pub interrupt: Option<Arc<AtomicBool>>,
}

/// One point that panicked.
#[derive(Clone, Debug, PartialEq)]
pub struct FailedPoint {
    /// Index into the sweep plan.
    pub index: usize,
    /// The point's fingerprint.
    pub fp: String,
    /// The panic payload.
    pub error: String,
}

/// Why a durable sweep did not return a full set of outputs.
#[derive(Clone, Debug)]
pub enum DurableError {
    /// Manifest I/O or parse failure.
    Core(CoreError),
    /// The manifest does not match the sweep about to run (or the plan
    /// itself is malformed, e.g. duplicate fingerprints).
    Incompatible(String),
    /// Every point ran, but some panicked.
    PointsFailed {
        /// The dead points.
        failed: Vec<FailedPoint>,
        /// Manifest that recorded them, if journaling was on.
        manifest: Option<String>,
    },
    /// The run drained early (SIGINT or point limit); in-flight points
    /// were journaled, the rest are pending.
    Interrupted {
        /// Points complete (including pre-completed ones).
        done: usize,
        /// Points recorded failed.
        failed: usize,
        /// Points never claimed.
        pending: usize,
        /// Manifest to resume from, if journaling was on.
        manifest: Option<String>,
    },
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableError::Core(e) => write!(f, "manifest error: {e}"),
            DurableError::Incompatible(msg) => write!(f, "cannot resume: {msg}"),
            DurableError::PointsFailed { failed, manifest } => {
                let first = failed.first().expect("at least one failed point");
                write!(
                    f,
                    "{} sweep point(s) failed; first: [{}] {}",
                    failed.len(),
                    first.fp,
                    first.error.lines().next().unwrap_or(""),
                )?;
                if let Some(m) = manifest {
                    write!(f, "; re-run failed points with --resume {m}")?;
                }
                Ok(())
            }
            DurableError::Interrupted {
                done,
                failed,
                pending,
                manifest,
            } => {
                write!(
                    f,
                    "interrupted: {done} done, {failed} failed, {pending} pending"
                )?;
                if let Some(m) = manifest {
                    write!(f, "; resume with --resume {m}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for DurableError {}

impl From<CoreError> for DurableError {
    fn from(e: CoreError) -> Self {
        DurableError::Core(e)
    }
}

/// Outcome of one point inside the durable runner.
enum PointOutcome<O> {
    Done { out: O, wall_ms: u64 },
    Failed { error: String },
    Skipped,
}

/// Run `f` over `inputs` with checkpoint journaling, panic isolation,
/// resume, and graceful drain. `fps[i]` is the fingerprint of
/// `inputs[i]`; outputs come back in input order. Simulated values are
/// bit-identical to a plain [`crate::runner::run_parallel`] sweep —
/// the durable layer never touches a point's seed or inputs, it only
/// decides *whether* to run it.
pub fn run_durable<I, O, F>(
    label: &str,
    inputs: Vec<I>,
    fps: Vec<String>,
    threads: usize,
    opts: &DurableOptions,
    f: F,
) -> Result<Vec<O>, DurableError>
where
    I: Send + Sync,
    O: Journaled + Send,
    F: Fn(&I) -> O + Sync,
{
    let n = inputs.len();
    assert_eq!(fps.len(), n, "one fingerprint per input");
    {
        let mut seen = std::collections::HashSet::with_capacity(n);
        for fp in &fps {
            if !seen.insert(fp.as_str()) {
                return Err(DurableError::Incompatible(format!(
                    "sweep plan has duplicate fingerprint {fp:?}"
                )));
            }
        }
    }
    let config = config_fingerprint(label, &fps);

    // Resume: verify compatibility, then decode pre-completed outputs.
    let mut outputs: Vec<Option<O>> = (0..n).map(|_| None).collect();
    let mut pre_done = vec![false; n];
    if let Some(resume) = &opts.resume {
        resume
            .verify(label, &config, n)
            .map_err(DurableError::Incompatible)?;
        for (i, fp) in fps.iter().enumerate() {
            if let Some(PointStatus::Done { payload, .. }) = resume.status(fp) {
                let out = O::decode(payload).map_err(|e| {
                    DurableError::Incompatible(format!(
                        "{}: journaled point [{fp}] does not decode: {e}",
                        resume.path
                    ))
                })?;
                outputs[i] = Some(out);
                pre_done[i] = true;
            }
        }
    }

    let writer: Option<Mutex<ManifestWriter>> = match &opts.manifest {
        Some(path) => {
            let w = if opts.resume.as_ref().is_some_and(|r| r.path == *path) {
                ManifestWriter::append(path)?
            } else {
                ManifestWriter::create(
                    path,
                    &ManifestHeader {
                        format: MANIFEST_FORMAT,
                        run: label.to_string(),
                        version: CODE_VERSION.to_string(),
                        config: config.clone(),
                        points: n as u64,
                    },
                )?
            };
            Some(Mutex::new(w))
        }
        None => None,
    };

    let work: Vec<usize> = (0..n).filter(|&i| !pre_done[i]).collect();
    let progress = Progress::new(label, n, n - work.len());
    let stop = AtomicBool::new(false);
    let completions = AtomicUsize::new(0);

    let run_point = |&i: &usize| -> PointOutcome<O> {
        let externally_stopped = opts
            .interrupt
            .as_ref()
            .is_some_and(|flag| flag.load(Ordering::SeqCst));
        if stop.load(Ordering::Relaxed) || externally_stopped {
            return PointOutcome::Skipped;
        }
        let started = Instant::now();
        let outcome = match catch_unwind(AssertUnwindSafe(|| f(&inputs[i]))) {
            Ok(out) => PointOutcome::Done {
                out,
                wall_ms: started.elapsed().as_millis() as u64,
            },
            Err(payload) => PointOutcome::Failed {
                error: panic_message(payload),
            },
        };
        let finished = completions.fetch_add(1, Ordering::Relaxed) + 1;
        if opts.point_limit.is_some_and(|limit| finished >= limit) {
            stop.store(true, Ordering::Relaxed);
        }
        outcome
    };

    // The observer journals each outcome the moment it completes, on
    // the worker thread that produced it — a kill after this write
    // loses at most the points still in flight.
    let observe = |wi: usize, outcome: &PointOutcome<O>| {
        let i = work[wi];
        let mut record = Object::new();
        record.push_str("kind", "point");
        record.push_str("fp", &fps[i]);
        match outcome {
            PointOutcome::Done { out, wall_ms } => {
                record.push_str("status", "done");
                record.push_u64("wall_ms", *wall_ms);
                record.push_map("payload", out.encode());
            }
            PointOutcome::Failed { error } => {
                record.push_str("status", "failed");
                record.push_str("error", error);
            }
            PointOutcome::Skipped => return,
        }
        if let Some(w) = &writer {
            w.lock().expect("manifest writer lock").write_line(&record);
        }
        progress.tick();
    };

    let outcomes = run_parallel_observed(work.clone(), threads, run_point, observe);

    let mut failed: Vec<FailedPoint> = Vec::new();
    let mut pending = 0usize;
    for (wi, outcome) in outcomes.into_iter().enumerate() {
        let i = work[wi];
        match outcome {
            PointOutcome::Done { out, .. } => outputs[i] = Some(out),
            PointOutcome::Failed { error } => failed.push(FailedPoint {
                index: i,
                fp: fps[i].clone(),
                error,
            }),
            PointOutcome::Skipped => pending += 1,
        }
    }
    let done = outputs.iter().filter(|o| o.is_some()).count();

    if pending > 0 {
        if let Some(w) = &writer {
            let mut p = Object::new();
            p.push_str("kind", "interrupted");
            p.push_u64("done", done as u64);
            p.push_u64("failed", failed.len() as u64);
            p.push_u64("pending", pending as u64);
            w.lock().expect("manifest writer lock").write_line(&p);
        }
    }
    if let Some(w) = writer {
        let w = w.into_inner().expect("manifest writer lock");
        if let Some(e) = w.error {
            return Err(DurableError::Core(e));
        }
    }
    if pending > 0 {
        return Err(DurableError::Interrupted {
            done,
            failed: failed.len(),
            pending,
            manifest: opts.manifest.clone(),
        });
    }
    if !failed.is_empty() {
        return Err(DurableError::PointsFailed {
            failed,
            manifest: opts.manifest.clone(),
        });
    }
    Ok(outputs
        .into_iter()
        .map(|o| o.expect("every non-failed point has an output"))
        .collect())
}

/// Render a caught panic payload as text (the common `String` and
/// `&'static str` payloads; anything else gets a placeholder).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else {
        "panic with non-string payload".to_string()
    }
}

// ---------------------------------------------------------------------
// SIGINT drain.
// ---------------------------------------------------------------------

static SIGINT_FLAG: OnceLock<Arc<AtomicBool>> = OnceLock::new();

/// Install a SIGINT handler that requests a graceful drain: the first
/// Ctrl-C sets the returned flag (workers stop claiming points,
/// in-flight ones finish and are journaled, the run reports
/// [`DurableError::Interrupted`]); a second Ctrl-C force-exits with
/// code 130 for when draining itself is too slow. Idempotent — repeat
/// calls return the same flag. On non-Unix targets this is a no-op
/// flag that nothing ever sets.
pub fn install_sigint_drain() -> Arc<AtomicBool> {
    let flag = SIGINT_FLAG.get_or_init(|| Arc::new(AtomicBool::new(false)));
    #[cfg(unix)]
    {
        static INSTALLED: AtomicBool = AtomicBool::new(false);
        if !INSTALLED.swap(true, Ordering::SeqCst) {
            extern "C" {
                // `libc` is always linked on Unix; declaring the two
                // symbols directly avoids a vendored-crate dependency.
                fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
            }
            const SIGINT: i32 = 2;
            unsafe {
                signal(SIGINT, on_sigint);
            }
        }
    }
    Arc::clone(flag)
}

#[cfg(unix)]
extern "C" fn on_sigint(_signum: i32) {
    // Async-signal-safe: an atomic load + swap, or an immediate _exit.
    if let Some(flag) = SIGINT_FLAG.get() {
        if !flag.swap(true, Ordering::SeqCst) {
            return; // first Ctrl-C: request drain
        }
    }
    extern "C" {
        fn _exit(code: i32) -> !;
    }
    unsafe { _exit(130) }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(tag: &str) -> String {
        let mut p = std::env::temp_dir();
        p.push(format!("dmhpc_durable_{tag}_{}.jsonl", std::process::id()));
        p.to_string_lossy().into_owned()
    }

    /// Options that journal to `path`, resuming from `resume`.
    fn journal(path: &str, resume: Option<ResumeState>) -> DurableOptions {
        DurableOptions {
            manifest: Some(path.to_string()),
            resume,
            ..Default::default()
        }
    }

    fn out(x: u64) -> Out {
        Out {
            x,
            v: 0.0,
            note: String::new(),
        }
    }

    #[derive(Clone, Debug, PartialEq)]
    struct Out {
        x: u64,
        v: f64,
        note: String,
    }

    impl Journaled for Out {
        fn encode(&self) -> Object {
            let mut p = Object::new();
            p.push_u64("x", self.x);
            p.push_f64_bits("v", self.v);
            p.push_str("note", &self.note);
            p
        }

        fn decode(p: &Object) -> Result<Self, String> {
            Ok(Self {
                x: p.u64("x")?,
                v: p.f64_bits("v")?,
                note: p.str("note")?.to_string(),
            })
        }
    }

    #[test]
    fn payload_json_round_trips() {
        let mut inner = Object::new();
        inner.push_f64_bits("nan", f64::NAN);
        inner.push_bool("ok", true);
        let mut p = Object::new();
        p.push_str("kind", "point");
        p.push_str("text", "quote \" slash \\ newline \n tab \t bell \u{7}");
        p.push_u64("big", u64::MAX);
        p.push_map("payload", inner);
        let line = p.to_json();
        let back = parse_manifest_line(&line).expect("parses");
        assert_eq!(back, p);
        // u64::MAX survives exactly: it is never squeezed through an f64.
        assert_eq!(back.u64("big").unwrap(), u64::MAX);
        assert!(back
            .map("payload")
            .unwrap()
            .f64_bits("nan")
            .unwrap()
            .is_nan());
    }

    #[test]
    fn manifest_lines_hold_only_journal_shapes() {
        // JSON the decoder accepts but the journal never writes.
        let bad = r#"{"n":-1} {"n":-0} {"n":1.5} {"n":1e3} {"n":18446744073709551616} {"p":{"n":[1]}} {"n":null} [1]"#;
        for bad in bad.split(' ') {
            assert!(json::parse(bad).is_ok() || bad.contains("null"), "{bad}");
            assert!(parse_manifest_line(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn fingerprint_escapes_separators() {
        let a = Fingerprint::new("point").field("k", "a;b").finish();
        let b = Fingerprint::new("point")
            .field("k", "a")
            .field("b", "")
            .finish();
        assert_ne!(a, b);
        assert_eq!(a, "point;k=a\\;b");
        let c = Fingerprint::new("point")
            .field_bits("over", 0.6)
            .field_u64("mem", 37)
            .finish();
        assert_eq!(c, format!("point;over={:x};mem=37", 0.6f64.to_bits()));
    }

    #[test]
    fn config_fingerprint_is_order_sensitive() {
        let ab = config_fingerprint("run", &["a".into(), "b".into()]);
        let ba = config_fingerprint("run", &["b".into(), "a".into()]);
        assert_ne!(ab, ba);
        assert_eq!(ab, config_fingerprint("run", &["a".into(), "b".into()]));
        assert_ne!(ab, config_fingerprint("other", &["a".into(), "b".into()]));
        assert_eq!(ab.len(), 16);
    }

    fn fps_for(n: u64) -> Vec<String> {
        (0..n)
            .map(|i| Fingerprint::new("t").field_u64("i", i).finish())
            .collect()
    }

    #[test]
    fn journal_and_resume_round_trip() {
        let path = tmp_path("roundtrip");
        let inputs: Vec<u64> = (0..6).collect();
        let opts = journal(&path, None);
        let f = |&x: &u64| Out {
            x,
            v: (x as f64) / 3.0,
            note: format!("n{x}"),
        };
        let full = run_durable("t", inputs.clone(), fps_for(6), 2, &opts, f).expect("runs");
        // Resume over a complete manifest runs nothing and returns the
        // decoded outputs bit-for-bit.
        let resume = ResumeState::load(&path).expect("loads");
        assert_eq!(resume.counts(), (6, 0, 0));
        let opts2 = journal(&path, Some(resume));
        let again = run_durable("t", inputs, fps_for(6), 2, &opts2, |_: &u64| -> Out {
            panic!("must not re-run completed points")
        })
        .expect("resumes");
        assert_eq!(full, again);
        for (a, b) in full.iter().zip(&again) {
            assert_eq!(a.v.to_bits(), b.v.to_bits());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn point_limit_drains_and_resume_completes() {
        let path = tmp_path("drain");
        let inputs: Vec<u64> = (0..8).collect();
        let opts = DurableOptions {
            manifest: Some(path.clone()),
            point_limit: Some(3),
            ..Default::default()
        };
        let f = |&x: &u64| Out {
            x,
            v: x as f64,
            note: String::new(),
        };
        let err = run_durable("t", inputs.clone(), fps_for(8), 1, &opts, f).unwrap_err();
        match err {
            DurableError::Interrupted { done, pending, .. } => {
                assert_eq!(done, 3);
                assert_eq!(pending, 5);
            }
            other => panic!("expected Interrupted, got {other:?}"),
        }
        let resume = ResumeState::load(&path).expect("loads");
        assert_eq!(resume.counts(), (3, 0, 5));
        let opts2 = journal(&path, Some(resume));
        let out = run_durable("t", inputs, fps_for(8), 1, &opts2, f).expect("completes");
        assert_eq!(out.len(), 8);
        assert_eq!(ResumeState::load(&path).unwrap().counts(), (8, 0, 0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn panics_are_isolated() {
        let path = tmp_path("panic");
        let inputs: Vec<u64> = (0..5).collect();
        let opts = journal(&path, None);
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // quiet the expected panics
        let err = run_durable("t", inputs, fps_for(5), 2, &opts, |&x: &u64| {
            if x == 3 {
                panic!("point {x} is poisoned");
            }
            out(x)
        })
        .unwrap_err();
        std::panic::set_hook(hook);
        match err {
            DurableError::PointsFailed { failed, .. } => {
                assert_eq!(failed.len(), 1);
                assert_eq!(failed[0].index, 3);
                assert!(failed[0].error.contains("poisoned"));
            }
            other => panic!("expected PointsFailed, got {other:?}"),
        }
        // Siblings were journaled done; the poisoned point is failed.
        let resume = ResumeState::load(&path).expect("loads");
        assert_eq!(resume.counts(), (4, 1, 0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_reruns_failed_points() {
        let path = tmp_path("refail");
        let inputs: Vec<u64> = (0..4).collect();
        let opts = journal(&path, None);
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let _ = run_durable("t", inputs.clone(), fps_for(4), 1, &opts, |&x: &u64| {
            if x == 1 {
                panic!("flaky");
            }
            out(x)
        });
        std::panic::set_hook(hook);
        // Resume with a healthy closure: only the failed point re-runs.
        let ran = AtomicUsize::new(0);
        let opts2 = journal(&path, Some(ResumeState::load(&path).unwrap()));
        let out = run_durable("t", inputs, fps_for(4), 1, &opts2, |&x: &u64| {
            ran.fetch_add(1, Ordering::Relaxed);
            out(x)
        })
        .expect("resume succeeds");
        assert_eq!(
            ran.load(Ordering::Relaxed),
            1,
            "only the failed point re-ran"
        );
        assert_eq!(out.len(), 4);
        assert_eq!(ResumeState::load(&path).unwrap().counts(), (4, 0, 0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn manifest_with_attempts_counts_still_resumes() {
        // Manifests written before the retry ladder was removed carry an
        // `attempts` count on every point record; resume ignores it.
        let path = tmp_path("attempts");
        let fps = fps_for(3);
        let header = ManifestHeader {
            format: MANIFEST_FORMAT,
            run: "t".to_string(),
            version: CODE_VERSION.to_string(),
            config: config_fingerprint("t", &fps),
            points: 3,
        };
        let lines = [
            header.to_payload().to_json(),
            format!(
                r#"{{"kind":"point","fp":"{}","status":"done","attempts":2,"wall_ms":5,"payload":{{"x":0,"v":0,"note":"journaled"}}}}"#,
                fps[0]
            ),
            format!(
                r#"{{"kind":"point","fp":"{}","status":"failed","attempts":2,"error":"flaky"}}"#,
                fps[1]
            ),
        ];
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        let resume = ResumeState::load(&path).expect("loads");
        assert_eq!(resume.counts(), (1, 1, 1));
        assert!(matches!(
            resume.status(&fps[0]),
            Some(PointStatus::Done { wall_ms: 5, .. })
        ));
        assert_eq!(
            resume.status(&fps[1]),
            Some(&PointStatus::Failed {
                error: "flaky".to_string()
            })
        );
        let ran = AtomicUsize::new(0);
        let opts = DurableOptions {
            manifest: Some(path.clone()),
            resume: Some(resume),
            ..Default::default()
        };
        let out = run_durable("t", vec![0u64, 1, 2], fps, 1, &opts, |&x: &u64| {
            ran.fetch_add(1, Ordering::Relaxed);
            Out {
                x,
                v: 0.0,
                note: "fresh".to_string(),
            }
        })
        .expect("resume succeeds");
        assert_eq!(ran.load(Ordering::Relaxed), 2, "failed + missing re-ran");
        let notes: Vec<&str> = out.iter().map(|o| o.note.as_str()).collect();
        assert_eq!(notes, ["journaled", "fresh", "fresh"]);
        assert_eq!(ResumeState::load(&path).unwrap().counts(), (3, 0, 0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_tolerated_interior_corruption_is_not() {
        let path = tmp_path("torn");
        let inputs: Vec<u64> = (0..3).collect();
        let opts = DurableOptions {
            manifest: Some(path.clone()),
            ..Default::default()
        };
        let f = |&x: &u64| Out {
            x,
            v: 0.0,
            note: String::new(),
        };
        run_durable("t", inputs, fps_for(3), 1, &opts, f).expect("runs");
        // Tear the last line mid-record: still loads, last point re-runs.
        let text = std::fs::read_to_string(&path).unwrap();
        let torn: String = text[..text.len() - 10].to_string();
        std::fs::write(&path, &torn).unwrap();
        let resume = ResumeState::load(&path).expect("torn tail tolerated");
        assert_eq!(resume.counts(), (2, 0, 1));
        // Corrupt an interior line: hard error.
        let mut lines: Vec<&str> = text.lines().collect();
        lines[1] = "{\"kind\":\"point\",garbage";
        std::fs::write(&path, lines.join("\n")).unwrap();
        assert!(matches!(
            ResumeState::load(&path),
            Err(CoreError::Parse { line: 2, .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn incompatible_manifest_is_a_hard_error() {
        let path = tmp_path("incompat");
        let inputs: Vec<u64> = (0..3).collect();
        let opts = journal(&path, None);
        let f = |&x: &u64| out(x);
        run_durable("t", inputs.clone(), fps_for(3), 1, &opts, f).expect("runs");
        let resume = ResumeState::load(&path).unwrap();
        // Different run label.
        assert!(resume
            .verify("other", &config_fingerprint("other", &fps_for(3)), 3)
            .is_err());
        // Different plan (an extra point changes n and the config hash).
        let opts2 = journal(&path, Some(resume.clone()));
        let err = run_durable("t", (0..4).collect(), fps_for(4), 1, &opts2, f).unwrap_err();
        assert!(matches!(err, DurableError::Incompatible(_)), "{err}");
        // Tampered version line.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace(CODE_VERSION, "9.9.9")).unwrap();
        let stale = ResumeState::load(&path).unwrap();
        assert!(stale
            .verify("t", &config_fingerprint("t", &fps_for(3)), 3)
            .is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn duplicate_fingerprints_rejected() {
        let err = run_durable(
            "t",
            vec![1u64, 2],
            vec!["same".to_string(), "same".to_string()],
            1,
            &DurableOptions::default(),
            |&x: &u64| out(x),
        )
        .unwrap_err();
        assert!(matches!(err, DurableError::Incompatible(_)));
    }

    #[test]
    fn error_display_is_one_line() {
        let e = DurableError::PointsFailed {
            failed: vec![FailedPoint {
                index: 2,
                fp: "point;i=2".to_string(),
                error: "boom\nbacktrace line".to_string(),
            }],
            manifest: Some("/tmp/m.jsonl".to_string()),
        };
        let s = e.to_string();
        assert!(!s.contains('\n'), "diagnostic must be one line: {s:?}");
        assert!(s.contains("boom") && s.contains("--resume /tmp/m.jsonl"));
        let i = DurableError::Interrupted {
            done: 3,
            failed: 0,
            pending: 5,
            manifest: None,
        };
        assert_eq!(i.to_string(), "interrupted: 3 done, 0 failed, 5 pending");
    }

    #[test]
    fn sigint_flag_is_idempotent() {
        let a = install_sigint_drain();
        let b = install_sigint_drain();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!a.load(Ordering::SeqCst));
    }
}
