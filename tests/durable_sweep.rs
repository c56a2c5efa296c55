//! Goldens for the durable sweep layer.
//!
//! The core promise: interrupting a sweep and resuming it from its
//! manifest is outcome-invisible. A killed-and-resumed run must produce
//! a byte-identical aggregated CSV to an uninterrupted run, at one
//! thread and at several, because resumed points are replayed from
//! journaled `f64::to_bits` rather than recomputed or re-printed. On
//! top of that: a panicking point is isolated (siblings finish, the
//! point is journaled `failed`, the caller gets a typed error), torn
//! manifest tails are tolerated while interior corruption is not, and
//! fingerprints are stable and injective.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

mod common;

use dmhpc::core::cluster::{Cluster, JobAlloc, MemoryMix, TopologySpec};
use dmhpc::core::config::SystemConfig;
use dmhpc::core::json::Object;
use dmhpc::core::policy::{PlacementScratch, PolicySpec};
use dmhpc::core::sim::{MemManagement, MemoryPolicy, SimBuilder, StaticAlloc};
use dmhpc::core::telemetry::{Phase, Profile};
use dmhpc::experiments::durable::{
    config_fingerprint, parse_manifest_line, run_durable, DurableError, DurableOptions,
    Fingerprint, Journaled, PointStatus, ResumeState,
};
use dmhpc::experiments::report::encode_profile;
use dmhpc::experiments::scenario::synthetic_workload;
use dmhpc::experiments::{Scale, ThroughputSweep, TraceSpec};
use proptest::prelude::*;

/// A scratch path under the system temp dir, unique per test.
fn temp_path(tag: &str) -> String {
    let dir = std::env::temp_dir();
    format!(
        "{}/dmhpc-it-{}-{}.jsonl",
        dir.display(),
        std::process::id(),
        tag
    )
}

/// The small sweep plan the goldens run: one synthetic trace, two
/// overestimation legs, three policies — 2 legs x 8 memory points x 3
/// policies = 48 points, enough to interrupt part-way.
fn golden_sweep(threads: usize, opts: &DurableOptions) -> Result<ThroughputSweep, DurableError> {
    ThroughputSweep::run(
        "golden",
        Scale::Small,
        &[TraceSpec::Synthetic {
            large_fraction: 0.5,
        }],
        &[0.0, 0.6],
        threads,
        &[
            PolicySpec::Baseline,
            PolicySpec::Static,
            PolicySpec::Dynamic,
        ],
        &[TopologySpec::Flat],
        opts,
    )
}

/// The uninterrupted single-thread run's CSV, computed once and shared
/// by every golden (each interrupted/resumed/journaled route must land
/// on these exact bytes).
fn reference_csv() -> &'static str {
    static REFERENCE: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    REFERENCE.get_or_init(|| bit_csv(&golden_sweep(1, &DurableOptions::default()).unwrap()))
}

/// Bit-exact CSV of a sweep: floats rendered as raw bits so any
/// difference — even one ULP — shows up as a byte difference.
fn bit_csv(sweep: &ThroughputSweep) -> String {
    let mut s =
        String::from("trace,overest,mem_pct,policy,jps_bits,feasible,completed,median_bits\n");
    for p in &sweep.points {
        s.push_str(&format!(
            "{},{},{},{},{:016x},{},{},{:016x}\n",
            p.trace,
            p.overest,
            p.mem_pct,
            p.policy,
            p.throughput_jps.to_bits(),
            p.feasible,
            p.completed,
            p.median_response_s.to_bits(),
        ));
    }
    s
}

/// Kill (via `point_limit`) and resume at 1 and 4 threads; every route
/// must land on the same bytes as the uninterrupted reference.
#[test]
fn sweep_resume_bit_identical() {
    let reference = reference_csv();
    for threads in [1usize, 4] {
        let manifest = temp_path(&format!("golden-t{threads}"));
        let _ = std::fs::remove_file(&manifest);

        // First run: journal, but stop after 11 points.
        let opts = DurableOptions {
            manifest: Some(manifest.clone()),
            point_limit: Some(11),
            ..DurableOptions::default()
        };
        match golden_sweep(threads, &opts) {
            Err(DurableError::Interrupted { done, pending, .. }) => {
                assert!(done >= 11, "threads {threads}: drained {done} < limit");
                assert!(pending > 0, "threads {threads}: nothing left to resume");
            }
            other => panic!(
                "threads {threads}: expected interruption, got {other:?}",
                other = other.map(|s| s.points.len())
            ),
        }

        // Second run: resume and finish.
        let resume = ResumeState::load(&manifest).unwrap();
        let (done, failed, pending) = resume.counts();
        assert!(done >= 11 && failed == 0 && pending > 0);
        let opts = DurableOptions {
            manifest: Some(manifest.clone()),
            resume: Some(resume),
            ..DurableOptions::default()
        };
        let resumed = golden_sweep(threads, &opts).unwrap();
        assert_eq!(
            bit_csv(&resumed),
            reference,
            "threads {threads}: killed-and-resumed sweep diverged from the uninterrupted run"
        );

        // The finished manifest reports itself fully drained.
        let state = ResumeState::load(&manifest).unwrap();
        let (done, failed, pending) = state.counts();
        assert_eq!((failed, pending), (0, 0), "threads {threads}");
        assert_eq!(done, state.header.points, "threads {threads}");
        let _ = std::fs::remove_file(&manifest);
    }
}

/// An uninterrupted journaled run at several threads is byte-identical
/// to the plain single-thread reference — journaling must never
/// perturb simulated bits, and neither must the thread count.
#[test]
fn journaling_is_outcome_invisible() {
    let manifest = temp_path("invisible");
    let _ = std::fs::remove_file(&manifest);
    let opts = DurableOptions {
        manifest: Some(manifest.clone()),
        ..DurableOptions::default()
    };
    let journaled = golden_sweep(2, &opts).unwrap();
    assert_eq!(bit_csv(&journaled), reference_csv());
    let _ = std::fs::remove_file(&manifest);
}

/// A policy that panics inside `place` once the simulation is under
/// way: the durable layer must contain the panic, journal the point as
/// `failed` after its retry ladder, and let sibling points finish.
#[derive(Clone, Debug)]
struct PanicOnPlace {
    calls: Arc<AtomicUsize>,
}

impl MemoryPolicy for PanicOnPlace {
    fn name(&self) -> &'static str {
        "panic-on-place"
    }

    fn place(
        &self,
        _cluster: &Cluster,
        _nodes: u32,
        _request_mb: u64,
        _scratch: &mut PlacementScratch,
    ) -> Option<JobAlloc> {
        let n = self.calls.fetch_add(1, Ordering::Relaxed);
        if n >= 3 {
            panic!("deliberate test panic in place() (call {n})");
        }
        None // decline placement until the fuse blows
    }

    fn management(&self, _static_mode: bool, _undersized: bool) -> MemManagement {
        MemManagement::Pinned
    }

    fn clone_box(&self) -> Box<dyn MemoryPolicy> {
        Box::new(self.clone())
    }
}

/// Completed-job count of one mock point, round-tripped through the
/// manifest.
#[derive(Clone, Debug, PartialEq)]
struct MockOut {
    completed: u64,
}

impl Journaled for MockOut {
    fn encode(&self) -> Object {
        let mut p = Object::new();
        p.push_u64("completed", self.completed);
        p
    }

    fn decode(p: &Object) -> Result<Self, String> {
        Ok(MockOut {
            completed: p.u64("completed")?,
        })
    }
}

#[test]
fn panicking_policy_point_is_isolated() {
    // Quiet the panic-hook backtraces the deliberate panics would print.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    let manifest = temp_path("panic");
    let _ = std::fs::remove_file(&manifest);
    let inputs: Vec<bool> = vec![false, false, true, false]; // true = panicking policy
    let fps: Vec<String> = (0..inputs.len())
        .map(|i| {
            Fingerprint::new("mock-point")
                .field_u64("index", i as u64)
                .finish()
        })
        .collect();
    let opts = DurableOptions {
        manifest: Some(manifest.clone()),
        ..DurableOptions::default()
    };
    let result = run_durable("panic-golden", inputs, fps.clone(), 2, &opts, |&panics| {
        let system = SystemConfig::with_nodes(8).with_memory_mix(MemoryMix::new(4096, 16384, 0.5));
        let workload = synthetic_workload(Scale::Small, 0.25, 0.0, 0xD15EA5E);
        let policy: Box<dyn MemoryPolicy> = if panics {
            Box::new(PanicOnPlace {
                calls: Arc::new(AtomicUsize::new(0)),
            })
        } else {
            Box::new(StaticAlloc)
        };
        let out = SimBuilder::new(system, workload).policy_impl(policy).run();
        MockOut {
            completed: out.stats.completed as u64,
        }
    });
    std::panic::set_hook(hook);

    match result {
        Err(DurableError::PointsFailed {
            failed,
            manifest: m,
        }) => {
            assert_eq!(failed.len(), 1, "only the panicking point dies");
            assert_eq!(failed[0].index, 2);
            assert_eq!(failed[0].fp, fps[2]);
            assert!(
                failed[0].error.contains("deliberate test panic"),
                "panic payload preserved: {}",
                failed[0].error
            );
            assert_eq!(m.as_deref(), Some(manifest.as_str()));
        }
        other => panic!("expected PointsFailed, got {other:?}"),
    }

    // Siblings completed and were journaled; the dead point is failed.
    let state = ResumeState::load(&manifest).unwrap();
    assert_eq!(state.counts(), (3, 1, 0));
    for (i, fp) in fps.iter().enumerate() {
        match state.status(fp) {
            Some(PointStatus::Done { payload, .. }) => {
                assert_ne!(i, 2);
                let out = MockOut::decode(payload).unwrap();
                assert!(out.completed > 0, "sibling {i} simulated nothing");
            }
            Some(PointStatus::Failed { error }) => {
                assert_eq!(i, 2);
                assert!(error.contains("deliberate test panic"));
            }
            None => panic!("point {i} missing from the manifest"),
        }
    }
    let _ = std::fs::remove_file(&manifest);
}

/// Resuming with a different plan (policies, label, or point set) is a
/// hard error, not a silent partial reuse.
#[test]
fn incompatible_resume_is_a_hard_error() {
    let manifest = temp_path("incompat");
    let _ = std::fs::remove_file(&manifest);
    let opts = DurableOptions {
        manifest: Some(manifest.clone()),
        ..DurableOptions::default()
    };
    golden_sweep(1, &opts).unwrap();

    // Same manifest, different policy list.
    let resume = ResumeState::load(&manifest).unwrap();
    let opts = DurableOptions {
        manifest: Some(manifest.clone()),
        resume: Some(resume),
        ..DurableOptions::default()
    };
    let err = ThroughputSweep::run(
        "golden",
        Scale::Small,
        &[TraceSpec::Synthetic {
            large_fraction: 0.5,
        }],
        &[0.0, 0.6],
        1,
        &[PolicySpec::Baseline, PolicySpec::Dynamic],
        &[TopologySpec::Flat],
        &opts,
    )
    .unwrap_err();
    assert!(
        matches!(err, DurableError::Incompatible(_)),
        "expected Incompatible, got {err:?}"
    );

    // Different run label is rejected too.
    let resume = ResumeState::load(&manifest).unwrap();
    let opts = DurableOptions {
        manifest: Some(manifest.clone()),
        resume: Some(resume),
        ..DurableOptions::default()
    };
    let err = ThroughputSweep::run(
        "other-label",
        Scale::Small,
        &[TraceSpec::Synthetic {
            large_fraction: 0.5,
        }],
        &[0.0, 0.6],
        1,
        &[
            PolicySpec::Baseline,
            PolicySpec::Static,
            PolicySpec::Dynamic,
        ],
        &[TopologySpec::Flat],
        &opts,
    )
    .unwrap_err();
    assert!(matches!(err, DurableError::Incompatible(_)));
    let _ = std::fs::remove_file(&manifest);
}

/// A torn final line (the crash wrote half a record) only costs that
/// one point; resuming after truncation still converges on the golden
/// bytes.
#[test]
fn torn_tail_costs_one_point_not_the_run() {
    let reference = reference_csv();
    let manifest = temp_path("torn");
    let _ = std::fs::remove_file(&manifest);
    let opts = DurableOptions {
        manifest: Some(manifest.clone()),
        point_limit: Some(9),
        ..DurableOptions::default()
    };
    assert!(golden_sweep(1, &opts).is_err()); // interrupted, by design

    // Tear the tail: drop the interruption marker and chop the last
    // record in half, as a mid-write crash would.
    let text = std::fs::read_to_string(&manifest).unwrap();
    let mut lines: Vec<&str> = text.lines().collect();
    while lines.last().is_some_and(|l| l.contains("\"interrupted\"")) {
        lines.pop();
    }
    let last = lines.pop().unwrap();
    let torn = format!("{}\n{}", lines.join("\n"), &last[..last.len() / 2]);
    std::fs::write(&manifest, torn).unwrap();

    let resume = ResumeState::load(&manifest).unwrap();
    let (done, failed, _pending) = resume.counts();
    assert_eq!(failed, 0);
    assert!(done >= 8, "torn tail should cost at most one point");
    let opts = DurableOptions {
        manifest: Some(manifest.clone()),
        resume: Some(resume),
        ..DurableOptions::default()
    };
    let resumed = golden_sweep(1, &opts).unwrap();
    assert_eq!(bit_csv(&resumed), reference);

    // Interior corruption, by contrast, is a hard parse error.
    let text = std::fs::read_to_string(&manifest).unwrap();
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    lines[2] = "{not json".to_string();
    std::fs::write(&manifest, lines.join("\n")).unwrap();
    assert!(ResumeState::load(&manifest).is_err());
    let _ = std::fs::remove_file(&manifest);
}

/// A profiled point as a telemetry sweep journals it: scalars, a float
/// by bit pattern, an integer above 2^53 and a nested `phases` object.
#[derive(Clone, Debug, PartialEq)]
struct ProfiledOut;

impl Journaled for ProfiledOut {
    fn encode(&self) -> Object {
        let mut phases = Profile::default();
        phases.set_phase(Phase::Schedule, 629_375, 506);
        phases.set_phase(Phase::DynLoop, 1_234_567, 4_321);
        let mut p = Object::new();
        p.push_str("policy", "dynamic");
        p.push_f64_bits("throughput_jps", 0.1 + 0.2);
        p.push_u64("completed", u64::MAX);
        p.push_bool("feasible", true);
        p.push_map("phases", encode_profile(&phases));
        p
    }

    fn decode(_: &Object) -> Result<Self, String> {
        Ok(ProfiledOut)
    }
}

/// The manifest writer's bytes are pinned: a header, a done point
/// whose payload nests `phases`, and a failed point whose panic text
/// needs every kind of string escape.
#[test]
fn manifest_bytes_are_pinned() {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let manifest = temp_path("pinned");
    let _ = std::fs::remove_file(&manifest);
    let fps: Vec<String> = (0..2)
        .map(|i| Fingerprint::new("pinned").field_u64("i", i).finish())
        .collect();
    let opts = DurableOptions {
        manifest: Some(manifest.clone()),
        ..DurableOptions::default()
    };
    let result = run_durable("pinned", vec![false, true], fps, 1, &opts, |&panics| {
        if panics {
            panic!("quote \" backslash \\ tab \t bell \u{7} end");
        }
        ProfiledOut
    });
    std::panic::set_hook(hook);
    assert!(
        matches!(result, Err(DurableError::PointsFailed { .. })),
        "{result:?}"
    );
    let text = std::fs::read_to_string(&manifest).unwrap();
    let _ = std::fs::remove_file(&manifest);
    assert!(text.contains(r#""error":"quote \" backslash \\ tab \t bell \u0007 end""#));
    // Every byte but three values, which become placeholders: the code
    // version (also hashed into `config`), `config` and the wall-clock
    // `wall_ms`.
    let header = parse_manifest_line(text.lines().next().unwrap()).unwrap();
    let text = text
        .replacen(header.str("version").unwrap(), "V", 1)
        .replacen(header.str("config").unwrap(), "C", 1);
    let (head, tail) = text.split_once("\"wall_ms\":").unwrap();
    let tail = tail.trim_start_matches(|c: char| c.is_ascii_digit());
    let digest = common::fnv1a(format!("{head}\"wall_ms\":0{tail}").bytes());
    assert_eq!(
        digest, 0x1376_0244_3bab_1cb7,
        "manifest drifted ({digest:#x}):\n{text}"
    );
}

/// Decode a `u64` draw into a short string over an alphabet that
/// includes the fingerprint encoding's own separator and escape
/// characters — the adversarial inputs for injectivity.
fn draw_string(mut seed: u64) -> String {
    const ALPHABET: [char; 6] = ['a', 'b', ';', '=', '\\', 'z'];
    let len = (seed % 9) as usize; // 0..=8
    seed /= 9;
    (0..len)
        .map(|_| {
            let c = ALPHABET[(seed % ALPHABET.len() as u64) as usize];
            seed /= ALPHABET.len() as u64;
            c
        })
        .collect()
}

proptest! {
    /// Fingerprints are injective over their field tuples: two point
    /// descriptions collide only when they are the same description,
    /// even when values contain the encoding's own separators.
    #[test]
    fn fingerprint_injective_over_fields(
        a in prop::collection::vec(0u64..u64::MAX, 1..4),
        b in prop::collection::vec(0u64..u64::MAX, 1..4),
    ) {
        let a: Vec<String> = a.into_iter().map(draw_string).collect();
        let b: Vec<String> = b.into_iter().map(draw_string).collect();
        let build = |vals: &[String]| {
            let mut f = Fingerprint::new("prop");
            for (i, v) in vals.iter().enumerate() {
                f = f.field(&format!("k{i}"), v);
            }
            f.finish()
        };
        let fa = build(&a);
        let fb = build(&b);
        prop_assert_eq!(fa == fb, a == b);
    }

    /// Fingerprints are pure functions of their inputs — rebuilt
    /// fingerprints and config digests never drift within a version.
    #[test]
    fn fingerprint_and_config_digest_are_stable(
        scale_draw in 0u64..u64::MAX,
        seed in 0u64..u64::MAX,
        over in -1.0e12f64..1.0e12,
    ) {
        let scale = draw_string(scale_draw);
        let build = || {
            Fingerprint::new("stable")
                .field("scale", &scale)
                .field_hex("seed", seed)
                .field_bits("over", over)
                .finish()
        };
        let fp = build();
        prop_assert_eq!(build(), fp.clone());
        let cfg = config_fingerprint("run", std::slice::from_ref(&fp));
        prop_assert_eq!(config_fingerprint("run", std::slice::from_ref(&fp)), cfg.clone());
        prop_assert_eq!(cfg.len(), 16); // 16-hex digest
        // Order and membership matter.
        let other = Fingerprint::new("stable").field("scale", "x").finish();
        if other != fp {
            let ab = config_fingerprint("run", &[other.clone(), fp.clone()]);
            let ba = config_fingerprint("run", &[fp, other]);
            prop_assert!(ab != ba, "order-insensitive digest: {} == {}", ab, ba);
        }
    }
}
