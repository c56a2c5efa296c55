//! No-panic corpus for every parser of untrusted bytes: trace JSONL,
//! durable-manifest lines, SWF text (parsed, then imported with and
//! without a usage sidecar) and usage-trace files.
//!
//! Inputs are random bytes plus mutations of valid input: truncation,
//! an interior byte flip, a number replaced by a 20-digit integer or a
//! non-finite float, and deep object nesting. Every input must yield
//! `Ok` or `Err`; a panic (a debug-build overflow, a stack overflow)
//! fails the test. One test also puts every special token in place of
//! every number, so each field of each format is hit deterministically.

use dmhpc::core::config::SystemConfig;
use dmhpc::core::faults::FaultConfig;
use dmhpc::core::policy::PolicySpec;
use dmhpc::core::sim::SimBuilder;
use dmhpc::core::trace::{parse_jsonl, JsonlSink};
use dmhpc::experiments::durable::parse_manifest_line;
use dmhpc::traces::{swf, usagefile, workload_from_swf, ImportOptions, WorkloadBuilder};
use proptest::prelude::*;
use std::sync::OnceLock;

const SPECIAL_TOKENS: &[&str] = &[
    "99999999999999999999",
    "-99999999999999999999",
    "NaN",
    "inf",
    "-inf",
    "1e18",
    "-1e30",
    "1e400",
];

/// A journal header and a telemetry-profiled done point, as a
/// `fault-sweep --manifest` run writes them.
const MANIFEST: &str = r#"{"kind":"header","format":1,"run":"fault-sweep","version":"0.1.0","config":"0dfe840795bdaca5","points":6}
{"kind":"point","fp":"fault-point;scale=small;policy=baseline","status":"done","attempts":1,"wall_ms":8,"payload":{"policy":"baseline","throughput_jps":4557918173085079244,"completed":225,"note":"a\tb \"q\" \u0001","phases":{"schedule_ns":629375,"schedule_calls":506}}}"#;

/// Valid input for each parser: `[trace, manifest, swf, usage]`.
fn corpus() -> &'static [String; 4] {
    static CORPUS: OnceLock<[String; 4]> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let system = SystemConfig::with_nodes(8)
            .with_faults(FaultConfig::profile("heavy").unwrap().with_seed(3));
        let build = |seed| {
            WorkloadBuilder::new(seed)
                .jobs(8)
                .max_job_nodes(4)
                .overestimation(0.6)
                .build_for(&system)
        };
        let (sink, buf) = JsonlSink::buffered();
        SimBuilder::new(system.clone(), build(5))
            .policy(PolicySpec::Dynamic)
            .trace_sink(Box::new(sink))
            .run();
        let trace: Vec<_> = buf.contents().lines().take(60).map(String::from).collect();
        let workload = build(9);
        let records: Vec<_> = workload
            .jobs
            .iter()
            .map(|j| swf::from_job(j, system.cores_per_node))
            .collect();
        let usage = usagefile::write(&usagefile::from_workload(&workload));
        assert!(trace.iter().all(|l| parse_jsonl(l).is_ok()));
        assert!(MANIFEST.lines().all(|l| parse_manifest_line(l).is_ok()));
        let swf_text = swf::write(&records, "robustness corpus");
        let sidecar = usagefile::parse(&usage).unwrap();
        let imported = swf::parse(&swf_text)
            .and_then(|r| workload_from_swf(&r, Some(&sidecar), &ImportOptions::default()));
        assert_eq!(imported.unwrap().len(), workload.len());
        [trace.join("\n"), MANIFEST.to_string(), swf_text, usage]
    })
}

/// Run parser `which` (a `corpus()` index) over `text`.
fn parse(which: usize, text: &str) {
    match which {
        0 => text.lines().for_each(|l| drop(parse_jsonl(l))),
        1 => text.lines().for_each(|l| drop(parse_manifest_line(l))),
        2 => {
            let Ok(records) = swf::parse(text) else {
                return;
            };
            let sidecar = usagefile::parse(&corpus()[3]).unwrap();
            let every_status = ImportOptions {
                completed_only: false,
                ..ImportOptions::default()
            };
            let _ = workload_from_swf(&records, None, &ImportOptions::default());
            let _ = workload_from_swf(&records, Some(&sidecar), &every_status);
        }
        _ => drop(usagefile::parse(text)),
    }
}

/// Byte spans of the numbers in `text`: maximal runs of digits, signs,
/// points and exponents that hold at least one digit.
fn number_spans(text: &str) -> Vec<(usize, usize)> {
    let numeric = |c: &u8| c.is_ascii_digit() || b"-+.eE".contains(c);
    let b = text.as_bytes();
    let (mut spans, mut i) = (Vec::new(), 0);
    while i < b.len() {
        let start = i;
        while i < b.len() && numeric(&b[i]) {
            i += 1;
        }
        if b[start..i].iter().any(u8::is_ascii_digit) {
            spans.push((start, i));
        }
        i = i.max(start + 1);
    }
    spans
}

fn substitute(text: &str, (start, end): (usize, usize), token: &str) -> String {
    format!("{}{token}{}", &text[..start], &text[end..])
}

/// Mutation `op` of `valid`; `a` and `b` pick the position and value.
fn mutate(valid: &str, op: u64, a: u64, b: u64) -> String {
    let mut bytes = valid.as_bytes().to_vec();
    let at = (a % bytes.len() as u64) as usize;
    match op {
        0 => bytes.truncate(at),
        1 => bytes[at] ^= (b as u8) | 1,
        2 => {
            let spans = number_spans(valid);
            let span = spans[(a % spans.len() as u64) as usize];
            let token = SPECIAL_TOKENS[(b % SPECIAL_TOKENS.len() as u64) as usize];
            return substitute(valid, span, token);
        }
        _ => {
            let first = valid.lines().next().unwrap();
            return "{\"a\":".repeat(100_000) + first + &"}".repeat(100_000);
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

proptest! {
    #[test]
    fn parsers_never_panic(
        noise in prop::collection::vec(0u16..256, 0..200),
        op in 0u64..4,
        a in 0u64..u64::MAX,
        b in 0u64..u64::MAX,
    ) {
        let noise: Vec<u8> = noise.iter().map(|&v| v as u8).collect();
        for (which, valid) in corpus().iter().enumerate() {
            parse(which, &String::from_utf8_lossy(&noise));
            parse(which, &mutate(valid, op, a, b));
        }
    }
}

#[test]
fn every_number_replaced_by_every_special_token() {
    for (which, valid) in corpus().iter().enumerate() {
        for span in number_spans(valid) {
            for token in SPECIAL_TOKENS {
                parse(which, &substitute(valid, span, token));
            }
        }
    }
}
