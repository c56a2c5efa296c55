//! Runs the benchmark binary at smoke size and checks its output: every
//! metric `BENCHMARK.json` names is printed with its unit, no run fails
//! a check, simulated results repeat exactly across invocations, and
//! the last line is the one-line JSON result.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use json::Json;
use std::process::Command;

const WORKLOADS: [&str; 4] = [
    "paper-leg",
    "tight-static",
    "dynloop-steady",
    "faults-racked",
];

fn bench(args: &[&str]) -> (String, i32) {
    let out = Command::new(env!("CARGO_BIN_EXE_dmhpc-bench"))
        .args(args)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    (stdout, out.status.code().unwrap_or(-1))
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.field(list)
        .and_then(Json::arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                m.field("name")
                    .and_then(Json::str)
                    .expect("name")
                    .to_string(),
                m.field("unit")
                    .and_then(Json::str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect()
}

/// The table section of one workload in the human output.
fn section<'a>(stdout: &'a str, workload: &str) -> &'a str {
    let head = format!("== {workload}:");
    let start = stdout
        .find(&head)
        .unwrap_or_else(|| panic!("no table for {workload}"));
    let rest = &stdout[start + head.len()..];
    &rest[..rest.find("\n== ").unwrap_or(rest.len())]
}

#[test]
fn smoke_run_prints_every_metric_and_repeats_exactly() {
    let dir = env!("CARGO_TARGET_TMPDIR");
    let (a_json, b_json) = (format!("{dir}/smoke_a.json"), format!("{dir}/smoke_b.json"));
    let spans = format!("{dir}/smoke_spans.jsonl");
    let (a, code_a) = bench(&[
        "--smoke",
        "--reps",
        "2",
        "--json",
        &a_json,
        "--trace-out",
        &spans,
    ]);
    let (b, code_b) = bench(&["--smoke", "--reps", "2", "--json", &b_json]);
    assert_eq!((code_a, code_b), (0, 0), "{a}\n{b}");

    let metrics: Vec<(String, String)> = declared("end_to_end")
        .into_iter()
        .chain(declared("per_layer"))
        .collect();
    for w in WORKLOADS {
        let (sa, sb) = (section(&a, w), section(&b, w));
        assert!(sa.contains(" 0 failed (ops_failed_frac 0)"), "{w}: {sa}");
        for (name, unit) in &metrics {
            let printed = sa.lines().any(|l| {
                let mut tokens = l.split_whitespace();
                tokens.next() == Some(name) && tokens.next() == Some(unit)
            });
            assert!(printed, "{w}: {name} [{unit}] not printed");
        }
        // Simulated results, and the digest over every outcome, must
        // not depend on the invocation.
        let sim = |s: &str| -> Vec<String> {
            s.lines()
                .filter(|l| l.trim_start().starts_with("sim_"))
                .map(str::to_string)
                .collect()
        };
        assert_eq!(sim(sa), sim(sb), "{w}");
        assert_eq!(sa.lines().next(), sb.lines().next(), "{w}: digest differs");
    }

    let span_lines: Vec<Json> = std::fs::read_to_string(&spans)
        .expect("span file written")
        .lines()
        .map(|l| Json::parse(l).expect("span line parses"))
        .collect();
    for w in WORKLOADS {
        for name in ["build", "aggregate", "micro sched.pass"] {
            assert!(
                span_lines
                    .iter()
                    .any(|s| s.get("workload") == Some(&Json::Str(w.into()))
                        && s.get("name") == Some(&Json::Str(name.into()))),
                "{w}: no '{name}' span"
            );
        }
    }

    let (cmp, _) = bench(&["--compare", &a_json, &b_json]);
    for w in WORKLOADS {
        for (name, _) in declared("end_to_end") {
            let row = cmp
                .lines()
                .find(|l| l.starts_with(&format!("| {w} | {name} |")))
                .unwrap_or_else(|| panic!("no compare row for {w} {name}:\n{cmp}"));
            if name.starts_with("sim_") {
                assert!(row.ends_with("| within bound |"), "{row}");
            }
        }
    }
}

#[test]
fn single_workload_ends_with_the_result_line() {
    let (out, code) = bench(&[
        "--workload",
        "tight-static",
        "--smoke",
        "--seconds",
        "0.2",
        "--trace",
        "0",
    ]);
    assert_eq!(code, 0, "{out}");
    let last = Json::parse(out.lines().last().expect("output")).expect("last line is JSON");
    let Json::Obj(members) = &last else {
        panic!("last line is not an object: {last:?}");
    };
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(last.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(last.get("failed"), Some(&Json::Num(0.0)));
    let metrics = last.field("metrics").expect("metrics");
    for (name, unit) in declared("end_to_end") {
        let m = metrics.field(&name).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(m.field("unit").and_then(Json::str), Ok(unit.as_str()));
        assert!(
            m.field("value").and_then(Json::num).expect("value") > 0.0,
            "{name} is 0"
        );
    }
}

#[test]
fn bad_arguments_exit_with_usage_and_no_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--reps", "0"],
        &["--trace", "2"],
        &["--reps", "2", "--seconds", "1"],
    ] {
        let (out, code) = bench(args);
        assert_eq!(code, 2, "{args:?}");
        assert!(out.is_empty(), "{args:?} printed {out}");
    }
}
