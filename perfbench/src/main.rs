//! `dmhpc-bench`: the simulator's end-to-end and per-layer benchmark.
//!
//! Runs named workloads through the public API, prints every metric by
//! name with its unit, checks that every outcome is correct and
//! reproducible, and ends its standard output with a one-line JSON
//! result. See `README.md` in this directory.

mod bench;
mod calibrate;
mod check;
mod json;
mod layers;
mod report;
mod workloads;

use bench::{Budget, Options};
use json::Json;
use report::Report;
use std::process::{Command, ExitCode, Stdio};
use workloads::Kind;

const USAGE: &str = "usage:
  dmhpc-bench [--workload NAME|all] [--seed S] [--reps N | --seconds S] [--trace 0|1]
              [--json FILE] [--trace-out FILE] [--smoke]
  dmhpc-bench --compare A.json B.json

  --workload   paper-leg, tight-static, dynloop-steady, faults-racked, or all (default)
  --seed       workload seed; every input and simulation seed derives from it (default 1)
  --reps       timed passes per workload (default 5)
  --seconds    time budget instead of --reps: passes until another would overrun it, at least 2
  --trace      1 (default) adds the traced pass and the per-layer metrics
  --json       write every report, with all samples, to FILE
  --trace-out  write the traced pass's spans to FILE as JSONL
  --smoke      tiny inputs, for tests
  --compare    compare two --json files metric by metric";

struct Args {
    /// `None` runs every workload.
    workload: Option<Kind>,
    opts: Options,
    json: Option<String>,
    trace_out: Option<String>,
    compare: Option<(String, String)>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        opts: Options {
            seed: check::DEFAULT_SEED,
            smoke: false,
            budget: Budget::Reps(5),
            traced: true,
        },
        json: None,
        trace_out: None,
        compare: None,
    };
    let mut budget_set = false;
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload = if name == "all" {
                    None
                } else {
                    Some(Kind::parse(&name)?)
                };
            }
            "--seed" => {
                args.opts.seed = value("a seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--reps" | "--seconds" => {
                if budget_set {
                    return Err("give --reps or --seconds, not both".to_string());
                }
                budget_set = true;
                let v = value("a number")?;
                args.opts.budget = if flag == "--reps" {
                    match v.parse() {
                        Ok(n) if n >= 1 => Budget::Reps(n),
                        _ => {
                            return Err(format!(
                                "--reps needs a whole number of at least 1, got '{v}'"
                            ))
                        }
                    }
                } else {
                    match v.parse::<f64>() {
                        Ok(s) if s > 0.0 && s.is_finite() => Budget::Seconds(s),
                        _ => return Err(format!("--seconds needs a positive number, got '{v}'")),
                    }
                };
            }
            "--trace" => {
                args.opts.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace needs 0 or 1, got '{other}'")),
                }
            }
            "--json" => args.json = Some(value("a file")?),
            "--trace-out" => args.trace_out = Some(value("a file")?),
            "--smoke" => args.opts.smoke = true,
            "--compare" => args.compare = Some((value("two files")?, value("two files")?)),
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

/// Run every workload, each in a child process of this binary, so each
/// one's set-up time and peak memory are its own.
fn run_all(opts: &Options) -> Result<Vec<Report>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this program: {e}"))?;
    let mut reports = Vec::new();
    for kind in Kind::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", kind.name(), "--seed", &opts.seed.to_string()]);
        cmd.args([
            "--trace",
            if opts.traced { "1" } else { "0" },
            "--json",
            "-",
        ]);
        match opts.budget {
            Budget::Reps(n) => cmd.args(["--reps", &n.to_string()]),
            Budget::Seconds(s) => cmd.args(["--seconds", &s.to_string()]),
        };
        if opts.smoke {
            cmd.arg("--smoke");
        }
        let out = cmd
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run {}: {e}", kind.name()))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout
            .lines()
            .last()
            .ok_or_else(|| format!("{} printed no report ({})", kind.name(), out.status))?;
        reports.push(
            Report::from_json(&Json::parse(line)?).map_err(|e| format!("{}: {e}", kind.name()))?,
        );
    }
    Ok(reports)
}

fn write(path: &str, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
}

fn execute(args: Args) -> Result<ExitCode, String> {
    if let Some((a, b)) = &args.compare {
        let read = |p: &str| {
            std::fs::read_to_string(p)
                .map_err(|e| format!("cannot read {p}: {e}"))
                .and_then(|t| report::parse_results(&t).map_err(|e| format!("{p}: {e}")))
        };
        let (table, any_worse) = report::compare(&read(a)?, &read(b)?);
        print!("{table}");
        return Ok(if any_worse {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        });
    }

    let opts = args.opts;
    let reports = match args.workload {
        Some(kind) => vec![bench::run(kind, &opts)],
        None => run_all(&opts)?,
    };
    let code = if reports.iter().all(Report::correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    };
    if args.json.as_deref() == Some("-") {
        // Child mode: the full report is the whole output.
        for r in &reports {
            println!("{}", r.to_json());
        }
        return Ok(code);
    }
    for r in &reports {
        println!("{}", report::table(r));
    }
    if let Some(path) = &args.json {
        write(path, &report::results_json(opts.seed, opts.smoke, &reports))?;
    }
    if let Some(path) = &args.trace_out {
        let lines: String = reports
            .iter()
            .flat_map(|r| &r.spans)
            .map(|s| report::span_json(s) + "\n")
            .collect();
        write(path, &lines)?;
    }
    println!("{}", report::result_line(&reports, opts.traced));
    Ok(code)
}

fn main() -> ExitCode {
    match parse_args(std::env::args().skip(1)).and_then(execute) {
        Ok(code) => code,
        Err(e) => {
            if e.is_empty() {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("dmhpc-bench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
