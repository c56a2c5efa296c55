//! The `dmhpc` argument grammar: positional command, the common
//! `--scale/--threads/--csv` trio, and a `--key value` map for
//! everything subcommand-specific, holding only keys the command reads.

use crate::scale::Scale;

use super::opts::OptMap;

/// Parsed command line of one `dmhpc` invocation.
pub struct Args {
    /// The subcommand (`fig5`, `fault-sweep`, `chart`, …).
    pub command: String,
    /// Problem scale every experiment accepts.
    pub scale: Scale,
    /// Worker threads for the sweep runners (0 = all cores).
    pub threads: usize,
    /// Emit CSV instead of rendered tables.
    pub csv: bool,
    /// The command's own `--key value` options (valueless flags map to
    /// `"1"`).
    pub opts: OptMap,
}

/// Flags that take no value; each records its presence in the option
/// map.
const VALUELESS: [&str; 4] = ["summary", "telemetry", "quiet", "progress"];

/// The `--key value` options `command` reads, besides `--quiet` and
/// `--progress` (every command) and the `--scale/--threads/--csv` trio
/// (parsed into [`Args`]); `None` for an unknown command, which the
/// dispatcher rejects by name.
fn command_keys(command: &str) -> Option<&'static [&'static str]> {
    Some(match command {
        "table1" | "table2" | "table3" | "table4" | "fig2" | "fig4" | "fig6" | "fig7" | "fig9"
        | "ablate" | "validate" | "policies" | "topologies" | "help" | "--help" | "-h" => &[],
        "fig5" | "fig8" | "all" => &["policies", "topology", "manifest", "resume", "point-limit"],
        "chart" => &[
            "large",
            "over",
            "width",
            "policies",
            "topology",
            "manifest",
            "resume",
            "point-limit",
        ],
        "fault-sweep" => &[
            "fault-seed",
            "fault-profile",
            "policies",
            "topology",
            "telemetry",
            "sample-interval",
            "manifest",
            "resume",
            "point-limit",
        ],
        "export" => &["out", "jobs", "large", "over", "seed"],
        "simulate" => &[
            "swf",
            "usage",
            "policy",
            "nodes",
            "large-nodes",
            "telemetry",
            "sample-interval",
        ],
        "trace-run" => &[
            "check",
            "policy",
            "seed",
            "fault-profile",
            "fault-seed",
            "summary",
            "diff",
            "filter",
            "from",
            "to",
            "out",
            "telemetry",
            "sample-interval",
        ],
        "report" => &[
            "policy",
            "seed",
            "fault-profile",
            "fault-seed",
            "sample-interval",
            "format",
            "out",
        ],
        "sweep-status" => &["manifest"],
        _ => return None,
    })
}

/// Reject `--key` unless `command` reads it: a typo or a removed option
/// must fail instead of being silently ignored.
fn check_key(command: &str, key: &str) -> Result<(), String> {
    let Some(keys) = command_keys(command) else {
        return Ok(());
    };
    if key == "quiet" || key == "progress" || keys.contains(&key) {
        return Ok(());
    }
    let accepted: Vec<String> = ["scale", "threads", "csv", "quiet", "progress"]
        .iter()
        .chain(keys)
        .map(|k| format!("--{k}"))
        .collect();
    Err(format!(
        "{command}: unknown option --{key} (accepted: {})",
        accepted.join(", ")
    ))
}

/// Parse an argument iterator (everything after the program name).
///
/// # Errors
/// Returns the usage string when no command is given, and a targeted
/// message (with usage appended) for malformed flags. An option the
/// command does not read is an error naming the options it does.
pub fn parse_args_from(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let command = args.next().ok_or_else(usage)?;
    let mut scale = Scale::Medium;
    let mut threads = 0usize;
    let mut csv = false;
    let mut opts = OptMap::new();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                let v = args.next().ok_or("--scale needs a value")?;
                scale = Scale::parse(&v)?;
            }
            "--threads" => {
                let v = args.next().ok_or("--threads needs a value")?;
                threads = v.parse().map_err(|e| format!("--threads: {e}"))?;
            }
            "--csv" => csv = true,
            flag if flag.starts_with("--") => {
                let key = &flag[2..];
                check_key(&command, key)?;
                let v = if VALUELESS.contains(&key) {
                    "1".to_string()
                } else {
                    args.next().ok_or_else(|| format!("{flag} needs a value"))?
                };
                opts.insert(key.to_string(), v);
            }
            // `sweep-status <manifest>` takes its path positionally.
            other if command == "sweep-status" && !opts.contains_key("manifest") => {
                opts.insert("manifest".to_string(), other.to_string());
            }
            other => return Err(format!("unknown argument '{other}'\n{}", usage())),
        }
    }
    Ok(Args {
        command,
        scale,
        threads,
        csv,
        opts,
    })
}

/// The usage text shown by `dmhpc help` and on argument errors.
pub fn usage() -> String {
    "usage: dmhpc <command> [--scale small|medium|full|huge] [--threads N] [--csv]\n\
     \x20               [--quiet | --progress]\n\
     commands:\n\
     \x20 table1 table2 table3 table4            regenerate the paper's tables\n\
     \x20 fig2 fig4 fig5 fig6 fig7 fig8 fig9     regenerate the paper's figures\n\
     \x20 ablate                                 design-choice ablations\n\
     \x20 fault-sweep [--fault-seed S] [--fault-profile none|light|heavy] [--policies SPECS]\n\
     \x20                                        resilience under injected faults\n\
     \x20 validate                               PASS/FAIL the headline claims\n\
     \x20 all                                    everything above\n\
     \x20 policies                               list the policy registry (specs & defaults)\n\
     \x20 topologies                             list the topology registry (specs & defaults)\n\
     \x20 export  --out DIR [--jobs N] [--large F] [--over O] [--seed S]\n\
     \x20                                        write workload.swf + usage.txt\n\
     \x20 simulate --swf FILE [--usage FILE] [--policy P] [--nodes N] [--large-nodes F]\n\
     \x20                                        run an SWF trace through the simulator\n\
     \x20 chart   [--large F] [--over O] [--width N] [--policies SPECS]\n\
     \x20                                        ASCII throughput panel for one sweep leg\n\
     \x20 trace-run [--policy P] [--seed S] [--fault-profile none|light|heavy] [--fault-seed S]\n\
     \x20           [--out FILE] [--filter kind=K1,K2] [--from S] [--to S] [--summary]\n\
     \x20           [--diff A,B] [--check FILE]\n\
     \x20                                        dump one run's event trace as JSONL;\n\
     \x20                                        --diff reports the first event where two\n\
     \x20                                        sim seeds part, --check validates a file\n\
     \x20 sweep-status <manifest>                inspect a durable-sweep journal: header,\n\
     \x20                                        completed/failed/pending counts, per-point\n\
     \x20                                        wall time and failure reasons,\n\
     \x20                                        plus a phase-time breakdown when points\n\
     \x20                                        were profiled with --telemetry\n\
     \x20 report  [--policy P] [--seed S] [--fault-profile none|light|heavy] [--fault-seed S]\n\
     \x20         [--sample-interval S] [--format table|prom|csv|jsonl] [--out FILE]\n\
     \x20                                        run the stress scenario under telemetry and\n\
     \x20                                        render gauge sparklines + the phase profile,\n\
     \x20                                        or export the sampled series (Prometheus\n\
     \x20                                        text, CSV, or JSONL)\n\
     \x20 help                                   show this message\n\
     \n\
     simulate, trace-run and fault-sweep accept --telemetry\n\
     [--sample-interval S] to sample gauge series (sim time, default 60 s)\n\
     and profile simulator phases (wall clock); off by default and\n\
     bit-inert on every simulated outcome\n\
     \n\
     --quiet forces the stderr progress line off; --progress forces it on\n\
     even when stderr is not a terminal\n\
     \n\
     fig5 and fig8 also accept --policies SPECS, a comma-separated list of\n\
     policy specs like 'baseline,dynamic,overcommit:factor=0.8' (see\n\
     `dmhpc policies` for the registry; defaults to every policy)\n\
     \n\
     fig5, fig8, chart and fault-sweep accept --topology SPECS,\n\
     a comma-separated list of topology specs like 'flat,racks:size=16'\n\
     (see `dmhpc topologies` for the registry; defaults to flat)\n\
     \n\
     fig5, fig8, chart and fault-sweep run through the durable\n\
     execution layer and accept:\n\
     \x20 --manifest PATH    journal each point to PATH as it completes\n\
     \x20 --resume PATH      skip points already journaled in PATH, append new ones\n\
     \x20 --point-limit K    stop draining after K points (deterministic Ctrl-C\n\
     \x20                    stand-in for tests; exits 75 like an interrupt)\n\
     Ctrl-C finishes in-flight points, flushes the manifest, and exits 75;\n\
     a second Ctrl-C aborts immediately (exit 130)"
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Args, String> {
        parse_args_from(argv.iter().map(|s| s.to_string()))
    }

    #[test]
    fn freeform_flags_collect_into_opts() {
        let args = parse(&[
            "simulate", "--swf", "w.swf", "--policy", "static", "--scale", "small", "--csv",
        ])
        .unwrap();
        assert_eq!(args.command, "simulate");
        assert!(args.csv);
        assert_eq!(args.opts.get("swf").unwrap(), "w.swf");
        assert_eq!(args.opts.get("policy").unwrap(), "static");
        // Flags needing values fail loudly when the value is missing.
        assert!(parse(&["simulate", "--swf"]).is_err());
        assert!(parse(&["table1", "stray"]).is_err());
    }

    #[test]
    fn sweep_status_takes_its_manifest_positionally() {
        let args = parse(&["sweep-status", "/tmp/run.jsonl"]).unwrap();
        assert_eq!(args.command, "sweep-status");
        assert_eq!(args.opts.get("manifest").unwrap(), "/tmp/run.jsonl");
        // --manifest still works, and a second positional is an error.
        let args = parse(&["sweep-status", "--manifest", "/tmp/run.jsonl"]).unwrap();
        assert_eq!(args.opts.get("manifest").unwrap(), "/tmp/run.jsonl");
        assert!(parse(&["sweep-status", "/tmp/a.jsonl", "/tmp/b.jsonl"]).is_err());
        // Other commands keep rejecting positionals.
        assert!(parse(&["fig5", "/tmp/run.jsonl"]).is_err());
    }

    #[test]
    fn usage_lists_every_subcommand() {
        let u = usage();
        for cmd in [
            "table1",
            "table2",
            "table3",
            "table4",
            "fig2",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "ablate",
            "fault-sweep",
            "validate",
            "all",
            "policies",
            "topologies",
            "export",
            "simulate",
            "chart",
            "trace-run",
            "sweep-status",
            "report",
            "help",
        ] {
            assert!(u.contains(cmd), "usage() is missing '{cmd}'");
        }
        // Every option some command accepts is documented.
        for cmd in [
            "fig5",
            "chart",
            "fault-sweep",
            "export",
            "simulate",
            "trace-run",
            "report",
        ] {
            for key in command_keys(cmd).unwrap() {
                assert!(
                    u.contains(&format!("--{key}")),
                    "usage() is missing '--{key}'"
                );
            }
        }
        // The durable-execution, topology and telemetry flags are
        // documented too.
        for flag in [
            "--manifest",
            "--resume",
            "--point-limit",
            "--topology",
            "--telemetry",
            "--sample-interval",
            "--quiet",
            "--progress",
        ] {
            assert!(u.contains(flag), "usage() is missing '{flag}'");
        }
    }

    #[test]
    fn options_a_command_does_not_read_are_rejected() {
        // A typo is an error naming the key and what the command takes.
        let err = parse(&["topologies", "--retries", "2", "--threds", "4"])
            .err()
            .unwrap();
        assert!(err.contains("unknown option --retries"), "{err}");
        assert!(
            err.contains("--threads") && err.contains("--progress"),
            "{err}"
        );
        let err = parse(&["export", "--out", "d", "--job", "80"])
            .err()
            .unwrap();
        assert!(err.contains("unknown option --job"), "{err}");
        for key in ["--out", "--jobs", "--large", "--over", "--seed"] {
            assert!(err.contains(key), "export's list lacks {key}: {err}");
        }
        // An option another command reads is still foreign here, even
        // a valueless one.
        assert!(parse(&["fig5", "--swf", "w.swf"]).is_err());
        assert!(parse(&["fig5", "--telemetry"]).is_err());
        assert!(parse(&["report", "--summary"]).is_err());
        // Every command takes the global flags and its own options.
        for argv in [
            &[
                "topologies",
                "--scale",
                "small",
                "--threads",
                "2",
                "--csv",
                "--quiet",
            ][..],
            &["chart", "--large", "0.5", "--over", "0.6", "--width", "20"],
            &[
                "fault-sweep",
                "--fault-profile",
                "light",
                "--point-limit",
                "3",
            ],
            &["simulate", "--swf", "w.swf", "--large-nodes", "0.25"],
            &["trace-run", "--diff", "17,18", "--summary", "--progress"],
            &["report", "--format", "csv", "--out", "r.csv"],
            &["sweep-status", "--manifest", "m.jsonl"],
        ] {
            parse(argv).unwrap();
        }
    }

    #[test]
    fn telemetry_and_progress_flags_are_valueless() {
        let args = parse(&[
            "fault-sweep",
            "--telemetry",
            "--sample-interval",
            "30",
            "--quiet",
        ])
        .unwrap();
        assert!(args.opts.contains_key("telemetry"));
        assert!(args.opts.contains_key("quiet"));
        assert_eq!(args.opts.get("sample-interval").unwrap(), "30");
        let args = parse(&["fig5", "--progress"]).unwrap();
        assert!(args.opts.contains_key("progress"));
    }
}
