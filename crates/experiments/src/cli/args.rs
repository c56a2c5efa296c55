//! The `dmhpc` argument grammar: positional command, the common
//! `--scale/--threads/--csv` trio, and a free-form `--key value` map
//! for everything subcommand-specific.

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
    /// Free-form `--key value` options for export/simulate.
    pub opts: OptMap,
}

/// Parse an argument iterator (everything after the program name).
///
/// # Errors
/// Returns the usage string when no command is given, and a targeted
/// message (with usage appended) for malformed flags.
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
            // Valueless flags: record presence in opts.
            "--summary" => {
                opts.insert("summary".to_string(), "1".to_string());
            }
            "--telemetry" => {
                opts.insert("telemetry".to_string(), "1".to_string());
            }
            "--quiet" => {
                opts.insert("quiet".to_string(), "1".to_string());
            }
            "--progress" => {
                opts.insert("progress".to_string(), "1".to_string());
            }
            flag if flag.starts_with("--") => {
                let v = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
                opts.insert(flag[2..].to_string(), v);
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
     \x20           [--diff A,B] [--check FILE] [--sample-s S]\n\
     \x20                                        dump one run's event trace as JSONL;\n\
     \x20                                        --diff reports the first event where two\n\
     \x20                                        sim seeds part, --check validates a file\n\
     \x20 sweep-status <manifest>                inspect a durable-sweep journal: header,\n\
     \x20                                        completed/failed/pending counts, per-point\n\
     \x20                                        attempts, wall time and failure reasons,\n\
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
     \x20 --retries N        extra attempts for a panicking point (default 1)\n\
     \x20 --backoff-ms MS    base retry backoff, doubled per attempt (default 250)\n\
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
        // The durable-execution, topology and telemetry flags are
        // documented too.
        for flag in [
            "--manifest",
            "--resume",
            "--retries",
            "--backoff-ms",
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
