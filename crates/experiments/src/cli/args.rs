//! The `dmhpc` argument grammar: positional command, the common
//! `--scale/--threads/--csv` trio, and a `--key value` map for
//! everything subcommand-specific, holding only keys the command's
//! [`Command`] row lists.

use crate::scale::Scale;

use super::commands::{command, Command, COMMANDS};
use super::opts::OptMap;

/// Parsed command line of one `dmhpc` invocation.
#[derive(Debug)]
pub struct Args {
    /// The subcommand's row in the command table.
    pub command: &'static Command,
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

/// Options every command takes besides the ones its row lists.
const GLOBAL: [&str; 5] = ["scale", "threads", "csv", "quiet", "progress"];

/// Reject `--key` unless `command` reads it: a typo or a removed option
/// must fail instead of being silently ignored.
fn check_key(command: &Command, key: &str) -> Result<(), String> {
    if GLOBAL.contains(&key) || command.keys().any(|k| k == key) {
        return Ok(());
    }
    let accepted: Vec<String> = GLOBAL
        .into_iter()
        .chain(command.keys())
        .map(|k| format!("--{k}"))
        .collect();
    Err(format!(
        "{}: unknown option --{key} (accepted: {})",
        command.name,
        accepted.join(", ")
    ))
}

/// Parse an argument iterator (everything after the program name).
///
/// # Errors
/// Returns the usage string when no command is given, and a targeted
/// message (with usage appended) for an unknown command or a malformed
/// flag. An option the command does not read is an error naming the
/// options it does.
pub fn parse_args_from(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let name = args.next().ok_or_else(usage)?;
    let command = command(&name).ok_or_else(|| format!("unknown command '{name}'\n{}", usage()))?;
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
                check_key(command, key)?;
                let v = if VALUELESS.contains(&key) {
                    "1".to_string()
                } else {
                    args.next().ok_or_else(|| format!("{flag} needs a value"))?
                };
                opts.insert(key.to_string(), v);
            }
            // `sweep-status [--manifest] PATH` takes its path positionally.
            other if command.name == "sweep-status" && !opts.contains_key("manifest") => {
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

/// The column where a command's description starts in [`usage`].
const ABOUT_COLUMN: usize = 41;

/// The usage text shown by `dmhpc help` and on argument errors: the
/// command section renders one [`Command`] row each.
pub fn usage() -> String {
    let mut u = String::from(
        "usage: dmhpc <command> [--scale small|medium|full|huge] [--threads N] [--csv]\n\
         \x20               [--quiet | --progress]\n\
         commands:\n",
    );
    for c in &COMMANDS {
        let indent = " ".repeat(c.name.len() + 3);
        let mut lines = vec![format!("  {}", c.name)];
        for (i, part) in c.synopsis.lines().enumerate() {
            if i == 0 {
                lines[0] = format!("  {} {part}", c.name);
            } else {
                lines.push(format!("{indent}{part}"));
            }
        }
        for (i, about) in c.about.lines().enumerate() {
            let last = lines.last_mut().expect("a row renders its name");
            if i == 0 && last.len() < ABOUT_COLUMN {
                *last = format!("{last:ABOUT_COLUMN$}{about}");
            } else {
                lines.push(format!("{:ABOUT_COLUMN$}{about}", ""));
            }
        }
        for line in lines {
            u.push_str(&line);
            u.push('\n');
        }
    }
    u.push_str(
        "\n\
         --policies SPECS is a comma-separated list of policy specs like\n\
         'baseline,dynamic,overcommit:factor=0.8' (see `dmhpc policies` for the\n\
         registry; defaults to every policy, baseline always included);\n\
         --policy P names one spec (default dynamic)\n\
         \n\
         --topology SPECS is a comma-separated list of topology specs like\n\
         'flat,racks:size=16' (see `dmhpc topologies` for the registry;\n\
         defaults to flat)\n\
         \n\
         --telemetry [--sample-interval S] samples gauge series (sim time,\n\
         default 60 s) and profiles simulator phases (wall clock); off by\n\
         default and bit-inert on every simulated outcome\n\
         \n\
         --quiet forces the stderr progress line off; --progress forces it on\n\
         even when stderr is not a terminal\n\
         \n\
         durable sweeps:\n\
         \x20 --manifest PATH    journal each point to PATH as it completes\n\
         \x20 --resume PATH      skip points already journaled in PATH, append new ones\n\
         \x20 --point-limit K    stop draining after K points (deterministic Ctrl-C\n\
         \x20                    stand-in for tests; exits 75 like an interrupt)\n\
         Ctrl-C finishes in-flight points, flushes the manifest, and exits 75;\n\
         a second Ctrl-C aborts immediately (exit 130)",
    );
    u
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
        assert_eq!(args.command.name, "simulate");
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
        assert_eq!(args.command.name, "sweep-status");
        assert_eq!(args.opts.get("manifest").unwrap(), "/tmp/run.jsonl");
        // --manifest still works, and a second positional is an error.
        let args = parse(&["sweep-status", "--manifest", "/tmp/run.jsonl"]).unwrap();
        assert_eq!(args.opts.get("manifest").unwrap(), "/tmp/run.jsonl");
        assert!(parse(&["sweep-status", "/tmp/a.jsonl", "/tmp/b.jsonl"]).is_err());
        // Other commands keep rejecting positionals.
        assert!(parse(&["fig5", "/tmp/run.jsonl"]).is_err());
    }

    #[test]
    fn usage_lists_every_command_and_the_keys_it_reads() {
        let u = usage();
        for c in &COMMANDS {
            let listed = u.lines().any(|l| l.split(' ').nth(2) == Some(c.name));
            assert!(listed, "usage() does not list '{}'", c.name);
        }
        for flag in ["--scale", "--threads", "--csv", "--quiet", "--progress"] {
            assert!(u.contains(flag), "usage() is missing '{flag}'");
        }
        // A command reads exactly the keys its synopsis names.
        let keys = |name| command(name).unwrap().keys().collect::<Vec<_>>();
        assert!(keys("table1").is_empty());
        assert_eq!(keys("all"), ["policies"]);
        assert_eq!(keys("sweep-status"), ["manifest"]);
        assert_eq!(
            keys("fault-sweep"),
            [
                "fault-seed",
                "fault-profile",
                "policies",
                "topology",
                "telemetry",
                "sample-interval",
                "manifest",
                "resume",
                "point-limit",
            ]
        );
        assert_eq!(
            keys("trace-run"),
            [
                "policy",
                "seed",
                "fault-profile",
                "fault-seed",
                "out",
                "filter",
                "from",
                "to",
                "summary",
                "diff",
                "check",
                "telemetry",
                "sample-interval",
            ]
        );
    }

    #[test]
    fn unknown_command_is_a_usage_error_listing_the_commands() {
        let err = parse(&["bogus", "--x", "1"]).err().unwrap();
        assert!(err.contains("unknown command 'bogus'"), "{err}");
        assert!(err.contains("trace-run"), "{err}");
        assert!(parse(&[]).is_err());
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
        // `all` reads only --policies: the durable and topology options
        // belong to the sweep commands.
        parse(&["all", "--policies", "dynamic"]).unwrap();
        for key in ["--topology", "--manifest", "--resume", "--point-limit"] {
            let err = parse(&["all", key, "x"]).err().unwrap();
            assert!(err.contains("all: unknown option"), "{key}: {err}");
        }
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
