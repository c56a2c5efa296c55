//! Typed readers over the free-form `--key value` option map: scalar
//! parsing with defaults, the policy and topology list flags, the
//! durable-execution options shared by the sweep commands, and
//! [`CommonRunOpts`] bundling the whole shared flag surface in one
//! read.

use crate::durable::{install_sigint_drain, DurableOptions, ResumeState};
use crate::runner::ProgressMode;
use dmhpc_core::cluster::TopologySpec;
use dmhpc_core::policy::PolicySpec;
use dmhpc_core::telemetry::TelemetrySpec;

/// The free-form option map [`parse_args_from`] collects.
///
/// [`parse_args_from`]: super::args::parse_args_from
pub type OptMap = std::collections::HashMap<String, String>;

/// Parse `opts[key]` as a `T`, falling back to `default` when the flag
/// is absent.
///
/// # Errors
/// Returns `--key: <parse error>` when the flag is present but
/// malformed — garbage is never a silent default.
pub fn opt_parse<T: std::str::FromStr>(opts: &OptMap, key: &str, default: T) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    match opts.get(key) {
        Some(v) => v.parse().map_err(|e| format!("--{key}: {e}")),
        None => Ok(default),
    }
}

/// Parse `--policies spec,spec,...` from the option map, defaulting to
/// every registered policy. The baseline policy is always included —
/// sweeps normalise against it.
///
/// # Errors
/// Returns `--policies: <error>` for unknown names or bad parameters
/// (the error lists the registry).
pub fn policies_from_opts(opts: &OptMap) -> Result<Vec<PolicySpec>, String> {
    match opts.get("policies") {
        Some(s) => {
            let mut list = PolicySpec::parse_list(s).map_err(|e| format!("--policies: {e}"))?;
            if !list.contains(&PolicySpec::Baseline) {
                list.insert(0, PolicySpec::Baseline);
            }
            Ok(list)
        }
        None => Ok(PolicySpec::all_default()),
    }
}

/// Parse `--topology spec,spec,...` from the option map, defaulting to
/// the flat topology (today's single-domain fabric) so every command
/// reproduces its pre-topology output bit for bit when the flag is
/// absent.
///
/// # Errors
/// Returns `--topology: <error>` for unknown names or bad parameters
/// (the error lists the registry).
pub fn topologies_from_opts(opts: &OptMap) -> Result<Vec<TopologySpec>, String> {
    match opts.get("topology") {
        Some(s) => TopologySpec::parse_list(s).map_err(|e| format!("--topology: {e}")),
        None => Ok(vec![TopologySpec::Flat]),
    }
}

/// Parse the telemetry flags: `None` without `--telemetry` (the
/// default — telemetry must stay opt-in so runs are byte-identical to
/// their pre-telemetry output), otherwise a [`TelemetrySpec`] with
/// `--sample-interval` seconds between gauge samples (default 60 s of
/// simulated time).
///
/// # Errors
/// Returns a message when `--sample-interval` is malformed or
/// non-positive, or given without `--telemetry` (a silent no-op flag
/// would hide the typo).
pub fn telemetry_from_opts(opts: &OptMap) -> Result<Option<TelemetrySpec>, String> {
    let enabled = opts.contains_key("telemetry");
    let interval: f64 = opt_parse(opts, "sample-interval", 60.0)?;
    if !enabled {
        if opts.contains_key("sample-interval") {
            return Err("--sample-interval requires --telemetry".into());
        }
        return Ok(None);
    }
    if !interval.is_finite() || interval <= 0.0 {
        return Err(format!(
            "--sample-interval: must be a positive number of seconds, got {interval}"
        ));
    }
    Ok(Some(TelemetrySpec::with_interval(interval)))
}

/// Parse `--quiet` / `--progress` into a [`ProgressMode`] override.
///
/// # Errors
/// Rejects passing both flags at once.
pub fn progress_mode_from_opts(opts: &OptMap) -> Result<ProgressMode, String> {
    match (opts.contains_key("quiet"), opts.contains_key("progress")) {
        (true, true) => Err("--quiet conflicts with --progress".into()),
        (true, false) => Ok(ProgressMode::Off),
        (false, true) => Ok(ProgressMode::On),
        (false, false) => Ok(ProgressMode::Auto),
    }
}

/// Build the durable-execution options shared by the sweep commands
/// from `--manifest`, `--resume`, `--retries`, `--backoff-ms` and
/// `--point-limit`. When a manifest is in play the SIGINT drain is
/// installed so Ctrl-C finishes in-flight points, flushes the journal,
/// and exits with [`EXIT_INTERRUPTED`].
///
/// # Errors
/// Returns a message when a flag is malformed, when `--resume` names an
/// unreadable manifest, or when `--manifest` conflicts with `--resume`.
///
/// [`EXIT_INTERRUPTED`]: crate::durable::EXIT_INTERRUPTED
pub fn durable_from_opts(opts: &OptMap) -> Result<DurableOptions, String> {
    let mut d = DurableOptions {
        retries: opt_parse(opts, "retries", 1u32)?,
        backoff_ms: opt_parse(opts, "backoff-ms", 250u64)?,
        ..DurableOptions::default()
    };
    if let Some(v) = opts.get("point-limit") {
        d.point_limit = Some(v.parse().map_err(|e| format!("--point-limit: {e}"))?);
    }
    if let Some(path) = opts.get("resume") {
        if let Some(m) = opts.get("manifest") {
            if m != path {
                return Err(format!(
                    "--manifest {m} conflicts with --resume {path}: \
                     resume appends to the manifest it resumes from"
                ));
            }
        }
        d.resume = Some(ResumeState::load(path).map_err(|e| format!("--resume: {e}"))?);
        d.manifest = Some(path.clone());
    } else if let Some(m) = opts.get("manifest") {
        d.manifest = Some(m.clone());
    }
    if d.manifest.is_some() {
        d.interrupt = Some(install_sigint_drain());
    }
    Ok(d)
}

/// Every flag the sweep-style commands share, read in one call: the
/// policy and topology lists, the opt-in telemetry spec, the
/// durable-execution options, and the progress-mode override. Commands
/// that historically called the five readers back to back
/// (`policies_from_opts`, `topologies_from_opts`, …) read this instead,
/// so a new shared flag lands in every command by construction.
#[derive(Debug)]
pub struct CommonRunOpts {
    /// `--policies spec,…` (default: the full registry, baseline first).
    pub policies: Vec<PolicySpec>,
    /// `--topology spec,…` (default: flat).
    pub topologies: Vec<TopologySpec>,
    /// `--telemetry` / `--sample-interval` (default: off).
    pub telemetry: Option<TelemetrySpec>,
    /// `--manifest` / `--resume` / `--retries` / `--backoff-ms` /
    /// `--point-limit`.
    pub durable: DurableOptions,
    /// `--quiet` / `--progress` (default: auto-detect a TTY).
    pub progress: ProgressMode,
}

impl CommonRunOpts {
    /// Read the shared flag surface from the option map. Each field
    /// keeps its individual reader's defaults and error messages, so a
    /// command migrated onto this bundle parses identically.
    ///
    /// # Errors
    /// Returns the first malformed flag's message, prefixed with the
    /// flag name as the individual readers do.
    pub fn from_opts(opts: &OptMap) -> Result<Self, String> {
        Ok(Self {
            policies: policies_from_opts(opts)?,
            topologies: topologies_from_opts(opts)?,
            telemetry: telemetry_from_opts(opts)?,
            durable: durable_from_opts(opts)?,
            progress: progress_mode_from_opts(opts)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::args::{parse_args_from, Args};
    use crate::exp::faults::FAULT_SEED;

    fn parse(argv: &[&str]) -> Result<Args, String> {
        parse_args_from(argv.iter().map(|s| s.to_string()))
    }

    #[test]
    fn policy_specs_round_trip_through_args() {
        let args = parse(&[
            "fault-sweep",
            "--policies",
            "baseline,overcommit:factor=0.8,conservative:quantum=4096",
        ])
        .unwrap();
        let specs = policies_from_opts(&args.opts).unwrap();
        assert_eq!(
            specs,
            vec![
                PolicySpec::Baseline,
                PolicySpec::Overcommit { factor: 0.8 },
                PolicySpec::Conservative { quantum_mb: 4096 },
            ]
        );
        // Display → FromStr is the identity on every parsed spec.
        for s in specs {
            assert_eq!(s.to_string().parse::<PolicySpec>().unwrap(), s);
        }
        // No --policies flag means the full registry.
        let args = parse(&["fault-sweep"]).unwrap();
        assert_eq!(
            policies_from_opts(&args.opts).unwrap(),
            PolicySpec::all_default()
        );
        // Baseline is always added: the sweep normalises against it.
        let args = parse(&["fig5", "--policies", "dynamic"]).unwrap();
        assert_eq!(
            policies_from_opts(&args.opts).unwrap(),
            vec![PolicySpec::Baseline, PolicySpec::Dynamic]
        );
    }

    #[test]
    fn bad_policy_specs_are_rejected() {
        for bad in [
            "greedy",
            "overcommit:factor=0",
            "overcommit:factor=nan",
            "conservative:quantum=0",
            "predictive:history=maybe",
            "dynamic:factor=2.0",
            "",
        ] {
            let args = parse(&["fault-sweep", "--policies", bad]).unwrap();
            let err = policies_from_opts(&args.opts).unwrap_err();
            assert!(err.starts_with("--policies:"), "{bad}: {err}");
        }
    }

    #[test]
    fn topology_specs_round_trip_through_args() {
        let args = parse(&[
            "fig5",
            "--topology",
            "flat,racks:size=8,cross_cap=0.25,racks",
        ])
        .unwrap();
        let specs = topologies_from_opts(&args.opts).unwrap();
        assert_eq!(
            specs,
            vec![
                TopologySpec::Flat,
                TopologySpec::Racks {
                    size: 8,
                    cross_cap: 0.25,
                },
                TopologySpec::Racks {
                    size: 16,
                    cross_cap: 1.0,
                },
            ]
        );
        // Display → FromStr is the identity on every parsed spec.
        for s in specs {
            assert_eq!(s.to_string().parse::<TopologySpec>().unwrap(), s);
        }
        // No --topology flag defaults to flat — today's behavior.
        let args = parse(&["fig5"]).unwrap();
        assert_eq!(
            topologies_from_opts(&args.opts).unwrap(),
            vec![TopologySpec::Flat]
        );
    }

    #[test]
    fn bad_topology_specs_are_rejected_with_the_registry() {
        for bad in [
            "torus",
            "racks:size=0",
            "racks:cross_cap=1.5",
            "racks:cross_cap=nan",
            "flat:size=4",
            "racks:hops=2",
            "",
        ] {
            let args = parse(&["fig5", "--topology", bad]).unwrap();
            let err = topologies_from_opts(&args.opts).unwrap_err();
            assert!(err.starts_with("--topology:"), "{bad}: {err}");
        }
        // The unknown-name error enumerates the registry.
        let args = parse(&["fig5", "--topology", "torus"]).unwrap();
        let err = topologies_from_opts(&args.opts).unwrap_err();
        for name in ["flat", "racks"] {
            assert!(err.contains(name), "hint missing '{name}': {err}");
        }
    }

    #[test]
    fn fault_seed_round_trips_through_args() {
        let args = parse(&["fault-sweep", "--fault-seed", "3735928559"]).unwrap();
        assert_eq!(args.command, "fault-sweep");
        let seed: u64 = opt_parse(&args.opts, "fault-seed", FAULT_SEED).unwrap();
        assert_eq!(seed, 0xDEAD_BEEF);
        // Absent flag falls back to the sweep's published default seed.
        let args = parse(&["fault-sweep"]).unwrap();
        let seed: u64 = opt_parse(&args.opts, "fault-seed", FAULT_SEED).unwrap();
        assert_eq!(seed, FAULT_SEED);
        // Garbage is a parse error, not a silent default.
        let args = parse(&["fault-sweep", "--fault-seed", "not-a-number"]).unwrap();
        assert!(opt_parse::<u64>(&args.opts, "fault-seed", 0).is_err());
    }

    #[test]
    fn telemetry_flags_build_a_spec() {
        // Off by default; interval alone is an error, not a no-op.
        let args = parse(&["simulate", "--swf", "w.swf"]).unwrap();
        assert_eq!(telemetry_from_opts(&args.opts).unwrap(), None);
        let args = parse(&["simulate", "--swf", "w.swf", "--sample-interval", "30"]).unwrap();
        assert!(telemetry_from_opts(&args.opts)
            .unwrap_err()
            .contains("requires --telemetry"));
        // On with the default and a custom interval.
        let args = parse(&["simulate", "--swf", "w.swf", "--telemetry"]).unwrap();
        let spec = telemetry_from_opts(&args.opts).unwrap().unwrap();
        assert_eq!(spec.sample_interval_s, 60.0);
        let args = parse(&["fault-sweep", "--telemetry", "--sample-interval", "15"]).unwrap();
        let spec = telemetry_from_opts(&args.opts).unwrap().unwrap();
        assert_eq!(spec.sample_interval_s, 15.0);
        // Garbage and non-positive intervals are loud.
        for bad in ["abc", "0", "-5", "nan"] {
            let args = parse(&["fault-sweep", "--telemetry", "--sample-interval", bad]).unwrap();
            assert!(telemetry_from_opts(&args.opts).is_err(), "{bad}");
        }
    }

    #[test]
    fn progress_flags_pick_a_mode() {
        let auto = parse(&["fig5"]).unwrap();
        assert_eq!(
            progress_mode_from_opts(&auto.opts).unwrap(),
            ProgressMode::Auto
        );
        let quiet = parse(&["fig5", "--quiet"]).unwrap();
        assert_eq!(
            progress_mode_from_opts(&quiet.opts).unwrap(),
            ProgressMode::Off
        );
        let forced = parse(&["fig5", "--progress"]).unwrap();
        assert_eq!(
            progress_mode_from_opts(&forced.opts).unwrap(),
            ProgressMode::On
        );
        let both = parse(&["fig5", "--quiet", "--progress"]).unwrap();
        assert!(progress_mode_from_opts(&both.opts)
            .unwrap_err()
            .contains("conflicts"));
    }

    #[test]
    fn durable_flags_build_options() {
        let args = parse(&[
            "fault-sweep",
            "--manifest",
            "/tmp/m.jsonl",
            "--retries",
            "3",
            "--backoff-ms",
            "10",
            "--point-limit",
            "4",
        ])
        .unwrap();
        let d = durable_from_opts(&args.opts).unwrap();
        assert_eq!(d.manifest.as_deref(), Some("/tmp/m.jsonl"));
        assert_eq!(d.retries, 3);
        assert_eq!(d.backoff_ms, 10);
        assert_eq!(d.point_limit, Some(4));
        assert!(d.resume.is_none());
        assert!(d.interrupt.is_some(), "journaling installs the drain");
        // Defaults: one retry, 250 ms backoff, no journal, no drain.
        let d = durable_from_opts(&parse(&["fig5"]).unwrap().opts).unwrap();
        assert!(d.manifest.is_none());
        assert_eq!((d.retries, d.backoff_ms), (1, 250));
        assert!(d.interrupt.is_none());
    }

    #[test]
    fn common_run_opts_bundle_matches_the_individual_readers() {
        let args = parse(&[
            "fault-sweep",
            "--policies",
            "baseline,dynamic",
            "--topology",
            "racks:size=8",
            "--telemetry",
            "--sample-interval",
            "30",
            "--retries",
            "2",
            "--quiet",
        ])
        .unwrap();
        let common = CommonRunOpts::from_opts(&args.opts).unwrap();
        assert_eq!(common.policies, policies_from_opts(&args.opts).unwrap());
        assert_eq!(common.topologies, topologies_from_opts(&args.opts).unwrap());
        assert_eq!(common.telemetry, telemetry_from_opts(&args.opts).unwrap());
        assert_eq!(common.durable.retries, 2);
        assert_eq!(common.progress, ProgressMode::Off);

        // Defaults mirror the individual readers' defaults.
        let bare = CommonRunOpts::from_opts(&parse(&["fig5"]).unwrap().opts).unwrap();
        assert_eq!(bare.policies, PolicySpec::all_default());
        assert_eq!(bare.topologies, vec![TopologySpec::Flat]);
        assert_eq!(bare.telemetry, None);
        assert_eq!(bare.progress, ProgressMode::Auto);

        // Errors keep their flag-name prefix and surface in one read.
        let bad = parse(&["fig5", "--policies", "greedy"]).unwrap();
        let err = CommonRunOpts::from_opts(&bad.opts).unwrap_err();
        assert!(err.starts_with("--policies:"), "{err}");
    }

    #[test]
    fn resume_conflicts_and_missing_files_are_loud() {
        // --resume of a nonexistent manifest is an error, not a fresh run.
        let args = parse(&["fig5", "--resume", "/nonexistent/m.jsonl"]).unwrap();
        let err = durable_from_opts(&args.opts).unwrap_err();
        assert!(err.starts_with("--resume:"), "{err}");
        // --manifest naming a different file than --resume is rejected.
        let args = parse(&[
            "fig5",
            "--resume",
            "/tmp/a.jsonl",
            "--manifest",
            "/tmp/b.jsonl",
        ])
        .unwrap();
        let err = durable_from_opts(&args.opts).unwrap_err();
        assert!(err.contains("conflicts"), "{err}");
    }
}
