//! The `dmhpc` command table: one [`Command`] row per subcommand, and
//! the handlers the rows point to.
//!
//! The row is the only place a command is described. The parser
//! ([`parse_args_from`]) looks the command up here and rejects options
//! the row does not list, [`usage`] renders the command section from
//! the rows, [`banner`] reads the row's [`ScaleUse`], and the binary
//! dispatches through the row's handler.
//!
//! [`parse_args_from`]: super::args::parse_args_from

use super::args::{usage, Args};
use super::opts::{
    count_from_opts, fault_profile_from_opts, fraction_from_opts, opt_parse,
    overestimation_from_opts, policy_from_opts, sample_interval_from_opts, telemetry_from_opts,
    CommonRunOpts,
};
use crate::durable::{DurableError, DurableOptions, PointStatus, ResumeState};
use crate::exp;
use crate::report;
use crate::scale::Scale;
use crate::table::TextTable;
use dmhpc_core::cluster::TopologySpec;
use dmhpc_core::policy::PolicySpec;
use dmhpc_core::sim::Stats;
use dmhpc_core::spec::SpecRegistry;
use dmhpc_core::telemetry::{Profile, TelemetryCollector, TelemetrySpec};
use dmhpc_core::RunMetrics;
use std::io::{self, Write};

/// Why a command stopped early. Usage errors exit 2, run failures
/// (including failed sweep points) exit 1, and a gracefully drained
/// interruption exits [`EXIT_INTERRUPTED`] so scripts can tell
/// "interrupted cleanly, resume me" from "crashed". A reader that
/// closed stdout (`dmhpc ... | head -1`) got what it wanted: that exit
/// is quiet and successful.
///
/// [`EXIT_INTERRUPTED`]: crate::durable::EXIT_INTERRUPTED
#[derive(Debug)]
pub enum Failure {
    /// The run failed (exit 1).
    Run(String),
    /// A durable sweep drained after Ctrl-C or `--point-limit`.
    Interrupted(String),
    /// The reader of stdout went away (quiet exit 0).
    StdoutClosed,
}

impl From<String> for Failure {
    fn from(msg: String) -> Self {
        Failure::Run(msg)
    }
}

impl From<&str> for Failure {
    fn from(msg: &str) -> Self {
        Failure::Run(msg.to_string())
    }
}

impl From<io::Error> for Failure {
    fn from(e: io::Error) -> Self {
        match e.kind() {
            io::ErrorKind::BrokenPipe => Failure::StdoutClosed,
            _ => Failure::Run(format!("stdout: {e}")),
        }
    }
}

impl From<DurableError> for Failure {
    fn from(e: DurableError) -> Self {
        match e {
            DurableError::Interrupted { .. } => Failure::Interrupted(e.to_string()),
            other => Failure::Run(other.to_string()),
        }
    }
}

/// A command's handler: write its results to `out`.
pub type Handler = fn(&mut dyn Write, &Args) -> Result<(), Failure>;

/// How a command's work uses `--scale`, which decides what the closing
/// stderr banner names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScaleUse {
    /// The work reads the scale.
    Always,
    /// The work reads no scale.
    Never,
    /// The work reads the scale unless this option is present.
    Unless(&'static str),
    /// The command runs nothing worth timing (`help`, reading a
    /// journal): no banner at all.
    Untimed,
}

/// One row of the command table.
#[derive(Debug)]
pub struct Command {
    /// The subcommand's name.
    pub name: &'static str,
    /// How its work uses `--scale`.
    pub scale: ScaleUse,
    /// Its options as [`usage`] shows them, one
    /// `\n`-separated line per usage line. Every `--key` named here is
    /// one the command reads ([`Command::keys`]).
    pub synopsis: &'static str,
    /// What it does, one `\n`-separated line per usage line.
    pub about: &'static str,
    /// Runs it.
    pub run: Handler,
}

/// Titles of the tables `fig8`/`fig9` and `all` both print.
const FIG8_TITLE: &str = "Figure 8: throughput vs overestimation";
const FIG9_TITLE: &str = "Figure 9: min memory for 95% throughput";

/// Every `dmhpc` command, in the order [`usage`]
/// lists them.
pub static COMMANDS: [Command; 24] = [
    Command {
        name: "table1",
        scale: ScaleUse::Never,
        synopsis: "",
        about: "Table 1: trace sources",
        run: |out, a| emit(out, "Table 1: trace sources", &exp::tables::table1(), a.csv),
    },
    Command {
        name: "table2",
        scale: ScaleUse::Always,
        synopsis: "",
        about: "Table 2: max memory usage per node",
        run: |out, a| {
            let t = exp::tables::table2(a.scale);
            let title = "Table 2: max memory usage per node (% of jobs)";
            emit(out, title, &t, a.csv)
        },
    },
    Command {
        name: "table3",
        scale: ScaleUse::Always,
        synopsis: "",
        about: "Table 3: normal vs large memory jobs",
        run: |out, a| {
            let t = exp::tables::table3(a.scale);
            let title = "Table 3: normal vs large memory job characteristics";
            emit(out, title, &t, a.csv)
        },
    },
    Command {
        name: "table4",
        scale: ScaleUse::Never,
        synopsis: "",
        about: "Table 4: simulated system configurations",
        run: |out, a| {
            let t = exp::tables::table4();
            emit(out, "Table 4: simulated system configurations", &t, a.csv)
        },
    },
    Command {
        name: "fig2",
        scale: ScaleUse::Always,
        synopsis: "",
        about: "Figure 2: Grizzly week sampling",
        run: cmd_fig2,
    },
    Command {
        name: "fig4",
        scale: ScaleUse::Always,
        synopsis: "",
        about: "Figure 4: memory usage heatmaps",
        run: cmd_fig4,
    },
    Command {
        name: "fig5",
        scale: ScaleUse::Always,
        synopsis: "[--policies SPECS] [--topology SPECS]\n\
               [--manifest PATH] [--resume PATH] [--point-limit K]",
        about: "Figure 5: normalized throughput",
        run: cmd_fig5,
    },
    Command {
        name: "fig6",
        scale: ScaleUse::Always,
        synopsis: "",
        about: "Figure 6: response-time quantiles",
        run: cmd_fig6,
    },
    Command {
        name: "fig7",
        scale: ScaleUse::Always,
        synopsis: "",
        about: "Figure 7: throughput per dollar",
        run: cmd_fig7,
    },
    Command {
        name: "fig8",
        scale: ScaleUse::Always,
        synopsis: "[--policies SPECS] [--topology SPECS]\n\
               [--manifest PATH] [--resume PATH] [--point-limit K]",
        about: "Figure 8: throughput vs overestimation",
        run: cmd_fig8,
    },
    Command {
        name: "fig9",
        scale: ScaleUse::Always,
        synopsis: "",
        about: "Figure 9: min memory for 95% throughput",
        run: |out, a| {
            let f = exp::fig9::run(a.scale, a.threads)?;
            emit(out, FIG9_TITLE, &f.table(), a.csv)
        },
    },
    Command {
        name: "ablate",
        scale: ScaleUse::Always,
        synopsis: "",
        about: "design-choice ablations",
        run: |out, a| {
            let t = exp::ablations::run(a.scale, a.threads).table();
            let title = "Ablations (dynamic policy, stress scenario)";
            emit(out, title, &t, a.csv)
        },
    },
    Command {
        name: "fault-sweep",
        scale: ScaleUse::Always,
        synopsis: "[--fault-seed S] [--fault-profile none|light|heavy]\n\
               [--policies SPECS] [--topology SPECS]\n\
               [--telemetry [--sample-interval S]]\n\
               [--manifest PATH] [--resume PATH] [--point-limit K]",
        about: "resilience under injected faults",
        run: cmd_fault_sweep,
    },
    Command {
        name: "validate",
        scale: ScaleUse::Always,
        synopsis: "",
        about: "PASS/FAIL the headline claims",
        run: cmd_validate,
    },
    Command {
        name: "all",
        scale: ScaleUse::Always,
        synopsis: "[--policies SPECS]",
        about: "every table and figure, then ablate",
        run: cmd_all,
    },
    Command {
        name: "policies",
        scale: ScaleUse::Never,
        synopsis: "",
        about: "list the policy registry (specs & defaults)",
        run: |out, a| {
            let title = "Memory-policy registry (--policy / --policies specs)";
            list_registry::<PolicySpec>(out, title, a.csv)
        },
    },
    Command {
        name: "topologies",
        scale: ScaleUse::Never,
        synopsis: "",
        about: "list the topology registry (specs & defaults)",
        run: |out, a| {
            let title = "Fabric-topology registry (--topology specs)";
            list_registry::<TopologySpec>(out, title, a.csv)
        },
    },
    Command {
        name: "export",
        scale: ScaleUse::Always,
        synopsis: "--out DIR [--jobs N] [--large F] [--over O] [--seed S]",
        about: "write workload.swf + usage.txt",
        run: cmd_export,
    },
    Command {
        name: "simulate",
        scale: ScaleUse::Unless("nodes"),
        synopsis: "--swf FILE [--usage FILE] [--policy P] [--nodes N]\n\
               [--large-nodes F] [--telemetry [--sample-interval S]]",
        about: "run an SWF trace through the simulator",
        run: cmd_simulate,
    },
    Command {
        name: "chart",
        scale: ScaleUse::Always,
        synopsis: "[--large F] [--over O] [--width N]\n\
               [--policies SPECS] [--topology SPECS]\n\
               [--manifest PATH] [--resume PATH] [--point-limit K]",
        about: "ASCII throughput panel for one sweep leg",
        run: cmd_chart,
    },
    Command {
        name: "trace-run",
        scale: ScaleUse::Unless("check"),
        synopsis: "[--policy P] [--seed S] [--fault-profile none|light|heavy]\n\
               [--fault-seed S] [--out FILE] [--filter kind=K1,K2]\n\
               [--from S] [--to S] [--summary] [--diff A,B] [--check FILE]\n\
               [--telemetry [--sample-interval S]]",
        about: "dump one run's event trace as JSONL;\n\
                --diff reports the first event where two\n\
                sim seeds part, --check validates a file",
        run: cmd_trace_run,
    },
    Command {
        name: "sweep-status",
        scale: ScaleUse::Untimed,
        synopsis: "[--manifest] PATH",
        about: "inspect a durable-sweep journal: header,\n\
                completed/failed/pending counts, per-point\n\
                wall time and failure reasons,\n\
                plus a phase-time breakdown when points\n\
                were profiled with --telemetry",
        run: cmd_sweep_status,
    },
    Command {
        name: "report",
        scale: ScaleUse::Always,
        synopsis: "[--policy P] [--seed S] [--fault-profile none|light|heavy]\n\
               [--fault-seed S] [--sample-interval S]\n\
               [--format table|prom|csv|jsonl] [--out FILE]",
        about: "run the stress scenario under telemetry and\n\
                render gauge sparklines + the phase profile,\n\
                or export the sampled series (Prometheus\n\
                text, CSV, or JSONL)",
        run: cmd_report,
    },
    Command {
        name: "help",
        scale: ScaleUse::Untimed,
        synopsis: "",
        about: "show this message",
        run: |out, _| Ok(writeln!(out, "{}", usage())?),
    },
];

impl Command {
    /// The `--key` options the command reads, besides `--quiet`,
    /// `--progress` and the `--scale/--threads/--csv` trio every
    /// command takes: the keys its synopsis names.
    pub fn keys(&self) -> impl Iterator<Item = &'static str> {
        self.synopsis
            .split("--")
            .skip(1)
            .filter_map(|s| s.split([' ', ']', '\n']).next())
    }
}

/// The row named `name`; `--help` and `-h` spell `help`.
pub fn command(name: &str) -> Option<&'static Command> {
    let name = match name {
        "--help" | "-h" => "help",
        other => other,
    };
    COMMANDS.iter().find(|c| c.name == name)
}

/// The stderr line that closes a run: the command, the scale when its
/// work read one, and the wall time. `None` for `--csv` runs and for
/// [`ScaleUse::Untimed`] commands.
pub fn banner(args: &Args, secs: f64) -> Option<String> {
    if args.csv {
        return None;
    }
    let name = args.command.name;
    let reads_scale = match args.command.scale {
        ScaleUse::Untimed => return None,
        ScaleUse::Always => true,
        ScaleUse::Never => false,
        ScaleUse::Unless(key) => !args.opts.contains_key(key),
    };
    Some(if reads_scale {
        format!("[{name} @ {} scale in {secs:.1}s]", args.scale.label())
    } else {
        format!("[{name} in {secs:.1}s]")
    })
}

/// Write one table: a titled rendering, or bare CSV.
fn emit(out: &mut dyn Write, title: &str, t: &TextTable, csv: bool) -> Result<(), Failure> {
    if csv {
        write!(out, "{}", t.to_csv())?;
    } else {
        writeln!(out, "== {title} ==")?;
        write!(out, "{}", t.render())?;
        writeln!(out)?;
    }
    Ok(())
}

/// `dmhpc policies` / `dmhpc topologies`: a spec registry as a table.
fn list_registry<R: SpecRegistry>(
    out: &mut dyn Write,
    title: &str,
    csv: bool,
) -> Result<(), Failure> {
    let mut t = TextTable::new(vec!["name", "parameters", "default spec", "description"]);
    for info in R::spec_registry() {
        t.row(vec![
            info.name.to_string(),
            if info.params.is_empty() {
                "-".to_string()
            } else {
                info.params.to_string()
            },
            info.default_spec.to_string(),
            info.description.to_string(),
        ]);
    }
    emit(out, title, &t, csv)
}

fn cmd_fig2(out: &mut dyn Write, a: &Args) -> Result<(), Failure> {
    let f = exp::fig2::run(a.scale, a.threads);
    emit(out, "Figure 2: Grizzly week sampling", &f.table(), a.csv)?;
    if !a.csv {
        writeln!(
            out,
            "selected weeks all >=70% util: {}",
            f.selection_is_high_util()
        )?;
    }
    Ok(())
}

fn cmd_fig4(out: &mut dyn Write, a: &Args) -> Result<(), Failure> {
    let f = exp::fig4::run(a.scale, a.threads);
    let csv = a.csv;
    emit(
        out,
        "Figure 4a: average memory usage heatmap",
        &f.avg_table(),
        csv,
    )?;
    emit(
        out,
        "Figure 4b: maximum memory usage heatmap",
        &f.max_table(),
        csv,
    )?;
    if !csv {
        writeln!(
            out,
            "mass below 12 GB: avg {:.1}% vs max {:.1}%",
            f.avg_mass_below_12gb(),
            f.max_mass_below_12gb()
        )?;
    }
    Ok(())
}

fn cmd_fig5(out: &mut dyn Write, a: &Args) -> Result<(), Failure> {
    let common = CommonRunOpts::from_opts(&a.opts)?;
    let f = exp::fig5::run(
        a.scale,
        a.threads,
        &common.policies,
        &common.topologies,
        &common.durable,
    )?;
    emit(out, "Figure 5: normalized throughput", &f.table(), a.csv)?;
    if !a.csv {
        if let Some((trace, over, mem, gain)) = f.max_dynamic_gain() {
            writeln!(
                out,
                "max dynamic-over-static gain: +{:.1}% ({trace}, +{:.0}% overest, {mem}% memory)",
                gain * 100.0,
                over * 100.0
            )?;
        }
    }
    Ok(())
}

fn cmd_fig6(out: &mut dyn Write, a: &Args) -> Result<(), Failure> {
    let f = exp::fig6::run(a.scale, a.threads);
    emit(out, "Figure 6: response-time quantiles", &f.table(), a.csv)?;
    if !a.csv {
        if let Some(r) = f.median_reduction(exp::fig6::Provisioning::Under, 0.6) {
            writeln!(
                out,
                "median response reduction (underprovisioned, +60%): {:.0}%",
                r * 100.0
            )?;
        }
    }
    Ok(())
}

fn cmd_fig7(out: &mut dyn Write, a: &Args) -> Result<(), Failure> {
    let f = exp::fig7::run(a.scale, a.threads);
    emit(out, "Figure 7: throughput per dollar", &f.table(), a.csv)?;
    if !a.csv {
        if let Some(adv) = f.max_dynamic_advantage(0.6) {
            writeln!(out, "max dynamic advantage at +60%: +{:.1}%", adv * 100.0)?;
        }
    }
    Ok(())
}

fn cmd_fig8(out: &mut dyn Write, a: &Args) -> Result<(), Failure> {
    let common = CommonRunOpts::from_opts(&a.opts)?;
    let f = exp::fig8::run(
        a.scale,
        a.threads,
        &common.policies,
        &common.topologies,
        &common.durable,
    )?;
    emit(out, FIG8_TITLE, &f.table(), a.csv)?;
    if !a.csv {
        if let Some(gap) = f.gap_at_37("large 50%", 1.0) {
            writeln!(
                out,
                "dynamic-static gap at 37% memory, +100% overest: {:.1} pp",
                gap * 100.0
            )?;
        }
    }
    Ok(())
}

fn cmd_validate(out: &mut dyn Write, a: &Args) -> Result<(), Failure> {
    let v = exp::validate::run(a.scale, a.threads)?;
    let title = "Validation of the paper's headline claims";
    emit(out, title, &v.table(), a.csv)?;
    if !v.all_pass() {
        return Err("some claims failed validation".into());
    }
    Ok(())
}

/// `dmhpc all`: every table and figure, then the ablations.
fn cmd_all(out: &mut dyn Write, a: &Args) -> Result<(), Failure> {
    let part = |name| command(name).expect("`all` runs table rows").run;
    for name in [
        "table1", "table2", "table3", "table4", "fig2", "fig4", "fig5", "fig6", "fig7",
    ] {
        part(name)(out, a)?;
    }
    // Figures 8 and 9 share one sweep; run it once.
    let policies = CommonRunOpts::from_opts(&a.opts)?.policies;
    let f8 = exp::fig8::run(
        a.scale,
        a.threads,
        &policies,
        &[TopologySpec::Flat],
        &DurableOptions::default(),
    )?;
    emit(out, FIG8_TITLE, &f8.table(), a.csv)?;
    let f9 = exp::fig9::derive(&f8, "large 50%");
    emit(out, FIG9_TITLE, &f9.table(), a.csv)?;
    part("ablate")(out, a)
}

/// `dmhpc sweep-status <manifest>`: inspect a durable-sweep journal —
/// header identity, completed/failed/pending counts, per-point wall
/// time and failure reasons, and (when points were
/// profiled with `--telemetry`) the merged phase-time breakdown.
fn cmd_sweep_status(out: &mut dyn Write, a: &Args) -> Result<(), Failure> {
    let path = a
        .opts
        .get("manifest")
        .ok_or("sweep-status requires a manifest path")?;
    let state = ResumeState::load(path).map_err(|e| e.to_string())?;
    let (done, failed, pending) = state.counts();
    let h = &state.header;
    writeln!(out, "manifest {path}")?;
    writeln!(
        out,
        "run {}  format {}  version {}  config {}",
        h.run, h.format, h.version, h.config
    )?;
    writeln!(
        out,
        "points {}  completed {done}  failed {failed}  pending {pending}",
        h.points
    )?;
    if state.records.is_empty() {
        return Ok(());
    }
    let mut t = TextTable::new(vec!["status", "wall_s", "reason", "point"]);
    let mut profile_total = Profile::default();
    let mut profiled = 0usize;
    for (fp, status) in &state.records {
        match status {
            PointStatus::Done { wall_ms, payload } => {
                if let Some(p) = report::profile_from_payload(payload) {
                    profile_total.merge(&p);
                    profiled += 1;
                }
                t.row(vec![
                    "done".to_string(),
                    format!("{:.3}", *wall_ms as f64 / 1000.0),
                    "-".to_string(),
                    fp.clone(),
                ]);
            }
            PointStatus::Failed { error } => {
                t.row(vec![
                    "failed".to_string(),
                    "-".to_string(),
                    error.lines().next().unwrap_or("").to_string(),
                    fp.clone(),
                ]);
            }
        }
    }
    write!(out, "{}", t.render())?;
    if profiled > 0 {
        writeln!(
            out,
            "phase-time breakdown ({profiled} profiled points, wall clock):"
        )?;
        write!(out, "{}", report::phase_table(&profile_total).render())?;
    }
    Ok(())
}

fn cmd_export(out: &mut dyn Write, a: &Args) -> Result<(), Failure> {
    use dmhpc_core::config::SystemConfig;
    let (scale, opts) = (a.scale, &a.opts);
    let dir = opts.get("out").ok_or("export requires --out DIR")?.clone();
    let jobs = count_from_opts(opts, "jobs", scale.synthetic_jobs())?;
    let large = fraction_from_opts(opts, "large", 0.5)?;
    let over = overestimation_from_opts(opts, 0.0)?;
    let seed: u64 = opt_parse(opts, "seed", 42)?;
    let system = SystemConfig::with_nodes(scale.synthetic_nodes());
    let workload = dmhpc_traces::WorkloadBuilder::new(seed)
        .jobs(jobs)
        .max_job_nodes(scale.max_job_nodes())
        .large_job_fraction(large)
        .overestimation(over)
        .google_pool(scale.google_pool())
        .build_for(&system);
    let records: Vec<_> = workload
        .jobs
        .iter()
        .map(|j| dmhpc_traces::swf::from_job(j, system.cores_per_node))
        .collect();
    let note =
        format!("dmhpc export: {jobs} jobs, large {large}, overestimation {over}, seed {seed}");
    std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {dir}: {e}"))?;
    let swf_path = format!("{dir}/workload.swf");
    let usage_path = format!("{dir}/usage.txt");
    std::fs::write(&swf_path, dmhpc_traces::swf::write(&records, &note))
        .map_err(|e| format!("{swf_path}: {e}"))?;
    let usage = dmhpc_traces::usagefile::from_workload(&workload);
    std::fs::write(&usage_path, dmhpc_traces::usagefile::write(&usage))
        .map_err(|e| format!("{usage_path}: {e}"))?;
    let stats = dmhpc_traces::WorkloadStats::of(&workload);
    writeln!(
        out,
        "wrote {} jobs to {swf_path} and {usage_path}",
        workload.len()
    )?;
    writeln!(
        out,
        "  large-memory jobs: {} | offered load vs {} nodes: {:.2} | \
         mean peak {:.0} MB (headroom ×{:.2}) | mean overestimation {:+.0}%",
        stats.large_memory_jobs,
        system.nodes,
        stats.offered_load(system.nodes),
        stats.mean_peak_mb,
        stats.headroom_ratio(),
        stats.mean_overestimation * 100.0
    )?;
    Ok(())
}

fn cmd_chart(out: &mut dyn Write, a: &Args) -> Result<(), Failure> {
    use crate::chart::sweep_panel;
    use crate::{ThroughputSweep, TraceSpec};
    let opts = &a.opts;
    let large = fraction_from_opts(opts, "large", 0.5)?;
    let over = overestimation_from_opts(opts, 0.6)?;
    let width: usize = opt_parse(opts, "width", 40)?;
    let trace = TraceSpec::Synthetic {
        large_fraction: large,
    };
    let overs = if over == 0.0 {
        vec![0.0]
    } else {
        vec![0.0, over]
    };
    let common = CommonRunOpts::from_opts(opts)?;
    let sweep = ThroughputSweep::run(
        "chart",
        a.scale,
        &[trace],
        &overs,
        a.threads,
        &common.policies,
        &common.topologies,
        &common.durable,
    )?;
    write!(out, "{}", sweep_panel(&sweep, &trace.label(), over, width))?;
    Ok(())
}

fn cmd_simulate(out: &mut dyn Write, a: &Args) -> Result<(), Failure> {
    use dmhpc_core::cluster::MemoryMix;
    use dmhpc_core::config::SystemConfig;
    use dmhpc_core::sim::SimBuilder;
    let opts = &a.opts;
    let swf_path = opts.get("swf").ok_or("simulate requires --swf FILE")?;
    let policy = policy_from_opts(opts)?;
    let nodes = count_from_opts(opts, "nodes", a.scale.synthetic_nodes())?;
    let large_nodes = fraction_from_opts(opts, "large-nodes", 1.0)?;
    let system = SystemConfig::with_nodes(nodes).with_memory_mix(MemoryMix::new(
        64 * 1024,
        128 * 1024,
        large_nodes,
    ));
    system.validate().map_err(|e| e.to_string())?;
    let swf_text = std::fs::read_to_string(swf_path).map_err(|e| format!("{swf_path}: {e}"))?;
    let usage_text = match opts.get("usage") {
        Some(p) => Some(std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?),
        None => None,
    };
    let workload = dmhpc_traces::workload_from_text(
        &swf_text,
        usage_text.as_deref(),
        &dmhpc_traces::ImportOptions::default(),
    )
    .map_err(String::from)?;
    let n_jobs = workload.len();
    let collector = telemetry_from_opts(opts)?.map(TelemetryCollector::new);
    let mut sim = SimBuilder::new(system, workload).policy(policy);
    if let Some(c) = &collector {
        sim = sim.telemetry(c.clone());
    }
    let outcome = sim.run();
    let stats = &outcome.stats;
    let mut t = TextTable::new(vec!["metric", "value"]);
    let mut row = |metric: &str, value: String| {
        t.row(vec![metric.to_string(), value]);
    };
    row("jobs", n_jobs.to_string());
    row("policy", policy.to_string());
    row("feasible", outcome.feasible.to_string());
    row("completed", stats.completed.to_string());
    row("unschedulable", stats.unschedulable.to_string());
    row("oom kill events", stats.oom_kills.to_string());
    row("jobs OOM-killed", stats.jobs_oom_killed.to_string());
    row("makespan (s)", format!("{:.0}", stats.makespan_s));
    row(
        "throughput (jobs/h)",
        format!("{:.3}", stats.throughput_jps * 3600.0),
    );
    row(
        "node utilization",
        format!("{:.1}%", stats.avg_node_utilization * 100.0),
    );
    row(
        "memory utilization",
        format!("{:.1}%", stats.avg_mem_utilization * 100.0),
    );
    row("mean slowdown", format!("{:.3}", stats.mean_slowdown));
    if let Ok(e) = dmhpc_metrics::ecdf::Ecdf::new(outcome.response_times_s.clone()) {
        row("median response (s)", format!("{:.0}", e.median()));
        row("p95 response (s)", format!("{:.0}", e.quantile(0.95)));
    }
    emit(out, "Simulation result", &t, false)?;
    if let Some(c) = collector {
        write!(out, "{}", report::render(&c.snapshot(), "run telemetry"))?;
    }
    Ok(())
}

/// The scenario `trace-run` and `report` observe: the fault sweep's
/// stress system (underprovisioned, 25% large nodes, Checkpoint/Restart)
/// under its workload (50% large jobs, +60% overestimation), so traces
/// exercise the dynamic-memory loop, the fairness ladder, and the fault
/// machinery.
fn trace_scenario(
    scale: Scale,
    profile: &str,
    fault_seed: u64,
) -> Result<(dmhpc_core::config::SystemConfig, dmhpc_core::sim::Workload), String> {
    use crate::scenario::{stress_system, stress_workload};
    use dmhpc_core::config::RestartStrategy;
    use dmhpc_core::faults::FaultConfig;
    let faults = FaultConfig::profile(profile)
        .map_err(|e| format!("--fault-profile: {e}"))?
        .with_seed(fault_seed);
    let system = stress_system(scale)
        .with_restart(RestartStrategy::CheckpointRestart)
        .with_faults(faults);
    let workload = stress_workload(scale, exp::faults::WORKLOAD_SEED);
    Ok((system, workload))
}

/// Run one traced simulation of the [`trace_scenario`]; returns the
/// JSONL stream, the folded [`RunMetrics`] when `want_metrics`, and the
/// run's [`Stats`].
/// When `telemetry` is given, the run is additionally observed through
/// that collector (read it back with
/// [`TelemetryCollector::snapshot`] after this returns).
fn run_traced(
    scale: Scale,
    policy: PolicySpec,
    seed: u64,
    profile: &str,
    fault_seed: u64,
    want_metrics: bool,
    telemetry: Option<&TelemetryCollector>,
) -> Result<(String, Option<RunMetrics>, Stats), String> {
    use dmhpc_core::sim::SimBuilder;
    use dmhpc_core::{CountingSink, FanoutSink, JsonlSink, TraceSink};
    let (system, workload) = trace_scenario(scale, profile, fault_seed)?;
    let (jsonl, buf) = JsonlSink::buffered();
    let counting = want_metrics.then(CountingSink::default);
    let sink: Box<dyn TraceSink> = match &counting {
        Some(c) => Box::new(FanoutSink::new(vec![
            Box::new(jsonl.clone()),
            Box::new(c.clone()),
        ])),
        None => Box::new(jsonl.clone()),
    };
    let mut sim = SimBuilder::new(system, workload)
        .policy(policy)
        .seed(seed)
        .trace_sink(sink);
    if let Some(c) = telemetry {
        sim = sim.telemetry(c.clone());
    }
    let stats = sim.run().stats;
    jsonl.flush().map_err(|e| format!("trace stream: {e}"))?;
    if let Some(e) = jsonl.error() {
        return Err(format!("trace stream: {e}"));
    }
    Ok((buf.contents(), counting.map(|c| c.metrics()), stats))
}

/// Parse `--filter kind=NAME[,NAME…]` into the kind names to keep.
fn parse_kind_filter(spec: &str) -> Result<Vec<String>, String> {
    use dmhpc_core::TraceKind;
    let list = spec
        .strip_prefix("kind=")
        .ok_or_else(|| format!("--filter must look like kind=NAME[,NAME...], got '{spec}'"))?;
    let mut kinds = Vec::new();
    for name in list.split(',').filter(|s| !s.is_empty()) {
        if !TraceKind::NAMES.contains(&name) {
            return Err(format!(
                "--filter: unknown kind '{name}' (known: {})",
                TraceKind::NAMES.join(", ")
            ));
        }
        kinds.push(name.to_string());
    }
    if kinds.is_empty() {
        return Err("--filter: no kinds given".into());
    }
    Ok(kinds)
}

/// Parse `--diff A,B` into the two sim seeds to compare.
fn parse_seed_pair(spec: &str) -> Result<(u64, u64), String> {
    let (a, b) = spec
        .split_once(',')
        .ok_or_else(|| format!("--diff wants two seeds 'A,B', got '{spec}'"))?;
    let a = a
        .trim()
        .parse()
        .map_err(|e| format!("--diff seed '{a}': {e}"))?;
    let b = b
        .trim()
        .parse()
        .map_err(|e| format!("--diff seed '{b}': {e}"))?;
    Ok((a, b))
}

/// Compare two JSONL streams and print the first divergence (the
/// verdict is the command's stdout output).
fn report_diff(out: &mut dyn Write, seed_a: u64, seed_b: u64, a: &str, b: &str) -> io::Result<()> {
    let la: Vec<&str> = a.lines().collect();
    let lb: Vec<&str> = b.lines().collect();
    for (i, (x, y)) in la.iter().zip(&lb).enumerate() {
        if x != y {
            writeln!(
                out,
                "seeds {seed_a} and {seed_b} diverge at event {} ({} vs {} events total):",
                i + 1,
                la.len(),
                lb.len()
            )?;
            writeln!(out, "  seed {seed_a}: {x}")?;
            return writeln!(out, "  seed {seed_b}: {y}");
        }
    }
    if la.len() != lb.len() {
        let (longer_seed, longer, shorter) = if la.len() > lb.len() {
            (seed_a, &la, lb.len())
        } else {
            (seed_b, &lb, la.len())
        };
        writeln!(
            out,
            "streams agree for all {shorter} shared events, then seed {longer_seed} continues:"
        )?;
        return writeln!(out, "  {}", longer[shorter]);
    }
    writeln!(
        out,
        "seeds {seed_a} and {seed_b} produced identical traces ({} events)",
        la.len()
    )
}

/// `dmhpc report`: run the stress scenario ([`trace_scenario`]) under
/// full telemetry and render the result — gauge sparklines, quantile
/// summaries and the wall-clock phase profile by default, or one of the
/// deterministic machine exports with `--format prom|csv|jsonl` (equal
/// seeds produce byte-identical export streams; the wall-clock profile
/// never enters them).
fn cmd_report(out: &mut dyn Write, a: &Args) -> Result<(), Failure> {
    use dmhpc_core::sim::SimBuilder;
    let opts = &a.opts;
    let policy = policy_from_opts(opts)?;
    let profile = fault_profile_from_opts(opts);
    let fault_seed: u64 = opt_parse(opts, "fault-seed", exp::faults::FAULT_SEED)?;
    let seed: u64 = opt_parse(opts, "seed", exp::faults::SIM_SEED)?;
    let interval = sample_interval_from_opts(opts)?;
    let format = opts.get("format").map(String::as_str).unwrap_or("table");
    let (system, workload) = trace_scenario(a.scale, profile, fault_seed)?;
    let collector = TelemetryCollector::new(TelemetrySpec::with_interval(interval));
    let outcome = SimBuilder::new(system, workload)
        .policy(policy)
        .seed(seed)
        .telemetry(collector.clone())
        .run();
    let telem = collector.snapshot();
    let rendered = match format {
        "prom" => telem.prometheus(),
        "csv" => telem.csv(),
        "jsonl" => telem.jsonl(),
        "table" => {
            let title = format!("telemetry report: {policy} policy, {profile} faults, seed {seed}");
            let mut s = report::render(&telem, &title);
            s.push_str(&format!(
                "run outcome: {} completed, {} OOM kill events, throughput {:.3} jobs/h\n",
                outcome.stats.completed,
                outcome.stats.oom_kills,
                outcome.stats.throughput_jps * 3600.0
            ));
            s
        }
        other => {
            return Err(format!(
                "--format: unknown format '{other}' (expected table, prom, csv, or jsonl)"
            )
            .into())
        }
    };
    match opts.get("out") {
        Some(path) => {
            std::fs::write(path, &rendered).map_err(|e| format!("write {path}: {e}"))?;
            eprintln!("wrote {format} report to {path}");
        }
        None => write!(out, "{rendered}")?,
    }
    Ok(())
}

/// Run-level metrics digest on stderr (the JSONL stream owns stdout).
fn print_trace_summary(m: &RunMetrics) {
    eprintln!("trace summary: {} events", m.total_events);
    for (sub, n) in m.by_subsystem() {
        eprintln!("  {:<6} {n}", sub.as_str());
    }
    eprintln!(
        "  jobs: {} submits, {} starts, {} finishes, {} kills, {} requeues",
        m.job_submits, m.job_starts, m.job_finishes, m.job_kills, m.job_requeues
    );
    eprintln!(
        "  mem: {} decides ({} holds), {} grows, {} shrinks, {} monitor losses",
        m.mem_decides, m.mem_holds, m.mem_grows, m.mem_shrinks, m.monitor_losses
    );
    if !m.actuator_retry_histogram.is_empty() || m.actuator_escalations > 0 {
        eprintln!(
            "  actuator: retries by attempt {:?}, {} escalations",
            m.actuator_retry_histogram, m.actuator_escalations
        );
    }
    eprintln!(
        "  sched: {} passes, {} considered, {} placed, max backfill depth {}",
        m.sched_passes, m.jobs_considered, m.jobs_placed, m.max_backfill_depth
    );
    eprintln!(
        "  faults: {} crashes, {} repairs, {} degrades, {} restores",
        m.node_crashes, m.node_repairs, m.pool_degrades, m.pool_restores
    );
}

/// `trace-run`: dump, filter, summarise, validate, or diff structured
/// event traces of the stress scenario.
fn cmd_trace_run(out: &mut dyn Write, a: &Args) -> Result<(), Failure> {
    let (scale, opts) = (a.scale, &a.opts);
    // --check FILE: validate an existing stream and stop.
    if let Some(path) = opts.get("check") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let n =
            dmhpc_core::trace::validate_stream(text.lines()).map_err(|e| format!("{path}: {e}"))?;
        writeln!(
            out,
            "{path}: {n} events, all lines parse, sim-time non-decreasing"
        )?;
        return Ok(());
    }
    let policy = policy_from_opts(opts)?;
    let profile = fault_profile_from_opts(opts);
    let fault_seed: u64 = opt_parse(opts, "fault-seed", exp::faults::FAULT_SEED)?;
    let summary = opts.contains_key("summary");

    // --diff A,B: same scenario and fault realisation, two sim seeds.
    if let Some(spec) = opts.get("diff") {
        let (sa, sb) = parse_seed_pair(spec)?;
        let (ta, _, _) = run_traced(scale, policy, sa, profile, fault_seed, false, None)?;
        let (tb, _, _) = run_traced(scale, policy, sb, profile, fault_seed, false, None)?;
        report_diff(out, sa, sb, &ta, &tb)?;
        return Ok(());
    }

    let seed: u64 = opt_parse(opts, "seed", exp::faults::SIM_SEED)?;
    let collector = telemetry_from_opts(opts)?.map(TelemetryCollector::new);
    let (stream, metrics, _) = run_traced(
        scale,
        policy,
        seed,
        profile,
        fault_seed,
        summary,
        collector.as_ref(),
    )?;

    // Select lines: optional kind filter and [--from, --to] sim-time
    // window (inclusive, seconds). Lines pass through byte-identical.
    let kinds = opts
        .get("filter")
        .map(|s| parse_kind_filter(s))
        .transpose()?;
    let from: f64 = opt_parse(opts, "from", f64::NEG_INFINITY)?;
    let to: f64 = opt_parse(opts, "to", f64::INFINITY)?;
    let mut kept = 0usize;
    let mut total = 0usize;
    let mut kept_lines = String::new();
    for line in stream.lines() {
        total += 1;
        let ev = dmhpc_core::trace::parse_jsonl(line)
            .map_err(|e| format!("internal: emitted line failed to parse: {e}"))?;
        if ev.t < from || ev.t > to {
            continue;
        }
        if let Some(kinds) = &kinds {
            if !kinds.iter().any(|k| k == &ev.kind) {
                continue;
            }
        }
        kept_lines.push_str(line);
        kept_lines.push('\n');
        kept += 1;
    }
    match opts.get("out") {
        Some(path) => {
            std::fs::write(path, &kept_lines).map_err(|e| format!("write {path}: {e}"))?;
            eprintln!("wrote {kept}/{total} events to {path}");
        }
        None => write!(out, "{kept_lines}")?,
    }
    if let Some(m) = metrics {
        print_trace_summary(&m);
    }
    // The JSONL stream owns stdout; telemetry goes to stderr with the
    // other run-level digests.
    if let Some(c) = collector {
        eprint!("{}", report::render(&c.snapshot(), "run telemetry"));
    }
    Ok(())
}

fn cmd_fault_sweep(out: &mut dyn Write, a: &Args) -> Result<(), Failure> {
    let opts = &a.opts;
    let seed: u64 = opt_parse(opts, "fault-seed", exp::faults::FAULT_SEED)?;
    let profile = opts.get("fault-profile").map(String::as_str);
    let common = CommonRunOpts::from_opts(opts)?;
    let telemetry_on = common.telemetry.is_some();
    let sweep = exp::faults::run(
        a.scale,
        a.threads,
        seed,
        profile,
        &common.policies,
        &common.topologies,
        &common.durable,
        common.telemetry,
    )?;
    emit(
        out,
        "Fault sweep: resilience under injected faults (stress scenario, C/R)",
        &sweep.table(),
        a.csv,
    )?;
    if !a.csv {
        for prof in exp::faults::PROFILES {
            if let Some(s) = sweep.summary(prof) {
                writeln!(
                    out,
                    "{prof}: pool availability {:.2}%, checkpoints saved {:.0}% of destroyed work",
                    s.mean_pool_availability * 100.0,
                    s.checkpoint_save_ratio() * 100.0
                )?;
            }
        }
    }
    // Wall-clock values stay off stdout: the CSV/table above is byte-
    // compared across thread counts, the profile is not deterministic.
    if telemetry_on {
        eprintln!("wall-clock phase profile (all points merged, oom nests in dynloop/recovery):");
        eprint!("{}", report::phase_table(&sweep.profile_total()).render());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::args::parse_args_from;
    use dmhpc_core::faults::FaultConfig;

    fn parse(argv: &[&str]) -> Args {
        parse_args_from(argv.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn every_command_is_named_once() {
        for (i, c) in COMMANDS.iter().enumerate() {
            assert!(
                COMMANDS[..i].iter().all(|d| d.name != c.name),
                "{} is listed twice",
                c.name
            );
            assert!(std::ptr::eq(command(c.name).unwrap(), c));
        }
        assert_eq!(command("--help").unwrap().name, "help");
        assert_eq!(command("-h").unwrap().name, "help");
        assert!(command("bogus").is_none());
    }

    #[test]
    fn unknown_fault_profile_is_rejected() {
        let err = FaultConfig::profile("chaos").unwrap_err().to_string();
        assert!(err.contains("unknown fault profile 'chaos'"), "{err}");
        for name in ["none", "light", "heavy"] {
            FaultConfig::profile(name).unwrap();
        }
    }

    /// A stdout whose reader has gone away, or that fails otherwise.
    struct ClosedStdout(io::ErrorKind);

    impl Write for ClosedStdout {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(self.0.into())
        }
        fn flush(&mut self) -> io::Result<()> {
            Err(self.0.into())
        }
    }

    #[test]
    fn closed_stdout_is_a_quiet_success() {
        for cmd in ["topologies", "policies", "table1", "help"] {
            let args = parse(&[cmd]);
            let mut out = ClosedStdout(io::ErrorKind::BrokenPipe);
            let got = (args.command.run)(&mut out, &args);
            assert!(matches!(got, Err(Failure::StdoutClosed)), "{cmd}: {got:?}");
        }
        // Any other write error is a run failure that names stdout.
        let args = parse(&["topologies", "--csv"]);
        let mut out = ClosedStdout(io::ErrorKind::StorageFull);
        match (args.command.run)(&mut out, &args) {
            Err(Failure::Run(e)) => assert!(e.starts_with("stdout:"), "{e}"),
            other => panic!("expected a run failure, got {other:?}"),
        }
        // A working writer gets the whole table.
        let mut out = Vec::new();
        (args.command.run)(&mut out, &args).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("flat") && text.contains("racks"), "{text}");
    }

    #[test]
    fn banner_names_a_scale_only_where_the_work_read_one() {
        for (argv, want) in [
            ("topologies", "[topologies in 2.0s]"),
            ("table1 --scale small", "[table1 in 2.0s]"),
            ("trace-run --check t.jsonl", "[trace-run in 2.0s]"),
            ("simulate --swf w.swf --nodes 8", "[simulate in 2.0s]"),
            ("fig5 --scale small", "[fig5 @ small scale in 2.0s]"),
            ("table2", "[table2 @ medium scale in 2.0s]"),
            ("fig5 --csv", ""),
            ("sweep-status m.jsonl", ""),
        ] {
            let args = parse(&argv.split(' ').collect::<Vec<_>>());
            assert_eq!(banner(&args, 2.0).unwrap_or_default(), want, "{argv}");
        }
    }

    #[test]
    fn trace_run_flags_parse() {
        let args = parse(&[
            "trace-run",
            "--seed",
            "7",
            "--fault-profile",
            "heavy",
            "--filter",
            "kind=job_start,mem_grow",
            "--summary",
            "--from",
            "100",
            "--to",
            "2000",
        ]);
        assert_eq!(args.command.name, "trace-run");
        assert_eq!(args.opts.get("seed").unwrap(), "7");
        assert_eq!(fault_profile_from_opts(&args.opts), "heavy");
        assert!(args.opts.contains_key("summary"));
        let kinds = parse_kind_filter(args.opts.get("filter").unwrap()).unwrap();
        assert_eq!(kinds, ["job_start", "mem_grow"]);
        let from: f64 = opt_parse(&args.opts, "from", f64::NEG_INFINITY).unwrap();
        assert_eq!(from, 100.0);
    }

    #[test]
    fn kind_filter_rejects_unknown_kinds() {
        assert!(parse_kind_filter("kind=job_start").is_ok());
        let err = parse_kind_filter("kind=job_started").unwrap_err();
        assert!(err.contains("unknown kind 'job_started'"), "{err}");
        assert!(parse_kind_filter("job_start").is_err());
        assert!(parse_kind_filter("kind=").is_err());
    }

    #[test]
    fn diff_seed_pair_parses() {
        assert_eq!(parse_seed_pair("17,18").unwrap(), (17, 18));
        assert_eq!(parse_seed_pair(" 17 , 18 ").unwrap(), (17, 18));
        assert!(parse_seed_pair("17").is_err());
        assert!(parse_seed_pair("17,x").is_err());
    }

    #[test]
    fn trace_run_stream_is_valid_and_deterministic() {
        let (a, m, _) = run_traced(
            Scale::Small,
            PolicySpec::Dynamic,
            42,
            "heavy",
            7,
            true,
            None,
        )
        .unwrap();
        // The second run adds a telemetry collector: the stream must
        // still match byte for byte (telemetry is observation-only).
        let telem = TelemetryCollector::default();
        let (b, _, _) = run_traced(
            Scale::Small,
            PolicySpec::Dynamic,
            42,
            "heavy",
            7,
            false,
            Some(&telem),
        )
        .unwrap();
        assert_eq!(a, b, "same seed must reproduce the stream byte for byte");
        let snap = telem.snapshot();
        assert!(!snap.series.samples().is_empty(), "telemetry sampled");
        assert!(!snap.profile.is_empty(), "phases were profiled");
        let n = dmhpc_core::trace::validate_stream(a.lines()).unwrap();
        assert!(n > 0, "the stress scenario must emit events");
        let m = m.unwrap();
        assert_eq!(m.total_events as usize, n, "CountingSink saw every line");
    }

    #[test]
    fn default_trace_run_is_the_fault_sweep_control_row() {
        // What `trace-run` traces when given no options...
        let args = parse(&["trace-run", "--scale", "small"]);
        let (policy, profile) = (
            policy_from_opts(&args.opts).unwrap(),
            fault_profile_from_opts(&args.opts),
        );
        assert_eq!((policy, profile), (PolicySpec::Dynamic, "none"));
        let (fault_seed, seed) = (exp::faults::FAULT_SEED, exp::faults::SIM_SEED);
        let (_, _, stats) =
            run_traced(args.scale, policy, seed, profile, fault_seed, false, None).unwrap();
        // ...is the fault sweep's (none, dynamic, flat) point, bit for bit.
        let sweep = exp::faults::run(
            Scale::Small,
            1,
            fault_seed,
            Some(profile),
            &[policy],
            &[TopologySpec::Flat],
            &DurableOptions::default(),
            None,
        )
        .unwrap();
        let [row] = &sweep.rows[..] else {
            panic!("one point expected, got {}", sweep.rows.len());
        };
        assert_eq!(row.topology, TopologySpec::Flat);
        assert_eq!(stats.completed, row.sample.completed);
        assert_eq!(stats.throughput_jps.to_bits(), row.throughput_jps.to_bits());
    }
}
