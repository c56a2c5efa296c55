//! `dmhpc` — regenerate the paper's tables and figures from the command
//! line.
//!
//! ```text
//! dmhpc <command> [--scale small|medium|full|huge] [--threads N] [--csv]
//!                 [--quiet | --progress]
//!
//! commands: table1 table2 table3 table4
//!           fig2 fig4 fig5 fig6 fig7 fig8 fig9
//!           ablate fault-sweep validate all policies
//!           export simulate chart trace-run
//!           report sweep-status help
//! ```

use dmhpc_core::cluster::TopologySpec;
use dmhpc_core::policy::PolicySpec;
use dmhpc_core::telemetry::{Profile, TelemetryCollector, TelemetrySpec};
use dmhpc_experiments::cli::{
    opt_parse, parse_args_from, progress_mode_from_opts, telemetry_from_opts, usage, Args,
    CommonRunOpts, OptMap,
};
use dmhpc_experiments::durable::{DurableError, PointStatus, ResumeState, EXIT_INTERRUPTED};
use dmhpc_experiments::exp;
use dmhpc_experiments::report;
use dmhpc_experiments::runner::set_progress_mode;
use dmhpc_experiments::scale::Scale;
use dmhpc_experiments::table::TextTable;
use std::io::{self, Write};

/// Why a command stopped early. Usage errors exit 2, run failures
/// (including failed sweep points) exit 1, and a gracefully drained
/// interruption exits [`EXIT_INTERRUPTED`] so scripts can tell
/// "interrupted cleanly, resume me" from "crashed". A reader that
/// closed stdout (`dmhpc ... | head -1`) got what it wanted: that exit
/// is quiet and successful.
#[derive(Debug)]
enum Failure {
    Run(String),
    Interrupted(String),
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

fn parse_args() -> Result<Args, String> {
    parse_args_from(std::env::args().skip(1))
}

/// `dmhpc policies`: the registry as a table.
fn cmd_policies(out: &mut dyn Write, csv: bool) -> io::Result<()> {
    let mut t = TextTable::new(vec!["name", "parameters", "default spec", "description"]);
    for info in PolicySpec::registry() {
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
    emit(
        out,
        "Memory-policy registry (--policy / --policies specs)",
        &t,
        csv,
    )
}

/// `dmhpc topologies`: the fabric-topology registry as a table.
fn cmd_topologies(out: &mut dyn Write, csv: bool) -> io::Result<()> {
    let mut t = TextTable::new(vec!["name", "parameters", "default spec", "description"]);
    for info in TopologySpec::registry() {
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
    emit(out, "Fabric-topology registry (--topology specs)", &t, csv)
}

/// `dmhpc sweep-status <manifest>`: inspect a durable-sweep journal —
/// header identity, completed/failed/pending counts, per-point wall
/// time and failure reasons, and (when points were
/// profiled with `--telemetry`) the merged phase-time breakdown.
fn cmd_sweep_status(out: &mut dyn Write, opts: &OptMap) -> Result<(), Failure> {
    let path = opts
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

fn cmd_export(out: &mut dyn Write, scale: Scale, opts: &OptMap) -> Result<(), Failure> {
    use dmhpc_core::config::SystemConfig;
    let dir = opts.get("out").ok_or("export requires --out DIR")?.clone();
    let jobs: usize = opt_parse(opts, "jobs", scale.synthetic_jobs())?;
    let large: f64 = opt_parse(opts, "large", 0.5)?;
    let over: f64 = opt_parse(opts, "over", 0.0)?;
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

fn cmd_chart(
    out: &mut dyn Write,
    scale: Scale,
    threads: usize,
    opts: &OptMap,
) -> Result<(), Failure> {
    use dmhpc_experiments::chart::sweep_panel;
    use dmhpc_experiments::{ThroughputSweep, TraceSpec};
    let large: f64 = opt_parse(opts, "large", 0.5)?;
    let over: f64 = opt_parse(opts, "over", 0.6)?;
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
    let sweep = ThroughputSweep::run_durable(
        "chart",
        scale,
        &[trace],
        &overs,
        threads,
        &common.policies,
        &common.topologies,
        &common.durable,
    )?;
    write!(out, "{}", sweep_panel(&sweep, &trace.label(), over, width))?;
    Ok(())
}

fn cmd_simulate(out: &mut dyn Write, scale: Scale, opts: &OptMap) -> Result<(), Failure> {
    use dmhpc_core::cluster::MemoryMix;
    use dmhpc_core::config::SystemConfig;
    use dmhpc_core::sim::SimBuilder;
    let swf_path = opts.get("swf").ok_or("simulate requires --swf FILE")?;
    let swf_text = std::fs::read_to_string(swf_path).map_err(|e| format!("{swf_path}: {e}"))?;
    let usage_text = match opts.get("usage") {
        Some(p) => Some(std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?),
        None => None,
    };
    let policy: PolicySpec = opts
        .get("policy")
        .map(String::as_str)
        .unwrap_or("dynamic")
        .parse()
        .map_err(|e| format!("--policy: {e}"))?;
    let nodes: u32 = opt_parse(opts, "nodes", scale.synthetic_nodes())?;
    let large_nodes: f64 = opt_parse(opts, "large-nodes", 1.0)?;
    let workload = dmhpc_traces::workload_from_text(
        &swf_text,
        usage_text.as_deref(),
        &dmhpc_traces::ImportOptions::default(),
    )
    .map_err(String::from)?;
    let system = SystemConfig::with_nodes(nodes).with_memory_mix(MemoryMix::new(
        64 * 1024,
        128 * 1024,
        large_nodes,
    ));
    let n_jobs = workload.len();
    let collector = telemetry_from_opts(opts)?.map(TelemetryCollector::new);
    let mut sim = SimBuilder::new(system, workload).policy(policy);
    if let Some(c) = &collector {
        sim = sim.telemetry(c.clone());
    }
    let outcome = sim.run();
    let mut t = TextTable::new(vec!["metric", "value"]);
    t.row(vec!["jobs".to_string(), n_jobs.to_string()]);
    t.row(vec!["policy".to_string(), policy.to_string()]);
    t.row(vec!["feasible".to_string(), outcome.feasible.to_string()]);
    t.row(vec![
        "completed".to_string(),
        outcome.stats.completed.to_string(),
    ]);
    t.row(vec![
        "unschedulable".to_string(),
        outcome.stats.unschedulable.to_string(),
    ]);
    t.row(vec![
        "oom kill events".to_string(),
        outcome.stats.oom_kills.to_string(),
    ]);
    t.row(vec![
        "jobs OOM-killed".to_string(),
        outcome.stats.jobs_oom_killed.to_string(),
    ]);
    t.row(vec![
        "makespan (s)".to_string(),
        format!("{:.0}", outcome.stats.makespan_s),
    ]);
    t.row(vec![
        "throughput (jobs/h)".to_string(),
        format!("{:.3}", outcome.stats.throughput_jps * 3600.0),
    ]);
    t.row(vec![
        "node utilization".to_string(),
        format!("{:.1}%", outcome.stats.avg_node_utilization * 100.0),
    ]);
    t.row(vec![
        "memory utilization".to_string(),
        format!("{:.1}%", outcome.stats.avg_mem_utilization * 100.0),
    ]);
    t.row(vec![
        "mean slowdown".to_string(),
        format!("{:.3}", outcome.stats.mean_slowdown),
    ]);
    if let Ok(e) = dmhpc_metrics::ecdf::Ecdf::new(outcome.response_times_s.clone()) {
        t.row(vec![
            "median response (s)".to_string(),
            format!("{:.0}", e.median()),
        ]);
        t.row(vec![
            "p95 response (s)".to_string(),
            format!("{:.0}", e.quantile(0.95)),
        ]);
    }
    emit(out, "Simulation result", &t, false)?;
    if let Some(c) = collector {
        write!(out, "{}", report::render(&c.snapshot(), "run telemetry"))?;
    }
    Ok(())
}

/// The scenario `trace-run` traces: the fault sweep's stress system
/// (underprovisioned, 25% large nodes, Checkpoint/Restart) under the
/// 50%-large +60%-overestimation workload, so traces exercise the
/// dynamic-memory loop, the fairness ladder, and the fault machinery.
fn trace_scenario(
    scale: Scale,
    profile: &str,
    fault_seed: u64,
) -> Result<(dmhpc_core::config::SystemConfig, dmhpc_core::sim::Workload), String> {
    use dmhpc_core::cluster::MemoryMix;
    use dmhpc_core::config::RestartStrategy;
    use dmhpc_core::faults::FaultConfig;
    use dmhpc_experiments::scenario::{synthetic_system, synthetic_workload, BASE_SEED};
    let faults = FaultConfig::profile(profile)
        .map_err(|e| format!("--fault-profile: {e}"))?
        .with_seed(fault_seed);
    let system = synthetic_system(scale, MemoryMix::new(64 * 1024, 128 * 1024, 0.25))
        .with_restart(RestartStrategy::CheckpointRestart)
        .with_faults(faults);
    let workload = synthetic_workload(scale, 0.5, 0.6, BASE_SEED ^ 0xFA);
    Ok((system, workload))
}

/// Run one traced simulation of the [`trace_scenario`]; returns the
/// JSONL stream and, when `want_metrics`, the folded [`RunMetrics`].
/// When `telemetry` is given, the run is additionally observed through
/// that collector (read it back with
/// [`TelemetryCollector::snapshot`] after this returns).
///
/// [`RunMetrics`]: dmhpc_core::RunMetrics
fn run_traced(
    scale: Scale,
    policy: PolicySpec,
    seed: u64,
    profile: &str,
    fault_seed: u64,
    want_metrics: bool,
    telemetry: Option<&TelemetryCollector>,
) -> Result<(String, Option<dmhpc_core::RunMetrics>), String> {
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
    sim.run();
    jsonl.flush().map_err(|e| format!("trace stream: {e}"))?;
    if let Some(e) = jsonl.error() {
        return Err(format!("trace stream: {e}"));
    }
    Ok((buf.contents(), counting.map(|c| c.metrics())))
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
fn cmd_report(out: &mut dyn Write, scale: Scale, opts: &OptMap) -> Result<(), Failure> {
    use dmhpc_core::sim::SimBuilder;
    use dmhpc_experiments::scenario::BASE_SEED;
    let policy: PolicySpec = opts
        .get("policy")
        .map(String::as_str)
        .unwrap_or("dynamic")
        .parse()
        .map_err(|e| format!("--policy: {e}"))?;
    let profile = opts
        .get("fault-profile")
        .map(String::as_str)
        .unwrap_or("none");
    let fault_seed: u64 = opt_parse(opts, "fault-seed", exp::faults::FAULT_SEED)?;
    let seed: u64 = opt_parse(opts, "seed", BASE_SEED ^ 0xFA17)?;
    let interval: f64 = opt_parse(opts, "sample-interval", 60.0)?;
    if !interval.is_finite() || interval <= 0.0 {
        return Err(format!(
            "--sample-interval: must be a positive number of seconds, got {interval}"
        )
        .into());
    }
    let format = opts.get("format").map(String::as_str).unwrap_or("table");
    let (system, workload) = trace_scenario(scale, profile, fault_seed)?;
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
fn print_trace_summary(m: &dmhpc_core::RunMetrics) {
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
fn cmd_trace_run(out: &mut dyn Write, scale: Scale, opts: &OptMap) -> Result<(), Failure> {
    use dmhpc_experiments::scenario::BASE_SEED;
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
    let policy: PolicySpec = opts
        .get("policy")
        .map(String::as_str)
        .unwrap_or("dynamic")
        .parse()
        .map_err(|e| format!("--policy: {e}"))?;
    let profile = opts
        .get("fault-profile")
        .map(String::as_str)
        .unwrap_or("none");
    let fault_seed: u64 = opt_parse(opts, "fault-seed", exp::faults::FAULT_SEED)?;
    let summary = opts.contains_key("summary");

    // --diff A,B: same scenario and fault realisation, two sim seeds.
    if let Some(spec) = opts.get("diff") {
        let (sa, sb) = parse_seed_pair(spec)?;
        let (ta, _) = run_traced(scale, policy, sa, profile, fault_seed, false, None)?;
        let (tb, _) = run_traced(scale, policy, sb, profile, fault_seed, false, None)?;
        report_diff(out, sa, sb, &ta, &tb)?;
        return Ok(());
    }

    let seed: u64 = opt_parse(opts, "seed", BASE_SEED ^ 0xFA17)?;
    let collector = telemetry_from_opts(opts)?.map(TelemetryCollector::new);
    let (stream, metrics) = run_traced(
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

fn cmd_fault_sweep(
    out: &mut dyn Write,
    scale: Scale,
    threads: usize,
    csv: bool,
    opts: &OptMap,
) -> Result<(), Failure> {
    let seed: u64 = opt_parse(opts, "fault-seed", exp::faults::FAULT_SEED)?;
    let profile = opts.get("fault-profile").map(String::as_str);
    let common = CommonRunOpts::from_opts(opts)?;
    let telemetry_on = common.telemetry.is_some();
    let sweep = exp::faults::run_opts_durable(
        scale,
        threads,
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
        csv,
    )?;
    if !csv {
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

/// Write one table: a titled rendering, or bare CSV.
fn emit(out: &mut dyn Write, title: &str, t: &TextTable, csv: bool) -> io::Result<()> {
    if csv {
        write!(out, "{}", t.to_csv())
    } else {
        writeln!(out, "== {title} ==")?;
        write!(out, "{}", t.render())?;
        writeln!(out)
    }
}

fn run_command(
    out: &mut dyn Write,
    cmd: &str,
    scale: Scale,
    threads: usize,
    csv: bool,
    opts: &OptMap,
) -> Result<(), Failure> {
    match cmd {
        "table1" => emit(out, "Table 1: trace sources", &exp::tables::table1(), csv)?,
        "table2" => emit(
            out,
            "Table 2: max memory usage per node (% of jobs)",
            &exp::tables::table2(scale),
            csv,
        )?,
        "table3" => emit(
            out,
            "Table 3: normal vs large memory job characteristics",
            &exp::tables::table3(scale),
            csv,
        )?,
        "table4" => emit(
            out,
            "Table 4: simulated system configurations",
            &exp::tables::table4(),
            csv,
        )?,
        "fig2" => {
            let f = exp::fig2::run(scale, threads);
            emit(out, "Figure 2: Grizzly week sampling", &f.table(), csv)?;
            if !csv {
                writeln!(
                    out,
                    "selected weeks all >=70% util: {}",
                    f.selection_is_high_util()
                )?;
            }
        }
        "fig4" => {
            let f = exp::fig4::run(scale, threads);
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
        }
        "fig5" => {
            let common = CommonRunOpts::from_opts(opts)?;
            let f = exp::fig5::run_durable(
                scale,
                threads,
                &common.policies,
                &common.topologies,
                &common.durable,
            )?;
            emit(out, "Figure 5: normalized throughput", &f.table(), csv)?;
            if !csv {
                if let Some((trace, over, mem, gain)) = f.max_dynamic_gain() {
                    writeln!(out,
                        "max dynamic-over-static gain: +{:.1}% ({trace}, +{:.0}% overest, {mem}% memory)",
                        gain * 100.0,
                        over * 100.0
                    )?;
                }
            }
        }
        "fig6" => {
            let f = exp::fig6::run(scale, threads);
            emit(out, "Figure 6: response-time quantiles", &f.table(), csv)?;
            if !csv {
                if let Some(r) = f.median_reduction(exp::fig6::Provisioning::Under, 0.6) {
                    writeln!(
                        out,
                        "median response reduction (underprovisioned, +60%): {:.0}%",
                        r * 100.0
                    )?;
                }
            }
        }
        "fig7" => {
            let f = exp::fig7::run(scale, threads);
            emit(out, "Figure 7: throughput per dollar", &f.table(), csv)?;
            if !csv {
                if let Some(adv) = f.max_dynamic_advantage(0.6) {
                    writeln!(out, "max dynamic advantage at +60%: +{:.1}%", adv * 100.0)?;
                }
            }
        }
        "fig8" => {
            let common = CommonRunOpts::from_opts(opts)?;
            let f = exp::fig8::run_durable(
                scale,
                threads,
                &common.policies,
                &common.topologies,
                &common.durable,
            )?;
            emit(
                out,
                "Figure 8: throughput vs overestimation",
                &f.table(),
                csv,
            )?;
            if !csv {
                if let Some(gap) = f.gap_at_37("large 50%", 1.0) {
                    writeln!(
                        out,
                        "dynamic-static gap at 37% memory, +100% overest: {:.1} pp",
                        gap * 100.0
                    )?;
                }
            }
        }
        "fig9" => {
            let f = exp::fig9::run(scale, threads);
            emit(
                out,
                "Figure 9: min memory for 95% throughput",
                &f.table(),
                csv,
            )?;
        }
        "ablate" => {
            let a = exp::ablations::run(scale, threads);
            emit(
                out,
                "Ablations (dynamic policy, stress scenario)",
                &a.table(),
                csv,
            )?;
        }
        "validate" => {
            let v = exp::validate::run(scale, threads);
            emit(
                out,
                "Validation of the paper's headline claims",
                &v.table(),
                csv,
            )?;
            if !v.all_pass() {
                return Err("some claims failed validation".to_string().into());
            }
        }
        "policies" => cmd_policies(out, csv)?,
        "topologies" => cmd_topologies(out, csv)?,
        "all" => {
            for c in [
                "table1", "table2", "table3", "table4", "fig2", "fig4", "fig5", "fig6", "fig7",
            ] {
                run_command(out, c, scale, threads, csv, opts)?;
            }
            // Figures 8 and 9 share one sweep; run it once.
            let f8 = exp::fig8::run_with_policies(
                scale,
                threads,
                &CommonRunOpts::from_opts(opts)?.policies,
            );
            emit(
                out,
                "Figure 8: throughput vs overestimation",
                &f8.table(),
                csv,
            )?;
            let f9 = exp::fig9::derive(&f8, "large 50%");
            emit(
                out,
                "Figure 9: min memory for 95% throughput",
                &f9.table(),
                csv,
            )?;
            run_command(out, "ablate", scale, threads, csv, opts)?;
        }
        other => return Err(format!("unknown command '{other}'\n{}", usage()).into()),
    }
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    // Every command writes its results through this one locked handle.
    let mut out = io::stdout().lock();
    if matches!(args.command.as_str(), "help" | "--help" | "-h") {
        // A closed pipe is the only way this can fail; it is no error.
        let _ = writeln!(out, "{}", usage());
        return;
    }
    match progress_mode_from_opts(&args.opts) {
        Ok(mode) => set_progress_mode(mode),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
    let start = std::time::Instant::now();
    let out = &mut out;
    let result = match args.command.as_str() {
        "export" => cmd_export(out, args.scale, &args.opts),
        "trace-run" => cmd_trace_run(out, args.scale, &args.opts),
        "fault-sweep" => cmd_fault_sweep(out, args.scale, args.threads, args.csv, &args.opts),
        "simulate" => cmd_simulate(out, args.scale, &args.opts),
        "chart" => cmd_chart(out, args.scale, args.threads, &args.opts),
        "sweep-status" => cmd_sweep_status(out, &args.opts),
        "report" => cmd_report(out, args.scale, &args.opts),
        cmd => run_command(out, cmd, args.scale, args.threads, args.csv, &args.opts),
    };
    match result.and_then(|()| out.flush().map_err(Failure::from)) {
        Ok(()) => {}
        Err(Failure::StdoutClosed) => return,
        Err(Failure::Run(e)) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
        Err(Failure::Interrupted(e)) => {
            eprintln!("{e}");
            std::process::exit(EXIT_INTERRUPTED);
        }
    }
    if let Some(line) = banner(&args, start.elapsed().as_secs_f64()) {
        eprintln!("{line}");
    }
}

/// The stderr line that closes a run: the command, the scale when its
/// work read one, and the wall time. `None` for `--csv` runs and for
/// `sweep-status`, which only reads a manifest.
fn banner(args: &Args, secs: f64) -> Option<String> {
    let cmd = args.command.as_str();
    if args.csv || cmd == "sweep-status" {
        return None;
    }
    let scale_free = matches!(cmd, "table1" | "table4" | "policies" | "topologies")
        || (cmd == "trace-run" && args.opts.contains_key("check"))
        || (cmd == "simulate" && args.opts.contains_key("nodes"));
    Some(if scale_free {
        format!("[{cmd} in {secs:.1}s]")
    } else {
        format!("[{cmd} @ {} scale in {secs:.1}s]", args.scale.label())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmhpc_core::faults::FaultConfig;

    fn parse(argv: &[&str]) -> Result<Args, String> {
        parse_args_from(argv.iter().map(|s| s.to_string()))
    }

    #[test]
    fn unknown_fault_profile_is_rejected() {
        let err = FaultConfig::profile("chaos").unwrap_err().to_string();
        assert!(err.contains("unknown fault profile 'chaos'"), "{err}");
        for name in ["none", "light", "heavy"] {
            FaultConfig::profile(name).unwrap();
        }
    }

    #[test]
    fn unknown_command_error_lists_trace_run() {
        let opts = std::collections::HashMap::new();
        let mut out = Vec::new();
        let err = match run_command(&mut out, "bogus", Scale::Small, 1, false, &opts) {
            Err(Failure::Run(e)) => e,
            other => panic!("expected a run failure, got {other:?}"),
        };
        assert!(err.contains("unknown command 'bogus'"), "{err}");
        assert!(err.contains("trace-run"), "{err}");
        assert!(out.is_empty());
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
        let opts = std::collections::HashMap::new();
        for cmd in ["topologies", "policies", "table1"] {
            let mut out = ClosedStdout(io::ErrorKind::BrokenPipe);
            let got = run_command(&mut out, cmd, Scale::Small, 1, false, &opts);
            assert!(matches!(got, Err(Failure::StdoutClosed)), "{cmd}: {got:?}");
        }
        // Any other write error is a run failure that names stdout.
        let mut out = ClosedStdout(io::ErrorKind::StorageFull);
        match run_command(&mut out, "topologies", Scale::Small, 1, true, &opts) {
            Err(Failure::Run(e)) => assert!(e.starts_with("stdout:"), "{e}"),
            other => panic!("expected a run failure, got {other:?}"),
        }
        // A working writer gets the whole table.
        let mut out = Vec::new();
        run_command(&mut out, "topologies", Scale::Small, 1, true, &opts).unwrap();
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
            let args = parse(&argv.split(' ').collect::<Vec<_>>()).unwrap();
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
        ])
        .unwrap();
        assert_eq!(args.command, "trace-run");
        assert_eq!(args.opts.get("seed").unwrap(), "7");
        assert_eq!(args.opts.get("fault-profile").unwrap(), "heavy");
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
        let (a, m) = run_traced(
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
        let (b, _) = run_traced(
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
}
