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

/// Why `dmhpc` is exiting nonzero. Usage errors exit 2, run failures
/// (including failed sweep points) exit 1, and a gracefully drained
/// interruption exits [`EXIT_INTERRUPTED`] so scripts can tell
/// "interrupted cleanly, resume me" from "crashed".
enum Failure {
    Run(String),
    Interrupted(String),
}

impl From<String> for Failure {
    fn from(msg: String) -> Self {
        Failure::Run(msg)
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
fn cmd_policies(csv: bool) {
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
        "Memory-policy registry (--policy / --policies specs)",
        &t,
        csv,
    );
}

/// `dmhpc topologies`: the fabric-topology registry as a table.
fn cmd_topologies(csv: bool) {
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
    emit("Fabric-topology registry (--topology specs)", &t, csv);
}

/// `dmhpc sweep-status <manifest>`: inspect a durable-sweep journal —
/// header identity, completed/failed/pending counts, per-point
/// attempts, wall time and failure reasons, and (when points were
/// profiled with `--telemetry`) the merged phase-time breakdown.
fn cmd_sweep_status(opts: &OptMap) -> Result<(), String> {
    let path = opts
        .get("manifest")
        .ok_or("sweep-status requires a manifest path")?;
    let state = ResumeState::load(path).map_err(|e| e.to_string())?;
    let (done, failed, pending) = state.counts();
    let h = &state.header;
    println!("manifest {path}");
    println!(
        "run {}  format {}  version {}  config {}",
        h.run, h.format, h.version, h.config
    );
    println!(
        "points {}  completed {done}  failed {failed}  pending {pending}",
        h.points
    );
    if state.records.is_empty() {
        return Ok(());
    }
    let mut t = TextTable::new(vec!["status", "attempts", "wall_s", "reason", "point"]);
    let mut profile_total = Profile::default();
    let mut profiled = 0usize;
    for (fp, status) in &state.records {
        match status {
            PointStatus::Done {
                attempts,
                wall_ms,
                payload,
            } => {
                if let Some(p) = report::profile_from_payload(payload) {
                    profile_total.merge(&p);
                    profiled += 1;
                }
                t.row(vec![
                    "done".to_string(),
                    attempts.to_string(),
                    format!("{:.3}", *wall_ms as f64 / 1000.0),
                    "-".to_string(),
                    fp.clone(),
                ]);
            }
            PointStatus::Failed { attempts, error } => {
                t.row(vec![
                    "failed".to_string(),
                    attempts.to_string(),
                    "-".to_string(),
                    error.lines().next().unwrap_or("").to_string(),
                    fp.clone(),
                ]);
            }
        }
    }
    print!("{}", t.render());
    if profiled > 0 {
        println!("phase-time breakdown ({profiled} profiled points, wall clock):");
        print!("{}", report::phase_table(&profile_total).render());
    }
    Ok(())
}

fn cmd_export(scale: Scale, opts: &OptMap) -> Result<(), String> {
    use dmhpc_core::config::SystemConfig;
    let out = opts.get("out").ok_or("export requires --out DIR")?.clone();
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
    std::fs::create_dir_all(&out).map_err(|e| format!("mkdir {out}: {e}"))?;
    let swf_path = format!("{out}/workload.swf");
    let usage_path = format!("{out}/usage.txt");
    std::fs::write(&swf_path, dmhpc_traces::swf::write(&records, &note))
        .map_err(|e| format!("{swf_path}: {e}"))?;
    let usage = dmhpc_traces::usagefile::from_workload(&workload);
    std::fs::write(&usage_path, dmhpc_traces::usagefile::write(&usage))
        .map_err(|e| format!("{usage_path}: {e}"))?;
    let stats = dmhpc_traces::WorkloadStats::of(&workload);
    println!(
        "wrote {} jobs to {swf_path} and {usage_path}",
        workload.len()
    );
    println!(
        "  large-memory jobs: {} | offered load vs {} nodes: {:.2} | \
         mean peak {:.0} MB (headroom ×{:.2}) | mean overestimation {:+.0}%",
        stats.large_memory_jobs,
        system.nodes,
        stats.offered_load(system.nodes),
        stats.mean_peak_mb,
        stats.headroom_ratio(),
        stats.mean_overestimation * 100.0
    );
    Ok(())
}

fn cmd_chart(scale: Scale, threads: usize, opts: &OptMap) -> Result<(), Failure> {
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
    print!("{}", sweep_panel(&sweep, &trace.label(), over, width));
    Ok(())
}

fn cmd_simulate(scale: Scale, opts: &OptMap) -> Result<(), String> {
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
    )?;
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
    let out = sim.run();
    let mut t = TextTable::new(vec!["metric", "value"]);
    t.row(vec!["jobs".to_string(), n_jobs.to_string()]);
    t.row(vec!["policy".to_string(), policy.to_string()]);
    t.row(vec!["feasible".to_string(), out.feasible.to_string()]);
    t.row(vec![
        "completed".to_string(),
        out.stats.completed.to_string(),
    ]);
    t.row(vec![
        "unschedulable".to_string(),
        out.stats.unschedulable.to_string(),
    ]);
    t.row(vec![
        "oom kill events".to_string(),
        out.stats.oom_kills.to_string(),
    ]);
    t.row(vec![
        "jobs OOM-killed".to_string(),
        out.stats.jobs_oom_killed.to_string(),
    ]);
    t.row(vec![
        "makespan (s)".to_string(),
        format!("{:.0}", out.stats.makespan_s),
    ]);
    t.row(vec![
        "throughput (jobs/h)".to_string(),
        format!("{:.3}", out.stats.throughput_jps * 3600.0),
    ]);
    t.row(vec![
        "node utilization".to_string(),
        format!("{:.1}%", out.stats.avg_node_utilization * 100.0),
    ]);
    t.row(vec![
        "memory utilization".to_string(),
        format!("{:.1}%", out.stats.avg_mem_utilization * 100.0),
    ]);
    t.row(vec![
        "mean slowdown".to_string(),
        format!("{:.3}", out.stats.mean_slowdown),
    ]);
    if let Ok(e) = dmhpc_metrics::ecdf::Ecdf::new(out.response_times_s.clone()) {
        t.row(vec![
            "median response (s)".to_string(),
            format!("{:.0}", e.median()),
        ]);
        t.row(vec![
            "p95 response (s)".to_string(),
            format!("{:.0}", e.quantile(0.95)),
        ]);
    }
    emit("Simulation result", &t, false);
    if let Some(c) = collector {
        print!("{}", report::render(&c.snapshot(), "run telemetry"));
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
#[allow(clippy::too_many_arguments)]
fn run_traced(
    scale: Scale,
    policy: PolicySpec,
    seed: u64,
    profile: &str,
    fault_seed: u64,
    sample_s: f64,
    want_metrics: bool,
    telemetry: Option<&TelemetryCollector>,
) -> Result<(String, Option<dmhpc_core::RunMetrics>), String> {
    use dmhpc_core::sim::SimBuilder;
    use dmhpc_core::{CountingSink, FanoutSink, JsonlSink, TraceSink};
    let (system, workload) = trace_scenario(scale, profile, fault_seed)?;
    let (jsonl, buf) = JsonlSink::buffered();
    let counting = want_metrics.then(|| CountingSink::new(sample_s));
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
fn report_diff(seed_a: u64, seed_b: u64, a: &str, b: &str) {
    let la: Vec<&str> = a.lines().collect();
    let lb: Vec<&str> = b.lines().collect();
    for (i, (x, y)) in la.iter().zip(&lb).enumerate() {
        if x != y {
            println!(
                "seeds {seed_a} and {seed_b} diverge at event {} ({} vs {} events total):",
                i + 1,
                la.len(),
                lb.len()
            );
            println!("  seed {seed_a}: {x}");
            println!("  seed {seed_b}: {y}");
            return;
        }
    }
    if la.len() != lb.len() {
        let (longer_seed, longer, shorter) = if la.len() > lb.len() {
            (seed_a, &la, lb.len())
        } else {
            (seed_b, &lb, la.len())
        };
        println!(
            "streams agree for all {shorter} shared events, then seed {longer_seed} continues:"
        );
        println!("  {}", longer[shorter]);
        return;
    }
    println!(
        "seeds {seed_a} and {seed_b} produced identical traces ({} events)",
        la.len()
    );
}

/// `dmhpc report`: run the stress scenario ([`trace_scenario`]) under
/// full telemetry and render the result — gauge sparklines, quantile
/// summaries and the wall-clock phase profile by default, or one of the
/// deterministic machine exports with `--format prom|csv|jsonl` (equal
/// seeds produce byte-identical export streams; the wall-clock profile
/// never enters them).
fn cmd_report(scale: Scale, opts: &OptMap) -> Result<(), String> {
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
        ));
    }
    let format = opts.get("format").map(String::as_str).unwrap_or("table");
    let (system, workload) = trace_scenario(scale, profile, fault_seed)?;
    let collector = TelemetryCollector::new(TelemetrySpec::with_interval(interval));
    let out = SimBuilder::new(system, workload)
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
                out.stats.completed,
                out.stats.oom_kills,
                out.stats.throughput_jps * 3600.0
            ));
            s
        }
        other => {
            return Err(format!(
                "--format: unknown format '{other}' (expected table, prom, csv, or jsonl)"
            ))
        }
    };
    match opts.get("out") {
        Some(path) => {
            std::fs::write(path, &rendered).map_err(|e| format!("write {path}: {e}"))?;
            eprintln!("wrote {format} report to {path}");
        }
        None => print!("{rendered}"),
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
    eprintln!(
        "  series: {} queue-depth and {} pool-util samples every {:.0}s",
        m.queue_depth_series.len(),
        m.pool_util_series.len(),
        m.sample_interval_s
    );
}

/// `trace-run`: dump, filter, summarise, validate, or diff structured
/// event traces of the stress scenario.
fn cmd_trace_run(scale: Scale, opts: &OptMap) -> Result<(), String> {
    use dmhpc_experiments::scenario::BASE_SEED;
    // --check FILE: validate an existing stream and stop.
    if let Some(path) = opts.get("check") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let n =
            dmhpc_core::trace::validate_stream(text.lines()).map_err(|e| format!("{path}: {e}"))?;
        println!("{path}: {n} events, all lines parse, sim-time non-decreasing");
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
    let sample_s: f64 = opt_parse(opts, "sample-s", 900.0)?;
    let summary = opts.contains_key("summary");

    // --diff A,B: same scenario and fault realisation, two sim seeds.
    if let Some(spec) = opts.get("diff") {
        let (sa, sb) = parse_seed_pair(spec)?;
        let (ta, _) = run_traced(
            scale, policy, sa, profile, fault_seed, sample_s, false, None,
        )?;
        let (tb, _) = run_traced(
            scale, policy, sb, profile, fault_seed, sample_s, false, None,
        )?;
        report_diff(sa, sb, &ta, &tb);
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
        sample_s,
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
    let mut out = String::new();
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
        out.push_str(line);
        out.push('\n');
        kept += 1;
    }
    match opts.get("out") {
        Some(path) => {
            std::fs::write(path, &out).map_err(|e| format!("write {path}: {e}"))?;
            eprintln!("wrote {kept}/{total} events to {path}");
        }
        None => print!("{out}"),
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

fn cmd_fault_sweep(scale: Scale, threads: usize, csv: bool, opts: &OptMap) -> Result<(), Failure> {
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
        "Fault sweep: resilience under injected faults (stress scenario, C/R)",
        &sweep.table(),
        csv,
    );
    if !csv {
        for prof in exp::faults::PROFILES {
            if let Some(s) = sweep.summary(prof) {
                println!(
                    "{prof}: pool availability {:.2}%, checkpoints saved {:.0}% of destroyed work",
                    s.mean_pool_availability * 100.0,
                    s.checkpoint_save_ratio() * 100.0
                );
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

fn emit(title: &str, t: &TextTable, csv: bool) {
    if csv {
        print!("{}", t.to_csv());
    } else {
        println!("== {title} ==");
        print!("{}", t.render());
        println!();
    }
}

fn run_command(
    cmd: &str,
    scale: Scale,
    threads: usize,
    csv: bool,
    opts: &OptMap,
) -> Result<(), Failure> {
    match cmd {
        "table1" => emit("Table 1: trace sources", &exp::tables::table1(), csv),
        "table2" => emit(
            "Table 2: max memory usage per node (% of jobs)",
            &exp::tables::table2(scale),
            csv,
        ),
        "table3" => emit(
            "Table 3: normal vs large memory job characteristics",
            &exp::tables::table3(scale),
            csv,
        ),
        "table4" => emit(
            "Table 4: simulated system configurations",
            &exp::tables::table4(),
            csv,
        ),
        "fig2" => {
            let f = exp::fig2::run(scale, threads);
            emit("Figure 2: Grizzly week sampling", &f.table(), csv);
            if !csv {
                println!(
                    "selected weeks all >=70% util: {}",
                    f.selection_is_high_util()
                );
            }
        }
        "fig4" => {
            let f = exp::fig4::run(scale, threads);
            emit(
                "Figure 4a: average memory usage heatmap",
                &f.avg_table(),
                csv,
            );
            emit(
                "Figure 4b: maximum memory usage heatmap",
                &f.max_table(),
                csv,
            );
            if !csv {
                println!(
                    "mass below 12 GB: avg {:.1}% vs max {:.1}%",
                    f.avg_mass_below_12gb(),
                    f.max_mass_below_12gb()
                );
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
            emit("Figure 5: normalized throughput", &f.table(), csv);
            if !csv {
                if let Some((trace, over, mem, gain)) = f.max_dynamic_gain() {
                    println!(
                        "max dynamic-over-static gain: +{:.1}% ({trace}, +{:.0}% overest, {mem}% memory)",
                        gain * 100.0,
                        over * 100.0
                    );
                }
            }
        }
        "fig6" => {
            let f = exp::fig6::run(scale, threads);
            emit("Figure 6: response-time quantiles", &f.table(), csv);
            if !csv {
                if let Some(r) = f.median_reduction(exp::fig6::Provisioning::Under, 0.6) {
                    println!(
                        "median response reduction (underprovisioned, +60%): {:.0}%",
                        r * 100.0
                    );
                }
            }
        }
        "fig7" => {
            let f = exp::fig7::run(scale, threads);
            emit("Figure 7: throughput per dollar", &f.table(), csv);
            if !csv {
                if let Some(adv) = f.max_dynamic_advantage(0.6) {
                    println!("max dynamic advantage at +60%: +{:.1}%", adv * 100.0);
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
            emit("Figure 8: throughput vs overestimation", &f.table(), csv);
            if !csv {
                if let Some(gap) = f.gap_at_37("large 50%", 1.0) {
                    println!(
                        "dynamic-static gap at 37% memory, +100% overest: {:.1} pp",
                        gap * 100.0
                    );
                }
            }
        }
        "fig9" => {
            let f = exp::fig9::run(scale, threads);
            emit("Figure 9: min memory for 95% throughput", &f.table(), csv);
        }
        "ablate" => {
            let a = exp::ablations::run(scale, threads);
            emit(
                "Ablations (dynamic policy, stress scenario)",
                &a.table(),
                csv,
            );
        }
        "validate" => {
            let v = exp::validate::run(scale, threads);
            emit("Validation of the paper's headline claims", &v.table(), csv);
            if !v.all_pass() {
                return Err("some claims failed validation".to_string().into());
            }
        }
        "policies" => cmd_policies(csv),
        "topologies" => cmd_topologies(csv),
        "all" => {
            for c in [
                "table1", "table2", "table3", "table4", "fig2", "fig4", "fig5", "fig6", "fig7",
            ] {
                run_command(c, scale, threads, csv, opts)?;
            }
            // Figures 8 and 9 share one sweep; run it once.
            let f8 = exp::fig8::run_with_policies(
                scale,
                threads,
                &CommonRunOpts::from_opts(opts)?.policies,
            );
            emit("Figure 8: throughput vs overestimation", &f8.table(), csv);
            let f9 = exp::fig9::derive(&f8, "large 50%");
            emit("Figure 9: min memory for 95% throughput", &f9.table(), csv);
            run_command("ablate", scale, threads, csv, opts)?;
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
    if matches!(args.command.as_str(), "help" | "--help" | "-h") {
        println!("{}", usage());
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
    let result = match args.command.as_str() {
        "export" => cmd_export(args.scale, &args.opts).map_err(Failure::Run),
        "trace-run" => cmd_trace_run(args.scale, &args.opts).map_err(Failure::Run),
        "fault-sweep" => cmd_fault_sweep(args.scale, args.threads, args.csv, &args.opts),
        "simulate" => cmd_simulate(args.scale, &args.opts).map_err(Failure::Run),
        "chart" => cmd_chart(args.scale, args.threads, &args.opts),
        "sweep-status" => cmd_sweep_status(&args.opts).map_err(Failure::Run),
        "report" => cmd_report(args.scale, &args.opts).map_err(Failure::Run),
        cmd => run_command(cmd, args.scale, args.threads, args.csv, &args.opts),
    };
    match result {
        Ok(()) => {}
        Err(Failure::Run(e)) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
        Err(Failure::Interrupted(e)) => {
            eprintln!("{e}");
            std::process::exit(EXIT_INTERRUPTED);
        }
    }
    // sweep-status only reads a manifest; a scale/timing banner would
    // suggest it ran a sweep at some scale, which it did not.
    if !args.csv && args.command != "sweep-status" {
        eprintln!(
            "[{} @ {} scale in {:.1}s]",
            args.command,
            args.scale.label(),
            start.elapsed().as_secs_f64()
        );
    }
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
        let err = match run_command("bogus", Scale::Small, 1, false, &opts).unwrap_err() {
            Failure::Run(e) => e,
            Failure::Interrupted(e) => panic!("unexpected interruption: {e}"),
        };
        assert!(err.contains("unknown command 'bogus'"), "{err}");
        assert!(err.contains("trace-run"), "{err}");
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
            900.0,
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
            900.0,
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
