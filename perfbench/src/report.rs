//! Metric definitions, per-workload reports, and every way the
//! benchmark prints them: the human table, the `--json` file, the
//! one-line result, the span file and the `--compare` table.

use crate::json::{num, quote, Json};
use std::fmt::Write as _;

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric the benchmark reports. `bound` is the share of the parent's
/// median by which an end-to-end metric may worsen before a change
/// counts as a regression; per-layer metrics have none.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, measured with tracing off; host times are
/// calibrated (see `calibrate`). `BENCHMARK.json` mirrors this table and
/// the next; a unit test keeps them in step.
pub const END_TO_END: [Spec; 6] = [
    e2e("wall_s", "s", Lower, 0.20),
    e2e("critical_point_s", "s", Lower, 0.20),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.15),
    e2e("sim_throughput_jps", "jobs/s", Higher, 0.15),
    e2e("sim_completed", "count", Higher, 0.01),
];

/// Per-layer metrics: the traced pass, then the pooled simulated
/// response time and the raw host time and calibration behind the
/// end-to-end times.
pub const PER_LAYER: [Spec; 33] = [
    layer("sim.schedule.s", "s", Lower),
    layer("sim.schedule.calls", "count", Lower),
    layer("sim.schedule.us_per_call", "us", Lower),
    layer("sched.considered", "count", Lower),
    layer("sched.placed", "count", Higher),
    layer("sched.place_hit_ratio", "ratio", Higher),
    layer("sim.dynloop.s", "s", Lower),
    layer("sim.dynloop.calls", "count", Lower),
    layer("sim.dynloop.us_per_call", "us", Lower),
    layer("dynmem.decides", "count", Lower),
    layer("dynmem.hold_ratio", "ratio", Higher),
    layer("dynmem.grows", "count", Lower),
    layer("dynmem.shrinks", "count", Lower),
    layer("sim.oom.s", "s", Lower),
    layer("sim.oom.calls", "count", Lower),
    layer("sim.oom.ms_per_call", "ms", Lower),
    layer("oom.kills", "count", Lower),
    layer("job.requeues", "count", Lower),
    layer("sim.recovery.s", "s", Lower),
    layer("sim.recovery.calls", "count", Lower),
    layer("faults.node_crashes", "count", Lower),
    layer("sim.unattributed.s", "s", Lower),
    layer("trace.events", "count", Lower),
    layer("engine.push_pop_ns", "ns", Lower),
    layer("sched.pass_us", "us", Lower),
    layer("policy.place_us", "us", Lower),
    layer("dynmem.sample_ns", "ns", Lower),
    layer("traces.jobs", "count", Lower),
    layer("traces.usage_points", "count", Lower),
    layer("telemetry.overhead_frac", "ratio", Lower),
    layer("sim_median_response_s", "s", Lower),
    layer("host.raw_wall_s", "s", Lower),
    layer("host.calibration_ms", "ms", Lower),
];

/// The spec of a metric by name.
pub fn spec(name: &str) -> Option<&'static Spec> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|s| s.name == name)
}

/// One metric's measured samples: one per pass, per set-up build, or a
/// single value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub samples: Vec<f64>,
}

impl Metric {
    /// A metric from its spec'd name. Panics on an unknown name, which
    /// is a bug in this program.
    pub fn new(name: &str, samples: Vec<f64>) -> Self {
        let spec = spec(name).unwrap_or_else(|| panic!("metric '{name}' has no spec"));
        Self {
            name: name.to_string(),
            unit: spec.unit.to_string(),
            samples,
        }
    }

    pub fn median(&self) -> f64 {
        median(&self.samples)
    }

    /// First and third quartile, as Python's
    /// `statistics.quantiles(samples, n=4)` computes them.
    pub fn quartiles(&self) -> (f64, f64) {
        quartiles(&self.samples)
    }

    /// Interquartile range.
    pub fn iqr(&self) -> f64 {
        let (q1, q3) = self.quartiles();
        q3 - q1
    }
}

pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Quartiles by the "exclusive" method of Python's `statistics`.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let (n, m) = (4usize, ld + 1);
    let q = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        // Negative when the clamp moved `j` up, as in Python.
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    (q(1), q(3))
}

/// A benchmark-side span around one call into a layer.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub workload: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Everything one workload measured and checked.
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    pub workload: String,
    /// Simulation runs executed.
    pub attempted: u64,
    /// Runs that failed a correctness check.
    pub failed: u64,
    /// One line per failed check.
    pub problems: Vec<String>,
    /// Digest of the first pass's outcomes, in run order.
    pub digest: String,
    pub end_to_end: Vec<Metric>,
    /// Empty unless the traced pass ran.
    pub per_layer: Vec<Metric>,
    pub spans: Vec<Span>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn to_json(&self) -> String {
        let metrics = |ms: &[Metric]| {
            let rows: Vec<String> = ms
                .iter()
                .map(|m| {
                    let samples: Vec<String> = m.samples.iter().map(|&x| num(x)).collect();
                    format!(
                        "{{\"name\": {}, \"unit\": {}, \"samples\": [{}]}}",
                        quote(&m.name),
                        quote(&m.unit),
                        samples.join(", ")
                    )
                })
                .collect();
            format!("[{}]", rows.join(", "))
        };
        let problems: Vec<String> = self.problems.iter().map(|p| quote(p)).collect();
        let spans: Vec<String> = self.spans.iter().map(span_json).collect();
        format!(
            "{{\"workload\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"problems\": [{}], \
             \"digest\": {}, \"end_to_end\": {}, \"per_layer\": {}, \"spans\": [{}]}}",
            quote(&self.workload),
            self.correct(),
            self.attempted,
            self.failed,
            problems.join(", "),
            quote(&self.digest),
            metrics(&self.end_to_end),
            metrics(&self.per_layer),
            spans.join(", ")
        )
    }

    pub fn from_json(v: &Json) -> Result<Report, String> {
        let metrics = |key: &str| -> Result<Vec<Metric>, String> {
            v.field(key)?
                .arr()?
                .iter()
                .map(|m| {
                    Ok(Metric {
                        name: m.field("name")?.str()?.to_string(),
                        unit: m.field("unit")?.str()?.to_string(),
                        samples: m
                            .field("samples")?
                            .arr()?
                            .iter()
                            .map(Json::num)
                            .collect::<Result<_, _>>()?,
                    })
                })
                .collect()
        };
        let spans = v
            .field("spans")?
            .arr()?
            .iter()
            .map(|s| {
                Ok(Span {
                    id: s.field("id")?.num()? as u64,
                    parent: match s.field("parent")? {
                        Json::Null => None,
                        p => Some(p.num()? as u64),
                    },
                    name: s.field("name")?.str()?.to_string(),
                    workload: s.field("workload")?.str()?.to_string(),
                    start_ns: s.field("start_ns")?.num()? as u64,
                    end_ns: s.field("end_ns")?.num()? as u64,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Report {
            workload: v.field("workload")?.str()?.to_string(),
            attempted: v.field("attempted")?.num()? as u64,
            failed: v.field("failed")?.num()? as u64,
            problems: v
                .field("problems")?
                .arr()?
                .iter()
                .map(|p| p.str().map(str::to_string))
                .collect::<Result<_, _>>()?,
            digest: v.field("digest")?.str()?.to_string(),
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
            spans,
        })
    }
}

/// One span as a JSONL record.
pub fn span_json(s: &Span) -> String {
    format!(
        "{{\"id\": {}, \"parent\": {}, \"name\": {}, \"workload\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
        s.id,
        s.parent.map_or("null".to_string(), |p| p.to_string()),
        quote(&s.name),
        quote(&s.workload),
        s.start_ns,
        s.end_ns
    )
}

/// The `--json` file: the run's settings plus every workload's report.
pub fn results_json(seed: u64, smoke: bool, reports: &[Report]) -> String {
    let rows: Vec<String> = reports.iter().map(Report::to_json).collect();
    format!(
        "{{\"seed\": {seed}, \"smoke\": {smoke}, \"workloads\": [\n{}\n]}}\n",
        rows.join(",\n")
    )
}

/// Read a `--json` file back.
pub fn parse_results(text: &str) -> Result<Vec<Report>, String> {
    Json::parse(text)?
        .field("workloads")?
        .arr()?
        .iter()
        .map(Report::from_json)
        .collect()
}

/// The one-line result: correctness counts plus each metric's median,
/// the per-layer metrics when `layer` is set and the end-to-end ones
/// otherwise. Metric names carry a `workload/` prefix when more than one
/// workload ran.
pub fn result_line(reports: &[Report], layer: bool) -> String {
    let prefix = reports.len() > 1;
    let mut metrics = Vec::new();
    for r in reports {
        for m in if layer { &r.per_layer } else { &r.end_to_end } {
            let name = if prefix {
                format!("{}/{}", r.workload, m.name)
            } else {
                m.name.clone()
            };
            metrics.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(&name),
                num(m.median()),
                quote(&m.unit)
            ));
        }
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        reports.iter().all(Report::correct),
        reports.iter().map(|r| r.attempted).sum::<u64>(),
        reports.iter().map(|r| r.failed).sum::<u64>(),
        metrics.join(", ")
    )
}

/// The human-readable table of one workload.
pub fn table(r: &Report) -> String {
    let mut out = String::new();
    let frac = r.failed as f64 / r.attempted.max(1) as f64;
    let _ = writeln!(
        out,
        "== {}: {} runs, {} failed (ops_failed_frac {frac}), digest {}",
        r.workload, r.attempted, r.failed, r.digest
    );
    for p in &r.problems {
        let _ = writeln!(out, "   FAILED: {p}");
    }
    let _ = writeln!(
        out,
        "   {:<26} {:>8} {:>6} {:>14} {:>14} {:>14} {:>4}",
        "end-to-end", "unit", "better", "median", "q1", "q3", "n"
    );
    for m in &r.end_to_end {
        let (q1, q3) = m.quartiles();
        let _ = writeln!(
            out,
            "   {:<26} {:>8} {:>6} {:>14.6} {:>14.6} {:>14.6} {:>4}",
            m.name,
            m.unit,
            spec(&m.name).map_or("?", |s| s.better.name()),
            m.median(),
            q1,
            q3,
            m.samples.len()
        );
    }
    if !r.per_layer.is_empty() {
        let _ = writeln!(
            out,
            "   {:<26} {:>8} {:>14}",
            "per-layer (traced pass)", "unit", "value"
        );
        for m in &r.per_layer {
            let _ = writeln!(out, "   {:<26} {:>8} {:>14.6}", m.name, m.unit, m.median());
        }
    }
    out
}

/// `x` to five significant digits, for tables.
fn sig(x: f64) -> String {
    if x == 0.0 || !x.is_finite() {
        return format!("{x}");
    }
    let decimals = (4 - x.abs().log10().floor() as i32).max(0) as usize;
    format!("{x:.decimals$}")
}

/// The verdict on one metric of one workload between two result sets.
fn verdict(spec: &Spec, a: &Metric, b: &Metric) -> &'static str {
    let Some(bound) = spec.bound else {
        return "no bound";
    };
    let spread = |m: &Metric| {
        let med = m.median();
        if med == 0.0 {
            0.0
        } else {
            m.iqr() / med.abs()
        }
    };
    let (ma, mb) = (a.median(), b.median());
    let change = if ma == 0.0 {
        if mb == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (mb - ma) / ma.abs()
    };
    let worse_by = match spec.better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    if spread(a).max(spread(b)) > bound {
        "unresolved"
    } else if worse_by > bound {
        "worse"
    } else if worse_by < -bound {
        "better"
    } else {
        "within bound"
    }
}

/// The `--compare` table: for every metric of every workload present in
/// both sets, median and interquartile range of each side, the change,
/// and the verdict. Returns the table and whether any end-to-end metric
/// came out worse.
pub fn compare(a: &[Report], b: &[Report]) -> (String, bool) {
    let mut out = String::new();
    let mut any_worse = false;
    let _ = writeln!(
        out,
        "| workload | metric | unit | A median | A IQR | B median | B IQR | change | bound | verdict |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|---|---|---|");
    for ra in a {
        let Some(rb) = b.iter().find(|r| r.workload == ra.workload) else {
            continue;
        };
        let pairs = ra.end_to_end.iter().chain(&ra.per_layer).filter_map(|ma| {
            let mb = rb
                .end_to_end
                .iter()
                .chain(&rb.per_layer)
                .find(|m| m.name == ma.name)?;
            Some((spec(&ma.name)?, ma, mb))
        });
        for (spec, ma, mb) in pairs {
            let v = verdict(spec, ma, mb);
            any_worse |= v == "worse";
            let change = if ma.median() == 0.0 {
                "-".to_string()
            } else {
                format!(
                    "{:+.1}%",
                    100.0 * (mb.median() - ma.median()) / ma.median().abs()
                )
            };
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {} | {} | {} | {} | {} | {} |",
                ra.workload,
                ma.name,
                ma.unit,
                sig(ma.median()),
                sig(ma.iqr()),
                sig(mb.median()),
                sig(mb.iqr()),
                change,
                spec.bound
                    .map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0)),
                v
            );
        }
    }
    (out, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 3.5));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn every_spec_is_named_once() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|s| s.name)
            .collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
        assert!(END_TO_END
            .iter()
            .all(|s| s.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
    }

    #[test]
    fn benchmark_json_mirrors_the_specs() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (list, specs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let declared = doc.field(list).unwrap().arr().unwrap();
            assert_eq!(declared.len(), specs.len(), "{list}");
            for (d, s) in declared.iter().zip(specs) {
                assert_eq!(d.field("name").unwrap().str().unwrap(), s.name);
                assert_eq!(
                    d.field("unit").unwrap().str().unwrap(),
                    s.unit,
                    "{}",
                    s.name
                );
                assert_eq!(
                    d.field("better").unwrap().str().unwrap(),
                    s.better.name(),
                    "{}",
                    s.name
                );
                assert_eq!(
                    d.get("bound").map(|b| b.num().unwrap()),
                    s.bound,
                    "{}",
                    s.name
                );
            }
        }
    }

    #[test]
    fn reports_round_trip_through_json() {
        let r = Report {
            workload: "tight-static".into(),
            attempted: 12,
            failed: 1,
            problems: vec!["run 3: \"bad\"".into()],
            digest: "00ff00ff00ff00ff".into(),
            end_to_end: vec![Metric::new("wall_s", vec![1.25, 1.5, 0.1 + 0.2])],
            per_layer: vec![Metric::new("trace.events", vec![33726.0])],
            spans: vec![Span {
                id: 1,
                parent: None,
                name: "build".into(),
                workload: "tight-static".into(),
                start_ns: 5,
                end_ns: 9,
            }],
        };
        let back = parse_results(&results_json(1, false, std::slice::from_ref(&r))).unwrap();
        assert_eq!(back, vec![r]);
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let m = |name: &str, xs: &[f64]| Metric::new(name, xs.to_vec());
        let wall = spec("wall_s").unwrap();
        let steady = m("wall_s", &[10.0, 10.0, 10.0]);
        assert_eq!(
            verdict(wall, &steady, &m("wall_s", &[10.5, 10.5, 10.5])),
            "within bound"
        );
        assert_eq!(
            verdict(wall, &steady, &m("wall_s", &[13.0, 13.0, 13.0])),
            "worse"
        );
        assert_eq!(
            verdict(wall, &steady, &m("wall_s", &[7.0, 7.0, 7.0])),
            "better"
        );
        assert_eq!(
            verdict(wall, &steady, &m("wall_s", &[5.0, 10.0, 15.0])),
            "unresolved"
        );
        let jps = spec("sim_throughput_jps").unwrap();
        let base = m("sim_throughput_jps", &[1.0]);
        assert_eq!(
            verdict(jps, &base, &m("sim_throughput_jps", &[0.9])),
            "within bound"
        );
        assert_eq!(
            verdict(jps, &base, &m("sim_throughput_jps", &[0.8])),
            "worse"
        );
    }
}
