//! Human-facing run reports over [`dmhpc_core::telemetry`] output:
//! ASCII sparklines of the sampled gauge series, quantile summaries,
//! the wall-clock phase-profile table, and the journal encoding that
//! lets durable sweeps carry per-point profiles.
//!
//! The rendering here is strictly presentation — the machine-readable
//! exports (Prometheus/CSV/JSONL) live on [`Telemetry`] itself so the
//! determinism goldens compare them without pulling in table layout.

use crate::durable::Payload;
use crate::table::TextTable;
use dmhpc_core::telemetry::{Phase, Profile, Sample, Telemetry};
use dmhpc_metrics::series_quantiles;

/// The glyph ramp sparklines quantise into, lowest to highest.
const SPARK_GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Render `values` as a fixed-width sparkline: the series is bucketed
/// to `width` cells (bucket mean), then each cell is quantised onto an
/// 8-glyph ramp spanning the series' own min..max. A flat or empty
/// series renders as the lowest glyph so the row width stays stable.
pub fn sparkline(values: &[f64], width: usize) -> String {
    let width = width.max(1);
    if values.is_empty() {
        return String::new();
    }
    // Bucket means: cell i covers the half-open index range
    // [i*n/width, (i+1)*n/width), never empty when n >= width.
    let n = values.len();
    let cells = width.min(n);
    let mut means = Vec::with_capacity(cells);
    for i in 0..cells {
        let lo = i * n / cells;
        let hi = ((i + 1) * n / cells).max(lo + 1);
        let slice = &values[lo..hi.min(n)];
        means.push(slice.iter().sum::<f64>() / slice.len() as f64);
    }
    let min = means.iter().copied().fold(f64::INFINITY, f64::min);
    let max = means.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = max - min;
    means
        .iter()
        .map(|&v| {
            if span <= 0.0 {
                SPARK_GLYPHS[0]
            } else {
                let idx = ((v - min) / span * 7.0).round() as usize;
                SPARK_GLYPHS[idx.min(7)]
            }
        })
        .collect()
}

/// Accessor pulling one gauge's value out of a [`Sample`].
type GaugeFn = fn(&Sample) -> f64;

/// One gauge extracted from the sample series: a display name and the
/// accessor pulling its value out of a [`Sample`].
const GAUGES: [(&str, GaugeFn); 8] = [
    ("queue_depth", |s| f64::from(s.queue_depth)),
    ("resident_jobs", |s| f64::from(s.resident_jobs)),
    ("pool_util", |s| s.pool_util),
    ("free_pool_mb", |s| s.free_pool_mb as f64),
    ("borrowed_mb", |s| s.borrowed_mb as f64),
    ("cross_rack_mb", |s| s.cross_rack_mb as f64),
    ("oom_kills", |s| f64::from(s.oom_kills)),
    ("actuator_retries", |s| f64::from(s.actuator_retries)),
];

/// Table of gauge quantiles plus a sparkline trend column, one row per
/// sampled gauge. `spark_width` bounds the trend column.
pub fn gauge_table(telemetry: &Telemetry, spark_width: usize) -> TextTable {
    let samples = telemetry.series.samples();
    let mut t = TextTable::new(vec![
        "gauge", "min", "p50", "p90", "p99", "max", "last", "trend",
    ]);
    for (name, get) in GAUGES {
        let values: Vec<f64> = samples.iter().map(get).collect();
        let qs = series_quantiles(&values, &[0.0, 0.5, 0.9, 0.99, 1.0]);
        let row = |v: f64| {
            if v.fract() == 0.0 && v.abs() < 1e15 {
                format!("{v:.0}")
            } else {
                format!("{v:.3}")
            }
        };
        match qs {
            Some(q) => t.row(vec![
                name.to_string(),
                row(q[0]),
                row(q[1]),
                row(q[2]),
                row(q[3]),
                row(q[4]),
                row(*values.last().unwrap_or(&0.0)),
                sparkline(&values, spark_width),
            ]),
            None => t.row(vec![
                name.to_string(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                String::new(),
            ]),
        };
    }
    t
}

/// The wall-clock phase-profile table: one row per [`Phase`] in export
/// order, with call counts, totals, per-call means, and the share of
/// the profiled total. OOM spans nest inside dynloop/recovery spans, so
/// shares can legitimately overlap.
pub fn phase_table(profile: &Profile) -> TextTable {
    let mut t = TextTable::new(vec!["phase", "calls", "total_ms", "mean_us", "share"]);
    let total = profile.total_ns().max(1) as f64;
    for phase in Phase::ALL {
        let ns = profile.phase_ns(phase);
        let calls = profile.phase_calls(phase);
        let mean_us = if calls == 0 {
            0.0
        } else {
            ns as f64 / calls as f64 / 1000.0
        };
        t.row(vec![
            phase.name().to_string(),
            calls.to_string(),
            format!("{:.3}", ns as f64 / 1e6),
            format!("{mean_us:.1}"),
            format!("{:.1}%", ns as f64 / total * 100.0),
        ]);
    }
    t
}

/// Assemble the full human report: a header line, the gauge table, and
/// (when any span was recorded) the phase-profile table.
pub fn render(telemetry: &Telemetry, title: &str) -> String {
    let mut out = String::new();
    let series = &telemetry.series;
    out.push_str(&format!(
        "== {title} ==\n{} samples every {:.0}s simulated (configured {:.0}s)\n",
        series.samples().len(),
        series.interval_s(),
        series.base_interval_s(),
    ));
    out.push_str(&gauge_table(telemetry, 32).render());
    if !telemetry.profile.is_empty() {
        out.push_str("wall-clock phase profile (oom nests inside dynloop/recovery):\n");
        out.push_str(&phase_table(&telemetry.profile).render());
    }
    out
}

/// Encode a [`Profile`] as a journal payload: `<phase>_ns` and
/// `<phase>_calls` per phase, in [`Phase::ALL`] order.
pub fn encode_profile(profile: &Profile) -> Payload {
    let mut p = Payload::new();
    for phase in Phase::ALL {
        p.push_u64(&format!("{}_ns", phase.name()), profile.phase_ns(phase));
        p.push_u64(
            &format!("{}_calls", phase.name()),
            profile.phase_calls(phase),
        );
    }
    p
}

/// Decode a payload written by [`encode_profile`].
///
/// # Errors
/// Returns the missing/ill-typed field when the payload is not a
/// profile map.
pub fn decode_profile(p: &Payload) -> Result<Profile, String> {
    let mut profile = Profile::default();
    for phase in Phase::ALL {
        let ns = p.u64(&format!("{}_ns", phase.name()))?;
        let calls = p.u64(&format!("{}_calls", phase.name()))?;
        profile.set_phase(phase, ns, calls);
    }
    Ok(profile)
}

/// Pull the nested `"phases"` map out of a journaled point payload, if
/// the point carried one (pre-telemetry journals and non-telemetry runs
/// did not — those yield `None`, never an error).
pub fn profile_from_payload(p: &Payload) -> Option<Profile> {
    decode_profile(p.map("phases").ok()?).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmhpc_core::telemetry::{TelemetryCollector, TelemetrySpec, TimeSeries};
    use std::time::Duration;

    fn telemetry_with(samples: &[(f64, u32)]) -> Telemetry {
        let collector = TelemetryCollector::new(TelemetrySpec::with_interval(10.0));
        let mut series = TimeSeries::new(10.0, 64);
        for &(t, depth) in samples {
            series.push(Sample {
                t_s: t,
                queue_depth: depth,
                resident_jobs: depth / 2,
                pool_util: 0.25,
                free_pool_mb: 1000,
                borrowed_mb: 64,
                cross_rack_mb: 16,
                oom_kills: 1,
                actuator_retries: 2,
                rack_lent_mb: vec![64],
            });
        }
        let mut snap = collector.snapshot();
        snap.series = series;
        snap.profile
            .record(Phase::Schedule, Duration::from_micros(150));
        snap.profile
            .record(Phase::Finalize, Duration::from_micros(50));
        snap
    }

    #[test]
    fn sparkline_spans_the_ramp() {
        let s = sparkline(&[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0], 8);
        assert_eq!(s, "▁▂▃▄▅▆▇█");
        // Flat and empty series degrade gracefully.
        assert_eq!(sparkline(&[3.0, 3.0, 3.0], 8), "▁▁▁");
        assert_eq!(sparkline(&[], 8), "");
        // Longer series bucket down to the requested width.
        let long: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(sparkline(&long, 10).chars().count(), 10);
    }

    #[test]
    fn gauge_table_summarises_and_survives_empty_series() {
        let t = telemetry_with(&[(0.0, 4), (10.0, 8), (20.0, 2)]);
        let rendered = gauge_table(&t, 16).render();
        assert!(rendered.contains("queue_depth"));
        assert!(rendered.contains("actuator_retries"));
        // Empty series: every gauge row renders placeholders, no panic.
        let empty = telemetry_with(&[]);
        let rendered = gauge_table(&empty, 16).render();
        assert!(rendered.contains('-'));
    }

    #[test]
    fn phase_table_lists_every_phase_in_order() {
        let t = telemetry_with(&[(0.0, 1)]);
        let rendered = phase_table(&t.profile).render();
        let (mut last, mut seen) = (0usize, 0usize);
        for phase in Phase::ALL {
            let at = rendered
                .find(phase.name())
                .unwrap_or_else(|| panic!("{} missing", phase.name()));
            assert!(at >= last, "{} out of order", phase.name());
            last = at;
            seen += 1;
        }
        assert_eq!(seen, Phase::ALL.len());
        let full = render(&t, "test run");
        assert!(full.contains("== test run =="));
        assert!(full.contains("phase profile"));
    }

    #[test]
    fn profile_round_trips_through_payload() {
        let mut profile = Profile::default();
        profile.record(Phase::DynLoop, Duration::from_nanos(1234));
        profile.record(Phase::Oom, Duration::from_nanos(56));
        let decoded = decode_profile(&encode_profile(&profile)).unwrap();
        assert_eq!(decoded, profile);

        // Nested lookups: present and absent.
        let mut point = Payload::new();
        point.push_map("phases", encode_profile(&profile));
        assert_eq!(profile_from_payload(&point), Some(profile));
        assert_eq!(profile_from_payload(&Payload::new()), None);
    }
}
