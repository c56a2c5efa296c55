//! Empirical cumulative distribution functions and quantiles.
//!
//! Figure 6 of the paper plots ECDFs of job response times; §4.2 reports
//! quantile reductions (e.g. the 69% lower median under the dynamic
//! policy). The implementation keeps the sorted sample so evaluation and
//! quantiles are exact, not binned.

/// An empirical CDF over a set of `f64` samples.
///
/// Construction sorts the samples once; evaluation and quantiles are
/// `O(log n)`. Non-finite samples are rejected.
///
/// ```
/// use dmhpc_metrics::ecdf::Ecdf;
///
/// let e = Ecdf::new(vec![10.0, 20.0, 30.0, 40.0]).unwrap();
/// assert_eq!(e.eval(20.0), 0.5);
/// assert_eq!(e.median(), 20.0);
/// assert_eq!(e.quantile(0.95), 40.0);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Build an ECDF from samples.
    ///
    /// # Errors
    /// Returns an error when `samples` is empty or contains NaN/∞.
    pub fn new(mut samples: Vec<f64>) -> Result<Self, String> {
        if samples.is_empty() {
            return Err("ECDF needs at least one sample".into());
        }
        if samples.iter().any(|x| !x.is_finite()) {
            return Err("ECDF samples must be finite".into());
        }
        samples.sort_unstable_by(f64::total_cmp);
        Ok(Self { sorted: samples })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the ECDF has no samples (never true once constructed).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `P(X <= x)`: fraction of samples at or below `x`.
    pub fn eval(&self, x: f64) -> f64 {
        let k = self.sorted.partition_point(|&s| s <= x);
        k as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile (`q` clamped to `[0,1]`), using the nearest-rank
    /// method: the smallest sample `x` with `eval(x) >= q`.
    pub fn quantile(&self, q: f64) -> f64 {
        let q = q.clamp(0.0, 1.0);
        let n = self.sorted.len();
        if q == 0.0 {
            return self.sorted[0];
        }
        let rank = (q * n as f64).ceil() as usize;
        self.sorted[rank.min(n) - 1]
    }

    /// Median (0.5-quantile).
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Smallest sample.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Largest sample.
    pub fn max(&self) -> f64 {
        *self.sorted.last().unwrap()
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> f64 {
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// The sorted samples.
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }

    /// Sample the curve at `n` log-spaced x positions spanning the data
    /// range — the rendering used by Fig. 6 (logarithmic x-axis).
    /// Positive data only; zero/negative samples clamp the low end to
    /// `1.0`.
    pub fn log_curve(&self, n: usize) -> Vec<(f64, f64)> {
        assert!(n >= 2, "need at least two curve points");
        let lo = self.min().max(1.0);
        let hi = self.max().max(lo * 1.0001);
        let (llo, lhi) = (lo.ln(), hi.ln());
        (0..n)
            .map(|i| {
                // Pin the endpoints exactly: exp(ln(x)) can round below x
                // and would under-report the final CDF value.
                let x = if i == 0 {
                    lo
                } else if i == n - 1 {
                    hi
                } else {
                    (llo + (lhi - llo) * i as f64 / (n - 1) as f64).exp()
                };
                (x, self.eval(x))
            })
            .collect()
    }

    /// Evaluate several quantiles at once (each clamped to `[0,1]`) —
    /// the batch form the telemetry report uses to summarise a sampled
    /// gauge series as p50/p90/p99 rows.
    pub fn quantiles(&self, qs: &[f64]) -> Vec<f64> {
        qs.iter().map(|&q| self.quantile(q)).collect()
    }

    /// Maximum vertical distance to another ECDF (two-sample
    /// Kolmogorov–Smirnov statistic) — handy for comparing policies.
    pub fn ks_distance(&self, other: &Ecdf) -> f64 {
        let mut d: f64 = 0.0;
        for &x in self.sorted.iter().chain(other.sorted.iter()) {
            d = d.max((self.eval(x) - other.eval(x)).abs());
        }
        d
    }
}

/// Quantiles of a raw time-series value vector: drops non-finite
/// entries, then evaluates each `q` through an [`Ecdf`]. Returns `None`
/// when nothing finite remains — the empty-series guard the telemetry
/// report leans on instead of unwrapping [`Ecdf::new`].
pub fn series_quantiles(values: &[f64], qs: &[f64]) -> Option<Vec<f64>> {
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    let ecdf = Ecdf::new(finite).ok()?;
    Some(ecdf.quantiles(qs))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ecdf(v: &[f64]) -> Ecdf {
        Ecdf::new(v.to_vec()).unwrap()
    }

    #[test]
    fn rejects_bad_input() {
        assert!(Ecdf::new(vec![]).is_err());
        assert!(Ecdf::new(vec![1.0, f64::NAN]).is_err());
        assert!(Ecdf::new(vec![f64::INFINITY]).is_err());
    }

    #[test]
    fn empty_ecdf_reports_a_usable_error() {
        // The error path is part of the API contract: callers branch on
        // it (see `series_quantiles`), so the message must say what was
        // wrong rather than panic downstream.
        let err = Ecdf::new(vec![]).unwrap_err();
        assert!(err.contains("at least one sample"), "{err}");
    }

    #[test]
    fn batch_quantiles_match_single_calls() {
        let e = ecdf(&[10.0, 20.0, 30.0, 40.0, 50.0]);
        assert_eq!(
            e.quantiles(&[0.0, 0.5, 0.9, 1.0]),
            vec![10.0, 30.0, 50.0, 50.0]
        );
    }

    #[test]
    fn series_quantiles_guards_empty_and_non_finite() {
        assert_eq!(series_quantiles(&[], &[0.5]), None);
        assert_eq!(series_quantiles(&[f64::NAN, f64::INFINITY], &[0.5]), None);
        // Non-finite entries are dropped, not propagated.
        assert_eq!(
            series_quantiles(&[1.0, f64::NAN, 3.0], &[0.0, 1.0]),
            Some(vec![1.0, 3.0])
        );
    }

    #[test]
    fn eval_steps() {
        let e = ecdf(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(e.eval(0.5), 0.0);
        assert_eq!(e.eval(1.0), 0.25);
        assert_eq!(e.eval(2.5), 0.5);
        assert_eq!(e.eval(4.0), 1.0);
        assert_eq!(e.eval(100.0), 1.0);
    }

    #[test]
    fn eval_handles_duplicates() {
        let e = ecdf(&[2.0, 2.0, 2.0, 5.0]);
        assert_eq!(e.eval(1.9), 0.0);
        assert_eq!(e.eval(2.0), 0.75);
    }

    #[test]
    fn quantiles_nearest_rank() {
        let e = ecdf(&[10.0, 20.0, 30.0, 40.0, 50.0]);
        assert_eq!(e.quantile(0.0), 10.0);
        assert_eq!(e.quantile(0.2), 10.0);
        assert_eq!(e.quantile(0.5), 30.0);
        assert_eq!(e.median(), 30.0);
        assert_eq!(e.quantile(1.0), 50.0);
        assert_eq!(e.quantile(2.0), 50.0); // clamped
    }

    #[test]
    fn unsorted_input_is_sorted() {
        let e = ecdf(&[3.0, 1.0, 2.0]);
        assert_eq!(e.samples(), &[1.0, 2.0, 3.0]);
        assert_eq!(e.min(), 1.0);
        assert_eq!(e.max(), 3.0);
        assert!((e.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn ecdf_is_monotone() {
        let e = ecdf(&[5.0, 1.0, 9.0, 2.0, 2.0, 7.5]);
        let mut prev = 0.0;
        for i in 0..100 {
            let y = e.eval(i as f64 * 0.1);
            assert!(y >= prev);
            prev = y;
        }
        assert_eq!(prev, 1.0);
    }

    #[test]
    fn log_curve_spans_range() {
        let e = ecdf(&[10.0, 100.0, 1000.0]);
        let c = e.log_curve(16);
        assert_eq!(c.len(), 16);
        assert!((c[0].0 - 10.0).abs() < 1e-9);
        assert!((c[15].0 - 1000.0).abs() < 1e-6);
        assert_eq!(c[15].1, 1.0);
        // x strictly increasing, y non-decreasing.
        for w in c.windows(2) {
            assert!(w[1].0 > w[0].0);
            assert!(w[1].1 >= w[0].1);
        }
    }

    #[test]
    fn ks_distance_zero_for_self() {
        let e = ecdf(&[1.0, 5.0, 7.0]);
        assert_eq!(e.ks_distance(&e), 0.0);
    }

    #[test]
    fn ks_distance_detects_shift() {
        let a = ecdf(&(0..100).map(|i| i as f64).collect::<Vec<_>>());
        let b = ecdf(&(0..100).map(|i| i as f64 + 50.0).collect::<Vec<_>>());
        assert!(a.ks_distance(&b) >= 0.5);
    }
}
