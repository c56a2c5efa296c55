//! Five-number summaries (Table 3) and binned percentage distributions
//! (Table 2).

/// Min, quartiles, median and max of a sample — the row format of the
/// paper's Table 3 ("Normal and large memory job characteristics").
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FiveNumber {
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
}

impl FiveNumber {
    /// Compute the summary of a sample set.
    ///
    /// # Errors
    /// Returns an error for empty or non-finite input.
    pub fn of(samples: &[f64]) -> Result<Self, String> {
        let ecdf = crate::ecdf::Ecdf::new(samples.to_vec())?;
        Ok(Self {
            min: ecdf.min(),
            q1: ecdf.quantile(0.25),
            median: ecdf.median(),
            q3: ecdf.quantile(0.75),
            max: ecdf.max(),
        })
    }
}

/// Bin samples into half-open ranges `[edges[i], edges[i+1])` (the last
/// bin is closed above) and return the percentage of samples per bin.
/// Samples outside the edges are clamped into the first/last bin, so the
/// percentages always sum to 100 (for non-empty input).
///
/// Used for Table 2's "maximum memory usage per node" distribution with
/// edges `[0, 12, 24, 48, 96, 128] GB`.
///
/// # Panics
/// Panics if fewer than two edges are given or edges are not increasing.
pub fn binned_percentages(samples: &[f64], edges: &[f64]) -> Vec<f64> {
    assert!(edges.len() >= 2, "need at least two bin edges");
    assert!(
        edges.windows(2).all(|w| w[1] > w[0]),
        "bin edges must be strictly increasing"
    );
    let bins = edges.len() - 1;
    let mut counts = vec![0usize; bins];
    for &x in samples {
        // partition_point over inner edges: index of the bin.
        let idx = edges[1..edges.len() - 1]
            .iter()
            .position(|&e| x < e)
            .unwrap_or(bins - 1);
        counts[idx] += 1;
    }
    let n = samples.len().max(1) as f64;
    counts.iter().map(|&c| 100.0 * c as f64 / n).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_number_basic() {
        let s: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let f = FiveNumber::of(&s).unwrap();
        assert_eq!(f.min, 1.0);
        assert_eq!(f.q1, 25.0);
        assert_eq!(f.median, 50.0);
        assert_eq!(f.q3, 75.0);
        assert_eq!(f.max, 100.0);
    }

    #[test]
    fn five_number_single_sample() {
        let f = FiveNumber::of(&[7.0]).unwrap();
        assert_eq!(
            f,
            FiveNumber {
                min: 7.0,
                q1: 7.0,
                median: 7.0,
                q3: 7.0,
                max: 7.0
            }
        );
    }

    #[test]
    fn five_number_rejects_empty() {
        assert!(FiveNumber::of(&[]).is_err());
    }

    #[test]
    fn binned_percentages_sum_to_100() {
        let samples: Vec<f64> = (0..128).map(|i| i as f64).collect();
        let p = binned_percentages(&samples, &[0.0, 12.0, 24.0, 48.0, 96.0, 128.0]);
        assert_eq!(p.len(), 5);
        assert!((p.iter().sum::<f64>() - 100.0).abs() < 1e-9);
        // Uniform over [0,128): bin widths 12/12/24/48/32 out of 128.
        assert!((p[0] - 100.0 * 12.0 / 128.0).abs() < 1.0);
        assert!((p[3] - 100.0 * 48.0 / 128.0).abs() < 1.0);
    }

    #[test]
    fn binned_percentages_clamps_outliers() {
        let p = binned_percentages(&[-5.0, 500.0], &[0.0, 10.0, 100.0]);
        assert_eq!(p, vec![50.0, 50.0]);
    }

    #[test]
    fn binned_percentages_boundary_goes_up() {
        // x == inner edge lands in the upper bin ([a,b) semantics).
        let p = binned_percentages(&[12.0], &[0.0, 12.0, 24.0]);
        assert_eq!(p, vec![0.0, 100.0]);
    }

    #[test]
    #[should_panic(expected = "increasing")]
    fn binned_percentages_rejects_bad_edges() {
        binned_percentages(&[1.0], &[0.0, 0.0]);
    }

    #[test]
    fn binned_percentages_empty_input() {
        let p = binned_percentages(&[], &[0.0, 1.0, 2.0]);
        assert_eq!(p, vec![0.0, 0.0]);
    }
}
