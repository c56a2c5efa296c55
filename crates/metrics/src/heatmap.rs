//! 2-D binned heatmaps: percentage of jobs per (x bin, y bin) cell.
//!
//! Figure 4 of the paper shows the distribution of average and maximum
//! per-node memory usage (y, 5 bins) against job size in nodes (x, 8
//! bins), with each cell labelled by the percentage of jobs it holds.

/// A 2-D histogram over explicit bin edges, reporting percentages.
#[derive(Clone, Debug, PartialEq)]
pub struct Heatmap2D {
    x_edges: Vec<f64>,
    y_edges: Vec<f64>,
    counts: Vec<u64>,
    total: u64,
}

impl Heatmap2D {
    /// The paper's Fig. 4 x-axis: job size bins
    /// `[1,1] [2,2] (2,4] (4,8] (8,16] (16,32] (32,64] (64,128]`,
    /// expressed as half-open edges over `size - 0.5`.
    pub fn paper_size_edges() -> Vec<f64> {
        vec![0.5, 1.5, 2.5, 4.5, 8.5, 16.5, 32.5, 64.5, 128.5]
    }

    /// The paper's Fig. 4 / Table 2 y-axis: GB-per-node bins
    /// `[0,12) [12,24) [24,48) [48,96) [96,128)`.
    pub fn paper_memory_edges_gb() -> Vec<f64> {
        vec![0.0, 12.0, 24.0, 48.0, 96.0, 128.0]
    }

    /// Create an empty heatmap over the given edges.
    ///
    /// # Panics
    /// Panics unless both edge lists have ≥ 2 strictly increasing values.
    pub fn new(x_edges: Vec<f64>, y_edges: Vec<f64>) -> Self {
        for edges in [&x_edges, &y_edges] {
            assert!(edges.len() >= 2, "need at least two edges per axis");
            assert!(
                edges.windows(2).all(|w| w[1] > w[0]),
                "edges must be strictly increasing"
            );
        }
        let cells = (x_edges.len() - 1) * (y_edges.len() - 1);
        Self {
            x_edges,
            y_edges,
            counts: vec![0; cells],
            total: 0,
        }
    }

    /// Number of x bins.
    pub fn x_bins(&self) -> usize {
        self.x_edges.len() - 1
    }

    /// Number of y bins.
    pub fn y_bins(&self) -> usize {
        self.y_edges.len() - 1
    }

    fn bin(edges: &[f64], v: f64) -> usize {
        let inner = &edges[1..edges.len() - 1];
        inner.iter().position(|&e| v < e).unwrap_or(edges.len() - 2)
    }

    /// Record one sample (out-of-range values clamp to the edge bins).
    pub fn add(&mut self, x: f64, y: f64) {
        let xi = Self::bin(&self.x_edges, x);
        let yi = Self::bin(&self.y_edges, y);
        let idx = yi * self.x_bins() + xi;
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Percentage of samples in cell `(xi, yi)`.
    pub fn percent(&self, xi: usize, yi: usize) -> f64 {
        assert!(xi < self.x_bins() && yi < self.y_bins());
        if self.total == 0 {
            0.0
        } else {
            100.0 * self.counts[yi * self.x_bins() + xi] as f64 / self.total as f64
        }
    }

    /// Total samples recorded.
    pub fn total(&self) -> u64 {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "at least two edges")]
    fn zero_bin_axis_is_rejected() {
        // One edge means zero bins: `add` would index an empty counts
        // vector, so construction must refuse up front.
        let _ = Heatmap2D::new(vec![1.0], vec![0.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn non_increasing_edges_are_rejected() {
        let _ = Heatmap2D::new(vec![0.0, 1.0, 1.0], vec![0.0, 1.0]);
    }

    #[test]
    fn paper_edges_shape() {
        let h = Heatmap2D::new(
            Heatmap2D::paper_size_edges(),
            Heatmap2D::paper_memory_edges_gb(),
        );
        assert_eq!(h.x_bins(), 8);
        assert_eq!(h.y_bins(), 5);
    }

    #[test]
    fn add_and_percent() {
        let mut h = Heatmap2D::new(vec![0.0, 1.0, 2.0], vec![0.0, 10.0, 20.0]);
        h.add(0.5, 5.0); // cell (0,0)
        h.add(1.5, 5.0); // cell (1,0)
        h.add(1.5, 15.0); // cell (1,1)
        h.add(1.5, 15.0);
        assert_eq!(h.total(), 4);
        assert_eq!(h.percent(0, 0), 25.0);
        assert_eq!(h.percent(1, 0), 25.0);
        assert_eq!(h.percent(1, 1), 50.0);
        assert_eq!(h.percent(0, 1), 0.0);
    }

    #[test]
    fn clamps_out_of_range() {
        let mut h = Heatmap2D::new(vec![0.0, 1.0, 2.0], vec![0.0, 1.0, 2.0]);
        h.add(-5.0, 100.0); // clamps to (0, last)
        assert_eq!(h.percent(0, 1), 100.0);
    }

    #[test]
    fn size_bins_match_paper_semantics() {
        // Job sizes 1, 2, 3, 8, 9, 128 land in bins 0,1,2,3,4,7.
        let edges = Heatmap2D::paper_size_edges();
        assert_eq!(Heatmap2D::bin(&edges, 1.0), 0);
        assert_eq!(Heatmap2D::bin(&edges, 2.0), 1);
        assert_eq!(Heatmap2D::bin(&edges, 3.0), 2);
        assert_eq!(Heatmap2D::bin(&edges, 4.0), 2);
        assert_eq!(Heatmap2D::bin(&edges, 8.0), 3);
        assert_eq!(Heatmap2D::bin(&edges, 9.0), 4);
        assert_eq!(Heatmap2D::bin(&edges, 128.0), 7);
    }

    #[test]
    fn empty_heatmap_reports_zero() {
        let h = Heatmap2D::new(vec![0.0, 1.0], vec![0.0, 1.0]);
        assert_eq!(h.percent(0, 0), 0.0);
    }
}
