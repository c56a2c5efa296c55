//! Empirical memory distributions from the paper.
//!
//! * **Table 2** — maximum memory usage per node, as percentages of jobs
//!   in the bins `[0,12) [12,24) [24,48) [48,96) [96,128)` GB, broken
//!   down by job *size* class (Normal ≤ 32 nodes, Large > 32 nodes), for
//!   the Synthetic (Archer-derived) and Grizzly datasets.
//! * **Table 3** — five-number summaries of per-node memory for normal-
//!   vs large-*memory* jobs (normal ≤ 64 GB/node demand, large above).
//!
//! Samplers reproduce these marginals: bin-weighted sampling for Table 2
//! and quantile-curve inversion for Table 3.

use dmhpc_model::rng::Rng64;

/// The memory bins of Table 2 (GB per node): `[0,12) [12,24) [24,48)
/// [48,96) [96,128)`.
pub const TABLE2_EDGES_GB: [f64; 6] = [0.0, 12.0, 24.0, 48.0, 96.0, 128.0];

/// Job-size class used by Table 2 (caption: "Small jobs are ≤32 nodes and
/// large jobs are >32 nodes"; the table's columns call them Normal/Large).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SizeClass {
    /// All jobs regardless of size.
    All,
    /// ≤ 32 nodes.
    Normal,
    /// > 32 nodes.
    Large,
}

/// Which dataset's Table 2 column to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dataset {
    /// "Synthetic" — adapted from the Archer memory survey \[41\].
    Synthetic,
    /// The LANL Grizzly trace column.
    Grizzly,
}

/// Percentage of jobs per Table 2 bin for a dataset and size class.
pub fn table2_percentages(dataset: Dataset, class: SizeClass) -> [f64; 5] {
    match (dataset, class) {
        (Dataset::Synthetic, SizeClass::All) => [61.0, 18.6, 11.5, 6.9, 2.0],
        (Dataset::Synthetic, SizeClass::Normal) => [69.5, 19.4, 7.7, 3.0, 0.4],
        (Dataset::Synthetic, SizeClass::Large) => [53.0, 16.9, 14.8, 11.2, 4.2],
        (Dataset::Grizzly, SizeClass::All) => [73.3, 12.4, 8.2, 5.7, 0.5],
        (Dataset::Grizzly, SizeClass::Normal) => [63.5, 20.2, 8.5, 7.0, 0.8],
        (Dataset::Grizzly, SizeClass::Large) => [77.8, 8.9, 8.0, 5.0, 0.3],
    }
}

/// Sample a peak memory-per-node value (in MB) from the Table 2
/// distribution of `dataset` for a job of `nodes` nodes: pick a bin by
/// its percentage, then draw log-uniformly within the bin (memory
/// footprints are heavy-tailed inside each band).
pub fn sample_table2_peak_mb(rng: &mut Rng64, dataset: Dataset, nodes: u32) -> u64 {
    let class = if nodes > 32 {
        SizeClass::Large
    } else {
        SizeClass::Normal
    };
    let weights = table2_percentages(dataset, class);
    let bin = rng.weighted(&weights);
    let lo_gb = TABLE2_EDGES_GB[bin].max(0.25); // at least 256 MB
    let hi_gb = TABLE2_EDGES_GB[bin + 1];
    let gb = (rng.range_f64(lo_gb.ln(), hi_gb.ln())).exp();
    (gb * 1024.0) as u64
}

/// Table 3 five-number summary of per-node memory (MB) for
/// normal-memory jobs (demand ≤ a normal 64 GB node).
pub const TABLE3_NORMAL_MEM_MB: [f64; 5] = [256.0, 4_037.0, 8_089.0, 15_341.0, 65_532.0];

/// Table 3 five-number summary of per-node memory (MB) for large-memory
/// jobs (demand above a normal node's 64 GB).
pub const TABLE3_LARGE_MEM_MB: [f64; 5] = [65_538.0, 76_176.0, 86_961.0, 99_956.0, 130_046.0];

/// Memory class of a job: does its per-node demand fit a normal node?
/// (§3.3.1 / §3.4 — distinct from the size class of Table 2.)
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemoryClass {
    /// Demand fits a normal (64 GB) node.
    Normal,
    /// Demand requires a large (128 GB) node under the baseline policy.
    Large,
}

/// Sample a peak per-node memory (MB) whose distribution matches the
/// Table 3 quartiles of the given memory class, by inverting a
/// piecewise-linear quantile curve through the five-number summary
/// (linear in log-memory, where footprints are closer to uniform).
///
/// The paper's Table 3 lists a minimum of 0 MB for normal jobs; we clamp
/// to 256 MB so every job has a nonzero footprint.
pub fn sample_table3_peak_mb(rng: &mut Rng64, class: MemoryClass) -> u64 {
    let q = match class {
        MemoryClass::Normal => &TABLE3_NORMAL_MEM_MB,
        MemoryClass::Large => &TABLE3_LARGE_MEM_MB,
    };
    let u = rng.f64();
    let knots = [0.0, 0.25, 0.5, 0.75, 1.0];
    // Find the quantile segment containing u.
    let mut i = 0;
    while i < 3 && u > knots[i + 1] {
        i += 1;
    }
    let t = (u - knots[i]) / 0.25;
    let lo = q[i].ln();
    let hi = q[i + 1].ln();
    ((lo + t * (hi - lo)).exp()) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_rows_sum_to_100() {
        for ds in [Dataset::Synthetic, Dataset::Grizzly] {
            for cl in [SizeClass::All, SizeClass::Normal, SizeClass::Large] {
                let sum: f64 = table2_percentages(ds, cl).iter().sum();
                assert!((sum - 100.0).abs() < 0.21, "{ds:?}/{cl:?} sums to {sum}");
            }
        }
    }

    #[test]
    fn table2_sampler_matches_bins() {
        let mut rng = Rng64::new(42);
        let n = 60_000;
        let mut counts = [0usize; 5];
        for _ in 0..n {
            let mb = sample_table2_peak_mb(&mut rng, Dataset::Synthetic, 8);
            let gb = mb as f64 / 1024.0;
            assert!(gb < 128.0);
            let bin = TABLE2_EDGES_GB[1..5]
                .iter()
                .position(|&e| gb < e)
                .unwrap_or(4);
            counts[bin] += 1;
        }
        let expect = table2_percentages(Dataset::Synthetic, SizeClass::Normal);
        for (i, &c) in counts.iter().enumerate() {
            let pct = 100.0 * c as f64 / n as f64;
            assert!(
                (pct - expect[i]).abs() < 1.5,
                "bin {i}: {pct:.2}% vs expected {:.2}%",
                expect[i]
            );
        }
    }

    #[test]
    fn table2_size_class_selected_by_nodes() {
        let mut rng = Rng64::new(7);
        // Large jobs (>32 nodes) hit the top bins noticeably more often.
        let top_frac = |nodes: u32, rng: &mut Rng64| {
            let n = 30_000;
            let hits = (0..n)
                .filter(|_| sample_table2_peak_mb(rng, Dataset::Synthetic, nodes) > 48 * 1024)
                .count();
            hits as f64 / n as f64
        };
        let small = top_frac(8, &mut rng);
        let large = top_frac(64, &mut rng);
        assert!(large > small * 2.0, "small {small}, large {large}");
    }

    #[test]
    fn table3_sampler_reproduces_quartiles() {
        let mut rng = Rng64::new(11);
        let n = 40_000;
        let mut xs: Vec<f64> = (0..n)
            .map(|_| sample_table3_peak_mb(&mut rng, MemoryClass::Large) as f64)
            .collect();
        xs.sort_unstable_by(f64::total_cmp);
        let q = |p: f64| xs[(p * (n - 1) as f64) as usize];
        assert!((q(0.25) - TABLE3_LARGE_MEM_MB[1]).abs() / TABLE3_LARGE_MEM_MB[1] < 0.03);
        assert!((q(0.50) - TABLE3_LARGE_MEM_MB[2]).abs() / TABLE3_LARGE_MEM_MB[2] < 0.03);
        assert!((q(0.75) - TABLE3_LARGE_MEM_MB[3]).abs() / TABLE3_LARGE_MEM_MB[3] < 0.03);
    }

    #[test]
    fn table3_classes_partition_at_64gb() {
        let mut rng = Rng64::new(13);
        for _ in 0..5000 {
            let n = sample_table3_peak_mb(&mut rng, MemoryClass::Normal);
            assert!(n <= 65_536, "normal sample {n} exceeds 64 GB");
            let l = sample_table3_peak_mb(&mut rng, MemoryClass::Large);
            assert!(l > 65_536, "large sample {l} fits a normal node");
            assert!(l <= 130_100);
        }
    }
}
