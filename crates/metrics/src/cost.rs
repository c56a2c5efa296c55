//! The cost–benefit model of §4.3 and Table 4.
//!
//! A system's cost is `nodes × $10,154 + (memory / 128 GB) × $1,280`
//! (node cost includes the node itself, network, switches and small
//! storage; figures from Ogunshile's small-scale HPC cloud analysis).
//! Figure 7 plots throughput (jobs/s) divided by this cost.

/// Component costs of a simulated system.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Dollars per node, excluding memory.
    pub per_node_usd: f64,
    /// Dollars per 128 GB of DRAM.
    pub per_128gb_usd: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            per_node_usd: 10_154.0,
            per_128gb_usd: 1_280.0,
        }
    }
}

impl CostModel {
    /// Total cost of `nodes` nodes provisioned with `total_mem_mb` of
    /// memory, in dollars.
    pub fn system_cost_usd(&self, nodes: u32, total_mem_mb: u64) -> f64 {
        let mem_units = total_mem_mb as f64 / (128.0 * 1024.0);
        nodes as f64 * self.per_node_usd + mem_units * self.per_128gb_usd
    }

    /// Throughput per dollar: the y-axis of Figure 7.
    ///
    /// # Panics
    /// Panics if the system cost is zero (no nodes and no memory).
    pub fn throughput_per_dollar(&self, throughput_jps: f64, nodes: u32, total_mem_mb: u64) -> f64 {
        let cost = self.system_cost_usd(nodes, total_mem_mb);
        assert!(cost > 0.0, "system cost must be positive");
        throughput_jps / cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_cost_figures() {
        let m = CostModel::default();
        // 1024 nodes with 128 GB each.
        let cost = m.system_cost_usd(1024, 1024 * 128 * 1024);
        let expect = 1024.0 * 10_154.0 + 1024.0 * 1_280.0;
        assert!((cost - expect).abs() < 1e-6);
    }

    #[test]
    fn memory_fraction_scales_cost() {
        let m = CostModel::default();
        let full = m.system_cost_usd(100, 100 * 128 * 1024);
        let half = m.system_cost_usd(100, 50 * 128 * 1024);
        assert!(full > half);
        assert!((full - half - 50.0 * 1_280.0).abs() < 1e-6);
    }

    #[test]
    fn throughput_per_dollar_order_of_magnitude() {
        // The paper's Fig. 7 y-axis runs ~4e-8..8e-8 jobs/s/$ for the
        // 1024-node system at ~0.5 jobs/s.
        let m = CostModel::default();
        let tpd = m.throughput_per_dollar(0.5, 1024, 1024 * 128 * 1024);
        assert!(tpd > 1e-8 && tpd < 1e-7, "got {tpd:e}");
    }

    #[test]
    fn cheaper_system_wins_at_equal_throughput() {
        let m = CostModel::default();
        let a = m.throughput_per_dollar(1.0, 1024, 1024 * 128 * 1024);
        let b = m.throughput_per_dollar(1.0, 1024, 512 * 128 * 1024);
        assert!(b > a);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_cost_panics() {
        CostModel::default().throughput_per_dollar(1.0, 0, 0);
    }
}
