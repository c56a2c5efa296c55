//! Node-level types: ids, the normal/large capacity mix, and one node's
//! memory ledger.

/// Index of a node in the cluster.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// The normal/large node capacity split of a simulated system (Table 4).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MemoryMix {
    /// Capacity of a normal node in MB.
    pub normal_mb: u64,
    /// Capacity of a large node in MB (double the normal capacity in the
    /// paper's configurations).
    pub large_mb: u64,
    /// Fraction of nodes that are large, in `[0, 1]`.
    pub large_fraction: f64,
}

impl MemoryMix {
    /// Capacity of a fully provisioned (large, 128 GB) node in MB; the
    /// normalisation constant for the "total system memory %" axis.
    pub const FULL_NODE_MB: u64 = 128 * 1024;

    /// Create a mix. `large_fraction` is clamped to `[0,1]`.
    pub fn new(normal_mb: u64, large_mb: u64, large_fraction: f64) -> Self {
        assert!(normal_mb > 0 && large_mb >= normal_mb);
        Self {
            normal_mb,
            large_mb,
            large_fraction: large_fraction.clamp(0.0, 1.0),
        }
    }

    /// All nodes are 128 GB: the 100%-memory system.
    pub fn all_large() -> Self {
        Self::new(64 * 1024, Self::FULL_NODE_MB, 1.0)
    }

    /// 64/128 GB mix with half the nodes large (75% total memory).
    pub fn half_large() -> Self {
        Self::new(64 * 1024, Self::FULL_NODE_MB, 0.5)
    }

    /// The eight memory configurations on the x-axis of Figures 5 and 8,
    /// as `(label_percent, mix)`: {37, 43, 50, 57, 62, 75, 87, 100}.
    ///
    /// Points ≥ 50% come from 64/128 GB systems with {0,15,25,50,75,100}%
    /// large nodes; 37% and 43% from 32/64 GB systems with 50% and 75%
    /// large nodes (§3.4: systems have either 128 GB or 64 GB large
    /// nodes).
    pub fn paper_axis() -> Vec<(u32, MemoryMix)> {
        let g = 1024;
        vec![
            (37, MemoryMix::new(32 * g, 64 * g, 0.5)),
            (43, MemoryMix::new(32 * g, 64 * g, 0.75)),
            (50, MemoryMix::new(64 * g, 128 * g, 0.0)),
            (57, MemoryMix::new(64 * g, 128 * g, 0.15)),
            (62, MemoryMix::new(64 * g, 128 * g, 0.25)),
            (75, MemoryMix::new(64 * g, 128 * g, 0.5)),
            (87, MemoryMix::new(64 * g, 128 * g, 0.75)),
            (100, MemoryMix::new(64 * g, 128 * g, 1.0)),
        ]
    }

    /// Whether node `i` is a large node. Large nodes are spread evenly
    /// across the id space so borrowing distances stay uniform.
    pub fn is_large(&self, i: u32) -> bool {
        let f = self.large_fraction;
        ((i + 1) as f64 * f).floor() > (i as f64 * f).floor()
    }

    /// Capacities of all `n` nodes, in MB.
    pub fn capacities(&self, n: u32) -> Vec<u64> {
        (0..n)
            .map(|i| {
                if self.is_large(i) {
                    self.large_mb
                } else {
                    self.normal_mb
                }
            })
            .collect()
    }

    /// Total memory of an `n`-node system in MB.
    pub fn total_memory_mb(&self, n: u32) -> u64 {
        self.capacities(n).iter().sum()
    }

    /// Number of large nodes in an `n`-node system.
    pub fn large_nodes(&self, n: u32) -> u32 {
        (0..n).filter(|&i| self.is_large(i)).count() as u32
    }
}

/// One node's ledger.
#[derive(Clone, Debug)]
pub struct Node {
    /// DRAM capacity in MB.
    pub capacity_mb: u64,
    /// Memory allocated to the job running on this node (its local part).
    pub local_alloc_mb: u64,
    /// Memory lent to jobs running elsewhere.
    pub lent_mb: u64,
    /// The job running on this node, if any (exclusive allocation).
    pub running: Option<crate::job::JobId>,
    /// Aggregate remote-bandwidth demand from borrowers, GB/s.
    pub remote_demand_gbs: f64,
    /// Whether the node has crashed and is awaiting repair. A down node
    /// has zero free memory and is never schedulable.
    pub down: bool,
    /// Capacity currently lost to pool-blade degradation, MB. Degraded
    /// memory is neither free nor allocatable until restored.
    pub degraded_mb: u64,
}

impl Node {
    /// Free memory: capacity minus local allocation, lent memory, and
    /// degraded capacity. Zero while the node is down.
    #[inline]
    pub fn free_mb(&self) -> u64 {
        if self.down {
            return 0;
        }
        self.capacity_mb - self.local_alloc_mb - self.lent_mb - self.degraded_mb
    }
}
