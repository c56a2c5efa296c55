//! Cluster state: nodes, the disaggregated-memory ledger, and the
//! lend/borrow accounting rules of the static and dynamic policies.
//!
//! Every node owns `capacity_mb` of DRAM. At any instant it splits into
//!
//! * `local_alloc_mb` — allocated to the job running *on this node*,
//! * `lent_mb` — lent to jobs running on *other* nodes, and
//! * free memory (`capacity − local_alloc − lent`).
//!
//! Node allocation is exclusive: a node runs at most one job (paper §2.1),
//! but it can lend spare memory while running one. A node that has lent
//! more than `lend_cap_fraction` of its capacity temporarily becomes a
//! *memory node*: it keeps lending but accepts no new jobs until enough
//! borrowed memory is returned.
//!
//! All mutations go through checked operations that preserve the ledger
//! invariants; `debug_assert!`ed globally by [`Cluster::check_invariants`].
//!
//! The module tree splits the surface by concern:
//!
//! * `node` — node-level types ([`NodeId`], [`MemoryMix`], [`Node`]);
//! * `alloc` — the allocation ledger ([`JobAlloc`], [`AllocEntry`])
//!   and the start/finish/shrink/grow mutations;
//! * `indexes` — the incremental free-memory indexes and the
//!   invariant audit. To keep the scheduler hot path free of O(N)
//!   scans, the cluster maintains persistent indexes updated
//!   incrementally by every mutation: the schedulable nodes (serving
//!   best-fit placement directly) and the lender pool of all nodes
//!   with free memory, held as one index per rack (a flat cluster has
//!   one rack). Each is one sorted array of packed
//!   `free << 32 | id` keys, so a forward walk yields
//!   `(free asc, id asc)` and a backward walk by tie runs yields
//!   `(free desc, id asc)` — exactly the two orders the placement
//!   policy sorts by, which keeps indexed placement bit-identical to
//!   the full-scan twins in [`crate::oracle`] (debug builds assert it
//!   on every placement and growth plan). A ledger change re-keys a
//!   node in its rack's lender index and the schedulable index, each
//!   with two binary searches and a shift of the keys between its old
//!   and new positions. Every borrow plan reads the lender pool
//!   through one cursor per rack: the home rack's walk first, then a
//!   merge of the other racks' heads, built only when a plan leaves
//!   its home rack;
//! * `faults` — node crash/repair, blade degradation, and lender
//!   revocation;
//! * [`topology`] — the fabric partition ([`TopologySpec`],
//!   [`Topology`]): racks and the pricing of cross-rack borrowing. The
//!   flat topology is one rack with no per-node table, so its borrow
//!   plans read one index, as before the topology layer.

mod alloc;
mod faults;
mod indexes;
mod node;
#[cfg(test)]
mod tests;
pub mod topology;

pub use alloc::{AllocEntry, JobAlloc};
pub use node::{MemoryMix, Node, NodeId};
pub use topology::{Topology, TopologySpec, CROSS_RACK_WEIGHT};

use crate::job::JobId;
use indexes::{FreeIndex, LenderCursors};

/// One job's row of the cluster's per-job ledger.
#[derive(Clone, Debug, Default)]
struct JobSlot {
    /// The running allocation; `None` while the job is not placed.
    alloc: Option<JobAlloc>,
    /// Remote bandwidth contributions as `(lender, gbs)` pairs, mirrored
    /// into `Node::remote_demand_gbs`.
    demand: Vec<(NodeId, f64)>,
    /// Allocation version stamp (0 = not placed); see
    /// [`Cluster::alloc_version`].
    version: u64,
    /// Allocated MB (local + remote), kept by every mutation alongside
    /// the cluster-wide counters so the contention inputs are O(1).
    total_mb: u64,
    /// Borrowed MB.
    remote_mb: u64,
    /// The cross-rack slice of `remote_mb`; zero on flat topologies.
    cross_mb: u64,
}

/// Whole-cluster state: node ledgers plus the per-job allocation table
/// and the lender→borrowers index used for contention propagation.
#[derive(Clone, Debug)]
pub struct Cluster {
    nodes: Vec<Node>,
    lend_cap_fraction: f64,
    /// Dense per-job ledger, indexed by job id and grown lazily on a
    /// job's first start. Job ids are dense workload indices, so an
    /// indexed load replaces hashing the id on every lookup.
    jobs: Vec<JobSlot>,
    /// Reverse index, one list per node: which jobs borrow from it, in
    /// the order they first borrowed.
    borrowers: Vec<Vec<JobId>>,
    idle_nodes: usize,
    total_capacity_mb: u64,
    /// Running total of allocated memory (local + lent), maintained by
    /// every mutation so utilisation accounting is O(1) per event.
    total_alloc_mb: u64,
    /// Capacity currently unavailable to the pool: the full capacity of
    /// down nodes plus the degraded slices of up nodes. Maintained
    /// incrementally so pool-availability accounting is O(1) per event.
    total_offline_mb: u64,
    /// Number of nodes currently down.
    down_count: usize,
    /// Schedulable nodes (idle, within lend cap) sorted by `(free, id)`.
    /// Serves best-fit placement directly.
    sched_index: FreeIndex,
    /// The fabric partition. Flat topologies carry no per-node table.
    topology: Topology,
    /// The lender pool, one index per rack of `topology`: each holds
    /// the rack's nodes with free memory, keyed like `sched_index`. A
    /// flat cluster has one rack, so one index.
    rack_lenders: Vec<FreeIndex>,
    /// Running total of borrowed (remote) MB across all allocations.
    /// Maintained by every mutation so the metrics loop can integrate
    /// remote occupancy in O(1) per event.
    total_remote_mb: u64,
    /// The cross-rack slice of `total_remote_mb`. Always zero on flat
    /// topologies (every pair of nodes shares rack 0).
    total_cross_mb: u64,
    /// Cached `sched_index` population for O(1) feasibility checks.
    schedulable_count: usize,
    /// Free MB summed over `rack_lenders`, the lender pool. Kept by
    /// `touch`; unlike [`Self::free_pool_mb`] it does not assume down
    /// nodes hold no allocation.
    lender_free_mb: u64,
    /// Monotone clock stamping per-job allocation versions: every
    /// mutation that touches a job's allocation (start/shrink/grow/
    /// revoke) advances the clock and stamps the job with it, so a
    /// stamp observed once can never recur — the dynamic-memory fast
    /// path compares stamps to prove an allocation unchanged.
    alloc_clock: u64,
    /// Reusable buffers for mutation internals (per-lender aggregation,
    /// lender-set snapshots); kept here so the hot path never allocates.
    scratch_per_lender: Vec<(NodeId, u64)>,
    scratch_lenders: Vec<NodeId>,
    /// Per-node row of `refresh_demand`'s contribution list, `u32::MAX`
    /// when the node has none; every used slot is reset before return.
    demand_row: Vec<u32>,
    /// Per-node local MB of the allocation `start_job` is validating,
    /// 0 elsewhere; every used slot is reset before the check panics or
    /// returns.
    local_mark: Vec<u64>,
}

impl Cluster {
    /// Build a cluster from per-node capacities on the flat topology.
    pub fn new(capacities: Vec<u64>, lend_cap_fraction: f64) -> Self {
        Self::new_with_topology(capacities, lend_cap_fraction, TopologySpec::Flat)
    }

    /// Build a cluster from per-node capacities on an explicit topology.
    pub fn new_with_topology(
        capacities: Vec<u64>,
        lend_cap_fraction: f64,
        spec: TopologySpec,
    ) -> Self {
        assert!(!capacities.is_empty(), "cluster needs at least one node");
        // The free-memory indexes pack `free_mb << 32 | node_id` keys.
        assert!(
            capacities.iter().all(|&c| c <= u64::from(u32::MAX)),
            "node capacity exceeds u32::MAX MB"
        );
        assert!((0.0..=1.0).contains(&lend_cap_fraction));
        spec.validate().expect("invalid topology spec");
        let topology = spec.build(capacities.len() as u32);
        let total_capacity_mb = capacities.iter().sum();
        let node_count = capacities.len();
        let nodes = capacities
            .into_iter()
            .map(|capacity_mb| Node {
                capacity_mb,
                local_alloc_mb: 0,
                lent_mb: 0,
                running: None,
                remote_demand_gbs: 0.0,
                down: false,
                degraded_mb: 0,
            })
            .collect();
        let rack_lenders = vec![FreeIndex::default(); topology.racks() as usize];
        let mut cluster = Self {
            nodes,
            lend_cap_fraction,
            jobs: Vec::new(),
            borrowers: vec![Vec::new(); node_count],
            idle_nodes: node_count,
            total_capacity_mb,
            total_alloc_mb: 0,
            total_offline_mb: 0,
            down_count: 0,
            sched_index: FreeIndex::default(),
            topology,
            rack_lenders,
            total_remote_mb: 0,
            total_cross_mb: 0,
            schedulable_count: 0,
            lender_free_mb: 0,
            alloc_clock: 0,
            scratch_per_lender: Vec::new(),
            scratch_lenders: Vec::new(),
            demand_row: vec![u32::MAX; node_count],
            local_mark: vec![0; node_count],
        };
        // Every node starts idle with its full capacity free.
        for i in 0..cluster.nodes.len() {
            let id = NodeId(i as u32);
            let free = cluster.nodes[i].free_mb();
            if free > 0 {
                let rack = cluster.topology.rack_of(id) as usize;
                cluster.rack_lenders[rack].insert(free, id);
                cluster.lender_free_mb += free;
            }
            cluster.sched_index.insert(free, id);
        }
        cluster.schedulable_count = cluster.nodes.len();
        cluster
    }

    /// Apply a mutation to one node and resync the indexes from its
    /// before/after `(free, schedulable)` state. Every node mutation
    /// that can move free memory or schedulability goes through here.
    #[inline]
    fn touch<F: FnOnce(&mut Node)>(&mut self, id: NodeId, f: F) {
        let i = id.0 as usize;
        let old_free = self.nodes[i].free_mb();
        let old_sched = self.schedulable(id);
        f(&mut self.nodes[i]);
        let new_free = self.nodes[i].free_mb();
        let new_sched = self.schedulable(id);
        if old_free != new_free {
            self.lender_free_mb = self.lender_free_mb - old_free + new_free;
            // A lender index holds exactly the nodes with free memory:
            // one re-key while the node stays a member, an insert or
            // remove when it joins or leaves.
            let lenders = &mut self.rack_lenders[self.topology.rack_of(id) as usize];
            match (old_free > 0, new_free > 0) {
                (true, true) => lenders.rekey(old_free, new_free, id),
                (true, false) => lenders.remove(old_free, id),
                (false, true) => lenders.insert(new_free, id),
                (false, false) => {}
            }
        }
        match (old_sched, new_sched) {
            (true, true) if old_free != new_free => self.sched_index.rekey(old_free, new_free, id),
            (true, false) => self.sched_index.remove(old_free, id),
            (false, true) => self.sched_index.insert(new_free, id),
            _ => {}
        }
        if old_sched != new_sched {
            if new_sched {
                self.schedulable_count += 1;
            } else {
                self.schedulable_count -= 1;
            }
        }
    }

    /// Build the cluster described by a [`crate::config::SystemConfig`],
    /// including its topology.
    pub fn from_config(cfg: &crate::config::SystemConfig) -> Self {
        Self::new_with_topology(
            cfg.memory_mix.capacities(cfg.nodes),
            cfg.lend_cap_fraction,
            cfg.topology,
        )
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the cluster has no nodes (never true once constructed).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Immutable access to one node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// Iterate over `(NodeId, &Node)`.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// Number of idle (not running a job) nodes.
    pub fn idle_count(&self) -> usize {
        self.idle_nodes
    }

    /// Total cluster capacity in MB.
    pub fn total_capacity_mb(&self) -> u64 {
        self.total_capacity_mb
    }

    /// Total memory currently allocated (local + lent views coincide:
    /// lent memory is counted once, on the lender). O(1): maintained
    /// incrementally because the simulator reads it on every event for
    /// the utilisation integral.
    pub fn total_allocated_mb(&self) -> u64 {
        self.total_alloc_mb
    }

    /// Whether a node may accept a new job: up, idle, and within its lend
    /// cap (otherwise it is temporarily a memory-only node).
    pub fn schedulable(&self, id: NodeId) -> bool {
        let n = self.node(id);
        !n.down
            && n.running.is_none()
            && (n.lent_mb as f64) <= self.lend_cap_fraction * n.capacity_mb as f64
    }

    /// Number of nodes currently able to accept a job. O(1).
    pub fn schedulable_count(&self) -> usize {
        self.schedulable_count
    }

    /// Total free memory across the cluster in MB, excluding down-node
    /// and degraded capacity. O(1).
    pub fn free_pool_mb(&self) -> u64 {
        self.total_capacity_mb - self.total_alloc_mb - self.total_offline_mb
    }

    /// Capacity currently unavailable to the pool (down nodes plus
    /// degraded slices), MB. O(1).
    pub fn total_offline_mb(&self) -> u64 {
        self.total_offline_mb
    }

    /// Whether the node is down.
    pub fn is_down(&self, id: NodeId) -> bool {
        self.node(id).down
    }

    /// Number of nodes currently down. O(1).
    pub fn down_count(&self) -> usize {
        self.down_count
    }

    /// Schedulable nodes with at least `min_free` MB free, ascending by
    /// `(free, id)` — the phase-1 best-fit order.
    pub fn schedulable_by_free_asc(
        &self,
        min_free: u64,
    ) -> impl ExactSizeIterator<Item = (u64, NodeId)> + '_ {
        self.sched_index.asc_from(min_free)
    }

    /// All schedulable nodes, descending by free memory with ids
    /// ascending within ties — the phase-2 compute-node order.
    pub fn schedulable_by_free_desc(&self) -> impl Iterator<Item = (u64, NodeId)> + '_ {
        self.sched_index.desc()
    }

    /// The lender pool for one borrow plan: a cursor per rack over the
    /// nodes with free memory that `skip` lets through (a plan's own
    /// compute nodes never lend to it).
    pub(crate) fn lender_cursors<S: Fn(NodeId) -> bool>(&self, skip: S) -> LenderCursors<'_, S> {
        LenderCursors::new(&self.rack_lenders, &self.topology, skip)
    }

    /// Free MB across the lender pool, every node with free memory.
    /// O(1).
    pub(crate) fn lender_free_mb(&self) -> u64 {
        self.lender_free_mb
    }

    /// The allocation of a running job, if any.
    pub fn alloc_of(&self, job: JobId) -> Option<&JobAlloc> {
        self.jobs.get(job.0 as usize)?.alloc.as_ref()
    }

    /// Memory allocated to `job` (local + remote), MB; 0 when not
    /// placed. O(1).
    pub(crate) fn job_total_mb(&self, job: JobId) -> u64 {
        self.jobs.get(job.0 as usize).map_or(0, |s| s.total_mb)
    }

    /// Memory `job` borrows from lenders, MB; 0 when not placed. O(1).
    pub(crate) fn job_remote_mb(&self, job: JobId) -> u64 {
        self.jobs.get(job.0 as usize).map_or(0, |s| s.remote_mb)
    }

    /// The job's ledger row, created (with every later id's) on first
    /// use.
    #[inline]
    fn slot_mut(&mut self, job: JobId) -> &mut JobSlot {
        let i = job.0 as usize;
        if i >= self.jobs.len() {
            self.jobs.resize_with(i + 1, JobSlot::default);
        }
        &mut self.jobs[i]
    }

    /// Take a placed job's allocation out of its row, for a mutation
    /// that puts it back with [`Self::put_alloc`].
    fn take_alloc(&mut self, job: JobId, what: &str) -> JobAlloc {
        self.jobs
            .get_mut(job.0 as usize)
            .and_then(|s| s.alloc.take())
            .unwrap_or_else(|| panic!("{what} of unplaced job"))
    }

    /// Store a job's (new) allocation in its row.
    fn put_alloc(&mut self, job: JobId, alloc: JobAlloc) {
        self.slot_mut(job).alloc = Some(alloc);
    }

    /// The job's allocation version: a stamp off a cluster-wide
    /// monotone clock, advanced by every mutation of the job's
    /// allocation ([`Self::start_job`], [`Self::shrink_job`],
    /// [`Self::grow_entry`], [`Self::revoke_lender`]) — crash/degrade
    /// recovery routes through those same mutations. Two equal stamps
    /// therefore prove the allocation has not changed in between; 0
    /// means the job is not placed. The dynamic-memory update loop uses
    /// this to skip the Decider when nothing could have changed.
    pub fn alloc_version(&self, job: JobId) -> u64 {
        self.jobs.get(job.0 as usize).map_or(0, |s| s.version)
    }

    /// Advance the allocation clock and stamp `job` with the new value.
    #[inline]
    pub(super) fn bump_alloc_version(&mut self, job: JobId) {
        self.alloc_clock += 1;
        let clock = self.alloc_clock;
        self.slot_mut(job).version = clock;
    }

    /// The distinct lenders of `job`'s allocation in first-appearance
    /// order (entries in order, each entry's slices in order), as
    /// [`JobAlloc::lenders_into`] lists them; empty when not placed.
    /// Read off the job's bandwidth-contribution rows, which
    /// [`Self::check_invariants`] holds to that order: O(lenders), with
    /// no de-duplication scan.
    pub(crate) fn job_lenders(&self, job: JobId) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        self.jobs
            .get(job.0 as usize)
            .map_or(&[][..], |s| &s.demand[..])
            .iter()
            .map(|&(l, _)| l)
    }

    /// Jobs currently borrowing memory from `lender`.
    pub fn borrowers_of(&self, lender: NodeId) -> &[JobId] {
        &self.borrowers[lender.0 as usize]
    }

    /// Drop `job` from `lender`'s borrower list.
    #[inline]
    fn unlink_borrower(&mut self, lender: NodeId, job: JobId) {
        self.borrowers[lender.0 as usize].retain(|&j| j != job);
    }

    /// Maximum remote-bandwidth demand across the lenders of `job`'s
    /// allocation, GB/s. Zero for fully local jobs.
    ///
    /// Folds over the job's bandwidth-contribution rows, one per
    /// distinct lender, rather than over every remote slice: `max` is
    /// order-free and idempotent, so the result is the slice fold's
    /// ([`crate::oracle::hottest_lender_demand_reference`]).
    pub fn hottest_lender_demand_gbs(&self, job: JobId) -> f64 {
        self.jobs.get(job.0 as usize).map_or(0.0, |s| {
            s.demand
                .iter()
                .map(|&(l, _)| self.node(l).remote_demand_gbs)
                .fold(0.0, f64::max)
        })
    }

    /// The fabric partition this cluster was built on.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Rack of a node (0 on flat topologies).
    #[inline]
    pub fn rack_of(&self, id: NodeId) -> u32 {
        self.topology.rack_of(id)
    }

    /// Whether two nodes sit in different racks. Always `false` on flat
    /// topologies.
    #[inline]
    pub fn is_cross(&self, a: NodeId, b: NodeId) -> bool {
        self.topology.rack_of(a) != self.topology.rack_of(b)
    }

    /// Total borrowed (remote) MB across all allocations. O(1).
    pub fn total_remote_mb(&self) -> u64 {
        self.total_remote_mb
    }

    /// The cross-rack slice of [`Self::total_remote_mb`]. O(1); zero on
    /// flat topologies.
    pub fn total_cross_rack_mb(&self) -> u64 {
        self.total_cross_mb
    }

    /// Effective remote fraction of a job's allocation with cross-rack
    /// slices priced at [`CROSS_RACK_WEIGHT`]×. On flat topologies this
    /// is exactly [`JobAlloc::remote_fraction`]. May exceed 1; the
    /// contention model clamps. Zero for unplaced jobs. O(1).
    ///
    /// One division of the job's cached totals. It equals the slice
    /// fold of [`crate::oracle::priced_remote_fraction_reference`] bit
    /// for bit: that fold adds integer MB weighted 1 or 2, and every
    /// partial sum is an integer below 2^53, so it is exact too.
    pub fn priced_remote_fraction(&self, job: JobId) -> f64 {
        let Some(s) = self.jobs.get(job.0 as usize) else {
            return 0.0;
        };
        if s.total_mb == 0 {
            return 0.0;
        }
        let weighted = (s.remote_mb - s.cross_mb) as f64 + CROSS_RACK_WEIGHT * s.cross_mb as f64;
        weighted / s.total_mb as f64
    }
}
