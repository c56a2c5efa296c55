//! Discrete-event engine: simulated time and the event queue.
//!
//! Time is an integer number of **microseconds** ([`SimTime`]) so that
//! event ordering is exact — float timestamps accumulate rounding error
//! and make runs non-reproducible when slowdowns change job end times.
//!
//! Job-end and memory-update events are *re-schedulable*: when a job's
//! speed changes, its pending events become stale. Rather than removing
//! them from the queue (O(n)), each carries an **epoch**; the simulation
//! bumps the job's epoch and pushes a fresh event, and stale pops are
//! discarded (standard lazy deletion).

use crate::cluster::NodeId;
use crate::config::SystemConfig;
use crate::job::JobId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Simulated time in integer microseconds since the start of the run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Zero: the start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Convert from seconds (fractional part kept to µs precision;
    /// negative values clamp to zero).
    pub fn from_secs(s: f64) -> Self {
        SimTime((s.max(0.0) * 1e6).round() as u64)
    }

    /// Convert to (fractional) seconds.
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating addition of a duration in seconds.
    pub fn plus_secs(self, s: f64) -> Self {
        SimTime(self.0.saturating_add((s.max(0.0) * 1e6).round() as u64))
    }
}

impl std::ops::Sub for SimTime {
    type Output = f64;
    /// Difference in seconds (saturating at zero when rhs > lhs).
    #[allow(clippy::suspicious_arithmetic_impl)] // µs → s conversion
    fn sub(self, rhs: SimTime) -> f64 {
        self.0.saturating_sub(rhs.0) as f64 / 1e6
    }
}

/// What can happen in the simulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A job arrives in the pending queue.
    Submit(JobId),
    /// Periodic scheduler pass (FCFS + backfill), every 30 s.
    SchedTick,
    /// A job completes its work. Stale if the epoch doesn't match.
    JobEnd {
        /// The finishing job.
        job: JobId,
        /// Epoch at scheduling time; compared against the job's current
        /// epoch on pop.
        epoch: u32,
    },
    /// Dynamic policy: re-read the job's memory usage and adjust its
    /// allocation. Stale if the epoch doesn't match.
    MemUpdate {
        /// The job whose usage is re-read.
        job: JobId,
        /// Epoch at scheduling time.
        epoch: u32,
    },
    /// Fault injection: the node crashes (resident job killed, borrows
    /// revoked, node out of the pool until repair).
    NodeFail {
        /// The crashing node.
        node: NodeId,
    },
    /// Fault injection: the node's repair completes.
    NodeRepair {
        /// The repaired node.
        node: NodeId,
    },
    /// Fault injection: `mb` of the node's DRAM leaves the lending pool.
    PoolDegrade {
        /// The degrading node.
        node: NodeId,
        /// Capacity lost, MB.
        mb: u64,
    },
    /// Fault injection: a previously degraded slice comes back.
    PoolRestore {
        /// The restored node.
        node: NodeId,
        /// Capacity restored, MB.
        mb: u64,
    },
}

/// An event at a point in simulated time. `seq` breaks ties FIFO so
/// same-timestamp events process in insertion order (determinism).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// When the event fires.
    pub time: SimTime,
    /// Tie-break sequence number (insertion order).
    pub seq: u64,
    /// Payload.
    pub kind: EventKind,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The pending events, popped in one `(time, seq)` order from four
/// lanes:
///
/// * **arrivals** — the events known before the run starts (every
///   workload submit, the first scheduler tick, the pre-generated
///   fault schedule), handed over once by
///   [`with_arrivals`](Self::with_arrivals), sorted once and read with
///   a cursor;
/// * **tick slot** — the one pending run-time scheduler tick, set by
///   [`schedule_tick`](Self::schedule_tick);
/// * **ring** — every run-time [`push`](Self::push) that falls within
///   the near-future span: a ring of `RING` time buckets, each a
///   power of two µs wide;
/// * **heap** — the run-time pushes beyond that span (job ends hours
///   ahead, long backoffs).
///
/// Every lane takes its `seq` from one counter, so [`pop`](Self::pop)
/// returns exactly the sequence a single min-heap fed the same pushes
/// would. Keeping the start-up submits and the periodic tick out of the
/// heap keeps it at the size of the run-time events and takes the
/// bookkeeping events off its sift path; the ring takes the periodic
/// memory updates off it too.
///
/// The ring holds only events whose bucket lies in `[base, base +
/// RING)`, where `base` is the bucket of the latest popped event, so no
/// two pending buckets share a ring position and a forward scan of the
/// occupancy bitmap meets them in time order. The earliest bucket is kept sorted descending by `(time, seq)`, so a pop
/// takes its last element: a push into it is a binary-search insert, a
/// push into a later bucket an append, and a bucket is sorted once when
/// it becomes the earliest.
///
/// Lazy deletion leaves stale `JobEnd`/`MemUpdate` events queued until
/// they are popped. Under the dynamic policy a long-running borrower
/// can be re-timed many times between pops, so the queue can grow well
/// past the live event count. Callers report superseded events via
/// [`note_stale`](Self::note_stale); once
/// [`should_compact`](Self::should_compact) trips, a single
/// [`compact`](Self::compact) sweep drops them. Survivors keep their
/// `(time, seq)` keys, so compaction never reorders live events, but it
/// is *not* invisible to the outcome: the caller does run-level
/// bookkeeping on every pop, stale ones included, so which stale events
/// are still there to pop depends on when compaction fired. The trigger
/// is deterministic and counts every pending event in every lane.
#[derive(Clone, Debug)]
pub struct EventQueue {
    /// Start-up events sorted by `(time, seq)`; `arrivals[cursor..]`
    /// are still pending.
    arrivals: Vec<Event>,
    cursor: usize,
    /// The pending run-time `SchedTick`, if any.
    tick: Option<Event>,
    /// Near-future buckets: bucket `slot` (event time `>> shift`) lives
    /// at `ring[slot % RING]`.
    ring: Box<[Vec<Event>; RING]>,
    /// One bit per ring bucket, set while the bucket is non-empty.
    occupied: [u64; RING / 64],
    /// Events in the ring.
    ring_len: usize,
    /// Slot of the earliest occupied bucket while the ring is non-empty
    /// (that bucket is sorted descending); its bucket is empty
    /// otherwise.
    head: u64,
    /// Slot of the latest popped event: every ring event lies in
    /// `[base, base + RING)`.
    base: u64,
    /// Bucket width is `1 << shift` µs.
    shift: u32,
    heap: BinaryHeap<Reverse<Event>>,
    next_seq: u64,
    /// Events known to be stale (superseded by a newer epoch) but still
    /// queued. Decremented when a stale event pops.
    stale: usize,
}

/// Compact once at least this many events are pending *and* stale
/// events outnumber live ones. The floor keeps small runs (where a full
/// rebuild costs more than it saves) on the pure lazy-deletion path.
const COMPACT_MIN_LEN: usize = 1024;

/// Buckets in the near-future ring.
const RING: usize = 512;

/// Which lane holds the earliest pending event.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Lane {
    Arrivals,
    Tick,
    Ring,
    Heap,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue {
    /// An empty queue whose ring spans the paper system's
    /// longest memory-update interval.
    pub fn new() -> Self {
        Self::with_arrivals(SystemConfig::synthetic_1024().longest_update_interval(), [])
    }

    /// A queue holding the start-up `events`, stamped with `seq`s in the
    /// given order (ties at one instant pop in that order). Run-time
    /// pushes up to `near_span` past the current time go to the ring,
    /// whose buckets are the narrowest power of two µs wide at which
    /// `RING - 1` of them cover `near_span` (so a push up to `near_span`
    /// ahead lands in the ring from any point within the current
    /// bucket).
    pub fn with_arrivals(
        near_span: SimTime,
        events: impl IntoIterator<Item = (SimTime, EventKind)>,
    ) -> Self {
        let mut arrivals: Vec<Event> = events
            .into_iter()
            .enumerate()
            .map(|(seq, (time, kind))| Event {
                time,
                seq: seq as u64,
                kind,
            })
            .collect();
        arrivals.sort_unstable();
        let width = near_span.0.div_ceil(RING as u64 - 1).max(1);
        Self {
            next_seq: arrivals.len() as u64,
            arrivals,
            cursor: 0,
            tick: None,
            ring: Box::new(std::array::from_fn(|_| Vec::new())),
            occupied: [0; RING / 64],
            ring_len: 0,
            head: 0,
            base: 0,
            shift: width.next_power_of_two().trailing_zeros(),
            heap: BinaryHeap::new(),
            stale: 0,
        }
    }

    #[inline]
    fn stamp(&mut self, time: SimTime, kind: EventKind) -> Event {
        let seq = self.next_seq;
        self.next_seq += 1;
        Event { time, seq, kind }
    }

    /// Schedule `kind` at `time`: on the ring if its bucket is within
    /// `RING` buckets of the latest pop's, on the heap otherwise.
    pub fn push(&mut self, time: SimTime, kind: EventKind) {
        let e = self.stamp(time, kind);
        let slot = time.0 >> self.shift;
        if slot.wrapping_sub(self.base) >= RING as u64 {
            self.heap.push(Reverse(e));
            return;
        }
        let i = slot as usize % RING;
        let bucket = &mut self.ring[i];
        if self.ring_len == 0 || slot < self.head {
            // A new earliest bucket: it was empty, so it is sorted.
            self.head = slot;
            bucket.push(e);
        } else if slot == self.head {
            let at = bucket.partition_point(|x| *x > e);
            bucket.insert(at, e);
        } else {
            bucket.push(e);
        }
        self.occupied[i / 64] |= 1 << (i % 64);
        self.ring_len += 1;
    }

    /// Schedule the next scheduler tick at `time`. At most one run-time
    /// tick may be pending.
    pub fn schedule_tick(&mut self, time: SimTime) {
        debug_assert!(self.tick.is_none(), "a scheduler tick is already pending");
        self.tick = Some(self.stamp(time, EventKind::SchedTick));
    }

    /// The lane whose head is the earliest pending event.
    #[inline]
    fn first_lane(&self) -> Option<(Lane, &Event)> {
        let mut best = self.arrivals.get(self.cursor).map(|e| (Lane::Arrivals, e));
        for (lane, head) in [
            (Lane::Tick, self.tick.as_ref()),
            (Lane::Ring, self.ring[self.head as usize % RING].last()),
            (Lane::Heap, self.heap.peek().map(|Reverse(e)| e)),
        ] {
            if let Some(e) = head {
                if best.is_none_or(|(_, b)| e < b) {
                    best = Some((lane, e));
                }
            }
        }
        best
    }

    /// Pop the earliest event, if any.
    #[inline]
    pub fn pop(&mut self) -> Option<Event> {
        let (lane, &e) = self.first_lane()?;
        match lane {
            Lane::Arrivals => self.cursor += 1,
            Lane::Tick => self.tick = None,
            Lane::Ring => {
                let i = self.head as usize % RING;
                self.ring[i].pop();
                self.ring_len -= 1;
                if self.ring[i].is_empty() {
                    self.occupied[i / 64] &= !(1 << (i % 64));
                    self.advance_head();
                }
            }
            Lane::Heap => {
                self.heap.pop();
            }
        }
        self.base = self.base.max(e.time.0 >> self.shift);
        Some(e)
    }

    /// The head bucket is empty: make the next occupied bucket (if any)
    /// the head and sort it. Every ring event is at or after the old
    /// head and within `RING` buckets of `base <= head`, so scanning the
    /// bitmap forward from the old head, wrapping once, meets the
    /// pending buckets in time order.
    fn advance_head(&mut self) {
        if self.ring_len == 0 {
            return;
        }
        let from = self.head as usize % RING;
        // The last step revisits the first word, whose bits at and past
        // `from` are clear by then: a hit there has wrapped around.
        let next = (0..=RING / 64)
            .find_map(|k| {
                let w = (from / 64 + k) % (RING / 64);
                let mask = if k == 0 { !0u64 << (from % 64) } else { !0 };
                let bits = self.occupied[w] & mask;
                (bits != 0).then(|| w * 64 + bits.trailing_zeros() as usize)
            })
            .expect("a non-empty ring has an occupied bucket");
        self.head += ((next + RING - from) % RING) as u64;
        self.ring[next].sort_unstable_by(|a, b| b.cmp(a));
    }

    /// Time of the earliest pending event (checked against the
    /// reference heap in `lanes_pop_like_one_heap`).
    #[cfg(test)]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.first_lane().map(|(_, e)| e.time)
    }

    /// Number of pending events in every lane (including stale ones).
    pub fn len(&self) -> usize {
        self.arrivals.len() - self.cursor
            + usize::from(self.tick.is_some())
            + self.ring_len
            + self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Record that `n` queued events just became stale (their job's
    /// epoch advanced past them).
    pub fn note_stale(&mut self, n: usize) {
        self.stale += n;
    }

    /// Record that a popped event turned out to be stale.
    pub fn note_stale_popped(&mut self) {
        self.stale = self.stale.saturating_sub(1);
    }

    /// Number of events currently believed stale.
    pub fn stale(&self) -> usize {
        self.stale
    }

    /// Whether the stale fraction warrants a [`compact`](Self::compact)
    /// sweep: at least `COMPACT_MIN_LEN` events pending across all lanes
    /// and more than half of them stale.
    pub fn should_compact(&self) -> bool {
        let len = self.len();
        len >= COMPACT_MIN_LEN && self.stale * 2 > len
    }

    /// Drop every pending event, in every lane, for which `keep`
    /// returns `false`. Survivors keep their `(time, seq)` keys, so the
    /// order they pop in is unchanged. Resets the stale counter.
    pub fn compact<F: FnMut(&Event) -> bool>(&mut self, mut keep: F) {
        self.arrivals.drain(..self.cursor);
        self.cursor = 0;
        self.arrivals.retain(|e| keep(e));
        if self.tick.as_ref().is_some_and(|e| !keep(e)) {
            self.tick = None;
        }
        // `retain` keeps each bucket's order, so the head stays sorted.
        self.ring_len = 0;
        self.occupied = [0; RING / 64];
        for (i, bucket) in self.ring.iter_mut().enumerate() {
            bucket.retain(|e| keep(e));
            if !bucket.is_empty() {
                self.ring_len += bucket.len();
                self.occupied[i / 64] |= 1 << (i % 64);
            }
        }
        if self.ring[self.head as usize % RING].is_empty() {
            self.advance_head();
        }
        let events = std::mem::take(&mut self.heap).into_vec();
        self.heap = events.into_iter().filter(|Reverse(e)| keep(e)).collect();
        self.stale = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simtime_roundtrip() {
        let t = SimTime::from_secs(123.456789);
        assert!((t.as_secs() - 123.456789).abs() < 1e-6);
        assert_eq!(SimTime::from_secs(-5.0), SimTime::ZERO);
    }

    #[test]
    fn simtime_arithmetic() {
        let a = SimTime::from_secs(10.0);
        let b = a.plus_secs(5.5);
        assert!((b - a - 5.5).abs() < 1e-9);
        // Saturating subtraction.
        assert_eq!(a - b, 0.0);
    }

    #[test]
    fn queue_orders_by_time() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(30.0), EventKind::SchedTick);
        q.push(SimTime::from_secs(10.0), EventKind::Submit(JobId(1)));
        q.push(SimTime::from_secs(20.0), EventKind::Submit(JobId(2)));
        assert_eq!(q.pop().unwrap().kind, EventKind::Submit(JobId(1)));
        assert_eq!(q.pop().unwrap().kind, EventKind::Submit(JobId(2)));
        assert_eq!(q.pop().unwrap().kind, EventKind::SchedTick);
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1.0);
        for i in 0..100 {
            q.push(t, EventKind::Submit(JobId(i)));
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().kind, EventKind::Submit(JobId(i)));
        }
    }

    #[test]
    fn peek_time_matches_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(7.0), EventKind::SchedTick);
        q.push(SimTime::from_secs(3.0), EventKind::SchedTick);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(3.0)));
        q.pop();
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(7.0)));
    }

    #[test]
    fn compact_preserves_pop_order_of_survivors() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1.0);
        for i in 0..50 {
            q.push(
                t,
                EventKind::JobEnd {
                    job: JobId(i),
                    epoch: 0,
                },
            );
        }
        // Mark odd jobs stale and compact them away.
        q.note_stale(25);
        assert_eq!(q.stale(), 25);
        q.compact(|e| match e.kind {
            EventKind::JobEnd { job, .. } => job.0 % 2 == 0,
            _ => true,
        });
        assert_eq!(q.stale(), 0);
        assert_eq!(q.len(), 25);
        // Survivors pop in the original insertion (seq) order.
        for i in (0..50).step_by(2) {
            assert_eq!(
                q.pop().unwrap().kind,
                EventKind::JobEnd {
                    job: JobId(i),
                    epoch: 0
                }
            );
        }
    }

    #[test]
    fn should_compact_requires_size_and_stale_majority() {
        let mut q = EventQueue::new();
        for i in 0..600 {
            q.push(SimTime::ZERO, EventKind::Submit(JobId(i)));
        }
        q.note_stale(400);
        // Majority stale but below the size floor: no compaction.
        assert!(!q.should_compact());
        for i in 600..1200 {
            q.push(SimTime::ZERO, EventKind::Submit(JobId(i)));
        }
        // Big enough but stale is now a minority.
        assert!(!q.should_compact());
        q.note_stale(300);
        assert!(q.should_compact());
        q.compact(|_| true);
        assert!(!q.should_compact());
    }

    #[test]
    fn len_and_should_compact_count_every_lane() {
        let submits = (0..500).map(|i| (SimTime(i), EventKind::Submit(JobId(i as u32))));
        let mut q = EventQueue::with_arrivals(SimTime::from_secs(360.0), submits);
        q.schedule_tick(SimTime(30));
        // Even jobs end within the ring's span, odd ones far past it.
        for i in 0..523 {
            let t = if i % 2 == 0 { i } else { (1 << 40) + i };
            q.push(
                SimTime(t),
                EventKind::JobEnd {
                    job: JobId(i as u32),
                    epoch: 0,
                },
            );
        }
        assert_eq!((q.ring_len, q.heap.len()), (262, 261));
        // 500 arrivals + 1 tick + 262 ring + 261 heap events: no lane
        // alone reaches the size floor, the queue does.
        assert_eq!(q.len(), 1024);
        q.note_stale(512);
        // Exactly half stale is not a majority.
        assert!(!q.should_compact());
        q.note_stale(1);
        assert!(q.should_compact());
        q.compact(|e| !matches!(e.kind, EventKind::JobEnd { job, .. } if job.0 < 513));
        assert_eq!((q.ring_len, q.heap.len()), (5, 5));
        assert_eq!(q.len(), 511);
        assert!(!q.should_compact());
        // The survivors of every lane drain in `(time, seq)` order.
        let mut last = (SimTime::ZERO, 0);
        let mut n = 0;
        while let Some(e) = q.pop() {
            assert!((e.time, e.seq) > last || n == 0);
            last = (e.time, e.seq);
            n += 1;
        }
        assert_eq!(n, 511);
        assert!(q.is_empty());
    }

    /// A plain min-heap fed the same `(time, seq)` keys: the order every
    /// lane of [`EventQueue`] together must reproduce.
    #[derive(Default)]
    struct Reference {
        heap: BinaryHeap<Reverse<Event>>,
        next_seq: u64,
    }

    impl Reference {
        fn push(&mut self, time: SimTime, kind: EventKind) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Reverse(Event { time, seq, kind }));
        }

        fn pop(&mut self) -> Option<Event> {
            self.heap.pop().map(|Reverse(e)| e)
        }
    }

    /// A push offset on scale `a`: `2^a` plus up to `2^a - 1` of jitter
    /// from `b` for `a <= 44`, zero (the current instant) for `a == 45`,
    /// and `u64::MAX` (the push time saturates) above.
    fn offset(a: u64, b: u64) -> u64 {
        match a {
            0..=44 => (1 << a) + b % (1 << a),
            45 => 0,
            _ => u64::MAX,
        }
    }

    use proptest::prelude::*;

    proptest! {
        /// Random operation sequences pop the same events from the
        /// lane-merged queue as from one `BinaryHeap`, at the default
        /// ring span and at one of 4 µs buckets, where the ring wraps
        /// around many times per case. Arrival times come from a narrow
        /// range so same-instant ties are common; run-time pushes land
        /// from the current instant to `u64::MAX`, singly or in bursts
        /// into one bucket (often the one being drained).
        #[test]
        fn lanes_pop_like_one_heap(
            submits in prop::collection::vec(0u64..64, 0..1100),
            faults in prop::collection::vec((0u64..64, 0u64..4), 0..40),
            ops in prop::collection::vec((0u64..32, 0u64..48, 0u64..1 << 16), 0..800),
        ) {
            for near_span in [SimTime::from_secs(360.0), SimTime(2_000)] {
                // Start-up events in the runner's order: submits, the
                // first tick, the fault schedule.
                let mut startup: Vec<(SimTime, EventKind)> = submits
                    .iter()
                    .enumerate()
                    .map(|(i, &t)| (SimTime(t), EventKind::Submit(JobId(i as u32))))
                    .collect();
                startup.push((SimTime::ZERO, EventKind::SchedTick));
                startup.extend(faults.iter().map(|&(t, k)| {
                    let node = NodeId(k as u32);
                    let kind = match k {
                        0 => EventKind::NodeFail { node },
                        1 => EventKind::NodeRepair { node },
                        2 => EventKind::PoolDegrade { node, mb: t },
                        _ => EventKind::PoolRestore { node, mb: t },
                    };
                    (SimTime(t), kind)
                }));
                let mut q = EventQueue::with_arrivals(near_span, startup.iter().copied());
                let mut reference = Reference::default();
                for &(t, kind) in &startup {
                    reference.push(t, kind);
                }
                let mut now = SimTime::ZERO;
                let mut tick_pending = true;
                let mut stale = 0usize;
                for &(op, a, b) in &ops {
                    match op {
                        // Pop (the most common step: pops drive time).
                        0..=11 => {
                            let e = q.pop();
                            prop_assert_eq!(e, reference.pop());
                            if let Some(e) = e {
                                now = e.time;
                                match e.kind {
                                    EventKind::SchedTick => tick_pending = false,
                                    EventKind::JobEnd { .. } | EventKind::MemUpdate { .. }
                                        if b % 2 == 1 =>
                                    {
                                        q.note_stale_popped();
                                        stale = stale.saturating_sub(1);
                                    }
                                    _ => {}
                                }
                            }
                        }
                        // Run-time push at or after `now`.
                        12..=17 => {
                            let job = JobId(b as u32);
                            let kind = match b % 3 {
                                0 => EventKind::JobEnd { job, epoch: a as u32 },
                                1 => EventKind::MemUpdate { job, epoch: a as u32 },
                                _ => EventKind::Submit(job),
                            };
                            let t = SimTime(now.0.saturating_add(offset(a, b)));
                            q.push(t, kind);
                            reference.push(t, kind);
                        }
                        // A burst of pushes a few µs apart, so they
                        // share a bucket.
                        18..=19 => {
                            let t0 = now.0.saturating_add(offset(a, b));
                            for i in 0..2 + b % 31 {
                                let t = SimTime(t0.saturating_add((i * b) % 3));
                                let kind = EventKind::MemUpdate { job: JobId(i as u32), epoch: 0 };
                                q.push(t, kind);
                                reference.push(t, kind);
                            }
                        }
                        // Set the tick slot, if no tick is pending.
                        20..=22 => {
                            if !tick_pending {
                                let t = SimTime(now.0.saturating_add(offset(a, b)));
                                q.schedule_tick(t);
                                reference.push(t, EventKind::SchedTick);
                                tick_pending = true;
                            }
                        }
                        // Large stale reports, so that stale majorities
                        // of a queue past the size floor occur between
                        // the (rarer) compactions.
                        23..=29 => {
                            q.note_stale(8 * a as usize);
                            stale += 8 * a as usize;
                        }
                        // Compact with a keep predicate that is a pure
                        // function of the event's key.
                        _ => {
                            let keep = |e: &Event| !(e.seq.wrapping_mul(0x9E37_79B9) ^ b).is_multiple_of(4);
                            q.compact(keep);
                            let kept: Vec<_> = std::mem::take(&mut reference.heap)
                                .into_vec()
                                .into_iter()
                                .filter(|Reverse(e)| keep(e))
                                .collect();
                            reference.heap = kept.into();
                            tick_pending = reference
                                .heap
                                .iter()
                                .any(|Reverse(e)| e.kind == EventKind::SchedTick);
                            stale = 0;
                        }
                    }
                    let len = reference.heap.len();
                    prop_assert_eq!(q.len(), len);
                    prop_assert_eq!(q.stale(), stale);
                    prop_assert_eq!(q.should_compact(), len >= 1024 && stale * 2 > len);
                    prop_assert_eq!(
                        q.peek_time(),
                        reference.heap.peek().map(|Reverse(e)| e.time)
                    );
                }
                while let Some(e) = reference.pop() {
                    prop_assert_eq!(q.pop(), Some(e));
                }
                prop_assert!(q.is_empty());
            }
        }
    }

    #[test]
    fn len_and_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime::ZERO, EventKind::SchedTick);
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }
}
