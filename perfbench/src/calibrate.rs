//! Host-speed calibration.
//!
//! The benchmark runs on shared machines whose speed drifts by 10–30%
//! over minutes as neighbours load the caches and memory system, while
//! staying nearly steady over one pass of a few seconds. To keep
//! host-time metrics comparable between runs made minutes apart, the
//! benchmark interleaves short chunks of fixed work with the measured
//! work (one after every trace's runs, one around every set-up build)
//! and rescales each pass's seconds to the speed at which the pass's
//! median chunk takes [`REFERENCE_CHUNK_S`]. The chunk uses only the
//! standard library, so
//! no change to the simulator moves it, and it does the kind of work
//! the simulator does: a binary heap of timed events, an ordered map
//! with range lookups, and dependent loads over a working set larger
//! than the L2 cache. On a 2-vCPU VM its time tracked the simulator's
//! pass-to-pass drift with a correlation of 0.9–0.99; a page-fault
//! kernel and a malloc-churn kernel tracked it far worse.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::time::Instant;

/// Duration of one chunk at the reference speed, a fixed round figure:
/// every calibrated time is the host time at the speed where one chunk
/// takes this long. On the 2-vCPU Xeon VM at 2.1 GHz used for the
/// measurements in `README.md` a chunk took 8.4–9.9 ms, so calibrated
/// times there read about a third below raw ones.
pub const REFERENCE_CHUNK_S: f64 = 0.006;

const HEAP_EVENTS: u64 = 8192;
const CHASE_SLOTS: usize = 1 << 19;

/// Interleaved calibration chunks and their timings.
pub struct Calibrator {
    rng: u64,
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    map: BTreeMap<u64, u64>,
    /// One random cycle through every slot, for dependent loads.
    chase: Vec<u32>,
    samples: Vec<f64>,
}

impl Calibrator {
    pub fn new() -> Self {
        let mut c = Self {
            rng: 0x9E37_79B9_7F4A_7C15,
            heap: BinaryHeap::with_capacity(HEAP_EVENTS as usize),
            map: BTreeMap::new(),
            chase: Vec::new(),
            samples: Vec::new(),
        };
        for i in 0..HEAP_EVENTS {
            let t = c.next() >> 20;
            c.heap.push(Reverse((t, i)));
            let k = c.next() >> 16;
            c.map.insert(k, i);
        }
        // Sattolo's algorithm: a single cycle, so the chase visits every
        // slot before repeating.
        let mut order: Vec<u32> = (0..CHASE_SLOTS as u32).collect();
        for i in (1..CHASE_SLOTS).rev() {
            let j = (c.next() % i as u64) as usize;
            order.swap(i, j);
        }
        c.chase = vec![0; CHASE_SLOTS];
        for w in 0..CHASE_SLOTS {
            c.chase[order[w] as usize] = order[(w + 1) % CHASE_SLOTS];
        }
        c
    }

    fn next(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    /// Run and time one chunk of fixed work.
    pub fn chunk(&mut self) {
        let start = Instant::now();
        for _ in 0..20_000 {
            let Reverse((t, i)) = self.heap.pop().expect("the heap never drains");
            let dt = self.next() >> 40;
            self.heap.push(Reverse((t + dt, i)));
        }
        for _ in 0..8_000 {
            let probe = self.next() >> 16;
            let hit = self.map.range(probe..).next().map(|(&k, _)| k);
            if let Some(k) = hit {
                self.map.remove(&k);
            }
            let k = self.next() >> 16;
            self.map.insert(k, probe);
        }
        let mut slot = (self.next() % CHASE_SLOTS as u64) as u32;
        for _ in 0..100_000 {
            slot = self.chase[slot as usize];
        }
        black_box(slot);
        self.samples.push(start.elapsed().as_secs_f64());
    }

    /// A mark to pass to [`Self::factor_since`]: the chunks from here
    /// on belong to the next stretch of measured work.
    pub fn mark(&self) -> usize {
        self.samples.len()
    }

    /// The factor that rescales host seconds measured alongside the
    /// chunks since `mark` to the reference speed.
    pub fn factor_since(&self, mark: usize) -> f64 {
        REFERENCE_CHUNK_S / crate::report::median(&self.samples[mark..])
    }

    /// Median chunk time so far, seconds.
    pub fn median_chunk_s(&self) -> f64 {
        crate::report::median(&self.samples)
    }
}
