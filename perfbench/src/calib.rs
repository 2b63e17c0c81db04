//! Host-speed calibration.
//!
//! The CPU this benchmark runs on may change speed by tens of percent
//! within seconds (shared cores, frequency scaling). A fixed calibration
//! kernel — benchmark code only, independent of the program — runs next
//! to every measured phase; host rates are divided by its speed relative
//! to a reference, so a slower host slows both and cancels, while a
//! slower program moves only the numerator.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::ops::mix;

/// Kernel iterations of a calibration around a whole repetition.
pub const ITERS: u64 = 300_000;
/// Kernel iterations of a calibration between two measured chunks.
pub const CHUNK_ITERS: u64 = 30_000;

/// Host ns one kernel iteration takes at reference speed (about its
/// median on the reference host, see LEDGER.md). Only scales the unit.
pub const REF_NS_PER_ITER: f64 = 94.0;

/// Host ns per iteration of the calibration kernel, now: the kernel mixes
/// what the simulator does — hashing, small allocations, a hash map with
/// inserts and removes, and pointer-chasing reads.
pub fn ns_per_iter(iters: u64) -> f64 {
    let t = Instant::now();
    let mut map: HashMap<u64, Box<[u64; 4]>> = HashMap::with_capacity(4096);
    let mut ring: Vec<u64> = vec![0; 4096];
    let mut acc = 0u64;
    for i in 0..iters {
        let k = mix(i) & 0xFFFF;
        let slot = (k as usize) & 4095;
        if let Some(old) = map.insert(k, Box::new([i, k, acc, ring[slot]])) {
            acc = acc.wrapping_add(old[0] ^ old[3]);
        }
        let evict = ring[slot];
        ring[slot] = k;
        if let Some(v) = map.remove(&evict) {
            acc = acc.wrapping_add(v[1]);
        }
        acc = acc.wrapping_add(ring[(acc as usize) & 4095]);
    }
    black_box(acc);
    black_box(&map);
    t.elapsed().as_nanos() as f64 / iters as f64
}

/// Host time of a phase run in chunks, with the calibration kernel run
/// between chunks (outside the timed part).
pub struct Chunked {
    wall: Duration,
    weighted_ns: f64,
    last: f64,
}

impl Chunked {
    /// Start: calibrate once before the first chunk.
    pub fn start() -> Chunked {
        Chunked {
            wall: Duration::ZERO,
            weighted_ns: 0.0,
            last: ns_per_iter(CHUNK_ITERS),
        }
    }

    /// Account one chunk of `wall` host time and calibrate after it; the
    /// chunk's speed is the mean of the calibrations on either side.
    pub fn chunk(&mut self, wall: Duration) {
        let next = ns_per_iter(CHUNK_ITERS);
        self.weighted_ns += wall.as_secs_f64() * (self.last + next) / 2.0;
        self.wall += wall;
        self.last = next;
    }

    /// Total wall time, and calibration ns/iter weighted by chunk time.
    pub fn finish(self) -> (Duration, f64) {
        let secs = self.wall.as_secs_f64();
        let ns = if secs > 0.0 {
            self.weighted_ns / secs
        } else {
            self.last
        };
        (self.wall, ns)
    }
}
