//! Host-speed calibration. On a shared virtual machine the same code runs
//! up to ~1.9x slower for minutes at a time while a neighbour contends for
//! the core and its caches; a fixed, benchmark-owned loop measured next to
//! the workload slows down with it. Dividing each measured time by the
//! loop's slowdown reports times in reference-host seconds, which track
//! the code rather than the neighbours.

use crate::timed::now;
use std::collections::BinaryHeap;
use std::hint::black_box;

/// The calibration loop's time on an uncontended host, in seconds
/// (Intel Xeon, Sapphire Rapids, 2 vCPUs under KVM). Only the ratio to it
/// matters; it sets where on the scale a quiet host reads.
const REFERENCE_S: f64 = 0.0105;

/// One pass of the loop: an event heap, row updates over half a megabyte
/// of vectors, short-lived allocations and float math, the mix the
/// engine's event loop is made of. Deterministic; its result is consumed.
fn pass() -> f64 {
    let t0 = now();
    let mut heap: BinaryHeap<(u64, usize)> = BinaryHeap::with_capacity(1024);
    let mut rows: Vec<Vec<f64>> = (0..2000).map(|_| vec![0.0; 32]).collect();
    let (mut x, mut acc) = (0x9e37_79b9_7f4a_7c15_u64, 0.0);
    for i in 0..100_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        heap.push((x >> 20, i % rows.len()));
        if heap.len() > 512 {
            if let Some((_, j)) = heap.pop() {
                let row = &mut rows[j];
                for (k, v) in row.iter_mut().enumerate() {
                    *v = *v * 0.5 + k as f64;
                }
                let roots: Vec<f64> = row.iter().map(|v| v.sqrt()).collect();
                acc += roots[3];
            }
        }
    }
    black_box(acc);
    t0.elapsed().as_secs_f64()
}

/// How much slower than the reference the host runs: as seen by the
/// calling thread, where single-threaded work ran, and averaged over every
/// core multi-threaded work used.
#[derive(Debug, Clone, Copy)]
pub struct Slowdown {
    /// The calling thread's probe.
    pub here: f64,
    /// Mean over all probes.
    pub all: f64,
}

impl Slowdown {
    /// The slowdown over the interval between two readings: their
    /// geometric mean.
    pub fn between(self, later: Slowdown) -> Slowdown {
        Slowdown {
            here: (self.here * later.here).sqrt(),
            all: (self.all * later.all).sqrt(),
        }
    }
}

/// Reads the host slowdown: the fastest of three passes over
/// [`REFERENCE_S`], on the calling thread and on `threads - 1` helper
/// threads probing at the same time.
pub fn slowdown(threads: usize) -> Slowdown {
    let probe = || (0..3).map(|_| pass()).fold(f64::INFINITY, f64::min) / REFERENCE_S;
    std::thread::scope(|s| {
        let helpers: Vec<_> = (1..threads).map(|_| s.spawn(probe)).collect();
        let here = probe();
        let others: Vec<f64> = helpers
            .into_iter()
            .map(|h| h.join().unwrap_or(f64::NAN))
            .collect();
        Slowdown {
            here,
            all: (here + others.iter().sum::<f64>()) / (1 + others.len()) as f64,
        }
    })
}
