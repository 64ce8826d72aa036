//! Holding the host still under the wall-clock metrics.
//!
//! Two things move a run's wall time on a shared host without any change
//! to the program. glibc's malloc raises its mmap threshold each time it
//! frees a mapped block, so whether a large buffer comes from the heap or
//! from fresh, zero-faulted pages depends on what the process freed before
//! it — on identical inputs one process ran 20% slower than another.
//! [`settle_allocator`] fixes that state before timing. And the host's
//! speed drifts by ±15% over tens of seconds with its neighbours' load on
//! the shared cores and caches; [`probe`] times a fixed piece of work so
//! that each timed run can be scaled to the host's nominal speed.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// The probe's time at the host's nominal speed, s: about the middle of
/// the median probe times of runs on a 2-vCPU Xeon VM (shared host,
/// release build), which ranged from 25 to 40 ms with the neighbours'
/// load. Scaled times read as wall times on a host whose probe takes
/// this long.
pub const PROBE_NOMINAL_S: f64 = 0.03;

/// Raise glibc malloc's mmap threshold to its 32 MiB ceiling now, by
/// freeing one mapped block just under it, rather than partway through
/// the run at a point that depends on the input sizes. Other allocators
/// ignore it.
pub fn settle_allocator() {
    let block: Vec<u8> = Vec::with_capacity((32 << 20) - (64 << 10));
    drop(black_box(block));
}

/// Run a fixed piece of work (an event heap driving a keyed state table,
/// as a simulator keeps, in a few MB) and return its wall seconds. It
/// calls nothing of the program under test, so its time moves only with
/// the host.
pub fn probe() -> f64 {
    let t = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut heap = BinaryHeap::with_capacity(20_000);
    let mut table: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> =
        HashMap::with_capacity_and_hasher(50_000, Default::default());
    for _ in 0..20_000 {
        heap.push(std::cmp::Reverse(next() % 1_000_000));
    }
    let mut acc = 0u64;
    for _ in 0..200_000 {
        let std::cmp::Reverse(due) = heap.pop().unwrap_or(std::cmp::Reverse(0));
        let key = next() % 50_000;
        *table.entry(key).or_insert(0) += due;
        acc = acc.wrapping_add(table.get(&(next() % 50_000)).copied().unwrap_or(0));
        heap.push(std::cmp::Reverse(due + next() % 1000));
        if key % 8 == 0 {
            let v: Vec<u64> = (0..key % 64).collect();
            acc = acc.wrapping_add(black_box(v).len() as u64);
        }
    }
    black_box(acc);
    t.elapsed().as_secs_f64()
}
