//! A fixed calibration pass that measures how fast the host is running.
//!
//! On a shared host the speed of one core changes in phases that last
//! from a second to over a minute, by up to 1.7x, while the process's
//! CPU time keeps tracking its wall time: the slowdown comes from
//! hardware the core shares, not from descheduling. The benchmark times
//! this pass next to every set-up and unit and scales its timings to a
//! host on which the pass takes [`REFERENCE_S`]. The pass is the
//! benchmark's own code and never changes with the library, so the
//! scaling moves every commit's figures alike.
//!
//! The pass mixes the kinds of work the library does: sorting, ordered
//! maps and a binary heap like the serving engine, and a dense
//! multiply-accumulate loop like the array simulator.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::time::Instant;

/// Host time of one pass on the reference host: about one pass on an
/// idle core of a 2-vCPU Xeon (Sapphire Rapids) VM.
pub const REFERENCE_S: f64 = 4e-3;

/// Runs one pass and returns its host time in seconds.
pub fn pass_s() -> f64 {
    let t = Instant::now();
    black_box(work());
    t.elapsed().as_secs_f64()
}

/// The pass's fixed work; its result only keeps the optimiser honest.
fn work() -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut keys: Vec<u64> = (0..40_000).map(|_| next()).collect();
    keys.sort_unstable();
    let map: BTreeMap<u64, usize> = keys
        .iter()
        .enumerate()
        .step_by(4)
        .map(|(i, &k)| (k.rotate_left(17), i))
        .collect();
    let mut acc = map
        .values()
        .fold(0u64, |a, &v| a.wrapping_mul(31) ^ v as u64);

    let mut heap = BinaryHeap::new();
    for _ in 0..60_000 {
        heap.push(Reverse(next() % 1_000_000));
        if heap.len() > 2_000 {
            acc = acc.wrapping_add(heap.pop().map_or(0, |Reverse(v)| v));
        }
    }

    const N: usize = 96;
    let a: Vec<f32> = (0..N * N).map(|_| (next() % 9) as f32 - 4.0).collect();
    let b: Vec<f32> = (0..N * N).map(|_| (next() % 9) as f32 - 4.0).collect();
    let mut c = vec![0f32; N * N];
    for i in 0..N {
        for k in 0..N {
            let aik = a[i * N + k];
            for j in 0..N {
                c[i * N + j] += aik * b[k * N + j];
            }
        }
    }
    acc ^ c.iter().sum::<f32>().to_bits() as u64
}
