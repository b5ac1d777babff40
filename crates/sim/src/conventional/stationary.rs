//! Cycle-accurate stationary-operand (WS/IS) tile engine for the
//! conventional systolic array.
//!
//! One operand is preloaded into the array and held; the other streams in
//! from the left edge with a one-cycle skew per row while partial sums
//! flow down the columns and exit from the bottom row (paper §2.1).
//!
//! The engine is dataflow-agnostic: with the paper's Table 1 mapping,
//! weight-stationary holds `A` transposed (`S_R = K`, `S_C = M`, `T = N`)
//! and input-stationary holds `B` (`S_R = K`, `S_C = N`, `T = M`). The
//! wrappers in `lib.rs` perform those projections.
//!
//! The engine steps cycle by cycle but moves no operands: `stream[(k, t)]`
//! enters row `k` in cycle `t + k` and reaches PE `(k, j)` in cycle
//! `t + k + j`, one cycle after PE `(k - 1, j)` produced the partial sum
//! of step `t`. Each running sum `(t, j)` therefore accumulates in row
//! order, and each cycle visits only the one run of columns per row that
//! fires. The cycle count still comes from stepping until every output
//! has left the bottom row.

use super::firing;
use crate::diagonals::{Block, Diagonals, Rows, Slope};
use crate::matrix::Matrix;
use crate::pe::Macs;
use crate::probe::{FeedOperand, Probe};
use crate::stats::SimStats;
use std::ops::Range;

/// Simulates one stationary tile.
///
/// * `stationary` — the preloaded `sr x sc` grid (`stationary[(k, j)]` sits
///   in PE `(k, j)`).
/// * `stream` — the `sr x t_len` streaming operand by array row;
///   `stream[(k, t)]` is consumed by row `k` at logical step `t`.
///
/// Returns the `t_len x sc` output, where
/// `out[(t, j)] = sum_k stationary[(k, j)] * stream[(k, t)]`.
///
/// The per-tile cycle count is `2*sr + sc + t_len - 2` (Eq. 1): `sr`
/// preload cycles plus `t_len + sr + sc - 2` streaming cycles.
pub(crate) fn simulate_tile<P: Probe>(
    stationary: Block,
    stream: &Rows,
    zero_gating: bool,
    stats: &mut SimStats,
    probe: &mut P,
) -> Matrix {
    let sr = stationary.rows();
    let sc = stationary.cols();
    let t_len = stream.len();
    debug_assert_eq!(stream.rows(), sr);

    // The running sums `(t, j)` along the falling runs a row fires (the
    // stream comes in that layout).
    let mut psum = Diagonals::zeros(t_len, sc, Slope::Falling);
    let mut macs = Macs::new(zero_gating);
    let mut done = 0usize;
    let mut cycle = 0usize;

    // Preload: one stationary row per cycle via the vertical interconnect.
    stats.preload_cycles += sr;
    let mut reads = sr * sc;

    while done < sc * t_len {
        // Left-edge stream feeds, skewed by one cycle per row.
        let fed = firing(cycle, 0, t_len, sr);
        reads += fed.len();
        if P::RECORDS_FEEDS {
            let emitted = feed_events(probe, cycle, fed.clone());
            debug_assert_eq!(emitted, fed.len(), "cycle {cycle}");
        }

        // MAC + partial-sum descent: PE (k, j) adds its product to the
        // sum PE (k - 1, j) left for step t last cycle. Along row k's run
        // `t` falls from `cycle - k - cols.start`.
        for k in 0..sr {
            let cols = firing(cycle, k, t_len, sc);
            if cols.is_empty() {
                continue;
            }
            if k == sr - 1 {
                done += cols.len();
            }
            let t = cycle - k - cols.start;
            macs.run(
                psum.run_mut(t, cols.clone()),
                stationary.row(k, cols.clone()),
                stream.run(Slope::Falling, k, t, cols.len()),
            );
            probe.macs(cycle, k, cols);
        }
        cycle += 1;
    }

    macs.settle(stats);
    stats.buffer_reads += reads;
    stats.cycles += sr + cycle;
    stats.tiles += 1;
    Matrix::from_fn(t_len, sc, |t, j| psum.get(t, j))
}

/// Emits the feeds of `cycle`, one per feeding row `rows` of the left
/// edge, in row order. Returns the number of feeds emitted.
fn feed_events<P: Probe>(probe: &mut P, cycle: usize, rows: Range<usize>) -> usize {
    let mut emitted = 0;
    for k in rows {
        probe.feed(cycle, FeedOperand::Stream, (cycle - k, k));
        emitted += 1;
    }
    emitted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::NoProbe;

    fn seq(rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| (r * cols + c + 1) as f32)
    }

    /// The whole of `stationary` against the whole of `stream`.
    fn simulate_tile(
        stationary: &Matrix,
        stream: &Matrix,
        zero_gating: bool,
        stats: &mut SimStats,
        probe: &mut NoProbe,
    ) -> Matrix {
        let held = Block::of(stationary, 0..stationary.rows(), 0..stationary.cols());
        let fed = Rows::of(stream, 0..stream.rows());
        super::simulate_tile(held, &fed, zero_gating, stats, probe)
    }

    fn reference(stationary: &Matrix, stream: &Matrix) -> Matrix {
        // out = stream * stationary
        stream.matmul(stationary)
    }

    #[test]
    fn computes_correct_output() {
        let s = seq(4, 3);
        let y = seq(5, 4);
        let mut stats = SimStats::new();
        let out = simulate_tile(&s, &y.transposed(), false, &mut stats, &mut NoProbe);
        assert_eq!(out, reference(&s, &y));
    }

    #[test]
    fn cycle_count_matches_eq1() {
        for (sr, sc, t) in [(4usize, 3usize, 5usize), (1, 1, 1), (8, 8, 2), (3, 9, 7)] {
            let s = seq(sr, sc);
            let y = seq(t, sr);
            let mut stats = SimStats::new();
            simulate_tile(&s, &y.transposed(), false, &mut stats, &mut NoProbe);
            assert_eq!(stats.cycles, 2 * sr + sc + t - 2, "sr={sr} sc={sc} t={t}");
            assert_eq!(stats.preload_cycles, sr);
        }
    }

    #[test]
    fn mac_and_read_counts() {
        let s = seq(4, 3);
        let y = seq(5, 4);
        let mut stats = SimStats::new();
        simulate_tile(&s, &y.transposed(), false, &mut stats, &mut NoProbe);
        assert_eq!(stats.macs_performed, 4 * 3 * 5);
        // Preload reads + streaming reads.
        assert_eq!(stats.buffer_reads, 4 * 3 + 5 * 4);
    }

    #[test]
    fn zero_gating_passthrough_keeps_result() {
        let mut s = seq(3, 3);
        s[(1, 1)] = 0.0;
        let mut y = seq(4, 3);
        y[(2, 0)] = 0.0;
        let mut stats = SimStats::new();
        let out = simulate_tile(&s, &y.transposed(), true, &mut stats, &mut NoProbe);
        assert_eq!(out, reference(&s, &y));
        // One stationary zero hits every t; one stream zero hits every
        // column; the overlap (t=2, j=1, k=... ) is counted once per slot.
        assert!(stats.macs_gated >= 4 + 3 - 1);
    }
}
