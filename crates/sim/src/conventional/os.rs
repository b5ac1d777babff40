//! Cycle-accurate output-stationary tile engine for the conventional
//! systolic array.
//!
//! Operands enter at the left column (ifmap/`A`) and the top row
//! (filters/`B`), skewed by one cycle per row/column, and propagate
//! unidirectionally (paper Fig. 1). Each PE accumulates its output in
//! place; after the last MAC the array drains for `r` cycles.
//!
//! The engine steps cycle by cycle but moves no operands: `a[(i, t)]`
//! reaches PE `(i, j)` after `j` hops and `b[(t, j)]` after `i`, so PE
//! `(i, j)` fires step `t` in cycle `t + i + j`, and each cycle visits
//! only the one run of columns per row that fires. The cycle count still
//! comes from stepping until every MAC slot has fired, never from the
//! closed form it is checked against.

use super::firing;
use crate::diagonals::{Diagonals, Rows, Slope};
use crate::matrix::Matrix;
use crate::pe::Macs;
use crate::probe::{FeedOperand, Probe};
use crate::stats::SimStats;
use std::ops::Range;

/// Simulates one OS tile: the `r x k` rows `a` of `A` against the columns
/// `cols` of the `k`-row `b`, with `r` and `cols.len()` not exceeding the
/// physical array (enforced by the callers in `lib.rs`).
///
/// Returns the `r x c` output tile and updates `stats` in place. The total
/// cycle count per tile is `2r + c + k - 2` (Eq. 1 with `T = k`), split as
/// `k + r + c - 2` active cycles plus `r` drain cycles.
pub(crate) fn simulate_tile<P: Probe>(
    a: &Rows,
    b: &Matrix,
    cols: Range<usize>,
    zero_gating: bool,
    stats: &mut SimStats,
    probe: &mut P,
) -> Matrix {
    let r = a.rows();
    let k = a.len();
    let c = cols.len();
    debug_assert_eq!(k, b.rows());

    // `B` along the falling runs a row fires (`A` comes in that layout).
    let b_runs = Diagonals::of(b, cols, Slope::Falling);
    let mut out = Matrix::zeros(r, c);
    let acc = out.as_mut_slice();
    let mut macs = Macs::new(zero_gating);
    let mut reads = 0usize;
    let mut slots = 0usize;
    let expected = r * c * k;
    let mut cycle = 0usize;

    while slots < expected {
        // Edge feeds, skewed by one cycle per column or row: the top row
        // takes `B`, the left column `A`.
        let fed_rows = firing(cycle, 0, k, r);
        let fed_cols = firing(cycle, 0, k, c);
        let feeds = fed_rows.len() + fed_cols.len();
        reads += feeds;
        if P::RECORDS_FEEDS {
            let emitted = feed_events(probe, cycle, fed_rows, fed_cols);
            debug_assert_eq!(emitted, feeds, "cycle {cycle}");
        }

        // MAC phase: every PE holding both operands fires, in k order.
        // Along row i's run `t` falls from `cycle - i - cols.start`.
        for i in 0..r {
            let cols = firing(cycle, i, k, c);
            if cols.is_empty() {
                continue;
            }
            slots += cols.len();
            let t = cycle - i - cols.start;
            macs.run(
                &mut acc[i * c + cols.start..i * c + cols.end],
                a.run(Slope::Falling, i, t, cols.len()),
                b_runs.run(t, cols.clone()),
            );
            probe.macs(cycle, i, cols);
        }
        cycle += 1;
    }

    // Drain: outputs shift out row by row (r cycles). The values are
    // already in `out`; only the latency is billed.
    macs.settle(stats);
    stats.buffer_reads += reads;
    stats.cycles += cycle + r;
    stats.drain_cycles += r;
    stats.tiles += 1;
    out
}

/// Emits the feeds of `cycle` in the raster order of the feeder PEs:
/// PE (0, 0) takes `A`, the top row takes `B` and the rows below take
/// `A`. `rows` and `cols` are the feeding rows and columns. Returns the
/// number of feeds emitted.
fn feed_events<P: Probe>(
    probe: &mut P,
    cycle: usize,
    rows: Range<usize>,
    cols: Range<usize>,
) -> usize {
    let mut emitted = 0;
    let mut feed = |operand, index| {
        probe.feed(cycle, operand, index);
        emitted += 1;
    };
    if rows.contains(&0) {
        feed(FeedOperand::A, (0, cycle));
    }
    for j in cols {
        feed(FeedOperand::B, (cycle - j, j));
    }
    for i in rows.start.max(1)..rows.end {
        feed(FeedOperand::A, (i, cycle - i));
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

    /// The whole of `a` against the whole of `b`.
    fn simulate_tile(
        a: &Matrix,
        b: &Matrix,
        zero_gating: bool,
        stats: &mut SimStats,
        probe: &mut NoProbe,
    ) -> Matrix {
        let rows = Rows::of(a, 0..a.rows());
        super::simulate_tile(&rows, b, 0..b.cols(), zero_gating, stats, probe)
    }

    #[test]
    fn computes_correct_product() {
        let a = seq(3, 4);
        let b = seq(4, 2);
        let mut stats = SimStats::new();
        let c = simulate_tile(&a, &b, false, &mut stats, &mut NoProbe);
        assert_eq!(c, a.matmul(&b));
    }

    #[test]
    fn cycle_count_matches_eq1() {
        // 2r + c + k - 2
        for (r, k, c) in [(4usize, 7usize, 5usize), (1, 1, 1), (8, 3, 8), (2, 16, 9)] {
            let a = seq(r, k);
            let b = seq(k, c);
            let mut stats = SimStats::new();
            simulate_tile(&a, &b, false, &mut stats, &mut NoProbe);
            assert_eq!(stats.cycles, 2 * r + c + k - 2, "r={r} k={k} c={c}");
        }
    }

    #[test]
    fn mac_count_is_rkc() {
        let a = seq(3, 5);
        let b = seq(5, 4);
        let mut stats = SimStats::new();
        simulate_tile(&a, &b, false, &mut stats, &mut NoProbe);
        assert_eq!(stats.macs_performed, 3 * 5 * 4);
        assert_eq!(stats.buffer_reads, 3 * 5 + 5 * 4);
    }

    #[test]
    fn zero_gating_skips_zero_macs() {
        let mut a = seq(3, 3);
        a[(0, 0)] = 0.0;
        a[(1, 2)] = 0.0;
        let b = seq(3, 3);
        let mut stats = SimStats::new();
        let c = simulate_tile(&a, &b, true, &mut stats, &mut NoProbe);
        // Each zero A element feeds a full row of 3 output columns.
        assert_eq!(stats.macs_gated, 2 * 3);
        assert_eq!(stats.macs_performed, 27 - 6);
        // Result is still exact: gated MACs contribute zero anyway.
        assert_eq!(c, a.matmul(&b));
    }
}
