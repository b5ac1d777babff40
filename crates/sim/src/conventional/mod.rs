//! Tile engines for the conventional (unidirectional) systolic array.

use std::ops::Range;

pub(crate) mod os;
pub(crate) mod stationary;

/// Columns of row `i` that fire in `cycle` on the conventional wavefront,
/// where PE `(i, j)` holds operand step `t` at cycle `t + i + j`: the `j`
/// in `0..cols` with `cycle - i - j` in `0..steps`.
///
/// With `i = 0` it is also the set of edge feeders active in `cycle`.
pub(super) fn firing(cycle: usize, i: usize, steps: usize, cols: usize) -> Range<usize> {
    match cycle.checked_sub(i) {
        Some(d) => d.saturating_sub(steps - 1)..(d + 1).min(cols),
        None => 0..0,
    }
}
