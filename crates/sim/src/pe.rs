//! Processing-element primitives shared by the simulation engines.

use crate::stats::SimStats;

/// The MAC units of one tile pass: zero gating, and the MAC counts the
/// engines keep in locals and add to [`SimStats`] once per tile by
/// [`Macs::settle`].
#[derive(Debug)]
pub(crate) struct Macs {
    zero_gating: bool,
    performed: usize,
    gated: usize,
}

impl Macs {
    pub(crate) fn new(zero_gating: bool) -> Self {
        Self {
            zero_gating,
            performed: 0,
            gated: 0,
        }
    }

    /// Performs one MAC with optional zero gating.
    ///
    /// When zero gating is enabled and either operand is exactly zero,
    /// the multiplier and adder are not exercised (the paper's §4.1
    /// power-saving technique); the MAC slot is counted as gated and the
    /// accumulator input passes through unchanged.
    #[inline]
    fn mac(&mut self, acc_in: f32, a: f32, b: f32) -> f32 {
        let gate = self.zero_gating && (a == 0.0 || b == 0.0);
        self.gated += usize::from(gate);
        self.performed += usize::from(!gate);
        if gate {
            acc_in
        } else {
            acc_in + a * b
        }
    }

    /// Fires one run of PEs: the `n`-th accumulates `a[n] * b[n]` into
    /// `acc[n]`. The PEs are independent, so the run vectorizes without
    /// reordering any PE's own sum.
    ///
    /// Kept out of line: inlined into the engines' cycle loops it measured
    /// 20-25% slower on every engine.
    #[inline(never)]
    pub(crate) fn run(&mut self, acc: &mut [f32], a: &[f32], b: &[f32]) {
        for ((o, &x), &y) in acc.iter_mut().zip(a).zip(b) {
            *o = self.mac(*o, x, y);
        }
    }

    /// Adds the counts to [`SimStats::macs_performed`] and
    /// [`SimStats::macs_gated`].
    pub(crate) fn settle(self, stats: &mut SimStats) {
        stats.macs_performed += self.performed;
        stats.macs_gated += self.gated;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_accumulates() {
        let mut m = Macs::new(false);
        let acc = m.mac(1.0, 2.0, 3.0);
        assert_eq!(acc, 7.0);
        let mut s = SimStats::new();
        m.settle(&mut s);
        assert_eq!(s.macs_performed, 1);
        assert_eq!(s.macs_gated, 0);
    }

    #[test]
    fn mac_gates_zero_operand() {
        let mut m = Macs::new(true);
        let acc = m.mac(5.0, 0.0, 3.0);
        assert_eq!(acc, 5.0);
        let mut s = SimStats::new();
        m.settle(&mut s);
        assert_eq!(s.macs_gated, 1);
        assert_eq!(s.macs_performed, 0);
        // Without gating the zero MAC is still executed.
        let mut m = Macs::new(false);
        let acc = m.mac(5.0, 0.0, 3.0);
        assert_eq!(acc, 5.0);
        m.settle(&mut s);
        assert_eq!(s.macs_performed, 1);
    }
}
