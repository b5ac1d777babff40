//! Execution statistics collected by the simulators.

use std::fmt;
use std::ops::AddAssign;

/// Counters accumulated during a simulated execution.
///
/// All counters are totals over every tile pass of a (possibly tiled) GEMM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimStats {
    /// Total simulated cycles, including per-tile preload/fill and the
    /// billed drain cycles.
    pub cycles: usize,
    /// Multiply-accumulates actually performed by the MAC units.
    pub macs_performed: usize,
    /// MACs skipped by zero gating (an operand was zero, so the multiplier
    /// and adder were not toggled; paper §4.1).
    pub macs_gated: usize,
    /// Elements read from the operand SRAM buffers into the array.
    pub buffer_reads: usize,
    /// Number of sequential tile passes executed.
    pub tiles: usize,
    /// Preload cycles (WS/IS stationary-operand loading), included in
    /// `cycles`.
    pub preload_cycles: usize,
    /// Drain/readout cycles billed, included in `cycles`.
    pub drain_cycles: usize,
}

impl SimStats {
    /// Creates an all-zero statistics record.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Total MAC slots visited (performed + gated).
    pub fn macs_total(&self) -> usize {
        self.macs_performed + self.macs_gated
    }

    /// Fraction of MAC slots suppressed by zero gating.
    pub fn gating_fraction(&self) -> f64 {
        let total = self.macs_total();
        if total == 0 {
            0.0
        } else {
            self.macs_gated as f64 / total as f64
        }
    }

    /// PE utilization: useful MACs per PE-cycle.
    pub fn utilization(&self, num_pes: usize) -> f64 {
        if self.cycles == 0 || num_pes == 0 {
            return 0.0;
        }
        self.macs_total() as f64 / (num_pes as f64 * self.cycles as f64)
    }
}

impl AddAssign for SimStats {
    fn add_assign(&mut self, rhs: Self) {
        *self += &rhs;
    }
}

impl AddAssign<&SimStats> for SimStats {
    fn add_assign(&mut self, rhs: &SimStats) {
        self.cycles += rhs.cycles;
        self.macs_performed += rhs.macs_performed;
        self.macs_gated += rhs.macs_gated;
        self.buffer_reads += rhs.buffer_reads;
        self.tiles += rhs.tiles;
        self.preload_cycles += rhs.preload_cycles;
        self.drain_cycles += rhs.drain_cycles;
    }
}

impl fmt::Display for SimStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cycles, {} MACs ({} gated), {} buffer reads, {} tiles",
            self.cycles, self.macs_performed, self.macs_gated, self.buffer_reads, self.tiles
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulate() {
        let mut a = SimStats {
            cycles: 10,
            macs_performed: 100,
            macs_gated: 5,
            buffer_reads: 20,
            tiles: 1,
            preload_cycles: 2,
            drain_cycles: 3,
        };
        a += a;
        assert_eq!(a.cycles, 20);
        assert_eq!(a.macs_total(), 210);
        assert_eq!(a.tiles, 2);
    }

    #[test]
    fn accumulate_by_reference() {
        let unit = SimStats {
            cycles: 1,
            macs_performed: 2,
            ..SimStats::default()
        };
        let mut total = SimStats::new();
        for s in [&unit, &unit, &unit] {
            total += s;
        }
        assert_eq!(total.cycles, 3);
        assert_eq!(total.macs_performed, 6);
    }

    #[test]
    fn gating_fraction_and_utilization() {
        let s = SimStats {
            cycles: 100,
            macs_performed: 90,
            macs_gated: 10,
            ..SimStats::default()
        };
        assert!((s.gating_fraction() - 0.1).abs() < 1e-12);
        assert!((s.utilization(1) - 1.0).abs() < 1e-12);
        assert_eq!(SimStats::new().gating_fraction(), 0.0);
        assert_eq!(SimStats::new().utilization(16), 0.0);
    }
}
