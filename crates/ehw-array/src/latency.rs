//! The variable-latency model of the processing array.
//!
//! Because every PE registers its result, data entering the array takes a
//! number of clock cycles to reach the selected east-side output.  The exact
//! number depends on which output row the evolutionary algorithm selects —
//! this is the "variable latency of the arrays" that the Array Control Block
//! of Fig. 3 must measure and compensate for with its alignment FIFOs, so
//! that the fitness unit compares the right output pixel against the right
//! reference pixel (and so that cascaded stages stay aligned).

use serde::{Deserialize, Serialize};

use crate::genotype::{Genotype, ARRAY_COLS, ARRAY_ROWS};

/// Extra cycles spent in the window-formation line buffers before the first
/// window is available (two image lines plus two pixels for a 3×3 window, but
/// expressed per-array here as a fixed constant because it does not depend on
/// the genotype).
pub const WINDOW_FORMATION_CYCLES: u64 = 2;

/// Latency description of one configured array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArrayLatency {
    /// Pipeline depth in clock cycles from the array inputs to the selected
    /// output.
    pub pipeline_cycles: u64,
    /// Fixed overhead of window formation.
    pub window_cycles: u64,
}

impl ArrayLatency {
    /// Computes the latency of an array configured with `genotype`.
    ///
    /// The data wavefront advances one diagonal per cycle: the PE at
    /// `(row, col)` produces its registered output `row + col + 1` cycles
    /// after its inputs entered the array, so the selected east output (row
    /// `output_gene`, column `ARRAY_COLS − 1`) is valid after
    /// `output_row + ARRAY_COLS` cycles.
    pub fn of(genotype: &Genotype) -> Self {
        let out_row = (genotype.output_gene as usize) % ARRAY_ROWS;
        ArrayLatency {
            pipeline_cycles: (out_row + ARRAY_COLS) as u64,
            window_cycles: WINDOW_FORMATION_CYCLES,
        }
    }

    /// Total latency in cycles.
    pub fn total_cycles(&self) -> u64 {
        self.pipeline_cycles + self.window_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_grows_with_output_row() {
        let mut g = Genotype::identity();
        let mut last = 0;
        for row in 0..ARRAY_ROWS as u8 {
            g.output_gene = row;
            let lat = ArrayLatency::of(&g);
            assert_eq!(lat.pipeline_cycles, row as u64 + ARRAY_COLS as u64);
            assert!(lat.total_cycles() > last);
            last = lat.total_cycles();
        }
    }

    #[test]
    fn minimum_latency_is_pipeline_depth() {
        let g = Genotype::identity();
        let lat = ArrayLatency::of(&g);
        assert_eq!(lat.pipeline_cycles, ARRAY_COLS as u64);
        assert_eq!(
            lat.total_cycles(),
            ARRAY_COLS as u64 + WINDOW_FORMATION_CYCLES
        );
    }
}
