//! The Processing Element function library.
//!
//! Each PE computes one operation over its west (W) and north (N) inputs.  The
//! paper reduced the library to 16 elements after removing redundancies and
//! symmetries; the exact list is not published, so we use the function set of
//! the authors' single-array system (ref. \[4\], a CGP-style image-filter
//! library) which contains the usual mix of arithmetic, logic, min/max and
//! pass-through operations.  What matters for the reproduced experiments is
//! that the library (a) is 16 entries / 4 bits, (b) contains the ingredients
//! of rank-order and smoothing filters (min, max, average, saturated
//! arithmetic), and (c) contains pass-through elements so evolution can route
//! data around damaged positions.
//!
//! The module also defines [`FaultBehaviour`], the PE-level fault model of
//! §VI.D: a faulty PE ignores its configured function and produces either a
//! pseudo-random value (the paper's "dummy PE") or a stuck value.

use serde::{Deserialize, Serialize};

/// Number of PE functions in the presynthesized library (4-bit gene).
pub const PE_FUNCTION_COUNT: usize = 16;

/// The 16 PE operations.  `W` is the west input, `N` the north input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(u8)]
pub enum PeFunction {
    /// Pass the west input through unchanged.
    IdentityW = 0,
    /// Pass the north input through unchanged.
    IdentityN = 1,
    /// Constant maximum value (255).
    ConstMax = 2,
    /// Bitwise complement of the west input (255 − W).
    InvertW = 3,
    /// Bitwise OR of both inputs.
    Or = 4,
    /// Bitwise AND of both inputs.
    And = 5,
    /// Bitwise XOR of both inputs.
    Xor = 6,
    /// West input shifted right by one (divide by two).
    ShiftRightW = 7,
    /// Saturated addition W ⊕ N.
    AddSat = 8,
    /// Saturated subtraction W ⊖ N.
    SubSatWN = 9,
    /// Saturated subtraction N ⊖ W.
    SubSatNW = 10,
    /// Absolute difference |W − N|.
    AbsDiff = 11,
    /// Integer average (W + N) / 2.
    Average = 12,
    /// Maximum of both inputs.
    Max = 13,
    /// Minimum of both inputs.
    Min = 14,
    /// North input shifted right by one (divide by two).
    ShiftRightN = 15,
}

impl PeFunction {
    /// All functions in gene order.
    pub const ALL: [PeFunction; PE_FUNCTION_COUNT] = [
        PeFunction::IdentityW,
        PeFunction::IdentityN,
        PeFunction::ConstMax,
        PeFunction::InvertW,
        PeFunction::Or,
        PeFunction::And,
        PeFunction::Xor,
        PeFunction::ShiftRightW,
        PeFunction::AddSat,
        PeFunction::SubSatWN,
        PeFunction::SubSatNW,
        PeFunction::AbsDiff,
        PeFunction::Average,
        PeFunction::Max,
        PeFunction::Min,
        PeFunction::ShiftRightN,
    ];

    /// Decodes a 4-bit gene into a function.  Values ≥ 16 wrap around, which
    /// mirrors the hardware decoding of the 4-bit register field.
    pub(crate) fn from_gene(gene: u8) -> Self {
        Self::ALL[(gene as usize) % PE_FUNCTION_COUNT]
    }

    /// The 4-bit gene value of this function.
    pub fn gene(self) -> u8 {
        self as u8
    }

    /// Which inputs the function's result depends on, as `(west, north)` —
    /// the structural reads of [`apply`](Self::apply), whatever the values.
    #[inline]
    pub fn reads(self) -> (bool, bool) {
        match self {
            PeFunction::ConstMax => (false, false),
            PeFunction::IdentityW | PeFunction::InvertW | PeFunction::ShiftRightW => (true, false),
            PeFunction::IdentityN | PeFunction::ShiftRightN => (false, true),
            PeFunction::Or
            | PeFunction::And
            | PeFunction::Xor
            | PeFunction::AddSat
            | PeFunction::SubSatWN
            | PeFunction::SubSatNW
            | PeFunction::AbsDiff
            | PeFunction::Average
            | PeFunction::Max
            | PeFunction::Min => (true, true),
        }
    }

    /// Applies the function to the west and north inputs.
    #[inline]
    pub fn apply(self, w: u8, n: u8) -> u8 {
        match self {
            PeFunction::IdentityW => w,
            PeFunction::IdentityN => n,
            PeFunction::ConstMax => 255,
            PeFunction::InvertW => 255 - w,
            PeFunction::Or => w | n,
            PeFunction::And => w & n,
            PeFunction::Xor => w ^ n,
            PeFunction::ShiftRightW => w >> 1,
            PeFunction::AddSat => w.saturating_add(n),
            PeFunction::SubSatWN => w.saturating_sub(n),
            PeFunction::SubSatNW => n.saturating_sub(w),
            PeFunction::AbsDiff => w.abs_diff(n),
            PeFunction::Average => ((w as u16 + n as u16) / 2) as u8,
            PeFunction::Max => w.max(n),
            PeFunction::Min => w.min(n),
            PeFunction::ShiftRightN => n >> 1,
        }
    }
}

/// Behaviour of a damaged PE, the PE-level fault model of §VI.D.
///
/// The paper emulates a permanent fault by reconfiguring the PE position with
/// a modified bitstream corresponding to a *dummy PE which generates a random
/// value in its output*.  [`FaultBehaviour::RandomOutput`] reproduces that; a
/// stuck-at variant is also provided for ablation studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultBehaviour {
    /// The PE outputs a pseudo-random value, derived deterministically from
    /// its inputs and this seed (so a faulty array is still a pure function
    /// of its inputs, which keeps fitness evaluation reproducible).
    RandomOutput {
        /// Seed mixed into the output hash.
        seed: u64,
    },
    /// The PE output is stuck at a fixed value regardless of its inputs.
    StuckAt {
        /// The stuck output value.
        value: u8,
    },
    /// The PE output is the bitwise complement of the correct result
    /// (models an inverted routing/logic fault).
    InvertedOutput,
}

impl FaultBehaviour {
    /// The paper's dummy PE.
    pub fn dummy() -> Self {
        FaultBehaviour::RandomOutput { seed: 0xD0_0D1E }
    }

    /// Output of the damaged PE given the correct result and the inputs.
    #[inline]
    pub fn corrupt(&self, correct: u8, w: u8, n: u8) -> u8 {
        match *self {
            FaultBehaviour::RandomOutput { seed } => {
                // SplitMix-style hash of (inputs, seed): uniformly distributed,
                // uncorrelated with the correct output, but deterministic.
                let mut z = seed ^ ((w as u64) << 32) ^ ((n as u64) << 16) ^ correct as u64;
                z = z.wrapping_add(0x9E3779B97F4A7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                (z ^ (z >> 31)) as u8
            }
            FaultBehaviour::StuckAt { value } => value,
            FaultBehaviour::InvertedOutput => !correct,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gene_encoding_round_trips() {
        for f in PeFunction::ALL {
            assert_eq!(PeFunction::from_gene(f.gene()), f);
        }
    }

    #[test]
    fn gene_decoding_wraps_like_hardware() {
        assert_eq!(PeFunction::from_gene(16), PeFunction::IdentityW);
        assert_eq!(PeFunction::from_gene(17), PeFunction::IdentityN);
        assert_eq!(PeFunction::from_gene(255), PeFunction::ShiftRightN);
    }

    #[test]
    fn library_has_sixteen_distinct_functions() {
        let mut genes: Vec<u8> = PeFunction::ALL.iter().map(|f| f.gene()).collect();
        genes.sort_unstable();
        genes.dedup();
        assert_eq!(genes.len(), 16);
        assert_eq!(genes, (0..16).collect::<Vec<u8>>());
    }

    #[test]
    fn arithmetic_functions_saturate() {
        assert_eq!(PeFunction::AddSat.apply(200, 100), 255);
        assert_eq!(PeFunction::AddSat.apply(10, 20), 30);
        assert_eq!(PeFunction::SubSatWN.apply(10, 20), 0);
        assert_eq!(PeFunction::SubSatWN.apply(20, 10), 10);
        assert_eq!(PeFunction::SubSatNW.apply(20, 10), 0);
        assert_eq!(PeFunction::SubSatNW.apply(10, 20), 10);
    }

    #[test]
    fn abs_diff_and_average() {
        assert_eq!(PeFunction::AbsDiff.apply(30, 100), 70);
        assert_eq!(PeFunction::AbsDiff.apply(100, 30), 70);
        assert_eq!(PeFunction::Average.apply(100, 50), 75);
        assert_eq!(PeFunction::Average.apply(255, 255), 255);
    }

    #[test]
    fn minmax_and_logic() {
        assert_eq!(PeFunction::Max.apply(3, 200), 200);
        assert_eq!(PeFunction::Min.apply(3, 200), 3);
        assert_eq!(PeFunction::Or.apply(0b1010, 0b0101), 0b1111);
        assert_eq!(PeFunction::And.apply(0b1010, 0b0110), 0b0010);
        assert_eq!(PeFunction::Xor.apply(0b1010, 0b0110), 0b1100);
    }

    #[test]
    fn pass_through_and_constants() {
        assert_eq!(PeFunction::IdentityW.apply(42, 7), 42);
        assert_eq!(PeFunction::IdentityN.apply(42, 7), 7);
        assert_eq!(PeFunction::ConstMax.apply(1, 2), 255);
        assert_eq!(PeFunction::InvertW.apply(0, 99), 255);
        assert_eq!(PeFunction::ShiftRightW.apply(128, 0), 64);
        assert_eq!(PeFunction::ShiftRightN.apply(0, 128), 64);
    }

    #[test]
    fn reads_names_every_input_the_result_depends_on() {
        // An input the function claims not to read must never change its
        // result; an input it claims to read must change it for some values.
        for f in PeFunction::ALL {
            let (reads_w, reads_n) = f.reads();
            let w_matters =
                (0..=255u8).any(|n| (0..=255u8).any(|w| f.apply(w, n) != f.apply(0, n)));
            let n_matters =
                (0..=255u8).any(|w| (0..=255u8).any(|n| f.apply(w, n) != f.apply(w, 0)));
            assert_eq!((reads_w, reads_n), (w_matters, n_matters), "{f:?}");
        }
    }

    #[test]
    fn random_fault_output_is_deterministic_but_decorrelated() {
        let fault = FaultBehaviour::dummy();
        let a = fault.corrupt(100, 5, 7);
        let b = fault.corrupt(100, 5, 7);
        assert_eq!(a, b);
        // Over many inputs the corrupted output differs from the correct one
        // most of the time (1/256 chance of accidental match per sample).
        let mismatches = (0u16..=255)
            .filter(|&i| fault.corrupt(i as u8, i as u8, (i ^ 0x55) as u8) != i as u8)
            .count();
        assert!(mismatches > 240, "mismatches = {mismatches}");
    }

    #[test]
    fn stuck_and_inverted_faults() {
        let stuck = FaultBehaviour::StuckAt { value: 17 };
        assert_eq!(stuck.corrupt(200, 1, 2), 17);
        let inv = FaultBehaviour::InvertedOutput;
        assert_eq!(inv.corrupt(0b1010_1010, 0, 0), 0b0101_0101);
    }
}
