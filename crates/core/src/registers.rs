//! The self-addressing control-register file.
//!
//! §III.B: *"A self-addressing scheme was designed so that every control
//! register in any ACB can be easily addressed by the EA in the MicroBlaze.
//! The control registers allow different modes of operation of every
//! individual array, as well as reading fitness and latency values."*
//!
//! The register file models that interface: every ACB owns a small bank of
//! registers at a fixed stride, and the static control logic decodes the ACB
//! index from the upper address bits.  The platform writes the mux
//! selections, the bypass switch and the measured latency of every ACB into
//! its bank, where [`RegisterFile::peek`] reads them back.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Number of register words reserved per ACB (the address stride).
pub const ACB_REGISTER_STRIDE: u32 = 16;

/// Register offsets within one ACB bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[repr(u32)]
pub enum AcbRegister {
    /// Operation-mode selector (independent / parallel / cascaded / bypass).
    Mode = 0,
    /// Input-source selector (external input vs. previous array output).
    InputSource = 1,
    /// Fitness-source selector (reference / input / neighbour output).
    FitnessSource = 2,
    /// Bypass enable.
    Bypass = 3,
    /// Low word of the accumulated fitness (read-only).
    FitnessLow = 4,
    /// High word of the accumulated fitness (read-only).
    FitnessHigh = 5,
    /// Measured array latency in cycles (read-only).
    Latency = 6,
    /// Output-mux selection (which east output is the array output).
    OutputSelect = 7,
    /// Base of the eight window-selector registers (one per array input).
    InputSelectBase = 8,
}

/// The memory-mapped register file of the whole platform.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RegisterFile {
    values: BTreeMap<u32, u32>,
}

impl RegisterFile {
    /// Creates an empty register file (all registers read as zero).
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Absolute address of `register` in the bank of ACB `acb`.
    pub fn address(acb: usize, register: AcbRegister) -> u32 {
        acb as u32 * ACB_REGISTER_STRIDE + register as u32
    }

    /// Absolute address of the `input`-th window-selector register of ACB
    /// `acb` (0–7: four north then four west selectors).
    pub fn input_select_address(acb: usize, input: usize) -> u32 {
        assert!(input < 8, "input selector index out of range");
        acb as u32 * ACB_REGISTER_STRIDE + AcbRegister::InputSelectBase as u32 + input as u32
    }

    /// Writes a register by absolute address.
    pub(crate) fn write(&mut self, address: u32, value: u32) {
        self.values.insert(address, value);
    }

    /// Reads a register by absolute address (unwritten registers read zero).
    pub fn peek(&self, address: u32) -> u32 {
        self.values.get(&address).copied().unwrap_or(0)
    }

    /// Convenience: write an ACB register by `(acb, register)`.
    pub(crate) fn write_acb(&mut self, acb: usize, register: AcbRegister, value: u32) {
        self.write(Self::address(acb, register), value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addresses_are_unique_per_acb_and_register() {
        let mut seen = std::collections::HashSet::new();
        for acb in 0..4 {
            for reg in [
                AcbRegister::Mode,
                AcbRegister::InputSource,
                AcbRegister::FitnessSource,
                AcbRegister::Bypass,
                AcbRegister::FitnessLow,
                AcbRegister::FitnessHigh,
                AcbRegister::Latency,
                AcbRegister::OutputSelect,
            ] {
                assert!(seen.insert(RegisterFile::address(acb, reg)));
            }
            for input in 0..8 {
                assert!(seen.insert(RegisterFile::input_select_address(acb, input)));
            }
        }
    }

    #[test]
    fn unwritten_registers_read_zero() {
        let rf = RegisterFile::new();
        assert_eq!(rf.peek(99), 0);
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut rf = RegisterFile::new();
        rf.write_acb(2, AcbRegister::Mode, 3);
        assert_eq!(rf.peek(RegisterFile::address(2, AcbRegister::Mode)), 3);
        assert_eq!(rf.peek(RegisterFile::address(1, AcbRegister::Mode)), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn input_selector_index_out_of_range_panics() {
        let _ = RegisterFile::input_select_address(0, 8);
    }
}
