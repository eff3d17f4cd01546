//! Logic-resource accounting.
//!
//! §VI.A of the paper reports the resource utilisation of the platform on the
//! Virtex-5 LX110T:
//!
//! * static control logic (ACB addressing and management): **733 slices,
//!   1365 flip-flops, 1817 LUTs**,
//! * each Array Control Block: **754 slices, 1642 flip-flops, 1528 LUTs**,
//! * each array: 160 CLBs of reconfigurable fabric (8 CLB columns of one
//!   clock region), each PE 2 columns × 5 CLBs.
//!
//! [`ResourceUsage`] lets the platform crate aggregate those numbers for an
//! arbitrary number of arrays, which is what the `resources` experiment binary
//! prints alongside the paper's values.

use serde::{Deserialize, Serialize};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul};

/// Slice / flip-flop / LUT counts for a block of logic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResourceUsage {
    /// Occupied slices.
    pub slices: u32,
    /// Flip-flops.
    pub ffs: u32,
    /// Look-up tables.
    pub luts: u32,
}

impl ResourceUsage {
    /// Creates a resource record.
    pub const fn new(slices: u32, ffs: u32, luts: u32) -> Self {
        Self { slices, ffs, luts }
    }

    /// Static control logic of the platform (§VI.A): addressing and managing
    /// the ACB registers.
    pub const fn paper_static_control() -> Self {
        Self::new(733, 1365, 1817)
    }

    /// One Array Control Block (§VI.A): array controller, FIFOs, latency
    /// handling and fitness unit.
    pub const fn paper_acb() -> Self {
        Self::new(754, 1642, 1528)
    }

    /// Scales the record by an integer factor (e.g. number of ACBs).
    pub fn scaled(&self, factor: u32) -> Self {
        Self {
            slices: self.slices * factor,
            ffs: self.ffs * factor,
            luts: self.luts * factor,
        }
    }
}

impl Add for ResourceUsage {
    type Output = ResourceUsage;
    fn add(self, rhs: ResourceUsage) -> ResourceUsage {
        ResourceUsage {
            slices: self.slices + rhs.slices,
            ffs: self.ffs + rhs.ffs,
            luts: self.luts + rhs.luts,
        }
    }
}

impl AddAssign for ResourceUsage {
    fn add_assign(&mut self, rhs: ResourceUsage) {
        *self = *self + rhs;
    }
}

impl Mul<u32> for ResourceUsage {
    type Output = ResourceUsage;
    fn mul(self, rhs: u32) -> ResourceUsage {
        self.scaled(rhs)
    }
}

impl Sum for ResourceUsage {
    fn sum<I: Iterator<Item = ResourceUsage>>(iter: I) -> ResourceUsage {
        iter.fold(ResourceUsage::default(), |acc, x| acc + x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants_match_section_vi_a() {
        let s = ResourceUsage::paper_static_control();
        assert_eq!((s.slices, s.ffs, s.luts), (733, 1365, 1817));
        let a = ResourceUsage::paper_acb();
        assert_eq!((a.slices, a.ffs, a.luts), (754, 1642, 1528));
    }

    #[test]
    fn add_and_scale() {
        let a = ResourceUsage::new(1, 2, 3);
        let b = ResourceUsage::new(10, 20, 30);
        assert_eq!(a + b, ResourceUsage::new(11, 22, 33));
        assert_eq!(a.scaled(3), ResourceUsage::new(3, 6, 9));
        assert_eq!(a * 3, a.scaled(3));
    }

    #[test]
    fn add_assign_accumulates() {
        let mut acc = ResourceUsage::default();
        acc += ResourceUsage::paper_acb();
        acc += ResourceUsage::paper_acb();
        assert_eq!(acc, ResourceUsage::paper_acb().scaled(2));
    }

    #[test]
    fn sum_over_iterator() {
        let total: ResourceUsage = (0..3).map(|_| ResourceUsage::paper_acb()).sum();
        assert_eq!(total.slices, 3 * 754);
        assert_eq!(total.ffs, 3 * 1642);
        assert_eq!(total.luts, 3 * 1528);
    }
}
