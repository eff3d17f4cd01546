//! Reconfigurable regions and the platform floorplan.
//!
//! Each PE position of each array is a *reconfigurable region*: a rectangle of
//! fabric whose configuration frames can be rewritten independently of the
//! rest of the design.  The floorplan (Fig. 10 of the paper) stacks the arrays
//! vertically — one array per clock region, eight CLB columns wide — with each
//! PE occupying two CLB columns by a quarter of the clock-region height.
//!
//! [`Floorplan`] assigns every PE slot a frame range so that the
//! reconfiguration engine can translate "write PE function F at array a,
//! row r, column c" into frame writes, and so that fault injection can target
//! the frames that belong to a specific PE.

use crate::device::{DeviceGeometry, PE_CLB_COLS};
use crate::frame::FrameAddress;
use serde::{Deserialize, Serialize};

/// Number of configuration frames modelled per PE slot.
///
/// The exact number on silicon depends on the column types spanned by the PE;
/// four frames per PE keeps the model small while still letting a single PE
/// contain many distinct fault locations.
pub const FRAMES_PER_PE: usize = 4;

/// Identifies one PE slot within the multi-array platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PeSlot {
    /// Index of the array (Array Control Block) the PE belongs to.
    pub array: usize,
    /// Row of the PE within its 4×4 array.
    pub row: usize,
    /// Column of the PE within its 4×4 array.
    pub col: usize,
}

impl PeSlot {
    /// Creates a PE slot identifier.
    pub fn new(array: usize, row: usize, col: usize) -> Self {
        Self { array, row, col }
    }
}

/// A reconfigurable region: the frames belonging to one PE slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReconfigurableRegion {
    /// The PE slot this region hosts.
    pub slot: PeSlot,
    /// Base frame address of the region.
    pub base: FrameAddress,
    /// Number of frames in the region.
    pub frames: usize,
}

impl ReconfigurableRegion {
    /// All frame addresses belonging to this region.
    pub fn frame_addresses(&self) -> impl Iterator<Item = FrameAddress> + '_ {
        (0..self.frames).map(move |i| {
            FrameAddress::new(
                self.base.region,
                self.base.major,
                self.base.minor + i as u16,
            )
        })
    }
}

/// Floorplan of a multi-array platform: a grid of PE regions per array, laid
/// out according to the paper's Fig. 10 (arrays stacked vertically, one clock
/// region each).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Floorplan {
    arrays: usize,
    rows: usize,
    cols: usize,
    regions: Vec<ReconfigurableRegion>,
}

impl Floorplan {
    /// Builds a floorplan for `arrays` arrays of `rows × cols` PEs on the
    /// given device.
    ///
    /// # Panics
    /// Panics if the requested number of arrays does not fit on the device or
    /// any dimension is zero.
    pub fn new(geometry: DeviceGeometry, arrays: usize, rows: usize, cols: usize) -> Self {
        assert!(
            arrays > 0 && rows > 0 && cols > 0,
            "floorplan dimensions must be non-zero"
        );
        assert!(
            arrays <= geometry.clock_regions,
            "not enough clock regions: requested {arrays}, device has {}",
            geometry.clock_regions
        );
        assert!(
            cols * PE_CLB_COLS <= geometry.clb_columns,
            "array is wider than the device"
        );

        let mut regions = Vec::with_capacity(arrays * rows * cols);
        for a in 0..arrays {
            for r in 0..rows {
                for c in 0..cols {
                    // One clock region per array; PEs tile the region: the
                    // column index selects the major column pair, the row
                    // index selects the minor frame offset within the column.
                    let slot = PeSlot::new(a, r, c);
                    let base = FrameAddress::new(
                        a as u16,
                        (c * PE_CLB_COLS) as u16,
                        (r * FRAMES_PER_PE) as u16,
                    );
                    regions.push(ReconfigurableRegion {
                        slot,
                        base,
                        frames: FRAMES_PER_PE,
                    });
                }
            }
        }
        Self {
            arrays,
            rows,
            cols,
            regions,
        }
    }

    /// Number of arrays in the floorplan.
    pub fn arrays(&self) -> usize {
        self.arrays
    }

    /// The region hosting a specific PE slot, if it exists.
    pub fn region(&self, slot: PeSlot) -> Option<&ReconfigurableRegion> {
        if slot.array >= self.arrays || slot.row >= self.rows || slot.col >= self.cols {
            return None;
        }
        let idx = (slot.array * self.rows + slot.row) * self.cols + slot.col;
        self.regions.get(idx)
    }

    /// The regions belonging to one array.
    pub fn array_regions(&self, array: usize) -> impl Iterator<Item = &ReconfigurableRegion> + '_ {
        self.regions.iter().filter(move |r| r.slot.array == array)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's demonstrator: three 4×4 arrays on a Virtex-5 LX110T.
    fn paper_floorplan() -> Floorplan {
        Floorplan::new(DeviceGeometry::virtex5_lx110t(), 3, 4, 4)
    }

    #[test]
    fn paper_floorplan_dimensions() {
        let fp = paper_floorplan();
        assert_eq!(fp.arrays(), 3);
    }

    #[test]
    fn region_lookup_round_trips() {
        let fp = paper_floorplan();
        for a in 0..3 {
            for r in 0..4 {
                for c in 0..4 {
                    let slot = PeSlot::new(a, r, c);
                    let region = fp.region(slot).expect("region exists");
                    assert_eq!(region.slot, slot);
                }
            }
        }
    }

    #[test]
    fn out_of_range_slot_returns_none() {
        let fp = paper_floorplan();
        assert!(fp.region(PeSlot::new(3, 0, 0)).is_none());
        assert!(fp.region(PeSlot::new(0, 4, 0)).is_none());
        assert!(fp.region(PeSlot::new(0, 0, 4)).is_none());
    }

    #[test]
    fn regions_do_not_overlap() {
        let fp = paper_floorplan();
        let mut seen = std::collections::HashSet::new();
        for region in (0..fp.arrays()).flat_map(|a| fp.array_regions(a)) {
            for addr in region.frame_addresses() {
                assert!(seen.insert(addr), "frame {addr} owned by two regions");
            }
        }
        assert_eq!(seen.len(), 48 * FRAMES_PER_PE);
    }

    #[test]
    fn array_regions_filters_by_array() {
        let fp = paper_floorplan();
        let a1: Vec<_> = fp.array_regions(1).collect();
        assert_eq!(a1.len(), 16);
        assert!(a1.iter().all(|r| r.slot.array == 1));
    }

    #[test]
    #[should_panic(expected = "not enough clock regions")]
    fn too_many_arrays_panics() {
        let _ = Floorplan::new(DeviceGeometry::small(), 3, 4, 4);
    }
}
