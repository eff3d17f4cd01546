//! Device geometry: clock regions and CLB columns.
//!
//! The floorplanning constants come from §VI.A of the paper:
//!
//! * each Processing Element occupies **2 CLB columns × 5 CLBs** (one quarter
//!   of a clock-region height),
//! * each 4×4 array occupies **8 CLB columns of one clock region**, i.e. a
//!   total of **160 CLBs**,
//! * the demonstrator instantiates **three arrays** (three Array Control
//!   Blocks stacked vertically) on a Virtex-5 LX110T.
//!
//! The geometry model is deliberately simple — rows of clock regions, each
//! containing a grid of CLBs organised in columns — but it carries exactly the
//! quantities that the resource and timing models need.

use serde::{Deserialize, Serialize};

/// Number of CLB rows in one Virtex-5 clock region.
pub const CLBS_PER_REGION_HEIGHT: usize = 20;

/// CLB rows occupied by one PE (one quarter of a clock region height).
pub const PE_CLB_ROWS: usize = 5;

/// CLB columns occupied by one PE.
pub const PE_CLB_COLS: usize = 2;

/// CLB columns occupied by one 4×4 array (4 PEs wide × 2 columns each).
pub const ARRAY_CLB_COLS: usize = 8;

/// Total CLBs occupied by one 4×4 array (8 columns × 20 CLB rows).
pub const ARRAY_CLBS: usize = ARRAY_CLB_COLS * CLBS_PER_REGION_HEIGHT;

/// Static geometric description of a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeviceGeometry {
    /// Number of clock regions stacked vertically.
    pub clock_regions: usize,
    /// Number of CLB columns per clock region.
    pub clb_columns: usize,
    /// Number of CLB rows per clock region.
    pub clbs_per_region_height: usize,
}

impl DeviceGeometry {
    /// Geometry roughly matching the Virtex-5 LX110T used in the paper
    /// (medium-size device: 8 clock-region rows, 54 CLB columns).
    pub fn virtex5_lx110t() -> Self {
        DeviceGeometry {
            clock_regions: 8,
            clb_columns: 54,
            clbs_per_region_height: CLBS_PER_REGION_HEIGHT,
        }
    }

    /// Total number of CLBs on the device.
    pub(crate) fn total_clbs(&self) -> usize {
        self.clock_regions * self.clb_columns * self.clbs_per_region_height
    }

    /// How many 4×4 arrays fit on the device if each occupies
    /// [`ARRAY_CLB_COLS`] columns of one clock region.
    pub fn max_arrays(&self) -> usize {
        let per_region = self.clb_columns / ARRAY_CLB_COLS;
        per_region * self.clock_regions
    }

    /// CLBs consumed by `n` arrays.
    pub(crate) fn clbs_for_arrays(&self, n: usize) -> usize {
        n * ARRAY_CLBS
    }

    /// Fraction of the device CLBs consumed by `n` arrays, in `[0, 1]`.
    pub fn array_occupancy(&self, n: usize) -> f64 {
        self.clbs_for_arrays(n) as f64 / self.total_clbs() as f64
    }
}

/// A small synthetic device for tests.
#[cfg(test)]
impl DeviceGeometry {
    pub(crate) fn small() -> Self {
        DeviceGeometry {
            clock_regions: 2,
            clb_columns: 16,
            clbs_per_region_height: CLBS_PER_REGION_HEIGHT,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_pe_and_array_footprints() {
        // §VI.A: PE = 2 columns × 5 CLBs = a quarter of a clock region height;
        // array = 8 columns × 20 CLBs = 160 CLBs.
        assert_eq!(PE_CLB_ROWS * 4, CLBS_PER_REGION_HEIGHT);
        assert_eq!(PE_CLB_COLS * 4, ARRAY_CLB_COLS);
        assert_eq!(ARRAY_CLBS, 160);
    }

    #[test]
    fn lx110t_holds_at_least_three_arrays() {
        let g = DeviceGeometry::virtex5_lx110t();
        assert!(g.max_arrays() >= 3, "max_arrays = {}", g.max_arrays());
        assert_eq!(g.clbs_for_arrays(3), 480);
    }

    #[test]
    fn occupancy_scales_linearly() {
        let g = DeviceGeometry::virtex5_lx110t();
        let one = g.array_occupancy(1);
        let three = g.array_occupancy(3);
        assert!((three - 3.0 * one).abs() < 1e-12);
        assert!(three < 1.0);
    }

    #[test]
    fn total_clbs_is_product_of_dimensions() {
        let g = DeviceGeometry::small();
        assert_eq!(g.total_clbs(), 2 * 16 * 20);
    }
}
