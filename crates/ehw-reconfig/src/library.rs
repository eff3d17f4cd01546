//! The library of presynthesized partial bitstreams.
//!
//! §III.A of the paper: *"the library of available PEs was reduced to 16
//! different elements, which allows the corresponding gene coding in 4 bits"*.
//! Each element has one presynthesized partial bitstream stored in external
//! DDR memory; the reconfiguration engine relocates it to whichever PE slot
//! the evolutionary algorithm wants to change.
//!
//! The library is indexed by the 4-bit PE function gene.

use crate::timing::pe_frames;
use ehw_fabric::bitstream::PartialBitstream;
use ehw_fabric::frame::FrameAddress;

/// Number of presynthesized PE variants (one per 4-bit gene value).
pub const PE_VARIANTS: usize = 16;

/// Library of presynthesized partial bitstreams, as stored in the external
/// DDR memory of the SoPC.
#[derive(Debug, Clone)]
pub struct PbsLibrary {
    /// One PBS per PE function, indexed by the 4-bit gene value.
    variants: Vec<PartialBitstream>,
}

impl PbsLibrary {
    /// Builds the library of 16 PE bitstreams.  The payload
    /// of each PBS is synthesized deterministically from the function index so
    /// that different functions always have different configuration data.
    pub(crate) fn presynthesized() -> Self {
        // Bitstreams are generated for a reference location (region 0,
        // column 0) and relocated on demand by the engine.
        let origin = FrameAddress::new(0, 0, 0);
        let variants = (0..PE_VARIANTS)
            .map(|i| {
                PartialBitstream::synthesize(
                    format!("pe-func-{i:02}"),
                    origin,
                    pe_frames(),
                    0x5EED_0000 + i as u64,
                )
            })
            .collect();
        Self { variants }
    }

    /// The PBS implementing PE function `gene` (0–15).
    ///
    /// # Panics
    /// Panics if `gene >= 16`.
    pub(crate) fn variant(&self, gene: u8) -> &PartialBitstream {
        assert!(
            (gene as usize) < PE_VARIANTS,
            "PE function gene {gene} out of range (0-15)"
        );
        &self.variants[gene as usize]
    }
}

impl Default for PbsLibrary {
    fn default() -> Self {
        Self::presynthesized()
    }
}

#[cfg(test)]
impl PbsLibrary {
    /// Finds the gene whose bitstream payload matches `pbs`, if any — how
    /// the tests identify what is currently configured in a slot.
    pub(crate) fn identify(&self, pbs: &PartialBitstream) -> Option<u8> {
        self.variants
            .iter()
            .position(|v| v.payload_bytes() == pbs.payload_bytes())
            .map(|i| i as u8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variants_are_distinct_and_identifiable() {
        let lib = PbsLibrary::presynthesized();
        for gene in 0..16u8 {
            assert_eq!(lib.identify(lib.variant(gene)), Some(gene));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_gene_panics() {
        let lib = PbsLibrary::presynthesized();
        let _ = lib.variant(16);
    }

    #[test]
    fn library_is_reproducible() {
        let a = PbsLibrary::presynthesized();
        let b = PbsLibrary::presynthesized();
        for gene in 0..16u8 {
            assert_eq!(a.variant(gene), b.variant(gene));
        }
    }
}
