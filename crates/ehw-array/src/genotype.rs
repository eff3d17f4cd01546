//! The CGP-style genotype of one processing array.
//!
//! §III.A of the paper defines the search space the evolutionary algorithm
//! explores for each array:
//!
//! * **16 PE-function genes**, one per position of the 4×4 array, 4 bits each
//!   (the PE library has 16 elements),
//! * **8 input genes**, one per array data input (4 north + 4 west), each
//!   selecting one of the nine pixels of the 3×3 sliding window through a
//!   9-to-1 multiplexer,
//! * **1 output gene**, selecting which of the four east-side outputs is the
//!   array output.
//!
//! Only the PE-function genes require Dynamic Partial Reconfiguration when
//! they change; the mux genes live in control registers of the Array Control
//! Block.  That distinction drives the evolution-time model (Figs. 12–14):
//! the reconfiguration cost of a candidate is proportional to the number of
//! *PE genes* that differ from what is currently configured in the array.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::pe::PeFunction;

/// Rows of the processing array.
pub const ARRAY_ROWS: usize = 4;
/// Columns of the processing array.
pub const ARRAY_COLS: usize = 4;
/// Number of PE-function genes (one per array position).
pub const PE_GENES: usize = ARRAY_ROWS * ARRAY_COLS;
/// Number of input-mux genes (4 north + 4 west).
pub const INPUT_GENES: usize = ARRAY_ROWS + ARRAY_COLS;
/// Number of selectable window pixels per input (9-to-1 mux).
pub const WINDOW_SELECTIONS: u8 = 9;
/// Total number of genes in a genotype (PE + input muxes + output mux).
pub const TOTAL_GENES: usize = PE_GENES + INPUT_GENES + 1;

/// The genotype of one array: a complete, reconfigurable description of the
/// circuit (the *phenotype* is obtained by configuring the PEs and muxes
/// accordingly).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Genotype {
    /// PE function genes in row-major order (4 bits each, values 0–15).
    pub pe_genes: [u8; PE_GENES],
    /// Window-selection genes: indices 0–3 feed the north inputs of columns
    /// 0–3, indices 4–7 feed the west inputs of rows 0–3 (values 0–8).
    pub input_genes: [u8; INPUT_GENES],
    /// Which east-side row output is the array output (0–3).
    pub output_gene: u8,
}

impl Genotype {
    /// A neutral genotype: every PE passes its west input through, every
    /// input mux selects the window centre, and the output is row 0.  Filtering
    /// with this genotype is the identity function on the image.
    pub fn identity() -> Self {
        Genotype {
            pe_genes: [PeFunction::IdentityW.gene(); PE_GENES],
            input_genes: [4; INPUT_GENES], // window centre
            output_gene: 0,
        }
    }

    /// A uniformly random genotype (the paper's first-generation candidates).
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let mut pe_genes = [0u8; PE_GENES];
        for g in &mut pe_genes {
            *g = rng.gen_range(0..16);
        }
        let mut input_genes = [0u8; INPUT_GENES];
        for g in &mut input_genes {
            *g = rng.gen_range(0..WINDOW_SELECTIONS);
        }
        Genotype {
            pe_genes,
            input_genes,
            output_gene: rng.gen_range(0..ARRAY_ROWS as u8),
        }
    }

    /// The window-selector gene feeding the north input of `col`.
    #[inline]
    pub(crate) fn north_selector(&self, col: usize) -> u8 {
        self.input_genes[col]
    }

    /// The window-selector gene feeding the west input of `row`.
    #[inline]
    pub(crate) fn west_selector(&self, row: usize) -> u8 {
        self.input_genes[ARRAY_COLS + row]
    }

    /// Mutates exactly `rate` randomly chosen genes (with replacement, as the
    /// simple hardware-oriented mutation of the paper does): each mutation
    /// picks a random gene position and assigns it a fresh random value.
    /// Returns the mutated copy.
    pub fn mutated<R: Rng + ?Sized>(&self, rate: usize, rng: &mut R) -> Genotype {
        let mut child = self.clone();
        for _ in 0..rate {
            let gene = rng.gen_range(0..TOTAL_GENES);
            if gene < PE_GENES {
                child.pe_genes[gene] = rng.gen_range(0..16);
            } else if gene < PE_GENES + INPUT_GENES {
                child.input_genes[gene - PE_GENES] = rng.gen_range(0..WINDOW_SELECTIONS);
            } else {
                child.output_gene = rng.gen_range(0..ARRAY_ROWS as u8);
            }
        }
        child
    }

    /// The gene-level diff turning `parent` into `self`: one entry per flat
    /// gene position whose value differs, carrying this genotype's value.
    /// This is the software mirror of the paper's partial reconfiguration —
    /// only the changed genes are shipped to the array — and the input to
    /// [`CompiledArray::patch`](crate::compiled::CompiledArray::patch).
    pub fn diff_from(&self, parent: &Genotype) -> GeneDiff {
        let mut diff = GeneDiff::default();
        // XOR each gene section as one word and walk straight to the set
        // bytes with trailing_zeros: an untouched section costs a single
        // compare and a k-gene mutation costs k iterations — no 25-gene
        // scan, no per-gene branches.  This runs once per candidate in the
        // hottest loop of the platform, so it has to be nearly free.
        let mut x = u128::from_le_bytes(self.pe_genes) ^ u128::from_le_bytes(parent.pe_genes);
        while x != 0 {
            let i = (x.trailing_zeros() / 8) as usize;
            diff.entries[diff.len] = (i as u8, self.pe_genes[i], parent.pe_genes[i]);
            diff.len += 1;
            x &= !(0xFFu128 << (i * 8));
        }
        let mut x = u64::from_le_bytes(self.input_genes) ^ u64::from_le_bytes(parent.input_genes);
        while x != 0 {
            let i = (x.trailing_zeros() / 8) as usize;
            diff.entries[diff.len] = (
                (PE_GENES + i) as u8,
                self.input_genes[i],
                parent.input_genes[i],
            );
            diff.len += 1;
            x &= !(0xFFu64 << (i * 8));
        }
        if self.output_gene != parent.output_gene {
            diff.entries[diff.len] = (
                (PE_GENES + INPUT_GENES) as u8,
                self.output_gene,
                parent.output_gene,
            );
            diff.len += 1;
        }
        diff
    }

    /// Number of PE-function genes that differ from `other` — i.e. the number
    /// of PE reconfigurations needed to turn the circuit described by `other`
    /// into this one.
    pub fn pe_reconfigurations_from(&self, other: &Genotype) -> usize {
        self.pe_genes
            .iter()
            .zip(other.pe_genes.iter())
            .filter(|(a, b)| a != b)
            .count()
    }

    /// Number of genes (of any kind) that differ from `other`.
    pub fn hamming_distance(&self, other: &Genotype) -> usize {
        let pe = self.pe_reconfigurations_from(other);
        let inputs = self
            .input_genes
            .iter()
            .zip(other.input_genes.iter())
            .filter(|(a, b)| a != b)
            .count();
        pe + inputs + usize::from(self.output_gene != other.output_gene)
    }

    /// Packs the genotype into a compact bit string: 16 × 4 bits of PE genes,
    /// 8 × 4 bits of input genes, 1 × 2 bits of output gene = 106 bits,
    /// little-endian within each byte.  This is the representation the
    /// MicroBlaze would keep in memory.
    pub fn encode(&self) -> Vec<u8> {
        let mut bits: Vec<bool> = Vec::with_capacity(TOTAL_GENES * 4);
        for &g in &self.pe_genes {
            for b in 0..4 {
                bits.push((g >> b) & 1 == 1);
            }
        }
        for &g in &self.input_genes {
            for b in 0..4 {
                bits.push((g >> b) & 1 == 1);
            }
        }
        for b in 0..2 {
            bits.push((self.output_gene >> b) & 1 == 1);
        }
        let mut bytes = vec![0u8; bits.len().div_ceil(8)];
        for (i, bit) in bits.iter().enumerate() {
            if *bit {
                bytes[i / 8] |= 1 << (i % 8);
            }
        }
        bytes
    }

    /// Decodes a genotype previously produced by [`encode`](Self::encode).
    /// Out-of-range fields are clamped the way the hardware registers would
    /// decode them.
    pub fn decode(bytes: &[u8]) -> Option<Genotype> {
        let needed_bits = PE_GENES * 4 + INPUT_GENES * 4 + 2;
        if bytes.len() * 8 < needed_bits {
            return None;
        }
        let bit = |i: usize| (bytes[i / 8] >> (i % 8)) & 1;
        let nibble = |start: usize| {
            bit(start) | bit(start + 1) << 1 | bit(start + 2) << 2 | bit(start + 3) << 3
        };

        let mut pe_genes = [0u8; PE_GENES];
        for (i, g) in pe_genes.iter_mut().enumerate() {
            *g = nibble(i * 4) & 0x0F;
        }
        let mut input_genes = [0u8; INPUT_GENES];
        for (i, g) in input_genes.iter_mut().enumerate() {
            *g = (nibble((PE_GENES + i) * 4)).min(WINDOW_SELECTIONS - 1);
        }
        let out_start = (PE_GENES + INPUT_GENES) * 4;
        let output_gene = (bit(out_start) | bit(out_start + 1) << 1) & 0x03;
        Some(Genotype {
            pe_genes,
            input_genes,
            output_gene,
        })
    }
}

impl Default for Genotype {
    fn default() -> Self {
        Genotype::identity()
    }
}

/// A sparse set of `(flat gene index, new value)` pairs — the genes that
/// changed between a parent genotype and a child, in ascending index order.
///
/// A (1+λ) mutation touches at most `k` genes, so the diff is tiny; it is
/// stored inline (no allocation) because one is computed per candidate in the
/// hottest loop of the platform.  Produced by [`Genotype::diff_from`],
/// consumed by `CompiledArray::patch`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GeneDiff {
    entries: [(u8, u8, u8); TOTAL_GENES],
    len: usize,
}

impl GeneDiff {
    /// The `(flat gene index, child value, parent value)` entries, in
    /// ascending index order.  Carrying the parent value makes reverting a
    /// patched plan a pure diff replay — no genotype lookups on the return
    /// trip.
    #[inline]
    pub(crate) fn entries(&self) -> &[(u8, u8, u8)] {
        &self.entries[..self.len]
    }
}

#[cfg(test)]
impl Genotype {
    /// The value of the flat gene `index` (0..[`TOTAL_GENES`]): PE genes
    /// first (row-major), then input genes (4 north, 4 west), then the output
    /// gene — the ordering [`GeneDiff`] entries use.
    #[inline]
    pub(crate) fn flat_gene(&self, index: usize) -> u8 {
        if index < PE_GENES {
            self.pe_genes[index]
        } else if index < PE_GENES + INPUT_GENES {
            self.input_genes[index - PE_GENES]
        } else {
            self.output_gene
        }
    }
}

#[cfg(test)]
impl GeneDiff {
    /// Number of genes that differ.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// `true` if the two genotypes were identical.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn constants_match_paper_architecture() {
        assert_eq!(ARRAY_ROWS, 4);
        assert_eq!(ARRAY_COLS, 4);
        assert_eq!(PE_GENES, 16);
        assert_eq!(INPUT_GENES, 8);
        assert_eq!(TOTAL_GENES, 25);
    }

    #[test]
    fn identity_genotype_selects_center_everywhere() {
        let g = Genotype::identity();
        assert!(g.input_genes.iter().all(|&s| s == 4));
        assert_eq!(g.output_gene, 0);
        assert!(g
            .pe_genes
            .iter()
            .all(|&gene| PeFunction::from_gene(gene) == PeFunction::IdentityW));
    }

    #[test]
    fn random_genotype_is_within_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let g = Genotype::random(&mut rng);
            assert!(g.pe_genes.iter().all(|&x| x < 16));
            assert!(g.input_genes.iter().all(|&x| x < WINDOW_SELECTIONS));
            assert!(g.output_gene < ARRAY_ROWS as u8);
        }
    }

    #[test]
    fn mutation_changes_at_most_rate_genes() {
        let mut rng = StdRng::seed_from_u64(2);
        let parent = Genotype::random(&mut rng);
        for rate in [1usize, 3, 5] {
            for _ in 0..50 {
                let child = parent.mutated(rate, &mut rng);
                assert!(child.hamming_distance(&parent) <= rate);
            }
        }
    }

    #[test]
    fn mutation_with_zero_rate_is_identity() {
        let mut rng = StdRng::seed_from_u64(3);
        let parent = Genotype::random(&mut rng);
        assert_eq!(parent.mutated(0, &mut rng), parent);
    }

    #[test]
    fn mutation_eventually_touches_every_gene_class() {
        let mut rng = StdRng::seed_from_u64(4);
        let parent = Genotype::identity();
        let mut pe_changed = false;
        let mut input_changed = false;
        let mut output_changed = false;
        for _ in 0..500 {
            let child = parent.mutated(1, &mut rng);
            pe_changed |= child.pe_genes != parent.pe_genes;
            input_changed |= child.input_genes != parent.input_genes;
            output_changed |= child.output_gene != parent.output_gene;
        }
        assert!(pe_changed && input_changed && output_changed);
    }

    #[test]
    fn pe_reconfigurations_counts_only_pe_genes() {
        let a = Genotype::identity();
        let mut b = a.clone();
        b.input_genes[0] = 0;
        b.output_gene = 2;
        assert_eq!(b.pe_reconfigurations_from(&a), 0);
        assert_eq!(b.hamming_distance(&a), 2);
        b.pe_genes[5] = PeFunction::Max.gene();
        b.pe_genes[7] = PeFunction::Min.gene();
        assert_eq!(b.pe_reconfigurations_from(&a), 2);
        assert_eq!(b.hamming_distance(&a), 4);
    }

    #[test]
    fn selectors_map_to_expected_positions() {
        let mut g = Genotype::identity();
        g.input_genes = [0, 1, 2, 3, 5, 6, 7, 8];
        for c in 0..ARRAY_COLS {
            assert_eq!(g.north_selector(c), c as u8);
        }
        for r in 0..ARRAY_ROWS {
            assert_eq!(g.west_selector(r), (5 + r) as u8);
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..200 {
            let g = Genotype::random(&mut rng);
            let bytes = g.encode();
            // 16×4 + 8×4 + 2 = 98 bits → 13 bytes.
            assert_eq!(bytes.len(), 13);
            let back = Genotype::decode(&bytes).expect("decode");
            assert_eq!(back, g);
        }
    }

    #[test]
    fn decode_rejects_short_buffers() {
        assert!(Genotype::decode(&[0u8; 3]).is_none());
    }

    #[test]
    fn gene_diff_matches_hamming_distance_and_reconstructs_the_child() {
        let mut rng = StdRng::seed_from_u64(7);
        for rate in [0usize, 1, 3, 5, 25] {
            for _ in 0..50 {
                let parent = Genotype::random(&mut rng);
                let child = parent.mutated(rate, &mut rng);
                let diff = child.diff_from(&parent);
                assert_eq!(diff.len(), child.hamming_distance(&parent));
                assert_eq!(diff.is_empty(), child == parent);
                // Applying the diff to the parent's flat genes reproduces the
                // child exactly.
                let mut flat: Vec<u8> = (0..TOTAL_GENES).map(|i| parent.flat_gene(i)).collect();
                for &(gene, value, old) in diff.entries() {
                    assert_eq!(old, parent.flat_gene(gene as usize), "parent value");
                    flat[gene as usize] = value;
                }
                for (i, &v) in flat.iter().enumerate() {
                    assert_eq!(v, child.flat_gene(i), "gene {i}");
                }
            }
        }
    }

    #[test]
    fn flat_gene_ordering_is_pe_then_input_then_output() {
        let mut g = Genotype::identity();
        g.pe_genes[3] = 7;
        g.input_genes[2] = 1;
        g.input_genes[6] = 8;
        g.output_gene = 2;
        assert_eq!(g.flat_gene(3), 7);
        assert_eq!(g.flat_gene(PE_GENES + 2), 1);
        assert_eq!(g.flat_gene(PE_GENES + 6), 8);
        assert_eq!(g.flat_gene(TOTAL_GENES - 1), 2);
    }

    #[test]
    fn hamming_distance_is_symmetric_and_zero_on_self() {
        let mut rng = StdRng::seed_from_u64(6);
        let a = Genotype::random(&mut rng);
        let b = Genotype::random(&mut rng);
        assert_eq!(a.hamming_distance(&a), 0);
        assert_eq!(a.hamming_distance(&b), b.hamming_distance(&a));
    }
}
