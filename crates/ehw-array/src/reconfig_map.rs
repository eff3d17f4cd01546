//! Mapping genotype changes to reconfiguration work.
//!
//! When the evolutionary algorithm wants to evaluate a new candidate, only
//! part of the genotype requires Dynamic Partial Reconfiguration:
//!
//! * each **PE-function gene** that differs from what is currently configured
//!   in the array costs one PE reconfiguration (67.53 µs each, §VI.A),
//! * the **input-mux** and **output-mux genes** are ordinary control-register
//!   writes through the ACB's self-addressing scheme — effectively free
//!   compared with DPR.
//!
//! [`reconfig_plan`] computes the exact list of PE writes needed to go from
//! the currently configured genotype to a candidate, which both the platform
//! (to drive the reconfiguration engine) and the timing model (to cost a
//! generation) consume.

use serde::{Deserialize, Serialize};

use crate::genotype::{Genotype, ARRAY_COLS, ARRAY_ROWS};

/// One required PE reconfiguration: write function `gene` into the PE at
/// `(row, col)` of array `array_index`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PeWrite {
    /// Target array (Array Control Block index).
    pub array_index: usize,
    /// PE row within the array.
    pub row: usize,
    /// PE column within the array.
    pub col: usize,
    /// 4-bit PE function gene to configure.
    pub gene: u8,
}

/// The reconfiguration plan for moving an array from `current` to `candidate`.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ReconfigPlan {
    /// PE writes that must go through the reconfiguration engine.
    pub pe_writes: Vec<PeWrite>,
    /// Number of mux-register writes (input selectors + output selector) —
    /// cheap, but reported for completeness.
    pub register_writes: usize,
}

impl ReconfigPlan {
    /// Number of PE reconfigurations in the plan (the quantity that costs
    /// 67.53 µs each).
    pub fn pe_count(&self) -> usize {
        self.pe_writes.len()
    }
}

/// Computes the plan needed to reconfigure array `array_index` from the
/// `current` genotype to the `candidate` genotype.
pub fn reconfig_plan(array_index: usize, current: &Genotype, candidate: &Genotype) -> ReconfigPlan {
    let mut pe_writes = Vec::new();
    for row in 0..ARRAY_ROWS {
        for col in 0..ARRAY_COLS {
            let idx = row * ARRAY_COLS + col;
            if current.pe_genes[idx] != candidate.pe_genes[idx] {
                pe_writes.push(PeWrite {
                    array_index,
                    row,
                    col,
                    gene: candidate.pe_genes[idx],
                });
            }
        }
    }
    let register_writes = candidate
        .input_genes
        .iter()
        .zip(current.input_genes.iter())
        .filter(|(a, b)| a != b)
        .count()
        + usize::from(candidate.output_gene != current.output_gene);
    ReconfigPlan {
        pe_writes,
        register_writes,
    }
}

/// The plan for configuring a candidate into a freshly initialised (blank)
/// array: every PE must be written once.
pub fn full_configuration_plan(array_index: usize, candidate: &Genotype) -> ReconfigPlan {
    let mut pe_writes = Vec::with_capacity(ARRAY_ROWS * ARRAY_COLS);
    for row in 0..ARRAY_ROWS {
        for col in 0..ARRAY_COLS {
            pe_writes.push(PeWrite {
                array_index,
                row,
                col,
                gene: candidate.pe_genes[row * ARRAY_COLS + col],
            });
        }
    }
    ReconfigPlan {
        pe_writes,
        register_writes: candidate.input_genes.len() + 1,
    }
}

#[cfg(test)]
impl ReconfigPlan {
    /// `true` if nothing at all needs to change.
    pub(crate) fn is_empty(&self) -> bool {
        self.pe_writes.is_empty() && self.register_writes == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn identical_genotypes_need_no_work() {
        let g = Genotype::identity();
        let plan = reconfig_plan(0, &g, &g);
        assert!(plan.is_empty());
        assert_eq!(plan.pe_count(), 0);
    }

    #[test]
    fn plan_matches_pe_gene_difference_count() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let a = Genotype::random(&mut rng);
            let b = Genotype::random(&mut rng);
            let plan = reconfig_plan(2, &a, &b);
            assert_eq!(plan.pe_count(), b.pe_reconfigurations_from(&a));
            for w in &plan.pe_writes {
                assert_eq!(w.array_index, 2);
                assert_eq!(w.gene, b.pe_genes[w.row * ARRAY_COLS + w.col]);
                assert_ne!(w.gene, a.pe_genes[w.row * ARRAY_COLS + w.col]);
            }
        }
    }

    #[test]
    fn mux_changes_are_register_writes_only() {
        let a = Genotype::identity();
        let mut b = a.clone();
        b.input_genes[3] = 0;
        b.input_genes[6] = 8;
        b.output_gene = 2;
        let plan = reconfig_plan(0, &a, &b);
        assert_eq!(plan.pe_count(), 0);
        assert_eq!(plan.register_writes, 3);
        assert!(!plan.is_empty());
    }

    #[test]
    fn mutation_rate_bounds_pe_writes() {
        // A candidate produced by k mutations never needs more than k PE
        // reconfigurations — the property the evolution-time model relies on.
        let mut rng = StdRng::seed_from_u64(2);
        let parent = Genotype::random(&mut rng);
        for k in [1usize, 3, 5] {
            for _ in 0..50 {
                let child = parent.mutated(k, &mut rng);
                assert!(reconfig_plan(0, &parent, &child).pe_count() <= k);
            }
        }
    }

    #[test]
    fn full_configuration_covers_every_pe() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = Genotype::random(&mut rng);
        let plan = full_configuration_plan(1, &g);
        assert_eq!(plan.pe_count(), 16);
        assert_eq!(plan.register_writes, 9);
        let mut slots: Vec<_> = plan.pe_writes.iter().map(|w| (w.row, w.col)).collect();
        slots.sort_unstable();
        slots.dedup();
        assert_eq!(slots.len(), 16);
    }
}
