//! Functional model of the 4×4 systolic processing array.
//!
//! The hardware array is fed by a window generator: for every output pixel,
//! the 3×3 neighbourhood of the corresponding input pixel is presented to the
//! array's eight inputs (through the per-input 9-to-1 muxes), the data
//! propagates through the pipelined PE mesh, and one of the four east-side
//! outputs is selected as the result.  Because each PE registers its output,
//! the array processes one window (one output pixel) per clock once the
//! pipeline is full.
//!
//! [`ProcessingArray`] reproduces this behaviour functionally: it computes the
//! exact same output pixel the hardware would, without modelling individual
//! clock cycles (the cycle-level cost is captured by the latency and timing
//! models).  Faulty PEs — the PE-level fault model of §VI.D — are overlaid on
//! the genotype: a damaged position corrupts its output regardless of the
//! function configured into it, exactly like the paper's "dummy PE" partial
//! bitstream.

use std::collections::BTreeMap;

use ehw_image::image::GrayImage;
use ehw_image::window::{for_each_window_in_rows, Window3x3};

use crate::compiled::CompiledArray;
use crate::genotype::{GeneDiff, Genotype, ARRAY_COLS, ARRAY_ROWS};
use crate::pe::FaultBehaviour;

/// The functional model of one evolvable processing array.
///
/// The genotype and fault overlay are the *state*; every mutation of either
/// *patches* the flat [`CompiledArray`] execution plan the hot paths actually
/// run — only the entries of the genes (or the overlay position) that changed
/// are rewritten, the software mirror of the paper's Dynamic Partial
/// Reconfiguration where only changed PE bitstreams are shipped to the
/// fabric.  The array remembers the plan it was configured with before the
/// last reconfiguration (`parent_plan`) and the gene
/// diff that produced the current one (`last_gene_diff`).
#[derive(Debug, Clone)]
pub struct ProcessingArray {
    genotype: Genotype,
    faults: BTreeMap<(usize, usize), FaultBehaviour>,
    plan: CompiledArray,
    /// The plan configured before the most recent [`set_genotype`]
    /// (under the *current* fault overlay — overlay edits patch both plans).
    parent_plan: CompiledArray,
    /// The gene diff applied by the most recent [`set_genotype`].
    last_diff: GeneDiff,
}

impl ProcessingArray {
    /// Creates an array configured with the given genotype and no faults.
    pub fn new(genotype: Genotype) -> Self {
        let plan = CompiledArray::new(&genotype);
        Self {
            genotype,
            faults: BTreeMap::new(),
            plan,
            parent_plan: plan,
            last_diff: GeneDiff::default(),
        }
    }

    /// Compiles `genotype` against this array's *current* fault overlay,
    /// without reconfiguring the array.  This is how a fitness evaluator
    /// scores a candidate on (possibly damaged) hardware: one plan per
    /// candidate, no array clone, no per-pixel fault lookups.  Candidates
    /// derived from an already-compiled parent should use
    /// [`CompiledArray::patch`] on that parent's plan instead — bit-identical
    /// and cheaper than a fresh compile.
    pub fn compile_with(&self, genotype: &Genotype) -> CompiledArray {
        CompiledArray::with_faults(genotype, self.faults.iter().map(|(&p, &b)| (p, b)))
    }

    /// The execution plan currently configured (genotype + fault overlay).
    pub fn plan(&self) -> &CompiledArray {
        &self.plan
    }

    /// Creates an array configured with the identity genotype.
    pub fn identity() -> Self {
        Self::new(Genotype::identity())
    }

    /// The currently configured genotype.
    pub fn genotype(&self) -> &Genotype {
        &self.genotype
    }

    /// Reconfigures the array with a new genotype by patching the current
    /// plan with the gene diff (partial reconfiguration).  Faults are a
    /// property of the fabric, not of the configuration, so they persist
    /// across reconfiguration — the key behaviour behind the self-healing
    /// experiments.
    pub fn set_genotype(&mut self, genotype: Genotype) {
        let diff = genotype.diff_from(&self.genotype);
        self.parent_plan = self.plan;
        self.plan = self.parent_plan.patch(&diff);
        self.last_diff = diff;
        self.genotype = genotype;
    }

    /// Injects a PE-level fault at array position `(row, col)`.
    ///
    /// # Panics
    /// Panics if the position is outside the 4×4 array.
    pub fn inject_fault(&mut self, row: usize, col: usize, behaviour: FaultBehaviour) {
        assert!(
            row < ARRAY_ROWS && col < ARRAY_COLS,
            "PE position out of range"
        );
        self.faults.insert((row, col), behaviour);
        self.plan = self.plan.patch_fault(row, col, Some(behaviour));
        self.parent_plan = self.parent_plan.patch_fault(row, col, Some(behaviour));
    }

    /// Removes the fault at `(row, col)`, if any (models repairing a transient
    /// fault by scrubbing).
    pub fn clear_fault(&mut self, row: usize, col: usize) {
        if self.faults.remove(&(row, col)).is_some() {
            self.plan = self.plan.patch_fault(row, col, None);
            self.parent_plan = self.parent_plan.patch_fault(row, col, None);
        }
    }

    /// `true` if at least one PE is damaged.
    pub fn has_faults(&self) -> bool {
        !self.faults.is_empty()
    }

    /// Computes the array output for one 3×3 window — the per-pixel kernel of
    /// the evolved filter.  Delegates to the compiled plan; the reference
    /// interpreter in [`crate::compiled`] is the (bit-identical) oracle.
    #[inline]
    pub fn evaluate_window(&self, window: &Window3x3) -> u8 {
        self.plan.evaluate_window(window)
    }

    /// Filters a whole image: every output pixel is the array's response to
    /// the 3×3 window centred on the corresponding input pixel.
    pub fn filter_image(&self, img: &GrayImage) -> GrayImage {
        self.plan.filter_image(img)
    }

    /// Row-parallel variant of [`filter_image`](Self::filter_image).
    ///
    /// The hardware evaluates candidates in parallel by instantiating several
    /// arrays; on the host we additionally exploit data parallelism inside a
    /// single evaluation by splitting the image into horizontal bands, one per
    /// thread.  The result is bit-identical to the sequential version.
    pub fn filter_image_parallel(&self, img: &GrayImage, threads: usize) -> GrayImage {
        let threads = threads.max(1).min(img.height());
        if threads == 1 {
            return self.filter_image(img);
        }
        let width = img.width();
        let height = img.height();
        let rows_per_band = height.div_ceil(threads);
        let mut out = vec![0u8; width * height];

        let bands: Vec<(usize, &mut [u8])> = {
            let mut bands = Vec::new();
            let mut rest = out.as_mut_slice();
            let mut y0 = 0;
            while y0 < height {
                let rows = rows_per_band.min(height - y0);
                let (band, tail) = rest.split_at_mut(rows * width);
                bands.push((y0, band));
                rest = tail;
                y0 += rows;
            }
            bands
        };

        std::thread::scope(|scope| {
            for (y0, band) in bands {
                scope.spawn(move || {
                    let rows = band.len() / width;
                    let mut k = 0;
                    for_each_window_in_rows(img, y0, y0 + rows, |_, _, w| {
                        band[k] = self.plan.evaluate_window(w);
                        k += 1;
                    });
                });
            }
        });

        GrayImage::from_vec(width, height, out)
    }
}

/// Test-only fault clearing and views of the patching state and the fault
/// overlay.
#[cfg(test)]
impl ProcessingArray {
    /// Removes every injected fault.
    pub(crate) fn clear_all_faults(&mut self) {
        let positions: Vec<(usize, usize)> = self.faults.keys().copied().collect();
        for (row, col) in positions {
            self.faults.remove(&(row, col));
            self.plan = self.plan.patch_fault(row, col, None);
            self.parent_plan = self.parent_plan.patch_fault(row, col, None);
        }
    }

    /// The plan that was configured before the most recent genotype change
    /// (kept in sync with overlay edits), i.e. the parent of
    /// [`plan`](Self::plan) under [`last_gene_diff`](Self::last_gene_diff).
    pub(crate) fn parent_plan(&self) -> &CompiledArray {
        &self.parent_plan
    }

    /// The gene diff applied by the most recent genotype change (empty until
    /// the first [`set_genotype`](Self::set_genotype)).
    pub(crate) fn last_gene_diff(&self) -> &GeneDiff {
        &self.last_diff
    }

    /// Positions currently marked as faulty.
    pub(crate) fn faulty_positions(&self) -> Vec<(usize, usize)> {
        self.faults.keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pe::PeFunction;
    use ehw_image::metrics::mae;
    use ehw_image::synth;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn identity_genotype_filters_to_identity() {
        let array = ProcessingArray::identity();
        let img = synth::shapes(32, 32, 3);
        assert_eq!(array.filter_image(&img), img);
    }

    #[test]
    fn identity_window_response_is_center() {
        let array = ProcessingArray::identity();
        let w = Window3x3([10, 20, 30, 40, 50, 60, 70, 80, 90]);
        assert_eq!(array.evaluate_window(&w), 50);
    }

    #[test]
    fn const_max_genotype_outputs_white() {
        let mut g = Genotype::identity();
        // Make the last PE of the output row a constant generator.
        g.pe_genes[ARRAY_COLS - 1] = PeFunction::ConstMax.gene();
        let array = ProcessingArray::new(g);
        let img = synth::gradient(16, 16);
        assert!(array.filter_image(&img).pixels().all(|p| p == 255));
    }

    #[test]
    fn output_row_selection_changes_result() {
        // Row 0 passes the west input of row 0; row 1 inverts it.
        let mut g = Genotype::identity();
        for c in 0..ARRAY_COLS {
            g.pe_genes[ARRAY_COLS + c] = PeFunction::InvertW.gene();
        }
        // Row 1 west input also selects the window centre by default.
        let mut a0 = ProcessingArray::new(g.clone());
        let w = Window3x3([0, 0, 0, 0, 100, 0, 0, 0, 0]);
        assert_eq!(a0.evaluate_window(&w), 100);
        let mut g1 = g.clone();
        g1.output_gene = 1;
        a0.set_genotype(g1);
        // Four cascaded inversions of 100: 155, 100, 155, 100 → row 1 output
        // after 4 PEs each inverting its west input.
        assert_eq!(a0.evaluate_window(&w), 100);
        // With a single inversion in the row the parity flips.
        let mut g2 = g;
        for c in 1..ARRAY_COLS {
            g2.pe_genes[ARRAY_COLS + c] = PeFunction::IdentityW.gene();
        }
        g2.output_gene = 1;
        let a2 = ProcessingArray::new(g2);
        assert_eq!(a2.evaluate_window(&w), 155);
    }

    #[test]
    fn min_max_genotypes_bound_identity() {
        // A first-column Min PE fed with centre (west) and a neighbour (north)
        // never exceeds the identity output.
        let mut gmin = Genotype::identity();
        gmin.pe_genes[0] = PeFunction::Min.gene();
        gmin.input_genes[0] = 0; // north input of column 0: NW pixel
        let amin = ProcessingArray::new(gmin);
        let img = synth::shapes(24, 24, 3);
        let out = amin.filter_image(&img);
        for (o, i) in out.pixels().zip(img.pixels()) {
            assert!(o <= i);
        }
    }

    #[test]
    fn parallel_filtering_matches_sequential() {
        let mut rng = StdRng::seed_from_u64(9);
        let img = synth::shapes(47, 31, 4); // deliberately odd dimensions
        for _ in 0..5 {
            let array = ProcessingArray::new(Genotype::random(&mut rng));
            let seq = array.filter_image(&img);
            for threads in [1, 2, 3, 4, 8] {
                assert_eq!(array.filter_image_parallel(&img, threads), seq);
            }
        }
    }

    #[test]
    fn parallel_filtering_with_more_threads_than_rows() {
        let array = ProcessingArray::identity();
        let img = synth::gradient(8, 3);
        assert_eq!(array.filter_image_parallel(&img, 64), img);
    }

    #[test]
    fn fault_changes_output_and_is_clearable() {
        let img = synth::shapes(32, 32, 3);
        let mut array = ProcessingArray::identity();
        let clean = array.filter_image(&img);

        // A fault outside the active data path (row 3 never feeds row 0's
        // output) must not change the result.
        array.inject_fault(3, 3, FaultBehaviour::dummy());
        assert_eq!(array.filter_image(&img), clean);
        array.clear_all_faults();

        // A fault on the output path corrupts the image.
        array.inject_fault(0, ARRAY_COLS - 1, FaultBehaviour::dummy());
        assert!(array.has_faults());
        let faulty = array.filter_image(&img);
        assert_ne!(faulty, clean);

        array.clear_fault(0, ARRAY_COLS - 1);
        assert!(!array.has_faults());
        assert_eq!(array.filter_image(&img), clean);
    }

    #[test]
    fn faults_survive_reconfiguration() {
        let img = synth::shapes(16, 16, 2);
        let mut array = ProcessingArray::identity();
        array.inject_fault(0, 1, FaultBehaviour::StuckAt { value: 0 });
        let mut rng = StdRng::seed_from_u64(3);
        array.set_genotype(Genotype::random(&mut rng));
        assert!(array.has_faults());
        assert_eq!(array.faulty_positions(), vec![(0, 1)]);
        // The faulty array generally differs from a fault-free copy with the
        // same genotype.
        let clean = ProcessingArray::new(array.genotype().clone());
        // (They may coincide for genotypes that never route through (0,1); use
        // a genotype that certainly does: all IdentityW on row 0.)
        let mut g = Genotype::identity();
        g.output_gene = 0;
        array.set_genotype(g.clone());
        let clean = {
            let mut c = clean;
            c.set_genotype(g);
            c
        };
        assert_ne!(array.filter_image(&img), clean.filter_image(&img));
    }

    #[test]
    fn patched_plan_tracks_fresh_compile_across_mutation_and_faults() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut array = ProcessingArray::identity();
        let mut previous = array.genotype().clone();
        for step in 0..40 {
            // Interleave genotype changes with overlay edits.
            match step % 4 {
                0 | 1 => {
                    let next = array.genotype().mutated(3, &mut rng);
                    let expected_diff = next.diff_from(array.genotype());
                    let before = *array.plan();
                    previous = array.genotype().clone();
                    array.set_genotype(next.clone());
                    assert_eq!(array.last_gene_diff(), &expected_diff);
                    assert_eq!(array.parent_plan(), &before);
                    assert_eq!(array.genotype(), &next);
                }
                2 => array.inject_fault(step % ARRAY_ROWS, (step / 3) % ARRAY_COLS, {
                    FaultBehaviour::StuckAt { value: step as u8 }
                }),
                _ => {
                    if let Some(&(r, c)) = array.faulty_positions().first() {
                        array.clear_fault(r, c);
                    }
                }
            }
            // The patched plan must equal a from-scratch compile of the
            // current genotype under the current overlay, and the tracked
            // parent plan a from-scratch compile of the previous genotype.
            assert_eq!(array.plan(), &array.compile_with(&array.genotype().clone()));
            assert_eq!(array.parent_plan(), &array.compile_with(&previous));
        }
        array.clear_all_faults();
        assert!(!array.has_faults());
        assert_eq!(array.plan(), &array.compile_with(&array.genotype().clone()));
    }

    #[test]
    fn fitness_is_zero_against_own_output() {
        let mut rng = StdRng::seed_from_u64(5);
        let array = ProcessingArray::new(Genotype::random(&mut rng));
        let img = synth::shapes(32, 32, 4);
        let out = array.filter_image(&img);
        assert_eq!(mae(&array.filter_image(&img), &out), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn fault_injection_out_of_range_panics() {
        let mut array = ProcessingArray::identity();
        array.inject_fault(4, 0, FaultBehaviour::dummy());
    }

    #[test]
    fn stuck_at_fault_forces_constant_output() {
        let mut array = ProcessingArray::identity();
        array.inject_fault(0, ARRAY_COLS - 1, FaultBehaviour::StuckAt { value: 7 });
        let img = synth::gradient(16, 16);
        assert!(array.filter_image(&img).pixels().all(|p| p == 7));
    }
}
