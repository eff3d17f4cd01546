//! Reference implementations the equivalence suites and benches compare the
//! production paths against.
//!
//! Each production shortcut was added next to a slow, obviously correct
//! version of the same computation and pinned to it byte for byte.  Those
//! versions live here, outside the platform crates, so production carries
//! one code path per computation:
//!
//! * [`interpret_window`] / [`interpret_filter_image`] — the per-pixel
//!   interpreter the compiled plans (`ehw_array::compiled::CompiledArray`)
//!   replace,
//! * [`gather_window`] — the AoS view of one window of the SoA
//!   [`WindowPlanes`],
//! * [`map_windows`], [`select`], [`median`], [`mean`] — whole-image and
//!   per-window helpers over the AoS [`Window3x3`],
//! * [`filter_kernel`] — the scalar per-window reference filters the
//!   plane-wise `ReferenceFilter::apply` replaces,
//! * [`Exhaustive`] — an evaluator that scores every candidate exactly and
//!   on its own, bypassing early exit and the phenotype memo,
//! * [`run_cascade`] — cascaded evolution that re-filters the whole chain
//!   from the source image for every candidate.

use std::cell::Cell;
use std::collections::BTreeMap;

use ehw_array::array::ProcessingArray;
use ehw_array::genotype::{Genotype, ARRAY_COLS, ARRAY_ROWS};
use ehw_array::pe::{FaultBehaviour, PeFunction, PE_FUNCTION_COUNT};
use ehw_evolution::fitness::{EngineStats, FitnessEvaluator};
use ehw_image::filters::ReferenceFilter;
use ehw_image::image::GrayImage;
use ehw_image::metrics::mae;
use ehw_image::window::{for_each_window_in_rows, Window3x3, WindowPlanes};
use ehw_platform::evo_modes::{CascadeConfig, CascadeInit, CascadeResult, EvolutionTask};
use ehw_platform::jobs::JobSpec;
use ehw_platform::modes::{CascadeFitness, CascadeSchedule};
use ehw_platform::platform::EhwPlatform;
use rand::rngs::StdRng;
use rand::SeedableRng;

// ---------------------------------------------------------------------------
// The reference interpreter
// ---------------------------------------------------------------------------

/// The original per-pixel interpreter: decodes the genotype's genes and
/// looks the fault overlay up in a `BTreeMap` for every window.
pub fn interpret_window(
    genotype: &Genotype,
    faults: &BTreeMap<(usize, usize), FaultBehaviour>,
    window: &Window3x3,
) -> u8 {
    // Array inputs after the 9-to-1 selection muxes: input genes 0–3 feed
    // the north side, 4–7 the west side.
    let mut north = [0u8; ARRAY_COLS];
    for (c, n) in north.iter_mut().enumerate() {
        *n = select(window, genotype.input_genes[c]);
    }
    let mut west = [0u8; ARRAY_ROWS];
    for (r, w) in west.iter_mut().enumerate() {
        *w = select(window, genotype.input_genes[ARRAY_COLS + r]);
    }

    // Systolic propagation: each PE consumes the output of its west and
    // north neighbours (or the corresponding array input on the first
    // column / row) and forwards its registered result east and south.
    let mut outputs = [[0u8; ARRAY_COLS]; ARRAY_ROWS];
    for r in 0..ARRAY_ROWS {
        for c in 0..ARRAY_COLS {
            let w_in = if c == 0 { west[r] } else { outputs[r][c - 1] };
            let n_in = if r == 0 { north[c] } else { outputs[r - 1][c] };
            let gene = genotype.pe_genes[r * ARRAY_COLS + c] as usize;
            let correct = PeFunction::ALL[gene % PE_FUNCTION_COUNT].apply(w_in, n_in);
            outputs[r][c] = match faults.get(&(r, c)) {
                Some(fault) => fault.corrupt(correct, w_in, n_in),
                None => correct,
            };
        }
    }

    let out_row = (genotype.output_gene as usize) % ARRAY_ROWS;
    outputs[out_row][ARRAY_COLS - 1]
}

/// Filters a whole image through the reference interpreter, extracting every
/// window with the clamped per-pixel builder.
pub fn interpret_filter_image(
    genotype: &Genotype,
    faults: &BTreeMap<(usize, usize), FaultBehaviour>,
    img: &GrayImage,
) -> GrayImage {
    GrayImage::from_fn(img.width(), img.height(), |x, y| {
        interpret_window(genotype, faults, &Window3x3::from_image(img, x, y))
    })
}

/// Gathers window `i` (raster order) of the SoA planes back into AoS form.
pub fn gather_window(planes: &WindowPlanes, i: usize) -> Window3x3 {
    Window3x3(std::array::from_fn(|sel| planes.plane(sel)[i]))
}

// ---------------------------------------------------------------------------
// AoS window helpers
// ---------------------------------------------------------------------------

/// Applies a per-window function over the whole image, producing a new image
/// of the same dimensions, in one streaming extraction pass.
pub fn map_windows(img: &GrayImage, mut f: impl FnMut(&Window3x3) -> u8) -> GrayImage {
    let mut data = Vec::with_capacity(img.len());
    for_each_window_in_rows(img, 0, img.height(), |_, _, w| data.push(f(w)));
    GrayImage::from_vec(img.width(), img.height(), data)
}

/// Selects one pixel of the window; `sel` is the 9-to-1 mux selector used by
/// the array inputs (0–8, row-major).  Selector values above 8 decode to the
/// centre pixel, mirroring the hardware's "safe" decode of out-of-range
/// register values.
pub fn select(w: &Window3x3, sel: u8) -> u8 {
    w.0.get(sel as usize)
        .copied()
        .unwrap_or(w.0[Window3x3::CENTER])
}

/// Median of the nine window pixels.
pub fn median(w: &Window3x3) -> u8 {
    let mut sorted = w.0;
    sorted.sort_unstable();
    sorted[4]
}

/// Integer mean of the nine window pixels (rounded towards zero, as a
/// hardware divider by 9 would after truncation).
pub fn mean(w: &Window3x3) -> u8 {
    (w.0.iter().map(|&p| p as u32).sum::<u32>() / 9) as u8
}

// ---------------------------------------------------------------------------
// Scalar reference filters
// ---------------------------------------------------------------------------

/// Applies `filter` to a single window: the per-pixel kernel the plane-wise
/// `ReferenceFilter::apply` reproduces.
pub fn filter_kernel(filter: ReferenceFilter, w: &Window3x3) -> u8 {
    let p = |i: usize| w.0[i] as i32;
    let center = w.0[Window3x3::CENTER];
    match filter {
        ReferenceFilter::Median => median(w),
        ReferenceFilter::Mean => mean(w),
        ReferenceFilter::Gaussian => gaussian_kernel(w),
        ReferenceFilter::SobelEdge => {
            // Horizontal and vertical Sobel gradients on the 3×3 window.
            let gx = (p(2) + 2 * p(5) + p(8)) - (p(0) + 2 * p(3) + p(6));
            let gy = (p(6) + 2 * p(7) + p(8)) - (p(0) + 2 * p(1) + p(2));
            (gx.abs() + gy.abs()).min(255) as u8
        }
        ReferenceFilter::Laplacian => {
            let lap = 4 * p(4) - p(1) - p(3) - p(5) - p(7);
            lap.unsigned_abs().min(255) as u8
        }
        ReferenceFilter::Erode => *w.0.iter().min().expect("window is non-empty"),
        ReferenceFilter::Dilate => *w.0.iter().max().expect("window is non-empty"),
        ReferenceFilter::Sharpen => {
            let c = center as i32;
            (c + (c - gaussian_kernel(w) as i32)).clamp(0, 255) as u8
        }
        ReferenceFilter::Identity => center,
    }
}

/// 1 2 1 / 2 4 2 / 1 2 1 Gaussian, normalised by 16 with rounding.
fn gaussian_kernel(w: &Window3x3) -> u8 {
    const K: [u32; 9] = [1, 2, 1, 2, 4, 2, 1, 2, 1];
    let sum: u32 = w.0.iter().zip(K.iter()).map(|(&p, &k)| p as u32 * k).sum();
    ((sum + 8) / 16) as u8
}

// ---------------------------------------------------------------------------
// Exhaustive candidate evaluation
// ---------------------------------------------------------------------------

/// Wraps an evaluator so every candidate of every batch is scored exactly,
/// one at a time, through [`FitnessEvaluator::evaluate`] (the trait's
/// default batch path): no early-exit bound, no incumbent, no memo and none
/// of the wrapped evaluator's batch shortcuts.  An evolution run
/// through this wrapper is the exhaustive baseline the bounded, memoised
/// trajectory must reproduce byte for byte.
#[derive(Debug, Clone)]
pub struct Exhaustive<E>(pub E);

impl<E: FitnessEvaluator> FitnessEvaluator for Exhaustive<E> {
    fn evaluate(&mut self, genotype: &Genotype) -> u64 {
        self.0.evaluate(genotype)
    }

    fn evaluations(&self) -> u64 {
        self.0.evaluations()
    }
}

// ---------------------------------------------------------------------------
// Naive cascaded evolution
// ---------------------------------------------------------------------------

/// Runs a cascade job spec on `platform` by per-candidate chain
/// refiltering, with `seed` in place of the spec's configured seed, as
/// `ehw_platform::jobs::execute` does.
///
/// Every candidate clones interpreter arrays and re-filters the full chain
/// from the source image.  The run draws the same random numbers in the same
/// order as the compiled engine of `execute`, so the two agree on the stage
/// genotypes, the per-stage chain fitness and the evaluation count, and
/// configure the same circuits into the platform.  It takes no shortcuts, so
/// its [`EngineStats`] are all zero.
///
/// # Panics
/// Panics if `spec` is not a cascade spec.
pub fn run_cascade(platform: &mut EhwPlatform, spec: &JobSpec, seed: u64) -> CascadeResult {
    let JobSpec::Cascade(cascade) = spec else {
        panic!(
            "the naive cascade oracle runs cascade specs, not {}",
            spec.kind()
        );
    };
    let config = CascadeConfig {
        seed,
        ..*cascade.config()
    };
    evolve_cascade_naive(platform, cascade.task(), &config)
}

/// The naive cascaded evolution behind [`run_cascade`].
fn evolve_cascade_naive(
    platform: &mut EhwPlatform,
    task: &EvolutionTask,
    config: &CascadeConfig,
) -> CascadeResult {
    let stages = platform.num_arrays();
    let arrays: Vec<ProcessingArray> = (0..stages)
        .map(|i| platform.acb(i).array().clone())
        .collect();
    let mut rng = StdRng::seed_from_u64(config.seed);

    // Current parent (and its fitness) per stage.
    let mut parents: Vec<Genotype> = initial_parents(stages, config.init, &mut rng);
    let mut parent_fitness: Vec<u64> = vec![u64::MAX; stages];
    let evaluations = Cell::new(0u64);

    // Evaluates the candidate for `stage`, honouring the fitness arrangement:
    // separate fitness scores the stage's own output; merged fitness scores
    // the output at the end of the chain (later stages use their current
    // parents).
    let evaluate = |stage: usize, candidate: &Genotype, parents: &[Genotype]| -> u64 {
        evaluations.set(evaluations.get() + 1);
        let stage_input = filter_chain(&arrays, parents, stage, &task.input);
        let mut array = arrays[stage].clone();
        array.set_genotype(candidate.clone());
        let stage_output = array.filter_image(&stage_input);
        match config.fitness {
            CascadeFitness::Separate => mae(&stage_output, &task.reference),
            CascadeFitness::Merged => {
                let mut stream = stage_output;
                for s in stage + 1..stages {
                    let mut downstream = arrays[s].clone();
                    downstream.set_genotype(parents[s].clone());
                    stream = downstream.filter_image(&stream);
                }
                mae(&stream, &task.reference)
            }
        }
    };

    drive_schedule(config.schedule, stages, config.generations, |stage| {
        // Re-evaluate the parent: in interleaved scheduling the upstream
        // stages may have changed since this stage was last visited, which
        // changes the input (and therefore the fitness) of its parent.
        parent_fitness[stage] = evaluate(stage, &parents[stage], &parents);
        let mut best_child: Option<(Genotype, u64)> = None;
        for _ in 0..config.offspring {
            let child = parents[stage].mutated(config.mutation_rate, &mut rng);
            let fitness = evaluate(stage, &child, &parents);
            if best_child.as_ref().is_none_or(|(_, f)| fitness < *f) {
                best_child = Some((child, fitness));
            }
        }
        if let Some((child, fitness)) = best_child {
            if fitness <= parent_fitness[stage] {
                parents[stage] = child;
                parent_fitness[stage] = fitness;
            }
        }
    });

    for (stage, genotype) in parents.iter().enumerate() {
        platform.configure_array(stage, genotype);
    }
    let stage_fitness = platform.chain_fitness(&task.input, &task.reference);
    CascadeResult {
        stage_genotypes: parents,
        stage_fitness,
        evaluations: evaluations.get(),
        stats: EngineStats::default(),
    }
}

/// The task input filtered through stages `0..upto` with the given genotypes.
fn filter_chain(
    arrays: &[ProcessingArray],
    genotypes: &[Genotype],
    upto: usize,
    input: &GrayImage,
) -> GrayImage {
    let mut stream = input.clone();
    for s in 0..upto {
        let mut array = arrays[s].clone();
        array.set_genotype(genotypes[s].clone());
        stream = array.filter_image(&stream);
    }
    stream
}

/// Sequential scheduling exhausts each stage's generation budget before
/// moving on; interleaved scheduling gives every stage one generation per
/// round.  `step(stage)` runs one generation.
fn drive_schedule(
    schedule: CascadeSchedule,
    stages: usize,
    generations: usize,
    mut step: impl FnMut(usize),
) {
    match schedule {
        CascadeSchedule::Sequential => {
            for stage in 0..stages {
                for _ in 0..generations {
                    step(stage);
                }
            }
        }
        CascadeSchedule::Interleaved => {
            for _ in 0..generations {
                for stage in 0..stages {
                    step(stage);
                }
            }
        }
    }
}

/// Each stage's first parent, drawn in stage order from the run's RNG.
fn initial_parents(stages: usize, init: CascadeInit, rng: &mut StdRng) -> Vec<Genotype> {
    (0..stages)
        .map(|_| match init {
            CascadeInit::Identity => Genotype::identity(),
            CascadeInit::Random => Genotype::random(rng),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_image() -> GrayImage {
        // 0  1  2  3
        // 4  5  6  7
        // 8  9 10 11
        GrayImage::from_fn(4, 3, |x, y| (y * 4 + x) as u8)
    }

    #[test]
    fn select_mux_behaviour() {
        let img = test_image();
        let w = Window3x3::from_image(&img, 1, 1);
        for sel in 0..9u8 {
            assert_eq!(select(&w, sel), w.0[sel as usize]);
        }
        // Out-of-range selectors decode to the centre pixel.
        assert_eq!(select(&w, 9), w.0[Window3x3::CENTER]);
        assert_eq!(select(&w, 255), w.0[Window3x3::CENTER]);
    }

    #[test]
    fn window_statistics() {
        let w = Window3x3([9, 1, 8, 2, 7, 3, 6, 4, 5]);
        assert_eq!(median(&w), 5);
        assert_eq!(mean(&w), 5);
    }

    #[test]
    fn map_windows_identity_on_center() {
        let img = test_image();
        let out = map_windows(&img, |w| w.0[Window3x3::CENTER]);
        assert_eq!(out, img);
    }

    #[test]
    fn map_windows_constant() {
        let img = test_image();
        let out = map_windows(&img, |_| 42);
        assert!(out.pixels().all(|p| p == 42));
        assert_eq!(out.width(), img.width());
        assert_eq!(out.height(), img.height());
    }
}
