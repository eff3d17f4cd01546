//! Property suite pinning the compiled evaluation engine to the reference
//! implementations of `ehw_bench::oracle`: the plan must be bit-identical to
//! the interpreter for random genotype × fault-overlay × image triples, the
//! plane-routed reference filters to their scalar kernels, bounded fitness
//! must equal unbounded fitness whenever the bound is not hit, plans with
//! equal phenotype keys must compute equal outputs, and a whole evolution
//! run must be byte-identical to exhaustive scoring, at any worker count.

use std::collections::BTreeMap;

use ehw_array::array::ProcessingArray;
use ehw_array::compiled::CompiledArray;
use ehw_array::genotype::{Genotype, ARRAY_COLS, ARRAY_ROWS};
use ehw_array::pe::{FaultBehaviour, PeFunction};
use ehw_bench::oracle::{
    filter_kernel, gather_window, interpret_filter_image, interpret_window, map_windows, Exhaustive,
};
use ehw_evolution::fitness::{plan_mae, plan_mae_bounded, SoftwareEvaluator};
use ehw_evolution::strategy::{run_evolution, EsConfig, NullObserver};
use ehw_image::filters::ReferenceFilter;
use ehw_image::image::GrayImage;
use ehw_image::metrics::mae;
use ehw_image::synth;
use ehw_image::window::{SharedWindows, Window3x3, WindowPlanes};
use ehw_parallel::ParallelConfig;
use proptest::prelude::*;

/// Strategy generating an arbitrary (always valid) genotype.
fn arb_genotype() -> impl Strategy<Value = Genotype> {
    (
        proptest::array::uniform16(0u8..16),
        proptest::array::uniform8(0u8..9),
        0u8..ARRAY_ROWS as u8,
    )
        .prop_map(|(pe_genes, input_genes, output_gene)| Genotype {
            pe_genes,
            input_genes,
            output_gene,
        })
}

/// Strategy generating one fault behaviour.
fn arb_fault() -> impl Strategy<Value = FaultBehaviour> {
    prop_oneof![
        any::<u64>().prop_map(|seed| FaultBehaviour::RandomOutput { seed }),
        any::<u8>().prop_map(|value| FaultBehaviour::StuckAt { value }),
        Just(FaultBehaviour::InvertedOutput),
    ]
}

/// Strategy generating one overlay edit: inject a behaviour or clear.
fn arb_fault_edit() -> impl Strategy<Value = Option<FaultBehaviour>> {
    prop_oneof![Just(None), arb_fault().prop_map(Some)]
}

/// Strategy generating a fault overlay of up to six damaged PEs.
fn arb_overlay() -> impl Strategy<Value = BTreeMap<(usize, usize), FaultBehaviour>> {
    proptest::collection::vec((0usize..ARRAY_ROWS, 0usize..ARRAY_COLS, arb_fault()), 0..6)
        .prop_map(|faults| faults.into_iter().map(|(r, c, b)| ((r, c), b)).collect())
}

/// Strategy generating a small grayscale image with arbitrary content.
fn arb_image() -> impl Strategy<Value = GrayImage> {
    arb_image_sized(3..20, 3..20)
}

/// Strategy generating an image with arbitrary content whose width and
/// height are drawn from the given ranges.
fn arb_image_sized(
    width: std::ops::Range<usize>,
    height: std::ops::Range<usize>,
) -> impl Strategy<Value = GrayImage> {
    (width, height).prop_flat_map(|(w, h)| {
        proptest::collection::vec(any::<u8>(), w * h)
            .prop_map(move |data| GrayImage::from_vec(w, h, data))
    })
}

/// Strategy generating a fault overlay that, besides up to six arbitrary
/// faults, may damage the output PE and may damage a PE below the output
/// row (which can never reach the output), so the lane kernel's handling of
/// both positions is exercised.
fn arb_genotype_and_faulty_overlay(
) -> impl Strategy<Value = (Genotype, BTreeMap<(usize, usize), FaultBehaviour>)> {
    (
        arb_genotype(),
        arb_overlay(),
        (any::<bool>(), arb_fault()),
        (
            any::<bool>(),
            0usize..ARRAY_ROWS,
            0usize..ARRAY_COLS,
            arb_fault(),
        ),
    )
        .prop_map(
            |(g, mut overlay, (on_output, output_fault), (below, dr, col, fault))| {
                let out_row = g.output_gene as usize % ARRAY_ROWS;
                if on_output {
                    overlay.insert((out_row, ARRAY_COLS - 1), output_fault);
                }
                let row = out_row + 1 + dr;
                if below && row < ARRAY_ROWS {
                    overlay.insert((row, col), fault);
                }
                (g, overlay)
            },
        )
}

fn compile(g: &Genotype, overlay: &BTreeMap<(usize, usize), FaultBehaviour>) -> CompiledArray {
    CompiledArray::with_faults(g, overlay.iter().map(|(&p, &b)| (p, b)))
}

/// Writes one flat-ordered gene (PE genes, then input genes, then the output
/// gene), clamping the value into the gene's valid range.
fn set_flat_gene(g: &mut Genotype, index: usize, value: u8) {
    if index < 16 {
        g.pe_genes[index] = value % 16;
    } else if index < 24 {
        g.input_genes[index - 16] = value % 9;
    } else {
        g.output_gene = value % ARRAY_ROWS as u8;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // ------------------------------------------------------------------
    // Plan == interpreter
    // ------------------------------------------------------------------

    #[test]
    fn compiled_plan_matches_interpreter_per_window(
        g in arb_genotype(),
        overlay in arb_overlay(),
        window in proptest::array::uniform9(any::<u8>()).prop_map(Window3x3),
    ) {
        let plan = compile(&g, &overlay);
        prop_assert_eq!(plan.evaluate_window(&window), interpret_window(&g, &overlay, &window));
    }

    #[test]
    fn compiled_plan_matches_interpreter_per_image(
        g in arb_genotype(),
        overlay in arb_overlay(),
        img in arb_image(),
    ) {
        let plan = compile(&g, &overlay);
        prop_assert_eq!(plan.filter_image(&img), interpret_filter_image(&g, &overlay, &img));
    }

    #[test]
    fn processing_array_matches_interpreter(
        g in arb_genotype(),
        overlay in arb_overlay(),
        img in arb_image(),
    ) {
        // The array type itself (the thing every platform path goes through)
        // must agree with the interpreter too — it delegates to its plan.
        let mut array = ProcessingArray::new(g.clone());
        for (&(r, c), &b) in &overlay {
            array.inject_fault(r, c, b);
        }
        prop_assert_eq!(array.filter_image(&img), interpret_filter_image(&g, &overlay, &img));
    }

    #[test]
    fn block_evaluation_matches_scalar(
        g in arb_genotype(),
        overlay in arb_overlay(),
        img in arb_image(),
    ) {
        let plan = compile(&g, &overlay);
        let windows = SharedWindows::new(&img);
        let mut block = vec![0u8; windows.len()];
        plan.evaluate_planes_into(windows.planes(), 0, &mut block);
        for (k, &lane) in block.iter().enumerate() {
            prop_assert_eq!(lane, plan.evaluate_window(&gather_window(windows.planes(), k)));
        }
    }

    #[test]
    fn plane_layout_matches_aos_layout(
        g in arb_genotype(),
        overlay in arb_overlay(),
        img in arb_image(),
    ) {
        // The SoA plane path must be byte-identical to the AoS gather path —
        // same plan, same windows, only the memory layout differs.
        let plan = compile(&g, &overlay);
        let windows = SharedWindows::new(&img);
        let aos: Vec<Window3x3> =
            (0..windows.len()).map(|k| gather_window(windows.planes(), k)).collect();
        let mut from_aos = vec![0u8; aos.len()];
        plan.evaluate_windows_into(&aos, &mut from_aos);
        let mut from_planes = vec![0u8; aos.len()];
        plan.evaluate_planes_into(windows.planes(), 0, &mut from_planes);
        prop_assert_eq!(from_aos, from_planes);
    }

    #[test]
    fn block_ranges_crossing_block_edges_match_interpreter(
        circuit in arb_genotype_and_faulty_overlay(),
        img in arb_image_sized(24..40, 12..20),
        start in 0usize..150,
        len in 1usize..131,
    ) {
        // Ranges start anywhere and run up to two block edges past it, so
        // the lane kernel sees full blocks, ragged heads and ragged tails;
        // the image has at least 288 windows, so every range fits.
        let (g, overlay) = circuit;
        let plan = compile(&g, &overlay);
        let windows = SharedWindows::new(&img);
        let expected: Vec<u8> = (start..start + len)
            .map(|k| interpret_window(&g, &overlay, &gather_window(windows.planes(), k)))
            .collect();
        let mut from_planes = vec![0u8; len];
        plan.evaluate_planes_into(windows.planes(), start, &mut from_planes);
        prop_assert_eq!(&from_planes, &expected);
        let aos: Vec<Window3x3> =
            (start..start + len).map(|k| gather_window(windows.planes(), k)).collect();
        let mut from_aos = vec![0u8; len];
        plan.evaluate_windows_into(&aos, &mut from_aos);
        prop_assert_eq!(&from_aos, &expected);
    }

    // ------------------------------------------------------------------
    // Patched plans == fresh compiles
    // ------------------------------------------------------------------

    #[test]
    fn patched_plan_matches_fresh_compile(
        parent in arb_genotype(),
        edits in proptest::collection::vec((0usize..25, any::<u8>()), 0..6),
        overlay in arb_overlay(),
    ) {
        // Re-deriving a child's plan from the parent's by rewriting only the
        // mutated genes must be byte-identical to compiling the child from
        // scratch under the same fault overlay.
        let mut child = parent.clone();
        for &(index, value) in &edits {
            set_flat_gene(&mut child, index, value);
        }
        let parent_plan = compile(&parent, &overlay);
        let patched = parent_plan.patch(&child.diff_from(&parent));
        prop_assert_eq!(patched, compile(&child, &overlay));
    }

    #[test]
    fn fault_patched_plan_matches_fresh_compile(
        g in arb_genotype(),
        overlay in arb_overlay(),
        edits in proptest::collection::vec(
            (0usize..ARRAY_ROWS, 0usize..ARRAY_COLS, arb_fault_edit()),
            0..6,
        ),
    ) {
        // Overlay edits patched one position at a time must track a fresh
        // compile against the accumulated overlay.
        let mut map = overlay.clone();
        let mut plan = compile(&g, &overlay);
        for (row, col, behaviour) in edits {
            match behaviour {
                Some(b) => {
                    map.insert((row, col), b);
                }
                None => {
                    map.remove(&(row, col));
                }
            }
            plan = plan.patch_fault(row, col, behaviour);
            prop_assert_eq!(plan, compile(&g, &map));
        }
    }

    // ------------------------------------------------------------------
    // Bounded == unbounded fitness
    // ------------------------------------------------------------------

    #[test]
    fn plan_mae_matches_filter_then_mae(
        g in arb_genotype(),
        overlay in arb_overlay(),
        input in arb_image(),
    ) {
        let plan = compile(&g, &overlay);
        let windows = SharedWindows::new(&input);
        let reference = interpret_filter_image(&Genotype::identity(), &BTreeMap::new(), &input);
        prop_assert_eq!(
            plan_mae(&plan, &windows, &reference),
            mae(&plan.filter_image(&input), &reference)
        );
    }

    #[test]
    fn bounded_fitness_is_exact_iff_under_the_bound(
        g in arb_genotype(),
        overlay in arb_overlay(),
        input in arb_image(),
        bound in 0u64..5_000,
    ) {
        let plan = compile(&g, &overlay);
        let windows = SharedWindows::new(&input);
        let reference = GrayImage::new(input.width(), input.height(), 128);
        let exact = plan_mae(&plan, &windows, &reference);
        let (bounded, exited) = plan_mae_bounded(&plan, &windows, &reference, Some(bound));
        if exact <= bound {
            prop_assert_eq!(bounded, exact, "bound not hit: values must agree");
            prop_assert!(!exited);
        } else {
            prop_assert!(exited);
            prop_assert!(bounded > bound, "early exit must report above the bound");
            prop_assert!(bounded <= exact, "partial sum cannot exceed the exact MAE");
        }
    }

    #[test]
    fn early_exit_sum_is_the_naive_prefix_at_the_exit_block(
        circuit in arb_genotype_and_faulty_overlay(),
        input in arb_image_sized(3..40, 3..30),
        bound in 0u64..40_000,
    ) {
        // The early-exit contract pinned exactly: accumulation stops at the
        // first block of `CompiledArray::BLOCK` windows after which the
        // running sum exceeds the bound, and reports that running sum.
        let (g, overlay) = circuit;
        let plan = compile(&g, &overlay);
        let windows = SharedWindows::new(&input);
        let reference = GrayImage::new(input.width(), input.height(), 128);
        let output = interpret_filter_image(&g, &overlay, &input);
        let mut expected = (0u64, false);
        for (o, r) in output
            .as_slice()
            .chunks(CompiledArray::BLOCK)
            .zip(reference.as_slice().chunks(CompiledArray::BLOCK))
        {
            expected.0 += o.iter().zip(r).map(|(&a, &b)| u64::from(a.abs_diff(b))).sum::<u64>();
            if expected.0 > bound {
                expected.1 = true;
                break;
            }
        }
        prop_assert_eq!(plan_mae_bounded(&plan, &windows, &reference, Some(bound)), expected);
    }

    // ------------------------------------------------------------------
    // Evolution: bounded == exhaustive, at any worker count
    // ------------------------------------------------------------------

    #[test]
    fn evolution_is_identical_with_engine_on_or_off(
        seed in any::<u64>(),
        img_seed in 0u64..1_000,
    ) {
        let clean = ehw_image::synth::shapes(16, 16, 3);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(img_seed);
        let noisy = ehw_image::noise::salt_pepper(&clean, 0.3, &mut rng);
        let config = |workers: usize| EsConfig {
            parallel: ParallelConfig::with_workers(workers),
            ..EsConfig::paper(3, 1, 15, seed)
        };
        let evaluator = || SoftwareEvaluator::new(noisy.clone(), clean.clone());
        let reference = run_evolution(&config(1), &mut Exhaustive(evaluator()), &mut NullObserver);
        for workers in [1usize, 2, 8] {
            let r = run_evolution(&config(workers), &mut evaluator(), &mut NullObserver);
            prop_assert_eq!(r.best_genotype.encode(), reference.best_genotype.encode());
            prop_assert_eq!(r.best_fitness, reference.best_fitness);
            prop_assert_eq!(&r.history, &reference.history);
            prop_assert_eq!(r.evaluations, reference.evaluations);
            prop_assert_eq!(r.total_pe_reconfigurations, reference.total_pe_reconfigurations);
        }
    }
}

/// The flat genes (PE genes, input genes, output gene) a path to the array
/// output reads under `overlay`, found by walking the circuit forward from
/// the output PE: the reference the phenotype key's liveness is held to.
fn live_genes(g: &Genotype, overlay: &BTreeMap<(usize, usize), FaultBehaviour>) -> [bool; 25] {
    fn visit(
        g: &Genotype,
        overlay: &BTreeMap<(usize, usize), FaultBehaviour>,
        (r, c): (usize, usize),
        live: &mut [bool; 25],
    ) {
        let (reads_w, reads_n) = match overlay.get(&(r, c)) {
            Some(FaultBehaviour::StuckAt { .. }) => return,
            Some(FaultBehaviour::RandomOutput { .. }) => (true, true),
            _ => PeFunction::ALL[g.pe_genes[r * ARRAY_COLS + c] as usize % 16].reads(),
        };
        live[r * ARRAY_COLS + c] = true;
        if reads_w {
            match c {
                0 => live[16 + ARRAY_COLS + r] = true,
                _ => visit(g, overlay, (r, c - 1), live),
            }
        }
        if reads_n {
            match r {
                0 => live[16 + c] = true,
                _ => visit(g, overlay, (r - 1, c), live),
            }
        }
    }
    let mut live = [false; 25];
    live[24] = true;
    let out_row = g.output_gene as usize % ARRAY_ROWS;
    visit(g, overlay, (out_row, ARRAY_COLS - 1), &mut live);
    live
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // ------------------------------------------------------------------
    // Phenotype keys: equal keys mean equal circuits
    // ------------------------------------------------------------------

    #[test]
    fn equal_phenotypes_compute_identical_outputs(
        parent in arb_genotype(),
        overlay in arb_overlay(),
        edits in proptest::collection::vec((0usize..25, any::<u8>()), 0..7),
        img in arb_image(),
    ) {
        let mut child = parent.clone();
        for &(index, value) in &edits {
            set_flat_gene(&mut child, index, value);
        }
        let (a, b) = (compile(&parent, &overlay), compile(&child, &overlay));
        if a.phenotype() == b.phenotype() {
            let planes = WindowPlanes::new(&img);
            let mut out_a = vec![0u8; planes.len()];
            let mut out_b = vec![0u8; planes.len()];
            a.evaluate_planes_into(&planes, 0, &mut out_a);
            b.evaluate_planes_into(&planes, 0, &mut out_b);
            prop_assert_eq!(out_a, out_b);
        }
    }

    #[test]
    fn dead_gene_edits_never_change_the_phenotype(
        parent in arb_genotype(),
        overlay in arb_overlay(),
        edits in proptest::collection::vec((0usize..25, any::<u8>()), 1..7),
        img in arb_image(),
    ) {
        let live = live_genes(&parent, &overlay);
        let mut child = parent.clone();
        for &(index, value) in edits.iter().filter(|(index, _)| !live[*index]) {
            set_flat_gene(&mut child, index, value);
        }
        let (a, b) = (compile(&parent, &overlay), compile(&child, &overlay));
        prop_assert_eq!(a.phenotype(), b.phenotype());
        // And the walk agrees with the interpreter: dead genes are dead.
        prop_assert_eq!(
            interpret_filter_image(&parent, &overlay, &img),
            interpret_filter_image(&child, &overlay, &img)
        );
    }
}

// ----------------------------------------------------------------------
// Deterministic spot checks (non-property, fixed seeds)
// ----------------------------------------------------------------------

#[test]
fn engine_on_and_off_produce_identical_results() {
    // The headline contract of the compiled evaluation engine: early exit
    // and the per-generation memo are pure work-savers.  Same seed ⇒
    // byte-identical best genotype, history and counters as exhaustive
    // scoring, at any worker count.
    let denoise_evaluator = || {
        let clean = synth::shapes(24, 24, 4);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(4);
        let noisy = ehw_image::noise::salt_pepper(&clean, 0.3, &mut rng);
        SoftwareEvaluator::new(noisy, clean)
    };
    let reference = {
        let config = EsConfig {
            parallel: ParallelConfig::serial(),
            ..EsConfig::paper(3, 1, 60, 77)
        };
        let mut eval = Exhaustive(denoise_evaluator());
        run_evolution(&config, &mut eval, &mut NullObserver)
    };
    for workers in [1usize, 2, 8] {
        let config = EsConfig {
            parallel: ParallelConfig::with_workers(workers),
            ..EsConfig::paper(3, 1, 60, 77)
        };
        let mut eval = denoise_evaluator();
        let r = run_evolution(&config, &mut eval, &mut NullObserver);
        assert_eq!(r.best_genotype.encode(), reference.best_genotype.encode());
        assert_eq!(r.best_fitness, reference.best_fitness);
        assert_eq!(r.initial_fitness, reference.initial_fitness);
        assert_eq!(r.history, reference.history);
        assert_eq!(r.evaluations, reference.evaluations);
        assert_eq!(
            r.total_pe_reconfigurations,
            reference.total_pe_reconfigurations
        );
        // And the engine must actually have saved work.
        let stats = eval.engine_stats();
        assert!(
            stats.early_exits > 0 || stats.memo_hits > 0,
            "engine saved nothing: {stats:?}"
        );
    }
}

#[test]
fn kernel_and_apply_agree_for_all_filters() {
    // The plane-routed `apply` must be byte-identical to the scalar
    // per-window kernel, including at borders and degenerate shapes
    // (where every pixel is a border pixel).
    let shapes = [
        synth::shapes(32, 32, 3),
        synth::shapes(1, 1, 1),
        synth::shapes(1, 7, 1),
        synth::shapes(2, 2, 1),
        synth::shapes(5, 2, 1),
    ];
    for img in &shapes {
        let planes = WindowPlanes::new(img);
        for f in ReferenceFilter::ALL {
            let full = f.apply(img);
            let via_kernel = map_windows(img, |w| filter_kernel(f, w));
            assert_eq!(
                full,
                via_kernel,
                "filter {f:?} disagrees at {}x{}",
                img.width(),
                img.height()
            );
            assert_eq!(f.apply_planes(&planes), via_kernel, "planes {f:?}");
        }
    }
}
