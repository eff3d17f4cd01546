//! Property-based tests (proptest) on the cross-crate invariants the platform
//! relies on: genotype encoding, array purity, voter correctness, metric
//! properties, reconfiguration-plan consistency and scrubbing behaviour.

use ehw_array::array::ProcessingArray;
use ehw_array::genotype::{Genotype, ARRAY_COLS, ARRAY_ROWS, INPUT_GENES, PE_GENES};
use ehw_array::latency::ArrayLatency;
use ehw_array::pe::{FaultBehaviour, PeFunction};
use ehw_array::reconfig_map::reconfig_plan;
use ehw_bench::oracle;
use ehw_fabric::fault::FaultKind;
use ehw_fabric::frame::{ConfigMemory, Frame, FrameAddress, FRAME_BYTES};
use ehw_fabric::scrub::Scrubber;
use ehw_image::image::GrayImage;
use ehw_image::metrics::{mae, max_abs_error, psnr};
use ehw_image::window::Window3x3;
use ehw_platform::voter::{FitnessVote, FitnessVoter, PixelVoter};
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

/// Strategy generating a small grayscale image with arbitrary content.
fn arb_image() -> impl Strategy<Value = GrayImage> {
    (4usize..24, 4usize..24).prop_flat_map(|(w, h)| {
        proptest::collection::vec(any::<u8>(), w * h)
            .prop_map(move |data| GrayImage::from_vec(w, h, data))
    })
}

/// Strategy generating a 3×3 window.
fn arb_window() -> impl Strategy<Value = Window3x3> {
    proptest::array::uniform9(any::<u8>()).prop_map(Window3x3)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ------------------------------------------------------------------
    // Genotype properties
    // ------------------------------------------------------------------

    #[test]
    fn genotype_encode_decode_round_trips(g in arb_genotype()) {
        let decoded = Genotype::decode(&g.encode()).expect("decode");
        prop_assert_eq!(decoded, g);
    }

    #[test]
    fn mutation_respects_rate_bound(g in arb_genotype(), rate in 0usize..8, seed in any::<u64>()) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let child = g.mutated(rate, &mut rng);
        prop_assert!(child.hamming_distance(&g) <= rate);
        prop_assert!(child.pe_reconfigurations_from(&g) <= rate);
        // Mutation always produces a valid genotype.
        prop_assert!(child.pe_genes.iter().all(|&x| x < 16));
        prop_assert!(child.input_genes.iter().all(|&x| x < 9));
        prop_assert!((child.output_gene as usize) < ARRAY_ROWS);
    }

    #[test]
    fn reconfig_plan_matches_hamming_structure(a in arb_genotype(), b in arb_genotype()) {
        let plan = reconfig_plan(0, &a, &b);
        prop_assert_eq!(plan.pe_count(), b.pe_reconfigurations_from(&a));
        prop_assert!(plan.pe_count() <= PE_GENES);
        prop_assert!(plan.register_writes <= INPUT_GENES + 1);
        // Applying the plan to `a` would produce exactly `b`'s PE genes.
        let mut patched = a.clone();
        for w in &plan.pe_writes {
            patched.pe_genes[w.row * ARRAY_COLS + w.col] = w.gene;
        }
        prop_assert_eq!(patched.pe_genes, b.pe_genes);
    }

    #[test]
    fn latency_is_bounded_and_monotone_in_output_row(g in arb_genotype()) {
        let latency = ArrayLatency::of(&g);
        prop_assert!(latency.pipeline_cycles >= ARRAY_COLS as u64);
        prop_assert!(latency.pipeline_cycles < (ARRAY_COLS + ARRAY_ROWS) as u64);
        let mut deeper = g.clone();
        deeper.output_gene = (ARRAY_ROWS - 1) as u8;
        prop_assert!(ArrayLatency::of(&deeper).total_cycles() >= latency.total_cycles());
    }

    // ------------------------------------------------------------------
    // Array behaviour
    // ------------------------------------------------------------------

    #[test]
    fn array_is_a_pure_function_of_genotype_and_window(g in arb_genotype(), w in arb_window()) {
        let array = ProcessingArray::new(g);
        prop_assert_eq!(array.evaluate_window(&w), array.evaluate_window(&w));
    }

    #[test]
    fn parallel_filtering_is_bit_exact(g in arb_genotype(), img in arb_image(), threads in 1usize..6) {
        let array = ProcessingArray::new(g);
        prop_assert_eq!(array.filter_image_parallel(&img, threads), array.filter_image(&img));
    }

    #[test]
    fn constant_windows_are_fixed_points_of_many_functions(v in any::<u8>()) {
        // For a uniform window every input mux yields `v`; pass-through,
        // min, max and average therefore return `v` as well.
        let w = Window3x3([v; 9]);
        for f in [PeFunction::IdentityW, PeFunction::IdentityN, PeFunction::Min, PeFunction::Max, PeFunction::Average] {
            prop_assert_eq!(f.apply(v, v), v);
        }
        prop_assert_eq!(oracle::median(&w), v);
        prop_assert_eq!(oracle::mean(&w), v);
    }

    #[test]
    fn faulty_array_stays_deterministic(g in arb_genotype(), img in arb_image()) {
        let mut array = ProcessingArray::new(g);
        array.inject_fault(0, ARRAY_COLS - 1, FaultBehaviour::dummy());
        prop_assert_eq!(array.filter_image(&img), array.filter_image(&img));
    }

    // ------------------------------------------------------------------
    // Metrics
    // ------------------------------------------------------------------

    #[test]
    fn mae_is_a_metric(a in arb_image()) {
        prop_assert_eq!(mae(&a, &a), 0);
        prop_assert!(psnr(&a, &a).is_infinite());
    }

    #[test]
    fn mae_symmetry_and_bounds(data in proptest::collection::vec(any::<(u8, u8)>(), 16..256)) {
        let n = data.len();
        let a = GrayImage::from_vec(n, 1, data.iter().map(|p| p.0).collect());
        let b = GrayImage::from_vec(n, 1, data.iter().map(|p| p.1).collect());
        prop_assert_eq!(mae(&a, &b), mae(&b, &a));
        prop_assert!(mae(&a, &b) <= 255 * n as u64);
        prop_assert!(max_abs_error(&a, &b) as u64 <= 255);
        // The aggregated MAE is at least the worst single-pixel error.
        prop_assert!(mae(&a, &b) >= max_abs_error(&a, &b) as u64);
    }

    // ------------------------------------------------------------------
    // Voters
    // ------------------------------------------------------------------

    #[test]
    fn pixel_voter_majority_property(img in arb_image(), corruption in any::<u8>()) {
        // Whatever a single array does, two healthy copies outvote it.
        let corrupted = img.map(|p| p.wrapping_add(corruption));
        let result = PixelVoter.vote([&img, &corrupted, &img]);
        prop_assert_eq!(result.image, img.clone());
        prop_assert_eq!(result.outvoted[0], 0);
        prop_assert_eq!(result.outvoted[2], 0);
    }

    #[test]
    fn fitness_voter_never_blames_an_agreeing_pair(f in any::<[u64; 3]>(), threshold in 0u64..1000) {
        let voter = FitnessVoter::new(threshold);
        match voter.vote(f) {
            FitnessVote::Divergent { array } => {
                // The two remaining arrays must agree within the threshold.
                let others: Vec<u64> = (0..3).filter(|&i| i != array).map(|i| f[i]).collect();
                prop_assert!(others[0].abs_diff(others[1]) <= threshold);
            }
            FitnessVote::Agreement | FitnessVote::NoMajority => {}
        }
    }

    // ------------------------------------------------------------------
    // Configuration memory and scrubbing
    // ------------------------------------------------------------------

    #[test]
    fn scrubbing_always_repairs_seu_and_never_repairs_lpd(
        bit in 0usize..(FRAME_BYTES * 8),
        payload in proptest::collection::vec(any::<u8>(), 1..FRAME_BYTES),
        kind in prop_oneof![Just(FaultKind::Seu), Just(FaultKind::Lpd)],
    ) {
        let addr = FrameAddress::new(0, 0, 0);
        let golden = Frame::from_bytes(&payload);
        let mut mem = ConfigMemory::new();
        let mut scrubber = Scrubber::new();
        mem.write_frame(addr, golden.clone());
        scrubber.record_golden(addr, golden.clone());

        mem.inject_fault(addr, bit, kind);
        scrubber.scrub_frame(&mut mem, addr);
        let repaired = mem.observed(addr) == golden;
        match kind {
            FaultKind::Seu => prop_assert!(repaired),
            FaultKind::Lpd => prop_assert!(!repaired),
        }
    }
}
