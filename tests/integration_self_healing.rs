//! Cross-crate integration tests for the self-healing strategies of §V:
//! fault classification by scrubbing, bypass + imitation recovery in cascaded
//! mode, and TMR surveillance in parallel mode.

use ehw_evolution::strategy::EsConfig;
use ehw_fabric::fault::FaultKind;
use ehw_image::metrics::mae;
use ehw_image::noise::salt_pepper;
use ehw_image::synth;
use ehw_platform::evo_modes::EvolutionTask;
use ehw_platform::jobs::{execute, JobSpec};
use ehw_platform::platform::EhwPlatform;
use ehw_platform::self_healing::{
    CascadedSelfHealing, HealingOutcome, RecoveryConfig, RecoveryMethod, TmrSupervisor,
};
use ehw_platform::voter::FitnessVote;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Evolves a working denoising filter and configures it in every array.
fn evolved_platform(arrays: usize, seed: u64) -> (EhwPlatform, EvolutionTask) {
    let clean = synth::shapes(32, 32, 4);
    let mut rng = StdRng::seed_from_u64(seed);
    let noisy = salt_pepper(&clean, 0.3, &mut rng);
    let spec = JobSpec::evolution(noisy.clone(), clean.clone())
        .num_arrays(arrays)
        .generations(80)
        .build()
        .expect("valid spec");
    let mut platform = EhwPlatform::new(arrays);
    let _ = execute(&mut platform, &spec, seed);
    (platform, EvolutionTask::new(noisy, clean))
}

/// The PE that is guaranteed to sit on the active data path of the
/// configured circuit (last column of the selected output row).
fn critical_pe(platform: &EhwPlatform, array: usize) -> (usize, usize) {
    (
        platform.acb(array).genotype().output_gene as usize,
        ehw_array::genotype::ARRAY_COLS - 1,
    )
}

#[test]
fn full_cascaded_self_healing_cycle_with_lost_reference() {
    // §V.A end to end: calibrate → inject permanent fault → detect → scrub →
    // classify as permanent → bypass → recover by imitation → resume.
    let (mut platform, task) = evolved_platform(3, 1);
    let mut supervisor = CascadedSelfHealing::calibrate(&platform, task.input.clone());

    let (row, col) = critical_pe(&platform, 1);
    platform.inject_pe_fault(1, row, col, FaultKind::Lpd);
    assert!(supervisor.deviations(&platform)[1] > 0);

    // The reference image is "lost": recovery must go through imitation.
    let recovery = RecoveryConfig {
        es: EsConfig {
            target_fitness: Some(0),
            ..EsConfig::paper(1, 1, 150, 7)
        },
        reference: None,
    };
    let events = supervisor.check_and_heal(&mut platform, &recovery);

    assert_eq!(events[0].outcome, HealingOutcome::NoFaultDetected);
    assert_eq!(events[2].outcome, HealingOutcome::NoFaultDetected);
    match events[1].outcome {
        HealingOutcome::PermanentRecovered {
            method: RecoveryMethod::Imitation { .. },
            residual_fitness,
        } => {
            // The apprentice starts from the master genotype, so recovery can
            // never leave it worse than the damaged state it was detected in.
            let damaged_fitness = supervisor.deviations(&platform)[1];
            assert!(residual_fitness >= damaged_fitness || damaged_fitness == 0);
        }
        other => panic!("expected imitation recovery, got {other:?}"),
    }

    // The platform keeps processing with the chain intact (no bypass left).
    assert!((0..3).all(|i| !platform.acb(i).is_bypassed()));
    // A further check pass reports a healthy platform.
    let again = supervisor.check_and_heal(&mut platform, &recovery);
    assert!(again
        .iter()
        .all(|e| e.outcome == HealingOutcome::NoFaultDetected));
}

#[test]
fn transient_faults_never_trigger_re_evolution() {
    let (mut platform, task) = evolved_platform(3, 3);
    let mut supervisor = CascadedSelfHealing::calibrate(&platform, task.input.clone());

    for array in 0..3 {
        let (row, col) = critical_pe(&platform, array);
        platform.inject_pe_fault(array, row, col, FaultKind::Seu);
    }
    let evaluations_before = platform.reconfig_stats().pe_reconfigurations;
    let recovery = RecoveryConfig {
        es: EsConfig::paper(1, 1, 50, 11),
        reference: None,
    };
    let events = supervisor.check_and_heal(&mut platform, &recovery);
    assert!(events
        .iter()
        .all(|e| e.outcome == HealingOutcome::TransientScrubbed));
    // Scrubbing rewrites frames but evolves nothing: no new PE
    // reconfigurations were requested by an evolutionary run.
    assert_eq!(
        platform.reconfig_stats().pe_reconfigurations,
        evaluations_before
    );
}

#[test]
fn tmr_keeps_the_output_stream_valid_under_a_single_fault() {
    // §V.B: the pixel voter masks the fault while the fitness voter diagnoses
    // the damaged array — the availability argument of the paper.
    let (mut platform, task) = evolved_platform(3, 5);
    let reference = platform.acb(0).raw_output(&task.input);
    let supervisor = TmrSupervisor::new(0);

    let healthy_step = supervisor.process(&platform, &task.input, &reference);
    assert_eq!(healthy_step.vote, FitnessVote::Agreement);

    let (row, col) = critical_pe(&platform, 2);
    platform.inject_pe_fault(2, row, col, FaultKind::Lpd);
    let faulty_step = supervisor.process(&platform, &task.input, &reference);

    assert_eq!(faulty_step.faulty_array(), Some(2));
    // The voted output is unaffected by the single faulty array.
    assert_eq!(mae(&faulty_step.voted_output, &reference), 0);
    assert!(faulty_step.fitnesses[2] > faulty_step.fitnesses[0]);
}

#[test]
fn tmr_step_and_heal_restores_agreement_after_a_transient() {
    let (mut platform, task) = evolved_platform(3, 7);
    let reference = platform.acb(0).raw_output(&task.input);
    let supervisor = TmrSupervisor::new(0);

    let (row, col) = critical_pe(&platform, 0);
    platform.inject_pe_fault(0, row, col, FaultKind::Seu);

    let recovery = EsConfig::paper(1, 1, 30, 13);
    let (step, event) = supervisor.step_and_heal(&mut platform, &task.input, &reference, &recovery);
    assert_eq!(step.faulty_array(), Some(0));
    assert_eq!(
        event.expect("divergence detected").outcome,
        HealingOutcome::TransientScrubbed
    );

    let after = supervisor.process(&platform, &task.input, &reference);
    assert_eq!(after.vote, FitnessVote::Agreement);
    assert_eq!(after.disagreeing_pixels, 0);
}

#[test]
fn tmr_permanent_fault_recovery_keeps_the_voter_consistent() {
    let (mut platform, task) = evolved_platform(3, 9);
    let reference = platform.acb(0).raw_output(&task.input);
    // A tolerant threshold absorbs the residual fitness offset of a recovered
    // filter, as §V.B recommends.
    let supervisor = TmrSupervisor::new(500);

    let (row, col) = critical_pe(&platform, 1);
    platform.inject_pe_fault(1, row, col, FaultKind::Lpd);

    let recovery = EsConfig {
        target_fitness: Some(0),
        ..EsConfig::paper(1, 1, 120, 17)
    };
    let (_, event) = supervisor.step_and_heal(&mut platform, &task.input, &reference, &recovery);
    let outcome = event.expect("divergence detected").outcome;
    match outcome {
        HealingOutcome::PermanentRecovered {
            method: RecoveryMethod::Imitation { exact },
            ..
        } => {
            if exact {
                // An exact copy: the recovered array is functionally identical
                // to its healthy sibling on the mission stream.
                assert_eq!(
                    mae(
                        &platform.acb(1).raw_output(&task.input),
                        &platform.acb(0).raw_output(&task.input)
                    ),
                    0
                );
            } else {
                // §V.B step h: the recovered configuration was pasted into
                // every array, so the three copies hold the same genotype and
                // the voter remains meaningful.
                assert_eq!(platform.acb(0).genotype(), platform.acb(1).genotype());
                assert_eq!(platform.acb(0).genotype(), platform.acb(2).genotype());
            }
        }
        other => panic!("expected imitation recovery, got {other:?}"),
    }
}
