//! Cross-crate integration tests for the evolution modes of §IV.B, exercising
//! the full path: image substrate → evolutionary strategy → platform
//! reconfiguration → fitness measurement.

use ehw_evolution::strategy::{EsConfig, MutationStrategy, NullObserver};
use ehw_image::filters;
use ehw_image::metrics::mae;
use ehw_image::noise::salt_pepper;
use ehw_image::synth;
use ehw_platform::evo_modes::{
    evolve_imitation, evolve_same_filter_cascade, EvolutionTask, ImitationStart,
};
use ehw_platform::jobs::{execute, EvolutionBuilder, JobSpec};
use ehw_platform::modes::CascadeSchedule;
use ehw_platform::platform::EhwPlatform;
use ehw_platform::timing::PipelineTimer;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn denoise_task(size: usize, density: f64, seed: u64) -> EvolutionTask {
    let clean = synth::shapes(size, size, 4);
    let mut rng = StdRng::seed_from_u64(seed);
    let noisy = salt_pepper(&clean, density, &mut rng);
    EvolutionTask::new(noisy, clean)
}

/// An evolution job over `task` with the offspring spread over every array
/// of `platform`.
fn evolution(platform: &EhwPlatform, task: &EvolutionTask) -> EvolutionBuilder {
    JobSpec::evolution(task.input.clone(), task.reference.clone()).num_arrays(platform.num_arrays())
}

#[test]
fn parallel_evolution_beats_identity_and_updates_platform() {
    let mut platform = EhwPlatform::paper_three_arrays();
    let task = denoise_task(32, 0.4, 1);
    let identity_fitness = mae(&task.input, &task.reference);

    let spec = evolution(&platform, &task)
        .generations(120)
        .build()
        .unwrap();
    let job = execute(&mut platform, &spec, 7);
    let (result, time) = job.as_evolution().expect("evolution job");

    assert!(result.best_fitness < identity_fitness);
    assert!(time.total_s > 0.0);
    assert_eq!(time.generations, 120);

    // The evolved circuit is configured in all three arrays and reproduces
    // the reported fitness when re-measured through the platform.
    let measured = mae(&platform.acb(0).raw_output(&task.input), &task.reference);
    assert_eq!(measured, result.best_fitness);
    for i in 1..3 {
        assert_eq!(platform.acb(i).genotype(), platform.acb(0).genotype());
    }
}

#[test]
fn three_arrays_reduce_modelled_evolution_time_at_equal_quality() {
    // The headline claim of Fig. 12, at integration level: the same EA run
    // costs less model time on three arrays than on one, because candidate
    // evaluations overlap.  The paper's 128×128 image size makes the saved
    // evaluation time dominate any difference in reconfiguration counts.
    let task = denoise_task(128, 0.3, 3);

    let mut single = EhwPlatform::new(1);
    let spec = evolution(&single, &task).generations(30).build().unwrap();
    let single_job = execute(&mut single, &spec, 13);
    let (result_single, time_single) = single_job.as_evolution().expect("evolution job");

    let mut triple = EhwPlatform::paper_three_arrays();
    let spec = evolution(&triple, &task).generations(30).build().unwrap();
    let triple_job = execute(&mut triple, &spec, 13);
    let (result_triple, time_triple) = triple_job.as_evolution().expect("evolution job");

    assert!(time_triple.total_s < time_single.total_s);
    // Quality is statistically equivalent; with the same seed and number of
    // generations neither run can be worse than its own start.
    assert!(result_single.best_fitness <= result_single.initial_fitness);
    assert!(result_triple.best_fitness <= result_triple.initial_fitness);
}

#[test]
fn two_level_ea_is_faster_per_generation_than_classic() {
    // Fig. 14 at integration level: with the same budget the two-level EA
    // spends less model time because secondary offspring only touch one PE.
    let task = denoise_task(24, 0.3, 5);
    let run = |strategy: MutationStrategy| {
        let mut platform = EhwPlatform::paper_three_arrays();
        let spec = evolution(&platform, &task)
            .mutation_rate(5)
            .generations(60)
            .strategy(strategy)
            .build()
            .unwrap();
        let job = execute(&mut platform, &spec, 17);
        *job.as_evolution().expect("evolution job").1
    };

    let classic_time = run(MutationStrategy::Classic);
    let two_level_time = run(MutationStrategy::two_level());

    assert!(two_level_time.total_s < classic_time.total_s);
    assert!(two_level_time.pe_reconfigurations < classic_time.pe_reconfigurations);
}

#[test]
fn adapted_cascade_beats_replicating_the_same_filter() {
    // Figs. 16-17: specialising each stage beats configuring the same circuit
    // in every stage.
    let task = denoise_task(32, 0.4, 9);

    let mut same_platform = EhwPlatform::paper_three_arrays();
    let same =
        evolve_same_filter_cascade(&mut same_platform, &task, &EsConfig::paper(2, 1, 150, 21));

    let mut adapted_platform = EhwPlatform::paper_three_arrays();
    let spec = JobSpec::cascade(task.input.clone(), task.reference.clone())
        .stages(3)
        .generations(50)
        .schedule(CascadeSchedule::Interleaved)
        .build()
        .unwrap();
    let job = execute(&mut adapted_platform, &spec, 21);
    let adapted = job.as_cascade().expect("cascade job");

    let adapted_final = adapted.final_fitness().expect("three stages");
    let same_final = same.final_fitness().expect("three stages");
    assert!(
        adapted_final <= same_final,
        "adapted {adapted_final} vs same-filter {same_final}"
    );

    // chain_fitness agrees with the result the cascade reported.
    let recheck = adapted_platform.chain_fitness(&task.input, &task.reference);
    assert_eq!(recheck, adapted.stage_fitness);
}

#[test]
fn imitation_learns_an_edge_detector_without_its_reference() {
    // Array 0 holds an evolved edge-ish filter; array 1 learns it purely by
    // imitation (no Sobel reference is ever shown to array 1).
    let scene = synth::shapes(32, 32, 4);
    let edges = filters::sobel_edge(&scene);
    let task = EvolutionTask::new(scene.clone(), edges);

    let mut platform = EhwPlatform::new(2);
    // Evolve only array 0 (parallel over a single-array platform would also
    // work; here we configure array 0 and keep array 1 untouched).
    let mut single = EhwPlatform::new(1);
    let spec = evolution(&single, &task).generations(120).build().unwrap();
    let job = execute(&mut single, &spec, 31);
    let evolved = job.best_genotype().expect("evolved genotype");
    platform.configure_array(0, evolved);

    let recovery = EsConfig {
        target_fitness: Some(0),
        ..EsConfig::paper(1, 1, 50, 37)
    };
    let result = evolve_imitation(
        &mut platform,
        1,
        0,
        &scene,
        &recovery,
        ImitationStart::FromMaster,
        &mut NullObserver,
    );
    // Starting from the master genotype on a healthy array the copy is exact.
    assert_eq!(result.best_fitness, 0);
    assert_eq!(
        platform.acb(1).raw_output(&scene),
        platform.acb(0).raw_output(&scene)
    );
}

#[test]
fn pipeline_timer_integrates_with_a_real_evolution_run() {
    let task = denoise_task(24, 0.3, 41);
    let mut platform = EhwPlatform::paper_three_arrays();
    let mut timer = PipelineTimer::paper(3, 24, 24);
    let config = EsConfig::paper(3, 3, 30, 43);

    // Run evolution manually against the platform evaluator to check that the
    // observer hook composes outside of the job path as well.
    let mut evaluator = ehw_platform::evo_modes::PlatformEvaluator::new(&platform, &task);
    let result = ehw_evolution::strategy::run_evolution(&config, &mut evaluator, &mut timer);
    platform.configure_all_arrays(&result.best_genotype);

    let estimate = timer.estimate();
    assert_eq!(estimate.generations, 30);
    assert_eq!(estimate.candidates, 30 * 9);
    assert_eq!(
        estimate.pe_reconfigurations,
        result.total_pe_reconfigurations
    );
    assert!(estimate.total_s > 0.0);
}
