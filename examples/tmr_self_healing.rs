//! TMR self-healing on the parallel processing mode (§V.B, Fig. 20).
//!
//! ```text
//! cargo run --release --example tmr_self_healing -- [evolution_generations] [recovery_generations]
//! ```
//!
//! Three arrays run the same evolved filter in parallel with a pixel voter and
//! a fitness voter.  A permanent (LPD) fault is injected into one array: the
//! pixel voter keeps the output stream valid, the fitness voter identifies the
//! damaged array, scrubbing rules out a transient fault, and evolution by
//! imitation re-learns the behaviour of a healthy sibling.

use ehw_evolution::strategy::EsConfig;
use ehw_fabric::fault::FaultKind;
use ehw_image::metrics::mae;
use ehw_image::noise::NoiseModel;
use ehw_image::synth;
use ehw_platform::jobs::{execute, JobSpec};
use ehw_platform::platform::EhwPlatform;
use ehw_platform::self_healing::{HealingOutcome, TmrSupervisor};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let evolution_generations: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(200);
    let recovery_generations: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(400);

    let clean = synth::shapes(64, 64, 5);
    let mut rng = StdRng::seed_from_u64(20);
    let noisy = NoiseModel::SaltPepper { density: 0.3 }.apply(&clean, &mut rng);

    println!("== TMR parallel mode with fault injection and imitation recovery ==");

    // Step a: evolve a working circuit and configure it in all three arrays.
    let mut platform = EhwPlatform::paper_three_arrays();
    let spec = JobSpec::evolution(noisy.clone(), clean)
        .num_arrays(3)
        .generations(evolution_generations)
        .build()
        .expect("valid evolution spec");
    let evolved = execute(&mut platform, &spec, 5);
    println!(
        "evolved filter fitness:       {}",
        evolved.final_fitness().expect("evolution job")
    );

    // The reference stream the fitness voter compares against is the evolved
    // filter's own output on the mission input.
    let reference = platform.acb(0).raw_output(&noisy);
    let supervisor = TmrSupervisor::new(100);

    // Fault-free surveillance step.
    let step = supervisor.process(&platform, &noisy, &reference);
    println!("fitness voter (no fault):     {:?}", step.vote);

    // Inject a permanent fault into the output PE of array 1.
    let out_row = platform.acb(1).genotype().output_gene as usize;
    platform.inject_pe_fault(1, out_row, 3, FaultKind::Lpd);
    let step = supervisor.process(&platform, &noisy, &reference);
    println!("fitness voter (fault):        {:?}", step.vote);
    println!("per-array fitness:            {:?}", step.fitnesses);
    println!(
        "pixel voter masks the fault:  voted-output MAE vs reference = {}",
        mae(&step.voted_output, &reference)
    );

    // Recover: scrub → permanent → evolution by imitation from a sibling.
    let recovery = EsConfig {
        target_fitness: Some(0),
        ..EsConfig::paper(1, 1, recovery_generations, 77)
    };
    let (_, event) = supervisor.step_and_heal(&mut platform, &noisy, &reference, &recovery);
    match event {
        Some(event) => match event.outcome {
            HealingOutcome::PermanentRecovered {
                method,
                residual_fitness,
            } => {
                println!("recovery on array {}:          {:?}", event.array, method);
                println!("residual imitation fitness:   {residual_fitness}");
            }
            other => println!("healing outcome:              {other:?}"),
        },
        None => println!("no divergence detected"),
    }

    let step = supervisor.process(&platform, &noisy, &reference);
    println!("fitness voter (after heal):   {:?}", step.vote);
    println!("per-array fitness:            {:?}", step.fitnesses);
}
