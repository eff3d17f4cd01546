//! Fig. 20 — TMR parallel mode: fault injection, detection by fitness
//! divergence, and recovery of the damaged array by evolution by imitation.
//!
//! Reproduces the timeline of Fig. 20: three arrays run the same filter in
//! parallel; at a chosen generation a permanent fault is injected into one of
//! them; the fitness voter detects the divergence and an imitation evolution
//! progressively restores the damaged array (the paper observes full recovery
//! after roughly 40 000 generations on the FPGA).
//!
//! ```text
//! cargo run --release -p ehw-bench --bin fig20_tmr_recovery -- [--generations=1500] [--samples=20]
//! ```

use ehw_bench::{arg_usize, banner, denoise_task, print_table, ExperimentArgs};
use ehw_evolution::strategy::{EsConfig, GenerationObserver};
use ehw_fabric::fault::FaultKind;
use ehw_platform::evo_modes::{evolve_imitation, ImitationStart};
use ehw_platform::fault_campaign::find_injectable_pe;
use ehw_platform::jobs::{execute, JobSpec};
use ehw_platform::platform::EhwPlatform;
use ehw_platform::self_healing::TmrSupervisor;

/// Observer that records the best imitation fitness at every generation, so
/// the recovery timeline can be plotted like Fig. 20.
struct Timeline {
    history: Vec<u64>,
}

impl GenerationObserver for Timeline {
    fn on_generation(&mut self, _generation: usize, _reconfigs: &[usize], best: u64) {
        self.history.push(best);
    }
}

fn main() {
    let args = ExperimentArgs::parse(1, 4000, 64);
    let (parallel, recovery_generations, size) = (args.parallel, args.generations, args.size);
    let evolution_generations = arg_usize("evolution-generations", 250);
    let samples = arg_usize("samples", 20);
    banner(
        "Fig. 20",
        "TMR mode: fault injection, divergence detection and imitation recovery",
        1,
        recovery_generations,
    );

    let task = denoise_task(size, 0.4, 9000);

    // Phase 1: initial evolution, same circuit in all three arrays.
    let mut platform = EhwPlatform::with_parallel(3, parallel);
    let spec = JobSpec::evolution(task.input.clone(), task.reference.clone())
        .num_arrays(3)
        .generations(evolution_generations)
        .build()
        .expect("valid evolution spec");
    let evolved = execute(&mut platform, &spec, 77);
    println!(
        "evolved filter fitness: {}\n",
        evolved.final_fitness().expect("evolution job")
    );

    let reference = platform.acb(0).raw_output(&task.input);
    let supervisor = TmrSupervisor::new(100);

    let healthy = supervisor.process(&platform, &task.input, &reference);
    println!(
        "phase 1 (healthy TMR): per-array fitness = {:?}, vote = {:?}",
        healthy.fitnesses, healthy.vote
    );

    // Phase 2: permanent fault in an active PE of array 2.
    let (row, col) = find_injectable_pe(&platform, 2, &task.input);
    platform.inject_pe_fault(2, row, col, FaultKind::Lpd);
    let faulty = supervisor.process(&platform, &task.input, &reference);
    println!(
        "phase 2 (fault injected): per-array fitness = {:?}, vote = {:?}, voted output still clean = {}",
        faulty.fitnesses,
        faulty.vote,
        faulty.voted_output == reference
    );

    // Scrubbing does not help: the fault is permanent.
    platform.scrub_array(2);
    println!(
        "after scrubbing: permanent fault present = {}\n",
        platform.array_has_permanent_fault(2)
    );

    // Phase 3: recovery by imitation, recording the fitness timeline.
    let recovery = EsConfig {
        target_fitness: Some(0),
        ..EsConfig::paper(1, 1, recovery_generations, 4711)
    };
    let mut timeline = Timeline {
        history: Vec::new(),
    };
    let result = evolve_imitation(
        &mut platform,
        2,
        0,
        &task.input,
        &recovery,
        ImitationStart::FromMaster,
        &mut timeline,
    );

    println!(
        "phase 3 (imitation recovery): {} generations executed",
        result.generations_run
    );
    let rows: Vec<Vec<String>> = (0..samples)
        .filter_map(|i| {
            let idx = (i * timeline.history.len().saturating_sub(1)) / samples.max(1);
            timeline
                .history
                .get(idx)
                .map(|f| vec![idx.to_string(), f.to_string()])
        })
        .collect();
    print_table(
        &["generation", "imitation fitness (faulty vs master)"],
        &rows,
    );
    println!(
        "final imitation fitness: {} ({} recovery)",
        result.best_fitness,
        if result.best_fitness == 0 {
            "complete"
        } else {
            "partial"
        }
    );

    let after = supervisor.process(&platform, &task.input, &reference);
    println!(
        "\nphase 4 (after recovery): per-array fitness = {:?}, vote = {:?}",
        after.fitnesses, after.vote
    );
    println!();
    println!("Paper (Fig. 20): after the fault the fitness of the damaged array jumps, the voter");
    println!("flags it, and an imitation evolution recovers it completely after ~40,000");
    println!("generations while the TMR voter keeps the output stream valid throughout.");
}
