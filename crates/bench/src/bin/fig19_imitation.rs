//! Fig. 19 — Evolution by imitation after a permanent fault: starting from
//! the non-faulty genotype ("inherited") vs. starting from a random genotype.
//!
//! The fitness of an imitation run is the MAE between the output of the
//! faulty (apprentice) array and the output of the master array; the paper
//! considers values around 100 "functionally identical" and observes that a
//! random start lands about three orders of magnitude above that threshold.
//!
//! ```text
//! cargo run --release -p ehw-bench --bin fig19_imitation -- [--runs=5] [--generations=800]
//! ```

use ehw_bench::{arg_usize, banner, denoise_task, print_table, ExperimentArgs};
use ehw_evolution::stats::Summary;
use ehw_evolution::strategy::{EsConfig, NullObserver};
use ehw_fabric::fault::FaultKind;
use ehw_platform::evo_modes::{evolve_imitation, ImitationStart};
use ehw_platform::fault_campaign::find_injectable_pe;
use ehw_platform::jobs::{execute, JobSpec};
use ehw_platform::platform::EhwPlatform;

fn main() {
    let args = ExperimentArgs::parse(5, 800, 64);
    let (parallel, runs, generations, size) =
        (args.parallel, args.runs, args.generations, args.size);
    let evolution_generations = arg_usize("evolution-generations", 250);
    banner(
        "Fig. 19",
        "imitation recovery: inherited vs random starting genotype",
        runs,
        generations,
    );

    let mut inherited = Vec::new();
    let mut random = Vec::new();
    let mut faulty_before = Vec::new();

    for run in 0..runs {
        let task = denoise_task(size, 0.4, 8000 + run as u64);

        // Initial evolution: one working filter configured in both arrays.
        let mut platform = EhwPlatform::with_parallel(2, parallel);
        let spec = JobSpec::evolution(task.input.clone(), task.reference.clone())
            .num_arrays(2)
            .generations(evolution_generations)
            .build()
            .expect("valid evolution spec");
        let _ = execute(&mut platform, &spec, 900 + run as u64);

        // Permanent fault in an active PE of the apprentice array (upstream
        // of the output, so the inherited genotype can be repaired by
        // re-routing around the damaged position).
        let (row, col) = find_injectable_pe(&platform, 1, &task.input);
        platform.inject_pe_fault(1, row, col, FaultKind::Lpd);
        platform.set_bypass(1, true);

        // How far the damaged array is from the master before recovery.
        let master_out = platform.acb(0).raw_output(&task.input);
        let damaged_out = platform.acb(1).raw_output(&task.input);
        faulty_before.push(ehw_image::metrics::mae(&damaged_out, &master_out));

        let recovery = EsConfig {
            target_fitness: Some(0),
            ..EsConfig::paper(1, 1, generations, 1000 + run as u64)
        };

        // Inherited start.
        let mut p = clone_state(&platform);
        let result = evolve_imitation(
            &mut p,
            1,
            0,
            &task.input,
            &recovery,
            ImitationStart::FromMaster,
            &mut NullObserver,
        );
        inherited.push(result.best_fitness);

        // Random start.
        let mut p = clone_state(&platform);
        let result = evolve_imitation(
            &mut p,
            1,
            0,
            &task.input,
            &recovery,
            ImitationStart::Random,
            &mut NullObserver,
        );
        random.push(result.best_fitness);
    }

    let rows = vec![
        vec![
            "damaged array before recovery".to_string(),
            format!("{:.0}", Summary::of_u64(&faulty_before).mean),
            format!("{}", faulty_before.iter().min().unwrap()),
        ],
        vec![
            "imitation, inherited genotype".to_string(),
            format!("{:.0}", Summary::of_u64(&inherited).mean),
            format!("{}", inherited.iter().min().unwrap()),
        ],
        vec![
            "imitation, random genotype".to_string(),
            format!("{:.0}", Summary::of_u64(&random).mean),
            format!("{}", random.iter().min().unwrap()),
        ],
    ];
    print_table(&["strategy", "avg imitation fitness", "best"], &rows);

    println!();
    println!("Paper (Fig. 19): starting the imitation from the non-faulty genotype performs far");
    println!("better than a random start (random lands ~3 orders of magnitude above the ~100 MAE");
    println!("threshold that counts as 'functionally identical').");
}

/// Rebuilds an equivalent platform (same genotypes, faults and bypass flags)
/// so both recovery strategies start from identical conditions.
fn clone_state(platform: &EhwPlatform) -> EhwPlatform {
    let mut copy = EhwPlatform::with_parallel(platform.num_arrays(), platform.parallel_config());
    for i in 0..platform.num_arrays() {
        copy.configure_array(i, platform.acb(i).genotype());
    }
    for fault in platform.injected_faults() {
        copy.inject_pe_fault(fault.array, fault.row, fault.col, fault.kind);
    }
    for i in 0..platform.num_arrays() {
        if platform.acb(i).is_bypassed() {
            copy.set_bypass(i, true);
        }
    }
    copy
}
