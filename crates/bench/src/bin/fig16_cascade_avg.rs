//! Fig. 16 — Average fitness per stage of the three-stage cascade:
//! same filter replicated vs. adapted filters (sequential) vs. adapted
//! filters (interleaved).
//!
//! The adapted cascades are submitted as one batch of typed jobs to the
//! [`ehw_service`] front-end (`--platforms=` / `--queue-depth=` size the
//! pool); seeds are pinned per run, so the figure is byte-identical to the
//! legacy single-platform path at any pool size.  `--naive` runs the same
//! cascades through `ehw_bench::oracle` instead, with the same figure.  The
//! same-filter baseline stays on the legacy `evolve_same_filter_cascade`
//! entry point — it is not a cascade job, it is the paper's non-adaptive
//! control.
//!
//! ```text
//! cargo run --release -p ehw-bench --bin fig16_cascade_avg -- [--runs=3] [--generations=300] [--naive]
//! ```

use ehw_bench::{banner, denoise_task, print_table, ExperimentArgs};
use ehw_evolution::stats::Summary;
use ehw_evolution::strategy::EsConfig;
use ehw_platform::evo_modes::evolve_same_filter_cascade;

/// Splits per-run chain-fitness histories into per-stage columns.
fn per_stage(runs: &[Vec<u64>]) -> Vec<Vec<u64>> {
    let mut columns: Vec<Vec<u64>> = vec![Vec::new(); 3];
    for run in runs {
        for (stage, fitness) in run.iter().enumerate() {
            columns[stage].push(*fitness);
        }
    }
    columns
}

fn main() {
    let args = ExperimentArgs::parse(3, 300, 64);
    banner(
        "Fig. 16",
        "average fitness per cascade stage: same filter vs adapted (sequential/interleaved)",
        args.runs,
        args.generations,
    );
    println!(
        "(every evolved circuit gets {} generations, matching the same-filter baseline)",
        args.generations
    );
    println!(
        "cascade engine: {:?} (pass --naive for the oracle baseline)\n",
        args.engine
    );

    // Same-filter baseline (legacy path).
    let mut same: Vec<Vec<u64>> = vec![Vec::new(); 3];
    for run in 0..args.runs {
        let task = denoise_task(args.size, 0.4, 5000 + run as u64);
        let mut platform = args.platform(3);
        let config = EsConfig::paper(2, 1, args.generations, 200 + run as u64);
        let fitness = evolve_same_filter_cascade(&mut platform, &task, &config).stage_fitness;
        for (stage, f) in fitness.iter().enumerate() {
            same[stage].push(*f);
        }
    }

    // Adapted cascades: 2 schedules × runs jobs, multiplexed over the pool
    // (same sweep as Fig. 17, so the two figures stay in lockstep).
    let runs = ehw_bench::cascade_sweep(&args, 5000, 300, 400);
    let sequential = per_stage(&runs[..args.runs]);
    let interleaved = per_stage(&runs[args.runs..]);

    let rows: Vec<Vec<String>> = (0..3)
        .map(|stage| {
            vec![
                format!("stage {}", stage + 1),
                format!("{:.0}", Summary::of_u64(&same[stage]).mean),
                format!("{:.0}", Summary::of_u64(&sequential[stage]).mean),
                format!("{:.0}", Summary::of_u64(&interleaved[stage]).mean),
            ]
        })
        .collect();
    print_table(
        &[
            "cascade stage",
            "same filter (avg)",
            "adapted, sequential (avg)",
            "adapted, interleaved (avg)",
        ],
        &rows,
    );
    println!();
    println!("Paper (Fig. 16): replicating the same filter improves from stage 1 to 2 but gets");
    println!("worse at stage 3, while adapted filters keep improving at every stage; the two");
    println!("adapted schedules end up with very similar fitness.");
}
