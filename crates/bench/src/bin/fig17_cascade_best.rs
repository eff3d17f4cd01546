//! Fig. 17 — Best fitness per stage of the three-stage cascade (best run out
//! of the sweep), for the same three configurations as Fig. 16.
//!
//! Like Fig. 16, the adapted cascades run as a batch of typed jobs through
//! the [`ehw_service`] front-end with pinned per-run seeds, so the figure is
//! byte-identical to the legacy path at any `--platforms=` / `--workers=`
//! setting, and to the `ehw_bench::oracle` run that `--naive` selects.
//!
//! ```text
//! cargo run --release -p ehw-bench --bin fig17_cascade_best -- [--runs=3] [--generations=300] [--naive]
//! ```

use ehw_bench::{banner, denoise_task, print_table, ExperimentArgs};
use ehw_evolution::strategy::EsConfig;
use ehw_platform::evo_modes::evolve_same_filter_cascade;

fn best_per_stage(all_runs: &[Vec<u64>]) -> Vec<u64> {
    // Per the paper, Fig. 17 reports the best run: select the run with the
    // lowest final-stage fitness and report its whole per-stage curve.
    let best_run = all_runs
        .iter()
        .min_by_key(|run| *run.last().expect("three stages"))
        .expect("at least one run");
    best_run.clone()
}

fn main() {
    let args = ExperimentArgs::parse(3, 300, 64);
    banner(
        "Fig. 17",
        "best fitness per cascade stage: same filter vs adapted (sequential/interleaved)",
        args.runs,
        args.generations,
    );
    println!(
        "cascade engine: {:?} (pass --naive for the oracle baseline)\n",
        args.engine
    );

    // Same-filter baseline (legacy path).
    let mut same_runs = Vec::new();
    for run in 0..args.runs {
        let task = denoise_task(args.size, 0.4, 6000 + run as u64);
        let mut platform = args.platform(3);
        let config = EsConfig::paper(2, 1, args.generations, 500 + run as u64);
        same_runs.push(evolve_same_filter_cascade(&mut platform, &task, &config).stage_fitness);
    }

    // Adapted cascades: 2 schedules × runs jobs (same sweep as Fig. 16, so
    // the two figures stay in lockstep).
    let runs = ehw_bench::cascade_sweep(&args, 6000, 600, 700);

    let same = best_per_stage(&same_runs);
    let sequential = best_per_stage(&runs[..args.runs]);
    let interleaved = best_per_stage(&runs[args.runs..]);

    let rows: Vec<Vec<String>> = (0..3)
        .map(|stage| {
            vec![
                format!("stage {}", stage + 1),
                same[stage].to_string(),
                sequential[stage].to_string(),
                interleaved[stage].to_string(),
            ]
        })
        .collect();
    print_table(
        &[
            "cascade stage",
            "same filter (best)",
            "adapted, sequential (best)",
            "adapted, interleaved (best)",
        ],
        &rows,
    );
    println!();
    println!("Paper (Fig. 17): the best adapted cascades improve monotonically over the stages");
    println!("and clearly beat replicating the same filter three times.");
}
