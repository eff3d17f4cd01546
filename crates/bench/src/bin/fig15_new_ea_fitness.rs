//! Fig. 15 — Fitness reached by the classic EA vs. the new two-level EA.
//!
//! The new EA was designed to cut reconfiguration time, but Fig. 15 shows it
//! reaches equal or better fitness than the classic EA for every mutation
//! rate (remember: lower MAE is better).
//!
//! ```text
//! cargo run --release -p ehw-bench --bin fig15_new_ea_fitness -- [--runs=5] [--generations=400]
//! ```

use ehw_bench::{banner, denoise_task, print_table, ExperimentArgs};
use ehw_evolution::stats::Summary;
use ehw_evolution::strategy::MutationStrategy;
use ehw_platform::jobs::{execute, JobSpec};
use ehw_platform::platform::EhwPlatform;

fn main() {
    let args = ExperimentArgs::parse(5, 1200, 48);
    let (parallel, runs, generations, size) =
        (args.parallel, args.runs, args.generations, args.size);
    banner(
        "Fig. 15",
        "average fitness: classic EA vs new two-level EA (3 arrays)",
        runs,
        generations,
    );

    let mut rows = Vec::new();
    for &k in &[1usize, 3, 5] {
        let mut means = Vec::new();
        for strategy in [MutationStrategy::Classic, MutationStrategy::two_level()] {
            let mut best = Vec::new();
            for run in 0..runs {
                let task = denoise_task(size, 0.4, 4000 + run as u64);
                let mut platform = EhwPlatform::with_parallel(3, parallel);
                let spec = JobSpec::evolution(task.input, task.reference)
                    .mutation_rate(k)
                    .num_arrays(3)
                    .generations(generations)
                    .strategy(strategy)
                    .build()
                    .expect("valid evolution spec");
                let job = execute(&mut platform, &spec, 100 + run as u64);
                best.push(job.final_fitness().expect("evolution job"));
            }
            means.push(Summary::of_u64(&best));
        }
        rows.push(vec![
            format!("k={k}"),
            format!("{:.0} (min {:.0})", means[0].mean, means[0].min),
            format!("{:.0} (min {:.0})", means[1].mean, means[1].min),
            format!("{:+.1}%", (means[1].mean / means[0].mean - 1.0) * 100.0),
        ]);
    }

    print_table(
        &[
            "mutation rate",
            "classic EA avg fitness",
            "new EA avg fitness",
            "new vs classic",
        ],
        &rows,
    );
    println!();
    println!("Paper (Fig. 15): the new strategy reaches equal or better (lower) fitness than");
    println!("the classic EA at every mutation rate, in addition to being faster.");
}
