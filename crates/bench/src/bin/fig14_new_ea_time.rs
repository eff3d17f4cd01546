//! Fig. 14 — Evolution time of the classic EA vs. the new two-level-mutation
//! EA on the three-array platform.
//!
//! The new EA (§VI.B) creates the first three offspring with the nominal
//! mutation rate and the remaining six by mutating those candidates with
//! rate 1, so consecutive configurations of the same array differ in very few
//! PEs; the reconfiguration bottleneck — and with it the dependence of
//! evolution time on the mutation rate — is strongly reduced.
//!
//! ```text
//! cargo run --release -p ehw-bench --bin fig14_new_ea_time -- [--runs=3] [--generations=200]
//! ```

use ehw_bench::{banner, denoise_task, fmt_time, print_table, ExperimentArgs};
use ehw_evolution::stats::Summary;
use ehw_evolution::strategy::MutationStrategy;
use ehw_platform::jobs::{execute, JobSpec};
use ehw_platform::platform::EhwPlatform;

fn main() {
    let args = ExperimentArgs::parse(3, 200, 128);
    let (parallel, runs, generations, size) =
        (args.parallel, args.runs, args.generations, args.size);
    banner(
        "Fig. 14",
        "evolution time: classic EA vs new two-level EA (3 arrays)",
        runs,
        generations,
    );

    let mut rows = Vec::new();
    for &k in &[1usize, 3, 5] {
        let mut means = Vec::new();
        for strategy in [MutationStrategy::Classic, MutationStrategy::two_level()] {
            let mut per_gen = Vec::new();
            for run in 0..runs {
                let task = denoise_task(size, 0.4, 3000 + run as u64);
                let mut platform = EhwPlatform::with_parallel(3, parallel);
                let spec = JobSpec::evolution(task.input, task.reference)
                    .mutation_rate(k)
                    .num_arrays(3)
                    .generations(generations)
                    .strategy(strategy)
                    .build()
                    .expect("valid evolution spec");
                let job = execute(&mut platform, &spec, 11 + run as u64);
                let (_, time) = job.as_evolution().expect("evolution job");
                per_gen.push(time.per_generation_s());
            }
            means.push(Summary::of(&per_gen).mean);
        }
        rows.push(vec![
            format!("k={k}"),
            fmt_time(means[0] * 100_000.0),
            fmt_time(means[1] * 100_000.0),
            format!("{:.1}%", (1.0 - means[1] / means[0]) * 100.0),
        ]);
    }

    print_table(
        &[
            "mutation rate",
            "classic EA (100k gens)",
            "new two-level EA (100k gens)",
            "time reduction",
        ],
        &rows,
    );
    println!();
    println!("Paper (Fig. 14): the new EA is faster at every mutation rate and its evolution");
    println!("time depends much less on the mutation rate than the classic EA's.");
}
