//! Fig. 13 — Average evolution time vs. mutation rate for 256×256 images.
//!
//! The same sweep as Fig. 12 with images four times larger: evaluation time
//! quadruples, so the benefit of evaluating candidates in parallel on three
//! arrays grows accordingly (the paper reports the saving growing from ~50 s
//! to ~200 s over 100 000 generations).
//!
//! ```text
//! cargo run --release -p ehw-bench --bin fig13_speedup_large -- [--runs=2] [--generations=100]
//! ```

use ehw_bench::{banner, denoise_task, fmt_time, print_table, ExperimentArgs};
use ehw_evolution::stats::Summary;
use ehw_platform::jobs::{execute, JobSpec};
use ehw_platform::platform::EhwPlatform;

fn main() {
    let args = ExperimentArgs::parse(2, 100, 256);
    let (parallel, runs, generations, size) =
        (args.parallel, args.runs, args.generations, args.size);
    banner(
        "Fig. 13",
        "average evolution time vs mutation rate, 256x256 images",
        runs,
        generations,
    );

    let mut rows = Vec::new();
    let mut savings = Vec::new();
    for &k in &[1usize, 3, 5] {
        let mut means = Vec::new();
        for &arrays in &[1usize, 3] {
            let mut per_gen = Vec::new();
            for run in 0..runs {
                let task = denoise_task(size, 0.4, 2000 + run as u64);
                let mut platform = EhwPlatform::with_parallel(arrays, parallel);
                let spec = JobSpec::evolution(task.input, task.reference)
                    .mutation_rate(k)
                    .num_arrays(arrays)
                    .generations(generations)
                    .build()
                    .expect("valid evolution spec");
                let job = execute(&mut platform, &spec, 7 + run as u64);
                let (_, time) = job.as_evolution().expect("evolution job");
                per_gen.push(time.per_generation_s());
            }
            means.push(Summary::of(&per_gen).mean);
        }
        let saving = (means[0] - means[1]) * 100_000.0;
        savings.push(saving);
        rows.push(vec![
            format!("k={k}"),
            fmt_time(means[0] * 100_000.0),
            fmt_time(means[1] * 100_000.0),
            fmt_time(saving),
            format!("{:.2}x", means[0] / means[1]),
        ]);
    }

    print_table(
        &[
            "mutation rate",
            "1 array (100k gens)",
            "3 arrays (100k gens)",
            "saving",
            "speed-up",
        ],
        &rows,
    );
    println!();
    println!(
        "mean saving across mutation rates: {}",
        fmt_time(savings.iter().sum::<f64>() / savings.len() as f64)
    );
    println!("Paper (Fig. 13, 256x256): the saving grows to ~200 s over 100,000 generations,");
    println!("roughly four times the 128x128 saving, because evaluation time quadruples.");
}
