//! Ablation — how the number of arrays affects evolution time and footprint.
//!
//! The paper evaluates one and three arrays; the architecture however scales
//! to any number of ACBs that fit the device (§III.B).  This ablation sweeps
//! the array count and reports, for a fixed evolution budget, the modelled
//! evolution time (Fig. 11 pipeline), the marginal speed-up and the §VI.A
//! resource cost — quantifying the diminishing returns caused by the single
//! reconfiguration engine.
//!
//! ```text
//! cargo run --release -p ehw-bench --bin ablation_arrays -- [--generations=150] [--size=128] [--max-arrays=6]
//! ```

use ehw_bench::{arg_usize, banner, denoise_task, fmt_time, print_table, ExperimentArgs};
use ehw_platform::jobs::{execute, JobSpec};
use ehw_platform::platform::EhwPlatform;
use ehw_platform::resources::PlatformResources;

fn main() {
    let args = ExperimentArgs::parse(1, 150, 128);
    let (parallel, generations, size) = (args.parallel, args.generations, args.size);
    let max_arrays = arg_usize("max-arrays", 6).clamp(1, 8);
    banner(
        "Ablation",
        "evolution time and resource cost vs number of arrays",
        1,
        generations,
    );

    let mut baseline = None;
    let mut rows = Vec::new();
    for arrays in 1..=max_arrays {
        let task = denoise_task(size, 0.4, 12000);
        let mut platform = EhwPlatform::with_parallel(arrays, parallel);
        let spec = JobSpec::evolution(task.input, task.reference)
            .num_arrays(arrays)
            .generations(generations)
            .build()
            .expect("valid evolution spec");
        let job = execute(&mut platform, &spec, 5);
        let (_, time) = job.as_evolution().expect("evolution job");
        let per_gen = time.per_generation_s();
        let baseline_per_gen = *baseline.get_or_insert(per_gen);
        let resources = PlatformResources::for_arrays(arrays);
        rows.push(vec![
            arrays.to_string(),
            fmt_time(per_gen),
            fmt_time(per_gen * 100_000.0),
            format!("{:.2}x", baseline_per_gen / per_gen),
            resources.total_static_logic().slices.to_string(),
            resources.array_clbs.to_string(),
        ]);
    }

    print_table(
        &[
            "arrays",
            "time/generation",
            "100k generations",
            "speed-up vs 1 array",
            "static-logic slices",
            "array CLBs",
        ],
        &rows,
    );
    println!();
    println!("The single reconfiguration engine serializes all PE writes, so the speed-up");
    println!("saturates once evaluation is fully hidden behind reconfiguration — adding more");
    println!("arrays then only buys redundancy/throughput, at ~754 slices + 160 CLBs per ACB.");
}
