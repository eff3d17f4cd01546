//! Fig. 18 — A three-stage adapted cascade on 40 % salt & pepper noise,
//! compared with the conventional median filter.
//!
//! The paper reports a final MAE of ≈ 8000 for the 128×128 image and notes
//! that the median filter — the textbook remover for this noise — is "far
//! above this one, more than twice the value obtained for just one stage, and
//! it is not cascadable".
//!
//! `--naive` evolves the cascade through `ehw_bench::oracle` instead of the
//! cascade job, with the same circuits and fitness.
//!
//! ```text
//! cargo run --release -p ehw-bench --bin fig18_cascade_vs_median -- [--generations=600] [--out=DIR] [--naive]
//! ```

use ehw_bench::{banner, denoise_task, print_table, ExperimentArgs};
use ehw_image::filters;
use ehw_image::metrics::{mae, psnr};
use ehw_image::pgm;
use ehw_platform::jobs::JobSpec;
use ehw_platform::platform::EhwPlatform;

fn main() {
    let args = ExperimentArgs::parse(1, 1500, 128);
    let (parallel, engine, generations, size) =
        (args.parallel, args.engine, args.generations, args.size);
    banner(
        "Fig. 18",
        "3-stage adapted cascade vs median filter, 40% salt & pepper",
        1,
        generations,
    );

    let task = denoise_task(size, 0.4, 7000);
    let noisy_mae = mae(&task.input, &task.reference);

    // Conventional baselines.
    let median1 = filters::median(&task.input);
    let median3 = filters::cascade(&task.input, filters::ReferenceFilter::Median, 3);

    // Evolved cascade.
    let mut platform = EhwPlatform::with_parallel(3, parallel);
    let spec = JobSpec::cascade(task.input.clone(), task.reference.clone())
        .stages(3)
        .generations(generations / 3)
        .build()
        .expect("valid cascade spec (--generations must be at least 3)");
    let result = engine.run(&mut platform, &spec, 4242);
    println!(
        "cascade engine: {engine:?} — {} evaluations, early-exit rate {:.1}%, {} memo hits",
        result.evaluations,
        result.stats.early_exit_rate() * 100.0,
        result.stats.memo_hits
    );
    let outputs = platform.process_cascaded(&task.input);

    let rows = vec![
        vec![
            "unfiltered (noisy input)".to_string(),
            noisy_mae.to_string(),
            format!("{:.1} dB", psnr(&task.input, &task.reference)),
        ],
        vec![
            "median filter (1 pass)".to_string(),
            mae(&median1, &task.reference).to_string(),
            format!("{:.1} dB", psnr(&median1, &task.reference)),
        ],
        vec![
            "median filter (3 passes)".to_string(),
            mae(&median3, &task.reference).to_string(),
            format!("{:.1} dB", psnr(&median3, &task.reference)),
        ],
        vec![
            "evolved cascade, stage 1".to_string(),
            result.stage_fitness[0].to_string(),
            format!("{:.1} dB", psnr(&outputs[0], &task.reference)),
        ],
        vec![
            "evolved cascade, stage 2".to_string(),
            result.stage_fitness[1].to_string(),
            format!("{:.1} dB", psnr(&outputs[1], &task.reference)),
        ],
        vec![
            "evolved cascade, stage 3 (final)".to_string(),
            result.stage_fitness[2].to_string(),
            format!("{:.1} dB", psnr(&outputs[2], &task.reference)),
        ],
    ];
    print_table(&["filter", "MAE (fitness)", "PSNR"], &rows);

    println!();
    println!("Paper (Fig. 18): the three-stage adapted cascade reaches a MAE of about 8000 on");
    println!("the 128x128 image, while the median filter is more than twice the single-stage");
    println!("value and cannot be cascaded usefully.");

    if let Some(dir) = std::env::args().find_map(|a| a.strip_prefix("--out=").map(String::from)) {
        let dir = std::path::PathBuf::from(dir);
        std::fs::create_dir_all(&dir).expect("create output directory");
        pgm::write_pgm(&task.reference, dir.join("clean.pgm")).expect("write clean");
        pgm::write_pgm(&task.input, dir.join("noisy.pgm")).expect("write noisy");
        pgm::write_pgm(&median1, dir.join("median.pgm")).expect("write median");
        pgm::write_pgm(
            outputs.last().expect("three stages"),
            dir.join("cascade.pgm"),
        )
        .expect("write cascade");
        println!("\nimages written to {}", dir.display());
    }
}
