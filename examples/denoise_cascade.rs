//! Cascaded denoising: the paper's flagship application (Figs. 16–18).
//!
//! ```text
//! cargo run --release --example denoise_cascade -- [generations_per_stage] [output_dir]
//! ```
//!
//! A three-stage collaborative cascade is evolved against 40 % salt & pepper
//! noise, submitted as one typed job to the [`EhwService`] front-end.  The
//! example reports the chain fitness after every stage, compares the result
//! against the conventional 3×3 median filter (the baseline the paper cites
//! in Fig. 18), and optionally writes the input / noisy / filtered images as
//! PGM files for visual inspection.

use ehw_array::array::ProcessingArray;
use ehw_image::filters;
use ehw_image::image::GrayImage;
use ehw_image::metrics::mae;
use ehw_image::noise::NoiseModel;
use ehw_image::pgm;
use ehw_image::synth;
use ehw_service::{EhwService, JobSpec, ServiceConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let generations: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(400);
    let output_dir = std::env::args().nth(2);

    let clean = synth::paper_scene_128();
    let mut rng = StdRng::seed_from_u64(7);
    let noisy = NoiseModel::paper_salt_pepper().apply(&clean, &mut rng);

    println!("== Three-stage collaborative cascade on 40% salt & pepper ==");
    println!("unfiltered MAE:            {}", mae(&noisy, &clean));

    // Conventional baseline: a (non-cascadable) 3x3 median filter.
    let median = filters::median(&noisy);
    println!("median filter MAE:         {}", mae(&median, &clean));

    // One typed cascade job (3 stages, the paper's parameters); the pinned
    // seed makes the run byte-reproducible on any pool size.
    let service = EhwService::new(ServiceConfig::new(1)).expect("valid service config");
    let spec = JobSpec::cascade(noisy.clone(), clean.clone())
        .stages(3)
        .generations(generations)
        .mutation_rate(2)
        .seed(99)
        .build()
        .expect("valid cascade spec");
    let job = service
        .submit(spec)
        .expect("service accepts jobs")
        .wait()
        .expect("shard pool is alive");
    let result = job.as_cascade().expect("cascade job");

    for (stage, fitness) in result.stage_fitness.iter().enumerate() {
        println!("evolved cascade, stage {}: {}", stage + 1, fitness);
    }
    println!(
        "final chain MAE:           {}",
        result.final_fitness().expect("three stages")
    );

    // Rebuild the chain locally from the evolved stage genotypes to produce
    // the per-stage output images.
    let mut outputs: Vec<GrayImage> = Vec::new();
    for genotype in &result.stage_genotypes {
        let mut array = ProcessingArray::identity();
        array.set_genotype(genotype.clone());
        let out = array.filter_image(outputs.last().unwrap_or(&noisy));
        outputs.push(out);
    }
    if let Some(dir) = output_dir {
        let dir = std::path::PathBuf::from(dir);
        std::fs::create_dir_all(&dir).expect("create output directory");
        pgm::write_pgm(&clean, dir.join("clean.pgm")).expect("write clean.pgm");
        pgm::write_pgm(&noisy, dir.join("noisy.pgm")).expect("write noisy.pgm");
        pgm::write_pgm(&median, dir.join("median.pgm")).expect("write median.pgm");
        for (i, out) in outputs.iter().enumerate() {
            pgm::write_pgm(out, dir.join(format!("cascade_stage{}.pgm", i + 1)))
                .expect("write stage output");
        }
        println!("images written to {}", dir.display());
    }
}
