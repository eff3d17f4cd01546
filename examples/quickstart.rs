//! Quick start: evolve a salt & pepper denoising filter through the service
//! layer.
//!
//! ```text
//! cargo run --release --example quickstart -- [generations]
//! ```
//!
//! The example builds a synthetic training scene, corrupts it with 40 % salt &
//! pepper noise (the paper's reference workload), submits one typed evolution
//! job to an [`EhwService`] — the front-end that multiplexes every workload
//! over a pool of platforms — and reports how the fitness (pixel-aggregated
//! MAE, lower is better) improved, together with the evolution time the
//! platform model predicts for the same run on the FPGA.

use ehw_array::array::ProcessingArray;
use ehw_image::metrics::mae;
use ehw_image::noise::NoiseModel;
use ehw_image::synth;
use ehw_service::{EhwService, JobSpec, ServiceConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let generations: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(300);

    // Training pair: a synthetic 64×64 scene and its 40 % salt & pepper
    // corruption (64×64 keeps the example fast; the experiment binaries use
    // the paper's 128×128 and 256×256 sizes).
    let clean = synth::shapes(64, 64, 5);
    let mut rng = StdRng::seed_from_u64(2013);
    let noisy = NoiseModel::paper_salt_pepper().apply(&clean, &mut rng);

    println!("== Multi-array evolvable hardware: quick start ==");
    println!("image: 64x64, noise: 40% salt & pepper");
    println!("unfiltered MAE (identity): {}", mae(&noisy, &clean));

    // One service shard is plenty here; heavy traffic raises `platforms` /
    // `workers_per_platform` and submits many jobs at once.
    let service = EhwService::new(ServiceConfig::new(1)).expect("valid service config");

    // A typed evolution job with the paper's EA parameters (9 offspring per
    // generation, mutation rate k = 3); the spec validates shapes and budgets
    // at construction.  The pinned seed makes the run byte-reproducible —
    // running the same spec directly on a platform with
    // `ehw_platform::jobs::execute` returns the exact same result.
    let spec = JobSpec::evolution(noisy.clone(), clean.clone())
        .mutation_rate(3)
        .generations(generations)
        .seed(42)
        .build()
        .expect("valid evolution spec");
    let job = service
        .submit(spec)
        .expect("service accepts jobs")
        .wait()
        .expect("shard pool is alive");
    let (result, time) = job.as_evolution().expect("evolution job");

    println!("generations:            {}", result.generations_run);
    println!("initial fitness:        {}", result.initial_fitness);
    println!("best fitness:           {}", result.best_fitness);
    println!(
        "improvement:            {:.1}%",
        result.improvement() * 100.0
    );
    println!("candidate evaluations:  {}", job.evaluations);
    println!(
        "PE reconfigurations:    {}",
        result.total_pe_reconfigurations
    );
    println!(
        "modelled on-FPGA time:  {:.2} s ({:.1} ms/generation)",
        time.total_s,
        time.per_generation_s() * 1e3
    );

    // Configure the evolved circuit into a local array model and filter the
    // noisy image once more to confirm the reported fitness.
    let mut array = ProcessingArray::identity();
    array.set_genotype(result.best_genotype.clone());
    let filtered = array.filter_image(&noisy);
    println!("filtered MAE (verify):  {}", mae(&filtered, &clean));
}
