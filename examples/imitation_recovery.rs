//! Evolution by imitation after a permanent fault (Figs. 7, 8 and 19).
//!
//! ```text
//! cargo run --release --example imitation_recovery -- [generations]
//! ```
//!
//! A working filter runs in a two-stage cascade.  A permanent fault is
//! injected into the second stage; the reference/training images are assumed
//! to be no longer available (the scenario §V.A motivates), so the damaged
//! stage is put in bypass mode and re-evolved **by imitation** of its healthy
//! neighbour.  The example compares the paper's two seeding strategies
//! (inherited genotype vs. random start, Fig. 19).

use ehw_evolution::strategy::{EsConfig, NullObserver};
use ehw_fabric::fault::FaultKind;
use ehw_image::noise::NoiseModel;
use ehw_image::synth;
use ehw_platform::evo_modes::{evolve_imitation, ImitationStart};
use ehw_platform::fault_campaign::find_injectable_pe;
use ehw_platform::jobs::{execute, JobSpec};
use ehw_platform::platform::EhwPlatform;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let generations: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(500);

    let clean = synth::shapes(64, 64, 4);
    let mut rng = StdRng::seed_from_u64(3);
    let noisy = NoiseModel::SaltPepper { density: 0.3 }.apply(&clean, &mut rng);

    // Initial evolution: both arrays get the same working filter.
    let mut platform = EhwPlatform::new(2);
    let spec = JobSpec::evolution(noisy.clone(), clean)
        .num_arrays(2)
        .generations(200)
        .build()
        .expect("valid evolution spec");
    let evolved = execute(&mut platform, &spec, 11);
    println!("== Evolution by imitation after a permanent fault ==");
    println!(
        "working filter fitness:          {}",
        evolved.final_fitness().expect("evolution job")
    );

    // Permanent fault in an active PE of array 1 (upstream of the output, so
    // the inherited genotype can re-route around it); the reference image is
    // considered lost, so only imitation of array 0 can recover it.
    let (row, col) = find_injectable_pe(&platform, 1, &noisy);
    platform.inject_pe_fault(1, row, col, FaultKind::Lpd);
    platform.set_bypass(1, true);

    let recovery = EsConfig {
        target_fitness: Some(0),
        ..EsConfig::paper(1, 1, generations, 23)
    };

    // Strategy 1 (the paper's recommendation): start from the master genotype.
    let mut p1 = clone_platform_state(&platform);
    let inherited = evolve_imitation(
        &mut p1,
        1,
        0,
        &noisy,
        &recovery,
        ImitationStart::FromMaster,
        &mut NullObserver,
    );

    // Strategy 2: start from a random genotype.
    let mut p2 = clone_platform_state(&platform);
    let random = evolve_imitation(
        &mut p2,
        1,
        0,
        &noisy,
        &recovery,
        ImitationStart::Random,
        &mut NullObserver,
    );

    println!(
        "imitation fitness, inherited start: {} (threshold ~100 means 'functionally identical')",
        inherited.best_fitness
    );
    println!(
        "imitation fitness, random start:    {}",
        random.best_fitness
    );
    println!(
        "inherited start is {:.0}x closer to an exact copy",
        (random.best_fitness.max(1)) as f64 / (inherited.best_fitness.max(1)) as f64
    );
}

/// Rebuilds an equivalent platform (same genotypes, same faults) so the two
/// recovery strategies start from identical conditions.
fn clone_platform_state(platform: &EhwPlatform) -> EhwPlatform {
    let mut copy = EhwPlatform::new(platform.num_arrays());
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
