//! The workloads: server shape, client count and the seed-pinned jobs each
//! run submits.  All inputs are generated from the run's seed before the
//! timed window; every job pins its own seed, so each result is a pure
//! function of (spec, seed) and can be checked.  `warm_start`,
//! `deadline_ms` and stream `max_millis` are never set: the first depends on
//! the order of champion deposits, the other two on wall time.

use std::io::Write as _;
use std::sync::Arc;

use ehw_image::noise::{salt_pepper, NoiseModel};
use ehw_image::{pgm, synth, GrayImage};
use ehw_service::{
    AdaptationConfig, DriftConfig, JobSpec, NoiseSegment, ScenarioRegistry, SceneKind,
    ServiceConfig, StreamSourceSpec,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedSequence};

/// Fewest jobs a run submits, however short its `--seconds`.
const MIN_JOBS: usize = 8;

/// Seed lanes: the image pool, the timed jobs, the warm-up set, the probes.
const LANE_IMAGES: u64 = 0;
const LANE_JOBS: u64 = 1;
const LANE_WARMUP: u64 = 2;
const LANE_PROBES: u64 = 3;

/// One job in ten of `mixed` is an exact resubmit, as a client retry is.
const RESUBMIT_EVERY: usize = 10;
const CASCADE_STAGES: usize = 3;
const SCENARIOS: [&str; 3] = ["burst", "multi_pe_2", "correlated_row"];
const POLICIES: [&str; 3] = ["full_ladder", "scrub_then_reevolve", "reevolve"];
const STREAM_COMPLEXITY: usize = 4;
const DRIFT_WINDOW: usize = 3;
const DRIFT_THRESHOLD_PCT: u32 = 130;
const DRIFT_COOLDOWN: usize = 4;
const BIG_SIZE: usize = 128;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Mixed,
    TinyJobs,
    BigEvolve,
}

/// How training images travel in a job body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// `{"pgm_base64": "..."}`: a base64 binary PGM.
    PgmBase64,
    /// `{"width", "height", "pixels": [...]}`: the large-body path.
    PixelArray,
}

/// One workload: the server it boots and the traffic it sends.
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub platforms: usize,
    pub workers_per_platform: usize,
    pub clients: usize,
    /// Jobs a run submits per second of `--seconds`, fixed before the run
    /// starts.  The server never reaps its registry inside a run and every
    /// status or `/metrics` read walks it, so runs are comparable only when
    /// they submit the same number of jobs: a faster program finishes the
    /// same jobs sooner instead of submitting more.
    pub jobs_per_second: f64,
    /// A `GET /metrics` follows every `n`-th job, alternating JSON and
    /// Prometheus.
    pub metrics_every: Option<usize>,
    pub transport: Transport,
}

/// The workloads, each chosen so that some layer does most of the work on
/// one of them and little on another (see `e2ebench/README.md`).
pub const WORKLOADS: [Workload; 3] = [
    // North-star traffic: every job kind, both cache tiers, realistic reuse.
    Workload {
        name: "mixed",
        kind: Kind::Mixed,
        platforms: 2,
        workers_per_platform: 1,
        clients: 2,
        jobs_per_second: 26.0,
        metrics_every: None,
        transport: Transport::PgmBase64,
    },
    // Little compute: HTTP, JSON, wire codec, registry scans and queue
    // handoff dominate; 2 clients on 1 shard make queue wait real.
    Workload {
        name: "tiny-jobs",
        kind: Kind::TinyJobs,
        platforms: 1,
        workers_per_platform: 1,
        clients: 2,
        jobs_per_second: 28.0,
        metrics_every: Some(2),
        transport: Transport::PixelArray,
    },
    // Evaluation-bound with intra-job parallelism; every job misses both
    // cache tiers.  Images travel as pixel arrays: `json::parse` is
    // quadratic in string length, and two 128×128 base64 PGMs took 48–69 ms
    // to parse — half of each job's latency, swinging with the host — where
    // the same images as arrays parse in about 2 ms.  `mixed` keeps the
    // base64 path measured.
    Workload {
        name: "big-evolve",
        kind: Kind::BigEvolve,
        platforms: 1,
        workers_per_platform: 2,
        clients: 1,
        jobs_per_second: 10.0,
        metrics_every: None,
        transport: Transport::PixelArray,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// `ServiceConfig::new(platforms)` — cache on, queue depth twice the
    /// shard count — with the workload's per-shard worker count.
    pub fn service_config(&self) -> ServiceConfig {
        ServiceConfig::new(self.platforms).workers_per_platform(self.workers_per_platform)
    }

    /// Jobs one run of `seconds` submits.
    pub fn job_count(&self, seconds: f64) -> usize {
        ((self.jobs_per_second * seconds).round() as usize).max(MIN_JOBS)
    }
}

/// One image as the program receives it: pixels plus its wire encoding.
pub struct WireImage {
    pub image: GrayImage,
    pub wire: String,
}

impl WireImage {
    fn new(image: GrayImage, transport: Transport) -> Arc<WireImage> {
        let wire = match transport {
            Transport::PgmBase64 => format!(
                "{{\"pgm_base64\":\"{}\"}}",
                ehw_server::base64::encode(&pgm::encode_p5(&image))
            ),
            Transport::PixelArray => {
                let pixels: Vec<String> = image.pixels().map(|p| p.to_string()).collect();
                format!(
                    "{{\"width\":{},\"height\":{},\"pixels\":[{}]}}",
                    image.width(),
                    image.height(),
                    pixels.join(",")
                )
            }
        };
        Arc::new(WireImage { image, wire })
    }
}

/// A training pair, shared between the jobs that use it.
#[derive(Clone)]
pub struct Pair {
    pub input: Arc<WireImage>,
    pub reference: Arc<WireImage>,
}

/// What a job asks for.
#[derive(Clone)]
pub enum Recipe {
    Evolution {
        pair: Pair,
        generations: usize,
    },
    Cascade {
        pair: Pair,
        generations: usize,
    },
    Campaign {
        pair: Pair,
        scenario: &'static str,
        policy: &'static str,
        recovery_generations: usize,
    },
    Stream {
        size: usize,
        frames: usize,
        shift_at: usize,
        densities: [f64; 2],
        generations: usize,
    },
}

/// One job of a run.
#[derive(Clone)]
pub struct JobPlan {
    pub recipe: Recipe,
    pub seed: u64,
    /// The earlier plan this one resubmits verbatim, if it is a resubmit.
    pub original: Option<usize>,
}

impl JobPlan {
    pub fn kind(&self) -> &'static str {
        match self.recipe {
            Recipe::Evolution { .. } => "evolution",
            Recipe::Cascade { .. } => "cascade",
            Recipe::Campaign { .. } => "fault_campaign",
            Recipe::Stream { .. } => "stream",
        }
    }

    /// The endpoint the job is submitted to.
    pub fn path(&self) -> &'static str {
        match self.recipe {
            Recipe::Stream { .. } => "/streams",
            _ => "/jobs",
        }
    }

    pub fn pair(&self) -> Option<&Pair> {
        match &self.recipe {
            Recipe::Evolution { pair, .. }
            | Recipe::Cascade { pair, .. }
            | Recipe::Campaign { pair, .. } => Some(pair),
            Recipe::Stream { .. } => None,
        }
    }

    /// Appends the JSON request body to `out`.
    pub fn write_body(&self, out: &mut Vec<u8>) {
        let seed = self.seed;
        let images = |pair: &Pair| {
            format!(
                "\"input\":{},\"reference\":{}",
                pair.input.wire, pair.reference.wire
            )
        };
        match &self.recipe {
            Recipe::Evolution { pair, generations } => write!(
                out,
                "{{\"kind\":\"evolution\",{},\"generations\":{generations},\"seed\":{seed}}}",
                images(pair)
            ),
            Recipe::Cascade { pair, generations } => write!(
                out,
                "{{\"kind\":\"cascade\",{},\"stages\":{CASCADE_STAGES},\
                 \"generations\":{generations},\"seed\":{seed}}}",
                images(pair)
            ),
            Recipe::Campaign {
                pair,
                scenario,
                policy,
                recovery_generations,
            } => write!(
                out,
                "{{\"kind\":\"fault_campaign\",{},\"scenario\":\"{scenario}\",\
                 \"policy\":\"{policy}\",\"recovery_generations\":{recovery_generations},\
                 \"seed\":{seed}}}",
                images(pair)
            ),
            Recipe::Stream {
                size,
                frames,
                shift_at,
                densities,
                generations,
            } => write!(
                out,
                "{{\"source\":{{\"type\":\"synthetic\",\"scene\":\"shapes\",\
                 \"complexity\":{STREAM_COMPLEXITY},\"width\":{size},\"height\":{size},\
                 \"frames\":{frames},\"schedule\":[\
                 {{\"start_frame\":0,\"noise\":{{\"model\":\"salt_pepper\",\"density\":{}}}}},\
                 {{\"start_frame\":{shift_at},\"noise\":{{\"model\":\"salt_pepper\",\"density\":{}}}}}]}},\
                 \"drift_window\":{DRIFT_WINDOW},\"drift_threshold_pct\":{DRIFT_THRESHOLD_PCT},\
                 \"drift_cooldown\":{DRIFT_COOLDOWN},\"generations\":{generations},\"seed\":{seed}}}",
                densities[0], densities[1]
            ),
        }
        .expect("writing to a Vec cannot fail");
    }

    /// The same job built in-process through the `JobSpec` builders — the
    /// spec the correctness references and the in-process passes run.
    pub fn spec(&self) -> JobSpec {
        let images = |pair: &Pair| (pair.input.image.clone(), pair.reference.image.clone());
        let built = match &self.recipe {
            Recipe::Evolution { pair, generations } => {
                let (input, reference) = images(pair);
                JobSpec::evolution(input, reference)
                    .generations(*generations)
                    .seed(self.seed)
                    .build()
            }
            Recipe::Cascade { pair, generations } => {
                let (input, reference) = images(pair);
                JobSpec::cascade(input, reference)
                    .stages(CASCADE_STAGES)
                    .generations(*generations)
                    .seed(self.seed)
                    .build()
            }
            Recipe::Campaign {
                pair,
                scenario,
                policy,
                recovery_generations,
            } => {
                let (input, reference) = images(pair);
                let registry = ScenarioRegistry::builtin();
                JobSpec::fault_campaign(input, reference)
                    .recovery_generations(*recovery_generations)
                    .scenario(
                        registry
                            .scenario(scenario)
                            .expect("builtin scenario")
                            .clone(),
                    )
                    .policy(registry.policy(policy).expect("builtin policy").clone())
                    .seed(self.seed)
                    .build()
            }
            Recipe::Stream {
                size,
                frames,
                shift_at,
                densities,
                generations,
            } => {
                let segment = |start_frame, density| NoiseSegment {
                    start_frame,
                    noise: NoiseModel::SaltPepper { density },
                };
                JobSpec::stream(StreamSourceSpec::Synthetic {
                    scene: SceneKind::Shapes {
                        complexity: STREAM_COMPLEXITY,
                    },
                    width: *size,
                    height: *size,
                    frames: *frames,
                    schedule: vec![segment(0, densities[0]), segment(*shift_at, densities[1])],
                })
                .drift(DriftConfig {
                    window: DRIFT_WINDOW,
                    threshold_pct: DRIFT_THRESHOLD_PCT,
                    cooldown: DRIFT_COOLDOWN,
                })
                .adaptation(AdaptationConfig {
                    generations: *generations,
                    ..AdaptationConfig::default()
                })
                .seed(self.seed)
                .build()
            }
        };
        built.expect("generated specs are valid")
    }
}

fn plan(recipe: Recipe, rng: &mut StdRng) -> JobPlan {
    JobPlan {
        recipe,
        seed: rng.gen(),
        original: None,
    }
}

/// `per_size` noisy/clean pairs per edge length; the same seed always
/// yields the same pool, so warm-up and timed jobs share images.
fn pool(sizes: &[usize], per_size: usize, transport: Transport, rng: &mut StdRng) -> Vec<Pair> {
    let mut pairs = Vec::new();
    for &size in sizes {
        for variant in 0..per_size {
            let clean = synth::shapes(size, size, 3 + variant);
            let density = [0.15, 0.3, 0.45][variant % 3];
            let noisy = salt_pepper(&clean, density, rng);
            pairs.push(Pair {
                input: WireImage::new(noisy, transport),
                reference: WireImage::new(clean, transport),
            });
        }
    }
    pairs
}

fn shared_pool(w: &Workload, seed: u64) -> Vec<Pair> {
    let mut rng = SeedSequence::new(seed).fork(LANE_IMAGES).rng();
    match w.kind {
        Kind::Mixed => pool(&[48, 56, 64], 2, w.transport, &mut rng),
        Kind::TinyJobs => pool(&[48], 8, w.transport, &mut rng),
        // big-evolve shares only its clean scenes; every input is fresh.
        Kind::BigEvolve => [5, 6, 7]
            .into_iter()
            .map(|complexity| {
                let clean =
                    WireImage::new(synth::shapes(BIG_SIZE, BIG_SIZE, complexity), w.transport);
                Pair {
                    input: Arc::clone(&clean),
                    reference: clean,
                }
            })
            .collect(),
    }
}

/// Spreads slot `i` over `range` with a fixed low-discrepancy walk, so every
/// run of a workload asks for the same budgets, in a seed-chosen order.
fn spread(i: usize, range: std::ops::RangeInclusive<usize>) -> usize {
    range.start() + (i * 7919) % (range.end() - range.start() + 1)
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i + 1));
    }
}

fn stream_recipe(slot: usize, generations: usize, frames: usize) -> Recipe {
    Recipe::Stream {
        size: [24, 32][slot % 2],
        frames,
        shift_at: frames / 2,
        densities: [[0.05, 0.1][slot / 2 % 2], [0.3, 0.4][slot / 4 % 2]],
        generations,
    }
}

/// A 128×128 job on a fresh noisy copy of `scene`, so both the window cache
/// and the fitness cache miss.
fn big_job(scene: &Pair, transport: Transport, rng: &mut StdRng, generations: usize) -> JobPlan {
    let density = rng.gen_range(0.1..0.35);
    let noisy = salt_pepper(&scene.reference.image, density, rng);
    let pair = Pair {
        input: WireImage::new(noisy, transport),
        reference: Arc::clone(&scene.reference),
    };
    plan(Recipe::Evolution { pair, generations }, rng)
}

/// The jobs one run submits: `count` plans drawn from `seed`.
///
/// The composition is fixed by `count`: every run of a workload submits the
/// same kinds, budgets, scenario/policy pairs and image-use counts, and the
/// seed picks the images' noise, the order, the job seeds and which earlier
/// jobs are resubmitted.  Run-to-run spread then measures the program, not
/// the luck of the draw.
pub fn generate(w: &Workload, seed: u64, count: usize) -> Vec<JobPlan> {
    let pool = shared_pool(w, seed);
    let mut rng = SeedSequence::new(seed).fork(LANE_JOBS).rng();
    match w.kind {
        Kind::Mixed => mixed(&pool, &mut rng, count),
        Kind::TinyJobs => {
            let mut recipes: Vec<Recipe> = (0..count)
                .map(|i| Recipe::Evolution {
                    pair: pool[i % pool.len()].clone(),
                    generations: 2 + i % 3,
                })
                .collect();
            shuffle(&mut recipes, &mut rng);
            recipes
                .into_iter()
                .map(|recipe| plan(recipe, &mut rng))
                .collect()
        }
        Kind::BigEvolve => (0..count)
            .map(|i| {
                big_job(
                    &pool[i % pool.len()],
                    w.transport,
                    &mut rng,
                    spread(i, 250..=300),
                )
            })
            .collect(),
    }
}

/// Per 25 fresh jobs: 16 evolutions, 3 cascades, 3 fault campaigns and 3
/// streams; then one job in [`RESUBMIT_EVERY`] is an exact resubmit.
fn mixed(pool: &[Pair], rng: &mut StdRng, count: usize) -> Vec<JobPlan> {
    let fresh = count - count / RESUBMIT_EVERY;
    let mut recipes: Vec<Recipe> = (0..fresh)
        .map(|i| {
            let pair = pool[i % pool.len()].clone();
            let slot = i % 25;
            // The index of this job among those of its kind.
            let nth = |first: usize| i / 25 * 3 + slot - first;
            match slot {
                0..=15 => Recipe::Evolution {
                    pair,
                    generations: spread(i, 600..=1400),
                },
                16..=18 => Recipe::Cascade {
                    pair,
                    generations: spread(i, 200..=400),
                },
                19..=21 => Recipe::Campaign {
                    pair,
                    scenario: SCENARIOS[nth(19) % SCENARIOS.len()],
                    policy: POLICIES[nth(19) / SCENARIOS.len() % POLICIES.len()],
                    recovery_generations: spread(i, 40..=70),
                },
                _ => stream_recipe(nth(22), 40, spread(i, 200..=400)),
            }
        })
        .collect();
    shuffle(&mut recipes, rng);
    let mut fresh = recipes.into_iter();
    let mut plans: Vec<JobPlan> = Vec::with_capacity(count);
    for position in 0..count {
        if position % RESUBMIT_EVERY == RESUBMIT_EVERY - 1 {
            // Retries resubmit evolutions, the bulk of the traffic.
            let original = loop {
                let earlier = rng.gen_range(0..position);
                let original = plans[earlier].original.unwrap_or(earlier);
                if plans[original].kind() == "evolution" {
                    break original;
                }
            };
            plans.push(JobPlan {
                original: Some(original),
                ..plans[original].clone()
            });
        } else {
            let recipe = fresh.next().expect("one fresh job per other position");
            plans.push(plan(recipe, rng));
        }
    }
    plans
}

/// The fixed warm-up set a set-up round runs: one short job per pooled
/// image (filling the cross-job window cache before timing) and one of
/// every other kind the workload submits.
pub fn warmup(w: &Workload, seed: u64) -> Vec<JobPlan> {
    let pool = shared_pool(w, seed);
    let mut rng = SeedSequence::new(seed).fork(LANE_WARMUP).rng();
    match w.kind {
        Kind::BigEvolve => pool
            .iter()
            .map(|scene| big_job(scene, w.transport, &mut rng, 400))
            .collect(),
        Kind::TinyJobs | Kind::Mixed => {
            let mut plans: Vec<JobPlan> = pool
                .iter()
                .map(|pair| {
                    let pair = pair.clone();
                    plan(
                        Recipe::Evolution {
                            pair,
                            generations: 2,
                        },
                        &mut rng,
                    )
                })
                .collect();
            if w.kind == Kind::Mixed {
                plans.extend(probes_on(
                    &pool[0],
                    &mut rng,
                    &["cascade", "fault_campaign", "stream"],
                ));
            }
            plans
        }
    }
}

/// One small job of each kind in `kinds` on a 48×48 pair drawn from `seed`.
/// The traced run measures layers a workload never exercises on these, so
/// every per-layer metric exists for every workload.
pub fn probes(seed: u64, kinds: &[&str]) -> Vec<JobPlan> {
    let mut rng = SeedSequence::new(seed).fork(LANE_PROBES).rng();
    let pair = pool(&[48], 1, Transport::PgmBase64, &mut rng).remove(0);
    probes_on(&pair, &mut rng, kinds)
}

fn probes_on(pair: &Pair, rng: &mut StdRng, kinds: &[&str]) -> Vec<JobPlan> {
    kinds
        .iter()
        .map(|&kind| {
            let pair = pair.clone();
            let recipe = match kind {
                "evolution" => Recipe::Evolution {
                    pair,
                    generations: 8,
                },
                "cascade" => Recipe::Cascade {
                    pair,
                    generations: 2,
                },
                "fault_campaign" => Recipe::Campaign {
                    pair,
                    scenario: SCENARIOS[0],
                    policy: POLICIES[0],
                    recovery_generations: 2,
                },
                _ => stream_recipe(0, 2, 16),
            };
            plan(recipe, rng)
        })
        .collect()
}
