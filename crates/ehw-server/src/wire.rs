//! The wire codec: JSON shapes for job specs, results, progress events and
//! the scenario/policy registry.
//!
//! Every shape is declared once, as an impl of the crate's encode/decode
//! trait pair (`ToJson`/`FromJson`), and both directions come from that
//! declaration.  Plain structs (`EngineStats`, the campaign's per-position
//! and per-event results, storm phases) and string-tagged unit enums
//! (`FaultKind`, `CorrelationShape`, `Priority`, `CancelKind`) are declared
//! through two small macros.  Tagged shapes (scenario kinds, target
//! filters, recovery steps, fault behaviours, stream sources, scenes and
//! noise models) decode through a third that takes the one table of their
//! tags; their encoders, and the shapes with flattened or computed members,
//! are written by hand on the same traits.  Decoders read object members
//! only through one member reader (`req` for a required member, `opt` for
//! an optional one), so a missing or mistyped member always comes back as a
//! [`WireError`] naming its path, such as `'input.width' is missing`.
//!
//! Decoding goes through the validating [`JobSpec`] builders, so every spec
//! that crosses the wire obeys the same invariants as an in-process one — a
//! malformed or out-of-range spec is a 400, never a panicking shard.
//! Encoding is a total function of the [`JobResult`]: the integration suite
//! asserts that a result fetched over HTTP is byte-identical to the same
//! job's in-process result run through [`encode_result`], and
//! `tests/wire_golden.rs` pins the bytes themselves.

use std::time::Duration;

use ehw_array::genotype::Genotype;
use ehw_array::pe::FaultBehaviour;
use ehw_evolution::fitness::EngineStats;
use ehw_fabric::FaultKind;
use ehw_image::noise::NoiseModel;
use ehw_image::GrayImage;
use ehw_platform::fault_campaign::{CampaignReport, EventResult, PositionResult};
use ehw_platform::jobs::{
    CancelKind, JobOutput, JobProgress, JobResult, JobSpec, SpecError, StreamSourceSpec,
};
use ehw_platform::scenario::{
    CorrelationShape, FaultScenario, PlannedFault, ScenarioKind, ScenarioRegistry, StormPhase,
    TargetFilter,
};
use ehw_platform::self_healing::{RecoveryPolicy, RecoveryStep};
use ehw_platform::timing::EvolutionTimeEstimate;
use ehw_service::{
    AdaptationConfig, DriftConfig, JobOptions, NoiseSegment, PgmDirSource, Priority, SceneKind,
    SegmentReport, StreamEvent, StreamReport,
};

use crate::base64;
pub use crate::codec::WireError;
use crate::codec::{
    err, expected, json_struct, json_tags, obj, tagged, FromJson, Hex, Obj, ToJson,
};
use crate::json::Value;

json_struct! {
    EngineStats { plans_evaluated, memo_hits, early_exits }
    EvolutionTimeEstimate {
        total_s, reconfiguration_s, evaluation_s, generations, candidates, pe_reconfigurations,
    }
    PositionResult {
        array, row, col, fitness_clean, fitness_faulty, fitness_recovered, evaluations, stats,
    }
    EventResult {
        tick, array, faults, fitness_clean, fitness_faulty, fitness_recovered, evaluations, stats,
    }
    StormPhase { ticks, rate }
}

json_tags! {
    FaultKind { Seu => "seu", Lpd => "lpd" }
    CorrelationShape { Row => "row", Col => "col", Neighborhood => "neighborhood" }
    Priority { High => "high", Normal => "normal", Low => "low" }
    CancelKind { Requested => "requested", DeadlineExpired => "deadline_expired" }
}

// ---------------------------------------------------------------------------
// Job specs
// ---------------------------------------------------------------------------

/// Decodes a `POST /jobs` document into a validated spec plus its options,
/// resolving by-name scenario/policy references against `registry` — the
/// built-in entries plus any a deployment overlays from a registry file.
///
/// ```json
/// {
///   "kind": "evolution" | "cascade" | "fault_campaign" | "stream",
///   "input":     {"width": W, "height": H, "pixels": [..W*H bytes..]},
///   "reference": {"width": W, "height": H, "pixels": [..W*H bytes..]},
///   "generations": N?, "offspring": N?, "mutation_rate": N?,
///   "num_arrays": N?, "stages": N?, "target_fitness": N?, "seed": N?,
///   "baseline": [..13 bytes..]?, "arrays": [N..]?,
///   "recovery_generations": N?, "recovery_mutation_rate": N?,
///   "recovery_offspring": N?, "recovery_target": N?,
///   "scenario": "name"?, "policy": "name"?,
///   "priority": "high" | "normal" | "low"?, "deadline_ms": N?
/// }
/// ```
///
/// Images may alternatively travel as `{"pgm_base64": "..."}` — a
/// base64-encoded binary PGM (P5) body, roughly 3× smaller than the JSON
/// pixel array.
///
/// Stream specs (`POST /streams`) replace the training pair with a
/// `"source"` member plus optional `"initial"` genotype bytes,
/// `"drift_window"`, `"drift_threshold_pct"`, `"drift_cooldown"`,
/// adaptation budgets (`"offspring"`, `"mutation_rate"`, `"generations"`,
/// `"max_millis"`, `"target_fitness"`).  The source is
///
/// ```json
/// {"type": "synthetic", "scene": "shapes", "complexity": 4,
///  "width": W, "height": H, "frames": N,
///  "schedule": [{"start_frame": 0, "noise": {"model": "salt_pepper", "density": 0.2}}, ...]}
/// {"type": "pgm_dir", "dir": "/frames", "reference": "/frames/clean.pgm"}
/// ```
///
/// The `pgm_dir` variant reads **server-side** paths and loads every frame
/// eagerly, so a missing or malformed file is a 400 at submission.
///
/// Unknown kinds, missing images, unresolvable scenario/policy names and
/// builder-validation failures all come back as [`WireError`]s carrying a
/// human-readable reason.
pub fn decode_spec_with(
    doc: &Value,
    registry: &ScenarioRegistry,
) -> Result<(JobSpec, JobOptions), WireError> {
    let r = Obj::new(doc).map_err(|_| err("a spec must be a JSON object"))?;
    // Applies each present member through the builder setter it names.
    macro_rules! set {
        ($builder:ident: $($member:literal => $setter:ident),+ $(,)?) => {
            $(if let Some(value) = r.opt($member)? {
                $builder = $builder.$setter(value);
            })+
        };
    }
    let invalid = |spec_error: SpecError| err(format!("invalid spec: {spec_error}"));
    let spec = match r.req::<&str>("kind")? {
        "evolution" => {
            let mut b = JobSpec::evolution(r.req("input")?, r.req("reference")?);
            set!(b: "offspring" => offspring, "mutation_rate" => mutation_rate,
                "generations" => generations, "num_arrays" => num_arrays,
                "target_fitness" => target_fitness, "seed" => seed);
            b.build()
        }
        "cascade" => {
            let mut b = JobSpec::cascade(r.req("input")?, r.req("reference")?);
            set!(b: "stages" => stages, "generations" => generations, "offspring" => offspring,
                "mutation_rate" => mutation_rate, "seed" => seed);
            b.build()
        }
        "fault_campaign" => {
            let mut b = JobSpec::fault_campaign(r.req("input")?, r.req("reference")?);
            set!(b: "baseline" => baseline, "arrays" => arrays, "num_arrays" => platform_arrays,
                "recovery_generations" => recovery_generations,
                "recovery_mutation_rate" => recovery_mutation_rate,
                "recovery_offspring" => recovery_offspring,
                "recovery_target" => recovery_target, "seed" => seed);
            if let Some(name) = r.opt::<&str>("scenario")? {
                b = b.scenario(registry.scenario(name).map_err(invalid)?.clone());
            }
            if let Some(name) = r.opt::<&str>("policy")? {
                b = b.policy(registry.policy(name).map_err(invalid)?.clone());
            }
            b.build()
        }
        "stream" => {
            let mut b = JobSpec::stream(r.req("source")?);
            let (drift, adaptation) = (DriftConfig::default(), AdaptationConfig::default());
            b = b
                .drift(DriftConfig {
                    window: r.opt("drift_window")?.unwrap_or(drift.window),
                    threshold_pct: r.opt("drift_threshold_pct")?.unwrap_or(drift.threshold_pct),
                    cooldown: r.opt("drift_cooldown")?.unwrap_or(drift.cooldown),
                })
                .adaptation(AdaptationConfig {
                    offspring: r.opt("offspring")?.unwrap_or(adaptation.offspring),
                    mutation_rate: r.opt("mutation_rate")?.unwrap_or(adaptation.mutation_rate),
                    generations: r.opt("generations")?.unwrap_or(adaptation.generations),
                    max_millis: r.opt("max_millis")?.or(adaptation.max_millis),
                    target_fitness: r.opt("target_fitness")?.or(adaptation.target_fitness),
                });
            set!(b: "initial" => initial, "seed" => seed);
            b.build()
        }
        other => return Err(err(format!("unknown job kind '{other}'"))),
    }
    .map_err(invalid)?;
    let options = JobOptions {
        priority: r.opt("priority")?.unwrap_or_default(),
        deadline: r.opt("deadline_ms")?.map(Duration::from_millis),
    };
    Ok((spec, options))
}

/// Images travel as `{"width", "height", "pixels"}` or, compactly, as a
/// base64-encoded binary PGM (P5) body that carries its own dimensions.
impl FromJson<'_> for GrayImage {
    fn from_value(value: &Value) -> Result<Self, WireError> {
        let r = Obj::new(value)?;
        if let Some(encoded) = r.opt::<&str>("pgm_base64")? {
            let bytes =
                base64::decode(encoded).map_err(|reason| err(format!("'pgm_base64': {reason}")))?;
            return ehw_image::pgm::decode(&bytes)
                .map_err(|reason| err(format!("'pgm_base64' is not a valid PGM: {reason}")));
        }
        let (width, height): (usize, usize) = (r.req("width")?, r.req("height")?);
        let pixels: Vec<u8> = r.req("pixels")?;
        let needed = width.saturating_mul(height);
        if pixels.len() != needed {
            let found = pixels.len();
            return Err(err(format!(
                "has {found} pixels but {width}x{height} needs {needed}"
            )));
        }
        if needed == 0 {
            return Err(err("must be at least 1x1"));
        }
        Ok(GrayImage::from_vec(width, height, pixels))
    }
}

/// Genotypes travel as their compact [`Genotype::encode`] byte strings — the
/// same 13 bytes the MicroBlaze would hold — so clients can
/// [`Genotype::decode`] them and byte-compare against local runs.
impl ToJson for Genotype {
    fn to_value(&self) -> Value {
        self.encode().to_value()
    }
}

impl FromJson<'_> for Genotype {
    fn from_value(value: &Value) -> Result<Self, WireError> {
        Genotype::decode(&Vec::<u8>::from_value(value)?)
            .ok_or_else(|| err("is too short to decode as a genotype"))
    }
}

impl FromJson<'_> for StreamSourceSpec {
    fn from_value(value: &Value) -> Result<Self, WireError> {
        let r = Obj::new(value)?;
        Ok(tagged!(r, "type" {
            "synthetic" => StreamSourceSpec::Synthetic {
                scene: decode_scene(&r)?,
                width: r.req("width")?,
                height: r.req("height")?,
                frames: r.req("frames")?,
                schedule: r.req("schedule")?,
            },
            "pgm_dir" => PgmDirSource::new(r.req::<&str>("dir")?, r.req::<&str>("reference")?)
                .map(StreamSourceSpec::PgmDir)
                .map_err(|reason| err(format!("invalid pgm_dir source: {reason}")))?,
        }))
    }
}

/// The scene of a synthetic source: its tag and parameters sit flat in the
/// source object.
fn decode_scene(r: &Obj) -> Result<SceneKind, WireError> {
    Ok(tagged!(r, "scene" {
        "shapes" => SceneKind::Shapes { complexity: r.req("complexity")? },
        "gradient" => SceneKind::Gradient,
        "diagonal_gradient" => SceneKind::DiagonalGradient,
        "checkerboard" => SceneKind::Checkerboard { cell: r.req("cell")? },
        "step_edge" => SceneKind::StepEdge,
        "rings" => SceneKind::Rings { period: r.req("period")? },
    }))
}

impl FromJson<'_> for NoiseSegment {
    fn from_value(value: &Value) -> Result<Self, WireError> {
        let r = Obj::new(value)?;
        Ok(NoiseSegment {
            start_frame: r.req("start_frame")?,
            noise: r.req("noise")?,
        })
    }
}

impl FromJson<'_> for NoiseModel {
    fn from_value(value: &Value) -> Result<Self, WireError> {
        let r = Obj::new(value)?;
        Ok(tagged!(r, "model" {
            "salt_pepper" => NoiseModel::SaltPepper { density: r.req("density")? },
            "gaussian" => NoiseModel::Gaussian { sigma: r.req("sigma")? },
            "uniform_impulse" => NoiseModel::UniformImpulse { density: r.req("density")? },
            "burst" => NoiseModel::Burst { bursts: r.req("bursts")?, size: r.req("size")? },
        }))
    }
}

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

/// Encodes a settled result as the `result` member of a status document.
pub fn encode_result(result: &JobResult) -> Value {
    result.to_value()
}

impl ToJson for JobResult {
    fn to_value(&self) -> Value {
        obj(&[
            ("job_id", &self.job_id),
            ("seed", &self.seed),
            ("evaluations", &self.evaluations),
            ("stats", &self.stats),
            ("output", &self.output),
        ])
    }
}

impl ToJson for JobOutput {
    fn to_value(&self) -> Value {
        match self {
            JobOutput::Evolution { result, time } => obj(&[
                ("type", &"evolution"),
                ("best_genotype", &result.best_genotype),
                ("best_fitness", &result.best_fitness),
                ("initial_fitness", &result.initial_fitness),
                ("history", &result.history),
                ("generations_run", &result.generations_run),
                (
                    "total_pe_reconfigurations",
                    &result.total_pe_reconfigurations,
                ),
                ("time", time),
            ]),
            JobOutput::Cascade(cascade) => obj(&[
                ("type", &"cascade"),
                ("stage_genotypes", &cascade.stage_genotypes),
                ("stage_fitness", &cascade.stage_fitness),
            ]),
            JobOutput::FaultCampaign(report) => report.to_value(),
            JobOutput::Stream(report) => report.to_value(),
            JobOutput::Failed(message) => obj(&[("type", &"failed"), ("message", message)]),
            JobOutput::Cancelled(kind) => obj(&[("type", &"cancelled"), ("reason", kind)]),
        }
    }
}

/// `output_hash` is a full-range u64, so like `image_hash` it travels as a
/// fixed-width hex string rather than a JSON number.
impl ToJson for StreamReport {
    fn to_value(&self) -> Value {
        obj(&[
            ("type", &"stream"),
            ("frames", &self.frames),
            ("drift_events", &self.drift_events),
            ("adaptations_attempted", &self.adaptations_attempted),
            ("adaptations_applied", &self.adaptations_applied),
            ("initial_fitness", &self.initial_fitness),
            ("final_fitness", &self.final_fitness),
            ("segments", &self.segments),
            ("final_genotype", &self.final_genotype),
            ("output_hash", &Hex(self.output_hash)),
        ])
    }
}

impl ToJson for SegmentReport {
    fn to_value(&self) -> Value {
        obj(&[
            ("start_frame", &self.start_frame),
            ("frames", &self.frames),
            ("fitness_sum", &self.fitness_sum),
            ("mean_fitness", &self.mean_fitness()),
        ])
    }
}

// ---------------------------------------------------------------------------
// Campaign reports
// ---------------------------------------------------------------------------

/// Encodes a campaign report as the `output` member of a result document:
/// the legacy `positions` view (single-PE sweeps), the generalised `events`
/// view (every other scenario kind), and the scenario/policy labels plus
/// aggregates a [`ResilienceReport`](ehw_platform::scenario::ResilienceReport)
/// row is built from.
pub fn encode_campaign_report(report: &CampaignReport) -> Value {
    report.to_value()
}

/// Decodes a `fault_campaign` output document back into a [`CampaignReport`]
/// — the client-side half of the codec, used to fold per-job HTTP results
/// into one [`ResilienceReport`](ehw_platform::scenario::ResilienceReport).
/// Lossless against [`encode_campaign_report`]: the round trip is
/// byte-identical (`PartialEq` on the report).
pub fn decode_campaign_report(value: &Value) -> Result<CampaignReport, WireError> {
    CampaignReport::from_value(value)
}

impl ToJson for CampaignReport {
    fn to_value(&self) -> Value {
        obj(&[
            ("type", &"fault_campaign"),
            ("scenario", &self.scenario),
            ("policy", &self.policy),
            ("positions", &self.positions),
            ("events", &self.events),
            ("critical_positions", &self.critical_positions()),
            (
                "fully_recovered_positions",
                &self.fully_recovered_positions(),
            ),
            ("mean_recovery_ratio", &self.mean_recovery_ratio()),
        ])
    }
}

impl FromJson<'_> for CampaignReport {
    fn from_value(value: &Value) -> Result<Self, WireError> {
        let r = Obj::new(value)?;
        if !matches!(r.opt("type"), Ok(Some("fault_campaign"))) {
            return Err(err("not a fault_campaign output"));
        }
        Ok(CampaignReport {
            scenario: r.req("scenario")?,
            policy: r.req("policy")?,
            positions: r.req("positions")?,
            events: r.req("events")?,
        })
    }
}

/// The fault's behaviour sits flat in the fault object: a `behaviour` tag
/// plus `behaviour_seed` or `behaviour_value` where the variant has one.
impl ToJson for PlannedFault {
    fn to_value(&self) -> Value {
        let mut members: Vec<(&str, &dyn ToJson)> =
            vec![("row", &self.row), ("col", &self.col), ("kind", &self.kind)];
        match &self.behaviour {
            FaultBehaviour::RandomOutput { seed } => {
                members.push(("behaviour", &"random_output"));
                members.push(("behaviour_seed", seed));
            }
            FaultBehaviour::StuckAt { value } => {
                members.push(("behaviour", &"stuck_at"));
                members.push(("behaviour_value", value));
            }
            FaultBehaviour::InvertedOutput => members.push(("behaviour", &"inverted_output")),
        }
        obj(&members)
    }
}

impl FromJson<'_> for PlannedFault {
    fn from_value(value: &Value) -> Result<Self, WireError> {
        let r = Obj::new(value)?;
        let behaviour = tagged!(r, "behaviour" {
            "random_output" => FaultBehaviour::RandomOutput { seed: r.req("behaviour_seed")? },
            "stuck_at" => FaultBehaviour::StuckAt { value: r.req("behaviour_value")? },
            "inverted_output" => FaultBehaviour::InvertedOutput,
        });
        Ok(PlannedFault {
            row: r.req("row")?,
            col: r.req("col")?,
            behaviour,
            kind: r.req("kind")?,
        })
    }
}

// ---------------------------------------------------------------------------
// Scenario / policy registry
// ---------------------------------------------------------------------------

/// A `(row, col)` position travels as a two-element array.
impl ToJson for (usize, usize) {
    fn to_value(&self) -> Value {
        [self.0, self.1].to_value()
    }
}

impl FromJson<'_> for (usize, usize) {
    fn from_value(value: &Value) -> Result<Self, WireError> {
        match Vec::<usize>::from_value(value)?.as_slice() {
            &[row, col] => Ok((row, col)),
            _ => Err(expected("a [row, col] pair")),
        }
    }
}

impl ToJson for TargetFilter {
    fn to_value(&self) -> Value {
        match self {
            TargetFilter::All => obj(&[("type", &"all")]),
            TargetFilter::Rows(rows) => obj(&[("type", &"rows"), ("rows", rows)]),
            TargetFilter::Cols(cols) => obj(&[("type", &"cols"), ("cols", cols)]),
            TargetFilter::Positions(positions) => {
                obj(&[("type", &"positions"), ("positions", positions)])
            }
        }
    }
}

impl FromJson<'_> for TargetFilter {
    fn from_value(value: &Value) -> Result<Self, WireError> {
        let r = Obj::new(value)?;
        Ok(tagged!(r, "type" {
            "all" => TargetFilter::All,
            "rows" => TargetFilter::Rows(r.req("rows")?),
            "cols" => TargetFilter::Cols(r.req("cols")?),
            "positions" => TargetFilter::Positions(r.req("positions")?),
        }))
    }
}

/// The scenario kind sits flat in the scenario object: a `kind` tag plus
/// the kind's parameters.  Decoding validates the whole scenario.
impl ToJson for FaultScenario {
    fn to_value(&self) -> Value {
        let tag = self.kind.tag();
        let mut members: Vec<(&str, &dyn ToJson)> = vec![("name", &self.name), ("kind", &tag)];
        match &self.kind {
            ScenarioKind::SingleSweep | ScenarioKind::PermanentLpd => {}
            ScenarioKind::MultiPe { k } => members.push(("k", k)),
            ScenarioKind::Correlated { shape } => members.push(("shape", shape)),
            ScenarioKind::Burst { rate, width } => {
                members.push(("rate", rate));
                members.push(("width", width));
            }
            ScenarioKind::RateSweep { rates } => members.push(("rates", rates)),
            ScenarioKind::Storm { schedule } => members.push(("schedule", schedule)),
        }
        members.push(("filter", &self.filter));
        members.push(("stream", &self.stream));
        obj(&members)
    }
}

impl FromJson<'_> for FaultScenario {
    fn from_value(value: &Value) -> Result<Self, WireError> {
        let r = Obj::new(value)?;
        let name: &str = r.req("name")?;
        let kind = tagged!(r, "kind" {
            "single_sweep" => ScenarioKind::SingleSweep,
            "multi_pe" => ScenarioKind::MultiPe { k: r.req("k")? },
            "correlated" => ScenarioKind::Correlated { shape: r.req("shape")? },
            "burst" => ScenarioKind::Burst { rate: r.req("rate")?, width: r.req("width")? },
            "permanent_lpd" => ScenarioKind::PermanentLpd,
            "rate_sweep" => ScenarioKind::RateSweep { rates: r.req("rates")? },
            "storm" => ScenarioKind::Storm { schedule: r.req("schedule")? },
        });
        let mut scenario = FaultScenario::new(name, kind);
        if let Some(filter) = r.opt("filter")? {
            scenario = scenario.with_filter(filter);
        }
        if let Some(stream) = r.opt("stream")? {
            scenario = scenario.with_stream(stream);
        }
        scenario
            .validate()
            .map_err(|reason| err(format!("scenario '{name}': {reason}")))?;
        Ok(scenario)
    }
}

impl ToJson for RecoveryStep {
    fn to_value(&self) -> Value {
        match self {
            RecoveryStep::Scrub { attempts } => obj(&[("step", &"scrub"), ("attempts", attempts)]),
            RecoveryStep::TmrRemap => obj(&[("step", &"tmr_remap")]),
            RecoveryStep::Reevolve {
                generations,
                max_millis,
            } => obj(&[
                ("step", &"reevolve"),
                ("generations", generations),
                ("max_millis", max_millis),
            ]),
        }
    }
}

impl FromJson<'_> for RecoveryStep {
    fn from_value(value: &Value) -> Result<Self, WireError> {
        let r = Obj::new(value)?;
        Ok(tagged!(r, "step" {
            // An absent attempt count means one pass; a present one must be
            // an integer.
            "scrub" => RecoveryStep::Scrub { attempts: r.opt("attempts")?.unwrap_or(1) },
            "tmr_remap" => RecoveryStep::TmrRemap,
            "reevolve" => RecoveryStep::Reevolve {
                generations: r.opt("generations")?.flatten(),
                max_millis: r.opt("max_millis")?.flatten(),
            },
        }))
    }
}

/// A registry entry: the policy's name, its ladder and, on the way out, its
/// [`RecoveryPolicy::describe`] label.  Decoding validates the ladder.
impl ToJson for (String, RecoveryPolicy) {
    fn to_value(&self) -> Value {
        let (name, policy) = self;
        obj(&[
            ("name", name),
            ("label", &policy.describe()),
            ("steps", &policy.steps),
            ("stop_margin", &policy.stop_margin),
        ])
    }
}

impl FromJson<'_> for (String, RecoveryPolicy) {
    fn from_value(value: &Value) -> Result<Self, WireError> {
        let r = Obj::new(value)?;
        let name: String = r.req("name")?;
        let policy = RecoveryPolicy {
            steps: r.req("steps")?,
            stop_margin: r.opt("stop_margin")?.flatten(),
        };
        policy
            .validate()
            .map_err(|reason| err(format!("policy '{name}': {reason}")))?;
        Ok((name, policy))
    }
}

/// Encodes the full registry as the `GET /registry` document:
/// `{"scenarios": [...], "policies": [...]}`, each entry carrying its
/// name plus enough structure for a client to reproduce the schedule
/// locally.
pub fn encode_registry(registry: &ScenarioRegistry) -> Value {
    obj(&[
        ("scenarios", &registry.scenarios()),
        ("policies", &registry.policies()),
    ])
}

/// Parses a registry document (same shape [`encode_registry`] emits) as an
/// overlay on the built-in entries: named scenarios/policies are added, or
/// replace builtins of the same name.  Every entry is validated — a
/// malformed scenario or ladder, or a document that is not an object,
/// rejects the whole document, so a server never starts with a half-usable
/// registry.
pub fn parse_registry(doc: &Value) -> Result<ScenarioRegistry, WireError> {
    let r = Obj::new(doc).map_err(|_| err("a registry document must be a JSON object"))?;
    let mut registry = ScenarioRegistry::builtin();
    for scenario in r
        .opt::<Vec<FaultScenario>>("scenarios")?
        .unwrap_or_default()
    {
        registry.insert_scenario(scenario);
    }
    let policies = r.opt::<Vec<(String, RecoveryPolicy)>>("policies")?;
    for (name, policy) in policies.unwrap_or_default() {
        registry.insert_policy(name, policy);
    }
    Ok(registry)
}

// ---------------------------------------------------------------------------
// Progress events and errors
// ---------------------------------------------------------------------------

/// Encodes one progress event as a single NDJSON line (no trailing newline).
/// Stream jobs additionally carry a `stream` member tagging the phase
/// (`frame`, `drift` or `adaptation`) with its per-phase fields.
pub fn encode_event(sequence: usize, event: &JobProgress) -> Value {
    let mut members: Vec<(&str, &dyn ToJson)> = vec![
        ("sequence", &sequence),
        ("generation", &event.generation),
        ("best_fitness", &event.best_fitness),
    ];
    if let Some(stream) = &event.stream {
        members.push(("stream", stream));
    }
    obj(&members)
}

impl ToJson for StreamEvent {
    fn to_value(&self) -> Value {
        match self {
            StreamEvent::Frame { index, fitness } => {
                obj(&[("phase", &"frame"), ("frame", index), ("fitness", fitness)])
            }
            StreamEvent::Drift {
                frame,
                window_fitness,
                baseline_fitness,
            } => obj(&[
                ("phase", &"drift"),
                ("frame", frame),
                ("window_fitness", window_fitness),
                ("baseline_fitness", baseline_fitness),
            ]),
            StreamEvent::Adaptation {
                frame,
                index,
                accepted,
                incumbent_fitness,
                candidate_fitness,
                generations_run,
            } => obj(&[
                ("phase", &"adaptation"),
                ("frame", frame),
                ("adaptation", index),
                ("accepted", accepted),
                ("incumbent_fitness", incumbent_fitness),
                ("candidate_fitness", candidate_fitness),
                ("generations_run", generations_run),
            ]),
        }
    }
}

/// Encodes an error payload (`{"error": ...}`).
pub fn encode_error(message: impl Into<String>) -> Value {
    let message: String = message.into();
    obj(&[("error", &message)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    /// Decodes against the built-in registry.
    fn decode_spec(doc: &Value) -> Result<(JobSpec, JobOptions), WireError> {
        decode_spec_with(doc, &ScenarioRegistry::builtin())
    }

    fn image_doc(width: usize, height: usize) -> String {
        let pixels: Vec<String> = (0..width * height)
            .map(|i| ((i * 37) % 256).to_string())
            .collect();
        format!(
            "{{\"width\":{width},\"height\":{height},\"pixels\":[{}]}}",
            pixels.join(",")
        )
    }

    #[test]
    fn evolution_specs_decode_through_the_builder() {
        let doc = parse(&format!(
            "{{\"kind\":\"evolution\",\"input\":{img},\"reference\":{img},\
             \"generations\":7,\"offspring\":5,\"mutation_rate\":2,\"seed\":42,\
             \"priority\":\"high\",\"deadline_ms\":1500}}",
            img = image_doc(8, 8)
        ))
        .unwrap();
        let (spec, options) = decode_spec(&doc).unwrap();
        assert_eq!(spec.kind(), "evolution");
        assert_eq!(spec.seed(), Some(42));
        assert_eq!(options.priority, Priority::High);
        assert_eq!(
            options.deadline,
            Some(std::time::Duration::from_millis(1500))
        );
    }

    #[test]
    fn builder_validation_errors_surface_as_wire_errors() {
        let doc = parse(&format!(
            "{{\"kind\":\"evolution\",\"input\":{img},\"reference\":{img},\"offspring\":0}}",
            img = image_doc(4, 4)
        ))
        .unwrap();
        let error = decode_spec(&doc).unwrap_err();
        assert!(error.0.contains("invalid spec"), "{error}");
    }

    #[test]
    fn image_shape_mismatches_are_rejected() {
        let doc = parse(
            "{\"kind\":\"evolution\",\
             \"input\":{\"width\":3,\"height\":3,\"pixels\":[1,2,3]},\
             \"reference\":{\"width\":3,\"height\":3,\"pixels\":[1,2,3]}}",
        )
        .unwrap();
        let error = decode_spec(&doc).unwrap_err();
        assert!(error.0.contains("pixels"), "{error}");
    }

    #[test]
    fn unknown_kinds_are_rejected() {
        let doc = parse(&format!(
            "{{\"kind\":\"teleport\",\"input\":{img},\"reference\":{img}}}",
            img = image_doc(4, 4)
        ))
        .unwrap();
        assert!(decode_spec(&doc)
            .unwrap_err()
            .0
            .contains("unknown job kind"));
    }

    #[test]
    fn genotypes_in_results_round_trip_through_their_byte_encoding() {
        use ehw_platform::jobs::execute;
        use ehw_platform::EhwPlatform;

        let input = GrayImage::from_vec(8, 8, (0..64).map(|i| (i * 3) as u8).collect());
        let reference = GrayImage::from_vec(8, 8, (0..64).map(|i| (i * 5) as u8).collect());
        let spec = JobSpec::evolution(input, reference)
            .generations(3)
            .seed(7)
            .build()
            .unwrap();
        let mut platform = EhwPlatform::new(spec.arrays_needed());
        let result = execute(&mut platform, &spec, 7);
        let encoded = encode_result(&result);
        let bytes =
            Vec::<u8>::from_value(encoded.get("output").unwrap().get("best_genotype").unwrap())
                .unwrap();
        let decoded = Genotype::decode(&bytes).unwrap();
        assert_eq!(&decoded, result.best_genotype().unwrap());
    }

    fn test_image(width: usize, height: usize) -> GrayImage {
        GrayImage::from_vec(
            width,
            height,
            (0..width * height)
                .map(|i| ((i * 37) % 256) as u8)
                .collect(),
        )
    }

    #[test]
    fn base64_pgm_bodies_decode_to_the_same_image_as_pixel_arrays() {
        let image = test_image(8, 8);
        let pgm = crate::base64::encode(&ehw_image::pgm::encode_p5(&image));
        let doc = parse(&format!(
            "{{\"kind\":\"evolution\",\
             \"input\":{{\"pgm_base64\":\"{pgm}\"}},\
             \"reference\":{{\"pgm_base64\":\"{pgm}\"}},\
             \"generations\":2,\"seed\":9}}"
        ))
        .unwrap();
        let (spec, _) = decode_spec(&doc).unwrap();
        assert_eq!(spec.kind(), "evolution");

        // The compact body is the point: for this image the base64 PGM is
        // roughly 3x smaller than the JSON pixel-array encoding.
        let json_pixels = image_doc(8, 8).len();
        let base64_body = format!("{{\"pgm_base64\":\"{pgm}\"}}").len();
        assert!(
            json_pixels as f64 / base64_body as f64 > 2.0,
            "expected a compact transport: {json_pixels} vs {base64_body}"
        );
    }

    #[test]
    fn malformed_base64_images_are_rejected_with_the_field_name() {
        let doc = parse(
            "{\"kind\":\"evolution\",\
             \"input\":{\"pgm_base64\":\"!!!\"},\
             \"reference\":{\"pgm_base64\":\"!!!\"}}",
        )
        .unwrap();
        let error = decode_spec(&doc).unwrap_err();
        assert!(error.0.contains("input.pgm_base64"), "{error}");
    }

    #[test]
    fn campaign_reports_round_trip_through_the_wire_codec() {
        use ehw_evolution::fitness::EngineStats;
        use ehw_platform::fault_campaign::{EventResult, PositionResult};

        let report = CampaignReport {
            scenario: "burst".to_string(),
            policy: "scrub+reevolve@0".to_string(),
            positions: vec![PositionResult {
                array: 0,
                row: 1,
                col: 2,
                fitness_clean: 10,
                fitness_faulty: 90,
                fitness_recovered: 12,
                evaluations: 7,
                stats: EngineStats {
                    plans_evaluated: 5,
                    memo_hits: 1,
                    early_exits: 2,
                },
            }],
            events: vec![EventResult {
                tick: 3,
                array: 1,
                faults: vec![
                    PlannedFault {
                        row: 0,
                        col: 3,
                        behaviour: FaultBehaviour::RandomOutput { seed: 77 },
                        kind: FaultKind::Seu,
                    },
                    PlannedFault {
                        row: 2,
                        col: 1,
                        behaviour: FaultBehaviour::StuckAt { value: 0 },
                        kind: FaultKind::Lpd,
                    },
                    PlannedFault {
                        row: 3,
                        col: 3,
                        behaviour: FaultBehaviour::InvertedOutput,
                        kind: FaultKind::Seu,
                    },
                ],
                fitness_clean: 4,
                fitness_faulty: 40,
                fitness_recovered: 4,
                evaluations: 3,
                stats: EngineStats::default(),
            }],
        };
        let decoded = decode_campaign_report(&encode_campaign_report(&report)).unwrap();
        assert_eq!(decoded, report);
    }

    #[test]
    fn the_builtin_registry_round_trips_through_its_json_document() {
        let registry = ScenarioRegistry::builtin();
        let doc = encode_registry(&registry);
        let parsed = parse_registry(&parse(&doc.to_json()).unwrap()).unwrap();
        assert_eq!(
            parsed
                .scenarios()
                .iter()
                .map(|s| &s.name)
                .collect::<Vec<_>>(),
            registry
                .scenarios()
                .iter()
                .map(|s| &s.name)
                .collect::<Vec<_>>()
        );
        for (name, policy) in registry.policies() {
            assert_eq!(parsed.policy(name).unwrap(), policy);
        }
        for scenario in registry.scenarios() {
            assert_eq!(parsed.scenario(&scenario.name).unwrap(), scenario);
        }
    }

    #[test]
    fn campaign_specs_resolve_scenario_and_policy_names_from_the_registry() {
        let doc = parse(&format!(
            "{{\"kind\":\"fault_campaign\",\"input\":{img},\"reference\":{img},\
             \"scenario\":\"burst\",\"policy\":\"scrub_then_reevolve\",\
             \"recovery_generations\":2,\"seed\":11}}",
            img = image_doc(8, 8)
        ))
        .unwrap();
        let (spec, _) = decode_spec_with(&doc, &ScenarioRegistry::builtin()).unwrap();
        let JobSpec::FaultCampaign(campaign) = &spec else {
            panic!("expected a fault campaign spec");
        };
        assert_eq!(campaign.scenario().name, "burst");
        assert_eq!(campaign.policy().describe(), "scrub+reevolve@0");
    }

    #[test]
    fn unknown_scenario_and_policy_names_are_structured_errors() {
        for (field, needle) in [
            ("\"scenario\":\"meteor\"", "unknown fault scenario 'meteor'"),
            ("\"policy\":\"prayer\"", "unknown recovery policy 'prayer'"),
        ] {
            let doc = parse(&format!(
                "{{\"kind\":\"fault_campaign\",\"input\":{img},\"reference\":{img},{field}}}",
                img = image_doc(8, 8)
            ))
            .unwrap();
            let error = decode_spec(&doc).unwrap_err();
            assert!(error.0.contains(needle), "{error}");
            assert!(error.0.contains("/registry"), "{error}");
        }
    }

    #[test]
    fn registry_files_overlay_the_builtins_and_reject_malformed_entries() {
        let doc = parse(
            "{\"scenarios\":[{\"name\":\"row_zero\",\"kind\":\"correlated\",\
              \"shape\":\"row\",\"filter\":{\"type\":\"rows\",\"rows\":[0]},\"stream\":3}],\
             \"policies\":[{\"name\":\"gentle\",\"steps\":[{\"step\":\"scrub\",\"attempts\":2},\
              {\"step\":\"reevolve\",\"generations\":4}],\"stop_margin\":1}]}",
        )
        .unwrap();
        let registry = parse_registry(&doc).unwrap();
        // Builtins survive the overlay...
        assert!(registry.scenario("single_sweep").is_ok());
        assert!(registry.policy("full_ladder").is_ok());
        // ...and the file's entries resolve.
        let scenario = registry.scenario("row_zero").unwrap();
        assert_eq!(scenario.stream, 3);
        assert_eq!(
            registry.policy("gentle").unwrap().describe(),
            "scrub(2)+reevolve(4)@1"
        );

        // A malformed ladder rejects the whole document.
        let bad = parse(
            "{\"policies\":[{\"name\":\"broken\",\"steps\":[{\"step\":\"scrub\",\"attempts\":0}]}]}",
        )
        .unwrap();
        let error = parse_registry(&bad).unwrap_err();
        assert!(error.0.contains("broken"), "{error}");

        // So does a geometrically impossible scenario.
        let bad =
            parse("{\"scenarios\":[{\"name\":\"huge\",\"kind\":\"multi_pe\",\"k\":0}]}").unwrap();
        let error = parse_registry(&bad).unwrap_err();
        assert!(error.0.contains("huge"), "{error}");
    }

    fn stream_doc() -> String {
        "{\"kind\":\"stream\",\
         \"source\":{\"type\":\"synthetic\",\"scene\":\"shapes\",\"complexity\":4,\
           \"width\":16,\"height\":16,\"frames\":10,\
           \"schedule\":[\
             {\"start_frame\":0,\"noise\":{\"model\":\"salt_pepper\",\"density\":0.1}},\
             {\"start_frame\":6,\"noise\":{\"model\":\"gaussian\",\"sigma\":25.0}}]},\
         \"drift_window\":3,\"drift_threshold_pct\":140,\"drift_cooldown\":4,\
         \"offspring\":5,\"generations\":8,\"max_millis\":2000,\"seed\":42}"
            .to_string()
    }

    #[test]
    fn stream_specs_decode_through_the_builder() {
        let doc = parse(&stream_doc()).unwrap();
        let (spec, _) = decode_spec(&doc).unwrap();
        assert_eq!(spec.kind(), "stream");
        assert_eq!(spec.seed(), Some(42));
        let JobSpec::Stream(stream) = &spec else {
            panic!("expected a stream spec");
        };
        assert_eq!(stream.drift().window, 3);
        assert_eq!(stream.drift().threshold_pct, 140);
        assert_eq!(stream.drift().cooldown, 4);
        assert_eq!(stream.adaptation().offspring, 5);
        assert_eq!(stream.adaptation().generations, 8);
        assert_eq!(stream.adaptation().max_millis, Some(2000));
    }

    #[test]
    fn malformed_stream_sources_are_rejected_with_context() {
        for (patch, needle) in [
            (
                "\"source\":{\"type\":\"synthetic\",\"scene\":\"shapes\",\"complexity\":4,\
                 \"width\":16,\"height\":16,\"frames\":10,\"schedule\":[]}",
                "schedule",
            ),
            (
                "\"source\":{\"type\":\"synthetic\",\"scene\":\"moire\",\
                 \"width\":16,\"height\":16,\"frames\":10,\
                 \"schedule\":[{\"start_frame\":0,\
                   \"noise\":{\"model\":\"salt_pepper\",\"density\":0.1}}]}",
                "scene",
            ),
            (
                "\"source\":{\"type\":\"webcam\"}",
                "must be \"synthetic\" or \"pgm_dir\"",
            ),
        ] {
            let doc = parse(&format!("{{\"kind\":\"stream\",{patch},\"seed\":1}}")).unwrap();
            let error = decode_spec(&doc).unwrap_err();
            assert!(error.0.contains(needle), "{patch} -> {error}");
        }
    }

    #[test]
    fn stream_results_and_events_carry_their_stream_members() {
        use ehw_platform::jobs::execute;
        use ehw_platform::EhwPlatform;

        let doc = parse(&stream_doc()).unwrap();
        let (spec, _) = decode_spec(&doc).unwrap();
        let mut platform = EhwPlatform::new(spec.arrays_needed());
        let result = execute(&mut platform, &spec, 42);
        let report = result.as_stream().expect("stream output").clone();

        let encoded = encode_result(&result);
        let output = encoded.get("output").unwrap();
        assert_eq!(output.get("type").and_then(Value::as_str), Some("stream"));
        assert_eq!(
            output.get("frames").and_then(Value::as_u64),
            Some(report.frames as u64)
        );
        assert_eq!(
            output.get("drift_events").and_then(Value::as_u64),
            Some(report.drift_events as u64)
        );
        assert_eq!(
            output.get("final_fitness").and_then(Value::as_u64),
            report.final_fitness
        );
        let segments = output.get("segments").and_then(Value::as_array).unwrap();
        assert_eq!(segments.len(), report.segments.len());
        let hash = output.get("output_hash").and_then(Value::as_str).unwrap();
        assert_eq!(hash, format!("{:016x}", report.output_hash));

        let frame = StreamEvent::Frame {
            index: 4,
            fitness: 123,
        };
        let event = JobProgress {
            generation: 4,
            best_fitness: Some(123),
            stream: Some(frame),
        };
        let line = encode_event(4, &event);
        let member = line.get("stream").expect("stream member");
        assert_eq!(member.get("phase").and_then(Value::as_str), Some("frame"));
        assert_eq!(member.get("frame").and_then(Value::as_u64), Some(4));
        assert_eq!(member.get("fitness").and_then(Value::as_u64), Some(123));
    }

    #[test]
    fn scrub_attempts_must_be_integers_when_present() {
        let registry = |attempts: &str| {
            parse_registry(
                &parse(&format!(
                    "{{\"policies\":[{{\"name\":\"p\",\"steps\":[{{\"step\":\"scrub\"{attempts}}}]}}]}}"
                ))
                .unwrap(),
            )
        };
        for bad in ["\"three\"", "-2", "2.5", "null"] {
            let error = registry(&format!(",\"attempts\":{bad}")).unwrap_err();
            assert!(error.0.contains("attempts"), "{bad} -> {error}");
        }
        // An absent count still means one pass.
        let steps = registry("").unwrap().policy("p").unwrap().steps.clone();
        assert_eq!(steps, vec![RecoveryStep::Scrub { attempts: 1 }]);
    }

    #[test]
    fn registry_documents_must_be_objects() {
        for text in ["[]", "42", "\"x\"", "null"] {
            let error = parse_registry(&parse(text).unwrap()).unwrap_err();
            assert!(error.0.contains("object"), "{text} -> {error}");
        }
    }
}
