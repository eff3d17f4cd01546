//! Wire codec property suite: what the job server reads from a socket or a
//! file either decodes or is refused, and what it writes reads back.
//!
//! Two properties pin `ehw_server::wire`:
//!
//! * **Round trips.**  Random campaign reports and registries of random
//!   valid scenarios and policy ladders survive encode → JSON text → parse →
//!   decode unchanged.
//! * **No panics.**  Valid documents mutated at random — members dropped,
//!   values swapped for another JSON type, numbers made negative,
//!   fractional, 2^64 or 1e300, arrays and strings emptied or blown up —
//!   make every decoder return `Ok` or `Err`, never panic.

use ehw_array::pe::FaultBehaviour;
use ehw_evolution::fitness::EngineStats;
use ehw_fabric::FaultKind;
use ehw_platform::fault_campaign::{CampaignReport, EventResult, PositionResult};
use ehw_platform::jobs::MAX_JOB_WORK;
use ehw_platform::scenario::{
    CorrelationShape, FaultScenario, PlannedFault, ScenarioKind, ScenarioRegistry, StormPhase,
    TargetFilter,
};
use ehw_platform::self_healing::{RecoveryPolicy, RecoveryStep};
use ehw_server::json::{parse, Number, Value};
use ehw_server::wire::{
    decode_campaign_report, decode_spec_with, encode_campaign_report, encode_registry,
    parse_registry,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------------------
// Random values
// ---------------------------------------------------------------------------

/// A short string that exercises the writer's escapes and multi-byte UTF-8.
fn label(rng: &mut StdRng) -> String {
    const PIECES: [&str; 9] = ["a", "burst", "\"", "\\", "\n", "\u{1}", "ü", "✓", "😀"];
    (0..rng.gen_range(0..8))
        .map(|_| PIECES[rng.gen_range(0..PIECES.len())])
        .collect()
}

fn stats(rng: &mut StdRng) -> EngineStats {
    EngineStats {
        plans_evaluated: rng.gen(),
        memo_hits: rng.gen(),
        early_exits: rng.gen(),
    }
}

fn planned_fault(rng: &mut StdRng) -> PlannedFault {
    PlannedFault {
        row: rng.gen(),
        col: rng.gen(),
        behaviour: match rng.gen_range(0..3) {
            0 => FaultBehaviour::RandomOutput { seed: rng.gen() },
            1 => FaultBehaviour::StuckAt { value: rng.gen() },
            _ => FaultBehaviour::InvertedOutput,
        },
        kind: if rng.gen() {
            FaultKind::Seu
        } else {
            FaultKind::Lpd
        },
    }
}

fn campaign_report(rng: &mut StdRng) -> CampaignReport {
    CampaignReport {
        scenario: label(rng),
        policy: label(rng),
        positions: (0..rng.gen_range(0..4))
            .map(|_| PositionResult {
                array: rng.gen(),
                row: rng.gen(),
                col: rng.gen(),
                fitness_clean: rng.gen(),
                fitness_faulty: rng.gen(),
                fitness_recovered: rng.gen(),
                evaluations: rng.gen(),
                stats: stats(rng),
            })
            .collect(),
        events: (0..rng.gen_range(0..4))
            .map(|_| EventResult {
                tick: rng.gen(),
                array: rng.gen(),
                faults: (0..rng.gen_range(0..4))
                    .map(|_| planned_fault(rng))
                    .collect(),
                fitness_clean: rng.gen(),
                fitness_faulty: rng.gen(),
                fitness_recovered: rng.gen(),
                evaluations: rng.gen(),
                stats: stats(rng),
            })
            .collect(),
    }
}

/// A rate in `(0, 1]` at full `f64` precision.
fn rate(rng: &mut StdRng) -> f64 {
    1.0 - rng.gen::<f64>()
}

/// A non-empty list of indices below 4 (the array's rows and columns).
fn indices(rng: &mut StdRng) -> Vec<usize> {
    (0..rng.gen_range(1..5))
        .map(|_| rng.gen_range(0..4))
        .collect()
}

/// A random scenario that passes validation.
fn scenario(rng: &mut StdRng) -> FaultScenario {
    let kind = match rng.gen_range(0..7) {
        0 => ScenarioKind::SingleSweep,
        1 => ScenarioKind::MultiPe {
            k: rng.gen_range(1..17),
        },
        2 => ScenarioKind::Correlated {
            shape: [
                CorrelationShape::Row,
                CorrelationShape::Col,
                CorrelationShape::Neighborhood,
            ][rng.gen_range(0..3)],
        },
        3 => ScenarioKind::Burst {
            rate: rate(rng),
            width: rng.gen_range(1..9),
        },
        4 => ScenarioKind::PermanentLpd,
        5 => ScenarioKind::RateSweep {
            rates: (0..rng.gen_range(1..4)).map(|_| rate(rng)).collect(),
        },
        _ => ScenarioKind::Storm {
            schedule: (0..rng.gen_range(1..4))
                .map(|_| StormPhase {
                    ticks: rng.gen_range(1..6),
                    rate: rate(rng),
                })
                .collect(),
        },
    };
    let filter = match rng.gen_range(0..4) {
        0 => TargetFilter::All,
        1 => TargetFilter::Rows(indices(rng)),
        2 => TargetFilter::Cols(indices(rng)),
        _ => TargetFilter::Positions(
            (0..rng.gen_range(1..5))
                .map(|_| (rng.gen_range(0..4), rng.gen_range(0..4)))
                .collect(),
        ),
    };
    let name = match rng.gen_range(0..3) {
        0 => "burst".to_string(), // overlays a built-in
        _ => format!("scenario-{}", label(rng)),
    };
    let scenario = FaultScenario::new(name, kind)
        .with_filter(filter)
        .with_stream(rng.gen());
    scenario.validate().expect("generated scenarios are valid");
    scenario
}

/// A random policy ladder that passes validation.
fn policy(rng: &mut StdRng) -> RecoveryPolicy {
    let policy = RecoveryPolicy {
        steps: (0..rng.gen_range(1..4))
            .map(|_| match rng.gen_range(0..3) {
                0 => RecoveryStep::Scrub {
                    attempts: rng.gen_range(1..6),
                },
                1 => RecoveryStep::TmrRemap,
                _ => RecoveryStep::Reevolve {
                    generations: rng.gen::<bool>().then(|| rng.gen_range(1..50)),
                    max_millis: rng.gen::<bool>().then(|| rng.gen_range(1..10_000)),
                },
            })
            .collect(),
        stop_margin: rng.gen::<bool>().then(|| rng.gen()),
    };
    policy.validate().expect("generated policies are valid");
    policy
}

/// The built-ins overlaid with random entries, as a server loading a
/// registry file would hold them.
fn registry(rng: &mut StdRng) -> ScenarioRegistry {
    let mut registry = ScenarioRegistry::builtin();
    for _ in 0..rng.gen_range(0..4) {
        registry.insert_scenario(scenario(rng));
    }
    for _ in 0..rng.gen_range(0..4) {
        let name = match rng.gen_range(0..3) {
            0 => "full_ladder".to_string(), // overlays a built-in
            _ => format!("policy-{}", label(rng)),
        };
        registry.insert_policy(name, policy(rng));
    }
    registry
}

/// Encodes, prints and re-parses: the trip a document takes over the wire.
fn over_the_wire(value: &Value) -> Value {
    parse(&value.to_json()).expect("the writer emits valid JSON")
}

// ---------------------------------------------------------------------------
// Valid documents and their mutations
// ---------------------------------------------------------------------------

fn image(rng: &mut StdRng) -> String {
    let pixels: Vec<String> = (0..16).map(|_| rng.gen::<u8>().to_string()).collect();
    format!(
        "{{\"width\":4,\"height\":4,\"pixels\":[{}]}}",
        pixels.join(",")
    )
}

/// One valid `POST /jobs` document of each kind.
fn spec_docs(rng: &mut StdRng) -> Vec<Value> {
    let pgm = "{\"pgm_base64\":\"UDUKNCA0CjI1NQoAAQIDBAUGBwgJCgsMDQ4P\"}";
    let pair = format!("\"input\":{},\"reference\":{}", image(rng), pgm);
    let seed: u64 = rng.gen();
    [
        format!(
            "{{\"kind\":\"evolution\",{pair},\"generations\":5,\"offspring\":4,\
             \"mutation_rate\":2,\"num_arrays\":2,\"target_fitness\":10,\
             \"seed\":{seed},\"priority\":\"low\",\"deadline_ms\":900}}"
        ),
        format!(
            "{{\"kind\":\"cascade\",{pair},\"stages\":2,\"generations\":3,\
             \"offspring\":4,\"mutation_rate\":1,\"seed\":{seed}}}"
        ),
        format!(
            "{{\"kind\":\"fault_campaign\",{pair},\"baseline\":[1,2,3,4,5,6,7,8,9,10,11,12,13],\
             \"arrays\":[0,1],\"num_arrays\":2,\"recovery_generations\":2,\
             \"recovery_mutation_rate\":1,\"recovery_offspring\":3,\"recovery_target\":5,\
             \"scenario\":\"storm\",\"policy\":\"full_ladder\",\"seed\":{seed}}}"
        ),
        format!(
            "{{\"kind\":\"stream\",\"source\":{{\"type\":\"synthetic\",\"scene\":\"checkerboard\",\
             \"cell\":3,\"width\":16,\"height\":16,\"frames\":6,\"schedule\":[\
             {{\"start_frame\":0,\"noise\":{{\"model\":\"burst\",\"bursts\":2,\"size\":3}}}},\
             {{\"start_frame\":3,\"noise\":{{\"model\":\"gaussian\",\"sigma\":12.5}}}}]}},\
             \"initial\":[1,2,3,4,5,6,7,8,9,10,11,12,13],\"drift_window\":2,\
             \"drift_threshold_pct\":140,\"drift_cooldown\":1,\"offspring\":4,\
             \"generations\":2,\"max_millis\":100,\"target_fitness\":0,\"seed\":{seed}}}"
        ),
    ]
    .iter()
    .map(|text| parse(text).expect("valid spec document"))
    .collect()
}

/// A value of some other JSON type, or a number or string at the edge of
/// what the decoders accept.
fn odd_value(rng: &mut StdRng) -> Value {
    match rng.gen_range(0..14) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen()),
        2 => Value::String(String::new()),
        3 => Value::String("x".repeat(100_000)),
        4 => Value::String("zz".to_string()),
        5 => Value::Number(Number::I64(-rng.gen_range(1..1_000))),
        6 => Value::Number(Number::F64(2.5)),
        7 => Value::Number(Number::F64(18_446_744_073_709_551_616.0)), // 2^64
        8 => Value::Number(Number::F64(1e300)),
        9 => Value::Number(Number::U64(u64::MAX)),
        10 => Value::Number(Number::U64(rng.gen_range(0..300))),
        11 => Value::Array(Vec::new()),
        12 => Value::Array(vec![Value::Number(Number::U64(300)); 10_000]),
        _ => Value::Object(Vec::new()),
    }
}

/// Applies one random mutation somewhere inside `value`.
fn mutate(value: &mut Value, rng: &mut StdRng) {
    // Descend while the dice say so and there is somewhere to go.
    let descend = rng.gen_range(0..4) != 0;
    match value {
        Value::Object(members) if descend && !members.is_empty() => {
            let index = rng.gen_range(0..members.len());
            match rng.gen_range(0..4) {
                0 => {
                    members.remove(index);
                }
                1 => members[index].1 = odd_value(rng),
                _ => mutate(&mut members[index].1, rng),
            }
        }
        Value::Array(items) if descend && !items.is_empty() => {
            let index = rng.gen_range(0..items.len());
            match rng.gen_range(0..5) {
                0 => items.clear(),
                1 => {
                    let item = items[index].clone();
                    items.resize(10_000, item);
                }
                2 => {
                    items.remove(index);
                }
                _ => mutate(&mut items[index], rng),
            }
        }
        _ => *value = odd_value(rng),
    }
}

/// Runs every decoder that reads outside input; each must answer, and a
/// spec that decodes asks for no more work than the cap.
fn decode_everything(doc: &Value, registry: &ScenarioRegistry) {
    if let Ok((spec, _)) = decode_spec_with(doc, registry) {
        assert!(spec.work() <= MAX_JOB_WORK, "{} work", spec.work());
    }
    let _ = parse_registry(doc);
    let _ = decode_campaign_report(doc);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn campaign_reports_round_trip(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let report = campaign_report(&mut rng);
        let decoded = decode_campaign_report(&over_the_wire(&encode_campaign_report(&report)));
        prop_assert_eq!(decoded, Ok(report));
    }

    #[test]
    fn registries_round_trip(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let registry = registry(&mut rng);
        let parsed = parse_registry(&over_the_wire(&encode_registry(&registry)))
            .expect("an encoded registry parses");
        prop_assert_eq!(parsed.scenarios(), registry.scenarios());
        prop_assert_eq!(parsed.policies(), registry.policies());
    }

    #[test]
    fn mutated_documents_decode_or_fail_without_panicking(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let registry = registry(&mut rng);
        let mut docs = spec_docs(&mut rng);
        for doc in &docs {
            let decoded = decode_spec_with(doc, &registry);
            prop_assert!(decoded.is_ok(), "unmutated spec rejected: {:?}", decoded.err());
        }
        docs.push(encode_registry(&registry));
        docs.push(encode_campaign_report(&campaign_report(&mut rng)));
        for mut doc in docs {
            for _ in 0..rng.gen_range(1..4) {
                mutate(&mut doc, &mut rng);
            }
            decode_everything(&doc, &registry);
            decode_everything(&over_the_wire(&doc), &registry);
        }
    }
}
