//! Golden wire bytes: the codec's output pinned against committed fixtures.
//!
//! Every value here is built by hand, so a fixture pins only the encoder —
//! member order, float formatting, hex width, `null` for absent options —
//! and never the evolution that would normally produce the value.  The
//! fixtures live in `tests/golden/`, one compact JSON document per file
//! (`events.ndjson` holds one event per line).

use ehw_array::genotype::Genotype;
use ehw_array::pe::FaultBehaviour;
use ehw_evolution::fitness::EngineStats;
use ehw_evolution::strategy::EvolutionResult;
use ehw_fabric::FaultKind;
use ehw_platform::evo_modes::CascadeResult;
use ehw_platform::fault_campaign::{CampaignReport, EventResult, PositionResult};
use ehw_platform::scenario::PlannedFault;
use ehw_platform::timing::EvolutionTimeEstimate;
use ehw_server::wire::{encode_error, encode_event, encode_registry, encode_result};
use ehw_service::{
    CancelKind, JobOutput, JobProgress, JobResult, ScenarioRegistry, SegmentReport, StreamEvent,
    StreamReport,
};

/// Asserts that `actual` equals the committed fixture byte for byte.
fn check(name: &str, actual: &str) {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    let expected =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    assert_eq!(
        actual, expected,
        "{name}: encoder output drifted from the fixture"
    );
}

fn genotype(salt: u8) -> Genotype {
    let bytes: Vec<u8> = (0..13u8)
        .map(|i| i.wrapping_mul(29).wrapping_add(salt))
        .collect();
    Genotype::decode(&bytes).expect("13 bytes decode")
}

fn stats(plans_evaluated: u64, memo_hits: u64, early_exits: u64) -> EngineStats {
    EngineStats {
        plans_evaluated,
        memo_hits,
        early_exits,
    }
}

fn envelope(output: JobOutput) -> JobResult {
    JobResult {
        job_id: 17,
        seed: u64::MAX - 5,
        evaluations: 4242,
        stats: stats(4000, 200, 1234),
        output,
    }
}

#[test]
fn evolution_results_match_their_fixture() {
    let result = envelope(JobOutput::Evolution {
        result: EvolutionResult {
            best_genotype: genotype(3),
            best_fitness: 812,
            initial_fitness: 15_000,
            history: vec![9000, 4000, 812],
            generations_run: 3,
            evaluations: 30,
            total_pe_reconfigurations: 57,
        },
        time: EvolutionTimeEstimate {
            total_s: 0.012_5,
            reconfiguration_s: 1.0 / 3.0,
            evaluation_s: 2.5e-7,
            generations: 3,
            candidates: 30,
            pe_reconfigurations: 57,
        },
    });
    check("evolution.json", &encode_result(&result).to_json());
}

#[test]
fn cascade_results_match_their_fixture() {
    let result = envelope(JobOutput::Cascade(CascadeResult {
        stage_genotypes: vec![genotype(0), genotype(200)],
        stage_fitness: vec![700, 650],
        evaluations: 99,
        stats: stats(90, 9, 40),
    }));
    check("cascade.json", &encode_result(&result).to_json());
}

#[test]
fn fault_campaign_results_match_their_fixture() {
    let report = CampaignReport {
        scenario: "burst".to_string(),
        policy: "scrub(2)+reevolve(4)@1".to_string(),
        positions: vec![
            PositionResult {
                array: 0,
                row: 1,
                col: 2,
                fitness_clean: 10,
                fitness_faulty: 90,
                fitness_recovered: 12,
                evaluations: 7,
                stats: stats(5, 1, 2),
            },
            PositionResult {
                array: 1,
                row: 3,
                col: 0,
                fitness_clean: 10,
                fitness_faulty: 10,
                fitness_recovered: 10,
                evaluations: 2,
                stats: EngineStats::default(),
            },
        ],
        events: vec![EventResult {
            tick: 3,
            array: 1,
            faults: vec![
                PlannedFault {
                    row: 0,
                    col: 3,
                    behaviour: FaultBehaviour::RandomOutput { seed: u64::MAX },
                    kind: FaultKind::Seu,
                },
                PlannedFault {
                    row: 2,
                    col: 1,
                    behaviour: FaultBehaviour::StuckAt { value: 255 },
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
            fitness_recovered: 7,
            evaluations: 3,
            stats: stats(3, 0, 1),
        }],
    };
    let result = envelope(JobOutput::FaultCampaign(report));
    check("fault_campaign.json", &encode_result(&result).to_json());
}

#[test]
fn stream_results_match_their_fixture() {
    let result = envelope(JobOutput::Stream(StreamReport {
        frames: 10,
        drift_events: 1,
        adaptations_attempted: 1,
        adaptations_applied: 1,
        evaluations: 120,
        initial_fitness: Some(300),
        final_fitness: None,
        segments: vec![
            SegmentReport {
                start_frame: 0,
                frames: 3,
                fitness_sum: 1000,
            },
            SegmentReport {
                start_frame: 3,
                frames: 7,
                fitness_sum: 1400,
            },
            SegmentReport {
                start_frame: 10,
                frames: 0,
                fitness_sum: 0,
            },
        ],
        final_genotype: genotype(9).encode(),
        output_hash: 0xabc,
        stopped: false,
    }));
    check("stream.json", &encode_result(&result).to_json());
}

#[test]
fn failed_results_match_their_fixture() {
    let result = envelope(JobOutput::Failed(
        "job panicked: \"index out of bounds\"\n\tat stage 2".to_string(),
    ));
    check("failed.json", &encode_result(&result).to_json());
}

#[test]
fn cancelled_results_match_their_fixtures() {
    for (kind, name) in [
        (CancelKind::Requested, "cancelled_requested.json"),
        (CancelKind::DeadlineExpired, "cancelled_deadline.json"),
    ] {
        let result = envelope(JobOutput::Cancelled(kind));
        check(name, &encode_result(&result).to_json());
    }
}

#[test]
fn progress_events_match_their_fixture() {
    let events = [
        JobProgress {
            generation: 5,
            best_fitness: Some(812),
            stream: None,
        },
        JobProgress {
            generation: 0,
            best_fitness: None,
            stream: None,
        },
        JobProgress {
            generation: 4,
            best_fitness: Some(123),
            stream: Some(StreamEvent::Frame {
                index: 4,
                fitness: 123,
            }),
        },
        JobProgress {
            generation: 6,
            best_fitness: None,
            stream: Some(StreamEvent::Drift {
                frame: 6,
                window_fitness: 4500,
                baseline_fitness: 3000,
            }),
        },
        JobProgress {
            generation: 6,
            best_fitness: Some(280),
            stream: Some(StreamEvent::Adaptation {
                frame: 6,
                index: 0,
                accepted: true,
                incumbent_fitness: 900,
                candidate_fitness: 280,
                generations_run: 8,
            }),
        },
    ];
    let lines: String = events
        .iter()
        .enumerate()
        .map(|(sequence, event)| format!("{}\n", encode_event(sequence, event).to_json()))
        .collect();
    check("events.ndjson", &lines);
}

#[test]
fn the_builtin_registry_matches_its_fixture() {
    check(
        "registry.json",
        &encode_registry(&ScenarioRegistry::builtin()).to_json(),
    );
}

#[test]
fn error_payloads_match_their_fixture() {
    check(
        "error.json",
        &encode_error("'input' needs an integer 'width'").to_json(),
    );
}
