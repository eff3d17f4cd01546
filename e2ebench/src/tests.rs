//! Self-tests of the benchmark: short runs of every workload, the traced
//! run's metric set, and the correctness check's teeth.  Run them with
//! `cargo test --release --offline --manifest-path e2ebench/Cargo.toml`.

use std::time::Duration;

use ehw_server::json::Value;
use ehw_server::wire;

use crate::layers::LAYER_METRICS;
use crate::load::{self, Load};
use crate::workload::{self, WORKLOADS};
use crate::{digest, run, stats};

const END_TO_END: [&str; 7] = [
    "jobs_per_s",
    "evals_per_s",
    "latency_p50_ms",
    "latency_p95_ms",
    "success_rate",
    "setup_s",
    "peak_rss_mb",
];

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let values: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(stats::quartiles(&values), [2.75, 5.5, 8.25]);
}

#[test]
fn short_runs_report_every_metric_with_no_errors() {
    for w in &WORKLOADS {
        let outcome = run::run(w, 3, 0.2, false).expect("short run");
        assert!(outcome.correct, "{}: {:#?}", w.name, outcome.report);
        assert_eq!(outcome.failed, 0, "{}", w.name);
        for name in END_TO_END {
            let value = outcome
                .metric(name)
                .unwrap_or_else(|| panic!("{}: no {name}", w.name));
            assert!(
                value.is_finite() && value > 0.0,
                "{}: {name} = {value}",
                w.name
            );
        }
        assert_eq!(
            outcome.metric("success_rate"),
            Some(1.0),
            "error_rate must be 0"
        );
        assert!(outcome.result_line().starts_with("{\"correct\":true,"));
    }
}

#[test]
fn traced_run_reports_every_layer_metric() {
    let w = workload::by_name("mixed").expect("mixed exists");
    let outcome = run::run(w, 5, 0.4, true).expect("traced run");
    assert!(outcome.correct, "{:#?}", outcome.report);
    for layer in &LAYER_METRICS {
        let value = outcome
            .metric(layer.name)
            .unwrap_or_else(|| panic!("no {}", layer.name));
        assert!(value.is_finite(), "{} = {value}", layer.name);
    }
}

#[test]
fn a_corrupted_reference_digest_is_caught() {
    let w = workload::by_name("mixed").expect("mixed exists");
    let plans = workload::generate(w, 11, 6);
    let (server, _) = run::start_server(w, &workload::warmup(w, 11)).expect("server starts");
    let report = load::run(&Load {
        addr: server.local_addr(),
        plans: &plans,
        clients: w.clients,
        metrics_every: None,
        tracer: None,
        give_up_after: Duration::MAX,
    });
    drop(server);
    let mut references = digest::reference_digests(&plans, &report.jobs, 2);
    assert!(digest::check(&report.jobs, &references)
        .mismatches
        .is_empty());
    let victim = report.jobs[0].plan;
    references[victim] = references[victim].map(|d| d ^ 1);
    assert_eq!(digest::check(&report.jobs, &references).mismatches.len(), 1);
}

#[test]
fn digest_ignores_members_outside_the_determinism_contract() {
    let w = workload::by_name("mixed").expect("mixed exists");
    let plan = &workload::generate(w, 2, 1)[0];
    let result = wire::encode_result(&digest::execute(plan));
    let mut extended = result.clone();
    if let Value::Object(pairs) = &mut extended {
        pairs.push(("timing".into(), Value::Null));
        pairs.retain(|(key, _)| key != "job_id");
    }
    assert_eq!(digest::digest(&result), digest::digest(&extended));
}
