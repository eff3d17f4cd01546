//! One end-to-end run: set-up, the timed closed-loop window, the
//! correctness check and the result line.

use std::time::{Duration, Instant};

use ehw_server::EhwServer;
use ehw_service::EhwService;

use crate::digest;
use crate::host::{self, Host};
use crate::layers;
use crate::load::{self, Load, LoadReport};
use crate::stats;
use crate::workload::{self, JobPlan, Workload};

/// Set-up is repeated this many times per run, each on a fresh server, and
/// reported as the median.
const SETUP_ROUNDS: usize = 3;

/// A run stops starting jobs after this many times `--seconds` (but never
/// before [`GIVE_UP_FLOOR`]), so even a much slower program ends within the
/// run's time limit while short runs on a busy host still finish.
const GIVE_UP_FACTOR: f64 = 5.0;
const GIVE_UP_FLOOR: Duration = Duration::from_secs(30);

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// What a run prints: the report lines, then the result line.
pub struct Outcome {
    pub report: Vec<String>,
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn print(&self) {
        for line in &self.report {
            println!("{line}");
        }
        println!("{}", self.result_line());
    }

    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // JSON has no NaN; a metric with no samples reads 0.
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }

    #[cfg(test)]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

pub fn format_value(value: f64) -> String {
    if value.is_finite() {
        format!("{value:.4}")
    } else {
        "n/a".into()
    }
}

/// Boots a fresh server for `w` and runs the warm-up set through it;
/// returns the server and the seconds from `EhwService::new` to the end of
/// the warm-up.
pub fn start_server(w: &Workload, warmup: &[JobPlan]) -> Result<(EhwServer, f64), String> {
    let started = Instant::now();
    let service = EhwService::new(w.service_config()).map_err(|e| format!("service: {e}"))?;
    let server = EhwServer::serve(service, "127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let report = load::run(&Load {
        addr: server.local_addr(),
        plans: warmup,
        clients: 1,
        metrics_every: None,
        tracer: None,
        give_up_after: Duration::MAX,
    });
    if let Some(why) = report.failures().next() {
        return Err(format!("warm-up job failed: {why}"));
    }
    Ok((server, started.elapsed().as_secs_f64()))
}

/// [`start_server`] [`SETUP_ROUNDS`] times; the last server stays up.
pub fn setup(w: &Workload, warmup: &[JobPlan]) -> Result<(EhwServer, Vec<f64>), String> {
    let mut rounds = Vec::with_capacity(SETUP_ROUNDS);
    let mut server = None;
    for _ in 0..SETUP_ROUNDS {
        drop(server.take());
        let (fresh, seconds) = start_server(w, warmup)?;
        rounds.push(seconds);
        server = Some(fresh);
    }
    Ok((server.expect("at least one set-up round"), rounds))
}

/// The end-to-end figures of one load.
pub struct Summary {
    pub settled: usize,
    pub jobs_per_s: f64,
    pub evals_per_s: f64,
    pub latency_p50_ms: f64,
    pub latency_p95_ms: f64,
    pub above_p95: usize,
    pub attempted: usize,
    pub failed: usize,
}

impl Summary {
    pub fn of(report: &LoadReport, check: &digest::Check) -> Summary {
        let wall = report.wall.as_secs_f64();
        let latencies = report.latencies_ms();
        let p95 = stats::percentile(&latencies, 95.0);
        Summary {
            settled: latencies.len(),
            jobs_per_s: latencies.len() as f64 / wall,
            evals_per_s: check.evaluations as f64 / wall,
            latency_p50_ms: stats::median(&latencies),
            latency_p95_ms: p95,
            above_p95: latencies.iter().filter(|&&l| l > p95).count(),
            attempted: report.attempted(),
            failed: report.failed() + check.mismatches.len(),
        }
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

pub fn run(w: &Workload, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let host = Host::probe();
    let plans = workload::generate(w, seed, w.job_count(seconds));
    let warmup = workload::warmup(w, seed);
    let give_up_after = Duration::from_secs_f64(seconds * GIVE_UP_FACTOR).max(GIVE_UP_FLOOR);
    if trace {
        return layers::traced_run(w, seed, &host, &plans, &warmup, give_up_after);
    }

    let (server, setups) = setup(w, &warmup)?;
    let report = load::run(&Load {
        addr: server.local_addr(),
        plans: &plans,
        clients: w.clients,
        metrics_every: w.metrics_every,
        tracer: None,
        give_up_after,
    });
    let peak_rss_mb = host::peak_rss_mb();
    drop(server);

    let started = Instant::now();
    let references = digest::reference_digests(&plans, &report.jobs, host.nproc);
    let check = digest::check(&report.jobs, &references);
    let check_seconds = started.elapsed().as_secs_f64();
    let summary = Summary::of(&report, &check);

    let metrics = vec![
        Metric {
            name: "jobs_per_s",
            unit: "1/s",
            value: summary.jobs_per_s,
        },
        Metric {
            name: "evals_per_s",
            unit: "1/s",
            value: summary.evals_per_s,
        },
        Metric {
            name: "latency_p50_ms",
            unit: "ms",
            value: summary.latency_p50_ms,
        },
        Metric {
            name: "latency_p95_ms",
            unit: "ms",
            value: summary.latency_p95_ms,
        },
        Metric {
            name: "success_rate",
            unit: "ratio",
            value: 1.0 - summary.error_rate(),
        },
        Metric {
            name: "setup_s",
            unit: "s",
            value: stats::median(&setups),
        },
        Metric {
            name: "peak_rss_mb",
            unit: "MB",
            value: peak_rss_mb,
        },
    ];
    let mut lines = vec![
        host.line(),
        format!(
            "# workload {} ({} shard(s) x {} worker(s), {} closed-loop client(s)), seed {seed}: \
             {} jobs planned, {} settled in {:.3} s, {} skipped, {} metrics reads",
            w.name,
            w.platforms,
            w.workers_per_platform,
            w.clients,
            plans.len(),
            summary.settled,
            report.wall.as_secs_f64(),
            report.skipped,
            report.metrics.len()
        ),
        format!(
            "# latency samples: {} settled jobs, {} above p95",
            summary.settled, summary.above_p95
        ),
        format!(
            "# correctness: {} results checked against in-process jobs::execute ({:.1} s), {} mismatches",
            check.results,
            check_seconds,
            check.mismatches.len()
        ),
        format!(
            "# set-up rounds (s): {}",
            setups
                .iter()
                .map(|s| format!("{s:.4}"))
                .collect::<Vec<_>>()
                .join(" ")
        ),
    ];
    lines.extend(
        report
            .failures()
            .take(5)
            .map(|why| format!("# failure: {why}")),
    );
    lines.extend(
        check
            .mismatches
            .iter()
            .take(5)
            .map(|why| format!("# mismatch: {why}")),
    );
    lines.extend(
        metrics
            .iter()
            .map(|m| format!("{:<16} {:>14} {}", m.name, format_value(m.value), m.unit)),
    );
    lines.push(format!(
        "{:<16} {:>14} ratio (failed / attempted operations; the result line carries success_rate = 1 - error_rate)",
        "error_rate",
        format_value(summary.error_rate())
    ));
    Ok(Outcome {
        report: lines,
        correct: summary.failed == 0,
        attempted: summary.attempted,
        failed: summary.failed,
        metrics,
    })
}
