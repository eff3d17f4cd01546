//! The closed-loop HTTP load: each client keeps exactly one job outstanding.
//!
//! Per job a client writes `POST /jobs` (or `/streams`) on its connection,
//! then `GET /jobs/:id/events` on the same socket; the NDJSON stream ends when
//! the job settles, which gives a push-based settle time with no polling
//! error.  It then reads the result with `GET /jobs/:id` on a fresh
//! keep-alive connection, which carries its next submit.  Each client holds
//! one connection at a time.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use ehw_server::json::{self, Value};

use crate::client::{self, Conn};
use crate::trace::Tracer;
use crate::workload::JobPlan;

/// How long a client keeps re-reading a job's status after its event
/// stream ended before the job counts as failed.  The service closes the
/// event log just before it sends the result, so a read right after the
/// stream's end can still say `queued` or `running`.
const SETTLE_GRACE: Duration = Duration::from_secs(10);

pub struct Load<'a> {
    pub addr: SocketAddr,
    pub plans: &'a [JobPlan],
    pub clients: usize,
    pub metrics_every: Option<usize>,
    pub tracer: Option<&'a Tracer>,
    /// No new job starts once this much time has passed.
    pub give_up_after: Duration,
}

/// One job as the client saw it.
pub struct JobRecord {
    pub plan: usize,
    /// From the first byte of the POST written to the event stream's end.
    pub latency: Duration,
    pub submit_rtt: Duration,
    /// The last `GET /jobs/:id` round trip (retries are not counted).
    pub result_rtt: Duration,
    /// Bytes of the POST request, head and body.
    pub request_bytes: usize,
    /// The settled status document, or why the job failed.
    pub outcome: Result<String, String>,
}

/// One `GET /metrics` as the client saw it.
pub struct MetricsRead {
    pub rtt: Duration,
    pub outcome: Result<(), String>,
}

pub struct LoadReport {
    pub wall: Duration,
    /// Sorted by plan index.
    pub jobs: Vec<JobRecord>,
    pub metrics: Vec<MetricsRead>,
    /// Jobs never started because the run gave up.
    pub skipped: usize,
}

impl LoadReport {
    pub fn failures(&self) -> impl Iterator<Item = &str> {
        let jobs = self
            .jobs
            .iter()
            .filter_map(|job| job.outcome.as_ref().err());
        let metrics = self
            .metrics
            .iter()
            .filter_map(|read| read.outcome.as_ref().err());
        jobs.chain(metrics).map(String::as_str)
    }

    pub fn attempted(&self) -> usize {
        self.jobs.len() + self.metrics.len() + self.skipped
    }

    /// Failed operations; a job the run gave up on counts as failed.
    pub fn failed(&self) -> usize {
        self.failures().count() + self.skipped
    }

    /// Submit-to-settled latencies of the jobs that settled, in ms.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.jobs
            .iter()
            .filter(|job| job.outcome.is_ok())
            .map(|job| job.latency.as_secs_f64() * 1e3)
            .collect()
    }
}

/// Runs every plan of `load` through the server with `load.clients`
/// closed-loop clients.
pub fn run(load: &Load) -> LoadReport {
    let cursor = AtomicUsize::new(0);
    let started = Instant::now();
    let per_client: Vec<(Vec<JobRecord>, Vec<MetricsRead>)> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..load.clients)
            .map(|_| scope.spawn(|| client_loop(load, &cursor, started)))
            .collect();
        clients
            .into_iter()
            .map(|client| client.join().expect("client thread panicked"))
            .collect()
    });
    let wall = started.elapsed();
    let mut jobs = Vec::new();
    let mut metrics = Vec::new();
    for (client_jobs, client_metrics) in per_client {
        jobs.extend(client_jobs);
        metrics.extend(client_metrics);
    }
    jobs.sort_by_key(|job| job.plan);
    let skipped = load.plans.len() - jobs.len();
    LoadReport {
        wall,
        jobs,
        metrics,
        skipped,
    }
}

fn client_loop(
    load: &Load,
    cursor: &AtomicUsize,
    started: Instant,
) -> (Vec<JobRecord>, Vec<MetricsRead>) {
    let mut jobs = Vec::new();
    let mut metrics = Vec::new();
    let mut conn: Option<Conn> = None;
    while started.elapsed() < load.give_up_after {
        let index = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(plan) = load.plans.get(index) else {
            break;
        };
        let record = run_job(load, &mut conn, index, plan);
        if record.outcome.is_err() {
            conn = None;
        }
        jobs.push(record);
        if let Some(every) = load.metrics_every {
            if index % every == every - 1 {
                let prometheus = (index / every) % 2 == 1;
                metrics.push(read_metrics(
                    load.addr,
                    &mut conn,
                    prometheus,
                    Some(index),
                    load.tracer,
                ));
            }
        }
    }
    (jobs, metrics)
}

/// Instants of one job's exchanges, for its spans.
struct Marks {
    submit: Instant,
    submitted: Instant,
    settled: Instant,
    result_sent: Instant,
    result_read: Instant,
}

fn run_job(load: &Load, conn: &mut Option<Conn>, index: usize, plan: &JobPlan) -> JobRecord {
    let mut body = Vec::new();
    plan.write_body(&mut body);
    let mut request = Vec::new();
    client::write_request(&mut request, "POST", plan.path(), &body);
    let mut record = JobRecord {
        plan: index,
        latency: Duration::ZERO,
        submit_rtt: Duration::ZERO,
        result_rtt: Duration::ZERO,
        request_bytes: request.len(),
        outcome: Err(String::new()),
    };
    let root = load
        .tracer
        .map(|tracer| tracer.begin("http.job", None, Some(index)));
    let outcome = drive(load.addr, conn, &request).map(|(marks, status)| {
        record.latency = marks.settled - marks.submit;
        record.submit_rtt = marks.submitted - marks.submit;
        record.result_rtt = marks.result_read - marks.result_sent;
        if let (Some(tracer), Some(root)) = (load.tracer, root) {
            let job = Some(index);
            tracer.record(
                "http.submit",
                marks.submit,
                marks.submitted,
                Some(root),
                job,
            );
            tracer.record(
                "http.events",
                marks.submitted,
                marks.settled,
                Some(root),
                job,
            );
            tracer.record(
                "http.result",
                marks.result_sent,
                marks.result_read,
                Some(root),
                job,
            );
        }
        status
    });
    if let (Some(tracer), Some(root)) = (load.tracer, root) {
        tracer.end(root);
    }
    record.outcome = outcome;
    record
}

/// Submits, follows the event stream to the settle, then reads the result.
fn drive(
    addr: SocketAddr,
    conn: &mut Option<Conn>,
    post: &[u8],
) -> Result<(Marks, String), String> {
    let io = |step: &str| {
        let step = step.to_string();
        move |error: std::io::Error| format!("{step}: {error}")
    };
    // The connection the previous result read left open carries this
    // submit; a new one is opened before the clock starts.
    let mut events_conn = match conn.take() {
        Some(open) => open,
        None => Conn::open(addr).map_err(io("connect"))?,
    };
    let submit = Instant::now();
    events_conn.send(post).map_err(io("submit"))?;
    let response = events_conn.read_response().map_err(io("submit"))?;
    let submitted = Instant::now();
    if response.status != 201 {
        return Err(format!(
            "submit answered {}: {}",
            response.status,
            response.text()
        ));
    }
    let job_id = client::json_u64(&response.body, "job_id")
        .ok_or_else(|| format!("submit response has no job_id: {}", response.text()))?;

    let mut request = Vec::new();
    client::write_request(&mut request, "GET", &format!("/jobs/{job_id}/events"), b"");
    events_conn.send(&request).map_err(io("events"))?;
    let events = events_conn.read_response().map_err(io("events"))?;
    let settled = Instant::now();
    // The event stream ends by closing the connection.
    drop(events_conn);
    if events.status != 200 {
        return Err(format!(
            "events answered {}: {}",
            events.status,
            events.text()
        ));
    }

    let mut result_conn = Conn::open(addr).map_err(io("connect"))?;
    client::write_request(&mut request, "GET", &format!("/jobs/{job_id}"), b"");
    let grace_ends = Instant::now() + SETTLE_GRACE;
    loop {
        let result_sent = Instant::now();
        result_conn.send(&request).map_err(io("result"))?;
        let response = result_conn.read_response().map_err(io("result"))?;
        let result_read = Instant::now();
        if response.status != 200 {
            return Err(format!(
                "result answered {}: {}",
                response.status,
                response.text()
            ));
        }
        match client::json_str(&response.body, "status") {
            Some("done") => {
                *conn = Some(result_conn);
                let marks = Marks {
                    submit,
                    submitted,
                    settled,
                    result_sent,
                    result_read,
                };
                return Ok((marks, response.text()));
            }
            Some("queued" | "running") if Instant::now() < grace_ends => std::thread::yield_now(),
            status => return Err(format!("job {job_id} settled as {status:?}")),
        }
    }
}

fn read_metrics(
    addr: SocketAddr,
    conn: &mut Option<Conn>,
    prometheus: bool,
    job: Option<usize>,
    tracer: Option<&Tracer>,
) -> MetricsRead {
    let path = if prometheus {
        "/metrics?format=prometheus"
    } else {
        "/metrics"
    };
    let mut request = Vec::new();
    client::write_request(&mut request, "GET", path, b"");
    let mut rtt = Duration::ZERO;
    let mut exchange = || -> Result<(), String> {
        let mut open = match conn.take() {
            Some(open) => open,
            None => Conn::open(addr).map_err(|e| format!("connect: {e}"))?,
        };
        let sent = Instant::now();
        open.send(&request).map_err(|e| format!("metrics: {e}"))?;
        let response = open.read_response().map_err(|e| format!("metrics: {e}"))?;
        let read = Instant::now();
        rtt = read - sent;
        if let Some(tracer) = tracer {
            tracer.record("http.metrics", sent, read, None, job);
        }
        if response.status != 200 || response.body.is_empty() {
            return Err(format!("{path} answered {}", response.status));
        }
        *conn = Some(open);
        Ok(())
    };
    let outcome = exchange();
    MetricsRead { rtt, outcome }
}

/// `reads` back-to-back `GET /metrics`, alternating JSON and Prometheus.
pub fn metrics_probe(addr: SocketAddr, reads: usize, tracer: Option<&Tracer>) -> Vec<MetricsRead> {
    let mut conn = None;
    (0..reads)
        .map(|n| read_metrics(addr, &mut conn, n % 2 == 1, None, tracer))
        .collect()
}

/// The server's cross-job cache counters.
pub struct CacheCounters {
    pub windows_hits: u64,
    pub windows_misses: u64,
    pub fitness_hits: u64,
    pub fitness_misses: u64,
}

/// Reads the cache counters from the `cache` section of `GET /metrics`.
pub fn cache_counters(addr: SocketAddr) -> Result<CacheCounters, String> {
    let mut conn = Conn::open(addr).map_err(|e| format!("connect: {e}"))?;
    let mut request = Vec::new();
    client::write_request(&mut request, "GET", "/metrics", b"");
    conn.send(&request).map_err(|e| format!("metrics: {e}"))?;
    let response = conn.read_response().map_err(|e| format!("metrics: {e}"))?;
    let doc = json::parse(&response.text()).map_err(|e| format!("/metrics: {e}"))?;
    let counter = |name: &str| {
        doc.get("cache")
            .and_then(|cache| cache.get(name))
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("/metrics has no cache.{name}"))
    };
    Ok(CacheCounters {
        windows_hits: counter("windows_hits")?,
        windows_misses: counter("windows_misses")?,
        fitness_hits: counter("fitness_hits")?,
        fitness_misses: counter("fitness_misses")?,
    })
}
