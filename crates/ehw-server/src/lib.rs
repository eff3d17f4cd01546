//! # ehw-server: the job service over a socket
//!
//! A minimal network front-end for [`ehw_service::EhwService`]: plain
//! HTTP/1.1 + JSON on a [`std::net::TcpListener`], hand-rolled end to end
//! because the build environment vendors its dependencies (the vendored
//! `serde` derives are no-ops, so [`json`] and [`wire`] carry an explicit
//! codec instead).
//!
//! ## Endpoints
//!
//! | Method & path          | Meaning                                             |
//! |------------------------|-----------------------------------------------------|
//! | `POST /jobs`           | Submit a job spec; returns `{job_id, seed, status}` |
//! | `POST /streams`        | Submit a streaming spec (`kind` defaults to `stream`); same envelope as `POST /jobs` |
//! | `GET /jobs/:id`        | Status (`queued`/`running`/`done`/`failed`/`cancelled`/`lost`) plus the result once settled |
//! | `DELETE /jobs/:id`     | Request cooperative cancellation                    |
//! | `GET /jobs/:id/events` | Line-delimited JSON progress events (one per generation), streamed until the job settles, in batches at least every ~10 ms with every event present and in order |
//! | `GET /metrics`         | Queue depth, per-state job counts, jobs/sec, per-kind submit→settle latency histograms, shard liveness, cross-job cache counters |
//! | `GET /registry`        | Named fault scenarios and recovery policies this server resolves in `fault_campaign` specs |
//!
//! `/metrics` speaks JSON by default and the Prometheus text exposition
//! format when asked — either `GET /metrics?format=prometheus` or an
//! `Accept: text/plain` header.
//!
//! Connections are HTTP/1.1 keep-alive: one handler thread serves up to
//! [`http::MAX_REQUESTS_PER_CONNECTION`] sequential requests per socket,
//! honouring `Connection: close`; NDJSON event streams always end by closing
//! the connection.
//!
//! ## Job state
//!
//! The server keeps no job state of its own: its registry maps job ids to
//! the service's [`JobHandle`]s, which read each job's one lifecycle record.
//! `/metrics` reads counters, never the registry: `queued` is the queue
//! depth, `running` the service's gauge, each settled state the service's
//! lifetime count less the reaper's evictions in that state, and
//! `latency_ms` submit→settle as the shard stamped it.
//!
//! Settled jobs are retained for a TTL ([`DEFAULT_JOB_TTL`], configurable
//! via [`EhwServer::serve_with`]) from their settle instant, and
//! then evicted by a background reaper — the only walk over the registry —
//! so a long-lived server's registry cannot grow without bound; an evicted
//! job's status reads as 404, and the eviction count is exported under
//! `/metrics`.
//!
//! ## Determinism over the wire
//!
//! The service's determinism contract survives the network hop: a spec with
//! a pinned seed produces a byte-identical result whether it is submitted
//! in-process or over HTTP, and the integration suite asserts exactly that
//! by comparing the HTTP response against [`wire::encode_result`] of a local
//! run.  Cancellation is cooperative (generation boundaries), so `DELETE`
//! promises *settling soon*, not instant death.

pub mod base64;
mod codec;
pub mod http;
pub mod json;
pub mod wire;

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use ehw_service::{
    EhwService, JobHandle, JobMonitor, JobStatus, LatencyHistogram, ScenarioRegistry, ServiceStats,
    LATENCY_BOUNDS_MS,
};

use codec::{obj, ToJson};
use http::{read_request, write_response, Request, RequestError};
use json::Value;
use wire::{encode_error, encode_event};

/// How long an event stream lets progress events gather before it writes
/// them as one batch.  A settle ends the wait at once.
const STREAM_FLUSH: Duration = Duration::from_millis(10);

/// A batch that passes this many bytes is written at once and a new one
/// started, so a late reader of a long job never buffers its whole feed.
const STREAM_BATCH_BYTES: usize = 64 * 1024;

/// Events an event stream copies out of the feed per lock acquisition.
const STREAM_PAGE: usize = 128;

/// How often the reaper thread wakes to check the shutdown flag.  Sweeps run
/// less often (a quarter of the TTL, clamped), but shutdown must not wait a
/// quarter-TTL for the reaper to notice.
const REAPER_POLL: Duration = Duration::from_millis(25);

/// How long a settled job's result is retained before the background reaper
/// evicts it from the registry.
pub const DEFAULT_JOB_TTL: Duration = Duration::from_secs(15 * 60);

/// Takes `mutex` even after a holder panicked (else every later request fails):
/// each update under it is one insert, removal, state change or count.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl ToJson for LatencyHistogram {
    fn to_value(&self) -> Value {
        obj(&[
            ("bounds_ms", &LATENCY_BOUNDS_MS.as_slice()),
            ("counts", &self.counts.as_slice()),
            ("total", &self.total),
        ])
    }
}

struct ServerState {
    service: EhwService,
    /// Every job submitted over the wire and not yet evicted, by id.
    jobs: Mutex<HashMap<u64, JobHandle>>,
    started_at: Instant,
    shutting_down: AtomicBool,
    /// Retention window for settled jobs; the reaper evicts older ones.
    job_ttl: Duration,
    /// Settled jobs evicted by the reaper since the server started, per
    /// state (indexed by `JobStatus as usize`).
    evicted: [AtomicU64; JobStatus::ALL.len()],
    /// Named fault scenarios and recovery policies resolvable in job specs.
    registry: ScenarioRegistry,
}

impl ServerState {
    /// Jobs per lifecycle state, in the order both `/metrics` forms report
    /// them, from counters alone (see the module docs).
    fn jobs_by_state(&self, stats: &ServiceStats) -> [(&'static str, u64); 6] {
        JobStatus::ALL.map(|status| {
            let count = match status {
                JobStatus::Queued => self.service.queue_depth() as u64,
                JobStatus::Running => stats.running,
                JobStatus::Done => stats.completed,
                JobStatus::Failed => stats.failed,
                JobStatus::Cancelled => stats.cancelled,
                JobStatus::Lost => stats.lost,
            };
            let evicted = self.evicted[status as usize].load(Ordering::Relaxed);
            (status.name(), count.saturating_sub(evicted))
        })
    }

    fn jobs_evicted(&self) -> u64 {
        self.evicted.iter().map(|n| n.load(Ordering::Relaxed)).sum()
    }

    /// Evicts every job that settled more than a TTL ago, counting each
    /// eviction under its state.  Unsettled jobs are never touched, however
    /// old: eviction only forgets results nobody fetched, it never abandons
    /// running work.
    fn sweep_expired(&self) {
        lock(&self.jobs).retain(|_, handle| {
            let expired = handle
                .settled_at()
                .is_some_and(|at| at.elapsed() >= self.job_ttl);
            if expired {
                self.evicted[handle.status() as usize].fetch_add(1, Ordering::Relaxed);
            }
            !expired
        });
    }
}

/// A running job server: an accept loop plus one handler thread per
/// connection, all over one shared [`EhwService`].
///
/// Dropping the server stops accepting, drains the handler threads, then
/// shuts the service down (which waits for in-flight jobs).
pub struct EhwServer {
    state: Arc<ServerState>,
    local_addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
    reaper_thread: Option<JoinHandle<()>>,
}

impl EhwServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts serving
    /// `service` on it, retaining settled jobs for [`DEFAULT_JOB_TTL`] and
    /// resolving scenario/policy names against the built-in registry.
    pub fn serve(service: EhwService, addr: &str) -> io::Result<EhwServer> {
        EhwServer::serve_with(service, addr, DEFAULT_JOB_TTL, ScenarioRegistry::builtin())
    }

    /// [`EhwServer::serve`] with every knob explicit.
    ///
    /// * `job_ttl` — once a job has been settled this long, the background
    ///   reaper drops it from the registry and its status reads as 404.
    /// * `registry` — the named fault scenarios and recovery policies that
    ///   `GET /registry` exposes and `fault_campaign` specs resolve their
    ///   `scenario`/`policy` names against.  Start from
    ///   [`wire::parse_registry`] to overlay a JSON registry file on the
    ///   built-ins.
    pub fn serve_with(
        service: EhwService,
        addr: &str,
        job_ttl: Duration,
        registry: ScenarioRegistry,
    ) -> io::Result<EhwServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let state = Arc::new(ServerState {
            service,
            jobs: Mutex::new(HashMap::new()),
            started_at: Instant::now(),
            shutting_down: AtomicBool::new(false),
            job_ttl,
            evicted: Default::default(),
            registry,
        });
        let accept_state = Arc::clone(&state);
        let accept_thread = thread::Builder::new()
            .name("ehw-server-accept".into())
            .spawn(move || accept_loop(listener, accept_state))
            .expect("spawn accept thread");
        let reaper_state = Arc::clone(&state);
        let reaper_thread = thread::Builder::new()
            .name("ehw-server-reaper".into())
            .spawn(move || reaper_loop(reaper_state))
            .expect("spawn reaper thread");
        Ok(EhwServer {
            state,
            local_addr,
            accept_thread: Some(accept_thread),
            reaper_thread: Some(reaper_thread),
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }
}

impl Drop for EhwServer {
    /// Stops accepting connections and joins the accept loop and the reaper.
    /// In-flight handler threads drain their connections on their own.
    fn drop(&mut self) {
        self.state.shutting_down.store(true, Ordering::SeqCst);
        // The accept loop is blocked in `accept`; a throwaway connection
        // wakes it so it can observe the flag and return.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(thread) = self.accept_thread.take() {
            let _ = thread.join();
        }
        if let Some(thread) = self.reaper_thread.take() {
            let _ = thread.join();
        }
    }
}

/// The background reaper: sweeps expired settled jobs out of the registry at
/// a cadence derived from the TTL, while staying responsive to shutdown.
fn reaper_loop(state: Arc<ServerState>) {
    let sweep_every = (state.job_ttl / 4).clamp(REAPER_POLL, Duration::from_secs(5));
    let mut last_sweep = Instant::now();
    loop {
        thread::sleep(REAPER_POLL);
        if state.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        if last_sweep.elapsed() >= sweep_every {
            state.sweep_expired();
            last_sweep = Instant::now();
        }
    }
}

fn accept_loop(listener: TcpListener, state: Arc<ServerState>) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            // A dead listener means the process is going away anyway.
            return;
        };
        if state.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        // Every response leaves in one write; without Nagle's delay it is
        // sent at once instead of waiting on the client's delayed ACK.
        let _ = stream.set_nodelay(true);
        let connection_state = Arc::clone(&state);
        let spawned = thread::Builder::new()
            .name("ehw-server-conn".into())
            .spawn(move || handle_connection(stream, connection_state));
        // Thread exhaustion drops the connection; the client sees a reset
        // and retries — preferable to taking the accept loop down.
        drop(spawned);
    }
}

/// Serves requests off one connection until the client asks to close, the
/// per-connection budget runs out, a streaming response takes over the
/// socket, or a protocol error ends the session.
fn handle_connection(mut stream: TcpStream, state: Arc<ServerState>) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    // One buffered reader for the whole connection: under keep-alive, bytes
    // of the next request may already sit in the buffer behind this one's
    // body, so a per-request reader would lose them.
    let mut reader = std::io::BufReader::new(read_half);
    for served in 1..=http::MAX_REQUESTS_PER_CONNECTION {
        let request = match read_request(&mut reader) {
            Ok(request) => request,
            Err(RequestError::TooLarge(size)) => {
                respond_json(
                    &mut stream,
                    413,
                    &encode_error(format!(
                        "request body of {size} bytes exceeds the {} byte limit",
                        http::MAX_BODY_BYTES
                    )),
                    true,
                );
                return;
            }
            Err(RequestError::Malformed(why)) => {
                // After a parse error the framing is unknown, so the
                // connection cannot be reused.
                respond_json(
                    &mut stream,
                    400,
                    &encode_error(format!("malformed request: {why}")),
                    true,
                );
                return;
            }
            Err(RequestError::Closed | RequestError::Io(_)) => return,
        };
        let close = request.close || served == http::MAX_REQUESTS_PER_CONNECTION;
        if !route(&mut stream, &state, &request, close) {
            return;
        }
    }
}

/// Dispatches one parsed request to its handler.  `close` is what the
/// response announces; the return value says whether the connection is still
/// usable for another request (false once a streaming response has taken
/// over the socket, or when `close` was announced).
fn route(stream: &mut TcpStream, state: &ServerState, request: &Request, close: bool) -> bool {
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("POST", ["jobs"]) => handle_submit(stream, state, &request.body, None, close),
        ("POST", ["streams"]) => handle_submit(stream, state, &request.body, Some("stream"), close),
        ("GET", ["jobs", id]) => return handle_job(stream, state, id, JobEndpoint::Status, close),
        ("DELETE", ["jobs", id]) => {
            return handle_job(stream, state, id, JobEndpoint::Cancel, close)
        }
        ("GET", ["jobs", id, "events"]) => {
            return handle_job(stream, state, id, JobEndpoint::Events, close)
        }
        ("GET", ["metrics"]) => handle_metrics(stream, state, request, close),
        ("GET", ["registry"]) => {
            respond_json(stream, 200, &wire::encode_registry(&state.registry), close)
        }
        (_, ["jobs"]) | (_, ["jobs", ..]) | (_, ["metrics"]) | (_, ["registry"]) => respond_json(
            stream,
            405,
            &encode_error("method not allowed on this path"),
            close,
        ),
        _ => respond_json(stream, 404, &encode_error("no such endpoint"), close),
    }
    !close
}

/// Submits a job spec.  `forced_kind` is the endpoint's kind contract
/// (`POST /streams` ⇒ `stream`): a missing `kind` member is defaulted to it,
/// a conflicting one is a 400.
fn handle_submit(
    stream: &mut TcpStream,
    state: &ServerState,
    body: &[u8],
    forced_kind: Option<&'static str>,
    close: bool,
) {
    let Ok(text) = std::str::from_utf8(body) else {
        respond_json(stream, 400, &encode_error("body is not UTF-8"), close);
        return;
    };
    let mut doc = match json::parse(text) {
        Ok(doc) => doc,
        Err(parse_error) => {
            respond_json(stream, 400, &encode_error(parse_error.to_string()), close);
            return;
        }
    };
    if let Some(forced) = forced_kind {
        match doc.get("kind").and_then(Value::as_str) {
            None => {
                if let Value::Object(pairs) = &mut doc {
                    pairs.push(("kind".to_string(), forced.to_value()));
                }
            }
            Some(kind) if kind != forced => {
                respond_json(
                    stream,
                    400,
                    &encode_error(format!(
                        "this endpoint submits \"{forced}\" specs, not \"{kind}\""
                    )),
                    close,
                );
                return;
            }
            Some(_) => {}
        }
    }
    let (spec, options) = match wire::decode_spec_with(&doc, &state.registry) {
        Ok(decoded) => decoded,
        Err(wire_error) => {
            respond_json(stream, 400, &encode_error(wire_error.to_string()), close);
            return;
        }
    };
    let kind = spec.kind();
    let handle = match state.service.submit_with(spec, options) {
        Ok(handle) => handle,
        Err(service_error) => {
            respond_json(stream, 500, &encode_error(service_error.to_string()), close);
            return;
        }
    };
    let job_id = handle.job_id();
    let seed = handle.seed();
    lock(&state.jobs).insert(job_id, handle);
    respond_json(
        stream,
        201,
        &obj(&[
            ("job_id", &job_id),
            ("seed", &seed),
            ("kind", &kind),
            ("status", &"queued"),
        ]),
        close,
    );
}

/// What a request under `/jobs/:id` asks: status, cancellation or events.
enum JobEndpoint {
    Status,
    Cancel,
    Events,
}

/// Serves a request under `/jobs/:id`: the one place a non-integer id gets
/// its 400 and an unknown (or evicted) id its 404.  Socket writes happen
/// after the registry lock is released.  Returns whether the connection is
/// still usable.
fn handle_job(
    stream: &mut TcpStream,
    state: &ServerState,
    id: &str,
    endpoint: JobEndpoint,
    close: bool,
) -> bool {
    let Ok(job_id) = id.parse::<u64>() else {
        respond_json(
            stream,
            400,
            &encode_error("job id must be an integer"),
            close,
        );
        return !close;
    };
    let jobs = lock(&state.jobs);
    let Some(handle) = jobs.get(&job_id) else {
        drop(jobs);
        respond_json(
            stream,
            404,
            &encode_error(format!("no job {job_id}")),
            close,
        );
        return !close;
    };
    let (code, doc) = match endpoint {
        JobEndpoint::Status => (200, status_doc(job_id, handle)),
        JobEndpoint::Cancel => {
            // Cancellation is cooperative: 202 says "requested", the job
            // settles at its next generation boundary.  An already settled
            // job reports its final state with a plain 200.
            let status = handle.status();
            let (code, reported) = if status.is_settled() {
                (200, status.name())
            } else {
                handle.monitor().cancel();
                (202, "cancelling")
            };
            (code, obj(&[("job_id", &job_id), ("status", &reported)]))
        }
        JobEndpoint::Events => {
            let monitor = handle.monitor();
            drop(jobs);
            stream_events(stream, &monitor);
            return false;
        }
    };
    drop(jobs);
    respond_json(stream, code, &doc, close);
    !close
}

/// The status document: the job's status, plus its result (or why it was
/// lost) once settled.
fn status_doc(job_id: u64, handle: &JobHandle) -> Value {
    let status = handle.status();
    // Read after the status: settling is final, so a settled status always
    // finds its outcome (one that raced a pending status is left out).
    let outcome = handle.try_wait().map_err(|lost| lost.to_string());
    let (kind, seed, name) = (handle.kind(), handle.seed(), status.name());
    let mut members: Vec<(&str, &dyn ToJson)> = vec![
        ("job_id", &job_id),
        ("kind", &kind),
        ("seed", &seed),
        ("status", &name),
    ];
    match (status.is_settled(), &outcome) {
        (true, Ok(Some(result))) => members.push(("result", result)),
        (true, Err(lost)) => members.push(("error", lost)),
        _ => {}
    }
    obj(&members)
}

/// Streams a job's NDJSON progress events until the job settles.  Events
/// gather for up to [`STREAM_FLUSH`] (a settle ends the wait at once) and
/// then go out in one write, the response head with the first batch; every
/// event is sent exactly once, in order.  A streaming body has no
/// `Content-Length` — its end is signalled by closing the connection — so a
/// stream always consumes the socket.
fn stream_events(stream: &mut impl Write, monitor: &JobMonitor) {
    let mut batch =
        b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nConnection: close\r\n\r\n"
            .to_vec();
    let mut cursor = 0usize;
    loop {
        monitor.wait_settled(STREAM_FLUSH);
        let closed = loop {
            let (events, closed) = monitor.events_page(cursor, STREAM_PAGE);
            for event in &events {
                batch.extend_from_slice(encode_event(cursor, event).to_json().as_bytes());
                batch.push(b'\n');
                cursor += 1;
            }
            if events.len() < STREAM_PAGE {
                break closed;
            }
            if batch.len() >= STREAM_BATCH_BYTES {
                if stream.write_all(&batch).is_err() {
                    return; // client hung up mid-stream
                }
                batch.clear();
            }
        };
        // Until the first event arrives the batch holds only the head.
        if (cursor > 0 || closed) && !batch.is_empty() {
            if stream.write_all(&batch).is_err() {
                return;
            }
            batch.clear();
        }
        if closed {
            return;
        }
    }
}

fn handle_metrics(stream: &mut TcpStream, state: &ServerState, request: &Request, close: bool) {
    // Content negotiation: Prometheus text exposition when the query string
    // or the Accept header asks for plain text, JSON otherwise.
    let wants_prometheus = request
        .query
        .split('&')
        .any(|pair| pair == "format=prometheus")
        || request.accept.contains("text/plain");
    if wants_prometheus {
        let body = prometheus_metrics(state);
        let _ = write_response(
            stream,
            200,
            "text/plain; version=0.0.4; charset=utf-8",
            body.as_bytes(),
            close,
        );
        return;
    }

    let stats = state.service.stats();
    let by_state = state.jobs_by_state(&stats);
    let elapsed = state.started_at.elapsed().as_secs_f64().max(1e-9);
    let liveness = state.service.shard_liveness();

    let latency = Value::Object(
        state
            .service
            .latencies()
            .iter()
            .map(|(kind, histogram)| (kind.to_string(), histogram.to_value()))
            .collect(),
    );
    let jobs: Vec<(&str, &dyn ToJson)> = by_state
        .iter()
        .map(|(name, count)| (*name, count as &dyn ToJson))
        .collect();
    let settled = (stats.completed + stats.failed + stats.cancelled) as f64;

    let doc = obj(&[
        ("queue_depth", &state.service.queue_depth()),
        ("jobs", &obj(&jobs)),
        (
            "service",
            &obj(&[
                ("submitted", &stats.submitted),
                ("completed", &stats.completed),
                ("failed", &stats.failed),
                ("cancelled", &stats.cancelled),
                ("lost", &stats.lost),
            ]),
        ),
        (
            "throughput",
            &obj(&[
                ("uptime_s", &elapsed),
                ("jobs_per_sec", &(settled / elapsed)),
            ]),
        ),
        ("latency_ms", &latency),
        (
            "shards",
            &obj(&[
                ("alive", &liveness),
                ("alive_count", &state.service.alive_shards()),
            ]),
        ),
        (
            "cache",
            &obj(&[
                ("windows_hits", &stats.cache.windows_hits),
                ("windows_misses", &stats.cache.windows_misses),
                // No fitness tier any more; e2ebench's /metrics reader requires both keys.
                ("fitness_hits", &0u64),
                ("fitness_misses", &0u64),
            ]),
        ),
        (
            "retention",
            &obj(&[
                ("job_ttl_s", &state.job_ttl.as_secs_f64()),
                ("jobs_evicted", &state.jobs_evicted()),
            ]),
        ),
    ]);
    respond_json(stream, 200, &doc, close);
}

/// Renders the counters `/metrics` exports in the Prometheus text exposition
/// format (version 0.0.4): `# HELP` / `# TYPE` preamble, one sample per
/// line, labels only on the per-state job gauge.
fn prometheus_metrics(state: &ServerState) -> String {
    fn metric(out: &mut String, name: &str, kind: &str, help: &str, value: impl std::fmt::Display) {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} {kind}");
        let _ = writeln!(out, "{name} {value}");
    }

    let stats = state.service.stats();
    let mut out = String::new();

    metric(
        &mut out,
        "ehw_queue_depth",
        "gauge",
        "Jobs waiting in the service queue.",
        state.service.queue_depth(),
    );
    let _ = writeln!(out, "# HELP ehw_jobs Jobs by lifecycle state.");
    let _ = writeln!(out, "# TYPE ehw_jobs gauge");
    for (name, count) in state.jobs_by_state(&stats) {
        let _ = writeln!(out, "ehw_jobs{{state=\"{name}\"}} {count}");
    }

    metric(
        &mut out,
        "ehw_jobs_submitted_total",
        "counter",
        "Jobs accepted by the service.",
        stats.submitted,
    );
    metric(
        &mut out,
        "ehw_jobs_completed_total",
        "counter",
        "Jobs that settled successfully.",
        stats.completed,
    );
    metric(
        &mut out,
        "ehw_jobs_failed_total",
        "counter",
        "Jobs that settled with a failure.",
        stats.failed,
    );
    metric(
        &mut out,
        "ehw_jobs_cancelled_total",
        "counter",
        "Jobs cancelled before completion.",
        stats.cancelled,
    );
    metric(
        &mut out,
        "ehw_jobs_lost_total",
        "counter",
        "Jobs lost to shard death.",
        stats.lost,
    );
    metric(
        &mut out,
        "ehw_jobs_evicted_total",
        "counter",
        "Settled jobs evicted from the registry by the TTL reaper.",
        state.jobs_evicted(),
    );
    metric(
        &mut out,
        "ehw_shards_alive",
        "gauge",
        "Shard threads currently alive.",
        state.service.alive_shards(),
    );
    metric(
        &mut out,
        "ehw_uptime_seconds",
        "gauge",
        "Seconds since the server started.",
        state.started_at.elapsed().as_secs_f64(),
    );

    metric(
        &mut out,
        "ehw_cache_windows_hits_total",
        "counter",
        "Shared-window extractions served from the cross-job cache.",
        stats.cache.windows_hits,
    );
    metric(
        &mut out,
        "ehw_cache_windows_misses_total",
        "counter",
        "Shared-window extractions computed fresh.",
        stats.cache.windows_misses,
    );
    out
}

fn respond_json(stream: &mut TcpStream, status: u16, doc: &Value, close: bool) {
    let body = doc.to_json();
    let _ = write_response(stream, status, "application/json", body.as_bytes(), close);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehw_service::ServiceConfig;
    use std::io::Read;

    /// One `GET` on a fresh connection; returns the raw response.
    fn get(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(
            stream,
            "GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
        )
        .expect("send request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        response
    }

    #[test]
    fn poisoned_locks_do_not_take_the_server_down() {
        let service = EhwService::new(ServiceConfig::new(1)).expect("valid service config");
        let server = EhwServer::serve(service, "127.0.0.1:0").expect("bind an ephemeral port");
        // A thread panics while holding the registry lock, as a handler
        // panicking mid-request would.
        let state = Arc::clone(&server.state);
        let poisoner = thread::spawn(move || {
            let _registry = state.jobs.lock();
            panic!("poisoning the registry lock");
        });
        assert!(poisoner.join().is_err());
        assert!(server.state.jobs.is_poisoned());

        let addr = server.local_addr();
        let status = get(addr, "/jobs/7");
        assert!(status.starts_with("HTTP/1.1 404"), "{status}");
        let metrics = get(addr, "/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200"), "{metrics}");
        assert!(metrics.contains("\"latency_ms\""), "{metrics}");
        let text = get(addr, "/metrics?format=prometheus");
        assert!(text.contains("ehw_jobs{state=\"done\"} 0"), "{text}");
    }
}
