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
//! | `GET /jobs/:id/events` | Line-delimited JSON progress events (one per generation), streamed until the job settles |
//! | `GET /metrics`         | Queue depth, per-state job counts, jobs/sec, per-kind latency histograms, shard liveness, cross-job cache counters |
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
//! Settled jobs are retained for a TTL ([`DEFAULT_JOB_TTL`], configurable
//! via [`EhwServer::serve_with_persistence`]) and then evicted by a background
//! reaper thread so a long-lived server's registry cannot grow without
//! bound; an evicted job's status reads as 404, and the eviction count is
//! exported under `/metrics`.
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
use std::fs;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use ehw_service::{EhwService, JobHandle, JobMonitor, JobResult, ScenarioRegistry};

use codec::{obj, ToJson};
use http::{read_request, write_response, write_stream_head, Request, RequestError};
use json::Value;
use wire::{encode_error, encode_event};

/// Latency histogram bucket bounds, in milliseconds (log₂ spaced, the last
/// bucket is open-ended).
const LATENCY_BOUNDS_MS: [u64; 12] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048];

/// How long one `wait_events` poll blocks before re-checking the socket.
const EVENT_POLL: Duration = Duration::from_millis(100);

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

/// One submitted job as the server tracks it.
struct TrackedJob {
    kind: &'static str,
    seed: u64,
    submitted_at: Instant,
    /// When the server first observed the job as settled — the TTL clock.
    settled_at: Option<Instant>,
    monitor: JobMonitor,
    state: JobState,
}

enum JobState {
    /// Still owned by the service; the handle is polled on every status read.
    Pending(JobHandle),
    /// The result arrived (or the pool died); cached for every later read.
    Settled(Result<JobResult, String>),
}

impl TrackedJob {
    /// Polls a pending handle and caches the outcome; returns the wall-clock
    /// latency when this call is the one that settled the job.
    fn poll(&mut self) -> Option<Duration> {
        let JobState::Pending(handle) = &self.state else {
            return None;
        };
        match handle.try_wait() {
            Ok(None) => None,
            Ok(Some(result)) => {
                let latency = self.submitted_at.elapsed();
                self.state = JobState::Settled(Ok(result));
                self.settled_at = Some(Instant::now());
                Some(latency)
            }
            Err(lost) => {
                self.state = JobState::Settled(Err(lost.to_string()));
                self.settled_at = Some(Instant::now());
                Some(self.submitted_at.elapsed())
            }
        }
    }

    /// The externally visible lifecycle state.
    fn status(&self) -> &'static str {
        match &self.state {
            JobState::Pending(_) => {
                if self.monitor.is_running() {
                    "running"
                } else {
                    "queued"
                }
            }
            JobState::Settled(Ok(result)) if result.is_failed() => "failed",
            JobState::Settled(Ok(result)) if result.is_cancelled() => "cancelled",
            JobState::Settled(Ok(_)) => "done",
            JobState::Settled(Err(_)) => "lost",
        }
    }
}

/// Per-kind settle-latency histogram (log₂ buckets over milliseconds).
#[derive(Default)]
struct LatencyHistogram {
    counts: [u64; LATENCY_BOUNDS_MS.len() + 1],
    total: u64,
}

impl LatencyHistogram {
    fn record(&mut self, latency: Duration) {
        let ms = latency.as_millis() as u64;
        let bucket = LATENCY_BOUNDS_MS
            .iter()
            .position(|&bound| ms <= bound)
            .unwrap_or(LATENCY_BOUNDS_MS.len());
        self.counts[bucket] += 1;
        self.total += 1;
    }

    fn encode(&self) -> Value {
        obj(&[
            ("bounds_ms", &LATENCY_BOUNDS_MS.as_slice()),
            ("counts", &self.counts.as_slice()),
            ("total", &self.total),
        ])
    }
}

struct ServerState {
    service: EhwService,
    jobs: Mutex<HashMap<u64, TrackedJob>>,
    latencies: Mutex<HashMap<&'static str, LatencyHistogram>>,
    started_at: Instant,
    shutting_down: AtomicBool,
    /// Retention window for settled jobs; the reaper evicts older ones.
    job_ttl: Duration,
    /// Settled jobs evicted by the reaper since the server started.
    evicted: AtomicU64,
    /// Named fault scenarios and recovery policies resolvable in job specs.
    registry: ScenarioRegistry,
    /// Where the champion library is persisted, when persistence is on.
    champions_file: Option<PathBuf>,
    /// The champion epoch as of the last successful save — the reaper writes
    /// the file again only once the cache's epoch moves past this.
    saved_champion_epoch: AtomicU64,
}

impl ServerState {
    /// Polls every pending job once, recording settle latencies — keeps the
    /// registry's view current between reaper sweeps.
    fn poll_all(&self) {
        let mut jobs = lock(&self.jobs);
        let mut settled = Vec::new();
        for job in jobs.values_mut() {
            if let Some(latency) = job.poll() {
                settled.push((job.kind, latency));
            }
        }
        drop(jobs);
        if !settled.is_empty() {
            let mut latencies = lock(&self.latencies);
            for (kind, latency) in settled {
                latencies.entry(kind).or_default().record(latency);
            }
        }
    }

    /// Tracked jobs per lifecycle state, in the order both `/metrics` forms
    /// report them.
    fn jobs_by_state(&self) -> [(&'static str, u64); 6] {
        let mut by_state = [
            ("queued", 0),
            ("running", 0),
            ("done", 0),
            ("failed", 0),
            ("cancelled", 0),
            ("lost", 0),
        ];
        for job in lock(&self.jobs).values() {
            let status = job.status();
            if let Some(slot) = by_state.iter_mut().find(|(name, _)| *name == status) {
                slot.1 += 1;
            }
        }
        by_state
    }

    /// Evicts every settled job whose retention window has lapsed.  Pending
    /// jobs are never touched, however old: eviction only forgets results
    /// nobody fetched, it never abandons running work.
    fn sweep_expired(&self) {
        self.poll_all();
        let mut jobs = lock(&self.jobs);
        let before = jobs.len();
        jobs.retain(|_, job| match job.settled_at {
            Some(at) => at.elapsed() < self.job_ttl,
            None => true,
        });
        let evicted = (before - jobs.len()) as u64;
        drop(jobs);
        if evicted > 0 {
            self.evicted.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Writes the champion library to the configured file when (and only
    /// when) its epoch moved since the last save.  The write goes through a
    /// sibling temp file plus rename, so a crash mid-write never leaves a
    /// truncated champions file behind.  Deposits racing the export simply
    /// leave the epoch ahead of the saved mark and are picked up next sweep.
    fn save_champions_if_changed(&self) {
        let Some(path) = &self.champions_file else {
            return;
        };
        let Some(cache) = self.service.cache() else {
            return;
        };
        let epoch = cache.champion_epoch();
        if epoch == self.saved_champion_epoch.load(Ordering::Relaxed) {
            return;
        }
        let doc = wire::encode_champions(&cache.export_champions());
        let tmp = path.with_extension("json.tmp");
        let written = fs::write(&tmp, doc.to_json().as_bytes()).and_then(|()| {
            fs::rename(&tmp, path)?;
            Ok(())
        });
        match written {
            Ok(()) => self.saved_champion_epoch.store(epoch, Ordering::Relaxed),
            Err(error) => eprintln!(
                "ehw-server: cannot persist champions to {}: {error}",
                path.display()
            ),
        }
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
        EhwServer::serve_with_persistence(
            service,
            addr,
            DEFAULT_JOB_TTL,
            ScenarioRegistry::builtin(),
            None,
        )
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
    /// * `champions_file` — when set, the server loads the champion library
    ///   from it at startup (a missing file is a fresh start; a malformed one
    ///   refuses to boot) and saves it back — atomically, via temp file +
    ///   rename — whenever the library changed, checked on every reaper sweep
    ///   and once more at shutdown.  Requires the service's cross-job cache to
    ///   be on; with the cache disabled the path is rejected, because
    ///   champions would silently neither load nor save.
    pub fn serve_with_persistence(
        service: EhwService,
        addr: &str,
        job_ttl: Duration,
        registry: ScenarioRegistry,
        champions_file: Option<PathBuf>,
    ) -> io::Result<EhwServer> {
        if let Some(path) = &champions_file {
            let Some(cache) = service.cache() else {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "champion persistence needs the cross-job cache enabled",
                ));
            };
            match fs::read_to_string(path) {
                Ok(text) => {
                    let entries = json::parse(&text)
                        .map_err(|e| invalid_champions(path, e))
                        .and_then(|doc| {
                            wire::parse_champions(&doc).map_err(|e| invalid_champions(path, e))
                        })?;
                    cache.import_champions(entries);
                }
                Err(error) if error.kind() == io::ErrorKind::NotFound => {}
                Err(error) => return Err(error),
            }
        }
        // The freshly imported (or empty) library counts as already saved:
        // the first write happens on the first post-boot change, not at boot.
        let loaded_epoch = service
            .cache()
            .map(|cache| cache.champion_epoch())
            .unwrap_or(0);
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let state = Arc::new(ServerState {
            service,
            jobs: Mutex::new(HashMap::new()),
            latencies: Mutex::new(HashMap::new()),
            started_at: Instant::now(),
            shutting_down: AtomicBool::new(false),
            job_ttl,
            evicted: AtomicU64::new(0),
            registry,
            saved_champion_epoch: AtomicU64::new(loaded_epoch),
            champions_file,
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

    /// Stops accepting connections and joins the accept loop.  In-flight
    /// handler threads drain their connections on their own.
    pub(crate) fn shutdown(&mut self) {
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

impl Drop for EhwServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A malformed champions file refuses to boot — restoring half a library (or
/// none) while the operator believes it loaded would be worse than an error.
fn invalid_champions(path: &std::path::Path, error: impl std::fmt::Display) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("champions file {}: {error}", path.display()),
    )
}

/// The background reaper: sweeps expired settled jobs out of the registry at
/// a cadence derived from the TTL, while staying responsive to shutdown.
/// Each sweep also persists the champion library when its epoch moved, and a
/// final save runs on the way out so shutdown never drops fresh champions.
fn reaper_loop(state: Arc<ServerState>) {
    let sweep_every = (state.job_ttl / 4).clamp(REAPER_POLL, Duration::from_secs(5));
    let mut last_sweep = Instant::now();
    loop {
        thread::sleep(REAPER_POLL);
        if state.shutting_down.load(Ordering::SeqCst) {
            state.save_champions_if_changed();
            return;
        }
        if last_sweep.elapsed() >= sweep_every {
            state.sweep_expired();
            state.save_champions_if_changed();
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
        ("GET", ["jobs", id]) => match id.parse::<u64>() {
            Ok(id) => handle_status(stream, state, id, close),
            Err(_) => respond_json(
                stream,
                400,
                &encode_error("job id must be an integer"),
                close,
            ),
        },
        ("DELETE", ["jobs", id]) => match id.parse::<u64>() {
            Ok(id) => handle_cancel(stream, state, id, close),
            Err(_) => respond_json(
                stream,
                400,
                &encode_error("job id must be an integer"),
                close,
            ),
        },
        ("GET", ["jobs", id, "events"]) => {
            return match id.parse::<u64>() {
                Ok(id) => handle_events(stream, state, id, close),
                Err(_) => {
                    respond_json(
                        stream,
                        400,
                        &encode_error("job id must be an integer"),
                        close,
                    );
                    !close
                }
            };
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
    let tracked = TrackedJob {
        kind,
        seed,
        submitted_at: Instant::now(),
        settled_at: None,
        monitor: handle.monitor(),
        state: JobState::Pending(handle),
    };
    lock(&state.jobs).insert(job_id, tracked);
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

fn handle_status(stream: &mut TcpStream, state: &ServerState, job_id: u64, close: bool) {
    state.poll_all();
    let jobs = lock(&state.jobs);
    let Some(job) = jobs.get(&job_id) else {
        drop(jobs);
        respond_json(
            stream,
            404,
            &encode_error(format!("no job {job_id}")),
            close,
        );
        return;
    };
    let status = job.status();
    let mut members: Vec<(&str, &dyn ToJson)> = vec![
        ("job_id", &job_id),
        ("kind", &job.kind),
        ("seed", &job.seed),
        ("status", &status),
    ];
    match &job.state {
        JobState::Settled(Ok(result)) => members.push(("result", result)),
        JobState::Settled(Err(lost)) => members.push(("error", lost)),
        JobState::Pending(_) => {}
    }
    let doc = obj(&members);
    drop(jobs);
    respond_json(stream, 200, &doc, close);
}

fn handle_cancel(stream: &mut TcpStream, state: &ServerState, job_id: u64, close: bool) {
    state.poll_all();
    let jobs = lock(&state.jobs);
    let Some(job) = jobs.get(&job_id) else {
        drop(jobs);
        respond_json(
            stream,
            404,
            &encode_error(format!("no job {job_id}")),
            close,
        );
        return;
    };
    let already_settled = matches!(job.state, JobState::Settled(_));
    let status = if already_settled {
        job.status()
    } else {
        job.monitor.cancel();
        "cancelling"
    };
    let doc = obj(&[("job_id", &job_id), ("status", &status)]);
    drop(jobs);
    // Cancellation is cooperative: 202 says "requested", the job settles at
    // its next generation boundary.  An already settled job reports its
    // final state with a plain 200.
    respond_json(stream, if already_settled { 200 } else { 202 }, &doc, close);
}

/// Streams a job's NDJSON progress events.  A streaming body has no
/// `Content-Length` — its end is signalled by closing the connection — so a
/// successful stream always consumes the socket; the return value says
/// whether the connection is still usable (only after the 404 short-circuit).
fn handle_events(stream: &mut TcpStream, state: &ServerState, job_id: u64, close: bool) -> bool {
    // The registry guard is a temporary, released before any socket write.
    let monitor = lock(&state.jobs)
        .get(&job_id)
        .map(|job| job.monitor.clone());
    let Some(monitor) = monitor else {
        respond_json(
            stream,
            404,
            &encode_error(format!("no job {job_id}")),
            close,
        );
        return !close;
    };
    if write_stream_head(stream, "application/x-ndjson").is_err() {
        return false;
    }
    let mut cursor = 0usize;
    loop {
        let (events, closed) = monitor.wait_events(cursor, EVENT_POLL);
        for event in &events {
            let line = format!("{}\n", encode_event(cursor, event).to_json());
            cursor += 1;
            if stream.write_all(line.as_bytes()).is_err() {
                return false; // client hung up mid-stream
            }
        }
        if stream.flush().is_err() {
            return false;
        }
        if closed {
            return false;
        }
    }
}

fn handle_metrics(stream: &mut TcpStream, state: &ServerState, request: &Request, close: bool) {
    state.poll_all();

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

    let by_state = state.jobs_by_state();
    let stats = state.service.stats();
    let elapsed = state.started_at.elapsed().as_secs_f64().max(1e-9);
    let liveness = state.service.shard_liveness();

    let latency = {
        let latencies = lock(&state.latencies);
        let mut kinds: Vec<&&'static str> = latencies.keys().collect();
        kinds.sort();
        Value::Object(
            kinds
                .into_iter()
                .map(|&kind| (kind.to_string(), latencies[kind].encode()))
                .collect(),
        )
    };
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
                ("warm_starts", &stats.cache.warm_starts),
                ("champions_deposited", &stats.cache.champions_deposited),
            ]),
        ),
        (
            "retention",
            &obj(&[
                ("job_ttl_s", &state.job_ttl.as_secs_f64()),
                ("jobs_evicted", &state.evicted.load(Ordering::Relaxed)),
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
    let _ = writeln!(
        out,
        "# HELP ehw_jobs Tracked jobs in the registry by lifecycle state."
    );
    let _ = writeln!(out, "# TYPE ehw_jobs gauge");
    for (name, count) in state.jobs_by_state() {
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
        state.evicted.load(Ordering::Relaxed),
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
    metric(
        &mut out,
        "ehw_cache_warm_starts_total",
        "counter",
        "Evolution jobs seeded from the champion library.",
        stats.cache.warm_starts,
    );
    metric(
        &mut out,
        "ehw_cache_champions_deposited_total",
        "counter",
        "Champion genotypes deposited into the library.",
        stats.cache.champions_deposited,
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
        // A thread panics while holding each lock, as a handler panicking
        // mid-request would.
        for poison_latencies in [false, true] {
            let state = Arc::clone(&server.state);
            let poisoner = thread::spawn(move || {
                let _registry = state.jobs.lock();
                let _latencies = poison_latencies.then(|| state.latencies.lock());
                panic!("poisoning the server's locks");
            });
            assert!(poisoner.join().is_err());
        }
        assert!(server.state.jobs.is_poisoned());
        assert!(server.state.latencies.is_poisoned());

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
