//! Job-oriented service front-end over a sharded platform pool.
//!
//! The paper's architecture is a shared reconfigurable fabric time-multiplexed
//! across independent evolution tasks; this crate is the serving layer that
//! story maps onto.  Every workload the platform supports — single-filter and
//! parallel evolution, cascades, fault campaigns — is described by one typed
//! request ([`JobSpec`], re-exported from `ehw_platform::jobs`) and submitted
//! to an [`EhwService`], which owns a pool of [`EhwPlatform`] shards and a
//! bounded, priority-laned job queue:
//!
//! ```no_run
//! use ehw_service::{EhwService, JobSpec, ServiceConfig};
//! # let (noisy, clean) = (ehw_image::synth::gradient(32, 32), ehw_image::synth::gradient(32, 32));
//! let service = EhwService::new(ServiceConfig::new(2)).expect("valid config");
//! let spec = JobSpec::evolution(noisy, clean)
//!     .generations(200)
//!     .build()
//!     .expect("valid spec");
//! let handle = service.submit(spec).expect("service accepts jobs");
//! let result = handle.wait().expect("shard pool is alive");
//! println!("best fitness: {:?}", result.final_fitness());
//! ```
//!
//! # Determinism contract
//!
//! A job's outcome is a pure function of its spec and its effective seed.
//! The seed is either pinned in the spec or derived from the service root as
//! `SeedSequence::new(config.seed).fork(job_id)`, and job ids number
//! submissions in order — so a batch of N submitted jobs returns
//! byte-identical results regardless of the platform count, the queue order,
//! the priority lanes, or the worker configuration (seeds are assigned at
//! submission, before any reordering can happen).
//! `tests/property_service_equivalence.rs` pins this, together with
//! byte-identity against direct [`jobs::execute`] runs.
//!
//! # Backpressure, priorities
//!
//! The queue holds at most [`ServiceConfig::queue_depth`] pending jobs;
//! [`EhwService::submit`] **blocks** once it is full and never drops a job.
//! [`EhwService::submit_with`] places a job in one of three [`Priority`]
//! lanes; shards always drain higher lanes first, FIFO within a lane.
//!
//! # Cancellation, deadlines, failure
//!
//! Every handle exposes a [`JobMonitor`] carrying a cooperative cancellation
//! token and a per-generation progress feed.  [`JobMonitor::cancel`] (or a
//! [`JobOptions::deadline`]) stops the job at the next generation boundary
//! with [`JobOutput::Cancelled`]; work done so far still counts in the
//! result envelope.  A job that panics resolves to [`JobOutput::Failed`] and
//! the shard survives.  A shard that dies abnormally (a panic while it holds
//! the queue-pickup lock) no longer takes the service down:
//! the queue-pickup lock is poison-recovered by the surviving shards, and
//! only if **every** shard is gone do the still-queued jobs resolve to
//! [`JobLost`] errors instead of stalling their waiters.  A job a shard has
//! already taken settles as [`JobLost`] too if that shard unwinds outside the
//! per-job panic boundary.
//!
//! # One lifecycle record per job
//!
//! A job's [`JobHandle`], its [`JobMonitor`]s and its shard share one record:
//! kind, submission instant, running flag, progress feed and, once settled,
//! the outcome with its settle instant.  On every exit path the shard
//! settles the job in one step: it counts the outcome in [`ServiceStats`],
//! records the submit→settle latency ([`EhwService::latencies`]), stores the
//! outcome and thereby closes the feed.  [`JobHandle::try_wait`] can be
//! called any number of times.  A progress event wakes only threads blocked
//! in [`JobMonitor::wait_events`]; [`JobHandle::wait`] and
//! [`JobMonitor::wait_settled`] wake at the settle alone, so a generation
//! costs the shard no wakeup when nobody follows the feed.
//!
//! # What a retained feed costs
//!
//! A settled job keeps its whole progress feed for as long as its record
//! lives, so a reader that comes late still gets every event, in order.  The
//! feed is stored as runs of events that differ only in their generation:
//! one record per run, not per generation.  An evolution's feed costs one
//! record per best-fitness improvement, a cascade's one record in all, and a
//! stream's one record per event, since each carries its own payload.

#![warn(missing_docs)]

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ehw_parallel::{EnvConfigError, ParallelConfig};
use ehw_platform::jobs;
use ehw_platform::platform::EhwPlatform;
use rand::SeedSequence;

pub use ehw_platform::cache::{CacheStats, CrossJobCache};
pub use ehw_platform::jobs::{
    CancelKind, CascadeBuilder, CascadeSpec, EvolutionBuilder, EvolutionSpec, FaultCampaignBuilder,
    FaultCampaignSpec, JobOutput, JobProgress, JobResult, JobSpec, SpecError, StreamBuilder,
    StreamSourceSpec, StreamSpec,
};
pub use ehw_platform::scenario::{
    FaultScenario, InjectionSchedule, ResilienceEntry, ResilienceReport, ScenarioKind,
    ScenarioRegistry, TargetFilter,
};
pub use ehw_platform::self_healing::{RecoveryPolicy, RecoveryStep};
pub use ehw_stream::{
    AdaptationConfig, DriftConfig, NoiseSegment, PgmDirSource, SceneKind, SegmentReport,
    StreamEvent, StreamReport,
};

// ---------------------------------------------------------------------------
// Poison recovery
// ---------------------------------------------------------------------------

/// Locks `mutex`, recovering the guard if a panicking holder poisoned it.
///
/// Every queue and event-log invariant is re-established before the guard is
/// released on all paths (lengths are updated in the same critical section as
/// the pops that change them), so a poisoned lock means "a sibling shard
/// died", not "the data is torn" — the right response is to keep serving.
fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

fn wait_recover<'a, T>(condvar: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    condvar.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Environment variable [`ServiceConfig::from_env`] reads the shard count
/// from.
const PLATFORMS_ENV: &str = "EHW_PLATFORMS";

/// Sizing of an [`EhwService`]: how many platform shards it owns, how much
/// host parallelism each shard may use, and how deep the submission queue is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Number of platform shards (each owns its platforms and executes one
    /// job at a time).
    pub platforms: usize,
    /// Worker threads each shard's platform uses for intra-job parallelism
    /// (candidate batches, campaign positions).  Scheduling only: results
    /// are byte-identical at any value.
    pub workers_per_platform: usize,
    /// Maximum number of submitted-but-not-yet-started jobs; a full queue
    /// blocks [`EhwService::submit`] (backpressure) instead of dropping.
    pub queue_depth: usize,
    /// Root seed jobs without a pinned seed derive theirs from (job `n` runs
    /// with `SeedSequence::new(seed).fork(n)`).
    pub seed: u64,
    /// Whether the shards share a service-scope [`CrossJobCache`] of window
    /// extractions (its capacity is the fixed
    /// [`WINDOWS_CAPACITY`](ehw_platform::cache::WINDOWS_CAPACITY)).  Caching
    /// never changes a result byte — `tests/property_cache_determinism.rs`
    /// pins byte-identity with this flag on vs off — it only changes how
    /// often windows are rebuilt.
    pub cache: bool,
}

impl ServiceConfig {
    /// A configuration with `platforms` shards, one worker per shard, a
    /// queue depth of twice the shard count, the cache on and seed 0.  Fully
    /// explicit — nothing is read from the environment.
    pub fn new(platforms: usize) -> Self {
        ServiceConfig {
            platforms,
            workers_per_platform: 1,
            queue_depth: platforms.saturating_mul(2).max(1),
            seed: 0,
            cache: true,
        }
    }

    /// A configuration sized from the environment: `EHW_PLATFORMS` shards
    /// (default 1) with a queue depth of twice that, and `EHW_WORKERS` for
    /// the per-shard worker count.  Both are **validated** — a malformed
    /// variable is a deployment error and comes back as
    /// [`ServiceError::Environment`], never a silent default (unlike
    /// [`ParallelConfig::from_env`], which the experiment binaries use).
    pub fn from_env() -> Result<Self, ServiceError> {
        let parallel = ParallelConfig::try_from_env().map_err(ServiceError::Environment)?;
        let platforms = match std::env::var(PLATFORMS_ENV) {
            Err(_) => 1,
            Ok(value) => match value.trim().parse::<usize>() {
                Ok(platforms) if platforms > 0 => platforms,
                _ => {
                    return Err(ServiceError::Environment(EnvConfigError {
                        var: PLATFORMS_ENV,
                        value,
                        reason: "expected a positive integer shard count",
                    }))
                }
            },
        };
        Ok(Self::new(platforms).workers_per_platform(parallel.workers))
    }

    /// Sets the per-shard worker count.
    pub fn workers_per_platform(mut self, workers: usize) -> Self {
        self.workers_per_platform = workers;
        self
    }

    /// Sets the submission queue depth.
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth;
        self
    }

    /// Sets the root seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables or disables the service-scope cross-job cache.
    pub fn cache(mut self, cache: bool) -> Self {
        self.cache = cache;
        self
    }

    /// Validates the sizing of the configuration.  The environment is only
    /// consulted — and validated, surfacing a malformed `EHW_PLATFORMS` or
    /// `EHW_WORKERS` as [`ServiceError::Environment`] — by
    /// [`from_env`](Self::from_env); an explicitly constructed config never
    /// reads it, so binaries with their own flag handling keep working
    /// whatever the environment contains.
    pub fn validate(&self) -> Result<(), ServiceError> {
        if self.platforms == 0 {
            return Err(ServiceError::InvalidConfig(
                "platforms must be at least 1".into(),
            ));
        }
        if self.workers_per_platform == 0 {
            return Err(ServiceError::InvalidConfig(
                "workers_per_platform must be at least 1".into(),
            ));
        }
        if self.queue_depth == 0 {
            return Err(ServiceError::InvalidConfig(
                "queue_depth must be at least 1".into(),
            ));
        }
        Ok(())
    }
}

/// The job this handle was waiting on can never produce a result: the shard
/// pool died abnormally (every shard gone) before the job ran, or the shard
/// running it unwound outside the per-job panic boundary.
///
/// This is a **service** failure, not a job failure — a job whose own
/// execution panics still resolves normally with [`JobOutput::Failed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobLost {
    /// The id of the job whose result was lost.
    pub job_id: u64,
}

impl std::fmt::Display for JobLost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "job {} was lost: a shard died before the job could settle",
            self.job_id
        )
    }
}

impl std::error::Error for JobLost {}

/// Why the service rejected a configuration or a submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// A sizing field is out of range.
    InvalidConfig(String),
    /// The process environment carries a malformed parallelism variable.
    Environment(EnvConfigError),
    /// The service is shutting down and no longer accepts jobs.
    Shutdown,
    /// A job in a batch was lost to an abnormal shard-pool death.
    JobLost(JobLost),
}

impl From<JobLost> for ServiceError {
    fn from(lost: JobLost) -> Self {
        ServiceError::JobLost(lost)
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::InvalidConfig(why) => write!(f, "invalid service config: {why}"),
            ServiceError::Environment(err) => write!(f, "invalid environment: {err}"),
            ServiceError::Shutdown => write!(f, "the service is shut down"),
            ServiceError::JobLost(lost) => lost.fmt(f),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Environment(err) => Some(err),
            ServiceError::JobLost(lost) => Some(lost),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Priorities and per-job options
// ---------------------------------------------------------------------------

/// Which lane of the bounded queue a job waits in.  Shards always pick from
/// the highest non-empty lane, FIFO within a lane.  Priorities reorder
/// **scheduling only**: seeds are assigned at submission, so results stay
/// byte-identical whatever lane a job rides in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// Picked before everything else (interactive / latency-sensitive jobs).
    High,
    /// The default lane.
    #[default]
    Normal,
    /// Picked only when the other lanes are empty (bulk / batch work).
    Low,
}

impl Priority {
    fn lane(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }
}

/// Per-submission options for [`EhwService::submit_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JobOptions {
    /// The queue lane the job waits in.
    pub priority: Priority,
    /// Wall-clock budget measured from submission.  Checked cooperatively at
    /// generation boundaries: an expired job stops with
    /// [`JobOutput::Cancelled`]`(`[`CancelKind::DeadlineExpired`]`)` at the
    /// next boundary (or before it starts), never mid-generation.
    pub deadline: Option<Duration>,
}

// ---------------------------------------------------------------------------
// Service
// ---------------------------------------------------------------------------

/// Counters of a service's lifetime (see [`EhwService::stats`]).
///
/// Every accepted job ends in exactly one of `completed`, `failed`,
/// `cancelled` or `lost`, so
/// `completed + failed + cancelled + lost <= submitted`, with equality once
/// the queue is drained — `completed` counts **successes only** and cannot
/// lie about failures.  All fields but the `running` gauge only grow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Jobs accepted by [`EhwService::submit`].
    pub submitted: u64,
    /// Jobs that produced a successful result.
    pub completed: u64,
    /// Jobs that panicked while executing ([`JobOutput::Failed`]).
    pub failed: u64,
    /// Jobs stopped by cancellation or deadline ([`JobOutput::Cancelled`]).
    pub cancelled: u64,
    /// Jobs that can never produce a result ([`JobLost`]).
    pub lost: u64,
    /// Jobs a shard is executing right now (a gauge).
    pub running: u64,
    /// Cross-job cache counters (all zero when [`ServiceConfig::cache`] is
    /// off).
    pub cache: CacheStats,
}

/// Upper bounds of the [`LatencyHistogram`] buckets, in milliseconds.
pub const LATENCY_BOUNDS_MS: [u64; 12] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048];

/// Submit→settle latencies of one job kind, in log₂ buckets over
/// milliseconds (see [`EhwService::latencies`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyHistogram {
    /// Samples per bucket: at most [`LATENCY_BOUNDS_MS`]`[i]` ms, and a last,
    /// open-ended bucket.
    pub counts: [u64; LATENCY_BOUNDS_MS.len() + 1],
    /// Samples recorded.
    pub total: u64,
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
}

#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    cancelled: AtomicU64,
    lost: AtomicU64,
    running: AtomicU64,
    /// Submit→settle latency per job kind, recorded as each job settles.
    latencies: Mutex<BTreeMap<&'static str, LatencyHistogram>>,
}

/// Where a job is in its lifecycle (see [`JobHandle::status`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Waiting in the queue.
    Queued,
    /// A shard is executing it.
    Running,
    /// Settled with a successful result.
    Done,
    /// Settled with [`JobOutput::Failed`].
    Failed,
    /// Settled with [`JobOutput::Cancelled`].
    Cancelled,
    /// Settled as [`JobLost`]: it will never produce a result.
    Lost,
}

impl JobStatus {
    /// Every state, in lifecycle order.
    pub const ALL: [JobStatus; 6] = [
        JobStatus::Queued,
        JobStatus::Running,
        JobStatus::Done,
        JobStatus::Failed,
        JobStatus::Cancelled,
        JobStatus::Lost,
    ];

    /// The state's lower-case name (`"queued"`, `"running"`, `"done"`,
    /// `"failed"`, `"cancelled"` or `"lost"`).
    pub fn name(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed => "failed",
            JobStatus::Cancelled => "cancelled",
            JobStatus::Lost => "lost",
        }
    }

    /// Whether the job has settled: its outcome is final.
    pub fn is_settled(self) -> bool {
        !matches!(self, JobStatus::Queued | JobStatus::Running)
    }
}

/// A job's final outcome and when the shard settled it.
#[derive(Debug)]
struct Settled {
    status: JobStatus,
    outcome: Result<JobResult, JobLost>,
    at: Instant,
}

/// Consecutive progress events that differ only in their generation: `first`
/// at feed index `start`, then `len - 1` more at the following generations
/// with `first`'s best fitness.  Only a run of one event carries a stream
/// payload.
#[derive(Debug)]
struct EventRun {
    first: JobProgress,
    start: usize,
    len: usize,
}

impl EventRun {
    /// Whether `event` is the event that follows this run's last one.
    fn continues_with(&self, event: &JobProgress) -> bool {
        self.first.stream.is_none()
            && event.stream.is_none()
            && self.first.best_fitness == event.best_fitness
            && self.first.generation.checked_add(self.len) == Some(event.generation)
    }
}

/// The per-generation progress feed of one job and, once the job has
/// settled, its outcome — whose presence is what closes the feed.
///
/// The feed is kept as runs ([`EventRun`]): an evolution costs one record
/// per best-fitness improvement, a cascade (no fitness per step) one record,
/// and only stream frames, which carry their own payload, one record each.
/// Paging expands the runs again, so every event is still served, in order.
#[derive(Debug)]
struct EventLog {
    runs: Vec<EventRun>,
    settled: Option<Settled>,
    /// Threads blocked in [`JobMonitor::wait_events`].  A pushed event
    /// notifies the feed's condvar only while this is non-zero, so a shard
    /// pays no wakeup per generation when nobody waits for events.
    event_waiters: usize,
}

impl EventLog {
    /// How many events the feed holds.
    fn len(&self) -> usize {
        self.runs.last().map_or(0, |run| run.start + run.len)
    }

    fn push(&mut self, event: JobProgress) {
        match self.runs.last_mut() {
            Some(run) if run.continues_with(&event) => run.len += 1,
            _ => {
                let start = self.len();
                self.runs.push(EventRun {
                    first: event,
                    start,
                    len: 1,
                });
            }
        }
    }

    /// At most `max` events from index `from`, and whether the feed is
    /// closed with none left past them.
    fn page(&self, from: usize, max: usize) -> (Vec<JobProgress>, bool) {
        let rest = self.len().saturating_sub(from);
        let count = rest.min(max);
        let mut events = Vec::with_capacity(count);
        let first_run = self.runs.partition_point(|run| run.start + run.len <= from);
        for run in &self.runs[first_run..] {
            if events.len() == count {
                break;
            }
            let skip = from.saturating_sub(run.start);
            let take = (run.len - skip).min(count - events.len());
            events.extend((skip..skip + take).map(|k| JobProgress {
                generation: run.first.generation + k,
                ..run.first
            }));
        }
        (events, count == rest && self.settled.is_some())
    }

    /// How many records the feed keeps.
    #[cfg(test)]
    fn run_count(&self) -> usize {
        self.runs.len()
    }
}

/// The one record of a job's lifecycle, shared by its handle, its monitors
/// and the shard that runs it.
#[derive(Debug)]
struct JobShared {
    kind: &'static str,
    /// When the job was submitted: the start of its latency sample.
    submitted_at: Instant,
    control: jobs::JobControl,
    running: AtomicBool,
    events: Mutex<EventLog>,
    /// Wakes [`JobMonitor::wait_events`]: on an event while one waits, and
    /// at settle.
    events_cv: Condvar,
    /// Wakes the settle-only waits ([`JobHandle::wait`],
    /// [`JobMonitor::wait_settled`]): notified at settle and never by an
    /// event.
    settled_cv: Condvar,
}

impl JobShared {
    fn new(kind: &'static str, deadline: Option<Instant>) -> Self {
        JobShared {
            kind,
            submitted_at: Instant::now(),
            control: jobs::JobControl::with_deadline(deadline),
            running: AtomicBool::new(false),
            events: Mutex::new(EventLog {
                runs: Vec::new(),
                settled: None,
                event_waiters: 0,
            }),
            events_cv: Condvar::new(),
            settled_cv: Condvar::new(),
        }
    }

    fn push_event(&self, event: JobProgress) {
        let mut log = lock_recover(&self.events);
        log.push(event);
        let waited_on = log.event_waiters > 0;
        drop(log);
        if waited_on {
            self.events_cv.notify_all();
        }
    }

    /// The one step every exit path takes (see the crate docs).  The counters
    /// move before the outcome becomes readable, so a waiter that sees the
    /// outcome also sees it counted.  Later calls are no-ops.
    fn settle(&self, outcome: Result<JobResult, JobLost>, counters: &Counters) {
        let mut log = lock_recover(&self.events);
        if log.settled.is_some() {
            return;
        }
        if self.running.swap(false, Ordering::SeqCst) {
            counters.running.fetch_sub(1, Ordering::SeqCst);
        }
        let (status, counter) = match &outcome {
            Ok(result) if result.is_failed() => (JobStatus::Failed, &counters.failed),
            Ok(result) if result.is_cancelled() => (JobStatus::Cancelled, &counters.cancelled),
            Ok(_) => (JobStatus::Done, &counters.completed),
            Err(_) => (JobStatus::Lost, &counters.lost),
        };
        counter.fetch_add(1, Ordering::SeqCst);
        let at = Instant::now();
        lock_recover(&counters.latencies)
            .entry(self.kind)
            .or_default()
            .record(at - self.submitted_at);
        log.settled = Some(Settled {
            status,
            outcome,
            at,
        });
        drop(log);
        self.events_cv.notify_all();
        self.settled_cv.notify_all();
    }
}

struct QueuedJob {
    job_id: u64,
    seed: u64,
    spec: JobSpec,
    shared: Arc<JobShared>,
}

enum QueueItem {
    // Boxed: a QueuedJob carries a full JobSpec (images included), which
    // would otherwise dwarf the pill variant.
    Job(Box<QueuedJob>),
    /// Test-only poison pill: the shard that picks this up panics **while
    /// holding the queue-pickup lock**, reproducing the abnormal-death mode
    /// the poison-recovery path exists for.
    #[cfg(test)]
    ShardPanic,
}

struct QueueState {
    lanes: [VecDeque<QueueItem>; 3],
    open: bool,
}

impl QueueState {
    fn jobs_queued(&self) -> usize {
        self.lanes
            .iter()
            .flatten()
            .filter(|item| matches!(item, QueueItem::Job(_)))
            .count()
    }
}

/// A bounded, three-lane MPMC queue with poison-recovering pickup.
struct JobQueue {
    state: Mutex<QueueState>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

impl JobQueue {
    fn new(capacity: usize) -> Self {
        JobQueue {
            state: Mutex::new(QueueState {
                lanes: Default::default(),
                open: true,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
        }
    }

    /// Blocks while the queue is at capacity; `Err` means the queue closed.
    fn push(&self, job: QueuedJob, priority: Priority) -> Result<(), ()> {
        let mut state = lock_recover(&self.state);
        while state.open && state.jobs_queued() >= self.capacity {
            state = wait_recover(&self.not_full, state);
        }
        if !state.open {
            return Err(());
        }
        state.lanes[priority.lane()].push_back(QueueItem::Job(Box::new(job)));
        drop(state);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Test hook: enqueue a poison pill at the head of the high lane,
    /// bypassing capacity (it is not a job).
    #[cfg(test)]
    fn push_pill(&self) {
        lock_recover(&self.state).lanes[0].push_front(QueueItem::ShardPanic);
        self.not_empty.notify_one();
    }

    /// Blocks for the next job: the front of the highest non-empty lane
    /// (lane priority, FIFO within a lane).  `None` means the queue closed
    /// and drained.  Lanes drain even after close (graceful shutdown
    /// executes everything already accepted).  Panics — deliberately, while
    /// holding the pickup lock — on a [`QueueItem::ShardPanic`] pill.
    fn pop(&self) -> Option<QueuedJob> {
        let mut state = lock_recover(&self.state);
        loop {
            if let Some(item) = state.lanes.iter_mut().find_map(VecDeque::pop_front) {
                self.not_full.notify_one();
                match item {
                    QueueItem::Job(job) => return Some(*job),
                    #[cfg(test)]
                    QueueItem::ShardPanic => {
                        panic!("shard killed by test poison pill")
                    }
                }
            }
            if !state.open {
                return None;
            }
            state = wait_recover(&self.not_empty, state);
        }
    }

    /// Stops accepting jobs; queued jobs still execute ([`pop`](Self::pop)
    /// drains before reporting closure).
    fn close(&self) {
        lock_recover(&self.state).open = false;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Closes the queue **and** settles every queued job as [`JobLost`].
    /// Only the last dying shard calls this — with live shards, queued jobs
    /// must keep their execution guarantee.
    fn close_and_drain(&self, counters: &Counters) {
        let mut state = lock_recover(&self.state);
        state.open = false;
        for lane in &mut state.lanes {
            for item in lane.drain(..) {
                match item {
                    QueueItem::Job(job) => {
                        let lost = JobLost { job_id: job.job_id };
                        job.shared.settle(Err(lost), counters);
                    }
                    #[cfg(test)]
                    QueueItem::ShardPanic => {}
                }
            }
        }
        drop(state);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    fn depth(&self) -> usize {
        lock_recover(&self.state).jobs_queued()
    }
}

/// The serving front-end: a sharded pool of [`EhwPlatform`]s consuming a
/// bounded, priority-laned queue of [`JobSpec`]s.
///
/// Each shard is one OS thread owning its platforms (one per array count it
/// has seen, recycled via [`EhwPlatform::reset`] so no state leaks between
/// jobs) and executing one job at a time through the single
/// [`jobs::execute_controlled_cached`] path; intra-job parallelism is
/// governed by [`ServiceConfig::workers_per_platform`].  Dropping the
/// service is a **graceful drain**, not a cancel: the queue stops accepting
/// new jobs, every job already accepted still executes, the shards are
/// joined, and every issued [`JobHandle`] remains resolvable (the outcome
/// lives in the job's shared lifecycle record).  To stop a job early, cancel
/// it through its [`JobMonitor`] or give it a [`JobOptions::deadline`].
pub struct EhwService {
    queue: Arc<JobQueue>,
    shards: Vec<JoinHandle<()>>,
    liveness: Arc<Vec<AtomicBool>>,
    root: SeedSequence,
    next_job_id: AtomicU64,
    counters: Arc<Counters>,
    cache: Option<Arc<CrossJobCache>>,
    config: ServiceConfig,
}

impl EhwService {
    /// Validates the configuration and starts the shard threads.
    pub fn new(config: ServiceConfig) -> Result<Self, ServiceError> {
        config.validate()?;
        let parallel = ParallelConfig::with_workers(config.workers_per_platform);
        let queue = Arc::new(JobQueue::new(config.queue_depth));
        let counters = Arc::new(Counters::default());
        let cache = config.cache.then(|| Arc::new(CrossJobCache::default()));
        let liveness: Arc<Vec<AtomicBool>> = Arc::new(
            (0..config.platforms)
                .map(|_| AtomicBool::new(true))
                .collect(),
        );
        let shards = (0..config.platforms)
            .map(|shard| {
                let queue = Arc::clone(&queue);
                let counters = Arc::clone(&counters);
                let liveness = Arc::clone(&liveness);
                let cache = cache.clone();
                std::thread::Builder::new()
                    .name(format!("ehw-shard-{shard}"))
                    .spawn(move || shard_loop(shard, &queue, parallel, &counters, &liveness, cache))
                    .expect("spawn shard thread")
            })
            .collect();
        Ok(EhwService {
            queue,
            shards,
            liveness,
            root: SeedSequence::new(config.seed),
            next_job_id: AtomicU64::new(0),
            counters,
            cache,
            config,
        })
    }

    /// Lifetime counters: jobs submitted, and how each settled job settled.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            submitted: self.counters.submitted.load(Ordering::SeqCst),
            completed: self.counters.completed.load(Ordering::SeqCst),
            failed: self.counters.failed.load(Ordering::SeqCst),
            cancelled: self.counters.cancelled.load(Ordering::SeqCst),
            lost: self.counters.lost.load(Ordering::SeqCst),
            running: self.counters.running.load(Ordering::SeqCst),
            cache: self
                .cache
                .as_deref()
                .map(CrossJobCache::stats)
                .unwrap_or_default(),
        }
    }

    /// Submit→settle latency histograms per job kind (keyed by
    /// [`JobSpec::kind`]), recorded by the shard as it settles each job.
    /// The clock starts at submission, so a wait for queue space counts.
    pub fn latencies(&self) -> BTreeMap<&'static str, LatencyHistogram> {
        lock_recover(&self.counters.latencies).clone()
    }

    /// The shared cross-job cache, when [`ServiceConfig::cache`] is on.
    pub fn cache(&self) -> Option<&Arc<CrossJobCache>> {
        self.cache.as_ref()
    }

    /// Jobs submitted but not yet picked up by a shard.
    pub fn queue_depth(&self) -> usize {
        self.queue.depth()
    }

    /// Per-shard liveness flags, in shard order.  A `false` shard died
    /// abnormally (a normal shutdown joins shards while they are still
    /// "alive" in this view).
    pub fn shard_liveness(&self) -> Vec<bool> {
        self.liveness
            .iter()
            .map(|alive| alive.load(Ordering::SeqCst))
            .collect()
    }

    /// How many shards are still serving.
    pub fn alive_shards(&self) -> usize {
        self.liveness
            .iter()
            .filter(|alive| alive.load(Ordering::SeqCst))
            .count()
    }

    /// Submits one job on the [`Priority::Normal`] lane with no deadline.
    /// Blocks while the queue is at [`ServiceConfig::queue_depth`]
    /// (backpressure — jobs are never dropped).  Returns a handle resolving
    /// to the job's [`JobResult`].
    ///
    /// The job id numbers submissions in order; the effective seed is the
    /// spec's pinned seed or `root.fork(job_id)`, so a deterministic
    /// submission sequence is byte-reproducible no matter how the pool is
    /// sized (see the crate docs).
    pub fn submit(&self, spec: JobSpec) -> Result<JobHandle, ServiceError> {
        self.submit_with(spec, JobOptions::default())
    }

    /// Submits one job with explicit [`JobOptions`] (queue lane, deadline).
    /// Blocks for backpressure like [`submit`](Self::submit).
    pub fn submit_with(
        &self,
        spec: JobSpec,
        options: JobOptions,
    ) -> Result<JobHandle, ServiceError> {
        let job_id = self.next_job_id.fetch_add(1, Ordering::SeqCst);
        let seed = spec.seed().unwrap_or_else(|| self.root.fork(job_id).seed());
        let shared = Arc::new(JobShared::new(
            spec.kind(),
            options.deadline.map(|budget| Instant::now() + budget),
        ));
        // Count the submission before the push: a shard can pick the job up
        // and settle it the instant `push` returns, and the settled counters
        // must never be observable above `submitted`.
        self.counters.submitted.fetch_add(1, Ordering::SeqCst);
        let queued = QueuedJob {
            job_id,
            seed,
            spec,
            shared: Arc::clone(&shared),
        };
        if self.queue.push(queued, options.priority).is_err() {
            self.counters.submitted.fetch_sub(1, Ordering::SeqCst);
            return Err(ServiceError::Shutdown);
        }
        Ok(JobHandle {
            job_id,
            seed,
            shared,
        })
    }

    /// Convenience: submits a batch in order and waits for every result, in
    /// submission order.  Blocks for backpressure like
    /// [`submit`](Self::submit); the shards drain the queue concurrently, so
    /// submitting arbitrarily many jobs from one thread cannot deadlock.  A
    /// job lost to an abnormal pool death surfaces as
    /// [`ServiceError::JobLost`].
    pub fn run_batch(
        &self,
        specs: impl IntoIterator<Item = JobSpec>,
    ) -> Result<Vec<JobResult>, ServiceError> {
        let handles: Vec<JobHandle> = specs
            .into_iter()
            .map(|spec| self.submit(spec))
            .collect::<Result<_, _>>()?;
        handles
            .into_iter()
            .map(|handle| handle.wait().map_err(ServiceError::from))
            .collect()
    }

    /// Test hook: make one shard die **while holding the queue-pickup
    /// lock**, poisoning it — the abnormal-death mode the recovery paths
    /// (and their regression tests) exist for.
    #[cfg(test)]
    fn kill_shard_for_test(&self) {
        self.queue.push_pill();
    }
}

impl Drop for EhwService {
    fn drop(&mut self) {
        // Close the queue: shards finish everything already accepted (the
        // lanes drain even after close) and exit.
        self.queue.close();
        for shard in self.shards.drain(..) {
            let _ = shard.join();
        }
    }
}

impl std::fmt::Debug for EhwService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EhwService")
            .field("config", &self.config)
            .field("stats", &self.stats())
            .field("queue_depth", &self.queue_depth())
            .field("alive_shards", &self.alive_shards())
            .finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------------
// Handles and monitors
// ---------------------------------------------------------------------------

/// A submitted job: resolves to its [`JobResult`] via [`wait`](Self::wait).
/// It reads the job's shared lifecycle record (see the crate docs).
#[derive(Debug)]
pub struct JobHandle {
    job_id: u64,
    seed: u64,
    shared: Arc<JobShared>,
}

impl JobHandle {
    /// The id the service assigned at submission (submission order).
    pub fn job_id(&self) -> u64 {
        self.job_id
    }

    /// The effective RNG seed the job runs with (pinned or derived) —
    /// re-running the same spec through [`jobs::execute`] with this seed
    /// reproduces the result byte for byte.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The job's kind, as [`JobSpec::kind`] names it.
    pub fn kind(&self) -> &'static str {
        self.shared.kind
    }

    /// Where the job is in its lifecycle.  Once this reports a settled
    /// state, [`try_wait`](Self::try_wait) returns the outcome.
    pub fn status(&self) -> JobStatus {
        match &lock_recover(&self.shared.events).settled {
            Some(settled) => settled.status,
            None if self.shared.running.load(Ordering::SeqCst) => JobStatus::Running,
            None => JobStatus::Queued,
        }
    }

    /// When the shard settled the job, once it has.
    pub fn settled_at(&self) -> Option<Instant> {
        lock_recover(&self.shared.events)
            .settled
            .as_ref()
            .map(|settled| settled.at)
    }

    /// A cloneable observer for this job: cancellation, liveness and the
    /// per-generation progress feed.  Outlives the handle, so a caller can
    /// keep watching (or cancel) after moving the handle into `wait`.
    pub fn monitor(&self) -> JobMonitor {
        JobMonitor {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Blocks until the job has settled and returns its result.  Dropping
    /// the service drains the queue, so an accepted job's handle stays
    /// resolvable even after the drop.  `Err(`[`JobLost`]`)` means the job
    /// can never produce a result (see [`JobLost`]) — per-job failure (a
    /// panicking job) is still an `Ok` result carrying [`JobOutput::Failed`].
    pub fn wait(self) -> Result<JobResult, JobLost> {
        let mut log = lock_recover(&self.shared.events);
        loop {
            if let Some(settled) = &log.settled {
                return settled.outcome.clone();
            }
            log = wait_recover(&self.shared.settled_cv, log);
        }
    }

    /// Returns the result if the job has already settled, without blocking.
    /// `Ok(None)` means "still queued or running"; `Err(`[`JobLost`]`)`
    /// means the result can never arrive (see [`wait`](Self::wait)) — a
    /// poller must stop instead of spinning forever.  Each call after the
    /// job settled returns a copy of the same outcome.
    pub fn try_wait(&self) -> Result<Option<JobResult>, JobLost> {
        match &lock_recover(&self.shared.events).settled {
            Some(settled) => settled.outcome.clone().map(Some),
            None => Ok(None),
        }
    }
}

/// A cloneable observer of one job: cancel it, check whether it is running,
/// and read its per-generation progress feed.  Obtained from
/// [`JobHandle::monitor`]; it reads the handle's shared lifecycle record and
/// stays valid after the handle is consumed.
#[derive(Clone, Debug)]
pub struct JobMonitor {
    shared: Arc<JobShared>,
}

impl JobMonitor {
    /// Requests cooperative cancellation.  The job stops with
    /// [`JobOutput::Cancelled`] at its next generation boundary — or before
    /// it starts, if it is still queued.  Work done so far still counts in
    /// the result envelope.  Idempotent; a no-op once the job has settled.
    pub fn cancel(&self) {
        self.shared.control.cancel();
    }

    /// Whether a shard is executing the job right now.
    pub fn is_running(&self) -> bool {
        self.shared.running.load(Ordering::SeqCst)
    }

    /// The progress events recorded so far, starting at index `from`, and
    /// whether the feed is closed.  The feed closes when the job settles, in
    /// the same step that stores its outcome: once this reports `true`, the
    /// handle's [`JobHandle::try_wait`] returns the outcome.
    pub fn events_since(&self, from: usize) -> (Vec<JobProgress>, bool) {
        self.events_page(from, usize::MAX)
    }

    /// Like [`events_since`](Self::events_since), but at most `max` events:
    /// the feed reads as closed only once the page reaches its end, so a
    /// reader can drain a long feed in bounded pieces.
    pub fn events_page(&self, from: usize, max: usize) -> (Vec<JobProgress>, bool) {
        lock_recover(&self.shared.events).page(from, max)
    }

    /// Blocks until at least one event past `from` exists, the feed closes,
    /// or `timeout` elapses — then returns like
    /// [`events_since`](Self::events_since).
    pub fn wait_events(&self, from: usize, timeout: Duration) -> (Vec<JobProgress>, bool) {
        let mut log = lock_recover(&self.shared.events);
        log.event_waiters += 1;
        let (mut log, _) = self
            .shared
            .events_cv
            .wait_timeout_while(log, timeout, |log| {
                log.len() <= from && log.settled.is_none()
            })
            .unwrap_or_else(PoisonError::into_inner);
        log.event_waiters -= 1;
        log.page(from, usize::MAX)
    }

    /// Blocks until the job settles or `timeout` elapses, and returns
    /// whether it has settled.  Progress events do not wake this wait.
    pub fn wait_settled(&self, timeout: Duration) -> bool {
        let log = lock_recover(&self.shared.events);
        let (log, _) = self
            .shared
            .settled_cv
            .wait_timeout_while(log, timeout, |log| log.settled.is_none())
            .unwrap_or_else(PoisonError::into_inner);
        log.settled.is_some()
    }
}

// ---------------------------------------------------------------------------
// Shard loop
// ---------------------------------------------------------------------------

/// Clears this shard's liveness flag when the shard exits, and — only if the
/// shard is dying **abnormally** and it was the last one — drains the queue
/// so every still-queued handle resolves to [`JobLost`] instead of stalling.
struct ShardGuard {
    index: usize,
    liveness: Arc<Vec<AtomicBool>>,
    queue: Arc<JobQueue>,
    counters: Arc<Counters>,
}

impl Drop for ShardGuard {
    fn drop(&mut self) {
        self.liveness[self.index].store(false, Ordering::SeqCst);
        let any_alive = self
            .liveness
            .iter()
            .any(|alive| alive.load(Ordering::SeqCst));
        if std::thread::panicking() && !any_alive {
            self.queue.close_and_drain(&self.counters);
        }
    }
}

/// A job a shard has taken off the queue.  Dropping it unsettled — the
/// shard unwinding outside the per-job `catch_unwind` — settles it as
/// [`JobLost`], so no waiter on a taken job can hang.
struct TakenJob<'a> {
    job_id: u64,
    shared: Arc<JobShared>,
    counters: &'a Counters,
}

impl Drop for TakenJob<'_> {
    fn drop(&mut self) {
        let lost = JobLost {
            job_id: self.job_id,
        };
        self.shared.settle(Err(lost), self.counters);
    }
}

fn shard_loop(
    index: usize,
    queue: &Arc<JobQueue>,
    parallel: ParallelConfig,
    counters: &Arc<Counters>,
    liveness: &Arc<Vec<AtomicBool>>,
    cache: Option<Arc<CrossJobCache>>,
) {
    let _guard = ShardGuard {
        index,
        liveness: Arc::clone(liveness),
        queue: Arc::clone(queue),
        counters: Arc::clone(counters),
    };
    // One platform per array count this shard has served, recycled across
    // jobs.  Shards only ever serialise on queue *pickup*, never on work —
    // and a sibling dying while holding the pickup lock poisons it, which
    // `pop` recovers from instead of abandoning the queue.
    let mut pool: HashMap<usize, EhwPlatform> = HashMap::new();
    while let Some(QueuedJob {
        job_id,
        seed,
        spec,
        shared,
    }) = queue.pop()
    {
        let job = TakenJob {
            job_id,
            shared,
            counters,
        };
        // A job cancelled (or deadline-expired) while still queued settles
        // without touching a platform: zero evaluations, cancelled output.
        if let Some(kind) = job.shared.control.stop_reason() {
            let cancelled = JobResult {
                job_id,
                seed,
                evaluations: 0,
                stats: Default::default(),
                output: JobOutput::Cancelled(kind),
            };
            job.shared.settle(Ok(cancelled), counters);
            continue;
        }

        let arrays = spec.arrays_needed();
        let mut platform = pool
            .remove(&arrays)
            .map(|mut platform| {
                platform.reset();
                platform
            })
            .unwrap_or_else(|| EhwPlatform::with_parallel(arrays, parallel));

        // A panicking job must not take the shard (or the queue) down with
        // it: capture the panic, report it as a failed result, and retire
        // the possibly half-mutated platform instead of pooling it.
        counters.running.fetch_add(1, Ordering::SeqCst);
        job.shared.running.store(true, Ordering::SeqCst);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            jobs::execute_controlled_cached(
                &mut platform,
                &spec,
                seed,
                &job.shared.control,
                &mut |event| job.shared.push_event(event),
                cache.as_ref(),
            )
        }));
        let result = match outcome {
            Ok(mut result) => {
                result.job_id = job_id;
                pool.insert(arrays, platform);
                result
            }
            Err(panic) => JobResult {
                job_id,
                seed,
                evaluations: 0,
                stats: Default::default(),
                // `&*panic`, not `&panic`: the latter unsize-coerces the Box
                // itself into `dyn Any`, making every payload downcast miss.
                output: JobOutput::Failed(panic_message(&*panic)),
            },
        };
        job.shared.settle(Ok(result), counters);
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "job panicked".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehw_image::synth;

    fn training_pair(size: usize) -> (ehw_image::image::GrayImage, ehw_image::image::GrayImage) {
        // A deterministic non-trivial pair without pulling in an RNG: learn
        // the gradient from a checkerboard.
        (
            synth::checkerboard(size, size, 4),
            synth::gradient(size, size),
        )
    }

    fn evolution_spec(size: usize, generations: usize) -> JobSpec {
        let (noisy, clean) = training_pair(size);
        JobSpec::evolution(noisy, clean)
            .generations(generations)
            .build()
            .unwrap()
    }

    /// A job that runs until cancelled (in practice: far longer than any
    /// test timeout, polled for cancellation once per generation).
    fn marathon_spec(size: usize) -> JobSpec {
        evolution_spec(size, 1_000_000)
    }

    #[test]
    fn config_validation_rejects_zero_sizes() {
        assert!(matches!(
            EhwService::new(ServiceConfig {
                platforms: 0,
                ..ServiceConfig::new(1)
            }),
            Err(ServiceError::InvalidConfig(_))
        ));
        assert!(matches!(
            ServiceConfig::new(1).workers_per_platform(0).validate(),
            Err(ServiceError::InvalidConfig(_))
        ));
        assert!(matches!(
            ServiceConfig::new(1).queue_depth(0).validate(),
            Err(ServiceError::InvalidConfig(_))
        ));
        assert!(ServiceConfig::new(2).validate().is_ok());
    }

    #[test]
    fn from_env_surfaces_malformed_environment_with_a_descriptive_error() {
        // Scoped env mutation: the value is restored below, and no other
        // test in this binary depends on these variables (job results are
        // worker-count invariant by contract).
        let old = std::env::var(ehw_parallel::WORKERS_ENV).ok();
        std::env::set_var(ehw_parallel::WORKERS_ENV, "not-a-number");
        let err = ServiceConfig::from_env().unwrap_err();
        match &err {
            ServiceError::Environment(env) => {
                assert_eq!(env.var, ehw_parallel::WORKERS_ENV);
                assert_eq!(env.value, "not-a-number");
            }
            other => panic!("expected an environment error, got {other:?}"),
        }
        assert!(err.to_string().contains("EHW_WORKERS"), "{err}");
        match old {
            Some(value) => std::env::set_var(ehw_parallel::WORKERS_ENV, value),
            None => std::env::remove_var(ehw_parallel::WORKERS_ENV),
        }
        // A malformed shard count is refused the same way, not read as 1.
        let old = std::env::var(PLATFORMS_ENV).ok();
        std::env::set_var(PLATFORMS_ENV, "abc");
        let err = ServiceConfig::from_env().unwrap_err();
        match &err {
            ServiceError::Environment(env) => {
                assert_eq!(env.var, PLATFORMS_ENV);
                assert_eq!(env.value, "abc");
            }
            other => panic!("expected an environment error, got {other:?}"),
        }
        assert!(err.to_string().contains("EHW_PLATFORMS"), "{err}");
        std::env::set_var(PLATFORMS_ENV, "3");
        let config = ServiceConfig::from_env().expect("a well-formed shard count");
        assert_eq!((config.platforms, config.queue_depth), (3, 6));
        match old {
            Some(value) => std::env::set_var(PLATFORMS_ENV, value),
            None => std::env::remove_var(PLATFORMS_ENV),
        }
        // Explicit configs never read the environment, so they were valid
        // throughout.
        assert!(ServiceConfig::new(1).validate().is_ok());
    }

    #[test]
    fn submit_and_wait_roundtrips_every_job_kind() {
        let (noisy, clean) = training_pair(20);
        let service = EhwService::new(ServiceConfig::new(2)).unwrap();
        let specs = vec![
            JobSpec::evolution(noisy.clone(), clean.clone())
                .generations(4)
                .build()
                .unwrap(),
            JobSpec::cascade(noisy.clone(), clean.clone())
                .stages(2)
                .generations(3)
                .build()
                .unwrap(),
            JobSpec::fault_campaign(noisy, clean)
                .recovery_generations(2)
                .build()
                .unwrap(),
        ];
        let results = service.run_batch(specs).unwrap();
        assert_eq!(results.len(), 3);
        for (i, result) in results.iter().enumerate() {
            assert_eq!(result.job_id, i as u64);
            assert!(!result.is_failed());
            assert!(result.evaluations > 0);
        }
        assert!(results[0].as_evolution().is_some());
        assert!(results[1].as_cascade().is_some());
        assert!(results[2].as_campaign().is_some());
        let stats = service.stats();
        assert_eq!(stats.submitted, 3);
        assert_eq!(stats.completed, 3);
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.cancelled, 0);
        assert_eq!(stats.lost, 0);
    }

    #[test]
    fn derived_seeds_follow_the_root_sequence() {
        let (noisy, clean) = training_pair(16);
        let service = EhwService::new(ServiceConfig::new(1).seed(99)).unwrap();
        let spec = JobSpec::evolution(noisy.clone(), clean.clone())
            .generations(2)
            .build()
            .unwrap();
        let h0 = service.submit(spec.clone()).unwrap();
        let h1 = service.submit(spec).unwrap();
        assert_eq!(h0.job_id(), 0);
        assert_eq!(h1.job_id(), 1);
        assert_eq!(h0.seed(), SeedSequence::new(99).fork(0).seed());
        assert_eq!(h1.seed(), SeedSequence::new(99).fork(1).seed());
        assert_ne!(h0.seed(), h1.seed());
        // Pinned seeds win over derivation.
        let pinned = JobSpec::evolution(noisy, clean)
            .generations(2)
            .seed(1234)
            .build()
            .unwrap();
        let h2 = service.submit(pinned).unwrap();
        assert_eq!(h2.seed(), 1234);
        let results = [h0.wait().unwrap(), h1.wait().unwrap(), h2.wait().unwrap()];
        assert_eq!(results[2].seed, 1234);
        // Different derived seeds explore differently.
        let (a, _) = results[0].as_evolution().unwrap();
        let (b, _) = results[1].as_evolution().unwrap();
        assert_ne!(a.initial_fitness, b.initial_fitness);
    }

    #[test]
    fn identical_submission_sequences_reproduce_byte_identically() {
        let (noisy, clean) = training_pair(20);
        let specs = || {
            vec![
                JobSpec::evolution(noisy.clone(), clean.clone())
                    .generations(3)
                    .build()
                    .unwrap(),
                JobSpec::cascade(noisy.clone(), clean.clone())
                    .stages(2)
                    .generations(2)
                    .build()
                    .unwrap(),
            ]
        };
        let run = |config: ServiceConfig| {
            let service = EhwService::new(config).unwrap();
            service
                .run_batch(specs())
                .unwrap()
                .into_iter()
                .map(|r| {
                    (
                        r.seed,
                        r.evaluations,
                        r.history().to_vec(),
                        r.genotypes()
                            .into_iter()
                            .map(|g| g.encode())
                            .collect::<Vec<_>>(),
                    )
                })
                .collect::<Vec<_>>()
        };
        let reference = run(ServiceConfig::new(1).seed(7));
        // Pool size and worker count are scheduling only.
        assert_eq!(reference, run(ServiceConfig::new(3).seed(7)));
        assert_eq!(
            reference,
            run(ServiceConfig::new(2).workers_per_platform(4).seed(7))
        );
        // The root seed is load-bearing.
        assert_ne!(reference, run(ServiceConfig::new(1).seed(8)));
    }

    #[test]
    fn platforms_are_recycled_without_state_leaks() {
        // A campaign job (which injects faults into its platform's snapshot
        // space and reconfigures arrays) followed by an evolution job of the
        // same shape on the same single shard must score identically to the
        // evolution job on a fresh service.
        let (noisy, clean) = training_pair(16);
        let campaign = JobSpec::fault_campaign(noisy.clone(), clean.clone())
            .recovery_generations(2)
            .seed(5)
            .build()
            .unwrap();
        let evolution = || {
            JobSpec::evolution(noisy.clone(), clean.clone())
                .generations(3)
                .seed(6)
                .build()
                .unwrap()
        };
        let fresh = EhwService::new(ServiceConfig::new(1)).unwrap();
        let expected = fresh.submit(evolution()).unwrap().wait().unwrap();
        let recycled = EhwService::new(ServiceConfig::new(1)).unwrap();
        let _ = recycled.submit(campaign).unwrap().wait().unwrap();
        let got = recycled.submit(evolution()).unwrap().wait().unwrap();
        let (a, _) = expected.as_evolution().unwrap();
        let (b, _) = got.as_evolution().unwrap();
        assert_eq!(a.best_genotype.encode(), b.best_genotype.encode());
        assert_eq!(a.history, b.history);
        assert_eq!(a.evaluations, b.evaluations);
    }

    #[test]
    fn try_wait_is_nonblocking_and_eventually_resolves() {
        let (noisy, clean) = training_pair(16);
        let service = EhwService::new(ServiceConfig::new(1)).unwrap();
        let handle = service
            .submit(
                JobSpec::evolution(noisy, clean)
                    .generations(2)
                    .build()
                    .unwrap(),
            )
            .unwrap();
        loop {
            if let Some(result) = handle.try_wait().unwrap() {
                assert!(!result.is_failed());
                break;
            }
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_closed_feed_means_the_outcome_is_readable() {
        // The feed closes in the same step that stores the outcome: a job
        // whose feed reads closed must answer `try_wait` at once, for every
        // job however its settle races the reader.
        let service = EhwService::new(ServiceConfig::new(2).queue_depth(64)).unwrap();
        let handles: Vec<JobHandle> = (0..48)
            .map(|_| service.submit(evolution_spec(8, 1)).unwrap())
            .collect();
        for handle in &handles {
            let monitor = handle.monitor();
            while !monitor.wait_events(usize::MAX, Duration::from_secs(30)).1 {}
            let result = handle.try_wait().unwrap();
            assert!(result.is_some(), "feed closed before the outcome landed");
            // The shared outcome can be read again, and `wait` still works.
            assert!(handle.try_wait().unwrap().is_some());
            assert_eq!(handle.status(), JobStatus::Done);
            assert!(handle.settled_at().is_some());
        }
        for handle in handles {
            assert!(!handle.wait().unwrap().is_failed());
        }
        let stats = service.stats();
        assert_eq!(stats.completed, 48);
        assert_eq!(stats.running, 0);
        let latencies = service.latencies();
        assert_eq!(latencies.keys().copied().collect::<Vec<_>>(), ["evolution"]);
        assert_eq!(latencies["evolution"].total, 48);
        assert_eq!(latencies["evolution"].counts.iter().sum::<u64>(), 48);
    }

    #[test]
    fn a_taken_job_dropped_unsettled_settles_as_lost() {
        // A shard unwinding outside the per-job panic boundary drops its
        // taken job unsettled; the guard must settle it, or its waiters hang.
        let counters = Counters::default();
        let shared = Arc::new(JobShared::new("evolution", None));
        let handle = JobHandle {
            job_id: 3,
            seed: 0,
            shared: Arc::clone(&shared),
        };
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            let job = TakenJob {
                job_id: 3,
                shared,
                counters: &counters,
            };
            job.counters.running.fetch_add(1, Ordering::SeqCst);
            job.shared.running.store(true, Ordering::SeqCst);
            panic!("shard dies between pickup and settle");
        }));
        assert!(unwound.is_err());
        assert_eq!(handle.status(), JobStatus::Lost);
        assert_eq!(handle.wait().unwrap_err(), JobLost { job_id: 3 });
        assert_eq!(counters.lost.load(Ordering::SeqCst), 1);
        assert_eq!(counters.running.load(Ordering::SeqCst), 0);
    }

    // -- queue unit tests ---------------------------------------------------

    fn dummy_queued_job(job_id: u64) -> QueuedJob {
        QueuedJob {
            job_id,
            seed: job_id,
            spec: evolution_spec(8, 1),
            shared: Arc::new(JobShared::new("evolution", None)),
        }
    }

    #[test]
    fn queue_drains_lanes_in_priority_order_fifo_within_a_lane() {
        let queue = JobQueue::new(8);
        let order = [
            (0, Priority::Low),
            (1, Priority::Normal),
            (2, Priority::High),
            (3, Priority::Low),
            (4, Priority::High),
        ];
        for (id, priority) in order {
            queue.push(dummy_queued_job(id), priority).unwrap();
        }
        let picked: Vec<u64> = (0..order.len())
            .map(|_| queue.pop().unwrap().job_id)
            .collect();
        // High lane first (FIFO: 2 then 4), then Normal, then Low (0 then 3).
        assert_eq!(picked, vec![2, 4, 1, 0, 3]);
        queue.close();
        assert!(queue.pop().is_none());
    }

    #[test]
    fn queue_pickup_survives_a_poisoned_lock() {
        let queue = JobQueue::new(8);
        queue.push(dummy_queued_job(7), Priority::Normal).unwrap();
        queue.push_pill();
        // The pill panics inside `pop` while the pickup lock is held,
        // poisoning it — exactly what a dying shard does to its siblings.
        let died = catch_unwind(AssertUnwindSafe(|| queue.pop()));
        assert!(died.is_err());
        assert!(queue.state.is_poisoned());
        // A surviving shard recovers the lock and keeps draining.
        let survivor = queue.pop().expect("job survives the poisoned lock");
        assert_eq!(survivor.job_id, 7);
        assert_eq!(queue.depth(), 0);
    }

    // -- shard-death recovery ----------------------------------------------

    #[test]
    fn killing_one_shard_leaves_the_rest_of_the_pool_serving() {
        let service = EhwService::new(ServiceConfig::new(2).queue_depth(8)).unwrap();
        service.kill_shard_for_test();
        // The pill is picked up by an idle shard almost immediately; wait
        // until exactly one shard reports dead.
        while service.alive_shards() != 1 {
            std::thread::yield_now();
        }
        assert_eq!(
            service
                .shard_liveness()
                .iter()
                .filter(|alive| **alive)
                .count(),
            1
        );
        // The surviving shard recovers the poisoned pickup lock and drains
        // the whole batch.
        let results = service
            .run_batch((0..4).map(|_| evolution_spec(12, 2)))
            .unwrap();
        assert_eq!(results.len(), 4);
        for result in &results {
            assert!(!result.is_failed());
            assert!(result.evaluations > 0);
        }
        let stats = service.stats();
        assert_eq!(stats.submitted, 4);
        assert_eq!(stats.completed, 4);
        assert_eq!(stats.lost, 0);
    }

    #[test]
    fn a_dead_pool_degrades_to_job_lost_not_a_stall() {
        let service = EhwService::new(ServiceConfig::new(1).queue_depth(8)).unwrap();
        // Occupy the only shard with a cancellable marathon...
        let blocker = service.submit(marathon_spec(8)).unwrap();
        let monitor = blocker.monitor();
        let (events, _) = monitor.wait_events(0, Duration::from_secs(30));
        assert!(!events.is_empty(), "the blocker never started");
        // ...queue two victims behind it, then a poison pill at the head.
        let victim_a = service.submit(evolution_spec(8, 2)).unwrap();
        let victim_b = service.submit(evolution_spec(8, 2)).unwrap();
        service.kill_shard_for_test();
        monitor.cancel();
        // The blocker settles as cancelled; the shard then picks the pill,
        // dies, and — being the last shard — drains the queue so the
        // victims resolve to JobLost instead of blocking forever.
        let blocked = blocker.wait().unwrap();
        assert!(blocked.is_cancelled());
        assert_eq!(
            victim_a.wait().unwrap_err(),
            JobLost { job_id: 1 },
            "queued job must resolve to JobLost when the pool dies"
        );
        assert_eq!(victim_b.wait().unwrap_err(), JobLost { job_id: 2 });
        assert_eq!(service.alive_shards(), 0);
        let stats = service.stats();
        assert_eq!(stats.submitted, 3);
        assert_eq!(stats.cancelled, 1);
        assert_eq!(stats.lost, 2);
        assert_eq!(stats.completed, 0);
        // The drain closed the queue: new submissions are refused, loudly.
        assert_eq!(
            service.submit(evolution_spec(8, 1)).err(),
            Some(ServiceError::Shutdown)
        );
    }

    // -- cancellation, deadlines, progress ----------------------------------

    #[test]
    fn cancel_mid_run_settles_within_a_generation_with_partial_work() {
        let service = EhwService::new(ServiceConfig::new(1)).unwrap();
        let handle = service.submit(marathon_spec(8)).unwrap();
        let monitor = handle.monitor();
        let (events, closed) = monitor.wait_events(0, Duration::from_secs(30));
        assert!(!events.is_empty(), "no progress event arrived");
        assert!(!closed);
        monitor.cancel();
        let result = handle.wait().unwrap();
        assert!(result.is_cancelled());
        assert_eq!(result.cancel_kind(), Some(CancelKind::Requested));
        assert!(result.evaluations > 0, "partial work still counts");
        let stats = service.stats();
        assert_eq!(stats.cancelled, 1);
        assert_eq!(stats.completed, 0);
        // The feed is closed once the job settles.
        let (_, closed) = monitor.events_since(0);
        assert!(closed);
    }

    #[test]
    fn a_shard_takes_queued_jobs_in_submission_order_whatever_their_image() {
        // The running job trains on image X; B (image Y) queues ahead of C
        // (image X again).  Pickup is FIFO within a lane, so the job sharing
        // the previous job's image gets no precedence: B settles first.
        let service = EhwService::new(ServiceConfig::new(1).queue_depth(4)).unwrap();
        let running = service.submit(marathon_spec(8)).unwrap();
        let monitor = running.monitor();
        let (events, _) = monitor.wait_events(0, Duration::from_secs(30));
        assert!(!events.is_empty(), "the running job never started");
        let b = service.submit(evolution_spec(10, 2)).unwrap();
        let c = service.submit(evolution_spec(8, 2)).unwrap();
        monitor.cancel();
        assert!(running.wait().unwrap().is_cancelled());
        for handle in [&b, &c] {
            assert!(handle.monitor().wait_settled(Duration::from_secs(30)));
            assert_eq!(handle.status(), JobStatus::Done);
        }
        assert!(
            b.settled_at().unwrap() < c.settled_at().unwrap(),
            "the later same-image job ran ahead of the earlier one"
        );
    }

    #[test]
    fn cancel_before_start_settles_with_zero_evaluations() {
        let service = EhwService::new(ServiceConfig::new(1).queue_depth(4)).unwrap();
        let blocker = service.submit(marathon_spec(8)).unwrap();
        let blocker_monitor = blocker.monitor();
        let (events, _) = blocker_monitor.wait_events(0, Duration::from_secs(30));
        assert!(!events.is_empty(), "the blocker never started");
        let victim = service.submit(evolution_spec(8, 50)).unwrap();
        victim.monitor().cancel();
        blocker_monitor.cancel();
        assert!(blocker.wait().unwrap().is_cancelled());
        let result = victim.wait().unwrap();
        assert_eq!(result.cancel_kind(), Some(CancelKind::Requested));
        assert_eq!(result.evaluations, 0, "never touched a platform");
        assert_eq!(service.stats().cancelled, 2);
    }

    #[test]
    fn an_expired_deadline_cancels_the_job() {
        let service = EhwService::new(ServiceConfig::new(1)).unwrap();
        // Already expired at submission: cancelled at pickup, zero work.
        let instant = service
            .submit_with(
                evolution_spec(8, 50),
                JobOptions {
                    deadline: Some(Duration::ZERO),
                    ..JobOptions::default()
                },
            )
            .unwrap();
        let result = instant.wait().unwrap();
        assert_eq!(result.cancel_kind(), Some(CancelKind::DeadlineExpired));
        assert_eq!(result.evaluations, 0);
        // A budget shorter than the run: expires at a generation boundary
        // (or at pickup under extreme scheduling delay) — either way the
        // job settles as deadline-expired, never runs to completion.
        let budget = service
            .submit_with(
                marathon_spec(8),
                JobOptions {
                    deadline: Some(Duration::from_millis(50)),
                    ..JobOptions::default()
                },
            )
            .unwrap();
        let result = budget.wait().unwrap();
        assert_eq!(result.cancel_kind(), Some(CancelKind::DeadlineExpired));
        assert_eq!(service.stats().cancelled, 2);
    }

    #[test]
    fn progress_events_stream_one_per_generation_and_close() {
        let service = EhwService::new(ServiceConfig::new(1)).unwrap();
        let handle = service.submit(evolution_spec(12, 5)).unwrap();
        let monitor = handle.monitor();
        let result = handle.wait().unwrap();
        assert!(!result.is_failed());
        let (events, closed) = monitor.events_since(0);
        assert!(closed);
        assert_eq!(events.len(), 5);
        for (i, event) in events.iter().enumerate() {
            assert_eq!(event.generation, i);
            assert!(event.best_fitness.is_some());
        }
        // Cursors make the feed incrementally consumable.
        let (tail, closed) = monitor.wait_events(3, Duration::from_secs(5));
        assert!(closed);
        assert_eq!(tail.len(), 2);
        // A page reads as closed only once it reaches the feed's end.
        let (page, closed) = monitor.events_page(1, 2);
        assert_eq!(page.len(), 2);
        assert!(!closed);
        let (page, closed) = monitor.events_page(3, 2);
        assert_eq!(page.len(), 2);
        assert!(closed);
    }

    #[test]
    fn a_settled_evolution_keeps_one_run_per_best_fitness() {
        let service = EhwService::new(ServiceConfig::new(1)).unwrap();
        let handle = service.submit(evolution_spec(8, 5_000)).unwrap();
        let shared = Arc::clone(&handle.shared);
        let result = handle.wait().unwrap();
        let mut distinct = result.history().to_vec();
        distinct.dedup();
        let log = lock_recover(&shared.events);
        assert_eq!(log.len(), 5_000);
        assert!(
            log.run_count() <= distinct.len(),
            "{} runs for {} distinct best fitnesses",
            log.run_count(),
            distinct.len()
        );
    }

    #[test]
    fn wait_settled_times_out_while_running_and_returns_at_settle() {
        let service = EhwService::new(ServiceConfig::new(1)).unwrap();
        let handle = service.submit(marathon_spec(8)).unwrap();
        let monitor = handle.monitor();
        let (events, _) = monitor.wait_events(0, Duration::from_secs(30));
        assert!(!events.is_empty(), "the marathon never started");
        // Generations keep landing, but only the settle ends the wait.
        let timeout = Duration::from_millis(30);
        let started = Instant::now();
        assert!(!monitor.wait_settled(timeout));
        assert!(started.elapsed() >= timeout);

        let waiter = {
            let monitor = monitor.clone();
            std::thread::spawn(move || {
                (
                    monitor.wait_settled(Duration::from_secs(30)),
                    Instant::now(),
                )
            })
        };
        monitor.cancel();
        let (settled, woke) = waiter.join().unwrap();
        assert!(settled);
        let settled_at = handle.settled_at().expect("the job settled");
        assert!(
            woke.saturating_duration_since(settled_at) < Duration::from_millis(50),
            "woke {:?} after the settle",
            woke.saturating_duration_since(settled_at)
        );
        assert!(handle.wait().unwrap().is_cancelled());
        // On a settled job the wait returns at once.
        assert!(monitor.wait_settled(Duration::ZERO));
    }

    #[test]
    fn priority_lanes_reorder_scheduling_but_not_results() {
        // The same specs submitted high-priority-first and low-priority-first
        // produce byte-identical per-job results: seeds bind at submission.
        let run = |priority: Priority| {
            let service = EhwService::new(ServiceConfig::new(1).seed(11)).unwrap();
            let handles: Vec<JobHandle> = (0..3)
                .map(|_| {
                    service
                        .submit_with(
                            evolution_spec(12, 2),
                            JobOptions {
                                priority,
                                ..JobOptions::default()
                            },
                        )
                        .unwrap()
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    let r = h.wait().unwrap();
                    (r.seed, r.evaluations, r.history().to_vec())
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(Priority::High), run(Priority::Low));
    }

    #[test]
    fn stats_count_failed_jobs_separately_from_completed() {
        let service = EhwService::new(ServiceConfig::new(1)).unwrap();
        let ok = service.submit(evolution_spec(12, 2)).unwrap();
        let bad = service
            .submit(jobs::doomed_spec_for_test(training_pair(12)))
            .unwrap();
        assert!(!ok.wait().unwrap().is_failed());
        let failed = bad.wait().unwrap();
        assert!(failed.is_failed());
        assert!(failed.failure().unwrap().contains("offspring"));
        let stats = service.stats();
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.failed, 1);
    }

    /// Builds a feed from generated steps: each step moves the generation
    /// (mostly by one, so runs form; sometimes not at all, or by a gap,
    /// wrapping past `usize::MAX` when the feed starts near it) and may
    /// change the best fitness, drop it, or carry a stream payload.
    fn feed_from_steps(near_max: bool, steps: &[(usize, u64, u8)]) -> Vec<JobProgress> {
        let mut generation = if near_max { usize::MAX - 6 } else { 0 };
        let mut best_fitness = Some(9);
        steps
            .iter()
            .map(|&(step, level, kind)| {
                generation = generation.wrapping_add(match step {
                    0..=4 => 1,
                    5 => 0,
                    gap => gap,
                });
                match kind {
                    0 => best_fitness = None,
                    1 => best_fitness = Some(level),
                    _ => {}
                }
                let stream = (kind == 2).then_some(StreamEvent::Frame {
                    index: generation,
                    fitness: level,
                });
                JobProgress {
                    generation,
                    best_fitness,
                    stream,
                }
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(128))]

        #[test]
        fn property_feed_pages_match_a_plain_vec(
            near_max in proptest::arbitrary::any::<bool>(),
            steps in proptest::collection::vec((0usize..8, 0u64..3, 0u8..8), 0..48),
        ) {
            let model = feed_from_steps(near_max, &steps);
            let mut log = EventLog {
                runs: Vec::new(),
                settled: None,
                event_waiters: 0,
            };
            for &event in &model {
                log.push(event);
            }
            assert_eq!(log.len(), model.len());
            for settled in [false, true] {
                if settled {
                    log.settled = Some(Settled {
                        status: JobStatus::Lost,
                        outcome: Err(JobLost { job_id: 0 }),
                        at: Instant::now(),
                    });
                }
                for from in 0..=model.len() + 1 {
                    for max in [0, 1, 3, usize::MAX] {
                        let rest = model.get(from..).unwrap_or(&[]);
                        let events = &rest[..rest.len().min(max)];
                        let closed = settled && events.len() == rest.len();
                        assert_eq!(
                            log.page(from, max),
                            (events.to_vec(), closed),
                            "page({from}, {max}), settled: {settled}"
                        );
                    }
                }
            }
        }
    }
}
