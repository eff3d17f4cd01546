//! Deterministic parallel execution layer for the evolvable-hardware platform.
//!
//! The paper's headline scalability claim (§VI.B, Figs. 12–14) is that
//! replicating the PE array over multiple reconfigurable regions lets
//! candidate evaluation proceed in parallel and cuts evolution time.  This
//! crate is the software counterpart of those replicated regions: a
//! scoped-thread worker pool that fans independent units of work (candidate
//! evaluations, fault-campaign positions, per-array filtering) over host
//! threads and merges the results in **deterministic order**.
//!
//! Two rules make every consumer of this crate bit-for-bit reproducible at
//! any worker count:
//!
//! 1. **Work is position-addressed.**  [`ordered_map`] hands each closure its
//!    item index; results are stitched back together by index, never by
//!    completion order.
//! 2. **Randomness is stream-split, not shared.**  Workers never pull from a
//!    shared RNG; each unit of work derives its own [`rand::SeedSequence`]
//!    stream from the run seed and its logical position (generation,
//!    candidate, shard).  The schedule can then change freely — the values
//!    cannot.
//!
//! The [`ParallelConfig`] knob travels through `EsConfig` and `EhwPlatform`
//! so benches can sweep worker counts (`--workers=`, `EHW_WORKERS=`) and
//! measure the speedup-vs-arrays curves of Figs. 12–13 as wall-clock time
//! rather than modelled cycles.

#![warn(missing_docs)]

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::sync::OnceLock;

/// Environment variable overriding the default worker count.
pub const WORKERS_ENV: &str = "EHW_WORKERS";

/// A malformed `EHW_WORKERS` value, with enough context to tell the
/// operator exactly what to fix.
///
/// [`ParallelConfig::from_env`] silently falls back to host parallelism on
/// malformed input (figure binaries should keep running); service
/// front-ends validate through [`ParallelConfig::try_from_env`] instead, so
/// a typo in a deployment manifest surfaces as a configuration error rather
/// than a silently wrong worker count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvConfigError {
    /// The environment variable that failed to parse.
    pub var: &'static str,
    /// The literal value that was rejected.
    pub value: String,
    /// Why it was rejected.
    pub reason: &'static str,
}

impl std::fmt::Display for EnvConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid {}={:?}: {} (unset the variable to use the default)",
            self.var, self.value, self.reason
        )
    }
}

impl std::error::Error for EnvConfigError {}

/// How a batch of independent work items is spread over host threads.
///
/// The configuration only affects *scheduling*; results are merged in item
/// order, so any two configurations produce identical output for the same
/// input (the cross-thread determinism suite in `tests/` enforces this).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ParallelConfig {
    /// Number of worker threads (0 is normalised to 1; 1 runs inline on the
    /// calling thread with no spawning at all).
    pub workers: usize,
}

impl ParallelConfig {
    /// Strictly sequential execution on the calling thread.
    pub fn serial() -> Self {
        ParallelConfig { workers: 1 }
    }

    /// `workers` threads.
    pub fn with_workers(workers: usize) -> Self {
        ParallelConfig { workers }
    }

    /// The process-wide default: `EHW_WORKERS` from the environment, falling
    /// back to the host's available parallelism when it is unset or
    /// malformed.
    ///
    /// The lookup is cached — the environment is read once per process, so
    /// per-generation hot paths can call this freely.
    pub fn from_env() -> Self {
        static CACHED: OnceLock<ParallelConfig> = OnceLock::new();
        *CACHED.get_or_init(|| {
            Self::try_from_env().unwrap_or_else(|_| Self::with_workers(Self::host_workers()))
        })
    }

    /// Reads and validates `EHW_WORKERS` from the process environment,
    /// reporting a malformed value as an [`EnvConfigError`].  This is the
    /// validation entry point service configuration goes through.
    pub fn try_from_env() -> Result<Self, EnvConfigError> {
        Self::try_parse(std::env::var(WORKERS_ENV).ok().as_deref())
    }

    /// Builds a configuration from the textual form of `EHW_WORKERS`
    /// (separate from [`try_from_env`](Self::try_from_env) so it can be
    /// tested without touching the process environment).  `None` means host
    /// parallelism; a malformed or zero count is an [`EnvConfigError`].
    pub(crate) fn try_parse(workers: Option<&str>) -> Result<Self, EnvConfigError> {
        let Some(v) = workers else {
            return Ok(Self::with_workers(Self::host_workers()));
        };
        let error = |reason| EnvConfigError {
            var: WORKERS_ENV,
            value: v.to_owned(),
            reason,
        };
        match v.trim().parse::<usize>() {
            Ok(0) => Err(error("worker count must be at least 1")),
            Ok(workers) => Ok(Self::with_workers(workers)),
            Err(_) => Err(error("expected an unsigned integer worker count")),
        }
    }

    fn host_workers() -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    /// Worker threads actually used for a batch of `items` work items.
    pub(crate) fn effective_workers(&self, items: usize) -> usize {
        self.workers.max(1).min(items.max(1))
    }

    /// Items handed to a worker at a time for a batch of `items` work items:
    /// about four chunks per worker so stragglers can be rebalanced, but
    /// never less than one item per chunk.
    pub(crate) fn effective_chunk(&self, items: usize) -> usize {
        items.div_ceil(self.effective_workers(items) * 4).max(1)
    }
}

impl Default for ParallelConfig {
    fn default() -> Self {
        Self::from_env()
    }
}

/// Maps `f` over `items`, in parallel, returning results in **item order**.
///
/// `f` receives `(index, &item)` so position-addressed seed derivation works
/// (see the crate docs).  Work is distributed in chunks through a shared
/// atomic cursor; each worker records `(chunk_index, results)` pairs and the
/// final vector is stitched by chunk index, so the output is independent of
/// thread scheduling.  With one (effective) worker everything runs inline on
/// the calling thread.
///
/// # Panics
/// Propagates the first panic raised by `f` (the pool joins all workers
/// first, so no work is silently lost).
pub fn ordered_map<T, R, F>(config: ParallelConfig, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    ordered_map_init(config, items, || (), |(), i, item| f(i, item))
}

/// [`ordered_map`] with a per-worker scratch state.
///
/// Each worker thread builds its own state with `init()` once and threads it
/// through every item it processes; the serial path builds one.  This is the
/// hook for worker-resident buffers that are expensive to build per item —
/// e.g. an execution plan that is patched forward to each candidate and
/// reverted afterwards instead of recompiled.
///
/// **Determinism contract:** the state is scratch only.  `f`'s *result* for
/// item `i` must not depend on which items the same worker processed before
/// (restore any state mutation before returning), because chunk-to-worker
/// assignment is scheduling-dependent.  Results are merged in item order
/// exactly like [`ordered_map`].
pub fn ordered_map_init<T, S, R, IF, F>(
    config: ParallelConfig,
    items: &[T],
    init: IF,
    f: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    IF: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    let workers = config.effective_workers(items.len());
    if workers <= 1 || items.len() <= 1 {
        let mut state = init();
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| f(&mut state, i, item))
            .collect();
    }

    let chunk = config.effective_chunk(items.len());
    let num_chunks = items.len().div_ceil(chunk);
    let cursor = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, Vec<R>)>> = Mutex::new(Vec::with_capacity(num_chunks));

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            handles.push(scope.spawn(|| {
                let mut state = init();
                loop {
                    let c = cursor.fetch_add(1, Ordering::Relaxed);
                    if c >= num_chunks {
                        return;
                    }
                    let start = c * chunk;
                    let end = (start + chunk).min(items.len());
                    let results: Vec<R> =
                        (start..end).map(|i| f(&mut state, i, &items[i])).collect();
                    done.lock().expect("pool poisoned").push((c, results));
                }
            }));
        }
        for handle in handles {
            handle.join().expect("worker thread panicked");
        }
    });

    let mut chunks = done.into_inner().expect("pool poisoned");
    chunks.sort_unstable_by_key(|&(c, _)| c);
    debug_assert_eq!(chunks.len(), num_chunks);
    chunks.into_iter().flat_map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_agree_in_order() {
        let items: Vec<u64> = (0..103).collect();
        let serial = ordered_map(ParallelConfig::serial(), &items, |i, &x| x * 3 + i as u64);
        for workers in [2, 3, 8, 16, 32] {
            let cfg = ParallelConfig::with_workers(workers);
            let parallel = ordered_map(cfg, &items, |i, &x| x * 3 + i as u64);
            assert_eq!(serial, parallel, "workers={workers}");
        }
    }

    #[test]
    fn empty_and_singleton_batches() {
        let empty: Vec<u8> = Vec::new();
        assert!(ordered_map(ParallelConfig::with_workers(4), &empty, |_, &x| x).is_empty());
        let one = [7u8];
        assert_eq!(
            ordered_map(ParallelConfig::with_workers(4), &one, |_, &x| x),
            vec![7]
        );
    }

    #[test]
    fn init_variant_is_deterministic_with_scratch_state() {
        // The per-worker state is scratch: as long as `f` restores it before
        // returning, results are identical at any worker count.
        let items: Vec<u64> = (0..97).collect();
        let run = |cfg: ParallelConfig| {
            ordered_map_init(
                cfg,
                &items,
                || vec![0u64; 4],
                |scratch, i, &x| {
                    scratch[0] = x * 3 + i as u64;
                    let r = scratch[0];
                    scratch[0] = 0;
                    r
                },
            )
        };
        let serial = run(ParallelConfig::serial());
        for workers in [2, 3, 8, 25] {
            assert_eq!(serial, run(ParallelConfig::with_workers(workers)));
        }
    }

    #[test]
    fn workers_receive_position_addressed_indices() {
        // Every index must be passed exactly once and in the right slot.
        let items = vec![0u8; 57];
        let got = ordered_map(ParallelConfig::with_workers(4), &items, |i, _| i);
        assert_eq!(got, (0..57).collect::<Vec<_>>());
    }

    #[test]
    fn zero_workers_normalises_to_one() {
        let cfg = ParallelConfig::with_workers(0);
        assert_eq!(cfg.effective_workers(10), 1);
        let items = [1u8, 2, 3];
        assert_eq!(ordered_map(cfg, &items, |_, &x| x), vec![1, 2, 3]);
    }

    #[test]
    fn try_parse_accepts_valid_and_default_values() {
        assert_eq!(
            ParallelConfig::try_parse(Some("6")),
            Ok(ParallelConfig::with_workers(6))
        );
        // Whitespace is tolerated, `None` means host parallelism.
        assert_eq!(ParallelConfig::try_parse(Some(" 3 ")).unwrap().workers, 3);
        assert!(ParallelConfig::try_parse(None).unwrap().workers >= 1);
    }

    #[test]
    fn try_parse_reports_descriptive_errors() {
        let err = ParallelConfig::try_parse(Some("zero")).unwrap_err();
        assert_eq!(err.var, WORKERS_ENV);
        assert_eq!(err.value, "zero");
        let msg = err.to_string();
        assert!(
            msg.contains("EHW_WORKERS"),
            "error must name the variable: {msg}"
        );
        assert!(msg.contains("zero"), "error must quote the value: {msg}");

        let err = ParallelConfig::try_parse(Some("0")).unwrap_err();
        assert!(err.to_string().contains("at least 1"), "{err}");

        let err = ParallelConfig::try_parse(Some("-3")).unwrap_err();
        assert_eq!(err.var, WORKERS_ENV);
    }

    #[test]
    fn effective_chunk_covers_all_items() {
        for items in [1usize, 2, 9, 100, 1000] {
            for workers in [1usize, 2, 8] {
                let cfg = ParallelConfig::with_workers(workers);
                let chunk = cfg.effective_chunk(items);
                assert!(chunk >= 1);
                assert!(chunk * items.div_ceil(chunk) >= items);
            }
        }
    }

    #[test]
    #[should_panic(expected = "worker thread panicked")]
    fn worker_panics_propagate() {
        let items: Vec<usize> = (0..64).collect();
        let _ = ordered_map(ParallelConfig::with_workers(4), &items, |_, &x| {
            if x == 33 {
                panic!("boom");
            }
            x
        });
    }

    #[test]
    fn results_do_not_depend_on_chunking_with_stateful_costs() {
        // Simulate uneven per-item cost: determinism must still hold.
        let items: Vec<u64> = (0..200).collect();
        let expensive = |i: usize, x: &u64| {
            let mut acc = *x;
            for _ in 0..(i % 7) * 100 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            acc
        };
        // 8 workers take chunks of 7 items, 2 workers chunks of 25.
        let a = ordered_map(ParallelConfig::with_workers(8), &items, expensive);
        let b = ordered_map(ParallelConfig::with_workers(2), &items, expensive);
        assert_eq!(a, b);
    }
}
