//! Cross-job caching: content-addressed state shared by every job a service
//! instance executes.
//!
//! At production traffic many submitted jobs train on the same image.
//! [`CrossJobCache`] keeps a **shared-windows cache**: jobs whose specs carry
//! the same training image (by [`GrayImage::content_hash`]) share one
//! [`SharedWindows`] extraction behind an [`Arc`] instead of re-deriving the
//! 3×3 window planes per job.  At most [`WINDOWS_CAPACITY`] images stay
//! resident; the least recently used is evicted first.
//!
//! # Determinism contract
//!
//! The cache never changes a result byte: a shared extraction is a pure
//! function of the image content, so a hit hands the job exactly the planes
//! a miss would have built.  LRU recency (and therefore which images stay
//! resident) may vary with worker scheduling, but it only decides what gets
//! *rebuilt*, never what a job computes.  Byte-identity with the cache on and
//! off — `EngineStats` accounting included — is pinned by
//! `tests/property_cache_determinism.rs`.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use ehw_image::window::SharedWindows;
use ehw_image::GrayImage;

/// Distinct training images whose window extractions a [`CrossJobCache`]
/// keeps alive.  Eight covers the six-image pool of the `mixed` benchmark
/// workload, and at the paper's 128×128 frame size (nine 16 KiB planes per
/// image) bounds the resident planes to about 1.2 MB.
pub const WINDOWS_CAPACITY: usize = 8;

/// Monotonic counters of a [`CrossJobCache`] — a snapshot, reported through
/// `ServiceStats` and `/metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Window extractions served from the cache.
    pub windows_hits: u64,
    /// Window extractions that had to be built.
    pub windows_misses: u64,
}

/// An LRU-bounded map: `HashMap` for lookup plus a tick-ordered `BTreeMap`
/// for eviction order.  Ticks are bumped on every touch, so the `BTreeMap`'s
/// first entry is always the least-recently-used key.
struct LruMap<K, V> {
    capacity: usize,
    tick: u64,
    entries: HashMap<K, (V, u64)>,
    order: BTreeMap<u64, K>,
}

impl<K: std::hash::Hash + Eq + Clone, V: Clone> LruMap<K, V> {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            tick: 0,
            entries: HashMap::new(),
            order: BTreeMap::new(),
        }
    }

    fn get(&mut self, key: &K) -> Option<V> {
        self.tick += 1;
        let tick = self.tick;
        let (value, old_tick) = self.entries.get_mut(key)?;
        let value = value.clone();
        self.order.remove(&std::mem::replace(old_tick, tick));
        self.order.insert(tick, key.clone());
        Some(value)
    }

    /// Inserts, evicting the least-recently-used entry when a new key would
    /// exceed the capacity (an update of an existing key never evicts).
    fn insert(&mut self, key: K, value: V) {
        self.tick += 1;
        if let Some((old_value, old_tick)) = self.entries.get_mut(&key) {
            *old_value = value;
            self.order.remove(&std::mem::replace(old_tick, self.tick));
            self.order.insert(self.tick, key);
            return;
        }
        if self.entries.len() >= self.capacity {
            if let Some((_, victim)) = self.order.pop_first() {
                self.entries.remove(&victim);
            }
        }
        self.entries.insert(key.clone(), (value, self.tick));
        self.order.insert(self.tick, key);
    }
}

/// The service-scope cache; see the module docs for the determinism
/// contract.  All methods take `&self` — the cache is shared
/// across shard threads behind an [`Arc`].
pub struct CrossJobCache {
    windows: Mutex<LruMap<u64, Arc<SharedWindows>>>,
    windows_hits: AtomicU64,
    windows_misses: AtomicU64,
}

impl std::fmt::Debug for CrossJobCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CrossJobCache")
            .field("stats", &self.stats())
            .finish()
    }
}

impl CrossJobCache {
    /// The shared window extraction of `image`, from the cache when a job
    /// with the same training image (by content hash) already built it.
    ///
    /// A lock-poisoning panic on another shard falls back to a fresh private
    /// extraction — the cache degrades to a per-job build, never to an error.
    pub(crate) fn windows_for(&self, image: &GrayImage) -> Arc<SharedWindows> {
        let hash = image.content_hash();
        let Ok(mut windows) = self.windows.lock() else {
            return Arc::new(SharedWindows::new(image));
        };
        if let Some(shared) = windows.get(&hash) {
            self.windows_hits.fetch_add(1, Ordering::Relaxed);
            return shared;
        }
        self.windows_misses.fetch_add(1, Ordering::Relaxed);
        let shared = Arc::new(SharedWindows::new(image));
        windows.insert(hash, Arc::clone(&shared));
        shared
    }

    /// A snapshot of the monotonic counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            windows_hits: self.windows_hits.load(Ordering::Relaxed),
            windows_misses: self.windows_misses.load(Ordering::Relaxed),
        }
    }
}

impl Default for CrossJobCache {
    /// An empty cache holding up to [`WINDOWS_CAPACITY`] images.
    fn default() -> Self {
        Self {
            windows: Mutex::new(LruMap::new(WINDOWS_CAPACITY)),
            windows_hits: AtomicU64::new(0),
            windows_misses: AtomicU64::new(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_are_shared_by_content_not_identity() {
        let cache = CrossJobCache::default();
        let image = GrayImage::from_fn(8, 8, |x, y| (x * y) as u8);
        let a = cache.windows_for(&image);
        let b = cache.windows_for(&image.clone());
        assert!(
            Arc::ptr_eq(&a, &b),
            "same content must share one extraction"
        );
        let other = GrayImage::from_fn(8, 8, |x, y| (x + y) as u8);
        let c = cache.windows_for(&other);
        assert!(!Arc::ptr_eq(&a, &c));
        let stats = cache.stats();
        assert_eq!(stats.windows_hits, 1);
        assert_eq!(stats.windows_misses, 2);
    }

    #[test]
    fn lru_is_bounded_and_evicts_the_least_recently_used() {
        let mut lru = LruMap::new(2);
        lru.insert(1u64, 10u64);
        lru.insert(2, 20);
        // Touch key 1 so key 2 is the LRU victim.
        assert_eq!(lru.get(&1), Some(10));
        lru.insert(3, 30);
        assert_eq!(lru.entries.len(), 2);
        assert_eq!(lru.get(&2), None, "LRU evicted");
        assert_eq!(lru.get(&1), Some(10));
        assert_eq!(lru.get(&3), Some(30));
    }

    #[test]
    fn reinserting_a_key_updates_without_evicting() {
        let mut lru = LruMap::new(2);
        lru.insert(1u64, 10u64);
        lru.insert(2, 20);
        lru.insert(1, 11);
        assert_eq!(lru.entries.len(), 2);
        assert_eq!(lru.get(&2), Some(20));
        assert_eq!(lru.get(&1), Some(11));
    }
}
