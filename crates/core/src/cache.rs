//! Cross-job caching and warm-start: content-addressed state shared by every
//! job a service instance executes.
//!
//! At production traffic many submitted jobs train on the same image and
//! the same noise class.  [`CrossJobCache`] exploits both repetitions in two
//! tiers:
//!
//! * a **shared-windows cache**: jobs whose specs carry the same training
//!   image (by [`GrayImage::content_hash`]) share one [`SharedWindows`]
//!   extraction behind an [`Arc`] instead of re-deriving the 3×3 window
//!   planes per job,
//! * a **champion library** ([`ChampionLibrary`]): completed evolution jobs
//!   deposit their best genotype keyed by workload fingerprint (image hash ×
//!   noise class × array shape); opted-in jobs seed their initial parent from
//!   a matching champion instead of a random draw.
//!
//! The service also uses the windows tier's image hash as a queue-pickup
//! affinity, so a shard prefers jobs whose windows it just built.
//!
//! # Determinism contract
//!
//! The windows tier never changes a result byte: a shared extraction is a
//! pure function of the image content, so a hit hands the job exactly the
//! planes a miss would have built.  LRU recency (and therefore which images
//! stay resident) may vary with worker scheduling, but it only decides what
//! gets *rebuilt*, never what a job computes.  Byte-identity with the cache
//! on and off — `EngineStats` accounting included — is pinned by
//! `tests/property_cache_determinism.rs`.
//!
//! Warm-starting changes results by design (that is the point); it is opt-in
//! per spec and the result records provenance so a client can reproduce the
//! run from `seed` plus the champion that seeded it.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use ehw_image::window::SharedWindows;
use ehw_image::GrayImage;
use ehw_reconfig::library::ChampionLibrary;
pub use ehw_reconfig::library::{Champion, ChampionKey};

/// Sizing knobs of a [`CrossJobCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrossJobCacheConfig {
    /// Distinct training images whose window extractions are kept alive.
    pub windows_capacity: usize,
    /// Champions kept in the warm-start library.
    pub champion_capacity: usize,
}

impl Default for CrossJobCacheConfig {
    fn default() -> Self {
        Self {
            windows_capacity: 8,
            champion_capacity: 256,
        }
    }
}

/// Monotonic counters of a [`CrossJobCache`] — a snapshot, reported through
/// `ServiceStats` and `/metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Window extractions served from the cache.
    pub windows_hits: u64,
    /// Window extractions that had to be built.
    pub windows_misses: u64,
    /// Evolution jobs whose initial parent came from the champion library.
    pub warm_starts: u64,
    /// Champion deposits that changed the library (new key or better
    /// fitness).
    pub champions_deposited: u64,
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
        assert!(capacity > 0, "cache capacity must be non-zero");
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

/// The service-scope cache; see the module docs for the two tiers and the
/// determinism contract.  All methods take `&self` — the cache is shared
/// across shard threads behind an [`Arc`].
pub struct CrossJobCache {
    windows: Mutex<LruMap<u64, Arc<SharedWindows>>>,
    champions: Mutex<ChampionLibrary>,
    /// Bumped on every deposit or import that changed the champion library —
    /// the persistence layer's "is there anything new to save" check.
    champion_epoch: AtomicU64,
    windows_hits: AtomicU64,
    windows_misses: AtomicU64,
    warm_starts: AtomicU64,
    champions_deposited: AtomicU64,
}

impl std::fmt::Debug for CrossJobCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CrossJobCache")
            .field("stats", &self.stats())
            .finish()
    }
}

impl CrossJobCache {
    /// Creates a cache with the given bounds.
    pub fn new(config: CrossJobCacheConfig) -> Self {
        Self {
            windows: Mutex::new(LruMap::new(config.windows_capacity)),
            champions: Mutex::new(ChampionLibrary::new(config.champion_capacity)),
            champion_epoch: AtomicU64::new(0),
            windows_hits: AtomicU64::new(0),
            windows_misses: AtomicU64::new(0),
            warm_starts: AtomicU64::new(0),
            champions_deposited: AtomicU64::new(0),
        }
    }

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

    /// The champion for a workload fingerprint, if deposited.  Does **not**
    /// count a warm start — the champion's genotype still has to decode; the
    /// caller reports success via [`record_warm_start`](Self::record_warm_start)
    /// once the parent is actually seeded, so the counter never exceeds the
    /// jobs whose results say `warm_started: true`.
    pub(crate) fn lookup_champion(&self, key: &ChampionKey) -> Option<Champion> {
        self.champions.lock().ok()?.lookup(key).cloned()
    }

    /// Counts one evolution job whose initial parent was seeded from the
    /// library.  Called after [`lookup_champion`](Self::lookup_champion)'s
    /// genotype decoded successfully — not before.
    pub(crate) fn record_warm_start(&self) {
        self.warm_starts.fetch_add(1, Ordering::Relaxed);
    }

    /// Deposits an evolved champion under its workload fingerprint (kept only
    /// when it is new or beats the incumbent's fitness).
    pub(crate) fn deposit_champion(&self, key: ChampionKey, genotype: Vec<u8>, fitness: u64) {
        let Ok(mut champions) = self.champions.lock() else {
            return;
        };
        if champions.deposit(key, genotype, fitness) {
            self.champions_deposited.fetch_add(1, Ordering::Relaxed);
            self.champion_epoch.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Number of deposited champions.
    pub fn champion_len(&self) -> usize {
        self.champions.lock().map(|c| c.len()).unwrap_or(0)
    }

    /// A monotonic counter that advances whenever the champion library
    /// changes (deposit of a new key, a better fitness, or an import).  A
    /// persistence layer saves only when the epoch moved since its last
    /// write, so an idle server never rewrites an unchanged file.
    pub fn champion_epoch(&self) -> u64 {
        self.champion_epoch.load(Ordering::Relaxed)
    }

    /// Every deposited champion in deposit order — the serializable snapshot
    /// a [`import_champions`](Self::import_champions) on a fresh cache
    /// restores exactly (contents and FIFO eviction order both).
    pub fn export_champions(&self) -> Vec<(ChampionKey, Champion)> {
        self.champions
            .lock()
            .map(|c| c.snapshot())
            .unwrap_or_default()
    }

    /// Replays exported champions into this cache's library, returning how
    /// many deposits changed it.  Imports count toward the epoch (so a
    /// follow-up save sees them) but **not** toward `champions_deposited` —
    /// that counter means "champions this process evolved", and a restored
    /// snapshot did its work in an earlier life.
    pub fn import_champions(
        &self,
        entries: impl IntoIterator<Item = (ChampionKey, Champion)>,
    ) -> usize {
        let Ok(mut champions) = self.champions.lock() else {
            return 0;
        };
        let mut changed = 0;
        for (key, champion) in entries {
            if champions.deposit(key, champion.genotype, champion.fitness) {
                changed += 1;
            }
        }
        drop(champions);
        if changed > 0 {
            self.champion_epoch
                .fetch_add(changed as u64, Ordering::Relaxed);
        }
        changed
    }

    /// A snapshot of the monotonic counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            windows_hits: self.windows_hits.load(Ordering::Relaxed),
            windows_misses: self.windows_misses.load(Ordering::Relaxed),
            warm_starts: self.warm_starts.load(Ordering::Relaxed),
            champions_deposited: self.champions_deposited.load(Ordering::Relaxed),
        }
    }
}

impl Default for CrossJobCache {
    fn default() -> Self {
        Self::new(CrossJobCacheConfig::default())
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

    #[test]
    fn champion_round_trip_counts_provenance() {
        let cache = CrossJobCache::default();
        let ck = ChampionKey {
            image_hash: 7,
            noise_class: 1,
            arrays: 1,
        };
        assert!(cache.lookup_champion(&ck).is_none());
        cache.deposit_champion(ck, vec![1, 2, 3], 50);
        // A worse re-deposit does not count as a new deposit.
        cache.deposit_champion(ck, vec![4, 5, 6], 60);
        let champion = cache.lookup_champion(&ck).expect("deposited");
        assert_eq!(champion.genotype, vec![1, 2, 3]);
        assert_eq!(champion.fitness, 50);
        // Lookups alone never count: a warm start is recorded only once the
        // caller has decoded the champion and actually seeded a parent.
        assert_eq!(cache.stats().warm_starts, 0);
        cache.record_warm_start();
        let stats = cache.stats();
        assert_eq!(stats.champions_deposited, 1);
        assert_eq!(stats.warm_starts, 1, "only the seeded job counts");
        assert_eq!(cache.champion_len(), 1);
    }

    #[test]
    fn champion_exports_restore_on_a_fresh_cache_and_move_the_epoch() {
        let cache = CrossJobCache::default();
        assert_eq!(cache.champion_epoch(), 0);
        let ck = |hash: u64| ChampionKey {
            image_hash: hash,
            noise_class: 1,
            arrays: 1,
        };
        cache.deposit_champion(ck(1), vec![1], 10);
        cache.deposit_champion(ck(2), vec![2], 20);
        // A no-op deposit (worse fitness) leaves the epoch alone.
        cache.deposit_champion(ck(1), vec![9], 99);
        assert_eq!(cache.champion_epoch(), 2);

        let exported = cache.export_champions();
        let restored = CrossJobCache::default();
        assert_eq!(restored.import_champions(exported.clone()), 2);
        assert_eq!(restored.export_champions(), exported);
        // Imports advance the epoch (a save after restore sees the state)...
        assert_eq!(restored.champion_epoch(), 2);
        // ...but provenance counters stay zero: this process evolved nothing.
        assert_eq!(restored.stats().champions_deposited, 0);
        // Re-importing the same snapshot changes nothing.
        assert_eq!(restored.import_champions(exported), 0);
        assert_eq!(restored.champion_epoch(), 2);
    }
}
