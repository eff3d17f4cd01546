//! The library of presynthesized partial bitstreams.
//!
//! §III.A of the paper: *"the library of available PEs was reduced to 16
//! different elements, which allows the corresponding gene coding in 4 bits"*.
//! Each element has one presynthesized partial bitstream stored in external
//! DDR memory; the reconfiguration engine relocates it to whichever PE slot
//! the evolutionary algorithm wants to change.
//!
//! The library is indexed by the 4-bit PE function gene.

use crate::timing::pe_frames;
use ehw_fabric::bitstream::PartialBitstream;
use ehw_fabric::frame::FrameAddress;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Number of presynthesized PE variants (one per 4-bit gene value).
pub const PE_VARIANTS: usize = 16;

/// Library of presynthesized partial bitstreams, as stored in the external
/// DDR memory of the SoPC.
#[derive(Debug, Clone)]
pub struct PbsLibrary {
    /// One PBS per PE function, indexed by the 4-bit gene value.
    variants: Vec<PartialBitstream>,
}

impl PbsLibrary {
    /// Builds the library of 16 PE bitstreams.  The payload
    /// of each PBS is synthesized deterministically from the function index so
    /// that different functions always have different configuration data.
    pub(crate) fn presynthesized() -> Self {
        // Bitstreams are generated for a reference location (region 0,
        // column 0) and relocated on demand by the engine.
        let origin = FrameAddress::new(0, 0, 0);
        let variants = (0..PE_VARIANTS)
            .map(|i| {
                PartialBitstream::synthesize(
                    format!("pe-func-{i:02}"),
                    origin,
                    pe_frames(),
                    0x5EED_0000 + i as u64,
                )
            })
            .collect();
        Self { variants }
    }

    /// The PBS implementing PE function `gene` (0–15).
    ///
    /// # Panics
    /// Panics if `gene >= 16`.
    pub(crate) fn variant(&self, gene: u8) -> &PartialBitstream {
        assert!(
            (gene as usize) < PE_VARIANTS,
            "PE function gene {gene} out of range (0-15)"
        );
        &self.variants[gene as usize]
    }
}

impl Default for PbsLibrary {
    fn default() -> Self {
        Self::presynthesized()
    }
}

// ---------------------------------------------------------------------------
// Champion library: evolved genotypes keyed by workload fingerprint
// ---------------------------------------------------------------------------

/// Workload fingerprint identifying "the same kind of job" across submissions.
///
/// Two evolution jobs share a fingerprint when they train on the same image
/// (by content hash), fight the same noise class and run on the same array
/// shape — exactly the conditions under which a previously evolved champion
/// is a plausible warm start instead of a random initial parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ChampionKey {
    /// Content hash of the training (input) image.
    pub image_hash: u64,
    /// Coarse noise-class tag (see `ehw_image::NoiseClass::tag`).
    pub noise_class: u8,
    /// Number of arrays the genotype was evolved for.
    pub arrays: usize,
}

/// A deposited champion: the best evolved genotype seen for its key.
///
/// Genotypes are stored as their compact byte encoding — the same bytes the
/// MicroBlaze would hold in DDR next to the PBS library — so this crate stays
/// independent of the array crate and snapshots are trivially serializable.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Champion {
    /// `Genotype::encode()` bytes of the champion.
    pub genotype: Vec<u8>,
    /// The fitness (MAE sum — lower is better) the champion achieved.
    pub fitness: u64,
}

/// Bounded library of evolved champions keyed by [`ChampionKey`].
///
/// Each key holds at most one champion — the best (lowest fitness) deposited
/// so far; a worse deposit for an existing key is ignored.  When the library
/// is full, inserting a *new* key evicts the key whose deposit is oldest
/// (FIFO by deposit tick), which keeps eviction deterministic for a given
/// deposit sequence.
#[derive(Debug, Clone)]
pub struct ChampionLibrary {
    capacity: usize,
    tick: u64,
    entries: HashMap<ChampionKey, (Champion, u64)>,
}

impl ChampionLibrary {
    /// Creates an empty library holding at most `capacity` champions.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "champion library capacity must be non-zero");
        Self {
            capacity,
            tick: 0,
            entries: HashMap::new(),
        }
    }

    /// Deposits a champion.  Returns `true` when the library changed: the key
    /// was new, or the deposit beat the incumbent's fitness.  Ties keep the
    /// incumbent so repeated identical jobs do not churn the deposit order.
    pub fn deposit(&mut self, key: ChampionKey, genotype: Vec<u8>, fitness: u64) -> bool {
        if let Some((incumbent, _)) = self.entries.get_mut(&key) {
            if fitness < incumbent.fitness {
                incumbent.genotype = genotype;
                incumbent.fitness = fitness;
                return true;
            }
            return false;
        }
        if self.entries.len() >= self.capacity {
            if let Some(oldest) = self
                .entries
                .iter()
                .min_by_key(|(_, (_, tick))| *tick)
                .map(|(&k, _)| k)
            {
                self.entries.remove(&oldest);
            }
        }
        self.tick += 1;
        self.entries
            .insert(key, (Champion { genotype, fitness }, self.tick));
        true
    }

    /// The champion for `key`, if one is deposited.
    pub fn lookup(&self, key: &ChampionKey) -> Option<&Champion> {
        self.entries.get(key).map(|(champion, _)| champion)
    }

    /// Number of deposited champions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no champion is deposited.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Every deposited champion in deposit order (oldest tick first) — the
    /// order that, replayed through [`deposit`](Self::deposit) into an empty
    /// library of the same capacity, reproduces both the contents and the
    /// FIFO eviction state.  The persistence layer serializes exactly this.
    pub fn snapshot(&self) -> Vec<(ChampionKey, Champion)> {
        let mut entries: Vec<(&ChampionKey, &(Champion, u64))> = self.entries.iter().collect();
        entries.sort_by_key(|(_, (_, tick))| *tick);
        entries
            .into_iter()
            .map(|(&key, (champion, _))| (key, champion.clone()))
            .collect()
    }
}

#[cfg(test)]
impl PbsLibrary {
    /// Finds the gene whose bitstream payload matches `pbs`, if any — how
    /// the tests identify what is currently configured in a slot.
    pub(crate) fn identify(&self, pbs: &PartialBitstream) -> Option<u8> {
        self.variants
            .iter()
            .position(|v| v.payload_bytes() == pbs.payload_bytes())
            .map(|i| i as u8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variants_are_distinct_and_identifiable() {
        let lib = PbsLibrary::presynthesized();
        for gene in 0..16u8 {
            assert_eq!(lib.identify(lib.variant(gene)), Some(gene));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_gene_panics() {
        let lib = PbsLibrary::presynthesized();
        let _ = lib.variant(16);
    }

    #[test]
    fn library_is_reproducible() {
        let a = PbsLibrary::presynthesized();
        let b = PbsLibrary::presynthesized();
        for gene in 0..16u8 {
            assert_eq!(a.variant(gene), b.variant(gene));
        }
    }

    fn key(image_hash: u64) -> ChampionKey {
        ChampionKey {
            image_hash,
            noise_class: 1,
            arrays: 1,
        }
    }

    #[test]
    fn champions_keep_the_best_fitness_per_key() {
        let mut lib = ChampionLibrary::new(4);
        assert!(lib.deposit(key(1), vec![1, 2, 3], 100));
        // A worse deposit is ignored, a tie keeps the incumbent.
        assert!(!lib.deposit(key(1), vec![9, 9, 9], 150));
        assert!(!lib.deposit(key(1), vec![8, 8, 8], 100));
        assert!(lib.deposit(key(1), vec![4, 5, 6], 50));
        let champion = lib.lookup(&key(1)).expect("champion deposited");
        assert_eq!(champion.genotype, vec![4, 5, 6]);
        assert_eq!(champion.fitness, 50);
        assert_eq!(lib.len(), 1);
    }

    #[test]
    fn champion_capacity_evicts_the_oldest_key() {
        let mut lib = ChampionLibrary::new(2);
        assert!(lib.deposit(key(1), vec![1], 10));
        assert!(lib.deposit(key(2), vec![2], 10));
        assert!(lib.deposit(key(3), vec![3], 10));
        assert_eq!(lib.len(), 2);
        assert!(lib.lookup(&key(1)).is_none(), "oldest key evicted");
        assert!(lib.lookup(&key(2)).is_some());
        assert!(lib.lookup(&key(3)).is_some());
    }

    #[test]
    fn champion_keys_distinguish_the_workload_fingerprint() {
        let mut lib = ChampionLibrary::new(8);
        let base = key(1);
        let other_noise = ChampionKey {
            noise_class: 2,
            ..base
        };
        let other_shape = ChampionKey { arrays: 3, ..base };
        lib.deposit(base, vec![1], 10);
        lib.deposit(other_noise, vec![2], 20);
        lib.deposit(other_shape, vec![3], 30);
        assert_eq!(lib.len(), 3);
        assert_eq!(lib.lookup(&base).unwrap().genotype, vec![1]);
        assert_eq!(lib.lookup(&other_noise).unwrap().genotype, vec![2]);
        assert_eq!(lib.lookup(&other_shape).unwrap().genotype, vec![3]);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_champion_library_panics() {
        let _ = ChampionLibrary::new(0);
    }

    #[test]
    fn snapshots_replay_into_an_identical_library() {
        let mut lib = ChampionLibrary::new(3);
        lib.deposit(key(1), vec![1], 10);
        lib.deposit(key(2), vec![2], 20);
        lib.deposit(key(3), vec![3], 30);
        let snapshot = lib.snapshot();
        assert_eq!(
            snapshot
                .iter()
                .map(|(k, _)| k.image_hash)
                .collect::<Vec<_>>(),
            vec![1, 2, 3],
            "snapshot is in deposit order"
        );

        let mut replayed = ChampionLibrary::new(3);
        for (k, champion) in snapshot {
            replayed.deposit(k, champion.genotype, champion.fitness);
        }
        // The replayed library has the same contents *and* the same eviction
        // order: a fourth key evicts key 1 in both.
        lib.deposit(key(4), vec![4], 40);
        replayed.deposit(key(4), vec![4], 40);
        assert_eq!(lib.snapshot(), replayed.snapshot());
        assert!(lib.lookup(&key(1)).is_none());
    }
}
