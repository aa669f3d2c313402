//! The Sequence Number Cache (paper §4).
//!
//! Stores the per-L2-line sequence numbers needed to rebuild one-time-pad
//! seeds. This module is pure state (hit/miss/evict bookkeeping); the
//! latencies those events cost live in the controller, and the actual
//! pad computation in `padlock-crypto`.

use crate::config::{SncConfig, SncOrganization};
use padlock_cache::{CacheConfig, FullAssocCache, SetAssocCache};
use padlock_stats::CounterSet;

/// Result of a query for a line's sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SncLookup {
    /// Resident; carries the sequence number.
    Hit(u16),
    /// Not resident.
    Miss,
}

/// A sequence number evicted by an LRU install; must be encrypted and
/// spilled to memory (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedSeq {
    /// The covered line's address.
    pub line_addr: u64,
    /// The sequence number being spilled.
    pub seq: u16,
}

#[derive(Debug)]
enum Storage {
    Full(FullAssocCache<u16>),
    SetAssoc(SetAssocCache<u16>),
}

/// Fixed-slot SNC event counters, bumped as plain fields on the hot
/// path and rendered as a [`CounterSet`] on demand.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct SncStats {
    query_hits: u64,
    query_misses: u64,
    update_hits: u64,
    update_misses: u64,
    overflows: u64,
    installs: u64,
    spills: u64,
    install_rejects: u64,
}

impl SncStats {
    fn to_counters(self) -> CounterSet {
        // Only touched counters appear, matching the shape the
        // incrementally-built `CounterSet` had before the fixed-slot
        // rewrite (readers use `get`, which defaults absent names to 0).
        let mut set = CounterSet::new("snc");
        for (name, n) in [
            ("query_hits", self.query_hits),
            ("query_misses", self.query_misses),
            ("update_hits", self.update_hits),
            ("update_misses", self.update_misses),
            ("overflows", self.overflows),
            ("installs", self.installs),
            ("spills", self.spills),
            ("install_rejects", self.install_rejects),
        ] {
            if n > 0 {
                set.add(name, n);
            }
        }
        set
    }
}

/// Opaque undo state for one [`SequenceNumberCache::query_undoable`]:
/// the pre-query SNC statistics plus the underlying cache's own recency
/// undo. Apply with [`SequenceNumberCache::undo_query`] before any other
/// mutating SNC call.
#[derive(Debug, Clone, Copy)]
pub struct SncQueryUndo {
    stats: SncStats,
    storage: StorageUndo,
}

#[derive(Debug, Clone, Copy)]
enum StorageUndo {
    Full(padlock_cache::TouchUndo),
    SetAssoc(padlock_cache::ProbeUndo),
}

/// The on-chip Sequence Number Cache.
///
/// # Examples
///
/// ```
/// use padlock_core::{SequenceNumberCache, SncConfig, SncLookup};
///
/// let mut snc = SequenceNumberCache::new(SncConfig::paper_default());
/// assert_eq!(snc.query(0x4000), SncLookup::Miss);
/// snc.install(0x4000, 1);
/// assert_eq!(snc.query(0x4000), SncLookup::Hit(1));
/// assert_eq!(snc.increment(0x4000), Some(2));
/// ```
#[derive(Debug)]
pub struct SequenceNumberCache {
    config: SncConfig,
    storage: Storage,
    stats: SncStats,
}

impl SequenceNumberCache {
    /// Creates an empty SNC.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (zero entries, or a
    /// set-associative organisation whose set count is not a power of
    /// two).
    pub fn new(config: SncConfig) -> Self {
        let entries = config.entries();
        assert!(entries > 0, "SNC must have at least one entry");
        let storage = match config.organization {
            SncOrganization::FullyAssociative => {
                Storage::Full(FullAssocCache::new("snc", entries))
            }
            SncOrganization::SetAssociative(ways) => {
                // Index the SNC by L2 line address: model it as a cache of
                // `covered_line_bytes`-sized "lines", one entry each.
                let line = config.covered_line_bytes;
                Storage::SetAssoc(SetAssocCache::new(CacheConfig::new(
                    "snc",
                    entries * line,
                    line,
                    ways as usize,
                )))
            }
        };
        Self {
            config,
            storage,
            stats: SncStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SncConfig {
        &self.config
    }

    /// Event counters: `query_hits`, `query_misses`, `update_hits`,
    /// `update_misses`, `installs`, `spills`, `overflows` — a snapshot
    /// rendered from the fixed-slot fields.
    pub fn stats(&self) -> CounterSet {
        self.stats.to_counters()
    }

    /// Resets statistics, keeping contents.
    pub fn reset_stats(&mut self) {
        self.stats = SncStats::default();
        match &mut self.storage {
            Storage::Full(c) => c.reset_stats(),
            Storage::SetAssoc(c) => c.reset_stats(),
        }
    }

    /// Entries currently resident.
    pub fn occupancy(&self) -> usize {
        match &self.storage {
            Storage::Full(c) => c.len(),
            Storage::SetAssoc(c) => c.occupancy(),
        }
    }

    /// Whether a no-replacement install of `line_addr` would succeed
    /// (a free slot exists in the relevant set / anywhere).
    pub fn has_room_for(&self, line_addr: u64) -> bool {
        match &self.storage {
            Storage::Full(c) => !c.is_full(),
            // A set has room while fewer than `ways` lines are resident.
            Storage::SetAssoc(c) => c.set_occupancy(line_addr) < c.config().ways(),
        }
    }

    /// Queries the sequence number for a read miss (refreshes recency).
    pub fn query(&mut self, line_addr: u64) -> SncLookup {
        let found = match &mut self.storage {
            Storage::Full(c) => c.get(line_addr).map(|s| *s),
            Storage::SetAssoc(c) => c.probe_mut(line_addr).map(|s| *s),
        };
        match found {
            Some(seq) => {
                self.stats.query_hits += 1;
                SncLookup::Hit(seq)
            }
            None => {
                self.stats.query_misses += 1;
                SncLookup::Miss
            }
        }
    }

    /// Like [`SequenceNumberCache::query`], but also returns the opaque
    /// state [`SequenceNumberCache::undo_query`] needs to reverse the
    /// query's statistics and recency effects exactly. The controller's
    /// speculative singleton-window issue uses this: the SNC lookup must
    /// happen to produce the speculated latency, but must be rolled back
    /// if the window is later replayed, so the replayed batch sees the
    /// exact pre-speculation recency order.
    pub fn query_undoable(&mut self, line_addr: u64) -> (SncLookup, SncQueryUndo) {
        let stats = self.stats;
        let (found, storage) = match &mut self.storage {
            Storage::Full(c) => {
                let (got, undo) = c.get_undoable(line_addr);
                (got.map(|s| *s), StorageUndo::Full(undo))
            }
            Storage::SetAssoc(c) => {
                let (got, undo) = c.probe_mut_undoable(line_addr);
                (got.map(|s| *s), StorageUndo::SetAssoc(undo))
            }
        };
        let lookup = match found {
            Some(seq) => {
                self.stats.query_hits += 1;
                SncLookup::Hit(seq)
            }
            None => {
                self.stats.query_misses += 1;
                SncLookup::Miss
            }
        };
        (lookup, SncQueryUndo { stats, storage })
    }

    /// Reverses the matching [`SequenceNumberCache::query_undoable`],
    /// restoring statistics and recency. Must be applied before any
    /// other mutating SNC call.
    pub fn undo_query(&mut self, undo: SncQueryUndo) {
        self.stats = undo.stats;
        match (&mut self.storage, undo.storage) {
            (Storage::Full(c), StorageUndo::Full(u)) => c.undo_touch(u),
            (Storage::SetAssoc(c), StorageUndo::SetAssoc(u)) => c.undo_probe(u),
            _ => unreachable!("undo state matches the storage it came from"),
        }
    }

    /// Increments the sequence number on an update (writeback) hit,
    /// returning the new value, or `None` on miss.
    ///
    /// On 16-bit wraparound the counter restarts at 1 and an `overflows`
    /// event is counted; the functional layer re-encrypts the line under
    /// a new epoch when this happens.
    pub fn increment(&mut self, line_addr: u64) -> Option<u16> {
        let new = match &mut self.storage {
            Storage::Full(c) => c.get(line_addr).map(|s| {
                *s = s.wrapping_add(1).max(1);
                *s
            }),
            Storage::SetAssoc(c) => c.probe_mut(line_addr).map(|s| {
                *s = s.wrapping_add(1).max(1);
                *s
            }),
        };
        match new {
            Some(seq) => {
                self.stats.update_hits += 1;
                if seq == 1 {
                    self.stats.overflows += 1;
                }
                Some(seq)
            }
            None => {
                self.stats.update_misses += 1;
                None
            }
        }
    }

    /// Installs a sequence number, evicting LRU state if needed.
    ///
    /// Under LRU the victim (if any) is returned for spilling to memory;
    /// the caller charges encryption + a memory write. Under
    /// no-replacement use [`SequenceNumberCache::try_install`] instead.
    pub fn install(&mut self, line_addr: u64, seq: u16) -> Option<EvictedSeq> {
        self.stats.installs += 1;
        let evicted = match &mut self.storage {
            Storage::Full(c) => c
                .insert(line_addr, seq, true)
                .map(|e| EvictedSeq {
                    line_addr: e.addr,
                    seq: e.payload,
                }),
            Storage::SetAssoc(c) => c.insert(line_addr, seq, true).map(|e| EvictedSeq {
                line_addr: e.addr,
                seq: e.payload,
            }),
        };
        if evicted.is_some() {
            self.stats.spills += 1;
        }
        evicted
    }

    /// No-replacement install: succeeds only when a free slot exists.
    pub fn try_install(&mut self, line_addr: u64, seq: u16) -> bool {
        if !self.has_room_for(line_addr) {
            self.stats.install_rejects += 1;
            return false;
        }
        let evicted = self.install(line_addr, seq);
        debug_assert!(evicted.is_none(), "no-replacement install must not evict");
        true
    }

    /// Whether `line_addr` currently has an entry (no side effects).
    pub fn contains(&self, line_addr: u64) -> bool {
        match &self.storage {
            Storage::Full(c) => c.contains(line_addr),
            Storage::SetAssoc(c) => c.contains(line_addr),
        }
    }

    /// Number of replacement domains — groups of entries that compete
    /// for the same victims: one when fully associative, one per set
    /// otherwise.
    pub(crate) fn domains(&self) -> usize {
        match &self.storage {
            Storage::Full(_) => 1,
            Storage::SetAssoc(c) => c.config().num_sets(),
        }
    }

    /// Entries per replacement domain.
    pub(crate) fn domain_entries(&self) -> usize {
        match &self.storage {
            Storage::Full(c) => c.capacity(),
            Storage::SetAssoc(c) => c.config().ways(),
        }
    }

    /// The replacement domain `line_addr` installs into.
    pub(crate) fn domain_of(&self, line_addr: u64) -> usize {
        match &self.storage {
            Storage::Full(_) => 0,
            Storage::SetAssoc(c) => c.config().set_index(line_addr),
        }
    }

    /// Fills an empty fully associative SNC with `lines` (distinct, at
    /// most its capacity), least recently used first, each holding
    /// `seq`: the state installing them in turn would leave. Returns
    /// `false`, changing nothing, when the SNC is set-associative or
    /// not empty.
    pub(crate) fn fill(&mut self, lines: impl ExactSizeIterator<Item = u64>, seq: u16) -> bool {
        match &mut self.storage {
            Storage::Full(c) if c.is_empty() => {
                self.stats.installs += lines.len() as u64;
                c.fill(lines.map(|line| (line, seq)), true);
                true
            }
            _ => false,
        }
    }

    /// Whether entries have observable positions besides their recency:
    /// a set-associative SNC flushes each set in way order, and a way
    /// is claimed by whichever line evicted its previous holder.
    pub(crate) fn has_way_positions(&self) -> bool {
        matches!(self.storage, Storage::SetAssoc(_))
    }

    /// Evicts everything (context switch), returning all entries for
    /// encrypted spill.
    pub fn flush(&mut self) -> Vec<EvictedSeq> {
        match &mut self.storage {
            Storage::Full(c) => c
                .flush()
                .into_iter()
                .map(|e| EvictedSeq {
                    line_addr: e.addr,
                    seq: e.payload,
                })
                .collect(),
            Storage::SetAssoc(c) => c
                .flush()
                .into_iter()
                .map(|e| EvictedSeq {
                    line_addr: e.addr,
                    seq: e.payload,
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SncConfig, SncOrganization, SncPolicy};

    fn tiny(policy: SncPolicy) -> SequenceNumberCache {
        SequenceNumberCache::new(
            SncConfig {
                capacity_bytes: 8, // 4 entries
                entry_bytes: 2,
                organization: SncOrganization::FullyAssociative,
                policy,
                covered_line_bytes: 128,
            },
        )
    }

    #[test]
    fn query_miss_then_hit_after_install() {
        let mut snc = tiny(SncPolicy::Lru);
        assert_eq!(snc.query(0x000), SncLookup::Miss);
        snc.install(0x000, 5);
        assert_eq!(snc.query(0x000), SncLookup::Hit(5));
        assert_eq!(snc.stats().get("query_hits"), 1);
        assert_eq!(snc.stats().get("query_misses"), 1);
    }

    #[test]
    fn increment_bumps_and_counts_update_hits() {
        let mut snc = tiny(SncPolicy::Lru);
        snc.install(0x080, 1);
        assert_eq!(snc.increment(0x080), Some(2));
        assert_eq!(snc.increment(0x080), Some(3));
        assert_eq!(snc.increment(0x999), None);
        assert_eq!(snc.stats().get("update_hits"), 2);
        assert_eq!(snc.stats().get("update_misses"), 1);
    }

    #[test]
    fn lru_install_evicts_and_reports_spill() {
        let mut snc = tiny(SncPolicy::Lru);
        for i in 0..4u64 {
            snc.install(i * 128, i as u16 + 1);
        }
        snc.query(0); // refresh line 0
        let victim = snc.install(4 * 128, 9).expect("full SNC must evict");
        assert_eq!(victim.line_addr, 128); // LRU after refresh of 0
        assert_eq!(victim.seq, 2);
        assert_eq!(snc.stats().get("spills"), 1);
    }

    #[test]
    fn no_replacement_rejects_when_full() {
        let mut snc = tiny(SncPolicy::NoReplacement);
        for i in 0..4u64 {
            assert!(snc.try_install(i * 128, 1));
        }
        assert!(!snc.try_install(4 * 128, 1));
        assert_eq!(snc.occupancy(), 4);
        assert_eq!(snc.stats().get("install_rejects"), 1);
        // Resident entries keep working.
        assert_eq!(snc.increment(0), Some(2));
    }

    #[test]
    fn wraparound_counts_overflow_and_skips_zero() {
        let mut snc = tiny(SncPolicy::Lru);
        snc.install(0, u16::MAX);
        assert_eq!(snc.increment(0), Some(1));
        assert_eq!(snc.stats().get("overflows"), 1);
    }

    #[test]
    fn set_associative_organisation_has_conflict_misses() {
        // 4 entries, 2-way => 2 sets; covered lines at stride
        // sets*line = 256 collide in set 0.
        let mut snc = SequenceNumberCache::new(SncConfig {
            capacity_bytes: 8,
            entry_bytes: 2,
            organization: SncOrganization::SetAssociative(2),
            policy: SncPolicy::Lru,
            covered_line_bytes: 128,
        });
        snc.install(0, 1);
        snc.install(256, 2);
        assert!(snc.has_room_for(128), "other set still free");
        assert!(!snc.has_room_for(512), "set 0 is full");
        let victim = snc.install(512, 3).expect("conflict eviction");
        assert_eq!(victim.line_addr, 0);
        // A fully associative SNC of the same size would not have evicted.
        let mut full = tiny(SncPolicy::Lru);
        full.install(0, 1);
        full.install(256, 2);
        assert!(full.install(512, 3).is_none());
    }

    #[test]
    fn flush_returns_all_entries() {
        let mut snc = tiny(SncPolicy::Lru);
        snc.install(0, 1);
        snc.install(128, 2);
        let all = snc.flush();
        assert_eq!(all.len(), 2);
        assert_eq!(snc.occupancy(), 0);
        assert_eq!(snc.query(0), SncLookup::Miss);
    }

    #[test]
    fn contains_has_no_side_effects() {
        let mut snc = tiny(SncPolicy::Lru);
        snc.install(0, 1);
        let hits_before = snc.stats().get("query_hits");
        assert!(snc.contains(0));
        assert!(!snc.contains(128));
        assert_eq!(snc.stats().get("query_hits"), hits_before);
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut snc = tiny(SncPolicy::Lru);
        snc.install(0, 7);
        snc.query(0);
        snc.reset_stats();
        assert_eq!(snc.stats().get("query_hits"), 0);
        assert_eq!(snc.query(0), SncLookup::Hit(7));
    }

    #[test]
    fn undo_query_restores_stats_and_recency() {
        let mut snc = tiny(SncPolicy::Lru);
        for i in 0..4u64 {
            snc.install(i * 128, i as u16 + 1);
        }
        // Speculatively touch the LRU entry (line 0), then roll back.
        let (lookup, undo) = snc.query_undoable(0);
        assert_eq!(lookup, SncLookup::Hit(1));
        snc.undo_query(undo);
        assert_eq!(snc.stats().get("query_hits"), 0);
        // A rolled-back miss too (probe misses still tick recency state
        // in the set-associative organisation; stats always move).
        let (lookup, undo) = snc.query_undoable(9 * 128);
        assert_eq!(lookup, SncLookup::Miss);
        snc.undo_query(undo);
        assert_eq!(snc.stats().get("query_misses"), 0);
        // Line 0 stayed LRU: the next install evicts it, not line 128.
        let victim = snc.install(4 * 128, 9).expect("full SNC evicts");
        assert_eq!(victim.line_addr, 0, "speculative touch left no trace");
    }

    #[test]
    fn undo_query_matches_untouched_twin_in_set_assoc() {
        let cfg = SncConfig {
            capacity_bytes: 8,
            entry_bytes: 2,
            organization: SncOrganization::SetAssociative(2),
            policy: SncPolicy::Lru,
            covered_line_bytes: 128,
        };
        let mut probed = SequenceNumberCache::new(cfg);
        let mut twin = SequenceNumberCache::new(cfg);
        for snc in [&mut probed, &mut twin] {
            snc.install(0, 1);
            snc.install(256, 2);
        }
        let (_, undo) = probed.query_undoable(0);
        probed.undo_query(undo);
        // Same conflict install evicts the same victim in both.
        let vp = probed.install(512, 3).expect("conflict eviction");
        let vt = twin.install(512, 3).expect("conflict eviction");
        assert_eq!(vp, vt);
        assert_eq!(probed.stats().get("query_hits"), 0);
    }

    #[test]
    fn paper_sized_snc_handles_many_lines() {
        let mut snc = SequenceNumberCache::new(SncConfig::paper_default());
        for i in 0..40_000u64 {
            snc.install(i * 128, (i % 65_535) as u16 + 1);
        }
        assert_eq!(snc.occupancy(), 32_768);
        // Oldest entries spilled.
        assert!(!snc.contains(0));
        assert!(snc.contains(39_999 * 128));
        assert_eq!(snc.stats().get("spills"), 40_000 - 32_768);
    }
}
