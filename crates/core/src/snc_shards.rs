//! Address-interleaved sharding of the Sequence Number Cache.
//!
//! A multi-controller configuration splits the SNC into `N` shards,
//! each a full [`SequenceNumberCache`] with its own recency state,
//! statistics, and lookup port. Covered lines interleave across shards
//! by line index (`(addr / covered_line_bytes) % N`), so a streaming
//! footprint spreads evenly and per-shard LRU behaves like the slice of
//! a single LRU cache that shard would have held: under a per-shard
//! balanced address stream the sharded SNC is hit/miss-equivalent to
//! one fully associative SNC of the same total capacity (property
//! tested in `snc_shard_properties`).

use crate::config::{SncConfig, SncPolicy};
use crate::snc::{EvictedSeq, SequenceNumberCache, SncLookup, SncQueryUndo};
use padlock_stats::CounterSet;

/// `N` address-interleaved [`SequenceNumberCache`] shards behind the
/// single-SNC API the controller uses.
///
/// # Examples
///
/// ```
/// use padlock_core::{SncConfig, SncShards};
///
/// let mut snc = SncShards::new(SncConfig::paper_default(), 4);
/// assert_eq!(snc.num_shards(), 4);
/// snc.install(0x4000, 1);
/// assert!(snc.contains(0x4000));
/// // Line index 0x4000/128 = 0x80 -> shard 0.
/// assert_eq!(snc.shard_of(0x4000), 0);
/// assert_eq!(snc.occupancy(), 1);
/// ```
#[derive(Debug)]
pub struct SncShards {
    shards: Vec<SequenceNumberCache>,
    covered_line_bytes: u64,
}

impl SncShards {
    /// Creates `shards` empty shards splitting `config`'s capacity.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or does not evenly divide the entry
    /// count (every shard must hold the same share).
    pub fn new(config: SncConfig, shards: usize) -> Self {
        assert!(shards > 0, "SNC must have at least one shard");
        assert_eq!(
            config.entries() % shards,
            0,
            "shard count {} must divide the {} SNC entries",
            shards,
            config.entries()
        );
        let per_shard = SncConfig {
            capacity_bytes: config.capacity_bytes / shards,
            ..config
        };
        Self {
            shards: (0..shards)
                .map(|_| SequenceNumberCache::new(per_shard))
                .collect(),
            covered_line_bytes: config.covered_line_bytes as u64,
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard index covering `line_addr` (line-interleaved).
    pub fn shard_of(&self, line_addr: u64) -> usize {
        ((line_addr / self.covered_line_bytes) % self.shards.len() as u64) as usize
    }

    /// The individual shards (diagnostics; per-shard stats).
    pub fn shards(&self) -> &[SequenceNumberCache] {
        &self.shards
    }

    /// Total entries resident across all shards.
    pub fn occupancy(&self) -> usize {
        self.shards.iter().map(|s| s.occupancy()).sum()
    }

    /// Aggregated event counters summed over every shard
    /// (`query_hits`, `spills`, ...).
    pub fn stats(&self) -> CounterSet {
        let mut all = CounterSet::new("snc");
        for shard in &self.shards {
            all.merge(&shard.stats());
        }
        all
    }

    /// Resets every shard's statistics, keeping contents.
    pub fn reset_stats(&mut self) {
        for shard in &mut self.shards {
            shard.reset_stats();
        }
    }

    /// Whether a no-replacement install of `line_addr` would succeed in
    /// its shard.
    pub fn has_room_for(&self, line_addr: u64) -> bool {
        self.shards[self.shard_of(line_addr)].has_room_for(line_addr)
    }

    /// Queries the sequence number for a read miss (refreshes the
    /// owning shard's recency).
    pub fn query(&mut self, line_addr: u64) -> SncLookup {
        let shard = self.shard_of(line_addr);
        self.shards[shard].query(line_addr)
    }

    /// Like [`SncShards::query`], but also returns the owning shard's
    /// undo state so [`SncShards::undo_query`] can reverse the lookup
    /// exactly (see [`SequenceNumberCache::query_undoable`]).
    pub fn query_undoable(&mut self, line_addr: u64) -> (SncLookup, SncQueryUndo) {
        let shard = self.shard_of(line_addr);
        self.shards[shard].query_undoable(line_addr)
    }

    /// Reverses the matching [`SncShards::query_undoable`] on the shard
    /// owning `line_addr`. Must be applied before any other mutating
    /// SNC call.
    pub fn undo_query(&mut self, line_addr: u64, undo: SncQueryUndo) {
        let shard = self.shard_of(line_addr);
        self.shards[shard].undo_query(undo);
    }

    /// Increments the sequence number on an update hit; `None` on miss.
    pub fn increment(&mut self, line_addr: u64) -> Option<u16> {
        let shard = self.shard_of(line_addr);
        self.shards[shard].increment(line_addr)
    }

    /// Installs a sequence number into the owning shard, returning that
    /// shard's LRU victim if it was full.
    pub fn install(&mut self, line_addr: u64, seq: u16) -> Option<EvictedSeq> {
        let shard = self.shard_of(line_addr);
        self.shards[shard].install(line_addr, seq)
    }

    /// No-replacement install: succeeds only when the owning shard has
    /// a free slot.
    pub fn try_install(&mut self, line_addr: u64, seq: u16) -> bool {
        let shard = self.shard_of(line_addr);
        self.shards[shard].try_install(line_addr, seq)
    }

    /// Whether any shard holds `line_addr` (no side effects).
    pub fn contains(&self, line_addr: u64) -> bool {
        self.shards[self.shard_of(line_addr)].contains(line_addr)
    }

    /// Evicts everything from every shard (context switch), returning
    /// all entries for encrypted spill.
    pub fn flush(&mut self) -> Vec<EvictedSeq> {
        self.shards.iter_mut().flat_map(|s| s.flush()).collect()
    }

    /// Pre-ages the SNC with `feed`: leaves every entry — residency,
    /// recency and way position — exactly as one [`SncShards::install`]
    /// (LRU) or [`SncShards::try_install`] (no-replacement) of sequence
    /// number 1 per line, in feed order, would. Statistics are not
    /// comparable; the caller resets them.
    ///
    /// While the feed's covered line indices strictly increase, each
    /// replacement domain (a fully associative shard, or one set) is
    /// sent O(its entries) installs: only the lines it could still
    /// hold are kept (see `KeptLines`) and installed at the end, an
    /// empty fully associative shard in one bulk fill. From the first
    /// non-increasing line on, the kept lines are installed and every
    /// further line is installed on its own — under no-replacement
    /// until its domain first rejects one, since pre-aging never
    /// evicts and the domain then stays full.
    pub fn age(&mut self, feed: impl IntoIterator<Item = u64>) {
        let mut kept = KeptLines::new(self);
        for line in feed {
            kept.push(self, line);
        }
        kept.install(self);
    }
}

/// The lines of a strictly increasing pre-age feed that each
/// replacement domain could still hold once the whole feed is
/// installed, buffered per domain.
///
/// *No-replacement.* A domain keeps its first `E` lines (its entries).
/// They are distinct, so at most the `k` entries the domain already
/// held are among them, and the other `E - k` or more fill its `E - k`
/// free slots: after `E` lines the domain is full and rejects every
/// later one.
///
/// *LRU.* A line is dropped once `E` later lines of its domain follow
/// it: they are distinct, so installing them evicts it — or any prior
/// entry of the domain — whatever the domain held before. A fully
/// associative domain therefore keeps its last `E` lines in a ring. A
/// set additionally fixes which way each line claims, and its flush
/// order reads the ways. Its first `E` lines install as they arrive;
/// after them the set holds exactly those lines, and each further
/// (distinct, missing) line claims the way of the oldest, so line `k`
/// of the rest lands in the way line `k mod E` took. Installing the
/// last `L ≡ k_total (mod E)` lines of the rest, `E ≤ L < 2E` (or all
/// of a shorter rest), starts that rotation at the same way and ends
/// on the same `E` lines.
///
/// A feed that stops increasing may repeat lines, which breaks these
/// arguments: its first non-increasing line installs everything kept
/// so far, and every later line installs on its own.
struct KeptLines {
    policy: SncPolicy,
    /// Replacement domains per shard.
    domains: usize,
    /// Entries per domain (`E`).
    entries: usize,
    /// Whether way positions are observable (set-associative).
    ways: bool,
    /// Lines per domain installed as they arrive (an LRU set's first
    /// `E`), ahead of the ring.
    head: usize,
    /// Ring slots per domain.
    cap: usize,
    /// `domain × cap` ring slots.
    ring: Vec<u64>,
    /// Feed lines routed to each domain since the last install.
    routed: Vec<usize>,
    /// No-replacement domains found full.
    full: Vec<bool>,
    /// The last covered line index, while the feed increases.
    last: Option<u64>,
    /// The feed stopped increasing: every line installs on its own.
    direct: bool,
}

impl KeptLines {
    fn new(snc: &SncShards) -> Self {
        let shard = &snc.shards[0];
        let (domains, entries, ways) = (
            shard.domains(),
            shard.domain_entries(),
            shard.has_way_positions(),
        );
        let policy = shard.config().policy;
        let (head, cap) = if ways && policy == SncPolicy::Lru {
            (entries, 2 * entries)
        } else {
            (0, entries)
        };
        let total = snc.shards.len() * domains;
        Self {
            policy,
            domains,
            entries,
            ways,
            head,
            cap,
            ring: vec![0; total * cap],
            routed: vec![0; total],
            full: vec![false; total],
            last: None,
            direct: false,
        }
    }

    fn push(&mut self, snc: &mut SncShards, line: u64) {
        let index = line / snc.covered_line_bytes;
        if !self.direct && self.last.is_some_and(|last| index <= last) {
            self.install(snc);
            self.direct = true;
        }
        let shard = snc.shard_of(line);
        let d = shard * self.domains + snc.shards[shard].domain_of(line);
        if self.direct {
            self.install_one(snc, d, line);
            return;
        }
        self.last = Some(index);
        let n = self.routed[d];
        self.routed[d] += 1;
        match self.policy {
            SncPolicy::NoReplacement => {
                if n < self.entries {
                    self.ring[d * self.cap + n] = line;
                }
            }
            SncPolicy::Lru => match n.checked_sub(self.head) {
                Some(k) => self.ring[d * self.cap + k % self.cap] = line,
                None => self.install_one(snc, d, line),
            },
        }
    }

    /// The per-line reference step: one install (LRU) or
    /// `try_install` (no-replacement) into domain `d`.
    fn install_one(&mut self, snc: &mut SncShards, d: usize, line: u64) {
        let shard = &mut snc.shards[d / self.domains];
        match self.policy {
            SncPolicy::Lru => {
                shard.install(line, 1);
            }
            SncPolicy::NoReplacement => {
                if !self.full[d] && !shard.try_install(line, 1) {
                    self.full[d] = true;
                }
            }
        }
    }

    /// Installs every domain's kept lines in feed order — filling an
    /// empty fully associative shard in one pass — and empties the
    /// rings.
    fn install(&mut self, snc: &mut SncShards) {
        for d in 0..self.routed.len() {
            let routed = std::mem::take(&mut self.routed[d]);
            let (first, end) = match self.policy {
                SncPolicy::NoReplacement => (0, routed.min(self.entries)),
                SncPolicy::Lru => {
                    let rest = routed.saturating_sub(self.head);
                    let keep = if !self.ways {
                        rest.min(self.entries)
                    } else if rest < self.entries {
                        rest
                    } else {
                        self.entries + rest % self.entries
                    };
                    (rest - keep, rest)
                }
            };
            let (ring, cap) = (&self.ring, self.cap);
            let lines = (first..end).map(|k| ring[d * cap + k % cap]);
            if !snc.shards[d / self.domains].fill(lines, 1) {
                for k in first..end {
                    self.install_one(snc, d, self.ring[d * cap + k % cap]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SncOrganization, SncPolicy};

    fn cfg(entries: usize) -> SncConfig {
        SncConfig {
            capacity_bytes: entries * 2,
            entry_bytes: 2,
            organization: SncOrganization::FullyAssociative,
            policy: SncPolicy::Lru,
            covered_line_bytes: 128,
        }
    }

    fn addr(line: u64) -> u64 {
        line * 128
    }

    #[test]
    fn single_shard_behaves_like_plain_snc() {
        let mut sharded = SncShards::new(cfg(4), 1);
        let mut plain = SequenceNumberCache::new(cfg(4));
        for line in [0u64, 3, 1, 0, 7, 3, 9] {
            assert_eq!(sharded.query(addr(line)), plain.query(addr(line)));
            assert_eq!(
                sharded.install(addr(line), line as u16 + 1),
                plain.install(addr(line), line as u16 + 1)
            );
        }
        assert_eq!(sharded.occupancy(), plain.occupancy());
        assert_eq!(
            sharded.stats().get("query_hits"),
            plain.stats().get("query_hits")
        );
    }

    #[test]
    fn addresses_interleave_by_line_index() {
        let snc = SncShards::new(cfg(8), 4);
        assert_eq!(snc.shard_of(addr(0)), 0);
        assert_eq!(snc.shard_of(addr(1)), 1);
        assert_eq!(snc.shard_of(addr(5)), 1);
        assert_eq!(snc.shard_of(addr(7)), 3);
    }

    #[test]
    fn evictions_stay_within_the_owning_shard() {
        // 4 entries over 2 shards: 2 per shard. Three even-line installs
        // must evict an even line even though shard 1 is empty.
        let mut snc = SncShards::new(cfg(4), 2);
        snc.install(addr(0), 1);
        snc.install(addr(2), 2);
        let victim = snc.install(addr(4), 3).expect("shard 0 full");
        assert_eq!(victim.line_addr, addr(0));
        assert_eq!(snc.shards()[1].occupancy(), 0);
    }

    #[test]
    fn no_replacement_is_rejected_per_shard() {
        let mut snc = SncShards::new(
            SncConfig {
                policy: SncPolicy::NoReplacement,
                ..cfg(4)
            },
            2,
        );
        assert!(snc.try_install(addr(0), 1));
        assert!(snc.try_install(addr(2), 1));
        assert!(!snc.has_room_for(addr(4)));
        assert!(!snc.try_install(addr(4), 1), "shard 0 is full");
        assert!(snc.try_install(addr(1), 1), "shard 1 still has room");
    }

    #[test]
    fn flush_and_stats_aggregate_over_shards() {
        let mut snc = SncShards::new(cfg(8), 4);
        for line in 0..6u64 {
            snc.install(addr(line), 1);
        }
        snc.query(addr(0));
        snc.query(addr(1));
        assert_eq!(snc.stats().get("query_hits"), 2);
        assert_eq!(snc.stats().get("installs"), 6);
        let all = snc.flush();
        assert_eq!(all.len(), 6);
        assert_eq!(snc.occupancy(), 0);
        snc.reset_stats();
        assert_eq!(snc.stats().get("installs"), 0);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn ragged_shard_split_panics() {
        let _ = SncShards::new(cfg(10), 4);
    }
}
