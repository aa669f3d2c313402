//! The cache hierarchy, its L2 miss-status-holding registers, and the
//! pluggable "below L2" memory interface.
//!
//! `padlock-core` implements [`MemoryBackend`] three ways — insecure,
//! XOM (decrypt-in-series), and one-time-pad with an SNC — which is
//! exactly the boundary the paper draws in Figs. 2 and 4: everything
//! above L2 is inside the security perimeter and identical across modes.
//!
//! # Non-blocking misses
//!
//! The hierarchy is organised around an **L2 MSHR file** of
//! `l2_mshrs` miss-status-holding registers. A load that misses L2
//! allocates an MSHR and returns [`Access::Pending`]; a second access
//! to a line already in flight (an L1/L2 hit on the eagerly allocated
//! line, or a re-miss after the in-flight line was evicted) **merges**
//! into the existing entry instead of issuing a duplicate fill. Pending
//! misses are handed to the backend in one batch — through
//! [`MemoryBackend::line_read_batch_at`], which preserves each miss's
//! own arrival cycle — when the file fills, when the caller forces a
//! drain ([`Hierarchy::drain_pending`], the pipeline's stall-on-use),
//! or when a blocking caller needs a result now.
//!
//! With `l2_mshrs = 1` (the paper default) every allocation fills the
//! file and drains synchronously, so the hierarchy is cycle-for-cycle
//! identical to the historical blocking implementation — the
//! `hierarchy_vs_seed` differential test in `padlock-core` enforces it
//! across every security mode.
//!
//! # Scheduled (eager) completions
//!
//! With [`HierarchyConfig::eager_completions`] enabled and a backend
//! that declares [`MemoryBackend::eager_issue_safe`], a miss is issued
//! the moment its MSHR allocates and the returned completion cycle is
//! recorded on the entry. The access resolves immediately with a real
//! cycle — no parked [`Access::Pending`] loads, so an event-driven core
//! can jump over memory stalls via [`Hierarchy::next_completion`]
//! instead of falling back to batched stall-on-use drains. The entry
//! lingers as a merge target until simulated time passes its completion
//! ([`Hierarchy::retire_completed`]). Eager issue is only offered where
//! it is bit-exact with batching: backends whose per-window resources
//! (crypto pipeline slots, SNC ports, FR-FCFS reordering) could couple
//! two requests of one batch report `eager_issue_safe() == false` and
//! keep the accumulate-then-drain protocol.
//!
//! # Speculative completions with window replay
//!
//! [`HierarchyConfig::speculative_completions`] covers the backends that
//! *cannot* declare eager issue safe: on MSHR allocation the miss is
//! issued to the backend as a speculative singleton window
//! ([`MemoryBackend::speculative_issue_at`]) and the returned cycle is
//! recorded on the entry as a *speculative* completion. The access still
//! parks as [`Access::Pending`] and the speculated cycle is invisible to
//! [`Hierarchy::next_completion`] — the pipeline's drain triggers and
//! time-jump targets are bit-identical to the parked machine. The payoff
//! comes at the drain: if the window stayed a singleton (the common case
//! in pointer-chase phases), [`MemoryBackend::speculative_confirm`]
//! vouches for the speculated cycle and the drain resolves waiters with
//! no controller call at all. If anything else landed in the window — a
//! second miss, a writeback, any batch-coupled resource — the backend
//! rolls the speculated singleton back to its checkpoint and the drain
//! **replays** the whole window through the ordinary batched path at its
//! true arrival set, patching the affected completions. Replay falls
//! back to exactly the parked semantics, so cycles and counters match
//! the parked machine bit-for-bit in every case.

use padlock_cache::{AccessKind, CacheConfig, SetAssocCache};
use padlock_mem::{ChannelSet, ChannelSnapshot, TrafficClass};
use padlock_stats::CounterSet;

pub use padlock_mem::MemoryChannel;

/// Distinguishes instruction fills from data fills below L2.
///
/// The distinction matters to the secure modes: instruction lines are
/// never written back, so the OTP scheme seeds them purely by address and
/// never consults the SNC (§3.4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LineKind {
    /// An instruction-fetch fill.
    Instruction,
    /// A data fill (load or store write-allocate).
    Data,
}

/// What sits below the L2 cache.
///
/// `line_read` is called when an L2 miss must be satisfied from memory;
/// it returns the cycle at which the line's *plaintext* is available to
/// the processor (for secure modes this includes any decryption that is
/// on the critical path). `line_writeback` is called when a dirty L2
/// victim leaves the chip; it is off the critical path.
pub trait MemoryBackend {
    /// Satisfies an L2 read miss; returns the plaintext-available cycle.
    fn line_read(&mut self, now: u64, line_addr: u64, kind: LineKind) -> u64;

    /// Satisfies many independent L2 read misses issued at `now`,
    /// returning each request's plaintext-available cycle in order.
    ///
    /// This is the memory-level-parallelism surface: backends with an
    /// in-flight transaction queue overlap the requests' memory and
    /// crypto work. The default implementation is a compatibility shim
    /// that serialises through [`MemoryBackend::line_read`], so simple
    /// backends (and existing single-shot callers) keep working
    /// unchanged.
    fn line_read_batch(&mut self, now: u64, reqs: &[(u64, LineKind)]) -> Vec<u64> {
        reqs.iter()
            .map(|&(line_addr, kind)| self.line_read(now, line_addr, kind))
            .collect()
    }

    /// Satisfies many L2 read misses, each with its *own* arrival cycle
    /// (`(arrival, line_addr, kind)` per request), returning the
    /// plaintext-available cycles in order.
    ///
    /// This is the surface the hierarchy's MSHR file drains through:
    /// misses accumulate while the pipeline runs ahead and are issued
    /// together later, but each transaction's latency is still charged
    /// from the cycle it originally left L2. The default implementation
    /// serialises through [`MemoryBackend::line_read`] at each arrival.
    fn line_read_batch_at(&mut self, reqs: &[(u64, u64, LineKind)]) -> Vec<u64> {
        reqs.iter()
            .map(|&(at, line_addr, kind)| self.line_read(at, line_addr, kind))
            .collect()
    }

    /// Accepts a dirty L2 victim for (encryption and) writeback.
    fn line_writeback(&mut self, now: u64, line_addr: u64);

    /// Whether issuing each miss to this backend the moment it
    /// allocates an MSHR — as a singleton batch at its own arrival —
    /// is *bit-exact* with accumulating misses and draining them later
    /// in one [`MemoryBackend::line_read_batch_at`] call.
    ///
    /// That holds only when the backend's per-batch (window-scoped)
    /// resources can never couple two requests of one batch: with more
    /// than one in-flight transaction per window, crypto-pipeline
    /// coalescing, SNC port contention, and FR-FCFS reordering all make
    /// a request's latency depend on its window mates, so eager
    /// singleton windows would diverge from batched ones. Backends
    /// return `true` only for configurations where every window is a
    /// singleton anyway (e.g. `max_inflight == 1`, FIFO drain order).
    /// The default is `false`: batching semantics are always safe.
    fn eager_issue_safe(&self) -> bool {
        false
    }

    /// Speculatively issues one L2 miss as a singleton drain window,
    /// returning the plaintext-available cycle, or `None` when the
    /// backend declines to speculate.
    ///
    /// A successful call opens a *speculative window*: the backend
    /// checkpoints every resource the singleton touches so the issue
    /// can be rolled back. The window stays open until the next
    /// [`MemoryBackend::speculative_confirm`]. Any other mutating call
    /// in between — another `speculative_issue_at`, a writeback, a
    /// batch drain — *couples* the window: the backend rolls the
    /// speculated singleton back to its checkpoint (so the intervening
    /// operation and the eventual replayed batch see the exact
    /// unspeculated state) and poisons the window, making the pending
    /// confirm report failure.
    ///
    /// Backends may also decline up front (returning `None` with **no**
    /// state change) for requests whose processing is not cheaply
    /// reversible — that is the "would this batch decompose?"
    /// predicate: only requests whose singleton cost is independent of
    /// window mates and whose side effects fit the checkpoint are
    /// speculated. The default declines everything, which degrades
    /// [`HierarchyConfig::speculative_completions`] to plain parked
    /// batching.
    fn speculative_issue_at(&mut self, _arrival: u64, _line_addr: u64, _kind: LineKind) -> Option<u64> {
        None
    }

    /// Closes the current speculative window. Returns `true` when a
    /// window was open and undisturbed — the speculated completion is
    /// exact and the caller may resolve with it, skipping the batch
    /// drain. Returns `false` when the window was poisoned (the
    /// speculated issue was already rolled back; the caller must replay
    /// the batch) or no window was open. Always leaves the window
    /// closed and the poison cleared.
    fn speculative_confirm(&mut self) -> bool {
        false
    }

    /// Whether the backend's memory fabric is quiescent at `now` — no
    /// channel bus or bank busy, no transaction queued, no buffered
    /// writeback awaiting a flush. This is the signal an adaptive MSHR
    /// drain policy keys on ([`HierarchyConfig::drain_on_idle`]): when
    /// the fabric is idle, holding a miss back to batch it gains
    /// nothing, so it may as well issue immediately.
    ///
    /// The default says `true`: a backend with no modelled fabric state
    /// is trivially idle, which degrades drain-on-idle to drain-always
    /// — exactly the blocking behaviour such backends already have.
    fn is_idle(&self, _now: u64) -> bool {
        true
    }

    /// Completes deferred background work (queued transactions,
    /// partially packed spill buffers, buffered writebacks) at
    /// measurement wrap-up so traffic counters are exact. Default:
    /// nothing deferred.
    fn drain(&mut self, _now: u64) {}

    /// Memory traffic statistics (per [`TrafficClass`]), aggregated
    /// over every DRAM channel the backend drives.
    fn traffic(&self) -> CounterSet;

    /// Resets statistics after warm-up.
    fn reset_stats(&mut self);

    /// A short label for reports (e.g. `"XOM"`, `"SNC-LRU 64KB"`).
    fn label(&self) -> String;
}

/// Geometry and latencies of the on-chip hierarchy.
#[derive(Debug, Clone)]
pub struct HierarchyConfig {
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Unified L2.
    pub l2: CacheConfig,
    /// L1 access latency in cycles.
    pub l1_latency: u64,
    /// L2 access latency in cycles (added after an L1 miss).
    pub l2_latency: u64,
    /// L2 miss-status-holding registers: the number of outstanding L2
    /// misses the hierarchy keeps in flight before it must drain them
    /// to the backend. `1` models the paper's blocking memory system
    /// exactly (every miss resolves synchronously).
    pub l2_mshrs: usize,
    /// When `true`, a newly allocated L2 miss drains the MSHR file
    /// immediately if the backend reports its fabric idle
    /// ([`MemoryBackend::is_idle`]) — batching is only worth the wait
    /// when there is in-flight work to overlap with. Default `false`:
    /// misses accumulate until the file fills or a caller forces a
    /// drain, the seed behaviour, bit-exact with every differential.
    ///
    /// Interaction with [`HierarchyConfig::eager_completions`]: eager
    /// issue takes precedence. An allocation that eager-schedules (the
    /// backend is [`MemoryBackend::eager_issue_safe`]) never consults
    /// the idle signal — it already issued, so there is nothing to
    /// drain early — and `idle_drains` stays 0 for those allocations.
    /// The idle-drain branch remains live for *parked* allocations,
    /// i.e. whenever the backend vetoes eager issue.
    ///
    /// Interaction with [`HierarchyConfig::speculative_completions`]:
    /// idle-drain keeps its parked semantics. An allocation that the
    /// parked machine would idle-drain skips speculation entirely (the
    /// window would confirm-and-resolve immediately anyway) and drains,
    /// so `idle_drains` matches the parked machine exactly.
    pub drain_on_idle: bool,
    /// When `true` *and* the backend reports
    /// [`MemoryBackend::eager_issue_safe`], every L2 miss is issued to
    /// the backend the moment its MSHR allocates: the returned
    /// completion cycle is recorded on the entry (a *scheduled*
    /// completion), the access resolves immediately with it, and the
    /// entry lingers only as a merge target until simulated time passes
    /// the completion ([`Hierarchy::retire_completed`]). This removes
    /// parked `Pending` loads entirely, so an event-driven core can
    /// jump straight over memory stalls instead of falling back to
    /// batched stall-on-use drains. Default `false`: accumulate-then-
    /// drain, the seed behaviour.
    pub eager_completions: bool,
    /// When `true`, a miss whose backend *cannot* promise eager-issue
    /// safety is still issued at allocation — as a speculative singleton
    /// window ([`MemoryBackend::speculative_issue_at`]) that the backend
    /// can roll back. Unlike eager mode the access stays parked
    /// ([`Access::Pending`]), `pending_misses` still counts it, and
    /// [`Hierarchy::next_completion`] ignores the speculated cycle, so
    /// every drain trigger fires exactly as in parked mode; the drain
    /// then either confirms the speculation (singleton window — resolve
    /// with no backend call) or replays the coupled batch through the
    /// ordinary path. Bit-exact with parked mode by construction.
    /// Default `false`.
    ///
    /// Mode precedence per allocation: **eager** (both
    /// [`HierarchyConfig::eager_completions`] and
    /// [`MemoryBackend::eager_issue_safe`] hold) → **speculative**
    /// (this knob, backend accepts the speculation) → **parked**.
    pub speculative_completions: bool,
}

impl HierarchyConfig {
    /// The paper's configuration: 32KB 4-way split L1 I/D, 256KB 4-way
    /// unified L2 with 128-byte lines (§5), SimpleScalar default
    /// latencies (1-cycle L1, 6-cycle L2), blocking misses (one MSHR).
    pub fn paper_default() -> Self {
        Self {
            l1i: CacheConfig::new("L1I", 32 * 1024, 32, 4),
            l1d: CacheConfig::new("L1D", 32 * 1024, 32, 4),
            l2: CacheConfig::new("L2", 256 * 1024, 128, 4),
            l1_latency: 1,
            l2_latency: 6,
            l2_mshrs: 1,
            drain_on_idle: false,
            eager_completions: false,
            speculative_completions: false,
        }
    }

    /// The paper's Fig. 8 variant: a 384KB 6-way L2 occupying the same
    /// area as the 256KB L2 plus a 64KB SNC.
    pub fn paper_big_l2() -> Self {
        Self {
            l2: CacheConfig::new("L2", 384 * 1024, 128, 6),
            ..Self::paper_default()
        }
    }

    /// Builder: set the number of L2 MSHRs (non-blocking load depth).
    pub fn with_l2_mshrs(mut self, n: usize) -> Self {
        self.l2_mshrs = n;
        self
    }

    /// Builder: drain newly allocated misses immediately whenever the
    /// backend's fabric is idle (see [`HierarchyConfig::drain_on_idle`]).
    pub fn with_drain_on_idle(mut self, on: bool) -> Self {
        self.drain_on_idle = on;
        self
    }

    /// Builder: schedule each miss's completion at allocation instead of
    /// parking it (see [`HierarchyConfig::eager_completions`]); only
    /// takes effect with a backend whose
    /// [`MemoryBackend::eager_issue_safe`] is `true`.
    pub fn with_eager_completions(mut self, on: bool) -> Self {
        self.eager_completions = on;
        self
    }

    /// Builder: speculatively issue each miss at allocation as a
    /// rollback-able singleton window, replaying the batch when the
    /// window couples (see
    /// [`HierarchyConfig::speculative_completions`]).
    pub fn with_speculative_completions(mut self, on: bool) -> Self {
        self.speculative_completions = on;
        self
    }
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Identifies one outstanding (pending) hierarchy access until it is
/// resolved by an MSHR drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AccessToken(u64);

/// Outcome of a non-blocking hierarchy access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// The access completed (hit, or a miss the hierarchy resolved
    /// synchronously); the data is available at the given cycle.
    Ready(u64),
    /// The access waits on an in-flight L2 miss; its completion cycle
    /// arrives with [`Hierarchy::take_resolutions`] after a drain (or
    /// via [`Hierarchy::resolve`] for a blocking caller).
    Pending(AccessToken),
}

/// One in-flight L2 miss (an MSHR file entry).
#[derive(Debug, Clone, Copy)]
struct MshrEntry {
    /// Stable identity, unique for the hierarchy's lifetime. Waiters
    /// reference entries by this id, never by file index: eager-mode
    /// capacity eviction removes entries from the middle of the file,
    /// which would shift every later index out from under its waiters.
    id: u64,
    line_addr: u64,
    kind: LineKind,
    /// Cycle the miss left L2 (latency is charged from here no matter
    /// when the batch drains).
    issue_at: u64,
    /// The scheduled completion cycle, known at allocation when the
    /// miss was issued eagerly ([`HierarchyConfig::eager_completions`]);
    /// `None` while the miss waits for a batch drain. A scheduled entry
    /// stays in the file purely as a merge target until simulated time
    /// passes its completion.
    completion: Option<u64>,
    /// The *speculative* completion cycle recorded when the miss was
    /// issued as a rollback-able singleton window
    /// ([`HierarchyConfig::speculative_completions`]). Unlike
    /// `completion` this is not yet trusted: it becomes the resolution
    /// only if the backend confirms the window at the drain; a coupled
    /// window clears it and replays the batch.
    spec: Option<u64>,
}

/// One pending access waiting on an MSHR: the primary miss itself, or a
/// secondary access merged into it.
#[derive(Debug, Clone, Copy)]
struct Waiter {
    token: AccessToken,
    /// The stable [`MshrEntry::id`] of the entry whose fill this access
    /// waits on.
    entry: u64,
    /// The access's own pipeline-side ready cycle; completion is
    /// `max(floor, fill done)`.
    floor: u64,
}

/// An MSHR-file event, naming one fixed counter slot of [`MshrStats`].
#[derive(Debug, Clone, Copy)]
enum MshrEvent {
    Allocations,
    Merges,
    FullDrains,
    IdleDrains,
    EagerIssues,
    EagerEvictions,
    SpeculativeIssues,
    WindowReplays,
    ReplayPatchedCompletions,
}

/// Counter names, indexed by [`MshrEvent`].
const MSHR_EVENT_NAMES: [&str; 9] = [
    "allocations",
    "merges",
    "full_drains",
    "idle_drains",
    "eager_issues",
    "eager_evictions",
    "speculative_issues",
    "window_replays",
    "replay_patched_completions",
];

/// Fixed-slot MSHR-file counters: an event bumps an array slot, and
/// [`MshrStats::to_counters`] renders the named [`CounterSet`] on
/// demand. A slot stays `None` until its first event and a reset
/// zeroes only the touched slots, so the rendering names exactly the
/// counters a name-keyed set fed the same events would hold.
#[derive(Debug, Clone, Default)]
struct MshrStats([Option<u64>; MSHR_EVENT_NAMES.len()]);

impl MshrStats {
    fn incr(&mut self, event: MshrEvent) {
        self.add(event, 1);
    }

    fn add(&mut self, event: MshrEvent, n: u64) {
        let slot = &mut self.0[event as usize];
        *slot = Some(slot.unwrap_or(0) + n);
    }

    fn reset(&mut self) {
        for v in self.0.iter_mut().flatten() {
            *v = 0;
        }
    }

    fn to_counters(&self) -> CounterSet {
        let mut set = CounterSet::new("mshr");
        for (name, v) in MSHR_EVENT_NAMES.iter().zip(self.0) {
            if let Some(v) = v {
                set.add(name, v);
            }
        }
        set
    }
}

/// The on-chip cache hierarchy over a pluggable memory backend.
///
/// # Examples
///
/// ```
/// use padlock_cpu::{Hierarchy, HierarchyConfig, InsecureBackend};
///
/// let mut h = Hierarchy::new(HierarchyConfig::paper_default(),
///                            InsecureBackend::new(100, 8));
/// let cold = h.data_access(0, 0x4000, false);
/// assert!(cold > 100); // cold miss goes to memory
/// let warm = h.data_access(cold, 0x4000, false);
/// assert_eq!(warm, cold + 1); // L1 hit
/// ```
#[derive(Debug)]
pub struct Hierarchy<B> {
    config: HierarchyConfig,
    l1i: SetAssocCache<()>,
    l1d: SetAssocCache<()>,
    l2: SetAssocCache<()>,
    backend: B,
    mshrs: Vec<MshrEntry>,
    waiters: Vec<Waiter>,
    resolutions: Vec<(AccessToken, u64)>,
    next_token: u64,
    next_entry_id: u64,
    /// Whether the current drain window already coupled: a speculation
    /// was aborted, or an entry parked unspeculated. No further
    /// speculation is attempted until the window drains (a coupled
    /// window replays as one batch; speculating into it would corrupt
    /// the replay's arrival set).
    window_coupled: bool,
    mshr_stats: MshrStats,
    /// Drain scratch: the un-issued entries' ids and their batch
    /// requests, kept across drains so a drain does not allocate them.
    drain_ids: Vec<u64>,
    drain_reqs: Vec<(u64, u64, LineKind)>,
}

impl<B: MemoryBackend> Hierarchy<B> {
    /// Creates an empty hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if the configured MSHR count is zero.
    pub fn new(config: HierarchyConfig, backend: B) -> Self {
        assert!(config.l2_mshrs > 0, "l2_mshrs must be positive");
        let l1i = SetAssocCache::new(config.l1i.clone());
        let l1d = SetAssocCache::new(config.l1d.clone());
        let l2 = SetAssocCache::new(config.l2.clone());
        Self {
            config,
            l1i,
            l1d,
            l2,
            backend,
            mshrs: Vec::new(),
            waiters: Vec::new(),
            resolutions: Vec::new(),
            next_token: 0,
            next_entry_id: 0,
            window_coupled: false,
            mshr_stats: MshrStats::default(),
            drain_ids: Vec::new(),
            drain_reqs: Vec::new(),
        }
    }

    /// The hierarchy configuration.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// The backend below L2.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Mutable access to the backend (e.g. to flush its SNC on a context
    /// switch).
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.backend
    }

    /// L1I statistics (snapshot of the cache's fixed-slot counters).
    pub fn l1i_stats(&self) -> CounterSet {
        self.l1i.stats()
    }

    /// L1D statistics (snapshot of the cache's fixed-slot counters).
    pub fn l1d_stats(&self) -> CounterSet {
        self.l1d.stats()
    }

    /// L2 statistics (snapshot of the cache's fixed-slot counters).
    pub fn l2_stats(&self) -> CounterSet {
        self.l2.stats()
    }

    /// MSHR file statistics: `allocations`, `merges`, `full_drains`,
    /// `idle_drains`, `eager_issues`, `eager_evictions`,
    /// `speculative_issues`, `window_replays`,
    /// `replay_patched_completions`.
    pub fn mshr_stats(&self) -> CounterSet {
        self.mshr_stats.to_counters()
    }

    /// Resets all cache and backend statistics (after warm-up), keeping
    /// contents.
    pub fn reset_stats(&mut self) {
        self.l1i.reset_stats();
        self.l1d.reset_stats();
        self.l2.reset_stats();
        self.mshr_stats.reset();
        self.backend.reset_stats();
    }

    fn new_token(&mut self) -> AccessToken {
        self.next_token += 1;
        AccessToken(self.next_token)
    }

    fn new_entry_id(&mut self) -> u64 {
        self.next_entry_id += 1;
        self.next_entry_id
    }

    /// The MSHR index holding `line_addr`'s in-flight fill, if any.
    fn mshr_of(&self, line_addr: u64) -> Option<usize> {
        self.mshrs.iter().position(|m| m.line_addr == line_addr)
    }

    /// Registers a pending access (primary or merged) on MSHR `mshr`.
    /// If the entry's completion is already scheduled (eager issue), the
    /// resolution is queued immediately instead of storing a waiter.
    fn wait_on(&mut self, mshr: usize, floor: u64) -> AccessToken {
        let token = self.new_token();
        if let Some(done) = self.mshrs[mshr].completion {
            self.resolutions.push((token, done.max(floor)));
        } else {
            // Un-issued (parked or speculated) entries resolve at the
            // drain; the waiter keys on the entry's stable id.
            let entry = self.mshrs[mshr].id;
            self.waiters.push(Waiter { token, entry, floor });
        }
        token
    }

    /// Whether allocations run under the speculative-completion scheme:
    /// requested by config and not superseded by eager issue (the
    /// precedence is eager, then speculative, then parked).
    fn spec_mode(&self) -> bool {
        self.config.speculative_completions
            && !(self.config.eager_completions && self.backend.eager_issue_safe())
    }

    /// L2 misses currently held in the MSHR file and not yet issued to
    /// the backend (scheduled entries awaiting retirement don't count:
    /// their fills are already in flight with known completions).
    /// Speculatively issued entries *do* count: their completions are
    /// not yet trusted, so they wait for the next drain exactly like
    /// parked entries.
    pub fn pending_misses(&self) -> usize {
        self.mshrs
            .iter()
            .filter(|m| m.completion.is_none())
            .count()
    }

    /// The earliest scheduled miss completion the caller has not yet
    /// collected: the minimum over queued resolutions and over
    /// eagerly issued MSHR entries. `None` when nothing is scheduled
    /// (un-issued misses have no completion cycle until a drain).
    /// Speculative completions are never surfaced here — handing them
    /// out before the drain confirms them would let the run loop act
    /// on a cycle that a window replay may later move.
    ///
    /// This is an event source for an event-driven core's time jump:
    /// together with the completion cycles already handed out, it
    /// bounds the next cycle at which hierarchy state can change.
    pub fn next_completion(&self) -> Option<u64> {
        let scheduled = self.mshrs.iter().filter_map(|m| m.completion).min();
        let queued = self.resolutions.iter().map(|&(_, done)| done).min();
        match (scheduled, queued) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Drops scheduled (eagerly issued) MSHR entries whose completion
    /// cycle the clock has passed: once the fill has landed, the line is
    /// plain L2 state and the entry's merge window closes.
    pub fn retire_completed(&mut self, now: u64) {
        if self.mshrs.is_empty() {
            return;
        }
        self.mshrs
            .retain(|m| m.completion.is_none_or(|done| done > now));
    }

    /// Issues every in-flight miss to the backend in one batch
    /// (each at its own arrival cycle) and resolves all waiters. The
    /// completion cycles are collected via
    /// [`Hierarchy::take_resolutions`].
    ///
    /// Scheduled entries (eager issue) are not re-issued: their
    /// completions were already delivered at allocation, so they stay
    /// resident as merge targets and a file holding only scheduled
    /// entries drains to nothing.
    ///
    /// In speculative mode this is where the window closes: a clean
    /// confirm promotes the speculative completion with no backend
    /// work, while a coupled window replays the whole batch through
    /// the backend at its true arrival set (the backend rolled itself
    /// back when the coupling was detected).
    pub fn drain_pending(&mut self) {
        if self.mshrs.iter().all(|m| m.completion.is_some()) {
            return; // empty, or everything already scheduled
        }
        if self.spec_mode() {
            if self.backend.speculative_confirm() {
                // Clean confirm: the window held exactly one request,
                // the speculated singleton, and its issue is already
                // committed in the backend. Its speculative completion
                // is the true one; no batch call.
                for w in self.waiters.drain(..) {
                    let done = self
                        .mshrs
                        .iter()
                        .find(|m| m.id == w.entry)
                        .and_then(|m| m.spec)
                        .expect("a confirmed window holds only speculated entries");
                    self.resolutions.push((w.token, done.max(w.floor)));
                }
                self.mshrs.retain(|m| m.completion.is_some());
                self.window_coupled = false;
                return;
            }
            // The window coupled (or never opened). Any speculative
            // completions still marked on entries were rolled back in
            // the backend at coupling time and get patched by the
            // replay below.
            let patched = self
                .mshrs
                .iter()
                .filter(|m| m.completion.is_none() && m.spec.is_some())
                .count() as u64;
            if patched > 0 {
                self.mshr_stats.incr(MshrEvent::WindowReplays);
                self.mshr_stats
                    .add(MshrEvent::ReplayPatchedCompletions, patched);
            }
            for m in &mut self.mshrs {
                m.spec = None;
            }
        }
        // Batch every un-issued entry at its true arrival. Scheduled
        // (eager) entries keep their completions and stay resident;
        // waiters find their entry by stable id, immune to any index
        // shifts from eager capacity evictions.
        self.drain_ids.clear();
        self.drain_reqs.clear();
        for m in &self.mshrs {
            if m.completion.is_none() {
                self.drain_ids.push(m.id);
                self.drain_reqs.push((m.issue_at, m.line_addr, m.kind));
            }
        }
        let dones = self.backend.line_read_batch_at(&self.drain_reqs);
        for w in self.waiters.drain(..) {
            let pos = self
                .drain_ids
                .iter()
                .position(|&id| id == w.entry)
                .expect("waiter's entry is un-issued and drains here");
            self.resolutions.push((w.token, dones[pos].max(w.floor)));
        }
        self.mshrs.retain(|m| m.completion.is_some());
        self.window_coupled = false;
    }

    /// Moves every resolution produced by drains since the last call
    /// into `out` as `(token, completion cycle)` pairs.
    pub fn take_resolutions(&mut self, out: &mut Vec<(AccessToken, u64)>) {
        out.append(&mut self.resolutions);
    }

    /// Blocks on one pending access: drains the MSHR file if the token
    /// is still unresolved and returns its completion cycle. Other
    /// resolutions produced by the drain stay queued for
    /// [`Hierarchy::take_resolutions`].
    ///
    /// # Panics
    ///
    /// Panics on a token that was already consumed.
    pub fn resolve(&mut self, token: AccessToken) -> u64 {
        if let Some(done) = self.take_resolution_of(token) {
            return done;
        }
        self.drain_pending();
        self.take_resolution_of(token)
            .expect("pending token must resolve on drain")
    }

    fn take_resolution_of(&mut self, token: AccessToken) -> Option<u64> {
        let idx = self.resolutions.iter().position(|&(t, _)| t == token)?;
        Some(self.resolutions.swap_remove(idx).1)
    }

    /// An instruction fetch of the line containing `pc`; returns the
    /// cycle the instruction bytes are available.
    ///
    /// Instruction misses stall the front end regardless, so the fetch
    /// blocks — but it first drains any pending data misses (their
    /// latencies are unaffected: each is charged from its own arrival).
    pub fn inst_fetch(&mut self, now: u64, pc: u64) -> u64 {
        self.retire_completed(now);
        let t = now + self.config.l1_latency;
        let outcome = self.l1i.access(pc, AccessKind::Read);
        if outcome.hit {
            return t;
        }
        // L1I victims are never dirty; ignore them.
        match self.fill_from_l2(t, pc, LineKind::Instruction) {
            Access::Ready(done) => done,
            Access::Pending(token) => self.resolve(token),
        }
    }

    /// A blocking data access (load or store) at `addr`; returns the
    /// cycle the data is available (loads) or accepted (stores).
    ///
    /// Equivalent to [`Hierarchy::data_access_nb`] followed by an
    /// immediate [`Hierarchy::resolve`]; with `l2_mshrs = 1` the two
    /// are identical.
    pub fn data_access(&mut self, now: u64, addr: u64, is_store: bool) -> u64 {
        match self.data_access_nb(now, addr, is_store) {
            Access::Ready(done) => done,
            Access::Pending(token) => self.resolve(token),
        }
    }

    /// A non-blocking data access (load or store) at `addr`.
    ///
    /// Returns [`Access::Ready`] for hits and synchronously resolved
    /// misses, or [`Access::Pending`] when the access waits on an
    /// in-flight L2 miss (its own, or an earlier one it merged into).
    pub fn data_access_nb(&mut self, now: u64, addr: u64, is_store: bool) -> Access {
        self.retire_completed(now);
        let kind = if is_store {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let t = now + self.config.l1_latency;
        let outcome = self.l1d.access(addr, kind);
        if let Some(victim) = &outcome.victim {
            if victim.dirty {
                self.l2_absorb_writeback(t, victim.addr);
            }
        }
        if outcome.hit {
            // An L1 hit on a line whose L2 fill is still in flight must
            // wait for the fill (the line was allocated eagerly when the
            // miss was recorded).
            if let Some(m) = self.mshr_of(self.config.l2.line_addr(addr)) {
                self.mshr_stats.incr(MshrEvent::Merges);
                let token = self.wait_on(m, t);
                return Access::Pending(token);
            }
            return Access::Ready(t);
        }
        self.fill_from_l2(t, addr, LineKind::Data)
    }

    /// An L1 miss looks in L2; on L2 miss an MSHR tracks the fill.
    fn fill_from_l2(&mut self, t: u64, addr: u64, kind: LineKind) -> Access {
        let t2 = t + self.config.l2_latency;
        let line_addr = self.config.l2.line_addr(addr);
        let outcome = self.l2.access(addr, AccessKind::Read);
        if let Some(victim) = &outcome.victim {
            if victim.dirty {
                self.backend.line_writeback(t2, victim.addr);
            }
        }
        if let Some(m) = self.mshr_of(line_addr) {
            // The line is already in flight: an L2 hit on the eagerly
            // allocated line, or a re-miss after it was evicted
            // mid-flight. Either way the access merges into the
            // existing MSHR instead of issuing a duplicate fill.
            self.mshr_stats.incr(MshrEvent::Merges);
            let token = self.wait_on(m, t2);
            return Access::Pending(token);
        }
        if outcome.hit {
            return Access::Ready(t2);
        }
        // Allocate an MSHR. Capacity differs by mode: in eager mode a
        // file full of scheduled entries persists between accesses
        // (their merge windows are still open), so a full file evicts
        // a scheduled register below. In parked and speculative modes
        // an allocation that fills the file drains it synchronously
        // below, so the file always has a free register on entry.
        self.mshr_stats.incr(MshrEvent::Allocations);
        if self.config.eager_completions && self.backend.eager_issue_safe() {
            // Scheduled completion: issue the miss now as a singleton
            // batch at its own arrival (bit-exact with batching, per
            // the backend's own safety declaration) and record the
            // completion on the entry. The entry lingers as a merge
            // target until the clock passes the completion.
            if self.mshrs.len() == self.config.l2_mshrs {
                // Capacity: free the scheduled register whose fill
                // lands soonest. Removal shifts later indices, which
                // is safe because waiters reference entries by stable
                // id, never by position.
                if let Some((idx, _)) = self
                    .mshrs
                    .iter()
                    .enumerate()
                    .filter_map(|(i, m)| m.completion.map(|d| (i, d)))
                    .min_by_key(|&(_, d)| d)
                {
                    self.mshrs.remove(idx);
                    self.mshr_stats.incr(MshrEvent::EagerEvictions);
                }
            }
            let done = self
                .backend
                .line_read_batch_at(&[(t2, line_addr, kind)])
                .first()
                .copied()
                .expect("backend returns one completion per request");
            let id = self.new_entry_id();
            self.mshrs.push(MshrEntry {
                id,
                line_addr,
                kind,
                issue_at: t2,
                completion: Some(done),
                spec: None,
            });
            self.mshr_stats.incr(MshrEvent::EagerIssues);
            return Access::Ready(done.max(t2));
        }
        let spec = if self.spec_mode() {
            self.speculative_slot(t2, line_addr, kind)
        } else {
            None
        };
        if self.spec_mode() && spec.is_none() {
            // A parked entry is joining the window (backend declined,
            // coupling aborted the open window, or the idle gate
            // fired): no further speculation until the window drains,
            // or a replay after a clean confirm would re-issue the
            // already-committed speculated read.
            self.window_coupled = true;
        }
        let id = self.new_entry_id();
        self.mshrs.push(MshrEntry {
            id,
            line_addr,
            kind,
            issue_at: t2,
            completion: None,
            spec,
        });
        let token = self.wait_on(self.mshrs.len() - 1, t2);
        if self.mshrs.len() == self.config.l2_mshrs {
            // File full on this allocation: drain now. With one MSHR
            // this happens on every miss — the blocking seed machine.
            self.mshr_stats.incr(MshrEvent::FullDrains);
            self.drain_pending();
            let done = self
                .take_resolution_of(token)
                .expect("own miss resolves in this drain");
            return Access::Ready(done);
        }
        if self.config.drain_on_idle && self.backend.is_idle(t2) {
            // Adaptive drain: the fabric below has nothing in flight, so
            // batching this miss with later ones buys no overlap — issue
            // the file now and return this access resolved.
            self.mshr_stats.incr(MshrEvent::IdleDrains);
            self.drain_pending();
            let done = self
                .take_resolution_of(token)
                .expect("own miss resolves in this drain");
            return Access::Ready(done);
        }
        Access::Pending(token)
    }

    /// Attempts a speculative issue for a new allocation, returning the
    /// speculative completion cycle, or `None` when this entry must
    /// park (and the caller marks the window coupled).
    fn speculative_slot(&mut self, t2: u64, line_addr: u64, kind: LineKind) -> Option<u64> {
        if self.window_coupled {
            return None;
        }
        if self
            .mshrs
            .iter()
            .any(|m| m.completion.is_none() && m.spec.is_some())
        {
            // A second request landed in the open window: coupling.
            // Issuing into an open window makes the backend roll back
            // the speculated read and poison the window, so from here
            // the backend state is exactly what a parked machine would
            // hold, and the drain replays the whole batch.
            let aborted = self.backend.speculative_issue_at(t2, line_addr, kind);
            debug_assert!(aborted.is_none(), "issue into an open window must abort");
            return None;
        }
        // The parked machine's idle-drain gate must see parked-equal
        // backend state, which holds right now (no open window). If it
        // would drain this allocation on idle, skip speculation so the
        // identical idle-drain branch below fires.
        if self.config.drain_on_idle && self.backend.is_idle(t2) {
            return None;
        }
        let spec = self.backend.speculative_issue_at(t2, line_addr, kind);
        if spec.is_some() {
            self.mshr_stats.incr(MshrEvent::SpeculativeIssues);
        }
        spec
    }

    /// A dirty L1D victim merges into L2 (allocating silently if the line
    /// was displaced from L2 — mostly-inclusive approximation).
    fn l2_absorb_writeback(&mut self, now: u64, victim_addr: u64) {
        if let Some(l2_victim) = self.l2.insert(victim_addr, (), true) {
            if l2_victim.dirty {
                self.backend.line_writeback(now, l2_victim.addr);
            }
        }
    }
}

/// The speculative-window state of a backend: closed (no speculation in
/// flight), open on one speculated line, or poisoned (a coupling rolled
/// the window back; no further speculation until the drain confirms).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SpecPhase {
    Closed,
    Open { line_addr: u64 },
    Poisoned,
}

/// The insecure baseline backend: raw DRAM channels, no cryptography.
///
/// This is the paper's baseline processor against which every slowdown
/// percentage is computed.
#[derive(Debug, Clone)]
pub struct InsecureBackend {
    channels: ChannelSet,
    line_bytes: u32,
    mem_latency: u64,
    occupancy: u64,
    num_channels: usize,
    bank_config: padlock_mem::BankConfig,
    drain_order: padlock_mem::DrainOrder,
    spec_phase: SpecPhase,
    spec_snapshot: ChannelSnapshot,
}

impl InsecureBackend {
    /// Creates the baseline backend with the given DRAM latency and
    /// per-transaction channel occupancy (one flat channel).
    pub fn new(mem_latency: u64, occupancy: u64) -> Self {
        Self {
            channels: ChannelSet::new(1, mem_latency, occupancy, 8, 128),
            line_bytes: 128,
            mem_latency,
            occupancy,
            num_channels: 1,
            bank_config: padlock_mem::BankConfig::flat(),
            drain_order: padlock_mem::DrainOrder::Fifo,
            spec_phase: SpecPhase::Closed,
            spec_snapshot: ChannelSnapshot::new(),
        }
    }

    /// Rolls back an open speculative window: restores the speculated
    /// line's channel to its pre-issue snapshot and poisons the window.
    /// No-op when the window is closed or already poisoned.
    fn spec_abort(&mut self) {
        if let SpecPhase::Open { line_addr } = self.spec_phase {
            self.channels.restore_channel(line_addr, &self.spec_snapshot);
            self.spec_phase = SpecPhase::Poisoned;
        }
    }

    fn rebuild(&mut self) {
        self.channels = ChannelSet::new(
            self.num_channels,
            self.mem_latency,
            self.occupancy,
            8,
            u64::from(self.line_bytes),
        )
        .with_banks(self.bank_config);
    }

    /// Overrides the L2 line size used for traffic accounting and
    /// channel interleaving.
    pub fn with_line_bytes(mut self, line_bytes: u32) -> Self {
        self.line_bytes = line_bytes;
        self.bank_config.row_bytes = u64::from(line_bytes) * padlock_mem::ROW_LINES;
        self.rebuild();
        self
    }

    /// Spreads traffic over `n` line-interleaved DRAM channels.
    pub fn with_channels(mut self, n: usize) -> Self {
        self.num_channels = n;
        self.rebuild();
        self
    }

    /// Adds `n` DRAM banks with row-buffer timing beneath every channel
    /// (`1` restores the flat uniform-latency model), so the baseline
    /// machine sees the same memory device physics as the secure ones.
    /// The page policy set by [`InsecureBackend::with_page_policy`]
    /// survives.
    pub fn with_banks(mut self, n: usize) -> Self {
        let policy = self.bank_config.page_policy;
        self.bank_config =
            padlock_mem::BankConfig::banked(n, self.line_bytes).with_page_policy(policy);
        self.rebuild();
        self
    }

    /// Sets the bank page policy (open rows vs auto-precharge), so the
    /// baseline machine can be swept along the same `--page` axis as
    /// the secure ones.
    pub fn with_page_policy(mut self, policy: padlock_mem::PagePolicy) -> Self {
        self.bank_config.page_policy = policy;
        self.rebuild();
        self
    }

    /// Sets the batch drain order: `RowFirst` issues a batch's reads
    /// grouped by `(channel, bank, row)` (FR-FCFS style) while still
    /// returning completions in request order; `Fifo` (the default)
    /// issues in request order, the seed behaviour.
    pub fn with_drain_order(mut self, order: padlock_mem::DrainOrder) -> Self {
        self.drain_order = order;
        self
    }

    /// Issues a batch of reads in the configured drain order, returning
    /// completion cycles in request order.
    fn issue_batch(&mut self, reqs: &[(u64, u64)]) -> Vec<u64> {
        match self.drain_order {
            padlock_mem::DrainOrder::Fifo => reqs
                .iter()
                .map(|&(at, addr)| {
                    self.channels
                        .demand_read(at, addr, TrafficClass::LineRead, self.line_bytes)
                })
                .collect(),
            padlock_mem::DrainOrder::RowFirst => {
                let mut out = vec![0u64; reqs.len()];
                for i in self.channels.row_first_order(reqs) {
                    let (at, addr) = reqs[i];
                    out[i] = self
                        .channels
                        .demand_read(at, addr, TrafficClass::LineRead, self.line_bytes);
                }
                out
            }
        }
    }
}

impl MemoryBackend for InsecureBackend {
    fn line_read(&mut self, now: u64, line_addr: u64, _kind: LineKind) -> u64 {
        self.spec_abort();
        self.channels
            .demand_read(now, line_addr, TrafficClass::LineRead, self.line_bytes)
    }

    fn line_read_batch(&mut self, now: u64, reqs: &[(u64, LineKind)]) -> Vec<u64> {
        // No per-line state below L2: a batch claims occupancy slots on
        // each line's own channel, in the configured drain order.
        self.spec_abort();
        let reqs: Vec<(u64, u64)> = reqs.iter().map(|&(addr, _)| (now, addr)).collect();
        self.issue_batch(&reqs)
    }

    fn line_read_batch_at(&mut self, reqs: &[(u64, u64, LineKind)]) -> Vec<u64> {
        self.spec_abort();
        let reqs: Vec<(u64, u64)> = reqs.iter().map(|&(at, addr, _)| (at, addr)).collect();
        self.issue_batch(&reqs)
    }

    fn line_writeback(&mut self, now: u64, line_addr: u64) {
        // No encryption: data is ready immediately. A writeback landing
        // in an open speculative window couples it (the write buffer
        // can forward into the speculated read's drain), so abort.
        self.spec_abort();
        self.channels
            .enqueue_write(now, now, line_addr, TrafficClass::LineWrite, self.line_bytes);
    }

    fn speculative_issue_at(&mut self, arrival: u64, line_addr: u64, _kind: LineKind) -> Option<u64> {
        match self.spec_phase {
            SpecPhase::Poisoned => None,
            SpecPhase::Open { .. } => {
                // Second request in the window: coupling. Roll back.
                self.spec_abort();
                None
            }
            SpecPhase::Closed => {
                // Would a batch holding only this read decompose? No:
                // a singleton drains identically in either order
                // (`row_first_order` on one element is the identity),
                // so a lone read is always safe to issue now. Later
                // arrivals in the window abort above instead.
                self.channels
                    .snapshot_channel(line_addr, &mut self.spec_snapshot);
                let done = self.channels.demand_read(
                    arrival,
                    line_addr,
                    TrafficClass::LineRead,
                    self.line_bytes,
                );
                self.spec_phase = SpecPhase::Open { line_addr };
                Some(done)
            }
        }
    }

    fn speculative_confirm(&mut self) -> bool {
        let ok = matches!(self.spec_phase, SpecPhase::Open { .. });
        self.spec_phase = SpecPhase::Closed;
        ok
    }

    fn is_idle(&self, now: u64) -> bool {
        self.channels.is_idle(now)
    }

    fn eager_issue_safe(&self) -> bool {
        // FIFO order issues a batch's reads one at a time against the
        // channel state, so N singleton batches are identical to one
        // N-request batch; FR-FCFS reorders within a batch and is not.
        // Writebacks go straight to the channels at call time either
        // way, so no queued state couples to batch boundaries.
        self.drain_order == padlock_mem::DrainOrder::Fifo
    }

    fn drain(&mut self, now: u64) {
        self.spec_abort();
        self.channels.flush_writes(now);
    }

    fn traffic(&self) -> CounterSet {
        self.channels.stats()
    }

    fn reset_stats(&mut self) {
        self.spec_abort();
        self.channels.reset_stats();
    }

    fn label(&self) -> String {
        let mut label = "baseline".to_string();
        if self.num_channels > 1 {
            label.push_str(&format!(" x{}ch", self.num_channels));
        }
        if self.bank_config.banks > 1 {
            label.push_str(&format!(" x{}bk", self.bank_config.banks));
            if self.bank_config.page_policy == padlock_mem::PagePolicy::Closed {
                label.push_str("-cp");
            }
        }
        if self.drain_order == padlock_mem::DrainOrder::RowFirst {
            label.push_str(" frfcfs");
        }
        label
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mshr_stats_render_like_a_name_keyed_set() {
        // Feed the fixed slots and a name-keyed set the same events,
        // including a zero-valued add and a reset in between: the
        // renderings agree key for key, zero-valued names included.
        let mut fixed = MshrStats::default();
        let mut named = CounterSet::new("mshr");
        assert_eq!(fixed.to_counters(), named);
        fixed.incr(MshrEvent::Allocations);
        named.incr("allocations");
        fixed.add(MshrEvent::ReplayPatchedCompletions, 0);
        named.add("replay_patched_completions", 0);
        fixed.reset();
        named.reset();
        fixed.incr(MshrEvent::Merges);
        named.incr("merges");
        assert_eq!(fixed.to_counters(), named);
        assert_eq!(named.len(), 3);
    }

    fn hierarchy() -> Hierarchy<InsecureBackend> {
        Hierarchy::new(
            HierarchyConfig::paper_default(),
            InsecureBackend::new(100, 0),
        )
    }

    fn hierarchy_mshrs(n: usize) -> Hierarchy<InsecureBackend> {
        Hierarchy::new(
            HierarchyConfig::paper_default().with_l2_mshrs(n),
            InsecureBackend::new(100, 8),
        )
    }

    #[test]
    fn baseline_backend_supports_banked_dram() {
        let mut b = InsecureBackend::new(100, 8).with_channels(2).with_banks(4);
        assert_eq!(b.label(), "baseline x2ch x4bk");
        // Two reads of the same row on the same channel (lines 0 and 2
        // both route to channel 0): the second is a row hit.
        b.line_read(0, 0x0, LineKind::Data);
        let done = b.line_read(1_000, 0x100, LineKind::Data);
        assert_eq!(
            done,
            1_000 + padlock_mem::DEFAULT_ROW_HIT_CYCLES,
            "open-row read should cost the hit latency"
        );
        assert_eq!(b.traffic().get("row_hits"), 1);
        // with_banks(1) restores the flat model.
        let mut flat = InsecureBackend::new(100, 8).with_banks(1);
        assert_eq!(flat.line_read(0, 0x0, LineKind::Data), 100);
        assert_eq!(flat.label(), "baseline");
    }

    #[test]
    fn l1_hit_costs_l1_latency() {
        let mut h = hierarchy();
        h.data_access(0, 0x4000, false);
        let t = h.data_access(1000, 0x4000, false);
        assert_eq!(t, 1001);
    }

    #[test]
    fn l2_hit_costs_l1_plus_l2() {
        let mut h = hierarchy();
        h.data_access(0, 0x4000, false); // fills both
        // Evict from tiny L1 by touching conflicting addresses, keeping L2.
        // L1D: 32KB 4-way 32B lines -> 256 sets; stride 8KB maps same set.
        for i in 1..=4 {
            h.data_access(100, 0x4000 + i * 8 * 1024, false);
        }
        let t = h.data_access(1000, 0x4000, false);
        assert_eq!(t, 1000 + 1 + 6, "expected L2 hit");
    }

    #[test]
    fn l2_miss_reaches_memory() {
        let mut h = hierarchy();
        let t = h.data_access(0, 0x4000, false);
        assert_eq!(t, 1 + 6 + 100);
        assert_eq!(h.backend().traffic().get("line_reads"), 1);
    }

    #[test]
    fn instruction_fetches_fill_l1i_and_l2() {
        let mut h = hierarchy();
        let cold = h.inst_fetch(0, 0x1000);
        assert_eq!(cold, 107);
        let warm = h.inst_fetch(cold, 0x1000);
        assert_eq!(warm, cold + 1);
        assert_eq!(h.l1i_stats().get("misses"), 1);
        assert_eq!(h.l1i_stats().get("hits"), 1);
    }

    #[test]
    fn dirty_l2_victims_write_back_to_memory() {
        let mut h = hierarchy();
        // Dirty one line in L2 via a store, then stream enough lines
        // through the same L2 set to evict it.
        h.data_access(0, 0x0, true);
        // Flush it from L1D first so L1 does not shield the L2 state. The
        // L1D victim write allocates into L2 marking dirty.
        for i in 1..=4u64 {
            h.data_access(10, i * 8 * 1024, true);
        }
        // L2: 512 sets x 128B lines -> same-set stride = 64KB.
        for i in 1..=4u64 {
            h.data_access(100, i * 64 * 1024, false);
        }
        assert!(
            h.backend().traffic().get("line_writes") >= 1,
            "expected at least one writeback, traffic: {}",
            h.backend().traffic()
        );
    }

    #[test]
    fn store_misses_allocate_like_loads() {
        let mut h = hierarchy();
        let t = h.data_access(0, 0x9000, true);
        assert_eq!(t, 107);
        assert_eq!(h.backend().traffic().get("line_reads"), 1);
        // Subsequent load hits in L1.
        assert_eq!(h.data_access(200, 0x9008, false), 201);
    }

    #[test]
    fn reset_stats_clears_counts_keeps_contents() {
        let mut h = hierarchy();
        h.data_access(0, 0x4000, false);
        h.reset_stats();
        assert_eq!(h.l1d_stats().get("misses"), 0);
        assert_eq!(h.backend().traffic().get("line_reads"), 0);
        assert_eq!(h.data_access(500, 0x4000, false), 501); // still cached
    }

    #[test]
    fn insecure_row_first_batches_group_row_mates() {
        use padlock_mem::{
            DrainOrder, ROW_LINES, DEFAULT_ROW_CONFLICT_CYCLES, DEFAULT_ROW_HIT_CYCLES,
        };
        let row = 128 * ROW_LINES;
        // One channel, two banks: rows 0 and 2 share bank 0, and the
        // arrival order ping-pongs between them.
        let reqs: Vec<(u64, LineKind)> = [0, 2 * row, 128, 2 * row + 128]
            .into_iter()
            .map(|a| (a, LineKind::Data))
            .collect();
        let mut fifo = InsecureBackend::new(100, 8).with_banks(2);
        let mut rowf = InsecureBackend::new(100, 8)
            .with_banks(2)
            .with_drain_order(DrainOrder::RowFirst);
        assert_eq!(rowf.label(), "baseline x2bk frfcfs");
        let f = fifo.line_read_batch(0, &reqs);
        let r = rowf.line_read_batch(0, &reqs);
        assert_eq!(fifo.traffic().get("row_hits"), 0);
        assert_eq!(rowf.traffic().get("row_hits"), 2);
        assert_eq!(
            f.iter().max().unwrap() - r.iter().max().unwrap(),
            2 * (DEFAULT_ROW_CONFLICT_CYCLES - DEFAULT_ROW_HIT_CYCLES)
        );
        // On a flat fabric the reorder degenerates to request order.
        let mut flat_fifo = InsecureBackend::new(100, 8).with_channels(2);
        let mut flat_rowf = InsecureBackend::new(100, 8)
            .with_channels(2)
            .with_drain_order(DrainOrder::RowFirst);
        let reqs: Vec<(u64, LineKind)> = (0..12u64)
            .map(|i| (i % 5 * 128, LineKind::Data))
            .collect();
        assert_eq!(
            flat_fifo.line_read_batch(0, &reqs),
            flat_rowf.line_read_batch(0, &reqs)
        );
    }

    #[test]
    fn insecure_closed_page_policy_threads_through() {
        use padlock_mem::{PagePolicy, DEFAULT_ROW_CLOSED_CYCLES};
        let mut b = InsecureBackend::new(100, 8)
            .with_page_policy(PagePolicy::Closed)
            .with_banks(2);
        assert_eq!(b.label(), "baseline x2bk-cp");
        // Same-row repeat: still no hit, flat closed-page latency.
        b.line_read(0, 0x0, LineKind::Data);
        let done = b.line_read(1_000, 0x100, LineKind::Data);
        assert_eq!(done, 1_000 + DEFAULT_ROW_CLOSED_CYCLES);
        assert_eq!(b.traffic().get("row_hits"), 0);
        assert_eq!(b.traffic().get("row_conflicts"), 2);
    }

    #[test]
    fn insecure_batch_reads_overlap_on_the_channel() {
        let mut b = InsecureBackend::new(100, 8);
        let reqs: Vec<(u64, LineKind)> =
            (0..4u64).map(|i| (i * 128, LineKind::Data)).collect();
        let dones = b.line_read_batch(0, &reqs);
        assert_eq!(dones, vec![100, 108, 116, 124]);
        assert_eq!(b.traffic().get("line_reads"), 4);
    }

    #[test]
    fn insecure_channels_spread_batch_reads() {
        let mut b = InsecureBackend::new(100, 8).with_channels(4);
        let reqs: Vec<(u64, LineKind)> =
            (0..4u64).map(|i| (i * 128, LineKind::Data)).collect();
        // Four lines on four channels: all complete uncontended.
        assert_eq!(b.line_read_batch(0, &reqs), vec![100, 100, 100, 100]);
        assert_eq!(b.traffic().get("line_reads"), 4);
        assert_eq!(b.label(), "baseline x4ch");
    }

    #[test]
    fn default_batch_shims_serialise_through_line_read() {
        // A backend without an engine gets the compatibility shims.
        #[derive(Debug)]
        struct Fixed(u64);
        impl MemoryBackend for Fixed {
            fn line_read(&mut self, now: u64, _a: u64, _k: LineKind) -> u64 {
                self.0 += 1;
                now + 100
            }
            fn line_writeback(&mut self, _now: u64, _a: u64) {}
            fn traffic(&self) -> CounterSet {
                CounterSet::new("fixed")
            }
            fn reset_stats(&mut self) {}
            fn label(&self) -> String {
                "fixed".into()
            }
        }
        let mut f = Fixed(0);
        let dones = f.line_read_batch(7, &[(0, LineKind::Data), (128, LineKind::Data)]);
        assert_eq!(dones, vec![107, 107]);
        assert_eq!(f.0, 2);
        let dones = f.line_read_batch_at(&[(3, 0, LineKind::Data), (9, 128, LineKind::Data)]);
        assert_eq!(dones, vec![103, 109]);
        assert_eq!(f.0, 4);
        f.drain(1_000); // default drain is a no-op
    }

    #[test]
    fn single_mshr_misses_resolve_synchronously() {
        let mut h = hierarchy();
        match h.data_access_nb(0, 0x4000, false) {
            Access::Ready(done) => assert_eq!(done, 107),
            Access::Pending(_) => panic!("one-MSHR misses must block"),
        }
        assert_eq!(h.pending_misses(), 0);
        assert_eq!(h.mshr_stats().get("full_drains"), 1);
    }

    #[test]
    fn deep_mshr_file_keeps_misses_in_flight_until_drained() {
        let mut h = hierarchy_mshrs(4);
        let mut tokens = Vec::new();
        for i in 0..3u64 {
            match h.data_access_nb(i, 0x10_0000 + i * 128, false) {
                Access::Pending(tok) => tokens.push(tok),
                Access::Ready(_) => panic!("miss {i} should stay in flight"),
            }
        }
        assert_eq!(h.pending_misses(), 3);
        assert_eq!(h.backend().traffic().get("line_reads"), 0, "not yet issued");
        h.drain_pending();
        let mut resolved = Vec::new();
        h.take_resolutions(&mut resolved);
        assert_eq!(resolved.len(), 3);
        assert_eq!(h.backend().traffic().get("line_reads"), 3);
        for tok in &tokens {
            assert!(resolved.iter().any(|(t, done)| t == tok && *done >= 107));
        }
    }

    #[test]
    fn filling_the_mshr_file_forces_a_batch_drain() {
        let mut h = hierarchy_mshrs(2);
        let first = h.data_access_nb(0, 0x10_0000, false);
        assert!(matches!(first, Access::Pending(_)));
        // Second miss fills the 2-entry file: both issue as one batch
        // and the second returns ready.
        match h.data_access_nb(5, 0x10_0080, false) {
            Access::Ready(done) => assert!(done >= 112),
            Access::Pending(_) => panic!("filling the file must drain"),
        }
        assert_eq!(h.pending_misses(), 0);
        assert_eq!(h.backend().traffic().get("line_reads"), 2);
        // The first miss's resolution is waiting for collection.
        let mut resolved = Vec::new();
        h.take_resolutions(&mut resolved);
        assert_eq!(resolved.len(), 1);
    }

    #[test]
    fn secondary_miss_to_inflight_line_merges() {
        let mut h = hierarchy_mshrs(4);
        let a = h.data_access_nb(0, 0x10_0000, false);
        // Same 128B L2 line, different 32B L1 line: L2 "hits" on the
        // eagerly allocated line but must wait for the in-flight fill.
        let b = h.data_access_nb(1, 0x10_0040, false);
        assert!(matches!(a, Access::Pending(_)));
        let Access::Pending(tok_b) = b else {
            panic!("merged access must be pending");
        };
        assert_eq!(h.pending_misses(), 1, "one line, one MSHR");
        assert_eq!(h.mshr_stats().get("merges"), 1);
        let done_b = h.resolve(tok_b);
        assert!(done_b >= 107);
        // Only one fill reached memory.
        assert_eq!(h.backend().traffic().get("line_reads"), 1);
    }

    #[test]
    fn l1_hit_on_inflight_line_waits_for_the_fill() {
        let mut h = hierarchy_mshrs(4);
        let Access::Pending(tok_a) = h.data_access_nb(0, 0x10_0000, false) else {
            panic!("cold miss pends");
        };
        // Same L1 line: hits L1 but the fill is still in flight.
        let Access::Pending(tok_b) = h.data_access_nb(2, 0x10_0008, false) else {
            panic!("hit-under-miss must wait for the fill");
        };
        let done_a = h.resolve(tok_a);
        let done_b = h.resolve(tok_b);
        assert_eq!(done_a, 107);
        assert_eq!(done_b, done_a, "merged hit completes with the fill");
    }

    #[test]
    fn blocking_wrapper_resolves_pending_accesses() {
        let mut deep = hierarchy_mshrs(8);
        let mut blocking = hierarchy();
        // Uncontended (zero-occupancy reference uses latency 100, 0):
        // completions agree because each miss is charged from its own
        // arrival regardless of when the batch drains.
        let mut one = Hierarchy::new(
            HierarchyConfig::paper_default().with_l2_mshrs(8),
            InsecureBackend::new(100, 0),
        );
        let mut two = Hierarchy::new(
            HierarchyConfig::paper_default(),
            InsecureBackend::new(100, 0),
        );
        for i in 0..20u64 {
            let addr = 0x20_0000 + i * 256;
            assert_eq!(
                one.data_access(i * 3, addr, false),
                two.data_access(i * 3, addr, false)
            );
        }
        // And the deep file still answers through the blocking API.
        assert_eq!(deep.data_access(0, 0x4000, false), 107);
        assert_eq!(blocking.data_access(0, 0x4000, false), 107);
    }

    #[test]
    fn drain_on_idle_defaults_off() {
        assert!(!HierarchyConfig::paper_default().drain_on_idle);
        assert!(!HierarchyConfig::default().drain_on_idle);
        // With the knob off, a miss into a non-full file stays pending
        // even though the fabric below is completely idle — the seed
        // batching behaviour the differentials lock down.
        let mut h = hierarchy_mshrs(4);
        assert!(matches!(
            h.data_access_nb(0, 0x10_0000, false),
            Access::Pending(_)
        ));
        assert_eq!(h.pending_misses(), 1);
        assert_eq!(h.mshr_stats().get("idle_drains"), 0);
    }

    #[test]
    fn drain_on_idle_issues_eagerly_when_fabric_quiescent() {
        let mut h = Hierarchy::new(
            HierarchyConfig::paper_default()
                .with_l2_mshrs(4)
                .with_drain_on_idle(true),
            InsecureBackend::new(100, 8),
        );
        // Miss A arrives with the fabric idle: it drains immediately and
        // resolves synchronously instead of waiting for the file.
        match h.data_access_nb(0, 0x10_0000, false) {
            Access::Ready(done) => assert_eq!(done, 107),
            Access::Pending(_) => panic!("idle fabric must drain eagerly"),
        }
        assert_eq!(h.pending_misses(), 0);
        assert_eq!(h.mshr_stats().get("idle_drains"), 1);
        // Miss B arrives while A still occupies the channel (bus busy
        // until cycle 15): the file holds it for batching as before.
        assert!(matches!(
            h.data_access_nb(3, 0x10_0080, false),
            Access::Pending(_)
        ));
        assert_eq!(h.pending_misses(), 1);
        assert_eq!(h.mshr_stats().get("idle_drains"), 1, "busy fabric defers");
        h.drain_pending();
        let mut resolved = Vec::new();
        h.take_resolutions(&mut resolved);
        assert_eq!(resolved.len(), 1);
        assert_eq!(h.backend().traffic().get("line_reads"), 2);
    }

    #[test]
    fn default_is_idle_makes_drain_on_idle_behave_blocking() {
        // A backend that does not implement `is_idle` inherits `true`,
        // so drain-on-idle degrades to drain-always — the blocking
        // machine.
        #[derive(Debug)]
        struct Fixed;
        impl MemoryBackend for Fixed {
            fn line_read(&mut self, now: u64, _a: u64, _k: LineKind) -> u64 {
                now + 100
            }
            fn line_writeback(&mut self, _now: u64, _a: u64) {}
            fn traffic(&self) -> CounterSet {
                CounterSet::new("fixed")
            }
            fn reset_stats(&mut self) {}
            fn label(&self) -> String {
                "fixed".into()
            }
        }
        assert!(Fixed.is_idle(u64::MAX));
        let mut h = Hierarchy::new(
            HierarchyConfig::paper_default()
                .with_l2_mshrs(8)
                .with_drain_on_idle(true),
            Fixed,
        );
        for i in 0..4u64 {
            match h.data_access_nb(i * 10, 0x10_0000 + i * 128, false) {
                Access::Ready(done) => assert_eq!(done, i * 10 + 7 + 100),
                Access::Pending(_) => panic!("trivially idle backend must drain"),
            }
        }
        assert_eq!(h.mshr_stats().get("idle_drains"), 4);
    }

    #[test]
    fn insecure_label() {
        assert_eq!(InsecureBackend::new(100, 8).label(), "baseline");
    }

    fn hierarchy_eager(n: usize) -> Hierarchy<InsecureBackend> {
        Hierarchy::new(
            HierarchyConfig::paper_default()
                .with_l2_mshrs(n)
                .with_eager_completions(true),
            InsecureBackend::new(100, 8),
        )
    }

    #[test]
    fn eager_completions_schedule_misses_at_allocation() {
        let mut h = hierarchy_eager(4);
        // The miss issues immediately with a real completion cycle —
        // no parked Pending access, no batch drain needed.
        match h.data_access_nb(0, 0x10_0000, false) {
            Access::Ready(done) => assert_eq!(done, 107),
            Access::Pending(_) => panic!("eager miss must resolve at allocation"),
        }
        assert_eq!(h.backend().traffic().get("line_reads"), 1);
        assert_eq!(h.mshr_stats().get("eager_issues"), 1);
        assert_eq!(h.mshr_stats().get("full_drains"), 0);
        // The entry lingers as a merge target, but it is not a pending
        // (un-issued) miss: nothing forces a stall-on-use drain.
        assert_eq!(h.pending_misses(), 0);
        assert_eq!(h.next_completion(), Some(107));
        // Time passes the completion: the entry retires and the line is
        // plain L2 state (the fill landed).
        h.retire_completed(200);
        assert_eq!(h.next_completion(), None);
    }

    #[test]
    fn eager_merge_window_stays_open_until_the_fill_lands() {
        let mut h = hierarchy_eager(4);
        let Access::Ready(done_a) = h.data_access_nb(0, 0x10_0000, false) else {
            panic!("eager miss resolves at allocation");
        };
        // Same L2 line while the fill is in flight: merges against the
        // scheduled entry, resolving immediately to the fill's cycle.
        let Access::Pending(tok) = h.data_access_nb(1, 0x10_0040, false) else {
            panic!("merged access resolves through a token");
        };
        let mut resolved = Vec::new();
        h.take_resolutions(&mut resolved);
        assert_eq!(resolved, vec![(tok, done_a)]);
        assert_eq!(h.mshr_stats().get("merges"), 1);
        assert_eq!(h.backend().traffic().get("line_reads"), 1, "one fill");
        // After the fill lands, the same line is an ordinary L2 hit.
        let t = h.data_access(done_a + 10, 0x10_0040, false);
        assert_eq!(t, done_a + 10 + 1);
        assert_eq!(h.backend().traffic().get("line_reads"), 1);
    }

    #[test]
    fn eager_mode_matches_batched_completions_per_miss() {
        // Distinct lines, uncontended fabric: eager singleton issue and
        // accumulate-then-drain charge identical per-miss completions
        // (each from its own arrival).
        let mut eager = Hierarchy::new(
            HierarchyConfig::paper_default()
                .with_l2_mshrs(8)
                .with_eager_completions(true),
            InsecureBackend::new(100, 0),
        );
        let mut batched = Hierarchy::new(
            HierarchyConfig::paper_default().with_l2_mshrs(8),
            InsecureBackend::new(100, 0),
        );
        for i in 0..6u64 {
            let addr = 0x30_0000 + i * 256;
            let Access::Ready(done_e) = eager.data_access_nb(i * 5, addr, false) else {
                panic!("eager miss resolves at allocation");
            };
            let done_b = match batched.data_access_nb(i * 5, addr, false) {
                Access::Ready(done) => done,
                Access::Pending(tok) => batched.resolve(tok),
            };
            assert_eq!(done_e, done_b, "miss {i}");
        }
        assert_eq!(
            eager.backend().traffic().get("line_reads"),
            batched.backend().traffic().get("line_reads")
        );
    }

    #[test]
    fn eager_capacity_evicts_the_soonest_fill() {
        let mut h = hierarchy_eager(2);
        // Fill the 2-entry file with scheduled completions.
        let _ = h.data_access_nb(0, 0x10_0000, false);
        let _ = h.data_access_nb(0, 0x10_0080, false);
        assert_eq!(h.mshr_stats().get("eager_issues"), 2);
        // A third miss at the same cycle: capacity forces the entry with
        // the earliest completion out of the file.
        let _ = h.data_access_nb(0, 0x10_0100, false);
        assert_eq!(h.mshr_stats().get("eager_evictions"), 1);
        assert_eq!(h.mshr_stats().get("eager_issues"), 3);
    }

    #[test]
    fn eager_requires_backend_safety() {
        // FR-FCFS reorders within a batch, so the backend vetoes eager
        // issue and misses park exactly as in batching mode.
        let mut h = Hierarchy::new(
            HierarchyConfig::paper_default()
                .with_l2_mshrs(4)
                .with_eager_completions(true),
            InsecureBackend::new(100, 8)
                .with_banks(2)
                .with_drain_order(padlock_mem::DrainOrder::RowFirst),
        );
        assert!(!h.backend().eager_issue_safe());
        assert!(matches!(
            h.data_access_nb(0, 0x10_0000, false),
            Access::Pending(_)
        ));
        assert_eq!(h.pending_misses(), 1);
        assert_eq!(h.mshr_stats().get("eager_issues"), 0);
        assert_eq!(h.next_completion(), None, "parked misses are unscheduled");
        h.drain_pending();
        assert!(h.next_completion().is_some(), "drain schedules resolutions");
    }

    #[test]
    #[should_panic(expected = "l2_mshrs must be positive")]
    fn zero_mshrs_rejected() {
        let _ = Hierarchy::new(
            HierarchyConfig::paper_default().with_l2_mshrs(0),
            InsecureBackend::new(100, 8),
        );
    }

    /// A backend whose `eager_issue_safe` answer flips mid-run,
    /// exposing MSHR files that mix scheduled and parked entries (a
    /// real backend only changes its answer at construction, so the
    /// mix needs a test double).
    #[derive(Debug)]
    struct Flip {
        inner: InsecureBackend,
        safe: bool,
    }
    impl MemoryBackend for Flip {
        fn line_read(&mut self, now: u64, a: u64, k: LineKind) -> u64 {
            self.inner.line_read(now, a, k)
        }
        fn line_read_batch_at(&mut self, reqs: &[(u64, u64, LineKind)]) -> Vec<u64> {
            self.inner.line_read_batch_at(reqs)
        }
        fn line_writeback(&mut self, now: u64, a: u64) {
            self.inner.line_writeback(now, a)
        }
        fn eager_issue_safe(&self) -> bool {
            self.safe
        }
        fn traffic(&self) -> CounterSet {
            self.inner.traffic()
        }
        fn reset_stats(&mut self) {
            self.inner.reset_stats()
        }
        fn label(&self) -> String {
            "flip".into()
        }
    }

    #[test]
    fn eager_eviction_keeps_parked_waiters_attached_to_their_entries() {
        let mut h = Hierarchy::new(
            HierarchyConfig::paper_default()
                .with_l2_mshrs(3)
                .with_eager_completions(true),
            Flip {
                inner: InsecureBackend::new(100, 0),
                safe: true,
            },
        );
        // Entry 0: scheduled eagerly (completion recorded).
        let Access::Ready(_) = h.data_access_nb(0, 0x10_0000, false) else {
            panic!("eager miss resolves at allocation");
        };
        // Entry 1: the backend turns unsafe, so this miss parks with a
        // waiter attached (2 < 3 entries: no synchronous full drain).
        h.backend_mut().safe = false;
        let Access::Pending(tok) = h.data_access_nb(5, 0x20_0000, false) else {
            panic!("unsafe backend must park the miss");
        };
        // Entries 2 and 3: safe again. The second eager allocation
        // finds the file full and evicts the scheduled entry at index
        // 0 — shifting the parked entry's position under its waiter.
        h.backend_mut().safe = true;
        let Access::Ready(_) = h.data_access_nb(10, 0x30_0000, false) else {
            panic!("eager miss resolves at allocation");
        };
        let Access::Ready(_) = h.data_access_nb(15, 0x40_0000, false) else {
            panic!("eager miss resolves at allocation");
        };
        assert_eq!(h.mshr_stats().get("eager_evictions"), 1);
        // The parked miss must still resolve to its own completion —
        // its read issues at the drain, behind eager entry 3's cycle-22
        // bus grant (FCFS in issue order), so 22 + 100. The broken
        // index-based waiter instead picked up a shifted entry's
        // re-issued completion.
        assert_eq!(h.resolve(tok), 15 + 7 + 100);
        // Exactly four fills reached memory — the drain must not
        // re-issue the already-scheduled entries.
        assert_eq!(h.backend().traffic().get("line_reads"), 4);
    }

    fn frfcfs_backend() -> InsecureBackend {
        InsecureBackend::new(100, 8)
            .with_channels(2)
            .with_banks(2)
            .with_drain_order(padlock_mem::DrainOrder::RowFirst)
    }

    fn spec_hierarchy(n: usize) -> Hierarchy<InsecureBackend> {
        Hierarchy::new(
            HierarchyConfig::paper_default()
                .with_l2_mshrs(n)
                .with_speculative_completions(true),
            frfcfs_backend(),
        )
    }

    fn parked_hierarchy(n: usize) -> Hierarchy<InsecureBackend> {
        Hierarchy::new(
            HierarchyConfig::paper_default().with_l2_mshrs(n),
            frfcfs_backend(),
        )
    }

    #[test]
    fn eager_precedes_speculative_precedes_parked() {
        // Both knobs on with an eager-safe backend: eager wins and no
        // speculative window ever opens.
        let mut h = Hierarchy::new(
            HierarchyConfig::paper_default()
                .with_l2_mshrs(4)
                .with_eager_completions(true)
                .with_speculative_completions(true),
            InsecureBackend::new(100, 8),
        );
        assert!(matches!(
            h.data_access_nb(0, 0x10_0000, false),
            Access::Ready(_)
        ));
        assert_eq!(h.mshr_stats().get("eager_issues"), 1);
        assert_eq!(h.mshr_stats().get("speculative_issues"), 0);
        // Same knobs on a non-eager-safe backend: speculation engages,
        // and the access stays Pending (trigger-faithful).
        let mut h = Hierarchy::new(
            HierarchyConfig::paper_default()
                .with_l2_mshrs(4)
                .with_eager_completions(true)
                .with_speculative_completions(true),
            frfcfs_backend(),
        );
        assert!(matches!(
            h.data_access_nb(0, 0x10_0000, false),
            Access::Pending(_)
        ));
        assert_eq!(h.mshr_stats().get("eager_issues"), 0);
        assert_eq!(h.mshr_stats().get("speculative_issues"), 1);
    }

    #[test]
    fn idle_drain_takes_precedence_over_speculation() {
        // drain_on_idle + speculation: an allocation the parked machine
        // would idle-drain takes that identical path (no window opens),
        // keeping the two machines bit-exact.
        let mut h = Hierarchy::new(
            HierarchyConfig::paper_default()
                .with_l2_mshrs(4)
                .with_drain_on_idle(true)
                .with_speculative_completions(true),
            frfcfs_backend(),
        );
        match h.data_access_nb(0, 0x10_0000, false) {
            Access::Ready(done) => assert!(done >= 107),
            Access::Pending(_) => panic!("idle fabric must drain eagerly"),
        }
        assert_eq!(h.mshr_stats().get("idle_drains"), 1);
        assert_eq!(h.mshr_stats().get("speculative_issues"), 0);
        // While the fabric is busy the next miss speculates instead.
        let Access::Pending(tok) = h.data_access_nb(1, 0x10_0080, false) else {
            panic!("busy fabric parks the miss");
        };
        assert_eq!(h.mshr_stats().get("speculative_issues"), 1);
        let _ = h.resolve(tok);
        assert_eq!(h.mshr_stats().get("window_replays"), 0);
    }

    #[test]
    fn speculative_singleton_confirms_without_replay() {
        let mut spec = spec_hierarchy(4);
        let mut parked = parked_hierarchy(4);
        // The speculated miss stays trigger-faithful: Pending, counted
        // as a pending miss, and invisible to next_completion().
        let Access::Pending(tok_s) = spec.data_access_nb(0, 0x10_0000, false) else {
            panic!("speculated miss stays pending");
        };
        let Access::Pending(tok_p) = parked.data_access_nb(0, 0x10_0000, false) else {
            panic!("parked miss pends");
        };
        assert_eq!(spec.pending_misses(), 1);
        assert_eq!(spec.next_completion(), None, "speculative cycles stay hidden");
        // But the read already went to memory.
        assert_eq!(spec.backend().traffic().get("line_reads"), 1);
        assert_eq!(parked.backend().traffic().get("line_reads"), 0);
        // A singleton drain confirms the speculation: no second issue,
        // identical completion to the parked machine.
        assert_eq!(spec.resolve(tok_s), parked.resolve(tok_p));
        assert_eq!(spec.backend().traffic().get("line_reads"), 1);
        assert_eq!(spec.mshr_stats().get("speculative_issues"), 1);
        assert_eq!(spec.mshr_stats().get("window_replays"), 0);
    }

    #[test]
    fn coupled_window_replays_bit_exact_with_parked() {
        let mut spec = spec_hierarchy(4);
        let mut parked = parked_hierarchy(4);
        // Two rows on the same channel and bank: FR-FCFS would reorder
        // them inside one batch, so the speculated singleton cannot
        // stand once the second request lands in the window.
        let row = 128 * padlock_mem::ROW_LINES;
        let addrs = [0u64, 4 * row];
        let mut toks_s = Vec::new();
        let mut toks_p = Vec::new();
        for (i, &a) in addrs.iter().enumerate() {
            let t = i as u64 * 3;
            let Access::Pending(ts) = spec.data_access_nb(t, a, false) else {
                panic!("spec miss pends");
            };
            let Access::Pending(tp) = parked.data_access_nb(t, a, false) else {
                panic!("parked miss pends");
            };
            toks_s.push(ts);
            toks_p.push(tp);
        }
        // The second allocation coupled the window: the backend rolled
        // the speculated read back and the drain below replays both.
        assert_eq!(spec.mshr_stats().get("speculative_issues"), 1);
        for (ts, tp) in toks_s.into_iter().zip(toks_p) {
            assert_eq!(spec.resolve(ts), parked.resolve(tp));
        }
        assert_eq!(spec.mshr_stats().get("window_replays"), 1);
        assert_eq!(spec.mshr_stats().get("replay_patched_completions"), 1);
        // The replay left no trace: same traffic as the parked machine.
        for (name, v) in parked.backend().traffic().iter() {
            assert_eq!(spec.backend().traffic().get(name), v, "{name}");
        }
    }

    #[test]
    fn writeback_into_open_window_rolls_back_the_speculated_read() {
        let mut spec = frfcfs_backend();
        let mut parked = frfcfs_backend();
        assert!(spec.speculative_issue_at(10, 0x0, LineKind::Data).is_some());
        // The writeback aborts the window: the speculated read is
        // un-issued, and the machines evolve identically from here.
        spec.line_writeback(12, 0x80);
        parked.line_writeback(12, 0x80);
        assert!(
            spec.speculative_issue_at(15, 0x200, LineKind::Data).is_none(),
            "a poisoned window declines further speculation"
        );
        assert!(!spec.speculative_confirm(), "window was poisoned");
        let reqs = [(10, 0x0, LineKind::Data), (20, 0x100, LineKind::Data)];
        assert_eq!(
            spec.line_read_batch_at(&reqs),
            parked.line_read_batch_at(&reqs)
        );
        for (name, v) in parked.traffic().iter() {
            assert_eq!(spec.traffic().get(name), v, "{name}");
        }
    }

    #[test]
    fn speculative_machine_matches_parked_across_mixed_traffic() {
        let mut spec = spec_hierarchy(4);
        let mut parked = parked_hierarchy(4);
        let mut toks_s = Vec::new();
        let mut toks_p = Vec::new();
        let mut x = 0x12345u64;
        for i in 0..400u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let addr = (x >> 16) % (1 << 22);
            let is_store = x.is_multiple_of(3);
            let now = i * 7;
            match (
                spec.data_access_nb(now, addr, is_store),
                parked.data_access_nb(now, addr, is_store),
            ) {
                (Access::Ready(a), Access::Ready(b)) => assert_eq!(a, b, "access {i}"),
                (Access::Pending(ts), Access::Pending(tp)) => {
                    toks_s.push(ts);
                    toks_p.push(tp);
                }
                _ => panic!("machines disagree on pending-ness at access {i}"),
            }
            // Uneven drain points build multi-entry windows: coupled
            // replays and confirmed singletons both occur below.
            if i % 5 == 4 {
                for (ts, tp) in toks_s.drain(..).zip(toks_p.drain(..)) {
                    assert_eq!(spec.resolve(ts), parked.resolve(tp), "access {i}");
                }
            }
        }
        spec.drain_pending();
        parked.drain_pending();
        assert!(spec.mshr_stats().get("speculative_issues") > 0);
        assert!(spec.mshr_stats().get("window_replays") > 0);
        for (name, v) in parked.backend().traffic().iter() {
            assert_eq!(spec.backend().traffic().get(name), v, "{name}");
        }
        assert_eq!(
            spec.l2_stats().get("misses"),
            parked.l2_stats().get("misses")
        );
    }
}
