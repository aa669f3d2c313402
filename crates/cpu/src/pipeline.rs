//! The out-of-order execution engine: fetch/dispatch, issue, complete,
//! commit over a reorder buffer, with event-driven fast-forwarding.
//!
//! # Fast-forward core
//!
//! The run loop is event-driven rather than cycle-scanned (the seed
//! loop is preserved verbatim in `padlock-bench`'s `seed_core` module
//! and the `fastforward_vs_seed` differential proves the two produce
//! bit-exact cycles and counters). Its scheduling state is flat arrays
//! sized when the session opens, so scheduling an op performs no tree
//! operation and no allocation (only a load that misses the L2 touches
//! the `pending_loads` map):
//!
//! * **ROB ring** — slots live in a power-of-two ring indexed by
//!   sequence number (`seq & mask`); the live window is
//!   `base..dispatched`.
//!
//! * **Incremental issue readiness** — instead of re-testing every
//!   un-issued slot's dependences each cycle, each producer slot heads
//!   an intrusive list of its in-ROB consumers, threaded through the
//!   consumers' own slots with one link per dependence port. When a
//!   producer's completion cycle becomes known (at issue, or when an L2
//!   miss resolves), its consumers' outstanding-dependence counts are
//!   decremented and each newly unblocked consumer is filed either into
//!   a *ready ring* (memory vs. non-memory ops, one bit per ROB ring
//!   position) or into the calendar at the cycle its last producer
//!   completes. Issue then merge-walks the two ready rings
//!   oldest-first — ring order from `base` is program order —
//!   reproducing the seed scan's order exactly: the overall issue-width
//!   cap stops the walk, while the memory-port cap skips memory ops but
//!   lets younger non-memory ops through. Because the rings are ordered
//!   sets, the order in which a producer notifies its consumers cannot
//!   change what issues.
//!
//! * **Timing-wheel calendar** — one bit per cycle over a
//!   [`WHEEL_CYCLES`]-cycle window starting just past `now` marks the
//!   future completion cycles of issued ops (and resolved misses); a
//!   per-cycle bucket lists the slots that become ready on that cycle.
//!   Events beyond the window wait in an overflow min-heap and migrate
//!   into the wheel as the clock advances. When no
//!   fetch/dispatch/issue/commit can occur, `now` jumps straight to the
//!   earliest future event (folding in the fetch gates and
//!   [`Hierarchy::next_completion`]) instead of scanning the ROB.
//!
//! Loads that miss past the L2 park with a [`PENDING`] completion until
//! the MSHR file schedules or drains them (see
//! [`Hierarchy`](crate::hierarchy::Hierarchy) for the eager-completion
//! rules); a parked load at the ROB head forces a drain exactly as the
//! seed loop did, so the backend observes the identical window
//! composition.

use crate::bpred::{BimodalPredictor, BranchPredictor};
use crate::hierarchy::{Access, AccessToken, Hierarchy, MemoryBackend};
use crate::op::{OpClass, Workload};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// Pipeline widths and structure sizes.
///
/// Defaults follow SimpleScalar `sim-outorder`'s defaults, which the
/// paper states it used apart from the cache/memory parameters: 4-wide
/// fetch/issue/commit, a 16-entry register update unit (our ROB), two
/// memory ports, bimodal 2K predictor.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Ops fetched/dispatched per cycle.
    pub fetch_width: u32,
    /// Ops issued to execution per cycle.
    pub issue_width: u32,
    /// Ops committed per cycle.
    pub commit_width: u32,
    /// Reorder-buffer entries (SimpleScalar's RUU).
    pub rob_size: usize,
    /// Memory operations issued per cycle (load/store ports).
    pub mem_ports: u32,
    /// Extra front-end cycles after a mispredicted branch resolves.
    pub mispredict_penalty: u64,
    /// Entries in the bimodal predictor.
    pub bpred_entries: usize,
}

impl PipelineConfig {
    /// The paper's processor: 4-issue out-of-order with SimpleScalar
    /// defaults.
    pub fn paper_default() -> Self {
        Self {
            fetch_width: 4,
            issue_width: 4,
            commit_width: 4,
            rob_size: 16,
            mem_ports: 2,
            mispredict_penalty: 3,
            bpred_entries: 2048,
        }
    }
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Results of one simulated window.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Ops committed in the window.
    pub instructions: u64,
    /// Cycles elapsed.
    pub cycles: u64,
    /// Committed loads.
    pub loads: u64,
    /// Committed stores.
    pub stores: u64,
    /// Committed branches.
    pub branches: u64,
    /// Mispredicted branches.
    pub mispredicts: u64,
    /// Times the clock was forced forward by one cycle because the
    /// event calendar held no future event while nothing could run.
    ///
    /// This is the release-mode escape hatch for what `debug_assert`s
    /// flag in debug builds; a correct model keeps it at 0, and the
    /// test suite asserts so.
    pub forced_steps: u64,
}

impl RunStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Cycles per instruction.
    pub fn cpi(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.cycles as f64 / self.instructions as f64
        }
    }
}

const NOT_ISSUED: u64 = u64::MAX;
/// Completion sentinel for a load waiting on an in-flight L2 miss; the
/// real cycle arrives when the hierarchy drains its MSHR file.
const PENDING: u64 = u64::MAX - 1;
/// End of an intrusive list (consumer lists, calendar buckets); as a
/// calendar entry's slot, "no slot": a bare completion event.
const NIL: u64 = u64::MAX;
/// Cycles covered by the calendar's timing wheel. Completions further
/// out (deep MSHR queues, slow backends) wait in its overflow heap.
const WHEEL_CYCLES: u64 = 1024;

#[derive(Debug, Clone, Copy)]
enum SlotKind {
    Fixed(u64),
    Load(u64),
    Store(u64),
    /// A mispredicted branch; resolving it un-blocks the front end.
    BranchRedirect,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    kind: SlotKind,
    issued: bool,
    complete_at: u64,
    /// Earliest cycle this slot's known producers allow it to issue
    /// (running max over producer completion cycles).
    ready_at: u64,
    /// Producers whose completion cycle is still unknown (un-issued, or
    /// parked on an in-flight miss).
    unresolved: u8,
    /// Memory op (load/store): subject to the memory-port cap.
    is_mem: bool,
    /// Head of this slot's consumer list: the link `seq << 1 | port` of
    /// a consumer waiting on it through dependence port `port`, or
    /// [`NIL`].
    first_consumer: u64,
    /// The link after this slot's own entry in its producer's consumer
    /// list, per dependence port (`dep1 == dep2` naming one producer
    /// threads the slot through that list twice).
    next: [u64; 2],
    /// The next slot in this slot's calendar bucket while it waits for
    /// a future ready cycle.
    cal_next: u64,
}

impl Slot {
    /// Filler for ring positions outside the live window.
    const VACANT: Slot = Slot {
        kind: SlotKind::Fixed(0),
        issued: false,
        complete_at: NOT_ISSUED,
        ready_at: 0,
        unresolved: 0,
        is_mem: false,
        first_consumer: NIL,
        next: [NIL; 2],
        cal_next: NIL,
    };
}

/// The position of sequence number `seq` in a power-of-two ROB ring.
fn ring_index(rob: &[Slot], seq: u64) -> usize {
    seq as usize & (rob.len() - 1)
}

/// A ring of bits with a power-of-two capacity of at least 64; callers
/// pass positions already reduced modulo the capacity.
#[derive(Debug)]
struct RingBits {
    words: Vec<u64>,
    /// Set bits, so an empty ring answers without a scan.
    count: u32,
}

impl RingBits {
    fn new(capacity: u64) -> Self {
        debug_assert!(capacity.is_power_of_two() && capacity >= 64);
        Self {
            words: vec![0; (capacity / 64) as usize],
            count: 0,
        }
    }

    fn insert(&mut self, pos: u64) {
        let (w, bit) = ((pos / 64) as usize, 1u64 << (pos % 64));
        if self.words[w] & bit == 0 {
            self.words[w] |= bit;
            self.count += 1;
        }
    }

    fn remove(&mut self, pos: u64) {
        let (w, bit) = ((pos / 64) as usize, 1u64 << (pos % 64));
        debug_assert!(self.words[w] & bit != 0, "removing an absent position");
        self.words[w] &= !bit;
        self.count -= 1;
    }

    /// Clears and returns the bits of word `w` selected by `mask`.
    fn take(&mut self, w: usize, mask: u64) -> u64 {
        let bits = self.words[w] & mask;
        self.words[w] &= !bits;
        self.count -= bits.count_ones();
        bits
    }

    /// Ring distance from position `start` to the first set bit at or
    /// after it.
    fn first_from(&self, start: u64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let n = self.words.len();
        let w0 = (start / 64) as usize;
        let off = start % 64;
        let head = self.words[w0] & (u64::MAX << off);
        if head != 0 {
            return Some(u64::from(head.trailing_zeros()) - off);
        }
        for i in 1..n {
            let bits = self.words[(w0 + i) & (n - 1)];
            if bits != 0 {
                return Some(i as u64 * 64 + u64::from(bits.trailing_zeros()) - off);
            }
        }
        // Wrapped all the way round to the start word's low bits.
        let tail = self.words[w0] & !(u64::MAX << off);
        (tail != 0).then(|| n as u64 * 64 + u64::from(tail.trailing_zeros()) - off)
    }
}

/// The event calendar: a timing wheel with one bit per cycle of the
/// window `[origin, origin + WHEEL_CYCLES)`, set when an op completes
/// on that cycle, plus a per-cycle bucket of slots (linked through
/// [`Slot::cal_next`]) that become ready then. Events past the window
/// wait in `overflow`, which holds only cycles at or beyond
/// `origin + WHEEL_CYCLES`; each in-flight slot owns at most one
/// completion and one readiness entry, so neither structure grows past
/// a bound fixed by the ROB size.
#[derive(Debug)]
struct Calendar {
    busy: RingBits,
    bucket: Vec<u64>,
    origin: u64,
    /// `(cycle, slot or NIL)` events beyond the wheel.
    overflow: BinaryHeap<Reverse<(u64, u64)>>,
}

impl Calendar {
    fn new(rob_capacity: usize) -> Self {
        Self {
            busy: RingBits::new(WHEEL_CYCLES),
            bucket: vec![NIL; WHEEL_CYCLES as usize],
            origin: 0,
            overflow: BinaryHeap::with_capacity(2 * rob_capacity),
        }
    }

    /// Records an event on cycle `t` (not before `origin`); with
    /// `seq != NIL`, slot `seq` becomes ready on that cycle.
    fn push(&mut self, rob: &mut [Slot], t: u64, seq: u64) {
        debug_assert!(t >= self.origin, "calendar event in the past");
        if t - self.origin >= WHEEL_CYCLES {
            self.overflow.push(Reverse((t, seq)));
            return;
        }
        let pos = t % WHEEL_CYCLES;
        self.busy.insert(pos);
        if seq != NIL {
            rob[ring_index(rob, seq)].cal_next = self.bucket[pos as usize];
            self.bucket[pos as usize] = seq;
        }
    }

    /// Retires every event up to and including cycle `now`, handing
    /// each slot that became ready to `ready`, and slides the window to
    /// start at `now + 1`.
    fn advance(&mut self, rob: &mut [Slot], now: u64, mut ready: impl FnMut(u64, bool)) {
        let span = (now + 1).saturating_sub(self.origin).min(WHEEL_CYCLES);
        let mut c = self.origin;
        let end = self.origin + span;
        while c < end {
            let pos = c % WHEEL_CYCLES;
            let off = pos % 64;
            let take = (64 - off).min(end - c);
            let mask = (u64::MAX >> (64 - take)) << off;
            let mut bits = self.busy.take((pos / 64) as usize, mask);
            while bits != 0 {
                let b = (pos - off) as usize + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let mut seq = std::mem::replace(&mut self.bucket[b], NIL);
                while seq != NIL {
                    let slot = &rob[ring_index(rob, seq)];
                    ready(seq, slot.is_mem);
                    seq = slot.cal_next;
                }
            }
            c += take;
        }
        self.origin = self.origin.max(now + 1);
        while let Some(&Reverse((t, seq))) = self.overflow.peek() {
            if t >= self.origin + WHEEL_CYCLES {
                break;
            }
            self.overflow.pop();
            if t >= self.origin {
                self.push(rob, t, seq);
            } else if seq != NIL {
                ready(seq, rob[ring_index(rob, seq)].is_mem);
            }
        }
    }

    /// The earliest event after the last [`Calendar::advance`].
    fn next_event(&self) -> Option<u64> {
        match self.busy.first_from(self.origin % WHEEL_CYCLES) {
            Some(d) => Some(self.origin + d),
            None => self.overflow.peek().map(|&Reverse((t, _))| t),
        }
    }
}

/// The out-of-order core: a [`Hierarchy`] plus the execution engine.
///
/// # Examples
///
/// ```
/// use padlock_cpu::{Core, InsecureBackend, PipelineConfig, StrideWorkload};
///
/// let mut core = Core::new(PipelineConfig::paper_default(),
///                          InsecureBackend::new(100, 8));
/// let stats = core.run(&mut StrideWorkload::new(4096, 64, 0.1), 5_000);
/// assert!(stats.ipc() > 0.5);
/// ```
#[derive(Debug)]
pub struct Core<B> {
    config: PipelineConfig,
    hierarchy: Hierarchy<B>,
    bpred: BimodalPredictor,
    now: u64,
}

impl<B: MemoryBackend> Core<B> {
    /// Creates a core with the paper's cache hierarchy over `backend`.
    pub fn new(config: PipelineConfig, backend: B) -> Self {
        Self::with_hierarchy(
            config,
            Hierarchy::new(crate::hierarchy::HierarchyConfig::paper_default(), backend),
        )
    }

    /// Creates a core over an explicit hierarchy (custom cache geometry).
    pub fn with_hierarchy(config: PipelineConfig, hierarchy: Hierarchy<B>) -> Self {
        let bpred = BimodalPredictor::new(config.bpred_entries);
        Self {
            config,
            hierarchy,
            bpred,
            now: 0,
        }
    }

    /// The cache hierarchy (stats access).
    pub fn hierarchy(&self) -> &Hierarchy<B> {
        &self.hierarchy
    }

    /// Mutable hierarchy access (backend control).
    pub fn hierarchy_mut(&mut self) -> &mut Hierarchy<B> {
        &mut self.hierarchy
    }

    /// Current simulated cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Resets hierarchy/backend statistics; used between the warm-up and
    /// measured windows (the paper fast-forwards 10B instructions before
    /// measuring).
    pub fn reset_stats(&mut self) {
        self.hierarchy.reset_stats();
    }

    /// Runs until `n_ops` ops have committed; returns window statistics.
    ///
    /// Successive calls continue from the current microarchitectural
    /// state (warm caches, trained predictor), so the idiomatic pattern
    /// is one warm-up call followed by `reset_stats` and a measured call.
    ///
    /// Equivalent to [`Core::begin_run`] / [`Core::step_run`] /
    /// [`Core::finish_run`] driven to completion — the multi-core
    /// server interleaves several cores' sessions through that split
    /// surface, so a single-core run and a one-core server run execute
    /// the identical sequence of hierarchy calls by construction.
    pub fn run<W: Workload + ?Sized>(&mut self, workload: &mut W, n_ops: u64) -> RunStats {
        let mut session = self.begin_run(n_ops);
        while self.step_run(&mut session, workload) {}
        self.finish_run(session)
    }

    /// Opens a run session targeting `n_ops` committed ops.
    ///
    /// The session owns all per-window execution state (ROB ring,
    /// ready rings, calendar, front-end latches), sized here from the
    /// ROB size; the core keeps only its persistent microarchitecture
    /// (caches, predictor, clock). Drive it with [`Core::step_run`] and
    /// close it with [`Core::finish_run`].
    pub fn begin_run(&mut self, n_ops: u64) -> RunSession {
        let capacity = self.config.rob_size.next_power_of_two().max(64);
        RunSession {
            stats: RunStats::default(),
            start_cycle: self.now,
            n_ops,
            rob: vec![Slot::VACANT; capacity],
            base: 0,
            dispatched: 0,
            committed: 0,
            pending_loads: BTreeMap::new(),
            resolved_buf: Vec::new(),
            ready_mem: RingBits::new(capacity as u64),
            ready_alu: RingBits::new(capacity as u64),
            calendar: Calendar::new(capacity),
            fetch_ready_at: 0,
            redirect_pending: false,
            fetch_resume_at: 0,
            pending_op: None,
            last_fetch_line: u64::MAX,
            l1i_line: self.hierarchy.config().l1i.line_bytes() as u64,
        }
    }

    /// Executes one scheduling step of the session: one pass of the
    /// collect/commit/issue/fetch loop ending in a clock advance (or an
    /// MSHR drain re-run). Returns `false` once the session's commit
    /// target is reached — call [`Core::finish_run`] then.
    pub fn step_run<W: Workload + ?Sized>(&mut self, s: &mut RunSession, workload: &mut W) -> bool {
        if s.committed >= s.n_ops {
            return false;
        }
        let now = self.now;
        let mut progress = false;

        // ---- Collect resolved fills ----
        // A hierarchy drain (MSHR-file exhaustion inside an access,
        // the forced stall-on-use drain below, or an eagerly
        // scheduled completion) resolves pending loads to their real
        // completion cycles.
        self.hierarchy.take_resolutions(&mut s.resolved_buf);
        for i in 0..s.resolved_buf.len() {
            let (token, done) = s.resolved_buf[i];
            let Some(seq) = s.pending_loads.remove(&token) else {
                continue; // fire-and-forget store fill
            };
            if seq >= s.base {
                s.complete(seq, done, now);
            }
        }
        s.resolved_buf.clear();

        // ---- Stall on use ----
        // The oldest op is a load still waiting on an in-flight
        // miss: commit is blocked on it, so the MSHR file drains
        // now — issuing every accumulated miss as one batch (each
        // charged from its own arrival) — and this cycle re-runs
        // with the resolved completion cycles.
        let head_parked = s.base < s.dispatched && {
            let head = s.slot(s.base);
            head.issued && head.complete_at == PENDING
        };
        if head_parked && self.hierarchy.pending_misses() > 0 {
            self.hierarchy.drain_pending();
            return true;
        }

        // ---- Commit ----
        let mut commits = 0;
        while commits < self.config.commit_width && s.base < s.dispatched {
            let head = s.slot(s.base);
            if !(head.issued && head.complete_at <= now) {
                break;
            }
            debug_assert!(
                head.first_consumer == NIL,
                "committed slot with unnotified consumers"
            );
            s.base += 1;
            s.committed += 1;
            commits += 1;
            progress = true;
            if s.committed >= s.n_ops {
                return false;
            }
        }

        // ---- Issue (oldest first, from the ready rings) ----
        // Promote slots whose readiness cycle has arrived.
        let (ready_mem, ready_alu) = (&mut s.ready_mem, &mut s.ready_alu);
        let mask = s.rob.len() as u64 - 1;
        s.calendar.advance(&mut s.rob, now, |seq, is_mem| {
            if is_mem {
                ready_mem.insert(seq & mask);
            } else {
                ready_alu.insert(seq & mask);
            }
        });
        // Merge-walk the two ready rings in program order: the
        // issue-width cap ends the walk, the memory-port cap skips
        // memory ops while younger non-memory ops still issue —
        // exactly the seed scan's behaviour.
        let base_pos = s.base & mask;
        let mut issues = 0;
        let mut mem_issues = 0;
        while issues < self.config.issue_width {
            let mem_head = if mem_issues < self.config.mem_ports {
                s.ready_mem.first_from(base_pos)
            } else {
                None
            };
            let alu_head = s.ready_alu.first_from(base_pos);
            let (dist, is_mem) = match (mem_head, alu_head) {
                (Some(m), Some(a)) => (m.min(a), m < a),
                (Some(m), None) => (m, true),
                (None, Some(a)) => (a, false),
                (None, None) => break,
            };
            let seq = s.base + dist;
            if is_mem {
                s.ready_mem.remove(seq & mask);
            } else {
                s.ready_alu.remove(seq & mask);
            }
            let complete_at = match s.slot(seq).kind {
                SlotKind::Fixed(lat) => now + lat,
                SlotKind::Load(addr) => match self.hierarchy.data_access_nb(now, addr, false) {
                    Access::Ready(done) => done,
                    Access::Pending(token) => {
                        // The miss sits in the MSHR file; the slot
                        // completes when a drain or a scheduled
                        // completion resolves it.
                        s.pending_loads.insert(token, seq);
                        PENDING
                    }
                },
                SlotKind::Store(addr) => {
                    // The store retires via the store buffer; the line
                    // fill proceeds in the background (a pending fill
                    // stays in the MSHR file until a later drain).
                    let _ = self.hierarchy.data_access_nb(now, addr, true);
                    now + 1
                }
                SlotKind::BranchRedirect => {
                    let done = now + 1;
                    s.redirect_pending = false;
                    s.fetch_resume_at = done + self.config.mispredict_penalty;
                    done
                }
            };
            let slot = s.slot_mut(seq);
            slot.issued = true;
            slot.complete_at = complete_at;
            issues += 1;
            if is_mem {
                mem_issues += 1;
            }
            if complete_at != PENDING {
                s.complete(seq, complete_at, now);
            }
            progress = true;
        }

        // ---- Fetch / dispatch ----
        let rob_size = self.config.rob_size as u64;
        let mut fetched = 0;
        while fetched < self.config.fetch_width
            && s.dispatched - s.base < rob_size
            && !s.redirect_pending
            && now >= s.fetch_resume_at
            && now >= s.fetch_ready_at
            && s.dispatched < s.n_ops + rob_size
        {
            let op = match s.pending_op.take() {
                Some(op) => op,
                None => workload.next_op(),
            };
            // I-cache: a new line triggers a fetch access.
            let line = op.pc / s.l1i_line;
            if line != s.last_fetch_line {
                let avail = self.hierarchy.inst_fetch(now, op.pc);
                s.last_fetch_line = line;
                if avail > now + self.hierarchy.config().l1_latency {
                    // I-miss: hold the op until the line arrives.
                    s.fetch_ready_at = avail;
                    s.pending_op = Some(op);
                    break;
                }
            }

            let seq = s.dispatched;
            let kind = match op.class {
                OpClass::Load(a) => SlotKind::Load(a),
                OpClass::Store(a) => SlotKind::Store(a),
                OpClass::Branch { taken } => {
                    s.stats.branches += 1;
                    let predicted = self.bpred.predict(op.pc);
                    self.bpred.update(op.pc, taken);
                    if predicted != taken {
                        s.stats.mispredicts += 1;
                        SlotKind::BranchRedirect
                    } else {
                        SlotKind::Fixed(1)
                    }
                }
                other => SlotKind::Fixed(other.fixed_latency().expect("non-mem fixed")),
            };
            match op.class {
                OpClass::Load(_) => s.stats.loads += 1,
                OpClass::Store(_) => s.stats.stores += 1,
                _ => {}
            }
            let is_redirect = matches!(kind, SlotKind::BranchRedirect);
            if is_redirect {
                s.redirect_pending = true;
                // Fetch stops after this branch until it resolves.
            }
            // Dependence registration: known-complete producers fold
            // into ready_at; unknown ones get this slot linked into
            // their consumer list through the dependence's port.
            let mut slot = Slot {
                kind,
                is_mem: matches!(kind, SlotKind::Load(_) | SlotKind::Store(_)),
                ..Slot::VACANT
            };
            for (port, dist) in [op.dep1, op.dep2].into_iter().enumerate() {
                if dist == 0 || u64::from(dist) > seq || seq - u64::from(dist) < s.base {
                    continue; // no producer, or it already committed
                }
                let p = s.slot_mut(seq - u64::from(dist));
                if p.issued && p.complete_at != PENDING {
                    slot.ready_at = slot.ready_at.max(p.complete_at);
                } else {
                    slot.next[port] = p.first_consumer;
                    p.first_consumer = seq << 1 | port as u64;
                    slot.unresolved += 1;
                }
            }
            *s.slot_mut(seq) = slot;
            if slot.unresolved == 0 {
                s.file_ready(seq, slot.ready_at, slot.is_mem, now);
            }
            s.dispatched += 1;
            fetched += 1;
            progress = true;
            if is_redirect {
                break;
            }
        }

        // ---- Advance time ----
        if progress {
            self.now += 1;
        } else {
            // Nothing happened: jump to the earliest future event.
            // Parked loads have no completion cycle yet; they are
            // excluded here and force a drain when nothing else can
            // run.
            let mut next = s.calendar.next_event().unwrap_or(u64::MAX);
            if s.fetch_ready_at > now {
                next = next.min(s.fetch_ready_at);
            }
            if s.fetch_resume_at > now && !s.redirect_pending {
                next = next.min(s.fetch_resume_at);
            }
            if let Some(c) = self.hierarchy.next_completion() {
                // Scheduled-but-uncollected miss completions (eager
                // issue) are events too.
                if c > now {
                    next = next.min(c);
                }
            }
            if next == u64::MAX && self.hierarchy.pending_misses() > 0 {
                // Stall on use: every runnable op waits on an
                // in-flight miss, so the MSHR file drains. Each
                // miss is charged from its own arrival cycle, so
                // batching them here costs no simulated time.
                self.hierarchy.drain_pending();
                return true;
            }
            debug_assert!(
                next != u64::MAX,
                "stalled with no future event: rob={:?}",
                (s.base..s.dispatched)
                    .map(|q| *s.slot(q))
                    .collect::<Vec<_>>()
            );
            if next == u64::MAX {
                s.stats.forced_steps += 1;
                self.now = now + 1;
            } else {
                self.now = next;
            }
        }
        true
    }

    /// Closes a run session: issues fills still sitting in the MSHR
    /// file (fire-and-forget store misses, loads past the commit
    /// target) so their memory traffic lands in this window's counters,
    /// and returns the window statistics.
    pub fn finish_run(&mut self, mut s: RunSession) -> RunStats {
        self.hierarchy.drain_pending();
        self.hierarchy.take_resolutions(&mut s.resolved_buf);
        s.resolved_buf.clear();
        s.stats.instructions = s.committed;
        s.stats.cycles = self.now - s.start_cycle;
        s.stats
    }
}

/// The per-window execution state of one [`Core::run`] window, split
/// out so a caller can interleave several cores' windows (the
/// multi-core secure server steps N sessions against one shared
/// backend). Create with [`Core::begin_run`], drive with
/// [`Core::step_run`], close with [`Core::finish_run`].
#[derive(Debug)]
pub struct RunSession {
    stats: RunStats,
    start_cycle: u64,
    n_ops: u64,
    // The reorder buffer: a power-of-two ring of slots indexed by
    // `seq & (rob.len() - 1)`, live for sequence numbers
    // `base..dispatched`.
    rob: Vec<Slot>,
    base: u64, // sequence number of the oldest in-flight op
    dispatched: u64,
    committed: u64,
    // Loads waiting on in-flight L2 misses: MSHR token -> absolute
    // ROB sequence number of the load's slot.
    // BTreeMap (padlock-lint D1): token -> ROB slot bookkeeping must
    // stay deterministic if it is ever iterated or debugged.
    pending_loads: BTreeMap<AccessToken, u64>,
    resolved_buf: Vec<(AccessToken, u64)>,
    // Ready tracking: slots whose producers have all completed by
    // `now`, split by port class, one bit per ROB ring position (so
    // ring order from `base` is program order).
    ready_mem: RingBits,
    ready_alu: RingBits,
    // Future completion cycles (the no-progress time jump) and future
    // readiness cycles (slots unblocked before their last producer's
    // result arrives).
    calendar: Calendar,
    // Front-end state.
    fetch_ready_at: u64,    // I-miss stall
    redirect_pending: bool, // mispredict: blocked until resolve
    fetch_resume_at: u64,
    pending_op: Option<crate::op::MicroOp>,
    last_fetch_line: u64,
    l1i_line: u64,
}

impl RunSession {
    /// Ops committed so far in this window.
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// The window's commit target.
    pub fn target_ops(&self) -> u64 {
        self.n_ops
    }

    fn slot(&self, seq: u64) -> &Slot {
        &self.rob[ring_index(&self.rob, seq)]
    }

    fn slot_mut(&mut self, seq: u64) -> &mut Slot {
        let i = ring_index(&self.rob, seq);
        &mut self.rob[i]
    }

    /// Files the unblocked slot `seq` into its ready ring, or into the
    /// calendar if its last producer's result arrives after `now`.
    fn file_ready(&mut self, seq: u64, ready_at: u64, is_mem: bool, now: u64) {
        if ready_at > now {
            self.calendar.push(&mut self.rob, ready_at, seq);
        } else {
            let pos = ring_index(&self.rob, seq) as u64;
            if is_mem {
                self.ready_mem.insert(pos);
            } else {
                self.ready_alu.insert(pos);
            }
        }
    }

    /// Records that slot `seq` completes on cycle `done`: marks the
    /// cycle in the calendar if it lies ahead, then walks the slot's
    /// consumer list, decrementing each consumer's outstanding
    /// dependences and filing the newly unblocked ones.
    fn complete(&mut self, seq: u64, done: u64, now: u64) {
        let slot = self.slot_mut(seq);
        slot.complete_at = done;
        let mut link = std::mem::replace(&mut slot.first_consumer, NIL);
        if done > now {
            self.calendar.push(&mut self.rob, done, NIL);
        }
        while link != NIL {
            // Consumers are strictly younger than their producer and
            // cannot commit before it, so they are still in the ROB.
            let consumer = link >> 1;
            let c = self.slot_mut(consumer);
            link = c.next[(link & 1) as usize];
            c.ready_at = c.ready_at.max(done);
            c.unresolved -= 1;
            if c.unresolved == 0 {
                let (ready_at, is_mem) = (c.ready_at, c.is_mem);
                self.file_ready(consumer, ready_at, is_mem, now);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::InsecureBackend;
    use crate::op::{MicroOp, StrideWorkload};

    /// A scripted workload for microbenchmark-style pipeline tests.
    struct Script {
        ops: Vec<MicroOp>,
        idx: usize,
    }

    impl Script {
        fn repeat(op: MicroOp) -> Self {
            Self {
                ops: vec![op],
                idx: 0,
            }
        }

        fn cycle(ops: Vec<MicroOp>) -> Self {
            Self { ops, idx: 0 }
        }
    }

    impl Workload for Script {
        fn next_op(&mut self) -> MicroOp {
            let op = self.ops[self.idx % self.ops.len()];
            self.idx += 1;
            op
        }
        fn name(&self) -> &str {
            "script"
        }
    }

    fn core() -> Core<InsecureBackend> {
        Core::new(PipelineConfig::paper_default(), InsecureBackend::new(100, 0))
    }

    #[test]
    fn independent_alu_ops_reach_full_width() {
        let mut c = core();
        let stats = c.run(
            &mut Script::repeat(MicroOp::new(0x1000, OpClass::IntAlu)),
            40_000,
        );
        // 4-wide with 16-entry ROB: IPC close to 4.
        assert!(stats.ipc() > 3.0, "ipc {}", stats.ipc());
        assert_eq!(stats.forced_steps, 0);
    }

    #[test]
    fn serial_dependence_chain_limits_ipc_to_one() {
        let mut c = core();
        let op = MicroOp::new(0x1000, OpClass::IntAlu).with_deps(1, 0);
        let stats = c.run(&mut Script::repeat(op), 20_000);
        assert!(stats.ipc() <= 1.05, "ipc {}", stats.ipc());
        assert!(stats.ipc() > 0.9, "ipc {}", stats.ipc());
        assert_eq!(stats.forced_steps, 0);
    }

    #[test]
    fn imul_chain_runs_at_one_third_ipc() {
        let mut c = core();
        let op = MicroOp::new(0x1000, OpClass::IntMul).with_deps(1, 0);
        let stats = c.run(&mut Script::repeat(op), 9_000);
        let cpi = stats.cpi();
        assert!((2.8..3.3).contains(&cpi), "cpi {cpi}");
        assert_eq!(stats.forced_steps, 0);
    }

    #[test]
    fn l1_resident_loads_are_fast() {
        let mut c = core();
        // 16 addresses in one 4KB page: fits L1D easily.
        let ops: Vec<MicroOp> = (0..16)
            .map(|i| MicroOp::new(0x1000, OpClass::Load(0x8000 + i * 32)))
            .collect();
        let mut w = Script::cycle(ops);
        c.run(&mut w, 1_000); // warm
        let stats = c.run(&mut w, 10_000);
        assert!(stats.ipc() > 1.8, "ipc {}", stats.ipc());
    }

    #[test]
    fn memory_bound_pointer_chase_exposes_dram_latency() {
        let mut c = core();
        // Serial dependent loads over a huge working set: every load is
        // an L2 miss costing ~107 cycles, fully serialised.
        let mut w = StrideWorkload::new(64 << 20, 128, 1.0);
        // Make it serial: StrideWorkload already sets dep1 = 1.
        c.run(&mut w, 2_000);
        c.reset_stats();
        let stats = c.run(&mut w, 4_000);
        let cpi = stats.cpi();
        assert!(cpi > 80.0, "cpi {cpi} should be memory dominated");
        assert_eq!(stats.forced_steps, 0);
    }

    #[test]
    fn rob_caps_memory_level_parallelism() {
        // Independent loads: with ROB 16 some misses overlap, so CPI is
        // well under the serial 107 but far above 1.
        let mut c = core();
        struct WideLoads {
            i: u64,
        }
        impl Workload for WideLoads {
            fn next_op(&mut self) -> MicroOp {
                self.i += 1;
                MicroOp::new(0x1000, OpClass::Load(self.i * 128 % (256 << 20)))
            }
            fn name(&self) -> &str {
                "wide"
            }
        }
        let stats = c.run(&mut WideLoads { i: 0 }, 4_000);
        let cpi = stats.cpi();
        // Theoretical MLP limit: ~107-cycle misses / 16-entry ROB ≈ 6.7.
        assert!(cpi < 20.0, "cpi {cpi}: ROB-wide MLP expected");
        assert!(cpi > 4.0, "cpi {cpi}: misses must still dominate");
        assert_eq!(stats.forced_steps, 0);
    }

    #[test]
    fn mispredicted_branches_cost_redirect_cycles() {
        let mut well_predicted = core();
        let mut poorly_predicted = core();
        // Alternating taken/not-taken at one PC defeats bimodal.
        struct Alt {
            i: u64,
            every: u64,
        }
        impl Workload for Alt {
            fn next_op(&mut self) -> MicroOp {
                self.i += 1;
                if self.i.is_multiple_of(4) {
                    MicroOp::new(0x2000, OpClass::Branch {
                        taken: (self.i / 4).is_multiple_of(self.every),
                    })
                } else {
                    MicroOp::new(0x1000 + (self.i % 4) * 4, OpClass::IntAlu)
                }
            }
            fn name(&self) -> &str {
                "alt"
            }
        }
        let good = well_predicted.run(&mut Alt { i: 0, every: u64::MAX }, 20_000);
        let bad = poorly_predicted.run(&mut Alt { i: 0, every: 2 }, 20_000);
        assert!(bad.mispredicts > good.mispredicts + 1000);
        assert!(bad.cycles > good.cycles, "mispredicts must cost cycles");
        assert_eq!(bad.forced_steps, 0);
    }

    #[test]
    fn stats_count_op_classes() {
        let mut c = core();
        let stats = c.run(&mut StrideWorkload::new(4096, 64, 0.25), 10_000);
        assert_eq!(stats.instructions, 10_000);
        assert!(stats.loads > 0);
        assert!(stats.stores > 0);
        assert!(stats.branches > 0);
        assert_eq!(stats.forced_steps, 0);
    }

    #[test]
    fn run_resumes_from_previous_state() {
        let mut c = core();
        let mut w = StrideWorkload::new(4096, 64, 0.25);
        c.run(&mut w, 1_000);
        let t0 = c.now();
        c.run(&mut w, 1_000);
        assert!(c.now() > t0);
    }

    #[test]
    fn mixed_latency_producers_file_consumers_through_ready_calendar() {
        // A multiply (latency 3) feeding an ALU op (latency 1) exercises
        // the future-readiness path: the consumer's ready cycle is known
        // at the producer's issue but lies ahead of `now`, so it must
        // wait in the ready calendar without being lost or issued early.
        let mut c = core();
        let ops = vec![
            MicroOp::new(0x1000, OpClass::IntMul).with_deps(3, 0),
            MicroOp::new(0x1004, OpClass::IntAlu).with_deps(1, 0),
            MicroOp::new(0x1008, OpClass::IntAlu).with_deps(1, 0),
        ];
        let stats = c.run(&mut Script::cycle(ops), 9_000);
        // The serial multiply chain gates each 3-op group at 3 cycles.
        let cpi = stats.cpi();
        assert!((0.95..1.15).contains(&cpi), "cpi {cpi}");
        assert_eq!(stats.forced_steps, 0);
    }

    #[test]
    fn both_ports_naming_one_producer_count_as_one_dependence() {
        // `dep1 == dep2` links the consumer into its producer's list
        // twice, once per port. It must become ready exactly when the
        // producer completes — neither early (after the first link)
        // nor never (a link lost) — so its timing equals a single
        // dependence. Producers are fixed-latency ops and loads that
        // miss to memory, whose completion arrives at an MSHR drain.
        struct Missing {
            i: u64,
            d: u16,
        }
        impl Workload for Missing {
            fn next_op(&mut self) -> MicroOp {
                self.i += 1;
                match self.i % 3 {
                    0 => MicroOp::new(0x1000, OpClass::Load(self.i * 4096 % (64 << 20)))
                        .with_deps(1, 0),
                    1 => MicroOp::new(0x1004, OpClass::IntMul).with_deps(1, self.d),
                    _ => MicroOp::new(0x1008, OpClass::IntAlu).with_deps(1, self.d),
                }
            }
            fn name(&self) -> &str {
                "missing"
            }
        }
        for class in [OpClass::IntAlu, OpClass::IntMul] {
            let single = core().run(
                &mut Script::repeat(MicroOp::new(0x1000, class).with_deps(1, 0)),
                9_000,
            );
            let double = core().run(
                &mut Script::repeat(MicroOp::new(0x1000, class).with_deps(1, 1)),
                9_000,
            );
            assert_eq!(single, double, "{class:?} chain");
        }
        let single = core().run(&mut Missing { i: 0, d: 0 }, 6_000);
        let double = core().run(&mut Missing { i: 0, d: 1 }, 6_000);
        assert_eq!(single, double, "load-fed chain");
        // One serial miss per three ops.
        assert!(single.cpi() > 20.0, "cpi {}: loads must miss", single.cpi());
        assert_eq!(double.forced_steps, 0);
    }

    #[test]
    fn ipc_and_cpi_are_reciprocal() {
        let stats = RunStats {
            instructions: 100,
            cycles: 200,
            ..Default::default()
        };
        assert_eq!(stats.ipc(), 0.5);
        assert_eq!(stats.cpi(), 2.0);
    }
}
