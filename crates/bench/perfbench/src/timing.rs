//! Outside-in layer timing: wrappers around the simulator's two public
//! extension traits, and the span records they feed.
//!
//! The simulator crates may not read the wall clock (padlock-lint rule
//! D2), so host time is attributed from here: [`TimedWorkload`] times
//! every `Workload::next_op` call and [`TimedBackend`] every
//! `MemoryBackend` call, and the pipeline's own share is what is left
//! of the enclosing `Core::run` time.

use padlock_cpu::{LineKind, MemoryBackend, MicroOp, Workload};
use padlock_stats::CounterSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Runs `f`, adding its wall time to `acc`.
pub fn timed<T>(acc: &mut Duration, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *acc += start.elapsed();
    out
}

/// One (point, layer) span: the calls the layer served for that point
/// and their summed host time.
#[derive(Debug)]
pub struct Span {
    /// The simulation point or VM run the span belongs to.
    pub point: String,
    /// Layer name (`workloads`, `cpu`, `controller`, `setup.pre_age`, ...).
    pub layer: &'static str,
    /// Calls into the layer.
    pub calls: u64,
    /// Summed host time of those calls.
    pub time: Duration,
}

impl Span {
    /// A span over `calls` calls totalling `time`.
    pub fn new(point: &str, layer: &'static str, calls: u64, time: Duration) -> Self {
        Self {
            point: point.to_string(),
            layer,
            calls,
            time,
        }
    }

    /// The span as one JSON line, tagged with its repetition index.
    pub fn jsonl(&self, workload: &str, rep: usize) -> String {
        format!(
            "{{\"workload\":\"{workload}\",\"rep\":{rep},\"point\":\"{}\",\"layer\":\"{}\",\"calls\":{},\"ns\":{}}}",
            self.point,
            self.layer,
            self.calls,
            self.time.as_nanos()
        )
    }
}

/// A workload whose every `next_op` call is counted and timed.
#[derive(Debug)]
pub struct TimedWorkload<W> {
    inner: W,
    calls: u64,
    busy: Duration,
}

impl<W> TimedWorkload<W> {
    /// Wraps `inner`.
    pub fn new(inner: W) -> Self {
        Self {
            inner,
            calls: 0,
            busy: Duration::ZERO,
        }
    }

    /// `next_op` calls served.
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Host time spent inside `next_op`.
    pub fn busy(&self) -> Duration {
        self.busy
    }
}

impl<W: Workload> Workload for TimedWorkload<W> {
    fn next_op(&mut self) -> MicroOp {
        let start = Instant::now();
        let op = self.inner.next_op();
        self.busy += start.elapsed();
        self.calls += 1;
        op
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// A memory backend whose every trait call is counted and timed, and
/// forwarded unchanged.
///
/// Every method is forwarded explicitly, the defaulted ones too: the
/// trait's defaults (`is_idle` answering `true`, `eager_issue_safe`
/// answering `false`, no speculation) differ from `SecureBackend`'s own
/// answers, and falling back to them would silently change the
/// simulated machine.
#[derive(Debug)]
pub struct TimedBackend<B> {
    inner: B,
    calls: u64,
    busy: Duration,
    // The `&self` methods cannot update plain fields; these are
    // statistics only, so relaxed ordering suffices.
    shared_calls: AtomicU64,
    shared_ns: AtomicU64,
}

impl<B> TimedBackend<B> {
    /// Wraps `inner`.
    pub fn new(inner: B) -> Self {
        Self {
            inner,
            calls: 0,
            busy: Duration::ZERO,
            shared_calls: AtomicU64::new(0),
            shared_ns: AtomicU64::new(0),
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// The wrapped backend, mutably (set-up calls such as `pre_age`).
    pub fn inner_mut(&mut self) -> &mut B {
        &mut self.inner
    }

    /// Trait calls served.
    pub fn calls(&self) -> u64 {
        self.calls + self.shared_calls.load(Ordering::Relaxed)
    }

    /// Host time spent inside trait calls.
    pub fn busy(&self) -> Duration {
        self.busy + Duration::from_nanos(self.shared_ns.load(Ordering::Relaxed))
    }

    fn time_mut<T>(&mut self, f: impl FnOnce(&mut B) -> T) -> T {
        let start = Instant::now();
        let out = f(&mut self.inner);
        self.busy += start.elapsed();
        self.calls += 1;
        out
    }

    fn time_ref<T>(&self, f: impl FnOnce(&B) -> T) -> T {
        let start = Instant::now();
        let out = f(&self.inner);
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.shared_ns.fetch_add(ns, Ordering::Relaxed);
        self.shared_calls.fetch_add(1, Ordering::Relaxed);
        out
    }
}

impl<B: MemoryBackend> MemoryBackend for TimedBackend<B> {
    fn line_read(&mut self, now: u64, line_addr: u64, kind: LineKind) -> u64 {
        self.time_mut(|b| b.line_read(now, line_addr, kind))
    }

    fn line_read_batch(&mut self, now: u64, reqs: &[(u64, LineKind)]) -> Vec<u64> {
        self.time_mut(|b| b.line_read_batch(now, reqs))
    }

    fn line_read_batch_at(&mut self, reqs: &[(u64, u64, LineKind)]) -> Vec<u64> {
        self.time_mut(|b| b.line_read_batch_at(reqs))
    }

    fn line_writeback(&mut self, now: u64, line_addr: u64) {
        self.time_mut(|b| b.line_writeback(now, line_addr))
    }

    fn eager_issue_safe(&self) -> bool {
        self.time_ref(|b| b.eager_issue_safe())
    }

    fn speculative_issue_at(
        &mut self,
        arrival: u64,
        line_addr: u64,
        kind: LineKind,
    ) -> Option<u64> {
        self.time_mut(|b| b.speculative_issue_at(arrival, line_addr, kind))
    }

    fn speculative_confirm(&mut self) -> bool {
        self.time_mut(|b| b.speculative_confirm())
    }

    fn is_idle(&self, now: u64) -> bool {
        self.time_ref(|b| b.is_idle(now))
    }

    fn drain(&mut self, now: u64) {
        self.time_mut(|b| b.drain(now))
    }

    fn traffic(&self) -> CounterSet {
        self.inner.traffic()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats()
    }

    fn label(&self) -> String {
        self.inner.label()
    }
}
