//! The repository benchmark: four representative workloads over the
//! simulator and the functional secure-memory stack, measured from
//! outside.
//!
//! Each workload builds its inputs from a workload seed and runs one
//! *repetition* at a time: a fixed set of operations (simulation points
//! or protected VM runs) fanned over a [`SweepPool`]. A repetition
//! reports its host times, the canonical record of every simulated
//! result ([`record`]) and, when traced, a per-layer split built from
//! the [`timing`] wrappers. `src/main.rs` repeats repetitions for the
//! requested time and prints medians; `README.md` documents the
//! workloads and metrics.

pub mod figures;
pub mod mlp_deep;
pub mod record;
pub mod secure_vm;
pub mod server_mix;
pub mod stats;
pub mod timing;

use padlock_core::{Machine, MachineConfig, Measurement, SecureBackend, SecurityMode};
use padlock_cpu::{Core, Hierarchy, MemoryBackend, Workload};
use padlock_exec::SweepPool;
use padlock_stats::CounterSet;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use timing::{timed, Span, TimedBackend, TimedWorkload};

/// The workload seed that reproduces the published generator seeds
/// (every `SpecProfile.seed` unchanged).
pub const DEFAULT_SEED: u64 = 0;

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mixes the workload seed into a generator's own seed. The default
/// seed leaves `base` unchanged, so it reproduces the published runs.
pub fn mix_seed(base: u64, seed: u64) -> u64 {
    if seed == DEFAULT_SEED {
        base
    } else {
        splitmix64(base ^ splitmix64(seed))
    }
}

/// Per-layer sums of one repetition, keyed by metric name. Raw sums
/// (call and line counts) sit beside the published metrics until
/// [`finish_layers`] derives the ratios.
pub type Layers = BTreeMap<&'static str, f64>;

/// Adds `v` to the layer sum `key`.
pub fn add(layers: &mut Layers, key: &'static str, v: f64) {
    *layers.entry(key).or_insert(0.0) += v;
}

/// The per-layer metrics a traced run prints, with their units. A
/// layer a workload does not run reads 0.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("workloads.busy_s", "s"),
    ("workloads.ns_per_op", "ns"),
    ("workloads.record_s", "s"),
    ("cpu.self_s", "s"),
    ("cpu.ns_per_op", "ns"),
    ("cpu.l2_misses", "count"),
    ("cpu.mshr_allocations", "count"),
    ("cpu.mshr_merges", "count"),
    ("cpu.mshr_drains", "count"),
    ("controller.busy_s", "s"),
    ("controller.calls", "count"),
    ("controller.ns_per_call", "ns"),
    ("controller.snc_hit_ratio", "ratio"),
    ("controller.seq_reads", "count"),
    ("mem.row_hit_ratio", "ratio"),
    ("mem.line_txns", "count"),
    ("setup.machine_s", "s"),
    ("setup.pre_age_s", "s"),
    ("setup.pre_age_lines", "count"),
    ("setup.pre_age_ns_per_line", "ns"),
    ("server.run_s", "s"),
    ("server.ns_per_op", "ns"),
    ("server.context_switches", "count"),
    ("server.cross_evictions", "count"),
    ("exec.busy_s", "s"),
    ("exec.makespan_s", "s"),
    ("exec.efficiency", "ratio"),
    ("vendor.keygen_s", "s"),
    ("vendor.package_s", "s"),
    ("vendor.load_s", "s"),
    ("vm.run_s", "s"),
    ("vm.ns_per_step", "ns"),
    ("secure_mem.read_line_us", "us"),
    ("secure_mem.write_line_us", "us"),
    ("trace.overhead_pct", "%"),
];

fn ratio(layers: &Layers, num: &str, den: &str, scale: f64) -> f64 {
    let d = layers.get(den).copied().unwrap_or(0.0);
    if d == 0.0 {
        0.0
    } else {
        layers.get(num).copied().unwrap_or(0.0) * scale / d
    }
}

/// Derives the per-call and ratio metrics from a repetition's summed
/// layers.
pub fn finish_layers(layers: &mut Layers) {
    let derived = [
        (
            "workloads.ns_per_op",
            ratio(layers, "workloads.busy_s", "workloads.calls", 1e9),
        ),
        ("cpu.ns_per_op", ratio(layers, "cpu.self_s", "cpu.ops", 1e9)),
        (
            "controller.ns_per_call",
            ratio(layers, "controller.busy_s", "controller.calls", 1e9),
        ),
        (
            "controller.snc_hit_ratio",
            ratio(layers, "snc.query_hits", "snc.queries", 1.0),
        ),
        (
            "mem.row_hit_ratio",
            ratio(layers, "mem.row_hits", "mem.row_txns", 1.0),
        ),
        (
            "setup.pre_age_ns_per_line",
            ratio(layers, "setup.pre_age_s", "setup.pre_age_lines", 1e9),
        ),
        (
            "server.ns_per_op",
            ratio(layers, "server.run_s", "server.ops", 1e9),
        ),
        ("vm.ns_per_step", ratio(layers, "vm.run_s", "vm.steps", 1e9)),
        (
            "secure_mem.read_line_us",
            ratio(layers, "secure_mem.read_s", "secure_mem.reads", 1e6),
        ),
        (
            "secure_mem.write_line_us",
            ratio(layers, "secure_mem.write_s", "secure_mem.writes", 1e6),
        ),
    ];
    for (k, v) in derived {
        layers.insert(k, v);
    }
}

/// What one operation (a simulation point or a VM run) produced.
#[derive(Debug, Default)]
pub struct OpOutcome {
    /// The canonical record of its simulated results.
    pub result: String,
    /// Host time spent setting it up.
    pub setup: Duration,
    /// Host time spent in its run calls.
    pub run: Duration,
    /// Simulated micro-ops (or VM steps) it executed.
    pub sim_ops: u64,
    /// Measured-window cycles (simulation points).
    pub cycles: u64,
    /// Whether the operation's own output check failed (a VM fault or
    /// an output that differs from the program's model).
    pub failed: bool,
    /// Per-layer sums (traced runs only).
    pub layers: Layers,
    /// Per-layer spans (traced runs only).
    pub spans: Vec<Span>,
}

/// What one repetition of a workload measured.
#[derive(Debug, Default)]
pub struct Rep {
    /// Canonical result records, one per operation, in operation order.
    pub results: Vec<String>,
    /// Whether each operation's own output check failed.
    pub op_failed: Vec<bool>,
    /// Host time of the whole repetition, set-up included.
    pub wall: Duration,
    /// Host time spent in set-up, summed over operations and threads.
    pub setup: Duration,
    /// Host time spent in run calls, summed over operations and threads.
    pub run: Duration,
    /// Simulated micro-ops (or VM steps) executed.
    pub sim_ops: u64,
    /// Host time of each operation (set-up plus run).
    pub op_times: Vec<Duration>,
    /// Per-layer metrics (traced runs only), finished.
    pub layers: Layers,
    /// Per-layer spans (traced runs only).
    pub spans: Vec<Span>,
    /// The figures' error against the paper's series (`figures` only).
    pub paper_mae_pct: Option<f64>,
}

/// Runs `op` over every point on `pool`, timing each operation and the
/// sweep as a whole; `setup` is set-up time the workload already spent
/// before the sweep (it counts toward the repetition's wall time).
pub fn sweep_rep<P: Sync>(
    pool: &SweepPool,
    points: &[P],
    started: Instant,
    setup: Duration,
    op: impl Fn(&P) -> OpOutcome + Sync,
) -> (Rep, Vec<OpOutcome>) {
    let sweep_start = Instant::now();
    let outcomes = pool.sweep(points, |p| {
        let start = Instant::now();
        let out = op(p);
        (out, start.elapsed())
    });
    let makespan = sweep_start.elapsed();
    let mut rep = Rep {
        setup,
        ..Rep::default()
    };
    let workers = pool.jobs().min(points.len()).max(1);
    let mut outs = Vec::with_capacity(outcomes.len());
    for (mut out, took) in outcomes {
        rep.results.push(std::mem::take(&mut out.result));
        rep.op_failed.push(out.failed);
        rep.setup += out.setup;
        rep.run += out.run;
        rep.sim_ops += out.sim_ops;
        rep.op_times.push(took);
        for (k, v) in &out.layers {
            add(&mut rep.layers, k, *v);
        }
        outs.push(out);
    }
    // The exec layer: summed operation time against the sweep's span.
    let busy: Duration = rep.op_times.iter().sum();
    let l = &mut rep.layers;
    l.insert("exec.busy_s", busy.as_secs_f64());
    l.insert("exec.makespan_s", makespan.as_secs_f64());
    l.insert(
        "exec.efficiency",
        busy.as_secs_f64() / (workers as f64 * makespan.as_secs_f64()),
    );
    rep.wall = started.elapsed();
    (rep, outs)
}

/// Finishes a traced repetition: derives the ratio metrics from the
/// summed layers and moves the operations' spans into it.
pub fn finish_traced(rep: &mut Rep, outs: &mut [OpOutcome]) {
    finish_layers(&mut rep.layers);
    for out in outs {
        rep.spans.append(&mut out.spans);
    }
}

/// Whether `config` is a one-time-pad machine (the only mode whose
/// state `pre_age` changes).
pub fn is_otp(config: &MachineConfig) -> bool {
    matches!(config.security.mode, SecurityMode::Otp { .. })
}

/// One single-core simulation point: a machine configuration, the
/// window it measures, and how to pre-age its backend.
pub struct MachinePoint<'a, W> {
    /// Point name in records and spans.
    pub name: String,
    /// The machine.
    pub config: MachineConfig,
    /// Warm-up ops before statistics reset.
    pub warmup: u64,
    /// Measured ops.
    pub measure: u64,
    /// Builds the point's workload.
    pub make_workload: &'a (dyn Fn() -> W + Sync),
    /// Pre-ages an OTP backend from the workload's feeds; returns the
    /// number of lines installed.
    pub pre_age: &'a (dyn Fn(&W, &mut SecureBackend) -> u64 + Sync),
}

impl<W: Workload> MachinePoint<'_, W> {
    /// Runs the point through [`Machine`], the public machine, timing
    /// set-up and the run call as a whole.
    pub fn run(&self, workload: &str) -> OpOutcome {
        let mut setup = Duration::ZERO;
        let (mut w, mut machine) = timed(&mut setup, || {
            let w = (self.make_workload)();
            let mut machine = Machine::new(self.config.clone());
            if is_otp(&self.config) {
                (self.pre_age)(&w, machine.core_mut().hierarchy_mut().backend_mut());
            }
            (w, machine)
        });
        let mut run = Duration::ZERO;
        let m = timed(&mut run, || machine.run(&mut w, self.warmup, self.measure));
        OpOutcome {
            result: record::measurement(workload, &self.name, &m),
            setup,
            run,
            sim_ops: self.warmup + self.measure,
            cycles: m.stats.cycles,
            ..OpOutcome::default()
        }
    }

    /// Runs the point on a core assembled around a [`TimedBackend`]
    /// and a [`TimedWorkload`], splitting host time by layer.
    pub fn run_traced(&self, workload: &str) -> OpOutcome {
        let mut out = OpOutcome {
            sim_ops: self.warmup + self.measure,
            ..OpOutcome::default()
        };
        let mut t_workload = Duration::ZERO;
        let w = timed(&mut t_workload, || (self.make_workload)());
        let mut t_machine = Duration::ZERO;
        let mut core = timed(&mut t_machine, || timed_core(&self.config));
        let mut t_pre_age = Duration::ZERO;
        let mut lines = 0;
        if is_otp(&self.config) {
            let backend = core.hierarchy_mut().backend_mut().inner_mut();
            lines = timed(&mut t_pre_age, || (self.pre_age)(&w, backend));
        }
        let mut w = TimedWorkload::new(w);
        let mut t_run = Duration::ZERO;
        let m = timed(&mut t_run, || {
            run_protocol(
                &mut core,
                self.config.label(),
                &mut w,
                self.warmup,
                self.measure,
            )
        });
        let backend = core.hierarchy().backend();
        let cpu_self = t_run
            .saturating_sub(w.busy())
            .saturating_sub(backend.busy());

        out.setup = t_workload + t_machine + t_pre_age;
        out.run = t_run;
        out.cycles = m.stats.cycles;
        out.result = record::measurement(workload, &self.name, &m);
        let l = &mut out.layers;
        add(l, "setup.workload_s", t_workload.as_secs_f64());
        add(l, "setup.machine_s", t_machine.as_secs_f64());
        add(l, "setup.pre_age_s", t_pre_age.as_secs_f64());
        add(l, "setup.pre_age_lines", lines as f64);
        add(l, "workloads.busy_s", w.busy().as_secs_f64());
        add(l, "workloads.calls", w.calls() as f64);
        add(l, "controller.busy_s", backend.busy().as_secs_f64());
        add(l, "controller.calls", backend.calls() as f64);
        add(l, "cpu.self_s", cpu_self.as_secs_f64());
        add(l, "cpu.ops", (self.warmup + self.measure) as f64);
        add_counters(l, &m.l2, &m.mshr, &m.traffic, &m.snc);
        let p = &self.name;
        out.spans = vec![
            Span::new(p, "setup.workload", 1, t_workload),
            Span::new(p, "setup.machine", 1, t_machine),
            Span::new(p, "setup.pre_age", lines, t_pre_age),
            Span::new(p, "workloads", w.calls(), w.busy()),
            Span::new(p, "controller", backend.calls(), backend.busy()),
            Span::new(p, "cpu", self.warmup + self.measure, cpu_self),
        ];
        out
    }
}

/// Adds the measured-window counters the per-layer metrics read.
pub fn add_counters(
    l: &mut Layers,
    l2: &CounterSet,
    mshr: &CounterSet,
    traffic: &CounterSet,
    snc: &CounterSet,
) {
    add(l, "cpu.l2_misses", l2.get("misses") as f64);
    add(l, "cpu.mshr_allocations", mshr.get("allocations") as f64);
    add(l, "cpu.mshr_merges", mshr.get("merges") as f64);
    let drains = mshr.get("full_drains") + mshr.get("forced_drains") + mshr.get("idle_drains");
    add(l, "cpu.mshr_drains", drains as f64);
    add(l, "controller.seq_reads", traffic.get("seq_reads") as f64);
    add(
        l,
        "mem.line_txns",
        (traffic.get("line_reads") + traffic.get("line_writes")) as f64,
    );
    add(l, "mem.row_hits", traffic.get("row_hits") as f64);
    add(
        l,
        "mem.row_txns",
        (traffic.get("row_hits") + traffic.get("row_conflicts")) as f64,
    );
    add(l, "snc.query_hits", snc.get("query_hits") as f64);
    add(
        l,
        "snc.queries",
        (snc.get("query_hits") + snc.get("query_misses")) as f64,
    );
}

/// Assembles the machine `config` describes, as `Machine::new` does,
/// around a timing wrapper of its secure backend.
pub fn timed_core(config: &MachineConfig) -> Core<TimedBackend<SecureBackend>> {
    let backend = TimedBackend::new(SecureBackend::new(config.security.clone()));
    Core::with_hierarchy(
        config.pipeline.clone(),
        Hierarchy::new(config.hierarchy.clone(), backend),
    )
}

/// `Machine::run`'s protocol on an assembled core: warm up, reset
/// statistics, measure, then drain the backend so traffic counters are
/// exact.
pub fn run_protocol<W: Workload + ?Sized>(
    core: &mut Core<TimedBackend<SecureBackend>>,
    label: String,
    workload: &mut W,
    warmup: u64,
    measure: u64,
) -> Measurement {
    if warmup > 0 {
        core.run(workload, warmup);
    }
    core.reset_stats();
    let stats = core.run(workload, measure);
    let now = core.now();
    core.hierarchy_mut().backend_mut().drain(now);
    let h = core.hierarchy();
    let backend = h.backend().inner();
    Measurement {
        stats,
        l2: h.l2_stats(),
        traffic: h.backend().traffic(),
        controller: backend.controller_stats(),
        mshr: h.mshr_stats().clone(),
        snc: backend
            .snc()
            .map(|s| s.stats())
            .unwrap_or_else(|| CounterSet::new("snc")),
        label,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_seed_is_the_identity_mix() {
        assert_eq!(mix_seed(0xABCD, DEFAULT_SEED), 0xABCD);
        assert_ne!(mix_seed(0xABCD, 1), 0xABCD);
        assert_ne!(mix_seed(0xABCD, 1), mix_seed(0xABCD, 2));
    }

    #[test]
    fn derived_layers_divide_their_sums() {
        let mut l = Layers::new();
        add(&mut l, "workloads.busy_s", 2.0);
        add(&mut l, "workloads.calls", 4.0e9);
        finish_layers(&mut l);
        assert_eq!(l["workloads.ns_per_op"], 0.5);
        assert_eq!(l["vm.ns_per_step"], 0.0, "an unrun layer reads 0");
    }
}
