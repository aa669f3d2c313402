//! Simulator-throughput benches: wall-time per simulated point on
//! memory-bound recorded traces, seed run loop vs the event-calendar
//! fast-forward core.
//!
//! Each bench simulates one end-to-end point (machine construction,
//! `pre_age`, warm-up, and a measured window — everything
//! `run_e2e_point` pays) at the paper-default 4-wide pipeline over the
//! acceptance fabric (8 MSHRs × 4 channels × 2 banks, 32 in-flight)
//! with a deep 2048-entry window, the "ROB full of parked loads" regime
//! the event calendar was built for. `seed/*` drives the line-for-line
//! port of the pre-rewrite run loop ([`padlock_bench::seed_core`]);
//! `fastforward/*` drives today's core; `speculative/*` drives it
//! again with speculative singleton-window miss issue
//! (`HierarchyConfig::speculative_completions`). All three sit on the
//! same hierarchy/backend — the `fastforward_vs_seed` and
//! `speculative_vs_parked` differentials prove them bit-exact, so the
//! gaps between the ids in `baseline.json` are purely run-loop and
//! drain-window mechanics: the O(|ROB|) issue/advance rescans and
//! batched stall-on-use drains the calendar + incremental ready sets
//! replace, and the per-window batch scheduling the speculation fast
//! path skips on singleton (pointer-chase) drain windows. The seed loop already event-skips (its `forced_steps` stays
//! 0), so the matched-backend gap is structural but bounded; the
//! end-to-end win of this PR additionally includes the fixed-slot
//! counter and drain-window work visible against the *previous*
//! `baseline.json` capture of `channel_sweep/e2e/*` and `mlp_sweep/*`.
//!
//! `setup/pre_age/*` time the machine set-up layer on its own: one
//! `pre_age` of a freshly built machine (see [`setup`]).
//!
//! `pipeline/ideal/*` time the pipeline layer on its own: the paper's
//! 4-wide core over a fixed-latency insecure backend, replaying a
//! recorded SPEC trace so neither the workload generator nor the
//! secure memory controller runs in the timed region (see
//! [`pipeline`]).

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use padlock_bench::seed_core::SeedMachine;
use padlock_bench::{e2e_machine_config, E2eParams, E2eTrace, MachineKind};
use padlock_core::{Machine, MachineConfig};
use padlock_cpu::{Core, InsecureBackend, PipelineConfig, Workload};
use padlock_workloads::{benchmark_profile, SpecWorkload, TracePlayer, TraceRecorder};

/// Warm-up ops per simulated point.
const WARMUP: u64 = 20_000;
/// Measured ops per simulated point.
const MEASURE: u64 = 120_000;

/// The benched machine: the e2e acceptance fabric (8 MSHRs, 4 channels,
/// 2 banks/channel, 32 in-flight) at the paper-default 4-wide pipeline,
/// deepened to a 2048-entry ROB so in-flight misses park a full window
/// of loads.
fn simrate_config() -> MachineConfig {
    let mut cfg = e2e_machine_config(E2eParams::new(8, 4, 2, 32));
    cfg.pipeline.rob_size = 2048;
    cfg
}

/// The same machine with speculative singleton-window miss issue: each
/// parked miss is issued eagerly as a rollback-able window, and coupled
/// windows replay as parked batches — bit-exact in cycles with
/// `fastforward/*`, so the id gap is pure drain-window mechanics. On
/// the serial pointer-chase `rstride` trace almost every drain window
/// is a singleton, the regime the speculation fast-path targets.
fn speculative_config() -> MachineConfig {
    let mut cfg = simrate_config();
    cfg.hierarchy.speculative_completions = true;
    cfg
}

/// A pre-aged seed machine, built outside the timed region.
fn seed_machine(trace: &E2eTrace) -> SeedMachine {
    let mut m = SeedMachine::new(simrate_config());
    m.core_mut().hierarchy_mut().backend_mut().pre_age(
        trace.ancient_lines().iter().copied(),
        trace.active_lines().iter().copied(),
    );
    m
}

/// A pre-aged fast-forward machine over the identical configuration.
fn fastforward_machine(trace: &E2eTrace) -> Machine {
    let mut m = Machine::new(simrate_config());
    m.core_mut().hierarchy_mut().backend_mut().pre_age(
        trace.ancient_lines().iter().copied(),
        trace.active_lines().iter().copied(),
    );
    m
}

/// A pre-aged fast-forward machine with speculative miss issue on.
fn speculative_machine(trace: &E2eTrace) -> Machine {
    let mut m = Machine::new(speculative_config());
    m.core_mut().hierarchy_mut().backend_mut().pre_age(
        trace.ancient_lines().iter().copied(),
        trace.active_lines().iter().copied(),
    );
    m
}

fn simrate(c: &mut Criterion) {
    let mut g = c.benchmark_group("simrate");
    g.sample_size(10);
    for name in ["bfs", "rstride"] {
        let trace = E2eTrace::record(name, WARMUP, MEASURE);
        // Sanity: the two cores must agree cycle-for-cycle before their
        // wall-clocks are worth comparing (the full grid lives in the
        // `fastforward_vs_seed` differential).
        {
            let mut seed = seed_machine(&trace);
            let mut ff = fastforward_machine(&trace);
            let mut spec = speculative_machine(&trace);
            let mut p1 = trace.clone_player();
            let mut p2 = trace.clone_player();
            let mut p3 = trace.clone_player();
            let seed_cycles = seed.run(&mut p1, WARMUP, MEASURE).stats.cycles;
            assert_eq!(seed_cycles, ff.run(&mut p2, WARMUP, MEASURE).stats.cycles);
            assert_eq!(seed_cycles, spec.run(&mut p3, WARMUP, MEASURE).stats.cycles);
        }
        // Construction and pre-aging happen in the setup half of each
        // batch; only the warm-up + measured simulation is timed.
        g.bench_with_input(BenchmarkId::new("seed", name), &trace, |b, t| {
            b.iter_batched(
                || (seed_machine(t), t.clone_player()),
                |(mut m, mut p)| m.run(&mut p, WARMUP, MEASURE).stats.cycles,
                BatchSize::PerIteration,
            )
        });
        g.bench_with_input(BenchmarkId::new("fastforward", name), &trace, |b, t| {
            b.iter_batched(
                || (fastforward_machine(t), t.clone_player()),
                |(mut m, mut p)| m.run(&mut p, WARMUP, MEASURE).stats.cycles,
                BatchSize::PerIteration,
            )
        });
        g.bench_with_input(BenchmarkId::new("speculative", name), &trace, |b, t| {
            b.iter_batched(
                || (speculative_machine(t), t.clone_player()),
                |(mut m, mut p)| m.run(&mut p, WARMUP, MEASURE).stats.cycles,
                BatchSize::PerIteration,
            )
        });
    }
    g.finish();
}

/// Machine set-up cost: `pre_age` alone on a machine built outside the
/// timed region (the machine's drop is inside it). `bfs` feeds the
/// recorded trace's chase region and ancient heap (1.4M lines) to the
/// simrate machine's 64-entry SNC; `mcf` feeds the figure suite's mcf
/// heap to the paper's 64KB fully associative LRU SNC (32K entries),
/// the Fig. 5 `lru64` machine.
fn setup(c: &mut Criterion) {
    let mut g = c.benchmark_group("setup");
    g.sample_size(10);
    let bfs = E2eTrace::record("bfs", WARMUP, MEASURE);
    g.bench_with_input(BenchmarkId::new("pre_age", "bfs"), &bfs, |b, t| {
        b.iter_batched(
            || Machine::new(simrate_config()),
            |mut m| {
                m.core_mut().hierarchy_mut().backend_mut().pre_age(
                    t.ancient_lines().iter().copied(),
                    t.active_lines().iter().copied(),
                );
            },
            BatchSize::PerIteration,
        )
    });
    let mcf = SpecWorkload::new(benchmark_profile("mcf"));
    g.bench_with_input(BenchmarkId::new("pre_age", "mcf"), &mcf, |b, w| {
        b.iter_batched(
            || Machine::new(MachineKind::LruFull(64).config()),
            |mut m| {
                m.core_mut()
                    .hierarchy_mut()
                    .backend_mut()
                    .pre_age(w.ancient_line_addrs(), w.active_line_addrs());
            },
            BatchSize::PerIteration,
        )
    });
    g.finish();
}

/// Pipeline layer cost: a warm-up and a measured window of the paper's
/// core over a 100-cycle insecure memory, on a recorded `gzip`
/// (cache-friendly) and `mcf` (miss-heavy) trace. The core is built
/// and the trace cloned outside the timed region.
fn pipeline(c: &mut Criterion) {
    let mut g = c.benchmark_group("pipeline");
    g.sample_size(10);
    for name in ["gzip", "mcf"] {
        let mut recorder = TraceRecorder::new(SpecWorkload::new(benchmark_profile(name)));
        // The core fetches up to a ROB's worth past each window's
        // commit target; the player wraps round if it runs past this.
        for _ in 0..WARMUP + MEASURE + 4096 {
            recorder.next_op();
        }
        let trace = TracePlayer::new(name, recorder.into_trace());
        g.bench_with_input(BenchmarkId::new("ideal", name), &trace, |b, t| {
            b.iter_batched(
                || {
                    let core = Core::new(
                        PipelineConfig::paper_default(),
                        InsecureBackend::new(100, 8),
                    );
                    (core, t.clone())
                },
                |(mut core, mut player)| {
                    core.run(&mut player, WARMUP);
                    core.run(&mut player, MEASURE).cycles
                },
                BatchSize::PerIteration,
            )
        });
    }
    g.finish();
}

criterion_group!(benches, simrate, setup, pipeline);
criterion_main!(benches);
