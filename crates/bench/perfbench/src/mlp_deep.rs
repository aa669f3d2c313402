//! `mlp-deep`: recorded `bfs` and `rstride` traces replayed through the
//! deep-window `simrate` fabric (8 MSHRs, 32 in flight, 4 channels × 2
//! banks, 2048-entry ROB) with row-first drains, where the `simrate`
//! bench itself drains in FIFO order, and through a 1-channel FIFO
//! variant of it, on the default miss-completion path.
//!
//! Here the controller, engine, SNC and DRAM fabric do about a third of
//! the host work and `pre_age` of the chase region is a large share of
//! each point; trace replay is cheap, so a generator speed-up should
//! not move this workload.

use crate::timing::{timed, Span};
use crate::{mix_seed, sweep_rep, MachinePoint, Rep};
use padlock_bench::{e2e_machine_config, E2eParams};
use padlock_core::{MachineConfig, SecureBackend};
use padlock_cpu::Workload;
use padlock_exec::SweepPool;
use padlock_mem::DrainOrder;
use padlock_workloads::{benchmark_profile, SpecWorkload, TracePlayer, TraceRecorder, CHASE_BASE};
use std::time::{Duration, Instant};

/// Warm-up ops per point (the `simrate` bench window).
pub const WARMUP: u64 = 20_000;
/// Measured ops per point.
pub const MEASURE: u64 = 120_000;

/// The recorded traces.
pub const TRACES: [&str; 2] = ["bfs", "rstride"];

/// A recorded trace plus the pre-age feeds its generator declares, as
/// `padlock_bench::E2eTrace::record` builds them, from a seeded profile.
pub struct Trace {
    name: &'static str,
    player: TracePlayer,
    ancient: Vec<u64>,
    active: Vec<u64>,
}

impl Trace {
    /// Records `WARMUP + MEASURE` ops of `benchmark` with its generator
    /// seed mixed with `seed`. The chase region counts as previously
    /// written, so its reads take the sequence-fetch path.
    pub fn record(benchmark: &'static str, seed: u64) -> Self {
        let mut profile = benchmark_profile(benchmark);
        profile.seed = mix_seed(profile.seed, seed);
        let feeds = SpecWorkload::new(profile.clone());
        let mut ancient: Vec<u64> = (0..profile.chase_bytes / 128)
            .map(|i| CHASE_BASE + i * 128)
            .collect();
        ancient.extend(feeds.ancient_line_addrs());
        let active: Vec<u64> = feeds.active_line_addrs().collect();
        let mut rec = TraceRecorder::new(SpecWorkload::new(profile));
        for _ in 0..WARMUP + MEASURE {
            rec.next_op();
        }
        Self {
            name: benchmark,
            player: TracePlayer::new(benchmark.to_string(), rec.into_trace()),
            ancient,
            active,
        }
    }
}

/// The two machines: the `simrate` fabric with row-first drains (the
/// `simrate` bench drains FIFO), and a 1-channel FIFO variant of it.
pub fn machines() -> [(&'static str, MachineConfig); 2] {
    let deep = |params: E2eParams| {
        let mut cfg = e2e_machine_config(params);
        cfg.pipeline.rob_size = 2048;
        cfg
    };
    [
        (
            "4ch-rowfirst",
            deep(E2eParams::new(8, 4, 2, 32).with_order(DrainOrder::RowFirst)),
        ),
        ("1ch-fifo", deep(E2eParams::new(8, 1, 2, 32))),
    ]
}

fn pre_age(t: &Trace, backend: &mut SecureBackend) -> u64 {
    backend.pre_age(t.ancient.iter().copied(), t.active.iter().copied());
    (t.ancient.len() + t.active.len()) as u64
}

/// The trace × machine grid at one workload seed.
pub struct MlpDeep {
    seed: u64,
}

impl MlpDeep {
    /// The grid with trace generators seeded from `seed`.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// Records both traces, then replays them through both machines.
    pub fn run_rep(&self, pool: &SweepPool, traced: bool) -> Rep {
        let started = Instant::now();
        let recorded: Vec<(Trace, Duration)> = pool.sweep(&TRACES, |&name| {
            let mut took = Duration::ZERO;
            let trace = timed(&mut took, || Trace::record(name, self.seed));
            (trace, took)
        });
        let record: Duration = recorded.iter().map(|(_, took)| *took).sum();
        let traces: Vec<&Trace> = recorded.iter().map(|(t, _)| t).collect();
        let mut cells = Vec::new();
        for &trace in &traces {
            for (key, config) in machines() {
                cells.push((trace, key, config));
            }
        }
        let (mut rep, mut outs) =
            sweep_rep(pool, &cells, started, record, |(trace, key, config)| {
                let make = || trace.player.clone();
                let point = MachinePoint {
                    name: format!("{}/{}", trace.name, key),
                    config: config.clone(),
                    warmup: WARMUP,
                    measure: MEASURE,
                    make_workload: &make,
                    pre_age: &|_: &TracePlayer, backend: &mut SecureBackend| {
                        pre_age(trace, backend)
                    },
                };
                if traced {
                    point.run_traced("mlp-deep")
                } else {
                    point.run("mlp-deep")
                }
            });
        if traced {
            rep.layers
                .insert("workloads.record_s", record.as_secs_f64());
            crate::finish_traced(&mut rep, &mut outs);
            for (t, took) in &recorded {
                rep.spans.push(Span::new(
                    t.name,
                    "workloads.record",
                    WARMUP + MEASURE,
                    *took,
                ));
            }
        }
        rep
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use padlock_bench::E2eTrace;

    #[test]
    fn default_seed_records_the_published_trace() {
        for name in TRACES {
            let ours = Trace::record(name, crate::DEFAULT_SEED);
            let published = E2eTrace::record(name, WARMUP, MEASURE);
            assert_eq!(ours.ancient, published.ancient_lines(), "{name}");
            assert_eq!(ours.active, published.active_lines(), "{name}");
            let (mut a, mut b) = (ours.player.clone(), published.clone_player());
            for _ in 0..WARMUP + MEASURE {
                assert_eq!(a.next_op(), b.next_op(), "{name}");
            }
        }
    }

    #[test]
    fn other_seeds_record_other_traces() {
        let (mut a, mut b) = (
            Trace::record("bfs", 0).player,
            Trace::record("bfs", 7).player,
        );
        assert!((0..1_000).any(|_| a.next_op() != b.next_op()));
    }
}
