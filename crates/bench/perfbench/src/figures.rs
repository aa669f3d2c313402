//! `figures`: every (benchmark × machine) point of the paper's Figs. 3
//! and 5–10 on the paper-default blocking machines, OTP points
//! pre-aged, fanned over the sweep pool.
//!
//! This is the repository's main use. It mixes cache-resident
//! benchmarks (gzip, mesa) with memory-bound ones (mcf, art); host time
//! goes mostly to the pipeline and the synthetic generators, and the
//! secure backend is nearly idle.

use crate::{mix_seed, sweep_rep, MachinePoint, Rep};
use padlock_bench::{figure_machines, paper_series, MachineKind, ORDER};
use padlock_core::SecureBackend;
use padlock_exec::SweepPool;
use padlock_workloads::{benchmark_profile, SpecProfile, SpecWorkload};
use std::time::{Duration, Instant};

/// Warm-up ops per point.
pub const WARMUP: u64 = 20_000;
/// Measured ops per point.
pub const MEASURE: u64 = 60_000;

/// The paper's figures, in order.
const FIGURES: [u32; 7] = [3, 5, 6, 7, 8, 9, 10];

/// Slowdown series of the figures, as (paper key, machine, normalised):
/// normalised series (Fig. 8) are execution times relative to the
/// baseline and are compared as slowdown percentages. Fig. 9 reports
/// traffic, not slowdown, and is left out of the error.
const SERIES: [(&str, MachineKind, bool); 15] = [
    ("fig3.xom", MachineKind::Xom, false),
    ("fig5.xom", MachineKind::Xom, false),
    ("fig5.norepl", MachineKind::Norepl64, false),
    ("fig5.lru", MachineKind::LruFull(64), false),
    ("fig6.32k", MachineKind::LruFull(32), false),
    ("fig6.64k", MachineKind::LruFull(64), false),
    ("fig6.128k", MachineKind::LruFull(128), false),
    ("fig7.full", MachineKind::LruFull(64), false),
    ("fig7.32way", MachineKind::Lru64Way32, false),
    ("fig8.xom256", MachineKind::Xom, true),
    ("fig8.xom384", MachineKind::Xom384, true),
    ("fig8.snc", MachineKind::Lru64Way32, true),
    ("fig10.xom", MachineKind::XomSlow, false),
    ("fig10.norepl", MachineKind::Norepl64Slow, false),
    ("fig10.lru", MachineKind::Lru64Slow, false),
];

/// The distinct machines the figures measure, in first-use order.
pub fn machines() -> Vec<MachineKind> {
    let mut out: Vec<MachineKind> = Vec::new();
    for m in FIGURES.iter().flat_map(|&f| figure_machines(f)) {
        if !out.contains(&m) {
            out.push(m);
        }
    }
    out
}

struct Point {
    benchmark: &'static str,
    profile: SpecProfile,
    machine: MachineKind,
}

/// The figure suite at one workload seed.
pub struct Figures {
    points: Vec<Point>,
}

fn pre_age(w: &SpecWorkload, backend: &mut SecureBackend) -> u64 {
    let (mut ancient, mut active) = (0, 0);
    backend.pre_age(
        w.ancient_line_addrs().inspect(|_| ancient += 1),
        w.active_line_addrs().inspect(|_| active += 1),
    );
    ancient + active
}

impl Figures {
    /// Every benchmark × machine point, with each profile's generator
    /// seed mixed with `seed`.
    pub fn new(seed: u64) -> Self {
        let machines = machines();
        let mut points = Vec::new();
        for benchmark in ORDER {
            let mut profile = benchmark_profile(benchmark);
            profile.seed = mix_seed(profile.seed, seed);
            for &machine in &machines {
                points.push(Point {
                    benchmark,
                    profile: profile.clone(),
                    machine,
                });
            }
        }
        Self { points }
    }

    /// Runs every point once.
    pub fn run_rep(&self, pool: &SweepPool, traced: bool) -> Rep {
        let started = Instant::now();
        let (mut rep, mut outs) = sweep_rep(pool, &self.points, started, Duration::ZERO, |p| {
            let make = || SpecWorkload::new(p.profile.clone());
            let point = MachinePoint {
                name: format!("{}/{}", p.benchmark, p.machine.key()),
                config: p.machine.config(),
                warmup: WARMUP,
                measure: MEASURE,
                make_workload: &make,
                pre_age: &pre_age,
            };
            if traced {
                point.run_traced("figures")
            } else {
                point.run("figures")
            }
        });
        let cycles: Vec<u64> = outs.iter().map(|o| o.cycles).collect();
        rep.paper_mae_pct = Some(self.paper_mae_pct(&cycles));
        if traced {
            crate::finish_traced(&mut rep, &mut outs);
        }
        rep
    }

    /// Mean absolute error, in slowdown percentage points, of the
    /// simulated figure series against the paper's published series.
    fn paper_mae_pct(&self, cycles: &[u64]) -> f64 {
        let at = |benchmark: &str, machine: MachineKind| {
            let i = self
                .points
                .iter()
                .position(|p| p.benchmark == benchmark && p.machine == machine)
                .expect("every figure machine is simulated");
            cycles[i] as f64
        };
        let mut total = 0.0;
        let mut n = 0;
        for (key, machine, normalised) in SERIES {
            let paper = paper_series(key);
            for (b, benchmark) in ORDER.iter().enumerate() {
                let ours =
                    (at(benchmark, machine) / at(benchmark, MachineKind::Baseline) - 1.0) * 100.0;
                let theirs = if normalised {
                    (paper[b] - 1.0) * 100.0
                } else {
                    paper[b]
                };
                total += (ours - theirs).abs();
                n += 1;
            }
        }
        total / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_covers_every_figure_machine_and_benchmark() {
        let kinds = machines();
        assert_eq!(kinds.len(), 11, "distinct machines across Figs. 3 and 5-10");
        let suite = Figures::new(crate::DEFAULT_SEED);
        assert_eq!(suite.points.len(), ORDER.len() * kinds.len());
        for p in &suite.points {
            assert_eq!(
                p.profile.seed,
                benchmark_profile(p.benchmark).seed,
                "default seed keeps published seeds"
            );
        }
        let other = Figures::new(3);
        assert!(other
            .points
            .iter()
            .all(|p| p.profile.seed != benchmark_profile(p.benchmark).seed));
    }

    #[test]
    fn paper_error_is_small_for_the_paper_itself() {
        // Cycles that reproduce the paper's slowdowns exactly leave no
        // error on the slowdown series.
        let suite = Figures::new(crate::DEFAULT_SEED);
        let slowdown = |benchmark: &str, machine: MachineKind| -> Option<f64> {
            let b = ORDER.iter().position(|o| *o == benchmark)?;
            let (key, _, normalised) = SERIES.iter().find(|s| s.1 == machine)?;
            let v = paper_series(key)[b];
            Some(if *normalised { (v - 1.0) * 100.0 } else { v })
        };
        let cycles: Vec<u64> =
            suite
                .points
                .iter()
                .map(|p| match p.machine {
                    MachineKind::Baseline => 1_000_000,
                    m => (1_000_000.0 * (1.0 + slowdown(p.benchmark, m).unwrap_or(0.0) / 100.0))
                        .round() as u64,
                })
                .collect();
        // Series sharing a machine (fig5.xom / fig8.xom256, ...) disagree
        // slightly in the paper itself, so only bound the error.
        assert!(
            suite.paper_mae_pct(&cycles) < 1.0,
            "{}",
            suite.paper_mae_pct(&cycles)
        );
    }
}
