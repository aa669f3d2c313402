//! `server-mix`: a 4-compartment `SecureServer` running the suite
//! round-robin, pre-aged on offset stripes, over {1, 4} channels ×
//! {no switch, 20 000-cycle quantum}.
//!
//! One shared controller serves many requestors, and context-switch SNC
//! flushes add write bursts: this exercises lockstep scheduling,
//! backend hand-off between cores and per-compartment attribution, so a
//! change tuned for the single-core `mlp-deep` that costs the
//! multi-core case shows up here. The server builds its backend
//! internally, so from outside host time splits only into workloads,
//! set-up and the server run.

use crate::timing::{timed, Span, TimedWorkload};
use crate::{add, add_counters, mix_seed, record, sweep_rep, OpOutcome, Rep};
use padlock_bench::server_machine_config;
use padlock_core::server::compartment_base;
use padlock_core::{SecureServer, ServerConfig, ServerMeasurement};
use padlock_cpu::OffsetWorkload;
use padlock_exec::SweepPool;
use padlock_stats::CounterSet;
use padlock_workloads::{compartment_assignment, SpecProfile, SpecWorkload};
use std::time::{Duration, Instant};

/// Compartments (cores) sharing the fabric.
pub const CORES: usize = 4;
/// Warm-up ops per compartment.
pub const WARMUP: u64 = 10_000;
/// Measured ops per compartment.
pub const MEASURE: u64 = 60_000;
/// The (channels, switch quantum) cells; quantum 0 never switches.
pub const CELLS: [(usize, u64); 4] = [(1, 0), (1, 20_000), (4, 0), (4, 20_000)];

/// The server grid at one workload seed.
pub struct ServerMix {
    profiles: Vec<SpecProfile>,
}

type Load = OffsetWorkload<SpecWorkload>;

impl ServerMix {
    /// The round-robin compartment assignment, each generator seed
    /// mixed with `seed`.
    pub fn new(seed: u64) -> Self {
        let profiles = compartment_assignment(CORES, None)
            .iter()
            .map(|w| {
                let mut p = w.profile().clone();
                p.seed = mix_seed(p.seed, seed);
                p
            })
            .collect();
        Self { profiles }
    }

    fn config(channels: usize, switch: u64) -> ServerConfig {
        let config = ServerConfig::from_machine(server_machine_config(channels), CORES);
        if switch > 0 {
            config.with_switch_interval(switch)
        } else {
            config
        }
    }

    fn pre_age(&self, server: &mut SecureServer) -> (Vec<Load>, u64) {
        let mut lines = 0;
        let mut loads = Vec::with_capacity(CORES);
        for (c, profile) in self.profiles.iter().enumerate() {
            let feed = SpecWorkload::new(profile.clone());
            let base = compartment_base(c);
            let (mut ancient, mut active) = (0, 0);
            server.pre_age(
                feed.ancient_line_addrs()
                    .map(|a| a + base)
                    .inspect(|_| ancient += 1),
                feed.active_line_addrs()
                    .map(|a| a + base)
                    .inspect(|_| active += 1),
            );
            lines += ancient + active;
            loads.push(OffsetWorkload::new(feed, base));
        }
        (loads, lines)
    }

    /// Runs every cell once.
    pub fn run_rep(&self, pool: &SweepPool, traced: bool) -> Rep {
        let started = Instant::now();
        let (mut rep, mut outs) = sweep_rep(
            pool,
            &CELLS,
            started,
            Duration::ZERO,
            |&(channels, switch)| {
                let name = format!("{CORES}core/{channels}ch/sw{switch}");
                if traced {
                    self.run_traced(&name, channels, switch)
                } else {
                    let mut setup = Duration::ZERO;
                    let (mut server, mut loads) = timed(&mut setup, || {
                        let mut server = SecureServer::new(Self::config(channels, switch));
                        let (loads, _) = self.pre_age(&mut server);
                        (server, loads)
                    });
                    let mut run = Duration::ZERO;
                    let m = timed(&mut run, || server.run(&mut loads, WARMUP, MEASURE));
                    OpOutcome {
                        result: record::server("server-mix", &name, &m),
                        setup,
                        run,
                        sim_ops: CORES as u64 * (WARMUP + MEASURE),
                        ..OpOutcome::default()
                    }
                }
            },
        );
        if traced {
            crate::finish_traced(&mut rep, &mut outs);
        }
        rep
    }

    fn run_traced(&self, name: &str, channels: usize, switch: u64) -> OpOutcome {
        let mut t_machine = Duration::ZERO;
        let mut server = timed(&mut t_machine, || {
            SecureServer::new(Self::config(channels, switch))
        });
        let mut t_pre_age = Duration::ZERO;
        let (loads, lines) = timed(&mut t_pre_age, || self.pre_age(&mut server));
        let mut loads: Vec<TimedWorkload<Load>> =
            loads.into_iter().map(TimedWorkload::new).collect();
        let mut t_run = Duration::ZERO;
        let m = timed(&mut t_run, || server.run(&mut loads, WARMUP, MEASURE));
        let wl_calls: u64 = loads.iter().map(TimedWorkload::calls).sum();
        let wl_busy: Duration = loads.iter().map(TimedWorkload::busy).sum();
        let server_self = t_run.saturating_sub(wl_busy);
        let ops = CORES as u64 * (WARMUP + MEASURE);

        let mut out = OpOutcome {
            result: record::server("server-mix", name, &m),
            setup: t_machine + t_pre_age,
            run: t_run,
            sim_ops: ops,
            ..OpOutcome::default()
        };
        let l = &mut out.layers;
        add(l, "setup.machine_s", t_machine.as_secs_f64());
        add(l, "setup.pre_age_s", t_pre_age.as_secs_f64());
        add(l, "setup.pre_age_lines", lines as f64);
        add(l, "workloads.busy_s", wl_busy.as_secs_f64());
        add(l, "workloads.calls", wl_calls as f64);
        add(l, "server.run_s", server_self.as_secs_f64());
        add(l, "server.ops", ops as f64);
        add(l, "server.context_switches", m.context_switches as f64);
        let cross: u64 = m
            .compartments
            .iter()
            .map(|c| c.snc_evictions_by_others)
            .sum();
        add(l, "server.cross_evictions", cross as f64);
        let (l2, mshr) = compartment_counters(&m);
        add_counters(l, &l2, &mshr, &m.traffic, &m.snc);
        out.spans = vec![
            Span::new(name, "setup.machine", 1, t_machine),
            Span::new(name, "setup.pre_age", lines, t_pre_age),
            Span::new(name, "workloads", wl_calls, wl_busy),
            Span::new(name, "server", ops, server_self),
        ];
        out
    }
}

/// The compartments' private L2 and MSHR counters, summed.
fn compartment_counters(m: &ServerMeasurement) -> (CounterSet, CounterSet) {
    let mut l2 = CounterSet::new("l2");
    let mut mshr = CounterSet::new("mshr");
    for c in &m.compartments {
        l2.merge(&c.l2);
        mshr.merge(&c.mshr);
    }
    (l2, mshr)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_seed_keeps_the_round_robin_assignment() {
        let mix = ServerMix::new(crate::DEFAULT_SEED);
        let published = compartment_assignment(CORES, None);
        assert_eq!(mix.profiles.len(), CORES);
        for (ours, theirs) in mix.profiles.iter().zip(&published) {
            assert_eq!(ours.name, theirs.profile().name);
            assert_eq!(ours.seed, theirs.profile().seed);
        }
        let other = ServerMix::new(11);
        assert!(other
            .profiles
            .iter()
            .zip(&published)
            .all(|(o, t)| o.seed != t.profile().seed));
    }
}
