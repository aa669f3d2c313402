//! The traced run assembles its own core around the timing wrappers;
//! it is only a valid split if that core simulates exactly what
//! `Machine::run` does. These tests pin it bit for bit over a grid that
//! includes the configurations whose behaviour hangs on the backend's
//! non-default trait answers: `drain_on_idle` (keys on `is_idle`),
//! eager completions (key on `eager_issue_safe`) and speculative issue
//! (`speculative_issue_at` / `speculative_confirm`).

use padlock_bench::{e2e_machine_config, E2eParams, MachineKind};
use padlock_core::{Machine, MachineConfig, SecureBackend};
use padlock_cpu::MemoryBackend;
use padlock_mem::DrainOrder;
use padlock_workloads::{benchmark_profile, SpecWorkload};
use perfbench::timing::{TimedBackend, TimedWorkload};
use perfbench::{is_otp, record, run_protocol, timed_core};

const WARMUP: u64 = 2_000;
const MEASURE: u64 = 8_000;

fn grid() -> Vec<(String, MachineConfig)> {
    let mut cells: Vec<(String, MachineConfig)> = [
        MachineKind::Baseline,
        MachineKind::Xom,
        MachineKind::Norepl64,
        MachineKind::LruFull(64),
        MachineKind::Lru64Way32,
    ]
    .into_iter()
    .map(|k| (k.key(), k.config()))
    .collect();
    let e2e = |params: E2eParams| e2e_machine_config(params);
    cells.push(("e2e".into(), e2e(E2eParams::new(8, 4, 2, 32))));
    cells.push((
        "e2e-rowfirst".into(),
        e2e(E2eParams::new(8, 4, 2, 32).with_order(DrainOrder::RowFirst)),
    ));
    cells.push((
        "idle-drain".into(),
        e2e(E2eParams::new(8, 2, 2, 32).with_drain_on_idle(true)),
    ));
    cells.push((
        "idle-drain-1ch".into(),
        e2e(E2eParams::new(4, 1, 1, 16).with_drain_on_idle(true)),
    ));
    cells.push((
        "speculative".into(),
        e2e(E2eParams::new(8, 4, 2, 32).with_speculative(true)),
    ));
    cells.push((
        "speculative-rowfirst".into(),
        e2e(E2eParams::new(8, 2, 2, 32)
            .with_order(DrainOrder::RowFirst)
            .with_speculative(true)),
    ));
    let mut eager = e2e(E2eParams::new(8, 1, 1, 1));
    eager.hierarchy.eager_completions = true;
    cells.push(("eager".into(), eager));
    cells
}

fn pre_age(w: &SpecWorkload, b: &mut SecureBackend) {
    b.pre_age(w.ancient_line_addrs(), w.active_line_addrs());
}

#[test]
fn wrapped_core_matches_machine_run_bit_for_bit() {
    for benchmark in ["mcf", "bfs", "gcc"] {
        for (name, config) in grid() {
            let make = || SpecWorkload::new(benchmark_profile(benchmark));

            let mut w = make();
            let mut machine = Machine::new(config.clone());
            if is_otp(&config) {
                pre_age(&w, machine.core_mut().hierarchy_mut().backend_mut());
            }
            let plain = machine.run(&mut w, WARMUP, MEASURE);

            let w = make();
            let mut core = timed_core(&config);
            if is_otp(&config) {
                pre_age(&w, core.hierarchy_mut().backend_mut().inner_mut());
            }
            let mut w = TimedWorkload::new(w);
            let wrapped = run_protocol(&mut core, config.label(), &mut w, WARMUP, MEASURE);

            let point = format!("{benchmark}/{name}");
            assert_eq!(
                record::measurement("t", &point, &plain),
                record::measurement("t", &point, &wrapped),
                "wrapped core diverged from Machine::run on {point}"
            );
            assert!(
                w.calls() >= WARMUP + MEASURE,
                "{point}: workload calls not counted"
            );
            assert!(
                core.hierarchy().backend().calls() > 0,
                "{point}: backend never called"
            );
        }
    }
}

#[test]
fn timed_backend_answers_as_the_inner_backend() {
    for (name, config) in grid() {
        let inner = SecureBackend::new(config.security.clone());
        let timed = TimedBackend::new(SecureBackend::new(config.security.clone()));
        assert_eq!(inner.eager_issue_safe(), timed.eager_issue_safe(), "{name}");
        assert_eq!(inner.is_idle(0), timed.is_idle(0), "{name}");
        assert_eq!(inner.label(), timed.label(), "{name}");
        assert_eq!(timed.calls(), 2, "{name}: the two queries were not counted");
    }
}
