//! Canonical one-line JSON records of every simulated result an
//! operation produced. The expected-results files hold these lines for
//! the default seed; a run compares its lines against them byte for
//! byte, so any drift in a simulated number marks the operation failed.

use padlock_core::{Measurement, ServerMeasurement};
use padlock_cpu::RunStats;
use padlock_mem::TrafficTotals;
use padlock_stats::CounterSet;

fn counters(c: &CounterSet) -> String {
    let fields: Vec<String> = c.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    format!("{{{}}}", fields.join(","))
}

fn run_stats(s: &RunStats) -> String {
    format!(
        "\"cycles\":{},\"instructions\":{},\"loads\":{},\"stores\":{},\"branches\":{},\"mispredicts\":{},\"forced_steps\":{}",
        s.cycles, s.instructions, s.loads, s.stores, s.branches, s.mispredicts, s.forced_steps
    )
}

fn totals(t: &TrafficTotals) -> String {
    let list = |v: &[u64]| v.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
    format!(
        "{{\"counts\":[{}],\"bytes\":[{}],\"row_hits\":{},\"row_conflicts\":{}}}",
        list(&t.counts),
        list(&t.bytes),
        t.row_hits,
        t.row_conflicts
    )
}

/// A single-core machine measurement: run statistics plus every
/// counter set.
pub fn measurement(workload: &str, point: &str, m: &Measurement) -> String {
    format!(
        "{{\"workload\":\"{workload}\",\"point\":\"{point}\",\"label\":\"{}\",{},\"l2\":{},\"mshr\":{},\"traffic\":{},\"controller\":{},\"snc\":{}}}",
        m.label,
        run_stats(&m.stats),
        counters(&m.l2),
        counters(&m.mshr),
        counters(&m.traffic),
        counters(&m.controller),
        counters(&m.snc)
    )
}

/// A server measurement: the shared fabric's counter sets plus one
/// report per compartment.
pub fn server(workload: &str, point: &str, m: &ServerMeasurement) -> String {
    let comps: Vec<String> = m
        .compartments
        .iter()
        .map(|c| {
            format!(
                "{{{},\"l2\":{},\"mshr\":{},\"traffic\":{},\"snc_evictions_by_others\":{}}}",
                run_stats(&c.stats),
                counters(&c.l2),
                counters(&c.mshr),
                totals(&c.traffic),
                c.snc_evictions_by_others
            )
        })
        .collect();
    format!(
        "{{\"workload\":\"{workload}\",\"point\":\"{point}\",\"label\":\"{}\",\"context_switches\":{},\"traffic\":{},\"controller\":{},\"snc\":{},\"totals\":{},\"compartments\":[{}]}}",
        m.label,
        m.context_switches,
        counters(&m.traffic),
        counters(&m.controller),
        counters(&m.snc),
        totals(&m.totals),
        comps.join(",")
    )
}

/// A protected VM run: its step count and `out` values.
pub fn vm(workload: &str, point: &str, steps: u64, out: &[u32]) -> String {
    let out: Vec<String> = out.iter().map(u32::to_string).collect();
    format!(
        "{{\"workload\":\"{workload}\",\"point\":\"{point}\",\"steps\":{steps},\"out\":[{}]}}",
        out.join(",")
    )
}

/// An operation that failed before it produced results.
pub fn error(workload: &str, point: &str, error: &str) -> String {
    format!("{{\"workload\":\"{workload}\",\"point\":\"{point}\",\"error\":{error:?}}}")
}
