//! Pre-aging equals installing line by line.
//!
//! `SecureBackend::pre_age` (through `SncShards::age`) installs only the
//! lines each SNC replacement domain could still hold, and marks the
//! written-line bitmap for every line. Its contract is the per-line
//! reference: one single-line `pre_age` call per fed line, in policy
//! order (ancient then active under LRU, active then ancient under
//! no-replacement). These properties check that contract over fully
//! and set-associative organisations × LRU/no-replacement × 1/2/4
//! shards, for sorted, unsorted, duplicated and ancient/active
//! overlapping feeds, starting from an empty, a pre-aged and a
//! run-warmed SNC. They compare
//!
//! * SNC residency, sequence numbers and way order (the flush order),
//!   and recency order (the order fresh installs evict entries in);
//! * written-line membership for every fed line;
//! * every latency and every `CounterSet` over a short run afterwards.

use padlock_core::{
    SecureBackend, SecureBackendConfig, SecurityMode, SncConfig, SncOrganization, SncPolicy,
    SncShards,
};
use padlock_cpu::{LineKind, MemoryBackend};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Total SNC entries: 16 per shard at one shard, 4 at four.
const ENTRIES: usize = 16;
/// Feed lines are drawn from this many line indices, so feeds overflow
/// every domain and revisit lines.
const UNIVERSE: u64 = 96;
const BASE: u64 = 0x10_0000;

fn addr(index: u64) -> u64 {
    BASE + index * 128
}

const ORGANIZATIONS: [SncOrganization; 3] = [
    SncOrganization::FullyAssociative,
    SncOrganization::SetAssociative(2),
    SncOrganization::SetAssociative(4),
];
const POLICIES: [SncPolicy; 2] = [SncPolicy::Lru, SncPolicy::NoReplacement];
const SHARDS: [usize; 3] = [1, 2, 4];

#[derive(Debug, Clone, Copy)]
enum FeedKind {
    /// Strictly increasing, distinct lines.
    Sorted,
    /// Arbitrary order, repeats allowed.
    Unsorted,
    /// Non-decreasing, with repeats.
    Duplicated,
    /// Two sorted feeds drawn from the same lines, so they overlap.
    Overlapping,
}

const KINDS: [FeedKind; 4] = [
    FeedKind::Sorted,
    FeedKind::Unsorted,
    FeedKind::Duplicated,
    FeedKind::Overlapping,
];

#[derive(Debug, Clone, Copy)]
enum Start {
    Empty,
    PreAged,
    Warmed,
}

const STARTS: [Start; 3] = [Start::Empty, Start::PreAged, Start::Warmed];

/// The `(ancient, active)` feeds of `kind` built from two raw draws.
fn feeds(kind: FeedKind, a: &[u64], b: &[u64]) -> (Vec<u64>, Vec<u64>) {
    let sorted = |v: &[u64], dedup: bool| {
        let mut v = v.to_vec();
        v.sort_unstable();
        if dedup {
            v.dedup();
        }
        v.into_iter().map(addr).collect::<Vec<_>>()
    };
    match kind {
        FeedKind::Sorted => {
            // Disjoint halves of the universe, so the two feeds share
            // no line either.
            let low: Vec<u64> = a.iter().map(|i| i / 2).collect();
            let high: Vec<u64> = b.iter().map(|i| UNIVERSE / 2 + i / 2).collect();
            (sorted(&low, true), sorted(&high, true))
        }
        FeedKind::Unsorted => (
            a.iter().map(|&i| addr(i)).collect(),
            b.iter().map(|&i| addr(i)).collect(),
        ),
        FeedKind::Duplicated => (sorted(a, false), sorted(b, false)),
        FeedKind::Overlapping => (sorted(a, true), sorted(b, true)),
    }
}

fn snc_config(organization: SncOrganization, policy: SncPolicy) -> SncConfig {
    SncConfig {
        capacity_bytes: ENTRIES * 2,
        entry_bytes: 2,
        organization,
        policy,
        covered_line_bytes: 128,
    }
}

/// The per-line reference step for one SNC line.
fn install_one(snc: &mut SncShards, policy: SncPolicy, line: u64) {
    match policy {
        SncPolicy::Lru => {
            snc.install(line, 1);
        }
        SncPolicy::NoReplacement => {
            snc.try_install(line, 1);
        }
    }
}

/// Brings `snc` to `start`: a per-line pre-age of `prior`, or a run of
/// queries, updates and installs over `prior`.
fn warm_snc(snc: &mut SncShards, policy: SncPolicy, start: Start, prior: &[u64]) {
    match start {
        Start::Empty => {}
        Start::PreAged => {
            for &i in prior {
                install_one(snc, policy, addr(i));
            }
        }
        Start::Warmed => {
            for (n, &i) in prior.iter().enumerate() {
                let line = addr(i);
                match n % 3 {
                    0 => install_one(snc, policy, line),
                    1 => {
                        snc.query(line);
                    }
                    _ => {
                        if snc.increment(line).is_none() {
                            install_one(snc, policy, line);
                        }
                    }
                }
            }
        }
    }
}

/// Pre-aged SNC pairs: `(bulk, reference)`.
fn snc_pair(
    organization: SncOrganization,
    policy: SncPolicy,
    shards: usize,
    start: Start,
    prior: &[u64],
    ordered_feeds: [&[u64]; 2],
) -> (SncShards, SncShards) {
    let mut bulk = SncShards::new(snc_config(organization, policy), shards);
    let mut reference = SncShards::new(snc_config(organization, policy), shards);
    warm_snc(&mut bulk, policy, start, prior);
    warm_snc(&mut reference, policy, start, prior);
    for feed in ordered_feeds {
        bulk.age(feed.iter().copied());
        for &line in feed {
            install_one(&mut reference, policy, line);
        }
    }
    (bulk, reference)
}

/// Evicts every entry by installing fresh lines and returns the
/// victims in eviction order: each domain's recency order.
fn eviction_order(snc: &mut SncShards) -> Vec<(u64, u16)> {
    let fresh = 4 * ENTRIES as u64 * 4;
    (0..fresh)
        .filter_map(|i| snc.install(addr(10_000 + i), 0))
        .filter(|v| v.line_addr < addr(10_000))
        .map(|v| (v.line_addr, v.seq))
        .collect()
}

fn check_snc_pair(
    organization: SncOrganization,
    policy: SncPolicy,
    shards: usize,
    start: Start,
    prior: &[u64],
    ordered_feeds: [&[u64]; 2],
) -> Result<(), TestCaseError> {
    let what = format!("{organization:?} {policy:?} x{shards} from {start:?}");
    let (mut bulk, mut reference) =
        snc_pair(organization, policy, shards, start, prior, ordered_feeds);
    for (s, (b, r)) in bulk.shards().iter().zip(reference.shards()).enumerate() {
        prop_assert_eq!(
            b.occupancy(),
            r.occupancy(),
            "{}: shard {} occupancy",
            what,
            s
        );
    }
    for line in (0..UNIVERSE).map(addr) {
        prop_assert_eq!(
            bulk.contains(line),
            reference.contains(line),
            "{}: {:#x}",
            what,
            line
        );
    }
    let flushed = |snc: &mut SncShards| {
        snc.flush()
            .into_iter()
            .map(|e| (e.line_addr, e.seq))
            .collect::<Vec<_>>()
    };
    prop_assert_eq!(
        flushed(&mut bulk),
        flushed(&mut reference),
        "{}: flush order",
        what
    );

    let (mut bulk, mut reference) =
        snc_pair(organization, policy, shards, start, prior, ordered_feeds);
    prop_assert_eq!(
        eviction_order(&mut bulk),
        eviction_order(&mut reference),
        "{}: recency order",
        what
    );
    Ok(())
}

fn backend(organization: SncOrganization, policy: SncPolicy, shards: usize) -> SecureBackend {
    let mode = SecurityMode::Otp {
        snc: snc_config(organization, policy),
    };
    SecureBackend::new(
        SecureBackendConfig::paper(mode)
            .with_snc_shards(shards)
            .with_mem_channels(2)
            .with_mem_banks(2),
    )
}

/// Reads and writebacks over the feed universe, `t` advancing.
fn run_trace(b: &mut SecureBackend, ops: &[(u64, bool)], t: &mut u64, out: &mut Vec<u64>) {
    for &(i, write) in ops {
        *t += 300;
        if write {
            b.line_writeback(*t, addr(i));
        } else {
            out.push(b.line_read(*t, addr(i), LineKind::Data) - *t);
        }
    }
}

fn check_backend_pair(
    organization: SncOrganization,
    policy: SncPolicy,
    shards: usize,
    start: Start,
    prior: &[(u64, bool)],
    (ancient, active): (&[u64], &[u64]),
    trace: &[(u64, bool)],
) -> Result<(), TestCaseError> {
    let what = format!("{organization:?} {policy:?} x{shards} from {start:?}");
    let mut bulk = backend(organization, policy, shards);
    let mut reference = backend(organization, policy, shards);
    let (mut tb, mut tr) = (0u64, 0u64);
    let mut scratch = Vec::new();
    match start {
        Start::Empty => {}
        Start::PreAged => {
            for b in [&mut bulk, &mut reference] {
                for &(i, _) in prior {
                    b.pre_age([addr(i)], []);
                }
            }
        }
        Start::Warmed => {
            run_trace(&mut bulk, prior, &mut tb, &mut scratch);
            run_trace(&mut reference, prior, &mut tr, &mut scratch);
        }
    }

    bulk.pre_age(ancient.iter().copied(), active.iter().copied());
    let ordered: [&[u64]; 2] = match policy {
        SncPolicy::Lru => [ancient, active],
        SncPolicy::NoReplacement => [active, ancient],
    };
    for line in ordered.into_iter().flatten() {
        reference.pre_age([*line], []);
    }

    for line in ancient.iter().chain(active) {
        prop_assert!(bulk.is_written(*line), "{}: {:#x} not written", what, line);
    }
    for line in (0..UNIVERSE).map(addr) {
        prop_assert_eq!(
            bulk.is_written(line),
            reference.is_written(line),
            "{}: {:#x}",
            what,
            line
        );
    }
    let (snc_b, snc_r) = (bulk.snc().expect("OTP"), reference.snc().expect("OTP"));
    for (s, (b, r)) in snc_b.shards().iter().zip(snc_r.shards()).enumerate() {
        prop_assert_eq!(
            b.occupancy(),
            r.occupancy(),
            "{}: shard {} occupancy",
            what,
            s
        );
    }
    for line in (0..UNIVERSE).map(addr) {
        prop_assert_eq!(
            snc_b.contains(line),
            snc_r.contains(line),
            "{}: SNC {:#x}",
            what,
            line
        );
    }

    let (mut lat_b, mut lat_r) = (Vec::new(), Vec::new());
    run_trace(&mut bulk, trace, &mut tb, &mut lat_b);
    run_trace(&mut reference, trace, &mut tr, &mut lat_r);
    prop_assert_eq!(lat_b, lat_r, "{}: read latencies", what);
    // A context-switch flush spills every entry in flush order; the
    // spill addresses land on the banked fabric.
    prop_assert_eq!(
        bulk.context_switch_flush(tb + 1_000),
        reference.context_switch_flush(tr + 1_000),
        "{}: flushed entries",
        what
    );
    bulk.drain(tb + 100_000);
    reference.drain(tr + 100_000);
    prop_assert_eq!(
        bulk.controller_stats(),
        reference.controller_stats(),
        "{}",
        what
    );
    prop_assert_eq!(bulk.traffic(), reference.traffic(), "{}", what);
    prop_assert_eq!(snc_stats(&bulk), snc_stats(&reference), "{}", what);
    prop_assert_eq!(
        bulk.channels().totals(),
        reference.channels().totals(),
        "{}: fabric totals",
        what
    );
    Ok(())
}

fn snc_stats(b: &SecureBackend) -> padlock_stats::CounterSet {
    b.snc().expect("OTP").stats()
}

fn raw_feed() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..UNIVERSE, 0..120)
}

fn raw_trace() -> impl Strategy<Value = Vec<(u64, bool)>> {
    proptest::collection::vec((0u64..UNIVERSE, any::<bool>()), 1..60)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `SncShards::age` leaves residency, sequence numbers, way order
    /// and recency order exactly as per-line installs do.
    #[test]
    fn snc_age_equals_per_line_installs(
        a in raw_feed(),
        b in raw_feed(),
        prior in raw_feed(),
    ) {
        for kind in KINDS {
            let (first, second) = feeds(kind, &a, &b);
            for organization in ORGANIZATIONS {
                for policy in POLICIES {
                    for shards in SHARDS {
                        for start in STARTS {
                            check_snc_pair(
                                organization, policy, shards, start, &prior,
                                [&first, &second],
                            )?;
                        }
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// One bulk `pre_age` equals one single-line `pre_age` per fed line
    /// in policy order: written lines, SNC contents, and every latency
    /// and counter of a run afterwards.
    #[test]
    fn pre_age_equals_single_line_calls(
        a in raw_feed(),
        b in raw_feed(),
        prior in raw_trace(),
        trace in raw_trace(),
    ) {
        for kind in KINDS {
            let (ancient, active) = feeds(kind, &a, &b);
            for organization in ORGANIZATIONS {
                for policy in POLICIES {
                    for shards in SHARDS {
                        for start in STARTS {
                            check_backend_pair(
                                organization, policy, shards, start, &prior,
                                (&ancient, &active), &trace,
                            )?;
                        }
                    }
                }
            }
        }
    }
}

/// Long sorted feeds through the paper-sized SNC: the bulk fill of an
/// empty fully associative shard and the set rotation at 32 ways.
#[test]
fn paper_sized_snc_ages_like_per_line_installs() {
    for organization in [
        SncOrganization::FullyAssociative,
        SncOrganization::SetAssociative(32),
    ] {
        for policy in POLICIES {
            let cfg = SncConfig::paper_default()
                .with_organization(organization)
                .with_policy(policy);
            let mut bulk = SncShards::new(cfg, 2);
            let mut reference = SncShards::new(cfg, 2);
            let ancient: Vec<u64> = (0..100_000u64).map(|i| 0x7000_0000 + i * 128).collect();
            let active: Vec<u64> = (0..5_000u64).map(|i| 0x4000_0000 + i * 3 * 128).collect();
            let ordered = match policy {
                SncPolicy::Lru => [&ancient, &active],
                SncPolicy::NoReplacement => [&active, &ancient],
            };
            for feed in ordered {
                bulk.age(feed.iter().copied());
                for &line in feed {
                    install_one(&mut reference, policy, line);
                }
            }
            assert_eq!(bulk.occupancy(), reference.occupancy());
            let (bulk, reference) = (bulk.flush(), reference.flush());
            let first_difference = bulk.iter().zip(&reference).position(|(b, r)| b != r);
            assert_eq!(first_difference, None, "{organization:?} {policy:?}");
            assert_eq!(bulk.len(), reference.len());
        }
    }
}
