//! The flat resolver cache against its per-entry reference.
//!
//! `ResolverCache` keeps every record in one store and maps each key to a
//! slot in it; `reference::ResolverCache` is the cache it replaced, each
//! entry owning its own `RecordSet`. Random operation sequences run on
//! both, and after every step the two must have returned the same records
//! and rcode and must agree on `(hits, misses, expired)` and on their
//! entry count. The sequences mix:
//!
//! - sections with repeated owners and types and differing TTLs, so groups
//!   take their minimum TTL and replacements grow, shrink and keep size;
//! - fabric-shaped sections: one to three runs of distinct keys, as in a
//!   referral's NS run followed by one glue run per host. `insert` stores
//!   such a run as it stands and gathers a key split across a section;
//!   the test checks that its cases reach both branches;
//! - negative entries, replacing and replaced by positive ones;
//! - reads before, exactly at and after expiry (TTLs and clock steps come
//!   from small sets, and the steps reach the negative TTL exactly);
//! - `evict_expired` and `purge`.

mod reference;

use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU32, Ordering};

use proptest::prelude::*;
use remnant_dns::{
    DomainName, Rcode, RecordData, RecordSet, RecordType, ResolverCache, ResourceRecord, Ttl,
};
use remnant_sim::{SimDuration, SimTime};

const OWNERS: [&str; 4] = ["a.com", "www.a.com", "ns1.host.net", "ns2.host.net"];
const TYPES: [RecordType; 3] = [RecordType::A, RecordType::Ns, RecordType::Cname];
/// Record TTLs, in seconds.
const TTLS: [u32; 8] = [0, 1, 2, 5, 10, 100, 900, 3600];
/// Clock steps, in seconds: mostly small, so most reads land before,
/// at or just after a record TTL, and sometimes long enough to reach
/// the 900-second negative TTL exactly.
const STEPS: [u64; 9] = [0, 0, 0, 1, 2, 5, 10, 890, 900];
const RCODES: [Rcode; 2] = [Rcode::NxDomain, Rcode::NoError];
/// Cases the property runs.
const CASES: u32 = 512;

/// Inserted sections, over all cases, that `insert` stores run by run
/// (every key in one run) and that it gathers (a key split across runs).
static RUN_SECTIONS: AtomicU32 = AtomicU32::new(0);
static SPLIT_SECTIONS: AtomicU32 = AtomicU32::new(0);
/// Cases finished so far.
static CASES_DONE: AtomicU32 = AtomicU32::new(0);

fn owner(i: usize) -> DomainName {
    OWNERS[i].parse().expect("test owner")
}

/// One cache operation; every operation first moves the clock `step`
/// seconds forward.
#[derive(Clone, Debug)]
enum Op {
    Insert(Vec<ResourceRecord>),
    InsertNegative(usize, RecordType, Rcode),
    Get(usize, RecordType),
    Lookup(usize, RecordType),
    HasNegative(usize, RecordType),
    EvictExpired,
    Purge,
}

/// A record of `rtype` owned by `OWNERS[name]` whose data is drawn from
/// `value`.
fn rr(name: usize, rtype: RecordType, value: usize, ttl: usize) -> ResourceRecord {
    let data = match rtype {
        RecordType::A => RecordData::A(Ipv4Addr::new(10, 0, 0, value as u8)),
        RecordType::Ns => RecordData::Ns(owner(value)),
        _ => RecordData::Cname(owner(value)),
    };
    ResourceRecord::new(owner(name), Ttl::secs(TTLS[ttl]), data)
}

fn record() -> impl Strategy<Value = ResourceRecord> {
    (key(), 0..OWNERS.len(), 0..TTLS.len())
        .prop_map(|((name, rtype), value, ttl)| rr(name, rtype, value, ttl))
}

/// Two to four records of one key: a group larger than one record.
fn group() -> impl Strategy<Value = Vec<ResourceRecord>> {
    let records = prop::collection::vec((0..OWNERS.len(), 0..TTLS.len()), 2..5);
    (key(), records).prop_map(|((name, rtype), records)| {
        records
            .into_iter()
            .map(|(value, ttl)| rr(name, rtype, value, ttl))
            .collect()
    })
}

/// One to three runs of distinct keys, each one or two records long.
fn fabric_section() -> impl Strategy<Value = Vec<ResourceRecord>> {
    let keys = OWNERS.len() * TYPES.len();
    let run = prop::collection::vec((0..OWNERS.len(), 0..TTLS.len()), 1..3);
    (0..keys, prop::collection::vec(run, 1..4)).prop_map(move |(first, runs)| {
        runs.into_iter()
            .enumerate()
            .flat_map(|(i, run)| {
                let key = (first + i) % keys;
                let (name, rtype) = (key / TYPES.len(), TYPES[key % TYPES.len()]);
                run.into_iter()
                    .map(move |(value, ttl)| rr(name, rtype, value, ttl))
            })
            .collect()
    })
}

/// True if some key's records sit in more than one run of `records`.
fn has_split_key(records: &[ResourceRecord]) -> bool {
    let key = |rr: &ResourceRecord| (rr.name.clone(), rr.record_type());
    let mut run_keys: Vec<_> = records
        .iter()
        .enumerate()
        .filter(|&(i, rr)| i == 0 || key(&records[i - 1]) != key(rr))
        .map(|(_, rr)| key(rr))
        .collect();
    let runs = run_keys.len();
    run_keys.sort();
    run_keys.dedup();
    run_keys.len() < runs
}

fn key() -> impl Strategy<Value = (usize, RecordType)> {
    (0..OWNERS.len(), 0..TYPES.len()).prop_map(|(name, rtype)| (name, TYPES[rtype]))
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        prop::collection::vec(record(), 0..6).prop_map(Op::Insert),
        group().prop_map(Op::Insert),
        fabric_section().prop_map(Op::Insert),
        (key(), 0..RCODES.len()).prop_map(|((name, rtype), rcode)| Op::InsertNegative(
            name,
            rtype,
            RCODES[rcode]
        )),
        key().prop_map(|(name, rtype)| Op::Get(name, rtype)),
        key().prop_map(|(name, rtype)| Op::Lookup(name, rtype)),
        key().prop_map(|(name, rtype)| Op::Lookup(name, rtype)),
        key().prop_map(|(name, rtype)| Op::HasNegative(name, rtype)),
        Just(Op::EvictExpired),
        Just(Op::Purge),
    ]
}

/// What an operation returned, for comparing the two caches.
#[derive(Debug, PartialEq)]
enum Answer {
    Records(Option<RecordSet>),
    Entry(Option<(RecordSet, Rcode)>),
    Negative(bool),
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn flat_cache_matches_the_reference(
        ops in prop::collection::vec((0..STEPS.len(), op()), 1..60),
    ) {
        let mut flat = ResolverCache::new();
        let mut oracle = reference::ResolverCache::new();
        let mut now = SimTime::EPOCH;
        for (i, (step, op)) in ops.iter().enumerate() {
            now += SimDuration::secs(STEPS[*step]);
            let (got, want) = match op {
                Op::Insert(records) => {
                    if !records.is_empty() {
                        let shape = if has_split_key(records) {
                            &SPLIT_SECTIONS
                        } else {
                            &RUN_SECTIONS
                        };
                        shape.fetch_add(1, Ordering::Relaxed);
                    }
                    flat.insert(now, records.clone());
                    oracle.insert(now, records.clone());
                    (None, None)
                }
                &Op::InsertNegative(name, rtype, rcode) => {
                    flat.insert_negative(now, owner(name), rtype, rcode);
                    oracle.insert_negative(now, owner(name), rtype, rcode);
                    (None, None)
                }
                &Op::Get(name, rtype) => (
                    Some(Answer::Records(flat.get(now, &owner(name), rtype))),
                    Some(Answer::Records(oracle.get(now, &owner(name), rtype))),
                ),
                &Op::Lookup(name, rtype) => (
                    Some(Answer::Entry(flat.lookup(now, &owner(name), rtype))),
                    Some(Answer::Entry(oracle.lookup(now, &owner(name), rtype))),
                ),
                &Op::HasNegative(name, rtype) => (
                    Some(Answer::Negative(flat.has_negative(now, &owner(name), rtype))),
                    Some(Answer::Negative(oracle.has_negative(now, &owner(name), rtype))),
                ),
                Op::EvictExpired => {
                    flat.evict_expired(now);
                    oracle.evict_expired(now);
                    (None, None)
                }
                Op::Purge => {
                    flat.purge();
                    oracle.purge();
                    (None, None)
                }
            };
            prop_assert_eq!(got, want, "step {} ({:?}) at {:?}", i, op, now);
            prop_assert_eq!(
                (flat.stats(), flat.expired_count(), flat.len()),
                (oracle.stats(), oracle.expired_count(), oracle.len()),
                "counters after step {} ({:?})", i, op
            );
        }
        if CASES_DONE.fetch_add(1, Ordering::Relaxed) + 1 == CASES {
            let (runs, splits) = (
                RUN_SECTIONS.load(Ordering::Relaxed),
                SPLIT_SECTIONS.load(Ordering::Relaxed),
            );
            prop_assert!(
                runs > 0 && splits > 0,
                "both insert branches reached: {} run-only and {} split sections",
                runs,
                splits
            );
        }
    }
}
