//! Querying one world from several threads at once.
//!
//! Scan and collection workers share one `World` as their DNS fabric, and
//! each query bumps the world's counters and, for a provider's
//! nameserver, the provider's. The world counts in per-thread slots and
//! each provider in shared atomics; either way, totals must be the same
//! however the queries were spread over threads.

use std::net::Ipv4Addr;
use std::sync::Barrier;
use std::thread;

use remnant_dns::transport::ROOT_SERVER;
use remnant_dns::{DnsTransport, Query, RecordType};
use remnant_net::Region;
use remnant_provider::ProviderId;
use remnant_world::{Instrumented, World, WorldConfig};

const THREADS: usize = 4;
/// An address no server in the fabric listens on.
const NOWHERE: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);

/// Queries for every site: its `www` and apex at the root, at each
/// nameserver the root refers to, and at nowhere; plus each site's `www`
/// at a provider nameserver that does not serve it.
fn queries(world: &World) -> Vec<(Ipv4Addr, Query)> {
    let stray_ns = world.provider(ProviderId::Cloudflare).ns_addresses()[0];
    let now = world.clock().now();
    let mut out = Vec::new();
    for site in world.sites() {
        for query in [
            Query::new(site.www.clone(), RecordType::A),
            Query::new(site.apex.clone(), RecordType::Ns),
        ] {
            let referral = world
                .query(now, ROOT_SERVER, Region::Ashburn, &query)
                .expect("the root answers");
            out.push((ROOT_SERVER, query.clone()));
            for server in referral.additional.iter().filter_map(|rr| rr.data.as_a()) {
                out.push((server, query.clone()));
            }
            out.push((NOWHERE, query.clone()));
        }
        out.push((stray_ns, Query::new(site.www.clone(), RecordType::A)));
    }
    out
}

/// Runs `queries` against `world`, returning how many were answered.
fn run(world: &World, queries: &[(Ipv4Addr, Query)]) -> usize {
    let now = world.clock().now();
    queries
        .iter()
        .filter(|(server, query)| world.query(now, *server, Region::Ashburn, query).is_some())
        .count()
}

/// Every count the fabric keeps, by name: its transport and per-class
/// counters, then each provider's answered and ignored queries.
fn counts(world: &World) -> Vec<(String, u64)> {
    let mut counts: Vec<(String, u64)> = world
        .counters()
        .into_iter()
        .map(|(key, value)| (format!("{key:?}"), value))
        .collect();
    for id in ProviderId::ALL {
        let (answered, ignored) = world.provider(id).query_stats();
        counts.push((format!("{id:?} answered"), answered));
        counts.push((format!("{id:?} ignored"), ignored));
    }
    counts
}

#[test]
fn counts_from_racing_threads_equal_the_same_queries_on_one_thread() {
    let probe = World::generate(WorldConfig::small(11));
    let queries = queries(&probe);
    let (serial, parallel) = (probe.fork(), probe.fork());

    let serial_answered: usize = (0..THREADS).map(|_| run(&serial, &queries)).sum();

    let start = Barrier::new(THREADS);
    let parallel_answered: usize = thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    run(&parallel, &queries)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|worker| worker.join().expect("query thread"))
            .sum()
    });

    assert_eq!(parallel_answered, serial_answered);
    let stats = DnsTransport::query_stats(&parallel);
    assert_eq!(stats, DnsTransport::query_stats(&serial));
    assert_eq!(stats.sent, (THREADS * queries.len()) as u64);
    assert_eq!(stats.answered, serial_answered as u64);
    assert_eq!(counts(&parallel), counts(&serial));

    // Every server class, the unanswered count and both provider counts
    // were exercised, so the comparison above is not vacuous.
    let counts = counts(&parallel);
    let total = |part: &str, other: &str| -> u64 {
        counts
            .iter()
            .filter(|(key, _)| key.contains(part) && key.contains(other))
            .map(|(_, value)| value)
            .sum()
    };
    for class in ["registry", "provider", "hosting"] {
        assert!(total("dns.answers", class) > 0, "no {class} answers");
    }
    assert!(stats.ignored() > 0, "no unanswered queries");
    assert!(total(" answered", "") > 0, "no provider answered");
    assert!(total(" ignored", "") > 0, "no provider ignored a query");
}
