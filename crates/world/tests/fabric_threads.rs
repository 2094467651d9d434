//! Querying one world from several threads at once.
//!
//! Scan and collection workers share one `World` as their DNS fabric.
//! Answering writes nothing (the fabric keeps no counters; each sender
//! counts its own queries through a `CountingTransport`), so an answer
//! must not depend on which thread asked or what else was in flight:
//! threads racing over the same queries must each get exactly the
//! answers one thread gets alone.

use std::net::Ipv4Addr;
use std::sync::Barrier;
use std::thread;

use remnant_dns::transport::ROOT_SERVER;
use remnant_dns::{DnsTransport, Query, RecordType, Response};
use remnant_net::Region;
use remnant_provider::ProviderId;
use remnant_world::{World, WorldConfig};

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

/// The fabric's answer to each of `queries`, in order.
fn run(world: &World, queries: &[(Ipv4Addr, Query)]) -> Vec<Option<Response>> {
    let now = world.clock().now();
    queries
        .iter()
        .map(|(server, query)| world.query(now, *server, Region::Ashburn, query))
        .collect()
}

#[test]
fn answers_from_racing_threads_equal_the_same_queries_on_one_thread() {
    let world = World::generate(WorldConfig::small(11));
    let queries = queries(&world);
    let serial = run(&world, &queries);

    let start = Barrier::new(THREADS);
    let parallel: Vec<Vec<Option<Response>>> = thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    run(&world, &queries)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|worker| worker.join().expect("query thread"))
            .collect()
    });
    for answers in &parallel {
        assert!(*answers == serial, "a racing thread got other answers");
    }

    // The registry, the hosting servers and the provider nameservers all
    // answered, and nowhere and a provider that does not serve a name
    // stayed silent, so the comparison above is not vacuous.
    let answered = |pick: &dyn Fn(Ipv4Addr) -> bool| {
        queries
            .iter()
            .zip(&serial)
            .filter(|((server, _), answer)| pick(*server) && answer.is_some())
            .count()
    };
    let is_provider_ns = |addr: Ipv4Addr| {
        ProviderId::ALL
            .into_iter()
            .any(|id| world.provider(id).ns_addresses().contains(&addr))
    };
    assert!(answered(&|s| s == ROOT_SERVER) > 0, "no registry answers");
    assert!(answered(&is_provider_ns) > 0, "no provider answers");
    assert!(
        answered(&|s| s != ROOT_SERVER && s != NOWHERE && !is_provider_ns(s)) > 0,
        "no hosting answers"
    );
    assert!(serial.iter().any(Option::is_none), "no unanswered queries");
    let stray_ns = world.provider(ProviderId::Cloudflare).ns_addresses()[0];
    assert!(
        queries
            .iter()
            .zip(&serial)
            .any(|((server, _), answer)| *server == stray_ns && answer.is_none()),
        "no provider ignored a query"
    );
}
