//! Transport abstraction: how DNS queries reach servers.
//!
//! The resolver and the measurement toolkit never hold references to
//! servers; they send queries through a [`DnsTransport`], which the
//! simulated Internet implements (routing to the registry, provider
//! nameserver fleets through their anycast maps, and self-hosted
//! authoritative servers). [`StaticTransport`] is a simple implementation
//! for unit tests and examples, with failure injection.

use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};

use remnant_net::Region;
use remnant_obs::{transport_counters, Instrumented, MetricKey};
use remnant_sim::SimTime;

use crate::authority::Authoritative;
use crate::message::{Query, Response};
use crate::registry::Registry;

/// The well-known anycast address of the delegation registry (root/TLD
/// layer) in every simulation, mirroring `a.root-servers.net`.
pub const ROOT_SERVER: Ipv4Addr = Ipv4Addr::new(198, 41, 0, 4);

/// Query-volume counters, uniformly available from any transport.
///
/// `sent` counts queries delivered into the transport; `answered` counts
/// the subset that produced a response. The remainder were dropped or
/// silently ignored (the behavior residual scans probe for).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Queries delivered into the transport.
    pub sent: u64,
    /// Queries that produced a `Some(Response)`.
    pub answered: u64,
}

impl QueryStats {
    /// Queries that were dropped or silently ignored.
    pub fn ignored(&self) -> u64 {
        self.sent.saturating_sub(self.answered)
    }
}

/// A [`QueryStats`] value is itself readable through the unified
/// [`Instrumented`] surface, exporting the canonical
/// `transport.sent`/`transport.answered`/`transport.ignored` triple.
impl Instrumented for QueryStats {
    fn component(&self) -> &'static str {
        "dns.transport"
    }

    fn counters(&self) -> Vec<(MetricKey, u64)> {
        transport_counters(self.sent, self.answered)
    }
}

/// Delivers DNS queries to servers by IP address.
///
/// Querying takes `&self`: answering must be a logically read-only
/// operation, so one transport (the simulated world) can serve any number
/// of scan workers at once. Transports may still count traffic through
/// interior mutability, but the answer to a query must not depend on what
/// other queries are in flight. Share a transport across threads by
/// bounding `T: DnsTransport + Sync`.
pub trait DnsTransport {
    /// The registry (root) address queries should start from.
    fn root(&self) -> Ipv4Addr {
        ROOT_SERVER
    }

    /// Sends `query` to `server`, entering the network at `region`, at
    /// virtual time `now`. `None` models a dropped or ignored query.
    fn query(
        &self,
        now: SimTime,
        server: Ipv4Addr,
        region: Region,
        query: &Query,
    ) -> Option<Response>;

    /// Cumulative query counters. The default implementation reports
    /// nothing; transports that track volume override it.
    fn query_stats(&self) -> QueryStats {
        QueryStats::default()
    }
}

/// A [`DnsTransport`] view over a shared transport that counts the
/// queries passing through it.
///
/// Scan workers wrap the shared world in one of these per shard, giving
/// deterministic per-shard query counts without contending on a global
/// counter. The counters are plain [`Cell`]s: a view belongs to one shard.
#[derive(Debug)]
pub struct CountingTransport<'a, T: DnsTransport + ?Sized> {
    inner: &'a T,
    sent: Cell<u64>,
    answered: Cell<u64>,
}

impl<'a, T: DnsTransport + ?Sized> CountingTransport<'a, T> {
    /// Wraps `inner`, starting all counters at zero.
    pub fn new(inner: &'a T) -> Self {
        CountingTransport {
            inner,
            sent: Cell::new(0),
            answered: Cell::new(0),
        }
    }
}

impl<T: DnsTransport + ?Sized> Instrumented for CountingTransport<'_, T> {
    fn component(&self) -> &'static str {
        "dns.counting_transport"
    }

    fn counters(&self) -> Vec<(MetricKey, u64)> {
        transport_counters(self.sent.get(), self.answered.get())
    }
}

impl<T: DnsTransport + ?Sized> DnsTransport for CountingTransport<'_, T> {
    fn root(&self) -> Ipv4Addr {
        self.inner.root()
    }

    fn query(
        &self,
        now: SimTime,
        server: Ipv4Addr,
        region: Region,
        query: &Query,
    ) -> Option<Response> {
        self.sent.set(self.sent.get() + 1);
        let response = self.inner.query(now, server, region, query);
        if response.is_some() {
            self.answered.set(self.answered.get() + 1);
        }
        response
    }

    fn query_stats(&self) -> QueryStats {
        QueryStats {
            sent: self.sent.get(),
            answered: self.answered.get(),
        }
    }
}

/// A transport over a fixed set of servers, for tests and examples.
///
/// The registry answers at [`ROOT_SERVER`]; additional authoritative servers
/// are registered per IP. Addresses can be marked unreachable to inject
/// failures. Counters are atomic, so one transport can back a sharded
/// sweep.
pub struct StaticTransport {
    registry: Registry,
    servers: HashMap<Ipv4Addr, Box<dyn Authoritative + Send + Sync>>,
    unreachable: HashSet<Ipv4Addr>,
    queries_sent: AtomicU64,
    queries_answered: AtomicU64,
}

impl StaticTransport {
    /// Creates a transport with `registry` at [`ROOT_SERVER`].
    pub fn new(registry: Registry) -> Self {
        StaticTransport {
            registry,
            servers: HashMap::new(),
            unreachable: HashSet::new(),
            queries_sent: AtomicU64::new(0),
            queries_answered: AtomicU64::new(0),
        }
    }

    /// Registers an authoritative server at `addr`.
    pub fn add_server(
        &mut self,
        addr: Ipv4Addr,
        server: impl Authoritative + Send + Sync + 'static,
    ) {
        self.servers.insert(addr, Box::new(server));
    }

    /// Marks `addr` unreachable: queries to it are dropped.
    pub fn set_unreachable(&mut self, addr: Ipv4Addr) {
        self.unreachable.insert(addr);
    }

    /// Makes `addr` reachable again.
    pub fn set_reachable(&mut self, addr: Ipv4Addr) {
        self.unreachable.remove(&addr);
    }

    /// Mutable access to the registry, for re-delegations mid-test.
    pub fn registry_mut(&mut self) -> &mut Registry {
        &mut self.registry
    }

    /// Shared access to the registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }
}

impl Instrumented for StaticTransport {
    fn component(&self) -> &'static str {
        "dns.static_transport"
    }

    fn counters(&self) -> Vec<(MetricKey, u64)> {
        let stats = self.query_stats();
        transport_counters(stats.sent, stats.answered)
    }
}

impl std::fmt::Debug for StaticTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StaticTransport")
            .field("servers", &self.servers.len())
            .field("unreachable", &self.unreachable.len())
            .field("queries_sent", &self.query_stats().sent)
            .finish()
    }
}

impl DnsTransport for StaticTransport {
    fn query(
        &self,
        now: SimTime,
        server: Ipv4Addr,
        _region: Region,
        query: &Query,
    ) -> Option<Response> {
        if self.unreachable.contains(&server) {
            return None;
        }
        self.queries_sent.fetch_add(1, Ordering::Relaxed);
        let response = if server == ROOT_SERVER {
            self.registry.answer(now, query)
        } else {
            self.servers.get(&server)?.answer(now, query)
        };
        if response.is_some() {
            self.queries_answered.fetch_add(1, Ordering::Relaxed);
        }
        response
    }

    fn query_stats(&self) -> QueryStats {
        QueryStats {
            sent: self.queries_sent.load(Ordering::Relaxed),
            answered: self.queries_answered.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::authority::ZoneServer;
    use crate::message::Rcode;
    use crate::name::DomainName;
    use crate::record::{RecordData, RecordType, ResourceRecord, Ttl};
    use crate::zone::Zone;

    fn name(s: &str) -> DomainName {
        s.parse().expect("test name")
    }

    fn transport() -> StaticTransport {
        let mut registry = Registry::new();
        registry.delegate(
            name("example.com"),
            vec![(name("ns1.host.net"), Ipv4Addr::new(10, 0, 0, 53))],
        );
        let mut zone = Zone::new(name("example.com"));
        zone.add(ResourceRecord::new(
            name("www.example.com"),
            Ttl::secs(300),
            RecordData::A(Ipv4Addr::new(203, 0, 113, 1)),
        ));
        let mut t = StaticTransport::new(registry);
        t.add_server(Ipv4Addr::new(10, 0, 0, 53), ZoneServer::new(vec![zone]));
        t
    }

    #[test]
    fn routes_root_to_registry() {
        let t = transport();
        let resp = t
            .query(
                SimTime::EPOCH,
                ROOT_SERVER,
                Region::Oregon,
                &Query::new(name("www.example.com"), RecordType::A),
            )
            .unwrap();
        assert!(resp.is_referral());
    }

    #[test]
    fn routes_to_registered_server() {
        let t = transport();
        let resp = t
            .query(
                SimTime::EPOCH,
                Ipv4Addr::new(10, 0, 0, 53),
                Region::Oregon,
                &Query::new(name("www.example.com"), RecordType::A),
            )
            .unwrap();
        assert_eq!(resp.rcode, Rcode::NoError);
        assert_eq!(resp.answer_addresses().len(), 1);
    }

    #[test]
    fn unknown_address_drops() {
        let t = transport();
        assert!(t
            .query(
                SimTime::EPOCH,
                Ipv4Addr::new(9, 9, 9, 9),
                Region::Oregon,
                &Query::new(name("www.example.com"), RecordType::A),
            )
            .is_none());
    }

    #[test]
    fn unreachable_injection() {
        let mut t = transport();
        let addr = Ipv4Addr::new(10, 0, 0, 53);
        t.set_unreachable(addr);
        assert!(t
            .query(
                SimTime::EPOCH,
                addr,
                Region::Oregon,
                &Query::new(name("www.example.com"), RecordType::A),
            )
            .is_none());
        t.set_reachable(addr);
        assert!(t
            .query(
                SimTime::EPOCH,
                addr,
                Region::Oregon,
                &Query::new(name("www.example.com"), RecordType::A),
            )
            .is_some());
    }

    #[test]
    fn counts_delivered_queries() {
        let mut t = transport();
        let q = Query::new(name("www.example.com"), RecordType::A);
        t.set_unreachable(Ipv4Addr::new(10, 0, 0, 53));
        let _ = t.query(
            SimTime::EPOCH,
            Ipv4Addr::new(10, 0, 0, 53),
            Region::Oregon,
            &q,
        );
        let _ = t.query(SimTime::EPOCH, ROOT_SERVER, Region::Oregon, &q);
        assert_eq!(t.query_stats().sent, 1);
        assert_eq!(
            t.query_stats(),
            QueryStats {
                sent: 1,
                answered: 1
            }
        );
        assert_eq!(t.query_stats().ignored(), 0);
    }

    /// A trivial transport: answers everything at the root.
    struct EchoTransport;

    impl DnsTransport for EchoTransport {
        fn query(
            &self,
            _now: SimTime,
            server: Ipv4Addr,
            _region: Region,
            query: &Query,
        ) -> Option<Response> {
            (server == ROOT_SERVER).then(|| Response::empty(query.clone(), Rcode::NoError))
        }
    }

    #[test]
    fn counting_transport_tracks_per_wrapper_volume() {
        let shared = EchoTransport;
        let q = Query::new(name("www.example.com"), RecordType::A);
        let a = CountingTransport::new(&shared);
        let b = CountingTransport::new(&shared);
        let _ = a.query(SimTime::EPOCH, ROOT_SERVER, Region::Oregon, &q);
        let _ = a.query(
            SimTime::EPOCH,
            Ipv4Addr::new(9, 9, 9, 9),
            Region::Oregon,
            &q,
        );
        let _ = b.query(SimTime::EPOCH, ROOT_SERVER, Region::Oregon, &q);
        assert_eq!(
            a.query_stats(),
            QueryStats {
                sent: 2,
                answered: 1
            }
        );
        assert_eq!(a.query_stats().ignored(), 1);
        assert_eq!(b.query_stats().sent, 1);
    }

    #[test]
    fn transports_export_unified_counters() {
        let shared = EchoTransport;
        let q = Query::new(name("www.example.com"), RecordType::A);
        let counting = CountingTransport::new(&shared);
        let _ = counting.query(SimTime::EPOCH, ROOT_SERVER, Region::Oregon, &q);
        let _ = counting.query(
            SimTime::EPOCH,
            Ipv4Addr::new(9, 9, 9, 9),
            Region::Oregon,
            &q,
        );
        let mut registry = remnant_obs::MetricsRegistry::new();
        counting.export_into(&mut registry);
        let label = [("component", "dns.counting_transport")];
        assert_eq!(registry.counter_labeled("transport.sent", &label), 2);
        assert_eq!(registry.counter_labeled("transport.answered", &label), 1);
        assert_eq!(registry.counter_labeled("transport.ignored", &label), 1);
        // The plain stats value exports the same triple.
        assert_eq!(
            counting.counters(),
            counting.query_stats().counters(),
            "QueryStats and its transport agree"
        );
    }
}
