//! The recursive resolver.
//!
//! A caching, iterative resolver equivalent to the unbound instance the
//! authors ran on EC2 (Sec IV-B.1): it starts from the registry (root),
//! follows referrals, chases CNAME chains, caches everything it learns with
//! TTLs, and can purge its cache before each measurement round.
//!
//! Two behaviors matter for the paper's findings and are modeled carefully:
//!
//! * **Stale delegations.** NS records learned from referrals are cached
//!   with their (long) TTLs. If a website re-delegates to a new DPS
//!   provider, this resolver keeps sending queries to the *previous*
//!   provider's nameservers until the cached NS expires — the exact
//!   mechanism that motivates providers to keep answering (Sec VI-A).
//! * **Fallback on dead delegations.** If every cached nameserver ignores
//!   the query, the resolver drops those cache entries and retries once
//!   from the root, as production resolvers do.

use std::net::Ipv4Addr;

use remnant_net::Region;
use remnant_obs::{Instrumented, MetricKey};
use remnant_sim::SimClock;

use crate::cache::ResolverCache;
use crate::error::DnsError;
use crate::message::{Query, Rcode, Response};
use crate::name::DomainName;
use crate::record::{RecordSet, RecordType, ResourceRecord};
use crate::transport::DnsTransport;

/// Maximum CNAME chain length before declaring a loop.
const MAX_CNAME_DEPTH: usize = 8;
/// Maximum referral depth per query.
const MAX_REFERRALS: usize = 8;

/// Static label for a query type, for metric label sets.
fn qtype_label(rtype: RecordType) -> &'static str {
    match rtype {
        RecordType::A => "A",
        RecordType::Cname => "CNAME",
        RecordType::Ns => "NS",
        RecordType::Mx => "MX",
        RecordType::Txt => "TXT",
        RecordType::Soa => "SOA",
    }
}

/// Position of `rtype` in [`RecordType::ALL`].
fn qtype_index(rtype: RecordType) -> usize {
    match rtype {
        RecordType::A => 0,
        RecordType::Cname => 1,
        RecordType::Ns => 2,
        RecordType::Mx => 3,
        RecordType::Txt => 4,
        RecordType::Soa => 5,
    }
}

/// Plain counters the resolver accumulates on its hot path.
///
/// Cheap fixed-size fields — no map lookups per query. The registry view
/// of these numbers is produced on demand through the resolver's
/// [`Instrumented`] impl.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ResolverStats {
    /// `resolve()` calls per query type, indexed like [`RecordType::ALL`].
    queries: [u64; RecordType::ALL.len()],
    /// Authoritative iterations finishing after N referral hops
    /// (`delegation_depth[0]` = answered by the first server set).
    delegation_depth: [u64; MAX_REFERRALS + 1],
    /// Dead-delegation retries that restarted iteration from the root.
    fallback_retries: u64,
}

impl ResolverStats {
    /// `resolve()` calls for one query type.
    pub fn queries_for(&self, rtype: RecordType) -> u64 {
        self.queries[qtype_index(rtype)]
    }

    /// Dead-delegation retries that restarted from the root.
    pub fn fallback_retries(&self) -> u64 {
        self.fallback_retries
    }

    /// (depth, count) pairs for completed authoritative iterations, in
    /// depth order, zero counts included.
    pub fn delegation_depths(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.delegation_depth.iter().copied().enumerate()
    }
}

/// The outcome of a successful resolution exchange.
///
/// `records` holds the full observed chain (CNAMEs plus terminal records),
/// which is exactly what the paper's record collector stores per domain.
/// With no alias in the chain it is a copy of the cached records or the
/// response's answer section itself, moved; only a CNAME chain, or an
/// answer section that holds more than the terminal records, builds a
/// new set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Resolution {
    /// All records observed along the resolution, in chase order.
    pub records: RecordSet,
    /// Terminal response code (`NoError` with no records means NODATA).
    pub rcode: Rcode,
}

impl Resolution {
    /// Iterates the IPv4 addresses in the chain without building a `Vec`.
    pub fn iter_addresses(&self) -> impl Iterator<Item = Ipv4Addr> + '_ {
        self.records.iter().filter_map(|rr| rr.data.as_a())
    }

    /// Iterates the CNAME targets in chase order without cloning.
    pub fn iter_cnames(&self) -> impl Iterator<Item = &DomainName> {
        self.records.iter().filter_map(|rr| rr.data.as_cname())
    }

    /// Iterates the NS hostnames in the chain without cloning.
    pub fn iter_ns_hosts(&self) -> impl Iterator<Item = &DomainName> {
        self.records.iter().filter_map(|rr| rr.data.as_ns())
    }

    /// All IPv4 addresses in the chain.
    pub fn addresses(&self) -> Vec<Ipv4Addr> {
        self.iter_addresses().collect()
    }

    /// All CNAME targets in chase order (owned handles; cloning a
    /// [`DomainName`] copies one pointer).
    pub fn cnames(&self) -> Vec<DomainName> {
        self.iter_cnames().cloned().collect()
    }

    /// All NS hostnames in the chain (owned handles).
    pub fn ns_hosts(&self) -> Vec<DomainName> {
        self.iter_ns_hosts().cloned().collect()
    }

    /// True if the resolution produced no usable records.
    pub fn is_negative(&self) -> bool {
        self.records.is_empty()
    }
}

/// A caching iterative resolver (see module docs).
///
/// # Example
///
/// See the crate-level example in [`crate`].
#[derive(Clone, Debug)]
pub struct RecursiveResolver {
    clock: SimClock,
    region: Region,
    cache: ResolverCache,
    stats: ResolverStats,
    /// The server set the current iteration asks, refilled at each
    /// referral; kept across queries so iteration does not allocate.
    servers: Vec<Ipv4Addr>,
}

impl RecursiveResolver {
    /// Creates a resolver at `region` sharing the simulation `clock`.
    pub fn new(clock: SimClock, region: Region) -> Self {
        RecursiveResolver {
            clock,
            region,
            cache: ResolverCache::new(),
            stats: ResolverStats::default(),
            servers: Vec::new(),
        }
    }

    /// Creates a resolver like [`RecursiveResolver::new`] whose cache
    /// holds `entries` entries before its table first grows, for a sweep
    /// that knows how much it will cache.
    pub fn with_cache_capacity(clock: SimClock, region: Region, entries: usize) -> Self {
        RecursiveResolver {
            cache: ResolverCache::with_capacity(entries),
            ..RecursiveResolver::new(clock, region)
        }
    }

    /// The region this resolver queries from (anycast catchment).
    pub fn region(&self) -> Region {
        self.region
    }

    /// Shared access to the cache (e.g. for stats).
    pub fn cache(&self) -> &ResolverCache {
        &self.cache
    }

    /// The resolver's own counters (per-qtype queries, delegation depth,
    /// fallback retries). Cache hit/miss/expired counters live on
    /// [`RecursiveResolver::cache`].
    pub fn stats(&self) -> &ResolverStats {
        &self.stats
    }

    /// Purges the cache — run before each daily collection (Sec IV-B.1).
    pub fn purge_cache(&mut self) {
        self.cache.purge();
    }

    /// Resolves `name`/`rtype`, chasing CNAMEs and following referrals.
    ///
    /// Returns `Ok` for any terminal DNS outcome (including NXDOMAIN and
    /// NODATA — inspect [`Resolution::rcode`]).
    ///
    /// # Errors
    ///
    /// * [`DnsError::Timeout`] — no nameserver answered after fallback;
    /// * [`DnsError::CnameChain`] — alias chain too long or looping.
    pub fn resolve<T: DnsTransport + ?Sized>(
        &mut self,
        transport: &T,
        name: &DomainName,
        rtype: RecordType,
    ) -> Result<Resolution, DnsError> {
        self.stats.queries[qtype_index(rtype)] += 1;
        // CNAME records followed so far, in chase order. A target already
        // in here (or the queried name itself) means the chain loops.
        let mut chain: Vec<ResourceRecord> = Vec::new();
        let mut current = name.clone();
        let loops_to = |chain: &[ResourceRecord], target: &DomainName| {
            target == name || chain.iter().any(|rr| rr.data.as_cname() == Some(target))
        };

        for _ in 0..=MAX_CNAME_DEPTH {
            let now = self.clock.now();
            // Terminal records or a negative answer already cached?
            if let Some(slot) = self.cache.probe(now, &current, rtype) {
                let cached = self.cache.records(slot).iter().cloned().collect();
                return Ok(Resolution {
                    records: chased(chain, cached),
                    rcode: slot.rcode,
                });
            }
            // Cached alias?
            if rtype != RecordType::Cname {
                if let Some(slot) = self
                    .cache
                    .probe(now, &current, RecordType::Cname)
                    .filter(|slot| !slot.is_empty())
                {
                    let cnames = self.cache.records(slot);
                    let target = cnames[0]
                        .data
                        .as_cname()
                        .expect("cname cache entries hold cname data")
                        .clone();
                    if loops_to(&chain, &target) {
                        return Err(DnsError::CnameChain {
                            name: name.to_string(),
                        });
                    }
                    chain.extend_from_slice(cnames);
                    current = target;
                    continue;
                }
            }
            // Go ask the authoritative hierarchy.
            let (rcode, answers) = self.query_authoritative(transport, &current, rtype)?;
            let now = self.clock.now();
            match rcode {
                Rcode::NoError if !answers.is_empty() => {
                    self.cache.insert(now, answers.clone());
                    // Serve from the answers themselves rather than
                    // re-reading the cache — a TTL-0 record is valid for
                    // this answer but expires the instant it is cached.
                    let mut advanced = false;
                    loop {
                        let is_direct =
                            |rr: &&ResourceRecord| rr.name == current && rr.record_type() == rtype;
                        let direct = answers.iter().filter(is_direct).count();
                        if direct > 0 {
                            let terminal = if direct == answers.len() {
                                answers
                            } else {
                                answers.iter().filter(is_direct).cloned().collect()
                            };
                            return Ok(Resolution {
                                records: chased(chain, terminal),
                                rcode: Rcode::NoError,
                            });
                        }
                        if rtype == RecordType::Cname {
                            break;
                        }
                        let Some(alias) = answers
                            .iter()
                            .find(|rr| rr.name == current && rr.record_type() == RecordType::Cname)
                        else {
                            break;
                        };
                        let target = alias
                            .data
                            .as_cname()
                            .expect("cname records hold cname data")
                            .clone();
                        if loops_to(&chain, &target) {
                            return Err(DnsError::CnameChain {
                                name: name.to_string(),
                            });
                        }
                        chain.push(alias.clone());
                        current = target;
                        advanced = true;
                    }
                    if !advanced {
                        // Records came back, but none for our name/type:
                        // effectively NODATA.
                        return Ok(Resolution {
                            records: chased(chain, RecordSet::new()),
                            rcode: Rcode::NoError,
                        });
                    }
                    // The chain advanced past this response's content; the
                    // outer loop resolves the new target.
                }
                Rcode::NoError => {
                    self.cache
                        .insert_negative(now, current.clone(), rtype, Rcode::NoError);
                    return Ok(Resolution {
                        records: chased(chain, RecordSet::new()),
                        rcode: Rcode::NoError,
                    });
                }
                rcode @ (Rcode::NxDomain | Rcode::Refused | Rcode::ServFail) => {
                    if rcode == Rcode::NxDomain {
                        self.cache
                            .insert_negative(now, current.clone(), rtype, rcode);
                    }
                    return Ok(Resolution {
                        records: chased(chain, RecordSet::new()),
                        rcode,
                    });
                }
            }
        }
        Err(DnsError::CnameChain {
            name: name.to_string(),
        })
    }

    /// Resolves and returns just the terminal addresses (empty on negative
    /// outcomes).
    ///
    /// # Errors
    ///
    /// Propagates [`RecursiveResolver::resolve`] errors.
    pub fn resolve_addresses<T: DnsTransport + ?Sized>(
        &mut self,
        transport: &T,
        name: &DomainName,
    ) -> Result<Vec<Ipv4Addr>, DnsError> {
        Ok(self.resolve(transport, name, RecordType::A)?.addresses())
    }

    /// Sends one query to one specific server, bypassing cache and
    /// recursion. This is the primitive the residual-resolution scanner
    /// uses to interrogate a previous provider's nameservers directly
    /// (Sec V-A.2).
    pub fn query_direct<T: DnsTransport + ?Sized>(
        &self,
        transport: &T,
        server: Ipv4Addr,
        query: &Query,
    ) -> Option<Response> {
        transport.query(self.clock.now(), server, self.region, query)
    }

    /// Queries the authoritative hierarchy for `qname`/`rtype`, following
    /// referrals from the deepest cached delegation (or the root), and
    /// returns the terminal response's rcode and answer section.
    fn query_authoritative<T: DnsTransport + ?Sized>(
        &mut self,
        transport: &T,
        qname: &DomainName,
        rtype: RecordType,
    ) -> Result<(Rcode, RecordSet), DnsError> {
        match self.try_from_cached_delegation(transport, qname, rtype) {
            Ok(answer) => Ok(answer),
            Err(_) => {
                // All cached nameservers are dead — drop the stale NS cache
                // for this name's suffixes and retry once from the root.
                self.stats.fallback_retries += 1;
                let now = self.clock.now();
                for suffix in qname.suffixes() {
                    let cached = self.cache.probe(now, &suffix, RecordType::Ns);
                    if cached.is_some_and(|slot| !slot.is_empty()) {
                        // Shadow the stale NS set with a negative NS entry,
                        // so the retry from the root learns the delegation
                        // again instead of reusing the dead servers.
                        self.cache.insert_negative(
                            now,
                            suffix.clone(),
                            RecordType::Ns,
                            Rcode::NoError,
                        );
                    }
                }
                self.servers.clear();
                self.servers.push(transport.root());
                self.iterate(transport, qname, rtype)
            }
        }
    }

    /// Starts iteration from the deepest cached delegation if one exists,
    /// else from the root.
    fn try_from_cached_delegation<T: DnsTransport + ?Sized>(
        &mut self,
        transport: &T,
        qname: &DomainName,
        rtype: RecordType,
    ) -> Result<(Rcode, RecordSet), DnsError> {
        let now = self.clock.now();
        self.servers.clear();
        for suffix in qname.suffixes() {
            let Some(ns) = self.cache.probe(now, &suffix, RecordType::Ns) else {
                continue;
            };
            // Probes move no records, so the NS entry's records stay put
            // while their hosts' glue is looked up.
            for i in 0..self.cache.records(ns).len() {
                let Some(host) = self.cache.records(ns)[i].data.as_ns().cloned() else {
                    continue;
                };
                if let Some(glue) = self
                    .cache
                    .probe(now, &host, RecordType::A)
                    .filter(|slot| !slot.is_empty())
                {
                    let glue = self.cache.records(glue);
                    self.servers
                        .extend(glue.iter().filter_map(|r| r.data.as_a()));
                }
            }
            if !self.servers.is_empty() {
                break;
            }
        }
        if self.servers.is_empty() {
            self.servers.push(transport.root());
        }
        self.iterate(transport, qname, rtype)
    }

    /// Iterates from the servers in `self.servers`, following referrals
    /// until an authoritative answer (or terminal negative) arrives, and
    /// returns that response's rcode and answer section.
    ///
    /// Each response is taken apart where it arrives: a referral's
    /// sections go into the cache and a terminal one's answer set moves
    /// out, so no `Response` is passed between frames.
    fn iterate<T: DnsTransport + ?Sized>(
        &mut self,
        transport: &T,
        qname: &DomainName,
        rtype: RecordType,
    ) -> Result<(Rcode, RecordSet), DnsError> {
        let query = Query::new(qname.clone(), rtype);
        'referral: for depth in 0..=MAX_REFERRALS {
            for i in 0..self.servers.len() {
                let now = self.clock.now();
                let server = self.servers[i];
                let Some(response) = transport.query(now, server, self.region, &query) else {
                    continue;
                };
                if !response.is_referral() {
                    self.stats.delegation_depth[depth] += 1;
                    return Ok((response.rcode, response.answers));
                }
                let now = self.clock.now();
                self.servers.clear();
                self.servers
                    .extend(response.additional.iter().filter_map(|rr| rr.data.as_a()));
                // Cache the delegation and its glue.
                self.cache.insert(now, response.authority);
                self.cache.insert(now, response.additional);
                if self.servers.is_empty() {
                    // Glueless delegation: resolve NS hostnames from cache
                    // only (registry and providers always send glue, so this
                    // is a dead end in practice).
                    return Err(DnsError::NoNameservers {
                        name: qname.to_string(),
                    });
                }
                continue 'referral;
            }
            return Err(DnsError::Timeout {
                name: qname.to_string(),
            });
        }
        Err(DnsError::NoNameservers {
            name: qname.to_string(),
        })
    }
}

/// The records of a resolution: the CNAMEs followed, then the terminal
/// records. With no alias the terminal set is returned as-is.
fn chased(chain: Vec<ResourceRecord>, terminal: RecordSet) -> RecordSet {
    if chain.is_empty() {
        return terminal;
    }
    chain.iter().chain(terminal.iter()).cloned().collect()
}

/// The resolver's counters — per-qtype query mix, delegation depth,
/// fallback retries, and its cache's hit/miss/expired tallies — through
/// the unified reading surface.
impl Instrumented for RecursiveResolver {
    fn component(&self) -> &'static str {
        "dns.resolver"
    }

    fn counters(&self) -> Vec<(MetricKey, u64)> {
        let mut out = Vec::new();
        for &rtype in &RecordType::ALL {
            out.push((
                MetricKey::labeled("resolver.queries", &[("qtype", qtype_label(rtype))]),
                self.stats.queries_for(rtype),
            ));
        }
        out.push((
            MetricKey::named("resolver.fallback_retries"),
            self.stats.fallback_retries,
        ));
        // Depth buckets are emitted sparsely: zero counts carry no
        // information and their presence is still deterministic (the
        // nonzero set is a pure function of the shard's work).
        let mut depth_label = String::new();
        for (depth, count) in self.stats.delegation_depths() {
            if count == 0 {
                continue;
            }
            depth_label.clear();
            let _ = std::fmt::Write::write_fmt(&mut depth_label, format_args!("{depth}"));
            out.push((
                MetricKey::labeled("resolver.delegation_depth", &[("depth", &depth_label)]),
                count,
            ));
        }
        let (hits, misses) = self.cache.stats();
        out.push((MetricKey::named("cache.hits"), hits));
        out.push((MetricKey::named("cache.misses"), misses));
        out.push((
            MetricKey::named("cache.expired"),
            self.cache.expired_count(),
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::authority::ZoneServer;
    use crate::record::{RecordData, Ttl};
    use crate::registry::Registry;
    use crate::transport::StaticTransport;
    use crate::zone::Zone;
    use remnant_sim::SimDuration;

    fn name(s: &str) -> DomainName {
        s.parse().expect("test name")
    }

    const NS_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 53);
    const NS2_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 1, 53);
    const WWW_IP: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 10);

    /// example.com delegated to ns1.host.net (10.0.0.53) serving www A.
    fn world() -> (StaticTransport, RecursiveResolver, SimClock) {
        let clock = SimClock::new();
        let mut registry = Registry::new();
        registry.delegate(name("example.com"), vec![(name("ns1.host.net"), NS_IP)]);
        let mut zone = Zone::new(name("example.com"));
        zone.add(ResourceRecord::new(
            name("www.example.com"),
            Ttl::secs(300),
            RecordData::A(WWW_IP),
        ));
        zone.add(ResourceRecord::new(
            name("example.com"),
            Ttl::days(1),
            RecordData::Ns(name("ns1.host.net")),
        ));
        let mut transport = StaticTransport::new(registry);
        transport.add_server(NS_IP, ZoneServer::new(vec![zone]));
        let resolver = RecursiveResolver::new(clock.clone(), Region::Oregon);
        (transport, resolver, clock)
    }

    #[test]
    fn resolves_through_referral() {
        let (t, mut r, _clock) = world();
        let res = r
            .resolve(&t, &name("www.example.com"), RecordType::A)
            .unwrap();
        assert_eq!(res.addresses(), vec![WWW_IP]);
        assert_eq!(res.rcode, Rcode::NoError);
    }

    #[test]
    fn second_resolution_is_served_from_cache() {
        let (t, mut r, _clock) = world();
        let _ = r
            .resolve(&t, &name("www.example.com"), RecordType::A)
            .unwrap();
        let sent_before = t.query_stats().sent;
        let res = r
            .resolve(&t, &name("www.example.com"), RecordType::A)
            .unwrap();
        assert_eq!(res.addresses(), vec![WWW_IP]);
        assert_eq!(
            t.query_stats().sent,
            sent_before,
            "no network traffic on cache hit"
        );
    }

    #[test]
    fn purge_forces_requery() {
        let (t, mut r, _clock) = world();
        let _ = r
            .resolve(&t, &name("www.example.com"), RecordType::A)
            .unwrap();
        r.purge_cache();
        let sent_before = t.query_stats().sent;
        let _ = r
            .resolve(&t, &name("www.example.com"), RecordType::A)
            .unwrap();
        assert!(t.query_stats().sent > sent_before);
    }

    #[test]
    fn ttl_expiry_forces_requery_of_answer_only() {
        let (t, mut r, clock) = world();
        let _ = r
            .resolve(&t, &name("www.example.com"), RecordType::A)
            .unwrap();
        clock.advance(SimDuration::secs(301)); // A expired, NS (1d) still live
        let sent_before = t.query_stats().sent;
        let res = r
            .resolve(&t, &name("www.example.com"), RecordType::A)
            .unwrap();
        assert_eq!(res.addresses(), vec![WWW_IP]);
        // Exactly one query: straight to the cached delegation, no root trip.
        assert_eq!(t.query_stats().sent - sent_before, 1);
    }

    #[test]
    fn nxdomain_resolution() {
        let (t, mut r, _clock) = world();
        let res = r
            .resolve(&t, &name("gone.example.com"), RecordType::A)
            .unwrap();
        assert_eq!(res.rcode, Rcode::NxDomain);
        assert!(res.is_negative());
    }

    #[test]
    fn unregistered_domain_is_nxdomain_from_root() {
        let (t, mut r, _clock) = world();
        let res = r
            .resolve(&t, &name("www.nowhere.org"), RecordType::A)
            .unwrap();
        assert_eq!(res.rcode, Rcode::NxDomain);
    }

    #[test]
    fn cname_chase_across_zones() {
        let clock = SimClock::new();
        let mut registry = Registry::new();
        registry.delegate(name("example.com"), vec![(name("ns1.host.net"), NS_IP)]);
        registry.delegate(
            name("incapdns.net"),
            vec![(name("ns1.incapdns.net"), NS2_IP)],
        );
        let mut customer = Zone::new(name("example.com"));
        customer.add(ResourceRecord::new(
            name("www.example.com"),
            Ttl::secs(300),
            RecordData::Cname(name("x7f3.incapdns.net")),
        ));
        let mut provider = Zone::new(name("incapdns.net"));
        provider.add(ResourceRecord::new(
            name("x7f3.incapdns.net"),
            Ttl::secs(60),
            RecordData::A(Ipv4Addr::new(199, 83, 128, 7)),
        ));
        let mut t = StaticTransport::new(registry);
        t.add_server(NS_IP, ZoneServer::new(vec![customer]));
        t.add_server(NS2_IP, ZoneServer::new(vec![provider]));
        let mut r = RecursiveResolver::new(clock, Region::London);

        let res = r
            .resolve(&t, &name("www.example.com"), RecordType::A)
            .unwrap();
        assert_eq!(res.cnames(), vec![name("x7f3.incapdns.net")]);
        assert_eq!(res.addresses(), vec![Ipv4Addr::new(199, 83, 128, 7)]);
    }

    #[test]
    fn cname_loop_is_detected() {
        let clock = SimClock::new();
        let mut registry = Registry::new();
        registry.delegate(name("loopy.com"), vec![(name("ns1.loopy.com"), NS_IP)]);
        let mut zone = Zone::new(name("loopy.com"));
        zone.add(ResourceRecord::new(
            name("a.loopy.com"),
            Ttl::secs(60),
            RecordData::Cname(name("b.loopy.com")),
        ));
        zone.add(ResourceRecord::new(
            name("b.loopy.com"),
            Ttl::secs(60),
            RecordData::Cname(name("a.loopy.com")),
        ));
        let mut t = StaticTransport::new(registry);
        t.add_server(NS_IP, ZoneServer::new(vec![zone]));
        let mut r = RecursiveResolver::new(clock, Region::Tokyo);
        let err = r
            .resolve(&t, &name("a.loopy.com"), RecordType::A)
            .unwrap_err();
        assert!(matches!(err, DnsError::CnameChain { .. }));

        // Both aliases are cached now: the second resolution walks them
        // without the network and must still see the loop.
        let sent_before = t.query_stats().sent;
        let err = r
            .resolve(&t, &name("a.loopy.com"), RecordType::A)
            .unwrap_err();
        assert!(matches!(err, DnsError::CnameChain { .. }));
        assert_eq!(t.query_stats().sent, sent_before, "served from cache");
    }

    #[test]
    fn repeated_resolution_is_served_from_the_cache() {
        let (t, mut r, _clock) = world();
        let first = r
            .resolve(&t, &name("www.example.com"), RecordType::A)
            .unwrap();
        let sent_before = t.query_stats().sent;
        let second = r
            .resolve(&t, &name("www.example.com"), RecordType::A)
            .unwrap();
        assert_eq!(
            t.query_stats().sent,
            sent_before,
            "a cache hit sends no query"
        );
        assert_eq!(second.addresses(), vec![WWW_IP]);
        assert_eq!(first, second);
    }

    #[test]
    fn cname_chain_lists_aliases_before_terminal_records() {
        let clock = SimClock::new();
        let mut registry = Registry::new();
        registry.delegate(name("example.com"), vec![(name("ns1.host.net"), NS_IP)]);
        registry.delegate(
            name("incapdns.net"),
            vec![(name("ns1.incapdns.net"), NS2_IP)],
        );
        let www_alias = ResourceRecord::new(
            name("www.example.com"),
            Ttl::secs(300),
            RecordData::Cname(name("cdn.example.com")),
        );
        let cdn_alias = ResourceRecord::new(
            name("cdn.example.com"),
            Ttl::secs(300),
            RecordData::Cname(name("x7f3.incapdns.net")),
        );
        let terminal = ResourceRecord::new(
            name("x7f3.incapdns.net"),
            Ttl::secs(60),
            RecordData::A(Ipv4Addr::new(199, 83, 128, 7)),
        );
        let mut customer = Zone::new(name("example.com"));
        customer.add(www_alias.clone());
        customer.add(cdn_alias.clone());
        let mut provider = Zone::new(name("incapdns.net"));
        provider.add(terminal.clone());
        let mut t = StaticTransport::new(registry);
        t.add_server(NS_IP, ZoneServer::new(vec![customer]));
        t.add_server(NS2_IP, ZoneServer::new(vec![provider]));
        let mut r = RecursiveResolver::new(clock, Region::London);

        let expected = [www_alias, cdn_alias, terminal];
        for pass in ["network", "cache"] {
            let res = r
                .resolve(&t, &name("www.example.com"), RecordType::A)
                .unwrap();
            assert_eq!(&res.records[..], &expected[..], "{pass} pass");
        }
    }

    #[test]
    fn stale_ns_keeps_hitting_previous_server_until_expiry() {
        // The residual-resolution mechanism: after re-delegation the cached
        // NS still points at the old server for its TTL.
        let (mut t, mut r, clock) = world();
        let _ = r
            .resolve(&t, &name("www.example.com"), RecordType::A)
            .unwrap();

        // The website switches to a new provider: registry now points at
        // NS2, which serves a different answer.
        t.registry_mut()
            .delegate(name("example.com"), vec![(name("ns.newdps.net"), NS2_IP)]);
        let mut new_zone = Zone::new(name("example.com"));
        new_zone.add(ResourceRecord::new(
            name("www.example.com"),
            Ttl::secs(300),
            RecordData::A(Ipv4Addr::new(99, 99, 99, 99)),
        ));
        t.add_server(NS2_IP, ZoneServer::new(vec![new_zone]));

        // Cached A expires, cached NS does not: the resolver asks the OLD
        // server and still sees the old answer.
        clock.advance(SimDuration::secs(301));
        let res = r
            .resolve(&t, &name("www.example.com"), RecordType::A)
            .unwrap();
        assert_eq!(res.addresses(), vec![WWW_IP], "stale NS served old data");

        // After the NS TTL (1 day zone NS cached from authoritative answer;
        // delegation TTL 2 days) fully expires, the new provider answers.
        clock.advance(SimDuration::days(3));
        let res = r
            .resolve(&t, &name("www.example.com"), RecordType::A)
            .unwrap();
        assert_eq!(res.addresses(), vec![Ipv4Addr::new(99, 99, 99, 99)]);
    }

    #[test]
    fn dead_cached_delegation_falls_back_to_root() {
        let (mut t, mut r, clock) = world();
        let _ = r
            .resolve(&t, &name("www.example.com"), RecordType::A)
            .unwrap();

        // Old server goes dark; registry re-delegates to a live one.
        t.set_unreachable(NS_IP);
        t.registry_mut()
            .delegate(name("example.com"), vec![(name("ns.newdps.net"), NS2_IP)]);
        let mut new_zone = Zone::new(name("example.com"));
        new_zone.add(ResourceRecord::new(
            name("www.example.com"),
            Ttl::secs(300),
            RecordData::A(Ipv4Addr::new(99, 99, 99, 99)),
        ));
        t.add_server(NS2_IP, ZoneServer::new(vec![new_zone]));

        clock.advance(SimDuration::secs(301));
        let res = r
            .resolve(&t, &name("www.example.com"), RecordType::A)
            .unwrap();
        assert_eq!(res.addresses(), vec![Ipv4Addr::new(99, 99, 99, 99)]);
    }

    #[test]
    fn totally_dead_world_times_out() {
        let (mut t, mut r, _clock) = world();
        t.set_unreachable(NS_IP);
        t.set_unreachable(crate::transport::ROOT_SERVER);
        let err = r
            .resolve(&t, &name("www.example.com"), RecordType::A)
            .unwrap_err();
        assert!(matches!(err, DnsError::Timeout { .. }));
    }

    #[test]
    fn query_direct_bypasses_cache() {
        let (t, mut r, _clock) = world();
        let _ = r
            .resolve(&t, &name("www.example.com"), RecordType::A)
            .unwrap();
        let resp = r
            .query_direct(
                &t,
                NS_IP,
                &Query::new(name("www.example.com"), RecordType::A),
            )
            .unwrap();
        assert_eq!(resp.answer_addresses(), vec![WWW_IP]);
    }

    #[test]
    fn ns_lookup_returns_apex_ns() {
        let (t, mut r, _clock) = world();
        let res = r.resolve(&t, &name("example.com"), RecordType::Ns).unwrap();
        assert_eq!(res.ns_hosts(), vec![name("ns1.host.net")]);
    }

    #[test]
    fn resolver_counters_track_qtype_depth_and_cache() {
        let (t, mut r, clock) = world();
        let _ = r
            .resolve(&t, &name("www.example.com"), RecordType::A)
            .unwrap();
        let _ = r.resolve(&t, &name("example.com"), RecordType::Ns).unwrap();
        // Expire the A answer so the next resolve records an expired miss.
        clock.advance(SimDuration::secs(301));
        let _ = r
            .resolve(&t, &name("www.example.com"), RecordType::A)
            .unwrap();

        assert_eq!(r.stats().queries_for(RecordType::A), 2);
        assert_eq!(r.stats().queries_for(RecordType::Ns), 1);
        assert_eq!(r.stats().fallback_retries(), 0);
        // First resolve: root referral then answer (depth 1). Later
        // resolves run from the cached delegation (depth 0).
        let depths: Vec<(usize, u64)> = r
            .stats()
            .delegation_depths()
            .filter(|&(_, count)| count > 0)
            .collect();
        assert!(depths.contains(&(1, 1)), "first resolve took one referral");
        assert!(r.cache().expired_count() >= 1, "TTL lapse counted");

        let mut registry = remnant_obs::MetricsRegistry::new();
        r.export_into(&mut registry);
        let component = [("component", "dns.resolver")];
        assert_eq!(
            registry.counter_labeled("cache.expired", &component),
            r.cache().expired_count()
        );
        assert_eq!(
            registry.counter_key(
                &MetricKey::labeled("resolver.queries", &[("qtype", "A")])
                    .with_label("component", "dns.resolver")
            ),
            2
        );
    }

    #[test]
    fn fallback_retry_is_counted() {
        let (mut t, mut r, clock) = world();
        let _ = r
            .resolve(&t, &name("www.example.com"), RecordType::A)
            .unwrap();
        t.set_unreachable(NS_IP);
        t.registry_mut()
            .delegate(name("example.com"), vec![(name("ns.newdps.net"), NS2_IP)]);
        let mut new_zone = Zone::new(name("example.com"));
        new_zone.add(ResourceRecord::new(
            name("www.example.com"),
            Ttl::secs(300),
            RecordData::A(Ipv4Addr::new(99, 99, 99, 99)),
        ));
        t.add_server(NS2_IP, ZoneServer::new(vec![new_zone]));
        clock.advance(SimDuration::secs(301));
        let _ = r
            .resolve(&t, &name("www.example.com"), RecordType::A)
            .unwrap();
        assert_eq!(r.stats().fallback_retries(), 1);
    }

    #[test]
    fn terminal_check_counts_each_cache_outcome_once() {
        let (t, mut r, clock) = world();
        let www = name("www.example.com");
        let gone = name("gone.example.com");
        // (hits, misses, expired) a resolve adds to the cache's counters.
        let counted = |r: &mut RecursiveResolver, name: &DomainName| {
            let read = |r: &RecursiveResolver| {
                let (hits, misses) = r.cache().stats();
                (hits, misses, r.cache().expired_count())
            };
            let before = read(r);
            let rcode = r.resolve(&t, name, RecordType::A).unwrap().rcode;
            let after = read(r);
            let delta = (after.0 - before.0, after.1 - before.1, after.2 - before.2);
            (rcode, delta)
        };
        // Cold miss: the terminal check and the alias check miss, and so
        // does the delegation walk's probe at each of three suffixes.
        assert_eq!(counted(&mut r, &www), (Rcode::NoError, (0, 5, 0)));
        // Positive hit: one probe answers.
        assert_eq!(counted(&mut r, &www), (Rcode::NoError, (1, 0, 0)));
        // A cold NXDOMAIN: the terminal, alias and own-name delegation
        // probes miss, the cached delegation and its glue hit. Then its
        // negative entry answers in one probe.
        assert_eq!(counted(&mut r, &gone), (Rcode::NxDomain, (2, 3, 0)));
        assert_eq!(counted(&mut r, &gone), (Rcode::NxDomain, (1, 0, 0)));
        // Expired miss: the A record lapsed (the delegation did not). The
        // terminal probe evicts it, counting one miss and one expiry; the
        // rest runs like the cold NXDOMAIN.
        clock.advance(SimDuration::secs(301));
        assert_eq!(counted(&mut r, &www), (Rcode::NoError, (2, 3, 1)));
    }

    #[test]
    fn a_resolver_that_is_never_purged_keeps_its_store_bounded() {
        // Two sites on one four-server fleet: every referral carries the
        // fleet's four NS records and four glue addresses. TTLs lapse
        // between instants, so entries are evicted on access and cached
        // again, and each eviction leaves its records dead in the store.
        let clock = SimClock::new();
        let fleet: Vec<(DomainName, Ipv4Addr)> = (1..=4u8)
            .map(|i| {
                (
                    name(&format!("ns{i}.fleet.net")),
                    Ipv4Addr::new(10, 9, 0, i),
                )
            })
            .collect();
        let mut registry = Registry::new();
        let mut zones = Vec::new();
        for (site, ttl) in [("example.com", 60), ("example.org", 3600)] {
            registry.delegate_with_ttl(name(site), fleet.clone(), Ttl::secs(ttl));
            let mut zone = Zone::new(name(site));
            zone.add(ResourceRecord::new(
                name(&format!("www.{site}")),
                Ttl::secs(300),
                RecordData::A(WWW_IP),
            ));
            for (host, _) in &fleet {
                zone.add(ResourceRecord::new(
                    name(site),
                    Ttl::secs(ttl * 2),
                    RecordData::Ns(host.clone()),
                ));
            }
            zones.push(zone);
        }
        let mut t = StaticTransport::new(registry);
        for &(_, ip) in &fleet {
            t.add_server(ip, ZoneServer::new(zones.clone()));
        }
        let mut r = RecursiveResolver::new(clock.clone(), Region::Oregon);

        let mut most = 0;
        for step in 0..400u64 {
            for site in ["example.com", "example.org"] {
                let www = r
                    .resolve(&t, &name(&format!("www.{site}")), RecordType::A)
                    .unwrap();
                assert_eq!(www.addresses(), vec![WWW_IP]);
                let apex = r.resolve(&t, &name(site), RecordType::Ns).unwrap();
                assert_eq!(apex.ns_hosts().len(), 4);
                let (stored, live) = r.cache().store_usage();
                assert!(
                    stored <= 2 * live + 8,
                    "step {step}: {stored} records stored for {live} live"
                );
                most = most.max(stored);
            }
            clock.advance(SimDuration::secs(100 + step % 7 * 50));
        }
        // Without compaction, 400 instants of evictions would have
        // appended thousands of records.
        assert!(most < 64, "the store peaked at {most} records");
        assert!(r.cache().expired_count() > 400);
    }

    #[test]
    fn nodata_is_noerror_with_empty_records() {
        let (t, mut r, _clock) = world();
        let res = r
            .resolve(&t, &name("www.example.com"), RecordType::Mx)
            .unwrap();
        assert_eq!(res.rcode, Rcode::NoError);
        assert!(res.is_negative());
    }
}
