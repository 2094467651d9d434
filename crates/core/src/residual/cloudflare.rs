//! Direct-query scanning of an NS-hosting provider's nameserver fleet
//! (Sec V-A: the Cloudflare case study).
//!
//! Every round's harvest tests every fleet candidate a block carries for
//! membership in the fleet found so far, so the fleet is a [`WordMap`]:
//! a probe hashes the name's precomputed content hash and compares
//! interned pointers, with no string comparison. Where order matters —
//! [`CloudflareScanner::fleet`] and the weekly scan's server rotation —
//! the fleet (the paper's 391 hosts) is sorted by name.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use remnant_dns::{DnsTransport, DomainName, Query, Rcode, RecordType, RecursiveResolver};
use remnant_engine::{ScanEngine, SweepStats};
use remnant_net::hash::WordMap;
use remnant_net::Region;
use remnant_obs::{transport_counters, Instrumented, MetricKey};
use remnant_sim::SimClock;

use crate::collector::Target;
use crate::matchers::LabelNeedle;
use crate::residual::CLOUDFLARE_NS_FINGERPRINT;
use crate::snapshot::{DnsSnapshot, RecordBlock};
use crate::vantage::VantagePoints;

/// A block's fleet candidates: `(block-local site, NS host)` for every NS
/// host whose labels contain `ns_substring`, in site order with repeats
/// kept. This is the record walk of a [`CloudflareScanner`] built with
/// another substring; for the standard fingerprint
/// [`DerivedColumn::derive`](crate::classify::DerivedColumn::derive)
/// yields the same candidates
/// ([`DerivedColumn::fleet_ns`](crate::classify::DerivedColumn::fleet_ns))
/// in its one walk. A standard fingerprint is read from each name's
/// verdict word.
pub fn fleet_candidates(block: &RecordBlock, ns_substring: &str) -> Vec<(u32, DomainName)> {
    let needle = LabelNeedle::new(ns_substring);
    let mut candidates = Vec::new();
    for (i, site) in block.sites().enumerate() {
        candidates.extend(
            site.ns
                .iter()
                .filter(|host| needle.matches(host))
                .map(|host| (i as u32, host.clone())),
        );
    }
    candidates
}

/// Scanner for NS-based residual resolution.
///
/// The fleet is *harvested*, not assumed: every NS record observed during
/// the usage study whose hostname carries the provider's fingerprint
/// substring joins the fleet, and its address is resolved once — the
/// paper extracted 391 `*.ns.cloudflare.com` hosts this way (Sec V-A.1).
#[derive(Debug)]
pub struct CloudflareScanner {
    clock: SimClock,
    /// Fingerprint substring identifying fleet hostnames.
    ns_substring: String,
    /// Discovered fleet: hostname -> address (hashed: see the module
    /// docs).
    fleet: WordMap<DomainName, Ipv4Addr>,
    /// Resolver used to resolve fleet hostnames' glue addresses.
    resolver: RecursiveResolver,
    vantage: VantagePoints,
    queries_sent: u64,
    responses: u64,
}

impl CloudflareScanner {
    /// Creates a scanner harvesting nameservers whose hostnames contain
    /// `ns_substring` (Cloudflare: `"cloudflare"`).
    pub fn new(clock: SimClock, ns_substring: impl Into<String>) -> Self {
        CloudflareScanner {
            resolver: RecursiveResolver::new(clock.clone(), Region::Ashburn),
            clock,
            ns_substring: ns_substring.into(),
            fleet: WordMap::default(),
            vantage: VantagePoints::paper(),
            queries_sent: 0,
            responses: 0,
        }
    }

    /// Number of distinct fleet nameservers discovered so far.
    pub fn fleet_size(&self) -> usize {
        self.fleet.len()
    }

    /// The discovered fleet, in ascending name order.
    pub fn fleet(&self) -> impl Iterator<Item = (&DomainName, Ipv4Addr)> {
        let mut fleet: Vec<(&DomainName, Ipv4Addr)> =
            self.fleet.iter().map(|(h, a)| (h, *a)).collect();
        fleet.sort_unstable_by_key(|&(host, _)| host);
        fleet.into_iter()
    }

    /// Harvests fleet hostnames from one usage-study snapshot, resolving
    /// the addresses of newly seen hosts.
    ///
    /// Every round folds every block's fleet candidates, in rank order
    /// with repeats kept, so the resolve sequence is the record walk's:
    /// a host whose A lookup failed stays out of the fleet and is tried
    /// again the next round. With the standard fingerprint
    /// ([`CLOUDFLARE_NS_FINGERPRINT`]) the candidates are the ones each
    /// block carries from collection
    /// ([`DerivedColumn::fleet_ns`](crate::classify::DerivedColumn::fleet_ns))
    /// and no record is read; any other substring walks the records. Each
    /// candidate's membership test is one hashed probe (see the module
    /// docs).
    pub fn harvest_fleet<T: DnsTransport + ?Sized>(
        &mut self,
        transport: &T,
        snapshot: &DnsSnapshot,
    ) {
        let carried = self.ns_substring == CLOUDFLARE_NS_FINGERPRINT;
        let mut new_hosts: Vec<DomainName> = Vec::new();
        for (_, source) in snapshot.block_sources() {
            let walked: Vec<DomainName>;
            let hosts = if carried {
                &source.derived().fleet_ns
            } else {
                walked = fleet_candidates(&source.load(), &self.ns_substring)
                    .into_iter()
                    .map(|(_, host)| host)
                    .collect();
                &walked
            };
            new_hosts.extend(
                hosts
                    .iter()
                    .filter(|host| !self.fleet.contains_key(*host))
                    .cloned(),
            );
        }
        for host in new_hosts {
            if let Ok(res) = self.resolver.resolve(transport, &host, RecordType::A) {
                if let Some(addr) = res.iter_addresses().next() {
                    self.fleet.insert(host, addr);
                }
            }
        }
    }

    /// One weekly direct scan, sharded over `engine`'s workers: for every
    /// target, sends the `www A` query straight to one fleet nameserver
    /// (rotating servers and vantage points). Returns only the sites whose
    /// query was *answered with records* — the fleet ignores everything
    /// else (Sec V-A.2).
    ///
    /// Server rotation (over [`fleet`](Self::fleet)'s name order) and
    /// vantage assignment are pure functions of the target's rank, so the
    /// result map and every deterministic counter are identical for any
    /// worker count.
    pub fn scan_with<T: DnsTransport + Sync + ?Sized>(
        &mut self,
        engine: &ScanEngine,
        transport: &T,
        targets: &[Target],
        week: u32,
    ) -> (HashMap<usize, Vec<Ipv4Addr>>, SweepStats) {
        let servers: Vec<Ipv4Addr> = self.fleet().map(|(_, addr)| addr).collect();
        if servers.is_empty() {
            return (HashMap::new(), SweepStats::default());
        }
        let now = self.clock.now();
        let vantage = &self.vantage;
        let sweep = engine.sweep(
            transport,
            targets,
            &engine.shard_plan(targets.len()),
            None,
            |_shard| (),
            |transport, (), scope, rank, (_apex, www)| {
                // Rotate the fleet (offset by week so reruns spread load
                // differently) — "randomly-chosen nameservers" in the
                // paper; any server answers for any customer on an anycast
                // fleet.
                let server = servers[(rank + week as usize) % servers.len()];
                let region = vantage.region_for(rank as u64);
                let query = Query::new(www.clone(), RecordType::A);
                scope.add_queries(1);
                transport
                    .query(now, server, region, &query)
                    .map(|response| match response.rcode {
                        Rcode::NoError => response.answer_addresses(),
                        _ => Vec::new(),
                    })
            },
            |(), _, answers| answers,
        );
        self.queries_sent += targets.len() as u64;
        self.vantage.note_issued(targets.len() as u64);
        let mut results = HashMap::new();
        for (rank, answer) in sweep.outputs.into_iter().flatten().enumerate() {
            let Some(addrs) = answer else {
                continue; // ignored: the server holds no record
            };
            self.responses += 1;
            if !addrs.is_empty() {
                results.insert(rank, addrs);
            }
        }
        (results, sweep.stats)
    }
}

impl Instrumented for CloudflareScanner {
    fn component(&self) -> &'static str {
        "core.cloudflare_scanner"
    }

    fn counters(&self) -> Vec<(MetricKey, u64)> {
        let mut counters = transport_counters(self.queries_sent, self.responses);
        counters.push((MetricKey::named("fleet.size"), self.fleet.len() as u64));
        counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::RecordCollector;
    use remnant_engine::EngineConfig;
    use remnant_provider::{ProviderId, ReroutingMethod, ServicePlan};
    use remnant_world::{SiteState, World, WorldConfig};

    fn world() -> World {
        World::generate(WorldConfig {
            population: 500,
            seed: 55,
            warmup_days: 0,
            calibration: remnant_world::Calibration::paper(),
        })
    }

    fn targets(world: &World) -> Vec<Target> {
        world
            .sites()
            .iter()
            .map(|s| (s.apex.clone(), s.www.clone()))
            .collect()
    }

    /// One weekly scan on a one-worker engine.
    fn scan(
        scanner: &mut CloudflareScanner,
        w: &World,
        targets: &[Target],
        week: u32,
    ) -> HashMap<usize, Vec<Ipv4Addr>> {
        let engine = ScanEngine::new(EngineConfig::default());
        scanner.scan_with(&engine, w, targets, week).0
    }

    /// The naive sequential scan, as a test oracle: one direct query per
    /// target in rank order, through the scanner's fleet rotation and
    /// vantage points, without touching its counters.
    fn sequential_scan(
        scanner: &CloudflareScanner,
        w: &World,
        targets: &[Target],
        week: u32,
    ) -> HashMap<usize, Vec<Ipv4Addr>> {
        let servers: Vec<Ipv4Addr> = scanner.fleet().map(|(_, addr)| addr).collect();
        let mut results = HashMap::new();
        for (rank, (_apex, www)) in targets.iter().enumerate() {
            let server = servers[(rank + week as usize) % servers.len()];
            let region = scanner.vantage.region_for(rank as u64);
            let query = Query::new(www.clone(), RecordType::A);
            let Some(response) = w.query(scanner.clock.now(), server, region, &query) else {
                continue;
            };
            let addrs = response.answer_addresses();
            if response.rcode == Rcode::NoError && !addrs.is_empty() {
                results.insert(rank, addrs);
            }
        }
        results
    }

    /// `(sent, answered)` read back off the unified counter surface.
    fn scan_counters(scanner: &CloudflareScanner) -> (u64, u64) {
        let counters = scanner.counters();
        let get = |name: &'static str| {
            counters
                .iter()
                .find(|(k, _)| *k == MetricKey::named(name))
                .map(|(_, v)| *v)
                .expect("counter present")
        };
        (
            get(remnant_obs::TRANSPORT_SENT),
            get(remnant_obs::TRANSPORT_ANSWERED),
        )
    }

    #[test]
    fn fleet_harvest_discovers_assigned_nameservers() {
        let w = world();
        let targets = targets(&w);
        let mut collector = RecordCollector::new(w.clock(), Region::Ashburn);
        let snapshot = collector.collect(&w, &targets, 0);
        let mut scanner = CloudflareScanner::new(w.clock(), "cloudflare");
        scanner.harvest_fleet(&w, &snapshot);
        assert!(
            scanner.fleet_size() > 10,
            "fleet {} too small",
            scanner.fleet_size()
        );
        // Every harvested address really is a Cloudflare nameserver.
        for (host, addr) in scanner.fleet() {
            assert_eq!(
                w.provider(ProviderId::Cloudflare).ns_address(host),
                Some(addr)
            );
        }
    }

    #[test]
    fn active_customers_answer_with_edge_addresses() {
        let w = world();
        let targets = targets(&w);
        let mut collector = RecordCollector::new(w.clock(), Region::Ashburn);
        let snapshot = collector.collect(&w, &targets, 0);
        let mut scanner = CloudflareScanner::new(w.clock(), "cloudflare");
        scanner.harvest_fleet(&w, &snapshot);
        let results = scan(&mut scanner, &w, &targets, 0);
        assert!(!results.is_empty(), "active customers respond");
        // All answered sites are (or recently were) Cloudflare-involved.
        let cf = w.provider(ProviderId::Cloudflare);
        let mut edge_answers = 0;
        for addrs in results.values() {
            if addrs.iter().any(|a| cf.is_edge_address(*a)) {
                edge_answers += 1;
            }
        }
        assert!(edge_answers > 0, "active customers dominate the raw scan");
    }

    #[test]
    fn non_customers_are_ignored() {
        let w = world();
        let targets = targets(&w);
        let mut collector = RecordCollector::new(w.clock(), Region::Ashburn);
        let snapshot = collector.collect(&w, &targets, 0);
        let mut scanner = CloudflareScanner::new(w.clock(), "cloudflare");
        scanner.harvest_fleet(&w, &snapshot);
        let results = scan(&mut scanner, &w, &targets, 0);
        let plain_site = w
            .sites()
            .iter()
            .find(|s| s.state == SiteState::SelfHosted)
            .unwrap();
        assert!(!results.contains_key(&(plain_site.id.0 as usize)));
        let (sent, answered) = scan_counters(&scanner);
        assert!(answered < sent, "most queries are ignored");
    }

    #[test]
    fn terminated_customer_reveals_origin_in_scan() {
        let mut w = world();
        let targets = targets(&w);
        let mut collector = RecordCollector::new(w.clock(), Region::Ashburn);
        let snapshot = collector.collect(&w, &targets, 0);
        let mut scanner = CloudflareScanner::new(w.clock(), "cloudflare");
        scanner.harvest_fleet(&w, &snapshot);

        // A Cloudflare NS customer switches to Fastly, informing Cloudflare.
        let victim = w
            .sites()
            .iter()
            .find(|s| {
                matches!(
                    s.state,
                    SiteState::Dps {
                        provider: ProviderId::Cloudflare,
                        rerouting: ReroutingMethod::Ns,
                        paused: false,
                        ..
                    }
                )
            })
            .unwrap()
            .clone();
        w.force_switch(
            victim.id,
            ProviderId::Fastly,
            ReroutingMethod::Cname,
            ServicePlan::Pro,
            true,
        );
        w.step_days(1);

        let results = scan(&mut scanner, &w, &targets, 1);
        let revealed = results
            .get(&(victim.id.0 as usize))
            .expect("previous provider still answers");
        assert_eq!(
            revealed,
            &vec![victim.origin],
            "residual resolution leaks the origin"
        );
    }

    #[test]
    fn sharded_scan_matches_sequential() {
        let w = world();
        let targets = targets(&w);
        let mut collector = RecordCollector::new(w.clock(), Region::Ashburn);
        let snapshot = collector.collect(&w, &targets, 0);
        let mut scanner = CloudflareScanner::new(w.clock(), "cloudflare");
        scanner.harvest_fleet(&w, &snapshot);

        let sequential = sequential_scan(&scanner, &w, &targets, 0);
        let engine = |workers| {
            ScanEngine::new(EngineConfig {
                workers,
                shard_size: 64,
                seed: 2,
            })
        };
        let (r1, s1) = scanner.scan_with(&engine(1), &w, &targets, 0);
        let (r8, s8) = scanner.scan_with(&engine(8), &w, &targets, 0);
        assert_eq!(
            sequential, r1,
            "engine path answers match the sequential scan"
        );
        assert_eq!(r1, r8, "worker count never changes the scan");
        assert_eq!(s1.shards, s8.shards);
        assert_eq!(s1.queries(), targets.len() as u64);
        let (sent, answered) = scan_counters(&scanner);
        assert_eq!(sent, 2 * targets.len() as u64);
        assert!(answered < sent);
    }

    #[test]
    fn scan_without_fleet_is_empty() {
        let w = world();
        let targets = targets(&w);
        let mut scanner = CloudflareScanner::new(w.clock(), "cloudflare");
        assert!(scan(&mut scanner, &w, &targets, 0).is_empty());
    }
}
