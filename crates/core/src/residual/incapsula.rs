//! CNAME-token tracking for CNAME-based residual resolution
//! (Sec V-B: the Incapsula case study).

use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;

use remnant_dns::{CountingTransport, DnsTransport, DomainName, RecordType, RecursiveResolver};
use remnant_engine::{ScanEngine, SweepStats};
use remnant_net::Region;
use remnant_obs::{transport_counters, Instrumented, MetricKey};
use remnant_sim::SimClock;

use crate::collector::export_resolver;
use crate::matchers::LabelNeedle;
use crate::residual::INCAPSULA_CNAME_FINGERPRINT;
use crate::snapshot::{DnsSnapshot, RecordBlock};

/// A block's customer tokens: `(block-local site, first CNAME whose labels
/// contain `cname_substring`)`, in site order. This is the record walk
/// behind both
/// [`DerivedColumn::incap_tokens`](crate::classify::DerivedColumn::incap_tokens)
/// and an [`IncapsulaScanner`] built with another substring.
/// A standard fingerprint is read from each name's verdict word.
pub fn token_candidates(block: &RecordBlock, cname_substring: &str) -> Vec<(u32, DomainName)> {
    let needle = LabelNeedle::new(cname_substring);
    block
        .sites()
        .enumerate()
        .filter_map(|(i, site)| {
            site.cnames
                .iter()
                .find(|cname| needle.matches(cname))
                .map(|token| (i as u32, token.clone()))
        })
        .collect()
}

/// Scanner for CNAME-based residual resolution.
///
/// The attacker must first *collect* the per-customer CNAME tokens while
/// they are observable — "the adversary would first need to collect the
/// CNAME record associated with the previous DPS provider" (Sec III-B) —
/// and can then keep resolving them after the customer moves away.
#[derive(Debug)]
pub struct IncapsulaScanner {
    clock: SimClock,
    /// Fingerprint substring identifying this provider's tokens.
    cname_substring: String,
    /// Harvested tokens: site rank -> token name.
    harvested: BTreeMap<usize, DomainName>,
    queries: u64,
    /// Tokens whose resolution still produced addresses.
    answered: u64,
}

impl IncapsulaScanner {
    /// Creates a scanner harvesting CNAMEs containing `cname_substring`
    /// (Incapsula: `"incapdns"`).
    pub fn new(clock: SimClock, cname_substring: impl Into<String>) -> Self {
        IncapsulaScanner {
            cname_substring: cname_substring.into(),
            harvested: BTreeMap::new(),
            clock,
            queries: 0,
            answered: 0,
        }
    }

    /// Number of distinct customer tokens harvested.
    pub fn harvested_count(&self) -> usize {
        self.harvested.len()
    }

    /// The harvested tokens.
    pub fn harvested(&self) -> impl Iterator<Item = (usize, &DomainName)> {
        self.harvested.iter().map(|(r, t)| (*r, t))
    }

    /// Harvests tokens from one usage-study snapshot. A newer token for the
    /// same site replaces the old one (re-enrollments rotate tokens).
    ///
    /// With the standard fingerprint ([`INCAPSULA_CNAME_FINGERPRINT`])
    /// every block's carried tokens
    /// ([`DerivedColumn::incap_tokens`](crate::classify::DerivedColumn::incap_tokens))
    /// are folded and no record is read; any other substring walks the
    /// records.
    pub fn harvest(&mut self, snapshot: &DnsSnapshot) {
        for (base_rank, source) in snapshot.block_sources() {
            let walked;
            let tokens = if self.cname_substring == INCAPSULA_CNAME_FINGERPRINT {
                &source.derived().incap_tokens
            } else {
                walked = token_candidates(&source.load(), &self.cname_substring);
                &walked
            };
            for (i, token) in tokens {
                self.harvested
                    .insert(base_rank + *i as usize, token.clone());
            }
        }
    }

    /// One weekly scan, sharded over `engine`'s workers: resolves every
    /// harvested token's A record. Tokens that no longer resolve (rotated
    /// or purged) yield nothing.
    ///
    /// Each shard resolves through its own fresh cache-cold resolver, so
    /// the result map is identical to a sequential scan after a cache
    /// purge, for every worker count.
    pub fn scan_with<T: DnsTransport + Sync + ?Sized>(
        &mut self,
        engine: &ScanEngine,
        transport: &T,
    ) -> (HashMap<usize, Vec<Ipv4Addr>>, SweepStats) {
        let tokens: Vec<(usize, DomainName)> = self
            .harvested
            .iter()
            .map(|(rank, token)| (*rank, token.clone()))
            .collect();
        let clock = self.clock.clone();
        let sweep = engine.sweep(
            transport,
            &tokens,
            &engine.shard_plan(tokens.len()),
            None,
            |_shard| RecursiveResolver::new(clock.clone(), Region::Ashburn),
            |transport, resolver, scope, _i, (rank, token)| {
                let counting = CountingTransport::new(transport);
                let addrs = resolver
                    .resolve(&counting, token, RecordType::A)
                    .map(|res| res.addresses())
                    .unwrap_or_default();
                scope.add_queries(counting.query_stats().sent);
                (*rank, addrs)
            },
            |resolver, scope, answers| {
                export_resolver(&resolver, scope);
                answers
            },
        );
        self.queries += tokens.len() as u64;
        let results: HashMap<usize, Vec<Ipv4Addr>> = sweep
            .outputs
            .into_iter()
            .flatten()
            .filter(|(_, addrs)| !addrs.is_empty())
            .collect();
        self.answered += results.len() as u64;
        (results, sweep.stats)
    }
}

impl Instrumented for IncapsulaScanner {
    fn component(&self) -> &'static str {
        "core.incapsula_scanner"
    }

    fn counters(&self) -> Vec<(MetricKey, u64)> {
        let mut counters = transport_counters(self.queries, self.answered);
        counters.push((
            MetricKey::named("tokens.harvested"),
            self.harvested.len() as u64,
        ));
        counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::{RecordCollector, Target};
    use remnant_engine::EngineConfig;
    use remnant_provider::{ProviderId, ReroutingMethod, ServicePlan};
    use remnant_world::{SiteState, World, WorldConfig};

    fn world() -> World {
        World::generate(WorldConfig {
            population: 1_500,
            seed: 66,
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
    fn scan(scanner: &mut IncapsulaScanner, w: &World) -> HashMap<usize, Vec<Ipv4Addr>> {
        scanner
            .scan_with(&ScanEngine::new(EngineConfig::default()), w)
            .0
    }

    /// The naive sequential scan, as a test oracle: every harvested token
    /// through one cache-cold resolver, in rank order, without touching
    /// the scanner's counters.
    fn sequential_scan(scanner: &IncapsulaScanner, w: &World) -> HashMap<usize, Vec<Ipv4Addr>> {
        let mut resolver = RecursiveResolver::new(scanner.clock.clone(), Region::Ashburn);
        let mut results = HashMap::new();
        for (rank, token) in scanner.harvested() {
            if let Ok(res) = resolver.resolve(w, token, RecordType::A) {
                let addrs = res.addresses();
                if !addrs.is_empty() {
                    results.insert(rank, addrs);
                }
            }
        }
        results
    }

    fn incapsula_site(w: &World) -> remnant_world::Website {
        w.sites()
            .iter()
            .find(|s| {
                matches!(
                    s.state,
                    SiteState::Dps {
                        provider: ProviderId::Incapsula,
                        paused: false,
                        ..
                    }
                )
            })
            .expect("incapsula customers exist at this scale")
            .clone()
    }

    #[test]
    fn harvest_collects_only_matching_tokens() {
        let w = world();
        let targets = targets(&w);
        let mut collector = RecordCollector::new(w.clock(), Region::Ashburn);
        let snapshot = collector.collect(&w, &targets, 0);
        let mut scanner = IncapsulaScanner::new(w.clock(), "incapdns");
        scanner.harvest(&snapshot);
        assert!(scanner.harvested_count() > 0);
        for (_, token) in scanner.harvested() {
            assert!(token.contains_label_substring("incapdns"));
        }
        // Harvest ratio is roughly Incapsula's market share of DPS sites.
        let incap_customers = w.provider(ProviderId::Incapsula).customer_count();
        assert!(scanner.harvested_count() <= incap_customers);
    }

    #[test]
    fn active_tokens_resolve_to_edges() {
        let w = world();
        let targets = targets(&w);
        let mut collector = RecordCollector::new(w.clock(), Region::Ashburn);
        let snapshot = collector.collect(&w, &targets, 0);
        let mut scanner = IncapsulaScanner::new(w.clock(), "incapdns");
        scanner.harvest(&snapshot);
        let results = scan(&mut scanner, &w);
        assert!(!results.is_empty());
        let incap = w.provider(ProviderId::Incapsula);
        for addrs in results.values() {
            assert!(addrs.iter().all(|a| incap.is_edge_address(*a)));
        }
    }

    #[test]
    fn token_keeps_resolving_to_origin_after_switch() {
        let mut w = world();
        let targets = targets(&w);
        let mut collector = RecordCollector::new(w.clock(), Region::Ashburn);
        let snapshot = collector.collect(&w, &targets, 0);
        let mut scanner = IncapsulaScanner::new(w.clock(), "incapdns");
        scanner.harvest(&snapshot);

        let victim = incapsula_site(&w);
        w.force_switch(
            victim.id,
            ProviderId::Cloudflare,
            ReroutingMethod::Ns,
            ServicePlan::Free,
            true,
        );
        w.step_days(3);

        let results = scan(&mut scanner, &w);
        let revealed = results
            .get(&(victim.id.0 as usize))
            .expect("stale token still resolves");
        assert_eq!(revealed, &vec![victim.origin], "token leaks the origin");
    }

    #[test]
    fn sharded_scan_matches_sequential() {
        let w = world();
        let targets = targets(&w);
        let mut collector = RecordCollector::new(w.clock(), Region::Ashburn);
        let snapshot = collector.collect(&w, &targets, 0);
        let mut scanner = IncapsulaScanner::new(w.clock(), "incapdns");
        scanner.harvest(&snapshot);

        let sequential = sequential_scan(&scanner, &w);
        let engine = |workers| {
            ScanEngine::new(EngineConfig {
                workers,
                shard_size: 8,
                seed: 3,
            })
        };
        let (r1, s1) = scanner.scan_with(&engine(1), &w);
        let (r6, s6) = scanner.scan_with(&engine(6), &w);
        assert_eq!(
            sequential, r1,
            "engine path answers match the sequential scan"
        );
        assert_eq!(r1, r6, "worker count never changes the scan");
        assert_eq!(s1.shards, s6.shards);
        let sent = scanner
            .counters()
            .iter()
            .find(|(k, _)| *k == MetricKey::named(remnant_obs::TRANSPORT_SENT))
            .map(|(_, v)| *v)
            .expect("sent counter present");
        assert_eq!(sent, 2 * scanner.harvested_count() as u64);
    }

    #[test]
    fn rotated_token_goes_dark_after_reenrollment() {
        let mut w = world();
        let targets = targets(&w);
        let mut collector = RecordCollector::new(w.clock(), Region::Ashburn);
        let snapshot = collector.collect(&w, &targets, 0);
        let mut scanner = IncapsulaScanner::new(w.clock(), "incapdns");
        scanner.harvest(&snapshot);

        let victim = incapsula_site(&w);
        // Leave and immediately rejoin Incapsula: the token rotates and
        // the old harvested token dies.
        w.force_leave(victim.id, true);
        w.step_hours(1);
        w.force_join(
            victim.id,
            ProviderId::Incapsula,
            ReroutingMethod::Cname,
            ServicePlan::Pro,
        );
        w.step_days(1);

        let results = scan(&mut scanner, &w);
        assert!(
            !results.contains_key(&(victim.id.0 as usize)),
            "old token must be NXDOMAIN after rotation"
        );
    }
}
