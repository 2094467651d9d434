//! The three-stage filtering procedure of Fig 8.
//!
//! 1. **IP-matching filter** — drop addresses inside the scanned provider's
//!    own ranges (those sites are *current* customers; nothing residual).
//! 2. **A-matching filter** — re-resolve each surviving site normally
//!    (`A_nor`) and keep `A_diff = A_IP − A_nor`: the **hidden records**
//!    only the DPS nameservers reveal.
//! 3. **HTML-verification filter** — a hidden record is only exploitable if
//!    it still points at the live origin; verify by fetching the landing
//!    page via the current public address and via the hidden address and
//!    comparing titles/meta (Sec IV-C.3).

use std::collections::HashMap;
use std::net::Ipv4Addr;

use remnant_dns::{DnsTransport, RecordType, RecursiveResolver};
use remnant_http::HttpTransport;
use remnant_net::Region;
use remnant_obs::{Instrumented, MetricKey, MetricsRegistry};
use remnant_provider::ProviderId;
use remnant_sim::SimClock;

use crate::collector::Target;
use crate::matchers::ProviderMatcher;
use crate::residual::HiddenRecord;
use crate::verify::{HtmlVerifier, VerifyOutcome};

/// One weekly pass through the pipeline, with per-stage counts (the Fig 8
/// funnel) and the Table VI outputs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WeeklyScanReport {
    /// Which provider was scanned.
    pub provider: ProviderId,
    /// Week index (0-based).
    pub week: u32,
    /// Sites whose direct query was answered with A records.
    pub retrieved: usize,
    /// Sites surviving the IP-matching filter.
    pub after_ip_matching: usize,
    /// Hidden records after the A-matching filter.
    pub hidden: Vec<HiddenRecord>,
    /// Ranks of hidden records verified as live origins.
    pub verified: Vec<usize>,
}

impl WeeklyScanReport {
    /// Verified fraction of hidden records, if any were found.
    pub fn verified_rate(&self) -> Option<f64> {
        (!self.hidden.is_empty()).then(|| self.verified.len() as f64 / self.hidden.len() as f64)
    }
}

/// The per-stage funnel counter names, in stage order. Each carries
/// `provider` and `week` labels, so the Fig 8 attrition table is
/// reproducible from recorded metrics alone.
pub const FUNNEL_STAGES: [&str; 4] = [
    "filter.retrieved",
    "filter.after_ip_matching",
    "filter.hidden",
    "filter.verified",
];

/// The reusable filter pipeline.
#[derive(Debug)]
pub struct FilterPipeline {
    clock: SimClock,
    matcher: ProviderMatcher,
    resolver: RecursiveResolver,
    verifier: HtmlVerifier,
    /// Per-stage funnel counters, labeled by provider and week.
    funnel: MetricsRegistry,
}

impl FilterPipeline {
    /// Creates a pipeline resolving normally from `region` and verifying
    /// from `scanner_src`.
    pub fn new(clock: SimClock, region: Region, scanner_src: Ipv4Addr) -> Self {
        FilterPipeline {
            resolver: RecursiveResolver::new(clock.clone(), region),
            clock,
            matcher: ProviderMatcher::new(),
            verifier: HtmlVerifier::new(scanner_src),
            funnel: MetricsRegistry::new(),
        }
    }

    /// The recorded funnel counters (one [`FUNNEL_STAGES`] quadruple per
    /// `(provider, week)` pass) plus the verifier's counter surface — the
    /// data behind the Fig 8 attrition table.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut metrics = self.funnel.clone();
        self.verifier.export_into(&mut metrics);
        metrics
    }

    /// Runs the full pipeline on one weekly raw scan result
    /// (`rank -> addresses retrieved from the DPS nameservers`).
    pub fn run<T: DnsTransport + HttpTransport>(
        &mut self,
        transport: &mut T,
        provider: ProviderId,
        week: u32,
        raw: &HashMap<usize, Vec<Ipv4Addr>>,
        targets: &[Target],
    ) -> WeeklyScanReport {
        // Stage 1: IP-matching filter.
        let mut survivors: Vec<(usize, Vec<Ipv4Addr>)> = raw
            .iter()
            .filter_map(|(rank, addrs)| {
                let outside: Vec<Ipv4Addr> = addrs
                    .iter()
                    .copied()
                    .filter(|a| self.matcher.a_match(*a) != Some(provider))
                    .collect();
                (!outside.is_empty()).then_some((*rank, outside))
            })
            .collect();
        survivors.sort_unstable_by_key(|(rank, _)| *rank);
        let after_ip_matching = survivors.len();

        // Stage 2: A-matching filter. One fresh resolution round.
        self.resolver.purge_cache();
        let mut hidden = Vec::new();
        for (rank, stored) in survivors {
            let (apex, www) = &targets[rank];
            let public = self
                .resolver
                .resolve(transport, www, RecordType::A)
                .map(|r| r.addresses())
                .unwrap_or_default();
            let diff: Vec<Ipv4Addr> = stored
                .iter()
                .copied()
                .filter(|a| !public.contains(a))
                .collect();
            if !diff.is_empty() {
                hidden.push(HiddenRecord {
                    rank,
                    apex: apex.clone(),
                    hidden: diff,
                    public,
                });
            }
        }

        // Stage 3: HTML verification filter.
        let now = self.clock.now();
        let mut verified = Vec::new();
        for record in &hidden {
            // The reference fetch goes through the current public
            // front-end; without one the record cannot be verified (the
            // paper's lower-bound caveat).
            let Some(reference) = record.public.last().copied() else {
                continue;
            };
            let host = targets[record.rank].1.as_str();
            let is_origin = record.hidden.iter().any(|candidate| {
                self.verifier
                    .verify(transport, now, host, reference, *candidate)
                    == VerifyOutcome::Verified
            });
            if is_origin {
                verified.push(record.rank);
            }
        }

        let report = WeeklyScanReport {
            provider,
            week,
            retrieved: raw.len(),
            after_ip_matching,
            hidden,
            verified,
        };
        self.record_funnel(&report);
        report
    }

    /// Records one pass's per-stage attrition into the funnel registry.
    fn record_funnel(&mut self, report: &WeeklyScanReport) {
        let week = report.week.to_string();
        for (stage, count) in FUNNEL_STAGES.into_iter().zip([
            report.retrieved,
            report.after_ip_matching,
            report.hidden.len(),
            report.verified.len(),
        ]) {
            self.funnel.add_key(
                MetricKey::labeled(
                    stage,
                    &[("provider", report.provider.name()), ("week", &week)],
                ),
                count as u64,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::RecordCollector;
    use crate::residual::CloudflareScanner;
    use crate::SCANNER_SOURCE;
    use remnant_engine::{EngineConfig, ScanEngine};
    use remnant_provider::{ReroutingMethod, ServicePlan};
    use remnant_world::{SiteState, World, WorldConfig};

    fn world() -> World {
        World::generate(WorldConfig {
            population: 600,
            seed: 77,
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

    /// One weekly Cloudflare scan on a one-worker engine.
    fn scan(
        scanner: &mut CloudflareScanner,
        world: &World,
        targets: &[Target],
    ) -> HashMap<usize, Vec<Ipv4Addr>> {
        let engine = ScanEngine::new(EngineConfig::default());
        scanner.scan_with(&engine, world, targets, 0).0
    }

    fn pipeline(world: &World) -> FilterPipeline {
        FilterPipeline::new(world.clock(), Region::Ashburn, SCANNER_SOURCE)
    }

    /// Scan Cloudflare and run the pipeline in a world where `mutate` was
    /// applied between harvest and scan.
    fn scan_after(
        world: &mut World,
        mutate: impl FnOnce(&mut World),
    ) -> (WeeklyScanReport, Vec<Target>) {
        let targets = targets(world);
        let mut collector = RecordCollector::new(world.clock(), Region::Ashburn);
        let snapshot = collector.collect(world, &targets, 0);
        let mut scanner = CloudflareScanner::new(world.clock(), "cloudflare");
        scanner.harvest_fleet(world, &snapshot);
        mutate(world);
        let raw = scan(&mut scanner, world, &targets);
        let report = pipeline(world).run(world, ProviderId::Cloudflare, 0, &raw, &targets);
        (report, targets)
    }

    fn cloudflare_ns_victim(w: &World, firewalled_ok: bool) -> remnant_world::Website {
        w.sites()
            .iter()
            .find(|s| {
                (firewalled_ok || (!s.firewalled && !s.dynamic_meta))
                    && matches!(
                        s.state,
                        SiteState::Dps {
                            provider: ProviderId::Cloudflare,
                            rerouting: ReroutingMethod::Ns,
                            paused: false,
                            ..
                        }
                    )
            })
            .expect("cloudflare NS customer exists")
            .clone()
    }

    #[test]
    fn steady_world_has_no_hidden_records() {
        let mut w = world();
        let (report, _) = scan_after(&mut w, |_| {});
        assert!(report.retrieved > 0, "active customers answer");
        assert_eq!(
            report.after_ip_matching, 0,
            "stage 1 removes all active customers"
        );
        assert!(report.hidden.is_empty());
        assert!(report.verified.is_empty());
        assert_eq!(report.verified_rate(), None);
    }

    #[test]
    fn switcher_with_kept_origin_is_hidden_and_verified() {
        let mut w = world();
        let victim = cloudflare_ns_victim(&w, false);
        let origin = victim.origin;
        let (report, _) = scan_after(&mut w, |w| {
            w.force_switch(
                victim.id,
                ProviderId::Fastly,
                ReroutingMethod::Cname,
                ServicePlan::Pro,
                true,
            );
            w.step_days(1);
        });
        let rank = victim.id.0 as usize;
        let record = report
            .hidden
            .iter()
            .find(|h| h.rank == rank)
            .expect("switcher's remnant is a hidden record");
        assert_eq!(record.hidden, vec![origin]);
        assert!(
            record.public.iter().all(|a| *a != origin),
            "public resolution shows the new provider"
        );
        assert!(report.verified.contains(&rank), "origin verified live");
    }

    #[test]
    fn paused_customer_is_not_hidden() {
        // Paused: the DPS answer equals the public answer (both origin), so
        // the A-matching filter removes it.
        let mut w = world();
        let victim = cloudflare_ns_victim(&w, true);
        let (report, _) = scan_after(&mut w, |w| {
            w.force_pause(victim.id);
            w.step_days(1);
        });
        assert!(
            !report.hidden.iter().any(|h| h.rank == victim.id.0 as usize),
            "pause is exposure, but not residual-hidden"
        );
    }

    #[test]
    fn leaver_self_hosting_same_origin_is_not_hidden() {
        let mut w = world();
        let victim = cloudflare_ns_victim(&w, true);
        let (report, _) = scan_after(&mut w, |w| {
            w.force_leave(victim.id, true);
            // Stale delegation NS TTL must expire for public resolution to
            // see the self-hosted zone again.
            w.step_days(3);
        });
        assert!(
            !report.hidden.iter().any(|h| h.rank == victim.id.0 as usize),
            "public A equals the stored origin, so A-matching filters it"
        );
    }

    #[test]
    fn funnel_counters_match_the_report() {
        let mut w = world();
        let victim = cloudflare_ns_victim(&w, false);
        let targets = targets(&w);
        let mut collector = RecordCollector::new(w.clock(), Region::Ashburn);
        let snapshot = collector.collect(&w, &targets, 0);
        let mut scanner = CloudflareScanner::new(w.clock(), "cloudflare");
        scanner.harvest_fleet(&w, &snapshot);
        w.force_switch(
            victim.id,
            ProviderId::Fastly,
            ReroutingMethod::Cname,
            ServicePlan::Pro,
            true,
        );
        w.step_days(1);
        let raw = scan(&mut scanner, &w, &targets);
        let mut p = pipeline(&w);
        let report = p.run(&mut w, ProviderId::Cloudflare, 0, &raw, &targets);

        // The Fig 8 funnel is reproducible from the recorded metrics alone.
        let metrics = p.metrics();
        let provider = ProviderId::Cloudflare.name();
        let stage = |name: &'static str| {
            metrics.counter_key(&remnant_obs::MetricKey::labeled(
                name,
                &[("provider", provider), ("week", "0")],
            ))
        };
        assert_eq!(stage("filter.retrieved"), report.retrieved as u64);
        assert_eq!(
            stage("filter.after_ip_matching"),
            report.after_ip_matching as u64
        );
        assert_eq!(stage("filter.hidden"), report.hidden.len() as u64);
        assert_eq!(stage("filter.verified"), report.verified.len() as u64);
        assert!(stage("filter.verified") > 0, "the switcher verifies");
        // The verifier's counters ride along under its component label.
        let attempts = metrics.counter_key(
            &remnant_obs::MetricKey::named("verify.attempts")
                .with_label("component", "core.html_verifier"),
        );
        assert!(attempts > 0);
    }

    #[test]
    fn verified_is_a_subset_of_hidden() {
        let mut w = world();
        let victim = cloudflare_ns_victim(&w, true);
        let (report, _) = scan_after(&mut w, |w| {
            w.force_switch(
                victim.id,
                ProviderId::Incapsula,
                ReroutingMethod::Cname,
                ServicePlan::Pro,
                true,
            );
            w.step_days(1);
        });
        let hidden_ranks: Vec<usize> = report.hidden.iter().map(|h| h.rank).collect();
        for rank in &report.verified {
            assert!(hidden_ranks.contains(rank));
        }
        assert!(report.after_ip_matching >= report.hidden.len());
        assert!(report.retrieved >= report.after_ip_matching);
    }
}
