//! The origin-IP unchanged study (Sec IV-C.3, Table V).
//!
//! For every observed JOIN or RESUME: IP1 is the address the site resolved
//! to *before* the action (its then-exposed origin), IP2 the address it
//! resolves to *after* (a DPS edge). Fetching the landing page via IP2 and
//! directly from IP1 and comparing titles/meta decides whether the site
//! kept its origin address — the unsafe practice the paper quantifies at
//! 58.6% overall.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use remnant_dns::DomainName;
use remnant_http::HttpTransport;
use remnant_provider::ProviderId;
use remnant_sim::SimTime;
use remnant_world::BehaviorKind;

use crate::behavior::ObservedBehavior;
use crate::collector::Target;
use crate::snapshot::DnsSnapshot;
use crate::verify::{HtmlVerifier, VerifyOutcome};

/// One JOIN/RESUME event eligible for the Table V check: everything the
/// verification fetch needs, detached from any live world.
///
/// Candidate extraction ([`candidates`]) is a pure function of two
/// snapshots and the diffed behaviors, so the `remnant-query` crate can
/// compute the same candidates from persisted rounds; only the
/// verification step ([`UnchangedStudy::observe_candidates`]) needs a
/// transport.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnchangedCandidate {
    /// The site's rank in the target list.
    pub rank: usize,
    /// The provider joined or resumed.
    pub provider: ProviderId,
    /// The www host the verification fetch addresses.
    pub host: DomainName,
    /// IP1: the address the site resolved to before the action.
    pub ip1: Ipv4Addr,
    /// IP2: the address it resolves to after (a DPS edge).
    pub ip2: Ipv4Addr,
}

/// Extracts the Table V candidates from one day's observed behaviors and
/// the two snapshots that produced them.
///
/// SWITCH is deliberately excluded (Sec IV-C.3: switching does not
/// require an address change but is covered by the residual study), as
/// are events without a target provider or without addresses on both
/// sides. Each snapshot loads every block holding an event at most once.
pub fn candidates(
    targets: &[Target],
    behaviors: &[ObservedBehavior],
    prev: &DnsSnapshot,
    curr: &DnsSnapshot,
) -> Vec<UnchangedCandidate> {
    let events: Vec<&ObservedBehavior> = behaviors
        .iter()
        .filter(|b| matches!(b.kind, BehaviorKind::Join | BehaviorKind::Resume))
        .collect();
    let ranks: Vec<usize> = events.iter().map(|b| b.rank).collect();
    let ip1s = prev.map_sites(&ranks, |site| site.a.first().copied());
    let ip2s = curr.map_sites(&ranks, |site| site.a.last().copied());
    events
        .into_iter()
        .zip(ip1s.into_iter().zip(ip2s))
        .filter_map(|(behavior, (ip1, ip2))| {
            Some(UnchangedCandidate {
                rank: behavior.rank,
                provider: behavior.to?,
                host: targets[behavior.rank].1.clone(),
                ip1: ip1.flatten()?,
                ip2: ip2.flatten()?,
            })
        })
        .collect()
}

/// Per-provider tally.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UnchangedTally {
    /// JOIN + RESUME events examined.
    pub events: u64,
    /// Events whose pre-action address still served the site (verified).
    pub unchanged: u64,
}

impl UnchangedTally {
    /// The unchanged rate, if any events were seen.
    pub fn rate(&self) -> Option<f64> {
        (self.events > 0).then(|| self.unchanged as f64 / self.events as f64)
    }
}

/// The streaming Table V study.
#[derive(Clone, Debug)]
pub struct UnchangedStudy {
    verifier: HtmlVerifier,
    tallies: BTreeMap<ProviderId, UnchangedTally>,
}

impl UnchangedStudy {
    /// Creates a study fetching from `scanner_src`.
    pub fn new(scanner_src: Ipv4Addr) -> Self {
        UnchangedStudy {
            verifier: HtmlVerifier::new(scanner_src),
            tallies: BTreeMap::new(),
        }
    }

    /// Verifies each candidate's pre-action address against its post-action
    /// edge and folds the outcome into the per-provider tallies.
    pub fn observe_candidates<T: HttpTransport>(
        &mut self,
        transport: &mut T,
        now: SimTime,
        candidates: &[UnchangedCandidate],
    ) {
        for candidate in candidates {
            let outcome = self.verifier.verify(
                transport,
                now,
                candidate.host.as_str(),
                candidate.ip2,
                candidate.ip1,
            );
            let tally = self.tallies.entry(candidate.provider).or_default();
            tally.events += 1;
            if outcome == VerifyOutcome::Verified {
                tally.unchanged += 1;
            }
        }
    }

    /// The tally for one provider.
    pub fn tally(&self, provider: ProviderId) -> UnchangedTally {
        self.tallies.get(&provider).copied().unwrap_or_default()
    }

    /// Table V rows: `(provider, events, unchanged, rate)` in catalog
    /// order, providers with no events omitted.
    pub fn rows(&self) -> Vec<(ProviderId, u64, u64, f64)> {
        ProviderId::ALL
            .into_iter()
            .filter_map(|p| {
                let t = self.tally(p);
                t.rate().map(|rate| (p, t.events, t.unchanged, rate))
            })
            .collect()
    }

    /// The bottom "Total" row of Table V.
    pub fn total(&self) -> UnchangedTally {
        let mut total = UnchangedTally::default();
        for tally in self.tallies.values() {
            total.events += tally.events;
            total.unchanged += tally.unchanged;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::RecordCollector;
    use crate::{DnsSnapshot, SnapshotPasses, SCANNER_SOURCE};
    use remnant_net::Region;
    use remnant_provider::{ReroutingMethod, ServicePlan};
    use remnant_world::{SiteState, World, WorldConfig};

    fn world() -> World {
        World::generate(WorldConfig {
            population: 400,
            seed: 33,
            warmup_days: 0,
            calibration: remnant_world::Calibration::paper(),
        })
    }

    /// The snapshot fold's behaviors between two consecutive rounds.
    fn behaviors(snap0: &DnsSnapshot, snap1: &DnsSnapshot) -> Vec<ObservedBehavior> {
        let mut passes = SnapshotPasses::new(snap0.len());
        passes.observe(0, snap0);
        passes.observe(1, snap1)
    }

    fn targets(world: &World) -> Vec<Target> {
        world
            .sites()
            .iter()
            .map(|s| (s.apex.clone(), s.www.clone()))
            .collect()
    }

    #[test]
    fn join_without_ip_change_counts_as_unchanged() {
        let mut w = world();
        let targets = targets(&w);
        let site = w
            .sites()
            .iter()
            .find(|s| s.state == SiteState::SelfHosted && !s.firewalled && !s.dynamic_meta)
            .unwrap()
            .clone();
        let mut collector = RecordCollector::new(w.clock(), Region::Ashburn);

        let snap0 = collector.collect(&w, &targets, 0);
        // The site joins Cloudflare keeping its origin.
        w.force_join(
            site.id,
            ProviderId::Cloudflare,
            ReroutingMethod::Ns,
            ServicePlan::Free,
        );
        w.step_hours(24);
        let snap1 = collector.collect(&w, &targets, 1);

        let behaviors = behaviors(&snap0, &snap1);
        assert!(behaviors
            .iter()
            .any(|b| b.rank == site.id.0 as usize && b.kind == BehaviorKind::Join));

        let now = w.now();
        let mut study = UnchangedStudy::new(SCANNER_SOURCE);
        let found = candidates(&targets, &behaviors, &snap0, &snap1);
        assert!(found
            .iter()
            .any(|c| c.rank == site.id.0 as usize && c.provider == ProviderId::Cloudflare));
        study.observe_candidates(&mut w, now, &found);
        let tally = study.tally(ProviderId::Cloudflare);
        assert!(tally.events >= 1);
        assert!(tally.unchanged >= 1, "origin kept and verifiable");
    }

    #[test]
    fn join_with_ip_change_counts_as_changed() {
        let mut w = world();
        let targets = targets(&w);
        let site = w
            .sites()
            .iter()
            .find(|s| s.state == SiteState::SelfHosted && !s.firewalled && !s.dynamic_meta)
            .unwrap()
            .clone();
        let mut collector = RecordCollector::new(w.clock(), Region::Ashburn);

        let snap0 = collector.collect(&w, &targets, 0);
        w.force_join(
            site.id,
            ProviderId::Cloudflare,
            ReroutingMethod::Ns,
            ServicePlan::Free,
        );
        w.step_hours(24);
        let snap1 = collector.collect(&w, &targets, 1);

        let behaviors = behaviors(&snap0, &snap1);
        let now = w.now();
        let mut study = UnchangedStudy::new(SCANNER_SOURCE);
        let found = candidates(&targets, &behaviors, &snap0, &snap1);
        study.observe_candidates(&mut w, now, &found);
        // Origin was kept in this variant, so it verifies; the changed-IP
        // path is exercised by the end-to-end study tests where the
        // dynamics engine rotates origins per Table V probabilities.
        assert!(study.total().events >= 1);
        assert_eq!(study.total().events, found.len() as u64);
    }

    #[test]
    fn switches_are_excluded() {
        let mut w = world();
        let targets = targets(&w);
        let site = w
            .sites()
            .iter()
            .find(|s| {
                matches!(
                    s.state,
                    SiteState::Dps {
                        provider: ProviderId::Cloudflare,
                        paused: false,
                        ..
                    }
                )
            })
            .unwrap()
            .clone();
        let mut collector = RecordCollector::new(w.clock(), Region::Ashburn);
        let snap0 = collector.collect(&w, &targets, 0);
        w.force_switch(
            site.id,
            ProviderId::Fastly,
            ReroutingMethod::Cname,
            ServicePlan::Pro,
            true,
        );
        w.step_hours(24);
        let snap1 = collector.collect(&w, &targets, 1);
        let behaviors = behaviors(&snap0, &snap1);
        assert!(behaviors
            .iter()
            .any(|b| b.rank == site.id.0 as usize && b.kind == BehaviorKind::Switch));
        let now = w.now();
        let mut study = UnchangedStudy::new(SCANNER_SOURCE);
        let found = candidates(&targets, &behaviors, &snap0, &snap1);
        assert!(
            !found.iter().any(|c| c.rank == site.id.0 as usize),
            "SWITCH produces no candidate"
        );
        study.observe_candidates(&mut w, now, &found);
        assert_eq!(study.total().events, 0, "SWITCH is excluded from Table V");
    }

    #[test]
    fn rates_and_rows() {
        let mut study = UnchangedStudy::new(SCANNER_SOURCE);
        study.tallies.insert(
            ProviderId::Cloudflare,
            UnchangedTally {
                events: 10,
                unchanged: 6,
            },
        );
        study.tallies.insert(
            ProviderId::Incapsula,
            UnchangedTally {
                events: 4,
                unchanged: 3,
            },
        );
        let rows = study.rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, ProviderId::Cloudflare);
        assert!((rows[0].3 - 0.6).abs() < 1e-9);
        let total = study.total();
        assert_eq!(total.events, 14);
        assert_eq!(total.unchanged, 9);
        assert_eq!(UnchangedTally::default().rate(), None);
    }
}
