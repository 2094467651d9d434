//! HTML verification (Sec IV-C.3): does a candidate IP address serve the
//! same website as the one served through its (new) front-end?
//!
//! The procedure: GET the landing page from the reference address (IP2,
//! typically the current DPS edge) with the site's Host header; GET the
//! same URL from the candidate address (IP1, the suspected origin);
//! compare titles and meta tags. The paper notes the result is a lower
//! bound: dynamic meta tags and DPS-only origin firewalls produce false
//! negatives, both of which surface here as non-`Verified` outcomes.

use std::fmt;
use std::net::Ipv4Addr;

use remnant_http::{compare::compare_pages, HttpRequest, HttpTransport, MatchVerdict};
use remnant_obs::{Instrumented, MetricKey};
use remnant_sim::SimTime;

/// The outcome of one verification attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VerifyOutcome {
    /// Both fetches succeeded and titles + meta tags agree: the candidate
    /// serves the same site.
    Verified,
    /// Both fetches succeeded but the pages differ.
    Mismatch(MatchVerdict),
    /// The reference (IP2) fetch failed — nothing to compare against.
    ReferenceUnavailable,
    /// The candidate (IP1) fetch failed (dead host or firewall drop).
    CandidateUnavailable,
}

impl VerifyOutcome {
    /// True only for [`VerifyOutcome::Verified`].
    pub const fn is_verified(self) -> bool {
        matches!(self, VerifyOutcome::Verified)
    }

    /// Stable label for metric dimensions.
    pub const fn label(self) -> &'static str {
        match self {
            VerifyOutcome::Verified => "verified",
            VerifyOutcome::Mismatch(_) => "mismatch",
            VerifyOutcome::ReferenceUnavailable => "reference_unavailable",
            VerifyOutcome::CandidateUnavailable => "candidate_unavailable",
        }
    }
}

/// One counter slot per [`VerifyOutcome`] label, in label order.
const OUTCOME_LABELS: [&str; 4] = [
    "verified",
    "mismatch",
    "reference_unavailable",
    "candidate_unavailable",
];

impl fmt::Display for VerifyOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyOutcome::Verified => f.write_str("verified"),
            VerifyOutcome::Mismatch(v) => write!(f, "mismatch ({v})"),
            VerifyOutcome::ReferenceUnavailable => f.write_str("reference unavailable"),
            VerifyOutcome::CandidateUnavailable => f.write_str("candidate unavailable"),
        }
    }
}

/// The HTML verifier: a scanner host fetching landing pages.
#[derive(Clone, Copy, Debug)]
pub struct HtmlVerifier {
    src: Ipv4Addr,
    attempts: u64,
    /// Outcome tallies, indexed like [`OUTCOME_LABELS`].
    outcomes: [u64; OUTCOME_LABELS.len()],
}

impl HtmlVerifier {
    /// Creates a verifier fetching from source address `src`.
    pub fn new(src: Ipv4Addr) -> Self {
        HtmlVerifier {
            src,
            attempts: 0,
            outcomes: [0; OUTCOME_LABELS.len()],
        }
    }

    /// Verifies whether `candidate` (IP1) serves the same site as
    /// `reference` (IP2) for `host`.
    pub fn verify<T: HttpTransport>(
        &mut self,
        transport: &mut T,
        now: SimTime,
        host: &str,
        reference: Ipv4Addr,
        candidate: Ipv4Addr,
    ) -> VerifyOutcome {
        self.attempts += 1;
        let reference_doc = match transport
            .get(now, reference, &HttpRequest::landing(self.src, host))
            .filter(|r| r.is_ok())
            .and_then(|r| r.document)
        {
            Some(doc) => doc,
            None => return self.finish(VerifyOutcome::ReferenceUnavailable),
        };
        let candidate_doc = match transport
            .get(now, candidate, &HttpRequest::landing(self.src, host))
            .filter(|r| r.is_ok())
            .and_then(|r| r.document)
        {
            Some(doc) => doc,
            None => return self.finish(VerifyOutcome::CandidateUnavailable),
        };
        match compare_pages(&reference_doc, &candidate_doc) {
            MatchVerdict::Match => self.finish(VerifyOutcome::Verified),
            verdict => self.finish(VerifyOutcome::Mismatch(verdict)),
        }
    }

    /// Tallies `outcome` before returning it.
    fn finish(&mut self, outcome: VerifyOutcome) -> VerifyOutcome {
        let slot = OUTCOME_LABELS
            .iter()
            .position(|l| *l == outcome.label())
            .expect("every outcome has a label slot");
        self.outcomes[slot] += 1;
        outcome
    }
}

impl Instrumented for HtmlVerifier {
    fn component(&self) -> &'static str {
        "core.html_verifier"
    }

    fn counters(&self) -> Vec<(MetricKey, u64)> {
        let mut counters = vec![(MetricKey::named("verify.attempts"), self.attempts)];
        for (label, count) in OUTCOME_LABELS.iter().zip(self.outcomes) {
            counters.push((
                MetricKey::labeled("verify.outcomes", &[("outcome", label)]),
                count,
            ));
        }
        counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SCANNER_SOURCE;
    use remnant_dns::{DnsTransport, RecordType, RecursiveResolver};
    use remnant_net::Region;
    use remnant_world::{World, WorldConfig};

    fn world() -> World {
        World::generate(WorldConfig {
            population: 400,
            seed: 21,
            warmup_days: 0,
            calibration: remnant_world::Calibration::paper(),
        })
    }

    /// Resolve a site's current public serving address.
    fn public_addr(world: &mut World, www: &remnant_dns::DomainName) -> Ipv4Addr {
        let mut resolver = RecursiveResolver::new(world.clock(), Region::Oregon);
        *resolver
            .resolve(world, www, RecordType::A)
            .unwrap()
            .addresses()
            .last()
            .unwrap()
    }

    #[test]
    fn protected_site_origin_verifies_through_edge() {
        let mut w = world();
        let site = w
            .sites()
            .iter()
            .find(|s| s.state.is_protected() && !s.firewalled && !s.dynamic_meta)
            .unwrap()
            .clone();
        let edge = public_addr(&mut w, &site.www);
        let now = w.now();
        let mut verifier = HtmlVerifier::new(SCANNER_SOURCE);
        let outcome = verifier.verify(&mut w, now, site.www.as_str(), edge, site.origin);
        assert_eq!(outcome, VerifyOutcome::Verified);

        let mut registry = remnant_obs::MetricsRegistry::new();
        verifier.export_into(&mut registry);
        let count = |labels: &[(&'static str, &str)]| {
            registry.counter_key(
                &MetricKey::labeled("verify.outcomes", labels)
                    .with_label("component", "core.html_verifier"),
            )
        };
        assert_eq!(
            registry.counter_key(
                &MetricKey::named("verify.attempts").with_label("component", "core.html_verifier")
            ),
            1
        );
        assert_eq!(count(&[("outcome", "verified")]), 1);
        assert_eq!(count(&[("outcome", "mismatch")]), 0);
    }

    #[test]
    fn wrong_candidate_mismatches() {
        let mut w = world();
        let site = w
            .sites()
            .iter()
            .find(|s| s.state.is_protected() && !s.firewalled && !s.dynamic_meta)
            .unwrap()
            .clone();
        let edge = public_addr(&mut w, &site.www);
        let now = w.now();
        let mut verifier = HtmlVerifier::new(SCANNER_SOURCE);
        // The parking service answers for any host but with a different
        // page: a title mismatch, not an unavailable candidate.
        let outcome = verifier.verify(
            &mut w,
            now,
            site.www.as_str(),
            edge,
            remnant_world::world::PARKING_IP,
        );
        assert!(matches!(outcome, VerifyOutcome::Mismatch(_)), "{outcome}");
    }

    #[test]
    fn foreign_origin_is_unavailable_not_mismatched() {
        // A different site's origin 404s for the wrong Host header, which
        // the verifier reports as an unavailable candidate.
        let mut w = world();
        let mut iter = w
            .sites()
            .iter()
            .filter(|s| s.state.is_protected() && !s.firewalled && !s.dynamic_meta);
        let site_a = iter.next().unwrap().clone();
        let site_b = iter.next().unwrap().clone();
        let edge = public_addr(&mut w, &site_a.www);
        let now = w.now();
        let mut verifier = HtmlVerifier::new(SCANNER_SOURCE);
        let outcome = verifier.verify(&mut w, now, site_a.www.as_str(), edge, site_b.origin);
        assert_eq!(outcome, VerifyOutcome::CandidateUnavailable);
    }

    #[test]
    fn dynamic_meta_produces_false_negative() {
        let mut w = world();
        let site = w
            .sites()
            .iter()
            .find(|s| s.state.is_protected() && !s.firewalled && s.dynamic_meta)
            .cloned();
        let Some(site) = site else { return };
        let edge = public_addr(&mut w, &site.www);
        let now = w.now();
        let mut verifier = HtmlVerifier::new(SCANNER_SOURCE);
        let outcome = verifier.verify(&mut w, now, site.www.as_str(), edge, site.origin);
        assert_eq!(
            outcome,
            VerifyOutcome::Mismatch(MatchVerdict::MetaMismatch),
            "dynamic meta defeats title+meta comparison"
        );
    }

    #[test]
    fn firewalled_candidate_is_unavailable() {
        let mut w = world();
        let site = w
            .sites()
            .iter()
            .find(|s| s.state.is_protected() && s.firewalled)
            .cloned();
        let Some(site) = site else { return };
        let edge = public_addr(&mut w, &site.www);
        let now = w.now();
        let mut verifier = HtmlVerifier::new(SCANNER_SOURCE);
        let outcome = verifier.verify(&mut w, now, site.www.as_str(), edge, site.origin);
        assert_eq!(outcome, VerifyOutcome::CandidateUnavailable);
    }

    #[test]
    fn dead_reference_reports_reference_unavailable() {
        let mut w = world();
        let site = w.sites()[0].clone();
        let now = w.now();
        let mut verifier = HtmlVerifier::new(SCANNER_SOURCE);
        let outcome = verifier.verify(
            &mut w,
            now,
            site.www.as_str(),
            Ipv4Addr::new(203, 0, 113, 99), // nothing listens here
            site.origin,
        );
        assert_eq!(outcome, VerifyOutcome::ReferenceUnavailable);
    }

    #[test]
    fn world_query_trait_disambiguation_compiles() {
        // Both transports on one World value in one scope.
        let mut w = world();
        let site = w.sites()[0].clone();
        let now = w.now();
        let q = remnant_dns::Query::new(site.www.clone(), RecordType::A);
        let _ = DnsTransport::query(&w, now, Ipv4Addr::new(1, 1, 1, 1), Region::Oregon, &q);
        let mut verifier = HtmlVerifier::new(SCANNER_SOURCE);
        let _ = verifier.verify(&mut w, now, site.www.as_str(), site.origin, site.origin);
    }
}
