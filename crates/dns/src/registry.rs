//! The delegation registry — the collapsed root/TLD layer.
//!
//! When a website joins an NS-based DPS (e.g. Cloudflare), its administrator
//! "configures these nameservers as its authoritative nameservers via its
//! domain control panel" (Sec II-A.2). That control panel ultimately edits
//! the TLD zone. [`Registry`] collapses root + TLD into one component: it
//! stores, per registered apex domain, the delegation NS set with glue
//! addresses, and answers queries with referrals exactly like a TLD server.
//!
//! Crucially for the vulnerability: changing a delegation here does *not*
//! invalidate NS records already cached by resolvers — those keep pointing
//! at the previous DPS provider until their (long) TTL expires, which is why
//! providers keep answering (Sec VI-A).

use std::collections::BTreeMap;

use remnant_sim::SimTime;

use crate::authority::Authoritative;
use crate::message::{Query, Rcode, Response};
use crate::name::DomainName;
use crate::record::{RecordData, ResourceRecord, Ttl};

/// Default TTL for delegation NS records — two days, matching the long NS
/// TTLs the paper cites as the reason stale delegations persist (\[24\], \[25\]).
pub const DELEGATION_TTL: Ttl = Ttl::days(2);

/// One registered delegation: nameserver hostnames plus glue addresses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Delegation {
    /// `(nameserver hostname, glue IPv4 address)` pairs.
    pub nameservers: Vec<(DomainName, std::net::Ipv4Addr)>,
    /// TTL applied to the NS and glue records.
    pub ttl: Ttl,
}

/// The root/TLD delegation registry.
///
/// # Example
///
/// ```
/// use remnant_dns::{DomainName, Registry};
///
/// let mut registry = Registry::new();
/// let apex: DomainName = "example.com".parse()?;
/// registry.delegate(apex.clone(), vec![("kate.ns.cloudflare.com".parse()?, "173.245.59.1".parse()?)]);
/// assert!(registry.delegation(&apex).is_some());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Registry {
    delegations: BTreeMap<DomainName, Delegation>,
    /// Per-apex delegation generation. Bumped on every `delegate`/`undelegate`
    /// and kept after removal, so re-registering an apex never repeats an old
    /// generation. Compared only for equality (see [`ZoneGenerationProbe`]).
    generations: BTreeMap<DomainName, u64>,
}

/// A cheap probe for "has this apex's authoritative data changed?".
///
/// Implementors return a generation counter per apex that changes whenever
/// the answers the authority would give for that apex could have changed.
/// Equal generations across two probes guarantee identical answers; the
/// numeric value carries no other meaning (no ordering, no deltas).
pub trait ZoneGenerationProbe {
    /// The current generation for one apex. Unknown apexes return 0.
    fn generation_of(&self, apex: &DomainName) -> u64;

    /// Batched probe over many apexes, in input order. The default loops
    /// over [`ZoneGenerationProbe::generation_of`]; implementors with a
    /// cheaper bulk path may override it.
    fn generations_for(&self, apexes: &[&DomainName]) -> Vec<u64> {
        apexes.iter().map(|apex| self.generation_of(apex)).collect()
    }
}

impl ZoneGenerationProbe for Registry {
    fn generation_of(&self, apex: &DomainName) -> u64 {
        self.generations.get(apex).copied().unwrap_or(0)
    }
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Registers (or replaces) the delegation for `apex` with the default
    /// two-day TTL.
    pub fn delegate(
        &mut self,
        apex: DomainName,
        nameservers: Vec<(DomainName, std::net::Ipv4Addr)>,
    ) {
        self.delegate_with_ttl(apex, nameservers, DELEGATION_TTL);
    }

    /// Registers (or replaces) the delegation for `apex` with a custom TTL.
    pub fn delegate_with_ttl(
        &mut self,
        apex: DomainName,
        nameservers: Vec<(DomainName, std::net::Ipv4Addr)>,
        ttl: Ttl,
    ) {
        *self.generations.entry(apex.clone()).or_insert(0) += 1;
        self.delegations
            .insert(apex, Delegation { nameservers, ttl });
    }

    /// Removes the delegation for `apex`, returning it.
    pub fn undelegate(&mut self, apex: &DomainName) -> Option<Delegation> {
        let removed = self.delegations.remove(apex);
        if removed.is_some() {
            *self.generations.entry(apex.clone()).or_insert(0) += 1;
        }
        removed
    }

    /// The delegation for exactly `apex`, if registered.
    pub fn delegation(&self, apex: &DomainName) -> Option<&Delegation> {
        self.delegations.get(apex)
    }

    /// The registered apex covering `name` (longest registered suffix), with
    /// its delegation.
    pub fn covering_delegation(&self, name: &DomainName) -> Option<(DomainName, &Delegation)> {
        name.suffixes()
            .find_map(|suffix| self.delegations.get(&suffix).map(|d| (suffix.clone(), d)))
    }

    /// Number of registered apexes.
    pub fn len(&self) -> usize {
        self.delegations.len()
    }

    /// True if nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.delegations.is_empty()
    }

    /// Builds the referral response for `query` against `apex`/`delegation`.
    fn referral_for(query: &Query, apex: &DomainName, delegation: &Delegation) -> Response {
        let authority = delegation
            .nameservers
            .iter()
            .map(|(host, _)| {
                ResourceRecord::new(apex.clone(), delegation.ttl, RecordData::Ns(host.clone()))
            })
            .collect::<Vec<_>>();
        let additional = delegation
            .nameservers
            .iter()
            .map(|(host, addr)| {
                ResourceRecord::new(host.clone(), delegation.ttl, RecordData::A(*addr))
            })
            .collect::<Vec<_>>();
        Response::referral(query.clone(), authority, additional)
    }
}

impl Authoritative for Registry {
    /// Answers like a TLD server: referrals for registered names, NXDOMAIN
    /// for unregistered ones. Never ignores a query — the registry models
    /// well-run TLD infrastructure.
    fn answer(&self, _now: SimTime, query: &Query) -> Option<Response> {
        match self.covering_delegation(&query.name) {
            Some((apex, delegation)) => Some(Self::referral_for(query, &apex, delegation)),
            None => Some(Response::empty(query.clone(), Rcode::NxDomain)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RecordType;
    use std::net::Ipv4Addr;

    fn name(s: &str) -> DomainName {
        s.parse().expect("test name")
    }

    fn registry() -> Registry {
        let mut r = Registry::new();
        r.delegate(
            name("example.com"),
            vec![
                (
                    name("kate.ns.cloudflare.com"),
                    Ipv4Addr::new(173, 245, 59, 1),
                ),
                (
                    name("rob.ns.cloudflare.com"),
                    Ipv4Addr::new(173, 245, 59, 2),
                ),
            ],
        );
        r
    }

    #[test]
    fn referral_includes_ns_and_glue() {
        let r = registry();
        let resp = r
            .answer(
                SimTime::EPOCH,
                &Query::new(name("www.example.com"), RecordType::A),
            )
            .unwrap();
        assert!(resp.is_referral());
        assert_eq!(resp.authority.len(), 2);
        assert_eq!(resp.additional.len(), 2);
        // NS owner is the apex, not the queried subdomain.
        assert_eq!(resp.authority[0].name, name("example.com"));
        assert_eq!(resp.authority[0].ttl, DELEGATION_TTL);
    }

    #[test]
    fn unregistered_is_nxdomain() {
        let r = registry();
        let resp = r
            .answer(
                SimTime::EPOCH,
                &Query::new(name("www.unknown.net"), RecordType::A),
            )
            .unwrap();
        assert_eq!(resp.rcode, Rcode::NxDomain);
    }

    #[test]
    fn redelegation_replaces() {
        let mut r = registry();
        r.delegate(
            name("example.com"),
            vec![(name("ns1.newdps.net"), Ipv4Addr::new(9, 9, 9, 9))],
        );
        let d = r.delegation(&name("example.com")).unwrap();
        assert_eq!(d.nameservers.len(), 1);
        assert_eq!(d.nameservers[0].0, name("ns1.newdps.net"));
    }

    #[test]
    fn undelegate_removes() {
        let mut r = registry();
        assert!(r.undelegate(&name("example.com")).is_some());
        assert!(r.is_empty());
        assert!(r.undelegate(&name("example.com")).is_none());
    }

    #[test]
    fn covering_delegation_prefers_longest_suffix() {
        let mut r = registry();
        r.delegate(
            name("sub.example.com"),
            vec![(name("ns.sub-host.net"), Ipv4Addr::new(8, 8, 8, 8))],
        );
        let (apex, _) = r.covering_delegation(&name("www.sub.example.com")).unwrap();
        assert_eq!(apex, name("sub.example.com"));
        let (apex, _) = r.covering_delegation(&name("www.example.com")).unwrap();
        assert_eq!(apex, name("example.com"));
    }

    #[test]
    fn generations_track_delegation_changes() {
        let mut r = Registry::new();
        let apex = name("example.com");
        let other = name("other.net");
        assert_eq!(r.generation_of(&apex), 0);
        r.delegate(
            apex.clone(),
            vec![(name("ns1.webhost1.net"), Ipv4Addr::new(1, 1, 1, 1))],
        );
        assert_eq!(r.generation_of(&apex), 1);
        // Re-delegation (provider switch) bumps again.
        r.delegate(
            apex.clone(),
            vec![(name("kate.ns.cloudflare.com"), Ipv4Addr::new(2, 2, 2, 2))],
        );
        assert_eq!(r.generation_of(&apex), 2);
        // Removal bumps; removing nothing does not.
        assert!(r.undelegate(&apex).is_some());
        assert_eq!(r.generation_of(&apex), 3);
        assert!(r.undelegate(&apex).is_none());
        assert_eq!(r.generation_of(&apex), 3);
        // Re-registration continues the counter instead of restarting it.
        r.delegate(
            apex.clone(),
            vec![(name("ns1.webhost1.net"), Ipv4Addr::new(1, 1, 1, 1))],
        );
        assert_eq!(r.generation_of(&apex), 4);
        // Batched probe preserves input order and defaults unknowns to 0.
        assert_eq!(r.generations_for(&[&other, &apex]), vec![0, 4]);
    }

    #[test]
    fn custom_ttl_is_used() {
        let mut r = Registry::new();
        r.delegate_with_ttl(
            name("fast.com"),
            vec![(name("ns.fast.com"), Ipv4Addr::new(1, 1, 1, 1))],
            Ttl::secs(60),
        );
        let resp = r
            .answer(SimTime::EPOCH, &Query::new(name("fast.com"), RecordType::A))
            .unwrap();
        assert_eq!(resp.authority[0].ttl, Ttl::secs(60));
    }
}
