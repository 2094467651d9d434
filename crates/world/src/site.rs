//! Websites: the population units of the synthetic Internet.

use std::fmt;
use std::net::Ipv4Addr;

use remnant_dns::DomainName;
use remnant_provider::{ProviderId, ReroutingMethod, ServicePlan};
use remnant_sim::SimTime;

/// Index of a site in the population (also its popularity rank, 0 = most
/// popular).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SiteId(pub u32);

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "site#{}", self.0)
    }
}

/// A site's current DPS arrangement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SiteState {
    /// Not using any DPS: self-hosted DNS, A record points at the origin.
    SelfHosted,
    /// Enrolled with a DPS provider.
    Dps {
        /// The provider.
        provider: ProviderId,
        /// The rerouting mechanism in use.
        rerouting: ReroutingMethod,
        /// The plan purchased.
        plan: ServicePlan,
        /// True while the customer has paused protection (OFF status).
        paused: bool,
    },
    /// Offline / parked: the apex resolves to a parking service.
    Dark,
}

impl SiteState {
    /// The provider, if enrolled.
    pub fn provider(&self) -> Option<ProviderId> {
        match self {
            SiteState::Dps { provider, .. } => Some(*provider),
            _ => None,
        }
    }

    /// True if enrolled and not paused.
    pub fn is_protected(&self) -> bool {
        matches!(self, SiteState::Dps { paused: false, .. })
    }

    /// True if enrolled (paused or not).
    pub fn is_enrolled(&self) -> bool {
        matches!(self, SiteState::Dps { .. })
    }
}

/// One website.
///
/// Page content, firewalling and dynamic-meta behavior are derived
/// deterministically from the site's identity; heavyweight server objects
/// are materialized lazily by the [`crate::World`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Website {
    /// Identity / popularity rank.
    pub id: SiteId,
    /// Apex domain.
    pub apex: DomainName,
    /// The portal host, `www.<apex>` (the study's probe name, Sec IV-A).
    pub www: DomainName,
    /// Current origin server address.
    pub origin: Ipv4Addr,
    /// Which shared hosting-DNS provider serves the site's own zone.
    pub hosting: u8,
    /// Origin firewalled to DPS edges only (verification false negative).
    pub firewalled: bool,
    /// The site publishes an apex MX record.
    pub has_mx: bool,
    /// The mail host shares the web origin's address (leaky when true).
    pub mx_colocated: bool,
    /// The site runs an unproxied `dev.<apex>` subdomain on the origin.
    pub leaky_subdomain: bool,
    /// Multi-CDN balancing (Cedexis-style): resolution alternates daily
    /// between these two providers. Such sites are excluded from the
    /// behavior study, as in the paper (Sec IV-B.3).
    pub multi_cdn: Option<(ProviderId, ProviderId)>,
    /// Landing page has dynamic meta tags (verification false negative).
    pub dynamic_meta: bool,
    /// Current DPS arrangement.
    pub state: SiteState,
    /// When a paused site plans to resume (`None` = no plan).
    pub scheduled_resume: Option<SimTime>,
}

impl fmt::Display for Website {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.apex, self.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site(state: SiteState) -> Website {
        Website {
            id: SiteId(3),
            apex: "example.com".parse().unwrap(),
            www: "www.example.com".parse().unwrap(),
            origin: Ipv4Addr::new(100, 64, 0, 1),
            hosting: 0,
            firewalled: false,
            has_mx: false,
            mx_colocated: false,
            leaky_subdomain: false,
            multi_cdn: None,
            dynamic_meta: false,
            state,
            scheduled_resume: None,
        }
    }

    #[test]
    fn state_queries() {
        assert!(!SiteState::SelfHosted.is_enrolled());
        assert!(!SiteState::Dark.is_protected());
        let on = SiteState::Dps {
            provider: ProviderId::Cloudflare,
            rerouting: ReroutingMethod::Ns,
            plan: ServicePlan::Free,
            paused: false,
        };
        assert!(on.is_protected());
        assert!(on.is_enrolled());
        assert_eq!(on.provider(), Some(ProviderId::Cloudflare));
        let off = SiteState::Dps {
            provider: ProviderId::Incapsula,
            rerouting: ReroutingMethod::Cname,
            plan: ServicePlan::Pro,
            paused: true,
        };
        assert!(!off.is_protected());
        assert!(off.is_enrolled());
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(site(SiteState::Dark).to_string(), "example.com (site#3)");
    }
}
