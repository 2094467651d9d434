//! DPS adoption classification: provider, status (Table III), and
//! rerouting mechanism (Sec IV-B.2, Fig 6).

use std::fmt;

use remnant_provider::{ProviderId, ReroutingMethod};

use crate::matchers::{ProviderMatcher, RecordMatches};
use crate::snapshot::SiteRecords;

/// The observable DPS status of a website (Table III).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum DpsStatus {
    /// A record points to a DPS's IP (A-matched).
    On,
    /// Domain is delegated to a DPS (CNAME-matched with any provider, or
    /// NS-matched with Cloudflare) but the A record points to a non-DPS IP
    /// — typically the origin.
    Off,
    /// No DPS involvement detected.
    #[default]
    None,
}

impl fmt::Display for DpsStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DpsStatus::On => "ON",
            DpsStatus::Off => "OFF",
            DpsStatus::None => "NONE",
        })
    }
}

/// A classified site: which provider, what status, and (for ON sites) which
/// rerouting mechanism.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Adoption {
    /// The inferred provider (None iff status is NONE).
    pub provider: Option<ProviderId>,
    /// The observable status.
    pub status: DpsStatus,
    /// The inferred rerouting mechanism, when determinable.
    pub rerouting: Option<ReroutingMethod>,
}

impl Adoption {
    /// A site with no DPS involvement.
    pub const NONE: Adoption = Adoption {
        provider: None,
        status: DpsStatus::None,
        rerouting: None,
    };

    /// Classifies one site's records (see module docs for the rules).
    pub fn classify(matcher: &ProviderMatcher, records: &SiteRecords) -> Adoption {
        Adoption::from_matches(matcher.match_records(records))
    }

    /// [`Adoption::classify`] over borrowed snapshot columns (no per-site
    /// materialization).
    pub fn classify_view(
        matcher: &ProviderMatcher,
        site: crate::snapshot::SiteView<'_>,
    ) -> Adoption {
        Adoption::from_matches(matcher.match_view(site))
    }

    /// Classifies pre-computed matcher output.
    pub fn from_matches(matches: RecordMatches) -> Adoption {
        if let Some(provider) = matches.a {
            // Traffic is being rerouted: the site is protected (ON).
            let rerouting = infer_rerouting(provider, &matches);
            return Adoption {
                provider: Some(provider),
                status: DpsStatus::On,
                rerouting: Some(rerouting),
            };
        }
        // Not A-matched: delegated-but-off, or nothing. Table III: OFF is
        // "CNAME-matched with all providers or NS-matched with Cloudflare".
        if let Some(provider) = matches.cname {
            return Adoption {
                provider: Some(provider),
                status: DpsStatus::Off,
                rerouting: Some(ReroutingMethod::Cname),
            };
        }
        if matches.ns == Some(ProviderId::Cloudflare) {
            return Adoption {
                provider: Some(ProviderId::Cloudflare),
                status: DpsStatus::Off,
                rerouting: Some(ReroutingMethod::Ns),
            };
        }
        Adoption::NONE
    }

    /// True if the site is involved with any DPS (ON or OFF).
    pub fn is_adopted(&self) -> bool {
        self.status != DpsStatus::None
    }
}

/// Infers the rerouting mechanism for an ON site (Sec IV-B.2): a CNAME
/// match means CNAME-based; otherwise NS-based for Cloudflare and A-based
/// for A-capable providers (Akamai, DOSarrest).
fn infer_rerouting(provider: ProviderId, matches: &RecordMatches) -> ReroutingMethod {
    if matches.cname == Some(provider) {
        ReroutingMethod::Cname
    } else if provider == ProviderId::Cloudflare && matches.ns == Some(provider) {
        ReroutingMethod::Ns
    } else if provider.info().supports(ReroutingMethod::A) {
        ReroutingMethod::A
    } else if provider.info().supports(ReroutingMethod::Ns) {
        ReroutingMethod::Ns
    } else {
        // CNAME-only provider whose chain we failed to observe.
        ReroutingMethod::Cname
    }
}

/// An [`Adoption`] packed into one byte — a third of its size — the form
/// derived columns hold classes in and the spill format stores as is.
///
/// Bits 0–3 hold the provider (0 for none, else 1 + its
/// [`ProviderId::ALL`] index), bits 4–5 the status (ON, OFF, NONE) and
/// bits 6–7 the rerouting method (none, A, CNAME, NS).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PackedAdoption(u8);

impl PackedAdoption {
    /// Packs a class.
    pub fn pack(class: &Adoption) -> Self {
        let provider = class.provider.map_or(0, |p| p.index() as u8 + 1);
        let status = match class.status {
            DpsStatus::On => 0,
            DpsStatus::Off => 1,
            DpsStatus::None => 2,
        };
        let rerouting = match class.rerouting {
            None => 0,
            Some(ReroutingMethod::A) => 1,
            Some(ReroutingMethod::Cname) => 2,
            Some(ReroutingMethod::Ns) => 3,
        };
        PackedAdoption(provider | status << 4 | rerouting << 6)
    }

    /// The packed byte.
    pub(crate) fn byte(self) -> u8 {
        self.0
    }

    /// Validates a packed byte: `None` if its provider or status field
    /// names nothing.
    pub(crate) fn from_byte(byte: u8) -> Option<Self> {
        let provider_ok = (byte & 0x0F) as usize <= ProviderId::ALL.len();
        let status_ok = byte >> 4 & 0x03 != 3;
        (provider_ok && status_ok).then_some(PackedAdoption(byte))
    }

    /// The class's provider.
    pub fn provider(self) -> Option<ProviderId> {
        self.unpack().provider
    }

    /// Unpacks the class (a table lookup).
    pub fn unpack(self) -> Adoption {
        UNPACKED[self.0 as usize]
    }
}

/// Every byte's unpacked class, so unpacking a column is a lookup per
/// site. Bytes [`PackedAdoption::from_byte`] rejects never occur.
const UNPACKED: [Adoption; 256] = {
    let mut table = [Adoption::NONE; 256];
    let mut byte = 0;
    while byte < 256 {
        let provider = match byte & 0x0F {
            0 => None,
            code if code <= ProviderId::ALL.len() => Some(ProviderId::ALL[code - 1]),
            _ => None,
        };
        table[byte] = Adoption {
            provider,
            status: match byte >> 4 & 0x03 {
                0 => DpsStatus::On,
                1 => DpsStatus::Off,
                _ => DpsStatus::None,
            },
            rerouting: match byte >> 6 {
                0 => None,
                1 => Some(ReroutingMethod::A),
                2 => Some(ReroutingMethod::Cname),
                _ => Some(ReroutingMethod::Ns),
            },
        };
        byte += 1;
    }
    table
};

impl fmt::Display for Adoption {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.provider, self.rerouting) {
            (Some(p), Some(r)) => write!(f, "{} via {p} ({r})", self.status),
            (Some(p), None) => write!(f, "{} via {p}", self.status),
            _ => write!(f, "{}", self.status),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remnant_dns::DomainName;

    #[test]
    fn packing_round_trips_every_class() {
        let providers = std::iter::once(None).chain(ProviderId::ALL.map(Some));
        for provider in providers {
            for status in [DpsStatus::On, DpsStatus::Off, DpsStatus::None] {
                for rerouting in [
                    None,
                    Some(ReroutingMethod::A),
                    Some(ReroutingMethod::Cname),
                    Some(ReroutingMethod::Ns),
                ] {
                    let class = Adoption {
                        provider,
                        status,
                        rerouting,
                    };
                    let packed = PackedAdoption::pack(&class);
                    assert_eq!(packed.unpack(), class);
                    assert_eq!(PackedAdoption::from_byte(packed.byte()), Some(packed));
                }
            }
        }
        let valid = (0..=u8::MAX)
            .filter(|&b| PackedAdoption::from_byte(b).is_some())
            .count();
        assert_eq!(valid, (ProviderId::ALL.len() + 1) * 3 * 4);
    }

    fn name(s: &str) -> DomainName {
        s.parse().expect("test name")
    }

    fn classify(records: SiteRecords) -> Adoption {
        Adoption::classify(&ProviderMatcher::new(), &records)
    }

    #[test]
    fn cloudflare_ns_customer_is_on_ns() {
        let adoption = classify(SiteRecords {
            a: vec!["104.16.1.1".parse().unwrap()],
            cnames: vec![],
            ns: vec![name("kate.ns.cloudflare.com")],
        });
        assert_eq!(adoption.provider, Some(ProviderId::Cloudflare));
        assert_eq!(adoption.status, DpsStatus::On);
        assert_eq!(adoption.rerouting, Some(ReroutingMethod::Ns));
        assert!(adoption.is_adopted());
    }

    #[test]
    fn incapsula_cname_customer_is_on_cname() {
        let adoption = classify(SiteRecords {
            a: vec!["45.60.1.1".parse().unwrap()],
            cnames: vec![name("x9.incapdns.net")],
            ns: vec![name("ns1.webhost1.net")],
        });
        assert_eq!(adoption.provider, Some(ProviderId::Incapsula));
        assert_eq!(adoption.status, DpsStatus::On);
        assert_eq!(adoption.rerouting, Some(ReroutingMethod::Cname));
    }

    #[test]
    fn paused_cloudflare_customer_is_off() {
        // Origin A (non-DPS), cloudflare NS: Table III OFF.
        let adoption = classify(SiteRecords {
            a: vec!["100.64.3.3".parse().unwrap()],
            cnames: vec![],
            ns: vec![name("rob.ns.cloudflare.com")],
        });
        assert_eq!(adoption.status, DpsStatus::Off);
        assert_eq!(adoption.provider, Some(ProviderId::Cloudflare));
        assert_eq!(adoption.rerouting, Some(ReroutingMethod::Ns));
    }

    #[test]
    fn paused_cname_customer_is_off() {
        let adoption = classify(SiteRecords {
            a: vec!["100.64.3.3".parse().unwrap()],
            cnames: vec![name("t7.incapdns.net")],
            ns: vec![name("ns1.webhost1.net")],
        });
        assert_eq!(adoption.status, DpsStatus::Off);
        assert_eq!(adoption.provider, Some(ProviderId::Incapsula));
    }

    #[test]
    fn non_cloudflare_ns_match_alone_is_not_off() {
        // Table III gates NS-only OFF detection to Cloudflare.
        let adoption = classify(SiteRecords {
            a: vec!["100.64.3.3".parse().unwrap()],
            cnames: vec![],
            ns: vec![name("ns1.fastly.net")],
        });
        assert_eq!(adoption.status, DpsStatus::None);
        assert!(!adoption.is_adopted());
    }

    #[test]
    fn plain_site_is_none() {
        let adoption = classify(SiteRecords {
            a: vec!["100.64.3.3".parse().unwrap()],
            cnames: vec![],
            ns: vec![name("ns1.webhost1.net")],
        });
        assert_eq!(adoption, Adoption::NONE);
    }

    #[test]
    fn a_based_akamai_customer_labeled_a() {
        // Akamai edge A, no CNAME chain, own NS: A-based rerouting.
        let adoption = classify(SiteRecords {
            a: vec!["23.195.0.1".parse().unwrap()],
            cnames: vec![],
            ns: vec![name("ns1.webhost1.net")],
        });
        assert_eq!(adoption.provider, Some(ProviderId::Akamai));
        assert_eq!(adoption.rerouting, Some(ReroutingMethod::A));
    }

    #[test]
    fn empty_records_are_none() {
        assert_eq!(classify(SiteRecords::default()), Adoption::NONE);
    }

    #[test]
    fn display_formats() {
        let adoption = classify(SiteRecords {
            a: vec!["104.16.1.1".parse().unwrap()],
            cnames: vec![],
            ns: vec![name("kate.ns.cloudflare.com")],
        });
        assert_eq!(adoption.to_string(), "ON via Cloudflare (NS)");
        assert_eq!(Adoption::NONE.to_string(), "NONE");
    }
}
