//! Domain-name generation for the synthetic population.

use remnant_dns::DomainName;
use remnant_sim::SeedSeq;

use crate::site::Website;

/// TLD mix for generated apex domains (rough shape of the Alexa list).
const TLDS: [&str; 8] = ["com", "net", "org", "io", "co", "info", "biz", "site"];

/// Word stems combined into apex names.
const STEMS: [&str; 32] = [
    "news", "shop", "cloud", "data", "game", "tech", "media", "travel", "photo", "social",
    "market", "forum", "stream", "sport", "music", "movie", "book", "food", "auto", "home", "bank",
    "health", "learn", "craft", "code", "mail", "chat", "search", "map", "video", "blog", "store",
];

/// Generates the apex domain for the site at `rank` (0-based).
///
/// Names are deterministic in `(seed, rank)`, globally unique (the rank is
/// embedded), and realistic enough to exercise name handling: two stems, a
/// rank-derived disambiguator, and a mixed TLD.
///
/// ```
/// use remnant_world::names::apex_for_rank;
///
/// let a = apex_for_rank(7, 0);
/// let b = apex_for_rank(7, 1);
/// assert_ne!(a, b);
/// assert_eq!(a, apex_for_rank(7, 0));
/// ```
pub fn apex_for_rank(seed: u64, rank: usize) -> DomainName {
    let seq = SeedSeq::new(seed).child("population");
    let h = seq.derive_indexed("apex", rank as u64);
    let stem_a = STEMS[(h % 32) as usize];
    let stem_b = STEMS[((h >> 5) % 32) as usize];
    let tld = TLDS[((h >> 10) % 8) as usize];
    let name = format!("{stem_a}{stem_b}{rank}.{tld}");
    DomainName::parse(&name).expect("generated names are valid")
}

/// The rank of the site whose apex is `apex`, read back from the name:
/// [`apex_for_rank`] ends the apex's first label with the rank's
/// digits, so parsing them and comparing `sites[rank].apex` (one pointer
/// compare) finds the site without an index.
///
/// A name whose label before the TLD has no trailing digit run, a run
/// that overflows `usize`, a rank past the population, or a rank whose
/// site has another apex (a leading zero, another seed's name, a host
/// under the apex, an infrastructure domain) is `None`.
pub fn rank_of(apex: &DomainName, sites: &[Website]) -> Option<usize> {
    // An apex's first label ends at its last dot, a few bytes from the
    // end, so the scan starts there.
    let name = apex.as_str().as_bytes();
    let end = name.iter().rposition(|&b| b == b'.')?;
    let start = name[..end]
        .iter()
        .rposition(|b| !b.is_ascii_digit())
        .map_or(0, |stem_end| stem_end + 1);
    if start == end {
        return None;
    }
    let rank = name[start..end].iter().try_fold(0usize, |rank, &digit| {
        rank.checked_mul(10)?.checked_add(usize::from(digit - b'0'))
    })?;
    (sites.get(rank)?.apex == *apex).then_some(rank)
}

/// The `www` host for an apex.
///
/// # Panics
///
/// Never for generated apexes (the resulting name is always valid).
pub fn www_host(apex: &DomainName) -> DomainName {
    apex.prepend("www").expect("www.<apex> is valid")
}

/// Hostnames of the shared web-hosting DNS servers (the resolvers that
/// serve zones for sites *not* delegated to a DPS).
pub fn hosting_ns_name(index: usize) -> DomainName {
    DomainName::parse(&format!("ns{}.webhost{}.net", index % 2 + 1, index / 2 + 1))
        .expect("hosting names are valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn apexes_are_unique_across_ranks() {
        let names: BTreeSet<DomainName> = (0..5_000).map(|r| apex_for_rank(1, r)).collect();
        assert_eq!(names.len(), 5_000);
    }

    #[test]
    fn apexes_have_two_labels() {
        for rank in [0, 1, 99, 12345] {
            let apex = apex_for_rank(1, rank);
            assert_eq!(apex.label_count(), 2, "{apex}");
        }
    }

    #[test]
    fn generated_names_avoid_provider_fingerprints() {
        use remnant_provider::ProviderId;
        for rank in 0..2_000 {
            let apex = apex_for_rank(1, rank);
            for provider in ProviderId::ALL {
                for needle in provider.info().cname_substrings {
                    assert!(
                        !apex.contains_label_substring(needle),
                        "{apex} collides with {provider} fingerprint {needle}"
                    );
                }
            }
        }
    }

    #[test]
    fn www_prefixes() {
        let apex = apex_for_rank(1, 3);
        let www = www_host(&apex);
        assert!(www.is_subdomain_of(&apex));
        assert_eq!(www.label_count(), 3);
    }

    #[test]
    fn hosting_ns_names_are_distinct() {
        let names: BTreeSet<DomainName> = (0..8).map(hosting_ns_name).collect();
        assert_eq!(names.len(), 8);
    }
}
