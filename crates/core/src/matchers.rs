//! A/CNAME/NS matching (Sec IV-B.2, Table II).
//!
//! * **A-matching** resolves an IP address to a provider via the providers'
//!   announced ranges (RouteView in the paper, the catalog blocks here).
//! * **CNAME-matching** looks for provider-unique substrings in CNAME
//!   targets.
//! * **NS-matching** looks for provider-unique substrings in NS hostnames.

use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::RwLock;

use remnant_dns::DomainName;
use remnant_net::IpRangeDb;
use remnant_provider::ProviderId;

use crate::snapshot::SiteRecords;

/// The three fingerprint matchers over the Table II catalog.
///
/// CNAME- and NS-matching memoize their verdict per [`DomainName`]: names
/// are process-wide interned handles with a precomputed hash and
/// pointer-identity equality, so the memo key costs O(1) and the table is
/// bounded by the name universe the interner already holds. Matching is a
/// pure function of the name and the static catalog, so memoized answers
/// are byte-identical to recomputed ones. The interner never frees a
/// payload, so a key's address can never be reused by another name.
#[derive(Debug)]
pub struct ProviderMatcher {
    ranges: IpRangeDb<ProviderId>,
    cname_memo: RwLock<HashMap<DomainName, Option<ProviderId>>>,
    ns_memo: RwLock<HashMap<DomainName, Option<ProviderId>>>,
}

impl Clone for ProviderMatcher {
    fn clone(&self) -> Self {
        ProviderMatcher {
            ranges: self.ranges.clone(),
            cname_memo: RwLock::new(self.cname_memo.read().expect(MEMO_LOCK).clone()),
            ns_memo: RwLock::new(self.ns_memo.read().expect(MEMO_LOCK).clone()),
        }
    }
}

const MEMO_LOCK: &str = "matcher memo lock";

/// Looks `name` up in a match memo, computing and recording the verdict
/// on first sight. Read-mostly: the write lock is only taken for names
/// the matcher has never seen.
fn memoized(
    memo: &RwLock<HashMap<DomainName, Option<ProviderId>>>,
    name: &DomainName,
    slow: impl FnOnce() -> Option<ProviderId>,
) -> Option<ProviderId> {
    if let Some(hit) = memo.read().expect(MEMO_LOCK).get(name) {
        return *hit;
    }
    let verdict = slow();
    memo.write().expect(MEMO_LOCK).insert(name.clone(), verdict);
    verdict
}

impl Default for ProviderMatcher {
    fn default() -> Self {
        Self::new()
    }
}

impl ProviderMatcher {
    /// Builds the matcher from the provider catalog.
    pub fn new() -> Self {
        let mut ranges = IpRangeDb::new();
        for provider in ProviderId::ALL {
            for block in provider.info().ip_blocks {
                ranges.insert(block.parse().expect("catalog blocks are valid"), provider);
            }
        }
        ProviderMatcher {
            ranges,
            cname_memo: RwLock::new(HashMap::new()),
            ns_memo: RwLock::new(HashMap::new()),
        }
    }

    /// A-matching: the provider announcing `addr`, if any.
    pub fn a_match(&self, addr: Ipv4Addr) -> Option<ProviderId> {
        self.ranges.lookup(addr).copied()
    }

    /// A-matching over a record set: the first provider hit.
    pub fn a_match_any(&self, addrs: &[Ipv4Addr]) -> Option<ProviderId> {
        addrs.iter().find_map(|a| self.a_match(*a))
    }

    /// CNAME-matching: the provider whose substring appears in `target`.
    pub fn cname_match(&self, target: &DomainName) -> Option<ProviderId> {
        memoized(&self.cname_memo, target, || {
            ProviderId::ALL.into_iter().find(|p| {
                p.info()
                    .cname_substrings
                    .iter()
                    .any(|needle| target.contains_label_substring(needle))
            })
        })
    }

    /// CNAME-matching over a chain: the first provider hit.
    pub fn cname_match_any(&self, targets: &[DomainName]) -> Option<ProviderId> {
        targets.iter().find_map(|t| self.cname_match(t))
    }

    /// NS-matching: the provider whose substring appears in `host`.
    pub fn ns_match(&self, host: &DomainName) -> Option<ProviderId> {
        memoized(&self.ns_memo, host, || {
            ProviderId::ALL.into_iter().find(|p| {
                p.info()
                    .ns_substrings
                    .iter()
                    .any(|needle| host.contains_label_substring(needle))
            })
        })
    }

    /// NS-matching over a record set: the first provider hit.
    pub fn ns_match_any(&self, hosts: &[DomainName]) -> Option<ProviderId> {
        hosts.iter().find_map(|h| self.ns_match(h))
    }

    /// All three matches for one site's collected records.
    pub fn match_records(&self, records: &SiteRecords) -> RecordMatches {
        self.match_view(records.view())
    }

    /// [`ProviderMatcher::match_records`] over borrowed columns — the form
    /// snapshot consumers use when iterating [`RecordBlock`](crate::snapshot::RecordBlock)s
    /// without materializing per-site records.
    pub fn match_view(&self, site: crate::snapshot::SiteView<'_>) -> RecordMatches {
        RecordMatches {
            a: self.a_match_any(site.a),
            cname: self.cname_match_any(site.cnames),
            ns: self.ns_match_any(site.ns),
        }
    }
}

/// The outcome of running all three matchers on one site.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecordMatches {
    /// A-matched provider.
    pub a: Option<ProviderId>,
    /// CNAME-matched provider.
    pub cname: Option<ProviderId>,
    /// NS-matched provider.
    pub ns: Option<ProviderId>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> DomainName {
        s.parse().expect("test name")
    }

    #[test]
    fn a_matching_hits_catalog_blocks() {
        let m = ProviderMatcher::new();
        assert_eq!(
            m.a_match("104.20.3.4".parse().unwrap()),
            Some(ProviderId::Cloudflare)
        );
        assert_eq!(
            m.a_match("199.83.130.1".parse().unwrap()),
            Some(ProviderId::Incapsula)
        );
        assert_eq!(
            m.a_match("151.101.7.7".parse().unwrap()),
            Some(ProviderId::Fastly)
        );
        assert_eq!(
            m.a_match("100.64.0.5".parse().unwrap()),
            None,
            "hosting space"
        );
        assert_eq!(m.a_match("8.8.8.8".parse().unwrap()), None);
    }

    #[test]
    fn cname_matching_uses_published_substrings() {
        let m = ProviderMatcher::new();
        assert_eq!(
            m.cname_match(&name("x123.incapdns.net")),
            Some(ProviderId::Incapsula)
        );
        assert_eq!(
            m.cname_match(&name("site.edgekey.net")),
            Some(ProviderId::Akamai)
        );
        assert_eq!(
            m.cname_match(&name("d1234.cloudfront.net")),
            Some(ProviderId::Cloudfront)
        );
        assert_eq!(
            m.cname_match(&name("host.netdna-cdn.com")),
            Some(ProviderId::Stackpath)
        );
        assert_eq!(m.cname_match(&name("www.example.com")), None);
    }

    #[test]
    fn ns_matching_uses_published_substrings() {
        let m = ProviderMatcher::new();
        assert_eq!(
            m.ns_match(&name("kate.ns.cloudflare.com")),
            Some(ProviderId::Cloudflare)
        );
        assert_eq!(m.ns_match(&name("a1-2.akam.net")), Some(ProviderId::Akamai));
        assert_eq!(
            m.ns_match(&name("ns1.cdnetdns.net")),
            Some(ProviderId::CdNetworks)
        );
        assert_eq!(m.ns_match(&name("ns1.webhost1.net")), None);
    }

    #[test]
    fn any_variants_scan_whole_sets() {
        let m = ProviderMatcher::new();
        let addrs = vec!["100.64.0.9".parse().unwrap(), "13.32.0.5".parse().unwrap()];
        assert_eq!(m.a_match_any(&addrs), Some(ProviderId::Cloudfront));
        let chain = vec![name("cdn.something.org"), name("global.fastly.net")];
        assert_eq!(m.cname_match_any(&chain), Some(ProviderId::Fastly));
        assert_eq!(m.ns_match_any(&[]), None);
    }

    #[test]
    fn match_records_combines_all_three() {
        let m = ProviderMatcher::new();
        let records = SiteRecords {
            a: vec!["104.16.9.9".parse().unwrap()],
            cnames: vec![],
            ns: vec![name("rob.ns.cloudflare.com")],
        };
        let matches = m.match_records(&records);
        assert_eq!(matches.a, Some(ProviderId::Cloudflare));
        assert_eq!(matches.cname, None);
        assert_eq!(matches.ns, Some(ProviderId::Cloudflare));
    }

    #[test]
    fn memoized_verdicts_match_fresh_recomputation() {
        let warm = ProviderMatcher::new();
        let hosts = [
            "kate.ns.cloudflare.com",
            "x123.incapdns.net",
            "ns1.webhost1.net",
            "global.fastly.net",
        ];
        // First pass populates the memo; second pass must agree with a
        // matcher that has never seen the names.
        for host in hosts {
            let d = name(host);
            warm.ns_match(&d);
            warm.cname_match(&d);
        }
        for host in hosts {
            let d = name(host);
            let fresh = ProviderMatcher::new();
            assert_eq!(warm.ns_match(&d), fresh.ns_match(&d));
            assert_eq!(warm.cname_match(&d), fresh.cname_match(&d));
        }
    }

    #[test]
    fn matching_is_case_insensitive_via_name_normalization() {
        let m = ProviderMatcher::new();
        assert_eq!(
            m.cname_match(&name("X.INCAPDNS.NET")),
            Some(ProviderId::Incapsula)
        );
    }
}
