//! A/CNAME/NS matching (Sec IV-B.2, Table II).
//!
//! * **A-matching** resolves an IP address to a provider via the providers'
//!   announced ranges (RouteView in the paper, the catalog blocks here).
//! * **CNAME-matching** looks for provider-unique substrings in CNAME
//!   targets.
//! * **NS-matching** looks for provider-unique substrings in NS hostnames.
//!
//! # Per-name verdicts
//!
//! CNAME- and NS-matching, and the three fingerprints the pipeline tests
//! for (`Fingerprint`: the multi-CDN exclusion and the two residual
//! harvests), are pure functions of one name and the static Table II
//! catalog. Every round meets the same names again, so each name's
//! answers are computed once, packed into one `NameVerdict` word, and
//! stored in the interned name itself ([`DomainName::verdict`]). Every
//! later lookup is one atomic load: no table, no lock, no substring scan.
//! The interner never frees a name, so a verdict lives as long as the
//! name it describes.

use std::net::Ipv4Addr;

use remnant_dns::DomainName;
use remnant_net::IpRangeDb;
use remnant_provider::ProviderId;

use crate::behavior::MULTI_CDN_CNAME_FINGERPRINT;
use crate::residual::{CLOUDFLARE_NS_FINGERPRINT, INCAPSULA_CNAME_FINGERPRINT};
use crate::snapshot::SiteRecords;

/// A substring the pipeline tests every round's names for, whose answer
/// each name's [`NameVerdict`] carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Fingerprint {
    /// [`MULTI_CDN_CNAME_FINGERPRINT`] in a CNAME: a multi-CDN front-end,
    /// excluded from behavior identification (Sec IV-B.3).
    MultiCdn,
    /// [`CLOUDFLARE_NS_FINGERPRINT`] in an NS host: a Cloudflare fleet
    /// nameserver (Sec V-A.1).
    CloudflareNs,
    /// [`INCAPSULA_CNAME_FINGERPRINT`] in a CNAME: an Incapsula customer
    /// token (Sec V-B).
    IncapsulaCname,
}

impl Fingerprint {
    /// Every fingerprint, in bit order.
    pub(crate) const ALL: [Fingerprint; 3] = [
        Fingerprint::MultiCdn,
        Fingerprint::CloudflareNs,
        Fingerprint::IncapsulaCname,
    ];

    /// The label substring the fingerprint stands for.
    pub(crate) const fn needle(self) -> &'static str {
        match self {
            Fingerprint::MultiCdn => MULTI_CDN_CNAME_FINGERPRINT,
            Fingerprint::CloudflareNs => CLOUDFLARE_NS_FINGERPRINT,
            Fingerprint::IncapsulaCname => INCAPSULA_CNAME_FINGERPRINT,
        }
    }

    /// The fingerprint spelled `needle`, compared ASCII
    /// case-insensitively as label matching lowercases its needle.
    pub(crate) fn from_needle(needle: &str) -> Option<Self> {
        Fingerprint::ALL
            .into_iter()
            .find(|fp| fp.needle().eq_ignore_ascii_case(needle))
    }

    const fn bit(self) -> u32 {
        1 << (FINGERPRINT_SHIFT + self as u32)
    }
}

/// Bit layout of a [`NameVerdict`] word: the CNAME-match provider's
/// position in [`ProviderId::ALL`] + 1 in bits 0..8 (0: no match), the
/// NS-match provider's in bits 8..16, then one bit per [`Fingerprint`].
const NS_SHIFT: u32 = 8;
const FINGERPRINT_SHIFT: u32 = 16;

/// One name's standard-catalog verdicts (see the module docs): its
/// CNAME-match and NS-match providers and which [`Fingerprint`]s its
/// labels contain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct NameVerdict(u32);

impl NameVerdict {
    /// The name's verdicts, computed on the name's first lookup in the
    /// process and read from the name after that.
    pub(crate) fn of(name: &DomainName) -> Self {
        NameVerdict(name.verdict(NameVerdict::compute))
    }

    /// The verdict word: a pure function of the name and the catalog.
    fn compute(name: &DomainName) -> u32 {
        let first = |needles: fn(ProviderId) -> &'static [&'static str]| {
            ProviderId::ALL
                .into_iter()
                .position(|p| {
                    needles(p)
                        .iter()
                        .any(|needle| name.contains_label_substring(needle))
                })
                .map_or(0, |i| i as u32 + 1)
        };
        let mut word =
            first(|p| p.info().cname_substrings) | first(|p| p.info().ns_substrings) << NS_SHIFT;
        for fp in Fingerprint::ALL {
            if name.contains_label_substring(fp.needle()) {
                word |= fp.bit();
            }
        }
        word
    }

    fn provider(slot: u32) -> Option<ProviderId> {
        let slot = (slot & 0xff) as usize;
        (slot > 0).then(|| ProviderId::ALL[slot - 1])
    }

    /// The first provider, in [`ProviderId::ALL`] order, with a CNAME
    /// substring in the name's labels.
    pub(crate) fn cname_match(self) -> Option<ProviderId> {
        NameVerdict::provider(self.0)
    }

    /// The first provider, in [`ProviderId::ALL`] order, with an NS
    /// substring in the name's labels.
    pub(crate) fn ns_match(self) -> Option<ProviderId> {
        NameVerdict::provider(self.0 >> NS_SHIFT)
    }

    /// True if the name's labels contain `fingerprint`'s needle.
    pub(crate) fn has(self, fingerprint: Fingerprint) -> bool {
        self.0 & fingerprint.bit() != 0
    }
}

/// [`DomainName::contains_label_substring`] for one needle: read from
/// the name's [`NameVerdict`] when the needle is a standard
/// [`Fingerprint`], a label walk for any other needle.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LabelNeedle<'a> {
    needle: &'a str,
    standard: Option<Fingerprint>,
}

impl<'a> LabelNeedle<'a> {
    /// A test for `needle`.
    pub(crate) fn new(needle: &'a str) -> Self {
        LabelNeedle {
            needle,
            standard: Fingerprint::from_needle(needle),
        }
    }

    /// True if any label of `name` contains the needle.
    pub(crate) fn matches(&self, name: &DomainName) -> bool {
        match self.standard {
            Some(fp) => NameVerdict::of(name).has(fp),
            None => name.contains_label_substring(self.needle),
        }
    }
}

/// The three fingerprint matchers over the Table II catalog. CNAME- and
/// NS-matching read each name's verdict word (see the module docs).
#[derive(Clone, Debug)]
pub struct ProviderMatcher {
    ranges: IpRangeDb<ProviderId>,
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
        ProviderMatcher { ranges }
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
        NameVerdict::of(target).cname_match()
    }

    /// CNAME-matching over a chain: the first provider hit.
    pub fn cname_match_any(&self, targets: &[DomainName]) -> Option<ProviderId> {
        targets.iter().find_map(|t| self.cname_match(t))
    }

    /// NS-matching: the provider whose substring appears in `host`.
    pub fn ns_match(&self, host: &DomainName) -> Option<ProviderId> {
        NameVerdict::of(host).ns_match()
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
    use proptest::prelude::*;

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
    fn fingerprints_round_trip_their_needles() {
        for fp in Fingerprint::ALL {
            assert_eq!(Fingerprint::from_needle(fp.needle()), Some(fp));
            let upper = fp.needle().to_ascii_uppercase();
            assert_eq!(Fingerprint::from_needle(&upper), Some(fp));
        }
        assert_eq!(Fingerprint::from_needle("cloudfront"), None);
        assert_eq!(Fingerprint::from_needle("cloud"), None);
        assert_eq!(
            LabelNeedle::new("Cloudflare").standard,
            Some(Fingerprint::CloudflareNs)
        );
        assert!(LabelNeedle::new("dge").matches(&name("foo.edgekey.net")));
        assert!(LabelNeedle::new("INCAPDNS").matches(&name("x1.incapdns.net")));
    }

    /// The verdicts a label walk over the catalog gives: the first
    /// provider in `ProviderId::ALL` order wins.
    fn brute_force(d: &DomainName) -> (Option<ProviderId>, Option<ProviderId>, [bool; 3]) {
        let first = |needles: fn(ProviderId) -> &'static [&'static str]| {
            ProviderId::ALL
                .into_iter()
                .find(|&p| needles(p).iter().any(|n| d.contains_label_substring(n)))
        };
        (
            first(|p| p.info().cname_substrings),
            first(|p| p.info().ns_substrings),
            Fingerprint::ALL.map(|fp| d.contains_label_substring(fp.needle())),
        )
    }

    fn read(d: &DomainName) -> (Option<ProviderId>, Option<ProviderId>, [bool; 3]) {
        let verdict = NameVerdict::of(d);
        (
            verdict.cname_match(),
            verdict.ns_match(),
            Fingerprint::ALL.map(|fp| verdict.has(fp)),
        )
    }

    /// Every catalog substring and fingerprint, the needles a label may
    /// carry.
    fn needles() -> Vec<&'static str> {
        let mut needles: Vec<&'static str> = ProviderId::ALL
            .into_iter()
            .flat_map(|p| {
                p.info()
                    .cname_substrings
                    .iter()
                    .chain(p.info().ns_substrings)
            })
            .copied()
            .chain(Fingerprint::ALL.map(Fingerprint::needle))
            .collect();
        needles.sort_unstable();
        needles.dedup();
        needles
    }

    /// A label of filler with up to two needles spliced in, so needles
    /// land at the label's start, middle and end, and a label may carry
    /// two providers' substrings.
    fn label() -> impl Strategy<Value = String> {
        let needle = || prop_oneof![Just(None), prop::sample::select(needles()).prop_map(Some)];
        (
            "[a-z0-9]{0,3}",
            needle(),
            "[a-z0-9]{0,3}",
            needle(),
            "[a-z0-9]{0,3}",
        )
            .prop_map(|(a, n1, b, n2, c)| {
                format!(
                    "{a}{}{b}{}{c}",
                    n1.unwrap_or_default(),
                    n2.unwrap_or_default()
                )
            })
            .prop_map(|l| if l.is_empty() { "x".to_owned() } else { l })
    }

    /// Two to five labels with a random ASCII case per character.
    fn mixed_case_name() -> impl Strategy<Value = String> {
        (prop::collection::vec(label(), 1..5), any::<u64>()).prop_map(|(labels, case)| {
            let text = format!("{}.net", labels.join("."));
            text.chars()
                .enumerate()
                .map(|(i, c)| {
                    if case >> (i % 64) & 1 == 1 {
                        c.to_ascii_uppercase()
                    } else {
                        c
                    }
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn verdict_word_matches_a_label_walk(text in mixed_case_name()) {
            let d = name(&text);
            let expected = brute_force(&d);
            // The first read may compute the word, the second reads it back.
            prop_assert_eq!(read(&d), expected, "{}", text);
            prop_assert_eq!(read(&d), expected, "{}", text);
            let m = ProviderMatcher::new();
            prop_assert_eq!(m.cname_match(&d), expected.0);
            prop_assert_eq!(m.ns_match(&d), expected.1);
            for (fp, hit) in Fingerprint::ALL.into_iter().zip(expected.2) {
                prop_assert_eq!(LabelNeedle::new(fp.needle()).matches(&d), hit);
            }
        }
    }

    #[test]
    fn two_providers_in_one_name_resolve_in_catalog_order() {
        // Akamai precedes Incapsula, and Cloudflare precedes Fastly.
        let d = name("x.incapdns.edgekey.net");
        assert_eq!(NameVerdict::of(&d).cname_match(), Some(ProviderId::Akamai));
        let d = name("fastly-cloudflare.example.com");
        assert_eq!(NameVerdict::of(&d).ns_match(), Some(ProviderId::Cloudflare));
        assert!(NameVerdict::of(&name("a.cedexis.incapdns.net")).has(Fingerprint::MultiCdn));
    }

    #[test]
    fn concurrent_first_reads_agree_with_a_single_thread() {
        // Names no other test interns, so the threads race on computing
        // each word; the single-threaded walk is the reference.
        let texts: Vec<String> = (0..64)
            .map(|i| match i % 4 {
                0 => format!("t{i}.ns.cloudflare.verdict-race.com"),
                1 => format!("t{i}.incapdns.verdict-race.net"),
                2 => format!("t{i}.cedexis.edgekey.verdict-race.net"),
                _ => format!("t{i}.plain.verdict-race.org"),
            })
            .collect();
        let names: Vec<DomainName> = texts.iter().map(|t| name(t)).collect();
        let start = std::sync::Barrier::new(4);
        let seen: Vec<Vec<_>> = std::thread::scope(|scope| {
            let readers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        names.iter().map(read).collect::<Vec<_>>()
                    })
                })
                .collect();
            readers
                .into_iter()
                .map(|r| r.join().expect("reader thread"))
                .collect()
        });
        let single: Vec<_> = names.iter().map(brute_force).collect();
        for reads in seen {
            assert_eq!(reads, single);
        }
        assert_eq!(names.iter().map(read).collect::<Vec<_>>(), single);
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
