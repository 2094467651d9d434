//! `DerivedColumn::derive` against label walks.
//!
//! `derive` reads every name's verdict word once per site and decides the
//! class, the multi-CDN mark, the fleet candidates and the token in that
//! one walk. The oracle here recomputes a column from the records alone:
//! Table II matching and the three fingerprints as
//! `DomainName::contains_label_substring` walks over the catalog
//! substrings, and A-matching through the provider ranges. It does not
//! use `LabelNeedle`, which reads the same verdict word `derive` does for
//! any casing of a standard needle.
//!
//! The generated blocks mix:
//!
//! - sites with several Cloudflare NS hosts (every one is a candidate,
//!   repeats kept);
//! - `cedexis` -> `incapdns` chains (multi-CDN and a token on one site);
//! - `incapdns` as the second CNAME (the token is the first match, not
//!   the first CNAME);
//! - empty rows, as a failed lookup leaves them;
//! - names that carry two fingerprints, or a fingerprint and another
//!   provider's substring.
//!
//! Each shape is counted, and the last case asserts every one was
//! reached.

use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use remnant_core::adoption::{Adoption, PackedAdoption};
use remnant_core::matchers::{ProviderMatcher, RecordMatches};
use remnant_core::{DerivedColumn, RecordBlock, SiteRecords};
use remnant_dns::DomainName;
use remnant_provider::ProviderId;

const CASES: u32 = 256;

/// The three fingerprints, spelled as the paper gives them.
const MULTI_CDN: &str = "cedexis";
const CLOUDFLARE_NS: &str = "cloudflare";
const INCAPSULA_CNAME: &str = "incapdns";

/// SplitMix64, fixed by the case seed.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// True with probability `percent`/100.
    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }
}

/// Every catalog CNAME and NS substring and the three fingerprints.
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
        .chain([MULTI_CDN, CLOUDFLARE_NS, INCAPSULA_CNAME])
        .collect();
    needles.sort_unstable();
    needles.dedup();
    needles
}

/// A label of filler with up to two needles spliced in.
fn label(stream: &mut Stream, needles: &[&str]) -> String {
    let filler = |stream: &mut Stream| -> String {
        (0..stream.below(3))
            .map(|_| stream.pick(&['a', 'b', 'k', '0', '7']))
            .collect()
    };
    let mut text = filler(stream);
    for percent in [40, 15] {
        if stream.chance(percent) {
            text.push_str(stream.pick(needles));
        }
        text.push_str(&filler(stream));
    }
    if text.is_empty() {
        text.push('x');
    }
    text
}

/// A name: a fixed fingerprint shape one time in three, else one to
/// three random labels under `.net` or `.com`. Some names are written
/// in upper case (parsing lowercases them).
fn name(stream: &mut Stream, needles: &[&str]) -> DomainName {
    let n = stream.below(50);
    let mut text = match stream.below(9) {
        0 => format!("ns{n}.ns.cloudflare.com"),
        1 => format!("x{n}.incapdns.net"),
        2 => format!("b{n}.cdx.cedexis.net"),
        _ => {
            let labels: Vec<String> = (0..1 + stream.below(3))
                .map(|_| label(stream, needles))
                .collect();
            format!("{}.{}", labels.join("."), stream.pick(&["net", "com"]))
        }
    };
    if stream.chance(10) {
        text = text.to_ascii_uppercase();
    }
    text.parse().expect("generated names are valid")
}

/// Addresses inside and outside the providers' announced ranges.
const ADDRESSES: [[u8; 4]; 7] = [
    [104, 16, 1, 1],    // Cloudflare
    [45, 60, 1, 1],     // Incapsula
    [199, 83, 130, 1],  // Incapsula
    [151, 101, 7, 7],   // Fastly
    [13, 32, 0, 9],     // Cloudfront
    [100, 64, 3, 3],    // hosting space
    [203, 0, 113, 200], // nobody's
];

/// One site's records: an empty row one time in eight, else up to two
/// addresses, three CNAMEs and four NS hosts.
fn site(stream: &mut Stream, needles: &[&str]) -> SiteRecords {
    if stream.chance(12) {
        return SiteRecords::default();
    }
    SiteRecords {
        a: (0..stream.below(3))
            .map(|_| Ipv4Addr::from(stream.pick(&ADDRESSES)))
            .collect(),
        cnames: (0..stream.below(4))
            .map(|_| name(stream, needles))
            .collect(),
        ns: (0..stream.below(5))
            .map(|_| name(stream, needles))
            .collect(),
    }
}

fn has(name: &DomainName, needle: &str) -> bool {
    name.contains_label_substring(needle)
}

/// The first name, in record order, matched by any provider: that
/// name's first provider in `ProviderId::ALL` order.
fn first_match(
    names: &[DomainName],
    substrings: fn(ProviderId) -> &'static [&'static str],
) -> Option<ProviderId> {
    names.iter().find_map(|name| {
        ProviderId::ALL
            .into_iter()
            .find(|&p| substrings(p).iter().any(|s| has(name, s)))
    })
}

/// The column rebuilt from label walks, one record walk per field.
fn oracle(sites: &[SiteRecords]) -> DerivedColumn {
    let ranges = ProviderMatcher::new();
    let mut column = DerivedColumn::default();
    for (i, site) in (0u32..).zip(sites) {
        let matches = RecordMatches {
            a: ranges.a_match_any(&site.a),
            cname: first_match(&site.cnames, |p| p.info().cname_substrings),
            ns: first_match(&site.ns, |p| p.info().ns_substrings),
        };
        column
            .classes
            .push(PackedAdoption::pack(&Adoption::from_matches(matches)));
        if site.cnames.iter().any(|c| has(c, MULTI_CDN)) {
            column.multi_cdn.push(i);
        }
        for host in site.ns.iter().filter(|h| has(h, CLOUDFLARE_NS)) {
            column.fleet_sites.push(i);
            column.fleet_ns.push(host.clone());
        }
        if let Some(token) = site.cnames.iter().find(|c| has(c, INCAPSULA_CNAME)) {
            column.incap_tokens.push((i, token.clone()));
        }
    }
    column
}

/// The shapes the module docs list, counted over all cases.
#[derive(Clone, Copy)]
enum Shape {
    SeveralFleetHosts,
    CedexisThenIncapdns,
    IncapdnsSecond,
    EmptyRow,
    TwoFingerprints,
}

static SHAPES: [AtomicUsize; 5] = [const { AtomicUsize::new(0) }; 5];
static CASES_DONE: AtomicUsize = AtomicUsize::new(0);

fn count_shapes(sites: &[SiteRecords]) {
    let fingerprints = |name: &DomainName| {
        [MULTI_CDN, CLOUDFLARE_NS, INCAPSULA_CNAME]
            .into_iter()
            .filter(|fp| has(name, fp))
            .count()
    };
    for site in sites {
        let mut seen = Vec::new();
        if site.ns.iter().filter(|h| has(h, CLOUDFLARE_NS)).count() > 1 {
            seen.push(Shape::SeveralFleetHosts);
        }
        let cedexis = site.cnames.iter().position(|c| has(c, MULTI_CDN));
        let incapdns = site.cnames.iter().position(|c| has(c, INCAPSULA_CNAME));
        if let (Some(m), Some(t)) = (cedexis, incapdns) {
            if m < t {
                seen.push(Shape::CedexisThenIncapdns);
            }
        }
        if incapdns == Some(1) {
            seen.push(Shape::IncapdnsSecond);
        }
        if site.a.is_empty() && site.cnames.is_empty() && site.ns.is_empty() {
            seen.push(Shape::EmptyRow);
        }
        if site
            .cnames
            .iter()
            .chain(&site.ns)
            .any(|n| fingerprints(n) > 1)
        {
            seen.push(Shape::TwoFingerprints);
        }
        for shape in seen {
            SHAPES[shape as usize].fetch_add(1, Ordering::Relaxed);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn derive_matches_label_walks(seed in any::<u64>(), len in 0usize..48) {
        let needles = needles();
        let mut stream = Stream(seed);
        let sites: Vec<SiteRecords> = (0..len).map(|_| site(&mut stream, &needles)).collect();
        count_shapes(&sites);
        let block = RecordBlock::from_sites(sites.clone());
        let derived = DerivedColumn::derive(&block);
        prop_assert_eq!(&derived, &oracle(&sites), "sites {:?}", sites);
        prop_assert_eq!(derived.len(), len);
        if CASES_DONE.fetch_add(1, Ordering::Relaxed) + 1 == CASES as usize {
            let counts = SHAPES.each_ref().map(|c| c.load(Ordering::Relaxed));
            prop_assert!(
                counts.iter().all(|&n| n > 0),
                "every shape reached: several fleet hosts, cedexis -> incapdns, \
                 incapdns second, empty row, two fingerprints = {:?}",
                counts
            );
        }
    }
}
