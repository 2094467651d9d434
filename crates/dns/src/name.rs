//! Domain names, interned process-wide.
//!
//! Every simulated query the collector and the residual scanners issue
//! flows through [`DomainName`]; zone lookups, cache keys, CNAME chases
//! and snapshot rows all copy names around. To keep that hot path free of
//! heap churn, parsing interns the normalized form in a process-wide
//! sharded intern table: `Clone` is a refcount bump, equality fast-paths
//! on pointer identity (with a content fallback, so handles from
//! different construction paths still compare correctly), and hashing
//! uses a precomputed content hash. The interner never evicts — the
//! simulation's name universe is bounded by the generated world, and a
//! stable address per name is what makes the pointer fast paths sound.
//!
//! Interning a name interns its parent first and links to it, so every
//! interned name carries the chain of its ancestors down to the TLD.
//! [`DomainName::parent`], [`DomainName::suffix`], [`DomainName::apex`]
//! and [`DomainName::suffixes`] walk those links and clone one `Arc`;
//! they never touch the intern table. [`DomainName::is_child_of`] tests
//! "is this `<label>.<parent>`" the same way, so answering code can match
//! derived hosts without building them. Only [`DomainName::parse`] and
//! [`DomainName::prepend`] probe the table.
//!
//! `NameHasher` is the hasher for hot maps keyed by names (the resolver
//! cache): it mixes the precomputed content hash with one multiply instead
//! of running SipHash over it.

use std::borrow::Borrow;
use std::collections::HashSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;
use std::sync::{Arc, LazyLock, RwLock};

use crate::error::DnsError;

/// Maximum total length of a domain name in presentation format.
const MAX_NAME_LEN: usize = 253;
/// Maximum length of a single label.
const MAX_LABEL_LEN: usize = 63;

/// The shared, immutable payload of an interned name.
struct NameInner {
    /// Normalized presentation form, e.g. "www.example.com".
    name: Box<str>,
    /// Byte offsets of label starts within `name`.
    label_starts: Box<[u16]>,
    /// FNV-1a hash of `name`, precomputed so `Hash` is O(1).
    hash: u64,
    /// The name with its leftmost label removed, interned before this
    /// name; `None` at a TLD.
    parent: Option<Arc<NameInner>>,
}

/// FNV-1a over the normalized name bytes. Any stable content hash works;
/// FNV keeps shard selection and `Hash` independent of std's per-process
/// `RandomState`.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Label-start offsets of an already validated, normalized name.
fn label_starts_of(name: &str) -> Box<[u16]> {
    let mut starts = Vec::with_capacity(4);
    let mut start = 0usize;
    for label in name.split('.') {
        starts.push(start as u16);
        start += label.len() + 1;
    }
    starts.into_boxed_slice()
}

/// Intern-table entry: hashes and borrows as the name string so lookups
/// never allocate.
struct InternEntry(Arc<NameInner>);

impl Borrow<str> for InternEntry {
    fn borrow(&self) -> &str {
        &self.0.name
    }
}

impl Hash for InternEntry {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.name.hash(state);
    }
}

impl PartialEq for InternEntry {
    fn eq(&self, other: &Self) -> bool {
        self.0.name == other.0.name
    }
}

impl Eq for InternEntry {}

/// Shard count for the intern table. Power of two; 16 shards keep write
/// contention negligible even with the scan engine's worker threads all
/// parsing at once.
const INTERN_SHARDS: usize = 16;

struct Interner {
    shards: [RwLock<HashSet<InternEntry>>; INTERN_SHARDS],
}

static INTERNER: LazyLock<Interner> = LazyLock::new(|| Interner {
    shards: std::array::from_fn(|_| RwLock::new(HashSet::new())),
});

impl Interner {
    /// Returns the unique shared payload for `normalized`, creating it on
    /// first sight. Read-locks on the hit path; write-locks only on miss.
    fn intern(&self, normalized: &str) -> Arc<NameInner> {
        let hash = fnv1a(normalized.as_bytes());
        let shard = &self.shards[(hash as usize) & (INTERN_SHARDS - 1)];
        if let Some(entry) = shard.read().expect("interner lock").get(normalized) {
            return Arc::clone(&entry.0);
        }
        let label_starts = label_starts_of(normalized);
        // Intern the parent first (outside this shard's lock) so the link
        // always points at the parent's unique payload.
        let parent = label_starts
            .get(1)
            .map(|&start| self.intern(&normalized[usize::from(start)..]));
        let inner = Arc::new(NameInner {
            name: normalized.into(),
            label_starts,
            hash,
            parent,
        });
        let mut guard = shard.write().expect("interner lock");
        match guard.get(normalized) {
            // Raced with another thread; keep the winner so pointer
            // identity stays unique per name.
            Some(existing) => Arc::clone(&existing.0),
            None => {
                guard.insert(InternEntry(Arc::clone(&inner)));
                inner
            }
        }
    }

    fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("interner lock").len())
            .sum()
    }
}

/// A fully qualified domain name in normalized (lowercase, no trailing dot)
/// presentation form.
///
/// Names are validated on construction: 1–63 character labels of letters,
/// digits, hyphens and underscores (underscores occur in real DNS, e.g.
/// `_dmarc`), no leading/trailing hyphen in a label, total length ≤ 253.
/// Comparison is case-insensitive by construction because parsing lowercases.
///
/// Parsing interns the normalized form process-wide, so `Clone` is a
/// refcount bump and equality/hashing are O(1) on the fast path.
///
/// # Example
///
/// ```
/// use remnant_dns::DomainName;
///
/// let www: DomainName = "WWW.Example.COM".parse()?;
/// assert_eq!(www.to_string(), "www.example.com");
/// assert_eq!(www.apex().to_string(), "example.com");
/// assert!(www.is_subdomain_of(&"example.com".parse()?));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone)]
pub struct DomainName(Arc<NameInner>);

impl DomainName {
    /// Parses and validates a name (see type docs for the accepted syntax).
    ///
    /// # Errors
    ///
    /// Returns [`DnsError::ParseName`] on empty names, empty labels, label
    /// or name length violations, or invalid characters.
    pub fn parse(s: &str) -> Result<Self, DnsError> {
        let trimmed = s.strip_suffix('.').unwrap_or(s);
        if trimmed.is_empty() || trimmed.len() > MAX_NAME_LEN {
            return Err(DnsError::ParseName(s.to_owned()));
        }
        let mut needs_lowering = false;
        for label in trimmed.split('.') {
            if label.is_empty() || label.len() > MAX_LABEL_LEN {
                return Err(DnsError::ParseName(s.to_owned()));
            }
            if label.starts_with('-') || label.ends_with('-') {
                return Err(DnsError::ParseName(s.to_owned()));
            }
            for b in label.bytes() {
                if b.is_ascii_uppercase() {
                    needs_lowering = true;
                } else if !(b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-' || b == b'_')
                {
                    return Err(DnsError::ParseName(s.to_owned()));
                }
            }
        }
        // Already-normalized input (the overwhelmingly common case once a
        // world exists) interns without allocating a lowercase copy.
        let inner = if needs_lowering {
            INTERNER.intern(&trimmed.to_ascii_lowercase())
        } else {
            INTERNER.intern(trimmed)
        };
        Ok(DomainName(inner))
    }

    /// Number of distinct names interned process-wide (diagnostics; the
    /// table never evicts).
    pub fn interned_count() -> usize {
        INTERNER.len()
    }

    /// The normalized presentation form.
    pub fn as_str(&self) -> &str {
        &self.0.name
    }

    /// Number of labels, e.g. 3 for `www.example.com`.
    pub fn label_count(&self) -> usize {
        self.0.label_starts.len()
    }

    /// Iterates labels left to right.
    pub fn labels(&self) -> impl Iterator<Item = &str> {
        self.0.name.split('.')
    }

    /// The `n` rightmost labels as a name, or `None` if `n` is 0 or exceeds
    /// the label count.
    pub fn suffix(&self, n: usize) -> Option<DomainName> {
        if n == 0 {
            return None;
        }
        let mut inner = &self.0;
        for _ in 0..self.label_count().checked_sub(n)? {
            inner = inner
                .parent
                .as_ref()
                .expect("every non-TLD links its parent");
        }
        Some(DomainName(Arc::clone(inner)))
    }

    /// The top-level domain (rightmost label).
    pub fn tld(&self) -> &str {
        let start = usize::from(*self.0.label_starts.last().expect("names have >= 1 label"));
        &self.0.name[start..]
    }

    /// The registrable apex: the two rightmost labels (this simulation uses
    /// single-label TLDs only), or the whole name if it has fewer than two
    /// labels.
    pub fn apex(&self) -> DomainName {
        self.suffix(2.min(self.label_count()))
            .expect("suffix of own label count is always valid")
    }

    /// The name with its leftmost label removed, or `None` at a TLD.
    pub fn parent(&self) -> Option<DomainName> {
        self.0.parent.clone().map(DomainName)
    }

    /// True if `self` is exactly `<label>.<parent>`: the same test as
    /// `parent.prepend(label).ok() == Some(self)`, without building (or
    /// interning) the prepended name. `label` compares ASCII
    /// case-insensitively, as parsing would lowercase it.
    ///
    /// ```
    /// use remnant_dns::DomainName;
    /// let apex: DomainName = "example.com".parse()?;
    /// let dev: DomainName = "dev.example.com".parse()?;
    /// assert!(dev.is_child_of(&apex, "dev"));
    /// assert!(!dev.is_child_of(&apex, "mail"));
    /// assert!(!apex.is_child_of(&apex, "dev"));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn is_child_of(&self, parent: &DomainName, label: &str) -> bool {
        let Some(own_parent) = &self.0.parent else {
            return false;
        };
        let first_end = usize::from(self.0.label_starts[1]) - 1;
        self.0.name[..first_end].eq_ignore_ascii_case(label)
            && (Arc::ptr_eq(own_parent, &parent.0) || own_parent.name == parent.0.name)
    }

    /// True if `self` is equal to or underneath `other`
    /// (`www.example.com` is a subdomain of `example.com` and of itself).
    pub fn is_subdomain_of(&self, other: &DomainName) -> bool {
        if Arc::ptr_eq(&self.0, &other.0) {
            return true;
        }
        let name = &*self.0.name;
        let tail = &*other.0.name;
        if name.len() == tail.len() {
            return name == tail;
        }
        // A proper subdomain ends with ".<other>" — both names are
        // normalized, so a byte suffix check with a label boundary is
        // exactly the label-wise suffix relation.
        name.len() > tail.len()
            && name.ends_with(tail)
            && name.as_bytes()[name.len() - tail.len() - 1] == b'.'
    }

    /// Prefixes a label, e.g. `"example.com".prepend("www")`.
    ///
    /// # Errors
    ///
    /// Returns [`DnsError::ParseName`] if the resulting name is invalid.
    pub fn prepend(&self, label: &str) -> Result<DomainName, DnsError> {
        DomainName::parse(&format!("{label}.{}", self.as_str()))
    }

    /// All suffixes from the whole name down to the TLD, longest first.
    ///
    /// ```
    /// use remnant_dns::DomainName;
    /// let n: DomainName = "a.b.example.com".parse()?;
    /// let sufs: Vec<String> = n.suffixes().map(|s| s.to_string()).collect();
    /// assert_eq!(sufs, vec!["a.b.example.com", "b.example.com", "example.com", "com"]);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn suffixes(&self) -> impl Iterator<Item = DomainName> + '_ {
        std::iter::successors(Some(self.clone()), DomainName::parent)
    }

    /// True if any label contains `needle` as a substring. This is the
    /// paper's CNAME/NS-matching primitive (Table II "substring").
    ///
    /// ```
    /// use remnant_dns::DomainName;
    /// let ns: DomainName = "kate.ns.cloudflare.com".parse()?;
    /// assert!(ns.contains_label_substring("cloudflare"));
    /// assert!(!ns.contains_label_substring("incapdns"));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn contains_label_substring(&self, needle: &str) -> bool {
        let lowered;
        let needle = if needle.bytes().any(|b| b.is_ascii_uppercase()) {
            lowered = needle.to_ascii_lowercase();
            lowered.as_str()
        } else {
            needle
        };
        self.labels().any(|l| l.contains(needle))
    }
}

impl PartialEq for DomainName {
    fn eq(&self, other: &Self) -> bool {
        // Interning makes pointer identity the common case; the content
        // fallback keeps equality correct for handles that bypassed the
        // same intern table (e.g. across future serialization paths).
        Arc::ptr_eq(&self.0, &other.0)
            || (self.0.hash == other.0.hash && self.0.name == other.0.name)
    }
}

impl Eq for DomainName {}

impl Hash for DomainName {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.0.hash);
    }
}

impl PartialOrd for DomainName {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for DomainName {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if Arc::ptr_eq(&self.0, &other.0) {
            return std::cmp::Ordering::Equal;
        }
        self.0.name.cmp(&other.0.name)
    }
}

impl fmt::Display for DomainName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for DomainName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DomainName({})", self.as_str())
    }
}

impl FromStr for DomainName {
    type Err = DnsError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        DomainName::parse(s)
    }
}

impl AsRef<str> for DomainName {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

/// Multiplier of the Fx hash (rustc's `FxHasher`).
const FX_SEED: u64 = 0xf135_7aea_2e62_a9c5;

/// A [`Hasher`] for keys made of [`DomainName`]s and small integers.
///
/// A name already carries a content hash, so hashing one is a single
/// `write_u64`; this hasher folds each word in with an Fx-style
/// rotate-xor-multiply instead of running SipHash over it. It offers no
/// protection against adversarial keys — every name in the simulation is
/// generated, not supplied by an attacker.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct NameHasher(u64);

impl Hasher for NameHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn finish(&self) -> u64 {
        // The product's well-mixed high bits become the low bits the hash
        // table indexes buckets with.
        self.0.rotate_left(26)
    }
}

/// The [`BuildHasher`](std::hash::BuildHasher) of [`NameHasher`]s.
pub(crate) type BuildNameHasher = std::hash::BuildHasherDefault<NameHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> DomainName {
        s.parse().expect("test name")
    }

    #[test]
    fn parse_normalizes_case_and_trailing_dot() {
        assert_eq!(name("WWW.EXAMPLE.COM."), name("www.example.com"));
        assert_eq!(name("Example.Com").to_string(), "example.com");
    }

    #[test]
    fn parse_rejects_invalid() {
        for bad in [
            "",
            ".",
            "..",
            "a..b",
            ".example.com",
            "-bad.com",
            "bad-.com",
            "exa mple.com",
            "Ῥόδος.com",
            &("x".repeat(64) + ".com"),
            &"a.".repeat(130),
        ] {
            assert!(bad.parse::<DomainName>().is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn parse_accepts_underscore_and_digits() {
        assert_eq!(name("_dmarc.example.com").label_count(), 3);
        assert_eq!(name("123.example.com").label_count(), 3);
        assert_eq!(name("a-b-c.example.com").label_count(), 3);
    }

    #[test]
    fn label_accessors() {
        let n = name("a.b.example.com");
        assert_eq!(n.label_count(), 4);
        assert_eq!(
            n.labels().collect::<Vec<_>>(),
            vec!["a", "b", "example", "com"]
        );
        assert_eq!(n.tld(), "com");
        assert_eq!(n.apex(), name("example.com"));
    }

    #[test]
    fn suffix_edges() {
        let n = name("www.example.com");
        assert_eq!(n.suffix(0), None);
        assert_eq!(n.suffix(1), Some(name("com")));
        assert_eq!(n.suffix(3), Some(n.clone()));
        assert_eq!(n.suffix(4), None);
    }

    #[test]
    fn apex_of_short_names() {
        assert_eq!(name("com").apex(), name("com"));
        assert_eq!(name("example.com").apex(), name("example.com"));
    }

    #[test]
    fn parent_walks_up() {
        let n = name("www.example.com");
        assert_eq!(n.parent(), Some(name("example.com")));
        assert_eq!(name("com").parent(), None);
    }

    #[test]
    fn subdomain_relation() {
        let apex = name("example.com");
        assert!(name("www.example.com").is_subdomain_of(&apex));
        assert!(apex.is_subdomain_of(&apex));
        assert!(!name("www.example.org").is_subdomain_of(&apex));
        // Label boundaries must be respected.
        assert!(!name("badexample.com").is_subdomain_of(&apex));
    }

    #[test]
    fn prepend_builds_subdomains() {
        assert_eq!(
            name("example.com").prepend("www").unwrap(),
            name("www.example.com")
        );
        assert!(name("example.com").prepend("").is_err());
        assert!(name("example.com").prepend("bad label").is_err());
    }

    #[test]
    fn substring_matching_is_per_label_and_case_insensitive() {
        let n = name("foo.edgekey.net");
        assert!(n.contains_label_substring("edgekey"));
        assert!(n.contains_label_substring("EDGEKEY"));
        assert!(n.contains_label_substring("dge"));
        assert!(!n.contains_label_substring("edgekeynet")); // spans a dot
    }

    #[test]
    fn ordering_is_stable() {
        let mut v = [name("b.com"), name("a.com"), name("a.b.com")];
        v.sort();
        assert_eq!(v[0], name("a.b.com"));
    }

    #[test]
    fn interning_unifies_handles() {
        let a = name("intern-unify.example.com");
        let b = name("Intern-Unify.EXAMPLE.com.");
        assert!(Arc::ptr_eq(&a.0, &b.0), "same name interns to one payload");
        let c = a.clone();
        assert!(Arc::ptr_eq(&a.0, &c.0), "clone is a refcount bump");
    }

    #[test]
    fn suffix_handles_are_interned_too() {
        let full = name("www.intern-suffix.example.com");
        let apex = full.suffix(3).unwrap();
        let parsed = name("intern-suffix.example.com");
        assert!(Arc::ptr_eq(&apex.0, &parsed.0));

        // Parent links reach the unique payload of every ancestor.
        assert!(Arc::ptr_eq(&full.apex().0, &name("example.com").0));
        assert!(Arc::ptr_eq(&full.parent().unwrap().0, &parsed.0));
        let chain: Vec<DomainName> = full.suffixes().collect();
        assert_eq!(chain.len(), full.label_count());
        for suffix in &chain {
            assert!(Arc::ptr_eq(&suffix.0, &name(suffix.as_str()).0), "{suffix}");
        }
        let tld = chain.last().unwrap();
        assert_eq!(tld.as_str(), "com");
        assert_eq!(tld.parent(), None);
    }

    #[test]
    fn is_child_of_matches_prepend() {
        let apex = name("child-of.example.com");
        let dev = name("dev.child-of.example.com");
        assert!(dev.is_child_of(&apex, "dev"));
        assert!(dev.is_child_of(&apex, "DEV"));
        assert!(!dev.is_child_of(&apex, "mail"));
        assert!(!dev.is_child_of(&name("example.com"), "dev"));
        assert!(!name("x.dev.child-of.example.com").is_child_of(&apex, "dev"));
        assert!(!name("com").is_child_of(&name("com"), "com"));
    }

    #[test]
    fn hash_is_content_based() {
        use std::collections::hash_map::DefaultHasher;
        let h = |n: &DomainName| {
            let mut hasher = DefaultHasher::new();
            n.hash(&mut hasher);
            hasher.finish()
        };
        let a = name("hash.example.com");
        let b = name("HASH.example.com");
        assert_eq!(h(&a), h(&b));
        assert_ne!(h(&a), h(&name("other.example.com")));
    }

    #[test]
    fn interned_count_grows_monotonically() {
        let before = DomainName::interned_count();
        let _ = name("interned-count-probe.example.com");
        assert!(DomainName::interned_count() > 0);
        assert!(DomainName::interned_count() >= before);
    }
}
