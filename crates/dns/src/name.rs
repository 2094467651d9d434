//! Domain names, interned process-wide.
//!
//! Every simulated query the collector and the residual scanners issue
//! flows through [`DomainName`]; zone lookups, cache keys, CNAME chases
//! and snapshot rows all copy names around. To keep that hot path free of
//! heap churn, parsing interns the normalized form in a process-wide
//! sharded intern table. The interner never evicts — the simulation's
//! name universe is bounded by the generated world — so each name's
//! payload is written once into a leaked, append-only arena and lives
//! for the whole process. A [`DomainName`] is one `&'static` pointer to
//! that payload: `Clone` is a pointer copy with no refcount and no drop
//! glue, equality is pointer identity (exact, because every handle comes
//! from the interner), and hashing writes a precomputed content hash, so
//! hashed maps and ordered maps never depend on addresses.
//!
//! Interning a name interns its parent first and links to it, so every
//! interned name carries the chain of its ancestors down to the TLD.
//! [`DomainName::parent`], [`DomainName::suffix`], [`DomainName::apex`],
//! [`DomainName::tld`] and [`DomainName::suffixes`] walk those links and
//! copy one pointer; they never touch the intern table.
//! [`DomainName::is_child_of`] tests "is this `<label>.<parent>`" the same
//! way, so answering code can match derived hosts without building them.
//! Only [`DomainName::parse`] and [`DomainName::prepend`] probe the table.
//!
//! The table hashes each name once. Its shards key entries by the FNV-1a
//! word the payload stores, mixed through
//! [`WordHasher`](remnant_net::hash::WordHasher); a probe passes that
//! word with the text, so no SipHash runs over the bytes. Parsing is
//! hit-first: it hashes the input (less a trailing dot) and looks it up
//! before validating anything. Every interned spelling was validated and
//! normalized when it was interned, so an exact hit is returned as is —
//! the common case once a world exists, and all of reading a spill
//! file's name tables back. A miss (a new name, an upper-case spelling,
//! invalid input) validates exactly as it always did.
//!
//! Hot maps keyed by names (the resolver cache, the fabric's indexes)
//! hash through the same `WordHasher`, which mixes the precomputed
//! content hash with one multiply.
//!
//! Each payload also carries one verdict word: the answer of a pure
//! classifier over the name, computed on first use by
//! [`DomainName::verdict`] and read back with one atomic load after that.
//! Because the payload lives for the whole process, so does the verdict.
//!
//! Payloads and their text live in one arena: leaked chunks of payload
//! slots and of text bytes, carved front to back in the order names are
//! created. A name costs its 40-byte payload, its text and its
//! intern-table slot, with no allocator header and no allocation of its
//! own; a chunk is allocated once per 1,024 names or 32 KiB of text.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::mem::MaybeUninit;
use std::str::FromStr;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{LazyLock, Mutex, RwLock};

use remnant_net::hash::WordSet;

use crate::error::DnsError;

/// Maximum total length of a domain name in presentation format.
const MAX_NAME_LEN: usize = 253;
/// Maximum length of a single label.
const MAX_LABEL_LEN: usize = 63;

/// The shared, immutable payload of an interned name, written once into
/// the [`Arena`].
struct NameInner {
    /// Normalized presentation form, e.g. "www.example.com", in an arena
    /// text chunk.
    name: &'static str,
    /// FNV-1a hash of `name`, precomputed so `Hash` is O(1).
    hash: u64,
    /// The name with its leftmost label removed, interned before this
    /// name; `None` at a TLD.
    parent: Option<&'static NameInner>,
    /// The classifier's verdict with [`VERDICT_COMPUTED`] set, or 0 while
    /// it has not been computed (see [`DomainName::verdict`]).
    verdict: AtomicU32,
    /// Number of labels; a 253-byte name has at most 127.
    labels: u8,
}

/// Set in a stored verdict word, so a computed verdict of 0 is told apart
/// from "not yet computed". Classifiers leave this bit clear.
const VERDICT_COMPUTED: u32 = 1 << 31;

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

/// Payload slots per arena chunk: 40 KiB of payloads.
const PAYLOAD_CHUNK: usize = 1024;
/// Bytes per arena text chunk. A name is at most [`MAX_NAME_LEN`] bytes,
/// so a chunk abandons at most that much of its tail.
const TEXT_CHUNK: usize = 32 * 1024;

/// Append-only storage for every payload and its text. Chunks are leaked
/// when they are allocated and carved front to back, so a carved slot is
/// `&'static`: nothing is ever freed or moved.
#[derive(Default)]
struct Arena {
    /// The unused tail of the current payload chunk.
    slots: &'static mut [MaybeUninit<NameInner>],
    /// The unused tail of the current text chunk.
    text: &'static mut [MaybeUninit<u8>],
}

impl Arena {
    /// Copies `name` into the text chunk and writes its payload into the
    /// next slot.
    fn alloc(
        &mut self,
        name: &str,
        hash: u64,
        parent: Option<&'static NameInner>,
        labels: u8,
    ) -> &'static NameInner {
        if self.text.len() < name.len() {
            self.text = Box::leak(Box::new_uninit_slice(TEXT_CHUNK));
        }
        let (bytes, rest) = std::mem::take(&mut self.text).split_at_mut(name.len());
        self.text = rest;
        let name = std::str::from_utf8(bytes.write_copy_of_slice(name.as_bytes()))
            .expect("a copy of a str is UTF-8");
        if self.slots.is_empty() {
            self.slots = Box::leak(Box::new_uninit_slice(PAYLOAD_CHUNK));
        }
        let (slot, rest) = std::mem::take(&mut self.slots)
            .split_first_mut()
            .expect("the chunk was just refilled");
        self.slots = rest;
        slot.write(NameInner {
            name,
            hash,
            parent,
            verdict: AtomicU32::new(0),
            labels,
        })
    }
}

/// What an intern-table probe matches: a name's FNV-1a word and its
/// normalized text. Stored entries and `(hash, text)` probes are both
/// keys, so a probe hashes one precomputed word and builds nothing.
trait InternKey {
    fn hash_word(&self) -> u64;
    fn text(&self) -> &str;
}

/// Intern-table entry: hashes as its payload's precomputed FNV-1a word
/// and borrows as an [`InternKey`], so probes never rehash the bytes.
struct InternEntry(&'static NameInner);

impl InternKey for InternEntry {
    fn hash_word(&self) -> u64 {
        self.0.hash
    }

    fn text(&self) -> &str {
        self.0.name
    }
}

impl InternKey for (u64, &str) {
    fn hash_word(&self) -> u64 {
        self.0
    }

    fn text(&self) -> &str {
        self.1
    }
}

impl<'a> Borrow<dyn InternKey + 'a> for InternEntry {
    fn borrow(&self) -> &(dyn InternKey + 'a) {
        self
    }
}

impl Hash for dyn InternKey + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash_word());
    }
}

impl PartialEq for dyn InternKey + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.hash_word() == other.hash_word() && self.text() == other.text()
    }
}

impl Eq for dyn InternKey + '_ {}

// `HashSet` requires an entry to hash and compare exactly like its
// borrowed key.
impl Hash for InternEntry {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (self as &dyn InternKey).hash(state);
    }
}

impl PartialEq for InternEntry {
    fn eq(&self, other: &Self) -> bool {
        (self as &dyn InternKey) == (other as &dyn InternKey)
    }
}

impl Eq for InternEntry {}

/// Shard count for the intern table. Power of two; 16 shards keep write
/// contention negligible even with the scan engine's worker threads all
/// parsing at once.
const INTERN_SHARDS: usize = 16;

struct Interner {
    shards: [RwLock<WordSet<InternEntry>>; INTERN_SHARDS],
    /// One arena for every shard, filled in creation order, so the names
    /// a site's generation interns sit together. Its lock is only taken
    /// to create a name, inside that name's shard write lock, and no
    /// other lock is ever taken while it is held.
    arena: Mutex<Arena>,
}

static INTERNER: LazyLock<Interner> = LazyLock::new(|| Interner {
    shards: std::array::from_fn(|_| RwLock::new(WordSet::default())),
    arena: Mutex::default(),
});

impl Interner {
    fn shard(&self, hash: u64) -> &RwLock<WordSet<InternEntry>> {
        &self.shards[(hash as usize) & (INTERN_SHARDS - 1)]
    }

    /// The payload interned for `normalized`, whose FNV-1a word is
    /// `hash`, if there is one. One read lock and one word-hashed probe.
    fn find(&self, hash: u64, normalized: &str) -> Option<&'static NameInner> {
        let key: &dyn InternKey = &(hash, normalized);
        let shard = self.shard(hash).read().expect("interner lock");
        shard.get(key).map(|entry| entry.0)
    }

    /// Returns the unique shared payload for `normalized` (FNV-1a word
    /// `hash`), creating it on first sight.
    fn intern(&self, hash: u64, normalized: &str) -> &'static NameInner {
        self.find(hash, normalized)
            .unwrap_or_else(|| self.insert(hash, normalized))
    }

    /// Creates the payload for a `normalized` name that a probe just
    /// missed. Write-locks its shard only to insert.
    fn insert(&self, hash: u64, normalized: &str) -> &'static NameInner {
        // Intern the parent first (outside this shard's lock) so the link
        // always points at the parent's unique payload.
        let parent = normalized
            .split_once('.')
            .map(|(_, parent)| self.intern(fnv1a(parent.as_bytes()), parent));
        let labels = parent.map_or(1, |parent| parent.labels + 1);
        let mut guard = self.shard(hash).write().expect("interner lock");
        // Another thread may have interned the name since the read probe;
        // its payload wins, so pointer identity stays unique per name and
        // only the winner ever takes arena space.
        let key: &dyn InternKey = &(hash, normalized);
        if let Some(existing) = guard.get(key) {
            return existing.0;
        }
        let inner = self
            .arena
            .lock()
            .expect("arena lock")
            .alloc(normalized, hash, parent, labels);
        guard.insert(InternEntry(inner));
        inner
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
/// Parsing interns the normalized form process-wide and the handle is one
/// pointer to the interned payload, so `Clone` is a pointer copy with no
/// drop glue, equality is pointer identity, and hashing writes the
/// payload's precomputed content hash.
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
pub struct DomainName(&'static NameInner);

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
        // Every interned spelling was validated and normalized when it
        // was interned, so an exact hit (the overwhelmingly common case
        // once a world exists) is the answer without re-validating.
        let hash = fnv1a(trimmed.as_bytes());
        if let Some(inner) = INTERNER.find(hash, trimmed) {
            return Ok(DomainName(inner));
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
        let inner = if needs_lowering {
            let lowered = trimmed.to_ascii_lowercase();
            INTERNER.intern(fnv1a(lowered.as_bytes()), &lowered)
        } else {
            // Already normalized and just missed: a new name.
            INTERNER.insert(hash, trimmed)
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
        self.0.name
    }

    /// Number of labels, e.g. 3 for `www.example.com`.
    pub fn label_count(&self) -> usize {
        usize::from(self.0.labels)
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
        let mut inner = self.0;
        for _ in 0..self.label_count().checked_sub(n)? {
            inner = inner.parent.expect("every non-TLD links its parent");
        }
        Some(DomainName(inner))
    }

    /// The top-level domain (rightmost label).
    pub fn tld(&self) -> &str {
        let mut inner = self.0;
        while let Some(parent) = inner.parent {
            inner = parent;
        }
        inner.name
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
        self.0.parent.map(DomainName)
    }

    /// True if `self` is exactly `<label>.<parent>` for a single `label`:
    /// the same test as `parent.prepend(label).ok() == Some(self)`,
    /// without building (or interning) the prepended name. `label`
    /// compares ASCII case-insensitively, as parsing would lowercase it.
    /// A dotted `label` is never one label, so it returns `false` even
    /// where `prepend` would build `self` (`a.b` and `example.com` for
    /// `a.b.example.com`, whose parent is `b.example.com`).
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
        // The pointer test comes first, so a mismatched parent's payload
        // is never read.
        if !self.0.parent.is_some_and(|own| std::ptr::eq(own, parent.0)) {
            return false;
        }
        // `self` is `<first label>.<parent>`, so a label of the first
        // label's length is compared against exactly that label.
        let name = self.0.name;
        name.len() == parent.0.name.len() + 1 + label.len()
            && name.as_bytes()[..label.len()].eq_ignore_ascii_case(label.as_bytes())
    }

    /// True if `self` is equal to or underneath `other`
    /// (`www.example.com` is a subdomain of `example.com` and of itself).
    pub fn is_subdomain_of(&self, other: &DomainName) -> bool {
        // `other` can only be the ancestor with its own label count.
        self.suffix(other.label_count()).as_ref() == Some(other)
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

    /// The name's verdict under `classify`, computed on the first call
    /// and read from the name's payload on every later one.
    ///
    /// Each name stores one verdict word, so a process uses one
    /// classifier: every caller must pass the same pure function of the
    /// name. Threads that race on a fresh name both compute it and store
    /// the same word, so a plain relaxed load and store suffice.
    ///
    /// # Panics
    ///
    /// Panics if `classify` returns a word with bit 31 set; that bit
    /// marks a stored verdict as computed.
    ///
    /// ```
    /// use remnant_dns::DomainName;
    /// fn labels(name: &DomainName) -> u32 {
    ///     name.label_count() as u32
    /// }
    /// let ns: DomainName = "verdict-doc.ns.example.com".parse()?;
    /// assert_eq!(ns.verdict(labels), 4);
    /// assert_eq!(ns.verdict(labels), 4);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn verdict(&self, classify: fn(&DomainName) -> u32) -> u32 {
        let stored = self.0.verdict.load(Ordering::Relaxed);
        if stored & VERDICT_COMPUTED != 0 {
            return stored & !VERDICT_COMPUTED;
        }
        let verdict = classify(self);
        assert_eq!(
            verdict & VERDICT_COMPUTED,
            0,
            "a verdict leaves bit 31 clear"
        );
        self.0
            .verdict
            .store(verdict | VERDICT_COMPUTED, Ordering::Relaxed);
        verdict
    }
}

impl PartialEq for DomainName {
    fn eq(&self, other: &Self) -> bool {
        // Every handle comes from the interner, which holds one payload
        // per name, so pointer identity is exactly name equality.
        std::ptr::eq(self.0, other.0)
    }
}

impl Eq for DomainName {}

impl Hash for DomainName {
    /// Writes the content hash, never the address, so iteration order of
    /// name-keyed maps is the same in every process.
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
        // Content order, not address order: `BTree` iteration and sorted
        // output must not depend on where a payload was allocated.
        if std::ptr::eq(self.0, other.0) {
            return std::cmp::Ordering::Equal;
        }
        self.0.name.cmp(other.0.name)
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
        assert!(std::ptr::eq(a.0, b.0), "same name interns to one payload");
        let c = a.clone();
        assert!(std::ptr::eq(a.0, c.0), "clone copies the handle's pointer");
    }

    #[test]
    fn suffix_handles_are_interned_too() {
        let full = name("www.intern-suffix.example.com");
        let apex = full.suffix(3).unwrap();
        let parsed = name("intern-suffix.example.com");
        assert!(std::ptr::eq(apex.0, parsed.0));

        // Parent links reach the unique payload of every ancestor.
        assert!(std::ptr::eq(full.apex().0, name("example.com").0));
        assert!(std::ptr::eq(full.parent().unwrap().0, parsed.0));
        let chain: Vec<DomainName> = full.suffixes().collect();
        assert_eq!(chain.len(), full.label_count());
        for suffix in &chain {
            assert!(std::ptr::eq(suffix.0, name(suffix.as_str()).0), "{suffix}");
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
        // `prepend("a.b")` builds `a.b.example.com`, but its parent is
        // `b.example.com`: a dotted label is never one label.
        let dotted = name("a.b.example.com");
        assert_eq!(name("example.com").prepend("a.b").unwrap(), dotted);
        assert!(!dotted.is_child_of(&name("example.com"), "a.b"));
        assert!(dotted.is_child_of(&name("b.example.com"), "A"));
        assert!(!dotted.is_child_of(&name("b.example.com"), "a."));
    }

    // A handle is one pointer and dropping it does nothing.
    const _: () = assert!(std::mem::size_of::<DomainName>() == std::mem::size_of::<usize>());
    const _: () = assert!(!std::mem::needs_drop::<DomainName>());
    // The payload is a text pointer and length, the hash, the parent link,
    // the verdict word and the label count, packed back to back in an
    // arena chunk with no allocator header.
    #[cfg(target_pointer_width = "64")]
    const _: () = assert!(std::mem::size_of::<NameInner>() == 40);

    #[test]
    fn verdict_is_computed_once_and_zero_is_a_verdict() {
        use std::sync::atomic::AtomicUsize;
        static CALLS: AtomicUsize = AtomicUsize::new(0);
        fn zero(_: &DomainName) -> u32 {
            CALLS.fetch_add(1, Ordering::Relaxed);
            0
        }
        let n = name("verdict-zero.example.com");
        assert_eq!(n.verdict(zero), 0);
        assert_eq!(n.verdict(zero), 0);
        assert_eq!(name("VERDICT-ZERO.example.com").verdict(zero), 0);
        assert_eq!(CALLS.load(Ordering::Relaxed), 1, "one computation per name");
    }

    #[test]
    #[should_panic(expected = "bit 31")]
    fn verdict_rejects_the_computed_bit() {
        name("verdict-high-bit.example.com").verdict(|_| VERDICT_COMPUTED);
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
        // The hash is FNV-1a of the name, never its address, so name-keyed
        // maps iterate in the same order in every process.
        for text in ["com", "hash.example.com", "www.hash.example.com"] {
            let mut by_content = DefaultHasher::new();
            by_content.write_u64(fnv1a(text.as_bytes()));
            assert_eq!(h(&name(text)), by_content.finish(), "{text}");
        }
    }

    #[test]
    fn interned_count_grows_monotonically() {
        let before = DomainName::interned_count();
        let _ = name("interned-count-probe.example.com");
        assert!(DomainName::interned_count() > 0);
        assert!(DomainName::interned_count() >= before);
    }
}
