//! Longest-prefix-match IP range database (RouteView substitute).
//!
//! The authors extracted each provider's announced IP ranges from the
//! RouteView BGP archive and matched collected A records against them
//! (Sec IV-B.2, "A-matching"). [`IpRangeDb`] is the same structure: a set of
//! CIDR blocks each tagged with an owner value, answering "who owns this
//! IP?" by longest-prefix match.

use std::net::Ipv4Addr;

use crate::cidr::Ipv4Cidr;
use crate::hash::WordMap;

/// A longest-prefix-match database mapping CIDR blocks to owner values.
///
/// Lookup cost is one hash probe per prefix length actually present (at
/// most 33), independent of database size. The per-length maps hash their
/// masked-network keys with [`WordHasher`](crate::hash::WordHasher), one
/// multiply per probe. An address whose first octet no block covers
/// returns after one bit test, with no probe at all.
///
/// # Example
///
/// ```
/// use remnant_net::IpRangeDb;
///
/// let mut db: IpRangeDb<&str> = IpRangeDb::new();
/// db.insert("10.0.0.0/8".parse()?, "coarse");
/// db.insert("10.9.0.0/16".parse()?, "fine");
/// // Longest prefix wins.
/// assert_eq!(db.lookup("10.9.1.1".parse()?), Some(&"fine"));
/// assert_eq!(db.lookup("10.1.1.1".parse()?), Some(&"coarse"));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct IpRangeDb<T> {
    /// One map per prefix length; `by_len[l]` maps masked network -> value.
    by_len: Vec<WordMap<u32, T>>,
    /// Prefix lengths present, sorted descending (checked first).
    lens_desc: Vec<u8>,
    len_entries: usize,
    /// Bit `o` is set if some block inserted since creation covers an
    /// address with first octet `o`. A superset: `remove` leaves bits set.
    first_octets: [u64; 4],
}

impl<T> IpRangeDb<T> {
    /// Creates an empty database.
    pub fn new() -> Self {
        IpRangeDb {
            by_len: (0..=32).map(|_| WordMap::default()).collect(),
            lens_desc: Vec::new(),
            len_entries: 0,
            first_octets: [0; 4],
        }
    }

    /// Inserts a block with its owner value, replacing and returning any
    /// previous value for exactly the same block.
    pub fn insert(&mut self, block: Ipv4Cidr, value: T) -> Option<T> {
        let len = block.prefix_len();
        let net = u32::from(block.network());
        let first = net >> 24;
        let last = u32::from(block.last()) >> 24;
        for octet in first..=last {
            self.first_octets[octet as usize / 64] |= 1 << (octet % 64);
        }
        let prev = self.by_len[usize::from(len)].insert(net, value);
        if prev.is_none() {
            self.len_entries += 1;
            if !self.lens_desc.contains(&len) {
                self.lens_desc.push(len);
                self.lens_desc.sort_unstable_by(|a, b| b.cmp(a));
            }
        }
        prev
    }

    /// Removes a block, returning its value if it was present.
    pub fn remove(&mut self, block: &Ipv4Cidr) -> Option<T> {
        let len = usize::from(block.prefix_len());
        let removed = self.by_len[len].remove(&u32::from(block.network()));
        if removed.is_some() {
            self.len_entries -= 1;
            if self.by_len[len].is_empty() {
                self.lens_desc.retain(|l| usize::from(*l) != len);
            }
        }
        removed
    }

    /// The masked network, prefix length and owner of the longest prefix
    /// containing `addr`, if any.
    fn longest(&self, addr: Ipv4Addr) -> Option<(u32, u8, &T)> {
        let bits = u32::from(addr);
        let octet = bits >> 24;
        if self.first_octets[octet as usize / 64] & (1 << (octet % 64)) == 0 {
            return None;
        }
        self.lens_desc.iter().find_map(|&len| {
            let masked = if len == 0 {
                0
            } else {
                bits & (u32::MAX << (32 - len))
            };
            self.by_len[usize::from(len)]
                .get(&masked)
                .map(|value| (masked, len, value))
        })
    }

    /// The owner of the longest prefix containing `addr`, if any.
    pub fn lookup(&self, addr: Ipv4Addr) -> Option<&T> {
        self.longest(addr).map(|(_, _, value)| value)
    }

    /// The matched block and owner for `addr`, if any.
    pub fn lookup_block(&self, addr: Ipv4Addr) -> Option<(Ipv4Cidr, &T)> {
        self.longest(addr).map(|(masked, len, value)| {
            let block = Ipv4Cidr::new(Ipv4Addr::from(masked), len)
                .expect("prefix length <= 32 by construction");
            (block, value)
        })
    }

    /// True if some block contains `addr`.
    pub fn contains(&self, addr: Ipv4Addr) -> bool {
        self.lookup(addr).is_some()
    }

    /// Number of blocks stored.
    pub fn len(&self) -> usize {
        self.len_entries
    }

    /// True if no blocks are stored.
    pub fn is_empty(&self) -> bool {
        self.len_entries == 0
    }

    /// Iterates `(block, value)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (Ipv4Cidr, &T)> {
        self.by_len.iter().enumerate().flat_map(|(len, map)| {
            map.iter().map(move |(net, value)| {
                let block = Ipv4Cidr::new(Ipv4Addr::from(*net), len as u8)
                    .expect("stored prefix lengths are <= 32");
                (block, value)
            })
        })
    }
}

/// Equal when both hold the same blocks with the same values; the
/// first-octet filter, which removals may leave wider, does not count.
impl<T: PartialEq> PartialEq for IpRangeDb<T> {
    fn eq(&self, other: &Self) -> bool {
        self.by_len == other.by_len
    }
}

impl<T> Default for IpRangeDb<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Extend<(Ipv4Cidr, T)> for IpRangeDb<T> {
    fn extend<I: IntoIterator<Item = (Ipv4Cidr, T)>>(&mut self, iter: I) {
        for (block, value) in iter {
            self.insert(block, value);
        }
    }
}

impl<T> FromIterator<(Ipv4Cidr, T)> for IpRangeDb<T> {
    fn from_iter<I: IntoIterator<Item = (Ipv4Cidr, T)>>(iter: I) -> Self {
        let mut db = IpRangeDb::new();
        db.extend(iter);
        db
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cidr(s: &str) -> Ipv4Cidr {
        s.parse().expect("test cidr")
    }

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().expect("test ip")
    }

    #[test]
    fn empty_db_matches_nothing() {
        let db: IpRangeDb<u8> = IpRangeDb::new();
        assert_eq!(db.lookup(ip("1.2.3.4")), None);
        assert!(db.is_empty());
    }

    #[test]
    fn longest_prefix_wins() {
        let mut db = IpRangeDb::new();
        db.insert(cidr("10.0.0.0/8"), 8u8);
        db.insert(cidr("10.1.0.0/16"), 16u8);
        db.insert(cidr("10.1.2.0/24"), 24u8);
        assert_eq!(db.lookup(ip("10.1.2.3")), Some(&24));
        assert_eq!(db.lookup(ip("10.1.9.9")), Some(&16));
        assert_eq!(db.lookup(ip("10.9.9.9")), Some(&8));
        assert_eq!(db.lookup(ip("11.0.0.0")), None);
    }

    #[test]
    fn insert_same_block_replaces() {
        let mut db = IpRangeDb::new();
        assert_eq!(db.insert(cidr("10.0.0.0/8"), 1u8), None);
        assert_eq!(db.insert(cidr("10.0.0.0/8"), 2u8), Some(1));
        assert_eq!(db.len(), 1);
        assert_eq!(db.lookup(ip("10.0.0.1")), Some(&2));
    }

    #[test]
    fn remove_unshadows() {
        let mut db = IpRangeDb::new();
        db.insert(cidr("10.0.0.0/8"), "outer");
        db.insert(cidr("10.1.0.0/16"), "inner");
        assert_eq!(db.remove(&cidr("10.1.0.0/16")), Some("inner"));
        assert_eq!(db.lookup(ip("10.1.0.1")), Some(&"outer"));
        assert_eq!(db.remove(&cidr("10.1.0.0/16")), None);
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn lookup_block_reports_matched_prefix() {
        let mut db = IpRangeDb::new();
        db.insert(cidr("104.16.0.0/12"), ());
        let (block, _) = db.lookup_block(ip("104.20.0.1")).expect("match");
        assert_eq!(block, cidr("104.16.0.0/12"));
    }

    #[test]
    fn default_route_matches_everything() {
        let mut db = IpRangeDb::new();
        db.insert(cidr("0.0.0.0/0"), "default");
        db.insert(cidr("192.0.2.0/24"), "doc");
        assert_eq!(db.lookup(ip("8.8.8.8")), Some(&"default"));
        assert_eq!(db.lookup(ip("192.0.2.55")), Some(&"doc"));
    }

    #[test]
    fn host_routes_match_exactly() {
        let mut db = IpRangeDb::new();
        db.insert(cidr("1.2.3.4/32"), ());
        assert!(db.contains(ip("1.2.3.4")));
        assert!(!db.contains(ip("1.2.3.5")));
    }

    #[test]
    fn default_is_new_and_accepts_inserts() {
        assert_eq!(IpRangeDb::<u8>::default(), IpRangeDb::new());
        let mut db = IpRangeDb::default();
        assert_eq!(db.insert(cidr("10.0.0.0/8"), 1u8), None);
        assert_eq!(db.lookup(ip("10.1.2.3")), Some(&1));
    }

    #[test]
    fn from_iterator_collects() {
        let db: IpRangeDb<u8> = vec![(cidr("10.0.0.0/8"), 1), (cidr("11.0.0.0/8"), 2)]
            .into_iter()
            .collect();
        assert_eq!(db.len(), 2);
        assert_eq!(db.iter().count(), 2);
    }
}
