//! Property tests for the network substrate.

use proptest::prelude::*;

use remnant_net::{AnycastMap, Asn, IpAllocator, IpRangeDb, Ipv4Cidr, PopId, Region};
use std::net::Ipv4Addr;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn allocator_yields_unique_in_pool_addresses(ip: u32, len in 20u8..28, take in 1usize..64) {
        let block = Ipv4Cidr::new(Ipv4Addr::from(ip), len).unwrap();
        let mut pool = IpAllocator::new("p", vec![block]);
        let capacity = pool.capacity() as usize;
        let n = take.min(capacity);
        let addrs = pool.allocate_n(n).unwrap();
        let unique: std::collections::BTreeSet<_> = addrs.iter().collect();
        prop_assert_eq!(unique.len(), n, "all distinct");
        for addr in &addrs {
            prop_assert!(block.contains(*addr), "{addr} inside {block}");
            // Network/broadcast addresses are never handed out for /<31.
            prop_assert_ne!(*addr, block.network());
            prop_assert_ne!(*addr, block.last());
        }
        prop_assert_eq!(pool.allocated(), n as u64);
    }

    #[test]
    fn allocator_exhausts_exactly_at_capacity(len in 26u8..31) {
        let block = Ipv4Cidr::new(Ipv4Addr::new(10, 7, 0, 0), len).unwrap();
        let mut pool = IpAllocator::new("p", vec![block]);
        let capacity = pool.capacity();
        for _ in 0..capacity {
            prop_assert!(pool.allocate().is_ok());
        }
        prop_assert!(pool.allocate().is_err());
    }

    #[test]
    fn range_db_insert_remove_roundtrip(
        blocks in prop::collection::btree_map((any::<u32>(), 8u8..=28), any::<u32>(), 1..16),
    ) {
        let mut db = IpRangeDb::new();
        let mut normalized = std::collections::BTreeMap::new();
        for ((ip, len), asn) in &blocks {
            let block = Ipv4Cidr::new(Ipv4Addr::from(*ip), *len).unwrap();
            db.insert(block, Asn::new(*asn));
            normalized.insert(block, Asn::new(*asn));
        }
        prop_assert_eq!(db.len(), normalized.len());
        // Every stored block's network address matches its own entry or a
        // longer one.
        for block in normalized.keys() {
            let hit = db.lookup_block(block.network()).expect("member matches");
            prop_assert!(hit.0.prefix_len() >= block.prefix_len());
        }
        // Removal empties the db.
        for (block, asn) in &normalized {
            prop_assert_eq!(db.remove(block), Some(*asn));
        }
        prop_assert!(db.is_empty());
    }

    #[test]
    fn range_db_lookup_is_brute_force_longest_prefix(
        base: u32,
        // Blocks around `base`: the top byte moves among 4 values and the
        // low 16 bits among all, so short blocks nest longer ones.
        blocks in prop::collection::vec((0u32..4, any::<u16>(), 0u8..=32), 1..24),
        strays in prop::collection::vec(any::<u32>(), 0..8),
    ) {
        let near = |hi: u32, lo: u16| Ipv4Addr::from(base ^ (hi << 24) ^ u32::from(lo));
        let mut db = IpRangeDb::new();
        let mut inserted = std::collections::BTreeMap::new();
        for (i, &(hi, lo, len)) in blocks.iter().enumerate() {
            let block = Ipv4Cidr::new(near(hi, lo), len).unwrap();
            db.insert(block, i);
            inserted.insert(block, i);
        }
        // Probe the drawn addresses and their neighbours, every block's
        // first, middle and last address, and addresses anywhere.
        let mut probes: Vec<Ipv4Addr> = strays.iter().map(|&ip| Ipv4Addr::from(ip)).collect();
        for &(hi, lo, _) in &blocks {
            probes.push(near(hi, lo));
            probes.push(near(hi, lo.wrapping_add(1)));
        }
        for block in inserted.keys() {
            let (first, last) = (u32::from(block.network()), u32::from(block.last()));
            probes.extend([first, first + (last - first) / 2, last].map(Ipv4Addr::from));
        }
        for addr in probes {
            let expected = inserted
                .iter()
                .filter(|(block, _)| block.contains(addr))
                .max_by_key(|(block, _)| block.prefix_len())
                .map(|(block, value)| (*block, value));
            prop_assert_eq!(db.lookup_block(addr), expected, "{}", addr);
            prop_assert_eq!(db.lookup(addr), expected.map(|(_, value)| value), "{}", addr);
        }
    }

    #[test]
    fn range_db_lookup_matches_a_probe_of_every_length_after_removals(
        // Blocks of every length, /0 to /7 included; a short block spans
        // several first octets.
        blocks in prop::collection::vec((any::<u32>(), 0u8..=32), 1..16),
        removed in prop::collection::vec(any::<usize>(), 0..8),
        probes in prop::collection::vec(any::<u32>(), 1..32),
    ) {
        let mut db = IpRangeDb::new();
        let mut reference = std::collections::BTreeMap::new();
        for (i, &(ip, len)) in blocks.iter().enumerate() {
            let block = Ipv4Cidr::new(Ipv4Addr::from(ip), len).unwrap();
            db.insert(block, i);
            reference.insert(block, i);
        }
        // Removing a block may leave its first octets in the pre-filter;
        // lookups must still miss what is gone.
        for &pick in &removed {
            let block = blocks[pick % blocks.len()];
            let block = Ipv4Cidr::new(Ipv4Addr::from(block.0), block.1).unwrap();
            prop_assert_eq!(db.remove(&block), reference.remove(&block));
        }
        let mut addrs: Vec<Ipv4Addr> = probes.iter().map(|&ip| Ipv4Addr::from(ip)).collect();
        for &(ip, _) in &blocks {
            addrs.push(Ipv4Addr::from(ip));
        }
        for addr in addrs {
            let expected = (0..=32u8).rev().find_map(|len| {
                let block = Ipv4Cidr::new(addr, len).unwrap();
                reference.get(&block).map(|value| (block, value))
            });
            prop_assert_eq!(db.lookup_block(addr), expected, "{}", addr);
            prop_assert_eq!(db.lookup(addr), expected.map(|(_, value)| value), "{}", addr);
        }
    }

    #[test]
    fn anycast_catchment_is_total_once_announced(
        ip: u32,
        announce_regions in prop::collection::btree_set(0usize..10, 1..10),
    ) {
        let addr = Ipv4Addr::from(ip);
        let mut map = AnycastMap::new();
        for idx in &announce_regions {
            map.announce(addr, Region::ALL[*idx], PopId(*idx as u32));
        }
        // Every region — announced or not — reaches *some* announcing PoP.
        for region in Region::ALL {
            let pop = map.catchment(addr, region).unwrap();
            prop_assert!(announce_regions.contains(&(pop.0 as usize)));
        }
        // Announced regions reach their own PoP.
        for idx in &announce_regions {
            prop_assert_eq!(
                map.catchment(addr, Region::ALL[*idx]).unwrap(),
                PopId(*idx as u32)
            );
        }
    }

    #[test]
    fn cidr_nth_iterates_without_gaps(ip: u32, len in 24u8..=30) {
        let block = Ipv4Cidr::new(Ipv4Addr::from(ip), len).unwrap();
        let from_iter: Vec<Ipv4Addr> = block.iter().collect();
        prop_assert_eq!(from_iter.len() as u64, block.size());
        for (i, addr) in from_iter.iter().enumerate() {
            prop_assert_eq!(Some(*addr), block.nth(i as u64));
            prop_assert!(block.contains(*addr));
        }
        // Consecutive addresses differ by exactly one.
        for pair in from_iter.windows(2) {
            prop_assert_eq!(u32::from(pair[1]) - u32::from(pair[0]), 1);
        }
    }
}
