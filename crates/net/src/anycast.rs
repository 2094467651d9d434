//! Anycast catchment: which PoP answers a query for an anycast IP.
//!
//! Cloudflare's nameserver fleet is anycast: "the DNS requests sent to the
//! same IP address of nameservers will hit different physical machines if
//! the hosts issuing these requests are located at different PoPs"
//! (Sec V-A.1). [`AnycastMap`] models this: an anycast IP is served by a set
//! of PoPs, and a query from a [`Region`] lands on the PoP for that region,
//! or on the proximally-nearest PoP when the provider has none there.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use crate::error::NetError;
use crate::geo::{PopId, Region};

/// Catchment map for one provider's anycast address space.
///
/// # Example
///
/// ```
/// use remnant_net::{AnycastMap, PopId, Region};
///
/// let mut map = AnycastMap::new();
/// let ns: std::net::Ipv4Addr = "173.245.59.1".parse()?;
/// map.announce(ns, Region::London, PopId(1));
/// map.announce(ns, Region::Tokyo, PopId(2));
/// assert_eq!(map.catchment(ns, Region::London)?, PopId(1));
/// // Sydney has no PoP for this IP; it falls through to a nearby region's.
/// let via_sydney = map.catchment(ns, Region::Sydney)?;
/// assert!(via_sydney == PopId(1) || via_sydney == PopId(2));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AnycastMap {
    /// anycast IP -> (region -> serving PoP)
    routes: HashMap<Ipv4Addr, HashMap<Region, PopId>>,
}

impl AnycastMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        AnycastMap::default()
    }

    /// Announces `addr` from `pop` for queries entering at `region`.
    /// Re-announcing replaces the previous PoP for that region.
    pub fn announce(&mut self, addr: Ipv4Addr, region: Region, pop: PopId) {
        self.routes.entry(addr).or_default().insert(region, pop);
    }

    /// The PoP that receives a query for `addr` entering at `region`.
    ///
    /// Falls back along [`Region::proximity_order`] when the provider has no
    /// PoP announcing the IP in `region` itself.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::NoCatchment`] if `addr` is not announced from any
    /// region.
    pub fn catchment(&self, addr: Ipv4Addr, region: Region) -> Result<PopId, NetError> {
        let regions = self
            .routes
            .get(&addr)
            .ok_or_else(|| NetError::NoCatchment {
                region: region.name().to_owned(),
            })?;
        if let Some(pop) = regions.get(&region) {
            return Ok(*pop);
        }
        for fallback in region.proximity_order() {
            if let Some(pop) = regions.get(&fallback) {
                return Ok(*pop);
            }
        }
        Err(NetError::NoCatchment {
            region: region.name().to_owned(),
        })
    }

    /// Number of distinct anycast IPs announced.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// True if nothing is announced.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().expect("test ip")
    }

    #[test]
    fn direct_catchment_prefers_local_pop() {
        let mut map = AnycastMap::new();
        map.announce(ip("1.1.1.1"), Region::Oregon, PopId(10));
        map.announce(ip("1.1.1.1"), Region::Tokyo, PopId(20));
        assert_eq!(
            map.catchment(ip("1.1.1.1"), Region::Oregon).unwrap(),
            PopId(10)
        );
        assert_eq!(
            map.catchment(ip("1.1.1.1"), Region::Tokyo).unwrap(),
            PopId(20)
        );
    }

    #[test]
    fn fallback_uses_proximity_order() {
        let mut map = AnycastMap::new();
        // Only a Frankfurt PoP announces; London's first preference is Frankfurt.
        map.announce(ip("2.2.2.2"), Region::Frankfurt, PopId(7));
        assert_eq!(
            map.catchment(ip("2.2.2.2"), Region::London).unwrap(),
            PopId(7)
        );
        // Even a far region eventually reaches the only PoP.
        assert_eq!(
            map.catchment(ip("2.2.2.2"), Region::Sydney).unwrap(),
            PopId(7)
        );
    }

    #[test]
    fn unannounced_ip_errors() {
        let map = AnycastMap::new();
        let err = map.catchment(ip("9.9.9.9"), Region::London).unwrap_err();
        assert!(matches!(err, NetError::NoCatchment { .. }));
    }

    #[test]
    fn reannounce_replaces_pop() {
        let mut map = AnycastMap::new();
        map.announce(ip("4.4.4.4"), Region::Mumbai, PopId(1));
        map.announce(ip("4.4.4.4"), Region::Mumbai, PopId(2));
        assert_eq!(
            map.catchment(ip("4.4.4.4"), Region::Mumbai).unwrap(),
            PopId(2)
        );
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn distinct_vantage_points_spread_over_pops() {
        // The paper used 5 vantage points to hit 5 distinct Cloudflare PoPs.
        let mut map = AnycastMap::new();
        for (i, region) in Region::VANTAGE_POINTS.iter().enumerate() {
            map.announce(ip("5.5.5.5"), *region, PopId(i as u32));
        }
        let hits: std::collections::BTreeSet<PopId> = Region::VANTAGE_POINTS
            .iter()
            .map(|r| map.catchment(ip("5.5.5.5"), *r).unwrap())
            .collect();
        assert_eq!(hits.len(), 5);
    }
}
