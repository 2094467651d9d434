//! Vantage points (Sec V-A.1, Fig 7).
//!
//! "we set up five geographically distributed vantage points ... (Oregon,
//! London, Sydney, Singapore, and Tokyo) to distribute the total traffic
//! load to five PoPs of Cloudflare."

use remnant_net::Region;

/// The rotating set of measurement vantage points.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VantagePoints {
    regions: Vec<Region>,
    issued: u64,
}

impl Default for VantagePoints {
    fn default() -> Self {
        Self::paper()
    }
}

impl VantagePoints {
    /// The paper's five vantage points.
    pub fn paper() -> Self {
        VantagePoints {
            regions: Region::VANTAGE_POINTS.to_vec(),
            issued: 0,
        }
    }

    /// A custom vantage set.
    ///
    /// # Panics
    ///
    /// Panics if `regions` is empty.
    pub fn new(regions: Vec<Region>) -> Self {
        assert!(!regions.is_empty(), "at least one vantage point required");
        VantagePoints { regions, issued: 0 }
    }

    /// The configured regions.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// The vantage point for the `rank`-th query of a sweep, round-robin:
    /// each consecutive query leaves from a different region, spreading
    /// load over distinct PoPs. A pure function of the query's rank, so
    /// the region assignment is independent of the order shards execute
    /// in.
    pub fn region_for(&self, rank: u64) -> Region {
        self.regions[(rank % self.regions.len() as u64) as usize]
    }

    /// Records `n` queries issued through [`region_for`](Self::region_for)
    /// (which cannot bump the counter itself), keeping
    /// [`issued`](Self::issued) accurate for sharded scans.
    pub fn note_issued(&mut self, n: u64) {
        self.issued += n;
    }

    /// Queries issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_set_matches_fig7() {
        let vp = VantagePoints::paper();
        assert_eq!(vp.regions().len(), 5);
        assert_eq!(vp.regions()[0], Region::Oregon);
        assert_eq!(vp.regions()[4], Region::Tokyo);
    }

    #[test]
    fn rotation_is_fair() {
        let vp = VantagePoints::paper();
        let mut counts = std::collections::HashMap::new();
        for rank in 0..5 * 7 {
            *counts.entry(vp.region_for(rank)).or_insert(0u64) += 1;
        }
        assert_eq!(counts.len(), 5);
        assert!(counts.values().all(|c| *c == 7));
    }

    #[test]
    #[should_panic(expected = "at least one vantage point")]
    fn empty_set_is_rejected() {
        let _ = VantagePoints::new(vec![]);
    }

    #[test]
    fn region_for_rotates_in_configured_order() {
        let vp = VantagePoints::paper();
        let pure: Vec<Region> = (0..12).map(|rank| vp.region_for(rank)).collect();
        let rotated: Vec<Region> = vp.regions().iter().copied().cycle().take(12).collect();
        assert_eq!(pure, rotated);
    }

    #[test]
    fn note_issued_accumulates() {
        let mut vp = VantagePoints::paper();
        vp.note_issued(10);
        vp.note_issued(3);
        assert_eq!(vp.issued(), 13);
    }
}
