//! Scrubbing centers.
//!
//! "at each \[PoP\] a scrubbing center is deployed ... responsible for
//! cleaning the traffic and blocking the malicious on its way to the origin.
//! The total capacity of such networks can reach several Tbps" (Sec II-A.1).
//!
//! The model is intentionally coarse — the paper never benchmarks scrubbing
//! itself, it only needs the qualitative behavior: attack traffic routed
//! *through* the DPS is absorbed; attack traffic aimed *directly at the
//! origin* is not.

use std::fmt;

/// Traffic volumes in Gbps.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ScrubOutcome {
    /// Malicious traffic that leaked through to the origin (Gbps).
    pub malicious_passed: f64,
    /// Legitimate traffic delivered to the origin (Gbps).
    pub legit_passed: f64,
    /// Malicious traffic absorbed by the scrubbing center (Gbps).
    pub absorbed: f64,
}

impl ScrubOutcome {
    /// True if essentially no malicious traffic reached the origin.
    pub fn attack_mitigated(&self) -> bool {
        self.malicious_passed < 1e-9
    }
}

/// One PoP's scrubbing center.
///
/// * While offered load (legit + malicious) is within `capacity_gbps`, the
///   center drops `filter_efficiency` of the malicious traffic and passes
///   everything else.
/// * Beyond capacity, the center saturates: excess traffic of both kinds is
///   dropped proportionally, degrading legitimate delivery (how a DPS loses
///   against a large enough attack).
///
/// # Example
///
/// ```
/// use remnant_provider::ScrubbingCenter;
///
/// let center = ScrubbingCenter::new(500.0, 1.0);
/// let outcome = center.scrub(100.0, 2.0);
/// assert!(outcome.attack_mitigated());
/// assert!((outcome.legit_passed - 2.0).abs() < 1e-9);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScrubbingCenter {
    capacity_gbps: f64,
    filter_efficiency: f64,
}

impl ScrubbingCenter {
    /// Creates a center with `capacity_gbps` total capacity that filters
    /// `filter_efficiency` (0.0–1.0) of malicious traffic.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_gbps` is not positive or `filter_efficiency` is
    /// outside `0.0..=1.0`.
    pub fn new(capacity_gbps: f64, filter_efficiency: f64) -> Self {
        assert!(capacity_gbps > 0.0, "capacity must be positive");
        assert!(
            (0.0..=1.0).contains(&filter_efficiency),
            "efficiency must be a fraction"
        );
        ScrubbingCenter {
            capacity_gbps,
            filter_efficiency,
        }
    }

    /// Processes offered traffic and reports what reaches the origin.
    pub fn scrub(&self, malicious_gbps: f64, legit_gbps: f64) -> ScrubOutcome {
        let offered = malicious_gbps + legit_gbps;
        let admit_fraction = if offered <= self.capacity_gbps || offered == 0.0 {
            1.0
        } else {
            self.capacity_gbps / offered
        };
        let admitted_malicious = malicious_gbps * admit_fraction;
        let admitted_legit = legit_gbps * admit_fraction;
        let filtered = admitted_malicious * self.filter_efficiency;
        ScrubOutcome {
            malicious_passed: admitted_malicious - filtered,
            legit_passed: admitted_legit,
            absorbed: filtered + (malicious_gbps - admitted_malicious),
        }
    }
}

impl fmt::Display for ScrubbingCenter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "scrubbing center ({} Gbps, {:.0}% filter)",
            self.capacity_gbps,
            self.filter_efficiency * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn within_capacity_fully_filters() {
        let c = ScrubbingCenter::new(1000.0, 1.0);
        let out = c.scrub(500.0, 10.0);
        assert!(out.attack_mitigated());
        assert_eq!(out.legit_passed, 10.0);
        assert_eq!(out.absorbed, 500.0);
    }

    #[test]
    fn partial_efficiency_leaks_a_fraction() {
        let c = ScrubbingCenter::new(1000.0, 0.99);
        let out = c.scrub(100.0, 0.0);
        assert!((out.malicious_passed - 1.0).abs() < 1e-9);
        assert!(!out.attack_mitigated());
    }

    #[test]
    fn saturation_drops_legit_traffic_proportionally() {
        let c = ScrubbingCenter::new(100.0, 1.0);
        let out = c.scrub(300.0, 100.0); // 4x over capacity
        assert!((out.legit_passed - 25.0).abs() < 1e-9);
        // Admitted malicious (75) is fully filtered; the rest is dropped at
        // the edge — either way the origin never sees it.
        assert!(out.attack_mitigated());
        assert!((out.absorbed - 300.0).abs() < 1e-9);
    }

    #[test]
    fn zero_traffic_is_a_noop() {
        let c = ScrubbingCenter::new(100.0, 1.0);
        let out = c.scrub(0.0, 0.0);
        assert_eq!(out, ScrubOutcome::default());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn rejects_zero_capacity() {
        let _ = ScrubbingCenter::new(0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "efficiency must be a fraction")]
    fn rejects_bad_efficiency() {
        let _ = ScrubbingCenter::new(10.0, 1.5);
    }
}
