//! Volumetric attack sources.

use std::fmt;

/// A botnet generating flood traffic (Sec I).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Botnet {
    bots: u64,
    per_bot_mbps: f64,
}

impl Botnet {
    /// Creates a botnet of `bots` sources emitting `per_bot_mbps` each.
    ///
    /// # Panics
    ///
    /// Panics if `per_bot_mbps` is negative.
    pub fn new(bots: u64, per_bot_mbps: f64) -> Self {
        assert!(per_bot_mbps >= 0.0, "rate must be non-negative");
        Botnet { bots, per_bot_mbps }
    }

    /// An IoT botnet in the class of Mirai at the Dyn attack
    /// (~1.2 Tbps, Sec I): 600k devices at ~2 Mbps each.
    pub fn mirai_class() -> Self {
        Botnet::new(600_000, 2.0)
    }

    /// A small booter-service flood (DDoS-as-a-Service, Sec I).
    pub fn booter() -> Self {
        Botnet::new(2_000, 5.0)
    }

    /// Number of bots.
    pub const fn bots(&self) -> u64 {
        self.bots
    }

    /// Aggregate attack volume in Gbps.
    pub fn total_gbps(&self) -> f64 {
        self.bots as f64 * self.per_bot_mbps / 1_000.0
    }
}

impl fmt::Display for Botnet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "botnet of {} bots ({:.1} Gbps)",
            self.bots,
            self.total_gbps()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mirai_class_is_tbps_scale() {
        let gbps = Botnet::mirai_class().total_gbps();
        assert!((gbps - 1_200.0).abs() < 1.0, "{gbps}");
    }

    #[test]
    fn volume_is_bots_times_rate() {
        let base = Botnet::new(100, 1.0);
        assert!((base.total_gbps() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn booter_is_small() {
        assert!(Botnet::booter().total_gbps() < 50.0);
    }

    #[test]
    fn display_mentions_volume() {
        let s = Botnet::mirai_class().to_string();
        assert!(s.contains("600000 bots"));
    }
}
