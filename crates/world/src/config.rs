//! World configuration and the paper-derived calibration constants.

use rand::Rng;
use remnant_provider::{ProviderId, ReroutingMethod, ServicePlan};

/// Top-level world configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct WorldConfig {
    /// Number of websites (the paper: Alexa top 1,000,000).
    pub population: usize,
    /// Root seed for all randomness.
    pub seed: u64,
    /// Days of dynamics to run before measurement starts, so the residual
    /// pools reach steady state (the paper's scans observe an Internet with
    /// years of churn behind it).
    pub warmup_days: u64,
    /// Calibration constants.
    pub calibration: Calibration,
}

impl WorldConfig {
    /// The default configuration at `population` with the paper's
    /// calibration.
    pub fn new(population: usize, seed: u64) -> Self {
        WorldConfig {
            population,
            seed,
            warmup_days: 70,
            calibration: Calibration::paper(),
        }
    }

    /// A small world for unit/integration tests (2,000 sites, short warmup).
    pub fn small(seed: u64) -> Self {
        WorldConfig {
            population: 2_000,
            seed,
            warmup_days: 7,
            calibration: Calibration::paper(),
        }
    }
}

/// Every generative constant, with its provenance in the paper.
///
/// Rates given "per million" are per 1M sites per day and are scaled
/// linearly with the configured population.
#[derive(Clone, Debug, PartialEq)]
pub struct Calibration {
    /// Overall DPS adoption: 14.85% of the top 1M (Sec IV-B.2).
    pub adoption_overall: f64,
    /// Adoption among the top band: 38.98% of the top 10k (Sec IV-B.2).
    pub adoption_top_band: f64,
    /// Fraction of the population forming the top band (10k of 1M).
    pub top_band_fraction: f64,
    /// Share of DPS customers per provider. Cloudflare 79% and Incapsula
    /// 3.7% are published (Sec V); the remaining nine are chosen to sum to
    /// 100% and approximate Table V's JOIN+RESUME proportions.
    pub provider_shares: [(ProviderId, f64); 11],
    /// Daily behavior rates per 1M sites (Fig 3): JOIN 195, LEAVE 145,
    /// PAUSE 87, SWITCH 21. (RESUME emerges from pause scheduling.)
    pub daily_join_per_million: f64,
    /// See [`Calibration::daily_join_per_million`].
    pub daily_leave_per_million: f64,
    /// See [`Calibration::daily_join_per_million`].
    pub daily_pause_per_million: f64,
    /// See [`Calibration::daily_join_per_million`].
    pub daily_switch_per_million: f64,
    /// Probability a pausing customer never schedules a resume (Fig 3:
    /// 62 resumes vs 87 pauses per day).
    pub pause_abandon_probability: f64,
    /// True per-provider probability that a JOIN/RESUME keeps the origin
    /// address unchanged. Table V's measured unchanged rates are a lower
    /// bound (verification misses); these ground-truth values sit slightly
    /// above the published figures so the *measured* output lands on them.
    pub unchanged_rates: [(ProviderId, f64); 11],
    /// Probability a switching customer keeps its origin address
    /// ("switching ... is typically not required to change the origin IP
    /// address", Sec IV-C.3).
    pub switch_keep_ip_probability: f64,
    /// Probability a LEAVE is explicitly communicated to the provider
    /// (footnotes 9/10) — informed terminations create origin-answering
    /// remnants; uninformed ones keep answering the edge.
    pub informed_leave_probability: f64,
    /// Probability a SWITCH terminates the old service via the portal.
    pub informed_switch_probability: f64,
    /// Post-leave fate probabilities: self-host on the same origin /
    /// self-host on a fresh address / go dark (parked). Must sum to 1.
    pub leave_same_ip_probability: f64,
    /// See [`Calibration::leave_same_ip_probability`].
    pub leave_new_ip_probability: f64,
    /// Same-origin probability for *Incapsula* leavers specifically.
    /// Incapsula's paying security customers overwhelmingly keep operating
    /// the same infrastructure when dropping the service — the asymmetry
    /// that makes Incapsula's few hidden records verify at 69% while
    /// Cloudflare's free-tier-heavy churn verifies at only 24.8%
    /// (Table VI).
    pub incapsula_leave_same_ip_probability: f64,
    /// Fraction of *adopting* sites that front themselves with a
    /// multi-CDN balancer (Cedexis-style): their resolution alternates
    /// between two CDNs day to day. The paper filters these out of the
    /// behavior study (Sec IV-B.3).
    pub multi_cdn_fraction: f64,
    /// Fraction of sites with an apex MX record (Table I "DNS Records"
    /// vector surface).
    pub mx_fraction: f64,
    /// Of sites with mail, the fraction whose mail host is co-located with
    /// the web origin (the leaking configuration).
    pub mx_colocated_fraction: f64,
    /// Fraction of sites operating an unproxied auxiliary subdomain
    /// (`dev.<apex>`) on the origin host (Table I "Subdomains" vector).
    pub leaky_subdomain_fraction: f64,
    /// Fraction of origins firewalled to DPS-only traffic (a verification
    /// false-negative source, Sec IV-C.3).
    pub firewalled_fraction: f64,
    /// Fraction of landing pages with dynamic meta tags (the other
    /// false-negative source).
    pub dynamic_meta_fraction: f64,
    /// Cloudflare rerouting mix: NS-based 89.95% vs CNAME-based 10.05%
    /// (Fig 6).
    pub cloudflare_ns_fraction: f64,
    /// Akamai rerouting mix: probability of A-based (vs CNAME-based).
    pub akamai_a_fraction: f64,
    /// Plan mix for new Cloudflare-style signups (free tier dominates,
    /// footnote 7): Free/Pro/Business/Enterprise.
    pub plan_mix: [f64; 4],
}

impl Calibration {
    /// The calibration matching the paper's published statistics.
    pub fn paper() -> Self {
        Calibration {
            adoption_overall: 0.1485,
            adoption_top_band: 0.3898,
            top_band_fraction: 0.01,
            provider_shares: [
                (ProviderId::Cloudflare, 0.790),
                (ProviderId::Incapsula, 0.037),
                (ProviderId::Akamai, 0.055),
                (ProviderId::Cloudfront, 0.049),
                (ProviderId::Fastly, 0.022),
                (ProviderId::Edgecast, 0.009),
                (ProviderId::CdNetworks, 0.007),
                (ProviderId::DosArrest, 0.006),
                (ProviderId::Stackpath, 0.012),
                (ProviderId::Limelight, 0.004),
                (ProviderId::Cdn77, 0.009),
            ],
            daily_join_per_million: 195.0,
            daily_leave_per_million: 145.0,
            daily_pause_per_million: 87.0,
            daily_switch_per_million: 21.0,
            pause_abandon_probability: 0.28,
            unchanged_rates: [
                (ProviderId::Cloudflare, 0.64),
                (ProviderId::Akamai, 0.62),
                (ProviderId::Cloudfront, 0.38),
                (ProviderId::Incapsula, 0.68),
                (ProviderId::Fastly, 0.61),
                (ProviderId::Edgecast, 0.71),
                (ProviderId::CdNetworks, 0.79),
                (ProviderId::DosArrest, 0.45),
                (ProviderId::Limelight, 0.71),
                (ProviderId::Stackpath, 0.77),
                (ProviderId::Cdn77, 0.97),
            ],
            switch_keep_ip_probability: 0.90,
            informed_leave_probability: 0.60,
            informed_switch_probability: 0.95,
            leave_same_ip_probability: 0.55,
            leave_new_ip_probability: 0.25,
            incapsula_leave_same_ip_probability: 0.90,
            multi_cdn_fraction: 0.004,
            mx_fraction: 0.45,
            mx_colocated_fraction: 0.70,
            leaky_subdomain_fraction: 0.30,
            firewalled_fraction: 0.04,
            dynamic_meta_fraction: 0.05,
            cloudflare_ns_fraction: 0.8995,
            akamai_a_fraction: 0.5,
            plan_mix: [0.78, 0.12, 0.07, 0.03],
        }
    }

    /// Adoption probability for a site at `rank` (0-based) in a population
    /// of `population`: the top band adopts at the top-band rate and the
    /// tail at the rate that keeps the overall average on target.
    pub fn adoption_probability(&self, rank: usize, population: usize) -> f64 {
        let band = ((population as f64) * self.top_band_fraction).max(1.0) as usize;
        if rank < band {
            self.adoption_top_band
        } else {
            // overall = f*top + (1-f)*tail  =>  tail = (overall - f*top)/(1-f)
            let f = self.top_band_fraction;
            ((self.adoption_overall - f * self.adoption_top_band) / (1.0 - f)).max(0.0)
        }
    }

    /// Samples a provider according to the market shares.
    pub fn sample_provider<R: Rng>(&self, rng: &mut R) -> ProviderId {
        let mut u: f64 = rng.gen_range(0.0..1.0);
        for (provider, share) in self.provider_shares {
            if u < share {
                return provider;
            }
            u -= share;
        }
        ProviderId::Cloudflare
    }

    /// Samples a provider different from `previous` (for SWITCH).
    pub fn sample_other_provider<R: Rng>(&self, rng: &mut R, previous: ProviderId) -> ProviderId {
        for _ in 0..64 {
            let candidate = self.sample_provider(rng);
            if candidate != previous {
                return candidate;
            }
        }
        // Degenerate shares: fall back to any other provider.
        ProviderId::ALL
            .into_iter()
            .find(|p| *p != previous)
            .expect("there is more than one provider")
    }

    /// The true unchanged-origin probability for `provider`.
    pub fn unchanged_rate(&self, provider: ProviderId) -> f64 {
        self.unchanged_rates
            .iter()
            .find(|(p, _)| *p == provider)
            .map(|(_, r)| *r)
            .expect("all providers calibrated")
    }

    /// The probability a leaver of `provider` keeps self-hosting on the
    /// same origin (see
    /// [`Calibration::incapsula_leave_same_ip_probability`]).
    pub fn leave_same_ip_for(&self, provider: ProviderId) -> f64 {
        if provider == ProviderId::Incapsula {
            self.incapsula_leave_same_ip_probability
        } else {
            self.leave_same_ip_probability
        }
    }

    /// Samples the rerouting method and plan for a new signup at
    /// `provider`.
    pub fn sample_rerouting_and_plan<R: Rng>(
        &self,
        rng: &mut R,
        provider: ProviderId,
    ) -> (ReroutingMethod, ServicePlan) {
        let plan = self.sample_plan(rng);
        match provider {
            ProviderId::Cloudflare => {
                if rng.gen_bool(self.cloudflare_ns_fraction) {
                    (ReroutingMethod::Ns, plan)
                } else {
                    // CNAME setup requires business or enterprise ([21]).
                    let plan = if plan.allows_cname_setup() {
                        plan
                    } else {
                        ServicePlan::Business
                    };
                    (ReroutingMethod::Cname, plan)
                }
            }
            ProviderId::Akamai => {
                if rng.gen_bool(self.akamai_a_fraction) {
                    (ReroutingMethod::A, plan)
                } else {
                    (ReroutingMethod::Cname, plan)
                }
            }
            ProviderId::DosArrest => (ReroutingMethod::A, plan),
            _ => (ReroutingMethod::Cname, plan),
        }
    }

    /// Samples a service plan from the plan mix.
    pub fn sample_plan<R: Rng>(&self, rng: &mut R) -> ServicePlan {
        let mut u: f64 = rng.gen_range(0.0..1.0);
        for (plan, weight) in ServicePlan::ALL.iter().zip(self.plan_mix) {
            if u < weight {
                return *plan;
            }
            u -= weight;
        }
        ServicePlan::Free
    }

    /// Samples a pause duration in whole days, following Fig 5's shape:
    /// just under half resume within a day, ~30% pause longer than 5 days.
    /// `incapsula`-flagged pauses skew slightly shorter, as observed.
    pub fn sample_pause_days<R: Rng>(&self, rng: &mut R, incapsula: bool) -> u64 {
        let shift = if incapsula { 0.05 } else { 0.0 };
        let u: f64 = rng.gen_range(0.0..1.0);
        if u < 0.45 + shift {
            1
        } else if u < 0.70 + shift {
            rng.gen_range(2..=5)
        } else {
            rng.gen_range(6..=21)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn shares_sum_to_one() {
        let cal = Calibration::paper();
        let sum: f64 = cal.provider_shares.iter().map(|(_, s)| s).sum();
        assert!((sum - 1.0).abs() < 1e-9, "shares sum to {sum}");
        assert_eq!(cal.provider_shares.len(), 11);
    }

    #[test]
    fn plan_mix_sums_to_one() {
        let cal = Calibration::paper();
        let sum: f64 = cal.plan_mix.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn leave_fates_sum_below_one() {
        let cal = Calibration::paper();
        let dark = 1.0 - cal.leave_same_ip_probability - cal.leave_new_ip_probability;
        assert!(dark > 0.0 && dark < 1.0);
    }

    #[test]
    fn adoption_matches_published_averages() {
        let cal = Calibration::paper();
        let n = 1_000_000;
        let band = 10_000;
        let top = cal.adoption_probability(0, n);
        assert!((top - 0.3898).abs() < 1e-9);
        let tail = cal.adoption_probability(band, n);
        let overall = (band as f64 * top + (n - band) as f64 * tail) / n as f64;
        assert!((overall - 0.1485).abs() < 1e-6, "overall {overall}");
    }

    #[test]
    fn provider_sampling_tracks_shares() {
        let cal = Calibration::paper();
        let mut rng = StdRng::seed_from_u64(1);
        let mut cf = 0;
        let n = 20_000;
        for _ in 0..n {
            if cal.sample_provider(&mut rng) == ProviderId::Cloudflare {
                cf += 1;
            }
        }
        let share = cf as f64 / n as f64;
        assert!((share - 0.79).abs() < 0.02, "cloudflare share {share}");
    }

    #[test]
    fn sample_other_provider_never_repeats() {
        let cal = Calibration::paper();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..200 {
            let p = cal.sample_other_provider(&mut rng, ProviderId::Cloudflare);
            assert_ne!(p, ProviderId::Cloudflare);
        }
    }

    #[test]
    fn pause_durations_match_fig5_shape() {
        let cal = Calibration::paper();
        let mut rng = StdRng::seed_from_u64(3);
        let n = 50_000;
        let samples: Vec<u64> = (0..n)
            .map(|_| cal.sample_pause_days(&mut rng, false))
            .collect();
        let le1 = samples.iter().filter(|d| **d <= 1).count() as f64 / n as f64;
        let gt5 = samples.iter().filter(|d| **d > 5).count() as f64 / n as f64;
        assert!((le1 - 0.45).abs() < 0.02, "<=1 day fraction {le1}");
        assert!((gt5 - 0.30).abs() < 0.02, ">5 day fraction {gt5}");
    }

    #[test]
    fn incapsula_pauses_skew_shorter() {
        let cal = Calibration::paper();
        let mut rng = StdRng::seed_from_u64(4);
        let n = 50_000;
        let mean = |incap: bool, rng: &mut StdRng| {
            (0..n)
                .map(|_| cal.sample_pause_days(rng, incap) as f64)
                .sum::<f64>()
                / n as f64
        };
        let cf = mean(false, &mut rng);
        let incap = mean(true, &mut rng);
        assert!(incap < cf, "incapsula {incap} vs cloudflare {cf}");
    }

    #[test]
    fn cloudflare_cname_signups_carry_eligible_plans() {
        let cal = Calibration::paper();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..500 {
            let (method, plan) = cal.sample_rerouting_and_plan(&mut rng, ProviderId::Cloudflare);
            if method == ReroutingMethod::Cname {
                assert!(plan.allows_cname_setup());
            }
        }
    }

    #[test]
    fn dosarrest_is_always_a_based() {
        let cal = Calibration::paper();
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..100 {
            let (method, _) = cal.sample_rerouting_and_plan(&mut rng, ProviderId::DosArrest);
            assert_eq!(method, ReroutingMethod::A);
        }
    }

    #[test]
    fn small_config_is_fast_sized() {
        let config = WorldConfig::small(1);
        assert!(config.population <= 5_000);
        assert!(config.warmup_days <= 14);
    }
}
