//! Residual-resolution policies — the paper's core finding, as provider
//! configuration.
//!
//! "the DPS providers (i.e., Cloudflare and Incapsula) respond to those
//! queries with the origin IP addresses to ensure the continuous access to
//! the web services. Unfortunately, as a side effect of such a
//! configuration, a backdoor is left open" (Sec VI-A).
//!
//! The policy has two independent knobs:
//!
//! * whether the provider keeps answering with the *origin* address after an
//!   informed termination (the vulnerable configuration);
//! * how long the stale record lives before being purged, per plan — the
//!   authors measured ~4 weeks for a Cloudflare free account and speculated
//!   longer retention for other plans (Sec V-A.3).
//!
//! The module also provides the **countermeasure** variants of Sec VI-B-1 so
//! experiments can show the exposure disappearing.

use std::fmt;

use remnant_sim::SimDuration;

use crate::plan::ServicePlan;

/// How a provider's nameservers treat terminated customers' records.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResidualPolicy {
    /// Keep answering queries for terminated customers with the last stored
    /// origin address (the vulnerable behavior).
    pub answer_after_termination: bool,
    /// Purge delay per plan; `None` means the record is never purged within
    /// any practical horizon.
    purge_after: [Option<SimDuration>; 4],
    /// Countermeasure (Sec VI-B-1): before answering a stale record, check
    /// whether the customer's *current* public resolution still matches the
    /// stored address; if not, stop answering.
    pub revalidate_against_public_dns: bool,
}

impl ResidualPolicy {
    /// The vulnerable policy observed at Cloudflare: keep answering, purge
    /// free-plan records after ~4 weeks, retain higher plans progressively
    /// longer (enterprise effectively forever).
    pub fn cloudflare_observed() -> Self {
        ResidualPolicy {
            answer_after_termination: true,
            purge_after: [
                Some(SimDuration::weeks(4)),  // Free — measured in Sec V-A.3
                Some(SimDuration::weeks(8)),  // Pro — speculated longer
                Some(SimDuration::weeks(12)), // Business
                None,                         // Enterprise — never observed purged
            ],
            revalidate_against_public_dns: false,
        }
    }

    /// The vulnerable policy observed at Incapsula: keep answering; stale
    /// CNAME tokens linger for a long time across all plans.
    pub fn incapsula_observed() -> Self {
        ResidualPolicy {
            answer_after_termination: true,
            purge_after: [
                Some(SimDuration::weeks(9)),
                Some(SimDuration::weeks(9)),
                Some(SimDuration::weeks(12)),
                None,
            ],
            revalidate_against_public_dns: false,
        }
    }

    /// The safe behavior of the other nine providers: stop answering
    /// immediately on termination.
    pub fn deny() -> Self {
        ResidualPolicy {
            answer_after_termination: false,
            purge_after: [Some(SimDuration::ZERO); 4],
            revalidate_against_public_dns: false,
        }
    }

    /// Countermeasure Sec VI-B-1 (continuity-preserving): keep answering
    /// *only while* the customer's public resolution still matches the
    /// stored record — "if the current IP address of the customer acquired
    /// from a normal DNS resolution does not match the IP address stored in
    /// the DPS's nameserver system ... the DPS provider should stop
    /// responding".
    pub fn countermeasure_revalidate(base: ResidualPolicy) -> Self {
        ResidualPolicy {
            revalidate_against_public_dns: true,
            ..base
        }
    }

    /// The purge delay for `plan` (`None` = never purged).
    pub fn purge_after(&self, plan: ServicePlan) -> Option<SimDuration> {
        self.purge_after[plan_index(plan)]
    }

    /// Overrides the purge delay for `plan`.
    pub fn set_purge_after(&mut self, plan: ServicePlan, delay: Option<SimDuration>) {
        self.purge_after[plan_index(plan)] = delay;
    }
}

impl fmt::Display for ResidualPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.answer_after_termination {
            f.write_str("deny after termination")
        } else if self.revalidate_against_public_dns {
            f.write_str("answer after termination with public-DNS revalidation")
        } else {
            f.write_str("answer after termination (vulnerable)")
        }
    }
}

/// Dense index for the per-plan purge table.
fn plan_index(plan: ServicePlan) -> usize {
    match plan {
        ServicePlan::Free => 0,
        ServicePlan::Pro => 1,
        ServicePlan::Business => 2,
        ServicePlan::Enterprise => 3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cloudflare_free_purges_at_four_weeks() {
        let policy = ResidualPolicy::cloudflare_observed();
        assert!(policy.answer_after_termination);
        assert_eq!(
            policy.purge_after(ServicePlan::Free),
            Some(SimDuration::weeks(4))
        );
        assert_eq!(policy.purge_after(ServicePlan::Enterprise), None);
    }

    #[test]
    fn purge_delays_grow_with_plan() {
        let policy = ResidualPolicy::cloudflare_observed();
        let free = policy.purge_after(ServicePlan::Free).unwrap();
        let pro = policy.purge_after(ServicePlan::Pro).unwrap();
        let business = policy.purge_after(ServicePlan::Business).unwrap();
        assert!(free < pro && pro < business);
    }

    #[test]
    fn deny_policy_never_answers() {
        let policy = ResidualPolicy::deny();
        assert!(!policy.answer_after_termination);
        assert_eq!(
            policy.purge_after(ServicePlan::Free),
            Some(SimDuration::ZERO)
        );
    }

    #[test]
    fn revalidation_countermeasure_wraps_base_policy() {
        let policy =
            ResidualPolicy::countermeasure_revalidate(ResidualPolicy::cloudflare_observed());
        assert!(policy.answer_after_termination);
        assert!(policy.revalidate_against_public_dns);
        assert_eq!(
            policy.purge_after(ServicePlan::Free),
            Some(SimDuration::weeks(4))
        );
    }

    #[test]
    fn purge_override() {
        let mut policy = ResidualPolicy::incapsula_observed();
        policy.set_purge_after(ServicePlan::Free, Some(SimDuration::days(3)));
        assert_eq!(
            policy.purge_after(ServicePlan::Free),
            Some(SimDuration::days(3))
        );
    }

    #[test]
    fn display_distinguishes_policies() {
        assert!(ResidualPolicy::deny().to_string().contains("deny"));
        assert!(ResidualPolicy::cloudflare_observed()
            .to_string()
            .contains("vulnerable"));
        assert!(
            ResidualPolicy::countermeasure_revalidate(ResidualPolicy::incapsula_observed())
                .to_string()
                .contains("revalidation")
        );
    }
}
