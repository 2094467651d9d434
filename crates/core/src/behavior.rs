//! Usage-behavior detection by diffing consecutive snapshots (Sec IV-B.3,
//! Table IV).

use std::fmt;
use std::sync::OnceLock;

use remnant_provider::ProviderId;
use remnant_world::BehaviorKind;

use crate::adoption::{Adoption, DpsStatus};
use crate::matchers::{Fingerprint, NameVerdict, ProviderMatcher};
use crate::snapshot::DnsSnapshot;

/// One behavior inferred from two consecutive observations of a site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObservedBehavior {
    /// Site rank in the target list.
    pub rank: usize,
    /// Which behavior.
    pub kind: BehaviorKind,
    /// The provider before the transition (LEAVE/PAUSE/RESUME/SWITCH).
    pub from: Option<ProviderId>,
    /// The provider after the transition (JOIN/PAUSE/RESUME/SWITCH).
    pub to: Option<ProviderId>,
}

impl fmt::Display for ObservedBehavior {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "site {} {}", self.rank, self.kind)
    }
}

/// Classifies snapshots into the per-site adoption classes that Table IV
/// behaviors are diffed from (see [`transition`]).
///
/// The detector holds the matcher so repeated daily classifications
/// share the fingerprint tables.
#[derive(Clone, Debug, Default)]
pub struct BehaviorDetector {
    matcher: ProviderMatcher,
}

impl BehaviorDetector {
    /// Creates a detector over the standard catalog.
    pub fn new() -> Self {
        BehaviorDetector {
            matcher: ProviderMatcher::new(),
        }
    }

    /// The process-wide detector over the standard catalog, which every
    /// [`DerivedColumn`](crate::classify::DerivedColumn) is derived with.
    /// Detectors over the standard catalog are interchangeable.
    pub(crate) fn standard() -> &'static BehaviorDetector {
        static STANDARD: OnceLock<BehaviorDetector> = OnceLock::new();
        STANDARD.get_or_init(BehaviorDetector::new)
    }

    /// The matcher in use.
    pub fn matcher(&self) -> &ProviderMatcher {
        &self.matcher
    }

    /// Classifies every site of a snapshot, block by block (spilled blocks
    /// are loaded transiently, so memory stays bounded by one block).
    pub fn classify_snapshot(&self, snapshot: &DnsSnapshot) -> Vec<Adoption> {
        let mut out = Vec::with_capacity(snapshot.len());
        for loaded in snapshot.blocks() {
            let (classes, _) = self.classify_block(&loaded.block);
            out.extend(classes);
        }
        out
    }

    /// Classifies one block's sites in a single pass, returning the
    /// per-site adoption column together with the block-local indices of
    /// sites whose records show a multi-CDN front-end (the Sec IV-B.3
    /// exclusion). Classification is a pure function of the block's
    /// bytes, which is what lets the collector derive it once per block
    /// ([`crate::classify::DerivedColumn::derive`]).
    pub fn classify_block(
        &self,
        block: &crate::snapshot::RecordBlock,
    ) -> (Vec<Adoption>, Vec<u32>) {
        let mut classes = Vec::with_capacity(block.len());
        let mut multi_cdn = Vec::new();
        for (i, site) in block.sites().enumerate() {
            if is_multi_cdn_view(site) {
                multi_cdn.push(i as u32);
            }
            classes.push(Adoption::classify_view(&self.matcher, site));
        }
        (classes, multi_cdn)
    }
}

/// The substring whose presence in a CNAME's labels marks a multi-CDN
/// front-end (a Cedexis balancer token).
pub(crate) const MULTI_CDN_CNAME_FINGERPRINT: &str = "cedexis";

/// True if a site's collected records show a multi-CDN front-end
/// (Cedexis-style): a CNAME whose labels contain `cedexis`, read from
/// each name's verdict word. The paper excludes such sites from behavior
/// identification because the balancer's dynamic CDN selection makes
/// usage behaviors unidentifiable (Sec IV-B.3); the shared snapshot fold
/// applies this filter column-wise.
pub fn is_multi_cdn_view(site: crate::snapshot::SiteView<'_>) -> bool {
    site.cnames
        .iter()
        .any(|c| NameVerdict::of(c).has(Fingerprint::MultiCdn))
}

/// The Table IV transition rules: the behavior a site showed between two
/// consecutive observations, if any. [`crate::SnapshotPasses`] applies
/// them to every site whose class changed.
pub fn transition(before: &Adoption, after: &Adoption) -> Option<BehaviorKind> {
    use DpsStatus::{None as SNone, Off, On};
    match (before.status, after.status) {
        // Provider change at either status: SWITCH.
        (On | Off, On | Off)
            if before.provider != after.provider
                && before.provider.is_some()
                && after.provider.is_some() =>
        {
            Some(BehaviorKind::Switch)
        }
        (SNone, On | Off) => Some(BehaviorKind::Join),
        (On | Off, SNone) => Some(BehaviorKind::Leave),
        (On, Off) => Some(BehaviorKind::Pause),
        (Off, On) => Some(BehaviorKind::Resume),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remnant_provider::ReroutingMethod;

    fn on(p: ProviderId) -> Adoption {
        Adoption {
            provider: Some(p),
            status: DpsStatus::On,
            rerouting: Some(ReroutingMethod::Ns),
        }
    }

    fn off(p: ProviderId) -> Adoption {
        Adoption {
            provider: Some(p),
            status: DpsStatus::Off,
            rerouting: Some(ReroutingMethod::Ns),
        }
    }

    fn detect(before: Adoption, after: Adoption) -> Option<BehaviorKind> {
        transition(&before, &after)
    }

    #[test]
    fn table4_transitions() {
        let cf = ProviderId::Cloudflare;
        let inc = ProviderId::Incapsula;
        assert_eq!(detect(Adoption::NONE, on(cf)), Some(BehaviorKind::Join));
        assert_eq!(detect(on(cf), Adoption::NONE), Some(BehaviorKind::Leave));
        assert_eq!(detect(off(cf), Adoption::NONE), Some(BehaviorKind::Leave));
        assert_eq!(detect(on(cf), off(cf)), Some(BehaviorKind::Pause));
        assert_eq!(detect(off(cf), on(cf)), Some(BehaviorKind::Resume));
        assert_eq!(detect(on(cf), on(inc)), Some(BehaviorKind::Switch));
        assert_eq!(detect(off(cf), on(inc)), Some(BehaviorKind::Switch));
    }

    #[test]
    fn null_transitions_produce_nothing() {
        let cf = ProviderId::Cloudflare;
        assert_eq!(detect(on(cf), on(cf)), None);
        assert_eq!(detect(off(cf), off(cf)), None);
        assert_eq!(detect(Adoption::NONE, Adoption::NONE), None);
    }

    #[test]
    fn join_straight_to_off_counts_as_join() {
        // A site that joined and paused between two observations.
        let cf = ProviderId::Cloudflare;
        assert_eq!(detect(Adoption::NONE, off(cf)), Some(BehaviorKind::Join));
    }

    #[test]
    fn multi_cdn_fingerprint_detection() {
        use crate::snapshot::SiteRecords;
        let balanced = SiteRecords {
            a: vec!["13.32.0.9".parse().unwrap()],
            cnames: vec![
                "b0000abcd.cdx.cedexis.net".parse().unwrap(),
                "d123.cloudfront.net".parse().unwrap(),
            ],
            ns: vec!["ns1.webhost1.net".parse().unwrap()],
        };
        assert!(is_multi_cdn_view(balanced.view()));
        let plain = SiteRecords {
            a: vec!["13.32.0.9".parse().unwrap()],
            cnames: vec!["d123.cloudfront.net".parse().unwrap()],
            ns: vec!["ns1.webhost1.net".parse().unwrap()],
        };
        assert!(!is_multi_cdn_view(plain.view()));
        assert!(!is_multi_cdn_view(SiteRecords::default().view()));
    }
}
