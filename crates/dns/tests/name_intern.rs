//! Property tests pinning the interned [`DomainName`] to the semantics of
//! the original non-interned implementation.
//!
//! `reference` below is a faithful copy of the pre-interning parsing and
//! suffix logic (owned `String` + label offsets, no sharing). Every
//! property drives both implementations with the same inputs and demands
//! identical observable behavior, so the interner can never drift from the
//! documented normalization/validation semantics.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use proptest::prelude::*;

use remnant_dns::DomainName;

/// The pre-interning `DomainName` logic, kept as a behavioral oracle.
mod reference {
    const MAX_NAME_LEN: usize = 253;
    const MAX_LABEL_LEN: usize = 63;

    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct RefName {
        pub name: String,
        pub label_starts: Vec<u16>,
    }

    pub fn parse(s: &str) -> Option<RefName> {
        let trimmed = s.strip_suffix('.').unwrap_or(s);
        if trimmed.is_empty() || trimmed.len() > MAX_NAME_LEN {
            return None;
        }
        let lowered = trimmed.to_ascii_lowercase();
        let mut label_starts = Vec::new();
        let mut start = 0usize;
        for label in lowered.split('.') {
            if label.is_empty() || label.len() > MAX_LABEL_LEN {
                return None;
            }
            if label.starts_with('-') || label.ends_with('-') {
                return None;
            }
            if !label
                .bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-' || b == b'_')
            {
                return None;
            }
            label_starts.push(start as u16);
            start += label.len() + 1;
        }
        Some(RefName {
            name: lowered,
            label_starts,
        })
    }

    impl RefName {
        pub fn label_count(&self) -> usize {
            self.label_starts.len()
        }

        pub fn suffix(&self, n: usize) -> Option<RefName> {
            if n == 0 || n > self.label_count() {
                return None;
            }
            let idx = self.label_count() - n;
            let start = usize::from(self.label_starts[idx]);
            let name = self.name[start..].to_string();
            let label_starts = self.label_starts[idx..]
                .iter()
                .map(|&s| s - start as u16)
                .collect();
            Some(RefName { name, label_starts })
        }

        pub fn tld(&self) -> &str {
            let start = usize::from(*self.label_starts.last().expect("non-empty"));
            &self.name[start..]
        }

        pub fn apex(&self) -> RefName {
            self.suffix(2.min(self.label_count())).expect("valid")
        }

        pub fn parent(&self) -> Option<RefName> {
            self.suffix(self.label_count().checked_sub(1)?)
        }

        pub fn is_subdomain_of(&self, other: &RefName) -> bool {
            let n = other.label_count();
            self.suffix(n).is_some_and(|s| s.name == other.name)
        }

        pub fn suffixes(&self) -> Vec<RefName> {
            (1..=self.label_count())
                .rev()
                .filter_map(|n| self.suffix(n))
                .collect()
        }
    }
}

/// Mostly-valid names: lowercase/uppercase labels, digits, hyphens,
/// underscores, optional trailing dot.
fn name_like() -> impl Strategy<Value = String> {
    (
        prop::collection::vec("[A-Za-z0-9_-]{1,12}", 1..5),
        any::<bool>(),
    )
        .prop_map(|(labels, dot)| {
            let mut s = labels.join(".");
            if dot {
                s.push('.');
            }
            s
        })
}

/// Raw strings that exercise the rejection paths too.
fn raw_input() -> impl Strategy<Value = String> {
    prop_oneof![
        name_like(),
        "[ -~]{0,40}",            // printable ASCII junk
        "\\.{0,3}[a-z]{0,5}\\.*", // dot edge cases
        "[a-z]{60,70}\\.com",     // label length edge
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn parse_outcome_matches_reference(input in raw_input()) {
        let ours = DomainName::parse(&input);
        let oracle = reference::parse(&input);
        prop_assert_eq!(ours.is_ok(), oracle.is_some(), "input {:?}", input);
        if let (Ok(ours), Some(oracle)) = (ours, oracle) {
            prop_assert_eq!(ours.as_str(), oracle.name.as_str());
            prop_assert_eq!(ours.label_count(), oracle.label_count());
        }
    }

    #[test]
    fn raw_variants_of_an_interned_name_match_reference(
        input in name_like(),
        invalid in prop::sample::select(vec![' ', '!', '*', '/', '@', '~', '\u{7f}']),
    ) {
        // Intern the normalized spelling first, so the hit-first parse has
        // a near-identical entry to (wrongly) hit for every variant below.
        let Some(normalized) = reference::parse(&input).map(|n| n.name) else {
            return Ok(());
        };
        let interned = DomainName::parse(&normalized).expect("oracle accepts it");
        let variants = [
            normalized.to_ascii_uppercase(),
            format!("{normalized}."),
            format!(".{normalized}"),
            normalized.replacen('.', "..", 1),
            format!("{normalized}.."),
            format!("{normalized}{invalid}"),
            format!("{}{normalized}", "a.".repeat(127)),
        ];
        for raw in &variants {
            let ours = DomainName::parse(raw);
            let oracle = reference::parse(raw);
            prop_assert_eq!(ours.is_ok(), oracle.is_some(), "input {:?}", raw);
            if let (Ok(ours), Some(oracle)) = (ours, oracle) {
                prop_assert_eq!(ours.as_str(), oracle.name.as_str());
                prop_assert_eq!(ours.label_count(), oracle.label_count());
                prop_assert_eq!(ours == interned, oracle.name == normalized, "input {:?}", raw);
            }
        }
    }

    #[test]
    fn derived_operations_match_reference(input in name_like()) {
        let Ok(ours) = DomainName::parse(&input) else {
            prop_assert!(reference::parse(&input).is_none());
            return Ok(());
        };
        let oracle = reference::parse(&input).expect("oracle accepts what we accept");

        prop_assert_eq!(ours.tld(), oracle.tld());
        prop_assert_eq!(ours.apex().as_str(), oracle.apex().name.as_str());
        prop_assert_eq!(
            ours.parent().map(|p| p.to_string()),
            oracle.parent().map(|p| p.name)
        );
        let our_suffixes: Vec<String> = ours.suffixes().map(|s| s.to_string()).collect();
        let oracle_suffixes: Vec<String> =
            oracle.suffixes().into_iter().map(|s| s.name).collect();
        prop_assert_eq!(our_suffixes, oracle_suffixes);
        // The walk follows parent links: each step is the previous step's
        // parent, the same interned payload a fresh parse of its spelling
        // returns, and `<first label>.<parent>` as `is_child_of` sees it.
        let walk: Vec<DomainName> = ours.suffixes().collect();
        for pair in walk.windows(2) {
            prop_assert_eq!(pair[0].parent().as_ref(), Some(&pair[1]));
            let label = pair[0].labels().next().expect("names have >= 1 label");
            prop_assert!(pair[0].is_child_of(&pair[1], label));
            prop_assert_eq!(pair[1].prepend(label).ok().as_ref(), Some(&pair[0]));
        }
        for suffix in &walk {
            let reparsed = DomainName::parse(suffix.as_str()).expect("suffixes are valid");
            prop_assert!(std::ptr::eq(suffix.as_str(), reparsed.as_str()), "{}", suffix);
        }
        prop_assert_eq!(walk.last().and_then(DomainName::parent), None);
        for n in 0..=ours.label_count() + 1 {
            prop_assert_eq!(
                ours.suffix(n).map(|s| s.to_string()),
                oracle.suffix(n).map(|s| s.name)
            );
        }
    }

    #[test]
    fn tld_matches_reference(input in prop_oneof![name_like(), "[A-Za-z0-9_]{1,12}\\.?"]) {
        let Ok(ours) = DomainName::parse(&input) else {
            prop_assert!(reference::parse(&input).is_none());
            return Ok(());
        };
        let oracle = reference::parse(&input).expect("oracle accepts what we accept");
        prop_assert_eq!(ours.tld(), oracle.tld());
        // `tld` walks the parent links to the TLD's own payload.
        let tld = ours.suffix(1).expect("names have >= 1 label");
        prop_assert!(std::ptr::eq(ours.tld(), tld.as_str()), "{}", ours);
        if ours.label_count() == 1 {
            prop_assert_eq!(ours.tld(), ours.as_str());
            prop_assert_eq!(ours.parent(), None);
        }
    }

    #[test]
    fn is_child_of_matches_prepend(
        input in name_like(),
        other in name_like(),
        label in "[A-Za-z0-9_-]{1,12}",
    ) {
        let Ok(child) = DomainName::parse(&input) else { return Ok(()); };
        let own = child.labels().next().expect("names have >= 1 label");
        let mixed: String = own
            .chars()
            .enumerate()
            .map(|(i, c)| if i % 2 == 0 { c.to_ascii_uppercase() } else { c })
            .collect();
        // The true parent, the child itself, its TLD, its apex and an
        // unrelated name; for a TLD the true parent does not exist.
        let parents: Vec<DomainName> = [
            child.parent(),
            Some(child.clone()),
            child.suffix(1),
            Some(child.apex()),
            DomainName::parse(&other).ok(),
        ]
        .into_iter()
        .flatten()
        .collect();
        // Labels a byte short of and a byte past the child's own label
        // share its prefix, so only the length test tells them apart.
        let (short, long) = (&own[..own.len() - 1], format!("{own}x"));
        for parent in &parents {
            for label in [own, mixed.as_str(), label.as_str(), short, long.as_str()] {
                let built = parent.prepend(label).ok();
                let oracle = reference::parse(&format!("{label}.{parent}"))
                    .is_some_and(|name| name.name == child.as_str());
                prop_assert_eq!(built.as_ref() == Some(&child), oracle);
                prop_assert_eq!(
                    child.is_child_of(parent, label),
                    oracle,
                    "{} child of {} by {:?}",
                    child,
                    parent,
                    label
                );
            }
        }
        // A dotted label is never one label: `prepend` builds the child
        // from any ancestor, but `is_child_of` only accepts the parent.
        let walk: Vec<DomainName> = child.suffixes().collect();
        for (depth, ancestor) in walk.iter().enumerate().skip(2) {
            let labels: Vec<&str> = child.labels().take(depth).collect();
            let dotted = labels.join(".");
            prop_assert_eq!(ancestor.prepend(&dotted).ok().as_ref(), Some(&child));
            prop_assert!(!child.is_child_of(ancestor, &dotted), "{} by {:?}", child, dotted);
        }
    }

    #[test]
    fn subdomain_relation_matches_reference(a in name_like(), b in name_like()) {
        let (Ok(da), Ok(db)) = (DomainName::parse(&a), DomainName::parse(&b)) else {
            return Ok(());
        };
        let ra = reference::parse(&a).expect("oracle accepts");
        let rb = reference::parse(&b).expect("oracle accepts");
        prop_assert_eq!(da.is_subdomain_of(&db), ra.is_subdomain_of(&rb));
        prop_assert_eq!(db.is_subdomain_of(&da), rb.is_subdomain_of(&ra));
        // A name's suffixes are exactly the names it is a subdomain of
        // (within its own chain).
        for suffix in da.suffixes() {
            prop_assert!(da.is_subdomain_of(&suffix));
        }
    }

    #[test]
    fn equality_and_hash_are_consistent_across_handles(input in name_like()) {
        let Ok(first) = DomainName::parse(&input) else { return Ok(()); };
        // A fresh parse of any case/trailing-dot variant must be equal and
        // hash identically (interned or not, the contract is content-based).
        let variant = format!("{}.", input.trim_end_matches('.').to_ascii_uppercase());
        let second = DomainName::parse(&variant).expect("same name, different spelling");
        prop_assert_eq!(&first, &second);

        let hash = |n: &DomainName| {
            let mut h = DefaultHasher::new();
            n.hash(&mut h);
            h.finish()
        };
        prop_assert_eq!(hash(&first), hash(&second));

        // Clones are equal to their source and to fresh parses.
        let clone = first.clone();
        prop_assert_eq!(&clone, &first);
        prop_assert_eq!(hash(&clone), hash(&first));
    }

    #[test]
    fn ordering_is_string_ordering(a in name_like(), b in name_like()) {
        let (Ok(da), Ok(db)) = (DomainName::parse(&a), DomainName::parse(&b)) else {
            return Ok(());
        };
        // The old derived Ord compared the normalized string first; label
        // offsets are a pure function of it, so string order is the contract.
        prop_assert_eq!(da.cmp(&db), da.as_str().cmp(db.as_str()));
        prop_assert_eq!(da == db, da.as_str() == db.as_str());
    }
}
