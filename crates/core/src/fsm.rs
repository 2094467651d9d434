//! The DPS usage finite state machine (Fig 4).
//!
//! States are `NONE`, `P:ON`, `P:OFF` for any provider `P`; transitions are
//! the Table IV behaviors. The FSM validates that every observed behavior
//! sequence corresponds to a legal path — the consistency check behind the
//! paper's Fig 4.

use std::fmt;

use remnant_provider::ProviderId;
use remnant_world::BehaviorKind;

/// An FSM state: which provider (if any) and whether protection is active.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum DpsState {
    /// No DPS involvement.
    #[default]
    None,
    /// Protected by a provider.
    On(ProviderId),
    /// Delegated to a provider but paused.
    Off(ProviderId),
}

impl DpsState {
    /// The provider, if any.
    pub fn provider(&self) -> Option<ProviderId> {
        match self {
            DpsState::None => None,
            DpsState::On(p) | DpsState::Off(p) => Some(*p),
        }
    }
}

impl fmt::Display for DpsState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DpsState::None => f.write_str("NONE"),
            DpsState::On(p) => write!(f, "{p}:ON"),
            DpsState::Off(p) => write!(f, "{p}:OFF"),
        }
    }
}

/// An illegal transition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InvalidTransition {
    /// The state the behavior was applied in.
    pub state: DpsState,
    /// The offending behavior.
    pub behavior: BehaviorKind,
}

impl fmt::Display for InvalidTransition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "behavior {} is illegal in state {}",
            self.behavior, self.state
        )
    }
}

impl std::error::Error for InvalidTransition {}

/// Applies `behavior` to `state` per Fig 4.
///
/// `to` carries the destination provider for JOIN and SWITCH (the paper
/// assumes joins land in ON).
///
/// # Errors
///
/// Returns [`InvalidTransition`] for behaviors illegal in the state (e.g.
/// RESUME while not paused).
pub fn apply(
    state: DpsState,
    behavior: BehaviorKind,
    to: Option<ProviderId>,
) -> Result<DpsState, InvalidTransition> {
    let illegal = || InvalidTransition { state, behavior };
    match (state, behavior) {
        (DpsState::None, BehaviorKind::Join) => Ok(DpsState::On(to.ok_or_else(illegal)?)),
        (DpsState::On(_) | DpsState::Off(_), BehaviorKind::Leave) => Ok(DpsState::None),
        (DpsState::On(p), BehaviorKind::Pause) => Ok(DpsState::Off(p)),
        (DpsState::Off(p), BehaviorKind::Resume) => Ok(DpsState::On(p)),
        (DpsState::On(p) | DpsState::Off(p), BehaviorKind::Switch) => {
            let next = to.ok_or_else(illegal)?;
            if next == p {
                Err(illegal())
            } else {
                Ok(DpsState::On(next))
            }
        }
        _ => Err(illegal()),
    }
}

/// The full legal transition table as `(from, behavior, to)` descriptions,
/// for rendering Fig 4.
pub fn transition_table() -> Vec<(String, BehaviorKind, String)> {
    let p1 = ProviderId::Cloudflare;
    let p2 = ProviderId::Incapsula;
    let mut rows = Vec::new();
    let mut push = |from: DpsState, kind: BehaviorKind, to: Option<ProviderId>| {
        if let Ok(next) = apply(from, kind, to) {
            rows.push((from.to_string(), kind, next.to_string()));
        }
    };
    push(DpsState::None, BehaviorKind::Join, Some(p1));
    push(DpsState::On(p1), BehaviorKind::Pause, None);
    push(DpsState::Off(p1), BehaviorKind::Resume, None);
    push(DpsState::On(p1), BehaviorKind::Leave, None);
    push(DpsState::Off(p1), BehaviorKind::Leave, None);
    push(DpsState::On(p1), BehaviorKind::Switch, Some(p2));
    push(DpsState::Off(p1), BehaviorKind::Switch, Some(p2));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    const CF: ProviderId = ProviderId::Cloudflare;
    const INC: ProviderId = ProviderId::Incapsula;

    #[test]
    fn happy_paths() {
        assert_eq!(
            apply(DpsState::None, BehaviorKind::Join, Some(CF)).unwrap(),
            DpsState::On(CF)
        );
        assert_eq!(
            apply(DpsState::On(CF), BehaviorKind::Pause, None).unwrap(),
            DpsState::Off(CF)
        );
        assert_eq!(
            apply(DpsState::Off(CF), BehaviorKind::Resume, None).unwrap(),
            DpsState::On(CF)
        );
        assert_eq!(
            apply(DpsState::On(CF), BehaviorKind::Leave, None).unwrap(),
            DpsState::None
        );
        assert_eq!(
            apply(DpsState::Off(CF), BehaviorKind::Switch, Some(INC)).unwrap(),
            DpsState::On(INC)
        );
    }

    #[test]
    fn illegal_transitions_are_rejected() {
        assert!(apply(DpsState::None, BehaviorKind::Leave, None).is_err());
        assert!(apply(DpsState::None, BehaviorKind::Pause, None).is_err());
        assert!(apply(DpsState::None, BehaviorKind::Resume, None).is_err());
        assert!(apply(DpsState::None, BehaviorKind::Switch, Some(CF)).is_err());
        assert!(apply(DpsState::Off(CF), BehaviorKind::Pause, None).is_err());
        assert!(apply(DpsState::On(CF), BehaviorKind::Resume, None).is_err());
        assert!(apply(DpsState::On(CF), BehaviorKind::Join, Some(INC)).is_err());
        // Switching to the same provider is not a switch.
        assert!(apply(DpsState::On(CF), BehaviorKind::Switch, Some(CF)).is_err());
        // Join/switch without a destination provider are malformed.
        assert!(apply(DpsState::None, BehaviorKind::Join, None).is_err());
        assert!(apply(DpsState::On(CF), BehaviorKind::Switch, None).is_err());
    }

    #[test]
    fn sequences_validate_end_to_end() {
        // The paper's composite example: join then pause the same day is
        // J followed by P.
        let end = [
            (BehaviorKind::Join, Some(CF)),
            (BehaviorKind::Pause, None),
            (BehaviorKind::Resume, None),
            (BehaviorKind::Switch, Some(INC)),
            (BehaviorKind::Leave, None),
        ]
        .into_iter()
        .try_fold(DpsState::None, |state, (kind, to)| apply(state, kind, to))
        .unwrap();
        assert_eq!(end, DpsState::None);
    }

    #[test]
    fn illegal_transition_names_state_and_behavior() {
        let err = apply(DpsState::On(CF), BehaviorKind::Join, Some(CF)).unwrap_err();
        assert_eq!(err.state, DpsState::On(CF));
        assert_eq!(err.behavior, BehaviorKind::Join);
        assert!(err.to_string().contains("illegal"));
    }

    #[test]
    fn transition_table_covers_all_five_behaviors() {
        let table = transition_table();
        for kind in BehaviorKind::ALL {
            assert!(
                table.iter().any(|(_, k, _)| *k == kind),
                "{kind} missing from Fig 4 table"
            );
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(DpsState::None.to_string(), "NONE");
        assert_eq!(DpsState::On(CF).to_string(), "Cloudflare:ON");
        assert_eq!(DpsState::Off(INC).to_string(), "Incapsula:OFF");
    }
}
