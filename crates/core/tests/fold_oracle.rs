//! The shard fold against its per-site reference.
//!
//! `SnapshotPasses::observe_shards` skips chained shards and compares
//! packed class bytes; `reference::ReferencePasses` unpacks every site of
//! every round and walks it in full. Over synthetic shard-column
//! campaigns the two must return the same behaviors every round and the
//! same `SnapshotAggregates` (compared through `Debug`, which covers
//! every field). The campaigns mix:
//!
//! - chained shards (the previous round's `Arc`) and rebuilt shards with
//!   equal bytes (a fresh `Arc`), including whole rounds with no change;
//! - byte flips over the full packed-class space, which cause joins,
//!   leaves, switches, pauses and resumes, leaves while paused, and FSM
//!   violations (a class whose status and provider disagree);
//! - multi-CDN marks that first appear mid-campaign;
//! - a short last shard, and a top band wider than a shard.
//!
//! The `observe_columns` adapter (one concatenated shard per round) is
//! held to the same reference.

mod reference;

use std::sync::Arc;

use proptest::prelude::*;
use remnant_core::adoption::{Adoption, DpsStatus, PackedAdoption};
use remnant_core::behavior::ObservedBehavior;
use remnant_core::{DerivedColumn, SnapshotPasses};
use remnant_provider::{ProviderId, ReroutingMethod};
use remnant_sim::{SimDuration, SimTime};
use remnant_world::BehaviorKind;

use reference::ReferencePasses;

/// SplitMix64: the campaign generator's stream, fixed by the case seed.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// True with probability `percent`/100.
    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }
}

/// A class drawn mostly from realistic ones, sometimes from every valid
/// packed byte (status and provider may then disagree).
fn class(stream: &mut Stream) -> Adoption {
    let providers = [
        ProviderId::Cloudflare,
        ProviderId::Incapsula,
        ProviderId::Akamai,
    ];
    let reroutings = [
        ReroutingMethod::Ns,
        ReroutingMethod::Cname,
        ReroutingMethod::A,
    ];
    if stream.chance(10) {
        let provider = (stream.below(ProviderId::ALL.len() + 1))
            .checked_sub(1)
            .map(|i| ProviderId::ALL[i]);
        let status = [DpsStatus::On, DpsStatus::Off, DpsStatus::None][stream.below(3)];
        let rerouting = [
            None,
            Some(ReroutingMethod::A),
            Some(ReroutingMethod::Cname),
            Some(ReroutingMethod::Ns),
        ][stream.below(4)];
        return Adoption {
            provider,
            status,
            rerouting,
        };
    }
    match stream.below(5) {
        0 | 1 => Adoption::NONE,
        n => Adoption {
            provider: Some(providers[stream.below(providers.len())]),
            status: if n == 4 {
                DpsStatus::Off
            } else {
                DpsStatus::On
            },
            rerouting: Some(reroutings[stream.below(reroutings.len())]),
        },
    }
}

/// A campaign: every round's shards, in rank order, and when it was taken.
struct Campaign {
    sites: usize,
    rounds: Vec<(SimTime, Vec<Arc<DerivedColumn>>)>,
}

fn campaign(seed: u64, block: usize, full_shards: usize, short: usize, rounds: usize) -> Campaign {
    let mut stream = Stream(seed);
    let sites = block * full_shards + short;
    let first: Vec<Arc<DerivedColumn>> = (0..full_shards + 1)
        .map(|i| {
            let len = if i == full_shards { short } else { block };
            Arc::new(DerivedColumn {
                classes: (0..len)
                    .map(|_| PackedAdoption::pack(&class(&mut stream)))
                    .collect(),
                multi_cdn: (0..len as u32).filter(|_| stream.chance(2)).collect(),
                ..DerivedColumn::default()
            })
        })
        .collect();
    let mut taken_at = SimTime::from_secs(0);
    let mut out = vec![(taken_at, first)];
    for _ in 1..rounds {
        taken_at += SimDuration::hours(20 + stream.below(11) as u64);
        let quiet = stream.chance(20);
        let prev = &out.last().expect("a first round").1;
        let shards = prev
            .iter()
            .map(|shard| match stream.below(100) {
                0..=49 => Arc::clone(shard),
                50..=64 => Arc::new(DerivedColumn::clone(shard)),
                _ if quiet => Arc::clone(shard),
                _ => {
                    let mut column = DerivedColumn::clone(shard);
                    for _ in 0..1 + stream.below(3) {
                        let site = stream.below(column.len());
                        column.classes[site] = PackedAdoption::pack(&class(&mut stream));
                    }
                    if stream.chance(10) {
                        let site = stream.below(column.len()) as u32;
                        if let Err(at) = column.multi_cdn.binary_search(&site) {
                            column.multi_cdn.insert(at, site);
                        }
                    }
                    Arc::new(column)
                }
            })
            .collect();
        out.push((taken_at, shards));
    }
    Campaign { sites, rounds: out }
}

/// One round concatenated: the `observe_columns` shape.
fn concatenated(shards: &[Arc<DerivedColumn>]) -> (Vec<Adoption>, Vec<usize>) {
    let mut classes = Vec::new();
    let mut multi_cdn = Vec::new();
    for shard in shards {
        multi_cdn.extend(shard.multi_cdn.iter().map(|&i| classes.len() + i as usize));
        classes.extend(shard.classes.iter().map(|c| c.unpack()));
    }
    (classes, multi_cdn)
}

/// What a campaign exercised, read off the reference's behaviors.
#[derive(Debug, Default)]
struct Coverage {
    kinds: Vec<BehaviorKind>,
    fsm_violations: usize,
    left_while_paused: usize,
    quiet_rounds: usize,
}

/// Runs the fold, the adapter and the reference over `campaign`,
/// asserting they agree, and returns what the reference saw.
fn check(campaign: &Campaign) -> Coverage {
    let mut fold = SnapshotPasses::new(campaign.sites);
    let mut adapter = SnapshotPasses::new(campaign.sites);
    let mut reference = ReferencePasses::new(campaign.sites);
    let mut coverage = Coverage::default();
    let mut prev: Option<Vec<Adoption>> = None;
    let mut paused = vec![false; campaign.sites];
    for (day, (taken_at, shards)) in campaign.rounds.iter().enumerate() {
        let day = day as u32;
        let (classes, multi_cdn) = concatenated(shards);
        if let Some(prev) = &prev {
            if *prev == classes {
                coverage.quiet_rounds += 1;
            }
            for (rank, (before, after)) in prev.iter().zip(&classes).enumerate() {
                match (before.status, after.status) {
                    (DpsStatus::On, DpsStatus::Off) => paused[rank] = true,
                    (DpsStatus::Off, DpsStatus::None) if paused[rank] => {
                        coverage.left_while_paused += 1;
                        paused[rank] = false;
                    }
                    (DpsStatus::Off, DpsStatus::Off) => {}
                    _ => paused[rank] = false,
                }
            }
        }
        let expected: Vec<ObservedBehavior> =
            reference.observe(day, *taken_at, classes.clone(), &multi_cdn);
        let folded = fold.observe_shards(day, *taken_at, shards);
        assert_eq!(folded, expected, "round {day}: shard fold");
        let adapted = adapter.observe_columns(day, *taken_at, classes.clone(), &multi_cdn);
        assert_eq!(adapted, expected, "round {day}: observe_columns");
        coverage.kinds.extend(expected.iter().map(|b| b.kind));
        prev = Some(classes);
    }
    let expected = reference.finish();
    coverage.fsm_violations = expected.behaviors.fsm_violations;
    let expected = format!("{expected:?}");
    assert_eq!(
        format!("{:?}", fold.finish()),
        expected,
        "shard fold aggregates"
    );
    assert_eq!(
        format!("{:?}", adapter.finish()),
        expected,
        "adapter aggregates"
    );
    coverage
}

/// The generator reaches every case the module docs list: checked once,
/// over a handful of fixed campaigns, so the property below is known to
/// exercise them.
#[test]
fn generated_campaigns_cover_every_case() {
    let mut total = Coverage::default();
    for seed in 0..4 {
        let campaign = campaign(seed, 5, 160, 3, 14);
        assert!(campaign.sites / 100 > 5, "the top band spans shards");
        let coverage = check(&campaign);
        total.kinds.extend(coverage.kinds);
        total.fsm_violations += coverage.fsm_violations;
        total.left_while_paused += coverage.left_while_paused;
        total.quiet_rounds += coverage.quiet_rounds;
    }
    for kind in BehaviorKind::ALL {
        assert!(total.kinds.contains(&kind), "{kind} never observed");
    }
    assert!(total.fsm_violations > 0, "no FSM violation");
    assert!(total.left_while_paused > 0, "no leave while paused");
    assert!(total.quiet_rounds > 0, "no round without a change");
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    /// Any campaign shape: the fold and its adapter equal the reference.
    #[test]
    fn shard_fold_matches_the_per_site_reference(
        seed in any::<u64>(),
        block in 2usize..9,
        full_shards in 60usize..200,
        short in 1usize..8,
        rounds in 2usize..16,
    ) {
        let short = short.min(block - 1).max(1);
        check(&campaign(seed, block, full_shards, short, rounds));
    }
}
