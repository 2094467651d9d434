//! The time-indexed snapshot store: a spill directory reopened as a
//! queryable sequence of collection rounds.
//!
//! A campaign that runs with `--spill-dir` leaves one RSNP v3 file per
//! round behind: `full-r*.rsnb` files carry every shard, `delta-r*.rsnb`
//! files carry only the shards whose zone generations changed.
//! [`SnapshotStore::open`] re-chains that directory without loading any
//! record data: each file contributes one [`BlockSource`] per shard it
//! wrote — a [`SpillRef`](remnant_core::SpillRef) to the record frame
//! plus the block's derived column, read from the file's column section
//! in one read with the footer — and a round's snapshot is the latest
//! source per shard at that point in the sequence: the same `Arc`-shared
//! structural sharing the delta collector used when writing. Record
//! frames are only read from disk when a caller touches a block's
//! records, and are dropped again after the block goes out of scope; the
//! query plans never do (see [`crate::plans`]).

use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use remnant_core::spill::{SpillError, SpillFile};
use remnant_core::{BlockSource, DnsSnapshot};
use remnant_sim::SimTime;

/// Why a directory (or snapshot sequence) could not be opened as a store.
#[derive(Debug)]
#[non_exhaustive]
pub enum StoreError {
    /// A spill file failed to open, index or validate.
    Spill(SpillError),
    /// The directory holds no round files (or no snapshots were given).
    NoRounds,
    /// The round sequence has a gap: `round` is missing. An interrupted
    /// campaign that leaves `full-r00000` + `delta-r00002` behind fails
    /// here by name instead of silently skipping the hole — every delta
    /// round after the gap would otherwise chain to the wrong
    /// generations.
    MissingRound {
        /// The first absent round number.
        round: u64,
    },
    /// Two files claim the same round number.
    DuplicateRound {
        /// The contested round number.
        round: u64,
    },
    /// A round disagrees with the collection plan: the first round's plan
    /// is not self-consistent (`shard_count` ≠ ⌈`sites` / `block_size`⌉),
    /// a later round's differs from it or does not follow its day, or a
    /// round's shards do not cover the plan exactly (one per planned
    /// shard, each holding `block_size` sites, the last the remainder).
    PlanMismatch {
        /// The offending round.
        round: u64,
        /// Which plan field is wrong (`"sites"`, `"block_size"`,
        /// `"shard_count"`, `"day"`).
        field: &'static str,
    },
    /// A filesystem error outside any single spill file.
    Io {
        /// What was being done.
        context: &'static str,
        /// The underlying error.
        error: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Spill(e) => write!(f, "spill file error: {e}"),
            StoreError::NoRounds => write!(f, "no collection rounds found"),
            StoreError::MissingRound { round } => {
                write!(f, "round {round} is missing from the spill directory")
            }
            StoreError::DuplicateRound { round } => {
                write!(f, "round {round} appears in more than one spill file")
            }
            StoreError::PlanMismatch { round, field } => {
                write!(f, "round {round} disagrees with the campaign plan: {field}")
            }
            StoreError::Io { context, error } => write!(f, "{context}: {error}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Spill(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SpillError> for StoreError {
    fn from(e: SpillError) -> Self {
        StoreError::Spill(e)
    }
}

/// How a round was persisted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RoundKind {
    /// A `full-r*.rsnb` file: every shard re-resolved and written.
    Full,
    /// A `delta-r*.rsnb` file: only dirty shards written, the rest
    /// chained from earlier rounds.
    Delta,
    /// An in-memory round (no backing file).
    Resident,
}

/// One round's generation delta, read from the store's metadata alone.
#[derive(Clone, Debug)]
pub struct GenerationDiff {
    /// The round number.
    pub round: u64,
    /// The round's study day.
    pub day: u32,
    /// How the round was persisted.
    pub kind: RoundKind,
    /// Shards the round re-resolved and wrote itself.
    pub dirty: usize,
    /// Shards chained unchanged from earlier rounds.
    pub clean: usize,
}

/// One round's position on the campaign timeline.
#[derive(Clone, Debug)]
pub struct RoundMeta {
    /// 0-based round number, as written in the spill file name
    /// (`full-r00000.rsnb` is the campaign's first round).
    pub round: u64,
    /// The study day the round was collected on.
    pub day: u32,
    /// Virtual instant the round was taken at.
    pub taken_at: SimTime,
    /// How the round was persisted.
    pub kind: RoundKind,
    /// Shards written by this round's own file (its generation delta);
    /// every shard for full and resident rounds.
    pub dirty_shards: Vec<u32>,
}

/// One round: its timeline metadata and one source per shard, ascending
/// — the latest block for each shard as of this round, resident or on
/// disk.
struct RoundEntry {
    meta: RoundMeta,
    sources: Vec<BlockSource>,
}

/// The collection plan every round of a store shares: a round file's
/// header fields, or a resident snapshot's shape.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Plan {
    sites: usize,
    block_size: usize,
    shard_count: usize,
}

/// A spill directory (or snapshot sequence) opened as a time-indexed,
/// generation-aware store of collection rounds — see the module docs.
///
/// # Example
///
/// ```no_run
/// use remnant_query::SnapshotStore;
///
/// let store = SnapshotStore::open("/tmp/spill")?;
/// for meta in store.rounds() {
///     println!("round {} on day {}", meta.round, meta.day);
/// }
/// let first = store.snapshot(0); // loads shard frames lazily
/// assert_eq!(first.len(), store.sites());
/// # Ok::<(), remnant_query::StoreError>(())
/// ```
pub struct SnapshotStore {
    rounds: Vec<RoundEntry>,
    plan: Plan,
}

impl fmt::Debug for SnapshotStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SnapshotStore")
            .field("rounds", &self.rounds.len())
            .field("sites", &self.plan.sites)
            .field("block_size", &self.plan.block_size)
            .field("shard_count", &self.plan.shard_count)
            .finish()
    }
}

/// `full-r00012.rsnb` → `(RoundKind::Full, 12)`.
fn parse_round_name(name: &str) -> Option<(RoundKind, u64)> {
    let stem = name.strip_suffix(".rsnb")?;
    let (kind, digits) = if let Some(d) = stem.strip_prefix("full-r") {
        (RoundKind::Full, d)
    } else if let Some(d) = stem.strip_prefix("delta-r") {
        (RoundKind::Delta, d)
    } else {
        return None;
    };
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok().map(|round| (kind, round))
}

impl SnapshotStore {
    /// Opens a spill directory written by one campaign.
    ///
    /// Validates that the round numbers form a contiguous sequence (a
    /// gap — e.g. from an interrupted run that mixed `full-r*` and
    /// `delta-r*` files — is a typed [`StoreError::MissingRound`]), and
    /// that every round agrees on one self-consistent collection plan and
    /// chains exactly its shards ([`StoreError::PlanMismatch`]). Only
    /// headers, trailers, footer indexes and column sections are read,
    /// three reads per file; record frames stay on disk, and nothing is
    /// sized from a header before the frames present confirm it.
    pub fn open(dir: impl AsRef<Path>) -> Result<SnapshotStore, StoreError> {
        let dir = dir.as_ref();
        let io = |context: &'static str| {
            move |error: std::io::Error| StoreError::Io {
                context,
                error: error.to_string(),
            }
        };
        let mut files: Vec<(u64, RoundKind, PathBuf)> = Vec::new();
        for entry in fs::read_dir(dir).map_err(io("reading spill directory"))? {
            let entry = entry.map_err(io("reading spill directory entry"))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some((kind, round)) = parse_round_name(name) {
                files.push((round, kind, entry.path()));
            }
        }
        if files.is_empty() {
            return Err(StoreError::NoRounds);
        }
        files.sort_by_key(|(round, _, _)| *round);
        if files[0].0 > 0 {
            // Rounds are numbered from 0; a directory starting later has
            // lost its head and every delta chain with it.
            return Err(StoreError::MissingRound { round: 0 });
        }
        for pair in files.windows(2) {
            if pair[0].0 == pair[1].0 {
                return Err(StoreError::DuplicateRound { round: pair[0].0 });
            }
            if pair[0].0 + 1 != pair[1].0 {
                return Err(StoreError::MissingRound {
                    round: pair[0].0 + 1,
                });
            }
        }

        let mut store = SnapshotStore::empty();
        let mut chained: Vec<BlockSource> = Vec::new();
        for (round, kind, path) in files {
            let file = SpillFile::open(&path)?;
            let meta = file.meta();
            // The footer lists only the frames present, so nothing here is
            // sized from the header; `push_round` checks the header after.
            let sources = file.sources()?;
            let dirty_shards = sources.iter().map(|(shard, _)| *shard).collect();
            if store.rounds.is_empty() {
                chained = sources.into_iter().map(|(_, source)| source).collect();
            } else {
                for (shard, source) in sources {
                    // A shard past the plan fails the plan check below.
                    if let Some(slot) = chained.get_mut(shard as usize) {
                        *slot = source;
                    }
                }
            }
            store.push_round(
                RoundMeta {
                    round,
                    day: meta.day,
                    taken_at: meta.taken_at,
                    kind,
                    dirty_shards,
                },
                Plan {
                    sites: meta.sites as usize,
                    block_size: meta.block_size as usize,
                    shard_count: meta.shard_count as usize,
                },
                chained.clone(),
            )?;
        }
        Ok(store)
    }

    /// Builds a store over resident snapshots — the in-memory campaign
    /// path, so queries run identically whether or not a campaign
    /// spilled. Snapshots must be given in round order and share one
    /// collection plan, exactly as [`open`](Self::open) requires of files.
    pub fn in_memory(
        snapshots: impl IntoIterator<Item = DnsSnapshot>,
    ) -> Result<SnapshotStore, StoreError> {
        let mut store = SnapshotStore::empty();
        for (round, snapshot) in snapshots.into_iter().enumerate() {
            let sources: Vec<BlockSource> =
                snapshot.block_sources().map(|(_, source)| source).collect();
            store.push_round(
                RoundMeta {
                    round: round as u64,
                    day: snapshot.day,
                    taken_at: snapshot.taken_at,
                    kind: RoundKind::Resident,
                    dirty_shards: (0..sources.len() as u32).collect(),
                },
                Plan {
                    sites: snapshot.len(),
                    block_size: snapshot.block_size(),
                    shard_count: sources.len(),
                },
                sources,
            )?;
        }
        if store.rounds.is_empty() {
            return Err(StoreError::NoRounds);
        }
        Ok(store)
    }

    /// A store with no rounds; the first [`push_round`](Self::push_round)
    /// fixes its plan.
    fn empty() -> Self {
        SnapshotStore {
            rounds: Vec::new(),
            plan: Plan::default(),
        }
    }

    /// Appends one round after validating it — the one check behind both
    /// constructors. The first round fixes the plan, which must be
    /// self-consistent; every later round must repeat it on a strictly
    /// later day. `sources` (the round's chained sources) must hold one
    /// source per planned shard, each covering exactly its planned sites.
    /// A failure is a typed [`StoreError::PlanMismatch`], so no plan ever
    /// sees a round that disagrees with the site count it was sized for.
    fn push_round(
        &mut self,
        meta: RoundMeta,
        plan: Plan,
        sources: Vec<BlockSource>,
    ) -> Result<(), StoreError> {
        let mismatch = |field| StoreError::PlanMismatch {
            round: meta.round,
            field,
        };
        match self.rounds.last() {
            None if plan.block_size == 0 => return Err(mismatch("block_size")),
            None if plan.shard_count != plan.sites.div_ceil(plan.block_size) => {
                return Err(mismatch("shard_count"))
            }
            None => self.plan = plan,
            Some(prev) => {
                if plan.sites != self.plan.sites {
                    return Err(mismatch("sites"));
                }
                if plan.block_size != self.plan.block_size {
                    return Err(mismatch("block_size"));
                }
                if plan.shard_count != self.plan.shard_count {
                    return Err(mismatch("shard_count"));
                }
                if meta.day <= prev.meta.day {
                    return Err(mismatch("day"));
                }
            }
        }
        if sources.len() != plan.shard_count {
            return Err(mismatch("shard_count"));
        }
        for (shard, source) in sources.iter().enumerate() {
            let start = shard * plan.block_size;
            if source.sites() != plan.block_size.min(plan.sites - start) {
                return Err(mismatch("sites"));
            }
        }
        self.rounds.push(RoundEntry { meta, sources });
        Ok(())
    }

    /// Rounds in the store.
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// True if the store holds no rounds (never true for a store built by
    /// [`open`](Self::open) or [`in_memory`](Self::in_memory)).
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }

    /// Sites per round.
    pub fn sites(&self) -> usize {
        self.plan.sites
    }

    /// The collection plan's block (shard) size.
    pub fn block_size(&self) -> usize {
        self.plan.block_size
    }

    /// Shards per round.
    pub fn shard_count(&self) -> u32 {
        self.plan.shard_count as u32
    }

    /// The rounds' timeline metadata, in round order.
    pub fn rounds(&self) -> impl Iterator<Item = &RoundMeta> + '_ {
        self.rounds.iter().map(|e| &e.meta)
    }

    /// One round's timeline metadata (0-based store index).
    pub fn meta(&self, index: usize) -> &RoundMeta {
        &self.rounds[index].meta
    }

    /// Reconstructs one round's snapshot (0-based store index).
    ///
    /// This chains the round's per-shard sources in shard order — the
    /// same structural sharing the collector used — so the result is
    /// byte-identical to the snapshot the campaign produced, carries the
    /// columns read at open, and reads no record data until a block is
    /// touched.
    pub fn snapshot(&self, index: usize) -> DnsSnapshot {
        let entry = &self.rounds[index];
        let mut builder =
            DnsSnapshot::builder(entry.meta.taken_at, entry.meta.day, self.plan.block_size);
        for source in &entry.sources {
            builder.push_source(source.clone());
        }
        builder.finish()
    }

    /// Distinct backing files referenced by round `index`'s chain — 1 for
    /// a full round, 1 + the live chain depth for a delta round, 0 for a
    /// resident one.
    pub fn chain_depth(&self, index: usize) -> usize {
        self.rounds[index]
            .sources
            .iter()
            .filter_map(|s| s.spill_ref().map(|r| r.file_path()))
            .collect::<BTreeSet<_>>()
            .len()
    }

    /// Each round's generation delta — dirty vs chained-clean shards —
    /// read from store metadata alone (no record I/O), in round order.
    pub fn generation_diff(&self) -> Vec<GenerationDiff> {
        self.rounds()
            .map(|meta| GenerationDiff {
                round: meta.round,
                day: meta.day,
                kind: meta.kind,
                dirty: meta.dirty_shards.len(),
                clean: self.plan.shard_count - meta.dirty_shards.len(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_names_parse() {
        assert_eq!(
            parse_round_name("full-r00000.rsnb"),
            Some((RoundKind::Full, 0))
        );
        assert_eq!(
            parse_round_name("delta-r00012.rsnb"),
            Some((RoundKind::Delta, 12))
        );
        assert_eq!(parse_round_name("full-r7.rsnb"), Some((RoundKind::Full, 7)));
        for bad in [
            "full-r.rsnb",
            "full-rxyz.rsnb",
            "full-r00001.tmp",
            "snapshot.rsnb",
            "full-r-1.rsnb",
            "full-r00001",
        ] {
            assert_eq!(parse_round_name(bad), None, "{bad} must not parse");
        }
    }

    fn snapshot(day: u32, sites: usize, block_size: usize) -> DnsSnapshot {
        let mut builder = DnsSnapshot::builder(SimTime::EPOCH, day, block_size);
        for _ in 0..sites {
            builder.push(remnant_core::SiteRecords::default());
        }
        builder.finish()
    }

    #[test]
    fn in_memory_rejects_inconsistent_sequences() {
        assert!(matches!(
            SnapshotStore::in_memory(std::iter::empty()),
            Err(StoreError::NoRounds)
        ));
        let mismatch = |snapshots: Vec<DnsSnapshot>| match SnapshotStore::in_memory(snapshots) {
            Err(StoreError::PlanMismatch { round, field }) => (round, field),
            other => panic!("expected PlanMismatch, got {other:?}"),
        };
        assert_eq!(
            mismatch(vec![snapshot(0, 10, 4), snapshot(1, 11, 4)]),
            (1, "sites")
        );
        assert_eq!(
            mismatch(vec![snapshot(0, 10, 4), snapshot(1, 10, 5)]),
            (1, "block_size")
        );
        assert_eq!(
            mismatch(vec![snapshot(3, 10, 4), snapshot(3, 10, 4)]),
            (1, "day")
        );
        let store = SnapshotStore::in_memory(vec![snapshot(0, 10, 4), snapshot(1, 10, 4)])
            .expect("a consistent sequence");
        assert_eq!((store.len(), store.shard_count()), (2, 3));
        assert_eq!(store.snapshot(1), snapshot(1, 10, 4));
        assert_eq!(store.chain_depth(1), 0);
    }
}
