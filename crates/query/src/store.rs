//! The time-indexed snapshot store: a spill directory reopened as a
//! queryable sequence of collection rounds.
//!
//! A campaign that runs with `--spill-dir` leaves one RSNP v2 file per
//! round behind: `full-r*.rsnb` files carry every shard, `delta-r*.rsnb`
//! files carry only the shards whose zone generations changed.
//! [`SnapshotStore::open`] re-chains that directory without loading any
//! record data: each file contributes one [`BlockSource`] per shard it
//! wrote — a [`SpillRef`](remnant_core::SpillRef) to the record frame
//! plus the block's derived column, read from its column frame — and a
//! round's snapshot is the latest source per shard at that point in the
//! sequence: the same `Arc`-shared structural sharing the delta collector
//! used when writing. Record frames are only read from disk when a query
//! actually touches a block's records, and are dropped again after the
//! block goes out of scope.

use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use remnant_core::spill::{SpillError, SpillFile};
use remnant_core::{BlockSource, DnsSnapshot};
use remnant_sim::SimTime;

use crate::query::RoundsQuery;

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
    /// A file disagrees with the rest of the campaign about the
    /// collection plan.
    PlanMismatch {
        /// The offending round.
        round: u64,
        /// Which plan field differed (`"sites"`, `"block_size"`,
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

enum RoundBacking {
    /// One source per shard, ascending — the latest frame for each shard
    /// as of this round.
    Spilled(Vec<BlockSource>),
    /// A resident snapshot (the in-memory campaign path).
    Resident(DnsSnapshot),
}

pub(crate) struct RoundEntry {
    pub(crate) meta: RoundMeta,
    backing: RoundBacking,
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
    sites: usize,
    block_size: usize,
    shard_count: u32,
}

impl fmt::Debug for SnapshotStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SnapshotStore")
            .field("rounds", &self.rounds.len())
            .field("sites", &self.sites)
            .field("block_size", &self.block_size)
            .field("shard_count", &self.shard_count)
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
    /// `delta-r*` files — is a typed [`StoreError::MissingRound`]), that
    /// every file agrees on the collection plan, and that the first round
    /// covers every shard. Only headers, footer indexes and column frames
    /// are read; record frames stay on disk.
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

        let mut rounds: Vec<RoundEntry> = Vec::with_capacity(files.len());
        let mut plan: Option<(u64, u32, u32)> = None; // sites, block_size, shards
        let mut prev_day: Option<u32> = None;
        let mut latest: Vec<Option<BlockSource>> = Vec::new();
        for (round, kind, path) in files {
            let file = SpillFile::open(&path)?;
            let meta = file.meta();
            match plan {
                None => {
                    plan = Some((meta.sites, meta.block_size, meta.shard_count));
                    latest = vec![None; meta.shard_count as usize];
                }
                Some((sites, block_size, shard_count)) => {
                    let field = if meta.sites != sites {
                        Some("sites")
                    } else if meta.block_size != block_size {
                        Some("block_size")
                    } else if meta.shard_count != shard_count {
                        Some("shard_count")
                    } else {
                        None
                    };
                    if let Some(field) = field {
                        return Err(StoreError::PlanMismatch { round, field });
                    }
                }
            }
            if prev_day.is_some_and(|prev| meta.day <= prev) {
                return Err(StoreError::PlanMismatch {
                    round,
                    field: "day",
                });
            }
            prev_day = Some(meta.day);

            let sources = file.sources()?;
            let dirty_shards: Vec<u32> = sources.iter().map(|(shard, _)| *shard).collect();
            for (shard, source) in sources {
                latest[shard as usize] = Some(source);
            }
            let chained: Vec<BlockSource> = latest
                .iter()
                .enumerate()
                .map(|(shard, slot)| {
                    slot.clone()
                        .ok_or(StoreError::Spill(SpillError::MissingShardFrame {
                            shard: shard as u32,
                        }))
                })
                .collect::<Result<_, _>>()?;
            rounds.push(RoundEntry {
                meta: RoundMeta {
                    round,
                    day: meta.day,
                    taken_at: meta.taken_at,
                    kind,
                    dirty_shards,
                },
                backing: RoundBacking::Spilled(chained),
            });
        }
        let (sites, block_size, shard_count) = plan.expect("at least one round");
        Ok(SnapshotStore {
            rounds,
            sites: sites as usize,
            block_size: block_size as usize,
            shard_count,
        })
    }

    /// Builds a store over resident snapshots — the in-memory campaign
    /// path, so queries run identically whether or not a campaign
    /// spilled. Snapshots must be given in round order and agree on site
    /// count and block size.
    pub fn in_memory(
        snapshots: impl IntoIterator<Item = DnsSnapshot>,
    ) -> Result<SnapshotStore, StoreError> {
        let mut rounds: Vec<RoundEntry> = Vec::new();
        let mut plan: Option<(usize, usize)> = None;
        let mut prev_day: Option<u32> = None;
        for (i, snapshot) in snapshots.into_iter().enumerate() {
            let round = i as u64;
            match plan {
                None => plan = Some((snapshot.len(), snapshot.block_size())),
                Some((sites, block_size)) => {
                    let field = if snapshot.len() != sites {
                        Some("sites")
                    } else if snapshot.block_size() != block_size {
                        Some("block_size")
                    } else {
                        None
                    };
                    if let Some(field) = field {
                        return Err(StoreError::PlanMismatch { round, field });
                    }
                }
            }
            if prev_day.is_some_and(|prev| snapshot.day <= prev) {
                return Err(StoreError::PlanMismatch {
                    round,
                    field: "day",
                });
            }
            prev_day = Some(snapshot.day);
            let shards = snapshot.blocks().count() as u32;
            rounds.push(RoundEntry {
                meta: RoundMeta {
                    round,
                    day: snapshot.day,
                    taken_at: snapshot.taken_at,
                    kind: RoundKind::Resident,
                    dirty_shards: (0..shards).collect(),
                },
                backing: RoundBacking::Resident(snapshot),
            });
        }
        if rounds.is_empty() {
            return Err(StoreError::NoRounds);
        }
        let (sites, block_size) = plan.expect("at least one round");
        let shard_count = rounds[0].meta.dirty_shards.len() as u32;
        Ok(SnapshotStore {
            rounds,
            sites,
            block_size,
            shard_count,
        })
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
        self.sites
    }

    /// The collection plan's block (shard) size.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Shards per round.
    pub fn shard_count(&self) -> u32 {
        self.shard_count
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
    /// For spilled rounds this chains the latest per-shard sources in
    /// shard order — the same structural sharing the collector used — so
    /// the result is byte-identical to the snapshot the campaign
    /// produced, carries the columns read at open, and reads no record
    /// data until a block is touched.
    pub fn snapshot(&self, index: usize) -> DnsSnapshot {
        let entry = &self.rounds[index];
        match &entry.backing {
            RoundBacking::Resident(snapshot) => snapshot.clone(),
            RoundBacking::Spilled(sources) => {
                let mut builder =
                    DnsSnapshot::builder(entry.meta.taken_at, entry.meta.day, self.block_size);
                for source in sources {
                    builder.push_source(source.clone());
                }
                builder.finish()
            }
        }
    }

    /// Distinct backing files referenced by round `index`'s chain — 1 for
    /// a full round, 1 + the live chain depth for a delta round.
    pub fn chain_depth(&self, index: usize) -> usize {
        match &self.rounds[index].backing {
            RoundBacking::Resident(_) => 0,
            RoundBacking::Spilled(sources) => sources
                .iter()
                .filter_map(|s| s.spill_ref().map(|r| r.file_path()))
                .collect::<BTreeSet<_>>()
                .len(),
        }
    }

    /// Starts a query over every round.
    pub fn query(&self) -> RoundsQuery<'_> {
        RoundsQuery::all(self)
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

    #[test]
    fn in_memory_rejects_inconsistent_sequences() {
        assert!(matches!(
            SnapshotStore::in_memory(std::iter::empty()),
            Err(StoreError::NoRounds)
        ));
    }
}
