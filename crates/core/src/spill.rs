//! The on-disk round files that let collection rounds run
//! memory-bounded: one writer ([`SpillWriter`]) and one reader
//! ([`SpillFile::open`] → [`SpillFile::sources`] → [`SpillRef::load`]).
//!
//! # Format (`v3`)
//!
//! One spill file holds one collection round. Each shard's records are
//! one self-contained frame, streamed out as the shard is appended; its
//! [`DerivedColumn`] waits for [`SpillWriter::finish`], which writes every
//! column of the file as one column section just before the footer:
//!
//! ```text
//! header   "RSNP" u16=version u16=0  u64=taken_at_secs u32=day
//!          u32=block_size u64=sites u32=shard_count
//! (frame)*                                             one per shard
//! section  u32=name_count  (u16=len bytes)*            file name table
//!          (column)*                                   one per shard
//! frame    u32=frame_len  (bytes after this field)
//!          u32=shard  u32=n_sites
//!          u32=name_count  (u16=len bytes)*            interned-name table
//!          u32=a_count     (4 bytes)*                  A column
//!          u32=cname_count (u32=name_id)*              CNAME column
//!          u32=ns_count    (u32=name_id)*              NS column
//!          (u32=a_end u32=cname_end u32=ns_end)*       per-site ends
//! column   u32=shard  u32=n_sites
//!          (u8=class)*                                 one per site
//!          u32=multi_cdn_count (u32=site)*             multi-CDN sites
//!          u32=fleet_count (u32=site u32=name_id)*     Cloudflare fleet NS
//!          u32=token_count (u32=site u32=name_id)*     Incapsula tokens
//! footer   "RSNX" u32=entry_count
//!          (u32=shard u64=frame_offset u32=frame_len
//!           u32=column_offset u32=column_len)*         column: within section
//! trailer  u64=section_offset u64=footer_offset "RSNZ"
//! ```
//!
//! A class byte is a [`PackedAdoption`]. Site indices are block-local:
//! multi-CDN sites and tokens ascend strictly, fleet candidates ascend
//! with repeats. Frames and columns both sit in append order, which is
//! plan order, so a round's bytes do not depend on the worker count.
//!
//! Each record frame carries its own name table (names deduplicated
//! within the frame; process-wide deduplication happens anyway when
//! decoded names re-enter the interner), so a frame is self-contained
//! and loads from its footer index entry alone. The column section has
//! one name table for the whole file: each distinct fleet host or token
//! once, in first-occurrence order over the columns. Fleet hosts come
//! from one provider's small nameserver pool, so one table per file
//! parses each of them once instead of once per shard.
//!
//! Reopening a round ([`SpillFile::sources`]) reads the header, the
//! trailer, and everything from the column section to the trailer: three
//! reads per file. It parses the name table once and decodes each
//! shard's column from its slice of the section; a block's records are
//! read only when something loads it ([`SpillRef::load`]). Delta rounds
//! write only their dirty shards — clean shards stay as [`SpillRef`]s
//! into *previous* rounds' files: the delta collector's structural
//! sharing, moved onto disk.
//!
//! Every read, the column section included, returns a typed
//! [`SpillError`] on malformed input and never panics; every offset and
//! extent is checked against the file, and each column extent against
//! the section, before anything is sized from it, and nothing is sized
//! from a declared count the bytes present cannot back. A file of
//! another version (a v2 file, with a column frame after each record
//! frame, included) is rejected with [`SpillError::UnsupportedVersion`].

use std::collections::BTreeMap;
use std::fmt;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use remnant_dns::DomainName;
use remnant_net::hash::{WordMap, WordSet};
use remnant_sim::SimTime;

use crate::adoption::PackedAdoption;
use crate::classify::DerivedColumn;
use crate::snapshot::{BlockSource, RecordBlock};

const FILE_MAGIC: &[u8; 4] = b"RSNP";
const FOOTER_MAGIC: &[u8; 4] = b"RSNX";
const TRAILER_MAGIC: &[u8; 4] = b"RSNZ";
const VERSION: u16 = 3;
/// Fixed header length in bytes.
const HEADER_LEN: u64 = 4 + 2 + 2 + 8 + 4 + 4 + 8 + 4;
/// Trailer length in bytes: `u64=section_offset u64=footer_offset "RSNZ"`.
const TRAILER_LEN: u64 = 8 + 8 + 4;
/// Leading words every record frame starts with: `frame_len shard
/// n_sites`.
const PREAMBLE_LEN: u32 = 12;

/// Where spilled rounds go and how much stays resident while collecting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpillConfig {
    /// Directory the per-round spill files are written to.
    pub dir: PathBuf,
    /// Upper bound on shards held in memory at once during a streaming
    /// collect (clamped to at least the engine's worker count).
    pub resident_shards: usize,
}

impl SpillConfig {
    /// Default resident-shard budget: large enough to keep 8 workers busy,
    /// small enough that the working set stays a sliver of the round.
    pub const DEFAULT_RESIDENT_SHARDS: usize = 32;

    /// A config spilling to `dir` with the default resident budget.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        SpillConfig {
            dir: dir.into(),
            resident_shards: Self::DEFAULT_RESIDENT_SHARDS,
        }
    }
}

/// The fixed metadata at the head of every spill file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpillMeta {
    /// When the round ran.
    pub taken_at: SimTime,
    /// Day index of the round.
    pub day: u32,
    /// Sites the round covers (across *all* shards of the plan, present
    /// in this file or not).
    pub sites: u64,
    /// The shard/block size of the plan.
    pub block_size: u32,
    /// Shards in the plan.
    pub shard_count: u32,
}

/// Why a round-file write or read failed.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum SpillError {
    /// An underlying I/O operation failed.
    Io {
        /// What was being done.
        context: &'static str,
        /// The OS error text.
        error: String,
    },
    /// The file/header magic was wrong — not a spill file.
    BadMagic,
    /// The format version is newer than this build understands.
    UnsupportedVersion(u16),
    /// The input ended inside the named section.
    Truncated {
        /// Which section the input ended in.
        section: &'static str,
    },
    /// A name id pointed past its name table (a record frame's, or the
    /// file's column-section table).
    BadNameIndex {
        /// The offending id.
        index: u32,
        /// The table's length.
        table: u32,
    },
    /// A name-table entry was not a valid domain name.
    BadName(String),
    /// The same shard appeared twice (in a file's index or an append).
    DuplicateShardFrame {
        /// The repeated shard index.
        shard: u32,
    },
    /// A shard index is outside the plan recorded in the header.
    ShardOutOfRange {
        /// The offending shard index.
        shard: u32,
        /// The header's shard count.
        count: u32,
    },
    /// A frame's internal counts are inconsistent (ends not monotone, a
    /// final end disagreeing with its column, or a declared count not
    /// matching the bytes present).
    CorruptFrame {
        /// Which check failed.
        reason: &'static str,
    },
}

impl fmt::Display for SpillError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io { context, error } => write!(f, "spill I/O error while {context}: {error}"),
            Self::BadMagic => write!(f, "not a remnant snapshot spill file (bad magic)"),
            Self::UnsupportedVersion(v) => write!(f, "unsupported spill format version {v}"),
            Self::Truncated { section } => write!(f, "input truncated in {section}"),
            Self::BadNameIndex { index, table } => {
                write!(f, "name id {index} out of range for table of {table}")
            }
            Self::BadName(name) => write!(f, "invalid domain name in name table: {name:?}"),
            Self::DuplicateShardFrame { shard } => {
                write!(f, "duplicate frame for shard {shard}")
            }
            Self::ShardOutOfRange { shard, count } => {
                write!(f, "shard {shard} out of range for plan of {count}")
            }
            Self::CorruptFrame { reason } => write!(f, "corrupt frame: {reason}"),
        }
    }
}

impl std::error::Error for SpillError {}

fn io_err(context: &'static str) -> impl FnOnce(std::io::Error) -> SpillError {
    move |e| SpillError::Io {
        context,
        error: e.to_string(),
    }
}

// ---------------------------------------------------------------------------
// Byte-level primitives
// ---------------------------------------------------------------------------

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize, section: &'static str) -> Result<&'a [u8], SpillError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(SpillError::Truncated { section })?;
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u16(&mut self, section: &'static str) -> Result<u16, SpillError> {
        Ok(u16::from_le_bytes(
            self.take(2, section)?.try_into().expect("2 bytes"),
        ))
    }

    fn u32(&mut self, section: &'static str) -> Result<u32, SpillError> {
        Ok(u32::from_le_bytes(
            self.take(4, section)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self, section: &'static str) -> Result<u64, SpillError> {
        Ok(u64::from_le_bytes(
            self.take(8, section)?.try_into().expect("8 bytes"),
        ))
    }
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

// ---------------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------------

/// An interned-name table — one per record frame, and one for a file's
/// column section: each distinct name once, in first occurrence order
/// (deterministic — no hashing in the layout).
#[derive(Default)]
struct NameTable<'b> {
    names: Vec<&'b DomainName>,
    ids: WordMap<&'b DomainName, u32>,
}

impl<'b> NameTable<'b> {
    fn id(&mut self, name: &'b DomainName) -> u32 {
        *self.ids.entry(name).or_insert_with(|| {
            self.names.push(name);
            (self.names.len() - 1) as u32
        })
    }

    fn encode(&self, body: &mut Vec<u8>) {
        put_u32(body, self.names.len() as u32);
        for name in &self.names {
            let s = name.as_str().as_bytes();
            put_u16(body, s.len() as u16);
            body.extend_from_slice(s);
        }
    }
}

/// Reads a name table.
fn decode_name_table(r: &mut Reader<'_>) -> Result<Vec<DomainName>, SpillError> {
    let name_count = r.u32("name table count")? as usize;
    // Every entry takes at least its 2-byte length word.
    let mut table = Vec::with_capacity(name_count.min((r.bytes.len() - r.pos) / 2));
    for _ in 0..name_count {
        let len = r.u16("name table entry length")? as usize;
        let raw = r.take(len, "name table entry")?;
        let s = std::str::from_utf8(raw)
            .map_err(|_| SpillError::BadName(format!("{raw:?} (not UTF-8)")))?;
        let name: DomainName = s.parse().map_err(|_| SpillError::BadName(s.to_string()))?;
        table.push(name);
    }
    Ok(table)
}

/// Resolves a name id against its table.
fn lookup_name(table: &[DomainName], id: u32) -> Result<DomainName, SpillError> {
    table
        .get(id as usize)
        .cloned()
        .ok_or(SpillError::BadNameIndex {
            index: id,
            table: table.len() as u32,
        })
}

/// Prefixes a frame body with its `frame_len` word.
fn seal(body: Vec<u8>) -> Vec<u8> {
    let mut frame = Vec::with_capacity(4 + body.len());
    put_u32(&mut frame, body.len() as u32);
    frame.extend_from_slice(&body);
    frame
}

/// Splits a frame (including its leading length word) into a reader over
/// its body, after the `shard` and `n_sites` words it returns.
fn open_frame<'a>(
    bytes: &'a [u8],
    section: &'static str,
) -> Result<(Reader<'a>, u32, usize), SpillError> {
    let mut r = Reader::new(bytes);
    let frame_len = r.u32(section)? as usize;
    let body = r.take(frame_len, section)?;
    let mut r = Reader::new(body);
    let shard = r.u32(section)?;
    let n_sites = r.u32(section)? as usize;
    Ok((r, shard, n_sites))
}

/// Encodes one shard's block as a self-contained frame (including the
/// leading `frame_len` word).
fn encode_frame(shard: u32, block: &RecordBlock) -> Vec<u8> {
    let (a, cnames, ns) = block.columns();
    let mut table = NameTable::default();
    let cname_ids: Vec<u32> = cnames.iter().map(|n| table.id(n)).collect();
    let ns_ids: Vec<u32> = ns.iter().map(|n| table.id(n)).collect();

    let mut body = Vec::new();
    put_u32(&mut body, shard);
    put_u32(&mut body, block.len() as u32);
    table.encode(&mut body);
    put_u32(&mut body, a.len() as u32);
    for addr in a {
        body.extend_from_slice(&addr.octets());
    }
    put_u32(&mut body, cname_ids.len() as u32);
    for id in &cname_ids {
        put_u32(&mut body, *id);
    }
    put_u32(&mut body, ns_ids.len() as u32);
    for id in &ns_ids {
        put_u32(&mut body, *id);
    }
    for ends in block.ends() {
        put_u32(&mut body, ends[0]);
        put_u32(&mut body, ends[1]);
        put_u32(&mut body, ends[2]);
    }
    seal(body)
}

/// Decodes one frame (including its leading `frame_len` word) back into
/// `(shard, block)`.
fn decode_frame(bytes: &[u8]) -> Result<(u32, RecordBlock), SpillError> {
    let (mut r, shard, n_sites) = open_frame(bytes, "frame preamble")?;
    let body_len = bytes.len();
    let table = decode_name_table(&mut r)?;

    let a_count = r.u32("A column count")? as usize;
    let a_bytes = r.take(
        a_count.checked_mul(4).ok_or(SpillError::CorruptFrame {
            reason: "A count overflow",
        })?,
        "A column",
    )?;
    let a: Vec<Ipv4Addr> = a_bytes
        .chunks_exact(4)
        .map(|c| Ipv4Addr::new(c[0], c[1], c[2], c[3]))
        .collect();

    let mut name_column = |label: &'static str| -> Result<Vec<DomainName>, SpillError> {
        let count = r.u32(label)? as usize;
        let ids = r.take(
            count.checked_mul(4).ok_or(SpillError::CorruptFrame {
                reason: "name column count overflow",
            })?,
            label,
        )?;
        ids.chunks_exact(4)
            .map(|c| lookup_name(&table, u32::from_le_bytes(c.try_into().expect("4 bytes"))))
            .collect()
    };
    let cnames = name_column("CNAME column")?;
    let ns = name_column("NS column")?;

    let mut ends = Vec::with_capacity(n_sites.min(body_len / 12 + 1));
    let mut prev = [0u32; 3];
    for _ in 0..n_sites {
        let e = [
            r.u32("ends table")?,
            r.u32("ends table")?,
            r.u32("ends table")?,
        ];
        if e[0] < prev[0] || e[1] < prev[1] || e[2] < prev[2] {
            return Err(SpillError::CorruptFrame {
                reason: "ends not monotone",
            });
        }
        prev = e;
        ends.push(e);
    }
    let last = ends.last().copied().unwrap_or([0, 0, 0]);
    if last[0] as usize != a.len()
        || last[1] as usize != cnames.len()
        || last[2] as usize != ns.len()
    {
        return Err(SpillError::CorruptFrame {
            reason: "final ends disagree with columns",
        });
    }
    Ok((shard, RecordBlock::from_columns(ends, a, cnames, ns)))
}

/// Appends one shard's derived column to `out`, interning its fleet
/// hosts and tokens into the file's column-section `table`.
fn encode_column<'b>(
    out: &mut Vec<u8>,
    table: &mut NameTable<'b>,
    shard: u32,
    column: &'b DerivedColumn,
) {
    put_u32(out, shard);
    put_u32(out, column.len() as u32);
    out.extend(column.classes.iter().map(|class| class.byte()));
    put_u32(out, column.multi_cdn.len() as u32);
    for site in &column.multi_cdn {
        put_u32(out, *site);
    }
    put_u32(out, column.fleet_sites.len() as u32);
    for (site, host) in column.fleet_sites.iter().zip(&column.fleet_ns) {
        put_u32(out, *site);
        put_u32(out, table.id(host));
    }
    put_u32(out, column.incap_tokens.len() as u32);
    for (site, token) in &column.incap_tokens {
        put_u32(out, *site);
        put_u32(out, table.id(token));
    }
}

/// Encodes a file's column section: the name table, then each
/// `(shard, column)` in the order given. Returns the section and each
/// column's `(offset, len)` within it.
fn encode_section<'b>(
    columns: impl IntoIterator<Item = (u32, &'b DerivedColumn)>,
) -> (Vec<u8>, Vec<(u32, u32)>) {
    let mut table = NameTable::default();
    let mut body = Vec::new();
    let mut extents = Vec::new();
    for (shard, column) in columns {
        let start = body.len();
        encode_column(&mut body, &mut table, shard, column);
        extents.push((start, body.len() - start));
    }
    let mut section = Vec::new();
    table.encode(&mut section);
    let base = section.len();
    section.extend_from_slice(&body);
    let extents = extents
        .into_iter()
        .map(|(start, len)| ((base + start) as u32, len as u32))
        .collect();
    (section, extents)
}

/// Reads a count-prefixed list of block-local site indices, each below
/// `n_sites` and ascending (strictly unless `repeats`), pairing each with
/// what `item` reads after it.
fn decode_sites<T>(
    r: &mut Reader<'_>,
    n_sites: usize,
    repeats: bool,
    section: &'static str,
    mut item: impl FnMut(&mut Reader<'_>) -> Result<T, SpillError>,
) -> Result<Vec<(u32, T)>, SpillError> {
    let count = r.u32(section)? as usize;
    // Every entry takes at least its 4-byte site word, so a count the
    // remaining bytes cannot hold never over-allocates.
    let mut out = Vec::with_capacity(count.min((r.bytes.len() - r.pos) / 4));
    let mut prev: Option<u32> = None;
    for _ in 0..count {
        let site = r.u32(section)?;
        if site as usize >= n_sites {
            return Err(SpillError::CorruptFrame {
                reason: "column site index out of range",
            });
        }
        if prev.is_some_and(|p| site < p || (site == p && !repeats)) {
            return Err(SpillError::CorruptFrame {
                reason: "column site indices out of order",
            });
        }
        prev = Some(site);
        out.push((site, item(r)?));
    }
    Ok(out)
}

/// Decodes one column (exactly its slice of the column section) back
/// into `(shard, column)`, resolving names against the section's `table`.
fn decode_column(bytes: &[u8], table: &[DomainName]) -> Result<(u32, DerivedColumn), SpillError> {
    let mut r = Reader::new(bytes);
    let shard = r.u32("column preamble")?;
    let n_sites = r.u32("column preamble")? as usize;
    // Sized by the bytes present, never by the declared count alone.
    let classes = r
        .take(n_sites, "class column")?
        .iter()
        .map(|&byte| {
            PackedAdoption::from_byte(byte).ok_or(SpillError::CorruptFrame {
                reason: "invalid adoption class",
            })
        })
        .collect::<Result<_, _>>()?;
    let multi_cdn = decode_sites(&mut r, n_sites, false, "multi-CDN column", |_| Ok(()))?
        .into_iter()
        .map(|(site, ())| site)
        .collect();
    let mut named = |repeats: bool, section: &'static str| {
        decode_sites(&mut r, n_sites, repeats, section, |r| {
            lookup_name(table, r.u32(section)?)
        })
    };
    let (fleet_sites, fleet_ns) = named(true, "fleet column")?.into_iter().unzip();
    let incap_tokens = named(false, "token column")?;
    if r.pos != r.bytes.len() {
        return Err(SpillError::CorruptFrame {
            reason: "column has trailing bytes",
        });
    }
    Ok((
        shard,
        DerivedColumn {
            classes,
            multi_cdn,
            fleet_sites,
            fleet_ns,
            incap_tokens,
        },
    ))
}

// ---------------------------------------------------------------------------
// File header and footer index
// ---------------------------------------------------------------------------

fn encode_header(out: &mut Vec<u8>, meta: &SpillMeta) {
    out.extend_from_slice(FILE_MAGIC);
    put_u16(out, VERSION);
    put_u16(out, 0);
    put_u64(out, meta.taken_at.as_secs());
    put_u32(out, meta.day);
    put_u32(out, meta.block_size);
    put_u64(out, meta.sites);
    put_u32(out, meta.shard_count);
}

fn decode_header(bytes: &[u8]) -> Result<SpillMeta, SpillError> {
    let mut r = Reader::new(bytes);
    if r.take(4, "file magic")? != FILE_MAGIC {
        return Err(SpillError::BadMagic);
    }
    let version = r.u16("version")?;
    if version != VERSION {
        return Err(SpillError::UnsupportedVersion(version));
    }
    let _reserved = r.u16("header")?;
    let taken_at = SimTime::from_secs(r.u64("header taken_at")?);
    let day = r.u32("header day")?;
    let block_size = r.u32("header block_size")?;
    let sites = r.u64("header sites")?;
    let shard_count = r.u32("header shard_count")?;
    Ok(SpillMeta {
        taken_at,
        day,
        sites,
        block_size,
        shard_count,
    })
}

/// Where one shard sits in a file: its record frame's `(offset, len)` in
/// the file, and its column's `(offset, len)` within the column section.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct ShardExtents {
    frame: (u64, u32),
    column: (u32, u32),
}

/// Appends the footer index and trailer to `out`, which holds the column
/// section that starts at file offset `section_offset`.
fn encode_footer(out: &mut Vec<u8>, section_offset: u64, index: &[(u32, ShardExtents)]) {
    let footer_offset = section_offset + out.len() as u64;
    out.extend_from_slice(FOOTER_MAGIC);
    put_u32(out, index.len() as u32);
    for (shard, extents) in index {
        put_u32(out, *shard);
        put_u64(out, extents.frame.0);
        put_u32(out, extents.frame.1);
        put_u32(out, extents.column.0);
        put_u32(out, extents.column.1);
    }
    put_u64(out, section_offset);
    put_u64(out, footer_offset);
    out.extend_from_slice(TRAILER_MAGIC);
}

/// Validates the trailer of a `len`-byte document; returns the column
/// section's and the footer's offsets, in that order and both inside the
/// file body.
fn decode_trailer(trailer: &[u8], len: u64) -> Result<(u64, u64), SpillError> {
    if len < HEADER_LEN + TRAILER_LEN || trailer.len() as u64 != TRAILER_LEN {
        return Err(SpillError::Truncated { section: "trailer" });
    }
    if &trailer[16..] != TRAILER_MAGIC {
        return Err(SpillError::BadMagic);
    }
    let section_offset = u64::from_le_bytes(trailer[..8].try_into().expect("8 bytes"));
    let footer_offset = u64::from_le_bytes(trailer[8..16].try_into().expect("8 bytes"));
    if footer_offset > len - TRAILER_LEN {
        return Err(SpillError::Truncated { section: "footer" });
    }
    if section_offset < HEADER_LEN || section_offset > footer_offset {
        return Err(SpillError::CorruptFrame {
            reason: "column section offset outside the file body",
        });
    }
    Ok((section_offset, footer_offset))
}

/// Parses a footer (magic through the last index entry); returns
/// `shard -> extents`.
fn decode_footer(bytes: &[u8]) -> Result<BTreeMap<u32, ShardExtents>, SpillError> {
    let mut r = Reader::new(bytes);
    if r.take(4, "footer magic")? != FOOTER_MAGIC {
        return Err(SpillError::BadMagic);
    }
    let count = r.u32("footer entry count")?;
    let mut index = BTreeMap::new();
    for _ in 0..count {
        let shard = r.u32("footer entry")?;
        let extents = ShardExtents {
            frame: (r.u64("footer entry")?, r.u32("footer entry")?),
            column: (r.u32("footer entry")?, r.u32("footer entry")?),
        };
        if index.insert(shard, extents).is_some() {
            return Err(SpillError::DuplicateShardFrame { shard });
        }
    }
    Ok(index)
}

// ---------------------------------------------------------------------------
// Spill files
// ---------------------------------------------------------------------------

/// An open spill file: the read-only side, shared by every [`SpillRef`]
/// into it.
pub struct SpillFile {
    path: PathBuf,
    file: Mutex<File>,
    /// File length in bytes, taken at open.
    len: u64,
    meta: SpillMeta,
}

impl fmt::Debug for SpillFile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpillFile")
            .field("path", &self.path)
            .field("meta", &self.meta)
            .finish()
    }
}

impl SpillFile {
    /// Opens a finished spill file and validates its header.
    pub fn open(path: impl AsRef<Path>) -> Result<Arc<SpillFile>, SpillError> {
        let path = path.as_ref().to_path_buf();
        let mut file = File::open(&path).map_err(io_err("opening spill file"))?;
        let mut header = [0u8; HEADER_LEN as usize];
        file.read_exact(&mut header)
            .map_err(io_err("reading spill header"))?;
        let meta = decode_header(&header)?;
        let len = file
            .metadata()
            .map_err(io_err("reading spill file length"))?
            .len();
        Ok(Arc::new(SpillFile {
            path,
            file: Mutex::new(file),
            len,
            meta,
        }))
    }

    /// The file's fixed metadata.
    pub fn meta(&self) -> SpillMeta {
        self.meta
    }

    /// The file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The column section and the footer, in two reads: the trailer,
    /// then everything from the section's start to the trailer. Returns
    /// those bytes and the footer's offset within them.
    fn tail(&self) -> Result<(Vec<u8>, usize), SpillError> {
        let trailer_at = self.len.saturating_sub(TRAILER_LEN);
        let trailer = self.read_at(trailer_at, (self.len - trailer_at) as usize, "trailer")?;
        let (section_offset, footer_offset) = decode_trailer(&trailer, self.len)?;
        let tail = self.read_at(
            section_offset,
            (trailer_at - section_offset) as usize,
            "column section",
        )?;
        Ok((tail, (footer_offset - section_offset) as usize))
    }

    /// Reads `len` bytes at `offset`. A range past the end of the file is
    /// a typed truncation, checked before any buffer is sized from it.
    fn read_at(
        &self,
        offset: u64,
        len: usize,
        section: &'static str,
    ) -> Result<Vec<u8>, SpillError> {
        if offset
            .checked_add(len as u64)
            .is_none_or(|end| end > self.len)
        {
            return Err(SpillError::Truncated { section });
        }
        let mut buf = vec![0u8; len];
        let mut file = self.file.lock().expect("spill file lock");
        file.seek(SeekFrom::Start(offset))
            .and_then(|_| file.read_exact(&mut buf))
            .map_err(io_err("reading spill frame"))?;
        Ok(buf)
    }

    /// One [`BlockSource`] per shard in the file, with its shard index, in
    /// ascending shard order.
    ///
    /// Only the trailer, the footer and the column section are read, the
    /// last two in one read: the sources carry their derived columns,
    /// decoded against the section's one name table, and the record
    /// frames stay on disk until [`SpillRef::load`]. This is how a reader
    /// (e.g. a snapshot store) re-chains a directory of rounds without
    /// pulling whole files into memory.
    pub fn sources(self: &Arc<Self>) -> Result<Vec<(u32, BlockSource)>, SpillError> {
        let (tail, footer_at) = self.tail()?;
        let (section, footer) = tail.split_at(footer_at);
        let index = decode_footer(footer)?;
        let mut r = Reader::new(section);
        let table = decode_name_table(&mut r)?;
        // Columns follow the table; an extent reaching outside that range
        // is rejected before its slice is taken.
        let columns_at = r.pos;
        let mut sources = Vec::with_capacity(index.len());
        for (shard, extents) in index {
            if shard >= self.meta.shard_count {
                return Err(SpillError::ShardOutOfRange {
                    shard,
                    count: self.meta.shard_count,
                });
            }
            if extents.frame.1 < PREAMBLE_LEN {
                return Err(SpillError::Truncated {
                    section: "frame preamble",
                });
            }
            let (offset, len) = (extents.column.0 as usize, extents.column.1 as usize);
            let bytes = offset
                .checked_add(len)
                .filter(|&end| offset >= columns_at && end <= section.len())
                .map(|end| &section[offset..end])
                .ok_or(SpillError::CorruptFrame {
                    reason: "column extent outside the section",
                })?;
            let (column_shard, column) = decode_column(bytes, &table)?;
            if column_shard != shard {
                return Err(SpillError::CorruptFrame {
                    reason: "column shard disagrees with index",
                });
            }
            let spill = SpillRef {
                file: Arc::clone(self),
                shard,
                offset: extents.frame.0,
                len: extents.frame.1,
                sites: column.len() as u32,
            };
            sources.push((shard, BlockSource::spilled(spill, Arc::new(column))));
        }
        Ok(sources)
    }
}

/// A reference to one shard's record frame inside a [`SpillFile`]:
/// everything a snapshot needs to reload the block on demand, and nothing
/// more.
#[derive(Clone)]
pub struct SpillRef {
    file: Arc<SpillFile>,
    shard: u32,
    offset: u64,
    len: u32,
    sites: u32,
}

impl fmt::Debug for SpillRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SpillRef({} shard {} @{}+{})",
            self.file.path.display(),
            self.shard,
            self.offset,
            self.len
        )
    }
}

impl SpillRef {
    /// Sites the referenced frame covers (no I/O).
    pub fn sites(&self) -> usize {
        self.sites as usize
    }

    /// The shard index the frame was written as.
    pub fn shard(&self) -> usize {
        self.shard as usize
    }

    /// Path of the spill file holding the frame — with delta spills,
    /// refs in one round's chain can point at several earlier files.
    pub fn file_path(&self) -> &Path {
        &self.file.path
    }

    /// Reads and decodes the referenced record frame (and nothing else).
    pub fn load(&self) -> Result<RecordBlock, SpillError> {
        let bytes = self.file.read_at(self.offset, self.len as usize, "frame")?;
        let (shard, block) = decode_frame(&bytes)?;
        if shard != self.shard {
            return Err(SpillError::CorruptFrame {
                reason: "frame shard disagrees with reference",
            });
        }
        if block.len() != self.sites as usize {
            return Err(SpillError::CorruptFrame {
                reason: "frame site count disagrees with reference",
            });
        }
        Ok(block)
    }
}

/// One appended shard, awaiting [`SpillWriter::finish`].
#[derive(Debug)]
struct Pending {
    shard: u32,
    /// The record frame's `(offset, len)`.
    frame: (u64, u32),
    derived: Arc<DerivedColumn>,
}

/// Streams one round's record frames to disk, then finalizes the column
/// section and the footer and reopens the file for reads.
#[derive(Debug)]
pub struct SpillWriter {
    path: PathBuf,
    file: File,
    offset: u64,
    pending: Vec<Pending>,
    /// The shards in `pending`, for the duplicate check. Grown by
    /// appends, never sized from the header's shard count.
    appended: WordSet<u32>,
    meta: SpillMeta,
}

impl SpillWriter {
    /// Creates (truncating) a spill file and writes its header.
    pub fn create(path: impl AsRef<Path>, meta: SpillMeta) -> Result<Self, SpillError> {
        let path = path.as_ref().to_path_buf();
        let mut file = File::create(&path).map_err(io_err("creating spill file"))?;
        let mut header = Vec::new();
        encode_header(&mut header, &meta);
        file.write_all(&header)
            .map_err(io_err("writing spill header"))?;
        Ok(SpillWriter {
            path,
            file,
            offset: header.len() as u64,
            pending: Vec::new(),
            appended: WordSet::default(),
            meta,
        })
    }

    /// Appends one shard's record frame and keeps its column for the
    /// column section [`SpillWriter::finish`] writes. Returns nothing;
    /// the matching [`BlockSource`]s come out of `finish`.
    ///
    /// # Errors
    ///
    /// [`SpillError::DuplicateShardFrame`] if the shard was already
    /// appended, [`SpillError::ShardOutOfRange`] if it exceeds the plan,
    /// [`SpillError::CorruptFrame`] if the column does not cover the
    /// block.
    pub fn append_block(
        &mut self,
        shard: u32,
        block: &RecordBlock,
        derived: Arc<DerivedColumn>,
    ) -> Result<(), SpillError> {
        if shard >= self.meta.shard_count {
            return Err(SpillError::ShardOutOfRange {
                shard,
                count: self.meta.shard_count,
            });
        }
        if self.appended.contains(&shard) {
            return Err(SpillError::DuplicateShardFrame { shard });
        }
        if derived.len() != block.len() {
            return Err(SpillError::CorruptFrame {
                reason: "column site count disagrees with frame",
            });
        }
        let frame = encode_frame(shard, block);
        self.file
            .write_all(&frame)
            .map_err(io_err("writing spill frame"))?;
        self.appended.insert(shard);
        self.pending.push(Pending {
            shard,
            frame: (self.offset, frame.len() as u32),
            derived,
        });
        self.offset += frame.len() as u64;
        Ok(())
    }

    /// Writes the column section and the footer, flushes, and reopens the
    /// file read-only. Returns the shared read handle plus one
    /// [`BlockSource`] per appended shard, in append order.
    pub fn finish(mut self) -> Result<(Arc<SpillFile>, Vec<BlockSource>), SpillError> {
        let (mut tail, columns) =
            encode_section(self.pending.iter().map(|p| (p.shard, p.derived.as_ref())));
        let index: Vec<(u32, ShardExtents)> = self
            .pending
            .iter()
            .zip(columns)
            .map(|(p, column)| {
                let extents = ShardExtents {
                    frame: p.frame,
                    column,
                };
                (p.shard, extents)
            })
            .collect();
        encode_footer(&mut tail, self.offset, &index);
        self.file
            .write_all(&tail)
            .map_err(io_err("writing spill column section and footer"))?;
        self.file.flush().map_err(io_err("flushing spill file"))?;
        drop(self.file);
        let file = SpillFile::open(&self.path)?;
        let sources = self
            .pending
            .into_iter()
            .map(|p| {
                let spill = SpillRef {
                    file: Arc::clone(&file),
                    shard: p.shard,
                    offset: p.frame.0,
                    len: p.frame.1,
                    sites: p.derived.len() as u32,
                };
                BlockSource::spilled(spill, p.derived)
            })
            .collect();
        Ok((file, sources))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adoption::{Adoption, DpsStatus};
    use crate::snapshot::{DnsSnapshot, SiteRecords};
    use remnant_provider::{ProviderId, ReroutingMethod};

    fn sample_snapshot(block_size: usize) -> DnsSnapshot {
        let mut b = DnsSnapshot::builder(SimTime::from_secs(1234), 7, block_size);
        for i in 0..10u8 {
            let (cname, ns) = match i % 3 {
                0 => (
                    "edge.cdn.example.net",
                    ["ns1.webhost1.net", "ns2.webhost1.net"],
                ),
                1 => (
                    "x7f3.incapdns.net",
                    ["ns1.webhost1.net", "ns2.webhost1.net"],
                ),
                _ => (
                    "d123.cloudfront.net",
                    ["kate.ns.cloudflare.com", "rob.ns.cloudflare.com"],
                ),
            };
            b.push(SiteRecords {
                a: vec![Ipv4Addr::new(10, 0, 0, i)],
                cnames: if i % 2 == 0 {
                    vec![cname.parse().unwrap()]
                } else {
                    vec![]
                },
                ns: ns.iter().map(|n| n.parse().unwrap()).collect(),
            });
        }
        b.finish()
    }

    /// A fresh scratch directory for one test.
    fn temp_dir(test: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("remnant-spill-{test}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Writes `snap` through [`SpillWriter`] as one round file, one shard
    /// per block, and returns the file's bytes.
    fn write_round(path: &Path, snap: &DnsSnapshot) -> Vec<u8> {
        let sources: Vec<BlockSource> = snap.block_sources().map(|(_, s)| s).collect();
        let mut writer = SpillWriter::create(
            path,
            SpillMeta {
                taken_at: snap.taken_at,
                day: snap.day,
                sites: snap.len() as u64,
                block_size: snap.block_size() as u32,
                shard_count: sources.len() as u32,
            },
        )
        .unwrap();
        for (shard, source) in sources.iter().enumerate() {
            writer
                .append_block(shard as u32, &source.load(), Arc::clone(source.derived()))
                .unwrap();
        }
        writer.finish().unwrap();
        std::fs::read(path).unwrap()
    }

    /// Reads a round file the production way — open, sources, then every
    /// record frame through [`SpillRef::load`] — into a snapshot.
    fn read_round(path: &Path) -> Result<DnsSnapshot, SpillError> {
        let file = SpillFile::open(path)?;
        let meta = file.meta();
        let mut b = DnsSnapshot::builder(meta.taken_at, meta.day, meta.block_size as usize);
        for (_, source) in file.sources()? {
            source
                .spill_ref()
                .expect("a read source is spilled")
                .load()?;
            b.push_source(source);
        }
        Ok(b.finish())
    }

    /// Writes `bytes` to `path` and reads it back through [`read_round`].
    fn read_bytes(path: &Path, bytes: &[u8]) -> Result<DnsSnapshot, SpillError> {
        std::fs::write(path, bytes).unwrap();
        read_round(path)
    }

    /// A round file's `(section_offset, footer_offset)`, from its trailer.
    fn offsets(bytes: &[u8]) -> (usize, usize) {
        let trailer_at = bytes.len() - TRAILER_LEN as usize;
        let (section, footer) = decode_trailer(&bytes[trailer_at..], bytes.len() as u64).unwrap();
        (section as usize, footer as usize)
    }

    /// The footer index of a round file's bytes, with the byte offset of
    /// each entry (entries are 24 bytes, after the 8-byte footer head).
    fn footer_entries(bytes: &[u8]) -> Vec<(usize, ShardExtents)> {
        let footer_offset = offsets(bytes).1;
        let trailer_at = bytes.len() - TRAILER_LEN as usize;
        let index = decode_footer(&bytes[footer_offset..trailer_at]).unwrap();
        index
            .into_values()
            .enumerate()
            .map(|(i, extents)| (footer_offset + 8 + i * 24, extents))
            .collect()
    }

    fn put_u32_at(bytes: &mut [u8], at: usize, v: u32) {
        bytes[at..at + 4].copy_from_slice(&v.to_le_bytes());
    }

    fn put_u64_at(bytes: &mut [u8], at: usize, v: u64) {
        bytes[at..at + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// The file with its column section cut at byte `cut` (a file
    /// offset): the section's bytes from there on are gone, and the
    /// footer and trailer follow intact, the trailer's footer offset
    /// moved to match.
    fn cut_section(bytes: &[u8], cut: usize) -> Vec<u8> {
        let footer_offset = offsets(bytes).1;
        let mut short = bytes[..cut].to_vec();
        short.extend_from_slice(&bytes[footer_offset..]);
        let trailer_at = short.len() - TRAILER_LEN as usize;
        put_u64_at(&mut short, trailer_at + 8, cut as u64);
        short
    }

    #[test]
    fn round_file_round_trips() {
        let dir = temp_dir("round-trip");
        let snap = sample_snapshot(4);
        let bytes = write_round(&dir.join("a.rsnb"), &snap);
        let back = read_round(&dir.join("a.rsnb")).expect("own file reads back");
        assert_eq!(back, snap);
        assert_eq!(
            back.encode(),
            snap.encode(),
            "text dump, block layout included"
        );
        assert!(back.derived_columns().eq(snap.derived_columns()));
        // Canonical: writing the read-back round again is byte-identical.
        assert_eq!(write_round(&dir.join("b.rsnb"), &back), bytes);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncation_never_panics() {
        let dir = temp_dir("truncation");
        let path = dir.join("round.rsnb");
        let bytes = write_round(&path, &sample_snapshot(4));
        for cut in 0..bytes.len() {
            // Typed error, not a panic; exact kind depends on the cut.
            let err = read_bytes(&path, &bytes[..cut]).unwrap_err();
            let _ = err.to_string();
        }
        // Every column cut short at every byte by its footer extent, and
        // the column section cut at every byte with the footer and
        // trailer intact after it.
        for (entry, extents) in footer_entries(&bytes) {
            for cut in 0..extents.column.1 {
                let mut short = bytes.clone();
                put_u32_at(&mut short, entry + 20, cut);
                assert!(read_bytes(&path, &short).is_err(), "extent cut at {cut}");
            }
        }
        let (section_offset, footer_offset) = offsets(&bytes);
        for cut in section_offset..footer_offset {
            let short = cut_section(&bytes, cut);
            assert!(read_bytes(&path, &short).is_err(), "section cut at {cut}");
        }
        // A record frame's extent past the end of the file is a
        // truncation, and a column's extent past the section, or into its
        // name table, is named; both are caught before a buffer of the
        // extent's length is allocated or sliced.
        let (entry, _) = footer_entries(&bytes)[0];
        let mut long = bytes.clone();
        put_u32_at(&mut long, entry + 12, u32::MAX);
        assert_eq!(
            read_bytes(&path, &long).unwrap_err(),
            SpillError::Truncated { section: "frame" }
        );
        for (at, value) in [
            (entry + 20, u32::MAX),
            (entry + 16, u32::MAX),
            (entry + 16, 0),
        ] {
            let mut bad = bytes.clone();
            put_u32_at(&mut bad, at, value);
            assert_eq!(
                read_bytes(&path, &bad).unwrap_err(),
                SpillError::CorruptFrame {
                    reason: "column extent outside the section"
                }
            );
        }
        // A section offset past the footer, or inside the header.
        let trailer_at = bytes.len() - TRAILER_LEN as usize;
        for offset in [footer_offset as u64 + 1, u64::MAX, HEADER_LEN - 1] {
            let mut bad = bytes.clone();
            put_u64_at(&mut bad, trailer_at, offset);
            assert_eq!(
                read_bytes(&path, &bad).unwrap_err(),
                SpillError::CorruptFrame {
                    reason: "column section offset outside the file body"
                }
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn column_frames_round_trip_and_reject_bad_contents() {
        let classes = [
            Adoption::NONE,
            Adoption {
                provider: Some(ProviderId::Cloudflare),
                status: DpsStatus::On,
                rerouting: Some(ReroutingMethod::Ns),
            },
            Adoption {
                provider: Some(ProviderId::Stackpath),
                status: DpsStatus::Off,
                rerouting: Some(ReroutingMethod::Cname),
            },
        ];
        let column = DerivedColumn {
            classes: classes.iter().map(PackedAdoption::pack).collect(),
            multi_cdn: vec![0, 2],
            fleet_sites: vec![1, 1],
            fleet_ns: vec![
                "kate.ns.cloudflare.com".parse().unwrap(),
                "rob.ns.cloudflare.com".parse().unwrap(),
            ],
            incap_tokens: vec![(2, "x7f3.incapdns.net".parse().unwrap())],
        };
        // One three-site block carrying the column above as shard 0.
        let dir = temp_dir("columns");
        let path = dir.join("round.rsnb");
        let block = RecordBlock::from_sites(vec![SiteRecords::default(); 3]);
        let mut writer = SpillWriter::create(
            &path,
            SpillMeta {
                taken_at: SimTime::from_secs(1),
                day: 0,
                sites: 3,
                block_size: 3,
                shard_count: 1,
            },
        )
        .unwrap();
        writer
            .append_block(0, &block, Arc::new(column.clone()))
            .unwrap();
        writer.finish().unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let sources = SpillFile::open(&path).unwrap().sources().unwrap();
        assert_eq!(sources[0].1.derived().as_ref(), &column);
        let read_columns = |bytes: &[u8]| {
            std::fs::write(&path, bytes).unwrap();
            SpillFile::open(&path).unwrap().sources().map(|_| ())
        };

        // The section opens with the file's name table (count word plus
        // three length-prefixed names); the one column follows it, and its
        // first class byte follows the column's shard and site count.
        let (entry, extents) = footer_entries(&bytes)[0];
        let names: usize = ["kate.ns.cloudflare.com", "rob.ns.cloudflare.com"]
            .iter()
            .chain(&["x7f3.incapdns.net"])
            .map(|n| 2 + n.len())
            .sum();
        assert_eq!(extents.column.0 as usize, 4 + names);
        let column_at = offsets(&bytes).0 + extents.column.0 as usize;
        let class_at = column_at + 8;
        let mut bad = bytes.clone();
        bad[class_at] = 0x0F; // provider code 15: no such provider
        assert_eq!(
            read_columns(&bad).unwrap_err(),
            SpillError::CorruptFrame {
                reason: "invalid adoption class"
            }
        );
        // The multi-CDN list follows the classes: point it past the block.
        let mut bad = bytes.clone();
        put_u32_at(&mut bad, class_at + 3 + 4, 5);
        assert!(matches!(
            read_columns(&bad).unwrap_err(),
            SpillError::CorruptFrame { .. }
        ));
        // The fleet pairs follow the multi-CDN list (count word, two
        // sites) and their own count word: a first host id one past the
        // three-name table is named.
        let fleet_id_at = class_at + 3 + 4 + 2 * 4 + 4 + 4;
        let mut bad = bytes.clone();
        put_u32_at(&mut bad, fleet_id_at, 3);
        assert_eq!(
            read_columns(&bad).unwrap_err(),
            SpillError::BadNameIndex { index: 3, table: 3 }
        );
        // A trailing byte the extent covers is rejected: insert it after
        // the column and shift the footer.
        let column_end = column_at + extents.column.1 as usize;
        let mut long = bytes.clone();
        long.insert(column_end, 0);
        put_u32_at(&mut long, entry + 1 + 20, extents.column.1 + 1);
        let trailer_at = long.len() - TRAILER_LEN as usize;
        let footer_offset = offsets(&bytes).1 as u64;
        put_u64_at(&mut long, trailer_at + 8, footer_offset + 1);
        assert_eq!(
            read_columns(&long).unwrap_err(),
            SpillError::CorruptFrame {
                reason: "column has trailing bytes"
            }
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_magic_and_version_are_named() {
        let dir = temp_dir("magic");
        let path = dir.join("round.rsnb");
        let good = write_round(&path, &sample_snapshot(4));
        let mut bytes = good.clone();
        bytes[0] = b'X';
        assert_eq!(read_bytes(&path, &bytes).unwrap_err(), SpillError::BadMagic);
        let mut bytes = good.clone();
        bytes[4] = 0xFF;
        assert!(matches!(
            read_bytes(&path, &bytes).unwrap_err(),
            SpillError::UnsupportedVersion(_)
        ));
        for old in [1u16, 2] {
            let mut bytes = good.clone();
            bytes[4..6].copy_from_slice(&old.to_le_bytes());
            assert_eq!(
                read_bytes(&path, &bytes).unwrap_err(),
                SpillError::UnsupportedVersion(old)
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spill_file_round_trips_per_shard() {
        let snap = sample_snapshot(3);
        let dir = temp_dir("per-shard");
        let path = dir.join("round.rsnb");
        let blocks: Vec<_> = snap.blocks().collect();
        let mut writer = SpillWriter::create(
            &path,
            SpillMeta {
                taken_at: snap.taken_at,
                day: snap.day,
                sites: snap.len() as u64,
                block_size: snap.block_size() as u32,
                shard_count: blocks.len() as u32,
            },
        )
        .unwrap();
        for ((i, loaded), (_, source)) in blocks.iter().enumerate().zip(snap.block_sources()) {
            let derived = Arc::clone(source.derived());
            writer
                .append_block(i as u32, &loaded.block, derived)
                .unwrap();
        }
        let (file, written) = writer.finish().unwrap();
        assert_eq!(file.meta().sites, snap.len() as u64);
        assert_eq!(written.len(), blocks.len());
        let reopened = SpillFile::open(&path).unwrap().sources().unwrap();
        for ((source, (shard, reread)), loaded) in written.iter().zip(&reopened).zip(&blocks) {
            let block = source.spill_ref().unwrap().load().unwrap();
            assert_eq!(&block, loaded.block.as_ref());
            assert_eq!(reread.spill_ref().unwrap().shard(), *shard as usize);
            assert_eq!(reread.derived(), source.derived(), "column read back");
            assert_eq!(reread.load().as_ref(), loaded.block.as_ref());
        }
        // A snapshot assembled purely from spilled sources equals the
        // original.
        let mut b = DnsSnapshot::builder(snap.taken_at, snap.day, snap.block_size());
        for source in written {
            b.push_source(source);
        }
        assert_eq!(b.finish(), snap);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn writer_rejects_duplicate_and_out_of_range_shards() {
        let snap = sample_snapshot(5);
        let dir = temp_dir("dup");
        let path = dir.join("dup.rsnb");
        let (_, source) = snap.block_sources().next().unwrap();
        let (block, derived) = (source.load(), source.derived());
        let mut writer = SpillWriter::create(
            &path,
            SpillMeta {
                taken_at: snap.taken_at,
                day: snap.day,
                sites: snap.len() as u64,
                block_size: 5,
                shard_count: 2,
            },
        )
        .unwrap();
        writer.append_block(0, &block, Arc::clone(derived)).unwrap();
        assert_eq!(
            writer
                .append_block(0, &block, Arc::clone(derived))
                .unwrap_err(),
            SpillError::DuplicateShardFrame { shard: 0 }
        );
        assert_eq!(
            writer
                .append_block(9, &block, Arc::clone(derived))
                .unwrap_err(),
            SpillError::ShardOutOfRange { shard: 9, count: 2 }
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
