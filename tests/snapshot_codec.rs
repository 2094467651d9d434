//! The round-file corpus. Every case writes through the collector's one
//! writer (`SpillWriter`) and reads back through the store's one reader
//! (`SpillFile::open`, its `sources`, then `SpillRef::load` per frame).
//! An intact file reads back exactly: the read snapshot's canonical text
//! dump — the dump the differential tests compare — and derived columns
//! equal the original's, and rewriting it reproduces the file byte for
//! byte. A file damaged on disk — truncated at every byte boundary (the
//! file, the column section on its own, and every column's extent), with
//! corrupted magic/version, an out-of-range name index (in a record
//! frame or the column section), a column extent outside the section, a
//! section offset past the footer, an interned name with one invalid
//! byte, a duplicated shard frame, or a random bit flip — reads back as a
//! typed [`SpillError`], never a panic.

mod support;

use std::fs::OpenOptions;
use std::io::{Seek, SeekFrom, Write};
use std::net::Ipv4Addr;

use proptest::prelude::*;

use remnant::core::snapshot::{DnsSnapshot, SiteRecords};
use remnant::core::spill::SpillError;
use remnant::sim::SimTime;
use std::path::Path;

/// Strategy for syntactically valid domain-name labels.
fn label() -> impl Strategy<Value = String> {
    "[a-z0-9]([a-z0-9-]{0,8}[a-z0-9])?"
}

/// Strategy for 2–4 label domain names.
fn domain_name() -> impl Strategy<Value = String> {
    prop::collection::vec(label(), 2..=4).prop_map(|labels| labels.join("."))
}

/// Domain names that sometimes carry a residual-scan fingerprint, so
/// column sections hold fleet hosts and tokens.
fn fingerprinted_name() -> impl Strategy<Value = String> {
    prop_oneof![
        domain_name(),
        label().prop_map(|l| format!("{l}.ns.cloudflare.com")),
        label().prop_map(|l| format!("{l}.incapdns.net")),
    ]
}

/// Writes `bytes` over the round file at `path` and reads it back.
fn read_bytes(path: &Path, bytes: &[u8]) -> Result<DnsSnapshot, SpillError> {
    std::fs::write(path, bytes).expect("round file writable");
    support::read_round(path)
}

/// A round file's `(section_offset, footer_offset)`, from its trailer
/// (`u64 section_offset, u64 footer_offset, "RSNZ"`).
fn trailer_offsets(binary: &[u8]) -> (usize, usize) {
    let trailer = binary.len() - 20;
    let word = |at: usize| u64::from_le_bytes(binary[at..at + 8].try_into().unwrap()) as usize;
    (word(trailer), word(trailer + 8))
}

/// Every column's `(entry, offset, len)`: the file offset of its footer
/// index entry (`u32 shard, u64 frame_offset, u32 frame_len, u32
/// column_offset, u32 column_len`), and the column's file offset and
/// length (the entry's column offset counts from the section's start).
fn column_extents(binary: &[u8]) -> Vec<(usize, usize, usize)> {
    let (section, footer) = trailer_offsets(binary);
    let word = |at: usize| u32::from_le_bytes(binary[at..at + 4].try_into().unwrap()) as usize;
    (0..word(footer + 4))
        .map(|i| {
            let entry = footer + 8 + i * 24;
            (entry, section + word(entry + 16), word(entry + 20))
        })
        .collect()
}

type SiteSpec = (Vec<u32>, Vec<String>, Vec<String>);

/// Builds a snapshot from generated site specs, with a small block size so
/// multi-block (and thus multi-frame) layouts are exercised.
fn build(taken_at: u64, day: u32, sites: &[SiteSpec]) -> DnsSnapshot {
    let mut builder = DnsSnapshot::builder(SimTime::from_secs(taken_at), day, 3);
    for (a, cnames, ns) in sites {
        builder.push(SiteRecords {
            a: a.iter().copied().map(Ipv4Addr::from).collect(),
            cnames: cnames.iter().map(|n| n.parse().unwrap()).collect(),
            ns: ns.iter().map(|n| n.parse().unwrap()).collect(),
        });
    }
    builder.finish()
}

proptest! {
    #[test]
    fn text_and_binary_codecs_agree(
        taken_at in 0u64..10_000_000,
        day in 0u32..365,
        sites in prop::collection::vec(
            (
                prop::collection::vec(any::<u32>(), 0..4),
                prop::collection::vec(domain_name(), 0..3),
                prop::collection::vec(domain_name(), 0..3),
            ),
            0..10,
        ),
    ) {
        let dir = support::temp_dir("codec-agree");
        let snapshot = build(taken_at, day, &sites);
        let text = snapshot.encode();
        let binary = support::write_round(&dir.join("written.rsnb"), &snapshot);

        // Reading the file back recovers the same value...
        let read = support::read_round(&dir.join("written.rsnb")).expect("own file reads back");
        prop_assert_eq!(&read, &snapshot);
        // ...whose text dump, block layout included, and derived columns
        // are identical, and which rewrites to the same bytes.
        prop_assert_eq!(read.encode(), text);
        prop_assert!(read.derived_columns().eq(snapshot.derived_columns()));
        prop_assert_eq!(support::write_round(&dir.join("rewritten.rsnb"), &read), binary);
    }

    #[test]
    fn truncated_binary_is_a_typed_error_at_every_boundary(
        sites in prop::collection::vec(
            (
                prop::collection::vec(any::<u32>(), 0..3),
                prop::collection::vec(domain_name(), 0..2),
                prop::collection::vec(domain_name(), 0..2),
            ),
            1..6,
        ),
    ) {
        let path = support::temp_dir("codec-truncated").join("round.rsnb");
        let binary = support::write_round(&path, &build(7, 2, &sites));
        let file = OpenOptions::new().write(true).open(&path).expect("round file writable");
        for len in (0..binary.len()).rev() {
            // Every prefix reads back as Err — typed, no panic — because
            // the trailer can never be intact on a strict prefix.
            file.set_len(len as u64).expect("round file truncated");
            prop_assert!(support::read_round(&path).is_err());
        }
    }

    #[test]
    fn column_frame_cut_at_every_byte_is_a_typed_error(
        sites in prop::collection::vec(
            (
                prop::collection::vec(any::<u32>(), 0..3),
                prop::collection::vec(fingerprinted_name(), 0..3),
                prop::collection::vec(fingerprinted_name(), 0..3),
            ),
            1..6,
        ),
    ) {
        let path = support::temp_dir("codec-column-cut").join("round.rsnb");
        let binary = support::write_round(&path, &build(7, 2, &sites));
        let mut file = OpenOptions::new().write(true).open(&path).expect("round file writable");
        for (entry, _, len) in column_extents(&binary) {
            for cut in 0..len {
                // The column's footer extent claims only `cut` bytes: the
                // column ends early while the file around it stays intact.
                file.seek(SeekFrom::Start(entry as u64 + 20))
                    .and_then(|_| file.write_all(&(cut as u32).to_le_bytes()))
                    .expect("extent patched");
                prop_assert!(support::read_round(&path).is_err(), "extent cut at {}", cut);
            }
            file.seek(SeekFrom::Start(entry as u64 + 20))
                .and_then(|_| file.write_all(&binary[entry + 20..entry + 24]))
                .expect("extent restored");
        }
        // The column section cut at every byte: the section's bytes from
        // the cut on are gone, and the footer and trailer follow intact,
        // the trailer's footer offset moved to the cut.
        let (section, footer) = trailer_offsets(&binary);
        for cut in section..footer {
            let mut short = binary[..cut].to_vec();
            short.extend_from_slice(&binary[footer..]);
            let trailer = short.len() - 20;
            short[trailer + 8..trailer + 16].copy_from_slice(&(cut as u64).to_le_bytes());
            prop_assert!(read_bytes(&path, &short).is_err(), "section cut at {}", cut);
        }
    }

    #[test]
    fn bitflipped_binary_never_panics(
        sites in prop::collection::vec(
            (
                prop::collection::vec(any::<u32>(), 0..3),
                prop::collection::vec(domain_name(), 0..2),
                prop::collection::vec(domain_name(), 0..2),
            ),
            1..5,
        ),
        offset in any::<u32>(),
        bit in 0u8..8,
    ) {
        let path = support::temp_dir("codec-bitflip").join("round.rsnb");
        let mut binary = support::write_round(&path, &build(3, 9, &sites));
        let at = offset as usize % binary.len();
        binary[at] ^= 1 << bit;
        // Either the flip landed somewhere immaterial and the round still
        // reads back, or it is rejected with a typed error.
        let _ = read_bytes(&path, &binary);
    }
}

/// One site, no A records, one CNAME, no NS — the smallest frame whose
/// name-table index section has a known offset.
fn one_cname_snapshot() -> DnsSnapshot {
    build(
        1,
        1,
        &[(vec![], vec!["edge.example.com".to_owned()], vec![])],
    )
}

#[test]
fn bad_magic_and_version_are_named() {
    let path = support::temp_dir("codec-magic").join("round.rsnb");
    let good = support::write_round(&path, &one_cname_snapshot());

    let mut bad = good.clone();
    bad[0] = b'X';
    assert!(matches!(read_bytes(&path, &bad), Err(SpillError::BadMagic)));

    let mut bad = good.clone();
    bad[4] = 0xFF; // version word
    assert!(matches!(
        read_bytes(&path, &bad),
        Err(SpillError::UnsupportedVersion(_))
    ));

    // A v1 file (no derived columns) and a v2 file (a column frame after
    // each record frame) are named as such.
    for version in [1u16, 2] {
        let mut old = good.clone();
        old[4..6].copy_from_slice(&version.to_le_bytes());
        assert_eq!(
            read_bytes(&path, &old).unwrap_err(),
            SpillError::UnsupportedVersion(version)
        );
    }
}

#[test]
fn out_of_range_name_index_is_named() {
    let path = support::temp_dir("codec-name-index").join("round.rsnb");
    let mut binary = support::write_round(&path, &one_cname_snapshot());
    // Frame layout after the 36-byte header: u32 frame_len, u32 shard,
    // u32 n_sites, u32 table_count, (u16 len + name bytes), u32 a_count,
    // u32 cname_count, then the first CNAME's table index.
    let name_len = "edge.example.com".len();
    let index_at = 36 + 4 + 4 + 4 + 4 + 2 + name_len + 4 + 4;
    binary[index_at..index_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    match read_bytes(&path, &binary) {
        Err(SpillError::BadNameIndex { index, table }) => {
            assert_eq!(index, u32::MAX);
            assert_eq!(table, 1);
        }
        other => panic!("expected BadNameIndex, got {other:?}"),
    }
}

#[test]
fn column_section_faults_are_named() {
    // One site whose NS host is a Cloudflare fleet candidate: the column
    // section's table holds that one name, and the site's column refers
    // to it.
    let snapshot = build(
        1,
        1,
        &[(vec![], vec![], vec!["kate.ns.cloudflare.com".to_owned()])],
    );
    let path = support::temp_dir("codec-column-section").join("round.rsnb");
    let good = support::write_round(&path, &snapshot);
    let (section, footer) = trailer_offsets(&good);
    assert_eq!(&good[section..section + 4], &1u32.to_le_bytes());
    let (entry, column, _) = column_extents(&good)[0];

    // A column extent reaching past the section.
    let mut bad = good.clone();
    bad[entry + 20..entry + 24].copy_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(
        read_bytes(&path, &bad).unwrap_err(),
        SpillError::CorruptFrame {
            reason: "column extent outside the section"
        }
    );

    // A name id past the file table. The column holds u32 shard, u32
    // n_sites, one class byte, u32 multi-CDN count (0), u32 fleet count
    // (1), then the fleet pair's u32 site and u32 name id.
    let id_at = column + 4 + 4 + 1 + 4 + 4 + 4;
    assert_eq!(&good[id_at..id_at + 4], &0u32.to_le_bytes());
    let mut bad = good.clone();
    bad[id_at..id_at + 4].copy_from_slice(&1u32.to_le_bytes());
    assert_eq!(
        read_bytes(&path, &bad).unwrap_err(),
        SpillError::BadNameIndex { index: 1, table: 1 }
    );

    // A section offset past the footer.
    let mut bad = good;
    let trailer = bad.len() - 20;
    bad[trailer..trailer + 8].copy_from_slice(&(footer as u64 + 1).to_le_bytes());
    assert_eq!(
        read_bytes(&path, &bad).unwrap_err(),
        SpillError::CorruptFrame {
            reason: "column section offset outside the file body"
        }
    );
}

#[test]
fn interned_name_with_one_invalid_byte_is_a_bad_name() {
    let path = support::temp_dir("codec-bad-name").join("round.rsnb");
    // Writing the snapshot interned "edge.example.com"; parsing is
    // hit-first, so the damaged spelling must miss and be validated.
    let mut binary = support::write_round(&path, &one_cname_snapshot());
    let name = "edge.example.com";
    // The frame's one name-table entry follows the 36-byte header and
    // u32 frame_len, shard, n_sites, table_count and u16 entry length.
    let name_at = 36 + 4 + 4 + 4 + 4 + 2;
    assert_eq!(&binary[name_at..name_at + name.len()], name.as_bytes());
    binary[name_at + name.len() - 1] = b'!';
    match read_bytes(&path, &binary) {
        Err(SpillError::BadName(bad)) => assert_eq!(bad, "edge.example.co!"),
        other => panic!("expected BadName, got {other:?}"),
    }
}

#[test]
fn duplicated_shard_frame_is_a_typed_error() {
    // Two shards (block size 3, four sites), then the first frame spliced
    // in twice. The duplicate displaces everything after it, footer
    // included, so the read rejects it as a typed error.
    let snapshot = build(
        5,
        4,
        &[
            (vec![1], vec![], vec![]),
            (vec![2], vec![], vec![]),
            (vec![3], vec![], vec![]),
            (vec![4], vec![], vec![]),
        ],
    );
    let path = support::temp_dir("codec-duplicate").join("round.rsnb");
    let binary = support::write_round(&path, &snapshot);
    let frame_len = u32::from_le_bytes(binary[36..40].try_into().unwrap()) as usize;
    let frame_end = 36 + 4 + frame_len;
    let mut doubled = binary[..frame_end].to_vec();
    doubled.extend_from_slice(&binary[36..frame_end]); // first frame again
    doubled.extend_from_slice(&binary[frame_end..]);
    let err =
        read_bytes(&path, &doubled).expect_err("a displaced duplicate frame must not read back");
    // The error is typed and displayable, never a panic.
    assert!(!err.to_string().is_empty());
}
