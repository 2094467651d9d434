//! Round files for the integration tests: a snapshot written through
//! the collector's one writer and read back through the store's one
//! reader.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use remnant::core::snapshot::{BlockSource, DnsSnapshot};
use remnant::core::spill::{SpillError, SpillFile, SpillMeta, SpillWriter};

/// One scratch directory per test (and per process), created on first use
/// and reused by every case.
pub fn temp_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("remnant-{test}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Writes `snapshot` through [`SpillWriter`] as one round file, one shard
/// per block, and returns the file's bytes.
pub fn write_round(path: &Path, snapshot: &DnsSnapshot) -> Vec<u8> {
    let sources: Vec<BlockSource> = snapshot.block_sources().map(|(_, s)| s).collect();
    let mut writer = SpillWriter::create(
        path,
        SpillMeta {
            taken_at: snapshot.taken_at,
            day: snapshot.day,
            sites: snapshot.len() as u64,
            block_size: snapshot.block_size() as u32,
            shard_count: sources.len() as u32,
        },
    )
    .expect("round file created");
    for (shard, source) in sources.iter().enumerate() {
        writer
            .append_block(shard as u32, &source.load(), Arc::clone(source.derived()))
            .expect("block appended");
    }
    writer.finish().expect("round file finished");
    std::fs::read(path).expect("round file readable")
}

/// Reads a round file the production way — [`SpillFile::open`], its
/// sources, then every record frame through `SpillRef::load` — into a
/// snapshot.
pub fn read_round(path: &Path) -> Result<DnsSnapshot, SpillError> {
    let file = SpillFile::open(path)?;
    let meta = file.meta();
    let mut builder = DnsSnapshot::builder(meta.taken_at, meta.day, meta.block_size as usize);
    for (_, source) in file.sources()? {
        source
            .spill_ref()
            .expect("a read source is spilled")
            .load()?;
        builder.push_source(source);
    }
    Ok(builder.finish())
}
