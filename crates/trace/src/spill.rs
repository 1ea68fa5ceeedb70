//! Out-of-core shard partitioning: spilling per-shard sub-streams to disk.
//!
//! [`crate::shard::ShardedSoa`] partitions an in-memory stream for
//! parallel replay. For traces larger than RAM that in-memory build is
//! exactly what streaming replay must avoid, so [`spill_shards`] performs
//! the same partition in one bounded-memory pass over a
//! [`ChunkSource`](crate::chunk::ChunkSource): every record is routed to
//! its shard and appended to that shard's temp file together with its
//! shard-local dense block id and its 1-based global reference number —
//! what a [`Shard`](crate::shard::Shard) entry carries, plus the record
//! itself. The partition rules are identical by construction:
//!
//! * data records go to `route(record, global_id)`, which must be a pure
//!   function of the block;
//! * instruction fetches are dealt round-robin by global record index;
//! * shard-local ids are assigned in first-appearance order within the
//!   shard, and each shard keeps a `global_ids` inversion table;
//! * global reference numbers are strictly increasing within a shard, so
//!   they are stored as deltas (LEB128, always ≥ 1).
//!
//! Only the interner and the per-block `owner`/`local` tables are held in
//! memory — proportional to *distinct blocks*, not trace length. The spill
//! files are deleted when the [`SpilledShards`] value drops.
//!
//! # Spill-file entry format (internal, not a stable on-disk format)
//!
//! ```text
//! tag        u8      kind in bits 0-1, flags in bits 4-5
//! cpu        LEB128
//! pid        LEB128
//! addr       LEB128  raw address
//! local id   LEB128  shard-local dense block id (0 for instr fetches)
//! gref delta LEB128  this gref minus the previous entry's gref (≥ 1)
//! ```

use crate::chunk::ChunkSource;
use crate::codec::{kind_from_byte, kind_to_byte, read_leb128, write_leb128};
use crate::intern::BlockInterner;
use crate::record::{RecordFlags, TraceRecord};
use dircc_types::{Address, BlockGeometry, CpuId, ProcessId};
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// One spilled shard: a temp file of routed records plus the metadata
/// parallel replay needs to size and report on its protocol instance.
#[derive(Debug)]
pub struct SpilledShard {
    path: PathBuf,
    /// Distinct data blocks routed to this shard.
    pub num_blocks: usize,
    /// Maps each shard-local dense id back to the stream's global dense id.
    pub global_ids: Vec<u32>,
    /// Records routed to this shard.
    pub records: u64,
}

impl SpilledShard {
    /// Opens the shard's spill file for streaming replay.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors opening the file.
    pub fn entries(&self) -> io::Result<SpilledEntries> {
        Ok(SpilledEntries {
            inner: BufReader::new(File::open(&self.path)?),
            gref: 0,
            remaining: self.records,
        })
    }
}

/// A full out-of-core partition: per-shard spill files plus totals.
#[derive(Debug)]
pub struct SpilledShards {
    shards: Vec<SpilledShard>,
    total_records: u64,
    total_blocks: usize,
}

impl SpilledShards {
    /// The shards, in shard-index order.
    pub fn shards(&self) -> &[SpilledShard] {
        &self.shards
    }

    /// Number of shards (as requested at spill time).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total records across all shards (= the input stream's length).
    pub fn total_records(&self) -> u64 {
        self.total_records
    }

    /// Total distinct data blocks across all shards.
    pub fn total_blocks(&self) -> usize {
        self.total_blocks
    }
}

impl Drop for SpilledShards {
    fn drop(&mut self) {
        for s in &self.shards {
            let _ = std::fs::remove_file(&s.path);
        }
    }
}

/// Partitions a streamed trace into `shards` spill files under `dir`
/// (which must exist), interning blocks with `geometry` on the fly.
/// `route(record, global_id)` is called for every *data* record and must
/// return the same shard for every occurrence of a block; instruction
/// fetches are dealt round-robin by global record index — both exactly as
/// [`ShardedSoa::build`](crate::shard::ShardedSoa::build) does, so spilled
/// replay merges bit-identically with the in-memory path.
///
/// # Errors
///
/// Propagates I/O errors from the source and the spill files. On error
/// every spill file this call created is removed again.
///
/// # Panics
///
/// Panics if `shards` is zero, the router returns an out-of-range shard,
/// or the router is not a pure function of the block.
pub fn spill_shards<S, F>(
    source: &mut S,
    geometry: BlockGeometry,
    shards: usize,
    dir: &Path,
    mut route: F,
) -> io::Result<SpilledShards>
where
    S: ChunkSource,
    F: FnMut(&TraceRecord, u32) -> usize,
{
    assert!(shards >= 1, "need at least one shard");
    struct Building {
        writer: BufWriter<File>,
        num_blocks: usize,
        global_ids: Vec<u32>,
        records: u64,
        last_gref: u64,
    }
    let paths: Vec<PathBuf> = (0..shards).map(|s| dir.join(format!("shard{s}.dccs"))).collect();
    // Cleanup guard, armed before the first file exists: on any error
    // path below it removes exactly the files this call created.
    struct RemoveOnDrop<'a> {
        paths: &'a [PathBuf],
        created: usize,
        armed: bool,
    }
    impl Drop for RemoveOnDrop<'_> {
        fn drop(&mut self) {
            if self.armed {
                for p in &self.paths[..self.created] {
                    let _ = std::fs::remove_file(p);
                }
            }
        }
    }
    let mut guard = RemoveOnDrop { paths: &paths, created: 0, armed: true };
    let mut out: Vec<Building> = Vec::with_capacity(shards);
    for p in &paths {
        out.push(Building {
            writer: BufWriter::new(File::create(p)?),
            num_blocks: 0,
            global_ids: Vec::new(),
            records: 0,
            last_gref: 0,
        });
        guard.created += 1;
    }

    const UNSEEN: u32 = u32::MAX;
    let mut interner = BlockInterner::new(geometry);
    let mut local: Vec<u32> = Vec::new();
    let mut owner: Vec<u32> = Vec::new();
    let mut buf: Vec<TraceRecord> = Vec::new();
    let mut index = 0u64;
    while source.next_chunk(&mut buf)? {
        for r in &buf {
            let gref = index + 1;
            let (s, lid) = if r.is_data() {
                let (gid, first) = interner.intern(geometry.block_of(r.addr));
                if first {
                    local.push(UNSEEN);
                    owner.push(UNSEEN);
                }
                let gid_us = gid as usize;
                let s = route(r, gid);
                assert!(s < shards, "router sent block {gid} to shard {s} of {shards}");
                if owner[gid_us] == UNSEEN {
                    owner[gid_us] = s as u32;
                    local[gid_us] =
                        u32::try_from(out[s].num_blocks).expect("more than u32::MAX shard blocks");
                    out[s].global_ids.push(gid);
                    out[s].num_blocks += 1;
                } else {
                    assert_eq!(
                        owner[gid_us], s as u32,
                        "router must be a pure function of the block (block {gid})"
                    );
                }
                (s, local[gid_us])
            } else {
                ((index % shards as u64) as usize, 0)
            };
            let b = &mut out[s];
            let tag = kind_to_byte(r.kind) | (r.flags.bits() << 4);
            b.writer.write_all(&[tag])?;
            write_leb128(&mut b.writer, u64::from(r.cpu.raw()))?;
            write_leb128(&mut b.writer, u64::from(r.pid.raw()))?;
            write_leb128(&mut b.writer, r.addr.raw())?;
            write_leb128(&mut b.writer, u64::from(lid))?;
            write_leb128(&mut b.writer, gref - b.last_gref)?;
            b.last_gref = gref;
            b.records += 1;
            index += 1;
        }
    }
    let mut shards_out = Vec::with_capacity(shards);
    for (b, p) in out.into_iter().zip(paths.iter()) {
        b.writer.into_inner().map_err(|e| e.into_error())?.sync_data().ok();
        shards_out.push(SpilledShard {
            path: p.clone(),
            num_blocks: b.num_blocks,
            global_ids: b.global_ids,
            records: b.records,
        });
    }
    guard.armed = false;
    Ok(SpilledShards {
        shards: shards_out,
        total_records: index,
        total_blocks: interner.num_blocks(),
    })
}

/// One decoded spill-file entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpilledEntry {
    /// The trace record, exactly as routed.
    pub record: TraceRecord,
    /// Shard-local dense block id (0 for instruction fetches).
    pub local_id: u32,
    /// 1-based global reference number.
    pub gref: u64,
}

/// Streaming iterator over one shard's spill file.
#[derive(Debug)]
pub struct SpilledEntries {
    inner: BufReader<File>,
    gref: u64,
    remaining: u64,
}

impl SpilledEntries {
    fn read_entry(&mut self) -> io::Result<Option<SpilledEntry>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        let mut tag = [0u8; 1];
        self.inner.read_exact(&mut tag)?;
        let tag = tag[0];
        let kind = kind_from_byte(tag & 0x03).ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, "bad access kind in spill entry")
        })?;
        let flags = RecordFlags::from_bits_checked(tag >> 4).ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, "bad flag bits in spill entry")
        })?;
        let cpu = read_leb128(&mut self.inner)?;
        let pid = read_leb128(&mut self.inner)?;
        let addr = read_leb128(&mut self.inner)?;
        let lid = read_leb128(&mut self.inner)?;
        let delta = read_leb128(&mut self.inner)?;
        let narrow = |v: u64, what: &str| {
            u16::try_from(v).map_err(|_| {
                io::Error::new(io::ErrorKind::InvalidData, format!("{what} overflows u16"))
            })
        };
        if delta == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "non-increasing gref in spill entry",
            ));
        }
        let lid = u32::try_from(lid)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "local id overflows u32"))?;
        self.gref += delta;
        self.remaining -= 1;
        Ok(Some(SpilledEntry {
            record: TraceRecord {
                cpu: CpuId::new(narrow(cpu, "cpu id")?),
                pid: ProcessId::new(narrow(pid, "pid")?),
                kind,
                addr: Address::new(addr),
                flags,
            },
            local_id: lid,
            gref: self.gref,
        }))
    }
}

impl Iterator for SpilledEntries {
    type Item = io::Result<SpilledEntry>;

    fn next(&mut self) -> Option<io::Result<SpilledEntry>> {
        self.read_entry().transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::SliceChunks;
    use crate::gen::{Generator, Profile};
    use crate::shard::ShardedSoa;
    use crate::soa::SoaStream;
    use dircc_types::SharingModel;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dircc_spill_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn stream() -> Vec<TraceRecord> {
        Generator::new(Profile::pops().with_total_refs(4_000), 5).collect()
    }

    #[test]
    fn spilled_partition_matches_in_memory_sharding() {
        let records = stream();
        let geometry = BlockGeometry::PAPER;
        let (interner, dense) = BlockInterner::intern_stream(&records, geometry);
        let dir = tmpdir("match");
        let soa = SoaStream::build(&records, &dense, interner.num_blocks(), SharingModel::Process);
        for shards in [1, 2, 3, 8] {
            let mem = ShardedSoa::build(&soa, shards, |_, gid| gid as usize % shards);
            let mut source = SliceChunks::new(&records[..], 257);
            let spilled =
                spill_shards(&mut source, geometry, shards, &dir, |_, gid| gid as usize % shards)
                    .unwrap();
            assert_eq!(spilled.num_shards(), shards);
            assert_eq!(spilled.total_records(), records.len() as u64);
            assert_eq!(spilled.total_blocks(), interner.num_blocks());
            for (sp, sh) in spilled.shards().iter().zip(mem.shards()) {
                assert_eq!(sp.global_ids, sh.global_ids);
                assert_eq!(sp.num_blocks, sh.soa.num_blocks);
                assert_eq!(sp.records, sh.soa.len() as u64);
                let entries: Vec<SpilledEntry> =
                    sp.entries().unwrap().collect::<io::Result<_>>().unwrap();
                assert_eq!(entries.len(), sh.soa.len());
                for (j, e) in entries.iter().enumerate() {
                    assert_eq!(e.gref, sh.global_refs[j]);
                    assert_eq!(e.record, records[(e.gref - 1) as usize]);
                    if e.record.is_data() {
                        assert_eq!(e.local_id, sh.soa.block_id[j]);
                    }
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spill_files_are_removed_on_drop() {
        let records = stream();
        let dir = tmpdir("drop");
        let mut source = SliceChunks::new(&records[..], 1024);
        let spilled =
            spill_shards(&mut source, BlockGeometry::PAPER, 3, &dir, |_, gid| gid as usize % 3)
                .unwrap();
        let paths: Vec<PathBuf> = spilled.shards().iter().map(|s| s.path.clone()).collect();
        assert!(paths.iter().all(|p| p.exists()));
        drop(spilled);
        assert!(paths.iter().all(|p| !p.exists()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_spill_removes_the_files_it_created() {
        let records = stream();
        let dir = tmpdir("create_fails");
        // shard1.dccs cannot be created over a directory: the call fails
        // after shard0.dccs exists, and must take shard0.dccs with it.
        std::fs::create_dir_all(dir.join("shard1.dccs")).unwrap();
        let mut source = SliceChunks::new(&records[..], 1024);
        let res =
            spill_shards(&mut source, BlockGeometry::PAPER, 3, &dir, |_, gid| gid as usize % 3);
        assert!(res.is_err(), "creating shard1.dccs must fail");
        assert!(!dir.join("shard0.dccs").exists(), "shard0.dccs leaked");
        assert!(!dir.join("shard2.dccs").exists());
        assert!(dir.join("shard1.dccs").is_dir(), "a path it did not create is left alone");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[should_panic(expected = "pure function")]
    fn inconsistent_router_is_rejected() {
        let records = stream();
        let dir = tmpdir("impure");
        let mut source = SliceChunks::new(&records[..], 1024);
        let mut flip = 0usize;
        let _ = spill_shards(&mut source, BlockGeometry::PAPER, 2, &dir, |_, _| {
            flip += 1;
            flip % 2
        });
    }
}
