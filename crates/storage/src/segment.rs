//! WAL segment stores: an ordered family of page stores the log rotates
//! through.
//!
//! The segmented WAL (see [`crate::wal`]) never edits a segment after it
//! rotates past it, so truncating the log below a checkpoint LSN is just
//! *deleting whole segment files* — no compaction, no rewrite. The store
//! abstracts where those segments live: [`MemSegmentStore`] keeps them as
//! [`MemDisk`]s (tests, benches, crash simulation by byte-editing pages),
//! [`FileSegmentStore`] as `wal-NNNNNNNN.seg` files in a directory.
//!
//! I/O counters are aggregated across *live and deleted* segments
//! ([`SegmentStore::io_stats`]): recovery tests rely on "replaying the
//! tail read strictly fewer pages than replaying history" staying
//! measurable after the history has been truncated away.

use crate::disk::{DiskManager, FileDisk, IoStats, MemDisk};
use crate::error::{StorageError, StorageResult};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// A factory and directory of WAL segments, addressed by a dense `u64` id.
pub trait SegmentStore: Send + Sync {
    /// Open segment `id` as a page store, creating it empty if absent.
    /// Opening the same id twice returns the same underlying storage.
    fn open(&self, id: u64) -> StorageResult<Arc<dyn DiskManager>>;

    /// Delete segment `id` permanently. Its I/O counters are folded into
    /// [`io_stats`](Self::io_stats) before it goes.
    fn delete(&self, id: u64) -> StorageResult<()>;

    /// Sorted ids of the segments that currently exist.
    fn list(&self) -> StorageResult<Vec<u64>>;

    /// Aggregated I/O counters: every live segment plus everything deleted
    /// segments accumulated while they were alive.
    fn io_stats(&self) -> IoStats;
}

/// In-memory segment store: one [`MemDisk`] per segment.
pub struct MemSegmentStore {
    segments: Mutex<BTreeMap<u64, Arc<MemDisk>>>,
    retired: Mutex<IoStats>,
    latency: Option<Duration>,
}

impl MemSegmentStore {
    /// An empty in-memory store.
    pub fn new() -> Self {
        Self {
            segments: Mutex::new(BTreeMap::new()),
            retired: Mutex::new(IoStats::default()),
            latency: None,
        }
    }

    /// Apply a simulated per-I/O latency to every segment created from now
    /// on (mirrors [`MemDisk::with_latency`] for I/O-bound experiments).
    pub fn with_latency(mut self, latency: Duration) -> Self {
        self.latency = Some(latency);
        self
    }

    /// The raw [`MemDisk`] behind segment `id`, if it exists — used by
    /// crash-simulation tests to corrupt or truncate pages directly.
    pub fn disk(&self, id: u64) -> Option<Arc<MemDisk>> {
        self.segments.lock().get(&id).cloned()
    }
}

impl Default for MemSegmentStore {
    fn default() -> Self {
        Self::new()
    }
}

impl SegmentStore for MemSegmentStore {
    fn open(&self, id: u64) -> StorageResult<Arc<dyn DiskManager>> {
        let mut segs = self.segments.lock();
        let disk = segs
            .entry(id)
            .or_insert_with(|| {
                let d = match self.latency {
                    Some(l) => MemDisk::new().with_latency(l),
                    None => MemDisk::new(),
                };
                Arc::new(d)
            })
            .clone();
        Ok(disk)
    }

    fn delete(&self, id: u64) -> StorageResult<()> {
        let disk = self
            .segments
            .lock()
            .remove(&id)
            .ok_or_else(|| StorageError::NotFound(format!("wal segment {id}")))?;
        self.retired.lock().absorb(&disk.stats());
        Ok(())
    }

    fn list(&self) -> StorageResult<Vec<u64>> {
        Ok(self.segments.lock().keys().copied().collect())
    }

    fn io_stats(&self) -> IoStats {
        let mut total = *self.retired.lock();
        for disk in self.segments.lock().values() {
            total.absorb(&disk.stats());
        }
        total
    }
}

/// File-backed segment store: `wal-NNNNNNNN.seg` files under one directory.
pub struct FileSegmentStore {
    dir: PathBuf,
    open_segments: Mutex<BTreeMap<u64, Arc<FileDisk>>>,
    retired: Mutex<IoStats>,
}

impl FileSegmentStore {
    /// Open (creating if needed) a segment directory.
    pub fn open(dir: impl AsRef<Path>) -> StorageResult<Self> {
        std::fs::create_dir_all(dir.as_ref())?;
        Ok(Self {
            dir: dir.as_ref().to_path_buf(),
            open_segments: Mutex::new(BTreeMap::new()),
            retired: Mutex::new(IoStats::default()),
        })
    }

    fn segment_path(&self, id: u64) -> PathBuf {
        self.dir.join(format!("wal-{id:08}.seg"))
    }

    fn parse_segment_name(name: &str) -> Option<u64> {
        name.strip_prefix("wal-")?.strip_suffix(".seg")?.parse().ok()
    }
}

impl SegmentStore for FileSegmentStore {
    fn open(&self, id: u64) -> StorageResult<Arc<dyn DiskManager>> {
        let mut segs = self.open_segments.lock();
        if let Some(d) = segs.get(&id) {
            return Ok(Arc::clone(d) as Arc<dyn DiskManager>);
        }
        let disk = Arc::new(FileDisk::open(self.segment_path(id))?);
        segs.insert(id, Arc::clone(&disk));
        Ok(disk)
    }

    fn delete(&self, id: u64) -> StorageResult<()> {
        if let Some(disk) = self.open_segments.lock().remove(&id) {
            self.retired.lock().absorb(&disk.stats());
        }
        let path = self.segment_path(id);
        if !path.exists() {
            return Err(StorageError::NotFound(format!("wal segment {id}")));
        }
        std::fs::remove_file(path)?;
        Ok(())
    }

    fn list(&self) -> StorageResult<Vec<u64>> {
        let mut ids = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            if let Some(id) = entry.file_name().to_str().and_then(Self::parse_segment_name) {
                ids.push(id);
            }
        }
        ids.sort_unstable();
        Ok(ids)
    }

    fn io_stats(&self) -> IoStats {
        let mut total = *self.retired.lock();
        for disk in self.open_segments.lock().values() {
            total.absorb(&disk.stats());
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::{PageId, PAGE_SIZE};

    #[test]
    fn mem_store_lists_and_deletes() {
        let s = MemSegmentStore::new();
        s.open(0).unwrap();
        s.open(2).unwrap();
        s.open(1).unwrap();
        assert_eq!(s.list().unwrap(), vec![0, 1, 2]);
        s.delete(1).unwrap();
        assert_eq!(s.list().unwrap(), vec![0, 2]);
        assert!(matches!(s.delete(1), Err(StorageError::NotFound(_))));
    }

    #[test]
    fn mem_store_stats_survive_deletion() {
        let s = MemSegmentStore::new();
        let d = s.open(0).unwrap();
        d.allocate(0).unwrap();
        d.write_page(PageId(0), &[0u8; PAGE_SIZE]).unwrap();
        d.sync().unwrap();
        let before = s.io_stats();
        s.delete(0).unwrap();
        assert_eq!(s.io_stats(), before, "deleting a segment must not lose its counters");
        assert_eq!(before.writes, 1);
        assert_eq!(before.syncs, 1);
    }

    #[test]
    fn file_store_roundtrip() {
        let dir = std::env::temp_dir().join(format!(
            "staged-db-segstore-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let s = FileSegmentStore::open(&dir).unwrap();
        let d = s.open(3).unwrap();
        let p = d.allocate(0).unwrap();
        let mut page = [0u8; PAGE_SIZE];
        page[17] = 0xEE;
        d.write_page(p, &page).unwrap();
        d.sync().unwrap();
        assert_eq!(s.list().unwrap(), vec![3]);
        // Reopen from disk: the segment file is found again.
        drop(s);
        let s2 = FileSegmentStore::open(&dir).unwrap();
        assert_eq!(s2.list().unwrap(), vec![3]);
        let d2 = s2.open(3).unwrap();
        let mut back = [0u8; PAGE_SIZE];
        d2.read_page(PageId(0), &mut back).unwrap();
        assert_eq!(back[17], 0xEE);
        s2.delete(3).unwrap();
        assert!(s2.list().unwrap().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
