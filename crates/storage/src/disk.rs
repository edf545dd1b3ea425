//! Disk managers: where pages live when they are not in the buffer pool.
//!
//! A disk holds page *files*: each file numbers its blocks densely from 0
//! (a [`PageId`] is a file id and a block). Heap partitions get a file each
//! and B+trees share file 0, so a heap page's id depends only on its table,
//! partition and position — not on what else the disk holds.
//!
//! Two implementations share the [`DiskManager`] trait: [`MemDisk`] (a page
//! vector per file, with optional *simulated* per-I/O latency so experiments
//! can make a workload I/O-bound deterministically — DESIGN.md §4,
//! substitution 3) and [`FileDisk`] (a real file holding file 0 only, which
//! is what a WAL segment needs). Both count reads and writes; the Figure 2
//! calibration and the stage monitors consume those counters.

use crate::error::{StorageError, StorageResult};
use crate::page::{PageId, PAGE_SIZE};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// I/O counters of a disk manager.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Pages read.
    pub reads: u64,
    /// Pages written.
    pub writes: u64,
    /// Pages allocated.
    pub allocations: u64,
    /// Durability syncs (`fsync`-class barriers; counted even where the
    /// barrier itself is a no-op, as on [`MemDisk`]).
    pub syncs: u64,
}

impl IoStats {
    /// Fold another counter snapshot into this one (used by segment stores
    /// to keep totals across deleted segments).
    pub fn absorb(&mut self, other: &IoStats) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.allocations += other.allocations;
        self.syncs += other.syncs;
    }
}

/// Abstract page store.
pub trait DiskManager: Send + Sync {
    /// Allocate a fresh (zeroed) page at the end of `file` and return its
    /// id: each file's blocks are numbered densely from 0.
    fn allocate(&self, file: u32) -> StorageResult<PageId>;

    /// Read a page into `buf` (`buf.len() == PAGE_SIZE`).
    fn read_page(&self, page: PageId, buf: &mut [u8]) -> StorageResult<()>;

    /// Write a page from `buf`.
    fn write_page(&self, page: PageId, buf: &[u8]) -> StorageResult<()>;

    /// Number of allocated pages, across all files.
    fn num_pages(&self) -> u64;

    /// Force previously written pages to stable storage (a durability
    /// barrier). A page write alone only reaches the OS page cache on a
    /// real file; the WAL's commit protocol is a lie without this. In-memory
    /// disks count the call and return; [`FileDisk`] issues `sync_data`.
    fn sync(&self) -> StorageResult<()>;

    /// I/O counters.
    fn stats(&self) -> IoStats;

    /// Simulated or real expected per-I/O latency, if any (used by stage
    /// logic to report I/O-blocked time to the monitors).
    fn io_latency(&self) -> Option<Duration> {
        None
    }
}

struct Counters {
    reads: AtomicU64,
    writes: AtomicU64,
    allocations: AtomicU64,
    syncs: AtomicU64,
}

impl Counters {
    fn new() -> Self {
        Self {
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            allocations: AtomicU64::new(0),
            syncs: AtomicU64::new(0),
        }
    }

    fn snapshot(&self) -> IoStats {
        IoStats {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            allocations: self.allocations.load(Ordering::Relaxed),
            syncs: self.syncs.load(Ordering::Relaxed),
        }
    }
}

type Page = Box<[u8; PAGE_SIZE]>;

/// In-memory disk with optional simulated latency and a capacity limit.
pub struct MemDisk {
    files: Mutex<BTreeMap<u32, Vec<Page>>>,
    counters: Counters,
    latency: Option<Duration>,
    max_pages: u64,
}

impl MemDisk {
    /// Unlimited in-memory disk with no latency.
    pub fn new() -> Self {
        Self {
            files: Mutex::new(BTreeMap::new()),
            counters: Counters::new(),
            latency: None,
            max_pages: u64::MAX,
        }
    }

    /// Add a simulated latency applied to every read and write (a real
    /// `sleep`, making I/O-bound workloads behave as such in wall-clock
    /// experiments).
    pub fn with_latency(mut self, latency: Duration) -> Self {
        self.latency = Some(latency);
        self
    }

    /// Cap the disk at `max_pages`, counted across all files (allocation
    /// beyond it fails with [`StorageError::DiskFull`] — used by
    /// failure-injection tests).
    pub fn with_capacity(mut self, max_pages: u64) -> Self {
        self.max_pages = max_pages;
        self
    }

    fn pause(&self) {
        if let Some(l) = self.latency {
            std::thread::sleep(l);
        }
    }
}

impl Default for MemDisk {
    fn default() -> Self {
        Self::new()
    }
}

impl DiskManager for MemDisk {
    fn allocate(&self, file: u32) -> StorageResult<PageId> {
        let mut files = self.files.lock();
        if files.values().map(|f| f.len() as u64).sum::<u64>() >= self.max_pages {
            return Err(StorageError::DiskFull);
        }
        let pages = files.entry(file).or_default();
        pages.push(Box::new([0u8; PAGE_SIZE]));
        self.counters.allocations.fetch_add(1, Ordering::Relaxed);
        Ok(PageId::new(file, pages.len() as u32 - 1))
    }

    fn read_page(&self, page: PageId, buf: &mut [u8]) -> StorageResult<()> {
        self.pause();
        let files = self.files.lock();
        let src = files.get(&page.file()).and_then(|f| f.get(page.block() as usize));
        buf.copy_from_slice(&src.ok_or(StorageError::InvalidPage(page))?[..]);
        self.counters.reads.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn write_page(&self, page: PageId, buf: &[u8]) -> StorageResult<()> {
        self.pause();
        let mut files = self.files.lock();
        let dst = files.get_mut(&page.file()).and_then(|f| f.get_mut(page.block() as usize));
        dst.ok_or(StorageError::InvalidPage(page))?.copy_from_slice(buf);
        self.counters.writes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn num_pages(&self) -> u64 {
        self.files.lock().values().map(|f| f.len() as u64).sum()
    }

    fn sync(&self) -> StorageResult<()> {
        // Memory is "stable" by definition here; only the counter matters,
        // so tests can assert the commit protocol issues its barriers.
        self.counters.syncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn stats(&self) -> IoStats {
        self.counters.snapshot()
    }

    fn io_latency(&self) -> Option<Duration> {
        self.latency
    }
}

/// File-backed disk manager. It holds file 0 only (its one user is a WAL
/// segment) and refuses to allocate in any other file.
pub struct FileDisk {
    file: Mutex<File>,
    num_pages: AtomicU64,
    counters: Counters,
}

impl FileDisk {
    /// Open (or create) a database file.
    pub fn open(path: impl AsRef<Path>) -> StorageResult<Self> {
        // Never truncate: opening an existing database must keep its pages.
        let file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(path)?;
        let len = file.metadata()?.len();
        Ok(Self {
            file: Mutex::new(file),
            num_pages: AtomicU64::new(len / PAGE_SIZE as u64),
            counters: Counters::new(),
        })
    }
}

impl DiskManager for FileDisk {
    fn allocate(&self, file: u32) -> StorageResult<PageId> {
        if file != 0 {
            return Err(StorageError::InvalidPage(PageId::new(file, 0)));
        }
        let id = self.num_pages.fetch_add(1, Ordering::SeqCst);
        let mut f = self.file.lock();
        f.seek(SeekFrom::Start(id * PAGE_SIZE as u64))?;
        f.write_all(&[0u8; PAGE_SIZE])?;
        self.counters.allocations.fetch_add(1, Ordering::Relaxed);
        Ok(PageId(id))
    }

    fn read_page(&self, page: PageId, buf: &mut [u8]) -> StorageResult<()> {
        if page.0 >= self.num_pages.load(Ordering::SeqCst) {
            return Err(StorageError::InvalidPage(page));
        }
        let mut f = self.file.lock();
        f.seek(SeekFrom::Start(page.0 * PAGE_SIZE as u64))?;
        f.read_exact(buf)?;
        self.counters.reads.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn write_page(&self, page: PageId, buf: &[u8]) -> StorageResult<()> {
        if page.0 >= self.num_pages.load(Ordering::SeqCst) {
            return Err(StorageError::InvalidPage(page));
        }
        let mut f = self.file.lock();
        f.seek(SeekFrom::Start(page.0 * PAGE_SIZE as u64))?;
        f.write_all(buf)?;
        self.counters.writes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn num_pages(&self) -> u64 {
        self.num_pages.load(Ordering::SeqCst)
    }

    fn sync(&self) -> StorageResult<()> {
        self.file.lock().sync_data()?;
        self.counters.syncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn stats(&self) -> IoStats {
        self.counters.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(disk: &dyn DiskManager) {
        let p = disk.allocate(0).unwrap();
        let mut w = [0u8; PAGE_SIZE];
        w[0] = 0xAB;
        w[PAGE_SIZE - 1] = 0xCD;
        disk.write_page(p, &w).unwrap();
        let mut r = [0u8; PAGE_SIZE];
        disk.read_page(p, &mut r).unwrap();
        assert_eq!(r[0], 0xAB);
        assert_eq!(r[PAGE_SIZE - 1], 0xCD);
        disk.sync().unwrap();
        let s = disk.stats();
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 1);
        assert_eq!(s.allocations, 1);
        assert_eq!(s.syncs, 1);
    }

    #[test]
    fn mem_disk_roundtrip() {
        roundtrip(&MemDisk::new());
    }

    #[test]
    fn file_disk_roundtrip() {
        let dir = std::env::temp_dir().join(format!("staged-db-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("disk-roundtrip.db");
        let _ = std::fs::remove_file(&path);
        roundtrip(&FileDisk::open(&path).unwrap());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_disk_persists_across_reopen() {
        let dir = std::env::temp_dir().join(format!("staged-db-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("disk-reopen.db");
        let _ = std::fs::remove_file(&path);
        {
            let d = FileDisk::open(&path).unwrap();
            let p = d.allocate(0).unwrap();
            let mut w = [0u8; PAGE_SIZE];
            w[7] = 42;
            d.write_page(p, &w).unwrap();
        }
        let d2 = FileDisk::open(&path).unwrap();
        assert_eq!(d2.num_pages(), 1);
        let mut r = [0u8; PAGE_SIZE];
        d2.read_page(PageId(0), &mut r).unwrap();
        assert_eq!(r[7], 42);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn invalid_page_is_error() {
        let d = MemDisk::new();
        let mut buf = [0u8; PAGE_SIZE];
        assert!(d.read_page(PageId(0), &mut buf).is_err());
        assert!(d.write_page(PageId(5), &buf).is_err());
    }

    #[test]
    fn file_disk_refuses_a_nonzero_file() {
        let dir = std::env::temp_dir().join(format!("staged-db-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("disk-file-ids.db");
        let _ = std::fs::remove_file(&path);
        let d = FileDisk::open(&path).unwrap();
        assert!(matches!(d.allocate(3), Err(StorageError::InvalidPage(p)) if p.file() == 3));
        assert_eq!(d.num_pages(), 0, "a refused allocation writes nothing");
        assert_eq!(d.allocate(0).unwrap(), PageId::new(0, 0));
        let mut buf = [0u8; PAGE_SIZE];
        assert!(d.read_page(PageId::new(3, 0), &mut buf).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mem_disk_numbers_blocks_densely_per_file() {
        let d = MemDisk::new();
        assert_eq!(d.allocate(7).unwrap(), PageId::new(7, 0));
        assert_eq!(d.allocate(0).unwrap(), PageId::new(0, 0));
        assert_eq!(d.allocate(7).unwrap(), PageId::new(7, 1));
        assert_eq!(d.allocate(0).unwrap(), PageId::new(0, 1));
        assert_eq!(d.num_pages(), 4);
        let mut w = [0u8; PAGE_SIZE];
        w[0] = 9;
        d.write_page(PageId::new(7, 1), &w).unwrap();
        let mut r = [0u8; PAGE_SIZE];
        d.read_page(PageId::new(0, 1), &mut r).unwrap();
        assert_eq!(r[0], 0, "files do not share blocks");
        d.read_page(PageId::new(7, 1), &mut r).unwrap();
        assert_eq!(r[0], 9);
        assert!(d.read_page(PageId::new(7, 2), &mut r).is_err());
        assert!(d.read_page(PageId::new(8, 0), &mut r).is_err());
    }

    #[test]
    fn capacity_limit_reports_disk_full() {
        let d = MemDisk::new().with_capacity(3);
        d.allocate(0).unwrap();
        d.allocate(256).unwrap();
        d.allocate(257).unwrap();
        assert!(matches!(d.allocate(0), Err(StorageError::DiskFull)), "counted across files");
        assert!(matches!(d.allocate(258), Err(StorageError::DiskFull)));
    }

    #[test]
    fn latency_is_reported() {
        let d = MemDisk::new().with_latency(Duration::from_micros(50));
        assert_eq!(d.io_latency(), Some(Duration::from_micros(50)));
    }
}
