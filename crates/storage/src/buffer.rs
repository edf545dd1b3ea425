//! Buffer pool with clock (second-chance) replacement.
//!
//! One pool is shared by every stage of the server — the "unified buffer
//! manager" of paper §5.2. Pages are accessed through RAII [`PageGuard`]s
//! that pin the frame; I/O for misses and write-backs happens *outside* the
//! pool's mapping lock so that concurrent misses overlap on a latency-
//! simulating disk (this is what lets Workload A's I/O overlap once the
//! thread pool is large enough, §3.1.1).

use crate::disk::DiskManager;
use crate::error::{StorageError, StorageResult};
use crate::page::{PageId, PAGE_SIZE};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Buffer-pool counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Fetches served from memory.
    pub hits: u64,
    /// Fetches that had to read from disk.
    pub misses: u64,
    /// Dirty pages written back during eviction.
    pub evictions: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FrameMeta {
    page: Option<PageId>,
    pin: u32,
    dirty: bool,
    ref_bit: bool,
    io_pending: bool,
}

impl FrameMeta {
    const EMPTY: FrameMeta =
        FrameMeta { page: None, pin: 0, dirty: false, ref_bit: false, io_pending: false };
}

struct PoolInner {
    page_table: HashMap<PageId, usize>,
    meta: Vec<FrameMeta>,
    clock: usize,
}

/// The buffer pool.
pub struct BufferPool {
    disk: Arc<dyn DiskManager>,
    frames: Vec<RwLock<Box<[u8; PAGE_SIZE]>>>,
    inner: Mutex<PoolInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl BufferPool {
    /// A pool of `capacity` frames over `disk`.
    pub fn new(disk: Arc<dyn DiskManager>, capacity: usize) -> Arc<Self> {
        let capacity = capacity.max(1);
        Arc::new(Self {
            disk,
            frames: (0..capacity).map(|_| RwLock::new(Box::new([0u8; PAGE_SIZE]))).collect(),
            inner: Mutex::new(PoolInner {
                page_table: HashMap::with_capacity(capacity),
                meta: vec![FrameMeta::EMPTY; capacity],
                clock: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        })
    }

    /// Number of frames.
    pub fn capacity(&self) -> usize {
        self.frames.len()
    }

    /// The underlying disk manager.
    pub fn disk(&self) -> &Arc<dyn DiskManager> {
        &self.disk
    }

    /// Counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Allocate a fresh page at the end of `file` on disk and pin it
    /// (zeroed, not yet formatted).
    pub fn new_page(self: &Arc<Self>, file: u32) -> StorageResult<PageGuard> {
        let page = self.disk.allocate(file)?;
        // The zeroed page is "read" logically; install without disk read.
        let frame = self.install(page, false)?;
        Ok(PageGuard { pool: Arc::clone(self), frame, page })
    }

    /// Fetch a page, reading it from disk on a miss.
    pub fn fetch(self: &Arc<Self>, page: PageId) -> StorageResult<PageGuard> {
        let frame = self.install(page, true)?;
        Ok(PageGuard { pool: Arc::clone(self), frame, page })
    }

    /// Map `page` to a pinned frame; `read_from_disk` controls miss filling.
    fn install(&self, page: PageId, read_from_disk: bool) -> StorageResult<usize> {
        loop {
            let victim = {
                let mut inner = self.inner.lock();
                if let Some(&f) = inner.page_table.get(&page) {
                    if inner.meta[f].io_pending {
                        // Another thread is filling this frame; wait briefly.
                        drop(inner);
                        std::thread::yield_now();
                        continue;
                    }
                    inner.meta[f].pin += 1;
                    inner.meta[f].ref_bit = true;
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(f);
                }
                // Miss: pick a victim with the clock.
                let f = self.find_victim(&mut inner)?;
                let old = inner.meta[f];
                inner.meta[f] = FrameMeta {
                    page: Some(page),
                    pin: 1,
                    dirty: false,
                    ref_bit: true,
                    io_pending: true,
                };
                if let Some(old_page) = old.page {
                    inner.page_table.remove(&old_page);
                }
                inner.page_table.insert(page, f);
                self.misses.fetch_add(1, Ordering::Relaxed);
                (f, old)
            };
            let (f, old) = victim;
            // I/O outside the mapping lock.
            let io_result = (|| -> StorageResult<()> {
                let mut data = self.frames[f].write();
                if old.dirty {
                    let old_page = old.page.expect("dirty frame must hold a page");
                    self.disk.write_page(old_page, &data[..])?;
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                if read_from_disk {
                    self.disk.read_page(page, &mut data[..])?;
                } else {
                    data.fill(0);
                }
                Ok(())
            })();
            let mut inner = self.inner.lock();
            match io_result {
                Ok(()) => {
                    inner.meta[f].io_pending = false;
                    return Ok(f);
                }
                Err(e) => {
                    // Roll the mapping back so the frame is reusable.
                    inner.page_table.remove(&page);
                    inner.meta[f] = FrameMeta::EMPTY;
                    return Err(e);
                }
            }
        }
    }

    /// Clock sweep; two full passes before giving up.
    fn find_victim(&self, inner: &mut PoolInner) -> StorageResult<usize> {
        let n = inner.meta.len();
        for _ in 0..2 * n {
            let f = inner.clock;
            inner.clock = (inner.clock + 1) % n;
            let m = &mut inner.meta[f];
            if m.pin > 0 || m.io_pending {
                continue;
            }
            if m.ref_bit {
                m.ref_bit = false;
                continue;
            }
            return Ok(f);
        }
        Err(StorageError::PoolExhausted)
    }

    fn unpin(&self, frame: usize) {
        let mut inner = self.inner.lock();
        let m = &mut inner.meta[frame];
        debug_assert!(m.pin > 0, "unpin of unpinned frame");
        m.pin -= 1;
        m.ref_bit = true;
    }

    fn mark_dirty(&self, frame: usize) {
        self.inner.lock().meta[frame].dirty = true;
    }

    #[cfg(test)]
    fn pin_count(&self, page: PageId) -> Option<u32> {
        let inner = self.inner.lock();
        inner.page_table.get(&page).map(|&f| inner.meta[f].pin)
    }
}

/// RAII pin on a page; unpins on drop.
pub struct PageGuard {
    pool: Arc<BufferPool>,
    frame: usize,
    page: PageId,
}

impl PageGuard {
    /// The page this guard pins.
    pub fn page_id(&self) -> PageId {
        self.page
    }

    /// Read access to the page bytes.
    pub fn read<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        let data = self.pool.frames[self.frame].read();
        f(&data[..])
    }

    /// Write access to the page bytes; marks the frame dirty.
    pub fn write<R>(&self, f: impl FnOnce(&mut [u8]) -> R) -> R {
        let mut data = self.pool.frames[self.frame].write();
        self.pool.mark_dirty(self.frame);
        f(&mut data[..])
    }
}

impl Drop for PageGuard {
    fn drop(&mut self) {
        self.pool.unpin(self.frame);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;

    fn pool(frames: usize) -> Arc<BufferPool> {
        BufferPool::new(Arc::new(MemDisk::new()), frames)
    }

    #[test]
    fn new_page_is_zeroed_and_writable() {
        let p = pool(4);
        let g = p.new_page(0).unwrap();
        g.read(|d| assert!(d.iter().all(|&b| b == 0)));
        g.write(|d| d[0] = 9);
        g.read(|d| assert_eq!(d[0], 9));
    }

    #[test]
    fn eviction_writes_back_dirty_pages() {
        let p = pool(2);
        let id0 = {
            let g = p.new_page(0).unwrap();
            g.write(|d| d[0] = 111);
            g.page_id()
        };
        // Fill the pool with other pages to force eviction of page 0.
        for _ in 0..4 {
            let g = p.new_page(0).unwrap();
            g.write(|d| d[1] = 1);
        }
        let g = p.fetch(id0).unwrap();
        g.read(|d| assert_eq!(d[0], 111, "dirty data must survive eviction"));
        assert!(p.stats().evictions > 0);
    }

    #[test]
    fn pinned_pages_are_not_evicted() {
        let p = pool(2);
        let g0 = p.new_page(0).unwrap();
        let _g1 = p.new_page(0).unwrap();
        // Both frames pinned: a third page cannot be installed.
        assert!(matches!(p.new_page(0), Err(StorageError::PoolExhausted)));
        drop(g0);
        // Now one frame is free.
        assert!(p.new_page(0).is_ok());
    }

    #[test]
    fn fetch_hit_does_not_touch_disk() {
        let disk = Arc::new(MemDisk::new());
        let p = BufferPool::new(Arc::clone(&disk) as Arc<dyn DiskManager>, 4);
        let id = p.new_page(0).unwrap().page_id();
        let before = disk.stats().reads;
        for _ in 0..10 {
            let _ = p.fetch(id).unwrap();
        }
        assert_eq!(disk.stats().reads, before, "hits must not read disk");
        assert_eq!(p.stats().hits, 10);
    }

    #[test]
    fn guard_drop_unpins() {
        let p = pool(2);
        let id = {
            let g = p.new_page(0).unwrap();
            assert_eq!(p.pin_count(g.page_id()), Some(1));
            g.page_id()
        };
        assert_eq!(p.pin_count(id), Some(0));
        let g1 = p.fetch(id).unwrap();
        let g2 = p.fetch(id).unwrap();
        assert_eq!(p.pin_count(id), Some(2));
        drop(g1);
        drop(g2);
        assert_eq!(p.pin_count(id), Some(0));
    }

    #[test]
    fn concurrent_fetches_are_consistent() {
        let p = pool(8);
        let ids: Vec<PageId> = (0..16)
            .map(|i| {
                let g = p.new_page(0).unwrap();
                g.write(|d| d[0] = i as u8);
                g.page_id()
            })
            .collect();
        let mut handles = vec![];
        for t in 0..4 {
            let p = Arc::clone(&p);
            let ids = ids.clone();
            handles.push(std::thread::spawn(move || {
                for round in 0..50 {
                    let idx = (t * 7 + round * 3) % ids.len();
                    let g = p.fetch(ids[idx]).unwrap();
                    g.read(|d| assert_eq!(d[0], idx as u8));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
