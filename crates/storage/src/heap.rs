//! Heap files: unordered collections of tuples on slotted pages.
//!
//! A heap file owns one page file of the disk, so its `n`-th page is block
//! `n` of that file in every catalog. That makes a rid portable: recovery
//! and replica apply [`place`](HeapFile::place_with) each row at the rid
//! the log or snapshot names, growing the file as needed.

use crate::buffer::BufferPool;
use crate::error::{StorageError, StorageResult};
use crate::mvcc::{ReadView, VersionStore};
use crate::page::{PageId, SlottedPage, PAGE_SIZE};
use crate::tuple::{Rid, Tuple};
use parking_lot::{Mutex, RwLock};
use std::sync::Arc;

/// A heap file. Pages are tracked in memory (the catalog owns the file;
/// on-disk directory pages are out of scope, see crate docs).
pub struct HeapFile {
    pool: Arc<BufferPool>,
    file: u32,
    pages: RwLock<Vec<PageId>>,
    /// Serializes the insert path so two inserters do not both allocate.
    insert_lock: Mutex<()>,
}

impl HeapFile {
    /// An empty heap file over `pool`, in page file `file`.
    pub fn create(pool: Arc<BufferPool>, file: u32) -> Self {
        Self { pool, file, pages: RwLock::new(Vec::new()), insert_lock: Mutex::new(()) }
    }

    /// The page file this heap owns.
    pub fn file(&self) -> u32 {
        self.file
    }

    /// Number of pages.
    pub fn num_pages(&self) -> usize {
        self.pages.read().len()
    }

    /// Snapshot of the page list (used by scans and index builds).
    pub fn page_ids(&self) -> Vec<PageId> {
        self.pages.read().clone()
    }

    /// Insert a tuple, returning its rid.
    pub fn insert(&self, tuple: &Tuple) -> StorageResult<Rid> {
        self.insert_with(tuple, |_| {})
    }

    /// Insert a tuple, invoking `note` with the assigned rid from *inside*
    /// the page write latch — before any reader can decode the new row.
    /// This is the MVCC registration hook: `note` typically records the
    /// rid in the table's [`VersionStore`], and running it under the latch
    /// guarantees a reader that sees the row's bytes also sees its
    /// overlay entry.
    pub fn insert_with<F: FnOnce(Rid)>(&self, tuple: &Tuple, note: F) -> StorageResult<Rid> {
        let bytes = tuple.encode();
        if bytes.len() > PAGE_SIZE - 8 {
            return Err(StorageError::RecordTooLarge(bytes.len()));
        }
        let mut note = Some(note);
        let _guard = self.insert_lock.lock();
        // Try the last page first.
        if let Some(&last) = self.pages.read().last() {
            let page = self.pool.fetch(last)?;
            if let Some(slot) = page.write(|d| {
                let slot = SlottedPage::insert(d, &bytes);
                if let Some(s) = slot {
                    if let Some(f) = note.take() {
                        f(Rid::new(last, s));
                    }
                }
                slot
            }) {
                return Ok(Rid::new(last, slot));
            }
        }
        // Start a fresh page.
        let rid = Rid::new(PageId::new(self.file, self.num_pages() as u32), 0);
        self.place_locked(rid, &bytes, note.take().expect("note runs once"))?;
        Ok(rid)
    }

    /// Store the encoded row `bytes` at `rid`, growing the file up to the
    /// rid's block, and run `note` with the rid under the page write latch
    /// (see [`Self::insert_with`]). A rid in another page file is
    /// `InvalidPage`; see [`SlottedPage::place`] for the slot rules. This is
    /// how replay puts a row back at the address the log names.
    pub fn place_with<F: FnOnce(Rid)>(&self, rid: Rid, bytes: &[u8], note: F) -> StorageResult<()> {
        let _guard = self.insert_lock.lock();
        self.place_locked(rid, bytes, note)
    }

    fn place_locked<F: FnOnce(Rid)>(&self, rid: Rid, bytes: &[u8], note: F) -> StorageResult<()> {
        if rid.page.file() != self.file {
            return Err(StorageError::InvalidPage(rid.page));
        }
        while self.num_pages() <= rid.page.block() as usize {
            let expected = PageId::new(self.file, self.num_pages() as u32);
            let page = self.pool.new_page(self.file)?;
            if page.page_id() != expected {
                return Err(StorageError::Corrupt(format!("heap file {} out of step", self.file)));
            }
            page.write(SlottedPage::init);
            self.pages.write().push(expected);
        }
        let page = self.pool.fetch(rid.page)?;
        page.write(|d| SlottedPage::place(d, rid.page, rid.slot, bytes).map(|()| note(rid)))
    }

    /// Read the tuple at `rid`.
    pub fn get(&self, rid: Rid) -> StorageResult<Tuple> {
        let page = self.pool.fetch(rid.page)?;
        page.read(|d| SlottedPage::get(d, rid.page, rid.slot).and_then(Tuple::decode))
    }

    /// Delete the tuple at `rid` (idempotent errors on bad slots).
    pub fn delete(&self, rid: Rid) -> StorageResult<()> {
        let page = self.pool.fetch(rid.page)?;
        page.write(|d| SlottedPage::delete(d, rid.page, rid.slot))
    }

    /// Undo a delete: bring `record` (the row's encoded before-image) back
    /// at `rid`, under the page write latch (see [`SlottedPage::restore`]).
    pub fn restore(&self, rid: Rid, record: &[u8]) -> StorageResult<()> {
        let page = self.pool.fetch(rid.page)?;
        page.write(|d| SlottedPage::restore(d, rid.page, rid.slot, record))
    }

    /// Full scan over `(rid, tuple)` pairs.
    pub fn scan(&self) -> HeapScan {
        HeapScan { pages: self.scan_pages(), buffered: Vec::new() }
    }

    /// Page-granular scan: each item is one decoded page of `(rid, tuple)`
    /// pairs, in slot order. This is the batch-dataflow entry point — a
    /// consumer that wants pages (not tuples) gets them without the
    /// per-tuple buffering of [`HeapScan`].
    pub fn scan_pages(&self) -> HeapPageScan {
        HeapPageScan {
            pool: Arc::clone(&self.pool),
            pages: self.page_ids(),
            next_page: 0,
            cols: None,
            mvcc: None,
        }
    }

    /// Exact count of live tuples (scans every page).
    pub fn count(&self) -> StorageResult<usize> {
        let mut n = 0;
        for pid in self.page_ids() {
            let page = self.pool.fetch(pid)?;
            n += page.read(SlottedPage::live_count);
        }
        Ok(n)
    }
}

/// Streaming scan over a heap file: a [`HeapPageScan`] handing out one
/// tuple at a time. It buffers one page of tuples, so no page stays pinned
/// between `next` calls.
pub struct HeapScan {
    pages: HeapPageScan,
    buffered: Vec<(Rid, Tuple)>,
}

impl HeapScan {
    /// Pages this scan will visit (for I/O accounting in experiments).
    pub fn num_pages(&self) -> usize {
        self.pages.num_pages()
    }

    /// Filter every page through `store`'s version overlay for `view`:
    /// uncommitted rows the view cannot see are dropped, dead versions it
    /// can still see are merged back in.
    pub fn with_snapshot(mut self, store: Arc<VersionStore>, view: ReadView) -> Self {
        self.pages = self.pages.with_snapshot(store, view);
        self
    }
}

impl Iterator for HeapScan {
    type Item = StorageResult<(Rid, Tuple)>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.buffered.is_empty() {
            match self.pages.next_into(&mut self.buffered) {
                Ok(true) => self.buffered.reverse(), // so pop() yields in slot order
                Ok(false) => return None,
                Err(e) => return Some(Err(e)),
            }
        }
        self.buffered.pop().map(Ok)
    }
}

/// Page-granular heap scan: yields one decoded page of `(rid, tuple)` pairs
/// per `next` call (empty pages are skipped). No page stays pinned between
/// calls. [`next_into`](Self::next_into) refills a caller's page in place.
pub struct HeapPageScan {
    pool: Arc<BufferPool>,
    pages: Vec<PageId>,
    next_page: usize,
    cols: Option<Vec<usize>>,
    mvcc: Option<(Arc<VersionStore>, ReadView)>,
}

impl HeapPageScan {
    /// Pages this scan will visit (for I/O accounting in experiments).
    pub fn num_pages(&self) -> usize {
        self.pages.len()
    }

    /// Restrict decoding to `cols` (strictly increasing slot indexes, see
    /// [`Tuple::decode_columns`]); yielded tuples hold those columns in that
    /// order. Unread columns — string columns especially — are skipped
    /// without being materialized.
    pub fn with_columns(mut self, cols: Vec<usize>) -> Self {
        debug_assert!(cols.windows(2).all(|w| w[0] < w[1]), "cols must be strictly increasing");
        self.cols = Some(cols);
        self
    }

    /// Filter every page through `store`'s version overlay for `view` (see
    /// [`HeapScan::with_snapshot`]). Dead versions are decoded with this
    /// scan's column pruning.
    pub fn with_snapshot(mut self, store: Arc<VersionStore>, view: ReadView) -> Self {
        self.mvcc = Some((store, view));
        self
    }

    /// Refill `page` with the next non-empty page of `(rid, tuple)` pairs,
    /// in slot order; `Ok(false)` (and an empty `page`) once the scan is
    /// exhausted. The tuples already in `page` are overwritten in place
    /// ([`Tuple::decode_columns_into`]), so a caller that keeps its page
    /// across calls reuses their value buffers instead of allocating a
    /// fresh row per slot. On an error `page` is left empty; the next call
    /// moves on to the page after the failed one.
    pub fn next_into(&mut self, page: &mut Vec<(Rid, Tuple)>) -> StorageResult<bool> {
        while self.next_page < self.pages.len() {
            let pid = self.pages[self.next_page];
            self.next_page += 1;
            if let Err(e) = self.fill(pid, page) {
                page.clear();
                return Err(e);
            }
            if !page.is_empty() {
                return Ok(true);
            }
        }
        page.clear();
        Ok(false)
    }

    /// Decode the rows of page `pid` into `page`, then filter them through
    /// the snapshot, if the scan has one.
    fn fill(&self, pid: PageId, page: &mut Vec<(Rid, Tuple)>) -> StorageResult<()> {
        let frame = self.pool.fetch(pid)?;
        let mut n = 0;
        let res: StorageResult<()> = frame.read(|d| {
            for (slot, bytes) in SlottedPage::iter(d) {
                let rid = Rid::new(pid, slot);
                match page.get_mut(n) {
                    Some(row) => row.0 = rid,
                    None => page.push((rid, Tuple::default())),
                }
                page[n].1.decode_columns_into(bytes, self.cols.as_deref())?;
                n += 1;
            }
            Ok(())
        });
        // Rows beyond this page's slots belong to an earlier page.
        page.truncate(n);
        res?;
        if let Some((store, view)) = &self.mvcc {
            // The overlay can both drop rows and resurrect deleted ones
            // (even on pages whose live rows are all filtered away), so
            // the caller's emptiness check must come after.
            store.filter_page(*view, pid, page, self.cols.as_deref())?;
        }
        Ok(())
    }
}

impl Iterator for HeapPageScan {
    type Item = StorageResult<Vec<(Rid, Tuple)>>;

    fn next(&mut self) -> Option<Self::Item> {
        let mut page = Vec::new();
        self.next_into(&mut page).map(|more| more.then_some(page)).transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;
    use crate::value::Value;

    fn heap() -> HeapFile {
        HeapFile::create(BufferPool::new(Arc::new(MemDisk::new()), 64), 256)
    }

    fn row(i: i64) -> Tuple {
        Tuple::new(vec![Value::Int(i), Value::Str(format!("row-{i}"))])
    }

    #[test]
    fn insert_get_roundtrip() {
        let h = heap();
        let rid = h.insert(&row(1)).unwrap();
        assert_eq!(h.get(rid).unwrap(), row(1));
    }

    #[test]
    fn scan_returns_everything_in_insert_order() {
        let h = heap();
        for i in 0..1000 {
            h.insert(&row(i)).unwrap();
        }
        let got: Vec<Tuple> = h.scan().map(|r| r.unwrap().1).collect();
        assert_eq!(got.len(), 1000);
        for (i, t) in got.iter().enumerate() {
            assert_eq!(t.get(0), &Value::Int(i as i64));
        }
        assert!(h.num_pages() > 1, "1000 rows must span pages");
    }

    #[test]
    fn delete_hides_from_scan_and_get() {
        let h = heap();
        let r0 = h.insert(&row(0)).unwrap();
        let r1 = h.insert(&row(1)).unwrap();
        h.delete(r0).unwrap();
        assert!(h.get(r0).is_err());
        assert_eq!(h.get(r1).unwrap(), row(1));
        let remaining: Vec<Tuple> = h.scan().map(|r| r.unwrap().1).collect();
        assert_eq!(remaining, vec![row(1)]);
        assert_eq!(h.count().unwrap(), 1);
    }

    #[test]
    fn insert_numbers_pages_from_block_zero_of_its_file() {
        let h = heap();
        let rid = h.insert(&row(0)).unwrap();
        assert_eq!(rid, Rid::new(PageId::new(256, 0), 0));
        for i in 1..300 {
            h.insert(&row(i)).unwrap();
        }
        let want: Vec<PageId> = (0..h.num_pages() as u32).map(|b| PageId::new(256, b)).collect();
        assert_eq!(h.page_ids(), want);
    }

    #[test]
    fn place_grows_the_file_to_the_rids_block() {
        let h = heap();
        let far = Rid::new(PageId::new(256, 2), 5);
        let mut noted = None;
        h.place_with(far, &row(7).encode(), |r| noted = Some(r)).unwrap();
        assert_eq!(noted, Some(far));
        assert_eq!(h.num_pages(), 3, "blocks 0 and 1 come into being empty");
        assert_eq!(h.get(far).unwrap(), row(7));
        assert_eq!(h.scan().map(|r| r.unwrap()).collect::<Vec<_>>(), vec![(far, row(7))]);
        // Later rows go after it; a taken slot is refused.
        h.place_with(Rid::new(PageId::new(256, 0), 0), &row(1).encode(), |_| {}).unwrap();
        assert!(h.place_with(far, &row(8).encode(), |_| {}).is_err());
        assert_eq!(h.insert(&row(9)).unwrap(), Rid::new(PageId::new(256, 2), 6));
    }

    #[test]
    fn place_of_a_rid_from_another_file_is_an_error() {
        let h = heap();
        let foreign = Rid::new(PageId::new(257, 0), 0);
        assert!(matches!(
            h.place_with(foreign, &row(1).encode(), |_| panic!("not placed")),
            Err(StorageError::InvalidPage(p)) if p == foreign.page
        ));
        assert_eq!(h.num_pages(), 0, "nothing allocated");
    }

    #[test]
    fn oversized_record_is_rejected() {
        let h = heap();
        let big = Tuple::new(vec![Value::Str("x".repeat(PAGE_SIZE))]);
        assert!(matches!(h.insert(&big), Err(StorageError::RecordTooLarge(_))));
    }

    #[test]
    fn concurrent_inserts_do_not_lose_rows() {
        let h = Arc::new(heap());
        let mut handles = vec![];
        for t in 0..4 {
            let h = Arc::clone(&h);
            handles.push(std::thread::spawn(move || {
                for i in 0..250 {
                    h.insert(&row(t * 1000 + i)).unwrap();
                }
            }));
        }
        for hnd in handles {
            hnd.join().unwrap();
        }
        assert_eq!(h.count().unwrap(), 1000);
    }

    #[test]
    fn scan_of_empty_heap_is_empty() {
        let h = heap();
        assert_eq!(h.scan().count(), 0);
        assert_eq!(h.scan_pages().count(), 0);
    }

    #[test]
    fn page_scan_agrees_with_tuple_scan() {
        let h = heap();
        for i in 0..1000 {
            h.insert(&row(i)).unwrap();
        }
        let flat: Vec<(Rid, Tuple)> = h.scan().map(|r| r.unwrap()).collect();
        let paged: Vec<(Rid, Tuple)> =
            h.scan_pages().flat_map(|p| p.unwrap().into_iter()).collect();
        assert_eq!(flat, paged, "page scan must yield the same rows in the same order");
        let pages: Vec<usize> = h.scan_pages().map(|p| p.unwrap().len()).collect();
        assert_eq!(pages.len(), h.num_pages());
        assert!(pages.iter().all(|&n| n > 1), "full pages hold many tuples");
    }

    #[test]
    fn projected_page_scan_prunes_columns() {
        let h = heap();
        for i in 0..500 {
            h.insert(&row(i)).unwrap();
        }
        let pruned: Vec<(Rid, Tuple)> =
            h.scan_pages().with_columns(vec![0]).flat_map(|p| p.unwrap()).collect();
        let full: Vec<(Rid, Tuple)> = h.scan_pages().flat_map(|p| p.unwrap()).collect();
        assert_eq!(pruned.len(), full.len());
        for ((rid_p, t), (rid_f, f)) in pruned.iter().zip(&full) {
            assert_eq!(rid_p, rid_f);
            assert_eq!(t.values(), &f.values()[..1]);
        }
    }

    #[test]
    fn next_into_refills_match_fresh_pages_rid_for_rid() {
        let h = heap();
        let store = VersionStore::new();
        let mut rids = Vec::new();
        for i in 0..700 {
            rids.push(h.insert(&row(i)).unwrap());
        }
        // Under the view the overlay drops a row whose writer has not
        // committed, and merges back a row deleted after the view's time.
        let pending = h.insert_with(&row(700), |rid| store.note_insert(rid, 5)).unwrap();
        let gone = rids[3];
        store.note_delete(gone, h.get(gone).unwrap().encode(), 6);
        h.delete(gone).unwrap();
        store.commit(6, 10);
        let view = ReadView::new(5, 0);
        // Every column (a string among them), the string alone, both.
        for cols in [None, Some(vec![1]), Some(vec![0, 1])] {
            for snap in [false, true] {
                let scan = || {
                    let mut s = h.scan_pages();
                    if let Some(c) = &cols {
                        s = s.with_columns(c.clone());
                    }
                    if snap {
                        s = s.with_snapshot(Arc::clone(&store), view);
                    }
                    s
                };
                let fresh: Vec<Vec<(Rid, Tuple)>> = scan().map(|p| p.unwrap()).collect();
                let (mut reused, mut page, mut refilled) = (scan(), Vec::new(), Vec::new());
                while reused.next_into(&mut page).unwrap() {
                    refilled.push(page.clone());
                }
                assert!(page.is_empty(), "an exhausted scan leaves an empty page");
                assert_eq!(refilled, fresh, "cols {cols:?}, snapshot {snap}");
                let lens: Vec<usize> = fresh.iter().map(Vec::len).collect();
                assert!(lens.windows(2).any(|w| w[1] < w[0]), "no shorter page: {lens:?}");
                let has = |rid| fresh.iter().flatten().any(|(r, _)| *r == rid);
                assert_eq!(has(gone), snap, "the dead version is merged back under the view");
                assert_eq!(has(pending), !snap, "the uncommitted row is dropped under the view");
            }
        }
    }

    #[test]
    fn a_corrupt_row_fails_its_page_and_the_scan_moves_on() {
        let h = heap();
        for i in 0..3 {
            h.insert(&row(i)).unwrap();
        }
        // A record claiming five values but holding two bytes of them.
        h.place_with(Rid::new(PageId::new(256, 0), 3), &[5, 0, 1, 2], |_| {}).unwrap();
        let next = Rid::new(PageId::new(256, 1), 0);
        h.place_with(next, &row(9).encode(), |_| {}).unwrap();
        let (mut scan, mut page) = (h.scan_pages(), Vec::new());
        assert!(scan.next_into(&mut page).is_err());
        assert!(page.is_empty(), "no row of the failed page is handed out");
        assert!(scan.next_into(&mut page).unwrap());
        assert_eq!(page, vec![(next, row(9))]);
        let rows: Vec<_> = h.scan().collect();
        assert!(rows[0].is_err());
        assert_eq!(
            rows[1..].iter().map(|r| r.as_ref().unwrap()).collect::<Vec<_>>(),
            [&(next, row(9))]
        );
    }

    #[test]
    fn page_scan_skips_emptied_pages() {
        let h = heap();
        let mut rids = Vec::new();
        for i in 0..300 {
            rids.push(h.insert(&row(i)).unwrap());
        }
        // Empty out the first page entirely.
        let first = rids[0].page;
        for r in rids.iter().filter(|r| r.page == first) {
            h.delete(*r).unwrap();
        }
        let total: usize = h.scan_pages().map(|p| p.unwrap().len()).sum();
        assert_eq!(total, h.count().unwrap());
        assert!(h.scan_pages().all(|p| !p.unwrap().is_empty()));
    }
}
