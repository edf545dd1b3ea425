//! Multi-version concurrency control: a per-table version overlay and the
//! commit-timestamp oracle.
//!
//! The heap stays single-version — exactly the bytes the WAL and snapshots
//! describe (PR 7's recovery path remains byte-honest). Versioning lives in
//! an in-memory overlay per table (a [`VersionStore`]) that records, for
//! rows touched by in-flight or recently committed transactions, *when* each
//! row became visible and *when* it stopped being visible. A scan holding a
//! [`ReadView`] filters every page it decodes through the overlay: live rows
//! whose creation the view cannot see are dropped, and dead versions (the
//! before-images of deleted rows) the view can still see are merged back in.
//! An index probe does the same for the rows its B+tree resolved
//! ([`VersionStore::filter_probe`]), merging dead versions by key instead of
//! by page. A row with no overlay entry is visible to everyone — the common
//! case, and the reason an idle overlay costs one atomic load per page or
//! probe.
//!
//! A rid names one row for its whole life. Rollback restores a deleted row
//! in place, at the rid its dead version names, so the row and its dead
//! version share a page and a rid: a reader that decoded the slot live
//! deduplicates the dead version by rid, one that decoded it tombstoned
//! merges it, and no interleaving yields the row twice or not at all.
//!
//! Timestamps come from the [`CommitOracle`]: a monotonic counter advanced
//! under a mutex at commit, with the visibility flip (`Pending(xid)` →
//! `At(ts)`) performed inside the same critical section so that "the latest
//! committed timestamp" and "which versions that timestamp can see" can
//! never disagree. Readers pin a snapshot with [`CommitOracle::pin`]; the
//! oldest pin bounds what the garbage collector may reclaim.
//!
//! The overlay is rebuilt empty at recovery (only committed data survives a
//! crash, and committed data is visible to everyone), and garbage-collected
//! at the checkpoint stage's quiesce point — see `engine::checkpoint`.
//!
//! Visibility rules, race analysis, and the GC protocol are documented in
//! `docs/CONCURRENCY.md`.

use crate::error::StorageResult;
use crate::page::PageId;
use crate::tuple::{Rid, Tuple};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// A reader's view of the database: every version committed at or before
/// `ts` is visible, plus the reader's own uncommitted writes (`xid`).
///
/// `xid == 0` means "no transaction" (autocommit SELECTs and `BEGIN READ
/// ONLY` bindings): only committed state is visible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadView {
    /// Snapshot timestamp: versions with commit ts `<= ts` are visible.
    pub ts: u64,
    /// The reading transaction's id, or 0 for none. A transaction always
    /// sees its own pending writes.
    pub xid: u64,
}

impl ReadView {
    /// Construct a view.
    pub fn new(ts: u64, xid: u64) -> Self {
        Self { ts, xid }
    }
}

/// When a row version came into existence.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Begin {
    /// Written by a still-uncommitted transaction; visible only to it.
    Pending(u64),
    /// Committed at this timestamp.
    At(u64),
}

/// When a row version stopped existing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum End {
    /// Deleted by a still-uncommitted transaction; the deletion is visible
    /// only to that transaction.
    Pending(u64),
    /// Deletion committed at this timestamp.
    At(u64),
}

/// The before-image of a deleted row, kept so older snapshots can still
/// read it.
#[derive(Debug)]
struct DeadVersion {
    /// The rid the row occupied. Slots are never reused and rollback
    /// restores a row at its own rid, so a rid holds at most one dead
    /// version.
    rid: Rid,
    /// Encoded tuple bytes at deletion time.
    bytes: Vec<u8>,
    /// Creation stamp of the row when it was deleted (`None` = predates
    /// the overlay, visible to every snapshot).
    begin: Option<Begin>,
    /// Deletion stamp.
    end: End,
}

/// Per-transaction handles to the overlay entries it must flip at commit.
#[derive(Default)]
struct PendingSet {
    /// Rids whose `created` entry is `Pending(xid)`.
    inserts: Vec<Rid>,
    /// Rids of dead versions whose `end` is `Pending(xid)`.
    deletes: Vec<Rid>,
}

#[derive(Default)]
struct Inner {
    /// Creation stamps for rows not yet visible-to-all. Absence means the
    /// row predates the overlay: visible to every snapshot.
    created: HashMap<Rid, Begin>,
    /// Dead versions grouped by the page the row lived on, so a page scan
    /// merges exactly its own page's versions.
    dead: HashMap<PageId, Vec<DeadVersion>>,
    /// In-flight transactions' flip handles.
    pending: HashMap<u64, PendingSet>,
    /// Total dead versions (maintained incrementally; sizes the fast path).
    dead_count: usize,
}

/// Counters the STATS command surfaces for one table's overlay.
#[derive(Debug, Clone, Copy, Default)]
pub struct VersionStats {
    /// Live rows with a tracked creation stamp.
    pub created: u64,
    /// Dead versions retained for older snapshots.
    pub dead: u64,
    /// Transactions with unflipped entries.
    pub pending_txns: u64,
}

/// Counters from one garbage-collection pass over one table's overlay.
#[derive(Debug, Clone, Copy, Default)]
pub struct VacuumStats {
    /// Dead versions reclaimed.
    pub dead_removed: u64,
    /// Creation stamps reclaimed (rows now visible-to-all).
    pub created_removed: u64,
}

impl VacuumStats {
    /// Accumulate another pass's counters.
    pub fn add(&mut self, other: VacuumStats) {
        self.dead_removed += other.dead_removed;
        self.created_removed += other.created_removed;
    }
}

/// One table's version overlay. See the module docs for the scheme.
#[derive(Default)]
pub struct VersionStore {
    inner: Mutex<Inner>,
    /// `created.len() + dead_count`, mirrored outside the lock: scans skip
    /// the lock entirely while the overlay is empty.
    entries: AtomicUsize,
    /// Lifetime dead versions reclaimed by GC.
    gc_dead: AtomicU64,
    /// Lifetime creation stamps reclaimed by GC.
    gc_created: AtomicU64,
}

fn begin_visible(begin: Option<&Begin>, view: ReadView) -> bool {
    match begin {
        None => true,
        Some(Begin::At(t)) => *t <= view.ts,
        Some(Begin::Pending(x)) => view.xid != 0 && *x == view.xid,
    }
}

/// Does `view` see this deletion (and therefore *not* the dead version)?
fn end_hides(end: End, view: ReadView) -> bool {
    match end {
        End::At(t) => t <= view.ts,
        End::Pending(x) => view.xid != 0 && x == view.xid,
    }
}

impl VersionStore {
    /// An empty overlay.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    fn publish_len(&self, inner: &Inner) {
        self.entries.store(inner.created.len() + inner.dead_count, Ordering::Release);
    }

    /// Record that `xid` inserted the row at `rid`.
    ///
    /// MUST be called from inside the page write latch that inserted the
    /// row (see `HeapFile::insert_with`): a reader decodes a page under the
    /// read latch *before* consulting the overlay, so registration must
    /// happen-before the row's bytes become readable or the reader could
    /// see an uncommitted row with no overlay entry.
    pub fn note_insert(&self, rid: Rid, xid: u64) {
        let mut inner = self.inner.lock();
        inner.created.insert(rid, Begin::Pending(xid));
        inner.pending.entry(xid).or_default().inserts.push(rid);
        self.publish_len(&inner);
    }

    /// Record that `xid` is deleting the row at `rid` whose encoded bytes
    /// are `bytes`.
    ///
    /// MUST be called *before* the heap delete: once registered, readers
    /// that miss the live row find the dead version; readers that still see
    /// the live row deduplicate against it (the overlay keeps the live
    /// row's creation stamp as a tombstone until GC).
    ///
    /// A dead version already at `rid` with a `Pending` end is re-pointed
    /// at this deleter rather than duplicated. Under 2PL the only way one
    /// exists is a rolled-back delete of this same row, which rollback
    /// restored in place; its stale end reads as "never deleted".
    pub fn note_delete(&self, rid: Rid, bytes: Vec<u8>, xid: u64) {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let list = inner.dead.entry(rid.page).or_default();
        match list.iter_mut().find(|d| d.rid == rid && matches!(d.end, End::Pending(_))) {
            Some(dv) => dv.end = End::Pending(xid),
            None => {
                let begin = inner.created.get(&rid).cloned();
                list.push(DeadVersion { rid, bytes, begin, end: End::Pending(xid) });
                inner.dead_count += 1;
            }
        }
        inner.pending.entry(xid).or_default().deletes.push(rid);
        self.publish_len(inner);
    }

    /// Flip all of `xid`'s pending entries to committed-at-`ts`.
    ///
    /// MUST be called from inside [`CommitOracle::commit`]'s critical
    /// section (its `publish` callback) so the flip and the advance of
    /// `latest` are atomic with respect to readers pinning snapshots.
    pub fn commit(&self, xid: u64, ts: u64) {
        let mut inner = self.inner.lock();
        let Some(set) = inner.pending.remove(&xid) else { return };
        for rid in set.inserts {
            if inner.created.get(&rid) == Some(&Begin::Pending(xid)) {
                inner.created.insert(rid, Begin::At(ts));
            }
        }
        for rid in set.deletes {
            if let Some(list) = inner.dead.get_mut(&rid.page) {
                if let Some(dv) = list.iter_mut().find(|d| d.rid == rid) {
                    if dv.end == End::Pending(xid) {
                        dv.end = End::At(ts);
                    }
                }
            }
        }
    }

    /// Drop `xid`'s flip handles after its undo log has been applied.
    ///
    /// The entries themselves stay: a `Pending(xid)` creation stamp keeps
    /// the (now heap-deleted) row invisible if a racing reader decoded it
    /// before the undo removed it, and a `Pending(xid)` deletion stamp on a
    /// dead version reads as "never deleted", which is exactly what a
    /// rolled-back delete means. GC reclaims them once `xid` is gone.
    pub fn abort(&self, xid: u64) {
        self.inner.lock().pending.remove(&xid);
    }

    /// Filter one decoded page through the overlay for `view`.
    ///
    /// `rows` holds the page's live rows as `(rid, tuple)` in slot order;
    /// on return it holds exactly the rows `view` can see (live rows whose
    /// creation is visible, plus merged dead versions whose deletion is
    /// not), again in slot order. `cols` is the scan's column pruning and
    /// is applied when decoding dead versions.
    pub fn filter_page(
        &self,
        view: ReadView,
        page: PageId,
        rows: &mut Vec<(Rid, Tuple)>,
        cols: Option<&[usize]>,
    ) -> StorageResult<()> {
        if self.entries.load(Ordering::Acquire) == 0 {
            return Ok(());
        }
        let inner = self.inner.lock();
        rows.retain(|(rid, _)| begin_visible(inner.created.get(rid), view));
        if let Some(list) = inner.dead.get(&page) {
            let mut merged = false;
            for dv in list {
                // A dead version whose live row is still on the page (the
                // register-then-delete window) would double-count: the live
                // copy already represents the row for views that see it.
                if rows.iter().any(|(rid, _)| *rid == dv.rid) {
                    continue;
                }
                if begin_visible(dv.begin.as_ref(), view) && !end_hides(dv.end, view) {
                    let tuple = match cols {
                        Some(c) => Tuple::decode_columns(&dv.bytes, c)?,
                        None => Tuple::decode(&dv.bytes)?,
                    };
                    rows.push((dv.rid, tuple));
                    merged = true;
                }
            }
            if merged {
                rows.sort_by_key(|(rid, _)| rid.slot);
            }
        }
        Ok(())
    }

    /// Filter the rows one index probe fetched through the overlay for
    /// `view`.
    ///
    /// `rows` holds the rows the B+tree on column `key_col` resolved for
    /// keys in `[lo, hi]` (either bound optional) and that were still live
    /// in the heap; on return it holds exactly the rows with a key in the
    /// bounds that `view` can see. Live rows whose creation the view
    /// cannot see are dropped. Dead versions are merged back *by key*, not
    /// by page: DML removes index entries eagerly, so a deleted row the
    /// view still sees is reachable only from here, never from the tree.
    /// The whole probe is judged under one lock acquisition, so it sees
    /// one consistent overlay state. Merged versions follow the live rows;
    /// callers that need key order sort above.
    pub fn filter_probe(
        &self,
        view: ReadView,
        key_col: usize,
        lo: Option<i64>,
        hi: Option<i64>,
        rows: &mut Vec<(Rid, Tuple)>,
    ) -> StorageResult<()> {
        if self.entries.load(Ordering::Acquire) == 0 {
            return Ok(());
        }
        let inner = self.inner.lock();
        rows.retain(|(rid, _)| begin_visible(inner.created.get(rid), view));
        let live = rows.len();
        for dv in inner.dead.values().flatten() {
            // Stamps first: most retained dead versions ended at or below a
            // fresh view's timestamp and are rejected without a decode.
            if !begin_visible(dv.begin.as_ref(), view) || end_hides(dv.end, view) {
                continue;
            }
            // NULL keys are never indexed and match no key bound.
            let key = Tuple::decode_columns(&dv.bytes, &[key_col])?;
            let Some(k) = key.get(0).as_int() else { continue };
            if lo.is_some_and(|l| k < l) || hi.is_some_and(|h| k > h) {
                continue;
            }
            // The register-then-delete window: the tree still named the
            // rid and the heap still held it, so the live copy stands.
            if rows[..live].iter().any(|(rid, _)| *rid == dv.rid) {
                continue;
            }
            rows.push((dv.rid, Tuple::decode(&dv.bytes)?));
        }
        Ok(())
    }

    /// Overlay size counters for STATS.
    pub fn stats(&self) -> VersionStats {
        let inner = self.inner.lock();
        VersionStats {
            created: inner.created.len() as u64,
            dead: inner.dead_count as u64,
            pending_txns: inner.pending.len() as u64,
        }
    }

    /// Lifetime GC counters: `(dead_removed, created_removed)`.
    pub fn gc_totals(&self) -> (u64, u64) {
        (self.gc_dead.load(Ordering::Relaxed), self.gc_created.load(Ordering::Relaxed))
    }

    /// Garbage-collect the overlay. Only safe while no DML is in flight
    /// (the checkpoint stage's quiesce point): a transaction absent from
    /// `live_xids` is then guaranteed finished, not mid-commit.
    ///
    /// Timestamp-based reclamation (creation/deletion stamps at or below
    /// `min_active_ts`, the oldest pinned snapshot) is always safe. Reaping
    /// finished transactions' `Pending` stamps additionally requires
    /// `pins_empty`: a reader that decoded a page while an aborted delete's
    /// row was tombstoned finds the row only through its dead version, and
    /// that reader's progress is a position, not a timestamp. One rule then
    /// covers both aborted shapes — a delete whose row is back at the same
    /// rid, and an insert-then-delete inside one transaction.
    pub fn vacuum(
        &self,
        min_active_ts: u64,
        pins_empty: bool,
        live_xids: &HashSet<u64>,
    ) -> VacuumStats {
        let mut inner = self.inner.lock();
        let mut stats = VacuumStats::default();
        let inner = &mut *inner;
        let finished = |x: &u64| pins_empty && !live_xids.contains(x);

        // Dead versions.
        for list in inner.dead.values_mut() {
            list.retain(|dv| {
                let drop = match dv.end {
                    End::At(t) => t <= min_active_ts,
                    End::Pending(x) => finished(&x),
                };
                if drop {
                    stats.dead_removed += 1;
                }
                !drop
            });
        }
        inner.dead.retain(|_, list| !list.is_empty());

        // Creation stamps.
        inner.created.retain(|_, b| {
            let drop = match b {
                Begin::At(t) => *t <= min_active_ts,
                Begin::Pending(x) => finished(x),
            };
            if drop {
                stats.created_removed += 1;
            }
            !drop
        });

        // Flip handles of finished transactions.
        if pins_empty {
            inner.pending.retain(|x, _| live_xids.contains(x));
        }

        inner.dead_count = inner.dead.values().map(Vec::len).sum();
        self.gc_dead.fetch_add(stats.dead_removed, Ordering::Relaxed);
        self.gc_created.fetch_add(stats.created_removed, Ordering::Relaxed);
        self.publish_len(inner);
        stats
    }

    /// Clear the overlay (recovery: only committed, visible-to-all rows
    /// survive a restart, so the rebuilt overlay is empty).
    pub fn reset(&self) {
        let mut inner = self.inner.lock();
        *inner = Inner::default();
        self.publish_len(&inner);
    }
}

#[derive(Default)]
struct OracleInner {
    latest: u64,
    /// Pinned snapshot timestamps with reference counts.
    pins: BTreeMap<u64, u64>,
}

/// The monotonic commit-timestamp authority.
///
/// Timestamp 0 is the beginning of time (everything loaded at recovery is
/// committed at 0); the first commit gets 1. A snapshot at `ts` sees every
/// version with commit timestamp `<= ts`.
#[derive(Default)]
pub struct CommitOracle {
    inner: Mutex<OracleInner>,
}

impl CommitOracle {
    /// A fresh oracle at timestamp 0.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// The latest committed timestamp.
    pub fn latest(&self) -> u64 {
        self.inner.lock().latest
    }

    /// Pin the current timestamp for a reader. The pin holds GC back until
    /// the guard drops.
    pub fn pin(self: &Arc<Self>) -> SnapshotGuard {
        let mut inner = self.inner.lock();
        let ts = inner.latest;
        *inner.pins.entry(ts).or_insert(0) += 1;
        SnapshotGuard { oracle: Arc::clone(self), ts }
    }

    /// Allocate the next commit timestamp, run `publish` (the version-store
    /// flips) with it, then advance `latest`. The whole sequence is one
    /// critical section: no reader can pin a timestamp whose versions are
    /// still mid-flip.
    pub fn commit<F: FnOnce(u64)>(&self, publish: F) -> u64 {
        let mut inner = self.inner.lock();
        let ts = inner.latest + 1;
        publish(ts);
        inner.latest = ts;
        ts
    }

    /// Number of snapshot pins currently held (diagnostics).
    pub fn pins(&self) -> u64 {
        self.inner.lock().pins.values().sum()
    }

    /// `(oldest pinned timestamp or latest if none, whether no pins exist)`
    /// — the GC horizon.
    pub fn min_active(&self) -> (u64, bool) {
        let inner = self.inner.lock();
        match inner.pins.keys().next() {
            Some(ts) => (*ts, false),
            None => (inner.latest, true),
        }
    }
}

/// RAII pin on a snapshot timestamp; dropping releases the pin.
pub struct SnapshotGuard {
    oracle: Arc<CommitOracle>,
    ts: u64,
}

impl SnapshotGuard {
    /// The pinned timestamp.
    pub fn ts(&self) -> u64 {
        self.ts
    }
}

impl std::fmt::Debug for SnapshotGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotGuard").field("ts", &self.ts).finish()
    }
}

impl Drop for SnapshotGuard {
    fn drop(&mut self) {
        let mut inner = self.oracle.inner.lock();
        if let Some(count) = inner.pins.get_mut(&self.ts) {
            *count -= 1;
            if *count == 0 {
                inner.pins.remove(&self.ts);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn row(n: i64) -> Tuple {
        Tuple::new(vec![Value::Int(n)])
    }

    fn page_rows(
        store: &VersionStore,
        view: ReadView,
        page: PageId,
        live: &[(u16, i64)],
    ) -> Vec<i64> {
        let mut rows: Vec<(Rid, Tuple)> =
            live.iter().map(|(s, n)| (Rid::new(page, *s), row(*n))).collect();
        store.filter_page(view, page, &mut rows, None).unwrap();
        rows.into_iter()
            .map(|(_, t)| match t.get(0) {
                Value::Int(n) => *n,
                other => panic!("unexpected {other:?}"),
            })
            .collect()
    }

    #[test]
    fn empty_overlay_is_transparent() {
        let store = VersionStore::new();
        let view = ReadView::new(0, 0);
        assert_eq!(page_rows(&store, view, PageId(1), &[(0, 10), (1, 20)]), vec![10, 20]);
    }

    #[test]
    fn pending_insert_visible_only_to_writer() {
        let store = VersionStore::new();
        let rid = Rid::new(PageId(1), 1);
        store.note_insert(rid, 7);
        assert_eq!(
            page_rows(&store, ReadView::new(5, 0), PageId(1), &[(0, 10), (1, 20)]),
            vec![10]
        );
        assert_eq!(
            page_rows(&store, ReadView::new(5, 7), PageId(1), &[(0, 10), (1, 20)]),
            vec![10, 20]
        );
        store.commit(7, 6);
        assert_eq!(
            page_rows(&store, ReadView::new(5, 0), PageId(1), &[(0, 10), (1, 20)]),
            vec![10]
        );
        assert_eq!(
            page_rows(&store, ReadView::new(6, 0), PageId(1), &[(0, 10), (1, 20)]),
            vec![10, 20]
        );
    }

    #[test]
    fn deleted_row_stays_visible_to_old_snapshots() {
        let store = VersionStore::new();
        let rid = Rid::new(PageId(3), 0);
        store.note_delete(rid, row(42).encode(), 9);
        // Register-then-delete window: live copy still present — no dup.
        assert_eq!(page_rows(&store, ReadView::new(1, 0), PageId(3), &[(0, 42)]), vec![42]);
        // After the heap delete: merged from the dead version.
        assert_eq!(page_rows(&store, ReadView::new(1, 0), PageId(3), &[]), vec![42]);
        // The deleter itself sees it gone.
        assert_eq!(page_rows(&store, ReadView::new(1, 9), PageId(3), &[]), Vec::<i64>::new());
        store.commit(9, 4);
        assert_eq!(page_rows(&store, ReadView::new(3, 0), PageId(3), &[]), vec![42]);
        assert_eq!(page_rows(&store, ReadView::new(4, 0), PageId(3), &[]), Vec::<i64>::new());
    }

    #[test]
    fn aborted_delete_keeps_row_in_place() {
        let store = VersionStore::new();
        let rid = Rid::new(PageId(3), 0);
        store.note_delete(rid, row(42).encode(), 9);
        // Rollback restores the row at its own rid.
        store.abort(9);
        let view = ReadView::new(1, 0);
        // A scan that decoded the slot live deduplicates the dead version;
        // one that decoded it tombstoned finds the row through it.
        assert_eq!(page_rows(&store, view, PageId(3), &[(0, 42)]), vec![42]);
        assert_eq!(page_rows(&store, view, PageId(3), &[]), vec![42]);

        // GC with pins outstanding keeps the dead version.
        let none = HashSet::new();
        let s = store.vacuum(10, false, &none);
        assert_eq!(s.dead_removed + s.created_removed, 0);
        // With no pins, it goes; the live row stands alone.
        assert_eq!(store.vacuum(10, true, &none).dead_removed, 1);
        assert_eq!(store.stats().dead, 0);
        assert_eq!(page_rows(&store, view, PageId(3), &[(0, 42)]), vec![42]);
    }

    #[test]
    fn vacuum_reaps_an_aborted_insert_then_delete() {
        let store = VersionStore::new();
        let rid = Rid::new(PageId(3), 0);
        store.note_insert(rid, 9);
        store.note_delete(rid, row(42).encode(), 9);
        store.abort(9);
        assert_eq!(page_rows(&store, ReadView::new(1, 0), PageId(3), &[]), Vec::<i64>::new());
        let s = store.vacuum(10, true, &HashSet::new());
        assert_eq!((s.dead_removed, s.created_removed), (1, 1));
    }

    #[test]
    fn delete_after_a_rolled_back_delete_keeps_one_dead_version() {
        let store = VersionStore::new();
        let rid = Rid::new(PageId(3), 0);
        store.note_delete(rid, row(42).encode(), 9);
        store.abort(9);
        // A second transaction deletes the restored row: the dead version
        // is re-pointed, not duplicated.
        store.note_delete(rid, row(42).encode(), 11);
        assert_eq!(store.stats().dead, 1);
        store.commit(11, 2);
        let old = ReadView::new(1, 0);
        assert_eq!(page_rows(&store, old, PageId(3), &[]), vec![42]);
        assert_eq!(probe_keys(&store, old, Some(42), Some(42), &[]), vec![42]);
        let new = ReadView::new(2, 0);
        assert_eq!(page_rows(&store, new, PageId(3), &[]), Vec::<i64>::new());
        assert_eq!(probe_keys(&store, new, Some(42), Some(42), &[]), vec![]);
    }

    #[test]
    fn vacuum_reclaims_below_horizon_only() {
        let store = VersionStore::new();
        let rid = Rid::new(PageId(1), 0);
        store.note_delete(rid, row(1).encode(), 3);
        store.commit(3, 5);
        let none = HashSet::new();
        assert_eq!(store.vacuum(4, false, &none).dead_removed, 0);
        assert_eq!(page_rows(&store, ReadView::new(4, 0), PageId(1), &[]), vec![1]);
        assert_eq!(store.vacuum(5, false, &none).dead_removed, 1);
        assert_eq!(store.stats().dead, 0);
        assert_eq!(store.gc_totals().0, 1);
    }

    #[test]
    fn oracle_pins_bound_the_horizon() {
        let oracle = CommitOracle::new();
        assert_eq!(oracle.min_active(), (0, true));
        oracle.commit(|_| {});
        oracle.commit(|_| {});
        assert_eq!(oracle.latest(), 2);
        let pin = oracle.pin();
        assert_eq!(pin.ts(), 2);
        oracle.commit(|_| {});
        let pin2 = oracle.pin();
        assert_eq!(pin2.ts(), 3);
        assert_eq!(oracle.min_active(), (2, false));
        drop(pin);
        assert_eq!(oracle.min_active(), (3, false));
        drop(pin2);
        assert_eq!(oracle.min_active(), (3, true));
    }

    #[test]
    fn commit_publish_runs_inside_the_allocation() {
        let oracle = CommitOracle::new();
        let store = VersionStore::new();
        let rid = Rid::new(PageId(1), 0);
        store.note_insert(rid, 5);
        let ts = oracle.commit(|t| store.commit(5, t));
        assert_eq!(ts, 1);
        assert_eq!(probe_keys(&store, ReadView::new(1, 0), None, None, &[(rid, 7)]), vec![7]);
        assert_eq!(probe_keys(&store, ReadView::new(0, 0), None, None, &[(rid, 7)]), vec![]);
    }

    /// Run `filter_probe` over single-column rows keyed on column 0;
    /// returns the surviving keys, sorted.
    fn probe_keys(
        store: &VersionStore,
        view: ReadView,
        lo: Option<i64>,
        hi: Option<i64>,
        live: &[(Rid, i64)],
    ) -> Vec<i64> {
        let mut rows: Vec<(Rid, Tuple)> = live.iter().map(|(r, n)| (*r, row(*n))).collect();
        store.filter_probe(view, 0, lo, hi, &mut rows).unwrap();
        let mut keys: Vec<i64> = rows.iter().map(|(_, t)| t.get(0).as_int().unwrap()).collect();
        keys.sort_unstable();
        keys
    }

    #[test]
    fn probe_through_an_empty_overlay_is_a_no_op() {
        let store = VersionStore::new();
        let live = [(Rid::new(PageId(1), 0), 10), (Rid::new(PageId(2), 3), 20)];
        // Not even the key bounds are applied: the tree already did that.
        assert_eq!(
            probe_keys(&store, ReadView::new(0, 0), Some(15), Some(15), &live),
            vec![10, 20]
        );
    }

    #[test]
    fn probe_hides_pending_inserts_from_other_views() {
        let store = VersionStore::new();
        let old = Rid::new(PageId(1), 0);
        let new = Rid::new(PageId(1), 1);
        store.note_insert(new, 7);
        let live = [(old, 10), (new, 11)];
        assert_eq!(probe_keys(&store, ReadView::new(5, 0), None, None, &live), vec![10]);
        assert_eq!(probe_keys(&store, ReadView::new(5, 7), None, None, &live), vec![10, 11]);
        store.commit(7, 6);
        assert_eq!(probe_keys(&store, ReadView::new(5, 0), None, None, &live), vec![10]);
        assert_eq!(probe_keys(&store, ReadView::new(6, 0), None, None, &live), vec![10, 11]);
    }

    #[test]
    fn probe_merges_deletes_the_view_cannot_see() {
        let store = VersionStore::new();
        let rid = Rid::new(PageId(3), 0);
        store.note_delete(rid, row(42).encode(), 9);
        // The tree no longer names the rid: only the overlay finds the row.
        assert_eq!(probe_keys(&store, ReadView::new(1, 0), Some(42), Some(42), &[]), vec![42]);
        assert_eq!(probe_keys(&store, ReadView::new(1, 9), Some(42), Some(42), &[]), vec![]);
        store.commit(9, 4);
        assert_eq!(probe_keys(&store, ReadView::new(3, 0), Some(42), Some(42), &[]), vec![42]);
        assert_eq!(probe_keys(&store, ReadView::new(4, 0), Some(42), Some(42), &[]), vec![]);
    }

    #[test]
    fn probe_merges_only_dead_versions_inside_the_key_bounds() {
        let store = VersionStore::new();
        // Dead versions on three different pages: the merge is by key.
        for (page, key) in [(1u64, 10), (2, 20), (3, 30)] {
            store.note_delete(Rid::new(PageId(page), 0), row(key).encode(), 9);
        }
        store.note_delete(Rid::new(PageId(4), 0), Tuple::new(vec![Value::Null]).encode(), 9);
        let view = ReadView::new(1, 0);
        assert_eq!(probe_keys(&store, view, Some(20), Some(20), &[]), vec![20]);
        assert_eq!(probe_keys(&store, view, Some(15), None, &[]), vec![20, 30]);
        assert_eq!(probe_keys(&store, view, None, Some(20), &[]), vec![10, 20]);
        assert_eq!(probe_keys(&store, view, Some(21), Some(29), &[]), vec![]);
        // A NULL key matches no bound — not even the open one.
        assert_eq!(probe_keys(&store, view, None, None, &[]), vec![10, 20, 30]);
    }

    #[test]
    fn probe_dedups_a_dead_version_against_its_still_live_rid() {
        let store = VersionStore::new();
        let rid = Rid::new(PageId(3), 0);
        store.note_delete(rid, row(42).encode(), 9);
        // Register-then-delete window: tree and heap still hold the row.
        assert_eq!(
            probe_keys(&store, ReadView::new(1, 0), Some(42), Some(42), &[(rid, 42)]),
            vec![42]
        );
    }

    #[test]
    fn probe_sees_a_rolled_back_delete_once_in_place() {
        let store = VersionStore::new();
        let rid = Rid::new(PageId(3), 0);
        store.note_delete(rid, row(42).encode(), 9);
        store.abort(9);
        let view = ReadView::new(1, 0);
        // The tree names the restored rid: the dead version deduplicates.
        assert_eq!(probe_keys(&store, view, Some(42), Some(42), &[(rid, 42)]), vec![42]);
        // The probe ran before the restore: the dead version stands in.
        assert_eq!(probe_keys(&store, view, Some(42), Some(42), &[]), vec![42]);
        store.vacuum(10, true, &HashSet::new());
        assert_eq!(probe_keys(&store, view, Some(42), Some(42), &[(rid, 42)]), vec![42]);
    }
}
