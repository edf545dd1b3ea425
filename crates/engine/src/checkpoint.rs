//! Checkpointing and checkpointed recovery.
//!
//! A checkpoint is: rotate the WAL to a fresh segment, capture a
//! [`Snapshot`] of every table and index, save it atomically, then delete
//! the log segments below the rotation point — all while the caller holds
//! every partition lock, so no writer is mid-statement. The servers get
//! those locks by running `CHECKPOINT` as a statement whose lock set is
//! every partition, through the same lock path as any writer; this module
//! does not lock. Recovery is the inverse: restore the snapshot, replay
//! only the WAL *tail* at or after the snapshot's LSN, repair the log
//! tail, and carry on. Every step is a plain function so crash torture
//! tests can kill the protocol between any two steps.
//!
//! Crash safety falls out of the step order — each step leaves a state
//! recovery handles:
//!
//! 1. crash after *rotate*, before *save*: the old snapshot (or none) is
//!    loaded, and the whole surviving log replays — rotation only added a
//!    segment boundary.
//! 2. crash after *save*, before *truncate*: the new snapshot loads and
//!    replay starts at its LSN, skipping the stale segments that were due
//!    for deletion.
//! 3. crash mid-*truncate*: deletion proceeds oldest-first, so the
//!    surviving segments are still contiguous from some id up; the ones
//!    below the checkpoint LSN are ignored by tail replay anyway.

use crate::context::ExecContext;
use crate::dml::apply_records;
use crate::error::EngineResult;
use crate::txn::TxnManager;
use staged_storage::snapshot::Snapshot;
use staged_storage::wal::{Lsn, Wal};
use staged_storage::{Catalog, SegmentStore, SnapshotStore, StorageError, VacuumStats};
use std::sync::Arc;

/// What a completed checkpoint did (reported on the wire as the
/// `CHECKPOINT` command's result).
#[derive(Debug, Clone, Copy)]
pub struct CheckpointOutcome {
    /// The snapshot's anchor: recovery replays the log from here.
    pub lsn: Lsn,
    /// Tables captured.
    pub tables: usize,
    /// Rows captured.
    pub rows: u64,
    /// Sealed segments deleted from below the checkpoint LSN.
    pub segments_deleted: u64,
}

/// What a recovery pass found and did.
#[derive(Debug)]
pub struct RecoveryReport {
    /// Rows restored from the snapshot (0 when no snapshot existed).
    pub snapshot_rows: u64,
    /// Log records applied from the tail.
    pub replayed: u64,
    /// Where tail replay started ([`Lsn::ZERO`] without a snapshot).
    pub checkpoint_lsn: Lsn,
    /// Damage found at the end of the usable log, if any. Everything up
    /// to the damage point was applied; a cleanly torn tail (the normal
    /// crash shape) reports `None`.
    pub corruption: Option<StorageError>,
    /// The highest xid in the replayed log (0 if none). New transactions
    /// must number past it ([`TxnManager::resume_after`]): a reused xid
    /// would make an old aborted run's records replay under a new
    /// `Commit`.
    pub max_xid: u64,
}

/// Steps 1–2 of a checkpoint, under locks the *caller* already holds:
/// flush and rotate the WAL, then capture a snapshot anchored at the new
/// segment's start. Exposed separately so torture tests can crash between
/// capture and save.
pub fn snapshot_catalog(catalog: &Catalog, wal: &Wal) -> EngineResult<(Lsn, Snapshot)> {
    wal.flush()?;
    let lsn = wal.rotate()?;
    let snap = Snapshot::capture(catalog, lsn)?;
    Ok((lsn, snap))
}

/// A full checkpoint under locks the caller already holds (every
/// partition's): snapshot, save atomically, truncate the log below the
/// snapshot's LSN. On any error the log is left intact — at worst a
/// saved snapshot goes unused until the next attempt.
pub fn checkpoint(
    catalog: &Catalog,
    wal: &Wal,
    snapshots: &dyn SnapshotStore,
) -> EngineResult<CheckpointOutcome> {
    checkpoint_with_floor(catalog, wal, snapshots, None)
}

/// [`checkpoint`] with a truncation floor: segments at or above
/// `min(floor, snapshot LSN)` survive. Replication supplies the minimum
/// LSN acknowledged by a connected replica as the floor, so a lagging
/// replica's unshipped history is never deleted out from under it — the
/// checkpoint itself (snapshot anchor, recovery point) is unaffected,
/// only log retention is.
pub fn checkpoint_with_floor(
    catalog: &Catalog,
    wal: &Wal,
    snapshots: &dyn SnapshotStore,
    floor: Option<Lsn>,
) -> EngineResult<CheckpointOutcome> {
    let (lsn, snap) = snapshot_catalog(catalog, wal)?;
    snapshots.save(&snap.encode())?;
    let truncate_at = match floor {
        Some(f) => f.min(lsn),
        None => lsn,
    };
    let segments_deleted = wal.truncate_below(truncate_at)?;
    Ok(CheckpointOutcome {
        lsn,
        tables: snap.tables.len(),
        rows: snap.row_count(),
        segments_deleted,
    })
}

/// Garbage-collect every table's MVCC version overlay. Must run while the
/// caller holds every partition lock: with no DML in flight,
/// a transaction absent from [`TxnManager::active_xids`] is guaranteed
/// finished — not mid-commit — so its leftover `Pending` stamps are dead
/// and reapable. Timestamp-based reclamation is bounded by the oracle's
/// oldest pinned snapshot; reaping those `Pending` stamps additionally
/// requires that *no* snapshot is pinned at all.
/// Long-running `BEGIN READ ONLY` sessions therefore delay GC, never
/// correctness.
pub fn vacuum(catalog: &Catalog, mgr: &TxnManager) -> VacuumStats {
    let (min_ts, pins_empty) = mgr.oracle().min_active();
    let live = mgr.active_xids();
    let mut total = VacuumStats::default();
    for table in catalog.list_tables() {
        total.add(table.versions.vacuum(min_ts, pins_empty, &live));
    }
    total
}

/// Checkpointed recovery into an *empty* catalog: load the latest
/// snapshot (if any), restore it — every table under its id, every row at
/// its rid — replay only the WAL tail at or after its LSN through
/// [`apply_records`], which finds snapshotted rows at the rids the tail
/// names, then open (and thereby tail-repair) the WAL for new appends.
///
/// The log is read with the tolerant store readers *before* the WAL is
/// opened: a cleanly torn tail ends replay silently, while corruption in
/// front of valid data is reported in the [`RecoveryReport`] after the
/// intact prefix has been applied. This function never panics on log
/// damage.
pub fn recover(
    ctx: &ExecContext,
    segments: Arc<dyn SegmentStore>,
    snapshots: &dyn SnapshotStore,
    segment_pages: u64,
) -> EngineResult<(Wal, RecoveryReport)> {
    let (checkpoint_lsn, snapshot_rows) = match snapshots.load()? {
        Some(bytes) => {
            let snap = Snapshot::decode(&bytes)?;
            snap.restore(&ctx.catalog)?;
            (snap.lsn, snap.row_count())
        }
        None => (Lsn::ZERO, 0),
    };
    let (records, corruption) = Wal::read_store_from(segments.as_ref(), checkpoint_lsn);
    let replayed = apply_records(ctx, &records)?;
    let max_xid = records.iter().map(|(_, r)| r.xid()).max().unwrap_or(0);
    let wal = Wal::open_with_segment_pages(segments, segment_pages)?;
    // Only committed — visible-to-everyone — data survives a crash, so the
    // recovered overlay is empty. (The catalog object may persist across a
    // simulated crash in tests; reset makes the overlay state follow the
    // data, not the object lifetime.)
    for table in ctx.catalog.list_tables() {
        table.versions.reset();
    }
    Ok((wal, RecoveryReport { snapshot_rows, replayed, checkpoint_lsn, corruption, max_xid }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dml::{insert_rows, DmlLog};
    use staged_storage::wal::LogRecord;
    use staged_storage::{
        BufferPool, Column, DataType, MemDisk, MemSegmentStore, MemSnapshotStore, Schema, Tuple,
        Value,
    };

    fn fresh_ctx() -> ExecContext {
        let pool = BufferPool::new(Arc::new(MemDisk::new()), 256);
        ExecContext::new(Arc::new(Catalog::new(pool)))
    }

    fn ctx_with_table(partitions: usize) -> ExecContext {
        let ctx = fresh_ctx();
        ctx.catalog
            .create_table_partitioned(
                "t",
                Schema::new(vec![
                    Column::new("id", DataType::Int),
                    Column::new("v", DataType::Int),
                ]),
                partitions,
                0,
            )
            .unwrap();
        ctx.catalog.create_index("t_id", "t", "id").unwrap();
        ctx
    }

    fn committed_insert(ctx: &ExecContext, wal: &Wal, xid: u64, ids: std::ops::Range<i64>) {
        let t = ctx.catalog.table("t").unwrap();
        wal.append(&LogRecord::Begin { xid }).unwrap();
        let rows: Vec<Tuple> =
            ids.map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i * 10)])).collect();
        insert_rows(ctx, &t, rows, Some(&DmlLog::wal_only(wal, xid))).unwrap();
        wal.append(&LogRecord::Commit { xid }).unwrap();
    }

    fn ids_of(ctx: &ExecContext) -> Vec<i64> {
        let t = ctx.catalog.table("t").unwrap();
        let mut ids: Vec<i64> =
            t.heap.scan().map(|r| r.unwrap().1.get(0).as_int().unwrap()).collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn checkpoint_then_recover_replays_only_the_tail() {
        let segments = Arc::new(MemSegmentStore::new());
        let snapshots = MemSnapshotStore::new();
        let ctx = ctx_with_table(2);
        let wal = Wal::open_with_segment_pages(segments.clone(), 1).unwrap();

        committed_insert(&ctx, &wal, 1, 0..50);
        let outcome = checkpoint(&ctx.catalog, &wal, &snapshots).unwrap();
        assert_eq!(outcome.rows, 50);
        assert!(outcome.segments_deleted >= 1, "history must be truncated");
        committed_insert(&ctx, &wal, 2, 50..60);
        drop(wal);

        let ctx2 = fresh_ctx();
        let (_, report) = recover(&ctx2, segments.clone(), &snapshots, 1).unwrap();
        assert_eq!(report.snapshot_rows, 50);
        assert!(report.corruption.is_none());
        assert_eq!(report.checkpoint_lsn, outcome.lsn);
        assert_eq!(ids_of(&ctx2), (0..60).collect::<Vec<i64>>());
        // The index came back through the snapshot too.
        let t = ctx2.catalog.table("t").unwrap();
        let ix = ctx2.catalog.index_on(t.id, 0).unwrap();
        assert_eq!(ix.search(55).unwrap().len(), 1);
    }

    #[test]
    fn tail_delete_of_a_snapshotted_row_finds_it_at_its_logged_rid() {
        let segments = Arc::new(MemSegmentStore::new());
        let snapshots = MemSnapshotStore::new();
        let ctx = ctx_with_table(2);
        let wal = Wal::open_with_segment_pages(segments.clone(), 1).unwrap();

        committed_insert(&ctx, &wal, 1, 0..20);
        checkpoint(&ctx.catalog, &wal, &snapshots).unwrap();
        // Post-checkpoint: delete a row that only the snapshot knows.
        let t = ctx.catalog.table("t").unwrap();
        wal.append(&LogRecord::Begin { xid: 2 }).unwrap();
        crate::dml::delete_rows(
            &ctx,
            &t,
            &Some(staged_sql::ast::Expr::binary(
                staged_sql::ast::Expr::Column(staged_sql::ast::ColumnRef {
                    table: None,
                    name: "id".into(),
                    index: Some(0),
                }),
                staged_sql::ast::BinOp::Eq,
                staged_sql::ast::Expr::int(7),
            )),
            Some(&DmlLog::wal_only(&wal, 2)),
        )
        .unwrap();
        wal.append(&LogRecord::Commit { xid: 2 }).unwrap();
        drop(wal);

        let ctx2 = fresh_ctx();
        let (_, report) = recover(&ctx2, segments, &snapshots, 1).unwrap();
        assert!(report.corruption.is_none());
        let expected: Vec<i64> = (0..20).filter(|i| *i != 7).collect();
        assert_eq!(ids_of(&ctx2), expected, "snapshotted row must be deletable from the tail");
        let t2 = ctx2.catalog.table("t").unwrap();
        let ix = ctx2.catalog.index_on(t2.id, 0).unwrap();
        assert!(ix.search(7).unwrap().is_empty(), "index entry of the deleted row must go");
    }

    #[test]
    fn truncation_floor_holds_back_history_for_lagging_replicas() {
        let segments = Arc::new(MemSegmentStore::new());
        let snapshots = MemSnapshotStore::new();
        let ctx = ctx_with_table(1);
        let wal = Wal::open_with_segment_pages(segments.clone(), 1).unwrap();
        committed_insert(&ctx, &wal, 1, 0..50);
        // A replica that has acked nothing pins the whole log.
        let held = checkpoint_with_floor(&ctx.catalog, &wal, &snapshots, Some(Lsn::ZERO)).unwrap();
        assert_eq!(held.segments_deleted, 0, "floor at ZERO must retain every segment");
        // Once the replica catches up (floor at the log tail), retention
        // reverts to the checkpoint LSN and history is reclaimed.
        committed_insert(&ctx, &wal, 2, 50..60);
        let tail = wal.next_lsn();
        let free = checkpoint_with_floor(&ctx.catalog, &wal, &snapshots, Some(tail)).unwrap();
        assert!(free.segments_deleted >= 1, "caught-up floor must not block truncation");
    }

    #[test]
    fn recover_without_any_snapshot_is_plain_redo() {
        let segments = Arc::new(MemSegmentStore::new());
        let snapshots = MemSnapshotStore::new();
        let ctx = ctx_with_table(1);
        let wal = Wal::open(segments.clone()).unwrap();
        committed_insert(&ctx, &wal, 1, 0..10);
        drop(wal);

        // Recovery re-creates the DDL (as the servers do), then replays.
        let ctx2 = ctx_with_table(1);
        let (_, report) = recover(&ctx2, segments, &snapshots, DEFAULT_PAGES).unwrap();
        assert_eq!(report.snapshot_rows, 0);
        assert_eq!(report.checkpoint_lsn, Lsn::ZERO);
        assert_eq!(ids_of(&ctx2), (0..10).collect::<Vec<i64>>());
    }

    const DEFAULT_PAGES: u64 = staged_storage::DEFAULT_SEGMENT_PAGES;
}
