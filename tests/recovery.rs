//! Failure injection and WAL-based redo recovery.

use staged_db::engine::context::ExecContext;
use staged_db::engine::dml;
use staged_db::storage::wal::{LogRecord, Wal};
use staged_db::storage::{
    BufferPool, Catalog, Column, DataType, MemDisk, Rid, Schema, StorageError, Tuple, Value,
};
use std::sync::Arc;

fn setup() -> (ExecContext, Arc<staged_db::storage::catalog::TableInfo>, Wal) {
    let pool = BufferPool::new(Arc::new(MemDisk::new()), 256);
    let catalog = Arc::new(Catalog::new(pool));
    let t = catalog
        .create_table(
            "t",
            Schema::new(vec![Column::new("id", DataType::Int), Column::new("v", DataType::Int)]),
        )
        .unwrap();
    (ExecContext::new(catalog), t, Wal::in_memory())
}

#[test]
fn redo_replay_rebuilds_table_contents() {
    let (ctx, t, wal) = setup();
    let rows: Vec<Tuple> =
        (0..50).map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i * i)])).collect();
    dml::insert_rows(&ctx, &t, rows, Some(&dml::DmlLog::wal_only(&wal, 1))).unwrap();
    let id_col = staged_db::sql::Expr::Column(staged_db::sql::ast::ColumnRef {
        table: None,
        name: "id".into(),
        index: Some(0),
    });
    dml::delete_rows(
        &ctx,
        &t,
        &Some(staged_db::sql::Expr::binary(
            id_col,
            staged_db::sql::ast::BinOp::Lt,
            staged_db::sql::Expr::int(10),
        )),
        Some(&dml::DmlLog::wal_only(&wal, 1)),
    )
    .unwrap();
    wal.append(&LogRecord::Commit { xid: 1 }).unwrap();

    // "Crash": replay the log into a fresh table and compare.
    let (ctx2, t2, _) = setup();
    assert_eq!(dml::redo(&ctx2, &wal).unwrap(), 60);
    let rows = |t: &staged_db::storage::catalog::TableInfo| -> Vec<(Rid, Tuple)> {
        t.heap.scan().map(|r| r.unwrap()).collect()
    };
    let survivors = rows(&t2);
    assert_eq!(survivors.len(), 40);
    assert!(survivors.iter().all(|(_, row)| row.get(0).as_int().unwrap() >= 10));
    // Every row is back at the rid it had in the live table.
    assert_eq!(survivors, rows(&t));
}

#[test]
fn redo_rebuilds_partitioned_table_and_indexes_byte_for_byte() {
    let parts = 4usize;
    let mk_catalog = || {
        let pool = BufferPool::new(Arc::new(MemDisk::new()), 512);
        let catalog = Arc::new(Catalog::new(pool));
        catalog
            .create_table_partitioned(
                "p",
                Schema::new(vec![
                    Column::new("id", DataType::Int),
                    Column::new("v", DataType::Int),
                ]),
                parts,
                0,
            )
            .unwrap();
        catalog.create_index("p_id", "p", "id").unwrap();
        ExecContext::new(catalog)
    };
    let ctx = mk_catalog();
    let t = ctx.catalog.table("p").unwrap();
    let wal = Wal::in_memory();
    let rows: Vec<Tuple> =
        (0..200).map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i * 3)])).collect();
    dml::insert_rows(&ctx, &t, rows, Some(&dml::DmlLog::wal_only(&wal, 1))).unwrap();
    // Mixed workload: a ranged delete and a keyed update, all WAL-logged.
    let id_col = staged_db::sql::Expr::Column(staged_db::sql::ast::ColumnRef {
        table: None,
        name: "id".into(),
        index: Some(0),
    });
    let lt = |n| {
        Some(staged_db::sql::Expr::binary(
            id_col.clone(),
            staged_db::sql::ast::BinOp::Lt,
            staged_db::sql::Expr::int(n),
        ))
    };
    dml::delete_rows(&ctx, &t, &lt(30), Some(&dml::DmlLog::wal_only(&wal, 1))).unwrap();
    let eq_77 = Some(staged_db::sql::Expr::binary(
        id_col.clone(),
        staged_db::sql::ast::BinOp::Eq,
        staged_db::sql::Expr::int(77),
    ));
    // Key 77 → 501: the row must hop to partition hash(501).
    dml::update_rows(
        &ctx,
        &t,
        &[(0, staged_db::sql::Expr::int(501))],
        &eq_77,
        Some(&dml::DmlLog::wal_only(&wal, 1)),
    )
    .unwrap();
    wal.append(&LogRecord::Commit { xid: 1 }).unwrap();

    // "Crash": fresh catalog of the same shape, then WAL redo.
    let ctx2 = mk_catalog();
    let applied = dml::redo(&ctx2, &wal).unwrap();
    assert!(applied >= 200, "redo applied only {applied} records");
    let t2 = ctx2.catalog.table("p").unwrap();

    // Byte-for-byte per partition: identical sorted encodings.
    assert_eq!(t2.heap.partitions(), parts);
    for p in 0..parts {
        let enc = |heap: &staged_db::storage::PartitionedHeap| {
            let mut v: Vec<Vec<u8>> =
                heap.scan_partition(p).map(|r| r.unwrap().1.encode()).collect();
            v.sort();
            v
        };
        assert_eq!(enc(&t.heap), enc(&t2.heap), "partition {p} differs after redo");
    }
    // Per-partition index entries came back too: every surviving key is in
    // exactly the partition its row hashed to, in both catalogs.
    let ix = ctx2.catalog.index_on(t2.id, 0).unwrap();
    let live: Vec<i64> = (30..200).filter(|k| *k != 77).chain([501]).collect();
    for k in live {
        let p = staged_db::storage::partition_of_value(&Value::Int(k), parts);
        assert_eq!(ix.btree_for(p).search(k).unwrap().len(), 1, "key {k}");
        for q in (0..parts).filter(|q| *q != p) {
            assert!(ix.btree_for(q).search(k).unwrap().is_empty(), "key {k} leaked");
        }
    }
    assert!(ix.search(12).unwrap().is_empty(), "deleted key resurrected");
    assert!(ix.search(77).unwrap().is_empty(), "pre-update key resurrected");
    assert_eq!(t2.heap.count().unwrap(), 170);
}

/// A crash landing between `Begin` and `Commit` must erase the in-flight
/// transaction: redo replays only transactions with a durable commit
/// record, at every partition count.
#[test]
fn crash_between_begin_and_commit_replays_only_committed_txns() {
    for parts in [1usize, 2, 4] {
        let mk_catalog = || {
            let pool = BufferPool::new(Arc::new(MemDisk::new()), 512);
            let catalog = Arc::new(Catalog::new(pool));
            catalog
                .create_table_partitioned(
                    "p",
                    Schema::new(vec![
                        Column::new("id", DataType::Int),
                        Column::new("v", DataType::Int),
                    ]),
                    parts,
                    0,
                )
                .unwrap();
            catalog.create_index("p_id", "p", "id").unwrap();
            ExecContext::new(catalog)
        };
        let ctx = mk_catalog();
        let t = ctx.catalog.table("p").unwrap();
        let wal = Wal::in_memory();

        // Transaction 1 commits 100 rows.
        wal.append(&LogRecord::Begin { xid: 1 }).unwrap();
        let rows: Vec<Tuple> =
            (0..100).map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i)])).collect();
        dml::insert_rows(&ctx, &t, rows, Some(&dml::DmlLog::wal_only(&wal, 1))).unwrap();
        wal.append(&LogRecord::Commit { xid: 1 }).unwrap();

        // Transaction 2 inserts new rows AND deletes committed ones — then
        // the "crash" happens before its commit record.
        wal.append(&LogRecord::Begin { xid: 2 }).unwrap();
        let more: Vec<Tuple> =
            (1000..1020).map(|i| Tuple::new(vec![Value::Int(i), Value::Int(0)])).collect();
        let log2 = dml::DmlLog::wal_only(&wal, 2);
        dml::insert_rows(&ctx, &t, more, Some(&log2)).unwrap();
        let id_col = staged_db::sql::Expr::Column(staged_db::sql::ast::ColumnRef {
            table: None,
            name: "id".into(),
            index: Some(0),
        });
        let lt_10 = Some(staged_db::sql::Expr::binary(
            id_col,
            staged_db::sql::ast::BinOp::Lt,
            staged_db::sql::Expr::int(10),
        ));
        dml::delete_rows(&ctx, &t, &lt_10, Some(&log2)).unwrap();
        wal.flush().unwrap(); // records are durable, the commit is not

        // Transaction 3 aborted explicitly; equally invisible to redo.
        wal.append(&LogRecord::Begin { xid: 3 }).unwrap();
        let aborted: Vec<Tuple> =
            (2000..2005).map(|i| Tuple::new(vec![Value::Int(i), Value::Int(0)])).collect();
        dml::insert_rows(&ctx, &t, aborted, Some(&dml::DmlLog::wal_only(&wal, 3))).unwrap();
        wal.append(&LogRecord::Abort { xid: 3 }).unwrap();
        wal.flush().unwrap();

        let ctx2 = mk_catalog();
        let applied = dml::redo(&ctx2, &wal).unwrap();
        assert_eq!(applied, 100, "{parts} partitions: exactly txn 1's inserts replay");
        let t2 = ctx2.catalog.table("p").unwrap();
        assert_eq!(t2.heap.count().unwrap(), 100, "{parts} partitions");
        let ids: std::collections::HashSet<i64> =
            t2.heap.scan().map(|r| r.unwrap().1.get(0).as_int().unwrap()).collect();
        assert_eq!(ids, (0..100).collect(), "{parts} partitions: uncommitted writes leaked");
        // The uncommitted delete of rows 0..10 must not have replayed, and
        // their index entries must be intact in the partition they hash to.
        let ix = ctx2.catalog.index_on(t2.id, 0).unwrap();
        for k in 0..10 {
            assert_eq!(ix.search(k).unwrap().len(), 1, "{parts} partitions: key {k}");
        }
        assert!(ix.search(1000).unwrap().is_empty());
        assert!(ix.search(2000).unwrap().is_empty());
    }
}

#[test]
fn disk_full_surfaces_cleanly_mid_insert() {
    let pool = BufferPool::new(Arc::new(MemDisk::new().with_capacity(3)), 8);
    let catalog = Arc::new(Catalog::new(pool));
    let t = catalog.create_table("t", Schema::new(vec![Column::new("x", DataType::Str)])).unwrap();
    let big_row = Tuple::new(vec![Value::Str("y".repeat(4000))]);
    let mut inserted = 0;
    let err = loop {
        match t.heap.insert(&big_row) {
            Ok(_) => inserted += 1,
            Err(e) => break e,
        }
    };
    assert_eq!(err, StorageError::DiskFull);
    assert!(inserted >= 3, "three pages × ~2 rows fit before the disk fills");
    // Existing data remains readable.
    assert_eq!(t.heap.count().unwrap(), inserted);
}

#[test]
fn torn_page_is_reported_as_corruption() {
    let pool = BufferPool::new(Arc::new(MemDisk::new()), 8);
    let catalog = Arc::new(Catalog::new(Arc::clone(&pool)));
    let t = catalog.create_table("t", Schema::new(vec![Column::new("x", DataType::Int)])).unwrap();
    let rid = t.heap.insert(&Tuple::new(vec![Value::Int(1)])).unwrap();
    // Corrupt the record bytes in place (simulated torn write): the slot
    // now points at garbage that fails tuple decoding.
    let guard = pool.fetch(rid.page).unwrap();
    guard.write(|d| {
        for b in d[8100..].iter_mut() {
            *b = 0xFF;
        }
    });
    drop(guard);
    match t.heap.get(rid) {
        Err(StorageError::Corrupt(_)) => {}
        other => panic!("expected corruption error, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Checkpointed recovery: snapshot + tail replay, crash torture, torn logs
// ---------------------------------------------------------------------------

use staged_db::engine::checkpoint;
use staged_db::storage::{
    DiskManager, MemSegmentStore, MemSnapshotStore, SegmentStore, SnapshotStore,
};

/// A fresh context with the standard partitioned table + index used by the
/// checkpoint tests.
fn part_ctx(parts: usize) -> ExecContext {
    let pool = BufferPool::new(Arc::new(MemDisk::new()), 512);
    let catalog = Arc::new(Catalog::new(pool));
    catalog
        .create_table_partitioned(
            "p",
            Schema::new(vec![Column::new("id", DataType::Int), Column::new("v", DataType::Int)]),
            parts,
            0,
        )
        .unwrap();
    catalog.create_index("p_id", "p", "id").unwrap();
    ExecContext::new(catalog)
}

/// A bare (table-less) context for recovery paths where the snapshot
/// recreates the DDL.
fn empty_ctx() -> ExecContext {
    let pool = BufferPool::new(Arc::new(MemDisk::new()), 512);
    ExecContext::new(Arc::new(Catalog::new(pool)))
}

/// One committed transaction inserting `ids` (id, id * 10) rows.
fn commit_rows(ctx: &ExecContext, wal: &Wal, xid: u64, ids: std::ops::Range<i64>) {
    let t = ctx.catalog.table("p").unwrap();
    wal.append(&LogRecord::Begin { xid }).unwrap();
    let rows: Vec<Tuple> =
        ids.map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i * 10)])).collect();
    dml::insert_rows(ctx, &t, rows, Some(&dml::DmlLog::wal_only(wal, xid))).unwrap();
    wal.append(&LogRecord::Commit { xid }).unwrap();
}

fn sorted_ids(ctx: &ExecContext) -> Vec<i64> {
    let t = ctx.catalog.table("p").unwrap();
    let mut ids: Vec<i64> = t.heap.scan().map(|r| r.unwrap().1.get(0).as_int().unwrap()).collect();
    ids.sort_unstable();
    ids
}

/// The acceptance test of the checkpoint path: after a checkpoint, the
/// segments below the checkpoint LSN are *gone*, and recovery reads
/// strictly fewer log pages than a full-history replay of the identical
/// workload — proof that it replays only the tail.
#[test]
fn checkpoint_truncates_history_and_recovery_reads_only_the_tail() {
    // Two identical histories: one checkpointed, one not.
    let run = |checkpointed: bool| -> (Arc<MemSegmentStore>, MemSnapshotStore, u64) {
        let segments = Arc::new(MemSegmentStore::new());
        let snapshots = MemSnapshotStore::new();
        let ctx = part_ctx(2);
        // One page per segment: the 400-row history spreads over many
        // segments, so truncation has something to bite on.
        let wal = Wal::open_with_segment_pages(Arc::clone(&segments) as _, 1).unwrap();
        commit_rows(&ctx, &wal, 1, 0..2000);
        let mut deleted = 0;
        if checkpointed {
            let outcome = checkpoint::checkpoint(&ctx.catalog, &wal, &snapshots).unwrap();
            deleted = outcome.segments_deleted;
            // Every segment below the checkpoint LSN is gone from the store.
            let live = segments.list().unwrap();
            assert!(
                live.iter().all(|&id| id >= outcome.lsn.segment),
                "segments below the checkpoint LSN must be deleted, store holds {live:?}"
            );
        }
        commit_rows(&ctx, &wal, 2, 2000..2040);
        wal.flush().unwrap();
        (segments, snapshots, deleted)
    };

    let (cp_segments, cp_snapshots, deleted) = run(true);
    let (full_segments, full_snapshots, _) = run(false);
    assert!(deleted >= 5, "the 2000-row history must span many deleted segments, got {deleted}");

    // Recover both, metering segment-store page reads across recovery only.
    let cp_ctx = empty_ctx(); // snapshot recreates the DDL
    let before = cp_segments.io_stats().reads;
    let (_, cp_report) =
        checkpoint::recover(&cp_ctx, Arc::clone(&cp_segments) as _, &cp_snapshots, 1).unwrap();
    let cp_reads = cp_segments.io_stats().reads - before;

    let full_ctx = part_ctx(2); // no snapshot: recovery needs the DDL in place
    let before = full_segments.io_stats().reads;
    let (_, full_report) =
        checkpoint::recover(&full_ctx, Arc::clone(&full_segments) as _, &full_snapshots, 1)
            .unwrap();
    let full_reads = full_segments.io_stats().reads - before;

    // Same end state either way...
    assert_eq!(sorted_ids(&cp_ctx), (0..2040).collect::<Vec<i64>>());
    assert_eq!(sorted_ids(&full_ctx), (0..2040).collect::<Vec<i64>>());
    assert_eq!(cp_report.snapshot_rows, 2000);
    assert!(cp_report.corruption.is_none());
    assert_eq!(full_report.snapshot_rows, 0);
    // ...but the checkpointed store served strictly fewer log-page reads.
    assert!(
        cp_reads < full_reads,
        "tail replay must read fewer log pages than full history ({cp_reads} vs {full_reads})"
    );
    // And the snapshotted rows are reachable through the restored index.
    let t = cp_ctx.catalog.table("p").unwrap();
    let ix = cp_ctx.catalog.index_on(t.id, 0).unwrap();
    assert_eq!(ix.search(123).unwrap().len(), 1);
}

/// Kill the checkpoint protocol between each pair of steps — after the
/// snapshot is captured but not saved, after it is saved but nothing is
/// truncated, and halfway through truncation — at 1, 2 and 4 partitions.
/// Every crash point must recover the full committed state.
#[test]
fn crash_during_checkpoint_recovers_at_every_step_boundary() {
    for parts in [1usize, 2, 4] {
        // Crash point A: rotated + captured, never saved. The snapshot is
        // lost; the whole log survives and replays.
        {
            let segments = Arc::new(MemSegmentStore::new());
            let snapshots = MemSnapshotStore::new();
            let ctx = part_ctx(parts);
            let wal = Wal::open_with_segment_pages(Arc::clone(&segments) as _, 1).unwrap();
            commit_rows(&ctx, &wal, 1, 0..60);
            let (_lsn, snap) = checkpoint::snapshot_catalog(&ctx.catalog, &wal).unwrap();
            drop(snap); // "crash" before snapshots.save
            commit_rows(&ctx, &wal, 2, 60..80);
            wal.flush().unwrap();
            let ctx2 = part_ctx(parts); // no snapshot -> DDL must pre-exist
            let (_, report) =
                checkpoint::recover(&ctx2, Arc::clone(&segments) as _, &snapshots, 1).unwrap();
            assert!(report.corruption.is_none(), "{parts} partitions, crash A");
            assert_eq!(sorted_ids(&ctx2), (0..80).collect::<Vec<i64>>(), "{parts} parts, A");
        }
        // Crash point B: snapshot saved, nothing truncated. Recovery must
        // anchor at the snapshot and skip the stale segments cleanly.
        {
            let segments = Arc::new(MemSegmentStore::new());
            let snapshots = MemSnapshotStore::new();
            let ctx = part_ctx(parts);
            let wal = Wal::open_with_segment_pages(Arc::clone(&segments) as _, 1).unwrap();
            commit_rows(&ctx, &wal, 1, 0..60);
            let (lsn, snap) = checkpoint::snapshot_catalog(&ctx.catalog, &wal).unwrap();
            snapshots.save(&snap.encode()).unwrap(); // "crash" before truncate
            commit_rows(&ctx, &wal, 2, 60..80);
            wal.flush().unwrap();
            let ctx2 = empty_ctx();
            let (_, report) =
                checkpoint::recover(&ctx2, Arc::clone(&segments) as _, &snapshots, 1).unwrap();
            assert!(report.corruption.is_none(), "{parts} partitions, crash B");
            assert_eq!(report.checkpoint_lsn, lsn, "{parts} partitions, crash B");
            assert_eq!(report.snapshot_rows, 60, "{parts} partitions, crash B");
            assert_eq!(sorted_ids(&ctx2), (0..80).collect::<Vec<i64>>(), "{parts} parts, B");
        }
        // Crash point C: truncation killed halfway. truncate_below deletes
        // oldest-first, so the survivors are a contiguous suffix; recovery
        // skips them regardless.
        {
            let segments = Arc::new(MemSegmentStore::new());
            let snapshots = MemSnapshotStore::new();
            let ctx = part_ctx(parts);
            let wal = Wal::open_with_segment_pages(Arc::clone(&segments) as _, 1).unwrap();
            commit_rows(&ctx, &wal, 1, 0..600);
            let (lsn, snap) = checkpoint::snapshot_catalog(&ctx.catalog, &wal).unwrap();
            snapshots.save(&snap.encode()).unwrap();
            // Partial truncation: only the oldest half of the doomed
            // segments is gone when the "crash" lands.
            let doomed: Vec<u64> =
                segments.list().unwrap().into_iter().filter(|&id| id < lsn.segment).collect();
            assert!(doomed.len() >= 2, "{parts} partitions: need segments to half-delete");
            for &id in &doomed[..doomed.len() / 2] {
                segments.delete(id).unwrap();
            }
            commit_rows(&ctx, &wal, 2, 600..680);
            wal.flush().unwrap();
            let ctx2 = empty_ctx();
            let (_, report) =
                checkpoint::recover(&ctx2, Arc::clone(&segments) as _, &snapshots, 1).unwrap();
            assert!(report.corruption.is_none(), "{parts} partitions, crash C");
            assert_eq!(sorted_ids(&ctx2), (0..680).collect::<Vec<i64>>(), "{parts} parts, C");
        }
    }
}

/// A torn write on the final log page is the end of the log, not an
/// error: recovery applies everything before it and reports no damage.
#[test]
fn torn_tail_page_recovers_the_committed_prefix_silently() {
    let segments = Arc::new(MemSegmentStore::new());
    let snapshots = MemSnapshotStore::new();
    let ctx = part_ctx(2);
    let wal = Wal::open_with_segment_pages(Arc::clone(&segments) as _, 64).unwrap();
    // Six separate committed transactions of 100 rows each: tearing the
    // final page must lose whole *suffix* transactions, never earlier ones.
    for xid in 0..6u64 {
        commit_rows(&ctx, &wal, xid + 1, (xid as i64 * 100)..((xid as i64 + 1) * 100));
    }
    // Tear the last written page of the final segment: flip a byte so its
    // checksum fails, the way a half-written sector looks after a crash.
    let last = *segments.list().unwrap().last().unwrap();
    let disk = segments.disk(last).unwrap();
    let pages = disk.num_pages();
    assert!(pages >= 2, "need a multi-page log, got {pages}");
    let mut page = vec![0u8; staged_db::storage::PAGE_SIZE];
    disk.read_page(staged_db::storage::PageId(pages - 1), &mut page).unwrap();
    page[100] ^= 0xFF;
    disk.write_page(staged_db::storage::PageId(pages - 1), &page).unwrap();

    let ctx2 = part_ctx(2);
    let (wal2, report) =
        checkpoint::recover(&ctx2, Arc::clone(&segments) as _, &snapshots, 64).unwrap();
    assert!(report.corruption.is_none(), "a torn tail is the end of the log, not damage");
    // A whole-transaction prefix survived; the torn page's txns are gone.
    let ids = sorted_ids(&ctx2);
    assert!(!ids.is_empty() && ids.len() < 600, "prefix expected, got {} rows", ids.len());
    assert_eq!(ids.len() % 100, 0, "partial transactions must never replay");
    assert_eq!(ids, (0..ids.len() as i64).collect::<Vec<i64>>());
    // The repaired log accepts new appends after the tear.
    wal2.append(&LogRecord::Commit { xid: 99 }).unwrap();
    assert!(wal2.committed_xids().unwrap().contains(&99));
}

/// Corruption *in front of* valid log pages is damage, never a panic:
/// recovery applies the pre-corruption committed prefix and reports the
/// error in the recovery report.
#[test]
fn corruption_before_valid_pages_is_reported_with_prefix_intact() {
    let segments = Arc::new(MemSegmentStore::new());
    let snapshots = MemSnapshotStore::new();
    let ctx = part_ctx(1);
    let wal = Wal::open_with_segment_pages(Arc::clone(&segments) as _, 64).unwrap();
    commit_rows(&ctx, &wal, 1, 0..500);
    commit_rows(&ctx, &wal, 2, 500..1000);
    wal.flush().unwrap();
    let last = *segments.list().unwrap().last().unwrap();
    let disk = segments.disk(last).unwrap();
    let pages = disk.num_pages();
    assert!(pages >= 3, "need interior pages to corrupt, got {pages}");
    // Corrupt an interior page: valid pages follow it, so this cannot be a
    // torn tail and must be reported.
    let mut page = vec![0u8; staged_db::storage::PAGE_SIZE];
    disk.read_page(staged_db::storage::PageId(1), &mut page).unwrap();
    page[200] ^= 0xFF;
    disk.write_page(staged_db::storage::PageId(1), &page).unwrap();

    let ctx2 = part_ctx(1);
    let (_, report) =
        checkpoint::recover(&ctx2, Arc::clone(&segments) as _, &snapshots, 64).unwrap();
    match report.corruption {
        Some(StorageError::Corrupt(_)) => {}
        other => panic!("expected corruption report, got {other:?}"),
    }
    // Only records from the intact prefix (page 0) applied; nothing panicked.
    let ids = sorted_ids(&ctx2);
    assert!(ids.len() < 1000, "corrupted page's records must not replay");
}

/// A tuple close to the 8 KiB page limit logs as a WAL record *larger*
/// than a page (record header + row bytes); it must round-trip through
/// continuation frames and redo byte-exactly.
#[test]
fn wide_tuple_near_page_size_survives_wal_and_redo() {
    let pool = BufferPool::new(Arc::new(MemDisk::new()), 64);
    let catalog = Arc::new(Catalog::new(pool));
    let t = catalog.create_table("w", Schema::new(vec![Column::new("x", DataType::Str)])).unwrap();
    let ctx = ExecContext::new(Arc::clone(&catalog));
    let segments = Arc::new(MemSegmentStore::new());
    let wal = Wal::open(Arc::clone(&segments) as _).unwrap();
    // The heap takes tuples up to PAGE_SIZE - 8; aim just under it so the
    // WAL record (record header + encoded row) exceeds one log page.
    let payload = "y".repeat(8100);
    let wide = Tuple::new(vec![Value::Str(payload.clone())]);
    wal.append(&LogRecord::Begin { xid: 1 }).unwrap();
    dml::insert_rows(&ctx, &t, vec![wide], Some(&dml::DmlLog::wal_only(&wal, 1))).unwrap();
    wal.append(&LogRecord::Commit { xid: 1 }).unwrap();

    let pool2 = BufferPool::new(Arc::new(MemDisk::new()), 64);
    let catalog2 = Arc::new(Catalog::new(pool2));
    catalog2.create_table("w", Schema::new(vec![Column::new("x", DataType::Str)])).unwrap();
    let ctx2 = ExecContext::new(Arc::clone(&catalog2));
    let applied = dml::redo(&ctx2, &wal).unwrap();
    assert_eq!(applied, 1);
    let t2 = catalog2.table("w").unwrap();
    let rows: Vec<Tuple> = t2.heap.scan().map(|r| r.unwrap().1).collect();
    assert_eq!(rows.len(), 1);
    match rows[0].get(0) {
        Value::Str(s) => assert_eq!(s, &payload),
        other => panic!("wrong value {other:?}"),
    }
}

/// A snapshot store that keeps every snapshot ever saved, so a test can
/// inspect the ones a later checkpoint overwrote.
#[derive(Default)]
struct KeepAllSnapshots {
    saved: std::sync::Mutex<Vec<Vec<u8>>>,
}

impl staged_db::storage::SnapshotStore for KeepAllSnapshots {
    fn save(&self, bytes: &[u8]) -> Result<(), StorageError> {
        self.saved.lock().unwrap().push(bytes.to_vec());
        Ok(())
    }

    fn load(&self) -> Result<Option<Vec<u8>>, StorageError> {
        Ok(self.saved.lock().unwrap().last().cloned())
    }
}

/// A rolled-back UPDATE must leave the row at its own rid. The six
/// statements `CHECKPOINT; BEGIN; UPDATE a … WHERE id = 5; ROLLBACK; BEGIN;
/// UPDATE a … WHERE id = 5; COMMIT` once recovered 65 rows from a 64-row
/// table: undo re-inserted the row at a new rid and logged nothing, so the
/// committed UPDATE logged a `Delete` of a rid the snapshot never named,
/// which replay skipped. Both servers, 1/2/4 partitions, with and without
/// an index on `id` (the index makes the UPDATEs find the row by probe).
#[test]
fn committed_update_after_a_rollback_recovers_one_row_per_id() {
    use staged_db::planner::PlannerConfig;
    use staged_db::server::{ServerConfig, StagedServer, ThreadedServer};
    use staged_db::storage::DEFAULT_SEGMENT_PAGES;
    use std::time::Duration;

    const ROWS: i64 = 64;
    // Load, checkpoint, then the rolled-back and the committed UPDATE.
    let script = |run: &dyn Fn(&str), checkpoint: &dyn Fn(), indexed: bool| {
        if indexed {
            run("CREATE INDEX a_id ON a (id)");
        }
        let rows: Vec<String> = (0..ROWS).map(|i| format!("({i}, {})", i * 10)).collect();
        run(&format!("INSERT INTO a VALUES {}", rows.join(", ")));
        checkpoint();
        for sql in [
            "BEGIN",
            "UPDATE a SET v = v + 1 WHERE id = 5",
            "ROLLBACK",
            "BEGIN",
            "UPDATE a SET v = 999 WHERE id = 5",
            "COMMIT",
        ] {
            run(sql);
        }
    };
    for parts in [1usize, 2, 4] {
        for indexed in [false, true] {
            for staged in [false, true] {
                let kind = if staged { "staged" } else { "threaded" };
                let what = format!("{kind} server, {parts} partitions, index {indexed}");
                let segments: Arc<dyn SegmentStore> = Arc::new(MemSegmentStore::new());
                let snapshots: Arc<dyn SnapshotStore> = Arc::new(MemSnapshotStore::new());
                let catalog = empty_ctx().catalog;
                let schema = Schema::new(vec![
                    Column::new("id", DataType::Int),
                    Column::new("v", DataType::Int),
                ]);
                catalog.create_table_partitioned("a", schema, parts, 0).unwrap();
                let (segs, snaps) = (Arc::clone(&segments), Arc::clone(&snapshots));
                if staged {
                    let config = ServerConfig { partitions: parts, ..Default::default() };
                    let server =
                        StagedServer::with_stores(catalog, config, None, segs, snaps).unwrap();
                    let session = server.session();
                    let run = |sql: &str| drop(session.execute_sql(sql).unwrap());
                    script(&run, &|| drop(server.checkpoint().unwrap()), indexed);
                    drop(session);
                    server.shutdown();
                } else {
                    let (planner, timeout) = (PlannerConfig::default(), Duration::from_secs(2));
                    let server =
                        ThreadedServer::with_stores(catalog, 2, planner, timeout, segs, snaps);
                    let server = server.unwrap();
                    let session = server.session();
                    let run = |sql: &str| drop(session.execute_sql(sql).unwrap());
                    script(&run, &|| drop(server.checkpoint().unwrap()), indexed);
                    drop(session);
                    server.shutdown();
                }

                let ctx = empty_ctx();
                let (_wal, report) =
                    checkpoint::recover(&ctx, segments, snapshots.as_ref(), DEFAULT_SEGMENT_PAGES)
                        .unwrap();
                assert!(report.corruption.is_none(), "{what}");
                let t = ctx.catalog.table("a").unwrap();
                let mut rows: Vec<(i64, i64)> = t
                    .heap
                    .scan()
                    .map(|r| {
                        let row = r.unwrap().1;
                        (row.get(0).as_int().unwrap(), row.get(1).as_int().unwrap())
                    })
                    .collect();
                rows.sort_unstable();
                assert_eq!(rows.len() as i64, ROWS, "{what}: one row per id after recovery");
                let want: Vec<(i64, i64)> =
                    (0..ROWS).map(|i| (i, if i == 5 { 999 } else { i * 10 })).collect();
                assert_eq!(rows, want, "{what}: the committed value, every other row unchanged");
            }
        }
    }
}

/// Two `CHECKPOINT`s that overlap must serialize: if the second could start
/// while the first runs, the first to finish would release the second's
/// locks mid-snapshot and writers would change the heap under its capture
/// (when both locked under one reserved xid, the threaded server needed a
/// claim to prevent that; now each has its own xid and they meet on the
/// lock table). On both servers, beside transfer writers, a second call is
/// started at every phase of a first one (the offsets sweep the length of a
/// solo run); every snapshot saved along the way, and what recovery finally
/// makes of the stores, must show every transfer atomic and every row
/// exactly once.
#[test]
fn overlapping_threaded_checkpoints_leave_a_consistent_snapshot() {
    use staged_db::planner::PlannerConfig;
    use staged_db::server::{Response, ServerConfig, ServerError, StagedServer, ThreadedServer};
    use staged_db::storage::{
        MemSegmentStore, SegmentStore, Snapshot, SnapshotStore, DEFAULT_SEGMENT_PAGES,
    };
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::{Duration, Instant};

    const ACCOUNTS: i64 = 6_000;
    const BALANCE: i64 = 100;
    const PHASES: u32 = 48;
    // Bounded waits: a wedged server must fail this test, not hang it.
    const DEADLINE: Duration = Duration::from_secs(10);
    type Execute = Arc<dyn Fn(&str) -> Response + Send + Sync>;
    type Writer = Box<dyn Fn(&str) -> Response>;
    type OpenWriter = Arc<dyn Fn() -> Writer + Send + Sync>;
    let check = |balances: Vec<i64>, what: &str| {
        assert_eq!(balances.len() as i64, ACCOUNTS, "{what}: every account exactly once");
        assert_eq!(balances.iter().sum::<i64>(), ACCOUNTS * BALANCE, "{what}: transfers atomic");
    };
    for staged in [false, true] {
        let kind = if staged { "staged" } else { "threaded" };
        let segments: Arc<dyn SegmentStore> = Arc::new(MemSegmentStore::new());
        let snapshots = Arc::new(KeepAllSnapshots::default());
        let (catalog, segs) = (empty_ctx().catalog, Arc::clone(&segments));
        let snaps = Arc::clone(&snapshots) as Arc<dyn SnapshotStore>;
        // What the test needs of a server: autocommit statements, a session
        // per writer thread, and shutdown.
        let (execute, open_writer, shutdown): (Execute, OpenWriter, Box<dyn FnOnce()>) = if staged {
            let server =
                StagedServer::with_stores(catalog, ServerConfig::default(), None, segs, snaps)
                    .unwrap();
            let (s, w) = (Arc::clone(&server), Arc::clone(&server));
            (
                Arc::new(move |sql| s.execute_sql(sql)),
                Arc::new(move || {
                    let session = w.session();
                    Box::new(move |sql| {
                        session.submit(sql).recv_timeout(DEADLINE).expect("answered")
                    })
                }),
                Box::new(move || server.shutdown()),
            )
        } else {
            let (planner, timeout) = (PlannerConfig::default(), Duration::from_secs(2));
            let server = ThreadedServer::with_stores(catalog, 4, planner, timeout, segs, snaps);
            let server = Arc::new(server.unwrap());
            let (s, w) = (Arc::clone(&server), Arc::clone(&server));
            (
                Arc::new(move |sql| s.execute_sql(sql)),
                Arc::new(move || {
                    let session = w.session();
                    Box::new(move |sql| {
                        session.submit(sql).recv_timeout(DEADLINE).expect("answered")
                    })
                }),
                Box::new(move || server.shutdown()),
            )
        };
        execute("CREATE TABLE accounts (id INT, bal INT)").unwrap();
        execute("CREATE INDEX accounts_id ON accounts (id)").unwrap();
        for chunk in (0..ACCOUNTS).collect::<Vec<_>>().chunks(500) {
            let rows: Vec<String> = chunk.iter().map(|id| format!("({id}, {BALANCE})")).collect();
            execute(&format!("INSERT INTO accounts VALUES {}", rows.join(", "))).unwrap();
        }

        let stop = AtomicBool::new(false);
        let overlapped = std::thread::scope(|scope| {
            for w in 0..2i64 {
                let (open_writer, stop) = (&open_writer, &stop);
                scope.spawn(move || {
                    let run = open_writer();
                    let mut k = w;
                    while !stop.load(Ordering::Relaxed) {
                        k += 7;
                        let (from, to) = (k % ACCOUNTS, (k * 31 + 1) % ACCOUNTS);
                        run("BEGIN").unwrap();
                        let debit = format!("UPDATE accounts SET bal = bal - 1 WHERE id = {from}");
                        let credit = format!("UPDATE accounts SET bal = bal + 1 WHERE id = {to}");
                        let moved = run(&debit).and(run(&credit));
                        run(if moved.is_ok() { "COMMIT" } else { "ROLLBACK" }).unwrap();
                    }
                });
            }
            // The writers run until `stop`, so a failure in here is carried
            // out of the scope as a value: a panic before `stop` is set
            // would leave the scope waiting on them forever.
            let overlapped = || -> Result<(), ServerError> {
                let started = Instant::now();
                execute("CHECKPOINT")?;
                let solo = started.elapsed();
                for phase in 0..PHASES {
                    let first = scope.spawn(|| execute("CHECKPOINT"));
                    std::thread::sleep(solo * phase / PHASES);
                    let second = execute("CHECKPOINT");
                    first.join().expect("checkpoint thread")?;
                    second?;
                }
                Ok(())
            };
            let overlapped = overlapped();
            stop.store(true, Ordering::Relaxed);
            overlapped
        });
        shutdown();
        overlapped.unwrap_or_else(|e| panic!("{kind}: {e:?}"));

        let saved = snapshots.saved.lock().unwrap().clone();
        assert_eq!(saved.len() as u32, 1 + 2 * PHASES, "{kind}");
        for bytes in &saved {
            let accounts = Snapshot::decode(bytes).unwrap().tables.remove(0);
            let bal = |row: &[u8]| Tuple::decode(row).unwrap().get(1).as_int().unwrap();
            check(
                accounts.rows.iter().map(|(_, row)| bal(row)).collect(),
                &format!("{kind} snapshot"),
            );
        }
        let ctx = empty_ctx();
        let (_wal, report) =
            checkpoint::recover(&ctx, segments, snapshots.as_ref(), DEFAULT_SEGMENT_PAGES).unwrap();
        assert!(report.corruption.is_none(), "{kind}");
        let heap = &ctx.catalog.table("accounts").unwrap().heap;
        let recovered = heap.scan().map(|r| r.unwrap().1.get(1).as_int().unwrap()).collect();
        check(recovered, &format!("{kind} recovered"));
    }
}

/// Run `statements` through one session of a fresh staged or threaded
/// server over `catalog` and the stores, then shut it down. Every
/// statement must succeed.
fn run_on_server(
    staged: bool,
    catalog: Arc<Catalog>,
    stores: &(Arc<dyn SegmentStore>, Arc<dyn SnapshotStore>),
    statements: &[String],
) {
    use staged_db::planner::PlannerConfig;
    use staged_db::server::{ServerConfig, StagedServer, ThreadedServer};
    use std::time::Duration;
    let (segs, snaps) = (Arc::clone(&stores.0), Arc::clone(&stores.1));
    let run = |sql: &str, execute: &dyn Fn(&str) -> staged_db::server::Response| {
        execute(sql).unwrap_or_else(|e| panic!("{sql}: {e:?}"));
    };
    if staged {
        let server =
            StagedServer::with_stores(catalog, ServerConfig::default(), None, segs, snaps).unwrap();
        let session = server.session();
        for sql in statements {
            run(sql, &|sql| session.execute_sql(sql));
        }
        drop(session);
        server.shutdown();
    } else {
        let (planner, timeout) = (PlannerConfig::default(), Duration::from_secs(2));
        let server =
            ThreadedServer::with_stores(catalog, 2, planner, timeout, segs, snaps).unwrap();
        let session = server.session();
        for sql in statements {
            run(sql, &|sql| session.execute_sql(sql));
        }
        drop(session);
        server.shutdown();
    }
}

/// A table's name, `(rid, row)` heap scan and sorted `(key, rid)` index
/// entries.
type TableImage = (String, Vec<(Rid, Tuple)>, Vec<(i64, Rid)>);

/// Every table's [`TableImage`], in name order.
fn heap_image(catalog: &Catalog) -> Vec<TableImage> {
    catalog
        .list_tables()
        .into_iter()
        .map(|t| {
            let rows = t.heap.scan().map(|r| r.unwrap()).collect();
            let mut entries = Vec::new();
            for ix in catalog.indexes_for(t.id) {
                entries.extend(ix.range(None, None).unwrap());
            }
            entries.sort_unstable();
            (t.name.clone(), rows, entries)
        })
        .collect()
}

/// Recovery must not let a new transaction reuse an old xid. Xids used to
/// restart at 1, so after `CHECKPOINT; BEGIN; INSERT (1); ROLLBACK`, a
/// restart and an autocommit `INSERT (2)`, the new insert's `Commit` also
/// committed the rolled-back insert's records in the log: the second
/// restart recovered ids [1, 2]. Both servers.
#[test]
fn a_rolled_back_insert_stays_rolled_back_across_two_restarts() {
    for staged in [false, true] {
        let stores: (Arc<dyn SegmentStore>, Arc<dyn SnapshotStore>) =
            (Arc::new(MemSegmentStore::new()), Arc::new(MemSnapshotStore::new()));
        let script = |sql: &[&str]| sql.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        run_on_server(
            staged,
            empty_ctx().catalog,
            &stores,
            &script(&[
                "CREATE TABLE a (id INT)",
                "CHECKPOINT",
                "BEGIN",
                "INSERT INTO a VALUES (1)",
                "ROLLBACK",
            ]),
        );
        run_on_server(staged, empty_ctx().catalog, &stores, &script(&["INSERT INTO a VALUES (2)"]));
        let catalog = empty_ctx().catalog;
        run_on_server(staged, Arc::clone(&catalog), &stores, &[]);
        let heap = &catalog.table("a").unwrap().heap;
        let ids: Vec<i64> = heap.scan().map(|r| r.unwrap().1.get(0).as_int().unwrap()).collect();
        assert_eq!(ids, vec![2], "staged server: {staged}");
    }
}

/// The randomized recovery differential: a seeded mix of autocommit
/// INSERT/UPDATE/DELETE, multi-statement transactions that commit or roll
/// back, and CHECKPOINTs over two tables, on both servers at 1/2/4
/// partitions, with and without an index on `id`. Recovery from the stores
/// must rebuild every table rid for rid and byte for byte, and every index
/// entry for entry.
#[test]
fn randomized_recovery_rebuilds_every_table_rid_for_rid() {
    const TABLES: [&str; 2] = ["a", "b"];
    for parts in [1usize, 2, 4] {
        for indexed in [false, true] {
            for staged in [false, true] {
                let what = format!("staged {staged}, {parts} partitions, index {indexed}");
                let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ (parts as u64 * 4 + indexed as u64);
                let mut rng = move || {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state
                };
                let catalog = empty_ctx().catalog;
                for name in TABLES {
                    let schema = Schema::new(vec![
                        Column::new("id", DataType::Int),
                        Column::new("v", DataType::Int),
                    ]);
                    catalog.create_table_partitioned(name, schema, parts, 0).unwrap();
                    if indexed {
                        catalog.create_index(&format!("{name}_id"), name, "id").unwrap();
                    }
                }
                // Live ids per table, kept in step with what commits.
                let mut ids: Vec<Vec<i64>> = vec![Vec::new(); TABLES.len()];
                let mut next_id = 0i64;
                let mut statements = Vec::new();
                for step in 0..120 {
                    if step % 40 == 39 {
                        statements.push("CHECKPOINT".to_string());
                    }
                    let txn = rng() % 3 == 0;
                    let before = ids.clone();
                    if txn {
                        statements.push("BEGIN".to_string());
                    }
                    for _ in 0..if txn { 1 + rng() % 4 } else { 1 } {
                        let t = (rng() % 2) as usize;
                        let live = &mut ids[t];
                        let pick = |r: u64, live: &Vec<i64>| live[(r % live.len() as u64) as usize];
                        statements.push(match rng() % 5 {
                            0 | 1 => {
                                next_id += 1;
                                live.push(next_id);
                                format!(
                                    "INSERT INTO {} VALUES ({next_id}, {})",
                                    TABLES[t],
                                    rng() % 100
                                )
                            }
                            2 if !live.is_empty() => {
                                let id = pick(rng(), live);
                                format!(
                                    "UPDATE {} SET v = {} WHERE id = {id}",
                                    TABLES[t],
                                    rng() % 100
                                )
                            }
                            3 if !live.is_empty() => {
                                // A new key can move the row to another partition.
                                let id = pick(rng(), live);
                                next_id += 1;
                                *live.iter_mut().find(|k| **k == id).unwrap() = next_id;
                                format!("UPDATE {} SET id = {next_id} WHERE id = {id}", TABLES[t])
                            }
                            _ if !live.is_empty() => {
                                let id = pick(rng(), live);
                                live.retain(|k| *k != id);
                                format!("DELETE FROM {} WHERE id = {id}", TABLES[t])
                            }
                            _ => format!("SELECT COUNT(*) FROM {}", TABLES[t]),
                        });
                    }
                    if txn {
                        let commit = rng() % 2 == 0;
                        statements.push(if commit { "COMMIT" } else { "ROLLBACK" }.to_string());
                        if !commit {
                            ids = before;
                        }
                    }
                }
                let stores: (Arc<dyn SegmentStore>, Arc<dyn SnapshotStore>) =
                    (Arc::new(MemSegmentStore::new()), Arc::new(MemSnapshotStore::new()));
                run_on_server(staged, Arc::clone(&catalog), &stores, &statements);

                let live = heap_image(&catalog);
                for (t, name) in TABLES.iter().enumerate() {
                    let mut got: Vec<i64> =
                        live[t].1.iter().map(|(_, r)| r.get(0).as_int().unwrap()).collect();
                    got.sort_unstable();
                    ids[t].sort_unstable();
                    assert_eq!(got, ids[t], "{what}: the live {name} matches the model");
                }
                let ctx = empty_ctx();
                let (_wal, report) = checkpoint::recover(
                    &ctx,
                    Arc::clone(&stores.0),
                    stores.1.as_ref(),
                    staged_db::storage::DEFAULT_SEGMENT_PAGES,
                )
                .unwrap();
                assert!(report.corruption.is_none(), "{what}");
                assert!(report.snapshot_rows > 0, "{what}: recovery started from a snapshot");
                let recovered = heap_image(&ctx.catalog);
                for (l, r) in live.iter().zip(&recovered) {
                    assert_eq!(l.0, r.0, "{what}");
                    if let Some(i) =
                        (0..l.1.len().max(r.1.len())).find(|&i| l.1.get(i) != r.1.get(i))
                    {
                        panic!(
                            "{what}, table {}: live row {i} {:?} vs recovered {:?}",
                            l.0,
                            l.1.get(i),
                            r.1.get(i)
                        );
                    }
                    assert_eq!(l.2, r.2, "{what}, table {}: index entries", l.0);
                }
                assert_eq!(live.len(), recovered.len(), "{what}");
            }
        }
    }
}
