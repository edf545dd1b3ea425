//! The index probe: the one place `(index, lo, hi, view)` becomes tuples.
//!
//! The staged `iscan` stage, the Volcano `IndexScan` executor and DML's
//! victim search all call [`index_probe`]; none of them reads a B+tree or
//! resolves a rid on its own. Snapshot correctness therefore has exactly
//! one implementation (visibility rule and race analysis:
//! `docs/CONCURRENCY.md` §3).

use crate::context::ExecContext;
use crate::error::EngineResult;
use crate::expr::eval_predicate;
use staged_sql::ast::Expr;
use staged_storage::catalog::{IndexInfo, TableInfo};
use staged_storage::{ReadView, Rid, StorageError, Tuple};

/// Resolve the keys in `[lo, hi]` (either bound optional) through `index`
/// to the rows of `table` that `view` can see and that satisfy `residual`.
///
/// `view = None` is the current read DML performs under its partition
/// locks: whatever the tree names and the heap still holds. Under a view
/// the fetched rows pass through the table's version overlay once, as one
/// batch: rows the view cannot see yet are dropped and deleted rows it
/// still sees are merged back by key (their index entries are already
/// gone).
///
/// A snapshot reader takes no lock, so a writer may delete a row between
/// the tree read and the heap read. A rid whose slot vanished is simply
/// not live — never an error: the delete registered the row's before-image
/// in the overlay first, and the overlay pass supplies it.
pub fn index_probe(
    ctx: &ExecContext,
    table: &TableInfo,
    index: &IndexInfo,
    lo: Option<i64>,
    hi: Option<i64>,
    residual: Option<&Expr>,
    view: Option<ReadView>,
) -> EngineResult<Vec<(Rid, Tuple)>> {
    // Bounds pinning the hash-key column need only that partition's tree.
    let pruned = table.pruned_partition(index.column, lo, hi);
    let entries = index.range_in(pruned, lo, hi)?;
    ctx.note_page_ref(); // the traversal touches shared index pages
    let mut rows = Vec::with_capacity(entries.len());
    for (_, rid) in entries {
        ctx.note_page_ref();
        match table.heap.get(rid) {
            Ok(tuple) => rows.push((rid, tuple)),
            Err(StorageError::InvalidSlot { .. }) => {}
            Err(e) => return Err(e.into()),
        }
    }
    if let Some(view) = view {
        table.versions.filter_probe(view, index.column, lo, hi, &mut rows)?;
    }
    if let Some(p) = residual {
        let mut kept = Vec::with_capacity(rows.len());
        for (rid, tuple) in rows {
            if eval_predicate(p, &tuple)? {
                kept.push((rid, tuple));
            }
        }
        rows = kept;
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dml::insert_rows;
    use staged_storage::{BufferPool, Catalog, Column, DataType, MemDisk, Schema, Value};
    use std::sync::Arc;

    fn setup() -> (ExecContext, Arc<TableInfo>, Arc<IndexInfo>) {
        let catalog = Arc::new(Catalog::new(BufferPool::new(Arc::new(MemDisk::new()), 64)));
        let schema =
            Schema::new(vec![Column::new("id", DataType::Int), Column::new("v", DataType::Int)]);
        let table = catalog.create_table("t", schema).unwrap();
        catalog.create_index("t_id", "t", "id").unwrap();
        let ctx = ExecContext::new(Arc::clone(&catalog));
        let rows = (0..20).map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i * 2)])).collect();
        insert_rows(&ctx, &table, rows, None).unwrap();
        let index = catalog.index_on(table.id, 0).unwrap();
        (ctx, table, index)
    }

    /// The reader/writer race, frozen at its worst point: the writer has
    /// registered the dead version and deleted the heap slot, but its
    /// index delete has not run yet, so the tree still names the rid.
    #[test]
    fn a_vanished_slot_is_not_live_and_the_overlay_supplies_the_before_image() {
        let (ctx, table, index) = setup();
        let rid = index.search(7).unwrap()[0];
        let row = table.heap.get(rid).unwrap();
        table.versions.note_delete(rid, row.encode(), 9);
        table.heap.delete(rid).unwrap();
        assert_eq!(index.search(7).unwrap(), vec![rid], "the tree still names the rid");

        let probe = |view| index_probe(&ctx, &table, &index, Some(7), Some(7), None, view);
        // A snapshot reader: no InvalidSlot error, the before-image instead.
        assert_eq!(probe(Some(ReadView::new(0, 0))).unwrap(), vec![(rid, row)]);
        // The deleter's own view, and a current read: the row is gone.
        assert_eq!(probe(Some(ReadView::new(0, 9))).unwrap(), vec![]);
        assert_eq!(probe(None).unwrap(), vec![]);
    }

    #[test]
    fn the_residual_filters_merged_dead_versions_too() {
        let (ctx, table, index) = setup();
        let rid = index.search(7).unwrap()[0];
        let row = table.heap.get(rid).unwrap();
        table.versions.note_delete(rid, row.encode(), 9);
        table.heap.delete(rid).unwrap();
        index.delete(0, 7, rid).unwrap();

        let v_is = |n| {
            Expr::binary(
                Expr::Column(staged_sql::ast::ColumnRef {
                    table: None,
                    name: "v".into(),
                    index: Some(1),
                }),
                staged_sql::ast::BinOp::Eq,
                Expr::int(n),
            )
        };
        let view = Some(ReadView::new(0, 0));
        let probe = |p: &Expr| index_probe(&ctx, &table, &index, Some(5), Some(9), Some(p), view);
        assert_eq!(probe(&v_is(14)).unwrap(), vec![(rid, row)]);
        assert_eq!(probe(&v_is(15)).unwrap(), vec![]);
    }
}
