//! Table and column statistics for the optimizer.
//!
//! The paper's Figure 3 places "statistics" inside the optimize stage; the
//! planner's cost model consumes these numbers for selectivity and join-
//! order decisions. `ANALYZE` scans the heap once.

use crate::error::StorageResult;
use crate::partition::PartitionedHeap;
use crate::schema::Schema;
use crate::value::Value;
use std::collections::HashSet;

/// Per-column statistics.
#[derive(Debug, Clone, Default)]
pub struct ColumnStats {
    /// Smallest non-null value seen.
    pub min: Option<Value>,
    /// Largest non-null value seen.
    pub max: Option<Value>,
    /// Number of distinct values (exact up to [`NDV_EXACT_LIMIT`], then an
    /// estimate).
    pub ndv: u64,
    /// NULL count.
    pub nulls: u64,
}

/// Distinct-value tracking switches from exact to estimated past this many
/// distinct values.
pub const NDV_EXACT_LIMIT: usize = 100_000;

/// Whole-table statistics.
#[derive(Debug, Clone, Default)]
pub struct TableStats {
    /// Number of live rows.
    pub row_count: u64,
    /// Number of heap pages.
    pub page_count: u64,
    /// Per-column stats, aligned with the schema.
    pub columns: Vec<ColumnStats>,
}

impl TableStats {
    /// Selectivity estimate for an equality predicate on `col`.
    pub fn eq_selectivity(&self, col: usize) -> f64 {
        match self.columns.get(col) {
            Some(c) if c.ndv > 0 => 1.0 / c.ndv as f64,
            _ => 0.1,
        }
    }

    /// Selectivity estimate for a range predicate `col (<|>|between) …`,
    /// assuming a uniform distribution between min and max.
    pub fn range_selectivity(&self, col: usize, lo: Option<&Value>, hi: Option<&Value>) -> f64 {
        let Some(c) = self.columns.get(col) else { return 0.33 };
        let (Some(min), Some(max)) = (&c.min, &c.max) else { return 0.33 };
        let (Some(min), Some(max)) = (min.as_float(), max.as_float()) else { return 0.33 };
        if max <= min {
            return 1.0;
        }
        let lo = lo.and_then(Value::as_float).unwrap_or(min).max(min);
        let hi = hi.and_then(Value::as_float).unwrap_or(max).min(max);
        ((hi - lo) / (max - min)).clamp(0.0, 1.0)
    }
}

/// Compute statistics with one scan of the heap (the `ANALYZE` operation);
/// partitioned heaps are scanned partition by partition.
pub fn analyze(heap: &PartitionedHeap, schema: &Schema) -> StorageResult<TableStats> {
    let ncols = schema.len();
    let mut columns = vec![ColumnStats::default(); ncols];
    let mut distinct: Vec<HashSet<String>> = vec![HashSet::new(); ncols];
    let mut saturated = vec![false; ncols];
    let mut rows = 0u64;
    for item in heap.scan() {
        let (_, tuple) = item?;
        rows += 1;
        for (i, v) in tuple.values().iter().enumerate().take(ncols) {
            let c = &mut columns[i];
            if v.is_null() {
                c.nulls += 1;
                continue;
            }
            match &c.min {
                Some(m) if v.total_cmp(m).is_lt() => c.min = Some(v.clone()),
                None => c.min = Some(v.clone()),
                _ => {}
            }
            match &c.max {
                Some(m) if v.total_cmp(m).is_gt() => c.max = Some(v.clone()),
                None => c.max = Some(v.clone()),
                _ => {}
            }
            if !saturated[i] {
                distinct[i].insert(v.to_string());
                if distinct[i].len() > NDV_EXACT_LIMIT {
                    saturated[i] = true;
                    distinct[i].clear();
                }
            }
        }
    }
    for (i, c) in columns.iter_mut().enumerate() {
        c.ndv = if saturated[i] {
            // Saturated: assume mostly-unique beyond the limit.
            rows - c.nulls
        } else {
            distinct[i].len() as u64
        };
    }
    Ok(TableStats { row_count: rows, page_count: heap.num_pages() as u64, columns })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferPool;
    use crate::disk::MemDisk;
    use crate::schema::Column;
    use crate::tuple::Tuple;
    use crate::value::DataType;
    use std::sync::Arc;

    fn setup() -> (PartitionedHeap, Schema) {
        let pool = BufferPool::new(Arc::new(MemDisk::new()), 64);
        let heap = PartitionedHeap::create(pool, 0, 1, 0);
        let schema = Schema::new(vec![
            Column::new("k", DataType::Int),
            Column::new("grp", DataType::Int),
            Column::new("s", DataType::Str).nullable(),
        ]);
        (heap, schema)
    }

    #[test]
    fn analyze_computes_counts_min_max_ndv() {
        let (heap, schema) = setup();
        for i in 0..500i64 {
            let s = if i % 5 == 0 { Value::Null } else { Value::Str(format!("s{}", i % 7)) };
            heap.insert(&Tuple::new(vec![Value::Int(i), Value::Int(i % 10), s])).unwrap();
        }
        let st = analyze(&heap, &schema).unwrap();
        assert_eq!(st.row_count, 500);
        assert!(st.page_count >= 1);
        assert_eq!(st.columns[0].min, Some(Value::Int(0)));
        assert_eq!(st.columns[0].max, Some(Value::Int(499)));
        assert_eq!(st.columns[0].ndv, 500);
        assert_eq!(st.columns[1].ndv, 10);
        assert_eq!(st.columns[2].nulls, 100);
        assert_eq!(st.columns[2].ndv, 7);
    }

    #[test]
    fn selectivity_estimates() {
        let (heap, schema) = setup();
        for i in 0..100i64 {
            heap.insert(&Tuple::new(vec![Value::Int(i), Value::Int(i % 4), Value::Null])).unwrap();
        }
        let st = analyze(&heap, &schema).unwrap();
        assert!((st.eq_selectivity(1) - 0.25).abs() < 1e-12);
        // Range k in [0, 49] over [0, 99] ≈ one half.
        let sel = st.range_selectivity(0, Some(&Value::Int(0)), Some(&Value::Int(49)));
        assert!((sel - 0.4949).abs() < 0.01, "sel={sel}");
        // Unbounded range = 1.
        assert!((st.range_selectivity(0, None, None) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn analyze_of_empty_table() {
        let (heap, schema) = setup();
        let st = analyze(&heap, &schema).unwrap();
        assert_eq!(st.row_count, 0);
        assert_eq!(st.columns[0].ndv, 0);
        assert!(st.columns[0].min.is_none());
        // Fallback selectivities are sane.
        assert!(st.eq_selectivity(0) > 0.0);
    }
}
