//! Hash-partitioned heap storage — the shared-nothing data layout behind
//! partition-parallel execution (paper §6: "data can be partitioned … so
//! that one query fans out across many stage instances").
//!
//! A [`PartitionedHeap`] is N independent [`HeapFile`]s over one shared
//! buffer pool. Every tuple is routed to exactly one partition by hashing
//! its *partition key* column; scans can read one partition or all of them.
//! A single-partition heap degenerates to the old behaviour, so the rest of
//! the system treats every table as partitioned (usually with N = 1).
//!
//! Partition `p` of table `t` lives in page file `(t + 1) << 8 | p`
//! ([`heap_file`]), so a rid says which table and partition hold the row,
//! and names the same slot in every catalog with the same table ids and
//! partition counts.

use crate::buffer::BufferPool;
use crate::error::{StorageError, StorageResult};
use crate::heap::{HeapFile, HeapPageScan, HeapScan};
use crate::mvcc::{ReadView, VersionStore};
use crate::page::PageId;
use crate::tuple::{Rid, Tuple};
use crate::value::Value;
use std::sync::Arc;

/// Deterministic partition of a key value: FNV-1a over the value's storage
/// encoding, reduced mod `partitions`. Both DML routing and planner
/// partition pruning go through this single function, so a pruned scan can
/// never disagree with the insert path about where a row lives.
pub fn partition_of_value(v: &Value, partitions: usize) -> usize {
    if partitions <= 1 {
        return 0;
    }
    let mut bytes = Vec::with_capacity(v.encoded_len());
    v.encode(&mut bytes);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in &bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % partitions as u64) as usize
}

/// Most partitions a table can have: a partition is the low byte of its
/// heap file id.
pub const MAX_PARTITIONS: usize = 256;

/// The page file of partition `partition` of table `table`. File 0 (table
/// id −1) is left to the B+trees.
pub fn heap_file(table: u32, partition: usize) -> u32 {
    (table + 1) << 8 | partition as u32
}

/// N heap files behind one table, with hash routing on a key column.
pub struct PartitionedHeap {
    parts: Vec<Arc<HeapFile>>,
    key: usize,
}

impl PartitionedHeap {
    /// An empty partitioned heap for table `table`: `partitions` heap files
    /// (at most [`MAX_PARTITIONS`]) over `pool`, routing on column `key`.
    pub fn create(pool: Arc<BufferPool>, table: u32, partitions: usize, key: usize) -> Self {
        assert!(partitions <= MAX_PARTITIONS, "{partitions} partitions");
        let part = |p| Arc::new(HeapFile::create(Arc::clone(&pool), heap_file(table, p)));
        Self { parts: (0..partitions.max(1)).map(part).collect(), key }
    }

    /// Number of partitions (≥ 1).
    pub fn partitions(&self) -> usize {
        self.parts.len()
    }

    /// The hash-key column index.
    pub fn key_column(&self) -> usize {
        self.key
    }

    /// The heap file backing partition `p`.
    pub fn partition(&self, p: usize) -> &Arc<HeapFile> {
        &self.parts[p]
    }

    /// Which partition a tuple routes to.
    pub fn partition_of(&self, tuple: &Tuple) -> usize {
        match tuple.values().get(self.key) {
            Some(v) => partition_of_value(v, self.parts.len()),
            None => 0,
        }
    }

    /// Insert a tuple into its hash partition, returning its rid.
    pub fn insert(&self, tuple: &Tuple) -> StorageResult<Rid> {
        self.insert_routed(tuple).map(|(_, rid)| rid)
    }

    /// Insert a tuple, returning `(partition, rid)` so callers maintaining
    /// per-partition indexes know where it landed.
    pub fn insert_routed(&self, tuple: &Tuple) -> StorageResult<(usize, Rid)> {
        self.insert_routed_with(tuple, |_| {})
    }

    /// [`Self::insert_routed`] with an MVCC registration hook: `note` runs
    /// with the assigned rid from inside the page write latch (see
    /// [`HeapFile::insert_with`]).
    pub fn insert_routed_with<F: FnOnce(Rid)>(
        &self,
        tuple: &Tuple,
        note: F,
    ) -> StorageResult<(usize, Rid)> {
        let p = self.partition_of(tuple);
        let rid = self.parts[p].insert_with(tuple, note)?;
        Ok((p, rid))
    }

    /// The partition whose heap file holds `rid`; `InvalidPage` when the
    /// rid names a file outside this heap (another table's, or a partition
    /// this heap does not have).
    pub fn partition_of_rid(&self, rid: Rid) -> StorageResult<usize> {
        let p = self.parts.iter().position(|h| h.file() == rid.page.file());
        p.ok_or(StorageError::InvalidPage(rid.page))
    }

    /// Read the tuple at `rid` (rids are global page addresses, so any
    /// partition can resolve them).
    pub fn get(&self, rid: Rid) -> StorageResult<Tuple> {
        self.parts[0].get(rid)
    }

    /// Delete the tuple at `rid`.
    pub fn delete(&self, rid: Rid) -> StorageResult<()> {
        self.parts[0].delete(rid)
    }

    /// Undo a delete: bring the encoded row back at `rid` (see
    /// [`HeapFile::restore`]).
    pub fn restore(&self, rid: Rid, record: &[u8]) -> StorageResult<()> {
        self.parts[0].restore(rid, record)
    }

    /// Full scan over every partition, in partition order.
    pub fn scan(&self) -> PartitionedScan {
        PartitionedScan { parts: self.parts.clone(), next: 0, current: None, mvcc: None }
    }

    /// Scan of one partition only.
    pub fn scan_partition(&self, p: usize) -> HeapScan {
        self.parts[p].scan()
    }

    /// Page-granular scan over every partition, in partition order.
    pub fn scan_pages(&self) -> PartitionedPageScan {
        PartitionedPageScan {
            parts: self.parts.clone(),
            next: 0,
            current: None,
            cols: None,
            mvcc: None,
        }
    }

    /// Page-granular scan of one partition only.
    pub fn scan_partition_pages(&self, p: usize) -> HeapPageScan {
        self.parts[p].scan_pages()
    }

    /// Total pages across partitions.
    pub fn num_pages(&self) -> usize {
        self.parts.iter().map(|h| h.num_pages()).sum()
    }

    /// Page ids of every partition, concatenated in partition order.
    pub fn page_ids(&self) -> Vec<PageId> {
        self.parts.iter().flat_map(|h| h.page_ids()).collect()
    }

    /// Exact count of live tuples across all partitions.
    pub fn count(&self) -> StorageResult<usize> {
        let mut n = 0;
        for h in &self.parts {
            n += h.count()?;
        }
        Ok(n)
    }
}

/// Streaming scan chaining each partition's [`HeapScan`].
pub struct PartitionedScan {
    parts: Vec<Arc<HeapFile>>,
    next: usize,
    current: Option<HeapScan>,
    mvcc: Option<(Arc<VersionStore>, ReadView)>,
}

impl PartitionedScan {
    /// Pages this scan will visit (for I/O accounting).
    pub fn num_pages(&self) -> usize {
        self.parts.iter().map(|h| h.num_pages()).sum()
    }

    /// Snapshot-filter every partition's scan (see
    /// [`HeapScan::with_snapshot`]).
    pub fn with_snapshot(mut self, store: Arc<VersionStore>, view: ReadView) -> Self {
        self.mvcc = Some((store, view));
        self
    }
}

impl Iterator for PartitionedScan {
    type Item = StorageResult<(Rid, Tuple)>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(scan) = &mut self.current {
                if let Some(item) = scan.next() {
                    return Some(item);
                }
            }
            if self.next >= self.parts.len() {
                return None;
            }
            let scan = self.parts[self.next].scan();
            self.current = Some(match &self.mvcc {
                Some((store, view)) => scan.with_snapshot(Arc::clone(store), *view),
                None => scan,
            });
            self.next += 1;
        }
    }
}

/// Page-granular scan chaining each partition's [`HeapPageScan`].
pub struct PartitionedPageScan {
    parts: Vec<Arc<HeapFile>>,
    next: usize,
    current: Option<HeapPageScan>,
    cols: Option<Vec<usize>>,
    mvcc: Option<(Arc<VersionStore>, ReadView)>,
}

impl PartitionedPageScan {
    /// Pages this scan will visit (for I/O accounting).
    pub fn num_pages(&self) -> usize {
        self.parts.iter().map(|h| h.num_pages()).sum()
    }

    /// Restrict decoding to `cols` in every partition's page scan (see
    /// [`HeapPageScan::with_columns`]).
    pub fn with_columns(mut self, cols: Vec<usize>) -> Self {
        self.cols = Some(cols);
        self
    }

    /// Snapshot-filter every partition's page scan (see
    /// [`HeapPageScan::with_snapshot`]).
    pub fn with_snapshot(mut self, store: Arc<VersionStore>, view: ReadView) -> Self {
        self.mvcc = Some((store, view));
        self
    }
}

impl Iterator for PartitionedPageScan {
    type Item = StorageResult<Vec<(Rid, Tuple)>>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(scan) = &mut self.current {
                if let Some(item) = scan.next() {
                    return Some(item);
                }
            }
            if self.next >= self.parts.len() {
                return None;
            }
            let mut scan = self.parts[self.next].scan_pages();
            if let Some(cols) = &self.cols {
                scan = scan.with_columns(cols.clone());
            }
            if let Some((store, view)) = &self.mvcc {
                scan = scan.with_snapshot(Arc::clone(store), *view);
            }
            self.current = Some(scan);
            self.next += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;
    use std::collections::HashSet;

    fn heap(parts: usize) -> PartitionedHeap {
        PartitionedHeap::create(BufferPool::new(Arc::new(MemDisk::new()), 256), 0, parts, 0)
    }

    fn row(i: i64) -> Tuple {
        Tuple::new(vec![Value::Int(i), Value::Str(format!("row-{i}"))])
    }

    #[test]
    fn single_partition_behaves_like_plain_heap() {
        let h = heap(1);
        let rid = h.insert(&row(7)).unwrap();
        assert_eq!(h.partitions(), 1);
        assert_eq!(h.get(rid).unwrap(), row(7));
        assert_eq!(h.scan().count(), 1);
    }

    #[test]
    fn rows_route_consistently_and_scan_unions_partitions() {
        let h = heap(4);
        for i in 0..400 {
            let (p, _) = h.insert_routed(&row(i)).unwrap();
            assert_eq!(p, partition_of_value(&Value::Int(i), 4));
        }
        assert_eq!(h.count().unwrap(), 400);
        // Union of per-partition scans == full scan, and partitions are
        // disjoint.
        let full: HashSet<i64> = h.scan().map(|r| r.unwrap().1.get(0).as_int().unwrap()).collect();
        assert_eq!(full.len(), 400);
        let mut union = HashSet::new();
        for p in 0..4 {
            for r in h.scan_partition(p) {
                let k = r.unwrap().1.get(0).as_int().unwrap();
                assert!(union.insert(k), "row {k} in more than one partition");
            }
        }
        assert_eq!(union, full);
        // A reasonable spread: no partition is empty at 400 rows.
        for p in 0..4 {
            assert!(h.scan_partition(p).count() > 0, "partition {p} empty");
        }
    }

    #[test]
    fn each_partition_owns_its_heap_file() {
        let h = PartitionedHeap::create(BufferPool::new(Arc::new(MemDisk::new()), 64), 3, 4, 0);
        for i in 0..40 {
            let (p, rid) = h.insert_routed(&row(i)).unwrap();
            assert_eq!(rid.page.file(), heap_file(3, p));
            assert_eq!(h.partition_of_rid(rid).unwrap(), p);
        }
        for foreign in [heap_file(2, 0), heap_file(3, 4)] {
            let rid = Rid::new(PageId::new(foreign, 0), 0);
            assert!(h.partition_of_rid(rid).is_err());
        }
    }

    #[test]
    fn page_scan_agrees_with_tuple_scan_across_partitions() {
        let h = heap(4);
        for i in 0..400 {
            h.insert(&row(i)).unwrap();
        }
        let flat: Vec<Tuple> = h.scan().map(|r| r.unwrap().1).collect();
        let paged: Vec<Tuple> =
            h.scan_pages().flat_map(|p| p.unwrap().into_iter().map(|(_, t)| t)).collect();
        assert_eq!(flat, paged);
        // Per-partition page scans union to the whole table.
        let mut union = 0usize;
        for p in 0..4 {
            union += h.scan_partition_pages(p).map(|pg| pg.unwrap().len()).sum::<usize>();
        }
        assert_eq!(union, 400);
    }

    #[test]
    fn null_and_string_keys_hash_somewhere_stable() {
        for parts in [1, 2, 4, 8] {
            for v in [Value::Null, Value::Str("abc".into()), Value::Float(1.5), Value::Bool(true)] {
                let p = partition_of_value(&v, parts);
                assert!(p < parts);
                assert_eq!(p, partition_of_value(&v, parts), "hash must be stable");
            }
        }
    }
}
