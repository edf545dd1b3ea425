//! Property-based tests on core invariants (proptest).

use proptest::prelude::*;
use staged_db::core::coop::{CoopConfig, CoopExecutor, Job};
use staged_db::core::policy::Policy;
use staged_db::sql::parser::parse_statement;
use staged_db::storage::btree::BTree;
use staged_db::storage::page::{SlottedPage, PAGE_SIZE};
use staged_db::storage::{
    partition_of_value, BufferPool, MemDisk, PageId, PartitionedHeap, Rid, Tuple, Value,
};
use std::collections::BTreeMap;
use std::sync::Arc;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        (-1e9f64..1e9).prop_map(Value::Float),
        "[a-zA-Z0-9 ]{0,40}".prop_map(Value::Str),
        any::<bool>().prop_map(Value::Bool),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Tuples survive encode → decode for arbitrary value mixes.
    #[test]
    fn tuple_roundtrip(values in prop::collection::vec(arb_value(), 0..12)) {
        let t = Tuple::new(values);
        let decoded = Tuple::decode(&t.encode()).unwrap();
        prop_assert_eq!(t, decoded);
    }

    /// Slotted pages return exactly what was inserted, in slot order, and
    /// never overflow their byte budget.
    #[test]
    fn slotted_page_roundtrip(records in prop::collection::vec(
        prop::collection::vec(any::<u8>(), 1..300), 1..40)
    ) {
        let mut page = vec![0u8; PAGE_SIZE];
        SlottedPage::init(&mut page);
        let mut accepted = Vec::new();
        for r in &records {
            if let Some(slot) = SlottedPage::insert(&mut page, r) {
                accepted.push((slot, r.clone()));
            }
        }
        prop_assert!(!accepted.is_empty());
        for (slot, bytes) in &accepted {
            prop_assert_eq!(SlottedPage::get(&page, PageId(0), *slot).unwrap(), &bytes[..]);
        }
        let live: Vec<(u16, Vec<u8>)> =
            SlottedPage::iter(&page).map(|(s, b)| (s, b.to_vec())).collect();
        prop_assert_eq!(live, accepted);
    }

    /// The page-backed B+tree agrees with a BTreeMap model under random
    /// insert/delete/range workloads.
    #[test]
    fn btree_matches_model(ops in prop::collection::vec(
        (any::<bool>(), -200i64..200, 0u16..4), 1..300)
    ) {
        let tree = BTree::create(BufferPool::new(Arc::new(MemDisk::new()), 512)).unwrap();
        // Duplicates are allowed, so the model is a multiset.
        let mut model: BTreeMap<(i64, Rid), usize> = BTreeMap::new();
        for (is_insert, key, slot) in ops {
            let rid = Rid::new(PageId(7), slot);
            if is_insert {
                tree.insert(key, rid).unwrap();
                *model.entry((key, rid)).or_insert(0) += 1;
            } else {
                let present = match model.get_mut(&(key, rid)) {
                    Some(c) => {
                        *c -= 1;
                        if *c == 0 {
                            model.remove(&(key, rid));
                        }
                        true
                    }
                    None => false,
                };
                prop_assert_eq!(tree.delete(key, rid).unwrap(), present);
            }
        }
        let got = tree.range(None, None).unwrap();
        let want: Vec<(i64, Rid)> = model
            .iter()
            .flat_map(|((k, r), c)| std::iter::repeat_n((*k, *r), *c))
            .collect();
        prop_assert_eq!(got.len(), want.len());
        // Keys come back sorted; rids per key may be in insertion order, so
        // compare as multisets per key.
        let mut got_sorted = got.clone();
        got_sorted.sort();
        prop_assert_eq!(got_sorted, want);
    }

    /// Partition-parallel storage invariant 1: every inserted row lands in
    /// exactly one partition, and invariant 2: the union of per-partition
    /// scans is exactly the unpartitioned table (same multiset of rows).
    #[test]
    fn partitioned_heap_routes_each_row_to_exactly_one_partition(
        keys in prop::collection::vec(any::<i64>(), 1..150),
        parts in 1usize..9,
    ) {
        let ph = PartitionedHeap::create(
            BufferPool::new(Arc::new(MemDisk::new()), 256), 0, parts, 0);
        let flat = PartitionedHeap::create(
            BufferPool::new(Arc::new(MemDisk::new()), 256), 0, 1, 0);
        for (i, k) in keys.iter().enumerate() {
            let row = Tuple::new(vec![Value::Int(*k), Value::Int(i as i64)]);
            let (p, _) = ph.insert_routed(&row).unwrap();
            prop_assert_eq!(p, partition_of_value(&Value::Int(*k), parts));
            flat.insert(&row).unwrap();
        }
        // Exactly-once: per-partition counts sum to the total, and each
        // row id (the second column, unique per row) shows up once.
        let mut seen = std::collections::HashSet::new();
        let mut total = 0usize;
        for p in 0..parts {
            for item in ph.scan_partition(p) {
                let (_, t) = item.unwrap();
                prop_assert!(seen.insert(t.get(1).as_int().unwrap()),
                    "row emitted by two partitions");
                total += 1;
            }
        }
        prop_assert_eq!(total, keys.len());
        // Union == unpartitioned table, as multisets.
        let mut union: Vec<String> = ph.scan().map(|r| r.unwrap().1.to_string()).collect();
        let mut plain: Vec<String> = flat.scan().map(|r| r.unwrap().1.to_string()).collect();
        union.sort();
        plain.sort();
        prop_assert_eq!(union, plain);
    }

    /// Partition-parallel storage invariant 3: pruning to the hash
    /// partition of a probe key never drops a qualifying row — every row
    /// whose key equals the probe is found in that single partition.
    #[test]
    fn partition_pruning_never_drops_a_qualifying_row(
        keys in prop::collection::vec(-40i64..40, 1..150),
        probe in -40i64..40,
        parts in 1usize..9,
    ) {
        let ph = PartitionedHeap::create(
            BufferPool::new(Arc::new(MemDisk::new()), 256), 0, parts, 0);
        for (i, k) in keys.iter().enumerate() {
            ph.insert(&Tuple::new(vec![Value::Int(*k), Value::Int(i as i64)])).unwrap();
        }
        let expected = keys.iter().filter(|k| **k == probe).count();
        let pruned = partition_of_value(&Value::Int(probe), parts);
        let found = ph
            .scan_partition(pruned)
            .filter(|r| r.as_ref().unwrap().1.get(0).as_int() == Some(probe))
            .count();
        prop_assert_eq!(found, expected, "pruned partition {} lost rows", pruned);
    }

    /// Printing a parsed statement and reparsing it is a fixpoint.
    #[test]
    fn parser_print_reparse_fixpoint(
        cols in prop::collection::vec("[a-z][a-z0-9_]{0,8}", 1..4),
        lit in -1000i64..1000,
        limit in 1u64..100,
    ) {
        let sql = format!(
            "SELECT {} FROM tbl WHERE {} < {} ORDER BY {} DESC LIMIT {}",
            cols.join(", "), cols[0], lit, cols[0], limit
        );
        if let Ok(stmt) = parse_statement(&sql) {
            let printed = stmt.to_string();
            let reparsed = parse_statement(&printed).unwrap();
            prop_assert_eq!(stmt, reparsed);
        }
    }

    /// The cooperative executor conserves work and completes every job
    /// under every policy.
    #[test]
    fn coop_executor_conserves_work(
        demands in prop::collection::vec((0.001f64..0.1, 0.001f64..0.1), 1..40),
        policy_idx in 0usize..5,
    ) {
        let policy = Policy::figure5_set()[policy_idx];
        let jobs: Vec<Job> = demands
            .iter()
            .enumerate()
            .map(|(i, (a, b))| Job { id: i as u64, arrival: i as f64 * 0.01, demands: vec![*a, *b] })
            .collect();
        let total: f64 = demands.iter().map(|(a, b)| a + b).sum();
        let exec = CoopExecutor::new(CoopConfig::uniform(2, 0.005, policy));
        let report = exec.run(jobs);
        prop_assert_eq!(report.completions.len(), demands.len());
        prop_assert!((report.total_work_time - total).abs() < 1e-6);
        // Response times are at least the job's own demand.
        for c in &report.completions {
            let (a, b) = demands[c.id as usize];
            prop_assert!(c.response() >= a + b - 1e-9);
        }
    }
}

/// Build a WAL of `txns` committed transactions (xid `i+1` inserts row id
/// `i`) in a fresh in-memory segment store and return the store.
fn committed_wal(txns: usize, segment_pages: u64) -> Arc<staged_db::storage::MemSegmentStore> {
    use staged_db::storage::wal::{LogRecord, Wal};
    let store = Arc::new(staged_db::storage::MemSegmentStore::new());
    let wal = Wal::open_with_segment_pages(
        Arc::clone(&store) as Arc<dyn staged_db::storage::SegmentStore>,
        segment_pages,
    )
    .unwrap();
    for i in 0..txns {
        let xid = i as u64 + 1;
        wal.append(&LogRecord::Begin { xid }).unwrap();
        let row = Tuple::new(vec![Value::Int(i as i64), Value::Str(format!("row-{i}"))]);
        wal.append(&LogRecord::Insert {
            xid,
            table: 1,
            rid: Rid::new(PageId(0), i as u16),
            bytes: row.encode(),
        })
        .unwrap();
        wal.append(&LogRecord::Commit { xid }).unwrap();
    }
    store
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Crash the log at *any byte position*: zero everything from that
    /// offset to the end of the final segment (a crash never mangles
    /// sealed segments that were synced long ago). The tolerant reader
    /// must never panic, never report damage for a clean tear, and the
    /// surviving committed transactions must be exactly a prefix
    /// `{1..=k}` — no holes, no partial transactions, no resurrected
    /// suffix.
    #[test]
    fn wal_tail_truncation_recovers_a_committed_prefix(
        txns in 1usize..40,
        segment_pages in 1u64..4,
        cut in 0usize..200_000,
    ) {
        use staged_db::storage::wal::{LogRecord, Wal};
        use staged_db::storage::{DiskManager, SegmentStore};
        let store = committed_wal(txns, segment_pages);
        // Zero-truncate the final segment from byte `cut` (clamped to its
        // written size) to its end.
        let last = *store.list().unwrap().last().unwrap();
        let disk = store.disk(last).unwrap();
        let pages = disk.num_pages();
        let seg_bytes = pages as usize * staged_db::storage::PAGE_SIZE;
        let cut = cut % (seg_bytes + 1);
        let zeroes = vec![0u8; staged_db::storage::PAGE_SIZE];
        let mut page = vec![0u8; staged_db::storage::PAGE_SIZE];
        for p in 0..pages {
            let start = p as usize * staged_db::storage::PAGE_SIZE;
            let end = start + staged_db::storage::PAGE_SIZE;
            if start >= cut {
                disk.write_page(PageId(p), &zeroes).unwrap();
            } else if end > cut {
                disk.read_page(PageId(p), &mut page).unwrap();
                page[cut - start..].fill(0);
                disk.write_page(PageId(p), &page).unwrap();
            }
        }
        let (records, damage) =
            Wal::read_store(store.as_ref() as &dyn SegmentStore);
        // A tear is silent: truncation only ever zeroes a suffix, which the
        // scanner must treat as end-of-log, not corruption.
        prop_assert!(damage.is_none(), "clean tear reported as damage: {:?}", damage);
        // Committed set is a gapless prefix of {1..=txns}.
        let mut committed: Vec<u64> = records
            .iter()
            .filter_map(|(_, r)| match r {
                LogRecord::Commit { xid } => Some(*xid),
                _ => None,
            })
            .collect();
        committed.sort_unstable();
        let k = committed.len() as u64;
        prop_assert_eq!(&committed[..], &(1..=k).collect::<Vec<u64>>()[..],
            "committed set is not a prefix");
        // Every committed transaction's insert survived in full, in order.
        for (_, rec) in &records {
            if let LogRecord::Insert { xid, bytes, .. } = rec {
                if *xid <= k {
                    let t = Tuple::decode(bytes).unwrap();
                    prop_assert_eq!(t.get(0), &Value::Int(*xid as i64 - 1));
                }
            }
        }
        // And re-opening the torn store repairs it into a writable log.
        let wal = Wal::open_with_segment_pages(
            Arc::clone(&store) as Arc<dyn SegmentStore>, segment_pages).unwrap();
        wal.append(&LogRecord::Commit { xid: 10_000 }).unwrap();
        prop_assert!(wal.committed_xids().unwrap().contains(&10_000));
    }
}
