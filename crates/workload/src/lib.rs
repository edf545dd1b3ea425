//! # staged-workload — benchmark data and query generators
//!
//! The paper's experiments use workloads "designed after the Wisconsin
//! benchmark" (§3.1.1). This crate generates Wisconsin-style tables —
//! `unique1` (random unique), `unique2` (sequential unique), small-domain
//! columns `two/four/ten/twenty`, percentage selectors `onepercent` /
//! `tenpercent`, and padded string columns — plus the two query mixes:
//!
//! * **Workload A**: short selection/aggregation queries with selective
//!   predicates (I/O-bound when the buffer pool is cold or undersized);
//! * **Workload B**: longer join queries over memory-resident tables
//!   (CPU-bound; only logging I/O).
//!
//! Everything is seeded and deterministic.

#![deny(missing_docs)]

use crossbeam::channel::Receiver;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use staged_server::Response;
use staged_storage::{Catalog, Column, DataType, Schema, Tuple, Value};
use std::sync::Arc;

/// Column layout of a Wisconsin-style table.
pub fn wisconsin_schema() -> Schema {
    Schema::new(vec![
        Column::new("unique1", DataType::Int),
        Column::new("unique2", DataType::Int),
        Column::new("two", DataType::Int),
        Column::new("four", DataType::Int),
        Column::new("ten", DataType::Int),
        Column::new("twenty", DataType::Int),
        Column::new("onepercent", DataType::Int),
        Column::new("tenpercent", DataType::Int),
        Column::new("stringu1", DataType::Str),
        Column::new("string4", DataType::Str),
    ])
}

/// Generate the rows of a Wisconsin table with `rows` tuples.
pub fn wisconsin_rows(rows: usize, seed: u64) -> Vec<Tuple> {
    let mut rng = StdRng::seed_from_u64(seed);
    // unique1: a random permutation of 0..rows.
    let mut unique1: Vec<i64> = (0..rows as i64).collect();
    for i in (1..unique1.len()).rev() {
        let j = rng.gen_range(0..=i);
        unique1.swap(i, j);
    }
    let strings = ["AAAA", "HHHH", "OOOO", "VVVV"];
    (0..rows)
        .map(|i| {
            let u1 = unique1[i];
            let one_pct = (rows / 100).max(1) as i64;
            let ten_pct = (rows / 10).max(1) as i64;
            Tuple::new(vec![
                Value::Int(u1),
                Value::Int(i as i64),
                Value::Int(u1 % 2),
                Value::Int(u1 % 4),
                Value::Int(u1 % 10),
                Value::Int(u1 % 20),
                Value::Int(u1 % one_pct),
                Value::Int(u1 % ten_pct),
                Value::Str(format!("{}{:08}", strings[(u1 % 4) as usize], u1)),
                Value::Str(strings[i % 4].to_string()),
            ])
        })
        .collect()
}

/// Create and populate a Wisconsin table directly through the catalog
/// (bypassing SQL, for speed), with an index on `unique1` and fresh stats.
pub fn load_wisconsin_table(
    catalog: &Arc<Catalog>,
    name: &str,
    rows: usize,
    seed: u64,
) -> staged_storage::StorageResult<()> {
    let info = catalog.create_table(name, wisconsin_schema())?;
    for row in wisconsin_rows(rows, seed) {
        info.heap.insert(&row)?;
    }
    catalog.create_index(&format!("{name}_unique1"), name, "unique1")?;
    catalog.analyze_table(name)?;
    Ok(())
}

/// Like [`load_wisconsin_table`] but hash-partitioned `partitions` ways on
/// `unique1` (the partition-parallel experiments sweep this), without an
/// index so scans exercise the partial-scan path.
pub fn load_wisconsin_table_partitioned(
    catalog: &Arc<Catalog>,
    name: &str,
    rows: usize,
    seed: u64,
    partitions: usize,
) -> staged_storage::StorageResult<()> {
    let info = catalog.create_table_partitioned(name, wisconsin_schema(), partitions, 0)?;
    for row in wisconsin_rows(rows, seed) {
        info.heap.insert(&row)?;
    }
    catalog.analyze_table(name)?;
    Ok(())
}

/// One generated query plus its workload class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeneratedQuery {
    /// SQL text.
    pub sql: String,
    /// Short label for reporting.
    pub kind: &'static str,
}

/// Workload A (paper §3.1.1): short selections/aggregations over `table`.
pub struct WorkloadA {
    rng: StdRng,
    table: String,
    rows: usize,
}

impl WorkloadA {
    /// Generator over a table loaded with [`load_wisconsin_table`].
    pub fn new(table: impl Into<String>, rows: usize, seed: u64) -> Self {
        Self { rng: StdRng::seed_from_u64(seed), table: table.into(), rows }
    }

    /// Next query in the stream.
    pub fn next_query(&mut self) -> GeneratedQuery {
        let t = &self.table;
        let n = self.rows as i64;
        match self.rng.gen_range(0..4u32) {
            0 => {
                // 1% range selection on the indexed key.
                let lo = self.rng.gen_range(0..n - n / 100 - 1);
                let hi = lo + n / 100;
                GeneratedQuery {
                    sql: format!(
                        "SELECT unique1, stringu1 FROM {t} WHERE unique1 BETWEEN {lo} AND {hi}"
                    ),
                    kind: "range-1pct",
                }
            }
            1 => {
                let k = self.rng.gen_range(0..n);
                GeneratedQuery {
                    sql: format!("SELECT * FROM {t} WHERE unique1 = {k}"),
                    kind: "point",
                }
            }
            2 => {
                let g = self.rng.gen_range(0..10);
                GeneratedQuery {
                    sql: format!(
                        "SELECT COUNT(*), SUM(unique2) FROM {t} WHERE ten = {g} AND two = 0"
                    ),
                    kind: "agg-filter",
                }
            }
            _ => {
                let lo = self.rng.gen_range(0..n - n / 50 - 1);
                let hi = lo + n / 50;
                GeneratedQuery {
                    sql: format!(
                        "SELECT MIN(unique2), MAX(unique2) FROM {t} \
                         WHERE unique1 BETWEEN {lo} AND {hi}"
                    ),
                    kind: "minmax-range",
                }
            }
        }
    }
}

/// Workload B (paper §3.1.1): longer joins over memory-resident tables.
pub struct WorkloadB {
    rng: StdRng,
    left: String,
    right: String,
}

impl WorkloadB {
    /// Generator joining two Wisconsin tables.
    pub fn new(left: impl Into<String>, right: impl Into<String>, seed: u64) -> Self {
        Self { rng: StdRng::seed_from_u64(seed), left: left.into(), right: right.into() }
    }

    /// Next query in the stream.
    pub fn next_query(&mut self) -> GeneratedQuery {
        let (l, r) = (&self.left, &self.right);
        match self.rng.gen_range(0..3u32) {
            0 => GeneratedQuery {
                sql: format!(
                    "SELECT COUNT(*) FROM {l}, {r} WHERE {l}.unique1 = {r}.unique1 \
                     AND {l}.two = 0"
                ),
                kind: "joinAB",
            },
            1 => {
                let g = self.rng.gen_range(0..4);
                GeneratedQuery {
                    sql: format!(
                        "SELECT {l}.ten, COUNT(*), SUM({r}.unique2) FROM {l}, {r} \
                         WHERE {l}.unique1 = {r}.unique1 AND {l}.four = {g} \
                         GROUP BY {l}.ten"
                    ),
                    kind: "join-group",
                }
            }
            _ => GeneratedQuery {
                sql: format!(
                    "SELECT {l}.unique1 FROM {l}, {r} \
                     WHERE {l}.unique1 = {r}.unique2 AND {r}.twenty = 7 \
                     ORDER BY {l}.unique1 LIMIT 50"
                ),
                kind: "join-sort",
            },
        }
    }
}

/// Drive `count` queries, round-robin from a generator closure, through
/// `submit` — either server's `submit`; returns elapsed seconds (closed
/// loop, `clients` in flight).
pub fn drive(
    submit: impl Fn(String) -> Receiver<Response>,
    mut gen: impl FnMut() -> GeneratedQuery,
    count: usize,
    clients: usize,
) -> f64 {
    let start = std::time::Instant::now();
    let mut in_flight = std::collections::VecDeque::new();
    for _ in 0..count {
        while in_flight.len() >= clients.max(1) {
            let rx: Receiver<Response> = in_flight.pop_front().expect("non-empty");
            let _ = rx.recv();
        }
        in_flight.push_back(submit(gen().sql));
    }
    while let Some(rx) = in_flight.pop_front() {
        let _ = rx.recv();
    }
    start.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use staged_server::ThreadedServer;
    use staged_storage::{BufferPool, MemDisk};

    #[test]
    fn wisconsin_rows_have_unique_keys_and_right_domains() {
        let rows = wisconsin_rows(1000, 7);
        assert_eq!(rows.len(), 1000);
        let mut seen = std::collections::HashSet::new();
        for r in &rows {
            let u1 = r.get(0).as_int().unwrap();
            assert!(seen.insert(u1), "unique1 must be unique");
            assert!((0..1000).contains(&u1));
            assert!((0..2).contains(&r.get(2).as_int().unwrap()));
            assert!((0..4).contains(&r.get(3).as_int().unwrap()));
            assert!((0..10).contains(&r.get(4).as_int().unwrap()));
            assert!((0..20).contains(&r.get(5).as_int().unwrap()));
        }
    }

    #[test]
    fn generator_is_deterministic_per_seed() {
        let a: Vec<String> = {
            let mut w = WorkloadA::new("t", 1000, 5);
            (0..10).map(|_| w.next_query().sql).collect()
        };
        let b: Vec<String> = {
            let mut w = WorkloadA::new("t", 1000, 5);
            (0..10).map(|_| w.next_query().sql).collect()
        };
        assert_eq!(a, b);
        let c: Vec<String> = {
            let mut w = WorkloadA::new("t", 1000, 6);
            (0..10).map(|_| w.next_query().sql).collect()
        };
        assert_ne!(a, c, "different seeds differ");
    }

    #[test]
    fn load_and_query_wisconsin_through_server() {
        let cat = Arc::new(Catalog::new(BufferPool::new(Arc::new(MemDisk::new()), 1024)));
        load_wisconsin_table(&cat, "wisc", 2000, 3).unwrap();
        let s = ThreadedServer::new(cat, 2, Default::default());
        let out = s.execute_sql("SELECT COUNT(*) FROM wisc").unwrap();
        assert_eq!(out.rows[0].to_string(), "[2000]");
        let mut wa = WorkloadA::new("wisc", 2000, 11);
        for _ in 0..12 {
            let q = wa.next_query();
            s.execute_sql(&q.sql).unwrap_or_else(|e| panic!("{}: {e}", q.sql));
        }
        s.shutdown();
    }

    #[test]
    fn workload_b_joins_run() {
        let cat = Arc::new(Catalog::new(BufferPool::new(Arc::new(MemDisk::new()), 2048)));
        load_wisconsin_table(&cat, "ta", 1000, 1).unwrap();
        load_wisconsin_table(&cat, "tb", 1000, 2).unwrap();
        let s = ThreadedServer::new(cat, 2, Default::default());
        let mut wb = WorkloadB::new("ta", "tb", 4);
        for _ in 0..6 {
            let q = wb.next_query();
            s.execute_sql(&q.sql).unwrap_or_else(|e| panic!("{}: {e}", q.sql));
        }
        s.shutdown();
    }
}
