//! Differential tests: the staged page-push engine must produce exactly the
//! same rows as the Volcano baseline for every supported query shape.

use staged_engine::context::ExecContext;
use staged_engine::staged::{EngineConfig, StageKind, StagedEngine};
use staged_engine::volcano;
use staged_planner::PhysicalPlan;
use staged_planner::{plan_select, PlannerConfig};
use staged_sql::binder::{BindContext, Binder};
use staged_sql::parser::parse_statement;
use staged_sql::Statement;
use staged_storage::{BufferPool, Catalog, Column, DataType, MemDisk, Schema, Tuple, Value};
use std::sync::Arc;

fn setup() -> Arc<Catalog> {
    let pool = BufferPool::new(Arc::new(MemDisk::new()), 1024);
    let cat = Arc::new(Catalog::new(pool));
    let t = cat
        .create_table(
            "t",
            Schema::new(vec![
                Column::new("a", DataType::Int),
                Column::new("grp", DataType::Int),
                Column::new("s", DataType::Str),
                Column::new("v", DataType::Float).nullable(),
            ]),
        )
        .unwrap();
    for i in 0..500i64 {
        let v = if i % 11 == 0 { Value::Null } else { Value::Float((i % 50) as f64 / 2.0) };
        t.heap
            .insert(&Tuple::new(vec![
                Value::Int(i),
                Value::Int(i % 7),
                Value::Str(format!("str{}", i % 23)),
                v,
            ]))
            .unwrap();
    }
    let u = cat
        .create_table(
            "u",
            Schema::new(vec![Column::new("a", DataType::Int), Column::new("w", DataType::Int)]),
        )
        .unwrap();
    for i in 0..80i64 {
        u.heap.insert(&Tuple::new(vec![Value::Int(i * 5), Value::Int(i % 3)])).unwrap();
    }
    cat.create_index("t_a", "t", "a").unwrap();
    cat.analyze_table("t").unwrap();
    cat.analyze_table("u").unwrap();
    cat
}

fn plan_sql(cat: &Arc<Catalog>, sql: &str) -> PhysicalPlan {
    let Statement::Select(sel) = parse_statement(sql).unwrap() else { panic!("not a select") };
    let bound = Binder::new(BindContext::new(cat)).bind_select(sel).unwrap();
    plan_select(&bound, cat, &PlannerConfig::default()).unwrap()
}

fn run_both(cat: &Arc<Catalog>, sql: &str, cfg: &EngineConfig) -> (Vec<Tuple>, Vec<Tuple>) {
    let plan = plan_sql(cat, sql);
    let ctx = ExecContext::new(Arc::clone(cat));
    let volcano_rows = volcano::run(&plan, &ctx).unwrap();
    let engine = StagedEngine::new(ctx, cfg.clone());
    let staged_rows = engine.execute(&plan).collect().unwrap();
    engine.shutdown();
    (volcano_rows, staged_rows)
}

fn canonical(mut rows: Vec<Tuple>) -> Vec<String> {
    let mut s: Vec<String> = rows.drain(..).map(|t| format!("{t}")).collect();
    s.sort();
    s
}

fn assert_equivalent(sql: &str) {
    let cat = setup();
    let (v, s) = run_both(&cat, sql, &EngineConfig::default());
    let (vn, sn) = (v.len(), s.len());
    assert_eq!(canonical(v), canonical(s), "row mismatch for {sql}");
    assert_eq!(vn, sn);
}

#[test]
fn full_scan() {
    assert_equivalent("SELECT * FROM t");
}

#[test]
fn filtered_scan_and_projection() {
    assert_equivalent("SELECT a, a * 2 FROM t WHERE grp = 3 AND a < 100");
}

/// Which path a plan took, read off the engine's monitor: `iscan` packets
/// served on a caller's thread (a lone probe run inline books a followed
/// visit of one) and `send` stage visits (every quantum of a `SendTask`).
fn probe_path(engine: &StagedEngine) -> (u64, u64) {
    let st = engine.runtime().stats();
    (st[engine.stage_id(StageKind::IScan)].followed, st[engine.stage_id(StageKind::Send)].processed)
}

/// Run `plan` on `engine` and require that it was a lone probe: answered on
/// this thread, so `iscan` books one followed visit and the `send` stage
/// never sees the query.
fn run_inline(engine: &Arc<StagedEngine>, plan: &PhysicalPlan) -> Vec<Tuple> {
    let (followed, sent) = probe_path(engine);
    let rows = engine.execute(plan).collect().unwrap();
    assert_eq!(probe_path(engine), (followed + 1, sent), "not served inline:\n{plan}");
    rows
}

/// Wait until every stage has booked each packet it dequeued: a stage
/// books a quantum just after running it, which can be after the query's
/// client has seen its last row. (Packets served inline are booked but
/// never dequeued.)
fn settle(engine: &StagedEngine) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    let busy = |st: &staged_core::prelude::StageStats| {
        st.processed + st.errors != st.queue.dequeued + st.followed
    };
    while engine.runtime().stats().iter().any(busy) && std::time::Instant::now() < deadline {
        std::thread::yield_now();
    }
}

/// Run `plan` on `engine` and require that it went through the stage
/// queues: the `send` stage delivers it and `iscan` follows nothing.
fn run_queued(engine: &Arc<StagedEngine>, plan: &PhysicalPlan) -> Vec<Tuple> {
    let (followed, sent) = probe_path(engine);
    let rows = engine.execute(plan).collect().unwrap();
    settle(engine);
    let (followed_after, sent_after) = probe_path(engine);
    assert!(followed_after == followed && sent_after > sent, "not queued:\n{plan}");
    rows
}

/// Lone probes — an `IndexScan` under nothing but fused filters,
/// projections and limits — run on the caller's thread: point hit, point
/// miss, range, residual predicate, projection, limits over a range.
const LONE_PROBES: &[&str] = &[
    "SELECT * FROM w WHERE unique1 = 123",
    "SELECT * FROM w WHERE unique1 = 99999",
    "SELECT s4 FROM w WHERE unique1 BETWEEN 100 AND 105",
    "SELECT unique1, s4 FROM w WHERE unique1 BETWEEN 100 AND 105 AND ten = 3",
    "SELECT unique1 * 2, s4 FROM w WHERE unique1 = 77",
    "SELECT unique1 FROM w WHERE unique1 BETWEEN 100 AND 105 LIMIT 0",
    "SELECT unique1 FROM w WHERE unique1 BETWEEN 100 AND 105 LIMIT 1",
];

/// Index scans under a stage-owning operator (sort, aggregate, join) are
/// compiled into queued tasks, so `IndexScanTask` keeps its coverage.
const QUEUED_PROBES: &[&str] = &[
    "SELECT unique1 FROM w WHERE unique1 BETWEEN 100 AND 105 ORDER BY unique1 DESC",
    "SELECT ten, COUNT(*), SUM(unique2) FROM w WHERE unique1 BETWEEN 100 AND 105 GROUP BY ten",
    "SELECT w.unique1, x.g FROM w, x WHERE w.unique1 = x.k AND w.unique1 BETWEEN 100 AND 105",
];

#[test]
fn index_point_and_range() {
    for parts in [1usize, 2, 4] {
        let cat = setup_partitioned(parts, true);
        let ctx = ExecContext::new(Arc::clone(&cat));
        let engine = StagedEngine::new(ctx.clone(), EngineConfig::default());
        for sql in LONE_PROBES {
            let plan = plan_sql(&cat, sql);
            assert!(plan.to_string().contains("IndexScan"), "{sql}:\n{plan}");
            let v = volcano::run(&plan, &ctx).unwrap();
            assert_eq!(v, run_inline(&engine, &plan), "{sql} at {parts} partitions");
        }
        for sql in QUEUED_PROBES {
            let plan = plan_sql(&cat, sql);
            assert!(plan.to_string().contains("IndexScan"), "{sql}:\n{plan}");
            let v = volcano::run(&plan, &ctx).unwrap();
            let s = run_queued(&engine, &plan);
            assert_eq!(canonical(v), canonical(s), "{sql} at {parts} partitions");
        }
        engine.shutdown();
    }
}

#[test]
fn hash_join_matches() {
    assert_equivalent("SELECT t.a, u.w FROM t, u WHERE t.a = u.a");
}

#[test]
fn non_equi_nested_loop_join() {
    assert_equivalent("SELECT t.a, u.a FROM t, u WHERE t.a < u.a AND u.a < 30 AND t.a > 20");
}

#[test]
fn aggregation_with_group_and_having() {
    assert_equivalent(
        "SELECT grp, COUNT(*), SUM(a), AVG(v), MIN(s), MAX(a) FROM t GROUP BY grp HAVING COUNT(*) > 10",
    );
}

#[test]
fn global_aggregate_without_groups() {
    assert_equivalent("SELECT COUNT(*), SUM(a) FROM t WHERE a < 0");
    assert_equivalent("SELECT COUNT(*), AVG(a) FROM t");
}

#[test]
fn distinct_and_limit() {
    assert_equivalent("SELECT DISTINCT grp FROM t");
    let cat = setup();
    let (v, s) = run_both(&cat, "SELECT a FROM t LIMIT 17", &EngineConfig::default());
    assert_eq!(v.len(), 17);
    assert_eq!(s.len(), 17);
}

#[test]
fn order_by_is_respected_by_both() {
    let cat = setup();
    let (v, s) = run_both(
        &cat,
        "SELECT a FROM t WHERE grp = 1 ORDER BY a DESC LIMIT 5",
        &EngineConfig::default(),
    );
    assert_eq!(canonical(v.clone()), canonical(s.clone()));
    // Exact order (not just multiset) must match for ORDER BY queries.
    let vs: Vec<String> = v.iter().map(|t| t.to_string()).collect();
    let ss: Vec<String> = s.iter().map(|t| t.to_string()).collect();
    assert_eq!(vs, ss);
}

#[test]
fn merge_join_forced_by_config() {
    let cat = setup();
    let Statement::Select(sel) =
        parse_statement("SELECT t.a, u.w FROM t, u WHERE t.a = u.a").unwrap()
    else {
        panic!()
    };
    let bound = Binder::new(BindContext::new(&cat)).bind_select(sel).unwrap();
    let pcfg = PlannerConfig { enable_hash_join: false, ..Default::default() };
    let plan = plan_select(&bound, &cat, &pcfg).unwrap();
    assert!(plan.to_string().contains("MergeJoin"));
    let ctx = ExecContext::new(Arc::clone(&cat));
    let v = volcano::run(&plan, &ctx).unwrap();
    let engine = StagedEngine::new(ctx.clone(), EngineConfig::default());
    let s = engine.execute(&plan).collect().unwrap();
    engine.shutdown();
    // Both engines run the one merge-join kernel; the default hash-join
    // plan is the independent reference it is checked against.
    let hash = plan_select(&bound, &cat, &PlannerConfig::default()).unwrap();
    assert!(hash.to_string().contains("HashJoin"));
    let h = volcano::run(&hash, &ctx).unwrap();
    assert!(!h.is_empty());
    assert_eq!(canonical(v.clone()), canonical(h));
    assert_eq!(canonical(v), canonical(s));
}

#[test]
fn small_exchange_pages_still_correct() {
    let cat = setup();
    // Pages of one tuple: every buffer fills within a handful of rows, so
    // producers park on full buffers throughout the join.
    let cfg = EngineConfig { batch_capacity: 1, ..Default::default() };
    let (v, s) = run_both(&cat, "SELECT t.a, u.w FROM t, u WHERE t.a = u.a AND t.grp < 5", &cfg);
    assert_eq!(canonical(v), canonical(s));
}

#[test]
fn concurrent_queries_share_one_engine() {
    let cat = setup();
    let ctx = ExecContext::new(Arc::clone(&cat));
    let engine = StagedEngine::new(ctx.clone(), EngineConfig::default());
    let mk_plan = |sql: &str| {
        let Statement::Select(sel) = parse_statement(sql).unwrap() else { panic!() };
        let bound = Binder::new(BindContext::new(&cat)).bind_select(sel).unwrap();
        plan_select(&bound, &cat, &PlannerConfig::default()).unwrap()
    };
    let queries = [
        "SELECT COUNT(*) FROM t",
        "SELECT grp, COUNT(*) FROM t GROUP BY grp",
        "SELECT t.a FROM t, u WHERE t.a = u.a",
        "SELECT MAX(a) FROM t WHERE grp = 4",
    ];
    // Launch all queries concurrently against the same stage set.
    let handles: Vec<_> = queries.iter().map(|q| engine.execute(&mk_plan(q))).collect();
    let expected: Vec<Vec<String>> =
        queries.iter().map(|q| canonical(volcano::run(&mk_plan(q), &ctx).unwrap())).collect();
    for (h, exp) in handles.into_iter().zip(expected) {
        let rows = h.collect().unwrap();
        assert_eq!(canonical(rows), exp);
    }
    engine.shutdown();
}

// ------------------------------------------------------- partitioned --
//
// The partition-parallel differential suite: the same Wisconsin-style data
// loaded at 1, 2, 4 and 8 partitions must return identical (sorted) result
// sets from both engines, for every supported query shape. The staged
// engine runs the partial pipelines on real worker threads, so this also
// exercises the merge stage under genuine interleaving.

const WIS_ROWS: i64 = 2000;

/// Deterministic Wisconsin-style rows (no RNG available here):
/// `unique1` = a bijective permutation of 0..n (271 is prime and coprime to
/// the row count), plus the usual small-domain selector columns.
fn wisconsin_like_row(i: i64) -> Tuple {
    let u1 = (i * 271) % WIS_ROWS;
    Tuple::new(vec![
        Value::Int(u1),
        Value::Int(i),
        Value::Int(u1 % 2),
        Value::Int(u1 % 10),
        Value::Int(u1 % 20),
        Value::Str(format!("s{}", u1 % 4)),
    ])
}

fn setup_partitioned(parts: usize, with_index: bool) -> Arc<Catalog> {
    let pool = BufferPool::new(Arc::new(MemDisk::new()), 2048);
    let cat = Arc::new(Catalog::new(pool));
    let w = cat
        .create_table_partitioned(
            "w",
            Schema::new(vec![
                Column::new("unique1", DataType::Int),
                Column::new("unique2", DataType::Int),
                Column::new("two", DataType::Int),
                Column::new("ten", DataType::Int),
                Column::new("twenty", DataType::Int),
                Column::new("s4", DataType::Str),
            ]),
            parts,
            0,
        )
        .unwrap();
    for i in 0..WIS_ROWS {
        w.heap.insert(&wisconsin_like_row(i)).unwrap();
    }
    let x = cat
        .create_table_partitioned(
            "x",
            Schema::new(vec![Column::new("k", DataType::Int), Column::new("g", DataType::Int)]),
            parts,
            0,
        )
        .unwrap();
    for i in 0..90i64 {
        x.heap.insert(&Tuple::new(vec![Value::Int(i * 7), Value::Int(i % 4)])).unwrap();
    }
    if with_index {
        cat.create_index("w_u1", "w", "unique1").unwrap();
    }
    cat.analyze_table("w").unwrap();
    cat.analyze_table("x").unwrap();
    cat
}

/// The differential query shapes: scans, point lookups (partition-pruned),
/// joins, and every aggregate combination the merge stage must combine.
const PARTITIONED_SHAPES: &[&str] = &[
    "SELECT * FROM w",
    "SELECT unique2, s4 FROM w WHERE unique1 = 123",
    "SELECT w.unique1, x.g FROM w, x WHERE w.unique1 = x.k",
    "SELECT ten, COUNT(*), SUM(unique2), MIN(unique1), MAX(unique2), AVG(unique1) \
     FROM w GROUP BY ten",
    "SELECT COUNT(*), AVG(unique2) FROM w WHERE two = 0",
    "SELECT COUNT(*), SUM(unique1) FROM w WHERE unique1 < 0",
    "SELECT DISTINCT twenty FROM w ORDER BY twenty DESC LIMIT 7",
    "SELECT x.g, COUNT(*), AVG(w.unique2) FROM w, x WHERE w.unique1 = x.k GROUP BY x.g",
];

fn run_volcano_on(cat: &Arc<Catalog>, sql: &str) -> Vec<Tuple> {
    volcano::run(&plan_sql(cat, sql), &ExecContext::new(Arc::clone(cat))).unwrap()
}

#[test]
fn partitioned_differential_suite_matches_volcano_at_every_partition_count() {
    // Reference: the unpartitioned catalog through Volcano only.
    let reference: Vec<Vec<String>> = {
        let cat = setup_partitioned(1, false);
        PARTITIONED_SHAPES.iter().map(|sql| canonical(run_volcano_on(&cat, sql))).collect()
    };
    for parts in [1usize, 2, 4, 8] {
        let cat = setup_partitioned(parts, false);
        let cfg = EngineConfig { workers_per_stage: 2, ..Default::default() };
        for (sql, expect) in PARTITIONED_SHAPES.iter().zip(&reference) {
            let (v, s) = run_both(&cat, sql, &cfg);
            let (vc, sc) = (canonical(v), canonical(s));
            assert_eq!(vc, *expect, "volcano drifted at {parts} partitions for {sql}");
            assert_eq!(sc, *expect, "staged drifted at {parts} partitions for {sql}");
        }
    }
}

#[test]
fn differential_suite_matches_volcano_at_the_default_config() {
    // A mixed query set diffed against Volcano on the engine's default
    // configuration: the cohort bound of every stage but `fscan` is the
    // fixed `COHORT`, which must never change results.
    let shapes = [
        "SELECT * FROM t WHERE grp = 2",
        "SELECT t.a, u.w FROM t, u WHERE t.a = u.a",
        "SELECT grp, COUNT(*), SUM(a), AVG(v) FROM t GROUP BY grp",
        "SELECT DISTINCT grp FROM t ORDER BY grp",
        "SELECT s FROM t WHERE a BETWEEN 10 AND 40",
        "SELECT COUNT(*) FROM t WHERE grp = 2",
    ];
    let cat = setup();
    let reference: Vec<Vec<String>> =
        shapes.iter().map(|sql| canonical(run_volcano_on(&cat, sql))).collect();
    for (sql, expect) in shapes.iter().zip(&reference) {
        let (v, s) = run_both(&cat, sql, &EngineConfig::default());
        assert_eq!(canonical(v), *expect, "volcano drifted for {sql}");
        assert_eq!(canonical(s), *expect, "staged drifted for {sql}");
    }
}

#[test]
fn differential_suite_matches_volcano_at_every_page_size() {
    // The exchange page size (paper §4.3 / §4.4 knob (c)) is the unit of
    // data exchange between engine stages. Sweep it from the degenerate
    // page of one tuple — which must reproduce the per-tuple semantics the
    // batch-first refactor replaced — up to pages far larger than any
    // buffer's tuple budget, and diff joins, sorts, DISTINCT and
    // aggregation against Volcano at every size.
    let shapes = [
        "SELECT t.a, u.w FROM t, u WHERE t.a = u.a",
        "SELECT t.a, u.a FROM t, u WHERE t.a < u.a AND u.a < 30 AND t.a > 20",
        "SELECT a, s FROM t WHERE grp = 1 ORDER BY a DESC",
        "SELECT DISTINCT grp FROM t ORDER BY grp",
        "SELECT grp, COUNT(*), SUM(a), AVG(v), MIN(s), MAX(a) FROM t GROUP BY grp",
        "SELECT s FROM t WHERE a BETWEEN 10 AND 40",
    ];
    let cat = setup();
    let reference: Vec<Vec<String>> =
        shapes.iter().map(|sql| canonical(run_volcano_on(&cat, sql))).collect();
    for page in [1usize, 8, 256, 4096] {
        let cfg = EngineConfig { batch_capacity: page, workers_per_stage: 2 };
        for (sql, expect) in shapes.iter().zip(&reference) {
            let (v, s) = run_both(&cat, sql, &cfg);
            assert_eq!(canonical(v), *expect, "volcano drifted at page {page} for {sql}");
            assert_eq!(canonical(s), *expect, "staged drifted at page {page} for {sql}");
        }
    }
}

#[test]
fn partitioned_two_phase_aggregation_matches_at_every_page_size() {
    // Two-phase aggregation (partial Aggr per partition, combined by the
    // Merge stage) exercises every batch edge: scan → aggr partials →
    // merge → send. The page size must never change the combined result.
    let shapes = [
        "SELECT ten, COUNT(*), SUM(unique2), MIN(unique1), MAX(unique2), AVG(unique1) \
         FROM w GROUP BY ten",
        "SELECT COUNT(*), AVG(unique2) FROM w WHERE two = 0",
        "SELECT x.g, COUNT(*), AVG(w.unique2) FROM w, x WHERE w.unique1 = x.k GROUP BY x.g",
    ];
    let cat = setup_partitioned(4, false);
    let reference: Vec<Vec<String>> =
        shapes.iter().map(|sql| canonical(run_volcano_on(&cat, sql))).collect();
    for page in [1usize, 8, 256, 4096] {
        let cfg = EngineConfig { batch_capacity: page, workers_per_stage: 2 };
        for (sql, expect) in shapes.iter().zip(&reference) {
            let (v, s) = run_both(&cat, sql, &cfg);
            assert_eq!(canonical(v), *expect, "volcano drifted at page {page} for {sql}");
            assert_eq!(canonical(s), *expect, "staged drifted at page {page} for {sql}");
        }
    }
}

/// Scan aggregates the fscan packet folds, on shapes the suites above do
/// not reach: computed group keys and arguments under a filter with no
/// interval fast path (so no column pruning), and HAVING plus LIMIT fused
/// above the aggregate.
const FOLDED_SHAPES: &[&str] = &[
    "SELECT ten % 3, COUNT(*), SUM(unique2 + 1), MAX(s4) FROM w WHERE twenty <> 5 GROUP BY ten % 3",
    "SELECT twenty, COUNT(*), MIN(unique2) FROM w WHERE two = 0 GROUP BY twenty \
     HAVING COUNT(*) > 40 LIMIT 3",
];

#[test]
fn scan_aggregates_fold_like_volcano_at_every_partition_count_and_page_size() {
    for parts in [1usize, 2, 4] {
        let cat = setup_partitioned(parts, false);
        for page in [1usize, 256] {
            let cfg = EngineConfig { batch_capacity: page, workers_per_stage: 2 };
            let at = format!("at {parts} partitions, page {page}");
            for sql in FOLDED_SHAPES {
                let (v, s) = run_both(&cat, sql, &cfg);
                if sql.contains("LIMIT") {
                    // Which groups a LIMIT keeps depends on arrival order;
                    // how many, and that each passed HAVING, does not.
                    let all = canonical(run_volcano_on(&cat, &sql.replace(" LIMIT 3", "")));
                    assert!(all.len() > 3, "the limit must cut: {all:?}");
                    assert_eq!((v.len(), s.len()), (3, 3), "{sql} {at}");
                    assert!(canonical(s).iter().all(|r| all.contains(r)), "{sql} {at}");
                } else {
                    assert_eq!(canonical(s), canonical(v), "{sql} {at}");
                }
            }
            // A global aggregate whose predicate matches nothing: one row.
            let (v, s) = run_both(&cat, "SELECT COUNT(*), SUM(unique2) FROM w WHERE two = 7", &cfg);
            let empty = vec![Tuple::new(vec![Value::Int(0), Value::Null])];
            assert_eq!((v, s), (empty.clone(), empty), "{at}");
            // A SUM overflow fails the query, on a deadline so a hang fails too.
            let plan = plan_sql(&cat, "SELECT SUM(unique2 * 1000000000000000) FROM w");
            let ctx = ExecContext::new(Arc::clone(&cat));
            assert!(volcano::run(&plan, &ctx).is_err());
            let engine = StagedEngine::new(ctx, cfg.clone());
            let result = engine.execute(&plan);
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || tx.send(result.collect().map_err(|e| e.to_string())));
            let outcome = rx.recv_timeout(std::time::Duration::from_secs(30));
            assert!(
                matches!(&outcome, Ok(Err(e)) if e.contains("SUM overflow")),
                "{outcome:?} {at}"
            );
            engine.shutdown();
        }
    }
}

/// The work a scan aggregate books: no `aggr` packet at all, and on
/// `fscan` one packet per quantum of rows (the engine's 4096-row quota,
/// overshot by at most a heap page) plus the one that finds its scan
/// exhausted, per partition.
#[test]
fn a_scan_aggregate_books_no_aggr_packet_and_one_fscan_packet_per_quantum() {
    const ROWS: i64 = 20_000;
    for parts in [1usize, 2, 4] {
        let cat = Arc::new(Catalog::new(BufferPool::new(Arc::new(MemDisk::new()), 256)));
        let schema = Schema::new(vec![
            Column::new("k", DataType::Int),
            Column::new("g", DataType::Int),
            Column::new("v", DataType::Int),
        ]);
        let big = cat.create_table_partitioned("big", schema, parts, 0).unwrap();
        for i in 0..ROWS {
            big.heap
                .insert(&Tuple::new(vec![Value::Int(i), Value::Int(i % 10), Value::Int(i)]))
                .unwrap();
        }
        cat.analyze_table("big").unwrap();
        let engine = StagedEngine::new(ExecContext::new(Arc::clone(&cat)), EngineConfig::default());
        let plan = plan_sql(&cat, "SELECT g, COUNT(*), SUM(v) FROM big WHERE k >= 0 GROUP BY g");
        assert_eq!(engine.execute(&plan).collect().unwrap().len(), 10);
        settle(&engine);
        let st = engine.runtime().stats();
        let booked = |k: StageKind| {
            let s = &st[engine.stage_id(k)];
            (s.processed + s.errors, s.queue.enqueued)
        };
        assert_eq!(booked(StageKind::Aggr), (0, 0), "at {parts} partitions");
        let quanta: u64 = (0..parts)
            .map(|p| big.heap.partition(p).count().unwrap().div_ceil(4096) as u64 + 1)
            .sum();
        let fscan = booked(StageKind::FScan).0;
        assert!(
            (parts as u64..=quanta).contains(&fscan),
            "{fscan} fscan packets at {parts} partitions"
        );
        assert!(quanta <= (parts * ((ROWS as usize).div_ceil(4096) + 1)) as u64);
        engine.shutdown();
    }
}

#[test]
fn partitioned_index_scans_merge_per_partition_btrees() {
    for parts in [1usize, 2, 4] {
        let cat = setup_partitioned(parts, true);
        let ctx = ExecContext::new(Arc::clone(&cat));
        let engine = StagedEngine::new(ctx.clone(), EngineConfig::default());
        let sqls = [
            "SELECT * FROM w WHERE unique1 = 77",
            "SELECT unique1, unique2 FROM w WHERE unique1 BETWEEN 100 AND 105",
        ];
        for sql in sqls {
            let plan = plan_sql(&cat, sql);
            assert!(plan.to_string().contains("IndexScan"), "{plan}");
            let v = volcano::run(&plan, &ctx).unwrap();
            let s = run_inline(&engine, &plan);
            assert_eq!(canonical(v.clone()), canonical(s), "{sql} at {parts} partitions");
            if sql.contains("BETWEEN") {
                assert_eq!(v.len(), 6, "index range must see every partition");
            }
        }
        engine.shutdown();
    }
}

/// The B+tree is the plan of record under a snapshot: `attach_snapshot`
/// stamps the `IndexScan` instead of folding it into a scan, and both
/// engines run the stamped plan to the same rows — the reader's view of an
/// uncommitted writer's update and delete, the writer's own, and a row
/// whose new version committed after the reader's pin. Every probe runs
/// three ways: Volcano, inline (the lone probe) and queued (the same probe
/// under a sort). The same views then feed scan aggregates, which the
/// staged engine narrows to the columns they read: at one partition that
/// is a column-pruned `SeqScan` filtered through the view page by page.
#[test]
fn index_scan_survives_attach_snapshot_and_both_engines_honour_the_view() {
    use staged_engine::dml::{self, DmlLog};
    use staged_engine::txn::TxnManager;
    use staged_sql::ast::{BinOp, ColumnRef, Expr};
    use staged_storage::wal::Wal;
    use staged_storage::ReadView;

    for parts in [1usize, 4] {
        let cat = setup_partitioned(parts, true);
        let ctx = ExecContext::new(Arc::clone(&cat));
        let w = cat.table("w").unwrap();
        let unique1_is = |v: i64| {
            let col = ColumnRef { table: None, name: "unique1".into(), index: Some(0) };
            Some(Expr::binary(Expr::Column(col), BinOp::Eq, Expr::int(v)))
        };
        // An open writer: moves key 101 out of the probed range and
        // deletes key 103.
        let (mgr, wal) = (TxnManager::with_oracle(Arc::clone(cat.oracle())), Wal::in_memory());
        let xid = mgr.begin(&wal).unwrap();
        let log = DmlLog::txn(&wal, xid, &mgr);
        dml::update_rows(&ctx, &w, &[(0, Expr::int(9101))], &unique1_is(101), Some(&log)).unwrap();
        dml::delete_rows(&ctx, &w, &unique1_is(103), Some(&log)).unwrap();
        let pin = cat.oracle().pin();
        // After the pin a second writer moves key 104 out of the range and
        // commits: the pinned reader still sees 104, a later one does not.
        let late = mgr.begin(&wal).unwrap();
        let late_log = DmlLog::txn(&wal, late, &mgr);
        dml::update_rows(&ctx, &w, &[(0, Expr::int(9104))], &unique1_is(104), Some(&late_log))
            .unwrap();
        mgr.commit(late, &ctx, &wal).unwrap();

        let range = "SELECT unique1 FROM w WHERE unique1 BETWEEN 100 AND 105";
        // (plan, served inline, the one key a point probe keeps)
        let plans = [
            (plan_sql(&cat, range), true, None),
            (plan_sql(&cat, &format!("{range} ORDER BY unique1")), false, None),
            (plan_sql(&cat, "SELECT unique1 FROM w WHERE unique1 = 101"), true, Some(101)),
            (plan_sql(&cat, "SELECT unique1 FROM w WHERE unique1 = 104"), true, Some(104)),
        ];
        let engine = StagedEngine::new(ctx.clone(), EngineConfig::default());
        let keys = |rows: Vec<Tuple>| {
            let mut k: Vec<i64> = rows.iter().map(|t| t.get(0).as_int().unwrap()).collect();
            k.sort_unstable();
            k
        };
        // (view, probed keys, the view's `COUNT(*)` and `SUM(unique1)`):
        // the writer's own view moves 101 by +9000 and drops 103, the later
        // view moves 104 by +9000.
        let total = (0..WIS_ROWS).sum::<i64>();
        let cases = [
            (ReadView::new(pin.ts(), 0), vec![100, 101, 102, 103, 104, 105], (2000, total)),
            (ReadView::new(pin.ts(), xid), vec![100, 102, 104, 105], (1999, total + 9000 - 103)),
            (
                ReadView::new(cat.oracle().latest(), 0),
                vec![100, 101, 102, 103, 105],
                (2000, total + 9000),
            ),
        ];
        let aggs = [
            "SELECT COUNT(*), SUM(unique1) FROM w",
            "SELECT ten, COUNT(*), SUM(unique2), MAX(unique1) FROM w WHERE two = 1 GROUP BY ten",
        ];
        for (view, expect, (count, sum)) in cases {
            for (plan, inline, point) in &plans {
                let mut plan = plan.clone();
                plan.attach_snapshot(view);
                let text = plan.to_string();
                assert!(text.contains("IndexScan") && !text.contains("SeqScan"), "{text}");
                let want: Vec<i64> =
                    expect.iter().copied().filter(|k| point.is_none_or(|p| p == *k)).collect();
                let at = format!("{view:?}, {parts} parts:\n{text}");
                assert_eq!(keys(volcano::run(&plan, &ctx).unwrap()), want, "volcano, {at}");
                let staged =
                    if *inline { run_inline(&engine, &plan) } else { run_queued(&engine, &plan) };
                assert_eq!(keys(staged), want, "staged (inline: {inline}), {at}");
            }
            for sql in aggs {
                let mut plan = plan_sql(&cat, sql);
                plan.attach_snapshot(view);
                let text = plan.to_string();
                let scan = if parts == 1 { "SeqScan" } else { "PartitionScan" };
                assert!(text.contains(scan), "{text}");
                let at = format!("{view:?}, {parts} parts:\n{text}");
                let v = volcano::run(&plan, &ctx).unwrap();
                if sql == aggs[0] {
                    assert_eq!(v, [Tuple::new(vec![Value::Int(count), Value::Int(sum)])], "{at}");
                }
                let s = run_queued(&engine, &plan);
                assert_eq!(canonical(v), canonical(s), "staged, {at}");
            }
        }
        engine.shutdown();
    }
}

#[test]
fn partitioned_point_lookup_is_pruned_and_complete() {
    let cat = setup_partitioned(8, false);
    // Every key must still be found after pruning to one partition.
    for k in (0..WIS_ROWS).step_by(53) {
        let sql = format!("SELECT unique1 FROM w WHERE unique1 = {k}");
        let Statement::Select(sel) = parse_statement(&sql).unwrap() else { panic!() };
        let bound = Binder::new(BindContext::new(&cat)).bind_select(sel).unwrap();
        let plan = plan_select(&bound, &cat, &PlannerConfig::default()).unwrap();
        let text = plan.to_string();
        assert!(text.contains("PartitionScan") && !text.contains("Exchange"), "{text}");
        let ctx = ExecContext::new(Arc::clone(&cat));
        let rows = volcano::run(&plan, &ctx).unwrap();
        assert_eq!(rows.len(), 1, "key {k} lost by pruning");
        assert_eq!(rows[0].get(0), &Value::Int(k));
    }
}

#[test]
fn error_in_task_reaches_the_client() {
    let cat = setup_partitioned(1, true);
    let ctx = ExecContext::new(Arc::clone(&cat));
    let engine = StagedEngine::new(ctx.clone(), EngineConfig::default());
    // Division by zero at run time (not foldable: depends on a column), in
    // a queued scan task and in a lone probe served inline.
    for (sql, inline) in [
        ("SELECT 10 / (unique2 - unique2) FROM w LIMIT 1", false),
        ("SELECT 10 / (unique2 - unique2) FROM w WHERE unique1 = 5", true),
    ] {
        let plan = plan_sql(&cat, sql);
        assert!(volcano::run(&plan, &ctx).is_err());
        let (followed, _) = probe_path(&engine);
        let res = engine.execute(&plan).collect();
        assert!(res.is_err(), "staged engine must surface the evaluation error of {sql}");
        let booked = probe_path(&engine).0 - followed;
        assert_eq!(booked, u64::from(inline), "{sql}: an inline failure is still a visit");
    }
    let iscan = &engine.runtime().stats()[engine.stage_id(StageKind::IScan)];
    assert_eq!(iscan.errors, 1, "the inline probe's error is booked on iscan");
    engine.shutdown();
}

/// After `shutdown` the engine refuses work the same way on both paths: a
/// lone probe is not run inline behind the closed stage, and a queued plan
/// is not silently answered with no rows — both fail.
#[test]
fn queries_after_shutdown_fail_inline_and_queued_alike() {
    let cat = setup_partitioned(1, true);
    let engine = StagedEngine::new(ExecContext::new(Arc::clone(&cat)), EngineConfig::default());
    let lone = plan_sql(&cat, LONE_PROBES[0]);
    let queued = plan_sql(&cat, QUEUED_PROBES[0]);
    assert_eq!(run_inline(&engine, &lone).len(), 1);
    engine.shutdown();
    let before = probe_path(&engine);
    for plan in [&lone, &queued, &plan_sql(&cat, "SELECT * FROM w")] {
        let err = engine.execute(plan).collect().unwrap_err();
        assert!(err.to_string().contains("shut down"), "{err} for\n{plan}");
    }
    assert_eq!(probe_path(&engine), before, "nothing ran after shutdown");
}

/// Equi-join keys compare exactly: two integers above 2^53 that share an
/// `f64` never match, nor does such an integer match the float it rounds
/// to, while an integral float still matches its integer. The `HashJoin`,
/// `MergeJoin` and `NestedLoopJoin` plans must agree on both engines.
#[test]
fn hash_and_merge_joins_agree_on_integers_above_2_pow_53_and_on_integral_floats() {
    let cat = Arc::new(Catalog::new(BufferPool::new(Arc::new(MemDisk::new()), 64)));
    // Each table also holds 300 rows that match nothing, so that the
    // planner costs a nested loop above a hash or merge join.
    let load = |name: &str, col: &str, ty: DataType, vals: Vec<Value>| {
        let t = cat.create_table(name, Schema::new(vec![Column::new(col, ty)])).unwrap();
        let sign = if matches!(name, "a" | "c") { 1 } else { -1 };
        let filler = (0..300).map(|i| match ty {
            DataType::Float => Value::Float((sign * (10_000 + i)) as f64),
            _ => Value::Int(sign * (10_000 + i)),
        });
        for v in vals.into_iter().chain(filler) {
            t.heap.insert(&Tuple::new(vec![v])).unwrap();
        }
        cat.analyze_table(name).unwrap();
    };
    let (big, big_less_one) = (9_007_199_254_740_993, 9_007_199_254_740_992);
    assert_eq!(big as f64, big_less_one as f64, "the pair shares an f64");
    load("a", "x", DataType::Int, vec![Value::Int(big), Value::Int(5)]);
    load("b", "y", DataType::Int, vec![Value::Int(big_less_one), Value::Int(5)]);
    // An INT above 2^53 against the FLOAT it rounds to: no match either.
    load("c", "x", DataType::Int, vec![Value::Int(1), Value::Int(2), Value::Int(big)]);
    let near = Value::Float(big_less_one as f64);
    load("d", "y", DataType::Float, vec![Value::Float(1.0), Value::Float(2.5), near]);
    let ctx = ExecContext::new(Arc::clone(&cat));
    let engine = StagedEngine::new(ctx.clone(), EngineConfig::default());
    let cases = [
        ("SELECT x, y FROM a, b WHERE a.x = b.y", vec![Value::Int(5), Value::Int(5)]),
        ("SELECT x, y FROM c, d WHERE c.x = d.y", vec![Value::Int(1), Value::Float(1.0)]),
    ];
    for (sql, want) in cases {
        let Statement::Select(sel) = parse_statement(sql).unwrap() else { panic!() };
        let bound = Binder::new(BindContext::new(&cat)).bind_select(sel).unwrap();
        let methods =
            [("HashJoin", true, false), ("MergeJoin", false, true), ("NestedLoop", false, false)];
        for (method, hash, merge) in methods {
            let cfg = PlannerConfig {
                enable_hash_join: hash,
                enable_merge_join: merge,
                ..Default::default()
            };
            let plan = plan_select(&bound, &cat, &cfg).unwrap();
            assert!(plan.to_string().contains(method), "{sql}:\n{plan}");
            let want = vec![Tuple::new(want.clone())];
            assert_eq!(volcano::run(&plan, &ctx).unwrap(), want, "volcano {method}: {sql}");
            let staged = engine.execute(&plan).collect().unwrap();
            assert_eq!(staged, want, "staged {method}: {sql}");
        }
    }
    engine.shutdown();
}

/// A scan whose own chain holds a spent LIMIT stops reading pages: over a
/// 100k-row table `SELECT x FROM a LIMIT 5` fetches the first page or so,
/// not the whole heap, on both engines.
#[test]
fn a_spent_limit_stops_the_scan_under_it() {
    let cat = Arc::new(Catalog::new(BufferPool::new(Arc::new(MemDisk::new()), 64)));
    let a = cat.create_table("a", Schema::new(vec![Column::new("x", DataType::Int)])).unwrap();
    for i in 0..100_000i64 {
        a.heap.insert(&Tuple::new(vec![Value::Int(i)])).unwrap();
    }
    cat.analyze_table("a").unwrap();
    let fetches = || {
        let st = cat.pool().stats();
        st.hits + st.misses
    };
    let ctx = ExecContext::new(Arc::clone(&cat));
    let plan = plan_sql(&cat, "SELECT x FROM a LIMIT 5");
    let engine = StagedEngine::new(ctx.clone(), EngineConfig::default());
    let before = fetches();
    assert_eq!(engine.execute(&plan).collect().unwrap().len(), 5);
    let staged = fetches() - before;
    engine.shutdown();
    let before = fetches();
    assert_eq!(volcano::run(&plan, &ctx).unwrap().len(), 5);
    let volcano = fetches() - before;
    assert!(staged <= 3, "the staged scan fetched {staged} pages for LIMIT 5");
    assert!(volcano <= 3, "the Volcano scan fetched {volcano} pages for LIMIT 5");
}
