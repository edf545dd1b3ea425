//! Parking: a blocked task waits in its wake cell, out of every queue,
//! until a buffer end moves. No wake may be lost (a lost one hangs its
//! query, so every wait here is bounded), a task is served a handful of
//! times however long it waits, and a parked packet neither escapes
//! `shutdown` nor outlives its query.

use staged_engine::context::ExecContext;
use staged_engine::staged::{EngineConfig, StageKind, StagedEngine};
use staged_engine::volcano;
use staged_planner::{plan_select, PhysicalPlan, PlannerConfig};
use staged_sql::binder::{BindContext, Binder};
use staged_sql::parser::parse_statement;
use staged_sql::Statement;
use staged_storage::partition::partition_of_value;
use staged_storage::{BufferPool, Catalog, Column, DataType, MemDisk, Schema, Tuple, Value};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

/// Long enough for any query here on a loaded debug build, short enough
/// that a lost wake-up fails the test instead of hanging it.
const PATIENCE: Duration = Duration::from_secs(120);

/// `t` and `u` join on `a`; `p` is hash-partitioned four ways on `k`.
fn setup() -> Arc<Catalog> {
    let cat = Arc::new(Catalog::new(BufferPool::new(Arc::new(MemDisk::new()), 512)));
    let schema =
        |a, b| Schema::new(vec![Column::new(a, DataType::Int), Column::new(b, DataType::Int)]);
    let t = cat.create_table("t", schema("a", "g")).unwrap();
    for i in 0..300i64 {
        t.heap.insert(&Tuple::new(vec![Value::Int(i), Value::Int(i % 7)])).unwrap();
    }
    let u = cat.create_table("u", schema("a", "w")).unwrap();
    for i in 0..60i64 {
        u.heap.insert(&Tuple::new(vec![Value::Int(i * 5), Value::Int(i % 3)])).unwrap();
    }
    let p = cat.create_table_partitioned("p", schema("k", "g"), 4, 0).unwrap();
    for i in 0..400i64 {
        p.heap.insert(&Tuple::new(vec![Value::Int(i), Value::Int(i % 5)])).unwrap();
    }
    for name in ["t", "u", "p"] {
        cat.analyze_table(name).unwrap();
    }
    cat
}

fn plan_sql(cat: &Arc<Catalog>, sql: &str) -> PhysicalPlan {
    let Statement::Select(sel) = parse_statement(sql).unwrap() else { panic!("not a select") };
    let bound = Binder::new(BindContext::new(cat)).bind_select(sel).unwrap();
    plan_select(&bound, cat, &PlannerConfig::default()).unwrap()
}

fn canonical(rows: Vec<Tuple>) -> Vec<String> {
    let mut s: Vec<String> = rows.iter().map(|t| format!("{t}")).collect();
    s.sort();
    s
}

/// Run `f` on a thread of its own and wait for it at most [`PATIENCE`].
fn bounded<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(PATIENCE).unwrap_or_else(|e| panic!("{what}: {e} (a lost wake-up?)"))
}

const SHAPES: [&str; 4] = [
    "SELECT t.a, u.w FROM t, u WHERE t.a = u.a",
    "SELECT a, g FROM t ORDER BY g, a",
    "SELECT DISTINCT g FROM t",
    "SELECT g, COUNT(*), SUM(k) FROM p GROUP BY g",
];

#[test]
fn sixteen_concurrent_queries_at_one_tuple_pages_lose_no_wake() {
    let cat = setup();
    let ctx = ExecContext::new(Arc::clone(&cat));
    let plans: Vec<_> = SHAPES.iter().map(|sql| plan_sql(&cat, sql)).collect();
    assert!(plans[3].to_string().contains("MergeAggregate"), "{}", plans[3]);
    let expect: Vec<_> = plans.iter().map(|p| canonical(volcano::run(p, &ctx).unwrap())).collect();
    let cfg = EngineConfig { batch_capacity: 1, workers_per_stage: 2 };
    let engine = StagedEngine::new(ctx, cfg);
    for round in 0..50 {
        let handles: Vec<_> = (0..16).map(|i| (i % 4, engine.execute(&plans[i % 4]))).collect();
        let results = bounded(&format!("round {round}"), move || {
            handles.into_iter().map(|(shape, h)| (shape, h.collect().unwrap())).collect::<Vec<_>>()
        });
        for (shape, rows) in results {
            assert_eq!(canonical(rows), expect[shape], "round {round}: {}", SHAPES[shape]);
        }
    }
    bounded("shutdown", move || engine.shutdown());
}

#[test]
fn a_query_in_flight_at_shutdown_returns_every_row() {
    let cat = setup();
    let ctx = ExecContext::new(Arc::clone(&cat));
    for sql in SHAPES {
        let plan = plan_sql(&cat, sql);
        let expect = canonical(volcano::run(&plan, &ctx).unwrap());
        let cfg = EngineConfig { batch_capacity: 1, ..Default::default() };
        let engine = StagedEngine::new(ctx.clone(), cfg);
        // Its producers park on full buffers while the stages drain.
        let result = engine.execute(&plan);
        let rows = bounded(sql, move || {
            engine.shutdown();
            result.collect()
        });
        assert_eq!(canonical(rows.unwrap()), expect, "{sql}");
    }
}

#[test]
fn a_merge_waiting_on_a_slow_partial_is_served_a_few_times() {
    // Two partitions, one 20x the other: the merge task gets the fast
    // partial's groups long before the slow one's. It waits parked, so it
    // is served once per wake — not once per lap of a polling loop.
    let cat = Arc::new(Catalog::new(BufferPool::new(Arc::new(MemDisk::new()), 256)));
    let schema =
        Schema::new(vec![Column::new("k", DataType::Int), Column::new("v", DataType::Int)]);
    let s = cat.create_table_partitioned("s", schema, 2, 0).unwrap();
    let mut rows = [0usize; 2];
    let quota = [40_000usize, 2_000];
    for k in 0i64.. {
        let part = partition_of_value(&Value::Int(k), 2);
        if rows[part] < quota[part] {
            s.heap.insert(&Tuple::new(vec![Value::Int(k), Value::Int(k % 100)])).unwrap();
            rows[part] += 1;
        }
        if rows == quota {
            break;
        }
    }
    cat.analyze_table("s").unwrap();
    let plan = plan_sql(&cat, "SELECT COUNT(*), SUM(v) FROM s");
    assert!(plan.to_string().contains("MergeAggregate"), "{plan}");
    let ctx = ExecContext::new(Arc::clone(&cat));
    let expect = canonical(volcano::run(&plan, &ctx).unwrap());
    let engine = StagedEngine::new(ctx, EngineConfig::default());
    let result = engine.execute(&plan);
    assert_eq!(canonical(bounded("scan aggregate", move || result.collect()).unwrap()), expect);
    engine.shutdown();
    let stats = engine.runtime().stats();
    for kind in [StageKind::Merge, StageKind::Send] {
        let served = stats[engine.stage_id(kind)].processed;
        assert!(served <= 4, "{} served {served} packets for one query", kind.name());
    }
}
