//! The `fscan` stage's shape under the default configuration: one worker
//! per core (capped) and one packet per visit, so the partition packets of
//! a scan aggregate can be served at the same time, while the other stages
//! keep `workers_per_stage` and `COHORT`.

use staged_engine::context::ExecContext;
use staged_engine::staged::{EngineConfig, StageKind, StagedEngine, COHORT, SCAN_MAX_WORKERS};
use staged_engine::volcano;
use staged_planner::{plan_select, PlannerConfig};
use staged_sql::binder::{BindContext, Binder};
use staged_sql::parser::parse_statement;
use staged_sql::Statement;
use staged_storage::{BufferPool, Catalog, Column, DataType, MemDisk, Schema, Tuple, Value};
use std::sync::Arc;

const ROWS: i64 = 20_000;

fn table(parts: usize) -> Arc<Catalog> {
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
    cat
}

fn canonical(rows: Vec<Tuple>) -> Vec<String> {
    let mut s: Vec<String> = rows.iter().map(|t| format!("{t}")).collect();
    s.sort();
    s
}

#[test]
fn scan_aggregates_run_on_every_scan_worker_one_packet_per_visit() {
    let cfg = EngineConfig::default();
    let scan_workers = cfg.scan_workers();
    assert!((1..=SCAN_MAX_WORKERS).contains(&scan_workers));
    for parts in [1usize, 2, 4] {
        let cat = table(parts);
        let sql = "SELECT g, COUNT(*), SUM(v) FROM big WHERE k >= 0 GROUP BY g";
        let Statement::Select(sel) = parse_statement(sql).unwrap() else { unreachable!() };
        let bound = Binder::new(BindContext::new(&cat)).bind_select(sel).unwrap();
        let plan = plan_select(&bound, &cat, &PlannerConfig::default()).unwrap();
        let ctx = ExecContext::new(Arc::clone(&cat));
        let expect = canonical(volcano::run(&plan, &ctx).unwrap());
        assert_eq!(expect.len(), 10);

        let engine = StagedEngine::new(ctx, cfg.clone());
        for _ in 0..3 {
            assert_eq!(canonical(engine.execute(&plan).collect().unwrap()), expect, "{parts}");
        }
        engine.shutdown();
        for st in engine.runtime().stats() {
            if st.name == StageKind::FScan.name() {
                assert!(st.processed >= 3 * parts as u64, "{} fscan packets", st.processed);
                assert_eq!(
                    (st.workers, st.batch_limit, st.max_cohort),
                    (scan_workers, 1, 1),
                    "fscan at {parts} partitions"
                );
            } else {
                assert_eq!((st.workers, st.batch_limit), (cfg.workers_per_stage, COHORT));
            }
        }
    }
}
