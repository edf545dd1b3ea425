//! Criterion micro-benchmarks for the core components.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use staged_cachesim::{CacheConfig, CacheSim};
use staged_core::policy::Policy;
use staged_core::queue::StageQueue;
use staged_engine::context::ExecContext;
use staged_engine::volcano;
use staged_planner::{plan_select, PlannerConfig};
use staged_sim::prodline::{run_prodline, ProdlineConfig};
use staged_sql::binder::{BindContext, Binder};
use staged_sql::parser::parse_statement;
use staged_sql::Statement;
use staged_storage::btree::BTree;
use staged_storage::{BufferPool, Catalog, MemDisk, PageId, Rid};
use staged_workload::load_wisconsin_table;
use std::sync::Arc;

fn bench_parser(c: &mut Criterion) {
    let sql = "SELECT t.a, COUNT(*), SUM(t.v) FROM t, u WHERE t.a = u.a AND t.b \
               BETWEEN 10 AND 90 AND u.s LIKE 'abc%' GROUP BY t.a HAVING COUNT(*) > 2 \
               ORDER BY t.a DESC LIMIT 100";
    c.bench_function("sql_parse", |b| {
        b.iter(|| parse_statement(std::hint::black_box(sql)).unwrap())
    });
}

fn bench_btree(c: &mut Criterion) {
    c.bench_function("btree_insert_10k", |b| {
        b.iter_batched(
            || BTree::create(BufferPool::new(Arc::new(MemDisk::new()), 512)).unwrap(),
            |t| {
                for i in 0..10_000i64 {
                    t.insert((i * 2654435761) % 100_000, Rid::new(PageId(0), 0)).unwrap();
                }
            },
            BatchSize::SmallInput,
        )
    });
    let tree = BTree::create(BufferPool::new(Arc::new(MemDisk::new()), 512)).unwrap();
    for i in 0..50_000i64 {
        tree.insert(i, Rid::new(PageId((i / 100) as u64), (i % 100) as u16)).unwrap();
    }
    c.bench_function("btree_point_lookup", |b| {
        let mut k = 0i64;
        b.iter(|| {
            k = (k + 7919) % 50_000;
            tree.search(std::hint::black_box(k)).unwrap()
        })
    });
    c.bench_function("btree_range_100", |b| {
        let mut k = 0i64;
        b.iter(|| {
            k = (k + 7919) % 49_000;
            tree.range(Some(k), Some(k + 99)).unwrap()
        })
    });
}

fn bench_buffer_pool(c: &mut Criterion) {
    let pool = BufferPool::new(Arc::new(MemDisk::new()), 128);
    let pages: Vec<PageId> = (0..64).map(|_| pool.new_page(0).unwrap().page_id()).collect();
    c.bench_function("bufferpool_fetch_hit", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % pages.len();
            pool.fetch(std::hint::black_box(pages[i])).unwrap()
        })
    });
}

fn bench_queue(c: &mut Criterion) {
    c.bench_function("stage_queue_enqueue_dequeue", |b| {
        let q: StageQueue<u64> = StageQueue::new(1024);
        b.iter(|| {
            q.enqueue(1).unwrap();
            q.dequeue().unwrap()
        })
    });
}

fn bench_cachesim(c: &mut Criterion) {
    c.bench_function("cachesim_touch_16k", |b| {
        let mut sim = CacheSim::new(CacheConfig::l1_like());
        b.iter(|| sim.touch_range(0, 16 * 1024))
    });
}

fn bench_joins(c: &mut Criterion) {
    let catalog = Arc::new(Catalog::new(BufferPool::new(Arc::new(MemDisk::new()), 2048)));
    load_wisconsin_table(&catalog, "ja", 5_000, 1).unwrap();
    load_wisconsin_table(&catalog, "jb", 5_000, 2).unwrap();
    let ctx = ExecContext::new(Arc::clone(&catalog));
    let plan_for = |cfg: &PlannerConfig| {
        let sql = "SELECT COUNT(*) FROM ja, jb WHERE ja.unique1 = jb.unique1";
        let Statement::Select(sel) = parse_statement(sql).unwrap() else { panic!() };
        let bound = Binder::new(BindContext::new(&catalog)).bind_select(sel).unwrap();
        plan_select(&bound, &catalog, cfg).unwrap()
    };
    let hash_plan = plan_for(&PlannerConfig::default());
    let merge_plan = plan_for(&PlannerConfig { enable_hash_join: false, ..Default::default() });
    let mut g = c.benchmark_group("join_5k_x_5k");
    g.sample_size(10);
    g.bench_function("hash", |b| b.iter(|| volcano::run(&hash_plan, &ctx).unwrap()));
    g.bench_function("merge", |b| b.iter(|| volcano::run(&merge_plan, &ctx).unwrap()));
    g.finish();
}

fn bench_prodline(c: &mut Criterion) {
    let mut g = c.benchmark_group("prodline_sim_60s");
    g.sample_size(10);
    for policy in [Policy::Fcfs, Policy::DGated] {
        g.bench_function(policy.label(), |b| {
            b.iter(|| {
                let mut cfg = ProdlineConfig::figure5(policy, 0.3);
                cfg.horizon = 60.0;
                cfg.warmup = 6.0;
                run_prodline(&cfg)
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_parser,
    bench_btree,
    bench_buffer_pool,
    bench_queue,
    bench_cachesim,
    bench_joins,
    bench_prodline
);
criterion_main!(benches);
