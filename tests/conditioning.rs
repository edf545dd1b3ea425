//! Overload conditioning and back-pressure (paper §4.1.1, §5.2).

use staged_db::core::prelude::*;
use staged_db::core::stage::StageResult;
use staged_db::server::{ServerConfig, ServerError, StagedServer};
use staged_db::storage::{BufferPool, Catalog, MemDisk};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn overloaded_server_rejects_rather_than_collapses() {
    let catalog = Arc::new(Catalog::new(BufferPool::new(Arc::new(MemDisk::new()), 256)));
    let server = StagedServer::new(
        catalog,
        ServerConfig {
            queue_capacity: 4,
            control_workers: 1,
            execute_workers: 1,
            ..Default::default()
        },
    );
    server.execute_sql("CREATE TABLE t (x INT)").unwrap();
    for i in 0..200 {
        server.execute_sql(&format!("INSERT INTO t VALUES ({i})")).unwrap();
    }
    // Flood with slow-ish queries without consuming replies.
    let mut accepted = 0u32;
    let mut rejected = 0u32;
    let mut pending = Vec::new();
    for _ in 0..300 {
        match server.try_submit("SELECT COUNT(*) FROM t, t AS t2 WHERE t.x < t2.x") {
            Ok(rx) => {
                pending.push(rx);
                accepted += 1;
            }
            Err(ServerError::Overloaded) => rejected += 1,
            Err(e) => panic!("unexpected {e}"),
        }
    }
    assert!(rejected > 0, "admission control must kick in");
    assert!(accepted > 0, "some work must be admitted");
    // Everything admitted eventually completes (back-pressure, no collapse).
    for rx in pending {
        assert!(rx.recv_timeout(Duration::from_secs(60)).unwrap().is_ok());
    }
    server.shutdown();
}

#[test]
fn backpressure_blocks_producer_stage_without_deadlock() {
    // A two-stage pipeline where the consumer is slow and its queue tiny:
    // the producer's sends block (paper's freeze-the-thread behaviour) but
    // the pipeline still drains completely.
    let delivered = Arc::new(AtomicU64::new(0));
    let d2 = Arc::clone(&delivered);
    let mut b = StagedRuntime::<u64>::builder();
    let first =
        b.add_stage(StageSpec::new("producer", |p: u64, ctx: &StageCtx<'_, u64>| -> StageResult {
            let sink = ctx.stage_id_of("slow-sink").expect("sink registered");
            ctx.send(sink, p).map_err(|_| StageError::new("closed"))?;
            Ok(())
        }));
    b.add_stage(
        StageSpec::new("slow-sink", move |_: u64, _: &StageCtx<'_, u64>| -> StageResult {
            std::thread::sleep(Duration::from_micros(300));
            d2.fetch_add(1, Ordering::Relaxed);
            Ok(())
        })
        .with_queue_capacity(2),
    );
    let rt = b.build();
    for i in 0..400 {
        rt.enqueue(first, i).unwrap();
    }
    rt.shutdown();
    assert_eq!(delivered.load(Ordering::Relaxed), 400);
    let stats = rt.stats();
    let sink = stats.iter().find(|s| s.name == "slow-sink").unwrap();
    assert!(sink.queue.blocked_enqueues > 0, "back-pressure must have engaged");
}
