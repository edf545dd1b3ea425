//! Shared (cooperative) table scans — run-time multi-query optimization.
//!
//! Paper §5.4: "A query that arrives at a stage and finds an ongoing
//! computation of a common subexpression, can reuse those results." The
//! fscan stage keeps a registry of in-progress table scans; a newly
//! arriving scan *attaches* to the ongoing one instead of starting its own.
//! The driver reads pages **circularly**: a subscriber that attaches
//! mid-scan receives pages from the current position to the end and then
//! wraps around, so every subscriber sees every page exactly once while the
//! table is read from disk once per convoy.

use super::tasks::Emitter;
use super::{OperatorTask, QueryCtl, StageKind, StagedEngine, StepResult, TaskPacket, Transform};
use crate::context::ExecContext;
use crate::error::EngineResult;
use parking_lot::Mutex;
use staged_storage::catalog::TableInfo;
use staged_storage::page::SlottedPage;
use staged_storage::{PageId, Tuple};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counters for the shared-scan ablation (A4).
#[derive(Debug, Default)]
pub struct SharingStats {
    /// Scan convoys started (each reads the table once per lap).
    pub groups_started: AtomicU64,
    /// Scans that attached to an in-progress convoy.
    pub attaches: AtomicU64,
    /// Pages physically read by drivers.
    pub pages_read: AtomicU64,
}

/// One query's membership in a scan convoy.
pub struct Subscriber {
    emitter: Emitter,
    transforms: Vec<Transform>,
    ctl: Arc<QueryCtl>,
    /// Pages accepted so far.
    accepted: usize,
    /// Delivery sequence at which this subscriber joined.
    joined_seq: u64,
    /// All pages delivered; flushing the tail of the emitter remains.
    completing: bool,
}

impl Subscriber {
    /// Package a query's scan into a convoy subscription.
    pub fn new(emitter: Emitter, transforms: Vec<Transform>, ctl: Arc<QueryCtl>) -> Self {
        Self { emitter, transforms, ctl, accepted: 0, joined_seq: 0, completing: false }
    }
}

struct GroupInner {
    pages: Vec<PageId>,
    /// Monotonic delivery counter; page index = seq % pages.len().
    seq: u64,
    subs: Vec<Subscriber>,
}

/// An in-progress shared scan of one table.
pub struct ScanGroup {
    table: Arc<TableInfo>,
    inner: Mutex<GroupInner>,
}

/// Registry of active scan convoys, owned by the engine.
pub struct SharedScanRegistry {
    groups: Mutex<HashMap<u32, Arc<ScanGroup>>>,
    /// Counters.
    pub stats: SharingStats,
}

impl SharedScanRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self { groups: Mutex::new(HashMap::new()), stats: SharingStats::default() }
    }
}

impl Default for SharedScanRegistry {
    fn default() -> Self {
        Self::new()
    }
}

/// Attach `sub` to the table's convoy, starting a driver task if none runs.
pub fn subscribe(engine: &Arc<StagedEngine>, table: &Arc<TableInfo>, mut sub: Subscriber) {
    let registry = Arc::clone(&engine.registry);
    let mut groups = registry.groups.lock();
    if let Some(group) = groups.get(&table.id.0) {
        let mut inner = group.inner.lock();
        sub.joined_seq = inner.seq;
        if inner.pages.is_empty() {
            sub.completing = true;
        }
        inner.subs.push(sub);
        registry.stats.attaches.fetch_add(1, Ordering::Relaxed);
        return;
    }
    // New convoy: this query's scan drives it.
    let pages = table.heap.page_ids();
    if pages.is_empty() {
        sub.completing = true;
    }
    let group = Arc::new(ScanGroup {
        table: Arc::clone(table),
        inner: Mutex::new(GroupInner { pages, seq: 0, subs: vec![sub] }),
    });
    groups.insert(table.id.0, Arc::clone(&group));
    registry.stats.groups_started.fetch_add(1, Ordering::Relaxed);
    drop(groups);
    let driver = DriverTask {
        group: Arc::clone(&group),
        registry: Arc::clone(&registry),
        ctx: engine.ctx().clone(),
    };
    let packet = TaskPacket { ctl: detached_ctl(), task: Box::new(driver) };
    if !engine.enqueue(StageKind::FScan, packet) {
        // Shut down: no driver will ever serve this convoy, so fail its
        // subscribers rather than leave them waiting in the registry.
        registry.groups.lock().remove(&table.id.0);
        for sub in group.inner.lock().subs.drain(..) {
            sub.ctl.fail(super::shut_down());
        }
    }
}

/// A control block that never cancels: the driver outlives any single
/// query (it serves whoever is subscribed).
fn detached_ctl() -> Arc<QueryCtl> {
    QueryCtl::detached()
}

struct DriverTask {
    group: Arc<ScanGroup>,
    registry: Arc<SharedScanRegistry>,
    ctx: ExecContext,
}

impl DriverTask {
    /// Deliver one page to all eligible subscribers; returns false if any
    /// subscriber is congested (caller should yield).
    fn deliver_one_page(&self) -> EngineResult<DriverProgress> {
        let mut inner = self.group.inner.lock();
        // Drop cancelled queries and finished subscribers.
        inner.subs.retain_mut(|s| {
            if s.ctl.is_cancelled() {
                return false;
            }
            if s.completing {
                // Keep pumping the tail out; drop once fully flushed.
                return !s.emitter.finish();
            }
            true
        });
        if inner.subs.is_empty() {
            // Tear-down must take the locks in the same order as
            // `subscribe` (registry → group) or the two deadlock; release
            // the group lock, reacquire in order, and re-check for a racing
            // late subscriber.
            drop(inner);
            let mut groups = self.registry.groups.lock();
            let inner = self.group.inner.lock();
            return if inner.subs.is_empty() {
                groups.remove(&self.group.table.id.0);
                Ok(DriverProgress::Finished)
            } else {
                Ok(DriverProgress::Delivered) // a subscriber just attached
            };
        }
        let npages = inner.pages.len();
        if npages == 0 {
            // Empty table: all subscribers complete immediately (handled by
            // the retain above on the next call).
            for s in inner.subs.iter_mut() {
                s.completing = true;
            }
            return Ok(DriverProgress::Delivered);
        }
        // All active subscribers must have room for another page of tuples.
        if inner.subs.iter().any(|s| !s.completing && !s.emitter.ready()) {
            return Ok(DriverProgress::Congested);
        }
        let seq = inner.seq;
        let page_id = inner.pages[(seq % npages as u64) as usize];
        inner.seq += 1;
        // Fetch and decode outside the subscriber loop (one physical read).
        let pool = self.ctx.catalog.pool();
        let guard = pool.fetch(page_id)?;
        self.ctx.note_page_ref();
        self.registry.stats.pages_read.fetch_add(1, Ordering::Relaxed);
        let mut tuples: Vec<Tuple> = Vec::new();
        guard.read(|d| -> EngineResult<()> {
            for (_, bytes) in SlottedPage::iter(d) {
                tuples.push(Tuple::decode(bytes)?);
            }
            Ok(())
        })?;
        drop(guard);
        for s in inner.subs.iter_mut() {
            if s.completing || seq < s.joined_seq {
                continue;
            }
            // Batch delivery: an unfiltered subscriber takes the whole
            // page in one extend; a filtering one still seals its staging
            // page once per delivered heap page, not per tuple.
            if s.transforms.is_empty() {
                s.emitter.emit_all(tuples.iter().cloned());
            } else {
                for t in &tuples {
                    match super::apply_transforms(&s.transforms, t.clone()) {
                        Ok(Some(out)) => s.emitter.emit(out),
                        Ok(None) => {}
                        Err(e) => {
                            s.ctl.fail(e);
                            s.completing = true;
                            break;
                        }
                    }
                }
                if !s.completing {
                    s.emitter.pump();
                }
            }
            s.accepted += 1;
            if s.accepted >= npages {
                s.completing = true;
                let _ = s.emitter.finish();
            }
        }
        Ok(DriverProgress::Delivered)
    }
}

enum DriverProgress {
    Delivered,
    Congested,
    Finished,
}

impl OperatorTask for DriverTask {
    fn step(&mut self, quota: usize) -> EngineResult<StepResult> {
        let pages_per_step = (quota / 256).max(1);
        let mut delivered = 0usize;
        for _ in 0..pages_per_step {
            match self.deliver_one_page()? {
                DriverProgress::Finished => return Ok(StepResult::Done),
                DriverProgress::Congested => {
                    return Ok(if delivered > 0 {
                        StepResult::Working
                    } else {
                        StepResult::Blocked
                    })
                }
                DriverProgress::Delivered => delivered += 1,
            }
        }
        Ok(StepResult::Working)
    }
}
