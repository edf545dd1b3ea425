//! WAL-shipping replication: a STAR-style asymmetric pair of roles.
//!
//! The **primary** (either server) runs transactions exactly as before and
//! owns a [`ReplicationHub`]: the server core's [`WalFeed`] with a
//! [`ReplicaSink`] per connected replica. The sink frames every log record
//! verbatim as a `WALREC` line and closes each caught-up visit with a
//! `WALEOF` watermark; registry, cursors, bounded outboxes, flow control
//! and the eviction of replicas that stop draining are the feed's (see
//! [`crate::feed`]). What the sink adds is the **ack bookkeeping**: which
//! LSN each replica has confirmed durable, from which the checkpoint path
//! takes its truncation floor ([`min_acked`](WalFeed::min_acked)) and the
//! `replication` STATS row its lag.
//!
//! The **replica** ([`ReplicaServer`]) dials the primary, sends
//! `REPLICATE <from-lsn>`, and from then on the connection is a one-way
//! record feed (plus `ACK` lines flowing back). Every shipped record is
//! appended *verbatim* to the replica's own segmented WAL, configured with
//! the **same segment size** as the primary: the log format packs records
//! deterministically, so the replica's append LSNs reproduce the
//! primary's exactly (an explicit `rotate()` mirrors the primary's
//! checkpoint rotations whenever a shipped record jumps to a new segment).
//! The invariant is checked on every append — a mismatch aborts the
//! stream as a protocol error instead of silently diverging. Because the
//! logs are byte-addressed identically, **resume is trivial**: after a
//! crash or disconnect the replica re-subscribes from its own
//! `wal.next_lsn()`, which *is* the primary's address of the first record
//! it is missing. No record is lost, none applies twice, and a torn tail
//! repaired by [`Wal::open_with_segment_pages`] simply re-ships the
//! damaged suffix.
//!
//! Apply is transactional: records buffer per xid and land only when the
//! transaction's `Commit` arrives, through
//! [`staged_engine::dml::apply_versioned_txn`] — heap changes are stamped
//! pending and visibility flips atomically through the commit oracle, so
//! the replica's snapshot readers never observe a torn transaction. Each
//! row lands at the rid the primary logged (a rid names a block of one
//! partition's own page file), so the replica's heaps are rid-for-rid
//! copies of the primary's and nothing is translated.
//!
//! A replica serves reads only, through the same `Pipeline` steps the
//! primaries run, minus the ones that write. DML is refused with the
//! `READ_ONLY_REPLICA` wire code, and so is a plain `BEGIN`: a read-write
//! transaction would append its own `Begin` record to the replica's WAL
//! and break the mirror layout (nothing but shipped records may ever land
//! there). `BEGIN READ ONLY` / `COMMIT` / `ROLLBACK` work, and DDL is
//! allowed as the *schema bootstrap* path — DDL appends nothing to the
//! WAL, and the operator must run the same DDL in the same creation order
//! as the primary, with the same partition count, so table ids and
//! partition files line up (see PROTOCOL.md §7).

use crate::feed::{after, Sink, WalFeed};
use crate::pipeline::{Exec, Pipeline, PlannedAction};
use crate::types::{Response, ServerError};
use crossbeam::channel::{Receiver, Sender, TrySendError};
use parking_lot::Mutex;
use staged_engine::context::ExecContext;
use staged_engine::dml;
use staged_planner::PlannerConfig;
use staged_sql::ast::Statement;
use staged_storage::wal::{LogRecord, Lsn, Wal};
use staged_storage::{Catalog, SegmentStore};
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

// ---------------------------------------------------------------------------
// Primary side: the replica sink
// ---------------------------------------------------------------------------

/// One replica's side of the [`ReplicationHub`]: raw record framing plus
/// the acknowledgement bookkeeping.
pub struct ReplicaSink {
    /// Durability watermark the replica last acknowledged.
    acked: Lsn,
    /// Records framed so far.
    sent: u64,
    /// Records acknowledged so far.
    acked_records: u64,
    /// Outstanding `WALEOF` watermarks: `(watermark, sent-at-that-point)`,
    /// drained as `ACK`s arrive to keep `acked_records` honest.
    eofs: VecDeque<(Lsn, u64)>,
    /// Records framed since the last `WALEOF`; the next caught-up visit
    /// with outbox space sends one.
    eof_pending: bool,
}

impl Sink for ReplicaSink {
    type Shared = ();

    fn record(&mut self, lsn: Lsn, rec: &LogRecord, out: &mut VecDeque<String>) {
        out.push_back(staged_wire::encode_walrec(lsn.segment, lsn.offset, &rec.to_bytes()));
        self.sent += 1;
        self.eof_pending = true;
    }

    fn caught_up(&mut self, cursor: Lsn, tx: &Sender<String>) -> Result<(), TrySendError<String>> {
        if self.eof_pending {
            tx.try_send(staged_wire::encode_waleof(cursor.segment, cursor.offset))?;
            self.eofs.push_back((cursor, self.sent));
            self.eof_pending = false;
        }
        Ok(())
    }

    /// Shipped-but-unacknowledged records.
    fn lag(&self, queued: usize) -> u64 {
        (self.sent - queued as u64).saturating_sub(self.acked_records)
    }
}

/// The primary's replica registry and shipping pump. One per server,
/// shared by the network front end (which subscribes feeds and relays
/// `ACK`s), the pump drivers, and the checkpoint path (which clamps
/// truncation to [`min_acked`](WalFeed::min_acked)).
pub type ReplicationHub = WalFeed<ReplicaSink>;

impl WalFeed<ReplicaSink> {
    /// Register a replica that wants records from `from` on. Returns the
    /// feed id and the outbox receiver the caller must drain to the
    /// socket. Refused when the history below `from` — or the segment
    /// `from` addresses — has already been truncated by a checkpoint: a
    /// replica that far behind must re-seed, it cannot catch up.
    pub fn subscribe(&self, from: Lsn) -> Result<(u64, Receiver<String>), ServerError> {
        let segs = self
            .wal
            .segments()
            .map_err(|e| ServerError::Execution(format!("replication: segment list: {e}")))?;
        if let Some(oldest) = segs.first() {
            if from.segment < *oldest {
                return Err(ServerError::Execution(format!(
                    "replication history truncated: oldest live segment is {oldest}, \
                     cannot resume from {from}; re-seed the replica"
                )));
            }
        }
        let sink = ReplicaSink {
            acked: from,
            sent: 0,
            acked_records: 0,
            eofs: VecDeque::new(),
            eof_pending: false,
        };
        // An immediate watermark so a caught-up replica acks its position
        // right away and the checkpoint floor learns where it stands.
        let greeting = staged_wire::encode_waleof(from.segment, from.offset);
        Ok(self.register(from, sink, Some(greeting)))
    }

    /// Record a replica's `ACK <lsn>`: everything below `lsn` is durable
    /// on that replica and will never need re-shipping.
    pub fn ack(&self, id: u64, lsn: Lsn) {
        self.with_sink(id, |r| {
            r.acked = r.acked.max(lsn);
            while r.eofs.front().is_some_and(|(w, _)| *w <= lsn) {
                let (_, sent) = r.eofs.pop_front().expect("front checked");
                r.acked_records = sent;
            }
        });
    }

    /// The minimum acknowledged LSN over the connected replicas — the
    /// floor below which checkpoint truncation must not delete history
    /// (`None` when no replica is connected: nothing holds the log back;
    /// a disconnected or evicted replica does *not* pin the log, and may
    /// find its history gone when it returns).
    pub fn min_acked(&self) -> Option<Lsn> {
        self.map_sinks(|r| r.acked).into_iter().min()
    }
}

// ---------------------------------------------------------------------------
// Replica side
// ---------------------------------------------------------------------------

/// Replica construction parameters.
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// Pages per WAL segment. **Must equal the primary's** — the mirror
    /// layout (and with it exactly-once resume) depends on both logs
    /// packing records identically.
    pub wal_segment_pages: u64,
    /// Hash partitions for tables created through the replica's bootstrap
    /// DDL. Match the primary for an identical physical layout.
    pub partitions: usize,
    /// Planner switches for the replica's read sessions.
    pub planner: PlannerConfig,
    /// Pause between reconnect attempts after the feed drops.
    pub reconnect: Duration,
    /// How often the streaming thread re-checks the shutdown flag while
    /// the feed is quiet.
    pub poll_interval: Duration,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        Self {
            wal_segment_pages: staged_storage::DEFAULT_SEGMENT_PAGES,
            partitions: 1,
            planner: PlannerConfig::default(),
            reconnect: Duration::from_millis(100),
            poll_interval: Duration::from_millis(25),
        }
    }
}

/// A replica's position, as reported by the `replication` STATS row and
/// the `\replica` dbsh command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaStatus {
    /// One past the last record whose transaction outcome (commit or
    /// abort) has been applied to the replica's tables. Monotone across
    /// crashes and reconnects.
    pub applied_lsn: Lsn,
    /// Records received and persisted but not yet applied: buffered behind
    /// their transaction's commit, or deferred because their table's
    /// bootstrap DDL has not run here yet.
    pub lag_records: u64,
}

struct ApplyState {
    /// Per-xid record runs awaiting their `Commit`.
    pending: HashMap<u64, Vec<LogRecord>>,
    /// Committed transactions whose apply failed — typically because they
    /// shipped before the operator mirrored the table's `CREATE TABLE`
    /// here. They are durable in the replica WAL; the apply, which fails
    /// before changing anything, is retried in commit order at every later
    /// commit, watermark, and read.
    deferred: VecDeque<Vec<LogRecord>>,
    applied_lsn: Lsn,
}

/// The read-only replica: a catalog fed exclusively by shipped WAL
/// records, serving snapshot reads. Build with [`open`](Self::open)
/// (which replays any durable local log), then [`start`](Self::start)
/// the streaming thread; read sessions come from
/// [`session`](Self::session) or the network front end.
pub struct ReplicaServer {
    pipe: Pipeline,
    config: ReplicaConfig,
    apply: Mutex<ApplyState>,
    connected: AtomicBool,
    connects: AtomicU64,
    stream_errors: AtomicU64,
    applied_records: AtomicU64,
    stop: AtomicBool,
    thread: Mutex<Option<JoinHandle<()>>>,
}

/// Feed-side counters for the replica's `replication` STATS row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaFeedStats {
    /// Currently subscribed to a primary.
    pub connected: bool,
    /// Successful subscriptions so far (reconnects = `connects - 1`).
    pub connects: u64,
    /// Stream teardowns caused by errors (decode failures, layout
    /// divergence, refused subscriptions, I/O errors).
    pub stream_errors: u64,
    /// Records applied to tables (committed transactions only).
    pub applied_records: u64,
}

impl ReplicaServer {
    /// Open a replica over `segments` — its own WAL store, *not* the
    /// primary's. Any durable records found there are replayed first:
    /// committed transactions land in the tables, and the records of
    /// still-open transactions at the tail are re-buffered (their
    /// `Commit` may arrive on the resumed feed without the body being
    /// re-shipped). A torn tail is repaired; the damaged suffix will
    /// simply be shipped again.
    ///
    /// `catalog` must already hold the schema — created by the same DDL,
    /// in the same order and with the same partition count as on the
    /// primary (see the module docs).
    pub fn open(
        catalog: Arc<Catalog>,
        segments: Arc<dyn SegmentStore>,
        config: ReplicaConfig,
    ) -> Result<Arc<Self>, ServerError> {
        let ctx = ExecContext::new(Arc::clone(&catalog)).with_partitions(config.partitions);
        let exec_err = |e: &dyn std::fmt::Display| ServerError::Execution(format!("replica: {e}"));
        let (records, _damage) = Wal::read_store(segments.as_ref());
        let wal = Wal::open_with_segment_pages(segments, config.wal_segment_pages)
            .map_err(|e| exec_err(&e))?;
        dml::apply_records(&ctx, &records).map_err(|e| exec_err(&e))?;
        let resolved: HashSet<u64> = records
            .iter()
            .filter_map(|(_, r)| match r {
                LogRecord::Commit { xid } | LogRecord::Abort { xid } => Some(*xid),
                _ => None,
            })
            .collect();
        let mut pending: HashMap<u64, Vec<LogRecord>> = HashMap::new();
        for (_, rec) in &records {
            if matches!(rec, LogRecord::Insert { .. } | LogRecord::Delete { .. })
                && !resolved.contains(&rec.xid())
            {
                pending.entry(rec.xid()).or_default().push(rec.clone());
            }
        }
        let applied_lsn = records
            .iter()
            .filter(|(_, r)| matches!(r, LogRecord::Commit { .. } | LogRecord::Abort { .. }))
            .map(|(l, _)| after(*l))
            .max()
            .unwrap_or(Lsn::ZERO);
        Ok(Arc::new(Self {
            pipe: Pipeline::new(ctx, Arc::new(wal), config.planner.clone()),
            config,
            apply: Mutex::new(ApplyState { pending, deferred: VecDeque::new(), applied_lsn }),
            connected: AtomicBool::new(false),
            connects: AtomicU64::new(0),
            stream_errors: AtomicU64::new(0),
            applied_records: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            thread: Mutex::new(None),
        }))
    }

    /// Start (or restart) the streaming thread against `primary`
    /// (`host:port`). The thread subscribes from the replica's own
    /// durable position, applies the feed, and reconnects with backoff
    /// whenever the feed drops — including after an eviction — until
    /// [`shutdown`](Self::shutdown).
    pub fn start(self: &Arc<Self>, primary: impl Into<String>) {
        let primary = primary.into();
        // At most one feed thread: stop any previous one, then re-arm the
        // flag (after a shutdown the old value would kill the new thread
        // on arrival).
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.lock().take() {
            let _ = t.join();
        }
        self.stop.store(false, Ordering::SeqCst);
        let me = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name("replica-feed".into())
            .spawn(move || me.stream_loop(&primary))
            .expect("spawn replica feed thread");
        *self.thread.lock() = Some(handle);
    }

    /// Stop the streaming thread and wait for it. Idempotent; read
    /// sessions keep working on the last applied state.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.lock().take() {
            let _ = t.join();
        }
    }

    /// The replica's position.
    pub fn status(&self) -> ReplicaStatus {
        let st = self.apply.lock();
        ReplicaStatus {
            applied_lsn: st.applied_lsn,
            lag_records: st.pending.values().map(|v| v.len() as u64).sum::<u64>()
                + st.deferred.iter().map(|v| v.len() as u64).sum::<u64>(),
        }
    }

    /// Feed-side counters.
    pub fn feed_stats(&self) -> ReplicaFeedStats {
        ReplicaFeedStats {
            connected: self.connected.load(Ordering::Relaxed),
            connects: self.connects.load(Ordering::Relaxed),
            stream_errors: self.stream_errors.load(Ordering::Relaxed),
            applied_records: self.applied_records.load(Ordering::Relaxed),
        }
    }

    /// The replica's own WAL (tests probe `next_lsn` and the store).
    pub fn wal(&self) -> &Wal {
        &self.pipe.wal
    }

    pub(crate) fn pipeline(&self) -> &Pipeline {
        &self.pipe
    }

    /// Open a read session. `BEGIN READ ONLY` pins a snapshot exactly as
    /// on the primary; DML and plain `BEGIN` are refused with
    /// [`ServerError::ReadOnlyReplica`].
    pub fn session(self: &Arc<Self>) -> ReplicaSession {
        ReplicaSession { replica: Arc::clone(self), sid: self.pipe.txn.open_session() }
    }

    /// Run one statement outside any session (autocommit reads, bootstrap
    /// DDL).
    pub fn execute_sql(&self, sql: &str) -> Response {
        self.execute(sql, None)
    }

    fn execute(&self, sql: &str, session: Option<u64>) -> Response {
        // Transactions that shipped before their table's bootstrap DDL sit
        // in the deferred queue; give them a chance to land before this
        // statement runs (cheap no-op when the queue is empty).
        self.drain_deferred(&mut self.apply.lock());
        let action = self.pipe.plan(sql)?;
        // A read-write BEGIN would allocate an xid and append its own
        // Begin record to the replica's WAL — breaking the mirror layout.
        // Only the snapshot flavour may open a transaction. DML is refused
        // for the same reason.
        if matches!(&action, PlannedAction::TxnControl(Statement::Begin { read_only: false }))
            || action.is_dml()
        {
            return Err(ServerError::ReadOnlyReplica);
        }
        // Reads and bootstrap DDL. DDL touches only the catalog (it is
        // not WAL-logged), so the mirror layout is safe.
        self.pipe.run(action, session, 0, Exec::Volcano)
    }

    // -- the feed ----------------------------------------------------------

    fn stream_loop(self: Arc<Self>, primary: &str) {
        let mut first = true;
        while !self.stop.load(Ordering::SeqCst) {
            if !first {
                std::thread::sleep(self.config.reconnect);
                if self.stop.load(Ordering::SeqCst) {
                    break;
                }
            }
            first = false;
            if let Err(_e) = self.stream_once(primary) {
                self.stream_errors.fetch_add(1, Ordering::Relaxed);
            }
            self.connected.store(false, Ordering::Relaxed);
        }
    }

    /// One subscription: connect, handshake, apply until the feed drops.
    /// `Ok` is a clean teardown (remote closed, shutdown); `Err` is a
    /// protocol or I/O failure. Either way the caller reconnects.
    fn stream_once(&self, primary: &str) -> Result<(), String> {
        let io_err = |e: std::io::Error| format!("replica feed: {e}");
        let mut stream = TcpStream::connect(primary).map_err(io_err)?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(self.config.poll_interval)).map_err(io_err)?;
        let from = self.pipe.wal.next_lsn();
        stream
            .write_all(
                format!("REPLICATE {}\n", staged_wire::format_lsn(from.segment, from.offset))
                    .as_bytes(),
            )
            .map_err(io_err)?;
        let mut buf: Vec<u8> = Vec::new();
        let mut chunk = [0u8; 4096];
        let mut greeted = false;
        loop {
            while let Some(nl) = buf.iter().position(|b| *b == b'\n') {
                let line: Vec<u8> = buf.drain(..=nl).collect();
                let line = std::str::from_utf8(&line[..nl])
                    .map_err(|_| "feed line is not UTF-8".to_string())?
                    .trim_end_matches('\r');
                if !greeted {
                    // The server greets before reading our REPLICATE.
                    if !line.starts_with("HELLO ") {
                        return Err(format!("expected HELLO, got: {line}"));
                    }
                    greeted = true;
                    self.connected.store(true, Ordering::Relaxed);
                    self.connects.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                if let Some(err) = line.strip_prefix("ERR ") {
                    return Err(format!("subscription refused: {err}"));
                }
                match staged_wire::parse_repl_frame(line)? {
                    staged_wire::ReplFrame::Record { segment, offset, payload } => {
                        let rec = LogRecord::from_bytes(&payload)
                            .map_err(|e| format!("bad shipped record: {e}"))?;
                        self.ingest(Lsn { segment, offset }, rec)?;
                    }
                    staged_wire::ReplFrame::Eof { .. } => {
                        self.drain_deferred(&mut self.apply.lock());
                        self.pipe.wal.flush().map_err(|e| format!("replica WAL flush: {e}"))?;
                        let durable = self.pipe.wal.flushed_lsn();
                        stream
                            .write_all(
                                format!(
                                    "{}\n",
                                    staged_wire::encode_ack(durable.segment, durable.offset)
                                )
                                .as_bytes(),
                            )
                            .map_err(io_err)?;
                    }
                }
            }
            if self.stop.load(Ordering::SeqCst) {
                return Ok(());
            }
            match stream.read(&mut chunk) {
                Ok(0) => return Ok(()), // evicted or primary gone
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    continue;
                }
                Err(e) => return Err(io_err(e)),
            }
        }
    }

    /// Persist one shipped record at its primary address and apply its
    /// transaction if this record resolves it.
    fn ingest(&self, lsn: Lsn, rec: LogRecord) -> Result<(), String> {
        let mut st = self.apply.lock();
        if lsn < self.pipe.wal.next_lsn() {
            // Already durable here (the primary re-shipped past our ack).
            return Ok(());
        }
        // Mirror the primary's explicit (checkpoint) rotations; in-segment
        // growth rotates by itself because the segment sizes match.
        while self.pipe.wal.next_lsn().segment < lsn.segment {
            self.pipe.wal.rotate().map_err(|e| format!("replica WAL rotate: {e}"))?;
        }
        let got = self.pipe.wal.append(&rec).map_err(|e| format!("replica WAL append: {e}"))?;
        if got != lsn {
            return Err(format!(
                "replica WAL diverged from the shipped layout: record {lsn} landed at {got} \
                 (segment size mismatch?)"
            ));
        }
        match &rec {
            LogRecord::Commit { xid } => {
                let recs = st.pending.remove(xid).unwrap_or_default();
                st.deferred.push_back(recs);
                self.drain_deferred(&mut st);
                st.applied_lsn = after(lsn);
            }
            LogRecord::Abort { xid } => {
                st.pending.remove(xid);
                st.applied_lsn = after(lsn);
            }
            LogRecord::Begin { .. } => {}
            LogRecord::Insert { .. } | LogRecord::Delete { .. } => {
                st.pending.entry(rec.xid()).or_default().push(rec);
            }
        }
        Ok(())
    }

    /// Apply deferred committed transactions in commit order, stopping at
    /// the first that still fails (its bootstrap DDL has not run yet). A
    /// failure never drops the transaction: it is durable in the replica
    /// WAL and stays queued for the next retry.
    fn drain_deferred(&self, st: &mut ApplyState) {
        let mut applied = 0u64;
        while let Some(txn) = st.deferred.pop_front() {
            match dml::apply_versioned_txn(&self.pipe.ctx, &txn) {
                Ok(n) => applied += n,
                Err(_) => {
                    st.deferred.push_front(txn);
                    break;
                }
            }
        }
        if applied > 0 {
            self.applied_records.fetch_add(applied, Ordering::Relaxed);
        }
    }
}

/// A read session on a replica. Dropping it aborts (unpins) any open
/// `BEGIN READ ONLY` transaction, exactly like the primary's sessions.
pub struct ReplicaSession {
    replica: Arc<ReplicaServer>,
    sid: u64,
}

impl ReplicaSession {
    /// Session id.
    pub fn id(&self) -> u64 {
        self.sid
    }

    /// Run one statement under this session.
    pub fn execute_sql(&self, sql: &str) -> Response {
        self.replica.execute(sql, Some(self.sid))
    }
}

impl Drop for ReplicaSession {
    fn drop(&mut self) {
        self.replica.pipe.close_session(self.sid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use staged_storage::{BufferPool, MemDisk, MemSegmentStore};

    fn catalog() -> Arc<Catalog> {
        Arc::new(Catalog::new(BufferPool::new(Arc::new(MemDisk::new()), 512)))
    }

    fn hub_with_records(n: u64, capacity: usize) -> (Arc<Wal>, ReplicationHub) {
        let wal =
            Arc::new(Wal::open_with_segment_pages(Arc::new(MemSegmentStore::new()), 4).unwrap());
        for xid in 1..=n {
            wal.append(&LogRecord::Begin { xid }).unwrap();
            wal.append(&LogRecord::Commit { xid }).unwrap();
        }
        let hub = ReplicationHub::new(Arc::clone(&wal), capacity, ());
        (wal, hub)
    }

    /// Records ship verbatim and in log order, and the watermarks bracket
    /// them: one at the resume point on subscribe, one just past the last
    /// shipped record once the feed is caught up — in one visit when the
    /// outbox is roomy, over several (flow control, `crate::feed`) when
    /// the backlog is several times the outbox.
    #[test]
    fn pump_ships_in_order_and_watermarks() {
        for capacity in [64, 4] {
            let (wal, hub) = hub_with_records(16, capacity);
            let (_id, rx) = hub.subscribe(Lsn::ZERO).unwrap();
            let mut lsns = Vec::new();
            let mut eofs = Vec::new();
            while eofs.len() < 2 {
                hub.pump();
                while let Ok(line) = rx.try_recv() {
                    match staged_wire::parse_repl_frame(&line).unwrap() {
                        staged_wire::ReplFrame::Record { segment, offset, payload } => {
                            assert!(LogRecord::from_bytes(&payload).is_ok());
                            lsns.push(Lsn { segment, offset });
                        }
                        staged_wire::ReplFrame::Eof { segment, offset } => {
                            eofs.push(Lsn { segment, offset });
                        }
                    }
                }
            }
            assert_eq!(lsns.len(), 32, "sixteen Begin/Commit pairs");
            assert!(lsns.windows(2).all(|w| w[0] < w[1]), "shipped in log order");
            assert_eq!(eofs, [Lsn::ZERO, after(*lsns.last().unwrap())]);
            assert!(*lsns.last().unwrap() < wal.next_lsn());
            // Watermarks are not records: they do not count as shipped.
            assert_eq!(hub.stats().delivered, 32);
            assert_eq!(hub.stats().high_water, after(*lsns.last().unwrap()));
        }
    }

    #[test]
    fn acks_move_the_truncation_floor() {
        let (wal, hub) = hub_with_records(4, 64);
        let (id, rx) = hub.subscribe(Lsn::ZERO).unwrap();
        hub.pump();
        drop(rx);
        assert_eq!(hub.min_acked(), Some(Lsn::ZERO));
        assert_eq!(hub.stats().max_lag, 8, "shipped, not yet acked");
        hub.ack(id, wal.next_lsn());
        assert_eq!(hub.min_acked(), Some(wal.next_lsn()));
        assert_eq!(hub.stats().max_lag, 0, "everything acked");
        hub.disconnect(id);
        assert_eq!(hub.min_acked(), None, "a departed replica pins nothing");
    }

    #[test]
    fn subscribe_below_truncated_history_is_refused() {
        let (wal, hub) = hub_with_records(2, 64);
        wal.rotate().unwrap();
        wal.truncate_below(wal.next_lsn()).unwrap();
        assert!(hub.subscribe(Lsn::ZERO).is_err());
        assert!(hub.subscribe(wal.next_lsn()).is_ok());
    }

    #[test]
    fn replica_refuses_writes_and_plain_begin_but_serves_reads() {
        let replica = ReplicaServer::open(
            catalog(),
            Arc::new(MemSegmentStore::new()),
            ReplicaConfig::default(),
        )
        .unwrap();
        replica.execute_sql("CREATE TABLE t (k INT, v INT)").unwrap();
        assert!(matches!(
            replica.execute_sql("INSERT INTO t VALUES (1, 2)"),
            Err(ServerError::ReadOnlyReplica)
        ));
        let sess = replica.session();
        assert!(matches!(sess.execute_sql("BEGIN"), Err(ServerError::ReadOnlyReplica)));
        sess.execute_sql("BEGIN READ ONLY").unwrap();
        let out = sess.execute_sql("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(out.rows[0].to_string(), "[0]");
        sess.execute_sql("COMMIT").unwrap();
        assert_eq!(replica.status().applied_lsn, Lsn::ZERO);
    }

    #[test]
    fn boot_replay_applies_committed_and_rebuffers_open_transactions() {
        // Build a "shipped" log by hand: one committed insert, one insert
        // whose commit has not arrived yet.
        let store = Arc::new(MemSegmentStore::new());
        {
            let wal = Wal::open_with_segment_pages(Arc::clone(&store) as Arc<dyn SegmentStore>, 4)
                .unwrap();
            let cat = catalog();
            let ctx = ExecContext::new(Arc::clone(&cat));
            let t = {
                cat.create_table_partitioned(
                    "t",
                    staged_storage::Schema::new(vec![staged_storage::Column::new(
                        "k",
                        staged_storage::DataType::Int,
                    )]),
                    1,
                    0,
                )
                .unwrap()
            };
            let row = staged_storage::Tuple::new(vec![staged_storage::Value::Int(7)]);
            let (_, rid) = t.heap.insert_routed(&row).unwrap();
            wal.append(&LogRecord::Begin { xid: 1 }).unwrap();
            wal.append(&LogRecord::Insert { xid: 1, table: t.id.0, rid, bytes: row.encode() })
                .unwrap();
            wal.append(&LogRecord::Commit { xid: 1 }).unwrap();
            wal.append(&LogRecord::Begin { xid: 2 }).unwrap();
            wal.append(&LogRecord::Insert { xid: 2, table: t.id.0, rid, bytes: row.encode() })
                .unwrap();
            wal.flush().unwrap();
            let _ = ctx;
        }
        // The schema must exist (same DDL, same order) before boot replay.
        let cat = catalog();
        cat.create_table_partitioned(
            "t",
            staged_storage::Schema::new(vec![staged_storage::Column::new(
                "k",
                staged_storage::DataType::Int,
            )]),
            1,
            0,
        )
        .unwrap();
        let replica = ReplicaServer::open(
            cat,
            store as Arc<dyn SegmentStore>,
            ReplicaConfig { wal_segment_pages: 4, ..ReplicaConfig::default() },
        )
        .unwrap();
        let status = replica.status();
        assert_eq!(status.lag_records, 1, "open transaction re-buffered");
        assert!(status.applied_lsn > Lsn::ZERO, "committed prefix applied");
    }
}
