//! FluxDB-style reactivity: `SUBSCRIBE` change feeds sourced from the WAL.
//!
//! The [`ReactivityHub`] is the server core's [`WalFeed`] with a
//! [`ChangeSink`] per subscriber. The sink buffers a transaction's row
//! changes as encoded `CHANGE` lines and releases the run when that
//! transaction's `Commit` record goes by — whole transactions at a time,
//! in commit order, filtered down to the subscriber's table (and optional
//! `WHERE` predicate). Aborted transactions are discarded unseen, so a
//! feed can never show a change that did not commit, and because the
//! WAL's `Commit` records *are* the commit order, every feed replays the
//! database's history in the exact order it happened.
//!
//! Registry, cursors, bounded outboxes, flow control and the eviction of
//! subscribers that stop reading are the feed's (see [`crate::feed`]), and
//! are the same code that ships WAL to replicas: commits never wait on a
//! slow subscriber.
//!
//! Subscriptions start *now*: the cursor begins at the WAL's append
//! position at subscribe time, so a new feed sees only transactions that
//! commit after it. There is no historical replay — a client that wants
//! the current state runs a query first, then subscribes (the usual CDC
//! bootstrap; PROTOCOL.md §8 spells out the guarantee). An orderly
//! `UNSUBSCRIBE` ends with [`WalFeed::drain`], so every transaction
//! committed before it is delivered before the closing `OK`; transactions
//! still in flight (no `Commit` record yet) are not waited for.

use crate::feed::{Sink, WalFeed};
use crate::types::ServerError;
use crossbeam::channel::Receiver;
use staged_engine::expr::eval_predicate;
use staged_sql::ast::Expr;
use staged_sql::binder::{BindContext, Binder};
use staged_sql::parser::Parser;
use staged_sql::rewrite::fold;
use staged_storage::wal::{LogRecord, Lsn};
use staged_storage::{Catalog, Tuple, Value};
use staged_wire::ChangeOp;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// One subscriber's side of the [`ReactivityHub`]: the table and predicate
/// it filters by, and the changes of transactions still in flight.
pub struct ChangeSink {
    /// The subscribed table's id (changes to other tables never match) …
    table: u32,
    /// … and its name, as `CHANGE` lines spell it.
    name: String,
    /// Bound `WHERE` predicate; `None` matches every row.
    predicate: Option<Expr>,
    /// Per-xid runs of encoded `CHANGE` lines awaiting their `Commit`.
    pending: HashMap<u64, Vec<String>>,
}

impl ChangeSink {
    /// Buffer the `CHANGE` line for a logged row image under its
    /// transaction, when the record is for the subscriber's table and the
    /// row passes the predicate. Rows that fail to decode or evaluate are
    /// skipped — a feed filters, it never fails the pump.
    fn buffer(&mut self, xid: u64, table: u32, row_bytes: &[u8], op: ChangeOp) {
        if self.table != table {
            return;
        }
        let Ok(tuple) = Tuple::decode(row_bytes) else { return };
        if let Some(pred) = &self.predicate {
            if !eval_predicate(pred, &tuple).unwrap_or(false) {
                return;
            }
        }
        let fields: Vec<Option<String>> = tuple
            .values()
            .iter()
            .map(|v| match v {
                Value::Null => None,
                other => Some(other.to_string()),
            })
            .collect();
        let line = staged_wire::encode_change(&self.name, op, &fields);
        self.pending.entry(xid).or_default().push(line);
    }
}

impl Sink for ChangeSink {
    type Shared = Arc<Catalog>;

    fn record(&mut self, _lsn: Lsn, rec: &LogRecord, out: &mut VecDeque<String>) {
        match rec {
            LogRecord::Begin { .. } => {}
            LogRecord::Insert { xid, table, bytes, .. } => {
                self.buffer(*xid, *table, bytes, ChangeOp::Insert)
            }
            LogRecord::Delete { xid, table, before, .. } => {
                self.buffer(*xid, *table, before, ChangeOp::Delete)
            }
            LogRecord::Abort { xid } => {
                self.pending.remove(xid);
            }
            LogRecord::Commit { xid } => out.extend(self.pending.remove(xid).unwrap_or_default()),
        }
    }
}

/// The primary's subscriber registry and change pump. One per server,
/// shared by the network front end (which registers feeds and drains
/// outboxes to sockets) and the pump drivers.
pub type ReactivityHub = WalFeed<ChangeSink>;

impl WalFeed<ChangeSink> {
    /// Register a subscriber for committed changes to `table`, optionally
    /// filtered by a `WHERE` predicate (source text, without the
    /// keyword). Returns the feed id and the outbox receiver the caller
    /// must drain to the socket. The feed starts at the WAL's current
    /// append position: only transactions committing after this call are
    /// streamed.
    pub fn subscribe(
        &self,
        table: &str,
        predicate: Option<&str>,
    ) -> Result<(u64, Receiver<String>), ServerError> {
        let catalog = &self.shared;
        let info = catalog.table(table).map_err(|e| ServerError::Sql(format!("SUBSCRIBE: {e}")))?;
        let predicate = match predicate {
            None => None,
            Some(src) => {
                let mut expr = Parser::new(src, None)
                    .and_then(|mut p| p.parse_expr())
                    .map_err(|e| ServerError::Sql(format!("SUBSCRIBE WHERE: {e}")))?;
                Binder::new(BindContext::new(catalog))
                    .bind_table_predicate(&mut expr, &info)
                    .map_err(|e| ServerError::Sql(format!("SUBSCRIBE WHERE: {e}")))?;
                Some(fold(expr))
            }
        };
        let sink = ChangeSink {
            table: info.id.0,
            name: info.name.clone(),
            predicate,
            pending: HashMap::new(),
        };
        Ok(self.register(self.wal.next_lsn(), sink, None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use staged_storage::wal::Wal;
    use staged_storage::{
        BufferPool, Column, DataType, MemDisk, MemSegmentStore, Schema, SegmentStore,
    };

    fn catalog() -> Arc<Catalog> {
        let cat = Arc::new(Catalog::new(BufferPool::new(Arc::new(MemDisk::new()), 256)));
        cat.create_table(
            "t",
            Schema::new(vec![Column::new("id", DataType::Int), Column::new("v", DataType::Int)]),
        )
        .unwrap();
        cat
    }

    fn row(id: i64, v: i64) -> Vec<u8> {
        Tuple::new(vec![Value::Int(id), Value::Int(v)]).encode()
    }

    fn hub_with(catalog: Arc<Catalog>, capacity: usize) -> (ReactivityHub, Arc<Wal>) {
        let wal =
            Arc::new(Wal::open(Arc::new(MemSegmentStore::new()) as Arc<dyn SegmentStore>).unwrap());
        let hub = ReactivityHub::new(Arc::clone(&wal), capacity, catalog);
        (hub, wal)
    }

    fn table_id(cat: &Catalog) -> u32 {
        cat.table("t").unwrap().id.0
    }

    #[test]
    fn committed_changes_stream_in_commit_order_and_aborts_vanish() {
        let cat = catalog();
        let tid = table_id(&cat);
        let (hub, wal) = hub_with(Arc::clone(&cat), 64);
        let (_id, rx) = hub.subscribe("t", None).unwrap();

        // Interleaved xids: 1 commits, 2 aborts, 3 commits after 1.
        let rid = staged_storage::Rid { page: staged_storage::PageId(0), slot: 0 };
        wal.append(&LogRecord::Begin { xid: 1 }).unwrap();
        wal.append(&LogRecord::Begin { xid: 2 }).unwrap();
        wal.append(&LogRecord::Insert { xid: 2, table: tid, rid, bytes: row(99, 0) }).unwrap();
        wal.append(&LogRecord::Insert { xid: 1, table: tid, rid, bytes: row(1, 10) }).unwrap();
        wal.append(&LogRecord::Abort { xid: 2 }).unwrap();
        wal.append(&LogRecord::Insert { xid: 1, table: tid, rid, bytes: row(2, 20) }).unwrap();
        wal.append(&LogRecord::Commit { xid: 1 }).unwrap();
        wal.append(&LogRecord::Begin { xid: 3 }).unwrap();
        wal.append(&LogRecord::Delete { xid: 3, table: tid, rid, before: row(1, 10) }).unwrap();
        wal.append(&LogRecord::Commit { xid: 3 }).unwrap();

        hub.pump();
        let lines: Vec<String> = std::iter::from_fn(|| rx.try_recv().ok()).collect();
        assert_eq!(
            lines,
            vec![
                "CHANGE t INSERT\t1\t10".to_string(),
                "CHANGE t INSERT\t2\t20".to_string(),
                "CHANGE t DELETE\t1\t10".to_string(),
            ]
        );
        assert_eq!(hub.stats().delivered, 3);
    }

    #[test]
    fn subscriptions_start_at_the_current_wal_position() {
        let cat = catalog();
        let tid = table_id(&cat);
        let (hub, wal) = hub_with(Arc::clone(&cat), 64);
        let rid = staged_storage::Rid { page: staged_storage::PageId(0), slot: 0 };
        wal.append(&LogRecord::Begin { xid: 1 }).unwrap();
        wal.append(&LogRecord::Insert { xid: 1, table: tid, rid, bytes: row(1, 1) }).unwrap();
        wal.append(&LogRecord::Commit { xid: 1 }).unwrap();

        // History before the subscribe call never replays.
        let (_id, rx) = hub.subscribe("t", None).unwrap();
        hub.pump();
        assert!(rx.try_recv().is_err());

        wal.append(&LogRecord::Begin { xid: 2 }).unwrap();
        wal.append(&LogRecord::Insert { xid: 2, table: tid, rid, bytes: row(2, 2) }).unwrap();
        wal.append(&LogRecord::Commit { xid: 2 }).unwrap();
        hub.pump();
        assert_eq!(rx.try_recv().unwrap(), "CHANGE t INSERT\t2\t2");
    }

    #[test]
    fn where_predicates_filter_the_feed() {
        let cat = catalog();
        let tid = table_id(&cat);
        let (hub, wal) = hub_with(Arc::clone(&cat), 64);
        let (_id, rx) = hub.subscribe("t", Some("v > 15 AND id < 100")).unwrap();
        let rid = staged_storage::Rid { page: staged_storage::PageId(0), slot: 0 };
        wal.append(&LogRecord::Begin { xid: 1 }).unwrap();
        for (id, v) in [(1, 10), (2, 20), (3, 30), (200, 99)] {
            wal.append(&LogRecord::Insert { xid: 1, table: tid, rid, bytes: row(id, v) }).unwrap();
        }
        wal.append(&LogRecord::Commit { xid: 1 }).unwrap();
        hub.pump();
        let lines: Vec<String> = std::iter::from_fn(|| rx.try_recv().ok()).collect();
        assert_eq!(lines, vec!["CHANGE t INSERT\t2\t20", "CHANGE t INSERT\t3\t30"]);
    }

    #[test]
    fn bad_subscriptions_are_refused() {
        let cat = catalog();
        let (hub, _wal) = hub_with(cat, 64);
        assert!(matches!(hub.subscribe("nope", None), Err(ServerError::Sql(_))));
        assert!(matches!(hub.subscribe("t", Some("bogus !!")), Err(ServerError::Sql(_))));
        assert!(matches!(hub.subscribe("t", Some("missing > 1")), Err(ServerError::Sql(_))));
        // Aggregates can't stream row-at-a-time.
        assert!(matches!(hub.subscribe("t", Some("SUM(v) > 1")), Err(ServerError::Sql(_))));
    }

    #[test]
    fn drain_returns_the_owed_tail_in_order() {
        let cat = catalog();
        let tid = table_id(&cat);
        let (hub, wal) = hub_with(Arc::clone(&cat), 2);
        let (id, rx) = hub.subscribe("t", None).unwrap();
        let rid = staged_storage::Rid { page: staged_storage::PageId(0), slot: 0 };
        wal.append(&LogRecord::Begin { xid: 1 }).unwrap();
        for i in 0..4 {
            wal.append(&LogRecord::Insert { xid: 1, table: tid, rid, bytes: row(i, i) }).unwrap();
        }
        wal.append(&LogRecord::Commit { xid: 1 }).unwrap();
        hub.pump(); // outbox (cap 2) takes two lines, overflow queues two
                    // Commit a transaction the pump never visits, and leave one in
                    // flight: drain owes the overflow + the unseen commit, nothing
                    // from the open transaction.
        wal.append(&LogRecord::Begin { xid: 2 }).unwrap();
        wal.append(&LogRecord::Insert { xid: 2, table: tid, rid, bytes: row(9, 9) }).unwrap();
        wal.append(&LogRecord::Commit { xid: 2 }).unwrap();
        wal.append(&LogRecord::Begin { xid: 3 }).unwrap();
        wal.append(&LogRecord::Insert { xid: 3, table: tid, rid, bytes: row(8, 8) }).unwrap();

        let tail = hub.drain(id);
        let outbox: Vec<String> = std::iter::from_fn(|| rx.try_recv().ok()).collect();
        let mut all = outbox;
        all.extend(tail);
        assert_eq!(
            all,
            vec![
                "CHANGE t INSERT\t0\t0".to_string(),
                "CHANGE t INSERT\t1\t1".to_string(),
                "CHANGE t INSERT\t2\t2".to_string(),
                "CHANGE t INSERT\t3\t3".to_string(),
                "CHANGE t INSERT\t9\t9".to_string(),
            ]
        );
        assert_eq!(hub.stats().connected, 0);
        assert_eq!(hub.stats().delivered, 5);
    }
}
