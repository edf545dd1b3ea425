//! One WAL feed: the registry, cursors, bounded outboxes and eviction
//! policy behind both `REPLICATE` and `SUBSCRIBE`.
//!
//! A [`WalFeed`] is a registry of feeds over the primary's log. Each feed
//! has its own cursor into the WAL, a *bounded* outbox of framed protocol
//! lines that the network front end drains to the socket, and a [`Sink`]
//! that turns log records into those lines — raw `WALREC` frames for a
//! replica ([`crate::replication::ReplicaSink`]), per-transaction
//! `CHANGE` lines for a subscriber ([`crate::reactivity::ChangeSink`]).
//!
//! [`WalFeed::pump`] visits every feed: it walks the log from the feed's
//! cursor, hands each record to the sink, and moves the resulting lines
//! into the outbox. A full outbox is ordinary flow control — the lines the
//! sink already produced wait in a small overflow queue, the walk stops,
//! and the next visit resumes — but a feed that accepts *nothing* across
//! [`EVICTION_FULL_STRIKES`] consecutive full visits has stopped draining
//! and is **evicted**: its sender drops, the front end sees the hang-up and
//! closes the socket. A stalled peer can never hold memory, or commit
//! latency, hostage.
//!
//! The pump is driven by the `replication` stage both primaries register
//! (its idle hook; `crate::server_core`'s `FeedPump`), and by the network
//! loop whenever a feed connection is fully caught up.

use crossbeam::channel::{bounded, unbounded, Receiver, Sender, TrySendError};
use parking_lot::Mutex;
use staged_storage::wal::{LogRecord, Lsn, Wal};
use staged_storage::SegmentStore;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default per-feed outbox capacity, in framed lines. The pump never
/// buffers more than this per feed; a bigger backlog waits in the log and
/// ships over later visits as the peer drains.
pub const DEFAULT_OUTBOX_CAPACITY: usize = 1024;

/// Consecutive pump visits that find a feed's outbox full without the peer
/// having accepted a single line before it is evicted. One full visit is
/// flow control (the backlog may simply exceed the outbox); this many in a
/// row with zero drain is a peer that stopped reading.
pub const EVICTION_FULL_STRIKES: u32 = 4;

/// The address one past `lsn`: where a cursor stands after consuming it.
pub(crate) fn after(lsn: Lsn) -> Lsn {
    Lsn { segment: lsn.segment, offset: lsn.offset + 1 }
}

/// What one kind of feed makes of the log: per-feed state plus the
/// record → protocol-line translation.
pub trait Sink {
    /// What every feed of this kind shares through the hub (nothing for
    /// replicas; the catalog for change feeds).
    type Shared;

    /// Fold one log record into the feed's state, pushing the lines that
    /// are now due onto the back of `out`.
    fn record(&mut self, lsn: Lsn, rec: &LogRecord, out: &mut VecDeque<String>);

    /// The walk reached the log tail at `cursor` and every line produced
    /// so far is in the outbox: offer `tx` a closing line if the protocol
    /// has one. A `Full` refusal is retried at the next visit's tail.
    fn caught_up(
        &mut self,
        _cursor: Lsn,
        _tx: &Sender<String>,
    ) -> Result<(), TrySendError<String>> {
        Ok(())
    }

    /// The feed's backlog, given how many produced lines are still waiting
    /// in the overflow queue.
    fn lag(&self, queued: usize) -> u64 {
        queued as u64
    }
}

/// Point-in-time counters of one [`WalFeed`], for its `STATS` row and for
/// tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeedStats {
    /// Feeds currently registered.
    pub connected: u64,
    /// Lines produced from log records and moved into outboxes, total (a
    /// record delivered to two feeds counts twice).
    pub delivered: u64,
    /// Feeds evicted because they stopped draining their bounded outbox.
    pub evicted: u64,
    /// High-water cursor across feeds: one past the last record any feed
    /// has been handed.
    pub high_water: Lsn,
    /// The worst single feed's [`Sink::lag`].
    pub max_lag: u64,
    /// The sum of every feed's [`Sink::lag`].
    pub total_lag: u64,
    /// The bounded outbox capacity, in lines.
    pub outbox_capacity: u64,
}

struct Feed<S> {
    tx: Sender<String>,
    /// Next WAL record this feed's walk needs.
    cursor: Lsn,
    /// Lines the sink produced that did not fit in the outbox yet, in
    /// order. The walk does not resume while this is non-empty, so it never
    /// holds more than one visit's worth of lines.
    ready: VecDeque<String>,
    /// Consecutive visits that moved nothing into a full outbox.
    full_strikes: u32,
    sink: S,
}

/// How a pump visit left a feed.
enum Visit {
    Alive,
    /// The outbox receiver is gone (orderly disconnect seen late).
    HungUp,
    /// Stopped draining: [`EVICTION_FULL_STRIKES`] reached.
    Evict,
}

impl<S: Sink> Feed<S> {
    /// Move queued lines into the outbox, oldest first. `Ok(true)` when
    /// the queue emptied, `Ok(false)` when the outbox filled first, `Err`
    /// when the receiver is gone.
    fn flush(&mut self, sent: &mut u64) -> Result<bool, ()> {
        while let Some(line) = self.ready.pop_front() {
            match self.tx.try_send(line) {
                Ok(()) => *sent += 1,
                Err(TrySendError::Full(line)) => {
                    self.ready.push_front(line);
                    return Ok(false);
                }
                Err(TrySendError::Disconnected(_)) => return Err(()),
            }
        }
        Ok(true)
    }

    /// Deliver what earlier visits left over, then walk the log from the
    /// cursor until the tail or a full outbox. Same result as
    /// [`flush`](Self::flush).
    fn walk(&mut self, store: &dyn SegmentStore, sent: &mut u64) -> Result<bool, ()> {
        if !self.flush(sent)? {
            return Ok(false);
        }
        let (records, _damage) = Wal::read_store_from(store, self.cursor);
        for (lsn, rec) in &records {
            self.cursor = after(*lsn);
            self.sink.record(*lsn, rec, &mut self.ready);
            if !self.flush(sent)? {
                return Ok(false);
            }
        }
        match self.sink.caught_up(self.cursor, &self.tx) {
            Ok(()) => Ok(true),
            Err(TrySendError::Full(_)) => Ok(false),
            Err(TrySendError::Disconnected(_)) => Err(()),
        }
    }

    /// One pump visit, with the strike bookkeeping.
    fn visit(&mut self, store: &dyn SegmentStore, delivered: &AtomicU64) -> Visit {
        let mut sent = 0;
        let outcome = self.walk(store, &mut sent);
        delivered.fetch_add(sent, Ordering::Relaxed);
        match outcome {
            Err(()) => Visit::HungUp,
            Ok(false) if sent == 0 => {
                self.full_strikes += 1;
                if self.full_strikes >= EVICTION_FULL_STRIKES {
                    Visit::Evict
                } else {
                    Visit::Alive
                }
            }
            Ok(_) => {
                self.full_strikes = 0;
                Visit::Alive
            }
        }
    }
}

struct Registry<S> {
    next_id: u64,
    feeds: HashMap<u64, Feed<S>>,
    high_water: Lsn,
}

/// A primary's feed registry and pump over one WAL. One per feed kind per
/// server, shared by the network front end (which registers feeds and
/// drains outboxes to sockets) and the pump drivers.
pub struct WalFeed<S: Sink> {
    pub(crate) wal: Arc<Wal>,
    pub(crate) shared: S::Shared,
    outbox_capacity: usize,
    registry: Mutex<Registry<S>>,
    evicted: AtomicU64,
    delivered: AtomicU64,
}

impl<S: Sink> WalFeed<S> {
    /// A hub feeding from `wal`, with per-feed outboxes of
    /// `outbox_capacity` framed lines.
    pub fn new(wal: Arc<Wal>, outbox_capacity: usize, shared: S::Shared) -> Self {
        Self {
            wal,
            shared,
            outbox_capacity: outbox_capacity.max(2),
            registry: Mutex::new(Registry {
                next_id: 0,
                feeds: HashMap::new(),
                high_water: Lsn::ZERO,
            }),
            evicted: AtomicU64::new(0),
            delivered: AtomicU64::new(0),
        }
    }

    /// Register a feed whose walk starts at `cursor`. `greeting`, if any,
    /// is the first line in its outbox. Returns the feed id and the outbox
    /// receiver the caller must drain to the socket.
    pub(crate) fn register(
        &self,
        cursor: Lsn,
        sink: S,
        greeting: Option<String>,
    ) -> (u64, Receiver<String>) {
        let (tx, rx) = bounded(self.outbox_capacity);
        if let Some(line) = greeting {
            let _ = tx.try_send(line);
        }
        let mut reg = self.registry.lock();
        let id = reg.next_id;
        reg.next_id += 1;
        reg.feeds.insert(id, Feed { tx, cursor, ready: VecDeque::new(), full_strikes: 0, sink });
        (id, rx)
    }

    /// Drop a feed (orderly disconnect — not counted as an eviction).
    pub fn disconnect(&self, id: u64) {
        self.registry.lock().feeds.remove(&id);
    }

    /// Remove a feed and return every line it was still owed: the overflow
    /// queue, then a final walk of the WAL to the current tail (the same
    /// walk a pump visit does, into an unbounded outbox). Together with a
    /// drain of the outbox receiver this delivers everything the log held
    /// for the feed at the time of the call.
    pub fn drain(&self, id: u64) -> Vec<String> {
        let Some(mut feed) = self.registry.lock().feeds.remove(&id) else {
            return Vec::new();
        };
        let (tx, rx) = unbounded();
        feed.tx = tx;
        feed.visit(self.wal.store().as_ref(), &self.delivered);
        drop(feed);
        rx.iter().collect()
    }

    /// Visit every feed: walk the log from its cursor and move what the
    /// sink produces into its outbox, stopping at a full outbox; evict
    /// feeds that have stopped draining. Non-blocking; safe to call from
    /// any thread, any time, and free when no feed is registered.
    pub fn pump(&self) {
        let mut reg = self.registry.lock();
        if reg.feeds.is_empty() {
            return;
        }
        let store = self.wal.store();
        let mut high_water = reg.high_water;
        reg.feeds.retain(|_, feed| match feed.visit(store.as_ref(), &self.delivered) {
            Visit::Alive => {
                high_water = high_water.max(feed.cursor);
                true
            }
            Visit::HungUp => false,
            Visit::Evict => {
                self.evicted.fetch_add(1, Ordering::Relaxed);
                false
            }
        });
        reg.high_water = high_water;
    }

    /// Current counters.
    pub fn stats(&self) -> FeedStats {
        let reg = self.registry.lock();
        let lags = reg.feeds.values().map(|f| f.sink.lag(f.ready.len()));
        FeedStats {
            connected: reg.feeds.len() as u64,
            delivered: self.delivered.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
            high_water: reg.high_water,
            max_lag: lags.clone().max().unwrap_or(0),
            total_lag: lags.sum(),
            outbox_capacity: self.outbox_capacity as u64,
        }
    }

    /// Run `f` on one feed's sink, if the feed is still registered.
    pub(crate) fn with_sink<R>(&self, id: u64, f: impl FnOnce(&mut S) -> R) -> Option<R> {
        self.registry.lock().feeds.get_mut(&id).map(|feed| f(&mut feed.sink))
    }

    /// `f` of every registered feed's sink.
    pub(crate) fn map_sinks<R>(&self, f: impl FnMut(&S) -> R) -> Vec<R> {
        self.registry.lock().feeds.values().map(|feed| &feed.sink).map(f).collect()
    }
}

#[cfg(test)]
mod tests {
    //! The feed's own behaviour — flow control, eviction, resumption, the
    //! bounded overflow queue — checked once, over both sinks. What only
    //! one sink does (watermarks and acks; commit order, filters, `drain`)
    //! is tested beside that sink.

    use super::*;
    use crate::reactivity::ChangeSink;
    use crate::replication::ReplicaSink;
    use staged_storage::{
        BufferPool, Catalog, Column, DataType, MemDisk, MemSegmentStore, PageId, Rid, Schema,
        Tuple, Value,
    };

    /// A WAL, a hub under test with a small outbox, and a wide-outbox twin
    /// of the same kind whose feed is the reference for "every line, once,
    /// in order".
    struct Rig<S: Sink> {
        wal: Arc<Wal>,
        hub: WalFeed<S>,
        wide: WalFeed<S>,
        subscribe: fn(&WalFeed<S>) -> Receiver<String>,
        /// The most lines one log record can release (what bounds the
        /// overflow queue): 1 raw record, or a transaction's whole run.
        burst: fn(u64) -> usize,
        table: u32,
    }

    fn replica_rig(capacity: usize) -> Rig<ReplicaSink> {
        let wal = Arc::new(Wal::open(Arc::new(MemSegmentStore::new())).unwrap());
        Rig {
            hub: WalFeed::new(Arc::clone(&wal), capacity, ()),
            wide: WalFeed::new(Arc::clone(&wal), 1024, ()),
            wal,
            subscribe: |hub| hub.subscribe(Lsn::ZERO).unwrap().1,
            burst: |_rows| 1,
            table: 0,
        }
    }

    fn change_rig(capacity: usize) -> Rig<ChangeSink> {
        let wal = Arc::new(Wal::open(Arc::new(MemSegmentStore::new())).unwrap());
        let cat = Arc::new(Catalog::new(BufferPool::new(Arc::new(MemDisk::new()), 64)));
        let schema = Schema::new(vec![Column::new("id", DataType::Int)]);
        let table = cat.create_table("t", schema).unwrap().id.0;
        Rig {
            hub: WalFeed::new(Arc::clone(&wal), capacity, Arc::clone(&cat)),
            wide: WalFeed::new(Arc::clone(&wal), 1024, cat),
            wal,
            subscribe: |hub| hub.subscribe("t", None).unwrap().1,
            burst: |rows| rows as usize,
            table,
        }
    }

    impl<S: Sink> Rig<S> {
        /// Log one committed transaction inserting `rows` rows.
        fn commit(&self, xid: u64, rows: u64) {
            let rid = Rid { page: PageId(0), slot: 0 };
            self.wal.append(&LogRecord::Begin { xid }).unwrap();
            for i in 0..rows {
                let bytes = Tuple::new(vec![Value::Int((xid * 100 + i) as i64)]).encode();
                let rec = LogRecord::Insert { xid, table: self.table, rid, bytes };
                self.wal.append(&rec).unwrap();
            }
            self.wal.append(&LogRecord::Commit { xid }).unwrap();
        }

        /// Everything the reference feed was sent.
        fn reference(&self, rx: &Receiver<String>) -> Vec<String> {
            self.wide.pump();
            data(rx)
        }

        fn queued(&self) -> usize {
            self.hub.registry.lock().feeds.values().map(|f| f.ready.len()).sum()
        }
    }

    /// Drain an outbox, keeping the log-derived lines (watermarks are the
    /// replica sink's business).
    fn data(rx: &Receiver<String>) -> Vec<String> {
        std::iter::from_fn(|| rx.try_recv().ok()).filter(|l| !l.starts_with("WALEOF")).collect()
    }

    /// Pump and drain until `want` lines arrived; every visit must make
    /// progress.
    fn catch_up<S: Sink>(rig: &Rig<S>, rx: &Receiver<String>, want: usize) -> Vec<String> {
        let mut got = Vec::new();
        while got.len() < want {
            rig.hub.pump();
            let before = got.len();
            got.extend(data(rx));
            assert!(got.len() > before, "pump stopped making progress at {before}/{want} lines");
        }
        got
    }

    mod cases {
        use super::*;

        /// A backlog several times the outbox reaches a draining peer
        /// whole and in order over several visits; nobody is evicted.
        pub fn full_outbox_is_flow_control<S: Sink>(rig: fn(usize) -> Rig<S>) {
            let rig = rig(4);
            let (rx, wide_rx) = ((rig.subscribe)(&rig.hub), (rig.subscribe)(&rig.wide));
            rig.commit(1, 30);
            let want = rig.reference(&wide_rx);
            assert!(want.len() >= 30);
            rig.hub.pump();
            assert_eq!(rig.hub.stats().connected, 1, "one full visit is not an eviction");
            assert_eq!(catch_up(&rig, &rx, want.len()), want);
            let stats = rig.hub.stats();
            assert_eq!((stats.connected, stats.evicted), (1, 0));
            assert_eq!(stats.delivered, want.len() as u64);
        }

        /// A peer that accepts nothing across the strike window is cut,
        /// and the hang-up is visible on its outbox.
        pub fn zero_drain_visits_evict<S: Sink>(rig: fn(usize) -> Rig<S>) {
            let rig = rig(2);
            let rx = (rig.subscribe)(&rig.hub);
            rig.commit(1, 8);
            rig.hub.pump(); // fills the outbox: progress, so not a strike
            for _ in 0..EVICTION_FULL_STRIKES {
                assert_eq!(rig.hub.stats().connected, 1, "still connected while striking");
                rig.hub.pump();
            }
            let stats = rig.hub.stats();
            assert_eq!((stats.connected, stats.evicted), (0, 1), "evicted, not buffered");
            // What fit in the outbox is still readable; then the sender is gone.
            assert_eq!(std::iter::from_fn(|| rx.try_recv().ok()).count(), 2);
            assert!(rx.recv().is_err());
        }

        /// `disconnect`, and a receiver dropped by its owner, both remove
        /// the feed without counting an eviction.
        pub fn orderly_disconnect_is_not_an_eviction<S: Sink>(rig: fn(usize) -> Rig<S>) {
            let rig = rig(8);
            let (id, rx) = {
                let rx = (rig.subscribe)(&rig.hub);
                (*rig.hub.registry.lock().feeds.keys().next().unwrap(), rx)
            };
            assert_eq!(rig.hub.stats().connected, 1);
            rig.hub.disconnect(id);
            assert_eq!(rig.hub.stats().connected, 0);
            assert!(data(&rx).is_empty() && rx.recv().is_err(), "sender released");
            drop((rig.subscribe)(&rig.hub));
            rig.commit(1, 1);
            rig.hub.pump();
            let stats = rig.hub.stats();
            assert_eq!((stats.connected, stats.evicted), (0, 0));
        }

        /// A visit cut short by a full outbox resumes exactly where it
        /// stopped — nothing lost, nothing twice — including transactions
        /// logged while the feed was stuck.
        pub fn cursor_resumes_after_a_full_visit<S: Sink>(rig: fn(usize) -> Rig<S>) {
            let rig = rig(2);
            let (rx, wide_rx) = ((rig.subscribe)(&rig.hub), (rig.subscribe)(&rig.wide));
            rig.commit(1, 5);
            rig.hub.pump();
            rig.commit(2, 3);
            let want = rig.reference(&wide_rx);
            assert_eq!(catch_up(&rig, &rx, want.len()), want);
            rig.hub.pump();
            assert!(data(&rx).is_empty(), "caught up: nothing is sent twice");
        }

        /// However much log is waiting, a stuck feed holds at most the
        /// lines of the one record its walk stopped at.
        pub fn overflow_stays_bounded_by_one_visit<S: Sink>(rig: fn(usize) -> Rig<S>) {
            let rig = rig(2);
            let _rx = (rig.subscribe)(&rig.hub);
            for xid in 1..=6 {
                rig.commit(xid, 4);
            }
            for _ in 1..EVICTION_FULL_STRIKES {
                rig.hub.pump();
                assert!(rig.queued() <= (rig.burst)(4), "overflow grew to {}", rig.queued());
            }
            assert_eq!(rig.hub.stats().connected, 1);
        }
    }

    macro_rules! over_both_sinks {
        ($($case:ident),*) => {$(
            #[test]
            fn $case() {
                cases::$case(replica_rig);
                cases::$case(change_rig);
            }
        )*};
    }

    over_both_sinks!(
        full_outbox_is_flow_control,
        zero_drain_visits_evict,
        orderly_disconnect_is_not_an_eviction,
        cursor_resumes_after_a_full_visit,
        overflow_stays_bounded_by_one_visit
    );
}
