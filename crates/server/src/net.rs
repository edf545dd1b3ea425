//! The network front end: one event-driven reader multiplexing every
//! connection, feeding the staged pipeline.
//!
//! This module opens both servers to real client traffic over
//! [`std::net::TcpListener`], speaking the newline-delimited text protocol
//! of `PROTOCOL.md` (executable vocabulary in the `staged-wire` crate).
//! Since PR 10 the front end is a **single-threaded event loop** (the
//! `net-loop` thread): every socket is nonblocking and registered with a
//! `poll(2)` readiness set (the std-only `polling` shim), so one thread
//! multiplexes thousands of connections — accepting, framing lines
//! incrementally from per-connection read buffers, and flushing
//! per-connection write buffers under write-side readiness. The
//! thread-per-connection reader is gone for both servers; what remains
//! per-connection is a few KB of buffer state, not a stack.
//!
//! Every connection holds one [`Session`], whatever the server behind it,
//! and submits each decoded statement with [`Session::try_submit`] — never
//! blocking. The servers keep their architectural identities behind it:
//!
//! * **Staged** — the statement enters the staged server's dedicated `net`
//!   **admission stage**; from there the packet flows `net → connect →
//!   parse → (optimize | lock) → execute → disconnect` exactly as an
//!   in-process submission would.
//! * **Threaded** — the statement enters the baseline's `pool` stage, and
//!   a pool worker runs the whole pipeline as direct procedure calls
//!   (§3.1.1). The front end is pure I/O for both; the two answer
//!   byte-identical responses for the same script (`tests/net.rs` diffs
//!   them over real sockets).
//! * **Replica** — the statement is answered inline, on an
//!   already-answered channel the loop writes out on its next pass.
//!
//! **Back-pressure.** When a server's admission queue is full the submit
//! returns `Err(Overloaded)`; the loop parks the decoded line and —
//! crucially — stops registering read interest for that socket. The
//! client's sends
//! accumulate in kernel buffers until TCP's own flow control pushes back:
//! overload propagates to the wire with zero protocol machinery and zero
//! parked threads (DESIGN.md §16). The same rule bounds the write side: a
//! connection whose responses aren't draining stops being read. The
//! loop-wide [`NetConfig::max_inflight`] budget counts a connection while
//! a statement is in flight or its session has a transaction open. That
//! state is the server's, not the front end's: the loop asks the session
//! when a statement is done with, and never reads the statement's text.
//!
//! **Connection lifecycle.** Every connection owns one session, so `BEGIN`
//! binds transactions to the connection and a disconnect —
//! orderly `QUIT`, client crash, or read error — drops the session handle
//! and aborts any open transaction (PR 3's abort-on-drop), releasing its
//! locks. A connection beyond [`NetConfig::max_connections`] is greeted
//! with `ERR OVERLOADED` and closed — handled by the same loop as a
//! write-then-drain connection, so an overload storm costs buffers, not
//! threads.
//!
//! **Feeds.** A `REPLICATE` connection becomes a WAL relay (outbox →
//! socket, `ACK` lines → hub) and a `SUBSCRIBE` connection a change-feed
//! relay (`CHANGE` lines from the [`crate::ReactivityHub`]); both are
//! served in-loop, draining their bounded outboxes into the connection's
//! write buffer only while it is small — a stalled socket fills the
//! bounded outbox and gets the subscriber evicted by the pump, never an
//! unbounded local buffer (PROTOCOL.md §7–8).

use crate::reactivity::ReactivityHub;
use crate::replication::{ReplicaServer, ReplicationHub};
use crate::server_core::{mvcc_row, stats_output, stats_row};
use crate::session::{Host, Session};
use crate::types::{QueryOutput, Response, ServerError};
use crate::{StagedServer, ThreadedServer};
use crossbeam::channel::{Receiver, TryRecvError, WakeHook};
use parking_lot::Mutex;
use polling::{Interest, PollFd};
use staged_storage::wal::Lsn;
use staged_storage::Value;
use staged_wire as wire;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Network front-end tuning.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Connections served concurrently; further clients are refused with
    /// `ERR OVERLOADED` at accept time.
    pub max_connections: usize,
    /// The loop-wide multiprogramming level: connections *doing work* —
    /// a statement in flight, or a transaction open — concurrently,
    /// across the whole fleet. The event loop parks any statement that
    /// would acquire a new slot beyond this (it waits decoded in its
    /// connection, whose read interest drops — back-pressure reaches
    /// TCP), so a four-digit connection fleet cannot flood the
    /// pipeline's bounded stage queues: concurrent transactions stay
    /// below `ServerConfig::queue_capacity` no matter how many sockets
    /// are connected. Statements that *continue* an open transaction
    /// (its DML, its COMMIT/ROLLBACK) are always admitted — the slot is
    /// already held, and throttling them is a priority inversion:
    /// without the exemption, admitted lock waiters occupy every slot
    /// while the statements that would release those locks sit parked,
    /// and nothing moves until lock timeouts fire. The same convoy is
    /// why the cap exists at all: >queue_capacity concurrent writers
    /// fill the lock stage's queue with parked waiters, upstream stages
    /// block, and COMMIT packets can't get in.
    pub max_inflight: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self { max_connections: 64, max_inflight: 64 }
    }
}

/// The event loop's idle tick: the longest `poll(2)` sleep when no
/// statement is in flight. Bounds shutdown latency and feed-pump latency.
/// Purely an internal latency/CPU trade-off.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Front-end counters (monotonic except `active`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetStats {
    /// Connections accepted (including later-refused ones).
    pub accepted: u64,
    /// Connections refused by the `max_connections` admission limit.
    pub rejected: u64,
    /// Connections currently being served.
    pub active: usize,
}

/// A server that can sit behind [`serve`]: it opens per-connection
/// sessions and answers the `STATS` monitor command.
pub trait WireBackend: Send + Sync + Clone + 'static {
    /// Open a session for a newly accepted connection.
    fn open_session(&self) -> Session;
    /// One row per stage (or pool) for the `STATS` command; schema
    /// documented in `PROTOCOL.md` §6.
    fn stats_output(&self) -> QueryOutput;
    /// The WAL-shipping hub, when this backend can act as a replication
    /// primary. `None` (the default) refuses `REPLICATE` — a replica, for
    /// instance, does not re-ship its feed.
    fn replication(&self) -> Option<Arc<ReplicationHub>> {
        None
    }
    /// The `SUBSCRIBE` change-feed hub. `None` (the default) refuses
    /// `SUBSCRIBE` — a replica serves snapshot reads, not feeds.
    fn reactivity(&self) -> Option<Arc<ReactivityHub>> {
        None
    }
}

// ---------------------------------------------------------------------------
// Backend impls for the two servers
// ---------------------------------------------------------------------------

impl WireBackend for Arc<StagedServer> {
    fn open_session(&self) -> Session {
        self.session()
    }

    fn stats_output(&self) -> QueryOutput {
        StagedServer::stats_output(self)
    }

    fn replication(&self) -> Option<Arc<ReplicationHub>> {
        Some(Arc::clone(self.replication_hub()))
    }

    fn reactivity(&self) -> Option<Arc<ReactivityHub>> {
        Some(Arc::clone(self.reactivity_hub()))
    }
}

impl WireBackend for Arc<ThreadedServer> {
    fn open_session(&self) -> Session {
        self.session()
    }

    fn stats_output(&self) -> QueryOutput {
        ThreadedServer::stats_output(self)
    }

    fn replication(&self) -> Option<Arc<ReplicationHub>> {
        Some(Arc::clone(self.replication_hub()))
    }

    fn reactivity(&self) -> Option<Arc<ReactivityHub>> {
        Some(Arc::clone(self.reactivity_hub()))
    }
}

impl WireBackend for Arc<ReplicaServer> {
    fn open_session(&self) -> Session {
        self.session()
    }

    fn stats_output(&self) -> QueryOutput {
        // The replica's `replication` row is the *apply* side of the
        // shipping columns: `processed` = records applied, `errors` =
        // stream errors, `retries` = subscriptions (reconnect count + 1),
        // `idle_polls`/`preempts` = applied LSN (segment/offset),
        // `cohorts` = 1 when the feed is connected, `queued` =
        // records buffered behind their commit. See PROTOCOL.md §6.
        let feed = self.feed_stats();
        let status = self.status();
        let (lsn, lag) = (status.applied_lsn, status.lag_records);
        let counters = [
            feed.applied_records,
            feed.stream_errors,
            feed.connects,
            lsn.segment,
            feed.connected as u64,
            lag,
            lsn.offset,
            0,
            lag,
            0,
        ];
        stats_output(vec![stats_row("replication", counters), mvcc_row(Host::pipeline(&**self))])
    }
}

// ---------------------------------------------------------------------------
// Response encoding
// ---------------------------------------------------------------------------

fn encode_value(v: &Value) -> String {
    match v {
        Value::Null => wire::NULL_FIELD.to_string(),
        Value::Str(s) => wire::escape_field(s),
        other => wire::escape_field(&other.to_string()),
    }
}

/// Encode one response as protocol lines (`META`/`ROW`* then `OK`, or one
/// `ERR`). Exposed for the front end and its tests; the byte format is
/// specified in `PROTOCOL.md` §4.
pub fn encode_response(resp: &Response) -> String {
    let mut out = String::new();
    match resp {
        Ok(output) => {
            if let Some(schema) = &output.schema {
                out.push_str(&format!("META {}", schema.len()));
                for col in schema.columns() {
                    out.push_str(&format!(" {}:{}", col.name, col.ty));
                }
                out.push('\n');
                for row in &output.rows {
                    out.push_str("ROW ");
                    for (i, v) in row.values().iter().enumerate() {
                        if i > 0 {
                            out.push('\t');
                        }
                        out.push_str(&encode_value(v));
                    }
                    out.push('\n');
                }
            }
            out.push_str(&format!("OK {}\n", wire::escape_message(&output.message)));
        }
        Err(e) => {
            out.push_str(&format!("ERR {} {}\n", e.code(), wire::escape_message(&e.to_string())));
        }
    }
    out
}

fn greeting() -> String {
    format!("HELLO {} staged-db\n", wire::PROTOCOL_VERSION)
}

// ---------------------------------------------------------------------------
// The event loop
// ---------------------------------------------------------------------------

/// How many outbox bytes a feed connection will hold in its write buffer
/// before it stops draining the outbox — so a stalled socket fills the
/// *bounded* outbox (and gets the replica or subscriber evicted by the
/// pump) instead of growing an unbounded local buffer.
const FEED_PENDING_CAP: usize = 64 * 1024;

/// Stop reading a connection whose write buffer has grown past this: its
/// responses aren't draining, so new requests must wait in the kernel.
const WBUF_SOFT_CAP: usize = 256 * 1024;

/// How long a closing connection's reads are drained after the half-close,
/// so the goodbye (`BYE`, `ERR OVERLOADED`, …) survives instead of being
/// discarded by a TCP RST.
const CLOSE_DRAIN: Duration = Duration::from_millis(250);

/// Yield-spin budget while statements are in flight: the loop gives the
/// stage (or pool) workers the CPU and re-checks completions before
/// falling back to a 1 ms `poll`, keeping request→response latency close
/// to the old blocking reader's. Under load the spin keeps the loop thread
/// on a core most of the time, and it stays because it pays for that: a
/// build without it, on the completion waker and the poll timeout alone,
/// measured `point_lookup` at −20% op/s and +26% p50 and `oltp_transfer`
/// at −4.6% op/s and +18% tail latency (4 alternating 8 s pairs on a
/// 2-vCPU box; DESIGN.md §16).
const INFLIGHT_SPIN: usize = 128;

struct NetShared {
    stop: AtomicBool,
    accepted: AtomicU64,
    rejected: AtomicU64,
    active: AtomicUsize,
    config: NetConfig,
}

/// A running TCP front end; dropping (or [`shutdown`](Self::shutdown)ing)
/// it stops the event loop and joins its thread.
pub struct NetHandle {
    addr: SocketAddr,
    shared: Arc<NetShared>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl NetHandle {
    /// The address the front end is listening on (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current connection counters.
    pub fn stats(&self) -> NetStats {
        NetStats {
            accepted: self.shared.accepted.load(Ordering::Relaxed),
            rejected: self.shared.rejected.load(Ordering::Relaxed),
            active: self.shared.active.load(Ordering::SeqCst),
        }
    }

    /// Stop accepting, close live connections at the next loop tick, and
    /// join the event-loop thread. Idempotent. The backend server is NOT
    /// shut down — callers own that.
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.lock().take() {
            let _ = t.join();
        }
    }
}

impl Drop for NetHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Serve the wire protocol on `listener`, opening one backend session per
/// connection. Returns immediately; a single `net-loop` thread accepts and
/// multiplexes every connection until the handle is shut down or dropped.
pub fn serve<B: WireBackend>(
    listener: TcpListener,
    backend: B,
    config: NetConfig,
) -> std::io::Result<NetHandle> {
    listener.set_nonblocking(true)?;
    widen_backlog(&listener, &config);
    let addr = listener.local_addr()?;
    let shared = Arc::new(NetShared {
        stop: AtomicBool::new(false),
        accepted: AtomicU64::new(0),
        rejected: AtomicU64::new(0),
        active: AtomicUsize::new(0),
        config,
    });
    let loop_shared = Arc::clone(&shared);
    let thread = std::thread::Builder::new()
        .name("net-loop".into())
        .spawn(move || net_loop(listener, backend, loop_shared))?;
    Ok(NetHandle { addr, shared, thread: Mutex::new(Some(thread)) })
}

/// What a connection currently is, beyond a plain command/response stream.
enum Mode {
    /// Request/response statements.
    Command,
    /// A `REPLICATE` WAL feed: outbox → socket, `ACK` lines → hub.
    Replicate { hub: Arc<ReplicationHub>, id: u64, rx: Receiver<String> },
    /// A `SUBSCRIBE` change feed: outbox → socket; only `UNSUBSCRIBE`,
    /// `PING` and `QUIT` are accepted inbound.
    Subscribe { hub: Arc<ReactivityHub>, id: u64, rx: Receiver<String> },
    /// Goodbye written (or being written): flush, half-close, drain reads
    /// briefly, drop.
    Closing,
}

/// Per-connection state: a nonblocking socket plus the buffers and
/// in-flight bookkeeping the loop multiplexes over. This is the whole
/// per-connection footprint — no thread, no stack.
struct Conn {
    stream: TcpStream,
    session: Option<Session>,
    mode: Mode,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    /// The admitted statement's reply channel, while one is running. At
    /// most one per connection: the protocol is sequential per client.
    inflight: Option<Receiver<Response>>,
    /// A decoded statement the server refused with `Overloaded` (its
    /// admission queue was full); retried every pass. While set, the
    /// socket is not read.
    pending: Option<String>,
    /// The session has a transaction open (or failed, awaiting
    /// `COMMIT`/`ROLLBACK`): this connection holds an admission slot
    /// ([`NetConfig::max_inflight`]) until it closes, and its statements
    /// bypass the budget — they finish work the pipeline has already
    /// invested locks in. A cache of [`Session::in_txn`], so counting busy
    /// connections takes no lock; refreshed wherever a statement of this
    /// connection is done with, the only points its transaction state can
    /// change.
    txn_open: bool,
    write_closed: bool,
    drain_deadline: Option<Instant>,
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream, session: Session) -> Conn {
        Conn {
            stream,
            session: Some(session),
            mode: Mode::Command,
            rbuf: Vec::new(),
            wbuf: greeting().into_bytes(),
            inflight: None,
            pending: None,
            txn_open: false,
            write_closed: false,
            drain_deadline: None,
            dead: false,
        }
    }

    /// Over the admission limit: greet, say why, then hang up — no
    /// session is opened. The same flush → half-close → drain path every
    /// closing connection takes; the drain keeps the refusal from being
    /// discarded by a TCP RST (PROTOCOL.md §2 promises the client sees
    /// `ERR OVERLOADED`, not ECONNRESET).
    fn refused(stream: TcpStream) -> Conn {
        let mut wbuf = greeting().into_bytes();
        let err: Response = Err(ServerError::Overloaded);
        wbuf.extend_from_slice(encode_response(&err).as_bytes());
        Conn {
            stream,
            session: None,
            mode: Mode::Closing,
            rbuf: Vec::new(),
            wbuf,
            inflight: None,
            pending: None,
            txn_open: false,
            write_closed: false,
            drain_deadline: None,
            dead: false,
        }
    }

    /// Should the loop register read interest for this socket? This
    /// predicate *is* the back-pressure policy: an in-flight or parked
    /// statement, an undispatched line, or an undrained write buffer all
    /// mean "don't pull more bytes off the wire".
    fn wants_read(&self) -> bool {
        match self.mode {
            Mode::Command => {
                self.inflight.is_none()
                    && self.pending.is_none()
                    && !self.rbuf.contains(&b'\n')
                    && self.wbuf.len() < WBUF_SOFT_CAP
            }
            Mode::Replicate { .. } | Mode::Subscribe { .. } | Mode::Closing => true,
        }
    }

    /// Append one `ERR` reply to the write buffer.
    fn push_err(&mut self, e: ServerError) {
        let resp: Response = Err(e);
        self.wbuf.extend_from_slice(encode_response(&resp).as_bytes());
    }

    /// Release everything the connection holds on the server — feed
    /// registration, session (abort-on-drop for open transactions) — and
    /// leave it in `Closing`. Idempotent; called on every exit path.
    fn release(&mut self) {
        match std::mem::replace(&mut self.mode, Mode::Closing) {
            Mode::Replicate { hub, id, .. } => hub.disconnect(id),
            Mode::Subscribe { hub, id, .. } => hub.disconnect(id),
            _ => {}
        }
        self.session = None;
        self.inflight = None;
        self.pending = None;
        self.txn_open = false;
    }

    /// Nonblocking read into the frame buffer (discarded in `Closing`).
    fn read_some(&mut self) {
        let mut chunk = [0u8; 4096];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => {
                    if !matches!(self.mode, Mode::Closing) {
                        self.rbuf.extend_from_slice(&chunk[..n]);
                    }
                    if n < chunk.len() || self.rbuf.len() > WBUF_SOFT_CAP {
                        return;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
    }

    /// Nonblocking flush of the write buffer.
    fn flush(&mut self) {
        while !self.wbuf.is_empty() {
            match self.stream.write(&self.wbuf) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => {
                    self.wbuf.drain(..n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
    }

    /// Drive a closing connection: once the goodbye is flushed, half-close
    /// the write side and drain reads until the client observes EOF and
    /// closes (or a short deadline passes).
    fn advance_closing(&mut self) {
        if !matches!(self.mode, Mode::Closing) || self.dead {
            return;
        }
        if self.wbuf.is_empty() && !self.write_closed {
            let _ = self.stream.shutdown(std::net::Shutdown::Write);
            self.write_closed = true;
            self.drain_deadline = Some(Instant::now() + CLOSE_DRAIN);
        }
        if let Some(d) = self.drain_deadline {
            if Instant::now() >= d {
                self.dead = true;
            }
        }
    }

    /// Consume a completed statement's response, if any.
    fn poll_completion(&mut self) {
        let Some(rx) = &self.inflight else { return };
        match rx.try_recv() {
            Ok(resp) => {
                self.txn_open = self.session.as_ref().is_some_and(Session::in_txn);
                self.wbuf.extend_from_slice(encode_response(&resp).as_bytes());
                self.inflight = None;
            }
            Err(TryRecvError::Empty) => {}
            Err(TryRecvError::Disconnected) => {
                self.push_err(ServerError::ShuttingDown);
                self.release();
            }
        }
    }
}

/// Pop one complete line (without its newline) off the frame buffer.
fn take_line(buf: &mut Vec<u8>) -> Option<Vec<u8>> {
    let nl = buf.iter().position(|b| *b == b'\n')?;
    let mut line: Vec<u8> = buf.drain(..=nl).collect();
    line.pop();
    Some(line)
}

/// Submit one statement; `Overloaded` parks it for retry (and,
/// transitively, stops the socket being read).
fn dispatch_query(conn: &mut Conn, sql: String, budget: &mut usize, waker: &LoopWaker) {
    let Some(session) = conn.session.as_ref() else {
        conn.push_err(ServerError::ShuttingDown);
        return;
    };
    // The loop-wide admission budget is exhausted and this statement
    // would acquire a new slot: park it without submitting (identical to
    // the server itself answering Overloaded). A connection with an open
    // transaction already holds its slot — its statements are the path
    // to releasing locks, so they are never parked here.
    if *budget == 0 && !conn.txn_open {
        conn.pending = Some(sql);
        return;
    }
    match session.try_submit(sql.as_str()) {
        Ok(rx) => {
            waker.watch(&rx);
            conn.inflight = Some(rx);
            if !conn.txn_open {
                *budget -= 1;
            }
        }
        Err(ServerError::Overloaded) => conn.pending = Some(sql),
        Err(e) => {
            conn.txn_open = session.in_txn();
            conn.push_err(e);
        }
    }
}

/// Decode and act on one command line in request/response mode.
fn dispatch_command<B: WireBackend>(
    conn: &mut Conn,
    backend: &B,
    raw: Vec<u8>,
    budget: &mut usize,
    waker: &LoopWaker,
) {
    let Ok(text) = std::str::from_utf8(&raw) else {
        conn.push_err(ServerError::Protocol("request is not valid UTF-8".into()));
        return;
    };
    if text.trim().is_empty() {
        return;
    }
    match wire::parse_command(text) {
        Ok(wire::Command::Ping) => conn.wbuf.extend_from_slice(b"PONG\n"),
        Ok(wire::Command::Quit) => {
            conn.wbuf.extend_from_slice(b"BYE\n");
            conn.release();
        }
        Ok(wire::Command::Stats) => {
            let text = encode_response(&Ok(backend.stats_output()));
            conn.wbuf.extend_from_slice(text.as_bytes());
        }
        Ok(wire::Command::Replicate { segment, offset }) => match backend.replication() {
            Some(hub) => match hub.subscribe(Lsn { segment, offset }) {
                // The connection stops being request/response and becomes
                // a WAL feed; it never comes back.
                Ok((id, rx)) => {
                    waker.watch(&rx);
                    conn.mode = Mode::Replicate { hub, id, rx };
                }
                Err(e) => {
                    conn.push_err(e);
                    conn.release();
                }
            },
            None => {
                conn.push_err(ServerError::Protocol(
                    "this server does not ship WAL (not a primary)".into(),
                ));
                conn.release();
            }
        },
        Ok(wire::Command::Subscribe { table, predicate }) => match backend.reactivity() {
            Some(hub) => match hub.subscribe(&table, predicate.as_deref()) {
                Ok((id, rx)) => {
                    let ok: Response = Ok(QueryOutput::message(format!("SUBSCRIBE {table}")));
                    conn.wbuf.extend_from_slice(encode_response(&ok).as_bytes());
                    waker.watch(&rx);
                    conn.mode = Mode::Subscribe { hub, id, rx };
                }
                // Bad table / predicate: refuse the subscription, keep the
                // connection usable.
                Err(e) => conn.push_err(e),
            },
            None => conn.push_err(ServerError::Protocol(
                "this server does not serve change feeds (read-only replica)".into(),
            )),
        },
        Ok(wire::Command::Unsubscribe) => conn
            .push_err(ServerError::Protocol("no subscription is active on this connection".into())),
        Ok(wire::Command::Query(sql)) => dispatch_query(conn, sql, budget, waker),
        Err(msg) => conn.push_err(ServerError::Protocol(msg)),
    }
}

/// Decode one inbound line while a subscription is active: only
/// `UNSUBSCRIBE`, `PING` and `QUIT` make sense mid-feed.
fn dispatch_subscribed(conn: &mut Conn, raw: Vec<u8>) {
    let Ok(text) = std::str::from_utf8(&raw) else {
        conn.push_err(ServerError::Protocol("request is not valid UTF-8".into()));
        return;
    };
    if text.trim().is_empty() {
        return;
    }
    match wire::parse_command(text) {
        Ok(wire::Command::Ping) => conn.wbuf.extend_from_slice(b"PONG\n"),
        Ok(wire::Command::Quit) => {
            conn.wbuf.extend_from_slice(b"BYE\n");
            conn.release();
        }
        Ok(wire::Command::Unsubscribe) => {
            if let Mode::Subscribe { hub, id, rx } =
                std::mem::replace(&mut conn.mode, Mode::Command)
            {
                // Unregister first (the pump stops feeding the outbox) and
                // collect the tail the hub still owed this feed, then relay
                // the outbox followed by that tail: every change committed
                // before the UNSUBSCRIBE is delivered before the closing OK.
                let tail = hub.drain(id);
                while let Ok(line) = rx.try_recv() {
                    conn.wbuf.extend_from_slice(line.as_bytes());
                    conn.wbuf.push(b'\n');
                }
                for line in tail {
                    conn.wbuf.extend_from_slice(line.as_bytes());
                    conn.wbuf.push(b'\n');
                }
                let ok: Response = Ok(QueryOutput::message("UNSUBSCRIBE"));
                conn.wbuf.extend_from_slice(encode_response(&ok).as_bytes());
            }
        }
        Ok(_) => conn.push_err(ServerError::Protocol(
            "a subscription is active on this connection; UNSUBSCRIBE first".into(),
        )),
        Err(msg) => conn.push_err(ServerError::Protocol(msg)),
    }
}

/// One multiplexing pass over a single connection: consume a completed
/// statement, retry a parked one, dispatch framed lines, relay feed
/// outboxes, flush, advance the close handshake. Everything nonblocking.
fn service<B: WireBackend>(conn: &mut Conn, backend: &B, budget: &mut usize, waker: &LoopWaker) {
    conn.poll_completion();
    if conn.inflight.is_none() && (*budget > 0 || conn.txn_open) {
        if let Some(sql) = conn.pending.take() {
            dispatch_query(conn, sql, budget, waker);
        }
    }
    loop {
        if conn.dead {
            break;
        }
        match conn.mode {
            Mode::Command => {
                if conn.inflight.is_some()
                    || conn.pending.is_some()
                    || conn.wbuf.len() >= WBUF_SOFT_CAP
                {
                    break;
                }
                match take_line(&mut conn.rbuf) {
                    Some(line) => dispatch_command(conn, backend, line, budget, waker),
                    None => break,
                }
            }
            Mode::Subscribe { .. } => match take_line(&mut conn.rbuf) {
                Some(line) => dispatch_subscribed(conn, line),
                None => break,
            },
            Mode::Replicate { .. } => {
                while let Some(line) = take_line(&mut conn.rbuf) {
                    if let (Ok(text), Mode::Replicate { hub, id, .. }) =
                        (std::str::from_utf8(&line), &conn.mode)
                    {
                        if let Ok((segment, offset)) = wire::parse_ack(text.trim_end()) {
                            hub.ack(*id, Lsn { segment, offset });
                        }
                    }
                }
                break;
            }
            Mode::Closing => {
                conn.rbuf.clear();
                break;
            }
        }
    }
    // A frame that can never complete (no newline within the line limit)
    // is a protocol error, not an invitation to buffer forever.
    if !matches!(conn.mode, Mode::Closing)
        && !conn.rbuf.contains(&b'\n')
        && conn.rbuf.len() > wire::MAX_LINE_BYTES
    {
        conn.push_err(ServerError::Protocol(format!(
            "line exceeds {} bytes",
            wire::MAX_LINE_BYTES
        )));
        conn.release();
    }
    // Feed relay: bounded outbox → write buffer, only while the buffer is
    // small (a stalled socket must fill the outbox so the pump evicts it).
    match &conn.mode {
        Mode::Replicate { rx, .. } | Mode::Subscribe { rx, .. } => {
            while conn.wbuf.len() < FEED_PENDING_CAP {
                match rx.try_recv() {
                    Ok(line) => {
                        conn.wbuf.extend_from_slice(line.as_bytes());
                        conn.wbuf.push(b'\n');
                    }
                    Err(TryRecvError::Empty) => break,
                    // Evicted by the pump (or the hub is gone): hang up.
                    Err(TryRecvError::Disconnected) => {
                        conn.dead = true;
                        break;
                    }
                }
            }
        }
        _ => {}
    }
    conn.flush();
    conn.advance_closing();
}

/// Size the kernel accept queue to the configured fleet.
/// [`TcpListener::bind`] hard-codes a backlog of 128, which a burst of
/// simultaneous connects from a four-digit fleet overflows — and Linux
/// *silently drops* the overflow (`tcp_abort_on_overflow=0`): the client
/// completes its handshake and then hangs on a connection the server
/// will never see. Calling `listen(2)` again on a listening socket
/// updates the backlog in place (the kernel clamps it to
/// `net.core.somaxconn`); best-effort — a failure leaves the default.
fn widen_backlog(listener: &TcpListener, config: &NetConfig) {
    extern "C" {
        fn listen(fd: i32, backlog: i32) -> i32;
    }
    let backlog = config.max_connections.clamp(128, 4096) as i32;
    unsafe {
        let _ = listen(listener.as_raw_fd(), backlog);
    }
}

/// Wakes the `net-loop` out of `poll(2)` the instant a watched channel
/// becomes ready: a nonblocking socketpair whose read end sits in every
/// poll set, and whose write end is shared (via the channel shim's
/// [`WakeHook`]) with every completion channel and feed outbox the loop
/// waits on. Without it, a completion landing after
/// the post-submit spin sleeps out the rest of the poll timeout — up to
/// a millisecond of dead time per statement, which closed-loop clients
/// pay on every round trip. A blocked reader thread got this wake-up
/// for free from the channel's condvar; the poll loop has to buy it
/// with a file descriptor.
struct LoopWaker {
    /// Read end, registered (`POLLIN`) in every poll set.
    rx: Option<UnixStream>,
    /// The armed hook: writes one byte to the other end. `None` when the
    /// socketpair could not be created — the loop then degrades to its
    /// timeout-based wake-ups.
    hook: Option<WakeHook>,
}

impl LoopWaker {
    fn new() -> Self {
        match UnixStream::pair() {
            Ok((tx, rx)) => {
                let _ = tx.set_nonblocking(true);
                let _ = rx.set_nonblocking(true);
                let hook: WakeHook = Arc::new(move || {
                    // A full pipe means wake-ups are already queued;
                    // dropping this byte loses nothing.
                    let _ = (&tx).write(&[1u8]);
                });
                Self { rx: Some(rx), hook: Some(hook) }
            }
            Err(_) => Self { rx: None, hook: None },
        }
    }

    /// Arm the wake hook on a channel the loop is about to wait on.
    fn watch<T>(&self, rx: &Receiver<T>) {
        if let Some(hook) = &self.hook {
            rx.set_wake_hook(Arc::clone(hook));
        }
    }

    /// Swallow queued wake bytes so the next `poll` can sleep.
    fn drain(&self) {
        if let Some(rx) = &self.rx {
            let mut buf = [0u8; 64];
            while matches!((&*rx).read(&mut buf), Ok(n) if n > 0) {}
        }
    }
}

/// Accept every pending connection (the listener is nonblocking).
fn accept_ready<B: WireBackend>(
    listener: &TcpListener,
    backend: &B,
    shared: &NetShared,
    conns: &mut Vec<Conn>,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                shared.accepted.fetch_add(1, Ordering::Relaxed);
                let _ = stream.set_nodelay(true);
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let served = conns.iter().filter(|c| c.session.is_some()).count();
                if served >= shared.config.max_connections {
                    shared.rejected.fetch_add(1, Ordering::Relaxed);
                    conns.push(Conn::refused(stream));
                } else {
                    conns.push(Conn::new(stream, backend.open_session()));
                }
            }
            // WouldBlock (drained) or a transient accept error: move on.
            Err(_) => return,
        }
    }
}

/// The event loop: ONE thread that accepts, reads, decodes, admits,
/// relays and writes for every connection, multiplexed by `poll(2)`
/// readiness. Statements run elsewhere (stage workers / pool workers);
/// this thread never blocks on any of them.
fn net_loop<B: WireBackend>(listener: TcpListener, backend: B, shared: Arc<NetShared>) {
    let mut conns: Vec<Conn> = Vec::new();
    let waker = LoopWaker::new();
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            // Best-effort goodbye to request/response clients, then drop
            // everything (sessions abort open transactions, feeds
            // unregister).
            let bye = encode_response(&Err(ServerError::ShuttingDown));
            for conn in conns.iter_mut() {
                if conn.session.is_some() && !conn.write_closed {
                    let _ = conn.stream.write_all(bye.as_bytes());
                }
                conn.release();
            }
            shared.active.store(0, Ordering::SeqCst);
            return;
        }
        accept_ready(&listener, &backend, &shared, &mut conns);
        // The pass's slot-admission budget: how many more connections may
        // start doing work before the loop-wide multiprogramming cap is
        // hit. A slot is held by an in-flight statement or an open
        // transaction; counted at pass start, so a slot freed mid-pass is
        // reusable on the next pass, and parked statements retry then too.
        let busy = conns.iter().filter(|c| c.inflight.is_some() || c.txn_open).count();
        let mut budget = shared.config.max_inflight.saturating_sub(busy);
        for conn in conns.iter_mut() {
            service(conn, &backend, &mut budget, &waker);
        }
        // A feed that is fully caught up drives the hub's catch-up itself
        // instead of waiting for the owner's idle tick.
        let mut pump_repl = false;
        let mut pump_sub = false;
        for conn in &conns {
            match &conn.mode {
                Mode::Replicate { rx, .. } if conn.wbuf.is_empty() && rx.is_empty() => {
                    pump_repl = true;
                }
                Mode::Subscribe { rx, .. } if conn.wbuf.is_empty() && rx.is_empty() => {
                    pump_sub = true;
                }
                _ => {}
            }
        }
        if pump_repl {
            if let Some(hub) = backend.replication() {
                hub.pump();
            }
        }
        if pump_sub {
            if let Some(hub) = backend.reactivity() {
                hub.pump();
            }
        }
        conns.retain_mut(|c| {
            if c.dead {
                c.release();
                false
            } else {
                true
            }
        });
        shared.active.store(conns.iter().filter(|c| c.session.is_some()).count(), Ordering::SeqCst);
        // Completion latency: while statements are in flight, hand the CPU
        // to the workers and re-check before sleeping — a short reply
        // usually lands within the spin, keeping per-statement latency
        // close to a blocking reader's.
        let any_inflight = conns.iter().any(|c| c.inflight.is_some());
        if any_inflight {
            let mut landed = false;
            for _ in 0..INFLIGHT_SPIN {
                if conns.iter().any(|c| c.inflight.as_ref().is_some_and(|rx| !rx.is_empty())) {
                    landed = true;
                    break;
                }
                std::thread::yield_now();
            }
            if landed {
                continue;
            }
        }
        let any_pending = conns.iter().any(|c| c.pending.is_some());
        let timeout_ms = if any_inflight {
            1
        } else if any_pending {
            2
        } else {
            POLL_INTERVAL.as_millis() as i32
        };
        let mut fds = Vec::with_capacity(conns.len() + 1);
        fds.push(PollFd::new(listener.as_raw_fd(), Interest::READ));
        let mut map = Vec::with_capacity(conns.len());
        for (i, conn) in conns.iter().enumerate() {
            let mut interest = Interest::NONE;
            if conn.wants_read() {
                interest = interest.and(Interest::READ);
            }
            if !conn.wbuf.is_empty() {
                interest = interest.and(Interest::WRITE);
            }
            if interest != Interest::NONE {
                fds.push(PollFd::new(conn.stream.as_raw_fd(), interest));
                map.push(i);
            }
        }
        // The waker's read end goes last, past the `map` range: a wake
        // byte (completion, feed line, disconnect) ends the
        // sleep immediately; the next pass consumes whatever landed.
        let wake_slot = waker.rx.as_ref().map(|w| {
            fds.push(PollFd::new(w.as_raw_fd(), Interest::READ));
            fds.len() - 1
        });
        match polling::poll(&mut fds, timeout_ms) {
            Ok(0) => {}
            Ok(_) => {
                if let Some(slot) = wake_slot {
                    if fds[slot].ready() {
                        waker.drain();
                    }
                }
                for (k, idx) in map.iter().enumerate() {
                    let pf = &fds[k + 1];
                    if !pf.ready() {
                        continue;
                    }
                    let conn = &mut conns[*idx];
                    if pf.writable() {
                        conn.flush();
                    }
                    if pf.readable() {
                        conn.read_some();
                    }
                }
            }
            // poll(2) only fails for structural reasons (EINVAL); back off
            // rather than spin.
            Err(_) => std::thread::sleep(POLL_INTERVAL),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use staged_storage::{Column, DataType, Schema, Tuple};

    #[test]
    fn encode_ok_with_rows() {
        let out = QueryOutput {
            rows: vec![
                Tuple::new(vec![Value::Int(1), Value::Str("a\tb".into())]),
                Tuple::new(vec![Value::Null, Value::Str("plain".into())]),
            ],
            schema: Some(Schema::new(vec![
                Column::new("k", DataType::Int),
                Column::new("v", DataType::Str),
            ])),
            message: "SELECT 2".into(),
        };
        let text = encode_response(&Ok(out));
        assert_eq!(text, "META 2 k:INT v:VARCHAR\nROW 1\ta\\tb\nROW \\N\tplain\nOK SELECT 2\n");
    }

    #[test]
    fn encode_message_only() {
        assert_eq!(encode_response(&Ok(QueryOutput::message("BEGIN"))), "OK BEGIN\n");
    }

    #[test]
    fn encode_errors_carry_stable_codes() {
        let cases: Vec<(Response, &str)> = vec![
            (Err(ServerError::Sql("nope".into())), "ERR SQL sql error: nope\n"),
            (Err(ServerError::Overloaded), "ERR OVERLOADED server overloaded\n"),
            (
                Err(ServerError::TxnAborted),
                "ERR TXN_ABORTED current transaction is aborted; \
                 issue ROLLBACK before new statements\n",
            ),
        ];
        for (resp, want) in cases {
            assert_eq!(encode_response(&resp), want);
        }
    }

    #[test]
    fn multiline_error_messages_stay_one_line() {
        let resp: Response = Err(ServerError::Execution("two\nlines".into()));
        let text = encode_response(&resp);
        assert_eq!(text.matches('\n').count(), 1);
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn take_line_frames_incrementally() {
        let mut buf = b"PING\npartial".to_vec();
        assert_eq!(take_line(&mut buf).as_deref(), Some(&b"PING"[..]));
        assert_eq!(take_line(&mut buf), None);
        buf.extend_from_slice(b" line\n");
        assert_eq!(take_line(&mut buf).as_deref(), Some(&b"partial line"[..]));
        assert!(buf.is_empty());
    }
}
