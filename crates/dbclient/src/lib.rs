//! # staged-dbclient — a TCP client for the staged database
//!
//! A small, dependency-light client library for the wire protocol of
//! `PROTOCOL.md` (served by `staged-server::net`), plus the `dbsh` shell
//! built on it. The client is deliberately synchronous — one request, one
//! response — matching the protocol's strict request/response framing.
//!
//! ```no_run
//! use staged_dbclient::Client;
//!
//! let mut db = Client::connect("127.0.0.1:5433").unwrap();
//! db.query("CREATE TABLE kv (k INT, v VARCHAR(16))").unwrap();
//! db.query("INSERT INTO kv VALUES (1, 'one')").unwrap();
//! let out = db.query("SELECT v FROM kv WHERE k = 1").unwrap();
//! assert_eq!(out.rows[0][0].as_deref(), Some("one"));
//! ```

#![deny(missing_docs)]

use staged_wire as wire;
use std::fmt;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Client-side errors.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failed (connect, read, write).
    Io(std::io::Error),
    /// The server broke the wire protocol (or speaks a different version).
    Protocol(String),
    /// The server answered `ERR <code> <message>`.
    Server {
        /// Stable machine-readable code (branch on this).
        code: wire::ErrorCode,
        /// Human-readable detail (display this).
        message: String,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Server { code, message } => write!(f, "{code}: {message}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Result alias for client calls.
pub type ClientResult<T> = Result<T, ClientError>;

/// A decoded result set: column descriptors, rows (fields are `None` for
/// SQL NULL), and the completion tag (`SELECT 3`, `INSERT 1`, `BEGIN`, …).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryResult {
    /// `(name, type)` per column; empty for message-only responses.
    pub columns: Vec<(String, String)>,
    /// Decoded rows; `None` is SQL NULL.
    pub rows: Vec<Vec<Option<String>>>,
    /// The completion tag from the `OK` line.
    pub tag: String,
}

impl QueryResult {
    /// Render as an aligned ASCII table (what `dbsh` prints). Message-only
    /// results render as just the tag.
    pub fn render(&self) -> String {
        if self.columns.is_empty() {
            return format!("{}\n", self.tag);
        }
        let mut widths: Vec<usize> = self.columns.iter().map(|(n, _)| n.len()).collect();
        let cell = |v: &Option<String>| v.clone().unwrap_or_else(|| "NULL".into());
        for row in &self.rows {
            for (i, v) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell(v).len());
                }
            }
        }
        let mut out = String::new();
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, (n, _))| format!("{n:<w$}", w = widths[i]))
            .collect();
        out.push_str(&header.join(" | "));
        out.push('\n');
        let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        out.push_str(&rule.join("-+-"));
        out.push('\n');
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, v)| format!("{:<w$}", cell(v), w = widths.get(i).copied().unwrap_or(0)))
                .collect();
            out.push_str(&line.join(" | "));
            out.push('\n');
        }
        out.push_str(&format!("{}\n", self.tag));
        out
    }
}

/// A connection to a staged-db network front end.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    server_greeting: String,
}

impl Client {
    /// Connect and validate the server's `HELLO` greeting (protocol
    /// version must match [`staged_wire::PROTOCOL_VERSION`]).
    pub fn connect(addr: impl ToSocketAddrs) -> ClientResult<Self> {
        let stream = TcpStream::connect(addr)?;
        Self::from_stream(stream)
    }

    /// Like [`connect`](Self::connect) with a connect timeout (applied to
    /// each resolved address in turn until one succeeds). The timeout also
    /// covers the `HELLO` greeting read: a TCP handshake can succeed
    /// against a server that will never serve the socket (accept-queue
    /// overflow drops it silently), and without a deadline on the greeting
    /// such a connection hangs forever instead of erroring.
    pub fn connect_timeout(addr: impl ToSocketAddrs, timeout: Duration) -> ClientResult<Self> {
        let mut last: Option<std::io::Error> = None;
        for a in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&a, timeout) {
                Ok(stream) => {
                    let _ = stream.set_read_timeout(Some(timeout));
                    return Self::from_stream(stream).inspect(|client| {
                        let _ = client.reader.get_ref().set_read_timeout(None);
                    });
                }
                Err(e) => last = Some(e),
            }
        }
        Err(ClientError::Io(last.unwrap_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "no addresses resolved")
        })))
    }

    fn from_stream(stream: TcpStream) -> ClientResult<Self> {
        let _ = stream.set_nodelay(true);
        let writer = stream.try_clone()?;
        let mut client =
            Client { reader: BufReader::new(stream), writer, server_greeting: String::new() };
        let hello = client.read_line()?;
        let mut parts = hello.split_whitespace();
        if parts.next() != Some("HELLO") {
            return Err(ClientError::Protocol(format!("expected HELLO, got {hello:?}")));
        }
        match parts.next().and_then(|v| v.parse::<u32>().ok()) {
            Some(v) if v == wire::PROTOCOL_VERSION => {}
            other => {
                return Err(ClientError::Protocol(format!(
                    "unsupported protocol version {other:?} (client speaks {})",
                    wire::PROTOCOL_VERSION
                )))
            }
        }
        client.server_greeting = hello;
        Ok(client)
    }

    /// The raw `HELLO` line the server greeted with.
    pub fn server_greeting(&self) -> &str {
        &self.server_greeting
    }

    /// Liveness probe: `PING` → `PONG`. Does not enter the SQL pipeline.
    pub fn ping(&mut self) -> ClientResult<()> {
        self.send_line("PING")?;
        let line = self.read_line()?;
        match line.as_str() {
            "PONG" => Ok(()),
            other => Err(Self::unexpected("PONG", other)),
        }
    }

    /// Run one SQL statement. The wire protocol is line-framed, so SQL
    /// containing a newline is rejected client-side before anything is
    /// sent (flatten statements to one line first).
    pub fn query(&mut self, sql: &str) -> ClientResult<QueryResult> {
        if sql.contains('\n') || sql.contains('\r') {
            return Err(ClientError::Protocol(
                "statement contains a newline; the wire protocol is line-framed".into(),
            ));
        }
        self.send_line(&format!("QUERY {sql}"))?;
        self.read_result()
    }

    /// `BEGIN` a transaction on this connection's session.
    pub fn begin(&mut self) -> ClientResult<QueryResult> {
        self.query("BEGIN")
    }

    /// `BEGIN READ ONLY`: open a snapshot transaction on this connection's
    /// session. Every statement until `COMMIT`/`ROLLBACK` reads the same
    /// consistent snapshot without taking locks; DML is refused with the
    /// `READ_ONLY` error code.
    pub fn begin_read_only(&mut self) -> ClientResult<QueryResult> {
        self.query("BEGIN READ ONLY")
    }

    /// `COMMIT` the open transaction.
    pub fn commit(&mut self) -> ClientResult<QueryResult> {
        self.query("COMMIT")
    }

    /// `ROLLBACK` the open transaction (also clears the aborted state).
    pub fn rollback(&mut self) -> ClientResult<QueryResult> {
        self.query("ROLLBACK")
    }

    /// Fetch the server's per-stage monitor snapshot (`STATS`).
    pub fn stats(&mut self) -> ClientResult<QueryResult> {
        self.send_line("STATS")?;
        self.read_result()
    }

    /// Ask the server to checkpoint (`CHECKPOINT`): lock every partition,
    /// snapshot the database, truncate the WAL below the snapshot's LSN.
    /// The same statement as `query("CHECKPOINT")`, refused inside a
    /// transaction. Blocks until the checkpoint finishes; the result's
    /// message starts with `CHECKPOINT` on success.
    pub fn checkpoint(&mut self) -> ClientResult<QueryResult> {
        self.send_line("CHECKPOINT")?;
        self.read_result()
    }

    /// Open a `SUBSCRIBE` change feed on this connection: every
    /// transaction committing to `table` after this call streams back as
    /// `CHANGE` lines, whole transactions at a time, in commit order,
    /// optionally filtered by a `WHERE` predicate (source text, without
    /// the keyword). The connection leaves request/response mode until
    /// [`Subscription::unsubscribe`] — drop the subscription (or the
    /// client) to just hang up instead; the server releases the feed
    /// either way (PROTOCOL.md §8).
    pub fn subscribe(
        &mut self,
        table: &str,
        predicate: Option<&str>,
    ) -> ClientResult<Subscription<'_>> {
        let cmd = match predicate {
            Some(p) => format!("SUBSCRIBE {table} WHERE {p}"),
            None => format!("SUBSCRIBE {table}"),
        };
        self.send_line(&cmd)?;
        let line = self.read_line()?;
        match line.strip_prefix("OK ") {
            Some(_) => Ok(Subscription { client: self }),
            None => Err(Self::unexpected("OK SUBSCRIBE", &line)),
        }
    }

    /// Orderly goodbye: `QUIT` → `BYE`, then the connection closes.
    pub fn quit(mut self) -> ClientResult<()> {
        self.send_line("QUIT")?;
        let line = self.read_line()?;
        match line.as_str() {
            "BYE" => Ok(()),
            other => Err(Self::unexpected("BYE", other)),
        }
    }

    /// An off-script line: an `ERR` becomes a typed server error (the
    /// server may refuse any command, e.g. `OVERLOADED` at admission),
    /// anything else is a protocol violation.
    fn unexpected(wanted: &str, line: &str) -> ClientError {
        if let Some(rest) = line.strip_prefix("ERR ") {
            let (code, message) = match rest.find(' ') {
                Some(i) => (&rest[..i], wire::unescape_message(&rest[i + 1..])),
                None => (rest, String::new()),
            };
            if let Some(code) = wire::ErrorCode::parse(code) {
                return ClientError::Server { code, message };
            }
        }
        ClientError::Protocol(format!("expected {wanted}, got {line:?}"))
    }

    fn send_line(&mut self, line: &str) -> ClientResult<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        Ok(())
    }

    fn read_line(&mut self) -> ClientResult<String> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )));
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }

    /// Read one result block: optional `META` + `ROW`* then `OK`, or `ERR`.
    fn read_result(&mut self) -> ClientResult<QueryResult> {
        let mut result = QueryResult::default();
        loop {
            let line = self.read_line()?;
            let (tag, rest) = match line.find(' ') {
                Some(i) => (&line[..i], &line[i + 1..]),
                None => (line.as_str(), ""),
            };
            match tag {
                "META" => {
                    let mut parts = rest.split_whitespace();
                    let n: usize = parts
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| ClientError::Protocol(format!("bad META line {line:?}")))?;
                    for col in parts {
                        let (name, ty) = col.split_once(':').ok_or_else(|| {
                            ClientError::Protocol(format!("bad column descriptor {col:?}"))
                        })?;
                        result.columns.push((name.to_string(), ty.to_string()));
                    }
                    if result.columns.len() != n {
                        return Err(ClientError::Protocol(format!(
                            "META announced {n} columns, listed {}",
                            result.columns.len()
                        )));
                    }
                }
                "ROW" => {
                    let mut row = Vec::with_capacity(result.columns.len());
                    for field in rest.split('\t') {
                        if field == wire::NULL_FIELD {
                            row.push(None);
                        } else {
                            row.push(Some(
                                wire::unescape_field(field).map_err(ClientError::Protocol)?,
                            ));
                        }
                    }
                    if !result.columns.is_empty() && row.len() != result.columns.len() {
                        return Err(ClientError::Protocol(format!(
                            "ROW has {} fields, META announced {}",
                            row.len(),
                            result.columns.len()
                        )));
                    }
                    result.rows.push(row);
                }
                "OK" => {
                    result.tag = wire::unescape_message(rest);
                    return Ok(result);
                }
                "ERR" => {
                    let (code, message) = match rest.find(' ') {
                        Some(i) => (&rest[..i], wire::unescape_message(&rest[i + 1..])),
                        None => (rest, String::new()),
                    };
                    let code = wire::ErrorCode::parse(code).ok_or_else(|| {
                        ClientError::Protocol(format!("unknown error code {code:?}"))
                    })?;
                    return Err(ClientError::Server { code, message });
                }
                other => {
                    return Err(ClientError::Protocol(format!("unexpected response tag {other:?}")))
                }
            }
        }
    }
}

/// A live `SUBSCRIBE` change feed: a streaming iterator over committed
/// changes. Borrows the client mutably — the underlying connection speaks
/// only the feed until [`unsubscribe`](Self::unsubscribe) returns it to
/// request/response use.
pub struct Subscription<'a> {
    client: &'a mut Client,
}

impl Subscription<'_> {
    /// Block until the next committed change arrives.
    pub fn next_change(&mut self) -> ClientResult<wire::Change> {
        let line = self.client.read_line()?;
        if line.starts_with("CHANGE ") {
            wire::parse_change(&line).map_err(ClientError::Protocol)
        } else {
            Err(Client::unexpected("CHANGE", &line))
        }
    }

    /// End the feed: send `UNSUBSCRIBE`, collect the changes that were
    /// already queued server-side (every transaction committed before the
    /// unsubscribe is delivered), and stop at the closing `OK`. The
    /// connection is back in request/response mode afterwards.
    pub fn unsubscribe(self) -> ClientResult<Vec<wire::Change>> {
        self.client.send_line("UNSUBSCRIBE")?;
        let mut tail = Vec::new();
        loop {
            let line = self.client.read_line()?;
            if line.starts_with("CHANGE ") {
                tail.push(wire::parse_change(&line).map_err(ClientError::Protocol)?);
            } else if line.starts_with("OK ") {
                return Ok(tail);
            } else {
                return Err(Client::unexpected("OK UNSUBSCRIBE", &line));
            }
        }
    }
}

impl Iterator for Subscription<'_> {
    type Item = ClientResult<wire::Change>;

    /// Blocking stream of changes; ends (`None`) when the server closes
    /// the feed — eviction of a subscriber that stopped reading, or
    /// server shutdown.
    fn next(&mut self) -> Option<Self::Item> {
        match self.next_change() {
            Ok(c) => Some(Ok(c)),
            Err(ClientError::Io(e)) if e.kind() == std::io::ErrorKind::UnexpectedEof => None,
            Err(e) => Some(Err(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_message_only() {
        let r = QueryResult { tag: "BEGIN".into(), ..Default::default() };
        assert_eq!(r.render(), "BEGIN\n");
    }

    #[test]
    fn render_aligns_columns() {
        let r = QueryResult {
            columns: vec![("k".into(), "INT".into()), ("value".into(), "VARCHAR".into())],
            rows: vec![vec![Some("1".into()), Some("one".into())], vec![Some("10".into()), None]],
            tag: "SELECT 2".into(),
        };
        let text = r.render();
        assert!(text.contains("k  | value"));
        assert!(text.contains("10 | NULL"));
        assert!(text.ends_with("SELECT 2\n"));
    }
}
