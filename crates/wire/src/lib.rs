//! # staged-wire — the text wire protocol
//!
//! The shared vocabulary of the network front end: framing limits, request
//! commands, response tags, field escaping and stable error codes. Both the
//! server (`staged-server::net`) and the client library (`staged-dbclient`)
//! depend on this crate and nothing else, so the protocol definition lives
//! in exactly one place and the client stays dependency-light.
//!
//! The protocol itself is specified in `PROTOCOL.md` at the repository
//! root; this crate is the executable form of that document. In one line:
//! newline-delimited UTF-8 text, one request per line, responses tagged by
//! their first token (`META` / `ROW` / `OK` / `ERR` / `PONG` / `BYE`), with
//! tab-separated `ROW` fields escaped so values round-trip byte-exactly.

#![deny(missing_docs)]

use std::fmt;

/// Protocol version. Servers greet connections with `HELLO <version>`;
/// clients refuse to talk to a version they do not understand.
pub const PROTOCOL_VERSION: u32 = 1;

/// Hard cap on one request or response line, in bytes (newline included).
/// Longer lines are a protocol error: the server replies `ERR PROTO` and
/// closes the connection rather than buffering without bound.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// The NULL field marker inside `ROW` lines (Postgres `COPY` convention).
pub const NULL_FIELD: &str = "\\N";

/// Stable machine-readable error codes carried on `ERR` lines.
///
/// Codes are part of the protocol: clients branch on them (e.g. retry on
/// [`ErrorCode::Overloaded`], send `ROLLBACK` on [`ErrorCode::TxnAborted`])
/// and must never need to parse the human-readable message that follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorCode {
    /// The statement could not be parsed, bound or planned.
    Sql,
    /// The statement failed during execution (storage, expression
    /// evaluation, lock timeout, …).
    Exec,
    /// The session's transaction was aborted server-side; every statement
    /// is refused until the client acknowledges with `COMMIT`/`ROLLBACK`.
    TxnAborted,
    /// The statement writes inside a `BEGIN READ ONLY` transaction; only
    /// reads are allowed until `COMMIT`/`ROLLBACK`.
    ReadOnly,
    /// The server shed the request (admission queue or connection limit).
    Overloaded,
    /// The server is shutting down.
    Shutdown,
    /// Unknown prepared-statement name.
    UnknownPrepared,
    /// The request line violated the wire protocol itself.
    Proto,
    /// The statement writes on a read-only replica. Replicas apply shipped
    /// WAL from their primary and refuse all local writes; retry the
    /// statement against the primary.
    ReadOnlyReplica,
}

impl ErrorCode {
    /// The code's wire spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            ErrorCode::Sql => "SQL",
            ErrorCode::Exec => "EXEC",
            ErrorCode::TxnAborted => "TXN_ABORTED",
            ErrorCode::ReadOnly => "READ_ONLY",
            ErrorCode::Overloaded => "OVERLOADED",
            ErrorCode::Shutdown => "SHUTDOWN",
            ErrorCode::UnknownPrepared => "UNKNOWN_PREPARED",
            ErrorCode::Proto => "PROTO",
            ErrorCode::ReadOnlyReplica => "READ_ONLY_REPLICA",
        }
    }

    /// Parse a wire spelling back into a code.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "SQL" => ErrorCode::Sql,
            "EXEC" => ErrorCode::Exec,
            "TXN_ABORTED" => ErrorCode::TxnAborted,
            "READ_ONLY" => ErrorCode::ReadOnly,
            "OVERLOADED" => ErrorCode::Overloaded,
            "SHUTDOWN" => ErrorCode::Shutdown,
            "UNKNOWN_PREPARED" => ErrorCode::UnknownPrepared,
            "PROTO" => ErrorCode::Proto,
            "READ_ONLY_REPLICA" => ErrorCode::ReadOnlyReplica,
            _ => return None,
        })
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// `PING` — liveness probe, answered `PONG` by the network layer
    /// without entering the statement pipeline.
    Ping,
    /// `QUIT` — orderly goodbye; the server answers `BYE` and closes.
    Quit,
    /// `STATS` — per-stage monitor snapshot as a result set.
    Stats,
    /// `QUERY <sql>` (or the `BEGIN`/`COMMIT`/`ROLLBACK`/`CHECKPOINT`
    /// shorthands) — run one SQL statement under the connection's session.
    Query(String),
    /// `REPLICATE <segment:offset>` — turn this connection into a WAL
    /// shipping feed. The server streams `WALREC` lines for every
    /// committed record at or above the given LSN, punctuated by `WALEOF`
    /// watermarks; the client sends `ACK <lsn>` lines upstream. The
    /// connection never returns to request/response framing.
    Replicate {
        /// Resume segment (the replica's durable applied LSN).
        segment: u64,
        /// Resume offset within the segment.
        offset: u64,
    },
    /// `SUBSCRIBE <table> [WHERE <predicate>]` — turn this connection into
    /// a change feed: after the `OK`, every transaction that commits a
    /// change to `table` (optionally filtered by the predicate) is streamed
    /// as `CHANGE` lines, in commit order, whole transactions at a time.
    /// Only `UNSUBSCRIBE`, `PING` and `QUIT` are accepted while subscribed.
    Subscribe {
        /// The table to watch.
        table: String,
        /// Optional `WHERE` predicate source text (without the keyword),
        /// bound against the table's columns server-side.
        predicate: Option<String>,
    },
    /// `UNSUBSCRIBE` — end the connection's change feed and return to
    /// request/response framing. Answered `OK UNSUBSCRIBE`; `CHANGE` lines
    /// already in flight may still arrive before the `OK`.
    Unsubscribe,
}

/// Parse one request line into a [`Command`].
///
/// The command word is case-insensitive; everything after `QUERY ` is the
/// SQL text, verbatim. `BEGIN`, `BEGIN READ ONLY`, `COMMIT`, `ROLLBACK` and
/// `CHECKPOINT` are accepted as bare commands and normalised to the
/// equivalent `QUERY`;
/// `READ ONLY` is the only argument `BEGIN` accepts.
///
/// ```
/// use staged_wire::{parse_command, Command};
/// assert_eq!(parse_command("PING").unwrap(), Command::Ping);
/// assert_eq!(
///     parse_command("query SELECT 1 + 1").unwrap(),
///     Command::Query("SELECT 1 + 1".into())
/// );
/// assert_eq!(parse_command("BEGIN").unwrap(), Command::Query("BEGIN".into()));
/// assert!(parse_command("FLY me to the moon").is_err());
/// ```
pub fn parse_command(line: &str) -> Result<Command, String> {
    let line = line.trim_end_matches(['\r', '\n']);
    let (word, rest) = match line.find(char::is_whitespace) {
        Some(i) => (&line[..i], line[i + 1..].trim_start()),
        None => (line, ""),
    };
    let upper = word.to_ascii_uppercase();
    match upper.as_str() {
        "BEGIN" if rest.eq_ignore_ascii_case("READ ONLY") => {
            Ok(Command::Query("BEGIN READ ONLY".into()))
        }
        "PING" | "QUIT" | "STATS" | "CHECKPOINT" | "BEGIN" | "COMMIT" | "ROLLBACK"
            if !rest.is_empty() =>
        {
            Err(format!("{upper} takes no argument"))
        }
        "PING" => Ok(Command::Ping),
        "QUIT" => Ok(Command::Quit),
        "STATS" => Ok(Command::Stats),
        "BEGIN" | "COMMIT" | "ROLLBACK" | "CHECKPOINT" => Ok(Command::Query(upper)),
        "QUERY" if rest.is_empty() => Err("QUERY requires a SQL statement".into()),
        "QUERY" => Ok(Command::Query(rest.to_string())),
        "REPLICATE" if rest.is_empty() => {
            Err("REPLICATE requires a from-LSN (segment:offset)".into())
        }
        "REPLICATE" => {
            let (segment, offset) = parse_lsn(rest)?;
            Ok(Command::Replicate { segment, offset })
        }
        "SUBSCRIBE" if rest.is_empty() => Err("SUBSCRIBE requires a table name".into()),
        "SUBSCRIBE" => {
            let (table, tail) = match rest.find(char::is_whitespace) {
                Some(i) => (&rest[..i], rest[i + 1..].trim_start()),
                None => (rest, ""),
            };
            if tail.is_empty() {
                return Ok(Command::Subscribe { table: table.to_string(), predicate: None });
            }
            let (kw, pred) = match tail.find(char::is_whitespace) {
                Some(i) => (&tail[..i], tail[i + 1..].trim_start()),
                None => (tail, ""),
            };
            if !kw.eq_ignore_ascii_case("WHERE") || pred.is_empty() {
                return Err("SUBSCRIBE takes a table name and an optional WHERE clause".into());
            }
            Ok(Command::Subscribe { table: table.to_string(), predicate: Some(pred.to_string()) })
        }
        "UNSUBSCRIBE" if !rest.is_empty() => Err("UNSUBSCRIBE takes no argument".into()),
        "UNSUBSCRIBE" => Ok(Command::Unsubscribe),
        "" => Err("empty command".into()),
        other => Err(format!("unknown command {other}")),
    }
}

/// Escape one `ROW` field so tabs, newlines and backslashes in the value
/// survive line-based framing. The inverse is [`unescape_field`].
pub fn escape_field(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for c in raw.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

/// Undo [`escape_field`]. Unknown escapes are a protocol error.
pub fn unescape_field(wire: &str) -> Result<String, String> {
    let mut out = String::with_capacity(wire.len());
    let mut chars = wire.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some(other) => return Err(format!("bad escape \\{other}")),
            None => return Err("dangling backslash".into()),
        }
    }
    Ok(out)
}

/// Escape the free-text trailer of `OK`/`ERR` lines (newlines only; tabs
/// are fine inside a message). The inverse is [`unescape_message`].
pub fn escape_message(raw: &str) -> String {
    raw.replace('\\', "\\\\").replace('\n', "\\n").replace('\r', "\\r")
}

/// Undo [`escape_message`]. Lenient where [`unescape_field`] is strict:
/// an unrecognised escape passes through verbatim, because a mangled
/// human-readable trailer must never stop a client from surfacing the
/// error it decorates.
pub fn unescape_message(wire: &str) -> String {
    let mut out = String::with_capacity(wire.len());
    let mut chars = wire.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

/// Format an LSN for the wire: `segment:offset` (matches the storage
/// crate's `Lsn` display form, so both sides print the same spelling).
pub fn format_lsn(segment: u64, offset: u64) -> String {
    format!("{segment}:{offset}")
}

/// Parse a wire LSN (`segment:offset`) into its two parts.
pub fn parse_lsn(s: &str) -> Result<(u64, u64), String> {
    let (seg, off) = s.split_once(':').ok_or_else(|| format!("bad LSN {s:?} (want seg:off)"))?;
    let segment = seg.parse::<u64>().map_err(|_| format!("bad LSN segment {seg:?}"))?;
    let offset = off.parse::<u64>().map_err(|_| format!("bad LSN offset {off:?}"))?;
    Ok((segment, offset))
}

const BASE64_ALPHABET: &[u8; 64] =
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Standard base64 (RFC 4648, `=` padded). WAL record payloads are binary;
/// base64 keeps `WALREC` lines inside the protocol's printable-text,
/// newline-delimited framing without escaping games.
pub fn base64_encode(data: &[u8]) -> String {
    let mut out = String::with_capacity(data.len().div_ceil(3) * 4);
    for chunk in data.chunks(3) {
        let b = [chunk[0], *chunk.get(1).unwrap_or(&0), *chunk.get(2).unwrap_or(&0)];
        let n = u32::from(b[0]) << 16 | u32::from(b[1]) << 8 | u32::from(b[2]);
        out.push(BASE64_ALPHABET[(n >> 18) as usize & 63] as char);
        out.push(BASE64_ALPHABET[(n >> 12) as usize & 63] as char);
        out.push(if chunk.len() > 1 {
            BASE64_ALPHABET[(n >> 6) as usize & 63] as char
        } else {
            '='
        });
        out.push(if chunk.len() > 2 { BASE64_ALPHABET[n as usize & 63] as char } else { '=' });
    }
    out
}

/// Undo [`base64_encode`]. Rejects bad characters, bad length and
/// misplaced padding — a corrupted `WALREC` payload must fail loudly, not
/// decode to garbage bytes.
pub fn base64_decode(s: &str) -> Result<Vec<u8>, String> {
    let bytes = s.as_bytes();
    if !bytes.len().is_multiple_of(4) {
        return Err(format!("base64 length {} not a multiple of 4", bytes.len()));
    }
    let mut out = Vec::with_capacity(bytes.len() / 4 * 3);
    for (i, chunk) in bytes.chunks(4).enumerate() {
        let last = (i + 1) * 4 == bytes.len();
        let pad = chunk.iter().rev().take_while(|&&c| c == b'=').count();
        if pad > 2 || (pad > 0 && !last) {
            return Err("misplaced base64 padding".into());
        }
        let mut n = 0u32;
        for &c in &chunk[..4 - pad] {
            let v = match c {
                b'A'..=b'Z' => c - b'A',
                b'a'..=b'z' => c - b'a' + 26,
                b'0'..=b'9' => c - b'0' + 52,
                b'+' => 62,
                b'/' => 63,
                _ => return Err(format!("bad base64 byte {c:#04x}")),
            };
            n = n << 6 | u32::from(v);
        }
        n <<= 6 * pad as u32;
        out.push((n >> 16) as u8);
        if pad < 2 {
            out.push((n >> 8) as u8);
        }
        if pad < 1 {
            out.push(n as u8);
        }
    }
    Ok(out)
}

/// One downstream frame of the replication feed (primary → replica).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplFrame {
    /// `WALREC <lsn> <base64-payload>` — one WAL record at that LSN.
    Record {
        /// Segment part of the record's LSN.
        segment: u64,
        /// Offset part of the record's LSN.
        offset: u64,
        /// The record's encoded bytes (see `LogRecord::to_bytes`).
        payload: Vec<u8>,
    },
    /// `WALEOF <lsn>` — watermark: everything below `lsn` has been
    /// shipped; the feed is idle until the next commit.
    Eof {
        /// Segment part of the watermark LSN.
        segment: u64,
        /// Offset part of the watermark LSN.
        offset: u64,
    },
}

/// Build a `WALREC` line (no trailing newline).
pub fn encode_walrec(segment: u64, offset: u64, payload: &[u8]) -> String {
    format!("WALREC {} {}", format_lsn(segment, offset), base64_encode(payload))
}

/// Build a `WALEOF` watermark line (no trailing newline).
pub fn encode_waleof(segment: u64, offset: u64) -> String {
    format!("WALEOF {}", format_lsn(segment, offset))
}

/// Build the upstream `ACK` line a replica sends once records at or below
/// the LSN are durable and applied (no trailing newline).
pub fn encode_ack(segment: u64, offset: u64) -> String {
    format!("ACK {}", format_lsn(segment, offset))
}

/// Parse the LSN out of an upstream `ACK` line.
pub fn parse_ack(line: &str) -> Result<(u64, u64), String> {
    let rest = line
        .trim_end_matches(['\r', '\n'])
        .strip_prefix("ACK ")
        .ok_or_else(|| format!("expected ACK line, got {line:?}"))?;
    parse_lsn(rest.trim())
}

/// The kind of row change a `CHANGE` line carries. An SQL `UPDATE`
/// surfaces as a `DELETE` of the old row followed by an `INSERT` of the
/// new one, mirroring how the storage layer logs it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChangeOp {
    /// A row was inserted.
    Insert,
    /// A row was deleted.
    Delete,
}

impl ChangeOp {
    /// The op's wire spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            ChangeOp::Insert => "INSERT",
            ChangeOp::Delete => "DELETE",
        }
    }

    /// Parse a wire spelling back into an op.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "INSERT" => Some(ChangeOp::Insert),
            "DELETE" => Some(ChangeOp::Delete),
            _ => None,
        }
    }
}

impl fmt::Display for ChangeOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One parsed `CHANGE` line of a subscription feed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Change {
    /// The table the change happened in.
    pub table: String,
    /// Whether the row was inserted or deleted.
    pub op: ChangeOp,
    /// The row's fields, decoded; `None` is SQL NULL. Fields use the same
    /// encoding as `ROW` result lines.
    pub fields: Vec<Option<String>>,
}

/// Build a `CHANGE <table> <op> <fields…>` line (no trailing newline).
/// Fields are tab-separated and escaped exactly like `ROW` result fields;
/// `None` encodes as the NULL marker.
pub fn encode_change(table: &str, op: ChangeOp, fields: &[Option<String>]) -> String {
    let mut out = format!("CHANGE {table} {op}");
    for f in fields {
        out.push('\t');
        match f {
            Some(v) => out.push_str(&escape_field(v)),
            None => out.push_str(NULL_FIELD),
        }
    }
    out
}

/// Parse one subscription-feed `CHANGE` line built by [`encode_change`].
pub fn parse_change(line: &str) -> Result<Change, String> {
    let line = line.trim_end_matches(['\r', '\n']);
    let rest = line
        .strip_prefix("CHANGE ")
        .ok_or_else(|| format!("expected CHANGE line, got {line:?}"))?;
    // Header is space-separated up to the first tab; fields follow.
    let (header, tail) = match rest.find('\t') {
        Some(i) => (&rest[..i], Some(&rest[i + 1..])),
        None => (rest, None),
    };
    let (table, op_word) =
        header.split_once(' ').ok_or_else(|| format!("bad CHANGE header {header:?}"))?;
    let op = ChangeOp::parse(op_word.trim()).ok_or_else(|| format!("bad CHANGE op {op_word:?}"))?;
    let mut fields = Vec::new();
    if let Some(tail) = tail {
        for f in tail.split('\t') {
            if f == NULL_FIELD {
                fields.push(None);
            } else {
                fields.push(Some(unescape_field(f)?));
            }
        }
    }
    Ok(Change { table: table.to_string(), op, fields })
}

/// Parse one downstream replication-feed line into a [`ReplFrame`].
pub fn parse_repl_frame(line: &str) -> Result<ReplFrame, String> {
    let line = line.trim_end_matches(['\r', '\n']);
    if let Some(rest) = line.strip_prefix("WALREC ") {
        let (lsn, b64) = rest.split_once(' ').ok_or_else(|| format!("bad WALREC line {line:?}"))?;
        let (segment, offset) = parse_lsn(lsn)?;
        let payload = base64_decode(b64)?;
        Ok(ReplFrame::Record { segment, offset, payload })
    } else if let Some(rest) = line.strip_prefix("WALEOF ") {
        let (segment, offset) = parse_lsn(rest.trim())?;
        Ok(ReplFrame::Eof { segment, offset })
    } else {
        Err(format!("unexpected replication frame {line:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commands_parse_case_insensitively() {
        assert_eq!(parse_command("ping\r\n").unwrap(), Command::Ping);
        assert_eq!(parse_command("Quit").unwrap(), Command::Quit);
        assert_eq!(parse_command("stats").unwrap(), Command::Stats);
        assert_eq!(parse_command("checkpoint").unwrap(), Command::Query("CHECKPOINT".into()));
        assert_eq!(parse_command("commit").unwrap(), Command::Query("COMMIT".into()));
        assert_eq!(
            parse_command("begin read only").unwrap(),
            Command::Query("BEGIN READ ONLY".into())
        );
        assert_eq!(
            parse_command("QUERY SELECT * FROM t").unwrap(),
            Command::Query("SELECT * FROM t".into())
        );
        assert_eq!(
            parse_command("replicate 3:128").unwrap(),
            Command::Replicate { segment: 3, offset: 128 }
        );
    }

    #[test]
    fn malformed_commands_are_rejected() {
        assert!(parse_command("").is_err());
        assert!(parse_command("QUERY").is_err());
        assert!(parse_command("PING now").is_err());
        assert!(parse_command("CHECKPOINT now").is_err());
        assert!(parse_command("BEGIN work").is_err());
        assert!(parse_command("BEGIN READ").is_err());
        assert!(parse_command("EXPLODE").is_err());
        assert!(parse_command("REPLICATE").is_err());
        assert!(parse_command("REPLICATE soon").is_err());
        assert!(parse_command("REPLICATE 1:2:3").is_err());
    }

    #[test]
    fn base64_round_trips() {
        let cases: &[&[u8]] =
            &[b"", b"f", b"fo", b"foo", b"foob", b"fooba", b"foobar", b"\x00\xff"];
        for raw in cases {
            let enc = base64_encode(raw);
            assert_eq!(base64_decode(&enc).unwrap(), *raw, "case {raw:?}");
        }
        // Known vectors (RFC 4648 §10).
        assert_eq!(base64_encode(b"foobar"), "Zm9vYmFy");
        assert_eq!(base64_encode(b"foob"), "Zm9vYg==");
        // Every byte value survives.
        let all: Vec<u8> = (0..=255u8).collect();
        assert_eq!(base64_decode(&base64_encode(&all)).unwrap(), all);
    }

    #[test]
    fn bad_base64_is_rejected() {
        assert!(base64_decode("abc").is_err()); // length not 4k
        assert!(base64_decode("ab=c").is_err()); // padding inside a chunk
        assert!(base64_decode("a===").is_err()); // too much padding
        assert!(base64_decode("Zm9v YQ==").is_err()); // bad byte
        assert!(base64_decode("Zm==AAAA").is_err()); // padding not in last chunk
    }

    #[test]
    fn repl_frames_round_trip() {
        let rec = encode_walrec(2, 4096, b"\x01\x02\xff");
        assert_eq!(
            parse_repl_frame(&rec).unwrap(),
            ReplFrame::Record { segment: 2, offset: 4096, payload: vec![1, 2, 255] }
        );
        let eof = encode_waleof(7, 0);
        assert_eq!(parse_repl_frame(&eof).unwrap(), ReplFrame::Eof { segment: 7, offset: 0 });
        assert_eq!(parse_ack(&encode_ack(7, 8)).unwrap(), (7, 8));
        assert!(parse_repl_frame("WALREC 1:2").is_err());
        assert!(parse_repl_frame("NOPE 1:2").is_err());
        assert!(parse_ack("WALEOF 1:2").is_err());
        assert_eq!(parse_lsn(&format_lsn(9, 10)).unwrap(), (9, 10));
        assert!(parse_lsn("9").is_err());
        assert!(parse_lsn("a:b").is_err());
    }

    #[test]
    fn subscribe_commands_parse() {
        assert_eq!(
            parse_command("SUBSCRIBE accounts").unwrap(),
            Command::Subscribe { table: "accounts".into(), predicate: None }
        );
        assert_eq!(
            parse_command("subscribe accounts where bal > 100 AND id < 7").unwrap(),
            Command::Subscribe {
                table: "accounts".into(),
                predicate: Some("bal > 100 AND id < 7".into())
            }
        );
        assert_eq!(parse_command("UNSUBSCRIBE").unwrap(), Command::Unsubscribe);
        assert!(parse_command("SUBSCRIBE").is_err());
        assert!(parse_command("SUBSCRIBE t WHERE").is_err());
        assert!(parse_command("SUBSCRIBE t HAVING x").is_err());
        assert!(parse_command("UNSUBSCRIBE t").is_err());
    }

    #[test]
    fn change_lines_round_trip() {
        let line = encode_change(
            "accounts",
            ChangeOp::Insert,
            &[Some("1".into()), None, Some("tab\there".into())],
        );
        assert_eq!(line, "CHANGE accounts INSERT\t1\t\\N\ttab\\there");
        assert_eq!(
            parse_change(&line).unwrap(),
            Change {
                table: "accounts".into(),
                op: ChangeOp::Insert,
                fields: vec![Some("1".into()), None, Some("tab\there".into())],
            }
        );
        // Zero-column rows keep the header-only form.
        let bare = encode_change("t", ChangeOp::Delete, &[]);
        assert_eq!(parse_change(&bare).unwrap().fields, Vec::<Option<String>>::new());
        assert!(parse_change("ROW 1").is_err());
        assert!(parse_change("CHANGE accounts UPSERT\t1").is_err());
        assert!(parse_change("CHANGE accounts").is_err());
        for op in [ChangeOp::Insert, ChangeOp::Delete] {
            assert_eq!(ChangeOp::parse(op.as_str()), Some(op));
        }
        assert_eq!(ChangeOp::parse("MERGE"), None);
    }

    #[test]
    fn field_escaping_round_trips() {
        for raw in ["", "plain", "tab\there", "nl\nthere", "back\\slash", "\r\n\t\\", "\\N"] {
            let wire = escape_field(raw);
            assert_eq!(unescape_field(&wire).unwrap(), raw);
        }
    }

    #[test]
    fn escaped_fields_never_contain_framing_bytes() {
        for raw in ["tab\there", "nl\nthere", "cr\rthere"] {
            let wire = escape_field(raw);
            assert!(!wire.contains('\t'));
            assert!(!wire.contains('\n'));
            assert!(!wire.contains('\r'));
        }
    }

    #[test]
    fn bad_escapes_are_errors() {
        assert!(unescape_field("\\x").is_err());
        assert!(unescape_field("trailing\\").is_err());
    }

    #[test]
    fn message_escaping_round_trips() {
        for raw in ["plain", "two\nlines", "back\\slash", "cr\rhere", "tab\tstays", ""] {
            assert_eq!(unescape_message(&escape_message(raw)), raw);
        }
        // Lenient decoding: unknown escapes pass through, never error.
        assert_eq!(unescape_message("odd \\x end\\"), "odd \\x end\\");
    }

    #[test]
    fn error_codes_round_trip() {
        for code in [
            ErrorCode::Sql,
            ErrorCode::Exec,
            ErrorCode::TxnAborted,
            ErrorCode::ReadOnly,
            ErrorCode::Overloaded,
            ErrorCode::Shutdown,
            ErrorCode::UnknownPrepared,
            ErrorCode::Proto,
            ErrorCode::ReadOnlyReplica,
        ] {
            assert_eq!(ErrorCode::parse(code.as_str()), Some(code));
        }
        assert_eq!(ErrorCode::parse("NOPE"), None);
    }
}
