//! Write-ahead log: LSN-addressed, checksummed, segmented.
//!
//! This is the "I/O needed for logging purposes" that makes the paper's
//! Workload B touch the disk at all (§3.1.1) — grown up into something a
//! long-running service can survive on:
//!
//! - The log is a chain of **segments** (see [`crate::segment`]), each a
//!   page store of up to [`Wal::segment_pages`] pages (a soft cap: a record
//!   never spans segments, so the last page group of a segment may run
//!   over). Sealed segments are immutable; checkpoint truncation deletes
//!   whole segment files below the checkpoint LSN.
//! - An [`Lsn`] is a **real address**: segment id + byte offset of the
//!   record's first fragment header. Lexicographic order is log order, and
//!   a replica or recovery pass can resume from any LSN it was handed.
//! - Every WAL page carries an 8-byte header: a CRC-32 over the rest of
//!   the page, the `used` payload length, and two reserved bytes. The tail
//!   page is rewritten in place as records accumulate, so a crash can tear
//!   it; the checksum turns that tear into a detected **end of log**
//!   instead of garbage decoded as records.
//! - Records are framed as **fragments** (`u32` header: high bit = "more
//!   fragments follow", low 31 bits = payload length), so a record larger
//!   than a page spans pages within its segment instead of aborting the
//!   transaction with `RecordTooLarge`.
//!
//! Durability: `Commit` forces [`Wal::flush`], which writes the tail page
//! and issues [`DiskManager::sync`] — the atomic commit point. A
//! transaction's effects are replayed at recovery iff its `Commit` record
//! reached stable storage.
//!
//! Reading back comes in two strengths. The strict readers
//! ([`Wal::read_all`], [`Wal::read_from`]) error with
//! [`StorageError::Corrupt`] — never panic — on any damage. The tolerant
//! readers ([`Wal::read_store`], [`Wal::read_store_from`]) return the
//! longest valid prefix plus an optional
//! error, which is what recovery wants: a torn tail is silently the end of
//! the log, while corruption *in front of* valid data is reported.
//! Recovery code must use the static store readers **before**
//! [`Wal::open`], because open repairs the tail (zeroing everything past
//! the valid prefix) and thereby destroys the evidence.

use crate::disk::{DiskManager, IoStats};
use crate::error::{StorageError, StorageResult};
use crate::page::{PageId, PAGE_SIZE};
use crate::segment::{MemSegmentStore, SegmentStore};
use crate::tuple::Rid;
use parking_lot::Mutex;
use std::sync::Arc;

/// Bytes of page header: CRC-32 (4) + `used` length (2) + reserved (2).
const PAGE_HEADER: usize = 8;
/// Bytes of fragment header: one little-endian `u32`.
const FRAG_HEADER: usize = 4;
/// High bit of a fragment header: more fragments of this record follow.
const MORE_FLAG: u32 = 1 << 31;

/// Default segment size in pages (2 MiB of log at 8 KiB pages).
pub const DEFAULT_SEGMENT_PAGES: u64 = 256;

/// Log sequence number: a real log address. `segment` is the segment id,
/// `offset` the byte offset of the record's first fragment header within
/// that segment. Lexicographic order is log order because segment ids are
/// assigned monotonically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lsn {
    /// Segment the record lives in.
    pub segment: u64,
    /// Byte offset within the segment.
    pub offset: u64,
}

impl Lsn {
    /// The zero address: before every record ever written.
    pub const ZERO: Lsn = Lsn { segment: 0, offset: 0 };
}

impl std::fmt::Display for Lsn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.segment, self.offset)
    }
}

const fn build_crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = build_crc32_table();

/// CRC-32 (IEEE polynomial) of `bytes` — the page checksum used by the WAL
/// and the snapshot format.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// A log record.
#[derive(Debug, Clone, PartialEq)]
pub enum LogRecord {
    /// Transaction start.
    Begin {
        /// Transaction id.
        xid: u64,
    },
    /// Tuple inserted.
    Insert {
        /// Transaction id.
        xid: u64,
        /// Table the tuple went into.
        table: u32,
        /// Where it landed.
        rid: Rid,
        /// Encoded tuple.
        bytes: Vec<u8>,
    },
    /// Tuple deleted. Carries the *before-image* of the deleted row so the
    /// transaction layer can undo the delete on `ROLLBACK` (and so the log
    /// is self-describing about what each transaction destroyed).
    Delete {
        /// Transaction id.
        xid: u64,
        /// Table it was removed from.
        table: u32,
        /// Where it was.
        rid: Rid,
        /// Encoded before-image of the deleted tuple.
        before: Vec<u8>,
    },
    /// Transaction committed (forces a flush — the atomic commit point:
    /// a transaction's effects are replayed at recovery iff this record
    /// reached the log disk).
    Commit {
        /// Transaction id.
        xid: u64,
    },
    /// Transaction aborted (its records must be skipped by redo).
    Abort {
        /// Transaction id.
        xid: u64,
    },
}

impl LogRecord {
    /// The transaction this record belongs to.
    pub fn xid(&self) -> u64 {
        match self {
            LogRecord::Begin { xid }
            | LogRecord::Insert { xid, .. }
            | LogRecord::Delete { xid, .. }
            | LogRecord::Commit { xid }
            | LogRecord::Abort { xid } => *xid,
        }
    }

    /// Serialize to the WAL's on-disk record layout. This is the payload
    /// format replication ships over the wire (`WALREC` lines), so a
    /// replica persists byte-identical records into its own log.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.encode()
    }

    /// Decode one record from [`to_bytes`](Self::to_bytes) output. The
    /// buffer must contain exactly one record (no trailing bytes), which
    /// is what the wire framing guarantees per `WALREC` line.
    pub fn from_bytes(buf: &[u8]) -> StorageResult<LogRecord> {
        let (record, used) = Self::decode(buf)?;
        if used != buf.len() {
            return Err(StorageError::Corrupt(format!(
                "log record used {used} of {} bytes",
                buf.len()
            )));
        }
        Ok(record)
    }
}

impl LogRecord {
    fn encode(&self) -> Vec<u8> {
        let mut b = Vec::new();
        match self {
            LogRecord::Begin { xid } => {
                b.push(1);
                b.extend_from_slice(&xid.to_le_bytes());
            }
            LogRecord::Insert { xid, table, rid, bytes } => {
                b.push(2);
                b.extend_from_slice(&xid.to_le_bytes());
                b.extend_from_slice(&table.to_le_bytes());
                b.extend_from_slice(&rid.page.0.to_le_bytes());
                b.extend_from_slice(&rid.slot.to_le_bytes());
                b.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
                b.extend_from_slice(bytes);
            }
            LogRecord::Delete { xid, table, rid, before } => {
                b.push(3);
                b.extend_from_slice(&xid.to_le_bytes());
                b.extend_from_slice(&table.to_le_bytes());
                b.extend_from_slice(&rid.page.0.to_le_bytes());
                b.extend_from_slice(&rid.slot.to_le_bytes());
                b.extend_from_slice(&(before.len() as u32).to_le_bytes());
                b.extend_from_slice(before);
            }
            LogRecord::Commit { xid } => {
                b.push(4);
                b.extend_from_slice(&xid.to_le_bytes());
            }
            LogRecord::Abort { xid } => {
                b.push(5);
                b.extend_from_slice(&xid.to_le_bytes());
            }
        }
        b
    }

    fn decode(buf: &[u8]) -> StorageResult<(LogRecord, usize)> {
        let corrupt = || StorageError::Corrupt("truncated log record".into());
        let tag = *buf.first().ok_or_else(corrupt)?;
        let u64_at = |off: usize| -> StorageResult<u64> {
            buf.get(off..off + 8)
                .map(|s| u64::from_le_bytes(s.try_into().unwrap()))
                .ok_or_else(corrupt)
        };
        let u32_at = |off: usize| -> StorageResult<u32> {
            buf.get(off..off + 4)
                .map(|s| u32::from_le_bytes(s.try_into().unwrap()))
                .ok_or_else(corrupt)
        };
        let u16_at = |off: usize| -> StorageResult<u16> {
            buf.get(off..off + 2)
                .map(|s| u16::from_le_bytes(s.try_into().unwrap()))
                .ok_or_else(corrupt)
        };
        match tag {
            1 => Ok((LogRecord::Begin { xid: u64_at(1)? }, 9)),
            2 => {
                let xid = u64_at(1)?;
                let table = u32_at(9)?;
                let page = u64_at(13)?;
                let slot = u16_at(21)?;
                let len = u32_at(23)? as usize;
                let bytes = buf.get(27..27 + len).ok_or_else(corrupt)?.to_vec();
                Ok((
                    LogRecord::Insert { xid, table, rid: Rid::new(PageId(page), slot), bytes },
                    27 + len,
                ))
            }
            3 => {
                let xid = u64_at(1)?;
                let table = u32_at(9)?;
                let page = u64_at(13)?;
                let slot = u16_at(21)?;
                let len = u32_at(23)? as usize;
                let before = buf.get(27..27 + len).ok_or_else(corrupt)?.to_vec();
                Ok((
                    LogRecord::Delete { xid, table, rid: Rid::new(PageId(page), slot), before },
                    27 + len,
                ))
            }
            4 => Ok((LogRecord::Commit { xid: u64_at(1)? }, 9)),
            5 => Ok((LogRecord::Abort { xid: u64_at(1)? }, 9)),
            t => Err(StorageError::Corrupt(format!("unknown log tag {t}"))),
        }
    }
}

struct WalInner {
    /// Current segment id.
    seg_id: u64,
    /// Page store of the current segment.
    disk: Arc<dyn DiskManager>,
    /// Index of the tail page within the current segment.
    page_idx: u64,
    /// Tail page buffer (header recomputed on every write-out).
    buf: Box<[u8; PAGE_SIZE]>,
    /// Bytes of `buf` in use, page header included (so always ≥ 8).
    used: usize,
    /// Address one past the last appended record.
    next: Lsn,
    /// Address up to which the log is durable.
    flushed: Lsn,
    /// Un-synced bytes exist (tail content or closed-but-unsynced pages).
    dirty: bool,
}

impl WalInner {
    fn tail_offset(&self) -> u64 {
        self.page_idx * PAGE_SIZE as u64 + self.used as u64
    }

    /// Write the tail page out (checksummed), without a sync.
    fn write_tail(&mut self) -> StorageResult<()> {
        let used = self.used as u16;
        self.buf[4..6].copy_from_slice(&used.to_le_bytes());
        self.buf[6..8].fill(0);
        let crc = crc32(&self.buf[4..]);
        self.buf[0..4].copy_from_slice(&crc.to_le_bytes());
        while self.disk.num_pages() <= self.page_idx {
            self.disk.allocate(0)?;
        }
        self.disk.write_page(PageId(self.page_idx), &self.buf[..])
    }

    /// Seal the tail page and start a fresh one after it.
    fn close_page(&mut self) -> StorageResult<()> {
        self.write_tail()?;
        self.page_idx += 1;
        self.buf.fill(0);
        self.used = PAGE_HEADER;
        Ok(())
    }

    /// Make everything appended so far durable: write the tail page if it
    /// holds payload, then issue the sync barrier.
    fn flush(&mut self) -> StorageResult<()> {
        if !self.dirty {
            return Ok(());
        }
        if self.used > PAGE_HEADER {
            self.write_tail()?;
        }
        self.disk.sync()?;
        self.flushed = self.next;
        self.dirty = false;
        Ok(())
    }
}

/// The write-ahead log over a segment store.
pub struct Wal {
    store: Arc<dyn SegmentStore>,
    segment_pages: u64,
    inner: Mutex<WalInner>,
}

/// Result of scanning one segment for records.
struct SegScan {
    /// `(offset, record)` for every complete, decodable record.
    records: Vec<(u64, LogRecord)>,
    /// Offset one past the last complete record (the valid prefix end).
    end: u64,
    /// Damage found in front of the prefix end, if any. `None` with a
    /// shortened prefix means a clean torn tail (end of log).
    error: Option<StorageError>,
}

/// Scan a segment page by page, stopping at the first structural problem.
/// `is_final` relaxes the rules for the segment the writer was last
/// appending to: a checksum-failing page with nothing valid after it, or a
/// fragment chain left dangling at the very end, is a crash artifact — the
/// end of the log — not corruption.
fn scan_segment(disk: &dyn DiskManager, is_final: bool) -> SegScan {
    let corrupt = |msg: &str| Some(StorageError::Corrupt(msg.into()));
    let num_pages = disk.num_pages();
    let mut records = Vec::new();
    let mut end = PAGE_HEADER as u64;
    let mut buf = [0u8; PAGE_SIZE];
    let mut chain: Vec<u8> = Vec::new();
    let mut chain_start: Option<u64> = None;
    for p in 0..num_pages {
        if let Err(e) = disk.read_page(PageId(p), &mut buf) {
            return SegScan { records, end, error: Some(e) };
        }
        let stored = u32::from_le_bytes(buf[0..4].try_into().unwrap());
        if crc32(&buf[4..]) != stored {
            if !is_final {
                let error = corrupt("wal page checksum mismatch in sealed segment");
                return SegScan { records, end, error };
            }
            // A torn tail is only "end of log" if nothing valid follows it;
            // a bad page sitting in front of good ones is real corruption.
            let mut later = [0u8; PAGE_SIZE];
            for q in p + 1..num_pages {
                let valid = disk.read_page(PageId(q), &mut later).is_ok()
                    && crc32(&later[4..]) == u32::from_le_bytes(later[0..4].try_into().unwrap());
                if valid {
                    let error = corrupt("wal page checksum mismatch before valid pages");
                    return SegScan { records, end, error };
                }
            }
            return SegScan { records, end, error: None };
        }
        let used = u16::from_le_bytes([buf[4], buf[5]]) as usize;
        if !(PAGE_HEADER..=PAGE_SIZE).contains(&used) {
            return SegScan { records, end, error: corrupt("wal page `used` out of range") };
        }
        let mut off = PAGE_HEADER;
        while off + FRAG_HEADER <= used {
            let word = u32::from_le_bytes(buf[off..off + FRAG_HEADER].try_into().unwrap());
            let len = (word & !MORE_FLAG) as usize;
            let more = word & MORE_FLAG != 0;
            if off + FRAG_HEADER + len > used {
                let error = corrupt("wal fragment overruns page payload");
                return SegScan { records, end, error };
            }
            if chain_start.is_none() {
                chain_start = Some(p * PAGE_SIZE as u64 + off as u64);
            }
            chain.extend_from_slice(&buf[off + FRAG_HEADER..off + FRAG_HEADER + len]);
            off += FRAG_HEADER + len;
            if !more {
                match LogRecord::decode(&chain) {
                    Ok((rec, consumed)) if consumed == chain.len() => {
                        records.push((chain_start.take().unwrap(), rec));
                        chain.clear();
                        end = p * PAGE_SIZE as u64 + off as u64;
                    }
                    _ => {
                        let error = corrupt("undecodable wal record");
                        return SegScan { records, end, error };
                    }
                }
            }
        }
        if off != used {
            let error = corrupt("wal page payload not fragment-aligned");
            return SegScan { records, end, error };
        }
    }
    if chain_start.is_some() && !is_final {
        let error = corrupt("wal record chain dangling at sealed segment end");
        return SegScan { records, end, error };
    }
    SegScan { records, end, error: None }
}

impl Wal {
    /// Open (or create) a WAL over `store` with the default segment size.
    /// An existing log is scanned and the tail repaired: everything past
    /// the last complete durable record is zeroed, and appends resume
    /// right after it. Open itself never fails on tail corruption — read
    /// the store with [`Wal::read_store`] *before* opening if you need the
    /// damage report.
    pub fn open(store: Arc<dyn SegmentStore>) -> StorageResult<Self> {
        Self::open_with_segment_pages(store, DEFAULT_SEGMENT_PAGES)
    }

    /// [`open`](Self::open) with an explicit segment size in pages (the
    /// rotation threshold; a record never spans segments, so the cap is
    /// soft).
    pub fn open_with_segment_pages(
        store: Arc<dyn SegmentStore>,
        segment_pages: u64,
    ) -> StorageResult<Self> {
        assert!(segment_pages >= 1, "a segment must hold at least one page");
        let ids = store.list()?;
        let seg_id = ids.last().copied().unwrap_or(0);
        let disk = store.open(seg_id)?;
        let scan = scan_segment(disk.as_ref(), true);
        let page_idx = scan.end / PAGE_SIZE as u64;
        let in_page = (scan.end % PAGE_SIZE as u64) as usize;
        let mut buf = Box::new([0u8; PAGE_SIZE]);
        let used = if in_page > PAGE_HEADER {
            disk.read_page(PageId(page_idx), &mut buf[..])?;
            buf[in_page..].fill(0);
            in_page
        } else {
            PAGE_HEADER
        };
        // Repair: zero out every written page past the tail. Stale pages
        // from a dropped fragment chain carry valid checksums and would be
        // misread as log once new appends bridge the gap to them.
        let zero = [0u8; PAGE_SIZE];
        let total = disk.num_pages();
        let mut repaired = false;
        if used == PAGE_HEADER && page_idx < total {
            disk.write_page(PageId(page_idx), &zero)?;
            repaired = true;
        }
        for p in page_idx + 1..total {
            disk.write_page(PageId(p), &zero)?;
            repaired = true;
        }
        if repaired {
            disk.sync()?;
        }
        let next = Lsn { segment: seg_id, offset: page_idx * PAGE_SIZE as u64 + used as u64 };
        Ok(Self {
            store,
            segment_pages,
            inner: Mutex::new(WalInner {
                seg_id,
                disk,
                page_idx,
                buf,
                used,
                next,
                flushed: next,
                dirty: false,
            }),
        })
    }

    /// A fresh WAL over an in-memory segment store (tests, benches).
    pub fn in_memory() -> Self {
        Self::open(Arc::new(MemSegmentStore::new())).expect("in-memory WAL open cannot fail")
    }

    /// The segment store behind this log.
    pub fn store(&self) -> Arc<dyn SegmentStore> {
        Arc::clone(&self.store)
    }

    /// Segment size in pages (the rotation threshold).
    pub fn segment_pages(&self) -> u64 {
        self.segment_pages
    }

    /// Append a record; returns its LSN. The record is buffered — call
    /// [`flush`](Self::flush) (or append a `Commit`, which flushes
    /// implicitly) to force it to stable storage. Records of any size are
    /// accepted: one larger than a page spans pages as fragments.
    pub fn append(&self, rec: &LogRecord) -> StorageResult<Lsn> {
        let bytes = rec.encode();
        let mut inner = self.inner.lock();
        // A fragment needs its header plus at least one payload byte.
        if PAGE_SIZE - inner.used < FRAG_HEADER + 1 {
            inner.close_page()?;
        }
        // Rotate at record boundaries only, once past the soft cap.
        if inner.page_idx >= self.segment_pages {
            self.rotate_locked(&mut inner)?;
        }
        let lsn = Lsn { segment: inner.seg_id, offset: inner.tail_offset() };
        let mut rest: &[u8] = &bytes;
        loop {
            let free = PAGE_SIZE - inner.used - FRAG_HEADER;
            let take = rest.len().min(free);
            let more = take < rest.len();
            let word = take as u32 | if more { MORE_FLAG } else { 0 };
            let used = inner.used;
            inner.buf[used..used + FRAG_HEADER].copy_from_slice(&word.to_le_bytes());
            inner.buf[used + FRAG_HEADER..used + FRAG_HEADER + take].copy_from_slice(&rest[..take]);
            inner.used += FRAG_HEADER + take;
            rest = &rest[take..];
            if rest.is_empty() {
                break;
            }
            inner.close_page()?;
        }
        inner.next = Lsn { segment: inner.seg_id, offset: inner.tail_offset() };
        inner.dirty = true;
        if matches!(rec, LogRecord::Commit { .. }) {
            inner.flush()?;
        }
        Ok(lsn)
    }

    /// Force buffered records to stable storage (tail page write + sync).
    pub fn flush(&self) -> StorageResult<()> {
        self.inner.lock().flush()
    }

    fn rotate_locked(&self, inner: &mut WalInner) -> StorageResult<()> {
        inner.flush()?;
        let next_seg = inner.seg_id + 1;
        inner.disk = self.store.open(next_seg)?;
        inner.seg_id = next_seg;
        inner.page_idx = 0;
        inner.buf.fill(0);
        inner.used = PAGE_HEADER;
        inner.next = Lsn { segment: next_seg, offset: PAGE_HEADER as u64 };
        inner.flushed = inner.next;
        inner.dirty = false;
        Ok(())
    }

    /// Seal the current segment (flushing it) and start a fresh one.
    /// Returns the start address of the new segment — the natural
    /// checkpoint LSN: every record at or after it lives in the new
    /// segment, everything before it in segments that
    /// [`truncate_below`](Self::truncate_below) may delete.
    pub fn rotate(&self) -> StorageResult<Lsn> {
        let mut inner = self.inner.lock();
        self.rotate_locked(&mut inner)?;
        Ok(Lsn { segment: inner.seg_id, offset: 0 })
    }

    /// Delete every sealed segment strictly below `lsn.segment` (the
    /// current segment is never deleted). Returns how many went.
    pub fn truncate_below(&self, lsn: Lsn) -> StorageResult<u64> {
        let inner = self.inner.lock();
        let mut deleted = 0;
        for id in self.store.list()? {
            if id < lsn.segment && id < inner.seg_id {
                self.store.delete(id)?;
                deleted += 1;
            }
        }
        Ok(deleted)
    }

    /// LSN up to which records are durable.
    pub fn flushed_lsn(&self) -> Lsn {
        self.inner.lock().flushed
    }

    /// LSN one past the last appended (not necessarily durable) record.
    pub fn next_lsn(&self) -> Lsn {
        self.inner.lock().next
    }

    /// Sorted ids of the segments currently on the store.
    pub fn segments(&self) -> StorageResult<Vec<u64>> {
        self.store.list()
    }

    /// Aggregated I/O counters of the segment store (live + deleted).
    pub fn io_stats(&self) -> IoStats {
        self.store.io_stats()
    }

    /// The set of transactions with a durable `Commit` record — the
    /// transactions whose effects redo recovery is allowed to replay.
    pub fn committed_xids(&self) -> StorageResult<std::collections::HashSet<u64>> {
        let mut out = std::collections::HashSet::new();
        for (_, rec) in self.read_all()? {
            if let LogRecord::Commit { xid } = rec {
                out.insert(xid);
            }
        }
        Ok(out)
    }

    /// Strict recovery scan: flush, then read every durable record back in
    /// order. Any damage — torn pages included — is
    /// [`StorageError::Corrupt`]; this reader never panics on garbage.
    pub fn read_all(&self) -> StorageResult<Vec<(Lsn, LogRecord)>> {
        self.read_from(Lsn::ZERO)
    }

    /// Strict scan of the records at or after `from` (exclusive of
    /// anything below it; segments wholly below are not even opened).
    pub fn read_from(&self, from: Lsn) -> StorageResult<Vec<(Lsn, LogRecord)>> {
        self.flush()?;
        let (records, error) = Self::read_store_from(self.store.as_ref(), from);
        match error {
            Some(e) => Err(e),
            None => Ok(records),
        }
    }

    /// Tolerant scan of a segment store nobody has opened a [`Wal`] over
    /// yet — the recovery entry point. Returns the longest valid record
    /// prefix and the damage that ended it, if any. Use this *before*
    /// [`Wal::open`]: open repairs the tail and erases the evidence.
    pub fn read_store(store: &dyn SegmentStore) -> (Vec<(Lsn, LogRecord)>, Option<StorageError>) {
        Self::read_store_from(store, Lsn::ZERO)
    }

    /// [`read_store`](Self::read_store) starting at `from` (the checkpoint
    /// LSN): segments below `from.segment` are skipped entirely, which is
    /// what makes checkpointed recovery read only the tail.
    pub fn read_store_from(
        store: &dyn SegmentStore,
        from: Lsn,
    ) -> (Vec<(Lsn, LogRecord)>, Option<StorageError>) {
        let mut out = Vec::new();
        let ids = match store.list() {
            Ok(ids) => ids,
            Err(e) => return (out, Some(e)),
        };
        for w in ids.windows(2) {
            if w[1] != w[0] + 1 {
                let e = StorageError::Corrupt(format!("wal segment gap: {} then {}", w[0], w[1]));
                return (out, Some(e));
            }
        }
        let last = match ids.last() {
            Some(&last) => last,
            None => return (out, None),
        };
        for &id in &ids {
            if id < from.segment {
                continue;
            }
            let disk = match store.open(id) {
                Ok(d) => d,
                Err(e) => return (out, Some(e)),
            };
            let scan = scan_segment(disk.as_ref(), id == last);
            for (offset, rec) in scan.records {
                let lsn = Lsn { segment: id, offset };
                if lsn >= from {
                    out.push((lsn, rec));
                }
            }
            if scan.error.is_some() {
                return (out, scan.error);
            }
        }
        (out, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wal() -> Wal {
        Wal::in_memory()
    }

    fn mem_store() -> Arc<MemSegmentStore> {
        Arc::new(MemSegmentStore::new())
    }

    fn insert(xid: u64, bytes: Vec<u8>) -> LogRecord {
        LogRecord::Insert { xid, table: 1, rid: Rid::new(PageId(0), 0), bytes }
    }

    fn sample_records() -> Vec<LogRecord> {
        vec![
            LogRecord::Begin { xid: 1 },
            LogRecord::Insert {
                xid: 1,
                table: 3,
                rid: Rid::new(PageId(9), 4),
                bytes: vec![1, 2, 3, 4, 5],
            },
            LogRecord::Delete {
                xid: 1,
                table: 3,
                rid: Rid::new(PageId(9), 4),
                before: vec![1, 2, 3, 4, 5],
            },
            LogRecord::Commit { xid: 1 },
            LogRecord::Abort { xid: 2 },
        ]
    }

    fn records_of(back: &[(Lsn, LogRecord)]) -> Vec<LogRecord> {
        back.iter().map(|(_, r)| r.clone()).collect()
    }

    #[test]
    fn append_read_roundtrip_with_real_lsns() {
        let w = wal();
        let mut lsns = Vec::new();
        for r in sample_records() {
            lsns.push(w.append(&r).unwrap());
        }
        let back = w.read_all().unwrap();
        assert_eq!(records_of(&back), sample_records());
        let read_lsns: Vec<Lsn> = back.iter().map(|(l, _)| *l).collect();
        assert_eq!(read_lsns, lsns, "read-back LSNs must be the append addresses");
        assert!(lsns.windows(2).all(|w| w[0] < w[1]), "LSNs are strictly increasing");
        assert_eq!(lsns[0], Lsn { segment: 0, offset: PAGE_HEADER as u64 });
    }

    #[test]
    fn commit_forces_flush_and_sync() {
        let store = mem_store();
        let w = Wal::open(store.clone() as Arc<dyn SegmentStore>).unwrap();
        w.append(&LogRecord::Begin { xid: 1 }).unwrap();
        assert_eq!(store.io_stats().writes, 0, "begin alone is buffered");
        assert!(w.flushed_lsn() < w.next_lsn());
        w.append(&LogRecord::Commit { xid: 1 }).unwrap();
        let s = store.io_stats();
        assert!(s.writes >= 1, "commit must hit the disk");
        assert!(s.syncs >= 1, "commit must issue a durability barrier");
        assert_eq!(w.flushed_lsn(), w.next_lsn());
    }

    #[test]
    fn spans_multiple_pages() {
        let w = wal();
        let rec = insert(7, vec![0xAB; 1000]);
        let n = 40; // ~40 KB of records >> one page
        for _ in 0..n {
            w.append(&rec).unwrap();
        }
        let back = w.read_all().unwrap();
        assert_eq!(back.len(), n);
        assert!(back.iter().all(|(_, r)| *r == rec));
    }

    #[test]
    fn record_larger_than_a_page_roundtrips() {
        let w = wal();
        let big = insert(1, vec![0x5A; 3 * PAGE_SIZE]);
        w.append(&big).unwrap();
        w.append(&LogRecord::Commit { xid: 1 }).unwrap();
        let back = w.read_all().unwrap();
        assert_eq!(records_of(&back), vec![big, LogRecord::Commit { xid: 1 }]);
    }

    #[test]
    fn rotation_spreads_the_log_over_segments() {
        let store = mem_store();
        let w = Wal::open_with_segment_pages(store.clone(), 1).unwrap();
        let rec = |xid| insert(xid, vec![7; 3000]);
        let mut lsns = Vec::new();
        for xid in 0..10 {
            lsns.push(w.append(&rec(xid)).unwrap());
        }
        w.flush().unwrap();
        assert!(w.segments().unwrap().len() > 1, "1-page cap must force rotation");
        let back = w.read_all().unwrap();
        assert_eq!(back.len(), 10);
        for (i, (lsn, r)) in back.iter().enumerate() {
            assert_eq!(*r, rec(i as u64));
            assert_eq!(*lsn, lsns[i]);
        }
        assert!(lsns.windows(2).all(|w| w[0] < w[1]), "order holds across segments");
    }

    #[test]
    fn truncate_below_deletes_sealed_segments() {
        let store = mem_store();
        let w = Wal::open_with_segment_pages(store.clone(), 1).unwrap();
        for xid in 0..4 {
            w.append(&insert(1, vec![xid as u8; 3000])).unwrap();
        }
        w.append(&LogRecord::Commit { xid: 1 }).unwrap();
        let cp = w.rotate().unwrap();
        assert_eq!(cp.offset, 0);
        assert!(cp.segment > 0);
        w.append(&insert(2, vec![9; 100])).unwrap();
        w.append(&LogRecord::Commit { xid: 2 }).unwrap();

        let deleted = w.truncate_below(cp).unwrap();
        assert!(deleted >= 1, "history below the checkpoint must go");
        let ids = w.segments().unwrap();
        assert!(ids.iter().all(|&id| id >= cp.segment), "only tail segments remain: {ids:?}");

        let tail = w.read_from(cp).unwrap();
        assert!(tail.iter().all(|(lsn, _)| *lsn >= cp));
        assert!(tail.iter().any(|(_, r)| matches!(r, LogRecord::Commit { xid: 2 })));
        assert_eq!(w.read_all().unwrap(), tail, "after truncation the tail IS the log");
    }

    #[test]
    fn reopen_resumes_at_the_tail() {
        let store = mem_store();
        {
            let w = Wal::open(store.clone()).unwrap();
            w.append(&LogRecord::Begin { xid: 1 }).unwrap();
            w.append(&LogRecord::Commit { xid: 1 }).unwrap();
        }
        let w2 = Wal::open(store.clone()).unwrap();
        w2.append(&LogRecord::Begin { xid: 2 }).unwrap();
        w2.append(&LogRecord::Commit { xid: 2 }).unwrap();
        let back = w2.read_all().unwrap();
        let xids: Vec<u64> = back.iter().map(|(_, r)| r.xid()).collect();
        assert_eq!(xids, vec![1, 1, 2, 2]);
        let lsns: Vec<Lsn> = back.iter().map(|(l, _)| *l).collect();
        assert!(lsns.windows(2).all(|w| w[0] < w[1]), "no LSN reuse across reopen");
    }

    #[test]
    fn unflushed_tail_is_lost_but_prefix_survives_reopen() {
        let store = mem_store();
        {
            let w = Wal::open(store.clone()).unwrap();
            w.append(&LogRecord::Begin { xid: 1 }).unwrap();
            w.append(&LogRecord::Commit { xid: 1 }).unwrap();
            w.append(&LogRecord::Begin { xid: 2 }).unwrap();
            // Crash: Begin{2} was buffered, never flushed.
        }
        let w2 = Wal::open(store.clone()).unwrap();
        let xids: Vec<u64> = w2.read_all().unwrap().iter().map(|(_, r)| r.xid()).collect();
        assert_eq!(xids, vec![1, 1], "unflushed suffix is gone, durable prefix intact");
    }

    #[test]
    fn torn_tail_page_is_end_of_log_not_corruption() {
        let store = mem_store();
        let w = Wal::open(store.clone()).unwrap();
        // Page 0: xid-1 records; the second insert spills onto page 1.
        w.append(&insert(1, vec![1; 6000])).unwrap();
        w.append(&LogRecord::Commit { xid: 1 }).unwrap();
        w.append(&insert(2, vec![2; 6000])).unwrap();
        w.append(&LogRecord::Commit { xid: 2 }).unwrap();
        drop(w);
        // Tear the tail page in place (a crashed rewrite).
        let disk = store.disk(0).unwrap();
        assert!(disk.num_pages() >= 2);
        disk.write_page(PageId(1), &[0xFF; PAGE_SIZE]).unwrap();

        let (recs, err) = Wal::read_store(store.as_ref() as &dyn SegmentStore);
        assert!(err.is_none(), "a torn tail is not corruption: {err:?}");
        let xids: Vec<u64> = recs.iter().map(|(_, r)| r.xid()).collect();
        assert_eq!(xids, vec![1, 1], "xid-2 died with the torn page; xid-1 prefix intact");

        // Reopen repairs the tail; new appends land after the prefix.
        let w2 = Wal::open(store.clone()).unwrap();
        w2.append(&LogRecord::Begin { xid: 3 }).unwrap();
        w2.append(&LogRecord::Commit { xid: 3 }).unwrap();
        let xids: Vec<u64> = w2.read_all().unwrap().iter().map(|(_, r)| r.xid()).collect();
        assert_eq!(xids, vec![1, 1, 3, 3]);
    }

    #[test]
    fn corruption_in_front_of_valid_pages_is_reported() {
        let store = mem_store();
        let w = Wal::open(store.clone()).unwrap();
        for xid in 1..=4u64 {
            w.append(&insert(xid, vec![xid as u8; 6000])).unwrap();
            w.append(&LogRecord::Commit { xid }).unwrap();
        }
        w.flush().unwrap();
        let disk = store.disk(0).unwrap();
        assert!(disk.num_pages() >= 3);
        disk.write_page(PageId(0), &[0xFF; PAGE_SIZE]).unwrap();

        // Tolerant read: nothing before the bad page, and the damage named.
        let (recs, err) = Wal::read_store(store.as_ref() as &dyn SegmentStore);
        assert!(recs.is_empty());
        assert!(matches!(err, Some(StorageError::Corrupt(_))), "got {err:?}");

        // Strict read through a fresh handle: an error, never a panic.
        // (Read the store directly: open() would repair the tail first.)
        let (_, strict_err) = Wal::read_store_from(store.as_ref() as &dyn SegmentStore, Lsn::ZERO);
        assert!(matches!(strict_err, Some(StorageError::Corrupt(_))));
    }

    #[test]
    fn corrupt_sealed_segment_is_reported_with_prefix() {
        let store = mem_store();
        let w = Wal::open_with_segment_pages(store.clone(), 1).unwrap();
        for xid in 1..=6u64 {
            w.append(&insert(xid, vec![xid as u8; 3000])).unwrap();
            w.append(&LogRecord::Commit { xid }).unwrap();
        }
        w.flush().unwrap();
        let ids = w.segments().unwrap();
        assert!(ids.len() >= 3, "need sealed segments: {ids:?}");
        let mid = ids[ids.len() / 2];
        let disk = store.disk(mid).unwrap();
        disk.write_page(PageId(0), &[0xEE; PAGE_SIZE]).unwrap();

        let (recs, err) = Wal::read_store(store.as_ref() as &dyn SegmentStore);
        assert!(matches!(err, Some(StorageError::Corrupt(_))), "got {err:?}");
        assert!(!recs.is_empty(), "records before the bad segment survive");
        assert!(recs.iter().all(|(l, _)| l.segment < mid));
        assert!(w.read_all().is_err(), "strict reader surfaces the corruption");
    }

    #[test]
    fn fuzzed_page_header_never_panics() {
        // A `used` past PAGE_SIZE hidden behind a *valid* checksum: the old
        // reader panicked slicing; this must be a reported corruption.
        let store = mem_store();
        let w = Wal::open(store.clone()).unwrap();
        w.append(&LogRecord::Commit { xid: 1 }).unwrap();
        drop(w);
        let disk = store.disk(0).unwrap();
        let mut buf = [0u8; PAGE_SIZE];
        disk.read_page(PageId(0), &mut buf).unwrap();
        buf[4..6].copy_from_slice(&0xFFFFu16.to_le_bytes());
        let crc = crc32(&buf[4..]);
        buf[0..4].copy_from_slice(&crc.to_le_bytes());
        disk.write_page(PageId(0), &buf).unwrap();
        let (recs, err) = Wal::read_store(store.as_ref() as &dyn SegmentStore);
        assert!(recs.is_empty());
        assert!(matches!(err, Some(StorageError::Corrupt(_))), "got {err:?}");

        // An oversized fragment length behind a valid checksum, likewise.
        let store2 = mem_store();
        let disk2 = store2.open(0).unwrap();
        disk2.allocate(0).unwrap();
        let mut page = [0u8; PAGE_SIZE];
        page[4..6].copy_from_slice(&16u16.to_le_bytes());
        page[8..12].copy_from_slice(&0x7FFF_FFF0u32.to_le_bytes());
        let crc = crc32(&page[4..]);
        page[0..4].copy_from_slice(&crc.to_le_bytes());
        disk2.write_page(PageId(0), &page).unwrap();
        let (recs, err) = Wal::read_store(store2.as_ref() as &dyn SegmentStore);
        assert!(recs.is_empty());
        assert!(matches!(err, Some(StorageError::Corrupt(_))), "got {err:?}");
    }

    #[test]
    fn random_byte_corruption_never_panics_and_keeps_a_prefix() {
        let baseline = {
            let w = wal();
            for xid in 1..=8u64 {
                w.append(&insert(xid, vec![xid as u8; 2500])).unwrap();
                w.append(&LogRecord::Commit { xid }).unwrap();
            }
            records_of(&w.read_all().unwrap())
        };
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..64 {
            let store = mem_store();
            let w = Wal::open(store.clone()).unwrap();
            for xid in 1..=8u64 {
                w.append(&insert(xid, vec![xid as u8; 2500])).unwrap();
                w.append(&LogRecord::Commit { xid }).unwrap();
            }
            drop(w);
            let disk = store.disk(0).unwrap();
            let total = disk.num_pages() as usize * PAGE_SIZE;
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let pos = (rng >> 16) as usize % total;
            let mut buf = [0u8; PAGE_SIZE];
            disk.read_page(PageId((pos / PAGE_SIZE) as u64), &mut buf).unwrap();
            buf[pos % PAGE_SIZE] ^= 1 << ((rng >> 8) % 8);
            disk.write_page(PageId((pos / PAGE_SIZE) as u64), &buf).unwrap();

            // Must not panic, and whatever comes back is a prefix of the
            // uncorrupted record sequence.
            let (recs, _err) = Wal::read_store(store.as_ref() as &dyn SegmentStore);
            let got = records_of(&recs);
            assert!(got.len() <= baseline.len());
            assert_eq!(got[..], baseline[..got.len()], "flip at byte {pos} broke prefix order");
        }
    }

    #[test]
    fn dangling_fragment_chain_at_tail_is_dropped() {
        let store = mem_store();
        {
            let w = Wal::open(store.clone()).unwrap();
            w.append(&LogRecord::Commit { xid: 1 }).unwrap();
            // Spans onto a second page; the final fragment is buffered and
            // lost in the "crash" (drop without flush).
            w.append(&insert(2, vec![2; 12000])).unwrap();
        }
        let (recs, err) = Wal::read_store(store.as_ref() as &dyn SegmentStore);
        assert!(err.is_none(), "a dangling tail chain is a crash artifact: {err:?}");
        assert_eq!(records_of(&recs), vec![LogRecord::Commit { xid: 1 }]);

        // Reopen repairs past the prefix; the half-written chain can never
        // resurface, even after new appends bridge onto those pages.
        let w2 = Wal::open(store.clone()).unwrap();
        for xid in 3..=5u64 {
            w2.append(&insert(xid, vec![xid as u8; 6000])).unwrap();
            w2.append(&LogRecord::Commit { xid }).unwrap();
        }
        let xids: Vec<u64> = w2.read_all().unwrap().iter().map(|(_, r)| r.xid()).collect();
        assert_eq!(xids, vec![1, 3, 3, 4, 4, 5, 5]);
    }

    #[test]
    fn committed_xids_tracks_only_commit_records() {
        let w = wal();
        for r in sample_records() {
            w.append(&r).unwrap();
        }
        w.append(&LogRecord::Begin { xid: 3 }).unwrap();
        w.flush().unwrap();
        let committed = w.committed_xids().unwrap();
        assert!(committed.contains(&1));
        assert!(!committed.contains(&2), "aborted xid must not count as committed");
        assert!(!committed.contains(&3), "in-flight xid must not count as committed");
    }

    #[test]
    fn decode_rejects_truncation() {
        assert!(LogRecord::decode(&[]).is_err());
        assert!(LogRecord::decode(&[2, 1]).is_err());
        assert!(LogRecord::decode(&[9, 0, 0, 0, 0, 0, 0, 0, 0]).is_err());
    }

    #[test]
    fn record_bytes_round_trip() {
        for r in sample_records() {
            let bytes = r.to_bytes();
            assert_eq!(LogRecord::from_bytes(&bytes).unwrap(), r);
            // Trailing garbage is corruption, not silently ignored.
            let mut long = bytes.clone();
            long.push(0);
            assert!(LogRecord::from_bytes(&long).is_err());
        }
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The standard IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }
}
