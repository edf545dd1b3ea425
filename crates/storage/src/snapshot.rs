//! Checkpoint snapshots: a serialized image of the catalog's tables and
//! indexes, anchored at a WAL address.
//!
//! A snapshot is captured under quiesced writers (the engine's checkpoint
//! stage takes every partition lock first), labeled with the LSN the WAL
//! was rotated to, and saved atomically through a [`SnapshotStore`].
//! Recovery then becomes: restore the snapshot, replay only the WAL tail
//! at or after [`Snapshot::lsn`]. The whole encoding ends in a CRC-32
//! (same checksum as the WAL pages), so a half-written or bit-rotted
//! snapshot is a detected [`StorageError::Corrupt`], never garbage tables.
//!
//! Restoring recreates each table under its captured id and places each
//! row at its captured rid (a rid names a block of the partition's own page
//! file, see [`crate::partition`]), so the WAL tail's table ids and rids
//! mean the same thing before and after: replay translates nothing.

use crate::catalog::{Catalog, TableId};
use crate::error::{StorageError, StorageResult};
use crate::schema::{Column, Schema};
use crate::tuple::{Rid, Tuple};
use crate::value::DataType;
use crate::wal::{crc32, Lsn};
use parking_lot::Mutex;
use std::collections::HashSet;
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"SDBSNAP1";

/// Durable home of the latest checkpoint snapshot.
pub trait SnapshotStore: Send + Sync {
    /// Atomically replace the stored snapshot with `bytes`: a crash during
    /// save must leave either the old snapshot or the new one, never a
    /// torn mix.
    fn save(&self, bytes: &[u8]) -> StorageResult<()>;

    /// The stored snapshot, if one has ever been saved.
    fn load(&self) -> StorageResult<Option<Vec<u8>>>;
}

/// In-memory snapshot store (tests, benches).
#[derive(Default)]
pub struct MemSnapshotStore {
    data: Mutex<Option<Vec<u8>>>,
}

impl MemSnapshotStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SnapshotStore for MemSnapshotStore {
    fn save(&self, bytes: &[u8]) -> StorageResult<()> {
        *self.data.lock() = Some(bytes.to_vec());
        Ok(())
    }

    fn load(&self) -> StorageResult<Option<Vec<u8>>> {
        Ok(self.data.lock().clone())
    }
}

/// File-backed snapshot store: write-to-temp then rename, the classic
/// atomic-replace idiom.
pub struct FileSnapshotStore {
    path: PathBuf,
}

impl FileSnapshotStore {
    /// A store at `path` (the parent directory must exist).
    pub fn new(path: impl AsRef<Path>) -> Self {
        Self { path: path.as_ref().to_path_buf() }
    }
}

impl SnapshotStore for FileSnapshotStore {
    fn save(&self, bytes: &[u8]) -> StorageResult<()> {
        let tmp = self.path.with_extension("tmp");
        std::fs::write(&tmp, bytes)?;
        // Durability before visibility: sync the temp file, then rename.
        let f = std::fs::File::open(&tmp)?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, &self.path)?;
        Ok(())
    }

    fn load(&self) -> StorageResult<Option<Vec<u8>>> {
        match std::fs::read(&self.path) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }
}

/// One table's image inside a snapshot.
pub struct TableSnapshot {
    /// Lower-cased table name.
    pub name: String,
    /// The table id — WAL records reference it, and restore reuses it.
    pub id: u32,
    /// Hash-partition count.
    pub partitions: u32,
    /// Hash-key column.
    pub key: u32,
    /// Column layout.
    pub schema: Schema,
    /// `(rid, encoded tuple)` for every live row, in heap order.
    pub rows: Vec<(Rid, Vec<u8>)>,
}

/// One index's description inside a snapshot (its B+tree is rebuilt from
/// the restored heap rather than serialized).
pub struct IndexSnapshot {
    /// Lower-cased index name.
    pub name: String,
    /// Indexed table's name.
    pub table: String,
    /// Indexed column's name.
    pub column: String,
}

/// A point-in-time image of every table and index, anchored at a WAL LSN.
pub struct Snapshot {
    /// Replay the WAL from here after restoring.
    pub lsn: Lsn,
    /// Tables, in catalog (name) order.
    pub tables: Vec<TableSnapshot>,
    /// Index definitions.
    pub indexes: Vec<IndexSnapshot>,
}

fn ty_code(ty: DataType) -> u8 {
    match ty {
        DataType::Int => 0,
        DataType::Float => 1,
        DataType::Str => 2,
        DataType::Bool => 3,
    }
}

fn ty_from(code: u8) -> Option<DataType> {
    match code {
        0 => Some(DataType::Int),
        1 => Some(DataType::Float),
        2 => Some(DataType::Str),
        3 => Some(DataType::Bool),
        _ => None,
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Bounds-checked byte cursor: every read can fail with `Corrupt`, so a
/// truncated snapshot is an error, not a panic.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> StorageResult<&'a [u8]> {
        let s = self
            .buf
            .get(self.pos..self.pos + n)
            .ok_or_else(|| StorageError::Corrupt("truncated snapshot".into()))?;
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> StorageResult<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> StorageResult<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> StorageResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> StorageResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn string(&mut self) -> StorageResult<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| StorageError::Corrupt("snapshot string not UTF-8".into()))
    }
}

impl Snapshot {
    /// Capture the current state of `catalog`, anchored at `lsn`. The
    /// caller is responsible for quiescing writers first — the engine's
    /// checkpoint stage holds every partition lock across this call.
    pub fn capture(catalog: &Catalog, lsn: Lsn) -> StorageResult<Snapshot> {
        let mut tables = Vec::new();
        let mut indexes = Vec::new();
        for info in catalog.list_tables() {
            let mut rows = Vec::new();
            for item in info.heap.scan() {
                let (rid, tuple) = item?;
                rows.push((rid, tuple.encode()));
            }
            tables.push(TableSnapshot {
                name: info.name.clone(),
                id: info.id.0,
                partitions: info.partitions() as u32,
                key: info.partition_key() as u32,
                schema: info.schema.clone(),
                rows,
            });
            for ix in catalog.indexes_for(info.id) {
                indexes.push(IndexSnapshot {
                    name: ix.name.clone(),
                    table: info.name.clone(),
                    column: info.schema.column(ix.column).name.clone(),
                });
            }
        }
        Ok(Snapshot { lsn, tables, indexes })
    }

    /// Serialize: magic, LSN, tables (schema + rows), index definitions,
    /// trailing CRC-32 over everything before it.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&self.lsn.segment.to_le_bytes());
        out.extend_from_slice(&self.lsn.offset.to_le_bytes());
        out.extend_from_slice(&(self.tables.len() as u32).to_le_bytes());
        for t in &self.tables {
            put_str(&mut out, &t.name);
            out.extend_from_slice(&t.id.to_le_bytes());
            out.extend_from_slice(&t.partitions.to_le_bytes());
            out.extend_from_slice(&t.key.to_le_bytes());
            out.extend_from_slice(&(t.schema.len() as u32).to_le_bytes());
            for c in t.schema.columns() {
                put_str(&mut out, &c.name);
                out.push(ty_code(c.ty));
                out.push(c.nullable as u8);
            }
            out.extend_from_slice(&(t.rows.len() as u64).to_le_bytes());
            for (rid, bytes) in &t.rows {
                out.extend_from_slice(&rid.page.0.to_le_bytes());
                out.extend_from_slice(&rid.slot.to_le_bytes());
                out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
                out.extend_from_slice(bytes);
            }
        }
        out.extend_from_slice(&(self.indexes.len() as u32).to_le_bytes());
        for ix in &self.indexes {
            put_str(&mut out, &ix.name);
            put_str(&mut out, &ix.table);
            put_str(&mut out, &ix.column);
        }
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Deserialize, verifying the magic and the trailing checksum. Any
    /// truncation, bit rot, or structural damage is
    /// [`StorageError::Corrupt`] — never a panic.
    pub fn decode(bytes: &[u8]) -> StorageResult<Snapshot> {
        if bytes.len() < MAGIC.len() + 4 {
            return Err(StorageError::Corrupt("snapshot too short".into()));
        }
        let (body, tail) = bytes.split_at(bytes.len() - 4);
        let stored = u32::from_le_bytes(tail.try_into().unwrap());
        if crc32(body) != stored {
            return Err(StorageError::Corrupt("snapshot checksum mismatch".into()));
        }
        let mut c = Cursor { buf: body, pos: 0 };
        if c.take(MAGIC.len())? != MAGIC {
            return Err(StorageError::Corrupt("bad snapshot magic".into()));
        }
        let lsn = Lsn { segment: c.u64()?, offset: c.u64()? };
        let n_tables = c.u32()? as usize;
        let mut tables = Vec::new();
        for _ in 0..n_tables {
            let name = c.string()?;
            let id = c.u32()?;
            let partitions = c.u32()?;
            let key = c.u32()?;
            let n_cols = c.u32()? as usize;
            let mut cols = Vec::with_capacity(n_cols);
            let mut seen = HashSet::new();
            for _ in 0..n_cols {
                let cname = c.string()?;
                if !seen.insert(cname.clone()) {
                    return Err(StorageError::Corrupt(format!(
                        "snapshot duplicates column {cname}"
                    )));
                }
                let ty = ty_from(c.u8()?)
                    .ok_or_else(|| StorageError::Corrupt("unknown column type".into()))?;
                let nullable = c.u8()? != 0;
                cols.push(Column { name: cname, ty, nullable });
            }
            if partitions == 0 || (key as usize) >= cols.len() {
                return Err(StorageError::Corrupt(format!(
                    "snapshot table {name}: bad partitioning ({partitions} parts, key {key})"
                )));
            }
            let schema = Schema::new(cols);
            let n_rows = c.u64()? as usize;
            let mut rows = Vec::new();
            for _ in 0..n_rows {
                let page = c.u64()?;
                let slot = c.u16()?;
                let len = c.u32()? as usize;
                let bytes = c.take(len)?.to_vec();
                rows.push((Rid::new(crate::page::PageId(page), slot), bytes));
            }
            tables.push(TableSnapshot { name, id, partitions, key, schema, rows });
        }
        let n_indexes = c.u32()? as usize;
        let mut indexes = Vec::new();
        for _ in 0..n_indexes {
            indexes.push(IndexSnapshot {
                name: c.string()?,
                table: c.string()?,
                column: c.string()?,
            });
        }
        if c.pos != body.len() {
            return Err(StorageError::Corrupt("snapshot has trailing bytes".into()));
        }
        Ok(Snapshot { lsn, tables, indexes })
    }

    /// Rebuild every table and index into an **empty** catalog: each table
    /// under its captured id and partitioning, each row at its captured rid
    /// (so a WAL tail replays onto it unchanged); indexes are bulk-loaded
    /// from the restored heap.
    pub fn restore(&self, catalog: &Catalog) -> StorageResult<()> {
        if !catalog.list_tables().is_empty() {
            return Err(StorageError::AlreadyExists(
                "snapshot restore needs an empty catalog".into(),
            ));
        }
        for t in &self.tables {
            let info = catalog.create_table_as(
                Some(TableId(t.id)),
                &t.name,
                t.schema.clone(),
                t.partitions as usize,
                t.key as usize,
            )?;
            for (rid, bytes) in &t.rows {
                Tuple::decode(bytes)?; // a row must decode before it lands
                let part = info.heap.partition(info.heap.partition_of_rid(*rid)?);
                part.place_with(*rid, bytes, |_| {})?;
            }
        }
        for ix in &self.indexes {
            catalog.create_index(&ix.name, &ix.table, &ix.column)?;
        }
        Ok(())
    }

    /// Total rows across all tables (reporting).
    pub fn row_count(&self) -> u64 {
        self.tables.iter().map(|t| t.rows.len() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferPool;
    use crate::disk::MemDisk;
    use crate::value::Value;
    use std::sync::Arc;

    fn catalog() -> Catalog {
        Catalog::new(BufferPool::new(Arc::new(MemDisk::new()), 256))
    }

    fn two_col() -> Schema {
        Schema::new(vec![Column::new("id", DataType::Int), Column::new("name", DataType::Str)])
    }

    fn populated() -> Catalog {
        let c = catalog();
        let t = c.create_table_partitioned("t", two_col(), 4, 0).unwrap();
        for i in 0..100i64 {
            t.heap.insert(&Tuple::new(vec![Value::Int(i), Value::Str(format!("n{i}"))])).unwrap();
        }
        c.create_index("t_id", "t", "id").unwrap();
        c
    }

    fn sorted_rows(c: &Catalog, name: &str) -> Vec<Tuple> {
        let t = c.table(name).unwrap();
        let mut rows: Vec<Tuple> = t.heap.scan().map(|r| r.unwrap().1).collect();
        rows.sort_by_key(|t| t.get(0).as_int());
        rows
    }

    #[test]
    fn capture_encode_decode_restore_roundtrip() {
        let src = populated();
        let lsn = Lsn { segment: 3, offset: 0 };
        let snap = Snapshot::capture(&src, lsn).unwrap();
        assert_eq!(snap.row_count(), 100);
        let bytes = snap.encode();
        let back = Snapshot::decode(&bytes).unwrap();
        assert_eq!(back.lsn, lsn);
        assert_eq!(back.tables.len(), 1);
        assert_eq!(back.indexes.len(), 1);

        let dst = catalog();
        back.restore(&dst).unwrap();
        assert_eq!(sorted_rows(&dst, "t"), sorted_rows(&src, "t"));
        // Index came back and probes work.
        let t = dst.table("t").unwrap();
        let ix = dst.index_on(t.id, 0).unwrap();
        assert_eq!(ix.search(42).unwrap().len(), 1);
        // Same table id, every row at its captured rid.
        let src_t = src.table("t").unwrap();
        assert_eq!(t.id, src_t.id);
        let rows = |h: &crate::partition::PartitionedHeap| -> Vec<(Rid, Tuple)> {
            h.scan().map(|r| r.unwrap()).collect()
        };
        assert_eq!(rows(&t.heap), rows(&src_t.heap));
    }

    #[test]
    fn restore_keeps_table_ids_and_the_gaps_between_rows() {
        let src = catalog();
        src.create_table("a", two_col()).unwrap();
        let b = src.create_table_partitioned("b", two_col(), 2, 0).unwrap();
        src.drop_table("a").unwrap();
        let rids: Vec<Rid> = (0..1500i64)
            .map(|i| b.heap.insert(&Tuple::new(vec![Value::Int(i), Value::Str("x".into())])))
            .collect::<Result<_, _>>()
            .unwrap();
        // Empty a whole page and punch holes elsewhere.
        for (i, rid) in rids.iter().enumerate() {
            if rid.page.block() == 0 || i % 7 == 0 {
                b.heap.delete(*rid).unwrap();
            }
        }
        let snap = Snapshot::decode(&Snapshot::capture(&src, Lsn::ZERO).unwrap().encode()).unwrap();
        let dst = catalog();
        snap.restore(&dst).unwrap();
        let b2 = dst.table("b").unwrap();
        assert_eq!(b2.id, b.id, "the id survives the dropped table in front of it");
        let scan = |h: &crate::partition::PartitionedHeap| -> Vec<(Rid, Tuple)> {
            h.scan().map(|r| r.unwrap()).collect()
        };
        assert_eq!(scan(&b2.heap), scan(&b.heap));
        assert_eq!(dst.create_table("c", two_col()).unwrap().id.0, b.id.0 + 1);
    }

    #[test]
    fn corrupted_snapshot_is_detected_never_panics() {
        let snap = Snapshot::capture(&populated(), Lsn::ZERO).unwrap();
        let good = snap.encode();
        // Flip one byte anywhere: checksum must catch it.
        for pos in [0usize, 8, good.len() / 2, good.len() - 5] {
            let mut bad = good.clone();
            bad[pos] ^= 0xFF;
            assert!(
                matches!(Snapshot::decode(&bad), Err(StorageError::Corrupt(_))),
                "flip at {pos} undetected"
            );
        }
        // Truncation at any point is detected too.
        for cut in [0usize, 7, good.len() / 3, good.len() - 1] {
            assert!(matches!(Snapshot::decode(&good[..cut]), Err(StorageError::Corrupt(_))));
        }
    }

    #[test]
    fn restore_refuses_a_non_empty_catalog() {
        let snap = Snapshot::capture(&populated(), Lsn::ZERO).unwrap();
        let dst = populated();
        assert!(matches!(snap.restore(&dst), Err(StorageError::AlreadyExists(_))));
    }

    #[test]
    fn mem_snapshot_store_roundtrip() {
        let s = MemSnapshotStore::new();
        assert!(s.load().unwrap().is_none());
        s.save(b"abc").unwrap();
        s.save(b"def").unwrap();
        assert_eq!(s.load().unwrap().unwrap(), b"def");
    }

    #[test]
    fn file_snapshot_store_atomically_replaces() {
        let dir = std::env::temp_dir().join(format!(
            "staged-db-snap-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let store = FileSnapshotStore::new(dir.join("checkpoint.snap"));
        assert!(store.load().unwrap().is_none());
        store.save(b"first").unwrap();
        assert_eq!(store.load().unwrap().unwrap(), b"first");
        store.save(b"second").unwrap();
        assert_eq!(store.load().unwrap().unwrap(), b"second");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
