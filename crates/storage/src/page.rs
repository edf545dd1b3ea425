//! Pages and the slotted-page record layout.
//!
//! Layout of a slotted page (all little-endian):
//!
//! ```text
//! 0..2    num_slots: u16
//! 2..4    free_end: u16      -- records grow down from PAGE_SIZE to here
//! 4..     slot array: num_slots × (offset: u16, len: u16)
//! ...     free space
//! free_end..PAGE_SIZE  record payloads
//! ```
//!
//! A slot with `len == 0` is a tombstone (deleted record) whose offset and
//! bytes stay put, so rollback can restore it in place. Slots are never
//! reused so rids stay stable, and reclaiming space is left to a rebuild
//! (the engine's workloads are read-mostly, like the paper's).
//!
//! A [`PageId`] names a block of a page file, so a heap partition (one file
//! each) numbers its pages from 0 in every catalog: replay can
//! [`place`](SlottedPage::place) a row at the slot the log names.

use crate::error::{StorageError, StorageResult};

/// Page size in bytes (SHORE used 8 KiB pages too).
pub const PAGE_SIZE: usize = 8192;

const HEADER: usize = 4;
const SLOT: usize = 4;

/// Identifier of a page on a disk: a file id in the high 32 bits, a block
/// number within that file in the low 32.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u64);

impl PageId {
    /// Block `block` of file `file`.
    pub const fn new(file: u32, block: u32) -> Self {
        PageId((file as u64) << 32 | block as u64)
    }

    /// The file this page belongs to.
    pub const fn file(self) -> u32 {
        (self.0 >> 32) as u32
    }

    /// The page's block number within its file.
    pub const fn block(self) -> u32 {
        self.0 as u32
    }
}

impl std::fmt::Display for PageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{}", self.file(), self.block())
    }
}

/// A slotted-page view over a raw page buffer.
///
/// All methods operate on a `&mut [u8]`/`&[u8]` of exactly [`PAGE_SIZE`]
/// bytes, so the same code works on buffer-pool frames and scratch buffers.
pub struct SlottedPage;

impl SlottedPage {
    /// Format a zeroed buffer as an empty slotted page.
    pub fn init(data: &mut [u8]) {
        assert_eq!(data.len(), PAGE_SIZE);
        write_u16(data, 0, 0);
        write_u16(data, 2, PAGE_SIZE as u16);
    }

    /// Number of slots (live + tombstoned).
    pub fn num_slots(data: &[u8]) -> u16 {
        read_u16(data, 0)
    }

    /// Bytes available for one more record (including its slot).
    pub fn free_space(data: &[u8]) -> usize {
        let slots = Self::num_slots(data) as usize;
        let slot_end = HEADER + slots * SLOT;
        let free_end = read_u16(data, 2) as usize;
        free_end.saturating_sub(slot_end).saturating_sub(SLOT)
    }

    /// Insert a record at the end of the slot array; returns its slot id,
    /// or `None` if it does not fit.
    pub fn insert(data: &mut [u8], record: &[u8]) -> Option<u16> {
        let slot = Self::num_slots(data);
        Self::place(data, PageId(0), slot, record).ok().map(|()| slot)
    }

    /// Store `record` at `slot`, which must be at or past the end of the
    /// slot array (`InvalidSlot` otherwise). The slots skipped in between
    /// become tombstones: the bytes past the slot array are still the
    /// page's initial zeroes, and a zero length is a tombstone.
    /// `RecordTooLarge` when the record and the new slots do not fit. On
    /// error the page is unchanged.
    pub fn place(data: &mut [u8], page: PageId, slot: u16, record: &[u8]) -> StorageResult<()> {
        let slots = Self::num_slots(data);
        if slot < slots {
            return Err(StorageError::InvalidSlot { page, slot });
        }
        let free_end = read_u16(data, 2) as usize;
        if HEADER + (slot as usize + 1) * SLOT + record.len() > free_end {
            return Err(StorageError::RecordTooLarge(record.len()));
        }
        let new_end = free_end - record.len();
        data[new_end..free_end].copy_from_slice(record);
        let slot_off = HEADER + slot as usize * SLOT;
        write_u16(data, slot_off, new_end as u16);
        write_u16(data, slot_off + 2, record.len() as u16);
        write_u16(data, 0, slot + 1);
        write_u16(data, 2, new_end as u16);
        Ok(())
    }

    /// Read a record by slot; `InvalidSlot` for out-of-range or deleted.
    pub fn get(data: &[u8], page: PageId, slot: u16) -> StorageResult<&[u8]> {
        let slots = Self::num_slots(data);
        if slot >= slots {
            return Err(StorageError::InvalidSlot { page, slot });
        }
        let slot_off = HEADER + slot as usize * SLOT;
        let off = read_u16(data, slot_off) as usize;
        let len = read_u16(data, slot_off + 2) as usize;
        if len == 0 {
            return Err(StorageError::InvalidSlot { page, slot });
        }
        if off + len > PAGE_SIZE {
            return Err(StorageError::Corrupt(format!("slot {slot} out of bounds")));
        }
        Ok(&data[off..off + len])
    }

    /// Tombstone a record. Idempotent; errors on out-of-range slots.
    pub fn delete(data: &mut [u8], page: PageId, slot: u16) -> StorageResult<()> {
        let slots = Self::num_slots(data);
        if slot >= slots {
            return Err(StorageError::InvalidSlot { page, slot });
        }
        let slot_off = HEADER + slot as usize * SLOT;
        write_u16(data, slot_off + 2, 0);
        Ok(())
    }

    /// Undo a [`Self::delete`]: bring `record` back at `slot`. A delete
    /// only zeroes the slot length and the page never reclaims the bytes,
    /// so the row returns at its own rid. The slot must be in range and
    /// tombstoned (`InvalidSlot`) and its stored bytes must equal `record`
    /// (`Corrupt`); on error the page is unchanged.
    pub fn restore(data: &mut [u8], page: PageId, slot: u16, record: &[u8]) -> StorageResult<()> {
        if slot >= Self::num_slots(data) {
            return Err(StorageError::InvalidSlot { page, slot });
        }
        let slot_off = HEADER + slot as usize * SLOT;
        if read_u16(data, slot_off + 2) != 0 {
            return Err(StorageError::InvalidSlot { page, slot });
        }
        let off = read_u16(data, slot_off) as usize;
        if data.get(off..off + record.len()) != Some(record) {
            return Err(StorageError::Corrupt(format!("slot {slot} holds other bytes")));
        }
        write_u16(data, slot_off + 2, record.len() as u16);
        Ok(())
    }

    /// Iterate live records as `(slot, bytes)`.
    pub fn iter(data: &[u8]) -> impl Iterator<Item = (u16, &[u8])> {
        let slots = Self::num_slots(data);
        (0..slots).filter_map(move |s| {
            let slot_off = HEADER + s as usize * SLOT;
            let off = read_u16(data, slot_off) as usize;
            let len = read_u16(data, slot_off + 2) as usize;
            if len == 0 || off + len > PAGE_SIZE {
                None
            } else {
                Some((s, &data[off..off + len]))
            }
        })
    }

    /// Number of live (non-tombstoned) records.
    pub fn live_count(data: &[u8]) -> usize {
        Self::iter(data).count()
    }
}

pub(crate) fn read_u16(data: &[u8], off: usize) -> u16 {
    u16::from_le_bytes([data[off], data[off + 1]])
}

pub(crate) fn write_u16(data: &mut [u8], off: usize, v: u16) {
    data[off..off + 2].copy_from_slice(&v.to_le_bytes());
}

pub(crate) fn read_u64(data: &[u8], off: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&data[off..off + 8]);
    u64::from_le_bytes(b)
}

pub(crate) fn write_u64(data: &mut [u8], off: usize, v: u64) {
    data[off..off + 8].copy_from_slice(&v.to_le_bytes());
}

pub(crate) fn read_i64(data: &[u8], off: usize) -> i64 {
    read_u64(data, off) as i64
}

pub(crate) fn write_i64(data: &mut [u8], off: usize, v: i64) {
    write_u64(data, off, v as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page() -> Vec<u8> {
        let mut d = vec![0u8; PAGE_SIZE];
        SlottedPage::init(&mut d);
        d
    }

    #[test]
    fn insert_then_get() {
        let mut d = page();
        let s0 = SlottedPage::insert(&mut d, b"hello").unwrap();
        let s1 = SlottedPage::insert(&mut d, b"world!").unwrap();
        assert_eq!(s0, 0);
        assert_eq!(s1, 1);
        assert_eq!(SlottedPage::get(&d, PageId(0), 0).unwrap(), b"hello");
        assert_eq!(SlottedPage::get(&d, PageId(0), 1).unwrap(), b"world!");
    }

    #[test]
    fn fills_up_and_rejects() {
        let mut d = page();
        let rec = vec![7u8; 1000];
        let mut n = 0;
        while SlottedPage::insert(&mut d, &rec).is_some() {
            n += 1;
        }
        // 8188 usable / 1004 per record = 8 records.
        assert_eq!(n, 8);
        assert!(SlottedPage::free_space(&d) < rec.len());
        // Smaller records still fit.
        assert!(SlottedPage::insert(&mut d, &[1u8; 16]).is_some());
    }

    #[test]
    fn delete_tombstones_and_iter_skips() {
        let mut d = page();
        SlottedPage::insert(&mut d, b"a").unwrap();
        SlottedPage::insert(&mut d, b"b").unwrap();
        SlottedPage::insert(&mut d, b"c").unwrap();
        SlottedPage::delete(&mut d, PageId(0), 1).unwrap();
        let live: Vec<&[u8]> = SlottedPage::iter(&d).map(|(_, b)| b).collect();
        assert_eq!(live, vec![b"a".as_ref(), b"c".as_ref()]);
        assert!(SlottedPage::get(&d, PageId(0), 1).is_err());
        assert_eq!(SlottedPage::live_count(&d), 2);
        // Rids of other records stay stable.
        assert_eq!(SlottedPage::get(&d, PageId(0), 2).unwrap(), b"c");
    }

    #[test]
    fn restore_brings_a_deleted_record_back_at_its_slot() {
        let mut d = page();
        SlottedPage::insert(&mut d, b"a").unwrap();
        SlottedPage::insert(&mut d, b"bee").unwrap();
        SlottedPage::delete(&mut d, PageId(0), 1).unwrap();
        SlottedPage::restore(&mut d, PageId(0), 1, b"bee").unwrap();
        assert_eq!(SlottedPage::get(&d, PageId(0), 1).unwrap(), b"bee");
        assert_eq!(SlottedPage::num_slots(&d), 2, "no new slot");
    }

    #[test]
    fn restore_of_a_live_slot_is_an_error() {
        let mut d = page();
        SlottedPage::insert(&mut d, b"a").unwrap();
        let before = d.clone();
        assert!(matches!(
            SlottedPage::restore(&mut d, PageId(0), 0, b"a"),
            Err(StorageError::InvalidSlot { page: PageId(0), slot: 0 })
        ));
        assert_eq!(d, before);
    }

    #[test]
    fn restore_of_mismatched_bytes_is_an_error() {
        let mut d = page();
        SlottedPage::insert(&mut d, b"abc").unwrap();
        SlottedPage::delete(&mut d, PageId(0), 0).unwrap();
        let before = d.clone();
        assert!(matches!(
            SlottedPage::restore(&mut d, PageId(0), 0, b"abd"),
            Err(StorageError::Corrupt(_))
        ));
        assert_eq!(d, before);
        // A longer record than the slot held runs past the page end.
        assert!(SlottedPage::restore(&mut d, PageId(0), 0, b"abcd").is_err());
        assert_eq!(d, before);
    }

    #[test]
    fn restore_of_an_out_of_range_slot_is_an_error() {
        let mut d = page();
        SlottedPage::insert(&mut d, b"a").unwrap();
        let before = d.clone();
        assert!(matches!(
            SlottedPage::restore(&mut d, PageId(0), 1, b"a"),
            Err(StorageError::InvalidSlot { page: PageId(0), slot: 1 })
        ));
        assert_eq!(d, before);
    }

    #[test]
    fn place_past_the_end_tombstones_the_gap() {
        let mut d = page();
        SlottedPage::insert(&mut d, b"a").unwrap();
        SlottedPage::place(&mut d, PageId(0), 3, b"dee").unwrap();
        assert_eq!(SlottedPage::num_slots(&d), 4);
        for gap in 1..3 {
            assert!(SlottedPage::get(&d, PageId(0), gap).is_err(), "slot {gap} is a tombstone");
        }
        let live: Vec<(u16, &[u8])> = SlottedPage::iter(&d).collect();
        assert_eq!(live, vec![(0, b"a".as_ref()), (3, b"dee".as_ref())]);
        assert_eq!(SlottedPage::insert(&mut d, b"e"), Some(4), "insert places at the end");
    }

    #[test]
    fn place_below_the_slot_count_is_an_error() {
        let mut d = page();
        SlottedPage::insert(&mut d, b"a").unwrap();
        SlottedPage::insert(&mut d, b"b").unwrap();
        SlottedPage::delete(&mut d, PageId(0), 1).unwrap();
        let before = d.clone();
        for slot in [0, 1] {
            assert!(matches!(
                SlottedPage::place(&mut d, PageId::new(2, 5), slot, b"z"),
                Err(StorageError::InvalidSlot { page, slot: s }) if page == PageId::new(2, 5) && s == slot
            ));
        }
        assert_eq!(d, before);
    }

    #[test]
    fn place_of_a_record_that_does_not_fit_is_an_error() {
        let mut d = page();
        SlottedPage::insert(&mut d, &[1u8; 4000]).unwrap();
        let before = d.clone();
        assert!(matches!(
            SlottedPage::place(&mut d, PageId(0), 1, &[2u8; 4200]),
            Err(StorageError::RecordTooLarge(4200))
        ));
        // The record alone fits, but not with 1,100 gap slots in front.
        assert!(SlottedPage::place(&mut d, PageId(0), 1100, &[2u8; 100]).is_err());
        assert_eq!(d, before);
        SlottedPage::place(&mut d, PageId(0), 1, &[2u8; 4000]).unwrap();
    }

    #[test]
    fn out_of_range_slot_is_error() {
        let d = page();
        assert!(matches!(
            SlottedPage::get(&d, PageId(3), 0),
            Err(StorageError::InvalidSlot { page: PageId(3), slot: 0 })
        ));
        let mut d2 = page();
        assert!(SlottedPage::delete(&mut d2, PageId(0), 9).is_err());
    }

    #[test]
    fn empty_record_roundtrip() {
        // Zero-length records cannot be stored (len 0 marks tombstones);
        // callers always have ≥2 bytes (tuple arity), so reject via insert
        // returning a slot whose get() fails — guard that we never insert
        // an empty record in practice by checking at this level.
        let mut d = page();
        let slot = SlottedPage::insert(&mut d, b"").unwrap();
        // An empty record is indistinguishable from a tombstone by design.
        assert!(SlottedPage::get(&d, PageId(0), slot).is_err());
    }
}
