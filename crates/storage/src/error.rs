//! Storage-layer errors.

use crate::page::PageId;
use std::fmt;

/// Result alias for storage operations.
pub type StorageResult<T> = Result<T, StorageError>;

/// Errors raised by the storage manager.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// Underlying I/O failed (message from `std::io::Error`).
    Io(String),
    /// A page id was out of range or not allocated, or names a file the
    /// caller does not own.
    InvalidPage(PageId),
    /// A slot id did not exist or was deleted.
    InvalidSlot {
        /// Page the slot was looked up on.
        page: PageId,
        /// The offending slot index.
        slot: u16,
    },
    /// The record does not fit in a page.
    RecordTooLarge(usize),
    /// The buffer pool has no evictable frame (everything pinned).
    PoolExhausted,
    /// The simulated disk hit its configured capacity.
    DiskFull,
    /// On-disk bytes failed validation.
    Corrupt(String),
    /// A named object was not found in the catalog.
    NotFound(String),
    /// A named object already exists in the catalog.
    AlreadyExists(String),
    /// Tuple does not match the table schema.
    SchemaMismatch(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(m) => write!(f, "i/o error: {m}"),
            StorageError::InvalidPage(p) => write!(f, "invalid page {p}"),
            StorageError::InvalidSlot { page, slot } => {
                write!(f, "invalid slot {slot} on page {page}")
            }
            StorageError::RecordTooLarge(n) => write!(f, "record of {n} bytes exceeds page"),
            StorageError::PoolExhausted => write!(f, "buffer pool exhausted (all pages pinned)"),
            StorageError::DiskFull => write!(f, "disk full"),
            StorageError::Corrupt(m) => write!(f, "corrupt data: {m}"),
            StorageError::NotFound(n) => write!(f, "not found: {n}"),
            StorageError::AlreadyExists(n) => write!(f, "already exists: {n}"),
            StorageError::SchemaMismatch(m) => write!(f, "schema mismatch: {m}"),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e.to_string())
    }
}
