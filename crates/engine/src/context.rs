//! Execution context shared by operators.

use staged_cachesim::tracker::{RefClass, RefKind, RefTracker};
use staged_storage::{Catalog, PAGE_SIZE};
use std::sync::Arc;

/// Everything an executing operator needs: the catalog (and through it the
/// buffer pool) plus optional Table-1 reference instrumentation.
#[derive(Clone)]
pub struct ExecContext {
    /// The catalog.
    pub catalog: Arc<Catalog>,
    /// Optional memory-reference tracker (paper Table 1).
    pub tracker: Option<Arc<RefTracker>>,
    /// Hash partitions for tables created through this context's DDL path
    /// (scoped here, not on the shared catalog, so two servers over one
    /// catalog can use different partitioning).
    pub ddl_partitions: usize,
}

impl ExecContext {
    /// Context without instrumentation.
    pub fn new(catalog: Arc<Catalog>) -> Self {
        Self { catalog, tracker: None, ddl_partitions: 1 }
    }

    /// Attach a reference tracker.
    pub fn with_tracker(mut self, tracker: Arc<RefTracker>) -> Self {
        self.tracker = Some(tracker);
        self
    }

    /// Set the partition count for DDL-created tables.
    pub fn with_partitions(mut self, partitions: usize) -> Self {
        self.ddl_partitions = partitions.max(1);
        self
    }

    /// Record a *shared* data reference (table/index pages: any query may
    /// touch them, different queries touch different parts).
    pub fn note_page_ref(&self) {
        if let Some(t) = &self.tracker {
            t.record(RefClass::Shared, RefKind::Data, PAGE_SIZE as u64);
        }
    }

    /// Record a *private* data reference (intermediate results, sort runs,
    /// hash tables: exclusive to one query).
    pub fn note_private_bytes(&self, bytes: u64) {
        if let Some(t) = &self.tracker {
            t.record(RefClass::Private, RefKind::Data, bytes);
        }
    }

    /// Record a *common* code reference (an operator entry: engine driver
    /// code executed by every query).
    pub fn note_module_entry(&self, code_footprint: u64) {
        if let Some(t) = &self.tracker {
            t.record(RefClass::Common, RefKind::Code, code_footprint);
        }
    }

    /// Record a *shared* code reference (operator-specific algorithm code,
    /// e.g. the hash-join inner loop — Table 1 classifies operator code as
    /// shared).
    pub fn note_operator_code(&self, code_footprint: u64) {
        if let Some(t) = &self.tracker {
            t.record(RefClass::Shared, RefKind::Code, code_footprint);
        }
    }
}
