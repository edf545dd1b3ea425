//! Memory-reference classification (paper **Table 1**).
//!
//! The paper classifies the data and code a database server touches into
//! three commonality classes:
//!
//! | class   | data                                        | code |
//! |---------|---------------------------------------------|------|
//! | private | query execution plan, client state, results | —    |
//! | shared  | tables, indices                             | operator-specific code |
//! | common  | catalog, symbol table                       | rest of DBMS code |
//!
//! Instrumented components ([`RefTracker::record`]) report each logical
//! reference with its class and kind; the `repro_tab1` binary prints the
//! measured table. "Code" references are proxied by module-entry counts
//! (instruction fetch cannot be observed from safe Rust).

use std::sync::atomic::{AtomicU64, Ordering};

/// Commonality class of a reference (Table 1 rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RefClass {
    /// Exclusive to a specific query instance.
    Private,
    /// Accessible by any query, different queries touch different parts.
    Shared,
    /// Accessed by the majority of queries.
    Common,
}

impl RefClass {
    /// All classes, in Table-1 order.
    pub const ALL: [RefClass; 3] = [RefClass::Private, RefClass::Shared, RefClass::Common];

    /// Lower-case label.
    pub fn label(&self) -> &'static str {
        match self {
            RefClass::Private => "private",
            RefClass::Shared => "shared",
            RefClass::Common => "common",
        }
    }
}

/// Kind of reference (Table 1 columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RefKind {
    /// Data structure access.
    Data,
    /// Code (module entry) — proxied, see module docs.
    Code,
}

impl RefKind {
    /// Both kinds, in Table-1 order.
    pub const ALL: [RefKind; 2] = [RefKind::Data, RefKind::Code];
}

const CLASSES: usize = 3;
const KINDS: usize = 2;

fn idx(class: RefClass, kind: RefKind) -> usize {
    let c = match class {
        RefClass::Private => 0,
        RefClass::Shared => 1,
        RefClass::Common => 2,
    };
    let k = match kind {
        RefKind::Data => 0,
        RefKind::Code => 1,
    };
    c * KINDS + k
}

/// Thread-safe reference counter matrix.
#[derive(Debug, Default)]
pub struct RefTracker {
    counts: [AtomicU64; CLASSES * KINDS],
    bytes: [AtomicU64; CLASSES * KINDS],
}

impl RefTracker {
    /// A fresh tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one logical reference of `len` bytes.
    pub fn record(&self, class: RefClass, kind: RefKind, len: u64) {
        let i = idx(class, kind);
        self.counts[i].fetch_add(1, Ordering::Relaxed);
        self.bytes[i].fetch_add(len, Ordering::Relaxed);
    }

    /// Number of references recorded for a cell.
    pub fn count(&self, class: RefClass, kind: RefKind) -> u64 {
        self.counts[idx(class, kind)].load(Ordering::Relaxed)
    }

    /// Bytes recorded for a cell.
    pub fn bytes(&self, class: RefClass, kind: RefKind) -> u64 {
        self.bytes[idx(class, kind)].load(Ordering::Relaxed)
    }

    /// Immutable snapshot (for printing / assertions).
    pub fn snapshot(&self) -> RefTable {
        let mut rows = Vec::new();
        for class in RefClass::ALL {
            for kind in RefKind::ALL {
                rows.push(RefRow {
                    class,
                    kind,
                    count: self.count(class, kind),
                    bytes: self.bytes(class, kind),
                });
            }
        }
        RefTable { rows }
    }

    /// Zero all counters.
    pub fn reset(&self) {
        for c in &self.counts {
            c.store(0, Ordering::Relaxed);
        }
        for b in &self.bytes {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// One cell of the measured Table 1.
#[derive(Debug, Clone, Copy)]
pub struct RefRow {
    /// Commonality class.
    pub class: RefClass,
    /// Data or code.
    pub kind: RefKind,
    /// References recorded.
    pub count: u64,
    /// Bytes recorded.
    pub bytes: u64,
}

/// Snapshot of a [`RefTracker`].
#[derive(Debug, Clone)]
pub struct RefTable {
    /// Six cells (3 classes × 2 kinds) in Table-1 order.
    pub rows: Vec<RefRow>,
}

impl RefTable {
    /// Total reference count.
    pub fn total(&self) -> u64 {
        self.rows.iter().map(|r| r.count).sum()
    }

    /// Fraction of references in a class (over both kinds).
    pub fn class_fraction(&self, class: RefClass) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let c: u64 = self.rows.iter().filter(|r| r.class == class).map(|r| r.count).sum();
        c as f64 / total as f64
    }
}

impl std::fmt::Display for RefTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{:<10} {:>14} {:>14} {:>14} {:>14}",
            "class", "data refs", "data bytes", "code refs", "code bytes"
        )?;
        for class in RefClass::ALL {
            let data = self.rows.iter().find(|r| r.class == class && r.kind == RefKind::Data);
            let code = self.rows.iter().find(|r| r.class == class && r.kind == RefKind::Code);
            writeln!(
                f,
                "{:<10} {:>14} {:>14} {:>14} {:>14}",
                class.label().to_uppercase(),
                data.map_or(0, |r| r.count),
                data.map_or(0, |r| r.bytes),
                code.map_or(0, |r| r.count),
                code.map_or(0, |r| r.bytes),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate_per_cell() {
        let t = RefTracker::new();
        t.record(RefClass::Private, RefKind::Data, 8);
        t.record(RefClass::Private, RefKind::Data, 8);
        t.record(RefClass::Common, RefKind::Code, 64);
        assert_eq!(t.count(RefClass::Private, RefKind::Data), 2);
        assert_eq!(t.bytes(RefClass::Private, RefKind::Data), 16);
        assert_eq!(t.count(RefClass::Common, RefKind::Code), 1);
        assert_eq!(t.count(RefClass::Shared, RefKind::Data), 0);
    }

    #[test]
    fn snapshot_has_all_six_cells_and_fractions_sum_to_one() {
        let t = RefTracker::new();
        t.record(RefClass::Private, RefKind::Data, 1);
        t.record(RefClass::Shared, RefKind::Data, 1);
        t.record(RefClass::Common, RefKind::Data, 1);
        t.record(RefClass::Common, RefKind::Code, 1);
        let s = t.snapshot();
        assert_eq!(s.rows.len(), 6);
        let sum: f64 = RefClass::ALL.iter().map(|&c| s.class_fraction(c)).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reset_zeroes_everything() {
        let t = RefTracker::new();
        t.record(RefClass::Shared, RefKind::Code, 100);
        t.reset();
        assert_eq!(t.snapshot().total(), 0);
    }

    #[test]
    fn display_renders_table_header_and_rows() {
        let t = RefTracker::new();
        t.record(RefClass::Common, RefKind::Data, 4);
        let rendered = format!("{}", t.snapshot());
        assert!(rendered.contains("PRIVATE"));
        assert!(rendered.contains("SHARED"));
        assert!(rendered.contains("COMMON"));
    }
}
