//! The lock table behind the lock-manager stage.
//!
//! The paper's Figure 3 names the lock manager as a first-class stage of a
//! staged OLTP engine. This table is its data structure: strict two-phase
//! locking at *partition* granularity. A lock unit is one hash partition of
//! one table; a whole-table lock is simply the set of all its partition
//! locks, acquired in sorted order. Keeping the unit uniform avoids the
//! intention-lock lattice while still letting transactions that touch
//! disjoint partitions proceed in parallel.
//!
//! Deadlocks are resolved by timeout-abort: a request that cannot be
//! granted within its deadline returns [`LockError::Timeout`] and the
//! caller aborts the transaction, releasing everything it held.

use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// One lockable unit: a hash partition of a table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LockKey {
    /// Table id (`TableId.0`).
    pub table: u32,
    /// Partition index within the table.
    pub partition: u32,
}

impl LockKey {
    /// A key for one partition of a table.
    pub fn new(table: u32, partition: u32) -> Self {
        Self { table, partition }
    }
}

/// Lock modes. Every lock is exclusive: writers lock the partitions they
/// touch, and readers take no locks at all — they read MVCC snapshots
/// (docs/CONCURRENCY.md §1). The one-variant enum keeps the mode explicit
/// at [`LockTable::try_lock`]'s call sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// Write lock: compatible with nothing but locks of the same owner.
    Exclusive,
}

/// Why a lock request failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LockError {
    /// The deadline passed while waiting (presumed deadlock).
    Timeout(LockKey),
}

#[derive(Default)]
struct TableInnerState {
    /// Each held key's one owner.
    locks: HashMap<LockKey, u64>,
    /// Reverse map: which keys each transaction holds (for release_all).
    held: HashMap<u64, Vec<LockKey>>,
}

impl TableInnerState {
    /// Grant `key` to `xid` unless another transaction owns it. True on
    /// grant (idempotent for a lock `xid` already holds).
    fn grant(&mut self, xid: u64, key: LockKey) -> bool {
        match self.locks.get(&key) {
            Some(owner) => *owner == xid,
            None => {
                self.locks.insert(key, xid);
                self.held.entry(xid).or_default().push(key);
                true
            }
        }
    }
}

/// The lock table: a map of partition locks plus the two ways a waiter
/// learns of a release — a condvar blocked threads park on
/// ([`lock_until`](Self::lock_until)) and a hook for waiters that are not
/// threads ([`set_release_hook`](Self::set_release_hook)). One condvar for
/// the whole table is coarse but matches the scale of the stage (lock
/// hold times are statement-sized).
#[derive(Default)]
pub struct LockTable {
    inner: Mutex<TableInnerState>,
    released: Condvar,
    on_release: OnceLock<Box<dyn Fn() + Send + Sync>>,
}

impl LockTable {
    /// An empty lock table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Try to acquire `key` for `xid` without waiting. Returns `true` on
    /// grant (idempotent for locks already held).
    pub fn try_lock(&self, xid: u64, key: LockKey, _mode: LockMode) -> bool {
        self.inner.lock().grant(xid, key)
    }

    /// Acquire `key` for `xid`, waiting up to the `deadline`. This is the
    /// *sequential* acquisition path used by the Volcano engine; the
    /// staged lock stage uses [`try_lock`](Self::try_lock) and parks its
    /// packet instead of blocking a stage worker.
    pub fn lock_until(&self, xid: u64, key: LockKey, deadline: Instant) -> Result<(), LockError> {
        let mut inner = self.inner.lock();
        while !inner.grant(xid, key) {
            let now = Instant::now();
            if now >= deadline {
                return Err(LockError::Timeout(key));
            }
            // A timed-out wait falls through to one last grant attempt,
            // then the deadline test fails the request.
            self.released.wait_for(&mut inner, deadline - now);
        }
        Ok(())
    }

    /// Acquire a set of keys in deterministic (sorted) order with one
    /// overall timeout. Partial acquisitions are *kept* on timeout — the
    /// caller is aborting the transaction anyway and `release_all` cleans
    /// up; keeping them is what strict 2PL requires on success paths.
    pub fn lock_all(
        &self,
        xid: u64,
        keys: &mut Vec<LockKey>,
        timeout: Duration,
    ) -> Result<(), LockError> {
        keys.sort_unstable();
        keys.dedup();
        let deadline = Instant::now() + timeout;
        for key in keys.iter() {
            self.lock_until(xid, *key, deadline)?;
        }
        Ok(())
    }

    /// Install the release hook: `hook` runs after every
    /// [`release_all`](Self::release_all) that freed at least one lock,
    /// on the releasing thread, with the table's mutex already dropped (so
    /// it may call back into the table). The staged lock stage uses it to
    /// re-admit the packets it parked on a conflict. One hook per table;
    /// a second call is ignored.
    pub fn set_release_hook(&self, hook: impl Fn() + Send + Sync + 'static) {
        let _ = self.on_release.set(Box::new(hook));
    }

    /// Release every lock `xid` holds. Idempotent. If that freed anything,
    /// wake every waiter: threads blocked in
    /// [`lock_until`](Self::lock_until), then the release hook. The table
    /// is updated *before* either is told, so a waiter that retries on the
    /// wake-up sees the freed locks; a waiter that was not yet waiting when
    /// the release happened must make "try, then register as waiting" one
    /// critical section against its own wake-up path (the lock stage does:
    /// docs/CONCURRENCY.md, "Lock waits").
    pub fn release_all(&self, xid: u64) {
        let mut inner = self.inner.lock();
        let Some(keys) = inner.held.remove(&xid) else { return };
        for key in keys {
            inner.locks.remove(&key);
        }
        drop(inner);
        self.released.notify_all();
        if let Some(hook) = self.on_release.get() {
            hook();
        }
    }

    /// Number of locks currently held by `xid`.
    pub fn held_by(&self, xid: u64) -> usize {
        self.inner.lock().held.get(&xid).map_or(0, Vec::len)
    }

    /// Total number of granted locks (diagnostics).
    pub fn total_held(&self) -> usize {
        self.inner.lock().locks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(t: u32, p: u32) -> LockKey {
        LockKey::new(t, p)
    }

    #[test]
    fn an_owner_reacquires_idempotently_and_excludes_every_other() {
        let lt = LockTable::new();
        assert!(lt.try_lock(7, k(1, 0), LockMode::Exclusive));
        assert!(lt.try_lock(7, k(1, 0), LockMode::Exclusive));
        assert_eq!(lt.held_by(7), 1);
        assert!(!lt.try_lock(8, k(1, 0), LockMode::Exclusive));
        lt.release_all(7);
        assert!(lt.try_lock(8, k(1, 0), LockMode::Exclusive));
        assert!(!lt.try_lock(7, k(1, 0), LockMode::Exclusive), "the new owner excludes the old");
    }

    #[test]
    fn disjoint_partitions_do_not_conflict() {
        let lt = LockTable::new();
        assert!(lt.try_lock(1, k(0, 0), LockMode::Exclusive));
        assert!(lt.try_lock(2, k(0, 1), LockMode::Exclusive));
        assert!(lt.try_lock(3, k(1, 0), LockMode::Exclusive));
        assert_eq!(lt.total_held(), 3);
    }

    #[test]
    fn lock_until_times_out_when_held_elsewhere() {
        let lt = LockTable::new();
        assert!(lt.try_lock(1, k(0, 0), LockMode::Exclusive));
        let start = Instant::now();
        let res = lt.lock_until(2, k(0, 0), Instant::now() + Duration::from_millis(30));
        assert_eq!(res, Err(LockError::Timeout(k(0, 0))));
        assert!(start.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn waiter_is_woken_by_release() {
        let lt = std::sync::Arc::new(LockTable::new());
        assert!(lt.try_lock(1, k(0, 0), LockMode::Exclusive));
        let lt2 = std::sync::Arc::clone(&lt);
        let waiter = std::thread::spawn(move || {
            lt2.lock_until(2, k(0, 0), Instant::now() + Duration::from_secs(5))
        });
        std::thread::sleep(Duration::from_millis(20));
        lt.release_all(1);
        assert_eq!(waiter.join().unwrap(), Ok(()));
        assert_eq!(lt.held_by(2), 1);
    }

    #[test]
    fn release_hook_fires_only_when_something_was_freed() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let lt = std::sync::Arc::new(LockTable::new());
        let fired = std::sync::Arc::new(AtomicUsize::new(0));
        let (lt2, fired2) = (std::sync::Arc::clone(&lt), std::sync::Arc::clone(&fired));
        lt.set_release_hook(move || {
            // The table mutex is dropped and the table already updated:
            // the hook may take the freed lock itself.
            assert!(lt2.try_lock(99, k(0, 0), LockMode::Exclusive));
            fired2.fetch_add(1, Ordering::SeqCst);
        });
        lt.release_all(1); // holds nothing: no wake-up
        assert_eq!(fired.load(Ordering::SeqCst), 0);
        assert!(lt.try_lock(1, k(0, 0), LockMode::Exclusive));
        lt.release_all(1);
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        assert_eq!(lt.held_by(99), 1);
    }

    #[test]
    fn lock_all_sorts_and_dedups() {
        let lt = LockTable::new();
        let mut keys = vec![k(0, 3), k(0, 1), k(0, 3), k(0, 0)];
        lt.lock_all(5, &mut keys, Duration::from_millis(50)).unwrap();
        assert_eq!(keys, vec![k(0, 0), k(0, 1), k(0, 3)]);
        assert_eq!(lt.held_by(5), 3);
        lt.release_all(5);
        assert_eq!(lt.held_by(5), 0);
        assert_eq!(lt.total_held(), 0);
    }
}
