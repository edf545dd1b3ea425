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

/// Lock modes. Shared locks are compatible with each other; exclusive
/// locks are compatible with nothing (except locks of the same owner).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// Read lock.
    Shared,
    /// Write lock.
    Exclusive,
}

/// Why a lock request failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LockError {
    /// The deadline passed while waiting (presumed deadlock).
    Timeout(LockKey),
}

#[derive(Default)]
struct LockState {
    /// Current owners; all `Shared`, or exactly one `Exclusive`.
    owners: Vec<(u64, LockMode)>,
}

impl LockState {
    fn grantable(&self, xid: u64, mode: LockMode) -> bool {
        match mode {
            LockMode::Shared => {
                self.owners.iter().all(|(o, m)| *o == xid || *m == LockMode::Shared)
            }
            LockMode::Exclusive => self.owners.iter().all(|(o, _)| *o == xid),
        }
    }

    fn grant(&mut self, xid: u64, mode: LockMode) {
        match self.owners.iter_mut().find(|(o, _)| *o == xid) {
            Some(entry) => {
                // Re-acquisition; upgrade S→X in place when requested.
                if mode == LockMode::Exclusive {
                    entry.1 = LockMode::Exclusive;
                }
            }
            None => self.owners.push((xid, mode)),
        }
    }
}

#[derive(Default)]
struct TableInnerState {
    locks: HashMap<LockKey, LockState>,
    /// Reverse map: which keys each transaction holds (for release_all).
    held: HashMap<u64, Vec<LockKey>>,
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

    /// Try to acquire `key` in `mode` for `xid` without waiting. Returns
    /// `true` on grant (idempotent for locks already held).
    pub fn try_lock(&self, xid: u64, key: LockKey, mode: LockMode) -> bool {
        let mut inner = self.inner.lock();
        let state = inner.locks.entry(key).or_default();
        if !state.grantable(xid, mode) {
            return false;
        }
        let newly = !state.owners.iter().any(|(o, _)| *o == xid);
        state.grant(xid, mode);
        if newly {
            inner.held.entry(xid).or_default().push(key);
        }
        true
    }

    /// Acquire `key` in `mode` for `xid`, waiting up to the `deadline`.
    /// This is the *sequential* acquisition path used by the Volcano
    /// engine; the staged lock stage uses [`try_lock`](Self::try_lock) and
    /// requeues its packet instead of blocking a stage worker.
    pub fn lock_until(
        &self,
        xid: u64,
        key: LockKey,
        mode: LockMode,
        deadline: Instant,
    ) -> Result<(), LockError> {
        let mut inner = self.inner.lock();
        loop {
            let state = inner.locks.entry(key).or_default();
            if state.grantable(xid, mode) {
                let newly = !state.owners.iter().any(|(o, _)| *o == xid);
                state.grant(xid, mode);
                if newly {
                    inner.held.entry(xid).or_default().push(key);
                }
                return Ok(());
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(LockError::Timeout(key));
            }
            let res = self.released.wait_for(&mut inner, deadline - now);
            if res.timed_out() {
                // Fall through: one last grantability check above, then the
                // deadline test fails the request.
            }
        }
    }

    /// Acquire a set of keys in deterministic (sorted) order with one
    /// overall timeout. Partial acquisitions are *kept* on timeout — the
    /// caller is aborting the transaction anyway and `release_all` cleans
    /// up; keeping them is what strict 2PL requires on success paths.
    pub fn lock_all(
        &self,
        xid: u64,
        keys: &mut Vec<LockKey>,
        mode: LockMode,
        timeout: Duration,
    ) -> Result<(), LockError> {
        keys.sort_unstable();
        keys.dedup();
        let deadline = Instant::now() + timeout;
        for key in keys.iter() {
            self.lock_until(xid, *key, mode, deadline)?;
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
            if let Some(state) = inner.locks.get_mut(&key) {
                state.owners.retain(|(o, _)| *o != xid);
                if state.owners.is_empty() {
                    inner.locks.remove(&key);
                }
            }
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
    fn shared_locks_coexist_exclusive_does_not() {
        let lt = LockTable::new();
        assert!(lt.try_lock(1, k(0, 0), LockMode::Shared));
        assert!(lt.try_lock(2, k(0, 0), LockMode::Shared));
        assert!(!lt.try_lock(3, k(0, 0), LockMode::Exclusive));
        lt.release_all(1);
        assert!(!lt.try_lock(3, k(0, 0), LockMode::Exclusive), "xid 2 still holds S");
        lt.release_all(2);
        assert!(lt.try_lock(3, k(0, 0), LockMode::Exclusive));
        assert!(!lt.try_lock(1, k(0, 0), LockMode::Shared), "X blocks S");
    }

    #[test]
    fn reacquisition_and_upgrade_are_idempotent() {
        let lt = LockTable::new();
        assert!(lt.try_lock(7, k(1, 0), LockMode::Shared));
        assert!(lt.try_lock(7, k(1, 0), LockMode::Shared));
        assert_eq!(lt.held_by(7), 1);
        // Sole owner may upgrade in place.
        assert!(lt.try_lock(7, k(1, 0), LockMode::Exclusive));
        assert!(!lt.try_lock(8, k(1, 0), LockMode::Shared));
        // Upgrade with another reader present must wait.
        assert!(lt.try_lock(7, k(1, 1), LockMode::Shared));
        assert!(lt.try_lock(8, k(1, 1), LockMode::Shared));
        assert!(!lt.try_lock(7, k(1, 1), LockMode::Exclusive));
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
        let res =
            lt.lock_until(2, k(0, 0), LockMode::Shared, Instant::now() + Duration::from_millis(30));
        assert_eq!(res, Err(LockError::Timeout(k(0, 0))));
        assert!(start.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn waiter_is_woken_by_release() {
        let lt = std::sync::Arc::new(LockTable::new());
        assert!(lt.try_lock(1, k(0, 0), LockMode::Exclusive));
        let lt2 = std::sync::Arc::clone(&lt);
        let waiter = std::thread::spawn(move || {
            lt2.lock_until(2, k(0, 0), LockMode::Exclusive, Instant::now() + Duration::from_secs(5))
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
        lt.lock_all(5, &mut keys, LockMode::Exclusive, Duration::from_millis(50)).unwrap();
        assert_eq!(keys, vec![k(0, 0), k(0, 1), k(0, 3)]);
        assert_eq!(lt.held_by(5), 3);
        lt.release_all(5);
        assert_eq!(lt.held_by(5), 0);
        assert_eq!(lt.total_held(), 0);
    }
}
