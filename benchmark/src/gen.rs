//! Seeded request generators. The program under test only ever sees the
//! SQL these produce; the same `--seed` yields the same statement streams.

use staged_storage::{partition_of_value, Value};

/// Rows of the `accounts` table (`oltp_transfer`, `htap_mix_*`).
pub const ACCOUNTS: i64 = 16_384;
/// Opening balance of every account.
pub const BALANCE: i64 = 100;
/// Hash partitions of every benchmark table (`ServerConfig::partitions`).
pub const PARTITIONS: usize = 2;
/// Rows of the Wisconsin table probed by `point_lookup`.
pub const LOOKUP_ROWS: usize = 20_000;
/// Rows of the Wisconsin table scanned by `scan_agg`.
pub const SCAN_ROWS: usize = 100_000;

/// The `scan_agg` statement (the headline query of `perf_trajectory`).
pub const SCAN_AGG_SQL: &str = "SELECT ten, COUNT(*), SUM(unique2), MIN(unique1), MAX(unique1) \
                                FROM big WHERE two = 0 GROUP BY ten";
/// The analytical side of the HTAP mix: a snapshot scan of `accounts`.
pub const MIX_SCAN_SQL: &str = "SELECT SUM(bal), COUNT(*) FROM accounts";

/// SplitMix64: tiny, seedable, and good enough to pick uniform keys.
pub struct Rng(u64);

impl Rng {
    /// A generator for `lane` (one per connection) of run `seed`.
    pub fn new(seed: u64, lane: u64) -> Self {
        let mut rng = Rng(seed ^ lane.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        rng.next_u64();
        rng
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` ≥ 1; modulo bias is irrelevant at these sizes).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The operation types the workloads issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `BEGIN; UPDATE -1; UPDATE +1; COMMIT` (1 in 8 `ROLLBACK`).
    Transfer,
    /// `SELECT * FROM big WHERE unique1 = k`.
    Lookup,
    /// [`SCAN_AGG_SQL`].
    ScanAgg,
    /// `BEGIN READ ONLY;` [`MIX_SCAN_SQL`]`; COMMIT`.
    MixScan,
}

/// What one generated operation touches, for the answer check and for the
/// ladder rungs that bypass SQL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Keys {
    /// `(account id, balance delta)` in canonical partition order, and
    /// whether the transaction commits.
    Transfer {
        /// The two legs.
        legs: [(i64, i64); 2],
        /// `false` = the transaction ends in `ROLLBACK`.
        commit: bool,
    },
    /// The probed `unique1`.
    Lookup(i64),
    /// No parameters.
    None,
}

/// One closed-loop operation: statements sent one at a time, each after
/// the previous reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    /// SQL statements, in order.
    pub stmts: Vec<String>,
    /// What they touch.
    pub keys: Keys,
}

/// A seeded stream of operations of one kind.
pub struct OpGen {
    kind: OpKind,
    rng: Rng,
}

impl OpGen {
    /// The stream connection `lane` of run `seed` issues.
    pub fn new(kind: OpKind, seed: u64, lane: u64) -> Self {
        Self { kind, rng: Rng::new(seed, lane) }
    }

    /// The next operation.
    pub fn next_op(&mut self) -> Op {
        match self.kind {
            OpKind::Transfer => {
                let from = self.rng.below(ACCOUNTS as u64) as i64;
                let to = self.rng.below(ACCOUNTS as u64) as i64;
                let commit = self.rng.below(8) != 0;
                // Canonical partition order: two writers that both need
                // both partitions can wait on each other but never deadlock.
                let part = |id: i64| partition_of_value(&Value::Int(id), PARTITIONS);
                let mut legs = [(from, -1), (to, 1)];
                legs.sort_by_key(|(id, _)| (part(*id), *id));
                let update = |(id, delta): (i64, i64)| {
                    let op = if delta < 0 { '-' } else { '+' };
                    format!("UPDATE accounts SET bal = bal {op} 1 WHERE id = {id}")
                };
                Op {
                    stmts: vec![
                        "BEGIN".into(),
                        update(legs[0]),
                        update(legs[1]),
                        if commit { "COMMIT" } else { "ROLLBACK" }.into(),
                    ],
                    keys: Keys::Transfer { legs, commit },
                }
            }
            OpKind::Lookup => {
                let k = self.rng.below(LOOKUP_ROWS as u64) as i64;
                Op {
                    stmts: vec![format!("SELECT * FROM big WHERE unique1 = {k}")],
                    keys: Keys::Lookup(k),
                }
            }
            OpKind::ScanAgg => Op { stmts: vec![SCAN_AGG_SQL.into()], keys: Keys::None },
            OpKind::MixScan => Op {
                stmts: vec!["BEGIN READ ONLY".into(), MIX_SCAN_SQL.into(), "COMMIT".into()],
                keys: Keys::None,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(kind: OpKind, seed: u64, lane: u64) -> Vec<Op> {
        let mut g = OpGen::new(kind, seed, lane);
        (0..200).map(|_| g.next_op()).collect()
    }

    #[test]
    fn same_seed_same_sql_stream_and_other_seed_differs() {
        for kind in [OpKind::Transfer, OpKind::Lookup] {
            assert_eq!(stream(kind, 42, 0), stream(kind, 42, 0));
            assert_ne!(stream(kind, 42, 0), stream(kind, 43, 0), "seed must matter");
            assert_ne!(stream(kind, 42, 0), stream(kind, 42, 1), "lanes must differ");
        }
    }

    #[test]
    fn transfers_touch_partitions_in_canonical_order_and_balance_out() {
        let part = |id: i64| partition_of_value(&Value::Int(id), PARTITIONS);
        let mut rollbacks = 0;
        for op in stream(OpKind::Transfer, 1, 0) {
            let Keys::Transfer { legs, commit } = op.keys else { panic!("not a transfer") };
            assert!(part(legs[0].0) <= part(legs[1].0));
            assert_eq!(legs[0].1 + legs[1].1, 0);
            assert_eq!(op.stmts.len(), 4);
            assert_eq!(op.stmts[3], if commit { "COMMIT" } else { "ROLLBACK" });
            rollbacks += usize::from(!commit);
        }
        assert!((5..=60).contains(&rollbacks), "about 1 in 8 of 200 roll back, got {rollbacks}");
    }
}
