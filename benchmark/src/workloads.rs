//! The workloads: closed-loop client connections against a [`World`],
//! answer checks on every reply, and the correctness gates that run after
//! the window.

use crate::gen::{Keys, Op, OpGen, OpKind, ACCOUNTS, BALANCE};
use crate::world::{empty_catalog, Dataset, World, FIT_POOL_FRAMES, WAL_SEGMENT_PAGES};
use staged_dbclient::{Client, QueryResult};
use staged_engine::checkpoint;
use staged_engine::context::ExecContext;
use staged_storage::{Catalog, Tuple, Value};
use staged_workload::wisconsin_rows;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One declared workload.
pub struct Workload {
    /// Name, as passed to `--workload` and declared in the manifest.
    pub name: &'static str,
    /// One line on why it exists (the manifest's `why`).
    pub why: &'static str,
    /// The data it runs over.
    pub dataset: Dataset,
    /// One closed-loop connection per entry, issuing that operation type.
    pub lanes: &'static [OpKind],
    /// The connection whose operations the end-to-end metrics describe.
    pub report_lane: usize,
    /// The tail percentile of `op_tail_us`: the highest that keeps ten
    /// samples beyond it in every slice of the window (`run::SLICES`).
    pub tail: f64,
}

/// The workloads, in manifest order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "oltp_transfer",
        why: "2 writers, 4 tiny statements per txn: net loop, wire, parse/bind, stage hops, \
              lock stage, DML and WAL commit are the whole cost; the scan path does almost nothing",
        dataset: Dataset::Accounts,
        lanes: &[OpKind::Transfer, OpKind::Transfer],
        report_lane: 0,
        tail: 99.0,
    },
    Workload {
        name: "point_lookup",
        why: "read-only twin of oltp_transfer over the same front end, no lock/WAL/commit work: \
              a front-end gain shows here and there, a commit-path gain only there",
        dataset: Dataset::Lookup,
        lanes: &[OpKind::Lookup, OpKind::Lookup],
        report_lane: 0,
        tail: 95.0,
    },
    Workload {
        name: "scan_agg",
        why: "100k-row scan+aggregate with the pool at 1/4 of the table: engine stages and \
              eviction are >95% of the work, so front-end, lock and WAL changes predict no change",
        dataset: Dataset::Scan,
        lanes: &[OpKind::ScanAgg],
        report_lane: 0,
        tail: 90.0,
    },
    // Reported from the reader's side: every workload must report every
    // end-to-end metric, so the mix has one reported operation type, and
    // the writer's figures swing ~35% run to run with the version
    // overlay's vacuum cycle (README). They are the `peer.*` layer metrics.
    Workload {
        name: "htap_mix",
        why: "transfers beside snapshot scans of the same table, checkpoint/vacuum cycling: a \
              commit that fattens the version overlay shows as a slower scan here and nowhere else",
        dataset: Dataset::Accounts,
        lanes: &[OpKind::Transfer, OpKind::MixScan],
        report_lane: 1,
        tail: 95.0,
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

type WireRow = Vec<Option<String>>;

/// Expected answers, computed from the generator and never from the
/// program under test.
pub struct Reference {
    /// `SELECT *` row of the lookup table, indexed by `unique1`.
    lookup: Vec<WireRow>,
    /// `scan_agg` result rows, sorted.
    scan_groups: Vec<WireRow>,
}

fn wire_row(t: &Tuple) -> WireRow {
    t.values()
        .iter()
        .map(|v| match v {
            Value::Null => None,
            Value::Str(s) => Some(s.clone()),
            other => Some(other.to_string()),
        })
        .collect()
}

impl Reference {
    /// Answers for `dataset` as loaded for run `seed`.
    pub fn build(dataset: Dataset, seed: u64) -> Reference {
        let rows = dataset.wisconsin_len().map_or_else(Vec::new, |n| wisconsin_rows(n, seed));
        let mut lookup = vec![Vec::new(); if dataset == Dataset::Lookup { rows.len() } else { 0 }];
        // ten -> (count, sum unique2, min unique1, max unique1) over two = 0.
        let mut groups: BTreeMap<i64, (i64, i64, i64, i64)> = BTreeMap::new();
        for row in &rows {
            let int = |col: usize| row.get(col).as_int().expect("int column");
            let (unique1, unique2, two, ten) = (int(0), int(1), int(2), int(4));
            if dataset == Dataset::Lookup {
                lookup[unique1 as usize] = wire_row(row);
            }
            if dataset == Dataset::Scan && two == 0 {
                let g = groups.entry(ten).or_insert((0, 0, i64::MAX, i64::MIN));
                *g = (g.0 + 1, g.1 + unique2, g.2.min(unique1), g.3.max(unique1));
            }
        }
        let mut scan_groups: Vec<WireRow> = groups
            .into_iter()
            .map(|(ten, (n, sum, min, max))| {
                [ten, n, sum, min, max].iter().map(|v| Some(v.to_string())).collect()
            })
            .collect();
        scan_groups.sort();
        Reference { lookup, scan_groups }
    }
}

/// Check the replies of one operation against the reference.
fn check(
    op: &Op,
    kind: OpKind,
    replies: &[QueryResult],
    reference: &Reference,
) -> Result<(), String> {
    match kind {
        OpKind::Transfer => {
            for reply in &replies[1..3] {
                if reply.tag != "UPDATE 1" {
                    return Err(format!("transfer leg answered {:?}", reply.tag));
                }
            }
            Ok(())
        }
        OpKind::Lookup => {
            let Keys::Lookup(k) = op.keys else { return Err("lookup without a key".into()) };
            if replies[0].rows.len() == 1 && replies[0].rows[0] == reference.lookup[k as usize] {
                Ok(())
            } else {
                Err(format!("lookup {k} answered {:?}", replies[0].rows))
            }
        }
        OpKind::ScanAgg => {
            let mut rows = replies[0].rows.clone();
            rows.sort();
            if rows == reference.scan_groups {
                Ok(())
            } else {
                Err(format!("scan_agg answered {rows:?}"))
            }
        }
        OpKind::MixScan => check_balanced(&replies[1]),
    }
}

/// The transfer invariant: money moves, the total does not.
fn check_balanced(reply: &QueryResult) -> Result<(), String> {
    let want = vec![vec![Some((ACCOUNTS * BALANCE).to_string()), Some(ACCOUNTS.to_string())]];
    if reply.rows == want {
        Ok(())
    } else {
        Err(format!("SUM(bal), COUNT(*) answered {:?}, want {want:?}", reply.rows))
    }
}

/// Run one operation over the wire: each statement after the previous
/// reply. Any refused, errored or wrong reply fails the whole operation.
pub fn run_op(
    client: &mut Client,
    op: &Op,
    kind: OpKind,
    reference: &Reference,
) -> Result<(), String> {
    let mut replies = Vec::with_capacity(op.stmts.len());
    for sql in &op.stmts {
        match client.query(sql) {
            Ok(reply) => replies.push(reply),
            Err(e) => {
                if op.stmts.len() > 1 {
                    // Leave the session outside any transaction.
                    let _ = client.rollback();
                }
                return Err(format!("{sql}: {e:?}"));
            }
        }
    }
    check(op, kind, &replies, reference)
}

/// What one connection measured.
#[derive(Default)]
pub struct Lane {
    /// `(completion offset from window start, latency)` in nanoseconds,
    /// for every correct operation that started and ended in the window.
    pub samples: Vec<(u64, u64)>,
    /// Operations counted: every one in the window, plus failures outside.
    pub attempted: u64,
    /// Failed operations, wherever they happened.
    pub failed: u64,
    /// The first failure, for the report.
    pub first_error: Option<String>,
}

/// Drive `workload`'s connections against `addr` in a closed loop:
/// `warmup` unmeasured, then `window` measured. `snap` is called at the
/// window's start and end (counter snapshots; `|| ()` when not needed).
pub fn drive<T>(
    addr: SocketAddr,
    workload: &Workload,
    seed: u64,
    reference: &Reference,
    warmup: Duration,
    window: Duration,
    snap: impl Fn() -> T,
) -> (Vec<Lane>, T, T) {
    let mut clients: Vec<Client> = workload
        .lanes
        .iter()
        .map(|_| Client::connect_timeout(addr, Duration::from_secs(10)).expect("connect"))
        .collect();
    let t_start = Instant::now() + warmup;
    let t_end = t_start + window;
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(workload.lanes)
            .enumerate()
            .map(|(lane_no, (client, kind))| {
                scope.spawn(move || {
                    let mut gen = OpGen::new(*kind, seed, lane_no as u64);
                    let mut lane = Lane::default();
                    lane.samples.reserve(1 << 16);
                    loop {
                        let op = gen.next_op();
                        let t0 = Instant::now();
                        if t0 >= t_end {
                            return lane;
                        }
                        let res = run_op(client, &op, *kind, reference);
                        let t1 = Instant::now();
                        let in_window = t0 >= t_start && t1 <= t_end;
                        match res {
                            Ok(()) if in_window => {
                                lane.attempted += 1;
                                lane.samples.push((
                                    t1.duration_since(t_start).as_nanos() as u64,
                                    t1.duration_since(t0).as_nanos() as u64,
                                ));
                            }
                            Ok(()) => {}
                            Err(e) => {
                                lane.attempted += 1;
                                lane.failed += 1;
                                lane.first_error.get_or_insert(e);
                            }
                        }
                    }
                })
            })
            .collect();
        std::thread::sleep(t_start.saturating_duration_since(Instant::now()));
        let before = snap();
        std::thread::sleep(t_end.saturating_duration_since(Instant::now()));
        let after = snap();
        let lanes = handles.into_iter().map(|h| h.join().expect("client thread")).collect();
        (lanes, before, after)
    })
}

/// The window cut into `k` equal slices: the `(completion offset,
/// latency)` samples of the operations that completed in each.
pub fn slices(samples: &[(u64, u64)], window: Duration, k: usize) -> Vec<Vec<(u64, u64)>> {
    let width = (window.as_nanos() as u64 / k as u64).max(1);
    let mut out = vec![Vec::new(); k];
    for sample in samples {
        out[((sample.0 / width) as usize).min(k - 1)].push(*sample);
    }
    out
}

/// Operations per second within one slice, from its first completion to
/// its last (a count over a fixed width would step in whole operations).
pub fn slice_rate(slice: &[(u64, u64)]) -> f64 {
    let first = slice.iter().map(|s| s.0).min().unwrap_or(0);
    let last = slice.iter().map(|s| s.0).max().unwrap_or(0);
    if last == first {
        return 0.0;
    }
    (slice.len() - 1) as f64 / ((last - first) as f64 / 1e9)
}

/// Committed transfers the write gate appends after its checkpoint, so
/// that recovery has a WAL tail to replay on top of the snapshot.
const TAIL_TRANSFERS: usize = 64;

/// Gate for the write workloads, over the wire after the window:
/// `CHECKPOINT`, then [`TAIL_TRANSFERS`] committed transfers, then the
/// balanced-sum invariant. The tail is commit-only on purpose: on the
/// seed code a row relocated by a `ROLLBACK` and updated again before the
/// next checkpoint is replayed as a duplicate by recovery (see README,
/// "Known defect"), and a benchmark's workloads must be ones the program
/// gets right.
pub fn gate_balanced(addr: SocketAddr, seed: u64, reference: &Reference) -> Result<(), String> {
    let mut client =
        Client::connect_timeout(addr, Duration::from_secs(10)).map_err(|e| format!("{e:?}"))?;
    client.checkpoint().map_err(|e| format!("checkpoint: {e:?}"))?;
    let mut gen = OpGen::new(OpKind::Transfer, seed, u64::MAX);
    let mut done = 0;
    while done < TAIL_TRANSFERS {
        let op = gen.next_op();
        if matches!(op.keys, Keys::Transfer { commit: true, .. }) {
            run_op(&mut client, &op, OpKind::Transfer, reference)?;
            done += 1;
        }
    }
    let reply = client
        .query(crate::gen::MIX_SCAN_SQL)
        .map_err(|e| format!("final balance query: {e:?}"))?;
    let _ = client.quit();
    check_balanced(&reply)
}

fn table_rows(catalog: &Catalog, table: &str) -> Result<Vec<Tuple>, String> {
    let info = catalog.table(table).map_err(|e| e.to_string())?;
    let mut rows = Vec::new();
    for row in info.heap.scan() {
        rows.push(row.map_err(|e| e.to_string())?.1);
    }
    rows.sort_by(|a, b| a.get(0).total_cmp(b.get(0)));
    Ok(rows)
}

/// Gate: after the server has stopped, `checkpoint::recover` from the
/// run's snapshot and WAL segments into an empty catalog must reproduce
/// the live `table`. Read-only workloads pass `None`: recovery of their
/// (empty) log is still timed, there is just nothing to compare. Returns
/// the recovery time in milliseconds.
pub fn gate_recovery(world: &World, table: Option<&str>) -> Result<f64, String> {
    let empty = empty_catalog(FIT_POOL_FRAMES);
    let ctx = ExecContext::new(Arc::clone(&empty));
    let t0 = Instant::now();
    let (_wal, report) = checkpoint::recover(
        &ctx,
        Arc::clone(&world.segments) as _,
        world.snapshots.as_ref(),
        WAL_SEGMENT_PAGES,
    )
    .map_err(|e| format!("recover: {e}"))?;
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    if let Some(damage) = report.corruption {
        return Err(format!("recovery found log damage: {damage}"));
    }
    let Some(table) = table else { return Ok(ms) };
    let live = table_rows(&world.catalog, table)?;
    let recovered = table_rows(&empty, table)?;
    if recovered != live {
        let differing = live.iter().zip(&recovered).filter(|(a, b)| a != b).count();
        return Err(format!(
            "recovered table differs from live: {} vs {} rows, {differing} differing",
            recovered.len(),
            live.len()
        ));
    }
    Ok(ms)
}
