//! The planning algorithm: predicate pushdown, access-path selection,
//! join ordering and physical operator choice.

use crate::estimate::{conjunct_selectivity, sargable_bounds, CostModel, Estimate};
use crate::plan::{col_at, partial_agg_specs, shift_columns, substitute, AggSpec, PhysicalPlan};
use staged_sql::ast::{BinOp, Expr};
use staged_sql::binder::BoundSelect;
use staged_sql::error::{SqlError, SqlResult};
use staged_sql::rewrite::{join_conjuncts, split_conjuncts};
use staged_storage::catalog::TableInfo;
use staged_storage::stats::TableStats;
use staged_storage::{partition_of_value, Catalog, DataType, Value};
use std::sync::Arc;

/// Beyond this many FROM tables the planner switches from exhaustive DP to
/// a greedy heuristic.
pub const DP_TABLE_LIMIT: usize = 10;

/// Planner feature switches (used by tests and the ablation benches).
#[derive(Debug, Clone)]
pub struct PlannerConfig {
    /// Consider B+tree index scans.
    pub enable_index_scan: bool,
    /// Consider hash joins for equijoins.
    pub enable_hash_join: bool,
    /// Consider sort-merge joins for equijoins.
    pub enable_merge_join: bool,
    /// Use an index scan when the estimated selectivity is below this.
    pub index_selectivity_threshold: f64,
    /// Fan scans of hash-partitioned tables out into per-partition partial
    /// scans under an Exchange, with two-phase aggregation above them
    /// (paper §6). When off, partitioned tables are scanned serially.
    pub enable_partition_parallel: bool,
    /// Cost model constants.
    pub cost: CostModel,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        Self {
            enable_index_scan: true,
            enable_hash_join: true,
            enable_merge_join: true,
            index_selectivity_threshold: 0.2,
            enable_partition_parallel: true,
            cost: CostModel::default(),
        }
    }
}

/// A candidate subplan during join enumeration.
#[derive(Clone)]
struct Cand {
    plan: PhysicalPlan,
    est: Estimate,
    /// Table indices (into the FROM list) in output-column order.
    order: Vec<usize>,
}

/// Plan a bound SELECT into a physical plan.
pub fn plan_select(
    bound: &BoundSelect,
    catalog: &Catalog,
    config: &PlannerConfig,
) -> SqlResult<PhysicalPlan> {
    let stmt = &bound.stmt;
    let tables = &bound.tables;
    if tables.is_empty() {
        return plan_tableless(bound);
    }
    let lens: Vec<usize> = tables.iter().map(|t| t.info.schema.len()).collect();
    let offsets: Vec<usize> = tables.iter().map(|t| t.offset).collect();
    let all_stats: Vec<TableStats> = tables.iter().map(|t| t.info.stats.read().clone()).collect();

    // 1. Split and classify the WHERE conjuncts.
    let conjuncts = match &stmt.filter {
        Some(f) => split_conjuncts(f.clone()),
        None => Vec::new(),
    };
    let mut per_table: Vec<Vec<Expr>> = vec![Vec::new(); tables.len()];
    let mut equi_edges: Vec<(usize, usize, usize, usize, Expr)> = Vec::new(); // (tl, tr, scope_l, scope_r, expr)
    let mut general: Vec<(u64, Expr)> = Vec::new(); // (table mask, expr)
    let mut applied_general = vec![false; 0];
    for c in conjuncts {
        let mask = tables_mask(&c, &offsets, &lens);
        if mask.count_ones() == 1 {
            let t = mask.trailing_zeros() as usize;
            per_table[t].push(rebase_columns(&c, offsets[t]));
        } else if mask.count_ones() == 2 {
            if let Some((sl, sr)) = as_equi_columns(&c) {
                let tl = owner_table(sl, &offsets, &lens).expect("bound column");
                let tr = owner_table(sr, &offsets, &lens).expect("bound column");
                if tl != tr {
                    let (tl, tr, sl, sr) =
                        if tl < tr { (tl, tr, sl, sr) } else { (tr, tl, sr, sl) };
                    equi_edges.push((tl, tr, sl, sr, c));
                    continue;
                }
            }
            general.push((mask, c));
        } else {
            general.push((mask, c));
        }
    }
    applied_general.resize(general.len(), false);

    // 2. Base access paths.
    let mut base: Vec<Cand> = Vec::with_capacity(tables.len());
    for (t, info) in tables.iter().enumerate() {
        let (plan, est) =
            plan_access_path(&info.info, &all_stats[t], per_table[t].clone(), catalog, config);
        base.push(Cand { plan, est, order: vec![t] });
    }

    // 3. Join enumeration.
    let joined = if tables.len() == 1 {
        base.into_iter().next().expect("one base plan")
    } else if tables.len() <= DP_TABLE_LIMIT {
        enumerate_dp(base, &equi_edges, &general, &lens, &offsets, &all_stats, config)?
    } else {
        enumerate_greedy(base, &equi_edges, &general, &lens, &offsets, &all_stats, config)?
    };
    let mut order = joined.order.clone();
    let mut plan = joined.plan;
    let rows_after_join = joined.est.rows;

    // 4. Restore scope column order if joins permuted it.
    if order != (0..tables.len()).collect::<Vec<_>>() {
        let mut exprs = Vec::with_capacity(bound.scope.len());
        for scope_idx in 0..bound.scope.len() {
            let pos = layout_index(&order, &lens, &offsets, scope_idx)
                .ok_or_else(|| SqlError::new("internal: column lost during join ordering"))?;
            exprs.push(col_at(pos));
        }
        plan = PhysicalPlan::Project { input: Box::new(plan), exprs, schema: bound.scope.clone() };
        order = (0..tables.len()).collect();
        let _ = &order;
    }

    // 5. Any general conjuncts not applied inside the join tree (e.g.
    // constant predicates) become a top filter.
    let leftovers: Vec<Expr> = general.into_iter().map(|(_, e)| e).collect();
    // (Conjuncts spanning ≥2 tables were consumed during enumeration; the
    // enumerators remove what they apply. Anything still here references 0
    // tables or was simply never coverable.)
    if let Some(pred) = join_conjuncts(leftovers) {
        plan = PhysicalPlan::Filter { input: Box::new(plan), predicate: pred };
    }

    // 6. Aggregation, HAVING, projection, DISTINCT, ORDER BY, LIMIT.
    let grouped = !stmt.group_by.is_empty()
        || bound.projections.iter().any(Expr::contains_agg)
        || stmt.having.as_ref().is_some_and(Expr::contains_agg);

    let mut projections = bound.projections.clone();
    let mut order_exprs: Vec<(Expr, bool)> = stmt.order_by.clone();
    if grouped {
        let mut aggs: Vec<AggSpec> = Vec::new();
        let mut agg_exprs: Vec<Expr> = Vec::new();
        let mut collect = |e: &Expr| collect_aggs(e, &mut aggs, &mut agg_exprs);
        for p in &projections {
            collect(p);
        }
        if let Some(h) = &stmt.having {
            collect(h);
        }
        for (e, _) in &order_exprs {
            collect(e);
        }
        let g = stmt.group_by.len();
        let mut map: Vec<(Expr, usize)> = Vec::new();
        for (i, ge) in stmt.group_by.iter().enumerate() {
            map.push((ge.clone(), i));
        }
        for (j, ae) in agg_exprs.iter().enumerate() {
            map.push((ae.clone(), g + j));
        }
        plan = build_aggregate(plan, stmt.group_by.clone(), aggs);
        if let Some(h) = &stmt.having {
            let rewritten = substitute(h, &map)
                .ok_or_else(|| SqlError::new("HAVING uses an expression not in GROUP BY"))?;
            plan = PhysicalPlan::Filter { input: Box::new(plan), predicate: rewritten };
        }
        projections = projections
            .iter()
            .map(|p| {
                substitute(p, &map)
                    .ok_or_else(|| SqlError::new("projection uses an expression not in GROUP BY"))
            })
            .collect::<SqlResult<Vec<_>>>()?;
        order_exprs = order_exprs
            .into_iter()
            .map(|(e, asc)| {
                substitute(&e, &map)
                    .map(|e2| (e2, asc))
                    .ok_or_else(|| SqlError::new("ORDER BY uses an expression not in GROUP BY"))
            })
            .collect::<SqlResult<Vec<_>>>()?;
    }

    if stmt.distinct {
        // Sort must run over the projected output so DISTINCT and ORDER BY
        // compose: rewrite order keys against the projection list.
        let proj_map: Vec<(Expr, usize)> =
            projections.iter().cloned().enumerate().map(|(i, e)| (e, i)).collect();
        let rewritten_order = order_exprs
            .iter()
            .map(|(e, asc)| substitute(e, &proj_map).map(|e2| (e2, *asc)))
            .collect::<Option<Vec<_>>>();
        plan = PhysicalPlan::Project {
            input: Box::new(plan),
            exprs: projections,
            schema: bound.output.clone(),
        };
        plan = PhysicalPlan::Distinct { input: Box::new(plan) };
        if !order_exprs.is_empty() {
            let keys = rewritten_order.ok_or_else(|| {
                SqlError::new("ORDER BY with DISTINCT must use selected expressions")
            })?;
            plan = PhysicalPlan::Sort { input: Box::new(plan), keys };
        }
    } else {
        if !order_exprs.is_empty() {
            plan = PhysicalPlan::Sort { input: Box::new(plan), keys: order_exprs };
        }
        plan = PhysicalPlan::Project {
            input: Box::new(plan),
            exprs: projections,
            schema: bound.output.clone(),
        };
    }

    if let Some(n) = stmt.limit {
        plan = PhysicalPlan::Limit { input: Box::new(plan), n };
    }
    let _ = rows_after_join;
    Ok(plan)
}

/// Plan a FROM-less SELECT (`SELECT 1 + 1`): a one-row projection.
fn plan_tableless(bound: &BoundSelect) -> SqlResult<PhysicalPlan> {
    // A Project over a synthetic single-row input; the executor treats a
    // Project with no input tables via a HashAggregate-free path. We model
    // it as Project over an empty SeqScan-less plan: reuse Limit over
    // nothing is messy, so the engine provides a OneRow marker via
    // HashAggregate with no groups and no aggs — instead, the simplest
    // correct encoding: Project over a Values-like one-row plan is not in
    // the enum, so we rely on `SELECT` without FROM never reaching scans:
    // encode as HashAggregate over an empty SeqScan? No table exists.
    // Practical choice: a Project whose input is a zero-input
    // HashAggregate is wrong; instead the engine special-cases
    // `PhysicalPlan::Project` with `input = Limit(n=1) over Distinct` —
    // overly clever. We instead return an error; the server evaluates
    // FROM-less SELECTs directly in the parse stage (constant folding
    // reduces them to literals).
    let all_const = bound.projections.iter().all(|e| matches!(e, Expr::Literal(_)));
    if all_const {
        Err(SqlError::new("FROM-less SELECT is evaluated by the front end"))
    } else {
        Err(SqlError::new("SELECT without FROM supports only constant expressions"))
    }
}

/// Choose between a sequential scan and an index scan for one table.
fn plan_access_path(
    table: &Arc<TableInfo>,
    stats: &TableStats,
    conjuncts: Vec<Expr>,
    catalog: &Catalog,
    config: &PlannerConfig,
) -> (PhysicalPlan, Estimate) {
    let rows = stats.row_count.max(1) as f64;
    let pages = stats.page_count.max(1) as f64;
    let cm = &config.cost;
    // Combined selectivity of all pushed conjuncts.
    let sel_all: f64 =
        conjuncts.iter().map(|c| conjunct_selectivity(stats, c)).product::<f64>().clamp(0.0, 1.0);
    let seq_est = Estimate::new(
        rows * sel_all,
        pages * cm.seq_page + rows * (cm.cpu_tuple + conjuncts.len() as f64 * cm.cpu_pred),
    );

    // (conjunct index, key bounds, selectivity, index) of the best sargable
    // index found so far.
    type IndexChoice =
        (usize, (Option<i64>, Option<i64>), f64, Arc<staged_storage::catalog::IndexInfo>);
    let mut best_index: Option<IndexChoice> = None;
    if config.enable_index_scan {
        for ix in catalog.indexes_for(table.id) {
            for (ci, c) in conjuncts.iter().enumerate() {
                if let Some(bounds) = sargable_bounds(c, ix.column) {
                    let sel = conjunct_selectivity(stats, c);
                    if sel < config.index_selectivity_threshold
                        && best_index.as_ref().is_none_or(|(_, _, s, _)| sel < *s)
                    {
                        best_index = Some((ci, bounds, sel, Arc::clone(&ix)));
                    }
                }
            }
        }
    }
    if let Some((ci, (lo, hi), sel, ix)) = best_index {
        // Residual conjuncts = everything except the one the index covers.
        let residual: Vec<Expr> = conjuncts
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != ci)
            .map(|(_, e)| e.clone())
            .collect();
        let matched = rows * sel;
        let residual_sel: f64 = residual
            .iter()
            .map(|c| conjunct_selectivity(stats, c))
            .product::<f64>()
            .clamp(0.0, 1.0);
        let est = Estimate::new(
            matched * residual_sel,
            3.0 * cm.random_page + matched * (cm.random_page + cm.cpu_tuple),
        );
        if est.cost < seq_est.cost {
            let plan = PhysicalPlan::IndexScan {
                table: Arc::clone(table),
                index: ix,
                lo,
                hi,
                predicate: join_conjuncts(residual),
                snapshot: None,
            };
            return (plan, est);
        }
        // Index lost on cost: fall through to the sequential scan, which
        // keeps the full conjunct list.
    }
    let nparts = table.partitions();
    if nparts > 1 && config.enable_partition_parallel {
        return plan_partitioned_scan(table, conjuncts, nparts, seq_est);
    }
    let plan = PhysicalPlan::SeqScan {
        table: Arc::clone(table),
        predicate: join_conjuncts(conjuncts),
        snapshot: None,
    };
    (plan, seq_est)
}

/// Partition-parallel access path: N partial scans under an Exchange, or a
/// single pruned partition scan when a conjunct pins the hash key.
fn plan_partitioned_scan(
    table: &Arc<TableInfo>,
    conjuncts: Vec<Expr>,
    nparts: usize,
    seq_est: Estimate,
) -> (PhysicalPlan, Estimate) {
    let key = table.partition_key();
    // Pruning is only sound when the key column is INT: then every stored
    // key is an Int (schema-validated) and hashes exactly like the pinned
    // literal. The full conjunct list stays on the scan — hashing is not
    // injective, so the pinned partition still holds non-matching rows.
    let pinned = (table.schema.column(key).ty == DataType::Int)
        .then(|| {
            conjuncts.iter().find_map(|c| match sargable_bounds(c, key) {
                Some((Some(lo), Some(hi))) if lo == hi => Some(lo),
                _ => None,
            })
        })
        .flatten();
    let predicate = join_conjuncts(conjuncts);
    match pinned {
        Some(k) => {
            let plan = PhysicalPlan::PartitionScan {
                table: Arc::clone(table),
                partition: partition_of_value(&Value::Int(k), nparts),
                predicate,
                snapshot: None,
            };
            // One partition's worth of pages and rows.
            let est = Estimate::new(seq_est.rows, seq_est.cost / nparts as f64);
            (plan, est)
        }
        None => {
            let inputs = (0..nparts)
                .map(|p| PhysicalPlan::PartitionScan {
                    table: Arc::clone(table),
                    partition: p,
                    predicate: predicate.clone(),
                    snapshot: None,
                })
                .collect();
            // Same total work; the win is wall-clock parallelism, which the
            // serial cost model does not price.
            (PhysicalPlan::Exchange { inputs }, seq_est)
        }
    }
}

/// Place the aggregation operator. Directly above a partition-parallel
/// Exchange the aggregate splits into two phases: per-partition partial
/// HashAggregates (running inside each partial pipeline) converging at a
/// MergeAggregate that combines partial states. DISTINCT aggregates cannot
/// be combined from partials, so they stay single-phase above the union.
fn build_aggregate(input: PhysicalPlan, group_by: Vec<Expr>, aggs: Vec<AggSpec>) -> PhysicalPlan {
    if let PhysicalPlan::Exchange { inputs } = input {
        if aggs.iter().all(|a| !a.distinct) {
            let partial = partial_agg_specs(&aggs);
            let inputs = inputs
                .into_iter()
                .map(|i| PhysicalPlan::HashAggregate {
                    input: Box::new(i),
                    group_by: group_by.clone(),
                    aggs: partial.clone(),
                })
                .collect();
            return PhysicalPlan::MergeAggregate { inputs, group_by_len: group_by.len(), aggs };
        }
        return PhysicalPlan::HashAggregate {
            input: Box::new(PhysicalPlan::Exchange { inputs }),
            group_by,
            aggs,
        };
    }
    PhysicalPlan::HashAggregate { input: Box::new(input), group_by, aggs }
}

fn collect_aggs(expr: &Expr, aggs: &mut Vec<AggSpec>, agg_exprs: &mut Vec<Expr>) {
    match expr {
        Expr::Agg { func, arg, distinct } => {
            if !agg_exprs.contains(expr) {
                agg_exprs.push(expr.clone());
                aggs.push(AggSpec {
                    func: *func,
                    arg: arg.as_deref().cloned(),
                    distinct: *distinct,
                });
            }
        }
        Expr::Literal(_) | Expr::Column(_) => {}
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } | Expr::Like { expr, .. } => {
            collect_aggs(expr, aggs, agg_exprs)
        }
        Expr::Binary { left, right, .. } => {
            collect_aggs(left, aggs, agg_exprs);
            collect_aggs(right, aggs, agg_exprs);
        }
        Expr::Between { expr, lo, hi, .. } => {
            collect_aggs(expr, aggs, agg_exprs);
            collect_aggs(lo, aggs, agg_exprs);
            collect_aggs(hi, aggs, agg_exprs);
        }
        Expr::InList { expr, list, .. } => {
            collect_aggs(expr, aggs, agg_exprs);
            list.iter().for_each(|e| collect_aggs(e, aggs, agg_exprs));
        }
    }
}

/// Bitmask of FROM tables referenced by an expression (scope-bound).
fn tables_mask(expr: &Expr, offsets: &[usize], lens: &[usize]) -> u64 {
    let mut mask = 0u64;
    expr.visit_columns(&mut |c| {
        if let Some(i) = c.index {
            if let Some(t) = owner_table(i, offsets, lens) {
                mask |= 1 << t;
            }
        }
    });
    mask
}

fn owner_table(scope_idx: usize, offsets: &[usize], lens: &[usize]) -> Option<usize> {
    (0..offsets.len()).find(|&t| scope_idx >= offsets[t] && scope_idx < offsets[t] + lens[t])
}

/// `col = col` between two different tables?
fn as_equi_columns(expr: &Expr) -> Option<(usize, usize)> {
    if let Expr::Binary { left, op: BinOp::Eq, right } = expr {
        if let (Expr::Column(a), Expr::Column(b)) = (&**left, &**right) {
            return Some((a.index?, b.index?));
        }
    }
    None
}

/// Rebase scope-relative column indexes to table-local ones.
fn rebase_columns(expr: &Expr, offset: usize) -> Expr {
    let mut e = expr.clone();
    rebase_in_place(&mut e, offset);
    e
}

fn rebase_in_place(expr: &mut Expr, offset: usize) {
    match expr {
        Expr::Column(c) => {
            if let Some(i) = c.index {
                c.index = Some(i - offset);
            }
        }
        Expr::Literal(_) => {}
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } | Expr::Like { expr, .. } => {
            rebase_in_place(expr, offset)
        }
        Expr::Binary { left, right, .. } => {
            rebase_in_place(left, offset);
            rebase_in_place(right, offset);
        }
        Expr::Between { expr, lo, hi, .. } => {
            rebase_in_place(expr, offset);
            rebase_in_place(lo, offset);
            rebase_in_place(hi, offset);
        }
        Expr::InList { expr, list, .. } => {
            rebase_in_place(expr, offset);
            list.iter_mut().for_each(|e| rebase_in_place(e, offset));
        }
        Expr::Agg { arg, .. } => {
            if let Some(a) = arg {
                rebase_in_place(a, offset);
            }
        }
    }
}

/// Position of a scope column in the concatenated layout given a table
/// output order.
fn layout_index(
    order: &[usize],
    lens: &[usize],
    offsets: &[usize],
    scope_idx: usize,
) -> Option<usize> {
    let t = owner_table(scope_idx, offsets, lens)?;
    let mut pos = 0;
    for &o in order {
        if o == t {
            return Some(pos + (scope_idx - offsets[t]));
        }
        pos += lens[o];
    }
    None
}

/// Rewrite a scope-bound expression against a concatenated layout.
fn remap_expr(expr: &Expr, order: &[usize], lens: &[usize], offsets: &[usize]) -> Option<Expr> {
    let mut e = expr.clone();
    let mut ok = true;
    remap_in_place(&mut e, order, lens, offsets, &mut ok);
    ok.then_some(e)
}

fn remap_in_place(
    expr: &mut Expr,
    order: &[usize],
    lens: &[usize],
    offsets: &[usize],
    ok: &mut bool,
) {
    match expr {
        Expr::Column(c) => match c.index.and_then(|i| layout_index(order, lens, offsets, i)) {
            Some(p) => c.index = Some(p),
            None => *ok = false,
        },
        Expr::Literal(_) => {}
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } | Expr::Like { expr, .. } => {
            remap_in_place(expr, order, lens, offsets, ok)
        }
        Expr::Binary { left, right, .. } => {
            remap_in_place(left, order, lens, offsets, ok);
            remap_in_place(right, order, lens, offsets, ok);
        }
        Expr::Between { expr, lo, hi, .. } => {
            remap_in_place(expr, order, lens, offsets, ok);
            remap_in_place(lo, order, lens, offsets, ok);
            remap_in_place(hi, order, lens, offsets, ok);
        }
        Expr::InList { expr, list, .. } => {
            remap_in_place(expr, order, lens, offsets, ok);
            list.iter_mut().for_each(|e| remap_in_place(e, order, lens, offsets, ok));
        }
        Expr::Agg { arg, .. } => {
            if let Some(a) = arg {
                remap_in_place(a, order, lens, offsets, ok);
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn make_join(
    left: &Cand,
    right: &Cand,
    equi_edges: &[(usize, usize, usize, usize, Expr)],
    general: &[(u64, Expr)],
    lens: &[usize],
    offsets: &[usize],
    stats: &[TableStats],
    config: &PlannerConfig,
) -> Option<Cand> {
    let lmask: u64 = left.order.iter().map(|t| 1u64 << t).sum();
    let rmask: u64 = right.order.iter().map(|t| 1u64 << t).sum();
    let combined: Vec<usize> = left.order.iter().chain(right.order.iter()).copied().collect();
    let cm = &config.cost;

    // Applicable equi edges crossing the two sides.
    let mut keys: Vec<(Expr, Expr)> = Vec::new();
    let mut edge_sel = 1.0f64;
    for (tl, tr, sl, sr, _) in equi_edges {
        let (a, b) = (1u64 << tl, 1u64 << tr);
        let crossing = (a & lmask != 0 && b & rmask != 0) || (a & rmask != 0 && b & lmask != 0);
        if !crossing {
            continue;
        }
        let (scope_l, scope_r) = if a & lmask != 0 { (*sl, *sr) } else { (*sr, *sl) };
        let lpos = layout_index(&left.order, lens, offsets, scope_l)?;
        let rpos = layout_index(&right.order, lens, offsets, scope_r)?;
        keys.push((col_at(lpos), col_at(rpos)));
        let ndv_l = column_ndv(scope_l, offsets, lens, stats);
        let ndv_r = column_ndv(scope_r, offsets, lens, stats);
        edge_sel *= 1.0 / ndv_l.max(ndv_r).max(1.0);
    }

    // General conjuncts newly covered by this join become residuals.
    let full = lmask | rmask;
    let mut residuals: Vec<Expr> = Vec::new();
    let mut residual_sel = 1.0f64;
    for (mask, e) in general {
        if mask & full == *mask && mask & lmask != 0 && mask & rmask != 0 {
            residuals.push(remap_expr(e, &combined, lens, offsets)?);
            residual_sel *= 0.5;
        }
    }

    let out_rows = (left.est.rows * right.est.rows * edge_sel * residual_sel).max(0.0);
    let residual = join_conjuncts(residuals);

    // Candidate methods.
    let mut best: Option<(PhysicalPlan, f64)> = None;
    let mut consider = |plan: PhysicalPlan, cost: f64| match &best {
        Some((_, c)) if *c <= cost => {}
        _ => best = Some((plan, cost)),
    };
    if !keys.is_empty() && config.enable_hash_join {
        let cost = left.est.cost
            + right.est.cost
            + left.est.rows * cm.cpu_hash
            + right.est.rows * cm.cpu_hash
            + out_rows * cm.cpu_tuple;
        consider(
            PhysicalPlan::HashJoin {
                left: Box::new(left.plan.clone()),
                right: Box::new(right.plan.clone()),
                keys: keys.clone(),
                residual: residual.clone(),
            },
            cost,
        );
    }
    if !keys.is_empty() && config.enable_merge_join {
        let nlogn = |r: f64| if r > 1.0 { r * r.log2() } else { 0.0 };
        let cost = left.est.cost
            + right.est.cost
            + (nlogn(left.est.rows) + nlogn(right.est.rows)) * cm.cpu_cmp
            + (left.est.rows + right.est.rows) * cm.cpu_tuple
            + out_rows * cm.cpu_tuple;
        consider(
            PhysicalPlan::MergeJoin {
                left: Box::new(left.plan.clone()),
                right: Box::new(right.plan.clone()),
                keys: keys[0].clone(),
                residual: merge_join_residual(&keys, residual.clone(), left, lens),
            },
            cost,
        );
    }
    // Nested loops always available (block nested loops: inner materialized).
    {
        let mut preds: Vec<Expr> = Vec::new();
        for (l, r) in &keys {
            preds.push(Expr::binary(
                l.clone(),
                BinOp::Eq,
                shift_columns(r, left_arity(left, lens)),
            ));
        }
        if let Some(res) = &residual {
            preds.push(res.clone());
        }
        let cost = left.est.cost
            + right.est.cost
            + left.est.rows * right.est.rows * (cm.cpu_pred + cm.cpu_tuple);
        consider(
            PhysicalPlan::NestedLoopJoin {
                left: Box::new(left.plan.clone()),
                right: Box::new(right.plan.clone()),
                predicate: join_conjuncts(preds),
            },
            cost,
        );
    }

    let (plan, cost) = best?;
    Some(Cand { plan, est: Estimate::new(out_rows, cost), order: combined })
}

/// Extra equi keys beyond the first become a residual for merge join
/// (single-key merge + filter).
fn merge_join_residual(
    keys: &[(Expr, Expr)],
    residual: Option<Expr>,
    left: &Cand,
    lens: &[usize],
) -> Option<Expr> {
    let mut preds = Vec::new();
    for (l, r) in keys.iter().skip(1) {
        preds.push(Expr::binary(l.clone(), BinOp::Eq, shift_columns(r, left_arity(left, lens))));
    }
    if let Some(r) = residual {
        preds.push(r);
    }
    join_conjuncts(preds)
}

fn left_arity(left: &Cand, lens: &[usize]) -> usize {
    left.order.iter().map(|&t| lens[t]).sum()
}

fn column_ndv(scope_idx: usize, offsets: &[usize], lens: &[usize], stats: &[TableStats]) -> f64 {
    let Some(t) = owner_table(scope_idx, offsets, lens) else { return 1.0 };
    let local = scope_idx - offsets[t];
    stats[t].columns.get(local).map_or(1.0, |c| c.ndv.max(1) as f64)
}

#[allow(clippy::too_many_arguments)]
fn enumerate_dp(
    base: Vec<Cand>,
    equi_edges: &[(usize, usize, usize, usize, Expr)],
    general: &[(u64, Expr)],
    lens: &[usize],
    offsets: &[usize],
    stats: &[TableStats],
    config: &PlannerConfig,
) -> SqlResult<Cand> {
    let n = base.len();
    let full: u64 = (1 << n) - 1;
    let mut dp: Vec<Option<Cand>> = vec![None; 1 << n];
    for (i, c) in base.into_iter().enumerate() {
        dp[1 << i] = Some(c);
    }
    for s in 1..=full {
        if s.count_ones() < 2 {
            continue;
        }
        // Enumerate proper submask splits.
        let mut s1 = (s - 1) & s;
        while s1 > 0 {
            let s2 = s ^ s1;
            if s1 < s2 {
                // Each unordered pair visited once; try both join directions.
                let pair = match (&dp[s1 as usize], &dp[s2 as usize]) {
                    (Some(a), Some(b)) => Some((a.clone(), b.clone())),
                    _ => None,
                };
                if let Some((a, b)) = pair {
                    for (l, r) in [(&a, &b), (&b, &a)] {
                        if let Some(cand) =
                            make_join(l, r, equi_edges, general, lens, offsets, stats, config)
                        {
                            let better = dp[s as usize]
                                .as_ref()
                                .is_none_or(|cur| cand.est.cost < cur.est.cost);
                            if better {
                                dp[s as usize] = Some(cand);
                            }
                        }
                    }
                }
            }
            s1 = (s1 - 1) & s;
        }
    }
    dp[full as usize]
        .take()
        .ok_or_else(|| SqlError::new("internal: join enumeration produced no plan"))
}

#[allow(clippy::too_many_arguments)]
fn enumerate_greedy(
    mut cands: Vec<Cand>,
    equi_edges: &[(usize, usize, usize, usize, Expr)],
    general: &[(u64, Expr)],
    lens: &[usize],
    offsets: &[usize],
    stats: &[TableStats],
    config: &PlannerConfig,
) -> SqlResult<Cand> {
    while cands.len() > 1 {
        let mut best: Option<(usize, usize, Cand)> = None;
        for i in 0..cands.len() {
            for j in 0..cands.len() {
                if i == j {
                    continue;
                }
                if let Some(c) = make_join(
                    &cands[i], &cands[j], equi_edges, general, lens, offsets, stats, config,
                ) {
                    if best.as_ref().is_none_or(|(_, _, b)| c.est.cost < b.est.cost) {
                        best = Some((i, j, c));
                    }
                }
            }
        }
        let (i, j, joined) =
            best.ok_or_else(|| SqlError::new("internal: greedy join found no pair"))?;
        let (hi, lo) = if i > j { (i, j) } else { (j, i) };
        cands.remove(hi);
        cands.remove(lo);
        cands.push(joined);
    }
    cands.into_iter().next().ok_or_else(|| SqlError::new("internal: no tables to join"))
}

/// Plan a single-table row source with a (table-local bound) predicate —
/// used by UPDATE/DELETE and the overload fast path.
pub fn plan_table_filter(
    table: &Arc<TableInfo>,
    predicate: Option<Expr>,
    catalog: &Catalog,
    config: &PlannerConfig,
) -> PhysicalPlan {
    let stats = table.stats.read().clone();
    let conjuncts = match predicate {
        Some(p) => split_conjuncts(p),
        None => Vec::new(),
    };
    plan_access_path(table, &stats, conjuncts, catalog, config).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use staged_sql::ast::Statement;
    use staged_sql::binder::{BindContext, Binder};
    use staged_sql::parser::parse_statement;
    use staged_storage::{BufferPool, Column, DataType, MemDisk, Schema, Tuple, Value};

    fn setup() -> Catalog {
        let cat = Catalog::new(BufferPool::new(Arc::new(MemDisk::new()), 512));
        let t = cat
            .create_table(
                "t",
                Schema::new(vec![
                    Column::new("a", DataType::Int),
                    Column::new("b", DataType::Str),
                    Column::new("v", DataType::Float).nullable(),
                ]),
            )
            .unwrap();
        let u = cat
            .create_table(
                "u",
                Schema::new(vec![Column::new("a", DataType::Int), Column::new("w", DataType::Int)]),
            )
            .unwrap();
        for i in 0..1000i64 {
            t.heap
                .insert(&Tuple::new(vec![
                    Value::Int(i),
                    Value::Str(format!("s{}", i % 13)),
                    Value::Float(i as f64 / 10.0),
                ]))
                .unwrap();
        }
        for i in 0..100i64 {
            u.heap.insert(&Tuple::new(vec![Value::Int(i * 10), Value::Int(i % 7)])).unwrap();
        }
        cat.create_index("t_a", "t", "a").unwrap();
        cat.analyze_table("t").unwrap();
        cat.analyze_table("u").unwrap();
        cat
    }

    fn plan(cat: &Catalog, sql: &str, config: &PlannerConfig) -> PhysicalPlan {
        let Statement::Select(sel) = parse_statement(sql).unwrap() else { panic!() };
        let bound = Binder::new(BindContext::new(cat)).bind_select(sel).unwrap();
        plan_select(&bound, cat, config).unwrap()
    }

    #[test]
    fn selective_equality_uses_index() {
        let cat = setup();
        let p = plan(&cat, "SELECT a FROM t WHERE a = 7", &PlannerConfig::default());
        let s = p.to_string();
        assert!(s.contains("IndexScan"), "expected index scan:\n{s}");
        assert!(s.contains("key=7"), "{s}");
    }

    #[test]
    fn unselective_range_uses_seqscan() {
        let cat = setup();
        let p = plan(&cat, "SELECT a FROM t WHERE a > 10", &PlannerConfig::default());
        let s = p.to_string();
        assert!(s.contains("SeqScan"), "a > 10 matches ~99%:\n{s}");
    }

    #[test]
    fn index_disabled_by_config() {
        let cat = setup();
        let cfg = PlannerConfig { enable_index_scan: false, ..Default::default() };
        let s = plan(&cat, "SELECT a FROM t WHERE a = 7", &cfg).to_string();
        assert!(s.contains("SeqScan"), "{s}");
    }

    #[test]
    fn equijoin_prefers_hash_join() {
        let cat = setup();
        let s =
            plan(&cat, "SELECT * FROM t, u WHERE t.a = u.a", &PlannerConfig::default()).to_string();
        assert!(s.contains("HashJoin"), "{s}");
    }

    #[test]
    fn merge_join_when_hash_disabled() {
        let cat = setup();
        let cfg = PlannerConfig { enable_hash_join: false, ..Default::default() };
        let s = plan(&cat, "SELECT * FROM t, u WHERE t.a = u.a", &cfg).to_string();
        assert!(s.contains("MergeJoin"), "{s}");
    }

    #[test]
    fn non_equi_join_falls_back_to_nested_loops() {
        let cat = setup();
        let s =
            plan(&cat, "SELECT * FROM t, u WHERE t.a < u.a", &PlannerConfig::default()).to_string();
        assert!(s.contains("NestedLoopJoin"), "{s}");
    }

    #[test]
    fn single_table_predicates_are_pushed_into_scans() {
        let cat = setup();
        let s = plan(
            &cat,
            "SELECT * FROM t, u WHERE t.a = u.a AND u.w = 3 AND t.b = 'x'",
            &PlannerConfig::default(),
        )
        .to_string();
        // Pushed predicates appear on the scans, not as a top-level filter.
        assert!(s.contains("SeqScan u filter="), "{s}");
        assert!(!s.trim_start().starts_with("Filter"), "{s}");
    }

    #[test]
    fn aggregation_plans_have_aggregate_then_project() {
        let cat = setup();
        let s = plan(
            &cat,
            "SELECT b, COUNT(*), SUM(a) FROM t GROUP BY b HAVING COUNT(*) > 3",
            &PlannerConfig::default(),
        )
        .to_string();
        assert!(s.contains("HashAggregate"), "{s}");
        assert!(s.contains("Filter"), "HAVING becomes a filter:\n{s}");
        assert!(s.contains("Project"), "{s}");
    }

    #[test]
    fn order_limit_distinct_compose() {
        let cat = setup();
        let s = plan(
            &cat,
            "SELECT DISTINCT b FROM t ORDER BY b DESC LIMIT 3",
            &PlannerConfig::default(),
        )
        .to_string();
        assert!(s.contains("Distinct"), "{s}");
        assert!(s.contains("Sort"), "{s}");
        assert!(s.contains("Limit 3"), "{s}");
    }

    #[test]
    fn plan_arity_matches_output_schema() {
        let cat = setup();
        let p = plan(&cat, "SELECT a, v FROM t WHERE a < 5", &PlannerConfig::default());
        assert_eq!(p.output_arity(), 2);
        let p = plan(&cat, "SELECT * FROM t, u", &PlannerConfig::default());
        assert_eq!(p.output_arity(), 5);
    }

    #[test]
    fn three_way_join_enumeration_covers_all_tables() {
        let cat = setup();
        cat.create_table(
            "w3",
            Schema::new(vec![Column::new("a", DataType::Int), Column::new("z", DataType::Int)]),
        )
        .unwrap();
        cat.analyze_table("w3").unwrap();
        let p = plan(
            &cat,
            "SELECT * FROM t, u, w3 WHERE t.a = u.a AND u.a = w3.a",
            &PlannerConfig::default(),
        );
        // One scan per table, read off the rendered plan.
        let text = p.to_string();
        let mut tables: Vec<&str> = text
            .lines()
            .filter_map(|l| {
                let mut words = l.split_whitespace();
                let op = words.next()?;
                op.ends_with("Scan").then(|| words.next()).flatten()
            })
            .collect();
        tables.sort_unstable();
        assert_eq!(tables, ["t", "u", "w3"], "{text}");
        assert_eq!(p.output_arity(), 7);
    }

    fn setup_partitioned(parts: usize) -> Catalog {
        let cat = Catalog::new(BufferPool::new(Arc::new(MemDisk::new()), 512));
        let t = cat
            .create_table_partitioned(
                "p",
                Schema::new(vec![Column::new("k", DataType::Int), Column::new("g", DataType::Int)]),
                parts,
                0,
            )
            .unwrap();
        for i in 0..400i64 {
            t.heap.insert(&Tuple::new(vec![Value::Int(i), Value::Int(i % 5)])).unwrap();
        }
        cat.analyze_table("p").unwrap();
        cat
    }

    #[test]
    fn partitioned_scan_fans_out_under_an_exchange() {
        let cat = setup_partitioned(4);
        let p = plan(&cat, "SELECT k FROM p WHERE g = 2", &PlannerConfig::default());
        let s = p.to_string();
        assert!(s.contains("Exchange x4"), "{s}");
        for i in 0..4 {
            assert!(s.contains(&format!("PartitionScan p[{i}/4]")), "{s}");
        }
    }

    #[test]
    fn pinned_hash_key_prunes_to_one_partition() {
        let cat = setup_partitioned(4);
        let p = plan(&cat, "SELECT * FROM p WHERE k = 37", &PlannerConfig::default());
        let s = p.to_string();
        assert!(!s.contains("Exchange"), "pruned plan needs no exchange:\n{s}");
        assert!(s.contains("PartitionScan"), "{s}");
        // The filter must survive on the pruned scan: hashing is lossy.
        assert!(s.contains("filter="), "{s}");
        let expected = staged_storage::partition_of_value(&Value::Int(37), 4);
        assert!(s.contains(&format!("p[{expected}/4]")), "{s}");
    }

    #[test]
    fn aggregates_over_partitions_split_into_two_phases() {
        let cat = setup_partitioned(4);
        let p = plan(
            &cat,
            "SELECT g, COUNT(*), SUM(k), MIN(k), MAX(k), AVG(k) FROM p GROUP BY g",
            &PlannerConfig::default(),
        );
        let s = p.to_string();
        assert!(s.contains("MergeAggregate"), "{s}");
        // One partial HashAggregate per partition, each with AVG decomposed
        // into SUM + COUNT.
        assert_eq!(s.matches("HashAggregate").count(), 4, "{s}");
        assert_eq!(s.matches("SUM(k)").count(), 4 * 2 + 1, "partials carry avg-sum:\n{s}");
    }

    #[test]
    fn distinct_aggregates_stay_single_phase() {
        let cat = setup_partitioned(4);
        let p = plan(&cat, "SELECT COUNT(DISTINCT g) FROM p", &PlannerConfig::default());
        let s = p.to_string();
        assert!(!s.contains("MergeAggregate"), "{s}");
        assert!(s.contains("HashAggregate"), "{s}");
        assert!(s.contains("Exchange x4"), "union still fans out:\n{s}");
    }

    #[test]
    fn partition_parallel_can_be_disabled() {
        let cat = setup_partitioned(4);
        let cfg = PlannerConfig { enable_partition_parallel: false, ..Default::default() };
        let s = plan(&cat, "SELECT COUNT(*) FROM p", &cfg).to_string();
        assert!(s.contains("SeqScan"), "{s}");
        assert!(!s.contains("Exchange"), "{s}");
    }

    #[test]
    fn plan_table_filter_uses_index_for_point_predicates() {
        let cat = setup();
        let table = cat.table("t").unwrap();
        let Statement::Select(sel) = parse_statement("SELECT * FROM t WHERE a = 3").unwrap() else {
            panic!()
        };
        let bound = Binder::new(BindContext::new(&cat)).bind_select(sel).unwrap();
        let pred = bound.stmt.filter.clone();
        let p = plan_table_filter(&table, pred, &cat, &PlannerConfig::default());
        assert!(p.to_string().contains("IndexScan"), "{p}");
    }
}
