//! Name resolution, type checking and aggregate validation.
//!
//! The binder resolves column references against the catalog — in Table 1
//! terms it reads the *common* catalog/symbol-table structures on behalf of
//! every query — fills in column indexes relative to the flattened FROM
//! scope, expands `*`, and computes the output schema.

use crate::ast::*;
use crate::error::{SqlError, SqlResult};
use staged_cachesim::tracker::{RefClass, RefKind, RefTracker};
use staged_storage::catalog::TableInfo;
use staged_storage::{Catalog, Column, DataType, Schema};
use std::sync::Arc;

/// Result of binding a SELECT: resolved tables and the output schema.
pub struct BoundSelect {
    /// The bound (mutated) statement.
    pub stmt: SelectStmt,
    /// Tables in FROM order.
    pub tables: Vec<BoundTable>,
    /// Flattened input schema of the FROM product.
    pub scope: Schema,
    /// Schema of the query result.
    pub output: Schema,
    /// Projection expressions after `*` expansion, aligned with `output`.
    pub projections: Vec<Expr>,
    /// True under `EXPLAIN`: the statement is planned and the plan text is
    /// the result; nothing executes.
    pub explain: bool,
}

/// A resolved FROM entry.
#[derive(Clone)]
pub struct BoundTable {
    /// Binding name (alias or table name).
    pub binding: String,
    /// Catalog entry.
    pub info: Arc<TableInfo>,
    /// Offset of this table's first column in the flattened scope.
    pub offset: usize,
}

/// Binder context: catalog plus optional Table-1 instrumentation.
pub struct BindContext<'a> {
    /// The catalog.
    pub catalog: &'a Catalog,
    /// Reference tracker (catalog lookups are common data references).
    pub tracker: Option<&'a RefTracker>,
}

impl<'a> BindContext<'a> {
    /// A context without instrumentation.
    pub fn new(catalog: &'a Catalog) -> Self {
        Self { catalog, tracker: None }
    }

    /// Attach a reference tracker.
    pub fn with_tracker(mut self, tracker: &'a RefTracker) -> Self {
        self.tracker = Some(tracker);
        self
    }

    fn note_catalog_lookup(&self, bytes: u64) {
        if let Some(t) = self.tracker {
            t.record(RefClass::Common, RefKind::Data, bytes);
        }
    }
}

/// The binder.
pub struct Binder<'a> {
    ctx: BindContext<'a>,
}

impl<'a> Binder<'a> {
    /// A binder over the given context.
    pub fn new(ctx: BindContext<'a>) -> Self {
        Self { ctx }
    }

    /// Bind a SELECT statement.
    pub fn bind_select(&self, mut stmt: SelectStmt) -> SqlResult<BoundSelect> {
        if stmt.from.is_empty() && stmt.items.iter().any(|i| matches!(i, SelectItem::Star)) {
            return Err(SqlError::new("SELECT * requires a FROM clause"));
        }
        // Resolve FROM tables and build the flattened scope.
        let mut tables = Vec::new();
        let mut scope_cols: Vec<Column> = Vec::new();
        for tref in &stmt.from {
            let info =
                self.ctx.catalog.table(&tref.name).map_err(|e| SqlError::new(e.to_string()))?;
            self.ctx.note_catalog_lookup(64 + info.schema.len() as u64 * 24);
            let binding = tref.binding_name().to_string();
            if tables.iter().any(|t: &BoundTable| t.binding == binding) {
                return Err(SqlError::new(format!("duplicate table binding {binding}")));
            }
            let offset = scope_cols.len();
            for c in info.schema.columns() {
                scope_cols.push(Column {
                    name: format!("{binding}.{}", c.name),
                    ty: c.ty,
                    nullable: c.nullable,
                });
            }
            tables.push(BoundTable { binding, info, offset });
        }
        let scope = Schema::new(scope_cols);

        // Bind all expressions in place.
        if let Some(f) = &mut stmt.filter {
            bind_expr(f, &tables, &scope)?;
            if f.contains_agg() {
                return Err(SqlError::new("aggregates are not allowed in WHERE"));
            }
        }
        for g in &mut stmt.group_by {
            bind_expr(g, &tables, &scope)?;
        }
        if let Some(h) = &mut stmt.having {
            bind_expr(h, &tables, &scope)?;
        }
        for (e, _) in &mut stmt.order_by {
            bind_expr(e, &tables, &scope)?;
        }
        for row_exprs in stmt.items.iter_mut() {
            if let SelectItem::Expr { expr, .. } = row_exprs {
                bind_expr(expr, &tables, &scope)?;
            }
        }

        // Expand * and compute projections + output schema.
        let mut projections = Vec::new();
        let mut out_cols = Vec::new();
        for item in &stmt.items {
            match item {
                SelectItem::Star => {
                    for (i, c) in scope.columns().iter().enumerate() {
                        projections.push(Expr::Column(ColumnRef {
                            table: None,
                            name: c.name.clone(),
                            index: Some(i),
                        }));
                        // Unqualify the output name: `t.a` → `a` (suffix
                        // disambiguation happens in Schema::join).
                        let bare = c.name.rsplit('.').next().unwrap_or(&c.name).to_string();
                        out_cols.push((bare, c.ty, c.nullable));
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    let ty = infer_type(expr, &scope)?;
                    let name = alias.clone().unwrap_or_else(|| display_name(expr));
                    projections.push(expr.clone());
                    out_cols.push((name, ty.unwrap_or(DataType::Int), true));
                }
            }
        }
        // Disambiguate duplicate output names.
        let mut cols = Vec::new();
        for (name, ty, nullable) in out_cols {
            let mut n = name.clone();
            let mut k = 1;
            while cols.iter().any(|c: &Column| c.name == n) {
                n = format!("{name}_{k}");
                k += 1;
            }
            let col = Column { name: n, ty, nullable };
            cols.push(col);
        }
        let output = Schema::new(cols);

        // Aggregate validation.
        let grouped = !stmt.group_by.is_empty()
            || projections.iter().any(Expr::contains_agg)
            || stmt.having.as_ref().is_some_and(|h| h.contains_agg());
        if grouped {
            for p in &projections {
                validate_grouped_expr(p, &stmt.group_by)?;
            }
            if let Some(h) = &stmt.having {
                validate_grouped_expr(h, &stmt.group_by)?;
            }
        } else if stmt.having.is_some() {
            return Err(SqlError::new("HAVING requires GROUP BY or aggregates"));
        }

        Ok(BoundSelect { stmt, tables, scope, output, projections, explain: false })
    }

    /// Bind a standalone predicate against one table (UPDATE/DELETE).
    pub fn bind_table_predicate(&self, expr: &mut Expr, table: &Arc<TableInfo>) -> SqlResult<()> {
        self.ctx.note_catalog_lookup(64);
        let tables =
            vec![BoundTable { binding: table.name.clone(), info: Arc::clone(table), offset: 0 }];
        let scope = Schema::new(
            table
                .schema
                .columns()
                .iter()
                .map(|c| Column {
                    name: format!("{}.{}", table.name, c.name),
                    ty: c.ty,
                    nullable: c.nullable,
                })
                .collect(),
        );
        bind_expr(expr, &tables, &scope)?;
        if expr.contains_agg() {
            return Err(SqlError::new("aggregates are not allowed here"));
        }
        Ok(())
    }
}

/// In grouped queries, bare columns must appear in GROUP BY (standard SQL
/// single-value rule); anything under an aggregate is fine.
fn validate_grouped_expr(expr: &Expr, group_by: &[Expr]) -> SqlResult<()> {
    if group_by.iter().any(|g| g == expr) {
        return Ok(());
    }
    match expr {
        Expr::Agg { .. } | Expr::Literal(_) => Ok(()),
        Expr::Column(c) => Err(SqlError::new(format!(
            "column {} must appear in GROUP BY or inside an aggregate",
            c.name
        ))),
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } | Expr::Like { expr, .. } => {
            validate_grouped_expr(expr, group_by)
        }
        Expr::Binary { left, right, .. } => {
            validate_grouped_expr(left, group_by)?;
            validate_grouped_expr(right, group_by)
        }
        Expr::Between { expr, lo, hi, .. } => {
            validate_grouped_expr(expr, group_by)?;
            validate_grouped_expr(lo, group_by)?;
            validate_grouped_expr(hi, group_by)
        }
        Expr::InList { expr, list, .. } => {
            validate_grouped_expr(expr, group_by)?;
            list.iter().try_for_each(|e| validate_grouped_expr(e, group_by))
        }
    }
}

/// Resolve every column reference in `expr` against the scope.
fn bind_expr(expr: &mut Expr, tables: &[BoundTable], scope: &Schema) -> SqlResult<()> {
    match expr {
        Expr::Column(c) => {
            let idx = resolve_column(c, tables, scope)?;
            c.index = Some(idx);
            Ok(())
        }
        Expr::Literal(_) => Ok(()),
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } | Expr::Like { expr, .. } => {
            bind_expr(expr, tables, scope)
        }
        Expr::Binary { left, right, .. } => {
            bind_expr(left, tables, scope)?;
            bind_expr(right, tables, scope)
        }
        Expr::Between { expr, lo, hi, .. } => {
            bind_expr(expr, tables, scope)?;
            bind_expr(lo, tables, scope)?;
            bind_expr(hi, tables, scope)
        }
        Expr::InList { expr, list, .. } => {
            bind_expr(expr, tables, scope)?;
            list.iter_mut().try_for_each(|e| bind_expr(e, tables, scope))
        }
        Expr::Agg { arg, .. } => match arg {
            Some(a) => bind_expr(a, tables, scope),
            None => Ok(()),
        },
    }
}

fn resolve_column(c: &ColumnRef, tables: &[BoundTable], scope: &Schema) -> SqlResult<usize> {
    match &c.table {
        Some(t) => {
            let table = tables
                .iter()
                .find(|b| b.binding == *t)
                .ok_or_else(|| SqlError::new(format!("unknown table {t}")))?;
            let idx = table
                .info
                .schema
                .index_of(&c.name)
                .ok_or_else(|| SqlError::new(format!("unknown column {t}.{}", c.name)))?;
            Ok(table.offset + idx)
        }
        None => {
            // Ambiguity check across all tables.
            let mut found = None;
            for table in tables {
                if let Some(idx) = table.info.schema.index_of(&c.name) {
                    if found.is_some() {
                        return Err(SqlError::new(format!("ambiguous column {}", c.name)));
                    }
                    found = Some(table.offset + idx);
                }
            }
            // Also allow references to already-qualified scope names
            // (used by * expansion round trips).
            if found.is_none() {
                found = scope.index_of(&c.name);
            }
            found.ok_or_else(|| SqlError::new(format!("unknown column {}", c.name)))
        }
    }
}

/// Best-effort type inference for an expression over `scope`.
pub fn infer_type(expr: &Expr, scope: &Schema) -> SqlResult<Option<DataType>> {
    Ok(match expr {
        Expr::Literal(v) => v.data_type(),
        Expr::Column(c) => {
            let idx = c.index.ok_or_else(|| SqlError::new(format!("unbound column {}", c.name)))?;
            Some(scope.column(idx).ty)
        }
        Expr::Unary { op, expr } => match op {
            UnaryOp::Neg => {
                let t = infer_type(expr, scope)?;
                match t {
                    Some(DataType::Int) | Some(DataType::Float) | None => t,
                    Some(other) => {
                        return Err(SqlError::new(format!("cannot negate {other}")));
                    }
                }
            }
            UnaryOp::Not => Some(DataType::Bool),
        },
        Expr::Binary { left, op, right } => {
            let lt = infer_type(left, scope)?;
            let rt = infer_type(right, scope)?;
            if op.is_comparison() || matches!(op, BinOp::And | BinOp::Or) {
                Some(DataType::Bool)
            } else {
                match (lt, rt) {
                    (Some(DataType::Str), _) | (_, Some(DataType::Str)) => {
                        return Err(SqlError::new(format!(
                            "arithmetic {} on string operand",
                            op.sql()
                        )));
                    }
                    (Some(DataType::Float), _) | (_, Some(DataType::Float)) => {
                        Some(DataType::Float)
                    }
                    _ => Some(DataType::Int),
                }
            }
        }
        Expr::Agg { func, arg, .. } => match func {
            AggFunc::Count => Some(DataType::Int),
            AggFunc::Avg => Some(DataType::Float),
            AggFunc::Sum | AggFunc::Min | AggFunc::Max => match arg {
                Some(a) => infer_type(a, scope)?,
                None => Some(DataType::Int),
            },
        },
        Expr::IsNull { .. } | Expr::Between { .. } | Expr::InList { .. } | Expr::Like { .. } => {
            Some(DataType::Bool)
        }
    })
}

fn display_name(expr: &Expr) -> String {
    match expr {
        Expr::Column(c) => c.name.clone(),
        Expr::Agg { func, .. } => func.sql().to_ascii_lowercase(),
        _ => "expr".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_statement;
    use staged_storage::{BufferPool, MemDisk};

    fn catalog() -> Catalog {
        let c = Catalog::new(BufferPool::new(Arc::new(MemDisk::new()), 64));
        c.create_table(
            "t",
            Schema::new(vec![
                Column::new("a", DataType::Int),
                Column::new("b", DataType::Str),
                Column::new("v", DataType::Float).nullable(),
            ]),
        )
        .unwrap();
        c.create_table(
            "u",
            Schema::new(vec![Column::new("a", DataType::Int), Column::new("w", DataType::Int)]),
        )
        .unwrap();
        c
    }

    fn bind(sql: &str) -> SqlResult<BoundSelect> {
        let cat = catalog();
        let Statement::Select(sel) = parse_statement(sql).unwrap() else { panic!() };
        Binder::new(BindContext::new(&cat)).bind_select(sel)
    }

    #[test]
    fn binds_columns_with_indices() {
        let b = bind("SELECT a, v FROM t WHERE b = 'x'").unwrap();
        assert_eq!(b.scope.len(), 3);
        let Expr::Column(c) = &b.projections[0] else { panic!() };
        assert_eq!(c.index, Some(0));
        let Expr::Column(c) = &b.projections[1] else { panic!() };
        assert_eq!(c.index, Some(2));
        assert_eq!(b.output.columns()[0].name, "a");
    }

    #[test]
    fn star_expansion_covers_all_tables() {
        let b = bind("SELECT * FROM t, u WHERE t.a = u.a").unwrap();
        assert_eq!(b.projections.len(), 5);
        assert_eq!(b.output.len(), 5);
        // Duplicate bare name `a` is disambiguated.
        assert!(b.output.index_of("a").is_some());
        assert!(b.output.index_of("a_1").is_some());
    }

    #[test]
    fn qualified_and_ambiguous_references() {
        let b = bind("SELECT t.a, u.a FROM t, u").unwrap();
        let Expr::Column(c0) = &b.projections[0] else { panic!() };
        let Expr::Column(c1) = &b.projections[1] else { panic!() };
        assert_eq!(c0.index, Some(0));
        assert_eq!(c1.index, Some(3));
        assert!(bind("SELECT a FROM t, u").is_err(), "bare `a` is ambiguous");
        assert!(bind("SELECT w FROM t, u").is_ok(), "unique bare name resolves");
    }

    #[test]
    fn alias_binding() {
        let b = bind("SELECT x.a FROM t AS x WHERE x.v > 0").unwrap();
        assert_eq!(b.tables[0].binding, "x");
    }

    #[test]
    fn unknown_names_error() {
        assert!(bind("SELECT nope FROM t").is_err());
        assert!(bind("SELECT a FROM missing").is_err());
        assert!(bind("SELECT z.a FROM t").is_err());
    }

    #[test]
    fn aggregate_rules() {
        assert!(bind("SELECT COUNT(*) FROM t WHERE a > 0").is_ok());
        assert!(bind("SELECT a FROM t WHERE SUM(a) > 0").is_err(), "agg in WHERE");
        assert!(bind("SELECT a, COUNT(*) FROM t").is_err(), "bare col with agg, no GROUP BY");
        assert!(bind("SELECT a, COUNT(*) FROM t GROUP BY a").is_ok());
        assert!(bind("SELECT b FROM t GROUP BY a").is_err(), "b not grouped");
        assert!(bind("SELECT a FROM t HAVING a > 0").is_err(), "HAVING without grouping");
    }

    #[test]
    fn type_errors_detected() {
        assert!(bind("SELECT b + 1 FROM t").is_err(), "string arithmetic");
        assert!(bind("SELECT -b FROM t").is_err(), "negating a string");
        assert!(bind("SELECT a + v FROM t").is_ok(), "int + float ok");
    }

    #[test]
    fn output_schema_types() {
        let b = bind("SELECT a + 1, AVG(v), COUNT(*) FROM t GROUP BY a + 1").unwrap();
        assert_eq!(b.output.columns()[0].ty, DataType::Int);
        assert_eq!(b.output.columns()[1].ty, DataType::Float);
        assert_eq!(b.output.columns()[2].ty, DataType::Int);
    }

    #[test]
    fn tracker_records_catalog_lookups() {
        let cat = catalog();
        let tracker = RefTracker::new();
        let Statement::Select(sel) = parse_statement("SELECT a FROM t").unwrap() else { panic!() };
        Binder::new(BindContext::new(&cat).with_tracker(&tracker)).bind_select(sel).unwrap();
        assert!(tracker.count(RefClass::Common, RefKind::Data) > 0);
    }
}
