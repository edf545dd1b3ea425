//! Abstract syntax tree for the SQL subset.
//!
//! `Display` implementations render back to parseable SQL, which enables
//! the print→reparse fixpoint property tests and `EXPLAIN` output.

use staged_storage::{DataType, Value};
use std::fmt;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `=`
    Eq,
    /// `<>`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `AND`
    And,
    /// `OR`
    Or,
}

impl BinOp {
    /// True for comparison operators producing booleans.
    pub fn is_comparison(&self) -> bool {
        matches!(self, BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq)
    }

    /// SQL spelling.
    pub fn sql(&self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Eq => "=",
            BinOp::NotEq => "<>",
            BinOp::Lt => "<",
            BinOp::LtEq => "<=",
            BinOp::Gt => ">",
            BinOp::GtEq => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Numeric negation.
    Neg,
    /// Logical NOT.
    Not,
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT`
    Count,
    /// `SUM`
    Sum,
    /// `AVG`
    Avg,
    /// `MIN`
    Min,
    /// `MAX`
    Max,
}

impl AggFunc {
    /// SQL spelling.
    pub fn sql(&self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        }
    }
}

/// A column reference; `index` is filled by the binder relative to the
/// enclosing scope's flattened schema.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnRef {
    /// Optional table/alias qualifier.
    pub table: Option<String>,
    /// Column name (lower-cased).
    pub name: String,
    /// Resolved position in the scope schema (post-binding).
    pub index: Option<usize>,
}

impl ColumnRef {
    /// An unresolved reference.
    pub fn new(table: Option<String>, name: impl Into<String>) -> Self {
        Self { table, name: name.into(), index: None }
    }
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Literal value.
    Literal(Value),
    /// Column reference.
    Column(ColumnRef),
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Binary operation.
    Binary {
        /// Left operand.
        left: Box<Expr>,
        /// Operator.
        op: BinOp,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Aggregate call; `arg == None` means `COUNT(*)`.
    Agg {
        /// Function.
        func: AggFunc,
        /// Argument (`None` only for COUNT(*)).
        arg: Option<Box<Expr>>,
        /// DISTINCT aggregation.
        distinct: bool,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// Tested expression.
        expr: Box<Expr>,
        /// IS NOT NULL when true.
        negated: bool,
    },
    /// `expr [NOT] BETWEEN lo AND hi`.
    Between {
        /// Tested expression.
        expr: Box<Expr>,
        /// Lower bound (inclusive).
        lo: Box<Expr>,
        /// Upper bound (inclusive).
        hi: Box<Expr>,
        /// Negated form.
        negated: bool,
    },
    /// `expr [NOT] IN (v1, v2, …)`.
    InList {
        /// Tested expression.
        expr: Box<Expr>,
        /// Candidate values.
        list: Vec<Expr>,
        /// Negated form.
        negated: bool,
    },
    /// `expr [NOT] LIKE 'pattern'` (`%` and `_` wildcards).
    Like {
        /// Tested expression.
        expr: Box<Expr>,
        /// Pattern literal.
        pattern: String,
        /// Negated form.
        negated: bool,
    },
}

impl Expr {
    /// Convenience: integer literal.
    pub fn int(i: i64) -> Expr {
        Expr::Literal(Value::Int(i))
    }

    /// Convenience: column reference by bare name.
    pub fn col(name: &str) -> Expr {
        Expr::Column(ColumnRef::new(None, name))
    }

    /// Convenience: binary expression.
    pub fn binary(left: Expr, op: BinOp, right: Expr) -> Expr {
        Expr::Binary { left: Box::new(left), op, right: Box::new(right) }
    }

    /// True if any sub-expression is an aggregate call.
    pub fn contains_agg(&self) -> bool {
        match self {
            Expr::Agg { .. } => true,
            Expr::Literal(_) | Expr::Column(_) => false,
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => expr.contains_agg(),
            Expr::Binary { left, right, .. } => left.contains_agg() || right.contains_agg(),
            Expr::Between { expr, lo, hi, .. } => {
                expr.contains_agg() || lo.contains_agg() || hi.contains_agg()
            }
            Expr::InList { expr, list, .. } => {
                expr.contains_agg() || list.iter().any(Expr::contains_agg)
            }
            Expr::Like { expr, .. } => expr.contains_agg(),
        }
    }

    /// Visit every column reference.
    pub fn visit_columns<'a>(&'a self, f: &mut impl FnMut(&'a ColumnRef)) {
        match self {
            Expr::Column(c) => f(c),
            Expr::Literal(_) => {}
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } | Expr::Like { expr, .. } => {
                expr.visit_columns(f)
            }
            Expr::Binary { left, right, .. } => {
                left.visit_columns(f);
                right.visit_columns(f);
            }
            Expr::Between { expr, lo, hi, .. } => {
                expr.visit_columns(f);
                lo.visit_columns(f);
                hi.visit_columns(f);
            }
            Expr::InList { expr, list, .. } => {
                expr.visit_columns(f);
                for e in list {
                    e.visit_columns(f);
                }
            }
            Expr::Agg { arg, .. } => {
                if let Some(a) = arg {
                    a.visit_columns(f);
                }
            }
        }
    }
}

/// One item of the SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Star,
    /// An expression with an optional alias.
    Expr {
        /// The expression.
        expr: Expr,
        /// `AS alias`.
        alias: Option<String>,
    },
}

/// A table in the FROM clause.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRef {
    /// Table name (lower-cased).
    pub name: String,
    /// Optional alias (lower-cased).
    pub alias: Option<String>,
}

impl TableRef {
    /// Name used for qualification (alias wins).
    pub fn binding_name(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.name)
    }
}

/// A SELECT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    /// Projection list.
    pub items: Vec<SelectItem>,
    /// FROM tables (explicit JOIN … ON conditions are folded into `filter`
    /// by the parser; the optimizer re-extracts equijoins).
    pub from: Vec<TableRef>,
    /// WHERE predicate.
    pub filter: Option<Expr>,
    /// GROUP BY expressions.
    pub group_by: Vec<Expr>,
    /// HAVING predicate.
    pub having: Option<Expr>,
    /// ORDER BY (expression, ascending).
    pub order_by: Vec<(Expr, bool)>,
    /// LIMIT row count.
    pub limit: Option<u64>,
    /// SELECT DISTINCT.
    pub distinct: bool,
}

/// A column definition in CREATE TABLE.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    /// Name.
    pub name: String,
    /// Type.
    pub ty: DataType,
    /// NULLs allowed.
    pub nullable: bool,
}

/// A SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `CREATE TABLE name (col type [NOT NULL], …)`.
    CreateTable {
        /// Table name.
        name: String,
        /// Column definitions.
        columns: Vec<ColumnDef>,
    },
    /// `CREATE INDEX name ON table (column)`.
    CreateIndex {
        /// Index name.
        name: String,
        /// Indexed table.
        table: String,
        /// Indexed column.
        column: String,
    },
    /// `DROP TABLE name`.
    DropTable {
        /// Table name.
        name: String,
    },
    /// `INSERT INTO table [(cols)] VALUES (…), (…)`.
    Insert {
        /// Target table.
        table: String,
        /// Optional explicit column list.
        columns: Option<Vec<String>>,
        /// Rows of value expressions.
        rows: Vec<Vec<Expr>>,
    },
    /// A query.
    Select(SelectStmt),
    /// `UPDATE table SET col = expr, … [WHERE …]`.
    Update {
        /// Target table.
        table: String,
        /// Assignments.
        sets: Vec<(String, Expr)>,
        /// Row filter.
        filter: Option<Expr>,
    },
    /// `DELETE FROM table [WHERE …]`.
    Delete {
        /// Target table.
        table: String,
        /// Row filter.
        filter: Option<Expr>,
    },
    /// `BEGIN` / `BEGIN READ ONLY`.
    Begin {
        /// `READ ONLY`: the transaction runs against an MVCC snapshot,
        /// acquires no locks, and refuses DML.
        read_only: bool,
    },
    /// `COMMIT`.
    Commit,
    /// `ROLLBACK` / `ABORT`.
    Rollback,
    /// `ANALYZE table`.
    Analyze {
        /// Table to analyze.
        table: String,
    },
    /// `CHECKPOINT`: snapshot the database and truncate the log, under
    /// every partition lock.
    Checkpoint,
    /// `EXPLAIN stmt`.
    Explain(Box<Statement>),
}

impl Statement {
    /// True for `BEGIN` / `COMMIT` / `ROLLBACK` — statements that drive the
    /// session's transaction state rather than touching any table.
    pub fn is_txn_control(&self) -> bool {
        matches!(self, Statement::Begin { .. } | Statement::Commit | Statement::Rollback)
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::Column(c) => match &c.table {
                Some(t) => write!(f, "{t}.{}", c.name),
                None => write!(f, "{}", c.name),
            },
            Expr::Unary { op, expr } => match op {
                UnaryOp::Neg => write!(f, "(-{expr})"),
                UnaryOp::Not => write!(f, "(NOT {expr})"),
            },
            Expr::Binary { left, op, right } => write!(f, "({left} {} {right})", op.sql()),
            Expr::Agg { func, arg, distinct } => {
                let d = if *distinct { "DISTINCT " } else { "" };
                match arg {
                    Some(a) => write!(f, "{}({d}{a})", func.sql()),
                    None => write!(f, "{}(*)", func.sql()),
                }
            }
            Expr::IsNull { expr, negated } => {
                write!(f, "({expr} IS {}NULL)", if *negated { "NOT " } else { "" })
            }
            Expr::Between { expr, lo, hi, negated } => {
                write!(f, "({expr} {}BETWEEN {lo} AND {hi})", if *negated { "NOT " } else { "" })
            }
            Expr::InList { expr, list, negated } => {
                write!(f, "({expr} {}IN (", if *negated { "NOT " } else { "" })?;
                for (i, e) in list.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, "))")
            }
            Expr::Like { expr, pattern, negated } => {
                write!(f, "({expr} {}LIKE '{pattern}')", if *negated { "NOT " } else { "" })
            }
        }
    }
}

impl fmt::Display for SelectStmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT {}", if self.distinct { "DISTINCT " } else { "" })?;
        for (i, item) in self.items.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match item {
                SelectItem::Star => write!(f, "*")?,
                SelectItem::Expr { expr, alias } => {
                    write!(f, "{expr}")?;
                    if let Some(a) = alias {
                        write!(f, " AS {a}")?;
                    }
                }
            }
        }
        if !self.from.is_empty() {
            write!(f, " FROM ")?;
            for (i, t) in self.from.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", t.name)?;
                if let Some(a) = &t.alias {
                    write!(f, " AS {a}")?;
                }
            }
        }
        if let Some(w) = &self.filter {
            write!(f, " WHERE {w}")?;
        }
        if !self.group_by.is_empty() {
            write!(f, " GROUP BY ")?;
            for (i, g) in self.group_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{g}")?;
            }
        }
        if let Some(h) = &self.having {
            write!(f, " HAVING {h}")?;
        }
        if !self.order_by.is_empty() {
            write!(f, " ORDER BY ")?;
            for (i, (e, asc)) in self.order_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{e} {}", if *asc { "ASC" } else { "DESC" })?;
            }
        }
        if let Some(l) = self.limit {
            write!(f, " LIMIT {l}")?;
        }
        Ok(())
    }
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Statement::CreateTable { name, columns } => {
                write!(f, "CREATE TABLE {name} (")?;
                for (i, c) in columns.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{} {}", c.name, c.ty)?;
                    if !c.nullable {
                        write!(f, " NOT NULL")?;
                    }
                }
                write!(f, ")")
            }
            Statement::CreateIndex { name, table, column } => {
                write!(f, "CREATE INDEX {name} ON {table} ({column})")
            }
            Statement::DropTable { name } => write!(f, "DROP TABLE {name}"),
            Statement::Insert { table, columns, rows } => {
                write!(f, "INSERT INTO {table}")?;
                if let Some(cols) = columns {
                    write!(f, " ({})", cols.join(", "))?;
                }
                write!(f, " VALUES ")?;
                for (i, row) in rows.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "(")?;
                    for (j, e) in row.iter().enumerate() {
                        if j > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{e}")?;
                    }
                    write!(f, ")")?;
                }
                Ok(())
            }
            Statement::Select(s) => write!(f, "{s}"),
            Statement::Update { table, sets, filter } => {
                write!(f, "UPDATE {table} SET ")?;
                for (i, (c, e)) in sets.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{c} = {e}")?;
                }
                if let Some(w) = filter {
                    write!(f, " WHERE {w}")?;
                }
                Ok(())
            }
            Statement::Delete { table, filter } => {
                write!(f, "DELETE FROM {table}")?;
                if let Some(w) = filter {
                    write!(f, " WHERE {w}")?;
                }
                Ok(())
            }
            Statement::Begin { read_only: false } => write!(f, "BEGIN"),
            Statement::Begin { read_only: true } => write!(f, "BEGIN READ ONLY"),
            Statement::Commit => write!(f, "COMMIT"),
            Statement::Rollback => write!(f, "ROLLBACK"),
            Statement::Analyze { table } => write!(f, "ANALYZE {table}"),
            Statement::Checkpoint => write!(f, "CHECKPOINT"),
            Statement::Explain(s) => write!(f, "EXPLAIN {s}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contains_agg_descends() {
        let e = Expr::binary(
            Expr::col("a"),
            BinOp::Add,
            Expr::Agg { func: AggFunc::Sum, arg: Some(Box::new(Expr::col("b"))), distinct: false },
        );
        assert!(e.contains_agg());
        assert!(!Expr::col("a").contains_agg());
    }

    #[test]
    fn visit_columns_finds_all() {
        let e = Expr::Between {
            expr: Box::new(Expr::col("a")),
            lo: Box::new(Expr::col("b")),
            hi: Box::new(Expr::int(5)),
            negated: false,
        };
        let mut names = vec![];
        e.visit_columns(&mut |c| names.push(c.name.clone()));
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn display_renders_sql() {
        let e = Expr::binary(Expr::col("a"), BinOp::LtEq, Expr::int(3));
        assert_eq!(e.to_string(), "(a <= 3)");
        let s = Statement::Delete { table: "t".into(), filter: Some(e) };
        assert_eq!(s.to_string(), "DELETE FROM t WHERE (a <= 3)");
    }
}
