//! Recursive-descent SQL parser.
//!
//! Expressions use precedence climbing (OR < AND < NOT < comparison <
//! additive < multiplicative < unary). `JOIN … ON` conditions are folded
//! into the WHERE conjunction so the planner sees one uniform predicate set.
//!
//! The parser can be *instrumented* ([`ParseInstrument`]): every token
//! touches the parser's code working set, every keyword/identifier touches
//! the shared symbol table, and the query text itself is a private working
//! set — this drives the §3.1.3 parse-affinity experiment with real parsing
//! control flow rather than a synthetic loop.

use crate::ast::*;
use crate::error::{SqlError, SqlResult};
use crate::token::{Lexer, Spanned, Sym, Token};
use staged_cachesim::{CacheProbe, Region};
use staged_storage::{DataType, Value};

/// Cache-instrumentation hooks for the parse stage.
pub struct ParseInstrument<'a> {
    /// The cache being driven.
    pub probe: &'a dyn CacheProbe,
    /// Region standing in for the parser's code footprint (common).
    pub code: Region,
    /// Region standing in for the keyword/symbol table (common data).
    pub symtab: Region,
    /// Region standing in for this query's private text and AST.
    pub private: Region,
}

impl<'a> ParseInstrument<'a> {
    fn token(&self, kind_hash: u64, len: usize) {
        // Token dispatch walks a slice of the parser code...
        self.probe.touch(self.code, (kind_hash % 64) * 256, 256);
        // ...and the raw text is consumed from the private query buffer.
        self.probe.touch(self.private, 0, len as u64);
    }

    fn symbol_lookup(&self, name: &str) {
        let h = fxhash(name);
        self.probe.touch(self.symtab, (h % 128) * 64, 64);
    }

    fn production(&self, rule: u64) {
        self.probe.touch(self.code, 16 * 1024 + (rule % 32) * 512, 512);
    }
}

fn fxhash(s: &str) -> u64 {
    s.bytes().fold(0xcbf29ce484222325u64, |h, b| (h ^ b as u64).wrapping_mul(0x100000001b3))
}

/// Parse one SQL statement (trailing `;` allowed).
pub fn parse_statement(sql: &str) -> SqlResult<Statement> {
    Parser::new(sql, None)?.parse_single()
}

/// Parse a `;`-separated script.
pub fn parse_sql(sql: &str) -> SqlResult<Vec<Statement>> {
    Parser::new(sql, None)?.parse_script()
}

/// The parser.
pub struct Parser<'a> {
    tokens: Vec<Spanned>,
    pos: usize,
    inst: Option<ParseInstrument<'a>>,
}

impl<'a> Parser<'a> {
    /// Tokenize and prepare to parse; `inst` enables cache instrumentation.
    pub fn new(sql: &str, inst: Option<ParseInstrument<'a>>) -> SqlResult<Self> {
        let tokens = Lexer::new(sql).tokenize()?;
        if let Some(i) = &inst {
            for t in &tokens {
                let (hash, len) = match &t.token {
                    Token::Keyword(k) => {
                        i.symbol_lookup(k);
                        (fxhash(k), k.len())
                    }
                    Token::Ident(id) => {
                        i.symbol_lookup(id);
                        (fxhash(id), id.len())
                    }
                    Token::Str(s) => (3, s.len() + 2),
                    Token::Int(_) | Token::Float(_) => (5, 4),
                    Token::Symbol(_) => (7, 1),
                    Token::Eof => (11, 0),
                };
                i.token(hash, len.max(1));
            }
        }
        Ok(Self { tokens, pos: 0, inst })
    }

    fn note(&self, rule: u64) {
        if let Some(i) = &self.inst {
            i.production(rule);
        }
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos].token
    }

    fn offset(&self) -> usize {
        self.tokens[self.pos].offset
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos].token.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Token::Keyword(k) if k == kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> SqlResult<()> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(SqlError::at(self.offset(), format!("expected {kw}, found {:?}", self.peek())))
        }
    }

    fn eat_symbol(&mut self, s: Sym) -> bool {
        if matches!(self.peek(), Token::Symbol(x) if *x == s) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_symbol(&mut self, s: Sym) -> SqlResult<()> {
        if self.eat_symbol(s) {
            Ok(())
        } else {
            Err(SqlError::at(self.offset(), format!("expected {s:?}, found {:?}", self.peek())))
        }
    }

    fn expect_ident(&mut self) -> SqlResult<String> {
        match self.bump() {
            Token::Ident(s) => Ok(s),
            t => Err(SqlError::at(self.offset(), format!("expected identifier, found {t:?}"))),
        }
    }

    /// Parse exactly one statement; error on trailing tokens.
    pub fn parse_single(&mut self) -> SqlResult<Statement> {
        let stmt = self.parse_stmt()?;
        self.eat_symbol(Sym::Semicolon);
        if *self.peek() != Token::Eof {
            return Err(SqlError::at(self.offset(), "unexpected trailing input"));
        }
        Ok(stmt)
    }

    /// Parse a script of statements.
    pub fn parse_script(&mut self) -> SqlResult<Vec<Statement>> {
        let mut out = Vec::new();
        loop {
            while self.eat_symbol(Sym::Semicolon) {}
            if *self.peek() == Token::Eof {
                return Ok(out);
            }
            out.push(self.parse_stmt()?);
        }
    }

    fn parse_stmt(&mut self) -> SqlResult<Statement> {
        self.note(1);
        match self.peek().clone() {
            Token::Keyword(k) => match k.as_str() {
                "SELECT" => Ok(Statement::Select(self.parse_select()?)),
                "CREATE" => self.parse_create(),
                "DROP" => {
                    self.bump();
                    self.expect_keyword("TABLE")?;
                    Ok(Statement::DropTable { name: self.expect_ident()? })
                }
                "INSERT" => self.parse_insert(),
                "UPDATE" => self.parse_update(),
                "DELETE" => self.parse_delete(),
                "BEGIN" => {
                    self.bump();
                    let read_only = if self.eat_keyword("READ") {
                        self.expect_keyword("ONLY")?;
                        true
                    } else {
                        false
                    };
                    Ok(Statement::Begin { read_only })
                }
                "COMMIT" => {
                    self.bump();
                    Ok(Statement::Commit)
                }
                "ROLLBACK" | "ABORT" => {
                    self.bump();
                    Ok(Statement::Rollback)
                }
                "ANALYZE" => {
                    self.bump();
                    Ok(Statement::Analyze { table: self.expect_ident()? })
                }
                "CHECKPOINT" => {
                    self.bump();
                    Ok(Statement::Checkpoint)
                }
                "EXPLAIN" => {
                    self.bump();
                    Ok(Statement::Explain(Box::new(self.parse_stmt()?)))
                }
                other => Err(SqlError::at(self.offset(), format!("unexpected keyword {other}"))),
            },
            t => Err(SqlError::at(self.offset(), format!("unexpected token {t:?}"))),
        }
    }

    fn parse_create(&mut self) -> SqlResult<Statement> {
        self.bump(); // CREATE
        if self.eat_keyword("TABLE") {
            let name = self.expect_ident()?;
            self.expect_symbol(Sym::LParen)?;
            let mut columns = Vec::new();
            loop {
                let col = self.expect_ident()?;
                let ty = self.parse_type()?;
                let mut nullable = true;
                if self.eat_keyword("NOT") {
                    self.expect_keyword("NULL")?;
                    nullable = false;
                } else if self.eat_keyword("NULL") {
                    nullable = true;
                }
                columns.push(ColumnDef { name: col, ty, nullable });
                if !self.eat_symbol(Sym::Comma) {
                    break;
                }
            }
            self.expect_symbol(Sym::RParen)?;
            Ok(Statement::CreateTable { name, columns })
        } else if self.eat_keyword("INDEX") {
            let name = self.expect_ident()?;
            self.expect_keyword("ON")?;
            let table = self.expect_ident()?;
            self.expect_symbol(Sym::LParen)?;
            let column = self.expect_ident()?;
            self.expect_symbol(Sym::RParen)?;
            Ok(Statement::CreateIndex { name, table, column })
        } else {
            Err(SqlError::at(self.offset(), "expected TABLE or INDEX after CREATE"))
        }
    }

    fn parse_type(&mut self) -> SqlResult<DataType> {
        match self.bump() {
            Token::Keyword(k) => {
                let ty = match k.as_str() {
                    "INT" | "INTEGER" => DataType::Int,
                    "FLOAT" => DataType::Float,
                    "VARCHAR" | "TEXT" => {
                        // Optional length, ignored: VARCHAR(32).
                        if self.eat_symbol(Sym::LParen) {
                            self.bump();
                            self.expect_symbol(Sym::RParen)?;
                        }
                        DataType::Str
                    }
                    "BOOL" | "BOOLEAN" => DataType::Bool,
                    other => {
                        return Err(SqlError::at(self.offset(), format!("unknown type {other}")))
                    }
                };
                Ok(ty)
            }
            t => Err(SqlError::at(self.offset(), format!("expected type, found {t:?}"))),
        }
    }

    fn parse_insert(&mut self) -> SqlResult<Statement> {
        self.bump(); // INSERT
        self.expect_keyword("INTO")?;
        let table = self.expect_ident()?;
        let columns = if self.eat_symbol(Sym::LParen) {
            let mut cols = vec![self.expect_ident()?];
            while self.eat_symbol(Sym::Comma) {
                cols.push(self.expect_ident()?);
            }
            self.expect_symbol(Sym::RParen)?;
            Some(cols)
        } else {
            None
        };
        self.expect_keyword("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect_symbol(Sym::LParen)?;
            let mut row = vec![self.parse_expr()?];
            while self.eat_symbol(Sym::Comma) {
                row.push(self.parse_expr()?);
            }
            self.expect_symbol(Sym::RParen)?;
            rows.push(row);
            if !self.eat_symbol(Sym::Comma) {
                break;
            }
        }
        Ok(Statement::Insert { table, columns, rows })
    }

    fn parse_update(&mut self) -> SqlResult<Statement> {
        self.bump(); // UPDATE
        let table = self.expect_ident()?;
        self.expect_keyword("SET")?;
        let mut sets = Vec::new();
        loop {
            let col = self.expect_ident()?;
            self.expect_symbol(Sym::Eq)?;
            sets.push((col, self.parse_expr()?));
            if !self.eat_symbol(Sym::Comma) {
                break;
            }
        }
        let filter = if self.eat_keyword("WHERE") { Some(self.parse_expr()?) } else { None };
        Ok(Statement::Update { table, sets, filter })
    }

    fn parse_delete(&mut self) -> SqlResult<Statement> {
        self.bump(); // DELETE
        self.expect_keyword("FROM")?;
        let table = self.expect_ident()?;
        let filter = if self.eat_keyword("WHERE") { Some(self.parse_expr()?) } else { None };
        Ok(Statement::Delete { table, filter })
    }

    fn parse_select(&mut self) -> SqlResult<SelectStmt> {
        self.note(2);
        self.expect_keyword("SELECT")?;
        let distinct = self.eat_keyword("DISTINCT");
        let mut items = vec![self.parse_select_item()?];
        while self.eat_symbol(Sym::Comma) {
            items.push(self.parse_select_item()?);
        }
        let mut from = Vec::new();
        let mut join_filters: Vec<Expr> = Vec::new();
        if self.eat_keyword("FROM") {
            from.push(self.parse_table_ref()?);
            loop {
                if self.eat_symbol(Sym::Comma) {
                    from.push(self.parse_table_ref()?);
                } else if self.eat_keyword("JOIN")
                    || (self.eat_keyword("INNER") && {
                        self.expect_keyword("JOIN")?;
                        true
                    })
                {
                    from.push(self.parse_table_ref()?);
                    self.expect_keyword("ON")?;
                    join_filters.push(self.parse_expr()?);
                } else {
                    break;
                }
            }
        }
        let mut filter = if self.eat_keyword("WHERE") { Some(self.parse_expr()?) } else { None };
        // Fold JOIN ... ON conditions into the WHERE conjunction.
        for jf in join_filters {
            filter = Some(match filter {
                Some(f) => Expr::binary(f, BinOp::And, jf),
                None => jf,
            });
        }
        let mut group_by = Vec::new();
        if self.eat_keyword("GROUP") {
            self.expect_keyword("BY")?;
            group_by.push(self.parse_expr()?);
            while self.eat_symbol(Sym::Comma) {
                group_by.push(self.parse_expr()?);
            }
        }
        let having = if self.eat_keyword("HAVING") { Some(self.parse_expr()?) } else { None };
        let mut order_by = Vec::new();
        if self.eat_keyword("ORDER") {
            self.expect_keyword("BY")?;
            loop {
                let e = self.parse_expr()?;
                let asc = if self.eat_keyword("DESC") {
                    false
                } else {
                    self.eat_keyword("ASC");
                    true
                };
                order_by.push((e, asc));
                if !self.eat_symbol(Sym::Comma) {
                    break;
                }
            }
        }
        let limit = if self.eat_keyword("LIMIT") {
            match self.bump() {
                Token::Int(n) if n >= 0 => Some(n as u64),
                t => return Err(SqlError::at(self.offset(), format!("bad LIMIT {t:?}"))),
            }
        } else {
            None
        };
        Ok(SelectStmt { items, from, filter, group_by, having, order_by, limit, distinct })
    }

    fn parse_select_item(&mut self) -> SqlResult<SelectItem> {
        if self.eat_symbol(Sym::Star) {
            return Ok(SelectItem::Star);
        }
        let expr = self.parse_expr()?;
        let alias = if self.eat_keyword("AS") {
            Some(self.expect_ident()?)
        } else if let Token::Ident(_) = self.peek() {
            // Bare alias: SELECT a b FROM ... — disallowed to keep the
            // grammar unambiguous; identifiers here are an error.
            None
        } else {
            None
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    fn parse_table_ref(&mut self) -> SqlResult<TableRef> {
        let name = self.expect_ident()?;
        let alias = if self.eat_keyword("AS") {
            Some(self.expect_ident()?)
        } else if let Token::Ident(_) = self.peek() {
            Some(self.expect_ident()?)
        } else {
            None
        };
        Ok(TableRef { name, alias })
    }

    /// Entry point for expressions.
    pub fn parse_expr(&mut self) -> SqlResult<Expr> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> SqlResult<Expr> {
        let mut left = self.parse_and()?;
        while self.eat_keyword("OR") {
            let right = self.parse_and()?;
            left = Expr::binary(left, BinOp::Or, right);
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> SqlResult<Expr> {
        let mut left = self.parse_not()?;
        while self.eat_keyword("AND") {
            let right = self.parse_not()?;
            left = Expr::binary(left, BinOp::And, right);
        }
        Ok(left)
    }

    fn parse_not(&mut self) -> SqlResult<Expr> {
        if self.eat_keyword("NOT") {
            let e = self.parse_not()?;
            Ok(Expr::Unary { op: UnaryOp::Not, expr: Box::new(e) })
        } else {
            self.parse_comparison()
        }
    }

    fn parse_comparison(&mut self) -> SqlResult<Expr> {
        self.note(3);
        let left = self.parse_additive()?;
        // IS [NOT] NULL
        if self.eat_keyword("IS") {
            let negated = self.eat_keyword("NOT");
            self.expect_keyword("NULL")?;
            return Ok(Expr::IsNull { expr: Box::new(left), negated });
        }
        let negated = if matches!(self.peek(), Token::Keyword(k) if k == "NOT") {
            // NOT BETWEEN / NOT IN / NOT LIKE
            self.bump();
            true
        } else {
            false
        };
        if self.eat_keyword("BETWEEN") {
            let lo = self.parse_additive()?;
            self.expect_keyword("AND")?;
            let hi = self.parse_additive()?;
            return Ok(Expr::Between {
                expr: Box::new(left),
                lo: Box::new(lo),
                hi: Box::new(hi),
                negated,
            });
        }
        if self.eat_keyword("IN") {
            self.expect_symbol(Sym::LParen)?;
            let mut list = vec![self.parse_expr()?];
            while self.eat_symbol(Sym::Comma) {
                list.push(self.parse_expr()?);
            }
            self.expect_symbol(Sym::RParen)?;
            return Ok(Expr::InList { expr: Box::new(left), list, negated });
        }
        if self.eat_keyword("LIKE") {
            match self.bump() {
                Token::Str(p) => {
                    return Ok(Expr::Like { expr: Box::new(left), pattern: p, negated })
                }
                t => return Err(SqlError::at(self.offset(), format!("bad LIKE pattern {t:?}"))),
            }
        }
        if negated {
            return Err(SqlError::at(self.offset(), "NOT must precede BETWEEN/IN/LIKE here"));
        }
        let op = match self.peek() {
            Token::Symbol(Sym::Eq) => Some(BinOp::Eq),
            Token::Symbol(Sym::NotEq) => Some(BinOp::NotEq),
            Token::Symbol(Sym::Lt) => Some(BinOp::Lt),
            Token::Symbol(Sym::LtEq) => Some(BinOp::LtEq),
            Token::Symbol(Sym::Gt) => Some(BinOp::Gt),
            Token::Symbol(Sym::GtEq) => Some(BinOp::GtEq),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let right = self.parse_additive()?;
            Ok(Expr::binary(left, op, right))
        } else {
            Ok(left)
        }
    }

    fn parse_additive(&mut self) -> SqlResult<Expr> {
        let mut left = self.parse_multiplicative()?;
        loop {
            let op = match self.peek() {
                Token::Symbol(Sym::Plus) => BinOp::Add,
                Token::Symbol(Sym::Minus) => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let right = self.parse_multiplicative()?;
            left = Expr::binary(left, op, right);
        }
        Ok(left)
    }

    fn parse_multiplicative(&mut self) -> SqlResult<Expr> {
        let mut left = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                Token::Symbol(Sym::Star) => BinOp::Mul,
                Token::Symbol(Sym::Slash) => BinOp::Div,
                Token::Symbol(Sym::Percent) => BinOp::Mod,
                _ => break,
            };
            self.bump();
            let right = self.parse_unary()?;
            left = Expr::binary(left, op, right);
        }
        Ok(left)
    }

    fn parse_unary(&mut self) -> SqlResult<Expr> {
        if self.eat_symbol(Sym::Minus) {
            let e = self.parse_unary()?;
            return Ok(Expr::Unary { op: UnaryOp::Neg, expr: Box::new(e) });
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> SqlResult<Expr> {
        self.note(4);
        match self.bump() {
            Token::Int(i) => Ok(Expr::Literal(Value::Int(i))),
            Token::Float(x) => Ok(Expr::Literal(Value::Float(x))),
            Token::Str(s) => Ok(Expr::Literal(Value::Str(s))),
            Token::Keyword(k) => match k.as_str() {
                "TRUE" => Ok(Expr::Literal(Value::Bool(true))),
                "FALSE" => Ok(Expr::Literal(Value::Bool(false))),
                "NULL" => Ok(Expr::Literal(Value::Null)),
                "COUNT" | "SUM" | "AVG" | "MIN" | "MAX" => self.parse_agg(&k),
                other => Err(SqlError::at(
                    self.offset(),
                    format!("unexpected keyword {other} in expression"),
                )),
            },
            Token::Ident(first) => {
                if self.eat_symbol(Sym::Dot) {
                    let col = self.expect_ident()?;
                    Ok(Expr::Column(ColumnRef::new(Some(first), col)))
                } else {
                    Ok(Expr::Column(ColumnRef::new(None, first)))
                }
            }
            Token::Symbol(Sym::LParen) => {
                let e = self.parse_expr()?;
                self.expect_symbol(Sym::RParen)?;
                Ok(e)
            }
            t => Err(SqlError::at(self.offset(), format!("unexpected token {t:?} in expression"))),
        }
    }

    fn parse_agg(&mut self, name: &str) -> SqlResult<Expr> {
        let func = match name {
            "COUNT" => AggFunc::Count,
            "SUM" => AggFunc::Sum,
            "AVG" => AggFunc::Avg,
            "MIN" => AggFunc::Min,
            "MAX" => AggFunc::Max,
            _ => unreachable!("checked by caller"),
        };
        self.expect_symbol(Sym::LParen)?;
        if self.eat_symbol(Sym::Star) {
            if func != AggFunc::Count {
                return Err(SqlError::at(self.offset(), "only COUNT accepts *"));
            }
            self.expect_symbol(Sym::RParen)?;
            return Ok(Expr::Agg { func, arg: None, distinct: false });
        }
        let distinct = self.eat_keyword("DISTINCT");
        let arg = self.parse_expr()?;
        self.expect_symbol(Sym::RParen)?;
        Ok(Expr::Agg { func, arg: Some(Box::new(arg)), distinct })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_select() {
        let s =
            parse_statement("SELECT a, b FROM t WHERE a = 1 ORDER BY b DESC LIMIT 10;").unwrap();
        let Statement::Select(sel) = s else { panic!("not a select") };
        assert_eq!(sel.items.len(), 2);
        assert_eq!(sel.from[0].name, "t");
        assert!(sel.filter.is_some());
        assert_eq!(sel.order_by.len(), 1);
        assert!(!sel.order_by[0].1);
        assert_eq!(sel.limit, Some(10));
    }

    #[test]
    fn join_on_folds_into_where() {
        let s = parse_statement("SELECT * FROM a JOIN b ON a.x = b.y WHERE a.z > 3").unwrap();
        let Statement::Select(sel) = s else { panic!() };
        assert_eq!(sel.from.len(), 2);
        let f = sel.filter.unwrap().to_string();
        assert!(f.contains("a.x = b.y") || f.contains("(a.x = b.y)"), "{f}");
        assert!(f.contains("AND"));
    }

    #[test]
    fn operator_precedence() {
        let Statement::Select(sel) = parse_statement("SELECT 1 + 2 * 3").unwrap() else { panic!() };
        let SelectItem::Expr { expr, .. } = &sel.items[0] else { panic!() };
        assert_eq!(expr.to_string(), "(1 + (2 * 3))");
        let Statement::Select(sel) = parse_statement("SELECT a OR b AND NOT c = 1").unwrap() else {
            panic!()
        };
        let SelectItem::Expr { expr, .. } = &sel.items[0] else { panic!() };
        assert_eq!(expr.to_string(), "(a OR (b AND (NOT (c = 1))))");
    }

    #[test]
    fn aggregates_group_by_having() {
        let s =
            parse_statement("SELECT grp, COUNT(*), AVG(v) FROM t GROUP BY grp HAVING COUNT(*) > 2")
                .unwrap();
        let Statement::Select(sel) = s else { panic!() };
        assert_eq!(sel.group_by.len(), 1);
        assert!(sel.having.unwrap().contains_agg());
    }

    #[test]
    fn between_in_like_isnull() {
        let sql = "SELECT * FROM t WHERE a BETWEEN 1 AND 5 AND b IN (1, 2) \
                   AND c LIKE 'x%' AND d IS NOT NULL AND e NOT IN (3)";
        let Statement::Select(sel) = parse_statement(sql).unwrap() else { panic!() };
        let f = sel.filter.unwrap().to_string();
        assert!(f.contains("BETWEEN"));
        assert!(f.contains("IN"));
        assert!(f.contains("LIKE"));
        assert!(f.contains("IS NOT NULL"));
    }

    #[test]
    fn ddl_and_dml_statements() {
        assert!(matches!(
            parse_statement("CREATE TABLE t (a INT NOT NULL, b VARCHAR(10))").unwrap(),
            Statement::CreateTable { ref columns, .. } if columns.len() == 2 && !columns[0].nullable
        ));
        assert!(matches!(
            parse_statement("CREATE INDEX i ON t (a)").unwrap(),
            Statement::CreateIndex { .. }
        ));
        assert!(matches!(
            parse_statement("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')").unwrap(),
            Statement::Insert { ref rows, .. } if rows.len() == 2
        ));
        assert!(matches!(
            parse_statement("UPDATE t SET a = a + 1 WHERE b = 2").unwrap(),
            Statement::Update { ref sets, .. } if sets.len() == 1
        ));
        assert!(matches!(
            parse_statement("DELETE FROM t WHERE a < 0").unwrap(),
            Statement::Delete { .. }
        ));
        assert!(matches!(parse_statement("BEGIN").unwrap(), Statement::Begin { read_only: false }));
        assert!(matches!(
            parse_statement("BEGIN READ ONLY").unwrap(),
            Statement::Begin { read_only: true }
        ));
        assert!(parse_statement("BEGIN READ").is_err());
        assert!(matches!(parse_statement("COMMIT").unwrap(), Statement::Commit));
        assert!(matches!(parse_statement("ANALYZE t").unwrap(), Statement::Analyze { .. }));
        assert!(matches!(parse_statement("checkpoint;").unwrap(), Statement::Checkpoint));
        assert!(matches!(
            parse_statement("EXPLAIN SELECT * FROM t").unwrap(),
            Statement::Explain(_)
        ));
    }

    #[test]
    fn script_parses_multiple_statements() {
        let stmts = parse_sql("BEGIN; INSERT INTO t VALUES (1); COMMIT;").unwrap();
        assert_eq!(stmts.len(), 3);
    }

    #[test]
    fn trailing_garbage_is_an_error() {
        assert!(parse_statement("SELECT 1 garbage garbage").is_err());
        assert!(parse_statement("SELECT FROM").is_err());
        assert!(parse_statement("").is_err());
    }

    #[test]
    fn print_reparse_fixpoint_on_samples() {
        let samples = [
            "SELECT a, b AS bee FROM t AS x WHERE ((a = 1) AND (b < 3.5)) ORDER BY a ASC LIMIT 5",
            "SELECT DISTINCT grp, SUM(v) FROM t GROUP BY grp HAVING (COUNT(*) > 2)",
            "DELETE FROM t WHERE (name LIKE 'a%')",
            "INSERT INTO t (a) VALUES (1), (2)",
            "UPDATE t SET a = (a + 1)",
        ];
        for sql in samples {
            let s1 = parse_statement(sql).unwrap();
            let printed = s1.to_string();
            let s2 = parse_statement(&printed)
                .unwrap_or_else(|e| panic!("reparse of {printed:?} failed: {e}"));
            assert_eq!(s1, s2, "fixpoint for {sql}");
        }
    }

    #[test]
    fn instrumented_parse_touches_cache() {
        use staged_cachesim::{AddressSpace, CacheConfig, CacheSim, SimProbe};
        let mut space = AddressSpace::new();
        let code = space.alloc(32 * 1024);
        let symtab = space.alloc(8 * 1024);
        let private = space.alloc(1024);
        let probe = SimProbe::new(CacheSim::new(CacheConfig::l1_like()), 1e-9, 1e-7);
        let inst = ParseInstrument { probe: &probe, code, symtab, private };
        let mut p = Parser::new("SELECT a FROM t WHERE a = 1", Some(inst)).unwrap();
        p.parse_single().unwrap();
        let stats = probe.stats();
        assert!(stats.hits + stats.misses > 0, "instrumentation must touch the cache");
        assert!(probe.cost() > 0.0);
    }
}
