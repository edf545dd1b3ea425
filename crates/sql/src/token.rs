//! SQL lexer.

use crate::error::{SqlError, SqlResult};

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Keyword (upper-cased) — `SELECT`, `FROM`, …
    Keyword(String),
    /// Identifier (lower-cased).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal (single-quoted, `''` escapes a quote).
    Str(String),
    /// Punctuation / operator.
    Symbol(Sym),
    /// End of input.
    Eof,
}

/// Operator and punctuation tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sym {
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `;`
    Semicolon,
    /// `*`
    Star,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `=`
    Eq,
    /// `<>` or `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `.`
    Dot,
}

/// All recognized keywords.
#[rustfmt::skip]
pub const KEYWORDS: &[&str] = &[
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER", "LIMIT", "ASC", "DESC", "INSERT",
    "INTO", "VALUES", "UPDATE", "SET", "DELETE", "CREATE", "TABLE", "INDEX", "DROP", "ON", "JOIN",
    "INNER", "AS", "AND", "OR", "NOT", "NULL", "IS", "IN", "BETWEEN", "LIKE", "TRUE", "FALSE",
    "INT", "INTEGER", "FLOAT", "VARCHAR", "TEXT", "BOOL", "BOOLEAN", "COUNT", "SUM", "AVG", "MIN",
    "MAX", "DISTINCT", "BEGIN", "COMMIT", "ROLLBACK", "ABORT", "ANALYZE", "EXPLAIN", "PREPARE",
    "EXECUTE", "READ", "ONLY", "CHECKPOINT",
];

/// A token plus its byte offset.
#[derive(Debug, Clone, PartialEq)]
pub struct Spanned {
    /// The token.
    pub token: Token,
    /// Byte offset of the token start.
    pub offset: usize,
}

/// Streaming lexer over SQL text.
pub struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    /// Lex the given SQL text.
    pub fn new(src: &'a str) -> Self {
        Self { src: src.as_bytes(), pos: 0 }
    }

    /// Tokenize everything.
    pub fn tokenize(mut self) -> SqlResult<Vec<Spanned>> {
        let mut out = Vec::new();
        loop {
            let t = self.next_token()?;
            let eof = t.token == Token::Eof;
            out.push(t);
            if eof {
                return Ok(out);
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn skip_ws(&mut self) {
        while let Some(c) = self.peek() {
            if c.is_ascii_whitespace() {
                self.pos += 1;
            } else if c == b'-' && self.src.get(self.pos + 1) == Some(&b'-') {
                // -- line comment
                while let Some(c) = self.peek() {
                    self.pos += 1;
                    if c == b'\n' {
                        break;
                    }
                }
            } else {
                break;
            }
        }
    }

    /// Produce the next token.
    pub fn next_token(&mut self) -> SqlResult<Spanned> {
        self.skip_ws();
        let offset = self.pos;
        let Some(c) = self.bump() else {
            return Ok(Spanned { token: Token::Eof, offset });
        };
        let token = match c {
            b'(' => Token::Symbol(Sym::LParen),
            b')' => Token::Symbol(Sym::RParen),
            b',' => Token::Symbol(Sym::Comma),
            b';' => Token::Symbol(Sym::Semicolon),
            b'*' => Token::Symbol(Sym::Star),
            b'+' => Token::Symbol(Sym::Plus),
            b'-' => Token::Symbol(Sym::Minus),
            b'/' => Token::Symbol(Sym::Slash),
            b'%' => Token::Symbol(Sym::Percent),
            b'.' => Token::Symbol(Sym::Dot),
            b'=' => Token::Symbol(Sym::Eq),
            b'!' => {
                if self.peek() == Some(b'=') {
                    self.pos += 1;
                    Token::Symbol(Sym::NotEq)
                } else {
                    return Err(SqlError::at(offset, "unexpected '!'"));
                }
            }
            b'<' => match self.peek() {
                Some(b'=') => {
                    self.pos += 1;
                    Token::Symbol(Sym::LtEq)
                }
                Some(b'>') => {
                    self.pos += 1;
                    Token::Symbol(Sym::NotEq)
                }
                _ => Token::Symbol(Sym::Lt),
            },
            b'>' => {
                if self.peek() == Some(b'=') {
                    self.pos += 1;
                    Token::Symbol(Sym::GtEq)
                } else {
                    Token::Symbol(Sym::Gt)
                }
            }
            b'\'' => {
                let mut s = String::new();
                loop {
                    match self.bump() {
                        Some(b'\'') => {
                            if self.peek() == Some(b'\'') {
                                self.pos += 1;
                                s.push('\'');
                            } else {
                                break;
                            }
                        }
                        Some(c) => s.push(c as char),
                        None => return Err(SqlError::at(offset, "unterminated string")),
                    }
                }
                Token::Str(s)
            }
            c if c.is_ascii_digit() => {
                let mut end = self.pos;
                let mut is_float = false;
                while let Some(&d) = self.src.get(end) {
                    if d.is_ascii_digit() {
                        end += 1;
                    } else if d == b'.'
                        && !is_float
                        && self.src.get(end + 1).is_some_and(u8::is_ascii_digit)
                    {
                        is_float = true;
                        end += 1;
                    } else {
                        break;
                    }
                }
                let text = std::str::from_utf8(&self.src[offset..end]).unwrap();
                self.pos = end;
                if is_float {
                    Token::Float(
                        text.parse().map_err(|_| SqlError::at(offset, "bad float literal"))?,
                    )
                } else {
                    Token::Int(text.parse().map_err(|_| SqlError::at(offset, "bad int literal"))?)
                }
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let mut end = self.pos;
                while let Some(&d) = self.src.get(end) {
                    if d.is_ascii_alphanumeric() || d == b'_' {
                        end += 1;
                    } else {
                        break;
                    }
                }
                let word = std::str::from_utf8(&self.src[offset..end]).unwrap();
                self.pos = end;
                let upper = word.to_ascii_uppercase();
                if KEYWORDS.contains(&upper.as_str()) {
                    Token::Keyword(upper)
                } else {
                    Token::Ident(word.to_ascii_lowercase())
                }
            }
            c => return Err(SqlError::at(offset, format!("unexpected character {:?}", c as char))),
        };
        Ok(Spanned { token, offset })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(sql: &str) -> Vec<Token> {
        Lexer::new(sql).tokenize().unwrap().into_iter().map(|s| s.token).collect()
    }

    #[test]
    fn lexes_select_statement() {
        let t = kinds("SELECT a, b FROM t WHERE a >= 10;");
        assert_eq!(t[0], Token::Keyword("SELECT".into()));
        assert_eq!(t[1], Token::Ident("a".into()));
        assert_eq!(t[2], Token::Symbol(Sym::Comma));
        assert!(t.contains(&Token::Symbol(Sym::GtEq)));
        assert_eq!(*t.last().unwrap(), Token::Eof);
    }

    #[test]
    fn keywords_are_case_insensitive_idents_lowered() {
        let t = kinds("select FooBar");
        assert_eq!(t[0], Token::Keyword("SELECT".into()));
        assert_eq!(t[1], Token::Ident("foobar".into()));
    }

    #[test]
    fn numbers_and_strings() {
        let t = kinds("42 3.5 'it''s'");
        assert_eq!(t[0], Token::Int(42));
        assert_eq!(t[1], Token::Float(3.5));
        assert_eq!(t[2], Token::Str("it's".into()));
    }

    #[test]
    fn comparison_operators() {
        let t = kinds("< <= > >= = <> !=");
        assert_eq!(
            t[..7],
            [
                Token::Symbol(Sym::Lt),
                Token::Symbol(Sym::LtEq),
                Token::Symbol(Sym::Gt),
                Token::Symbol(Sym::GtEq),
                Token::Symbol(Sym::Eq),
                Token::Symbol(Sym::NotEq),
                Token::Symbol(Sym::NotEq)
            ]
        );
    }

    #[test]
    fn line_comments_are_skipped() {
        let t = kinds("SELECT -- the projection\n 1");
        assert_eq!(t[0], Token::Keyword("SELECT".into()));
        assert_eq!(t[1], Token::Int(1));
    }

    #[test]
    fn errors_carry_offsets() {
        let err = Lexer::new("SELECT @").tokenize().unwrap_err();
        assert_eq!(err.offset, Some(7));
        let err = Lexer::new("'oops").tokenize().unwrap_err();
        assert_eq!(err.offset, Some(0));
    }

    #[test]
    fn dotted_names_lex_as_ident_dot_ident() {
        let t = kinds("t1.a");
        assert_eq!(
            t[..3],
            [Token::Ident("t1".into()), Token::Symbol(Sym::Dot), Token::Ident("a".into())]
        );
    }
}
