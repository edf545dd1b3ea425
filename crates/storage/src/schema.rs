//! Table schemas.

use crate::error::{StorageError, StorageResult};
use crate::tuple::Tuple;
use crate::value::DataType;
use std::fmt;

/// One column of a schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name (case-insensitive lookups, stored lower-case).
    pub name: String,
    /// Data type.
    pub ty: DataType,
    /// Whether NULLs are allowed.
    pub nullable: bool,
}

impl Column {
    /// A non-nullable column.
    pub fn new(name: impl Into<String>, ty: DataType) -> Self {
        Self { name: name.into().to_ascii_lowercase(), ty, nullable: false }
    }

    /// Make the column nullable.
    pub fn nullable(mut self) -> Self {
        self.nullable = true;
        self
    }
}

/// An ordered list of columns.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    columns: Vec<Column>,
}

impl Schema {
    /// Build a schema; panics on duplicate column names.
    pub fn new(columns: Vec<Column>) -> Self {
        for (i, c) in columns.iter().enumerate() {
            assert!(
                columns[..i].iter().all(|p| p.name != c.name),
                "duplicate column name {:?}",
                c.name
            );
        }
        Self { columns }
    }

    /// The columns in order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True for the empty schema.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Index of a column by (case-insensitive) name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        let lower = name.to_ascii_lowercase();
        self.columns.iter().position(|c| c.name == lower)
    }

    /// The column at `idx`.
    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// Concatenate two schemas (join output). Duplicate names are
    /// disambiguated with a numeric suffix.
    pub fn join(&self, other: &Schema) -> Schema {
        let mut cols = self.columns.clone();
        for c in &other.columns {
            let mut name = c.name.clone();
            let mut k = 1;
            while cols.iter().any(|e| e.name == name) {
                name = format!("{}_{k}", c.name);
                k += 1;
            }
            cols.push(Column { name, ty: c.ty, nullable: c.nullable });
        }
        Schema::new(cols)
    }

    /// Validate that a tuple conforms to this schema.
    pub fn validate(&self, tuple: &Tuple) -> StorageResult<()> {
        if tuple.values().len() != self.columns.len() {
            return Err(StorageError::SchemaMismatch(format!(
                "expected {} values, got {}",
                self.columns.len(),
                tuple.values().len()
            )));
        }
        for (v, c) in tuple.values().iter().zip(&self.columns) {
            match v.data_type() {
                None if !c.nullable => {
                    return Err(StorageError::SchemaMismatch(format!(
                        "column {} is not nullable",
                        c.name
                    )));
                }
                Some(t)
                    if t != c.ty
                    // Int is acceptable where Float is declared.
                    && !(c.ty == DataType::Float && t == DataType::Int) =>
                {
                    return Err(StorageError::SchemaMismatch(format!(
                        "column {} expects {}, got {}",
                        c.name, c.ty, t
                    )));
                }
                _ => {}
            }
        }
        Ok(())
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} {}", c.name, c.ty)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn abc() -> Schema {
        Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Str),
            Column::new("c", DataType::Float).nullable(),
        ])
    }

    #[test]
    fn index_of_is_case_insensitive() {
        let s = abc();
        assert_eq!(s.index_of("A"), Some(0));
        assert_eq!(s.index_of("b"), Some(1));
        assert_eq!(s.index_of("missing"), None);
    }

    #[test]
    fn validate_accepts_conforming_tuples() {
        let s = abc();
        let t = Tuple::new(vec![Value::Int(1), Value::Str("x".into()), Value::Null]);
        assert!(s.validate(&t).is_ok());
        let t2 = Tuple::new(vec![Value::Int(1), Value::Str("x".into()), Value::Int(3)]);
        assert!(s.validate(&t2).is_ok(), "int coerces into float column");
    }

    #[test]
    fn validate_rejects_bad_tuples() {
        let s = abc();
        assert!(s.validate(&Tuple::new(vec![Value::Int(1)])).is_err(), "arity");
        assert!(
            s.validate(&Tuple::new(vec![Value::Null, Value::Str("x".into()), Value::Null]))
                .is_err(),
            "null in non-nullable"
        );
        assert!(
            s.validate(&Tuple::new(vec![
                Value::Str("no".into()),
                Value::Str("x".into()),
                Value::Null
            ]))
            .is_err(),
            "type mismatch"
        );
    }

    #[test]
    fn join_disambiguates_duplicate_names() {
        let s = abc().join(&abc());
        assert_eq!(s.len(), 6);
        assert!(s.index_of("a").is_some());
        assert!(s.index_of("a_1").is_some());
    }

    #[test]
    #[should_panic(expected = "duplicate column")]
    fn duplicate_columns_panic() {
        Schema::new(vec![Column::new("x", DataType::Int), Column::new("X", DataType::Int)]);
    }
}
