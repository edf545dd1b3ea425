//! Typed values and their byte encoding.

use crate::error::{StorageError, StorageResult};
use bytes::{Buf, BufMut};
use std::cmp::Ordering;
use std::fmt;

/// Column data types supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float.
    Float,
    /// Variable-length UTF-8 string.
    Str,
    /// Boolean.
    Bool,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Int => write!(f, "INT"),
            DataType::Float => write!(f, "FLOAT"),
            DataType::Str => write!(f, "VARCHAR"),
            DataType::Bool => write!(f, "BOOL"),
        }
    }
}

/// A runtime value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Integer.
    Int(i64),
    /// Float.
    Float(f64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl Value {
    /// The value's type, `None` for NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
            Value::Bool(_) => Some(DataType::Bool),
        }
    }

    /// True if the value is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Integer content, coercing floats; `None` otherwise.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Float(f) => Some(*f as i64),
            _ => None,
        }
    }

    /// Float content, coercing ints; `None` otherwise.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// String content.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean content.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// SQL comparison: NULL compares as unknown (`None`); numeric types
    /// compare across Int/Float exactly, so an `Int` above 2^53 is not equal
    /// to the nearest `Float` (the hash-join key agrees).
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::Float(a), Value::Float(b)) => a.partial_cmp(b),
            (Value::Int(i), Value::Float(f)) => int_float_cmp(*i, *f),
            (Value::Float(f), Value::Int(i)) => int_float_cmp(*i, *f).map(Ordering::reverse),
            _ => None,
        }
    }

    /// Total order for sorting: NULLs first, then by value; used by ORDER BY
    /// and the sort-merge join.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Null, _) => Ordering::Less,
            (_, Value::Null) => Ordering::Greater,
            _ => self.sql_cmp(other).unwrap_or_else(|| {
                // Different non-numeric types: order by type tag for stability.
                self.type_rank().cmp(&other.type_rank())
            }),
        }
    }

    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 3,
            Value::Str(_) => 4,
        }
    }

    /// Size of the encoded form in bytes.
    pub fn encoded_len(&self) -> usize {
        1 + match self {
            Value::Null => 0,
            Value::Int(_) | Value::Float(_) => 8,
            Value::Str(s) => 2 + s.len(),
            Value::Bool(_) => 1,
        }
    }

    /// Append the encoded form to `buf`.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Value::Null => buf.put_u8(0),
            Value::Int(i) => {
                buf.put_u8(1);
                buf.put_i64_le(*i);
            }
            Value::Float(x) => {
                buf.put_u8(2);
                buf.put_f64_le(*x);
            }
            Value::Str(s) => {
                buf.put_u8(3);
                debug_assert!(s.len() <= u16::MAX as usize);
                buf.put_u16_le(s.len() as u16);
                buf.put_slice(s.as_bytes());
            }
            Value::Bool(b) => {
                buf.put_u8(4);
                buf.put_u8(*b as u8);
            }
        }
    }

    /// Skip one encoded value at the front of `buf`, advancing past it
    /// without materializing it (no string allocation, no UTF-8 check —
    /// validation happens whenever the value is actually decoded). This is
    /// what makes column-pruned page scans cheap: unread columns cost a
    /// few branches instead of an allocation.
    pub fn skip(buf: &mut &[u8]) -> StorageResult<()> {
        if buf.is_empty() {
            return Err(StorageError::Corrupt("empty buffer skipping value".into()));
        }
        let tag = buf.get_u8();
        let n = match tag {
            0 => 0,
            1 | 2 => 8,
            3 => {
                ensure(buf.len() >= 2)?;
                buf.get_u16_le() as usize
            }
            4 => 1,
            t => return Err(StorageError::Corrupt(format!("unknown value tag {t}"))),
        };
        ensure(buf.len() >= n)?;
        buf.advance(n);
        Ok(())
    }

    /// Decode one value from the front of `buf`, advancing it.
    pub fn decode(buf: &mut &[u8]) -> StorageResult<Value> {
        if buf.is_empty() {
            return Err(StorageError::Corrupt("empty buffer decoding value".into()));
        }
        let tag = buf.get_u8();
        match tag {
            0 => Ok(Value::Null),
            1 => {
                ensure(buf.len() >= 8)?;
                Ok(Value::Int(buf.get_i64_le()))
            }
            2 => {
                ensure(buf.len() >= 8)?;
                Ok(Value::Float(buf.get_f64_le()))
            }
            3 => {
                ensure(buf.len() >= 2)?;
                let n = buf.get_u16_le() as usize;
                ensure(buf.len() >= n)?;
                let s = std::str::from_utf8(&buf[..n])
                    .map_err(|_| StorageError::Corrupt("invalid utf-8 in string".into()))?
                    .to_string();
                buf.advance(n);
                Ok(Value::Str(s))
            }
            4 => {
                ensure(!buf.is_empty())?;
                Ok(Value::Bool(buf.get_u8() != 0))
            }
            t => Err(StorageError::Corrupt(format!("unknown value tag {t}"))),
        }
    }
}

fn ensure(cond: bool) -> StorageResult<()> {
    if cond {
        Ok(())
    } else {
        Err(StorageError::Corrupt("truncated value".into()))
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "'{s}'"),
            Value::Bool(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
        }
    }
}

/// `i` against `f` without rounding `i` to `f64`: `f`'s integer part is
/// exact in `i64` whenever it lies in range, and its fraction breaks a tie.
fn int_float_cmp(i: i64, f: f64) -> Option<Ordering> {
    /// `2^63`: the first `f64` above every `i64`.
    const I64_END: f64 = 9_223_372_036_854_775_808.0;
    if f.is_nan() {
        None
    } else if f >= I64_END {
        Some(Ordering::Less)
    } else if f < -I64_END {
        Some(Ordering::Greater)
    } else {
        let whole = f.trunc();
        Some(i.cmp(&(whole as i64)).then(0.0.partial_cmp(&(f - whole))?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_types() {
        let values = vec![
            Value::Null,
            Value::Int(-42),
            Value::Int(i64::MAX),
            Value::Float(3.25),
            Value::Str("hello world".into()),
            Value::Str(String::new()),
            Value::Bool(true),
            Value::Bool(false),
        ];
        let mut buf = Vec::new();
        for v in &values {
            v.encode(&mut buf);
        }
        let mut slice = buf.as_slice();
        for v in &values {
            assert_eq!(&Value::decode(&mut slice).unwrap(), v);
        }
        assert!(slice.is_empty());
    }

    #[test]
    fn encoded_len_matches_encoding() {
        for v in [
            Value::Null,
            Value::Int(5),
            Value::Float(1.0),
            Value::Str("abc".into()),
            Value::Bool(true),
        ] {
            let mut buf = Vec::new();
            v.encode(&mut buf);
            assert_eq!(buf.len(), v.encoded_len());
        }
    }

    #[test]
    fn sql_cmp_mixed_numeric() {
        assert_eq!(Value::Int(2).sql_cmp(&Value::Float(2.5)), Some(Ordering::Less));
        assert_eq!(Value::Float(2.0).sql_cmp(&Value::Int(2)), Some(Ordering::Equal));
        assert_eq!(Value::Int(-3).sql_cmp(&Value::Float(-2.5)), Some(Ordering::Less));
        assert_eq!(Value::Int(-2).sql_cmp(&Value::Float(-2.5)), Some(Ordering::Greater));
        assert_eq!(Value::Int(3).sql_cmp(&Value::Float(2.5)), Some(Ordering::Greater));
        // Above 2^53 the two would share an f64; the comparison stays exact.
        let (big, f) = (Value::Int((1 << 53) + 1), Value::Float((1u64 << 53) as f64));
        assert_eq!(big.sql_cmp(&f), Some(Ordering::Greater));
        assert_eq!(f.sql_cmp(&big), Some(Ordering::Less));
        assert_eq!(
            Value::Int(i64::MAX).sql_cmp(&Value::Float(2f64.powi(63))),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Int(i64::MIN).sql_cmp(&Value::Float(-(2f64.powi(63)))),
            Some(Ordering::Equal)
        );
        assert_eq!(Value::Int(i64::MIN).sql_cmp(&Value::Float(-1e300)), Some(Ordering::Greater));
        assert_eq!(Value::Int(0).sql_cmp(&Value::Float(f64::NAN)), None);
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Str("a".into()).sql_cmp(&Value::Str("b".into())), Some(Ordering::Less));
    }

    #[test]
    fn total_cmp_sorts_nulls_first() {
        let mut vals = [Value::Int(3), Value::Null, Value::Int(1)];
        vals.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(vals[0], Value::Null);
        assert_eq!(vals[1], Value::Int(1));
    }

    #[test]
    fn corrupt_decode_is_an_error_not_a_panic() {
        let mut empty: &[u8] = &[];
        assert!(Value::decode(&mut empty).is_err());
        let mut bad_tag: &[u8] = &[99];
        assert!(Value::decode(&mut bad_tag).is_err());
        let mut truncated_int: &[u8] = &[1, 0, 0];
        assert!(Value::decode(&mut truncated_int).is_err());
        let mut truncated_str: &[u8] = &[3, 10, 0, b'a'];
        assert!(Value::decode(&mut truncated_str).is_err());
        let mut bad_utf8: &[u8] = &[3, 2, 0, 0xff, 0xfe];
        assert!(Value::decode(&mut bad_utf8).is_err());
    }
}
