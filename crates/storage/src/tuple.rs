//! Tuples and record identifiers.

use crate::error::StorageResult;
use crate::page::PageId;
use crate::value::Value;

/// Physical address of a record: page + slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Rid {
    /// Page holding the record.
    pub page: PageId,
    /// Slot within the page.
    pub slot: u16,
}

impl Rid {
    /// Construct a rid.
    pub fn new(page: PageId, slot: u16) -> Self {
        Self { page, slot }
    }
}

impl std::fmt::Display for Rid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}, {})", self.page, self.slot)
    }
}

/// A row: an ordered list of values.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Tuple {
    values: Vec<Value>,
}

impl Tuple {
    /// Build a tuple from values.
    pub fn new(values: Vec<Value>) -> Self {
        Self { values }
    }

    /// The values.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Value at a column index.
    pub fn get(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    /// Concatenate two tuples (join output).
    pub fn concat(&self, other: &Tuple) -> Tuple {
        let mut values = Vec::with_capacity(self.values.len() + other.values.len());
        values.extend_from_slice(&self.values);
        values.extend_from_slice(&other.values);
        Tuple::new(values)
    }

    /// Encoded size in bytes.
    pub fn encoded_len(&self) -> usize {
        2 + self.values.iter().map(Value::encoded_len).sum::<usize>()
    }

    /// Encode to bytes: `u16` arity then each value.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.encoded_len());
        debug_assert!(self.values.len() <= u16::MAX as usize);
        buf.extend_from_slice(&(self.values.len() as u16).to_le_bytes());
        for v in &self.values {
            v.encode(&mut buf);
        }
        buf
    }

    /// Decode from bytes produced by [`encode`](Self::encode).
    pub fn decode(bytes: &[u8]) -> StorageResult<Tuple> {
        let mut t = Tuple::default();
        t.decode_columns_into(bytes, None)?;
        Ok(t)
    }

    /// Decode only the columns in `cols` (strictly increasing slot
    /// indexes); the result holds those values in the same order (see
    /// [`decode_columns_into`](Self::decode_columns_into)).
    pub fn decode_columns(bytes: &[u8], cols: &[usize]) -> StorageResult<Tuple> {
        let mut t = Tuple::default();
        t.decode_columns_into(bytes, Some(cols))?;
        Ok(t)
    }

    /// Overwrite this tuple with the row in `bytes`, reusing its value
    /// buffer: every column when `cols` is `None`, else only the columns in
    /// `cols` (strictly increasing slot indexes), in that order. Skipped
    /// columns are stepped over without being materialized, so pruning a
    /// wide row down to the columns a query touches avoids the allocation
    /// cost of the unread ones (string columns in particular), and a page
    /// scan refilling the same tuples allocates nothing for integer
    /// columns. A requested slot beyond the stored arity is a corruption
    /// error; on any error the tuple's contents are unspecified.
    pub fn decode_columns_into(
        &mut self,
        mut bytes: &[u8],
        cols: Option<&[usize]>,
    ) -> StorageResult<()> {
        use crate::error::StorageError;
        if bytes.len() < 2 {
            return Err(StorageError::Corrupt("tuple too short".into()));
        }
        let n = u16::from_le_bytes([bytes[0], bytes[1]]) as usize;
        bytes = &bytes[2..];
        self.values.clear();
        let Some(cols) = cols else {
            self.values.reserve(n);
            for _ in 0..n {
                self.values.push(Value::decode(&mut bytes)?);
            }
            return Ok(());
        };
        debug_assert!(cols.windows(2).all(|w| w[0] < w[1]), "cols must be strictly increasing");
        if cols.last().is_some_and(|&c| c >= n) {
            return Err(StorageError::Corrupt(format!(
                "column {:?} out of arity {n}",
                cols.last()
            )));
        }
        self.values.reserve(cols.len());
        let mut wanted = cols.iter().peekable();
        for slot in 0..n {
            match wanted.peek() {
                Some(&&c) if c == slot => {
                    self.values.push(Value::decode(&mut bytes)?);
                    wanted.next();
                }
                Some(_) => Value::skip(&mut bytes)?,
                // Nothing left to read; the rest of the row is untouched.
                None => break,
            }
        }
        Ok(())
    }
}

impl std::fmt::Display for Tuple {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuple_roundtrip() {
        let t = Tuple::new(vec![
            Value::Int(7),
            Value::Str("wisconsin".into()),
            Value::Null,
            Value::Float(2.5),
            Value::Bool(true),
        ]);
        let bytes = t.encode();
        assert_eq!(bytes.len(), t.encoded_len());
        assert_eq!(Tuple::decode(&bytes).unwrap(), t);
    }

    #[test]
    fn empty_tuple_roundtrip() {
        let t = Tuple::new(vec![]);
        assert_eq!(Tuple::decode(&t.encode()).unwrap(), t);
    }

    #[test]
    fn concat_preserves_order() {
        let a = Tuple::new(vec![Value::Int(1)]);
        let b = Tuple::new(vec![Value::Int(2), Value::Int(3)]);
        assert_eq!(a.concat(&b).values(), &[Value::Int(1), Value::Int(2), Value::Int(3)]);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Tuple::decode(&[]).is_err());
        assert!(Tuple::decode(&[5, 0, 1, 2]).is_err()); // claims 5 values
    }

    #[test]
    fn decode_columns_prunes_and_preserves_order() {
        let t = Tuple::new(vec![
            Value::Int(7),
            Value::Str("skipped".into()),
            Value::Null,
            Value::Float(2.5),
            Value::Bool(true),
        ]);
        let bytes = t.encode();
        let pruned = Tuple::decode_columns(&bytes, &[0, 3]).unwrap();
        assert_eq!(pruned.values(), &[Value::Int(7), Value::Float(2.5)]);
        // Skipping the trailing string column never touches its bytes.
        let head = Tuple::decode_columns(&bytes, &[2]).unwrap();
        assert_eq!(head.values(), &[Value::Null]);
        // Full column list agrees with the plain decoder.
        let all = Tuple::decode_columns(&bytes, &[0, 1, 2, 3, 4]).unwrap();
        assert_eq!(all, t);
        // Empty list reads nothing.
        assert!(Tuple::decode_columns(&bytes, &[]).unwrap().values().is_empty());
        // Out-of-arity column is corruption, not a panic.
        assert!(Tuple::decode_columns(&bytes, &[5]).is_err());
    }

    #[test]
    fn decode_columns_into_overwrites_a_wider_tuple() {
        let wide = Tuple::new(vec![Value::Int(1), Value::Str("a".into()), Value::Int(3)]);
        let narrow = Tuple::new(vec![Value::Int(9)]);
        let mut t = wide.clone();
        t.decode_columns_into(&narrow.encode(), None).unwrap();
        assert_eq!(t, narrow, "no value of the earlier row survives");
        t.decode_columns_into(&wide.encode(), Some(&[1, 2])).unwrap();
        assert_eq!(t.values(), &[Value::Str("a".into()), Value::Int(3)]);
    }
}
