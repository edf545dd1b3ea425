//! Tuple batches: the "pages of tuples" exchanged between execution-engine
//! stages (paper §4.3: "page-based data exchange using a producer-consumer
//! type of operator/stage communication").

use staged_storage::Tuple;

/// A page of tuples flowing between stages. The capacity is knob (c) of
/// paper §4.4, "the page size for exchanging intermediate results among
/// the execution engine stages", fixed per engine.
#[derive(Debug, Clone, Default)]
pub struct TupleBatch {
    tuples: Vec<Tuple>,
}

impl TupleBatch {
    /// An empty batch with the given capacity hint.
    pub fn with_capacity(cap: usize) -> Self {
        Self { tuples: Vec::with_capacity(cap) }
    }

    /// Wrap existing tuples.
    pub fn from_tuples(tuples: Vec<Tuple>) -> Self {
        Self { tuples }
    }

    /// Add a tuple.
    pub fn push(&mut self, t: Tuple) {
        self.tuples.push(t);
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Borrow the tuples.
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// Consume into the tuple vector.
    pub fn into_tuples(self) -> Vec<Tuple> {
        self.tuples
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use staged_storage::Value;

    #[test]
    fn batch_accumulates() {
        let mut b = TupleBatch::with_capacity(4);
        assert!(b.is_empty());
        b.push(Tuple::new(vec![Value::Int(1)]));
        b.push(Tuple::new(vec![Value::Int(2)]));
        assert_eq!(b.len(), 2);
        assert_eq!(b.into_tuples().len(), 2);
    }
}
