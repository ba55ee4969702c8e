//! Element-wise `⊕` and `⊗` on associative arrays, with key-set
//! alignment — D4M's `A + B` and `A .* B`.
//!
//! `⊕` aligns on the **union** of key sets (missing entries are zeros,
//! which pass through the `⊕`-identity); `⊗` aligns on the union too
//! but only intersecting stored patterns can produce entries.

use crate::array::AArray;
use crate::keys::KeySet;
use aarray_algebra::dynpair::DynOpPair;
use aarray_algebra::{BinaryOp, OpPair, Value};
use aarray_sparse::elementwise::{ewise_add, ewise_add_dyn, ewise_mul};
use aarray_sparse::Csr;

/// Re-index an array's entries into larger (union) key sets.
///
/// The position maps from subset key sets into their union are
/// strictly increasing (both sides are sorted), so the destination CSR
/// can be built directly — source rows visit destination rows in
/// ascending order and per-row column indices stay sorted after
/// remapping. No COO staging, no sort.
pub(crate) fn align<V: Value>(a: &AArray<V>, rows: &KeySet, cols: &KeySet) -> Csr<V> {
    let row_map = rows.positions_of(a.row_keys());
    let col_map = cols.positions_of(a.col_keys());
    let src = a.csr();
    let mut indptr = vec![0usize; rows.len() + 1];
    for (r, &dest) in row_map.iter().enumerate() {
        indptr[dest + 1] = src.row(r).0.len();
    }
    for i in 0..rows.len() {
        indptr[i + 1] += indptr[i];
    }
    let mut indices = Vec::with_capacity(src.nnz());
    let mut values = Vec::with_capacity(src.nnz());
    for r in 0..src.nrows() {
        let (ci, vals) = src.row(r);
        indices.extend(ci.iter().map(|&c| col_map[c as usize] as u32));
        values.extend(vals.iter().cloned());
    }
    Csr::from_parts(rows.len(), cols.len(), indptr, indices, values)
}

impl<V: Value> AArray<V> {
    /// Element-wise `self ⊕ other` over the union of key sets.
    pub fn ewise_add<A, M>(&self, other: &AArray<V>, pair: &OpPair<V, A, M>) -> AArray<V>
    where
        A: BinaryOp<V>,
        M: BinaryOp<V>,
    {
        let rows = self.row_keys().union(other.row_keys());
        let cols = self.col_keys().union(other.col_keys());
        let a = align(self, &rows, &cols);
        let b = align(other, &rows, &cols);
        AArray::from_parts(rows, cols, ewise_add(&a, &b, pair))
    }

    /// [`AArray::ewise_add`] over an object-safe pair, for callers
    /// holding runtime lane collections. Same union alignment, same
    /// merge, bit-identical to the typed entry point; the incremental
    /// adjacency layer's row splice reproduces it for `lane ⊕ delta`.
    pub fn ewise_add_dyn(&self, other: &AArray<V>, pair: &dyn DynOpPair<V>) -> AArray<V> {
        let rows = self.row_keys().union(other.row_keys());
        let cols = self.col_keys().union(other.col_keys());
        let a = align(self, &rows, &cols);
        let b = align(other, &rows, &cols);
        AArray::from_parts(rows, cols, ewise_add_dyn(&a, &b, pair))
    }

    /// Element-wise `self ⊗ other` over the union of key sets (entries
    /// exist only where both operands store values).
    pub fn ewise_mul<A, M>(&self, other: &AArray<V>, pair: &OpPair<V, A, M>) -> AArray<V>
    where
        A: BinaryOp<V>,
        M: BinaryOp<V>,
    {
        let rows = self.row_keys().union(other.row_keys());
        let cols = self.col_keys().union(other.col_keys());
        let a = align(self, &rows, &cols);
        let b = align(other, &rows, &cols);
        AArray::from_parts(rows, cols, ewise_mul(&a, &b, pair))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aarray_algebra::pairs::{MaxMin, PlusTimes};
    use aarray_algebra::values::nat::Nat;

    fn pt() -> PlusTimes<Nat> {
        PlusTimes::new()
    }

    #[test]
    fn add_unions_keys() {
        let pair = pt();
        let a = AArray::from_triples(&pair, [("r1", "c1", Nat(1))]);
        let b = AArray::from_triples(&pair, [("r2", "c1", Nat(2)), ("r1", "c1", Nat(10))]);
        let c = a.ewise_add(&b, &pair);
        assert_eq!(c.row_keys().keys(), &["r1", "r2"]);
        assert_eq!(c.get("r1", "c1"), Some(&Nat(11)));
        assert_eq!(c.get("r2", "c1"), Some(&Nat(2)));
    }

    #[test]
    fn mul_keeps_only_shared_pattern() {
        let pair = pt();
        let a = AArray::from_triples(&pair, [("r", "c1", Nat(3)), ("r", "c2", Nat(4))]);
        let b = AArray::from_triples(&pair, [("r", "c2", Nat(5)), ("r", "c3", Nat(6))]);
        let c = a.ewise_mul(&b, &pair);
        assert_eq!(c.nnz(), 1);
        assert_eq!(c.get("r", "c2"), Some(&Nat(20)));
        assert_eq!(c.col_keys().keys(), &["c1", "c2", "c3"]);
    }

    #[test]
    fn dyn_add_matches_typed_add_with_key_growth() {
        use aarray_algebra::dynpair::DynOpPair;
        let pair = pt();
        let a = AArray::from_triples(&pair, [("r1", "c1", Nat(1)), ("r2", "c2", Nat(2))]);
        let b = AArray::from_triples(&pair, [("r1", "c1", Nat(10)), ("r3", "c0", Nat(3))]);
        let typed = a.ewise_add(&b, &pair);
        let dynamic = a.ewise_add_dyn(&b, &pair as &dyn DynOpPair<Nat>);
        assert_eq!(typed, dynamic);
        assert_eq!(dynamic.row_keys().keys(), &["r1", "r2", "r3"]);
        assert_eq!(dynamic.col_keys().keys(), &["c0", "c1", "c2"]);
    }

    #[test]
    fn max_min_elementwise_on_arrays() {
        let pair = MaxMin::<Nat>::new();
        let a = AArray::from_triples(&pair, [("r", "c", Nat(3))]);
        let b = AArray::from_triples(&pair, [("r", "c", Nat(7))]);
        assert_eq!(a.ewise_add(&b, &pair).get("r", "c"), Some(&Nat(7)));
        assert_eq!(a.ewise_mul(&b, &pair).get("r", "c"), Some(&Nat(3)));
    }
}
