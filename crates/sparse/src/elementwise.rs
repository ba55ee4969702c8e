//! Element-wise `⊕` (union merge) and `⊗` (intersection merge) —
//! D4M's `A + B` and `A .* B`.
//!
//! Union semantics for `⊕`: where only one operand stores a value, the
//! other contributes the pair's zero, and since zero is the
//! `⊕`-identity the stored value passes through unchanged. Intersection
//! semantics for `⊗`: where either operand is zero, condition-(c)-style
//! annihilation would zero the product anyway, and the result entry is
//! simply absent. (For non-compliant pairs these shortcuts are the
//! documented sparse semantics; see the crate docs.)

use crate::csr::Csr;
use aarray_algebra::dynpair::DynOpPair;
use aarray_algebra::{BinaryOp, OpPair, Value};

/// Element-wise `C = A ⊕ B` (union merge). Dimensions must agree.
pub fn ewise_add<V, A, M>(a: &Csr<V>, b: &Csr<V>, pair: &OpPair<V, A, M>) -> Csr<V>
where
    V: Value,
    A: BinaryOp<V>,
    M: BinaryOp<V>,
{
    ewise_add_dyn(a, b, pair)
}

/// [`ewise_add`] over an object-safe pair, for callers holding runtime
/// lane collections. Identical merge walk, identical `is_zero`-pruning
/// — bit-identical to the typed entry point.
pub fn ewise_add_dyn<V: Value>(a: &Csr<V>, b: &Csr<V>, pair: &dyn DynOpPair<V>) -> Csr<V> {
    assert_eq!(
        (a.nrows(), a.ncols()),
        (b.nrows(), b.ncols()),
        "element-wise dims must agree"
    );
    merge(
        a,
        b,
        |x, y| match (x, y) {
            (Some(x), Some(y)) => Some(pair.plus(x, y)),
            (Some(x), None) => Some(x.clone()),
            (None, Some(y)) => Some(y.clone()),
            (None, None) => None,
        },
        |v| pair.is_zero(v),
    )
}

/// Element-wise `C = A ⊗ B` (intersection merge). Dimensions must
/// agree.
pub fn ewise_mul<V, A, M>(a: &Csr<V>, b: &Csr<V>, pair: &OpPair<V, A, M>) -> Csr<V>
where
    V: Value,
    A: BinaryOp<V>,
    M: BinaryOp<V>,
{
    assert_eq!(
        (a.nrows(), a.ncols()),
        (b.nrows(), b.ncols()),
        "element-wise dims must agree"
    );
    merge(
        a,
        b,
        |x, y| match (x, y) {
            (Some(x), Some(y)) => Some(pair.times(x, y)),
            _ => None,
        },
        |v| pair.is_zero(v),
    )
}

fn merge<V: Value>(
    a: &Csr<V>,
    b: &Csr<V>,
    combine: impl Fn(Option<&V>, Option<&V>) -> Option<V>,
    is_zero: impl Fn(&V) -> bool,
) -> Csr<V> {
    let mut indptr = vec![0usize; a.nrows() + 1];
    let mut indices = Vec::new();
    let mut values = Vec::new();

    for r in 0..a.nrows() {
        let (ac, av) = a.row(r);
        let (bc, bv) = b.row(r);
        let (mut i, mut j) = (0usize, 0usize);
        while i < ac.len() || j < bc.len() {
            let (col, x, y) = if j >= bc.len() || (i < ac.len() && ac[i] < bc[j]) {
                let e = (ac[i], Some(&av[i]), None);
                i += 1;
                e
            } else if i >= ac.len() || bc[j] < ac[i] {
                let e = (bc[j], None, Some(&bv[j]));
                j += 1;
                e
            } else {
                let e = (ac[i], Some(&av[i]), Some(&bv[j]));
                i += 1;
                j += 1;
                e
            };
            if let Some(v) = combine(x, y) {
                if !is_zero(&v) {
                    indices.push(col);
                    values.push(v);
                }
            }
        }
        indptr[r + 1] = indices.len();
    }

    Csr::from_parts(a.nrows(), a.ncols(), indptr, indices, values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use aarray_algebra::ops::{Max, Min, Plus, Times};
    use aarray_algebra::values::nat::Nat;
    use aarray_algebra::OpPair;

    fn pt() -> OpPair<Nat, Plus, Times> {
        OpPair::new()
    }

    fn build(t: &[(usize, usize, u64)]) -> Csr<Nat> {
        let mut coo = Coo::new(2, 3);
        for &(r, c, v) in t {
            coo.push(r, c, Nat(v));
        }
        coo.into_csr(&pt())
    }

    #[test]
    fn add_is_union() {
        let a = build(&[(0, 0, 1), (0, 2, 2)]);
        let b = build(&[(0, 2, 3), (1, 1, 4)]);
        let c = ewise_add(&a, &b, &pt());
        assert_eq!(c.get(0, 0), Some(&Nat(1)));
        assert_eq!(c.get(0, 2), Some(&Nat(5)));
        assert_eq!(c.get(1, 1), Some(&Nat(4)));
        assert_eq!(c.nnz(), 3);
    }

    #[test]
    fn mul_is_intersection() {
        let a = build(&[(0, 0, 2), (0, 2, 2)]);
        let b = build(&[(0, 2, 3), (1, 1, 4)]);
        let c = ewise_mul(&a, &b, &pt());
        assert_eq!(c.nnz(), 1);
        assert_eq!(c.get(0, 2), Some(&Nat(6)));
    }

    #[test]
    fn add_with_cancellation_prunes() {
        let pair: OpPair<i64, Plus, Times> = OpPair::new();
        let mut ca = Coo::new(1, 1);
        ca.push(0, 0, 5i64);
        let a = ca.into_csr(&pair);
        let mut cb = Coo::new(1, 1);
        cb.push(0, 0, -5i64);
        let b = cb.into_csr(&pair);
        let c = ewise_add(&a, &b, &pair);
        assert_eq!(c.nnz(), 0);
    }

    #[test]
    fn max_min_elementwise() {
        let pair: OpPair<Nat, Max, Min> = OpPair::new();
        let a = build(&[(0, 0, 3), (1, 2, 8)]);
        let b = build(&[(0, 0, 5), (1, 2, 6)]);
        let add = ewise_add(&a, &b, &pair);
        let mul = ewise_mul(&a, &b, &pair);
        assert_eq!(add.get(0, 0), Some(&Nat(5)));
        assert_eq!(mul.get(1, 2), Some(&Nat(6)));
    }

    #[test]
    fn dyn_add_matches_typed_add() {
        use aarray_algebra::dynpair::DynOpPair;
        let a = build(&[(0, 0, 1), (0, 2, 2), (1, 1, 9)]);
        let b = build(&[(0, 2, 3), (1, 1, 4)]);
        let pair = pt();
        let typed = ewise_add(&a, &b, &pair);
        let dynamic = ewise_add_dyn(&a, &b, &pair as &dyn DynOpPair<Nat>);
        assert_eq!(typed, dynamic);
    }

    #[test]
    #[should_panic(expected = "dims must agree")]
    fn dim_mismatch() {
        let a = build(&[]);
        let mut cb = Coo::<Nat>::new(3, 3);
        cb.push(0, 0, Nat(1));
        let b = cb.into_csr(&pt());
        let _ = ewise_add(&a, &b, &pt());
    }
}
