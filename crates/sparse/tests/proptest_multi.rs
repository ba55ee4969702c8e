//! Property-based bit-identity of the fused multi-semiring kernel:
//! for random operands, every lane of `spgemm_multi` must equal the
//! corresponding independent `spgemm_with` call — under every
//! sequential accumulator, the row-parallel variant, and a non-associative custom `⊕` (so fold
//! order is observable, not just the folded multiset).

use aarray_algebra::ops::{AbsDiff, Max, Min, Plus, Times};
use aarray_algebra::values::nat::Nat;
use aarray_algebra::{DynOpPair, OpPair};
use aarray_sparse::spgemm_multi::{spgemm_multi, spgemm_multi_parallel};
use aarray_sparse::{spgemm_with, Accumulator, Coo, Csr};
use proptest::prelude::*;

fn pt() -> OpPair<Nat, Plus, Times> {
    OpPair::new()
}

/// A conforming pair of matrices for multiplication.
fn arb_pair(max_dim: usize, max_nnz: usize) -> impl Strategy<Value = (Csr<Nat>, Csr<Nat>)> {
    (1..=max_dim, 1..=max_dim, 1..=max_dim).prop_flat_map(move |(m, k, n)| {
        let a = prop::collection::vec((0..m, 0..k, 1u64..20), 0..=max_nnz).prop_map(move |trips| {
            let mut coo = Coo::new(m, k);
            for (i, j, v) in trips {
                coo.push(i, j, Nat(v));
            }
            coo.into_csr(&pt())
        });
        let b = prop::collection::vec((0..k, 0..n, 1u64..20), 0..=max_nnz).prop_map(move |trips| {
            let mut coo = Coo::new(k, n);
            for (i, j, v) in trips {
                coo.push(i, j, Nat(v));
            }
            coo.into_csr(&pt())
        });
        (a, b)
    })
}

proptest! {
    #[test]
    fn fused_lanes_match_independent_kernels((a, b) in arb_pair(10, 40)) {
        let plus_times = pt();
        let max_min: OpPair<Nat, Max, Min> = OpPair::new();
        let min_plus: OpPair<Nat, Min, Plus> = OpPair::new();
        // ⊕ = |−| is non-associative and non-commutative in effect:
        // any deviation in fold order changes the value.
        let abs_diff: OpPair<Nat, AbsDiff, Times> = OpPair::new();
        let pairs: [&dyn DynOpPair<Nat>; 4] = [&plus_times, &max_min, &min_plus, &abs_diff];

        let fused = spgemm_multi(&a, &b, &pairs);
        prop_assert_eq!(fused.len(), 4);
        for seq_acc in [Accumulator::Spa, Accumulator::Hash, Accumulator::Esc] {
            prop_assert_eq!(&fused[0], &spgemm_with(&a, &b, &plus_times, seq_acc));
            prop_assert_eq!(&fused[1], &spgemm_with(&a, &b, &max_min, seq_acc));
            prop_assert_eq!(&fused[2], &spgemm_with(&a, &b, &min_plus, seq_acc));
            prop_assert_eq!(&fused[3], &spgemm_with(&a, &b, &abs_diff, seq_acc));
        }
    }

    #[test]
    fn parallel_fused_matches_serial_fused((a, b) in arb_pair(10, 40)) {
        let plus_times = pt();
        let abs_diff: OpPair<Nat, AbsDiff, Times> = OpPair::new();
        let pairs: [&dyn DynOpPair<Nat>; 2] = [&plus_times, &abs_diff];
        let serial = spgemm_multi(&a, &b, &pairs);
        let parallel = spgemm_multi_parallel(&a, &b, &pairs);
        prop_assert_eq!(serial, parallel);
    }

    #[test]
    fn single_lane_fusion_is_the_identity_case((a, b) in arb_pair(8, 24)) {
        // K = 1 degenerates to plain two-phase SpGEMM.
        let abs_diff: OpPair<Nat, AbsDiff, Times> = OpPair::new();
        let pairs: [&dyn DynOpPair<Nat>; 1] = [&abs_diff];
        let fused = spgemm_multi(&a, &b, &pairs);
        prop_assert_eq!(&fused[0], &spgemm_with(&a, &b, &abs_diff, Accumulator::Spa));
    }
}
