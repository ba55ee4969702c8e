//! Fused multi-semiring SpGEMM: `K` products `C_p = A ⊕_p.⊗_p B` from
//! **one** traversal of the operands.
//!
//! The paper's Figure 3 workload multiplies the *same* incidence
//! pattern under seven different `⊕.⊗` pairs. Running seven
//! independent [`crate::spgemm::spgemm_with`] calls re-reads `A`'s and
//! `B`'s index structure seven times; the sparsity pattern work is
//! identical every time and only the value arithmetic differs. This
//! module hoists that redundancy:
//!
//! 1. the **symbolic** pass ([`crate::symbolic::spgemm_symbolic`])
//!    runs once — the structural pattern depends only on the operand
//!    patterns, never on the algebra;
//! 2. a single **numeric** traversal walks `A`'s rows and `B`'s rows
//!    once, and for every contributing `(i, k, j)` coordinate feeds
//!    all `K` accumulators, laid out structure-of-arrays
//!    (`accs[p * nslots + slot]`, one contiguous lane per pair). A
//!    column finds its slot through one dense `O(ncols)` map (SPA
//!    style); the symbolic pattern already gives each row's exact
//!    sorted slots, so no other lookup strategy is needed.
//!
//! Heterogeneous pairs are handled through the object-safe
//! [`DynOpPair`] adapter, so one call can mix `+.×`, `max.min`,
//! `min.+`, … over the same value set.
//!
//! **Bit-identity.** Terms are folded left-associated in ascending
//! inner-key order — the same canonical order as every other kernel in
//! this crate — and each lane prunes its own `⊕`-produced zeros with
//! its own `is_zero`. Output `p` is therefore bit-identical to the
//! sequential `spgemm_with(a, b, pairs[p], _)` for arbitrary
//! non-associative, non-commutative operations (property-tested in
//! `tests/proptest_multi.rs`).

use crate::csr::Csr;
use crate::spgemm::{row_chunks, spgemm_flops};
use crate::symbolic::{spgemm_symbolic, SymbolicProduct};
use aarray_algebra::dynpair::DynOpPair;
use aarray_algebra::Value;
use aarray_obs::{
    counters, current_op, enter_op, histograms, histograms_enabled, journal, memstats, Counter,
    EventKind, Hist, MemRegion, MemReservation, OpKind, OpToken, Stage,
};
use rayon::prelude::*;
use std::mem::size_of;

/// Fused `K`-pair product: `[A ⊕_p.⊗_p B for p in pairs]` with one
/// symbolic pass and one numeric traversal.
///
/// Returns one `Csr` per pair, in order. Each output is bit-identical
/// to the corresponding sequential [`crate::spgemm::spgemm_with`]
/// call. Panics if `A.ncols() != B.nrows()`.
pub fn spgemm_multi<V: Value>(a: &Csr<V>, b: &Csr<V>, pairs: &[&dyn DynOpPair<V>]) -> Vec<Csr<V>> {
    // Token opens before the symbolic pass so its span lands inside
    // the op's journal window.
    let mut op = OpToken::begin_if_root(OpKind::Kernel);
    if let Some(t) = op.as_mut() {
        t.set_flops(spgemm_flops(a, b) * pairs.len() as u64);
        t.set_lanes(pairs.len() as u64);
        t.set_dispatch(false, 1);
    }
    let sym = spgemm_symbolic(a, b);
    let outs = spgemm_multi_numeric(&sym, a, b, pairs);
    if let Some(mut t) = op {
        t.set_out_nnz(outs.iter().map(|c| c.nnz() as u64).sum());
        t.finish();
    }
    outs
}

/// Row-parallel fused `K`-pair product.
///
/// Output rows are independent and each row's fold order is identical
/// to the serial kernel's, so results are bit-identical to
/// [`spgemm_multi`] for any operations.
pub fn spgemm_multi_parallel<V: Value>(
    a: &Csr<V>,
    b: &Csr<V>,
    pairs: &[&dyn DynOpPair<V>],
) -> Vec<Csr<V>> {
    let mut op = OpToken::begin_if_root(OpKind::Kernel);
    if let Some(t) = op.as_mut() {
        t.set_flops(spgemm_flops(a, b) * pairs.len() as u64);
        t.set_lanes(pairs.len() as u64);
        t.set_dispatch(true, rayon::current_num_threads() as u64);
    }
    let sym = spgemm_symbolic(a, b);
    let outs = spgemm_multi_numeric_parallel(&sym, a, b, pairs);
    if let Some(mut t) = op {
        t.set_out_nnz(outs.iter().map(|c| c.nnz() as u64).sum());
        t.finish();
    }
    outs
}

/// Record one fused numeric traversal in the global counter registry:
/// the traversal itself, how many lanes it fed, its (SPA) slot lookup,
/// and whether the row-parallel path ran — plus the matching explain
/// event (`a` = accumulator code 0, spa; `b` packs
/// `lanes << 1 | parallel`).
fn record_fused(nlanes: usize, parallel: bool) {
    let c = counters();
    c.incr(Counter::FusedTraversals);
    c.add(Counter::FusedLanes, nlanes as u64);
    c.incr(Counter::FusedSpa);
    if parallel {
        c.incr(Counter::FusedParallel);
    } else {
        // A serial traversal bypasses the pool entirely; count it as
        // one inline task so 1-thread runs don't read as "no work ran"
        // next to a zero `pool.tasks-local`.
        c.incr(Counter::PoolTasksInline);
    }
    journal().record(
        EventKind::FusedChoice,
        0,
        ((nlanes as u64) << 1) | parallel as u64,
    );
}

fn check_dims<V: Value>(sym: &SymbolicProduct, a: &Csr<V>, b: &Csr<V>) {
    assert_eq!(
        a.ncols(),
        b.nrows(),
        "inner dimensions must agree: A is {}×{}, B is {}×{}",
        a.nrows(),
        a.ncols(),
        b.nrows(),
        b.ncols()
    );
    assert_eq!(
        sym.shape(),
        (a.nrows(), b.ncols()),
        "symbolic pattern built for different operands"
    );
}

/// Numeric phase of the fused product against a precomputed symbolic
/// pattern (reuse the pattern across calls when the operands' sparsity
/// is fixed — e.g. a plan that multiplies under new algebras later).
pub fn spgemm_multi_numeric<V: Value>(
    sym: &SymbolicProduct,
    a: &Csr<V>,
    b: &Csr<V>,
    pairs: &[&dyn DynOpPair<V>],
) -> Vec<Csr<V>> {
    check_dims(sym, a, b);
    record_fused(pairs.len(), false);
    let npairs = pairs.len();

    let mut outs: Vec<RowsOut<V>> = (0..npairs).map(|_| RowsOut::with_rows(a.nrows())).collect();
    let mut scratch = MultiScratch::new(b.ncols());
    let mut row_out: Vec<Vec<(u32, V)>> = vec![Vec::new(); npairs];
    for i in 0..a.nrows() {
        multiply_row_multi(a, b, pairs, i, sym.row(i), &mut scratch, &mut row_out);
        for (p, rows) in row_out.iter_mut().enumerate() {
            outs[p].push_row(i, rows.drain(..));
        }
    }

    outs.into_iter()
        .map(|o| o.into_csr(a.nrows(), b.ncols()))
        .collect()
}

/// Row-parallel numeric phase; bit-identical to
/// [`spgemm_multi_numeric`].
pub fn spgemm_multi_numeric_parallel<V: Value>(
    sym: &SymbolicProduct,
    a: &Csr<V>,
    b: &Csr<V>,
    pairs: &[&dyn DynOpPair<V>],
) -> Vec<Csr<V>> {
    check_dims(sym, a, b);
    record_fused(pairs.len(), true);
    let npairs = pairs.len();

    // Explicit contiguous row chunks: one scratch per chunk (the old
    // `map_init` per-state semantics) and — when more than one chunk
    // exists — a `numeric` journal span recorded on the executing
    // thread per chunk, making multi-worker overlap visible in the
    // Chrome trace. Each row yields its K per-pair segments, landing
    // in row-indexed slots regardless of which thread claimed the
    // chunk; reassembly below is in row order, so the output is
    // bit-identical to the serial traversal.
    // One row's K per-pair output segments.
    type RowSegments<V> = Vec<Vec<(u32, V)>>;
    let ranges = row_chunks(a.nrows());
    let spans = ranges.len() > 1;
    // Pool workers carry no op context of their own: thread the
    // submitting thread's op into each chunk so its numeric spans
    // attribute to the operation that dispatched here.
    let cur = current_op();
    let chunks: Vec<Vec<RowSegments<V>>> = ranges
        .into_par_iter()
        .map(|range| {
            let _op = enter_op(cur);
            let _span = spans.then(|| journal().span(Stage::Numeric, range.len() as u64));
            let mut scratch = MultiScratch::new(b.ncols());
            let mut rows = Vec::with_capacity(range.len());
            for i in range.clone() {
                let mut row_out: Vec<Vec<(u32, V)>> = vec![Vec::new(); npairs];
                multiply_row_multi(a, b, pairs, i, sym.row(i), &mut scratch, &mut row_out);
                rows.push(row_out);
            }
            rows
        })
        .collect();

    let mut outs: Vec<RowsOut<V>> = (0..npairs).map(|_| RowsOut::with_rows(a.nrows())).collect();
    for (i, row) in chunks.into_iter().flatten().enumerate() {
        for (p, segment) in row.into_iter().enumerate() {
            outs[p].push_row(i, segment.into_iter());
        }
    }
    outs.into_iter()
        .map(|o| o.into_csr(a.nrows(), b.ncols()))
        .collect()
}

/// Accumulating output buffers for one pair's Csr.
struct RowsOut<V> {
    indptr: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<V>,
}

impl<V: Value> RowsOut<V> {
    fn with_rows(nrows: usize) -> Self {
        RowsOut {
            indptr: vec![0usize; nrows + 1],
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    fn push_row(&mut self, i: usize, entries: impl Iterator<Item = (u32, V)>) {
        for (j, v) in entries {
            self.indices.push(j);
            self.values.push(v);
        }
        self.indptr[i + 1] = self.indices.len();
    }

    fn into_csr(self, nrows: usize, ncols: usize) -> Csr<V> {
        Csr::from_parts(nrows, ncols, self.indptr, self.indices, self.values)
    }
}

/// Reusable per-thread scratch: the dense column→slot map (SPA mode)
/// and the K-lane structure-of-arrays accumulator block. Reported to
/// [`MemRegion::FusedAccumulator`] at its high-water capacity (the
/// slot map is fixed-size; the SoA block grows with the widest
/// `K × nslots` row seen).
struct MultiScratch<V> {
    slot_of: Vec<usize>,
    accs: Vec<Option<V>>,
    mem: MemReservation,
}

impl<V: Value> MultiScratch<V> {
    fn new(ncols: usize) -> Self {
        MultiScratch {
            slot_of: vec![usize::MAX; ncols],
            accs: Vec::new(),
            mem: memstats().track(
                MemRegion::FusedAccumulator,
                (ncols * size_of::<usize>()) as u64,
            ),
        }
    }

    /// Re-report after the accumulator block (possibly) grew.
    fn report_capacity(&mut self) {
        self.mem.grow_to(
            (self.slot_of.len() * size_of::<usize>()
                + self.accs.capacity() * size_of::<Option<V>>()) as u64,
        );
    }
}

/// One fused output row: a single sweep over `A`'s row `i` and the
/// touched rows of `B`, folding every term into all `K` lanes.
#[allow(clippy::too_many_arguments)]
fn multiply_row_multi<V: Value>(
    a: &Csr<V>,
    b: &Csr<V>,
    pairs: &[&dyn DynOpPair<V>],
    i: usize,
    srow: &[u32],
    scratch: &mut MultiScratch<V>,
    out: &mut [Vec<(u32, V)>],
) {
    let npairs = pairs.len();
    let nslots = srow.len();
    scratch.accs.clear();
    scratch.accs.resize(npairs * nslots, None);
    scratch.report_capacity();
    let record = histograms_enabled();
    if record {
        let (ks, _) = a.row(i);
        let flops: u64 = ks.iter().map(|&k| b.row_nnz(k as usize) as u64).sum();
        // ⊗ applications actually performed: every term feeds K lanes.
        histograms().record(Hist::RowFlops, flops * npairs as u64);
        histograms().record(Hist::RowNnz, nslots as u64);
        journal().record(EventKind::RowShape, i as u64, flops * npairs as u64);
    }
    let MultiScratch { slot_of, accs, .. } = scratch;

    for (slot, &j) in srow.iter().enumerate() {
        slot_of[j as usize] = slot;
    }
    fuse_row_terms(a, b, pairs, i, nslots, slot_of, accs);
    for &j in srow {
        slot_of[j as usize] = usize::MAX;
    }

    // Emit each lane in slot (= ascending column) order, pruning the
    // lane's own ⊕-produced zeros: the implicit-zero invariant is
    // per-algebra, so lanes may legitimately emit different patterns.
    for (p, pair) in pairs.iter().enumerate() {
        let lane = &mut accs[p * nslots..(p + 1) * nslots];
        let mut occupied = 0u64;
        for (slot, &j) in srow.iter().enumerate() {
            if let Some(v) = lane[slot].take() {
                occupied += 1;
                if !pair.is_zero(&v) {
                    out[p].push((j, v));
                }
            }
        }
        if record {
            // Per-lane filled slots (pre-zero-prune) against the
            // symbolic pattern's nslots: how tight the structural
            // bound is for this algebra.
            histograms().record(Hist::AccOccupancy, occupied);
        }
    }
}

/// The shared traversal: for every contributing `(k, j)` term of row
/// `i`, apply all `K` pairs and fold left-associated (ascending `k`)
/// into the SoA accumulator block. `slot_of` maps each column of row
/// `i`'s symbolic pattern to its slot.
fn fuse_row_terms<V: Value>(
    a: &Csr<V>,
    b: &Csr<V>,
    pairs: &[&dyn DynOpPair<V>],
    i: usize,
    nslots: usize,
    slot_of: &[usize],
    accs: &mut [Option<V>],
) {
    let (ks, avs) = a.row(i);
    for (&k, av) in ks.iter().zip(avs.iter()) {
        let (js, bvs) = b.row(k as usize);
        for (&j, bv) in js.iter().zip(bvs.iter()) {
            let slot = slot_of[j as usize];
            debug_assert!(slot < nslots, "numeric term outside symbolic pattern");
            for (p, pair) in pairs.iter().enumerate() {
                let cell = &mut accs[p * nslots + slot];
                let term = pair.times(av, bv);
                *cell = Some(match cell.take() {
                    None => term,
                    Some(prev) => pair.plus(&prev, &term),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use crate::spgemm::{spgemm_with, Accumulator};
    use aarray_algebra::ops::{AbsDiff, Plus, Times};
    use aarray_algebra::pairs::{MaxMin, MaxPlus, MinPlus, PlusTimes};
    use aarray_algebra::values::nat::Nat;
    use aarray_algebra::values::zn::Zn;
    use aarray_algebra::OpPair;

    fn pt() -> PlusTimes<Nat> {
        PlusTimes::new()
    }

    fn build(nrows: usize, ncols: usize, t: &[(usize, usize, u64)]) -> Csr<Nat> {
        let mut coo = Coo::new(nrows, ncols);
        for &(r, c, v) in t {
            coo.push(r, c, Nat(v));
        }
        coo.into_csr(&pt())
    }

    fn operands() -> (Csr<Nat>, Csr<Nat>) {
        let a = build(
            4,
            5,
            &[
                (0, 0, 1),
                (0, 3, 2),
                (1, 1, 3),
                (1, 4, 1),
                (2, 2, 2),
                (3, 0, 5),
                (3, 4, 7),
            ],
        );
        let b = build(
            5,
            3,
            &[
                (0, 1, 2),
                (1, 0, 1),
                (2, 2, 3),
                (3, 1, 4),
                (4, 0, 6),
                (4, 2, 1),
            ],
        );
        (a, b)
    }

    #[test]
    fn fused_matches_sequential_per_pair() {
        let (a, b) = operands();
        let pt = PlusTimes::<Nat>::new();
        let mm = MaxMin::<Nat>::new();
        let mp = MaxPlus::<Nat>::new();
        let np = MinPlus::<Nat>::new();
        let pairs: Vec<&dyn DynOpPair<Nat>> = vec![&pt, &mm, &mp, &np];
        let fused = spgemm_multi(&a, &b, &pairs);
        assert_eq!(fused.len(), 4);
        assert_eq!(fused[0], spgemm_with(&a, &b, &pt, Accumulator::Spa));
        assert_eq!(fused[1], spgemm_with(&a, &b, &mm, Accumulator::Spa));
        assert_eq!(fused[2], spgemm_with(&a, &b, &mp, Accumulator::Spa));
        assert_eq!(fused[3], spgemm_with(&a, &b, &np, Accumulator::Spa));
    }

    #[test]
    fn parallel_fused_is_bit_identical_for_nonassociative_plus() {
        // ⊕ = |−| is not associative: fold order is observable.
        let ad: OpPair<Nat, AbsDiff, Times> = OpPair::new();
        let pt = PlusTimes::<Nat>::new();
        let pairs: Vec<&dyn DynOpPair<Nat>> = vec![&ad, &pt];
        let mut ca = Coo::new(3, 40);
        let mut cb = Coo::new(40, 3);
        let mut x = 9u64;
        for k in 0..40usize {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ca.push(x as usize % 3, k, Nat(x % 17 + 1));
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            cb.push(k, x as usize % 3, Nat(x % 13 + 1));
        }
        let a = ca.into_csr(&pt);
        let b = cb.into_csr(&pt);
        let serial = spgemm_multi(&a, &b, &pairs);
        let parallel = spgemm_multi_parallel(&a, &b, &pairs);
        assert_eq!(serial, parallel);
        assert_eq!(serial[0], spgemm_with(&a, &b, &ad, Accumulator::Esc));
        assert_eq!(serial[1], spgemm_with(&a, &b, &pt, Accumulator::Esc));
    }

    #[test]
    fn lanes_prune_their_own_zeros_zn_wraparound() {
        // In Z6, 2×1 ⊕ 2×2 = 2 + 4 ≡ 0: the +.× lane must drop the
        // wrapped-to-zero entry while a lane with a different zero
        // element (same slot, different algebra) keeps its entry —
        // the implicit-zero invariant is per-lane. Regression test for the fused kernel
        // and the ESC accumulator agreeing on ⊕-produced zeros.
        type Z6 = Zn<6>;
        let pt6 = PlusTimes::<Z6>::new();
        // ×.+ is also closed on Z6 with identity-of-⊕ = 1: a lane
        // whose "zero" differs, so it must keep what +.× prunes.
        let tp6: OpPair<Z6, Times, Plus> = OpPair::new();
        let mut ca = Coo::new(1, 2);
        ca.push(0, 0, Z6::new(2));
        ca.push(0, 1, Z6::new(2));
        let mut cb = Coo::new(2, 1);
        cb.push(0, 0, Z6::new(1));
        cb.push(1, 0, Z6::new(2));
        let a = ca.into_csr(&pt6);
        let b = cb.into_csr(&pt6);

        let pairs: Vec<&dyn DynOpPair<Z6>> = vec![&pt6, &tp6];
        let fused = spgemm_multi(&a, &b, &pairs);
        assert_eq!(fused[0].nnz(), 0, "wrapped sum must be pruned");
        assert_eq!(fused[1].nnz(), 1, "×.+ lane unaffected");
        // And identically to every sequential accumulator.
        for seq_acc in [Accumulator::Spa, Accumulator::Hash, Accumulator::Esc] {
            assert_eq!(fused[0], spgemm_with(&a, &b, &pt6, seq_acc));
            assert_eq!(fused[1], spgemm_with(&a, &b, &tp6, seq_acc));
        }
    }

    #[test]
    fn symbolic_pattern_reuse_across_numeric_calls() {
        let (a, b) = operands();
        let sym = spgemm_symbolic(&a, &b);
        let pt = PlusTimes::<Nat>::new();
        let mm = MaxMin::<Nat>::new();
        let first = spgemm_multi_numeric(&sym, &a, &b, &[&pt as &dyn DynOpPair<Nat>]);
        let second = spgemm_multi_numeric(&sym, &a, &b, &[&mm as &dyn DynOpPair<Nat>]);
        assert_eq!(first[0], spgemm_with(&a, &b, &pt, Accumulator::Spa));
        assert_eq!(second[0], spgemm_with(&a, &b, &mm, Accumulator::Spa));
    }

    #[test]
    fn empty_pair_list_and_empty_operands() {
        let (a, b) = operands();
        let none: Vec<&dyn DynOpPair<Nat>> = Vec::new();
        assert!(spgemm_multi(&a, &b, &none).is_empty());

        let ea = Csr::<Nat>::empty(3, 4);
        let eb = Csr::<Nat>::empty(4, 2);
        let pt = PlusTimes::<Nat>::new();
        let pairs: Vec<&dyn DynOpPair<Nat>> = vec![&pt];
        let out = spgemm_multi(&ea, &eb, &pairs);
        assert_eq!((out[0].nrows(), out[0].ncols(), out[0].nnz()), (3, 2, 0));
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn dimension_mismatch_panics() {
        let a = build(2, 3, &[(0, 0, 1)]);
        let b = build(2, 2, &[(0, 0, 1)]);
        let pt = PlusTimes::<Nat>::new();
        let pairs: Vec<&dyn DynOpPair<Nat>> = vec![&pt];
        let _ = spgemm_multi(&a, &b, &pairs);
    }

    #[test]
    fn fused_traversals_and_lanes_are_counted() {
        use aarray_obs::snapshot;
        let (a, b) = operands();
        let pt = PlusTimes::<Nat>::new();
        let mm = MaxMin::<Nat>::new();
        let pairs: Vec<&dyn DynOpPair<Nat>> = vec![&pt, &mm];
        let before = snapshot();
        let _ = spgemm_multi(&a, &b, &pairs);
        let _ = spgemm_multi_parallel(&a, &b, &pairs);
        let delta = snapshot().since(&before);
        // ≥: the registry is process-global, tests run concurrently.
        assert!(delta.get(Counter::FusedTraversals) >= 2, "{}", delta);
        assert!(delta.get(Counter::FusedLanes) >= 4, "{}", delta);
        assert!(delta.get(Counter::FusedSpa) >= 2, "{}", delta);
        assert!(delta.get(Counter::FusedParallel) >= 1, "{}", delta);
    }

    #[test]
    fn fused_scratch_memory_and_occupancy_recorded() {
        let (a, b) = operands();
        let pt = PlusTimes::<Nat>::new();
        let mm = MaxMin::<Nat>::new();
        let pairs: Vec<&dyn DynOpPair<Nat>> = vec![&pt, &mm];
        let occ_before = histograms().get(Hist::AccOccupancy).snapshot();
        let nnz_before = histograms().get(Hist::RowNnz).snapshot();
        let _ = spgemm_multi(&a, &b, &pairs);
        let _ = spgemm_multi(&a, &b, &pairs);
        // Slot map alone is ncols × 8 bytes; the SoA block adds more.
        assert!(
            memstats().peak(MemRegion::FusedAccumulator) >= (b.ncols() * size_of::<usize>()) as u64
        );
        let occ = histograms()
            .get(Hist::AccOccupancy)
            .snapshot()
            .since(&occ_before);
        // 2 traversals × 4 rows × 2 lanes = 16 lane-rows recorded.
        assert!(occ.count() >= 16, "per-lane occupancy recorded");
        let nnz = histograms().get(Hist::RowNnz).snapshot().since(&nnz_before);
        assert!(nnz.count() >= 8, "per-row structural nnz recorded");
    }
}
