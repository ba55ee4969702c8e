//! Incremental adjacency maintenance: append edge batches to a growing
//! incidence pair and keep cached adjacency arrays current without
//! recomputing `Eᵀout ⊕.⊗ Ein` from scratch.
//!
//! # The update formula, and why it collapses
//!
//! For an appended batch `ΔE`, the exact update is
//! `A' = A ⊕ (ΔEᵀout·Ein ⊕ Eᵀout·ΔEin ⊕ ΔEᵀout·ΔEin)`. The cross terms
//! contract over the *edge-key* dimension, and an appended batch shares
//! no edge key with the prior incidence (duplicate edge keys are
//! rejected), so both cross products are structurally empty. What
//! remains is one batch-local product `ΔEᵀout ⊕.⊗ ΔEin` per `⊕.⊗`
//! lane — computed for all lanes by one
//! [`crate::plan::MatmulPlan::execute_all`] on a transpose plan of the
//! batch blocks, the same product path a build takes — folded into
//! each cached lane by a row splice.
//!
//! # What a batch costs
//!
//! Work is proportional to the batch plus at most one column remap:
//!
//! * **Append.** An ordered batch (keys after every existing edge key)
//!   extends `Eout`/`Ein` in place: the edge-key union concatenates
//!   ids, existing column indices are remapped through a `u32` map only
//!   when the batch brings new vertices, and the batch rows are pushed
//!   at the tail. An out-of-order batch interleaves through the same
//!   splice refresh uses, which never needs `⊕` there because the
//!   operands' rows are disjoint.
//! * **Refresh.** Per batch, the union vertex key sets and the position
//!   maps of the lane and of the delta are computed once and shared by
//!   every lane (so are the key handles, and with them the lazily
//!   materialized key strings). Rows the delta does not touch are
//!   copied as slices, columns remapped only when the vertex set grew;
//!   touched rows merge in ascending column with `old ⊕ new` — the
//!   operand order of [`AArray::ewise_add_dyn`]`(lane, delta)`, so the
//!   splice is bit-identical to that union merge.
//!
//! # When the incremental result is bit-identical
//!
//! A from-scratch rebuild folds each output entry left-associated over
//! **all** edge keys ascending. The incremental path folds the old
//! edges first (that fold is the cached entry) and the batch edges
//! after. The two agree exactly when
//!
//! 1. `⊕` is associative — witnessed by the
//!    [`aarray_algebra::AssociativePlus`] capability, surfaced at
//!    runtime as [`DynOpPair::plus_associative`]; and
//! 2. batch edge keys sort strictly **after** every existing edge key,
//!    so "old fold, then batch fold" is the ascending fold order.
//!
//! (Pruned zeros cannot break this: zero is the `⊕`-identity, so a
//! pruned partial fold re-enters the continued fold as a no-op.)
//!
//! Lanes whose `⊕` is not associative — e.g. `+.×` over floating-point
//! `NN`, the paper's Figure 3 headline pair — and refreshes crossing an
//! out-of-order batch degrade to a **counted full rebuild**
//! ([`Counter::IncrementalFallback`]): correctness never depends on the
//! fast path applying, only latency does.
//!
//! ```
//! use aarray_core::incremental::{AdjacencyView, IncidenceBuilder};
//! use aarray_core::prelude::*;
//!
//! let pair = PlusTimes::<Nat>::new();
//! let eout = AArray::from_triples(&pair, [("e01", "alice", Nat(1))]);
//! let ein = AArray::from_triples(&pair, [("e01", "bob", Nat(1))]);
//! let mut builder = IncidenceBuilder::new(eout, ein).unwrap();
//! let mut view = AdjacencyView::new(&builder, vec![&pair]);
//!
//! let d_out = AArray::from_triples(&pair, [("e02", "bob", Nat(1))]);
//! let d_in = AArray::from_triples(&pair, [("e02", "carol", Nat(1))]);
//! builder.append_batch(d_out, d_in).unwrap();
//! view.refresh(&builder);
//! assert_eq!(view.lane(0).get("bob", "carol"), Some(&Nat(1)));
//! ```

use crate::array::AArray;
use crate::incidence::adjacency_plan;
use crate::keys::KeySet;
use aarray_algebra::dynpair::DynOpPair;
use aarray_algebra::Value;
use aarray_obs::{counters, histograms, journal, Counter, EventKind, Hist, OpKind, OpToken, Stage};
use aarray_sparse::Csr;
use std::fmt;
use std::time::Instant;

/// Why an appended batch was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BatchError {
    /// The out- and in-blocks disagree on the batch's edge keys. Both
    /// must be `Δedges × vertices` over the same edge-key rows.
    EdgeKeysMismatch,
    /// The batch stores no entries: nothing to append.
    EmptyBatch,
    /// A batch edge key already exists in the builder. Edge keys name
    /// edges; appending one twice would silently `⊕`-merge two distinct
    /// edges into one.
    DuplicateEdgeKey(String),
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchError::EdgeKeysMismatch => {
                write!(f, "batch out/in blocks disagree on edge keys")
            }
            BatchError::EmptyBatch => write!(f, "batch stores no entries"),
            BatchError::DuplicateEdgeKey(k) => {
                write!(f, "batch edge key {:?} already appended", k)
            }
        }
    }
}

impl std::error::Error for BatchError {}

/// What [`IncidenceBuilder::append_batch`] did with an accepted batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchKind {
    /// Batch edge keys sort strictly after all existing edge keys: the
    /// batch is logged and eligible for incremental view refresh.
    Ordered,
    /// Batch edge keys interleave with existing ones. The cumulative
    /// incidence is still correct, but ascending-fold order can no
    /// longer be decomposed as "old, then new", so views crossing this
    /// batch must fully rebuild.
    OutOfOrder,
}

/// One logged append: the batch blocks when incremental replay is
/// possible, or a barrier when it is not.
enum LogEntry<V: Value> {
    /// Boxed so the log's enum stays small next to [`LogEntry::Barrier`].
    Delta {
        d_out: Box<AArray<V>>,
        d_in: Box<AArray<V>>,
    },
    /// An out-of-order append: views whose refresh crosses this entry
    /// cannot replay deltas and must rebuild.
    Barrier,
}

/// A growing incidence pair `(Eout, Ein)` accepting appended edge
/// batches, with a generation counter for staleness tracking.
///
/// Both arrays are `edges × vertices` (Definition I.4 orientation) and
/// always share their edge-key row set. The builder is pair-agnostic,
/// like [`AArray`] itself: values are stored as given and only
/// interpreted when a view multiplies them under concrete `⊕.⊗` lanes.
pub struct IncidenceBuilder<V: Value> {
    eout: AArray<V>,
    ein: AArray<V>,
    generation: u64,
    /// `log[g]` records the append that produced generation `g + 1`.
    log: Vec<LogEntry<V>>,
}

impl<V: Value> IncidenceBuilder<V> {
    /// Start from an initial incidence pair (generation 0). Fails with
    /// [`BatchError::EdgeKeysMismatch`] if the two arrays disagree on
    /// their edge-key rows.
    pub fn new(eout: AArray<V>, ein: AArray<V>) -> Result<Self, BatchError> {
        if eout.row_keys() != ein.row_keys() {
            return Err(BatchError::EdgeKeysMismatch);
        }
        Ok(IncidenceBuilder {
            eout,
            ein,
            generation: 0,
            log: Vec::new(),
        })
    }

    /// The cumulative out-incidence `Eout` (edges × out-vertices).
    pub fn eout(&self) -> &AArray<V> {
        &self.eout
    }

    /// The cumulative in-incidence `Ein` (edges × in-vertices).
    pub fn ein(&self) -> &AArray<V> {
        &self.ein
    }

    /// The builder's generation: 0 at construction, +1 per accepted
    /// batch. Views and plans stamped with an older generation are
    /// stale.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of edges (rows) accumulated so far.
    pub fn n_edges(&self) -> usize {
        self.eout.row_keys().len()
    }

    /// Append an edge batch `(ΔEout, ΔEin)`, both `Δedges × vertices`
    /// over the same fresh edge keys. Vertex columns not seen before
    /// grow the cumulative key sets (union growth).
    ///
    /// Returns how the batch was classified: [`BatchKind::Ordered`]
    /// batches are eligible for incremental view refresh; accepted
    /// [`BatchKind::OutOfOrder`] batches force crossing views to
    /// rebuild (see the module docs for why fold order matters).
    pub fn append_batch(
        &mut self,
        d_out: AArray<V>,
        d_in: AArray<V>,
    ) -> Result<BatchKind, BatchError> {
        if d_out.row_keys() != d_in.row_keys() {
            return Err(BatchError::EdgeKeysMismatch);
        }
        if d_out.row_keys().is_empty() {
            return Err(BatchError::EmptyBatch);
        }
        let old_keys = self.eout.row_keys();
        let batch_keys = d_out.row_keys();
        // Integer-space ordering check: no string materialization.
        let ordered = batch_keys.all_after(old_keys);
        if !ordered {
            // Only the interleaved case can collide with existing keys:
            // one linear index-map walk finds any collision.
            if let Some(j) = old_keys
                .index_map(batch_keys)
                .iter()
                .position(|p| p.is_some())
            {
                return Err(BatchError::DuplicateEdgeKey(batch_keys.key(j).to_string()));
            }
        }

        // Ordered batch keys sort after every existing key, so the union
        // concatenates ids and the batch rows go at the tail.
        let edge_keys = old_keys.union(batch_keys);
        extend_rows(&mut self.eout, &d_out, &edge_keys, ordered);
        extend_rows(&mut self.ein, &d_in, &edge_keys, ordered);

        let n_batch_edges = batch_keys.len() as u64;
        counters().incr(Counter::IncrementalBatches);
        counters().add(Counter::IncrementalEdges, n_batch_edges);
        histograms().record(Hist::DeltaBatchEdges, n_batch_edges);

        let kind = if ordered {
            self.log.push(LogEntry::Delta {
                d_out: Box::new(d_out),
                d_in: Box::new(d_in),
            });
            BatchKind::Ordered
        } else {
            self.log.push(LogEntry::Barrier);
            BatchKind::OutOfOrder
        };
        self.generation += 1;
        Ok(kind)
    }

    /// The logged batches appended after `since_generation`, or `None`
    /// if an out-of-order barrier lies in that range (replay is then
    /// impossible and the caller must rebuild).
    fn deltas_since(&self, since_generation: u64) -> Option<Vec<(&AArray<V>, &AArray<V>)>> {
        self.log[since_generation as usize..]
            .iter()
            .map(|e| match e {
                LogEntry::Delta { d_out, d_in } => Some((d_out.as_ref(), d_in.as_ref())),
                LogEntry::Barrier => None,
            })
            .collect()
    }
}

/// Grow `array` by the rows of a row-disjoint `batch`, over the union
/// edge keys `rows`. An ordered batch (keys after every existing one)
/// extends the CSR in place: existing column indices are remapped only
/// when the batch brings new vertices, then the batch rows are pushed
/// at the tail. An out-of-order batch interleaves through [`splice`].
fn extend_rows<V: Value>(array: &mut AArray<V>, batch: &AArray<V>, rows: &KeySet, ordered: bool) {
    let cols = array.col_keys().union(batch.col_keys());
    let shape = (rows.len(), cols.len());
    let data = if ordered {
        let empty = AArray::empty(KeySet::empty(), KeySet::empty());
        let (_, old_cols, csr) = std::mem::replace(array, empty).into_parts();
        let (_, _, indptr, mut indices, values) = csr.into_parts();
        if let Some(map) = col_map(&cols, &old_cols) {
            for c in &mut indices {
                *c = map[*c as usize];
            }
        }
        let mut out = CsrBuf {
            indptr,
            indices,
            values,
        };
        let map = col_map(&cols, batch.col_keys());
        out.copy_rows(batch.csr(), 0, batch.csr().nrows(), map.as_deref());
        Csr::from_parts(shape.0, shape.1, out.indptr, out.indices, out.values)
    } else {
        let old = Placement::new(rows, &cols, array.row_keys(), array.col_keys());
        let new = Placement::new(rows, &cols, batch.row_keys(), batch.col_keys());
        splice((array.csr(), &old), (batch.csr(), &new), shape, None)
    };
    *array = AArray::from_parts(rows.clone(), cols, data);
}

/// Where one operand's rows and columns land in (union) target key
/// sets. `None` is the identity: the operand already has the target's
/// keys on that side.
struct Placement {
    rows: Option<Vec<usize>>,
    cols: Option<Vec<u32>>,
}

impl Placement {
    /// Place an array keyed by `rows × cols` into the supersets
    /// `to_rows × to_cols`.
    fn new(to_rows: &KeySet, to_cols: &KeySet, rows: &KeySet, cols: &KeySet) -> Placement {
        Placement {
            rows: (rows.len() != to_rows.len()).then(|| to_rows.positions_of(rows)),
            cols: col_map(to_cols, cols),
        }
    }

    /// Target row of source row `r` of `n`, or `usize::MAX` past the
    /// last one.
    fn row(&self, r: usize, n: usize) -> usize {
        match &self.rows {
            _ if r >= n => usize::MAX,
            None => r,
            Some(m) => m[r],
        }
    }

    /// End of the run of source rows from `r` (of `n`) that land before
    /// target row `before`.
    fn run_end(&self, r: usize, n: usize, before: usize) -> usize {
        match &self.rows {
            None => before.min(n),
            Some(m) => r + m[r..].partition_point(|&t| t < before),
        }
    }
}

/// Positions of `cols` in its superset `to`, as CSR column indices, or
/// `None` when the two sets are equal.
fn col_map(to: &KeySet, cols: &KeySet) -> Option<Vec<u32>> {
    (cols.len() != to.len()).then(|| {
        to.positions_of(cols)
            .into_iter()
            .map(|p| p as u32)
            .collect()
    })
}

/// Append source entries to CSR buffers, remapping their columns.
fn push_entries<V: Value>(
    indices: &mut Vec<u32>,
    values: &mut Vec<V>,
    (cols, vals): (&[u32], &[V]),
    map: Option<&[u32]>,
) {
    match map {
        None => indices.extend_from_slice(cols),
        Some(m) => indices.extend(cols.iter().map(|&c| m[c as usize])),
    }
    values.extend_from_slice(vals);
}

/// CSR buffers under construction.
struct CsrBuf<V> {
    indptr: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<V>,
}

impl<V: Value> CsrBuf<V> {
    /// Append the source rows `lo..hi` of `src` as consecutive target
    /// rows: one bulk copy of their entries, columns remapped through
    /// `map`.
    fn copy_rows(&mut self, src: &Csr<V>, lo: usize, hi: usize, map: Option<&[u32]>) {
        let ptr = src.indptr();
        let (start, end) = (ptr[lo], ptr[hi]);
        let base = self.indices.len();
        push_entries(
            &mut self.indices,
            &mut self.values,
            (&src.indices()[start..end], &src.values()[start..end]),
            map,
        );
        self.indptr
            .extend(ptr[lo + 1..=hi].iter().map(|&p| p - start + base));
    }
}

/// The one merge primitive of the incremental layer: the union of two
/// placed operands `a` and `b` as a `shape` CSR whose rows are exactly
/// the union of theirs.
///
/// Runs of rows only one operand stores are copied in bulk, columns
/// remapped through its placement. Rows both store are merged in
/// ascending target column, with `a ⊕ b` on common columns and the
/// result pruned if it is the pair's zero — the operand order and
/// pruning of [`AArray::ewise_add_dyn`]`(a, b)`, so a lane refresh is
/// bit-identical to that union merge. Operands must store no zeros
/// (adjacency lanes and deltas never do), which is what lets copied
/// entries skip the check. `plus` is `None` for row-disjoint operands
/// (incidence appends), where no row can need it.
fn splice<V: Value>(
    (a, pa): (&Csr<V>, &Placement),
    (b, pb): (&Csr<V>, &Placement),
    (nrows, ncols): (usize, usize),
    plus: Option<&dyn DynOpPair<V>>,
) -> Csr<V> {
    let (ma, mb) = (pa.cols.as_deref(), pb.cols.as_deref());
    let (na, nb) = (a.nrows(), b.nrows());
    let nnz = a.nnz() + b.nnz();
    let mut out = CsrBuf {
        indptr: Vec::with_capacity(nrows + 1),
        indices: Vec::with_capacity(nnz),
        values: Vec::with_capacity(nnz),
    };
    out.indptr.push(0);
    let (mut i, mut j) = (0usize, 0usize);
    while i < na || j < nb {
        let (ra, rb) = (pa.row(i, na), pb.row(j, nb));
        if ra < rb {
            let end = pa.run_end(i, na, rb);
            out.copy_rows(a, i, end, ma);
            i = end;
        } else if rb < ra {
            let end = pb.run_end(j, nb, ra);
            out.copy_rows(b, j, end, mb);
            j = end;
        } else {
            let pair = plus.expect("splice: row-disjoint operands share a row");
            let ((ac, av), (bc, bv)) = (a.row(i), b.row(j));
            let at = |x: usize| ma.map_or(ac[x], |m| m[ac[x] as usize]);
            let bt = |y: usize| mb.map_or(bc[y], |m| m[bc[y] as usize]);
            let (mut x, mut y) = (0usize, 0usize);
            while x < ac.len() && y < bc.len() {
                let (ca, cb) = (at(x), bt(y));
                if ca < cb {
                    out.indices.push(ca);
                    out.values.push(av[x].clone());
                    x += 1;
                } else if cb < ca {
                    out.indices.push(cb);
                    out.values.push(bv[y].clone());
                    y += 1;
                } else {
                    let v = pair.plus(&av[x], &bv[y]);
                    if !pair.is_zero(&v) {
                        out.indices.push(ca);
                        out.values.push(v);
                    }
                    x += 1;
                    y += 1;
                }
            }
            push_entries(&mut out.indices, &mut out.values, (&ac[x..], &av[x..]), ma);
            push_entries(&mut out.indices, &mut out.values, (&bc[y..], &bv[y..]), mb);
            out.indptr.push(out.indices.len());
            i += 1;
            j += 1;
        }
    }
    assert_eq!(
        out.indptr.len(),
        nrows + 1,
        "splice: target rows must be the union of the operands' rows"
    );
    Csr::from_parts(nrows, ncols, out.indptr, out.indices, out.values)
}

/// How one [`AdjacencyView::refresh`] brought the view current.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RefreshReport {
    /// Lanes updated by delta replay (`A ⊕ ΔA` per pending batch).
    pub incremental_lanes: usize,
    /// Lanes recomputed from the cumulative incidence (fallback).
    pub rebuilt_lanes: usize,
    /// Pending batches replayed on the incremental lanes.
    pub batches_applied: usize,
}

impl RefreshReport {
    /// Whether the refresh did any work at all.
    pub fn did_work(&self) -> bool {
        self.incremental_lanes > 0 || self.rebuilt_lanes > 0
    }
}

/// Cached adjacency arrays `A_p = Eᵀout ⊕_p.⊗_p Ein` for `K` lanes,
/// kept current against an [`IncidenceBuilder`] by incremental delta
/// application where sound and counted full rebuild where not.
pub struct AdjacencyView<'p, V: Value> {
    pairs: Vec<&'p dyn DynOpPair<V>>,
    lanes: Vec<AArray<V>>,
    /// Builder generation the cached lanes reflect.
    generation: u64,
}

impl<'p, V: Value> AdjacencyView<'p, V> {
    /// Build all lanes from scratch via one fused
    /// [`crate::plan::MatmulPlan`] traversal, stamped with the
    /// builder's current generation.
    pub fn new(builder: &IncidenceBuilder<V>, pairs: Vec<&'p dyn DynOpPair<V>>) -> Self {
        let lanes = rebuild_lanes(builder, &pairs);
        AdjacencyView {
            pairs,
            lanes,
            generation: builder.generation(),
        }
    }

    /// The cached adjacency array of lane `i` (same order as the pair
    /// slice given at construction).
    pub fn lane(&self, i: usize) -> &AArray<V> {
        &self.lanes[i]
    }

    /// Number of `⊕.⊗` lanes.
    pub fn n_lanes(&self) -> usize {
        self.lanes.len()
    }

    /// The builder generation the cached lanes reflect.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Whether the view lags the builder.
    pub fn is_stale(&self, builder: &IncidenceBuilder<V>) -> bool {
        self.generation != builder.generation()
    }

    /// Bring every lane up to the builder's generation.
    ///
    /// Lanes whose `⊕` is associative ([`DynOpPair::plus_associative`])
    /// replay the pending ordered batches: per batch, one transpose
    /// plan of the batch blocks executed over those lanes in a single
    /// fused traversal (serial or row-parallel by the planner's
    /// dispatch gate, whose verdict the delta-apply ledger record
    /// carries; [`Counter::DeltaTraversals`]), then a row splice of the
    /// delta into each lane ([`Counter::IncrementalApply`],
    /// [`Hist::DeltaApplyNs`]). All other lanes — non-associative `⊕`,
    /// or any refresh crossing an out-of-order batch — are recomputed
    /// from the cumulative incidence in one fused rebuild traversal
    /// ([`Counter::IncrementalFallback`], [`Hist::RebuildNs`]).
    pub fn refresh(&mut self, builder: &IncidenceBuilder<V>) -> RefreshReport {
        if !self.is_stale(builder) {
            return RefreshReport::default();
        }
        let mut report = RefreshReport::default();

        let deltas = builder.deltas_since(self.generation);
        let (inc_idx, reb_idx): (Vec<usize>, Vec<usize>) = match &deltas {
            // No barrier in range: associative-⊕ lanes replay deltas.
            Some(_) => (0..self.pairs.len()).partition(|&i| self.pairs[i].plus_associative()),
            // Barrier: nobody can replay.
            None => (Vec::new(), (0..self.pairs.len()).collect()),
        };

        if !inc_idx.is_empty() {
            let mut op = OpToken::begin_if_root(OpKind::DeltaApply);
            let batches = deltas.as_ref().expect("checked above");
            let inc_pairs: Vec<&dyn DynOpPair<V>> =
                inc_idx.iter().map(|&i| self.pairs[i]).collect();
            // Set when any batch's product ran row-parallel.
            let mut parallel = false;
            let span = journal().span(Stage::DeltaApply, inc_idx.len() as u64);
            for (d_out, d_in) in batches {
                let t0 = Instant::now();
                counters().incr(Counter::DeltaTraversals);
                // `append_batch` keeps both blocks on the same edge
                // keys, so the plan's alignment is the no-op fast path.
                let products = {
                    let plan = d_out.transpose_matmul_plan(d_in);
                    let products = plan.execute_all(&inc_pairs);
                    parallel |= plan.profile().numeric.iter().any(|p| p.parallel);
                    products
                };
                // Every lane has the same vertex key sets, so the union
                // keys and both placements are computed once per batch
                // and the key handles are shared by all lanes.
                let (rows, cols, old, new) = {
                    let lane = &self.lanes[inc_idx[0]];
                    let rows = lane.row_keys().union(d_out.col_keys());
                    let cols = lane.col_keys().union(d_in.col_keys());
                    let old = Placement::new(&rows, &cols, lane.row_keys(), lane.col_keys());
                    let new = Placement::new(&rows, &cols, d_out.col_keys(), d_in.col_keys());
                    (rows, cols, old, new)
                };
                for (&lane, delta) in inc_idx.iter().zip(products) {
                    let csr = splice(
                        (self.lanes[lane].csr(), &old),
                        (delta.csr(), &new),
                        (rows.len(), cols.len()),
                        Some(self.pairs[lane]),
                    );
                    self.lanes[lane] = AArray::from_parts(rows.clone(), cols.clone(), csr);
                }
                histograms().record(Hist::DeltaApplyNs, t0.elapsed().as_nanos() as u64);
                report.batches_applied += 1;
            }
            span.end();
            journal().record(
                EventKind::DeltaApply,
                inc_idx.len() as u64,
                report.batches_applied as u64,
            );
            counters().add(Counter::IncrementalApply, inc_idx.len() as u64);
            report.incremental_lanes = inc_idx.len();
            if let Some(t) = op.as_mut() {
                t.set_lanes(inc_idx.len() as u64);
                t.set_out_nnz(inc_idx.iter().map(|&i| self.lanes[i].nnz() as u64).sum());
                t.set_dispatch(parallel, rayon::current_num_threads() as u64);
            }
            if let Some(t) = op {
                t.finish();
            }
        }

        if !reb_idx.is_empty() {
            // Reason 0: a lane's ⊕ is non-associative, so deltas can't be
            // replayed for it. Reason 1: a barrier batch forced everyone
            // down the rebuild path regardless of associativity.
            let reason = if deltas.is_none() { 1 } else { 0 };
            // The ledger's fallback field reserves 0 for "none", so the
            // journal reason codes shift up by one there.
            let mut op = OpToken::begin_if_root(OpKind::Rebuild);
            if let Some(t) = op.as_mut() {
                t.set_lanes(reb_idx.len() as u64);
                t.set_fallback(reason + 1);
            }
            journal().record(EventKind::IncrementalFallback, reb_idx.len() as u64, reason);
            let reb_pairs: Vec<&dyn DynOpPair<V>> =
                reb_idx.iter().map(|&i| self.pairs[i]).collect();
            let rebuilt = rebuild_lanes(builder, &reb_pairs);
            for (&lane, array) in reb_idx.iter().zip(rebuilt) {
                self.lanes[lane] = array;
            }
            counters().add(Counter::IncrementalFallback, reb_idx.len() as u64);
            report.rebuilt_lanes = reb_idx.len();
            if let Some(t) = op.as_mut() {
                t.set_out_nnz(reb_idx.iter().map(|&i| self.lanes[i].nnz() as u64).sum());
            }
            if let Some(t) = op {
                t.finish();
            }
        }

        self.generation = builder.generation();
        report
    }
}

/// Full `Eᵀout ⊕.⊗ Ein` for the given lanes in one fused traversal,
/// recording the rebuild latency.
fn rebuild_lanes<V: Value>(
    builder: &IncidenceBuilder<V>,
    pairs: &[&dyn DynOpPair<V>],
) -> Vec<AArray<V>> {
    let span = journal().span(Stage::Rebuild, pairs.len() as u64);
    let plan = adjacency_plan(builder.eout(), builder.ein()).with_generation(builder.generation());
    debug_assert!(
        !plan.is_stale(builder.generation()),
        "plan stamped at build must match the builder generation"
    );
    let lanes = plan.execute_all(pairs);
    histograms().record(Hist::RebuildNs, span.end());
    lanes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incidence::adjacency_arrays_multi;
    use aarray_algebra::pairs::{MaxMin, PlusTimes};
    use aarray_algebra::values::nat::Nat;
    use aarray_algebra::values::nn::{nn, NN};
    use aarray_obs::snapshot;

    fn pt() -> PlusTimes<Nat> {
        PlusTimes::new()
    }

    /// n edges "eNNN": vNNN → v(NNN+1) with weights varying by index,
    /// keys zero-padded so lexicographic order is append order.
    fn chain_batch(lo: usize, hi: usize) -> (AArray<Nat>, AArray<Nat>) {
        let pair = pt();
        let out: Vec<(String, String, Nat)> = (lo..hi)
            .map(|i| {
                (
                    format!("e{:04}", i),
                    format!("v{:04}", i),
                    Nat(1 + i as u64 % 3),
                )
            })
            .collect();
        let inn: Vec<(String, String, Nat)> = (lo..hi)
            .map(|i| {
                (
                    format!("e{:04}", i),
                    format!("v{:04}", i + 1),
                    Nat(1 + i as u64 % 2),
                )
            })
            .collect();
        (
            AArray::from_triples(&pair, out),
            AArray::from_triples(&pair, inn),
        )
    }

    #[test]
    fn builder_accumulates_batches_and_generations() {
        let (e0, i0) = chain_batch(0, 4);
        let mut b = IncidenceBuilder::new(e0, i0).unwrap();
        assert_eq!(b.generation(), 0);
        assert_eq!(b.n_edges(), 4);

        let before = snapshot();
        let (d_out, d_in) = chain_batch(4, 7);
        assert_eq!(b.append_batch(d_out, d_in), Ok(BatchKind::Ordered));
        assert_eq!(b.generation(), 1);
        assert_eq!(b.n_edges(), 7);
        // Vertex key growth: v0000..v0007 now present on the out side
        // up to v0006 and the in side up to v0007.
        assert!(b.eout().col_keys().contains("v0006"));
        assert!(b.ein().col_keys().contains("v0007"));
        let d = snapshot().since(&before);
        assert!(d.get(Counter::IncrementalBatches) >= 1);
        assert!(d.get(Counter::IncrementalEdges) >= 3);
    }

    #[test]
    fn splice_matches_ewise_add_dyn_under_vertex_growth() {
        let ptn = pt();
        let mm = MaxMin::<Nat>::new();
        let lane = AArray::from_triples(
            &ptn,
            [
                ("a", "x", Nat(3)),
                ("a", "z", Nat(1)),
                ("c", "y", Nat(2)),
                ("d", "x", Nat(5)),
            ],
        );
        let growing = AArray::from_triples(
            &ptn,
            [
                ("a", "z", Nat(4)),
                ("a", "w", Nat(1)),
                ("b", "x", Nat(7)),
                ("d", "y", Nat(2)),
            ],
        );
        let within = AArray::from_triples(&ptn, [("a", "x", Nat(9)), ("d", "x", Nat(1))]);
        for delta in [&growing, &within] {
            for pair in [&ptn as &dyn DynOpPair<Nat>, &mm] {
                let rows = lane.row_keys().union(delta.row_keys());
                let cols = lane.col_keys().union(delta.col_keys());
                let old = Placement::new(&rows, &cols, lane.row_keys(), lane.col_keys());
                let new = Placement::new(&rows, &cols, delta.row_keys(), delta.col_keys());
                let shape = (rows.len(), cols.len());
                let csr = splice((lane.csr(), &old), (delta.csr(), &new), shape, Some(pair));
                let got = AArray::from_parts(rows, cols, csr);
                assert_eq!(got, lane.ewise_add_dyn(delta, pair));
            }
        }
    }

    #[test]
    fn batch_validation_rejects_bad_batches() {
        let (e0, i0) = chain_batch(0, 3);
        let mut b = IncidenceBuilder::new(e0, i0).unwrap();
        // Mismatched edge keys between the two blocks.
        let (d_out, _) = chain_batch(3, 5);
        let (_, other_in) = chain_batch(5, 7);
        assert_eq!(
            b.append_batch(d_out, other_in),
            Err(BatchError::EdgeKeysMismatch)
        );
        // Empty batch.
        let pair = pt();
        let empty = AArray::from_triples(&pair, Vec::<(String, String, Nat)>::new());
        assert_eq!(
            b.append_batch(empty.clone(), empty),
            Err(BatchError::EmptyBatch)
        );
        // Duplicate edge key (e0002 already present).
        let (d_out, d_in) = chain_batch(2, 4);
        assert_eq!(
            b.append_batch(d_out, d_in),
            Err(BatchError::DuplicateEdgeKey("e0002".into()))
        );
        // All rejected: generation unchanged.
        assert_eq!(b.generation(), 0);
    }

    #[test]
    fn out_of_order_batch_is_accepted_but_barriers() {
        let (e0, i0) = chain_batch(5, 8);
        let mut b = IncidenceBuilder::new(e0, i0).unwrap();
        let (d_out, d_in) = chain_batch(0, 2); // sorts before existing
        assert_eq!(b.append_batch(d_out, d_in), Ok(BatchKind::OutOfOrder));
        assert_eq!(b.n_edges(), 5);
        assert!(b.deltas_since(0).is_none(), "barrier blocks replay");
    }

    #[test]
    fn incremental_refresh_is_bit_identical_to_rebuild_for_associative_plus() {
        // Max.Min over Nat: ⊕ = max is associative (capability-marked).
        let mm = MaxMin::<Nat>::new();
        let (e0, i0) = chain_batch(0, 6);
        let mut b = IncidenceBuilder::new(e0, i0).unwrap();
        let mut view = AdjacencyView::new(&b, vec![&mm]);
        assert!(!view.is_stale(&b));

        for (lo, hi) in [(6, 9), (9, 14)] {
            let (d_out, d_in) = chain_batch(lo, hi);
            b.append_batch(d_out, d_in).unwrap();
        }
        assert!(view.is_stale(&b));
        let before = snapshot();
        let report = view.refresh(&b);
        let d = snapshot().since(&before);
        assert_eq!(report.incremental_lanes, 1);
        assert_eq!(report.rebuilt_lanes, 0);
        assert_eq!(report.batches_applied, 2);
        assert!(d.get(Counter::IncrementalApply) >= 1);
        assert!(d.get(Counter::DeltaTraversals) >= 2);

        let full = adjacency_arrays_multi(b.eout(), b.ein(), &[&mm as &dyn DynOpPair<Nat>]);
        assert_eq!(view.lane(0), &full[0], "incremental must be bit-identical");
        // And refreshing again is a no-op.
        assert!(!view.refresh(&b).did_work());
    }

    #[test]
    fn delta_traversals_and_scratch_are_recorded() {
        use aarray_obs::{memstats, MemRegion};
        let mm = MaxMin::<Nat>::new();
        let (e0, i0) = chain_batch(0, 4);
        let mut b = IncidenceBuilder::new(e0, i0).unwrap();
        let mut view = AdjacencyView::new(&b, vec![&mm]);
        for (lo, hi) in [(4, 6), (6, 9), (9, 10)] {
            let (d_out, d_in) = chain_batch(lo, hi);
            b.append_batch(d_out, d_in).unwrap();
        }
        let before = snapshot();
        assert_eq!(view.refresh(&b).batches_applied, 3);
        let d = snapshot().since(&before);
        // One batch-plan traversal per batch (≥: the registry is
        // process-global and tests run concurrently).
        assert!(d.get(Counter::DeltaTraversals) >= 3, "{}", d);
        assert!(d.get(Counter::PlanTransposeBuilt) >= 3, "{}", d);
        // The batch plan's transpose and symbolic pattern are accounted
        // like any plan's.
        assert!(memstats().peak(MemRegion::PlanTranspose) > 0);
        assert!(memstats().peak(MemRegion::PlanSymbolic) > 0);
    }

    #[test]
    fn non_associative_plus_falls_back_to_counted_rebuild() {
        // +.× over NN: float ⊕ is NOT associative — no capability
        // marker, so the lane must take the rebuild path.
        let pt_nn = PlusTimes::<NN>::new();
        let pair = PlusTimes::<NN>::new();
        let mk = |lo: usize, hi: usize| {
            let out: Vec<(String, String, NN)> = (lo..hi)
                .map(|i| {
                    (
                        format!("e{:04}", i),
                        format!("v{:04}", i),
                        nn(0.1 + i as f64),
                    )
                })
                .collect();
            let inn: Vec<(String, String, NN)> = (lo..hi)
                .map(|i| (format!("e{:04}", i), format!("v{:04}", i + 1), nn(1.5)))
                .collect();
            (
                AArray::from_triples(&pair, out),
                AArray::from_triples(&pair, inn),
            )
        };
        let (e0, i0) = mk(0, 5);
        let mut b = IncidenceBuilder::new(e0, i0).unwrap();
        let mut view = AdjacencyView::new(&b, vec![&pt_nn]);
        let (d_out, d_in) = mk(5, 9);
        b.append_batch(d_out, d_in).unwrap();

        let before = snapshot();
        let report = view.refresh(&b);
        let d = snapshot().since(&before);
        assert_eq!(report.incremental_lanes, 0);
        assert_eq!(report.rebuilt_lanes, 1);
        assert!(d.get(Counter::IncrementalFallback) >= 1);

        let full = adjacency_arrays_multi(b.eout(), b.ein(), &[&pt_nn as &dyn DynOpPair<NN>]);
        assert_eq!(view.lane(0), &full[0]);
    }

    #[test]
    fn mixed_lanes_split_between_incremental_and_rebuild() {
        // Nat +.× is associative-⊕ (ℕ addition); pair it with Max.Min.
        let ptn = pt();
        let mm = MaxMin::<Nat>::new();
        let (e0, i0) = chain_batch(0, 5);
        let mut b = IncidenceBuilder::new(e0, i0).unwrap();
        let mut view = AdjacencyView::new(&b, vec![&ptn, &mm]);
        let (d_out, d_in) = chain_batch(5, 9);
        b.append_batch(d_out, d_in).unwrap();
        let report = view.refresh(&b);
        assert_eq!(report.incremental_lanes, 2, "both Nat lanes associative");
        assert_eq!(report.rebuilt_lanes, 0);

        let pairs: Vec<&dyn DynOpPair<Nat>> = vec![&ptn, &mm];
        let full = adjacency_arrays_multi(b.eout(), b.ein(), &pairs);
        assert_eq!(view.lane(0), &full[0]);
        assert_eq!(view.lane(1), &full[1]);
    }

    #[test]
    fn barrier_forces_rebuild_even_for_associative_lanes() {
        let mm = MaxMin::<Nat>::new();
        let (e0, i0) = chain_batch(5, 9);
        let mut b = IncidenceBuilder::new(e0, i0).unwrap();
        let mut view = AdjacencyView::new(&b, vec![&mm]);
        let (d_out, d_in) = chain_batch(0, 3);
        assert_eq!(b.append_batch(d_out, d_in), Ok(BatchKind::OutOfOrder));
        let report = view.refresh(&b);
        assert_eq!(report.incremental_lanes, 0);
        assert_eq!(report.rebuilt_lanes, 1);
        let full = adjacency_arrays_multi(b.eout(), b.ein(), &[&mm as &dyn DynOpPair<Nat>]);
        assert_eq!(view.lane(0), &full[0]);
    }

    #[test]
    fn plan_generation_stamp_detects_staleness() {
        let (e0, i0) = chain_batch(0, 4);
        let mut b = IncidenceBuilder::new(e0.clone(), i0.clone()).unwrap();
        let plan = adjacency_plan(&e0, &i0).with_generation(b.generation());
        assert_eq!(plan.generation(), 0);
        assert!(!plan.is_stale(b.generation()));
        let (d_out, d_in) = chain_batch(4, 6);
        b.append_batch(d_out, d_in).unwrap();
        assert!(
            plan.is_stale(b.generation()),
            "a plan built before the append must read as stale"
        );
    }
}
