//! Property-based tests for incremental adjacency maintenance and the
//! `KeySet::intersect` / `KeySet::union` fast paths.
//!
//! Random incidence pairs are cut at random row points and replayed
//! through [`IncidenceBuilder`] / [`AdjacencyView`]; for every one of
//! the paper's seven `⊕.⊗` pairs the refreshed lanes must equal the
//! one-shot batch rebuild — bit-identically on the ⊕-associative
//! pairs' delta path, and via the counted full-rebuild fallback for
//! `+.×` over NN (float `+` is not associative). Each block carries only
//! the vertices its own rows touch, so appends and refreshes keep
//! growing the vertex key sets and the column-remap paths are fuzzed.

use aarray_algebra::pairs::{MaxMin, MaxPlus, MaxTimes, MinMax, MinPlus, MinTimes, PlusTimes};
use aarray_algebra::values::nn::{nn, NN};
use aarray_algebra::values::tropical::{trop, Tropical};
use aarray_algebra::DynOpPair;
use aarray_core::incremental::{AdjacencyView, BatchKind, IncidenceBuilder};
use aarray_core::{adjacency_plan, AArray, KeySet};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn edge_key(i: usize) -> String {
    format!("e{:03}", i)
}

fn vert_key(i: usize) -> String {
    format!("v{:03}", i)
}

/// Vertices the random incidence triples draw from.
const N_VERTS: usize = 12;

/// A random incidence pair over `n` edges plus random interior row
/// cuts: `(n, eout_triples, ein_triples, cuts)`.
type Spec = (
    usize,
    Vec<(usize, usize, u32)>,
    Vec<(usize, usize, u32)>,
    Vec<usize>,
);

fn arb_spec() -> impl Strategy<Value = Spec> {
    (4usize..16).prop_flat_map(|n| {
        (
            Just(n),
            prop::collection::vec((0..n, 0..N_VERTS, 1u32..9), 1..48),
            prop::collection::vec((0..n, 0..N_VERTS, 1u32..9), 1..48),
            prop::collection::vec(1..n, 0..4),
        )
    })
}

/// The rows `lo..hi` of an incidence side, with the row range kept as
/// explicit keys (a row may have entries on one side only — both
/// blocks of a pair must still agree on their edge keys) and only the
/// vertices those rows touch as columns.
fn block(triples: &[(usize, usize, u32)], lo: usize, hi: usize) -> AArray<NN> {
    let pt = PlusTimes::<NN>::new();
    let rows: Vec<&(usize, usize, u32)> = triples
        .iter()
        .filter(|(r, _, _)| (lo..hi).contains(r))
        .collect();
    AArray::from_triples_with_keys(
        &pt,
        KeySet::from_iter((lo..hi).map(edge_key)),
        KeySet::from_iter(rows.iter().map(|&&(_, c, _)| vert_key(c))),
        rows.iter()
            .map(|&&(r, c, w)| (edge_key(r), vert_key(c), nn(f64::from(w) * 0.5))),
    )
}

/// Sorted, deduplicated interior cut points → the chunk boundaries
/// `[0, c1, .., n]`.
fn bounds(n: usize, cuts: &[usize]) -> Vec<usize> {
    let mut b: Vec<usize> = cuts
        .iter()
        .copied()
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    b.insert(0, 0);
    b.push(n);
    b
}

fn to_tropical(a: &AArray<NN>) -> AArray<Tropical> {
    a.map_prune(&MaxPlus::<Tropical>::new(), |v: &NN| trop(v.get()))
}

/// Replay `spec`'s chunks in order, refreshing after every append
/// (`eager`) or once at the end, and check the five ⊕-associative NN
/// lanes, the `+.×` fallback lane and the tropical `max.+` lane against
/// the one-shot rebuild.
fn ordered_replay_matches_rebuild(spec: &Spec, eager: bool) -> Result<(), String> {
    let (n, out_t, in_t, cuts) = spec;
    let (n, b) = (*n, bounds(*n, cuts));

    let plus_times = PlusTimes::<NN>::new();
    let max_times = MaxTimes::<NN>::new();
    let min_times = MinTimes::<NN>::new();
    let min_plus = MinPlus::<NN>::new();
    let max_min = MaxMin::<NN>::new();
    let min_max = MinMax::<NN>::new();
    let pairs: [&dyn DynOpPair<NN>; 6] = [
        &plus_times,
        &max_times,
        &min_times,
        &min_plus,
        &max_min,
        &min_max,
    ];
    let mp = MaxPlus::<Tropical>::new();

    let fallback_before = aarray_obs::snapshot().get(aarray_obs::Counter::IncrementalFallback);

    let mut builder =
        IncidenceBuilder::new(block(out_t, b[0], b[1]), block(in_t, b[0], b[1])).unwrap();
    let mut view = AdjacencyView::new(&builder, pairs.to_vec());
    let mut t_builder = IncidenceBuilder::new(
        to_tropical(&block(out_t, b[0], b[1])),
        to_tropical(&block(in_t, b[0], b[1])),
    )
    .unwrap();
    let mut t_view = AdjacencyView::new(&t_builder, vec![&mp as &dyn DynOpPair<Tropical>]);
    let (mut applied, mut t_applied) = (0, 0);
    for w in b.windows(2).skip(1) {
        let (d_out, d_in) = (block(out_t, w[0], w[1]), block(in_t, w[0], w[1]));
        let (t_out, t_in) = (to_tropical(&d_out), to_tropical(&d_in));
        prop_assert_eq!(
            builder.append_batch(d_out, d_in).unwrap(),
            BatchKind::Ordered
        );
        t_builder.append_batch(t_out, t_in).unwrap();
        if eager {
            let report = view.refresh(&builder);
            prop_assert_eq!(
                (
                    report.incremental_lanes,
                    report.rebuilt_lanes,
                    report.batches_applied
                ),
                (5, 1, 1)
            );
            applied += report.batches_applied;
            let t_report = t_view.refresh(&t_builder);
            prop_assert_eq!((t_report.incremental_lanes, t_report.rebuilt_lanes), (1, 0));
            t_applied += t_report.batches_applied;
        }
    }
    let report = view.refresh(&builder);
    let t_report = t_view.refresh(&t_builder);
    applied += report.batches_applied;
    t_applied += t_report.batches_applied;

    let n_batches = b.len() - 2;
    prop_assert_eq!((applied, t_applied), (n_batches, n_batches));
    if n_batches > 0 {
        if !eager {
            prop_assert_eq!((report.incremental_lanes, report.rebuilt_lanes), (5, 1));
            prop_assert_eq!((t_report.incremental_lanes, t_report.rebuilt_lanes), (1, 0));
        }
        // The +.× fallback is counted (global counter: monotone, so ≥
        // is safe under concurrent tests).
        let fallback_now = aarray_obs::snapshot().get(aarray_obs::Counter::IncrementalFallback);
        prop_assert!(fallback_now > fallback_before);
    } else {
        prop_assert!(!report.did_work());
    }

    let full_out = block(out_t, 0, n);
    let full_in = block(in_t, 0, n);
    prop_assert_eq!(builder.eout(), &full_out);
    prop_assert_eq!(builder.ein(), &full_in);
    let rebuilt = adjacency_plan(&full_out, &full_in).execute_all(&pairs);
    for (i, full) in rebuilt.iter().enumerate() {
        prop_assert_eq!(view.lane(i), full, "NN lane {} diverged", i);
    }
    // The seventh paper pair, max.+ on the tropical carrier: ⊕ is max,
    // associative, so its lane goes incremental too.
    let t_full = adjacency_plan(&to_tropical(&full_out), &to_tropical(&full_in)).execute(&mp);
    prop_assert_eq!(t_view.lane(0), &t_full);
    Ok(())
}

proptest! {
    /// Ordered row splits, refreshed once after all appends: the five
    /// ⊕-associative NN lanes and the tropical max.+ lane all take the
    /// delta path and land bit-identically on the one-shot rebuild;
    /// +.× over NN degrades to the counted fallback but must still
    /// agree.
    #[test]
    fn ordered_splits_match_one_shot_rebuild(spec in arb_spec()) {
        ordered_replay_matches_rebuild(&spec, false)?;
    }

    /// The same splits with a refresh after every append, so each
    /// batch's new vertices grow the cached lanes one splice at a time.
    #[test]
    fn refresh_after_every_append_matches_one_shot_rebuild(spec in arb_spec()) {
        ordered_replay_matches_rebuild(&spec, true)?;
    }

    /// Appending chunks newest-first interleaves edge keys: every
    /// append after the first is out of order, the log holds barriers,
    /// and refresh must rebuild all lanes — yet still agree with the
    /// one-shot rebuild.
    #[test]
    fn out_of_order_appends_rebuild_and_still_agree(spec in arb_spec()) {
        let (n, out_t, in_t, cuts) = spec;
        let b = bounds(n, &cuts);
        if b.len() < 3 {
            return Ok(()); // no interior cut: nothing to interleave
        }

        let max_min = MaxMin::<NN>::new();
        let min_plus = MinPlus::<NN>::new();
        let pairs: [&dyn DynOpPair<NN>; 2] = [&max_min, &min_plus];

        // Seed with the *last* chunk, then append earlier ones.
        let last = b.len() - 2;
        let mut builder = IncidenceBuilder::new(
            block(&out_t, b[last], b[last + 1]),
            block(&in_t, b[last], b[last + 1]),
        ).unwrap();
        let mut view = AdjacencyView::new(&builder, pairs.to_vec());
        for w in b.windows(2).take(last).rev() {
            let kind = builder
                .append_batch(block(&out_t, w[0], w[1]), block(&in_t, w[0], w[1]))
                .unwrap();
            prop_assert_eq!(kind, BatchKind::OutOfOrder);
        }
        let report = view.refresh(&builder);
        prop_assert_eq!((report.incremental_lanes, report.rebuilt_lanes), (0, 2));

        let full_out = block(&out_t, 0, n);
        let full_in = block(&in_t, 0, n);
        prop_assert_eq!(builder.eout(), &full_out);
        prop_assert_eq!(builder.ein(), &full_in);
        let rebuilt = adjacency_plan(&full_out, &full_in).execute_all(&pairs);
        for (i, full) in rebuilt.iter().enumerate() {
            prop_assert_eq!(view.lane(i), full, "lane {} diverged", i);
        }

        // Past the barrier, an ordered batch that brings a fresh vertex
        // on each side replays incrementally again.
        let extra = [(n, 0, 3), (n, N_VERTS, 5), (n + 1, N_VERTS + 1, 2)];
        builder
            .append_batch(block(&extra, n, n + 2), block(&extra, n, n + 2))
            .unwrap();
        let report = view.refresh(&builder);
        prop_assert_eq!((report.incremental_lanes, report.rebuilt_lanes), (2, 0));
        let rebuilt = adjacency_plan(builder.eout(), builder.ein()).execute_all(&pairs);
        for (i, full) in rebuilt.iter().enumerate() {
            prop_assert_eq!(view.lane(i), full, "lane {} diverged past the barrier", i);
        }
    }

    /// `KeySet::intersect` against an independent `BTreeSet` oracle:
    /// sorted, duplicate-free keys and index maps that point back at
    /// the right positions in both operands.
    #[test]
    fn intersect_matches_set_oracle(
        a_idx in prop::collection::vec(0usize..24, 0..16),
        b_idx in prop::collection::vec(0usize..24, 0..16),
    ) {
        let a = KeySet::from_iter(a_idx.iter().map(|&i| vert_key(i)));
        let bset = KeySet::from_iter(b_idx.iter().map(|&i| vert_key(i)));
        let (both, ia, ib) = a.intersect(&bset);

        let oracle: BTreeSet<String> = a_idx
            .iter()
            .copied()
            .filter(|i| b_idx.contains(i))
            .map(vert_key)
            .collect();
        let got: Vec<&String> = both.keys().iter().collect();
        prop_assert_eq!(got, oracle.iter().collect::<Vec<_>>());
        prop_assert!(both.keys().windows(2).all(|w| w[0] < w[1]), "sorted, duplicate-free");

        prop_assert_eq!(ia.len(), both.len());
        prop_assert_eq!(ib.len(), both.len());
        for (k, (&i, &j)) in both.keys().iter().zip(ia.iter().zip(&ib)) {
            prop_assert_eq!(a.key(i), k.as_str());
            prop_assert_eq!(bset.key(j), k.as_str());
        }
    }

    /// `KeySet::union` against a `BTreeSet` oracle, both when the rank
    /// ranges are disjoint (the id-concatenation fast path, in either
    /// argument order) and when they overlap (the merge walk).
    #[test]
    fn union_matches_set_oracle(
        a_idx in prop::collection::vec(0usize..24, 0..16),
        b_idx in prop::collection::vec(0usize..24, 0..16),
        disjoint in prop_oneof![Just(false), Just(true)],
    ) {
        let b_key = |i: usize| if disjoint { format!("w{:03}", i) } else { vert_key(i) };
        let a = KeySet::from_iter(a_idx.iter().map(|&i| vert_key(i)));
        let bset = KeySet::from_iter(b_idx.iter().map(|&i| b_key(i)));
        let oracle: Vec<String> = a_idx
            .iter()
            .map(|&i| vert_key(i))
            .chain(b_idx.iter().map(|&i| b_key(i)))
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let (ab, ba) = (a.union(&bset), bset.union(&a));
        prop_assert_eq!(ab.keys(), &oracle[..]);
        prop_assert_eq!(ba.keys(), &oracle[..]);
        prop_assert_eq!(&ab, &KeySet::from_iter(oracle.iter().cloned()));
    }

    /// The three non-merge fast paths — shared storage, empty /
    /// prefix-extended sets, and disjoint key ranges — must agree with
    /// the general merge result and be visibly counted.
    #[test]
    fn intersect_fast_paths_agree_and_are_counted(
        idx in prop::collection::vec(0usize..24, 1..16),
        extra in prop::collection::vec(0usize..8, 0..6),
    ) {
        use aarray_obs::Counter::{
            IntersectArcIdentity, IntersectDisjointRange, IntersectPrefix,
        };
        let count = |c: aarray_obs::Counter| aarray_obs::snapshot().get(c);

        // Shared storage: a clone intersects via pointer identity.
        let a = KeySet::from_iter(idx.iter().map(|&i| vert_key(i)));
        let before = count(IntersectArcIdentity);
        let (same, ia, ib) = a.intersect(&a.clone());
        prop_assert_eq!(&same, &a);
        prop_assert_eq!(&ia, &ib);
        prop_assert_eq!(ia, (0..a.len()).collect::<Vec<_>>());
        prop_assert!(count(IntersectArcIdentity) > before);

        // Empty and extended sets take the prefix probe: the overlap
        // is exactly the shorter set, in both argument orders.
        let empty = KeySet::empty();
        let before = count(IntersectPrefix);
        prop_assert!(a.intersect(&empty).0.is_empty());
        prop_assert!(empty.intersect(&a).0.is_empty());
        let extended = KeySet::from_iter(
            a.keys()
                .iter()
                .cloned()
                .chain(extra.iter().map(|&i| format!("w{:03}", i))),
        );
        let (common, ia, ib) = a.intersect(&extended);
        prop_assert_eq!(&common, &a);
        prop_assert_eq!(&ia, &ib);
        prop_assert!(count(IntersectPrefix) >= before + 3);

        // Disjoint key ranges short-circuit to the empty overlap.
        let shifted = KeySet::from_iter(idx.iter().map(|&i| format!("x{:03}", i)));
        let before = count(IntersectDisjointRange);
        let (none, _, _) = a.intersect(&shifted);
        prop_assert!(none.is_empty());
        prop_assert!(count(IntersectDisjointRange) > before);
    }
}

/// A delta-apply ledger record carries the dispatch verdict of the
/// batch plans it ran, and each batch makes exactly one recorded
/// dispatch decision. Run under `AARRAY_NUM_THREADS=2` with
/// `AARRAY_PAR_FLOPS_THRESHOLD=1` the verdict must read "parallel";
/// on a 1-thread pool, or under the default threshold (these batches
/// fold 3 terms each), it must read "serial".
#[test]
fn delta_apply_record_carries_the_plan_dispatch() {
    use aarray_obs::{intern_label, journal, oplog, workload_label, EventKind, OpKind};

    let max_min = MaxMin::<NN>::new();
    let chain = |lo: usize, hi: usize| {
        let trips = |shift: usize| -> Vec<(usize, usize, u32)> {
            (lo..hi).map(|i| (i, (i + shift) % N_VERTS, 1)).collect()
        };
        (block(&trips(0), lo, hi), block(&trips(1), lo, hi))
    };
    let (e0, i0) = chain(0, 3);
    let mut builder = IncidenceBuilder::new(e0, i0).unwrap();
    let mut view = AdjacencyView::new(&builder, vec![&max_min as &dyn DynOpPair<NN>]);
    for (lo, hi) in [(3, 6), (6, 9)] {
        let (d_out, d_in) = chain(lo, hi);
        builder.append_batch(d_out, d_in).unwrap();
    }

    let label = "delta-dispatch-probe";
    let cursor = oplog().cursor();
    {
        let _label = workload_label(label);
        let report = view.refresh(&builder);
        assert_eq!((report.incremental_lanes, report.batches_applied), (1, 2));
    }

    let snap = oplog().snapshot();
    let label_id = intern_label(label);
    let records: Vec<_> = snap
        .since(cursor)
        .iter()
        .filter(|r| r.label == label_id && r.kind == OpKind::DeltaApply)
        .collect();
    assert_eq!(records.len(), 1, "one refresh, one delta-apply record");
    let r = records[0];

    let threads = rayon::current_num_threads();
    let expect_parallel =
        aarray_core::would_parallelize(3, aarray_core::parallel_flops_threshold(), threads);
    let verdict = |p: bool| if p { "parallel" } else { "serial" };
    assert_eq!(
        verdict(r.parallel),
        verdict(expect_parallel),
        "{} threads, threshold {}: {:?}",
        threads,
        aarray_core::parallel_flops_threshold(),
        r
    );
    assert_eq!(r.pool_threads, threads as u64, "{:?}", r);

    let decisions = journal()
        .scan_window(r.seq_start, r.seq_end)
        .iter()
        .filter(|e| e.op == r.id)
        .filter(|e| {
            matches!(
                e.kind,
                EventKind::DispatchSerial | EventKind::DispatchParallel
            )
        })
        .count();
    assert_eq!(decisions, 2, "one recorded dispatch decision per batch");
}
