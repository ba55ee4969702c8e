//! Differential check of `MultiGraph::incidence_arrays`: on random
//! graphs, the directly assembled incidence CSRs must equal the arrays
//! the string-triple path builds from the same edges and vertices
//! (`AArray::from_triples_with_keys` over `edges()` and `vertices()`).
//!
//! The graphs mix everything the direct path special-cases or could
//! get wrong: edge keys in ascending and shuffled order, self-loops and
//! parallel edges, isolated vertices added before and after the edges,
//! and `NN` float weights as well as `Nat` ones.

use aarray_algebra::pairs::{MaxMin, PlusTimes};
use aarray_algebra::values::nat::Nat;
use aarray_algebra::values::nn::{nn, NN};
use aarray_algebra::{BinaryOp, OpPair, Value};
use aarray_core::{AArray, KeySet};
use aarray_graph::MultiGraph;
use proptest::prelude::*;

/// One random graph: edges as `(src, dst, wout, win)` over a few
/// vertices (so self-loops and parallel edges are common), a count of
/// isolated vertices, and per-edge sort keys that shuffle the edge-key
/// order when `shuffle` is set.
type Spec<W> = (Vec<(u32, u32, W, W)>, usize, bool, Vec<u64>);

fn arb_spec<W: std::fmt::Debug>(
    weight: impl Strategy<Value = W> + Clone,
) -> impl Strategy<Value = Spec<W>> {
    (1u32..6).prop_flat_map(move |n| {
        (
            prop::collection::vec((0..n, 0..n, weight.clone(), weight.clone()), 0..24),
            0usize..3,
            0u32..2,
            prop::collection::vec(0u64..1_000_000, 24),
        )
            .prop_map(|(edges, isolated, shuffle, sort_keys)| {
                (edges, isolated, shuffle == 1, sort_keys)
            })
    })
}

fn build<V: Value>(spec: &Spec<V>) -> MultiGraph<V> {
    let (edges, isolated, shuffle, sort_keys) = spec;
    // Edge `i` gets key number `slot[i]`: `i` itself, or its position
    // after sorting by the random sort keys.
    let mut slot: Vec<usize> = (0..edges.len()).collect();
    if *shuffle {
        let mut by_key: Vec<usize> = (0..edges.len()).collect();
        by_key.sort_by_key(|&i| (sort_keys[i], i));
        for (pos, &i) in by_key.iter().enumerate() {
            slot[i] = pos;
        }
    }
    let mut g = MultiGraph::new();
    g.add_vertex("lonely-first");
    for (i, (s, d, wout, win)) in edges.iter().enumerate() {
        g.add_edge(
            format!("e{:03}", slot[i]),
            format!("v{}", s),
            format!("v{}", d),
            wout.clone(),
            win.clone(),
        );
    }
    for k in 0..*isolated {
        g.add_vertex(format!("lonely{}", k));
    }
    g
}

/// The string-triple construction the direct path replaced.
fn reference<V, A, M>(g: &MultiGraph<V>, pair: &OpPair<V, A, M>) -> (AArray<V>, AArray<V>)
where
    V: Value,
    A: BinaryOp<V>,
    M: BinaryOp<V>,
{
    let edge_keys = KeySet::from_iter(g.edges().iter().map(|e| e.key.clone()));
    let vertex_keys = KeySet::from_iter(g.vertices().map(str::to_string));
    let side = |end: fn(&aarray_graph::Edge<V>) -> (&String, &V)| {
        AArray::from_triples_with_keys(
            pair,
            edge_keys.clone(),
            vertex_keys.clone(),
            g.edges()
                .iter()
                .map(|e| {
                    let (v, w) = end(e);
                    (e.key.clone(), v.clone(), w.clone())
                })
                .collect::<Vec<_>>(),
        )
    };
    (side(|e| (&e.src, &e.wout)), side(|e| (&e.dst, &e.win)))
}

fn check<V, A, M>(spec: &Spec<V>, pair: &OpPair<V, A, M>) -> Result<(), String>
where
    V: Value,
    A: BinaryOp<V>,
    M: BinaryOp<V>,
{
    let g = build(spec);
    let (eout, ein) = g.incidence_arrays(pair);
    let (want_out, want_in) = reference(&g, pair);
    prop_assert_eq!(eout.shape(), (g.edge_count(), g.vertex_count()));
    prop_assert_eq!(eout.nnz(), g.edge_count());
    prop_assert_eq!(&eout, &want_out);
    prop_assert_eq!(&ein, &want_in);
    Ok(())
}

proptest! {
    #[test]
    fn direct_incidence_matches_triples_nn(spec in arb_spec(1u32..10_000)) {
        // Awkward float weights: any mix-up of rows or columns changes bits.
        let (edges, isolated, shuffle, sort_keys) = spec;
        let edges: Vec<(u32, u32, NN, NN)> = edges
            .into_iter()
            .map(|(s, d, a, b)| (s, d, nn(a as f64 * 0.37 + 0.001), nn(b as f64 / 7.0)))
            .collect();
        check(&(edges, isolated, shuffle, sort_keys), &PlusTimes::<NN>::new())?;
    }

    #[test]
    fn direct_incidence_matches_triples_nat(spec in arb_spec(1u64..5)) {
        let (edges, isolated, shuffle, sort_keys) = spec;
        let edges: Vec<(u32, u32, Nat, Nat)> = edges
            .into_iter()
            .map(|(s, d, a, b)| (s, d, Nat(a), Nat(b)))
            .collect();
        check(&(edges, isolated, shuffle, sort_keys), &MaxMin::<Nat>::new())?;
    }
}
