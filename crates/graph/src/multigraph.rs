//! Directed multigraphs with labelled vertices and keyed, weighted
//! edges — the object whose incidence arrays the paper multiplies.

use crate::ingest::{edge_rows, VertexIds};
use aarray_algebra::{BinaryOp, OpPair, Value};
use aarray_core::AArray;
use aarray_sparse::Csr;
use std::collections::BTreeSet;

/// One directed edge: a unique key `k ∈ K`, endpoints, and the values
/// the incidence arrays store at `Eout(k, src)` and `Ein(k, dst)`.
#[derive(Clone, Debug, PartialEq)]
pub struct Edge<V: Value> {
    /// The edge key (unique within the graph).
    pub key: String,
    /// Source vertex.
    pub src: String,
    /// Target vertex.
    pub dst: String,
    /// Value of `Eout(key, src)` — must be nonzero for the pair in use.
    pub wout: V,
    /// Value of `Ein(key, dst)` — must be nonzero for the pair in use.
    pub win: V,
}

/// A directed multigraph: self-loops and parallel edges allowed,
/// exactly as in the Lemma II.2–II.4 gadgets.
///
/// ```
/// use aarray_graph::MultiGraph;
/// use aarray_core::{adjacency_array, theorem::pattern_diff};
/// use aarray_algebra::pairs::PlusTimes;
/// use aarray_algebra::values::nat::Nat;
///
/// let mut g = MultiGraph::new();
/// g.add_edge("e1", "a", "b", Nat(2), Nat(1));
/// g.add_edge("e2", "a", "b", Nat(3), Nat(1)); // parallel edge
///
/// let pair = PlusTimes::<Nat>::new();
/// let (eout, ein) = g.incidence_arrays(&pair);
/// let adj = adjacency_array(&eout, &ein, &pair);
/// assert_eq!(adj.get("a", "b"), Some(&Nat(5))); // 2·1 ⊕ 3·1
/// assert!(pattern_diff(&adj, g.edge_pattern()).is_exact());
/// ```
#[derive(Clone, Debug, Default)]
pub struct MultiGraph<V: Value> {
    vertices: VertexIds,
    /// `(src, dst)` vertex ids of each edge, parallel to `edges`.
    ends: Vec<(u32, u32)>,
    edges: Vec<Edge<V>>,
}

/// Equal when the edge lists match and the vertex sets match, whatever
/// order the vertices were first seen in.
impl<V: Value> PartialEq for MultiGraph<V> {
    fn eq(&self, other: &Self) -> bool {
        self.edges == other.edges && self.vertices == other.vertices
    }
}

impl<V: Value> MultiGraph<V> {
    /// An empty graph.
    pub fn new() -> Self {
        MultiGraph {
            vertices: VertexIds::default(),
            ends: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Add an isolated vertex (no-op if present).
    pub fn add_vertex(&mut self, v: impl Into<String>) {
        self.vertices.id(&v.into());
    }

    /// Add an edge with explicit key and incidence values. Endpoints
    /// are added to the vertex set automatically.
    pub fn add_edge(
        &mut self,
        key: impl Into<String>,
        src: impl Into<String>,
        dst: impl Into<String>,
        wout: V,
        win: V,
    ) {
        let e = Edge {
            key: key.into(),
            src: src.into(),
            dst: dst.into(),
            wout,
            win,
        };
        let ends = (self.vertices.id(&e.src), self.vertices.id(&e.dst));
        self.ends.push(ends);
        self.edges.push(e);
    }

    /// Add an edge with an auto-generated key `e<N>`.
    pub fn add_edge_auto(
        &mut self,
        src: impl Into<String>,
        dst: impl Into<String>,
        wout: V,
        win: V,
    ) {
        let key = format!("e{:08}", self.edges.len());
        self.add_edge(key, src, dst, wout, win);
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// Number of edges (with multiplicity).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The vertices, ascending.
    pub fn vertices(&self) -> impl Iterator<Item = &str> + '_ {
        self.vertices.sorted().into_iter()
    }

    /// The edges in insertion order.
    pub fn edges(&self) -> &[Edge<V>] {
        &self.edges
    }

    /// The distinct `(src, dst)` pairs with at least one edge — the
    /// pattern any valid adjacency array must reproduce
    /// (Definition I.5).
    pub fn edge_pattern(&self) -> BTreeSet<(String, String)> {
        self.edges
            .iter()
            .map(|e| (e.src.clone(), e.dst.clone()))
            .collect()
    }

    /// The reverse graph `Ḡ` (Corollary III.1): directions flipped,
    /// each edge's `wout`/`win` swapped.
    pub fn reverse(&self) -> MultiGraph<V> {
        MultiGraph {
            vertices: self.vertices.clone(),
            ends: self.ends.iter().map(|&(s, d)| (d, s)).collect(),
            edges: self
                .edges
                .iter()
                .map(|e| Edge {
                    key: e.key.clone(),
                    src: e.dst.clone(),
                    dst: e.src.clone(),
                    wout: e.win.clone(),
                    win: e.wout.clone(),
                })
                .collect(),
        }
    }

    /// Extract the incidence arrays `(Eout, Ein)`, both `K × (Kout ∪
    /// Kin)` over the full vertex set so the resulting adjacency array
    /// is square (the common practical convention; the paper's
    /// `Kout`/`Kin` split is recovered by column selection).
    ///
    /// Values equal to the pair's zero are rejected: Definition I.4
    /// requires `Eout(k, a) ≠ 0` exactly at incidences. Duplicate edge
    /// keys are rejected too.
    ///
    /// Each edge row holds exactly one nonzero, so both arrays are
    /// assembled directly in CSR form: row `r` is the `r`-th smallest
    /// edge key, and its one column is the rank of the endpoint's name.
    pub fn incidence_arrays<A, M>(&self, pair: &OpPair<V, A, M>) -> (AArray<V>, AArray<V>)
    where
        A: BinaryOp<V>,
        M: BinaryOp<V>,
    {
        let m = self.edges.len();
        let (edge_keys, order) = edge_rows(m, |i| self.edges[i].key.as_str());
        let (vertex_keys, rank) = self.vertices.ranked();

        let (mut out_cols, mut out_vals) = (Vec::with_capacity(m), Vec::with_capacity(m));
        let (mut in_cols, mut in_vals) = (Vec::with_capacity(m), Vec::with_capacity(m));
        for &i in &order {
            let e = &self.edges[i as usize];
            assert!(
                !pair.is_zero(&e.wout) && !pair.is_zero(&e.win),
                "edge {} carries a zero incidence value for pair {}",
                e.key,
                pair.name()
            );
            let (s, d) = self.ends[i as usize];
            out_cols.push(rank[s as usize]);
            out_vals.push(e.wout.clone());
            in_cols.push(rank[d as usize]);
            in_vals.push(e.win.clone());
        }

        let n = vertex_keys.len();
        let one_per_row = |cols, vals| Csr::from_parts(m, n, (0..=m).collect(), cols, vals);
        let eout = AArray::from_parts(
            edge_keys.clone(),
            vertex_keys.clone(),
            one_per_row(out_cols, out_vals),
        );
        let ein = AArray::from_parts(edge_keys, vertex_keys, one_per_row(in_cols, in_vals));
        (eout, ein)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aarray_algebra::pairs::PlusTimes;
    use aarray_algebra::values::nat::Nat;
    use aarray_core::adjacency_array;

    fn triangle() -> MultiGraph<Nat> {
        let mut g = MultiGraph::new();
        g.add_edge("e1", "a", "b", Nat(1), Nat(1));
        g.add_edge("e2", "b", "c", Nat(1), Nat(1));
        g.add_edge("e3", "c", "a", Nat(1), Nat(1));
        g
    }

    #[test]
    fn construction_and_counts() {
        let g = triangle();
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.vertices().collect::<Vec<_>>(), vec!["a", "b", "c"]);
    }

    #[test]
    fn incidence_dimensions() {
        let pair = PlusTimes::<Nat>::new();
        let (eout, ein) = triangle().incidence_arrays(&pair);
        assert_eq!(eout.shape(), (3, 3));
        assert_eq!(ein.shape(), (3, 3));
        assert_eq!(eout.get("e1", "a"), Some(&Nat(1)));
        assert_eq!(ein.get("e1", "b"), Some(&Nat(1)));
        assert_eq!(eout.get("e1", "b"), None);
    }

    #[test]
    fn adjacency_from_incidence_matches_pattern() {
        let pair = PlusTimes::<Nat>::new();
        let g = triangle();
        let (eout, ein) = g.incidence_arrays(&pair);
        let a = adjacency_array(&eout, &ein, &pair);
        let diff = aarray_core::theorem::pattern_diff(&a, g.edge_pattern());
        assert!(diff.is_exact());
    }

    #[test]
    fn reverse_flips_edges_and_weights() {
        let mut g: MultiGraph<Nat> = MultiGraph::new();
        g.add_edge("e", "x", "y", Nat(2), Nat(5));
        let r = g.reverse();
        let e = &r.edges()[0];
        assert_eq!((e.src.as_str(), e.dst.as_str()), ("y", "x"));
        assert_eq!((e.wout, e.win), (Nat(5), Nat(2)));
        assert_eq!(r.reverse(), g);
    }

    #[test]
    fn isolated_vertices_survive_into_incidence_columns() {
        let pair = PlusTimes::<Nat>::new();
        let mut g = triangle();
        g.add_vertex("zz_lonely");
        let (eout, _) = g.incidence_arrays(&pair);
        assert_eq!(eout.shape(), (3, 4));
        assert!(eout.col_keys().contains("zz_lonely"));
    }

    #[test]
    #[should_panic(expected = "zero incidence value")]
    fn zero_weight_edge_rejected() {
        let pair = PlusTimes::<Nat>::new();
        let mut g = MultiGraph::new();
        g.add_edge("e", "a", "b", Nat(0), Nat(1));
        let _ = g.incidence_arrays(&pair);
    }

    #[test]
    #[should_panic(expected = "unique")]
    fn duplicate_edge_keys_rejected() {
        let pair = PlusTimes::<Nat>::new();
        let mut g = MultiGraph::new();
        g.add_edge("e", "a", "b", Nat(1), Nat(1));
        g.add_edge("e", "b", "c", Nat(1), Nat(1));
        let _ = g.incidence_arrays(&pair);
    }

    #[test]
    #[should_panic(expected = "unique")]
    fn non_adjacent_duplicate_edge_keys_rejected() {
        // The keys are out of order, so the sort runs and must still
        // catch the duplicate it brings together.
        let pair = PlusTimes::<Nat>::new();
        let mut g = MultiGraph::new();
        g.add_edge("b", "a", "b", Nat(1), Nat(1));
        g.add_edge("a", "b", "c", Nat(1), Nat(1));
        g.add_edge("b", "c", "a", Nat(1), Nat(1));
        let _ = g.incidence_arrays(&pair);
    }

    #[test]
    fn equality_ignores_vertex_arrival_order() {
        let mut g: MultiGraph<Nat> = MultiGraph::new();
        g.add_vertex("z");
        g.add_edge("e", "a", "b", Nat(1), Nat(1));
        let mut h: MultiGraph<Nat> = MultiGraph::new();
        h.add_edge("e", "a", "b", Nat(1), Nat(1));
        h.add_vertex("z");
        assert_eq!(g, h);
        h.add_vertex("y");
        assert_ne!(g, h);
    }

    #[test]
    fn auto_keys_are_unique_and_ordered() {
        let mut g: MultiGraph<Nat> = MultiGraph::new();
        g.add_edge_auto("a", "b", Nat(1), Nat(1));
        g.add_edge_auto("b", "c", Nat(1), Nat(1));
        assert_eq!(g.edges()[0].key, "e00000000");
        assert_eq!(g.edges()[1].key, "e00000001");
    }
}
