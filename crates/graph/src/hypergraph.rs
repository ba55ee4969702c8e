//! Directed hypergraphs — the generalization incidence arrays support
//! natively and adjacency arrays cannot express directly.
//!
//! A hyperedge `k` has a *set* of sources and a *set* of targets;
//! `Eout(k, ·)` and `Ein(k, ·)` simply have several nonzeros in row
//! `k`. Theorem II.1 applies verbatim: under a compliant pair,
//! `(EᵀoutEin)(a, b) ≠ 0` iff some hyperedge has `a` among its sources
//! and `b` among its targets — each hyperedge contributes a complete
//! bipartite `sources × targets` block to the adjacency pattern. This
//! is the paper's machinery doing something the edge-list baseline
//! cannot do without first materializing that quadratic expansion.

use crate::ingest::{edge_rows, VertexIds};
use aarray_algebra::{BinaryOp, OpPair, Value};
use aarray_core::AArray;
use aarray_sparse::Coo;
use std::collections::BTreeSet;

/// One directed hyperedge: a key, weighted sources, weighted targets.
#[derive(Clone, Debug, PartialEq)]
pub struct HyperEdge<V: Value> {
    /// Unique edge key.
    pub key: String,
    /// Source vertices with their `Eout` values.
    pub sources: Vec<(String, V)>,
    /// Target vertices with their `Ein` values.
    pub targets: Vec<(String, V)>,
}

/// A directed hypergraph.
#[derive(Clone, Debug, Default)]
pub struct HyperGraph<V: Value> {
    vertices: VertexIds,
    /// Source and target vertex ids of each hyperedge, parallel to
    /// `edges`.
    ends: Vec<(Vec<u32>, Vec<u32>)>,
    edges: Vec<HyperEdge<V>>,
}

/// Equal when the hyperedges match and the vertex sets match, whatever
/// order the vertices were first seen in.
impl<V: Value> PartialEq for HyperGraph<V> {
    fn eq(&self, other: &Self) -> bool {
        self.edges == other.edges && self.vertices == other.vertices
    }
}

impl<V: Value> HyperGraph<V> {
    /// An empty hypergraph.
    pub fn new() -> Self {
        HyperGraph {
            vertices: VertexIds::default(),
            ends: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Add an isolated vertex.
    pub fn add_vertex(&mut self, v: impl Into<String>) {
        self.vertices.id(&v.into());
    }

    /// Add a hyperedge. Sources and targets must be non-empty.
    pub fn add_edge(
        &mut self,
        key: impl Into<String>,
        sources: Vec<(String, V)>,
        targets: Vec<(String, V)>,
    ) {
        assert!(
            !sources.is_empty() && !targets.is_empty(),
            "hyperedge needs sources and targets"
        );
        let mut ids = |side: &[(String, V)]| -> Vec<u32> {
            side.iter().map(|(v, _)| self.vertices.id(v)).collect()
        };
        let ends = (ids(&sources), ids(&targets));
        self.ends.push(ends);
        self.edges.push(HyperEdge {
            key: key.into(),
            sources,
            targets,
        });
    }

    /// Number of hyperedges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// The hyperedges.
    pub fn edges(&self) -> &[HyperEdge<V>] {
        &self.edges
    }

    /// The pairwise adjacency pattern: `(a, b)` for every hyperedge
    /// with `a` among its sources and `b` among its targets — the
    /// quadratic expansion the adjacency array must reproduce.
    pub fn edge_pattern(&self) -> BTreeSet<(String, String)> {
        let mut pat = BTreeSet::new();
        for e in &self.edges {
            for (s, _) in &e.sources {
                for (t, _) in &e.targets {
                    pat.insert((s.clone(), t.clone()));
                }
            }
        }
        pat
    }

    /// Extract `(Eout, Ein)` over the full vertex set. Duplicate
    /// mentions of a vertex within one edge side combine with `⊕`;
    /// zero values are rejected.
    pub fn incidence_arrays<A, M>(&self, pair: &OpPair<V, A, M>) -> (AArray<V>, AArray<V>)
    where
        A: BinaryOp<V>,
        M: BinaryOp<V>,
    {
        let m = self.edges.len();
        let (edge_keys, order) = edge_rows(m, |i| self.edges[i].key.as_str());
        let (vertex_keys, rank) = self.vertices.ranked();

        let n = vertex_keys.len();
        let (mut out_coo, mut in_coo) = (Coo::new(m, n), Coo::new(m, n));
        for (row, &i) in order.iter().enumerate() {
            let e = &self.edges[i as usize];
            let (src_ids, dst_ids) = &self.ends[i as usize];
            for ((_, w), &v) in e.sources.iter().zip(src_ids) {
                assert!(!pair.is_zero(w), "zero source incidence on {}", e.key);
                out_coo.push(row, rank[v as usize] as usize, w.clone());
            }
            for ((_, w), &v) in e.targets.iter().zip(dst_ids) {
                assert!(!pair.is_zero(w), "zero target incidence on {}", e.key);
                in_coo.push(row, rank[v as usize] as usize, w.clone());
            }
        }
        let eout = AArray::from_parts(
            edge_keys.clone(),
            vertex_keys.clone(),
            out_coo.into_csr(pair),
        );
        let ein = AArray::from_parts(edge_keys, vertex_keys, in_coo.into_csr(pair));
        (eout, ein)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aarray_algebra::pairs::{MaxMin, PlusTimes};
    use aarray_algebra::values::nat::Nat;
    use aarray_core::{adjacency_array, theorem::pattern_diff};

    fn w(v: &str, x: u64) -> (String, Nat) {
        (v.to_string(), Nat(x))
    }

    #[test]
    fn hyperedge_becomes_a_bipartite_block() {
        // One meeting: {alice, bob} inform {carol, dave, erin}.
        let pair = PlusTimes::<Nat>::new();
        let mut h = HyperGraph::new();
        h.add_edge(
            "meeting1",
            vec![w("alice", 1), w("bob", 1)],
            vec![w("carol", 1), w("dave", 1), w("erin", 1)],
        );
        let (eout, ein) = h.incidence_arrays(&pair);
        assert_eq!(eout.shape(), (1, 5));
        let a = adjacency_array(&eout, &ein, &pair);
        assert_eq!(a.nnz(), 6); // 2 × 3 block
        assert!(pattern_diff(&a, h.edge_pattern()).is_exact());
        assert_eq!(a.get("alice", "dave"), Some(&Nat(1)));
        assert_eq!(a.get("carol", "alice"), None);
    }

    #[test]
    fn overlapping_hyperedges_aggregate() {
        let pair = PlusTimes::<Nat>::new();
        let mut h = HyperGraph::new();
        h.add_edge("e1", vec![w("a", 1)], vec![w("x", 1), w("y", 1)]);
        h.add_edge("e2", vec![w("a", 1), w("b", 1)], vec![w("x", 1)]);
        let (eout, ein) = h.incidence_arrays(&pair);
        let a = adjacency_array(&eout, &ein, &pair);
        // a→x via both hyperedges: 1·1 ⊕ 1·1 = 2.
        assert_eq!(a.get("a", "x"), Some(&Nat(2)));
        assert_eq!(a.get("b", "x"), Some(&Nat(1)));
        assert_eq!(a.get("b", "y"), None);
        assert!(pattern_diff(&a, h.edge_pattern()).is_exact());
    }

    #[test]
    fn weighted_hyperedges_under_max_min() {
        let pair = MaxMin::<Nat>::new();
        let mut h = HyperGraph::new();
        h.add_edge("broad", vec![w("hub", 5)], vec![w("t1", 9), w("t2", 2)]);
        let (eout, ein) = h.incidence_arrays(&pair);
        let a = adjacency_array(&eout, &ein, &pair);
        assert_eq!(a.get("hub", "t1"), Some(&Nat(5))); // min(5, 9)
        assert_eq!(a.get("hub", "t2"), Some(&Nat(2))); // min(5, 2)
    }

    #[test]
    fn duplicate_vertex_mentions_combine() {
        let pair = PlusTimes::<Nat>::new();
        let mut h = HyperGraph::new();
        h.add_edge("e", vec![w("a", 2), w("a", 3)], vec![w("b", 1)]);
        let (eout, _) = h.incidence_arrays(&pair);
        assert_eq!(eout.get("e", "a"), Some(&Nat(5)));
    }

    #[test]
    fn random_hypergraphs_have_exact_patterns() {
        // Mini property test: deterministic pseudo-random hypergraphs,
        // pattern always exact under a compliant pair.
        let pair = PlusTimes::<Nat>::new();
        let mut x = 99u64;
        let mut next = |m: u64| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) % m
        };
        for trial in 0..20 {
            let mut h = HyperGraph::new();
            for e in 0..(1 + next(6)) {
                let ns = 1 + next(3);
                let nt = 1 + next(3);
                let sources: Vec<(String, Nat)> = (0..ns)
                    .map(|_| (format!("v{}", next(8)), Nat(1 + next(5))))
                    .collect();
                let targets: Vec<(String, Nat)> = (0..nt)
                    .map(|_| (format!("v{}", next(8)), Nat(1 + next(5))))
                    .collect();
                h.add_edge(format!("e{}", e), sources, targets);
            }
            let (eout, ein) = h.incidence_arrays(&pair);
            let a = adjacency_array(&eout, &ein, &pair);
            let diff = pattern_diff(&a, h.edge_pattern());
            assert!(diff.is_exact(), "trial {}: {:?}", trial, diff);
        }
    }

    #[test]
    #[should_panic(expected = "needs sources and targets")]
    fn empty_side_rejected() {
        let mut h: HyperGraph<Nat> = HyperGraph::new();
        h.add_edge("e", vec![], vec![w("a", 1)]);
    }
}
