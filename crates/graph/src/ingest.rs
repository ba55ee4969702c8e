//! Id-native graph ingest: dense vertex ids assigned as edges arrive,
//! and the rank tables that turn them into incidence-array columns.
//!
//! Graphs keep their public string-keyed edges, but every endpoint is
//! also mapped to a dense `u32` id in `add_edge`. Extraction then
//! sorts the distinct vertex names once, maps each id to its rank in
//! that order (its column in `Eout`/`Ein`), and orders the edge rows by
//! key — no per-entry string triples or hash lookups.

use aarray_core::KeySet;
use std::collections::HashMap;

/// Vertex names with dense ids in first-seen order.
#[derive(Clone, Debug, Default)]
pub(crate) struct VertexIds {
    ids: HashMap<String, u32>,
    names: Vec<String>,
}

impl VertexIds {
    /// The id of `name`, assigning the next one if it is new. A name
    /// already present costs one hash lookup and no allocation.
    pub(crate) fn id(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = u32::try_from(self.names.len()).expect("more than u32::MAX vertices");
        self.ids.insert(name.to_owned(), id);
        self.names.push(name.to_owned());
        id
    }

    /// Number of distinct vertices.
    pub(crate) fn len(&self) -> usize {
        self.names.len()
    }

    /// The names, ascending.
    pub(crate) fn sorted(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.names.iter().map(String::as_str).collect();
        v.sort_unstable();
        v
    }

    /// The vertex key set, and each id's position in it (its column in
    /// the incidence arrays).
    pub(crate) fn ranked(&self) -> (KeySet, Vec<u32>) {
        let mut order: Vec<u32> = (0..self.names.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| self.names[a as usize].cmp(&self.names[b as usize]));
        let mut rank = vec![0u32; order.len()];
        for (r, &id) in order.iter().enumerate() {
            rank[id as usize] = r as u32;
        }
        let keys = order
            .iter()
            .map(|&id| self.names[id as usize].clone())
            .collect();
        (KeySet::from_sorted_unique(keys), rank)
    }
}

/// Equal when both hold the same names, whatever order they arrived in.
impl PartialEq for VertexIds {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.names.iter().all(|n| other.ids.contains_key(n))
    }
}

/// The edge key set, and the edge indices in ascending key order (row
/// `r` of the incidence arrays is edge `order[r]`).
///
/// Edges arriving in strictly ascending key order — as every in-repo
/// generator emits them — skip the sort. Otherwise the sort runs and
/// duplicate keys panic: they would merge two incidence rows.
pub(crate) fn edge_rows<'a>(m: usize, key: impl Fn(usize) -> &'a str) -> (KeySet, Vec<u32>) {
    let rows = u32::try_from(m).expect("more than u32::MAX edges");
    let mut order: Vec<u32> = (0..rows).collect();
    if !(1..m).all(|i| key(i - 1) < key(i)) {
        order.sort_unstable_by(|&a, &b| key(a as usize).cmp(key(b as usize)));
        assert!(
            order
                .windows(2)
                .all(|w| key(w[0] as usize) != key(w[1] as usize)),
            "edge keys must be unique (duplicate incidence rows would merge)"
        );
    }
    let keys = order.iter().map(|&i| key(i as usize).to_owned()).collect();
    (KeySet::from_sorted_unique(keys), order)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_and_stable() {
        let mut v = VertexIds::default();
        assert_eq!((v.id("b"), v.id("a"), v.id("b")), (0, 1, 0));
        assert_eq!(v.len(), 2);
        assert_eq!(v.sorted(), vec!["a", "b"]);
        let (keys, rank) = v.ranked();
        assert_eq!(keys.keys(), ["a", "b"]);
        assert_eq!(rank, vec![1, 0]);
    }

    #[test]
    fn equality_ignores_arrival_order() {
        let (mut x, mut y) = (VertexIds::default(), VertexIds::default());
        x.id("a");
        x.id("b");
        y.id("b");
        y.id("a");
        assert_eq!(x, y);
        y.id("c");
        assert_ne!(x, y);
    }

    #[test]
    fn edge_rows_sort_only_when_needed() {
        let asc = ["e1", "e2", "e3"];
        assert_eq!(edge_rows(3, |i| asc[i]).1, vec![0, 1, 2]);
        let shuffled = ["e2", "e3", "e1"];
        let (keys, order) = edge_rows(3, |i| shuffled[i]);
        assert_eq!(order, vec![2, 0, 1]);
        assert_eq!(keys.keys(), ["e1", "e2", "e3"]);
    }
}
