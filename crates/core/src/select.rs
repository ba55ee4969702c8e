//! Sub-array selection — the D4M `E(rowsel, colsel)` of Figure 1/2,
//! e.g. `E1 = E(:, 'Genre|A : Genre|Z')`.

use crate::array::AArray;
use crate::keys::{KeySelect, KeySet};
use aarray_algebra::Value;
use aarray_sparse::Csr;

/// The positions `sel` keeps in `keys` (`None` for `:`, which keeps
/// everything), and the kept keys as a set sharing `keys`' dictionary.
fn select_keys(keys: &KeySet, sel: &KeySelect) -> (Option<Vec<usize>>, KeySet) {
    match sel {
        KeySelect::All => (None, keys.clone()),
        sel => {
            let idx = keys.select(sel);
            let kept = keys.subset(&idx);
            (Some(idx), kept)
        }
    }
}

/// Keep the (sorted, unique) columns `cols`: one range pass when they
/// are contiguous, a remap pass otherwise.
fn keep_cols<V: Value>(csr: &Csr<V>, cols: &[usize]) -> Csr<V> {
    match (cols.first(), cols.last()) {
        (Some(&lo), Some(&hi)) if hi - lo + 1 == cols.len() => csr.select_col_range(lo, hi + 1),
        _ => csr.select_cols(cols),
    }
}

impl<V: Value> AArray<V> {
    /// Select a sub-array by row and column selections. Matching keys
    /// are kept (with their entries); non-matching keys are removed
    /// from the key sets. As in D4M, a key matched by the selection is
    /// kept even if all its entries fall outside the other selection —
    /// Figure 2's `E1` keeps all 22 track rows, including rows with no
    /// genre entry.
    ///
    /// The kept key sets are built from the source's ids (no string is
    /// re-interned; `:` keeps the source handle), and the storage is
    /// filtered in one pass per selected side.
    pub fn select(&self, rows: &KeySelect, cols: &KeySelect) -> AArray<V> {
        let (row_idx, row_keys) = select_keys(self.row_keys(), rows);
        let (col_idx, col_keys) = select_keys(self.col_keys(), cols);
        let csr = self.csr();
        let data = match (row_idx, col_idx) {
            (None, None) => csr.clone(),
            (Some(r), None) => csr.select_rows(&r),
            (None, Some(c)) => keep_cols(csr, &c),
            (Some(r), Some(c)) => keep_cols(&csr.select_rows(&r), &c),
        };
        AArray::from_parts(row_keys, col_keys, data)
    }

    /// Column selection with all rows — `E(:, sel)`.
    ///
    /// ```
    /// use aarray_core::prelude::*;
    /// let pair = PlusTimes::<Nat>::new();
    /// let e = AArray::from_triples(&pair, [
    ///     ("t1", "Genre|Pop", Nat(1)),
    ///     ("t1", "Writer|Ann", Nat(1)),
    /// ]);
    /// // The paper's E1 = E(:, 'Genre|A : Genre|Z').
    /// let e1 = e.select_cols_str("Genre|A : Genre|Z");
    /// assert_eq!(e1.col_keys().keys(), &["Genre|Pop"]);
    /// assert_eq!(e1.row_keys().len(), 1);
    /// ```
    pub fn select_cols_str(&self, selection: &str) -> AArray<V> {
        self.select(&KeySelect::All, &KeySelect::parse(selection))
    }

    /// Row selection with all columns — `E(sel, :)`.
    pub fn select_rows_str(&self, selection: &str) -> AArray<V> {
        self.select(&KeySelect::parse(selection), &KeySelect::All)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aarray_algebra::pairs::PlusTimes;
    use aarray_algebra::values::nat::Nat;

    fn music_like() -> AArray<Nat> {
        AArray::from_triples(
            &PlusTimes::<Nat>::new(),
            [
                ("track1", "Genre|Pop", Nat(1)),
                ("track1", "Writer|Ann", Nat(1)),
                ("track2", "Genre|Rock", Nat(1)),
                ("track2", "Writer|Bob", Nat(1)),
                ("track3", "Label|Free", Nat(1)),
            ],
        )
    }

    #[test]
    fn column_range_selection_like_figure_two() {
        let e = music_like();
        let e1 = e.select_cols_str("Genre|A : Genre|Z");
        assert_eq!(e1.col_keys().keys(), &["Genre|Pop", "Genre|Rock"]);
        // All rows kept, even track3 which has no genre.
        assert_eq!(e1.row_keys().len(), 3);
        assert_eq!(e1.nnz(), 2);
        assert_eq!(e1.get("track1", "Genre|Pop"), Some(&Nat(1)));
    }

    #[test]
    fn prefix_selection() {
        let e = music_like();
        let w = e.select_cols_str("Writer|*");
        assert_eq!(w.col_keys().keys(), &["Writer|Ann", "Writer|Bob"]);
        assert_eq!(w.nnz(), 2);
    }

    #[test]
    fn row_selection() {
        let e = music_like();
        let t2 = e.select_rows_str("track2");
        assert_eq!(t2.row_keys().keys(), &["track2"]);
        assert_eq!(t2.nnz(), 2);
        assert_eq!(t2.col_keys().len(), 5);
    }

    #[test]
    fn combined_selection() {
        let e = music_like();
        let sub = e.select(
            &KeySelect::Range {
                lo: "track1".into(),
                hi: "track2".into(),
            },
            &KeySelect::Prefix("Genre|".into()),
        );
        assert_eq!(sub.shape(), (2, 2));
        assert_eq!(sub.nnz(), 2);
    }

    #[test]
    fn scattered_column_selection_and_empty_ranges() {
        let e = music_like();
        let sub = e.select(
            &KeySelect::All,
            &KeySelect::List(vec!["Genre|Pop".into(), "Label|Free".into()]),
        );
        assert_eq!(sub.col_keys().keys(), &["Genre|Pop", "Label|Free"]);
        assert_eq!(sub.nnz(), 2);
        assert_eq!(sub.get("track3", "Label|Free"), Some(&Nat(1)));
        let none = e.select_cols_str("Zzz|A : Zzz|Z");
        assert_eq!(none.shape(), (3, 0));
        assert_eq!(none.nnz(), 0);
    }

    #[test]
    fn select_all_is_identity() {
        let e = music_like();
        let same = e.select(&KeySelect::All, &KeySelect::All);
        assert_eq!(same, e);
    }
}
