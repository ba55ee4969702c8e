//! Output checks. Every mismatch is counted as a failed op, never a
//! panic, so one bad op shows up in `failed` beside the others.

use crate::{Asked, QueryPool};
use aarray_algebra::Value;
use aarray_core::AArray;

/// Whether every lane is bit-identical (same key sets, same stored
/// pattern, same values) to its reference.
pub fn lanes_match<V: Value>(got: &[&AArray<V>], want: &[AArray<V>]) -> bool {
    got.len() == want.len() && got.iter().zip(want).all(|(g, w)| *g == w)
}

/// Whether every query an op asked answers the same on its lanes as on
/// the lanes' references.
pub fn answers_match<V: Value>(
    lanes: &[&AArray<V>],
    want: &[AArray<V>],
    pool: &QueryPool,
    asked: &Asked,
) -> bool {
    asked.gets.iter().all(|&(q, l)| {
        let (r, c) = &pool.gets[q];
        lanes[l].get(r, c) == want[l].get(r, c)
    }) && asked
        .rows
        .iter()
        .all(|&(q, l)| lanes[l].row_entries(&pool.rows[q]) == want[l].row_entries(&pool.rows[q]))
        && asked.ranges.iter().all(|&(q, l)| {
            lanes[l].select_cols_str(&pool.ranges[q]) == want[l].select_cols_str(&pool.ranges[q])
        })
}
