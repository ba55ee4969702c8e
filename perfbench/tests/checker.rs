//! The output checks must count a corrupted result as a failure.

use aarray_algebra::pairs::{MaxMin, PlusTimes};
use aarray_algebra::values::nat::Nat;
use aarray_algebra::values::nn::{nn, NN};
use aarray_algebra::OpPair;
use aarray_core::{adjacency_plan, AArray};
use aarray_graph::baseline::direct_adjacency;
use aarray_graph::generators;
use perfbench::check::{answers_match, lanes_match};
use perfbench::{Asked, QueryPool, Rng};

fn rmat_lanes() -> (Vec<AArray<Nat>>, Vec<AArray<Nat>>) {
    let g = generators::rmat(7, 1024, (0.57, 0.19, 0.19, 0.05), 5);
    let pt = PlusTimes::<Nat>::new();
    let mm = MaxMin::<Nat>::new();
    let (eout, ein) = g.incidence_arrays(&pt);
    let got = adjacency_plan(&eout, &ein).execute_all(&[&pt, &mm]);
    let want = vec![direct_adjacency(&g, &pt), direct_adjacency(&g, &mm)];
    (got, want)
}

/// `a` with the value at its first stored entry replaced by `f(value)`.
fn with_first_value<V, A, M>(
    a: &AArray<V>,
    pair: &OpPair<V, A, M>,
    f: impl Fn(&V) -> V,
) -> AArray<V>
where
    V: aarray_algebra::Value,
    A: aarray_algebra::BinaryOp<V>,
    M: aarray_algebra::BinaryOp<V>,
{
    let (r0, c0, _) = a.iter().next().expect("non-empty");
    let (r0, c0) = (r0.to_string(), c0.to_string());
    a.map_with_keys(
        pair,
        |r, c, v| {
            if r == r0 && c == c0 {
                f(v)
            } else {
                v.clone()
            }
        },
    )
}

#[test]
fn correct_rmat_lanes_pass() {
    let (got, want) = rmat_lanes();
    let refs: Vec<&AArray<Nat>> = got.iter().collect();
    assert!(lanes_match(&refs, &want));
}

#[test]
fn corrupted_value_is_a_failure() {
    let (mut got, want) = rmat_lanes();
    got[1] = with_first_value(&got[1], &MaxMin::<Nat>::new(), |v| Nat(v.0 + 1));
    let refs: Vec<&AArray<Nat>> = got.iter().collect();
    assert!(!lanes_match(&refs, &want));
}

#[test]
fn one_ulp_float_difference_is_a_failure() {
    let pt = PlusTimes::<NN>::new();
    let e1 = AArray::from_triples(
        &pt,
        [("t1", "Genre|A", nn(0.1)), ("t2", "Genre|A", nn(0.2))],
    );
    let e2 = AArray::from_triples(
        &pt,
        [("t1", "Writer|X", nn(0.3)), ("t2", "Writer|X", nn(0.7))],
    );
    let want = vec![e1.transpose().matmul(&e2, &pt)];
    let got = adjacency_plan(&e1, &e2).execute_all(&[&pt]);
    assert!(lanes_match(&[&got[0]], &want));
    let bumped = with_first_value(&got[0], &pt, |v| nn(f64::from_bits(v.get().to_bits() + 1)));
    assert!(!lanes_match(&[&bumped], &want));
}

#[test]
fn missing_lane_or_entry_is_a_failure() {
    let (got, want) = rmat_lanes();
    assert!(!lanes_match(&[&got[0]], &want));
    // Drop one stored entry by selecting away its column.
    let (_, c0, _) = got[0].iter().next().unwrap();
    let c0 = c0.to_string();
    let fewer = got[0].select(
        &aarray_core::KeySelect::All,
        &aarray_core::KeySelect::List(
            got[0]
                .col_keys()
                .keys()
                .iter()
                .filter(|k| **k != c0)
                .cloned()
                .collect(),
        ),
    );
    assert!(!lanes_match(&[&fewer, &got[1]], &want));
}

#[test]
fn corrupted_query_answers_are_a_failure() {
    let (got, want) = rmat_lanes();
    let mut rng = Rng::new(9, 0);
    let pool = QueryPool::draw(&want[0], &mut rng, 32);
    let asked = Asked {
        gets: (0..pool.gets.len()).map(|q| (q, 0)).collect(),
        rows: (0..pool.rows.len()).map(|q| (q, 1)).collect(),
        ranges: (0..pool.ranges.len()).map(|q| (q, 0)).collect(),
    };
    let refs: Vec<&AArray<Nat>> = got.iter().collect();
    assert!(answers_match(&refs, &want, &pool, &asked));

    // Corrupt the entry the first (hit) point lookup reads.
    let (r, c) = &pool.gets[0];
    let bad = got[0].map_with_keys(&MaxMin::<Nat>::new(), |rk, ck, v| {
        if rk == r && ck == c {
            Nat(v.0 + 7)
        } else {
            *v
        }
    });
    assert!(!answers_match(&[&bad, &got[1]], &want, &pool, &asked));
}
