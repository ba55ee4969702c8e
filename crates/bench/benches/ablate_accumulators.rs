//! Ablation: SpGEMM accumulator strategy (SPA vs hash vs
//! expand-sort-compress) across output densities.
//!
//! Expectation (DESIGN.md): SPA wins when rows are dense-ish (its
//! scratch is O(ncols) but reset-free), hash wins on very sparse wide
//! outputs, ESC sits between with the best worst-case memory locality.

use aarray_algebra::pairs::PlusTimes;
use aarray_algebra::values::nat::Nat;
use aarray_core::adjacency_array_unchecked;
use aarray_graph::generators::erdos_renyi;
use aarray_sparse::{spgemm_with, Accumulator};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_accumulators(c: &mut Criterion) {
    let pair = PlusTimes::<Nat>::new();
    let mut group = c.benchmark_group("ablate_accumulators");

    // (vertices, edges): sparse → dense products.
    for &(n, m) in &[(2_000usize, 4_000usize), (2_000, 20_000), (500, 20_000)] {
        let g = erdos_renyi(n, m, 99);
        let (eout, ein) = g.incidence_arrays(&pair);
        // Both incidence arrays share the edge keys, so the transpose's
        // columns already line up with `ein`'s rows: the CSRs are the
        // aligned kernel operands.
        let eout_t = eout.transpose();
        assert_eq!(eout_t.col_keys(), ein.row_keys());
        for acc in [Accumulator::Spa, Accumulator::Hash, Accumulator::Esc] {
            group.bench_with_input(
                BenchmarkId::new(format!("{:?}", acc), format!("n{}_m{}", n, m)),
                &(eout_t.csr(), ein.csr()),
                |b, (lhs, rhs)| b.iter(|| spgemm_with(lhs, rhs, &pair, acc)),
            );
        }
    }
    group.finish();

    // Sanity cross-check outside timing: all strategies agree.
    let g = erdos_renyi(300, 2_000, 5);
    let (eout, ein) = g.incidence_arrays(&pair);
    let reference = adjacency_array_unchecked(&eout, &ein, &pair);
    let eout_t = eout.transpose();
    for acc in [Accumulator::Spa, Accumulator::Hash, Accumulator::Esc] {
        let got = spgemm_with(eout_t.csr(), ein.csr(), &pair, acc);
        assert_eq!(&got, reference.csr(), "{:?} disagrees", acc);
    }
}

criterion_group!(benches, bench_accumulators);
criterion_main!(benches);
