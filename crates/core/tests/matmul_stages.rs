//! Stage attribution of a one-shot `AArray::matmul`: the op-ledger
//! record of a serial one-shot product must carry its align and numeric
//! spans, and those spans must fit inside the op's wall time and cover
//! nearly all of it. Align includes the flops estimate; numeric
//! includes the dispatch decision and the pool accounting.
//!
//! One test function on purpose: the pool size is fixed by
//! `AARRAY_NUM_THREADS` at first use, and integration-test binaries get
//! their own process, so nothing else sizes the pool or writes ledger
//! records here. Run with `--nocapture` to see the measured
//! `stage_sum / wall` ratio.

use aarray_algebra::pairs::PlusTimes;
use aarray_algebra::values::nat::Nat;
use aarray_core::AArray;
use aarray_obs::{oplog, OpKind};

#[test]
fn serial_one_shot_matmul_attributes_align_and_numeric() {
    std::env::set_var("AARRAY_NUM_THREADS", "1");
    assert_eq!(rayon::current_num_threads(), 1, "serial pool expected");

    // 3,000 entries per operand over inner key sets that only partly
    // overlap, so alignment intersects keys and selects columns/rows.
    let pair = PlusTimes::<Nat>::new();
    let a = AArray::from_triples(
        &pair,
        (0..3_000u64).map(|i| {
            (
                format!("r{:03}", i % 100),
                format!("k{:04}", i * 7 % 1_500),
                Nat(1 + i % 5),
            )
        }),
    );
    let b = AArray::from_triples(
        &pair,
        (0..3_000u64).map(|i| {
            (
                format!("k{:04}", 500 + i * 11 % 1_500),
                format!("c{:03}", i % 100),
                Nat(1 + i % 3),
            )
        }),
    );
    assert_ne!(a.col_keys(), b.row_keys(), "alignment must do work");

    let cursor = oplog().cursor();
    let c = a.matmul(&b, &pair);
    assert!(c.nnz() > 0);

    let snap = oplog().snapshot();
    let records: Vec<_> = snap
        .since(cursor)
        .iter()
        .filter(|r| r.kind == OpKind::Matmul)
        .collect();
    assert_eq!(records.len(), 1, "one root matmul, one ledger record");
    let r = records[0];
    println!(
        "matmul: wall_ns={} align={} numeric={} stage_sum/wall={:.3}",
        r.wall_ns,
        r.align_ns,
        r.numeric_ns,
        r.stage_sum_ns() as f64 / r.wall_ns.max(1) as f64
    );
    assert!(r.align_ns > 0, "align span missing: {:?}", r);
    assert!(r.numeric_ns > 0, "numeric span missing: {:?}", r);
    assert!(r.stage_sum_ns() <= r.wall_ns, "stages exceed wall: {:?}", r);
    // Cold runs measured 0.956–0.992 (debug) and 0.966–0.986 (release)
    // on a 2-core x86-64 host; the floor leaves room for a slow host.
    let coverage = r.stage_sum_ns() as f64 / r.wall_ns.max(1) as f64;
    assert!(
        coverage >= 0.93,
        "stages cover {:.3} of wall: {:?}",
        coverage,
        r
    );
}
