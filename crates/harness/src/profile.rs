//! Rich per-run profiles for differential analysis.
//!
//! `obsctl run/stream --profile-out <path>` captures everything the
//! attribution layer (`obsctl diff`) wants from one run in a single
//! schema-versioned document: the per-workload stage medians the bench
//! file also carries, the counter delta, the decision tallies
//! (dispatch verdicts, plan-cache hits, fused traversals, fallback
//! codes, pool task accounting), and the op ledger's per-kind
//! union-of-interval stage totals. A profile is strictly richer than a
//! bench file; `diff` accepts either and normalizes both.

use crate::workloads::WorkloadRun;
use aarray_obs::{Counter, Gauge, ObsReport, OP_KIND_NAMES};

/// Schema version stamped into `--profile-out` documents.
pub const PROFILE_SCHEMA_VERSION: u64 = 1;

/// The decision counters differential profiling attributes flips to,
/// with the stage each decision's cost lands in. Order is emission
/// order in the profile's `"decisions"` object.
pub const DECISION_COUNTERS: [(Counter, &str, &str); 15] = [
    (Counter::DispatchSerial, "dispatch.serial", "numeric"),
    (Counter::DispatchParallel, "dispatch.parallel", "numeric"),
    (Counter::PlanSymbolicHit, "plan.symbolic-hit", "symbolic"),
    (Counter::PlanSymbolicMiss, "plan.symbolic-miss", "symbolic"),
    (
        Counter::PlanTransposeBuilt,
        "plan.transpose-built",
        "transpose",
    ),
    (
        Counter::PlanTransposeReused,
        "plan.transpose-reused",
        "transpose",
    ),
    (Counter::FusedSpa, "fused.spa", "numeric"),
    (Counter::IncrementalApply, "incremental.apply", "numeric"),
    (
        Counter::IncrementalFallback,
        "incremental.fallback",
        "numeric",
    ),
    (Counter::PoolTasksLocal, "pool.tasks-local", "numeric"),
    (Counter::PoolTasksStolen, "pool.tasks-stolen", "numeric"),
    (Counter::PoolTasksInline, "pool.tasks-inline", "numeric"),
    (Counter::InternHit, "intern.hits", "align"),
    (Counter::InternMiss, "intern.misses", "align"),
    (Counter::IntersectIdSpace, "intersect.id-space", "align"),
];

/// Emit the profile document for one captured run.
///
/// `report` is the [`ObsReport`] delta covering exactly the measured
/// workloads; `kind_totals` the ledger's per-kind stage export over the
/// same window ([`aarray_obs::OpLogSnapshot::stage_totals`]). The
/// output parses with the workspace's own hand-rolled JSON parser —
/// callers self-check before writing, like every other `obsctl`
/// emitter.
pub fn profile_json(
    runs: &[WorkloadRun],
    report: &ObsReport,
    kind_totals: &[aarray_obs::KindStageTotals],
) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str(&format!(
        "{{\n  \"schema_version\": {},\n  \"tool\": \"obsctl-profile\",\n  \"bench\": \"profile\",\n",
        PROFILE_SCHEMA_VERSION
    ));

    out.push_str("  \"workloads\": [");
    for (i, r) in runs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"name\": \"{}\", \"rows\": {}, \"stages\": {{",
            r.name, r.rows
        ));
        for (j, (key, ns)) in [
            ("align", r.stages.align_ns),
            ("transpose", r.stages.transpose_ns),
            ("symbolic", r.stages.symbolic_ns),
            ("numeric", r.stages.numeric_ns),
            ("total", r.stages.total_ns),
            ("wall", r.stages.wall_ns),
        ]
        .iter()
        .enumerate()
        {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\": {{\"median_ns\": {}}}", key, ns));
        }
        out.push_str("}}");
    }
    out.push_str("\n  ],\n");

    out.push_str("  \"decisions\": {");
    for (i, &(c, name, stage)) in DECISION_COUNTERS.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    \"{}\": {{\"count\": {}, \"stage\": \"{}\"}}",
            name,
            report.counters.get(c),
            stage
        ));
    }
    out.push_str("\n  },\n");

    out.push_str(&format!(
        "  \"pool\": {{\"threads\": {}, \"tasks_local\": {}, \"tasks_stolen\": {}, \
         \"tasks_inline\": {}}},\n",
        report.counters.gauge(Gauge::PoolThreads),
        report.counters.get(Counter::PoolTasksLocal),
        report.counters.get(Counter::PoolTasksStolen),
        report.counters.get(Counter::PoolTasksInline)
    ));

    out.push_str("  \"op_kinds\": {");
    let mut first = true;
    for (i, &(_, name)) in OP_KIND_NAMES.iter().enumerate() {
        let Some(t) = kind_totals.get(i) else {
            continue;
        };
        if t.count == 0 {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "\n    \"{}\": {{\"count\": {}, \"align_ns\": {}, \"transpose_ns\": {}, \
             \"symbolic_ns\": {}, \"numeric_ns\": {}, \"delta_ns\": {}, \"wall_ns\": {}}}",
            name,
            t.count,
            t.align_ns,
            t.transpose_ns,
            t.symbolic_ns,
            t.numeric_ns,
            t.delta_ns,
            t.wall_ns
        ));
    }
    out.push_str("\n  },\n");

    // The tail table mirrors `obsctl ops`: per-kind wall-ns quantiles.
    out.push_str("  \"tails\": {");
    let mut first = true;
    for (i, &(_, name)) in OP_KIND_NAMES.iter().enumerate() {
        let t = &report.ops.tails[i];
        if t.count() == 0 {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "\n    \"{}\": {{\"count\": {}, \"p50_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}}}",
            name,
            t.count(),
            t.quantile(0.5),
            t.quantile(0.95),
            t.quantile(0.99)
        ));
    }
    out.push_str("\n  },\n");

    out.push_str("  \"counters\": {");
    let mut names: Vec<(&str, u64)> = aarray_obs::counters::COUNTER_NAMES
        .iter()
        .map(|&(c, name)| (name, report.counters.get(c)))
        .collect();
    names.sort_by_key(|&(name, _)| name);
    let mut first = true;
    for (name, v) in names {
        if v == 0 {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("\n    \"{}\": {}", name, v));
    }
    out.push_str("\n  }\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use crate::workloads::{run_workload, Figure};

    #[test]
    fn profile_json_parses_and_carries_every_section() {
        let before = ObsReport::capture();
        let cursor = aarray_obs::oplog().cursor();
        let runs = [run_workload(Figure::Fig3, 200, 1)];
        let report = ObsReport::capture().since(&before);
        let totals = aarray_obs::oplog().snapshot().stage_totals(cursor);

        let doc = profile_json(&runs, &report, &totals);
        let parsed = parse(&doc).expect("profile must be valid JSON");
        assert_eq!(
            parsed.get("schema_version").unwrap().as_u64(),
            Some(PROFILE_SCHEMA_VERSION)
        );
        assert_eq!(parsed.get("tool").unwrap().as_str(), Some("obsctl-profile"));
        for key in [
            "workloads",
            "decisions",
            "pool",
            "op_kinds",
            "tails",
            "counters",
        ] {
            assert!(parsed.get(key).is_some(), "missing {}", key);
        }
        // The run's fused traversals show up in the decision tallies,
        // and a serial host records inline pool work.
        let fused = parsed
            .path(&["decisions", "fused.spa", "count"])
            .and_then(crate::json::Value::as_u64)
            .unwrap_or(0);
        assert!(fused >= 1, "fused decision tallies must be live");
        let w = parsed.get("workloads").unwrap().as_arr().unwrap();
        assert_eq!(w[0].get("name").unwrap().as_str(), Some("fig3"));
        assert!(
            w[0].path(&["stages", "numeric", "median_ns"])
                .unwrap()
                .as_u64()
                .unwrap()
                > 0
        );
    }
}
