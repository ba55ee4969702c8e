//! Metric definitions, their computation from a run, and the result
//! line and file.

use crate::host::{json_str, Fingerprint};
use crate::stats::{median, tail};
use crate::trace::{per_root, Span};
use crate::Run;
use aarray_obs::{Counter, Snapshot};
use std::collections::BTreeMap;

/// End-to-end metrics, with units, in report order.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("build_ms.p50", "ms"),
    ("build_ms.tail", "ms"),
    ("lookup_us.p50", "us"),
    ("lookup_us.tail", "us"),
    ("range_ms.p50", "ms"),
    ("edges_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of a traced run, with units, in report order.
pub const PER_LAYER: [(&str, &str); 27] = [
    ("graph.add_edge.ms", "ms"),
    ("graph.incidence.ms", "ms"),
    ("d4m.explode.ms", "ms"),
    ("core.select.ms", "ms"),
    ("core.keys.intern_hit_ratio", "ratio"),
    ("core.keys.dict_mb", "MB"),
    ("core.plan.build.ms", "ms"),
    ("core.plan.symbolic.ms", "ms"),
    ("core.plan.numeric.ms", "ms"),
    ("core.plan.flops", "count"),
    ("core.plan.out_nnz", "count"),
    ("core.plan.numeric.mflops_per_s", "Mflop/s"),
    ("core.plan.parallel_frac", "ratio"),
    ("core.incremental.append.ms", "ms"),
    ("core.incremental.refresh.ms", "ms"),
    ("core.incremental.delta_frac", "ratio"),
    ("core.incremental.rebuild.ms", "ms"),
    ("core.query.get.us", "us"),
    ("core.query.row.us", "us"),
    ("core.query.row.first.us", "us"),
    ("core.select.range.ms", "ms"),
    ("obs.journal.events_per_op", "count"),
    ("obs.journal.dropped_per_op", "count"),
    ("pool.threads", "count"),
    ("pool.stolen_frac", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// What the value was taken over, e.g. `p99 of n=5120`.
    pub note: String,
}

/// Counter readings taken around the op loop.
pub struct Readings {
    /// Counter diff over the op loop (after publishing pool stats).
    pub pool: Snapshot,
    /// Counter diff over the whole run, set-up included.
    pub whole: Snapshot,
    /// The key dictionary's heap bytes at the end of the run.
    pub dict_bytes: u64,
}

fn metric(table: &[(&'static str, &'static str)], name: &str, value: f64, note: String) -> Metric {
    let &(name, unit) = table
        .iter()
        .find(|(n, _)| *n == name)
        .expect("metric is declared");
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
        note,
    }
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(run: &Run) -> Vec<Metric> {
    let m = |name: &str, value: f64, note: String| metric(&END_TO_END, name, value, note);
    let n = |xs: &[f64]| format!("p50 of n={}", xs.len());
    let build_tail = tail(&run.build_ms);
    let lookup_tail = tail(&run.lookup_us);
    vec![
        m("setup_s", median(&run.setup_s), n(&run.setup_s)),
        m("build_ms.p50", median(&run.build_ms), n(&run.build_ms)),
        m(
            "build_ms.tail",
            build_tail.value,
            format!("p{} of n={}", build_tail.percentile, build_tail.n),
        ),
        m("lookup_us.p50", median(&run.lookup_us), n(&run.lookup_us)),
        m(
            "lookup_us.tail",
            lookup_tail.value,
            format!("p{} of n={}", lookup_tail.percentile, lookup_tail.n),
        ),
        m("range_ms.p50", median(&run.range_ms), n(&run.range_ms)),
        m(
            "edges_per_s",
            run.edges as f64 / run.build_s,
            format!("{} rows in {:.3} s", run.edges, run.build_s),
        ),
        m(
            "peak_rss_mb",
            crate::host::peak_rss_mb(),
            "VmHWM".to_string(),
        ),
    ]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics of a traced run.
pub fn per_layer(run: &Run, spans: &[Span], r: &Readings) -> Vec<Metric> {
    let m = |name: &str, value: f64, note: String| metric(&PER_LAYER, name, value, note);
    let ops = per_root(spans, "op");
    let setups = per_root(spans, "setup");
    // Median per root of a layer's self time, in ms (0 if never called).
    let per_root_ms = |roots: &[(u64, u64, BTreeMap<&'static str, u64>)], layer: &str| {
        if !roots.iter().any(|(_, _, l)| l.contains_key(layer)) {
            return (0.0, "not called".to_string());
        }
        let xs: Vec<f64> = roots
            .iter()
            .map(|(_, _, l)| *l.get(layer).unwrap_or(&0) as f64 / 1e6)
            .collect();
        (median(&xs), format!("p50 over n={} traced ops", xs.len()))
    };
    // Median duration of one call, scaled from ns.
    let per_call = |name: &str, scale: f64| {
        let xs: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 / scale)
            .collect();
        (median(&xs), format!("p50 over n={} calls", xs.len()))
    };
    let layer = |name: &'static str, layer: &str| {
        let (v, note) = per_root_ms(&ops, layer);
        m(name, v, note)
    };
    let setup_layer = |name: &'static str, layer: &str| {
        let (v, note) = per_root_ms(&setups, layer);
        m(name, v, note.replace("traced ops", "set-ups"))
    };

    let traced: Vec<&crate::OpStats> = run.ops.iter().filter(|s| s.traced).collect();
    let n_ops = run.ops.len().max(1) as f64;
    let sum = |f: fn(&crate::OpStats) -> u64| run.ops.iter().map(f).sum::<u64>() as f64;
    let med_count = |f: fn(&crate::OpStats) -> u64| {
        let xs: Vec<f64> = run.ops.iter().map(|s| f(s) as f64).collect();
        median(&xs)
    };

    let numeric_ns: u64 = ops
        .iter()
        .map(|(_, _, l)| *l.get("core.plan.numeric").unwrap_or(&0))
        .sum();
    let traced_lane_flops: u64 = traced.iter().map(|s| s.lane_flops).sum();
    let hits = r.whole.get(Counter::InternHit);
    let misses = r.whole.get(Counter::InternMiss);
    let local = r.pool.get(Counter::PoolTasksLocal) as f64;
    let stolen = r.pool.get(Counter::PoolTasksStolen) as f64;
    let inline = r.pool.get(Counter::PoolTasksInline) as f64;
    let wall: u64 = ops.iter().map(|(_, w, _)| w).sum();
    let covered: u64 = ops.iter().map(|(_, _, l)| l.values().sum::<u64>()).sum();
    let (get_us, get_note) = per_call("core.query.get", 1e3);
    let (row_us, row_note) = per_call("core.query.row", 1e3);
    let (first_us, first_note) = per_call("core.query.row.first", 1e3);
    let (range_ms, range_note) = per_call("core.select.range", 1e6);

    vec![
        layer("graph.add_edge.ms", "graph.add_edge"),
        layer("graph.incidence.ms", "graph.incidence"),
        setup_layer("d4m.explode.ms", "d4m.explode"),
        setup_layer("core.select.ms", "core.select"),
        m(
            "core.keys.intern_hit_ratio",
            ratio(hits as f64, (hits + misses) as f64),
            format!("{} hits, {} misses over the run", hits, misses),
        ),
        m(
            "core.keys.dict_mb",
            r.dict_bytes as f64 / 1e6,
            "intern.dict-bytes at the end".to_string(),
        ),
        layer("core.plan.build.ms", "core.plan.build"),
        layer("core.plan.symbolic.ms", "core.plan.symbolic"),
        layer("core.plan.numeric.ms", "core.plan.numeric"),
        m(
            "core.plan.flops",
            med_count(|s| s.flops),
            "per op".to_string(),
        ),
        m(
            "core.plan.out_nnz",
            med_count(|s| s.out_nnz),
            "per op".to_string(),
        ),
        m(
            "core.plan.numeric.mflops_per_s",
            ratio(traced_lane_flops as f64, numeric_ns as f64) * 1e3,
            "flops x lanes / numeric self time".to_string(),
        ),
        m(
            "core.plan.parallel_frac",
            ratio(sum(|s| s.parallel_execs), sum(|s| s.execs)),
            "executions past the dispatch gate".to_string(),
        ),
        layer("core.incremental.append.ms", "core.incremental.append"),
        layer("core.incremental.refresh.ms", "core.incremental.refresh"),
        m(
            "core.incremental.delta_frac",
            ratio(sum(|s| s.delta_lanes), sum(|s| s.refreshed_lanes)),
            "incremental lanes / refreshed lanes".to_string(),
        ),
        m(
            "core.incremental.rebuild.ms",
            median(&run.rebuild_ms),
            format!("p50 over n={} verification rebuilds", run.rebuild_ms.len()),
        ),
        m("core.query.get.us", get_us, get_note),
        m("core.query.row.us", row_us, row_note),
        m("core.query.row.first.us", first_us, first_note),
        m("core.select.range.ms", range_ms, range_note),
        m(
            "obs.journal.events_per_op",
            sum(|s| s.journal_events) / n_ops,
            format!("over {} ops", run.ops.len()),
        ),
        m(
            "obs.journal.dropped_per_op",
            sum(|s| s.journal_dropped) / n_ops,
            format!("over {} ops", run.ops.len()),
        ),
        m(
            "pool.threads",
            rayon::current_num_threads() as f64,
            "default pool".to_string(),
        ),
        m(
            "pool.stolen_frac",
            ratio(stolen, local + stolen + inline),
            format!(
                "{} local, {} stolen, {} inline tasks",
                local, stolen, inline
            ),
        ),
        m(
            "trace.coverage",
            ratio(covered as f64, wall as f64),
            format!("layer self time / op wall over {} traced ops", ops.len()),
        ),
        m(
            "trace.overhead_frac",
            median(&run.build_ms_traced) / median(&run.build_ms) - 1.0,
            format!(
                "build_ms.p50 traced (n={}) / untraced (n={}) - 1",
                run.build_ms_traced.len(),
                run.build_ms.len()
            ),
        ),
    ]
}

/// The last line of the output: one JSON object.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        correct,
        attempted,
        failed,
        body.join(", ")
    )
}

/// The result file: run settings, host fingerprint and every metric
/// with its note, one metric per line (read back by [`compare`]).
pub fn result_file(
    header: &[(&str, String)],
    host: &Fingerprint,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> String {
    let mut out = String::from("{\n");
    for (k, v) in header {
        out.push_str(&format!("\"{}\": {},\n", k, v));
    }
    out.push_str(&format!("\"host\": {},\n", host.to_json()));
    out.push_str(&format!("\"commit\": {},\n", json_str(&host.commit)));
    out.push_str(&format!("\"tuned\": {},\n", host.is_tuned()));
    out.push_str(&format!(
        "\"correct\": {},\n\"attempted\": {},\n\"failed\": {},\n\"metrics\": {{\n",
        correct, attempted, failed
    ));
    let lines: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}, \"note\": {}}}",
                json_str(m.name),
                m.value,
                json_str(m.unit),
                json_str(&m.note)
            )
        })
        .collect();
    out.push_str(&lines.join(",\n"));
    out.push_str("\n}\n}\n");
    out
}

fn field<'a>(doc: &'a str, key: &str) -> Option<&'a str> {
    let prefix = format!("\"{}\": ", key);
    doc.lines()
        .find_map(|l| l.strip_prefix(prefix.as_str()))
        .map(|v| v.trim_end_matches(','))
}

fn metric_values(doc: &str) -> Vec<(String, f64, String)> {
    doc.lines()
        .filter_map(|l| {
            let (name, rest) = l.split_once(": {\"value\": ")?;
            let (value, rest) = rest.split_once(", \"unit\": \"")?;
            let (unit, _) = rest.split_once('"')?;
            Some((
                name.trim_matches('"').to_string(),
                value.parse().ok()?,
                unit.to_string(),
            ))
        })
        .collect()
}

/// Compare two result files metric by metric. Flags runs made with
/// `AARRAY_*` variables set and pairs whose host fingerprints differ.
pub fn compare(a: &str, b: &str) -> String {
    let mut out = String::new();
    for (label, doc) in [("A", a), ("B", b)] {
        if field(doc, "tuned") == Some("true") {
            out.push_str(&format!(
                "WARNING: run {} was made with AARRAY_* variables set\n",
                label
            ));
        }
    }
    if field(a, "host") != field(b, "host") {
        out.push_str(&format!(
            "WARNING: host fingerprints differ; the comparison is not like for like\n  A: {}\n  B: {}\n",
            field(a, "host").unwrap_or("?"),
            field(b, "host").unwrap_or("?")
        ));
    }
    if field(a, "commit") != field(b, "commit") {
        out.push_str(&format!(
            "commits: A {}, B {}\n",
            field(a, "commit").unwrap_or("?"),
            field(b, "commit").unwrap_or("?")
        ));
    }
    for key in ["workload", "seed", "trace"] {
        if field(a, key) != field(b, key) {
            out.push_str(&format!("WARNING: {} differs\n", key));
        }
    }
    let bm: BTreeMap<String, f64> = metric_values(b)
        .into_iter()
        .map(|(n, v, _)| (n, v))
        .collect();
    for (name, va, unit) in metric_values(a) {
        match bm.get(&name) {
            Some(&vb) => out.push_str(&format!(
                "{:<34} {:>14.4} {:>14.4} {:<8} {:+.1}%\n",
                name,
                va,
                vb,
                unit,
                (vb / va - 1.0) * 100.0
            )),
            None => out.push_str(&format!("{:<34} {:>14.4} {:>14} {}\n", name, va, "-", unit)),
        }
    }
    out
}
