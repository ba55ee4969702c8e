//! Differential profiling: attribute a wall-time delta between two
//! runs to stages and decision flips.
//!
//! `obsctl diff A.json B.json` accepts any mix of `--profile-out`
//! documents and v3/v4 bench files. Both normalize to a
//! [`RunSummary`] — per-workload stage nanoseconds plus decision
//! tallies — and the diff then:
//!
//! 1. computes the signed wall-time delta over workloads present in
//!    both runs;
//! 2. ranks per-workload stage deltas by magnitude and accumulates
//!    them (signed) until ≥ 90% of the wall delta is explained or the
//!    contributors run out;
//! 3. inspects decision-counter pairs (serial↔parallel dispatch,
//!    plan-cache hit rates, delta-apply↔rebuild fallback, pool task
//!    placement) for *flips* — rate shifts ≥ 10 points — and
//!    annotates the stages they land in.
//!
//! The human rendering is a ranked table; `--json` emits the same
//! verdict as a schema-versioned machine document.

use crate::json::Value;
use crate::profile::{DECISION_COUNTERS, PROFILE_SCHEMA_VERSION};
use crate::schema::{classify, BenchKind, STAGE_KEYS};

/// Schema version stamped into `obsctl diff --json` documents.
pub const DIFF_SCHEMA_VERSION: u64 = 1;

/// Attribution stops once this share of the wall delta is explained.
pub const EXPLAIN_TARGET_PCT: f64 = 90.0;

/// A decision-pair rate shift must move at least this many percentage
/// points to be called a flip.
pub const FLIP_THRESHOLD_PCT: f64 = 10.0;

/// One run (profile or bench document) normalized for diffing.
#[derive(Clone, Debug, Default)]
pub struct RunSummary {
    /// Per-workload stage nanoseconds: `(workload@rows, stage, ns)`.
    /// Stage keys follow [`STAGE_KEYS`]; legacy baselines carry only
    /// the stage their single figure maps onto.
    pub stages: Vec<(String, &'static str, u64)>,
    /// Decision tallies by counter name (empty when the document
    /// carries no counter section).
    pub decisions: Vec<(String, u64)>,
}

impl RunSummary {
    fn stage_ns(&self, workload: &str, stage: &str) -> Option<u64> {
        self.stages
            .iter()
            .find(|(w, s, _)| w == workload && *s == stage)
            .map(|&(_, _, ns)| ns)
    }

    fn workloads(&self) -> Vec<String> {
        let mut ws: Vec<String> = Vec::new();
        for (w, _, _) in &self.stages {
            if !ws.contains(w) {
                ws.push(w.clone());
            }
        }
        ws
    }

    fn decision(&self, name: &str) -> u64 {
        self.decisions
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    }
}

fn stage_key(stage: &str) -> Option<&'static str> {
    STAGE_KEYS.iter().find(|&&k| k == stage).copied()
}

/// Normalize one parsed document into a [`RunSummary`].
///
/// Accepts `obsctl-profile` documents and anything
/// [`classify`] accepts (v3/v4 observatory files, legacy PR1/PR2
/// single-figure files). Anything else is an error naming the shape.
pub fn summarize(doc: &Value) -> Result<RunSummary, String> {
    if doc.get("tool").and_then(Value::as_str) == Some("obsctl-profile") {
        let sv = doc
            .get("schema_version")
            .and_then(Value::as_u64)
            .ok_or("profile: missing schema_version")?;
        if sv != PROFILE_SCHEMA_VERSION {
            return Err(format!(
                "profile: unsupported schema_version {} (this obsctl understands {})",
                sv, PROFILE_SCHEMA_VERSION
            ));
        }
        let mut s = RunSummary::default();
        collect_workload_stages(doc, &mut s)?;
        if let Some(decisions) = doc.get("decisions").and_then(Value::as_obj) {
            for (name, entry) in decisions {
                if let Some(count) = entry.get("count").and_then(Value::as_u64) {
                    s.decisions.push((name.clone(), count));
                }
            }
        }
        return Ok(s);
    }
    match classify(doc)? {
        BenchKind::V3 => {
            let mut s = RunSummary::default();
            collect_workload_stages(doc, &mut s)?;
            // v3/v4 files embed an ObsReport whose counters section is
            // keyed by the same names the profile's decision tallies
            // use, so bench baselines still support flip detection.
            if let Some(counters) = doc.path(&["report", "counters"]).and_then(Value::as_obj) {
                for &(_, name, _) in DECISION_COUNTERS.iter() {
                    if let Some(v) = counters.get(name).and_then(Value::as_u64) {
                        s.decisions.push((name.to_string(), v));
                    }
                }
            }
            Ok(s)
        }
        BenchKind::LegacyFused { tracks, fused_ms } => Ok(RunSummary {
            stages: vec![(format!("fig3@{}", tracks), "total", (fused_ms * 1e6) as u64)],
            decisions: Vec::new(),
        }),
        BenchKind::LegacyOverhead {
            tracks,
            workload_ms,
        } => Ok(RunSummary {
            stages: vec![(
                format!("fig3@{}", tracks),
                "wall",
                (workload_ms * 1e6) as u64,
            )],
            decisions: Vec::new(),
        }),
    }
}

fn collect_workload_stages(doc: &Value, s: &mut RunSummary) -> Result<(), String> {
    let workloads = doc
        .get("workloads")
        .and_then(Value::as_arr)
        .ok_or("run document: \"workloads\" must be an array")?;
    for w in workloads {
        let name = w
            .get("name")
            .and_then(Value::as_str)
            .ok_or("workload: missing name")?;
        let rows = w
            .get("rows")
            .and_then(Value::as_u64)
            .ok_or("workload: missing rows")?;
        let id = format!("{}@{}", name, rows);
        for stage in STAGE_KEYS {
            if let Some(ns) = w
                .path(&["stages", stage])
                .and_then(|e| e.get("median_ns"))
                .and_then(Value::as_u64)
            {
                s.stages.push((id.clone(), stage_key(stage).unwrap(), ns));
            }
        }
    }
    Ok(())
}

/// One ranked stage contributor to the wall delta.
#[derive(Clone, Debug)]
pub struct Contributor {
    /// `workload@rows/stage`.
    pub metric: String,
    /// The stage's nanoseconds in run A.
    pub a_ns: u64,
    /// The stage's nanoseconds in run B.
    pub b_ns: u64,
    /// Signed delta (B − A).
    pub delta_ns: i64,
    /// This contributor's signed share of the wall delta, percent.
    pub share_pct: f64,
    /// Running signed share after including this contributor.
    pub cum_pct: f64,
    /// True for the ranked prefix that reaches the ≥ 90% target (the
    /// "attribution set"); the remainder is reported for completeness.
    pub included: bool,
    /// Decision flips whose cost lands in this contributor's stage.
    pub flips: Vec<String>,
}

/// A decision-pair rate shift between the two runs.
#[derive(Clone, Debug)]
pub struct Flip {
    /// Human label, e.g. `dispatch serial↔parallel`.
    pub what: String,
    /// Stage the flipped decision's cost lands in.
    pub stage: &'static str,
    /// Rate of the first pair member in run A, percent of the pair.
    pub a_pct: f64,
    /// Rate of the first pair member in run B, percent of the pair.
    pub b_pct: f64,
}

/// The full diff verdict.
#[derive(Clone, Debug)]
pub struct DiffReport {
    /// Signed wall-time delta (B − A) summed over matched workloads, ns.
    pub wall_delta_ns: i64,
    /// Share of the wall delta the included contributors explain,
    /// percent (0 when the wall delta itself is zero).
    pub explained_pct: f64,
    /// All stage contributors, ranked by |delta|.
    pub contributors: Vec<Contributor>,
    /// Detected decision flips.
    pub flips: Vec<Flip>,
    /// Workloads present in only one run (named, never silently
    /// dropped).
    pub unmatched: Vec<String>,
}

/// The decision pairs flip detection inspects: first member, second
/// member, human label. Stage attribution comes from
/// [`DECISION_COUNTERS`].
const FLIP_PAIRS: [(&str, &str, &str); 5] = [
    (
        "dispatch.serial",
        "dispatch.parallel",
        "dispatch serial↔parallel",
    ),
    (
        "plan.symbolic-hit",
        "plan.symbolic-miss",
        "plan-cache symbolic hit-rate",
    ),
    (
        "plan.transpose-reused",
        "plan.transpose-built",
        "plan-cache transpose reuse-rate",
    ),
    (
        "incremental.apply",
        "incremental.fallback",
        "incremental delta-apply↔rebuild",
    ),
    ("intern.hits", "intern.misses", "key-dict intern hit-rate"),
];

fn pair_stage(first: &str) -> &'static str {
    DECISION_COUNTERS
        .iter()
        .find(|&&(_, name, _)| name == first)
        .map_or("numeric", |&(_, _, stage)| stage)
}

/// Diff two normalized runs.
pub fn diff(a: &RunSummary, b: &RunSummary) -> DiffReport {
    let a_workloads = a.workloads();
    let b_workloads = b.workloads();
    let matched: Vec<&String> = a_workloads
        .iter()
        .filter(|w| b_workloads.contains(w))
        .collect();
    let mut unmatched: Vec<String> = Vec::new();
    for w in &a_workloads {
        if !b_workloads.contains(w) {
            unmatched.push(format!("{} (only in A)", w));
        }
    }
    for w in &b_workloads {
        if !a_workloads.contains(w) {
            unmatched.push(format!("{} (only in B)", w));
        }
    }

    // Wall delta over matched workloads; a legacy run without a wall
    // figure falls back to its total.
    let mut wall_delta: i64 = 0;
    for w in &matched {
        let a_ns = a.stage_ns(w, "wall").or_else(|| a.stage_ns(w, "total"));
        let b_ns = b.stage_ns(w, "wall").or_else(|| b.stage_ns(w, "total"));
        if let (Some(a_ns), Some(b_ns)) = (a_ns, b_ns) {
            wall_delta += b_ns as i64 - a_ns as i64;
        }
    }

    // Rank the per-stage deltas. `total` and `wall` aggregate the
    // other four, so only the component stages contribute.
    let mut contributors: Vec<Contributor> = Vec::new();
    for w in &matched {
        for stage in ["align", "transpose", "symbolic", "numeric"] {
            let (Some(a_ns), Some(b_ns)) = (a.stage_ns(w, stage), b.stage_ns(w, stage)) else {
                continue;
            };
            let delta = b_ns as i64 - a_ns as i64;
            let share = if wall_delta != 0 {
                delta as f64 / wall_delta as f64 * 100.0
            } else {
                0.0
            };
            contributors.push(Contributor {
                metric: format!("{}/{}", w, stage),
                a_ns,
                b_ns,
                delta_ns: delta,
                share_pct: share,
                cum_pct: 0.0,
                included: false,
                flips: Vec::new(),
            });
        }
    }
    contributors.sort_by_key(|c| std::cmp::Reverse(c.delta_ns.abs()));

    let mut cum = 0.0;
    let mut explained = 0.0;
    for c in &mut contributors {
        let done = wall_delta != 0 && cum >= EXPLAIN_TARGET_PCT;
        cum += c.share_pct;
        c.cum_pct = cum;
        if wall_delta != 0 && !done {
            c.included = true;
            explained = cum;
        }
    }

    // Decision flips: rate of the pair's first member, A vs B.
    let mut flips: Vec<Flip> = Vec::new();
    for &(first, second, label) in FLIP_PAIRS.iter() {
        let (af, asnd) = (a.decision(first), a.decision(second));
        let (bf, bsnd) = (b.decision(first), b.decision(second));
        if af + asnd == 0 || bf + bsnd == 0 {
            continue;
        }
        let a_pct = af as f64 / (af + asnd) as f64 * 100.0;
        let b_pct = bf as f64 / (bf + bsnd) as f64 * 100.0;
        if (b_pct - a_pct).abs() >= FLIP_THRESHOLD_PCT {
            flips.push(Flip {
                what: label.to_string(),
                stage: pair_stage(first),
                a_pct,
                b_pct,
            });
        }
    }
    for c in &mut contributors {
        let stage = c.metric.rsplit('/').next().unwrap_or("");
        for f in &flips {
            if f.stage == stage {
                c.flips.push(f.what.clone());
            }
        }
    }

    DiffReport {
        wall_delta_ns: wall_delta,
        explained_pct: explained,
        contributors,
        flips,
        unmatched,
    }
}

fn fmt_ns(ns: f64) -> String {
    let abs = ns.abs();
    if abs >= 1e6 {
        format!("{:+.2} ms", ns / 1e6)
    } else if abs >= 1e3 {
        format!("{:+.1} µs", ns / 1e3)
    } else {
        format!("{:+.0} ns", ns)
    }
}

/// Render the human-facing diff table.
pub fn render_text(a_label: &str, b_label: &str, r: &DiffReport) -> String {
    let mut out = String::new();
    out.push_str(&format!("diff: {} → {}\n", a_label, b_label));
    out.push_str(&format!(
        "wall delta {} ({}); attribution target {:.0}%, explained {:.1}%\n\n",
        fmt_ns(r.wall_delta_ns as f64),
        if r.wall_delta_ns >= 0 {
            "slower"
        } else {
            "faster"
        },
        EXPLAIN_TARGET_PCT,
        r.explained_pct
    ));
    out.push_str(&format!(
        "{:<28} {:>12} {:>12} {:>12} {:>8} {:>8}  flips\n",
        "contributor", "A", "B", "delta", "share%", "cum%"
    ));
    for c in &r.contributors {
        out.push_str(&format!(
            "{:<28} {:>12} {:>12} {:>12} {:>7.1}% {:>7.1}%  {}{}\n",
            c.metric,
            c.a_ns,
            c.b_ns,
            fmt_ns(c.delta_ns as f64),
            c.share_pct,
            c.cum_pct,
            if c.included { "" } else { "(tail) " },
            c.flips.join("; ")
        ));
    }
    if !r.flips.is_empty() {
        out.push_str("\ndecision flips:\n");
        for f in &r.flips {
            out.push_str(&format!(
                "  {} ({}): {:.1}% → {:.1}%\n",
                f.what, f.stage, f.a_pct, f.b_pct
            ));
        }
    }
    if !r.unmatched.is_empty() {
        out.push_str("\nunmatched workloads:\n");
        for u in &r.unmatched {
            out.push_str(&format!("  {}\n", u));
        }
    }
    out
}

/// Render the machine verdict (`obsctl diff --json`).
pub fn render_json(a_label: &str, b_label: &str, r: &DiffReport) -> String {
    let mut out = String::with_capacity(2048);
    out.push_str(&format!(
        "{{\n  \"schema_version\": {},\n  \"tool\": \"obsctl-diff\",\n  \
         \"a\": \"{}\",\n  \"b\": \"{}\",\n  \"wall_delta_ns\": {},\n  \
         \"explain_target_pct\": {},\n  \"explained_pct\": {:.3},\n",
        DIFF_SCHEMA_VERSION, a_label, b_label, r.wall_delta_ns, EXPLAIN_TARGET_PCT, r.explained_pct
    ));
    out.push_str("  \"contributors\": [");
    for (i, c) in r.contributors.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"metric\": \"{}\", \"a_ns\": {}, \"b_ns\": {}, \"delta_ns\": {}, \
             \"share_pct\": {:.3}, \"cum_pct\": {:.3}, \"included\": {}, \"flips\": [{}]}}",
            c.metric,
            c.a_ns,
            c.b_ns,
            c.delta_ns,
            c.share_pct,
            c.cum_pct,
            c.included,
            c.flips
                .iter()
                .map(|f| format!("\"{}\"", f))
                .collect::<Vec<_>>()
                .join(", ")
        ));
    }
    out.push_str("\n  ],\n  \"flips\": [");
    for (i, f) in r.flips.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"what\": \"{}\", \"stage\": \"{}\", \"a_pct\": {:.3}, \"b_pct\": {:.3}}}",
            f.what, f.stage, f.a_pct, f.b_pct
        ));
    }
    out.push_str("\n  ],\n  \"unmatched\": [");
    for (i, u) in r.unmatched.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{}\"", u));
    }
    out.push_str("]\n}\n");
    out
}

/// Top contributors to one regressed bench metric, for the
/// `attribution` field of `obsctl check --json` (satellite 6). The
/// metric names a `workload@rows/stage`; the answer is the largest
/// same-workload stage deltas between the two documents in hand.
pub fn attribute_metric(
    metric: &str,
    baseline: &RunSummary,
    current: &RunSummary,
    top: usize,
) -> Vec<Contributor> {
    let workload = metric.split('/').next().unwrap_or(metric);
    let r = diff(baseline, current);
    r.contributors
        .into_iter()
        .filter(|c| c.metric.starts_with(workload))
        .take(top)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn profile_doc(numeric: u64, symbolic: u64, serial: u64, parallel: u64) -> Value {
        let wall = 10_000 + 200_000 + symbolic + numeric;
        parse(&format!(
            r#"{{
              "schema_version": 1, "tool": "obsctl-profile", "bench": "profile",
              "workloads": [{{"name":"fig3","rows":4000,"stages":{{
                "align":{{"median_ns":10000}},"transpose":{{"median_ns":200000}},
                "symbolic":{{"median_ns":{symbolic}}},"numeric":{{"median_ns":{numeric}}},
                "total":{{"median_ns":{wall}}},"wall":{{"median_ns":{wall}}}}}}}],
              "decisions": {{
                "dispatch.serial": {{"count": {serial}, "stage": "numeric"}},
                "dispatch.parallel": {{"count": {parallel}, "stage": "numeric"}}
              }},
              "pool": {{"threads": 1, "tasks_local": 0, "tasks_stolen": 0, "tasks_inline": 4}}
            }}"#,
        ))
        .unwrap()
    }

    #[test]
    fn attribution_reaches_target_and_ranks_by_magnitude() {
        // B's numeric doubles (+2 ms) and symbolic grows 0.1 ms; wall
        // grows by exactly their sum, so numeric alone explains ~95%.
        let a = summarize(&profile_doc(2_000_000, 900_000, 10, 0)).unwrap();
        let b = summarize(&profile_doc(4_000_000, 1_000_000, 0, 10)).unwrap();
        let r = diff(&a, &b);
        assert_eq!(r.wall_delta_ns, 2_100_000);
        assert!(r.explained_pct >= EXPLAIN_TARGET_PCT, "{:?}", r);
        assert_eq!(r.contributors[0].metric, "fig3@4000/numeric");
        assert!(r.contributors[0].included);
        // numeric explains > 90% alone; symbolic is tail.
        assert!(
            !r.contributors
                .iter()
                .any(|c| c.metric.ends_with("/symbolic") && c.included),
            "{:?}",
            r.contributors
        );
        // All-serial → all-parallel is a dispatch flip on numeric.
        assert_eq!(r.flips.len(), 1);
        assert_eq!(r.flips[0].stage, "numeric");
        assert!(
            r.contributors[0].flips[0].contains("dispatch"),
            "{:?}",
            r.flips
        );
    }

    #[test]
    fn zero_delta_and_unmatched_workloads_are_explicit() {
        let a = summarize(&profile_doc(2_000_000, 900_000, 5, 5)).unwrap();
        let r = diff(&a, &a.clone());
        assert_eq!(r.wall_delta_ns, 0);
        assert_eq!(r.explained_pct, 0.0);
        assert!(r.contributors.iter().all(|c| !c.included));
        assert!(r.flips.is_empty());

        let mut b = a.clone();
        b.stages.retain(|(w, _, _)| w != "fig3@4000");
        b.stages.push(("fig5@4000".to_string(), "wall", 1));
        let r = diff(&a, &b);
        assert_eq!(r.unmatched.len(), 2, "{:?}", r.unmatched);
    }

    #[test]
    fn legacy_and_v3_documents_normalize() {
        let pr1 =
            parse(r#"{"bench":"fused_vs_sequential","workload":{"tracks":20000},"fused_ms":4.0}"#)
                .unwrap();
        let s = summarize(&pr1).unwrap();
        assert_eq!(
            s.stages,
            vec![("fig3@20000".to_string(), "total", 4_000_000)]
        );

        let pr2 =
            parse(r#"{"bench":"obs_overhead","workload":{"tracks":20000},"workload_ms":3.0}"#)
                .unwrap();
        let s2 = summarize(&pr2).unwrap();
        assert_eq!(s2.stages[0].1, "wall");

        // Legacy total falls back as the wall figure in a diff.
        let r = diff(&s, &s);
        assert_eq!(r.wall_delta_ns, 0);
    }

    #[test]
    fn diff_json_round_trips_through_own_parser() {
        let a = summarize(&profile_doc(2_000_000, 900_000, 10, 0)).unwrap();
        let b = summarize(&profile_doc(4_000_000, 1_000_000, 0, 10)).unwrap();
        let r = diff(&a, &b);
        let doc = parse(&render_json("a.json", "b.json", &r)).expect("diff json must parse");
        assert_eq!(
            doc.get("schema_version").unwrap().as_u64(),
            Some(DIFF_SCHEMA_VERSION)
        );
        assert_eq!(doc.get("tool").unwrap().as_str(), Some("obsctl-diff"));
        assert_eq!(doc.get("wall_delta_ns").unwrap().as_u64(), Some(2_100_000));
        let contributors = doc.get("contributors").unwrap().as_arr().unwrap();
        assert!(!contributors.is_empty());
        let text = render_text("a.json", "b.json", &r);
        assert!(text.contains("fig3@4000/numeric"), "{}", text);
    }

    #[test]
    fn attribute_metric_names_same_workload_stages() {
        let a = summarize(&profile_doc(2_000_000, 900_000, 10, 0)).unwrap();
        let b = summarize(&profile_doc(4_000_000, 1_000_000, 0, 10)).unwrap();
        let top = attribute_metric("fig3@4000/wall", &a, &b, 3);
        assert!(!top.is_empty() && top.len() <= 3);
        assert_eq!(top[0].metric, "fig3@4000/numeric");
    }
}
