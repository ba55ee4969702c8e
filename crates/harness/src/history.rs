//! Baseline history: trend tables across every committed `BENCH_pr*.json`.
//!
//! `obsctl history <files…>` ingests the full lineage of committed
//! baselines — legacy PR1 (`fused_ms`) and PR2 (`workload_ms`)
//! single-figure files, v3/v4 observatory files, and the parbench
//! scaling matrix (which `classify` deliberately rejects as a check
//! baseline but whose 1-thread cells are honest serial medians) — and
//! normalizes each to `workload@rows/stage → ns` points. The output is
//! one metric×file trend table with a per-metric slope flag:
//!
//! * `↑` — last ≥ first × (1 + 15%): a sustained regression;
//! * `↓` — last ≤ first ÷ (1 + 15%): a sustained improvement;
//! * `·` — within the band: flat;
//! * `~` — every point below the 50 µs noise floor: unjudgeable.
//!
//! Thresholds reuse the `check` defaults so "history says ↑" and
//! "check would have failed" mean the same thing.

use crate::compare::CheckConfig;
use crate::diff::summarize;
use crate::json::Value;
use crate::schema::{classify, BenchKind};

/// Schema version stamped into `obsctl history --out` documents.
pub const HISTORY_SCHEMA_VERSION: u64 = 1;

/// One baseline file's normalized points.
#[derive(Clone, Debug)]
pub struct HistoryEntry {
    /// File label (basename of the path as given).
    pub label: String,
    /// Shape the file was recognized as.
    pub shape: &'static str,
    /// `workload@rows/stage → ns` points.
    pub points: Vec<(String, u64)>,
}

/// Trend verdict for one metric across the lineage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Slope {
    /// Last point ≥ first × (1 + tolerance): sustained regression.
    Up,
    /// Last point ≤ first ÷ (1 + tolerance): sustained improvement.
    Down,
    /// Within the tolerance band.
    Flat,
    /// All points below the noise floor; slope is meaningless.
    Noise,
}

impl Slope {
    /// One-character table flag.
    pub fn flag(self) -> &'static str {
        match self {
            Slope::Up => "↑",
            Slope::Down => "↓",
            Slope::Flat => "·",
            Slope::Noise => "~",
        }
    }

    /// Stable machine name for the JSON rendering.
    pub fn name(self) -> &'static str {
        match self {
            Slope::Up => "up",
            Slope::Down => "down",
            Slope::Flat => "flat",
            Slope::Noise => "noise",
        }
    }
}

/// One row of the trend table.
#[derive(Clone, Debug)]
pub struct Trend {
    /// `workload@rows/stage`.
    pub metric: String,
    /// One optional ns value per ingested file, in file order.
    pub values: Vec<Option<u64>>,
    /// Slope over the first and last present values.
    pub slope: Slope,
}

/// Normalize one parsed baseline document.
///
/// Accepts every shape ever committed as `BENCH_pr*.json`; a document
/// no recognizer accepts is an error naming both rejections.
pub fn ingest(label: &str, doc: &Value) -> Result<HistoryEntry, String> {
    let shape = match classify(doc) {
        Ok(BenchKind::V3) => "observatory",
        Ok(BenchKind::LegacyFused { .. }) => "legacy-fused",
        Ok(BenchKind::LegacyOverhead { .. }) => "legacy-overhead",
        Err(classify_err) => {
            // The parbench matrix is rejected as a *check* baseline
            // (its cells are not observatory workloads) but its
            // 1-thread cells are honest serial medians worth trending.
            if doc.get("bench").and_then(Value::as_str) == Some("parbench")
                && doc.get("schema_version").and_then(Value::as_u64) == Some(1)
            {
                return ingest_parbench(label, doc);
            }
            return Err(format!(
                "{}: not a recognized baseline ({})",
                label, classify_err
            ));
        }
    };
    // The stage walk and the legacy figure mapping are the diff
    // reader's; history only flattens them into metric names.
    let summary = summarize(doc).map_err(|e| format!("{}: {}", label, e))?;
    Ok(HistoryEntry {
        label: label.to_string(),
        shape,
        points: summary
            .stages
            .into_iter()
            .map(|(workload, stage, ns)| (format!("{}/{}", workload, stage), ns))
            .collect(),
    })
}

fn ingest_parbench(label: &str, doc: &Value) -> Result<HistoryEntry, String> {
    let cells = doc
        .get("cells")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("{}: parbench file has no cells array", label))?;
    let mut points = Vec::new();
    for c in cells {
        if c.get("threads").and_then(Value::as_u64) != Some(1) {
            continue;
        }
        let (Some(name), Some(rows)) = (
            c.get("name").and_then(Value::as_str),
            c.get("rows").and_then(Value::as_u64),
        ) else {
            continue;
        };
        for key in ["numeric", "total", "wall"] {
            if let Some(ns) = c.get(&format!("{}_ns", key)).and_then(Value::as_u64) {
                points.push((format!("{}@{}/{}", name, rows, key), ns));
            }
        }
    }
    if points.is_empty() {
        return Err(format!("{}: parbench file has no 1-thread cells", label));
    }
    Ok(HistoryEntry {
        label: label.to_string(),
        shape: "parbench",
        points,
    })
}

/// Build the metric×file trend table from ingested entries (file order
/// is preserved — pass files oldest-first for meaningful slopes).
pub fn trends(entries: &[HistoryEntry], cfg: &CheckConfig) -> Vec<Trend> {
    let mut metrics: Vec<String> = Vec::new();
    for e in entries {
        for (m, _) in &e.points {
            if !metrics.contains(m) {
                metrics.push(m.clone());
            }
        }
    }
    metrics.sort();

    let tol = 1.0 + cfg.lat_tol_pct / 100.0;
    metrics
        .into_iter()
        .map(|metric| {
            let values: Vec<Option<u64>> = entries
                .iter()
                .map(|e| {
                    e.points
                        .iter()
                        .find(|(m, _)| *m == metric)
                        .map(|&(_, ns)| ns)
                })
                .collect();
            let present: Vec<u64> = values.iter().filter_map(|v| *v).collect();
            let slope = if present.iter().all(|&ns| ns < cfg.lat_floor_ns) {
                Slope::Noise
            } else if present.len() < 2 {
                Slope::Flat
            } else {
                let (first, last) = (present[0] as f64, *present.last().unwrap() as f64);
                if last >= first * tol {
                    Slope::Up
                } else if last <= first / tol {
                    Slope::Down
                } else {
                    Slope::Flat
                }
            };
            Trend {
                metric,
                values,
                slope,
            }
        })
        .collect()
}

fn fmt_cell(v: Option<u64>) -> String {
    match v {
        Some(ns) if ns >= 1_000_000 => format!("{:.2}ms", ns as f64 / 1e6),
        Some(ns) if ns >= 1_000 => format!("{:.0}µs", ns as f64 / 1e3),
        Some(ns) => format!("{}ns", ns),
        None => "—".to_string(),
    }
}

/// Render the human-facing trend table.
pub fn render_text(entries: &[HistoryEntry], rows: &[Trend]) -> String {
    let mut out = String::new();
    out.push_str(&format!("baseline history ({} files)\n", entries.len()));
    out.push_str(&format!("{:<30}", "metric"));
    for e in entries {
        out.push_str(&format!(" {:>12}", e.label));
    }
    out.push_str("  slope\n");
    for t in rows {
        out.push_str(&format!("{:<30}", t.metric));
        for v in &t.values {
            out.push_str(&format!(" {:>12}", fmt_cell(*v)));
        }
        out.push_str(&format!("  {}\n", t.slope.flag()));
    }
    let ups = rows.iter().filter(|t| t.slope == Slope::Up).count();
    let downs = rows.iter().filter(|t| t.slope == Slope::Down).count();
    out.push_str(&format!(
        "\n{} metrics: {} trending up, {} trending down\n",
        rows.len(),
        ups,
        downs
    ));
    out
}

/// Render the machine document (`obsctl history --out`).
pub fn render_json(entries: &[HistoryEntry], rows: &[Trend]) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str(&format!(
        "{{\n  \"schema_version\": {},\n  \"tool\": \"obsctl-history\",\n  \"files\": [",
        HISTORY_SCHEMA_VERSION
    ));
    for (i, e) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"label\": \"{}\", \"shape\": \"{}\", \"points\": {}}}",
            e.label,
            e.shape,
            e.points.len()
        ));
    }
    out.push_str("\n  ],\n  \"trends\": [");
    for (i, t) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let vals: Vec<String> = t
            .values
            .iter()
            .map(|v| match v {
                Some(ns) => ns.to_string(),
                None => "null".to_string(),
            })
            .collect();
        out.push_str(&format!(
            "\n    {{\"metric\": \"{}\", \"values\": [{}], \"slope\": \"{}\"}}",
            t.metric,
            vals.join(", "),
            t.slope.name()
        ));
    }
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn entry(label: &str, points: &[(&str, u64)]) -> HistoryEntry {
        HistoryEntry {
            label: label.to_string(),
            shape: "observatory",
            points: points.iter().map(|&(m, ns)| (m.to_string(), ns)).collect(),
        }
    }

    #[test]
    fn ingests_every_committed_shape() {
        let pr1 =
            parse(r#"{"bench":"fused_vs_sequential","workload":{"tracks":20000},"fused_ms":4.2}"#)
                .unwrap();
        let e = ingest("BENCH_pr1.json", &pr1).unwrap();
        assert_eq!(e.shape, "legacy-fused");
        assert_eq!(e.points, vec![("fig3@20000/total".to_string(), 4_200_000)]);

        let pr2 =
            parse(r#"{"bench":"obs_overhead","workload":{"tracks":20000},"workload_ms":3.9}"#)
                .unwrap();
        assert_eq!(
            ingest("BENCH_pr2.json", &pr2).unwrap().points,
            vec![("fig3@20000/wall".to_string(), 3_900_000)]
        );

        let pr6 = parse(
            r#"{"schema_version":1,"bench":"parbench","cells":[
              {"name":"fig3","rows":2000,"threads":1,"numeric_ns":300,"total_ns":400,"wall_ns":500,
               "tasks_local":0,"tasks_stolen":0},
              {"name":"fig3","rows":2000,"threads":4,"numeric_ns":100,"total_ns":200,"wall_ns":300,
               "tasks_local":9,"tasks_stolen":1}]}"#,
        )
        .unwrap();
        let e = ingest("BENCH_pr6.json", &pr6).unwrap();
        assert_eq!(e.shape, "parbench");
        // Only the 1-thread cells are trended.
        assert_eq!(e.points.len(), 3);
        assert!(e.points.contains(&("fig3@2000/wall".to_string(), 500)));

        let junk = parse(r#"{"bench":"mystery"}"#).unwrap();
        assert!(ingest("x.json", &junk).is_err());
    }

    #[test]
    fn slopes_flag_sustained_moves_and_noise() {
        let cfg = CheckConfig::default();
        let entries = [
            entry(
                "pr1",
                &[
                    ("a/total", 1_000_000),
                    ("b/wall", 100),
                    ("c/numeric", 2_000_000),
                ],
            ),
            entry("pr2", &[("a/total", 1_100_000), ("b/wall", 120)]),
            entry(
                "pr3",
                &[
                    ("a/total", 1_200_000),
                    ("b/wall", 90),
                    ("c/numeric", 1_500_000),
                ],
            ),
        ];
        let rows = trends(&entries, &cfg);
        let slope_of = |m: &str| rows.iter().find(|t| t.metric == m).unwrap().slope;
        // 1.0 ms → 1.2 ms is +20% > 15%: up.
        assert_eq!(slope_of("a/total"), Slope::Up);
        // Sub-floor throughout: noise, regardless of the ±20% wiggle.
        assert_eq!(slope_of("b/wall"), Slope::Noise);
        // 2.0 ms → 1.5 ms is −25%: down; the pr2 gap renders as None.
        assert_eq!(slope_of("c/numeric"), Slope::Down);
        let c = rows.iter().find(|t| t.metric == "c/numeric").unwrap();
        assert_eq!(c.values, vec![Some(2_000_000), None, Some(1_500_000)]);
    }

    #[test]
    fn renderings_are_complete_and_json_round_trips() {
        let cfg = CheckConfig::default();
        let entries = [
            entry("pr1", &[("a/total", 1_000_000)]),
            entry("pr2", &[("a/total", 2_000_000)]),
        ];
        let rows = trends(&entries, &cfg);
        let text = render_text(&entries, &rows);
        assert!(text.contains("a/total") && text.contains("↑"), "{}", text);
        assert!(text.contains("1 trending up"), "{}", text);

        let doc = parse(&render_json(&entries, &rows)).expect("history json must parse");
        assert_eq!(
            doc.get("schema_version").unwrap().as_u64(),
            Some(HISTORY_SCHEMA_VERSION)
        );
        assert_eq!(doc.get("tool").unwrap().as_str(), Some("obsctl-history"));
        let trends_arr = doc.get("trends").unwrap().as_arr().unwrap();
        assert_eq!(trends_arr[0].get("slope").unwrap().as_str(), Some("up"));
        let files = doc.get("files").unwrap().as_arr().unwrap();
        assert_eq!(files.len(), 2);
    }
}
