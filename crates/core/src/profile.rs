//! Per-stage timing of one plan: a view over the journal's stage spans.
//!
//! A [`StageProfile`] lives inside every [`crate::plan::MatmulPlan`]
//! and accumulates, per pipeline stage, the durations the plan's
//! [`aarray_obs::StageSpan`] guards return as the plan is built and
//! executed — the same timestamps the journal and the op ledger see:
//!
//! * **align** — inner key-set intersection + column/row selection;
//! * **transpose** — materializing the left operand's transpose
//!   (transpose-plans only);
//! * **symbolic** — the algebra-independent sparsity discovery pass;
//! * **numeric** — each numeric execution, with its lane count,
//!   dispatch branch, and flops.
//!
//! [`StageProfile::report`] snapshots into a [`StageReport`] whose
//! `Display` renders the per-stage table the repro binary prints under
//! `--profile`. Interior mutability keeps recording compatible with
//! the plan's `&self` execution methods; the stage cells are relaxed
//! atomics and the numeric list a mutex taken once per execution.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

#[derive(Default)]
struct StageCell {
    calls: AtomicU64,
    ns: AtomicU64,
}

impl StageCell {
    fn record(&self, ns: u64) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.ns.fetch_add(ns, Ordering::Relaxed);
    }

    fn read(&self) -> (u64, u64) {
        (
            self.calls.load(Ordering::Relaxed),
            self.ns.load(Ordering::Relaxed),
        )
    }
}

/// One numeric execution of a plan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NumericPass {
    /// Accumulator lanes fed by the traversal (pairs executed).
    pub lanes: usize,
    /// Whether the row-parallel kernel ran.
    pub parallel: bool,
    /// The `⊗`-term count of the traversal.
    pub flops: u64,
    /// Wall-clock nanoseconds.
    pub ns: u64,
}

/// Accumulating per-stage timer owned by a plan. See the
/// [module docs](self).
#[derive(Default)]
pub struct StageProfile {
    align: StageCell,
    transpose: StageCell,
    symbolic: StageCell,
    numeric: Mutex<Vec<NumericPass>>,
}

impl StageProfile {
    /// Record one alignment pass of `ns` nanoseconds.
    pub fn record_align(&self, ns: u64) {
        self.align.record(ns);
    }

    /// Record one transpose materialization of `ns` nanoseconds.
    pub fn record_transpose(&self, ns: u64) {
        self.transpose.record(ns);
    }

    /// Record one symbolic pass of `ns` nanoseconds.
    pub fn record_symbolic(&self, ns: u64) {
        self.symbolic.record(ns);
    }

    /// Record one numeric execution.
    pub fn record_numeric(&self, pass: NumericPass) {
        self.numeric.lock().expect("profile lock").push(pass);
    }

    /// Snapshot into a displayable report.
    pub fn report(&self) -> StageReport {
        let (align_calls, align_ns) = self.align.read();
        let (transpose_calls, transpose_ns) = self.transpose.read();
        let (symbolic_calls, symbolic_ns) = self.symbolic.read();
        StageReport {
            align_calls,
            align_ns,
            transpose_calls,
            transpose_ns,
            symbolic_calls,
            symbolic_ns,
            numeric: self.numeric.lock().expect("profile lock").clone(),
        }
    }
}

/// Point-in-time view of a [`StageProfile`]; `Display` renders the
/// per-stage timing table.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StageReport {
    /// Alignment passes recorded.
    pub align_calls: u64,
    /// Total alignment nanoseconds.
    pub align_ns: u64,
    /// Transpose materializations recorded.
    pub transpose_calls: u64,
    /// Total transpose nanoseconds.
    pub transpose_ns: u64,
    /// Symbolic passes recorded.
    pub symbolic_calls: u64,
    /// Total symbolic nanoseconds.
    pub symbolic_ns: u64,
    /// Numeric executions, in order.
    pub numeric: Vec<NumericPass>,
}

impl StageReport {
    /// Total recorded nanoseconds across all stages.
    pub fn total_ns(&self) -> u64 {
        self.align_ns
            + self.transpose_ns
            + self.symbolic_ns
            + self.numeric.iter().map(|p| p.ns).sum::<u64>()
    }

    /// The report as a stable JSON object (hand-emitted: the workspace
    /// builds against an empty `serde_json` stub). Consumed by
    /// `repro --profile-json` and the `obsctl` harness.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256 + 96 * self.numeric.len());
        s.push('{');
        for (name, calls, ns) in [
            ("align", self.align_calls, self.align_ns),
            ("transpose", self.transpose_calls, self.transpose_ns),
            ("symbolic", self.symbolic_calls, self.symbolic_ns),
        ] {
            s.push_str(&format!(
                "\"{}\":{{\"calls\":{},\"ns\":{}}},",
                name, calls, ns
            ));
        }
        s.push_str("\"numeric\":[");
        for (i, p) in self.numeric.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"lanes\":{},\"parallel\":{},\"flops\":{},\"ns\":{}}}",
                p.lanes, p.parallel, p.flops, p.ns
            ));
        }
        s.push_str(&format!("],\"total_ns\":{}}}", self.total_ns()));
        s
    }
}

/// `12.3 µs`-style human duration.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1} µs", ns as f64 / 1e3)
    } else {
        format!("{} ns", ns)
    }
}

impl fmt::Display for StageReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{:<12} {:>6} {:>12}  detail", "stage", "calls", "time")?;
        for (name, calls, ns) in [
            ("align", self.align_calls, self.align_ns),
            ("transpose", self.transpose_calls, self.transpose_ns),
            ("symbolic", self.symbolic_calls, self.symbolic_ns),
        ] {
            writeln!(f, "{:<12} {:>6} {:>12}", name, calls, fmt_ns(ns))?;
        }
        for (i, p) in self.numeric.iter().enumerate() {
            writeln!(
                f,
                "{:<12} {:>6} {:>12}  {} lane{} · {} · {} flops",
                format!("numeric[{}]", i),
                1,
                fmt_ns(p.ns),
                p.lanes,
                if p.lanes == 1 { "" } else { "s" },
                if p.parallel { "parallel" } else { "serial" },
                p.flops,
            )?;
        }
        writeln!(
            f,
            "{:<12} {:>6} {:>12}",
            "total",
            "",
            fmt_ns(self.total_ns())
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_accumulates_stages() {
        let p = StageProfile::default();
        p.record_align(5_000);
        p.record_align(5_000);
        p.record_transpose(2_000);
        p.record_symbolic(3_000);
        p.record_numeric(NumericPass {
            lanes: 6,
            parallel: false,
            flops: 120,
            ns: 7_000,
        });
        let r = p.report();
        assert_eq!(r.align_calls, 2);
        assert_eq!(r.align_ns, 10_000);
        assert_eq!(r.numeric.len(), 1);
        assert_eq!(r.total_ns(), 10_000 + 2_000 + 3_000 + 7_000);
        let table = r.to_string();
        assert!(table.contains("align"), "{}", table);
        assert!(table.contains("6 lanes · serial · 120 flops"), "{}", table);
        assert!(table.contains("total"), "{}", table);
    }

    #[test]
    fn json_report_is_well_formed_and_complete() {
        let p = StageProfile::default();
        p.record_align(5_000);
        p.record_numeric(NumericPass {
            lanes: 2,
            parallel: true,
            flops: 42,
            ns: 9_000,
        });
        let j = p.report().to_json();
        assert!(j.starts_with('{') && j.ends_with('}'), "{}", j);
        assert!(j.contains("\"align\":{\"calls\":1,\"ns\":5000}"), "{}", j);
        assert!(j.contains("\"transpose\":{\"calls\":0,\"ns\":0}"), "{}", j);
        assert!(
            j.contains("{\"lanes\":2,\"parallel\":true,\"flops\":42,\"ns\":9000}"),
            "{}",
            j
        );
        assert!(j.contains("\"total_ns\":14000"), "{}", j);
        // Balanced braces/brackets — the cheap structural check every
        // hand-emitter in this workspace gets.
        let opens = j.matches('{').count() + j.matches('[').count();
        let closes = j.matches('}').count() + j.matches(']').count();
        assert_eq!(opens, closes, "{}", j);
    }

    #[test]
    fn duration_formatting_picks_unit() {
        assert_eq!(fmt_ns(17), "17 ns");
        assert_eq!(fmt_ns(2_500), "2.5 µs");
        assert_eq!(fmt_ns(3_000_000), "3.000 ms");
        assert_eq!(fmt_ns(1_500_000_000), "1.500 s");
    }
}
