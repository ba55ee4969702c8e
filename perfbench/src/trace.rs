//! Spans recorded from outside the library, around each call into a
//! layer's public functions. Spans are kept in memory and written out
//! once the run ends; nothing inside the library is read.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Parent index of a span with no parent.
const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer name, e.g. `core.plan.numeric`.
    pub name: &'static str,
    /// The op the span belongs to (0 for set-up).
    pub op: u64,
    /// Index of the enclosing span, or `u32::MAX`.
    pub parent: u32,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder. While off, [`Tracer::span`] only runs
/// its closure.
pub struct Tracer {
    on: Cell<bool>,
    op: Cell<u64>,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<u32>>,
}

impl Tracer {
    /// A tracer, recording or not.
    pub fn new(on: bool) -> Self {
        Tracer {
            on: Cell::new(on),
            op: Cell::new(0),
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    /// Turn recording on or off for the spans that follow.
    pub fn set_on(&self, on: bool) {
        self.on.set(on);
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on.get()
    }

    /// Tag the spans that follow with op id `op`.
    pub fn set_op(&self, op: u64) {
        self.op.set(op);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span named `name`; it ends when the guard drops.
    pub fn enter(&self, name: &'static str) -> Guard<'_> {
        if !self.on.get() {
            return Guard {
                tracer: self,
                idx: None,
            };
        }
        let mut spans = self.spans.borrow_mut();
        let mut stack = self.stack.borrow_mut();
        let parent = stack.last().copied().unwrap_or(NO_PARENT);
        spans.push(Span {
            name,
            op: self.op.get(),
            parent,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        let idx = (spans.len() - 1) as u32;
        stack.push(idx);
        Guard {
            tracer: self,
            idx: Some(idx),
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _g = self.enter(name);
        f()
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Write the spans as tab-separated lines
    /// `op parent name start_ns end_ns`.
    pub fn write_tsv(&self, mut out: impl Write) -> std::io::Result<()> {
        writeln!(out, "op\tparent\tname\tstart_ns\tend_ns")?;
        for s in self.spans.borrow().iter() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                s.parent as i64
            };
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.op, parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// An open span; dropping it records the end time.
pub struct Guard<'t> {
    tracer: &'t Tracer,
    idx: Option<u32>,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some(idx) = self.idx {
            let end = self.tracer.now_ns();
            self.tracer.stack.borrow_mut().pop();
            self.tracer.spans.borrow_mut()[idx as usize].end_ns = end;
        }
    }
}

/// Self time of every span: its duration minus the part of it that
/// its direct children cover (children never overlap: one thread).
fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.ns();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| s.ns().saturating_sub(c))
        .collect()
}

/// Per-layer self time summed within each root span named `root`:
/// `(op, root wall ns, layer → self ns)`, one entry per root span.
pub fn per_root(spans: &[Span], root: &str) -> Vec<(u64, u64, BTreeMap<&'static str, u64>)> {
    let selfs = self_times(spans);
    // Map each span to its outermost ancestor.
    let mut top = vec![0u32; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        top[i] = if s.parent == NO_PARENT {
            i as u32
        } else {
            top[s.parent as usize]
        };
    }
    let mut out: Vec<(u64, u64, BTreeMap<&'static str, u64>)> = Vec::new();
    let mut slot: BTreeMap<u32, usize> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let t = top[i];
        if spans[t as usize].name != root {
            continue;
        }
        let k = *slot.entry(t).or_insert_with(|| {
            out.push((
                spans[t as usize].op,
                spans[t as usize].ns(),
                BTreeMap::new(),
            ));
            out.len() - 1
        });
        if i as u32 != t {
            *out[k].2.entry(s.name).or_insert(0) += selfs[i];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(true);
        t.set_op(7);
        t.span("op", || {
            t.span("a", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("b", || {
                t.span("c", || {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                })
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        let roots = per_root(&spans, "op");
        assert_eq!(roots.len(), 1);
        let (op, wall, layers) = &roots[0];
        assert_eq!(*op, 7);
        assert!(layers["a"] >= 2_000_000 && layers["c"] >= 2_000_000);
        assert!(layers["b"] < layers["c"]);
        let sum: u64 = layers.values().sum();
        assert!(sum <= *wall);
    }

    #[test]
    fn off_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("op", || 3), 3);
        assert!(t.spans().is_empty());
    }
}
