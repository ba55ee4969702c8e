//! End-to-end benchmark of graph → adjacency construction over the
//! aarray public API.
//!
//! Three workloads run in a closed loop from one client thread (plus
//! the library's default pool): `music-7pair` (Figures 3–5 at scale),
//! `rmat-build` (edges → multigraph → incidence → plan → numeric →
//! query) and `rmat-stream` (incremental append + refresh with reads
//! in between). Every op's output is checked outside the timed window.
//! A traced run (`--trace 1`) wraps each call into a layer in a span
//! recorded here, never inside the library, and reports per-layer
//! self time, counts and ratios instead of the end-to-end metrics.

#![forbid(unsafe_code)]

pub mod check;
pub mod host;
mod music;
pub mod report;
mod rmat;
pub mod stats;
pub mod trace;

use aarray_algebra::Value;
use aarray_core::AArray;
use aarray_obs::{counters, journal};
use std::hint::black_box;
use std::time::Instant;
use trace::Tracer;

/// A named benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Figures 3–5 seven-pair products on a synthetic music table.
    Music7Pair,
    /// The whole R-MAT graph → adjacency path per op.
    RmatBuild,
    /// Incremental append + refresh on R-MAT batches, reads between.
    RmatStream,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::Music7Pair,
        Workload::RmatBuild,
        Workload::RmatStream,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Music7Pair => "music-7pair",
            Workload::RmatBuild => "rmat-build",
            Workload::RmatStream => "rmat-stream",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input sizes and op shape.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Music table rows (tracks).
    pub tracks: usize,
    /// Distinct genres in the music table.
    pub genres: usize,
    /// Distinct writers in the music table.
    pub writers: usize,
    /// R-MAT has `2^rmat_scale` vertices.
    pub rmat_scale: u32,
    /// R-MAT edges per vertex.
    pub edge_factor: usize,
    /// Edges per streamed batch.
    pub batch_edges: usize,
    /// Streamed batches between two verification rebuilds.
    pub verify_every: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Point lookups per op (half hits, half misses).
    pub gets: usize,
    /// Row lookups per op.
    pub rows: usize,
    /// Range column selects per op.
    pub ranges: usize,
}

impl Scale {
    /// The sizes the benchmark is defined at.
    pub const FULL: Scale = Scale {
        tracks: 20_000,
        genres: 8,
        writers: 100,
        rmat_scale: 14,
        edge_factor: 16,
        batch_edges: 2048,
        verify_every: 16,
        setups: 3,
        gets: 48,
        rows: 16,
        ranges: 4,
    };

    /// A seconds-long version of every workload, for tests.
    pub const SMALL: Scale = Scale {
        tracks: 500,
        genres: 8,
        writers: 40,
        rmat_scale: 8,
        edge_factor: 8,
        batch_edges: 64,
        verify_every: 4,
        setups: 2,
        gets: 8,
        rows: 4,
        ranges: 2,
    };
}

/// One benchmark run's settings.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Seed every input is derived from.
    pub seed: u64,
    /// How long the op loop measures.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
}

/// SplitMix64: the benchmark's own seeded generator for query keys and
/// batch splits.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a purpose-specific `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Seeded query keys for one workload, drawn from an adjacency array
/// in set-up.
#[derive(Clone, Debug, Default)]
pub struct QueryPool {
    /// `(row, col)` point lookups: even indices hit stored entries,
    /// every other odd index misses by key, the rest pair random
    /// present keys.
    pub gets: Vec<(String, String)>,
    /// Row keys for row lookups.
    pub rows: Vec<String>,
    /// `"lo : hi"` column ranges.
    pub ranges: Vec<String>,
}

impl QueryPool {
    /// Draw a pool of `n` of each query kind from `a`'s keys and stored
    /// entries.
    pub fn draw<V: Value>(a: &AArray<V>, rng: &mut Rng, n: usize) -> Self {
        let entries: Vec<(&str, &str)> = a.iter().map(|(r, c, _)| (r, c)).collect();
        let rows = a.row_keys();
        let cols = a.col_keys();
        let mut pool = QueryPool::default();
        for i in 0..n {
            if i % 2 == 0 && !entries.is_empty() {
                let (r, c) = entries[rng.below(entries.len())];
                pool.gets.push((r.to_string(), c.to_string()));
            } else if i % 4 == 1 {
                // An absent column key: a miss by key.
                let r = rows.key(rng.below(rows.len()));
                pool.gets
                    .push((r.to_string(), format!("~absent{}", rng.below(1 << 20))));
            } else {
                // Present keys, possibly no stored entry.
                let r = rows.key(rng.below(rows.len()));
                let c = cols.key(rng.below(cols.len()));
                pool.gets.push((r.to_string(), c.to_string()));
            }
            pool.rows.push(rows.key(rng.below(rows.len())).to_string());
            let width = (cols.len() / 8).max(1);
            let lo = rng.below(cols.len());
            let hi = (lo + width).min(cols.len() - 1);
            pool.ranges
                .push(format!("{} : {}", cols.key(lo), cols.key(hi)));
        }
        pool
    }
}

/// Per-op counts read while the op runs (cheap; kept in every mode).
#[derive(Clone, Copy, Debug, Default)]
pub struct OpStats {
    /// Whether the op's spans were recorded.
    pub traced: bool,
    /// Multiply-adds of every plan the op executed.
    pub flops: u64,
    /// Flops × lanes, summed over executions.
    pub lane_flops: u64,
    /// Stored entries over every lane the op produced.
    pub out_nnz: u64,
    /// Plan executions.
    pub execs: u64,
    /// Plan executions the dispatch rule sends to the pool.
    pub parallel_execs: u64,
    /// Lanes refreshed incrementally.
    pub delta_lanes: u64,
    /// Lanes refreshed at all.
    pub refreshed_lanes: u64,
    /// Journal events recorded during the op.
    pub journal_events: u64,
    /// Journal events dropped during the op.
    pub journal_dropped: u64,
}

impl OpStats {
    /// Account one plan execution of `lanes` lanes.
    pub fn plan(&mut self, flops: u64, lanes: usize, out: &[&AArray<impl Value>]) {
        self.flops += flops;
        self.lane_flops += flops * lanes as u64;
        self.out_nnz += out.iter().map(|a| a.nnz() as u64).sum::<u64>();
        self.execs += 1;
        if aarray_core::would_parallelize(
            flops,
            aarray_core::parallel_flops_threshold(),
            rayon::current_num_threads(),
        ) {
            self.parallel_execs += 1;
        }
    }
}

/// Everything one run measured.
pub struct Run<'t> {
    /// The span recorder (recording only in traced ops).
    pub tracer: &'t Tracer,
    /// Wall time of each set-up, in seconds.
    pub setup_s: Vec<f64>,
    /// Build latency of each untraced op, in ms.
    pub build_ms: Vec<f64>,
    /// Build latency of each traced op, in ms.
    pub build_ms_traced: Vec<f64>,
    /// Point and row lookup latencies, in µs.
    pub lookup_us: Vec<f64>,
    /// Range select latencies, in ms.
    pub range_ms: Vec<f64>,
    /// Verification rebuilds of the incremental view, in ms.
    pub rebuild_ms: Vec<f64>,
    /// Incidence rows turned into adjacency.
    pub edges: u64,
    /// Summed build time of all ops, in seconds.
    pub build_s: f64,
    /// Ops run (the warm-up op included).
    pub attempted: u64,
    /// Ops with any output that failed its check.
    pub failed: u64,
    /// Per-op counts.
    pub ops: Vec<OpStats>,
}

impl<'t> Run<'t> {
    fn new(tracer: &'t Tracer) -> Self {
        Run {
            tracer,
            setup_s: Vec::new(),
            build_ms: Vec::new(),
            build_ms_traced: Vec::new(),
            lookup_us: Vec::new(),
            range_ms: Vec::new(),
            rebuild_ms: Vec::new(),
            edges: 0,
            build_s: 0.0,
            attempted: 0,
            failed: 0,
            ops: Vec::new(),
        }
    }

    /// Open an op's timed window: its root span, and a mark in the
    /// journal.
    pub fn begin_op(&self) -> OpWindow<'t> {
        OpWindow {
            _root: self.tracer.enter("op"),
            events: journal().cursor(),
            dropped: journal().dropped(),
        }
    }

    /// Close an op's timed window, returning its stats with the journal
    /// counts filled in.
    pub fn end_op(&self, window: OpWindow) -> OpStats {
        let stats = OpStats {
            traced: self.tracer.is_on(),
            journal_events: journal().cursor() - window.events,
            journal_dropped: journal().dropped() - window.dropped,
            ..OpStats::default()
        };
        drop(window);
        stats
    }

    /// Record one op's build: `edges` incidence rows in `started`'s
    /// elapsed time.
    pub fn record_build(&mut self, started: Instant, edges: u64) {
        let s = started.elapsed().as_secs_f64();
        if self.tracer.is_on() {
            self.build_ms_traced.push(s * 1e3);
        } else {
            self.build_ms.push(s * 1e3);
        }
        self.build_s += s;
        self.edges += edges;
    }

    /// Run one op's query mix against `lanes`. Each timing covers the
    /// call and the release of its result. Returns what was asked, so
    /// the answers can be checked after the timed window.
    pub fn queries<V: Value>(
        &mut self,
        lanes: &[&AArray<V>],
        pool: &QueryPool,
        scale: &Scale,
        rng: &mut Rng,
    ) -> Asked {
        let tr = self.tracer;
        let mut asked = Asked::default();
        for i in 0..scale.gets {
            let q = (rng.below(pool.gets.len()), i % lanes.len());
            let (r, c) = &pool.gets[q.0];
            let t0 = Instant::now();
            tr.span("core.query.get", || black_box(lanes[q.1].get(r, c)));
            self.lookup_us.push(t0.elapsed().as_secs_f64() * 1e6);
            asked.gets.push(q);
        }
        for i in 0..scale.rows {
            let q = (rng.below(pool.rows.len()), i % lanes.len());
            // The first row lookup on each lane is traced apart: on a
            // refreshed view it also materializes the lane's key strings.
            let name = if i < lanes.len() {
                "core.query.row.first"
            } else {
                "core.query.row"
            };
            let t0 = Instant::now();
            tr.span(name, || {
                black_box(lanes[q.1].row_entries(&pool.rows[q.0]));
            });
            self.lookup_us.push(t0.elapsed().as_secs_f64() * 1e6);
            asked.rows.push(q);
        }
        for i in 0..scale.ranges {
            let q = (rng.below(pool.ranges.len()), i % lanes.len());
            let t0 = Instant::now();
            tr.span("core.select.range", || {
                black_box(lanes[q.1].select_cols_str(&pool.ranges[q.0]));
            });
            self.range_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            asked.ranges.push(q);
        }
        asked
    }
}

/// An open op: the root span and where the journal stood at its start.
pub struct OpWindow<'t> {
    _root: trace::Guard<'t>,
    events: u64,
    dropped: u64,
}

/// The queries one op ran, as `(pool index, lane)` per kind.
#[derive(Clone, Debug, Default)]
pub struct Asked {
    /// Point lookups.
    pub gets: Vec<(usize, usize)>,
    /// Row lookups.
    pub rows: Vec<(usize, usize)>,
    /// Range column selects.
    pub ranges: Vec<(usize, usize)>,
}

/// A workload after set-up: runs ops until told to stop.
trait Bench {
    /// Run op `i` (build, then the query mix), check its outputs
    /// outside the timed window, and return whether they all matched.
    fn op(&mut self, i: u64, run: &mut Run) -> bool;
}

fn setup(cfg: &Config, tracer: &Tracer) -> Box<dyn Bench> {
    match cfg.workload {
        Workload::Music7Pair => Box::new(music::Music::setup(cfg, tracer)),
        Workload::RmatBuild => Box::new(rmat::Build::setup(cfg)),
        Workload::RmatStream => Box::new(rmat::Stream::setup(cfg)),
    }
}

/// What one run reports.
pub struct Outcome {
    /// Ops run.
    pub attempted: u64,
    /// Ops failing a check.
    pub failed: u64,
    /// The metrics of the run's mode, in report order.
    pub metrics: Vec<report::Metric>,
}

/// Set up `cfg.workload` `cfg.scale.setups` times, run its op loop for
/// `cfg.seconds`, and compute the metrics the mode asks for. A traced
/// run writes its spans to `spans_out`.
pub fn execute(cfg: &Config, spans_out: Option<&std::path::Path>) -> Outcome {
    let tracer = Tracer::new(false);
    let counters0 = counters().snapshot();
    let mut run = Run::new(&tracer);

    let mut bench: Option<Box<dyn Bench>> = None;
    tracer.set_on(cfg.trace);
    tracer.set_op(0);
    for _ in 0..cfg.scale.setups.max(1) {
        drop(bench.take());
        let t0 = Instant::now();
        let b = tracer.span("setup", || setup(cfg, &tracer));
        run.setup_s.push(t0.elapsed().as_secs_f64());
        bench = Some(b);
    }
    let mut bench = bench.expect("at least one set-up");

    // Warm-up op: fills the key dictionary and allocator caches. Only
    // its check result is kept.
    tracer.set_on(false);
    let mut warm = Run::new(&tracer);
    run_op(&mut *bench, 1, &mut warm);
    run.attempted += warm.attempted;
    run.failed += warm.failed;

    aarray_core::publish_pool_stats();
    let pool0 = counters().snapshot();
    let t0 = Instant::now();
    let mut i = 2u64;
    while i == 2 || t0.elapsed().as_secs_f64() < cfg.seconds {
        // Traced runs alternate pairs of traced and untraced ops (a
        // pair covers both music variants), so the tracing overhead is
        // measured under the same conditions.
        tracer.set_on(cfg.trace && (i / 2) % 2 == 1);
        run_op(&mut *bench, i, &mut run);
        i += 1;
    }
    tracer.set_on(false);
    aarray_core::publish_pool_stats();
    let end = counters().snapshot();
    let readings = report::Readings {
        pool: end.since(&pool0),
        whole: end.since(&counters0),
        dict_bytes: counters().gauge(aarray_obs::Gauge::InternDictBytes),
    };
    drop(bench);
    if let Some(path) = spans_out {
        let written = std::fs::create_dir_all(path.parent().unwrap_or(path))
            .and_then(|_| std::fs::File::create(path))
            .and_then(|f| tracer.write_tsv(std::io::BufWriter::new(f)));
        if let Err(e) = written {
            eprintln!("could not write {}: {}", path.display(), e);
        }
    }

    let metrics = if cfg.trace {
        report::per_layer(&run, &tracer.spans(), &readings)
    } else {
        report::end_to_end(&run)
    };
    Outcome {
        attempted: run.attempted,
        failed: run.failed,
        metrics,
    }
}

fn run_op(bench: &mut dyn Bench, i: u64, run: &mut Run) {
    run.tracer.set_op(i);
    let ok = bench.op(i, run);
    run.attempted += 1;
    if !ok {
        run.failed += 1;
    }
}
