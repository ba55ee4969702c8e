//! The R-MAT workloads. `rmat-build` runs the whole graph → adjacency
//! path per op; `rmat-stream` grows a base graph batch by batch through
//! the incremental layer, reading between batches.

use crate::{check, Bench, Config, QueryPool, Rng, Run, Scale};
use aarray_algebra::pairs::{MaxMin, MaxTimes, MinPlus, PlusTimes};
use aarray_algebra::values::nat::Nat;
use aarray_algebra::DynOpPair;
use aarray_core::theorem::pattern_diff;
use aarray_core::{adjacency_plan, AArray, AdjacencyView, IncidenceBuilder};
use aarray_graph::baseline::direct_adjacency;
use aarray_graph::{generators, MultiGraph};
use std::time::Instant;

/// Graph500 quadrant probabilities.
const GRAPH500: (f64, f64, f64, f64) = (0.57, 0.19, 0.19, 0.05);

/// The seeded R-MAT edge list as `(key, src, dst)` strings.
fn edge_list(cfg: &Config) -> Vec<(String, String, String)> {
    let s = cfg.scale;
    let m = (1usize << s.rmat_scale) * s.edge_factor;
    generators::rmat(s.rmat_scale, m, GRAPH500, cfg.seed)
        .edges()
        .iter()
        .map(|e| (e.key.clone(), e.src.clone(), e.dst.clone()))
        .collect()
}

fn graph_of(edges: &[(String, String, String)]) -> MultiGraph<Nat> {
    let mut g = MultiGraph::new();
    for (k, s, d) in edges {
        g.add_edge(k.as_str(), s.as_str(), d.as_str(), Nat(1), Nat(1));
    }
    g
}

pub(crate) struct Build {
    scale: Scale,
    edges: Vec<(String, String, String)>,
    plus_times: PlusTimes<Nat>,
    max_min: MaxMin<Nat>,
    /// `direct_adjacency` under each pair, pattern-checked in set-up.
    want: Vec<AArray<Nat>>,
    /// Whether every reference passed `pattern_diff(..).is_exact()`.
    want_exact: bool,
    pool: QueryPool,
    rng: Rng,
}

impl Build {
    pub(crate) fn setup(cfg: &Config) -> Self {
        let edges = edge_list(cfg);
        let plus_times = PlusTimes::<Nat>::new();
        let max_min = MaxMin::<Nat>::new();
        let g = graph_of(&edges);
        let want = vec![
            direct_adjacency(&g, &plus_times),
            direct_adjacency(&g, &max_min),
        ];
        let want_exact = want
            .iter()
            .all(|a| pattern_diff(a, g.edge_pattern()).is_exact());
        let mut rng = Rng::new(cfg.seed, 2);
        let pool = QueryPool::draw(&want[0], &mut rng, 256);
        Build {
            scale: cfg.scale,
            edges,
            plus_times,
            max_min,
            want,
            want_exact,
            pool,
            rng,
        }
    }
}

impl Bench for Build {
    fn op(&mut self, _i: u64, run: &mut Run) -> bool {
        let tr = run.tracer;
        let pairs: [&dyn DynOpPair<Nat>; 2] = [&self.plus_times, &self.max_min];

        let window = run.begin_op();
        let t0 = Instant::now();
        let g = tr.span("graph.add_edge", || graph_of(&self.edges));
        let (eout, ein) = tr.span("graph.incidence", || g.incidence_arrays(&self.plus_times));
        let plan = tr.span("core.plan.build", || adjacency_plan(&eout, &ein));
        tr.span("core.plan.symbolic", || {
            plan.symbolic();
        });
        let lanes = tr.span("core.plan.numeric", || plan.execute_all(&pairs));
        run.record_build(t0, self.edges.len() as u64);

        let refs: Vec<&AArray<Nat>> = lanes.iter().collect();
        let asked = run.queries(&refs, &self.pool, &self.scale, &mut self.rng);
        let mut stats = run.end_op(window);

        stats.plan(plan.flops(), pairs.len(), &refs);
        run.ops.push(stats);
        self.want_exact
            && check::lanes_match(&refs, &self.want)
            && check::answers_match(&refs, &self.want, &self.pool, &asked)
    }
}

/// The three stream lanes. Leaked once per set-up so views can borrow
/// them for the life of the process.
struct StreamPairs {
    max_times: MaxTimes<Nat>,
    min_plus: MinPlus<Nat>,
    max_min: MaxMin<Nat>,
}

impl StreamPairs {
    fn all(&self) -> Vec<&dyn DynOpPair<Nat>> {
        vec![&self.max_times, &self.min_plus, &self.max_min]
    }
}

pub(crate) struct Stream {
    scale: Scale,
    pairs: &'static StreamPairs,
    base_out: AArray<Nat>,
    base_in: AArray<Nat>,
    batches: Vec<(AArray<Nat>, AArray<Nat>)>,
    builder: IncidenceBuilder<Nat>,
    view: AdjacencyView<'static, Nat>,
    /// Next batch to append.
    next: usize,
    pool: QueryPool,
    rng: Rng,
}

impl Stream {
    pub(crate) fn setup(cfg: &Config) -> Self {
        let s = cfg.scale;
        let edges = edge_list(cfg);
        let mut rng = Rng::new(cfg.seed, 3);
        // Base: half the edges, with a seeded shift of the batch grid.
        let cut = edges.len() / 2 + rng.below(s.batch_edges);
        let pt = PlusTimes::<Nat>::new();
        let (base_out, base_in) = graph_of(&edges[..cut]).incidence_arrays(&pt);
        let batches = edges[cut..]
            .chunks(s.batch_edges)
            .map(|b| {
                let d_out = AArray::from_triples(
                    &pt,
                    b.iter()
                        .map(|(k, src, _)| (k.as_str(), src.as_str(), Nat(1))),
                );
                let d_in = AArray::from_triples(
                    &pt,
                    b.iter()
                        .map(|(k, _, dst)| (k.as_str(), dst.as_str(), Nat(1))),
                );
                (d_out, d_in)
            })
            .collect();
        let pairs: &'static StreamPairs = Box::leak(Box::new(StreamPairs {
            max_times: MaxTimes::new(),
            min_plus: MinPlus::new(),
            max_min: MaxMin::new(),
        }));
        let builder = IncidenceBuilder::new(base_out.clone(), base_in.clone())
            .expect("base incidence arrays share their edge keys");
        let view = AdjacencyView::new(&builder, pairs.all());
        let pool = QueryPool::draw(view.lane(0), &mut rng, 256);
        Stream {
            scale: s,
            pairs,
            base_out,
            base_in,
            batches,
            builder,
            view,
            next: 0,
            pool,
            rng,
        }
    }

    /// Whether every view lane equals a from-scratch rebuild of the
    /// builder's cumulative incidence arrays.
    fn verify(&self, run: &mut Run) -> bool {
        let t0 = Instant::now();
        let want =
            adjacency_plan(self.builder.eout(), self.builder.ein()).execute_all(&self.pairs.all());
        run.rebuild_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let got: Vec<&AArray<Nat>> = (0..self.view.n_lanes())
            .map(|i| self.view.lane(i))
            .collect();
        check::lanes_match(&got, &want)
    }
}

impl Bench for Stream {
    fn op(&mut self, _i: u64, run: &mut Run) -> bool {
        let tr = run.tracer;
        let (d_out, d_in) = self.batches[self.next].clone();
        let n_edges = d_out.row_keys().len() as u64;

        let window = run.begin_op();
        let t0 = Instant::now();
        let appended = tr.span("core.incremental.append", || {
            self.builder.append_batch(d_out, d_in)
        });
        let report = tr.span("core.incremental.refresh", || {
            self.view.refresh(&self.builder)
        });
        run.record_build(t0, n_edges);

        let lanes: Vec<&AArray<Nat>> = (0..self.view.n_lanes())
            .map(|i| self.view.lane(i))
            .collect();
        run.queries(&lanes, &self.pool, &self.scale, &mut self.rng);
        let mut stats = run.end_op(window);

        stats.delta_lanes = report.incremental_lanes as u64;
        stats.refreshed_lanes = (report.incremental_lanes + report.rebuilt_lanes) as u64;
        run.ops.push(stats);
        let mut ok = appended.is_ok() && !self.view.is_stale(&self.builder);

        self.next += 1;
        let pass_done = self.next == self.batches.len();
        if pass_done || self.next.is_multiple_of(self.scale.verify_every) {
            ok &= self.verify(run);
        }
        if pass_done {
            // Start the next pass from the base, outside the timed window.
            self.next = 0;
            self.builder = IncidenceBuilder::new(self.base_out.clone(), self.base_in.clone())
                .expect("base incidence arrays share their edge keys");
            self.view = AdjacencyView::new(&self.builder, self.pairs.all());
        }
        ok
    }
}
