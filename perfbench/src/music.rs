//! `music-7pair`: the paper's Figures 3–5 on a synthetic music table.
//! Each op builds fresh plans and computes all seven pairs — six fused
//! `NN` lanes plus `max.+` on tropical values — alternating unit `E1`
//! (Figure 3) and doubled `E1` (Figure 5), then runs the query mix.

use crate::{check, Bench, Config, QueryPool, Rng, Run, Scale};
use aarray_algebra::pairs::{MaxMin, MaxPlus, MaxTimes, MinMax, MinPlus, MinTimes, PlusTimes};
use aarray_algebra::values::nn::{nn, NN};
use aarray_algebra::values::tropical::{trop, Tropical};
use aarray_algebra::DynOpPair;
use aarray_core::{adjacency_plan, AArray};
use std::time::Instant;

struct Pairs {
    plus_times: PlusTimes<NN>,
    max_times: MaxTimes<NN>,
    min_times: MinTimes<NN>,
    min_plus: MinPlus<NN>,
    max_min: MaxMin<NN>,
    min_max: MinMax<NN>,
    max_plus: MaxPlus<Tropical>,
}

impl Pairs {
    fn nn(&self) -> [&dyn DynOpPair<NN>; 6] {
        [
            &self.plus_times,
            &self.max_times,
            &self.min_times,
            &self.min_plus,
            &self.max_min,
            &self.min_max,
        ]
    }
}

/// One figure's operands and its per-pair references.
struct Variant {
    e1: AArray<NN>,
    e1t: AArray<Tropical>,
    /// Per-pair `AArray::matmul` results, in `Pairs::nn` order.
    want_nn: Vec<AArray<NN>>,
    want_trop: Vec<AArray<Tropical>>,
}

pub(crate) struct Music {
    scale: Scale,
    pairs: Pairs,
    e2: AArray<NN>,
    e2t: AArray<Tropical>,
    /// Figure 3 (unit `E1`) and Figure 5 (doubled `E1`).
    variants: [Variant; 2],
    pool: QueryPool,
    rng: Rng,
    edges: u64,
}

impl Music {
    pub(crate) fn setup(cfg: &Config, tr: &crate::trace::Tracer) -> Self {
        let s = cfg.scale;
        let table = aarray_bench::synthetic_music_table(s.tracks, s.genres, s.writers, cfg.seed);
        let e = tr.span("d4m.explode", || table.explode());
        let (e1, e2) = tr.span("core.select", || {
            (e.select_cols_str("Genre|*"), e.select_cols_str("Writer|*"))
        });
        let pairs = Pairs {
            plus_times: PlusTimes::new(),
            max_times: MaxTimes::new(),
            min_times: MinTimes::new(),
            min_plus: MinPlus::new(),
            max_min: MaxMin::new(),
            min_max: MinMax::new(),
            max_plus: MaxPlus::new(),
        };
        let e1x2 = e1.map_prune(&pairs.plus_times, |v| nn(2.0 * v.get()));
        let to_trop = |a: &AArray<NN>| a.map_prune(&pairs.max_plus, |v| trop(v.get()));
        let e2t = to_trop(&e2);
        let variant = |e1: AArray<NN>| {
            let e1tr = e1.transpose();
            let want_nn = vec![
                e1tr.matmul(&e2, &pairs.plus_times),
                e1tr.matmul(&e2, &pairs.max_times),
                e1tr.matmul(&e2, &pairs.min_times),
                e1tr.matmul(&e2, &pairs.min_plus),
                e1tr.matmul(&e2, &pairs.max_min),
                e1tr.matmul(&e2, &pairs.min_max),
            ];
            let e1t = to_trop(&e1);
            let want_trop = vec![e1t.transpose().matmul(&e2t, &pairs.max_plus)];
            Variant {
                e1,
                e1t,
                want_nn,
                want_trop,
            }
        };
        let variants = [variant(e1), variant(e1x2)];
        let mut rng = Rng::new(cfg.seed, 1);
        let pool = QueryPool::draw(&variants[0].want_nn[0], &mut rng, 64);
        let edges = e.row_keys().len() as u64;
        Music {
            scale: s,
            pairs,
            e2,
            e2t,
            variants,
            pool,
            rng,
            edges,
        }
    }
}

impl Bench for Music {
    fn op(&mut self, i: u64, run: &mut Run) -> bool {
        let tr = run.tracer;
        let v = &self.variants[(i % 2) as usize];
        let nn_pairs = self.pairs.nn();

        let window = run.begin_op();
        let t0 = Instant::now();
        let plan = tr.span("core.plan.build", || adjacency_plan(&v.e1, &self.e2));
        tr.span("core.plan.symbolic", || {
            plan.symbolic();
        });
        let lanes = tr.span("core.plan.numeric", || plan.execute_all(&nn_pairs));
        let tplan = tr.span("core.plan.build", || adjacency_plan(&v.e1t, &self.e2t));
        tr.span("core.plan.symbolic", || {
            tplan.symbolic();
        });
        let trop = tr.span("core.plan.numeric", || tplan.execute(&self.pairs.max_plus));
        run.record_build(t0, self.edges);

        let nn_refs: Vec<&AArray<NN>> = lanes.iter().collect();
        let asked = run.queries(&nn_refs, &self.pool, &self.scale, &mut self.rng);
        let mut stats = run.end_op(window);

        stats.plan(plan.flops(), nn_pairs.len(), &nn_refs);
        stats.plan(tplan.flops(), 1, &[&trop]);
        run.ops.push(stats);
        check::lanes_match(&nn_refs, &v.want_nn)
            && check::lanes_match(&[&trop], &v.want_trop)
            && check::answers_match(&nn_refs, &v.want_nn, &self.pool, &asked)
    }
}
