//! Statistical conformance suite for the paper's accuracy guarantees.
//!
//! These tests treat the estimation drivers as black boxes and check the
//! *statements* of the theorems, not implementation internals:
//!
//! * **Theorem 3.7** — `estimate_triangles` is a `(1 ± ε)`-approximation
//!   with failure probability at most `δ`. We run many independently
//!   seeded trials and require the empirical success rate to clear
//!   `1 − δ` minus three binomial standard errors — a bound loose enough
//!   to be seed-stable but tight enough that a broken estimator (wrong
//!   scaling, correlated repetitions, biased sampler) fails it.
//! * **Theorem 4.6** — the 4-cycle estimator is a constant-factor
//!   approximation. We check a fixed factor-8 envelope per trial, the same
//!   way, and separately that girth-6 inputs (projective-plane incidence
//!   graphs, which also have no triangles) report exactly zero.
//! * **Oracle cross-check** — `graph::exact` counters agree with naive
//!   references implemented here from scratch over the raw edge list, so a
//!   bug in the shared CSR adjacency structure cannot hide in both sides.
//!
//! Trial counts default to 200 and can be reduced for CI smoke runs with
//! `GUARANTEE_TRIALS=50`; failing seeds are printed so any flake is
//! reproducible with a one-line test.

mod common;

use adjstream::algo::amplify::{median_of_survivors, quorum};
use adjstream::algo::estimate::{try_estimate_four_cycles, try_estimate_triangles, Accuracy};
use adjstream::graph::{exact, gen, Graph, GraphBuilder, VertexId};
use adjstream::stream::StreamOrder;
use common::per_seed_triangle_runs;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Trials per statistical test: `GUARANTEE_TRIALS` env override, else 200.
/// The statistical tests are `#[ignore]`d in debug builds (un-optimized
/// samplers are 30-50× slower, which would dominate a plain `cargo test`);
/// run them with `cargo test --release --test guarantees`, or in debug via
/// `-- --ignored` with a small `GUARANTEE_TRIALS`.
fn trials() -> usize {
    let default = 200;
    std::env::var("GUARANTEE_TRIALS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Lower confidence bound for an empirical success rate that should be at
/// least `p`: `p` minus three binomial standard errors at `trials` samples.
/// Three sigma keeps the false-alarm rate of the *test itself* below ~0.2%
/// while still catching estimators whose real failure rate exceeds `δ`.
fn rate_floor(p: f64, trials: usize) -> f64 {
    p - 3.0 * (p * (1.0 - p) / trials as f64).sqrt()
}

/// Run `trials` independently seeded estimates, count successes, and
/// assert the empirical rate clears the floor, printing failing seeds.
fn assert_conformance(name: &str, trials: usize, floor: f64, mut trial: impl FnMut(u64) -> bool) {
    let mut failures = Vec::new();
    for seed in 0..trials as u64 {
        if !trial(seed) {
            failures.push(seed);
        }
    }
    let rate = (trials - failures.len()) as f64 / trials as f64;
    assert!(
        rate >= floor,
        "{name}: empirical success rate {rate:.3} below floor {floor:.3} \
         ({}/{trials} failures; failing seeds: {failures:?})",
        failures.len(),
    );
}

/// Theorem 3.7 conformance on a given graph: each trial estimates with a
/// fresh master seed and succeeds iff `|T̂ − T| ≤ ε·T`.
fn triangle_conformance(name: &str, g: &Graph, epsilon: f64, delta: f64) {
    let truth = exact::count_triangles(g) as f64;
    assert!(truth > 0.0, "{name}: conformance graph must have triangles");
    let trials = trials();
    assert_conformance(name, trials, rate_floor(1.0 - delta, trials), |seed| {
        let order = StreamOrder::shuffled(g.vertex_count(), seed);
        let acc = Accuracy {
            epsilon,
            delta,
            seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1),
            ..Accuracy::default()
        };
        let est = try_estimate_triangles(g, &order, truth as u64, acc).expect("estimate runs");
        (est.count - truth).abs() <= epsilon * truth
    });
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "statistical conformance runs optimized: use `cargo test --release --test guarantees`"
)]
fn theorem_3_7_holds_on_planted_triangles() {
    let mut rng = StdRng::seed_from_u64(37);
    // Triangle-free bipartite background with 64 planted triangles: the
    // exact count is dominated by the plant, and the background supplies
    // the edge mass the sampler has to survive.
    let g = gen::planted_triangles_on_bipartite(100, 100, 2000, 64, &mut rng);
    triangle_conformance("thm3.7/planted", &g, 0.25, 0.1);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "statistical conformance runs optimized: use `cargo test --release --test guarantees`"
)]
fn theorem_3_7_holds_on_gnm() {
    let mut rng = StdRng::seed_from_u64(38);
    let g = gen::gnm(250, 3000, &mut rng);
    triangle_conformance("thm3.7/gnm", &g, 0.25, 0.1);
}

/// Theorem 4.6 conformance: each trial's estimate must land inside a fixed
/// constant-factor envelope of the truth. The theorem promises *some*
/// constant; factor 8 is far above the observed ratios (the ablation table
/// puts them under 4) yet far below what a mis-scaled estimator produces.
fn four_cycle_conformance(name: &str, g: &Graph, factor: f64) {
    let truth = exact::count_four_cycles(g) as f64;
    assert!(truth > 0.0, "{name}: conformance graph must have 4-cycles");
    let trials = trials();
    // The driver amplifies internally at δ = 0.1; use the same rate floor.
    assert_conformance(name, trials, rate_floor(0.9, trials), |seed| {
        let n = g.vertex_count();
        let o1 = StreamOrder::shuffled(n, seed);
        let o2 = StreamOrder::shuffled(n, seed ^ 0xC4C4);
        let acc = Accuracy {
            seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1),
            ..Accuracy::default()
        };
        let est =
            try_estimate_four_cycles(g, [&o1, &o2], truth as u64, acc).expect("estimate runs");
        est.count >= truth / factor && est.count <= truth * factor
    });
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "statistical conformance runs optimized: use `cargo test --release --test guarantees`"
)]
fn theorem_4_6_holds_on_gnm() {
    let mut rng = StdRng::seed_from_u64(46);
    let g = gen::gnm(200, 2400, &mut rng);
    four_cycle_conformance("thm4.6/gnm", &g, 8.0);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "statistical conformance runs optimized: use `cargo test --release --test guarantees`"
)]
fn theorem_4_6_holds_on_planted_four_cycles() {
    // Triangle components contribute zero 4-cycles, so truth = 64 exactly.
    let g = gen::disjoint_triangles(500).disjoint_union(&gen::disjoint_four_cycles(64));
    assert_eq!(exact::count_four_cycles(&g), 64);
    four_cycle_conformance("thm4.6/planted", &g, 8.0);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "statistical conformance runs optimized: use `cargo test --release --test guarantees`"
)]
fn theorem_4_6_reports_zero_on_girth_six_incidence_graphs() {
    // Projective-plane incidence graphs have girth 6: no 4-cycles and no
    // triangles. The zero case must not degrade into a small positive
    // estimate — the estimator's unbiasedness makes 0 exact here.
    for q in [3u32, 5, 7] {
        let g = gen::projective_plane_incidence(q);
        assert_eq!(exact::count_four_cycles(&g), 0, "q = {q}");
        assert!(exact::girth::has_girth_at_least(&g, 6), "q = {q}");
        let n = g.vertex_count();
        for seed in 0..20u64 {
            let o1 = StreamOrder::shuffled(n, seed);
            let o2 = StreamOrder::shuffled(n, seed ^ 0xC4C4);
            let acc = Accuracy {
                seed: seed.wrapping_add(1),
                ..Accuracy::default()
            };
            let est = try_estimate_four_cycles(&g, [&o1, &o2], 1, acc).expect("estimate runs");
            assert_eq!(est.count, 0.0, "q = {q}, seed {seed}: {}", est.count);
        }
    }
}

/// The literal reading of the theorem — `R` independent per-seed runs, two
/// passes each, then the median — satisfies the same guarantee as the
/// batched driver. A reduced-trial run keeps it affordable.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "statistical conformance runs optimized: use `cargo test --release --test guarantees`"
)]
fn theorem_3_7_holds_under_per_seed_runs() {
    let mut rng = StdRng::seed_from_u64(39);
    let g = gen::gnm(150, 1500, &mut rng);
    let truth = exact::count_triangles(&g) as f64;
    assert!(truth > 0.0);
    let trials = trials().min(60);
    assert_conformance("thm3.7/per-seed", trials, rate_floor(0.9, trials), |seed| {
        let order = StreamOrder::shuffled(g.vertex_count(), seed);
        let acc = Accuracy {
            epsilon: 0.25,
            delta: 0.1,
            seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1),
            ..Accuracy::default()
        };
        let runs = per_seed_triangle_runs(&g, &order, truth as u64, &acc);
        let est = median_of_survivors(&runs, quorum(runs.len())).expect("all runs survive");
        (est.median - truth).abs() <= 0.25 * truth
    });
}

// ---------------------------------------------------------------------------
// Oracle cross-check: `graph::exact` vs from-scratch naive counters.
// ---------------------------------------------------------------------------

/// Dense adjacency matrix built from the raw edge list only — shares no
/// code with the CSR structure the `exact` counters traverse.
fn adjacency_matrix(g: &Graph) -> Vec<Vec<bool>> {
    let n = g.vertex_count();
    let mut adj = vec![vec![false; n]; n];
    for e in g.edge_vec() {
        let (u, v) = (e.lo().index(), e.hi().index());
        adj[u][v] = true;
        adj[v][u] = true;
    }
    adj
}

/// O(n³) triangle count over the matrix. Index-based on purpose: the
/// oracle should read like the textbook triple loop, not like the code
/// under test.
#[allow(clippy::needless_range_loop)]
fn naive_triangles(adj: &[Vec<bool>]) -> u64 {
    let n = adj.len();
    let mut count = 0u64;
    for i in 0..n {
        for j in i + 1..n {
            if !adj[i][j] {
                continue;
            }
            for k in j + 1..n {
                if adj[i][k] && adj[j][k] {
                    count += 1;
                }
            }
        }
    }
    count
}

/// 4-cycle count via codegrees: `Σ_{u<v} C(codeg(u,v), 2)` counts each
/// 4-cycle once at its two non-adjacent diagonal pairs... each cycle
/// `a-b-c-d` has diagonals `{a,c}` and `{b,d}`, each contributing one
/// wedge pair, so the sum counts every cycle exactly twice — divide by 2.
fn naive_four_cycles(adj: &[Vec<bool>]) -> u64 {
    let n = adj.len();
    let mut twice = 0u64;
    for u in 0..n {
        for v in u + 1..n {
            let codeg = (0..n).filter(|&w| adj[u][w] && adj[v][w]).count() as u64;
            twice += codeg * codeg.saturating_sub(1) / 2;
        }
    }
    twice / 2
}

/// Wedge (path of length 2) count: `Σ_v C(deg(v), 2)` from the matrix.
fn naive_wedges(adj: &[Vec<bool>]) -> u64 {
    adj.iter()
        .map(|row| {
            let d = row.iter().filter(|&&b| b).count() as u64;
            d * d.saturating_sub(1) / 2
        })
        .sum()
}

/// Strategy: a random simple graph with up to `n` vertices.
fn small_graph(n: u32, max_edges: usize) -> impl Strategy<Value = Graph> {
    prop::collection::vec((0..n, 0..n), 0..max_edges).prop_map(move |pairs| {
        let mut b = GraphBuilder::new(n as usize);
        for (u, v) in pairs {
            if u != v {
                b.add_edge(u.into(), v.into()).unwrap();
            }
        }
        b.build().unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn exact_counters_match_independent_naive_references(g in small_graph(30, 120)) {
        let adj = adjacency_matrix(&g);
        prop_assert_eq!(exact::count_triangles(&g), naive_triangles(&adj));
        prop_assert_eq!(exact::count_four_cycles(&g), naive_four_cycles(&adj));
        prop_assert_eq!(g.wedge_count(), naive_wedges(&adj));
        prop_assert_eq!(exact::wedge_count(&g), naive_wedges(&adj));
    }

    #[test]
    fn codegree_matches_matrix_reference(
        g in small_graph(20, 60),
        u in 0u32..20,
        v in 0u32..20,
    ) {
        let n = g.vertex_count() as u32;
        if u < n && v < n && u != v {
            let adj = adjacency_matrix(&g);
            let expect = (0..n as usize)
                .filter(|&w| adj[u as usize][w] && adj[v as usize][w])
                .count();
            prop_assert_eq!(g.codegree(VertexId(u), VertexId(v)), expect);
        }
    }
}
