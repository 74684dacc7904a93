//! # Paper-to-code map
//!
//! Where every part of *The Complexity of Counting Cycles in the Adjacency
//! List Streaming Model* (Kallaugher, McGregor, Price, Vorotnikova;
//! PODS 2019) lives in this repository.
//!
//! ## Section 1.2 — the model
//!
//! | Paper | Code |
//! |---|---|
//! | stream of ordered pairs `xy`, each edge twice | [`crate::stream::StreamItem`], [`crate::stream::AdjListStream`] |
//! | adjacency-list promise | [`crate::stream::validate_stream`] (rejects violations) |
//! | adversarial list / within-list order | [`crate::stream::StreamOrder`], [`crate::stream::adversarial`] |
//! | multi-pass, same order for P2 | [`crate::stream::Runner`], [`crate::stream::runner::MultiPassAlgorithm::requires_same_order`] |
//! | space complexity | [`crate::stream::SpaceUsage`], peak tracked by the runner |
//!
//! ## Section 2.1 / 3 — two-pass triangle counting (Theorem 3.7)
//!
//! | Paper | Code |
//! |---|---|
//! | sample size-`m′` edge set `S` (hash-based) | [`crate::algo::common::EdgeSampling`]: bottom-k (fixed size) or threshold |
//! | collect pairs `Q` across P1 and P2 | discovery logic in [`crate::algo::triangle::TwoPassTriangle`] |
//! | subsample `Q` to size `m′` | reservoir ([`crate::stream::sampling::Reservoir`]) |
//! | `H_{e,τ}` suffix counts | per-slot monitors with activation at `τ^{-f}`'s pass-2 list |
//! | `ρ(τ) = argmin H` lightest-edge rule | `TriangleSlots::lightest_slot` in `triangle/kernel.rs` (ties by edge key, a function of `τ` only) |
//! | estimator `k·(T′/m′)·\|{ρ(τ)=e}\|` | [`crate::algo::triangle::TriangleEstimate`] |
//! | naive no-rule estimator (the §2.1 strawman) | `TriangleEstimate::naive_estimate` (ablation A1) |
//! | three-pass exact-`T_e` variant (§2.1) | [`crate::algo::triangle::ThreePassTriangle`] |
//! | `Θ(log 1/δ)` median amplification | [`crate::algo::amplify::median_of_runs`], [`crate::algo::estimate`] |
//! | Lemma 3.2 heaviness diagnostics | [`crate::graph::exact::TriangleStats`] |
//!
//! ## Section 4 — two-pass 4-cycle counting (Theorem 4.6)
//!
//! | Paper | Code |
//! |---|---|
//! | edge sample `S`, wedge set `Q` | [`crate::algo::fourcycle::TwoPassFourCycle`] |
//! | count cycles containing a wedge of `Q` | leaf-pair flagging via [`crate::algo::common::PairWatcher`] |
//! | `k²(f_G+f_B)` distinct-cycle estimate | [`crate::algo::fourcycle::FourCycleEstimator::DistinctCycles`] |
//! | Definition 4.1 heavy/overused/good | [`crate::graph::exact::FourCycleStats`] (Lemma 4.2 checked in tests) |
//!
//! ## Section 5 — lower bounds
//!
//! | Paper | Code |
//! |---|---|
//! | INDEX, DISJ, 3-PJ, 3-DISJ | [`crate::lowerbound::problems`] |
//! | reduction protocol structure (§5.1) | [`crate::lowerbound::protocol::run_protocol`] |
//! | girth-6 field planes (§5.2) | [`crate::graph::gen::ProjectivePlane`] |
//! | Figure 1a (Thm 5.1) | [`crate::lowerbound::gadgets::pj3_triangle_gadget`] |
//! | Figure 1b (Thm 5.2) | [`crate::lowerbound::gadgets::disj3_triangle_gadget`] |
//! | Figure 1c (Thm 5.3) | [`crate::lowerbound::gadgets::index_four_cycle_gadget`] |
//! | Figure 1d (Thm 5.4) | [`crate::lowerbound::gadgets::disj_four_cycle_gadget`] |
//! | Figure 1e (Thm 5.5) | [`crate::lowerbound::gadgets::disj_long_cycle_gadget`] |
//!
//! ## Section 1.1 — prior work implemented as baselines
//!
//! | Paper reference | Code |
//! |---|---|
//! | \[27\] one-pass `Õ(m/√T)` | [`crate::algo::triangle::OnePassTriangle`] |
//! | \[27\] two-pass 0-vs-`T` distinguisher | [`crate::algo::triangle::TriangleDistinguisher`] |
//! | \[12\] `Õ(P₂/T)` wedge sampling | [`crate::algo::triangle::WedgeSamplerTriangle`] |
//! | \[17\] random-order sampling | [`crate::algo::triangle::RandomOrderTriangle`] |
//! | arbitrary-order model (context) | [`crate::stream::arbitrary`], [`crate::algo::triangle::TriestBase`] |
//! | trivial `O(m)` storage | [`crate::algo::exact_stream::ExactStreamCounter`] |
//!
//! ## Table 1 and Figure 1 — reproduction targets
//!
//! One binary per artifact; see DESIGN.md §4 for the full index and
//! EXPERIMENTS.md for paper-vs-measured results.
