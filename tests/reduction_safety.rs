//! Safety of the graph reductions: no reduction stage may change the maximum fair
//! clique (Lemmas 1–4).

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rfc_core::baseline::brute_force_max_fair_clique;
use rfc_core::prelude::*;
use rfc_core::reduction::{
    apply_reductions,
    colorful_core::{colorful_core_reduction, en_colorful_core_reduction},
    colorful_sup::{colorful_sup_alive_edges, colorful_sup_reduction},
    edge_support::EdgeSupportState,
    en_colorful_sup::{en_colorful_sup_alive_edges, en_colorful_sup_reduction},
};
use rfc_datasets::synthetic::{erdos_renyi, one_big_component, BigComponentConfig};
use rfc_graph::colorful::{enhanced_colorful_degrees, ColorGroups};
use rfc_graph::coloring::{greedy_coloring, Coloring};
use rfc_graph::{fixtures, AttributedGraph, GraphBuilder};

fn optimum(g: &AttributedGraph, params: FairCliqueParams) -> Option<usize> {
    brute_force_max_fair_clique(g, params).map(|c| c.size())
}

/// Each individual reduction preserves the optimum on random small graphs.
#[test]
fn individual_reductions_preserve_optimum() {
    for seed in 0..10u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(8..16);
        let p = rng.gen_range(0.3..0.7);
        let g = erdos_renyi(n, p, 0.5, seed.wrapping_add(55));
        for (k, delta) in [(1usize, 1usize), (2, 0), (2, 1), (2, 2), (3, 1)] {
            let params = FairCliqueParams::new(k, delta).unwrap();
            let before = optimum(&g, params);
            let reductions: [(&str, AttributedGraph); 4] = [
                ("ColorfulCore", colorful_core_reduction(&g, k)),
                ("EnColorfulCore", en_colorful_core_reduction(&g, k)),
                ("ColorfulSup", colorful_sup_reduction(&g, k)),
                ("EnColorfulSup", en_colorful_sup_reduction(&g, k)),
            ];
            for (name, reduced) in &reductions {
                let after = optimum(reduced, params);
                assert_eq!(
                    before, after,
                    "{name} changed the optimum (seed {seed}, n {n}, {params})"
                );
            }
        }
    }
}

/// The full pipeline preserves the optimum and never grows the graph.
#[test]
fn full_pipeline_preserves_optimum_and_shrinks() {
    for seed in 0..8u64 {
        let g = erdos_renyi(14, 0.5, 0.5, seed.wrapping_add(70));
        for (k, delta) in [(2usize, 1usize), (3, 1), (3, 2)] {
            let params = FairCliqueParams::new(k, delta).unwrap();
            let (reduced, stats) = apply_reductions(&g, params, &ReductionConfig::default());
            assert!(reduced.num_edges() <= g.num_edges());
            let mut prev = stats.original_edges;
            for s in &stats.stages {
                assert!(s.edges <= prev, "stage {} grew the edge count", s.stage);
                prev = s.edges;
            }
            assert_eq!(
                optimum(&g, params),
                optimum(&reduced, params),
                "seed {seed}, {params}"
            );
        }
    }
}

/// The enhanced variants are at least as aggressive as their plain counterparts.
#[test]
fn enhanced_reductions_dominate_plain_ones() {
    for seed in 0..6u64 {
        let g = erdos_renyi(40, 0.2, 0.5, seed.wrapping_add(500));
        for k in 1..=4usize {
            let core = colorful_core_reduction(&g, k);
            let en_core = en_colorful_core_reduction(&g, k);
            assert!(
                en_core.num_edges() <= core.num_edges(),
                "seed {seed}, k {k}"
            );
            let sup = colorful_sup_reduction(&g, k);
            let en_sup = en_colorful_sup_reduction(&g, k);
            assert!(en_sup.num_edges() <= sup.num_edges(), "seed {seed}, k {k}");
        }
    }
}

/// Reductions are idempotent: applying a stage twice gives the same graph as once.
#[test]
fn reductions_are_idempotent() {
    for seed in 0..4u64 {
        let g = erdos_renyi(30, 0.25, 0.5, seed.wrapping_add(1000));
        for k in 1..=3usize {
            let once = en_colorful_sup_reduction(&g, k);
            let twice = en_colorful_sup_reduction(&once, k);
            assert_eq!(once.num_edges(), twice.num_edges(), "seed {seed}, k {k}");
            let core_once = en_colorful_core_reduction(&g, k);
            let core_twice = en_colorful_core_reduction(&core_once, k);
            assert_eq!(core_once.num_edges(), core_twice.num_edges());
        }
    }
}

/// From-scratch fixpoint of the two edge-support reductions (Lemmas 3 and 4).
///
/// Each round recomputes, for every live edge, the distinct colors of its common
/// neighbors per attribute, counting a common neighbor only while both of its wing edges
/// are live, and then drops every violator at once. Both predicates are monotone in the
/// set of live edges, so this fixpoint does not depend on the order in which a peeling
/// removes edges.
fn reference_alive_edges(g: &AttributedGraph, k: usize, enhanced: bool) -> Vec<bool> {
    let coloring = greedy_coloring(g);
    let mut alive = vec![true; g.num_edges()];
    loop {
        let violators: Vec<usize> = (0..g.num_edges())
            .filter(|&e| alive[e] && reference_violates(g, &coloring, &alive, e, k, enhanced))
            .collect();
        if violators.is_empty() {
            return alive;
        }
        for e in violators {
            alive[e] = false;
        }
    }
}

fn reference_violates(
    g: &AttributedGraph,
    coloring: &Coloring,
    alive: &[bool],
    e: usize,
    k: usize,
    enhanced: bool,
) -> bool {
    let (u, v) = g.edge_endpoints(e as u32);
    // color -> whether an a-neighbor / a b-neighbor of that color is still common.
    let mut colors: BTreeMap<u32, [bool; 2]> = BTreeMap::new();
    g.for_each_common_neighbor(u, v, |w, e_uw, e_vw| {
        if alive[e_uw as usize] && alive[e_vw as usize] {
            colors.entry(coloring.color(w)).or_default()[g.attribute(w).index()] = true;
        }
    });
    // Lemma 3: k-2 of the endpoints' shared attribute and k of the other, or k-1 of
    // each for a mixed edge.
    let need = match (g.attribute(u), g.attribute(v)) {
        (Attribute::A, Attribute::A) => [k.saturating_sub(2), k],
        (Attribute::B, Attribute::B) => [k, k.saturating_sub(2)],
        _ => [k.saturating_sub(1), k.saturating_sub(1)],
    };
    let has = |pattern: [bool; 2]| colors.values().filter(|&&c| c == pattern).count();
    let (only_a, only_b, mixed) = (has([true, false]), has([false, true]), has([true, true]));
    if enhanced {
        // Lemma 4: some split of the mixed colors must meet both demands.
        !(0..=mixed).any(|to_a| only_a + to_a >= need[0] && only_b + mixed - to_a >= need[1])
    } else {
        only_a + mixed < need[0] || only_b + mixed < need[1]
    }
}

/// The 800-vertex single component of the library-solve benchmark: a sparse background,
/// a dense 240-vertex community and a planted 36-vertex fair clique.
fn big_component(seed: u64) -> AttributedGraph {
    let config = BigComponentConfig {
        n: 800,
        edge_prob: 16.0 / 800.0,
        community: 240,
        community_prob: 0.55,
        planted_half: 18,
        prob_a: 0.5,
    };
    one_big_component(&config, seed).0
}

/// `ColorfulSup` and `EnColorfulSup` keep exactly the edges of the reference fixpoint.
#[test]
fn support_reductions_match_the_reference_fixpoint() {
    for seed in 0..6u64 {
        for g in [
            erdos_renyi(40, 0.2, 0.5, seed.wrapping_add(500)),
            erdos_renyi(30, 0.5, 0.5, seed.wrapping_add(1000)),
        ] {
            for k in 1..=4usize {
                assert_eq!(
                    colorful_sup_alive_edges(&g, k),
                    reference_alive_edges(&g, k, false),
                    "ColorfulSup, seed {seed}, k {k}"
                );
                assert_eq!(
                    en_colorful_sup_alive_edges(&g, k),
                    reference_alive_edges(&g, k, true),
                    "EnColorfulSup, seed {seed}, k {k}"
                );
            }
        }
    }
}

/// On the big component, both support reductions match the reference fixpoint, and the
/// per-stage edge counts and serial search counters stay pinned, so a kernel rewrite
/// that changes any reduction result, the branching, or which bound cuts a node shows up
/// here.
#[test]
fn big_component_matches_the_reference_and_pinned_counts() {
    let g = big_component(17);
    assert_eq!(g.num_edges(), 22_730);
    assert_eq!(
        colorful_sup_alive_edges(&g, 3),
        reference_alive_edges(&g, 3, false)
    );
    assert_eq!(
        en_colorful_sup_alive_edges(&g, 3),
        reference_alive_edges(&g, 3, true)
    );
    let params = FairCliqueParams::new(3, 1).unwrap();
    let (_, stats) = apply_reductions(&g, params, &ReductionConfig::default());
    let edges: Vec<usize> = stats.stages.iter().map(|s| s.edges).collect();
    assert_eq!(edges, [22_696, 16_458, 16_443]);

    let query = Query::new(FairnessModel::Relative { k: 3, delta: 1 })
        .with_config(SearchConfig::default().with_threads(ThreadCount::Serial));
    let solution = RfcSolver::new(g).solve(&query).unwrap();
    assert_eq!(solution.best_size(), 36);
    assert_eq!(solution.stats.heuristic_size, Some(36));
    assert_eq!(solution.stats.branches, 214);
    assert_eq!(solution.stats.bound_prunes, 214);
    assert_eq!(
        solution.stats.prune_counts,
        PruneCounts {
            size_bound: 30,
            attr_bound: 3,
            colorful_bound: 180,
            tail_cut: 1,
            ..PruneCounts::default()
        }
    );
}

/// Vertex count of [`wide_clique_graph`]'s clique, on vertices `0..WIDE_CLIQUE`.
const WIDE_CLIQUE: u32 = 70;

/// A 70-vertex balanced clique joined by random edges to a 60-vertex Erdős–Rényi
/// background. Its greedy coloring needs more than 64 colors, so the count kernels see
/// colors on both sides of a 64-bit word.
fn wide_clique_graph(seed: u64) -> AttributedGraph {
    let clique = fixtures::balanced_clique(WIDE_CLIQUE as usize);
    let background = erdos_renyi(60, 0.3, 0.5, seed);
    let mut attrs = clique.attributes().to_vec();
    attrs.extend_from_slice(background.attributes());
    let mut builder = GraphBuilder::with_attributes(attrs);
    builder.add_edges(clique.edge_list().iter().copied());
    builder.add_edges(
        background
            .edge_list()
            .iter()
            .map(|&(u, v)| (u + WIDE_CLIQUE, v + WIDE_CLIQUE)),
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let total = WIDE_CLIQUE + background.num_vertices() as u32;
    for u in 0..WIDE_CLIQUE {
        for w in WIDE_CLIQUE..total {
            if rng.gen_bool(0.15) {
                builder.add_edge(u, w);
            }
        }
    }
    builder.build().unwrap()
}

/// The exclusive/mixed groups of `(color, attribute)` pairs, counted from scratch.
fn groups_from_scratch(neighbors: impl IntoIterator<Item = (u32, Attribute)>) -> ColorGroups {
    let mut colors: BTreeMap<u32, [bool; 2]> = BTreeMap::new();
    for (color, attr) in neighbors {
        colors.entry(color).or_default()[attr.index()] = true;
    }
    let has = |pattern: [bool; 2]| colors.values().filter(|&&c| c == pattern).count();
    ColorGroups {
        exclusive: [has([true, false]), has([false, true])],
        mixed: has([true, true]),
    }
}

/// With more than 64 colors, the per-edge and per-vertex counts equal a from-scratch
/// count and both support reductions match the reference fixpoint, at a k that keeps the
/// clique's edges and one that peels them.
#[test]
fn count_kernels_match_from_scratch_counts_above_64_colors() {
    for seed in [3u64, 4] {
        let g = wide_clique_graph(seed);
        let coloring = greedy_coloring(&g);
        assert!(
            coloring.num_colors > 64,
            "only {} colors",
            coloring.num_colors
        );

        let state = EdgeSupportState::new(&g, &coloring);
        for (e, &(u, v)) in g.edge_list().iter().enumerate() {
            let expected = groups_from_scratch(
                g.common_neighbors(u, v)
                    .into_iter()
                    .map(|w| (coloring.color(w), g.attribute(w))),
            );
            let e = e as u32;
            assert_eq!(state.groups(e), expected, "seed {seed}, edge ({u}, {v})");
            assert_eq!(
                state.colorful_support(e),
                (
                    expected.exclusive[0] + expected.mixed,
                    expected.exclusive[1] + expected.mixed
                ),
                "seed {seed}, edge ({u}, {v})"
            );
        }

        let degrees = enhanced_colorful_degrees(&g, &coloring);
        for v in g.vertices() {
            let expected = groups_from_scratch(
                g.neighbors(v)
                    .iter()
                    .map(|&w| (coloring.color(w), g.attribute(w))),
            );
            assert_eq!(
                degrees[v as usize],
                expected.enhanced_degree(),
                "seed {seed}, vertex {v}"
            );
        }

        // At k = 35 the clique alone gives each of its edges the support Lemma 3 asks
        // for; at k = 40 it gives none, and the sparse background cannot make up for it.
        let clique_edges = |alive: &[bool]| {
            g.edge_list()
                .iter()
                .zip(alive)
                .filter(|&(&(_, v), &keep)| v < WIDE_CLIQUE && keep)
                .count()
        };
        let all = (WIDE_CLIQUE * (WIDE_CLIQUE - 1) / 2) as usize;
        for (k, clique_kept) in [(3, all), (35, all), (40, 0)] {
            let plain = colorful_sup_alive_edges(&g, k);
            assert_eq!(
                plain,
                reference_alive_edges(&g, k, false),
                "seed {seed}, k {k}"
            );
            let enhanced = en_colorful_sup_alive_edges(&g, k);
            assert_eq!(
                enhanced,
                reference_alive_edges(&g, k, true),
                "seed {seed}, k {k}"
            );
            assert_eq!(clique_edges(&plain), clique_kept, "seed {seed}, k {k}");
            assert_eq!(clique_edges(&enhanced), clique_kept, "seed {seed}, k {k}");
        }
    }
}

/// The flat per-edge counts keep a color whose counts reach zero, so removing it again
/// must still fail as if it had never been counted.
#[test]
#[should_panic(expected = "never counted")]
fn removing_an_exhausted_common_neighbor_color_panics() {
    // Edge (0, 1) of the Fig. 2 fixture has seven pairwise non-adjacent common
    // neighbors sharing one color: four a's (2..=5) and three b's (6..=8).
    let g = fixtures::fig2_graph();
    let coloring = greedy_coloring(&g);
    let mut state = EdgeSupportState::new(&g, &coloring);
    let e = g.edge_id(0, 1).unwrap();
    for w in 2..=8u32 {
        state.remove_common_neighbor(e, coloring.color(w), g.attribute(w));
    }
    state.remove_common_neighbor(e, coloring.color(2), Attribute::A);
}

/// Removing more common neighbors of one attribute than were counted panics even with
/// debug assertions off.
#[test]
#[should_panic(expected = "underflow")]
fn removing_too_many_common_neighbors_of_one_attribute_panics() {
    let g = fixtures::fig2_graph();
    let coloring = greedy_coloring(&g);
    let mut state = EdgeSupportState::new(&g, &coloring);
    let e = g.edge_id(0, 1).unwrap();
    for _ in 0..5 {
        state.remove_common_neighbor(e, coloring.color(2), Attribute::A);
    }
}
