//! Upper bounds on the maximum fair clique size of a search instance (Section IV-B/C).
//!
//! Given a search instance `(R, C)` — a partial clique `R` and a candidate set `C` —
//! every bound in this module returns a number `ub` such that any relative fair clique
//! contained in `R ∪ C` has at most `ub` vertices. The branch-and-bound search prunes
//! the instance when `ub` is smaller than `2k` (the minimum feasible size) or does not
//! beat the incumbent solution.
//!
//! Bounds implemented (paper lemma in parentheses):
//!
//! | name | module | idea |
//! |---|---|---|
//! | `ubs` (L5) | inline | `|R| + |C|` |
//! | `uba` (L6) | [`advanced`] | per-attribute vertex counts |
//! | `ubc` (L7) | [`advanced`] | number of colors of a fresh coloring of `G' = G[R ∪ C]` |
//! | `ubac` (L8) | [`advanced`] | per-attribute color counts |
//! | `ubeac` (L9) | [`advanced`] | exclusive/mixed color groups, best assignment |
//! | `ub△` (L10) | [`classic`] | degeneracy of `G'` |
//! | `ubh` (L11) | [`classic`] | h-index of `G'` |
//! | `ubcd` (L12) | [`colorful`] | colorful degeneracy of `G'` |
//! | `ubch` (L13) | [`colorful`] | colorful h-index of `G'` |
//! | `ubcp` (L14) | [`colorful_path`] | longest colorful path in the color-ordered DAG |
//!
//! The first five are grouped as the *advanced* bound `ubAD` (their minimum), matching
//! the grouping used in the paper's experiments; the remaining five are the optional
//! *extra* bound selected by [`ExtraBound`].
//!
//! ### Soundness corrections
//!
//! A handful of the paper's lemmas are off by a small additive constant when taken
//! literally (e.g. Lemma 10 states `ub△ = degeneracy(G')`, but a clique of size `s` only
//! forces degeneracy `s − 1`; Lemmas 12–13 bound via the colorful degrees of a single
//! vertex, which undercounts the vertex itself; Lemma 9's `2·min + c_m + δ` can fall
//! below an achievable fair clique). Since this library's search must stay *exact*, the
//! implementations here use the corrected, provably sound forms — `degeneracy + 1`,
//! `h-index + 1`, `2·(colorful degeneracy + 1) + δ`, and the optimum over mixed-color
//! assignments — which preserve the asymptotic pruning behaviour the paper evaluates.
//! The [`advanced`], [`classic`] and [`colorful`] module docs derive each corrected form.
//! The corrected arithmetic lives once, in crate-private helpers of those modules, and
//! both evaluations below call it.
//!
//! ### Two evaluations of one bound
//!
//! [`instance_upper_bound`] is the CSR reference: it accepts any vertex set, builds the
//! induced subgraph `G'` and a fresh greedy coloring, and evaluates every configured
//! bound. The branch-and-bound does not call it: it evaluates the same bound on the
//! bitset rows of the component it already holds (a crate-private kernel). The coloring
//! is bit-parallel with one bitset per color class, no subgraph is built, and the kernel
//! stops at the first bound that falls below the incumbent-derived target, so the
//! expensive extra bound only runs where `ubAD` did not already prune. The kernel
//! colors in the reference's order, so its values are identical; a differential test
//! compares the two on every [`ExtraBound`].

pub mod advanced;
pub(crate) mod bitset_kernel;
pub mod classic;
pub mod colorful;
pub mod colorful_path;

use rfc_graph::coloring::greedy_coloring;
use rfc_graph::subgraph::induced_subgraph;
use rfc_graph::{AttributedGraph, VertexId};

use crate::problem::FairCliqueParams;

/// The optional "non-trivial" bound to combine with the advanced group `ubAD`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExtraBound {
    /// No extra bound: use `ubAD` alone.
    None,
    /// Degeneracy-based bound `ub△` (Lemma 10).
    Degeneracy,
    /// H-index-based bound `ubh` (Lemma 11).
    HIndex,
    /// Colorful-degeneracy-based bound `ubcd` (Lemma 12).
    #[default]
    ColorfulDegeneracy,
    /// Colorful-h-index-based bound `ubch` (Lemma 13).
    ColorfulHIndex,
    /// Colorful-path-based bound `ubcp` (Lemma 14, Algorithm 4).
    ColorfulPath,
}

impl ExtraBound {
    /// All variants, in the order used by Table II of the paper.
    pub const ALL: [ExtraBound; 6] = [
        ExtraBound::None,
        ExtraBound::Degeneracy,
        ExtraBound::HIndex,
        ExtraBound::ColorfulDegeneracy,
        ExtraBound::ColorfulHIndex,
        ExtraBound::ColorfulPath,
    ];

    /// The label used in the paper's tables (`ubAD`, `ubAD+ub△`, …).
    pub fn label(self) -> &'static str {
        match self {
            ExtraBound::None => "ubAD",
            ExtraBound::Degeneracy => "ubAD+ubD",
            ExtraBound::HIndex => "ubAD+ubh",
            ExtraBound::ColorfulDegeneracy => "ubAD+ubcd",
            ExtraBound::ColorfulHIndex => "ubAD+ubch",
            ExtraBound::ColorfulPath => "ubAD+ubcp",
        }
    }
}

/// Which bounds the branch-and-bound search evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundConfig {
    /// Evaluate the advanced group `ubAD = min(ubs, uba, ubc, ubac, ubeac)` on the
    /// instances where expensive bounds are enabled. When `false` only the trivial size
    /// and attribute-feasibility checks run (this is the "basic MaxRFC" configuration).
    pub advanced: bool,
    /// The extra non-trivial bound to combine with `ubAD`.
    pub extra: ExtraBound,
    /// Maximum search depth (number of vertices already committed to `R`) at which the
    /// expensive bounds are still evaluated. The paper applies them "when selecting
    /// vertices to be added to R for the first time", i.e. depth ≤ 1.
    pub max_depth: usize,
}

impl Default for BoundConfig {
    fn default() -> Self {
        Self {
            advanced: true,
            extra: ExtraBound::ColorfulDegeneracy,
            max_depth: 1,
        }
    }
}

impl BoundConfig {
    /// The "basic MaxRFC" configuration: only the trivial size bound.
    pub fn basic() -> Self {
        Self {
            advanced: false,
            extra: ExtraBound::None,
            max_depth: 0,
        }
    }

    /// `ubAD` together with the given extra bound (the `MaxRFC+ub` configurations of the
    /// experiments).
    pub fn with_extra(extra: ExtraBound) -> Self {
        Self {
            advanced: true,
            extra,
            max_depth: 1,
        }
    }
}

/// Computes the configured upper bound for the instance whose vertex set is
/// `R ∪ C = vertices` (a subset of `g`'s vertices).
///
/// Returns `0` when the instance is provably infeasible (no fair clique can exist in
/// it), which prunes the branch outright.
///
/// This is the CSR reference: the branch-and-bound evaluates the same value on its
/// bitset rows instead (see the module docs), and the two are compared in tests.
pub fn instance_upper_bound(
    g: &AttributedGraph,
    vertices: &[VertexId],
    params: FairCliqueParams,
    config: &BoundConfig,
) -> usize {
    if vertices.len() < params.min_size() {
        return 0;
    }
    let mut bound = vertices.len(); // ubs

    // uba only needs attribute counts — always cheap.
    let counts = g.attribute_counts_of(vertices);
    match params.best_fair_total(counts.a(), counts.b()) {
        None => return 0,
        Some(uba) => bound = bound.min(uba),
    }

    if !config.advanced && config.extra == ExtraBound::None {
        return bound;
    }

    // The color-based bounds operate on the induced subgraph G' = G[R ∪ C] with a fresh
    // greedy coloring.
    let sub = induced_subgraph(g, vertices);
    let coloring = greedy_coloring(&sub.graph);

    if config.advanced {
        bound = bound.min(advanced::color_bound(&coloring));
        bound = bound.min(advanced::attribute_color_bound(
            &sub.graph, &coloring, params,
        ));
        bound = bound.min(advanced::enhanced_attribute_color_bound(
            &sub.graph, &coloring, params,
        ));
        if bound < params.min_size() {
            return 0;
        }
    }

    let extra = match config.extra {
        ExtraBound::None => usize::MAX,
        ExtraBound::Degeneracy => classic::degeneracy_bound(&sub.graph),
        ExtraBound::HIndex => classic::h_index_bound(&sub.graph),
        ExtraBound::ColorfulDegeneracy => {
            colorful::colorful_degeneracy_bound(&sub.graph, &coloring, params)
        }
        ExtraBound::ColorfulHIndex => {
            colorful::colorful_h_index_bound(&sub.graph, &coloring, params)
        }
        ExtraBound::ColorfulPath => colorful_path::colorful_path_bound(&sub.graph, &coloring),
    };
    bound = bound.min(extra);
    if bound < params.min_size() {
        0
    } else {
        bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::brute_force_max_fair_clique;
    use rfc_graph::fixtures;

    fn optimum(g: &AttributedGraph, params: FairCliqueParams) -> usize {
        brute_force_max_fair_clique(g, params)
            .map(|c| c.size())
            .unwrap_or(0)
    }

    #[test]
    fn every_bound_dominates_the_optimum_on_fixtures() {
        let graphs = [
            fixtures::fig1_graph(),
            fixtures::balanced_clique(8),
            fixtures::two_cliques_with_bridge(6, 5),
            fixtures::path_graph(7),
        ];
        let params_list = [
            FairCliqueParams::new(1, 0).unwrap(),
            FairCliqueParams::new(2, 1).unwrap(),
            FairCliqueParams::new(3, 1).unwrap(),
            FairCliqueParams::new(3, 2).unwrap(),
        ];
        for g in &graphs {
            let all: Vec<u32> = g.vertices().collect();
            for &params in &params_list {
                let opt = optimum(g, params);
                for extra in ExtraBound::ALL {
                    let config = BoundConfig::with_extra(extra);
                    let ub = instance_upper_bound(g, &all, params, &config);
                    assert!(
                        ub >= opt,
                        "bound {} = {ub} below optimum {opt} for {params}",
                        extra.label()
                    );
                }
            }
        }
    }

    #[test]
    fn infeasible_instances_return_zero() {
        let g = fixtures::two_cliques_with_bridge(0, 6); // all-a clique
        let all: Vec<u32> = g.vertices().collect();
        let params = FairCliqueParams::new(1, 3).unwrap();
        let ub = instance_upper_bound(&g, &all, params, &BoundConfig::default());
        assert_eq!(ub, 0);
        // Too-small instances are also pruned.
        let g2 = fixtures::balanced_clique(4);
        let ub2 = instance_upper_bound(
            &g2,
            &[0, 1, 2],
            FairCliqueParams::new(2, 1).unwrap(),
            &BoundConfig::default(),
        );
        assert_eq!(ub2, 0);
    }

    #[test]
    fn basic_config_only_uses_size_and_attributes() {
        let g = fixtures::fig1_graph();
        let all: Vec<u32> = g.vertices().collect();
        let params = FairCliqueParams::new(3, 1).unwrap();
        let basic = instance_upper_bound(&g, &all, params, &BoundConfig::basic());
        let full = instance_upper_bound(&g, &all, params, &BoundConfig::default());
        assert!(basic >= full, "more bounds can only tighten the value");
        // The basic bound on the full graph is the attribute bound: 10 a's, 5 b's,
        // δ = 1 -> 5 + 6 = 11.
        assert_eq!(basic, 11);
    }

    #[test]
    fn tighter_bounds_never_exceed_ubs() {
        let g = fixtures::fig1_graph();
        let all: Vec<u32> = g.vertices().collect();
        let params = FairCliqueParams::new(2, 2).unwrap();
        for extra in ExtraBound::ALL {
            let ub = instance_upper_bound(&g, &all, params, &BoundConfig::with_extra(extra));
            assert!(ub <= g.num_vertices());
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(ExtraBound::None.label(), "ubAD");
        assert_eq!(ExtraBound::ColorfulPath.label(), "ubAD+ubcp");
        assert_eq!(ExtraBound::default(), ExtraBound::ColorfulDegeneracy);
    }
}
