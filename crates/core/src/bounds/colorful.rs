//! Colorful degeneracy and colorful h-index upper bounds (Lemmas 12–13).
//!
//! A fair clique with per-attribute counts `(x, y)` is itself a colorful
//! `(min(x, y) − 1)`-core: inside the clique every vertex sees at least `min(x, y) − 1`
//! distinct colors of each attribute. Hence `min(x, y) ≤ △_colorful(G') + 1` and, since
//! at least `min(x, y)` clique vertices have `D_min ≥ min(x, y) − 1`, also
//! `min(x, y) ≤ h_colorful(G') + 1`. Combining with the fairness constraint
//! `|x − y| ≤ δ` gives the bounds below (the `+ 1` is the soundness correction
//! discussed in [`crate::bounds`]).

use rfc_graph::colorful::{colorful_core_decomposition, colorful_h_index};
use rfc_graph::coloring::Coloring;
use rfc_graph::AttributedGraph;

use crate::problem::FairCliqueParams;

/// `ubcd`: colorful-degeneracy-based bound.
pub fn colorful_degeneracy_bound(
    sub: &AttributedGraph,
    coloring: &Coloring,
    params: FairCliqueParams,
) -> usize {
    if sub.num_vertices() == 0 {
        return 0;
    }
    let decomp = colorful_core_decomposition(sub, coloring);
    fair_cap(decomp.colorful_degeneracy as usize, params)
}

/// `ubch`: colorful-h-index-based bound.
pub fn colorful_h_index_bound(
    sub: &AttributedGraph,
    coloring: &Coloring,
    params: FairCliqueParams,
) -> usize {
    if sub.num_vertices() == 0 {
        return 0;
    }
    fair_cap(colorful_h_index(sub, coloring), params)
}

/// The fair-clique size cap of a non-empty instance whose colorful degeneracy (or
/// colorful h-index) is `value`: the clique's minority side has at most `value + 1`
/// vertices, and fairness caps the majority at `δ` more.
pub(crate) fn fair_cap(value: usize, params: FairCliqueParams) -> usize {
    params.best_fair_total(value + 1, usize::MAX).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::brute_force_max_fair_clique;
    use rfc_graph::coloring::greedy_coloring;
    use rfc_graph::fixtures;

    #[test]
    fn bounds_dominate_optimum() {
        let params_list = [
            FairCliqueParams::new(1, 1).unwrap(),
            FairCliqueParams::new(2, 0).unwrap(),
            FairCliqueParams::new(3, 1).unwrap(),
            FairCliqueParams::new(3, 2).unwrap(),
        ];
        for g in [
            fixtures::fig1_graph(),
            fixtures::balanced_clique(8),
            fixtures::two_cliques_with_bridge(6, 6),
        ] {
            let coloring = greedy_coloring(&g);
            for &params in &params_list {
                let opt = brute_force_max_fair_clique(&g, params)
                    .map(|c| c.size())
                    .unwrap_or(0);
                let cd = colorful_degeneracy_bound(&g, &coloring, params);
                let ch = colorful_h_index_bound(&g, &coloring, params);
                assert!(cd >= opt, "ubcd={cd} < opt={opt} ({params})");
                assert!(ch >= opt, "ubch={ch} < opt={opt} ({params})");
            }
        }
    }

    #[test]
    fn bound_is_tight_on_balanced_clique() {
        // K8 alternating, k=2, δ=0: colorful degeneracy is 3, so the bound is
        // 2*(3+1) + 0 = 8 = the true optimum.
        let g = fixtures::balanced_clique(8);
        let coloring = greedy_coloring(&g);
        let params = FairCliqueParams::new(2, 0).unwrap();
        assert_eq!(colorful_degeneracy_bound(&g, &coloring, params), 8);
        assert_eq!(colorful_h_index_bound(&g, &coloring, params), 8);
    }

    #[test]
    fn infeasible_when_colorful_structure_too_small() {
        // Path graphs unravel to a colorful 0-core, so cap_min = 1 < k = 2.
        let g = fixtures::path_graph(12);
        let coloring = greedy_coloring(&g);
        let params = FairCliqueParams::new(2, 1).unwrap();
        assert_eq!(colorful_degeneracy_bound(&g, &coloring, params), 0);
    }

    #[test]
    fn degeneracy_variant_no_looser_than_h_index_variant() {
        for g in [fixtures::fig1_graph(), fixtures::balanced_clique(9)] {
            let coloring = greedy_coloring(&g);
            let params = FairCliqueParams::new(2, 1).unwrap();
            assert!(
                colorful_degeneracy_bound(&g, &coloring, params)
                    <= colorful_h_index_bound(&g, &coloring, params)
            );
        }
    }
}
