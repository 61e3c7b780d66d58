//! Degeneracy and h-index upper bounds (Lemmas 10–11).
//!
//! These bound the plain maximum clique size of the instance subgraph, which in turn
//! bounds the maximum fair clique size. A clique of size `s` forces degeneracy ≥ `s − 1`
//! and h-index ≥ `s − 1`, so the sound bounds are `degeneracy + 1` and `h-index + 1`
//! (see the soundness note in the module docs of [`crate::bounds`]).

use rfc_graph::cores::{core_decomposition, graph_h_index};
use rfc_graph::AttributedGraph;

/// `ub△`: degeneracy-based bound on the clique number of `sub`.
pub fn degeneracy_bound(sub: &AttributedGraph) -> usize {
    if sub.num_vertices() == 0 {
        return 0;
    }
    clique_cap(core_decomposition(sub).degeneracy as usize)
}

/// `ubh`: h-index-based bound on the clique number of `sub`.
pub fn h_index_bound(sub: &AttributedGraph) -> usize {
    if sub.num_vertices() == 0 {
        return 0;
    }
    clique_cap(graph_h_index(sub))
}

/// The clique-size cap of a non-empty instance whose degeneracy (or h-index) is
/// `value`: a clique of size `s` forces `value ≥ s − 1`.
pub(crate) fn clique_cap(value: usize) -> usize {
    value + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfc_graph::fixtures;

    #[test]
    fn bounds_are_tight_on_cliques() {
        let g = fixtures::balanced_clique(7);
        assert_eq!(degeneracy_bound(&g), 7);
        assert_eq!(h_index_bound(&g), 7);
    }

    #[test]
    fn degeneracy_bound_never_exceeds_h_index_bound() {
        // The paper notes MRFC <= ub△ <= ubh.
        for g in [
            fixtures::fig1_graph(),
            fixtures::two_cliques_with_bridge(6, 5),
            fixtures::path_graph(10),
            fixtures::balanced_clique(5),
        ] {
            assert!(degeneracy_bound(&g) <= h_index_bound(&g));
        }
    }

    #[test]
    fn path_bounds() {
        let g = fixtures::path_graph(10);
        assert_eq!(degeneracy_bound(&g), 2); // max clique is an edge
        assert!(h_index_bound(&g) >= 2);
    }

    #[test]
    fn empty_graph_bounds_are_zero() {
        let g = rfc_graph::GraphBuilder::new(0).build().unwrap();
        assert_eq!(degeneracy_bound(&g), 0);
        assert_eq!(h_index_bound(&g), 0);
    }
}
