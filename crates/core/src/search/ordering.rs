//! Vertex orderings for canonical branching.
//!
//! The paper's framework orders each component's vertices with the colorful-core based
//! ordering `CalColorOD` (Algorithm 2, line 9): the peeling order of the colorful core
//! decomposition. Vertices that are peeled early (structurally weak) come first, so the
//! candidate sets passed down the search tree stay small — the same trick degeneracy
//! ordering plays for plain maximum clique search.

use rfc_graph::bitset::{BitMatrix, Bitset};
use rfc_graph::colorful::colorful_core_decomposition;
use rfc_graph::coloring::greedy_coloring;
use rfc_graph::cores::core_decomposition;
use rfc_graph::{Attribute, AttributedGraph, VertexId};

/// The vertex ordering used for canonical branching.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BranchOrder {
    /// Colorful-core peeling order (`CalColorOD`) — the paper's choice.
    #[default]
    ColorfulCore,
    /// Classic degeneracy (k-core peeling) order.
    Degeneracy,
    /// Plain vertex-id order (no structural information; ablation baseline).
    VertexId,
}

/// Computes the branching sequence itself: `sequence[i]` is the vertex with rank `i`
/// (branched on `i`-th).
///
/// The bitset-based component search re-labels vertices by rank so that iterating set
/// bits in word order *is* iterating in branching order; it therefore needs the
/// sequence and its inverse ([`ordering_positions`]) side by side.
pub fn ordering_sequence(g: &AttributedGraph, order: BranchOrder) -> Vec<VertexId> {
    match order {
        BranchOrder::ColorfulCore => {
            let coloring = greedy_coloring(g);
            colorful_core_decomposition(g, &coloring).order
        }
        BranchOrder::Degeneracy => core_decomposition(g).order,
        BranchOrder::VertexId => (0..g.num_vertices() as VertexId).collect(),
    }
}

/// Computes the position of every vertex of `g` in the chosen ordering.
///
/// `positions[v]` is the rank of `v`; lower ranks are branched on first. This is the
/// inverse permutation of [`ordering_sequence`].
pub fn ordering_positions(g: &AttributedGraph, order: BranchOrder) -> Vec<usize> {
    positions_of(&ordering_sequence(g, order))
}

/// Inverts a branching sequence into per-vertex positions.
fn positions_of(sequence: &[VertexId]) -> Vec<usize> {
    let mut positions = vec![0usize; sequence.len()];
    for (i, &v) in sequence.iter().enumerate() {
        positions[v as usize] = i;
    }
    positions
}

/// A component graph relabeled by rank in a branching order, with its adjacency
/// over ranks: the form the branch-and-bound, its bound kernel and the enumerator
/// all read, where iterating a rank bitset in ascending order is iterating in
/// branching order.
pub(crate) struct Ranked {
    /// `order[rank]` is the vertex with that rank.
    pub(crate) order: Vec<VertexId>,
    /// `rank_of[v]` is the rank of vertex `v` (the inverse of `order`).
    pub(crate) rank_of: Vec<usize>,
    /// Bit `r` of row `q` is set iff the vertices ranked `q` and `r` are adjacent.
    pub(crate) adj: BitMatrix,
    /// Ranks whose vertex has attribute `a`.
    pub(crate) attr_a: Bitset,
}

impl Ranked {
    /// Ranks the vertices of `g` in `order` and builds the rank adjacency.
    pub(crate) fn new(g: &AttributedGraph, order: BranchOrder) -> Self {
        let n = g.num_vertices();
        let order = ordering_sequence(g, order);
        let rank_of = positions_of(&order);
        let mut adj = BitMatrix::new(n);
        for &(u, v) in g.edge_list() {
            adj.set_edge(rank_of[u as usize], rank_of[v as usize]);
        }
        let mut attr_a = Bitset::new(n);
        for (rank, &v) in order.iter().enumerate() {
            if g.attribute(v) == Attribute::A {
                attr_a.insert(rank);
            }
        }
        Self {
            order,
            rank_of,
            adj,
            attr_a,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfc_graph::fixtures;

    #[test]
    fn positions_are_a_permutation() {
        let g = fixtures::fig1_graph();
        for order in [
            BranchOrder::ColorfulCore,
            BranchOrder::Degeneracy,
            BranchOrder::VertexId,
        ] {
            let pos = ordering_positions(&g, order);
            let mut sorted = pos.clone();
            sorted.sort_unstable();
            assert_eq!(
                sorted,
                (0..g.num_vertices()).collect::<Vec<_>>(),
                "{order:?}"
            );
        }
    }

    #[test]
    fn sequence_and_positions_are_inverse_permutations() {
        let g = fixtures::fig1_graph();
        for order in [
            BranchOrder::ColorfulCore,
            BranchOrder::Degeneracy,
            BranchOrder::VertexId,
        ] {
            let seq = ordering_sequence(&g, order);
            let pos = ordering_positions(&g, order);
            assert_eq!(seq.len(), g.num_vertices());
            for (rank, &v) in seq.iter().enumerate() {
                assert_eq!(pos[v as usize], rank, "{order:?}");
            }
        }
    }

    #[test]
    fn vertex_id_order_is_identity() {
        let g = fixtures::path_graph(5);
        assert_eq!(
            ordering_positions(&g, BranchOrder::VertexId),
            vec![0, 1, 2, 3, 4]
        );
    }

    #[test]
    fn colorful_core_order_puts_weak_vertices_first() {
        // In the Fig.1 fixture the left-hand vertices unravel before the 8-clique, so
        // every clique vertex must appear after every non-clique vertex that gets peeled
        // at a strictly smaller colorful core value. We check a weaker but stable
        // property: the *last* vertex in the order belongs to the planted clique.
        let g = fixtures::fig1_graph();
        let pos = ordering_positions(&g, BranchOrder::ColorfulCore);
        let last = (0..g.num_vertices()).max_by_key(|&v| pos[v]).unwrap() as u32;
        assert!(
            [6, 7, 9, 10, 11, 12, 13, 14].contains(&last),
            "last = {last}"
        );
    }
}
