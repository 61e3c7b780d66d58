//! Induced subgraphs and edge-filtered subgraphs.
//!
//! Two operations are needed by the fair-clique pipeline:
//!
//! * **Vertex-induced subgraphs** with a compact re-labeling — used when the search
//!   descends into a connected component or a search instance `(R, C)` and wants to run
//!   colorings / decompositions on just those vertices.
//! * **Edge-filtered subgraphs** that keep the original vertex-id space — used by the
//!   colorful-support reductions, which delete edges but must keep vertex ids stable so
//!   that attribute arrays, colorings and later stages still line up.

use crate::graph::{AttributedGraph, EdgeId, VertexId};

/// A vertex-induced subgraph together with the mapping back to the parent graph.
#[derive(Debug, Clone)]
pub struct InducedSubgraph {
    /// The subgraph, with vertices re-labeled to `0..vertices.len()`.
    pub graph: AttributedGraph,
    /// `original[i]` is the parent-graph id of subgraph vertex `i`.
    pub original: Vec<VertexId>,
}

impl InducedSubgraph {
    /// Maps a subgraph vertex id back to the parent graph.
    #[inline]
    pub fn to_original(&self, v: VertexId) -> VertexId {
        self.original[v as usize]
    }

    /// Maps a set of subgraph vertex ids back to parent-graph ids.
    pub fn to_original_set(&self, vs: &[VertexId]) -> Vec<VertexId> {
        vs.iter().map(|&v| self.to_original(v)).collect()
    }
}

/// Builds the subgraph induced by `vertices` (need not be sorted; duplicates ignored).
pub fn induced_subgraph(g: &AttributedGraph, vertices: &[VertexId]) -> InducedSubgraph {
    let mut original: Vec<VertexId> = vertices.to_vec();
    original.sort_unstable();
    original.dedup();
    let mut new_id = vec![u32::MAX; g.num_vertices()];
    for (i, &v) in original.iter().enumerate() {
        new_id[v as usize] = i as u32;
    }
    let attributes = original.iter().map(|&v| g.attribute(v)).collect();
    // Relabeling by rank keeps the id order, so walking the sorted vertices and
    // their sorted rows emits the canonical edges already sorted.
    let mut edges = Vec::new();
    for &v in &original {
        for &u in g.neighbors(v) {
            if u > v && new_id[u as usize] != u32::MAX {
                edges.push((new_id[v as usize], new_id[u as usize]));
            }
        }
    }
    InducedSubgraph {
        graph: AttributedGraph::from_parts(attributes, edges),
        original,
    }
}

/// Builds a subgraph over the *same* vertex-id space keeping only the edges for which
/// `alive[edge_id]` is true. Vertex count and attributes are unchanged; vertices that
/// lose all incident edges simply become isolated.
pub fn edge_filtered_subgraph(g: &AttributedGraph, alive: &[bool]) -> AttributedGraph {
    assert_eq!(
        alive.len(),
        g.num_edges(),
        "edge mask length must equal the number of edges"
    );
    let attributes = g.attributes().to_vec();
    let edges: Vec<(VertexId, VertexId)> = g
        .edge_list()
        .iter()
        .enumerate()
        .filter_map(|(e, &(u, v))| alive[e].then_some((u, v)))
        .collect();
    AttributedGraph::from_parts(attributes, edges)
}

/// Builds a subgraph over the same vertex-id space keeping only edges whose *both*
/// endpoints satisfy `keep_vertex`. This is how vertex-peeling reductions (colorful
/// k-cores) are materialized without re-labeling.
pub fn vertex_filtered_subgraph(g: &AttributedGraph, keep_vertex: &[bool]) -> AttributedGraph {
    assert_eq!(
        keep_vertex.len(),
        g.num_vertices(),
        "vertex mask length must equal the number of vertices"
    );
    let attributes = g.attributes().to_vec();
    let edges: Vec<(VertexId, VertexId)> = g
        .edge_list()
        .iter()
        .copied()
        .filter(|&(u, v)| keep_vertex[u as usize] && keep_vertex[v as usize])
        .collect();
    AttributedGraph::from_parts(attributes, edges)
}

/// Convenience: the ids of edges with both endpoints in the given vertex mask.
pub fn edges_within(g: &AttributedGraph, keep_vertex: &[bool]) -> Vec<EdgeId> {
    g.edge_list()
        .iter()
        .enumerate()
        .filter_map(|(e, &(u, v))| {
            (keep_vertex[u as usize] && keep_vertex[v as usize]).then_some(e as EdgeId)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::Attribute;
    use crate::fixtures;

    #[test]
    fn induced_subgraph_of_clique_part() {
        let g = fixtures::fig1_graph();
        let sub = induced_subgraph(&g, &[6, 7, 9, 10]);
        assert_eq!(sub.graph.num_vertices(), 4);
        assert_eq!(sub.graph.num_edges(), 6); // K4
        assert_eq!(sub.to_original_set(&[0, 1, 2, 3]), vec![6, 7, 9, 10]);
        // Attributes carried over: v7, v8, v10 are b; v11 is a.
        assert_eq!(sub.graph.attribute(0), Attribute::B);
        assert_eq!(sub.graph.attribute(3), Attribute::A);
    }

    #[test]
    fn induced_subgraph_dedups_input() {
        let g = fixtures::path_graph(4);
        let sub = induced_subgraph(&g, &[2, 1, 1, 2, 3]);
        assert_eq!(sub.original, vec![1, 2, 3]);
        assert_eq!(sub.graph.num_edges(), 2);
    }

    #[test]
    fn edge_filtered_subgraph_keeps_vertex_space() {
        let g = fixtures::path_graph(4); // edges (0,1) (1,2) (2,3)
        let mut alive = vec![true; g.num_edges()];
        let drop = g.edge_id(1, 2).unwrap() as usize;
        alive[drop] = false;
        let h = edge_filtered_subgraph(&g, &alive);
        assert_eq!(h.num_vertices(), 4);
        assert_eq!(h.num_edges(), 2);
        assert!(h.has_edge(0, 1));
        assert!(!h.has_edge(1, 2));
        assert_eq!(h.attribute(3), g.attribute(3));
    }

    #[test]
    #[should_panic(expected = "edge mask length")]
    fn edge_filtered_subgraph_validates_mask_len() {
        let g = fixtures::path_graph(3);
        let _ = edge_filtered_subgraph(&g, &[true]);
    }

    #[test]
    fn vertex_filtered_subgraph_isolates_dropped_vertices() {
        let g = fixtures::fig1_graph();
        let mut keep = vec![false; g.num_vertices()];
        for v in [6usize, 7, 9, 10, 11, 12, 13, 14] {
            keep[v] = true;
        }
        let h = vertex_filtered_subgraph(&g, &keep);
        assert_eq!(h.num_vertices(), 15); // same id space
        assert_eq!(h.num_edges(), 28); // just the 8-clique
        assert_eq!(h.degree(0), 0); // v1 is isolated now
        assert_eq!(h.num_non_isolated_vertices(), 8);
    }

    #[test]
    fn edges_within_mask() {
        let g = fixtures::path_graph(4);
        let keep = vec![true, true, true, false];
        let ids = edges_within(&g, &keep);
        assert_eq!(ids.len(), 2);
        for e in ids {
            let (u, v) = g.edge_endpoints(e);
            assert!(keep[u as usize] && keep[v as usize]);
        }
    }
}
