//! Mutable graph construction.
//!
//! [`GraphBuilder`] accumulates vertices (with attributes) and edges, then produces an
//! immutable [`AttributedGraph`]. The builder is forgiving: duplicate edges and
//! self-loops are silently dropped (real-world edge lists contain both), but edges that
//! reference vertices outside the declared range are reported as [`BuildError`]s.

use crate::attr::Attribute;
use crate::graph::{AttributedGraph, VertexId};

/// Errors reported by [`GraphBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// An edge referenced a vertex id outside `0..n`.
    VertexOutOfRange {
        /// The offending vertex id.
        vertex: VertexId,
        /// The number of declared vertices.
        num_vertices: usize,
    },
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::VertexOutOfRange {
                vertex,
                num_vertices,
            } => write!(
                f,
                "edge endpoint {vertex} out of range for graph with {num_vertices} vertices"
            ),
        }
    }
}

impl std::error::Error for BuildError {}

/// Incremental builder for [`AttributedGraph`].
///
/// Vertices are identified by dense ids `0..n`; attributes default to [`Attribute::A`]
/// until set. Edges may be added in any order and direction.
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    attributes: Vec<Attribute>,
    edges: Vec<(VertexId, VertexId)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `n` vertices, all initially [`Attribute::A`].
    pub fn new(n: usize) -> Self {
        Self {
            attributes: vec![Attribute::A; n],
            edges: Vec::new(),
        }
    }

    /// Creates a builder with the given per-vertex attributes.
    pub fn with_attributes(attributes: Vec<Attribute>) -> Self {
        Self {
            attributes,
            edges: Vec::new(),
        }
    }

    /// The number of declared vertices.
    pub fn num_vertices(&self) -> usize {
        self.attributes.len()
    }

    /// Appends a new vertex with the given attribute and returns its id.
    pub fn add_vertex(&mut self, attr: Attribute) -> VertexId {
        self.attributes.push(attr);
        (self.attributes.len() - 1) as VertexId
    }

    /// Sets the attribute of an existing vertex.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    pub fn set_attribute(&mut self, v: VertexId, attr: Attribute) {
        self.attributes[v as usize] = attr;
    }

    /// Adds an undirected edge `(u, v)`. Self-loops and duplicates are dropped at
    /// [`Self::build`] time; out-of-range endpoints are reported then as well.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) {
        self.edges.push((u, v));
    }

    /// Adds every edge from an iterator of `(u, v)` pairs.
    pub fn add_edges<I: IntoIterator<Item = (VertexId, VertexId)>>(&mut self, edges: I) {
        self.edges.extend(edges);
    }

    /// Number of edge insertions so far (before dedup / self-loop removal).
    pub fn num_pending_edges(&self) -> usize {
        self.edges.len()
    }

    /// Finalizes the builder into an immutable [`AttributedGraph`].
    ///
    /// Self-loops are removed, duplicate edges collapsed, and neighbor lists sorted.
    /// `O(n + m log m)`, or `O(n + m)` when the edges were added in sorted canonical
    /// order (`u < v`, lexicographic), as when they come from another graph's
    /// [`edge_list`](AttributedGraph::edge_list). Such a list, if it is also in
    /// range and free of duplicates, becomes the graph's edge list without a copy.
    pub fn build(self) -> Result<AttributedGraph, BuildError> {
        let n = self.attributes.len();
        let mut prev = None;
        let ready = self.edges.iter().all(|&edge| {
            let fits = edge.0 < edge.1 && (edge.1 as usize) < n && prev < Some(edge);
            prev = Some(edge);
            fits
        });
        if ready {
            return Ok(AttributedGraph::from_parts(self.attributes, self.edges));
        }
        let mut canonical: Vec<(VertexId, VertexId)> = Vec::with_capacity(self.edges.len());
        for (u, v) in self.edges {
            if u as usize >= n {
                return Err(BuildError::VertexOutOfRange {
                    vertex: u,
                    num_vertices: n,
                });
            }
            if v as usize >= n {
                return Err(BuildError::VertexOutOfRange {
                    vertex: v,
                    num_vertices: n,
                });
            }
            if u == v {
                continue; // drop self-loop
            }
            canonical.push((u.min(v), u.max(v)));
        }
        // Edges taken in order from another graph's edge list need no sort.
        if !canonical.windows(2).all(|w| w[0] <= w[1]) {
            canonical.sort_unstable();
        }
        canonical.dedup();
        Ok(AttributedGraph::from_parts(self.attributes, canonical))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_empty_graph() {
        let g = GraphBuilder::new(0).build().unwrap();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn deduplicates_and_drops_self_loops() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(1, 0); // duplicate in the other direction
        b.add_edge(0, 1); // exact duplicate
        b.add_edge(2, 2); // self loop
        b.add_edge(1, 2);
        let g = b.build().unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.degree(2), 1);
        assert!(!g.has_edge(2, 2));
    }

    #[test]
    fn rejects_out_of_range_endpoints() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 5);
        let err = b.build().unwrap_err();
        assert_eq!(
            err,
            BuildError::VertexOutOfRange {
                vertex: 5,
                num_vertices: 2
            }
        );
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn add_vertex_and_attributes() {
        let mut b = GraphBuilder::new(1);
        let v = b.add_vertex(Attribute::B);
        assert_eq!(v, 1);
        b.set_attribute(0, Attribute::B);
        b.add_edge(0, 1);
        let g = b.build().unwrap();
        assert_eq!(g.attribute(0), Attribute::B);
        assert_eq!(g.attribute(1), Attribute::B);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn with_attributes_and_bulk_edges() {
        let attrs = vec![Attribute::A, Attribute::B, Attribute::A, Attribute::B];
        let mut b = GraphBuilder::with_attributes(attrs);
        b.add_edges([(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert_eq!(b.num_pending_edges(), 4);
        let g = b.build().unwrap();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        for v in g.vertices() {
            assert_eq!(g.degree(v), 2);
        }
    }
}
