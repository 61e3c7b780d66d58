//! The immutable CSR attributed graph.
//!
//! [`AttributedGraph`] stores an undirected, unweighted, simple graph in compressed
//! sparse row form together with one binary [`Attribute`] per vertex. Neighbor lists are
//! sorted, which makes adjacency tests (`has_edge`) `O(log d)` and common-neighbor
//! enumeration a linear merge — the pattern the colorful-support reductions rely on.
//!
//! Every undirected edge additionally carries a stable [`EdgeId`] in `0..m`, exposed in
//! the adjacency lists, so that peeling algorithms (truss-style edge removal in
//! `rfc-core::reduction`) can maintain per-edge state in flat arrays.

use crate::attr::{Attribute, AttributeCounts};

/// Vertex identifier: a dense index in `0..n`.
pub type VertexId = u32;

/// Edge identifier: a dense index in `0..m` over undirected edges.
pub type EdgeId = u32;

/// An immutable undirected attributed graph in CSR form.
///
/// Construct through [`crate::GraphBuilder`]; the builder removes self-loops and
/// duplicate edges and validates endpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttributedGraph {
    /// CSR offsets, length `n + 1`.
    offsets: Vec<usize>,
    /// Concatenated sorted neighbor lists, length `2m`.
    neighbors: Vec<VertexId>,
    /// Edge id parallel to `neighbors`, length `2m`.
    edge_ids: Vec<EdgeId>,
    /// Vertex attributes, length `n`.
    attributes: Vec<Attribute>,
    /// Canonical edge list `(u, v)` with `u < v`, length `m`, sorted lexicographically.
    edges: Vec<(VertexId, VertexId)>,
}

impl AttributedGraph {
    /// Internal constructor used by [`crate::GraphBuilder`], [`crate::subgraph`] and
    /// [`crate::delta`]. `O(n + m)`.
    ///
    /// `edges` must be canonical (`u < v < n`), sorted, and free of duplicates;
    /// `attributes.len()` is the vertex count. Filling the rows in that order leaves
    /// each row sorted without sorting it: vertex `x` first receives its smaller
    /// neighbors from the edges `(u, x)` in increasing `u`, then its larger ones from
    /// the edges `(x, v)` in increasing `v`. Row order rests on this precondition, so
    /// it is checked with debug assertions off too.
    ///
    /// # Panics
    /// Panics if `edges` is not canonical, strictly sorted and in range.
    pub(crate) fn from_parts(attributes: Vec<Attribute>, edges: Vec<(VertexId, VertexId)>) -> Self {
        let n = attributes.len();
        // One pass checks the precondition and counts each degree into
        // `offsets[v + 1]`. Edges compare as `u << 32 | v`, and every canonical key
        // is above 0, the key of the self-loop (0, 0).
        let mut offsets = vec![0usize; n + 1];
        let mut prev = 0u64;
        for &(u, v) in &edges {
            let key = u64::from(u) << 32 | u64::from(v);
            assert!(
                u < v && (v as usize) < n && key > prev,
                "CSR edges must be canonical (u < v < n), sorted and free of duplicates"
            );
            prev = key;
            offsets[u as usize + 1] += 1;
            offsets[v as usize + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut neighbors = vec![0 as VertexId; offsets[n]];
        let mut edge_ids = vec![0 as EdgeId; offsets[n]];
        // Vertex `u`'s run of edges `(u, ·)` starts once all its smaller neighbors
        // are in place and no later edge names `u`, so the run fills the rest of
        // its row through a local index.
        let mut cursor = offsets[..n].to_vec();
        let (mut row, mut at) = (None, 0);
        for (eid, &(u, v)) in edges.iter().enumerate() {
            let eid = eid as EdgeId;
            if row != Some(u) {
                row = Some(u);
                at = cursor[u as usize];
            }
            neighbors[at] = v;
            edge_ids[at] = eid;
            at += 1;
            let slot = &mut cursor[v as usize];
            neighbors[*slot] = u;
            edge_ids[*slot] = eid;
            *slot += 1;
        }
        Self {
            offsets,
            neighbors,
            edge_ids,
            attributes,
            edges,
        }
    }

    /// Number of vertices `n`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.attributes.len()
    }

    /// Number of undirected edges `m`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Iterator over all vertex ids `0..n`.
    #[inline]
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.num_vertices() as VertexId
    }

    /// The attribute of vertex `v`.
    #[inline]
    pub fn attribute(&self, v: VertexId) -> Attribute {
        self.attributes[v as usize]
    }

    /// The full attribute slice, indexed by vertex id.
    #[inline]
    pub fn attributes(&self) -> &[Attribute] {
        &self.attributes
    }

    /// Counts of vertices per attribute over the whole graph.
    pub fn attribute_counts(&self) -> AttributeCounts {
        AttributeCounts::from_iter(self.attributes.iter().copied())
    }

    /// Counts of attributes over an arbitrary vertex set.
    pub fn attribute_counts_of(&self, vertices: &[VertexId]) -> AttributeCounts {
        AttributeCounts::from_iter(vertices.iter().map(|&v| self.attribute(v)))
    }

    /// The degree of vertex `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// The maximum degree `d_max` over all vertices (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices() as VertexId)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// The sorted neighbor list of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.neighbors[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Edge ids parallel to [`Self::neighbors`]: `neighbor_edge_ids(v)[i]` is the id of
    /// the undirected edge `(v, neighbors(v)[i])`.
    #[inline]
    pub fn neighbor_edge_ids(&self, v: VertexId) -> &[EdgeId] {
        &self.edge_ids[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Iterator over `(neighbor, edge_id)` pairs of `v`, in neighbor order.
    #[inline]
    pub fn neighbors_with_edges(
        &self,
        v: VertexId,
    ) -> impl Iterator<Item = (VertexId, EdgeId)> + '_ {
        self.neighbors(v)
            .iter()
            .copied()
            .zip(self.neighbor_edge_ids(v).iter().copied())
    }

    /// Whether the edge `(u, v)` exists. `O(log deg(u))`.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        if u == v {
            return false;
        }
        // Search in the smaller adjacency list.
        let (x, y) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(x).binary_search(&y).is_ok()
    }

    /// The edge id of `(u, v)`, if the edge exists. `O(log deg)`.
    pub fn edge_id(&self, u: VertexId, v: VertexId) -> Option<EdgeId> {
        if u == v {
            return None;
        }
        let (x, y) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(x)
            .binary_search(&y)
            .ok()
            .map(|i| self.neighbor_edge_ids(x)[i])
    }

    /// The endpoints `(u, v)` with `u < v` of edge `e`.
    #[inline]
    pub fn edge_endpoints(&self, e: EdgeId) -> (VertexId, VertexId) {
        self.edges[e as usize]
    }

    /// The canonical edge list (each edge once, `u < v`, lexicographically sorted).
    #[inline]
    pub fn edge_list(&self) -> &[(VertexId, VertexId)] {
        &self.edges
    }

    /// Common neighbors of `u` and `v`, by sorted-list merge. `O(deg(u) + deg(v))`.
    pub fn common_neighbors(&self, u: VertexId, v: VertexId) -> Vec<VertexId> {
        let mut out = Vec::new();
        let (mut i, mut j) = (0usize, 0usize);
        let (nu, nv) = (self.neighbors(u), self.neighbors(v));
        while i < nu.len() && j < nv.len() {
            match nu[i].cmp(&nv[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(nu[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out
    }

    /// Calls `f(w, edge_id(u,w), edge_id(v,w))` for every common neighbor `w` of `u`
    /// and `v`. Used by the truss-style peeling reductions, which need the incident edge
    /// ids of both wings of each triangle.
    pub fn for_each_common_neighbor<F>(&self, u: VertexId, v: VertexId, mut f: F)
    where
        F: FnMut(VertexId, EdgeId, EdgeId),
    {
        let (mut i, mut j) = (0usize, 0usize);
        let (nu, nv) = (self.neighbors(u), self.neighbors(v));
        let (eu, ev) = (self.neighbor_edge_ids(u), self.neighbor_edge_ids(v));
        while i < nu.len() && j < nv.len() {
            match nu[i].cmp(&nv[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    f(nu[i], eu[i], ev[j]);
                    i += 1;
                    j += 1;
                }
            }
        }
    }

    /// Whether the given vertex set induces a clique (every pair adjacent).
    pub fn is_clique(&self, vertices: &[VertexId]) -> bool {
        for (i, &u) in vertices.iter().enumerate() {
            for &v in &vertices[i + 1..] {
                if !self.has_edge(u, v) {
                    return false;
                }
            }
        }
        true
    }

    /// Number of vertices with degree at least one.
    pub fn num_non_isolated_vertices(&self) -> usize {
        (0..self.num_vertices() as VertexId)
            .filter(|&v| self.degree(v) > 0)
            .count()
    }

    /// Summary statistics of the graph (Table I style), including the
    /// memory-footprint estimates the scale tier reports: what this CSR costs
    /// resident, and what a dense [`crate::bitset::BitMatrix`] adjacency over the
    /// same vertex count would cost if the search layer built one.
    pub fn stats(&self) -> GraphStats {
        let n = self.num_vertices();
        let csr_bytes = (n + 1) * std::mem::size_of::<usize>()          // offsets
            + self.neighbors.len() * std::mem::size_of::<VertexId>()    // neighbors
            + self.edge_ids.len() * std::mem::size_of::<EdgeId>()       // edge ids
            + n * std::mem::size_of::<Attribute>()                      // attributes
            + self.edges.len() * std::mem::size_of::<(VertexId, VertexId)>(); // edge list
        let words_per_row = n.div_ceil(64);
        let bitmatrix_bytes = n.saturating_mul(words_per_row).saturating_mul(8);
        GraphStats {
            num_vertices: n,
            num_edges: self.num_edges(),
            max_degree: self.max_degree(),
            attribute_counts: self.attribute_counts(),
            csr_bytes,
            bitmatrix_bytes,
        }
    }
}

/// Summary statistics of an attributed graph, matching the columns of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphStats {
    /// Number of vertices `n = |V|`.
    pub num_vertices: usize,
    /// Number of undirected edges `m = |E|`.
    pub num_edges: usize,
    /// Maximum degree `d_max`.
    pub max_degree: usize,
    /// Per-attribute vertex counts.
    pub attribute_counts: AttributeCounts,
    /// Estimated resident bytes of the CSR representation itself (offsets,
    /// neighbor and edge-id arrays, attributes, canonical edge list).
    pub csr_bytes: usize,
    /// Estimated bytes of a dense bit-matrix adjacency over `n` vertices
    /// (`n * ⌈n/64⌉` words) — what the branch-and-bound layer would allocate if
    /// handed this graph whole instead of the reduced residual. The scale tier
    /// prints both so users can see why a graph does or doesn't fit.
    pub bitmatrix_bytes: usize,
}

impl std::fmt::Display for GraphStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} m={} dmax={} attrs={}",
            self.num_vertices, self.num_edges, self.max_degree, self.attribute_counts
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::delta::GraphDelta;
    use crate::fixtures::seeded::{random_graph, SplitMix64};
    use crate::subgraph::{edge_filtered_subgraph, induced_subgraph, vertex_filtered_subgraph};

    /// The per-row-sorting constructor `from_parts` replaced, kept as the oracle
    /// every constructor's CSR must equal.
    fn reference_from_parts(
        attributes: Vec<Attribute>,
        edges: Vec<(VertexId, VertexId)>,
    ) -> AttributedGraph {
        let n = attributes.len();
        let mut degrees = vec![0usize; n];
        for &(u, v) in &edges {
            degrees[u as usize] += 1;
            degrees[v as usize] += 1;
        }
        let mut offsets = vec![0usize];
        for d in &degrees {
            offsets.push(offsets.last().unwrap() + d);
        }
        let mut neighbors = vec![0 as VertexId; offsets[n]];
        let mut edge_ids = vec![0 as EdgeId; offsets[n]];
        let mut cursor = offsets[..n].to_vec();
        for (eid, &(u, v)) in edges.iter().enumerate() {
            for (a, b) in [(u, v), (v, u)] {
                neighbors[cursor[a as usize]] = b;
                edge_ids[cursor[a as usize]] = eid as EdgeId;
                cursor[a as usize] += 1;
            }
        }
        for v in 0..n {
            let (lo, hi) = (offsets[v], offsets[v + 1]);
            let mut pairs: Vec<(VertexId, EdgeId)> = neighbors[lo..hi]
                .iter()
                .copied()
                .zip(edge_ids[lo..hi].iter().copied())
                .collect();
            pairs.sort_unstable();
            for (i, (nbr, eid)) in pairs.into_iter().enumerate() {
                neighbors[lo + i] = nbr;
                edge_ids[lo + i] = eid;
            }
        }
        AttributedGraph {
            offsets,
            neighbors,
            edge_ids,
            attributes,
            edges,
        }
    }

    /// The reference CSR of `g`'s own attributes and edge list.
    fn reference_of(g: &AttributedGraph) -> AttributedGraph {
        reference_from_parts(g.attributes().to_vec(), g.edge_list().to_vec())
    }

    #[test]
    fn every_constructor_builds_the_reference_csr() {
        let mut rng = SplitMix64(3);
        for seed in 0..12usize {
            let n = 1 + 23 * seed;
            // Builder input in random order with repeats and self-loops.
            let pairs: Vec<(VertexId, VertexId)> = (0..[n / 2, 3 * n, 10 * n][seed % 3])
                .map(|_| (rng.vertex(n), rng.vertex(n)))
                .collect();
            let attributes: Vec<Attribute> = (0..n)
                .map(|_| [Attribute::A, Attribute::B][rng.below(2)])
                .collect();
            let mut canonical: Vec<(VertexId, VertexId)> = pairs
                .iter()
                .filter(|&&(u, v)| u != v)
                .map(|&(u, v)| (u.min(v), u.max(v)))
                .collect();
            canonical.sort_unstable();
            canonical.dedup();
            let mut b = GraphBuilder::with_attributes(attributes.clone());
            b.add_edges(pairs);
            let g = b.build().unwrap();
            assert_eq!(g, reference_from_parts(attributes, canonical));

            // A builder fed a sorted canonical list skips its copies and its sort.
            let rebuild = |edges: &[(VertexId, VertexId)]| {
                let mut b = GraphBuilder::with_attributes(g.attributes().to_vec());
                b.add_edges(edges.iter().copied());
                b.build()
            };
            assert_eq!(rebuild(g.edge_list()).unwrap(), g);
            // Sorted lists that miss that path by one edge still build `g`, or fail
            // on an endpoint out of range.
            if let Some(&(u, v)) = g.edge_list().get(rng.below(g.num_edges().max(1))) {
                let sorted = |drop: bool, extra| {
                    let mut edges = g.edge_list().to_vec();
                    edges.retain(|&e| !drop || e != (u, v));
                    edges.push(extra);
                    edges.sort_unstable();
                    rebuild(&edges)
                };
                assert_eq!(sorted(false, (u, v)).unwrap(), g, "duplicate");
                assert_eq!(sorted(false, (u, u)).unwrap(), g, "self-loop");
                assert_eq!(sorted(true, (v, u)).unwrap(), g, "reversed pair");
                let out_of_range = crate::builder::BuildError::VertexOutOfRange {
                    vertex: n as VertexId,
                    num_vertices: n,
                };
                let last = (n as VertexId - 1, n as VertexId);
                assert_eq!(sorted(false, last), Err(out_of_range), "out of range");
            }

            // Induced subgraph of an unsorted subset with repeats.
            let subset: Vec<VertexId> = (0..n / 2 + 1).map(|_| rng.vertex(n)).collect();
            let sub = induced_subgraph(&g, &subset);
            let rank = |v: VertexId| sub.original.binary_search(&v).ok().map(|r| r as u32);
            let mut edges: Vec<(VertexId, VertexId)> = g
                .edge_list()
                .iter()
                .filter_map(|&(u, v)| Some((rank(u)?, rank(v)?)))
                .collect();
            edges.sort_unstable();
            let attrs = sub.original.iter().map(|&v| g.attribute(v)).collect();
            assert_eq!(sub.graph, reference_from_parts(attrs, edges));

            let alive: Vec<bool> = (0..g.num_edges()).map(|_| rng.below(3) > 0).collect();
            let h = edge_filtered_subgraph(&g, &alive);
            assert_eq!(h, reference_of(&h));
            let keep: Vec<bool> = (0..n).map(|_| rng.below(4) > 0).collect();
            let h = vertex_filtered_subgraph(&g, &keep);
            assert_eq!(h, reference_of(&h));

            let mut d = GraphDelta::new();
            for _ in 0..n / 3 + 1 {
                let (u, v) = (rng.vertex(n), rng.vertex(n));
                if d.has_edge(&g, u, v) {
                    d.remove_edge(&g, u, v).unwrap();
                } else if u != v {
                    d.insert_edge(&g, u, v).unwrap();
                }
            }
            let fresh = d.insert_vertex(&g, Attribute::B);
            d.insert_edge(&g, fresh, rng.vertex(n)).unwrap();
            let applied = d.apply(&g);
            assert_eq!(applied, reference_of(&applied));
        }
        // The seeded graph helper goes through the builder too.
        let g = random_graph(50, 200, 1);
        assert_eq!(g, reference_of(&g));
    }

    #[test]
    #[should_panic(expected = "canonical")]
    fn from_parts_rejects_unsorted_edges() {
        AttributedGraph::from_parts(vec![Attribute::A; 3], vec![(1, 2), (0, 1)]);
    }

    #[test]
    #[should_panic(expected = "canonical")]
    fn from_parts_rejects_non_canonical_edges() {
        AttributedGraph::from_parts(vec![Attribute::A; 3], vec![(0, 1), (2, 1)]);
    }

    #[test]
    #[should_panic(expected = "canonical")]
    fn from_parts_rejects_duplicate_edges() {
        AttributedGraph::from_parts(vec![Attribute::A; 3], vec![(0, 1), (0, 1)]);
    }

    #[test]
    #[should_panic(expected = "canonical")]
    fn from_parts_rejects_out_of_range_ends() {
        AttributedGraph::from_parts(vec![Attribute::A; 3], vec![(0, 3)]);
    }

    /// The 15-vertex example graph of Fig. 1 in the paper (1-based ids in the figure,
    /// 0-based here: paper vertex `v_i` is id `i - 1`).
    fn fig1_graph() -> AttributedGraph {
        crate::fixtures::fig1_graph()
    }

    fn small_graph() -> AttributedGraph {
        // Triangle 0-1-2 plus pendant 3 attached to 2.
        let mut b = GraphBuilder::new(4);
        b.set_attribute(0, Attribute::A);
        b.set_attribute(1, Attribute::B);
        b.set_attribute(2, Attribute::A);
        b.set_attribute(3, Attribute::B);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(0, 2);
        b.add_edge(2, 3);
        b.build().unwrap()
    }

    #[test]
    fn basic_counts_and_degrees() {
        let g = small_graph();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(2), 3);
        assert_eq!(g.degree(3), 1);
        assert_eq!(g.max_degree(), 3);
        assert_eq!(g.attribute_counts(), AttributeCounts::from_counts(2, 2));
    }

    #[test]
    fn neighbor_lists_are_sorted_and_consistent() {
        let g = small_graph();
        for v in g.vertices() {
            let nbrs = g.neighbors(v);
            assert!(nbrs.windows(2).all(|w| w[0] < w[1]), "sorted, no dups");
            for (i, &u) in nbrs.iter().enumerate() {
                // Symmetry.
                assert!(g.neighbors(u).contains(&v));
                // Edge id agrees with endpoints.
                let eid = g.neighbor_edge_ids(v)[i];
                let (a, b) = g.edge_endpoints(eid);
                assert_eq!((a.min(b), a.max(b)), (v.min(u), v.max(u)));
            }
        }
    }

    #[test]
    fn has_edge_and_edge_id() {
        let g = small_graph();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 3));
        assert!(!g.has_edge(1, 1));
        assert_eq!(g.edge_id(0, 3), None);
        let eid = g.edge_id(2, 3).unwrap();
        assert_eq!(g.edge_endpoints(eid), (2, 3));
        assert_eq!(g.edge_id(3, 2), Some(eid));
    }

    #[test]
    fn common_neighbors_merge() {
        let g = small_graph();
        assert_eq!(g.common_neighbors(0, 1), vec![2]);
        assert_eq!(g.common_neighbors(0, 3), vec![2]);
        assert_eq!(g.common_neighbors(1, 3), vec![2]);
        assert_eq!(g.common_neighbors(2, 3), Vec::<VertexId>::new());
        let mut seen = Vec::new();
        g.for_each_common_neighbor(0, 1, |w, e_uw, e_vw| {
            seen.push((w, g.edge_endpoints(e_uw), g.edge_endpoints(e_vw)));
        });
        assert_eq!(seen, vec![(2, (0, 2), (1, 2))]);
    }

    #[test]
    fn clique_check() {
        let g = small_graph();
        assert!(g.is_clique(&[0, 1, 2]));
        assert!(g.is_clique(&[2, 3]));
        assert!(g.is_clique(&[1]));
        assert!(g.is_clique(&[]));
        assert!(!g.is_clique(&[0, 1, 2, 3]));
    }

    #[test]
    fn fig1_graph_has_expected_shape() {
        let g = fig1_graph();
        assert_eq!(g.num_vertices(), 15);
        // v7..v15 (ids 6..14) contain an 8-vertex clique minus one vertex; check a few
        // adjacencies from the figure.
        assert!(g.has_edge(6, 7)); // v7 - v8
        assert!(g.has_edge(9, 14)); // v10 - v15
        assert!(!g.has_edge(0, 14)); // v1 - v15 not adjacent
    }

    #[test]
    fn stats_display_is_stable() {
        let g = small_graph();
        let s = g.stats();
        assert_eq!(s.num_vertices, 4);
        assert_eq!(s.num_edges, 4);
        assert_eq!(format!("{s}"), "n=4 m=4 dmax=3 attrs=(a: 2, b: 2)");
    }

    #[test]
    fn non_isolated_vertex_count() {
        let mut b = GraphBuilder::new(5);
        for v in 0..5 {
            b.set_attribute(v, Attribute::A);
        }
        b.add_edge(0, 1);
        let g = b.build().unwrap();
        assert_eq!(g.num_non_isolated_vertices(), 2);
        assert_eq!(g.num_vertices(), 5);
    }
}
