//! Small hand-built graphs used by tests, examples and documentation across the
//! workspace.
//!
//! These fixtures are intentionally tiny and fully deterministic, so that expected
//! results (maximum fair clique sizes, core numbers, reduction survivors, …) can be
//! verified by hand.

use crate::attr::Attribute;
use crate::builder::GraphBuilder;
use crate::graph::AttributedGraph;

/// A 15-vertex graph adapted from Fig. 1 of the paper.
///
/// Vertex `i` corresponds to the paper's `v_{i+1}`. The right-hand side
/// (`v7, v8, v10..v15`, ids `6, 7, 9..14`) forms an 8-clique with three `b`-vertices
/// (`v7, v8, v10`) and five `a`-vertices (`v11..v15`); the left-hand side is a sparser
/// structure around `v1..v6, v9`. With `k = 3`, `δ = 1` the maximum relative fair clique
/// has **7 vertices**: the 8-clique minus any one of its `a`-vertices — exactly the
/// answer described in Example 1 of the paper.
pub fn fig1_graph() -> AttributedGraph {
    use Attribute::{A, B};
    let attrs = vec![
        A, // v1
        B, // v2
        A, // v3
        A, // v4
        A, // v5
        A, // v6
        B, // v7
        B, // v8
        B, // v9
        B, // v10
        A, // v11
        A, // v12
        A, // v13
        A, // v14
        A, // v15
    ];
    let mut b = GraphBuilder::with_attributes(attrs);
    // Left-hand structure (v1..v6, v9). Chosen so that, as in Example 2, the edge
    // (v2, v5) has common neighbors {v1, v6, v9} with attributes {a, a, b}.
    let left: [(u32, u32); 14] = [
        (0, 1), // v1-v2
        (0, 4), // v1-v5
        (0, 5), // v1-v6
        (1, 4), // v2-v5
        (1, 5), // v2-v6
        (1, 8), // v2-v9
        (4, 5), // v5-v6
        (4, 8), // v5-v9
        (5, 8), // v6-v9
        (1, 2), // v2-v3
        (2, 3), // v3-v4
        (3, 4), // v4-v5
        (2, 8), // v3-v9
        (3, 8), // v4-v9
    ];
    b.add_edges(left);
    // Bridges between the two halves.
    b.add_edge(3, 6); // v4-v7
    b.add_edge(8, 9); // v9-v10
                      // Right-hand 8-clique on {v7, v8, v10, v11, v12, v13, v14, v15} = ids {6,7,9..14}.
    let clique: [u32; 8] = [6, 7, 9, 10, 11, 12, 13, 14];
    for (i, &u) in clique.iter().enumerate() {
        for &v in &clique[i + 1..] {
            b.add_edge(u, v);
        }
    }
    b.build().expect("fig1 fixture must build")
}

/// A complete graph `K_n` with attributes alternating `a, b, a, b, …`.
pub fn balanced_clique(n: usize) -> AttributedGraph {
    let attrs = (0..n)
        .map(|i| {
            if i % 2 == 0 {
                Attribute::A
            } else {
                Attribute::B
            }
        })
        .collect();
    let mut b = GraphBuilder::with_attributes(attrs);
    for u in 0..n as u32 {
        for v in (u + 1)..n as u32 {
            b.add_edge(u, v);
        }
    }
    b.build().expect("complete graph must build")
}

/// Two disjoint cliques joined by a single bridge edge.
///
/// Clique one has `n1` vertices alternating attributes; clique two has `n2` vertices all
/// of attribute `a`. Useful for testing connected-component handling and fairness
/// infeasibility (the second clique can never be fair for `k ≥ 1`).
pub fn two_cliques_with_bridge(n1: usize, n2: usize) -> AttributedGraph {
    let mut attrs = Vec::with_capacity(n1 + n2);
    for i in 0..n1 {
        attrs.push(if i % 2 == 0 {
            Attribute::A
        } else {
            Attribute::B
        });
    }
    attrs.extend(std::iter::repeat(Attribute::A).take(n2));
    let mut b = GraphBuilder::with_attributes(attrs);
    for u in 0..n1 as u32 {
        for v in (u + 1)..n1 as u32 {
            b.add_edge(u, v);
        }
    }
    for u in 0..n2 as u32 {
        for v in (u + 1)..n2 as u32 {
            b.add_edge(n1 as u32 + u, n1 as u32 + v);
        }
    }
    if n1 > 0 && n2 > 0 {
        b.add_edge(n1 as u32 - 1, n1 as u32);
    }
    b.build().expect("two-clique fixture must build")
}

/// A path graph `P_n` (useful as a clique-free control), alternating attributes.
pub fn path_graph(n: usize) -> AttributedGraph {
    let attrs = (0..n)
        .map(|i| {
            if i % 2 == 0 {
                Attribute::A
            } else {
                Attribute::B
            }
        })
        .collect();
    let mut b = GraphBuilder::with_attributes(attrs);
    for v in 1..n as u32 {
        b.add_edge(v - 1, v);
    }
    b.build().expect("path fixture must build")
}

/// The shortcoming example of Fig. 2: an edge `(u, v)` (ids 0, 1, both attribute `a`)
/// whose seven common neighbors `w1..w7` (ids 2..=8) have attributes
/// `a, a, a, a, b, b, b` and share colors across the two attribute classes.
///
/// The returned graph contains the edge `(0, 1)`, the edges from both endpoints to every
/// `w_i`, and edges among the `w_i` chosen so that a degree-based greedy coloring gives
/// the color collisions of the figure. It is used by the enhanced-colorful-support unit
/// tests.
pub fn fig2_graph() -> AttributedGraph {
    use Attribute::{A, B};
    let attrs = vec![A, A, A, A, A, A, B, B, B];
    let mut b = GraphBuilder::with_attributes(attrs);
    // u = 0, v = 1, w1..w7 = 2..=8.
    b.add_edge(0, 1);
    for w in 2..=8u32 {
        b.add_edge(0, w);
        b.add_edge(1, w);
    }
    b.build().expect("fig2 fixture must build")
}

/// Seeded random inputs for the crate's oracle tests. The crate has no
/// dev-dependencies, so the generator is a bare SplitMix64 stream.
#[cfg(test)]
pub(crate) mod seeded {
    use super::*;
    use crate::graph::VertexId;

    /// A SplitMix64 stream.
    pub(crate) struct SplitMix64(pub(crate) u64);

    impl SplitMix64 {
        /// The next 64 pseudo-random bits.
        pub(crate) fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        }

        /// A value in `0..bound`; `bound` must be positive.
        pub(crate) fn below(&mut self, bound: usize) -> usize {
            (self.next_u64() % bound as u64) as usize
        }

        /// A vertex id in `0..n`.
        pub(crate) fn vertex(&mut self, n: usize) -> VertexId {
            self.below(n) as VertexId
        }
    }

    /// A graph on `n` vertices with random attributes and `draws` random vertex
    /// pairs offered as edges; the builder drops the self-loops and repeats among
    /// them, and vertices no draw hits stay isolated.
    pub(crate) fn random_graph(n: usize, draws: usize, seed: u64) -> AttributedGraph {
        let mut rng = SplitMix64(seed);
        let mut b = GraphBuilder::new(n);
        for v in 0..n {
            if rng.below(2) == 1 {
                b.set_attribute(v as VertexId, Attribute::B);
            }
        }
        if n > 0 {
            for _ in 0..draws {
                let (u, v) = (rng.vertex(n), rng.vertex(n));
                b.add_edge(u, v);
            }
        }
        b.build().expect("random endpoints are in range")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_shape() {
        let g = fig1_graph();
        assert_eq!(g.num_vertices(), 15);
        // 14 left edges + 2 bridges + C(8,2)=28 clique edges.
        assert_eq!(g.num_edges(), 14 + 2 + 28);
        // Example 2 prerequisite: common neighbors of (v2, v5) are {v1, v6, v9}.
        assert_eq!(g.common_neighbors(1, 4), vec![0, 5, 8]);
        // The planted clique is a clique.
        assert!(g.is_clique(&[6, 7, 9, 10, 11, 12, 13, 14]));
    }

    #[test]
    fn balanced_clique_shape() {
        let g = balanced_clique(6);
        assert_eq!(g.num_edges(), 15);
        assert!(g.is_clique(&[0, 1, 2, 3, 4, 5]));
        assert_eq!(g.attribute_counts().a(), 3);
        assert_eq!(g.attribute_counts().b(), 3);
    }

    #[test]
    fn two_cliques_shape() {
        let g = two_cliques_with_bridge(4, 3);
        assert_eq!(g.num_vertices(), 7);
        assert_eq!(g.num_edges(), 6 + 3 + 1);
        assert!(g.is_clique(&[0, 1, 2, 3]));
        assert!(g.is_clique(&[4, 5, 6]));
        assert!(g.has_edge(3, 4));
    }

    #[test]
    fn path_graph_shape() {
        let g = path_graph(5);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn fig2_shape() {
        let g = fig2_graph();
        assert_eq!(g.num_vertices(), 9);
        assert_eq!(g.common_neighbors(0, 1).len(), 7);
    }
}
