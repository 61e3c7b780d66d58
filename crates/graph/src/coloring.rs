//! Degree-based greedy proper vertex coloring.
//!
//! Every reduction and bound in the paper is built on a proper coloring of the graph:
//! adjacent vertices get distinct colors, so vertices sharing a color can never coexist
//! in a clique. The paper uses the classic degree-ordered greedy heuristic
//! (largest-degree-first), which runs in `O(|V| + |E|)` time and gives at most
//! `d_max + 1` colors. Here the order is a counting sort over the degrees, and each
//! vertex takes the smallest color its neighbors leave free from a stamp array that
//! one coloring reuses for every vertex, so no step sorts.

use crate::graph::{AttributedGraph, VertexId};

/// A proper vertex coloring of a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Coloring {
    /// Color of each vertex, a dense index in `0..num_colors`.
    pub colors: Vec<u32>,
    /// Number of distinct colors used (`color(G)` in the paper).
    pub num_colors: usize,
}

impl Coloring {
    /// The color of vertex `v`.
    #[inline]
    pub fn color(&self, v: VertexId) -> u32 {
        self.colors[v as usize]
    }

    /// Verifies that the coloring is proper for `g`: every edge joins differently
    /// colored vertices and every color index is within range.
    pub fn is_proper(&self, g: &AttributedGraph) -> bool {
        if self.colors.len() != g.num_vertices() {
            return false;
        }
        if self.colors.iter().any(|&c| c as usize >= self.num_colors) {
            return false;
        }
        g.edge_list()
            .iter()
            .all(|&(u, v)| self.colors[u as usize] != self.colors[v as usize])
    }
}

/// Colors the whole graph with the degree-based greedy heuristic.
///
/// Vertices are processed in non-increasing degree order (ties broken by vertex id for
/// determinism); each vertex receives the smallest color not used by its already-colored
/// neighbors. `O(|V| + |E|)`.
pub fn greedy_coloring(g: &AttributedGraph) -> Coloring {
    let order: Vec<VertexId> = degree_descending_order(g);
    greedy_coloring_in_order(g, &order)
}

/// Colors only the vertices listed in `vertices` (the induced subgraph view), using the
/// degree-within-the-subset greedy order. Vertices outside the set keep color `u32::MAX`
/// (an invalid marker) and are ignored.
///
/// Returns the coloring over the *full* vertex-id space (so callers can index by
/// original vertex id) together with the number of colors used on the subset.
/// `O(|V| + |E|)`.
pub fn greedy_coloring_of_subset(g: &AttributedGraph, vertices: &[VertexId]) -> Coloring {
    let mut in_set = vec![false; g.num_vertices()];
    for &v in vertices {
        in_set[v as usize] = true;
    }
    // Degree restricted to the subset; a listed duplicate is colored once.
    let members = (0..g.num_vertices() as VertexId).filter(|&v| in_set[v as usize]);
    let mut sub_deg = vec![0usize; g.num_vertices()];
    for v in members.clone() {
        sub_deg[v as usize] = g
            .neighbors(v)
            .iter()
            .filter(|&&u| in_set[u as usize])
            .count();
    }
    let order = by_degree_descending(members, |v| sub_deg[v as usize]);
    // Vertices outside the set are never colored, so they constrain nobody.
    let uncolored = g.max_degree() as u32 + 1;
    let (mut colors, max_color) = color_in_order(g, &order, uncolored);
    for color in colors.iter_mut().filter(|c| **c == uncolored) {
        *color = u32::MAX;
    }
    Coloring {
        colors,
        num_colors: max_color.map_or(0, |c| c as usize + 1),
    }
}

/// Colors the graph processing vertices in the given order. `O(|V| + |E|)` when
/// `order` lists each vertex once.
pub fn greedy_coloring_in_order(g: &AttributedGraph, order: &[VertexId]) -> Coloring {
    let n = g.num_vertices();
    let uncolored = g.max_degree() as u32 + 1;
    let (mut colors, max_color) = color_in_order(g, order, uncolored);
    let mut max_color = max_color.unwrap_or(0);
    // Any vertex not covered by `order` (callers normally pass all vertices) gets a
    // fresh color of its own to keep the coloring proper.
    for color in colors.iter_mut().filter(|c| **c == uncolored) {
        max_color += 1;
        *color = max_color;
    }
    let num_colors = if n == 0 { 0 } else { max_color as usize + 1 };
    Coloring { colors, num_colors }
}

/// Vertices sorted by non-increasing degree (ties by id) — the order used by the
/// degree-based greedy coloring of the paper. `O(|V| + d_max)`.
pub fn degree_descending_order(g: &AttributedGraph) -> Vec<VertexId> {
    by_degree_descending(0..g.num_vertices() as VertexId, |v| g.degree(v))
}

/// `members`, which must come in increasing id order, sorted by non-increasing
/// `degree` with ties by id: a stable counting sort over the degrees.
fn by_degree_descending(
    members: impl Iterator<Item = VertexId> + Clone,
    degree: impl Fn(VertexId) -> usize,
) -> Vec<VertexId> {
    let max = members.clone().map(&degree).max().unwrap_or(0);
    // Bucket `max - d` holds degree `d`, so buckets run from the highest degree
    // down; `start[b]` becomes the first slot of bucket `b`.
    let mut start = vec![0usize; max + 2];
    for v in members.clone() {
        start[max - degree(v) + 1] += 1;
    }
    for b in 1..start.len() {
        start[b] += start[b - 1];
    }
    let mut order = vec![0 as VertexId; start[max + 1]];
    for v in members {
        let slot = &mut start[max - degree(v)];
        order[*slot] = v;
        *slot += 1;
    }
    order
}

/// Gives each vertex of `order`, in turn, the smallest color none of its neighbors
/// has. Returns the colors, where vertices not in `order` hold `uncolored`, and the
/// largest color given (`None` if `order` is empty). `uncolored` must be
/// `d_max + 1`.
///
/// A vertex of degree `d` sees at most `d` colors, so its color is at most
/// `d <= d_max`. The free color comes from a stamp array over `0..=d_max + 1`: each
/// step writes its stamp at every neighbor's color, and the first unstamped slot is
/// the color. Uncolored neighbors stamp the spare slot `d_max + 1`, which the scan
/// never reaches, so the neighbor loop has no branch. `O(|V| + Σ_order deg)`.
fn color_in_order(
    g: &AttributedGraph,
    order: &[VertexId],
    uncolored: u32,
) -> (Vec<u32>, Option<u32>) {
    let mut colors = vec![uncolored; g.num_vertices()];
    let mut stamps = vec![0usize; uncolored as usize + 1];
    let mut max_color = None;
    for (step, &v) in order.iter().enumerate() {
        let stamp = step + 1;
        for &u in g.neighbors(v) {
            stamps[colors[u as usize] as usize] = stamp;
        }
        let mut c = 0;
        while stamps[c] == stamp {
            c += 1;
        }
        let c = c as u32;
        colors[v as usize] = c;
        max_color = max_color.max(Some(c));
    }
    (colors, max_color)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::fixtures;
    use crate::fixtures::seeded::{random_graph, SplitMix64};

    /// The collect-sort-dedup coloring and the sorting order the stamp array and the
    /// degree buckets replaced, kept as the oracle they must match exactly.
    mod reference {
        use super::*;

        pub fn greedy_coloring(g: &AttributedGraph) -> Coloring {
            greedy_coloring_in_order(g, &degree_descending_order(g))
        }

        pub fn degree_descending_order(g: &AttributedGraph) -> Vec<VertexId> {
            let mut order: Vec<VertexId> = g.vertices().collect();
            order.sort_unstable_by(|&a, &b| g.degree(b).cmp(&g.degree(a)).then(a.cmp(&b)));
            order
        }

        pub fn greedy_coloring_in_order(g: &AttributedGraph, order: &[VertexId]) -> Coloring {
            let n = g.num_vertices();
            let mut colors = vec![u32::MAX; n];
            let mut used = Vec::new();
            let mut max_color = 0u32;
            for &v in order {
                used.clear();
                for &u in g.neighbors(v) {
                    let c = colors[u as usize];
                    if c != u32::MAX {
                        used.push(c);
                    }
                }
                let c = smallest_absent(&mut used);
                colors[v as usize] = c;
                max_color = max_color.max(c);
            }
            for color in colors.iter_mut() {
                if *color == u32::MAX {
                    max_color += 1;
                    *color = max_color;
                }
            }
            let num_colors = if n == 0 { 0 } else { max_color as usize + 1 };
            Coloring { colors, num_colors }
        }

        pub fn greedy_coloring_of_subset(g: &AttributedGraph, vertices: &[VertexId]) -> Coloring {
            let mut in_set = vec![false; g.num_vertices()];
            for &v in vertices {
                in_set[v as usize] = true;
            }
            let mut sub_deg: Vec<(usize, VertexId)> = vertices
                .iter()
                .map(|&v| {
                    let d = g
                        .neighbors(v)
                        .iter()
                        .filter(|&&u| in_set[u as usize])
                        .count();
                    (d, v)
                })
                .collect();
            sub_deg.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
            let mut colors = vec![u32::MAX; g.num_vertices()];
            let mut used = Vec::new();
            let mut max_color = 0u32;
            let mut any = false;
            for &(_, v) in &sub_deg {
                used.clear();
                for &u in g.neighbors(v) {
                    let c = colors[u as usize];
                    if in_set[u as usize] && c != u32::MAX {
                        used.push(c);
                    }
                }
                let c = smallest_absent(&mut used);
                colors[v as usize] = c;
                max_color = max_color.max(c);
                any = true;
            }
            Coloring {
                colors,
                num_colors: if any { max_color as usize + 1 } else { 0 },
            }
        }

        /// Smallest non-negative integer not present in `used` (which is clobbered).
        pub fn smallest_absent(used: &mut Vec<u32>) -> u32 {
            used.sort_unstable();
            used.dedup();
            let mut c = 0u32;
            for &x in used.iter() {
                if x == c {
                    c += 1;
                } else if x > c {
                    break;
                }
            }
            c
        }
    }

    /// Seeded graphs for the oracle comparisons: sparse and dense random graphs
    /// with isolated vertices, a star, and a 70-clique with a random fringe (more
    /// than 64 colors).
    fn oracle_graphs() -> Vec<(String, AttributedGraph)> {
        let mut graphs = vec![
            ("empty".to_string(), GraphBuilder::new(0).build().unwrap()),
            (
                "isolated".to_string(),
                GraphBuilder::new(5).build().unwrap(),
            ),
            ("fig1".to_string(), fixtures::fig1_graph()),
        ];
        for seed in 0..12u64 {
            let n = 20 + 17 * seed as usize;
            let draws = [n / 2, 2 * n, 8 * n][seed as usize % 3];
            graphs.push((format!("random {seed}"), random_graph(n, draws, seed)));
        }
        let mut star = GraphBuilder::new(40);
        star.add_edges((1..40).map(|v| (0, v)));
        graphs.push(("star".to_string(), star.build().unwrap()));
        let mut rng = SplitMix64(64);
        let mut big = GraphBuilder::new(120);
        for u in 0..70u32 {
            big.add_edges((u + 1..70).map(|v| (u, v)));
        }
        for _ in 0..400 {
            big.add_edge(rng.vertex(120), rng.vertex(120));
        }
        graphs.push(("70-clique".to_string(), big.build().unwrap()));
        graphs
    }

    #[test]
    fn greedy_coloring_and_its_order_match_the_sorting_reference() {
        for (name, g) in oracle_graphs() {
            assert_eq!(
                degree_descending_order(&g),
                reference::degree_descending_order(&g),
                "{name}"
            );
            let c = greedy_coloring(&g);
            assert_eq!(c, reference::greedy_coloring(&g), "{name}");
            assert!(c.is_proper(&g), "{name}");
        }
        let (_, clique) = oracle_graphs().pop().unwrap();
        assert!(greedy_coloring(&clique).num_colors > 64);
    }

    #[test]
    fn coloring_in_a_given_order_matches_the_reference() {
        let mut rng = SplitMix64(5);
        for (name, g) in oracle_graphs() {
            let n = g.num_vertices();
            // A shuffled full order, a partial one (uncovered vertices get fresh
            // colors) and one that repeats vertices.
            let mut order: Vec<VertexId> = g.vertices().collect();
            for i in (1..n).rev() {
                order.swap(i, rng.below(i + 1));
            }
            let partial = &order[..n / 2];
            let repeated: Vec<VertexId> = order.iter().chain(partial).copied().collect();
            for order in [&order[..], partial, &repeated] {
                assert_eq!(
                    greedy_coloring_in_order(&g, order),
                    reference::greedy_coloring_in_order(&g, order),
                    "{name}"
                );
            }
        }
    }

    #[test]
    fn subset_coloring_matches_the_reference_on_random_subsets() {
        let mut rng = SplitMix64(9);
        for (name, g) in oracle_graphs() {
            let n = g.num_vertices();
            let mut subsets: Vec<Vec<VertexId>> = vec![Vec::new(), g.vertices().collect()];
            for share in [4, 2, 1].into_iter().filter(|_| n > 0) {
                // Unsorted, with repeats.
                subsets.push((0..n / share + 1).map(|_| rng.vertex(n)).collect());
            }
            for subset in subsets {
                assert_eq!(
                    greedy_coloring_of_subset(&g, &subset),
                    reference::greedy_coloring_of_subset(&g, &subset),
                    "{name}: {subset:?}"
                );
            }
        }
    }

    #[test]
    fn smallest_absent_works() {
        use reference::smallest_absent;
        assert_eq!(smallest_absent(&mut vec![]), 0);
        assert_eq!(smallest_absent(&mut vec![0, 1, 2]), 3);
        assert_eq!(smallest_absent(&mut vec![1, 2]), 0);
        assert_eq!(smallest_absent(&mut vec![0, 2, 3]), 1);
        assert_eq!(smallest_absent(&mut vec![2, 0, 0, 1, 5]), 3);
    }

    #[test]
    fn coloring_of_clique_uses_n_colors() {
        let g = fixtures::balanced_clique(7);
        let c = greedy_coloring(&g);
        assert!(c.is_proper(&g));
        assert_eq!(c.num_colors, 7);
    }

    #[test]
    fn coloring_of_path_uses_two_colors() {
        let g = fixtures::path_graph(10);
        let c = greedy_coloring(&g);
        assert!(c.is_proper(&g));
        assert_eq!(c.num_colors, 2);
    }

    #[test]
    fn coloring_of_fig1_is_proper_and_at_least_clique_size() {
        let g = fixtures::fig1_graph();
        let c = greedy_coloring(&g);
        assert!(c.is_proper(&g));
        // Contains an 8-clique, so at least 8 colors are necessary.
        assert!(c.num_colors >= 8);
        // Greedy never exceeds max degree + 1.
        assert!(c.num_colors <= g.max_degree() + 1);
    }

    #[test]
    fn coloring_is_deterministic() {
        let g = fixtures::fig1_graph();
        assert_eq!(greedy_coloring(&g), greedy_coloring(&g));
    }

    #[test]
    fn empty_graph_coloring() {
        let g = crate::builder::GraphBuilder::new(0).build().unwrap();
        let c = greedy_coloring(&g);
        assert_eq!(c.num_colors, 0);
        assert!(c.is_proper(&g));
    }

    #[test]
    fn isolated_vertices_all_get_color_zero() {
        let g = crate::builder::GraphBuilder::new(4).build().unwrap();
        let c = greedy_coloring(&g);
        assert!(c.is_proper(&g));
        assert_eq!(c.num_colors, 1);
    }

    #[test]
    fn subset_coloring_only_colors_subset_and_is_proper_on_it() {
        let g = fixtures::fig1_graph();
        let subset: Vec<u32> = vec![6, 7, 9, 10, 11, 12, 13, 14];
        let c = greedy_coloring_of_subset(&g, &subset);
        // The subset is an 8-clique: exactly 8 colors, all distinct.
        assert_eq!(c.num_colors, 8);
        let mut seen: Vec<u32> = subset.iter().map(|&v| c.color(v)).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 8);
        // Vertices outside the subset keep the invalid marker.
        assert_eq!(c.color(0), u32::MAX);
    }

    #[test]
    fn is_proper_rejects_bad_colorings() {
        let g = fixtures::path_graph(3);
        let bad = Coloring {
            colors: vec![0, 0, 1],
            num_colors: 2,
        };
        assert!(!bad.is_proper(&g));
        let wrong_len = Coloring {
            colors: vec![0, 1],
            num_colors: 2,
        };
        assert!(!wrong_len.is_proper(&g));
        let out_of_range = Coloring {
            colors: vec![0, 1, 5],
            num_colors: 2,
        };
        assert!(!out_of_range.is_proper(&g));
    }
}
