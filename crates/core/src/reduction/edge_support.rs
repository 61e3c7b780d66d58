//! Shared machinery for the edge-peeling (truss-style) reductions.
//!
//! Both `ColorfulSup` and `EnColorfulSup` maintain, for every edge `(u, v)`, the
//! multiset of `(color, attribute)` pairs of the common neighbors of `u` and `v`, and
//! peel edges whose support drops below a threshold. [`EdgeSupportState`] owns that
//! per-edge state and [`peel_edges`] runs the generic peeling loop; the two reductions
//! only differ in their violation predicate.

use std::collections::VecDeque;

use rfc_graph::colorful::{ColorCounts, ColorCountsBuilder, ColorGroups};
use rfc_graph::coloring::Coloring;
use rfc_graph::{Attribute, AttributedGraph, EdgeId};

/// Per-edge color/attribute counts over common neighbors, with the derived
/// exclusive/mixed color groups.
#[derive(Debug, Clone)]
pub struct EdgeSupportState {
    /// Owner `e` holds `[#common neighbors with attribute a, #with b]` per color.
    counts: ColorCounts,
    /// Color groups of every edge, kept in sync with `counts`.
    groups: Vec<ColorGroups>,
}

impl EdgeSupportState {
    /// Builds the state from one pass of a stamped triangle listing that hands each
    /// edge's common neighbors to the builder as packed color keys.
    ///
    /// The flat count array is sized by `Σ_e min(deg u − 1, deg v − 1, #colors)`: an
    /// edge's common neighbors exclude its endpoints, and it has at most one entry per
    /// color. The slack is never written, so it costs address space, not resident memory.
    pub fn new(g: &AttributedGraph, coloring: &Coloring) -> Self {
        let m = g.num_edges();
        let colors = coloring.num_colors;
        let bound = g
            .edge_list()
            .iter()
            .map(|&(u, v)| (g.degree(u).min(g.degree(v)) - 1).min(colors))
            .sum();
        let keys: Vec<u32> = g
            .vertices()
            .map(|w| ColorCountsBuilder::key(coloring.color(w), g.attribute(w)))
            .collect();
        let mut builder = ColorCountsBuilder::new(m, colors, bound);
        let mut groups = Vec::with_capacity(m);
        for_each_edge_common_keys(g, &keys, |e, common| {
            builder.push_keys(common);
            groups.push(builder.finish_owner(e));
        });
        Self {
            counts: builder.build(),
            groups,
        }
    }

    /// The color groups (exclusive-a, exclusive-b, mixed) of edge `e`.
    #[inline]
    pub fn groups(&self, e: EdgeId) -> ColorGroups {
        self.groups[e as usize]
    }

    /// The plain colorful supports `(sup_a, sup_b)` of edge `e` (Definition 6): the
    /// number of distinct colors among common neighbors with each attribute. Note that
    /// `sup_attr = exclusive_attr + mixed`.
    #[inline]
    pub fn colorful_support(&self, e: EdgeId) -> (usize, usize) {
        let g = self.groups[e as usize];
        (g.exclusive[0] + g.mixed, g.exclusive[1] + g.mixed)
    }

    /// Records that vertex `w` (with the given color and attribute) is no longer a
    /// common neighbor of edge `e`'s endpoints, updating the color groups.
    pub fn remove_common_neighbor(&mut self, e: EdgeId, color: u32, attr: Attribute) {
        let (before, after) = self.counts.remove(e, color, attr);
        self.groups[e as usize].reclassify(before, after);
    }
}

/// Calls `f(e, common)` for every edge `e = (u, v)` in id order, where `common` lists
/// `keys[w]` for the common neighbors `w` of `u` and `v` in ascending order of `w`.
/// Every key must be non-zero.
///
/// `N(u)` is stamped with its keys once per vertex `u` (0 means "not a neighbor"), and
/// each edge `(u, v)` with `v > u` scans `N(v)` against the stamp. This is the triangle
/// listing of truss decomposition (Wang & Cheng, PVLDB 2012); it replaces one sorted
/// merge per edge, and a triangle corner costs one stamp read. Edge ids number the
/// lexicographically sorted edge list, so visiting each `u` in turn and its higher
/// neighbors in ascending order visits the edges in id order.
fn for_each_edge_common_keys(g: &AttributedGraph, keys: &[u32], mut f: impl FnMut(EdgeId, &[u32])) {
    let mut stamp = vec![0; g.num_vertices()];
    let mut common = vec![0; g.max_degree()];
    for u in g.vertices() {
        let neighbors = g.neighbors(u);
        for &w in neighbors {
            stamp[w as usize] = keys[w as usize];
        }
        let higher = neighbors.partition_point(|&v| v < u);
        for (&v, &e) in neighbors[higher..]
            .iter()
            .zip(&g.neighbor_edge_ids(u)[higher..])
        {
            // Branch-free compaction: about half of N(v) is stamped in a dense region,
            // so a filtering branch would mispredict on most candidates.
            let mut len = 0;
            for &w in g.neighbors(v) {
                let key = stamp[w as usize];
                common[len] = key;
                len += usize::from(key != 0);
            }
            f(e, &common[..len]);
        }
        for &w in neighbors {
            stamp[w as usize] = 0;
        }
    }
}

/// Per-attribute support an edge must offer for its endpoints to possibly lie in a
/// relative fair clique of size ≥ 2k (the three cases of Lemma 3 / Lemma 4).
///
/// Returns `(need_a, need_b)`.
pub fn support_requirements(attr_u: Attribute, attr_v: Attribute, k: usize) -> (usize, usize) {
    use Attribute::{A, B};
    match (attr_u, attr_v) {
        (A, A) => (k.saturating_sub(2), k),
        (B, B) => (k, k.saturating_sub(2)),
        _ => (k.saturating_sub(1), k.saturating_sub(1)),
    }
}

/// Generic truss-style edge peeling.
///
/// `violates(state, edge)` must return `true` when the edge can no longer belong to any
/// fair clique; such edges are removed and the supports of the edges of every triangle
/// they participated in are decremented, possibly cascading. Returns the aliveness mask
/// over edge ids.
///
/// Bookkeeping detail: an edge is *condemned* (queued) as soon as it violates the
/// predicate, but it only stops counting as a triangle member when it is actually
/// processed. This way every triangle is torn down exactly once — when its first edge is
/// processed — so the supports of the surviving edges stay exact (supports are
/// monotonically non-increasing, so condemned edges can never be resurrected).
pub fn peel_edges<F>(g: &AttributedGraph, coloring: &Coloring, violates: F) -> Vec<bool>
where
    F: Fn(&EdgeSupportState, EdgeId) -> bool,
{
    let m = g.num_edges();
    let mut state = EdgeSupportState::new(g, coloring);
    let mut alive = vec![true; m];
    let mut queued = vec![false; m];
    let mut queue: VecDeque<EdgeId> = VecDeque::new();
    let mut affected: Vec<(EdgeId, EdgeId)> = Vec::new();
    // While an edge is processed, `at[w]` is 1 + the position of `w` in the stamped
    // endpoint's neighbor list; otherwise 0.
    let mut at = vec![0u32; g.num_vertices()];

    for e in 0..m as EdgeId {
        if violates(&state, e) {
            queued[e as usize] = true;
            queue.push_back(e);
        }
    }

    while let Some(e) = queue.pop_front() {
        alive[e as usize] = false;
        let (u, v) = g.edge_endpoints(e);
        let color_u = coloring.color(u);
        let color_v = coloring.color(v);
        let attr_u = g.attribute(u);
        let attr_v = g.attribute(v);
        // Collect the live triangles `(e_uw, e_vw)` in ascending order of `w`: stamp the
        // positions of the endpoint with fewer neighbors, `s`, and scan the other's, `t`.
        let (s, t) = if g.degree(v) < g.degree(u) {
            (v, u)
        } else {
            (u, v)
        };
        let (neighbors_s, edges_s) = (g.neighbors(s), g.neighbor_edge_ids(s));
        for (i, &w) in (1..).zip(neighbors_s) {
            at[w as usize] = i;
        }
        affected.clear();
        for (&w, &e_tw) in g.neighbors(t).iter().zip(g.neighbor_edge_ids(t)) {
            let i = at[w as usize] as usize;
            if i != 0 {
                let e_sw = edges_s[i - 1];
                if alive[e_sw as usize] && alive[e_tw as usize] {
                    affected.push(if s == u { (e_sw, e_tw) } else { (e_tw, e_sw) });
                }
            }
        }
        for &w in neighbors_s {
            at[w as usize] = 0;
        }
        for &(e_uw, e_vw) in &affected {
            // The triangle (u, v, w) disappears: edge (u, w) loses common neighbor v and
            // edge (v, w) loses common neighbor u.
            state.remove_common_neighbor(e_uw, color_v, attr_v);
            if !queued[e_uw as usize] && violates(&state, e_uw) {
                queued[e_uw as usize] = true;
                queue.push_back(e_uw);
            }
            state.remove_common_neighbor(e_vw, color_u, attr_u);
            if !queued[e_vw as usize] && violates(&state, e_vw) {
                queued[e_vw as usize] = true;
                queue.push_back(e_vw);
            }
        }
    }
    alive
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfc_graph::coloring::greedy_coloring;
    use rfc_graph::fixtures;

    #[test]
    fn support_requirements_match_lemma3() {
        use Attribute::{A, B};
        assert_eq!(support_requirements(A, A, 4), (2, 4));
        assert_eq!(support_requirements(B, B, 4), (4, 2));
        assert_eq!(support_requirements(A, B, 4), (3, 3));
        assert_eq!(support_requirements(B, A, 4), (3, 3));
        // Saturation for tiny k.
        assert_eq!(support_requirements(A, A, 1), (0, 1));
        assert_eq!(support_requirements(A, B, 1), (0, 0));
    }

    #[test]
    fn initial_supports_match_example2() {
        // Edge (v2, v5) of the Fig. 1 fixture: common neighbors {v1, v6, v9} with
        // attributes {a, a, b}; v1 and v6 are adjacent so they get distinct colors,
        // giving sup_a = 2, sup_b = 1.
        let g = fixtures::fig1_graph();
        let coloring = greedy_coloring(&g);
        let state = EdgeSupportState::new(&g, &coloring);
        let e = g.edge_id(1, 4).expect("edge (v2, v5) exists");
        assert_eq!(state.colorful_support(e), (2, 1));
    }

    #[test]
    fn supports_inside_clique() {
        // In the 8-clique (3 b's and 5 a's), an edge between two a-vertices has 3 a- and
        // 3 b-colored common neighbors inside the clique (colors are all distinct), plus
        // possibly more outside.
        let g = fixtures::fig1_graph();
        let coloring = greedy_coloring(&g);
        let state = EdgeSupportState::new(&g, &coloring);
        let e = g.edge_id(10, 11).unwrap(); // (v11, v12), both a
        let (sa, sb) = state.colorful_support(e);
        assert!(
            sa >= 3 && sb >= 3,
            "clique edge support too small: ({sa}, {sb})"
        );
    }

    #[test]
    fn remove_common_neighbor_reclassifies_colors() {
        let g = fixtures::fig2_graph(); // edge (0,1) with 7 common neighbors, one shared color class
        let coloring = greedy_coloring(&g);
        let mut state = EdgeSupportState::new(&g, &coloring);
        let e = g.edge_id(0, 1).unwrap();
        // All seven w's are pairwise non-adjacent, so they share one color: the single
        // color is mixed (used by both a- and b-attributed neighbors).
        let before = state.groups(e);
        assert_eq!(before.mixed, 1);
        assert_eq!(before.exclusive, [0, 0]);
        // Remove all four a-attributed common neighbors: the color becomes exclusive-b.
        for w in 2..=5u32 {
            state.remove_common_neighbor(e, coloring.color(w), Attribute::A);
        }
        let after = state.groups(e);
        assert_eq!(after.mixed, 0);
        assert_eq!(after.exclusive, [0, 1]);
        assert_eq!(state.colorful_support(e), (0, 1));
    }

    #[test]
    fn peeling_with_always_false_keeps_everything() {
        let g = fixtures::fig1_graph();
        let coloring = greedy_coloring(&g);
        let alive = peel_edges(&g, &coloring, |_, _| false);
        assert!(alive.iter().all(|&a| a));
    }

    #[test]
    fn peeling_with_always_true_removes_everything() {
        let g = fixtures::fig1_graph();
        let coloring = greedy_coloring(&g);
        let alive = peel_edges(&g, &coloring, |_, _| true);
        assert!(alive.iter().all(|&a| !a));
    }
}
