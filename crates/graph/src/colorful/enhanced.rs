//! Enhanced colorful degree and enhanced colorful k-core (Definitions 4–5).
//!
//! The plain colorful degree counts colors per attribute independently, so one color can
//! be counted for both attributes. Inside a fair clique this cannot happen: a clique's
//! vertices are pairwise adjacent, hence all differently colored, so each color belongs
//! to exactly one attribute. The *enhanced* colorful degree therefore assigns every
//! neighbor color exclusively to one attribute and asks how balanced the best assignment
//! can be:
//!
//! `ED(u) = max over assignments of min(#colors assigned to a, #colors assigned to b)`.
//!
//! Splitting the neighbor colors of `u` into exclusive-a (`ca`), exclusive-b (`cb`) and
//! mixed (`cm`) groups, the optimum has the closed form implemented by
//! [`enhanced_colorful_degree_from_groups`]. If `u` belongs to a relative fair clique
//! with parameter `k`, its clique neighbors provide at least `k − 1` colors exclusive to
//! `u`'s own attribute and `k` to the other, so `ED(u) ≥ k − 1` (Lemma 2): any fair
//! clique is contained in the enhanced colorful `(k−1)`-core.

use std::collections::VecDeque;

use crate::coloring::Coloring;
use crate::graph::{AttributedGraph, VertexId};

use super::degrees::ColorCounts;

/// The partition of a vertex's (or an edge's common-) neighbor colors into exclusive and
/// mixed groups.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ColorGroups {
    /// `exclusive[0]` = number of colors seen only on attribute-a neighbors (`c_a`);
    /// `exclusive[1]` = only on attribute-b neighbors (`c_b`).
    pub exclusive: [usize; 2],
    /// Number of colors seen on neighbors of both attributes (`c_m`).
    pub mixed: usize,
}

impl ColorGroups {
    /// Builds groups from per-color attribute counts.
    pub fn from_counts<'a, I: IntoIterator<Item = &'a [u32; 2]>>(counts: I) -> Self {
        let mut g = ColorGroups::default();
        for &counts in counts {
            g.add(counts);
        }
        g
    }

    /// Adds one color with the given per-attribute counts to its group.
    #[inline]
    pub(crate) fn add(&mut self, [a, b]: [u32; 2]) {
        // Branch-free: the exclusive/mixed split of a long count list is unpredictable.
        let (a, b) = (usize::from(a > 0), usize::from(b > 0));
        let both = a & b;
        self.mixed += both;
        self.exclusive[0] += a - both;
        self.exclusive[1] += b - both;
    }

    /// The group counter of a color with the given per-attribute counts (`None` when
    /// both are zero).
    fn group_of(&mut self, counts: [u32; 2]) -> Option<&mut usize> {
        match (counts[0] > 0, counts[1] > 0) {
            (true, true) => Some(&mut self.mixed),
            (true, false) => Some(&mut self.exclusive[0]),
            (false, true) => Some(&mut self.exclusive[1]),
            (false, false) => None,
        }
    }

    /// Moves one color between the exclusive and mixed groups after its per-attribute
    /// counts changed from `before` to `after`.
    pub fn reclassify(&mut self, before: [u32; 2], after: [u32; 2]) {
        if let Some(group) = self.group_of(before) {
            *group -= 1;
        }
        if let Some(group) = self.group_of(after) {
            *group += 1;
        }
    }

    /// Total number of distinct colors.
    pub fn total(&self) -> usize {
        self.exclusive[0] + self.exclusive[1] + self.mixed
    }

    /// The enhanced colorful degree implied by these groups.
    pub fn enhanced_degree(&self) -> usize {
        enhanced_colorful_degree_from_groups(self.exclusive[0], self.exclusive[1], self.mixed)
    }

    /// Greedily assigns the mixed colors to satisfy a demand of `need_a` colors for
    /// attribute `a` and `need_b` for attribute `b`, exactly as in the computation of the
    /// enhanced colorful support (Definition 7): first top up attribute `a` from the
    /// mixed pool, then attribute `b` from what remains. Returns the resulting
    /// `(gsup_a, gsup_b)` pair.
    pub fn demand_assignment(&self, need_a: usize, need_b: usize) -> (usize, usize) {
        let ca = self.exclusive[0];
        let cb = self.exclusive[1];
        let cm = self.mixed;
        let take_a = if ca < need_a {
            (need_a - ca).min(cm)
        } else {
            0
        };
        let gsup_a = ca + take_a;
        let remaining = cm - take_a;
        let take_b = if cb < need_b {
            (need_b - cb).min(remaining)
        } else {
            0
        };
        let gsup_b = cb + take_b;
        (gsup_a, gsup_b)
    }
}

/// Closed form of the enhanced colorful degree: the maximum over assignments of the
/// mixed colors of `min(#a-colors, #b-colors)`.
pub fn enhanced_colorful_degree_from_groups(ca: usize, cb: usize, cm: usize) -> usize {
    if ca + cm <= cb {
        ca + cm
    } else if cb + cm <= ca {
        cb + cm
    } else {
        (ca + cb + cm) / 2
    }
}

/// The enhanced colorful degree `ED(u)` of every vertex (Definition 4).
pub fn enhanced_colorful_degrees(g: &AttributedGraph, coloring: &Coloring) -> Vec<usize> {
    let counts = ColorCounts::of_neighbors(g, coloring, |_| true);
    g.vertices()
        .map(|v| counts.groups(v).enhanced_degree())
        .collect()
}

/// Membership mask of the enhanced colorful k-core (Definition 5): the maximal subgraph
/// in which every vertex has `ED(u) ≥ k`.
pub fn enhanced_colorful_k_core_mask(
    g: &AttributedGraph,
    coloring: &Coloring,
    k: usize,
) -> Vec<bool> {
    let n = g.num_vertices();
    let mut alive = vec![true; n];
    if n == 0 {
        return alive;
    }
    let mut counts = ColorCounts::of_neighbors(g, coloring, |_| true);
    // Per-vertex color groups, maintained incrementally.
    let mut groups: Vec<ColorGroups> = g.vertices().map(|v| counts.groups(v)).collect();

    let mut queue: VecDeque<VertexId> = VecDeque::new();
    let mut queued = vec![false; n];
    for v in g.vertices() {
        if groups[v as usize].enhanced_degree() < k {
            queue.push_back(v);
            queued[v as usize] = true;
        }
    }
    while let Some(v) = queue.pop_front() {
        if !alive[v as usize] {
            continue;
        }
        alive[v as usize] = false;
        let color_v = coloring.color(v);
        let attr_v = g.attribute(v);
        for &u in g.neighbors(v) {
            if !alive[u as usize] {
                continue;
            }
            let (before, after) = counts.remove(u, color_v, attr_v);
            let gu = &mut groups[u as usize];
            gu.reclassify(before, after);
            if gu.enhanced_degree() < k && !queued[u as usize] {
                queue.push_back(u);
                queued[u as usize] = true;
            }
        }
    }
    alive
}

/// Vertices of the enhanced colorful k-core, as a sorted list.
pub fn enhanced_colorful_k_core_vertices(
    g: &AttributedGraph,
    coloring: &Coloring,
    k: usize,
) -> Vec<VertexId> {
    enhanced_colorful_k_core_mask(g, coloring, k)
        .iter()
        .enumerate()
        .filter_map(|(v, &keep)| keep.then_some(v as VertexId))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::colorful::colorful_k_core_vertices;
    use crate::coloring::greedy_coloring;
    use crate::fixtures;

    #[test]
    fn closed_form_matches_brute_force() {
        // Brute force over all ways to split cm mixed colors.
        for ca in 0..6usize {
            for cb in 0..6usize {
                for cm in 0..6usize {
                    let best = (0..=cm)
                        .map(|x| (ca + x).min(cb + (cm - x)))
                        .max()
                        .unwrap_or(ca.min(cb));
                    assert_eq!(
                        enhanced_colorful_degree_from_groups(ca, cb, cm),
                        best,
                        "ca={ca} cb={cb} cm={cm}"
                    );
                }
            }
        }
    }

    #[test]
    fn demand_assignment_matches_paper_example() {
        // Example 3 / Fig. 2: ca = 1, cb = 2, cm = 2, k = 4, endpoints both attribute a,
        // so the demand is (k-2, k) = (2, 4). Expected gsup_a = 2, gsup_b = 3.
        let groups = ColorGroups {
            exclusive: [1, 2],
            mixed: 2,
        };
        assert_eq!(groups.demand_assignment(2, 4), (2, 3));
        assert_eq!(groups.total(), 5);
    }

    #[test]
    fn demand_assignment_no_mixed() {
        let groups = ColorGroups {
            exclusive: [3, 4],
            mixed: 0,
        };
        assert_eq!(groups.demand_assignment(5, 5), (3, 4));
        assert_eq!(groups.demand_assignment(1, 1), (3, 4));
    }

    #[test]
    fn reclassify_moves_one_color_between_groups() {
        let mut groups = ColorGroups {
            exclusive: [1, 0],
            mixed: 1,
        };
        // Mixed -> exclusive-a, then exclusive-a -> gone, then no change of group.
        groups.reclassify([2, 1], [2, 0]);
        assert_eq!(groups.exclusive, [2, 0]);
        assert_eq!(groups.mixed, 0);
        groups.reclassify([1, 0], [0, 0]);
        assert_eq!(groups.exclusive, [1, 0]);
        groups.reclassify([3, 0], [2, 0]);
        assert_eq!(groups.exclusive, [1, 0]);
        assert_eq!(groups.total(), 1);
    }

    #[test]
    fn enhanced_degree_on_balanced_clique() {
        // K8 alternating: every vertex has 3 own-attribute and 4 other-attribute
        // neighbor colors, all exclusive (clique vertices are all distinctly colored),
        // so ED = min(3, 4) = 3.
        let g = fixtures::balanced_clique(8);
        let c = greedy_coloring(&g);
        let ed = enhanced_colorful_degrees(&g, &c);
        assert!(ed.iter().all(|&x| x == 3));
    }

    #[test]
    fn enhanced_core_is_subset_of_colorful_core() {
        // ED(u) <= Dmin-ish relationship: assigning colors exclusively can only reduce
        // the per-attribute color counts, so the enhanced colorful k-core is contained
        // in the colorful k-core.
        let g = fixtures::fig1_graph();
        let c = greedy_coloring(&g);
        for k in 0..4usize {
            let enhanced = enhanced_colorful_k_core_vertices(&g, &c, k);
            let plain = colorful_k_core_vertices(&g, &c, k);
            assert!(
                enhanced.iter().all(|v| plain.contains(v)),
                "containment failed at k={k}"
            );
        }
    }

    #[test]
    fn enhanced_core_keeps_planted_fair_clique() {
        // The 8-clique of the Fig. 1 fixture has 3 b's and 5 a's. Each of its vertices
        // has, inside the clique, at least 2 own-colors and 3 other-colors, so for
        // k = 2 (i.e. the (k-1)-core for k = 3) all clique vertices must survive.
        let g = fixtures::fig1_graph();
        let c = greedy_coloring(&g);
        let keep = enhanced_colorful_k_core_vertices(&g, &c, 2);
        for v in [6u32, 7, 9, 10, 11, 12, 13, 14] {
            assert!(keep.contains(&v), "clique vertex {v} was peeled");
        }
    }

    #[test]
    fn all_same_attribute_graph_has_zero_enhanced_core() {
        let g = fixtures::two_cliques_with_bridge(0, 6); // single all-a clique
        let c = greedy_coloring(&g);
        let ed = enhanced_colorful_degrees(&g, &c);
        assert!(ed.iter().all(|&x| x == 0));
        assert!(enhanced_colorful_k_core_vertices(&g, &c, 1).is_empty());
        // k = 0 keeps everything.
        assert_eq!(enhanced_colorful_k_core_vertices(&g, &c, 0).len(), 6);
    }

    #[test]
    fn empty_graph() {
        let g = crate::builder::GraphBuilder::new(0).build().unwrap();
        let c = greedy_coloring(&g);
        assert!(enhanced_colorful_degrees(&g, &c).is_empty());
        assert!(enhanced_colorful_k_core_mask(&g, &c, 1).is_empty());
    }
}
