//! The "advanced" bound group `ubAD`: attribute, color, attribute-color and
//! enhanced-attribute-color bounds (Lemmas 6–9).

use rfc_graph::coloring::Coloring;
use rfc_graph::AttributedGraph;

use crate::problem::FairCliqueParams;

/// `uba` (Lemma 6): caps the clique's per-attribute sizes by the number of vertices of
/// each attribute in the instance. Returns 0 when infeasible.
pub fn attribute_bound(
    g: &AttributedGraph,
    vertices: &[rfc_graph::VertexId],
    params: FairCliqueParams,
) -> usize {
    let counts = g.attribute_counts_of(vertices);
    params.best_fair_total(counts.a(), counts.b()).unwrap_or(0)
}

/// `ubc` (Lemma 7): a clique's vertices all have distinct colors, so its size is at most
/// the number of colors used by any proper coloring of the instance subgraph.
pub fn color_bound(coloring: &Coloring) -> usize {
    coloring.num_colors
}

/// `ubac` (Lemma 8): caps the per-attribute sizes by the number of *colors* occupied by
/// each attribute. Works on the instance subgraph `G'` (compact vertex ids) and its
/// coloring.
pub fn attribute_color_bound(
    sub: &AttributedGraph,
    coloring: &Coloring,
    params: FairCliqueParams,
) -> usize {
    attribute_color_cap(per_attribute_color_counts(sub, coloring), params)
}

/// `ubeac` (Lemma 9, sound variant): partitions the instance's colors into exclusive-a,
/// exclusive-b and mixed groups and maximizes the fair total over all ways of assigning
/// the mixed colors to one attribute each.
pub fn enhanced_attribute_color_bound(
    sub: &AttributedGraph,
    coloring: &Coloring,
    params: FairCliqueParams,
) -> usize {
    enhanced_attribute_color_cap(per_attribute_color_counts(sub, coloring), params)
}

/// The number of colors used by at least one a-vertex, by at least one b-vertex, and
/// by both, over the colored instance: `(colors_a, colors_b, mixed)`. The
/// [`attribute_color_cap`] and [`enhanced_attribute_color_cap`] arithmetic turns it into
/// `ubac` and `ubeac`, whichever representation of the instance it was counted on.
pub(crate) type ColorAttributeCounts = (usize, usize, usize);

/// `ubac` from per-attribute color counts. A color counted for both attributes
/// contributes to both caps, exactly as in the paper's colorR∪C(a) / colorR∪C(b).
pub(crate) fn attribute_color_cap(
    (color_a, color_b, _mixed): ColorAttributeCounts,
    params: FairCliqueParams,
) -> usize {
    params.best_fair_total(color_a, color_b).unwrap_or(0)
}

/// `ubeac` from per-attribute color counts: the best fair total over every way of
/// assigning each mixed color to one attribute.
pub(crate) fn enhanced_attribute_color_cap(
    (ca_total, cb_total, mixed): ColorAttributeCounts,
    params: FairCliqueParams,
) -> usize {
    // Exclusive counts: colors used by exactly one attribute.
    let ca = ca_total - mixed;
    let cb = cb_total - mixed;
    let mut best = 0usize;
    for x in 0..=mixed {
        if let Some(total) = params.best_fair_total(ca + x, cb + (mixed - x)) {
            best = best.max(total);
        }
    }
    best
}

/// Counts, over the colored instance subgraph, the number of colors used by at least one
/// a-vertex, at least one b-vertex, and by both.
fn per_attribute_color_counts(sub: &AttributedGraph, coloring: &Coloring) -> ColorAttributeCounts {
    let num_colors = coloring.num_colors;
    let mut seen = vec![[false; 2]; num_colors];
    for v in sub.vertices() {
        let c = coloring.color(v);
        if c == u32::MAX {
            continue; // vertex outside the colored subset
        }
        seen[c as usize][sub.attribute(v).index()] = true;
    }
    let mut color_a = 0;
    let mut color_b = 0;
    let mut mixed = 0;
    for s in &seen {
        if s[0] {
            color_a += 1;
        }
        if s[1] {
            color_b += 1;
        }
        if s[0] && s[1] {
            mixed += 1;
        }
    }
    (color_a, color_b, mixed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfc_graph::coloring::greedy_coloring;
    use rfc_graph::{fixtures, Attribute, GraphBuilder};

    #[test]
    fn attribute_bound_cases() {
        let g = fixtures::fig1_graph();
        let all: Vec<u32> = g.vertices().collect();
        let params = FairCliqueParams::new(3, 1).unwrap();
        // 10 a's, 5 b's: 5 + min(10, 6) = 11.
        assert_eq!(attribute_bound(&g, &all, params), 11);
        // Restricted to the planted clique: 5 a's, 3 b's: 3 + 4 = 7.
        let clique: Vec<u32> = vec![6, 7, 9, 10, 11, 12, 13, 14];
        assert_eq!(attribute_bound(&g, &clique, params), 7);
        // Infeasible subset.
        assert_eq!(attribute_bound(&g, &[0, 2, 3], params), 0);
    }

    #[test]
    fn color_bound_is_chromatic_upper_bound() {
        let g = fixtures::balanced_clique(6);
        let coloring = greedy_coloring(&g);
        assert_eq!(color_bound(&coloring), 6);
        let p = fixtures::path_graph(9);
        assert_eq!(color_bound(&greedy_coloring(&p)), 2);
    }

    #[test]
    fn attribute_color_bound_on_star() {
        // Star with an a-center and many b-leaves: leaves share one color, so at most
        // 1 color per attribute survives -> bound 2 for (k=1, δ=0).
        let mut b = GraphBuilder::new(6);
        b.set_attribute(0, Attribute::A);
        for v in 1..6 {
            b.set_attribute(v, Attribute::B);
            b.add_edge(0, v);
        }
        let g = b.build().unwrap();
        let coloring = greedy_coloring(&g);
        let params = FairCliqueParams::new(1, 0).unwrap();
        assert_eq!(attribute_color_bound(&g, &coloring, params), 2);
        // The vertex-count bound is much weaker here: 1 + min(5, 1+0) = 2 as well,
        // but for δ = 4 it grows while the color bound stays 2.
        let loose = FairCliqueParams::new(1, 4).unwrap();
        assert_eq!(attribute_color_bound(&g, &coloring, loose), 2);
        let all: Vec<u32> = g.vertices().collect();
        assert_eq!(attribute_bound(&g, &all, loose), 6);
    }

    #[test]
    fn enhanced_bound_never_exceeds_attribute_color_bound() {
        let graphs = [
            fixtures::fig1_graph(),
            fixtures::balanced_clique(9),
            fixtures::two_cliques_with_bridge(5, 4),
        ];
        let params = FairCliqueParams::new(2, 1).unwrap();
        for g in &graphs {
            let coloring = greedy_coloring(g);
            let eac = enhanced_attribute_color_bound(g, &coloring, params);
            let ac = attribute_color_bound(g, &coloring, params);
            assert!(eac <= ac, "ubeac={eac} > ubac={ac}");
        }
    }

    #[test]
    fn enhanced_bound_handles_all_mixed_colors() {
        // Star where the center is a and the leaves alternate attributes but share the
        // same color: the single leaf color is mixed and can only serve one attribute.
        let mut b = GraphBuilder::new(7);
        b.set_attribute(0, Attribute::A);
        for v in 1..7 {
            b.set_attribute(
                v,
                if v % 2 == 0 {
                    Attribute::A
                } else {
                    Attribute::B
                },
            );
            b.add_edge(0, v);
        }
        let g = b.build().unwrap();
        let coloring = greedy_coloring(&g);
        let params = FairCliqueParams::new(1, 5).unwrap();
        // Colors: center color (exclusive a), leaf color (mixed). Best assignment gives
        // caps (1, 1) -> total 2; the plain attribute-color bound double counts the
        // mixed color and yields caps (2, 1) -> 3.
        assert_eq!(enhanced_attribute_color_bound(&g, &coloring, params), 2);
        assert_eq!(attribute_color_bound(&g, &coloring, params), 3);
    }

    #[test]
    fn bounds_are_zero_when_one_attribute_missing() {
        let g = fixtures::two_cliques_with_bridge(0, 5); // all a
        let coloring = greedy_coloring(&g);
        let params = FairCliqueParams::new(1, 1).unwrap();
        let all: Vec<u32> = g.vertices().collect();
        assert_eq!(attribute_bound(&g, &all, params), 0);
        assert_eq!(attribute_color_bound(&g, &coloring, params), 0);
        assert_eq!(enhanced_attribute_color_bound(&g, &coloring, params), 0);
    }
}
