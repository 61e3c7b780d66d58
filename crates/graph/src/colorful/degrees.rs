//! Colorful degrees (Definition 2) and the flat per-owner color counting structure
//! shared by the colorful-core, enhanced-colorful-core and colorful-support peelings.

use crate::attr::Attribute;
use crate::coloring::Coloring;
use crate::graph::{AttributedGraph, VertexId};

use super::enhanced::ColorGroups;

/// Per-vertex colorful degrees: `D_a(v)` and `D_b(v)` — the number of distinct colors
/// among `v`'s neighbors with attribute `a` (resp. `b`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColorfulDegrees {
    /// `per_attr[v] = [D_a(v), D_b(v)]`.
    pub per_attr: Vec<[u32; 2]>,
}

impl ColorfulDegrees {
    /// `D_attr(v)`.
    #[inline]
    pub fn degree(&self, v: VertexId, attr: Attribute) -> u32 {
        self.per_attr[v as usize][attr.index()]
    }

    /// `D_min(v) = min(D_a(v), D_b(v))` (Definition 10 uses this quantity).
    #[inline]
    pub fn min_degree(&self, v: VertexId) -> u32 {
        let [a, b] = self.per_attr[v as usize];
        a.min(b)
    }

    /// `D_a(v) + D_b(v)`.
    #[inline]
    pub fn sum_degree(&self, v: VertexId) -> u32 {
        let [a, b] = self.per_attr[v as usize];
        a + b
    }
}

/// Per-owner `(color, [count_a, count_b])` entries in one flat array.
///
/// An owner is a vertex (counting its neighbors) or an edge (counting the common
/// neighbors of its endpoints), identified by a dense index. Each owner's entries form
/// one slice sorted by color, so a lookup is a binary search. [`ColorCountsBuilder`]
/// fills the table.
///
/// A color whose counts drop to `[0, 0]` keeps its entry; [`ColorCounts::remove`] treats
/// such an entry exactly like a color that was never counted.
#[derive(Debug, Clone)]
pub struct ColorCounts {
    /// `entries[offsets[i]..offsets[i + 1]]` belongs to owner `i`.
    offsets: Vec<u32>,
    entries: Vec<(u32, [u32; 2])>,
}

impl ColorCounts {
    /// The neighbor color counts of every vertex of `g`, counting only vertices for which
    /// `keep` holds, both as owners and as neighbors.
    pub(crate) fn of_neighbors(
        g: &AttributedGraph,
        coloring: &Coloring,
        keep: impl Fn(VertexId) -> bool,
    ) -> Self {
        let bound = g.vertices().filter(|&v| keep(v)).map(|v| g.degree(v)).sum();
        let mut builder = ColorCountsBuilder::new(g.num_vertices(), coloring.num_colors, bound);
        for v in g.vertices() {
            if keep(v) {
                for &u in g.neighbors(v) {
                    if keep(u) {
                        builder.push(coloring.color(u), g.attribute(u));
                    }
                }
            }
            builder.finish_owner(v);
        }
        builder.build()
    }

    #[inline]
    fn range(&self, owner: u32) -> std::ops::Range<usize> {
        let i = owner as usize;
        self.offsets[i] as usize..self.offsets[i + 1] as usize
    }

    /// The entries of `owner`, sorted by color, including colors whose counts fell to zero.
    #[inline]
    pub fn entries(&self, owner: u32) -> &[(u32, [u32; 2])] {
        &self.entries[self.range(owner)]
    }

    /// The exclusive/mixed color groups of `owner`.
    pub fn groups(&self, owner: u32) -> ColorGroups {
        ColorGroups::from_counts(self.entries(owner).iter().map(|(_, counts)| counts))
    }

    /// Removes one counted neighbor with the given color and attribute from `owner`.
    /// Returns the color's `[count_a, count_b]` before and after the removal.
    ///
    /// # Panics
    /// If `owner` has no neighbor of that color left, or none of that color and
    /// attribute.
    pub fn remove(&mut self, owner: u32, color: u32, attr: Attribute) -> ([u32; 2], [u32; 2]) {
        let range = self.range(owner);
        let entries = &mut self.entries[range];
        let counts = match entries.binary_search_by_key(&color, |&(c, _)| c) {
            Ok(at) if entries[at].1 != [0, 0] => &mut entries[at].1,
            _ => panic!("removing a color that was never counted"),
        };
        let before = *counts;
        let slot = &mut counts[attr.index()];
        assert!(*slot > 0, "color count underflow");
        *slot -= 1;
        (before, *counts)
    }
}

/// Fills a [`ColorCounts`] owner by owner, in index order.
///
/// The counts of the owner being filled accumulate in a color-indexed scratch row;
/// closing the owner walks a bitset of the colors it touched, so its entries come out
/// merged and sorted without a sort, and its [`ColorGroups`] come from the same walk.
/// [`ColorCountsBuilder::push_keys`] takes a whole owner's neighbors as packed keys
/// ([`ColorCountsBuilder::key`]) and marks colors below 64 in a register word.
#[derive(Debug)]
pub struct ColorCountsBuilder {
    counts: ColorCounts,
    /// Per-color counts of the owner being filled.
    pending: Vec<[u32; 2]>,
    /// Bitset of the colors with a pending count; word 0 always exists.
    touched: Vec<u64>,
}

impl ColorCountsBuilder {
    /// A builder for `owners` owners whose colors lie in `0..num_colors`. `bound` is at
    /// least the total number of entries, one per distinct color of each owner; the
    /// entries array is allocated once with that capacity.
    ///
    /// # Panics
    /// If `num_colors` exceeds `u32::MAX / 2`, the range of the packed keys.
    pub fn new(owners: usize, num_colors: usize, bound: usize) -> Self {
        // Every color is then below `u32::MAX / 2`, and key 0 decodes to no color.
        assert!(
            num_colors <= (u32::MAX / 2) as usize,
            "{num_colors} colors exceed the packed keys"
        );
        let mut offsets = Vec::with_capacity(owners + 1);
        offsets.push(0);
        Self {
            counts: ColorCounts {
                offsets,
                entries: Vec::with_capacity(bound),
            },
            pending: vec![[0, 0]; num_colors],
            touched: vec![0; num_colors.div_ceil(64).max(1)],
        }
    }

    /// The packed key `1 + 2·color + attribute` of a neighbor, as
    /// [`ColorCountsBuilder::push_keys`] takes it. No key is 0, so callers can use 0 for
    /// "not a neighbor".
    ///
    /// # Panics
    /// If `color` is not below `u32::MAX / 2`.
    #[inline]
    pub fn key(color: u32, attr: Attribute) -> u32 {
        assert!(
            color < u32::MAX / 2,
            "color {color} exceeds the packed keys"
        );
        1 + 2 * color + attr.index() as u32
    }

    /// Counts one neighbor with the given color and attribute for the owner being filled.
    #[inline]
    pub fn push(&mut self, color: u32, attr: Attribute) {
        self.push_keys(&[Self::key(color, attr)]);
    }

    /// Counts one neighbor per packed key ([`ColorCountsBuilder::key`]) for the owner
    /// being filled.
    ///
    /// # Panics
    /// If a key is 0 or its color is not below the builder's `num_colors`.
    #[inline]
    pub fn push_keys(&mut self, keys: &[u32]) {
        let mut low = 0u64;
        for &key in keys {
            let slot = key - 1;
            let c = (slot / 2) as usize;
            self.pending[c][(slot % 2) as usize] += 1;
            // Colors below 64 stay in a register; on graphs with fewer than 64 colors
            // the other branch is never taken.
            if c < 64 {
                low |= 1 << c;
            } else {
                self.touched[c / 64] |= 1 << (c % 64);
            }
        }
        self.touched[0] |= low;
    }

    /// Closes `owner`, which must be the next owner in index order, with the counts
    /// pushed since the previous owner closed, and returns its color groups.
    pub fn finish_owner(&mut self, owner: u32) -> ColorGroups {
        assert_eq!(
            owner as usize + 1,
            self.counts.offsets.len(),
            "color-count owners must be filled in index order"
        );
        let mut groups = ColorGroups::default();
        for (at, word) in self.touched.iter_mut().enumerate() {
            while *word != 0 {
                let c = at * 64 + word.trailing_zeros() as usize;
                *word &= *word - 1;
                let counts = std::mem::take(&mut self.pending[c]);
                groups.add(counts);
                self.counts.entries.push((c as u32, counts));
            }
        }
        let end = u32::try_from(self.counts.entries.len())
            .expect("color-count entries exceed u32 offsets");
        self.counts.offsets.push(end);
        groups
    }

    /// The filled table.
    pub fn build(self) -> ColorCounts {
        self.counts
    }
}

/// Mutable per-vertex counts of neighbors by `(color, attribute)`.
///
/// `counts(v)[color] = [#a-neighbors of v with that color, #b-neighbors …]`. The peeling
/// algorithms decrement these counts as vertices/edges are removed and derive colorful
/// degrees (a color contributes to `D_attr(v)` while its count for `attr` is non-zero).
#[derive(Debug, Clone)]
pub struct NeighborColorCounts {
    counts: ColorCounts,
}

impl NeighborColorCounts {
    /// Builds the counts for every vertex of `g` under `coloring`.
    pub fn new(g: &AttributedGraph, coloring: &Coloring) -> Self {
        Self {
            counts: ColorCounts::of_neighbors(g, coloring, |_| true),
        }
    }

    /// Builds the counts restricted to vertices in `mask` (both the center vertex and
    /// its neighbors must be in the mask).
    pub fn new_masked(g: &AttributedGraph, coloring: &Coloring, mask: &[bool]) -> Self {
        Self {
            counts: ColorCounts::of_neighbors(g, coloring, |v| mask[v as usize]),
        }
    }

    /// The colorful degrees implied by the current counts.
    pub fn colorful_degrees(&self) -> ColorfulDegrees {
        let ColorCounts { offsets, entries } = &self.counts;
        let per_attr = offsets
            .windows(2)
            .map(|w| {
                let mut d = [0u32; 2];
                for &(_, [ca, cb]) in &entries[w[0] as usize..w[1] as usize] {
                    if ca > 0 {
                        d[0] += 1;
                    }
                    if cb > 0 {
                        d[1] += 1;
                    }
                }
                d
            })
            .collect();
        ColorfulDegrees { per_attr }
    }

    /// Removes one neighbor `w` (with the given color and attribute) from `v`'s view.
    ///
    /// Returns `true` if the count for `(color, attribute)` dropped to zero — i.e. the
    /// colorful degree `D_attr(v)` decreased by one.
    pub fn remove_neighbor(&mut self, v: VertexId, color: u32, attr: Attribute) -> bool {
        let (_, after) = self.counts.remove(v, color, attr);
        after[attr.index()] == 0
    }

    /// Current count for `(v, color, attr)`.
    pub fn count(&self, v: VertexId, color: u32, attr: Attribute) -> u32 {
        let entries = self.counts.entries(v);
        entries
            .binary_search_by_key(&color, |&(c, _)| c)
            .map_or(0, |i| entries[i].1[attr.index()])
    }

    /// Iterates over `(color, [count_a, count_b])` entries of vertex `v`, in color order,
    /// skipping colors none of whose neighbors remain.
    pub fn colors_of(&self, v: VertexId) -> impl Iterator<Item = (u32, [u32; 2])> + '_ {
        self.counts
            .entries(v)
            .iter()
            .copied()
            .filter(|&(_, counts)| counts != [0, 0])
    }
}

/// Computes the colorful degrees of every vertex (Definition 2).
pub fn colorful_degrees(g: &AttributedGraph, coloring: &Coloring) -> ColorfulDegrees {
    NeighborColorCounts::new(g, coloring).colorful_degrees()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coloring::greedy_coloring;
    use crate::fixtures;

    #[test]
    fn colorful_degrees_on_balanced_clique() {
        // In K6 with alternating attributes every vertex has 3 neighbors of one
        // attribute and 2 of the other, all distinctly colored.
        let g = fixtures::balanced_clique(6);
        let c = greedy_coloring(&g);
        let d = colorful_degrees(&g, &c);
        for v in g.vertices() {
            let mine = g.attribute(v);
            // 2 neighbors share my attribute, 3 have the other.
            assert_eq!(d.degree(v, mine), 2);
            assert_eq!(d.degree(v, mine.other()), 3);
            assert_eq!(d.min_degree(v), 2);
            assert_eq!(d.sum_degree(v), 5);
        }
    }

    #[test]
    fn colorful_degree_counts_distinct_colors_not_neighbors() {
        // Star: center 0 with 4 leaves of attribute B. Leaves are pairwise
        // non-adjacent, so greedy coloring gives them all the same color; the center's
        // colorful b-degree is 1 even though it has 4 b-neighbors.
        let mut b = crate::builder::GraphBuilder::new(5);
        b.set_attribute(0, Attribute::A);
        for v in 1..5 {
            b.set_attribute(v, Attribute::B);
            b.add_edge(0, v);
        }
        let g = b.build().unwrap();
        let c = greedy_coloring(&g);
        let d = colorful_degrees(&g, &c);
        assert_eq!(d.degree(0, Attribute::B), 1);
        assert_eq!(d.degree(0, Attribute::A), 0);
        assert_eq!(d.min_degree(0), 0);
        for v in 1..5 {
            assert_eq!(d.degree(v, Attribute::A), 1);
            assert_eq!(d.degree(v, Attribute::B), 0);
        }
    }

    #[test]
    fn fig1_graph_is_a_colorful_2_core_candidate() {
        // Example 2 states Dmin(u, G) >= 2 for every vertex of the Fig. 1 graph. Our
        // fixture is only adapted from the figure, so check the planted-clique side
        // which must certainly satisfy it.
        let g = fixtures::fig1_graph();
        let c = greedy_coloring(&g);
        let d = colorful_degrees(&g, &c);
        for v in [6u32, 7, 9, 10, 11, 12, 13, 14] {
            assert!(d.min_degree(v) >= 2, "vertex {v} has Dmin < 2");
        }
    }

    #[test]
    fn remove_neighbor_updates_counts() {
        let g = fixtures::balanced_clique(4);
        let coloring = greedy_coloring(&g);
        let mut counts = NeighborColorCounts::new(&g, &coloring);
        let v = 0u32;
        let w = 1u32;
        let color_w = coloring.color(w);
        let attr_w = g.attribute(w);
        assert_eq!(counts.count(v, color_w, attr_w), 1);
        let exhausted = counts.remove_neighbor(v, color_w, attr_w);
        assert!(exhausted);
        assert_eq!(counts.count(v, color_w, attr_w), 0);
        // The exhausted color keeps its zeroed entry, which `colors_of` skips.
        assert!(counts.colors_of(v).all(|(c, _)| c != color_w));
        assert_eq!(counts.colors_of(v).count(), 2);
        let d = counts.colorful_degrees();
        // v lost one distinct color of w's attribute.
        let full = colorful_degrees(&g, &coloring);
        assert_eq!(d.degree(v, attr_w) + 1, full.degree(v, attr_w));
    }

    #[test]
    fn masked_counts_ignore_outside_vertices() {
        let g = fixtures::fig1_graph();
        let coloring = greedy_coloring(&g);
        let mut mask = vec![false; g.num_vertices()];
        for v in [6usize, 7, 9, 10] {
            mask[v] = true;
        }
        let counts = NeighborColorCounts::new_masked(&g, &coloring, &mask);
        let d = counts.colorful_degrees();
        // Within {v7, v8, v10, v11}: v11 (id 10, attribute a) sees 3 b... actually
        // v7, v8, v10 are b and v11 is a; so id 10 sees 3 distinct b-colors, 0 a.
        assert_eq!(d.degree(10, Attribute::B), 3);
        assert_eq!(d.degree(10, Attribute::A), 0);
        // Vertices outside the mask have empty counts.
        assert_eq!(d.degree(0, Attribute::A), 0);
        assert_eq!(d.degree(0, Attribute::B), 0);
    }

    #[test]
    fn packed_keys_count_colors_on_both_sides_of_a_word() {
        let mut builder = ColorCountsBuilder::new(2, 130, 8);
        let key = ColorCountsBuilder::key;
        builder.push_keys(&[key(129, Attribute::A), key(3, Attribute::B)]);
        builder.push(3, Attribute::A);
        builder.push_keys(&[key(70, Attribute::B), key(129, Attribute::A)]);
        let groups = builder.finish_owner(0);
        builder.push_keys(&[key(64, Attribute::A)]);
        assert_eq!(builder.finish_owner(1).exclusive, [1, 0]);
        let counts = builder.build();
        assert_eq!(
            counts.entries(0),
            [(3, [1, 1]), (70, [0, 1]), (129, [2, 0])]
        );
        assert_eq!(counts.entries(1), [(64, [1, 0])]);
        assert_eq!(groups, counts.groups(0));
        assert_eq!((groups.exclusive, groups.mixed), ([1, 1], 1));
    }

    #[test]
    #[should_panic(expected = "never counted")]
    fn remove_unknown_neighbor_panics() {
        let g = fixtures::path_graph(3);
        let coloring = greedy_coloring(&g);
        let mut counts = NeighborColorCounts::new(&g, &coloring);
        // Vertex 0 has no neighbor with a bogus color id 99.
        counts.remove_neighbor(0, 99, Attribute::A);
    }

    #[test]
    #[should_panic(expected = "never counted")]
    fn removing_an_exhausted_color_again_panics() {
        let g = fixtures::path_graph(3);
        let coloring = greedy_coloring(&g);
        let mut counts = NeighborColorCounts::new(&g, &coloring);
        // Vertex 0's only neighbor is vertex 1; its zeroed entry must count as absent.
        let (color, attr) = (coloring.color(1), g.attribute(1));
        assert!(counts.remove_neighbor(0, color, attr));
        counts.remove_neighbor(0, color, attr);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn removing_a_neighbor_of_an_uncounted_attribute_panics() {
        let g = fixtures::path_graph(3);
        let coloring = greedy_coloring(&g);
        let mut counts = NeighborColorCounts::new(&g, &coloring);
        counts.remove_neighbor(0, coloring.color(1), g.attribute(1).other());
    }
}
