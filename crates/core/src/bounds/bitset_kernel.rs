//! The shallow-node bound of the branch-and-bound, evaluated on bitset rows.
//!
//! The search holds each component as a rank-space [`BitMatrix`], so it evaluates the
//! bound of an instance `R ∪ C` on those rows instead of building a CSR induced
//! subgraph per node. Greedy coloring is bit-parallel in the style of BBMC (San
//! Segundo et al., Computers & OR 2011): every color class is a bitset (split by
//! attribute), and a vertex takes the first class its adjacency row misses.
//!
//! The kernel reproduces [`instance_upper_bound`](super::instance_upper_bound) exactly.
//! Vertices are colored in instance-degree-descending order with ties broken by the
//! rank's component-local vertex id (`order[rank]`), which is the order
//! [`greedy_coloring`](rfc_graph::coloring::greedy_coloring) uses on the induced
//! subgraph, so the coloring and every bound value are identical. The soundness
//! corrections come from the same helpers the CSR functions call.
//!
//! Unlike the reference it is told the pruning target, and returns `0` as soon as any
//! bound falls below it: the cheap bounds run first, and the extra bound runs only on
//! instances that `ubAD` did not already prune.

use rfc_graph::bitset::{BitMatrix, Bitset};

use super::{advanced, classic, colorful, BoundConfig, ExtraBound};
use crate::problem::FairCliqueParams;
use crate::search::Ranked;

/// The attribute index of `rank` in `g` (0 for `a`, 1 for `b`).
#[inline]
fn side(g: &Ranked, rank: usize) -> usize {
    usize::from(!g.attr_a.contains(rank))
}

/// The kernel's reusable buffers, sized to one component. A search worker keeps one
/// next to its bitset pool, so steady-state nodes allocate nothing.
#[derive(Debug, Default)]
pub(crate) struct BoundScratch {
    nbits: usize,
    /// Instance ranks in coloring order, each with its packed `(degree desc, id asc)`
    /// sort key.
    order: Vec<(u64, usize)>,
    /// `classes[c][side]`: the ranks of color `c` with that attribute. Only the first
    /// `num_colors` entries belong to the current instance.
    classes: Vec<[Bitset; 2]>,
    num_colors: usize,
    /// Color of each instance rank.
    color_of: Vec<u32>,
    /// Per-rank working value: the instance degree after coloring, then the extra
    /// bound's peel key or path length.
    value: Vec<u32>,
    /// Colorful degrees `[D_a, D_b]` of each instance rank.
    colorful: Vec<[u32; 2]>,
    peel: Peel,
}

impl BoundScratch {
    /// Re-targets the buffers to a component of `n` vertices, dropping them if the
    /// size changed.
    pub(crate) fn reset(&mut self, n: usize) {
        if self.nbits != n {
            *self = Self {
                nbits: n,
                color_of: vec![0; n],
                value: vec![0; n],
                colorful: vec![[0; 2]; n],
                peel: Peel::new(n),
                ..Self::default()
            };
        }
    }

    /// Greedy-colors the instance into `classes`, leaving each rank's instance degree
    /// in `value`.
    fn color(&mut self, g: &Ranked, instance: &Bitset) {
        self.order.clear();
        for r in instance {
            let degree = instance.intersection_count(g.adj.row(r)) as u32;
            self.value[r] = degree;
            let packed = (u64::from(u32::MAX - degree) << 32) | u64::from(g.order[r]);
            self.order.push((packed, r));
        }
        self.order.sort_unstable_by_key(|&(packed, _)| packed);
        self.num_colors = 0;
        for &(_, r) in &self.order {
            let row = g.adj.row(r);
            let used = &self.classes[..self.num_colors];
            let c = used
                .iter()
                .position(|[a, b]| !a.intersects(row) && !b.intersects(row))
                .unwrap_or(self.num_colors);
            if c == self.num_colors {
                match self.classes.get_mut(c) {
                    Some(class) => class.iter_mut().for_each(Bitset::clear),
                    None => self
                        .classes
                        .push([Bitset::new(self.nbits), Bitset::new(self.nbits)]),
                }
                self.num_colors += 1;
            }
            self.classes[c][side(g, r)].insert(r);
            self.color_of[r] = c as u32;
        }
    }

    /// Colors used by `a`-vertices, by `b`-vertices, and by both.
    fn color_attribute_counts(&self) -> advanced::ColorAttributeCounts {
        let (mut color_a, mut color_b, mut mixed) = (0, 0, 0);
        for [a, b] in &self.classes[..self.num_colors] {
            let (has_a, has_b) = (!a.is_empty(), !b.is_empty());
            color_a += usize::from(has_a);
            color_b += usize::from(has_b);
            mixed += usize::from(has_a && has_b);
        }
        (color_a, color_b, mixed)
    }

    /// Fills `colorful` with each instance rank's colorful degrees and `value` with
    /// their minimum `D_min`.
    fn colorful_degrees(&mut self, g: &Ranked, instance: &Bitset) {
        let classes = &self.classes[..self.num_colors];
        for r in instance {
            let row = g.adj.row(r);
            let mut degrees = [0u32; 2];
            for class in classes {
                for (degree, members) in degrees.iter_mut().zip(class) {
                    *degree += u32::from(members.intersects(row));
                }
            }
            self.colorful[r] = degrees;
            self.value[r] = degrees[0].min(degrees[1]);
        }
    }

    /// Degeneracy of the instance (peeling its degrees).
    fn degeneracy(&mut self, g: &Ranked, instance: &Bitset) -> usize {
        self.peel
            .max_level(&g.adj, instance, &mut self.value, |w, alive, degree| {
                for u in common(g.adj.row(w), alive.words()) {
                    degree[u] -= 1;
                }
            }) as usize
    }

    /// Colorful degeneracy of the instance: peels `D_min`, removing each peeled
    /// vertex from its color class and re-testing its neighbors' rows against that
    /// class. The result does not depend on the peel's tie-breaks.
    fn colorful_degeneracy(&mut self, g: &Ranked, instance: &Bitset) -> usize {
        self.colorful_degrees(g, instance);
        let Self {
            classes,
            color_of,
            colorful,
            value,
            peel,
            ..
        } = self;
        peel.max_level(&g.adj, instance, value, |w, alive, d_min| {
            let side = side(g, w);
            let class = &mut classes[color_of[w] as usize][side];
            class.remove(w);
            for u in common(g.adj.row(w), alive.words()) {
                if !class.intersects(g.adj.row(u)) {
                    colorful[u][side] -= 1;
                    d_min[u] = colorful[u][0].min(colorful[u][1]);
                }
            }
        }) as usize
    }

    /// The h-index of `value` over the instance ranks, sorted in a reused buffer so
    /// that, unlike `rfc_graph::cores::h_index_of`, it allocates nothing.
    fn h_index(&mut self, instance: &Bitset) -> usize {
        let values = &mut self.peel.stack;
        values.clear();
        values.extend(instance.iter().map(|r| self.value[r] as usize));
        values.sort_unstable_by(|a, b| b.cmp(a));
        // With the values descending, `h` entries are ≥ `h` exactly while the h-th
        // value exceeds its 0-based index.
        values
            .iter()
            .enumerate()
            .take_while(|&(i, &v)| v > i)
            .count()
    }

    /// Vertex count of the longest colorful path: the longest-path DP over the DAG
    /// oriented by `(color, component id)`. Same-colored vertices are never adjacent,
    /// so processing each class in rank order is a topological order too.
    fn longest_colorful_path(&mut self, g: &Ranked) -> usize {
        let done = &mut self.peel.alive;
        done.clear();
        let mut longest = 0;
        for class in &self.classes[..self.num_colors] {
            for v in class.iter().flatten() {
                let before = common(g.adj.row(v), done.words()).map(|u| self.value[u]);
                let length = before.max().unwrap_or(0) + 1;
                self.value[v] = length;
                longest = longest.max(length);
                done.insert(v);
            }
        }
        longest as usize
    }
}

/// The buffers of a min-key-first peel.
#[derive(Debug)]
struct Peel {
    alive: Bitset,
    queued: Bitset,
    stack: Vec<usize>,
}

impl Default for Peel {
    fn default() -> Self {
        Self::new(0)
    }
}

impl Peel {
    fn new(n: usize) -> Self {
        Self {
            alive: Bitset::new(n),
            queued: Bitset::new(n),
            stack: Vec::new(),
        }
    }

    /// Peels `instance`, always removing a vertex whose `key` is at most the current
    /// level and raising the level to the smallest key left when none is. Returns the
    /// final level: the degeneracy for degree keys, the colorful degeneracy for `D_min`
    /// keys. Keys only ever drop, and only through `on_remove(w, alive, key)`, which
    /// updates the keys of `w`'s alive neighbors.
    fn max_level(
        &mut self,
        adj: &BitMatrix,
        instance: &Bitset,
        key: &mut [u32],
        mut on_remove: impl FnMut(usize, &Bitset, &mut [u32]),
    ) -> u32 {
        self.alive.copy_from(instance);
        self.queued.clear();
        self.stack.clear();
        let mut level = 0;
        for _ in 0..instance.count() {
            if self.stack.is_empty() {
                let lowest = self.alive.iter().map(|v| key[v]).min();
                level = level.max(lowest.expect("vertices are left"));
                for v in self.alive.iter().filter(|&v| key[v] <= level) {
                    self.queued.insert(v);
                    self.stack.push(v);
                }
            }
            let w = self.stack.pop().expect("a vertex is queued");
            self.alive.remove(w);
            on_remove(w, &self.alive, key);
            for u in common(adj.row(w), self.alive.words()) {
                if key[u] <= level && !self.queued.contains(u) {
                    self.queued.insert(u);
                    self.stack.push(u);
                }
            }
        }
        level
    }
}

/// The elements of `a ∩ b`, ascending, for two word slices of one capacity.
fn common<'a>(a: &'a [u64], b: &'a [u64]) -> impl Iterator<Item = usize> + 'a {
    a.iter().zip(b).enumerate().flat_map(|(i, (&x, &y))| {
        let mut word = x & y;
        std::iter::from_fn(move || {
            (word != 0).then(|| {
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                i * u64::BITS as usize + bit
            })
        })
    })
}

/// The configured upper bound of the instance `R ∪ C = instance` (a set of ranks of
/// `g`), or `0` once any bound falls below `max(target, params.min_size())`.
///
/// When the instance is not pruned the value is exactly
/// [`instance_upper_bound`](super::instance_upper_bound) of the same vertex set, and
/// `target = 0` always yields that value; so for every target the kernel's value is
/// below it exactly when the reference's is.
pub(crate) fn rank_upper_bound(
    g: &Ranked,
    instance: &Bitset,
    params: FairCliqueParams,
    config: &BoundConfig,
    target: usize,
    scratch: &mut BoundScratch,
) -> usize {
    let goal = target.max(params.min_size());
    let size = instance.count();
    let count_a = instance.intersection_count(g.attr_a.words());
    // ubs and uba.
    let Some(uba) = params.best_fair_total(count_a, size - count_a) else {
        return 0;
    };
    let mut bound = size.min(uba);
    if bound < goal {
        return 0;
    }
    if !config.advanced && config.extra == ExtraBound::None {
        return bound;
    }

    scratch.color(g, instance);
    if config.advanced {
        let counts = scratch.color_attribute_counts();
        bound = bound
            .min(scratch.num_colors)
            .min(advanced::attribute_color_cap(counts, params))
            .min(advanced::enhanced_attribute_color_cap(counts, params));
        if bound < goal {
            return 0;
        }
    }

    let extra = match config.extra {
        ExtraBound::None => usize::MAX,
        ExtraBound::Degeneracy => classic::clique_cap(scratch.degeneracy(g, instance)),
        ExtraBound::HIndex => classic::clique_cap(scratch.h_index(instance)),
        ExtraBound::ColorfulDegeneracy => {
            colorful::fair_cap(scratch.colorful_degeneracy(g, instance), params)
        }
        ExtraBound::ColorfulHIndex => {
            scratch.colorful_degrees(g, instance);
            colorful::fair_cap(scratch.h_index(instance), params)
        }
        ExtraBound::ColorfulPath => scratch.longest_colorful_path(g),
    };
    bound = bound.min(extra);
    if bound < goal {
        0
    } else {
        bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::instance_upper_bound;
    use rfc_graph::{fixtures, Attribute, AttributedGraph, GraphBuilder, VertexId};

    /// SplitMix64 step, for seeded test graphs and subsets.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// `true` with probability `percent / 100`.
    fn coin(state: &mut u64, percent: u64) -> bool {
        next(state) % 100 < percent
    }

    fn erdos_renyi(n: usize, percent: u64, seed: u64) -> AttributedGraph {
        let mut state = seed;
        let mut b = GraphBuilder::new(n);
        for v in 0..n as VertexId {
            if coin(&mut state, 50) {
                b.set_attribute(v, Attribute::B);
            }
        }
        for u in 0..n as VertexId {
            for v in u + 1..n as VertexId {
                if coin(&mut state, percent) {
                    b.add_edge(u, v);
                }
            }
        }
        b.build().unwrap()
    }

    /// `g` in rank space under a seeded shuffle, so ranks, keys and vertex ids differ.
    fn shuffled(g: &AttributedGraph, seed: u64) -> Ranked {
        let n = g.num_vertices();
        let mut order: Vec<VertexId> = g.vertices().collect();
        let mut state = seed;
        for i in (1..n).rev() {
            order.swap(i, (next(&mut state) % (i as u64 + 1)) as usize);
        }
        let mut rank_of = vec![0; n];
        for (rank, &v) in order.iter().enumerate() {
            rank_of[v as usize] = rank;
        }
        let mut adj = BitMatrix::new(n);
        for &(u, v) in g.edge_list() {
            adj.set_edge(rank_of[u as usize], rank_of[v as usize]);
        }
        let mut attr_a = Bitset::new(n);
        for v in g.vertices() {
            if g.attribute(v) == Attribute::A {
                attr_a.insert(rank_of[v as usize]);
            }
        }
        Ranked {
            order,
            rank_of,
            adj,
            attr_a,
        }
    }

    /// The ranks of `vertices`.
    fn ranks(ranked: &Ranked, vertices: &[VertexId]) -> Bitset {
        let mut set = Bitset::new(ranked.order.len());
        for &v in vertices {
            set.insert(ranked.rank_of[v as usize]);
        }
        set
    }

    /// The search's instance shapes plus arbitrary ones: the whole graph; for about ten
    /// vertices `v` spread over the rank order, `({v}, later N(v))`,
    /// `({v, w}, N(v) ∩ N(w) after w)` and the closed neighborhood of `v`; and seeded
    /// random subsets.
    fn instances(g: &AttributedGraph, ranked: &Ranked, seed: u64) -> Vec<Vec<VertexId>> {
        let later =
            |v: VertexId, u: VertexId| ranked.rank_of[u as usize] > ranked.rank_of[v as usize];
        let mut out = vec![g.vertices().collect::<Vec<_>>()];
        for &v in ranked.order.iter().step_by(g.num_vertices().div_ceil(10)) {
            let c: Vec<VertexId> = g
                .neighbors(v)
                .iter()
                .copied()
                .filter(|&u| later(v, u))
                .collect();
            if let Some(&w) = c.first() {
                let mut depth2 = vec![v, w];
                depth2.extend(
                    c.iter()
                        .copied()
                        .filter(|&u| later(w, u) && g.has_edge(w, u)),
                );
                out.push(depth2);
            }
            let mut depth1 = vec![v];
            depth1.extend(c);
            out.push(depth1);
            let mut closed = g.neighbors(v).to_vec();
            closed.push(v);
            out.push(closed);
        }
        let mut state = seed;
        for percent in [40, 70, 90] {
            out.push(g.vertices().filter(|_| coin(&mut state, percent)).collect());
        }
        out
    }

    fn configs() -> Vec<BoundConfig> {
        let mut configs = Vec::new();
        for extra in ExtraBound::ALL {
            for advanced in [true, false] {
                configs.push(BoundConfig {
                    advanced,
                    extra,
                    max_depth: 1,
                });
            }
        }
        configs
    }

    /// Checks the kernel against the CSR reference on every instance of `g`, for every
    /// bound configuration: equal full values, and equal prune decisions at several
    /// targets. Returns how many (instance, config, params) triples were compared.
    fn check_graph(g: &AttributedGraph, seed: u64, scratch: &mut BoundScratch) -> usize {
        let ranked = shuffled(g, seed);
        scratch.reset(g.num_vertices());
        let params_list = [
            FairCliqueParams::new(1, 0).unwrap(),
            FairCliqueParams::new(2, 1).unwrap(),
            FairCliqueParams::new(3, 2).unwrap(),
        ];
        let mut compared = 0;
        for vertices in instances(g, &ranked, seed) {
            let set = ranks(&ranked, &vertices);
            for config in configs() {
                for params in params_list {
                    let reference = instance_upper_bound(g, &vertices, params, &config);
                    let full = rank_upper_bound(&ranked, &set, params, &config, 0, scratch);
                    assert_eq!(
                        full,
                        reference,
                        "{} (advanced {}) {params} on {vertices:?}",
                        config.extra.label(),
                        config.advanced
                    );
                    for target in [reference, reference + 1, 9] {
                        let value =
                            rank_upper_bound(&ranked, &set, params, &config, target, scratch);
                        assert_eq!(
                            value < target,
                            reference < target,
                            "{} (advanced {}) {params} target {target}: kernel {value}, \
                             reference {reference} on {vertices:?}",
                            config.extra.label(),
                            config.advanced
                        );
                        if value >= target {
                            assert_eq!(value, reference, "unpruned values are exact");
                        }
                    }
                    compared += 1;
                }
            }
        }
        compared
    }

    #[test]
    fn kernel_matches_the_csr_reference_on_random_graphs() {
        // One scratch for every graph: stale classes and resized buffers must not leak.
        let mut scratch = BoundScratch::default();
        let mut compared = 0;
        for (i, n) in [6usize, 11, 23, 41, 64, 65, 70].into_iter().enumerate() {
            for percent in [30, 75] {
                let seed = 1000 * i as u64 + percent;
                compared += check_graph(&erdos_renyi(n, percent, seed), seed, &mut scratch);
            }
        }
        assert!(compared > 5_000, "only {compared} comparisons");
    }

    #[test]
    fn kernel_matches_the_csr_reference_on_fixtures() {
        let mut scratch = BoundScratch::default();
        for (seed, g) in [
            fixtures::fig1_graph(),
            fixtures::fig2_graph(),
            fixtures::balanced_clique(8),
            fixtures::two_cliques_with_bridge(6, 5),
            fixtures::two_cliques_with_bridge(0, 6),
            fixtures::path_graph(7),
        ]
        .iter()
        .enumerate()
        {
            check_graph(g, seed as u64, &mut scratch);
        }
    }

    #[test]
    fn coloring_matches_greedy_coloring_of_the_induced_subgraph() {
        use rfc_graph::coloring::greedy_coloring;
        use rfc_graph::subgraph::induced_subgraph;
        let g = erdos_renyi(70, 50, 7);
        let ranked = shuffled(&g, 7);
        let mut scratch = BoundScratch::default();
        scratch.reset(g.num_vertices());
        for vertices in instances(&g, &ranked, 7) {
            let sub = induced_subgraph(&g, &vertices);
            let expected = greedy_coloring(&sub.graph);
            scratch.color(&ranked, &ranks(&ranked, &vertices));
            assert_eq!(scratch.num_colors, expected.num_colors);
            for (i, &v) in sub.original.iter().enumerate() {
                let rank = ranked.rank_of[v as usize];
                assert_eq!(scratch.color_of[rank], expected.colors[i], "vertex {v}");
            }
        }
    }

    #[test]
    fn early_exit_skips_later_bounds() {
        let g = fixtures::fig1_graph();
        let ranked = shuffled(&g, 3);
        let mut scratch = BoundScratch::default();
        scratch.reset(g.num_vertices());
        let all = Bitset::full(g.num_vertices());
        let params = FairCliqueParams::new(3, 1).unwrap();
        let config = BoundConfig::default();
        let colored = |scratch: &BoundScratch| -> usize {
            let classes = &scratch.classes[..scratch.num_colors];
            classes.iter().map(|[a, b]| a.count() + b.count()).sum()
        };
        // 10 a's and 5 b's give uba = 11, so a target of 12 prunes before coloring.
        assert_eq!(
            rank_upper_bound(&ranked, &all, params, &config, 12, &mut scratch),
            0
        );
        assert_eq!(scratch.num_colors, 0, "pruned by uba before coloring");
        // Just above ubAD, the instance is pruned before the colorful peel, which would
        // have emptied the color classes.
        let ubad_only = BoundConfig::with_extra(ExtraBound::None);
        let ubad = rank_upper_bound(&ranked, &all, params, &ubad_only, 0, &mut scratch);
        assert!(ubad < 11, "ubAD = {ubad} must undercut uba");
        assert_eq!(
            rank_upper_bound(&ranked, &all, params, &config, ubad + 1, &mut scratch),
            0
        );
        assert_eq!(colored(&scratch), g.num_vertices(), "ubcd did not run");
        // With no target every bound runs, and the value is the reference's.
        let full = rank_upper_bound(&ranked, &all, params, &config, 0, &mut scratch);
        let all_ids: Vec<VertexId> = g.vertices().collect();
        assert_eq!(full, instance_upper_bound(&g, &all_ids, params, &config));
        assert_eq!(
            colored(&scratch),
            0,
            "the colorful peel removed every vertex"
        );
    }
}
