//! The per-component branch-and-bound recursion (Algorithm 3, canonical-order variant).
//!
//! Vertices of the component are re-labeled by their rank in the configured
//! [`BranchOrder`](super::BranchOrder), and all candidate sets are [`Bitset`]s over
//! ranks backed by a dense [`BitMatrix`] adjacency built once per component. The hot
//! `candidates ∩ N(v)` step of every branch is then a fused AND+popcount into a
//! pooled scratch bitset ([`BitsetPool`]), so steady-state branching allocates
//! nothing, and iterating a candidate set's bits in ascending order *is* iterating it
//! in branching order. The shallow-node bounds run on the same rows: the instance
//! `R ∪ C` goes to the bound kernel as a rank bitset together with the incumbent's
//! target, and the kernel's buffers live next to the pool in the worker's [`Scratch`].
//!
//! [`BitMatrix`]: rfc_graph::bitset::BitMatrix
//!
//! The per-component state is split in two so one component can be searched by many
//! workers:
//!
//! * [`ComponentContext`] — the immutable, shareable part (the component graph and its
//!   id table, branching order, bitset adjacency, attribute mask). Built once per
//!   search of a component and shared through an `Arc` by every task that runs one
//!   of its subtrees, so it is freed when the component's last task ends.
//! * [`ComponentSearch`] — one worker's view of a search in progress: its stats,
//!   scratch pool, current partial clique and the subtree tasks it has split off.
//!
//! When `split_depth > 0` the search does not recurse through the top levels of the
//! tree: each branch node shallower than `split_depth` is packaged as a
//! [`SubtreeTask`] — an owned `(clique, counts, candidates)` snapshot with its
//! component's context — and collected for the caller to scatter across the
//! work-stealing pool. A subtree task re-enters
//! [`branch`](ComponentSearch::run_task) at its recorded depth and from there on runs
//! the ordinary recursion, re-checking every bound against the *current* shared
//! incumbent first, so work that was already pruned-out by the time it is stolen costs
//! one node visit.

use std::sync::Arc;

use rfc_graph::bitset::{Bitset, BitsetPool};
use rfc_graph::{AttributeCounts, VertexId};

use crate::bounds::bitset_kernel::{rank_upper_bound, BoundScratch};
use crate::bounds::ExtraBound;
use crate::problem::FairCliqueParams;
use crate::solver::Component;

use super::control::SearchControl;
use super::ordering::Ranked;
use super::parallel::SharedIncumbent;
use super::{SearchConfig, SearchStats};

/// The immutable per-component search state, shareable across workers.
pub(super) struct ComponentContext<'a> {
    /// The component: its graph in compact ids, and its vertex list, which takes
    /// them to the reduced graph's ids that cliques are published in.
    component: &'a Component,
    /// The component in branching order. Candidate attribute counts come from one
    /// AND + popcount against its `attr_a` mask.
    ranked: Ranked,
    /// Branch nodes strictly shallower than this depth are split off as
    /// [`SubtreeTask`]s instead of being recursed into. `0` (the serial setting)
    /// disables splitting entirely.
    pub(super) split_depth: usize,
}

impl<'a> ComponentContext<'a> {
    /// Builds the context for one component, publishing cliques in the reduced
    /// graph's ids.
    pub(super) fn new(component: &'a Component, config: &SearchConfig) -> Self {
        Self {
            component,
            ranked: Ranked::new(&component.graph, config.branch_order),
            split_depth: 0,
        }
    }

    /// Returns the context with the given split depth (see
    /// [`split_depth`](Self::split_depth)).
    pub(super) fn with_split_depth(mut self, depth: usize) -> Self {
        self.split_depth = depth;
        self
    }

    /// Number of vertices of the component (the capacity of all its bitsets).
    pub(super) fn num_vertices(&self) -> usize {
        self.component.graph.num_vertices()
    }

    /// The clique `r` of compact ids, in published ids.
    fn publish(&self, r: &[VertexId]) -> Vec<VertexId> {
        r.iter()
            .map(|&v| self.component.vertices[v as usize])
            .collect()
    }
}

/// One worker's reusable scratch: the candidate bitsets of the recursion and the
/// buffers of the shallow-node bound kernel. Reset to each component's size, it lets
/// steady-state nodes run without allocating.
#[derive(Debug, Default)]
pub(super) struct Scratch {
    bitsets: BitsetPool,
    bounds: BoundScratch,
}

impl Scratch {
    /// Re-targets every buffer to a component of `n` vertices.
    pub(super) fn reset(&mut self, n: usize) {
        self.bitsets.reset(n);
        self.bounds.reset(n);
    }
}

/// A stealable piece of one component's search tree: a branch node snapshot that any
/// worker can resume.
pub(super) struct SubtreeTask<'a> {
    /// The owning component's context.
    pub(super) ctx: Arc<ComponentContext<'a>>,
    /// The partial clique at the subtree root, in component-local ids.
    pub(super) r: Vec<VertexId>,
    /// Attribute counts of `r`.
    pub(super) counts: AttributeCounts,
    /// The candidate set at the subtree root.
    pub(super) candidates: Bitset,
    /// Depth of the subtree root in the component's tree.
    pub(super) depth: usize,
}

/// Branch-and-bound search over (part of) a single connected component.
///
/// The incumbent is shared: improvements are published through the [`SharedIncumbent`]
/// as soon as they are found, and the size/bound prunes always test against the current
/// global [`useful_size`](SharedIncumbent::useful_size) — whether it came from this
/// component, the heuristic warm start, or (in parallel mode) another worker.
pub(super) struct ComponentSearch<'a, 'c> {
    /// The component's context, stamped onto spawned tasks.
    ctx: &'a Arc<ComponentContext<'c>>,
    params: FairCliqueParams,
    config: &'a SearchConfig,
    stats: &'a mut SearchStats,
    incumbent: &'a SharedIncumbent,
    /// Budget/cancellation control; checked once per node so exhausted budgets unwind
    /// the whole recursion promptly.
    ctrl: &'a SearchControl,
    /// This worker's scratch buffers, reused across every node of the run.
    scratch: &'a mut Scratch,
    /// Current partial clique, in component-local ids.
    r: Vec<VertexId>,
    /// Subtree tasks split off at shallow depths, for the caller to scatter.
    spawned: Vec<SubtreeTask<'c>>,
}

impl<'a, 'c> ComponentSearch<'a, 'c> {
    pub(super) fn new(
        ctx: &'a Arc<ComponentContext<'c>>,
        params: FairCliqueParams,
        config: &'a SearchConfig,
        stats: &'a mut SearchStats,
        incumbent: &'a SharedIncumbent,
        ctrl: &'a SearchControl,
        scratch: &'a mut Scratch,
    ) -> Self {
        debug_assert_eq!(
            scratch.bitsets.nbits(),
            ctx.num_vertices(),
            "scratch must be reset to the component size"
        );
        Self {
            ctx,
            params,
            config,
            stats,
            incumbent,
            ctrl,
            scratch,
            r: Vec::new(),
            spawned: Vec::new(),
        }
    }

    /// Runs the search from the component root. Any fair clique reaching the shared
    /// pool's useful size is published (in the context's ids) the moment it is
    /// found.
    pub(super) fn run(&mut self) {
        let n = self.ctx.num_vertices();
        let root = Bitset::full(n);
        self.branch(AttributeCounts::new(), &root, n, 0);
    }

    /// Resumes the search at a [`SubtreeTask`]'s recorded branch node.
    pub(super) fn run_task(&mut self, task: SubtreeTask<'c>) {
        debug_assert!(
            Arc::ptr_eq(&task.ctx, self.ctx),
            "task routed to the wrong component"
        );
        self.r = task.r;
        let total = task.candidates.count();
        self.branch(task.counts, &task.candidates, total, task.depth);
    }

    /// Takes the subtree tasks split off so far (empty unless
    /// [`split_depth`](ComponentContext::split_depth) is positive).
    pub(super) fn take_spawned(&mut self) -> Vec<SubtreeTask<'c>> {
        std::mem::take(&mut self.spawned)
    }

    fn branch(
        &mut self,
        counts: AttributeCounts,
        candidates: &Bitset,
        cand_total: usize,
        depth: usize,
    ) {
        if self.ctrl.on_node() {
            return;
        }
        self.stats.branches += 1;
        let cg = &self.ctx.component.graph;
        let params = self.params;

        // Record the current clique if it is fair and useful to the shared pool
        // (strictly better than a single incumbent; at least tying the cut-off of a
        // top-k pool, where the canonical tie-break decides membership).
        if self.r.len() >= self.incumbent.useful_size()
            && params.is_fair(counts)
            && self.incumbent.offer(self.ctx.publish(&self.r))
        {
            self.stats.incumbent_updates += 1;
        }
        if cand_total == 0 {
            return;
        }

        // --- Cheap feasibility pruning (every node) ---------------------------------
        let cand_a = candidates.intersection_count(self.ctx.ranked.attr_a.words());
        let cand_b = cand_total - cand_a;
        let reach_a = counts.a() + cand_a;
        let reach_b = counts.b() + cand_b;
        if reach_a < params.k || reach_b < params.k {
            self.stats.feasibility_prunes += 1;
            self.stats.prune_counts.attr_reach += 1;
            return;
        }
        // δ-feasibility: the committed majority can never be balanced out.
        if counts.a() > reach_b + params.delta || counts.b() > reach_a + params.delta {
            self.stats.feasibility_prunes += 1;
            self.stats.prune_counts.delta += 1;
            return;
        }
        // Trivial size bound (ubs) and minimum-size gate. `useful` is the smallest
        // completed-clique size still worth reporting to the pool; with a single
        // incumbent it is `incumbent size + 1`, i.e. this is the classic strict
        // improvement prune.
        let useful = self.incumbent.useful_size();
        let ubs = self.r.len() + cand_total;
        if ubs < useful || ubs < params.min_size() {
            self.stats.bound_prunes += 1;
            self.stats.prune_counts.size_bound += 1;
            return;
        }
        // Attribute bound (uba) — still O(1) from the counts above.
        match params.best_fair_total(reach_a, reach_b) {
            None => {
                self.stats.feasibility_prunes += 1;
                self.stats.prune_counts.attr_infeasible += 1;
                return;
            }
            Some(uba) => {
                if uba < useful || uba < params.min_size() {
                    self.stats.bound_prunes += 1;
                    self.stats.prune_counts.attr_bound += 1;
                    return;
                }
            }
        }

        // --- Expensive bounds (shallow nodes only) -----------------------------------
        let bounds = &self.config.bounds;
        let use_expensive =
            depth <= bounds.max_depth && (bounds.advanced || bounds.extra != ExtraBound::None);
        if use_expensive {
            let goal = useful.max(params.min_size());
            let mut instance = self.scratch.bitsets.acquire_copy(candidates);
            for &v in &self.r {
                instance.insert(self.ctx.ranked.rank_of[v as usize]);
            }
            let ub = rank_upper_bound(
                &self.ctx.ranked,
                &instance,
                params,
                bounds,
                goal,
                &mut self.scratch.bounds,
            );
            self.scratch.bitsets.release(instance);
            if ub < goal {
                self.stats.bound_prunes += 1;
                self.stats.prune_counts.colorful_bound += 1;
                return;
            }
        }

        // --- Canonical-order branching ------------------------------------------------
        // `rest` always holds the candidates not yet branched on; taking the lowest set
        // bit walks them in branching order, and removing the branch vertex before the
        // AND keeps only *later-ordered* neighbors, so every clique is visited once.
        // Nodes shallower than the split depth spawn their children as stealable
        // subtree tasks instead of recursing.
        let mut rest = self.scratch.bitsets.acquire_copy(candidates);
        let mut remaining = cand_total;
        while let Some(rank) = rest.first_set() {
            if self.ctrl.stopped() {
                break;
            }
            // Even taking every remaining candidate cannot produce a useful clique.
            let goal = self.incumbent.useful_size().max(params.min_size());
            if self.r.len() + remaining < goal {
                self.stats.bound_prunes += 1;
                self.stats.prune_counts.tail_cut += 1;
                break;
            }
            rest.remove(rank);
            let v = self.ctx.ranked.order[rank];
            let mut next_counts = counts;
            next_counts.add(cg.attribute(v));
            let (next_candidates, next_total) = self
                .scratch
                .bitsets
                .acquire_intersection(&rest, self.ctx.ranked.adj.row(rank));
            if depth < self.ctx.split_depth {
                let mut r = self.r.clone();
                r.push(v);
                // The bitset moves into the task (it crosses workers); the pool mints
                // a replacement on the next iteration.
                self.spawned.push(SubtreeTask {
                    ctx: Arc::clone(self.ctx),
                    r,
                    counts: next_counts,
                    candidates: next_candidates,
                    depth: depth + 1,
                });
            } else {
                self.r.push(v);
                self.branch(next_counts, &next_candidates, next_total, depth + 1);
                self.r.pop();
                self.scratch.bitsets.release(next_candidates);
            }
            remaining -= 1;
        }
        self.scratch.bitsets.release(rest);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfc_graph::{fixtures, AttributedGraph};

    /// `g` as one component of itself.
    fn whole(g: &AttributedGraph) -> Component {
        Component {
            vertices: g.vertices().collect(),
            graph: g.clone(),
        }
    }

    /// Searches `g` as one component into a pool that already holds a witness
    /// clique of `incumbent_size` vertices (ids past the graph's, none for 0).
    /// Returns the clique the search published over the witness, if any.
    fn search_component(
        g: &AttributedGraph,
        params: FairCliqueParams,
        config: &SearchConfig,
        incumbent_size: usize,
    ) -> (Option<Vec<VertexId>>, SearchStats) {
        let component = whole(g);
        let ctx = Arc::new(ComponentContext::new(&component, config));
        let mut stats = SearchStats::default();
        let n = g.num_vertices() as VertexId;
        let witness = (incumbent_size > 0).then(|| (n..n + incumbent_size as VertexId).collect());
        let incumbent = SharedIncumbent::new(witness.clone());
        let ctrl = SearchControl::unlimited();
        let mut scratch = Scratch::default();
        scratch.reset(ctx.num_vertices());
        ComponentSearch::new(
            &ctx,
            params,
            config,
            &mut stats,
            &incumbent,
            &ctrl,
            &mut scratch,
        )
        .run();
        let best = incumbent
            .into_best()
            .filter(|best| Some(best) != witness.as_ref());
        (best, stats)
    }

    #[test]
    fn finds_optimum_within_a_component() {
        let g = fixtures::fig1_graph();
        let params = FairCliqueParams::new(3, 1).unwrap();
        let (best, stats) = search_component(&g, params, &SearchConfig::default(), 0);
        assert_eq!(best.unwrap().len(), 7);
        assert!(stats.branches > 0);
        assert!(stats.incumbent_updates > 0);
    }

    #[test]
    fn incumbent_at_optimum_suppresses_new_solution() {
        // If the incumbent already matches the optimum, the component search must not
        // record anything (it only reports strict improvements).
        let g = fixtures::fig1_graph();
        let params = FairCliqueParams::new(3, 1).unwrap();
        let (best, _) = search_component(&g, params, &SearchConfig::default(), 7);
        assert!(best.is_none());
    }

    #[test]
    fn incumbent_below_optimum_is_improved() {
        let g = fixtures::fig1_graph();
        let params = FairCliqueParams::new(3, 1).unwrap();
        let (best, _) = search_component(&g, params, &SearchConfig::default(), 6);
        assert_eq!(best.unwrap().len(), 7);
    }

    #[test]
    fn basic_config_explores_more_branches_than_bounded_config() {
        let g = fixtures::fig1_graph();
        let params = FairCliqueParams::new(3, 1).unwrap();
        let (_, basic) = search_component(&g, params, &SearchConfig::basic(), 0);
        let (_, bounded) = search_component(
            &g,
            params,
            &SearchConfig::with_bounds(crate::bounds::ExtraBound::ColorfulDegeneracy),
            0,
        );
        assert!(bounded.branches <= basic.branches);
    }

    #[test]
    fn bitset_adjacency_matches_graph_adjacency() {
        let g = whole(&fixtures::fig1_graph());
        let config = SearchConfig::default();
        let ctx = ComponentContext::new(&g, &config);
        let n = ctx.num_vertices();
        for qr in 0..n {
            for rr in 0..n {
                let (u, v) = (ctx.ranked.order[qr], ctx.ranked.order[rr]);
                assert_eq!(
                    ctx.ranked.adj.contains(qr, rr),
                    g.graph.has_edge(u, v),
                    "ranks ({qr}, {rr}) ↔ vertices ({u}, {v})"
                );
            }
        }
    }

    #[test]
    fn split_depth_spawns_every_root_subtree_and_loses_no_cliques() {
        // With split_depth = 1 the component run must produce one subtree task per
        // root branch it did not prune; running all of them must find the optimum the
        // plain recursion finds.
        let g = fixtures::fig1_graph();
        let params = FairCliqueParams::new(3, 1).unwrap();
        let config = SearchConfig::basic();
        let component = whole(&g);
        let ctx = Arc::new(ComponentContext::new(&component, &config).with_split_depth(1));
        let incumbent = SharedIncumbent::new(None);
        let ctrl = SearchControl::unlimited();
        let mut stats = SearchStats::default();
        let mut scratch = Scratch::default();
        scratch.reset(ctx.num_vertices());
        let tasks = {
            let mut search = ComponentSearch::new(
                &ctx,
                params,
                &config,
                &mut stats,
                &incumbent,
                &ctrl,
                &mut scratch,
            );
            search.run();
            search.take_spawned()
        };
        // The root is not pruned under the basic config, so every vertex spawns a
        // subtree — except the last `min_size - 1` roots, whose subtrees cannot reach
        // the minimum fair-clique size and are cut by the tail early-exit.
        assert_eq!(tasks.len(), g.num_vertices() - params.min_size() + 1);
        for task in tasks {
            let mut search = ComponentSearch::new(
                &ctx,
                params,
                &config,
                &mut stats,
                &incumbent,
                &ctrl,
                &mut scratch,
            );
            search.run_task(task);
            assert!(search.take_spawned().is_empty(), "split depth 1 re-splits");
        }
        assert_eq!(incumbent.into_best().map(|c| c.len()), Some(7));
    }
}
