//! The `MaxRFC` branch-and-bound framework (Section IV, Algorithms 2–3).
//!
//! The crate's primary entry point is the reusable [`RfcSolver`](crate::solver); this
//! module houses the search engine below it plus the classic one-shot wrappers.
//! A solve:
//!
//! 1. shrinks the input graph with the configured [reduction pipeline](crate::reduction)
//!    (`EnColorfulCore` → `ColorfulSup` → `EnColorfulSup`, Algorithm 2 lines 1–3);
//! 2. optionally warm-starts the incumbent with the [`HeurRFC`](crate::heuristic)
//!    heuristic;
//! 3. runs an exact branch-and-bound over every eligible connected component of the
//!    reduced graph (at least `2k` vertices, each of degree at least `2k − 1`) —
//!    serially or across worker threads with a shared incumbent (see
//!    [`ThreadCount`]) — ordering vertices by the colorful-core peeling order
//!    (`CalColorOD`) and pruning with the configured [upper bounds](crate::bounds)
//!    plus attribute- and δ-feasibility checks. Each component's induced graph is
//!    built once, with the cached reduced graph, and every solve, enumeration and
//!    bound of that graph reads it;
//! 4. returns the maximum relative fair clique (if any) together with detailed
//!    [`SearchStats`].
//!
//! ### Branching-order note
//!
//! Algorithm 3 of the paper interleaves an alternating-attribute vertex choice with the
//! global ordering filter `O(v) > O(u)`; read literally, that combination can skip fair
//! cliques whose attribute-alternating order disagrees with `O`. To keep the search
//! exact, this implementation uses canonical-order branching: candidates are processed
//! in the chosen [`BranchOrder`] and each branch keeps only later-ordered neighbors, so
//! every clique of the component is visited exactly once. All of the paper's pruning
//! rules are applied unchanged; the upper bounds use the sound forms listed under
//! *Soundness corrections* in the [`bounds`](crate::bounds) module docs.

mod branch;
pub(crate) mod control;
mod ordering;
pub(crate) mod parallel;
pub(crate) mod steal;

pub(crate) use ordering::Ranked;
pub use ordering::{ordering_positions, ordering_sequence, BranchOrder};
pub use parallel::ThreadCount;

use std::cmp::Reverse;

use rfc_graph::AttributedGraph;

use crate::bounds::BoundConfig;
use crate::heuristic::HeuristicConfig;
use crate::problem::{FairClique, FairCliqueParams, FairnessModel};
use crate::reduction::{ReductionConfig, ReductionStats};
use crate::solver::{Component, Query, RfcSolver};

/// Full configuration of the `MaxRFC` search.
///
/// The [`Default`] configuration is the strongest exact setup (full reductions, the
/// advanced bounds plus the colorful-degeneracy bound, and the heuristic warm start —
/// i.e. `MaxRFC+ub+HeurRFC`); use [`SearchConfig::basic`] or [`SearchConfig::with_bounds`]
/// to reproduce the weaker configurations the paper compares against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchConfig {
    /// Which reduction stages run before the search.
    pub reductions: ReductionConfig,
    /// Which upper bounds prune the search tree.
    pub bounds: BoundConfig,
    /// Whether to warm-start the incumbent with `HeurRFC`.
    pub use_heuristic: bool,
    /// Tuning for the heuristic warm start (ignored unless `use_heuristic`).
    pub heuristic: HeuristicConfig,
    /// Vertex ordering used for canonical branching.
    pub branch_order: BranchOrder,
    /// How many worker threads search the connected components of the reduced graph.
    ///
    /// The default ([`ThreadCount::Auto`]) uses all available CPUs; components are
    /// dispatched largest-first and all workers share one incumbent, so a clique found
    /// anywhere immediately tightens every other worker's prunes. Use
    /// [`ThreadCount::Serial`] for the classic fully deterministic sequential search —
    /// see [`ThreadCount`] for the determinism trade-off.
    pub threads: ThreadCount,
}

impl Default for SearchConfig {
    fn default() -> Self {
        Self::full(crate::bounds::ExtraBound::ColorfulDegeneracy)
    }
}

impl SearchConfig {
    /// The *basic* `MaxRFC` of the experiments: full reductions, only the trivial size
    /// bound, no heuristic.
    pub fn basic() -> Self {
        Self {
            reductions: ReductionConfig::default(),
            bounds: BoundConfig::basic(),
            use_heuristic: false,
            heuristic: HeuristicConfig::default(),
            branch_order: BranchOrder::ColorfulCore,
            threads: ThreadCount::default(),
        }
    }

    /// `MaxRFC+ub`: reductions plus the advanced bound group and the given extra bound.
    pub fn with_bounds(extra: crate::bounds::ExtraBound) -> Self {
        Self {
            reductions: ReductionConfig::default(),
            bounds: BoundConfig::with_extra(extra),
            use_heuristic: false,
            heuristic: HeuristicConfig::default(),
            branch_order: BranchOrder::ColorfulCore,
            threads: ThreadCount::default(),
        }
    }

    /// `MaxRFC+ub+HeurRFC`: everything on (this is also the [`Default`]).
    pub fn full(extra: crate::bounds::ExtraBound) -> Self {
        Self {
            reductions: ReductionConfig::default(),
            bounds: BoundConfig::with_extra(extra),
            use_heuristic: true,
            heuristic: HeuristicConfig::default(),
            branch_order: BranchOrder::ColorfulCore,
            threads: ThreadCount::default(),
        }
    }

    /// Returns this configuration with the given thread count.
    pub fn with_threads(mut self, threads: ThreadCount) -> Self {
        self.threads = threads;
        self
    }
}

/// Per-reason breakdown of the prune counters, one field per cut site in the
/// branch-and-bound recursion.
///
/// The aggregate [`SearchStats::feasibility_prunes`] and [`SearchStats::bound_prunes`]
/// counters partition exactly into these reasons:
/// `feasibility_prunes == attr_reach + delta + attr_infeasible` and
/// `bound_prunes == size_bound + attr_bound + colorful_bound + tail_cut` — the
/// invariant [`consistent_with`](Self::consistent_with) checks. The same names label
/// the `rfc_search_prunes_total{reason=...}` metric series and trace counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruneCounts {
    /// Too few reachable vertices of one attribute to hit `k` (`reach < k`).
    pub attr_reach: u64,
    /// The committed attribute majority can never be balanced back within `δ`.
    pub delta: u64,
    /// No fair total exists for the reachable attribute counts (`uba` undefined).
    pub attr_infeasible: u64,
    /// Trivial size bound `|R| + |C|` below the useful/minimum size (`ubs`).
    pub size_bound: u64,
    /// Attribute-count upper bound `uba` below the useful/minimum size.
    pub attr_bound: u64,
    /// The expensive colorful instance bound cut a shallow node.
    pub colorful_bound: u64,
    /// Early exit of the branching loop: the remaining tail is too short.
    pub tail_cut: u64,
}

impl PruneCounts {
    /// Sum of the feasibility-cut reasons (must equal
    /// [`SearchStats::feasibility_prunes`]).
    pub fn feasibility(&self) -> u64 {
        self.attr_reach + self.delta + self.attr_infeasible
    }

    /// Sum of the bound-cut reasons (must equal [`SearchStats::bound_prunes`]).
    pub fn bound(&self) -> u64 {
        self.size_bound + self.attr_bound + self.colorful_bound + self.tail_cut
    }

    /// `(reason, count)` pairs in a fixed order — the vocabulary shared by the JSON
    /// stats output, the `reason` metric label and trace counters.
    pub fn reasons(&self) -> [(&'static str, u64); 7] {
        [
            ("attr_reach", self.attr_reach),
            ("delta", self.delta),
            ("attr_infeasible", self.attr_infeasible),
            ("size_bound", self.size_bound),
            ("attr_bound", self.attr_bound),
            ("colorful_bound", self.colorful_bound),
            ("tail_cut", self.tail_cut),
        ]
    }

    /// Whether this breakdown partitions the given aggregate counters exactly.
    pub fn consistent_with(&self, feasibility_prunes: u64, bound_prunes: u64) -> bool {
        self.feasibility() == feasibility_prunes && self.bound() == bound_prunes
    }
}

impl std::ops::AddAssign<&PruneCounts> for PruneCounts {
    fn add_assign(&mut self, rhs: &PruneCounts) {
        self.attr_reach += rhs.attr_reach;
        self.delta += rhs.delta;
        self.attr_infeasible += rhs.attr_infeasible;
        self.size_bound += rhs.size_bound;
        self.attr_bound += rhs.attr_bound;
        self.colorful_bound += rhs.colorful_bound;
        self.tail_cut += rhs.tail_cut;
    }
}

/// Counters describing one `max_fair_clique` run.
///
/// In parallel mode every worker accumulates its own `SearchStats` and the per-worker
/// counters are summed into the final value with the [`AddAssign`](std::ops::AddAssign)
/// merge below, so no counter is ever dropped on the way back to the caller. The
/// branch/prune counters of a multi-threaded run depend on incumbent-update timing and
/// may differ between runs; with [`ThreadCount::Serial`] they are fully deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Statistics of the reduction pipeline.
    pub reduction: ReductionStats,
    /// Size of the fair clique found by the heuristic warm start (which runs on the
    /// *reduced* graph), if it ran and found one.
    pub heuristic_size: Option<usize>,
    /// Number of branch-and-bound nodes visited.
    pub branches: u64,
    /// Branches cut by an upper bound (including the trivial size bound).
    pub bound_prunes: u64,
    /// Branches cut by attribute-count or δ feasibility.
    pub feasibility_prunes: u64,
    /// Per-reason breakdown of the two prune counters above; always partitions them
    /// exactly (see [`PruneCounts::consistent_with`]).
    pub prune_counts: PruneCounts,
    /// Number of times the incumbent improved during the search.
    pub incumbent_updates: u64,
    /// Number of connected components searched.
    pub components_searched: usize,
    /// Wall-clock time of the call, in microseconds (same unit and width as the
    /// per-stage reduction timings in [`ReductionStats`]). Merging takes the larger
    /// of the two sides, so a parallel solve reports real elapsed time — never the
    /// sum of its workers' clocks.
    pub elapsed_micros: u64,
    /// Total CPU busy time across all workers, in microseconds. For a serial run this
    /// is the search phase's wall time; for a parallel run it is the summed per-worker
    /// busy time and may legitimately exceed [`elapsed_micros`](Self::elapsed_micros).
    pub cpu_micros: u64,
}

impl std::ops::AddAssign<&SearchStats> for SearchStats {
    /// Merges another run's (or worker's) counters into `self`.
    ///
    /// All branch/prune/component counters and the CPU busy time are summed;
    /// wall-clock time takes the maximum of the two sides (summing per-worker clocks
    /// used to over-report parallel "time" several-fold). `heuristic_size` keeps the
    /// larger of the two, and the reduction stats keep whichever side actually ran a
    /// pipeline (workers never do) — `self`'s wins if both did.
    fn add_assign(&mut self, rhs: &SearchStats) {
        self.branches += rhs.branches;
        self.bound_prunes += rhs.bound_prunes;
        self.feasibility_prunes += rhs.feasibility_prunes;
        self.prune_counts += &rhs.prune_counts;
        self.incumbent_updates += rhs.incumbent_updates;
        self.components_searched += rhs.components_searched;
        self.elapsed_micros = self.elapsed_micros.max(rhs.elapsed_micros);
        self.cpu_micros += rhs.cpu_micros;
        self.heuristic_size = self.heuristic_size.max(rhs.heuristic_size);
        if self.reduction == ReductionStats::default() {
            self.reduction = rhs.reduction.clone();
        }
    }
}

/// The result of [`max_fair_clique`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchOutcome {
    /// A maximum relative fair clique, or `None` if the graph has no fair clique.
    pub best: Option<FairClique>,
    /// Counters for the run.
    pub stats: SearchStats,
}

/// Finds a maximum **weak** fair clique: a largest clique with at least `k` vertices of
/// each attribute, with no constraint on the imbalance (the weak fair clique model of
/// Pan et al., which the relative model generalizes with `δ = ∞`).
///
/// Equivalent to solving [`FairnessModel::Weak`] through a throwaway [`RfcSolver`];
/// build a solver directly to serve many queries off one preprocessing pass.
pub fn max_weak_fair_clique(g: &AttributedGraph, k: usize, config: &SearchConfig) -> SearchOutcome {
    solve_one_shot(g, FairnessModel::Weak { k }, config)
}

/// Finds a maximum **strong** fair clique: a largest clique with the *same* number of
/// vertices of each attribute, both at least `k` (the strong fair clique model, i.e.
/// the relative model with `δ = 0`).
///
/// Equivalent to solving [`FairnessModel::Strong`] through a throwaway [`RfcSolver`].
pub fn max_strong_fair_clique(
    g: &AttributedGraph,
    k: usize,
    config: &SearchConfig,
) -> SearchOutcome {
    solve_one_shot(g, FairnessModel::Strong { k }, config)
}

/// Finds a maximum relative fair clique of `g` under `params` — the `MaxRFC` algorithm.
///
/// This is the classic one-shot entry point, kept as a thin compatibility wrapper: it
/// builds a throwaway [`RfcSolver`] (cloning `g` and redoing all preprocessing) and
/// solves a single unbudgeted [`FairnessModel::Relative`] query. Callers issuing more
/// than one query over the same graph should build an [`RfcSolver`] once and reuse it.
pub fn max_fair_clique(
    g: &AttributedGraph,
    params: FairCliqueParams,
    config: &SearchConfig,
) -> SearchOutcome {
    solve_one_shot(
        g,
        FairnessModel::Relative {
            k: params.k,
            delta: params.delta,
        },
        config,
    )
}

/// Shared body of the one-shot compatibility wrappers.
fn solve_one_shot(
    g: &AttributedGraph,
    model: FairnessModel,
    config: &SearchConfig,
) -> SearchOutcome {
    let solver = RfcSolver::new(g.clone());
    let query = Query::new(model).with_config(config.clone());
    match solver.solve(&query) {
        Ok(solution) => {
            let (cliques, stats) = solution.into_parts();
            SearchOutcome {
                best: cliques.into_iter().next(),
                stats,
            }
        }
        // Only reachable by bypassing the validated constructors (e.g. a literal
        // `FairCliqueParams { k: 0, .. }`): report "no fair clique" instead of
        // panicking inside a compatibility wrapper.
        Err(_) => SearchOutcome {
            best: None,
            stats: SearchStats::default(),
        },
    }
}

/// Runs the branch-and-bound phase over eligible `components` of a reduced graph,
/// in their order, publishing improvements in the reduced graph's ids into
/// `incumbent` and honoring `ctrl`.
///
/// This is the engine below [`RfcSolver::solve`]: reduction and the heuristic warm
/// start have already happened by the time it runs. Returns the search-phase counters
/// (the caller owns reduction stats and wall-clock time).
pub(crate) fn branch_and_bound(
    components: &[&Component],
    params: FairCliqueParams,
    config: &SearchConfig,
    incumbent: &parallel::SharedIncumbent,
    ctrl: &control::SearchControl,
) -> SearchStats {
    let mut stats = SearchStats::default();

    // A single giant component still uses every worker (its subtrees are stealable),
    // so the worker count is *not* capped at the component count.
    let workers = if components.is_empty() {
        1
    } else {
        config.threads.resolve()
    };
    if workers <= 1 {
        // Deterministic serial path: components in discovery order, exactly the
        // classic sequential algorithm (improvements still flow through `incumbent`).
        let busy = std::time::Instant::now();
        let mut scratch = branch::Scratch::default();
        for &component in components {
            if ctrl.stopped() {
                break;
            }
            stats.components_searched += 1;
            let mut span = rfc_obs::trace::span("component");
            span.counter("vertices", component.vertices.len() as u64);
            let branches_before = stats.branches;
            let ctx = branch::ComponentContext::new(component, config);
            scratch.reset(ctx.num_vertices());
            branch::ComponentSearch::new(
                &ctx,
                0,
                params,
                config,
                &mut stats,
                incumbent,
                ctrl,
                &mut scratch,
            )
            .run();
            span.counter("branches", stats.branches - branches_before);
        }
        stats.cpu_micros += busy.elapsed().as_micros() as u64;
    } else {
        // Largest components first so the most expensive searches start immediately
        // and a straggler can't serialize the tail (ties broken by vertex ids to keep
        // the dispatch order itself reproducible).
        let mut largest_first = components.to_vec();
        largest_first.sort_unstable_by_key(|c| (Reverse(c.vertices.len()), c.vertices[0]));
        stats +=
            &parallel::search_components(&largest_first, params, config, workers, incumbent, ctrl);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::{bron_kerbosch_max_fair_clique, brute_force_max_fair_clique};
    use crate::bounds::ExtraBound;
    use crate::verify::{is_fair_and_clique, is_relative_fair_clique};
    use rfc_graph::fixtures;

    fn all_configs() -> Vec<SearchConfig> {
        let mut configs = vec![SearchConfig::basic(), SearchConfig::default()];
        for extra in ExtraBound::ALL {
            configs.push(SearchConfig::with_bounds(extra));
            configs.push(SearchConfig::full(extra));
        }
        configs
    }

    #[test]
    fn finds_the_optimum_on_fig1_with_every_config() {
        let g = fixtures::fig1_graph();
        let params = FairCliqueParams::new(3, 1).unwrap();
        for config in all_configs() {
            let outcome = max_fair_clique(&g, params, &config);
            let best = outcome.best.expect("a fair clique exists");
            assert_eq!(best.size(), 7, "config {config:?}");
            assert!(is_fair_and_clique(&g, &best.vertices, params));
            assert!(is_relative_fair_clique(&g, &best.vertices, params));
        }
    }

    #[test]
    fn agrees_with_baselines_across_parameters() {
        let g = fixtures::fig1_graph();
        for (k, delta) in [
            (1usize, 0usize),
            (1, 2),
            (2, 0),
            (2, 1),
            (3, 1),
            (3, 2),
            (4, 1),
            (4, 4),
        ] {
            let params = FairCliqueParams::new(k, delta).unwrap();
            let exact = max_fair_clique(&g, params, &SearchConfig::default());
            let brute = brute_force_max_fair_clique(&g, params);
            let bk = bron_kerbosch_max_fair_clique(&g, params);
            let sizes = (
                exact.best.as_ref().map(|c| c.size()),
                brute.as_ref().map(|c| c.size()),
                bk.as_ref().map(|c| c.size()),
            );
            assert_eq!(sizes.0, sizes.1, "(k={k}, δ={delta})");
            assert_eq!(sizes.0, sizes.2, "(k={k}, δ={delta})");
        }
    }

    #[test]
    fn handles_disconnected_graphs() {
        // Two cliques joined by a bridge: only the mixed-attribute one can be fair; the
        // reductions disconnect / strip the other.
        let g = fixtures::two_cliques_with_bridge(8, 6);
        let params = FairCliqueParams::new(3, 2).unwrap();
        let outcome = max_fair_clique(&g, params, &SearchConfig::default());
        let best = outcome.best.unwrap();
        assert_eq!(best.size(), 8);
        assert!(best.vertices.iter().all(|&v| (v as usize) < 8));
    }

    #[test]
    fn infeasible_instances_return_none() {
        let g = fixtures::path_graph(10);
        let params = FairCliqueParams::new(2, 1).unwrap();
        assert!(max_fair_clique(&g, params, &SearchConfig::default())
            .best
            .is_none());

        let single_attr = fixtures::two_cliques_with_bridge(0, 9);
        let params1 = FairCliqueParams::new(1, 3).unwrap();
        assert!(
            max_fair_clique(&single_attr, params1, &SearchConfig::default())
                .best
                .is_none()
        );
    }

    #[test]
    fn stats_are_populated() {
        let g = fixtures::fig1_graph();
        let params = FairCliqueParams::new(3, 1).unwrap();
        let outcome = max_fair_clique(&g, params, &SearchConfig::full(ExtraBound::ColorfulPath));
        assert!(outcome.stats.branches > 0);
        assert!(outcome.stats.components_searched >= 1);
        assert_eq!(outcome.stats.reduction.stages.len(), 3);
        assert!(outcome.stats.heuristic_size.is_some());
        // The heuristic can never beat the exact optimum.
        assert!(outcome.stats.heuristic_size.unwrap() <= outcome.best.unwrap().size());
    }

    #[test]
    fn heuristic_warm_start_prunes_at_least_as_much() {
        let g = fixtures::fig1_graph();
        let params = FairCliqueParams::new(3, 1).unwrap();
        let plain = max_fair_clique(
            &g,
            params,
            &SearchConfig::with_bounds(ExtraBound::ColorfulDegeneracy),
        );
        let warm = max_fair_clique(
            &g,
            params,
            &SearchConfig::full(ExtraBound::ColorfulDegeneracy),
        );
        assert_eq!(
            plain.best.as_ref().unwrap().size(),
            warm.best.as_ref().unwrap().size()
        );
        assert!(warm.stats.branches <= plain.stats.branches);
    }

    #[test]
    fn weak_and_strong_models_bracket_the_relative_model() {
        // On the Fig.1 fixture with k = 3: strong (δ=0) gives 6, relative (δ=1) gives 7,
        // weak (δ=∞) gives 8 (the whole planted clique).
        let g = fixtures::fig1_graph();
        let config = SearchConfig::default();
        let strong = max_strong_fair_clique(&g, 3, &config).best.unwrap().size();
        let relative = max_fair_clique(&g, FairCliqueParams::new(3, 1).unwrap(), &config)
            .best
            .unwrap()
            .size();
        let weak = max_weak_fair_clique(&g, 3, &config).best.unwrap().size();
        assert_eq!(strong, 6);
        assert_eq!(relative, 7);
        assert_eq!(weak, 8);
        assert!(strong <= relative && relative <= weak);
        // Strong fair cliques are perfectly balanced.
        let strong_clique = max_strong_fair_clique(&g, 3, &config).best.unwrap();
        assert_eq!(strong_clique.counts.a(), strong_clique.counts.b());
        // With k larger than the rarer attribute can support, all three are infeasible.
        assert!(max_weak_fair_clique(&g, 6, &config).best.is_none());
        assert!(max_strong_fair_clique(&g, 6, &config).best.is_none());
    }

    #[test]
    fn stats_merge_accounts_for_every_counter() {
        // A worker's stats must fold into the aggregate without dropping anything:
        // every counter field is non-zero on both sides and summed (or max'd) here.
        // When adding a field to `SearchStats`, extend this test.
        let mut total = SearchStats {
            reduction: ReductionStats {
                original_vertices: 10,
                original_edges: 20,
                stages: Vec::new(),
            },
            heuristic_size: Some(4),
            branches: 100,
            bound_prunes: 10,
            feasibility_prunes: 20,
            prune_counts: PruneCounts {
                attr_reach: 11,
                delta: 5,
                attr_infeasible: 4,
                size_bound: 4,
                attr_bound: 3,
                colorful_bound: 2,
                tail_cut: 1,
            },
            incumbent_updates: 1,
            components_searched: 2,
            elapsed_micros: 1_000,
            cpu_micros: 900,
        };
        assert!(total
            .prune_counts
            .consistent_with(total.feasibility_prunes, total.bound_prunes));
        let worker = SearchStats {
            reduction: ReductionStats::default(),
            heuristic_size: Some(6),
            branches: 50,
            bound_prunes: 5,
            feasibility_prunes: 7,
            prune_counts: PruneCounts {
                attr_reach: 3,
                delta: 2,
                attr_infeasible: 2,
                size_bound: 2,
                attr_bound: 1,
                colorful_bound: 1,
                tail_cut: 1,
            },
            incumbent_updates: 3,
            components_searched: 4,
            elapsed_micros: 500,
            cpu_micros: 450,
        };
        assert!(worker
            .prune_counts
            .consistent_with(worker.feasibility_prunes, worker.bound_prunes));
        total += &worker;
        assert_eq!(total.branches, 150);
        assert_eq!(total.bound_prunes, 15);
        assert_eq!(total.feasibility_prunes, 27);
        // The breakdown merges field-by-field and stays an exact partition of the
        // aggregates — the drift this test exists to catch.
        assert_eq!(
            total.prune_counts,
            PruneCounts {
                attr_reach: 14,
                delta: 7,
                attr_infeasible: 6,
                size_bound: 6,
                attr_bound: 4,
                colorful_bound: 3,
                tail_cut: 2,
            }
        );
        assert!(total
            .prune_counts
            .consistent_with(total.feasibility_prunes, total.bound_prunes));
        let reason_sum: u64 = total.prune_counts.reasons().iter().map(|(_, n)| n).sum();
        assert_eq!(reason_sum, total.feasibility_prunes + total.bound_prunes);
        assert_eq!(total.incumbent_updates, 4);
        assert_eq!(total.components_searched, 6);
        // Wall-clock takes the max (workers overlap in time); CPU busy time sums.
        assert_eq!(total.elapsed_micros, 1_000);
        assert_eq!(total.cpu_micros, 1_350);
        assert_eq!(total.heuristic_size, Some(6));
        // The aggregate's reduction stats survive a merge with a reduction-less worker…
        assert_eq!(total.reduction.original_vertices, 10);
        // …and a default aggregate adopts the other side's reduction stats.
        let mut fresh = SearchStats::default();
        fresh += &total;
        assert_eq!(fresh.reduction.original_edges, 20);
        assert_eq!(fresh.branches, 150);
    }

    #[test]
    fn prune_breakdown_partitions_the_aggregates_on_real_runs() {
        // Every prune site must bump its reason alongside the aggregate counter, in
        // serial and parallel mode alike (the parallel merge sums the breakdown).
        let g = fixtures::fig1_graph();
        let params = FairCliqueParams::new(3, 1).unwrap();
        for threads in [ThreadCount::Serial, ThreadCount::Fixed(3)] {
            for config in all_configs() {
                let outcome = max_fair_clique(&g, params, &config.with_threads(threads));
                let stats = &outcome.stats;
                assert!(
                    stats
                        .prune_counts
                        .consistent_with(stats.feasibility_prunes, stats.bound_prunes),
                    "breakdown {:?} vs feasibility={} bound={} (threads {threads:?})",
                    stats.prune_counts,
                    stats.feasibility_prunes,
                    stats.bound_prunes,
                );
            }
        }
    }

    #[test]
    fn parallel_threads_find_the_serial_optimum() {
        let graphs = [
            fixtures::fig1_graph(),
            fixtures::two_cliques_with_bridge(8, 6),
            fixtures::fig2_graph(),
        ];
        for g in &graphs {
            for (k, delta) in [(1usize, 1usize), (2, 1), (3, 2)] {
                let params = FairCliqueParams::new(k, delta).unwrap();
                let serial_cfg = SearchConfig::default().with_threads(ThreadCount::Serial);
                let serial = max_fair_clique(g, params, &serial_cfg);
                for threads in [
                    ThreadCount::Fixed(2),
                    ThreadCount::Fixed(4),
                    ThreadCount::Auto,
                ] {
                    let parallel_cfg = SearchConfig::default().with_threads(threads);
                    let parallel = max_fair_clique(g, params, &parallel_cfg);
                    assert_eq!(
                        serial.best.as_ref().map(|c| c.size()),
                        parallel.best.as_ref().map(|c| c.size()),
                        "(k={k}, δ={delta}, threads={threads:?})"
                    );
                    if let Some(clique) = &parallel.best {
                        assert!(is_relative_fair_clique(g, &clique.vertices, params));
                    }
                }
            }
        }
    }

    #[test]
    fn serial_runs_are_reproducible_including_stats() {
        let g = fixtures::fig1_graph();
        let params = FairCliqueParams::new(3, 1).unwrap();
        let config = SearchConfig::default().with_threads(ThreadCount::Serial);
        let first = max_fair_clique(&g, params, &config);
        for _ in 0..2 {
            let again = max_fair_clique(&g, params, &config);
            assert_eq!(first.best, again.best);
            assert_eq!(first.stats.branches, again.stats.branches);
            assert_eq!(first.stats.bound_prunes, again.stats.bound_prunes);
            assert_eq!(first.stats.incumbent_updates, again.stats.incumbent_updates);
        }
    }

    #[test]
    fn different_branch_orders_agree() {
        let g = fixtures::fig1_graph();
        let params = FairCliqueParams::new(2, 1).unwrap();
        let mut sizes = Vec::new();
        for order in [
            BranchOrder::ColorfulCore,
            BranchOrder::Degeneracy,
            BranchOrder::VertexId,
        ] {
            let config = SearchConfig {
                branch_order: order,
                ..SearchConfig::default()
            };
            sizes.push(
                max_fair_clique(&g, params, &config)
                    .best
                    .map(|c| c.size())
                    .unwrap_or(0),
            );
        }
        assert!(sizes.windows(2).all(|w| w[0] == w[1]), "sizes: {sizes:?}");
    }
}
