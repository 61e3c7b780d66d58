//! The reusable, budgeted, multi-query solver — the crate's primary API.
//!
//! [`RfcSolver`] separates the query-*independent* work of maximum fair clique search
//! from the query-*dependent* work so one graph can serve many queries:
//!
//! * **Build once** — [`RfcSolver::new`] takes ownership of the graph and computes the
//!   state every query shares: a greedy coloring whose color count upper-bounds every
//!   clique, giving an O(1) infeasibility gate. Reduced graphs are computed lazily and
//!   cached per `(k, ReductionConfig)`: no reduction stage looks at `δ`, so queries
//!   that differ only in fairness model or `δ` reuse one reduction pass.
//! * **Query many** — [`RfcSolver::solve`] answers a [`Query`]: a first-class
//!   [`FairnessModel`] (relative / weak / strong — the δ-remapping lives in
//!   [`FairnessModel::resolve`], not in callers), an [`Objective`] (the maximum clique
//!   or the top-k largest), a [`Budget`] (wall-clock and/or node limits), an optional
//!   [`CancelToken`], and the usual [`SearchConfig`] knobs.
//! * **Structured outcomes** — every solve returns a [`Solution`] whose
//!   [`Termination`] says what the result means: `Optimal` and `Infeasible` are exact
//!   answers, `BudgetExhausted` and `Cancelled` carry the verified best-so-far.
//! * **Batching** — [`RfcSolver::solve_batch`] fans independent queries across worker
//!   threads (the same [`ThreadCount`] setting and work-stealing pool the component
//!   search uses) while all of them share the solver's cached preprocessing.
//!
//! The classic free functions ([`max_fair_clique`](crate::search::max_fair_clique) and
//! friends) remain as thin compatibility wrappers over a throwaway solver.
//!
//! ```
//! use rfc_core::prelude::*;
//! use rfc_graph::fixtures;
//!
//! let solver = RfcSolver::new(fixtures::fig1_graph());
//! let relative = solver
//!     .solve(&Query::new(FairnessModel::Relative { k: 3, delta: 1 }))
//!     .unwrap();
//! let weak = solver.solve(&Query::new(FairnessModel::Weak { k: 3 })).unwrap();
//! assert_eq!(relative.best().unwrap().size(), 7);
//! assert_eq!(weak.best().unwrap().size(), 8);
//! assert!(weak.reduction_cache_hit); // same k: one preprocessing pass served both
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use rfc_graph::coloring::greedy_coloring;
use rfc_graph::components::components_of_subset;
use rfc_graph::cores::degeneracy;
use rfc_graph::{AttributedGraph, GraphBuilder, VertexId};

use crate::bounds::advanced::attribute_color_bound;
use crate::enumerate::{
    run_enumeration, CliqueSink, EnumOutcome, EnumProblem, EnumQuery, EnumStats, EnumTermination,
};
use crate::heuristic::{heur_rfc, HeuristicOutcome};
use crate::problem::{FairClique, FairCliqueParams, FairnessModel, ParamError};
use crate::reduction::{
    apply_reductions_controlled, ReductionConfig, ReductionStats, StageSurvivors,
};
use crate::search::control::{SearchControl, StopReason};
use crate::search::parallel::SharedIncumbent;
use crate::search::steal::run_pool;
use crate::search::{branch_and_bound, SearchConfig, SearchStats, ThreadCount};

/// What a [`Query`] asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Objective {
    /// A single maximum fair clique (the paper's problem; the [`Default`]).
    #[default]
    Maximum,
    /// The `n` largest fair cliques, best first.
    ///
    /// "Fair clique" here is condition (i) of Definition 1 alone, so the result may
    /// contain cliques nested inside larger ones (every fair subset of a bigger fair
    /// clique is itself a fair clique). The sizes are exact: no fair clique strictly
    /// larger than the returned minimum is missed. Ties at the cut-off size are
    /// broken canonically — larger first, then lexicographically smallest sorted
    /// vertex set — so the returned set is identical for every
    /// [`ThreadCount`], not merely the same sizes.
    TopK(usize),
}

/// Resource limits for one query.
///
/// The wall-clock limit covers the **whole query**: the deadline is anchored the
/// moment the query enters the solver, and the reduction pipeline (between stages),
/// the heuristic warm start (before and after), the out-of-core peel (between
/// rounds) and every branch node all check it. A query whose reduction alone
/// outlives a tiny `time_limit` therefore returns
/// [`Termination::BudgetExhausted`] promptly instead of silently extending the
/// budget by the preprocessing time.
///
/// The node limit counts **branch-and-bound nodes only**, so a node-limited query
/// still gets its full reduction and heuristic warm start — which is what makes a
/// node-starved solve return a *verified* best-so-far clique rather than nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Budget {
    /// Wall-clock limit for the search phase. `None` is unlimited.
    pub time_limit: Option<Duration>,
    /// Maximum number of branch-and-bound nodes visited (summed across components and
    /// worker threads). `None` is unlimited.
    pub node_limit: Option<u64>,
}

impl Budget {
    /// No limits (the [`Default`]).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Returns this budget with a wall-clock limit.
    pub fn with_time_limit(mut self, limit: Duration) -> Self {
        self.time_limit = Some(limit);
        self
    }

    /// Returns this budget with a branch-node limit.
    pub fn with_node_limit(mut self, limit: u64) -> Self {
        self.node_limit = Some(limit);
        self
    }

    /// Whether neither limit is set.
    pub fn is_unlimited(&self) -> bool {
        self.time_limit.is_none() && self.node_limit.is_none()
    }
}

/// A shareable, thread-safe cancellation handle.
///
/// Clone the token, hand one copy to the query (via [`Query::with_cancel`]) and keep
/// the other; calling [`cancel`](CancelToken::cancel) from any thread makes the search
/// stop at the next branch node and return [`Termination::Cancelled`] with the verified
/// best-so-far. Cancellation is sticky and affects every query sharing the token.
///
/// Tokens can be **linked** into a family with [`child`](CancelToken::child):
/// cancelling a parent is observed by all of its children, while cancelling a child
/// leaves the parent (and its siblings) untouched. The racing
/// [`portfolio`](crate::portfolio) uses one child per member so the first member to
/// prove optimality can cancel the rest without touching the caller's query token.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    parent: Option<Arc<CancelToken>>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent. Children observe it; parents do not.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested on this token or any of its ancestors.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed) || self.parent.as_ref().is_some_and(|p| p.is_cancelled())
    }

    /// A linked child token: it fires when either it or this token is cancelled, but
    /// cancelling the child never propagates back to this token.
    pub fn child(&self) -> CancelToken {
        CancelToken {
            flag: Arc::new(AtomicBool::new(false)),
            parent: Some(Arc::new(self.clone())),
        }
    }
}

/// One question to ask an [`RfcSolver`].
#[derive(Debug, Clone, Default)]
pub struct Query {
    /// Which fairness model to solve.
    pub fairness: FairnessModel,
    /// What to return: the maximum clique or the top-k largest.
    pub objective: Objective,
    /// Time/node limits on the search phase.
    pub budget: Budget,
    /// Reductions, bounds, heuristic, branching order, and thread count.
    pub config: SearchConfig,
    /// Optional cooperative cancellation handle.
    pub cancel: Option<CancelToken>,
}

impl Query {
    /// A maximum-objective, unlimited, default-config query for the given model.
    pub fn new(fairness: FairnessModel) -> Self {
        Self {
            fairness,
            ..Self::default()
        }
    }

    /// Returns this query with a different objective.
    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Returns this query with a budget.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Returns this query with a search configuration.
    pub fn with_config(mut self, config: SearchConfig) -> Self {
        self.config = config;
        self
    }

    /// Returns this query carrying (a clone of) the given cancellation token.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }
}

/// How a [`Solution`] came to be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Termination {
    /// The search ran to completion: the result is exact (the maximum fair clique, or
    /// the exact top-k sizes).
    Optimal,
    /// The search ran to completion and proved no fair clique exists.
    Infeasible,
    /// A time or node budget was exhausted: the result is the verified best-so-far and
    /// may be suboptimal (or empty, if nothing was found before the budget ran out).
    BudgetExhausted,
    /// The query's [`CancelToken`] fired: the result is the verified best-so-far.
    Cancelled,
}

impl Termination {
    /// Whether the search ran to completion (`Optimal` or `Infeasible`), i.e. the
    /// solution is exact rather than best-so-far.
    pub fn is_complete(&self) -> bool {
        matches!(self, Termination::Optimal | Termination::Infeasible)
    }
}

/// The structured result of [`RfcSolver::solve`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Solution {
    /// The fair cliques found, largest first: at most one for
    /// [`Objective::Maximum`], at most `n` for [`Objective::TopK`]. Every entry is a
    /// verified fair clique of the input graph even when the search stopped early.
    pub cliques: Vec<FairClique>,
    /// What the result means (exact, infeasible, or best-so-far).
    pub termination: Termination,
    /// Counters for the run (reduction pipeline, heuristic, search).
    pub stats: SearchStats,
    /// Whether this query reused a reduced graph cached by an earlier query (same `k`
    /// and reduction config). On a hit `stats.reduction` reports the cached pipeline's
    /// numbers, including its original stage timings.
    pub reduction_cache_hit: bool,
    /// The best **proven** upper bound on the maximum fair clique size for this query.
    ///
    /// * Complete terminations carry the exact answer: the optimum size for
    ///   [`Termination::Optimal`], `0` for [`Termination::Infeasible`].
    /// * On [`Termination::BudgetExhausted`] / [`Termination::Cancelled`] this is the
    ///   best colorful upper bound across the reduced graph's components (per
    ///   component: distinct colors per attribute capped through
    ///   [`FairCliqueParams::best_fair_total`]), or `None` if the query stopped
    ///   before the reduction finished (nothing sound was computed yet).
    ///
    /// Whenever the bound matches the incumbent size on a [`Objective::Maximum`]
    /// query, the solver upgrades the termination to `Optimal` — so a reported
    /// [`optimality_gap`](Solution::optimality_gap) of zero always means the answer
    /// is exact.
    pub upper_bound: Option<usize>,
}

impl Solution {
    /// The largest fair clique found, if any.
    pub fn best(&self) -> Option<&FairClique> {
        self.cliques.first()
    }

    /// Size of the largest fair clique found (`0` when none was found).
    pub fn best_size(&self) -> usize {
        self.best().map(FairClique::size).unwrap_or(0)
    }

    /// The proven optimality gap: `upper_bound − best_size`.
    ///
    /// `Some(0)` exactly when the answer is proven exact (complete terminations, or a
    /// best-so-far that meets the colorful upper bound — which the solver upgrades to
    /// [`Termination::Optimal`]); `None` when the search stopped before any sound
    /// bound was available.
    pub fn optimality_gap(&self) -> Option<usize> {
        match self.termination {
            Termination::Optimal | Termination::Infeasible => Some(0),
            Termination::BudgetExhausted | Termination::Cancelled => self
                .upper_bound
                .map(|ub| ub.saturating_sub(self.best_size())),
        }
    }

    /// Consumes the solution, returning the largest fair clique found.
    pub fn into_best(self) -> Option<FairClique> {
        self.cliques.into_iter().next()
    }

    /// Splits the solution into its cliques and stats (used by the one-shot
    /// compatibility wrappers).
    pub fn into_parts(self) -> (Vec<FairClique>, SearchStats) {
        (self.cliques, self.stats)
    }

    /// Renders a human-readable per-stage time breakdown of this solve — the same
    /// phases the `--trace` span log records, without needing a trace file.
    ///
    /// Times are the stats' own microsecond counters: per-stage reduction wall time,
    /// the search phase's summed worker busy time, and the call's total elapsed time.
    /// The search line also carries the branch/prune/incumbent counters and the prune
    /// breakdown uses the same reason names as the
    /// `rfc_search_prunes_total{reason=...}` metric series.
    pub fn trace_summary(&self) -> String {
        use std::fmt::Write as _;
        fn us(micros: u64) -> String {
            if micros >= 1_000_000 {
                format!("{:.2} s", micros as f64 / 1e6)
            } else if micros >= 1_000 {
                format!("{:.2} ms", micros as f64 / 1e3)
            } else {
                format!("{micros} µs")
            }
        }
        let s = &self.stats;
        let mut out = String::new();
        let _ = writeln!(out, "solve breakdown ({:?})", self.termination);
        let reduction_total: u64 = s.reduction.stages.iter().map(|st| st.micros).sum();
        let _ = writeln!(
            out,
            "  reduction        {:>10}   |V| {} -> {}, |E| {} -> {}{}",
            us(reduction_total),
            s.reduction.original_vertices,
            s.reduction.final_vertices(),
            s.reduction.original_edges,
            s.reduction.final_edges(),
            if self.reduction_cache_hit {
                " (cached)"
            } else {
                ""
            },
        );
        for stage in &s.reduction.stages {
            let _ = writeln!(
                out,
                "    {:<14} {:>10}   |V|={} |E|={}",
                stage.stage,
                us(stage.micros),
                stage.vertices,
                stage.edges
            );
        }
        if let Some(size) = s.heuristic_size {
            let _ = writeln!(
                out,
                "  heuristic                     warm start size {size}"
            );
        }
        let _ = writeln!(
            out,
            "  search (cpu)     {:>10}   branches={} components={} incumbent_updates={}",
            us(s.cpu_micros),
            s.branches,
            s.components_searched,
            s.incumbent_updates
        );
        let _ = writeln!(
            out,
            "    prunes                       bound={} feasibility={}",
            s.bound_prunes, s.feasibility_prunes
        );
        for (reason, count) in s.prune_counts.reasons() {
            if count > 0 {
                let _ = writeln!(out, "      {reason:<26} {count}");
            }
        }
        let _ = writeln!(out, "  total elapsed    {:>10}", us(s.elapsed_micros));
        out
    }
}

/// Why a [`Query`] could not be solved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveError {
    /// The fairness model's parameters are invalid (`k = 0`).
    InvalidParams(ParamError),
    /// [`Objective::TopK`] with `n = 0` asks for nothing.
    EmptyTopK,
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::InvalidParams(e) => write!(f, "invalid query parameters: {e}"),
            SolveError::EmptyTopK => write!(f, "top-k objective needs k >= 1"),
        }
    }
}

impl std::error::Error for SolveError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SolveError::InvalidParams(e) => Some(e),
            SolveError::EmptyTopK => None,
        }
    }
}

/// A reduced graph plus the pipeline stats that produced it and its eligible
/// components, shared across queries (and reused by
/// [`DynamicRfcSolver`](crate::dynamic::DynamicRfcSolver), which splices these
/// entries across graph updates).
#[derive(Debug)]
pub(crate) struct ReducedEntry {
    pub(crate) graph: AttributedGraph,
    pub(crate) stats: ReductionStats,
    /// Each stage's surviving vertices with their degrees, from which a splice
    /// counts the stages of the components it leaves untouched.
    pub(crate) stage_survivors: StageSurvivors,
    /// The components every search, enumeration and bound of the entry reads, in
    /// order of smallest vertex (see [`ReducedEntry::new`]).
    pub(crate) components: Vec<Arc<Component>>,
}

impl ReducedEntry {
    /// Builds the entry of `graph`, reduced for `k`, with its eligible components:
    /// the connected components of the vertices of degree at least `2k − 1`, kept
    /// when they hold at least `2k` vertices. No other vertex lies in a fair clique
    /// (of at least `2k` vertices), so Algorithm 2 searches only these, and the rule
    /// lives here alone.
    ///
    /// The components in `carried`, which must be eligible components of `graph`,
    /// are taken over as they are (a splice's clean components, which keep their
    /// cached results); every other one is found and induced once.
    pub(crate) fn new(
        graph: AttributedGraph,
        stats: ReductionStats,
        stage_survivors: StageSurvivors,
        k: usize,
        carried: Vec<Arc<Component>>,
    ) -> Self {
        let min_size = 2 * k;
        let mut taken = vec![false; graph.num_vertices()];
        for &v in carried.iter().flat_map(|c| &c.vertices) {
            taken[v as usize] = true;
        }
        let active: Vec<VertexId> = graph
            .vertices()
            .filter(|&v| !taken[v as usize] && graph.degree(v) + 1 >= min_size)
            .collect();
        let found: Vec<Vec<VertexId>> = components_of_subset(&graph, &active)
            .into_iter()
            .filter(|vertices| vertices.len() >= min_size)
            .collect();
        // One relabel array serves every component: a found vertex's rank in its
        // own sorted list. A neighbour with a rank lies in the same component, since
        // any other active neighbour would have joined it.
        let mut rank = vec![u32::MAX; graph.num_vertices()];
        for vertices in &found {
            for (i, &v) in vertices.iter().enumerate() {
                rank[v as usize] = i as u32;
            }
        }
        let found = found.into_iter().map(|vertices| {
            let attributes = vertices.iter().map(|&v| graph.attribute(v)).collect();
            let mut builder = GraphBuilder::with_attributes(attributes);
            // Ranks keep the id order, so the edges come out canonical and sorted.
            for &v in &vertices {
                let r = rank[v as usize];
                let ranked = graph.neighbors(v).iter().map(|&u| rank[u as usize]);
                let later = ranked.filter(|&s| s != u32::MAX && s > r);
                builder.add_edges(later.map(|s| (r, s)));
            }
            Arc::new(Component {
                vertices,
                graph: builder.build().expect("component edges stay in range"),
            })
        });
        let mut components: Vec<Arc<Component>> = carried.into_iter().chain(found).collect();
        components.sort_unstable_by_key(|c| c.vertices[0]);
        Self {
            graph,
            stats,
            stage_survivors,
            components,
        }
    }
}

/// One eligible component of a reduced graph, as every search reads it.
#[derive(Debug)]
pub(crate) struct Component {
    /// The component's vertices, sorted: compact vertex `i` is `vertices[i]` in the
    /// reduced graph, whose ids are the input graph's.
    pub(crate) vertices: Vec<VertexId>,
    /// The subgraph `vertices` induce, relabeled to `0..vertices.len()` in id order.
    pub(crate) graph: AttributedGraph,
}

/// Key of a cached reduced graph: `k` and the reduction config, everything the
/// reduction pipeline depends on.
pub(crate) type ReductionKey = (usize, ReductionConfig);

/// A build-once / query-many maximum fair clique solver (see the [module
/// docs](self) for the full tour).
///
/// The solver is `Sync`: concurrent [`solve`](RfcSolver::solve) calls from multiple
/// threads are safe and share the reduction cache. Two racing queries may both compute
/// the same missing reduction; the first result is kept, so the cache stays consistent.
#[derive(Debug)]
pub struct RfcSolver {
    graph: AttributedGraph,
    /// Colors used by a greedy coloring of the graph — an upper bound on the size of
    /// *any* clique, computed once and used as an O(1) infeasibility gate.
    num_colors: usize,
    /// Degeneracy of the graph, computed lazily on first request (no solve path needs
    /// it, so throwaway solvers built by the one-shot wrappers never pay for it).
    degeneracy: OnceLock<u32>,
    /// Reduced graphs, computed lazily on first use (or spliced in by the dynamic
    /// solver after a commit).
    reductions: Mutex<HashMap<ReductionKey, Arc<ReducedEntry>>>,
    /// Number of reduced graphs offered to the cache (built or spliced) so far.
    preprocessing_runs: AtomicUsize,
}

impl RfcSolver {
    /// Builds a solver, computing the query-independent preprocessing state.
    pub fn new(graph: AttributedGraph) -> Self {
        let num_colors = greedy_coloring(&graph).num_colors;
        Self {
            graph,
            num_colors,
            degeneracy: OnceLock::new(),
            reductions: Mutex::new(HashMap::new()),
            preprocessing_runs: AtomicUsize::new(0),
        }
    }

    /// The graph this solver answers queries about.
    pub fn graph(&self) -> &AttributedGraph {
        &self.graph
    }

    /// Colors of the cached greedy coloring: an upper bound on any clique size, hence
    /// on any fair clique size.
    pub fn num_colors(&self) -> usize {
        self.num_colors
    }

    /// Degeneracy of the graph (computed and cached on first call).
    pub fn degeneracy(&self) -> u32 {
        *self.degeneracy.get_or_init(|| degeneracy(&self.graph))
    }

    /// How many distinct reduction pipelines this solver has executed so far (cache
    /// misses, and the splices a [`DynamicRfcSolver`](crate::dynamic::DynamicRfcSolver)
    /// adds to its snapshot; queries sharing `(k, reductions)` don't add to this).
    pub fn preprocessing_runs(&self) -> usize {
        self.preprocessing_runs.load(Ordering::Relaxed)
    }

    /// Answers one query. See [`Solution::termination`] for how to read the result.
    ///
    /// Errors only on malformed queries (`k = 0`, or an empty top-k objective);
    /// budget exhaustion and cancellation are expressed through [`Termination`], not
    /// through `Err`.
    pub fn solve(&self, query: &Query) -> Result<Solution, SolveError> {
        let num_vertices = self.graph.num_vertices();
        run_solve(
            "solve",
            query,
            num_vertices,
            self.num_colors,
            |run, capacity| {
                let (reduced, hit) =
                    match self.reduce(run.params.k, &query.config.reductions, &run.ctrl) {
                        Ok(pair) => pair,
                        Err(partial) => return Searched::stopped(partial),
                    };
                let pool = SharedIncumbent::with_capacity(capacity);
                let (params, ctrl) = (run.params, &run.ctrl);
                let (mut stats, _) =
                    search_phase(&reduced, params, &query.config, &pool, ctrl, |_| false);
                stats.reduction = reduced.stats.clone();
                Searched {
                    cliques: pool
                        .into_cliques()
                        .into_iter()
                        .map(|vertices| FairClique::from_vertices(&self.graph, vertices))
                        .collect(),
                    stats,
                    reduction_cache_hit: hit,
                    reduced: vec![reduced],
                    termination: None,
                }
            },
        )
    }

    /// Runs the linear-time `HeurRFC` heuristic for a query's fairness model on the
    /// original (unreduced) graph: a large fair clique plus a coloring-based upper
    /// bound, without the exact search.
    pub fn heuristic(&self, query: &Query) -> Result<HeuristicOutcome, SolveError> {
        let params = query
            .fairness
            .resolve(self.graph.num_vertices())
            .map_err(SolveError::InvalidParams)?;
        Ok(heur_rfc(&self.graph, params, &query.config.heuristic))
    }

    /// Enumerates every **maximal fair clique** under the query's fairness model,
    /// streaming each one into `sink` — the set-valued counterpart of
    /// [`solve`](RfcSolver::solve). See [`enumerate`](crate::enumerate) for the
    /// algorithm, the sink family, and the determinism contract.
    ///
    /// Shares this solver's cached reduced graph with `solve` queries of the same
    /// `(k, reductions)`. Budget exhaustion, cancellation and sink-driven stops are
    /// reported through [`EnumOutcome::termination`]; every clique emitted before a
    /// stop is still a verified maximal fair clique. Errors only on malformed
    /// queries (`k = 0`).
    ///
    /// ```
    /// use rfc_core::prelude::*;
    /// use rfc_graph::fixtures;
    ///
    /// let solver = RfcSolver::new(fixtures::fig1_graph());
    /// let mut sink = CollectSink::new();
    /// let outcome = solver
    ///     .enumerate(
    ///         &EnumQuery::new(FairnessModel::Relative { k: 3, delta: 1 })
    ///             .with_threads(ThreadCount::Serial),
    ///         &mut sink,
    ///     )
    ///     .unwrap();
    /// assert_eq!(outcome.termination, EnumTermination::Complete);
    /// assert_eq!(outcome.emitted, 5); // the five fair 7-subsets of the 8-clique
    /// assert!(sink.cliques().iter().all(|c| c.size() == 7));
    /// ```
    pub fn enumerate(
        &self,
        query: &EnumQuery,
        sink: &mut dyn CliqueSink,
    ) -> Result<EnumOutcome, SolveError> {
        let num_vertices = self.graph.num_vertices();
        run_enumerate(
            query,
            num_vertices,
            self.num_colors,
            |run, problem| match self.reduce(run.params.k, &query.reductions, &run.ctrl) {
                Ok(reduced) => {
                    let (threads, ctrl) = (query.threads, &run.ctrl);
                    run_enumeration(&self.graph, reduced, problem, threads, ctrl, None, sink)
                }
                Err(partial) => Enumerated::stopped(partial),
            },
        )
    }

    /// Answers many independent queries, fanning them across worker threads while all
    /// of them share this solver's cached preprocessing.
    ///
    /// `threads` controls the *batch-level* fan-out: the queries are the tasks of one
    /// work-stealing pool, dispatched in order. With more than one query and
    /// `threads` resolving above 1, each query's own search is forced to
    /// [`ThreadCount::Serial`], so the machine is never oversubscribed and every
    /// individual result is as deterministic as a serial solve. Otherwise the queries
    /// run one after another on the calling thread with their own `config.threads`
    /// untouched.
    ///
    /// Results come back in query order, one per query.
    pub fn solve_batch(
        &self,
        queries: &[Query],
        threads: ThreadCount,
    ) -> Vec<Result<Solution, SolveError>> {
        // Resolving `Auto` reads the cgroup limits: a lone query never pays for it.
        let workers = if queries.len() <= 1 {
            1
        } else {
            threads.resolve().min(queries.len())
        };
        let (tasks, states) = (
            queries.iter().enumerate().collect(),
            vec![Vec::new(); workers],
        );
        let done = run_pool(workers, tasks, states, |done, _, (i, query)| {
            let solution = if workers > 1 {
                let mut serial = query.clone();
                serial.config.threads = ThreadCount::Serial;
                self.solve(&serial)
            } else {
                self.solve(query)
            };
            done.push((i, solution));
        });
        let mut done: Vec<_> = done.into_iter().flatten().collect();
        done.sort_unstable_by_key(|&(i, _)| i);
        done.into_iter().map(|(_, solution)| solution).collect()
    }

    /// The library's reduce step, shared with the portfolio: fetches (or
    /// [builds](Self::build) and caches) the reduced graph for `(k, config)` under
    /// the `reduce` span, honoring the query's budget/cancel control.
    ///
    /// A tripped control stops the query at entry, before even a cached reduced
    /// graph is served. On a miss, a trip between pipeline stages returns `Err` with
    /// the partial stage stats, and a later query recomputes the reduction.
    pub(crate) fn reduce(
        &self,
        k: usize,
        config: &ReductionConfig,
        ctrl: &SearchControl,
    ) -> Result<(Arc<ReducedEntry>, bool), ReductionStats> {
        if ctrl.check_now() {
            return Err(ReductionStats::default());
        }
        let key = (k, *config);
        traced_reduce(|| match self.cached(&key) {
            Some(entry) => Ok((entry, true)),
            None => self.build(key, ctrl).map(|entry| (entry, false)),
        })
    }

    /// The reduced graph cached for `key`, if any.
    pub(crate) fn cached(&self, key: &ReductionKey) -> Option<Arc<ReducedEntry>> {
        let cache = self.reductions.lock().expect("reduction cache poisoned");
        cache.get(key).cloned()
    }

    /// Caches `entry`, the result of one pipeline run, under `key` and returns the
    /// cached reduced graph: a racing query that cached one first keeps its own.
    pub(crate) fn insert(&self, key: ReductionKey, entry: ReducedEntry) -> Arc<ReducedEntry> {
        self.preprocessing_runs.fetch_add(1, Ordering::Relaxed);
        let mut cache = self.reductions.lock().expect("reduction cache poisoned");
        Arc::clone(cache.entry(key).or_insert_with(|| Arc::new(entry)))
    }

    /// The one fresh build of a reduced graph: runs the pipeline for `key` under
    /// `ctrl` and caches the result. The pipeline runs outside the cache's lock, so
    /// queries for different keys don't serialize. A trip between stages returns
    /// the partial stage stats and caches **nothing**, so the cache only ever holds
    /// complete pipelines.
    pub(crate) fn build(
        &self,
        key: ReductionKey,
        ctrl: &SearchControl,
    ) -> Result<Arc<ReducedEntry>, ReductionStats> {
        let (k, config) = key;
        let params = FairCliqueParams::new(k, 0).expect("k >= 1 was validated by the caller");
        let (graph, stats, survivors) =
            apply_reductions_controlled(&self.graph, params, &config, Some(ctrl));
        let Some(graph) = graph else {
            return Err(stats);
        };
        Ok(self.insert(
            key,
            ReducedEntry::new(graph, stats, survivors, k, Vec::new()),
        ))
    }
}

/// One query between its begin and finish steps. Every solve and enumerate entry
/// point — [`RfcSolver`], [`DynamicRfcSolver`](crate::dynamic::DynamicRfcSolver) and
/// the [portfolio](crate::portfolio) — runs through [`run_solve`] or
/// [`run_enumerate`], so model validation, the colouring gate, budget anchoring,
/// termination mapping, bound certification and metrics each live here once.
pub(crate) struct QueryRun {
    start: Instant,
    span: rfc_obs::trace::Span,
    /// Smallest clique the query asks for: the model's `2k`, or an enumeration's
    /// larger `min_size`.
    min_size: usize,
    /// Whether the colouring gate lets the query search at all.
    feasible: bool,
    /// The query's fairness model, resolved against the graph.
    pub(crate) params: FairCliqueParams,
    /// The query's budget and cancel token, anchored at entry so that
    /// `Budget.time_limit` covers the whole query (see the [`Budget`] docs).
    pub(crate) ctrl: SearchControl,
}

impl QueryRun {
    /// Begin: opens the `root` span, resolves the model, anchors the control and
    /// applies the O(1) infeasibility gate. Clique vertices carry pairwise-distinct
    /// colours, so no clique of `min_size` vertices — fair or not — exists when the
    /// graph's greedy colouring uses fewer colours.
    fn begin(
        root: &'static str,
        fairness: FairnessModel,
        min_size: usize,
        budget: &Budget,
        cancel: &Option<CancelToken>,
        num_vertices: usize,
        num_colors: usize,
    ) -> Result<Self, SolveError> {
        let start = Instant::now();
        let span = rfc_obs::trace::span(root);
        let params = fairness
            .resolve(num_vertices)
            .map_err(SolveError::InvalidParams)?;
        let min_size = params.min_size().max(min_size);
        Ok(Self {
            start,
            span,
            min_size,
            feasible: min_size <= num_colors,
            params,
            ctrl: SearchControl::new(budget, cancel.clone()),
        })
    }

    /// Attaches a counter to the query's root span.
    pub(crate) fn counter(&mut self, name: &'static str, value: u64) {
        self.span.counter(name, value);
    }

    /// Finish for a solve: maps the control's stop reason to a [`Termination`] (unless
    /// the search decided its own), certifies the bound, stamps the wall time and
    /// publishes the metrics.
    fn finish_solve(mut self, objective: Objective, searched: Searched) -> Solution {
        let Searched {
            cliques,
            mut stats,
            reduction_cache_hit,
            reduced,
            termination,
        } = searched;
        let mut termination =
            termination.unwrap_or_else(|| search_termination(&self.ctrl, !cliques.is_empty()));
        let best_size = cliques.first().map(FairClique::size).unwrap_or(0);
        let params = self.params;
        let upper_bound = certify_bound(objective, best_size, &mut termination, || {
            reduced
                .iter()
                .map(|entry| colorful_upper_bound(&entry.components, params))
                .min()
        });
        stats.elapsed_micros = self.start.elapsed().as_micros() as u64;
        self.counter("branches", stats.branches);
        self.counter("cliques", cliques.len() as u64);
        drop(self);
        flush_search_metrics(&stats);
        Solution {
            cliques,
            termination,
            stats,
            reduction_cache_hit,
            upper_bound,
        }
    }

    /// Finish for an enumeration: maps the control's stop reason (or the sink's) to an
    /// [`EnumTermination`], stamps the wall time and publishes the metrics.
    fn finish_enumerate(mut self, enumerated: Enumerated) -> EnumOutcome {
        let Enumerated {
            emitted,
            sink_stopped,
            mut stats,
            reduction_cache_hit,
        } = enumerated;
        let termination = match self.ctrl.stop_reason() {
            Some(StopReason::Budget) => EnumTermination::BudgetExhausted,
            Some(StopReason::Cancelled) => EnumTermination::Cancelled,
            None if sink_stopped => EnumTermination::SinkStopped,
            None => EnumTermination::Complete,
        };
        stats.elapsed_micros = self.start.elapsed().as_micros() as u64;
        self.counter("emitted", emitted);
        drop(self);
        let m = rfc_obs::metrics::global();
        m.counter("rfc_enumerate_runs_total").inc();
        m.counter("rfc_enumerate_emitted_total").add(emitted);
        m.histogram("rfc_enumerate_elapsed_us")
            .observe(stats.elapsed_micros);
        EnumOutcome {
            emitted,
            termination,
            stats,
            reduction_cache_hit,
        }
    }
}

/// What a solve's search hands to the finish step.
#[derive(Default)]
pub(crate) struct Searched {
    /// Verified fair cliques of the input graph, in canonical order.
    pub(crate) cliques: Vec<FairClique>,
    /// Reduction and search counters; the finish step stamps the wall time.
    pub(crate) stats: SearchStats,
    /// See [`Solution::reduction_cache_hit`].
    pub(crate) reduction_cache_hit: bool,
    /// The reduced graphs searched. An early stop reports the smallest colourful
    /// bound over them, and no bound when the query stopped before any existed.
    pub(crate) reduced: Vec<Arc<ReducedEntry>>,
    /// How the search ended, when that is not read off the control (the
    /// portfolio's race decides its own).
    pub(crate) termination: Option<Termination>,
}

impl Searched {
    /// A query the control stopped during its reduce step.
    pub(crate) fn stopped(reduction: ReductionStats) -> Self {
        let stats = SearchStats {
            reduction,
            ..SearchStats::default()
        };
        Self {
            stats,
            ..Self::default()
        }
    }
}

/// What an enumeration's search hands to the finish step.
#[derive(Default)]
pub(crate) struct Enumerated {
    /// Cliques delivered to the sink.
    pub(crate) emitted: u64,
    /// Whether the sink asked to stop.
    pub(crate) sink_stopped: bool,
    /// Reduction and enumeration counters; the finish step stamps the wall time.
    pub(crate) stats: EnumStats,
    /// See [`EnumOutcome::reduction_cache_hit`].
    pub(crate) reduction_cache_hit: bool,
}

impl Enumerated {
    /// A query the control stopped during its reduce step.
    pub(crate) fn stopped(reduction: ReductionStats) -> Self {
        let stats = EnumStats {
            reduction,
            ..EnumStats::default()
        };
        Self {
            stats,
            ..Self::default()
        }
    }
}

/// Runs one solve: begin, then `search` (skipped when the colouring gate already
/// proves the query infeasible), then finish. `search` gets the run and the pool
/// capacity the objective asks for (1 for the maximum, `n` for the top `n`).
pub(crate) fn run_solve(
    root: &'static str,
    query: &Query,
    num_vertices: usize,
    num_colors: usize,
    search: impl FnOnce(&mut QueryRun, usize) -> Searched,
) -> Result<Solution, SolveError> {
    let mut run = QueryRun::begin(
        root,
        query.fairness,
        0,
        &query.budget,
        &query.cancel,
        num_vertices,
        num_colors,
    )?;
    let capacity = match query.objective {
        Objective::Maximum => 1,
        Objective::TopK(0) => return Err(SolveError::EmptyTopK),
        Objective::TopK(n) => n,
    };
    let searched = if run.feasible {
        search(&mut run, capacity)
    } else {
        Searched::default()
    };
    Ok(run.finish_solve(query.objective, searched))
}

/// Runs one enumeration: begin, then `search` on the resolved problem (skipped when
/// the colouring gate already proves nothing can be emitted), then finish.
pub(crate) fn run_enumerate(
    query: &EnumQuery,
    num_vertices: usize,
    num_colors: usize,
    search: impl FnOnce(&QueryRun, EnumProblem) -> Enumerated,
) -> Result<EnumOutcome, SolveError> {
    let run = QueryRun::begin(
        "enumerate",
        query.fairness,
        query.min_size,
        &query.budget,
        &query.cancel,
        num_vertices,
        num_colors,
    )?;
    let problem = EnumProblem {
        model: query.fairness,
        params: run.params,
        min_size: run.min_size,
    };
    let enumerated = if run.feasible {
        search(&run, problem)
    } else {
        Enumerated::default()
    };
    Ok(run.finish_enumerate(enumerated))
}

/// The search phase of every solve (Algorithm 2 after its reductions): the
/// `HeurRFC` warm start on the reduced graph offered into `pool`, then the
/// branch-and-bound over its eligible components, in their order, under the
/// `heuristic` and `search` spans. The warm start is skipped once the control has
/// tripped. `pool` holds the reduced graph's ids, which are the input graph's.
///
/// A component is searched unless `settled` says, once the warm start's clique is
/// in the pool, that it cannot change the pool: the library settles none, and the
/// [dynamic solver](crate::dynamic) those its cached certificates settle. Returns
/// the counters and the indices of the components the branch-and-bound was given.
pub(crate) fn search_phase(
    reduced: &ReducedEntry,
    params: FairCliqueParams,
    config: &SearchConfig,
    pool: &SharedIncumbent,
    ctrl: &SearchControl,
    settled: impl Fn(usize) -> bool,
) -> (SearchStats, Vec<usize>) {
    let mut stats = SearchStats::default();
    if config.use_heuristic && !ctrl.check_now() {
        let mut span = rfc_obs::trace::span("heuristic");
        let outcome = heur_rfc(&reduced.graph, params, &config.heuristic);
        stats.heuristic_size = outcome.best.as_ref().map(FairClique::size);
        span.counter("size", stats.heuristic_size.unwrap_or(0) as u64);
        if let Some(clique) = outcome.best {
            pool.offer(clique.vertices);
        }
    }
    let searched: Vec<usize> = (0..reduced.components.len())
        .filter(|&i| !settled(i))
        .collect();
    let components: Vec<&Component> = searched.iter().map(|&i| &*reduced.components[i]).collect();
    let mut span = rfc_obs::trace::span("search");
    stats += &branch_and_bound(&components, params, config, pool, ctrl);
    span.counter("branches", stats.branches);
    span.counter("components", stats.components_searched as u64);
    span.counter("bound_prunes", stats.bound_prunes);
    span.counter("feasibility_prunes", stats.feasibility_prunes);
    span.counter("incumbent_updates", stats.incumbent_updates);
    (stats, searched)
}

/// Runs a query's reduce step under the `reduce` span. `reduce` returns the reduced
/// graph and whether it came from cache, or the partial counters of a pipeline the
/// control stopped.
pub(crate) fn traced_reduce(
    reduce: impl FnOnce() -> Result<(Arc<ReducedEntry>, bool), ReductionStats>,
) -> Result<(Arc<ReducedEntry>, bool), ReductionStats> {
    let mut span = rfc_obs::trace::span("reduce");
    let result = reduce();
    if let Ok((reduced, hit)) = &result {
        span.counter("cache_hit", u64::from(*hit));
        span.counter("vertices", reduced.stats.final_vertices() as u64);
        span.counter("edges", reduced.stats.final_edges() as u64);
    }
    result
}

/// How a search ended, read off its control: the stop reason when it tripped,
/// otherwise a complete search that `found` a fair clique or proved none exists.
pub(crate) fn search_termination(ctrl: &SearchControl, found: bool) -> Termination {
    match ctrl.stop_reason() {
        Some(StopReason::Budget) => Termination::BudgetExhausted,
        Some(StopReason::Cancelled) => Termination::Cancelled,
        None if found => Termination::Optimal,
        None => Termination::Infeasible,
    }
}

/// The `upper_bound` a solve reports, certifying `termination` when the bound proves
/// the best-so-far exact.
///
/// A complete search bounds itself at `best_size`. Otherwise `bound` is evaluated (it
/// returns a sound bound on the whole query, or `None` when none was computed) and
/// raised to `best_size`, so a reported gap is never negative. A best-so-far that
/// meets it *is* the exact answer: a single-maximum query then reports
/// [`Termination::Optimal`], or [`Termination::Infeasible`] when both are 0, instead
/// of a hollow early stop. Top-k queries keep their early stop, since top-k
/// completeness needs more than a size bound.
fn certify_bound(
    objective: Objective,
    best_size: usize,
    termination: &mut Termination,
    bound: impl FnOnce() -> Option<usize>,
) -> Option<usize> {
    if termination.is_complete() {
        return Some(best_size);
    }
    let ub = bound()?.max(best_size);
    if objective == Objective::Maximum && ub == best_size {
        *termination = if best_size > 0 {
            Termination::Optimal
        } else {
            Termination::Infeasible
        };
    }
    Some(ub)
}

/// A sound upper bound on the size of any fair clique of a reduced graph under
/// `params`: `ubac` (Lemma 8, [`attribute_color_bound`]) on a fresh greedy coloring
/// of each of its eligible `components`, capped at the component's size.
///
/// A fair clique lies in one component, so the result is the maximum over the
/// components — `0` proves infeasibility. This is the bound behind
/// [`Solution::upper_bound`] and the portfolio's reported optimality gap.
pub(crate) fn colorful_upper_bound(
    components: &[Arc<Component>],
    params: FairCliqueParams,
) -> usize {
    let mut best = 0usize;
    for component in components {
        let g = &component.graph;
        if g.num_vertices() <= best {
            continue;
        }
        let bound = attribute_color_bound(g, &greedy_coloring(g), params);
        best = best.max(bound.min(g.num_vertices()));
    }
    best
}

/// Publishes one solve's search counters into the global metrics registry. Prune
/// reasons become one `rfc_search_prunes_total{reason=...}` series each, using the
/// [`PruneCounts::reasons`](crate::search::PruneCounts::reasons) vocabulary.
fn flush_search_metrics(stats: &SearchStats) {
    let m = rfc_obs::metrics::global();
    m.counter("rfc_search_solves_total").inc();
    m.counter("rfc_search_branches_total").add(stats.branches);
    m.counter("rfc_search_incumbent_updates_total")
        .add(stats.incumbent_updates);
    m.counter("rfc_search_components_total")
        .add(stats.components_searched as u64);
    for (reason, count) in stats.prune_counts.reasons() {
        if count > 0 {
            m.counter(&format!("rfc_search_prunes_total{{reason=\"{reason}\"}}"))
                .add(count);
        }
    }
    m.histogram("rfc_solve_elapsed_us")
        .observe(stats.elapsed_micros);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;
    use rfc_graph::subgraph::induced_subgraph;
    use rfc_graph::{fixtures, Attribute};

    #[test]
    fn one_preprocessing_pass_serves_many_models() {
        let solver = RfcSolver::new(fixtures::fig1_graph());
        let relative = solver
            .solve(&Query::new(FairnessModel::Relative { k: 3, delta: 1 }))
            .unwrap();
        let strong = solver
            .solve(&Query::new(FairnessModel::Strong { k: 3 }))
            .unwrap();
        let weak = solver
            .solve(&Query::new(FairnessModel::Weak { k: 3 }))
            .unwrap();
        assert_eq!(relative.best().unwrap().size(), 7);
        assert_eq!(strong.best().unwrap().size(), 6);
        assert_eq!(weak.best().unwrap().size(), 8);
        // All three share k = 3, so the reduction pipeline ran exactly once.
        assert!(!relative.reduction_cache_hit);
        assert!(strong.reduction_cache_hit && weak.reduction_cache_hit);
        assert_eq!(solver.preprocessing_runs(), 1);
        // A different k needs its own pipeline.
        let other = solver
            .solve(&Query::new(FairnessModel::Relative { k: 2, delta: 1 }))
            .unwrap();
        assert!(!other.reduction_cache_hit);
        assert_eq!(solver.preprocessing_runs(), 2);
        for solution in [&relative, &strong, &weak, &other] {
            assert_eq!(solution.termination, Termination::Optimal);
            assert!(solution.termination.is_complete());
        }
    }

    #[test]
    fn solutions_verify_under_their_model() {
        let solver = RfcSolver::new(fixtures::fig1_graph());
        for fairness in [
            FairnessModel::Relative { k: 3, delta: 1 },
            FairnessModel::Weak { k: 3 },
            FairnessModel::Strong { k: 3 },
        ] {
            let solution = solver.solve(&Query::new(fairness)).unwrap();
            let best = solution.best().unwrap();
            assert!(
                verify::is_fair_clique_under(solver.graph(), &best.vertices, fairness),
                "{fairness}"
            );
        }
    }

    #[test]
    fn invalid_queries_are_rejected() {
        let solver = RfcSolver::new(fixtures::fig1_graph());
        let err = solver
            .solve(&Query::new(FairnessModel::Weak { k: 0 }))
            .unwrap_err();
        assert_eq!(err, SolveError::InvalidParams(ParamError::KMustBePositive));
        assert!(err.to_string().contains("invalid query parameters"));
        let err = solver
            .solve(&Query::default().with_objective(Objective::TopK(0)))
            .unwrap_err();
        assert_eq!(err, SolveError::EmptyTopK);
        assert!(std::error::Error::source(&SolveError::EmptyTopK).is_none());
    }

    #[test]
    fn coloring_gate_short_circuits_hopeless_queries() {
        let solver = RfcSolver::new(fixtures::fig1_graph());
        // The greedy coloring bounds every clique; k beyond it can't be served.
        let k = solver.num_colors(); // min_size = 2k > num_colors for any k >= 1
        let solution = solver
            .solve(&Query::new(FairnessModel::Weak { k }))
            .unwrap();
        assert_eq!(solution.termination, Termination::Infeasible);
        assert!(solution.cliques.is_empty());
        // The gate answers without touching the reduction pipeline.
        assert_eq!(solver.preprocessing_runs(), 0);
        assert!(solver.degeneracy() >= 1);
    }

    #[test]
    fn infeasible_is_reported_after_a_full_search_too() {
        let solver = RfcSolver::new(fixtures::path_graph(10));
        let solution = solver
            .solve(&Query::new(FairnessModel::Relative { k: 1, delta: 0 }))
            .unwrap();
        // A path has fair edges for k = 1 — feasible; now ask for something the path
        // cannot host at all.
        assert_eq!(solution.termination, Termination::Optimal);
        let hard = solver
            .solve(&Query::new(FairnessModel::Relative { k: 2, delta: 0 }))
            .unwrap();
        assert_eq!(hard.termination, Termination::Infeasible);
        assert!(hard.best().is_none());
    }

    #[test]
    fn budget_and_cancellation_report_their_termination() {
        let solver = RfcSolver::new(fixtures::fig1_graph());
        // Pre-cancelled token: the search stops on its first node.
        let token = CancelToken::new();
        token.cancel();
        let cancelled = solver
            .solve(
                &Query::new(FairnessModel::Relative { k: 3, delta: 1 }).with_cancel(token.clone()),
            )
            .unwrap();
        assert_eq!(cancelled.termination, Termination::Cancelled);
        assert!(token.is_cancelled());
        // Exhausted node budget: best-so-far comes from the heuristic warm start and
        // is still a verified fair clique. On Fig.1 the warm start meets the colorful
        // upper bound, so the solver certifies it as the exact optimum (gap 0).
        let budgeted = solver
            .solve(
                &Query::new(FairnessModel::Relative { k: 3, delta: 1 })
                    .with_budget(Budget::unlimited().with_node_limit(0)),
            )
            .unwrap();
        assert_eq!(budgeted.termination, Termination::Optimal);
        assert_eq!(budgeted.optimality_gap(), Some(0));
        assert_eq!(budgeted.upper_bound, Some(7));
        let best = budgeted.best().expect("warm start seeds the pool");
        assert!(verify::is_fair_and_clique(
            solver.graph(),
            &best.vertices,
            FairCliqueParams::new(3, 1).unwrap()
        ));
        // Without the warm start nothing reaches the bound, so the same node-starved
        // query stays honestly budget-exhausted, with the bound as its finite gap.
        let config = SearchConfig {
            use_heuristic: false,
            ..SearchConfig::default()
        };
        let starved = solver
            .solve(
                &Query::new(FairnessModel::Relative { k: 3, delta: 1 })
                    .with_config(config)
                    .with_budget(Budget::unlimited().with_node_limit(0)),
            )
            .unwrap();
        assert_eq!(starved.termination, Termination::BudgetExhausted);
        assert!(!starved.termination.is_complete());
        assert!(starved.best().is_none());
        assert_eq!(starved.upper_bound, Some(7));
        assert_eq!(starved.optimality_gap(), Some(7));
        assert!(!Budget::unlimited().with_node_limit(0).is_unlimited());
        assert!(Budget::unlimited().is_unlimited());
    }

    #[test]
    fn top_k_returns_the_largest_fair_cliques() {
        let solver = RfcSolver::new(fixtures::fig1_graph());
        let query = Query::new(FairnessModel::Relative { k: 3, delta: 1 })
            .with_objective(Objective::TopK(3))
            .with_config(SearchConfig::default().with_threads(ThreadCount::Serial));
        let solution = solver.solve(&query).unwrap();
        assert_eq!(solution.termination, Termination::Optimal);
        // The planted 8-clique has five a's and three b's: every 7-subset dropping one
        // `a` is fair for (3, 1), so all top-3 cliques have size 7.
        let sizes: Vec<usize> = solution.cliques.iter().map(|c| c.size()).collect();
        assert_eq!(sizes, vec![7, 7, 7]);
        let mut sets: Vec<_> = solution
            .cliques
            .iter()
            .map(|c| c.vertices.clone())
            .collect();
        sets.dedup();
        assert_eq!(sets.len(), 3, "top-k cliques must be distinct");
        for clique in &solution.cliques {
            assert!(verify::is_fair_and_clique(
                solver.graph(),
                &clique.vertices,
                FairCliqueParams::new(3, 1).unwrap()
            ));
        }
    }

    #[test]
    fn batch_matches_individual_solves() {
        let solver = RfcSolver::new(fixtures::fig1_graph());
        let queries: Vec<Query> = vec![
            Query::new(FairnessModel::Relative { k: 3, delta: 1 }),
            Query::new(FairnessModel::Weak { k: 3 }),
            Query::new(FairnessModel::Strong { k: 3 }),
            Query::new(FairnessModel::Relative { k: 2, delta: 0 }),
            Query::new(FairnessModel::Weak { k: 0 }), // invalid on purpose
        ];
        let individual: Vec<_> = queries
            .iter()
            .map(|q| solver.solve(q).map(|s| s.best().map(|c| c.size())))
            .collect();
        for threads in [ThreadCount::Serial, ThreadCount::Fixed(3)] {
            let batch = solver.solve_batch(&queries, threads);
            assert_eq!(batch.len(), queries.len());
            let batch_sizes: Vec<_> = batch
                .into_iter()
                .map(|r| r.map(|s| s.best().map(|c| c.size())))
                .collect();
            assert_eq!(batch_sizes, individual, "threads {threads:?}");
        }
    }

    #[test]
    fn components_equal_their_induced_subgraphs() {
        // 60 disjoint blobs of 4 to 9 vertices, each a clique missing a few edges,
        // with a pendant vertex below the degree cut and an isolated gap after it.
        let (mut edges, mut attributes) = (Vec::new(), Vec::new());
        let mut state = 7u64;
        let mut draw = |bound: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        for blob in 0..60u64 {
            let lo = attributes.len() as VertexId;
            let size = 4 + blob % 6;
            for _ in 0..size + 2 {
                attributes.push([Attribute::A, Attribute::B][draw(2) as usize]);
            }
            for u in lo..lo + size as VertexId {
                for v in u + 1..lo + size as VertexId {
                    if draw(8) != 0 {
                        edges.push((u, v));
                    }
                }
            }
            edges.push((lo, lo + size as VertexId));
        }
        let mut builder = GraphBuilder::with_attributes(attributes);
        builder.add_edges(edges);
        let graph = builder.build().unwrap();
        let entry = ReducedEntry::new(graph.clone(), Default::default(), Vec::new(), 2, Vec::new());
        assert!(entry.components.len() >= 30, "{}", entry.components.len());
        let firsts: Vec<VertexId> = entry.components.iter().map(|c| c.vertices[0]).collect();
        assert!(firsts.windows(2).all(|w| w[0] < w[1]));
        for component in &entry.components {
            let sub = induced_subgraph(&graph, &component.vertices);
            assert_eq!(component.vertices, sub.original);
            assert_eq!(component.graph, sub.graph);
        }
    }

    #[test]
    fn query_builder_round_trip() {
        let token = CancelToken::new();
        let query = Query::new(FairnessModel::Strong { k: 2 })
            .with_objective(Objective::TopK(5))
            .with_budget(Budget::unlimited().with_time_limit(Duration::from_secs(1)))
            .with_config(SearchConfig::basic())
            .with_cancel(token);
        assert_eq!(query.fairness, FairnessModel::Strong { k: 2 });
        assert_eq!(query.objective, Objective::TopK(5));
        assert_eq!(query.budget.time_limit, Some(Duration::from_secs(1)));
        assert_eq!(query.config, SearchConfig::basic());
        assert!(query.cancel.is_some());
        assert_eq!(
            Query::default().fairness,
            FairnessModel::Relative { k: 2, delta: 1 }
        );
        assert_eq!(Query::default().objective, Objective::Maximum);
    }
}
