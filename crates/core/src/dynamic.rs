//! Incremental re-solve and re-enumeration over a changing graph.
//!
//! [`DynamicRfcSolver`] wraps the build-once/query-many [`RfcSolver`] pipeline for
//! graphs that *churn*: edges and vertices arrive and leave between queries. Updates
//! are buffered in an [`rfc_graph::delta::GraphDelta`] and folded into the committed
//! graph by [`commit`](DynamicRfcSolver::commit); queries
//! ([`solve`](DynamicRfcSolver::solve) / [`enumerate`](DynamicRfcSolver::enumerate))
//! always answer against the committed graph and reuse everything an update provably
//! could not have changed:
//!
//! 1. **Reduced graphs** live in the committed graph's [`RfcSolver`], cached per
//!    `(k, ReductionConfig)` as for any library query;
//!    [`snapshot`](DynamicRfcSolver::snapshot) hands that solver out, so a racing
//!    portfolio reads the same reduced graphs. A commit builds the next solver and
//!    marks every reduced graph stale. A stale one is **spliced** on its next use,
//!    not recomputed: the reduction pipeline re-runs only on the connected
//!    components of the new graph that contain a touched vertex, and the untouched
//!    components keep their slice of the old reduced graph. The splice is the only
//!    way a reduced graph follows a commit.
//! 2. **Per-component solve and enumeration results** are keyed by the query's
//!    shape and the component's smallest vertex, which names it within one reduced
//!    graph. Each eligible component is built once, with its reduced graph, as its
//!    sorted vertex list and the compact graph those vertices induce. A solve caches
//!    a component's pool; an enumeration caches what it streamed, a prefix of the
//!    component's deterministic order, complete once a run reached its end. The
//!    first query after a commit checks the results once: a component keeps them
//!    only if the new reduced graph has a component with the same smallest vertex
//!    and an equal compact graph (the `Arc` a splice carried compares by pointer).
//!    Only dirty components, and enumerations that need more than a prefix holds,
//!    run the branch-and-bound or the enumerator, directly on the stored graph.
//!
//! ## Soundness of the cache invalidation
//!
//! *Spliced reduced graphs.* Reductions are componentwise: a vertex's peel status
//! depends only on its connected component. A component of `G′` without any touched
//! vertex is byte-identical to a component of the pre-update graph, so its slice of
//! the old reduced graph is exactly what a from-scratch pipeline would produce for
//! it; the dirty components get a genuine pipeline re-run. The spliced graph is in
//! fact edge-identical to a from-scratch reduction of `G′`: greedy coloring and
//! every peel act component by component, and the dirty part keeps its id order, so
//! every tie falls the same way. The splice tests assert that identity after every
//! splice. Every reduced graph a query reads, built or spliced, is therefore a
//! from-scratch reduction of the committed graph, stage counts included.
//!
//! *Per-component result caches.* A commit keeps the reduced graph the caches were
//! last checked against as the stale entry's base, even when a snapshot query (a
//! racing portfolio) has since built another, so the one check compares the right
//! graphs. A result survives only if its component's compact graph is unchanged:
//! the same subproblem under an order-preserving relabel, and a component's maximum
//! and maximal fair cliques depend on nothing else. (For the weak model the resolved
//! δ grows with the global vertex count, but any δ at least the component size is
//! equivalent, so cached weak results survive vertex-space growth.)
//!
//! ## What incremental buys
//!
//! A commit touching one component re-reduces and re-searches only that component,
//! and induces its graph once, with the spliced reduced graph; everything else is
//! spliced and replayed from cache. A batch that touches every component (uniform
//! high churn) leaves nothing clean to splice or replay, so it costs about what a
//! full [`RfcSolver::new`] rebuild does.
//!
//! A commit itself is linear work over the graph and no sort: the batch is
//! applied by copying the old edge list in spans around the changed edges into a
//! fresh CSR, and the next solver redoes the greedy coloring behind the O(1)
//! infeasibility gate in `O(|V| + |E|)`. The first query on a stale entry splices
//! it: a breadth-first search from the changed vertices finds the dirty components,
//! the pipeline reduces them as one compact induced subgraph, and the result is
//! merged with the old clean slice in one linear pass. Only the dirty components
//! are induced again; the clean ones are carried over as they are.
//! A splice therefore costs the dirty components' reduction plus linear passes, not
//! a whole-graph reduction.
//!
//! Unlike [`RfcSolver`], the dynamic solver takes `&mut self` on queries (its caches
//! are plain maps, not lock-protected): keep one solver per thread, or wrap it in a
//! mutex, for concurrent serving (the `rfc-serve` daemon does the latter — the type
//! is `Send`, so a `Mutex<DynamicRfcSolver>` is shareable across connection threads,
//! and the per-component result caches then act as a cross-client query cache).
//!
//! For serving, [`set_cache_capacity`](DynamicRfcSolver::set_cache_capacity) puts an
//! LRU bound on the per-component result caches (unbounded by default), and
//! [`cache_stats`](DynamicRfcSolver::cache_stats) reports hit/miss/eviction counters
//! for a daemon `stats` endpoint.

use std::cmp::Reverse;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use rfc_graph::delta::{DeltaError, GraphDelta, UpdateOp};
use rfc_graph::subgraph::induced_subgraph;
use rfc_graph::{Attribute, AttributedGraph, GraphBuilder, VertexId};

use crate::cache::{CacheStats, LruCache};
use crate::enumerate::{
    run_enumeration, CliqueSink, EnumOutcome, EnumProblem, EnumQuery, PrefixCache,
};
use crate::problem::{FairClique, FairCliqueParams, FairnessModel};
use crate::reduction::{
    apply_reductions_controlled, ReductionConfig, ReductionStats, StageSurvivors,
};
use crate::search::control::SearchControl;
use crate::search::parallel::{canonical_order, SharedIncumbent};
use crate::search::{CliqueIds, SearchConfig, SearchStats, ThreadCount};
use crate::solver::{
    fan_out, run_enumerate, run_solve, search_phase, traced_reduce, Component, Enumerated, Query,
    QueryRun, ReducedEntry, ReductionKey, RfcSolver, Searched, Solution, SolveError,
};

/// What one [`DynamicRfcSolver::commit`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitOutcome {
    /// Number of update operations folded into this commit.
    pub ops: usize,
    /// Number of distinct vertices the batch touched (the invalidation frontier).
    pub changed_vertices: usize,
    /// Cached reduced graphs left current. Only a batch with no net structural
    /// change leaves any (their next query still reports `reduction_cache_hit =
    /// true`); any other batch marks every one stale.
    pub reductions_kept: usize,
    /// Cached reduced graphs that are stale (they will be spliced — dirty
    /// components re-reduced, clean components reused — on their next query).
    pub reductions_invalidated: usize,
    /// Vertices of the committed graph.
    pub num_vertices: usize,
    /// Edges of the committed graph.
    pub num_edges: usize,
}

/// Aggregated per-component result-cache counters across every
/// `(k, reduction-config)` entry of a [`DynamicRfcSolver`] — what a daemon `stats`
/// endpoint reports. See [`DynamicRfcSolver::cache_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DynCacheStats {
    /// Counters of the solve-result caches.
    pub solve: CacheStats,
    /// Counters of the enumeration-result caches.
    pub enumerate: CacheStats,
}

/// Cache key of a per-component result: fairness model, then a solve's pool
/// capacity (1 = maximum objective, n = top-n) or an enumeration's effective
/// minimum size, then the component's smallest vertex, which names it within the
/// reduced graph the cache was last checked against.
pub(crate) type ComponentKey = (FairnessModel, usize, VertexId);
/// One component's cached solve pool, in compact ids.
type ComponentCliques = Arc<Vec<Vec<u32>>>;

/// The per-component result caches of one `(k, reduction config)`, and its reduced
/// graph while that is stale.
#[derive(Debug)]
struct DynEntry {
    /// After a structural commit, the reduced graph the result caches were last
    /// checked against and every vertex changed since. The next query splices it
    /// into the committed graph's solver, checks the caches and clears it.
    stale: Option<(Arc<ReducedEntry>, BTreeSet<VertexId>)>,
    /// Per-component top-`capacity` fair cliques (compact ids, largest first;
    /// empty = no fair clique in the component). LRU-bounded when the owner set a
    /// cache capacity.
    solve_cache: LruCache<ComponentKey, ComponentCliques>,
    /// Per-component prefixes of the deterministic enumeration order (compact
    /// ids), complete or not. Same bound.
    enum_cache: PrefixCache,
}

impl DynEntry {
    fn new(capacity: Option<usize>) -> Self {
        Self {
            stale: None,
            solve_cache: LruCache::new(capacity),
            enum_cache: LruCache::new(capacity),
        }
    }
}

/// An incremental maximum-fair-clique solver over a mutable graph (see the [module
/// docs](self) for the cache architecture and its soundness argument).
///
/// ```
/// use rfc_core::dynamic::DynamicRfcSolver;
/// use rfc_core::prelude::*;
/// use rfc_graph::fixtures;
///
/// let mut solver = DynamicRfcSolver::new(fixtures::fig1_graph());
/// let query = Query::new(FairnessModel::Relative { k: 3, delta: 1 });
/// assert_eq!(solver.solve(&query).unwrap().best().unwrap().size(), 7);
///
/// // Delete a vertex of the planted clique and re-solve incrementally; the answer
/// // always equals a from-scratch solve of the updated graph.
/// solver.remove_vertex(14).unwrap();
/// let outcome = solver.commit();
/// assert_eq!(outcome.ops, 1);
/// let incremental = solver.solve(&query).unwrap();
/// let scratch = RfcSolver::new(solver.graph().clone()).solve(&query).unwrap();
/// assert_eq!(
///     incremental.best().map(|c| c.size()),
///     scratch.best().map(|c| c.size()),
/// );
/// ```
#[derive(Debug)]
pub struct DynamicRfcSolver {
    /// The committed graph's solver: the graph every query answers against, its
    /// colouring gate and its current reduced graphs.
    solver: Arc<RfcSolver>,
    /// Updates buffered since the last commit (seeded with the persistent
    /// tombstones, so removed vertex ids stay reserved across commits until
    /// restored).
    delta: GraphDelta,
    /// Operations buffered since the last commit.
    pending_ops: usize,
    /// Ids removed in some committed batch and not (yet) restored.
    removed_vertices: BTreeSet<VertexId>,
    /// Result caches and stale reduced graphs per `(k, reduction config)`.
    entries: HashMap<ReductionKey, DynEntry>,
    /// LRU bound applied to each entry's result caches (`None` = unbounded).
    cache_capacity: Option<usize>,
    /// Completed commits.
    commits: u64,
    /// Reduction pipeline executions (full builds and dirty-component splices).
    preprocessing_runs: usize,
}

impl DynamicRfcSolver {
    /// Builds a dynamic solver over an initial graph.
    pub fn new(graph: AttributedGraph) -> Self {
        Self {
            solver: Arc::new(RfcSolver::new(graph)),
            delta: GraphDelta::new(),
            pending_ops: 0,
            removed_vertices: BTreeSet::new(),
            entries: HashMap::new(),
            cache_capacity: None,
            commits: 0,
            preprocessing_runs: 0,
        }
    }

    /// Builder-style variant of [`set_cache_capacity`](Self::set_cache_capacity).
    pub fn with_cache_capacity(mut self, capacity: Option<usize>) -> Self {
        self.set_cache_capacity(capacity);
        self
    }

    /// Bounds each per-component result cache to at most `capacity` entries with
    /// least-recently-used eviction (`None` = unbounded, the default). Shrinking the
    /// bound evicts immediately. The first query after a structural commit drops
    /// the results of components that left its reduced graph, so an unbounded cache
    /// holds one entry per live component and query shape (model, and pool
    /// capacity or minimum size); the bound caps how many shapes stay resident.
    pub fn set_cache_capacity(&mut self, capacity: Option<usize>) {
        self.cache_capacity = capacity;
        for entry in self.entries.values_mut() {
            entry.solve_cache.set_capacity(capacity);
            entry.enum_cache.set_capacity(capacity);
        }
    }

    /// The current per-cache entry bound (`None` = unbounded).
    pub fn cache_capacity(&self) -> Option<usize> {
        self.cache_capacity
    }

    /// Aggregated hit/miss/eviction counters of the per-component result caches,
    /// summed across every `(k, reduction-config)` entry.
    pub fn cache_stats(&self) -> DynCacheStats {
        let mut out = DynCacheStats::default();
        for entry in self.entries.values() {
            out.solve.absorb(&entry.solve_cache.stats());
            out.enumerate.absorb(&entry.enum_cache.stats());
        }
        out
    }

    /// The committed graph. Buffered (uncommitted) updates are not visible here or
    /// to any query until [`commit`](DynamicRfcSolver::commit).
    pub fn graph(&self) -> &AttributedGraph {
        self.solver.graph()
    }

    /// Colors of the committed graph's greedy coloring (an upper bound on any clique).
    pub fn num_colors(&self) -> usize {
        self.solver.num_colors()
    }

    /// The committed graph's [`RfcSolver`], which holds every reduced graph this
    /// solver's queries built or spliced since the last commit. A query on it, such
    /// as a racing [`solve_portfolio`](RfcSolver::solve_portfolio), holds no borrow of
    /// this solver, and the reduced graphs it builds serve this solver's next queries
    /// too. A structural commit moves this solver on to a new snapshot; an earlier
    /// one stays a solver of the graph it was taken at.
    pub fn snapshot(&self) -> Arc<RfcSolver> {
        Arc::clone(&self.solver)
    }

    /// Updates buffered since the last commit.
    pub fn pending_ops(&self) -> usize {
        self.pending_ops
    }

    /// Completed commits so far.
    pub fn commits(&self) -> u64 {
        self.commits
    }

    /// Reduction pipeline executions of this solver's queries so far — full builds
    /// plus dirty-component splices.
    pub fn preprocessing_runs(&self) -> usize {
        self.preprocessing_runs
    }

    /// Buffers the insertion of edge `(u, v)`.
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) -> Result<(), DeltaError> {
        self.delta.insert_edge(self.solver.graph(), u, v)?;
        self.pending_ops += 1;
        Ok(())
    }

    /// Buffers the removal of edge `(u, v)`.
    pub fn remove_edge(&mut self, u: VertexId, v: VertexId) -> Result<(), DeltaError> {
        self.delta.remove_edge(self.solver.graph(), u, v)?;
        self.pending_ops += 1;
        Ok(())
    }

    /// Buffers the insertion of a new vertex and returns its id.
    pub fn insert_vertex(&mut self, attr: Attribute) -> VertexId {
        let id = self.delta.insert_vertex(self.solver.graph(), attr);
        self.pending_ops += 1;
        id
    }

    /// Buffers the re-insertion of a previously removed vertex id.
    pub fn restore_vertex(&mut self, v: VertexId, attr: Attribute) -> Result<(), DeltaError> {
        self.delta.restore_vertex(self.solver.graph(), v, attr)?;
        self.pending_ops += 1;
        Ok(())
    }

    /// Buffers the removal of a vertex (and all its incident edges).
    pub fn remove_vertex(&mut self, v: VertexId) -> Result<(), DeltaError> {
        self.delta.remove_vertex(self.solver.graph(), v)?;
        self.pending_ops += 1;
        Ok(())
    }

    /// Applies one [`UpdateOp`] from an update stream. [`UpdateOp::Commit`] commits
    /// the buffered batch and returns its [`CommitOutcome`]; graph ops buffer and
    /// return `None`.
    pub fn apply_op(&mut self, op: &UpdateOp) -> Result<Option<CommitOutcome>, DeltaError> {
        if *op == UpdateOp::Commit {
            return Ok(Some(self.commit()));
        }
        self.delta.apply_op(self.solver.graph(), op)?;
        self.pending_ops += 1;
        Ok(None)
    }

    /// Drops every update buffered since the last commit. The committed graph, its
    /// caches and the ids removed by earlier commits stay as they are.
    pub fn rollback(&mut self) {
        self.delta = GraphDelta::with_tombstones(self.removed_vertices.clone());
        self.pending_ops = 0;
    }

    /// Folds the buffered updates into the committed graph: a batch with a net
    /// structural change builds the next solver and marks every reduced graph stale,
    /// to be spliced on its next use (see the [module docs](self)). Cheap when the
    /// batch is empty or cancels out.
    pub fn commit(&mut self) -> CommitOutcome {
        let commit_span = rfc_obs::trace::span("commit");
        let ops = self.pending_ops;
        self.pending_ops = 0;
        self.removed_vertices = self.delta.tombstones();
        let delta = std::mem::replace(
            &mut self.delta,
            GraphDelta::with_tombstones(self.removed_vertices.clone()),
        );
        self.commits += 1;
        let changed = delta.changed_vertices();
        let (mut kept, mut invalidated) = (0, 0);
        if delta.is_empty() {
            // No net structural change: every entry keeps its standing.
            for (key, entry) in &self.entries {
                if self.solver.cached(key).is_some() {
                    kept += 1;
                } else if entry.stale.is_some() {
                    invalidated += 1;
                }
            }
        } else {
            let next = RfcSolver::new(delta.apply(self.solver.graph()));
            for (key, entry) in self.entries.iter_mut() {
                // A stale entry keeps the base its caches were checked against.
                if entry.stale.is_none() {
                    entry.stale = self.solver.cached(key).map(|r| (r, BTreeSet::new()));
                }
                if let Some((_, acc)) = &mut entry.stale {
                    acc.extend(changed.iter().copied());
                    invalidated += 1;
                }
            }
            self.solver = Arc::new(next);
        }
        let outcome = CommitOutcome {
            ops,
            changed_vertices: changed.len(),
            reductions_kept: kept,
            reductions_invalidated: invalidated,
            num_vertices: self.graph().num_vertices(),
            num_edges: self.graph().num_edges(),
        };
        flush_commit_metrics(commit_span, &outcome);
        outcome
    }

    /// Answers one query against the committed graph, re-searching only components
    /// whose content changed since they were last solved. Accepts exactly the same
    /// [`Query`] shapes as [`RfcSolver::solve`] (all fairness models, maximum and
    /// top-k objectives, budgets, cancellation);
    /// [`Solution::reduction_cache_hit`] is `true` iff the reduced graph was reused
    /// without any recomputation or splicing, so it is `false` on the first query
    /// after any structural commit.
    ///
    /// Budgets and cancellation only gate *fresh* search work: a query whose
    /// components are all answered from cache reports
    /// [`Termination::Optimal`](crate::solver::Termination::Optimal) even under an
    /// exhausted budget or a pre-cancelled token, because the cached result is exact
    /// and no budgeted work ran. Components whose search was cut short are never
    /// cached.
    ///
    /// Components missing from the cache are searched largest first, with the rule
    /// of [`RfcSolver::solve_batch`](crate::solver::RfcSolver::solve_batch): a lone
    /// miss, or any misses when `config.threads` resolves to 1, run one after another
    /// on the query's own thread count, so a single dirty component gets the
    /// work-stealing search; otherwise the misses fan out over the threads and each
    /// is searched serially.
    pub fn solve(&mut self, query: &Query) -> Result<Solution, SolveError> {
        let (num_vertices, num_colors) = (self.graph().num_vertices(), self.num_colors());
        run_solve("solve", query, num_vertices, num_colors, |run, capacity| {
            self.solve_components(query, run, capacity)
        })
    }

    /// Streams every maximal fair clique of the committed graph into `sink` through
    /// the library's one enumeration loop and thread rule (see the
    /// [`enumerate`](crate::enumerate) module docs), with this solver's cache: a
    /// component replays the prefix of its order that earlier enumerations
    /// streamed, and only one whose prefix is not complete, such as one an update
    /// changed, runs the enumerator, which skips that prefix and streams the rest.
    /// So a stopping sink ends the work as well as the output. Same contract and
    /// emission order as [`RfcSolver::enumerate`](crate::solver::RfcSolver::enumerate);
    /// [`EnumStats::components_searched`](crate::enumerate::EnumStats) counts only
    /// the components enumerated afresh. As for [`solve`](Self::solve), replays
    /// ignore budgets and cancellation, and fresh work stops when they trip.
    pub fn enumerate(
        &mut self,
        query: &EnumQuery,
        sink: &mut dyn CliqueSink,
    ) -> Result<EnumOutcome, SolveError> {
        let (num_vertices, num_colors) = (self.graph().num_vertices(), self.num_colors());
        run_enumerate(query, num_vertices, num_colors, |run, problem| {
            self.enumerate_components(query, run, problem, sink)
        })
    }

    /// The search of [`solve`](Self::solve): the reduce step, then each component's
    /// pool from the cache or through the fan-out, merged in canonical order.
    fn solve_components(&mut self, query: &Query, run: &QueryRun, capacity: usize) -> Searched {
        let key = (run.params.k, query.config.reductions);
        let (reduced, hit) = match traced_reduce(|| self.ensure_entry(&key, &run.ctrl)) {
            Ok(pair) => pair,
            Err(partial) => return Searched::stopped(partial),
        };
        let entry = self.entries.get_mut(&key).expect("entry was just ensured");
        let cache = &mut entry.solve_cache;
        let components = &reduced.components;
        let (params, ctrl, config) = (run.params, &run.ctrl, &query.config);
        let component_key = |i: usize| (query.fairness, capacity, components[i].vertices[0]);
        let before = cache.stats();
        let mut per_comp: Vec<Option<ComponentCliques>> = (0..components.len())
            .map(|i| cache.get(&component_key(i)).cloned())
            .collect();
        // The misses fan out largest first with `fan_out`'s rule. A search that ran
        // to completion is cached; one the control skipped stays `None`.
        let mut misses: Vec<usize> = (0..components.len())
            .filter(|&i| per_comp[i].is_none())
            .collect();
        misses.sort_by_key(|&i| Reverse(components[i].vertices.len()));
        let fresh = fan_out(&misses, config.threads, Some(ctrl), |&i, pinned| {
            let threads = pinned.unwrap_or(config.threads);
            solve_component(&components[i], params, config, threads, capacity, ctrl)
        });
        let mut stats = SearchStats::default();
        for (&i, result) in misses.iter().zip(fresh) {
            let Some((cliques, completed, component_stats)) = result else {
                continue;
            };
            stats += &component_stats;
            let cliques = Arc::new(cliques);
            if completed {
                cache.insert(component_key(i), Arc::clone(&cliques));
            }
            per_comp[i] = Some(cliques);
        }
        flush_cache_metrics("solve", &before, &cache.stats());
        stats.reduction = reduced.stats.clone();

        // Merge the per-component pools in the canonical order `RfcSolver` uses. A
        // pool holds ascending compact ids, which follow the component's sorted
        // vertex list, so mapping a pool clique yields ascending vertex ids.
        let mut ranked: Vec<(usize, usize)> = Vec::new();
        for (ci, cell) in per_comp.iter().enumerate() {
            if let Some(cliques) = cell {
                ranked.extend((0..cliques.len()).map(|qi| (ci, qi)));
            }
        }
        let original = |&(ci, qi): &(usize, usize)| {
            let vertices = &components[ci].vertices;
            let ranks = &per_comp[ci].as_ref().expect("ranked entries exist")[qi];
            ranks.iter().map(move |&r| vertices[r as usize])
        };
        ranked.sort_by(|a, b| canonical_order(original(a), original(b)));
        ranked.truncate(capacity);
        let cliques = ranked
            .iter()
            .map(|entry| FairClique::from_vertices(self.solver.graph(), original(entry).collect()))
            .collect();
        Searched {
            cliques,
            stats,
            reduction_cache_hit: hit,
            reduced: vec![reduced],
            termination: None,
        }
    }

    /// The search of [`enumerate`](Self::enumerate): the reduce step, then the
    /// library's enumeration loop with this entry's prefix cache.
    fn enumerate_components(
        &mut self,
        query: &EnumQuery,
        run: &QueryRun,
        problem: EnumProblem,
        sink: &mut dyn CliqueSink,
    ) -> Enumerated {
        let key = (run.params.k, query.reductions);
        let reduced = match traced_reduce(|| self.ensure_entry(&key, &run.ctrl)) {
            Ok(pair) => pair,
            Err(partial) => return Enumerated::stopped(partial),
        };
        let entry = self.entries.get_mut(&key).expect("entry was just ensured");
        let before = entry.enum_cache.stats();
        let (graph, threads, ctrl) = (self.solver.graph(), query.threads, &run.ctrl);
        let cache = Some(&mut entry.enum_cache);
        let enumerated = run_enumeration(graph, reduced, problem, threads, ctrl, cache, sink);
        flush_cache_metrics("enumerate", &before, &entry.enum_cache.stats());
        enumerated
    }

    /// The dynamic reduce step: returns the committed graph's reduced graph for
    /// `key` with whether it was already current — the
    /// [`reduction_cache_hit`](Solution::reduction_cache_hit) the query reports.
    ///
    /// A reduced graph current in the solver is always served, untouched by the
    /// control: cached answers stay exact and budget-exempt. Otherwise a stale one
    /// is spliced and a missing one built by the library's
    /// [`build`](RfcSolver::build), both under the query's control. A tripped
    /// control stops the query before either starts, or between pipeline stages;
    /// the error carries the partial stage counters, the solver caches nothing and
    /// a stale entry stays stale.
    fn ensure_entry(
        &mut self,
        key: &ReductionKey,
        ctrl: &SearchControl,
    ) -> Result<(Arc<ReducedEntry>, bool), ReductionStats> {
        let capacity = self.cache_capacity;
        let entry = self
            .entries
            .entry(*key)
            .or_insert_with(|| DynEntry::new(capacity));
        let (reduced, hit) = match (self.solver.cached(key), &entry.stale) {
            (Some(reduced), _) => (reduced, true),
            _ if ctrl.check_now() => return Err(ReductionStats::default()),
            (None, Some((old, changed))) => {
                let params =
                    FairCliqueParams::new(key.0, 0).expect("k >= 1 was validated by the caller");
                let spliced = splice(self.solver.graph(), old, changed, params, &key.1, ctrl)?;
                (self.solver.insert(*key, spliced), false)
            }
            (None, None) => (self.solver.build(*key, ctrl)?, false),
        };
        self.preprocessing_runs += usize::from(!hit);
        if let Some((old, _)) = entry.stale.take() {
            // The one check of the cached results (see the module docs). Both
            // component lists are sorted by smallest vertex.
            let new = &reduced.components;
            let kept: Vec<VertexId> = (old.components.iter())
                .filter(|before| {
                    let at = new.binary_search_by_key(&before.vertices[0], |c| c.vertices[0]);
                    at.is_ok_and(|i| Arc::ptr_eq(before, &new[i]) || before.graph == new[i].graph)
                })
                .map(|c| c.vertices[0])
                .collect();
            let is_kept = |k: &ComponentKey| kept.binary_search(&k.2).is_ok();
            entry.solve_cache.retain(is_kept);
            entry.enum_cache.retain(is_kept);
        }
        Ok((reduced, hit))
    }
}

/// Splices a stale reduced graph `old` into a reduction of `graph`, the committed
/// graph: re-runs the pipeline under `ctrl` on the components of `graph` containing
/// a `changed` vertex and keeps `old`'s slice of every clean component (sound — see
/// the [module docs](self)). Returns the spliced entry, whose clean eligible
/// components are `old`'s own, keys included; only the dirty ones are induced
/// again. A trip returns the partial stage counters.
///
/// The dirty part is reduced as one compact induced subgraph. Its relabeling keeps
/// the id order, so every id tie-break in the pipeline (the coloring order above
/// all) falls the same way as in the full id space, where the other vertices would
/// be isolated; its reduced edges, mapped back, are the ones a reduction of the
/// dirty part in place would keep, and they come out sorted.
fn splice(
    graph: &AttributedGraph,
    old: &ReducedEntry,
    changed: &BTreeSet<VertexId>,
    params: FairCliqueParams,
    config: &ReductionConfig,
    ctrl: &SearchControl,
) -> Result<ReducedEntry, ReductionStats> {
    // The dirty components: every vertex reachable from a changed one.
    let mut dirty = vec![false; graph.num_vertices()];
    let mut reached: Vec<VertexId> = changed.iter().copied().collect();
    for &v in &reached {
        dirty[v as usize] = true;
    }
    let mut head = 0;
    while let Some(&v) = reached.get(head) {
        head += 1;
        for &u in graph.neighbors(v) {
            if !dirty[u as usize] {
                dirty[u as usize] = true;
                reached.push(u);
            }
        }
    }

    let sub = induced_subgraph(graph, &reached);
    let original = |v: VertexId| sub.original[v as usize];
    let (reduced_dirty, mut stats, dirty_survivors) =
        apply_reductions_controlled(&sub.graph, params, config, Some(ctrl));
    // Each stage's survivors: the dirty ones from this run, the clean ones from
    // `old`, since their components reduce as they did there. The stage counts
    // follow from them, so they are a from-scratch pipeline's too.
    let stage_survivors: StageSurvivors = (old.stage_survivors.iter().zip(&dirty_survivors))
        .map(|(old_stage, dirty_stage)| {
            let clean = old_stage
                .iter()
                .copied()
                .filter(|&(v, _)| !dirty[v as usize]);
            clean
                .chain(dirty_stage.iter().map(|&(v, d)| (original(v), d)))
                .collect()
        })
        .collect();
    stats.original_vertices = graph.num_vertices();
    stats.original_edges = graph.num_edges();
    for (stage, survivors) in stats.stages.iter_mut().zip(&stage_survivors) {
        stage.vertices = survivors.len();
        stage.edges = survivors.iter().map(|&(_, d)| d as usize).sum::<usize>() / 2;
    }
    let Some(reduced_dirty) = reduced_dirty else {
        return Err(stats);
    };

    // A reduced edge never joins a clean and a dirty vertex, so the clean slice
    // (filtered on `u`) and the dirty run are disjoint sorted lists.
    let edges = merge_sorted(
        old.graph
            .edge_list()
            .iter()
            .copied()
            .filter(|&(u, _)| !dirty[u as usize]),
        reduced_dirty
            .edge_list()
            .iter()
            .map(|&(u, v)| (original(u), original(v))),
    );
    let mut builder = GraphBuilder::with_attributes(graph.attributes().to_vec());
    builder.add_edges(edges);
    let reduced = builder.build().expect("spliced edges stay in range");
    // Components never straddle the clean/dirty line either, so the clean ones
    // are eligible components of the spliced graph as they stand.
    let clean = old
        .components
        .iter()
        .filter(|c| !dirty[c.vertices[0] as usize]);
    let carried = clean.cloned().collect();
    Ok(ReducedEntry::new(
        reduced,
        stats,
        stage_survivors,
        params.k,
        carried,
    ))
}

/// Merges two sorted sequences into one sorted vector.
fn merge_sorted<T: Ord>(a: impl Iterator<Item = T>, b: impl Iterator<Item = T>) -> Vec<T> {
    let mut b = b.peekable();
    let mut merged = Vec::with_capacity(a.size_hint().0 + b.size_hint().0);
    for x in a {
        while let Some(y) = b.next_if(|y| *y < x) {
            merged.push(y);
        }
        merged.push(x);
    }
    merged.extend(b);
    merged
}

/// Publishes one commit's splice decisions into the global metrics registry and onto
/// the commit's trace span.
fn flush_commit_metrics(mut span: rfc_obs::trace::Span, outcome: &CommitOutcome) {
    span.counter("ops", outcome.ops as u64);
    span.counter("changed_vertices", outcome.changed_vertices as u64);
    span.counter("reductions_kept", outcome.reductions_kept as u64);
    span.counter(
        "reductions_invalidated",
        outcome.reductions_invalidated as u64,
    );
    let m = rfc_obs::metrics::global();
    m.counter("rfc_dynamic_commits_total").inc();
    m.counter("rfc_dynamic_reductions_kept_total")
        .add(outcome.reductions_kept as u64);
    m.counter("rfc_dynamic_reductions_invalidated_total")
        .add(outcome.reductions_invalidated as u64);
}

/// Publishes one dynamic query's per-component cache activity (the delta between two
/// [`CacheStats`] snapshots) as `rfc_dynamic_cache_*{kind=...}` counters.
fn flush_cache_metrics(kind: &str, before: &CacheStats, after: &CacheStats) {
    let m = rfc_obs::metrics::global();
    for (name, delta) in [
        ("hits", after.hits - before.hits),
        ("misses", after.misses - before.misses),
        ("evictions", after.evictions - before.evictions),
    ] {
        if delta > 0 {
            m.counter(&format!(
                "rfc_dynamic_cache_{name}_total{{kind=\"{kind}\"}}"
            ))
            .add(delta);
        }
    }
}

/// Exact search of one component: the shared search phase over its stored graph,
/// on `threads`. Returns the pool's cliques in compact ids, whether the search ran
/// to completion, and its counters.
fn solve_component(
    component: &Arc<Component>,
    params: FairCliqueParams,
    config: &SearchConfig,
    threads: ThreadCount,
    capacity: usize,
    ctrl: &SearchControl,
) -> (Vec<Vec<u32>>, bool, SearchStats) {
    let pool = SharedIncumbent::with_capacity(capacity);
    let config = SearchConfig {
        threads,
        ..config.clone()
    };
    let (graph, ids) = (&component.graph, CliqueIds::Compact);
    let one = std::slice::from_ref(component);
    let stats = search_phase(graph, one, ids, params, &config, &pool, ctrl);
    (pool.into_cliques(), !ctrl.stopped(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::{CollectSink, EnumTermination, LimitSink};
    use crate::portfolio::PortfolioConfig;
    use crate::reduction::apply_reductions;
    use crate::solver::{Budget, CancelToken, Objective, Termination};
    use crate::verify;
    use rfc_graph::fixtures;

    fn serial_query(fairness: FairnessModel) -> Query {
        Query::new(fairness).with_config(SearchConfig::default().with_threads(ThreadCount::Serial))
    }

    /// Sorted vertex sets of everything a solver enumerates.
    fn enumerate_sets_scratch(graph: &AttributedGraph, model: FairnessModel) -> Vec<Vec<VertexId>> {
        let solver = RfcSolver::new(graph.clone());
        let mut sink = CollectSink::new();
        solver
            .enumerate(
                &EnumQuery::new(model).with_threads(ThreadCount::Serial),
                &mut sink,
            )
            .unwrap();
        let mut sets: Vec<Vec<VertexId>> = sink
            .into_cliques()
            .into_iter()
            .map(|c| c.vertices)
            .collect();
        sets.sort();
        sets
    }

    fn enumerate_sets_dynamic(
        solver: &mut DynamicRfcSolver,
        model: FairnessModel,
    ) -> Vec<Vec<VertexId>> {
        let mut sink = CollectSink::new();
        solver
            .enumerate(
                &EnumQuery::new(model).with_threads(ThreadCount::Serial),
                &mut sink,
            )
            .unwrap();
        let mut sets: Vec<Vec<VertexId>> = sink
            .into_cliques()
            .into_iter()
            .map(|c| c.vertices)
            .collect();
        sets.sort();
        sets
    }

    /// Two disjoint balanced cliques (sizes 6 and 8), for component-cache tests.
    fn two_balanced_cliques() -> AttributedGraph {
        let mut b = GraphBuilder::new(14);
        for v in 0..14u32 {
            b.set_attribute(
                v,
                if v % 2 == 0 {
                    Attribute::A
                } else {
                    Attribute::B
                },
            );
        }
        for u in 0..6u32 {
            for v in (u + 1)..6 {
                b.add_edge(u, v);
            }
        }
        for u in 6..14u32 {
            for v in (u + 1)..14 {
                b.add_edge(u, v);
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn every_structural_commit_splices_the_reduced_graph() {
        // For k = 3 the pipeline strips the sparse left side of the Fig. 1 graph —
        // edge (0, 1) is not in R — while the planted clique (edge (6, 7)) survives.
        let mut solver = DynamicRfcSolver::new(fixtures::fig1_graph());
        let query = serial_query(FairnessModel::Relative { k: 3, delta: 1 });
        let first = solver.solve(&query).unwrap();
        assert!(!first.reduction_cache_hit);
        assert_eq!(first.best().unwrap().size(), 7);
        assert!(solver.solve(&query).unwrap().reduction_cache_hit);
        assert_eq!(solver.preprocessing_runs(), 1);

        // A removal outside R still splices. The rebuilt component is the old
        // one's content, so it hits the result cache.
        solver.remove_edge(0, 1).unwrap();
        let outcome = solver.commit();
        assert_eq!(
            (outcome.reductions_kept, outcome.reductions_invalidated),
            (0, 1)
        );
        let spliced = solver.solve(&query).unwrap();
        assert!(!spliced.reduction_cache_hit);
        assert_eq!(solver.preprocessing_runs(), 2);
        assert_eq!(spliced.stats.components_searched, 0);
        assert_eq!(spliced.best().unwrap().size(), 7);
        assert!(solver.solve(&query).unwrap().reduction_cache_hit);

        // A removal inside R splices too, and so does any insertion.
        solver.remove_edge(6, 7).unwrap();
        solver.commit();
        assert!(!solver.solve(&query).unwrap().reduction_cache_hit);
        assert_eq!(solver.preprocessing_runs(), 3);
        solver.insert_edge(0, 1).unwrap();
        solver.commit();
        assert!(!solver.solve(&query).unwrap().reduction_cache_hit);

        // A net-empty (cancelling) commit changes nothing: a current entry stays
        // current, and a stale one stays stale.
        solver.insert_edge(6, 7).unwrap();
        solver.remove_edge(6, 7).unwrap(); // cancels out: no net change
        let cancelled = solver.commit();
        assert_eq!(cancelled.ops, 2);
        assert_eq!(
            (cancelled.reductions_kept, cancelled.reductions_invalidated),
            (1, 0)
        );
        solver.insert_edge(6, 7).unwrap();
        let staled = solver.commit();
        assert_eq!(
            (staled.reductions_kept, staled.reductions_invalidated),
            (0, 1)
        );
        solver.remove_edge(6, 7).unwrap();
        solver.insert_edge(6, 7).unwrap();
        let cancelled = solver.commit();
        assert_eq!(
            (cancelled.reductions_kept, cancelled.reductions_invalidated),
            (0, 1),
            "a no-op commit must keep reporting the entry as stale"
        );
        assert!(!solver.solve(&query).unwrap().reduction_cache_hit);
    }

    #[test]
    fn a_spliced_solve_reports_the_committed_graphs_reduction_stats() {
        let mut solver = DynamicRfcSolver::new(fixtures::fig1_graph());
        let query = serial_query(FairnessModel::Relative { k: 3, delta: 1 });
        solver.solve(&query).unwrap();
        // Edge (0, 1) lies outside the reduced graph.
        solver.remove_edge(0, 1).unwrap();
        solver.commit();
        let dynamic = solver.solve(&query).unwrap().stats.reduction;
        let scratch = RfcSolver::new(solver.graph().clone())
            .solve(&query)
            .unwrap()
            .stats
            .reduction;
        assert_eq!(dynamic.original_edges, 43);
        let counts = |stats: &ReductionStats| {
            let stages = stats.stages.iter().map(|s| (s.stage, s.vertices, s.edges));
            let original = (stats.original_vertices, stats.original_edges);
            (original, stages.collect::<Vec<_>>())
        };
        assert_eq!(counts(&dynamic), counts(&scratch));
    }

    #[test]
    fn the_snapshot_shares_the_reduced_graphs_until_a_structural_commit() {
        let mut solver = DynamicRfcSolver::new(two_balanced_cliques());
        let query = serial_query(FairnessModel::Relative { k: 2, delta: 1 });
        solver.solve(&query).unwrap();
        let snapshot = solver.snapshot();
        let runs = snapshot.preprocessing_runs();
        let raced = snapshot
            .solve_portfolio(&query, &PortfolioConfig::new(2))
            .unwrap();
        assert!(raced.solution.reduction_cache_hit);
        assert_eq!(raced.solution.best().unwrap().size(), 8);
        assert_eq!(solver.snapshot().preprocessing_runs(), runs);

        // A net-empty batch keeps the snapshot; a structural one replaces it.
        solver.commit();
        assert!(Arc::ptr_eq(&snapshot, &solver.snapshot()));
        solver.remove_edge(0, 1).unwrap();
        solver.commit();
        assert!(!Arc::ptr_eq(&snapshot, &solver.snapshot()));
        assert_eq!(snapshot.graph(), &two_balanced_cliques());
    }

    #[test]
    fn solve_and_enumerate_reuse_clean_components() {
        let graph = two_balanced_cliques();
        let model = FairnessModel::Relative { k: 2, delta: 1 };
        let mut solver = DynamicRfcSolver::new(graph.clone());
        let query = serial_query(model);
        let first = solver.solve(&query).unwrap();
        assert_eq!(first.stats.components_searched, 2);
        assert_eq!(first.best().unwrap().size(), 8); // the balanced 8-clique (4 a, 4 b)

        // Both components already cached: a repeat search touches none of them.
        let repeat = solver.solve(&query).unwrap();
        assert_eq!(repeat.stats.components_searched, 0);
        assert_eq!(repeat.best().unwrap().size(), first.best().unwrap().size());

        let before = enumerate_sets_dynamic(&mut solver, model);
        assert_eq!(before, enumerate_sets_scratch(&graph, model));

        // Touch only the small clique: the big component must come from cache.
        solver.remove_edge(0, 1).unwrap();
        let _ = solver.commit();
        let after = solver.solve(&query).unwrap();
        assert_eq!(
            after.stats.components_searched, 1,
            "only the dirty component may be re-searched"
        );
        let scratch = RfcSolver::new(solver.graph().clone());
        assert_eq!(
            after.best().map(|c| c.size()),
            scratch.solve(&query).unwrap().best().map(|c| c.size())
        );
        let sets = enumerate_sets_dynamic(&mut solver, model);
        assert_eq!(sets, enumerate_sets_scratch(solver.graph(), model));
    }

    #[test]
    fn dynamic_matches_scratch_for_all_models_after_updates() {
        let mut solver = DynamicRfcSolver::new(fixtures::fig1_graph());
        solver.remove_vertex(14).unwrap();
        solver
            .insert_edge(0, 14)
            .expect_err("removed vertex rejects edges");
        let fresh = solver.insert_vertex(Attribute::B);
        solver.insert_edge(fresh, 6).unwrap();
        solver.insert_edge(fresh, 7).unwrap();
        solver.insert_edge(fresh, 9).unwrap();
        let _ = solver.commit();
        solver.restore_vertex(14, Attribute::A).unwrap();
        solver.insert_edge(14, fresh).unwrap();
        let _ = solver.commit();
        for model in [
            FairnessModel::Relative { k: 2, delta: 1 },
            FairnessModel::Weak { k: 2 },
            FairnessModel::Strong { k: 2 },
        ] {
            let query = serial_query(model);
            let dynamic = solver.solve(&query).unwrap();
            let scratch = RfcSolver::new(solver.graph().clone())
                .solve(&query)
                .unwrap();
            assert_eq!(
                dynamic.best().map(|c| c.size()),
                scratch.best().map(|c| c.size()),
                "{model}"
            );
            if let Some(best) = dynamic.best() {
                assert!(verify::is_fair_clique_under(
                    solver.graph(),
                    &best.vertices,
                    model
                ));
            }
            assert_eq!(
                enumerate_sets_dynamic(&mut solver, model),
                enumerate_sets_scratch(solver.graph(), model),
                "{model}"
            );
        }
    }

    #[test]
    fn top_k_objective_is_served_incrementally() {
        let mut solver = DynamicRfcSolver::new(fixtures::fig1_graph());
        let query = serial_query(FairnessModel::Relative { k: 3, delta: 1 })
            .with_objective(Objective::TopK(3));
        let dynamic = solver.solve(&query).unwrap();
        let scratch = RfcSolver::new(fixtures::fig1_graph())
            .solve(&query)
            .unwrap();
        let sizes = |s: &Solution| s.cliques.iter().map(|c| c.size()).collect::<Vec<_>>();
        assert_eq!(sizes(&dynamic), sizes(&scratch));
        assert_eq!(sizes(&dynamic), vec![7, 7, 7]);
        let mut sets: Vec<_> = dynamic.cliques.iter().map(|c| c.vertices.clone()).collect();
        sets.dedup();
        assert_eq!(sets.len(), 3, "top-k cliques must be distinct");
        assert!(matches!(
            solver.solve(&query.clone().with_objective(Objective::TopK(0))),
            Err(SolveError::EmptyTopK)
        ));
    }

    #[test]
    fn budget_exhaustion_is_not_cached_and_does_not_leak() {
        let mut solver = DynamicRfcSolver::new(fixtures::fig1_graph());
        let model = FairnessModel::Relative { k: 3, delta: 1 };
        // Heuristic off: otherwise the warm start meets the colorful bound on Fig.1
        // and the node-starved solve is certified Optimal instead of exhausted.
        let mut no_heur = SearchConfig::default().with_threads(ThreadCount::Serial);
        no_heur.use_heuristic = false;
        let starved = Query::new(model)
            .with_config(no_heur)
            .with_budget(Budget::unlimited().with_node_limit(0));
        let partial = solver.solve(&starved).unwrap();
        assert_eq!(partial.termination, Termination::BudgetExhausted);
        assert_eq!(partial.optimality_gap(), Some(7));
        // The partial component result must not have been cached: a later
        // unlimited solve re-searches and finds the exact optimum.
        let full = solver.solve(&serial_query(model)).unwrap();
        assert_eq!(full.termination, Termination::Optimal);
        assert_eq!(full.best().unwrap().size(), 7);
        assert!(full.stats.components_searched >= 1);

        // A query whose components are all cached is answered exactly even under a
        // pre-cancelled token: no budgeted work ran, so the result is Optimal.
        let token = CancelToken::new();
        token.cancel();
        let cached = solver
            .solve(&serial_query(model).with_cancel(token.clone()))
            .unwrap();
        assert_eq!(cached.termination, Termination::Optimal);
        assert_eq!(cached.best().unwrap().size(), 7);
        // On a fresh solver the same token stops the search before any component
        // completes, and nothing poisons the follow-up query.
        let mut fresh = DynamicRfcSolver::new(fixtures::fig1_graph());
        let cancelled = fresh
            .solve(&serial_query(model).with_cancel(token))
            .unwrap();
        assert_eq!(cancelled.termination, Termination::Cancelled);
        let again = fresh.solve(&serial_query(model)).unwrap();
        assert_eq!(again.termination, Termination::Optimal);
        assert_eq!(again.best().unwrap().size(), 7);
    }

    #[test]
    fn commit_outcome_reports_the_batch() {
        let mut solver = DynamicRfcSolver::new(fixtures::fig1_graph());
        assert_eq!(solver.pending_ops(), 0);
        let noop = solver.commit();
        assert_eq!((noop.ops, noop.changed_vertices), (0, 0));
        solver.insert_edge(0, 14).unwrap();
        solver.remove_edge(0, 14).unwrap(); // cancels out
        solver.remove_vertex(5).unwrap();
        assert_eq!(solver.pending_ops(), 3);
        let outcome = solver.commit();
        assert_eq!(outcome.ops, 3);
        assert!(outcome.changed_vertices >= 2);
        assert_eq!(outcome.num_vertices, 15);
        assert_eq!(solver.pending_ops(), 0);
        assert_eq!(solver.commits(), 2);
        // Pending ops are invisible before commit.
        let mut other = DynamicRfcSolver::new(fixtures::fig1_graph());
        other.remove_vertex(14).unwrap();
        assert_eq!(other.graph().degree(14), 7);
        let _ = other.commit();
        assert_eq!(other.graph().degree(14), 0);
    }

    #[test]
    fn rollback_drops_the_pending_batch_and_keeps_committed_tombstones() {
        let mut solver = DynamicRfcSolver::new(fixtures::fig1_graph());
        solver.remove_vertex(14).unwrap();
        let _ = solver.commit();
        let committed = solver.graph().clone();
        // A batch that restores 14 and removes 5, then is thrown away.
        solver.restore_vertex(14, Attribute::A).unwrap();
        solver.remove_vertex(5).unwrap();
        solver.rollback();
        assert_eq!(solver.pending_ops(), 0);
        let outcome = solver.commit();
        assert_eq!((outcome.ops, outcome.changed_vertices), (0, 0));
        assert_eq!(solver.graph(), &committed);
        // 14 is still removed: removing it again fails, restoring it works.
        assert!(solver.remove_vertex(14).is_err());
        solver.restore_vertex(14, Attribute::A).unwrap();
    }

    #[test]
    fn apply_op_streams_through_the_delta_and_commits() {
        let mut solver = DynamicRfcSolver::new(fixtures::fig1_graph());
        assert_eq!(
            solver.apply_op(&UpdateOp::RemoveVertex { v: 14 }).unwrap(),
            None
        );
        let outcome = solver.apply_op(&UpdateOp::Commit).unwrap().unwrap();
        assert_eq!(outcome.ops, 1);
        assert!(solver.apply_op(&UpdateOp::RemoveVertex { v: 14 }).is_err());
    }

    #[test]
    fn emptied_graph_is_infeasible_everywhere() {
        let mut solver = DynamicRfcSolver::new(fixtures::balanced_clique(6));
        for v in 0..6 {
            solver.remove_vertex(v).unwrap();
        }
        let _ = solver.commit();
        assert_eq!(solver.graph().num_edges(), 0);
        let solution = solver
            .solve(&serial_query(FairnessModel::Relative { k: 1, delta: 1 }))
            .unwrap();
        assert_eq!(solution.termination, Termination::Infeasible);
        let mut sink = CollectSink::new();
        let outcome = solver
            .enumerate(
                &EnumQuery::new(FairnessModel::Relative { k: 1, delta: 1 }),
                &mut sink,
            )
            .unwrap();
        assert_eq!(outcome.emitted, 0);
        assert_eq!(outcome.termination, EnumTermination::Complete);
    }

    #[test]
    fn invalid_queries_are_rejected() {
        let mut solver = DynamicRfcSolver::new(fixtures::fig1_graph());
        assert!(matches!(
            solver.solve(&Query::new(FairnessModel::Weak { k: 0 })),
            Err(SolveError::InvalidParams(_))
        ));
        let mut sink = CollectSink::new();
        assert!(solver
            .enumerate(&EnumQuery::new(FairnessModel::Weak { k: 0 }), &mut sink)
            .is_err());
    }

    #[test]
    fn cache_capacity_bounds_the_result_caches() {
        let model = FairnessModel::Relative { k: 2, delta: 1 };
        let mut solver = DynamicRfcSolver::new(two_balanced_cliques()).with_cache_capacity(Some(1));
        assert_eq!(solver.cache_capacity(), Some(1));
        let first = solver.solve(&serial_query(model)).unwrap();
        assert_eq!(first.best().unwrap().size(), 8);
        // Two components were solved but only one result fits: one eviction.
        let stats = solver.cache_stats();
        assert_eq!(stats.solve.len, 1);
        assert_eq!(stats.solve.evictions, 1);
        assert_eq!(stats.solve.misses, 2);
        // The answer stays exact regardless of what was evicted.
        let repeat = solver.solve(&serial_query(model)).unwrap();
        assert_eq!(repeat.best().unwrap().size(), 8);
        assert!(solver.cache_stats().solve.hits >= 1);

        // Unbounding and re-bounding via the setter keeps stats coherent.
        solver.set_cache_capacity(None);
        let _ = solver.solve(&serial_query(model)).unwrap();
        assert_eq!(solver.cache_stats().solve.len, 2);
        solver.set_cache_capacity(Some(1));
        assert_eq!(solver.cache_stats().solve.len, 1);
    }

    #[test]
    fn identical_components_at_different_vertices_keep_their_own_results() {
        // Two balanced 6-cliques with equal compact graphs, on ids 0..6 and 6..12.
        let mut b = GraphBuilder::new(12);
        for u in 0..12u32 {
            b.set_attribute(u, [Attribute::A, Attribute::B][(u % 2) as usize]);
            b.add_edges((u + 1..(u / 6 + 1) * 6).map(|v| (u, v)));
        }
        let mut solver = DynamicRfcSolver::new(b.build().unwrap());
        let query = serial_query(FairnessModel::Relative { k: 2, delta: 1 });
        let first = solver.solve(&query).unwrap();
        assert_eq!(first.stats.components_searched, 2);
        assert_eq!(solver.cache_stats().solve.len, 2);
        let repeat = solver.solve(&query).unwrap();
        assert_eq!(repeat.stats.components_searched, 0);
        assert_eq!(repeat.cliques, first.cliques);
        assert_eq!(first.best().unwrap().vertices, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn a_reduced_graph_a_snapshot_query_built_keeps_the_clean_results() {
        // A portfolio on the snapshot builds the committed graph's reduced graph
        // without the splice: its clean components are new `Arc`s holding the old
        // graphs, and their cached results still serve the next plain query.
        let query = serial_query(FairnessModel::Relative { k: 3, delta: 1 });
        for seed in [17, 18, 42] {
            let mut solver = DynamicRfcSolver::new(four_blobs(seed));
            let first = solver.solve(&query).unwrap();
            assert_eq!(first.stats.components_searched, 4, "seed {seed}");
            // Edge (0, 1) lies in the first blob's planted 8-clique.
            solver.remove_edge(0, 1).unwrap();
            solver.commit();
            let portfolio = PortfolioConfig::new(2);
            let raced = solver.snapshot().solve_portfolio(&query, &portfolio);
            assert!(!raced.unwrap().solution.reduction_cache_hit);
            let solved = solver.solve(&query).unwrap();
            assert!(solved.reduction_cache_hit);
            assert_eq!(solved.stats.components_searched, 1, "seed {seed}");
            let scratch = RfcSolver::new(solver.graph().clone()).solve(&query);
            let size = |s: &Solution| s.best().map(|c| c.size());
            assert_eq!(size(&solved), size(&scratch.unwrap()), "seed {seed}");
        }
    }

    #[test]
    fn a_commit_keeps_the_reduced_graph_the_caches_were_checked_against() {
        // A portfolio builds the reduced graph of a commit no plain query has read,
        // and a second commit follows. The caches still hold the 8-clique's pool,
        // checked against the graph before both commits, so the next query must
        // check them against that graph, not the portfolio's.
        let mut solver = DynamicRfcSolver::new(two_balanced_cliques());
        let query = serial_query(FairnessModel::Relative { k: 2, delta: 1 });
        assert_eq!(solver.solve(&query).unwrap().best().unwrap().size(), 8);
        solver.remove_edge(6, 7).unwrap();
        solver.commit();
        let portfolio = PortfolioConfig::new(2);
        let raced = solver.snapshot().solve_portfolio(&query, &portfolio);
        assert_eq!(raced.unwrap().solution.best().unwrap().size(), 7);
        solver.remove_edge(0, 1).unwrap();
        solver.commit();
        let solved = solver.solve(&query).unwrap();
        assert_eq!(solved.best().unwrap().size(), 7);
        let scratch = RfcSolver::new(solver.graph().clone());
        assert_eq!(solved.cliques, scratch.solve(&query).unwrap().cliques);
        assert_eq!(solved.stats.components_searched, 2);
    }

    /// One SplitMix64 step, for seeded inputs without a dev-dependency.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Four disjoint blobs on consecutive ids (40, 50, 60 and 70 vertices). A path
    /// keeps each connected, random edges fill it, its first 20 ids form a dense
    /// community, and a balanced 8-clique on its first 8 ids survives every
    /// reduction at k = 3.
    fn four_blobs(seed: u64) -> AttributedGraph {
        let mut state = seed;
        let mut b = GraphBuilder::new(220);
        let mut lo = 0u32;
        for size in [40u32, 50, 60, 70] {
            let mut draw = |bound: u32| (splitmix(&mut state) % u64::from(bound)) as u32;
            for v in lo..lo + size {
                let attr = [Attribute::A, Attribute::B][draw(2) as usize];
                b.set_attribute(v, attr);
            }
            for v in lo + 1..lo + size {
                b.add_edge(v - 1, v);
            }
            for _ in 0..3 * size {
                b.add_edge(lo + draw(size), lo + draw(size));
            }
            for u in lo..lo + 20 {
                for v in u + 1..lo + 20 {
                    if draw(4) != 0 {
                        b.add_edge(u, v);
                    }
                }
            }
            for u in lo..lo + 8 {
                b.set_attribute(u, [Attribute::A, Attribute::B][(u % 2) as usize]);
                b.add_edges((u + 1..lo + 8).map(|v| (u, v)));
            }
            lo += size;
        }
        b.build().unwrap()
    }

    /// The current reduced entry for `key`.
    fn current(solver: &DynamicRfcSolver, key: &ReductionKey) -> Arc<ReducedEntry> {
        solver
            .solver
            .cached(key)
            .expect("the entry was not spliced")
    }

    /// The splice as a whole-graph construction: label the components of `graph`,
    /// reduce the ones holding a changed vertex in the full vertex space, and
    /// rebuild the union with the clean slice of `old` through the sorting
    /// builder. Returns that graph and the dirty mask.
    fn full_space_splice(
        graph: &AttributedGraph,
        old: &ReducedEntry,
        changed: &BTreeSet<VertexId>,
        params: FairCliqueParams,
        config: &ReductionConfig,
    ) -> (AttributedGraph, Vec<bool>) {
        let comps = rfc_graph::components::connected_components(graph);
        let mut dirty_comp = vec![false; comps.num_components];
        for &v in changed {
            dirty_comp[comps.labels[v as usize] as usize] = true;
        }
        let dirty: Vec<bool> = comps
            .labels
            .iter()
            .map(|&l| dirty_comp[l as usize])
            .collect();
        let dirty_sub = rfc_graph::subgraph::vertex_filtered_subgraph(graph, &dirty);
        let (reduced_dirty, _) = apply_reductions(&dirty_sub, params, config);
        let clean = old.graph.edge_list().iter().copied();
        let mut b = GraphBuilder::with_attributes(graph.attributes().to_vec());
        b.add_edges(reduced_dirty.edge_list().iter().copied());
        b.add_edges(clean.filter(|&(u, _)| !dirty[u as usize]));
        (b.build().unwrap(), dirty)
    }

    /// Runs a seeded churn inside the first blob of `four_blobs(seed)`, querying
    /// after every one or two commits, and checks that each round splices once and
    /// matches the full-space construction: the same reduced graph, a reduced
    /// graph and stage counts equal to a from-scratch reduction's, the components
    /// of a fresh decomposition of it in their order, and the clean components
    /// carried over pointer-equal. Returns the solve and enumerate cache hits and
    /// misses.
    fn check_splices(seed: u64) -> (u64, u64, u64, u64) {
        let mut solver = DynamicRfcSolver::new(four_blobs(seed));
        let model = FairnessModel::Relative { k: 3, delta: 1 };
        let query = serial_query(model);
        let params = FairCliqueParams::new(3, 0).unwrap();
        let key: ReductionKey = (3, ReductionConfig::default());
        let enumerate = |solver: &mut DynamicRfcSolver| enumerate_sets_dynamic(solver, model);
        solver.solve(&query).unwrap();
        enumerate(&mut solver);
        // Seeded churn inside the first blob (ids 0..40 plus appended vertices
        // attached to it); some rounds commit twice before the next query.
        let mut state = seed ^ 0x5eed;
        let (mut splices, mut carried) = (0, 0);
        for round in 0..40u32 {
            let (old, snapshot) = (current(&solver, &key), solver.snapshot());
            let runs = solver.preprocessing_runs();
            let mut changed = BTreeSet::new();
            for _ in 0..1 + round % 3 / 2 {
                for _ in 0..1 + splitmix(&mut state) % 6 {
                    let mut draw = |bound: u64| (splitmix(&mut state) % bound) as VertexId;
                    // Edges mostly land in the dense community (ids 0..20).
                    let (u, v) = (draw(40), draw(20));
                    let attr = [Attribute::A, Attribute::B][draw(2) as usize];
                    match draw(10) {
                        0..=4 => {
                            if u != v && solver.insert_edge(u, v).is_err() {
                                let _ = solver.remove_edge(u, v);
                            }
                        }
                        5 | 6 => {
                            let _ = solver.remove_vertex(u);
                        }
                        7 | 8 => {
                            let _ = solver.restore_vertex(u, attr);
                        }
                        _ => {
                            let fresh = solver.insert_vertex(attr);
                            let _ = solver.insert_edge(fresh, u);
                            let _ = solver.insert_edge(fresh, v);
                        }
                    }
                }
                changed.extend(solver.delta.changed_vertices());
                solver.commit();
            }
            solver.solve(&query).unwrap();
            enumerate(&mut solver);
            let reduced = current(&solver, &key);
            let (components, old_components) = (&reduced.components, &old.components);
            // Every structural commit splices; a net-empty round keeps the solver.
            let spliced = !Arc::ptr_eq(&snapshot, &solver.snapshot());
            assert_eq!(solver.preprocessing_runs(), runs + usize::from(spliced));
            splices += usize::from(spliced);
            let (graph, dirty) = full_space_splice(solver.graph(), &old, &changed, params, &key.1);
            assert_eq!(reduced.graph, graph, "round {round}");
            let (scratch, scratch_stats) = apply_reductions(solver.graph(), params, &key.1);
            assert_eq!(
                reduced.graph, scratch,
                "round {round}: not the from-scratch reduction"
            );
            let counts = |stats: &ReductionStats| {
                let stages = stats.stages.iter().map(|s| (s.vertices, s.edges));
                (stats.original_edges, stages.collect::<Vec<_>>())
            };
            assert_eq!(
                counts(&reduced.stats),
                counts(&scratch_stats),
                "round {round}"
            );
            let fresh =
                ReducedEntry::new(graph, Default::default(), Vec::new(), params.k, Vec::new());
            assert_eq!(components.len(), fresh.components.len(), "round {round}");
            for (got, want) in components.iter().zip(&fresh.components) {
                assert_eq!(got.vertices, want.vertices, "round {round}");
                assert_eq!(got.graph, want.graph, "round {round}");
            }
            for before in old_components
                .iter()
                .filter(|c| !dirty[c.vertices[0] as usize])
            {
                let after = components
                    .iter()
                    .find(|c| c.vertices == before.vertices)
                    .expect("a clean component survives its splice");
                assert!(Arc::ptr_eq(after, before), "round {round}");
                carried += 1;
            }
        }
        assert!(
            splices >= 15 && carried >= 3 * splices,
            "{splices} {carried}"
        );
        let stats = solver.cache_stats();
        (
            stats.solve.hits,
            stats.solve.misses,
            stats.enumerate.hits,
            stats.enumerate.misses,
        )
    }

    #[test]
    fn splices_match_the_full_space_construction_and_keep_clean_keys() {
        // The counts are those of the splice that rebuilt every component from its
        // content; carrying the clean keys over must not move them.
        for (seed, counts) in [
            (17, (131, 18, 131, 18)),
            (18, (130, 19, 130, 19)),
            (42, (136, 22, 136, 22)),
        ] {
            assert_eq!(check_splices(seed), counts, "seed {seed}");
        }
    }

    /// The library's serial sequence of every maximal fair clique of `graph`.
    fn library_sequence(graph: &AttributedGraph, query: &EnumQuery) -> Vec<FairClique> {
        let mut sink = CollectSink::new();
        RfcSolver::new(graph.clone())
            .enumerate(query, &mut sink)
            .unwrap();
        sink.into_cliques()
    }

    #[test]
    fn a_limited_enumeration_searches_what_it_streams_and_caches_the_prefix() {
        let graph = four_blobs(17);
        let model = FairnessModel::Relative { k: 3, delta: 1 };
        let query = EnumQuery::new(model).with_threads(ThreadCount::Serial);
        let library = library_sequence(&graph, &query);
        assert!(library.len() > 5);
        // The blob a clique lies in (blobs start at ids 0, 40, 90 and 150).
        let blob =
            |clique: &FairClique| [40, 90, 150].partition_point(|&lo| lo <= clique.vertices[0]);
        let mut solver = DynamicRfcSolver::new(graph);
        for (run, limit) in [Some(2), Some(5), None, None].into_iter().enumerate() {
            let mut collect = CollectSink::new();
            let outcome = match limit {
                Some(n) => solver.enumerate(&query, &mut LimitSink::new(&mut collect, n)),
                None => solver.enumerate(&query, &mut collect),
            };
            let searched = outcome.unwrap().stats.components_searched;
            let n = limit.map_or(library.len(), |n| n as usize);
            assert_eq!(collect.cliques(), &library[..n], "run {run}");
            match run {
                0 => {
                    let mut blobs: Vec<usize> = library[..2].iter().map(blob).collect();
                    blobs.dedup();
                    assert_eq!(searched, blobs.len());
                }
                3 => assert_eq!(searched, 0),
                _ => {}
            }
        }
    }

    #[test]
    fn a_node_limited_enumeration_is_resumed_to_the_full_sequence() {
        let graph = four_blobs(18);
        let query = EnumQuery::new(FairnessModel::Relative { k: 3, delta: 1 })
            .with_threads(ThreadCount::Serial);
        let library = library_sequence(&graph, &query);
        let mut cut_mid_sequence = 0;
        for nodes in [10, 100, 1_000, 10_000] {
            let mut solver = DynamicRfcSolver::new(graph.clone());
            let limited = query
                .clone()
                .with_budget(Budget::unlimited().with_node_limit(nodes));
            let mut first = CollectSink::new();
            let outcome = solver.enumerate(&limited, &mut first).unwrap();
            assert_eq!(first.cliques(), &library[..first.len()], "{nodes} nodes");
            if outcome.termination == EnumTermination::BudgetExhausted && !first.is_empty() {
                cut_mid_sequence += 1;
            }
            let mut rest = CollectSink::new();
            solver.enumerate(&query, &mut rest).unwrap();
            assert_eq!(rest.cliques(), &library[..], "{nodes} nodes");
        }
        assert!(
            cut_mid_sequence > 0,
            "no node limit stopped a run mid-sequence"
        );
    }

    #[test]
    fn prefixes_recorded_on_any_thread_count_resume_on_any_other() {
        let graph = four_blobs(42);
        let query = EnumQuery::new(FairnessModel::Relative { k: 3, delta: 1 });
        let library = library_sequence(&graph, &query.clone().with_threads(ThreadCount::Serial));
        let sets = |cliques: &[FairClique]| {
            let mut sets: Vec<_> = cliques.iter().map(|c| c.vertices.clone()).collect();
            sets.sort();
            sets
        };
        let (serial, two) = (ThreadCount::Serial, ThreadCount::Fixed(2));
        for (first, then) in [(two, serial), (serial, two), (two, two)] {
            let mut solver = DynamicRfcSolver::new(graph.clone());
            let limited = query.clone().with_threads(first);
            let mut head = CollectSink::new();
            let outcome = solver.enumerate(&limited, &mut LimitSink::new(&mut head, 3));
            assert_eq!(outcome.unwrap().termination, EnumTermination::SinkStopped);
            let mut all = CollectSink::new();
            solver
                .enumerate(&query.clone().with_threads(then), &mut all)
                .unwrap();
            if then == serial {
                assert_eq!(all.cliques(), &library[..], "{first:?} then {then:?}");
            } else {
                assert_eq!(
                    sets(all.cliques()),
                    sets(&library),
                    "{first:?} then {then:?}"
                );
            }
        }
    }

    #[test]
    fn dynamic_solver_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<DynamicRfcSolver>();
    }
}
