//! Fairness-aware **maximal fair clique enumeration** — the set-valued counterpart of
//! the single-answer `MaxRFC` search.
//!
//! A *maximal fair clique* under a [`FairnessModel`] is a clique that satisfies the
//! model's fairness constraint and has **no fair proper superset** that is also a
//! clique (exactly [`verify::is_maximal_fair_clique_under`](crate::verify::is_maximal_fair_clique_under)).
//! Note that this is *not* the same as "maximal clique that happens to be fair": under
//! the relative and strong models a fair clique can be maximal-fair while strictly
//! inside a larger (unfair) clique, and conversely a fair clique nested in a larger
//! fair clique is never maximal.
//!
//! ## Algorithm
//!
//! The engine runs one pivot-aware Bron–Kerbosch-style recursion per eligible
//! connected component of the solver's cached *reduced* graph, over the dense
//! [`BitMatrix`] adjacency of the component (the same representation the
//! branch-and-bound uses), with vertices relabeled by their degeneracy rank. Each node
//! carries `(R, P, X)` — the current clique, the not-yet-branched common neighbors,
//! and the already-branched common neighbors — and `P ∪ X` is always exactly the
//! common neighborhood of `R`, so maximality is decided locally.
//!
//! Whether classic pivoting is sound depends on the fairness model:
//!
//! * When fairness is **monotone** on the component (the weak model, or a relative `δ`
//!   at least the component size, where the imbalance constraint can never bind),
//!   every fair clique extends to a fair maximal clique, so maximal fair cliques are
//!   precisely the maximal cliques with enough vertices of each attribute. The engine
//!   then runs classic Bron–Kerbosch **with pivoting** and emits a maximal clique iff
//!   it is fair.
//! * Under a **binding `δ`** (relative / strong models) pivoting is unsound: a
//!   maximal fair clique may consist entirely of neighbors of the pivot — its
//!   superset-with-the-pivot is a clique but not a *fair* one, so the classic
//!   exchange argument fails. The engine instead walks the full fairness-feasible
//!   clique lattice and emits `R` whenever it is fair and no clique drawn from
//!   `P ∪ X` extends it fairly (an explicit bitset search, typically over a tiny
//!   candidate set).
//!
//! Both modes share the fairness-aware pruning family: a branch is cut when `R ∪ P`
//! cannot reach `k` vertices of some attribute (by raw counts *and* by distinct
//! colors of a proper coloring — any clique picks pairwise-distinct colors), when the
//! committed imbalance can no longer be repaired by the remaining candidates, or when
//! `|R| + |P|` (again capped by candidate colors) cannot reach the minimum size.
//!
//! ## Streaming, budgets, parallelism
//!
//! Results stream through a [`CliqueSink`] as the recursion finds them —
//! million-clique runs never buffer the result set. The engine honors the solver's
//! [`Budget`] / [`CancelToken`] machinery: a stopped run returns a
//! non-[`Complete`](EnumTermination::Complete) outcome, and every clique emitted
//! before the stop is still a verified maximal fair clique (the emission test is
//! local, so early termination only loses cliques, it never corrupts them). A stop
//! only ends emission, so a stopped component has emitted a prefix of its order.
//!
//! One loop walks the components for the library, the dynamic solver, the CLI and
//! the daemon. Each component first replays the prefix of its order that the
//! dynamic solver's cache holds (the library keeps none); then, unless that prefix
//! is complete and while the budget allows, its enumerator runs, skips the cliques
//! the prefix holds and streams the rest, which the dynamic solver caches. Replays
//! ignore the budget.
//!
//! With one worker ([`ThreadCount::Serial`]) the emission order is deterministic:
//! components in discovery order, each looked up when the loop reaches it, and
//! within a component the depth-first order of the recursion over
//! degeneracy-ranked candidates. The components are the reduced graph's eligible
//! components for the model's `2k`, filtered by size for a larger `min_size`, so
//! the library, the dynamic solver and the daemon all emit one sequence. With more
//! workers every component is looked up first. When none needs fresh work, the
//! calling thread replays them in that serial order; otherwise the components fan
//! out largest-first, the branch-and-bound's dispatch order, to a work-stealing
//! pool whose worker 0 is a coordinator thread, and emissions funnel through a
//! bounded channel to the calling thread, so the sink itself never needs locking.
//! The coordinator exists because the calling thread owns the sink and must drain
//! that channel while workers block on it. The emitted *set* is identical, the
//! order is not.

use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Instant;

use rfc_graph::bitset::{BitMatrix, Bitset};
use rfc_graph::coloring::greedy_coloring;
use rfc_graph::{Attribute, AttributeCounts, AttributedGraph, VertexId};

use crate::cache::LruCache;
use crate::dynamic::ComponentKey;
use crate::problem::{FairClique, FairCliqueParams, FairnessModel};
use crate::reduction::{ReductionConfig, ReductionStats};
use crate::search::control::SearchControl;
use crate::search::parallel::{canonical_order, largest_first};
use crate::search::steal;
use crate::search::{BranchOrder, Ranked, ThreadCount};
use crate::solver::{Budget, CancelToken, Component, Enumerated, ReducedEntry};

/// Tells the enumeration engine whether to keep going after an emission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkFlow {
    /// Keep enumerating.
    Continue,
    /// Stop the enumeration: the sink has everything it wants. The clique passed to
    /// the returning [`CliqueSink::emit`] call counts as consumed.
    Stop,
}

/// A streaming consumer of maximal fair cliques.
///
/// [`RfcSolver::enumerate`](crate::solver::RfcSolver::enumerate) calls
/// [`emit`](CliqueSink::emit) once per maximal fair clique found; the sink decides
/// what to do with it (collect, count, keep the top N, serialize, …) and whether the
/// enumeration should continue. Any `FnMut(FairClique) -> SinkFlow` closure is a
/// sink.
pub trait CliqueSink {
    /// Consumes one maximal fair clique; the returned [`SinkFlow`] can stop the run.
    fn emit(&mut self, clique: FairClique) -> SinkFlow;
}

impl<F: FnMut(FairClique) -> SinkFlow> CliqueSink for F {
    fn emit(&mut self, clique: FairClique) -> SinkFlow {
        self(clique)
    }
}

/// Collects every emitted clique into a vector (in emission order).
#[derive(Debug, Default)]
pub struct CollectSink {
    cliques: Vec<FairClique>,
}

impl CollectSink {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// The cliques collected so far, in emission order.
    pub fn cliques(&self) -> &[FairClique] {
        &self.cliques
    }

    /// Number of cliques collected so far.
    pub fn len(&self) -> usize {
        self.cliques.len()
    }

    /// Whether nothing has been collected.
    pub fn is_empty(&self) -> bool {
        self.cliques.is_empty()
    }

    /// Consumes the sink, returning the collected cliques in emission order.
    pub fn into_cliques(self) -> Vec<FairClique> {
        self.cliques
    }
}

impl CliqueSink for CollectSink {
    fn emit(&mut self, clique: FairClique) -> SinkFlow {
        self.cliques.push(clique);
        SinkFlow::Continue
    }
}

/// Counts emitted cliques (and tracks the largest size) without storing them —
/// constant memory no matter how many cliques the graph has.
#[derive(Debug, Default)]
pub struct CountSink {
    count: u64,
    largest: usize,
}

impl CountSink {
    /// A zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cliques emitted so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Size of the largest clique emitted so far (0 before the first emission).
    pub fn largest(&self) -> usize {
        self.largest
    }
}

impl CliqueSink for CountSink {
    fn emit(&mut self, clique: FairClique) -> SinkFlow {
        self.count += 1;
        self.largest = self.largest.max(clique.size());
        SinkFlow::Continue
    }
}

/// Keeps only the `n` canonically first cliques seen so far, in `O(n)` memory:
/// size descending, then the lexicographically smallest sorted vertex ids, the
/// order a top-k solve ranks its pool by. The kept set does not depend on emission
/// order, so a parallel enumeration keeps the same cliques as a serial one.
#[derive(Debug)]
pub struct TopNSink {
    capacity: usize,
    cliques: Vec<FairClique>,
}

impl TopNSink {
    /// A sink keeping the `n` largest cliques (`n` is clamped to at least 1).
    pub fn new(n: usize) -> Self {
        Self {
            capacity: n.max(1),
            cliques: Vec::new(),
        }
    }

    /// The current top cliques, largest first.
    pub fn cliques(&self) -> &[FairClique] {
        &self.cliques
    }

    /// Consumes the sink, returning the top cliques, largest first.
    pub fn into_cliques(self) -> Vec<FairClique> {
        self.cliques
    }
}

impl CliqueSink for TopNSink {
    fn emit(&mut self, clique: FairClique) -> SinkFlow {
        let at = self.cliques.partition_point(|c| {
            let (kept, new) = (c.vertices.iter().copied(), clique.vertices.iter().copied());
            canonical_order(kept, new).is_lt()
        });
        if at < self.capacity {
            self.cliques.insert(at, clique);
            self.cliques.truncate(self.capacity);
        }
        SinkFlow::Continue
    }
}

/// Caps another sink at a fixed number of emissions, then stops the run — the engine
/// behind `maxfairclique enumerate --limit N`.
pub struct LimitSink<'a> {
    inner: &'a mut dyn CliqueSink,
    remaining: u64,
}

impl std::fmt::Debug for LimitSink<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LimitSink")
            .field("remaining", &self.remaining)
            .finish_non_exhaustive()
    }
}

impl<'a> LimitSink<'a> {
    /// Wraps `inner`, forwarding at most `limit` cliques.
    ///
    /// # Panics
    /// Panics if `limit` is 0, which the engine could not report truly: it counts a
    /// clique as emitted before the sink can refuse it.
    pub fn new(inner: &'a mut dyn CliqueSink, limit: u64) -> Self {
        assert!(limit >= 1, "a LimitSink forwards at least one clique");
        Self {
            inner,
            remaining: limit,
        }
    }

    /// How many more cliques will be forwarded before the sink stops the run.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }
}

impl CliqueSink for LimitSink<'_> {
    fn emit(&mut self, clique: FairClique) -> SinkFlow {
        if self.remaining == 0 {
            return SinkFlow::Stop;
        }
        self.remaining -= 1;
        match self.inner.emit(clique) {
            SinkFlow::Stop => SinkFlow::Stop,
            SinkFlow::Continue if self.remaining == 0 => SinkFlow::Stop,
            SinkFlow::Continue => SinkFlow::Continue,
        }
    }
}

/// Writes one JSON object per clique (JSON Lines) to any [`Write`] target, treating a
/// closed pipe as a polite request to stop rather than an error.
///
/// Each line looks like
/// `{"size":7,"count_a":4,"count_b":3,"vertices":[6,7,9,10,11,12,13]}`.
/// A [`BrokenPipe`](io::ErrorKind::BrokenPipe) write error sets
/// [`pipe_closed`](JsonlSink::pipe_closed) and stops the enumeration cleanly
/// (`maxfairclique enumerate --format jsonl | head` must not panic); any other write
/// error also stops the run and is reported by [`finish`](JsonlSink::finish).
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    writer: W,
    written: u64,
    pipe_closed: bool,
    error: Option<io::Error>,
}

impl<W: Write> JsonlSink<W> {
    /// A sink writing JSON lines to `writer` (wrap large outputs in a
    /// [`BufWriter`](io::BufWriter)).
    pub fn new(writer: W) -> Self {
        Self {
            writer,
            written: 0,
            pipe_closed: false,
            error: None,
        }
    }

    /// Number of lines successfully written.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Whether the consumer closed the pipe (a clean early exit, not an error).
    pub fn pipe_closed(&self) -> bool {
        self.pipe_closed
    }

    /// Flushes and returns the writer, or the first genuine write error (a closed
    /// pipe is not one).
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(error) = self.error {
            return Err(error);
        }
        match self.writer.flush() {
            Ok(()) => Ok(self.writer),
            Err(e) if e.kind() == io::ErrorKind::BrokenPipe => Ok(self.writer),
            Err(e) => Err(e),
        }
    }

    fn record(&mut self, error: io::Error) {
        if error.kind() == io::ErrorKind::BrokenPipe {
            self.pipe_closed = true;
        } else {
            self.error = Some(error);
        }
    }
}

/// Renders the JSONL line for one clique (without the trailing newline).
pub fn clique_json(clique: &FairClique) -> String {
    use std::fmt::Write as _;
    let mut line = String::with_capacity(56 + 8 * clique.size());
    let _ = write!(
        line,
        "{{\"size\":{},\"count_a\":{},\"count_b\":{},\"vertices\":[",
        clique.size(),
        clique.counts.a(),
        clique.counts.b()
    );
    for (i, v) in clique.vertices.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        let _ = write!(line, "{v}");
    }
    line.push_str("]}");
    line
}

impl<W: Write> CliqueSink for JsonlSink<W> {
    fn emit(&mut self, clique: FairClique) -> SinkFlow {
        if self.pipe_closed || self.error.is_some() {
            return SinkFlow::Stop;
        }
        let mut line = clique_json(&clique);
        line.push('\n');
        match self.writer.write_all(line.as_bytes()) {
            Ok(()) => {
                self.written += 1;
                SinkFlow::Continue
            }
            Err(e) => {
                self.record(e);
                SinkFlow::Stop
            }
        }
    }
}

/// One enumeration request for
/// [`RfcSolver::enumerate`](crate::solver::RfcSolver::enumerate).
#[derive(Debug, Clone, Default)]
pub struct EnumQuery {
    /// Which fairness model defines "fair" (and therefore "maximal fair").
    pub fairness: FairnessModel,
    /// Emit only cliques with at least this many vertices (`0` = no extra filter; the
    /// model's own floor of `2k` always applies). Maximality is still judged against
    /// *all* fair cliques, so this filters and prunes without changing what counts as
    /// maximal.
    pub min_size: usize,
    /// Time/node limits for the enumeration phase.
    pub budget: Budget,
    /// Optional cooperative cancellation handle.
    pub cancel: Option<CancelToken>,
    /// Which reduction stages shrink the graph first (shares the solver's reduced
    /// graph cache with [`solve`](crate::solver::RfcSolver::solve) queries of the
    /// same `k`).
    pub reductions: ReductionConfig,
    /// How many worker threads enumerate components. [`ThreadCount::Serial`] gives
    /// the deterministic emission order documented in the [module docs](self).
    pub threads: ThreadCount,
}

impl EnumQuery {
    /// An unbudgeted, unfiltered, default-threaded query for the given model.
    pub fn new(fairness: FairnessModel) -> Self {
        Self {
            fairness,
            ..Self::default()
        }
    }

    /// Returns this query with a minimum emitted-clique size.
    pub fn with_min_size(mut self, min_size: usize) -> Self {
        self.min_size = min_size;
        self
    }

    /// Returns this query with a budget.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Returns this query carrying (a clone of) the given cancellation token.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Returns this query with a reduction configuration.
    pub fn with_reductions(mut self, reductions: ReductionConfig) -> Self {
        self.reductions = reductions;
        self
    }

    /// Returns this query with a thread count.
    pub fn with_threads(mut self, threads: ThreadCount) -> Self {
        self.threads = threads;
        self
    }
}

/// How an enumeration run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnumTermination {
    /// Every maximal fair clique (meeting the size filter) was emitted.
    Complete,
    /// The sink asked to stop (e.g. a [`LimitSink`] reached its cap): the emitted
    /// cliques are a correct but possibly incomplete subset.
    SinkStopped,
    /// The time or node budget ran out: ditto.
    BudgetExhausted,
    /// The query's [`CancelToken`] fired: ditto.
    Cancelled,
}

impl EnumTermination {
    /// Whether the run provably emitted the complete set.
    pub fn is_complete(&self) -> bool {
        matches!(self, EnumTermination::Complete)
    }
}

/// Counters describing one enumeration run.
///
/// Parallel workers accumulate their own stats which are merged with the
/// [`AddAssign`](std::ops::AddAssign) below; like the search counters, the per-branch
/// numbers of a multi-threaded run depend on scheduling and may vary between runs,
/// while [`ThreadCount::Serial`] runs are fully reproducible.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EnumStats {
    /// Statistics of the (possibly cached) reduction pipeline.
    pub reduction: ReductionStats,
    /// Number of recursion nodes visited.
    pub branches: u64,
    /// Branches cut because `R ∪ P` cannot reach `k` vertices of some attribute or
    /// the committed imbalance can no longer be repaired (raw attribute counts).
    pub feasibility_prunes: u64,
    /// Branches cut because `|R| + |P|` cannot reach the minimum size.
    pub bound_prunes: u64,
    /// Branches cut by the colorful refinements of the two prunes above (distinct
    /// candidate colors instead of raw counts).
    pub colorful_prunes: u64,
    /// Fair cliques that were *not* emitted because a fair extension exists (the
    /// maximality test rejected them).
    pub maximality_rejections: u64,
    /// Number of connected components enumerated.
    pub components_searched: usize,
    /// Wall-clock time of the call, in microseconds. Merging takes the larger of the
    /// two sides, so a parallel run reports real elapsed time — never the sum of its
    /// workers' clocks.
    pub elapsed_micros: u64,
    /// Total CPU busy time across all workers, in microseconds; may legitimately
    /// exceed [`elapsed_micros`](Self::elapsed_micros) on a parallel run.
    pub cpu_micros: u64,
}

impl std::ops::AddAssign<&EnumStats> for EnumStats {
    /// Merges another worker's counters into `self` (sums the branch/prune counters
    /// and the CPU busy time, takes the max of the wall-clock fields; the reduction
    /// stats keep whichever side ran a pipeline, `self`'s winning if both did).
    fn add_assign(&mut self, rhs: &EnumStats) {
        self.branches += rhs.branches;
        self.feasibility_prunes += rhs.feasibility_prunes;
        self.bound_prunes += rhs.bound_prunes;
        self.colorful_prunes += rhs.colorful_prunes;
        self.maximality_rejections += rhs.maximality_rejections;
        self.components_searched += rhs.components_searched;
        self.elapsed_micros = self.elapsed_micros.max(rhs.elapsed_micros);
        self.cpu_micros += rhs.cpu_micros;
        if self.reduction == ReductionStats::default() {
            self.reduction = rhs.reduction.clone();
        }
    }
}

/// The structured result of
/// [`RfcSolver::enumerate`](crate::solver::RfcSolver::enumerate).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnumOutcome {
    /// Number of cliques delivered to the sink. Every one of them is a verified
    /// maximal fair clique regardless of how the run ended.
    pub emitted: u64,
    /// Whether the emitted set is complete ([`EnumTermination::Complete`]) or the run
    /// stopped early (sink, budget, or cancellation).
    pub termination: EnumTermination,
    /// Counters for the run.
    pub stats: EnumStats,
    /// Whether this query reused a reduced graph cached by an earlier query (same `k`
    /// and reduction config).
    pub reduction_cache_hit: bool,
}

/// The resolved enumeration problem, shared by every component of one run.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EnumProblem {
    /// The fairness model (native emission/extension checks).
    pub(crate) model: FairnessModel,
    /// The model resolved to relative parameters (pruning).
    pub(crate) params: FairCliqueParams,
    /// Effective minimum emitted-clique size (at least the model's `2k`).
    pub(crate) min_size: usize,
}

/// The start of one component's emission sequence, in compact ids: all of it when
/// `complete`.
#[derive(Debug)]
pub(crate) struct EnumPrefix {
    pub(crate) cliques: Vec<Vec<VertexId>>,
    pub(crate) complete: bool,
}

/// The dynamic solver's per-component enumeration cache.
pub(crate) type PrefixCache = LruCache<ComponentKey, Arc<EnumPrefix>>;

/// The per-component enumerator: one `(R, P, X)` recursion over the component's
/// bitset adjacency (see the [module docs](self) for the algorithm).
struct ComponentEnum<'a> {
    model: FairnessModel,
    params: FairCliqueParams,
    min_size: usize,
    /// Whether fairness is monotone on this component (classic pivoting is sound).
    pivoting: bool,
    /// `order[rank]` is the compact id of the vertex branched at that rank.
    order: Vec<VertexId>,
    /// Adjacency over ranks.
    adj: BitMatrix,
    /// Ranks whose vertex has attribute `a`.
    attr_a: Bitset,
    /// Attribute per rank.
    attrs: Vec<Attribute>,
    /// Color per rank (proper greedy coloring of the component).
    colors: Vec<u32>,
    /// Scratch for distinct-color counting, one slot per color and attribute.
    stamp_a: Vec<u64>,
    stamp_b: Vec<u64>,
    stamp_token: u64,
    /// Current clique, as ranks.
    r: Vec<usize>,
    ctrl: &'a SearchControl,
    /// Raised (by this component or any other) once the sink asks to stop.
    sink_stop: &'a AtomicBool,
    stats: EnumStats,
}

impl<'a> ComponentEnum<'a> {
    /// Builds the enumerator of one eligible component, emitting cliques in its
    /// compact ids.
    fn new(
        component: &Component,
        problem: EnumProblem,
        ctrl: &'a SearchControl,
        sink_stop: &'a AtomicBool,
    ) -> Self {
        let EnumProblem {
            model,
            params,
            min_size,
        } = problem;
        let graph = &component.graph;
        let n = graph.num_vertices();
        let Ranked {
            order, adj, attr_a, ..
        } = Ranked::new(graph, BranchOrder::Degeneracy);
        let attrs = order.iter().map(|&v| graph.attribute(v)).collect();
        let coloring = greedy_coloring(graph);
        let colors = order.iter().map(|&v| coloring.color(v)).collect();
        // Fairness is monotone iff the imbalance constraint can never bind within
        // this component (the weak model resolves to δ ≥ |G| ≥ n).
        let pivoting = params.delta >= n;
        Self {
            model,
            params,
            min_size,
            pivoting,
            order,
            adj,
            attr_a,
            attrs,
            colors,
            stamp_a: vec![0; coloring.num_colors.max(1)],
            stamp_b: vec![0; coloring.num_colors.max(1)],
            stamp_token: 0,
            r: Vec::new(),
            ctrl,
            sink_stop,
            stats: EnumStats::default(),
        }
    }

    fn run(&mut self, emit: &mut dyn FnMut(Vec<VertexId>) -> SinkFlow) {
        let n = self.adj.order();
        let root = Bitset::full(n);
        let empty = Bitset::new(n);
        self.branch(AttributeCounts::new(), &root, &empty, emit);
    }

    /// Distinct colors among the candidate set, split by attribute. Any clique drawn
    /// from `cand` uses pairwise-distinct colors, so these cap how many candidates of
    /// each attribute one clique can absorb.
    fn distinct_colors(&mut self, cand: &Bitset) -> (usize, usize) {
        self.stamp_token += 1;
        let token = self.stamp_token;
        let (mut colors_a, mut colors_b) = (0usize, 0usize);
        for rank in cand.iter() {
            let color = self.colors[rank] as usize;
            match self.attrs[rank] {
                Attribute::A => {
                    if self.stamp_a[color] != token {
                        self.stamp_a[color] = token;
                        colors_a += 1;
                    }
                }
                Attribute::B => {
                    if self.stamp_b[color] != token {
                        self.stamp_b[color] = token;
                        colors_b += 1;
                    }
                }
            }
        }
        (colors_a, colors_b)
    }

    /// Whether some non-empty clique within `cand` (every member adjacent to all of
    /// `R`) extends `counts` to a set the model calls fair — the maximality test.
    fn has_fair_extension(&self, counts: AttributeCounts, cand: &Bitset) -> bool {
        if cand.is_empty() {
            return false;
        }
        // This search can go deep on dense candidate sets, so budgets and
        // cancellation must stay responsive inside it too: its recursion levels
        // count as nodes, and a stopped run answers "has an extension" so the
        // pending emission is suppressed rather than risked unverified.
        if self.ctrl.on_node() || self.sink_stop.load(Ordering::Relaxed) {
            return true;
        }
        // No subset of `cand` can repair a count below k or an irreparable imbalance.
        let cand_a = cand.intersection_count(self.attr_a.words());
        let cand_b = cand.count() - cand_a;
        let (a, b) = (counts.a(), counts.b());
        if a + cand_a < self.params.k || b + cand_b < self.params.k {
            return false;
        }
        if a > b + cand_b + self.params.delta || b > a + cand_a + self.params.delta {
            return false;
        }
        let mut rest = cand.clone();
        while let Some(rank) = rest.first_set() {
            rest.remove(rank);
            let mut extended = counts;
            extended.add(self.attrs[rank]);
            if self.model.is_fair(extended) {
                return true;
            }
            if self.has_fair_extension(extended, &rest.intersection_with(self.adj.row(rank))) {
                return true;
            }
        }
        false
    }

    fn should_stop(&self) -> bool {
        self.ctrl.stopped() || self.sink_stop.load(Ordering::Relaxed)
    }

    fn branch(
        &mut self,
        counts: AttributeCounts,
        cand: &Bitset,
        excl: &Bitset,
        emit: &mut dyn FnMut(Vec<VertexId>) -> SinkFlow,
    ) {
        if self.ctrl.on_node() || self.sink_stop.load(Ordering::Relaxed) {
            return;
        }
        self.stats.branches += 1;

        // Emission test: R is fair, big enough, and no clique within its common
        // neighborhood (exactly P ∪ X) extends it fairly.
        if self.r.len() >= self.min_size && self.model.is_fair(counts) {
            if self.has_fair_extension(counts, &cand.union_with(excl.words())) {
                self.stats.maximality_rejections += 1;
            } else {
                let clique: Vec<VertexId> = self.r.iter().map(|&rank| self.order[rank]).collect();
                if emit(clique) == SinkFlow::Stop {
                    self.sink_stop.store(true, Ordering::Relaxed);
                    return;
                }
            }
        }

        let cand_total = cand.count();
        if cand_total == 0 {
            return;
        }

        // Fairness-aware subtree pruning: every descendant is R ∪ S for a non-empty
        // clique S ⊆ P, so reachability caps on (counts, size) are sound cuts.
        let cand_a = cand.intersection_count(self.attr_a.words());
        let cand_b = cand_total - cand_a;
        let (a, b) = (counts.a(), counts.b());
        if a + cand_a < self.params.k || b + cand_b < self.params.k {
            self.stats.feasibility_prunes += 1;
            return;
        }
        if a > b + cand_b + self.params.delta || b > a + cand_a + self.params.delta {
            self.stats.feasibility_prunes += 1;
            return;
        }
        if self.r.len() + cand_total < self.min_size {
            self.stats.bound_prunes += 1;
            return;
        }
        // Colorful refinement: a clique picks pairwise-distinct colors, so distinct
        // candidate colors per attribute bound the reachable counts more tightly.
        let (colors_a, colors_b) = self.distinct_colors(cand);
        if a + colors_a < self.params.k || b + colors_b < self.params.k {
            self.stats.colorful_prunes += 1;
            return;
        }
        if a > b + colors_b + self.params.delta || b > a + colors_a + self.params.delta {
            self.stats.colorful_prunes += 1;
            return;
        }
        if self.r.len() + colors_a + colors_b < self.min_size {
            self.stats.colorful_prunes += 1;
            return;
        }

        // Branch set: everything, or (pivot mode) only the pivot's non-neighbors.
        let branch_set = if self.pivoting {
            match self.choose_pivot(cand, excl) {
                Some(pivot) => cand.difference_with(self.adj.row(pivot)),
                None => cand.clone(),
            }
        } else {
            cand.clone()
        };

        let mut cand = cand.clone();
        let mut excl = excl.clone();
        for rank in branch_set.iter() {
            if self.should_stop() {
                return;
            }
            cand.remove(rank);
            let child_cand = cand.intersection_with(self.adj.row(rank));
            let child_excl = excl.intersection_with(self.adj.row(rank));
            let mut next_counts = counts;
            next_counts.add(self.attrs[rank]);
            self.r.push(rank);
            self.branch(next_counts, &child_cand, &child_excl, emit);
            self.r.pop();
            excl.insert(rank);
        }
    }

    /// The classic Bron–Kerbosch pivot: the vertex of `P ∪ X` with the most neighbors
    /// in `P` (ties keep the lowest rank, so serial runs are reproducible).
    fn choose_pivot(&self, cand: &Bitset, excl: &Bitset) -> Option<usize> {
        let mut best: Option<(usize, usize)> = None;
        for rank in cand.iter().chain(excl.iter()) {
            let count = cand.intersection_count(self.adj.row(rank));
            if best.map_or(true, |(best_count, _)| count > best_count) {
                best = Some((count, rank));
            }
        }
        best.map(|(_, rank)| rank)
    }
}

/// Streams one component into `emit`, in the reduced graph's ids: its `cached`
/// prefix, then, unless that is complete and while `ctrl` allows, a fresh run
/// that skips the prefix and streams the rest (see the [module docs](self)).
/// `sink_stop` is raised once `emit` asks to stop, and stops this component when
/// another one raised it. Returns the fresh run's stats and, if `record` is set
/// and the run added cliques or finished, the new prefix, `complete` only when
/// neither the sink nor the control stopped the run.
fn stream_component(
    component: &Component,
    cached: Option<&EnumPrefix>,
    record: bool,
    problem: EnumProblem,
    ctrl: &SearchControl,
    sink_stop: &AtomicBool,
    emit: &mut dyn FnMut(Vec<VertexId>) -> SinkFlow,
) -> (EnumStats, Option<EnumPrefix>) {
    let vertices = &component.vertices;
    let ids = |clique: &[VertexId]| clique.iter().map(|&v| vertices[v as usize]).collect();
    let replayed = cached.map_or(&[][..], |prefix| &prefix.cliques);
    for clique in replayed {
        if sink_stop.load(Ordering::Relaxed) || emit(ids(clique)) == SinkFlow::Stop {
            sink_stop.store(true, Ordering::Relaxed);
            return (EnumStats::default(), None);
        }
    }
    let stopped = || ctrl.stopped() || sink_stop.load(Ordering::Relaxed);
    if cached.is_some_and(|prefix| prefix.complete) || stopped() {
        return (EnumStats::default(), None);
    }
    let (mut recorded, mut skip) = (replayed.to_vec(), replayed.iter());
    let mut ce = ComponentEnum::new(component, problem, ctrl, sink_stop);
    ce.run(&mut |clique| {
        if let Some(skipped) = skip.next() {
            debug_assert_eq!(&clique, skipped, "a resumed run re-finds its prefix");
            return SinkFlow::Continue;
        }
        let flow = emit(ids(&clique));
        if record {
            recorded.push(clique);
        }
        flow
    });
    let complete = !stopped();
    debug_assert!(!complete || skip.len() == 0, "prefix left unmatched");
    let grew = recorded.len() > replayed.len();
    let prefix = EnumPrefix {
        cliques: recorded,
        complete,
    };
    ce.stats.components_searched = 1;
    (ce.stats, (record && (complete || grew)).then_some(prefix))
}

/// The one loop of the [module docs](self), below the library's and the dynamic
/// solver's `enumerate`: streams the eligible components of `reduced` that have
/// at least `problem.min_size` vertices into `sink`, each through
/// [`stream_component`] with its prefix from `cache` (the library passes none).
/// The caller owns termination classification and wall-clock accounting.
pub(crate) fn run_enumeration(
    original: &AttributedGraph,
    (reduced, hit): (Arc<ReducedEntry>, bool),
    problem: EnumProblem,
    threads: ThreadCount,
    ctrl: &SearchControl,
    mut cache: Option<&mut PrefixCache>,
    sink: &mut dyn CliqueSink,
) -> Enumerated {
    let mut stats = EnumStats::default();
    // A clique of size ≥ min_size lives in a component of at least min_size
    // vertices; any fair extension that could disqualify an emitted clique is
    // itself larger, so it lies in the same component and maximality judgements
    // are unaffected.
    let components: Vec<&Arc<Component>> = (reduced.components.iter())
        .filter(|c| c.vertices.len() >= problem.min_size)
        .collect();
    let key = |c: &Component| (problem.model, problem.min_size, c.vertices[0]);
    let workers = threads.resolve().min(components.len());
    // Several workers look every component up before dispatch.
    let prefixes: Vec<Option<Arc<EnumPrefix>>> = match workers {
        0 | 1 => Vec::new(),
        _ => (components.iter())
            .map(|c| cache.as_mut()?.get(&key(c)).cloned())
            .collect(),
    };
    let (sink_stop, record) = (AtomicBool::new(false), cache.is_some());
    let stream = |c: &Component, cached: Option<&EnumPrefix>, emit: &mut dyn FnMut(_) -> _| {
        stream_component(c, cached, record, problem, ctrl, &sink_stop, emit)
    };
    let mut emitted = 0u64;

    let complete = |p: &Option<Arc<EnumPrefix>>| p.as_ref().is_some_and(|p| p.complete);
    if prefixes.iter().all(complete) {
        // Deterministic serial path, also when several workers would only replay
        // complete prefixes: components in discovery order, direct emission.
        let busy = Instant::now();
        for (i, &component) in components.iter().enumerate() {
            if sink_stop.load(Ordering::Relaxed) {
                break;
            }
            let cached = (prefixes.get(i).cloned())
                .unwrap_or_else(|| cache.as_mut()?.get(&key(component)).cloned());
            let mut emit = |vertices: Vec<VertexId>| {
                emitted += 1;
                sink.emit(FairClique::from_vertices(original, vertices))
            };
            let (component_stats, prefix) = stream(component, cached.as_deref(), &mut emit);
            stats += &component_stats;
            if let (Some(cache), Some(prefix)) = (cache.as_mut(), prefix) {
                cache.insert(key(component), Arc::new(prefix));
            }
        }
        stats.cpu_micros += busy.elapsed().as_micros() as u64;
    } else {
        // Largest components first so the most expensive enumerations start
        // immediately.
        let mut jobs: Vec<_> = components.into_iter().zip(prefixes).collect();
        jobs.sort_unstable_by_key(|(c, _)| largest_first(c));
        // Bounded channel: a sink slower than the workers applies backpressure
        // (workers block in `send`) instead of buffering an unbounded backlog —
        // million-clique runs stay constant-memory end to end.
        let (tx, rx) = mpsc::sync_channel::<Vec<VertexId>>(256);
        let (merged, recorded) = std::thread::scope(|scope| {
            let stream = &stream;
            // The work-stealing pool blocks until every component is done, so it runs
            // on a coordinator thread, the pool's worker 0, while this thread (the
            // sink's owner) drains the channel; no sink synchronization is ever
            // needed.
            let coordinator = scope.spawn(move || {
                let states: Vec<_> = (0..workers)
                    .map(|_| (EnumStats::default(), tx.clone(), Vec::new()))
                    .collect();
                drop(tx);
                let states = steal::run_pool(workers, jobs, states, |state, _, (c, cached)| {
                    let busy = Instant::now();
                    let (local, tx, recorded) = state;
                    let mut emit = |vertices: Vec<VertexId>| {
                        // A dropped receiver means the run is over.
                        if tx.send(vertices).is_ok() {
                            SinkFlow::Continue
                        } else {
                            SinkFlow::Stop
                        }
                    };
                    let (component_stats, prefix) = stream(c, cached.as_deref(), &mut emit);
                    *local += &component_stats;
                    local.cpu_micros += busy.elapsed().as_micros() as u64;
                    recorded.extend(prefix.map(|prefix| (c, prefix)));
                });
                let mut merged = (EnumStats::default(), Vec::new());
                for (local, _, recorded) in states {
                    merged.0 += &local;
                    merged.1.extend(recorded);
                }
                merged
            });
            for vertices in rx {
                if sink_stop.load(Ordering::Relaxed) {
                    continue; // drain in-flight cliques without delivering them
                }
                emitted += 1;
                if sink.emit(FairClique::from_vertices(original, vertices)) == SinkFlow::Stop {
                    sink_stop.store(true, Ordering::Relaxed);
                }
            }
            coordinator
                .join()
                .expect("enumeration coordinator panicked")
        });
        stats += &merged;
        if let Some(cache) = cache {
            for (c, prefix) in recorded {
                cache.insert(key(c), Arc::new(prefix));
            }
        }
    }

    stats.reduction = reduced.stats.clone();
    Enumerated {
        emitted,
        sink_stopped: sink_stop.load(Ordering::Relaxed),
        stats,
        reduction_cache_hit: hit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::RfcSolver;
    use crate::verify;
    use rfc_graph::fixtures;

    fn fig1_solver() -> RfcSolver {
        RfcSolver::new(fixtures::fig1_graph())
    }

    fn serial(query: EnumQuery) -> EnumQuery {
        query.with_threads(ThreadCount::Serial)
    }

    #[test]
    fn fig1_relative_has_exactly_the_five_fair_seven_subsets() {
        let solver = fig1_solver();
        let model = FairnessModel::Relative { k: 3, delta: 1 };
        let mut sink = CollectSink::new();
        let outcome = solver
            .enumerate(&serial(EnumQuery::new(model)), &mut sink)
            .unwrap();
        assert_eq!(outcome.termination, EnumTermination::Complete);
        assert!(outcome.termination.is_complete());
        assert_eq!(outcome.emitted, 5);
        assert_eq!(sink.len(), 5);
        for clique in sink.cliques() {
            assert_eq!(clique.size(), 7);
            assert_eq!((clique.counts.a(), clique.counts.b()), (4, 3));
            assert!(verify::is_maximal_fair_clique_under(
                solver.graph(),
                &clique.vertices,
                model
            ));
        }
        // No duplicates.
        let mut sets: Vec<_> = sink.cliques().iter().map(|c| c.vertices.clone()).collect();
        sets.sort();
        sets.dedup();
        assert_eq!(sets.len(), 5);
    }

    #[test]
    fn weak_model_emits_fair_maximal_cliques_via_pivoting() {
        let solver = fig1_solver();
        let model = FairnessModel::Weak { k: 3 };
        let mut sink = CollectSink::new();
        let outcome = solver
            .enumerate(&serial(EnumQuery::new(model)), &mut sink)
            .unwrap();
        assert_eq!(outcome.termination, EnumTermination::Complete);
        // Only the planted 8-clique has ≥ 3 of each attribute.
        assert_eq!(outcome.emitted, 1);
        assert_eq!(sink.cliques()[0].size(), 8);
        assert!(verify::is_maximal_fair_clique_under(
            solver.graph(),
            &sink.cliques()[0].vertices,
            model
        ));
    }

    #[test]
    fn strong_model_emits_all_balanced_maximal_cliques() {
        let solver = fig1_solver();
        let model = FairnessModel::Strong { k: 3 };
        let mut sink = CollectSink::new();
        let outcome = solver
            .enumerate(&serial(EnumQuery::new(model)), &mut sink)
            .unwrap();
        assert_eq!(outcome.termination, EnumTermination::Complete);
        // All 3 b's of the planted clique plus any 3 of the 5 a's: C(5,3) = 10.
        assert_eq!(outcome.emitted, 10);
        for clique in sink.cliques() {
            assert_eq!((clique.counts.a(), clique.counts.b()), (3, 3));
            assert!(verify::is_maximal_fair_clique_under(
                solver.graph(),
                &clique.vertices,
                model
            ));
        }
    }

    #[test]
    fn min_size_filters_without_breaking_maximality() {
        let solver = fig1_solver();
        let model = FairnessModel::Relative { k: 1, delta: 1 };
        let mut all = CollectSink::new();
        solver
            .enumerate(&serial(EnumQuery::new(model)), &mut all)
            .unwrap();
        let mut filtered = CollectSink::new();
        solver
            .enumerate(
                &serial(EnumQuery::new(model).with_min_size(7)),
                &mut filtered,
            )
            .unwrap();
        let expected: Vec<_> = all
            .cliques()
            .iter()
            .filter(|c| c.size() >= 7)
            .cloned()
            .collect();
        assert!(!expected.is_empty());
        let mut got = filtered.into_cliques();
        let mut want = expected;
        got.sort_by(|x, y| x.vertices.cmp(&y.vertices));
        want.sort_by(|x, y| x.vertices.cmp(&y.vertices));
        assert_eq!(got, want);
    }

    #[test]
    fn coloring_gate_answers_hopeless_queries_without_preprocessing() {
        let solver = fig1_solver();
        let k = solver.num_colors();
        let mut sink = CountSink::new();
        let outcome = solver
            .enumerate(
                &serial(EnumQuery::new(FairnessModel::Weak { k })),
                &mut sink,
            )
            .unwrap();
        assert_eq!(outcome.termination, EnumTermination::Complete);
        assert_eq!(outcome.emitted, 0);
        assert_eq!(sink.count(), 0);
        assert_eq!(solver.preprocessing_runs(), 0);
    }

    #[test]
    fn invalid_params_are_rejected() {
        let solver = fig1_solver();
        let mut sink = CountSink::new();
        assert!(solver
            .enumerate(&EnumQuery::new(FairnessModel::Weak { k: 0 }), &mut sink)
            .is_err());
    }

    #[test]
    fn enumeration_shares_the_reduction_cache_with_solve() {
        let solver = fig1_solver();
        let solved = solver
            .solve(&crate::solver::Query::new(FairnessModel::Relative {
                k: 3,
                delta: 1,
            }))
            .unwrap();
        assert!(!solved.reduction_cache_hit);
        let mut sink = CountSink::new();
        let outcome = solver
            .enumerate(
                &serial(EnumQuery::new(FairnessModel::Strong { k: 3 })),
                &mut sink,
            )
            .unwrap();
        assert!(
            outcome.reduction_cache_hit,
            "same k must share one pipeline"
        );
        assert_eq!(solver.preprocessing_runs(), 1);
    }

    #[test]
    fn limit_sink_truncates_and_reports_sink_stopped() {
        let solver = fig1_solver();
        let model = FairnessModel::Strong { k: 3 };
        let mut collect = CollectSink::new();
        let mut limited = LimitSink::new(&mut collect, 4);
        assert_eq!(limited.remaining(), 4);
        let outcome = solver
            .enumerate(&serial(EnumQuery::new(model)), &mut limited)
            .unwrap();
        assert_eq!(outcome.termination, EnumTermination::SinkStopped);
        assert_eq!(outcome.emitted, 4);
        assert_eq!(collect.len(), 4);
        for clique in collect.cliques() {
            assert!(verify::is_maximal_fair_clique_under(
                solver.graph(),
                &clique.vertices,
                model
            ));
        }
    }

    #[test]
    #[should_panic(expected = "forwards at least one clique")]
    fn a_limit_sink_of_zero_is_rejected() {
        let mut collect = CollectSink::new();
        LimitSink::new(&mut collect, 0);
    }

    #[test]
    fn budget_exhaustion_is_reported_and_partial_output_verifies() {
        let solver = fig1_solver();
        let model = FairnessModel::Strong { k: 3 };
        let mut sink = CollectSink::new();
        let outcome = solver
            .enumerate(
                &serial(EnumQuery::new(model).with_budget(Budget::unlimited().with_node_limit(10))),
                &mut sink,
            )
            .unwrap();
        assert_eq!(outcome.termination, EnumTermination::BudgetExhausted);
        assert!(!outcome.termination.is_complete());
        assert!(outcome.emitted < 10, "fig1 strong k=3 has 10 cliques");
        for clique in sink.cliques() {
            assert!(verify::is_maximal_fair_clique_under(
                solver.graph(),
                &clique.vertices,
                model
            ));
        }
    }

    #[test]
    fn cancellation_is_reported() {
        let solver = fig1_solver();
        let token = CancelToken::new();
        token.cancel();
        let mut sink = CountSink::new();
        let outcome = solver
            .enumerate(
                &serial(
                    EnumQuery::new(FairnessModel::Relative { k: 3, delta: 1 }).with_cancel(token),
                ),
                &mut sink,
            )
            .unwrap();
        assert_eq!(outcome.termination, EnumTermination::Cancelled);
        assert_eq!(sink.count(), 0);
    }

    #[test]
    fn serial_emission_order_is_reproducible() {
        let solver = fig1_solver();
        let query = serial(EnumQuery::new(FairnessModel::Strong { k: 3 }));
        let mut first = CollectSink::new();
        let first_outcome = solver.enumerate(&query, &mut first).unwrap();
        for _ in 0..2 {
            let mut again = CollectSink::new();
            let outcome = solver.enumerate(&query, &mut again).unwrap();
            assert_eq!(again.cliques(), first.cliques(), "emission order changed");
            assert_eq!(outcome.stats.branches, first_outcome.stats.branches);
            assert_eq!(
                outcome.stats.colorful_prunes,
                first_outcome.stats.colorful_prunes
            );
        }
    }

    #[test]
    fn parallel_enumeration_matches_serial_set() {
        let g = fixtures::two_cliques_with_bridge(8, 6);
        let solver = RfcSolver::new(g);
        let model = FairnessModel::Relative { k: 2, delta: 2 };
        let mut serial_sink = CollectSink::new();
        solver
            .enumerate(&serial(EnumQuery::new(model)), &mut serial_sink)
            .unwrap();
        for threads in [ThreadCount::Fixed(2), ThreadCount::Fixed(4)] {
            let mut par_sink = CollectSink::new();
            let outcome = solver
                .enumerate(&EnumQuery::new(model).with_threads(threads), &mut par_sink)
                .unwrap();
            assert_eq!(outcome.termination, EnumTermination::Complete);
            let mut a: Vec<_> = serial_sink
                .cliques()
                .iter()
                .map(|c| c.vertices.clone())
                .collect();
            let mut b: Vec<_> = par_sink
                .cliques()
                .iter()
                .map(|c| c.vertices.clone())
                .collect();
            a.sort();
            b.sort();
            assert_eq!(a, b, "threads {threads:?}");
        }
    }

    #[test]
    fn top_n_sink_keeps_the_largest() {
        let mut sink = TopNSink::new(2);
        let g = fixtures::balanced_clique(6);
        for size in [2usize, 4, 3, 5] {
            let vertices: Vec<VertexId> = (0..size as VertexId).collect();
            sink.emit(FairClique::from_vertices(&g, vertices));
        }
        let sizes: Vec<usize> = sink.cliques().iter().map(|c| c.size()).collect();
        assert_eq!(sizes, vec![5, 4]);
        assert_eq!(sink.into_cliques().len(), 2);
        // n = 0 is clamped to 1.
        let mut tiny = TopNSink::new(0);
        tiny.emit(FairClique::from_vertices(&g, vec![0, 1]));
        tiny.emit(FairClique::from_vertices(&g, vec![0]));
        assert_eq!(tiny.cliques().len(), 1);
        assert_eq!(tiny.cliques()[0].size(), 2);
    }

    #[test]
    fn top_n_sink_keeps_the_canonically_first_ties_in_any_emission_order() {
        let g = fixtures::balanced_clique(8);
        let cliques = [vec![4, 5, 6], vec![0, 1], vec![1, 2, 3], vec![2, 5, 7]];
        let top = |order: &[usize]| {
            let mut sink = TopNSink::new(2);
            for &i in order {
                sink.emit(FairClique::from_vertices(&g, cliques[i].clone()));
            }
            let kept = sink.into_cliques().into_iter().map(|c| c.vertices);
            kept.collect::<Vec<_>>()
        };
        let expected = vec![vec![1, 2, 3], vec![2, 5, 7]];
        assert_eq!(top(&[0, 1, 2, 3]), expected);
        assert_eq!(top(&[3, 2, 1, 0]), expected);
    }

    #[test]
    fn count_sink_counts_without_storing() {
        let g = fixtures::balanced_clique(5);
        let mut sink = CountSink::new();
        assert_eq!((sink.count(), sink.largest()), (0, 0));
        sink.emit(FairClique::from_vertices(&g, vec![0, 1, 2]));
        sink.emit(FairClique::from_vertices(&g, vec![0, 1]));
        assert_eq!((sink.count(), sink.largest()), (2, 3));
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_clique() {
        let g = fixtures::fig1_graph();
        let mut sink = JsonlSink::new(Vec::new());
        let clique = FairClique::from_vertices(&g, vec![9, 6, 7]);
        assert_eq!(sink.emit(clique), SinkFlow::Continue);
        assert_eq!(sink.written(), 1);
        assert!(!sink.pipe_closed());
        let bytes = sink.finish().unwrap();
        let line = String::from_utf8(bytes).unwrap();
        assert_eq!(
            line,
            "{\"size\":3,\"count_a\":0,\"count_b\":3,\"vertices\":[6,7,9]}\n"
        );
    }

    #[test]
    fn jsonl_sink_turns_broken_pipe_into_a_clean_stop() {
        struct BrokenPipe;
        impl Write for BrokenPipe {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::from(io::ErrorKind::BrokenPipe))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let g = fixtures::balanced_clique(4);
        let mut sink = JsonlSink::new(BrokenPipe);
        assert_eq!(
            sink.emit(FairClique::from_vertices(&g, vec![0, 1])),
            SinkFlow::Stop
        );
        assert!(sink.pipe_closed());
        assert_eq!(sink.written(), 0);
        // Further emissions keep refusing without touching the writer.
        assert_eq!(
            sink.emit(FairClique::from_vertices(&g, vec![2, 3])),
            SinkFlow::Stop
        );
        assert!(sink.finish().is_ok(), "a closed pipe is not an error");
    }

    #[test]
    fn closure_sinks_work() {
        let solver = fig1_solver();
        let mut sizes = Vec::new();
        let mut sink = |clique: FairClique| {
            sizes.push(clique.size());
            SinkFlow::Continue
        };
        let outcome = solver
            .enumerate(
                &serial(EnumQuery::new(FairnessModel::Relative { k: 3, delta: 1 })),
                &mut sink,
            )
            .unwrap();
        assert_eq!(outcome.emitted, 5);
        assert_eq!(sizes, vec![7; 5]);
    }

    #[test]
    fn enum_stats_merge_accounts_for_every_counter() {
        // When adding a field to `EnumStats`, extend this test.
        let mut total = EnumStats {
            reduction: ReductionStats {
                original_vertices: 5,
                original_edges: 9,
                stages: Vec::new(),
            },
            branches: 10,
            feasibility_prunes: 1,
            bound_prunes: 2,
            colorful_prunes: 3,
            maximality_rejections: 4,
            components_searched: 1,
            elapsed_micros: 100,
            cpu_micros: 90,
        };
        let worker = EnumStats {
            reduction: ReductionStats::default(),
            branches: 20,
            feasibility_prunes: 5,
            bound_prunes: 6,
            colorful_prunes: 7,
            maximality_rejections: 8,
            components_searched: 2,
            elapsed_micros: 50,
            cpu_micros: 45,
        };
        total += &worker;
        assert_eq!(total.branches, 30);
        assert_eq!(total.feasibility_prunes, 6);
        assert_eq!(total.bound_prunes, 8);
        assert_eq!(total.colorful_prunes, 10);
        assert_eq!(total.maximality_rejections, 12);
        assert_eq!(total.components_searched, 3);
        // Wall-clock takes the max (workers overlap in time); CPU busy time sums.
        assert_eq!(total.elapsed_micros, 100);
        assert_eq!(total.cpu_micros, 135);
        assert_eq!(total.reduction.original_vertices, 5);
        let mut fresh = EnumStats::default();
        fresh += &total;
        assert_eq!(fresh.reduction.original_edges, 9);
    }

    #[test]
    fn query_builder_round_trip() {
        let token = CancelToken::new();
        let query = EnumQuery::new(FairnessModel::Strong { k: 2 })
            .with_min_size(6)
            .with_budget(Budget::unlimited().with_node_limit(7))
            .with_cancel(token)
            .with_reductions(ReductionConfig::core_only())
            .with_threads(ThreadCount::Fixed(3));
        assert_eq!(query.fairness, FairnessModel::Strong { k: 2 });
        assert_eq!(query.min_size, 6);
        assert_eq!(query.budget.node_limit, Some(7));
        assert!(query.cancel.is_some());
        assert_eq!(query.reductions, ReductionConfig::core_only());
        assert_eq!(query.threads, ThreadCount::Fixed(3));
        assert_eq!(EnumQuery::default().min_size, 0);
    }
}
