//! Scale-tier solver entry points: solve / heuristic / enumerate directly from a
//! [`GraphStore`] (typically a disk-backed [`DiskCsr`](rfc_graph::disk::DiskCsr)).
//!
//! [`ScaleSolver::from_store`] runs the out-of-core fair-core peel
//! ([`reduction::streaming`](crate::reduction::streaming)) against the store,
//! extracts the surviving subgraph as a compact in-memory residual, and builds an
//! ordinary [`RfcSolver`] on it. Everything downstream — exact reductions, bounds,
//! heuristic, branch-and-bound, enumeration — is the unchanged in-memory machinery;
//! the store is never touched again after construction, and peak resident graph
//! memory is bounded by the residual (see [`ScaleSolver::residual_resident_bytes`]).
//!
//! Results are translated back to **store vertex ids** before they are returned,
//! so callers never see residual coordinates.

use std::io;

use rfc_graph::store::GraphStore;
use rfc_graph::{AttributedGraph, VertexId};

use crate::enumerate::{CliqueSink, EnumOutcome, EnumQuery, SinkFlow};
use crate::heuristic::HeuristicOutcome;
use crate::problem::FairClique;
use crate::reduction::streaming::{
    extract_residual, fair_core_peel_controlled, PeelStats, Residual,
};
use crate::search::control::{SearchControl, StopReason};
use crate::solver::{Budget, CancelToken, Query, RfcSolver, Solution, SolveError};

/// Errors from scale-tier solving.
#[derive(Debug)]
pub enum ScaleError {
    /// I/O against the backing store failed.
    Io(io::Error),
    /// The inner solve failed (invalid parameters, …).
    Solve(SolveError),
    /// The query's `k` is smaller than the `k` the store was peeled at, so the
    /// peel may have removed vertices the query still needs.
    KBelowPeel {
        /// `k` of the query's fairness model.
        query_k: usize,
        /// `k` the peel ran with.
        peel_k: usize,
    },
    /// The construction budget ran out during the out-of-core peel / extraction
    /// (see [`ScaleSolver::from_store_budgeted`]). No partial state is kept: a
    /// partial peel over-approximates the survivor set and must not be solved on.
    BudgetExhausted,
    /// The cancel token fired during the out-of-core peel / extraction.
    Cancelled,
}

impl std::fmt::Display for ScaleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScaleError::Io(e) => write!(f, "store I/O error: {e}"),
            ScaleError::Solve(e) => write!(f, "{e}"),
            ScaleError::KBelowPeel { query_k, peel_k } => write!(
                f,
                "query k={query_k} is below the peel k={peel_k}: rebuild the \
                 ScaleSolver with k<={query_k}"
            ),
            ScaleError::BudgetExhausted => {
                write!(f, "time budget exhausted during the out-of-core peel")
            }
            ScaleError::Cancelled => write!(f, "cancelled during the out-of-core peel"),
        }
    }
}

impl std::error::Error for ScaleError {}

impl From<io::Error> for ScaleError {
    fn from(e: io::Error) -> Self {
        ScaleError::Io(e)
    }
}

impl From<SolveError> for ScaleError {
    fn from(e: SolveError) -> Self {
        ScaleError::Solve(e)
    }
}

/// Counters for the store → residual phase of a [`ScaleSolver`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleStats {
    /// Vertices in the backing store.
    pub store_vertices: usize,
    /// Edges in the backing store.
    pub store_edges: usize,
    /// The out-of-core peel.
    pub peel: PeelStats,
    /// Wall-clock time of residual extraction, in microseconds.
    pub extract_micros: u64,
    /// Vertices in the extracted residual.
    pub residual_vertices: usize,
    /// Edges in the extracted residual.
    pub residual_edges: usize,
    /// Adjacency bytes the backing store served from disk while peeling and
    /// extracting (0 for in-memory or resident-mode stores).
    pub disk_read_bytes: u64,
}

/// A solver for graphs that live in a [`GraphStore`]: out-of-core peel once at
/// construction, then in-memory solving on the residual with results mapped back
/// to store ids.
#[derive(Debug)]
pub struct ScaleSolver {
    solver: RfcSolver,
    vertex_map: Vec<VertexId>,
    peel_k: usize,
    stats: ScaleStats,
}

impl ScaleSolver {
    /// Peels the store at parameter `k` (sound for every fairness model with the
    /// same or larger `k`) and builds the in-memory solver on the residual.
    pub fn from_store<S: GraphStore + ?Sized>(store: &S, k: usize) -> io::Result<Self> {
        match Self::from_store_budgeted(store, k, &Budget::unlimited(), None) {
            Ok(solver) => Ok(solver),
            Err(ScaleError::Io(e)) => Err(e),
            Err(other) => unreachable!("unlimited construction cannot fail with {other}"),
        }
    }

    /// [`from_store`](Self::from_store) under a [`Budget`] / [`CancelToken`]: the
    /// out-of-core peel checks the control between waves (and every few thousand
    /// cascade reads), and extraction is gated on it too, so a `.rfcg` solve with a
    /// time limit stays cancellable during its most expensive phase.
    ///
    /// A trip returns [`ScaleError::BudgetExhausted`] / [`ScaleError::Cancelled`]
    /// with no partial solver: a half-finished peel over-approximates the survivor
    /// set and would silently weaken every later reduction if kept. Only the
    /// budget's `time_limit` applies here — `node_limit` counts branch nodes, which
    /// construction has none of.
    pub fn from_store_budgeted<S: GraphStore + ?Sized>(
        store: &S,
        k: usize,
        budget: &Budget,
        cancel: Option<CancelToken>,
    ) -> Result<Self, ScaleError> {
        let ctrl = SearchControl::new(budget, cancel);
        let stop = |ctrl: &SearchControl| match ctrl.stop_reason() {
            Some(StopReason::Cancelled) => ScaleError::Cancelled,
            _ => ScaleError::BudgetExhausted,
        };
        let peel = {
            let mut span = rfc_obs::trace::span("scale/peel");
            let Some(peel) = fair_core_peel_controlled(store, k, Some(&ctrl))? else {
                return Err(stop(&ctrl));
            };
            span.counter("rounds", peel.stats.rounds);
            span.counter("cascade_reads", peel.stats.cascade_reads);
            span.counter("survivors", peel.stats.surviving_vertices as u64);
            peel
        };
        if ctrl.check_now() {
            return Err(stop(&ctrl));
        }
        let t = std::time::Instant::now();
        let (graph, vertex_map) = {
            let mut span = rfc_obs::trace::span("scale/extract");
            let Residual { graph, vertex_map } = extract_residual(store, &peel.alive)?;
            span.counter("vertices", graph.num_vertices() as u64);
            span.counter("edges", graph.num_edges() as u64);
            (graph, vertex_map)
        };
        let extract_micros = t.elapsed().as_micros() as u64;
        let stats = ScaleStats {
            store_vertices: store.num_vertices(),
            store_edges: store.num_edges(),
            peel: peel.stats,
            extract_micros,
            residual_vertices: graph.num_vertices(),
            residual_edges: graph.num_edges(),
            disk_read_bytes: store.disk_bytes_read(),
        };
        flush_scale_metrics(&stats);
        Ok(Self {
            solver: RfcSolver::new(graph),
            vertex_map,
            peel_k: k,
            stats,
        })
    }

    /// The residual graph the in-memory machinery operates on (residual ids).
    pub fn residual(&self) -> &AttributedGraph {
        self.solver.graph()
    }

    /// `vertex_map[residual_id] = store_id`.
    pub fn vertex_map(&self) -> &[VertexId] {
        &self.vertex_map
    }

    /// The `k` the store was peeled at; queries must use `k` at least this large.
    pub fn peel_k(&self) -> usize {
        self.peel_k
    }

    /// Counters for the store → residual phase.
    pub fn stats(&self) -> &ScaleStats {
        &self.stats
    }

    /// Resident bytes of the residual graph — the peak resident *graph* memory of
    /// everything downstream of the peel (counters during the peel add ~9 bytes
    /// per store vertex on top).
    pub fn residual_resident_bytes(&self) -> usize {
        self.solver.graph().resident_bytes()
    }

    fn check_k(&self, query_k: usize) -> Result<(), ScaleError> {
        if query_k < self.peel_k {
            return Err(ScaleError::KBelowPeel {
                query_k,
                peel_k: self.peel_k,
            });
        }
        Ok(())
    }

    fn remap_clique(&self, clique: FairClique) -> FairClique {
        let mut vertices: Vec<VertexId> = clique
            .vertices
            .iter()
            .map(|&v| self.vertex_map[v as usize])
            .collect();
        vertices.sort_unstable();
        FairClique {
            vertices,
            counts: clique.counts,
        }
    }

    /// Solves the query on the residual and maps the resulting cliques back to
    /// store ids.
    pub fn solve(&self, query: &Query) -> Result<Solution, ScaleError> {
        self.check_k(query.fairness.k())?;
        let mut solution = self.solver.solve(query)?;
        solution.cliques = solution
            .cliques
            .into_iter()
            .map(|c| self.remap_clique(c))
            .collect();
        Ok(solution)
    }

    /// Races a configuration portfolio on the residual (see
    /// [`portfolio`](crate::portfolio)), with the resulting cliques mapped back to
    /// store ids.
    pub fn solve_portfolio(
        &self,
        query: &Query,
        portfolio: &crate::portfolio::PortfolioConfig,
    ) -> Result<crate::portfolio::PortfolioOutcome, ScaleError> {
        self.check_k(query.fairness.k())?;
        let mut outcome = self.solver.solve_portfolio(query, portfolio)?;
        outcome.solution.cliques = outcome
            .solution
            .cliques
            .into_iter()
            .map(|c| self.remap_clique(c))
            .collect();
        Ok(outcome)
    }

    /// Runs the `HeurRFC` heuristic on the residual, result in store ids.
    pub fn heuristic(&self, query: &Query) -> Result<HeuristicOutcome, ScaleError> {
        self.check_k(query.fairness.k())?;
        let mut outcome = self.solver.heuristic(query)?;
        outcome.best = outcome.best.map(|c| self.remap_clique(c));
        Ok(outcome)
    }

    /// Enumerates maximal fair cliques on the residual, emitting each to `sink`
    /// in store ids.
    pub fn enumerate(
        &self,
        query: &EnumQuery,
        sink: &mut dyn CliqueSink,
    ) -> Result<EnumOutcome, ScaleError> {
        self.check_k(query.fairness.k())?;
        let mut remapping =
            |clique: FairClique| -> SinkFlow { sink.emit(self.remap_clique(clique)) };
        Ok(self.solver.enumerate(query, &mut remapping)?)
    }
}

/// Publishes one store → residual pass into the global metrics registry.
fn flush_scale_metrics(stats: &ScaleStats) {
    let reg = rfc_obs::metrics::global();
    reg.counter("rfc_scale_peels_total").inc();
    reg.counter("rfc_scale_peel_rounds_total")
        .add(stats.peel.rounds);
    reg.counter("rfc_scale_cascade_reads_total")
        .add(stats.peel.cascade_reads);
    reg.counter("rfc_scale_disk_read_bytes_total")
        .add(stats.disk_read_bytes);
    reg.gauge("rfc_scale_residual_vertices")
        .set(stats.residual_vertices as i64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::CollectSink;
    use crate::problem::FairnessModel;
    use rfc_graph::fixtures;

    #[test]
    fn scale_solver_matches_direct_solver_on_fig1() {
        let g = fixtures::fig1_graph();
        let direct = RfcSolver::new(g.clone());
        let scale = ScaleSolver::from_store(&g, 3).unwrap();
        let query = Query::new(FairnessModel::Relative { k: 3, delta: 1 });
        let a = direct.solve(&query).unwrap();
        let b = scale.solve(&query).unwrap();
        assert_eq!(a.termination, b.termination);
        let va = a.best().unwrap().vertices.clone();
        let vb = b.best().unwrap().vertices.clone();
        assert_eq!(va.len(), vb.len());
        // Same size and both are verified fair cliques of g; ids are store ids.
        for &v in &vb {
            assert!((v as usize) < g.num_vertices());
        }
        assert_eq!(a.best().unwrap().counts, b.best().unwrap().counts);
    }

    #[test]
    fn scale_solver_enumeration_remaps_to_store_ids() {
        let g = fixtures::fig1_graph();
        let direct = RfcSolver::new(g.clone());
        let scale = ScaleSolver::from_store(&g, 2).unwrap();
        let query = EnumQuery::new(FairnessModel::Relative { k: 2, delta: 1 });
        let mut a = CollectSink::new();
        direct.enumerate(&query, &mut a).unwrap();
        let mut b = CollectSink::new();
        scale.enumerate(&query, &mut b).unwrap();
        let norm = |s: &CollectSink| {
            let mut v: Vec<Vec<VertexId>> =
                s.cliques().iter().map(|c| c.vertices.clone()).collect();
            v.sort();
            v
        };
        assert_eq!(norm(&a), norm(&b));
    }

    #[test]
    fn k_below_peel_is_rejected() {
        let g = fixtures::fig1_graph();
        let scale = ScaleSolver::from_store(&g, 3).unwrap();
        let query = Query::new(FairnessModel::Relative { k: 2, delta: 1 });
        assert!(matches!(
            scale.solve(&query),
            Err(ScaleError::KBelowPeel {
                query_k: 2,
                peel_k: 3
            })
        ));
    }
}
