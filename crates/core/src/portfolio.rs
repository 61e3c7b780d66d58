//! Racing portfolio and anytime engine for budget-bound solves.
//!
//! A single search configuration can be arbitrarily unlucky on a given instance: the
//! branch order explores the wrong subtree first, the chosen extra bound is weak for
//! this structure, or the heuristic warm start misses the large clique. The
//! **portfolio** hedges by racing several diverse exact configurations over one
//! query:
//!
//! * Every member is the full `MaxRFC` pipeline (reduction → heuristic warm start →
//!   branch-and-bound) with its own [`BranchOrder`], extra bound, heuristic seed
//!   count and [`ReductionConfig`], all answering the *same* query. Reduced graphs
//!   preserve the original vertex-id space, so members with different reduction
//!   configs still share one incumbent pool: a clique found by any member
//!   immediately tightens every other member's prunes.
//! * Members hold **linked cancel tokens** ([`CancelToken::child`]): the first member
//!   to run to completion has *proved* the pool's best clique optimal (its own search
//!   was exact and the shared pool only ever holds verified cliques), so it cancels
//!   all of its siblings and the whole portfolio returns early.
//! * The members, and the anytime improver below, are the tasks of one
//!   work-stealing pool, the crate's one fan-out, with one worker per slot and the
//!   calling thread among them, so every slot runs at once. The last exact member
//!   to finish cancels the improver, which otherwise stops only at the deadline.
//! * With [`PortfolioConfig::anytime`], an extra **anytime improver** member runs a
//!   fairness-aware local search (greedy growth, (1,2)-swaps and plateau
//!   (1,1)-swaps over the reduced graph) that keeps tightening the shared incumbent
//!   while the exact members are still branching — exactly the regime where a
//!   budget-bound query would otherwise return a weak best-so-far. Every clique the
//!   improver offers is re-verified against the *original* graph under the query's
//!   fairness model before it may enter the pool.
//!
//! On budget-bound terminations the returned [`Solution`] carries the best colorful
//! upper bound across the members' reduced graphs, so
//! [`Solution::optimality_gap`] is finite whenever at least one member finished its
//! reduction — and a gap of zero is certified back into [`Termination::Optimal`].
//!
//! Budget semantics: the query's [`Budget`](crate::solver::Budget) applies **per
//! member** — the wall-clock deadline is anchored once for the whole portfolio call,
//! but a `node_limit` bounds each member's own branch count (racing `N` solvers means
//! up to `N ×` the node budget in aggregate).
//!
//! ```
//! use rfc_core::prelude::*;
//! use rfc_graph::fixtures;
//!
//! let solver = RfcSolver::new(fixtures::fig1_graph());
//! let query = Query::new(FairnessModel::Relative { k: 3, delta: 1 });
//! let outcome = solver
//!     .solve_portfolio(&query, &PortfolioConfig::new(3))
//!     .unwrap();
//! assert_eq!(outcome.solution.termination, Termination::Optimal);
//! assert_eq!(outcome.solution.best().unwrap().size(), 7);
//! assert_eq!(outcome.solution.optimality_gap(), Some(0));
//! assert_eq!(outcome.members.iter().filter(|m| m.winner).count(), 1);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use rfc_graph::{AttributedGraph, VertexId};

use crate::bounds::{BoundConfig, ExtraBound};
use crate::problem::{FairClique, FairCliqueParams, FairnessModel};
use crate::reduction::ReductionConfig;
use crate::search::control::SearchControl;
use crate::search::parallel::SharedIncumbent;
use crate::search::steal::run_pool;
use crate::search::{BranchOrder, SearchConfig, SearchStats, ThreadCount};
use crate::solver::{
    run_solve, search_phase, search_termination, CancelToken, Query, ReducedEntry, RfcSolver,
    Searched, Solution, SolveError, Termination,
};

/// Configuration of one [`RfcSolver::solve_portfolio`] call.
///
/// The racing members derive their search configurations from the query's own
/// [`SearchConfig`]: member 0 runs it verbatim (so the portfolio never does worse
/// than the single-configuration solve at the same budget), and members 1..n vary
/// the branch order, the extra bound, the heuristic seed count and — from the
/// fourth member on — the reduction pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortfolioConfig {
    /// How many exact racing members to run (clamped to at least 1).
    pub members: usize,
    /// Whether to run the anytime local-search improver as an extra member.
    pub anytime: bool,
    /// Seed for the improver's deterministic pseudo-random move choices.
    pub seed: u64,
}

impl Default for PortfolioConfig {
    /// Four racing members, no anytime improver.
    fn default() -> Self {
        Self {
            members: 4,
            anytime: false,
            seed: 0x5eed_cafe_f00d_u64,
        }
    }
}

impl PortfolioConfig {
    /// A portfolio of `members` racing configurations (clamped to at least 1).
    pub fn new(members: usize) -> Self {
        Self {
            members: members.max(1),
            ..Self::default()
        }
    }

    /// Returns this configuration with the anytime improver switched on or off.
    pub fn with_anytime(mut self, anytime: bool) -> Self {
        self.anytime = anytime;
        self
    }

    /// Returns this configuration with a different improver seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// How one portfolio member fared.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemberReport {
    /// Human-readable description of the member's configuration (`"base"`,
    /// `"degeneracy/colorfulhindex/seeds=1"`, `"anytime"`).
    pub label: String,
    /// How the member's own search ended. Non-winners of a decided race report
    /// [`Termination::Cancelled`] — the winner's proof made their work moot.
    pub termination: Termination,
    /// Branch nodes the member visited (for the anytime improver: local-search moves
    /// evaluated).
    pub branches: u64,
    /// The member's wall-clock running time, in microseconds.
    pub elapsed_micros: u64,
    /// Whether this member was the first to run to completion and thereby decided
    /// the race (cancelling every sibling).
    pub winner: bool,
}

/// The result of [`RfcSolver::solve_portfolio`]: the merged [`Solution`] plus one
/// report per member (the anytime improver, when enabled, is the last entry).
#[derive(Debug, Clone)]
pub struct PortfolioOutcome {
    /// The portfolio's answer. `stats` merges every member's counters
    /// ([`SearchStats`]'s usual merge: counters summed, wall time not).
    pub solution: Solution,
    /// Per-member termination statistics, in member order.
    pub members: Vec<MemberReport>,
}

impl RfcSolver {
    /// Answers one query by racing a portfolio of diverse configurations (see the
    /// [module docs](crate::portfolio) for the full contract).
    ///
    /// Like [`solve`](RfcSolver::solve), errors only on malformed queries; budget
    /// exhaustion and cancellation show up in the solution's [`Termination`].
    pub fn solve_portfolio(
        &self,
        query: &Query,
        portfolio: &PortfolioConfig,
    ) -> Result<PortfolioOutcome, SolveError> {
        solve_portfolio(self, query, portfolio)
    }
}

/// Free-function body of [`RfcSolver::solve_portfolio`].
fn solve_portfolio(
    solver: &RfcSolver,
    query: &Query,
    portfolio: &PortfolioConfig,
) -> Result<PortfolioOutcome, SolveError> {
    let mut reports: Vec<MemberReport> = Vec::new();
    let mut anytime_improvements = 0u64;
    let num_vertices = solver.graph().num_vertices();
    let solution = run_solve(
        "portfolio",
        query,
        num_vertices,
        solver.num_colors(),
        |run, capacity| {
            if run.ctrl.check_now() {
                return Searched::default();
            }
            let searched;
            (searched, reports, anytime_improvements) =
                race(solver, query, portfolio, run.params, capacity);
            run.counter("members", reports.len() as u64);
            let best_size = searched.cliques.first().map_or(0, FairClique::size);
            run.counter("best_size", best_size as u64);
            searched
        },
    )?;

    let m = rfc_obs::metrics::global();
    m.counter("rfc_portfolio_runs_total").inc();
    m.counter("rfc_portfolio_members_total")
        .add(reports.len() as u64);
    m.counter("rfc_portfolio_anytime_improvements_total")
        .add(anytime_improvements);
    m.histogram("rfc_portfolio_elapsed_us")
        .observe(solution.stats.elapsed_micros);
    Ok(PortfolioOutcome {
        solution,
        members: reports,
    })
}

/// What one slot of a race hands back, besides its wall time.
enum Raced {
    /// An exact member: its termination, counters, whether its reduced graph came
    /// from cache, and that reduced graph, if its reduction finished.
    Member(Termination, SearchStats, bool, Option<Arc<ReducedEntry>>),
    /// The anytime improver: moves evaluated and improvements accepted.
    Improver(u64, u64),
}

/// Races the members of one portfolio call over a shared pool. Returns what the
/// query's finish step needs, one report per member, and the anytime improver's
/// accepted improvements.
fn race(
    solver: &RfcSolver,
    query: &Query,
    portfolio: &PortfolioConfig,
    params: FairCliqueParams,
    capacity: usize,
) -> (Searched, Vec<MemberReport>, u64) {
    let members = portfolio.members.max(1);
    // One cancel-token family: the query's token (or a fresh root) parents one child
    // per member, so the winner can cancel its siblings without ever touching the
    // caller's token, while a caller-side cancel still reaches every member.
    let root = query.cancel.clone().unwrap_or_default();
    let slots = members + usize::from(portfolio.anytime);
    let tokens: Vec<CancelToken> = (0..slots).map(|_| root.child()).collect();
    // Every control is anchored here, just after query entry, so the wall-clock
    // budget covers each member's reduction and warm start too.
    let ctrls: Vec<SearchControl> = tokens
        .iter()
        .map(|t| SearchControl::new(&query.budget, Some(t.clone())))
        .collect();

    let configs = member_configs(&query.config, members);
    let pool = SharedIncumbent::with_capacity(capacity);
    let winner = AtomicUsize::new(usize::MAX);
    let running = AtomicUsize::new(members);

    // One pool worker per slot, so every member and the improver run at once.
    let states = (0..slots).map(|_| Vec::new()).collect();
    let raced = run_pool(slots, (0..slots).collect(), states, |done, _, i| {
        let t0 = Instant::now();
        if i == members {
            let mut improver_span = rfc_obs::trace::span("portfolio/anytime");
            let (model, seed) = (query.fairness, portfolio.seed);
            let (moves, improvements) =
                run_improver(solver, model, params, &query.config, &ctrls[i], &pool, seed);
            improver_span.counter("moves", moves);
            improver_span.counter("improvements", improvements);
            let raced = Raced::Improver(moves, improvements);
            done.push((i, raced, t0.elapsed().as_micros() as u64));
            return;
        }
        let mut member_span = rfc_obs::trace::span("portfolio/member");
        let (termination, stats, hit, entry) =
            run_member(solver, params, &configs[i].1, &ctrls[i], &pool);
        if termination.is_complete()
            && winner
                .compare_exchange(usize::MAX, i, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            // First finished proof wins: everything the siblings could still find is
            // already bounded by the pool.
            for (j, token) in tokens.iter().enumerate() {
                if j != i {
                    token.cancel();
                }
            }
            rfc_obs::metrics::global()
                .counter("rfc_portfolio_winner_cancels_total")
                .inc();
        }
        // The improver stops only on cancellation or the wall-clock deadline: once
        // the last exact member is done there is nothing left to prove, so it is
        // stopped even under a pure node-limit budget.
        if running.fetch_sub(1, Ordering::AcqRel) == 1 {
            if let Some(token) = tokens.get(members) {
                token.cancel();
            }
        }
        member_span.counter("member", i as u64);
        member_span.counter("branches", stats.branches);
        let raced = Raced::Member(termination, stats, hit, entry);
        done.push((i, raced, t0.elapsed().as_micros() as u64));
    });
    let mut raced: Vec<_> = raced.into_iter().flatten().collect();
    raced.sort_unstable_by_key(|&(i, ..)| i);

    // Merge member stats (member 0 first, so its reduction stats win) and collect
    // the distinct reduced graphs for the bound computation.
    let mut stats = SearchStats::default();
    let mut entries: Vec<Arc<ReducedEntry>> = Vec::new();
    let mut reports: Vec<MemberReport> = Vec::with_capacity(slots);
    let (mut reduction_cache_hit, mut anytime_improvements) = (false, 0u64);
    let won = winner.load(Ordering::Relaxed);
    for (i, raced, elapsed_micros) in raced {
        let report = match raced {
            Raced::Member(termination, member_stats, hit, entry) => {
                stats += &member_stats;
                reduction_cache_hit |= i == 0 && hit;
                if let Some(entry) = entry {
                    if !entries.iter().any(|e| Arc::ptr_eq(e, &entry)) {
                        entries.push(entry);
                    }
                }
                MemberReport {
                    label: configs[i].0.clone(),
                    termination,
                    branches: member_stats.branches,
                    elapsed_micros,
                    winner: won == i,
                }
            }
            Raced::Improver(moves, improvements) => {
                anytime_improvements = improvements;
                // Force the trip state so the report reflects why the improver
                // stopped (cancelled by the winner or the last member, or an earlier
                // deadline).
                let _ = ctrls[i].check_now();
                MemberReport {
                    label: "anytime".to_string(),
                    termination: search_termination(&ctrls[i], false),
                    branches: moves,
                    elapsed_micros,
                    winner: false,
                }
            }
        };
        reports.push(report);
    }

    let cliques: Vec<FairClique> = pool
        .into_cliques()
        .into_iter()
        .map(|vertices| FairClique::from_vertices(solver.graph(), vertices))
        .collect();
    // The race decides the termination: a winner's proof is exact, otherwise
    // the caller's cancel or the budget stopped every member.
    let termination = if won != usize::MAX {
        if cliques.is_empty() {
            Termination::Infeasible
        } else {
            Termination::Optimal
        }
    } else if query.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
        Termination::Cancelled
    } else {
        Termination::BudgetExhausted
    };
    let searched = Searched {
        cliques,
        stats,
        reduction_cache_hit,
        // No entry means every member was stopped before finishing a reduction: no
        // sound bound.
        reduced: entries,
        termination: Some(termination),
    };
    (searched, reports, anytime_improvements)
}

/// Derives the racing members' configurations from the query's base configuration.
///
/// Member 0 is the base configuration verbatim; later members cycle through branch
/// orders, extra bounds and heuristic seed counts, and from the fourth member on
/// also through reduction pipelines (the first wave shares the base reduction so the
/// race starts on a cache hit). Worker threads are split evenly across members.
fn member_configs(base: &SearchConfig, members: usize) -> Vec<(String, SearchConfig)> {
    let per_member = (base.threads.resolve() / members).max(1);
    let threads = if per_member <= 1 {
        ThreadCount::Serial
    } else {
        ThreadCount::Fixed(per_member)
    };
    let orders = [
        BranchOrder::ColorfulCore,
        BranchOrder::Degeneracy,
        BranchOrder::VertexId,
    ];
    let extras = [
        ExtraBound::ColorfulDegeneracy,
        ExtraBound::ColorfulHIndex,
        ExtraBound::ColorfulPath,
        ExtraBound::HIndex,
        ExtraBound::Degeneracy,
    ];
    let reductions = [
        ReductionConfig::default(),
        ReductionConfig::up_to_colorful_sup(),
        ReductionConfig::core_only(),
    ];
    let seed_counts = [8usize, 1, 16, 4, 32, 2];
    (0..members)
        .map(|i| {
            let mut cfg = base.clone();
            cfg.threads = threads;
            if i == 0 {
                return ("base".to_string(), cfg);
            }
            let extra = extras[i % extras.len()];
            cfg.branch_order = orders[i % orders.len()];
            cfg.bounds = BoundConfig::with_extra(extra);
            cfg.heuristic.seeds = seed_counts[i % seed_counts.len()].max(1);
            if i >= orders.len() {
                cfg.reductions = reductions[i % reductions.len()];
            }
            let label = format!(
                "{:?}/{:?}/seeds={}",
                cfg.branch_order, extra, cfg.heuristic.seeds
            )
            .to_lowercase();
            (label, cfg)
        })
        .collect()
}

/// Runs one exact member: the library's reduce step (shared through the solver's
/// cache), then the search phase into the shared pool.
fn run_member(
    solver: &RfcSolver,
    params: FairCliqueParams,
    cfg: &SearchConfig,
    ctrl: &SearchControl,
    pool: &SharedIncumbent,
) -> (Termination, SearchStats, bool, Option<Arc<ReducedEntry>>) {
    let (stats, hit, reduced) = match solver.reduce(params.k, &cfg.reductions, ctrl) {
        Ok((reduced, hit)) => {
            let (mut stats, _) = search_phase(&reduced, params, cfg, pool, ctrl, |_| false);
            stats.reduction = reduced.stats.clone();
            (stats, hit, Some(reduced))
        }
        Err(reduction) => {
            let stats = SearchStats {
                reduction,
                ..SearchStats::default()
            };
            (stats, false, None)
        }
    };
    let found = pool.best_snapshot().is_some();
    (search_termination(ctrl, found), stats, hit, reduced)
}

/// The anytime improver: a fairness-aware local search over the reduced graph that
/// keeps offering verified improvements into the shared pool until its control trips.
///
/// The working set is always a clique of the reduced graph (growth and swaps only
/// ever add vertices adjacent to everything kept), but it is allowed to be *unfair*
/// between offers — fairness is re-established by the balanced growth policy and
/// checked explicitly (against the **original** graph, under the query's own model)
/// before any offer. Moves are chosen by a seeded deterministic PRNG; the schedule
/// is greedy growth first, then a size-improving (1,2)-swap, then a plateau
/// (1,1)-swap, with a random restart after a stretch of stagnation.
fn run_improver(
    solver: &RfcSolver,
    model: FairnessModel,
    params: FairCliqueParams,
    base: &SearchConfig,
    ctrl: &SearchControl,
    pool: &SharedIncumbent,
    seed: u64,
) -> (u64, u64) {
    let original = solver.graph();
    let Ok((entry, _)) = solver.reduce(params.k, &base.reductions, ctrl) else {
        return (0, 0);
    };
    let g = &entry.graph;
    let active: Vec<VertexId> = g
        .vertices()
        .filter(|&v| g.degree(v) + 1 >= params.min_size())
        .collect();
    if active.is_empty() {
        return (0, 0);
    }

    let mut rng = SplitMix64::new(seed);
    let mut moves = 0u64;
    let mut improvements = 0u64;
    let mut current: Vec<VertexId> = Vec::new();
    let mut stagnation = 0u32;

    while !ctrl.check_now() {
        // Adopt the pool's best whenever the exact members have overtaken us. Its
        // vertices may be isolated in *our* reduced graph (a different member's
        // pipeline produced it); that is sound — this graph's adjacency is an
        // under-approximation of the original's, so moves stay cliques regardless.
        if let Some(best) = pool.best_snapshot() {
            if best.len() > current.len() {
                current = best;
                stagnation = 0;
            }
        }
        if current.is_empty() {
            current.push(active[rng.below(active.len())]);
        }

        let before = current.len();
        grow(g, &mut current, &mut rng, &mut moves);
        let mut progressed = current.len() > before;
        if offer_if_fair(original, model, &current, pool) {
            improvements += 1;
            progressed = true;
        }
        if !progressed {
            if swap_1_2(g, &mut current, &mut rng, &mut moves) {
                grow(g, &mut current, &mut rng, &mut moves);
                if offer_if_fair(original, model, &current, pool) {
                    improvements += 1;
                }
                stagnation = 0;
            } else {
                let _ = plateau_1_1(g, &mut current, &mut rng, &mut moves);
                stagnation += 1;
                if stagnation >= 8 {
                    perturb(&mut current, &active, &mut rng);
                    stagnation = 0;
                }
            }
        } else {
            stagnation = 0;
        }
    }
    (moves, improvements)
}

/// Vertices of `g` adjacent to every vertex of the (sorted) clique, excluding its
/// own members. Scans the sparsest member's neighborhood.
fn extenders(g: &AttributedGraph, clique: &[VertexId]) -> Vec<VertexId> {
    let Some(&pivot) = clique.iter().min_by_key(|&&v| g.degree(v)) else {
        return Vec::new();
    };
    g.neighbors(pivot)
        .iter()
        .copied()
        .filter(|&v| {
            clique.binary_search(&v).is_err()
                && clique.iter().all(|&u| u == pivot || g.has_edge(u, v))
        })
        .collect()
}

/// Greedily grows the clique to maximality, preferring the attribute that is
/// currently scarcer (random choice within the preferred side).
fn grow(g: &AttributedGraph, current: &mut Vec<VertexId>, rng: &mut SplitMix64, moves: &mut u64) {
    loop {
        let ext = extenders(g, current);
        if ext.is_empty() {
            return;
        }
        let counts = g.attribute_counts_of(current);
        let scarce = usize::from(counts.a() > counts.b());
        let preferred: Vec<VertexId> = ext
            .iter()
            .copied()
            .filter(|&v| g.attribute(v).index() == scarce)
            .collect();
        let pick = if preferred.is_empty() {
            ext[rng.below(ext.len())]
        } else {
            preferred[rng.below(preferred.len())]
        };
        let at = current.binary_search(&pick).unwrap_err();
        current.insert(at, pick);
        *moves += 1;
    }
}

/// Tries to trade one clique vertex for two adjacent outsiders (a strict size
/// improvement). The candidate pair scan is capped so a single attempt stays cheap.
fn swap_1_2(
    g: &AttributedGraph,
    current: &mut Vec<VertexId>,
    rng: &mut SplitMix64,
    moves: &mut u64,
) -> bool {
    if current.is_empty() {
        return false;
    }
    let u_at = rng.below(current.len());
    let u = current[u_at];
    let mut rest = current.clone();
    rest.remove(u_at);
    let mut cand: Vec<VertexId> = extenders(g, &rest)
        .into_iter()
        .filter(|&v| v != u)
        .collect();
    const PAIR_SCAN: usize = 24;
    shuffle_prefix(&mut cand, rng, PAIR_SCAN);
    let cap = cand.len().min(PAIR_SCAN);
    for i in 0..cap {
        for j in (i + 1)..cap {
            *moves += 1;
            if g.has_edge(cand[i], cand[j]) {
                rest.push(cand[i]);
                rest.push(cand[j]);
                rest.sort_unstable();
                *current = rest;
                return true;
            }
        }
    }
    false
}

/// Swaps one clique vertex for a different outsider of the same closed
/// neighborhood — a sideways move that relocates the search on a plateau.
fn plateau_1_1(
    g: &AttributedGraph,
    current: &mut Vec<VertexId>,
    rng: &mut SplitMix64,
    moves: &mut u64,
) -> bool {
    if current.is_empty() {
        return false;
    }
    let u_at = rng.below(current.len());
    let u = current[u_at];
    let mut rest = current.clone();
    rest.remove(u_at);
    let cand: Vec<VertexId> = extenders(g, &rest)
        .into_iter()
        .filter(|&v| v != u)
        .collect();
    if cand.is_empty() {
        return false;
    }
    rest.push(cand[rng.below(cand.len())]);
    rest.sort_unstable();
    *current = rest;
    *moves += 1;
    true
}

/// Random restart: keep a random two-thirds of the clique (still a clique) or, when
/// it is already minimal, reseed from a random active vertex.
fn perturb(current: &mut Vec<VertexId>, active: &[VertexId], rng: &mut SplitMix64) {
    if current.len() <= 1 {
        if !active.is_empty() {
            *current = vec![active[rng.below(active.len())]];
        }
        return;
    }
    let keep = (current.len() * 2 / 3).max(1);
    let len = current.len();
    shuffle_prefix(current, rng, len);
    current.truncate(keep);
    current.sort_unstable();
}

/// Offers the working clique into the pool if it can possibly matter and passes the
/// full fairness-plus-clique verification against the original graph.
fn offer_if_fair(
    original: &AttributedGraph,
    model: FairnessModel,
    current: &[VertexId],
    pool: &SharedIncumbent,
) -> bool {
    if current.len() < pool.useful_size() {
        return false;
    }
    if !crate::verify::is_fair_clique_under(original, current, model) {
        return false;
    }
    pool.offer(current.to_vec())
}

/// Partial Fisher–Yates: uniformly randomizes the first `n` slots of `items`.
fn shuffle_prefix(items: &mut [VertexId], rng: &mut SplitMix64, n: usize) {
    let len = items.len();
    for i in 0..n.min(len) {
        let j = i + rng.below(len - i);
        items.swap(i, j);
    }
}

/// SplitMix64: a tiny, deterministic, dependency-free PRNG for move choices.
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        Self(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{Budget, Objective};
    use crate::verify;
    use rfc_graph::fixtures;

    #[test]
    fn portfolio_matches_serial_solve_on_all_models() {
        let solver = RfcSolver::new(fixtures::fig1_graph());
        for fairness in [
            FairnessModel::Relative { k: 3, delta: 1 },
            FairnessModel::Weak { k: 3 },
            FairnessModel::Strong { k: 3 },
        ] {
            let query = Query::new(fairness).with_config(SearchConfig::default());
            let serial = solver.solve(&query).unwrap();
            let outcome = solver
                .solve_portfolio(&query, &PortfolioConfig::new(4))
                .unwrap();
            assert_eq!(outcome.solution.termination, Termination::Optimal);
            assert_eq!(
                outcome.solution.best().unwrap().size(),
                serial.best().unwrap().size(),
                "{fairness}"
            );
            assert_eq!(outcome.solution.optimality_gap(), Some(0));
            assert_eq!(
                outcome.solution.upper_bound,
                Some(outcome.solution.best_size())
            );
            // Exactly one member decided the race.
            assert_eq!(outcome.members.iter().filter(|m| m.winner).count(), 1);
            let winner = outcome.members.iter().find(|m| m.winner).unwrap();
            assert!(winner.termination.is_complete());
            assert_eq!(outcome.members.len(), 4);
            assert!(verify::is_fair_clique_under(
                solver.graph(),
                &outcome.solution.best().unwrap().vertices,
                fairness
            ));
        }
    }

    #[test]
    fn winner_cancels_the_anytime_improver() {
        // The improver never completes on its own: the only way this call can
        // return under an unlimited budget is the winner's cancellation reaching
        // the improver's child token.
        let solver = RfcSolver::new(fixtures::fig1_graph());
        let query = Query::new(FairnessModel::Relative { k: 3, delta: 1 });
        let outcome = solver
            .solve_portfolio(&query, &PortfolioConfig::new(2).with_anytime(true))
            .unwrap();
        assert_eq!(outcome.solution.termination, Termination::Optimal);
        assert_eq!(outcome.members.len(), 3);
        let anytime = outcome.members.last().unwrap();
        assert_eq!(anytime.label, "anytime");
        assert!(!anytime.winner);
        assert_eq!(anytime.termination, Termination::Cancelled);
        // The caller's own token stays untouched by the internal race.
        assert!(query.cancel.is_none());
    }

    #[test]
    fn budget_bound_portfolio_reports_a_finite_valid_gap() {
        // No heuristic, zero branch nodes: nothing is found, but every member still
        // finishes its reduction, so the colorful bound gives a finite gap.
        let solver = RfcSolver::new(fixtures::fig1_graph());
        let config = SearchConfig {
            use_heuristic: false,
            ..SearchConfig::default()
        };
        let query = Query::new(FairnessModel::Relative { k: 3, delta: 1 })
            .with_config(config)
            .with_budget(Budget::default().with_node_limit(0));
        let outcome = solver
            .solve_portfolio(&query, &PortfolioConfig::new(3))
            .unwrap();
        assert_eq!(outcome.solution.termination, Termination::BudgetExhausted);
        assert!(outcome.solution.best().is_none());
        assert_eq!(outcome.solution.upper_bound, Some(7));
        assert_eq!(outcome.solution.optimality_gap(), Some(7));
        assert!(outcome.members.iter().all(|m| !m.winner));
    }

    #[test]
    fn node_limited_anytime_run_terminates_and_verifies() {
        // A pure node limit can never trip the improver's own control; the join
        // path must cancel it once the exact members are done. Whatever the
        // improver managed to offer must be a genuine fair clique.
        let solver = RfcSolver::new(fixtures::fig1_graph());
        let fairness = FairnessModel::Relative { k: 3, delta: 1 };
        let config = SearchConfig {
            use_heuristic: false,
            ..SearchConfig::default()
        };
        let query = Query::new(fairness)
            .with_config(config)
            .with_budget(Budget::default().with_node_limit(0));
        let outcome = solver
            .solve_portfolio(&query, &PortfolioConfig::new(2).with_anytime(true))
            .unwrap();
        // Gap validity: finite, and zero exactly on certified-optimal outcomes.
        let gap = outcome.solution.optimality_gap().expect("reduction ran");
        assert_eq!(gap == 0, outcome.solution.termination.is_complete());
        if let Some(best) = outcome.solution.best() {
            assert!(verify::is_fair_clique_under(
                solver.graph(),
                &best.vertices,
                fairness
            ));
        }
    }

    #[test]
    fn pre_cancelled_portfolio_stops_at_entry() {
        let solver = RfcSolver::new(fixtures::fig1_graph());
        let token = CancelToken::new();
        token.cancel();
        let outcome = solver
            .solve_portfolio(
                &Query::new(FairnessModel::Relative { k: 3, delta: 1 }).with_cancel(token),
                &PortfolioConfig::default(),
            )
            .unwrap();
        assert_eq!(outcome.solution.termination, Termination::Cancelled);
        assert!(outcome.members.is_empty());
        assert_eq!(outcome.solution.upper_bound, None);
        assert_eq!(outcome.solution.optimality_gap(), None);
    }

    #[test]
    fn invalid_queries_are_rejected() {
        let solver = RfcSolver::new(fixtures::fig1_graph());
        assert!(solver
            .solve_portfolio(
                &Query::new(FairnessModel::Weak { k: 0 }),
                &PortfolioConfig::default()
            )
            .is_err());
        assert_eq!(
            solver
                .solve_portfolio(
                    &Query::default().with_objective(Objective::TopK(0)),
                    &PortfolioConfig::default()
                )
                .unwrap_err(),
            SolveError::EmptyTopK
        );
    }

    #[test]
    fn member_configs_are_diverse_and_split_threads() {
        let base = SearchConfig::default().with_threads(ThreadCount::Fixed(8));
        let configs = member_configs(&base, 4);
        assert_eq!(configs[0].0, "base");
        assert_eq!(configs[0].1.threads, ThreadCount::Fixed(2));
        // Labels are distinct and later members vary the branch order.
        let labels: std::collections::HashSet<_> = configs.iter().map(|(l, _)| l.clone()).collect();
        assert_eq!(labels.len(), 4);
        assert!(configs[1..]
            .iter()
            .any(|(_, c)| c.branch_order != base.branch_order));
        // The first wave keeps the base reduction; member 3 may diverge.
        assert_eq!(configs[1].1.reductions, base.reductions);
        assert_eq!(configs[2].1.reductions, base.reductions);
        // A serial base pins every member to serial.
        let serial = member_configs(
            &SearchConfig::default().with_threads(ThreadCount::Serial),
            3,
        );
        assert!(serial.iter().all(|(_, c)| c.threads == ThreadCount::Serial));
    }

    #[test]
    fn improver_moves_preserve_the_clique_property() {
        // Drive the move primitives directly on the fig.1 graph and check the
        // working set stays a clique after every accepted move.
        let g = fixtures::fig1_graph();
        let mut rng = SplitMix64::new(7);
        let mut moves = 0u64;
        let mut current = vec![6u32];
        for _ in 0..200 {
            grow(&g, &mut current, &mut rng, &mut moves);
            assert!(is_clique(&g, &current));
            if !swap_1_2(&g, &mut current, &mut rng, &mut moves) {
                let _ = plateau_1_1(&g, &mut current, &mut rng, &mut moves);
            }
            assert!(is_clique(&g, &current), "after swap: {current:?}");
            let active: Vec<VertexId> = g.vertices().collect();
            if moves % 17 == 0 {
                perturb(&mut current, &active, &mut rng);
                assert!(is_clique(&g, &current));
            }
        }
        assert!(moves > 0);
    }

    fn is_clique(g: &AttributedGraph, vs: &[VertexId]) -> bool {
        vs.iter()
            .enumerate()
            .all(|(i, &u)| vs[i + 1..].iter().all(|&v| g.has_edge(u, v)))
    }
}
