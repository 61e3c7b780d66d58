//! `solve-big`: one caller building an `RfcSolver` and solving one big connected
//! component under the default configuration (MaxRFC+ub+HeurRFC) on two
//! threads — the library/CLI path. The reduction kernels and the per-node bound
//! kernels both show in its time.

use std::time::{Duration, Instant};

use rfc_bench::workloads::big_component_graph;
use rfc_core::bounds::instance_upper_bound;
use rfc_core::heuristic::heur_rfc;
use rfc_core::reduction::{colorful_core, colorful_sup, en_colorful_sup};
use rfc_core::search::ThreadCount;
use rfc_core::verify::is_fair_clique_under;
use rfc_core::{FairnessModel, Query, RfcSolver, SearchConfig, Solution, Termination};
use rfc_graph::components::connected_components;
use rfc_graph::AttributedGraph;

use crate::{closed_loop, end_to_end, metric, ms_since, quantile, Outcome, Run, Spans};

const VERTICES: usize = 800;
const MODEL: FairnessModel = FairnessModel::Relative { k: 3, delta: 1 };
const THREADS: ThreadCount = ThreadCount::Fixed(2);
const SETUPS: usize = 3;

fn query(threads: ThreadCount) -> Query {
    Query::new(MODEL).with_config(SearchConfig::default().with_threads(threads))
}

/// The generated graph and the optimum size every op must reproduce.
struct Inputs {
    graph: AttributedGraph,
    reference: usize,
}

impl Inputs {
    /// Generates the graph and takes the reference size from a serial solve.
    fn generate(seed: u64) -> Result<Inputs, String> {
        let graph = big_component_graph(VERTICES, seed);
        let serial = RfcSolver::new(graph.clone())
            .solve(&query(ThreadCount::Serial))
            .map_err(|e| e.to_string())?;
        let inputs = Inputs {
            graph,
            reference: serial.best_size(),
        };
        if !inputs.accepts(&serial) {
            return Err("the serial reference solve is not a verified optimum".into());
        }
        Ok(inputs)
    }

    /// An answer is right when it is a proven optimum of the reference size whose
    /// clique is fair on the original graph.
    fn accepts(&self, solution: &Solution) -> bool {
        solution.termination == Termination::Optimal
            && solution.best_size() == self.reference
            && solution
                .best()
                .is_some_and(|c| is_fair_clique_under(&self.graph, &c.vertices, MODEL))
    }
}

/// One op: build the solver and solve; the solver is dropped inside the timing.
fn op(graph: AttributedGraph, query: &Query) -> Option<Solution> {
    RfcSolver::new(graph).solve(query).ok()
}

pub fn run(run: &Run) -> Result<Outcome, String> {
    let (inputs, setup_s) = run.setup(SETUPS, || Inputs::generate(run.seed), |_| Ok(()))?;
    let query = query(THREADS);
    let mut outcome = Outcome::default();
    let (mut latencies, wall) = closed_loop(run.window, &mut outcome, || {
        let graph = inputs.graph.clone();
        let t = Instant::now();
        let solution = op(graph, &query);
        let ms = ms_since(t);
        (ms, solution.is_some_and(|s| inputs.accepts(&s)))
    });
    let p50 = quantile(&mut latencies, 0.5);
    let p90 = quantile(&mut latencies, 0.9);
    outcome.metrics = end_to_end(p50, p90, outcome.attempted, wall, setup_s);
    Ok(outcome)
}

/// The counts one traced op reads that must repeat exactly on every op of a
/// seed. The search counters are reported as medians instead: with two threads
/// they may depend on when the incumbent improves.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Counts {
    edges_out: [usize; 3],
    heuristic_size: usize,
}

/// The traced sequence. Per op: `RfcSolver::new`, a cold `solve` (new + cold
/// solve is the untraced op), a second `solve` that hits the reduction cache, then
/// the three reduction stages, `heur_rfc` and the root bound called directly.
pub fn trace(run: &Run, budget: Duration, spans: &mut Spans) -> Result<Outcome, String> {
    let inputs = Inputs::generate(run.seed)?;
    let params = MODEL
        .resolve(inputs.graph.num_vertices())
        .map_err(|e| e.to_string())?;
    let config = SearchConfig::default();
    let query = query(THREADS);
    let mut outcome = Outcome::default();
    let mut counts: Option<Counts> = None;
    let (mut bnb_us, mut untraced_ms, mut overhead_pct) = (Vec::new(), Vec::new(), Vec::new());
    let (mut branches, mut bound_prunes) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while start.elapsed() < budget {
        spans.next_op();
        let (solver, new_us) = spans.time("solver.new", || RfcSolver::new(inputs.graph.clone()));
        let (cold, cold_us) = spans.time("solver.cold_solve", || solver.solve(&query));
        let (warm, warm_us) = spans.time("solver.cached_solve", || solver.solve(&query));
        drop(solver);
        let (r1, core_us) = spans.time("reduction.en_colorful_core", || {
            colorful_core::en_colorful_core_reduction(&inputs.graph, params.k)
        });
        let (r2, sup_us) = spans.time("reduction.colorful_sup", || {
            colorful_sup::colorful_sup_reduction(&r1, params.k)
        });
        let (r3, en_sup_us) = spans.time("reduction.en_colorful_sup", || {
            en_colorful_sup::en_colorful_sup_reduction(&r2, params.k)
        });
        let (heuristic, heur_us) = spans.time("heuristic.heur_rfc", || {
            heur_rfc(&r3, params, &config.heuristic)
        });
        let components = connected_components(&r3);
        let root = (0..components.num_components as u32)
            .map(|c| components.vertices_of(c))
            .max_by_key(Vec::len)
            .unwrap_or_default();
        let (bound, _) = spans.time("bounds.root_bound", || {
            instance_upper_bound(&r3, &root, params, &config.bounds)
        });

        let (Ok(cold), Ok(warm)) = (cold, warm) else {
            outcome.record(false);
            continue;
        };
        let found = heuristic.best.as_ref().map_or(0, |c| c.size());
        outcome.record(
            inputs.accepts(&cold)
                && inputs.accepts(&warm)
                && warm.reduction_cache_hit
                && r3.num_edges() == warm.stats.reduction.final_edges()
                && found <= inputs.reference
                && inputs.reference <= bound,
        );
        let op_counts = Counts {
            edges_out: [r1.num_edges(), r2.num_edges(), r3.num_edges()],
            heuristic_size: found,
        };
        branches.push(warm.stats.branches as f64);
        bound_prunes.push(warm.stats.bound_prunes as f64);
        let first = counts.get_or_insert_with(|| op_counts.clone());
        outcome.check(*first == op_counts, || {
            format!("solve-big counts changed between ops: {first:?} then {op_counts:?}")
        });
        // The cached solve is lookup + heuristic + branch and bound.
        bnb_us.push(warm_us - heur_us);
        let untraced = new_us + cold_us;
        let layers = new_us + core_us + sup_us + en_sup_us + warm_us;
        untraced_ms.push(untraced / 1e3);
        overhead_pct.push(100.0 * (layers - untraced) / untraced);
    }
    let counts = counts.ok_or("no solve-big op completed in the traced window")?;
    let bnb_ms = quantile(&mut bnb_us, 0.5) / 1e3;
    let branches = quantile(&mut branches, 0.5);
    let ms = |layer: &str| spans.median_us(layer) / 1e3;
    outcome.metrics = vec![
        metric("solver.new_ms", ms("solver.new"), "ms"),
        metric(
            "reduction.en_colorful_core_ms",
            ms("reduction.en_colorful_core"),
            "ms",
        ),
        metric(
            "reduction.colorful_sup_ms",
            ms("reduction.colorful_sup"),
            "ms",
        ),
        metric(
            "reduction.en_colorful_sup_ms",
            ms("reduction.en_colorful_sup"),
            "ms",
        ),
        metric(
            "reduction.edges_out.en_colorful_core",
            counts.edges_out[0] as f64,
            "count",
        ),
        metric(
            "reduction.edges_out.colorful_sup",
            counts.edges_out[1] as f64,
            "count",
        ),
        metric(
            "reduction.edges_out.en_colorful_sup",
            counts.edges_out[2] as f64,
            "count",
        ),
        metric("heuristic.heur_rfc_ms", ms("heuristic.heur_rfc"), "ms"),
        metric("heuristic.size", counts.heuristic_size as f64, "count"),
        metric("bounds.root_bound_ms", ms("bounds.root_bound"), "ms"),
        metric("search.bnb_ms", bnb_ms, "ms"),
        metric("search.branches", branches, "count"),
        metric(
            "search.bound_prunes",
            quantile(&mut bound_prunes, 0.5),
            "count",
        ),
        metric(
            "search.us_per_branch",
            bnb_ms * 1e3 / branches.max(1.0),
            "us",
        ),
        metric(
            "solve_big.untraced_op_ms",
            quantile(&mut untraced_ms, 0.5),
            "ms",
        ),
        metric(
            "solve_big.trace_overhead_pct",
            quantile(&mut overhead_pct, 0.5),
            "%",
        ),
    ];
    Ok(outcome)
}
