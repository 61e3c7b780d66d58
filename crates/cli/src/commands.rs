//! Execution of the parsed CLI commands.

use std::collections::HashMap;
use std::fs::File;

use rfc_core::bounds::BoundConfig;
use rfc_core::dynamic::DynamicRfcSolver;
use rfc_core::enumerate::{
    CliqueSink, CountSink, EnumOutcome, EnumQuery, EnumTermination, JsonlSink, LimitSink, SinkFlow,
};
use rfc_core::heuristic::{HeuristicConfig, HeuristicOutcome};
use rfc_core::portfolio::{PortfolioConfig, PortfolioOutcome};
use rfc_core::problem::{FairClique, FairCliqueParams, FairnessModel};
use rfc_core::reduction::streaming::reduce_store;
use rfc_core::reduction::{apply_reductions, ReductionConfig};
use rfc_core::scale::ScaleSolver;
use rfc_core::search::SearchConfig;
use rfc_core::solver::{Budget, Objective, Query, RfcSolver, Solution, Termination};
use rfc_core::verify;
use rfc_datasets::case_study::CaseStudy;
use rfc_datasets::scale::{generate_scale_rfcg, ScaleConfig};
use rfc_datasets::PaperDataset;
use rfc_graph::delta::UpdateOp;
use rfc_graph::disk::{write_rfcg, DiskCsr};
use rfc_graph::io;
use rfc_graph::store::GraphStore;
use rfc_graph::AttributedGraph;

use rfc_graph::json::JsonValue;
use rfc_serve::engine::EngineConfig;
use rfc_serve::protocol::{self, Request};
use rfc_serve::server::{ServeConfig, Server};

use crate::args::{ClientAction, Command, GraphInput, OutputFormat, USAGE};
use crate::output::{errln, outln, Output};

/// Returns the path when the input is a binary `.rfcg` store (routed through the
/// scale tier instead of the text readers).
fn rfcg_path(input: &GraphInput) -> Option<&str> {
    match input {
        GraphInput::Combined(path) if path.ends_with(".rfcg") => Some(path),
        _ => None,
    }
}

/// Opens a `.rfcg` store in streaming mode with a path-prefixed error.
fn open_rfcg(path: &str) -> Result<DiskCsr, String> {
    DiskCsr::open(path).map_err(|e| format!("{path}: {e}"))
}

/// Either of the two solver backends: in-memory, or scale-tier over a `.rfcg`
/// store. Both answer the same queries; the scale variant reports store ids.
enum AnySolver {
    /// The classic in-memory solver.
    Mem(RfcSolver),
    /// The out-of-core peel + residual solver.
    Scale(ScaleSolver),
}

impl AnySolver {
    /// Opens the input graph: a `.rfcg` store through the scale tier (out-of-core
    /// peel + residual extraction), any other input in memory. `budget` also
    /// covers the scale tier's construction: a `--time-limit` that expires
    /// mid-peel surfaces as a clean `budget exhausted` error instead of an
    /// unbounded scan. `verbose` prints the memory footprint and a store's shrink
    /// to its residual.
    fn open(
        out: &mut Output,
        input: &GraphInput,
        k: usize,
        budget: &Budget,
        verbose: bool,
    ) -> Result<AnySolver, String> {
        if let Some(path) = rfcg_path(input) {
            let store = open_rfcg(path)?;
            let solver =
                ScaleSolver::from_store_budgeted(&store, k, budget, None).map_err(|e| match e {
                    rfc_core::scale::ScaleError::BudgetExhausted => format!(
                        "{path}: budget exhausted during the out-of-core reduction \
                         (raise --time-limit / --node-limit)"
                    ),
                    other => format!("{path}: {other}"),
                })?;
            if verbose {
                let s = solver.stats();
                outln!(
                    out,
                    "scale tier: store {} vertices / {} edges -> peel survivors {} -> \
                     residual {} vertices / {} edges ({} µs scan, {} µs cascade, {} µs extract)",
                    s.store_vertices,
                    s.store_edges,
                    s.peel.surviving_vertices,
                    s.residual_vertices,
                    s.residual_edges,
                    s.peel.scan_micros,
                    s.peel.cascade_micros,
                    s.extract_micros
                );
                outln!(
                    out,
                    "resident bytes: store {} (streaming), residual graph {}",
                    store.resident_bytes(),
                    solver.residual_resident_bytes()
                );
            }
            return Ok(AnySolver::Scale(solver));
        }
        let graph = load_graph(input)?;
        if verbose {
            let stats = graph.stats();
            outln!(
                out,
                "memory: csr {} bytes, dense bit-matrix {} bytes if built",
                stats.csr_bytes,
                stats.bitmatrix_bytes
            );
        }
        Ok(AnySolver::Mem(RfcSolver::new(graph)))
    }

    /// Solves the query, racing `portfolio` when one is given; without one the
    /// outcome has no member reports.
    fn solve(
        &self,
        query: &Query,
        portfolio: Option<&PortfolioConfig>,
    ) -> Result<PortfolioOutcome, String> {
        let alone = |solution| PortfolioOutcome {
            solution,
            members: Vec::new(),
        };
        match (self, portfolio) {
            (AnySolver::Mem(solver), Some(config)) => solver
                .solve_portfolio(query, config)
                .map_err(|e| e.to_string()),
            (AnySolver::Scale(solver), Some(config)) => solver
                .solve_portfolio(query, config)
                .map_err(|e| e.to_string()),
            (AnySolver::Mem(solver), None) => {
                solver.solve(query).map(alone).map_err(|e| e.to_string())
            }
            (AnySolver::Scale(solver), None) => {
                solver.solve(query).map(alone).map_err(|e| e.to_string())
            }
        }
    }

    fn heuristic(&self, query: &Query) -> Result<HeuristicOutcome, String> {
        match self {
            AnySolver::Mem(solver) => solver.heuristic(query).map_err(|e| e.to_string()),
            AnySolver::Scale(solver) => solver.heuristic(query).map_err(|e| e.to_string()),
        }
    }

    fn enumerate(
        &self,
        query: &EnumQuery,
        sink: &mut dyn CliqueSink,
    ) -> Result<EnumOutcome, String> {
        match self {
            AnySolver::Mem(solver) => solver.enumerate(query, sink).map_err(|e| e.to_string()),
            AnySolver::Scale(solver) => solver.enumerate(query, sink).map_err(|e| e.to_string()),
        }
    }
}

/// Installs a JSONL file sink for `--trace FILE`. The returned guard keeps tracing
/// enabled for the rest of the command and flushes + closes the file on drop.
fn install_trace(trace: Option<&str>) -> Result<Option<rfc_obs::trace::TraceGuard>, String> {
    match trace {
        None => Ok(None),
        Some(path) => {
            let sink =
                rfc_obs::trace::FileSink::create(path).map_err(|e| format!("{path}: {e}"))?;
            Ok(Some(rfc_obs::trace::install(Box::new(sink))))
        }
    }
}

/// One-line human description of how an enumeration run ended. A sink-driven stop
/// is only attributed to `--limit` when that limit was actually given and reached
/// (the JSONL sink also stops on a consumer-closed pipe).
fn enum_termination_desc(
    termination: EnumTermination,
    limit: Option<u64>,
    emitted: u64,
) -> &'static str {
    match termination {
        EnumTermination::Complete => "complete",
        EnumTermination::SinkStopped if limit == Some(emitted) => "stopped at the requested limit",
        EnumTermination::SinkStopped => "stopped by the sink",
        EnumTermination::BudgetExhausted => "budget exhausted: partial",
        EnumTermination::Cancelled => "cancelled: partial",
    }
}

/// The `solve --format json` object: the model, then the same fields as the
/// daemon's `solve` line ([`protocol::write_solution`]).
fn solve_json(model: FairnessModel, solution: &Solution) -> String {
    let mut json = format!(
        "{{\"model\":\"{}\",",
        rfc_graph::json::escaped(&model.to_string())
    );
    protocol::write_solution(&mut json, solution);
    json
}

/// Runs a parsed command, returning a human-readable error on failure.
///
/// All regular output goes through [`Output`], which turns a consumer-closed pipe
/// (`maxfairclique … | head`) into a clean exit instead of a broken-pipe panic.
pub fn run(command: Command) -> Result<(), String> {
    let mut out = Output::stdout();
    match command {
        Command::Help => {
            outln!(out, "{USAGE}");
            Ok(())
        }
        Command::Stats { input, verbose } => {
            if let Some(path) = rfcg_path(&input) {
                let store = open_rfcg(path)?;
                let counts = store.attribute_counts();
                outln!(
                    out,
                    "rfcg store: n={} m={} attrs=(a: {}, b: {})",
                    store.num_vertices(),
                    store.num_edges(),
                    counts.a(),
                    counts.b()
                );
                if verbose {
                    outln!(
                        out,
                        "memory: resident {} bytes (streaming mode; neighbor lists stay on disk)",
                        store.resident_bytes()
                    );
                }
                return Ok(());
            }
            let graph = load_graph(&input)?;
            let stats = graph.stats();
            outln!(out, "{stats}");
            outln!(
                out,
                "non-isolated vertices: {}",
                graph.num_non_isolated_vertices()
            );
            if verbose {
                outln!(
                    out,
                    "memory: csr {} bytes, dense bit-matrix {} bytes if built",
                    stats.csr_bytes,
                    stats.bitmatrix_bytes
                );
            }
            Ok(())
        }
        Command::Solve {
            input,
            model,
            bound,
            basic,
            no_heuristic,
            threads,
            budget,
            top,
            portfolio,
            anytime,
            format,
            trace,
            verbose,
        } => {
            let _trace_guard = install_trace(trace.as_deref())?;
            let config = if basic {
                SearchConfig::basic()
            } else {
                SearchConfig {
                    bounds: BoundConfig::with_extra(bound),
                    use_heuristic: !no_heuristic,
                    ..SearchConfig::default()
                }
            }
            .with_threads(threads);
            let mut query = Query::new(model).with_config(config).with_budget(budget);
            if let Some(n) = top {
                query = query.with_objective(Objective::TopK(n));
            }
            let racing = portfolio.map(|n| PortfolioConfig::new(n).with_anytime(anytime));
            let solver = AnySolver::open(&mut out, &input, model.k(), &budget, verbose)?;
            let PortfolioOutcome { solution, members } = solver.solve(&query, racing.as_ref())?;
            if let AnySolver::Mem(solver) = &solver {
                for clique in &solution.cliques {
                    debug_assert!(verify::is_fair_clique_under(
                        solver.graph(),
                        &clique.vertices,
                        model
                    ));
                }
            }

            if format == OutputFormat::Json {
                outln!(out, "{}", solve_json(model, &solution));
                return Ok(());
            }
            outln!(out, "model: {model} fairness");
            match solution.termination {
                Termination::BudgetExhausted => outln!(
                    out,
                    "search budget exhausted: showing the verified best-so-far"
                ),
                Termination::Cancelled => {
                    outln!(out, "search cancelled: showing the verified best-so-far")
                }
                Termination::Optimal | Termination::Infeasible => {}
            }
            if !solution.termination.is_complete() {
                match (solution.optimality_gap(), solution.upper_bound) {
                    (Some(gap), Some(ub)) => {
                        outln!(out, "optimality gap: <= {gap} (certified upper bound {ub})")
                    }
                    _ => outln!(out, "optimality gap: unknown (no certified upper bound)"),
                }
            }
            if verbose {
                for member in &members {
                    outln!(
                        out,
                        "portfolio member {}: {}, {} branches, {} µs{}",
                        member.label,
                        protocol::termination_str(member.termination),
                        member.branches,
                        member.elapsed_micros,
                        if member.winner { " (winner)" } else { "" }
                    );
                }
            }
            match solution.cliques.as_slice() {
                [] if solution.termination == Termination::Infeasible => {
                    outln!(out, "no fair clique exists under {model} fairness")
                }
                [] => outln!(out, "no fair clique found within the budget"),
                cliques => {
                    let best = &cliques[0];
                    outln!(
                        out,
                        "maximum fair clique: {} vertices (a: {}, b: {})",
                        best.size(),
                        best.counts.a(),
                        best.counts.b()
                    );
                    if cliques.len() > 1 {
                        for (rank, clique) in cliques.iter().enumerate() {
                            outln!(
                                out,
                                "top {}: {} vertices (a: {}, b: {}): {:?}",
                                rank + 1,
                                clique.size(),
                                clique.counts.a(),
                                clique.counts.b(),
                                clique.vertices
                            );
                        }
                    } else {
                        outln!(out, "vertices: {:?}", best.vertices);
                    }
                }
            }
            let stats = &solution.stats;
            outln!(
                out,
                "reduction: {} -> {} edges; search: {} branches, {} bound prunes, \
                 {} µs wall ({} µs cpu)",
                stats.reduction.original_edges,
                stats.reduction.final_edges(),
                stats.branches,
                stats.bound_prunes,
                stats.elapsed_micros,
                stats.cpu_micros
            );
            Ok(())
        }
        Command::Enumerate {
            input,
            model,
            limit,
            min_size,
            format,
            threads,
            budget,
            trace,
        } => {
            let _trace_guard = install_trace(trace.as_deref())?;
            let query = EnumQuery::new(model)
                .with_min_size(min_size)
                .with_budget(budget)
                .with_threads(threads);
            let solver = AnySolver::open(&mut out, &input, model.k(), &budget, false)?;

            match format {
                OutputFormat::Jsonl => {
                    // Pure JSONL on stdout (summary goes to stderr); the sink turns a
                    // consumer-closed pipe into a clean early stop.
                    let mut jsonl =
                        JsonlSink::new(std::io::BufWriter::new(std::io::stdout().lock()));
                    let outcome = match limit {
                        Some(n) => {
                            let mut limited = LimitSink::new(&mut jsonl, n);
                            solver.enumerate(&query, &mut limited)
                        }
                        None => solver.enumerate(&query, &mut jsonl),
                    }
                    .map_err(|e| e.to_string())?;
                    // Report what actually reached stdout: on a closed pipe the last
                    // clique handed to the sink was never written.
                    let written = jsonl.written();
                    jsonl.finish().map_err(|e| e.to_string())?;
                    errln!(
                        "enumerated {} maximal fair cliques under {model} fairness ({}) \
                         in {} µs; {} nodes",
                        written,
                        enum_termination_desc(outcome.termination, limit, outcome.emitted),
                        outcome.stats.elapsed_micros,
                        outcome.stats.branches
                    );
                }
                // `solve`-only formats were rejected by the parser.
                OutputFormat::Text | OutputFormat::Json => {
                    outln!(out, "model: {model} fairness");
                    let outcome = {
                        let mut text = |clique: FairClique| {
                            outln!(
                                out,
                                "clique: {} vertices (a: {}, b: {}): {:?}",
                                clique.size(),
                                clique.counts.a(),
                                clique.counts.b(),
                                clique.vertices
                            );
                            SinkFlow::Continue
                        };
                        match limit {
                            Some(n) => {
                                let mut limited = LimitSink::new(&mut text, n);
                                solver.enumerate(&query, &mut limited)
                            }
                            None => solver.enumerate(&query, &mut text),
                        }
                        .map_err(|e| e.to_string())?
                    };
                    let stats = &outcome.stats;
                    outln!(
                        out,
                        "enumerated {} maximal fair cliques ({}) in {} µs",
                        outcome.emitted,
                        enum_termination_desc(outcome.termination, limit, outcome.emitted),
                        stats.elapsed_micros
                    );
                    outln!(
                        out,
                        "reduction: {} -> {} edges; enumeration: {} nodes, {} colorful prunes, \
                         {} maximality rejections, {} components",
                        stats.reduction.original_edges,
                        stats.reduction.final_edges(),
                        stats.branches,
                        stats.colorful_prunes,
                        stats.maximality_rejections,
                        stats.components_searched
                    );
                }
            }
            Ok(())
        }
        Command::Update {
            input,
            stream,
            model,
            enumerate,
            threads,
            trace,
        } => {
            let _trace_guard = install_trace(trace.as_deref())?;
            let graph = load_graph(&input)?;
            let ops = load_update_stream(&stream)?;
            let config = SearchConfig::default().with_threads(threads);
            let query = Query::new(model).with_config(config);
            let enum_query = EnumQuery::new(model).with_threads(threads);
            let mut solver = DynamicRfcSolver::new(graph);
            outln!(
                out,
                "model: {model} fairness; initial graph: {}",
                solver.graph().stats()
            );
            let mut batch = 0usize;
            let mut report = |solver: &mut DynamicRfcSolver,
                              outcome: Option<rfc_core::dynamic::CommitOutcome>,
                              out: &mut Output|
             -> Result<(), String> {
                batch += 1;
                let solution = solver.solve(&query).map_err(|e| e.to_string())?;
                let summary = match solution.best() {
                    Some(best) => format!(
                        "max fair clique {} (a: {}, b: {})",
                        best.size(),
                        best.counts.a(),
                        best.counts.b()
                    ),
                    None => "no fair clique".to_string(),
                };
                let commit_desc = match outcome {
                    Some(c) => format!(
                        "{} ops, {} changed vertices, reductions kept {}/{}",
                        c.ops,
                        c.changed_vertices,
                        c.reductions_kept,
                        c.reductions_kept + c.reductions_invalidated
                    ),
                    None => "initial state".to_string(),
                };
                outln!(
                    out,
                    "batch {batch}: {commit_desc}; n={} m={}; {summary} \
                     (reduction cache hit: {}, {} µs)",
                    solver.graph().num_vertices(),
                    solver.graph().num_edges(),
                    solution.reduction_cache_hit,
                    solution.stats.elapsed_micros
                );
                if enumerate {
                    let mut count = CountSink::new();
                    let outcome = solver
                        .enumerate(&enum_query, &mut count)
                        .map_err(|e| e.to_string())?;
                    outln!(
                        out,
                        "batch {batch}: {} maximal fair cliques (largest {}, \
                         {} re-enumerated components, {} µs)",
                        outcome.emitted,
                        count.largest(),
                        outcome.stats.components_searched,
                        outcome.stats.elapsed_micros
                    );
                }
                Ok(())
            };
            report(&mut solver, None, &mut out)?;
            for (line_no, op) in ops {
                match solver.apply_op(&op) {
                    Ok(Some(commit)) => report(&mut solver, Some(commit), &mut out)?,
                    Ok(None) => {}
                    Err(e) => return Err(format!("{stream}:{line_no}: invalid op: {e}")),
                }
            }
            if solver.pending_ops() > 0 {
                let commit = solver.commit();
                report(&mut solver, Some(commit), &mut out)?;
            }
            Ok(())
        }
        Command::Heuristic {
            input,
            model,
            seeds,
        } => {
            let query = Query::new(model).with_config(SearchConfig {
                heuristic: HeuristicConfig {
                    seeds: seeds.max(1),
                },
                ..SearchConfig::default()
            });
            let solver = AnySolver::open(&mut out, &input, model.k(), &Budget::unlimited(), false)?;
            let outcome = solver.heuristic(&query)?;
            match &outcome.best {
                None => outln!(
                    out,
                    "the heuristic found no fair clique under {model} fairness"
                ),
                Some(clique) => outln!(
                    out,
                    "heuristic fair clique ({model} fairness): {} vertices (a: {}, b: {}); upper bound {}",
                    clique.size(),
                    clique.counts.a(),
                    clique.counts.b(),
                    outcome.upper_bound
                ),
            }
            Ok(())
        }
        Command::Reduce { input, k, output } => {
            let params = FairCliqueParams::new(k, 0).map_err(|e| e.to_string())?;
            if let Some(path) = rfcg_path(&input) {
                let store = open_rfcg(path)?;
                let red = reduce_store(&store, params, &ReductionConfig::default())
                    .map_err(|e| format!("{path}: {e}"))?;
                outln!(
                    out,
                    "original: {} vertices / {} edges",
                    store.num_vertices(),
                    store.num_edges()
                );
                outln!(
                    out,
                    "after   fair-core peel: {} vertices ({} µs scan, {} µs cascade, \
                     {} µs extract)",
                    red.stats.peel.surviving_vertices,
                    red.stats.peel.scan_micros,
                    red.stats.peel.cascade_micros,
                    red.stats.extract_micros
                );
                for stage in &red.stats.exact.stages {
                    outln!(
                        out,
                        "after {:>15}: {} vertices / {} edges ({} µs)",
                        stage.stage,
                        stage.vertices,
                        stage.edges,
                        stage.micros
                    );
                }
                if let Some(path) = output {
                    io::write_graph_to_path(&red.graph, &path).map_err(|e| e.to_string())?;
                    outln!(
                        out,
                        "reduced residual written to {path} (residual vertex ids; \
                         original ids are store positions in the peel survivor order)"
                    );
                }
                return Ok(());
            }
            let graph = load_graph(&input)?;
            let (reduced, stats) = apply_reductions(&graph, params, &ReductionConfig::default());
            outln!(
                out,
                "original: {} vertices / {} edges",
                stats.original_vertices,
                stats.original_edges
            );
            for stage in &stats.stages {
                outln!(
                    out,
                    "after {:>15}: {} vertices / {} edges ({} µs)",
                    stage.stage,
                    stage.vertices,
                    stage.edges,
                    stage.micros
                );
            }
            if let Some(path) = output {
                io::write_graph_to_path(&reduced, &path).map_err(|e| e.to_string())?;
                outln!(out, "reduced graph written to {path}");
            }
            Ok(())
        }
        Command::Convert { input, output } => {
            if let Some(path) = rfcg_path(&input) {
                // Binary → text: materialize the store (residual-scale inputs only).
                let store = open_rfcg(path)?;
                let graph = store.to_graph().map_err(|e| format!("{path}: {e}"))?;
                io::write_graph_to_path(&graph, &output).map_err(|e| e.to_string())?;
                outln!(
                    out,
                    "converted {path} -> {output} (text): {} vertices / {} edges",
                    graph.num_vertices(),
                    graph.num_edges()
                );
                return Ok(());
            }
            let graph = load_graph(&input)?;
            let summary = write_rfcg(&graph, &output).map_err(|e| format!("{output}: {e}"))?;
            outln!(
                out,
                "converted -> {output} (.rfcg): {} vertices / {} edges, {} bytes",
                summary.num_vertices,
                summary.num_edges,
                summary.file_bytes
            );
            Ok(())
        }
        Command::Generate {
            dataset,
            case_study,
            scale,
            seed,
            planted_half,
            prob_a,
            output,
        } => {
            if let Some(n) = scale {
                let path = output.ok_or_else(|| {
                    "`generate --scale` needs `--output FILE.rfcg` (the graph is streamed \
                     to disk, never held in memory)"
                        .to_string()
                })?;
                let config = ScaleConfig::new(n)
                    .with_planted_half(planted_half)
                    .with_prob_a(prob_a);
                let summary = generate_scale_rfcg(&config, seed, &path)
                    .map_err(|e| format!("{path}: {e}"))?;
                outln!(
                    out,
                    "generated scale graph (seed {seed}): {} vertices / {} edges, \
                     {} bytes -> {path}",
                    summary.csr.num_vertices,
                    summary.csr.num_edges,
                    summary.csr.file_bytes
                );
                if summary.planted.is_empty() {
                    outln!(out, "no planted clique");
                } else {
                    outln!(
                        out,
                        "planted fair clique: {} vertices ({} per attribute), \
                         ids {}..={}",
                        summary.planted.len(),
                        summary.planted.len() / 2,
                        summary.planted[0],
                        summary.planted[summary.planted.len() - 1]
                    );
                }
                return Ok(());
            }
            let (name, graph) = if let Some(name) = dataset {
                let ds = parse_dataset(&name)?;
                (ds.name().to_string(), ds.generate())
            } else {
                let cs = parse_case_study(case_study.as_deref().unwrap_or_default())?;
                let generated = cs.generate();
                (cs.name().to_string(), generated.graph)
            };
            outln!(out, "generated {name}: {}", graph.stats());
            if let Some(path) = output {
                io::write_graph_to_path(&graph, &path).map_err(|e| e.to_string())?;
                outln!(out, "written to {path}");
            }
            Ok(())
        }
        Command::Serve {
            host,
            port,
            max_active,
            max_queue,
            cache_cap,
            time_limit,
        } => {
            let server = Server::bind(ServeConfig {
                host,
                port,
                max_active,
                max_queue,
                engine: EngineConfig {
                    cache_capacity: cache_cap,
                    default_time_limit: time_limit,
                },
                ..ServeConfig::default()
            })
            .map_err(|e| format!("cannot start the daemon: {e}"))?;
            let addr = server.local_addr().map_err(|e| e.to_string())?;
            // Scripts wait for this exact line (stdout is line-buffered, so it is
            // visible before the first connection is accepted).
            outln!(out, "maxfaircliqued listening on {addr}");
            server.run().map_err(|e| format!("daemon failed: {e}"))
        }
        Command::Client { connect, action } => run_client(&mut out, &connect, action),
    }
}

/// One request/response round trip against a running daemon. Prints every response
/// line (stream lines included) pipe-safely; exits non-zero when the terminal line
/// is an error.
fn run_client(out: &mut Output, connect: &str, action: ClientAction) -> Result<(), String> {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    let mut line = match action {
        ClientAction::Send(request) => request.to_line(),
        ClientAction::Update { graph, stream } => {
            let ops = load_update_stream(&stream)?
                .into_iter()
                .map(|(_, op)| op)
                .collect();
            Request::Update { graph, ops }.to_line()
        }
        ClientAction::Raw(line) => line,
    };
    line.push('\n');
    let stream = TcpStream::connect(connect).map_err(|e| format!("{connect}: {e}"))?;
    // One write per request and no Nagle: a split payload/newline write would
    // stall ~40 ms on the delayed-ACK timer for every round trip.
    let _ = stream.set_nodelay(true);
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    writer
        .write_all(line.as_bytes())
        .map_err(|e| format!("{connect}: {e}"))?;
    writer.flush().map_err(|e| format!("{connect}: {e}"))?;
    let mut reader = BufReader::new(stream);
    loop {
        let mut raw = String::new();
        let read = reader
            .read_line(&mut raw)
            .map_err(|e| format!("{connect}: {e}"))?;
        if read == 0 {
            return Err(format!(
                "{connect}: connection closed before a terminal response"
            ));
        }
        let response = raw.trim_end();
        let value = JsonValue::parse(response)
            .map_err(|e| format!("{connect}: unparseable response: {e}"))?;
        // A `metrics` response carries multi-line exposition text; print the text
        // itself instead of the JSON envelope so the output pipes into Prometheus
        // tooling directly. Everything else echoes the raw response line.
        match value.get("exposition").and_then(JsonValue::as_str) {
            Some(exposition) => outln!(out, "{exposition}"),
            None => outln!(out, "{response}"),
        }
        if !protocol::is_terminal(&value) {
            continue; // an enumerate stream line; keep reading
        }
        return match value.get("ok").and_then(JsonValue::as_bool) {
            Some(true) => Ok(()),
            _ => {
                let code = value
                    .get("error")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("error");
                let message = value
                    .get("message")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("request failed");
                Err(format!("{code}: {message}"))
            }
        };
    }
}

/// Reads a JSONL update stream: one op per line, blank lines and `#` comments
/// skipped. Returns each op with its 1-based line number for error reporting.
fn load_update_stream(path: &str) -> Result<Vec<(usize, UpdateOp)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut ops = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let op = UpdateOp::parse_jsonl(trimmed).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        ops.push((i + 1, op));
    }
    Ok(ops)
}

fn load_graph(input: &GraphInput) -> Result<AttributedGraph, String> {
    match input {
        GraphInput::Combined(path) => {
            io::read_graph_from_path(path).map_err(|e| format!("{path}: {e}"))
        }
        GraphInput::EdgeList { edges, attributes } => {
            let attr_map = match attributes {
                Some(path) => {
                    let file = File::open(path).map_err(|e| format!("{path}: {e}"))?;
                    io::read_attribute_list(file).map_err(|e| format!("{path}: {e}"))?
                }
                None => HashMap::new(),
            };
            let file = File::open(edges).map_err(|e| format!("{edges}: {e}"))?;
            let (graph, _) =
                io::read_edge_list(file, &attr_map).map_err(|e| format!("{edges}: {e}"))?;
            Ok(graph)
        }
    }
}

fn parse_dataset(name: &str) -> Result<PaperDataset, String> {
    PaperDataset::ALL
        .iter()
        .copied()
        .find(|d| d.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| format!("unknown dataset `{name}` (expected one of Themarker, Google, DBLP, Flixster, Pokec, Aminer)"))
}

fn parse_case_study(name: &str) -> Result<CaseStudy, String> {
    CaseStudy::ALL
        .iter()
        .copied()
        .find(|c| c.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| format!("unknown case study `{name}` (expected Aminer, DBAI, NBA, IMDB)"))
}

#[cfg(test)]
mod tests {
    use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

    use super::*;
    use crate::args::parse;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(|x| x.to_string()).collect()
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("rfc_cli_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// The tracer is process-global: spans of any command running while the trace
    /// test's tracer is installed land in its file and unbalance it. The trace test
    /// holds this lock exclusively and every other command test holds it shared.
    static TRACER: RwLock<()> = RwLock::new(());

    fn shared_tracer() -> RwLockReadGuard<'static, ()> {
        TRACER.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn exclusive_tracer() -> RwLockWriteGuard<'static, ()> {
        TRACER.write().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn end_to_end_generate_stats_solve_reduce() {
        let _tracer = shared_tracer();
        let graph_path = temp_path("nba.graph");
        let graph_arg = graph_path.to_string_lossy().to_string();

        // generate a case-study graph to disk
        run(parse(&argv(&format!(
            "generate --case-study nba --output {graph_arg}"
        )))
        .unwrap())
        .unwrap();
        assert!(graph_path.exists());

        // stats / solve / heuristic / reduce on the generated file
        run(parse(&argv(&format!("stats --graph {graph_arg}"))).unwrap()).unwrap();
        run(parse(&argv(&format!("solve --graph {graph_arg} -k 5 -d 3"))).unwrap()).unwrap();
        run(parse(&argv(&format!("solve --graph {graph_arg} -k 5 --strong"))).unwrap()).unwrap();
        run(parse(&argv(&format!("solve --graph {graph_arg} -k 5 --weak"))).unwrap()).unwrap();
        // Budgeted and top-k solves terminate and print without error.
        run(parse(&argv(&format!(
            "solve --graph {graph_arg} -k 5 -d 3 --node-limit 1 --threads 1"
        )))
        .unwrap())
        .unwrap();
        run(parse(&argv(&format!(
            "solve --graph {graph_arg} -k 5 -d 3 --time-limit 30 --top 3"
        )))
        .unwrap())
        .unwrap();
        run(parse(&argv(&format!("heuristic --graph {graph_arg} -k 5 -d 3"))).unwrap()).unwrap();
        run(parse(&argv(&format!("heuristic --graph {graph_arg} -k 5 --weak"))).unwrap()).unwrap();
        // Machine-readable solve and (limited) enumeration on the same graph.
        run(parse(&argv(&format!(
            "solve --graph {graph_arg} -k 5 -d 3 --format json"
        )))
        .unwrap())
        .unwrap();
        run(parse(&argv(&format!(
            "enumerate --graph {graph_arg} -k 5 -d 3 --limit 3 --threads 1"
        )))
        .unwrap())
        .unwrap();
        run(parse(&argv(&format!(
            "enumerate --graph {graph_arg} -k 5 --weak --limit 2 --format jsonl"
        )))
        .unwrap())
        .unwrap();
        run(parse(&argv(&format!(
            "enumerate --graph {graph_arg} -k 5 --strong --node-limit 500 --min-size 10"
        )))
        .unwrap())
        .unwrap();
        let reduced_path = temp_path("nba_reduced.graph");
        run(parse(&argv(&format!(
            "reduce --graph {graph_arg} -k 5 --output {}",
            reduced_path.to_string_lossy()
        )))
        .unwrap())
        .unwrap();
        assert!(reduced_path.exists());

        std::fs::remove_file(&graph_path).ok();
        std::fs::remove_file(&reduced_path).ok();
    }

    #[test]
    fn scale_tier_end_to_end() {
        let _tracer = shared_tracer();
        let rfcg_path = temp_path("scale_e2e.rfcg");
        let rfcg_arg = rfcg_path.to_string_lossy().to_string();

        // Stream a small scale graph with a planted 8-clique straight to .rfcg.
        run(parse(&argv(&format!(
            "generate --scale 3000 --seed 11 --planted-half 4 --output {rfcg_arg}"
        )))
        .unwrap())
        .unwrap();
        assert!(rfcg_path.exists());
        // `--scale` without `--output` is rejected (nothing to stream to).
        assert!(run(parse(&argv("generate --scale 100")).unwrap()).is_err());

        // Stats, reduce, heuristic, enumerate and solve all route through the store.
        run(parse(&argv(&format!("stats --graph {rfcg_arg} --verbose"))).unwrap()).unwrap();
        run(parse(&argv(&format!("reduce --graph {rfcg_arg} -k 4"))).unwrap()).unwrap();
        run(parse(&argv(&format!("heuristic --graph {rfcg_arg} -k 4 -d 0"))).unwrap()).unwrap();
        run(parse(&argv(&format!(
            "enumerate --graph {rfcg_arg} -k 4 -d 0 --limit 3 --threads 1"
        )))
        .unwrap())
        .unwrap();
        run(parse(&argv(&format!(
            "solve --graph {rfcg_arg} -k 4 -d 0 --threads 1 --verbose --format json"
        )))
        .unwrap())
        .unwrap();

        // Round-trip through text and back preserves the graph.
        let text_path = temp_path("scale_e2e.graph");
        let rfcg2_path = temp_path("scale_e2e_2.rfcg");
        run(parse(&argv(&format!(
            "convert --graph {rfcg_arg} --output {}",
            text_path.to_string_lossy()
        )))
        .unwrap())
        .unwrap();
        run(parse(&argv(&format!(
            "convert --graph {} --output {}",
            text_path.to_string_lossy(),
            rfcg2_path.to_string_lossy()
        )))
        .unwrap())
        .unwrap();
        let a = DiskCsr::open(&rfcg_path).unwrap().to_graph().unwrap();
        let b = DiskCsr::open(&rfcg2_path).unwrap().to_graph().unwrap();
        assert_eq!(a, b);

        // A corrupt store surfaces a clean error, not a panic.
        std::fs::write(&rfcg_path, b"not a store").unwrap();
        let err = run(parse(&argv(&format!("stats --graph {rfcg_arg}"))).unwrap()).unwrap_err();
        assert!(err.contains(".rfcg") || err.contains("rfcg") || err.contains("truncated"));

        std::fs::remove_file(&rfcg_path).ok();
        std::fs::remove_file(&text_path).ok();
        std::fs::remove_file(&rfcg2_path).ok();
    }

    #[test]
    fn solve_with_trace_writes_balanced_jsonl() {
        let _tracer = exclusive_tracer();
        let graph_path = temp_path("trace_base.graph");
        let trace_path = temp_path("trace_out.jsonl");
        let graph_arg = graph_path.to_string_lossy().to_string();
        let trace_arg = trace_path.to_string_lossy().to_string();
        run(parse(&argv(&format!(
            "generate --case-study nba --output {graph_arg}"
        )))
        .unwrap())
        .unwrap();
        run(parse(&argv(&format!(
            "solve --graph {graph_arg} -k 5 -d 3 --threads 1 --trace {trace_arg}"
        )))
        .unwrap())
        .unwrap();

        // Every line parses, opens balance closes, and the root solve span is there.
        let text = std::fs::read_to_string(&trace_path).unwrap();
        let (mut opens, mut closes, mut saw_solve) = (0u64, 0u64, false);
        for line in text.lines() {
            let v = JsonValue::parse(line).expect("trace line parses");
            match v.get("ev").and_then(JsonValue::as_str) {
                Some("open") => opens += 1,
                Some("close") => {
                    closes += 1;
                    if v.get("name").and_then(JsonValue::as_str) == Some("solve") {
                        saw_solve = true;
                        assert!(v.get("dur_us").is_some());
                    }
                }
                other => panic!("unexpected trace event {other:?}"),
            }
        }
        assert!(opens > 0, "trace is empty");
        assert_eq!(opens, closes, "unbalanced spans");
        assert!(saw_solve, "no solve span in the trace");

        // An unwritable trace path is a clean error, not a panic.
        assert!(run(parse(&argv(&format!(
            "solve --graph {graph_arg} -k 5 -d 3 --trace /definitely/missing/dir/t.jsonl"
        )))
        .unwrap())
        .is_err());

        std::fs::remove_file(&graph_path).ok();
        std::fs::remove_file(&trace_path).ok();
    }

    #[test]
    fn edge_list_input_roundtrip() {
        let _tracer = shared_tracer();
        let edges_path = temp_path("tiny_edges.txt");
        let attrs_path = temp_path("tiny_attrs.txt");
        std::fs::write(&edges_path, "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n").unwrap();
        std::fs::write(&attrs_path, "0 a\n1 b\n2 a\n3 b\n").unwrap();
        run(parse(&argv(&format!(
            "solve --edges {} --attributes {} -k 2 -d 0",
            edges_path.to_string_lossy(),
            attrs_path.to_string_lossy()
        )))
        .unwrap())
        .unwrap();
        std::fs::remove_file(&edges_path).ok();
        std::fs::remove_file(&attrs_path).ok();
    }

    #[test]
    fn solution_json_is_well_formed() {
        let _tracer = shared_tracer();
        let graph = rfc_graph::fixtures::fig1_graph();
        let model = FairnessModel::Relative { k: 3, delta: 1 };
        let solver = RfcSolver::new(graph);
        let solution = solver.solve(&Query::new(model)).unwrap();
        let json = solve_json(model, &solution);
        assert!(json.starts_with("{\"model\":\"relative (k=3, δ=1)\""));
        assert!(json.contains("\"termination\":\"optimal\""));
        assert!(json.contains("\"size\":7"));
        assert!(json.contains("\"reduction_cache_hit\":false}"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        // Infeasible solves serialize with an empty clique list and a null heuristic.
        let infeasible = solver
            .solve(&Query::new(FairnessModel::Weak { k: 100 }))
            .unwrap();
        let json = solve_json(FairnessModel::Weak { k: 100 }, &infeasible);
        assert!(json.contains("\"termination\":\"infeasible\""));
        assert!(json.contains("\"cliques\":[]"));
        assert!(json.contains("\"heuristic_size\":null"));
    }

    /// `solve --format json` and the daemon's `solve` line are one encoder's
    /// output: once each envelope's own keys are dropped, they parse to the same
    /// fields in the same order.
    #[test]
    fn json_output_and_solve_response_differ_only_in_the_envelope() {
        let _tracer = shared_tracer();
        let model = FairnessModel::Relative { k: 3, delta: 1 };
        let query = Query::new(model).with_objective(Objective::TopK(2));
        let solver = RfcSolver::new(rfc_graph::fixtures::fig1_graph());
        let solution = solver.solve(&query).unwrap();
        let fields = |line: &str, envelope: &[&str]| match JsonValue::parse(line).unwrap() {
            JsonValue::Object(pairs) => pairs
                .into_iter()
                .filter(|(key, _)| !envelope.contains(&key.as_str()))
                .collect::<Vec<_>>(),
            other => panic!("not an object: {other:?}"),
        };
        let cli = fields(&solve_json(model, &solution), &["model"]);
        let daemon = fields(
            &protocol::solve_response("fig1", &solution),
            &["ok", "op", "graph"],
        );
        assert_eq!(cli, daemon);
    }

    #[test]
    fn enumerate_text_and_jsonl_run_end_to_end() {
        let _tracer = shared_tracer();
        let edges_path = temp_path("enum_edges.txt");
        let attrs_path = temp_path("enum_attrs.txt");
        // Balanced K4 plus a pendant vertex: one maximal fair clique for (2, 0).
        std::fs::write(&edges_path, "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n3 4\n").unwrap();
        std::fs::write(&attrs_path, "0 a\n1 b\n2 a\n3 b\n4 a\n").unwrap();
        let base = format!(
            "enumerate --edges {} --attributes {}",
            edges_path.to_string_lossy(),
            attrs_path.to_string_lossy()
        );
        run(parse(&argv(&format!("{base} -k 2 -d 0"))).unwrap()).unwrap();
        run(parse(&argv(&format!("{base} -k 2 -d 0 --format jsonl"))).unwrap()).unwrap();
        run(parse(&argv(&format!("{base} -k 1 -d 1 --limit 2 --min-size 2"))).unwrap()).unwrap();
        run(parse(&argv(&format!("{base} -k 1 --weak --threads 2"))).unwrap()).unwrap();
        run(parse(&argv(&format!("{base} -k 1 --strong --time-limit 30"))).unwrap()).unwrap();
        std::fs::remove_file(&edges_path).ok();
        std::fs::remove_file(&attrs_path).ok();
    }

    #[test]
    fn out_of_range_time_limit_is_an_error_not_a_panic() {
        let _tracer = shared_tracer();
        let edges_path = temp_path("limit_edges.txt");
        std::fs::write(&edges_path, "0 1\n").unwrap();
        let edges_arg = edges_path.to_string_lossy().to_string();
        // Parses as a finite f64 but exceeds what Duration can represent: a usage
        // error at parse time.
        let err = parse(&argv(&format!(
            "solve --edges {edges_arg} -k 1 -d 0 --time-limit 2e19"
        )))
        .unwrap_err();
        assert!(err.contains("--time-limit"), "{err}");
        // A representable-but-astronomical limit behaves as unlimited (no panic).
        run(parse(&argv(&format!(
            "solve --edges {edges_arg} -k 1 -d 0 --time-limit 1e19"
        )))
        .unwrap())
        .unwrap();
        std::fs::remove_file(&edges_path).ok();
    }

    #[test]
    fn update_replays_a_jsonl_stream() {
        let _tracer = shared_tracer();
        let graph_path = temp_path("update_base.graph");
        let stream_path = temp_path("update_stream.jsonl");
        let graph_arg = graph_path.to_string_lossy().to_string();
        let stream_arg = stream_path.to_string_lossy().to_string();
        run(parse(&argv(&format!(
            "generate --case-study nba --output {graph_arg}"
        )))
        .unwrap())
        .unwrap();
        std::fs::write(
            &stream_path,
            "# comment lines and blanks are skipped\n\
             {\"op\":\"remove_vertex\",\"v\":0}\n\
             {\"op\":\"commit\"}\n\
             {\"op\":\"restore_vertex\",\"v\":0,\"attr\":\"a\"}\n\
             {\"op\":\"insert_vertex\",\"attr\":\"b\"}\n\
             \n\
             {\"op\":\"commit\"}\n\
             {\"op\":\"remove_edge\",\"u\":1,\"v\":2}\n",
        )
        .unwrap();
        // Trailing ops without a commit marker get a final implicit commit.
        run(parse(&argv(&format!(
            "update --graph {graph_arg} --stream {stream_arg} -k 5 -d 3 --enumerate --threads 1"
        )))
        .unwrap())
        .unwrap();
        run(parse(&argv(&format!(
            "update --graph {graph_arg} --stream {stream_arg} -k 5 --weak"
        )))
        .unwrap())
        .unwrap();

        // Invalid ops are reported with their line number.
        let bad_path = temp_path("update_bad.jsonl");
        std::fs::write(&bad_path, "{\"op\":\"remove_edge\",\"u\":0,\"v\":0}\n").unwrap();
        let err = run(parse(&argv(&format!(
            "update --graph {graph_arg} --stream {} -k 5 -d 3",
            bad_path.to_string_lossy()
        )))
        .unwrap())
        .unwrap_err();
        assert!(err.contains(":1"), "{err}");
        // Malformed JSONL is rejected at load time.
        let ugly_path = temp_path("update_ugly.jsonl");
        std::fs::write(&ugly_path, "{\"op\":\"warp\"}\n").unwrap();
        assert!(run(parse(&argv(&format!(
            "update --graph {graph_arg} --stream {} -k 5 -d 3",
            ugly_path.to_string_lossy()
        )))
        .unwrap())
        .is_err());
        assert!(load_update_stream("/definitely/missing.jsonl").is_err());

        std::fs::remove_file(&graph_path).ok();
        std::fs::remove_file(&stream_path).ok();
        std::fs::remove_file(&bad_path).ok();
        std::fs::remove_file(&ugly_path).ok();
    }

    #[test]
    fn helpful_errors_for_bad_input() {
        let _tracer = shared_tracer();
        assert!(load_graph(&GraphInput::Combined("/definitely/missing.graph".into())).is_err());
        assert!(parse_dataset("nope").is_err());
        assert!(parse_case_study("nope").is_err());
        assert!(parse_dataset("dblp").is_ok());
        assert!(parse_case_study("imdb").is_ok());
        run(Command::Help).unwrap();
    }
}
