//! The in-process engine: a registry of named graphs, each behind a
//! `Mutex<DynamicRfcSolver>`, serving parsed [`Request`]s.
//!
//! This is the single implementation of request semantics; the TCP daemon's
//! connection threads all call the one engine it owns.
//!
//! Sharing model: one mutex per *graph*, so queries against different graphs run
//! concurrently while queries against the same graph serialize — which is exactly
//! what makes the [`DynamicRfcSolver`]'s per-component result caches a cross-client
//! shared query cache (client A's solve warms client B's, and an `update` from one
//! client invalidates precisely what every other client observes).

use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock, TryLockError};
use std::time::Duration;

use rfc_core::enumerate::LimitSink;
use rfc_core::portfolio::PortfolioConfig;
use rfc_core::{CancelToken, CliqueSink, DynamicRfcSolver, FairClique, SinkFlow};
use rfc_graph::io::read_graph_from_path;
use rfc_graph::json::JsonValue;
use rfc_graph::UpdateOp;

use crate::protocol::{
    clique_stream_line, enumerate_response, solve_response, EnumSpec, ErrorCode, ErrorResponse,
    QuerySpec, Request,
};
use crate::{Counters, Flow, Handler};

/// Tuning knobs of a [`LocalEngine`].
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {
    /// Per-`(k, reduction-config)` LRU capacity of the dynamic solver's
    /// per-component result caches (`None` = unbounded, `Some(0)` = cache nothing).
    pub cache_capacity: Option<usize>,
    /// Wall-clock budget applied to solve/enumerate requests that set no
    /// `time_limit_ms` of their own (`None` = unlimited by default).
    pub default_time_limit: Option<Duration>,
}

/// One registered graph: the dynamic solver behind its own lock.
struct GraphSlot {
    solver: Mutex<DynamicRfcSolver>,
}

/// The in-process request handler: named-graph registry + request dispatch.
pub struct LocalEngine {
    config: EngineConfig,
    graphs: RwLock<HashMap<String, Arc<GraphSlot>>>,
    shutting_down: AtomicBool,
    inflight: Mutex<HashMap<u64, CancelToken>>,
    next_query_id: AtomicU64,
    counters: Arc<Counters>,
}

impl LocalEngine {
    /// Creates an empty engine sharing the given daemon counters.
    pub fn new(config: EngineConfig, counters: Arc<Counters>) -> Self {
        Self {
            config,
            graphs: RwLock::new(HashMap::new()),
            shutting_down: AtomicBool::new(false),
            inflight: Mutex::new(HashMap::new()),
            next_query_id: AtomicU64::new(0),
            counters,
        }
    }

    /// Whether a `shutdown` request has been handled.
    pub fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::Relaxed)
    }

    /// Cancels every in-flight query (each returns its verified best-so-far).
    pub fn cancel_inflight(&self) {
        let inflight = self.inflight.lock().expect("inflight lock poisoned");
        for token in inflight.values() {
            token.cancel();
        }
    }

    fn slot(&self, graph: &str) -> Result<Arc<GraphSlot>, ErrorResponse> {
        self.graphs
            .read()
            .expect("registry lock poisoned")
            .get(graph)
            .cloned()
            .ok_or_else(|| {
                ErrorResponse::new(
                    ErrorCode::UnknownGraph,
                    format!("no graph named `{graph}` is loaded"),
                )
            })
    }

    /// Registers a cancel token for the duration of the returned guard.
    fn track_query(&self, token: CancelToken) -> QueryGuard<'_> {
        let id = self.next_query_id.fetch_add(1, Ordering::Relaxed);
        self.inflight
            .lock()
            .expect("inflight lock poisoned")
            .insert(id, token);
        QueryGuard { engine: self, id }
    }

    fn handle_load(&self, graph: &str, path: &str) -> Result<String, ErrorResponse> {
        let loaded = read_graph_from_path(path).map_err(|e| {
            ErrorResponse::new(ErrorCode::LoadFailed, format!("cannot load `{path}`: {e}"))
        })?;
        let (n, m) = (loaded.num_vertices(), loaded.num_edges());
        let solver = DynamicRfcSolver::new(loaded).with_cache_capacity(self.config.cache_capacity);
        let slot = Arc::new(GraphSlot {
            solver: Mutex::new(solver),
        });
        self.graphs
            .write()
            .expect("registry lock poisoned")
            .insert(graph.to_string(), slot);
        Ok(format!(
            "{{\"ok\":true,\"op\":\"load\",\"graph\":\"{}\",\"n\":{},\"m\":{}}}",
            rfc_graph::json::escaped(graph),
            n,
            m
        ))
    }

    fn handle_solve(&self, graph: &str, spec: &QuerySpec) -> Result<String, ErrorResponse> {
        let slot = self.slot(graph)?;
        let token = CancelToken::new();
        let _guard = self.track_query(token.clone());
        let query = spec.to_query(token, self.config.default_time_limit);
        let mut solver = slot.solver.lock().expect("solver lock poisoned");
        let solution = if let Some(members) = spec.portfolio {
            // The racing portfolio solves the committed graph's solver, reading
            // the reduced graphs the dynamic solver's queries built or spliced; the
            // per-component dynamic cache is bypassed, so budget-bound answers
            // always carry a freshly certified upper bound. The slot lock is
            // released once the snapshot is taken so updates are not blocked for
            // the whole (potentially long) race.
            let snapshot = solver.snapshot();
            drop(solver);
            let config = PortfolioConfig::new(members).with_anytime(spec.anytime);
            snapshot
                .solve_portfolio(&query, &config)
                .map_err(|e| ErrorResponse::new(ErrorCode::InvalidParams, e.to_string()))?
                .solution
        } else {
            solver
                .solve(&query)
                .map_err(|e| ErrorResponse::new(ErrorCode::InvalidParams, e.to_string()))?
        };
        Ok(solve_response(graph, &solution))
    }

    fn handle_enumerate(
        &self,
        graph: &str,
        spec: &EnumSpec,
        emit: &mut dyn FnMut(&str) -> io::Result<()>,
    ) -> Result<Result<String, ErrorResponse>, io::Error> {
        let slot = match self.slot(graph) {
            Ok(slot) => slot,
            Err(e) => return Ok(Err(e)),
        };
        let token = CancelToken::new();
        let _guard = self.track_query(token.clone());
        let query = spec.to_query(token, self.config.default_time_limit);
        let mut sink = EmitSink { emit, error: None };
        let mut solver = slot.solver.lock().expect("solver lock poisoned");
        let outcome = match spec.limit {
            Some(limit) => {
                let mut limited = LimitSink::new(&mut sink, limit);
                solver.enumerate(&query, &mut limited)
            }
            None => solver.enumerate(&query, &mut sink),
        };
        drop(solver);
        if let Some(error) = sink.error {
            // The client hung up mid-stream: surface the I/O error so the
            // connection loop closes instead of writing a terminal line into the void.
            return Err(error);
        }
        Ok(match outcome {
            Ok(outcome) => Ok(enumerate_response(
                graph,
                outcome.emitted,
                outcome.termination,
            )),
            Err(e) => Err(ErrorResponse::new(ErrorCode::InvalidParams, e.to_string())),
        })
    }

    fn handle_update(&self, graph: &str, ops: &[UpdateOp]) -> Result<String, ErrorResponse> {
        let slot = self.slot(graph)?;
        let mut solver = slot.solver.lock().expect("solver lock poisoned");
        // The response counts the graph ops and sums every commit the request makes.
        let (mut graph_ops, mut changed_vertices) = (0usize, 0);
        for (i, op) in ops.iter().enumerate() {
            match solver.apply_op(op) {
                Ok(None) => graph_ops += 1,
                Ok(Some(commit)) => changed_vertices += commit.changed_vertices,
                Err(e) => {
                    // A rejected request leaves the graph as it found it: the ops it
                    // buffered before the bad one must not ride along with the next
                    // `update`. An explicit `commit` op before the bad one stands.
                    solver.rollback();
                    return Err(ErrorResponse::new(
                        ErrorCode::InvalidParams,
                        format!("op {i} ({}) rejected: {e}", op.to_jsonl()),
                    ));
                }
            }
        }
        // An implicit trailing commit: a request is a batch.
        let outcome = solver.commit();
        let response = JsonValue::object(vec![
            ("ok", JsonValue::from(true)),
            ("op", JsonValue::string("update")),
            ("graph", JsonValue::string(graph)),
            ("ops", JsonValue::from(graph_ops)),
            (
                "changed_vertices",
                JsonValue::from(changed_vertices + outcome.changed_vertices),
            ),
            ("reductions_kept", JsonValue::from(outcome.reductions_kept)),
            (
                "reductions_invalidated",
                JsonValue::from(outcome.reductions_invalidated),
            ),
            ("commits", JsonValue::from(solver.commits())),
            ("n", JsonValue::from(outcome.num_vertices)),
            ("m", JsonValue::from(outcome.num_edges)),
        ]);
        Ok(response.to_string())
    }

    fn handle_metrics(&self) -> String {
        JsonValue::object(vec![
            ("ok", JsonValue::from(true)),
            ("op", JsonValue::string("metrics")),
            (
                "exposition",
                JsonValue::string(rfc_obs::metrics::global().render()),
            ),
        ])
        .to_string()
    }

    fn handle_stats(&self) -> String {
        let graphs = self.graphs.read().expect("registry lock poisoned");
        let mut names: Vec<&String> = graphs.keys().collect();
        names.sort();
        let mut entries = Vec::with_capacity(names.len());
        for name in names {
            // A graph whose query or update holds its lock is reported busy, so
            // `stats` never waits behind one.
            let solver = match graphs[name].solver.try_lock() {
                Ok(solver) => solver,
                Err(TryLockError::WouldBlock) => {
                    entries.push(JsonValue::object(vec![
                        ("name", JsonValue::string(name.as_str())),
                        ("busy", JsonValue::from(true)),
                    ]));
                    continue;
                }
                Err(TryLockError::Poisoned(_)) => panic!("solver lock poisoned"),
            };
            let cache = solver.cache_stats();
            let cache_json = |s: rfc_core::CacheStats| {
                JsonValue::object(vec![
                    ("len", JsonValue::from(s.len)),
                    ("hits", JsonValue::from(s.hits)),
                    ("misses", JsonValue::from(s.misses)),
                    ("evictions", JsonValue::from(s.evictions)),
                ])
            };
            entries.push(JsonValue::object(vec![
                ("name", JsonValue::string(name.as_str())),
                ("n", JsonValue::from(solver.graph().num_vertices())),
                ("m", JsonValue::from(solver.graph().num_edges())),
                ("commits", JsonValue::from(solver.commits())),
                ("pending_ops", JsonValue::from(solver.pending_ops())),
                (
                    "cache",
                    JsonValue::object(vec![
                        ("solve", cache_json(cache.solve)),
                        ("enumerate", cache_json(cache.enumerate)),
                    ]),
                ),
            ]));
        }
        JsonValue::object(vec![
            ("ok", JsonValue::from(true)),
            ("op", JsonValue::string("stats")),
            ("graphs", JsonValue::Array(entries)),
            (
                "counters",
                JsonValue::object(vec![
                    (
                        "requests",
                        JsonValue::from(Counters::read(&self.counters.requests)),
                    ),
                    (
                        "errors",
                        JsonValue::from(Counters::read(&self.counters.errors)),
                    ),
                    (
                        "overloaded",
                        JsonValue::from(Counters::read(&self.counters.overloaded)),
                    ),
                ]),
            ),
        ])
        .to_string()
    }
}

impl Handler for LocalEngine {
    fn handle(&self, line: &str, emit: &mut dyn FnMut(&str) -> io::Result<()>) -> io::Result<Flow> {
        self.handle_parsed(Request::parse(line), emit)
    }
}

impl LocalEngine {
    /// Handles one request line that the caller has already parsed, so the
    /// server, which parses each line to decide admission, parses it only once.
    pub(crate) fn handle_parsed(
        &self,
        request: Result<Request, ErrorResponse>,
        emit: &mut dyn FnMut(&str) -> io::Result<()>,
    ) -> io::Result<Flow> {
        Counters::bump(&self.counters.requests);
        let request = match request {
            Ok(request) => request,
            Err(error) => {
                Counters::bump(&self.counters.errors);
                emit(&error.to_line())?;
                return Ok(Flow::Continue);
            }
        };
        if self.is_shutting_down()
            && !matches!(
                request,
                Request::Stats | Request::Metrics | Request::Shutdown
            )
        {
            Counters::bump(&self.counters.errors);
            emit(
                &ErrorResponse::new(ErrorCode::ShuttingDown, "the daemon is shutting down")
                    .to_line(),
            )?;
            return Ok(Flow::Continue);
        }
        let started = std::time::Instant::now();
        let result = match &request {
            Request::Load { graph, path } => self.handle_load(graph, path),
            Request::Solve { graph, spec } => self.handle_solve(graph, spec),
            Request::Enumerate { graph, spec } => self.handle_enumerate(graph, spec, emit)?,
            Request::Update { graph, ops } => self.handle_update(graph, ops),
            Request::Stats => Ok(self.handle_stats()),
            Request::Metrics => Ok(self.handle_metrics()),
            Request::Ping { sleep_ms } => {
                if *sleep_ms > 0 {
                    std::thread::sleep(Duration::from_millis(*sleep_ms));
                }
                Ok("{\"ok\":true,\"op\":\"ping\"}".to_string())
            }
            Request::Shutdown => {
                self.shutting_down.store(true, Ordering::Relaxed);
                self.cancel_inflight();
                Ok("{\"ok\":true,\"op\":\"shutdown\"}".to_string())
            }
        };
        rfc_obs::metrics::global()
            .histogram(&format!(
                "rfc_request_latency_us{{op=\"{}\"}}",
                request.op()
            ))
            .observe(started.elapsed().as_micros() as u64);
        let shutdown = matches!(request, Request::Shutdown);
        match result {
            Ok(line) => {
                // A client may close its socket right after sending `shutdown`
                // without reading the response; the daemon must still stop, so
                // only non-shutdown emit failures tear down the connection.
                if let Err(err) = emit(&line) {
                    if !shutdown {
                        return Err(err);
                    }
                }
            }
            Err(error) => {
                Counters::bump(&self.counters.errors);
                emit(&error.to_line())?;
            }
        }
        Ok(if shutdown {
            Flow::Shutdown
        } else {
            Flow::Continue
        })
    }
}

/// Removes the query's cancel token from the in-flight registry on drop.
struct QueryGuard<'a> {
    engine: &'a LocalEngine,
    id: u64,
}

impl Drop for QueryGuard<'_> {
    fn drop(&mut self) {
        self.engine
            .inflight
            .lock()
            .expect("inflight lock poisoned")
            .remove(&self.id);
    }
}

/// Streams enumeration cliques straight to the connection, stopping the search the
/// moment the client hangs up.
struct EmitSink<'a> {
    emit: &'a mut dyn FnMut(&str) -> io::Result<()>,
    error: Option<io::Error>,
}

impl CliqueSink for EmitSink<'_> {
    fn emit(&mut self, clique: FairClique) -> SinkFlow {
        match (self.emit)(&clique_stream_line(&clique)) {
            Ok(()) => SinkFlow::Continue,
            Err(error) => {
                self.error = Some(error);
                SinkFlow::Stop
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfc_core::solver::{Budget, Query, RfcSolver};
    use rfc_core::FairnessModel;
    use rfc_graph::{fixtures, Attribute, AttributedGraph, GraphBuilder};

    fn engine_with_fig1() -> (LocalEngine, tempdir::TempPath) {
        engine_with("fig1", &fixtures::fig1_graph())
    }

    /// An engine with `graph` loaded under `name`.
    fn engine_with(name: &str, graph: &AttributedGraph) -> (LocalEngine, tempdir::TempPath) {
        let dir = tempdir::TempPath::new("rfc-serve-engine");
        let path = dir.path().join(format!("{name}.graph"));
        rfc_graph::io::write_graph_to_path(graph, &path).unwrap();
        let engine = LocalEngine::new(EngineConfig::default(), Arc::new(Counters::default()));
        let mut lines = Vec::new();
        let flow = engine
            .handle(
                &format!(
                    "{{\"op\":\"load\",\"graph\":\"{name}\",\"path\":\"{}\"}}",
                    path.display()
                ),
                &mut |line| {
                    lines.push(line.to_string());
                    Ok(())
                },
            )
            .unwrap();
        assert_eq!(flow, Flow::Continue);
        let loaded = JsonValue::parse(&lines[0]).unwrap();
        assert_eq!(loaded.get("ok").and_then(JsonValue::as_bool), Some(true));
        (engine, dir)
    }

    fn run(engine: &LocalEngine, line: &str) -> (Vec<JsonValue>, Flow) {
        let mut lines = Vec::new();
        let flow = engine
            .handle(line, &mut |line| {
                lines.push(JsonValue::parse(line).expect("responses are valid JSON"));
                Ok(())
            })
            .unwrap();
        (lines, flow)
    }

    /// Minimal self-cleaning temp dir (std-only; no tempfile crate in the container).
    mod tempdir {
        use std::path::{Path, PathBuf};
        use std::sync::atomic::{AtomicU64, Ordering};

        pub struct TempPath(PathBuf);

        impl TempPath {
            pub fn new(prefix: &str) -> Self {
                static SEQ: AtomicU64 = AtomicU64::new(0);
                let dir = std::env::temp_dir().join(format!(
                    "{prefix}-{}-{}",
                    std::process::id(),
                    SEQ.fetch_add(1, Ordering::Relaxed)
                ));
                std::fs::create_dir_all(&dir).unwrap();
                TempPath(dir)
            }

            pub fn path(&self) -> &Path {
                &self.0
            }
        }

        impl Drop for TempPath {
            fn drop(&mut self) {
                let _ = std::fs::remove_dir_all(&self.0);
            }
        }
    }

    #[test]
    fn solve_matches_direct_library_answer() {
        let (engine, _dir) = engine_with_fig1();
        let (lines, _) = run(&engine, r#"{"op":"solve","graph":"fig1","k":3,"delta":1}"#);
        assert_eq!(lines.len(), 1);
        let response = &lines[0];
        assert_eq!(response.get("ok").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(
            response.get("termination").and_then(JsonValue::as_str),
            Some("optimal")
        );
        let cliques = response
            .get("cliques")
            .and_then(JsonValue::as_array)
            .unwrap();
        assert_eq!(
            cliques[0].get("size").and_then(JsonValue::as_u64),
            Some(7),
            "fig. 1 maximum relative fair clique has 7 vertices"
        );
    }

    #[test]
    fn portfolio_solve_matches_the_plain_answer_and_certifies_the_gap() {
        let (engine, _dir) = engine_with_fig1();
        let (lines, _) = run(
            &engine,
            r#"{"op":"solve","graph":"fig1","k":3,"delta":1,"portfolio":3,"anytime":true}"#,
        );
        assert_eq!(lines.len(), 1);
        let response = &lines[0];
        assert_eq!(response.get("ok").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(
            response.get("termination").and_then(JsonValue::as_str),
            Some("optimal")
        );
        let cliques = response
            .get("cliques")
            .and_then(JsonValue::as_array)
            .unwrap();
        assert_eq!(cliques[0].get("size").and_then(JsonValue::as_u64), Some(7));
        assert_eq!(
            response.get("upper_bound").and_then(JsonValue::as_u64),
            Some(7)
        );
        assert_eq!(
            response.get("optimality_gap").and_then(JsonValue::as_u64),
            Some(0)
        );

        // `anytime` without `portfolio` is a typed error.
        let bad = r#"{"op":"solve","graph":"fig1","k":3,"delta":1,"anytime":true}"#;
        let (lines, flow) = run(&engine, bad);
        assert_eq!(flow, Flow::Continue);
        assert_eq!(
            lines[0].get("error").and_then(JsonValue::as_str),
            Some("invalid_params"),
            "{bad}"
        );
    }

    /// Fig. 1 on ids 0..15 beside a seeded random blob of 40 vertices (edge
    /// probability 0.6) on ids 15..55.
    fn fig1_beside_a_random_blob() -> AttributedGraph {
        let fig1 = fixtures::fig1_graph();
        let mut state = 0x5eed_u64;
        let mut draw = move |bound: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        let mut attributes = fig1.attributes().to_vec();
        attributes.extend((0..40).map(|_| [Attribute::A, Attribute::B][draw(2) as usize]));
        let mut builder = GraphBuilder::with_attributes(attributes);
        builder.add_edges(fig1.edge_list().iter().copied());
        for u in 15..55u32 {
            builder.add_edges((u + 1..55).filter(|_| draw(5) < 3).map(|v| (u, v)));
        }
        builder.build().unwrap()
    }

    #[test]
    fn portfolio_races_on_the_committed_graph_like_a_fresh_solver() {
        let (engine, _dir) = engine_with("g", &fig1_beside_a_random_blob());
        let solve = r#"{"op":"solve","graph":"g","k":3,"delta":1}"#;
        let (lines, _) = run(&engine, solve);
        assert_eq!(lines[0].get("ok").and_then(JsonValue::as_bool), Some(true));
        // Edge (0, 1) lies outside the reduced graph at k = 3; (15, 16) is new.
        let graph = fig1_beside_a_random_blob();
        assert!(!graph.has_edge(15, 16));
        let update = r#"{"op":"update","graph":"g","ops":[{"op":"remove_edge","u":0,"v":1},{"op":"insert_edge","u":15,"v":16}]}"#;
        let (lines, _) = run(&engine, update);
        assert_eq!(
            lines[0]
                .get("reductions_invalidated")
                .and_then(JsonValue::as_u64),
            Some(1)
        );
        let (lines, _) = run(&engine, solve);
        let field = |line: &JsonValue, name: &str| line.get(name).and_then(JsonValue::as_u64);
        let hit = lines[0].get("reduction_cache_hit");
        assert_eq!(hit.and_then(JsonValue::as_bool), Some(false));

        let committed = {
            let slot = engine.slot("g").unwrap();
            let solver = slot.solver.lock().unwrap();
            solver.graph().clone()
        };
        let scratch = RfcSolver::new(committed);
        for budget in ["", r#","node_limit":0"#] {
            let line =
                format!(r#"{{"op":"solve","graph":"g","k":3,"delta":1,"portfolio":2{budget}}}"#);
            let (lines, _) = run(&engine, &line);
            let served = &lines[0];
            let mut query = Query::new(FairnessModel::Relative { k: 3, delta: 1 });
            if !budget.is_empty() {
                query = query.with_budget(Budget::unlimited().with_node_limit(0));
            }
            let raced = scratch
                .solve_portfolio(&query, &PortfolioConfig::new(2))
                .unwrap()
                .solution;
            let best = served
                .get("cliques")
                .and_then(JsonValue::as_array)
                .and_then(|cliques| cliques.first())
                .and_then(|clique| field(clique, "size"));
            assert_eq!(
                served.get("termination").and_then(JsonValue::as_str),
                Some(crate::protocol::termination_str(raced.termination)),
                "{line}"
            );
            assert_eq!(best, Some(raced.best_size() as u64), "{line}");
            let bound = raced.upper_bound.map(|b| b as u64);
            assert_eq!(field(served, "upper_bound"), bound, "{line}");
            let gap = raced.optimality_gap().map(|g| g as u64);
            assert_eq!(field(served, "optimality_gap"), gap, "{line}");
            // The race read the reduced graph the plain solve spliced.
            let hit = served.get("reduction_cache_hit");
            assert_eq!(hit.and_then(JsonValue::as_bool), Some(true), "{line}");
        }
    }

    #[test]
    fn enumerate_streams_then_terminates() {
        let (engine, _dir) = engine_with_fig1();
        let (lines, _) = run(
            &engine,
            r#"{"op":"enumerate","graph":"fig1","k":2,"delta":1,"limit":3}"#,
        );
        let (stream, terminal) = lines.split_at(lines.len() - 1);
        assert_eq!(stream.len(), 3);
        for line in stream {
            assert!(line.get("ok").is_none(), "stream lines carry no verdict");
            assert!(line.get("clique").is_some());
        }
        assert_eq!(
            terminal[0].get("emitted").and_then(JsonValue::as_u64),
            Some(3)
        );
        assert_eq!(
            terminal[0].get("termination").and_then(JsonValue::as_str),
            Some("sink_stopped")
        );
    }

    #[test]
    fn typed_errors_keep_the_connection() {
        let (engine, _dir) = engine_with_fig1();
        // Thread counts over the bound are rejected before any thread starts.
        let over = crate::protocol::MAX_QUERY_THREADS + 1;
        let too_many_threads = [
            format!(r#"{{"op":"solve","graph":"fig1","k":3,"threads":{over}}}"#),
            format!(r#"{{"op":"enumerate","graph":"fig1","k":3,"threads":{over}}}"#),
            format!(r#"{{"op":"solve","graph":"fig1","k":3,"portfolio":{over}}}"#),
        ];
        let too_many_threads = too_many_threads
            .iter()
            .map(|line| (line.as_str(), "invalid_params"));
        for (line, code) in [
            ("{nope", "parse_error"),
            (r#"{"op":"solve","graph":"missing","k":2}"#, "unknown_graph"),
            (r#"{"op":"solve","graph":"fig1","k":0}"#, "invalid_params"),
            (
                r#"{"op":"load","graph":"g","path":"/nonexistent/g.graph"}"#,
                "load_failed",
            ),
        ]
        .into_iter()
        .chain(too_many_threads)
        {
            let (lines, flow) = run(&engine, line);
            assert_eq!(flow, Flow::Continue, "{line}");
            assert_eq!(
                lines[0].get("error").and_then(JsonValue::as_str),
                Some(code),
                "{line}"
            );
        }
        // The engine still answers after every error, and the graph a rejected
        // request named still solves.
        let (lines, _) = run(&engine, r#"{"op":"ping"}"#);
        assert_eq!(lines[0].get("ok").and_then(JsonValue::as_bool), Some(true));
        let (lines, _) = run(&engine, r#"{"op":"solve","graph":"fig1","k":3,"delta":1}"#);
        let cliques = lines[0].get("cliques").and_then(JsonValue::as_array);
        assert_eq!(
            cliques
                .and_then(|c| c[0].get("size"))
                .and_then(JsonValue::as_u64),
            Some(7)
        );
    }

    #[test]
    fn update_commits_and_solves_see_the_new_graph() {
        let (engine, _dir) = engine_with_fig1();
        let (before, _) = run(&engine, r#"{"op":"solve","graph":"fig1","k":3,"delta":1}"#);
        let best_before = before[0]
            .get("cliques")
            .and_then(JsonValue::as_array)
            .unwrap()[0]
            .get("size")
            .and_then(JsonValue::as_u64)
            .unwrap();
        // Remove a vertex of the winning clique; the answer must shrink or move.
        let (update, _) = run(
            &engine,
            r#"{"op":"update","graph":"fig1","ops":[{"op":"remove_vertex","v":6}]}"#,
        );
        assert_eq!(update[0].get("ok").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(update[0].get("ops").and_then(JsonValue::as_u64), Some(1));
        let (after, _) = run(&engine, r#"{"op":"solve","graph":"fig1","k":3,"delta":1}"#);
        let best_after = after[0]
            .get("cliques")
            .and_then(JsonValue::as_array)
            .unwrap()
            .first()
            .and_then(|c| c.get("size"))
            .and_then(JsonValue::as_u64)
            .unwrap_or(0);
        assert!(best_after <= best_before);
        // The update really was committed.
        assert!(update[0].get("commits").and_then(JsonValue::as_u64) >= Some(1));
    }

    #[test]
    fn update_reports_every_commit_of_its_request() {
        let update = |ops: &str| {
            let (engine, _dir) = engine_with_fig1();
            let line = format!(r#"{{"op":"update","graph":"fig1","ops":[{ops}]}}"#);
            let (lines, _) = run(&engine, &line);
            let field = |name| lines[0].get(name).and_then(JsonValue::as_u64);
            (field("ops"), field("changed_vertices"), field("m"))
        };
        let alone = update(r#"{"op":"remove_vertex","v":3}"#);
        let fig1 = fixtures::fig1_graph();
        let m = (fig1.num_edges() - fig1.degree(3)) as u64;
        assert_eq!((alone.0, alone.2), (Some(1), Some(m)));
        assert!(alone.1 > Some(0));
        // A `commit` op is no graph op, and the commit it makes is reported.
        let committed = update(r#"{"op":"remove_vertex","v":3},{"op":"commit"}"#);
        assert_eq!(committed, alone);
    }

    #[test]
    fn rejected_update_leaves_the_graph_unchanged() {
        let (engine, _dir) = engine_with_fig1();
        // Vertex 6 belongs to the size-7 answer; vertex 99 does not exist.
        let (lines, flow) = run(
            &engine,
            r#"{"op":"update","graph":"fig1","ops":[{"op":"remove_vertex","v":6},{"op":"insert_edge","u":0,"v":99}]}"#,
        );
        assert_eq!(flow, Flow::Continue);
        assert_eq!(
            lines[0].get("error").and_then(JsonValue::as_str),
            Some("invalid_params")
        );
        let (stats, _) = run(&engine, r#"{"op":"stats"}"#);
        let graphs = stats[0]
            .get("graphs")
            .and_then(JsonValue::as_array)
            .unwrap();
        assert_eq!(
            graphs[0].get("pending_ops").and_then(JsonValue::as_u64),
            Some(0)
        );
        // The next update commits nothing of the rejected one.
        let (update, _) = run(&engine, r#"{"op":"update","graph":"fig1","ops":[]}"#);
        assert_eq!(
            update[0]
                .get("changed_vertices")
                .and_then(JsonValue::as_u64),
            Some(0)
        );
        assert_eq!(
            update[0].get("m").and_then(JsonValue::as_u64),
            Some(fixtures::fig1_graph().num_edges() as u64)
        );
        let (solve, _) = run(&engine, r#"{"op":"solve","graph":"fig1","k":3,"delta":1}"#);
        let cliques = solve[0]
            .get("cliques")
            .and_then(JsonValue::as_array)
            .unwrap();
        assert_eq!(cliques[0].get("size").and_then(JsonValue::as_u64), Some(7));
    }

    #[test]
    fn stats_reports_graphs_and_counters() {
        let (engine, _dir) = engine_with_fig1();
        let _ = run(&engine, r#"{"op":"solve","graph":"fig1","k":3,"delta":1}"#);
        let (lines, _) = run(&engine, r#"{"op":"stats"}"#);
        let stats = &lines[0];
        let graphs = stats.get("graphs").and_then(JsonValue::as_array).unwrap();
        assert_eq!(graphs.len(), 1);
        assert_eq!(
            graphs[0].get("name").and_then(JsonValue::as_str),
            Some("fig1")
        );
        assert!(stats
            .get("counters")
            .and_then(|c| c.get("requests"))
            .and_then(JsonValue::as_u64)
            .is_some());
    }

    #[test]
    fn stats_reports_a_graph_busy_instead_of_waiting_for_its_lock() {
        let (engine, _dir) = engine_with_fig1();
        let engine = &engine;
        let (entered_tx, entered_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let busy = std::thread::scope(|scope| {
            scope.spawn(move || {
                let mut first = true;
                let request = r#"{"op":"enumerate","graph":"fig1","k":3,"delta":1}"#;
                let mut emit = |_: &str| {
                    if std::mem::take(&mut first) {
                        // Park on the first clique, holding the graph's lock, until
                        // `stats` has answered (or 5 s have passed).
                        entered_tx.send(()).unwrap();
                        let _ = release_rx.recv_timeout(Duration::from_secs(5));
                    }
                    Ok(())
                };
                engine.handle(request, &mut emit).unwrap();
            });
            entered_rx.recv().unwrap();
            let (lines, _) = run(engine, r#"{"op":"stats"}"#);
            let _ = release_tx.send(());
            lines
        });
        let graphs = busy[0].get("graphs").and_then(JsonValue::as_array).unwrap();
        assert_eq!(
            graphs[0].get("name").and_then(JsonValue::as_str),
            Some("fig1")
        );
        assert_eq!(
            graphs[0].get("busy").and_then(JsonValue::as_bool),
            Some(true)
        );
        assert!(graphs[0].get("n").is_none());
        // Once the query is done, the graph reports in full again.
        let (lines, _) = run(engine, r#"{"op":"stats"}"#);
        let graphs = lines[0]
            .get("graphs")
            .and_then(JsonValue::as_array)
            .unwrap();
        assert!(graphs[0].get("busy").is_none());
        assert_eq!(graphs[0].get("n").and_then(JsonValue::as_u64), Some(15));
    }

    #[test]
    fn shutdown_flips_flow_and_rejects_new_work() {
        let (engine, _dir) = engine_with_fig1();
        let (lines, flow) = run(&engine, r#"{"op":"shutdown"}"#);
        assert_eq!(flow, Flow::Shutdown);
        assert_eq!(lines[0].get("ok").and_then(JsonValue::as_bool), Some(true));
        let (lines, flow) = run(&engine, r#"{"op":"solve","graph":"fig1","k":3}"#);
        assert_eq!(flow, Flow::Continue);
        assert_eq!(
            lines[0].get("error").and_then(JsonValue::as_str),
            Some("shutting_down")
        );
        // Stats and metrics still answer during shutdown.
        let (lines, _) = run(&engine, r#"{"op":"stats"}"#);
        assert_eq!(lines[0].get("ok").and_then(JsonValue::as_bool), Some(true));
        let (lines, _) = run(&engine, r#"{"op":"metrics"}"#);
        assert_eq!(lines[0].get("ok").and_then(JsonValue::as_bool), Some(true));
    }

    #[test]
    fn metrics_returns_exposition_text_with_request_latencies() {
        let (engine, _dir) = engine_with_fig1();
        let _ = run(&engine, r#"{"op":"solve","graph":"fig1","k":3,"delta":1}"#);
        let (lines, flow) = run(&engine, r#"{"op":"metrics"}"#);
        assert_eq!(flow, Flow::Continue);
        let response = &lines[0];
        assert_eq!(response.get("ok").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(
            response.get("op").and_then(JsonValue::as_str),
            Some("metrics")
        );
        let text = response
            .get("exposition")
            .and_then(JsonValue::as_str)
            .expect("metrics response carries the exposition text");
        // The solve above must have recorded a per-op latency observation, and
        // the exposition must carry Prometheus TYPE headers.
        assert!(
            text.contains("# TYPE rfc_request_latency_us histogram"),
            "{text}"
        );
        assert!(
            text.contains("rfc_request_latency_us_count{op=\"solve\"}"),
            "{text}"
        );
        assert!(text.contains("rfc_dynamic_cache_misses_total"), "{text}");
        assert!(text.contains("rfc_search_solves_total"), "{text}");
    }
}
