//! The `maxfaircliqued` wire protocol: line-delimited JSON over TCP.
//!
//! One JSON object per line in each direction. Every request produces **exactly one
//! terminal response line** — an object with an `"ok"` field — optionally preceded
//! by stream lines (objects *without* an `"ok"` field; today only the
//! `{"clique":…}` lines of an `enumerate`). Clients therefore read lines until they
//! see `"ok"`.
//!
//! ## Requests
//!
//! ```text
//! {"op":"load","graph":"g","path":"/data/g.graph"}
//! {"op":"solve","graph":"g","k":3,"delta":1}
//! {"op":"solve","graph":"g","model":"weak","k":2,"top":5,"time_limit_ms":500}
//! {"op":"enumerate","graph":"g","k":2,"delta":1,"min_size":4,"limit":100}
//! {"op":"update","graph":"g","ops":[{"op":"insert_edge","u":3,"v":9},{"op":"commit"}]}
//! {"op":"stats"}
//! {"op":"metrics"}
//! {"op":"ping","sleep_ms":100}
//! {"op":"shutdown"}
//! ```
//!
//! `model` is `"relative"` (default), `"weak"` or `"strong"`; `delta` applies to the
//! relative model only (default 1). `top` switches solve to the top-k objective. An
//! enumerate `limit` is at least 1.
//! `threads` sets the per-query search parallelism (default serial: the daemon
//! parallelizes across clients, not within queries). `threads` (solve and enumerate)
//! and `portfolio` are at most [`MAX_QUERY_THREADS`]; a larger value is
//! `invalid_params`. The `update` ops array reuses the [`UpdateOp`] JSONL objects
//! verbatim. Fields a request does not use are ignored.
//!
//! ## Responses
//!
//! ```text
//! {"ok":true,"op":"load","graph":"g","n":15,"m":37}
//! {"ok":true,"op":"solve","graph":"g","termination":"optimal","cliques":[{"size":7,…}],…}
//! {"clique":{"size":7,"count_a":4,"count_b":3,"vertices":[6,7,9,10,11,12,13]}}
//! {"ok":true,"op":"enumerate","graph":"g","emitted":5,"termination":"complete"}
//! {"ok":false,"error":"unknown_graph","message":"no graph named `h`"}
//! ```
//!
//! ## Error codes
//!
//! See [`ErrorCode`]; the daemon never answers a malformed or oversized line by
//! disconnecting — it answers with a typed error and keeps the connection.

use std::fmt::Write as _;
use std::time::Duration;

use rfc_core::{
    Budget, EnumQuery, EnumTermination, FairClique, FairnessModel, Objective, Query, Solution,
    Termination,
};
use rfc_graph::json::{escaped, JsonValue};
use rfc_graph::UpdateOp;

use rfc_core::enumerate::clique_json;
use rfc_core::search::ThreadCount;
use rfc_core::{CancelToken, SearchConfig};

/// Default maximum request-line length (1 MiB). Longer lines are drained and
/// answered with [`ErrorCode::LineTooLong`] without desynchronizing the stream.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// The largest `threads` (solve and enumerate) and `portfolio` a request may ask for.
/// Each is a count of OS threads the request spawns, so an unbounded value from a
/// client could exhaust the daemon's threads or memory while it holds the graph's
/// lock. Larger values are [`ErrorCode::InvalidParams`]. The library's
/// [`ThreadCount`] is not bounded.
pub const MAX_QUERY_THREADS: usize = 256;

/// Typed protocol error codes (the `"error"` field of a failed response).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The line was valid JSON but not a valid request.
    BadRequest,
    /// The line was not valid JSON.
    ParseError,
    /// The request line exceeded the daemon's line-length bound.
    LineTooLong,
    /// The named graph is not loaded.
    UnknownGraph,
    /// The request named parameters the solver rejects (bad k/δ/top, bad update op).
    InvalidParams,
    /// Admission control rejected the request: too many in flight and the wait
    /// queue is full. Back off and retry.
    Overloaded,
    /// The daemon could not read or parse the graph file of a `load`.
    LoadFailed,
    /// An I/O failure while serving the request.
    Io,
    /// The daemon is shutting down and no longer accepts work.
    ShuttingDown,
}

impl ErrorCode {
    /// The wire name of this code.
    pub fn as_str(&self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::ParseError => "parse_error",
            ErrorCode::LineTooLong => "line_too_long",
            ErrorCode::UnknownGraph => "unknown_graph",
            ErrorCode::InvalidParams => "invalid_params",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::LoadFailed => "load_failed",
            ErrorCode::Io => "io_error",
            ErrorCode::ShuttingDown => "shutting_down",
        }
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A typed protocol error: code plus human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorResponse {
    /// The machine-readable code.
    pub code: ErrorCode,
    /// The human-readable detail.
    pub message: String,
}

impl ErrorResponse {
    /// Builds an error with the given code and message.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        Self {
            code,
            message: message.into(),
        }
    }

    /// Renders the terminal error line (without trailing newline).
    pub fn to_line(&self) -> String {
        format!(
            "{{\"ok\":false,\"error\":\"{}\",\"message\":\"{}\"}}",
            self.code.as_str(),
            escaped(&self.message)
        )
    }
}

impl std::fmt::Display for ErrorResponse {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

/// Parameters of a `solve` request.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    /// Fairness model of the query.
    pub model: FairnessModel,
    /// `Some(n)` = top-n objective, `None` = single maximum.
    pub top: Option<usize>,
    /// Per-request wall-clock budget, milliseconds.
    pub time_limit_ms: Option<u64>,
    /// Per-request branch-node budget.
    pub node_limit: Option<u64>,
    /// Per-query search threads (default serial).
    pub threads: Option<usize>,
    /// Race this many diversified configurations on a shared incumbent.
    pub portfolio: Option<usize>,
    /// With `portfolio`: also run the anytime local-search improver.
    pub anytime: bool,
}

/// Parameters of an `enumerate` request.
#[derive(Debug, Clone, PartialEq)]
pub struct EnumSpec {
    /// Fairness model of the query.
    pub model: FairnessModel,
    /// Only emit cliques with at least this many vertices.
    pub min_size: usize,
    /// Stop after emitting this many cliques (at least 1 on the wire).
    pub limit: Option<u64>,
    /// Per-request wall-clock budget, milliseconds.
    pub time_limit_ms: Option<u64>,
    /// Per-request branch-node budget.
    pub node_limit: Option<u64>,
    /// Per-query search threads (default serial).
    pub threads: Option<usize>,
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Load (or replace) a named graph from a path on the daemon's filesystem.
    Load {
        /// Registry name of the graph.
        graph: String,
        /// Path to a plain-text graph file.
        path: String,
    },
    /// Solve for a maximum (or top-k) fair clique.
    Solve {
        /// Registry name of the graph.
        graph: String,
        /// Query parameters.
        spec: QuerySpec,
    },
    /// Stream every maximal fair clique.
    Enumerate {
        /// Registry name of the graph.
        graph: String,
        /// Query parameters.
        spec: EnumSpec,
    },
    /// Apply a batch of update ops (committed at the end of the batch).
    Update {
        /// Registry name of the graph.
        graph: String,
        /// Ops in [`UpdateOp`] JSONL object form, applied in order.
        ops: Vec<UpdateOp>,
    },
    /// Report daemon, graph and cache statistics.
    Stats,
    /// Dump the process-wide metrics registry in Prometheus text exposition
    /// format (bypasses admission control, like `stats`).
    Metrics,
    /// Health check; optionally holds an admission slot for `sleep_ms`.
    Ping {
        /// Milliseconds to sleep while holding the admission slot (testing and
        /// health-probe latency floors).
        sleep_ms: u64,
    },
    /// Stop the daemon: cancel in-flight work, close the listener.
    Shutdown,
}

impl Request {
    /// Parses one request line. Errors are typed: non-JSON input is
    /// [`ErrorCode::ParseError`], structurally invalid requests are
    /// [`ErrorCode::BadRequest`], bad model or budget numbers are
    /// [`ErrorCode::InvalidParams`].
    pub fn parse(line: &str) -> Result<Request, ErrorResponse> {
        let value = JsonValue::parse(line)
            .map_err(|e| ErrorResponse::new(ErrorCode::ParseError, e.to_string()))?;
        Self::from_json(&value)
    }

    /// Interprets a parsed JSON object as a request.
    pub fn from_json(value: &JsonValue) -> Result<Request, ErrorResponse> {
        let bad = |msg: &str| ErrorResponse::new(ErrorCode::BadRequest, msg);
        let op = value
            .get("op")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| bad("missing string field \"op\""))?;
        let graph = || -> Result<String, ErrorResponse> {
            value
                .get("graph")
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| bad("missing string field \"graph\""))
        };
        match op {
            "load" => Ok(Request::Load {
                graph: graph()?,
                path: value
                    .get("path")
                    .and_then(JsonValue::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| bad("missing string field \"path\""))?,
            }),
            "solve" => Ok(Request::Solve {
                graph: graph()?,
                spec: QuerySpec::from_json(value)?,
            }),
            "enumerate" => Ok(Request::Enumerate {
                graph: graph()?,
                spec: EnumSpec::from_json(value)?,
            }),
            "update" => {
                let ops = value
                    .get("ops")
                    .and_then(JsonValue::as_array)
                    .ok_or_else(|| bad("missing array field \"ops\""))?;
                let ops = ops
                    .iter()
                    .map(|op| {
                        UpdateOp::from_json(op)
                            .map_err(|e| ErrorResponse::new(ErrorCode::InvalidParams, e))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Request::Update {
                    graph: graph()?,
                    ops,
                })
            }
            "stats" => Ok(Request::Stats),
            "metrics" => Ok(Request::Metrics),
            "ping" => Ok(Request::Ping {
                sleep_ms: value
                    .get("sleep_ms")
                    .map(|v| {
                        v.as_u64()
                            .ok_or_else(|| bad("\"sleep_ms\" must be a non-negative integer"))
                    })
                    .transpose()?
                    .unwrap_or(0),
            }),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(bad(&format!("unknown op `{other}`"))),
        }
    }

    /// Renders the request as one wire line.
    pub fn to_line(&self) -> String {
        self.to_json().to_string()
    }

    /// The wire name of the request's op: the `"op"` field of its line and the
    /// `op` label of its latency histogram.
    pub fn op(&self) -> &'static str {
        match self {
            Request::Load { .. } => "load",
            Request::Solve { .. } => "solve",
            Request::Enumerate { .. } => "enumerate",
            Request::Update { .. } => "update",
            Request::Stats => "stats",
            Request::Metrics => "metrics",
            Request::Ping { .. } => "ping",
            Request::Shutdown => "shutdown",
        }
    }

    /// Renders the request as a JSON object.
    pub fn to_json(&self) -> JsonValue {
        let mut pairs = vec![("op", JsonValue::string(self.op()))];
        match self {
            Request::Load { graph, path } => {
                pairs.push(("graph", JsonValue::string(graph.clone())));
                pairs.push(("path", JsonValue::string(path.clone())));
            }
            Request::Solve { graph, spec } => {
                pairs.push(("graph", JsonValue::string(graph.clone())));
                model_fields(&mut pairs, spec.model);
                if let Some(top) = spec.top {
                    pairs.push(("top", JsonValue::from(top)));
                }
                budget_fields(
                    &mut pairs,
                    spec.time_limit_ms,
                    spec.node_limit,
                    spec.threads,
                );
                if let Some(n) = spec.portfolio {
                    pairs.push(("portfolio", JsonValue::from(n)));
                }
                if spec.anytime {
                    pairs.push(("anytime", JsonValue::from(true)));
                }
            }
            Request::Enumerate { graph, spec } => {
                pairs.push(("graph", JsonValue::string(graph.clone())));
                model_fields(&mut pairs, spec.model);
                if spec.min_size > 0 {
                    pairs.push(("min_size", JsonValue::from(spec.min_size)));
                }
                if let Some(limit) = spec.limit {
                    pairs.push(("limit", JsonValue::from(limit)));
                }
                budget_fields(
                    &mut pairs,
                    spec.time_limit_ms,
                    spec.node_limit,
                    spec.threads,
                );
            }
            Request::Update { graph, ops } => {
                pairs.push(("graph", JsonValue::string(graph.clone())));
                pairs.push((
                    "ops",
                    JsonValue::Array(ops.iter().map(UpdateOp::to_json).collect()),
                ));
            }
            Request::Ping { sleep_ms } if *sleep_ms > 0 => {
                pairs.push(("sleep_ms", JsonValue::from(*sleep_ms)));
            }
            Request::Stats | Request::Metrics | Request::Ping { .. } | Request::Shutdown => {}
        }
        JsonValue::object(pairs)
    }
}

impl QuerySpec {
    /// A default (maximum-objective, unbudgeted, serial) spec for a model.
    pub fn new(model: FairnessModel) -> Self {
        Self {
            model,
            top: None,
            time_limit_ms: None,
            node_limit: None,
            threads: None,
            portfolio: None,
            anytime: false,
        }
    }

    fn from_json(value: &JsonValue) -> Result<QuerySpec, ErrorResponse> {
        let (time_limit_ms, node_limit, threads) = budget_from_json(value)?;
        let portfolio = at_least_one(opt_thread_count(value, "portfolio")?, "portfolio")?;
        let anytime = match value.get("anytime") {
            None => false,
            Some(v) => v.as_bool().ok_or_else(|| {
                ErrorResponse::new(ErrorCode::InvalidParams, "\"anytime\" must be a boolean")
            })?,
        };
        if anytime && portfolio.is_none() {
            return Err(ErrorResponse::new(
                ErrorCode::InvalidParams,
                "\"anytime\" requires \"portfolio\"",
            ));
        }
        Ok(QuerySpec {
            model: model_from_json(value)?,
            top: opt_usize(value, "top")?,
            time_limit_ms,
            node_limit,
            threads,
            portfolio,
            anytime,
        })
    }

    /// Lowers the spec into a solver [`Query`] with the given cancel token, applying
    /// the daemon's default time limit when the client set none.
    pub fn to_query(&self, cancel: CancelToken, default_time_limit: Option<Duration>) -> Query {
        let mut query = Query::new(self.model).with_cancel(cancel);
        if let Some(top) = self.top {
            query = query.with_objective(Objective::TopK(top));
        }
        query = query.with_budget(build_budget(
            self.time_limit_ms,
            self.node_limit,
            default_time_limit,
        ));
        let threads = self.threads.map_or(ThreadCount::Serial, ThreadCount::from);
        query.with_config(SearchConfig::default().with_threads(threads))
    }
}

impl EnumSpec {
    /// A default (unbounded, serial) spec for a model.
    pub fn new(model: FairnessModel) -> Self {
        Self {
            model,
            min_size: 0,
            limit: None,
            time_limit_ms: None,
            node_limit: None,
            threads: None,
        }
    }

    fn from_json(value: &JsonValue) -> Result<EnumSpec, ErrorResponse> {
        let (time_limit_ms, node_limit, threads) = budget_from_json(value)?;
        Ok(EnumSpec {
            model: model_from_json(value)?,
            min_size: opt_usize(value, "min_size")?.unwrap_or(0),
            limit: at_least_one(opt_u64(value, "limit")?, "limit")?,
            time_limit_ms,
            node_limit,
            threads,
        })
    }

    /// Lowers the spec into a solver [`EnumQuery`] with the given cancel token.
    pub fn to_query(&self, cancel: CancelToken, default_time_limit: Option<Duration>) -> EnumQuery {
        EnumQuery::new(self.model)
            .with_min_size(self.min_size)
            .with_budget(build_budget(
                self.time_limit_ms,
                self.node_limit,
                default_time_limit,
            ))
            .with_cancel(cancel)
            .with_threads(self.threads.map_or(ThreadCount::Serial, ThreadCount::from))
    }
}

fn build_budget(
    time_limit_ms: Option<u64>,
    node_limit: Option<u64>,
    default_time_limit: Option<Duration>,
) -> Budget {
    let mut budget = Budget::unlimited();
    match time_limit_ms {
        Some(ms) => budget = budget.with_time_limit(Duration::from_millis(ms)),
        None => {
            if let Some(limit) = default_time_limit {
                budget = budget.with_time_limit(limit);
            }
        }
    }
    if let Some(nodes) = node_limit {
        budget = budget.with_node_limit(nodes);
    }
    budget
}

type BudgetFields = (Option<u64>, Option<u64>, Option<usize>);

fn budget_from_json(value: &JsonValue) -> Result<BudgetFields, ErrorResponse> {
    Ok((
        opt_u64(value, "time_limit_ms")?,
        opt_u64(value, "node_limit")?,
        opt_thread_count(value, "threads")?,
    ))
}

fn model_from_json(value: &JsonValue) -> Result<FairnessModel, ErrorResponse> {
    let invalid = |msg: String| ErrorResponse::new(ErrorCode::InvalidParams, msg);
    let k = value
        .get("k")
        .ok_or_else(|| invalid("missing field \"k\"".into()))?
        .as_usize()
        .ok_or_else(|| invalid("\"k\" must be a non-negative integer".into()))?;
    let model = value
        .get("model")
        .map(|m| {
            m.as_str()
                .ok_or_else(|| invalid("\"model\" must be a string".into()))
        })
        .transpose()?
        .unwrap_or("relative");
    match model {
        "relative" => {
            let delta = opt_usize(value, "delta")?.unwrap_or(1);
            Ok(FairnessModel::Relative { k, delta })
        }
        "weak" => Ok(FairnessModel::Weak { k }),
        "strong" => Ok(FairnessModel::Strong { k }),
        other => Err(invalid(format!(
            "unknown model `{other}` (expected relative/weak/strong)"
        ))),
    }
}

fn model_fields(pairs: &mut Vec<(&str, JsonValue)>, model: FairnessModel) {
    match model {
        FairnessModel::Relative { k, delta } => {
            pairs.push(("model", JsonValue::string("relative")));
            pairs.push(("k", JsonValue::from(k)));
            pairs.push(("delta", JsonValue::from(delta)));
        }
        FairnessModel::Weak { k } => {
            pairs.push(("model", JsonValue::string("weak")));
            pairs.push(("k", JsonValue::from(k)));
        }
        FairnessModel::Strong { k } => {
            pairs.push(("model", JsonValue::string("strong")));
            pairs.push(("k", JsonValue::from(k)));
        }
    }
}

fn budget_fields(
    pairs: &mut Vec<(&str, JsonValue)>,
    time_limit_ms: Option<u64>,
    node_limit: Option<u64>,
    threads: Option<usize>,
) {
    if let Some(ms) = time_limit_ms {
        pairs.push(("time_limit_ms", JsonValue::from(ms)));
    }
    if let Some(nodes) = node_limit {
        pairs.push(("node_limit", JsonValue::from(nodes)));
    }
    if let Some(threads) = threads {
        pairs.push(("threads", JsonValue::from(threads)));
    }
}

fn opt_usize(value: &JsonValue, key: &str) -> Result<Option<usize>, ErrorResponse> {
    value
        .get(key)
        .map(|v| {
            v.as_usize().ok_or_else(|| {
                ErrorResponse::new(
                    ErrorCode::InvalidParams,
                    format!("\"{key}\" must be a non-negative integer"),
                )
            })
        })
        .transpose()
}

/// Rejects a `count` of 0 for the field `key`.
fn at_least_one<T: PartialEq + From<u8>>(
    count: Option<T>,
    key: &str,
) -> Result<Option<T>, ErrorResponse> {
    if count == Some(T::from(0)) {
        let message = format!("\"{key}\" must be >= 1");
        return Err(ErrorResponse::new(ErrorCode::InvalidParams, message));
    }
    Ok(count)
}

/// An optional count of threads, at most [`MAX_QUERY_THREADS`].
fn opt_thread_count(value: &JsonValue, key: &str) -> Result<Option<usize>, ErrorResponse> {
    match opt_usize(value, key)? {
        Some(n) if n > MAX_QUERY_THREADS => Err(ErrorResponse::new(
            ErrorCode::InvalidParams,
            format!("\"{key}\" must be at most {MAX_QUERY_THREADS}"),
        )),
        other => Ok(other),
    }
}

fn opt_u64(value: &JsonValue, key: &str) -> Result<Option<u64>, ErrorResponse> {
    value
        .get(key)
        .map(|v| {
            v.as_u64().ok_or_else(|| {
                ErrorResponse::new(
                    ErrorCode::InvalidParams,
                    format!("\"{key}\" must be a non-negative integer"),
                )
            })
        })
        .transpose()
}

/// The wire string of a solve termination.
pub fn termination_str(t: Termination) -> &'static str {
    match t {
        Termination::Optimal => "optimal",
        Termination::Infeasible => "infeasible",
        Termination::BudgetExhausted => "budget_exhausted",
        Termination::Cancelled => "cancelled",
    }
}

/// The wire string of an enumeration termination.
pub fn enum_termination_str(t: EnumTermination) -> &'static str {
    match t {
        EnumTermination::Complete => "complete",
        EnumTermination::BudgetExhausted => "budget_exhausted",
        EnumTermination::Cancelled => "cancelled",
        EnumTermination::SinkStopped => "sink_stopped",
    }
}

/// Renders the terminal line of a successful `solve`: the envelope
/// `{"ok":true,"op":"solve","graph":G,` followed by [`write_solution`]'s fields.
pub fn solve_response(graph: &str, solution: &Solution) -> String {
    let mut line = String::with_capacity(320);
    let _ = write!(
        line,
        "{{\"ok\":true,\"op\":\"solve\",\"graph\":\"{}\",",
        escaped(graph)
    );
    write_solution(&mut line, solution);
    line
}

/// Appends a solve result's fields and the closing `}` to a JSON object whose
/// opening envelope `out` already holds (ending in `{` or a comma). This is the one
/// encoding of a [`Solution`]: the daemon's `solve` line and the CLI's
/// `solve --format json` differ only in their envelopes. The fields, in order:
/// `termination`, `cliques`, `branches`, `bound_prunes`, `feasibility_prunes`,
/// `components`, `elapsed_us`, `cpu_us`, `original_edges`, `final_edges`,
/// `heuristic_size`, `upper_bound`, `optimality_gap` and `reduction_cache_hit`;
/// the three optional sizes are `null` when absent.
pub fn write_solution(out: &mut String, solution: &Solution) {
    let _ = write!(
        out,
        "\"termination\":\"{}\",\"cliques\":[",
        termination_str(solution.termination)
    );
    for (i, clique) in solution.cliques.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&clique_json(clique));
    }
    let stats = &solution.stats;
    let opt = |v: Option<usize>| v.map_or_else(|| "null".to_string(), |n| n.to_string());
    let _ = write!(
        out,
        "],\"branches\":{},\"bound_prunes\":{},\"feasibility_prunes\":{},\"components\":{},\
         \"elapsed_us\":{},\"cpu_us\":{},\"original_edges\":{},\"final_edges\":{},\
         \"heuristic_size\":{},\"upper_bound\":{},\"optimality_gap\":{},\
         \"reduction_cache_hit\":{}}}",
        stats.branches,
        stats.bound_prunes,
        stats.feasibility_prunes,
        stats.components_searched,
        stats.elapsed_micros,
        stats.cpu_micros,
        stats.reduction.original_edges,
        stats.reduction.final_edges(),
        opt(stats.heuristic_size),
        opt(solution.upper_bound),
        opt(solution.optimality_gap()),
        solution.reduction_cache_hit
    );
}

/// Renders one `enumerate` stream line.
pub fn clique_stream_line(clique: &FairClique) -> String {
    format!("{{\"clique\":{}}}", clique_json(clique))
}

/// Renders the terminal line of a successful `enumerate`.
pub fn enumerate_response(graph: &str, emitted: u64, termination: EnumTermination) -> String {
    format!(
        "{{\"ok\":true,\"op\":\"enumerate\",\"graph\":\"{}\",\"emitted\":{},\"termination\":\"{}\"}}",
        escaped(graph),
        emitted,
        enum_termination_str(termination)
    )
}

/// Whether a parsed response line is terminal (carries the `"ok"` verdict).
pub fn is_terminal(value: &JsonValue) -> bool {
    value.get("ok").is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfc_graph::Attribute;

    #[test]
    fn request_lines_round_trip() {
        let requests = [
            Request::Load {
                graph: "g".into(),
                path: "/tmp/g.graph".into(),
            },
            Request::Solve {
                graph: "g".into(),
                spec: QuerySpec {
                    model: FairnessModel::Relative { k: 3, delta: 1 },
                    top: Some(5),
                    time_limit_ms: Some(250),
                    node_limit: Some(1000),
                    threads: Some(2),
                    portfolio: Some(4),
                    anytime: true,
                },
            },
            Request::Enumerate {
                graph: "g".into(),
                spec: EnumSpec {
                    model: FairnessModel::Weak { k: 2 },
                    min_size: 4,
                    limit: Some(10),
                    time_limit_ms: None,
                    node_limit: None,
                    threads: None,
                },
            },
            Request::Update {
                graph: "g".into(),
                ops: vec![
                    UpdateOp::InsertEdge { u: 1, v: 2 },
                    UpdateOp::InsertVertex { attr: Attribute::B },
                    UpdateOp::Commit,
                ],
            },
            Request::Stats,
            Request::Metrics,
            Request::Ping { sleep_ms: 0 },
            Request::Ping { sleep_ms: 50 },
            Request::Shutdown,
        ];
        for request in requests {
            let line = request.to_line();
            assert_eq!(Request::parse(&line).unwrap(), request, "{line}");
        }
    }

    #[test]
    fn default_model_is_relative_with_delta_one() {
        let parsed = Request::parse(r#"{"op":"solve","graph":"g","k":3}"#).unwrap();
        match parsed {
            Request::Solve { spec, .. } => {
                assert_eq!(spec.model, FairnessModel::Relative { k: 3, delta: 1 });
                assert_eq!(spec.top, None);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_errors_are_typed() {
        let cases = [
            ("not json at all", ErrorCode::ParseError),
            ("{\"graph\":\"g\"}", ErrorCode::BadRequest),
            ("{\"op\":\"fly\"}", ErrorCode::BadRequest),
            (
                "{\"op\":\"solve\",\"graph\":\"g\"}",
                ErrorCode::InvalidParams,
            ), // no k
            (
                "{\"op\":\"solve\",\"graph\":\"g\",\"k\":2,\"model\":\"qux\"}",
                ErrorCode::InvalidParams,
            ),
            (
                "{\"op\":\"update\",\"graph\":\"g\",\"ops\":[{\"op\":\"warp\"}]}",
                ErrorCode::InvalidParams,
            ),
            ("{\"op\":\"solve\",\"k\":2}", ErrorCode::BadRequest), // no graph
            (
                "{\"op\":\"enumerate\",\"graph\":\"g\",\"k\":2,\"limit\":0}",
                ErrorCode::InvalidParams,
            ),
        ];
        let over = MAX_QUERY_THREADS + 1;
        let too_many_threads = [
            format!("{{\"op\":\"solve\",\"graph\":\"g\",\"k\":2,\"threads\":{over}}}"),
            format!("{{\"op\":\"enumerate\",\"graph\":\"g\",\"k\":2,\"threads\":{over}}}"),
            format!("{{\"op\":\"solve\",\"graph\":\"g\",\"k\":2,\"portfolio\":{over}}}"),
        ];
        let too_many_threads = too_many_threads
            .iter()
            .map(|line| (line.as_str(), ErrorCode::InvalidParams));
        for (line, code) in cases.into_iter().chain(too_many_threads) {
            let err = Request::parse(line).unwrap_err();
            assert_eq!(err.code, code, "{line} → {err}");
        }
    }

    #[test]
    fn error_lines_escape_messages() {
        let err = ErrorResponse::new(ErrorCode::BadRequest, "tab\there \"quoted\"");
        let line = err.to_line();
        let value = JsonValue::parse(&line).unwrap();
        assert_eq!(value.get("ok").and_then(JsonValue::as_bool), Some(false));
        assert_eq!(
            value.get("error").and_then(JsonValue::as_str),
            Some("bad_request")
        );
        assert_eq!(
            value.get("message").and_then(JsonValue::as_str),
            Some("tab\there \"quoted\"")
        );
    }

    #[test]
    fn query_spec_lowers_budget_and_threads() {
        let spec = QuerySpec {
            model: FairnessModel::Relative { k: 2, delta: 1 },
            top: Some(3),
            time_limit_ms: Some(100),
            node_limit: Some(42),
            threads: Some(1),
            portfolio: None,
            anytime: false,
        };
        let query = spec.to_query(CancelToken::new(), None);
        assert_eq!(query.objective, Objective::TopK(3));
        assert!(!query.budget.is_unlimited());
        assert_eq!(query.config.threads, ThreadCount::Serial);
        // Without `threads` a query runs serial; `0` asks for all cores.
        for (threads, expected) in [(None, ThreadCount::Serial), (Some(0), ThreadCount::Auto)] {
            let spec = QuerySpec {
                threads,
                ..spec.clone()
            };
            let query = spec.to_query(CancelToken::new(), None);
            assert_eq!(query.config.threads, expected, "{threads:?}");
            let spec = EnumSpec {
                threads,
                ..EnumSpec::new(spec.model)
            };
            let query = spec.to_query(CancelToken::new(), None);
            assert_eq!(query.threads, expected, "{threads:?}");
        }
        // Daemon default applies only when the request sets no time limit.
        let spec = QuerySpec::new(FairnessModel::Weak { k: 2 });
        let query = spec.to_query(CancelToken::new(), Some(Duration::from_secs(1)));
        assert!(!query.budget.is_unlimited());
        let query = spec.to_query(CancelToken::new(), None);
        assert!(query.budget.is_unlimited());
    }
}
