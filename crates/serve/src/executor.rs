//! The multi-process shard executor: N replica worker processes, each owning a
//! full copy of every graph, with queries fanned out one component [`Shard`] per
//! worker and the per-shard answers merged into one response.
//!
//! ## Replication and determinism
//!
//! Workers are replicas, not partitions: every `load` and `update` is broadcast to
//! all of them (under a state lock, so replicas observe the same mutation order)
//! and recorded in a history. Replicas that committed the same update stream build
//! identical reduced-component lists, so `Shard { index: i, count: n }` names the
//! same components in every process — sharding the *query*, not the data. Components
//! are independent subproblems, which makes merging lossless: the global maximum is
//! the best per-shard maximum, and the global enumeration is the concatenation of
//! the per-shard streams.
//!
//! ## Fault isolation
//!
//! A worker that dies mid-request degrades to a typed `worker_failed` error — the
//! daemon itself keeps serving. The dead worker is respawned lazily on the next
//! request that needs it, replaying the recorded history to rebuild its graphs.

use std::io::{self, BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use rfc_core::search::canonical_order;
use rfc_core::solver::certify_bound;
use rfc_core::{Objective, Shard, Termination};
use rfc_graph::json::JsonValue;
use rfc_graph::VertexId;

use crate::protocol::{
    is_terminal, termination_from_str, termination_str, ErrorCode, ErrorResponse, Request,
};
use crate::{Counters, Flow, Handler};

/// One worker child process with its pipes.
struct WorkerProc {
    child: Child,
    pid: u32,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

/// One worker slot: the process (absent after a crash, until lazily respawned) and
/// its restart counter.
struct WorkerSlot {
    proc: Mutex<Option<WorkerProc>>,
    restarts: AtomicU64,
}

/// The multi-process engine behind `maxfaircliqued --workers N`.
pub struct ShardedEngine {
    worker_cmd: Vec<String>,
    workers: Vec<WorkerSlot>,
    /// Every successful `load`/`update` line, in commit order — the replay script
    /// that rebuilds a respawned worker's state.
    history: Mutex<Vec<String>>,
    /// Mutations broadcast under the write half; queries fan out under the read
    /// half, so a query never observes half of an update.
    state_lock: RwLock<()>,
    shutting_down: AtomicBool,
    counters: Arc<Counters>,
}

impl ShardedEngine {
    /// Spawns `count` worker processes running `worker_cmd` (argv form).
    pub fn spawn(
        worker_cmd: &[String],
        count: usize,
        counters: Arc<Counters>,
    ) -> io::Result<ShardedEngine> {
        if worker_cmd.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "worker command must not be empty",
            ));
        }
        let engine = ShardedEngine {
            worker_cmd: worker_cmd.to_vec(),
            workers: (0..count.max(1))
                .map(|_| WorkerSlot {
                    proc: Mutex::new(None),
                    restarts: AtomicU64::new(0),
                })
                .collect(),
            history: Mutex::new(Vec::new()),
            state_lock: RwLock::new(()),
            shutting_down: AtomicBool::new(false),
            counters,
        };
        for slot in &engine.workers {
            let mut proc = slot.proc.lock().expect("worker lock poisoned");
            *proc = Some(engine.spawn_proc()?);
        }
        Ok(engine)
    }

    /// Number of worker processes (shard count).
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    fn spawn_proc(&self) -> io::Result<WorkerProc> {
        let mut command = Command::new(&self.worker_cmd[0]);
        command
            .args(&self.worker_cmd[1..])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped());
        let mut child = command.spawn()?;
        let stdin = child.stdin.take().expect("worker stdin was piped");
        let stdout = child.stdout.take().expect("worker stdout was piped");
        let pid = child.id();
        Ok(WorkerProc {
            child,
            pid,
            stdin,
            stdout: BufReader::new(stdout),
        })
    }

    /// Sends `line` to worker `index` and reads response lines up to and including
    /// the terminal one. Worker death (broken pipe, EOF) clears the slot — the next
    /// call respawns and replays — and surfaces as `worker_failed`.
    fn call(&self, index: usize, line: &str) -> Result<Vec<JsonValue>, ErrorResponse> {
        let mut slot = self.workers[index]
            .proc
            .lock()
            .expect("worker lock poisoned");
        if slot.is_none() {
            *slot = Some(self.respawn_and_replay(index)?);
        }
        let proc = slot.as_mut().expect("slot was just filled");
        match exchange(proc, line) {
            Ok(lines) => Ok(lines),
            Err(e) => {
                let _ = proc.child.kill();
                let _ = proc.child.wait();
                *slot = None;
                Err(ErrorResponse::new(
                    ErrorCode::WorkerFailed,
                    format!("worker {index} failed: {e}"),
                ))
            }
        }
    }

    fn respawn_and_replay(&self, index: usize) -> Result<WorkerProc, ErrorResponse> {
        self.workers[index].restarts.fetch_add(1, Ordering::Relaxed);
        let mut proc = self.spawn_proc().map_err(|e| {
            ErrorResponse::new(
                ErrorCode::WorkerFailed,
                format!("cannot respawn worker {index}: {e}"),
            )
        })?;
        let history = self.history.lock().expect("history lock poisoned").clone();
        for line in &history {
            let lines = exchange(&mut proc, line).map_err(|e| {
                ErrorResponse::new(
                    ErrorCode::WorkerFailed,
                    format!("worker {index} failed during state replay: {e}"),
                )
            })?;
            let terminal = lines.last().expect("exchange returns a terminal line");
            if terminal.get("ok").and_then(JsonValue::as_bool) != Some(true) {
                return Err(ErrorResponse::new(
                    ErrorCode::WorkerFailed,
                    format!("worker {index} rejected replayed state: {terminal}"),
                ));
            }
        }
        Ok(proc)
    }

    /// Broadcasts a mutation (`load`/`update`) to every worker in turn, recording it
    /// in the replay history when all replicas accepted it.
    fn broadcast_mutation(&self, line: &str) -> Result<String, ErrorResponse> {
        let _guard = self.state_lock.write().expect("state lock poisoned");
        let mut first_response: Option<String> = None;
        for index in 0..self.workers.len() {
            let lines = self.call(index, line)?;
            let terminal = lines.last().expect("exchange returns a terminal line");
            if terminal.get("ok").and_then(JsonValue::as_bool) != Some(true) {
                // A typed rejection (bad path, invalid op) is deterministic across
                // replicas: forward it and keep it out of the history.
                return Err(terminal_as_error(terminal));
            }
            if first_response.is_none() {
                first_response = Some(terminal.to_string());
            }
        }
        self.history
            .lock()
            .expect("history lock poisoned")
            .push(line.to_string());
        Ok(first_response.expect("at least one worker"))
    }

    fn handle_solve(&self, graph: &str, request: &Request) -> Result<String, ErrorResponse> {
        let _guard = self.state_lock.read().expect("state lock poisoned");
        let count = self.workers.len();
        let objective = match request {
            Request::Solve { spec, .. } => spec.top.map_or(Objective::Maximum, Objective::TopK),
            _ => Objective::Maximum,
        };
        let mut results: Vec<Option<Result<Vec<JsonValue>, ErrorResponse>>> =
            (0..count).map(|_| None).collect();
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(count);
            for index in 0..count {
                let line = sharded_line(request, index, count);
                handles.push(scope.spawn(move || self.call(index, &line)));
            }
            for (index, handle) in handles.into_iter().enumerate() {
                results[index] = Some(handle.join().expect("shard thread panicked"));
            }
        });
        let mut terminals = Vec::with_capacity(count);
        for result in results {
            let lines = result.expect("all shards joined")?;
            let terminal = lines.into_iter().last().expect("terminal line");
            if terminal.get("ok").and_then(JsonValue::as_bool) != Some(true) {
                return Err(terminal_as_error(&terminal));
            }
            terminals.push(terminal);
        }
        Ok(merge_solve(graph, &terminals, objective))
    }

    fn handle_enumerate(
        &self,
        request: &Request,
        emit: &mut dyn FnMut(&str) -> io::Result<()>,
    ) -> io::Result<Result<String, ErrorResponse>> {
        let _guard = self.state_lock.read().expect("state lock poisoned");
        let count = self.workers.len();
        let (graph, limit) = match request {
            Request::Enumerate { graph, spec } => (graph.clone(), spec.limit),
            _ => unreachable!("caller matched Enumerate"),
        };
        let mut emitted: u64 = 0;
        let mut remaining = limit;
        // "complete" is the weakest termination; any shard that stopped early wins.
        let mut termination = "complete".to_string();
        for index in 0..count {
            if remaining == Some(0) {
                termination = "sink_stopped".to_string();
                break;
            }
            let line = match request {
                Request::Enumerate { graph, spec } => {
                    let mut spec = spec.clone();
                    spec.shard = Shard::new(index, count);
                    spec.limit = remaining;
                    Request::Enumerate {
                        graph: graph.clone(),
                        spec,
                    }
                    .to_line()
                }
                _ => unreachable!(),
            };
            let lines = match self.call(index, &line) {
                Ok(lines) => lines,
                Err(e) => return Ok(Err(e)),
            };
            let (stream, terminal) = lines.split_at(lines.len() - 1);
            let terminal = &terminal[0];
            if terminal.get("ok").and_then(JsonValue::as_bool) != Some(true) {
                return Ok(Err(terminal_as_error(terminal)));
            }
            for clique in stream {
                emit(&clique.to_string())?;
            }
            let shard_emitted = terminal
                .get("emitted")
                .and_then(JsonValue::as_u64)
                .unwrap_or(0);
            emitted += shard_emitted;
            if let Some(left) = remaining {
                remaining = Some(left.saturating_sub(shard_emitted));
            }
            let shard_termination = terminal
                .get("termination")
                .and_then(JsonValue::as_str)
                .unwrap_or("complete");
            if termination_rank(shard_termination) > termination_rank(&termination) {
                termination = shard_termination.to_string();
            }
        }
        Ok(Ok(format!(
            "{{\"ok\":true,\"op\":\"enumerate\",\"graph\":\"{}\",\"emitted\":{},\"termination\":\"{}\"}}",
            rfc_graph::json::escaped(&graph),
            emitted,
            termination
        )))
    }

    fn handle_stats(&self) -> Result<String, ErrorResponse> {
        // Worker 0 is the reference replica for graph/cache statistics.
        let lines = self.call(0, "{\"op\":\"stats\"}")?;
        let reference = lines.into_iter().last().expect("terminal line");
        let graphs = reference
            .get("graphs")
            .cloned()
            .unwrap_or(JsonValue::Array(Vec::new()));
        let workers = self
            .workers
            .iter()
            .enumerate()
            .map(|(id, slot)| {
                let proc = slot.proc.lock().expect("worker lock poisoned");
                let (alive, pid) = match proc.as_ref() {
                    Some(proc) => (true, Some(proc.pid)),
                    None => (false, None),
                };
                JsonValue::object(vec![
                    ("id", JsonValue::from(id)),
                    ("pid", pid.map(JsonValue::from).unwrap_or(JsonValue::Null)),
                    ("alive", JsonValue::from(alive)),
                    (
                        "restarts",
                        JsonValue::from(slot.restarts.load(Ordering::Relaxed)),
                    ),
                ])
            })
            .collect();
        Ok(JsonValue::object(vec![
            ("ok", JsonValue::from(true)),
            ("op", JsonValue::string("stats")),
            ("graphs", graphs),
            ("workers", JsonValue::Array(workers)),
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
        .to_string())
    }

    fn handle_shutdown(&self) {
        self.shutting_down.store(true, Ordering::Relaxed);
        for slot in &self.workers {
            let mut proc = slot.proc.lock().expect("worker lock poisoned");
            if let Some(mut worker) = proc.take() {
                let _ = writeln!(worker.stdin, "{{\"op\":\"shutdown\"}}");
                let _ = worker.stdin.flush();
                let _ = worker.child.kill();
                let _ = worker.child.wait();
            }
        }
    }
}

impl Drop for ShardedEngine {
    fn drop(&mut self) {
        for slot in &self.workers {
            if let Ok(mut proc) = slot.proc.lock() {
                if let Some(worker) = proc.as_mut() {
                    let _ = worker.child.kill();
                    let _ = worker.child.wait();
                }
            }
        }
    }
}

impl Handler for ShardedEngine {
    fn handle(&self, line: &str, emit: &mut dyn FnMut(&str) -> io::Result<()>) -> io::Result<Flow> {
        Counters::bump(&self.counters.requests);
        let request = match Request::parse(line) {
            Ok(request) => request,
            Err(error) => {
                Counters::bump(&self.counters.errors);
                emit(&error.to_line())?;
                return Ok(Flow::Continue);
            }
        };
        if self.shutting_down.load(Ordering::Relaxed)
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
            // Mutations replicate; the canonical re-serialized line goes in the
            // history so every respawn replays byte-identical requests.
            Request::Load { .. } | Request::Update { .. } => {
                self.broadcast_mutation(&request.to_line())
            }
            Request::Solve { graph, .. } => self.handle_solve(graph, &request),
            Request::Enumerate { .. } => self.handle_enumerate(&request, emit)?,
            Request::Stats => self.handle_stats(),
            // The parent's own registry: fan-out bookkeeping lives here, and the
            // worker processes' registries are process-local by design.
            Request::Metrics => Ok(JsonValue::object(vec![
                ("ok", JsonValue::from(true)),
                ("op", JsonValue::string("metrics")),
                (
                    "exposition",
                    JsonValue::string(rfc_obs::metrics::global().render()),
                ),
            ])
            .to_string()),
            Request::Ping { .. } => {
                // Broadcast so the ping's sleep occupies every worker (admission and
                // health tests rely on the latency floor being real).
                (0..self.workers.len())
                    .try_for_each(|index| self.call(index, &request.to_line()).map(|_| ()))
                    .map(|()| "{\"ok\":true,\"op\":\"ping\"}".to_string())
            }
            Request::Shutdown => {
                self.handle_shutdown();
                Ok("{\"ok\":true,\"op\":\"shutdown\"}".to_string())
            }
        };
        rfc_obs::metrics::global()
            .histogram(&format!(
                "rfc_request_latency_us{{op=\"{}\"}}",
                crate::engine::request_op_name(&request)
            ))
            .observe(started.elapsed().as_micros() as u64);
        let shutdown = matches!(request, Request::Shutdown);
        match result {
            Ok(response) => {
                // As in `LocalEngine`: a client may disconnect without reading
                // the shutdown response, and the daemon must still stop.
                if let Err(err) = emit(&response) {
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

/// One request/response exchange over a worker's pipes.
fn exchange(proc: &mut WorkerProc, line: &str) -> io::Result<Vec<JsonValue>> {
    writeln!(proc.stdin, "{line}")?;
    proc.stdin.flush()?;
    let mut lines = Vec::new();
    loop {
        let mut raw = String::new();
        if proc.stdout.read_line(&mut raw)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "worker closed its stdout mid-response",
            ));
        }
        let value = JsonValue::parse(raw.trim_end()).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unparseable worker response: {e}"),
            )
        })?;
        let terminal = is_terminal(&value);
        lines.push(value);
        if terminal {
            return Ok(lines);
        }
    }
}

/// Re-serializes a request with the shard for worker `index` of `count` injected.
fn sharded_line(request: &Request, index: usize, count: usize) -> String {
    match request {
        Request::Solve { graph, spec } => {
            let mut spec = spec.clone();
            spec.shard = Shard::new(index, count);
            Request::Solve {
                graph: graph.clone(),
                spec,
            }
            .to_line()
        }
        Request::Enumerate { graph, spec } => {
            let mut spec = spec.clone();
            spec.shard = Shard::new(index, count);
            Request::Enumerate {
                graph: graph.clone(),
                spec,
            }
            .to_line()
        }
        other => other.to_line(),
    }
}

/// Converts a worker's `ok:false` terminal into an [`ErrorResponse`] to forward.
fn terminal_as_error(terminal: &JsonValue) -> ErrorResponse {
    let message = terminal
        .get("message")
        .and_then(JsonValue::as_str)
        .unwrap_or("worker returned an error")
        .to_string();
    let code = match terminal.get("error").and_then(JsonValue::as_str) {
        Some("unknown_graph") => ErrorCode::UnknownGraph,
        Some("invalid_params") => ErrorCode::InvalidParams,
        Some("load_failed") => ErrorCode::LoadFailed,
        Some("parse_error") => ErrorCode::ParseError,
        Some("bad_request") => ErrorCode::BadRequest,
        Some("shutting_down") => ErrorCode::ShuttingDown,
        _ => ErrorCode::WorkerFailed,
    };
    ErrorResponse::new(code, message)
}

/// Early-stop precedence for merged terminations: a run that was cancelled beats a
/// budget stop beats a sink stop beats completeness.
fn termination_rank(termination: &str) -> u8 {
    match termination {
        "cancelled" => 3,
        "budget_exhausted" => 2,
        "sink_stopped" => 1,
        _ => 0,
    }
}

/// Merges per-shard solve terminals the way `RfcSolver` ranks and certifies one
/// solve: best cliques across shards in the library's [`canonical_order`], summed
/// branch counts, max wall-clock, ANDed cache-hit flags, and the strongest early-stop
/// termination (all-infeasible stays infeasible; any shard's clique makes the merge
/// non-infeasible).
///
/// Each shard's `upper_bound` is sound for its own components, so their maximum
/// bounds the whole graph; there is none if any shard has none. The library's
/// [`certify_bound`] then raises it to the merged best and certifies a
/// single-maximum best that meets it.
fn merge_solve(graph: &str, terminals: &[JsonValue], objective: Objective) -> String {
    // Each clique with its vertex ids, which the canonical order ranks.
    let mut cliques: Vec<(Vec<VertexId>, &JsonValue)> = Vec::new();
    let mut branches: u64 = 0;
    let mut elapsed: u64 = 0;
    let mut cache_hit = true;
    let mut any_early: Option<&str> = None;
    let mut all_infeasible = true;
    let mut bound: Option<usize> = Some(0);
    for terminal in terminals {
        if let Some(shard_cliques) = terminal.get("cliques").and_then(JsonValue::as_array) {
            cliques.extend(shard_cliques.iter().map(|clique| {
                let vertices = clique
                    .get("vertices")
                    .and_then(JsonValue::as_array)
                    .map(|ids| {
                        ids.iter()
                            .filter_map(|id| id.as_u64()?.try_into().ok())
                            .collect()
                    })
                    .unwrap_or_default();
                (vertices, clique)
            }));
        }
        bound = bound
            .zip(terminal.get("upper_bound").and_then(JsonValue::as_usize))
            .map(|(merged, shard)| merged.max(shard));
        branches += terminal
            .get("branches")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0);
        elapsed = elapsed.max(
            terminal
                .get("elapsed_us")
                .and_then(JsonValue::as_u64)
                .unwrap_or(0),
        );
        cache_hit &= terminal
            .get("reduction_cache_hit")
            .and_then(JsonValue::as_bool)
            .unwrap_or(false);
        let termination = terminal
            .get("termination")
            .and_then(JsonValue::as_str)
            .unwrap_or("optimal");
        if termination != "infeasible" {
            all_infeasible = false;
        }
        if termination_rank(termination) >= 2 {
            match any_early {
                Some(current) if termination_rank(current) >= termination_rank(termination) => {}
                _ => any_early = Some(termination),
            }
        }
    }
    cliques.sort_by(|(a, _), (b, _)| canonical_order(a.iter().copied(), b.iter().copied()));
    cliques.truncate(match objective {
        Objective::Maximum => 1,
        Objective::TopK(n) => n,
    });
    let best = cliques.first().map_or(0, |(vertices, _)| vertices.len());
    let mut termination = match any_early.and_then(termination_from_str) {
        Some(early) => early,
        None if all_infeasible && cliques.is_empty() => Termination::Infeasible,
        None => Termination::Optimal,
    };
    let upper_bound = certify_bound(objective, best, &mut termination, || bound);
    let mut line = format!(
        "{{\"ok\":true,\"op\":\"solve\",\"graph\":\"{}\",\"termination\":\"{}\",\"cliques\":[",
        rfc_graph::json::escaped(graph),
        termination_str(termination)
    );
    for (i, (_, clique)) in cliques.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push_str(&clique.to_string());
    }
    let opt = |v: Option<usize>| v.map_or_else(|| "null".to_string(), |n| n.to_string());
    use std::fmt::Write as _;
    let _ = write!(
        line,
        "],\"branches\":{branches},\"elapsed_us\":{elapsed},\"upper_bound\":{},\
         \"optimality_gap\":{},\"reduction_cache_hit\":{cache_hit}}}",
        opt(upper_bound),
        opt(upper_bound.map(|b| b - best)),
    );
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    fn terminal(json: &str) -> JsonValue {
        JsonValue::parse(json).unwrap()
    }

    #[test]
    fn merge_takes_the_best_clique_across_shards() {
        let merged = merge_solve(
            "g",
            &[
                terminal(
                    r#"{"ok":true,"op":"solve","graph":"g","termination":"optimal","cliques":[{"size":5,"vertices":[1,2,3,4,5]}],"branches":10,"elapsed_us":40,"reduction_cache_hit":true}"#,
                ),
                terminal(
                    r#"{"ok":true,"op":"solve","graph":"g","termination":"optimal","cliques":[{"size":8,"vertices":[6,7,8,9,10,11,12,13]}],"branches":7,"elapsed_us":90,"reduction_cache_hit":false}"#,
                ),
            ],
            Objective::Maximum,
        );
        let value = JsonValue::parse(&merged).unwrap();
        assert_eq!(
            value.get("termination").and_then(JsonValue::as_str),
            Some("optimal")
        );
        let cliques = value.get("cliques").and_then(JsonValue::as_array).unwrap();
        assert_eq!(cliques.len(), 1);
        assert_eq!(cliques[0].get("size").and_then(JsonValue::as_u64), Some(8));
        assert_eq!(value.get("branches").and_then(JsonValue::as_u64), Some(17));
        assert_eq!(
            value.get("elapsed_us").and_then(JsonValue::as_u64),
            Some(90)
        );
        assert_eq!(
            value
                .get("reduction_cache_hit")
                .and_then(JsonValue::as_bool),
            Some(false)
        );
    }

    #[test]
    fn merge_breaks_size_ties_by_canonical_vertex_order() {
        // Shard order must not decide a tie: the lexicographically smaller clique
        // wins, as in `RfcSolver`'s canonical ranking.
        let merged = merge_solve(
            "g",
            &[
                terminal(
                    r#"{"ok":true,"termination":"optimal","cliques":[{"size":4,"vertices":[10,11,13,14]}],"branches":0,"elapsed_us":0,"upper_bound":4,"reduction_cache_hit":true}"#,
                ),
                terminal(
                    r#"{"ok":true,"termination":"optimal","cliques":[{"size":4,"vertices":[0,10,11,12]}],"branches":0,"elapsed_us":0,"upper_bound":4,"reduction_cache_hit":true}"#,
                ),
            ],
            Objective::Maximum,
        );
        let value = JsonValue::parse(&merged).unwrap();
        let cliques = value.get("cliques").and_then(JsonValue::as_array).unwrap();
        assert_eq!(cliques.len(), 1);
        let vertices: Vec<u64> = cliques[0]
            .get("vertices")
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .filter_map(JsonValue::as_u64)
            .collect();
        assert_eq!(vertices, [0, 10, 11, 12]);
    }

    #[test]
    fn merge_passes_the_largest_shard_bound_through() {
        let bound_and_gap = |terminals: &[&str], objective: Objective| {
            let values: Vec<JsonValue> = terminals.iter().map(|t| terminal(t)).collect();
            let value = JsonValue::parse(&merge_solve("g", &values, objective)).unwrap();
            (
                value
                    .get("termination")
                    .and_then(JsonValue::as_str)
                    .unwrap()
                    .to_string(),
                value.get("upper_bound").and_then(JsonValue::as_u64),
                value.get("optimality_gap").and_then(JsonValue::as_u64),
            )
        };
        let best5 = r#"{"ok":true,"termination":"optimal","cliques":[{"size":5,"vertices":[1,2,3,4,5]}],"branches":0,"elapsed_us":0,"upper_bound":5,"reduction_cache_hit":true}"#;
        let budget7 = r#"{"ok":true,"termination":"budget_exhausted","cliques":[{"size":3,"vertices":[6,7,8]}],"branches":0,"elapsed_us":0,"upper_bound":7,"reduction_cache_hit":true}"#;
        let budget5 = r#"{"ok":true,"termination":"budget_exhausted","cliques":[],"branches":0,"elapsed_us":0,"upper_bound":5,"reduction_cache_hit":true}"#;
        let budget0 = r#"{"ok":true,"termination":"budget_exhausted","cliques":[],"branches":0,"elapsed_us":0,"upper_bound":0,"reduction_cache_hit":true}"#;
        let unbounded = r#"{"ok":true,"termination":"budget_exhausted","cliques":[],"branches":0,"elapsed_us":0,"upper_bound":null,"reduction_cache_hit":true}"#;
        assert_eq!(
            bound_and_gap(&[best5, budget7], Objective::Maximum),
            ("budget_exhausted".to_string(), Some(7), Some(2))
        );
        // A best that meets the merged bound is certified, for the maximum only.
        assert_eq!(
            bound_and_gap(&[best5, budget5], Objective::Maximum),
            ("optimal".to_string(), Some(5), Some(0))
        );
        assert_eq!(
            bound_and_gap(&[best5, budget5], Objective::TopK(1)),
            ("budget_exhausted".to_string(), Some(5), Some(0))
        );
        assert_eq!(
            bound_and_gap(&[budget0, budget0], Objective::Maximum),
            ("infeasible".to_string(), Some(0), Some(0))
        );
        // One shard without a bound leaves the merge without one.
        assert_eq!(
            bound_and_gap(&[best5, unbounded], Objective::Maximum),
            ("budget_exhausted".to_string(), None, None)
        );
    }

    #[test]
    fn merge_termination_precedence() {
        let optimal = r#"{"ok":true,"termination":"optimal","cliques":[{"size":3}],"branches":0,"elapsed_us":0,"reduction_cache_hit":true}"#;
        let infeasible = r#"{"ok":true,"termination":"infeasible","cliques":[],"branches":0,"elapsed_us":0,"reduction_cache_hit":true}"#;
        let budget = r#"{"ok":true,"termination":"budget_exhausted","cliques":[],"branches":0,"elapsed_us":0,"reduction_cache_hit":true}"#;
        let cancelled = r#"{"ok":true,"termination":"cancelled","cliques":[],"branches":0,"elapsed_us":0,"reduction_cache_hit":true}"#;
        let merged_termination = |terminals: &[&str]| {
            let values: Vec<JsonValue> = terminals.iter().map(|t| terminal(t)).collect();
            let merged = merge_solve("g", &values, Objective::Maximum);
            JsonValue::parse(&merged)
                .unwrap()
                .get("termination")
                .and_then(JsonValue::as_str)
                .unwrap()
                .to_string()
        };
        assert_eq!(merged_termination(&[optimal, infeasible]), "optimal");
        assert_eq!(merged_termination(&[infeasible, infeasible]), "infeasible");
        assert_eq!(merged_termination(&[optimal, budget]), "budget_exhausted");
        assert_eq!(merged_termination(&[budget, cancelled]), "cancelled");
    }

    #[test]
    fn sharded_line_injects_the_shard() {
        let request = Request::parse(r#"{"op":"solve","graph":"g","k":2}"#).unwrap();
        let line = sharded_line(&request, 1, 3);
        let value = JsonValue::parse(&line).unwrap();
        let shard = value.get("shard").unwrap();
        assert_eq!(shard.get("index").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(shard.get("count").and_then(JsonValue::as_u64), Some(3));
    }

    #[test]
    fn spawn_rejects_an_empty_command() {
        let err = match ShardedEngine::spawn(&[], 2, Arc::new(Counters::default())) {
            Err(err) => err,
            Ok(_) => panic!("an empty worker command must be rejected"),
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }
}
