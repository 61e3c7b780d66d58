//! `serve-mixed`: a loopback daemon (`rfc_serve::Server`) serving one shared
//! multi-component graph to two closed-loop connections. Reads cycle through a
//! maximum solve, a top-3 solve and a 5-clique enumeration, answered from the
//! per-component caches, so the median covers parsing, cache lookup, encoding
//! and TCP. Connection 0 sends every 20th request as an `update` carrying the
//! next 4-op churn batch; each forces a commit and a re-reduction of the dirtied
//! component on the next solve, which the 99th percentile covers.

use std::collections::BTreeSet;
use std::io::{self, BufRead, BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rfc_bench::workloads::multi_component_graph;
use rfc_core::{
    CancelToken, DynamicRfcSolver, FairClique, FairnessModel, LimitSink, Objective, Query,
    RfcSolver, SinkFlow, Termination,
};
use rfc_datasets::updates::churn_stream;
use rfc_graph::json::JsonValue;
use rfc_graph::{AttributedGraph, DeltaError, GraphDelta, UpdateOp, VertexId};
use rfc_serve::protocol::{solve_response, Request};
use rfc_serve::{Counters, EngineConfig, Handler, LocalEngine, ServeConfig, Server};

use crate::{end_to_end, metric, quantile, LatencyHistogram, Outcome, Run, Spans};

const BLOBS: usize = 4;
/// Vertices of the first component; the churn stays inside it.
const BASE_N: usize = 120;
const GRAPH: &str = "bench";
const MODEL: FairnessModel = FairnessModel::Relative { k: 3, delta: 1 };
const CONNECTIONS: usize = 2;
const UPDATE_EVERY: usize = 20;
const BATCH: usize = 4;
/// Churn batches generated per second of the window: over three times the
/// ~450 updates/s connection 0 issues on a 2-vCPU host, so a run never
/// exhausts the stream.
const BATCHES_PER_S: u64 = 1_500;
const SETUPS: usize = 5;
/// The read cycle; the first `SOLVES` entries are solves.
const READS: [&str; 3] = [
    r#"{"op":"solve","graph":"bench","k":3,"delta":1}"#,
    r#"{"op":"solve","graph":"bench","k":3,"delta":1,"top":3}"#,
    r#"{"op":"enumerate","graph":"bench","k":3,"delta":1,"limit":5}"#,
];
const SOLVES: usize = 2;
/// Requests of connection 0's sequence one traced pass replays.
const TRACE_PREFIX: usize = 400;

/// The next request of a connection.
#[derive(Debug, Clone, Copy)]
enum Next {
    /// Entry `i` of [`READS`].
    Read(usize),
    /// An update carrying the next churn batch.
    Update,
}

/// The request sequence of one connection: the read cycle, with every 20th
/// request of connection 0 an update carrying the next churn batch.
struct Sequence {
    updates: bool,
    sent: usize,
    reads: usize,
}

impl Sequence {
    fn new(conn: usize) -> Self {
        Self {
            updates: conn == 0,
            sent: 0,
            reads: 0,
        }
    }

    fn next(&mut self) -> Next {
        self.sent += 1;
        if self.updates && self.sent.is_multiple_of(UPDATE_EVERY) {
            return Next::Update;
        }
        self.reads += 1;
        Next::Read((self.reads - 1) % READS.len())
    }
}

/// The base graph (also written to a file for the daemon's `load`) and the
/// churn stream connection 0 sends, batch by batch.
struct Inputs {
    base: AttributedGraph,
    /// `churn_stream` output: graph ops with a commit marker after each batch.
    churn: Vec<UpdateOp>,
    load: String,
}

impl Inputs {
    fn generate(run: &Run, batches: usize) -> Result<Inputs, String> {
        let base = multi_component_graph(BLOBS, BASE_N, run.seed);
        let pool: Vec<VertexId> = (0..BASE_N as VertexId).collect();
        // One spare batch: the stream may end on a short one.
        let churn = churn_stream(&base, &pool, (batches + 1) * BATCH, BATCH, run.seed);
        let path = run.dir.join("serve.graph");
        rfc_graph::io::write_graph_to_path(&base, &path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        let load = Request::Load {
            graph: GRAPH.into(),
            path: path.display().to_string(),
        }
        .to_line();
        Ok(Inputs { base, churn, load })
    }

    /// The churn batch at `cursor` (its ops up to the next commit marker);
    /// moves `cursor` past it.
    fn next_batch(&self, cursor: &mut usize) -> Result<&[UpdateOp], String> {
        let rest = self.churn.get(*cursor..).unwrap_or_default();
        let len = rest
            .iter()
            .position(|op| *op == UpdateOp::Commit)
            .unwrap_or(rest.len());
        if len == 0 {
            return Err("the churn stream ran out of batches".into());
        }
        *cursor += (len + 1).min(rest.len());
        Ok(&rest[..len])
    }
}

fn update_line(batch: &[UpdateOp]) -> String {
    Request::Update {
        graph: GRAPH.into(),
        ops: batch.to_vec(),
    }
    .to_line()
}

/// `Some(success)` when a response line is a request's terminal line.
fn terminal(line: &str) -> Option<bool> {
    line.starts_with("{\"ok\":")
        .then(|| line.starts_with("{\"ok\":true"))
}

/// One protocol connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    out: Vec<u8>,
    line: String,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Client, String> {
        let connect = || -> io::Result<Client> {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            Ok(Client {
                reader: BufReader::new(stream.try_clone()?),
                writer: stream,
                out: Vec::new(),
                line: String::new(),
            })
        };
        connect().map_err(|e| format!("cannot connect to the daemon: {e}"))
    }

    /// Sends `request` in one write and reads through its terminal line, which
    /// stays in `self.line`; returns whether it is `"ok":true`.
    fn request(&mut self, request: &str) -> Result<bool, String> {
        self.out.clear();
        self.out.extend_from_slice(request.as_bytes());
        self.out.push(b'\n');
        self.writer
            .write_all(&self.out)
            .map_err(|e| format!("send: {e}"))?;
        loop {
            self.line.clear();
            match self.reader.read_line(&mut self.line) {
                Ok(0) => return Err("the daemon closed the connection".into()),
                Ok(_) => {}
                Err(e) => return Err(format!("receive: {e}")),
            }
            if let Some(ok) = terminal(&self.line) {
                return Ok(ok);
            }
        }
    }

    fn expect_ok(&mut self, request: &str) -> Result<(), String> {
        if self.request(request)? {
            Ok(())
        } else {
            Err(format!("`{request}` failed: {}", self.line.trim_end()))
        }
    }
}

/// A daemon on a loopback ephemeral port, serving from its own thread.
struct Daemon {
    addr: SocketAddr,
    thread: JoinHandle<io::Result<()>>,
}

impl Daemon {
    /// Binds and starts the daemon, loads the graph and warms its caches with
    /// one of each read; returns the connection that did so.
    fn start(inputs: &Inputs) -> Result<(Daemon, Client), String> {
        let server = Server::bind(ServeConfig::default()).map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let daemon = Daemon {
            addr,
            thread: std::thread::spawn(move || server.run()),
        };
        let mut client = Client::connect(addr)?;
        client.expect_ok(&inputs.load)?;
        for read in READS {
            client.expect_ok(read)?;
        }
        Ok((daemon, client))
    }

    /// Shuts the daemon down and waits for its thread.
    fn stop(self, mut client: Client) -> Result<(), String> {
        client.expect_ok(r#"{"op":"shutdown"}"#)?;
        drop(client);
        self.thread
            .join()
            .map_err(|_| "the daemon thread panicked".to_string())?
            .map_err(|e| format!("daemon: {e}"))
    }
}

/// What one closed-loop connection did.
struct Connection {
    latencies: LatencyHistogram,
    attempted: u64,
    failed: u64,
    /// How far into the churn stream the connection's updates got.
    churn_used: usize,
}

/// Drives connection `conn` until `deadline`. A request fails unless its
/// terminal line is `"ok":true` (and, for a solve, reports an optimum).
fn drive(
    conn: usize,
    mut client: Client,
    inputs: &Inputs,
    deadline: Instant,
) -> Result<Connection, String> {
    let mut sequence = Sequence::new(conn);
    let mut done = Connection {
        latencies: LatencyHistogram::default(),
        attempted: 0,
        failed: 0,
        churn_used: 0,
    };
    let mut update: String;
    while Instant::now() < deadline {
        let (line, solve) = match sequence.next() {
            Next::Read(i) => (READS[i], i < SOLVES),
            Next::Update => {
                update = update_line(inputs.next_batch(&mut done.churn_used)?);
                (update.as_str(), false)
            }
        };
        let t = Instant::now();
        let ok = client.request(line)?;
        done.latencies.record(t.elapsed().as_nanos() as u64);
        let ok = ok && (!solve || client.line.contains("\"termination\":\"optimal\""));
        done.attempted += 1;
        done.failed += u64::from(!ok);
    }
    Ok(done)
}

/// The base graph with the batches of a churn prefix committed one after
/// another.
fn apply_churn(base: &AttributedGraph, churn: &[UpdateOp]) -> Result<AttributedGraph, String> {
    let mut graph = base.clone();
    let mut tombstones = BTreeSet::new();
    for batch in churn.split(|op| *op == UpdateOp::Commit) {
        let mut delta = GraphDelta::with_tombstones(tombstones);
        for op in batch {
            delta.apply_op(&graph, op).map_err(|e| e.to_string())?;
        }
        tombstones = delta.tombstones();
        graph = delta.apply(&graph);
    }
    Ok(graph)
}

/// Clique sizes of a solve response, in order.
fn response_sizes(line: &str) -> Option<Vec<u64>> {
    let value = JsonValue::parse(line.trim_end()).ok()?;
    value
        .get("cliques")?
        .as_array()?
        .iter()
        .map(|c| c.get("size").and_then(JsonValue::as_u64))
        .collect()
}

/// The daemon's maximum and top-3 answers must equal those of a fresh
/// `RfcSolver` on the base graph with connection 0's issued batches applied.
fn differential_check(
    client: &mut Client,
    inputs: &Inputs,
    churn_used: usize,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let solver = RfcSolver::new(apply_churn(&inputs.base, &inputs.churn[..churn_used])?);
    for (line, objective) in [
        (READS[0], Objective::Maximum),
        (READS[1], Objective::TopK(3)),
    ] {
        let direct = solver
            .solve(&Query::new(MODEL).with_objective(objective))
            .map_err(|e| e.to_string())?;
        let want: Vec<u64> = direct.cliques.iter().map(|c| c.size() as u64).collect();
        client.expect_ok(line)?;
        let got = response_sizes(&client.line);
        outcome.check(got.as_ref() == Some(&want), || {
            format!(
                "after {churn_used} churn ops the daemon answered {got:?} to `{line}`, \
                 a fresh solver {want:?}"
            )
        });
    }
    Ok(())
}

pub fn run(run: &Run) -> Result<Outcome, String> {
    // The inputs are the clients' script, generated once; the repeated set-up is
    // the daemon's own: bind, load and warm.
    let inputs = Inputs::generate(run, (run.window.as_secs() * BATCHES_PER_S) as usize)?;
    let ((daemon, mut client), setup_s) = run.setup(
        SETUPS,
        || Daemon::start(&inputs),
        |(daemon, client)| daemon.stop(client),
    )?;

    let clients = (0..CONNECTIONS)
        .map(|_| Client::connect(daemon.addr))
        .collect::<Result<Vec<_>, _>>()?;
    let start = Instant::now();
    let deadline = start + run.window;
    let done: Vec<Result<Connection, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(conn, c)| {
                let inputs = &inputs;
                scope.spawn(move || drive(conn, c, inputs, deadline))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("a connection thread panicked".into()))
            })
            .collect()
    });
    let wall = start.elapsed();

    let mut outcome = Outcome::default();
    let mut latencies = LatencyHistogram::default();
    let mut churn_used = 0;
    for conn in done {
        let conn = conn?;
        latencies.merge(&conn.latencies);
        outcome.attempted += conn.attempted;
        outcome.failed += conn.failed;
        churn_used = churn_used.max(conn.churn_used);
    }
    differential_check(&mut client, &inputs, churn_used, &mut outcome)?;
    daemon.stop(client)?;
    outcome.metrics = end_to_end(
        latencies.quantile_ms(0.5),
        latencies.quantile_ms(0.99),
        latencies.count(),
        wall,
        setup_s,
    );
    Ok(outcome)
}

/// Runs one request line through the in-process engine; returns whether its
/// terminal line is `"ok":true`.
fn handle(engine: &LocalEngine, line: &str) -> Result<bool, String> {
    let mut ok = false;
    engine
        .handle(line, &mut |out| {
            if let Some(success) = terminal(out) {
                ok = success;
            }
            Ok(())
        })
        .map_err(|e| e.to_string())?;
    Ok(ok)
}

/// Cache counters and components searched over one traced pass; they must
/// repeat exactly on every pass of a seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct PassCounts {
    hits: u64,
    misses: u64,
    components_searched: usize,
}

/// The traced sequence. Each pass starts three replicas from the base graph —
/// a `DynamicRfcSolver` called directly, an in-process `LocalEngine` and the
/// daemon over TCP — warms them with one of each read, and replays the first
/// 400 requests of connection 0's sequence to all three. Read lines go through
/// the daemon's own lowering: `Request::parse`, then `QuerySpec::to_query`.
pub fn trace(run: &Run, budget: Duration, spans: &mut Spans) -> Result<Outcome, String> {
    let inputs = Inputs::generate(run, TRACE_PREFIX / UPDATE_EVERY)?;
    let (daemon, mut client) = Daemon::start(&inputs)?;
    let engine = LocalEngine::new(EngineConfig::default(), Arc::new(Counters::default()));
    let mut sequence = Sequence::new(0);
    let requests: Vec<Next> = (0..READS.len())
        .map(Next::Read)
        .chain((0..TRACE_PREFIX).map(|_| sequence.next()))
        .collect();
    let mut outcome = Outcome::default();
    let mut counts: Option<PassCounts> = None;
    let (mut transport_us, mut overhead_pct) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while start.elapsed() < budget {
        let mut solver = DynamicRfcSolver::new(inputs.base.clone());
        outcome.check(handle(&engine, &inputs.load)?, || {
            "engine load failed".into()
        });
        client.expect_ok(&inputs.load)?;
        let mut pass = PassCounts::default();
        let mut committed = false;
        let mut cursor = 0;
        for (i, &next) in requests.iter().enumerate() {
            let warm_up = i < READS.len();
            spans.next_op();
            let line = match next {
                Next::Read(read) => READS[read],
                Next::Update => {
                    let ops = inputs.next_batch(&mut cursor)?;
                    let (commit, _) = spans.time("dynamic.commit", || {
                        for op in ops {
                            solver.apply_op(op)?;
                        }
                        Ok::<_, DeltaError>(solver.commit())
                    });
                    let line = update_line(ops);
                    let (engine_ok, _) =
                        spans.time("engine.handle_update", || handle(&engine, &line));
                    let (server_ok, _) = spans.time("server.rtt_update", || client.request(&line));
                    outcome.record(commit.is_ok() && engine_ok? && server_ok?);
                    committed = true;
                    continue;
                }
            };
            let (request, parse_us) = spans.time("protocol.parse", || Request::parse(line));
            let ok = match request.map_err(|e| e.to_string())? {
                Request::Solve { spec, .. } => {
                    let (query, lower_us) =
                        spans.time("protocol.lower", || spec.to_query(CancelToken::new(), None));
                    let t = Instant::now();
                    let solution = solver.solve(&query).map_err(|e| e.to_string())?;
                    let searched = solution.stats.components_searched;
                    let layer = match (committed, searched) {
                        (true, _) => "dynamic.resolve",
                        (false, 0) => "dynamic.solve_hit",
                        (false, _) => "dynamic.solve_miss",
                    };
                    let solve_us = spans.end(layer, t);
                    if committed {
                        pass.components_searched += searched;
                        committed = false;
                    }
                    let (_, encode_us) =
                        spans.time("protocol.encode", || solve_response(GRAPH, &solution));
                    let (engine_ok, handle_us) =
                        spans.time("engine.handle", || handle(&engine, line));
                    let (server_ok, rtt_us) = spans.time("server.rtt", || client.request(line));
                    if searched == 0 && !warm_up {
                        // Transport is what the round trip adds to the engine.
                        let transport = rtt_us - handle_us;
                        transport_us.push(transport);
                        let layers = parse_us + lower_us + solve_us + encode_us + transport;
                        overhead_pct.push(100.0 * (layers - rtt_us) / rtt_us);
                    }
                    solution.termination == Termination::Optimal && engine_ok? && server_ok?
                }
                Request::Enumerate { spec, .. } => {
                    let query = spec.to_query(CancelToken::new(), None);
                    let mut drain = |_: FairClique| SinkFlow::Continue;
                    let mut sink = LimitSink::new(&mut drain, spec.limit.unwrap_or(u64::MAX));
                    let (enumerated, _) =
                        spans.time("dynamic.enumerate", || solver.enumerate(&query, &mut sink));
                    let (engine_ok, _) =
                        spans.time("engine.handle_enumerate", || handle(&engine, line));
                    let (server_ok, _) =
                        spans.time("server.rtt_enumerate", || client.request(line));
                    enumerated.is_ok() && engine_ok? && server_ok?
                }
                _ => false,
            };
            if !warm_up {
                outcome.record(ok);
            }
        }
        let cache = solver.cache_stats();
        pass.hits = cache.solve.hits + cache.enumerate.hits;
        pass.misses = cache.solve.misses + cache.enumerate.misses;
        let first = *counts.get_or_insert(pass);
        outcome.check(first == pass, || {
            format!("serve-mixed counts changed between passes: {first:?} then {pass:?}")
        });
    }
    daemon.stop(client)?;
    let counts = counts.ok_or("no serve-mixed pass completed in the traced window")?;
    let us = |layer: &str| spans.median_us(layer);
    let lookups = (counts.hits + counts.misses).max(1) as f64;
    outcome.metrics = vec![
        metric("protocol.parse_us", us("protocol.parse"), "us"),
        metric("protocol.lower_us", us("protocol.lower"), "us"),
        metric("dynamic.solve_hit_us", us("dynamic.solve_hit"), "us"),
        metric("protocol.encode_us", us("protocol.encode"), "us"),
        metric("engine.handle_us", us("engine.handle"), "us"),
        metric("server.rtt_us", us("server.rtt"), "us"),
        metric(
            "server.transport_us",
            quantile(&mut transport_us, 0.5),
            "us",
        ),
        metric("dynamic.commit_us", us("dynamic.commit"), "us"),
        metric("dynamic.resolve_us", us("dynamic.resolve"), "us"),
        metric(
            "dynamic.components_searched",
            counts.components_searched as f64,
            "count",
        ),
        metric("dynamic.cache_hits", counts.hits as f64, "count"),
        metric("dynamic.cache_misses", counts.misses as f64, "count"),
        metric("dynamic.hit_ratio", counts.hits as f64 / lookups, "ratio"),
        metric(
            "serve_mixed.trace_overhead_pct",
            quantile(&mut overhead_pct, 0.5),
            "%",
        ),
    ];
    Ok(outcome)
}
