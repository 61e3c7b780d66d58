//! End-to-end tests of the `maxfaircliqued` daemon over real TCP sockets: an
//! in-process [`rfc_serve::Server`] bound to `127.0.0.1:0`, driven by plain
//! `TcpStream` clients speaking the JSONL protocol.
//!
//! The contract under test:
//!
//! * daemon answers are **identical in substance** to the direct library API
//!   (differential solve/enumerate checks against a scratch [`RfcSolver`]),
//! * malformed and oversized request lines produce *typed* errors and leave the
//!   connection usable — the daemon never answers bad input by disconnecting,
//! * budget-exhausted queries return verified best-so-far answers,
//! * an `update` from one client is observed by every other client (the registry
//!   is shared state), matching a from-scratch solver on the updated graph,
//! * clients interleaving solves, enumerations and updates concurrently all get
//!   the library's answers,
//! * admission control rejects excess load with a typed `overloaded` error, and
//! * `shutdown` terminates `run()` cleanly.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;

use rfc_core::enumerate::CollectSink;
use rfc_core::prelude::*;
use rfc_graph::fixtures;
use rfc_graph::json::JsonValue;
use rfc_serve::engine::EngineConfig;
use rfc_serve::server::{ServeConfig, Server};

/// A daemon running on an ephemeral port in a background thread, plus the
/// temp directory holding its graph files.
struct TestDaemon {
    addr: std::net::SocketAddr,
    dir: PathBuf,
    thread: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl TestDaemon {
    fn start(config: ServeConfig) -> TestDaemon {
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "rfc-serve-api-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let server = Server::bind(config).expect("bind 127.0.0.1:0");
        let addr = server.local_addr().unwrap();
        let thread = std::thread::spawn(move || server.run());
        TestDaemon {
            addr,
            dir,
            thread: Some(thread),
        }
    }

    fn default_config() -> ServeConfig {
        ServeConfig {
            port: 0,
            ..ServeConfig::default()
        }
    }

    /// Writes a graph into the daemon's temp dir and loads it under `name`.
    fn load(&self, client: &mut Client, name: &str, graph: &AttributedGraph) {
        let path = self.dir.join(format!("{name}.graph"));
        rfc_graph::io::write_graph_to_path(graph, &path).unwrap();
        let response = client.request_one(&format!(
            "{{\"op\":\"load\",\"graph\":\"{name}\",\"path\":\"{}\"}}",
            path.display()
        ));
        assert_eq!(
            response.get("ok").and_then(JsonValue::as_bool),
            Some(true),
            "load failed: {response}"
        );
    }

    fn connect(&self) -> Client {
        let stream = TcpStream::connect(self.addr).expect("connect to test daemon");
        stream.set_nodelay(true).unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    /// Issues `shutdown` and joins the server thread.
    fn shutdown(mut self) {
        let mut client = self.connect();
        let response = client.request_one("{\"op\":\"shutdown\"}");
        assert_eq!(response.get("ok").and_then(JsonValue::as_bool), Some(true));
        self.thread
            .take()
            .unwrap()
            .join()
            .expect("server thread panicked")
            .expect("server run() failed");
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Drop for TestDaemon {
    fn drop(&mut self) {
        if let Some(thread) = self.thread.take() {
            // Best-effort shutdown so a failing test doesn't leak the thread.
            if let Ok(mut stream) = TcpStream::connect(self.addr) {
                let _ = writeln!(stream, "{{\"op\":\"shutdown\"}}");
                let _ = stream.flush();
            }
            let _ = thread.join();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One protocol connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn send(&mut self, line: &str) {
        // One segment per request line (split writes stall on delayed ACKs).
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .unwrap();
        self.writer.flush().unwrap();
    }

    fn read_line(&mut self) -> JsonValue {
        let mut raw = String::new();
        let n = self.reader.read_line(&mut raw).unwrap();
        assert!(n > 0, "daemon closed the connection unexpectedly");
        JsonValue::parse(raw.trim_end()).expect("daemon responses are valid JSON")
    }

    /// Sends a request and reads exactly one (terminal) response line.
    fn request_one(&mut self, line: &str) -> JsonValue {
        self.send(line);
        let response = self.read_line();
        assert!(
            response.get("ok").is_some(),
            "expected a terminal line, got {response}"
        );
        response
    }

    /// Sends a request and reads stream lines up to and including the terminal one.
    fn request_stream(&mut self, line: &str) -> (Vec<JsonValue>, JsonValue) {
        self.send(line);
        let mut stream = Vec::new();
        loop {
            let value = self.read_line();
            if value.get("ok").is_some() {
                return (stream, value);
            }
            stream.push(value);
        }
    }
}

/// Sorted vertex sets of a solve response's cliques.
fn response_clique_sets(response: &JsonValue) -> Vec<Vec<u64>> {
    response
        .get("cliques")
        .and_then(JsonValue::as_array)
        .unwrap()
        .iter()
        .map(|clique| {
            let mut vertices: Vec<u64> = clique
                .get("vertices")
                .and_then(JsonValue::as_array)
                .unwrap()
                .iter()
                .map(|v| v.as_u64().unwrap())
                .collect();
            vertices.sort_unstable();
            vertices
        })
        .collect()
}

/// Sorted vertex sets of an `enumerate` stream, in sorted order.
fn stream_clique_sets(stream: &[JsonValue]) -> Vec<Vec<u64>> {
    let mut sets: Vec<Vec<u64>> = stream
        .iter()
        .map(|line| {
            let mut vertices: Vec<u64> = line
                .get("clique")
                .and_then(|c| c.get("vertices"))
                .and_then(JsonValue::as_array)
                .unwrap()
                .iter()
                .map(|v| v.as_u64().unwrap())
                .collect();
            vertices.sort_unstable();
            vertices
        })
        .collect();
    sets.sort();
    sets
}

/// Sorted vertex sets of every maximal fair clique the library enumerates, in
/// sorted order.
fn library_clique_sets(solver: &RfcSolver, model: FairnessModel) -> Vec<Vec<u64>> {
    let mut sink = CollectSink::new();
    solver.enumerate(&EnumQuery::new(model), &mut sink).unwrap();
    let mut sets: Vec<Vec<u64>> = sink
        .cliques()
        .iter()
        .map(|c| {
            let mut vertices: Vec<u64> = c.vertices.iter().map(|&v| v as u64).collect();
            vertices.sort_unstable();
            vertices
        })
        .collect();
    sets.sort();
    sets
}

#[test]
fn daemon_answers_match_the_direct_library() {
    let daemon = TestDaemon::start(TestDaemon::default_config());
    let mut client = daemon.connect();
    let graph = fixtures::fig1_graph();
    daemon.load(&mut client, "fig1", &graph);
    let direct = RfcSolver::new(graph.clone());

    for (model, request) in [
        (
            FairnessModel::Relative { k: 3, delta: 1 },
            r#"{"op":"solve","graph":"fig1","k":3,"delta":1}"#,
        ),
        (
            FairnessModel::Weak { k: 3 },
            r#"{"op":"solve","graph":"fig1","model":"weak","k":3}"#,
        ),
        (
            FairnessModel::Strong { k: 2 },
            r#"{"op":"solve","graph":"fig1","model":"strong","k":2}"#,
        ),
    ] {
        let expected = direct.solve(&Query::new(model)).unwrap();
        let response = client.request_one(request);
        assert_eq!(
            response.get("ok").and_then(JsonValue::as_bool),
            Some(true),
            "{request} -> {response}"
        );
        let sizes: Vec<u64> = response_clique_sets(&response)
            .iter()
            .map(|c| c.len() as u64)
            .collect();
        let expected_sizes: Vec<u64> = expected.cliques.iter().map(|c| c.size() as u64).collect();
        assert_eq!(sizes, expected_sizes, "{model:?}");
        // Every daemon clique verifies under the model on the real graph.
        for vertices in response_clique_sets(&response) {
            let vertices: Vec<VertexId> = vertices.iter().map(|&v| v as VertexId).collect();
            assert!(rfc_core::verify::is_fair_clique_under(
                &graph, &vertices, model
            ));
        }
    }

    // Enumeration: the daemon's stream equals the direct sink's clique sets.
    let expected_sets = library_clique_sets(&direct, FairnessModel::Relative { k: 2, delta: 1 });
    let (stream, terminal) =
        client.request_stream(r#"{"op":"enumerate","graph":"fig1","k":2,"delta":1}"#);
    assert_eq!(
        terminal.get("termination").and_then(JsonValue::as_str),
        Some("complete")
    );
    assert_eq!(
        terminal.get("emitted").and_then(JsonValue::as_u64),
        Some(stream.len() as u64)
    );
    assert_eq!(stream_clique_sets(&stream), expected_sets);

    daemon.shutdown();
}

#[test]
fn malformed_and_oversized_lines_get_typed_errors_not_disconnects() {
    let daemon = TestDaemon::start(ServeConfig {
        max_line_bytes: 256,
        ..TestDaemon::default_config()
    });
    let mut client = daemon.connect();
    daemon.load(&mut client, "fig1", &fixtures::fig1_graph());

    for (line, code) in [
        ("this is not json", "parse_error"),
        ("{\"op\":\"teleport\"}", "bad_request"),
        (
            "{\"op\":\"solve\",\"graph\":\"nope\",\"k\":2}",
            "unknown_graph",
        ),
        (
            "{\"op\":\"solve\",\"graph\":\"fig1\",\"k\":0}",
            "invalid_params",
        ),
        (
            "{\"op\":\"solve\",\"graph\":\"fig1\",\"k\":2,\"model\":\"psychic\"}",
            "invalid_params",
        ),
    ] {
        let response = client.request_one(line);
        assert_eq!(
            response.get("ok").and_then(JsonValue::as_bool),
            Some(false),
            "{line}"
        );
        assert_eq!(
            response.get("error").and_then(JsonValue::as_str),
            Some(code),
            "{line}"
        );
    }

    // A line over the 256-byte bound: typed error, connection stays in sync.
    let huge = format!(
        "{{\"op\":\"solve\",\"graph\":\"{}\",\"k\":2}}",
        "x".repeat(400)
    );
    let response = client.request_one(&huge);
    assert_eq!(
        response.get("error").and_then(JsonValue::as_str),
        Some("line_too_long")
    );

    // After all that abuse, the same connection still answers real queries.
    let response = client.request_one(r#"{"op":"solve","graph":"fig1","k":3,"delta":1}"#);
    assert_eq!(response.get("ok").and_then(JsonValue::as_bool), Some(true));
    assert_eq!(
        response_clique_sets(&response)[0].len(),
        7,
        "fig. 1 maximum relative fair clique has 7 vertices"
    );

    daemon.shutdown();
}

#[test]
fn budget_exhaustion_returns_verified_best_so_far() {
    let daemon = TestDaemon::start(TestDaemon::default_config());
    let mut client = daemon.connect();
    let graph = fixtures::fig1_graph();
    daemon.load(&mut client, "fig1", &graph);

    // A node budget of 0 exhausts immediately. On fig. 1 the heuristic warm
    // start (size 7) meets the colorful upper bound, so the answer comes back
    // bound-certified: `optimal` with a zero gap despite the exhausted budget.
    // Either way the budget never produces an unverified clique.
    let response =
        client.request_one(r#"{"op":"solve","graph":"fig1","k":3,"delta":1,"node_limit":0}"#);
    assert_eq!(
        response.get("termination").and_then(JsonValue::as_str),
        Some("optimal")
    );
    assert_eq!(
        response.get("optimality_gap").and_then(JsonValue::as_u64),
        Some(0)
    );
    assert_eq!(
        response.get("upper_bound").and_then(JsonValue::as_u64),
        Some(7)
    );
    let model = FairnessModel::Relative { k: 3, delta: 1 };
    for vertices in response_clique_sets(&response) {
        let vertices: Vec<VertexId> = vertices.iter().map(|&v| v as VertexId).collect();
        assert!(rfc_core::verify::is_fair_clique_under(
            &graph, &vertices, model
        ));
    }

    // A model the warm start cannot certify (strong fairness on fig. 1 has no
    // tight colorful bound) genuinely exhausts, with the bound as its gap.
    let response = client
        .request_one(r#"{"op":"solve","graph":"fig1","model":"strong","k":3,"node_limit":0}"#);
    let termination = response.get("termination").and_then(JsonValue::as_str);
    if termination == Some("budget_exhausted") {
        let ub = response.get("upper_bound").and_then(JsonValue::as_u64);
        let gap = response.get("optimality_gap").and_then(JsonValue::as_u64);
        assert!(ub.is_some());
        assert!(gap.is_some_and(|g| g > 0));
    } else {
        // Bound-certified here too: then the gap must be zero.
        assert_eq!(termination, Some("optimal"));
        assert_eq!(
            response.get("optimality_gap").and_then(JsonValue::as_u64),
            Some(0)
        );
    }
    let model = FairnessModel::Strong { k: 3 };
    for vertices in response_clique_sets(&response) {
        let vertices: Vec<VertexId> = vertices.iter().map(|&v| v as VertexId).collect();
        assert!(rfc_core::verify::is_fair_clique_under(
            &graph, &vertices, model
        ));
    }

    daemon.shutdown();
}

#[test]
fn updates_from_one_client_are_visible_to_all_others() {
    let daemon = TestDaemon::start(TestDaemon::default_config());
    let mut alice = daemon.connect();
    let mut bob = daemon.connect();
    let graph = fixtures::fig1_graph();
    daemon.load(&mut alice, "shared", &graph);

    // Bob sees the loaded graph immediately (shared registry).
    let before = bob.request_one(r#"{"op":"solve","graph":"shared","k":3,"delta":1}"#);
    assert_eq!(response_clique_sets(&before)[0].len(), 7);

    // Alice removes a vertex of the incumbent clique.
    let victim = response_clique_sets(&before)[0][0];
    let update = alice.request_one(&format!(
        "{{\"op\":\"update\",\"graph\":\"shared\",\"ops\":[{{\"op\":\"remove_vertex\",\"v\":{victim}}}]}}"
    ));
    assert_eq!(update.get("ok").and_then(JsonValue::as_bool), Some(true));

    // Bob's next solve sees the committed update and agrees with scratch.
    let mut scratch_graph = graph;
    let mut delta = rfc_graph::delta::GraphDelta::new();
    delta
        .apply_op(
            &scratch_graph,
            &rfc_graph::delta::UpdateOp::RemoveVertex {
                v: victim as VertexId,
            },
        )
        .unwrap();
    scratch_graph = delta.apply(&scratch_graph);
    let scratch = RfcSolver::new(scratch_graph)
        .solve(&Query::new(FairnessModel::Relative { k: 3, delta: 1 }))
        .unwrap();
    let after = bob.request_one(r#"{"op":"solve","graph":"shared","k":3,"delta":1}"#);
    let daemon_best = response_clique_sets(&after)
        .first()
        .map(|c| c.len())
        .unwrap_or(0);
    let scratch_best = scratch.best().map(|c| c.size()).unwrap_or(0);
    assert_eq!(daemon_best, scratch_best);

    daemon.shutdown();
}

#[test]
fn saturated_daemon_answers_overloaded() {
    // One execution slot, no queue: a slow ping occupies the slot and the next
    // request must be rejected with a typed error, not stalled.
    let daemon = TestDaemon::start(ServeConfig {
        max_active: 1,
        max_queue: 0,
        ..TestDaemon::default_config()
    });
    let mut slow = daemon.connect();
    slow.send(r#"{"op":"ping","sleep_ms":1500}"#);
    // Give the slow ping time to take the slot.
    std::thread::sleep(std::time::Duration::from_millis(200));
    let mut fast = daemon.connect();
    let response = fast.request_one(r#"{"op":"ping"}"#);
    assert_eq!(
        response.get("error").and_then(JsonValue::as_str),
        Some("overloaded"),
        "{response}"
    );
    // stats bypasses admission even while saturated.
    let stats = fast.request_one(r#"{"op":"stats"}"#);
    assert_eq!(stats.get("ok").and_then(JsonValue::as_bool), Some(true));
    assert!(
        stats
            .get("counters")
            .and_then(|c| c.get("overloaded"))
            .and_then(JsonValue::as_u64)
            .unwrap()
            >= 1
    );
    // The slow ping eventually completes fine.
    let response = slow.read_line();
    assert_eq!(response.get("ok").and_then(JsonValue::as_bool), Some(true));

    daemon.shutdown();
}

#[test]
fn bounded_caches_report_evictions_in_stats() {
    let daemon = TestDaemon::start(ServeConfig {
        engine: EngineConfig {
            cache_capacity: Some(1),
            ..EngineConfig::default()
        },
        ..TestDaemon::default_config()
    });
    let mut client = daemon.connect();
    // Two disjoint balanced cliques of *different* sizes -> two distinct
    // canonical cache keys fighting over a capacity of 1. (Identical components
    // would share one key: the cache canonicalizes per component.)
    let graph = {
        let attrs: Vec<Attribute> = (0..10)
            .map(|i| {
                if i % 2 == 0 {
                    Attribute::A
                } else {
                    Attribute::B
                }
            })
            .collect();
        let mut builder = GraphBuilder::with_attributes(attrs);
        for u in 0..6u32 {
            for v in (u + 1)..6 {
                builder.add_edge(u, v);
            }
        }
        for u in 6..10u32 {
            for v in (u + 1)..10 {
                builder.add_edge(u, v);
            }
        }
        builder.build().unwrap()
    };
    daemon.load(&mut client, "two", &graph);
    let solve = client.request_one(r#"{"op":"solve","graph":"two","k":2,"delta":1}"#);
    assert_eq!(solve.get("ok").and_then(JsonValue::as_bool), Some(true));
    let stats = client.request_one(r#"{"op":"stats"}"#);
    let cache = stats.get("graphs").and_then(JsonValue::as_array).unwrap()[0]
        .get("cache")
        .and_then(|c| c.get("solve"))
        .cloned()
        .unwrap();
    assert_eq!(cache.get("len").and_then(JsonValue::as_u64), Some(1));
    assert!(
        cache.get("evictions").and_then(JsonValue::as_u64).unwrap() >= 1,
        "capacity 1 with >= 2 components must evict: {cache}"
    );

    daemon.shutdown();
}

#[test]
fn concurrent_clients_all_get_correct_answers() {
    const SOLVE: &str = r#"{"op":"solve","graph":"fig1","k":3,"delta":1}"#;
    const ENUMERATE: &str = r#"{"op":"enumerate","graph":"fig1","k":2,"delta":1}"#;
    let graph = fixtures::fig1_graph();
    let fresh = RfcSolver::new(graph.clone());
    let expected = fresh
        .solve(&Query::new(FairnessModel::Relative { k: 3, delta: 1 }))
        .unwrap()
        .best()
        .unwrap()
        .size();
    let enumerated = FairnessModel::Relative { k: 2, delta: 1 };
    let expected_sets = library_clique_sets(&fresh, enumerated);
    // Non-edges whose insertion changes the maximal fair cliques: each client of
    // the mixed case toggles its own, so a half-applied toggle shows in answers.
    let n = graph.num_vertices() as VertexId;
    let non_edges: Vec<(VertexId, VertexId)> = (0..n)
        .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
        .filter(|&(u, v)| {
            if graph.has_edge(u, v) {
                return false;
            }
            let mut delta = rfc_graph::delta::GraphDelta::new();
            let insert = rfc_graph::delta::UpdateOp::InsertEdge { u, v };
            delta.apply_op(&graph, &insert).unwrap();
            library_clique_sets(&RfcSolver::new(delta.apply(&graph)), enumerated) != expected_sets
        })
        .collect();
    assert!(non_edges.len() >= 4, "{non_edges:?}");

    // Two cases: eight clients repeat one solve, then four clients interleave
    // solves, enumerations and updates. Each update inserts and removes an edge
    // in one atomic batch, so every answer must stay the loaded graph's.
    for (clients, rounds, mixed) in [(8, 5, false), (4, 24, true)] {
        let daemon = TestDaemon::start(TestDaemon::default_config());
        let mut setup = daemon.connect();
        daemon.load(&mut setup, "fig1", &graph);

        std::thread::scope(|scope| {
            for id in 0..clients {
                let (daemon, expected_sets) = (&daemon, &expected_sets);
                let (u, v) = non_edges[id % non_edges.len()];
                scope.spawn(move || {
                    let mut client = daemon.connect();
                    let toggle = format!(
                        "{{\"op\":\"update\",\"graph\":\"fig1\",\"ops\":[\
                         {{\"op\":\"insert_edge\",\"u\":{u},\"v\":{v}}},\
                         {{\"op\":\"remove_edge\",\"u\":{u},\"v\":{v}}}]}}"
                    );
                    for i in 0..rounds {
                        match (mixed, i % 4) {
                            (true, 2) => {
                                let (stream, terminal) = client.request_stream(ENUMERATE);
                                assert_eq!(
                                    terminal.get("termination").and_then(JsonValue::as_str),
                                    Some("complete")
                                );
                                assert_eq!(&stream_clique_sets(&stream), expected_sets);
                            }
                            (true, 3) => {
                                let response = client.request_one(&toggle);
                                assert_eq!(
                                    response.get("ok").and_then(JsonValue::as_bool),
                                    Some(true),
                                    "{response}"
                                );
                            }
                            _ => {
                                let response = client.request_one(SOLVE);
                                assert_eq!(
                                    response.get("ok").and_then(JsonValue::as_bool),
                                    Some(true)
                                );
                                assert_eq!(response_clique_sets(&response)[0].len(), expected);
                            }
                        }
                    }
                });
            }
        });

        let mut client = daemon.connect();
        let stats = client.request_one(r#"{"op":"stats"}"#);
        let entry = &stats.get("graphs").and_then(JsonValue::as_array).unwrap()[0];
        if mixed {
            // The toggles left the graph as loaded, and the daemon still agrees
            // with a fresh solver on it.
            assert_eq!(
                entry.get("m").and_then(JsonValue::as_u64),
                Some(graph.num_edges() as u64)
            );
            assert_eq!(
                entry.get("commits").and_then(JsonValue::as_u64),
                Some((clients * rounds / 4) as u64)
            );
            let response = client.request_one(SOLVE);
            assert_eq!(response_clique_sets(&response)[0].len(), expected);
            let (stream, _) = client.request_stream(ENUMERATE);
            assert_eq!(stream_clique_sets(&stream), expected_sets);
        } else {
            // The shared cache served most of those queries.
            let cache = entry.get("cache").and_then(|c| c.get("solve")).unwrap();
            assert!(
                cache.get("hits").and_then(JsonValue::as_u64).unwrap() >= 30,
                "40 identical solves over a shared registry must mostly hit the cache: {cache}"
            );
        }

        daemon.shutdown();
    }
}
