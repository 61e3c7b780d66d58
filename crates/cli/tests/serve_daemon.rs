//! Integration test of the real `maxfairclique serve` binary: the daemon is
//! spawned as a child process, driven over TCP, checked against the direct
//! library API, put through thousands of short connections, and shut down. The
//! real `maxfairclique solve` binary is checked against both.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use rfc_bench::workloads::multi_component_graph;
use rfc_core::prelude::*;
use rfc_datasets::synthetic::{one_big_component, BigComponentConfig};
use rfc_graph::json::JsonValue;
use rfc_graph::{fixtures, io::write_graph_to_path};
use rfc_serve::protocol::{termination_str, EnumSpec, QuerySpec, Request};

/// One protocol connection to the daemon.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to spawned daemon");
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    /// Sends one request line and reads lines until the terminal response.
    fn request(&mut self, line: &str) -> JsonValue {
        self.stream(line).1
    }

    /// Sends one request line and returns the lines streamed before the terminal
    /// response, then that response.
    fn stream(&mut self, line: &str) -> (Vec<JsonValue>, JsonValue) {
        // One segment per request line (split writes stall on delayed ACKs).
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .unwrap();
        self.writer.flush().unwrap();
        let mut streamed = Vec::new();
        loop {
            let mut raw = String::new();
            let n = self.reader.read_line(&mut raw).unwrap();
            assert!(n > 0, "daemon closed the connection unexpectedly");
            let value = JsonValue::parse(raw.trim_end()).expect("valid JSON response");
            if value.get("ok").is_some() {
                return (streamed, value);
            }
            streamed.push(value);
        }
    }
}

/// The daemon child process and its scratch directory.
struct Daemon {
    child: Child,
    addr: String,
    dir: std::path::PathBuf,
}

impl Daemon {
    /// Spawns `maxfairclique serve --port 0` and reads the address it prints.
    fn spawn() -> Daemon {
        // Tests in this binary run in parallel, and `Drop` deletes the directory,
        // so every daemon gets its own.
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "rfc-serve-daemon-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let mut child = Command::new(env!("CARGO_BIN_EXE_maxfairclique"))
            .args(["serve", "--port", "0"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn maxfairclique serve");
        let mut lines = BufReader::new(child.stdout.take().unwrap()).lines();
        let banner = lines
            .next()
            .expect("daemon exited before announcing its address")
            .unwrap();
        let addr = banner
            .rsplit(' ')
            .next()
            .expect("banner ends with host:port")
            .to_string();
        Daemon { child, addr, dir }
    }

    /// Lines of the daemon's memory map: two per live or leaked thread stack.
    #[cfg(target_os = "linux")]
    fn mappings(&self) -> usize {
        std::fs::read_to_string(format!("/proc/{}/maps", self.child.id()))
            .expect("read the daemon's memory map")
            .lines()
            .count()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn best_size(response: &JsonValue) -> Option<u64> {
    response
        .get("cliques")
        .and_then(JsonValue::as_array)
        .and_then(|c| c.first())
        .and_then(|c| c.get("size"))
        .and_then(JsonValue::as_u64)
}

#[test]
fn daemon_matches_the_library_serves_many_connections_and_exits_cleanly() {
    let mut daemon = Daemon::spawn();
    let mut client = Client::connect(&daemon.addr);

    let graph = fixtures::fig1_graph();
    let path = daemon.dir.join("fig1.graph");
    write_graph_to_path(&graph, &path).unwrap();
    let load = client.request(&format!(
        "{{\"op\":\"load\",\"graph\":\"fig1\",\"path\":\"{}\"}}",
        path.display()
    ));
    assert_eq!(
        load.get("ok").and_then(JsonValue::as_bool),
        Some(true),
        "{load}"
    );

    let expected = RfcSolver::new(graph)
        .solve(&Query::new(FairnessModel::Relative { k: 3, delta: 1 }))
        .unwrap();
    let expected_size = expected.best().map(|c| c.size() as u64);
    let solve = client.request(r#"{"op":"solve","graph":"fig1","k":3,"delta":1}"#);
    assert_eq!(
        solve.get("termination").and_then(JsonValue::as_str),
        Some("optimal"),
        "{solve}"
    );
    assert_eq!(best_size(&solve), expected_size);
    // An unknown field such as `shard` is ignored: the answer covers the whole graph.
    let sharded = client
        .request(r#"{"op":"solve","graph":"fig1","k":3,"delta":1,"shard":{"index":1,"count":2}}"#);
    assert_eq!(best_size(&sharded), expected_size, "{sharded}");

    // Every closed connection must release its thread: thousands of short
    // connections may not grow the daemon's memory map.
    #[cfg(target_os = "linux")]
    let before = daemon.mappings();
    for _ in 0..2_000 {
        let mut short = Client::connect(&daemon.addr);
        let ping = short.request(r#"{"op":"ping"}"#);
        assert_eq!(ping.get("ok").and_then(JsonValue::as_bool), Some(true));
    }
    #[cfg(target_os = "linux")]
    {
        let after = daemon.mappings();
        assert!(
            after < before + 200,
            "2,000 closed connections grew the memory map from {before} to {after} lines"
        );
    }

    let shutdown = client.request(r#"{"op":"shutdown"}"#);
    assert_eq!(shutdown.get("ok").and_then(JsonValue::as_bool), Some(true));
    let status = daemon.child.wait().unwrap();
    assert!(status.success(), "daemon exit status: {status:?}");
}

/// One solve answer as the front ends are compared on it: the termination, every
/// clique's vertex list in order, and the certified bound and gap.
#[derive(Debug, PartialEq)]
struct Answer {
    termination: String,
    cliques: Vec<Vec<u64>>,
    upper_bound: Option<u64>,
    optimality_gap: Option<u64>,
}

impl Answer {
    fn of_library(solution: &Solution) -> Answer {
        let vertices =
            |clique: &FairClique| clique.vertices.iter().map(|&v| u64::from(v)).collect();
        Answer {
            termination: termination_str(solution.termination).to_string(),
            cliques: solution.cliques.iter().map(vertices).collect(),
            upper_bound: solution.upper_bound.map(|b| b as u64),
            optimality_gap: solution.optimality_gap().map(|g| g as u64),
        }
    }

    /// Reads a solve object. A missing field panics, so an encoder that drops one
    /// fails here instead of reading as `null`.
    fn of_json(value: &JsonValue) -> Answer {
        let field = |key: &str| {
            value
                .get(key)
                .unwrap_or_else(|| panic!("no `{key}` in {value}"))
        };
        let size = |key: &str| match field(key) {
            JsonValue::Null => None,
            size => Some(size.as_u64().expect("a size")),
        };
        let vertices = |clique: &JsonValue| -> Vec<u64> {
            let vertices = clique.get("vertices").and_then(JsonValue::as_array);
            let vertices = vertices.expect("a clique lists its vertices");
            vertices
                .iter()
                .map(|v| v.as_u64().expect("an id"))
                .collect()
        };
        Answer {
            termination: field("termination").as_str().expect("a string").into(),
            cliques: field("cliques")
                .as_array()
                .expect("an array")
                .iter()
                .map(vertices)
                .collect(),
            upper_bound: size("upper_bound"),
            optimality_gap: size("optimality_gap"),
        }
    }
}

/// The 23-vertex graph of `dynamic_consistency`'s top-k tie test: three balanced
/// 4-cliques in two components, two of which tie for the canonical top 2.
fn tie_graph() -> AttributedGraph {
    let mut b = GraphBuilder::new(23);
    for v in [11, 12, 14, 21, 22] {
        b.set_attribute(v, Attribute::B);
    }
    for clique in [[0, 10, 11, 12], [10, 11, 13, 14], [1, 20, 21, 22]] {
        for (i, &u) in clique.iter().enumerate() {
            for &v in &clique[i + 1..] {
                b.add_edge(u, v);
            }
        }
    }
    b.build().unwrap()
}

/// Library (`Serial`), the `solve --threads 1 --format json` binary and the
/// daemon's `solve` (serial by default) give one answer: termination, cliques in
/// order, bound and gap, on unbudgeted and budget-bound queries, also where
/// maximum cliques tie across components and where a node budget spans several
/// components. The `enumerate --threads 1 --format jsonl` binary and the daemon's
/// `enumerate` stream emit the same cliques in the same order, also with a
/// `min_size` above `2k` and a `limit`, on a small graph and on the big component.
#[test]
fn library_cli_and_daemon_give_the_same_answer() {
    // The config of `rfc_bench::workloads::big_component_graph(800, 17)`.
    let big = BigComponentConfig {
        n: 800,
        edge_prob: 16.0 / 800.0,
        community: 240,
        community_prob: 0.55,
        planted_half: 18,
        prob_a: 0.5,
    };
    // A dense community in a sparse periphery: a degree filter at a `min_size`
    // above `2k` would split its components differently from the `2k` ones.
    let core = BigComponentConfig {
        n: 60,
        edge_prob: 0.15,
        community: 25,
        community_prob: 0.7,
        planted_half: 3,
        prob_a: 0.5,
    };
    let graphs = [
        ("fig1", fixtures::fig1_graph()),
        ("ties", tie_graph()),
        ("big", one_big_component(&big, 17).0),
        ("core", one_big_component(&core, 2).0),
        ("multi", multi_component_graph(4, 120, 17)),
        ("blobs", fixtures::four_blobs(17)),
    ];
    let relative = |k, delta| FairnessModel::Relative { k, delta };
    let cases = [
        ("fig1", relative(3, 1), None, None),
        ("fig1", FairnessModel::Weak { k: 3 }, None, None),
        ("fig1", FairnessModel::Strong { k: 3 }, None, None),
        ("ties", relative(2, 0), Some(2), None),
        ("big", relative(3, 1), None, Some(0)),
        ("big", relative(3, 1), Some(3), Some(50)),
        ("multi", relative(3, 1), None, Some(5)),
        ("blobs", relative(3, 1), None, None),
    ];

    let daemon = Daemon::spawn();
    let mut client = Client::connect(&daemon.addr);
    for (name, graph) in &graphs {
        let path = daemon.dir.join(format!("{name}.graph"));
        write_graph_to_path(graph, &path).unwrap();
        let load = Request::Load {
            graph: name.to_string(),
            path: path.display().to_string(),
        };
        let load = client.request(&load.to_line());
        assert_eq!(load.get("ok").and_then(JsonValue::as_bool), Some(true));
    }

    for (name, model, top, node_limit) in cases {
        let case = format!("{name} {model} top {top:?} node limit {node_limit:?}");
        let graph = &graphs.iter().find(|(n, _)| *n == name).unwrap().1;
        let mut query = Query::new(model)
            .with_config(SearchConfig::default().with_threads(ThreadCount::Serial))
            .with_budget(Budget {
                time_limit: None,
                node_limit,
            });
        if let Some(n) = top {
            query = query.with_objective(Objective::TopK(n));
        }
        let library = Answer::of_library(&RfcSolver::new(graph.clone()).solve(&query).unwrap());

        let path = daemon.dir.join(format!("{name}.graph"));
        let mut args = vec![
            "solve".to_string(),
            "--graph".into(),
            path.display().to_string(),
            "--threads".into(),
            "1".into(),
            "--format".into(),
            "json".into(),
            "-k".into(),
            model.k().to_string(),
        ];
        match model {
            FairnessModel::Relative { delta, .. } => args.extend(["-d".into(), delta.to_string()]),
            FairnessModel::Weak { .. } => args.push("--weak".into()),
            FairnessModel::Strong { .. } => args.push("--strong".into()),
        }
        if let Some(n) = top {
            args.extend(["--top".into(), n.to_string()]);
        }
        if let Some(n) = node_limit {
            args.extend(["--node-limit".into(), n.to_string()]);
        }
        let output = Command::new(env!("CARGO_BIN_EXE_maxfairclique"))
            .args(&args)
            .output()
            .expect("run maxfairclique solve");
        assert!(output.status.success(), "{case}: {output:?}");
        let stdout = String::from_utf8(output.stdout).unwrap();
        let cli = Answer::of_json(&JsonValue::parse(stdout.trim_end()).expect("one JSON object"));

        let request = Request::Solve {
            graph: name.to_string(),
            spec: QuerySpec {
                top,
                node_limit,
                ..QuerySpec::new(model)
            },
        };
        let served = Answer::of_json(&client.request(&request.to_line()));

        assert_eq!(cli, library, "CLI against library, {case}");
        assert_eq!(served, library, "daemon against library, {case}");
    }

    // A `limit` bounds the daemon's work too: the `big` case does not answer at
    // all when a component is listed in full before its first clique is sent.
    for (name, k, delta, min_size, limit) in [("core", 2, 1, 7, 5), ("big", 3, 1, 8, 5)] {
        let path = daemon.dir.join(format!("{name}.graph"));
        let output = Command::new(env!("CARGO_BIN_EXE_maxfairclique"))
            .args(["enumerate", "--graph", &path.display().to_string()])
            .args(["-k", &k.to_string(), "-d", &delta.to_string()])
            .args([
                "--min-size",
                &min_size.to_string(),
                "--limit",
                &limit.to_string(),
            ])
            .args(["--threads", "1", "--format", "jsonl"])
            .output()
            .expect("run maxfairclique enumerate");
        assert!(output.status.success(), "{output:?}");
        let cli: Vec<JsonValue> = String::from_utf8(output.stdout)
            .unwrap()
            .lines()
            .map(|line| JsonValue::parse(line).expect("one JSON object per line"))
            .collect();
        let request = Request::Enumerate {
            graph: name.to_string(),
            spec: EnumSpec {
                min_size,
                limit: Some(limit),
                ..EnumSpec::new(FairnessModel::Relative { k, delta })
            },
        };
        let (streamed, done) = client.stream(&request.to_line());
        assert_eq!(done.get("emitted").and_then(JsonValue::as_u64), Some(limit));
        let served: Vec<JsonValue> = streamed
            .iter()
            .map(|line| line.get("clique").expect("a clique line").clone())
            .collect();
        assert_eq!(cli.len() as u64, limit);
        assert_eq!(
            served, cli,
            "daemon against CLI, enumerate {name} min size {min_size}"
        );
    }
}
