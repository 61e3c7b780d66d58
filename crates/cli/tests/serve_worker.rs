//! Integration tests of the real `maxfairclique serve` binary with a
//! multi-process shard executor: the daemon is spawned as a child process with
//! `--workers 2`, driven over TCP, and one worker is killed mid-session to
//! prove the typed `worker_failed` error, the respawn-and-replay recovery, and
//! that the daemon's answers equal the direct library API throughout.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use rfc_core::prelude::*;
use rfc_graph::json::JsonValue;
use rfc_graph::{fixtures, io::write_graph_to_path};

/// The daemon child process plus a connected protocol client.
struct Daemon {
    child: Child,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    dir: std::path::PathBuf,
}

impl Daemon {
    /// Spawns `maxfairclique serve --port 0 --workers <n>` and connects to the
    /// address it prints. `test` names the scratch directory, so tests running at the
    /// same time never share (and delete) each other's files.
    fn spawn(test: &str, workers: usize) -> Daemon {
        let dir = std::env::temp_dir().join(format!(
            "rfc-serve-worker-{}-{test}-{workers}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let mut child = Command::new(env!("CARGO_BIN_EXE_maxfairclique"))
            .args(["serve", "--port", "0", "--workers", &workers.to_string()])
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
            .expect("banner ends with host:port");
        let stream = TcpStream::connect(addr).expect("connect to spawned daemon");
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .unwrap();
        Daemon {
            child,
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
            dir,
        }
    }

    /// Sends one request line and reads lines until the terminal response.
    fn request(&mut self, line: &str) -> JsonValue {
        // One segment per request line (split writes stall on delayed ACKs).
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .unwrap();
        self.writer.flush().unwrap();
        loop {
            let mut raw = String::new();
            let n = self.reader.read_line(&mut raw).unwrap();
            assert!(n > 0, "daemon closed the connection unexpectedly");
            let value = JsonValue::parse(raw.trim_end()).expect("valid JSON response");
            if value.get("ok").is_some() {
                return value;
            }
        }
    }

    /// Worker pids as reported by `stats`.
    fn worker_pids(&mut self) -> Vec<u64> {
        let stats = self.request("{\"op\":\"stats\"}");
        stats
            .get("workers")
            .and_then(JsonValue::as_array)
            .expect("sharded daemon stats lists workers")
            .iter()
            .filter_map(|w| w.get("pid").and_then(JsonValue::as_u64))
            .collect()
    }

    fn shutdown(mut self) {
        let response = self.request("{\"op\":\"shutdown\"}");
        assert_eq!(response.get("ok").and_then(JsonValue::as_bool), Some(true));
        let status = self.child.wait().unwrap();
        assert!(status.success(), "daemon exit status: {status:?}");
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn best_size(response: &JsonValue) -> u64 {
    response
        .get("cliques")
        .and_then(JsonValue::as_array)
        .and_then(|c| c.first())
        .and_then(|c| c.get("size"))
        .and_then(JsonValue::as_u64)
        .unwrap_or(0)
}

#[test]
fn sharded_daemon_survives_a_worker_kill_and_matches_the_library() {
    let mut daemon = Daemon::spawn("worker-kill", 2);

    // Load fig. 1 from a file the daemon can read.
    let graph = fixtures::fig1_graph();
    let path = daemon.dir.join("fig1.graph");
    write_graph_to_path(&graph, &path).unwrap();
    let response = daemon.request(&format!(
        "{{\"op\":\"load\",\"graph\":\"fig1\",\"path\":\"{}\"}}",
        path.display()
    ));
    assert_eq!(
        response.get("ok").and_then(JsonValue::as_bool),
        Some(true),
        "{response}"
    );

    // Differential: sharded daemon answer equals the direct solver.
    let expected = RfcSolver::new(graph)
        .solve(&Query::new(FairnessModel::Relative { k: 3, delta: 1 }))
        .unwrap()
        .best()
        .unwrap()
        .size() as u64;
    let solve = daemon.request("{\"op\":\"solve\",\"graph\":\"fig1\",\"k\":3,\"delta\":1}");
    assert_eq!(solve.get("ok").and_then(JsonValue::as_bool), Some(true));
    assert_eq!(best_size(&solve), expected);

    // Two live workers with distinct pids.
    let pids = daemon.worker_pids();
    assert_eq!(pids.len(), 2);
    assert_ne!(pids[0], pids[1]);

    // SIGKILL one worker. The next query fails with a *typed* error -- the
    // daemon itself keeps serving.
    let status = Command::new("kill")
        .args(["-9", &pids[0].to_string()])
        .status()
        .unwrap();
    assert!(status.success(), "kill -9 worker");
    let mut saw_failure = false;
    for _ in 0..5 {
        let response = daemon.request("{\"op\":\"solve\",\"graph\":\"fig1\",\"k\":3,\"delta\":1}");
        if response.get("ok").and_then(JsonValue::as_bool) == Some(false) {
            assert_eq!(
                response.get("error").and_then(JsonValue::as_str),
                Some("worker_failed"),
                "{response}"
            );
            saw_failure = true;
            break;
        }
        // The kernel may not have reaped the worker yet; give it a moment.
        std::thread::sleep(Duration::from_millis(100));
    }
    assert!(saw_failure, "killing a worker must surface worker_failed");

    // Recovery: the replacement worker replays the load history and the same
    // query now succeeds with the same answer.
    let solve = daemon.request("{\"op\":\"solve\",\"graph\":\"fig1\",\"k\":3,\"delta\":1}");
    assert_eq!(
        solve.get("ok").and_then(JsonValue::as_bool),
        Some(true),
        "{solve}"
    );
    assert_eq!(best_size(&solve), expected);

    // stats records the respawn and a fresh pid.
    let stats = daemon.request("{\"op\":\"stats\"}");
    let workers = stats.get("workers").and_then(JsonValue::as_array).unwrap();
    let restarts: u64 = workers
        .iter()
        .filter_map(|w| w.get("restarts").and_then(JsonValue::as_u64))
        .sum();
    assert!(restarts >= 1, "{stats}");
    let new_pids = daemon.worker_pids();
    assert!(!new_pids.contains(&pids[0]), "killed pid must be replaced");

    daemon.shutdown();
}

#[test]
fn updates_survive_worker_respawn_via_history_replay() {
    let mut daemon = Daemon::spawn("history-replay", 2);
    let graph = fixtures::fig1_graph();
    let path = daemon.dir.join("fig1.graph");
    write_graph_to_path(&graph, &path).unwrap();
    daemon.request(&format!(
        "{{\"op\":\"load\",\"graph\":\"fig1\",\"path\":\"{}\"}}",
        path.display()
    ));

    // Mutate: drop a vertex, then record the post-update answer.
    let update = daemon.request(
        "{\"op\":\"update\",\"graph\":\"fig1\",\"ops\":[{\"op\":\"remove_vertex\",\"v\":0}]}",
    );
    assert_eq!(
        update.get("ok").and_then(JsonValue::as_bool),
        Some(true),
        "{update}"
    );
    let after_update =
        best_size(&daemon.request("{\"op\":\"solve\",\"graph\":\"fig1\",\"k\":2,\"delta\":1}"));

    // Kill every worker, then query until the replayed replacements answer.
    for pid in daemon.worker_pids() {
        Command::new("kill")
            .args(["-9", &pid.to_string()])
            .status()
            .unwrap();
    }
    let mut recovered = None;
    for _ in 0..10 {
        let response = daemon.request("{\"op\":\"solve\",\"graph\":\"fig1\",\"k\":2,\"delta\":1}");
        if response.get("ok").and_then(JsonValue::as_bool) == Some(true) {
            recovered = Some(best_size(&response));
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    // Replayed state includes both the load *and* the committed update.
    assert_eq!(recovered, Some(after_update), "replay must restore updates");

    daemon.shutdown();
}
