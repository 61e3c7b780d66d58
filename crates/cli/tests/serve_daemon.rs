//! Integration test of the real `maxfairclique serve` binary: the daemon is
//! spawned as a child process, driven over TCP, checked against the direct
//! library API, put through thousands of short connections, and shut down.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use rfc_core::prelude::*;
use rfc_graph::json::JsonValue;
use rfc_graph::{fixtures, io::write_graph_to_path};

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
        let dir = std::env::temp_dir().join(format!("rfc-serve-daemon-{}", std::process::id()));
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
