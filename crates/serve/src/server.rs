//! The TCP daemon: `std::net::TcpListener`, one thread per connection, bounded
//! request lines, and admission control in front of the engine.
//!
//! The server is transport only: request semantics live in the [`LocalEngine`]
//! it owns. Every connection thread parses each request line once, to decide
//! admission, and hands the parsed request to the engine.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::engine::{EngineConfig, LocalEngine};
use crate::protocol::{ErrorCode, ErrorResponse, Request, MAX_LINE_BYTES};
use crate::{Counters, Flow};

/// Configuration of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Interface to bind.
    pub host: String,
    /// Port to bind (`0` = OS-assigned ephemeral port; read it back via
    /// [`Server::local_addr`]).
    pub port: u16,
    /// Maximum requests executing concurrently before new ones queue.
    pub max_active: usize,
    /// Maximum requests waiting for a slot before the daemon answers `overloaded`.
    pub max_queue: usize,
    /// Maximum request-line length in bytes; longer lines get a typed
    /// `line_too_long` error and the connection stays usable.
    pub max_line_bytes: usize,
    /// Engine tuning (cache capacity, default time limit).
    pub engine: EngineConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            host: "127.0.0.1".to_string(),
            port: 0,
            max_active: 4,
            max_queue: 16,
            max_line_bytes: MAX_LINE_BYTES,
            engine: EngineConfig::default(),
        }
    }
}

/// A counting semaphore with a bounded wait queue: up to `max_active` requests run
/// at once, up to `max_queue` wait for a slot, and everything beyond that is
/// rejected immediately with a typed `overloaded` error instead of stalling the
/// client.
#[derive(Debug)]
pub struct Admission {
    /// `(active, waiting)` under one lock.
    state: Mutex<(usize, usize)>,
    freed: Condvar,
    max_active: usize,
    max_queue: usize,
}

impl Admission {
    /// A gate admitting `max_active` concurrent requests with `max_queue` waiters.
    pub fn new(max_active: usize, max_queue: usize) -> Self {
        Self {
            state: Mutex::new((0, 0)),
            freed: Condvar::new(),
            max_active: max_active.max(1),
            max_queue,
        }
    }

    /// Acquires an execution slot, waiting in the bounded queue if necessary.
    /// Returns `None` when the queue is full — the caller must answer `overloaded`.
    pub fn try_acquire(&self) -> Option<AdmissionPermit<'_>> {
        let mut state = self.state.lock().expect("admission lock poisoned");
        if state.0 < self.max_active {
            state.0 += 1;
            return Some(AdmissionPermit { gate: self });
        }
        if state.1 >= self.max_queue {
            return None;
        }
        state.1 += 1;
        while state.0 >= self.max_active {
            state = self.freed.wait(state).expect("admission lock poisoned");
        }
        state.1 -= 1;
        state.0 += 1;
        Some(AdmissionPermit { gate: self })
    }

    /// Current `(active, waiting)` occupancy (for tests and stats).
    pub fn occupancy(&self) -> (usize, usize) {
        *self.state.lock().expect("admission lock poisoned")
    }
}

/// An execution slot; dropping it frees the slot and wakes one queued waiter.
#[derive(Debug)]
pub struct AdmissionPermit<'a> {
    gate: &'a Admission,
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        let mut state = self.gate.state.lock().expect("admission lock poisoned");
        state.0 -= 1;
        drop(state);
        self.gate.freed.notify_one();
    }
}

/// Result of one bounded line read.
#[derive(Debug)]
pub enum ReadLine {
    /// A complete line (newline stripped, `\r` trimmed, lossy UTF-8).
    Line(String),
    /// The line exceeded the bound; it has been drained through its newline, so the
    /// stream is still in sync for the next request.
    TooLong,
    /// The peer closed the connection.
    Eof,
}

/// Reads one `\n`-terminated line of at most `max` bytes. Longer lines are consumed
/// (through the terminating newline) without buffering them, keeping both the
/// memory bound and the framing intact.
pub fn read_line_bounded(reader: &mut dyn BufRead, max: usize) -> io::Result<ReadLine> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let (found, used) = {
            let available = match reader.fill_buf() {
                Ok(available) => available,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if available.is_empty() {
                if buf.is_empty() {
                    return Ok(ReadLine::Eof);
                }
                // Final line without trailing newline.
                return Ok(finish_line(buf));
            }
            match available.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    if buf.len() + pos <= max {
                        buf.extend_from_slice(&available[..pos]);
                        (true, pos + 1)
                    } else {
                        reader.consume(pos + 1);
                        return Ok(ReadLine::TooLong);
                    }
                }
                None => {
                    if buf.len() + available.len() > max {
                        let used = available.len();
                        reader.consume(used);
                        drain_through_newline(reader)?;
                        return Ok(ReadLine::TooLong);
                    }
                    buf.extend_from_slice(available);
                    (false, available.len())
                }
            }
        };
        reader.consume(used);
        if found {
            return Ok(finish_line(buf));
        }
    }
}

fn finish_line(mut buf: Vec<u8>) -> ReadLine {
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    ReadLine::Line(String::from_utf8_lossy(&buf).into_owned())
}

fn drain_through_newline(reader: &mut dyn BufRead) -> io::Result<()> {
    loop {
        let (done, used) = {
            let available = match reader.fill_buf() {
                Ok(available) => available,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if available.is_empty() {
                return Ok(());
            }
            match available.iter().position(|&b| b == b'\n') {
                Some(pos) => (true, pos + 1),
                None => (false, available.len()),
            }
        };
        reader.consume(used);
        if done {
            return Ok(());
        }
    }
}

/// The `maxfaircliqued` daemon.
pub struct Server {
    listener: TcpListener,
    engine: LocalEngine,
    admission: Admission,
    counters: Arc<Counters>,
    max_line_bytes: usize,
    stop: AtomicBool,
}

impl Server {
    /// Binds the listen socket and builds the in-process engine.
    pub fn bind(config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind((config.host.as_str(), config.port))?;
        let counters = Arc::new(Counters::default());
        Ok(Server {
            listener,
            engine: LocalEngine::new(config.engine, Arc::clone(&counters)),
            admission: Admission::new(config.max_active, config.max_queue),
            counters,
            max_line_bytes: config.max_line_bytes,
            stop: AtomicBool::new(false),
        })
    }

    /// The bound address (resolves port `0` to the actual ephemeral port).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The daemon-level request counters.
    pub fn counters(&self) -> Arc<Counters> {
        Arc::clone(&self.counters)
    }

    /// Serves connections until a client issues `shutdown`. In-flight queries are
    /// cancelled (returning verified best-so-far answers), every open connection is
    /// closed, and `run` returns once every connection thread has finished.
    ///
    /// Connection threads run inside a [`std::thread::scope`] and are detached as
    /// they are spawned, so a closed connection releases its thread (and its stack)
    /// at once, however long the daemon runs. A connection thread's panic is not
    /// swallowed: the scope re-raises it from `run` at shutdown.
    pub fn run(self) -> io::Result<()> {
        let addr = self.local_addr()?;
        let open: Mutex<HashMap<u64, TcpStream>> = Mutex::new(HashMap::new());
        let server = &self;
        std::thread::scope(|scope| {
            for (id, stream) in (0u64..).zip(self.listener.incoming()) {
                if self.stop.load(Ordering::Relaxed) {
                    break;
                }
                let Ok(stream) = stream else {
                    continue;
                };
                if let Ok(clone) = stream.try_clone() {
                    open.lock()
                        .expect("connection registry poisoned")
                        .insert(id, clone);
                }
                let open = &open;
                // Dropping the handle detaches the thread; the scope still waits
                // for it before returning.
                drop(scope.spawn(move || {
                    let _ = serve_connection(stream, server);
                    open.lock()
                        .expect("connection registry poisoned")
                        .remove(&id);
                    if server.stop.load(Ordering::Relaxed) {
                        // Wake the acceptor so the listener loop observes the stop flag.
                        let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(500));
                    }
                }));
            }
            // Unblock every connection thread still waiting on a read.
            for (_, stream) in open.lock().expect("connection registry poisoned").drain() {
                let _ = stream.shutdown(Shutdown::Both);
            }
        });
        Ok(())
    }
}

/// Whether a parsed request must pass admission control. `stats`, `metrics` and
/// `shutdown` bypass the gate (they must work on a saturated daemon); malformed
/// lines are answered with cheap typed errors without occupying a slot.
fn needs_admission(request: &Result<Request, ErrorResponse>) -> bool {
    !matches!(
        request,
        Err(_) | Ok(Request::Stats) | Ok(Request::Metrics) | Ok(Request::Shutdown)
    )
}

fn serve_connection(stream: TcpStream, server: &Server) -> io::Result<()> {
    let counters = &server.counters;
    let max_line_bytes = server.max_line_bytes;
    // One `write_all` per response line: `writeln!` straight to the socket would
    // split payload and newline into separate segments, and the Nagle /
    // delayed-ACK interaction turns every request into a ~40 ms stall.
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut send = move |response: &str| -> io::Result<()> {
        let mut buf = String::with_capacity(response.len() + 1);
        buf.push_str(response);
        buf.push('\n');
        writer.write_all(buf.as_bytes())?;
        writer.flush()
    };
    loop {
        let line = match read_line_bounded(&mut reader, max_line_bytes)? {
            ReadLine::Eof => return Ok(()),
            ReadLine::TooLong => {
                Counters::bump(&counters.requests);
                Counters::bump(&counters.errors);
                let error = ErrorResponse::new(
                    ErrorCode::LineTooLong,
                    format!("request line exceeds {max_line_bytes} bytes"),
                );
                send(&error.to_line())?;
                continue;
            }
            ReadLine::Line(line) => line,
        };
        if line.trim().is_empty() {
            continue;
        }
        let request = Request::parse(&line);
        let permit = if needs_admission(&request) {
            match server.admission.try_acquire() {
                Some(permit) => Some(permit),
                None => {
                    Counters::bump(&counters.requests);
                    Counters::bump(&counters.errors);
                    Counters::bump(&counters.overloaded);
                    let error = ErrorResponse::new(
                        ErrorCode::Overloaded,
                        "too many requests in flight; retry later",
                    );
                    send(&error.to_line())?;
                    continue;
                }
            }
        } else {
            None
        };
        let flow = server.engine.handle_parsed(request, &mut send);
        drop(permit);
        match flow? {
            Flow::Continue => {}
            Flow::Shutdown => {
                server.stop.store(true, Ordering::Relaxed);
                return Ok(());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn read_all(input: &[u8], max: usize) -> Vec<String> {
        let mut reader = BufReader::with_capacity(8, Cursor::new(input.to_vec()));
        let mut out = Vec::new();
        loop {
            match read_line_bounded(&mut reader, max).unwrap() {
                ReadLine::Eof => return out,
                ReadLine::TooLong => out.push("<too-long>".to_string()),
                ReadLine::Line(line) => out.push(line),
            }
        }
    }

    #[test]
    fn bounded_reader_frames_lines() {
        assert_eq!(read_all(b"a\nbb\r\nccc", 10), ["a", "bb", "ccc"]);
        assert_eq!(read_all(b"", 10), Vec::<String>::new());
        assert_eq!(read_all(b"\n\n", 10), ["", ""]);
    }

    #[test]
    fn bounded_reader_drains_oversized_lines_and_stays_in_sync() {
        // A 20-byte line against a 5-byte bound, followed by a healthy line; the
        // tiny 8-byte BufReader capacity forces the multi-chunk drain path.
        let input = b"aaaaaaaaaaaaaaaaaaaa\nok\n";
        assert_eq!(read_all(input, 5), ["<too-long>", "ok"]);
        // Oversized final line without a trailing newline.
        assert_eq!(read_all(b"bbbbbbbbbbbbbbbb", 5), ["<too-long>"]);
        // Boundary: exactly `max` bytes is accepted.
        assert_eq!(read_all(b"12345\n", 5), ["12345"]);
        assert_eq!(read_all(b"123456\n", 5), ["<too-long>"]);
    }

    #[test]
    fn admission_bounds_active_and_queue() {
        let gate = Admission::new(1, 0);
        let permit = gate.try_acquire().expect("first slot free");
        assert!(
            gate.try_acquire().is_none(),
            "queue of 0 rejects immediately"
        );
        drop(permit);
        assert!(gate.try_acquire().is_some());
    }

    #[test]
    fn admission_queue_hands_over_freed_slots() {
        let gate = Arc::new(Admission::new(1, 4));
        let permit = gate.try_acquire().unwrap();
        let waiter = {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                let permit = gate.try_acquire();
                permit.is_some()
            })
        };
        // Let the waiter enqueue, then free the slot.
        while gate.occupancy().1 == 0 {
            std::thread::yield_now();
        }
        drop(permit);
        assert!(waiter.join().unwrap());
        assert_eq!(gate.occupancy(), (0, 0));
    }

    #[test]
    fn stats_metrics_and_shutdown_bypass_admission() {
        let needs_admission = |line: &str| needs_admission(&Request::parse(line));
        assert!(needs_admission(r#"{"op":"solve","graph":"g","k":2}"#));
        assert!(needs_admission(r#"{"op":"ping","sleep_ms":5}"#));
        assert!(!needs_admission(r#"{"op":"stats"}"#));
        assert!(!needs_admission(r#"{"op":"metrics"}"#));
        assert!(!needs_admission(r#"{"op":"shutdown"}"#));
        assert!(!needs_admission("not json"));
    }
}
