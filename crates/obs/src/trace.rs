//! Hierarchical span tracing with a JSONL sink.
//!
//! A *span* brackets one unit of work: [`span("name")`](span) opens it, dropping
//! the returned guard closes it. Spans nest through a thread-local stack — a span
//! opened while another is live on the same thread records that span as its
//! parent — and each open/close pair becomes one JSON line in the installed
//! [`TraceSink`]:
//!
//! ```json
//! {"ev":"open","id":7,"parent":3,"thread":1,"name":"search","t_us":1523}
//! {"ev":"close","id":7,"parent":3,"thread":1,"name":"search","t_us":9810,"dur_us":8287,"counters":{"branches":4211}}
//! ```
//!
//! * `id` is unique per process run; `parent` is `null` for root spans.
//! * `thread` is a small per-process thread ordinal (not the OS tid).
//! * `t_us` is microseconds since the process's trace epoch, from a monotonic
//!   clock; `dur_us` is the span's wall-clock duration.
//! * `counters` carries values attached with [`Span::counter`] (omitted when
//!   empty). Repeated names accumulate.
//!
//! Tracing is process-global and **off by default**. [`install`] switches it on
//! and returns a guard; dropping the guard switches it off and flushes the sink.
//! While disabled, [`span`] is a single relaxed atomic load returning an inert
//! guard — no allocation, no lock, no timestamp (the instrumentation is cheap
//! enough to stay compiled into release builds; `tests/overhead.rs` pins the
//! no-allocation property). Installs are serialized: a second [`install`] blocks
//! until the first guard drops, which is also what keeps concurrent tests from
//! interleaving their sinks.

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Where trace lines go. One call per event line (no trailing newline in
/// `line`); [`flush`](TraceSink::flush) is called when the tracer is
/// uninstalled.
pub trait TraceSink: Send {
    /// Writes one JSONL event line.
    fn line(&mut self, line: &str);
    /// Flushes buffered lines (uninstall calls this).
    fn flush(&mut self) {}
}

/// A [`TraceSink`] writing buffered lines to a file.
pub struct FileSink {
    writer: BufWriter<File>,
}

impl FileSink {
    /// Creates (or truncates) `path` as the trace output file.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        Ok(Self {
            writer: BufWriter::new(File::create(path)?),
        })
    }
}

impl TraceSink for FileSink {
    fn line(&mut self, line: &str) {
        // A failed trace write must never take the traced program down.
        let _ = writeln!(self.writer, "{line}");
    }

    fn flush(&mut self) {
        let _ = self.writer.flush();
    }
}

/// A [`TraceSink`] collecting lines into a shared vector (tests and
/// [`Solution::trace_summary`](../../rfc_core/solver/struct.Solution.html)-style
/// in-process consumers).
pub struct BufferSink {
    lines: Arc<Mutex<Vec<String>>>,
}

impl BufferSink {
    /// Returns the sink plus the shared buffer its lines land in.
    #[allow(clippy::type_complexity)]
    pub fn new() -> (Self, Arc<Mutex<Vec<String>>>) {
        let lines = Arc::new(Mutex::new(Vec::new()));
        (
            Self {
                lines: Arc::clone(&lines),
            },
            lines,
        )
    }
}

impl TraceSink for BufferSink {
    fn line(&mut self, line: &str) {
        self.lines
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(line.to_string());
    }
}

/// Global on/off switch — the only thing the disabled fast path reads.
static ENABLED: AtomicBool = AtomicBool::new(false);
/// Process-unique span ids (0 is never issued, so it can mean "no parent").
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
/// Small per-process thread ordinals for the `thread` field.
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);
/// The installed sink. Locked only while tracing is enabled.
static SINK: Mutex<Option<Box<dyn TraceSink>>> = Mutex::new(None);
/// Serializes installs: one tracer at a time, process-wide.
static INSTALL: Mutex<()> = Mutex::new(());

thread_local! {
    /// Ids of the spans currently open on this thread, innermost last.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// This thread's ordinal (0 = not yet assigned).
    static THREAD_ORDINAL: Cell<u64> = const { Cell::new(0) };
}

/// The monotonic zero point of every `t_us` timestamp, fixed at first use.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn thread_ordinal() -> u64 {
    THREAD_ORDINAL.with(|cell| {
        let mut id = cell.get();
        if id == 0 {
            id = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
            cell.set(id);
        }
        id
    })
}

fn emit(line: &str) {
    if let Some(sink) = SINK.lock().unwrap_or_else(PoisonError::into_inner).as_mut() {
        sink.line(line);
    }
}

/// Keeps tracing enabled; dropping it disables tracing and flushes the sink.
///
/// Holds the process-wide install lock, so it is deliberately `!Send`: the
/// scope that turns tracing on is the scope that turns it off.
pub struct TraceGuard {
    _install: MutexGuard<'static, ()>,
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        ENABLED.store(false, Ordering::SeqCst);
        if let Some(mut sink) = SINK.lock().unwrap_or_else(PoisonError::into_inner).take() {
            sink.flush();
        }
    }
}

/// Installs `sink` and enables tracing until the returned guard drops.
///
/// Blocks if another tracer is currently installed (installs are serialized
/// process-wide). Spans already open keep their structure; their close events go
/// to whichever sink is installed when they drop.
pub fn install(sink: Box<dyn TraceSink>) -> TraceGuard {
    let install = INSTALL.lock().unwrap_or_else(PoisonError::into_inner);
    epoch(); // pin the timestamp zero before the first event
    *SINK.lock().unwrap_or_else(PoisonError::into_inner) = Some(sink);
    ENABLED.store(true, Ordering::SeqCst);
    TraceGuard { _install: install }
}

/// Whether tracing is currently enabled (one relaxed load).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The live half of a [`Span`] (only built while tracing is enabled).
struct OpenSpan {
    id: u64,
    parent: u64,
    thread: u64,
    name: &'static str,
    start: Instant,
    counters: Vec<(&'static str, u64)>,
}

/// A span guard: created by [`span`], closed (and emitted) on drop.
///
/// While tracing is disabled this is an inert zero-allocation shell; every
/// method is a no-op.
#[must_use = "a span measures the scope it is alive in"]
pub struct Span {
    inner: Option<OpenSpan>,
}

impl Span {
    /// Attaches (or accumulates into) a named counter, emitted with the close
    /// event. No-op while tracing is disabled.
    #[inline]
    pub fn counter(&mut self, name: &'static str, value: u64) {
        if let Some(open) = &mut self.inner {
            if let Some(entry) = open.counters.iter_mut().find(|(n, _)| *n == name) {
                entry.1 += value;
            } else {
                open.counters.push((name, value));
            }
        }
    }

    /// Whether this guard is actually recording (tracing was enabled when it
    /// was opened).
    #[inline]
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }
}

/// Opens a span named `name` under the innermost span open on this thread.
///
/// The hot path when tracing is disabled is one relaxed atomic load and a
/// `None` — no allocation, no clock read, no lock.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span { inner: None };
    }
    Span {
        inner: Some(open_span(name)),
    }
}

#[cold]
fn open_span(name: &'static str) -> OpenSpan {
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let thread = thread_ordinal();
    let parent = STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let parent = stack.last().copied().unwrap_or(0);
        stack.push(id);
        parent
    });
    let start = Instant::now();
    let t_us = start.duration_since(epoch()).as_micros() as u64;
    let mut line = String::with_capacity(96);
    let _ = write!(line, "{{\"ev\":\"open\",\"id\":{id},\"parent\":");
    if parent == 0 {
        line.push_str("null");
    } else {
        let _ = write!(line, "{parent}");
    }
    let _ = write!(
        line,
        ",\"thread\":{thread},\"name\":\"{}\",\"t_us\":{t_us}}}",
        escaped(name)
    );
    emit(&line);
    OpenSpan {
        id,
        parent,
        thread,
        name,
        start,
        counters: Vec::new(),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(open) = self.inner.take() else {
            return;
        };
        // Unwind this thread's stack to (and including) this span. Guards drop
        // in LIFO order in ordinary code, so this pops exactly one entry; if an
        // outer guard is dropped before an inner one, the inner ids are
        // discarded so the stack cannot leak a stale parent.
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            if let Some(at) = stack.iter().rposition(|&id| id == open.id) {
                stack.truncate(at);
            }
        });
        let end = Instant::now();
        let t_us = end.duration_since(epoch()).as_micros() as u64;
        let dur_us = end.duration_since(open.start).as_micros() as u64;
        let mut line = String::with_capacity(128);
        let _ = write!(line, "{{\"ev\":\"close\",\"id\":{},\"parent\":", open.id);
        if open.parent == 0 {
            line.push_str("null");
        } else {
            let _ = write!(line, "{}", open.parent);
        }
        let _ = write!(
            line,
            ",\"thread\":{},\"name\":\"{}\",\"t_us\":{t_us},\"dur_us\":{dur_us}",
            open.thread,
            escaped(open.name)
        );
        if !open.counters.is_empty() {
            line.push_str(",\"counters\":{");
            for (i, (name, value)) in open.counters.iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                let _ = write!(line, "\"{}\":{value}", escaped(name));
            }
            line.push('}');
        }
        line.push('}');
        emit(&line);
    }
}

/// Minimal JSON string escaping for span/counter names (which are `'static`
/// identifiers, but a stray quote must not corrupt the stream).
fn escaped(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_emit_balanced_events() {
        let (sink, lines) = BufferSink::new();
        let guard = install(Box::new(sink));
        {
            let mut outer = span("outer");
            outer.counter("work", 2);
            outer.counter("work", 3);
            assert!(outer.is_recording());
            {
                let _inner = span("inner");
            }
        }
        drop(guard);
        let lines = lines.lock().unwrap();
        assert_eq!(lines.len(), 4, "{lines:?}");
        assert!(lines[0].contains("\"ev\":\"open\"") && lines[0].contains("\"name\":\"outer\""));
        assert!(lines[0].contains("\"parent\":null"));
        assert!(lines[1].contains("\"name\":\"inner\""));
        assert!(!lines[1].contains("\"parent\":null"), "inner has a parent");
        // Inner closes before outer; repeated counters accumulate.
        assert!(lines[2].contains("\"ev\":\"close\"") && lines[2].contains("\"name\":\"inner\""));
        assert!(lines[3].contains("\"name\":\"outer\"") && lines[3].contains("\"work\":5"));
    }

    #[test]
    fn disabled_spans_are_inert() {
        // No tracer installed: guards are inert shells. Holding the install lock
        // keeps the other tests in this binary from installing one meanwhile.
        let _no_tracer = INSTALL.lock().unwrap_or_else(PoisonError::into_inner);
        let mut s = span("nobody-listens");
        assert!(!s.is_recording());
        s.counter("ignored", 1);
        drop(s);
    }

    #[test]
    fn parent_links_survive_sibling_spans() {
        let (sink, lines) = BufferSink::new();
        let guard = install(Box::new(sink));
        {
            let _root = span("root");
            let a = span("a");
            drop(a);
            let b = span("b");
            drop(b);
        }
        drop(guard);
        let lines = lines.lock().unwrap();
        // a and b must share root's id as parent.
        let root_open = lines
            .iter()
            .find(|l| l.contains("\"name\":\"root\"") && l.contains("open"))
            .unwrap();
        let root_id: u64 = root_open
            .split("\"id\":")
            .nth(1)
            .unwrap()
            .split(',')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        for name in ["\"name\":\"a\"", "\"name\":\"b\""] {
            let open = lines
                .iter()
                .find(|l| l.contains(name) && l.contains("open"))
                .unwrap();
            assert!(
                open.contains(&format!("\"parent\":{root_id}")),
                "{open} should have parent {root_id}"
            );
        }
    }

    #[test]
    fn names_are_escaped() {
        assert_eq!(escaped("plain"), "plain");
        assert_eq!(escaped("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escaped("x\ny"), "x\\u000ay");
    }

    #[test]
    fn file_sink_writes_lines() {
        let dir = std::env::temp_dir().join("rfc_obs_trace_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.jsonl");
        {
            let mut sink = FileSink::create(&path).unwrap();
            sink.line("{\"ev\":\"open\"}");
            sink.flush();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "{\"ev\":\"open\"}\n");
        std::fs::remove_file(&path).ok();
    }
}
