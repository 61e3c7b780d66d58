//! Integration tests for the observability layer: tracing must never change
//! answers, traced spans must balance and nest, and the per-stage durations
//! must account for the solve's wall time.

use std::sync::{Mutex, MutexGuard, PoisonError};

use rfc_core::prelude::*;
use rfc_datasets::case_study::CaseStudy;
use rfc_graph::json::JsonValue;
use rfc_obs::trace::{self, BufferSink};

/// The tracer is process-global: spans of work running while another test's
/// tracer is installed land in that test's sink and unbalance its trace. Every
/// test here holds this lock for its whole body, untraced baselines included.
static TRACER: Mutex<()> = Mutex::new(());

fn exclusive_tracer() -> MutexGuard<'static, ()> {
    TRACER.lock().unwrap_or_else(PoisonError::into_inner)
}

fn nba_graph() -> AttributedGraph {
    CaseStudy::ALL
        .iter()
        .find(|c| c.name().eq_ignore_ascii_case("nba"))
        .expect("nba case study")
        .generate()
        .graph
}

fn serial_query(model: FairnessModel) -> Query {
    Query::new(model).with_config(SearchConfig::default().with_threads(ThreadCount::Serial))
}

/// One parsed trace event.
struct Event {
    ev: String,
    id: u64,
    parent: Option<u64>,
    name: String,
    dur_us: Option<u64>,
}

fn parse_events(lines: &[String]) -> Vec<Event> {
    lines
        .iter()
        .map(|line| {
            let v = JsonValue::parse(line).expect("trace line parses");
            Event {
                ev: v
                    .get("ev")
                    .and_then(JsonValue::as_str)
                    .expect("ev field")
                    .to_string(),
                id: v.get("id").and_then(JsonValue::as_u64).expect("id field"),
                parent: v.get("parent").and_then(JsonValue::as_u64),
                name: v
                    .get("name")
                    .and_then(JsonValue::as_str)
                    .expect("name field")
                    .to_string(),
                dur_us: v.get("dur_us").and_then(JsonValue::as_u64),
            }
        })
        .collect()
}

#[test]
fn tracing_does_not_change_answers_and_spans_account_for_the_solve() {
    let _tracer = exclusive_tracer();
    let graph = nba_graph();
    let query = serial_query(FairnessModel::Relative { k: 5, delta: 3 });

    // Baseline: tracer disabled (the default).
    let solver = RfcSolver::new(graph.clone());
    let baseline = solver.solve(&query).unwrap();

    // Traced run on a fresh solver (same graph, no shared reduction cache).
    let (sink, lines) = BufferSink::new();
    let guard = trace::install(Box::new(sink));
    let solver = RfcSolver::new(graph);
    let traced = solver.solve(&query).unwrap();
    drop(guard);

    // Differential: identical answers. Serial solves are deterministic, so the
    // vertex sets must match exactly, not just the sizes.
    assert_eq!(traced.termination, baseline.termination);
    assert_eq!(
        traced.best().map(|c| c.vertices.clone()),
        baseline.best().map(|c| c.vertices.clone())
    );
    assert_eq!(traced.stats.branches, baseline.stats.branches);

    // Structural checks on the captured trace.
    let events = parse_events(&lines.lock().unwrap());
    let opens: Vec<&Event> = events.iter().filter(|e| e.ev == "open").collect();
    let closes: Vec<&Event> = events.iter().filter(|e| e.ev == "close").collect();
    assert!(!opens.is_empty(), "trace captured nothing");
    assert_eq!(opens.len(), closes.len(), "unbalanced spans");
    for close in &closes {
        assert!(
            opens
                .iter()
                .any(|o| o.id == close.id && o.name == close.name),
            "close without a matching open: {} #{}",
            close.name,
            close.id
        );
        assert!(close.dur_us.is_some(), "close without dur_us");
    }
    // Every non-root span's parent was opened (nesting is well-formed).
    for open in &opens {
        if let Some(parent) = open.parent {
            assert!(
                opens.iter().any(|o| o.id == parent),
                "span {} #{} has unknown parent {parent}",
                open.name,
                open.id
            );
        }
    }

    // The root solve span exists, and its direct children (reduce / heuristic /
    // search) account for most of its duration without exceeding it.
    let root = closes
        .iter()
        .find(|e| e.name == "solve" && e.parent.is_none())
        .expect("root solve span");
    let root_dur = root.dur_us.unwrap();
    let child_sum: u64 = closes
        .iter()
        .filter(|e| e.parent == Some(root.id))
        .map(|e| e.dur_us.unwrap())
        .sum();
    assert!(
        child_sum <= root_dur,
        "children ({child_sum} µs) exceed the root solve span ({root_dur} µs)"
    );
    let phases: Vec<&str> = closes
        .iter()
        .filter(|e| e.parent == Some(root.id))
        .map(|e| e.name.as_str())
        .collect();
    for phase in ["reduce", "search"] {
        assert!(
            phases.contains(&phase),
            "missing {phase} span in {phases:?}"
        );
    }
    // Component spans nest under the search span.
    let search = closes
        .iter()
        .find(|e| e.name == "search" && e.parent == Some(root.id))
        .unwrap();
    assert!(
        closes
            .iter()
            .any(|e| e.name == "component" && e.parent == Some(search.id)),
        "no component span under search"
    );

    // The human-readable summary reports the same phases.
    let summary = traced.trace_summary();
    assert!(summary.contains("reduction"), "{summary}");
    assert!(summary.contains("search"), "{summary}");
}

/// A parallel solve runs its components as pool tasks, each under a `component`
/// span: on the calling thread, worker 0, it nests under `search`, and on a
/// spawned worker it opens as a root.
#[test]
fn a_parallel_solve_traces_its_components() {
    let _tracer = exclusive_tracer();
    let query = Query::new(FairnessModel::Relative { k: 5, delta: 3 })
        .with_config(SearchConfig::default().with_threads(ThreadCount::Fixed(2)));
    let (sink, lines) = BufferSink::new();
    let guard = trace::install(Box::new(sink));
    let solution = RfcSolver::new(nba_graph()).solve(&query).unwrap();
    drop(guard);
    assert_eq!(solution.termination, Termination::Optimal);

    let events = parse_events(&lines.lock().unwrap());
    let opens: Vec<&Event> = events.iter().filter(|e| e.ev == "open").collect();
    let closes = events.iter().filter(|e| e.ev == "close").count();
    assert_eq!(opens.len(), closes, "unbalanced spans");
    let search = opens
        .iter()
        .find(|e| e.name == "search")
        .expect("search span");
    let components: Vec<&&Event> = opens.iter().filter(|e| e.name == "component").collect();
    assert!(!components.is_empty(), "no component span");
    for component in components {
        assert!(
            component.parent.is_none() || component.parent == Some(search.id),
            "component #{} under {:?}",
            component.id,
            component.parent
        );
    }
}

#[test]
fn enumerate_trace_balances_and_answers_match() {
    let _tracer = exclusive_tracer();
    let graph = nba_graph();
    let query = EnumQuery::new(FairnessModel::Relative { k: 5, delta: 3 })
        .with_threads(ThreadCount::Serial);

    let solver = RfcSolver::new(graph.clone());
    let mut count = CountSink::new();
    let baseline = solver.enumerate(&query, &mut count).unwrap();

    let (sink, lines) = BufferSink::new();
    let guard = trace::install(Box::new(sink));
    let solver = RfcSolver::new(graph);
    let mut count = CountSink::new();
    let traced = solver.enumerate(&query, &mut count).unwrap();
    drop(guard);

    assert_eq!(traced.emitted, baseline.emitted);
    let events = parse_events(&lines.lock().unwrap());
    let opens = events.iter().filter(|e| e.ev == "open").count();
    let closes = events.iter().filter(|e| e.ev == "close").count();
    assert!(opens > 0 && opens == closes, "unbalanced enumerate trace");
    let root = events
        .iter()
        .find(|e| e.ev == "close" && e.name == "enumerate" && e.parent.is_none())
        .expect("no root enumerate span");
    assert!(
        events
            .iter()
            .any(|e| e.ev == "close" && e.name == "reduce" && e.parent == Some(root.id)),
        "no reduce span under the root enumerate span"
    );
}

/// The dynamic solver runs the library's query lifecycle, so a cold solve and an
/// enumeration open the same span tree as the library's.
#[test]
fn dynamic_queries_open_the_library_span_tree() {
    let _tracer = exclusive_tracer();
    let model = FairnessModel::Relative { k: 5, delta: 3 };
    let (sink, lines) = BufferSink::new();
    let guard = trace::install(Box::new(sink));
    let mut solver = DynamicRfcSolver::new(nba_graph());
    let solution = solver.solve(&serial_query(model)).unwrap();
    let mut count = CountSink::new();
    let enumerated = solver
        .enumerate(
            &EnumQuery::new(model).with_threads(ThreadCount::Serial),
            &mut count,
        )
        .unwrap();
    drop(guard);
    assert_eq!(solution.termination, Termination::Optimal);
    assert_eq!(enumerated.termination, EnumTermination::Complete);

    let events = parse_events(&lines.lock().unwrap());
    let closes: Vec<&Event> = events.iter().filter(|e| e.ev == "close").collect();
    let children = |root: &Event| -> Vec<&Event> {
        closes
            .iter()
            .copied()
            .filter(|e| e.parent == Some(root.id))
            .collect()
    };
    let roots: Vec<&Event> = closes
        .iter()
        .copied()
        .filter(|e| e.parent.is_none())
        .collect();
    let root_names: Vec<&str> = roots.iter().map(|e| e.name.as_str()).collect();
    assert_eq!(root_names, ["solve", "enumerate"], "roots of the trace");

    // The cold solve: reduce, warm start and search nest under the root and fit
    // inside it.
    let solve = roots[0];
    let phases = children(solve);
    let names: Vec<&str> = phases.iter().map(|e| e.name.as_str()).collect();
    for phase in ["reduce", "heuristic", "search"] {
        assert!(names.contains(&phase), "missing {phase} span in {names:?}");
    }
    let child_sum: u64 = phases.iter().map(|e| e.dur_us.unwrap()).sum();
    let root_dur = solve.dur_us.unwrap();
    assert!(
        child_sum <= root_dur,
        "children ({child_sum} µs) exceed the root solve span ({root_dur} µs)"
    );

    let enumerate = roots[1];
    assert!(
        children(enumerate).iter().any(|e| e.name == "reduce"),
        "no reduce span under the root enumerate span"
    );
}
