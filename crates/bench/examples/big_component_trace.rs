//! Produces the committed reference trace `traces/big_component_trace.jsonl`:
//! a serial solve of the one-big-component workload
//! ([`big_component_graph`]) with the span tracer writing JSONL.
//!
//! ```text
//! cargo run --release -p rfc-bench --example big_component_trace
//! ```
//!
//! Serial on purpose: with one thread every span nests under the root `solve`
//! span, so the trace doubles as the "spans account for the wall time" fixture —
//! validate it with `cargo run --example trace_check -- traces/big_component_trace.jsonl 90`.

use std::path::Path;

use rfc_bench::workloads::big_component_graph;
use rfc_core::prelude::*;
use rfc_obs::trace::{self, FileSink};

fn main() {
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../traces");
    std::fs::create_dir_all(&out_dir).expect("create traces/");
    let out = out_dir.join("big_component_trace.jsonl");

    let graph = big_component_graph(800, 17);
    let query = Query::new(FairnessModel::Relative { k: 3, delta: 1 })
        .with_config(SearchConfig::default().with_threads(ThreadCount::Serial));

    let sink = FileSink::create(&out).expect("create trace file");
    let guard = trace::install(Box::new(sink));
    let solver = RfcSolver::new(graph);
    let solution = solver.solve(&query).expect("solve");
    drop(guard); // flush + close the trace before reporting

    let best = solution.best().map(|c| c.size()).unwrap_or(0);
    println!(
        "solved: best {best} vertices, {} branches, {} µs",
        solution.stats.branches, solution.stats.elapsed_micros
    );
    print!("{}", solution.trace_summary());
    println!("wrote {}", out.display());
}
