//! `scale-peel`: one caller opening a 200k-vertex `.rfcg` file, peeling it out of
//! core and solving the residual — the only workload that runs `rfc_graph::disk`
//! and the streaming peel. Most of an op is the peel cascade's single-vertex
//! neighbour reads; the residual solve is tiny.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use rfc_core::reduction::streaming::{extract_residual, fair_core_peel, Residual};
use rfc_core::{FairnessModel, Query, RfcSolver, ScaleSolver, Solution, Termination};
use rfc_datasets::scale::{generate_scale_rfcg, ScaleConfig};
use rfc_graph::{DiskCsr, VertexId};

use crate::{closed_loop, end_to_end, metric, ms_since, quantile, Outcome, Run, Spans};

/// First argument of the generator child process.
pub const GENERATE_FLAG: &str = "--generate-rfcg";
const VERTICES: usize = 200_000;
const K: usize = 8;
const MODEL: FairnessModel = FairnessModel::Relative { k: K, delta: 1 };
const SETUPS: usize = 3;

/// The generated file and the clique every op must return.
struct Inputs {
    path: PathBuf,
    planted: Vec<VertexId>,
}

impl Inputs {
    /// Generates the `.rfcg` file in a child process, so that the generator's
    /// memory never counts towards this process's `peak_rss_mb`.
    fn generate(run: &Run) -> Result<Inputs, String> {
        let path = run.dir.join("scale.rfcg");
        let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
        let output = Command::new(exe)
            .arg(GENERATE_FLAG)
            .arg(&path)
            .arg(run.seed.to_string())
            // The generator spools edges through the temp directory.
            .env("TMPDIR", &run.dir)
            .output()
            .map_err(|e| format!("cannot start the .rfcg generator: {e}"))?;
        if !output.status.success() {
            return Err(format!(
                "the .rfcg generator failed: {}",
                String::from_utf8_lossy(&output.stderr)
            ));
        }
        let planted = String::from_utf8_lossy(&output.stdout)
            .split_whitespace()
            .map(str::parse::<VertexId>)
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("bad planted clique from the generator: {e}"))?;
        if planted.is_empty() {
            return Err("the generator planted no clique".into());
        }
        Ok(Inputs { path, planted })
    }

    fn accepts(&self, solution: &Solution) -> bool {
        solution.termination == Termination::Optimal
            && solution.best().is_some_and(|c| c.vertices == self.planted)
    }
}

/// The generator child: `--generate-rfcg PATH SEED` writes the file and prints
/// the planted clique's vertex ids.
pub fn generate_child(args: &[String]) -> ExitCode {
    let [path, seed] = args else {
        eprintln!("usage: perfbench {GENERATE_FLAG} PATH SEED");
        return ExitCode::from(2);
    };
    let Ok(seed) = seed.parse::<u64>() else {
        eprintln!("perfbench: bad seed `{seed}`");
        return ExitCode::from(2);
    };
    match generate_scale_rfcg(&ScaleConfig::new(VERTICES), seed, path) {
        Ok(summary) => {
            let ids: Vec<String> = summary.planted.iter().map(u32::to_string).collect();
            println!("{}", ids.join(" "));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: cannot generate {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One op: open the file, peel it, build the residual solver and solve.
fn op(path: &Path, query: &Query) -> Result<Solution, String> {
    let store = DiskCsr::open(path).map_err(|e| e.to_string())?;
    let solver = ScaleSolver::from_store(&store, K).map_err(|e| e.to_string())?;
    solver.solve(query).map_err(|e| e.to_string())
}

pub fn run(run: &Run) -> Result<Outcome, String> {
    let (inputs, setup_s) = run.setup(SETUPS, || Inputs::generate(run), |_| Ok(()))?;
    let query = Query::new(MODEL);
    let mut outcome = Outcome::default();
    let (mut latencies, wall) = closed_loop(run.window, &mut outcome, || {
        let t = Instant::now();
        let solution = op(&inputs.path, &query);
        let ms = ms_since(t);
        (ms, solution.is_ok_and(|s| inputs.accepts(&s)))
    });
    let p50 = quantile(&mut latencies, 0.5);
    let p90 = quantile(&mut latencies, 0.9);
    outcome.metrics = end_to_end(p50, p90, outcome.attempted, wall, setup_s);
    Ok(outcome)
}

/// The traced sequence. Per op: one untraced op, then `DiskCsr::open`,
/// `fair_core_peel`, `extract_residual` and the residual `RfcSolver` called
/// directly on a fresh store.
pub fn trace(run: &Run, budget: Duration, spans: &mut Spans) -> Result<Outcome, String> {
    let inputs = Inputs::generate(run)?;
    let query = Query::new(MODEL);
    let mut outcome = Outcome::default();
    let mut counts: Option<[u64; 4]> = None;
    let (mut untraced_ms, mut overhead_pct) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while start.elapsed() < budget {
        spans.next_op();
        let (untraced, untraced_us) = spans.time("scale.op", || op(&inputs.path, &query));
        let (store, open_us) = spans.time("disk.open", || DiskCsr::open(&inputs.path));
        let store = store.map_err(|e| e.to_string())?;
        let (peel, peel_us) = spans.time("streaming.peel", || fair_core_peel(&store, K));
        let peel = peel.map_err(|e| e.to_string())?;
        let (residual, extract_us) = spans.time("streaming.extract", || {
            extract_residual(&store, &peel.alive)
        });
        let Residual { graph, vertex_map } = residual.map_err(|e| e.to_string())?;
        let read_bytes = store.bytes_read();
        let (solution, solve_us) = spans.time("scale.residual_solve", || {
            RfcSolver::new(graph).solve(&query)
        });
        let found = solution
            .ok()
            .filter(|s| s.termination == Termination::Optimal);
        let found: Option<Vec<VertexId>> = found.and_then(|s| s.into_best()).map(|c| {
            let mut ids: Vec<VertexId> =
                c.vertices.iter().map(|&v| vertex_map[v as usize]).collect();
            ids.sort_unstable();
            ids
        });
        outcome.record(
            untraced.is_ok_and(|s| inputs.accepts(&s)) && found.as_ref() == Some(&inputs.planted),
        );
        let stats = &peel.stats;
        let op_counts = [
            stats.cascade_reads,
            stats.rounds,
            stats.surviving_vertices as u64,
            read_bytes,
        ];
        let first = *counts.get_or_insert(op_counts);
        outcome.check(first == op_counts, || {
            format!("scale-peel counts changed between ops: {first:?} then {op_counts:?}")
        });
        let layers = open_us + peel_us + extract_us + solve_us;
        untraced_ms.push(untraced_us / 1e3);
        overhead_pct.push(100.0 * (layers - untraced_us) / untraced_us);
    }
    let [cascade_reads, rounds, survivors, read_bytes] =
        counts.ok_or("no scale-peel op completed in the traced window")?;
    let ms = |layer: &str| spans.median_us(layer) / 1e3;
    outcome.metrics = vec![
        metric("disk.open_ms", ms("disk.open"), "ms"),
        metric("streaming.peel_ms", ms("streaming.peel"), "ms"),
        metric("streaming.cascade_reads", cascade_reads as f64, "count"),
        metric("streaming.rounds", rounds as f64, "count"),
        metric("streaming.survivors", survivors as f64, "count"),
        metric("disk.read_bytes", read_bytes as f64, "bytes"),
        metric("streaming.extract_ms", ms("streaming.extract"), "ms"),
        metric("scale.residual_solve_ms", ms("scale.residual_solve"), "ms"),
        metric(
            "scale_peel.untraced_op_ms",
            quantile(&mut untraced_ms, 0.5),
            "ms",
        ),
        metric(
            "scale_peel.trace_overhead_pct",
            quantile(&mut overhead_pct, 0.5),
            "%",
        ),
    ];
    Ok(outcome)
}
