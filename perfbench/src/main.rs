//! End-to-end and per-layer benchmark of the maximum relative fair clique stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload solve-big|serve-mixed|scale-peel --seed N --seconds S --trace 0|1
//! ```
//!
//! Three closed-loop workloads, each driven from this one process:
//!
//! * `solve-big` ([`solve_big`]): `RfcSolver::new` + `solve` of one big component,
//!   the library/CLI path.
//! * `serve-mixed` ([`serve_mixed`]): a loopback daemon serving reads and churn
//!   updates to two connections.
//! * `scale-peel` ([`scale_peel`]): `DiskCsr::open` + out-of-core peel + residual
//!   solve of a 200k-vertex `.rfcg` file. `BENCHMARK.json` leaves it out: on a
//!   shared 2-vCPU host its ops run at about 135 or about 205 ms depending on
//!   which vCPU is disturbed, so its median flips between runs. Its layers are
//!   still measured by every traced run.
//!
//! `latency_ms_tail` is the 90th percentile for the one-op-at-a-time workloads
//! (`solve-big`, `scale-peel`; a run holds 100+ ops) and the 99th for
//! `serve-mixed`, where one request in forty is an update.
//!
//! With `--trace 0` a run times whole ops and prints the end-to-end metrics. With
//! `--trace 1` it instead calls each layer's public functions in sequence on the
//! same inputs, records its own spans around those calls, and prints the
//! per-layer metrics of all three workloads (the named workload gets half of the
//! time). Every op's answer is checked; the last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. Generated files live under
//! `.perfbench/` in the working directory; the spans of a traced run are written
//! to `.perfbench/spans/`.

mod scale_peel;
mod serve_mixed;
mod solve_big;
mod stats;

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

pub use stats::{quantile, LatencyHistogram, Spans};

/// The workloads, by command-line name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    SolveBig,
    ServeMixed,
    ScalePeel,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::SolveBig,
        Workload::ServeMixed,
        Workload::ScalePeel,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::SolveBig => "solve-big",
            Workload::ServeMixed => "serve-mixed",
            Workload::ScalePeel => "scale-peel",
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One named value of the result line.
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// Builds a [`Metric`].
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What a run reports: op counts, whether every answer checked out, and metrics.
#[derive(Default)]
pub struct Outcome {
    /// Ops whose answer was wrong or that returned an error.
    pub failed: u64,
    /// Ops attempted.
    pub attempted: u64,
    /// Whole-run checks (final differential checks, repeatable counts) that failed.
    pub errors: Vec<String>,
    /// The reported metrics, in print order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Counts one op and whether its answer was right.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Records a failed whole-run check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    fn merge(&mut self, other: Outcome) {
        self.failed += other.failed;
        self.attempted += other.attempted;
        self.errors.extend(other.errors);
        self.metrics.extend(other.metrics);
    }

    fn correct(&self) -> bool {
        self.failed == 0
            && self.attempted > 0
            && self.errors.is_empty()
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    fn to_json(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}

/// Settings shared by every workload of one run.
pub struct Run {
    /// Workload seed: the same seed generates the same inputs.
    pub seed: u64,
    /// How long the run measures.
    pub window: Duration,
    /// When the process started (taken first thing in `main`).
    pub started: Instant,
    /// Scratch directory for generated files, removed when the run ends.
    pub dir: PathBuf,
}

impl Run {
    /// Runs `setup` `times` times, handing all but the last result to `teardown`
    /// untimed, and returns the last result with the median set-up time in
    /// seconds. The first set-up is timed from process start.
    pub fn setup<T>(
        &self,
        times: usize,
        mut setup: impl FnMut() -> Result<T, String>,
        mut teardown: impl FnMut(T) -> Result<(), String>,
    ) -> Result<(T, f64), String> {
        let mut seconds = Vec::with_capacity(times);
        for i in 0..times {
            let t = if i == 0 { self.started } else { Instant::now() };
            let inputs = setup()?;
            seconds.push(t.elapsed().as_secs_f64());
            if i + 1 == times {
                return Ok((inputs, quantile(&mut seconds, 0.5)));
            }
            teardown(inputs)?;
        }
        Err("no set-up ran".into())
    }
}

/// The end-to-end metrics every workload reports with `--trace 0`.
pub fn end_to_end(
    p50_ms: f64,
    tail_ms: f64,
    ops: u64,
    wall: Duration,
    setup_s: f64,
) -> Vec<Metric> {
    vec![
        metric("latency_ms_p50", p50_ms, "ms"),
        metric("latency_ms_tail", tail_ms, "ms"),
        metric("throughput_ops_s", ops as f64 / wall.as_secs_f64(), "1/s"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
        metric("setup_s", setup_s, "s"),
    ]
}

/// Runs `op` back to back until `window` has passed; `op` returns its latency in
/// milliseconds and whether its answer was right. Returns the latencies and the
/// wall time of the loop.
pub fn closed_loop(
    window: Duration,
    outcome: &mut Outcome,
    mut op: impl FnMut() -> (f64, bool),
) -> (Vec<f64>, Duration) {
    let mut latencies = Vec::new();
    let start = Instant::now();
    while start.elapsed() < window {
        let (ms, ok) = op();
        latencies.push(ms);
        outcome.record(ok);
    }
    (latencies, start.elapsed())
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The process's resident-set high-water mark (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .unwrap_or(f64::NAN)
}

/// Removes the scratch directory when the run ends, also on a panic.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload solve-big|serve-mixed|scale-peel \
                     --seed N --seconds S --trace 0|1";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("`{flag}` needs a whole number, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("`--trace` takes 0 or 1, got `{value}`")),
            },
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing `--workload`")?,
        seed: seed.ok_or("missing `--seed`")?,
        seconds: seconds.ok_or("missing `--seconds`")?,
        trace: trace.ok_or("missing `--trace`")?,
    })
}

/// `--trace 1`: the per-layer sequences of all three workloads, the named one
/// for half of the window and the other two for a quarter each.
fn traced(run: &Run, own: Workload) -> Result<(Outcome, Spans), String> {
    let mut outcome = Outcome::default();
    let mut spans = Spans::default();
    for workload in Workload::ALL {
        let share = if workload == own { 0.5 } else { 0.25 };
        let budget = run.window.mul_f64(share);
        outcome.merge(match workload {
            Workload::SolveBig => solve_big::trace(run, budget, &mut spans)?,
            Workload::ServeMixed => serve_mixed::trace(run, budget, &mut spans)?,
            Workload::ScalePeel => scale_peel::trace(run, budget, &mut spans)?,
        });
    }
    Ok((outcome, spans))
}

fn execute(args: &Args, run: &Run) -> Result<Outcome, String> {
    if args.trace {
        let (outcome, spans) = traced(run, args.workload)?;
        let out = Path::new(".perfbench").join("spans");
        let file = out.join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed));
        std::fs::create_dir_all(&out)
            .and_then(|()| spans.write_jsonl(&file))
            .map_err(|e| format!("cannot write {}: {e}", file.display()))?;
        return Ok(outcome);
    }
    match args.workload {
        Workload::SolveBig => solve_big::run(run),
        Workload::ServeMixed => serve_mixed::run(run),
        Workload::ScalePeel => scale_peel::run(run),
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(scale_peel::GENERATE_FLAG) {
        return scale_peel::generate_child(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let dir =
        Path::new(".perfbench").join(format!("{}-{}", args.workload.name(), std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let _scratch = ScratchDir(dir.clone());
    let run = Run {
        seed: args.seed,
        window: Duration::from_secs(args.seconds),
        started,
        dir,
    };
    match execute(&args, &run) {
        Ok(outcome) => {
            for error in &outcome.errors {
                eprintln!("perfbench: check failed: {error}");
            }
            let mut stdout = std::io::stdout().lock();
            let _ = writeln!(stdout, "{}", outcome.to_json());
            let _ = stdout.flush();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
