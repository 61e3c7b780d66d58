//! Minimal dependency-free argument parsing for the `maxfairclique` CLI.

use std::time::Duration;

use rfc_core::bounds::ExtraBound;
use rfc_core::problem::FairnessModel;
use rfc_core::search::ThreadCount;
use rfc_core::solver::Budget;
use rfc_serve::protocol::{EnumSpec, QuerySpec, Request, MAX_QUERY_THREADS};

/// Usage text printed on parse errors and `--help`.
pub const USAGE: &str = "\
maxfairclique — maximum relative fair clique search

USAGE:
  maxfairclique solve     --graph FILE | --edges FILE [--attributes FILE]
                          -k K -d DELTA [--bound cd|cp|d|h|ch|none] [--basic]
                          [--no-heuristic] [--weak] [--strong] [--threads N]
                          [--time-limit SECS] [--node-limit N] [--top N]
                          [--portfolio N] [--anytime] [--format text|json]
                          [--trace FILE] [--verbose]
  maxfairclique enumerate --graph FILE | --edges FILE [--attributes FILE]
                          -k K -d DELTA [--weak] [--strong] [--limit N]
                          [--min-size S] [--format text|jsonl] [--threads N]
                          [--time-limit SECS] [--node-limit N] [--trace FILE]
  maxfairclique update    --graph FILE | --edges FILE [--attributes FILE]
                          --stream FILE -k K -d DELTA [--weak] [--strong]
                          [--enumerate] [--threads N] [--trace FILE]
  maxfairclique heuristic --graph FILE | --edges FILE [--attributes FILE]
                          -k K -d DELTA [--seeds N] [--weak] [--strong]
  maxfairclique reduce    --graph FILE | --edges FILE [--attributes FILE]
                          -k K [--output FILE]
  maxfairclique stats     --graph FILE | --edges FILE [--attributes FILE]
                          [--verbose]
  maxfairclique convert   --graph FILE | --edges FILE [--attributes FILE]
                          --output FILE.rfcg
  maxfairclique generate  --dataset NAME | --case-study NAME | --scale N
                          [--output FILE] [--seed S] [--planted-half H]
                          [--prob-a P]
  maxfairclique serve     [--host H] [--port P] [--max-active N] [--max-queue N]
                          [--cache-cap N] [--time-limit SECS]
  maxfairclique client    --connect HOST:PORT
                          ( --load NAME --path FILE | --solve NAME
                          | --enumerate NAME | --update NAME --stream FILE
                          | --stats | --metrics | --ping | --shutdown
                          | --raw LINE )
                          [-k K] [-d DELTA] [--weak] [--strong] [--top N]
                          [--limit N] [--min-size S] [--time-limit SECS]
                          [--node-limit N]

SCALE TIER:
  `--graph FILE.rfcg` routes solve / enumerate / heuristic / reduce / stats
  through the on-disk binary CSR: the graph is peeled out-of-core and only the
  residual is materialized in memory. `convert` writes the binary format;
  `generate --scale N` streams a power-law graph with a planted fair clique
  straight to `.rfcg` (requires `--output`).

OPTIONS:
  --graph FILE        graph in the maxfairclique text format (n/v/e records),
                      or a binary `.rfcg` on-disk CSR (by extension)
  --edges FILE        whitespace edge list (u v per line, # comments)
  --attributes FILE   attribute list (vertex a|b per line); defaults to attribute a
  -k K                minimum vertices per attribute (default 2)
  -d, --delta D       maximum attribute imbalance (default 1)
  --bound B           extra bound: cd (default), cp, d, h, ch, none
  --basic             basic MaxRFC (size bound only, no heuristic)
  --no-heuristic      disable the HeurRFC warm start
  --weak              weak fairness (no imbalance constraint; ignores --delta)
  --strong            strong fairness (exactly equal counts; ignores --delta)
  --threads N         worker threads for the search (default / 0: all cores;
                      1: deterministic serial; at most 256; parallel runs may
                      return a different maximum clique of the same optimal size)
  --time-limit SECS   wall-clock budget for the search phase (fractional ok);
                      on exhaustion the verified best-so-far clique is printed
  --node-limit N      branch-and-bound node budget for the search phase
  --top N             report the N largest fair cliques instead of just one
  --portfolio N       race N (at most 256) diversified solver configurations in
                      parallel on a shared incumbent; the first member to
                      prove optimality cancels the rest (useful with
                      --time-limit/--node-limit: the budget-bound answer
                      carries a certified optimality gap). Per-member reports
                      are printed with --verbose
  --anytime           with --portfolio: also run a fairness-preserving local
                      search improver that keeps tightening the incumbent
                      until the budget runs out or a member proves optimality
  --format F          output format: solve takes text (default) or json (one
                      machine-readable object); enumerate takes text (default)
                      or jsonl (one JSON object per clique, pipe-safe)
  --trace FILE        write a hierarchical span trace of the run to FILE as
                      JSONL (one open/close event per line; see the README
                      \"Observability\" section for the schema)
  --stream FILE       JSONL update stream for `update` (one op per line:
                      insert_edge, remove_edge, insert_vertex, restore_vertex,
                      remove_vertex, commit; see the README \"Dynamic graphs\"
                      section); each commit line re-solves incrementally
  --enumerate         after each commit also count the maximal fair cliques
  --limit N           stop enumerating after N maximal fair cliques
  --min-size S        only enumerate maximal fair cliques with >= S vertices
  --seeds N           number of greedy seeds for the heuristic (default 8)
  --dataset NAME      themarker | google | dblp | flixster | pokec | aminer
  --case-study NAME   aminer | dbai | nba | imdb
  --scale N           stream an N-vertex power-law graph with a planted fair
                      clique to `--output FILE.rfcg` (bounded memory)
  --seed S            RNG seed for `generate --scale` (default 42)
  --planted-half H    planted clique has H vertices per attribute (default 10)
  --prob-a P          background attribute-a probability (default 0.5)
  --output FILE       where to write the generated / reduced / converted graph
  --verbose           also print memory-footprint estimates (CSR bytes,
                      bit-matrix bytes, resident bytes of `.rfcg` stores)
  -h, --help          show this help

SERVING (see the README \"Serving\" section for the wire protocol):
  --host H            daemon bind interface (default 127.0.0.1)
  --port P            daemon port (default 7464; 0 picks an ephemeral port,
                      printed on the `listening on` line)
  --max-active N      concurrent requests before new ones queue (default 4)
  --max-queue N       queued requests before `overloaded` errors (default 16)
  --cache-cap N       LRU capacity of the per-component result caches
                      (default: unbounded; 0 disables caching)
  --connect ADDR      daemon address for `client` (HOST:PORT)
  --load NAME         client: load the graph at `--path` under NAME
  --path FILE         daemon-side path of the graph file for `--load`
  --solve NAME        client: maximum fair clique query against NAME
  --update NAME       client: apply the `--stream` JSONL ops to NAME
  --stats             client: fetch daemon statistics
  --metrics           client: dump the daemon's metrics registry (Prometheus
                      text exposition format)
  --ping              client: health check
  --shutdown          client: stop the daemon
  --raw LINE          client: send one raw protocol line verbatim
";

/// Which graph input was requested.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphInput {
    /// Combined-format file (`n`/`v`/`e` records).
    Combined(String),
    /// Raw edge list with an optional attribute list.
    EdgeList {
        /// Path to the edge-list file.
        edges: String,
        /// Optional path to the attribute-list file.
        attributes: Option<String>,
    },
}

/// Output format for the machine-readable subcommands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputFormat {
    /// Human-readable lines (the default everywhere).
    #[default]
    Text,
    /// One machine-readable JSON object for the whole result (`solve`).
    Json,
    /// One JSON object per clique, newline-delimited (`enumerate`).
    Jsonl,
}

/// A fully parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Exact maximum fair clique search.
    Solve {
        /// Input graph.
        input: GraphInput,
        /// Fairness model (`-k`, `-d`, `--weak`, `--strong`).
        model: FairnessModel,
        /// Extra bound selection.
        bound: ExtraBound,
        /// Run the basic configuration (size bound only, no heuristic).
        basic: bool,
        /// Disable the heuristic warm start.
        no_heuristic: bool,
        /// Worker threads for the search (default: all cores).
        threads: ThreadCount,
        /// Wall-clock and branch-node budget of the search.
        budget: Budget,
        /// Report the N largest fair cliques instead of a single maximum one.
        top: Option<usize>,
        /// Race this many diversified configurations on a shared incumbent.
        portfolio: Option<usize>,
        /// With `portfolio`: also run the anytime local-search improver.
        anytime: bool,
        /// Output format (text or one JSON object).
        format: OutputFormat,
        /// Write a JSONL span trace of the run to this path.
        trace: Option<String>,
        /// Also print memory-footprint estimates.
        verbose: bool,
    },
    /// Enumerate every maximal fair clique.
    Enumerate {
        /// Input graph.
        input: GraphInput,
        /// Fairness model.
        model: FairnessModel,
        /// Stop after this many cliques (`None`: all of them).
        limit: Option<u64>,
        /// Only emit cliques with at least this many vertices.
        min_size: usize,
        /// Output format (text or JSON lines).
        format: OutputFormat,
        /// Worker threads for the enumeration (default: all cores).
        threads: ThreadCount,
        /// Wall-clock and branch-node budget of the enumeration.
        budget: Budget,
        /// Write a JSONL span trace of the run to this path.
        trace: Option<String>,
    },
    /// Replay a JSONL update stream, re-solving incrementally at every commit.
    Update {
        /// Input graph.
        input: GraphInput,
        /// Path to the JSONL update-stream file.
        stream: String,
        /// Fairness model.
        model: FairnessModel,
        /// Also enumerate (count) the maximal fair cliques after each commit.
        enumerate: bool,
        /// Worker threads for the per-commit re-solves (default: all cores).
        threads: ThreadCount,
        /// Write a JSONL span trace of the replay to this path.
        trace: Option<String>,
    },
    /// Linear-time heuristic only.
    Heuristic {
        /// Input graph.
        input: GraphInput,
        /// Fairness model.
        model: FairnessModel,
        /// Number of greedy seeds.
        seeds: usize,
    },
    /// Run the reduction pipeline and optionally write the reduced graph.
    Reduce {
        /// Input graph.
        input: GraphInput,
        /// Parameter `k`.
        k: usize,
        /// Optional output path.
        output: Option<String>,
    },
    /// Print graph statistics.
    Stats {
        /// Input graph.
        input: GraphInput,
        /// Also print memory-footprint estimates.
        verbose: bool,
    },
    /// Convert a text graph to the binary `.rfcg` on-disk CSR format.
    Convert {
        /// Input graph (text formats).
        input: GraphInput,
        /// Output `.rfcg` path.
        output: String,
    },
    /// Generate a dataset analog, case-study graph, or streamed scale-tier graph.
    Generate {
        /// Dataset analog name (mutually exclusive with the other sources).
        dataset: Option<String>,
        /// Case-study name.
        case_study: Option<String>,
        /// Scale-tier vertex count: stream a power-law + planted-clique graph
        /// straight to `.rfcg` (requires `output`).
        scale: Option<usize>,
        /// RNG seed for `--scale`.
        seed: u64,
        /// Planted-clique half-size for `--scale`.
        planted_half: usize,
        /// Background attribute-`a` probability for `--scale`.
        prob_a: f64,
        /// Optional output path (stdout summary only when absent).
        output: Option<String>,
    },
    /// Run the `maxfaircliqued` daemon.
    Serve {
        /// Bind interface.
        host: String,
        /// Bind port (`0`: ephemeral).
        port: u16,
        /// Concurrent requests before queueing.
        max_active: usize,
        /// Queued requests before `overloaded`.
        max_queue: usize,
        /// LRU capacity of the per-component result caches (`None`: unbounded).
        cache_cap: Option<usize>,
        /// Default wall-clock budget for queries that set none.
        time_limit: Option<Duration>,
    },
    /// One-shot protocol client against a running daemon.
    Client {
        /// Daemon address (`HOST:PORT`).
        connect: String,
        /// The single action to perform.
        action: ClientAction,
    },
    /// Print the usage text.
    Help,
}

/// The one action a `client` invocation performs.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientAction {
    /// Send this request.
    Send(Request),
    /// Apply a local JSONL op stream to a graph as one `update` batch. The stream
    /// file is read when the command runs, not when it is parsed.
    Update {
        /// Registry name.
        graph: String,
        /// Local path of the JSONL op stream.
        stream: String,
    },
    /// Send one raw protocol line verbatim.
    Raw(String),
}

/// Parses the command line (without the program name).
pub fn parse(argv: &[String]) -> Result<Command, String> {
    let mut it = argv.iter().peekable();
    let sub = match it.next() {
        None => return Ok(Command::Help),
        Some(s) if s == "-h" || s == "--help" => return Ok(Command::Help),
        Some(s) => s.clone(),
    };

    // Collect flag/value pairs.
    let mut flags: Vec<(String, Option<String>)> = Vec::new();
    while let Some(arg) = it.next() {
        if arg == "-h" || arg == "--help" {
            return Ok(Command::Help);
        }
        if !arg.starts_with('-') {
            return Err(format!("unexpected positional argument `{arg}`"));
        }
        let takes_value = matches!(
            arg.as_str(),
            "--graph"
                | "--edges"
                | "--attributes"
                | "-k"
                | "-d"
                | "--delta"
                | "--bound"
                | "--threads"
                | "--time-limit"
                | "--node-limit"
                | "--top"
                | "--portfolio"
                | "--format"
                | "--trace"
                | "--limit"
                | "--min-size"
                | "--seeds"
                | "--stream"
                | "--dataset"
                | "--case-study"
                | "--scale"
                | "--seed"
                | "--planted-half"
                | "--prob-a"
                | "--output"
                | "--host"
                | "--port"
                | "--max-active"
                | "--max-queue"
                | "--cache-cap"
                | "--connect"
                | "--load"
                | "--solve"
                | "--update"
                | "--path"
                | "--raw"
        ) || (sub == "client" && arg == "--enumerate");
        if takes_value {
            let value = it
                .next()
                .ok_or_else(|| format!("flag `{arg}` expects a value"))?;
            flags.push((arg.clone(), Some(value.clone())));
        } else {
            flags.push((arg.clone(), None));
        }
    }

    let get = |name: &str| -> Option<String> {
        flags
            .iter()
            .find(|(f, _)| f == name)
            .and_then(|(_, v)| v.clone())
    };
    let has = |name: &str| flags.iter().any(|(f, _)| f == name);
    let parse_usize = |name: &str, default: usize| -> Result<usize, String> {
        match get(name) {
            None => Ok(default),
            Some(v) => v
                .parse::<usize>()
                .map_err(|_| format!("invalid value for `{name}`: `{v}`")),
        }
    };
    // A count that must be at least 1 when given (`--top`, `--limit`, …).
    let positive = |name: &str| -> Result<Option<usize>, String> {
        match get(name) {
            None => Ok(None),
            Some(v) => match v.parse::<usize>() {
                Ok(n) if n >= 1 => Ok(Some(n)),
                _ => Err(format!("invalid value for `{name}`: `{v}` (need N >= 1)")),
            },
        }
    };

    let input = || -> Result<GraphInput, String> {
        if let Some(path) = get("--graph") {
            Ok(GraphInput::Combined(path))
        } else if let Some(edges) = get("--edges") {
            Ok(GraphInput::EdgeList {
                edges,
                attributes: get("--attributes"),
            })
        } else {
            Err("an input graph is required (`--graph FILE` or `--edges FILE`)".to_string())
        }
    };

    // `-d` and `--delta` are aliases; the long form must be looked up *before*
    // defaulting (a `parse_usize("-d", 1)` fallback chain never reaches `--delta`
    // because the default is an `Ok`).
    let model = || -> Result<FairnessModel, String> {
        let k = parse_usize("-k", 2)?;
        let delta = match get("-d").or_else(|| get("--delta")) {
            None => 1,
            Some(v) => v
                .parse::<usize>()
                .map_err(|_| format!("invalid value for `-d`/`--delta`: `{v}`"))?,
        };
        match (has("--weak"), has("--strong")) {
            (true, true) => Err("`--weak` and `--strong` are mutually exclusive".into()),
            (true, false) => Ok(FairnessModel::Weak { k }),
            (false, true) => Ok(FairnessModel::Strong { k }),
            (false, false) => Ok(FairnessModel::Relative { k, delta }),
        }
    };
    // The CLI's own default is all cores; the meaning of a given count is
    // `ThreadCount`'s. A count starts that many threads, so it is bounded as the
    // daemon bounds its `threads` and `portfolio` fields.
    let threads = || -> Result<ThreadCount, String> {
        match get("--threads") {
            None => Ok(ThreadCount::Auto),
            Some(v) => match v.parse::<usize>() {
                Ok(n) if n <= MAX_QUERY_THREADS => Ok(ThreadCount::from(n)),
                _ => Err(format!(
                    "invalid value for `--threads`: `{v}` (need N <= {MAX_QUERY_THREADS})"
                )),
            },
        }
    };
    let time_limit = || -> Result<Option<Duration>, String> {
        get("--time-limit")
            .map(|v| {
                v.parse::<f64>()
                    .ok()
                    .and_then(|secs| Duration::try_from_secs_f64(secs).ok())
                    .ok_or_else(|| {
                        format!("invalid value for `--time-limit`: `{v}` (need 0 <= SECS < 2^64)")
                    })
            })
            .transpose()
    };
    let budget = || -> Result<Budget, String> {
        let node_limit = get("--node-limit")
            .map(|v| {
                v.parse::<u64>()
                    .map_err(|_| format!("invalid value for `--node-limit`: `{v}`"))
            })
            .transpose()?;
        Ok(Budget {
            time_limit: time_limit()?,
            node_limit,
        })
    };
    let limit = || -> Result<Option<u64>, String> { Ok(positive("--limit")?.map(|n| n as u64)) };

    match sub.as_str() {
        "solve" => {
            let bound = match get("--bound").as_deref() {
                None | Some("cd") => ExtraBound::ColorfulDegeneracy,
                Some("cp") => ExtraBound::ColorfulPath,
                Some("d") => ExtraBound::Degeneracy,
                Some("h") => ExtraBound::HIndex,
                Some("ch") => ExtraBound::ColorfulHIndex,
                Some("none") => ExtraBound::None,
                Some(other) => return Err(format!("unknown bound `{other}`")),
            };
            let format = match get("--format").as_deref() {
                None | Some("text") => OutputFormat::Text,
                Some("json") => OutputFormat::Json,
                Some(other) => {
                    return Err(format!(
                        "unknown format `{other}` for `solve` (expected text or json)"
                    ))
                }
            };
            let portfolio = positive("--portfolio")?;
            if portfolio.is_some_and(|n| n > MAX_QUERY_THREADS) {
                return Err(format!(
                    "invalid value for `--portfolio` (need N <= {MAX_QUERY_THREADS})"
                ));
            }
            if has("--anytime") && portfolio.is_none() {
                return Err("`--anytime` requires `--portfolio N`".to_string());
            }
            Ok(Command::Solve {
                input: input()?,
                model: model()?,
                bound,
                basic: has("--basic"),
                no_heuristic: has("--no-heuristic"),
                threads: threads()?,
                budget: budget()?,
                top: positive("--top")?,
                portfolio,
                anytime: has("--anytime"),
                format,
                trace: get("--trace"),
                verbose: has("--verbose"),
            })
        }
        "enumerate" => {
            let format = match get("--format").as_deref() {
                None | Some("text") => OutputFormat::Text,
                Some("jsonl") => OutputFormat::Jsonl,
                Some(other) => {
                    return Err(format!(
                        "unknown format `{other}` for `enumerate` (expected text or jsonl)"
                    ))
                }
            };
            Ok(Command::Enumerate {
                input: input()?,
                model: model()?,
                limit: limit()?,
                min_size: parse_usize("--min-size", 0)?,
                format,
                threads: threads()?,
                budget: budget()?,
                trace: get("--trace"),
            })
        }
        "update" => Ok(Command::Update {
            input: input()?,
            stream: get("--stream")
                .ok_or_else(|| "`update` needs `--stream FILE` (a JSONL op stream)".to_string())?,
            model: model()?,
            enumerate: has("--enumerate"),
            threads: threads()?,
            trace: get("--trace"),
        }),
        "heuristic" => Ok(Command::Heuristic {
            input: input()?,
            model: model()?,
            seeds: parse_usize("--seeds", 8)?,
        }),
        "reduce" => Ok(Command::Reduce {
            input: input()?,
            k: parse_usize("-k", 2)?,
            output: get("--output"),
        }),
        "stats" => Ok(Command::Stats {
            input: input()?,
            verbose: has("--verbose"),
        }),
        "convert" => Ok(Command::Convert {
            input: input()?,
            output: get("--output")
                .ok_or_else(|| "`convert` needs `--output FILE.rfcg`".to_string())?,
        }),
        "generate" => {
            let dataset = get("--dataset");
            let case_study = get("--case-study");
            let scale = positive("--scale")?;
            let sources = [dataset.is_some(), case_study.is_some(), scale.is_some()];
            match sources.iter().filter(|&&s| s).count() {
                0 => {
                    return Err(
                        "`generate` needs `--dataset NAME`, `--case-study NAME` or `--scale N`"
                            .into(),
                    )
                }
                1 => {}
                _ => {
                    return Err(
                        "`--dataset`, `--case-study` and `--scale` are mutually exclusive".into(),
                    )
                }
            }
            let seed = match get("--seed") {
                None => 42,
                Some(v) => v
                    .parse::<u64>()
                    .map_err(|_| format!("invalid value for `--seed`: `{v}`"))?,
            };
            let prob_a = match get("--prob-a") {
                None => 0.5,
                Some(v) => match v.parse::<f64>() {
                    Ok(p) if (0.0..=1.0).contains(&p) => p,
                    _ => {
                        return Err(format!(
                            "invalid value for `--prob-a`: `{v}` (need 0 <= P <= 1)"
                        ))
                    }
                },
            };
            Ok(Command::Generate {
                dataset,
                case_study,
                scale,
                seed,
                planted_half: parse_usize("--planted-half", 10)?,
                prob_a,
                output: get("--output"),
            })
        }
        "serve" => {
            let port = match get("--port") {
                None => 7464,
                Some(v) => v
                    .parse::<u16>()
                    .map_err(|_| format!("invalid value for `--port`: `{v}`"))?,
            };
            let cache_cap = match get("--cache-cap") {
                None => None,
                Some(v) => Some(
                    v.parse::<usize>()
                        .map_err(|_| format!("invalid value for `--cache-cap`: `{v}`"))?,
                ),
            };
            Ok(Command::Serve {
                host: get("--host").unwrap_or_else(|| "127.0.0.1".to_string()),
                port,
                max_active: parse_usize("--max-active", 4)?,
                max_queue: parse_usize("--max-queue", 16)?,
                cache_cap,
                time_limit: time_limit()?,
            })
        }
        "client" => {
            let connect = get("--connect")
                .ok_or_else(|| "`client` needs `--connect HOST:PORT`".to_string())?;
            let actions = [
                has("--load"),
                has("--solve"),
                has("--enumerate"),
                has("--update"),
                has("--stats"),
                has("--metrics"),
                has("--ping"),
                has("--shutdown"),
                has("--raw"),
            ];
            if actions.iter().filter(|&&a| a).count() != 1 {
                return Err(
                    "`client` needs exactly one action: `--load NAME --path FILE`, \
                     `--solve NAME`, `--enumerate NAME`, `--update NAME --stream FILE`, \
                     `--stats`, `--metrics`, `--ping`, `--shutdown`, or `--raw LINE`"
                        .to_string(),
                );
            }
            // The wire carries whole milliseconds: round up, so the daemon never
            // gets less time than was asked for.
            let wire_budget = || -> Result<(Option<u64>, Option<u64>), String> {
                let Budget {
                    time_limit,
                    node_limit,
                } = budget()?;
                let time_limit_ms = time_limit
                    .map(|limit| u64::try_from(limit.as_nanos().div_ceil(1_000_000)))
                    .transpose()
                    .map_err(|_| "`--time-limit` is out of range for the daemon".to_string())?;
                Ok((time_limit_ms, node_limit))
            };
            let action = if let Some(graph) = get("--load") {
                ClientAction::Send(Request::Load {
                    graph,
                    path: get("--path").ok_or_else(|| {
                        "`client --load NAME` needs `--path FILE` (a daemon-side path)".to_string()
                    })?,
                })
            } else if let Some(graph) = get("--solve") {
                let (time_limit_ms, node_limit) = wire_budget()?;
                ClientAction::Send(Request::Solve {
                    graph,
                    spec: QuerySpec {
                        top: positive("--top")?,
                        time_limit_ms,
                        node_limit,
                        ..QuerySpec::new(model()?)
                    },
                })
            } else if let Some(graph) = get("--enumerate") {
                let (time_limit_ms, node_limit) = wire_budget()?;
                ClientAction::Send(Request::Enumerate {
                    graph,
                    spec: EnumSpec {
                        min_size: parse_usize("--min-size", 0)?,
                        limit: limit()?,
                        time_limit_ms,
                        node_limit,
                        ..EnumSpec::new(model()?)
                    },
                })
            } else if let Some(graph) = get("--update") {
                ClientAction::Update {
                    graph,
                    stream: get("--stream").ok_or_else(|| {
                        "`client --update NAME` needs `--stream FILE` (a JSONL op stream)"
                            .to_string()
                    })?,
                }
            } else if let Some(line) = get("--raw") {
                ClientAction::Raw(line)
            } else if has("--stats") {
                ClientAction::Send(Request::Stats)
            } else if has("--metrics") {
                ClientAction::Send(Request::Metrics)
            } else if has("--ping") {
                ClientAction::Send(Request::Ping { sleep_ms: 0 })
            } else {
                ClientAction::Send(Request::Shutdown)
            };
            Ok(Command::Client { connect, action })
        }
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_solve_with_defaults() {
        let cmd = parse(&argv("solve --graph g.graph")).unwrap();
        match cmd {
            Command::Solve {
                input,
                model,
                bound,
                basic,
                no_heuristic,
                threads,
                budget,
                top,
                portfolio,
                anytime,
                format,
                trace,
                verbose,
            } => {
                assert_eq!(input, GraphInput::Combined("g.graph".into()));
                assert_eq!(model, FairnessModel::Relative { k: 2, delta: 1 });
                assert_eq!(bound, ExtraBound::ColorfulDegeneracy);
                assert!(!basic && !no_heuristic);
                assert_eq!(threads, ThreadCount::Auto);
                assert_eq!((budget, top), (Budget::unlimited(), None));
                assert_eq!((portfolio, anytime), (None, false));
                assert_eq!(format, OutputFormat::Text);
                assert_eq!(trace, None);
                assert!(!verbose);
            }
            other => panic!("unexpected {other:?}"),
        }
        // A given count: 0 is all cores, 1 the serial search, n a fixed pool.
        for (n, expected) in [
            (0, ThreadCount::Auto),
            (1, ThreadCount::Serial),
            (3, ThreadCount::Fixed(3)),
        ] {
            match parse(&argv(&format!("solve --graph g --threads {n}"))).unwrap() {
                Command::Solve { threads, .. } => assert_eq!(threads, expected, "{n}"),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn parses_solve_with_everything() {
        let cmd = parse(&argv(
            "solve --edges e.txt --attributes a.txt -k 4 -d 2 --bound cp --basic --no-heuristic --strong --threads 4 --time-limit 2.5 --node-limit 1000 --top 3 --portfolio 6 --anytime --format json --trace t.jsonl --verbose",
        ))
        .unwrap();
        match cmd {
            Command::Solve {
                input,
                model,
                bound,
                basic,
                no_heuristic,
                threads,
                budget,
                top,
                portfolio,
                anytime,
                format,
                trace,
                verbose,
            } => {
                assert_eq!(
                    input,
                    GraphInput::EdgeList {
                        edges: "e.txt".into(),
                        attributes: Some("a.txt".into())
                    }
                );
                assert_eq!(model, FairnessModel::Strong { k: 4 });
                assert_eq!(bound, ExtraBound::ColorfulPath);
                assert!(basic && no_heuristic);
                assert_eq!(threads, ThreadCount::Fixed(4));
                assert_eq!(budget.time_limit, Some(Duration::from_millis(2500)));
                assert_eq!(budget.node_limit, Some(1000));
                assert_eq!(top, Some(3));
                assert_eq!((portfolio, anytime), (Some(6), true));
                assert_eq!(format, OutputFormat::Json);
                assert_eq!(trace.as_deref(), Some("t.jsonl"));
                assert!(verbose);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn anytime_without_portfolio_is_rejected() {
        let err = parse(&argv("solve --graph g.graph --anytime")).unwrap_err();
        assert!(err.contains("--portfolio"), "{err}");
        let err = parse(&argv("solve --graph g.graph --portfolio 0")).unwrap_err();
        assert!(err.contains("--portfolio"), "{err}");
        assert!(matches!(
            parse(&argv("solve --graph g.graph --portfolio 2")).unwrap(),
            Command::Solve {
                portfolio: Some(2),
                anytime: false,
                ..
            }
        ));
    }

    #[test]
    fn long_form_delta_is_honored() {
        // Regression: `--delta D` used to be silently ignored (the `-d` lookup
        // returned its default before the fallback could run).
        for sub in ["solve", "enumerate", "heuristic"] {
            let cmd = parse(&argv(&format!("{sub} --graph g.graph -k 2 --delta 3"))).unwrap();
            let model = match cmd {
                Command::Solve { model, .. }
                | Command::Enumerate { model, .. }
                | Command::Heuristic { model, .. } => model,
                other => panic!("unexpected {other:?}"),
            };
            assert_eq!(model, FairnessModel::Relative { k: 2, delta: 3 }, "{sub}");
        }
        // `-d` wins when both are given (it is listed first).
        assert!(matches!(
            parse(&argv("solve --graph g -d 2 --delta 9")).unwrap(),
            Command::Solve {
                model: FairnessModel::Relative { delta: 2, .. },
                ..
            }
        ));
    }

    #[test]
    fn parses_enumerate_with_defaults_and_everything() {
        match parse(&argv("enumerate --graph g.graph")).unwrap() {
            Command::Enumerate {
                input,
                model,
                limit,
                min_size,
                format,
                threads,
                budget,
                trace,
            } => {
                assert_eq!(input, GraphInput::Combined("g.graph".into()));
                assert_eq!(model, FairnessModel::Relative { k: 2, delta: 1 });
                assert_eq!((limit, min_size), (None, 0));
                assert_eq!(format, OutputFormat::Text);
                assert_eq!((threads, budget), (ThreadCount::Auto, Budget::unlimited()));
                assert_eq!(trace, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse(&argv(
            "enumerate --edges e.txt -k 3 --weak --limit 10 --min-size 8 --format jsonl --threads 2 --time-limit 1.5 --node-limit 99 --trace t.jsonl",
        ))
        .unwrap()
        {
            Command::Enumerate {
                model,
                limit,
                min_size,
                format,
                threads,
                budget,
                trace,
                ..
            } => {
                assert_eq!(model, FairnessModel::Weak { k: 3 });
                assert_eq!(limit, Some(10));
                assert_eq!(min_size, 8);
                assert_eq!(format, OutputFormat::Jsonl);
                assert_eq!(threads, ThreadCount::Fixed(2));
                assert_eq!(budget.time_limit, Some(Duration::from_millis(1500)));
                assert_eq!(budget.node_limit, Some(99));
                assert_eq!(trace.as_deref(), Some("t.jsonl"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_other_subcommands() {
        assert!(matches!(
            parse(&argv("heuristic --graph g.graph -k 3 -d 2 --seeds 16")).unwrap(),
            Command::Heuristic {
                seeds: 16,
                model: FairnessModel::Relative { k: 3, delta: 2 },
                ..
            }
        ));
        assert!(matches!(
            parse(&argv("heuristic --graph g.graph -k 3 --weak")).unwrap(),
            Command::Heuristic {
                model: FairnessModel::Weak { k: 3 },
                ..
            }
        ));
        assert!(matches!(
            parse(&argv("reduce --graph g.graph -k 5 --output out.graph")).unwrap(),
            Command::Reduce {
                k: 5,
                output: Some(_),
                ..
            }
        ));
        assert!(matches!(
            parse(&argv("stats --edges e.txt")).unwrap(),
            Command::Stats { verbose: false, .. }
        ));
        assert!(matches!(
            parse(&argv("stats --edges e.txt --verbose")).unwrap(),
            Command::Stats { verbose: true, .. }
        ));
        assert!(matches!(
            parse(&argv("convert --graph g.graph --output g.rfcg")).unwrap(),
            Command::Convert { .. }
        ));
        assert!(parse(&argv("convert --graph g.graph")).is_err()); // missing output
        match parse(&argv(
            "generate --scale 1000 --seed 7 --planted-half 3 --prob-a 0.25 --output g.rfcg",
        ))
        .unwrap()
        {
            Command::Generate {
                scale,
                seed,
                planted_half,
                prob_a,
                output,
                dataset,
                case_study,
            } => {
                assert_eq!(scale, Some(1000));
                assert_eq!(seed, 7);
                assert_eq!(planted_half, 3);
                assert_eq!(prob_a, 0.25);
                assert_eq!(output.as_deref(), Some("g.rfcg"));
                assert!(dataset.is_none() && case_study.is_none());
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("generate --scale 0")).is_err());
        assert!(parse(&argv("generate --scale ten")).is_err());
        assert!(parse(&argv("generate --scale 10 --dataset dblp")).is_err());
        assert!(parse(&argv("generate --scale 10 --prob-a 1.5")).is_err());
        assert!(parse(&argv("generate --scale 10 --seed minus")).is_err());
        assert!(matches!(
            parse(&argv("generate --dataset aminer --output g.graph")).unwrap(),
            Command::Generate {
                dataset: Some(_),
                case_study: None,
                ..
            }
        ));
        assert!(matches!(parse(&argv("--help")).unwrap(), Command::Help));
        assert!(matches!(parse(&[]).unwrap(), Command::Help));
    }

    #[test]
    fn parses_update() {
        match parse(&argv(
            "update --graph g.graph --stream s.jsonl -k 3 --delta 2 --strong --enumerate --threads 2",
        ))
        .unwrap()
        {
            Command::Update {
                input,
                stream,
                model,
                enumerate,
                threads,
                trace,
            } => {
                assert_eq!(input, GraphInput::Combined("g.graph".into()));
                assert_eq!(stream, "s.jsonl");
                assert_eq!(model, FairnessModel::Strong { k: 3 });
                assert!(enumerate);
                assert_eq!(threads, ThreadCount::Fixed(2));
                assert_eq!(trace, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(
            parse(&argv("update --edges e.txt --stream s.jsonl")).unwrap(),
            Command::Update {
                model: FairnessModel::Relative { k: 2, delta: 1 },
                enumerate: false,
                threads: ThreadCount::Auto,
                ..
            }
        ));
        assert!(parse(&argv("update --graph g.graph")).is_err()); // missing stream
        assert!(parse(&argv("update --stream s.jsonl")).is_err()); // missing input
        assert!(parse(&argv("update --graph g --stream s --weak --strong")).is_err());
    }

    #[test]
    fn parses_serve_client_worker() {
        match parse(&argv("serve")).unwrap() {
            Command::Serve {
                host,
                port,
                max_active,
                max_queue,
                cache_cap,
                time_limit,
            } => {
                assert_eq!(host, "127.0.0.1");
                assert_eq!(port, 7464);
                assert_eq!((max_active, max_queue), (4, 16));
                assert_eq!((cache_cap, time_limit), (None, None));
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse(&argv(
            "serve --host 0.0.0.0 --port 0 --max-active 2 --max-queue 1 --cache-cap 64 --time-limit 0.5",
        ))
        .unwrap()
        {
            Command::Serve {
                host,
                port,
                max_active,
                max_queue,
                cache_cap,
                time_limit,
            } => {
                assert_eq!(host, "0.0.0.0");
                assert_eq!(port, 0);
                assert_eq!((max_active, max_queue), (2, 1));
                assert_eq!(cache_cap, Some(64));
                assert_eq!(time_limit, Some(Duration::from_millis(500)));
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse(&argv(
            "client --connect 127.0.0.1:7464 --solve g -k 3 -d 2 --top 5 --node-limit 100 --time-limit 0.0015",
        ))
        .unwrap()
        {
            Command::Client { connect, action } => {
                assert_eq!(connect, "127.0.0.1:7464");
                // The wire's milliseconds round up: 1.5 ms asks for 2.
                assert_eq!(
                    action,
                    ClientAction::Send(Request::Solve {
                        graph: "g".into(),
                        spec: QuerySpec {
                            top: Some(5),
                            time_limit_ms: Some(2),
                            node_limit: Some(100),
                            ..QuerySpec::new(FairnessModel::Relative { k: 3, delta: 2 })
                        },
                    })
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        // `--enumerate` takes a value under `client` (unlike `update --enumerate`).
        match parse(&argv(
            "client --connect h:1 --enumerate g --limit 10 --min-size 4 --weak",
        ))
        .unwrap()
        {
            Command::Client {
                action: ClientAction::Send(Request::Enumerate { graph, spec }),
                ..
            } => {
                assert_eq!(graph, "g");
                assert_eq!(spec.model, FairnessModel::Weak { k: 2 });
                assert_eq!((spec.limit, spec.min_size), (Some(10), 4));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(
            parse(&argv("client --connect h:1 --load g --path /tmp/g.graph")).unwrap(),
            Command::Client {
                action: ClientAction::Send(Request::Load { .. }),
                ..
            }
        ));
        assert!(matches!(
            parse(&argv("client --connect h:1 --update g --stream ops.jsonl")).unwrap(),
            Command::Client {
                action: ClientAction::Update { .. },
                ..
            }
        ));
        assert!(matches!(
            parse(&argv("client --connect h:1 --stats")).unwrap(),
            Command::Client {
                action: ClientAction::Send(Request::Stats),
                ..
            }
        ));
        assert!(matches!(
            parse(&argv("client --connect h:1 --metrics")).unwrap(),
            Command::Client {
                action: ClientAction::Send(Request::Metrics),
                ..
            }
        ));
        assert!(matches!(
            parse(&argv("client --connect h:1 --shutdown")).unwrap(),
            Command::Client {
                action: ClientAction::Send(Request::Shutdown),
                ..
            }
        ));
    }

    #[test]
    fn rejects_malformed_serve_client() {
        assert!(parse(&argv("serve --port notaport")).is_err());
        assert!(parse(&argv("serve --port 70000")).is_err());
        assert!(parse(&argv("serve --cache-cap many")).is_err());
        assert!(parse(&argv("client --solve g")).is_err()); // missing --connect
        assert!(parse(&argv("client --connect h:1")).is_err()); // no action
        assert!(parse(&argv("client --connect h:1 --solve g --stats")).is_err()); // two actions
        assert!(parse(&argv("client --connect h:1 --metrics --ping")).is_err()); // two actions
        assert!(parse(&argv("client --connect h:1 --load g")).is_err()); // missing --path
        assert!(parse(&argv("client --connect h:1 --update g")).is_err()); // missing --stream
        assert!(parse(&argv("client --connect h:1 --solve g --top 0")).is_err());
        assert!(parse(&argv("client --connect h:1 --enumerate g --limit 0")).is_err());
        assert!(parse(&argv("client --connect h:1 --solve g --weak --strong")).is_err());
        // Out of `Duration`'s range, and out of the wire's u64 milliseconds.
        assert!(parse(&argv("client --connect h:1 --solve g --time-limit 2e19")).is_err());
        assert!(parse(&argv(
            "client --connect h:1 --enumerate g --time-limit 1e19"
        ))
        .is_err());
    }

    #[test]
    fn thread_counts_are_bounded_as_the_daemon_bounds_them() {
        let parses = |args: String| parse(&argv(&args)).map(|_| ());
        for sub in ["solve", "enumerate", "update --stream s.jsonl"] {
            let threads = |n: usize| format!("{sub} --graph g --threads {n}");
            assert_eq!(parses(threads(MAX_QUERY_THREADS)), Ok(()), "{sub}");
            let err = parses(threads(MAX_QUERY_THREADS + 1)).unwrap_err();
            assert!(err.contains("--threads"), "{sub}: {err}");
        }
        let portfolio = |n: usize| format!("solve --graph g --portfolio {n}");
        assert_eq!(parses(portfolio(MAX_QUERY_THREADS)), Ok(()));
        let err = parses(portfolio(MAX_QUERY_THREADS + 1)).unwrap_err();
        assert!(err.contains("--portfolio"), "{err}");
    }

    #[test]
    fn rejects_malformed_invocations() {
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("solve")).is_err()); // missing input
        assert!(parse(&argv("solve --graph")).is_err()); // missing value
        assert!(parse(&argv("solve --graph g -k nope")).is_err());
        assert!(parse(&argv("solve --graph g --bound bogus")).is_err());
        assert!(parse(&argv("solve --graph g --threads many")).is_err());
        assert!(parse(&argv("solve --graph g --threads")).is_err());
        assert!(parse(&argv("solve --graph g --weak --strong")).is_err());
        assert!(parse(&argv("heuristic --graph g --weak --strong")).is_err());
        assert!(parse(&argv("solve --graph g --time-limit fast")).is_err());
        assert!(parse(&argv("solve --graph g --time-limit -1")).is_err());
        assert!(parse(&argv("solve --graph g --time-limit inf")).is_err());
        assert!(parse(&argv("solve --graph g --node-limit many")).is_err());
        assert!(parse(&argv("solve --graph g --top 0")).is_err());
        assert!(parse(&argv("solve --graph g --top three")).is_err());
        assert!(parse(&argv("solve --graph g --delta nope")).is_err());
        assert!(parse(&argv("solve --graph g --format jsonl")).is_err());
        assert!(parse(&argv("solve --graph g --format bogus")).is_err());
        assert!(parse(&argv("enumerate")).is_err()); // missing input
        assert!(parse(&argv("enumerate --graph g --format json")).is_err());
        assert!(parse(&argv("enumerate --graph g --limit 0")).is_err());
        assert!(parse(&argv("enumerate --graph g --limit many")).is_err());
        assert!(parse(&argv("enumerate --graph g --min-size tall")).is_err());
        assert!(parse(&argv("enumerate --graph g --weak --strong")).is_err());
        assert!(parse(&argv("enumerate --graph g --time-limit -2")).is_err());
        assert!(parse(&argv("generate")).is_err());
        assert!(parse(&argv("generate --dataset a --case-study b")).is_err());
        assert!(parse(&argv("solve positional")).is_err());
    }
}
