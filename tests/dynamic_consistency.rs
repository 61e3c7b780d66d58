//! Differential harness for the dynamic-graph subsystem: after **every** commit of a
//! random update stream, the incremental [`DynamicRfcSolver`] must agree with a
//! from-scratch [`RfcSolver`] built on the applied graph —
//!
//! * `solve` for all three fairness models (optimal size, termination, and the
//!   returned clique verifies under the model), and
//! * `enumerate` (the *full* maximal-fair-clique set, compared as sorted vertex
//!   sets),
//!
//! plus an independent shadow replay of the stream that pins `GraphDelta::apply`
//! itself against a naive rebuild. The stream also races a portfolio on the
//! committed graph's snapshot, as the daemon does, before some of its checks and
//! on extra commits that no dynamic query reads, so the dynamic solver meets
//! reduced graphs built outside it. Deterministic edge-case tests cover the
//! adversarial corners: deleting a vertex of the current incumbent clique, updates
//! that merge/split connected components, a stream that empties the graph, and
//! re-inserting a previously deleted vertex id.
//!
//! Thread counts are env-driven so CI can sweep them (`RFC_TEST_THREADS=1` / `4`,
//! matching `parallel_consistency.rs`); the proptest RNG seed is the committed
//! fixed seed, so CI runs are reproducible (`PROPTEST_SEED` / `PROPTEST_CASES`
//! override).

use proptest::prelude::*;

use rfc_bench::workloads::multi_component_graph;
use rfc_core::dynamic::DynamicRfcSolver;
use rfc_core::prelude::*;
use rfc_core::verify;
use rfc_datasets::synthetic::{one_big_component, BigComponentConfig};
use rfc_datasets::updates::{churn_stream, delete_incumbent_stream};
use rfc_graph::delta::UpdateOp;
use rfc_graph::fixtures;

/// The models every differential check covers: the relative model with a binding δ,
/// plus the weak and strong extremes.
const MODELS: [FairnessModel; 4] = [
    FairnessModel::Relative { k: 1, delta: 0 },
    FairnessModel::Relative { k: 2, delta: 1 },
    FairnessModel::Weak { k: 1 },
    FairnessModel::Strong { k: 1 },
];

/// Thread count for the proptest stream (env-driven; 1 when unset so the default
/// `cargo test` run stays deterministic and fast). CI sweeps 1 and 4.
fn stream_threads() -> ThreadCount {
    match std::env::var("RFC_TEST_THREADS") {
        Ok(v) => match v.parse::<usize>() {
            Ok(0) | Ok(1) => ThreadCount::Serial,
            Ok(n) => ThreadCount::Fixed(n),
            Err(_) => panic!("RFC_TEST_THREADS must be a thread count such as 1 or 4"),
        },
        Err(_) => ThreadCount::Serial,
    }
}

fn query(model: FairnessModel, threads: ThreadCount) -> Query {
    Query::new(model).with_config(SearchConfig::default().with_threads(threads))
}

fn enumerate_sets(
    solve: impl FnOnce(&EnumQuery, &mut CollectSink),
    model: FairnessModel,
    threads: ThreadCount,
) -> Vec<Vec<VertexId>> {
    let mut sink = CollectSink::new();
    solve(&EnumQuery::new(model).with_threads(threads), &mut sink);
    let mut sets: Vec<Vec<VertexId>> = sink
        .into_cliques()
        .into_iter()
        .map(|clique| clique.vertices)
        .collect();
    sets.sort();
    sets
}

/// The full differential check: incremental vs from-scratch on the current
/// committed graph, for every model, solve and enumerate.
fn assert_matches_scratch(dynamic: &mut DynamicRfcSolver, threads: ThreadCount, label: &str) {
    let scratch = RfcSolver::new(dynamic.graph().clone());
    for model in MODELS {
        let q = query(model, threads);
        let incremental = dynamic.solve(&q).expect("valid query");
        let reference = scratch.solve(&q).expect("valid query");
        assert_same_answer(&incremental, &reference, &format!("{label} under {model}"));
        // The reduced graph is the committed graph's from-scratch reduction, so
        // its stats are too (timings aside).
        let counts = |s: &Solution| {
            let r = &s.stats.reduction;
            let stages = r.stages.iter().map(|st| (st.stage, st.vertices, st.edges));
            (
                (r.original_vertices, r.original_edges),
                stages.collect::<Vec<_>>(),
            )
        };
        assert_eq!(
            counts(&incremental),
            counts(&reference),
            "{label}: reduction stats differ under {model}"
        );
        if let Some(best) = incremental.best() {
            assert!(
                verify::is_fair_clique_under(dynamic.graph(), &best.vertices, model),
                "{label}: invalid clique under {model}"
            );
        }
        let incremental_sets = enumerate_sets(
            |eq, sink| drop(dynamic.enumerate(eq, sink).unwrap()),
            model,
            threads,
        );
        let reference_sets = enumerate_sets(
            |eq, sink| drop(scratch.enumerate(eq, sink).unwrap()),
            model,
            threads,
        );
        assert_eq!(
            incremental_sets, reference_sets,
            "{label}: maximal set differs under {model}"
        );
    }
}

fn assert_same_answer(got: &Solution, want: &Solution, label: &str) {
    assert_eq!(
        got.best().map(|c| c.size()),
        want.best().map(|c| c.size()),
        "{label}: optimum differs"
    );
    assert_eq!(
        got.termination, want.termination,
        "{label}: termination differs"
    );
}

/// Races a 2-member portfolio on the committed graph's snapshot for every model,
/// as the daemon does, and checks its answers against a from-scratch solver. The
/// reduced graphs it builds are the ones the dynamic solver's next queries read.
fn race_portfolio(dynamic: &DynamicRfcSolver, threads: ThreadCount, label: &str) {
    let (snapshot, scratch) = (dynamic.snapshot(), RfcSolver::new(dynamic.graph().clone()));
    for model in MODELS {
        let q = query(model, threads);
        let raced = snapshot.solve_portfolio(&q, &PortfolioConfig::new(2));
        let reference = scratch.solve(&q).expect("valid query");
        let label = format!("{label}: portfolio under {model}");
        assert_same_answer(&raced.expect("valid query").solution, &reference, &label);
    }
}

/// An independent model of the overlaid graph, mutated op-by-op and rebuilt through
/// the forgiving `GraphBuilder` — pins `GraphDelta::apply` against a second
/// implementation.
#[derive(Debug, Clone)]
struct Shadow {
    attrs: Vec<Attribute>,
    alive: Vec<bool>,
    edges: std::collections::BTreeSet<(VertexId, VertexId)>,
}

impl Shadow {
    fn new(g: &AttributedGraph) -> Self {
        Self {
            attrs: g.attributes().to_vec(),
            alive: vec![true; g.num_vertices()],
            edges: g.edge_list().iter().copied().collect(),
        }
    }

    fn live(&self) -> Vec<VertexId> {
        (0..self.alive.len() as VertexId)
            .filter(|&v| self.alive[v as usize])
            .collect()
    }

    fn dead(&self) -> Vec<VertexId> {
        (0..self.alive.len() as VertexId)
            .filter(|&v| !self.alive[v as usize])
            .collect()
    }

    fn build(&self) -> AttributedGraph {
        let mut b = GraphBuilder::with_attributes(self.attrs.clone());
        b.add_edges(self.edges.iter().copied());
        b.build().expect("shadow edges are in range")
    }
}

/// A generated update stream: a random base graph plus raw op seeds interpreted
/// against the evolving shadow state.
#[derive(Debug, Clone)]
struct StreamPlan {
    n: usize,
    attr_bits: Vec<bool>,
    edge_bits: Vec<bool>,
    raw_ops: Vec<(u8, u32, u32)>,
    commit_every: usize,
}

impl StreamPlan {
    fn base_graph(&self) -> AttributedGraph {
        let attrs = self
            .attr_bits
            .iter()
            .map(|&a| if a { Attribute::A } else { Attribute::B })
            .collect();
        let mut b = GraphBuilder::with_attributes(attrs);
        let mut idx = 0usize;
        for u in 0..self.n as VertexId {
            for v in (u + 1)..self.n as VertexId {
                if self.edge_bits[idx] {
                    b.add_edge(u, v);
                }
                idx += 1;
            }
        }
        b.build().expect("generated graph is valid")
    }

    /// Interprets one raw op against the shadow, returning the concrete op (and
    /// mutating the shadow to match). Returns `None` when the op is impossible in
    /// the current state (e.g. restore with nothing removed and the toggle fallback
    /// also blocked).
    fn interpret(&self, shadow: &mut Shadow, raw: (u8, u32, u32)) -> Option<UpdateOp> {
        let (kind, x, y) = raw;
        let toggle = |shadow: &mut Shadow, x: u32, y: u32| -> Option<UpdateOp> {
            let live = shadow.live();
            if live.len() < 2 {
                return None;
            }
            let u = live[x as usize % live.len()];
            let v = live[y as usize % live.len()];
            if u == v {
                return None;
            }
            let key = (u.min(v), u.max(v));
            if shadow.edges.remove(&key) {
                Some(UpdateOp::RemoveEdge { u: key.0, v: key.1 })
            } else {
                shadow.edges.insert(key);
                Some(UpdateOp::InsertEdge { u: key.0, v: key.1 })
            }
        };
        match kind % 10 {
            // Mostly edge toggles: they drive component merges and splits.
            0..=5 => toggle(shadow, x, y),
            6 => {
                // Append a vertex (cap the growth so searches stay small).
                if shadow.alive.len() >= self.n + 8 {
                    return toggle(shadow, x, y);
                }
                let attr = if y % 2 == 0 {
                    Attribute::A
                } else {
                    Attribute::B
                };
                shadow.attrs.push(attr);
                shadow.alive.push(true);
                Some(UpdateOp::InsertVertex { attr })
            }
            7 => {
                // Remove a live vertex (keep at least two alive).
                let live = shadow.live();
                if live.len() <= 2 {
                    return toggle(shadow, x, y);
                }
                let v = live[x as usize % live.len()];
                shadow.alive[v as usize] = false;
                shadow.edges.retain(|&(a, b)| a != v && b != v);
                Some(UpdateOp::RemoveVertex { v })
            }
            _ => {
                // Restore a previously removed id (possibly with the other attribute).
                let dead = shadow.dead();
                if dead.is_empty() {
                    return toggle(shadow, x, y);
                }
                let v = dead[x as usize % dead.len()];
                let attr = if y % 2 == 0 {
                    Attribute::A
                } else {
                    Attribute::B
                };
                shadow.alive[v as usize] = true;
                shadow.attrs[v as usize] = attr;
                Some(UpdateOp::RestoreVertex { v, attr })
            }
        }
    }
}

fn stream_plan() -> impl Strategy<Value = StreamPlan> {
    (8usize..=14).prop_flat_map(|n| {
        let pairs = n * (n - 1) / 2;
        (
            proptest::collection::vec(any::<bool>(), n),
            proptest::collection::vec(proptest::bool::weighted(0.35), pairs),
            proptest::collection::vec((any::<u8>(), any::<u32>(), any::<u32>()), 500..=1000),
            40usize..=80,
        )
            .prop_map(
                move |(attr_bits, edge_bits, raw_ops, commit_every)| StreamPlan {
                    n,
                    attr_bits,
                    edge_bits,
                    raw_ops,
                    commit_every,
                },
            )
    })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        .. ProptestConfig::default()
    })]

    /// The heart of the PR: a 500–1000-op random update stream; after every commit
    /// the incremental solver equals a from-scratch solver on the applied graph for
    /// solve (all models) and enumerate (full maximal set), and the committed graph
    /// equals an independent shadow rebuild.
    #[test]
    fn incremental_equals_from_scratch_on_random_streams(plan in stream_plan()) {
        let threads = stream_threads();
        let base = plan.base_graph();
        let mut shadow = Shadow::new(&base);
        let mut dynamic = DynamicRfcSolver::new(base);
        let mut since_commit = 0usize;
        let mut commits = 0usize;
        for &raw in &plan.raw_ops {
            let Some(op) = plan.interpret(&mut shadow, raw) else {
                continue;
            };
            dynamic
                .apply_op(&op)
                .unwrap_or_else(|e| panic!("shadow-validated op {op:?} rejected: {e}"));
            since_commit += 1;
            if since_commit == plan.commit_every / 2 && commits % 2 == 1 {
                // An extra commit that only a portfolio reads: the next commit
                // finds reduced graphs built outside the dynamic solver.
                dynamic.commit();
                race_portfolio(&dynamic, threads, &format!("before commit #{}", commits + 1));
            }
            if since_commit == plan.commit_every {
                since_commit = 0;
                commits += 1;
                dynamic.commit();
                prop_assert_eq!(
                    dynamic.graph(),
                    &shadow.build(),
                    "committed graph diverged from the shadow rebuild"
                );
                if commits % 3 == 0 {
                    // The queries below read the reduced graphs the race built.
                    race_portfolio(&dynamic, threads, &format!("commit #{commits}"));
                }
                assert_matches_scratch(&mut dynamic, threads, &format!("commit #{commits}"));
            }
        }
        // Flush the tail batch too.
        if since_commit > 0 {
            dynamic.commit();
            prop_assert_eq!(dynamic.graph(), &shadow.build(), "tail commit diverged");
            assert_matches_scratch(&mut dynamic, threads, "tail commit");
        }
        prop_assert!(commits >= 5, "stream must span several commits");
    }
}

/// Edge case: delete a vertex of the *current incumbent clique* (the adversarial
/// stream from `rfc-datasets` kills the whole planted clique one vertex per batch,
/// then stitches it back together); every commit must track the scratch solver.
#[test]
fn deleting_the_incumbent_clique_tracks_scratch() {
    for &threads in &[ThreadCount::Serial, ThreadCount::Fixed(4)] {
        let graph = fixtures::fig1_graph();
        let model = FairnessModel::Relative { k: 3, delta: 1 };
        let mut dynamic = DynamicRfcSolver::new(graph.clone());
        let incumbent = dynamic
            .solve(&query(model, threads))
            .unwrap()
            .into_best()
            .expect("fig1 has a fair clique")
            .vertices;
        assert!(graph.is_clique(&incumbent));
        let stream = delete_incumbent_stream(&graph, &incumbent, 2);
        let mut commits = 0;
        for op in &stream {
            if let Some(outcome) = dynamic.apply_op(op).expect("stream is valid") {
                commits += 1;
                assert!(outcome.ops > 0);
                assert_matches_scratch(
                    &mut dynamic,
                    threads,
                    &format!("incumbent-delete commit #{commits}"),
                );
            }
        }
        assert!(commits >= incumbent.len() / 2);
        // The clique is stitched back together at the end.
        assert!(dynamic.graph().is_clique(&incumbent));
        assert_eq!(
            dynamic
                .solve(&query(model, threads))
                .unwrap()
                .best()
                .unwrap()
                .size(),
            incumbent.len()
        );
    }
}

/// Edge case: updates that split a connected component and then merge it back.
#[test]
fn component_splits_and_merges_track_scratch() {
    for &threads in &[ThreadCount::Serial, ThreadCount::Fixed(4)] {
        let graph = fixtures::two_cliques_with_bridge(8, 6);
        // The bridge is the unique edge crossing the two cliques (ids 0..8 and 8..14).
        let &(u, v) = graph
            .edge_list()
            .iter()
            .find(|&&(u, v)| u < 8 && v >= 8)
            .expect("fixture has a bridge");
        let mut dynamic = DynamicRfcSolver::new(graph);
        assert_matches_scratch(&mut dynamic, threads, "bridge: initial");

        // Split: the bridge goes away, one component becomes two.
        dynamic.remove_edge(u, v).unwrap();
        dynamic.commit();
        assert_matches_scratch(&mut dynamic, threads, "bridge: split");

        // Merge harder: re-insert the bridge plus a second cross edge.
        dynamic.insert_edge(u, v).unwrap();
        dynamic.insert_edge(0, 13).unwrap();
        dynamic.commit();
        assert_matches_scratch(&mut dynamic, threads, "bridge: merged");
    }
}

/// Edge case: an update stream that empties the graph entirely — and regrows it.
#[test]
fn emptying_and_regrowing_the_graph_tracks_scratch() {
    let threads = ThreadCount::Serial;
    let graph = fixtures::balanced_clique(8);
    let n = graph.num_vertices() as VertexId;
    let mut dynamic = DynamicRfcSolver::new(graph);
    // Empty it in two batches.
    for v in 0..n / 2 {
        dynamic.remove_vertex(v).unwrap();
    }
    dynamic.commit();
    assert_matches_scratch(&mut dynamic, threads, "half-emptied");
    for v in n / 2..n {
        dynamic.remove_vertex(v).unwrap();
    }
    dynamic.commit();
    assert_eq!(dynamic.graph().num_edges(), 0);
    assert_matches_scratch(&mut dynamic, threads, "emptied");
    let solution = dynamic
        .solve(&query(FairnessModel::Relative { k: 1, delta: 1 }, threads))
        .unwrap();
    assert_eq!(solution.termination, Termination::Infeasible);

    // Regrow: restore half the ids, append two fresh vertices, build a K4.
    dynamic.restore_vertex(0, Attribute::A).unwrap();
    dynamic.restore_vertex(1, Attribute::B).unwrap();
    let x = dynamic.insert_vertex(Attribute::A);
    let y = dynamic.insert_vertex(Attribute::B);
    for &(a, b) in &[(0, 1), (0, x), (0, y), (1, x), (1, y), (x, y)] {
        dynamic.insert_edge(a, b).unwrap();
    }
    dynamic.commit();
    assert_matches_scratch(&mut dynamic, threads, "regrown");
    let best = dynamic
        .solve(&query(FairnessModel::Strong { k: 2 }, threads))
        .unwrap()
        .into_best()
        .expect("the regrown K4 is strongly fair");
    assert_eq!(best.size(), 4);
}

/// Edge case: re-inserting a previously deleted vertex id, including an attribute
/// flip, across separate commits.
#[test]
fn reinserting_a_deleted_vertex_id_tracks_scratch() {
    let threads = ThreadCount::Serial;
    let mut dynamic = DynamicRfcSolver::new(fixtures::fig1_graph());
    let victim: VertexId = 13;
    let old_neighbors: Vec<VertexId> = dynamic.graph().neighbors(victim).to_vec();
    dynamic.remove_vertex(victim).unwrap();
    dynamic.commit();
    assert_matches_scratch(&mut dynamic, threads, "victim removed");
    // The id stays reserved across commits: edges to it are rejected until restore.
    assert!(dynamic.insert_edge(victim, 6).is_err());
    assert!(dynamic.remove_vertex(victim).is_err());

    // Bring it back with the opposite attribute and its old edges.
    let flipped = match fixtures::fig1_graph().attribute(victim) {
        Attribute::A => Attribute::B,
        Attribute::B => Attribute::A,
    };
    dynamic.restore_vertex(victim, flipped).unwrap();
    for w in old_neighbors {
        dynamic.insert_edge(victim, w).unwrap();
    }
    dynamic.commit();
    assert_eq!(dynamic.graph().attribute(victim), flipped);
    assert_matches_scratch(
        &mut dynamic,
        threads,
        "victim restored with flipped attribute",
    );
}

/// Top-k ties across components follow the canonical order `RfcSolver` documents
/// (size descending, then lexicographic on sorted ids), not component order. Two
/// overlapping fair 4-cliques share one component; the lexicographically second 4-clique
/// lives in another component, so a merge by component order picks the wrong pair.
#[test]
fn top_k_ties_across_components_are_canonical() {
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
    let graph = b.build().unwrap();
    let expected: Vec<Vec<VertexId>> = vec![vec![0, 10, 11, 12], vec![1, 20, 21, 22]];
    let sets = |solution: &Solution| -> Vec<Vec<VertexId>> {
        solution
            .cliques
            .iter()
            .map(|clique| clique.vertices.clone())
            .collect()
    };
    for threads in [ThreadCount::Serial, ThreadCount::Fixed(2)] {
        let q = query(FairnessModel::Relative { k: 2, delta: 0 }, threads)
            .with_objective(Objective::TopK(2));
        let library = RfcSolver::new(graph.clone()).solve(&q).unwrap();
        let dynamic = DynamicRfcSolver::new(graph.clone()).solve(&q).unwrap();
        assert_eq!(sets(&library), expected, "library, {threads:?}");
        assert_eq!(sets(&dynamic), expected, "dynamic, {threads:?}");
        assert_eq!(dynamic.termination, library.termination, "{threads:?}");
    }
}

/// On a one-component graph at `Fixed(2)`, a fresh dynamic solver runs the
/// library's work-stealing search inside the component. The top-k vertex sets,
/// the termination and the bound must equal the library's, and a `Maximum` solve
/// must agree on everything but which of several maximum cliques it returns.
#[test]
fn a_lone_miss_on_two_threads_matches_the_library() {
    let config = BigComponentConfig {
        n: 120,
        edge_prob: 0.1,
        community: 40,
        community_prob: 0.6,
        planted_half: 4,
        prob_a: 0.5,
    };
    let (graph, _) = one_big_component(&config, 7);
    let model = FairnessModel::Relative { k: 3, delta: 1 };
    let sets = |solution: &Solution| -> Vec<Vec<VertexId>> {
        solution
            .cliques
            .iter()
            .map(|clique| clique.vertices.clone())
            .collect()
    };
    for objective in [Objective::TopK(2), Objective::Maximum] {
        let q = query(model, ThreadCount::Fixed(2)).with_objective(objective);
        let library = RfcSolver::new(graph.clone()).solve(&q).unwrap();
        let dynamic = DynamicRfcSolver::new(graph.clone()).solve(&q).unwrap();
        assert_eq!(dynamic.stats.components_searched, 1, "{objective:?}");
        if objective == Objective::Maximum {
            assert_eq!(dynamic.best_size(), library.best_size());
        } else {
            assert_eq!(sets(&dynamic), sets(&library), "{objective:?}");
        }
        assert_eq!(dynamic.termination, library.termination, "{objective:?}");
        assert_eq!(dynamic.upper_bound, library.upper_bound, "{objective:?}");
        assert!(library.best_size() >= 8, "the planted clique is found");
    }
}

/// A fresh dynamic solver's answer to `q` on `graph` against the library's: the
/// termination and the bound are equal, and so are the cliques at `Serial`. On
/// more threads, which of several tied maximum cliques a search reports depends on
/// timing, so the best size stands in for them.
fn assert_fresh_dynamic_matches_the_library(graph: &AttributedGraph, q: &Query, label: &str) {
    let library = RfcSolver::new(graph.clone()).solve(q).unwrap();
    let dynamic = DynamicRfcSolver::new(graph.clone()).solve(q).unwrap();
    if q.config.threads == ThreadCount::Serial {
        assert_eq!(dynamic.cliques, library.cliques, "{label}: cliques differ");
    } else {
        assert_eq!(dynamic.best_size(), library.best_size(), "{label}: size");
    }
    assert_eq!(
        dynamic.termination, library.termination,
        "{label}: termination"
    );
    assert_eq!(dynamic.upper_bound, library.upper_bound, "{label}: bound");
}

/// Ties across components: a fresh dynamic solver runs the library's search phase
/// (one warm start, then one pool over the components in the library's order), so
/// where several blobs hold maximum cliques of one size it reports the library's.
#[test]
fn a_fresh_dynamic_solver_breaks_ties_as_the_library_does() {
    let models = [
        FairnessModel::Relative { k: 3, delta: 1 },
        FairnessModel::Weak { k: 3 },
        FairnessModel::Relative { k: 2, delta: 0 },
    ];
    for seed in [17, 18, 42, 81, 201] {
        let graph = fixtures::four_blobs(seed);
        for model in models {
            for threads in [ThreadCount::Serial, ThreadCount::Fixed(2)] {
                let label = format!("seed {seed}, {model}, {threads:?}");
                assert_fresh_dynamic_matches_the_library(&graph, &query(model, threads), &label);
            }
        }
    }
}

/// Budgets across components: the node budget of a fresh dynamic solver is spent
/// as the library spends it, on one warm start and then the components in order
/// with one incumbent, so a budget that lets the library prove its answer lets the
/// dynamic solver prove the same one.
#[test]
fn a_fresh_dynamic_solver_spends_a_node_budget_as_the_library_does() {
    let model = FairnessModel::Relative { k: 3, delta: 1 };
    for seed in [17, 18, 42] {
        let graph = multi_component_graph(4, 120, seed);
        for nodes in [0, 5, 50] {
            let q = query(model, ThreadCount::Serial)
                .with_budget(Budget::unlimited().with_node_limit(nodes));
            let label = format!("seed {seed}, node limit {nodes}");
            assert_fresh_dynamic_matches_the_library(&graph, &q, &label);
        }
    }
}

/// A warm dynamic solver starts its search from its certificates and the library's
/// warm start, so after every commit of a churn stream over the whole graph its
/// node-limited answers are at least the library's from scratch: a best clique as
/// large, `optimal` whenever the library's is, and a bound no larger. Unlimited
/// solves after each commit's checks write the certificates the next commit's
/// clean components keep.
#[test]
fn a_warm_dynamic_solver_answers_at_least_as_well_as_the_library_under_a_budget() {
    let graph = multi_component_graph(4, 120, 17);
    let everything: Vec<VertexId> = graph.vertices().collect();
    let stream = churn_stream(&graph, &everything, 160, 4, 17);
    let model = FairnessModel::Relative { k: 3, delta: 1 };
    let objectives = [Objective::Maximum, Objective::TopK(3)];
    let unlimited =
        objectives.map(|objective| query(model, ThreadCount::Serial).with_objective(objective));
    let queries: Vec<Query> = unlimited
        .iter()
        .flat_map(|q| {
            [0, 5, 50].map(|nodes| {
                q.clone()
                    .with_budget(Budget::unlimited().with_node_limit(nodes))
            })
        })
        .collect();
    let mut dynamic = DynamicRfcSolver::new(graph);
    let warm_up = |dynamic: &mut DynamicRfcSolver| {
        for q in &unlimited {
            assert_eq!(dynamic.solve(q).unwrap().termination, Termination::Optimal);
        }
    };
    warm_up(&mut dynamic);
    let mut commits = 0;
    for op in &stream {
        if dynamic.apply_op(op).unwrap().is_none() {
            continue;
        }
        commits += 1;
        let library = RfcSolver::new(dynamic.graph().clone());
        for q in &queries {
            let (warm, scratch) = (dynamic.solve(q).unwrap(), library.solve(q).unwrap());
            let label = format!("commit {commits}, {:?}, {:?}", q.objective, q.budget);
            assert!(warm.best_size() >= scratch.best_size(), "{label}: size");
            if scratch.termination.is_complete() {
                assert_eq!(warm.termination, scratch.termination, "{label}");
            }
            assert!(
                warm.upper_bound.unwrap() <= scratch.upper_bound.unwrap(),
                "{label}"
            );
        }
        warm_up(&mut dynamic);
    }
    assert_eq!(commits, 40);
}

/// Bound certification follows one rule on every entry point: a budget-stopped
/// single-maximum solve whose bound is 0 proves infeasibility. An all-`A` K5 passes
/// the coloring gate for k = 2 but holds no fair clique; with no heuristic and a
/// zero node budget the search stops at once with a colorful bound of 0.
#[test]
fn a_zero_bound_certifies_infeasible_like_the_library() {
    let mut b = GraphBuilder::new(5);
    for u in 0..5 {
        for v in (u + 1)..5 {
            b.add_edge(u, v);
        }
    }
    let graph = b.build().unwrap();
    let mut config = SearchConfig::default().with_threads(ThreadCount::Serial);
    config.reductions = ReductionConfig::none();
    config.use_heuristic = false;
    let q = Query::new(FairnessModel::Relative { k: 2, delta: 1 })
        .with_config(config)
        .with_budget(Budget::default().with_node_limit(0));
    let library = RfcSolver::new(graph.clone()).solve(&q).unwrap();
    let dynamic = DynamicRfcSolver::new(graph).solve(&q).unwrap();
    assert_eq!(library.termination, Termination::Infeasible);
    assert_eq!(dynamic.termination, library.termination);
    assert_eq!(dynamic.upper_bound, Some(0));
    assert_eq!(dynamic.optimality_gap(), library.optimality_gap());
}

/// One SplitMix64 step, the generator of [`dense_core_graph`].
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// 60 vertices from one SplitMix64 stream: an attribute per vertex (`a` on an
/// even draw), then each pair `u < v` in order is an edge with probability 70%
/// inside the first 25 ids and 12% elsewhere.
fn dense_core_graph(seed: u64) -> AttributedGraph {
    let mut state = seed;
    let attrs = (0..60)
        .map(|_| match splitmix(&mut state) % 2 {
            0 => Attribute::A,
            _ => Attribute::B,
        })
        .collect();
    let mut b = GraphBuilder::with_attributes(attrs);
    for u in 0..60 {
        for v in u + 1..60 {
            let percent = if v < 25 { 70 } else { 12 };
            if splitmix(&mut state) % 100 < percent {
                b.add_edge(u, v);
            }
        }
    }
    b.build().unwrap()
}

/// Serial enumeration emits one sequence from every entry point, not just one
/// set: the library and the dynamic solver (the daemon's path) search the same
/// components in the same order, also when `min_size` lies above `2k`.
#[test]
fn serial_enumeration_emits_one_sequence_from_every_entry_point() {
    let relative = FairnessModel::Relative { k: 2, delta: 1 };
    let weak = FairnessModel::Weak { k: 2 };
    for seed in 1..=6 {
        let graph = dense_core_graph(seed);
        let library = RfcSolver::new(graph.clone());
        let mut dynamic = DynamicRfcSolver::new(graph);
        for (model, min_size) in [(relative, 4), (relative, 7), (weak, 4), (weak, 8)] {
            let query = EnumQuery::new(model)
                .with_min_size(min_size)
                .with_threads(ThreadCount::Serial);
            let mut from_library = CollectSink::new();
            library.enumerate(&query, &mut from_library).unwrap();
            let mut from_dynamic = CollectSink::new();
            dynamic.enumerate(&query, &mut from_dynamic).unwrap();
            assert!(
                !from_library.is_empty(),
                "seed {seed}, {model}, min {min_size}"
            );
            assert_eq!(
                from_dynamic.cliques(),
                from_library.cliques(),
                "seed {seed}, {model}, min size {min_size}"
            );
        }
    }
}

/// A `limit` bounds the work, not just the output: on one big component, a
/// limit-5 enumeration through the dynamic solver (the daemon's path) streams the
/// library's first 5 cliques and stops, instead of listing the whole component
/// before its first emission.
#[test]
fn a_limited_dynamic_enumeration_stops_after_the_librarys_first_cliques() {
    // The config of `rfc_bench::workloads::big_component_graph(800, 17)`.
    let big = BigComponentConfig {
        n: 800,
        edge_prob: 16.0 / 800.0,
        community: 240,
        community_prob: 0.55,
        planted_half: 18,
        prob_a: 0.5,
    };
    let (graph, _) = one_big_component(&big, 17);
    let query = EnumQuery::new(FairnessModel::Relative { k: 3, delta: 1 })
        .with_min_size(8)
        .with_threads(ThreadCount::Serial)
        .with_budget(Budget::unlimited().with_time_limit(std::time::Duration::from_secs(20)));
    let first_five = |enumerate: &mut dyn FnMut(&mut dyn CliqueSink) -> EnumOutcome| {
        let mut collect = CollectSink::new();
        let outcome = enumerate(&mut LimitSink::new(&mut collect, 5));
        (outcome.termination, collect.into_cliques())
    };
    let library = RfcSolver::new(graph.clone());
    let library = first_five(&mut |sink| library.enumerate(&query, sink).unwrap());
    let mut dynamic = DynamicRfcSolver::new(graph);
    let dynamic = first_five(&mut |sink| dynamic.enumerate(&query, sink).unwrap());
    assert_eq!(library.0, EnumTermination::SinkStopped);
    assert_eq!(library.1.len(), 5);
    assert_eq!(dynamic, library);
}
