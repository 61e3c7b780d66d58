//! Graph reduction techniques (Section III of the paper).
//!
//! Before the branch-and-bound search runs, the graph is shrunk by removing vertices and
//! edges that provably cannot appear in any relative fair clique of size ≥ 2k:
//!
//! 1. [`colorful_core::en_colorful_core_reduction`] — the *enhanced colorful k-core*
//!    vertex reduction (`EnColorfulCore`, Lemma 2): keep only vertices whose neighbor
//!    colors can be split so that each attribute gets at least `k − 1` colors.
//! 2. [`colorful_sup::colorful_sup_reduction`] — the *colorful support* edge reduction
//!    (`ColorfulSup`, Algorithm 1 / Lemma 3): peel edges whose common neighbors do not
//!    offer enough distinct colors per attribute.
//! 3. [`en_colorful_sup::en_colorful_sup_reduction`] — the *enhanced colorful support*
//!    edge reduction (`EnColorfulSup`, Lemma 4): like ColorfulSup but each color is
//!    assigned exclusively to one attribute before counting.
//!
//! [`apply_reductions`] chains the three stages in the order used by `MaxRFC`
//! (Algorithm 2, lines 1–3) and records per-stage statistics — exactly the numbers
//! plotted in Fig. 4 / Fig. 5 of the paper.

pub mod colorful_core;
pub mod colorful_sup;
pub mod edge_support;
pub mod en_colorful_sup;
pub mod streaming;

use rfc_graph::{AttributedGraph, VertexId};

use crate::problem::FairCliqueParams;

/// Which reduction stages to run, in pipeline order.
///
/// `Hash` because `(k, ReductionConfig)` keys the [`RfcSolver`](crate::solver::RfcSolver)
/// reduced-graph cache: no reduction stage looks at `δ`, so queries that differ only in
/// fairness model or `δ` share one preprocessing pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReductionConfig {
    /// Run the enhanced colorful (k−1)-core vertex reduction (`EnColorfulCore`).
    pub en_colorful_core: bool,
    /// Run the colorful-support edge reduction (`ColorfulSup`).
    pub colorful_sup: bool,
    /// Run the enhanced colorful-support edge reduction (`EnColorfulSup`).
    pub en_colorful_sup: bool,
}

impl Default for ReductionConfig {
    /// The full pipeline used by `MaxRFC`.
    fn default() -> Self {
        Self {
            en_colorful_core: true,
            colorful_sup: true,
            en_colorful_sup: true,
        }
    }
}

impl ReductionConfig {
    /// No reduction at all (useful for ablation).
    pub fn none() -> Self {
        Self {
            en_colorful_core: false,
            colorful_sup: false,
            en_colorful_sup: false,
        }
    }

    /// Only the vertex-level `EnColorfulCore` reduction.
    pub fn core_only() -> Self {
        Self {
            en_colorful_core: true,
            colorful_sup: false,
            en_colorful_sup: false,
        }
    }

    /// `EnColorfulCore` followed by `ColorfulSup` (no enhanced support stage).
    pub fn up_to_colorful_sup() -> Self {
        Self {
            en_colorful_core: true,
            colorful_sup: true,
            en_colorful_sup: false,
        }
    }
}

/// Size of the graph after one reduction stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageStats {
    /// Human-readable stage name (`"EnColorfulCore"`, `"ColorfulSup"`, `"EnColorfulSup"`).
    pub stage: &'static str,
    /// Number of vertices that still have at least one incident edge.
    pub vertices: usize,
    /// Number of remaining edges.
    pub edges: usize,
    /// Wall-clock time spent in this stage, in microseconds (same unit and width as
    /// [`SearchStats::elapsed_micros`](crate::search::SearchStats::elapsed_micros)).
    pub micros: u64,
}

/// Statistics for a full reduction pipeline run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReductionStats {
    /// Original graph size (`|V|` counting all vertices, `|E|`).
    pub original_vertices: usize,
    /// Original edge count.
    pub original_edges: usize,
    /// Per-stage sizes, in execution order.
    pub stages: Vec<StageStats>,
}

impl ReductionStats {
    /// Vertices remaining after the last executed stage (or the original count if no
    /// stage ran).
    pub fn final_vertices(&self) -> usize {
        self.stages
            .last()
            .map(|s| s.vertices)
            .unwrap_or(self.original_vertices)
    }

    /// Edges remaining after the last executed stage.
    pub fn final_edges(&self) -> usize {
        self.stages
            .last()
            .map(|s| s.edges)
            .unwrap_or(self.original_edges)
    }
}

/// Runs the configured reduction stages and returns the reduced graph (same vertex-id
/// space as the input; removed vertices simply become isolated) plus statistics.
pub fn apply_reductions(
    g: &AttributedGraph,
    params: FairCliqueParams,
    config: &ReductionConfig,
) -> (AttributedGraph, ReductionStats) {
    let (reduced, stats, _) = apply_reductions_controlled(g, params, config, None);
    (
        reduced.expect("uncontrolled reduction cannot be interrupted"),
        stats,
    )
}

/// The vertices left with edges after each stage of a pipeline run, with their
/// degrees, in stage order. A stage's [`StageStats`] counts follow from its list:
/// its length, and half its degree sum.
pub(crate) type StageSurvivors = Vec<Vec<(VertexId, u32)>>;

/// [`apply_reductions`] with a cooperative stop check between pipeline stages, which
/// also returns each completed stage's [`StageSurvivors`].
///
/// When the control trips (deadline passed or cancel token fired) before a stage
/// starts, the pipeline aborts: the graph comes back as `None` and the stats cover
/// only the stages that actually ran. Callers must treat an aborted pipeline as
/// uncacheable — each stage is individually sound, but a partial pipeline must not
/// masquerade as the configured one.
pub(crate) fn apply_reductions_controlled(
    g: &AttributedGraph,
    params: FairCliqueParams,
    config: &ReductionConfig,
    ctrl: Option<&crate::search::control::SearchControl>,
) -> (Option<AttributedGraph>, ReductionStats, StageSurvivors) {
    let mut stats = ReductionStats {
        original_vertices: g.num_vertices(),
        original_edges: g.num_edges(),
        stages: Vec::new(),
    };
    let mut survivors = StageSurvivors::new();
    let tripped =
        |c: Option<&crate::search::control::SearchControl>| c.is_some_and(|c| c.check_now());
    let mut current = g.clone();

    if config.en_colorful_core {
        if tripped(ctrl) {
            return (None, stats, survivors);
        }
        current = run_stage(
            &current,
            "EnColorfulCore",
            "reduce/EnColorfulCore",
            (&mut stats, &mut survivors),
            |g| colorful_core::en_colorful_core_reduction(g, params.k),
        );
    }
    if config.colorful_sup {
        if tripped(ctrl) {
            return (None, stats, survivors);
        }
        current = run_stage(
            &current,
            "ColorfulSup",
            "reduce/ColorfulSup",
            (&mut stats, &mut survivors),
            |g| colorful_sup::colorful_sup_reduction(g, params.k),
        );
    }
    if config.en_colorful_sup {
        if tripped(ctrl) {
            return (None, stats, survivors);
        }
        current = run_stage(
            &current,
            "EnColorfulSup",
            "reduce/EnColorfulSup",
            (&mut stats, &mut survivors),
            |g| en_colorful_sup::en_colorful_sup_reduction(g, params.k),
        );
    }

    (Some(current), stats, survivors)
}

/// Runs one reduction stage inside a trace span, recording its surviving graph size
/// as [`StageStats`] and as span counters, and its survivors.
fn run_stage(
    current: &AttributedGraph,
    stage: &'static str,
    span_name: &'static str,
    (stats, survivors): (&mut ReductionStats, &mut StageSurvivors),
    reduce: impl FnOnce(&AttributedGraph) -> AttributedGraph,
) -> AttributedGraph {
    let mut span = rfc_obs::trace::span(span_name);
    let t = std::time::Instant::now();
    let next = reduce(current);
    let vertices = next.num_non_isolated_vertices();
    let edges = next.num_edges();
    span.counter("vertices", vertices as u64);
    span.counter("edges", edges as u64);
    stats.stages.push(StageStats {
        stage,
        vertices,
        edges,
        micros: t.elapsed().as_micros() as u64,
    });
    let alive = next.vertices().filter(|&v| next.degree(v) > 0);
    survivors.push(alive.map(|v| (v, next.degree(v) as u32)).collect());
    next
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfc_graph::fixtures;

    #[test]
    fn pipeline_preserves_planted_fair_clique_edges() {
        let g = fixtures::fig1_graph();
        let params = FairCliqueParams::new(3, 1).unwrap();
        let (reduced, stats) = apply_reductions(&g, params, &ReductionConfig::default());
        // All 28 edges of the planted 8-clique must survive: its sub-cliques include the
        // maximum fair clique and every edge of the 8-clique lies in a fair clique of
        // size >= 2k = 6.
        let clique = [6u32, 7, 9, 10, 11, 12, 13, 14];
        for (i, &u) in clique.iter().enumerate() {
            for &v in &clique[i + 1..] {
                assert!(reduced.has_edge(u, v), "lost clique edge ({u}, {v})");
            }
        }
        assert_eq!(stats.original_edges, g.num_edges());
        assert_eq!(stats.stages.len(), 3);
        // Each stage is monotone non-increasing in edges.
        let mut prev = stats.original_edges;
        for s in &stats.stages {
            assert!(s.edges <= prev, "stage {} grew the graph", s.stage);
            prev = s.edges;
        }
        assert_eq!(stats.final_edges(), reduced.num_edges());
    }

    #[test]
    fn pipeline_removes_sparse_left_side() {
        // For k = 3 the sparse left half of the Fig.1 fixture cannot host any fair
        // clique of size >= 6, so the support reductions should strip most of it.
        let g = fixtures::fig1_graph();
        let params = FairCliqueParams::new(3, 1).unwrap();
        let (reduced, _) = apply_reductions(&g, params, &ReductionConfig::default());
        assert!(reduced.num_edges() < g.num_edges());
        // Specifically, the left-side edge (v1, v2) = (0, 1) cannot survive.
        assert!(!reduced.has_edge(0, 1));
    }

    #[test]
    fn disabled_pipeline_is_identity() {
        let g = fixtures::fig1_graph();
        let params = FairCliqueParams::new(3, 1).unwrap();
        let (reduced, stats) = apply_reductions(&g, params, &ReductionConfig::none());
        assert_eq!(reduced.num_edges(), g.num_edges());
        assert!(stats.stages.is_empty());
        assert_eq!(stats.final_vertices(), g.num_vertices());
        assert_eq!(stats.final_edges(), g.num_edges());
    }

    #[test]
    fn partial_configs_run_expected_stages() {
        let g = fixtures::fig1_graph();
        let params = FairCliqueParams::new(2, 1).unwrap();
        let (_, s1) = apply_reductions(&g, params, &ReductionConfig::core_only());
        assert_eq!(
            s1.stages.iter().map(|s| s.stage).collect::<Vec<_>>(),
            vec!["EnColorfulCore"]
        );
        let (_, s2) = apply_reductions(&g, params, &ReductionConfig::up_to_colorful_sup());
        assert_eq!(
            s2.stages.iter().map(|s| s.stage).collect::<Vec<_>>(),
            vec!["EnColorfulCore", "ColorfulSup"]
        );
    }
}
