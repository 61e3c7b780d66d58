//! # rfc-core — maximum relative fair clique search
//!
//! A faithful, production-quality Rust implementation of the algorithms from
//! *"Efficient Maximum Fair Clique Search over Large Networks"* (ICDE 2025):
//!
//! * **Graph reductions** ([`reduction`]): the enhanced colorful k-core reduction
//!   (`EnColorfulCore`), the colorful-support reduction (`ColorfulSup`, Algorithm 1) and
//!   the enhanced colorful-support reduction (`EnColorfulSup`), which iteratively delete
//!   vertices and edges that cannot belong to any relative fair clique.
//! * **Upper bounds** ([`bounds`]): the size/attribute/color family (`ubs`, `uba`,
//!   `ubc`, `ubac`, `ubeac`, grouped as `ubAD`), the degeneracy and h-index bounds
//!   (`ub△`, `ubh`), and the colorful degeneracy / colorful h-index / colorful path
//!   bounds (`ubcd`, `ubch`, `ubcp`).
//! * **Branch-and-bound search** ([`search`]): the `MaxRFC` framework (Algorithms 2–3)
//!   with configurable reductions, bounds, branching order and heuristic warm start.
//! * **Heuristics** ([`heuristic`]): `DegHeur`, `ColorfulDegHeur` and the combined
//!   `HeurRFC` framework (Algorithms 5–6) that finds a large fair clique in linear time.
//! * **Baselines** ([`baseline`]): a Bron–Kerbosch maximal-clique sweep and a
//!   brute-force oracle, used both as experimental baselines and as correctness oracles
//!   in the test suite.
//! * **Maximal fair clique enumeration** ([`enumerate`]): a fairness-aware
//!   pivot Bron–Kerbosch over the per-component bitset adjacency that streams every
//!   *maximal* fair clique of the graph through a [`CliqueSink`] (collect, count,
//!   top-N, JSONL, or any closure), with the same budgets, cancellation and parallel
//!   component fan-out as the exact search.
//! * **The multi-query solver** ([`solver`]): [`RfcSolver`] computes the
//!   query-independent preprocessing once and then serves many queries — each with a
//!   first-class [`FairnessModel`] (relative / weak / strong), an [`Objective`]
//!   (maximum or top-k), a time/node [`Budget`] and an optional
//!   [`CancelToken`] — returning structured [`Solution`]s whose
//!   [`Termination`] distinguishes exact answers from budgeted best-so-far results.
//!
//! ## Quick start
//!
//! Build an [`RfcSolver`] once, then query it as often as you like:
//!
//! ```
//! use rfc_core::prelude::*;
//! use rfc_graph::fixtures;
//!
//! let solver = RfcSolver::new(fixtures::fig1_graph());
//!
//! // The paper's relative model: >= 3 of each attribute, imbalance <= 1.
//! let relative = solver
//!     .solve(&Query::new(FairnessModel::Relative { k: 3, delta: 1 }))
//!     .unwrap();
//! assert_eq!(relative.termination, Termination::Optimal);
//! let best = relative.best().expect("the example graph contains a fair clique");
//! assert_eq!(best.size(), 7);
//! assert!(rfc_core::verify::is_fair_clique_under(
//!     solver.graph(),
//!     &best.vertices,
//!     FairnessModel::Relative { k: 3, delta: 1 },
//! ));
//!
//! // Weak / strong fairness reuse the same cached preprocessing (same k).
//! let weak = solver.solve(&Query::new(FairnessModel::Weak { k: 3 })).unwrap();
//! assert_eq!(weak.best().unwrap().size(), 8);
//! assert!(weak.reduction_cache_hit);
//! ```
//!
//! The one-shot [`max_fair_clique`] free function remains as a compatibility wrapper
//! over a throwaway solver. The search is exact: it returns a maximum fair clique
//! (there may be several of the same size; ties are broken deterministically in
//! serial mode).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod bounds;
pub mod cache;
pub mod dynamic;
pub mod enumerate;
pub mod heuristic;
pub mod portfolio;
pub mod problem;
pub mod reduction;
pub mod scale;
pub mod search;
pub mod solver;
pub mod verify;

pub use cache::{CacheStats, LruCache};
pub use dynamic::{CommitOutcome, DynCacheStats, DynamicRfcSolver};

pub use enumerate::{
    CliqueSink, CollectSink, CountSink, EnumOutcome, EnumQuery, EnumStats, EnumTermination,
    JsonlSink, LimitSink, SinkFlow, TopNSink,
};
pub use portfolio::{MemberReport, PortfolioConfig, PortfolioOutcome};
pub use problem::{FairClique, FairCliqueParams, FairnessModel, ParamError};
pub use scale::{ScaleError, ScaleSolver, ScaleStats};
pub use search::{max_fair_clique, PruneCounts, SearchConfig, SearchOutcome, SearchStats};
pub use solver::{
    Budget, CancelToken, Objective, Query, RfcSolver, Solution, SolveError, Termination,
};

/// Commonly used items for glob import.
pub mod prelude {
    pub use crate::bounds::{BoundConfig, ExtraBound};
    pub use crate::dynamic::{CommitOutcome, DynCacheStats, DynamicRfcSolver};
    pub use crate::enumerate::{
        CliqueSink, CollectSink, CountSink, EnumOutcome, EnumQuery, EnumStats, EnumTermination,
        JsonlSink, LimitSink, SinkFlow, TopNSink,
    };
    pub use crate::heuristic::{heur_rfc, HeuristicConfig};
    pub use crate::portfolio::{MemberReport, PortfolioConfig, PortfolioOutcome};
    pub use crate::problem::{FairClique, FairCliqueParams, FairnessModel};
    pub use crate::reduction::{ReductionConfig, ReductionStats};
    pub use crate::search::{
        max_fair_clique, BranchOrder, PruneCounts, SearchConfig, SearchOutcome, SearchStats,
        ThreadCount,
    };
    pub use crate::solver::{
        Budget, CancelToken, Objective, Query, RfcSolver, Solution, SolveError, Termination,
    };
    pub use rfc_graph::prelude::*;
}
