//! # rfc-graph — attributed-graph substrate for maximum fair clique search
//!
//! This crate provides the graph machinery that the maximum relative fair clique
//! algorithms (crate `rfc-core`) are built on:
//!
//! * [`AttributedGraph`] — an immutable CSR (compressed sparse row) representation of an
//!   undirected, unweighted graph whose vertices carry a binary attribute
//!   ([`Attribute::A`] / [`Attribute::B`]), built through [`GraphBuilder`].
//! * [`coloring`] — the degree-based greedy proper coloring used throughout the paper.
//! * [`cores`] — classic k-core decomposition, degeneracy, degeneracy ordering and the
//!   h-index of a graph (Lemmas 10–11 of the paper).
//! * [`colorful`] — colorful degrees, colorful k-cores, colorful core numbers, colorful
//!   degeneracy, the colorful h-index, and the *enhanced* colorful degree / k-core
//!   (Definitions 2–5 and 8–10 of the paper).
//! * [`components`] — connected components.
//! * [`delta`] — dynamic-graph support: [`GraphDelta`] records batches of edge/vertex
//!   insertions and deletions over the immutable CSR and applies them in one pass.
//! * [`bitset`] — `u64`-word bitsets and dense bit-matrix adjacency for the
//!   branch-and-bound hot loop.
//! * [`subgraph`] — induced subgraphs and edge-mask subgraphs with vertex-id mappings.
//! * [`io`] — plain-text edge-list / attribute-list readers and writers.
//! * [`json`] — the one shared hand-rolled JSON layer (string escaping + a small
//!   [`JsonValue`] parser/writer) used by the JSONL update streams, the enumeration
//!   sink, and the `rfc-serve` wire protocol.
//! * [`store`] — the [`GraphStore`] abstraction the scale-tier reduction passes run
//!   against, implemented by [`AttributedGraph`] and [`DiskCsr`].
//! * [`disk`] — the `.rfcg` binary on-disk CSR format: streaming [`CsrWriter`],
//!   out-of-core [`EdgeSpool`] assembly, and the [`DiskCsr`] reader.
//!
//! The crate is dependency-free (std only) and designed so that the branch-and-bound
//! search in `rfc-core` can cheaply build induced subgraphs of search instances and run
//! colorings / decompositions on them.
//!
//! ## Quick example
//!
//! ```
//! use rfc_graph::{Attribute, GraphBuilder, coloring, colorful};
//!
//! // A triangle {0,1,2} plus a pendant vertex 3.
//! let mut b = GraphBuilder::new(4);
//! b.set_attribute(0, Attribute::A);
//! b.set_attribute(1, Attribute::B);
//! b.set_attribute(2, Attribute::A);
//! b.set_attribute(3, Attribute::B);
//! b.add_edge(0, 1);
//! b.add_edge(1, 2);
//! b.add_edge(0, 2);
//! b.add_edge(2, 3);
//! let g = b.build().unwrap();
//!
//! assert_eq!(g.num_vertices(), 4);
//! assert_eq!(g.num_edges(), 4);
//!
//! let coloring = coloring::greedy_coloring(&g);
//! assert!(coloring.num_colors >= 3); // the triangle needs three colors
//!
//! let cd = colorful::colorful_degrees(&g, &coloring);
//! assert_eq!(cd.min_degree(0), 1); // vertex 0 sees 1 distinct a-color and 1 b-color
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attr;
pub mod bitset;
pub mod builder;
pub mod colorful;
pub mod coloring;
pub mod components;
pub mod cores;
pub mod delta;
pub mod disk;
pub mod fixtures;
pub mod graph;
pub mod io;
pub mod json;
pub mod store;
pub mod subgraph;

pub use attr::{Attribute, AttributeCounts};
pub use bitset::{BitMatrix, Bitset, BitsetPool};
pub use builder::{BuildError, GraphBuilder};
pub use coloring::Coloring;
pub use delta::{DeltaError, GraphDelta, UpdateOp};
pub use disk::{write_rfcg, CsrSummary, CsrWriter, DiskCsr, EdgeSpool, RfcgError};
pub use graph::{AttributedGraph, EdgeId, GraphStats, VertexId};
pub use json::{JsonError, JsonValue};
pub use store::GraphStore;
pub use subgraph::InducedSubgraph;

/// Commonly used items, for glob import in examples and downstream crates.
pub mod prelude {
    pub use crate::attr::{Attribute, AttributeCounts};
    pub use crate::builder::GraphBuilder;
    pub use crate::coloring::{greedy_coloring, Coloring};
    pub use crate::graph::{AttributedGraph, EdgeId, VertexId};
}
