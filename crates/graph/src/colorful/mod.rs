//! Colorful degrees, colorful cores and their enhanced variants.
//!
//! These are the attribute-and-color-aware analogues of degree and k-core that the
//! paper's reductions and upper bounds are built on:
//!
//! * [`ColorfulDegrees`] / [`colorful_degrees`] — Definition 2: for each vertex, the
//!   number of distinct colors among its neighbors of each attribute.
//! * [`colorful_k_core_mask`] — Definition 3: the maximal subgraph in which every vertex
//!   sees at least `k` distinct colors of **each** attribute among its neighbors.
//! * [`ColorfulCoreDecomposition`] / [`colorful_core_decomposition`] — Definitions 8–9:
//!   colorful core numbers, colorful degeneracy, and the colorful-core peeling order
//!   (`CalColorOD` in Algorithm 2).
//! * [`colorful_h_index`] — Definition 10.
//! * [`enhanced_colorful_degrees`] / [`enhanced_colorful_k_core_mask`] — Definitions 4–5:
//!   the variant in which every color must be assigned exclusively to one attribute.
//! * [`ColorCounts`] — the flat per-vertex (or per-edge) `(color, [count_a, count_b])`
//!   table that every colorful peeling here, and the edge-support peeling in `rfc-core`,
//!   decrements.

mod core;
mod degrees;
mod enhanced;

pub use self::core::{
    colorful_core_decomposition, colorful_h_index, colorful_k_core_mask, colorful_k_core_vertices,
    ColorfulCoreDecomposition,
};
pub use self::degrees::{
    colorful_degrees, ColorCounts, ColorCountsBuilder, ColorfulDegrees, NeighborColorCounts,
};
pub use self::enhanced::{
    enhanced_colorful_degree_from_groups, enhanced_colorful_degrees, enhanced_colorful_k_core_mask,
    enhanced_colorful_k_core_vertices, ColorGroups,
};
