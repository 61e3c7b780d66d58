//! # rfc-bench — experiment harness for the maximum fair clique paper
//!
//! One binary per table/figure of the paper's evaluation section (Section VI). Every
//! binary prints a plain-text table with the same rows/series as the corresponding
//! paper artifact, so the qualitative shape (who wins, by roughly what factor, where
//! the trends bend) can be compared directly; absolute numbers differ because the
//! workloads are scaled-down synthetic analogs (see `rfc_datasets::paper`).
//!
//! The repository's speed is measured by the separate `perfbench/` package (see
//! `BENCHMARK.json`), which builds its workloads from [`workloads`].
//!
//! | binary | paper artifact |
//! |---|---|
//! | `fig4_5_reduction` | Fig. 4 / Fig. 5 — graph reduction comparison |
//! | `table2_bounds` | Table II — MaxRFC runtime under different upper bounds |
//! | `fig6_7_search` | Fig. 6 / Fig. 7 — MaxRFC vs +ub vs +ub+HeurRFC |
//! | `fig8_heuristic_quality` | Fig. 8 — HeurRFC size vs exact maximum |
//! | `fig9_scalability` | Fig. 9 — runtime vs 20–100% of n and m |
//! | `fig10_case_studies` | Fig. 10 — case studies |
//! | `ablation_branching` | (extra) branching-order ablation |
//! | `ablation_reduction_stages` | (extra) reduction-stage ablation |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;
pub mod workloads;

pub use report::Table;
