//! Scaled-down analogs of the six datasets of Table I.
//!
//! | dataset | paper size (n, m) | analog size | attribute source |
//! |---|---|---|---|
//! | Themarker | 69 K, 3.29 M | 3 K, ~45 K | random 50/50 |
//! | Google | 876 K, 8.64 M | 6 K, ~40 K | random 50/50 |
//! | DBLP | 1.84 M, 16.7 M | 8 K, ~52 K | random 50/50 |
//! | Flixster | 2.52 M, 15.8 M | 8 K, ~42 K | random 50/50 |
//! | Pokec | 1.63 M, 44.6 M | 7 K, ~78 K | random 50/50 |
//! | Aminer | 423 K, 2.46 M | 4 K, ~27 K | 55/45 gender-like skew |
//!
//! Each analog is a seeded power-law background (preferential attachment with triadic
//! closure) with several planted attributed cliques, the largest of which plays the role
//! of the dataset's maximum fair clique. The parameter ranges (`k`, `δ`) mirror the
//! paper's experimental setup for the corresponding dataset. Absolute sizes and runtimes
//! are therefore *not* comparable to the paper's testbed, but the qualitative behaviour
//! (reduction ratios vs `k`, relative algorithm rankings, runtime trends) is — the
//! `rfc-bench` figure and table binaries print it.

use rfc_graph::{AttributedGraph, VertexId};

use crate::synthetic::{
    add_dense_community, plant_cliques_in_pool, power_law, DenseCommunity, PlantedClique,
    PowerLawConfig,
};

/// Identifier of one of the six Table-I dataset analogs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PaperDataset {
    /// Themarker social network analog.
    Themarker,
    /// Google web graph analog.
    Google,
    /// DBLP collaboration network analog.
    Dblp,
    /// Flixster social network analog.
    Flixster,
    /// Pokec social network analog.
    Pokec,
    /// Aminer collaboration network analog (gender-skewed attributes).
    Aminer,
}

/// The full description of a dataset analog.
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// Dataset name as used in the paper's tables and figures.
    pub name: &'static str,
    /// One-line description (matches Table I's "Description" column).
    pub description: &'static str,
    /// Vertex count of the *original* dataset (Table I).
    pub paper_vertices: usize,
    /// Edge count of the *original* dataset (Table I).
    pub paper_edges: usize,
    /// Vertex count of the analog.
    pub n: usize,
    /// Preferential-attachment edges per vertex of the analog background.
    pub edges_per_vertex: usize,
    /// Triadic-closure probability of the analog background.
    pub triangle_prob: f64,
    /// Probability of attribute `a`.
    pub prob_a: f64,
    /// Dense community embedded in the background. The largest planted clique lives
    /// inside it, surrounded by many overlapping near-maximum cliques — this is what
    /// gives the branch-and-bound search realistic work after the reductions.
    pub community: DenseCommunity,
    /// Cliques planted into the graph (largest first). The first clique is planted
    /// inside the dense community; the rest go into the remaining background.
    pub planted: Vec<PlantedClique>,
    /// Range of `k` swept in the experiments (inclusive), matching the paper.
    pub k_range: (usize, usize),
    /// Default `k` when `δ` is varied.
    pub default_k: usize,
    /// Range of `δ` swept in the experiments (inclusive).
    pub delta_range: (usize, usize),
    /// Default `δ` when `k` is varied.
    pub default_delta: usize,
    /// Generation seed (background and planting derive distinct sub-seeds from it).
    pub seed: u64,
}

impl DatasetSpec {
    /// The `k` values swept for this dataset (as in Fig. 4–7 and Table II).
    pub fn k_values(&self) -> Vec<usize> {
        (self.k_range.0..=self.k_range.1).collect()
    }

    /// The `δ` values swept for this dataset.
    pub fn delta_values(&self) -> Vec<usize> {
        (self.delta_range.0..=self.delta_range.1).collect()
    }

    /// Generates the analog graph.
    pub fn generate(&self) -> AttributedGraph {
        self.generate_with_ground_truth().0
    }

    /// Generates the analog graph together with the planted clique vertex sets
    /// (largest planted clique first).
    pub fn generate_with_ground_truth(&self) -> (AttributedGraph, Vec<Vec<VertexId>>) {
        let config = PowerLawConfig {
            n: self.n,
            edges_per_vertex: self.edges_per_vertex,
            triangle_prob: self.triangle_prob,
            prob_a: self.prob_a,
        };
        let background = power_law(&config, self.seed);
        // Embed the dense community.
        let (with_community, members) =
            add_dense_community(&background, &self.community, self.seed.wrapping_add(0x5eed));
        // Plant the largest clique inside the community, on its best-connected members:
        // in real networks the largest cohesive team sits on the most central vertices
        // of its community, which is also what makes it discoverable by the
        // degree-driven heuristics. The remaining (decoy) cliques go outside the
        // community.
        let mut top_members = members.clone();
        top_members.sort_unstable_by(|&a, &b| {
            background
                .degree(b)
                .cmp(&background.degree(a))
                .then(a.cmp(&b))
        });
        top_members.truncate(self.planted[0].size() + 5);
        let mut planted_sets = Vec::with_capacity(self.planted.len());
        let (graph, inside) = plant_cliques_in_pool(
            &with_community,
            &self.planted[..1],
            &top_members,
            self.seed.wrapping_add(0x9e37_79b9),
        );
        planted_sets.extend(inside);
        let member_set: std::collections::HashSet<VertexId> = members.iter().copied().collect();
        let outside_pool: Vec<VertexId> = graph
            .vertices()
            .filter(|v| !member_set.contains(v))
            .collect();
        let (graph, outside) = plant_cliques_in_pool(
            &graph,
            &self.planted[1..],
            &outside_pool,
            self.seed.wrapping_add(0x0bad_cafe),
        );
        planted_sets.extend(outside);
        (graph, planted_sets)
    }
}

impl PaperDataset {
    /// All six datasets, in the order the paper lists them.
    pub const ALL: [PaperDataset; 6] = [
        PaperDataset::Themarker,
        PaperDataset::Google,
        PaperDataset::Dblp,
        PaperDataset::Flixster,
        PaperDataset::Pokec,
        PaperDataset::Aminer,
    ];

    /// The dataset's display name.
    pub fn name(self) -> &'static str {
        self.spec().name
    }

    /// The analog specification for this dataset.
    pub fn spec(self) -> DatasetSpec {
        match self {
            PaperDataset::Themarker => DatasetSpec {
                name: "Themarker",
                description: "Social network",
                paper_vertices: 69_414,
                paper_edges: 3_289_686,
                n: 3_000,
                edges_per_vertex: 10,
                triangle_prob: 0.4,
                prob_a: 0.5,
                community: DenseCommunity {
                    size: 170,
                    edge_prob: 0.5,
                },
                planted: vec![
                    PlantedClique {
                        count_a: 14,
                        count_b: 13,
                    },
                    PlantedClique {
                        count_a: 9,
                        count_b: 8,
                    },
                    PlantedClique {
                        count_a: 7,
                        count_b: 5,
                    },
                    PlantedClique {
                        count_a: 4,
                        count_b: 4,
                    },
                ],
                k_range: (2, 6),
                default_k: 6,
                delta_range: (1, 5),
                default_delta: 3,
                seed: 0x7161_0001,
            },
            PaperDataset::Google => DatasetSpec {
                name: "Google",
                description: "Web network",
                paper_vertices: 875_713,
                paper_edges: 8_644_102,
                n: 6_000,
                edges_per_vertex: 5,
                triangle_prob: 0.3,
                prob_a: 0.5,
                community: DenseCommunity {
                    size: 160,
                    edge_prob: 0.5,
                },
                planted: vec![
                    PlantedClique {
                        count_a: 16,
                        count_b: 15,
                    },
                    PlantedClique {
                        count_a: 10,
                        count_b: 9,
                    },
                    PlantedClique {
                        count_a: 6,
                        count_b: 6,
                    },
                ],
                k_range: (5, 9),
                default_k: 7,
                delta_range: (1, 5),
                default_delta: 4,
                seed: 0x7161_0002,
            },
            PaperDataset::Dblp => DatasetSpec {
                name: "DBLP",
                description: "Collaboration network",
                paper_vertices: 1_843_615,
                paper_edges: 16_700_518,
                n: 8_000,
                edges_per_vertex: 5,
                triangle_prob: 0.3,
                prob_a: 0.5,
                community: DenseCommunity {
                    size: 130,
                    edge_prob: 0.5,
                },
                planted: vec![
                    PlantedClique {
                        count_a: 10,
                        count_b: 9,
                    },
                    PlantedClique {
                        count_a: 8,
                        count_b: 7,
                    },
                    PlantedClique {
                        count_a: 5,
                        count_b: 5,
                    },
                ],
                k_range: (5, 9),
                default_k: 7,
                delta_range: (1, 5),
                default_delta: 4,
                seed: 0x7161_0003,
            },
            PaperDataset::Flixster => DatasetSpec {
                name: "Flixster",
                description: "Social network",
                paper_vertices: 2_523_387,
                paper_edges: 15_837_602,
                n: 8_000,
                edges_per_vertex: 4,
                triangle_prob: 0.3,
                prob_a: 0.5,
                community: DenseCommunity {
                    size: 140,
                    edge_prob: 0.5,
                },
                planted: vec![
                    PlantedClique {
                        count_a: 13,
                        count_b: 11,
                    },
                    PlantedClique {
                        count_a: 8,
                        count_b: 8,
                    },
                    PlantedClique {
                        count_a: 5,
                        count_b: 4,
                    },
                ],
                k_range: (2, 6),
                default_k: 3,
                delta_range: (1, 5),
                default_delta: 3,
                seed: 0x7161_0004,
            },
            PaperDataset::Pokec => DatasetSpec {
                name: "Pokec",
                description: "Social network",
                paper_vertices: 1_632_803,
                paper_edges: 44_603_928,
                n: 7_000,
                edges_per_vertex: 8,
                triangle_prob: 0.4,
                prob_a: 0.5,
                community: DenseCommunity {
                    size: 170,
                    edge_prob: 0.5,
                },
                planted: vec![
                    PlantedClique {
                        count_a: 15,
                        count_b: 13,
                    },
                    PlantedClique {
                        count_a: 10,
                        count_b: 10,
                    },
                    PlantedClique {
                        count_a: 7,
                        count_b: 6,
                    },
                ],
                k_range: (3, 7),
                default_k: 4,
                delta_range: (1, 5),
                default_delta: 4,
                seed: 0x7161_0005,
            },
            PaperDataset::Aminer => DatasetSpec {
                name: "Aminer",
                description: "Collaboration network",
                paper_vertices: 423_469,
                paper_edges: 2_462_224,
                n: 4_000,
                edges_per_vertex: 5,
                triangle_prob: 0.35,
                prob_a: 0.55,
                community: DenseCommunity {
                    size: 130,
                    edge_prob: 0.5,
                },
                planted: vec![
                    PlantedClique {
                        count_a: 16,
                        count_b: 14,
                    },
                    PlantedClique {
                        count_a: 9,
                        count_b: 9,
                    },
                    PlantedClique {
                        count_a: 6,
                        count_b: 5,
                    },
                ],
                k_range: (4, 8),
                default_k: 6,
                delta_range: (1, 5),
                default_delta: 4,
                seed: 0x7161_0006,
            },
        }
    }

    /// Generates the analog graph for this dataset.
    pub fn generate(self) -> AttributedGraph {
        self.spec().generate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_specs_are_consistent() {
        for ds in PaperDataset::ALL {
            let spec = ds.spec();
            assert!(spec.n >= 1_000, "{}: analog too small", spec.name);
            assert!(spec.k_range.0 <= spec.default_k && spec.default_k <= spec.k_range.1);
            assert!(
                spec.delta_range.0 <= spec.default_delta
                    && spec.default_delta <= spec.delta_range.1
            );
            // The largest planted clique must be able to host a fair clique at the
            // largest swept k.
            let largest = &spec.planted[0];
            let k_max = spec.k_range.1;
            assert!(
                largest.count_a.min(largest.count_b) >= k_max,
                "{}: planted clique too small for k = {k_max}",
                spec.name
            );
            assert_eq!(
                spec.k_values().len(),
                5,
                "{}: paper sweeps 5 k values",
                spec.name
            );
            assert_eq!(spec.delta_values(), vec![1, 2, 3, 4, 5]);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = PaperDataset::Themarker.spec();
        assert_eq!(spec.generate(), spec.generate());
    }

    #[test]
    fn planted_ground_truth_is_valid() {
        // Use the two smallest analogs to keep the test fast.
        for ds in [PaperDataset::Themarker, PaperDataset::Aminer] {
            let spec = ds.spec();
            let (g, planted) = spec.generate_with_ground_truth();
            assert_eq!(planted.len(), spec.planted.len());
            for (set, expected) in planted.iter().zip(spec.planted.iter()) {
                assert_eq!(set.len(), expected.size());
                assert!(
                    g.is_clique(set),
                    "{}: planted set is not a clique",
                    spec.name
                );
                let counts = g.attribute_counts_of(set);
                assert_eq!(counts.a(), expected.count_a);
                assert_eq!(counts.b(), expected.count_b);
            }
        }
    }

    #[test]
    fn analog_sizes_are_in_expected_ballpark() {
        let spec = PaperDataset::Themarker.spec();
        let g = spec.generate();
        assert_eq!(g.num_vertices(), spec.n);
        let avg = 2.0 * g.num_edges() as f64 / g.num_vertices() as f64;
        assert!(avg > 10.0, "Themarker analog too sparse: avg degree {avg}");
        // Aminer keeps its attribute skew.
        let am = PaperDataset::Aminer.spec().generate();
        let counts = am.attribute_counts();
        assert!(counts.a() > counts.b(), "Aminer analog should be a-skewed");
    }
}
