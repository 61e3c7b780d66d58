//! Dynamic-graph support: a compact mutation overlay for the immutable CSR.
//!
//! [`AttributedGraph`] is deliberately immutable — every algorithm in the workspace
//! relies on its CSR invariants. Real deployments, however, see graphs that *churn*:
//! edges and vertices arrive and leave between queries. [`GraphDelta`] bridges the two
//! worlds: it records a batch of updates **against a fixed base graph** in compact
//! sorted sets, answers "current state" queries (`has_edge`, `is_live`) against the
//! overlay without rebuilding anything, and [`apply`](GraphDelta::apply)s the whole
//! batch into a fresh CSR graph when the owner decides to commit. Applying a batch of
//! `b` recorded changes costs `O(n + m + b log m)`: a span-by-span copy of the base
//! edge list around the changed edges and one CSR fill, with no sort.
//!
//! ## Identity model
//!
//! Vertex ids are **stable**: removing a vertex drops its incident edges and marks the
//! id with a tombstone, but the id stays allocated (in the applied graph the vertex is
//! simply isolated). This keeps every downstream structure — attribute arrays,
//! per-vertex caches, previously reported cliques — valid across updates, and it makes
//! *re-inserting a previously deleted vertex id* ([`restore_vertex`]) a first-class,
//! cheap operation. New vertices are appended at the end of the id space. Isolated
//! vertices can never participate in a fair clique (every fairness model requires at
//! least two vertices), so tombstones are invisible to the solvers.
//!
//! ## Invariants
//!
//! The overlay maintains, by construction:
//!
//! * `inserted ∩ base_edges = ∅` — re-inserting a base edge that was removed earlier
//!   in the batch just cancels the removal;
//! * `dropped ⊆ base_edges` — removing an edge inserted earlier in the batch just
//!   cancels the insertion;
//! * no recorded edge touches a tombstoned vertex — [`remove_vertex`] materializes the
//!   removal of every incident edge, so [`apply`](GraphDelta::apply) is a pure set merge.
//!
//! [`restore_vertex`]: GraphDelta::restore_vertex
//! [`remove_vertex`]: GraphDelta::remove_vertex

use std::collections::{BTreeMap, BTreeSet};

use crate::attr::Attribute;
use crate::graph::{AttributedGraph, VertexId};
use crate::json::JsonValue;

/// Errors reported by the [`GraphDelta`] mutation methods.
///
/// The API is strict on purpose: redundant operations (inserting an edge that already
/// exists, removing one that doesn't) are reported instead of silently ignored, so
/// update streams that drift out of sync with the graph are caught at the first bad
/// op rather than corrupting differential comparisons later.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaError {
    /// A vertex id beyond the current vertex space (base + appended).
    VertexOutOfRange {
        /// The offending vertex id.
        vertex: VertexId,
        /// The current vertex-space size.
        num_vertices: usize,
    },
    /// The operation touches a tombstoned (removed) vertex.
    VertexRemoved {
        /// The removed vertex id.
        vertex: VertexId,
    },
    /// [`GraphDelta::restore_vertex`] targeted a vertex that is live.
    VertexNotRemoved {
        /// The live vertex id.
        vertex: VertexId,
    },
    /// An edge operation named the same vertex twice.
    SelfLoop {
        /// The vertex id.
        vertex: VertexId,
    },
    /// [`GraphDelta::insert_edge`] of an edge that is already present.
    EdgeExists {
        /// Canonical smaller endpoint.
        u: VertexId,
        /// Canonical larger endpoint.
        v: VertexId,
    },
    /// [`GraphDelta::remove_edge`] of an edge that is not present.
    EdgeMissing {
        /// Canonical smaller endpoint.
        u: VertexId,
        /// Canonical larger endpoint.
        v: VertexId,
    },
    /// [`UpdateOp::Commit`] was handed to [`GraphDelta::apply_op`]; batch boundaries
    /// are for the owner of the delta (e.g. `DynamicRfcSolver`) to interpret.
    NotAGraphOp,
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            DeltaError::VertexOutOfRange {
                vertex,
                num_vertices,
            } => write!(
                f,
                "vertex {vertex} out of range for a graph with {num_vertices} vertices"
            ),
            DeltaError::VertexRemoved { vertex } => {
                write!(f, "vertex {vertex} has been removed (restore it first)")
            }
            DeltaError::VertexNotRemoved { vertex } => {
                write!(f, "vertex {vertex} is live and cannot be restored")
            }
            DeltaError::SelfLoop { vertex } => write!(f, "self-loop at vertex {vertex}"),
            DeltaError::EdgeExists { u, v } => write!(f, "edge ({u}, {v}) already exists"),
            DeltaError::EdgeMissing { u, v } => write!(f, "edge ({u}, {v}) does not exist"),
            DeltaError::NotAGraphOp => {
                write!(f, "`commit` is a batch boundary, not a graph mutation")
            }
        }
    }
}

impl std::error::Error for DeltaError {}

/// One serializable graph update, the unit of the JSONL update-stream format.
///
/// A stream is a sequence of ops with [`Commit`](UpdateOp::Commit) markers as batch
/// boundaries; `rfc-datasets` generates such streams and the `maxfairclique update`
/// subcommand replays them. The JSONL rendering is one object per line:
///
/// ```text
/// {"op":"insert_edge","u":3,"v":9}
/// {"op":"remove_edge","u":0,"v":1}
/// {"op":"insert_vertex","attr":"a"}
/// {"op":"restore_vertex","v":4,"attr":"b"}
/// {"op":"remove_vertex","v":7}
/// {"op":"commit"}
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateOp {
    /// Insert the undirected edge `(u, v)`.
    InsertEdge {
        /// One endpoint.
        u: VertexId,
        /// The other endpoint.
        v: VertexId,
    },
    /// Remove the undirected edge `(u, v)`.
    RemoveEdge {
        /// One endpoint.
        u: VertexId,
        /// The other endpoint.
        v: VertexId,
    },
    /// Append a new vertex with the given attribute (its id is the next free one).
    InsertVertex {
        /// Attribute of the new vertex.
        attr: Attribute,
    },
    /// Re-insert a previously removed vertex id with the given attribute.
    RestoreVertex {
        /// The tombstoned vertex id to revive.
        v: VertexId,
        /// Attribute the vertex comes back with.
        attr: Attribute,
    },
    /// Remove a vertex: drop all its incident edges and tombstone the id.
    RemoveVertex {
        /// The vertex id to remove.
        v: VertexId,
    },
    /// Batch boundary: the replayer should commit everything seen since the last
    /// boundary and re-solve.
    Commit,
}

impl UpdateOp {
    /// Renders this op as one JSONL line (without a trailing newline).
    pub fn to_jsonl(&self) -> String {
        fn attr_name(attr: Attribute) -> &'static str {
            match attr {
                Attribute::A => "a",
                Attribute::B => "b",
            }
        }
        match *self {
            UpdateOp::InsertEdge { u, v } => {
                format!("{{\"op\":\"insert_edge\",\"u\":{u},\"v\":{v}}}")
            }
            UpdateOp::RemoveEdge { u, v } => {
                format!("{{\"op\":\"remove_edge\",\"u\":{u},\"v\":{v}}}")
            }
            UpdateOp::InsertVertex { attr } => {
                format!(
                    "{{\"op\":\"insert_vertex\",\"attr\":\"{}\"}}",
                    attr_name(attr)
                )
            }
            UpdateOp::RestoreVertex { v, attr } => format!(
                "{{\"op\":\"restore_vertex\",\"v\":{v},\"attr\":\"{}\"}}",
                attr_name(attr)
            ),
            UpdateOp::RemoveVertex { v } => format!("{{\"op\":\"remove_vertex\",\"v\":{v}}}"),
            UpdateOp::Commit => "{\"op\":\"commit\"}".to_string(),
        }
    }

    /// Parses one JSONL line (as produced by [`to_jsonl`](UpdateOp::to_jsonl)) through
    /// the shared [`crate::json`] parser.
    pub fn parse_jsonl(line: &str) -> Result<UpdateOp, String> {
        let value = JsonValue::parse(line).map_err(|e| format!("{e} in `{}`", line.trim()))?;
        Self::from_json(&value)
    }

    /// Interprets an already-parsed [`JsonValue`] object as an update op. This is the
    /// entry point protocol code uses when ops arrive nested inside a larger request
    /// document (e.g. the `rfc-serve` `update` request carries an array of them).
    pub fn from_json(value: &JsonValue) -> Result<UpdateOp, String> {
        let op = value
            .get("op")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("missing \"op\" field in `{value}`"))?;
        let vertex = |key: &str| -> Result<VertexId, String> {
            value
                .get(key)
                .and_then(JsonValue::as_u64)
                .and_then(|n| VertexId::try_from(n).ok())
                .ok_or_else(|| format!("missing numeric \"{key}\" field in `{value}`"))
        };
        let attr = || -> Result<Attribute, String> {
            let name = value
                .get("attr")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("missing \"attr\" field in `{value}`"))?;
            Attribute::parse(name).ok_or_else(|| format!("unknown attribute `{name}`"))
        };
        match op {
            "insert_edge" => Ok(UpdateOp::InsertEdge {
                u: vertex("u")?,
                v: vertex("v")?,
            }),
            "remove_edge" => Ok(UpdateOp::RemoveEdge {
                u: vertex("u")?,
                v: vertex("v")?,
            }),
            "insert_vertex" => Ok(UpdateOp::InsertVertex { attr: attr()? }),
            "restore_vertex" => Ok(UpdateOp::RestoreVertex {
                v: vertex("v")?,
                attr: attr()?,
            }),
            "remove_vertex" => Ok(UpdateOp::RemoveVertex { v: vertex("v")? }),
            "commit" => Ok(UpdateOp::Commit),
            other => Err(format!("unknown update op `{other}`")),
        }
    }

    /// Renders this op as a [`JsonValue`] object (the same shape
    /// [`to_jsonl`](UpdateOp::to_jsonl) prints).
    pub fn to_json(&self) -> JsonValue {
        fn attr_name(attr: Attribute) -> &'static str {
            match attr {
                Attribute::A => "a",
                Attribute::B => "b",
            }
        }
        match *self {
            UpdateOp::InsertEdge { u, v } => JsonValue::object(vec![
                ("op", JsonValue::string("insert_edge")),
                ("u", JsonValue::from(u)),
                ("v", JsonValue::from(v)),
            ]),
            UpdateOp::RemoveEdge { u, v } => JsonValue::object(vec![
                ("op", JsonValue::string("remove_edge")),
                ("u", JsonValue::from(u)),
                ("v", JsonValue::from(v)),
            ]),
            UpdateOp::InsertVertex { attr } => JsonValue::object(vec![
                ("op", JsonValue::string("insert_vertex")),
                ("attr", JsonValue::string(attr_name(attr))),
            ]),
            UpdateOp::RestoreVertex { v, attr } => JsonValue::object(vec![
                ("op", JsonValue::string("restore_vertex")),
                ("v", JsonValue::from(v)),
                ("attr", JsonValue::string(attr_name(attr))),
            ]),
            UpdateOp::RemoveVertex { v } => JsonValue::object(vec![
                ("op", JsonValue::string("remove_vertex")),
                ("v", JsonValue::from(v)),
            ]),
            UpdateOp::Commit => JsonValue::object(vec![("op", JsonValue::string("commit"))]),
        }
    }
}

/// A batch of vertex/edge updates recorded against one base [`AttributedGraph`].
///
/// All mutation methods take the base graph so they can validate against the *current*
/// overlaid state; the base must be the same graph for the delta's whole lifetime
/// (the owner — e.g. `DynamicRfcSolver` — guarantees this by replacing the delta at
/// every commit). See the [module docs](self) for the identity model and invariants.
#[derive(Debug, Clone, Default)]
pub struct GraphDelta {
    /// Attributes of appended vertices; vertex `base_n + i` has `appended[i]`.
    appended: Vec<Attribute>,
    /// Ids tombstoned by *earlier* batches (already isolated in the base graph).
    /// They gate liveness exactly like `removed`, but are not part of this batch's
    /// net change; see [`GraphDelta::with_tombstones`].
    pre_removed: BTreeSet<VertexId>,
    /// Tombstoned vertex ids (their edges are materialized into `dropped`/`inserted`).
    removed: BTreeSet<VertexId>,
    /// Attribute overrides from [`GraphDelta::restore_vertex`].
    overrides: BTreeMap<VertexId, Attribute>,
    /// Inserted edges (canonical `u < v`), disjoint from the base edge set.
    inserted: BTreeSet<(VertexId, VertexId)>,
    /// Removed base edges (canonical `u < v`), a subset of the base edge set.
    dropped: BTreeSet<(VertexId, VertexId)>,
    /// Every vertex an operation touched (endpoints of changed edges, removed /
    /// restored / appended vertices) — the conservative invalidation frontier.
    touched: BTreeSet<VertexId>,
}

impl GraphDelta {
    /// An empty delta.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty delta that starts with the given ids tombstoned.
    ///
    /// The tombstone state of removed-but-not-restored vertices has to survive from
    /// one batch to the next (the applied CSR graph only shows them as isolated), so
    /// a dynamic solver seeds each fresh delta with [`tombstones`](Self::tombstones)
    /// of the previous one. Seeded tombstones gate liveness and can be
    /// [`restore_vertex`](Self::restore_vertex)d, but do not count as changes of the
    /// new batch.
    pub fn with_tombstones(pre_removed: BTreeSet<VertexId>) -> Self {
        Self {
            pre_removed,
            ..Self::default()
        }
    }

    /// Every id that is tombstoned as of this batch — seeded ones plus this batch's
    /// removals, minus restores. Feed this into [`with_tombstones`](Self::with_tombstones)
    /// for the next batch after applying this one.
    pub fn tombstones(&self) -> BTreeSet<VertexId> {
        self.pre_removed.union(&self.removed).copied().collect()
    }

    /// Whether the delta describes no net structural change. (Operations that cancel
    /// out — an insert followed by a remove of the same edge — leave the delta empty
    /// again, though the touched-vertex set keeps the conservative record.)
    pub fn is_empty(&self) -> bool {
        self.appended.is_empty()
            && self.removed.is_empty()
            && self.overrides.is_empty()
            && self.inserted.is_empty()
            && self.dropped.is_empty()
    }

    /// Current vertex-space size: base vertices plus appended ones.
    pub fn num_vertices(&self, base: &AttributedGraph) -> usize {
        base.num_vertices() + self.appended.len()
    }

    /// Whether `v` is a live (in-range, not tombstoned) vertex of the overlaid graph.
    pub fn is_live(&self, base: &AttributedGraph, v: VertexId) -> bool {
        (v as usize) < self.num_vertices(base)
            && !self.removed.contains(&v)
            && !self.pre_removed.contains(&v)
    }

    /// The overlaid attribute of `v` (override > appended > base).
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    pub fn attribute(&self, base: &AttributedGraph, v: VertexId) -> Attribute {
        if let Some(&attr) = self.overrides.get(&v) {
            return attr;
        }
        let n = base.num_vertices();
        if (v as usize) < n {
            base.attribute(v)
        } else {
            self.appended[v as usize - n]
        }
    }

    /// Whether the overlaid graph currently has the edge `(u, v)`.
    pub fn has_edge(&self, base: &AttributedGraph, u: VertexId, v: VertexId) -> bool {
        if u == v || !self.is_live(base, u) || !self.is_live(base, v) {
            return false;
        }
        let key = canonical(u, v);
        if self.inserted.contains(&key) {
            return true;
        }
        let n = base.num_vertices() as VertexId;
        u < n && v < n && base.has_edge(u, v) && !self.dropped.contains(&key)
    }

    /// Whether the delta contains any edge insertions. Edge insertions are the one
    /// update class that can *revive* reduced-away vertices: their colorful degrees
    /// and supports only grow.
    pub fn has_edge_insertions(&self) -> bool {
        !self.inserted.is_empty()
    }

    /// Whether the delta changes any vertex attribute or grows the vertex space.
    pub fn changes_vertex_space(&self) -> bool {
        !self.appended.is_empty() || !self.overrides.is_empty()
    }

    /// The removed base edges (canonical order), including those materialized by
    /// vertex removals.
    pub fn dropped_edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.dropped.iter().copied()
    }

    /// The inserted edges (canonical order).
    pub fn inserted_edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.inserted.iter().copied()
    }

    /// Every vertex the batch touched, in increasing id order: endpoints of every
    /// changed edge plus removed, restored and appended vertices. This is the
    /// invalidation frontier a dynamic solver has to consider dirty.
    pub fn changed_vertices(&self) -> Vec<VertexId> {
        self.touched.iter().copied().collect()
    }

    fn check_live(&self, base: &AttributedGraph, v: VertexId) -> Result<(), DeltaError> {
        let n = self.num_vertices(base);
        if (v as usize) >= n {
            return Err(DeltaError::VertexOutOfRange {
                vertex: v,
                num_vertices: n,
            });
        }
        if self.removed.contains(&v) || self.pre_removed.contains(&v) {
            return Err(DeltaError::VertexRemoved { vertex: v });
        }
        Ok(())
    }

    /// Records the insertion of edge `(u, v)`. Both endpoints must be live and the
    /// edge must be absent.
    pub fn insert_edge(
        &mut self,
        base: &AttributedGraph,
        u: VertexId,
        v: VertexId,
    ) -> Result<(), DeltaError> {
        if u == v {
            return Err(DeltaError::SelfLoop { vertex: u });
        }
        self.check_live(base, u)?;
        self.check_live(base, v)?;
        let key = canonical(u, v);
        if self.has_edge(base, u, v) {
            return Err(DeltaError::EdgeExists { u: key.0, v: key.1 });
        }
        let n = base.num_vertices() as VertexId;
        if u < n && v < n && base.has_edge(u, v) {
            // Base edge removed earlier in the batch: cancel the removal.
            self.dropped.remove(&key);
        } else {
            self.inserted.insert(key);
        }
        self.touched.insert(u);
        self.touched.insert(v);
        Ok(())
    }

    /// Records the removal of edge `(u, v)`. Both endpoints must be live and the edge
    /// must be present.
    pub fn remove_edge(
        &mut self,
        base: &AttributedGraph,
        u: VertexId,
        v: VertexId,
    ) -> Result<(), DeltaError> {
        if u == v {
            return Err(DeltaError::SelfLoop { vertex: u });
        }
        self.check_live(base, u)?;
        self.check_live(base, v)?;
        let key = canonical(u, v);
        if !self.has_edge(base, u, v) {
            return Err(DeltaError::EdgeMissing { u: key.0, v: key.1 });
        }
        if !self.inserted.remove(&key) {
            self.dropped.insert(key);
        }
        self.touched.insert(u);
        self.touched.insert(v);
        Ok(())
    }

    /// Appends a new vertex with the given attribute and returns its id.
    pub fn insert_vertex(&mut self, base: &AttributedGraph, attr: Attribute) -> VertexId {
        let id = self.num_vertices(base) as VertexId;
        self.appended.push(attr);
        self.touched.insert(id);
        id
    }

    /// Re-inserts a tombstoned vertex id with the given attribute. The vertex comes
    /// back isolated; its former edges were dropped by the removal.
    pub fn restore_vertex(
        &mut self,
        base: &AttributedGraph,
        v: VertexId,
        attr: Attribute,
    ) -> Result<(), DeltaError> {
        let n = self.num_vertices(base);
        if (v as usize) >= n {
            return Err(DeltaError::VertexOutOfRange {
                vertex: v,
                num_vertices: n,
            });
        }
        if !self.removed.remove(&v) && !self.pre_removed.remove(&v) {
            return Err(DeltaError::VertexNotRemoved { vertex: v });
        }
        if (v as usize) < base.num_vertices() {
            self.overrides.insert(v, attr);
        } else {
            self.appended[v as usize - base.num_vertices()] = attr;
        }
        self.touched.insert(v);
        Ok(())
    }

    /// Removes a live vertex: every currently incident edge is dropped (their far
    /// endpoints count as touched) and the id is tombstoned.
    pub fn remove_vertex(&mut self, base: &AttributedGraph, v: VertexId) -> Result<(), DeltaError> {
        self.check_live(base, v)?;
        // Materialize the removal of incident base edges…
        if (v as usize) < base.num_vertices() {
            for &w in base.neighbors(v) {
                let key = canonical(v, w);
                if !self.dropped.contains(&key) && self.has_edge(base, v, w) {
                    self.dropped.insert(key);
                    self.touched.insert(w);
                }
            }
        }
        // …and of in-batch inserted edges.
        let incident: Vec<(VertexId, VertexId)> = self
            .inserted
            .iter()
            .copied()
            .filter(|&(a, b)| a == v || b == v)
            .collect();
        for key in incident {
            self.inserted.remove(&key);
            self.touched.insert(if key.0 == v { key.1 } else { key.0 });
        }
        self.removed.insert(v);
        self.touched.insert(v);
        Ok(())
    }

    /// Applies one [`UpdateOp`] to the overlay. Returns the new vertex id for
    /// [`UpdateOp::InsertVertex`] and `None` otherwise; [`UpdateOp::Commit`] is
    /// rejected with [`DeltaError::NotAGraphOp`] — batch boundaries belong to the
    /// delta's owner.
    pub fn apply_op(
        &mut self,
        base: &AttributedGraph,
        op: &UpdateOp,
    ) -> Result<Option<VertexId>, DeltaError> {
        match *op {
            UpdateOp::InsertEdge { u, v } => self.insert_edge(base, u, v).map(|()| None),
            UpdateOp::RemoveEdge { u, v } => self.remove_edge(base, u, v).map(|()| None),
            UpdateOp::InsertVertex { attr } => Ok(Some(self.insert_vertex(base, attr))),
            UpdateOp::RestoreVertex { v, attr } => {
                self.restore_vertex(base, v, attr).map(|()| None)
            }
            UpdateOp::RemoveVertex { v } => self.remove_vertex(base, v).map(|()| None),
            UpdateOp::Commit => Err(DeltaError::NotAGraphOp),
        }
    }

    /// Rebuilds the overlaid graph as a fresh immutable CSR [`AttributedGraph`]:
    /// base attributes with overrides plus appended vertices, and the base edge list
    /// minus the dropped edges merged with the inserted ones. The base list, the
    /// dropped set and the inserted set are all canonical and sorted, so this is a
    /// pure merge with no re-sorting: the base list is copied in spans between the
    /// changed edges, each found by binary search, and the CSR build fills already
    /// sorted rows. `O(n + m + b log m)` for a batch that changes `b` edges and
    /// vertices.
    pub fn apply(&self, base: &AttributedGraph) -> AttributedGraph {
        let mut attributes = Vec::with_capacity(self.num_vertices(base));
        attributes.extend_from_slice(base.attributes());
        attributes.extend_from_slice(&self.appended);
        for (&v, &attr) in &self.overrides {
            attributes[v as usize] = attr;
        }

        // The base list minus the dropped edges, copied span by span between them,
        // then the inserted edges slotted in the same way.
        let mut kept = Vec::with_capacity(base.num_edges() - self.dropped.len());
        let mut rest = base.edge_list();
        for edge in &self.dropped {
            let at = rest.partition_point(|e| e < edge);
            assert_eq!(rest.get(at), Some(edge), "a dropped edge is a base edge");
            kept.extend_from_slice(&rest[..at]);
            rest = &rest[at + 1..];
        }
        kept.extend_from_slice(rest);
        let mut edges = Vec::with_capacity(kept.len() + self.inserted.len());
        let mut rest = &kept[..];
        for edge in &self.inserted {
            let at = rest.partition_point(|e| e < edge);
            edges.extend_from_slice(&rest[..at]);
            edges.push(*edge);
            rest = &rest[at..];
        }
        edges.extend_from_slice(rest);
        AttributedGraph::from_parts(attributes, edges)
    }
}

#[inline]
fn canonical(u: VertexId, v: VertexId) -> (VertexId, VertexId) {
    (u.min(v), u.max(v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::fixtures;
    use crate::fixtures::seeded::{random_graph, SplitMix64};

    fn small() -> AttributedGraph {
        // Balanced K4 (0..4) plus pendant 4 on vertex 3.
        let mut b = GraphBuilder::new(5);
        b.set_attribute(1, Attribute::B);
        b.set_attribute(3, Attribute::B);
        b.add_edges([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)]);
        b.build().unwrap()
    }

    #[test]
    fn edge_insert_and_remove_round_trip() {
        let g = small();
        let mut d = GraphDelta::new();
        assert!(d.is_empty());
        assert!(!d.has_edge(&g, 1, 4));
        d.insert_edge(&g, 4, 1).unwrap();
        assert!(d.has_edge(&g, 1, 4));
        assert_eq!(
            d.insert_edge(&g, 1, 4),
            Err(DeltaError::EdgeExists { u: 1, v: 4 })
        );
        d.remove_edge(&g, 0, 1).unwrap();
        assert!(!d.has_edge(&g, 0, 1));
        assert_eq!(
            d.remove_edge(&g, 1, 0),
            Err(DeltaError::EdgeMissing { u: 0, v: 1 })
        );
        assert_eq!(d.changed_vertices(), vec![0, 1, 4]);
        let applied = d.apply(&g);
        assert_eq!(applied.num_vertices(), 5);
        assert_eq!(applied.num_edges(), g.num_edges()); // one in, one out
        assert!(applied.has_edge(1, 4));
        assert!(!applied.has_edge(0, 1));
    }

    #[test]
    fn cancelling_ops_leave_the_delta_empty() {
        let g = small();
        let mut d = GraphDelta::new();
        d.remove_edge(&g, 0, 1).unwrap();
        d.insert_edge(&g, 0, 1).unwrap(); // cancels the removal of a base edge
        d.insert_edge(&g, 1, 4).unwrap();
        d.remove_edge(&g, 1, 4).unwrap(); // cancels the in-batch insertion
        assert!(d.is_empty());
        assert!(!d.has_edge_insertions());
        assert_eq!(d.apply(&g), g);
        // The touched set stays conservative.
        assert_eq!(d.changed_vertices(), vec![0, 1, 4]);
    }

    #[test]
    fn vertex_removal_materializes_incident_edges() {
        let g = small();
        let mut d = GraphDelta::new();
        d.insert_edge(&g, 2, 4).unwrap();
        d.remove_vertex(&g, 3).unwrap();
        assert!(!d.is_live(&g, 3));
        assert!(!d.has_edge(&g, 3, 4));
        assert!(d.has_edge(&g, 2, 4));
        assert_eq!(
            d.insert_edge(&g, 3, 4),
            Err(DeltaError::VertexRemoved { vertex: 3 })
        );
        assert_eq!(
            d.remove_vertex(&g, 3),
            Err(DeltaError::VertexRemoved { vertex: 3 })
        );
        let dropped: Vec<_> = d.dropped_edges().collect();
        assert_eq!(dropped, vec![(0, 3), (1, 3), (2, 3), (3, 4)]);
        let applied = d.apply(&g);
        assert_eq!(applied.degree(3), 0);
        assert_eq!(applied.num_edges(), 4); // K3 on {0,1,2} plus (2,4)
                                            // Removing a vertex also removes in-batch inserted edges touching it.
        let mut d2 = GraphDelta::new();
        d2.insert_edge(&g, 2, 4).unwrap();
        d2.remove_vertex(&g, 4).unwrap();
        assert!(!d2.has_edge_insertions());
        assert_eq!(d2.apply(&g).num_edges(), 6);
    }

    #[test]
    fn restore_vertex_revives_a_tombstoned_id() {
        let g = small();
        let mut d = GraphDelta::new();
        assert_eq!(
            d.restore_vertex(&g, 3, Attribute::A),
            Err(DeltaError::VertexNotRemoved { vertex: 3 })
        );
        d.remove_vertex(&g, 3).unwrap();
        d.restore_vertex(&g, 3, Attribute::A).unwrap();
        assert!(d.is_live(&g, 3));
        assert_eq!(d.attribute(&g, 3), Attribute::A); // was B
                                                      // The vertex comes back isolated; its old edges stay dropped.
        assert!(!d.has_edge(&g, 3, 4));
        d.insert_edge(&g, 3, 4).unwrap();
        let applied = d.apply(&g);
        assert_eq!(applied.attribute(3), Attribute::A);
        assert_eq!(applied.degree(3), 1);
        assert!(applied.has_edge(3, 4));
    }

    #[test]
    fn appended_vertices_extend_the_id_space() {
        let g = small();
        let mut d = GraphDelta::new();
        let v5 = d.insert_vertex(&g, Attribute::B);
        let v6 = d.insert_vertex(&g, Attribute::A);
        assert_eq!((v5, v6), (5, 6));
        assert_eq!(d.num_vertices(&g), 7);
        assert_eq!(d.attribute(&g, 6), Attribute::A);
        d.insert_edge(&g, 5, 6).unwrap();
        d.insert_edge(&g, 0, 5).unwrap();
        assert_eq!(
            d.insert_edge(&g, 0, 7),
            Err(DeltaError::VertexOutOfRange {
                vertex: 7,
                num_vertices: 7
            })
        );
        // Appended vertices can be removed and restored like base ones.
        d.remove_vertex(&g, 6).unwrap();
        assert!(!d.is_live(&g, 6));
        d.restore_vertex(&g, 6, Attribute::B).unwrap();
        assert_eq!(d.attribute(&g, 6), Attribute::B);
        let applied = d.apply(&g);
        assert_eq!(applied.num_vertices(), 7);
        assert!(applied.has_edge(0, 5));
        assert_eq!(applied.degree(6), 0);
        assert_eq!(applied.attribute(6), Attribute::B);
    }

    #[test]
    fn self_loops_are_rejected() {
        let g = small();
        let mut d = GraphDelta::new();
        assert_eq!(
            d.insert_edge(&g, 2, 2),
            Err(DeltaError::SelfLoop { vertex: 2 })
        );
        assert_eq!(
            d.remove_edge(&g, 2, 2),
            Err(DeltaError::SelfLoop { vertex: 2 })
        );
    }

    #[test]
    fn apply_matches_a_from_scratch_rebuild() {
        let g = fixtures::fig1_graph();
        let mut d = GraphDelta::new();
        d.remove_edge(&g, 0, 1).unwrap();
        d.remove_vertex(&g, 14).unwrap();
        let fresh = d.insert_vertex(&g, Attribute::A);
        d.insert_edge(&g, fresh, 6).unwrap();
        d.insert_edge(&g, fresh, 7).unwrap();
        let applied = d.apply(&g);

        // Reference: rebuild through the forgiving GraphBuilder.
        let mut attrs = g.attributes().to_vec();
        attrs.push(Attribute::A);
        let mut b = GraphBuilder::with_attributes(attrs);
        for &(u, v) in g.edge_list() {
            if (u, v) != (0, 1) && u != 14 && v != 14 {
                b.add_edge(u, v);
            }
        }
        b.add_edge(fresh, 6);
        b.add_edge(fresh, 7);
        assert_eq!(applied, b.build().unwrap());

        // Seeded multi-op batches against a plain model of the graph, each applied
        // onto the previous batch's result with its tombstones carried over.
        for seed in 0..6u64 {
            let mut rng = SplitMix64(seed);
            let mut g = random_graph(30 + 10 * seed as usize, 120, seed);
            let mut attrs = g.attributes().to_vec();
            let mut edges: BTreeSet<(VertexId, VertexId)> = g.edge_list().iter().copied().collect();
            let mut tombstones = BTreeSet::new();
            for _ in 0..8 {
                let mut d = GraphDelta::with_tombstones(tombstones.clone());
                for _ in 0..rng.below(40) + 1 {
                    let n = attrs.len();
                    let (u, v) = (rng.vertex(n), rng.vertex(n));
                    let attr = [Attribute::A, Attribute::B][rng.below(2)];
                    let live = |x: VertexId| !tombstones.contains(&x);
                    match rng.below(10) {
                        0..=3 if u != v && live(u) && live(v) => {
                            if edges.remove(&canonical(u, v)) {
                                d.remove_edge(&g, u, v).unwrap();
                            } else {
                                d.insert_edge(&g, u, v).unwrap();
                                edges.insert(canonical(u, v));
                            }
                        }
                        4..=5 if live(u) => {
                            d.remove_vertex(&g, u).unwrap();
                            edges.retain(|&(a, b)| a != u && b != u);
                            tombstones.insert(u);
                        }
                        6..=7 if !live(u) => {
                            d.restore_vertex(&g, u, attr).unwrap();
                            attrs[u as usize] = attr;
                            tombstones.remove(&u);
                        }
                        8 => {
                            let id = d.insert_vertex(&g, attr);
                            assert_eq!(id as usize, attrs.len());
                            attrs.push(attr);
                        }
                        _ => {}
                    }
                }
                assert_eq!(d.tombstones(), tombstones);
                let applied = d.apply(&g);
                let mut b = GraphBuilder::with_attributes(attrs.clone());
                b.add_edges(edges.iter().copied());
                assert_eq!(applied, b.build().unwrap(), "seed {seed}");
                g = applied;
            }
        }
    }

    #[test]
    fn update_op_jsonl_round_trip() {
        let ops = [
            UpdateOp::InsertEdge { u: 3, v: 9 },
            UpdateOp::RemoveEdge { u: 0, v: 1 },
            UpdateOp::InsertVertex { attr: Attribute::A },
            UpdateOp::RestoreVertex {
                v: 4,
                attr: Attribute::B,
            },
            UpdateOp::RemoveVertex { v: 7 },
            UpdateOp::Commit,
        ];
        for op in ops {
            let line = op.to_jsonl();
            assert_eq!(UpdateOp::parse_jsonl(&line), Ok(op), "{line}");
            // The JsonValue rendering matches the legacy string rendering exactly.
            assert_eq!(op.to_json().to_string(), line);
            assert_eq!(UpdateOp::from_json(&op.to_json()), Ok(op));
        }
        // Whitespace tolerance.
        assert_eq!(
            UpdateOp::parse_jsonl("{ \"op\" : \"insert_edge\", \"u\" : 12, \"v\" : 5 }"),
            Ok(UpdateOp::InsertEdge { u: 12, v: 5 })
        );
        assert!(UpdateOp::parse_jsonl("{\"op\":\"explode\"}").is_err());
        assert!(UpdateOp::parse_jsonl("{\"op\":\"insert_edge\",\"u\":1}").is_err());
        assert!(UpdateOp::parse_jsonl("{\"op\":\"insert_vertex\",\"attr\":\"q\"}").is_err());
        assert!(UpdateOp::parse_jsonl("not json").is_err());
    }

    #[test]
    fn apply_op_dispatches_and_rejects_commit() {
        let g = small();
        let mut d = GraphDelta::new();
        assert_eq!(
            d.apply_op(&g, &UpdateOp::InsertVertex { attr: Attribute::A }),
            Ok(Some(5))
        );
        assert_eq!(
            d.apply_op(&g, &UpdateOp::InsertEdge { u: 5, v: 0 }),
            Ok(None)
        );
        assert_eq!(d.apply_op(&g, &UpdateOp::RemoveVertex { v: 4 }), Ok(None));
        assert_eq!(
            d.apply_op(&g, &UpdateOp::Commit),
            Err(DeltaError::NotAGraphOp)
        );
        let applied = d.apply(&g);
        assert!(applied.has_edge(0, 5));
        assert_eq!(applied.degree(4), 0);
    }

    #[test]
    fn errors_render_helpfully() {
        for (err, needle) in [
            (
                DeltaError::VertexOutOfRange {
                    vertex: 9,
                    num_vertices: 4,
                },
                "out of range",
            ),
            (DeltaError::VertexRemoved { vertex: 2 }, "removed"),
            (DeltaError::VertexNotRemoved { vertex: 2 }, "live"),
            (DeltaError::SelfLoop { vertex: 1 }, "self-loop"),
            (DeltaError::EdgeExists { u: 0, v: 1 }, "already exists"),
            (DeltaError::EdgeMissing { u: 0, v: 1 }, "does not exist"),
            (DeltaError::NotAGraphOp, "batch boundary"),
        ] {
            assert!(err.to_string().contains(needle), "{err}");
        }
    }
}
