//! Physical plans: the paper's Pre-/Post-/Cross-filtering alternatives.

use ghostdb_catalog::{Schema, TreeSchema};
use ghostdb_types::{GhostError, Result, TableId};

use crate::query::QuerySpec;

/// How one (or a group of) selection predicate(s) contributes an
/// ascending anchor-id stream *before* the SKT access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Source {
    /// Hidden predicate via its climbing value index, probed directly at
    /// the anchor level ("reaching any other table ... in a single step").
    HiddenIndexClimb {
        /// Index into [`QuerySpec::predicates`].
        pred: usize,
    },
    /// Hidden predicate by scanning the stored column, then translating
    /// the matching ids to the anchor level (index-free fallback).
    HiddenScanTranslate {
        /// Index into [`QuerySpec::predicates`].
        pred: usize,
    },
    /// Visible predicate delegated to the PC; the returned id list is
    /// translated to the anchor through the climbing key index
    /// (Pre-filtering).
    VisibleDelegate {
        /// Index into [`QuerySpec::predicates`].
        pred: usize,
    },
    /// Cross-filtering: all listed predicates select on `table`; hidden
    /// ones probe their value indexes *at `table`'s own level*, visible
    /// ones are delegated, everything is intersected at that level, and
    /// the combined (smaller) list is translated to the anchor once.
    CrossGroup {
        /// The shared table.
        table: TableId,
        /// Hidden predicate indices (probed at `table` level).
        hidden: Vec<usize>,
        /// Visible predicate indices (delegated).
        visible: Vec<usize>,
    },
}

impl Source {
    /// Predicate indices consumed by this source.
    pub fn preds(&self) -> Vec<usize> {
        match self {
            Source::HiddenIndexClimb { pred }
            | Source::HiddenScanTranslate { pred }
            | Source::VisibleDelegate { pred } => vec![*pred],
            Source::CrossGroup {
                hidden, visible, ..
            } => hidden.iter().chain(visible).copied().collect(),
        }
    }
}

/// How a predicate filters SKT rows *after* the hidden joins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PostStep {
    /// Visible predicate: delegate once, build a Bloom filter over the
    /// returned ids and probe it per SKT row; an exact flash-temp lookup
    /// confirms Bloom positives, so results stay exact (Post-filtering,
    /// Figure 5).
    BloomVisible {
        /// Index into [`QuerySpec::predicates`].
        pred: usize,
    },
    /// Hidden predicate verified per candidate row by reading the stored
    /// value (one random flash read per row) — the "late hidden filter"
    /// alternative the demo's plan game exposes.
    HiddenVerify {
        /// Index into [`QuerySpec::predicates`].
        pred: usize,
    },
}

impl PostStep {
    /// Predicate index consumed by this step.
    pub fn pred(&self) -> usize {
        match self {
            PostStep::BloomVisible { pred } | PostStep::HiddenVerify { pred } => *pred,
        }
    }
}

/// A complete physical plan for a [`QuerySpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// Pre-filtering sources (intersected). Empty means a full anchor
    /// scan feeds the SKT.
    pub sources: Vec<Source>,
    /// Post-filtering steps, applied in order to each candidate row.
    pub post: Vec<PostStep>,
    /// Short label shown by explain/demo outputs (e.g. "P1").
    pub label: String,
}

impl Plan {
    /// Check that the plan covers each predicate exactly once and that
    /// its shapes are applicable (cross groups reference one table, ...).
    pub fn validate(&self, schema: &Schema, spec: &QuerySpec) -> Result<()> {
        let mut seen = vec![0usize; spec.predicates.len()];
        let mut mark = |i: usize| -> Result<()> {
            if i >= seen.len() {
                return Err(GhostError::exec(format!("plan references predicate {i}")));
            }
            seen[i] += 1;
            Ok(())
        };
        for s in &self.sources {
            for p in s.preds() {
                mark(p)?;
            }
            match s {
                Source::HiddenIndexClimb { pred } | Source::HiddenScanTranslate { pred } => {
                    if !schema.is_hidden(spec.predicates[*pred].column) {
                        return Err(GhostError::exec("hidden source over a visible predicate"));
                    }
                }
                Source::VisibleDelegate { pred } => {
                    if schema.is_hidden(spec.predicates[*pred].column) {
                        return Err(GhostError::exec(
                            "delegating a hidden predicate would leak it",
                        ));
                    }
                }
                Source::CrossGroup {
                    table,
                    hidden,
                    visible,
                } => {
                    if hidden.is_empty() && visible.len() < 2 {
                        return Err(GhostError::exec(
                            "cross group needs at least two predicates",
                        ));
                    }
                    for &i in hidden {
                        let p = &spec.predicates[i];
                        if p.column.table != *table || !schema.is_hidden(p.column) {
                            return Err(GhostError::exec("bad hidden member of cross group"));
                        }
                    }
                    for &i in visible {
                        let p = &spec.predicates[i];
                        if p.column.table != *table || schema.is_hidden(p.column) {
                            return Err(GhostError::exec("bad visible member of cross group"));
                        }
                    }
                }
            }
        }
        for step in &self.post {
            mark(step.pred())?;
            match step {
                PostStep::BloomVisible { pred } => {
                    if schema.is_hidden(spec.predicates[*pred].column) {
                        return Err(GhostError::exec(
                            "bloom post-filter on a hidden predicate would leak it",
                        ));
                    }
                }
                PostStep::HiddenVerify { pred } => {
                    if !schema.is_hidden(spec.predicates[*pred].column) {
                        return Err(GhostError::exec("hidden verify over a visible predicate"));
                    }
                }
            }
        }
        if let Some(i) = seen.iter().position(|&c| c != 1) {
            return Err(GhostError::exec(format!(
                "predicate {i} covered {} times (must be exactly 1)",
                seen[i]
            )));
        }
        Ok(())
    }

    /// True when the plan must read the anchor's Subtree Key Table: the
    /// anchor has children and a projection or a post step names a
    /// column of a table other than the anchor. Sources already emit
    /// anchor ids, and SKT row *i* holds `i` in its root column, so a
    /// plan that touches only the anchor's own columns gets nothing from
    /// the SKT. The executor, `EXPLAIN` and the cost model all ask here.
    pub fn reads_skt(&self, spec: &QuerySpec, tree: &TreeSchema) -> bool {
        let elsewhere = |t: TableId| t != spec.anchor;
        !tree.children(spec.anchor).is_empty()
            && (spec.projections.iter().any(|c| elsewhere(c.table))
                || self
                    .post
                    .iter()
                    .any(|s| elsewhere(spec.predicates[s.pred()].column.table)))
    }

    /// Multi-line human description (the demo's plan view): the same
    /// operator tree `EXPLAIN ANALYZE` renders, without annotations.
    pub fn describe(&self, schema: &Schema, tree: &TreeSchema, spec: &QuerySpec) -> String {
        let nodes = crate::analyze::plan_nodes(schema, tree, spec, self, None);
        crate::analyze::render_plan(&self.label, &nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghostdb_catalog::{Predicate, SchemaBuilder, TreeSchema, Visibility};
    use ghostdb_types::{ColumnId, DataType, ScalarOp, Value};

    fn setup() -> (Schema, QuerySpec) {
        let mut b = SchemaBuilder::new();
        b.table("Visit", "VisID")
            .column("Date", DataType::Integer, Visibility::Visible)
            .column("Purpose", DataType::Char(20), Visibility::Hidden);
        b.table("Prescription", "PreID")
            .foreign_key("VisID", "Visit", Visibility::Hidden);
        let schema = b.build().unwrap();
        let tree = TreeSchema::analyze(&schema).unwrap();
        let vis = schema.resolve_table("Visit").unwrap();
        let pre = schema.resolve_table("Prescription").unwrap();
        let spec = QuerySpec::bind(
            &schema,
            &tree,
            "...",
            vec![vis, pre],
            vec![],
            vec![
                Predicate::new(vis, ColumnId(1), ScalarOp::Gt, Value::Int(10)),
                Predicate::new(vis, ColumnId(2), ScalarOp::Eq, Value::Text("x".into())),
            ],
            vec![(
                schema.resolve_column(pre, "VisID").unwrap(),
                schema.resolve_column(vis, "VisID").unwrap(),
            )],
        )
        .unwrap();
        (schema, spec)
    }

    #[test]
    fn valid_pre_post_plan() {
        let (schema, spec) = setup();
        let plan = Plan {
            sources: vec![Source::HiddenIndexClimb { pred: 1 }],
            post: vec![PostStep::BloomVisible { pred: 0 }],
            label: "P2".into(),
        };
        plan.validate(&schema, &spec).unwrap();
        let d = plan.describe(&schema, &TreeSchema::analyze(&schema).unwrap(), &spec);
        assert!(d.contains("bloom-probe"));
        assert!(d.contains("HIDDEN"));
    }

    #[test]
    fn skt_is_read_only_when_the_plan_reaches_another_table() {
        let (schema, spec) = setup();
        let tree = TreeSchema::analyze(&schema).unwrap();
        let vis = schema.resolve_table("Visit").unwrap();
        let pre = schema.resolve_table("Prescription").unwrap();
        assert_eq!(spec.anchor, pre);
        let plan = |post: Vec<PostStep>| Plan {
            sources: vec![Source::HiddenIndexClimb { pred: 1 }],
            post,
            label: "p".into(),
        };
        // Sources already yield anchor ids: both predicates pre-filtered
        // and nothing projected leaves the SKT closed.
        let pre_only = Plan {
            sources: vec![
                Source::HiddenIndexClimb { pred: 1 },
                Source::VisibleDelegate { pred: 0 },
            ],
            post: vec![],
            label: "pre".into(),
        };
        assert!(!pre_only.reads_skt(&spec, &tree));
        // A post step on Visit needs each row's VisID.
        assert!(plan(vec![PostStep::BloomVisible { pred: 0 }]).reads_skt(&spec, &tree));
        // So does a projected Visit column...
        let mut wide = spec.clone();
        wide.projections = vec![schema.resolve_column(vis, "Date").unwrap()];
        assert!(pre_only.reads_skt(&wide, &tree));
        // ...but not the anchor's own key or foreign-key columns.
        let mut own = spec.clone();
        own.projections = vec![
            schema.resolve_column(pre, "PreID").unwrap(),
            schema.resolve_column(pre, "VisID").unwrap(),
        ];
        assert!(!pre_only.reads_skt(&own, &tree));
        // A leaf anchor has no SKT, whatever the plan.
        let mut leaf = spec.clone();
        leaf.anchor = vis;
        leaf.projections = vec![schema.resolve_column(vis, "Date").unwrap()];
        assert!(!plan(vec![PostStep::BloomVisible { pred: 0 }]).reads_skt(&leaf, &tree));
    }

    #[test]
    fn uncovered_predicate_rejected() {
        let (schema, spec) = setup();
        let plan = Plan {
            sources: vec![Source::HiddenIndexClimb { pred: 1 }],
            post: vec![],
            label: "bad".into(),
        };
        let err = plan.validate(&schema, &spec).unwrap_err();
        assert!(err.to_string().contains("covered 0 times"));
    }

    #[test]
    fn double_covered_predicate_rejected() {
        let (schema, spec) = setup();
        let plan = Plan {
            sources: vec![
                Source::VisibleDelegate { pred: 0 },
                Source::HiddenIndexClimb { pred: 1 },
            ],
            post: vec![PostStep::BloomVisible { pred: 0 }],
            label: "bad".into(),
        };
        assert!(plan.validate(&schema, &spec).is_err());
    }

    #[test]
    fn leaking_shapes_rejected() {
        let (schema, spec) = setup();
        // Delegating the hidden predicate would send "Purpose = x" to the PC.
        let plan = Plan {
            sources: vec![
                Source::VisibleDelegate { pred: 1 },
                Source::VisibleDelegate { pred: 0 },
            ],
            post: vec![],
            label: "leak".into(),
        };
        let err = plan.validate(&schema, &spec).unwrap_err();
        assert!(err.to_string().contains("leak"));
        // Bloom post-filter of a hidden predicate likewise.
        let plan = Plan {
            sources: vec![Source::VisibleDelegate { pred: 0 }],
            post: vec![PostStep::BloomVisible { pred: 1 }],
            label: "leak2".into(),
        };
        assert!(plan.validate(&schema, &spec).is_err());
    }

    #[test]
    fn cross_group_membership_checked() {
        let (schema, spec) = setup();
        let vis = schema.resolve_table("Visit").unwrap();
        let good = Plan {
            sources: vec![Source::CrossGroup {
                table: vis,
                hidden: vec![1],
                visible: vec![0],
            }],
            post: vec![],
            label: "X".into(),
        };
        good.validate(&schema, &spec).unwrap();
        let bad = Plan {
            sources: vec![Source::CrossGroup {
                table: vis,
                hidden: vec![0], // 0 is visible
                visible: vec![1],
            }],
            post: vec![],
            label: "X".into(),
        };
        assert!(bad.validate(&schema, &spec).is_err());
    }
}
