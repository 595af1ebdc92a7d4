//! The unified operator tree behind `EXPLAIN` and `EXPLAIN ANALYZE`.
//!
//! Both render the *same* node tree with the *same* operator names the
//! executor reports ([`crate::OpStats::name`]); `EXPLAIN` annotates it
//! with estimated cardinalities from [`CostModel::cardinalities`], and
//! `EXPLAIN ANALYZE` additionally grafts the actuals of one real
//! execution onto each node via [`attach_actuals`]. Because a single
//! builder produces the shape, the two outputs can never drift apart —
//! `tests/observability.rs` pins that with a golden skeleton test.

use ghostdb_catalog::{Schema, TreeSchema};

use crate::cost::PlanCardinalities;
use crate::plan::{Plan, PostStep, Source};
use crate::query::QuerySpec;
use crate::stats::ExecReport;

/// Actuals of one executed operator, grafted onto a [`PlanNode`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeActuals {
    /// Rows the operator emitted.
    pub rows: u64,
    /// Simulated time attributed to the operator, ns.
    pub sim_ns: u64,
    /// The operator's extra counters (blocks, gallops, probes, ...).
    pub attrs: Vec<(&'static str, u64)>,
}

/// One operator of the unified EXPLAIN / EXPLAIN ANALYZE tree. Names
/// match the executor's [`crate::OpStats`] names exactly, so actuals
/// attach by name in execution order.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanNode {
    /// Operator name (`project`, `bloom-probe`, `climbing-index`, ...).
    pub name: &'static str,
    /// Operand description (predicate, table, or column list).
    pub detail: String,
    /// Estimated output rows (absent when no cost model was supplied).
    pub est_rows: Option<f64>,
    /// Measured actuals (absent for plain EXPLAIN, and for operators
    /// the executor does not report, e.g. the implicit full scan).
    pub actual: Option<NodeActuals>,
    /// Upstream operators; post-order traversal is execution order.
    pub children: Vec<PlanNode>,
}

impl PlanNode {
    fn new(name: &'static str, detail: String, est_rows: Option<f64>) -> PlanNode {
        PlanNode {
            name,
            detail,
            est_rows,
            actual: None,
            children: Vec::new(),
        }
    }

    /// Depth-first search for a descendant (or self) by name.
    pub fn find(&self, name: &str) -> Option<&PlanNode> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }
}

/// Render one predicate with its visibility marker (the demo's plan
/// view convention; predicate constants are disclosed-by-design — the
/// query text itself crosses the spied bus).
fn pred_str(schema: &Schema, spec: &QuerySpec, i: usize) -> String {
    let p = &spec.predicates[i];
    let vis = if schema.is_hidden(p.column) {
        "HIDDEN"
    } else {
        "VISIBLE"
    };
    format!(
        "{} {} {} /*{}*/",
        schema.column_name(p.column),
        p.op,
        p.value,
        vis
    )
}

/// Build the operator tree for `plan`: `project` at the root, post
/// steps as a chain beneath it (last applied nearest the root), then
/// the SKT access (or `anchor-rows`, per [`Plan::reads_skt`]) fed by
/// the merged sources. Pass `cards` to annotate estimated
/// cardinalities; `None` leaves the shape bare.
pub fn plan_nodes(
    schema: &Schema,
    tree: &TreeSchema,
    spec: &QuerySpec,
    plan: &Plan,
    cards: Option<&PlanCardinalities>,
) -> PlanNode {
    let mut leaves: Vec<PlanNode> = Vec::new();
    for (i, s) in plan.sources.iter().enumerate() {
        let est = cards.map(|c| c.sources[i]);
        leaves.push(match s {
            Source::HiddenIndexClimb { pred } => {
                PlanNode::new("climbing-index", pred_str(schema, spec, *pred), est)
            }
            Source::HiddenScanTranslate { pred } => {
                PlanNode::new("scan+translate", pred_str(schema, spec, *pred), est)
            }
            Source::VisibleDelegate { pred } => {
                PlanNode::new("delegate+translate", pred_str(schema, spec, *pred), est)
            }
            Source::CrossGroup {
                table,
                hidden,
                visible,
            } => {
                let members: Vec<String> = hidden
                    .iter()
                    .chain(visible)
                    .map(|&i| pred_str(schema, spec, i))
                    .collect();
                PlanNode::new(
                    "cross-filter",
                    format!(
                        "at {}: {}",
                        schema.table(*table).name,
                        members.join(" AND ")
                    ),
                    est,
                )
            }
        });
    }
    let mut feed = if leaves.is_empty() {
        PlanNode::new(
            "full-anchor-scan",
            schema.table(spec.anchor).name.clone(),
            cards.map(|c| c.anchor_rows),
        )
    } else if leaves.len() == 1 {
        leaves.pop().expect("one source")
    } else {
        let mut merge = PlanNode::new(
            "merge-intersect",
            format!("{} source(s)", leaves.len()),
            cards.map(|c| c.candidates),
        );
        merge.children = leaves;
        merge
    };

    // SKT access (a plan that reads no other table streams the anchor's
    // own ids instead).
    let mut node = PlanNode::new(
        if plan.reads_skt(spec, tree) {
            "access-skt"
        } else {
            "anchor-rows"
        },
        schema.table(spec.anchor).name.clone(),
        cards.map(|c| c.candidates),
    );
    node.children.push(feed);
    feed = node;

    // Post steps chain upward: the first applied sits closest to the
    // SKT, the last applied feeds the projection.
    for (i, step) in plan.post.iter().enumerate() {
        let est = cards.map(|c| c.post[i]);
        let mut node = match step {
            PostStep::BloomVisible { pred } => {
                PlanNode::new("bloom-probe", pred_str(schema, spec, *pred), est)
            }
            PostStep::HiddenVerify { pred } => {
                PlanNode::new("hidden-verify", pred_str(schema, spec, *pred), est)
            }
        };
        node.children.push(feed);
        feed = node;
    }

    let mut root = PlanNode::new(
        "project",
        spec.output_columns(schema).join(", "),
        cards.map(|c| c.final_rows),
    );
    root.children.push(feed);
    root
}

/// Graft one execution's actuals onto the tree: a post-order traversal
/// of the nodes (execution order) is matched against the report's
/// operators (also execution order) by name, skipping report entries
/// the tree does not show (column fetches, Bloom builds, the analytic
/// epilogue). Nodes with no reported counterpart keep `actual: None`.
pub fn attach_actuals(root: &mut PlanNode, report: &ExecReport) {
    fn walk(node: &mut PlanNode, report: &ExecReport, pos: &mut usize) {
        for c in &mut node.children {
            walk(c, report, pos);
        }
        let mut scan = *pos;
        while scan < report.ops.len() && report.ops[scan].name != node.name {
            scan += 1;
        }
        if scan < report.ops.len() {
            let op = &report.ops[scan];
            node.actual = Some(NodeActuals {
                rows: op.tuples_out,
                sim_ns: op.sim_ns,
                attrs: op.attrs.clone(),
            });
            *pos = scan + 1;
        }
    }
    let mut pos = 0;
    walk(root, report, &mut pos);
}

/// Render the tree, one operator per line. The skeleton (names,
/// indentation) is identical whether or not estimates/actuals are
/// present; annotations ride in a trailing parenthesis.
pub fn render_plan(label: &str, root: &PlanNode) -> String {
    fn line(node: &PlanNode, out: &mut String, depth: usize) {
        out.push_str(&"  ".repeat(depth + 1));
        out.push_str(node.name);
        if !node.detail.is_empty() {
            out.push_str(&format!(" [{}]", node.detail));
        }
        let mut ann: Vec<String> = Vec::new();
        if let Some(est) = node.est_rows {
            ann.push(format!("est rows={est:.0}"));
        }
        if let Some(a) = &node.actual {
            ann.push(format!("actual rows={}", a.rows));
            ann.push(format!("time={}", ghostdb_types::format_ns(a.sim_ns)));
            for (k, v) in &a.attrs {
                ann.push(format!("{k}={v}"));
            }
        }
        if !ann.is_empty() {
            out.push_str(&format!("  ({})", ann.join(", ")));
        }
        out.push('\n');
        for c in &node.children {
            line(c, out, depth + 1);
        }
    }
    let mut out = format!("plan {label}\n");
    line(root, &mut out, 0);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::OpStats;

    fn node(name: &'static str, children: Vec<PlanNode>) -> PlanNode {
        PlanNode {
            name,
            detail: String::new(),
            est_rows: None,
            actual: None,
            children,
        }
    }

    #[test]
    fn actuals_attach_in_execution_order_skipping_unshown_ops() {
        // project <- bloom-probe <- access-skt <- merge <- [src, src]
        let tree = node(
            "project",
            vec![node(
                "bloom-probe",
                vec![node(
                    "access-skt",
                    vec![node(
                        "merge-intersect",
                        vec![
                            node("climbing-index", vec![]),
                            node("climbing-index", vec![]),
                        ],
                    )],
                )],
            )],
        );
        let op = |name: &str, out: u64| OpStats {
            name: name.into(),
            tuples_out: out,
            ..Default::default()
        };
        let report = ExecReport {
            ops: vec![
                op("fetch-column", 99), // prologue: not in the tree
                op("climbing-index", 10),
                op("climbing-index", 20),
                op("merge-intersect", 5),
                op("access-skt", 5),
                op("bloom-build", 99), // not in the tree
                op("bloom-probe", 3),
                op("project", 3),
            ],
            ..Default::default()
        };
        let mut tree = tree;
        attach_actuals(&mut tree, &report);
        let rows = |n: &str| tree.find(n).unwrap().actual.as_ref().map(|a| a.rows);
        assert_eq!(rows("project"), Some(3));
        assert_eq!(rows("bloom-probe"), Some(3));
        assert_eq!(rows("access-skt"), Some(5));
        assert_eq!(rows("merge-intersect"), Some(5));
        // The two sources got distinct actuals in plan order.
        let merge = tree.find("merge-intersect").unwrap();
        assert_eq!(merge.children[0].actual.as_ref().unwrap().rows, 10);
        assert_eq!(merge.children[1].actual.as_ref().unwrap().rows, 20);
    }

    #[test]
    fn render_skeleton_is_annotation_independent() {
        let mut bare = node("project", vec![node("access-skt", vec![])]);
        let rendered = render_plan("p", &bare);
        assert!(rendered.contains("plan p\n  project\n    access-skt\n"));
        bare.est_rows = Some(4.0);
        bare.actual = Some(NodeActuals {
            rows: 4,
            sim_ns: 1000,
            attrs: vec![("blocks", 2)],
        });
        let annotated = render_plan("p", &bare);
        assert!(annotated.contains("(est rows=4, actual rows=4, time="));
        assert!(annotated.contains("blocks=2"));
        // Stripping annotations recovers the bare skeleton.
        let strip = |s: &str| {
            s.lines()
                .map(|l| l.split("  (").next().unwrap_or(l).to_string())
                .collect::<Vec<_>>()
        };
        assert_eq!(strip(&annotated), strip(&rendered));
    }
}
