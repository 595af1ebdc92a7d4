//! The optimizer's cost model.
//!
//! Estimates simulated execution time from the same resources the
//! hardware model charges: flash page reads/programs, bus transfers and
//! CPU tuple operations. Selectivities come from the catalog's equi-depth
//! histograms (rebuilt at load and after every flush), including a
//! *joint* estimate for same-column range pairs — `x BETWEEN lo AND hi`
//! desugars to two conjuncts whose independence product badly
//! over-estimates on skewed data, so [`SchemaStats::range_selectivity`]
//! replaces it. Foreign keys are assumed uniformly distributed (true of
//! the synthetic workload, and the standard textbook assumption).
//!
//! The model intentionally mirrors the executor stage by stage so that
//! plan *rankings* are trustworthy even where absolute estimates drift —
//! which is all an optimizer needs, and exactly the skill the demo's
//! plan game tests in human visitors.

use ghostdb_catalog::{Predicate, Schema, SchemaStats, TreeSchema};
use ghostdb_types::{DataType, DeviceConfig};

use crate::plan::{Plan, PostStep, Source};
use crate::query::QuerySpec;

/// Estimated row counts at each pipeline stage of one plan, produced by
/// [`CostModel::cardinalities`] with exactly the selectivity math
/// [`CostModel::plan_cost`] charges — so EXPLAIN's estimates and the
/// optimizer's ranking can never disagree about row counts.
#[derive(Debug, Clone, Default)]
pub struct PlanCardinalities {
    /// Live rows of the anchor table (the full-scan cardinality).
    pub anchor_rows: f64,
    /// Estimated anchor ids emitted by each source, in plan order.
    pub sources: Vec<f64>,
    /// Estimated candidates entering the SKT access (after the merge
    /// intersection and the joint-range correction for pre-placed
    /// `BETWEEN` pairs).
    pub candidates: f64,
    /// Estimated rows surviving after each post step, in plan order.
    pub post: Vec<f64>,
    /// Estimated final result rows (all corrections applied).
    pub final_rows: f64,
}

/// Plan cost estimator.
#[derive(Debug, Clone)]
pub struct CostModel<'a> {
    schema: &'a Schema,
    tree: &'a TreeSchema,
    stats: &'a SchemaStats,
    config: &'a DeviceConfig,
}

impl<'a> CostModel<'a> {
    /// Build a cost model over the given catalog state.
    pub fn new(
        schema: &'a Schema,
        tree: &'a TreeSchema,
        stats: &'a SchemaStats,
        config: &'a DeviceConfig,
    ) -> Self {
        CostModel {
            schema,
            tree,
            stats,
            config,
        }
    }

    fn page(&self) -> f64 {
        self.config.flash.page_size as f64
    }

    /// Sequential read of `bytes` from flash.
    fn seq_read(&self, bytes: f64) -> f64 {
        (bytes / self.page()).ceil().max(0.0)
            * self.config.flash.read_cost_ns(self.config.flash.page_size) as f64
    }

    /// Sequential write of `bytes` to flash.
    fn seq_write(&self, bytes: f64) -> f64 {
        (bytes / self.page()).ceil().max(0.0)
            * self
                .config
                .flash
                .program_cost_ns(self.config.flash.page_size) as f64
    }

    /// One random read of `bytes` within a page.
    fn rand_read(&self, bytes: usize) -> f64 {
        self.config.flash.read_cost_ns(bytes) as f64
    }

    /// Bus transfer of `bytes`.
    fn bus(&self, bytes: f64) -> f64 {
        self.config.bus.transfer_cost_ns(bytes.max(0.0) as usize) as f64
    }

    fn cpu(&self, tuples: f64) -> f64 {
        tuples * self.config.cpu.tuple_op_ns as f64
    }

    fn hash(&self, n: f64) -> f64 {
        n * self.config.cpu.hash_ns as f64
    }

    /// Selectivity of one predicate.
    pub fn selectivity(&self, p: &Predicate) -> f64 {
        self.stats
            .selectivity(p.column, p.op, &p.value)
            .clamp(1e-9, 1.0)
    }

    fn rows(&self, t: ghostdb_types::TableId) -> f64 {
        self.stats.rows(t).max(1) as f64
    }

    /// Correction factor for same-column range pairs among the
    /// predicates at `idxs`: the histogram's joint selectivity over the
    /// independence product (1.0 when there is no such pair). A
    /// `BETWEEN` that desugared into `>= lo` and `<= hi` is the common
    /// producer of these pairs.
    fn range_pair_correction(&self, spec: &QuerySpec, idxs: &[usize]) -> f64 {
        use ghostdb_types::ScalarOp;
        let mut corr = 1.0;
        let mut used = vec![false; idxs.len()];
        for (a, &i) in idxs.iter().enumerate() {
            let lo = &spec.predicates[i];
            if used[a] || !matches!(lo.op, ScalarOp::Ge | ScalarOp::Gt) {
                continue;
            }
            for (b, &j) in idxs.iter().enumerate() {
                let hi = &spec.predicates[j];
                if used[b]
                    || i == j
                    || hi.column != lo.column
                    || !matches!(hi.op, ScalarOp::Le | ScalarOp::Lt)
                {
                    continue;
                }
                let joint = self
                    .stats
                    .range_selectivity(lo.column, lo.op, &lo.value, hi.op, &hi.value)
                    .clamp(1e-9, 1.0);
                let product = self.selectivity(lo) * self.selectivity(hi);
                corr *= joint / product.max(1e-12);
                used[a] = true;
                used[b] = true;
                break;
            }
        }
        corr
    }

    fn pred_indices(plan: &Plan) -> (Vec<usize>, Vec<usize>) {
        let mut pre = Vec::new();
        for s in &plan.sources {
            match s {
                Source::HiddenIndexClimb { pred }
                | Source::HiddenScanTranslate { pred }
                | Source::VisibleDelegate { pred } => pre.push(*pred),
                Source::CrossGroup {
                    hidden, visible, ..
                } => {
                    pre.extend(hidden.iter().copied());
                    pre.extend(visible.iter().copied());
                }
            }
        }
        let mut post = Vec::new();
        for s in &plan.post {
            match s {
                PostStep::BloomVisible { pred } | PostStep::HiddenVerify { pred } => {
                    post.push(*pred)
                }
            }
        }
        (pre, post)
    }

    /// Sort cost for `bytes` through the external sorter (spill-aware).
    fn sort(&self, bytes: f64, sort_ram: f64) -> f64 {
        if bytes <= sort_ram {
            return self.cpu(bytes / 4.0); // in-RAM sort compares
        }
        // One spill pass + one merge pass (multi-pass rare at our sizes).
        self.seq_write(bytes) + self.seq_read(bytes) + self.cpu(bytes / 4.0)
    }

    /// Value width of a column in temp encoding.
    fn value_width(&self, cref: ghostdb_catalog::ColumnRef) -> f64 {
        match self.schema.column_def(cref).ty {
            DataType::Integer | DataType::Date => 8.0,
            DataType::Char(n) => 2.0 + n as f64,
        }
    }

    /// Cost of translating `in_ids` ids of table `t` to `out_ids` anchor
    /// ids through the dense key index.
    ///
    /// The executor's directory cursor buffers one flash page and the
    /// input ids ascend, so directory cost is bounded by the *pages
    /// touched*, not the id count.
    fn translate(&self, t: ghostdb_types::TableId, in_ids: f64, out_ids: f64, levels: f64) -> f64 {
        let entry_w = 8.0 + levels * 8.0;
        let dir_pages = (self.rows(t) * entry_w / self.page()).ceil().max(1.0);
        let touched = dir_pages.min(in_ids);
        let dir = touched * self.rand_read(self.config.flash.page_size);
        let postings = self.seq_read(out_ids * 4.0);
        dir + postings + self.sort(out_ids * 4.0, 16.0 * 1024.0) + self.cpu(in_ids + out_ids)
    }

    fn source_cost(&self, spec: &QuerySpec, source: &Source) -> (f64, f64) {
        // Returns (cost_ns, anchor_selectivity_of_source).
        let anchor_rows = self.rows(spec.anchor);
        match source {
            Source::HiddenIndexClimb { pred } => {
                let p = &spec.predicates[*pred];
                let sel = self.selectivity(p);
                let distinct = self
                    .stats
                    .column(p.column)
                    .map(|c| c.distinct.max(1))
                    .unwrap_or(100) as f64;
                let out = sel * anchor_rows;
                let entries_touched = (sel * distinct).max(1.0);
                let entry_w = 8.0; // key probe reads
                let dir =
                    (distinct.log2().max(1.0) + entries_touched) * self.rand_read(entry_w as usize);
                let postings = self.seq_read(out * 4.0);
                let union = if entries_touched > 1.5 {
                    self.sort(out * 4.0, 16.0 * 1024.0)
                } else {
                    0.0
                };
                (dir + postings + union + self.cpu(out), sel)
            }
            Source::HiddenScanTranslate { pred } => {
                let p = &spec.predicates[*pred];
                let sel = self.selectivity(p);
                let t_rows = self.rows(p.column.table);
                let width = match self.schema.column_def(p.column).ty {
                    DataType::Char(_) => 4.0,
                    _ => 8.0,
                };
                let scan = self.seq_read(t_rows * width) + self.cpu(t_rows);
                let out = sel * anchor_rows;
                let trans = if p.column.table == spec.anchor {
                    0.0
                } else {
                    self.translate(p.column.table, sel * t_rows, out, 2.0)
                };
                (scan + trans, sel)
            }
            Source::VisibleDelegate { pred } => {
                let p = &spec.predicates[*pred];
                let sel = self.selectivity(p);
                let t_rows = self.rows(p.column.table);
                let ids_in = sel * t_rows;
                let bus = self.bus(ids_in * 4.0);
                let out = sel * anchor_rows;
                let trans = if p.column.table == spec.anchor {
                    0.0
                } else {
                    self.translate(p.column.table, ids_in, out, 2.0)
                };
                (bus + trans + self.cpu(ids_in), sel)
            }
            Source::CrossGroup {
                table,
                hidden,
                visible,
            } => {
                let t_rows = self.rows(*table);
                let mut cost = 0.0;
                let mut sel = 1.0;
                for &i in hidden {
                    let p = &spec.predicates[i];
                    let s = self.selectivity(p);
                    sel *= s;
                    cost += self.seq_read(s * t_rows * 4.0) + self.cpu(s * t_rows);
                }
                for &i in visible {
                    let p = &spec.predicates[i];
                    let s = self.selectivity(p);
                    sel *= s;
                    cost += self.bus(s * t_rows * 4.0) + self.cpu(s * t_rows);
                }
                let combined = sel * t_rows;
                let out = sel * self.rows(spec.anchor);
                let trans = if *table == spec.anchor {
                    0.0
                } else {
                    self.translate(*table, combined, out, 2.0)
                };
                (cost + trans, sel)
            }
        }
    }

    /// Estimated per-stage row counts for `plan` — the numbers EXPLAIN
    /// and EXPLAIN ANALYZE annotate operators with. The math mirrors
    /// [`plan_cost`](Self::plan_cost) stage by stage: per-source anchor
    /// selectivities, the joint-range correction on pre-placed pairs,
    /// per-post-step selectivities, and the residual correction folded
    /// into the final estimate.
    pub fn cardinalities(&self, spec: &QuerySpec, plan: &Plan) -> PlanCardinalities {
        let anchor_rows = self.rows(spec.anchor);
        let mut sources = Vec::with_capacity(plan.sources.len());
        let mut pre_sel = 1.0;
        for s in &plan.sources {
            let (_, sel) = self.source_cost(spec, s);
            sources.push(sel * anchor_rows);
            pre_sel *= sel;
        }
        let (pre_idx, _) = Self::pred_indices(plan);
        let corr_pre = self.range_pair_correction(spec, &pre_idx);
        pre_sel = (pre_sel * corr_pre).clamp(1e-9, 1.0);
        let candidates = (anchor_rows * pre_sel).max(0.0);
        let mut surviving = candidates;
        let mut post = Vec::with_capacity(plan.post.len());
        for step in &plan.post {
            surviving *= self.selectivity(&spec.predicates[step.pred()]);
            post.push(surviving);
        }
        let all_idx: Vec<usize> = (0..spec.predicates.len()).collect();
        let corr_all = self.range_pair_correction(spec, &all_idx);
        let final_rows = (surviving * (corr_all / corr_pre).clamp(1e-6, 1e6)).max(0.0);
        PlanCardinalities {
            anchor_rows,
            sources,
            candidates,
            post,
            final_rows,
        }
    }

    /// Estimated simulated nanoseconds for `plan`.
    pub fn plan_cost(&self, spec: &QuerySpec, plan: &Plan) -> f64 {
        let anchor_rows = self.rows(spec.anchor);
        let mut cost = 0.0;
        let mut pre_sel = 1.0;

        for s in &plan.sources {
            let (c, sel) = self.source_cost(spec, s);
            cost += c;
            pre_sel *= sel;
        }
        // Joint ranges: a BETWEEN pair filtered entirely pre-merge
        // shrinks the candidate set by its joint selectivity, not the
        // independence product.
        let (pre_idx, _) = Self::pred_indices(plan);
        let corr_pre = self.range_pair_correction(spec, &pre_idx);
        pre_sel = (pre_sel * corr_pre).clamp(1e-9, 1.0);
        let candidates = (anchor_rows * pre_sel).max(0.0);

        // SKT access: ascending candidates; page-batched. A row holds one
        // id per table of the anchor's subtree. Charged only when the
        // executor opens the SKT; otherwise the candidates are the rows.
        if plan.reads_skt(spec, self.tree) {
            let row_w = self.tree.subtree(spec.anchor).len() as f64 * 4.0;
            let skt_pages = anchor_rows * row_w / self.page();
            let dense_cost = self.seq_read(anchor_rows * row_w);
            let sparse_cost = candidates * self.rand_read(row_w as usize);
            cost += if candidates >= skt_pages {
                dense_cost
            } else {
                sparse_cost
            };
        }
        cost += self.cpu(candidates);

        // Post steps.
        let mut surviving = candidates;
        for step in &plan.post {
            match step {
                PostStep::BloomVisible { pred } => {
                    let p = &spec.predicates[*pred];
                    let sel = self.selectivity(p);
                    let t_rows = self.rows(p.column.table);
                    let matches = sel * t_rows;
                    // Verify-temp record width: shared with a projection
                    // fetch when the predicate column is projected,
                    // otherwise a private id-only temp (4 B records).
                    let shared = spec.projections.contains(&p.column);
                    let rec_w = if shared {
                        4.0 + self.value_width(p.column)
                    } else {
                        4.0
                    };
                    if shared {
                        // Replay the already-fetched temp into the bloom.
                        cost += self.seq_read(matches * rec_w) + self.hash(matches * 7.0);
                    } else {
                        // Ids only: delegate + temp write + hashes.
                        cost += self.bus(matches * 4.0)
                            + self.seq_write(matches * 4.0)
                            + self.hash(matches * 7.0);
                    }
                    // Probe: k hashes per candidate; positives binary
                    // search the temp.
                    let fpr = 0.01;
                    let positives = surviving * (sel + fpr);
                    cost += self.hash(surviving * 7.0)
                        + positives * matches.log2().max(1.0) * self.rand_read(rec_w as usize);
                    surviving *= sel;
                }
                PostStep::HiddenVerify { pred } => {
                    let p = &spec.predicates[*pred];
                    let sel = self.selectivity(p);
                    cost += surviving * self.rand_read(8) + self.cpu(surviving);
                    surviving *= sel;
                }
            }
        }

        // Projection: visible temps fetched up front, probed per row.
        for cref in &spec.projections {
            let def = self.schema.column_def(*cref);
            if matches!(def.role, ghostdb_catalog::ColumnRole::PrimaryKey) {
                continue;
            }
            if def.visibility.is_hidden() {
                let per_row = match def.ty {
                    DataType::Char(_) => self.rand_read(4) + 2.0 * self.rand_read(16),
                    _ => self.rand_read(8),
                };
                cost += surviving * per_row;
            } else {
                // Fetch once (unless a bloom step already fetched it).
                let already = plan.post.iter().any(|s| match s {
                    PostStep::BloomVisible { pred } => spec.predicates[*pred].column == *cref,
                    _ => false,
                });
                let t_rows = self.rows(cref.table);
                let filter_sel: f64 = spec
                    .predicates
                    .iter()
                    .filter(|p| !self.schema.is_hidden(p.column) && p.column.table == cref.table)
                    .map(|p| self.selectivity(p))
                    .next()
                    .unwrap_or(1.0);
                let fetched = t_rows * filter_sel;
                let vw = self.value_width(*cref);
                if !already {
                    cost += self.bus(fetched * (4.0 + vw)) + self.seq_write(fetched * (4.0 + vw));
                }
                cost += surviving * fetched.log2().max(1.0) * self.rand_read((4.0 + vw) as usize);
            }
        }
        // Range pairs split across pre and post stages (or both post)
        // still land on the joint row count once every conjunct has
        // run; fold the remaining correction into the final estimate.
        let all_idx: Vec<usize> = (0..spec.predicates.len()).collect();
        let corr_all = self.range_pair_correction(spec, &all_idx);
        surviving = (surviving * (corr_all / corr_pre).clamp(1e-6, 1e6)).max(0.0);

        // Analytic epilogue: fold each surviving row through the output
        // expressions, then sort whatever survives the fold. The terms
        // are identical across plans for one spec, but they keep the
        // absolute estimates honest against the executor.
        if spec.has_aggregates() || !spec.group_by.is_empty() {
            cost += self.cpu(surviving * spec.output.len().max(1) as f64);
        }
        if !spec.order_by.is_empty() {
            cost += self.cpu(surviving * surviving.max(2.0).log2());
        }
        cost + self.cpu(surviving)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghostdb_catalog::{ColumnStats, SchemaBuilder, TableStats, Visibility};
    use ghostdb_types::{ColumnId, ScalarOp, TableId, Value};

    fn setup() -> (Schema, TreeSchema, SchemaStats, DeviceConfig, QuerySpec) {
        let mut b = SchemaBuilder::new();
        b.table("Visit", "VisID")
            .column("Weight", DataType::Integer, Visibility::Visible)
            .column("Purpose", DataType::Char(20), Visibility::Hidden);
        b.table("Prescription", "PreID")
            .foreign_key("VisID", "Visit", Visibility::Hidden);
        let schema = b.build().unwrap();
        let tree = TreeSchema::analyze(&schema).unwrap();
        let mut stats = SchemaStats::empty(2);
        let weights: Vec<Value> = (0..1000).map(|i| Value::Int(i % 100)).collect();
        let purposes: Vec<Value> = (0..1000)
            .map(|i| Value::Text(format!("p{}", i % 50)))
            .collect();
        stats.tables[0] = TableStats {
            rows: 1000,
            columns: vec![
                None,
                Some(ColumnStats::build(&weights, 16)),
                Some(ColumnStats::build(&purposes, 16)),
            ],
        };
        stats.tables[1] = TableStats {
            rows: 10_000,
            columns: vec![None, None],
        };
        let vis = TableId(0);
        let pre = TableId(1);
        let spec = QuerySpec::bind(
            &schema,
            &tree,
            "...",
            vec![vis, pre],
            vec![],
            vec![
                Predicate::new(vis, ColumnId(1), ScalarOp::Lt, Value::Int(5)), // visible, ~5%
                Predicate::new(vis, ColumnId(2), ScalarOp::Eq, Value::Text("p1".into())), // hidden 2%
            ],
            vec![(
                schema.resolve_column(pre, "VisID").unwrap(),
                schema.resolve_column(vis, "VisID").unwrap(),
            )],
        )
        .unwrap();
        (schema, tree, stats, DeviceConfig::default_2007(), spec)
    }

    #[test]
    fn selective_climb_beats_full_scan_plan() {
        let (schema, tree, stats, config, spec) = setup();
        let m = CostModel::new(&schema, &tree, &stats, &config);
        let pre_plan = Plan {
            sources: vec![
                Source::HiddenIndexClimb { pred: 1 },
                Source::VisibleDelegate { pred: 0 },
            ],
            post: vec![],
            label: "pre".into(),
        };
        let lazy_plan = Plan {
            sources: vec![],
            post: vec![
                PostStep::HiddenVerify { pred: 1 },
                PostStep::BloomVisible { pred: 0 },
            ],
            label: "lazy".into(),
        };
        let c_pre = m.plan_cost(&spec, &pre_plan);
        let c_lazy = m.plan_cost(&spec, &lazy_plan);
        assert!(
            c_pre < c_lazy,
            "selective pre-filtering should win: {c_pre} vs {c_lazy}"
        );
    }

    #[test]
    fn unselective_visible_prefers_post() {
        let (schema, tree, mut stats, config, _) = setup();
        // A very unselective visible predicate (>= 0 matches all) at a
        // scale where translating its id list dwarfs per-candidate
        // probing: Visit 100k rows, Prescription 1M rows.
        stats.tables[0].rows = 100_000;
        if let Some(c) = stats.tables[0].columns[2].as_mut() {
            c.rows = 100_000;
            c.distinct = 1000; // hidden eq sel = 0.1%
        }
        if let Some(c) = stats.tables[0].columns[1].as_mut() {
            c.rows = 100_000;
        }
        stats.tables[1].rows = 1_000_000;
        let m = CostModel::new(&schema, &tree, &stats, &config);
        let vis = TableId(0);
        let pre = TableId(1);
        let spec = QuerySpec::bind(
            &schema,
            &tree,
            "...",
            vec![vis, pre],
            vec![],
            vec![
                Predicate::new(vis, ColumnId(1), ScalarOp::Ge, Value::Int(0)),
                Predicate::new(vis, ColumnId(2), ScalarOp::Eq, Value::Text("p1".into())),
            ],
            vec![(
                schema.resolve_column(pre, "VisID").unwrap(),
                schema.resolve_column(vis, "VisID").unwrap(),
            )],
        )
        .unwrap();
        let pre_plan = Plan {
            sources: vec![
                Source::HiddenIndexClimb { pred: 1 },
                Source::VisibleDelegate { pred: 0 },
            ],
            post: vec![],
            label: "pre".into(),
        };
        let post_plan = Plan {
            sources: vec![Source::HiddenIndexClimb { pred: 1 }],
            post: vec![PostStep::BloomVisible { pred: 0 }],
            label: "post".into(),
        };
        let c_pre = m.plan_cost(&spec, &pre_plan);
        let c_post = m.plan_cost(&spec, &post_plan);
        assert!(
            c_post < c_pre,
            "unselective visible predicate should post-filter: pre={c_pre} post={c_post}"
        );
    }

    #[test]
    fn between_pair_uses_joint_selectivity() {
        let (schema, tree, mut stats, config, _) = setup();
        // Skew the Weight column: 900 rows pinned at 7 plus a 0..100
        // tail. Independence badly over-estimates `BETWEEN 50 AND 60`.
        let vals: Vec<Value> = std::iter::repeat_n(Value::Int(7), 900)
            .chain((0..100i64).map(Value::Int))
            .collect();
        stats.tables[0].columns[1] = Some(ColumnStats::build(&vals, 16));
        let m = CostModel::new(&schema, &tree, &stats, &config);
        let vis = TableId(0);
        let spec = QuerySpec::bind(
            &schema,
            &tree,
            "...",
            vec![vis],
            vec![],
            vec![
                Predicate::new(vis, ColumnId(1), ScalarOp::Ge, Value::Int(50)),
                Predicate::new(vis, ColumnId(1), ScalarOp::Le, Value::Int(60)),
            ],
            vec![],
        )
        .unwrap();
        let corr = m.range_pair_correction(&spec, &[0, 1]);
        assert!(
            corr < 0.7,
            "joint estimate should shrink the independence product, got {corr}"
        );
        assert_eq!(
            m.range_pair_correction(&spec, &[0]),
            1.0,
            "a lone bound is not a pair"
        );
    }

    #[test]
    fn selectivity_passthrough() {
        let (schema, tree, stats, config, spec) = setup();
        let m = CostModel::new(&schema, &tree, &stats, &config);
        let s = m.selectivity(&spec.predicates[1]);
        assert!((s - 0.02).abs() < 0.001, "hidden eq sel {s}");
    }
}
