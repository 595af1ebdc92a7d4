//! The device-side plan executor: a **block-at-a-time pull pipeline**
//! with O(pages) device RAM.
//!
//! The unit of exchange on the hot path is an [`IdBlock`] (up to
//! [`BLOCK_CAP`](ghostdb_types::BLOCK_CAP) ids), not a single id: each
//! stage moves a block per virtual call, and clock/stat charges are
//! accumulated per block instead of per id. Stages:
//!
//! 1. **Prologue** — for every Bloom post-filter and every projected
//!    visible column, fetch the (predicate-filtered) column from the PC
//!    once into a flash temp. Bloom filters fill from the same transfer,
//!    buffered into batches and inserted via
//!    [`BlockedBloomFilter::insert_batch`] with one clock charge per
//!    batch.
//! 2. **Sources** — each pre-filtering source yields an ascending
//!    anchor-id stream (climbing probe, delegate+translate, scan, or
//!    cross-filter group). Posting streams serve whole blocks with
//!    chunked flash reads.
//! 3. **Merge** — sources are merge-intersected by the galloping
//!    [`MergeIntersect`]: the pivot advances via
//!    [`seek_at_least`](IdStream::seek_at_least), which binary-searches
//!    fixed-width posting lists on flash instead of pulling one id per
//!    virtual call, and the CPU clock is charged once per output block.
//! 4. **SKT access** — candidate blocks fill a RAM-budget-sized batch of
//!    Subtree Key Table rows (page-batched fetches). The SKT is read only
//!    when the plan reaches another table ([`Plan::reads_skt`]): a plan
//!    whose projections and post steps name only the anchor's columns
//!    batches the candidate ids themselves as one-column rows
//!    (`anchor-rows`), as a leaf anchor always does.
//! 5. **Post steps** — Bloom probes run over the whole batch
//!    ([`BlockedBloomFilter::probe_batch`]: one cache-line touch per
//!    probe, one clock charge per batch), positives are confirmed
//!    exactly against the flash temps in one sequential merge-scan, and
//!    hidden verifies drop the rest.
//! 6. **Project** — hidden attributes read from the hidden store,
//!    visible attributes probed from the flash temps; rows stream out.
//! 7. **Epilogue** (analytic queries only) — aggregates, `GROUP BY`,
//!    `ORDER BY` and `LIMIT` fold the projected rows device-side
//!    through [`crate::Epilogue`] before the result is sealed, so
//!    hidden aggregate operands never reach the bus; plain SPJ queries
//!    skip this stage entirely and keep the seed's operator list. A
//!    bare `LIMIT` saturates the epilogue and stops the candidate pull
//!    early.
//!
//! Every stage records the demo's per-operator statistics (tuples, RAM,
//! simulated time). [`PipelineMode::Scalar`] re-runs the same plan with
//! the seed's id-at-a-time operators (the default `IdStream` method
//! bodies); both modes must produce byte-identical results and identical
//! tuple counts — `tests/properties.rs` proves it on random plans.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ghostdb_bloom::BlockedBloomFilter;
use ghostdb_catalog::{ColumnRole, Predicate, Schema, TreeSchema};
use ghostdb_flash::Volume;
use ghostdb_index::{IndexSet, TRANSLATE_SORT_RAM};
use ghostdb_ram::{RamBudget, RamScope};
use ghostdb_storage::{HiddenStore, KeyRange};
use ghostdb_types::{
    ColumnId, DeviceConfig, GhostError, IdBlock, IdStream, LiveFilter, Result, RowId,
    ScalarFallback, SimClock, TableId, Value, BLOCK_CAP,
};

use crate::agg::Epilogue;
use crate::ops::{FullScanSource, MergeIntersect, ScalarMergeIntersect};
use crate::pc::PcLink;
use crate::plan::{Plan, PostStep, Source};
use crate::query::QuerySpec;
use crate::stats::{ExecReport, OpStats, ResultSet};
use crate::temp::{IdTemp, TempProber, VisibleTemp};

/// Which operator implementations the executor wires together.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PipelineMode {
    /// Block-at-a-time pull with galloping merges and batched Bloom
    /// charges (the production path).
    #[default]
    Blocked,
    /// The seed's id-at-a-time operators, kept as the correctness foil
    /// and benchmark baseline: every stream is forced through the
    /// default scalar `IdStream` methods.
    Scalar,
}

/// Everything the executor needs about one device + PC pairing.
pub struct ExecContext<'a> {
    /// The schema.
    pub schema: &'a Schema,
    /// Tree analysis of the schema.
    pub tree: &'a TreeSchema,
    /// Hardware model.
    pub config: &'a DeviceConfig,
    /// The device clock (shared with flash and bus).
    pub clock: SimClock,
    /// Device flash volume.
    pub volume: &'a Volume,
    /// Device RAM budget.
    pub ram: &'a RamBudget,
    /// Hidden column store.
    pub hidden: &'a HiddenStore,
    /// SKTs and climbing indexes.
    pub indexes: &'a IndexSet,
    /// Handle to the untrusted PC.
    pub pc: &'a dyn PcLink,
    /// Operator implementation choice (blocked unless a verification
    /// pass asks for the scalar foil).
    pub pipeline: PipelineMode,
}

impl ExecContext<'_> {
    fn sort_ram(&self) -> usize {
        (self.ram.available() / 4).clamp(1024, TRANSLATE_SORT_RAM)
    }

    fn bloom_ram(&self) -> usize {
        (self.ram.available() / 4).clamp(512, 8 * 1024)
    }

    fn pred_str(&self, p: &Predicate) -> String {
        format!("{} {} {}", self.schema.column_name(p.column), p.op, p.value)
    }
}

/// Shared instrumentation for a boxed stream.
#[derive(Debug, Default)]
struct StreamMeter {
    ns: AtomicU64,
    out: AtomicU64,
    /// Blocks pulled through `next_block`.
    blocks: AtomicU64,
    /// `seek_at_least` calls (the merge's gallops into this stream).
    seeks: AtomicU64,
}

/// Instrumented id stream: measures simulated time spent inside (its own
/// work plus upstream flash/bus pulls) and counts emitted ids.
struct Timed<'a> {
    inner: Box<dyn IdStream + 'a>,
    clock: SimClock,
    meter: Arc<StreamMeter>,
}

impl IdStream for Timed<'_> {
    fn next_id(&mut self) -> Result<Option<RowId>> {
        let t0 = self.clock.now();
        let r = self.inner.next_id();
        self.meter
            .ns
            .fetch_add(self.clock.now().since(t0), Ordering::Relaxed);
        if let Ok(Some(_)) = r {
            self.meter.out.fetch_add(1, Ordering::Relaxed);
        }
        r
    }

    fn next_block(&mut self, block: &mut IdBlock) -> Result<()> {
        let t0 = self.clock.now();
        let r = self.inner.next_block(block);
        self.meter
            .ns
            .fetch_add(self.clock.now().since(t0), Ordering::Relaxed);
        if r.is_ok() {
            self.meter.blocks.fetch_add(1, Ordering::Relaxed);
            self.meter
                .out
                .fetch_add(block.len() as u64, Ordering::Relaxed);
        }
        r
    }

    fn seek_at_least(&mut self, target: RowId) -> Result<Option<RowId>> {
        // Forward so galloping reaches the wrapped stream; the merge
        // above us owns the tuple accounting for skipped ids.
        self.meter.seeks.fetch_add(1, Ordering::Relaxed);
        let t0 = self.clock.now();
        let r = self.inner.seek_at_least(target);
        self.meter
            .ns
            .fetch_add(self.clock.now().since(t0), Ordering::Relaxed);
        if let Ok(Some(_)) = r {
            self.meter.out.fetch_add(1, Ordering::Relaxed);
        }
        r
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

struct BuiltSource<'a> {
    stream: Box<dyn IdStream + 'a>,
    meter: Arc<StreamMeter>,
    stats: OpStats,
}

/// Feeds ids into a Bloom filter in [`BLOCK_CAP`] batches: one
/// `insert_batch` and one hash-cost clock charge per batch instead of
/// per id. All three executor fill sites share this. Callers must
/// [`flush`](Self::flush) after the last id.
struct BatchedBloomFill<'b> {
    bloom: &'b mut BlockedBloomFilter,
    clock: SimClock,
    /// Clock cost per inserted key (`hash_ns * k`).
    key_ns: u64,
    pending: Vec<u64>,
}

impl<'b> BatchedBloomFill<'b> {
    fn new(bloom: &'b mut BlockedBloomFilter, clock: SimClock, hash_ns: u64) -> Self {
        let key_ns = hash_ns * bloom.k() as u64;
        BatchedBloomFill {
            bloom,
            clock,
            key_ns,
            pending: Vec::with_capacity(BLOCK_CAP),
        }
    }

    fn push(&mut self, key: u64) {
        self.pending.push(key);
        if self.pending.len() == BLOCK_CAP {
            self.flush();
        }
    }

    fn flush(&mut self) {
        self.bloom.insert_batch(&self.pending);
        self.clock.advance(self.key_ns * self.pending.len() as u64);
        self.pending.clear();
    }
}

/// The merge operator for the context's pipeline mode.
fn make_merge<'a>(
    ctx: &ExecContext<'_>,
    inputs: Vec<Box<dyn IdStream + 'a>>,
) -> Box<dyn IdStream + 'a> {
    match ctx.pipeline {
        PipelineMode::Blocked => Box::new(MergeIntersect::new(
            inputs,
            ctx.clock.clone(),
            ctx.config.cpu.tuple_op_ns,
        )),
        PipelineMode::Scalar => Box::new(ScalarMergeIntersect::new(
            inputs,
            ctx.clock.clone(),
            ctx.config.cpu.tuple_op_ns,
        )),
    }
}

/// Execute `plan` for `spec` and return results plus the report.
pub fn execute(
    ctx: &ExecContext<'_>,
    spec: &QuerySpec,
    plan: &Plan,
) -> Result<(ResultSet, ExecReport)> {
    plan.validate(ctx.schema, spec)?;
    ctx.ram.reset_peak();
    let t_start = ctx.clock.now();
    let flash_start = ctx.volume.nand().stats();
    let bus_start = ctx.pc.bus_stats();
    let mut report_ops: Vec<OpStats> = Vec::new();

    // The query text speaks the *logical* id space (dense primary keys
    // over live rows); stored data — flash segments, postings, the PC's
    // columns — lives in the *physical* space tombstones are defined
    // over. Translate every PK/FK predicate constant once, up front
    // (identity unless rows have been deleted since the last flush), and
    // use the translated set everywhere below.
    let preds: Vec<Predicate> = spec
        .predicates
        .iter()
        .map(|p| ctx.hidden.physical_predicate(ctx.schema, p))
        .collect();

    // ---- Prologue: fetch visible columns into flash temps ----
    // One visible predicate per table may restrict that table's fetches
    // (any conjunct is a sound filter).
    let filter_pred_of: BTreeMap<TableId, &Predicate> = {
        let mut m = BTreeMap::new();
        for p in &preds {
            if !ctx.schema.is_hidden(p.column) {
                m.entry(p.column.table).or_insert(p);
            }
        }
        m
    };

    let fetch_scope = RamScope::new(ctx.ram);
    let fetch_one = |cref: ghostdb_catalog::ColumnRef,
                     filter: Option<&Predicate>,
                     bloom: Option<&mut BlockedBloomFilter>|
     -> Result<(VisibleTemp, OpStats)> {
        let def = ctx.schema.column_def(cref);
        let t0 = ctx.clock.now();
        let mut pairs = ctx.pc.fetch_column(cref.table, cref.column, filter)?;
        let temp = match bloom {
            Some(b) => {
                let mut fill = BatchedBloomFill::new(b, ctx.clock.clone(), ctx.config.cpu.hash_ns);
                let temp = {
                    let mut hook = |id: RowId| fill.push(id.0 as u64);
                    VisibleTemp::build(
                        ctx.volume,
                        &fetch_scope,
                        def.ty,
                        pairs.as_mut(),
                        Some(&mut hook),
                    )?
                };
                fill.flush();
                temp
            }
            None => VisibleTemp::build(ctx.volume, &fetch_scope, def.ty, pairs.as_mut(), None)?,
        };
        let stats = OpStats {
            name: "fetch-column".into(),
            detail: format!(
                "{}{}",
                ctx.schema.column_name(cref),
                filter
                    .map(|p| format!(" where {}", ctx.pred_str(p)))
                    .unwrap_or_default()
            ),
            tuples_in: temp.len(),
            tuples_out: temp.len(),
            sim_ns: ctx.clock.now().since(t0),
            ram_peak: fetch_scope.peak(),
            attrs: Vec::new(),
        };
        Ok((temp, stats))
    };

    // Projection temps, keyed by column. Ordered maps: the temps are
    // probed and freed in key order, and the free order decides where
    // later pages land, so a hash map's per-process seed would make the
    // simulated clock vary between runs.
    let mut proj_temps: BTreeMap<(u16, u16), VisibleTemp> = BTreeMap::new();
    for cref in &spec.projections {
        let def = ctx.schema.column_def(*cref);
        if def.visibility.is_hidden() || matches!(def.role, ColumnRole::PrimaryKey) {
            continue;
        }
        let key = (cref.table.0, cref.column.0);
        if proj_temps.contains_key(&key) {
            continue;
        }
        let filter = filter_pred_of.get(&cref.table).copied();
        let (temp, stats) = fetch_one(*cref, filter, None)?;
        report_ops.push(stats);
        proj_temps.insert(key, temp);
    }

    // Bloom post-filters: filter + an exact-verify temp per predicate.
    struct BloomStep<'p> {
        pred: &'p Predicate,
        bloom: BlockedBloomFilter,
        /// Temp holding exactly the ids satisfying the predicate. Either
        /// shared with a projection temp (same filter) or private.
        verify: VerifySource,
        build_stats: OpStats,
    }
    enum VerifySource {
        /// A projection temp fetched with this very predicate as filter.
        Shared((u16, u16)),
        /// A private id-only temp (ids delegated via EvalPredicate).
        Own(usize),
    }
    let bloom_scope = RamScope::new(ctx.ram);
    let mut own_verify_temps: Vec<IdTemp> = Vec::new();
    let mut bloom_steps: Vec<BloomStep<'_>> = Vec::new();
    for step in &plan.post {
        let PostStep::BloomVisible { pred } = step else {
            continue;
        };
        let p = &preds[*pred];
        let n_est = ctx.hidden.row_count(p.column.table) as usize;
        let mut bloom =
            BlockedBloomFilter::within_ram(&bloom_scope, n_est.max(16), ctx.bloom_ram())?;
        let key = (p.column.table.0, p.column.column.0);
        let shared = proj_temps.contains_key(&key)
            && filter_pred_of.get(&p.column.table).copied() == Some(p);
        let t0 = ctx.clock.now();
        let verify;
        let inserted;
        if shared {
            // The projection temp already holds exactly the qualifying
            // ids; replay them into the bloom from flash (cheaper than a
            // second bus transfer).
            let temp = proj_temps.get(&key).expect("checked");
            let ids = temp_ids(temp, &bloom_scope)?;
            let mut fill =
                BatchedBloomFill::new(&mut bloom, ctx.clock.clone(), ctx.config.cpu.hash_ns);
            for id in &ids {
                fill.push(id.0 as u64);
            }
            fill.flush();
            inserted = ids.len() as u64;
            verify = VerifySource::Shared(key);
        } else {
            // Ids only: EvalPredicate is a far smaller transfer than
            // fetching (id, value) pairs, and membership is all the
            // verification needs.
            let mut ids = ctx.pc.eval_predicate(p)?;
            let mut fill =
                BatchedBloomFill::new(&mut bloom, ctx.clock.clone(), ctx.config.cpu.hash_ns);
            let temp = {
                let mut hook = |id: RowId| fill.push(id.0 as u64);
                IdTemp::build(ctx.volume, &fetch_scope, ids.as_mut(), Some(&mut hook))?
            };
            fill.flush();
            inserted = temp.len();
            own_verify_temps.push(temp);
            verify = VerifySource::Own(own_verify_temps.len() - 1);
        }
        let build_stats = OpStats {
            name: "bloom-build".into(),
            detail: format!(
                "{} ({} ids, {} B, fpr~{:.4})",
                ctx.pred_str(p),
                inserted,
                bloom.bytes(),
                bloom.estimated_fpr()
            ),
            tuples_in: inserted,
            tuples_out: inserted,
            sim_ns: ctx.clock.now().since(t0),
            ram_peak: bloom.bytes(),
            attrs: Vec::new(),
        };
        bloom_steps.push(BloomStep {
            pred: p,
            bloom,
            verify,
            build_stats,
        });
    }

    // Hidden verify steps: precompute key ranges.
    struct VerifyStep<'p> {
        pred: &'p Predicate,
        range: Option<KeyRange>,
        checked: u64,
        passed: u64,
        ns: u64,
    }
    let mut verify_steps: Vec<VerifyStep<'_>> = Vec::new();
    for step in &plan.post {
        if let PostStep::HiddenVerify { pred } = step {
            let p = &preds[*pred];
            let range = ctx
                .hidden
                .key_range(p.column.table, p.column.column, p.op, &p.value)?;
            verify_steps.push(VerifyStep {
                pred: p,
                range,
                checked: 0,
                passed: 0,
                ns: 0,
            });
        }
    }

    // Post steps run (and report) in the plan's declared order — the
    // same order the cost model estimates and the plan tree renders —
    // so a hidden verify placed before a Bloom probe really does shrink
    // that probe's batch.
    enum PostOp {
        /// Index into `bloom_steps`.
        Bloom(usize),
        /// Index into `verify_steps`.
        Verify(usize),
    }
    let post_order: Vec<PostOp> = {
        let (mut b, mut v) = (0usize, 0usize);
        plan.post
            .iter()
            .map(|s| match s {
                PostStep::BloomVisible { .. } => {
                    b += 1;
                    PostOp::Bloom(b - 1)
                }
                PostStep::HiddenVerify { .. } => {
                    v += 1;
                    PostOp::Verify(v - 1)
                }
            })
            .collect()
    };

    // ---- Sources ----
    let mut built: Vec<BuiltSource<'_>> = Vec::new();
    for source in &plan.sources {
        built.push(build_source(ctx, spec, &preds, source)?);
    }
    let anchor_rows = ctx.hidden.row_count(spec.anchor);
    let mut source_meta: Vec<(OpStats, Arc<StreamMeter>)> = Vec::new();
    let merge_meter = Arc::new(StreamMeter::default());
    let n_sources = built.len();
    let candidates_inner: Box<dyn IdStream + '_> = if built.is_empty() {
        Box::new(FullScanSource::new(anchor_rows))
    } else if built.len() == 1 {
        let s = built.pop().expect("one source");
        source_meta.push((s.stats, s.meter));
        s.stream
    } else {
        let mut inputs = Vec::new();
        for s in built {
            source_meta.push((s.stats, s.meter));
            inputs.push(s.stream);
        }
        make_merge(ctx, inputs)
    };
    // Tombstone-resident deletes: drop dead anchors block-at-a-time
    // before any SKT fetch. (RESTRICT semantics guarantee a live anchor
    // joins only live subtree rows, so this one choke point covers the
    // whole pipeline; a no-op while everything is live.)
    let anchor_live = ctx.hidden.liveness(spec.anchor);
    // When tombstones are in play, meter the stream *below* the live
    // filter too: drops = ids entering it minus ids surviving it.
    let live_meter: Option<Arc<StreamMeter>> = if anchor_live.all_live() {
        None
    } else {
        Some(Arc::new(StreamMeter::default()))
    };
    let candidates_inner: Box<dyn IdStream + '_> = match &live_meter {
        None => candidates_inner,
        Some(meter) => Box::new(LiveFilter::new(
            Box::new(Timed {
                inner: candidates_inner,
                clock: ctx.clock.clone(),
                meter: meter.clone(),
            }),
            anchor_live,
        )),
    };
    let mut candidates = Timed {
        inner: candidates_inner,
        clock: ctx.clock.clone(),
        meter: merge_meter.clone(),
    };

    // ---- SKT cursor (or the bare anchor ids when the plan reads no
    // other table) ----
    let skt_scope = RamScope::new(ctx.ram);
    let skt = if plan.reads_skt(spec, ctx.tree) {
        Some(ctx.indexes.skt(spec.anchor)?)
    } else {
        None
    };
    let mut cursor = match skt {
        Some(s) => Some(s.cursor(&skt_scope)?),
        None => None,
    };
    let col_of = |table: TableId| -> Result<usize> {
        match skt {
            Some(s) => s.column_of(table),
            None if table == spec.anchor => Ok(0),
            None => Err(GhostError::exec(
                "a plan without the SKT cannot reach other tables",
            )),
        }
    };

    // Precompute projection dispatch. Stored PK/FK values are physical
    // ids; results present the logical (live-rank) view, so key
    // projections carry the table whose liveness renumbers them.
    enum Proj {
        Pk {
            table: TableId,
            col: usize,
        },
        Hidden {
            table: TableId,
            column: ColumnId,
            col: usize,
            fk_target: Option<TableId>,
        },
        Visible {
            key: (u16, u16),
            col: usize,
            fk_target: Option<TableId>,
        },
    }
    let mut projs: Vec<Proj> = Vec::new();
    for cref in &spec.projections {
        let def = ctx.schema.column_def(*cref);
        let col = col_of(cref.table)?;
        let fk_target = match def.role {
            ColumnRole::ForeignKey(t) => Some(t),
            _ => None,
        };
        projs.push(match (&def.role, def.visibility.is_hidden()) {
            (ColumnRole::PrimaryKey, _) => Proj::Pk {
                table: cref.table,
                col,
            },
            (_, true) => Proj::Hidden {
                table: cref.table,
                column: cref.column,
                col,
                fk_target,
            },
            (_, false) => Proj::Visible {
                key: (cref.table.0, cref.column.0),
                col,
                fk_target,
            },
        });
    }
    // Present a stored (physical) key value in the logical space.
    let logical_key = |target: Option<TableId>, v: Value| -> Value {
        match (target, &v) {
            (Some(t), Value::Int(id)) if !ctx.hidden.liveness(t).all_live() => {
                Value::Int(ctx.hidden.live_rank(t, RowId(*id as u32)) as i64)
            }
            _ => v,
        }
    };

    // Probers over all temps.
    let probe_scope = RamScope::new(ctx.ram);
    let mut proj_probers: BTreeMap<(u16, u16), TempProber<'_>> = BTreeMap::new();
    for (key, temp) in &proj_temps {
        proj_probers.insert(*key, temp.prober(&probe_scope)?);
    }

    // ---- Stream candidates in RAM-sized batches ----
    //
    // Bloom positives are confirmed in bulk: the batch's member ids are
    // sorted in RAM and merged against ONE sequential scan of the temp,
    // instead of a per-candidate flash binary search — the difference
    // between O(batch · log n) page opens and O(temp pages) per batch.
    let n_cols = match skt {
        Some(s) => s.table_order().len(),
        None => 1,
    };
    let row_width = n_cols * std::mem::size_of::<RowId>();
    // Half the remaining RAM for the batch, keeping headroom for the
    // verification scans' page buffers; preallocated exactly so the
    // tracked vector never grows past its share.
    let page = ctx.volume.page_size();
    let batch_cap =
        ((ctx.ram.available() / 2).saturating_sub(2 * page) / row_width.max(1)).clamp(16, 8192);
    let batch_scope = RamScope::new(ctx.ram);
    let mut batch: ghostdb_ram::TrackedVec<RowId> =
        ghostdb_ram::TrackedVec::with_capacity(&batch_scope, batch_cap * n_cols)?;

    let mut skt_ns = 0u64;
    let mut skt_in = 0u64;
    // Per Bloom step: (probes, bloom hits, exact-confirmed, sim ns).
    let mut bloom_runtime = vec![(0u64, 0u64, 0u64, 0u64); bloom_steps.len()];
    let mut project_ns = 0u64;
    let mut rows_out = 0u64;
    let mut result = ResultSet {
        columns: spec.output_columns(ctx.schema),
        rows: Vec::new(),
    };
    // Analytic epilogue: present only when the query aggregates, groups,
    // orders or limits. `None` keeps the plain SPJ fast path (and its
    // exact operator list) untouched.
    let mut epilogue =
        Epilogue::for_spec(spec, ctx.clock.clone(), ctx.config.cpu.tuple_op_ns, ctx.ram)?;

    // Candidate ids arrive block-at-a-time; the block outlives one batch
    // (a batch may be smaller or larger than a block).
    let mut cand_block = IdBlock::new();
    let mut cand_pos = 0usize;
    // Scratch for the batched Bloom probes, reused across batches.
    let mut probe_keys: Vec<u64> = Vec::new();
    let mut probe_rows: Vec<usize> = Vec::new();
    let mut probe_hits: Vec<bool> = Vec::new();
    let mut exhausted = false;
    while !exhausted {
        // Phase 1: fill the batch with SKT rows (or bare anchor ids).
        batch.clear();
        let mut batch_rows = 0usize;
        while batch_rows < batch_cap {
            if cand_pos == cand_block.len() {
                candidates.next_block(&mut cand_block)?;
                cand_pos = 0;
                if cand_block.is_empty() {
                    exhausted = true;
                    break;
                }
            }
            let id = cand_block.as_slice()[cand_pos];
            cand_pos += 1;
            let t0 = ctx.clock.now();
            skt_in += 1;
            match cursor.as_mut() {
                Some(cur) => {
                    for rid in cur.fetch(id)?.ids {
                        batch.push(rid)?;
                    }
                }
                None => batch.push(id)?,
            }
            batch_rows += 1;
            skt_ns += ctx.clock.now().since(t0);
        }
        if batch_rows == 0 {
            break;
        }
        let rows = |b: &ghostdb_ram::TrackedVec<RowId>, i: usize| -> Vec<RowId> {
            b.as_slice()[i * n_cols..(i + 1) * n_cols].to_vec()
        };
        let mut alive = vec![true; batch_rows];

        // Phases 2+3: post steps in plan order. A Bloom step
        // batch-probes then batch-confirms; a hidden verify
        // random-reads each survivor.
        for post_op in &post_order {
            match *post_op {
                PostOp::Bloom(bi) => {
                    let b = &mut bloom_steps[bi];
                    let t0 = ctx.clock.now();
                    let member_col = col_of(b.pred.column.table)?;
                    // Gather the surviving members and probe them in one
                    // batch: one cache-line touch per key, one clock
                    // charge for all.
                    probe_keys.clear();
                    probe_rows.clear();
                    for (i, a) in alive.iter().enumerate() {
                        if *a {
                            probe_keys.push(batch.as_slice()[i * n_cols + member_col].0 as u64);
                            probe_rows.push(i);
                        }
                    }
                    bloom_runtime[bi].0 += probe_keys.len() as u64;
                    ctx.clock.advance(
                        ctx.config.cpu.hash_ns * b.bloom.k() as u64 * probe_keys.len() as u64,
                    );
                    b.bloom.probe_batch(&probe_keys, &mut probe_hits);
                    let mut positives: Vec<(RowId, usize)> = Vec::new();
                    for ((&key, &row), &hit) in probe_keys.iter().zip(&probe_rows).zip(&probe_hits)
                    {
                        if hit {
                            positives.push((RowId(key as u32), row));
                        } else {
                            alive[row] = false;
                        }
                    }
                    bloom_runtime[bi].1 += positives.len() as u64;
                    // Exact confirmation: one sequential scan of the temp
                    // per batch (skipped entirely when the Bloom filter
                    // cleared the whole batch), so false positives never
                    // reach results.
                    if !positives.is_empty() {
                        positives.sort_unstable();
                        ctx.clock
                            .advance(ctx.config.cpu.tuple_op_ns * positives.len() as u64);
                        let mut scan = match &b.verify {
                            VerifySource::Shared(key) => proj_temps
                                .get(key)
                                .ok_or_else(|| GhostError::exec("missing shared verify temp"))?
                                .id_scan(&probe_scope)?,
                            VerifySource::Own(i) => own_verify_temps[*i].scan(&probe_scope)?,
                        };
                        let mut current = scan.next_id()?;
                        for (member, i) in positives {
                            while let Some(t) = current {
                                if t >= member {
                                    break;
                                }
                                current = scan.next_id()?;
                            }
                            if current == Some(member) {
                                bloom_runtime[bi].2 += 1;
                            } else {
                                alive[i] = false;
                            }
                        }
                    }
                    bloom_runtime[bi].3 += ctx.clock.now().since(t0);
                }
                PostOp::Verify(vi) => {
                    let v = &mut verify_steps[vi];
                    let t0 = ctx.clock.now();
                    let member_col = col_of(v.pred.column.table)?;
                    for (i, a) in alive.iter_mut().enumerate() {
                        if !*a {
                            continue;
                        }
                        v.checked += 1;
                        let member = batch.as_slice()[i * n_cols + member_col];
                        ctx.clock.advance(ctx.config.cpu.tuple_op_ns);
                        // Base rows test their stored key against the
                        // precomputed range; delta rows compare values in
                        // RAM (exact even for delta-dictionary strings).
                        let pass = ctx.hidden.matches_at(
                            v.pred.column.table,
                            v.pred.column.column,
                            member,
                            v.pred.op,
                            &v.pred.value,
                            v.range,
                        )?;
                        if pass {
                            v.passed += 1;
                        } else {
                            *a = false;
                        }
                    }
                    v.ns += ctx.clock.now().since(t0);
                }
            }
        }

        // Phase 4: projection of survivors.
        't_project: for (i, a) in alive.iter().enumerate() {
            if !*a {
                continue;
            }
            let t0 = ctx.clock.now();
            let row_ids = rows(&batch, i);
            let mut row: Vec<Value> = Vec::with_capacity(projs.len());
            for p in &projs {
                ctx.clock.advance(ctx.config.cpu.tuple_op_ns);
                match p {
                    Proj::Pk { table, col } => row.push(Value::Int(
                        ctx.hidden.live_rank(*table, row_ids[*col]) as i64,
                    )),
                    Proj::Hidden {
                        table,
                        column,
                        col,
                        fk_target,
                    } => {
                        let v = ctx
                            .hidden
                            .value(&probe_scope, *table, *column, row_ids[*col])?;
                        row.push(logical_key(*fk_target, v));
                    }
                    Proj::Visible {
                        key,
                        col,
                        fk_target,
                    } => {
                        let prober = proj_probers
                            .get_mut(key)
                            .ok_or_else(|| GhostError::exec("missing projection temp"))?;
                        match prober.probe(row_ids[*col])? {
                            Some(v) => row.push(logical_key(*fk_target, v)),
                            None => {
                                // The fetch was filtered by a predicate
                                // this candidate fails — drop it
                                // (exactness net).
                                project_ns += ctx.clock.now().since(t0);
                                continue 't_project;
                            }
                        }
                    }
                }
            }
            project_ns += ctx.clock.now().since(t0);
            rows_out += 1;
            match epilogue.as_mut() {
                Some(epi) => {
                    if !epi.push(row)? {
                        // A bare LIMIT is satisfied — stop pulling.
                        exhausted = true;
                        break 't_project;
                    }
                }
                None => result.rows.push(row),
            }
        }
    }
    drop(batch);

    // ---- Assemble the report ----
    let total_gallops: u64 = source_meta
        .iter()
        .map(|(_, m)| m.seeks.load(Ordering::Relaxed))
        .sum();
    for (mut stats, meter) in source_meta {
        stats.sim_ns += meter.ns.load(Ordering::Relaxed);
        stats.tuples_out = meter.out.load(Ordering::Relaxed);
        stats.tuples_in = stats.tuples_out;
        stats.attrs = vec![
            ("blocks", meter.blocks.load(Ordering::Relaxed)),
            ("gallops", meter.seeks.load(Ordering::Relaxed)),
        ];
        report_ops.push(stats);
    }
    if n_sources > 1 {
        report_ops.push(OpStats {
            name: "merge-intersect".into(),
            detail: format!("{n_sources} source(s)"),
            tuples_in: merge_meter.out.load(Ordering::Relaxed),
            tuples_out: merge_meter.out.load(Ordering::Relaxed),
            sim_ns: merge_meter.ns.load(Ordering::Relaxed),
            ram_peak: 0,
            attrs: vec![
                ("blocks", merge_meter.blocks.load(Ordering::Relaxed)),
                ("gallops", total_gallops),
            ],
        });
    }
    let mut skt_attrs = vec![("blocks", merge_meter.blocks.load(Ordering::Relaxed))];
    if let Some(m) = &live_meter {
        let entered = m.out.load(Ordering::Relaxed);
        let survived = merge_meter.out.load(Ordering::Relaxed);
        skt_attrs.push(("live_drops", entered.saturating_sub(survived)));
    }
    report_ops.push(OpStats {
        name: if skt.is_some() {
            "access-skt"
        } else {
            "anchor-rows"
        }
        .into(),
        detail: ctx.schema.table(spec.anchor).name.clone(),
        tuples_in: skt_in,
        tuples_out: skt_in,
        sim_ns: skt_ns,
        ram_peak: skt_scope.peak(),
        attrs: skt_attrs,
    });
    for post_op in &post_order {
        match *post_op {
            PostOp::Bloom(bi) => {
                let b = &bloom_steps[bi];
                report_ops.push(b.build_stats.clone());
                let (probes, hits, confirmed, ns) = bloom_runtime[bi];
                report_ops.push(OpStats {
                    name: "bloom-probe".into(),
                    detail: ctx.pred_str(b.pred),
                    tuples_in: probes,
                    tuples_out: confirmed,
                    sim_ns: ns,
                    ram_peak: 0,
                    attrs: vec![("probes", probes), ("hits", hits), ("confirmed", confirmed)],
                });
            }
            PostOp::Verify(vi) => {
                let v = &verify_steps[vi];
                report_ops.push(OpStats {
                    name: "hidden-verify".into(),
                    detail: ctx.pred_str(v.pred),
                    tuples_in: v.checked,
                    tuples_out: v.passed,
                    sim_ns: v.ns,
                    ram_peak: 0,
                    attrs: Vec::new(),
                });
            }
        }
    }
    report_ops.push(OpStats {
        name: "project".into(),
        detail: result.columns.join(", "),
        tuples_in: rows_out,
        tuples_out: rows_out,
        sim_ns: project_ns,
        ram_peak: probe_scope.peak(),
        attrs: Vec::new(),
    });
    if let Some(epi) = epilogue {
        let (rows, epi_ops) = epi.finish()?;
        result.rows = rows;
        report_ops.extend(epi_ops);
    }

    drop(proj_probers);
    for temp in proj_temps.into_values() {
        temp.free()?;
    }
    for temp in own_verify_temps.into_iter() {
        temp.free()?;
    }

    let bus_end = ctx.pc.bus_stats();
    let report = ExecReport {
        plan_label: plan.label.clone(),
        ops: report_ops,
        total_ns: ctx.clock.now().since(t_start),
        ram_peak: ctx.ram.peak(),
        result_rows: result.rows.len() as u64,
        bus_bytes_to_device: bus_end.0 - bus_start.0,
        bus_bytes_to_pc: bus_end.1 - bus_start.1,
        flash: ctx.volume.nand().stats().since(&flash_start),
    };
    Ok((result, report))
}

/// Read back the stored ids of a temp (bloom rebuild path).
fn temp_ids(temp: &VisibleTemp, scope: &RamScope) -> Result<Vec<RowId>> {
    let mut prober = temp.prober(scope)?;
    let mut out = Vec::with_capacity(temp.len() as usize);
    for i in 0..temp.len() {
        out.push(prober.record_id(i)?);
    }
    Ok(out)
}

fn build_source<'a>(
    ctx: &'a ExecContext<'_>,
    spec: &QuerySpec,
    preds: &[Predicate],
    source: &Source,
) -> Result<BuiltSource<'a>> {
    let scope = RamScope::new(ctx.ram);
    let t0 = ctx.clock.now();
    let anchor = spec.anchor;
    let (stream, name, detail): (Box<dyn IdStream + 'a>, &str, String) = match source {
        Source::HiddenIndexClimb { pred } => {
            let p = &preds[*pred];
            let idx = ctx.indexes.value_index(p.column)?;
            // Base key range for the flash directory; the index's RAM
            // delta is matched by value inside lookup_pred, so rows
            // inserted after load (even with strings outside the base
            // dictionary) are found too.
            let range = ctx
                .hidden
                .key_range(p.column.table, p.column.column, p.op, &p.value)?;
            let stream: Box<dyn IdStream + 'a> =
                Box::new(idx.lookup_pred(&scope, p.op, &p.value, range, anchor, ctx.sort_ram())?);
            (stream, "climbing-index", ctx.pred_str(p))
        }
        Source::HiddenScanTranslate { pred } => {
            let p = &preds[*pred];
            // Delta-aware scan: flash base filtered through the key
            // range, RAM delta by value comparison.
            let mut scan = ctx.hidden.predicate_scan(
                &scope,
                p.column.table,
                p.column.column,
                p.op,
                &p.value,
            )?;
            // One comparison per tuple the scan actually examines (zero
            // base rows when the key range proves emptiness).
            ctx.clock
                .advance(ctx.config.cpu.tuple_op_ns * scan.planned_rows());
            let stream: Box<dyn IdStream + 'a> = if p.column.table == anchor {
                Box::new(scan)
            } else {
                let kidx = ctx.indexes.key_index(p.column.table)?;
                Box::new(kidx.translate(&scope, &mut scan, anchor, ctx.sort_ram())?)
            };
            (stream, "scan+translate", ctx.pred_str(p))
        }
        Source::VisibleDelegate { pred } => {
            let p = &preds[*pred];
            let mut delegated = ctx.pc.eval_predicate(p)?;
            let stream: Box<dyn IdStream + 'a> = if p.column.table == anchor {
                delegated
            } else {
                let kidx = ctx.indexes.key_index(p.column.table)?;
                Box::new(kidx.translate(&scope, delegated.as_mut(), anchor, ctx.sort_ram())?)
            };
            (stream, "delegate+translate", ctx.pred_str(p))
        }
        Source::CrossGroup {
            table,
            hidden,
            visible,
        } => {
            let mut level_streams: Vec<Box<dyn IdStream + 'a>> = Vec::new();
            for &i in hidden {
                let p = &preds[i];
                let idx = ctx.indexes.value_index(p.column)?;
                let range =
                    ctx.hidden
                        .key_range(p.column.table, p.column.column, p.op, &p.value)?;
                level_streams.push(Box::new(idx.lookup_pred(
                    &scope,
                    p.op,
                    &p.value,
                    range,
                    *table,
                    ctx.sort_ram(),
                )?));
            }
            for &i in visible {
                let p = &preds[i];
                level_streams.push(ctx.pc.eval_predicate(p)?);
            }
            let mut combined: Box<dyn IdStream + 'a> = if level_streams.len() == 1 {
                level_streams.pop().expect("one")
            } else {
                make_merge(ctx, level_streams)
            };
            let stream: Box<dyn IdStream + 'a> = if *table == anchor {
                combined
            } else {
                let kidx = ctx.indexes.key_index(*table)?;
                Box::new(kidx.translate(&scope, combined.as_mut(), anchor, ctx.sort_ram())?)
            };
            (
                stream,
                "cross-filter",
                format!(
                    "{} ({} hidden, {} visible)",
                    ctx.schema.table(*table).name,
                    hidden.len(),
                    visible.len()
                ),
            )
        }
    };
    let setup_ns = ctx.clock.now().since(t0);
    // The scalar foil: strip every stream down to id-at-a-time pulls.
    let stream: Box<dyn IdStream + 'a> = match ctx.pipeline {
        PipelineMode::Blocked => stream,
        PipelineMode::Scalar => Box::new(ScalarFallback(stream)),
    };
    let meter = Arc::new(StreamMeter::default());
    Ok(BuiltSource {
        stream: Box::new(Timed {
            inner: stream,
            clock: ctx.clock.clone(),
            meter: meter.clone(),
        }),
        meter,
        stats: OpStats {
            name: name.into(),
            detail,
            tuples_in: 0,
            tuples_out: 0,
            sim_ns: setup_ns,
            ram_peak: scope.peak(),
            attrs: Vec::new(),
        },
    })
}
