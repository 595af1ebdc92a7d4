//! The GhostDB facade: a complete instance of the paper's Figure 1.
//!
//! [`GhostDb`] wires together the three parties:
//!
//! * the **untrusted PC / public server** (a `VisibleStore` behind the
//!   [`BusPcLink`]) holding the visible columns,
//! * the **smart USB device** (flash volume + RAM budget + hidden store +
//!   indexes + executor),
//! * the **secure display** behind the bus's `present` path.
//!
//! Everything that crosses the PC ↔ device boundary moves through the
//! simulated bus and lands in the spy trace; query results leave only
//! through the secure display. The facade exposes the demo's three
//! phases: run queries (`query`), inspect and hand-build plans
//! (`plans`, `query_with_plan`, `explain`), and audit the spy's view
//! (`spy_report`, `spy_sees_value`). Every read method lives once, on
//! [`ReadState`], which both [`GhostDb`] (the writer) and [`Snapshot`]
//! (a concurrent read session) deref to.
//!
//! # Mutability: the post-load write path (full DML)
//!
//! The facade is no longer frozen at bulk load. [`GhostDb::execute`]
//! accepts `INSERT`, `DELETE` and `UPDATE` statements (and `SELECT`s)
//! after load. Inserts are validated against the live tree schema
//! (dense PK, FK range, types), their hidden halves appended to the
//! [`HiddenStore`]'s RAM delta, their visible halves pushed to the PC
//! over the bus (an `AppendVisible` frame — public data), and every
//! index maintained LSM-style through RAM deltas that queries union
//! with the flash base. A `DELETE`'s `WHERE` resolves to row ids
//! through the normal planner/executor, then flips bits in a per-table
//! tombstone set (referential integrity is RESTRICT); an `UPDATE`
//! overwrites cells through value-rewrite overlays and re-homes the
//! affected value-index postings. User-visible primary keys are the
//! dense *live-rank* view of the tombstone set (`Vec::remove`
//! semantics).
//!
//! All three mutations enter through the **device's secure port**, the
//! same trust path as the initial bulk load: the statement text is
//! never transmitted to the PC (an `UPDATE`'s new values or a
//! `DELETE`'s constants may name hidden values), so hidden data still
//! has no vehicle across the spied link — the spy sees only delegated
//! visible predicate evaluations and the row-identity effects
//! (`DeleteRows`, `UpdateVisible`, `CompactRows`). Once the combined
//! un-flushed mutation count reaches
//! [`DeviceConfig::delta_flush_rows`] the engine merges everything into
//! rebuilt flash segments ([`GhostDb::flush_deltas`]), physically
//! dropping tombstoned rows (survivors renumber, the PC compacts in
//! lockstep) and freeing the old segments for the flash GC to reclaim.
//!
//! # Durability: seal, mount, and the WAL
//!
//! [`GhostDb::seal`] makes the device state durable: deltas merge, a
//! CRC-checked image of the whole device (schema, statistics, segment
//! manifests, l2p table, PC snapshot) lands in the flash part's
//! reserved metadata slots, and from then on every insert batch is
//! write-ahead logged before it touches RAM. [`GhostDb::mount`] is the
//! payoff — and the paper's elevator pitch: unplug the key
//! ([`GhostDb::nand`] + drop), plug it elsewhere, and remount the
//! database from the NAND alone, unflushed inserts replayed
//! batch-atomically from the WAL. A delta flush on a sealed instance
//! re-seals under a fresh epoch. Crash consistency is enforced by the
//! volume (sealed pages are pinned until the superseding image is
//! durable) and proved by `tests/crash_recovery.rs`, which cuts power
//! at every program/erase boundary.
//!
//! [`HiddenStore`]: ghostdb_storage::HiddenStore

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod flight;
mod link;
mod read;
mod session;

use flight::CoreMetrics;
pub use link::BusPcLink;
pub use read::ReadState;
pub use session::{SessionRegistry, Snapshot};
use std::ops::Deref;
use std::sync::Arc;

use ghostdb_bus::{Bus, BusMetrics};
use ghostdb_catalog::{ColumnRef, ColumnRole, ColumnStats, Predicate, Schema, TreeSchema};
use ghostdb_exec::{execute, ExecReport, PipelineMode, QuerySpec, ResultSet};
use ghostdb_flash::{Nand, Volume, VolumeMetrics};
use ghostdb_index::IndexSet;
use ghostdb_obs::{MetricsSnapshot, Registry, TraceRecorder};
use ghostdb_persist::{DeviceImage, Wal};
use ghostdb_ram::{RamBudget, RamScope};
use std::collections::HashMap;

use ghostdb_sql::{
    bind_delete, bind_insert, bind_schema, bind_update, parse_statements, DeleteStmt, InsertStmt,
    Statement, UpdateStmt,
};
use ghostdb_storage::{split_dataset, validate_row, Dataset, HiddenStore, STATS_BUCKETS};
use ghostdb_types::{
    ColumnId, DataType, DeviceConfig, GhostError, Result, RowId, SimClock, TableId, Value, Wire,
};

/// Summary of the secure bulk load.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Rows loaded per table (in table-id order).
    pub rows: Vec<u64>,
    /// Flash bytes used by hidden columns + replicated keys.
    pub store_flash_bytes: u64,
    /// Flash bytes used by SKTs and climbing indexes (the paper's "extra
    /// cost in terms of Flash storage").
    pub index_flash_bytes: u64,
    /// Simulated time spent programming flash during the load.
    pub sim_ns: u64,
}

/// Result of one query execution.
#[derive(Debug)]
pub struct QueryOutcome {
    /// The result rows, as rendered on the secure display.
    pub rows: ResultSet,
    /// Per-operator statistics and totals.
    pub report: ExecReport,
}

/// Summary of one applied `INSERT`, `DELETE` or `UPDATE`.
#[derive(Debug, Clone)]
pub struct MutationReport {
    /// Table that was mutated.
    pub table: TableId,
    /// Rows appended / deleted / updated (for the latter two, the
    /// `WHERE` clause's match count).
    pub rows: u64,
    /// Whether this statement tripped the automatic delta flush (which
    /// physically compacts the tombstoned rows away).
    pub flushed: bool,
    /// Simulated time spent (validation, filter evaluation, flash/bus
    /// appends, WAL append, and the flush if one ran).
    pub sim_ns: u64,
}

/// Summary of one applied `INSERT`.
pub type InsertReport = MutationReport;

/// Outcome of one statement run through [`GhostDb::execute`].
#[derive(Debug)]
pub enum ExecOutcome {
    /// A `SELECT`'s rows and report.
    Query(QueryOutcome),
    /// An `INSERT`'s application summary.
    Insert(InsertReport),
    /// A `DELETE`'s application summary.
    Delete(MutationReport),
    /// An `UPDATE`'s application summary.
    Update(MutationReport),
    /// An `EXPLAIN ANALYZE`'s rendered plan, annotated with estimated
    /// vs. actual cardinalities (the query really ran).
    Explain(String),
}

/// Summary of one [`GhostDb::seal`].
#[derive(Debug, Clone)]
pub struct SealReport {
    /// The sealed image's epoch (monotonic; mount picks the highest
    /// valid one).
    pub epoch: u64,
    /// On-flash size of the image (superblock + metadata segments +
    /// l2p table), bytes.
    pub image_bytes: u64,
    /// Delta rows merged into flash before the image was written.
    pub merged_rows: u64,
    /// Simulated time the seal took (merge + erases + programs).
    pub sim_ns: u64,
}

/// Durability bookkeeping of a sealed (or mounted) instance.
struct DurableState {
    /// Epoch of the image currently on flash.
    epoch: u64,
    /// The write-ahead log, positioned after everything durable.
    wal: Wal,
    /// Size of the sealed image, bytes.
    image_bytes: u64,
    /// Metadata segments the image references.
    meta_segments: usize,
    /// Entries in the sealed l2p table.
    l2p_entries: usize,
}

/// How a batch reaches [`GhostDb::apply`].
#[derive(Clone, Copy, PartialEq)]
enum BatchOrigin {
    /// A live insert: WAL it first, honor the auto-flush threshold.
    Live,
    /// WAL replay during mount: already on flash, never re-logged, and
    /// the flush threshold waits for fresh traffic.
    Replay,
}

/// A loaded GhostDB instance (PC + device + display): the live
/// [`ReadState`] — every read method comes from it through `Deref` —
/// plus the writer's bookkeeping.
pub struct GhostDb {
    read: ReadState,
    /// `Some` once the instance has sealed (or was mounted): inserts are
    /// write-ahead logged and delta flushes re-seal.
    durable: Option<DurableState>,
    /// Commit epoch: bumped by every committed mutation statement and
    /// every delta flush. Snapshots are stamped with it; equal epochs
    /// mean identical logical state.
    epoch: u64,
    /// Open snapshot sessions (for `device_report()` and leak checks).
    sessions: Arc<SessionRegistry>,
    /// Engine-wide metrics registry; the bus, the flash volume and the
    /// core all register into it.
    registry: Registry,
}

impl Deref for GhostDb {
    type Target = ReadState;

    fn deref(&self) -> &ReadState {
        &self.read
    }
}

/// Effective page-cache capacity for a device configuration: the
/// [`FlashConfig::page_cache_pages`] knob, clamped so the mirror never
/// claims more than half of device RAM *and* the query operators keep
/// at least 12 KiB of working space (six raw page buffers) — tiny-RAM
/// sweep configurations degrade instead of failing at open.
///
/// [`FlashConfig::page_cache_pages`]: ghostdb_types::FlashConfig::page_cache_pages
fn page_cache_budget(config: &DeviceConfig) -> usize {
    let half = config.ram_bytes / 2;
    let floor = config.ram_bytes.saturating_sub(12 * 1024);
    config
        .flash
        .page_cache_pages
        .min(half.min(floor) / config.flash.page_size)
}

impl GhostDb {
    /// Create a database from `CREATE TABLE` DDL and bulk-load `data` in
    /// the secure setting.
    pub fn create(ddl: &str, config: DeviceConfig, data: &Dataset) -> Result<GhostDb> {
        let stmts = parse_statements(ddl)?;
        let schema = bind_schema(&stmts)?;
        Self::create_with_schema(schema, config, data)
    }

    /// Create from an already-built schema (programmatic path).
    pub fn create_with_schema(
        schema: Schema,
        config: DeviceConfig,
        data: &Dataset,
    ) -> Result<GhostDb> {
        let tree = TreeSchema::analyze(&schema)?;
        let clock = SimClock::new();
        let nand = Nand::new(config.flash.clone(), clock.clone());
        let reserved = config.flash.reserved_blocks();
        if reserved >= config.flash.num_blocks {
            return Err(GhostError::flash(format!(
                "flash volume full before load: the part's {} blocks cannot hold the \
                 {reserved}-block durability reserve (shrink meta_slot_blocks/wal_blocks, \
                 or set them to 0 to disable durability)",
                config.flash.num_blocks
            )));
        }
        let volume = Volume::with_reserved(nand, reserved);
        let ram = RamBudget::new(config.ram_bytes);
        // The page-cache mirror is a device-global structure: charged
        // once to the device budget, shared by the writer and every
        // snapshot reader for the life of the engine.
        volume.configure_page_cache(page_cache_budget(&config), &ram)?;
        let bus = Bus::new(config.bus.clone(), clock.clone());
        let registry = Registry::new();
        volume.attach_metrics(VolumeMetrics::new(&registry));
        bus.attach_metrics(BusMetrics::new(&registry));
        let metrics = Arc::new(CoreMetrics::new(&registry));

        let load_scope = RamScope::new(&ram);
        let (hidden, visible, stats, encoders) =
            split_dataset(&volume, &load_scope, &schema, data)?;
        let indexes = IndexSet::build(&volume, &load_scope, &schema, &tree, data, &encoders)?;
        let pc_link = BusPcLink::new(bus.clone(), visible);
        Ok(GhostDb {
            read: ReadState {
                schema: Arc::new(schema),
                tree: Arc::new(tree),
                config: Arc::new(config),
                clock,
                bus,
                volume,
                ram,
                hidden,
                indexes,
                stats,
                pc_link,
                recorder: TraceRecorder::new(),
                metrics,
            },
            durable: None,
            epoch: 0,
            sessions: SessionRegistry::new(),
            registry,
        })
    }

    /// Remount a device from its NAND part alone — no `Dataset`, no DDL:
    /// the sealed image provides the schema, statistics, segment
    /// manifests, and translation table, and the write-ahead log replays
    /// every insert batch committed after the seal. `config` supplies
    /// the host-side knobs (RAM budget, bus, CPU, flush threshold); its
    /// flash geometry must match the part the image was sealed on.
    pub fn mount(nand: Nand, config: DeviceConfig) -> Result<GhostDb> {
        // The page-cache capacity is a host-side policy knob, not part
        // geometry: the same sealed part may be mounted cache-off for
        // equivalence or A/B timing runs.
        let mut part = nand.config().clone();
        part.page_cache_pages = config.flash.page_cache_pages;
        if part != config.flash {
            return Err(GhostError::corrupt(
                "mount config flash geometry does not match the NAND part",
            ));
        }
        let loaded = ghostdb_persist::read_latest_image(&nand)?.ok_or_else(|| {
            GhostError::corrupt(
                "no valid sealed image on this part (never sealed, or both slots torn)",
            )
        })?;
        // The older slot stands in only for a seal that never finished.
        // A log page of a later epoch says the newer image did finish
        // and has since become unreadable: the pages only the older
        // image maps may have been reused, and the batches it lacks were
        // truncated from the log, so it must not mount.
        let opened = Wal::open(nand.clone(), loaded.epoch)?;
        if let Some(newer) = opened.superseded_by {
            return Err(GhostError::corrupt(format!(
                "the newest sealed image (epoch {newer}) is unreadable, and the surviving \
                 epoch-{} image it superseded no longer matches the part",
                loaded.epoch
            )));
        }
        let meta_segments = loaded.image.metadata_segment_count();
        let l2p_entries = loaded.image.l2p.len();
        let DeviceImage {
            schema,
            stats,
            hidden,
            indexes,
            visible,
            tombstones,
            l2p,
            bad_blocks,
        } = loaded.image;
        let reserved = config.flash.reserved_blocks();
        let volume = Volume::mount(nand.clone(), reserved, l2p, &bad_blocks)?;
        let registry = Registry::new();
        volume.attach_metrics(VolumeMetrics::new(&registry));
        let tree = TreeSchema::analyze(&schema)?;
        let mut hidden = HiddenStore::restore(&volume, &hidden)?;
        hidden.restore_liveness(&tombstones)?;
        let indexes = IndexSet::restore(&volume, &indexes)?;
        let clock = nand.clock().clone();
        let bus = Bus::new(config.bus.clone(), clock.clone());
        bus.attach_metrics(BusMetrics::new(&registry));
        let metrics = Arc::new(CoreMetrics::new(&registry));
        let ram = RamBudget::new(config.ram_bytes);
        // Sized from the *mount* config, not the config baked into the
        // part when it was created — so the same sealed image can be
        // opened cache-off for equivalence and A/B timing runs.
        volume.configure_page_cache(page_cache_budget(&config), &ram)?;
        let pc_link = BusPcLink::new(bus.clone(), visible);
        let mut db = GhostDb {
            read: ReadState {
                schema: Arc::new(schema),
                tree: Arc::new(tree),
                config: Arc::new(config),
                clock,
                bus,
                volume,
                ram,
                hidden,
                indexes,
                stats,
                pc_link,
                recorder: TraceRecorder::new(),
                metrics,
            },
            durable: None,
            epoch: 0,
            sessions: SessionRegistry::new(),
            registry,
        };
        // Replay the WAL: every fully-committed post-seal batch, in
        // order, through the normal apply path (validation included) —
        // but never re-logged, and without tripping the auto-flush.
        for rec in &opened.records {
            db.apply(Mutation::decode(rec)?, BatchOrigin::Replay)?;
        }
        db.durable = Some(DurableState {
            epoch: loaded.epoch,
            wal: opened.wal,
            image_bytes: loaded.bytes,
            meta_segments,
            l2p_entries,
        });
        if opened.truncated {
            // Replay stopped at the last good record: a committed batch
            // rotted away, so the WAL's surviving tail describes state
            // this instance no longer has. Re-seal immediately — the new
            // epoch makes the stale tail unreadable and the part
            // reflects exactly what replay recovered.
            db.seal()?;
        }
        Ok(db)
    }

    /// Run a statement script post-load: `INSERT`s mutate the database
    /// (validated per row, applied through the LSM-style deltas),
    /// `SELECT`s run with the optimizer's best plan. The paper's promise
    /// holds — no changes to the SQL text — and so does the trust model:
    /// inserts enter through the device's secure port, so their hidden
    /// values never cross the spied PC ↔ device link.
    pub fn execute(&mut self, sql: &str) -> Result<Vec<ExecOutcome>> {
        let stmts = parse_statements(sql)?;
        let mut out = Vec::with_capacity(stmts.len());
        for s in &stmts {
            match s {
                Statement::Select(sel) => out.push(ExecOutcome::Query(self.query(&sel.text)?)),
                Statement::ExplainAnalyze(sel) => {
                    out.push(ExecOutcome::Explain(self.explain_analyze(&sel.text)?))
                }
                Statement::Insert(ins) => out.push(ExecOutcome::Insert(self.apply_insert(ins)?)),
                Statement::Delete(del) => out.push(ExecOutcome::Delete(self.apply_delete(del)?)),
                Statement::Update(upd) => out.push(ExecOutcome::Update(self.apply_update(upd)?)),
                Statement::CreateTable(ct) => {
                    return Err(GhostError::unsupported(format!(
                        "CREATE TABLE {} after load (the tree schema is fixed at create time)",
                        ct.name
                    )))
                }
            }
        }
        Ok(out)
    }

    fn apply_insert(&mut self, ins: &InsertStmt) -> Result<InsertReport> {
        let bound = bind_insert(&self.schema, ins)?;
        self.insert_rows(bound.table, bound.rows)
    }

    fn apply_delete(&mut self, del: &DeleteStmt) -> Result<MutationReport> {
        let bound = bind_delete(&self.schema, del)?;
        let rows = self.matching_rows(&bound.sql, bound.table, &bound.predicates)?;
        self.delete_rows(bound.table, rows)
    }

    fn apply_update(&mut self, upd: &UpdateStmt) -> Result<MutationReport> {
        let bound = bind_update(&self.schema, upd)?;
        let rows = self.matching_rows(&bound.sql, bound.table, &bound.predicates)?;
        self.update_rows(bound.table, rows, bound.assignments)
    }

    /// Resolve a mutation's `WHERE` to the logical row ids it matches:
    /// the filter runs as an ordinary single-table query — best plan,
    /// normal executor, liveness-filtered like any `SELECT` — projecting
    /// the primary key. Deletes and updates really are "queries that end
    /// in a mutation".
    ///
    /// Unlike a `SELECT` (posed by the PC, its text public by the
    /// paper's model), mutations enter through the **device's secure
    /// port** — the same trust path as `INSERT` — so the statement text
    /// is *never* transmitted: an `UPDATE`'s new values and a `DELETE`'s
    /// selection constants may name hidden values. Only the plan's
    /// side effects cross the bus: delegated *visible* predicate
    /// evaluations, and the row identities the mutation ends up
    /// touching.
    fn matching_rows(
        &self,
        sql: &str,
        table: TableId,
        predicates: &[Predicate],
    ) -> Result<Vec<RowId>> {
        let pk = ColumnRef {
            table,
            column: ColumnId(0),
        };
        let spec = QuerySpec::bind(
            &self.schema,
            &self.tree,
            sql,
            vec![table],
            vec![pk],
            predicates.to_vec(),
            vec![],
        )?;
        let plan = self.best_plan(&spec)?;
        let ctx = self.exec_context(PipelineMode::Blocked);
        let (rows, _report) = execute(&ctx, &spec, &plan)?;
        rows.rows
            .iter()
            .map(|r| {
                r[0].as_int()
                    .map(|v| RowId(v as u32))
                    .ok_or_else(|| GhostError::exec("mutation filter projected a non-integer pk"))
            })
            .collect()
    }

    /// Programmatic insert path (also the backend of
    /// [`execute`](Self::execute)): validate and append `rows` (full
    /// rows in declaration order, dense primary key first) to `table`,
    /// maintaining the hidden store, the PC's visible store, every
    /// index, and the catalog statistics. Trips the automatic delta
    /// flush when the combined delta reaches
    /// [`DeviceConfig::delta_flush_rows`].
    pub fn insert_rows(&mut self, table: TableId, rows: Vec<Vec<Value>>) -> Result<InsertReport> {
        self.apply(Mutation::Insert(table, rows), BatchOrigin::Live)
    }

    /// Programmatic delete path (also the backend of
    /// [`execute`](Self::execute)): tombstone the rows with the given
    /// **logical** ids (current dense primary keys) in `table`.
    /// Referential integrity is RESTRICT — a row still referenced by a
    /// live row refuses to die, so delete bottom-up (root first).
    /// Queries stop seeing the rows immediately; their flash bytes are
    /// reclaimed by the next delta flush, which compacts them away.
    pub fn delete_rows(&mut self, table: TableId, rows: Vec<RowId>) -> Result<MutationReport> {
        self.apply(Mutation::Delete(table, rows), BatchOrigin::Live)
    }

    /// Programmatic update path (also the backend of
    /// [`execute`](Self::execute)): overwrite `assignments` on the rows
    /// with the given **logical** ids. Only attribute columns are
    /// updatable (primary keys are row identity; foreign keys are the
    /// precomputed join skeleton). Hidden rewrites stay on the device;
    /// visible rewrites cross the bus as `UpdateVisible` frames.
    pub fn update_rows(
        &mut self,
        table: TableId,
        rows: Vec<RowId>,
        assignments: Vec<(ColumnId, Value)>,
    ) -> Result<MutationReport> {
        self.apply(
            Mutation::Update(table, rows, assignments),
            BatchOrigin::Live,
        )
    }

    /// The one commit path of every mutation batch, live or replayed.
    /// Prologue: normalize and validate the WHOLE batch before any
    /// state moves, so a bad statement is atomic — either every row
    /// lands or none does — then reserve WAL space. Epilogue: log the
    /// record, bump the epoch, honor the auto-flush threshold, observe
    /// the latency, report.
    ///
    /// Durable instances log the batch to the flash WAL in the same
    /// operation that applies it: space is checked up front (a full
    /// log forces a delta flush, which re-seals and truncates), the
    /// record is programmed right after the apply, and only then does
    /// the call return Ok — so the WAL replays exactly the batches the
    /// caller saw commit, whole (records are CRC-framed; a torn tail
    /// drops the interrupted batch) or not at all. The logged rows and
    /// ids are the caller's *logical* ones: they survive the forced
    /// flush (which only makes physical ids dense again), and replay
    /// re-runs the same translation against an identically-evolved
    /// state.
    fn apply(&mut self, mut batch: Mutation, origin: BatchOrigin) -> Result<MutationReport> {
        let t0 = self.clock.now();
        let (table, rows) = match &mut batch {
            Mutation::Insert(table, rows) => {
                self.validate_insert(*table, rows)?;
                (*table, rows.len())
            }
            Mutation::Delete(table, ids) => (*table, self.live_targets("delete", *table, ids)?),
            Mutation::Update(table, ids, assignments) => {
                self.validate_assignments(*table, assignments)?;
                // No assignments: nothing to write — a no-op, not an error.
                let targets = if assignments.is_empty() {
                    0
                } else {
                    self.live_targets("update", *table, ids)?
                };
                (*table, targets)
            }
        };
        let mut report = MutationReport {
            table,
            rows: rows as u64,
            flushed: false,
            sim_ns: 0,
        };
        if rows == 0 {
            return Ok(report);
        }
        let record = self.wal_reserve(origin, &batch)?;
        match &batch {
            Mutation::Insert(_, rows) => self.insert_batch(table, rows)?,
            Mutation::Delete(_, ids) => self.delete_batch(table, ids)?,
            Mutation::Update(_, ids, assignments) => self.update_batch(table, ids, assignments)?,
        }
        self.wal_commit(record)?;
        self.epoch += 1;
        if origin == BatchOrigin::Live && self.over_flush_threshold() {
            self.flush_deltas()?;
            report.flushed = true;
        }
        report.sim_ns = self.clock.now().since(t0);
        batch.latency(&self.metrics).observe(report.sim_ns);
        Ok(report)
    }

    /// Sort and dedup a delete/update's logical row ids in place and
    /// check each addresses a live row; returns how many remain.
    fn live_targets(&self, verb: &str, table: TableId, ids: &mut Vec<RowId>) -> Result<usize> {
        ids.sort_unstable();
        ids.dedup();
        let live = self.hidden.live_count(table);
        if let Some(bad) = ids.iter().find(|r| r.0 >= live) {
            return Err(GhostError::exec(format!(
                "{verb} of {} row {bad}: only {live} live row(s)",
                self.schema.table(table).name
            )));
        }
        Ok(ids.len())
    }

    /// The user speaks the *logical* id space: row k's dense primary
    /// key must be live count + k, and foreign keys address live rows.
    /// (Identity with the physical space until rows die.)
    fn validate_insert(&self, table: TableId, rows: &[Vec<Value>]) -> Result<()> {
        let start = self.hidden.live_count(table) as u64;
        let row_count_of = |t: TableId| self.hidden.live_count(t) as u64;
        for (k, values) in rows.iter().enumerate() {
            validate_row(&self.schema, table, start + k as u64, values, &row_count_of)?;
        }
        Ok(())
    }

    fn validate_assignments(
        &self,
        table: TableId,
        assignments: &[(ColumnId, Value)],
    ) -> Result<()> {
        let tdef = self.schema.table(table);
        for (c, v) in assignments {
            let cdef = tdef
                .columns
                .get(c.index())
                .ok_or_else(|| GhostError::catalog(format!("no column {c} in {}", tdef.name)))?;
            if cdef.role != ColumnRole::Attribute {
                return Err(GhostError::unsupported(format!(
                    "UPDATE of key column {}.{}",
                    tdef.name, cdef.name
                )));
            }
            if !cdef.ty.admits(v) {
                return Err(GhostError::catalog(format!(
                    "update value {v} does not conform to {} of {}.{}",
                    cdef.ty, tdef.name, cdef.name
                )));
            }
            if let (DataType::Char(cap), Value::Text(s)) = (cdef.ty, v) {
                if s.len() > cap as usize {
                    return Err(GhostError::catalog(format!(
                        "update value exceeds CHAR({cap}) of {}.{}",
                        tdef.name, cdef.name
                    )));
                }
            }
        }
        Ok(())
    }

    fn insert_batch(&mut self, table: TableId, rows: &[Vec<Value>]) -> Result<()> {
        let scope = RamScope::new(&self.ram);
        for values in rows {
            let new_id = RowId(self.hidden.row_count(table));
            // Everything *stored* — flash keys, postings, SKT rows, the
            // PC's columns — speaks physical ids; rewrite the row's PK
            // and FK values from the logical space the user wrote.
            let values = &self.physical_row(table, new_id, values)?;
            // Resolve the new row's joins down the subtree before any
            // mutation (reads may touch the SKTs' base + delta).
            let wide = self.wide_row_for(table, new_id, values, &scope)?;
            let read = &mut self.read;
            // Hidden half → device flash delta (never the bus).
            let new_value_cols = read.hidden.append_row(&read.schema, table, values)?;
            // Visible half → the PC, over the (spied) bus.
            let visible: Vec<(ColumnId, Value)> = read
                .schema
                .table(table)
                .columns
                .iter()
                .enumerate()
                .filter(|(_, c)| !c.visibility.is_hidden())
                .map(|(ci, _)| (ColumnId(ci as u16), values[ci].clone()))
                .collect();
            read.pc_link.append_row(table, new_id, visible)?;
            // Index maintenance at every affected level.
            read.indexes.apply_insert(
                &read.tree,
                &scope,
                &read.hidden,
                ghostdb_index::RowInsert {
                    table,
                    id: new_id,
                    values,
                },
                &wide,
            )?;
            // Planner sees base + delta cardinalities immediately.
            read.stats.absorb_row(table, &new_value_cols);
        }
        Ok(())
    }

    fn delete_batch(&mut self, table: TableId, logical: &[RowId]) -> Result<()> {
        // Resolve to physical ids and enforce RESTRICT: none of the dying
        // rows may be referenced by a live row of the referencing table.
        let phys: Vec<u32> = logical
            .iter()
            .map(|r| self.hidden.select_live(table, r.0).map(|p| p.0))
            .collect::<Result<_>>()?;
        self.assert_unreferenced(table, &phys)?;
        // Tombstone on the device; announce the row identities to the PC
        // (ids only — which hidden values died stays hidden); shrink the
        // planner's live-cardinality estimates.
        let read = &mut self.read;
        read.hidden.delete_rows_physical(table, &phys)?;
        read.pc_link
            .delete_rows(table, phys.iter().map(|&p| RowId(p)).collect())?;
        read.stats.retire_rows(table, phys.len() as u64);
        Ok(())
    }

    /// No live row of the referencing (tree-parent) table may point at
    /// any of the dying physical rows. The check is the climbing layout
    /// itself: `table`'s key index translates the dying ids to the
    /// parent level, and anything live there is a violation.
    fn assert_unreferenced(&self, table: TableId, phys: &[u32]) -> Result<()> {
        let Some((parent, _)) = self.tree.parent(table) else {
            return Ok(()); // the root is referenced by nobody
        };
        let scope = RamScope::new(&self.ram);
        let kidx = self.indexes.key_index(table)?;
        let mut input = ghostdb_types::VecIdStream::new(phys.iter().map(|&p| RowId(p)).collect());
        let refs = kidx.translate(
            &scope,
            &mut input,
            parent,
            ghostdb_index::TRANSLATE_SORT_RAM,
        )?;
        let mut live_refs = ghostdb_types::LiveFilter::new(refs, self.hidden.liveness(parent));
        use ghostdb_types::IdStream;
        if let Some(r) = live_refs.next_id()? {
            return Err(GhostError::exec(format!(
                "delete restricted: {} row(s) are still referenced by live {} rows (e.g. row {})",
                self.schema.table(table).name,
                self.schema.table(parent).name,
                self.hidden.live_rank(parent, r)
            )));
        }
        Ok(())
    }

    fn update_batch(
        &mut self,
        table: TableId,
        logical: &[RowId],
        assignments: &[(ColumnId, Value)],
    ) -> Result<()> {
        let phys: Vec<u32> = logical
            .iter()
            .map(|r| self.hidden.select_live(table, r.0).map(|p| p.0))
            .collect::<Result<_>>()?;
        let read = &mut self.read;
        let scope = RamScope::new(&read.ram);
        for &p in &phys {
            let row = RowId(p);
            let mut visible: Vec<(ColumnId, Value)> = Vec::new();
            for (c, v) in assignments {
                if read.schema.table(table).columns[c.index()]
                    .visibility
                    .is_hidden()
                {
                    let old = read.hidden.value(&scope, table, *c, row)?;
                    if &old == v {
                        continue; // no-op rewrite: skip index churn
                    }
                    // Overlay first (the delta dictionary must know a
                    // fresh string before the index re-posts under it).
                    let minted = read.hidden.update_cell(table, *c, row, v)?;
                    read.indexes.apply_update(&scope, table, *c, row, &old, v)?;
                    if minted {
                        read.stats.absorb_update(table, &[c.0]);
                    }
                } else {
                    visible.push((*c, v.clone()));
                }
            }
            if !visible.is_empty() {
                read.pc_link.update_row(table, row, visible)?;
            }
        }
        Ok(())
    }

    /// The durable half of a mutation's prologue: encode the WAL record
    /// and make room for it (a full log forces a flush, which re-seals
    /// and truncates). Returns `None` for volatile instances and WAL
    /// replay.
    fn wal_reserve(&mut self, origin: BatchOrigin, batch: &Mutation) -> Result<Option<Vec<u8>>> {
        let Some(d) = &self.durable else {
            return Ok(None);
        };
        if origin != BatchOrigin::Live {
            return Ok(None);
        }
        let record = batch.encode();
        if d.wal.fits(record.len()) {
            return Ok(Some(record));
        }
        self.flush_deltas()?;
        match &self.durable {
            Some(d) if d.wal.fits(record.len()) => Ok(Some(record)),
            _ => Err(GhostError::flash(format!(
                "mutation batch ({} B) exceeds the WAL region; raise \
                 FlashConfig::wal_blocks or split the batch",
                record.len()
            ))),
        }
    }

    /// Append a reserved WAL record after the batch applied.
    fn wal_commit(&mut self, record: Option<Vec<u8>>) -> Result<()> {
        if let (Some(record), Some(d)) = (&record, &mut self.durable) {
            d.wal.append(record)?;
            self.read.metrics.wal_appends.inc();
        }
        Ok(())
    }

    /// Has the combined un-flushed mutation count — appended rows,
    /// tombstones, overwritten cells — reached the auto-flush threshold?
    fn over_flush_threshold(&self) -> bool {
        let threshold = self.config.delta_flush_rows;
        threshold > 0 && self.hidden.total_pending_mutations() >= threshold as u64
    }

    /// Rewrite one insert row from the logical id space (what the user
    /// writes: dense PKs over live rows, FKs addressing live rows) into
    /// the physical space everything stored speaks. Identity while
    /// nothing is dead.
    fn physical_row(&self, table: TableId, new_id: RowId, values: &[Value]) -> Result<Vec<Value>> {
        let tdef = self.schema.table(table);
        let mut out = values.to_vec();
        for (ci, cdef) in tdef.columns.iter().enumerate() {
            match cdef.role {
                ColumnRole::PrimaryKey => out[ci] = Value::Int(new_id.0 as i64),
                ColumnRole::ForeignKey(target) => {
                    let logical = out[ci]
                        .as_int()
                        .ok_or_else(|| GhostError::exec("non-integer foreign key in insert"))?;
                    let phys = self.hidden.select_live(target, logical as u32)?;
                    out[ci] = Value::Int(phys.0 as i64);
                }
                ColumnRole::Attribute => {}
            }
        }
        Ok(out)
    }

    /// The wide row of one inserted row: the id of every table in
    /// `table`'s subtree that the new row joins to, resolved by chasing
    /// each foreign key through the child's Subtree Key Table.
    fn wide_row_for(
        &self,
        table: TableId,
        new_id: RowId,
        values: &[Value],
        scope: &RamScope,
    ) -> Result<HashMap<u16, RowId>> {
        let mut wide = HashMap::new();
        wide.insert(table.0, new_id);
        for (fk_col, child) in self.schema.table(table).foreign_keys() {
            let fk = values
                .get(fk_col.index())
                .and_then(|v| v.as_int())
                .ok_or_else(|| GhostError::exec("non-integer foreign key in insert"))?;
            self.extend_wide(child, RowId(fk as u32), scope, &mut wide)?;
        }
        Ok(wide)
    }

    fn extend_wide(
        &self,
        t: TableId,
        id: RowId,
        scope: &RamScope,
        wide: &mut HashMap<u16, RowId>,
    ) -> Result<()> {
        if self.tree.children(t).is_empty() {
            wide.insert(t.0, id);
            return Ok(());
        }
        let skt = self.indexes.skt(t)?;
        let row = skt.cursor(scope)?.fetch(id)?;
        for (pos, tt) in skt.table_order().iter().enumerate() {
            wide.insert(tt.0, row.ids[pos]);
        }
        Ok(())
    }

    /// Merge every RAM-resident mutation — appended delta rows,
    /// tombstones, overwrite overlays, index deltas — into rebuilt flash
    /// segments, freeing the old segments for the GC, and rebuild the
    /// per-column equi-depth histograms over the merged layout so
    /// planner estimates track the absorbed rows. Dead rows are
    /// **physically dropped** here: survivors renumber dense, the PC
    /// compacts its mirror in the same pass, and the freed segments are
    /// what a post-delete flush reclaims. Returns the number of delta
    /// rows merged (a deletes-only flush reports 0 merged rows but still
    /// compacts). Runs automatically at the
    /// [`DeviceConfig::delta_flush_rows`] threshold; callable explicitly
    /// for tests and maintenance windows.
    ///
    /// On a sealed instance the flush **re-seals**: the merge writes new
    /// segments (frees of the old, image-referenced ones are deferred by
    /// the volume), a fresh image is written, the deferred frees commit,
    /// and the WAL truncates — in that order, so a power cut at any
    /// boundary mounts either the old image + full WAL or the new image.
    pub fn flush_deltas(&mut self) -> Result<u64> {
        let t0 = self.clock.now();
        let Some(merged) = self.merge_deltas()? else {
            return Ok(0);
        };
        self.epoch += 1;
        if self.durable.is_some() {
            self.seal_image(merged)?;
        }
        self.metrics.flush_pause.observe(self.clock.now().since(t0));
        Ok(merged)
    }

    /// The merge alone (no re-seal): `None` when there was nothing to
    /// do, otherwise the number of delta rows merged.
    fn merge_deltas(&mut self) -> Result<Option<u64>> {
        let delta_rows = self.hidden.total_delta_rows();
        if self.hidden.total_pending_mutations() == 0 && self.indexes.delta_entries() == 0 {
            return Ok(None);
        }
        let read = &mut self.read;
        let scope = RamScope::new(&read.ram);
        let remaps = read.hidden.flush(&scope, &read.schema)?;
        read.indexes.flush(&scope, &read.hidden, &remaps)?;
        let compacted = remaps.any_compaction();
        // The dictionary remaps carry the flushed columns' strings: free
        // them before the statistics pass.
        drop(remaps);
        if compacted {
            // The PC drops its dead rows and renumbers in lockstep (the
            // dead sets were already announced; one frame says "now").
            read.pc_link.compact(&read.schema)?;
        }
        self.refresh_statistics(&scope)?;
        Ok(Some(delta_rows))
    }

    /// Rebuild every column's statistics over the just-merged layout.
    /// ROADMAP's open item: `absorb_row` keeps cardinalities fresh
    /// per-insert, but histograms stayed load-time, so range-selectivity
    /// estimates drifted as merged deltas accumulated. Hidden columns
    /// rescan their flash key segments (order keys for fixed columns —
    /// rank codes carry no histogram, matching load time); visible
    /// columns rebuild from the PC's store — public data, recomputed on
    /// the resource-rich side. Like the secure bulk load and seal, this
    /// is a host-side maintenance pass: its working buffers are not
    /// charged to the device RAM budget.
    fn refresh_statistics(&mut self, scope: &RamScope) -> Result<()> {
        let read = &mut self.read;
        for (ti, tdef) in read.schema.tables().iter().enumerate() {
            let table = TableId(ti as u16);
            let rows = read.hidden.row_count(table) as u64;
            for (ci, cdef) in tdef.columns.iter().enumerate() {
                let column = ColumnId(ci as u16);
                let rebuilt = if cdef.visibility.is_hidden() {
                    let mut scan = read.hidden.key_scan(scope, table, column)?;
                    let mut keys = Vec::with_capacity(rows as usize);
                    while let Some((_, k)) = scan.next_entry()? {
                        keys.push(k);
                    }
                    let buckets = match cdef.ty {
                        DataType::Integer | DataType::Date => Some(STATS_BUCKETS),
                        // Dictionary codes are ranks, not order keys of
                        // the value domain: no histogram (as at load).
                        DataType::Char(_) => None,
                    };
                    ColumnStats::from_keys(keys, buckets)
                } else {
                    let values: Vec<Value> = read
                        .pc_link
                        .visible()
                        .fetch_column(table, column, None)?
                        .into_iter()
                        .map(|(_, v)| v)
                        .collect();
                    ColumnStats::build(&values, STATS_BUCKETS)
                };
                if let Some(t) = read.stats.tables.get_mut(ti) {
                    t.rows = rows;
                    if let Some(slot) = t.columns.get_mut(ci) {
                        *slot = Some(rebuilt);
                    }
                }
            }
        }
        Ok(())
    }

    /// Make the current state durable: merge any outstanding deltas,
    /// write a fresh sealed image, and truncate the WAL. The first seal
    /// turns durability on — from then on every insert batch is
    /// write-ahead logged and every delta flush re-seals, so
    /// [`GhostDb::mount`] can rebuild this exact state from the NAND
    /// part alone.
    pub fn seal(&mut self) -> Result<SealReport> {
        if !ghostdb_persist::durability_enabled(&self.config.flash) {
            return Err(GhostError::flash(
                "durability disabled: FlashConfig::{meta_slot_blocks, wal_blocks} must be > 0",
            ));
        }
        let t0 = self.clock.now();
        let merged = self.merge_deltas()?.unwrap_or(0);
        let mut report = self.seal_image(merged)?;
        report.sim_ns = self.clock.now().since(t0);
        self.metrics.seal_pause.observe(report.sim_ns);
        Ok(report)
    }

    /// Write the image for the (already merged) current state, commit
    /// the volume's deferred frees, and truncate the WAL under the new
    /// epoch. Crash-ordering is the heart of the durability argument:
    ///
    /// 1. the image programs into the *older* metadata slot — a cut
    ///    here leaves the previous superblock (and every flash page it
    ///    references, all still intact thanks to deferred frees) the
    ///    newest valid image;
    /// 2. only then do deferred frees erase old segments
    ///    ([`Volume::commit_seal`]) — a cut mid-erase is harmless, the
    ///    new image references none of those pages;
    /// 3. the WAL truncates last — a cut mid-erase leaves stale pages
    ///    whose epoch no longer matches, which replay ignores.
    fn seal_image(&mut self, merged_rows: u64) -> Result<SealReport> {
        let epoch = self.durable.as_ref().map(|d| d.epoch + 1).unwrap_or(1);
        let image = DeviceImage {
            schema: self.schema.as_ref().clone(),
            stats: self.stats.clone(),
            hidden: self.hidden.manifest()?,
            indexes: self.indexes.manifest()?,
            visible: self.pc_link.visible().clone(),
            tombstones: (0..self.schema.table_count())
                .map(|t| self.hidden.liveness(TableId(t as u16)).clone())
                .collect(),
            l2p: self.volume.l2p_snapshot(),
            bad_blocks: self.volume.nand().grown_bad_blocks(),
        };
        let meta_segments = image.metadata_segment_count();
        let l2p_entries = image.l2p.len();
        let image_bytes = ghostdb_persist::write_image(self.volume.nand(), epoch, &image)?;
        self.volume.commit_seal()?;
        let mut wal = match self.durable.take() {
            Some(d) => d.wal,
            None => Wal::new(self.volume.nand().clone(), epoch),
        };
        // Record the durable state before propagating a truncation
        // failure: the epoch-N image *is* on flash at this point, so the
        // instance must keep WAL-logging under epoch N either way (the
        // truncate resets its cursor state before the fallible erases,
        // and appends erase dirty blocks on entry).
        let truncated = wal.truncate(epoch);
        self.durable = Some(DurableState {
            epoch,
            wal,
            image_bytes,
            meta_segments,
            l2p_entries,
        });
        truncated?;
        Ok(SealReport {
            epoch,
            image_bytes,
            merged_rows,
            sim_ns: 0,
        })
    }

    /// The sealed epoch, once durability is on.
    pub fn sealed_epoch(&self) -> Option<u64> {
        self.durable.as_ref().map(|d| d.epoch)
    }

    /// The raw NAND part. Clone the handle before dropping the facade to
    /// model unplugging the key: `GhostDb::mount` rebuilds everything
    /// from it.
    pub fn nand(&self) -> &Nand {
        self.volume.nand()
    }

    /// Refresh the point-in-time gauges and snapshot the engine-wide
    /// metrics registry (counters, gauges, histograms from the bus, the
    /// flash volume, and the core).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.refresh_gauges();
        self.registry.snapshot()
    }

    /// Prometheus-style text exposition of [`metrics`](Self::metrics).
    pub fn metrics_text(&self) -> String {
        self.metrics().render_prometheus()
    }

    /// JSON rendering of [`metrics`](Self::metrics).
    pub fn metrics_json(&self) -> String {
        self.metrics().render_json()
    }

    fn refresh_gauges(&self) {
        let usage = self.volume.usage();
        self.metrics.epoch.set(self.epoch as i64);
        self.metrics
            .open_snapshots
            .set(self.sessions.open_snapshots() as i64);
        self.metrics.flash_free_blocks.set(usage.free_blocks as i64);
        self.metrics.flash_live_pages.set(usage.live_pages as i64);
        self.metrics
            .delta_rows
            .set(self.hidden.total_delta_rows() as i64);
    }

    /// Capture an immutable, epoch-stamped [`Snapshot`] of the database:
    /// a cheap deep copy of the bounded RAM deltas plus `Arc`-shared
    /// flash segment manifests, with every base page pinned against
    /// reclamation until the snapshot drops. Snapshots are `Send + Sync`
    /// and own their device-RAM budget, so N reader threads can run
    /// SELECTs in parallel while this handle keeps mutating and
    /// flushing.
    pub fn snapshot(&self) -> Result<Snapshot> {
        Snapshot::capture(self)
    }

    /// The MVCC epoch: bumped by every committed mutation statement and
    /// every delta flush. A [`Snapshot`] carries the epoch it saw.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Open-snapshot count across all threads (observability; also in
    /// [`device_report`](Self::device_report)).
    pub fn open_snapshots(&self) -> usize {
        self.sessions.open_snapshots()
    }

    /// Device-side storage report (flash occupancy, index overhead,
    /// durability state, and per-region wear), built over the same
    /// metrics registry the Prometheus/JSON expositions read: the flash
    /// occupancy gauges and the reliability counters come from
    /// [`metrics`](Self::metrics), so the report and a scrape can never
    /// disagree.
    pub fn device_report(&self) -> String {
        let snap = self.metrics();
        let usage = self.volume.usage();
        let durability = match &self.durable {
            None => "unsealed (volatile until the first seal())".to_string(),
            Some(d) => format!(
                "sealed epoch {}, image {} B across {} metadata segment(s), \
                 l2p {} entries, WAL {} B in {} record(s)",
                d.epoch,
                d.image_bytes,
                d.meta_segments,
                d.l2p_entries,
                d.wal.bytes(),
                d.wal.records(),
            ),
        };
        let rel = self.volume.reliability();
        let reliability = format!(
            "{} corrected read(s), {} uncorrectable, {} of {} spare block(s) used, \
             {} page(s) scrubbed, {} GC migration(s)",
            snap.counter("ghostdb_ecc_corrected_total"),
            snap.counter("ghostdb_ecc_uncorrectable_total"),
            rel.retired_blocks,
            rel.spare_blocks,
            rel.scrubbed_pages,
            snap.counter("ghostdb_gc_migrations_total"),
        );
        let cache = self.volume.page_cache_stats();
        let cache_line = if cache.capacity_pages == 0 {
            "disabled".to_string()
        } else {
            format!(
                "{}/{} page(s) resident ({} B charged to device RAM), \
                 {} hit(s), {} miss(es), {} eviction(s)",
                cache.resident_pages,
                cache.capacity_pages,
                cache.charged_bytes,
                snap.counter("ghostdb_page_cache_hits_total"),
                snap.counter("ghostdb_page_cache_misses_total"),
                snap.counter("ghostdb_page_cache_evictions_total"),
            )
        };
        let pins = self.volume.pin_stats();
        let sessions = format!(
            "epoch {}, {}; {} page(s) pinned by snapshots ({} free(s) deferred), \
             {} sealed-image pin(s) ({} free(s) deferred)",
            self.epoch,
            self.sessions.describe(),
            pins.snapshot_pinned,
            pins.snapshot_deferred,
            pins.sealed_pinned,
            pins.sealed_deferred,
        );
        format!(
            "flash: {}/{} blocks free, {} live pages; page cache: {}; indexes: {}; \
             durability: {}; sessions: {}; reliability: {}; wear: {}",
            snap.gauge("ghostdb_flash_free_blocks"),
            usage.total_blocks,
            snap.gauge("ghostdb_flash_live_pages"),
            cache_line,
            self.indexes.describe(),
            durability,
            sessions,
            reliability,
            self.wear_report(),
        )
    }

    /// Per-region erase-wear summary over [`Nand::wear_snapshot`]: the
    /// fixed metadata slots and WAL blocks wear independently of the
    /// GC-leveled volume — every seal erases the same slot blocks and
    /// every truncation the same WAL blocks, so their wear is
    /// **unbounded by design** (the ROADMAP caveat; slot rotation stays
    /// future work). Surfacing the split here is what lets an operator
    /// see that budget being spent.
    pub fn wear_report(&self) -> String {
        let wear = self.volume.nand().wear_snapshot();
        let cfg = &self.config.flash;
        let seg = |range: std::ops::Range<usize>| -> String {
            let s = &wear[range];
            if s.is_empty() {
                return "n/a".to_string();
            }
            let max = s.iter().max().copied().unwrap_or(0);
            let avg = s.iter().map(|&w| w as u64).sum::<u64>() as f64 / s.len() as f64;
            format!("max {max} avg {avg:.1}")
        };
        let meta = 2 * cfg.meta_slot_blocks;
        let reserved = cfg.reserved_blocks();
        if reserved == 0 {
            return format!("volume {}", seg(0..wear.len()));
        }
        format!(
            "meta slots {} | WAL {} | volume {} (fixed-slot seal wear is \
             unbounded by design — no rotation)",
            seg(0..meta),
            seg(meta..reserved),
            seg(reserved..wear.len()),
        )
    }
}

/// One mutation batch: what the programmatic API applies, what the WAL
/// logs, and what mount replays — all batch-atomically through
/// [`GhostDb::apply`]. Delete/update batches carry **logical** row ids,
/// which are stable across the flushes a replay may interleave with.
/// Insert and update batches hold hidden values — their WAL records live
/// on the device's NAND only and never cross the bus.
enum Mutation {
    /// WAL tag 0: full rows in declaration order.
    Insert(TableId, Vec<Vec<Value>>),
    /// WAL tag 1: logical row ids.
    Delete(TableId, Vec<RowId>),
    /// WAL tag 2: logical row ids + assignments.
    Update(TableId, Vec<RowId>, Vec<(ColumnId, Value)>),
}

impl Mutation {
    /// The statement-latency histogram this batch observes into.
    fn latency<'m>(&self, metrics: &'m CoreMetrics) -> &'m ghostdb_obs::Histogram {
        match self {
            Mutation::Insert(..) => &metrics.insert_latency,
            Mutation::Delete(..) => &metrics.delete_latency,
            Mutation::Update(..) => &metrics.update_latency,
        }
    }

    /// Encode the batch as a WAL record.
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Mutation::Insert(table, rows) => {
                out.push(0u8);
                table.encode(&mut out);
                (rows.len() as u32).encode(&mut out);
                for row in rows {
                    row.encode(&mut out);
                }
            }
            Mutation::Delete(table, rows) => {
                out.push(1u8);
                table.encode(&mut out);
                rows.encode(&mut out);
            }
            Mutation::Update(table, rows, assignments) => {
                out.push(2u8);
                table.encode(&mut out);
                rows.encode(&mut out);
                assignments.encode(&mut out);
            }
        }
        out
    }

    /// Decode one WAL record back into its batch.
    fn decode(bytes: &[u8]) -> Result<Mutation> {
        let Some((&tag, mut buf)) = bytes.split_first() else {
            return Err(GhostError::corrupt("empty WAL record"));
        };
        let buf = &mut buf;
        let rec = match tag {
            0 => {
                let table = TableId::decode(buf)?;
                let n = u32::decode(buf)?;
                let mut rows = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    rows.push(Vec::<Value>::decode(buf)?);
                }
                Mutation::Insert(table, rows)
            }
            1 => Mutation::Delete(TableId::decode(buf)?, Vec::<RowId>::decode(buf)?),
            2 => Mutation::Update(
                TableId::decode(buf)?,
                Vec::<RowId>::decode(buf)?,
                Vec::<(ColumnId, Value)>::decode(buf)?,
            ),
            t => return Err(GhostError::corrupt(format!("WAL record tag {t}"))),
        };
        if !buf.is_empty() {
            return Err(GhostError::corrupt("trailing bytes in WAL record"));
        }
        Ok(rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghostdb_types::{RowId, TableId};

    const DDL: &str = "\
        CREATE TABLE Doctor ( \
          DocID INTEGER PRIMARY KEY, \
          Name CHAR(40), \
          Country CHAR(20)); \
        CREATE TABLE Visit ( \
          VisID INTEGER PRIMARY KEY, \
          Severity INTEGER, \
          Purpose CHAR(100) HIDDEN, \
          DocID REFERENCES Doctor(DocID) HIDDEN);";

    fn tiny() -> GhostDb {
        let stmts = parse_statements(DDL).unwrap();
        let schema = bind_schema(&stmts).unwrap();
        let mut data = Dataset::empty(&schema);
        let countries = ["France", "Spain"];
        for i in 0..4i64 {
            data.push_row(
                TableId(0),
                vec![
                    Value::Int(i),
                    Value::Text(format!("doc{i}")),
                    Value::Text(countries[(i % 2) as usize].into()),
                ],
            )
            .unwrap();
        }
        let purposes = ["Checkup", "Sclerosis"];
        for i in 0..16i64 {
            data.push_row(
                TableId(1),
                vec![
                    Value::Int(i),
                    Value::Int(i % 8),
                    Value::Text(purposes[(i % 2) as usize].into()),
                    Value::Int(i % 4),
                ],
            )
            .unwrap();
        }
        // Shrink flash for test speed.
        let mut config = DeviceConfig::default_2007();
        config.flash.page_size = 256;
        config.flash.pages_per_block = 8;
        config.flash.num_blocks = 2048;
        GhostDb::create(DDL, config, &data).unwrap()
    }

    #[test]
    fn end_to_end_query_best_plan() {
        let db = tiny();
        let out = db
            .query(
                "SELECT Vis.VisID, Doc.Name FROM Visit Vis, Doctor Doc \
                 WHERE Vis.Purpose = 'Sclerosis' \
                   AND Vis.Severity >= 4 \
                   AND Vis.DocID = Doc.DocID",
            )
            .unwrap();
        // Sclerosis = odd visits; severity >= 4 → i%8 in 4..8 → i in
        // {5,7,13,15}.
        let ids: Vec<i64> = out
            .rows
            .rows
            .iter()
            .map(|r| r[0].as_int().unwrap())
            .collect();
        assert_eq!(ids, vec![5, 7, 13, 15]);
        // Doctor names joined through the hidden fk: doc (i%4).
        assert_eq!(out.rows.rows[0][1], Value::Text("doc1".into()));
        assert!(out.report.total_ns > 0);
    }

    #[test]
    fn all_plans_agree() {
        let db = tiny();
        let sql = "SELECT Vis.VisID FROM Visit Vis, Doctor Doc \
                   WHERE Doc.Country = 'Spain' \
                     AND Vis.Purpose = 'Checkup' \
                     AND Vis.DocID = Doc.DocID";
        let plans = db.plans(sql).unwrap();
        assert!(plans.len() >= 3);
        let mut results: Vec<Vec<Vec<Value>>> = Vec::new();
        for cp in &plans {
            let out = db.query_with_plan(sql, &cp.plan).unwrap();
            results.push(out.rows.rows.clone());
        }
        for r in &results[1..] {
            assert_eq!(r, &results[0], "plans disagree");
        }
        // Sanity: Spain doctors {1,3}; visits with docid in {1,3} and
        // even index: i%4 in {1,3} and i even → i in {} ... check via
        // reference: docid = i%4; purpose even i → Checkup. i even with
        // i%4 ∈ {1,3} impossible, so empty.
        assert!(results[0].is_empty());
    }

    #[test]
    fn hidden_values_never_cross_the_bus() {
        let db = tiny();
        db.clear_trace();
        let out = db
            .query(
                "SELECT Vis.Purpose FROM Visit Vis \
                 WHERE Vis.Severity = 3",
            )
            .unwrap();
        assert_eq!(out.rows.rows.len(), 2); // i%8==3 → {3, 11}
        assert_eq!(out.rows.rows[0][0], Value::Text("Sclerosis".into()));
        // The hidden value appears in results (secure display) but never
        // in the spy trace.
        assert!(!db.spy_sees_value(&Value::Text("Sclerosis".into())));
        assert!(!db.spy_sees_value(&Value::Text("Checkup".into())));
        // Visible traffic does appear.
        assert!(db.trace().spy_bytes() > 0);
    }

    #[test]
    fn explain_lists_costed_plans() {
        let db = tiny();
        let text = db
            .explain("SELECT Vis.VisID FROM Visit Vis WHERE Vis.Purpose = 'Checkup'")
            .unwrap();
        assert!(text.contains("candidate plan"));
        assert!(text.contains("estimated"));
        // The plan tree carries the cost model's cardinality estimates.
        assert!(text.contains("est rows="));
    }

    #[test]
    fn statement_explain_analyze_runs_and_annotates() {
        let mut db = tiny();
        let out = db
            .execute("EXPLAIN ANALYZE SELECT Vis.VisID FROM Visit Vis WHERE Vis.Severity >= 4;")
            .unwrap();
        let [ExecOutcome::Explain(text)] = &out[..] else {
            panic!("expected one Explain outcome, got {out:?}");
        };
        assert!(text.contains("plan "), "{text}");
        assert!(text.contains("est rows="), "{text}");
        assert!(text.contains("actual rows="), "{text}");
        assert!(text.contains("project"), "{text}");
        // The project node's actual row count equals the query's result.
        let rows = db
            .query("SELECT Vis.VisID FROM Visit Vis WHERE Vis.Severity >= 4")
            .unwrap()
            .rows
            .len();
        assert!(text.contains(&format!("actual rows={rows}")), "{text}");
    }

    #[test]
    fn flight_recorder_captures_statement_spans() {
        let db = tiny();
        assert!(db.last_trace().is_none());
        db.query("SELECT Vis.VisID FROM Visit Vis WHERE Vis.Severity = 3")
            .unwrap();
        assert!(
            db.last_trace().is_none(),
            "recorder off must record nothing"
        );
        db.set_tracing(true);
        let out = db
            .query("SELECT Vis.VisID FROM Visit Vis WHERE Vis.Severity = 3")
            .unwrap();
        let trace = db.last_trace().expect("trace recorded");
        assert_eq!(trace.name, "statement");
        for phase in ["parse", "bind", "plan", "execute"] {
            assert!(trace.find(phase).is_some(), "missing {phase} span");
        }
        let exec = trace.find("execute").unwrap();
        assert_eq!(exec.attr("rows"), Some(out.report.result_rows));
        assert_eq!(exec.attr("sim_ns"), Some(out.report.total_ns));
        // Per-operator spans ride under execute, with their actuals.
        assert!(exec.children.iter().any(|c| c.name == "project"));
        db.set_tracing(false);
        db.recorder.clear();
    }

    #[test]
    fn metrics_snapshot_counts_statements_and_bus() {
        let mut db = tiny();
        db.query("SELECT Vis.VisID FROM Visit Vis WHERE Vis.Severity = 3")
            .unwrap();
        db.execute("INSERT INTO Doctor VALUES (4, 'doc4', 'Japan')")
            .unwrap();
        let snap = db.metrics();
        let lat = |kind: &str| match snap
            .get(&format!("ghostdb_statement_latency_ns{{kind=\"{kind}\"}}"))
            .expect("latency histogram registered")
        {
            ghostdb_obs::MetricValue::Histogram(h) => h.count,
            other => panic!("expected histogram, got {other:?}"),
        };
        assert_eq!(lat("select"), 1);
        assert_eq!(lat("insert"), 1);
        assert_eq!(lat("delete"), 0);
        // Bus frames were counted by kind, and the gauges are live.
        assert!(snap.counter("ghostdb_bus_frames_total{kind=\"Query\"}") >= 1);
        assert!(snap.counter("ghostdb_bus_bytes_total{kind=\"Query\"}") > 0);
        assert_eq!(snap.gauge("ghostdb_epoch"), db.epoch() as i64);
        assert!(snap.gauge("ghostdb_delta_rows") > 0);
        // Both renderings expose the same registry.
        let text = db.metrics_text();
        assert!(text.contains("ghostdb_statement_latency_ns_bucket"));
        assert!(text.contains("ghostdb_bus_frames_total"));
        assert!(db.metrics_json().contains("ghostdb_wal_appends_total"));
    }

    #[test]
    fn snapshot_mirrors_tracing_and_explain_analyze() {
        let db = tiny();
        let snap = db.snapshot().unwrap();
        let text = snap
            .explain_analyze("SELECT Vis.VisID FROM Visit Vis WHERE Vis.Severity >= 4")
            .unwrap();
        assert!(text.contains("actual rows="), "{text}");
        db.set_tracing(true);
        snap.query("SELECT Vis.VisID FROM Visit Vis WHERE Vis.Severity = 3")
            .unwrap();
        // The snapshot records into the engine's shared slot.
        assert!(db.last_trace().is_some());
        assert_eq!(snap.last_trace().unwrap().name, "statement");
    }

    #[test]
    fn canonical_p1_p2_run() {
        let db = tiny();
        let sql = "SELECT Vis.VisID FROM Visit Vis, Doctor Doc \
                   WHERE Doc.Country = 'France' \
                     AND Vis.Purpose = 'Sclerosis' \
                     AND Vis.DocID = Doc.DocID";
        let spec = db.bind(sql).unwrap();
        let p1 = db.plan_pre(&spec);
        let p2 = db.plan_post(&spec);
        let r1 = db.run(&spec, &p1).unwrap();
        let r2 = db.run(&spec, &p2).unwrap();
        assert_eq!(r1.rows.rows, r2.rows.rows);
        // France doctors {0,2}; odd visits (Sclerosis) with docid even:
        // i odd, i%4 ∈ {0,2} → impossible → empty? i%4 for odd i is 1 or
        // 3. So empty.
        assert!(r1.rows.rows.is_empty());
    }

    #[test]
    fn device_report_mentions_indexes() {
        let db = tiny();
        let rep = db.device_report();
        assert!(rep.contains("SKT"));
        let _ = db.trace().events();
    }

    /// The acceptance shape in miniature: inserts then query ==
    /// fresh-load query, before and after a forced flush, both
    /// pipelines.
    #[test]
    fn post_load_inserts_match_fresh_load() {
        let mut db = tiny();
        // New doctor 4, new visits 16..20 (some referencing doctor 4,
        // one carrying a string outside the base dictionary).
        db.execute("INSERT INTO Doctor VALUES (4, 'doc4', 'Japan')")
            .unwrap();
        db.execute(
            "INSERT INTO Visit VALUES (16, 7, 'Sclerosis', 4), \
             (17, 4, 'Migraine', 4), (18, 5, 'Sclerosis', 1), (19, 9, 'Migraine', 2)",
        )
        .unwrap();
        assert!(db.delta_rows() > 0);

        // The same content loaded fresh.
        let stmts = parse_statements(DDL).unwrap();
        let schema = bind_schema(&stmts).unwrap();
        let mut data = Dataset::empty(&schema);
        let countries = ["France", "Spain"];
        for i in 0..4i64 {
            data.push_row(
                TableId(0),
                vec![
                    Value::Int(i),
                    Value::Text(format!("doc{i}")),
                    Value::Text(countries[(i % 2) as usize].into()),
                ],
            )
            .unwrap();
        }
        data.push_row(
            TableId(0),
            vec![
                Value::Int(4),
                Value::Text("doc4".into()),
                Value::Text("Japan".into()),
            ],
        )
        .unwrap();
        let purposes = ["Checkup", "Sclerosis"];
        for i in 0..16i64 {
            data.push_row(
                TableId(1),
                vec![
                    Value::Int(i),
                    Value::Int(i % 8),
                    Value::Text(purposes[(i % 2) as usize].into()),
                    Value::Int(i % 4),
                ],
            )
            .unwrap();
        }
        for (vid, sev, purpose, doc) in [
            (16i64, 7i64, "Sclerosis", 4i64),
            (17, 4, "Migraine", 4),
            (18, 5, "Sclerosis", 1),
            (19, 9, "Migraine", 2),
        ] {
            data.push_row(
                TableId(1),
                vec![
                    Value::Int(vid),
                    Value::Int(sev),
                    Value::Text(purpose.into()),
                    Value::Int(doc),
                ],
            )
            .unwrap();
        }
        let mut config = DeviceConfig::default_2007();
        config.flash.page_size = 256;
        config.flash.pages_per_block = 8;
        config.flash.num_blocks = 2048;
        let fresh = GhostDb::create(DDL, config, &data).unwrap();

        let queries = [
            "SELECT Vis.VisID, Doc.Name FROM Visit Vis, Doctor Doc \
             WHERE Vis.Purpose = 'Sclerosis' AND Vis.DocID = Doc.DocID",
            "SELECT Vis.VisID FROM Visit Vis WHERE Vis.Purpose = 'Migraine'",
            "SELECT Vis.VisID, Vis.Purpose FROM Visit Vis, Doctor Doc \
             WHERE Doc.Country = 'Japan' AND Vis.Severity >= 4 \
               AND Vis.DocID = Doc.DocID",
        ];
        let check = |db: &GhostDb, phase: &str| {
            for sql in &queries {
                let expect = fresh.query(sql).unwrap().rows.rows;
                let spec = db.bind(sql).unwrap();
                for cp in db.plans(sql).unwrap() {
                    let got = db.run(&spec, &cp.plan).unwrap();
                    assert_eq!(got.rows.rows, expect, "{phase}/blocked: {sql}");
                    let got = db.run_scalar(&spec, &cp.plan).unwrap();
                    assert_eq!(got.rows.rows, expect, "{phase}/scalar: {sql}");
                }
            }
        };
        check(&db, "unflushed");
        let merged = db.flush_deltas().unwrap();
        assert_eq!(merged, 5);
        assert_eq!(db.delta_rows(), 0);
        check(&db, "flushed");
    }

    /// DELETE/UPDATE in miniature: tombstone-resident results equal the
    /// compacted ones, primary keys renumber like `Vec::remove`, and
    /// RESTRICT protects referenced rows.
    #[test]
    fn delete_update_roundtrip() {
        let mut db = tiny();
        // Visits with Severity = 0 are {0, 8}.
        let out = db.execute("DELETE FROM Visit WHERE Severity = 0").unwrap();
        let ExecOutcome::Delete(rep) = &out[0] else {
            panic!("not a delete outcome")
        };
        assert_eq!(rep.rows, 2);
        assert_eq!(db.stats().rows(TableId(1)), 14);

        // Rows are gone; surviving PKs renumber dense (old 1 → 0, ...).
        let out = db
            .query("SELECT Vis.VisID, Vis.Purpose FROM Visit Vis WHERE Vis.Severity <= 1")
            .unwrap();
        // Survivors with severity <= 1: old visits {1, 9} → logical {0, 7}.
        assert_eq!(
            out.rows.rows,
            vec![
                vec![Value::Int(0), Value::Text("Sclerosis".into())],
                vec![Value::Int(7), Value::Text("Sclerosis".into())],
            ]
        );

        // UPDATE rewrites hidden values, including fresh dict strings.
        let out = db
            .execute("UPDATE Visit SET Purpose = 'Recovered' WHERE Severity >= 6")
            .unwrap();
        let ExecOutcome::Update(rep) = &out[0] else {
            panic!("not an update outcome")
        };
        assert_eq!(rep.rows, 4); // old visits {6,7,14,15}
        let recovered = db
            .query("SELECT Vis.VisID FROM Visit Vis WHERE Vis.Purpose = 'Recovered'")
            .unwrap();
        assert_eq!(recovered.rows.rows.len(), 4);

        // RESTRICT: every doctor still has live visits.
        let err = db
            .execute("DELETE FROM Doctor WHERE Name = 'doc0'")
            .unwrap_err();
        assert!(err.to_string().contains("restricted"), "{err}");

        // The physical compaction changes nothing observable.
        let before = db
            .query("SELECT Vis.VisID, Vis.Purpose, Vis.Severity FROM Visit Vis WHERE Vis.Severity >= 0")
            .unwrap()
            .rows
            .rows;
        assert!(db.delta_rows() == 0);
        db.flush_deltas().unwrap();
        let after = db
            .query("SELECT Vis.VisID, Vis.Purpose, Vis.Severity FROM Visit Vis WHERE Vis.Severity >= 0")
            .unwrap()
            .rows
            .rows;
        assert_eq!(before, after, "flush-time compaction must be invisible");
        assert_eq!(after.len(), 14);

        // Now unreferenced: delete a doctor after its visits are gone.
        db.execute("DELETE FROM Visit WHERE DocID = 2").unwrap();
        db.execute("DELETE FROM Doctor WHERE DocID = 2").unwrap();
        assert_eq!(db.stats().rows(TableId(0)), 3);
        // FK values renumber with the referenced table: doctor 3 is now
        // logical 2.
        let out = db
            .query("SELECT Vis.DocID FROM Visit Vis WHERE Vis.Severity = 3")
            .unwrap();
        assert_eq!(
            out.rows.rows,
            vec![vec![Value::Int(2)], vec![Value::Int(2)]]
        );

        // Inserts after deletes: logical PK = live count.
        db.execute("INSERT INTO Doctor VALUES (3, 'docN', 'Japan')")
            .unwrap();
        let out = db
            .query("SELECT Doc.DocID FROM Doctor Doc WHERE Doc.Country = 'Japan'")
            .unwrap();
        assert_eq!(out.rows.rows, vec![vec![Value::Int(3)]]);
    }

    /// The index flush keys its delta entries with the codes the hidden
    /// store's dictionary rebuild reports: a fresh string inserted twice,
    /// a `CHAR` update to a fresh string, and a fresh string whose only
    /// row died before the flush all come out exact, under every plan.
    #[test]
    fn index_flush_keys_deltas_with_rebuilt_codes() {
        let mut db = tiny();
        for sql in [
            "INSERT INTO Visit VALUES (16, 5, 'Zoster', 1)",
            "INSERT INTO Visit VALUES (17, 6, 'Zoster', 2)",
            "INSERT INTO Visit VALUES (18, 7, 'Measles', 3)",
            "DELETE FROM Visit WHERE Purpose = 'Measles'",
            // Visits 3 and 11 (Sclerosis) move to a fresh string.
            "UPDATE Visit SET Purpose = 'Flu' WHERE Severity = 3",
        ] {
            db.execute(sql).unwrap();
        }
        let purposes = ["Checkup", "Flu", "Measles", "Sclerosis", "Zoster"];
        let by_purpose = |db: &GhostDb| -> Vec<Vec<Vec<Value>>> {
            purposes
                .iter()
                .map(|p| {
                    let sql = format!("SELECT Vis.VisID FROM Visit Vis WHERE Vis.Purpose = '{p}'");
                    let plans = db.plans(&sql).unwrap();
                    let rows = db.query_with_plan(&sql, &plans[0].plan).unwrap().rows.rows;
                    for cp in &plans[1..] {
                        let other = db.query_with_plan(&sql, &cp.plan).unwrap();
                        assert_eq!(other.rows.rows, rows, "plans disagree on {p}");
                    }
                    rows
                })
                .collect()
        };
        let before = by_purpose(&db);
        db.flush_deltas().unwrap();
        let after = by_purpose(&db);
        assert_eq!(before, after, "the flush must not move any posting");
        let ids =
            |v: &[i64]| -> Vec<Vec<Value>> { v.iter().map(|&i| vec![Value::Int(i)]).collect() };
        assert_eq!(after[1], ids(&[3, 11]), "Flu");
        assert!(after[2].is_empty(), "Measles died with its only row");
        assert_eq!(after[4], ids(&[16, 17]), "Zoster, inserted twice");
        assert_eq!(after[0].len() + after[3].len(), 14);
    }

    /// Mutation bus protocol: deletes/updates announce identities and
    /// visible halves only, and the report mentions wear + mutations.
    #[test]
    fn mutation_bus_frames_and_report() {
        let mut db = tiny();
        db.clear_trace();
        db.execute("DELETE FROM Visit WHERE Severity = 7").unwrap();
        db.execute("UPDATE Visit SET Severity = 1 WHERE Severity = 6")
            .unwrap();
        let kinds: Vec<String> = db
            .trace()
            .spy_frames()
            .iter()
            .map(|e| e.kind.to_string())
            .collect();
        assert!(kinds.iter().any(|k| k == "DeleteRows"), "{kinds:?}");
        assert!(kinds.iter().any(|k| k == "UpdateVisible"), "{kinds:?}");
        db.clear_trace();
        db.flush_deltas().unwrap();
        let kinds: Vec<String> = db
            .trace()
            .spy_frames()
            .iter()
            .map(|e| e.kind.to_string())
            .collect();
        assert!(kinds.iter().any(|k| k == "CompactRows"), "{kinds:?}");
        let report = db.device_report();
        assert!(report.contains("wear:"), "{report}");
        assert!(report.contains("unbounded"), "{report}");
    }

    #[test]
    fn insert_validation_rejects_bad_rows() {
        let mut db = tiny();
        // Sparse primary key.
        assert!(db
            .execute("INSERT INTO Visit VALUES (99, 1, 'Checkup', 0)")
            .is_err());
        // Foreign key out of range.
        assert!(db
            .execute("INSERT INTO Visit VALUES (16, 1, 'Checkup', 9)")
            .is_err());
        // Type mismatch.
        assert!(db
            .execute("INSERT INTO Visit VALUES (16, 'high', 'Checkup', 0)")
            .is_err());
        // CHAR capacity: Doctor.Country is CHAR(20).
        assert!(db
            .execute(&format!(
                "INSERT INTO Doctor VALUES (4, 'd', '{}')",
                "x".repeat(30)
            ))
            .is_err());
        // Multi-row statements are atomic: a bad later row means no row
        // of the batch is applied.
        assert!(db
            .execute("INSERT INTO Visit VALUES (16, 1, 'Checkup', 0), (16, 2, 'Checkup', 0)")
            .is_err());
        // Failed statements leave no delta behind.
        assert_eq!(db.delta_rows(), 0);
        // And the DDL path stays closed post-load.
        assert!(db
            .execute("CREATE TABLE T (id INTEGER PRIMARY KEY)")
            .is_err());
    }

    #[test]
    fn automatic_flush_trips_at_threshold() {
        let stmts = parse_statements(DDL).unwrap();
        let schema = bind_schema(&stmts).unwrap();
        let mut data = Dataset::empty(&schema);
        data.push_row(
            TableId(0),
            vec![
                Value::Int(0),
                Value::Text("doc0".into()),
                Value::Text("France".into()),
            ],
        )
        .unwrap();
        let mut config = DeviceConfig::default_2007();
        config.flash.page_size = 256;
        config.flash.pages_per_block = 8;
        config.flash.num_blocks = 2048;
        config.delta_flush_rows = 3;
        let mut db = GhostDb::create(DDL, config, &data).unwrap();
        let r = db
            .insert_rows(
                TableId(1),
                vec![
                    vec![
                        Value::Int(0),
                        Value::Int(1),
                        Value::Text("Checkup".into()),
                        Value::Int(0),
                    ],
                    vec![
                        Value::Int(1),
                        Value::Int(2),
                        Value::Text("Checkup".into()),
                        Value::Int(0),
                    ],
                ],
            )
            .unwrap();
        assert!(!r.flushed);
        assert_eq!(db.delta_rows(), 2);
        let r = db
            .insert_rows(
                TableId(1),
                vec![vec![
                    Value::Int(2),
                    Value::Int(3),
                    Value::Text("Checkup".into()),
                    Value::Int(0),
                ]],
            )
            .unwrap();
        assert!(r.flushed, "threshold of 3 delta rows must trip the flush");
        assert_eq!(db.delta_rows(), 0);
        let out = db
            .query("SELECT Vis.VisID FROM Visit Vis WHERE Vis.Severity >= 2")
            .unwrap();
        assert_eq!(out.rows.rows.len(), 2);
    }

    /// The delta flush rebuilds per-column statistics: range estimates
    /// must track merged inserts instead of staying frozen at load time.
    #[test]
    fn flush_rebuilds_histograms() {
        let mut db = tiny();
        // Base severities are 0..8; insert 32 visits far above that
        // range, so a stale load-time histogram would estimate ~0
        // selectivity for `Severity > 50`.
        let rows: Vec<Vec<Value>> = (16..48i64)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Int(100 + i),
                    Value::Text("Checkup".into()),
                    Value::Int(i % 4),
                ]
            })
            .collect();
        db.insert_rows(TableId(1), rows).unwrap();
        db.flush_deltas().unwrap();

        let sev = ghostdb_catalog::ColumnRef {
            table: TableId(1),
            column: ColumnId(1),
        };
        let stats = db.stats().column(sev).expect("severity stats");
        assert_eq!(stats.rows, 48);
        let sel = stats.selectivity(ghostdb_types::ScalarOp::Gt, &Value::Int(50));
        let truth = 32.0 / 48.0;
        assert!(
            (sel - truth).abs() < 0.15,
            "rebuilt histogram estimates {sel:.2}, truth {truth:.2}"
        );
        // Hidden fixed column (the DocID fk) rebuilt too: distinct
        // tracks the merged key set exactly.
        let fk = ghostdb_catalog::ColumnRef {
            table: TableId(1),
            column: ColumnId(3),
        };
        let fk_stats = db.stats().column(fk).expect("fk stats");
        assert_eq!(fk_stats.rows, 48);
        assert_eq!(fk_stats.distinct, 4);
    }

    /// Seal, insert (WAL-only), "unplug", and remount from the NAND
    /// alone: the replayed deltas and the sealed base must answer
    /// queries exactly like the live instance did.
    #[test]
    fn seal_mount_roundtrip_with_wal_replay() {
        let mut db = tiny();
        let report = db.seal().unwrap();
        assert_eq!(report.epoch, 1);
        assert!(report.image_bytes > 0);
        db.execute("INSERT INTO Doctor VALUES (4, 'doc4', 'Japan')")
            .unwrap();
        db.execute("INSERT INTO Visit VALUES (16, 7, 'Sclerosis', 4)")
            .unwrap();
        assert_eq!(db.delta_rows(), 2);
        let sql = "SELECT Vis.VisID, Doc.Name FROM Visit Vis, Doctor Doc \
                   WHERE Vis.Purpose = 'Sclerosis' AND Vis.DocID = Doc.DocID";
        let live = db.query(sql).unwrap().rows.rows;
        let report = db.device_report();
        assert!(report.contains("sealed epoch 1"), "{report}");

        // Unplug the key.
        let nand = db.nand().clone();
        let config = db.config().clone();
        drop(db);

        let db2 = GhostDb::mount(nand, config).unwrap();
        assert_eq!(db2.sealed_epoch(), Some(1));
        assert_eq!(db2.delta_rows(), 2, "WAL batches replay into the delta");
        assert_eq!(db2.query(sql).unwrap().rows.rows, live);
        assert_eq!(db2.stats().rows(TableId(1)), 17);
    }

    /// A WAL that fills up forces a delta flush (which re-seals and
    /// truncates) and the append retries — inserts never fail just
    /// because the log region is small.
    #[test]
    fn wal_full_triggers_flush_and_retry() {
        let stmts = parse_statements(DDL).unwrap();
        let schema = bind_schema(&stmts).unwrap();
        let mut data = Dataset::empty(&schema);
        data.push_row(
            TableId(0),
            vec![
                Value::Int(0),
                Value::Text("doc0".into()),
                Value::Text("France".into()),
            ],
        )
        .unwrap();
        let mut config = DeviceConfig::default_2007().with_delta_flush_rows(0);
        config.flash.page_size = 256;
        config.flash.pages_per_block = 8;
        config.flash.num_blocks = 2048;
        config.flash.wal_blocks = 1; // 8 pages: fills after a few batches
        let mut db = GhostDb::create(DDL, config, &data).unwrap();
        db.seal().unwrap();
        for i in 0..24i64 {
            db.insert_rows(
                TableId(1),
                vec![vec![
                    Value::Int(i),
                    Value::Int(i % 5),
                    Value::Text("Checkup".into()),
                    Value::Int(0),
                ]],
            )
            .unwrap();
        }
        assert!(
            db.sealed_epoch().unwrap() > 1,
            "forced flushes must have re-sealed"
        );
        // Everything survives a power cycle.
        let nand = db.nand().clone();
        let config = db.config().clone();
        drop(db);
        let db = GhostDb::mount(nand, config).unwrap();
        let out = db
            .query("SELECT Vis.VisID FROM Visit Vis WHERE Vis.Severity >= 0")
            .unwrap();
        assert_eq!(out.rows.rows.len(), 24);
    }

    /// A flush on a sealed instance re-seals (new epoch) and truncates
    /// the WAL; the remount then needs no replay.
    #[test]
    fn flush_reseals_and_truncates_wal() {
        let mut db = tiny();
        db.seal().unwrap();
        db.execute("INSERT INTO Visit VALUES (16, 7, 'Sclerosis', 1)")
            .unwrap();
        assert!(db.flush_deltas().unwrap() > 0);
        assert_eq!(db.sealed_epoch(), Some(2));
        let nand = db.nand().clone();
        let config = db.config().clone();
        drop(db);
        let db2 = GhostDb::mount(nand, config).unwrap();
        assert_eq!(db2.sealed_epoch(), Some(2));
        assert_eq!(db2.delta_rows(), 0, "nothing left to replay");
        let out = db2
            .query("SELECT Vis.VisID FROM Visit Vis WHERE Vis.Severity = 7")
            .unwrap();
        assert_eq!(out.rows.rows.len(), 3); // visits 7, 15, 16
    }

    #[test]
    fn projection_of_fk_and_pk_columns() {
        let db = tiny();
        let out = db
            .query(
                "SELECT Vis.DocID, Vis.VisID FROM Visit Vis \
                 WHERE Vis.Severity = 0",
            )
            .unwrap();
        // Visits {0, 8}: docid i%4 -> {0, 0}.
        assert_eq!(
            out.rows.rows,
            vec![
                vec![Value::Int(0), Value::Int(0)],
                vec![Value::Int(0), Value::Int(8)],
            ]
        );
        let _ = RowId(0);
    }
}
