//! The device-resident hidden column store.
//!
//! Layouts (all on flash, all direct-addressed by dense row id):
//!
//! * `INTEGER` / `DATE` columns: 8-byte **order-preserving keys**
//!   ([`Value::order_key`]) at byte offset `row * 8`.
//! * `CHAR(n)` columns: an **order-preserving dictionary** (strings sorted
//!   lexicographically; code = rank) plus a codes segment with a 4-byte
//!   code at `row * 4`. The dictionary itself lives on flash — offsets
//!   segment (`u32` start offsets, one extra for the end) and a bytes
//!   segment — and is probed by on-flash binary search, because hidden
//!   values may not be cached in spyable host memory and the chip's RAM
//!   cannot hold a megabyte dictionary anyway.
//!
//! Every predicate over a hidden column reduces to a [`KeyRange`] over
//! this key space; the climbing indexes in `ghostdb-index` use the same
//! reduction, so scans and index probes are interchangeable plan
//! alternatives.
//!
//! Column segments are the volume's *long-lived* residents: they are
//! written at load (and rebuilt by delta flushes) and then interleave
//! with every query's temp spills. All access goes through
//! [`Volume::read_at`]/[`SegmentReader`] logical pages, so the flash
//! garbage collector is free to migrate a column's pages when compacting
//! the blocks around them — the store never sees physical addresses.
//!
//! # The post-load write path (LSM-style deltas + liveness)
//!
//! Since PR 3 the store is **mutable after load**: [`HiddenStore::append_row`]
//! accepts new rows whose hidden halves accumulate in a RAM-resident
//! **delta** on top of the immutable flash base. Reads union the two:
//! row ids below [`HiddenStore::base_rows`] resolve on flash, ids at or
//! above it resolve in the delta. `CHAR` columns pose the one wrinkle —
//! the base dictionary's rank encoding cannot absorb a new string in
//! place — so each dict column keeps a **delta dictionary** of unseen
//! strings (codes `entries + i`, identity-only, *not* order-preserving)
//! and predicates over delta rows are evaluated on the **values**
//! directly ([`HiddenStore::matches_at`], [`HiddenStore::predicate_scan`])
//! rather than through the base key space.
//!
//! PR 5 generalized the layer from "base + appended delta" to
//! **base + delta + liveness**:
//!
//! * every table carries a tombstone [`LiveSet`] over its *physical* id
//!   space — a `DELETE` flips bits, nothing moves on flash. The dense,
//!   user-visible primary keys are the **logical** (live-rank) view of
//!   that bitmap: [`HiddenStore::live_rank`]/[`HiddenStore::select_live`]
//!   translate at the engine's boundaries, and are the identity while
//!   nothing is dead;
//! * an `UPDATE` of a flash-resident row lands in a per-column
//!   **overwrite overlay** ([`HiddenStore::update_cell`]) consulted by
//!   every read and scan before the segment bytes; overlay values of
//!   dict columns route through the same delta dictionary as inserts,
//!   and predicates over them are evaluated value-exact;
//! * [`HiddenStore::flush`] merges everything into rebuilt flash
//!   segments: delta rows append, overlays merge in place, **dead rows
//!   are physically dropped** with survivors renumbered dense (foreign
//!   keys re-pointed through the referenced table's remap), and dict
//!   columns re-rank. The [`FlushRemaps`] it returns — dictionary code
//!   maps plus per-table id maps — drive the index rebuild and the PC's
//!   mirror compaction in the same maintenance pass; the freed segments
//!   (the dead rows' bytes) go to PR 2's garbage collector.

use std::collections::{BTreeMap, HashMap};

use ghostdb_catalog::{ColumnRole, Predicate, Schema};
use ghostdb_flash::{Segment, SegmentManifest, SegmentReader, Volume};
use ghostdb_ram::RamScope;
use ghostdb_types::{
    ColumnId, DataType, GhostError, LiveSet, Result, RowId, ScalarOp, TableId, Value, Wire,
};

use crate::dataset::Dataset;

/// Inclusive range of order keys matched by a predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyRange {
    /// Smallest matching key.
    pub lo: u64,
    /// Largest matching key.
    pub hi: u64,
}

impl KeyRange {
    /// Membership test.
    #[inline]
    pub fn contains(&self, k: u64) -> bool {
        self.lo <= k && k <= self.hi
    }
}

/// Translate `op` + an exact key into a key range over a dense-ordered
/// key space (`None` = provably empty).
pub fn key_range_for(op: ScalarOp, key: u64, key_max: u64) -> Option<KeyRange> {
    match op {
        ScalarOp::Eq => Some(KeyRange { lo: key, hi: key }),
        ScalarOp::Lt => key.checked_sub(1).map(|hi| KeyRange { lo: 0, hi }),
        ScalarOp::Le => Some(KeyRange { lo: 0, hi: key }),
        ScalarOp::Gt => {
            if key >= key_max {
                None
            } else {
                Some(KeyRange {
                    lo: key + 1,
                    hi: key_max,
                })
            }
        }
        ScalarOp::Ge => Some(KeyRange {
            lo: key,
            hi: key_max,
        }),
    }
}

#[derive(Debug, Clone)]
enum ColumnStore {
    /// 8-byte order keys; decodes through `ty`.
    Fixed { ty: DataType, keys: Segment },
    /// Dictionary-coded text: 4-byte codes + on-flash dictionary.
    Dict {
        codes: Segment,
        offsets: Segment,
        bytes: Segment,
        entries: u32,
    },
}

#[derive(Debug, Clone)]
struct TableStore {
    rows: u32,
    /// Indexed by column id; `None` for visible columns (stored on the PC).
    columns: Vec<Option<ColumnStore>>,
}

/// RAM-resident appended values of one hidden column (rows
/// `base_rows..base_rows + values.len()`).
#[derive(Debug, Default, Clone)]
struct ColumnDelta {
    values: Vec<Value>,
    /// Dict columns only: appended strings absent from the base
    /// dictionary, in first-appearance order. Delta code = base
    /// `entries` + position — an identity code, **not** order-preserving
    /// relative to the base ranks.
    new_strings: Vec<String>,
}

/// Per-table delta: appended row count plus per-column value tails.
#[derive(Debug, Default, Clone)]
struct TableDelta {
    rows: u32,
    /// Parallel to the table's columns; empty vecs for visible columns.
    columns: Vec<ColumnDelta>,
    /// Value-rewrite overlays of **base** rows, per column (`UPDATE`s of
    /// rows already merged to flash; delta rows are rewritten in place).
    /// The overlay value is authoritative until the next flush rewrites
    /// the segment.
    overwrites: Vec<BTreeMap<u32, Value>>,
}

impl TableDelta {
    fn empty(columns: usize) -> TableDelta {
        TableDelta {
            rows: 0,
            columns: vec![ColumnDelta::default(); columns],
            overwrites: vec![BTreeMap::new(); columns],
        }
    }
}

/// Old→new code remap of one dict column after a flush rebuilt its
/// dictionary: `map[old_base_code] = new_code`, plus the new code of
/// every string the column held before the flush — base, delta and
/// overwrite alike. Index flushes use this to re-key directories and to
/// key their RAM deltas without searching the rebuilt dictionary on
/// flash.
#[derive(Debug, Clone)]
pub struct DictRemap {
    /// Table owning the rebuilt column.
    pub table: TableId,
    /// The rebuilt column.
    pub column: ColumnId,
    /// `map[old_code] = new_code` for the base dictionary's codes;
    /// `u32::MAX` when the string died with its last row.
    pub map: Vec<u32>,
    /// Every string of the column before the flush, ascending (host-side
    /// flush state, like the merge that produced it).
    pub strings: Vec<String>,
    /// `codes[i]` = the new code of `strings[i]`; `u32::MAX` when the
    /// string died with its last row.
    pub codes: Vec<u32>,
}

impl DictRemap {
    /// New code of `value`: `Ok(None)` when the string died with its
    /// last row and left the rebuilt dictionary.
    pub fn code_of(&self, value: &Value) -> Result<Option<u64>> {
        let s = value
            .as_text()
            .ok_or_else(|| GhostError::value("dict column expects text"))?;
        let i = self
            .strings
            .binary_search_by(|m| m.as_str().cmp(s))
            .map_err(|_| GhostError::corrupt("string missing from the flushed dictionary"))?;
        Ok(match self.codes[i] {
            u32::MAX => None,
            code => Some(code as u64),
        })
    }
}

/// The dictionary codes the secure bulk load assigned, alive only
/// during the load so the index builders and the statistics pass can
/// key a column without hashing its strings or searching the on-flash
/// dictionary.
#[derive(Debug, Default)]
pub struct LoadEncoders {
    /// Per dictionary column `(table, column)`: every row's code, in row
    /// order, and the dictionary's entry count.
    dicts: HashMap<(u16, u16), (Vec<u32>, u32)>,
}

impl LoadEncoders {
    /// Order keys of every row of a column, in row order: the load's
    /// dictionary codes for a dictionary column, [`Value::order_key`]
    /// of `values` (the column's load values) otherwise.
    pub fn keys(&self, table: TableId, column: ColumnId, values: &[Value]) -> Result<Vec<u64>> {
        match self.dicts.get(&(table.0, column.0)) {
            Some((codes, _)) => Ok(codes.iter().map(|&c| c as u64).collect()),
            None => values
                .iter()
                .map(|v| {
                    v.order_key()
                        .ok_or_else(|| GhostError::value("text value on a fixed-key column"))
                })
                .collect(),
        }
    }

    /// Distinct strings in a dictionary column (`None` for any other
    /// column).
    pub fn dict_entries(&self, table: TableId, column: ColumnId) -> Option<u32> {
        self.dicts.get(&(table.0, column.0)).map(|&(_, n)| n)
    }
}

/// Rank the strings of a `CHAR` column with one sort: the distinct
/// strings in ascending order, and each row's code (its string's rank).
/// Rows sort by a big-endian 8-byte prefix first, so most comparisons
/// never touch the strings; zero padding keeps prefix order consistent
/// with string order, and equal prefixes fall back to the full strings.
fn rank_strings(values: &[Value]) -> Result<(Vec<&str>, Vec<u32>)> {
    let texts: Vec<&str> = values
        .iter()
        .map(|v| v.as_text())
        .collect::<Option<_>>()
        .ok_or_else(|| GhostError::corrupt("non-text value in CHAR column"))?;
    let prefix = |s: &str| {
        let mut p = [0u8; 8];
        let n = s.len().min(8);
        p[..n].copy_from_slice(&s.as_bytes()[..n]);
        u64::from_be_bytes(p)
    };
    let mut order: Vec<(u64, u32)> = texts
        .iter()
        .enumerate()
        .map(|(r, s)| (prefix(s), r as u32))
        .collect();
    order.sort_unstable_by(|a, b| {
        a.0.cmp(&b.0)
            .then_with(|| texts[a.1 as usize].cmp(texts[b.1 as usize]))
    });
    let mut uniq: Vec<&str> = Vec::new();
    let mut codes = vec![0u32; texts.len()];
    for (_, r) in order {
        let s = texts[r as usize];
        if uniq.last() != Some(&s) {
            uniq.push(s);
        }
        codes[r as usize] = uniq.len() as u32 - 1;
    }
    Ok((uniq, codes))
}

/// Remaps a delta flush reports to the index layer: dictionary code
/// remaps of rebuilt `CHAR` columns plus, when rows died, the per-table
/// physical-id remap of the compaction (dead rows dropped, survivors
/// renumbered dense).
#[derive(Debug, Default)]
pub struct FlushRemaps {
    /// Old→new code maps of rebuilt dictionaries.
    pub dicts: Vec<DictRemap>,
    /// Per table (index = table id): `Some(map)` when the flush
    /// compacted it — `map[old_physical] = new id`, `u32::MAX` for dead
    /// rows; `None` when ids were unchanged (identity).
    pub ids: Vec<Option<Vec<u32>>>,
}

impl FlushRemaps {
    /// Map one physical id of `table` through the compaction: `None`
    /// for dead rows, the (possibly identical) new id otherwise.
    pub fn map_id(&self, table: TableId, id: u32) -> Option<u32> {
        match self.ids.get(table.index()).and_then(|m| m.as_ref()) {
            None => Some(id),
            Some(m) => match m.get(id as usize) {
                Some(&n) if n != u32::MAX => Some(n),
                _ => None,
            },
        }
    }

    /// Did the flush renumber any table?
    pub fn any_compaction(&self) -> bool {
        self.ids.iter().any(|m| m.is_some())
    }
}

/// The hidden half of the database: an immutable flash base per column
/// plus a RAM-resident delta of post-load appends, a tombstone
/// [`LiveSet`] per table, and value-rewrite overlays for updated rows.
///
/// `Clone` produces a read-coherent frozen copy for snapshot sessions:
/// the flash bases are shared (`Segment` page lists are `Arc`ed, and
/// the volume handle points at the same part), while the RAM-resident
/// deltas, overlays, and tombstone sets — all bounded by the flush
/// threshold — are copied, so later writer mutations never show
/// through.
#[derive(Debug, Clone)]
pub struct HiddenStore {
    volume: Volume,
    tables: Vec<TableStore>,
    /// Post-load appends + overwrite overlays, parallel to `tables`.
    deltas: Vec<TableDelta>,
    /// Per-table liveness over the physical id space (base + delta).
    live: Vec<LiveSet>,
}

impl HiddenStore {
    /// Bulk-load the hidden columns of `data` onto `volume` (secure
    /// setting). Returns the store and transient [`LoadEncoders`] for the
    /// index builders.
    pub fn build(
        volume: &Volume,
        scope: &RamScope,
        schema: &Schema,
        data: &Dataset,
    ) -> Result<(HiddenStore, LoadEncoders)> {
        let mut tables = Vec::with_capacity(schema.table_count());
        let mut encoders = LoadEncoders::default();
        for (ti, tdef) in schema.tables().iter().enumerate() {
            let tdata = &data.tables[ti];
            let mut columns = Vec::with_capacity(tdef.columns.len());
            for (ci, cdef) in tdef.columns.iter().enumerate() {
                if !cdef.visibility.is_hidden() {
                    columns.push(None);
                    continue;
                }
                let values = &tdata.columns[ci];
                let store = match cdef.ty {
                    DataType::Integer | DataType::Date => {
                        let mut w = volume.writer(scope)?;
                        for v in values {
                            let key = v.order_key().ok_or_else(|| {
                                GhostError::corrupt("non-numeric value in fixed column")
                            })?;
                            w.write(&key.to_le_bytes())?;
                        }
                        ColumnStore::Fixed {
                            ty: cdef.ty,
                            keys: w.finish()?,
                        }
                    }
                    DataType::Char(_) => {
                        // Order-preserving dictionary.
                        let (uniq, row_codes) = rank_strings(values)?;
                        let mut offsets = volume.writer(scope)?;
                        let mut bytes = volume.writer(scope)?;
                        let mut off = 0u32;
                        for s in &uniq {
                            offsets.write(&off.to_le_bytes())?;
                            bytes.write(s.as_bytes())?;
                            off += s.len() as u32;
                        }
                        offsets.write(&off.to_le_bytes())?;
                        let mut codes = volume.writer(scope)?;
                        for code in &row_codes {
                            codes.write(&code.to_le_bytes())?;
                        }
                        let entries = uniq.len() as u32;
                        encoders
                            .dicts
                            .insert((ti as u16, ci as u16), (row_codes, entries));
                        ColumnStore::Dict {
                            codes: codes.finish()?,
                            offsets: offsets.finish()?,
                            bytes: bytes.finish()?,
                            entries,
                        }
                    }
                };
                columns.push(Some(store));
            }
            tables.push(TableStore {
                rows: tdata.rows() as u32,
                columns,
            });
        }
        let deltas = tables
            .iter()
            .map(|t| TableDelta::empty(t.columns.len()))
            .collect();
        let live = tables.iter().map(|t| LiveSet::new_full(t.rows)).collect();
        Ok((
            HiddenStore {
                volume: volume.clone(),
                tables,
                deltas,
                live,
            },
            encoders,
        ))
    }

    /// Number of rows in `table`, **including** un-flushed delta rows
    /// (the replicated primary keys are dense, so the count is the whole
    /// key set).
    pub fn row_count(&self, table: TableId) -> u32 {
        self.base_rows(table) + self.delta_rows(table)
    }

    /// Rows resident in the flash base (row ids below this resolve on
    /// flash, ids at or above it in the RAM delta).
    pub fn base_rows(&self, table: TableId) -> u32 {
        self.tables.get(table.index()).map(|t| t.rows).unwrap_or(0)
    }

    /// Un-flushed delta rows of `table`.
    pub fn delta_rows(&self, table: TableId) -> u32 {
        self.deltas.get(table.index()).map(|d| d.rows).unwrap_or(0)
    }

    /// Un-flushed delta rows summed over every table (the flush-trigger
    /// metric).
    pub fn total_delta_rows(&self) -> u64 {
        self.deltas.iter().map(|d| d.rows as u64).sum()
    }

    /// Un-flushed mutations of every kind: appended delta rows, resident
    /// tombstones, and overwritten base cells. This is what the
    /// auto-flush threshold compares against — a delete-heavy workload
    /// must trigger compaction just like an insert-heavy one.
    pub fn total_pending_mutations(&self) -> u64 {
        let dead: u64 = self.live.iter().map(|l| l.dead_count() as u64).sum();
        let over: u64 = self
            .deltas
            .iter()
            .flat_map(|d| d.overwrites.iter())
            .map(|m| m.len() as u64)
            .sum();
        self.total_delta_rows() + dead + over
    }

    /// The liveness set of `table` (physical id space, base + delta).
    pub fn liveness(&self, table: TableId) -> &LiveSet {
        &self.live[table.index()]
    }

    /// **Live** rows of `table` — the user-visible cardinality, and the
    /// logical primary-key domain.
    pub fn live_count(&self, table: TableId) -> u32 {
        self.live
            .get(table.index())
            .map(|l| l.live_count())
            .unwrap_or(0)
    }

    /// Is physical row `row` of `table` live?
    pub fn is_live(&self, table: TableId, row: RowId) -> bool {
        self.live
            .get(table.index())
            .map(|l| l.is_live(row.0))
            .unwrap_or(false)
    }

    /// Logical (dense, user-visible) id of a live physical row.
    pub fn live_rank(&self, table: TableId, row: RowId) -> u32 {
        self.live[table.index()].rank(row.0)
    }

    /// Physical row behind logical id `rank`.
    pub fn select_live(&self, table: TableId, rank: u32) -> Result<RowId> {
        self.live[table.index()].select(rank).map(RowId)
    }

    /// Mark physical rows of `table` dead. The caller (the engine's
    /// `delete_rows`) has already validated liveness and referential
    /// integrity; this only flips the tombstone bits.
    pub fn delete_rows_physical(&mut self, table: TableId, rows: &[u32]) -> Result<()> {
        self.live[table.index()].kill_many(rows)
    }

    /// Rewrite a **predicate** from the logical id space the user writes
    /// (dense primary keys over live rows) into the physical id space
    /// stored on flash and the PC. Attribute predicates pass through;
    /// PK/FK predicates translate their constant through the target
    /// table's rank/select map, which is strictly monotone on live rows,
    /// so every comparison operator is preserved. Identity while nothing
    /// is deleted.
    pub fn physical_predicate(&self, schema: &Schema, p: &Predicate) -> Predicate {
        let target = match schema.column_def(p.column).role {
            ColumnRole::PrimaryKey => p.column.table,
            ColumnRole::ForeignKey(t) => t,
            ColumnRole::Attribute => return p.clone(),
        };
        let live = &self.live[target.index()];
        let Value::Int(v) = p.value else {
            return p.clone();
        };
        if live.all_live() {
            return p.clone();
        }
        // Monotone embedding of the logical line into the physical one:
        // negatives stay below every id, live logicals map exactly, and
        // logicals past the live count map past the physical universe.
        let phys = if v < 0 {
            v
        } else if (v as u64) < live.live_count() as u64 {
            live.select(v as u32).expect("in range") as i64
        } else {
            live.universe() as i64 + (v - live.live_count() as i64)
        };
        Predicate {
            column: p.column,
            op: p.op,
            value: Value::Int(phys),
        }
    }

    /// Overwrite one hidden cell (the storage half of `UPDATE`). `row`
    /// is physical and must be live; the column must be hidden (visible
    /// cells are rewritten on the PC). Returns `true` when a `CHAR`
    /// value outside every known dictionary was minted (the catalog's
    /// incremental distinct signal).
    pub fn update_cell(
        &mut self,
        table: TableId,
        column: ColumnId,
        row: RowId,
        value: &Value,
    ) -> Result<bool> {
        let store = self.store(table, column)?;
        // Dict columns: register strings no dictionary has seen yet, so
        // overlay/delta keys stay resolvable (identity codes) and the
        // next flush absorbs them into the rebuilt dictionary.
        let mut minted = false;
        if let ColumnStore::Dict {
            offsets,
            bytes,
            entries,
            ..
        } = store
        {
            let s = value
                .as_text()
                .ok_or_else(|| GhostError::corrupt("non-text value in CHAR column"))?;
            let (offsets, bytes, entries) = (offsets.clone(), bytes.clone(), *entries);
            let in_base = entries > 0 && self.dict_lower_bound(&offsets, &bytes, entries, s)?.1;
            let delta = &mut self.deltas[table.index()].columns[column.index()];
            if !in_base && !delta.new_strings.iter().any(|d| d == s) {
                delta.new_strings.push(s.to_string());
                minted = true;
            }
        }
        let base = self.base_rows(table);
        if row.0 >= base {
            let slot = self.deltas[table.index()].columns[column.index()]
                .values
                .get_mut((row.0 - base) as usize)
                .ok_or_else(|| GhostError::exec(format!("row {row} out of range for {table}")))?;
            *slot = value.clone();
        } else {
            self.deltas[table.index()].overwrites[column.index()].insert(row.0, value.clone());
        }
        Ok(minted)
    }

    /// The overlay value of a base cell, if it was overwritten.
    fn overlay(&self, table: TableId, column: ColumnId, row: RowId) -> Option<&Value> {
        self.deltas
            .get(table.index())
            .and_then(|d| d.overwrites.get(column.index()))
            .and_then(|m| m.get(&row.0))
    }

    /// Order key of an arbitrary value in the column's *current* key
    /// space: fixed columns use the order key, dict columns resolve to a
    /// base rank or a delta-dictionary identity code (`entries + i`).
    fn key_of_value(&self, table: TableId, column: ColumnId, v: &Value) -> Result<u64> {
        match self.store(table, column)? {
            ColumnStore::Fixed { .. } => v
                .order_key()
                .ok_or_else(|| GhostError::corrupt("non-numeric value in fixed column")),
            ColumnStore::Dict {
                offsets,
                bytes,
                entries,
                ..
            } => {
                let s = v
                    .as_text()
                    .ok_or_else(|| GhostError::corrupt("non-text value in CHAR column"))?;
                let n = *entries;
                if n > 0 {
                    let (code, exact) = self.dict_lower_bound(offsets, bytes, n, s)?;
                    if exact {
                        return Ok(code as u64);
                    }
                }
                let delta = &self.deltas[table.index()].columns[column.index()];
                delta
                    .new_strings
                    .iter()
                    .position(|d| d == s)
                    .map(|i| n as u64 + i as u64)
                    .ok_or_else(|| GhostError::corrupt("string missing from delta dictionary"))
            }
        }
    }

    /// Append one validated row's hidden half to the delta. `values` is
    /// the **full** row in declaration order (visible columns are
    /// ignored here — the PC stores those). Returns the column ids that
    /// received a value no base or delta dictionary had seen before
    /// (for the catalog's incremental distinct counts).
    pub fn append_row(
        &mut self,
        schema: &Schema,
        table: TableId,
        values: &[Value],
    ) -> Result<Vec<u16>> {
        let tdef = schema.table(table);
        if values.len() != tdef.columns.len() {
            return Err(GhostError::catalog(format!(
                "append arity {} != column count {}",
                values.len(),
                tdef.columns.len()
            )));
        }
        let mut new_value_columns = Vec::new();
        for (ci, (cdef, v)) in tdef.columns.iter().zip(values).enumerate() {
            if !cdef.visibility.is_hidden() {
                continue;
            }
            // Dict columns: track strings the base dictionary cannot
            // encode (their rank space is frozen until the next flush).
            if let Some(ColumnStore::Dict {
                offsets,
                bytes,
                entries,
                ..
            }) = &self.tables[table.index()].columns[ci]
            {
                let s = v
                    .as_text()
                    .ok_or_else(|| GhostError::corrupt("non-text value in CHAR column"))?;
                let (offsets, bytes, entries) = (offsets.clone(), bytes.clone(), *entries);
                let in_base = entries > 0 && self.dict_lower_bound(&offsets, &bytes, entries, s)?.1;
                let delta = &mut self.deltas[table.index()].columns[ci];
                if !in_base && !delta.new_strings.iter().any(|d| d == s) {
                    delta.new_strings.push(s.to_string());
                    new_value_columns.push(ci as u16);
                }
            }
            self.deltas[table.index()].columns[ci]
                .values
                .push(v.clone());
        }
        self.deltas[table.index()].rows += 1;
        self.live[table.index()].push_live();
        Ok(new_value_columns)
    }

    fn store(&self, table: TableId, column: ColumnId) -> Result<&ColumnStore> {
        self.tables
            .get(table.index())
            .and_then(|t| t.columns.get(column.index()))
            .and_then(|c| c.as_ref())
            .ok_or_else(|| {
                GhostError::exec(format!(
                    "column {table}.{column} is not stored on the device"
                ))
            })
    }

    /// True if the device stores this column (i.e. it is hidden).
    pub fn has_column(&self, table: TableId, column: ColumnId) -> bool {
        self.store(table, column).is_ok()
    }

    /// The delta value of one cell (rows at or above the flash base).
    fn delta_value(&self, table: TableId, column: ColumnId, row: RowId) -> Result<&Value> {
        let base = self.base_rows(table);
        self.deltas
            .get(table.index())
            .and_then(|d| d.columns.get(column.index()))
            .and_then(|c| c.values.get((row.0 - base) as usize))
            .ok_or_else(|| GhostError::exec(format!("row {row} out of range for {table}")))
    }

    /// Raw order key of one cell. Delta rows (and overwritten base
    /// rows) of dict columns whose string is absent from the base
    /// dictionary get **identity** codes (`entries + i`) — usable for
    /// equality/hashing, not for order.
    pub fn key_at(&self, table: TableId, column: ColumnId, row: RowId) -> Result<u64> {
        if row.0 >= self.base_rows(table) {
            let v = self.delta_value(table, column, row)?.clone();
            return self.key_of_value(table, column, &v);
        }
        if let Some(v) = self.overlay(table, column, row) {
            let v = v.clone();
            return self.key_of_value(table, column, &v);
        }
        match self.store(table, column)? {
            ColumnStore::Fixed { keys, .. } => {
                let mut buf = [0u8; 8];
                self.volume
                    .read_at(keys, row.index() as u64 * 8, &mut buf)?;
                Ok(u64::from_le_bytes(buf))
            }
            ColumnStore::Dict { codes, .. } => {
                let mut buf = [0u8; 4];
                self.volume
                    .read_at(codes, row.index() as u64 * 4, &mut buf)?;
                Ok(u32::from_le_bytes(buf) as u64)
            }
        }
    }

    fn dict_entry(&self, offsets: &Segment, bytes: &Segment, code: u32) -> Result<String> {
        let mut b = [0u8; 8];
        self.volume.read_at(offsets, code as u64 * 4, &mut b)?;
        let start = u32::from_le_bytes(b[0..4].try_into().expect("4B")) as usize;
        let end = u32::from_le_bytes(b[4..8].try_into().expect("4B")) as usize;
        let mut s = vec![0u8; end - start];
        if !s.is_empty() {
            self.volume.read_at(bytes, start as u64, &mut s)?;
        }
        String::from_utf8(s).map_err(|_| GhostError::corrupt("non-utf8 dictionary entry"))
    }

    /// Decode one cell back into a [`Value`].
    pub fn value(
        &self,
        _scope: &RamScope,
        table: TableId,
        column: ColumnId,
        row: RowId,
    ) -> Result<Value> {
        if row.0 >= self.row_count(table) {
            return Err(GhostError::exec(format!(
                "row {row} out of range for {table}"
            )));
        }
        if row.0 >= self.base_rows(table) {
            self.store(table, column)?; // hidden-column check
            return Ok(self.delta_value(table, column, row)?.clone());
        }
        if let Some(v) = self.overlay(table, column, row) {
            self.store(table, column)?; // hidden-column check
            return Ok(v.clone());
        }
        match self.store(table, column)? {
            ColumnStore::Fixed { ty, keys } => {
                let mut buf = [0u8; 8];
                self.volume
                    .read_at(keys, row.index() as u64 * 8, &mut buf)?;
                Value::from_order_key(*ty, u64::from_le_bytes(buf))
            }
            ColumnStore::Dict {
                codes,
                offsets,
                bytes,
                ..
            } => {
                let mut buf = [0u8; 4];
                self.volume
                    .read_at(codes, row.index() as u64 * 4, &mut buf)?;
                let code = u32::from_le_bytes(buf);
                Ok(Value::Text(self.dict_entry(offsets, bytes, code)?))
            }
        }
    }

    /// Dictionary lower bound: the first code whose string is `>= probe`,
    /// plus whether that code is an exact match. Binary search over flash.
    fn dict_lower_bound(
        &self,
        offsets: &Segment,
        bytes: &Segment,
        entries: u32,
        probe: &str,
    ) -> Result<(u32, bool)> {
        let mut lo = 0u32;
        let mut hi = entries;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let s = self.dict_entry(offsets, bytes, mid)?;
            if s.as_str() < probe {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        if lo < entries {
            let s = self.dict_entry(offsets, bytes, lo)?;
            Ok((lo, s == probe))
        } else {
            Ok((lo, false))
        }
    }

    /// Reduce `column OP value` to a [`KeyRange`] over the column's key
    /// space. `Ok(None)` means the predicate provably matches nothing.
    pub fn key_range(
        &self,
        table: TableId,
        column: ColumnId,
        op: ScalarOp,
        value: &Value,
    ) -> Result<Option<KeyRange>> {
        match self.store(table, column)? {
            ColumnStore::Fixed { ty, .. } => {
                if !ty.admits(value) {
                    return Err(GhostError::value(format!(
                        "predicate value {value} does not match column type {ty}"
                    )));
                }
                let key = value.order_key().expect("fixed types have keys");
                Ok(key_range_for(op, key, u64::MAX))
            }
            ColumnStore::Dict {
                offsets,
                bytes,
                entries,
                ..
            } => {
                let s = value
                    .as_text()
                    .ok_or_else(|| GhostError::value("CHAR column predicate needs a text value"))?;
                let n = *entries;
                if n == 0 {
                    return Ok(None);
                }
                let (lb, exact) = self.dict_lower_bound(offsets, bytes, n, s)?;
                let max = (n - 1) as u64;
                Ok(match op {
                    ScalarOp::Eq => exact.then_some(KeyRange {
                        lo: lb as u64,
                        hi: lb as u64,
                    }),
                    ScalarOp::Lt => (lb > 0).then_some(KeyRange {
                        lo: 0,
                        hi: lb as u64 - 1,
                    }),
                    ScalarOp::Le => {
                        let hi = if exact { lb as i64 } else { lb as i64 - 1 };
                        (hi >= 0).then_some(KeyRange {
                            lo: 0,
                            hi: hi as u64,
                        })
                    }
                    ScalarOp::Gt => {
                        let lo = if exact { lb as u64 + 1 } else { lb as u64 };
                        (lo <= max).then_some(KeyRange { lo, hi: max })
                    }
                    ScalarOp::Ge => ((lb as u64) <= max).then_some(KeyRange {
                        lo: lb as u64,
                        hi: max,
                    }),
                })
            }
        }
    }

    /// Does row `row` satisfy `column OP value`? Base rows test their
    /// stored key against `base_range` (precomputed once per predicate
    /// via [`key_range`](Self::key_range); `None` = no base row can
    /// match); delta rows — and overwritten base rows — compare their
    /// RAM-resident **value** directly, which stays exact even for
    /// strings the base dictionary cannot encode.
    pub fn matches_at(
        &self,
        table: TableId,
        column: ColumnId,
        row: RowId,
        op: ScalarOp,
        value: &Value,
        base_range: Option<KeyRange>,
    ) -> Result<bool> {
        if row.0 >= self.base_rows(table) {
            let v = self.delta_value(table, column, row)?;
            return op.matches(v, value);
        }
        if let Some(v) = self.overlay(table, column, row) {
            return op.matches(v, value);
        }
        match base_range {
            None => Ok(false),
            Some(r) => Ok(r.contains(self.key_at(table, column, row)?)),
        }
    }

    /// Exact order key of `value` in the column's current key space
    /// (dictionary probes resolve on flash). `Ok(None)` when a dict
    /// column does not contain the string. An index flush asks this only
    /// for columns whose dictionary the [`flush`](Self::flush) left as
    /// it was; a rebuilt one's codes come with its [`DictRemap`].
    pub fn encode_value(
        &self,
        table: TableId,
        column: ColumnId,
        value: &Value,
    ) -> Result<Option<u64>> {
        match self.store(table, column)? {
            ColumnStore::Fixed { .. } => value
                .order_key()
                .map(Some)
                .ok_or_else(|| GhostError::value("text value on a fixed-key column")),
            ColumnStore::Dict {
                offsets,
                bytes,
                entries,
                ..
            } => {
                let s = value
                    .as_text()
                    .ok_or_else(|| GhostError::value("dict column expects text"))?;
                if *entries > 0 {
                    let (code, exact) = self.dict_lower_bound(offsets, bytes, *entries, s)?;
                    if exact {
                        return Ok(Some(code as u64));
                    }
                }
                Ok(None)
            }
        }
    }

    /// Delta row ids matching `column OP value` (ascending; value-exact
    /// comparison, so delta-dictionary strings behave correctly).
    fn delta_matches(
        &self,
        table: TableId,
        column: ColumnId,
        op: ScalarOp,
        value: &Value,
    ) -> Result<Vec<RowId>> {
        let base = self.base_rows(table);
        let mut out = Vec::new();
        if let Some(d) = self
            .deltas
            .get(table.index())
            .and_then(|d| d.columns.get(column.index()))
        {
            for (i, v) in d.values.iter().enumerate() {
                if op.matches(v, value)? {
                    out.push(RowId(base + i as u32));
                }
            }
        }
        Ok(out)
    }

    /// Stream every `(row id, order key)` of a stored column — the raw
    /// scan primitive under the index-free baselines (grace hash join)
    /// and the statistics rebuild. Delta rows follow the base with
    /// [`key_at`](Self::key_at) keys; overwritten base cells substitute
    /// their overlay key. Row ids are **physical** and the scan includes
    /// tombstoned rows — callers that need the live view filter through
    /// [`liveness`](Self::liveness).
    pub fn key_scan(&self, scope: &RamScope, table: TableId, column: ColumnId) -> Result<KeyScan> {
        let (reader, width) = match self.store(table, column)? {
            ColumnStore::Fixed { keys, .. } => (self.volume.reader(scope, keys)?, 8),
            ColumnStore::Dict { codes, .. } => (self.volume.reader(scope, codes)?, 4),
        };
        let base = self.base_rows(table);
        let mut tail = Vec::new();
        for i in 0..self.delta_rows(table) {
            let row = RowId(base + i);
            tail.push((row, self.key_at(table, column, row)?));
        }
        let mut key_overrides = Vec::new();
        for (&row, v) in &self.deltas[table.index()].overwrites[column.index()] {
            key_overrides.push((row, self.key_of_value(table, column, v)?));
        }
        Ok(KeyScan {
            reader,
            width,
            next_row: 0,
            rows: base,
            key_overrides,
            override_pos: 0,
            tail,
            tail_pos: 0,
        })
    }

    /// Stream the row ids whose key falls in `range`, scanning the whole
    /// column off flash (the paper's index-free fallback). Delta rows
    /// are matched through their [`key_at`](Self::key_at) keys; prefer
    /// [`predicate_scan`](Self::predicate_scan) for predicate semantics
    /// over delta-dictionary strings.
    pub fn filter_scan(
        &self,
        scope: &RamScope,
        table: TableId,
        column: ColumnId,
        range: KeyRange,
    ) -> Result<FilterScan> {
        let (reader, width) = match self.store(table, column)? {
            ColumnStore::Fixed { keys, .. } => (self.volume.reader(scope, keys)?, 8),
            ColumnStore::Dict { codes, .. } => (self.volume.reader(scope, codes)?, 4),
        };
        let base = self.base_rows(table);
        let mut tail = Vec::new();
        for i in 0..self.delta_rows(table) {
            let row = RowId(base + i);
            if range.contains(self.key_at(table, column, row)?) {
                tail.push(row);
            }
        }
        let mut overrides = Vec::new();
        for (&row, v) in &self.deltas[table.index()].overwrites[column.index()] {
            overrides.push((row, range.contains(self.key_of_value(table, column, v)?)));
        }
        Ok(FilterScan {
            reader,
            width,
            range,
            next_row: 0,
            rows: base,
            scanned: 0,
            overrides,
            override_pos: 0,
            tail,
            tail_pos: 0,
        })
    }

    /// Predicate-level scan: base rows filter through the key-space
    /// reduction, delta rows by direct value comparison. This is the
    /// delta-aware face of [`filter_scan`](Self::filter_scan) the
    /// executor uses.
    pub fn predicate_scan(
        &self,
        scope: &RamScope,
        table: TableId,
        column: ColumnId,
        op: ScalarOp,
        value: &Value,
    ) -> Result<FilterScan> {
        let base_range = self.key_range(table, column, op, value)?;
        let (reader, width) = match self.store(table, column)? {
            ColumnStore::Fixed { keys, .. } => (self.volume.reader(scope, keys)?, 8),
            ColumnStore::Dict { codes, .. } => (self.volume.reader(scope, codes)?, 4),
        };
        let tail = self.delta_matches(table, column, op, value)?;
        // Overwritten base cells decide by value — exact even for
        // strings the base dictionary cannot encode.
        let overwrites = &self.deltas[table.index()].overwrites[column.index()];
        let mut overrides = Vec::with_capacity(overwrites.len());
        for (&row, v) in overwrites {
            overrides.push((row, op.matches(v, value)?));
        }
        // A `None` range proves no *unmodified* base row matches; the
        // scan still has to cover overwritten rows, whose new value may
        // match regardless of the base key space.
        let rows = if base_range.is_some() || !overrides.is_empty() {
            self.base_rows(table)
        } else {
            0
        };
        Ok(FilterScan {
            reader,
            width,
            range: base_range.unwrap_or(KeyRange { lo: 1, hi: 0 }),
            next_row: 0,
            rows,
            scanned: 0,
            overrides,
            override_pos: 0,
            tail,
            tail_pos: 0,
        })
    }

    /// Merge every un-flushed mutation into rebuilt flash segments and
    /// free the old ones (PR 2's GC reclaims the space):
    ///
    /// * appended delta rows land after the surviving base rows;
    /// * **tombstoned rows are physically dropped** and the survivors
    ///   renumbered dense — the per-table old→new id map is reported in
    ///   [`FlushRemaps::ids`] so indexes, SKTs and the PC compact in the
    ///   same pass. Foreign-key columns rewrite their stored ids through
    ///   the *referenced* table's map (a table is rebuilt even when its
    ///   only change is a compacted FK target);
    /// * **overwritten cells** merge their overlay values in place;
    /// * dict columns rebuild the dictionary — re-ranking every code so
    ///   order-preservation covers absorbed strings — and report the
    ///   old→new code map ([`FlushRemaps::dicts`]). Strings whose last
    ///   referencing row died are **dropped from the rebuilt
    ///   dictionary** (their bytes and offset slots reclaimed with the
    ///   per-row data); their remap entry is `u32::MAX`, which tells
    ///   index compaction to drop the matching postings too.
    ///
    /// Afterwards every table is all-live over its new physical
    /// universe: logical and physical ids coincide again.
    pub fn flush(&mut self, scope: &RamScope, schema: &Schema) -> Result<FlushRemaps> {
        let volume = self.volume.clone();
        let id_remaps: Vec<Option<Vec<u32>>> = self
            .live
            .iter()
            .map(|l| (!l.all_live()).then(|| l.compaction_remap()))
            .collect();
        let mut dict_remaps = Vec::new();
        for ti in 0..self.tables.len() {
            let drows = self.deltas[ti].rows;
            let t_dead = id_remaps[ti].is_some();
            let tdef = schema.table(TableId(ti as u16));
            let base_rows = self.tables[ti].rows;
            for ci in 0..self.tables[ti].columns.len() {
                let Some(store) = self.tables[ti].columns[ci].clone() else {
                    continue;
                };
                let target_remap = match tdef.columns[ci].role {
                    ColumnRole::ForeignKey(t) => id_remaps[t.index()].as_deref(),
                    _ => None,
                };
                let has_overwrites = !self.deltas[ti].overwrites[ci].is_empty();
                if drows == 0 && !t_dead && !has_overwrites && target_remap.is_none() {
                    continue;
                }
                let overwrites = std::mem::take(&mut self.deltas[ti].overwrites[ci]);
                let delta = std::mem::take(&mut self.deltas[ti].columns[ci]);
                // Re-point a stored foreign-key id at its target's
                // post-compaction id. A live row referencing a dead
                // target would violate the delete-time RESTRICT check.
                let map_fk = |id: i64| -> Result<i64> {
                    match target_remap {
                        None => Ok(id),
                        Some(m) => match m.get(id as usize) {
                            Some(&n) if n != u32::MAX => Ok(n as i64),
                            _ => Err(GhostError::corrupt(
                                "live row references a deleted foreign-key target",
                            )),
                        },
                    }
                };
                match store {
                    ColumnStore::Fixed { ty, keys } => {
                        let map_key = |k: u64| -> Result<u64> {
                            if target_remap.is_none() {
                                return Ok(k);
                            }
                            let id = Value::from_order_key(ty, k)?
                                .as_int()
                                .ok_or_else(|| GhostError::corrupt("non-integer fk key"))?;
                            Ok(Value::Int(map_fk(id)?)
                                .order_key()
                                .expect("ints have order keys"))
                        };
                        let mut w = volume.writer(scope)?;
                        let mut reader = volume.reader(scope, &keys)?;
                        let mut buf = [0u8; 8];
                        for r in 0..base_rows {
                            reader.read_exact(&mut buf)?;
                            if !self.live[ti].is_live(r) {
                                continue;
                            }
                            let k = match overwrites.get(&r) {
                                Some(v) => v.order_key().ok_or_else(|| {
                                    GhostError::corrupt("non-numeric value in fixed column")
                                })?,
                                None => u64::from_le_bytes(buf),
                            };
                            w.write(&map_key(k)?.to_le_bytes())?;
                        }
                        drop(reader);
                        for (i, v) in delta.values.iter().enumerate() {
                            if !self.live[ti].is_live(base_rows + i as u32) {
                                continue;
                            }
                            let k = v.order_key().ok_or_else(|| {
                                GhostError::corrupt("non-numeric value in fixed column")
                            })?;
                            w.write(&map_key(k)?.to_le_bytes())?;
                        }
                        let new_keys = w.finish()?;
                        volume.free(keys)?;
                        self.tables[ti].columns[ci] =
                            Some(ColumnStore::Fixed { ty, keys: new_keys });
                    }
                    ColumnStore::Dict {
                        codes,
                        offsets,
                        bytes,
                        entries,
                    } => {
                        let mut base_strings = Vec::with_capacity(entries as usize);
                        for c in 0..entries {
                            base_strings.push(self.dict_entry(&offsets, &bytes, c)?);
                        }
                        let mut merged: Vec<String> = base_strings
                            .iter()
                            .cloned()
                            .chain(delta.new_strings.iter().cloned())
                            .collect();
                        merged.sort_unstable();
                        merged.dedup();
                        let code_of = |s: &str| -> Result<u32> {
                            merged
                                .binary_search_by(|m| m.as_str().cmp(s))
                                .map(|i| i as u32)
                                .map_err(|_| GhostError::corrupt("string missing from merge"))
                        };
                        let to_merged: Vec<u32> = base_strings
                            .iter()
                            .map(|s| code_of(s))
                            .collect::<Result<_>>()?;
                        // Pass 1 — one streaming read of the base codes:
                        // resolve every surviving row to its merged-space
                        // code, marking which strings are still
                        // referenced at all.
                        let mut referenced = vec![false; merged.len()];
                        let mut survivors: Vec<u32> = Vec::new();
                        let mut reader = volume.reader(scope, &codes)?;
                        let mut buf = [0u8; 4];
                        for r in 0..base_rows {
                            reader.read_exact(&mut buf)?;
                            if !self.live[ti].is_live(r) {
                                continue;
                            }
                            let m = match overwrites.get(&r) {
                                Some(v) => {
                                    let s = v.as_text().ok_or_else(|| {
                                        GhostError::corrupt("non-text in CHAR column")
                                    })?;
                                    code_of(s)?
                                }
                                None => to_merged[u32::from_le_bytes(buf) as usize],
                            };
                            referenced[m as usize] = true;
                            survivors.push(m);
                        }
                        drop(reader);
                        for (i, v) in delta.values.iter().enumerate() {
                            if !self.live[ti].is_live(base_rows + i as u32) {
                                continue;
                            }
                            let s = v
                                .as_text()
                                .ok_or_else(|| GhostError::corrupt("non-text in CHAR column"))?;
                            let m = code_of(s)?;
                            referenced[m as usize] = true;
                            survivors.push(m);
                        }
                        // Pass 2 — drop unreferenced strings, re-ranking
                        // the keepers dense (order preserved: `merged`
                        // is sorted and the drop is a filter).
                        let mut to_kept = vec![u32::MAX; merged.len()];
                        let mut kept = 0u32;
                        for (m, r) in referenced.iter().enumerate() {
                            if *r {
                                to_kept[m] = kept;
                                kept += 1;
                            }
                        }
                        let mut offs_w = volume.writer(scope)?;
                        let mut bytes_w = volume.writer(scope)?;
                        let mut off = 0u32;
                        for (m, s) in merged.iter().enumerate() {
                            if !referenced[m] {
                                continue;
                            }
                            offs_w.write(&off.to_le_bytes())?;
                            bytes_w.write(s.as_bytes())?;
                            off += s.len() as u32;
                        }
                        offs_w.write(&off.to_le_bytes())?;
                        let mut codes_w = volume.writer(scope)?;
                        for m in &survivors {
                            codes_w.write(&to_kept[*m as usize].to_le_bytes())?;
                        }
                        // Reported remap: old base code → final code,
                        // u32::MAX when the string died with its rows.
                        let remap: Vec<u32> =
                            to_merged.iter().map(|&m| to_kept[m as usize]).collect();
                        let new_store = ColumnStore::Dict {
                            codes: codes_w.finish()?,
                            offsets: offs_w.finish()?,
                            bytes: bytes_w.finish()?,
                            entries: kept,
                        };
                        volume.free(codes)?;
                        volume.free(offsets)?;
                        volume.free(bytes)?;
                        dict_remaps.push(DictRemap {
                            table: TableId(ti as u16),
                            column: ColumnId(ci as u16),
                            map: remap,
                            strings: merged,
                            codes: to_kept,
                        });
                        self.tables[ti].columns[ci] = Some(new_store);
                    }
                }
            }
            if drows > 0 || t_dead {
                self.tables[ti].rows = self.live[ti].live_count();
            }
            let n_cols = self.tables[ti].columns.len();
            self.deltas[ti] = TableDelta::empty(n_cols);
            self.live[ti] = LiveSet::new_full(self.tables[ti].rows);
        }
        Ok(FlushRemaps {
            dicts: dict_remaps,
            ids: id_remaps,
        })
    }
}

// --- durable-image manifest ----------------------------------------------

/// Durable description of one hidden column's flash layout. Holds only
/// segment pointers, types, and dictionary cardinalities — never a
/// hidden *value* (those stay inside the referenced segments on NAND).
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnManifest {
    /// 8-byte order-key column.
    Fixed {
        /// Decoding type.
        ty: DataType,
        /// The keys segment.
        keys: SegmentManifest,
    },
    /// Dictionary-coded CHAR column.
    Dict {
        /// The 4-byte codes segment.
        codes: SegmentManifest,
        /// The dictionary offsets segment.
        offsets: SegmentManifest,
        /// The dictionary bytes segment.
        bytes: SegmentManifest,
        /// Dictionary cardinality.
        entries: u32,
    },
}

impl Wire for ColumnManifest {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ColumnManifest::Fixed { ty, keys } => {
                out.push(0);
                ty.encode(out);
                keys.encode(out);
            }
            ColumnManifest::Dict {
                codes,
                offsets,
                bytes,
                entries,
            } => {
                out.push(1);
                codes.encode(out);
                offsets.encode(out);
                bytes.encode(out);
                entries.encode(out);
            }
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self> {
        match u8::decode(buf)? {
            0 => Ok(ColumnManifest::Fixed {
                ty: DataType::decode(buf)?,
                keys: SegmentManifest::decode(buf)?,
            }),
            1 => Ok(ColumnManifest::Dict {
                codes: SegmentManifest::decode(buf)?,
                offsets: SegmentManifest::decode(buf)?,
                bytes: SegmentManifest::decode(buf)?,
                entries: u32::decode(buf)?,
            }),
            t => Err(GhostError::corrupt(format!("column manifest tag {t}"))),
        }
    }
}

/// Durable description of one table's hidden half.
#[derive(Debug, Clone, PartialEq)]
pub struct TableManifest {
    /// Rows resident in the flash base.
    pub rows: u32,
    /// Per column (index = column id); `None` for visible columns.
    pub columns: Vec<Option<ColumnManifest>>,
}

impl Wire for TableManifest {
    fn encode(&self, out: &mut Vec<u8>) {
        self.rows.encode(out);
        self.columns.encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self> {
        Ok(TableManifest {
            rows: u32::decode(buf)?,
            columns: Vec::<Option<ColumnManifest>>::decode(buf)?,
        })
    }
}

/// Durable description of the whole hidden store (one entry per table).
#[derive(Debug, Clone, PartialEq)]
pub struct HiddenManifest {
    /// Per-table manifests, indexed by [`TableId`].
    pub tables: Vec<TableManifest>,
}

impl Wire for HiddenManifest {
    fn encode(&self, out: &mut Vec<u8>) {
        self.tables.encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self> {
        Ok(HiddenManifest {
            tables: Vec::<TableManifest>::decode(buf)?,
        })
    }
}

impl HiddenStore {
    /// Every logical flash page the store's base segments can read,
    /// appended to `out` — the set a snapshot session pins against
    /// flush-time frees. Unlike [`manifest`](Self::manifest) this works
    /// with pending mutations: the RAM delta needs no pinning, and the
    /// bases are exactly what a flush would retire.
    pub fn collect_lpns(&self, out: &mut Vec<u32>) {
        for t in &self.tables {
            for c in t.columns.iter().flatten() {
                match c {
                    ColumnStore::Fixed { keys, .. } => out.extend(keys.manifest().lpns),
                    ColumnStore::Dict {
                        codes,
                        offsets,
                        bytes,
                        ..
                    } => {
                        out.extend(codes.manifest().lpns);
                        out.extend(offsets.manifest().lpns);
                        out.extend(bytes.manifest().lpns);
                    }
                }
            }
        }
    }

    /// The store's durable manifest. Requires every mutation — appended
    /// rows, tombstones, overwrites — to be flushed first: the image
    /// format keeps un-flushed mutations in the WAL, not in the metadata
    /// segments.
    pub fn manifest(&self) -> Result<HiddenManifest> {
        if self.total_pending_mutations() != 0 {
            return Err(GhostError::exec(
                "hidden store manifest requires flushed mutations".to_string(),
            ));
        }
        let tables = self
            .tables
            .iter()
            .map(|t| TableManifest {
                rows: t.rows,
                columns: t
                    .columns
                    .iter()
                    .map(|c| {
                        c.as_ref().map(|c| match c {
                            ColumnStore::Fixed { ty, keys } => ColumnManifest::Fixed {
                                ty: *ty,
                                keys: keys.manifest(),
                            },
                            ColumnStore::Dict {
                                codes,
                                offsets,
                                bytes,
                                entries,
                            } => ColumnManifest::Dict {
                                codes: codes.manifest(),
                                offsets: offsets.manifest(),
                                bytes: bytes.manifest(),
                                entries: *entries,
                            },
                        })
                    })
                    .collect(),
            })
            .collect();
        Ok(HiddenManifest { tables })
    }

    /// Rebuild the store from a mounted volume and its sealed manifest —
    /// the mount path: no `Dataset`, no secure reload; every column
    /// segment resolves through the restored translation table.
    pub fn restore(volume: &Volume, manifest: &HiddenManifest) -> Result<HiddenStore> {
        let mut tables = Vec::with_capacity(manifest.tables.len());
        for tm in &manifest.tables {
            let mut columns = Vec::with_capacity(tm.columns.len());
            for cm in &tm.columns {
                columns.push(match cm {
                    None => None,
                    Some(ColumnManifest::Fixed { ty, keys }) => Some(ColumnStore::Fixed {
                        ty: *ty,
                        keys: volume.restore_manifest(keys)?,
                    }),
                    Some(ColumnManifest::Dict {
                        codes,
                        offsets,
                        bytes,
                        entries,
                    }) => Some(ColumnStore::Dict {
                        codes: volume.restore_manifest(codes)?,
                        offsets: volume.restore_manifest(offsets)?,
                        bytes: volume.restore_manifest(bytes)?,
                        entries: *entries,
                    }),
                });
            }
            tables.push(TableStore {
                rows: tm.rows,
                columns,
            });
        }
        let deltas = tables
            .iter()
            .map(|t| TableDelta::empty(t.columns.len()))
            .collect();
        let live = tables.iter().map(|t| LiveSet::new_full(t.rows)).collect();
        Ok(HiddenStore {
            volume: volume.clone(),
            tables,
            deltas,
            live,
        })
    }

    /// Replace the per-table liveness with the sets a sealed image
    /// carried (the tombstone half of the mount path). Universe sizes
    /// must agree with the restored segments.
    pub fn restore_liveness(&mut self, sets: &[LiveSet]) -> Result<()> {
        if sets.len() != self.tables.len() {
            return Err(GhostError::corrupt(
                "sealed tombstone sets do not match the table count",
            ));
        }
        for (t, s) in self.tables.iter().zip(sets) {
            if s.universe() != t.rows {
                return Err(GhostError::corrupt(
                    "sealed tombstone universe disagrees with the segment row count",
                ));
            }
        }
        self.live = sets.to_vec();
        Ok(())
    }
}

/// Raw `(row id, key)` scan over a stored column (see
/// [`HiddenStore::key_scan`]).
#[derive(Debug)]
pub struct KeyScan {
    reader: SegmentReader,
    width: usize,
    next_row: u32,
    rows: u32,
    /// `(row, overlay key)` of overwritten base cells, ascending.
    key_overrides: Vec<(u32, u64)>,
    override_pos: usize,
    /// Delta `(row, key)` pairs served after the flash base.
    tail: Vec<(RowId, u64)>,
    tail_pos: usize,
}

impl KeyScan {
    /// Next `(row id, order key)` pair, or `None` at end of column.
    pub fn next_entry(&mut self) -> Result<Option<(RowId, u64)>> {
        if self.next_row >= self.rows {
            let e = self.tail.get(self.tail_pos).copied();
            if e.is_some() {
                self.tail_pos += 1;
            }
            return Ok(e);
        }
        let row = self.next_row;
        self.next_row += 1;
        let mut buf = [0u8; 8];
        self.reader.read_exact(&mut buf[..self.width])?;
        let mut key = if self.width == 8 {
            u64::from_le_bytes(buf)
        } else {
            u32::from_le_bytes(buf[..4].try_into().expect("4B")) as u64
        };
        // Overwritten cells substitute their overlay key (the stored
        // byte was still consumed to keep the reader sequential).
        if let Some(&(orow, okey)) = self.key_overrides.get(self.override_pos) {
            if orow == row {
                key = okey;
                self.override_pos += 1;
            }
        }
        Ok(Some((RowId(row), key)))
    }
}

/// Streaming filter over a hidden column (see
/// [`HiddenStore::filter_scan`]).
#[derive(Debug)]
pub struct FilterScan {
    reader: SegmentReader,
    width: usize,
    range: KeyRange,
    next_row: u32,
    rows: u32,
    scanned: u64,
    /// `(row, matches)` decisions for overwritten base cells,
    /// ascending; the precomputed value-exact verdict overrides the
    /// stored key's range test.
    overrides: Vec<(u32, bool)>,
    override_pos: usize,
    /// Pre-matched delta row ids served after the flash base.
    tail: Vec<RowId>,
    tail_pos: usize,
}

impl FilterScan {
    /// Next matching row id, or `None` at end of column.
    pub fn next_id(&mut self) -> Result<Option<RowId>> {
        let mut buf = [0u8; 8];
        while self.next_row < self.rows {
            let row = self.next_row;
            self.next_row += 1;
            self.scanned += 1;
            self.reader.read_exact(&mut buf[..self.width])?;
            let key = if self.width == 8 {
                u64::from_le_bytes(buf)
            } else {
                u32::from_le_bytes(buf[..4].try_into().expect("4B")) as u64
            };
            let mut hit = self.range.contains(key);
            if let Some(&(orow, omatch)) = self.overrides.get(self.override_pos) {
                if orow == row {
                    hit = omatch;
                    self.override_pos += 1;
                }
            }
            if hit {
                return Ok(Some(RowId(row)));
            }
        }
        let id = self.tail.get(self.tail_pos).copied();
        if id.is_some() {
            self.tail_pos += 1;
            self.scanned += 1;
        }
        Ok(id)
    }

    /// Rows examined so far (the per-operator "tuples processed" stat).
    pub fn scanned(&self) -> u64 {
        self.scanned
    }

    /// Rows this scan will examine end to end: the base rows it covers
    /// (zero when the key range proved no base row can match) plus the
    /// pre-matched delta tail. The executor charges CPU per planned row.
    pub fn planned_rows(&self) -> u64 {
        self.rows as u64 + self.tail.len() as u64
    }
}

impl Iterator for FilterScan {
    type Item = Result<RowId>;
    fn next(&mut self) -> Option<Self::Item> {
        self.next_id().transpose()
    }
}

impl ghostdb_types::IdStream for FilterScan {
    fn next_id(&mut self) -> Result<Option<RowId>> {
        FilterScan::next_id(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghostdb_catalog::{SchemaBuilder, Visibility};
    use ghostdb_flash::Nand;
    use ghostdb_ram::RamBudget;
    use ghostdb_types::{Date, FlashConfig, SimClock};

    fn setup() -> (Volume, RamScope, Schema, Dataset) {
        let cfg = FlashConfig {
            page_size: 256,
            pages_per_block: 8,
            num_blocks: 512,
            ..FlashConfig::default_2007()
        };
        let volume = Volume::new(Nand::new(cfg, SimClock::new()));
        let scope = RamScope::new(&RamBudget::new(64 * 1024));
        let mut b = SchemaBuilder::new();
        b.table("Visit", "VisID")
            .column("Date", DataType::Date, Visibility::Hidden)
            .column("Purpose", DataType::Char(20), Visibility::Hidden)
            .column("Weight", DataType::Integer, Visibility::Visible);
        let schema = b.build().unwrap();
        let purposes = ["Checkup", "Diabetes", "Flu", "Sclerosis"];
        let mut data = Dataset::empty(&schema);
        for i in 0..100i64 {
            data.push_row(
                TableId(0),
                vec![
                    Value::Int(i),
                    Value::Date(Date(10_000 + i as i32)),
                    Value::Text(purposes[(i % 4) as usize].to_string()),
                    Value::Int(50 + i),
                ],
            )
            .unwrap();
        }
        (volume, scope, schema, data)
    }

    fn build() -> (HiddenStore, LoadEncoders, RamScope) {
        let (volume, scope, schema, data) = setup();
        let (store, enc) = HiddenStore::build(&volume, &scope, &schema, &data).unwrap();
        (store, enc, scope)
    }

    #[test]
    fn fixed_values_roundtrip() {
        let (store, _, scope) = build();
        let v = store
            .value(&scope, TableId(0), ColumnId(1), RowId(42))
            .unwrap();
        assert_eq!(v, Value::Date(Date(10_042)));
    }

    #[test]
    fn dict_values_roundtrip() {
        let (store, _, scope) = build();
        for (row, expect) in [(0u32, "Checkup"), (1, "Diabetes"), (3, "Sclerosis")] {
            let v = store
                .value(&scope, TableId(0), ColumnId(2), RowId(row))
                .unwrap();
            assert_eq!(v, Value::Text(expect.into()));
        }
    }

    #[test]
    fn visible_columns_not_on_device() {
        let (store, _, scope) = build();
        assert!(!store.has_column(TableId(0), ColumnId(3)));
        assert!(store
            .value(&scope, TableId(0), ColumnId(3), RowId(0))
            .is_err());
    }

    #[test]
    fn key_ranges_fixed() {
        let (store, _, _) = build();
        let r = store
            .key_range(
                TableId(0),
                ColumnId(1),
                ScalarOp::Gt,
                &Value::Date(Date(10_050)),
            )
            .unwrap()
            .unwrap();
        let k51 = Value::Date(Date(10_051)).order_key().unwrap();
        assert_eq!(r.lo, k51);
        // Type mismatch rejected.
        assert!(store
            .key_range(TableId(0), ColumnId(1), ScalarOp::Eq, &Value::Int(1))
            .is_err());
    }

    #[test]
    fn key_ranges_dict() {
        let (store, _, _) = build();
        let t = TableId(0);
        let c = ColumnId(2);
        // Codes: Checkup=0, Diabetes=1, Flu=2, Sclerosis=3.
        let eq = store
            .key_range(t, c, ScalarOp::Eq, &Value::Text("Flu".into()))
            .unwrap()
            .unwrap();
        assert_eq!((eq.lo, eq.hi), (2, 2));
        assert!(store
            .key_range(t, c, ScalarOp::Eq, &Value::Text("Malaria".into()))
            .unwrap()
            .is_none());
        let lt = store
            .key_range(t, c, ScalarOp::Lt, &Value::Text("Flu".into()))
            .unwrap()
            .unwrap();
        assert_eq!((lt.lo, lt.hi), (0, 1));
        let ge = store
            .key_range(t, c, ScalarOp::Ge, &Value::Text("Emu".into()))
            .unwrap()
            .unwrap();
        assert_eq!((ge.lo, ge.hi), (2, 3));
        assert!(store
            .key_range(t, c, ScalarOp::Gt, &Value::Text("Sclerosis".into()))
            .unwrap()
            .is_none());
        let le = store
            .key_range(t, c, ScalarOp::Le, &Value::Text("Aardvark".into()))
            .unwrap();
        assert!(le.is_none());
    }

    #[test]
    fn filter_scan_matches_reference() {
        let (store, _, scope) = build();
        let range = store
            .key_range(
                TableId(0),
                ColumnId(2),
                ScalarOp::Eq,
                &Value::Text("Sclerosis".into()),
            )
            .unwrap()
            .unwrap();
        let scan = store
            .filter_scan(&scope, TableId(0), ColumnId(2), range)
            .unwrap();
        let got: Vec<u32> = scan.map(|r| r.unwrap().0).collect();
        let expect: Vec<u32> = (0..100).filter(|i| i % 4 == 3).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn filter_scan_counts_tuples() {
        let (store, _, scope) = build();
        let range = KeyRange { lo: 0, hi: 0 };
        let mut scan = store
            .filter_scan(&scope, TableId(0), ColumnId(2), range)
            .unwrap();
        while scan.next_id().unwrap().is_some() {}
        assert_eq!(scan.scanned(), 100);
    }

    #[test]
    fn encoders_match_store_keys() {
        let (volume, scope, schema, data) = setup();
        let (store, enc) = HiddenStore::build(&volume, &scope, &schema, &data).unwrap();
        let values = &data.tables[0].columns;
        let purposes = enc.keys(TableId(0), ColumnId(2), &values[2]).unwrap();
        assert_eq!(purposes[2], 2, "row 2 is 'Flu', rank 2 of 4");
        assert_eq!(enc.dict_entries(TableId(0), ColumnId(2)), Some(4));
        let dates = enc.keys(TableId(0), ColumnId(1), &values[1]).unwrap();
        assert_eq!(enc.dict_entries(TableId(0), ColumnId(1)), None);
        for row in [0u32, 7, 99] {
            for (col, keys) in [(ColumnId(1), &dates), (ColumnId(2), &purposes)] {
                let stored = store.key_at(TableId(0), col, RowId(row)).unwrap();
                assert_eq!(stored, keys[row as usize]);
            }
        }
        assert!(enc.keys(TableId(0), ColumnId(3), &values[2]).is_err());
    }

    #[test]
    fn delta_append_read_flush_roundtrip() {
        let (volume, scope, schema, data) = setup();
        let (mut store, _) = HiddenStore::build(&volume, &scope, &schema, &data).unwrap();
        let t = TableId(0);
        assert_eq!(store.base_rows(t), 100);

        // Row 100 reuses a base string; row 101 mints a new one.
        let new_cols = store
            .append_row(
                &schema,
                t,
                &[
                    Value::Int(100),
                    Value::Date(Date(10_100)),
                    Value::Text("Flu".into()),
                    Value::Int(150),
                ],
            )
            .unwrap();
        assert!(new_cols.is_empty(), "base string is not a new value");
        let new_cols = store
            .append_row(
                &schema,
                t,
                &[
                    Value::Int(101),
                    Value::Date(Date(10_101)),
                    Value::Text("Zoster".into()),
                    Value::Int(151),
                ],
            )
            .unwrap();
        assert_eq!(new_cols, vec![2], "delta-dictionary string reported");
        assert_eq!(store.row_count(t), 102);
        assert_eq!(store.delta_rows(t), 2);

        // Delta reads: values, keys (base code vs identity delta code).
        let c = ColumnId(2);
        assert_eq!(
            store.value(&scope, t, c, RowId(101)).unwrap(),
            Value::Text("Zoster".into())
        );
        assert_eq!(store.key_at(t, c, RowId(100)).unwrap(), 2); // base "Flu"
        assert_eq!(store.key_at(t, c, RowId(101)).unwrap(), 4); // entries + 0

        // Value-exact delta predicate evaluation.
        assert!(store
            .matches_at(
                t,
                c,
                RowId(101),
                ScalarOp::Eq,
                &Value::Text("Zoster".into()),
                None
            )
            .unwrap());
        let scan = store
            .predicate_scan(&scope, t, c, ScalarOp::Eq, &Value::Text("Zoster".into()))
            .unwrap();
        let got: Vec<u32> = scan.map(|r| r.unwrap().0).collect();
        assert_eq!(got, vec![101]);

        // Flush: dictionary rebuilt (remap reported), reads unchanged.
        let remaps = store.flush(&scope, &schema).unwrap();
        assert_eq!(remaps.dicts.len(), 1);
        assert!(!remaps.any_compaction(), "no deletes, no id remap");
        assert_eq!(
            remaps.dicts[0].map,
            vec![0, 1, 2, 3],
            "prefix ranks preserved"
        );
        assert_eq!(store.base_rows(t), 102);
        assert_eq!(store.delta_rows(t), 0);
        assert_eq!(
            store.value(&scope, t, c, RowId(101)).unwrap(),
            Value::Text("Zoster".into())
        );
        // "Zoster" is now rank-encoded (sorted after "Sclerosis").
        assert_eq!(
            store
                .encode_value(t, c, &Value::Text("Zoster".into()))
                .unwrap(),
            Some(4)
        );
        let range = store
            .key_range(t, c, ScalarOp::Ge, &Value::Text("Zoster".into()))
            .unwrap()
            .unwrap();
        let scan = store.filter_scan(&scope, t, c, range).unwrap();
        let got: Vec<u32> = scan.map(|r| r.unwrap().0).collect();
        assert_eq!(got, vec![101]);
        // Fixed column delta merged too.
        assert_eq!(
            store.value(&scope, t, ColumnId(1), RowId(100)).unwrap(),
            Value::Date(Date(10_100))
        );
    }

    /// Tombstones + overlays + the compacting flush: logical view stays
    /// fixed across the physical renumbering.
    #[test]
    fn delete_update_flush_compacts() {
        let (volume, scope, schema, data) = setup();
        let (mut store, _) = HiddenStore::build(&volume, &scope, &schema, &data).unwrap();
        let t = TableId(0);
        let date = ColumnId(1);
        let purpose = ColumnId(2);

        // Kill rows 0..20 and overwrite row 25's purpose with a string
        // outside the base dictionary.
        let dead: Vec<u32> = (0..20).collect();
        store.delete_rows_physical(t, &dead).unwrap();
        assert_eq!(store.live_count(t), 80);
        assert_eq!(store.row_count(t), 100, "physical universe unchanged");
        assert_eq!(store.live_rank(t, RowId(25)), 5);
        assert_eq!(store.select_live(t, 5).unwrap(), RowId(25));
        let minted = store
            .update_cell(t, purpose, RowId(25), &Value::Text("Zoster".into()))
            .unwrap();
        assert!(minted);
        assert_eq!(
            store.value(&scope, t, purpose, RowId(25)).unwrap(),
            Value::Text("Zoster".into())
        );
        // Value-exact predicate semantics over the overlay.
        assert!(store
            .matches_at(
                t,
                purpose,
                RowId(25),
                ScalarOp::Eq,
                &Value::Text("Zoster".into()),
                None
            )
            .unwrap());
        let scan = store
            .predicate_scan(
                &scope,
                t,
                purpose,
                ScalarOp::Eq,
                &Value::Text("Zoster".into()),
            )
            .unwrap();
        let got: Vec<u32> = scan.map(|r| r.unwrap().0).collect();
        assert_eq!(got, vec![25], "overlay match with a None base range");
        assert_eq!(store.total_pending_mutations(), 21);

        // Flush: dead rows dropped, survivors renumbered dense.
        let remaps = store.flush(&scope, &schema).unwrap();
        assert!(remaps.any_compaction());
        assert_eq!(remaps.map_id(t, 5), None, "dead row has no new id");
        assert_eq!(remaps.map_id(t, 25), Some(5));
        assert_eq!(store.base_rows(t), 80);
        assert_eq!(store.live_count(t), 80);
        assert_eq!(store.total_pending_mutations(), 0);
        // Old physical 25 is now row 5; its overlay merged, its date is
        // the original one.
        assert_eq!(
            store.value(&scope, t, purpose, RowId(5)).unwrap(),
            Value::Text("Zoster".into())
        );
        assert_eq!(
            store.value(&scope, t, date, RowId(5)).unwrap(),
            Value::Date(Date(10_025))
        );
        // "Zoster" is rank-encoded post-flush.
        let range = store
            .key_range(t, purpose, ScalarOp::Ge, &Value::Text("Zoster".into()))
            .unwrap()
            .unwrap();
        let scan = store.filter_scan(&scope, t, purpose, range).unwrap();
        let got: Vec<u32> = scan.map(|r| r.unwrap().0).collect();
        assert_eq!(got, vec![5]);
    }

    /// A dictionary string whose last referencing row died is dropped
    /// from the rebuilt dictionary, and its remap entry tells index
    /// compaction to drop the matching postings.
    #[test]
    fn flush_drops_dead_dictionary_strings() {
        let (volume, scope, schema, data) = setup();
        let (mut store, _) = HiddenStore::build(&volume, &scope, &schema, &data).unwrap();
        let t = TableId(0);
        let purpose = ColumnId(2);
        // Codes: Checkup=0, Diabetes=1, Flu=2, Sclerosis=3. Kill every
        // "Flu" row (setup assigns purposes round-robin, i % 4 == 2).
        let dead: Vec<u32> = (0..100).filter(|r| r % 4 == 2).collect();
        store.delete_rows_physical(t, &dead).unwrap();
        let remaps = store.flush(&scope, &schema).unwrap();
        let dict = remaps
            .dicts
            .iter()
            .find(|r| r.table.0 == t.0 && r.column.0 == purpose.0)
            .expect("purpose column rebuilt");
        assert_eq!(dict.map, vec![0, 1, u32::MAX, 2], "Flu's code dies");
        // The remap answers for every string the column held, dead ones
        // included, without a dictionary search.
        let code = |s: &str| dict.code_of(&Value::Text(s.into())).unwrap();
        assert_eq!(code("Flu"), None);
        assert_eq!(code("Sclerosis"), Some(2));
        assert!(dict.code_of(&Value::Text("Never".into())).is_err());
        // The dictionary no longer answers for "Flu"...
        assert!(store
            .key_range(t, purpose, ScalarOp::Eq, &Value::Text("Flu".into()))
            .unwrap()
            .is_none());
        // ...the survivors re-ranked dense around the gap...
        let eq = store
            .key_range(t, purpose, ScalarOp::Eq, &Value::Text("Sclerosis".into()))
            .unwrap()
            .unwrap();
        assert_eq!((eq.lo, eq.hi), (2, 2));
        // ...and surviving rows still decode their strings.
        for (row, expect) in [(0u32, "Checkup"), (1, "Diabetes"), (2, "Sclerosis")] {
            assert_eq!(
                store.value(&scope, t, purpose, RowId(row)).unwrap(),
                Value::Text(expect.into())
            );
        }
    }

    /// Predicate translation between the logical and physical id spaces
    /// (PK and FK constants).
    #[test]
    fn physical_predicate_translation() {
        use ghostdb_catalog::Predicate;
        let mut b = SchemaBuilder::new();
        b.table("Parent", "pid")
            .foreign_key("cid", "Child", Visibility::Hidden);
        b.table("Child", "cid");
        let schema = b.build().unwrap();
        let mut data = Dataset::empty(&schema);
        for i in 0..4i64 {
            data.push_row(TableId(0), vec![Value::Int(i), Value::Int(i % 2)])
                .unwrap();
        }
        for i in 0..6i64 {
            data.push_row(TableId(1), vec![Value::Int(i)]).unwrap();
        }
        let cfg = FlashConfig {
            page_size: 256,
            pages_per_block: 8,
            num_blocks: 256,
            ..FlashConfig::default_2007()
        };
        let volume = Volume::new(Nand::new(cfg, SimClock::new()));
        let scope = RamScope::new(&RamBudget::new(64 * 1024));
        let (mut store, _) = HiddenStore::build(&volume, &scope, &schema, &data).unwrap();

        // Identity while everything is live.
        let p = Predicate::new(TableId(0), ColumnId(1), ScalarOp::Eq, Value::Int(1));
        assert_eq!(store.physical_predicate(&schema, &p), p);

        // Kill child physical 1: logical 1 now names physical 2.
        store.delete_rows_physical(TableId(1), &[1]).unwrap();
        let q = store.physical_predicate(&schema, &p);
        assert_eq!(q.value, Value::Int(2));
        // Attribute predicates pass through untouched; out-of-range
        // logicals land past the physical universe (monotone).
        let past = Predicate::new(TableId(0), ColumnId(1), ScalarOp::Lt, Value::Int(7));
        assert_eq!(
            store.physical_predicate(&schema, &past).value,
            Value::Int(6 + (7 - 5))
        );
    }

    #[test]
    fn key_range_helper_edges() {
        assert!(key_range_for(ScalarOp::Lt, 0, u64::MAX).is_none());
        assert!(key_range_for(ScalarOp::Gt, u64::MAX, u64::MAX).is_none());
        let r = key_range_for(ScalarOp::Le, 5, u64::MAX).unwrap();
        assert_eq!((r.lo, r.hi), (0, 5));
        assert!(r.contains(0) && r.contains(5) && !r.contains(6));
    }
}
