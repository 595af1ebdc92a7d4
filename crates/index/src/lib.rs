//! The paper's indexing model: Subtree Key Tables, climbing indexes, and
//! the external sorter that backs id-list translation under tiny RAM.
//!
//! Paper §4: "We propose a set of generalized join indexes known as
//! 'Subtree Key Tables' or SKT... Each SKT joins all tables in the
//! subtree to the subtree root with the IDs sorted based on the order of
//! IDs in the root table... To speed up selections, we propose an
//! additional index that we call a 'climbing index'. A climbing index on
//! a lower table T maps values to lists of identifiers from T as well as
//! lists of identifiers for each table T' that is an ancestor of T...
//! Combined together, SKTs and climbing indexes allow selecting tuples in
//! any table, reaching any other table in the path from this table to the
//! root table in a single step and projecting attributes from any other
//! table of the tree. This benefit in terms of performance and RAM usage
//! comes at an extra cost in terms of Flash storage."
//!
//! All three structures live on flash and are probed with O(1) device
//! RAM; everything is built once during the secure bulk load (flash is
//! written sequentially, respecting the no-in-place-write constraint).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod climbing;
mod skt;
mod sort;

pub use climbing::{ClimbingIndex, ClimbingManifest, PostingStream};
pub use skt::{SktCursor, SktManifest, SktRow, SubtreeKeyTable};
pub use sort::{ExternalSorter, SortRecord, SortedStream};

use std::collections::{BTreeMap, HashMap};

use ghostdb_catalog::{ColumnRef, Schema, TreeSchema, Visibility};
use ghostdb_flash::Volume;
use ghostdb_ram::RamScope;
use ghostdb_storage::{Dataset, FlushRemaps, HiddenStore, LoadEncoders};
use ghostdb_types::{
    collect_ids, ColumnId, GhostError, Result, RowId, TableId, Value, VecIdStream, Wire,
};

/// One inserted row, as the index-maintenance layer sees it.
#[derive(Debug, Clone, Copy)]
pub struct RowInsert<'a> {
    /// Table that received the row.
    pub table: TableId,
    /// The new dense row id.
    pub id: RowId,
    /// Full row values in declaration order.
    pub values: &'a [Value],
}

/// The device's full index set, as the paper prescribes:
///
/// * one SKT per internal table (Figure 3: Prescription and Visit),
/// * a climbing **value** index on every hidden non-key column,
/// * a climbing **key** index on every non-root table's primary key
///   (dense directory), used to translate delegated visible id lists and
///   to combine predicates in Cross-filtering plans.
///
/// `Clone` freezes every index for a snapshot session: flash bases are
/// shared, RAM deltas are copied — bounded by the flush threshold.
///
/// The maps are ordered so that maintenance and flush walk the
/// structures — and therefore program and free flash segments — in the
/// same order on every run: simulated time must repeat bit for bit.
#[derive(Debug, Clone)]
pub struct IndexSet {
    skts: BTreeMap<u16, SubtreeKeyTable>,
    value_indexes: BTreeMap<(u16, u16), ClimbingIndex>,
    key_indexes: BTreeMap<u16, ClimbingIndex>,
}

impl IndexSet {
    /// Build every index during the secure bulk load.
    pub fn build(
        volume: &Volume,
        scope: &RamScope,
        schema: &Schema,
        tree: &TreeSchema,
        data: &Dataset,
        encoders: &LoadEncoders,
    ) -> Result<IndexSet> {
        let mut skts = BTreeMap::new();
        for t in tree.skt_roots() {
            let skt = SubtreeKeyTable::build(volume, scope, tree, data, t)?;
            skts.insert(t.0, skt);
        }
        let mut value_indexes = BTreeMap::new();
        for cref in schema.hidden_columns() {
            // Key columns get the dedicated key index below; value indexes
            // cover hidden *attribute* columns (and hidden FKs are key
            // plumbing, not selection targets).
            let def = schema.column_def(cref);
            if !matches!(def.role, ghostdb_catalog::ColumnRole::Attribute) {
                continue;
            }
            let idx = ClimbingIndex::build_value_index(volume, scope, tree, data, encoders, cref)?;
            value_indexes.insert((cref.table.0, cref.column.0), idx);
        }
        // Visible attribute columns never get climbing indexes: their
        // selections are always delegated to the PC (paper §3).
        let mut key_indexes = BTreeMap::new();
        for (ti, _t) in schema.tables().iter().enumerate() {
            let tid = TableId(ti as u16);
            if tid == tree.root() {
                continue; // root ids need no translation
            }
            let idx = ClimbingIndex::build_key_index(volume, scope, tree, data, tid)?;
            key_indexes.insert(tid.0, idx);
        }
        Ok(IndexSet {
            skts,
            value_indexes,
            key_indexes,
        })
    }

    /// The SKT rooted at `table` (internal tables only).
    pub fn skt(&self, table: TableId) -> Result<&SubtreeKeyTable> {
        self.skts
            .get(&table.0)
            .ok_or_else(|| GhostError::exec(format!("no Subtree Key Table rooted at {table}")))
    }

    /// Climbing value index on a hidden attribute column.
    pub fn value_index(&self, cref: ColumnRef) -> Result<&ClimbingIndex> {
        self.value_indexes
            .get(&(cref.table.0, cref.column.0))
            .ok_or_else(|| GhostError::exec(format!("no climbing index on {cref}")))
    }

    /// True if a climbing value index exists for the column.
    pub fn has_value_index(&self, cref: ColumnRef) -> bool {
        self.value_indexes
            .contains_key(&(cref.table.0, cref.column.0))
    }

    /// Climbing key index on a non-root table's primary key.
    pub fn key_index(&self, table: TableId) -> Result<&ClimbingIndex> {
        self.key_indexes
            .get(&table.0)
            .ok_or_else(|| GhostError::exec(format!("no key climbing index for {table}")))
    }

    /// Index maintenance for one inserted row: every structure whose
    /// coverage includes the new row gains a RAM-delta posting.
    ///
    /// `wide` maps each table in the row's subtree to the row id the new
    /// row joins to (`wide[row.table] == row.id`). Concretely: value
    /// indexes on any subtree table `S` gain posting `row.id` at the
    /// inserted table's level under the key of `S`'s joined row; key
    /// indexes on `S` gain the same posting under key `wide[S]` (which
    /// for `S == row.table` creates the new dense entry); and the SKT
    /// rooted at the inserted table appends the wide row.
    pub fn apply_insert(
        &mut self,
        tree: &TreeSchema,
        scope: &RamScope,
        hidden: &HiddenStore,
        row: RowInsert<'_>,
        wide: &HashMap<u16, RowId>,
    ) -> Result<()> {
        let RowInsert {
            table,
            id: new_id,
            values,
        } = row;
        let subtree = tree.subtree(table);
        for &s in &subtree {
            let s_id = *wide
                .get(&s.0)
                .ok_or_else(|| GhostError::exec(format!("wide row missing subtree table {s}")))?;
            for ((t, c), idx) in self.value_indexes.iter_mut() {
                if *t != s.0 {
                    continue;
                }
                let column = ColumnId(*c);
                let v = if s == table {
                    values
                        .get(column.index())
                        .ok_or_else(|| GhostError::exec("insert row too short for index"))?
                        .clone()
                } else {
                    hidden.value(scope, s, column, s_id)?
                };
                idx.insert_delta_value(&v, table, new_id)?;
            }
            if let Some(kidx) = self.key_indexes.get_mut(&s.0) {
                kidx.insert_delta_key(s_id.0 as u64, table, new_id)?;
            }
        }
        if let Some(skt) = self.skts.get_mut(&table.0) {
            let order = skt.table_order().to_vec();
            let ids = order
                .iter()
                .map(|t| {
                    wide.get(&t.0)
                        .copied()
                        .ok_or_else(|| GhostError::exec(format!("wide row missing SKT table {t}")))
                })
                .collect::<Result<Vec<_>>>()?;
            skt.append_row(ids)?;
        }
        Ok(())
    }

    /// Index maintenance for one `UPDATE` of a hidden attribute column:
    /// the value index on `(table, column)` — if one exists — re-homes
    /// the updated row's postings at **every** climb level from the old
    /// value's entry to the new value's. The affected ancestor ids are
    /// found by translating the updated row through `table`'s own key
    /// index (the inverse-join the climbing layout precomputes); key
    /// indexes and SKTs are untouched — updates never move key
    /// structure.
    pub fn apply_update(
        &mut self,
        scope: &RamScope,
        table: TableId,
        column: ColumnId,
        row: RowId,
        old_value: &Value,
        new_value: &Value,
    ) -> Result<()> {
        let Some(idx) = self.value_indexes.get_mut(&(table.0, column.0)) else {
            return Ok(());
        };
        let levels = idx.levels().to_vec();
        let mut per_level: Vec<Vec<u32>> = vec![vec![row.0]];
        if levels.len() > 1 {
            let kidx = self
                .key_indexes
                .get(&table.0)
                .ok_or_else(|| GhostError::exec(format!("no key climbing index for {table}")))?;
            for lt in &levels[1..] {
                let mut input = VecIdStream::new(vec![row]);
                let mut out = kidx.translate(scope, &mut input, *lt, TRANSLATE_SORT_RAM)?;
                per_level.push(collect_ids(&mut out)?.into_iter().map(|r| r.0).collect());
            }
        }
        idx.reindex_value(old_value, new_value, &per_level)
    }

    /// Merge every structure's RAM delta into rebuilt flash segments.
    /// Runs after [`HiddenStore::flush`], whose [`FlushRemaps`] carry
    /// the dictionary code maps (re-keying value-index directories over
    /// rebuilt dictionaries) and — when rows died — the per-table id
    /// remaps of the compaction, which filter and renumber every
    /// posting, dense directory key, and SKT wide row.
    pub fn flush(
        &mut self,
        scope: &RamScope,
        hidden: &HiddenStore,
        remaps: &FlushRemaps,
    ) -> Result<()> {
        let compacted = |t: TableId| {
            remaps
                .ids
                .get(t.index())
                .map(|m| m.is_some())
                .unwrap_or(false)
        };
        for ((t, c), idx) in self.value_indexes.iter_mut() {
            let dict = remaps
                .dicts
                .iter()
                .find(|r| r.table.0 == *t && r.column.0 == *c);
            let levels = idx.levels().to_vec();
            let touched =
                dict.is_some() || idx.has_pending() || levels.iter().any(|&lt| compacted(lt));
            if !touched {
                continue;
            }
            // u32::MAX marks a dictionary string whose last referencing
            // row died: its postings drop here.
            let remap_fn = |k: u64| match dict {
                Some(r) => match r.map[k as usize] {
                    u32::MAX => None,
                    n => Some(n as u64),
                },
                None => Some(k),
            };
            // A rebuilt dictionary's codes come with the remap; an
            // untouched one (or a fixed column) encodes as before.
            let (table, column) = (TableId(*t), ColumnId(*c));
            let encode = |v: &Value| match dict {
                Some(r) => r.code_of(v),
                None => hidden.encode_value(table, column, v),
            };
            let map_id = |li: usize, id: u32| remaps.map_id(levels[li], id);
            idx.flush(scope, &remap_fn, &encode, &map_id)?;
        }
        for (t, idx) in self.key_indexes.iter_mut() {
            let own = TableId(*t);
            let levels = idx.levels().to_vec();
            let touched = idx.has_pending() || levels.iter().any(|&lt| compacted(lt));
            if !touched {
                continue;
            }
            let remap_key = |k: u64| remaps.map_id(own, k as u32).map(|n| n as u64);
            let map_id = |li: usize, id: u32| remaps.map_id(levels[li], id);
            idx.flush(
                scope,
                &remap_key,
                &|_| {
                    Err(GhostError::exec(
                        "key-index deltas are keyed by id, not value".to_string(),
                    ))
                },
                &map_id,
            )?;
        }
        for skt in self.skts.values_mut() {
            let order = skt.table_order().to_vec();
            let touched = skt.delta_rows() > 0 || order.iter().any(|&tt| compacted(tt));
            if !touched {
                continue;
            }
            let map_id = |col: usize, id: u32| remaps.map_id(order[col], id);
            skt.flush(scope, &map_id)?;
        }
        Ok(())
    }

    /// Un-flushed delta entries across every structure (observability;
    /// update suppressions count — they are un-flushed state too).
    pub fn delta_entries(&self) -> usize {
        let vi: usize = self
            .value_indexes
            .values()
            .map(|i| i.delta_entries().max(i.has_pending() as usize))
            .sum();
        let ki: usize = self.key_indexes.values().map(|i| i.delta_entries()).sum();
        let skt: usize = self.skts.values().map(|s| s.delta_rows() as usize).sum();
        vi + ki + skt
    }

    /// Total flash bytes occupied by the index set (the paper's "extra
    /// cost in terms of Flash storage").
    pub fn flash_bytes(&self) -> u64 {
        let skt: u64 = self.skts.values().map(|s| s.flash_bytes()).sum();
        let vi: u64 = self.value_indexes.values().map(|i| i.flash_bytes()).sum();
        let ki: u64 = self.key_indexes.values().map(|i| i.flash_bytes()).sum();
        skt + vi + ki
    }

    /// Check presence of prerequisites used by planner diagnostics.
    pub fn describe(&self) -> String {
        format!(
            "{} SKT(s), {} value index(es), {} key index(es), {} flash bytes",
            self.skts.len(),
            self.value_indexes.len(),
            self.key_indexes.len(),
            self.flash_bytes()
        )
    }

    /// Build a *wide row* helper: for every table in `tree`, the row ids
    /// of all its subtree tables per root row (used by tests and the
    /// naive reference engine).
    pub fn column_order_of_skt(&self, table: TableId) -> Result<&[TableId]> {
        Ok(self.skt(table)?.table_order())
    }

    /// Every logical flash page any index base can read, appended to
    /// `out` — the set a snapshot session pins against flush-time
    /// frees (RAM deltas need no pinning).
    pub fn collect_lpns(&self, out: &mut Vec<u32>) {
        for s in self.skts.values() {
            s.collect_lpns(out);
        }
        for i in self.value_indexes.values() {
            i.collect_lpns(out);
        }
        for i in self.key_indexes.values() {
            i.collect_lpns(out);
        }
    }

    /// The index set's durable manifest (the maps iterate sorted by
    /// table/column id, so identical states seal byte-identical images).
    /// Requires every delta to be flushed first.
    pub fn manifest(&self) -> Result<IndexSetManifest> {
        let skts: Vec<(u16, SktManifest)> = self
            .skts
            .iter()
            .map(|(t, s)| Ok((*t, s.manifest()?)))
            .collect::<Result<_>>()?;
        let value_indexes: Vec<((u16, u16), ClimbingManifest)> = self
            .value_indexes
            .iter()
            .map(|(k, i)| Ok((*k, i.manifest()?)))
            .collect::<Result<_>>()?;
        let key_indexes: Vec<(u16, ClimbingManifest)> = self
            .key_indexes
            .iter()
            .map(|(t, i)| Ok((*t, i.manifest()?)))
            .collect::<Result<_>>()?;
        Ok(IndexSetManifest {
            skts,
            value_indexes,
            key_indexes,
        })
    }

    /// Rebuild every index from a mounted volume and the sealed
    /// manifest — the mount path's replacement for [`IndexSet::build`].
    pub fn restore(volume: &Volume, m: &IndexSetManifest) -> Result<IndexSet> {
        let mut skts = BTreeMap::new();
        for (t, sm) in &m.skts {
            skts.insert(*t, SubtreeKeyTable::restore(volume, sm)?);
        }
        let mut value_indexes = BTreeMap::new();
        for (key, cm) in &m.value_indexes {
            value_indexes.insert(*key, ClimbingIndex::restore(volume, cm)?);
        }
        let mut key_indexes = BTreeMap::new();
        for (t, cm) in &m.key_indexes {
            key_indexes.insert(*t, ClimbingIndex::restore(volume, cm)?);
        }
        Ok(IndexSet {
            skts,
            value_indexes,
            key_indexes,
        })
    }
}

/// Durable description of the full index set.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexSetManifest {
    /// `(root table id, manifest)` per SKT, sorted by table id.
    pub skts: Vec<(u16, SktManifest)>,
    /// `((table, column), manifest)` per value index, sorted.
    pub value_indexes: Vec<((u16, u16), ClimbingManifest)>,
    /// `(table, manifest)` per key index, sorted by table id.
    pub key_indexes: Vec<(u16, ClimbingManifest)>,
}

impl IndexSetManifest {
    /// Number of flash segments the manifest references (each SKT is one
    /// segment, each climbing index two) — the `device_report`
    /// durability line counts these.
    pub fn segment_count(&self) -> usize {
        self.skts.len() + 2 * (self.value_indexes.len() + self.key_indexes.len())
    }
}

impl Wire for IndexSetManifest {
    fn encode(&self, out: &mut Vec<u8>) {
        self.skts.encode(out);
        self.value_indexes.encode(out);
        self.key_indexes.encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self> {
        Ok(IndexSetManifest {
            skts: Vec::<(u16, SktManifest)>::decode(buf)?,
            value_indexes: Vec::<((u16, u16), ClimbingManifest)>::decode(buf)?,
            key_indexes: Vec::<(u16, ClimbingManifest)>::decode(buf)?,
        })
    }
}

/// The *wide rows* of the secure bulk load: for each row of `root`, the
/// id of every table in `tables` (tables of `root`'s subtree, each listed
/// after its parent), found by following foreign keys (host-side,
/// load-time only). `wide[table] = Some(that table's id per root row)`
/// for the tables asked for, `None` elsewhere. An SKT asks for its whole
/// subtree, a climbing index for its climb path only.
pub(crate) fn wide_rows(
    tree: &TreeSchema,
    data: &Dataset,
    root: TableId,
    tables: &[TableId],
) -> Result<Vec<Option<Vec<u32>>>> {
    let n_rows = data.row_count(root);
    let mut wide: Vec<Option<Vec<u32>>> = vec![None; data.tables.len()];
    wide[root.index()] = Some((0..n_rows as u32).collect());
    // Walk top-down: a child's ids derive from its parent's ids through
    // the parent's fk column.
    for &t in tables {
        if t == root {
            continue;
        }
        let (parent, fk_col) = tree
            .parent(t)
            .ok_or_else(|| GhostError::catalog("subtree table missing parent"))?;
        let parent_ids = wide[parent.index()]
            .as_ref()
            .ok_or_else(|| GhostError::catalog("parent not yet resolved"))?;
        let fk_values = &data.tables[parent.index()].columns[fk_col.index()];
        let ids = parent_ids
            .iter()
            .map(|&p| {
                fk_values[p as usize]
                    .as_int()
                    .map(|v| v as u32)
                    .ok_or_else(|| GhostError::corrupt("non-integer foreign key"))
            })
            .collect::<Result<Vec<u32>>>()?;
        wide[t.index()] = Some(ids);
    }
    Ok(wide)
}

/// Convenience: which visibility applies to a column (tests).
pub fn visibility_of(schema: &Schema, cref: ColumnRef) -> Visibility {
    schema.column_def(cref).visibility
}

/// Default RAM granted to a translation's external sort (run buffer plus
/// merge readers); the executor can lower it when the budget is tight.
pub const TRANSLATE_SORT_RAM: usize = 16 * 1024;
