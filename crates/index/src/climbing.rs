//! Climbing indexes (paper §4, Figure 4).
//!
//! "The entry for 'Spain' in the Doctor.Country index is associated with
//! a list of Doctor identifiers, as usual, and also a list of Visit
//! identifiers and a list of Prescription identifiers to precompute the
//! joins with all tables in the path from Doctor to the root table."
//!
//! Layout on flash:
//!
//! * a **directory** of fixed-width entries sorted by order key —
//!   `key (8B)` then, per level on the climb path, `offset (4B)` and
//!   `length (4B)` into the postings area;
//! * a **postings** area of ascending, deduplicated 4-byte row ids.
//!
//! Two flavours share the structure:
//!
//! * **value indexes** on hidden attribute columns (keys are order keys /
//!   dictionary codes; probed by the page-granular interpolation search of
//!   [`ghostdb_flash::search`], seeded by the first and last keys the
//!   handle holds);
//! * **key indexes** on a table's primary key (keys are the dense row ids
//!   themselves, so the directory is direct-addressed — `dense = true`).
//!   These translate a delegated visible id list up the tree, and give
//!   Cross-filtering its "combine selectivities before climbing" step.
//!
//! Range probes over several directory entries union their postings
//! through the external sorter — bounded RAM, honest flash costs.
//!
//! # LSM-style deltas (the post-load write path)
//!
//! The flash base built at load time is immutable; post-load inserts
//! land in a RAM-resident **delta** layered on top:
//!
//! * value indexes key their delta by the indexed column's **`Value`**
//!   (not its order key), because a fresh `CHAR` string may have no slot
//!   in the base dictionary's rank space — delta probes compare values
//!   directly ([`ClimbingIndex::lookup_pred`]);
//! * dense key indexes key their delta by row id
//!   ([`ClimbingIndex::insert_delta_key`]), and
//!   [`translate`](ClimbingIndex::translate) consults both layers.
//!
//! Every id an *insert* posting carries belongs to a row appended after
//! the base was built, so those delta ids are strictly greater than any
//! base posting id at the same level — insert-only unions are a simple
//! concatenation ([`PostingStream::WithTail`]), keeping streams
//! ascending without a merge.
//!
//! # Liveness and updates (full DML)
//!
//! Deletes never touch the index at all: tombstoned rows are filtered
//! out of result streams by the executor's liveness layer (a dead id in
//! a posting list is harmless — it can only lead to dead rows, by the
//! delete-time RESTRICT check). Updates do touch it: when the indexed
//! column of a row is overwritten, [`ClimbingIndex::reindex_value`]
//! removes the row (and its ancestor postings at every level) from the
//! old value's delta entry, **suppresses** them out of the flash base —
//! each id appears under exactly one key per level, so suppression by
//! id is sound — and re-posts them under the new value. Re-homed base
//! ids may interleave with base postings, so probes on a moved index
//! switch from tail concatenation to an ordered merge
//! ([`PostingStream::Merged`]).
//!
//! [`ClimbingIndex::flush`] rebuilds the directory + postings segments
//! with the delta merged in — re-keying base entries through the
//! dictionary remap a [`HiddenStore`] flush reports, dropping dead
//! dense keys, filtering suppressed and dead postings, and renumbering
//! every surviving id through the compaction's per-table remap — and
//! frees the old segments for the GC.
//!
//! [`HiddenStore`]: ghostdb_storage::HiddenStore

use std::collections::BTreeMap;

use ghostdb_catalog::{ColumnRef, TreeSchema};
use ghostdb_flash::search::{RunCursor, SortedRun};
use ghostdb_flash::{Segment, SegmentManifest, SegmentReader, SegmentWriter, Volume};
use ghostdb_ram::RamScope;
use ghostdb_storage::{Dataset, KeyRange, LoadEncoders};
use ghostdb_types::{
    GhostError, IdBlock, IdStream, Result, RowId, ScalarOp, TableId, Value, VecIdStream, Wire,
    BLOCK_CAP,
};

use crate::sort::{ExternalSorter, SortedStream};
use crate::wide_rows;

const KEY_BYTES: usize = 8;
const PER_LEVEL_BYTES: usize = 8; // u32 offset + u32 length

/// RAM-resident delta postings layered over the flash base.
#[derive(Debug, Clone)]
enum IndexDelta {
    /// Value indexes: keyed by the indexed column's value (delta strings
    /// may be outside the base dictionary's rank space).
    ByValue(Vec<(Value, Vec<Vec<u32>>)>),
    /// Dense key indexes: keyed by row id.
    ByKey(BTreeMap<u64, Vec<Vec<u32>>>),
}

impl IndexDelta {
    /// No pending postings, in the shape the index's directory takes.
    fn empty(dense: bool) -> IndexDelta {
        if dense {
            IndexDelta::ByKey(BTreeMap::new())
        } else {
            IndexDelta::ByValue(Vec::new())
        }
    }
}

/// A climbing index: an immutable flash base plus a RAM delta, plus —
/// since updates exist — per-level **suppression sets** of base posting
/// ids whose indexed value was overwritten (each id appears under
/// exactly one key per level, so suppressing by id alone is sound; the
/// id's new home is a delta posting under the new value).
///
/// `Clone` freezes the index for a snapshot session: the flash base
/// (directory + postings) is shared, the RAM delta and suppression
/// sets are copied.
#[derive(Debug, Clone)]
pub struct ClimbingIndex {
    volume: Volume,
    directory: Segment,
    postings: Segment,
    /// Climb path; `levels[0]` is the indexed table, last is the root.
    levels: Vec<TableId>,
    entries: u32,
    /// Keys of the first and last directory entries (set at build, flush
    /// and restore; they seed the directory search).
    key_span: (u64, u64),
    /// Directory is direct-addressed by key (key == entry position).
    dense: bool,
    /// Total postings per level (for cost estimation).
    level_postings: Vec<u64>,
    /// Un-flushed post-load insertions.
    delta: IndexDelta,
    /// Per level: sorted base posting ids an update moved away from
    /// their build-time entry (value indexes only; cleared by `flush`).
    suppressed: Vec<Vec<u32>>,
    /// True once an update re-homed a base id into the delta: delta ids
    /// may then interleave with base ids, so probes switch from tail
    /// concatenation to an ordered merge.
    moved: bool,
}

impl ClimbingIndex {
    fn entry_width(levels: usize) -> usize {
        KEY_BYTES + levels * PER_LEVEL_BYTES
    }

    /// Build a value index on a (hidden) attribute column.
    pub fn build_value_index(
        volume: &Volume,
        scope: &RamScope,
        tree: &TreeSchema,
        data: &Dataset,
        encoders: &LoadEncoders,
        cref: ColumnRef,
    ) -> Result<ClimbingIndex> {
        let table = cref.table;
        let values = &data.tables[table.index()].columns[cref.column.index()];
        let keys = encoders.keys(table, cref.column, values)?;
        Self::build_from_keys(volume, scope, tree, data, table, &keys, false)
    }

    /// Build the key index on `table`'s primary key (dense directory).
    pub fn build_key_index(
        volume: &Volume,
        scope: &RamScope,
        tree: &TreeSchema,
        data: &Dataset,
        table: TableId,
    ) -> Result<ClimbingIndex> {
        let n = data.row_count(table) as u64;
        let keys: Vec<u64> = (0..n).collect();
        Self::build_from_keys(volume, scope, tree, data, table, &keys, true)
    }

    /// Shared builder: `keys[r]` is the order key of row `r` of `table`.
    fn build_from_keys(
        volume: &Volume,
        scope: &RamScope,
        tree: &TreeSchema,
        data: &Dataset,
        table: TableId,
        keys: &[u64],
        dense: bool,
    ) -> Result<ClimbingIndex> {
        let levels = tree.climb_path(table);
        let n_levels = levels.len();
        // Host-side (secure load): one `key << 32 | id` pair per posting
        // and level, sorted, so each key's list is a run — ids ascending
        // and adjacent duplicates (one ancestor reached through several
        // root rows) dropped by `dedup`.
        let pair = |key: u64, id: u32| (key as u128) << 32 | id as u128;
        let mut runs: Vec<Vec<u128>> = Vec::with_capacity(n_levels);
        // Level 0: the table's own rows.
        runs.push((0u32..).zip(keys).map(|(r, &k)| pair(k, r)).collect());
        // Ancestor levels come from one pass over the root's wide rows
        // along the climb path, released before the sort.
        if n_levels > 1 {
            let path: Vec<TableId> = levels.iter().rev().copied().collect();
            let wide = wide_rows(tree, data, tree.root(), &path)?;
            let t_ids = wide[table.index()]
                .as_ref()
                .ok_or_else(|| GhostError::catalog("table missing from its climb path"))?;
            for lt in levels.iter().skip(1) {
                // `wide[root]` is the identity, so the root level needs
                // no case of its own.
                let ids = wide[lt.index()]
                    .as_ref()
                    .ok_or_else(|| GhostError::catalog("level missing from subtree"))?;
                runs.push(
                    t_ids
                        .iter()
                        .zip(ids)
                        .map(|(&t_id, &id)| pair(keys[t_id as usize], id))
                        .collect(),
                );
            }
        }
        for run in &mut runs {
            run.sort_unstable();
            run.dedup();
        }
        // Write postings + directory: one merge walk over the levels,
        // keyed by level 0, which holds every key (ancestor levels hold
        // a subset, possibly empty for a key).
        let mut postings_w = volume.writer(scope)?;
        let mut dir_w = volume.writer(scope)?;
        let mut level_postings = vec![0u64; n_levels];
        let mut cursors = vec![0usize; n_levels];
        let mut written: u32 = 0;
        let mut ids = Vec::new();
        while let Some(&first) = runs[0].get(cursors[0]) {
            let key = (first >> 32) as u64;
            dir_w.write(&key.to_le_bytes())?;
            for (li, run) in runs.iter().enumerate() {
                let at = cursors[li];
                let len = run[at..]
                    .iter()
                    .take_while(|&&p| (p >> 32) as u64 == key)
                    .count();
                cursors[li] = at + len;
                dir_w.write(&written.to_le_bytes())?;
                dir_w.write(&(len as u32).to_le_bytes())?;
                ids.clear();
                for &p in &run[at..at + len] {
                    ids.extend_from_slice(&(p as u32).to_le_bytes());
                }
                postings_w.write(&ids)?;
                written += len as u32;
                level_postings[li] += len as u64;
            }
        }
        let directory = dir_w.finish()?;
        let postings = postings_w.finish()?;
        let entries = (directory.len() / Self::entry_width(n_levels) as u64) as u32;
        // Dense directories must cover every key 0..n exactly once.
        debug_assert!(!dense || entries as usize == keys.len());
        let key_of = |p: Option<&u128>| p.map_or(0, |&p| (p >> 32) as u64);
        Ok(ClimbingIndex {
            volume: volume.clone(),
            directory,
            postings,
            levels,
            entries,
            key_span: (key_of(runs[0].first()), key_of(runs[0].last())),
            dense,
            level_postings,
            delta: IndexDelta::empty(dense),
            suppressed: vec![Vec::new(); n_levels],
            moved: false,
        })
    }

    /// Record a post-load posting in a **value** index: the inserted row
    /// `id` (of the table at `level_table`) joins the entry for `value`
    /// (the indexed column's value on the relevant level-0 row).
    pub fn insert_delta_value(
        &mut self,
        value: &Value,
        level_table: TableId,
        id: RowId,
    ) -> Result<()> {
        let level = self.level_of(level_table)?;
        let n_levels = self.levels.len();
        let IndexDelta::ByValue(entries) = &mut self.delta else {
            return Err(GhostError::exec(
                "insert_delta_value requires a value index".to_string(),
            ));
        };
        let lists = match entries.iter_mut().find(|(v, _)| v == value) {
            Some((_, lists)) => lists,
            None => {
                entries.push((value.clone(), vec![Vec::new(); n_levels]));
                &mut entries.last_mut().expect("just pushed").1
            }
        };
        // New row ids grow monotonically, so each list stays ascending;
        // the same id can arrive only once per (value, level).
        if lists[level].last() != Some(&id.0) {
            lists[level].push(id.0);
        }
        Ok(())
    }

    /// Record a post-load posting in a **dense key** index: the inserted
    /// row `id` (of the table at `level_table`) joins the directory
    /// entry for `key` (a row id of the indexed table — possibly itself
    /// a delta row, which creates the entry).
    pub fn insert_delta_key(&mut self, key: u64, level_table: TableId, id: RowId) -> Result<()> {
        let level = self.level_of(level_table)?;
        let n_levels = self.levels.len();
        let IndexDelta::ByKey(entries) = &mut self.delta else {
            return Err(GhostError::exec(
                "insert_delta_key requires a dense key index".to_string(),
            ));
        };
        let lists = entries
            .entry(key)
            .or_insert_with(|| vec![Vec::new(); n_levels]);
        if lists[level].last() != Some(&id.0) {
            lists[level].push(id.0);
        }
        Ok(())
    }

    /// Un-flushed delta entries (observability / flush-trigger metric).
    pub fn delta_entries(&self) -> usize {
        match &self.delta {
            IndexDelta::ByValue(v) => v.len(),
            IndexDelta::ByKey(m) => m.len(),
        }
    }

    /// Any un-flushed state at all — delta entries or suppressions.
    pub fn has_pending(&self) -> bool {
        self.delta_entries() > 0 || self.suppressed.iter().any(|s| !s.is_empty())
    }

    /// Re-home postings after an `UPDATE` of the indexed column (value
    /// indexes only): `per_level_ids[li]` are the ids at level `li`
    /// joined to the updated row — the row itself at level 0, its
    /// referencing ancestors above. Each id is removed from any delta
    /// entry matching `old_value`, suppressed out of the flash base
    /// (where it can only appear under the old value's entry), and
    /// re-posted under `new_value`.
    pub fn reindex_value(
        &mut self,
        old_value: &Value,
        new_value: &Value,
        per_level_ids: &[Vec<u32>],
    ) -> Result<()> {
        let n_levels = self.levels.len();
        if per_level_ids.len() != n_levels {
            return Err(GhostError::exec(
                "reindex_value level arity mismatch".to_string(),
            ));
        }
        let IndexDelta::ByValue(entries) = &mut self.delta else {
            return Err(GhostError::exec(
                "reindex_value requires a value index".to_string(),
            ));
        };
        // Drop the moved ids from the old value's delta entry (if any).
        if let Some((_, lists)) = entries.iter_mut().find(|(v, _)| v == old_value) {
            for (li, ids) in per_level_ids.iter().enumerate() {
                lists[li].retain(|id| !ids.contains(id));
            }
        }
        // Suppress them out of the base (sorted insert; ids not present
        // in the base are harmlessly suppressed too).
        for (li, ids) in per_level_ids.iter().enumerate() {
            for &id in ids {
                if let Err(pos) = self.suppressed[li].binary_search(&id) {
                    self.suppressed[li].insert(pos, id);
                }
            }
        }
        // Re-post under the new value. Moved ids are arbitrary (base
        // rows included), so the list needs a sorted insert — and probes
        // must merge rather than concatenate from here on.
        let lists = match entries.iter_mut().find(|(v, _)| v == new_value) {
            Some((_, lists)) => lists,
            None => {
                entries.push((new_value.clone(), vec![Vec::new(); n_levels]));
                &mut entries.last_mut().expect("just pushed").1
            }
        };
        for (li, ids) in per_level_ids.iter().enumerate() {
            for &id in ids {
                if let Err(pos) = lists[li].binary_search(&id) {
                    lists[li].insert(pos, id);
                }
            }
        }
        self.moved = true;
        Ok(())
    }

    /// The climb path (level 0 = indexed table, last = root).
    pub fn levels(&self) -> &[TableId] {
        &self.levels
    }

    /// Position of `table` in the climb path.
    pub fn level_of(&self, table: TableId) -> Result<usize> {
        self.levels
            .iter()
            .position(|&t| t == table)
            .ok_or_else(|| GhostError::exec(format!("{table} is not on this index's climb path")))
    }

    /// Number of distinct keys.
    pub fn entry_count(&self) -> u32 {
        self.entries
    }

    /// Average postings per key at a level (cost estimation).
    pub fn avg_postings(&self, level: usize) -> f64 {
        if self.entries == 0 {
            return 0.0;
        }
        self.level_postings[level] as f64 / self.entries as f64
    }

    /// Flash bytes occupied (directory + postings).
    pub fn flash_bytes(&self) -> u64 {
        self.directory.len() + self.postings.len()
    }

    fn entry_w(&self) -> usize {
        Self::entry_width(self.levels.len())
    }

    /// A one-page cursor over the directory (charged to `scope`).
    fn cursor(&self, scope: &RamScope) -> Result<RunCursor<'_>> {
        RunCursor::new(
            scope,
            SortedRun {
                volume: &self.volume,
                segment: &self.directory,
                width: self.entry_w(),
                key_bytes: KEY_BYTES,
                count: self.entries as u64,
                first: self.key_span.0,
                last: self.key_span.1,
            },
        )
    }

    /// Read directory entry `idx` through the cursor.
    fn read_entry(&self, cur: &mut RunCursor<'_>, idx: u32) -> Result<DirEntry> {
        let w = self.entry_w();
        let raw = cur.record(idx as u64)?;
        let key = u64::from_le_bytes(raw[..8].try_into().expect("8B"));
        let mut slots = Vec::with_capacity(self.levels.len());
        for li in 0..self.levels.len() {
            let base = KEY_BYTES + li * PER_LEVEL_BYTES;
            let off = u32::from_le_bytes(raw[base..base + 4].try_into().expect("4B"));
            let len = u32::from_le_bytes(raw[base + 4..base + 8].try_into().expect("4B"));
            slots.push((off, len));
        }
        debug_assert_eq!(raw.len(), w);
        Ok(DirEntry { key, slots })
    }

    /// First directory position with key >= `probe`, and its key
    /// (`None` past the end): the page-granular search on flash, direct
    /// computation for dense directories.
    fn lower_bound(&self, cur: &mut RunCursor<'_>, probe: u64) -> Result<(u32, Option<u64>)> {
        if self.dense {
            let n = self.entries as u64;
            return Ok((probe.min(n) as u32, (probe < n).then_some(probe)));
        }
        let (pos, key) = cur.lower_bound(probe)?;
        Ok((pos as u32, key))
    }

    /// Probe the index: stream the ascending, deduplicated ids at
    /// `level_table` for all keys in `range`.
    ///
    /// A single-key probe streams its posting list directly; a multi-key
    /// range unions the lists through the external sorter with
    /// `sort_ram` bytes of working memory.
    pub fn lookup(
        &self,
        scope: &RamScope,
        range: KeyRange,
        level_table: TableId,
        sort_ram: usize,
    ) -> Result<PostingStream> {
        let level = self.level_of(level_table)?;
        if self.entries == 0 {
            return Ok(PostingStream::empty());
        }
        let mut cur = self.cursor(scope)?;
        let (start, first) = self.lower_bound(&mut cur, range.lo)?;
        // Collect matching entries' slots. Keys strictly ascend, so the
        // walk stops at the entry keyed `range.hi` without reading on.
        let mut slots: Vec<(u32, u32)> = Vec::new();
        if first.is_some_and(|k| k <= range.hi) {
            for idx in start..self.entries {
                let e = self.read_entry(&mut cur, idx)?;
                if e.key > range.hi {
                    break;
                }
                let s = e.slots[level];
                if s.1 > 0 {
                    slots.push(s);
                }
                if e.key == range.hi {
                    break;
                }
            }
        }
        drop(cur);
        match slots.len() {
            0 => Ok(PostingStream::empty()),
            1 => {
                let (off, len) = slots[0];
                let mut reader = self.volume.reader(scope, &self.postings)?;
                reader.seek(off as u64 * 4)?;
                Ok(PostingStream::Direct {
                    reader,
                    remaining: len as u64,
                })
            }
            _ => {
                // Union through the sorter; dedup while draining.
                let mut sorter: ExternalSorter<u32> =
                    ExternalSorter::new(&self.volume, scope, sort_ram)?;
                let mut reader = self.volume.reader(scope, &self.postings)?;
                let mut buf = [0u8; 4];
                for (off, len) in slots {
                    reader.seek(off as u64 * 4)?;
                    for _ in 0..len {
                        reader.read_exact(&mut buf)?;
                        sorter.push(u32::from_le_bytes(buf))?;
                    }
                }
                drop(reader);
                Ok(PostingStream::Sorted {
                    stream: sorter.finish()?,
                    last: None,
                })
            }
        }
    }

    /// Predicate-level probe: the delta-aware face of
    /// [`lookup`](Self::lookup). The flash base is probed with
    /// `base_range` (the key-space reduction computed by the hidden
    /// store; `None` = no base entry can match) and filtered against the
    /// suppression set; the RAM delta is matched by direct `op`/`value`
    /// comparison — exact even for strings outside the base dictionary.
    /// Inserted delta ids are strictly greater than base ids at the same
    /// level, so insert-only unions stay a concatenation
    /// ([`PostingStream::WithTail`]); once an update has re-homed base
    /// ids ([`reindex_value`](Self::reindex_value)) the union switches
    /// to an ordered merge ([`PostingStream::Merged`]).
    pub fn lookup_pred(
        &self,
        scope: &RamScope,
        op: ScalarOp,
        value: &Value,
        base_range: Option<KeyRange>,
        level_table: TableId,
        sort_ram: usize,
    ) -> Result<PostingStream> {
        let level = self.level_of(level_table)?;
        let base = match base_range {
            None => PostingStream::empty(),
            Some(r) => self.lookup(scope, r, level_table, sort_ram)?,
        };
        let base = if self.suppressed[level].is_empty() {
            base
        } else {
            PostingStream::Filtered {
                inner: Box::new(base),
                drop: self.suppressed[level].clone(),
                drop_pos: 0,
            }
        };
        let mut tail_ids: Vec<RowId> = Vec::new();
        if let IndexDelta::ByValue(entries) = &self.delta {
            for (v, lists) in entries {
                if op.matches(v, value)? {
                    tail_ids.extend(lists[level].iter().map(|&i| RowId(i)));
                }
            }
        }
        if tail_ids.is_empty() {
            return Ok(base);
        }
        tail_ids.sort_unstable();
        tail_ids.dedup();
        if self.moved {
            Ok(PostingStream::Merged {
                base: Box::new(base),
                base_next: None,
                primed: false,
                tail: tail_ids,
                tail_pos: 0,
            })
        } else {
            Ok(PostingStream::WithTail {
                base: Box::new(base),
                tail: VecIdStream::new(tail_ids),
                base_done: false,
            })
        }
    }

    /// Merge the RAM delta into rebuilt directory + postings segments
    /// and free the old ones.
    ///
    /// * `remap_key` re-keys base directory entries (the old→new code
    ///   map after a dictionary rebuild, or — for dense key indexes —
    ///   the indexed table's compaction remap; must be monotonic on the
    ///   surviving keys so the directory stays sorted). `None` drops the
    ///   entry and its postings: the dense key died.
    /// * `encode` resolves a delta entry's value to its key in the *new*
    ///   key space; `Ok(None)` means the value was dropped from the
    ///   rebuilt dictionary (its last referencing row died), which drops
    ///   the whole delta entry.
    /// * `map_id` filters and renumbers every posting id — base and
    ///   delta — per level: `None` drops a dead row's posting, `Some`
    ///   is its post-compaction id (identity when nothing died).
    ///
    /// Suppressed base postings (updates that re-homed ids into the
    /// delta) are dropped here and the suppression sets cleared — the
    /// moved ids are written from their delta entries instead.
    pub fn flush(
        &mut self,
        scope: &RamScope,
        remap_key: &dyn Fn(u64) -> Option<u64>,
        encode: &dyn Fn(&Value) -> Result<Option<u64>>,
        map_id: &dyn Fn(usize, u32) -> Option<u32>,
    ) -> Result<()> {
        let n_levels = self.levels.len();
        let suppressed = std::mem::replace(&mut self.suppressed, vec![Vec::new(); n_levels]);
        self.moved = false;
        let drained = std::mem::replace(&mut self.delta, IndexDelta::empty(self.dense));
        // Delta entries in the *new* key space, dead keys dropped, every
        // posting filtered + renumbered. (BTreeMap order + monotone
        // remap keeps ByKey sorted; ByValue sorts after encoding.)
        let map_lists = |lists: Vec<Vec<u32>>| -> Vec<Vec<u32>> {
            lists
                .into_iter()
                .enumerate()
                .map(|(li, l)| l.into_iter().filter_map(|id| map_id(li, id)).collect())
                .collect()
        };
        let delta: Vec<(u64, Vec<Vec<u32>>)> = match drained {
            IndexDelta::ByKey(m) => m
                .into_iter()
                .filter_map(|(k, lists)| remap_key(k).map(|nk| (nk, map_lists(lists))))
                .collect(),
            IndexDelta::ByValue(v) => {
                let mut out = Vec::with_capacity(v.len());
                for (val, lists) in v {
                    let Some(key) = encode(&val)? else {
                        // The value died with its last referencing row
                        // and was dropped from the rebuilt dictionary:
                        // every posting under it (ancestor levels
                        // included) is a stale claim. Drop the entry.
                        continue;
                    };
                    out.push((key, map_lists(lists)));
                }
                out.sort_by_key(|(k, _)| *k);
                out
            }
        };

        let mut out = DirWriter {
            dir_w: self.volume.writer(scope)?,
            post_w: self.volume.writer(scope)?,
            written: 0,
            level_postings: vec![0u64; n_levels],
            entries: 0,
            key_span: (0, 0),
        };
        let mut reader = self.volume.reader(scope, &self.postings)?;
        let mut cur = self.cursor(scope)?;
        let mut di = 0usize;
        let mut buf4 = [0u8; 4];
        let mut merged_lists: Vec<Vec<u32>> = Vec::new();
        for idx in 0..self.entries {
            let e = self.read_entry(&mut cur, idx)?;
            let Some(new_key) = remap_key(e.key) else {
                continue; // dead dense key: entry and postings dropped
            };
            while di < delta.len() && delta[di].0 < new_key {
                out.entry(delta[di].0, &delta[di].1)?;
                di += 1;
            }
            let extra = if di < delta.len() && delta[di].0 == new_key {
                di += 1;
                Some(&delta[di - 1].1)
            } else {
                None
            };
            // Filter + renumber the base postings (suppressed ids moved
            // into some delta entry and are not rewritten from here),
            // then append the delta list — in RAM first, because the
            // directory records each list's final length up front.
            merged_lists.clear();
            for li in 0..n_levels {
                let (off, len) = e.slots[li];
                let mut list = Vec::with_capacity(len as usize);
                reader.seek(off as u64 * 4)?;
                for _ in 0..len {
                    reader.read_exact(&mut buf4)?;
                    let id = u32::from_le_bytes(buf4);
                    if suppressed[li].binary_search(&id).is_ok() {
                        continue;
                    }
                    if let Some(new_id) = map_id(li, id) {
                        list.push(new_id);
                    }
                }
                if let Some(extra) = extra {
                    // Delta ids may interleave with base ids once
                    // updates moved rows; re-sort only when they do.
                    let needs_sort = matches!(
                        (list.last(), extra[li].first()),
                        (Some(a), Some(b)) if a >= b
                    );
                    list.extend_from_slice(&extra[li]);
                    if needs_sort {
                        list.sort_unstable();
                        list.dedup();
                    }
                }
                merged_lists.push(list);
            }
            out.entry(new_key, &merged_lists)?;
        }
        for (key, lists) in &delta[di..] {
            out.entry(*key, lists)?;
        }
        drop(cur);
        drop(reader);
        let old_dir = std::mem::replace(&mut self.directory, out.dir_w.finish()?);
        let old_post = std::mem::replace(&mut self.postings, out.post_w.finish()?);
        self.volume.free(old_dir)?;
        self.volume.free(old_post)?;
        self.entries = out.entries;
        self.key_span = out.key_span;
        self.level_postings = out.level_postings;
        Ok(())
    }

    /// Translate an ascending id stream (over this index's level-0 table)
    /// to the ascending, deduplicated ids at `level_table`.
    ///
    /// Only valid on dense key indexes: each input id addresses its
    /// directory entry directly (base rows) or its delta entry (rows
    /// inserted after the last flush). This is the Pre-filtering step
    /// that turns a delegated list of, say, VisIDs into PreIDs.
    pub fn translate(
        &self,
        scope: &RamScope,
        input: &mut dyn IdStream,
        level_table: TableId,
        sort_ram: usize,
    ) -> Result<PostingStream> {
        if !self.dense {
            return Err(GhostError::exec(
                "translate requires a dense key index".to_string(),
            ));
        }
        let level = self.level_of(level_table)?;
        let mut cur = self.cursor(scope)?;
        let mut reader = self.volume.reader(scope, &self.postings)?;
        let mut sorter: ExternalSorter<u32> = ExternalSorter::new(&self.volume, scope, sort_ram)?;
        let mut buf = [0u8; 4];
        let mut block = IdBlock::new();
        loop {
            input.next_block(&mut block)?;
            if block.is_empty() {
                break;
            }
            for &id in block.as_slice() {
                let mut known = false;
                if id.0 < self.entries {
                    let e = self.read_entry(&mut cur, id.0)?;
                    debug_assert_eq!(e.key, id.0 as u64);
                    let (off, len) = e.slots[level];
                    reader.seek(off as u64 * 4)?;
                    for _ in 0..len {
                        reader.read_exact(&mut buf)?;
                        sorter.push(u32::from_le_bytes(buf))?;
                    }
                    known = true;
                }
                // Delta postings: additions to base entries and entries
                // for rows inserted after the base was built.
                if let IndexDelta::ByKey(m) = &self.delta {
                    if let Some(lists) = m.get(&(id.0 as u64)) {
                        for &pid in &lists[level] {
                            sorter.push(pid)?;
                        }
                        known = true;
                    }
                }
                if !known {
                    return Err(GhostError::exec(format!(
                        "translate input id {id} out of range ({} entries)",
                        self.entries
                    )));
                }
            }
        }
        Ok(PostingStream::Sorted {
            stream: sorter.finish()?,
            last: None,
        })
    }
}

/// Durable description of one climbing index: directory + postings
/// segment manifests plus the directory geometry. Carries no key or
/// posting bytes — those stay in the referenced flash segments.
#[derive(Debug, Clone, PartialEq)]
pub struct ClimbingManifest {
    /// The directory segment.
    pub directory: SegmentManifest,
    /// The postings segment.
    pub postings: SegmentManifest,
    /// Climb path (level 0 = indexed table, last = root).
    pub levels: Vec<TableId>,
    /// Distinct keys in the directory.
    pub entries: u32,
    /// Direct-addressed (dense key index) flag.
    pub dense: bool,
    /// Total postings per level (cost estimation).
    pub level_postings: Vec<u64>,
}

impl Wire for ClimbingManifest {
    fn encode(&self, out: &mut Vec<u8>) {
        self.directory.encode(out);
        self.postings.encode(out);
        self.levels.encode(out);
        self.entries.encode(out);
        self.dense.encode(out);
        self.level_postings.encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self> {
        Ok(ClimbingManifest {
            directory: SegmentManifest::decode(buf)?,
            postings: SegmentManifest::decode(buf)?,
            levels: Vec::<TableId>::decode(buf)?,
            entries: u32::decode(buf)?,
            dense: bool::decode(buf)?,
            level_postings: Vec::<u64>::decode(buf)?,
        })
    }
}

impl ClimbingIndex {
    /// Every logical flash page the index's base segments can read,
    /// appended to `out` (snapshot pinning; works with a pending
    /// delta, which needs no pins).
    pub fn collect_lpns(&self, out: &mut Vec<u32>) {
        out.extend(self.directory.manifest().lpns);
        out.extend(self.postings.manifest().lpns);
    }

    /// The index's durable manifest (requires an empty delta and no
    /// suppressions — seal flushes first; un-flushed mutations ride the
    /// WAL instead).
    pub fn manifest(&self) -> Result<ClimbingManifest> {
        if self.has_pending() {
            return Err(GhostError::exec(
                "climbing-index manifest requires a flushed delta".to_string(),
            ));
        }
        Ok(ClimbingManifest {
            directory: self.directory.manifest(),
            postings: self.postings.manifest(),
            levels: self.levels.clone(),
            entries: self.entries,
            dense: self.dense,
            level_postings: self.level_postings.clone(),
        })
    }

    /// Rebuild the index from a mounted volume and its sealed manifest.
    pub fn restore(volume: &Volume, m: &ClimbingManifest) -> Result<ClimbingIndex> {
        if m.levels.is_empty() || m.level_postings.len() != m.levels.len() {
            return Err(GhostError::corrupt(
                "climbing manifest level shape is inconsistent",
            ));
        }
        let directory = volume.restore_manifest(&m.directory)?;
        if directory.len() != m.entries as u64 * Self::entry_width(m.levels.len()) as u64 {
            return Err(GhostError::corrupt(
                "climbing manifest entry count disagrees with directory length",
            ));
        }
        // The first and last keys are not in the manifest (its format
        // predates them): read them back from a searched directory. A
        // dense one is keyed by position and never searched.
        let key_at = |idx: u32| -> Result<u64> {
            let mut k = [0u8; KEY_BYTES];
            let w = Self::entry_width(m.levels.len()) as u64;
            volume.read_at(&directory, idx as u64 * w, &mut k)?;
            Ok(u64::from_le_bytes(k))
        };
        let key_span = match (m.entries, m.dense) {
            (0, _) => (0, 0),
            (n, true) => (0, n as u64 - 1),
            (n, false) => (key_at(0)?, key_at(n - 1)?),
        };
        Ok(ClimbingIndex {
            volume: volume.clone(),
            directory,
            postings: volume.restore_manifest(&m.postings)?,
            levels: m.levels.clone(),
            entries: m.entries,
            key_span,
            dense: m.dense,
            level_postings: m.level_postings.clone(),
            delta: IndexDelta::empty(m.dense),
            suppressed: vec![Vec::new(); m.levels.len()],
            moved: false,
        })
    }
}

#[derive(Debug)]
struct DirEntry {
    key: u64,
    /// Per level: (offset, length) in posting elements.
    slots: Vec<(u32, u32)>,
}

/// The flush's output: directory and postings writers plus the running
/// geometry of what they hold.
struct DirWriter {
    dir_w: SegmentWriter,
    post_w: SegmentWriter,
    /// Postings written so far (the next list's offset).
    written: u32,
    level_postings: Vec<u64>,
    entries: u32,
    key_span: (u64, u64),
}

impl DirWriter {
    /// Append one directory entry (keys must ascend) and its lists.
    fn entry(&mut self, key: u64, lists: &[Vec<u32>]) -> Result<()> {
        self.dir_w.write(&key.to_le_bytes())?;
        for (li, list) in lists.iter().enumerate() {
            self.dir_w.write(&self.written.to_le_bytes())?;
            self.dir_w.write(&(list.len() as u32).to_le_bytes())?;
            for &id in list {
                self.post_w.write(&id.to_le_bytes())?;
            }
            self.written += list.len() as u32;
            self.level_postings[li] += list.len() as u64;
        }
        if self.entries == 0 {
            self.key_span.0 = key;
        }
        self.key_span.1 = key;
        self.entries += 1;
        Ok(())
    }
}

/// Ascending, deduplicated id stream out of a climbing-index probe.
#[derive(Debug)]
pub enum PostingStream {
    /// Single posting list, already sorted and deduplicated at build time.
    Direct {
        /// Reader positioned at the list start.
        reader: SegmentReader,
        /// Ids left to yield.
        remaining: u64,
    },
    /// Union of several lists (or a translation), deduplicated on the fly.
    Sorted {
        /// The merged stream.
        stream: SortedStream<u32>,
        /// Last id yielded (for dedup).
        last: Option<u32>,
    },
    /// A flash-base stream followed by RAM-delta ids. Every tail id is
    /// greater than every base id (delta rows postdate the base build),
    /// so concatenation preserves ascending order.
    WithTail {
        /// The flash-base stream.
        base: Box<PostingStream>,
        /// Ascending, deduplicated delta ids.
        tail: VecIdStream,
        /// True once the base stream is exhausted.
        base_done: bool,
    },
    /// An ordered union of a flash-base stream and RAM-delta ids that
    /// may interleave (updates re-home base ids into the delta, so the
    /// concatenation guarantee is gone). Deduplicates on the fly.
    Merged {
        /// The flash-base stream.
        base: Box<PostingStream>,
        /// One-id lookahead into `base`.
        base_next: Option<RowId>,
        /// Whether `base_next` is valid.
        primed: bool,
        /// Ascending, deduplicated delta ids.
        tail: Vec<RowId>,
        /// Cursor into `tail`.
        tail_pos: usize,
    },
    /// A base stream minus a suppression set (ids whose indexed value
    /// was overwritten since the last flush).
    Filtered {
        /// The underlying stream.
        inner: Box<PostingStream>,
        /// Sorted ids to drop.
        drop: Vec<u32>,
        /// Cursor into `drop` (both streams ascend).
        drop_pos: usize,
    },
    /// Provably empty result.
    Empty,
}

impl PostingStream {
    /// The empty stream.
    pub fn empty() -> PostingStream {
        PostingStream::Empty
    }
}

/// Advance a sorted drop-list cursor past ids `< id`; true if `id` is
/// in the list.
#[inline]
fn dropped(drop: &[u32], pos: &mut usize, id: RowId) -> bool {
    while *pos < drop.len() && drop[*pos] < id.0 {
        *pos += 1;
    }
    *pos < drop.len() && drop[*pos] == id.0
}

impl IdStream for PostingStream {
    fn next_id(&mut self) -> Result<Option<RowId>> {
        match self {
            PostingStream::Empty => Ok(None),
            PostingStream::Filtered {
                inner,
                drop,
                drop_pos,
            } => {
                while let Some(id) = inner.next_id()? {
                    if !dropped(drop, drop_pos, id) {
                        return Ok(Some(id));
                    }
                }
                Ok(None)
            }
            PostingStream::Merged {
                base,
                base_next,
                primed,
                tail,
                tail_pos,
            } => {
                if !*primed {
                    *base_next = base.next_id()?;
                    *primed = true;
                }
                let t = tail.get(*tail_pos).copied();
                match (*base_next, t) {
                    (None, None) => Ok(None),
                    (Some(b), None) => {
                        *base_next = base.next_id()?;
                        Ok(Some(b))
                    }
                    (None, Some(t)) => {
                        *tail_pos += 1;
                        Ok(Some(t))
                    }
                    (Some(b), Some(t)) => {
                        if b <= t {
                            *base_next = base.next_id()?;
                            if b == t {
                                *tail_pos += 1;
                            }
                            Ok(Some(b))
                        } else {
                            *tail_pos += 1;
                            Ok(Some(t))
                        }
                    }
                }
            }
            PostingStream::Direct { reader, remaining } => {
                if *remaining == 0 {
                    return Ok(None);
                }
                let mut buf = [0u8; 4];
                reader.read_exact(&mut buf)?;
                *remaining -= 1;
                Ok(Some(RowId(u32::from_le_bytes(buf))))
            }
            PostingStream::Sorted { stream, last } => {
                while let Some(v) = stream.next_rec()? {
                    if Some(v) != *last {
                        *last = Some(v);
                        return Ok(Some(RowId(v)));
                    }
                }
                Ok(None)
            }
            PostingStream::WithTail {
                base,
                tail,
                base_done,
            } => {
                if !*base_done {
                    if let Some(id) = base.next_id()? {
                        return Ok(Some(id));
                    }
                    *base_done = true;
                }
                tail.next_id()
            }
        }
    }

    fn next_block(&mut self, block: &mut IdBlock) -> Result<()> {
        // The ordered merge interleaves two cursors; fill it id-at-a-time
        // (the inputs still serve their own blocks underneath).
        if matches!(self, PostingStream::Merged { .. }) {
            block.clear();
            while !block.is_full() {
                match self.next_id()? {
                    Some(id) => block.push(id),
                    None => break,
                }
            }
            return Ok(());
        }
        block.clear();
        match self {
            PostingStream::Merged { .. } => unreachable!("handled above"),
            PostingStream::Filtered {
                inner,
                drop,
                drop_pos,
            } => loop {
                inner.next_block(block)?;
                if block.is_empty() {
                    return Ok(());
                }
                block.retain(|id| !dropped(drop, drop_pos, id));
                if !block.is_empty() {
                    return Ok(());
                }
            },
            PostingStream::Empty => Ok(()),
            PostingStream::WithTail {
                base,
                tail,
                base_done,
            } => {
                if !*base_done {
                    base.next_block(block)?;
                    if !block.is_empty() {
                        return Ok(());
                    }
                    *base_done = true;
                }
                tail.next_block(block)
            }
            PostingStream::Direct { reader, remaining } => {
                // One chunked flash read per buffer instead of one
                // virtual call + 4-byte read per id.
                let take = (*remaining).min(BLOCK_CAP as u64) as usize;
                reader.read_ids_into(take, block)?;
                *remaining -= take as u64;
                Ok(())
            }
            PostingStream::Sorted { stream, last } => {
                while !block.is_full() {
                    match stream.next_rec()? {
                        None => break,
                        Some(v) if Some(v) == *last => continue,
                        Some(v) => {
                            *last = Some(v);
                            block.push(RowId(v));
                        }
                    }
                }
                Ok(())
            }
        }
    }

    fn seek_at_least(&mut self, target: RowId) -> Result<Option<RowId>> {
        match self {
            PostingStream::Empty => Ok(None),
            PostingStream::Filtered {
                inner,
                drop,
                drop_pos,
            } => {
                let mut cur = inner.seek_at_least(target)?;
                while let Some(id) = cur {
                    if !dropped(drop, drop_pos, id) {
                        return Ok(Some(id));
                    }
                    cur = inner.next_id()?;
                }
                Ok(None)
            }
            PostingStream::Merged {
                base,
                base_next,
                primed,
                tail,
                tail_pos,
            } => {
                if !*primed || base_next.is_none_or(|b| b < target) {
                    *base_next = base.seek_at_least(target)?;
                    *primed = true;
                }
                *tail_pos += tail[*tail_pos..].partition_point(|&t| t < target);
                let t = tail.get(*tail_pos).copied();
                match (*base_next, t) {
                    (None, None) => Ok(None),
                    (Some(b), None) => {
                        *base_next = base.next_id()?;
                        Ok(Some(b))
                    }
                    (None, Some(t)) => {
                        *tail_pos += 1;
                        Ok(Some(t))
                    }
                    (Some(b), Some(t)) => {
                        if b <= t {
                            *base_next = base.next_id()?;
                            if b == t {
                                *tail_pos += 1;
                            }
                            Ok(Some(b))
                        } else {
                            *tail_pos += 1;
                            Ok(Some(t))
                        }
                    }
                }
            }
            PostingStream::WithTail {
                base,
                tail,
                base_done,
            } => {
                if !*base_done {
                    if let Some(id) = base.seek_at_least(target)? {
                        return Ok(Some(id));
                    }
                    *base_done = true;
                }
                tail.seek_at_least(target)
            }
            PostingStream::Direct { reader, remaining } => {
                // The list is sorted and fixed-width on flash: gallop
                // from the cursor, then binary-search the bracketing
                // window, skipping whole posting pages.
                if *remaining == 0 {
                    return Ok(None);
                }
                let base = reader.position();
                let mut buf = [0u8; 4];
                let mut id_at = |j: u64, reader: &mut SegmentReader| -> Result<u32> {
                    reader.seek(base + j * 4)?;
                    reader.read_exact(&mut buf)?;
                    Ok(u32::from_le_bytes(buf))
                };
                // Gallop: find the first probe >= target.
                let mut step = 1u64;
                let mut lo = 0u64; // ids at [0, lo) are all < target
                let mut hi = *remaining;
                loop {
                    let probe = lo + step;
                    if probe >= *remaining {
                        break;
                    }
                    if id_at(probe - 1, reader)? < target.0 {
                        lo = probe;
                        step *= 2;
                    } else {
                        hi = probe;
                        break;
                    }
                }
                // Binary search in [lo, hi).
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    if id_at(mid, reader)? < target.0 {
                        lo = mid + 1;
                    } else {
                        hi = mid;
                    }
                }
                if lo >= *remaining {
                    *remaining = 0;
                    return Ok(None);
                }
                let found = id_at(lo, reader)?;
                *remaining -= lo + 1;
                Ok(Some(RowId(found)))
            }
            PostingStream::Sorted { .. } => {
                // Merge-of-runs streams cannot seek; scan forward.
                while let Some(id) = self.next_id()? {
                    if id >= target {
                        return Ok(Some(id));
                    }
                }
                Ok(None)
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            PostingStream::Empty => (0, Some(0)),
            PostingStream::Direct { remaining, .. } => {
                (*remaining as usize, Some(*remaining as usize))
            }
            // Duplicates collapse while draining, so only an upper bound.
            PostingStream::Sorted { stream, .. } => (0, Some(stream.len() as usize)),
            PostingStream::WithTail { base, tail, .. } => {
                let (blo, bhi) = base.size_hint();
                let (tlo, thi) = tail.size_hint();
                (blo + tlo, bhi.zip(thi).map(|(b, t)| b + t))
            }
            // Duplicates collapse in the merge; dropped ids shrink the
            // filter: upper bounds only.
            PostingStream::Merged {
                base,
                tail,
                tail_pos,
                ..
            } => {
                let (_, bhi) = base.size_hint();
                (0, bhi.map(|b| b + (tail.len() - tail_pos)))
            }
            PostingStream::Filtered { inner, .. } => (0, inner.size_hint().1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghostdb_catalog::{Schema, SchemaBuilder, Visibility};
    use ghostdb_flash::Nand;
    use ghostdb_ram::RamBudget;
    use ghostdb_storage::HiddenStore;
    use ghostdb_types::{collect_ids, DataType, FlashConfig, SimClock, Value};

    /// Doctor <- Visit <- Prescription chain with country values.
    fn setup() -> (Volume, RamScope, Schema, TreeSchema, Dataset, LoadEncoders) {
        let mut b = SchemaBuilder::new();
        b.table("Doctor", "DocID")
            .column("Country", DataType::Char(10), Visibility::Hidden);
        b.table("Visit", "VisID")
            .foreign_key("DocID", "Doctor", Visibility::Hidden);
        b.table("Prescription", "PreID")
            .foreign_key("VisID", "Visit", Visibility::Hidden);
        let schema = b.build().unwrap();
        let tree = TreeSchema::analyze(&schema).unwrap();
        let countries = ["France", "Spain", "USA"];
        let mut data = Dataset::empty(&schema);
        for i in 0..6i64 {
            data.push_row(
                TableId(0),
                vec![
                    Value::Int(i),
                    Value::Text(countries[(i % 3) as usize].into()),
                ],
            )
            .unwrap();
        }
        for i in 0..12i64 {
            data.push_row(TableId(1), vec![Value::Int(i), Value::Int(i % 6)])
                .unwrap();
        }
        for i in 0..24i64 {
            data.push_row(TableId(2), vec![Value::Int(i), Value::Int(i % 12)])
                .unwrap();
        }
        let cfg = FlashConfig {
            page_size: 128,
            pages_per_block: 8,
            num_blocks: 256,
            ..FlashConfig::default_2007()
        };
        let volume = Volume::new(Nand::new(cfg, SimClock::new()));
        let scope = RamScope::new(&RamBudget::new(64 * 1024));
        let (_store, encoders) = HiddenStore::build(&volume, &scope, &schema, &data).unwrap();
        (volume, scope, schema, tree, data, encoders)
    }

    fn ids(v: Vec<u32>) -> Vec<RowId> {
        v.into_iter().map(RowId).collect()
    }

    /// The load's key for "Spain", read off doctor 1.
    fn spain_key(enc: &LoadEncoders, data: &Dataset) -> u64 {
        let column = ghostdb_types::ColumnId(1);
        assert_eq!(data.tables[0].columns[1][1], Value::Text("Spain".into()));
        enc.keys(TableId(0), column, &data.tables[0].columns[1])
            .unwrap()[1]
    }

    #[test]
    fn value_index_level0_postings() {
        let (vol, scope, _s, tree, data, enc) = setup();
        let cref = ColumnRef {
            table: TableId(0),
            column: ghostdb_types::ColumnId(1),
        };
        let idx = ClimbingIndex::build_value_index(&vol, &scope, &tree, &data, &enc, cref).unwrap();
        assert_eq!(idx.entry_count(), 3); // France, Spain, USA
                                          // Spain = doctors 1 and 4.
        let spain = spain_key(&enc, &data);
        let range = KeyRange {
            lo: spain,
            hi: spain,
        };
        let mut s = idx.lookup(&scope, range, TableId(0), 4096).unwrap();
        assert_eq!(collect_ids(&mut s).unwrap(), ids(vec![1, 4]));
    }

    #[test]
    fn value_index_climbs_to_all_levels() {
        let (vol, scope, _s, tree, data, enc) = setup();
        let cref = ColumnRef {
            table: TableId(0),
            column: ghostdb_types::ColumnId(1),
        };
        let idx = ClimbingIndex::build_value_index(&vol, &scope, &tree, &data, &enc, cref).unwrap();
        assert_eq!(idx.levels(), &[TableId(0), TableId(1), TableId(2)]);
        let spain = spain_key(&enc, &data);
        let range = KeyRange {
            lo: spain,
            hi: spain,
        };
        // Visits of doctors {1,4}: visit v has doctor v%6 -> {1,4,7,10}.
        let mut s = idx.lookup(&scope, range, TableId(1), 4096).unwrap();
        assert_eq!(collect_ids(&mut s).unwrap(), ids(vec![1, 4, 7, 10]));
        // Prescriptions of those visits: p has visit p%12 -> {1,4,7,10,13,16,19,22}.
        let mut s = idx.lookup(&scope, range, TableId(2), 4096).unwrap();
        assert_eq!(
            collect_ids(&mut s).unwrap(),
            ids(vec![1, 4, 7, 10, 13, 16, 19, 22])
        );
    }

    #[test]
    fn range_lookup_unions_postings() {
        let (vol, scope, _s, tree, data, enc) = setup();
        let cref = ColumnRef {
            table: TableId(0),
            column: ghostdb_types::ColumnId(1),
        };
        let idx = ClimbingIndex::build_value_index(&vol, &scope, &tree, &data, &enc, cref).unwrap();
        // Range covering France + Spain (codes 0 and 1).
        let range = KeyRange { lo: 0, hi: 1 };
        let mut s = idx.lookup(&scope, range, TableId(0), 4096).unwrap();
        // France: doctors 0,3; Spain: 1,4.
        assert_eq!(collect_ids(&mut s).unwrap(), ids(vec![0, 1, 3, 4]));
        // Empty range.
        let mut s = idx
            .lookup(&scope, KeyRange { lo: 99, hi: 120 }, TableId(0), 4096)
            .unwrap();
        assert!(collect_ids(&mut s).unwrap().is_empty());
    }

    #[test]
    fn key_index_translates_up_the_tree() {
        let (vol, scope, _s, tree, data, _enc) = setup();
        // Key index on Visit: levels Vis -> Pre.
        let idx = ClimbingIndex::build_key_index(&vol, &scope, &tree, &data, TableId(1)).unwrap();
        assert_eq!(idx.entry_count(), 12);
        // Translate visits {0, 5} to prescriptions: p%12 in {0,5} ->
        // {0,12} and {5,17}.
        let mut input = ghostdb_types::VecIdStream::new(ids(vec![0, 5]));
        let mut out = idx.translate(&scope, &mut input, TableId(2), 4096).unwrap();
        assert_eq!(collect_ids(&mut out).unwrap(), ids(vec![0, 5, 12, 17]));
    }

    #[test]
    fn translate_dedups_outputs() {
        let (vol, scope, _s, tree, data, _enc) = setup();
        // Key index on Doctor: levels Doc -> Vis -> Pre.
        let idx = ClimbingIndex::build_key_index(&vol, &scope, &tree, &data, TableId(0)).unwrap();
        // Doctors {1,4} both map to visits {1,4,7,10}; translation must
        // dedup shared ancestors.
        let mut input = ghostdb_types::VecIdStream::new(ids(vec![1, 4]));
        let mut out = idx.translate(&scope, &mut input, TableId(1), 4096).unwrap();
        assert_eq!(collect_ids(&mut out).unwrap(), ids(vec![1, 4, 7, 10]));
    }

    #[test]
    fn translate_rejects_value_indexes_and_bad_ids() {
        let (vol, scope, _s, tree, data, enc) = setup();
        let cref = ColumnRef {
            table: TableId(0),
            column: ghostdb_types::ColumnId(1),
        };
        let vidx =
            ClimbingIndex::build_value_index(&vol, &scope, &tree, &data, &enc, cref).unwrap();
        let mut input = ghostdb_types::VecIdStream::new(ids(vec![0]));
        assert!(vidx
            .translate(&scope, &mut input, TableId(2), 4096)
            .is_err());

        let kidx = ClimbingIndex::build_key_index(&vol, &scope, &tree, &data, TableId(1)).unwrap();
        let mut input = ghostdb_types::VecIdStream::new(ids(vec![99]));
        assert!(kidx
            .translate(&scope, &mut input, TableId(2), 4096)
            .is_err());
    }

    #[test]
    fn level_of_rejects_off_path_tables() {
        let (vol, scope, _s, tree, data, _enc) = setup();
        let idx = ClimbingIndex::build_key_index(&vol, &scope, &tree, &data, TableId(1)).unwrap();
        assert!(idx.level_of(TableId(0)).is_err()); // Doctor below Visit
        assert!(idx.level_of(TableId(2)).is_ok());
    }

    #[test]
    fn direct_posting_stream_blocks_and_seeks() {
        let (vol, scope, _s, tree, data, enc) = setup();
        let cref = ColumnRef {
            table: TableId(0),
            column: ghostdb_types::ColumnId(1),
        };
        let idx = ClimbingIndex::build_value_index(&vol, &scope, &tree, &data, &enc, cref).unwrap();
        let spain = spain_key(&enc, &data);
        let range = KeyRange {
            lo: spain,
            hi: spain,
        };
        // Single-key probe = Direct stream; Prescription level has
        // postings {1,4,7,10,13,16,19,22}.
        let mut s = idx.lookup(&scope, range, TableId(2), 4096).unwrap();
        assert!(matches!(s, PostingStream::Direct { .. }));
        let mut b = IdBlock::new();
        s.next_block(&mut b).unwrap();
        assert_eq!(b.as_slice(), &ids(vec![1, 4, 7, 10, 13, 16, 19, 22])[..]);

        // Galloping seek on flash skips ids without yielding them, and
        // lands on the same answers as the scalar fallback.
        for (target, expect) in [
            (0u32, Some(1u32)),
            (1, Some(1)),
            (2, Some(4)),
            (11, Some(13)),
            (22, Some(22)),
            (23, None),
        ] {
            let mut fast = idx.lookup(&scope, range, TableId(2), 4096).unwrap();
            let got = fast.seek_at_least(RowId(target)).unwrap();
            assert_eq!(got, expect.map(RowId), "seek {target}");
            let mut slow =
                ghostdb_types::ScalarFallback(idx.lookup(&scope, range, TableId(2), 4096).unwrap());
            assert_eq!(slow.seek_at_least(RowId(target)).unwrap(), got);
            // After an in-range seek, the stream resumes past the hit.
            if got.is_some() {
                assert_eq!(fast.next_id().unwrap(), slow.next_id().unwrap());
            }
        }
        // Seeking an exhausted/empty stream stays None.
        let mut s = PostingStream::empty();
        assert_eq!(s.seek_at_least(RowId(0)).unwrap(), None);
    }

    #[test]
    fn value_index_delta_union_and_flush() {
        let (vol, scope, _s, tree, data, enc) = setup();
        let cref = ColumnRef {
            table: TableId(0),
            column: ghostdb_types::ColumnId(1),
        };
        let mut idx =
            ClimbingIndex::build_value_index(&vol, &scope, &tree, &data, &enc, cref).unwrap();
        // Simulate inserting visit 12 under a Spain doctor, and visit 13
        // under a doctor whose country the base dictionary lacks.
        idx.insert_delta_value(&Value::Text("Spain".into()), TableId(1), RowId(12))
            .unwrap();
        idx.insert_delta_value(&Value::Text("Atlantis".into()), TableId(1), RowId(13))
            .unwrap();
        assert_eq!(idx.delta_entries(), 2);
        // Base ∪ delta through the value-exact probe.
        let spain = KeyRange { lo: 1, hi: 1 };
        let mut s = idx
            .lookup_pred(
                &scope,
                ghostdb_types::ScalarOp::Eq,
                &Value::Text("Spain".into()),
                Some(spain),
                TableId(1),
                4096,
            )
            .unwrap();
        assert_eq!(collect_ids(&mut s).unwrap(), ids(vec![1, 4, 7, 10, 12]));
        // Delta-only string: no base range at all.
        let mut s = idx
            .lookup_pred(
                &scope,
                ghostdb_types::ScalarOp::Eq,
                &Value::Text("Atlantis".into()),
                None,
                TableId(1),
                4096,
            )
            .unwrap();
        assert_eq!(collect_ids(&mut s).unwrap(), ids(vec![13]));

        // Flush under a rebuilt dictionary [Atlantis, France, Spain, USA]:
        // base codes shift by one, Atlantis takes rank 0.
        let remap = |k: u64| Some(k + 1);
        let encode = |v: &Value| -> Result<Option<u64>> {
            Ok(Some(match v.as_text().unwrap() {
                "Atlantis" => 0,
                "France" => 1,
                "Spain" => 2,
                "USA" => 3,
                other => panic!("unexpected {other}"),
            }))
        };
        idx.flush(&scope, &remap, &encode, &|_, id| Some(id))
            .unwrap();
        assert_eq!(idx.entry_count(), 4);
        assert_eq!(idx.delta_entries(), 0);
        let mut s = idx
            .lookup(&scope, KeyRange { lo: 2, hi: 2 }, TableId(1), 4096)
            .unwrap();
        assert_eq!(collect_ids(&mut s).unwrap(), ids(vec![1, 4, 7, 10, 12]));
        let mut s = idx
            .lookup(&scope, KeyRange { lo: 0, hi: 0 }, TableId(1), 4096)
            .unwrap();
        assert_eq!(collect_ids(&mut s).unwrap(), ids(vec![13]));
    }

    #[test]
    fn key_index_delta_translate_and_flush() {
        let (vol, scope, _s, tree, data, _enc) = setup();
        // Key index on Visit: levels Vis -> Pre; 12 base entries.
        let mut idx =
            ClimbingIndex::build_key_index(&vol, &scope, &tree, &data, TableId(1)).unwrap();
        // New prescription 24 references base visit 5; new visit 12
        // creates a fresh dense entry.
        idx.insert_delta_key(5, TableId(2), RowId(24)).unwrap();
        idx.insert_delta_key(12, TableId(1), RowId(12)).unwrap();
        let mut input = ghostdb_types::VecIdStream::new(ids(vec![5, 12]));
        let mut out = idx.translate(&scope, &mut input, TableId(2), 4096).unwrap();
        // Base postings of visit 5 ({5, 17}) plus the delta posting 24;
        // visit 12 is delta-only and contributes nothing at Pre level.
        assert_eq!(collect_ids(&mut out).unwrap(), ids(vec![5, 17, 24]));

        idx.flush(
            &scope,
            &Some,
            &|_| panic!("no values in key index"),
            &|_, id| Some(id),
        )
        .unwrap();
        assert_eq!(idx.entry_count(), 13);
        let mut input = ghostdb_types::VecIdStream::new(ids(vec![5, 12]));
        let mut out = idx.translate(&scope, &mut input, TableId(2), 4096).unwrap();
        assert_eq!(collect_ids(&mut out).unwrap(), ids(vec![5, 17, 24]));
        // Truly unknown ids still fail.
        let mut input = ghostdb_types::VecIdStream::new(ids(vec![99]));
        assert!(idx.translate(&scope, &mut input, TableId(2), 4096).is_err());
    }

    /// Updates: suppression + delta re-posting keeps probes exact, the
    /// ordered merge keeps streams ascending when base ids re-enter via
    /// the delta, and the flush bakes everything back in.
    #[test]
    fn value_index_reindex_after_update() {
        let (vol, scope, _s, tree, data, enc) = setup();
        let cref = ColumnRef {
            table: TableId(0),
            column: ghostdb_types::ColumnId(1),
        };
        let mut idx =
            ClimbingIndex::build_value_index(&vol, &scope, &tree, &data, &enc, cref).unwrap();
        // Doctor 1 (Spain) moves to France. Its subtree: visits {1,7}
        // (v%6 == 1), prescriptions {1,7,13,19} (p%12 ∈ {1,7}).
        idx.reindex_value(
            &Value::Text("Spain".into()),
            &Value::Text("France".into()),
            &[vec![1], vec![1, 7], vec![1, 7, 13, 19]],
        )
        .unwrap();
        assert!(idx.has_pending());
        // Spain keeps doctor 4 only → visits {4, 10}.
        let spain = KeyRange { lo: 1, hi: 1 };
        let mut s = idx
            .lookup_pred(
                &scope,
                ghostdb_types::ScalarOp::Eq,
                &Value::Text("Spain".into()),
                Some(spain),
                TableId(1),
                4096,
            )
            .unwrap();
        assert_eq!(collect_ids(&mut s).unwrap(), ids(vec![4, 10]));
        // France (doctors {0,3}: visits {0,3,6,9}) gains doctor 1's
        // {1,7}, interleaved — the ordered merge keeps the stream
        // ascending.
        let france = KeyRange { lo: 0, hi: 0 };
        let mut s = idx
            .lookup_pred(
                &scope,
                ghostdb_types::ScalarOp::Eq,
                &Value::Text("France".into()),
                Some(france),
                TableId(1),
                4096,
            )
            .unwrap();
        assert_eq!(collect_ids(&mut s).unwrap(), ids(vec![0, 1, 3, 6, 7, 9]));
        // Seek semantics survive the merge.
        let mut s = idx
            .lookup_pred(
                &scope,
                ghostdb_types::ScalarOp::Eq,
                &Value::Text("France".into()),
                Some(france),
                TableId(1),
                4096,
            )
            .unwrap();
        assert_eq!(s.seek_at_least(RowId(2)).unwrap(), Some(RowId(3)));
        assert_eq!(s.next_id().unwrap(), Some(RowId(6)));

        // Flush with identity remaps bakes the move into the base.
        idx.flush(
            &scope,
            &Some,
            &|v| {
                Ok(Some(match v.as_text().unwrap() {
                    "France" => 0,
                    "Spain" => 1,
                    "USA" => 2,
                    other => panic!("unexpected {other}"),
                }))
            },
            &|_, id| Some(id),
        )
        .unwrap();
        assert!(!idx.has_pending());
        let mut s = idx.lookup(&scope, france, TableId(1), 4096).unwrap();
        assert_eq!(collect_ids(&mut s).unwrap(), ids(vec![0, 1, 3, 6, 7, 9]));
        let mut s = idx.lookup(&scope, spain, TableId(1), 4096).unwrap();
        assert_eq!(collect_ids(&mut s).unwrap(), ids(vec![4, 10]));
    }

    /// Deletes at flush: dead dense keys drop their entries, dead
    /// posting ids vanish everywhere, survivors renumber.
    #[test]
    fn key_index_flush_compacts_dead_rows() {
        let (vol, scope, _s, tree, data, _enc) = setup();
        // Key index on Visit (12 entries), levels Vis → Pre.
        let mut idx =
            ClimbingIndex::build_key_index(&vol, &scope, &tree, &data, TableId(1)).unwrap();
        // Kill visit 0 and prescriptions {0, 12} (its referencing rows).
        // Visit remap: 0→dead, i→i-1; prescription remap: drop {0,12}.
        let vis_remap = |k: u64| -> Option<u64> { k.checked_sub(1) };
        let pre_map = |id: u32| -> Option<u32> {
            match id {
                0 | 12 => None,
                i if i < 12 => Some(i - 1),
                i => Some(i - 2),
            }
        };
        idx.flush(
            &scope,
            &vis_remap,
            &|_| panic!("no values in key index"),
            &|li, id| match li {
                0 => vis_remap(id as u64).map(|n| n as u32),
                _ => pre_map(id),
            },
        )
        .unwrap();
        assert_eq!(idx.entry_count(), 11);
        // Old visit 5 is now entry 4; its prescriptions {5,17} became
        // {4, 15} under the prescription remap.
        let mut input = ghostdb_types::VecIdStream::new(ids(vec![4]));
        let mut out = idx.translate(&scope, &mut input, TableId(2), 4096).unwrap();
        assert_eq!(collect_ids(&mut out).unwrap(), ids(vec![4, 15]));
    }

    /// A point lookup on a dense, uniformly keyed directory reads the
    /// page its entry is on and the page its postings are on — 2 NAND
    /// reads with the page cache off — at either level of the climb. The
    /// 2-level directory's 24-byte entries tile 2040-byte pages exactly.
    #[test]
    fn point_lookup_on_a_dense_directory_reads_two_pages() {
        let mut b = SchemaBuilder::new();
        b.table("Item", "ItemID")
            .column("Payload", DataType::Integer, Visibility::Hidden);
        b.table("Ref", "RefID")
            .foreign_key("ItemID", "Item", Visibility::Hidden);
        let schema = b.build().unwrap();
        let tree = TreeSchema::analyze(&schema).unwrap();
        // Ref row i references item (i * 7) % n: one posting per key and
        // level, the levels' ids in different orders.
        let n = 20_000i64;
        let mut data = Dataset::empty(&schema);
        for i in 0..n {
            data.push_row(TableId(0), vec![Value::Int(i), Value::Int(i * 3)])
                .unwrap();
        }
        for i in 0..n {
            data.push_row(TableId(1), vec![Value::Int(i), Value::Int(i * 7 % n)])
                .unwrap();
        }
        let cfg = FlashConfig {
            num_blocks: 64,
            ..FlashConfig::default_2007()
        };
        let vol = Volume::new(Nand::new(cfg, SimClock::new()));
        let scope = RamScope::new(&RamBudget::new(64 * 1024));
        let cref = ColumnRef {
            table: TableId(0),
            column: ghostdb_types::ColumnId(1),
        };
        let idx = ClimbingIndex::build_value_index(
            &vol,
            &scope,
            &tree,
            &data,
            &LoadEncoders::default(),
            cref,
        )
        .unwrap();
        assert_eq!(idx.levels(), &[TableId(0), TableId(1)]);
        assert_eq!(idx.entry_count(), n as u32);
        // Ref (i * 7⁻¹) % n references item i; 7 · 17143 ≡ 1 (mod 20000).
        let referrer = |i: i64| (i * 17_143 % n) as u32;
        for i in (0..n).step_by(97) {
            let key = Value::Int(i * 3).order_key().unwrap();
            for (level, want) in [(TableId(0), i as u32), (TableId(1), referrer(i))] {
                let before = vol.nand().stats().page_reads;
                let range = KeyRange { lo: key, hi: key };
                let mut s = idx.lookup(&scope, range, level, 4096).unwrap();
                assert_eq!(collect_ids(&mut s).unwrap(), ids(vec![want]));
                let reads = vol.nand().stats().page_reads - before;
                assert!(reads <= 2, "key {i}, level {level}: {reads} reads");
            }
        }
    }

    #[test]
    fn flash_accounting_nonzero() {
        let (vol, scope, _s, tree, data, enc) = setup();
        let cref = ColumnRef {
            table: TableId(0),
            column: ghostdb_types::ColumnId(1),
        };
        let idx = ClimbingIndex::build_value_index(&vol, &scope, &tree, &data, &enc, cref).unwrap();
        assert!(idx.flash_bytes() > 0);
        assert!(idx.avg_postings(0) >= 1.0);
    }
}
