//! Subtree Key Tables (paper §4, Figure 3).
//!
//! `SKT_Prescription` holds, for each prescription (ascending PreID), the
//! row ids ⟨PreID, MedID, VisID, DocID, PatID⟩ — i.e. the precomputed
//! join of the whole subtree to its root. Because root ids are dense, the
//! SKT is a fixed-width array on flash: the row for root id *i* sits at
//! byte `i * width`, so a sorted id stream turns into near-sequential
//! page reads and "reaching any other table in the path... in a single
//! step" costs one partial page read.
//!
//! Reaching another table is the SKT's only use: row *i* holds *i* in
//! its root column, so a plan that reads no column outside the anchor
//! never opens it (`ghostdb_exec::Plan::reads_skt`) and batches the
//! candidate ids themselves.

use ghostdb_catalog::TreeSchema;
use ghostdb_flash::{Segment, SegmentManifest, Volume};
use ghostdb_ram::{RamScope, ScopedGuard};
use ghostdb_storage::Dataset;
use ghostdb_types::{GhostError, Result, RowId, TableId, Wire};

use crate::wide_rows;

/// One SKT row: the ids of every subtree table for one root row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SktRow {
    /// Ids in the SKT's table order (`table_order()[0]` is the subtree
    /// root, so `ids[0]` is the row's own id).
    pub ids: Vec<RowId>,
}

impl SktRow {
    /// The subtree-root id of this row.
    pub fn root_id(&self) -> RowId {
        self.ids[0]
    }
}

/// A Subtree Key Table: a fixed-width flash base plus a RAM-resident
/// delta of rows appended by post-load inserts (flushed into a rebuilt
/// segment by [`SubtreeKeyTable::flush`]).
#[derive(Debug, Clone)]
pub struct SubtreeKeyTable {
    volume: Volume,
    segment: Segment,
    /// Tables covered, preorder; position = column within the row.
    tables: Vec<TableId>,
    /// Rows resident in the flash base.
    rows: u32,
    /// Appended wide rows (root ids `rows..rows + delta.len()`).
    delta: Vec<Vec<RowId>>,
}

impl SubtreeKeyTable {
    /// Materialize the SKT rooted at `anchor` during the secure load.
    pub fn build(
        volume: &Volume,
        scope: &RamScope,
        tree: &TreeSchema,
        data: &Dataset,
        anchor: TableId,
    ) -> Result<SubtreeKeyTable> {
        let tables = tree.subtree(anchor);
        let wide = wide_rows(tree, data, anchor, &tables)?;
        let rows = data.row_count(anchor) as u32;
        let mut w = volume.writer(scope)?;
        for r in 0..rows {
            for t in &tables {
                let ids = wide[t.index()]
                    .as_ref()
                    .ok_or_else(|| GhostError::catalog("missing wide column"))?;
                w.write(&ids[r as usize].to_le_bytes())?;
            }
        }
        Ok(SubtreeKeyTable {
            volume: volume.clone(),
            segment: w.finish()?,
            tables,
            rows,
            delta: Vec::new(),
        })
    }

    /// Append one wide row (ids in [`table_order`](Self::table_order);
    /// `ids[0]` must be the next dense root id). Post-load inserts land
    /// here; the row lives in RAM until the next [`flush`](Self::flush).
    pub fn append_row(&mut self, ids: Vec<RowId>) -> Result<()> {
        if ids.len() != self.tables.len() {
            return Err(GhostError::exec(format!(
                "SKT row arity {} != {} covered tables",
                ids.len(),
                self.tables.len()
            )));
        }
        let expect = self.rows + self.delta.len() as u32;
        if ids[0] != RowId(expect) {
            return Err(GhostError::exec(format!(
                "SKT append out of order: got root id {}, expected {expect}",
                ids[0]
            )));
        }
        self.delta.push(ids);
        Ok(())
    }

    /// Un-flushed delta rows.
    pub fn delta_rows(&self) -> u32 {
        self.delta.len() as u32
    }

    /// Merge the RAM delta into a rebuilt flash segment and free the old
    /// one. `map_id(col, id)` filters and renumbers every stored id by
    /// its column's table: `None` for the **root** column drops the whole
    /// wide row (the root row died — its bytes are what a post-delete
    /// flush reclaims); a `None` on any other column of a surviving row
    /// is a referential-integrity violation (the delete-time RESTRICT
    /// check forbids it). Identity `map_id` reproduces the old
    /// append-only merge.
    pub fn flush(
        &mut self,
        scope: &RamScope,
        map_id: &dyn Fn(usize, u32) -> Option<u32>,
    ) -> Result<()> {
        let mut w = self.volume.writer(scope)?;
        let mut reader = self.volume.reader(scope, &self.segment)?;
        let n_cols = self.tables.len();
        let mut buf = [0u8; 4];
        let mut row = vec![0u32; n_cols];
        let mut out_rows = 0u32;
        for _ in 0..self.rows {
            for slot in row.iter_mut() {
                reader.read_exact(&mut buf)?;
                *slot = u32::from_le_bytes(buf);
            }
            self.write_mapped(&mut w, &row, map_id, &mut out_rows)?;
        }
        drop(reader);
        let delta = std::mem::take(&mut self.delta);
        for drow in &delta {
            let raw: Vec<u32> = drow.iter().map(|id| id.0).collect();
            self.write_mapped(&mut w, &raw, map_id, &mut out_rows)?;
        }
        let new_seg = w.finish()?;
        let old = std::mem::replace(&mut self.segment, new_seg);
        self.volume.free(old)?;
        self.rows = out_rows;
        Ok(())
    }

    /// Write one wide row through the remap; dead roots drop the row.
    fn write_mapped(
        &self,
        w: &mut ghostdb_flash::SegmentWriter,
        row: &[u32],
        map_id: &dyn Fn(usize, u32) -> Option<u32>,
        out_rows: &mut u32,
    ) -> Result<()> {
        let Some(root) = map_id(0, row[0]) else {
            return Ok(());
        };
        w.write(&root.to_le_bytes())?;
        for (col, &id) in row.iter().enumerate().skip(1) {
            let mapped = map_id(col, id).ok_or_else(|| {
                GhostError::corrupt("live SKT row references a deleted subtree row")
            })?;
            w.write(&mapped.to_le_bytes())?;
        }
        *out_rows += 1;
        Ok(())
    }

    /// Tables covered, in column order (`[0]` is the subtree root).
    pub fn table_order(&self) -> &[TableId] {
        &self.tables
    }

    /// Column position of `table` within a row.
    pub fn column_of(&self, table: TableId) -> Result<usize> {
        self.tables
            .iter()
            .position(|&t| t == table)
            .ok_or_else(|| GhostError::exec(format!("{table} not covered by this SKT")))
    }

    /// Row width in bytes.
    pub fn row_width(&self) -> usize {
        self.tables.len() * 4
    }

    /// Number of rows including the un-flushed delta (= root-table
    /// cardinality).
    pub fn row_count(&self) -> u32 {
        self.rows + self.delta.len() as u32
    }

    /// Flash bytes occupied.
    pub fn flash_bytes(&self) -> u64 {
        self.segment.len()
    }

    /// Open a cursor for random (but ideally ascending) row access.
    ///
    /// The cursor keeps the last-touched flash page buffered (charged to
    /// `scope`), so an ascending id stream reads each page once — the
    /// access pattern the paper's "IDs sorted based on the order of IDs
    /// in the root table" is designed for.
    pub fn cursor(&self, scope: &RamScope) -> Result<SktCursor<'_>> {
        let page = self.volume.page_size();
        let guard = scope.alloc(page)?;
        Ok(SktCursor {
            skt: self,
            buf: vec![0u8; page],
            buf_page: u64::MAX,
            reads: 0,
            _ram: guard,
        })
    }
}

/// Durable description of one Subtree Key Table.
#[derive(Debug, Clone, PartialEq)]
pub struct SktManifest {
    /// The fixed-width rows segment.
    pub segment: SegmentManifest,
    /// Tables covered, preorder.
    pub tables: Vec<TableId>,
    /// Rows resident in the flash base.
    pub rows: u32,
}

impl Wire for SktManifest {
    fn encode(&self, out: &mut Vec<u8>) {
        self.segment.encode(out);
        self.tables.encode(out);
        self.rows.encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self> {
        Ok(SktManifest {
            segment: SegmentManifest::decode(buf)?,
            tables: Vec::<TableId>::decode(buf)?,
            rows: u32::decode(buf)?,
        })
    }
}

impl SubtreeKeyTable {
    /// Every logical flash page the SKT's base segment can read,
    /// appended to `out` (snapshot pinning; works with a pending
    /// delta, which needs no pins).
    pub fn collect_lpns(&self, out: &mut Vec<u32>) {
        out.extend(self.segment.manifest().lpns);
    }

    /// The SKT's durable manifest (requires an empty delta — seal
    /// flushes first).
    pub fn manifest(&self) -> Result<SktManifest> {
        if !self.delta.is_empty() {
            return Err(GhostError::exec(
                "SKT manifest requires a flushed delta".to_string(),
            ));
        }
        Ok(SktManifest {
            segment: self.segment.manifest(),
            tables: self.tables.clone(),
            rows: self.rows,
        })
    }

    /// Rebuild the SKT from a mounted volume and its sealed manifest.
    pub fn restore(volume: &Volume, m: &SktManifest) -> Result<SubtreeKeyTable> {
        if m.tables.is_empty() {
            return Err(GhostError::corrupt("SKT manifest covers no tables"));
        }
        let segment = volume.restore_manifest(&m.segment)?;
        if segment.len() != m.rows as u64 * (m.tables.len() * 4) as u64 {
            return Err(GhostError::corrupt(
                "SKT manifest row count disagrees with segment length",
            ));
        }
        Ok(SubtreeKeyTable {
            volume: volume.clone(),
            segment,
            tables: m.tables.clone(),
            rows: m.rows,
            delta: Vec::new(),
        })
    }
}

/// Buffered cursor over a [`SubtreeKeyTable`].
#[derive(Debug)]
pub struct SktCursor<'a> {
    skt: &'a SubtreeKeyTable,
    buf: Vec<u8>,
    buf_page: u64,
    reads: u64,
    _ram: ScopedGuard,
}

impl SktCursor<'_> {
    /// Fetch the SKT row for root id `id` (flash base or RAM delta).
    pub fn fetch(&mut self, id: RowId) -> Result<SktRow> {
        if id.0 >= self.skt.row_count() {
            return Err(GhostError::exec(format!(
                "SKT row {id} out of range ({} rows)",
                self.skt.row_count()
            )));
        }
        if id.0 >= self.skt.rows {
            return Ok(SktRow {
                ids: self.skt.delta[(id.0 - self.skt.rows) as usize].clone(),
            });
        }
        let width = self.skt.row_width();
        let page_size = self.buf.len();
        let start = id.index() as u64 * width as u64;
        let mut raw = vec![0u8; width];
        let first_page = start / page_size as u64;
        let last_page = (start + width as u64 - 1) / page_size as u64;
        if first_page == last_page {
            // Whole row within one page: serve from the buffered page.
            if self.buf_page != first_page {
                let page_start = first_page * page_size as u64;
                let len = page_size.min((self.skt.segment.len() - page_start) as usize);
                self.skt
                    .volume
                    .read_at(&self.skt.segment, page_start, &mut self.buf[..len])?;
                self.buf_page = first_page;
                self.reads += 1;
            }
            let off = (start - first_page * page_size as u64) as usize;
            raw.copy_from_slice(&self.buf[off..off + width]);
        } else {
            // Row straddles pages: read it directly (rare).
            self.skt
                .volume
                .read_at(&self.skt.segment, start, &mut raw)?;
            self.buf_page = u64::MAX;
            self.reads += 1;
        }
        let ids = raw
            .chunks_exact(4)
            .map(|c| RowId(u32::from_le_bytes(c.try_into().expect("4B"))))
            .collect();
        Ok(SktRow { ids })
    }

    /// Page-read operations issued by this cursor (observability).
    pub fn page_reads(&self) -> u64 {
        self.reads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghostdb_catalog::{SchemaBuilder, Visibility};
    use ghostdb_flash::Nand;
    use ghostdb_ram::RamBudget;
    use ghostdb_types::{FlashConfig, SimClock, Value};

    /// Figure 3 shape with tiny cardinalities and deterministic fks.
    fn setup() -> (Volume, RamScope, TreeSchema, Dataset, Vec<TableId>) {
        let mut b = SchemaBuilder::new();
        b.table("Doctor", "DocID");
        b.table("Patient", "PatID");
        b.table("Medicine", "MedID");
        b.table("Visit", "VisID")
            .foreign_key("DocID", "Doctor", Visibility::Hidden)
            .foreign_key("PatID", "Patient", Visibility::Hidden);
        b.table("Prescription", "PreID")
            .foreign_key("MedID", "Medicine", Visibility::Hidden)
            .foreign_key("VisID", "Visit", Visibility::Hidden);
        let schema = b.build().unwrap();
        let tree = TreeSchema::analyze(&schema).unwrap();

        let mut data = Dataset::empty(&schema);
        for i in 0..4i64 {
            data.push_row(TableId(0), vec![Value::Int(i)]).unwrap(); // doctors
        }
        for i in 0..6i64 {
            data.push_row(TableId(1), vec![Value::Int(i)]).unwrap(); // patients
        }
        for i in 0..5i64 {
            data.push_row(TableId(2), vec![Value::Int(i)]).unwrap(); // medicines
        }
        for i in 0..8i64 {
            // visit i -> doctor i%4, patient i%6
            data.push_row(
                TableId(3),
                vec![Value::Int(i), Value::Int(i % 4), Value::Int(i % 6)],
            )
            .unwrap();
        }
        for i in 0..20i64 {
            // prescription i -> medicine i%5, visit i%8
            data.push_row(
                TableId(4),
                vec![Value::Int(i), Value::Int(i % 5), Value::Int(i % 8)],
            )
            .unwrap();
        }
        let cfg = FlashConfig {
            page_size: 64,
            pages_per_block: 8,
            num_blocks: 128,
            ..FlashConfig::default_2007()
        };
        let volume = Volume::new(Nand::new(cfg, SimClock::new()));
        let scope = RamScope::new(&RamBudget::new(64 * 1024));
        let ids = (0..5).map(|i| TableId(i as u16)).collect();
        (volume, scope, tree, data, ids)
    }

    #[test]
    fn prescription_skt_matches_fk_chains() {
        let (vol, scope, tree, data, t) = setup();
        let (doc, pat, med, vis, pre) = (t[0], t[1], t[2], t[3], t[4]);
        let skt = SubtreeKeyTable::build(&vol, &scope, &tree, &data, pre).unwrap();
        assert_eq!(skt.row_count(), 20);
        assert_eq!(skt.row_width(), 20); // 5 tables x 4 bytes
        let mut cur = skt.cursor(&scope).unwrap();
        for i in 0..20u32 {
            let row = cur.fetch(RowId(i)).unwrap();
            assert_eq!(row.root_id(), RowId(i));
            let med_id = row.ids[skt.column_of(med).unwrap()];
            let vis_id = row.ids[skt.column_of(vis).unwrap()];
            let doc_id = row.ids[skt.column_of(doc).unwrap()];
            let pat_id = row.ids[skt.column_of(pat).unwrap()];
            assert_eq!(med_id.0, i % 5);
            assert_eq!(vis_id.0, i % 8);
            assert_eq!(doc_id.0, (i % 8) % 4);
            assert_eq!(pat_id.0, (i % 8) % 6);
        }
    }

    #[test]
    fn visit_skt_covers_its_subtree_only() {
        let (vol, scope, tree, data, t) = setup();
        let (doc, pat, _med, vis, pre) = (t[0], t[1], t[2], t[3], t[4]);
        let skt = SubtreeKeyTable::build(&vol, &scope, &tree, &data, vis).unwrap();
        assert_eq!(skt.row_count(), 8);
        assert!(skt.column_of(pre).is_err());
        let mut cur = skt.cursor(&scope).unwrap();
        let row = cur.fetch(RowId(5)).unwrap();
        assert_eq!(row.ids[skt.column_of(doc).unwrap()].0, 1); // 5 % 4
        assert_eq!(row.ids[skt.column_of(pat).unwrap()].0, 5); // 5 % 6
    }

    #[test]
    fn ascending_access_is_page_batched() {
        let (vol, scope, tree, data, t) = setup();
        let pre = t[4];
        let skt = SubtreeKeyTable::build(&vol, &scope, &tree, &data, pre).unwrap();
        let mut cur = skt.cursor(&scope).unwrap();
        for i in 0..20u32 {
            cur.fetch(RowId(i)).unwrap();
        }
        // 20 rows x 20B = 400B over 64B pages = 7 pages; a few rows
        // straddle page boundaries and cost an extra direct read.
        assert!(
            cur.page_reads() <= 14,
            "expected page batching, got {} reads",
            cur.page_reads()
        );
    }

    #[test]
    fn delta_append_fetch_flush() {
        let (vol, scope, tree, data, t) = setup();
        let pre = t[4];
        let mut skt = SubtreeKeyTable::build(&vol, &scope, &tree, &data, pre).unwrap();
        // New prescription 20 -> medicine 2, visit 3 (doctor 3, patient 3).
        let order = skt.table_order().to_vec();
        let wide = |table: TableId| match table.0 {
            0 => RowId(3),  // doctor
            1 => RowId(3),  // patient
            2 => RowId(2),  // medicine
            3 => RowId(3),  // visit
            4 => RowId(20), // prescription
            _ => unreachable!(),
        };
        let row: Vec<RowId> = order.iter().map(|&tt| wide(tt)).collect();
        // Out-of-order root ids are rejected.
        let mut bad = row.clone();
        bad[0] = RowId(25);
        assert!(skt.append_row(bad).is_err());
        skt.append_row(row.clone()).unwrap();
        assert_eq!(skt.row_count(), 21);
        assert_eq!(skt.delta_rows(), 1);
        let mut cur = skt.cursor(&scope).unwrap();
        assert_eq!(cur.fetch(RowId(20)).unwrap().ids, row);
        assert!(cur.fetch(RowId(21)).is_err());
        drop(cur);
        skt.flush(&scope, &|_, id| Some(id)).unwrap();
        assert_eq!(skt.delta_rows(), 0);
        assert_eq!(skt.row_count(), 21);
        let mut cur = skt.cursor(&scope).unwrap();
        assert_eq!(cur.fetch(RowId(20)).unwrap().ids, row);
        // Base rows survive the segment rebuild.
        assert_eq!(cur.fetch(RowId(7)).unwrap().root_id(), RowId(7));
    }

    #[test]
    fn out_of_range_fetch_fails() {
        let (vol, scope, tree, data, t) = setup();
        let skt = SubtreeKeyTable::build(&vol, &scope, &tree, &data, t[4]).unwrap();
        let mut cur = skt.cursor(&scope).unwrap();
        assert!(cur.fetch(RowId(20)).is_err());
    }
}
