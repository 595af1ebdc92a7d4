//! Column statistics and selectivity estimation.
//!
//! The demo's phase 2 lets visitors compare Pre-, Post- and
//! Cross-filtering plans; GhostDB's optimizer picks among them "depending
//! on the selectivities" (paper §4). The statistics here — row counts,
//! distinct counts, min/max and an equi-depth histogram over the
//! order-preserving key encoding — are collected at load time (the device
//! is bulk-loaded "in a secure setting") and drive the cost model in
//! `ghostdb-exec`.

use ghostdb_types::{Result, ScalarOp, Value, Wire};

use crate::schema::ColumnRef;

/// An equi-depth histogram over order keys ([`Value::order_key`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Bucket upper bounds (inclusive), ascending; ~equal row counts per
    /// bucket.
    bounds: Vec<u64>,
    /// Rows represented.
    rows: u64,
}

impl Histogram {
    /// Build from a sample of order keys (consumed and sorted).
    pub fn build(mut keys: Vec<u64>, buckets: usize) -> Histogram {
        keys.sort_unstable();
        Self::from_sorted(&keys, buckets)
    }

    /// Build from order keys already in ascending order.
    fn from_sorted(keys: &[u64], buckets: usize) -> Histogram {
        let rows = keys.len() as u64;
        let buckets = buckets.max(1);
        let mut bounds = Vec::with_capacity(buckets);
        if !keys.is_empty() {
            // Duplicate bounds are kept on purpose: each bound stands for
            // an equal share of rows, which is what makes heavy hitters
            // (many buckets ending at the same key) estimable.
            for b in 1..=buckets {
                let idx = (b * keys.len()) / buckets;
                bounds.push(keys[idx.saturating_sub(1).min(keys.len() - 1)]);
            }
        }
        Histogram { bounds, rows }
    }

    /// Estimated fraction of rows with key `<= k`.
    pub fn fraction_le(&self, k: u64) -> f64 {
        if self.bounds.is_empty() || self.rows == 0 {
            return 0.5;
        }
        // Buckets whose (inclusive) upper bound is <= k are fully below
        // k; credit half of the next bucket. Resolution of 1/buckets is
        // plenty for the cost model.
        let covered = self.bounds.partition_point(|&b| b <= k);
        if covered >= self.bounds.len() {
            return 1.0;
        }
        (covered as f64 + 0.5) / self.bounds.len() as f64
    }
}

/// Statistics for one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Rows in the column (= table cardinality).
    pub rows: u64,
    /// Number of distinct values.
    pub distinct: u64,
    /// Histogram over order keys (`None` for text columns).
    pub histogram: Option<Histogram>,
}

impl ColumnStats {
    /// Build stats from the column's values with one sort: order keys
    /// for `INTEGER`/`DATE` columns (see [`from_keys`](Self::from_keys)),
    /// the values themselves for text, which gets no histogram.
    pub fn build(values: &[Value], buckets: usize) -> ColumnStats {
        if let Some(keys) = values.iter().map(|v| v.order_key()).collect() {
            return Self::from_keys(keys, Some(buckets));
        }
        let mut distinct_probe: Vec<&Value> = values.iter().collect();
        distinct_probe.sort_by(|a, b| a.cmp_same_type(b).unwrap_or(std::cmp::Ordering::Equal));
        distinct_probe.dedup_by(|a, b| a == b);
        ColumnStats {
            rows: values.len() as u64,
            distinct: distinct_probe.len() as u64,
            histogram: None,
        }
    }

    /// Build stats from a column's order keys, sorted once: the runs of
    /// equal keys give the distinct count, and with `buckets` the same
    /// sorted keys give the equi-depth histogram.
    pub fn from_keys(mut keys: Vec<u64>, buckets: Option<usize>) -> ColumnStats {
        keys.sort_unstable();
        let distinct = keys.chunk_by(|a, b| a == b).count() as u64;
        ColumnStats {
            rows: keys.len() as u64,
            distinct,
            histogram: buckets.map(|b| Histogram::from_sorted(&keys, b)),
        }
    }

    /// Absorb one post-load value: bump the row count and, when the
    /// caller knows the value was previously unseen, the distinct count.
    /// The histogram is left as built at load time — the delta is small
    /// relative to the base by construction (it is flushed at a bounded
    /// threshold), so the load-time distribution stays a sound estimate.
    pub fn absorb(&mut self, known_new_value: bool) {
        self.rows += 1;
        if known_new_value {
            self.distinct += 1;
        }
    }

    /// Retire `n` deleted rows: the row count shrinks immediately so
    /// estimated result cardinalities track live data. Distinct counts
    /// and the histogram are left alone — without per-value refcounts we
    /// cannot know whether the dead rows' values survive elsewhere, and
    /// both are rebuilt exactly at the next delta flush.
    pub fn retire(&mut self, n: u64) {
        self.rows = self.rows.saturating_sub(n);
    }

    /// Joint selectivity of a range pair `lo_op ∧ hi_op` on this column
    /// (the desugared form of `BETWEEN lo AND hi`), estimated from one
    /// walk of the equi-depth histogram: `P(≤hi) − P(<lo)`.
    ///
    /// Multiplying the two one-sided selectivities instead — as any
    /// independence assumption would — badly over-estimates narrow
    /// ranges: on a uniform 0..100 column, `BETWEEN 40 AND 60` is 0.2 of
    /// the rows, but `P(≥40)·P(≤60) = 0.6·0.6 = 0.36`. `lo_op` must be
    /// `Ge`/`Gt` and `hi_op` must be `Le`/`Lt`; other shapes (and
    /// columns without a histogram) fall back to the product.
    pub fn range_selectivity(
        &self,
        lo_op: ScalarOp,
        lo: &Value,
        hi_op: ScalarOp,
        hi: &Value,
    ) -> f64 {
        let product = self.selectivity(lo_op, lo) * self.selectivity(hi_op, hi);
        if self.rows == 0 {
            return 0.0;
        }
        let (Some(h), Some(lo_k), Some(hi_k)) = (&self.histogram, lo.order_key(), hi.order_key())
        else {
            return product;
        };
        if !matches!(lo_op, ScalarOp::Ge | ScalarOp::Gt)
            || !matches!(hi_op, ScalarOp::Le | ScalarOp::Lt)
        {
            return product;
        }
        let unit = 1.0 / self.distinct.max(1) as f64;
        // fraction_le answers P(≤k); peel one distinct value's share off
        // each strict bound.
        let mut sel = h.fraction_le(hi_k) - h.fraction_le(lo_k) + unit;
        if hi_op == ScalarOp::Lt {
            sel -= unit;
        }
        if lo_op == ScalarOp::Gt {
            sel -= unit;
        }
        // Never report emptier than one row: the bounds came from the
        // query, which usually names values that exist.
        sel.clamp(1.0 / self.rows as f64, 1.0)
    }

    /// Estimated selectivity (result fraction) of `column OP value`.
    pub fn selectivity(&self, op: ScalarOp, value: &Value) -> f64 {
        if self.rows == 0 {
            return 0.0;
        }
        match op {
            ScalarOp::Eq => 1.0 / self.distinct.max(1) as f64,
            _ => {
                let Some(h) = &self.histogram else {
                    // Unordered (text) range predicate: the classic 1/3
                    // textbook default.
                    return 1.0 / 3.0;
                };
                let Some(k) = value.order_key() else {
                    return 1.0 / 3.0;
                };
                let le = h.fraction_le(k);
                match op {
                    ScalarOp::Le => le,
                    ScalarOp::Lt => (le - 1.0 / self.distinct.max(1) as f64).max(0.0),
                    ScalarOp::Ge => 1.0 - le + 1.0 / self.distinct.max(1) as f64,
                    ScalarOp::Gt => 1.0 - le,
                    // Defensive: the outer match already answered Eq, but
                    // a panic here would abort the whole planner if the
                    // dispatch ever changes — fall back to the same 1/ndv
                    // estimate instead.
                    ScalarOp::Eq => 1.0 / self.distinct.max(1) as f64,
                }
                .clamp(0.0, 1.0)
            }
        }
    }
}

/// Statistics for one table.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TableStats {
    /// Table cardinality.
    pub rows: u64,
    /// Per-column stats (index = column id); `None` if never collected.
    pub columns: Vec<Option<ColumnStats>>,
}

/// Statistics for a whole schema.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SchemaStats {
    /// Per-table stats (index = table id).
    pub tables: Vec<TableStats>,
}

impl SchemaStats {
    /// Empty stats for `n` tables.
    pub fn empty(n: usize) -> SchemaStats {
        SchemaStats {
            tables: vec![TableStats::default(); n],
        }
    }

    /// Cardinality of a table (0 if unknown).
    pub fn rows(&self, table: ghostdb_types::TableId) -> u64 {
        self.tables.get(table.index()).map(|t| t.rows).unwrap_or(0)
    }

    /// Stats for one column, if collected.
    pub fn column(&self, cref: ColumnRef) -> Option<&ColumnStats> {
        self.tables
            .get(cref.table.index())?
            .columns
            .get(cref.column.index())?
            .as_ref()
    }

    /// Estimated selectivity of a predicate; 0.1 when stats are missing
    /// (the optimizer still needs *an* answer).
    pub fn selectivity(&self, cref: ColumnRef, op: ScalarOp, value: &Value) -> f64 {
        self.column(cref)
            .map(|c| c.selectivity(op, value))
            .unwrap_or(0.1)
    }

    /// Joint selectivity of a same-column range pair (see
    /// [`ColumnStats::range_selectivity`]); falls back to the product of
    /// the independent defaults when stats are missing.
    pub fn range_selectivity(
        &self,
        cref: ColumnRef,
        lo_op: ScalarOp,
        lo: &Value,
        hi_op: ScalarOp,
        hi: &Value,
    ) -> f64 {
        self.column(cref)
            .map(|c| c.range_selectivity(lo_op, lo, hi_op, hi))
            .unwrap_or_else(|| {
                self.selectivity(cref, lo_op, lo) * self.selectivity(cref, hi_op, hi)
            })
    }

    /// Incremental refresh for one inserted row: bump the table
    /// cardinality and every collected column's row count, so the
    /// planner sees base + delta cardinalities immediately.
    /// `new_value_columns` lists the column ids known to carry a
    /// previously-unseen value (their distinct counts grow too).
    pub fn absorb_row(&mut self, table: ghostdb_types::TableId, new_value_columns: &[u16]) {
        let Some(t) = self.tables.get_mut(table.index()) else {
            return;
        };
        t.rows += 1;
        for (ci, col) in t.columns.iter_mut().enumerate() {
            if let Some(c) = col {
                c.absorb(new_value_columns.contains(&(ci as u16)));
            }
        }
    }

    /// Incremental refresh for `n` deleted rows: the table cardinality
    /// and every collected column's row count decrement, so planner
    /// estimates shrink with the live data instead of drifting upward
    /// until the next flush. (`absorb_row`'s mirror image — the ROADMAP
    /// mutation-drift fix.)
    pub fn retire_rows(&mut self, table: ghostdb_types::TableId, n: u64) {
        let Some(t) = self.tables.get_mut(table.index()) else {
            return;
        };
        t.rows = t.rows.saturating_sub(n);
        for col in t.columns.iter_mut().flatten() {
            col.retire(n);
        }
    }

    /// Incremental refresh for one updated row: row counts are
    /// unchanged, but columns that received a previously-unseen value
    /// (`new_value_columns`) grow their distinct estimate.
    pub fn absorb_update(&mut self, table: ghostdb_types::TableId, new_value_columns: &[u16]) {
        let Some(t) = self.tables.get_mut(table.index()) else {
            return;
        };
        for &ci in new_value_columns {
            if let Some(Some(c)) = t.columns.get_mut(ci as usize) {
                c.distinct += 1;
            }
        }
    }
}

// --- durable-image codec -------------------------------------------------
//
// Statistics ride the sealed device image so a mounted database plans
// with the same estimates as the instance that sealed it. Like the rest
// of the image these bytes stay on the device's NAND.

impl Wire for Histogram {
    fn encode(&self, out: &mut Vec<u8>) {
        self.bounds.encode(out);
        self.rows.encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self> {
        Ok(Histogram {
            bounds: Vec::<u64>::decode(buf)?,
            rows: u64::decode(buf)?,
        })
    }
}

impl Wire for ColumnStats {
    fn encode(&self, out: &mut Vec<u8>) {
        self.rows.encode(out);
        self.distinct.encode(out);
        self.histogram.encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self> {
        Ok(ColumnStats {
            rows: u64::decode(buf)?,
            distinct: u64::decode(buf)?,
            histogram: Option::<Histogram>::decode(buf)?,
        })
    }
}

impl Wire for TableStats {
    fn encode(&self, out: &mut Vec<u8>) {
        self.rows.encode(out);
        self.columns.encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self> {
        Ok(TableStats {
            rows: u64::decode(buf)?,
            columns: Vec::<Option<ColumnStats>>::decode(buf)?,
        })
    }
}

impl Wire for SchemaStats {
    fn encode(&self, out: &mut Vec<u8>) {
        self.tables.encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self> {
        Ok(SchemaStats {
            tables: Vec::<TableStats>::decode(buf)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghostdb_types::{ColumnId, TableId};

    #[test]
    fn histogram_fractions() {
        let keys: Vec<u64> = (0..1000).collect();
        let h = Histogram::build(keys, 50);
        let f = h.fraction_le(500);
        assert!((f - 0.5).abs() < 0.05, "fraction {f}");
        assert!(h.fraction_le(0) < 0.05);
        assert_eq!(h.fraction_le(2000), 1.0);
    }

    #[test]
    fn histogram_empty_and_skewed() {
        let h = Histogram::build(vec![], 10);
        assert_eq!(h.fraction_le(5), 0.5); // agnostic default
                                           // 90% of mass at one value.
        let mut keys = vec![7u64; 900];
        keys.extend(0..100u64);
        let h = Histogram::build(keys, 20);
        assert!(h.fraction_le(7) > 0.5);
    }

    #[test]
    fn eq_selectivity_uses_distincts() {
        let values: Vec<Value> = (0..100).map(|i| Value::Int(i % 10)).collect();
        let s = ColumnStats::build(&values, 16);
        assert_eq!(s.distinct, 10);
        let sel = s.selectivity(ScalarOp::Eq, &Value::Int(3));
        assert!((sel - 0.1).abs() < 1e-9);
    }

    #[test]
    fn range_selectivity_tracks_histogram() {
        let values: Vec<Value> = (0..1000).map(Value::Int).collect();
        let s = ColumnStats::build(&values, 64);
        let sel = s.selectivity(ScalarOp::Gt, &Value::Int(750));
        assert!((sel - 0.25).abs() < 0.05, "sel {sel}");
        let sel = s.selectivity(ScalarOp::Le, &Value::Int(100));
        assert!((sel - 0.1).abs() < 0.05, "sel {sel}");
    }

    /// The BETWEEN-estimator satellite: on a skewed column (90% of the
    /// mass on one heavy hitter), a narrow range beside the hitter must
    /// estimate near its true tiny fraction — the independence product
    /// of the two one-sided selectivities over-estimates it by ~7x.
    #[test]
    fn between_selectivity_on_skewed_column() {
        let mut values: Vec<Value> = vec![Value::Int(7); 900];
        values.extend((0..100).map(Value::Int));
        let s = ColumnStats::build(&values, 64);

        // BETWEEN 50 AND 60: 11 of 1000 rows.
        let joint =
            s.range_selectivity(ScalarOp::Ge, &Value::Int(50), ScalarOp::Le, &Value::Int(60));
        let product = s.selectivity(ScalarOp::Ge, &Value::Int(50))
            * s.selectivity(ScalarOp::Le, &Value::Int(60));
        assert!(joint < 0.05, "joint {joint} should be near 11/1000");
        assert!(
            joint < product / 2.0,
            "joint {joint} not better than product {product}"
        );

        // A range straddling the heavy hitter captures most of the rows.
        let wide = s.range_selectivity(ScalarOp::Ge, &Value::Int(0), ScalarOp::Le, &Value::Int(10));
        assert!(wide > 0.8, "straddling range {wide} should be ~0.91");

        // Strict bounds shave one distinct value's share off each side.
        let strict =
            s.range_selectivity(ScalarOp::Gt, &Value::Int(50), ScalarOp::Lt, &Value::Int(60));
        assert!(strict <= joint, "strict {strict} vs inclusive {joint}");

        // Text columns (no histogram) fall back to the product.
        let texts: Vec<Value> = (0..50).map(|i| Value::Text(format!("t{i}"))).collect();
        let t = ColumnStats::build(&texts, 16);
        let tp = t.range_selectivity(
            ScalarOp::Ge,
            &Value::Text("a".into()),
            ScalarOp::Le,
            &Value::Text("z".into()),
        );
        assert!((tp - 1.0 / 9.0).abs() < 1e-9, "text fallback {tp}");
    }

    #[test]
    fn text_columns_have_eq_but_default_range() {
        let values: Vec<Value> = (0..50)
            .map(|i| Value::Text(format!("v{}", i % 5)))
            .collect();
        let s = ColumnStats::build(&values, 16);
        assert_eq!(s.distinct, 5);
        assert!(s.histogram.is_none());
        assert!((s.selectivity(ScalarOp::Eq, &Value::Text("v1".into())) - 0.2).abs() < 1e-9);
        assert!((s.selectivity(ScalarOp::Gt, &Value::Text("v1".into())) - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn schema_stats_lookup_and_defaults() {
        let mut stats = SchemaStats::empty(2);
        let values: Vec<Value> = (0..10).map(Value::Int).collect();
        stats.tables[1].rows = 10;
        stats.tables[1].columns = vec![None, Some(ColumnStats::build(&values, 4))];
        let cref = ColumnRef {
            table: TableId(1),
            column: ColumnId(1),
        };
        assert!(stats.column(cref).is_some());
        assert_eq!(stats.rows(TableId(1)), 10);
        let missing = ColumnRef {
            table: TableId(0),
            column: ColumnId(0),
        };
        assert_eq!(
            stats.selectivity(missing, ScalarOp::Eq, &Value::Int(1)),
            0.1
        );
    }

    #[test]
    fn empty_column_zero_selectivity() {
        let s = ColumnStats::build(&[], 4);
        assert_eq!(s.selectivity(ScalarOp::Eq, &Value::Int(1)), 0.0);
    }

    /// The planner-drift satellite: a bulk delete must shrink estimated
    /// result cardinalities (rows × selectivity) immediately, not at the
    /// next flush.
    #[test]
    fn bulk_delete_shrinks_cardinality_estimates() {
        let mut stats = SchemaStats::empty(1);
        let values: Vec<Value> = (0..1000).map(Value::Int).collect();
        stats.tables[0].rows = 1000;
        stats.tables[0].columns = vec![None, Some(ColumnStats::build(&values, 32))];
        let cref = ColumnRef {
            table: TableId(0),
            column: ColumnId(1),
        };
        let est_before =
            stats.rows(TableId(0)) as f64 * stats.selectivity(cref, ScalarOp::Gt, &Value::Int(500));

        stats.retire_rows(TableId(0), 600);
        assert_eq!(stats.rows(TableId(0)), 400);
        assert_eq!(stats.column(cref).unwrap().rows, 400);
        let est_after =
            stats.rows(TableId(0)) as f64 * stats.selectivity(cref, ScalarOp::Gt, &Value::Int(500));
        assert!(
            est_after < est_before / 2.0,
            "estimate {est_after} did not shrink from {est_before}"
        );
        // Saturates rather than underflows.
        stats.retire_rows(TableId(0), 10_000);
        assert_eq!(stats.rows(TableId(0)), 0);

        // Updates that mint a fresh value grow the distinct estimate.
        let d0 = stats.column(cref).unwrap().distinct;
        stats.absorb_update(TableId(0), &[1]);
        assert_eq!(stats.column(cref).unwrap().distinct, d0 + 1);
    }

    /// The two-sort reference: a `BTreeSet` distinct count, and the
    /// histogram from a separately sorted copy of the order keys.
    fn naive_stats(values: &[Value], buckets: usize) -> ColumnStats {
        let distinct: std::collections::BTreeSet<(u8, i64, &str)> = values
            .iter()
            .map(|v| match v {
                Value::Int(i) => (0, *i, ""),
                Value::Date(d) => (1, d.0 as i64, ""),
                Value::Text(s) => (2, 0, s.as_str()),
            })
            .collect();
        let keys: Option<Vec<u64>> = values.iter().map(|v| v.order_key()).collect();
        ColumnStats {
            rows: values.len() as u64,
            distinct: distinct.len() as u64,
            histogram: keys.map(|k| Histogram::build(k, buckets)),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 64, ..Default::default() })]

        /// The one-sort build equals the reference on `INTEGER`, `DATE`
        /// and text columns drawn from tiny domains (heavy duplicates).
        #[test]
        fn one_sort_build_matches_the_reference(
            ints in proptest::collection::vec(-6i64..6, 0..300),
            days in proptest::collection::vec(0i32..9, 0..300),
            texts in proptest::collection::vec("[a-c]{0,2}", 0..300),
            buckets in 1usize..80,
        ) {
            let columns = [
                ints.into_iter().map(Value::Int).collect::<Vec<_>>(),
                days.into_iter().map(|d| Value::Date(ghostdb_types::Date(d))).collect(),
                texts.into_iter().map(Value::Text).collect(),
            ];
            for values in &columns {
                proptest::prop_assert_eq!(
                    ColumnStats::build(values, buckets),
                    naive_stats(values, buckets)
                );
            }
        }
    }
}
