//! Split storage: hidden columns on the device's flash, visible columns
//! on the untrusted PC.
//!
//! Paper §2: "Primary keys as well as visible fields can be stored at any
//! place, like a public server or a personal computer... The hidden
//! fields are hosted by Bob's USB device... The primary keys of all
//! tables are replicated in the USB device to allow for queries combining
//! visible and hidden data. The USB device is assumed to be initially
//! loaded in a secure setting."
//!
//! * [`Dataset`] is the load-time interchange format (also consumed by
//!   the index builders in `ghostdb-index`).
//! * [`HiddenStore`] keeps hidden columns on flash: integers and dates as
//!   8-byte order-preserving keys (direct row-id addressing), strings
//!   dictionary-encoded into order-preserving 4-byte codes with the
//!   dictionary itself on flash — hidden values must never sit in PC RAM,
//!   and the device has only tens of KB, so even the dictionary is
//!   probed by on-flash binary search.
//! * [`VisibleStore`] is the PC side: plain in-memory columns, predicate
//!   evaluation, and sorted `(row id, value)` streams for the projection
//!   protocol. The PC is resource-rich, which is exactly why GhostDB
//!   "delegates as much work as possible to the PC as long as this
//!   processing does not compromise hidden data" (§3).
//! * [`split_dataset`] performs the secure bulk load.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dataset;
mod hidden;
mod visible;

pub use dataset::{validate_row, Dataset, TableData};
pub use hidden::{
    key_range_for, ColumnManifest, DictRemap, FilterScan, FlushRemaps, HiddenManifest, HiddenStore,
    KeyRange, KeyScan, LoadEncoders, TableManifest,
};
pub use visible::VisibleStore;

use ghostdb_catalog::{ColumnStats, Schema, SchemaStats, TableStats};
use ghostdb_flash::Volume;
use ghostdb_ram::RamScope;
use ghostdb_types::{ColumnId, Result, TableId};

/// Number of histogram buckets collected per column at load time.
pub const STATS_BUCKETS: usize = 64;

/// The secure bulk load: split a dataset into the device-resident hidden
/// store and the PC-resident visible store, collecting the statistics the
/// optimizer uses.
///
/// Statistics for *hidden* columns are collected here — inside the secure
/// setting — and live on the device; they are never disclosed (they only
/// influence plan choice, which the paper accepts as observable).
pub fn split_dataset(
    volume: &Volume,
    scope: &RamScope,
    schema: &Schema,
    data: &Dataset,
) -> Result<(HiddenStore, VisibleStore, SchemaStats, LoadEncoders)> {
    data.validate(schema)?;
    let (hidden, encoders) = HiddenStore::build(volume, scope, schema, data)?;
    let visible = VisibleStore::build(schema, data)?;
    let mut stats = SchemaStats::empty(schema.table_count());
    for (ti, table) in schema.tables().iter().enumerate() {
        let tdata = &data.tables[ti];
        let mut cols = Vec::with_capacity(table.columns.len());
        for (ci, values) in tdata.columns.iter().enumerate() {
            // A dictionary column's distinct count is its entry count,
            // which the hidden load already computed.
            let dict = encoders.dict_entries(TableId(ti as u16), ColumnId(ci as u16));
            cols.push(Some(match dict {
                Some(entries) => ColumnStats {
                    rows: values.len() as u64,
                    distinct: entries as u64,
                    histogram: None,
                },
                None => ColumnStats::build(values, STATS_BUCKETS),
            }));
        }
        stats.tables[ti] = TableStats {
            rows: tdata.rows() as u64,
            columns: cols,
        };
    }
    Ok((hidden, visible, stats, encoders))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghostdb_catalog::{SchemaBuilder, Visibility};
    use ghostdb_flash::Nand;
    use ghostdb_ram::RamBudget;
    use ghostdb_types::{DataType, FlashConfig, ScalarOp, SimClock, TableId, Value};

    fn tiny_schema() -> Schema {
        let mut b = SchemaBuilder::new();
        b.table("Patient", "PatID")
            .column("Age", DataType::Integer, Visibility::Visible)
            .column("Name", DataType::Char(20), Visibility::Hidden);
        b.build().unwrap()
    }

    fn tiny_data(schema: &Schema) -> Dataset {
        let mut d = Dataset::empty(schema);
        for i in 0..10i64 {
            d.push_row(
                TableId(0),
                vec![
                    Value::Int(i),
                    Value::Int(20 + i),
                    Value::Text(format!("name{i}")),
                ],
            )
            .unwrap();
        }
        d
    }

    #[test]
    fn split_load_roundtrip() {
        let schema = tiny_schema();
        let data = tiny_data(&schema);
        let clock = SimClock::new();
        let cfg = FlashConfig {
            page_size: 256,
            pages_per_block: 8,
            num_blocks: 256,
            ..FlashConfig::default_2007()
        };
        let volume = Volume::new(Nand::new(cfg, clock));
        let scope = RamScope::new(&RamBudget::new(64 * 1024));
        let (hidden, visible, stats, _encoders) =
            split_dataset(&volume, &scope, &schema, &data).unwrap();

        // Hidden values come back from flash.
        let v = hidden
            .value(
                &scope,
                TableId(0),
                ghostdb_types::ColumnId(2),
                ghostdb_types::RowId(3),
            )
            .unwrap();
        assert_eq!(v, Value::Text("name3".into()));

        // Visible predicate evaluation on the PC.
        let ids = visible
            .eval_predicate(
                TableId(0),
                ghostdb_types::ColumnId(1),
                ScalarOp::Ge,
                &Value::Int(25),
            )
            .unwrap();
        assert_eq!(ids.len(), 5);

        // Stats got collected for both sides.
        assert_eq!(stats.rows(TableId(0)), 10);
        assert!(stats
            .column(ghostdb_catalog::ColumnRef {
                table: TableId(0),
                column: ghostdb_types::ColumnId(2),
            })
            .is_some());
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 48, ..Default::default() })]

        /// A hidden `CHAR` column's load statistics take their distinct
        /// count from the dictionary: it equals the sort-and-dedup count
        /// over the values, and every row's load code is its string's
        /// rank. Strings share long prefixes (and some are prefixes of
        /// others), so the rank sort's 8-byte prefix key ties often.
        #[test]
        fn dictionary_distinct_count_and_codes_match_the_values(
            names in proptest::collection::vec("[ab]{5,10}", 1..200),
        ) {
            let schema = tiny_schema();
            let mut data = Dataset::empty(&schema);
            for (i, name) in names.iter().enumerate() {
                let row = vec![Value::Int(i as i64), Value::Int(0), Value::Text(name.clone())];
                data.push_row(TableId(0), row).unwrap();
            }
            let cfg = FlashConfig {
                page_size: 256,
                pages_per_block: 8,
                num_blocks: 64,
                ..FlashConfig::default_2007()
            };
            let volume = Volume::new(Nand::new(cfg, SimClock::new()));
            let scope = RamScope::new(&RamBudget::new(64 * 1024));
            let (_hidden, _visible, stats, encoders) =
                split_dataset(&volume, &scope, &schema, &data).unwrap();
            let name = ghostdb_types::ColumnId(2);
            let values = &data.tables[0].columns[2];
            let mut probe: Vec<&Value> = values.iter().collect();
            probe.sort_by(|a, b| a.cmp_same_type(b).unwrap());
            probe.dedup();
            let cref = ghostdb_catalog::ColumnRef { table: TableId(0), column: name };
            proptest::prop_assert_eq!(stats.column(cref).unwrap().distinct, probe.len() as u64);
            let codes = encoders.keys(TableId(0), name, values).unwrap();
            for (value, code) in values.iter().zip(codes) {
                let rank = probe.binary_search_by(|p| p.cmp_same_type(value).unwrap());
                proptest::prop_assert_eq!(rank, Ok(code as usize));
            }
        }
    }
}
