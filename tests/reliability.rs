//! Dying-flash acceptance properties: with bit-rot and grown-bad
//! faults armed — up to the documented single-bit-per-page correction
//! budget and `spare_blocks` retirement budget — the engine answers
//! queries exactly like a fresh load of the same rows and survives a
//! full seal → unplug → mount cycle. Past either budget it fails with
//! a clean diagnostic, never silent corruption.

mod common;

use common::{child_row, root_row};
use ghostdb::GhostDb;
use ghostdb_flash::{FlashStats, GcStats, PageAddr, ReliabilityStats};
use ghostdb_storage::Dataset;
use ghostdb_types::{DeviceConfig, TableId};
use proptest::prelude::*;

const DDL: &str = "\
    CREATE TABLE Child (
      cid INTEGER PRIMARY KEY,
      vis INTEGER,
      hid INTEGER HIDDEN,
      tag CHAR(12) HIDDEN);
    CREATE TABLE Root (
      rid INTEGER PRIMARY KEY,
      amt INTEGER HIDDEN,
      cid REFERENCES Child(cid) HIDDEN);";

fn config() -> DeviceConfig {
    let mut config = DeviceConfig::default_2007();
    // Small geometry so faults land often relative to the data volume.
    config.flash.page_size = 256;
    config.flash.pages_per_block = 8;
    config.flash.num_blocks = 512;
    config.flash.meta_slot_blocks = 4;
    config.flash.wal_blocks = 2;
    config.delta_flush_rows = 0;
    config
}

fn lcg(seed: u64) -> impl FnMut() -> i64 {
    let mut state = seed | 1;
    move || -> i64 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as i64
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Query ≡ fresh-load equivalence and seal → unplug → mount, with
    /// retention flips, read disturb, and grown-bad program/erase
    /// failures armed for the whole run.
    #[test]
    fn faulty_flash_within_budget_is_invisible(
        seed in any::<u64>(),
        base_children in 4usize..16,
        base_roots in 6usize..24,
        ins_children in 1usize..6,
        flip_ppm in 0u32..15_000,
        fail_ppm in 0u32..2_000,
        hidden_cut in 0i64..50,
        tag_pick in 0usize..8,
    ) {
        let mut next = lcg(seed);
        let stmts = ghostdb_sql::parse_statements(DDL).unwrap();
        let schema = ghostdb_sql::bind_schema(&stmts).unwrap();
        let mut base = Dataset::empty(&schema);
        for i in 0..base_children as i64 {
            base.push_row(TableId(0), child_row(i, &mut next, 8)).unwrap();
        }
        for i in 0..base_roots as i64 {
            base.push_row(TableId(1), root_row(i, base_children as i64, &mut next)).unwrap();
        }
        let mut child_batch = Vec::new();
        for i in 0..ins_children as i64 {
            child_batch.push(child_row(base_children as i64 + i, &mut next, 8));
        }

        // The device under test: faults armed right after the load.
        let mut db = GhostDb::create(DDL, config(), &base).unwrap();
        let nand = db.nand().clone();
        nand.arm_bit_rot(seed ^ 0x1, flip_ppm as f64 / 1e6, 97);
        nand.arm_program_failures(seed ^ 0x2, fail_ppm as f64 / 1e6);
        nand.arm_erase_failures(seed ^ 0x3, fail_ppm as f64 / 1e6);
        db.insert_rows(TableId(0), child_batch.clone()).unwrap();
        db.flush_deltas().unwrap();

        // The oracle: the same rows on pristine flash.
        let mut full = base.clone();
        for r in &child_batch {
            full.push_row(TableId(0), r.clone()).unwrap();
        }
        let fresh = GhostDb::create(DDL, config(), &full).unwrap();

        let queries = [
            format!(
                "SELECT Root.rid, Child.tag FROM Root, Child \
                 WHERE Child.tag = 'tag-{tag_pick}' AND Root.cid = Child.cid"
            ),
            format!(
                "SELECT Root.rid, Child.hid FROM Root, Child \
                 WHERE Child.hid >= {hidden_cut} AND Child.vis < 40 \
                   AND Root.cid = Child.cid"
            ),
            "SELECT Child.cid, Child.tag FROM Child WHERE Child.tag >= 'tag-3'".to_string(),
            format!("SELECT Root.rid FROM Root WHERE Root.amt <= {hidden_cut}"),
        ];
        for sql in &queries {
            let expect = fresh.query(sql).unwrap().rows.rows;
            prop_assert_eq!(
                &db.query(sql).unwrap().rows.rows, &expect,
                "pre-seal divergence under faults: {}", sql
            );
        }

        // Seal → unplug → mount, faults still armed throughout.
        db.seal().unwrap();
        let nand2 = db.nand().clone();
        drop(db);
        let db = GhostDb::mount(nand2, config()).unwrap();
        for sql in &queries {
            let expect = fresh.query(sql).unwrap().rows.rows;
            prop_assert_eq!(
                &db.query(sql).unwrap().rows.rows, &expect,
                "post-mount divergence under faults: {}", sql
            );
        }

        // Within budget nothing may be lost, and the budgets hold.
        let rel = db.volume().reliability();
        prop_assert_eq!(rel.uncorrectable, 0, "in-budget rot must never be fatal: {:?}", rel);
        prop_assert!(
            rel.retired_blocks <= rel.spare_blocks,
            "retirement exceeded the spare budget: {:?}", rel
        );
        nand.disarm_bit_rot();
        nand.disarm_block_failures();
    }
}

/// PR 10: the page cache mirrors only *clean* codewords, so a rotting
/// device with the cache on must keep answering exactly like the same
/// device with the cache off — repeated rounds included, which is where
/// a mirror that cached a correctable-but-dirty page (or masked a flip
/// it should have surfaced to the scrubber) would diverge.
#[test]
fn cache_on_and_cache_off_agree_under_armed_rot() {
    let mut next = lcg(42);
    let stmts = ghostdb_sql::parse_statements(DDL).unwrap();
    let schema = ghostdb_sql::bind_schema(&stmts).unwrap();
    let mut base = Dataset::empty(&schema);
    for i in 0..24i64 {
        base.push_row(TableId(0), child_row(i, &mut next, 8))
            .unwrap();
    }
    for i in 0..40i64 {
        base.push_row(TableId(1), root_row(i, 24, &mut next))
            .unwrap();
    }

    let mut cfg_off = config();
    cfg_off.flash.page_cache_pages = 0;
    let db_on = GhostDb::create(DDL, config(), &base).unwrap();
    let db_off = GhostDb::create(DDL, cfg_off, &base).unwrap();
    assert!(db_on.volume().page_cache_stats().capacity_pages > 0);
    assert_eq!(db_off.volume().page_cache_stats().capacity_pages, 0);

    // Same rot stream on both parts (identical deterministic layouts).
    db_on.nand().arm_bit_rot(9, 8_000.0 / 1e6, 97);
    db_off.nand().arm_bit_rot(9, 8_000.0 / 1e6, 97);

    let queries = [
        "SELECT Root.rid, Child.tag FROM Root, Child \
         WHERE Child.tag = 'tag-3' AND Root.cid = Child.cid",
        "SELECT Root.rid, Child.hid FROM Root, Child \
         WHERE Child.hid >= 20 AND Child.vis < 40 AND Root.cid = Child.cid",
        "SELECT Child.cid, Child.tag FROM Child WHERE Child.tag >= 'tag-3'",
        "SELECT Root.rid FROM Root WHERE Root.amt <= 25",
    ];
    for round in 0..6 {
        for sql in &queries {
            assert_eq!(
                db_on.query(sql).unwrap().rows.rows,
                db_off.query(sql).unwrap().rows.rows,
                "round {round} divergence under rot: {sql}"
            );
        }
    }
    let stats = db_on.volume().page_cache_stats();
    assert!(stats.hits > 0, "the repeat rounds must exercise the mirror");
    assert_eq!(db_on.volume().reliability().uncorrectable, 0);
    assert_eq!(db_off.volume().reliability().uncorrectable, 0);
    db_on.nand().disarm_bit_rot();
    db_off.nand().disarm_bit_rot();
}

/// Past the single-bit budget the engine reports a clean corrupt error
/// — it must never serve wrong bytes.
#[test]
fn past_budget_rot_is_a_clean_corrupt_error() {
    let mut next = lcg(7);
    let stmts = ghostdb_sql::parse_statements(DDL).unwrap();
    let schema = ghostdb_sql::bind_schema(&stmts).unwrap();
    let mut base = Dataset::empty(&schema);
    for i in 0..32i64 {
        base.push_row(TableId(0), child_row(i, &mut next, 8))
            .unwrap();
    }
    for i in 0..12i64 {
        base.push_row(TableId(1), root_row(i, 32, &mut next))
            .unwrap();
    }
    let db = GhostDb::create(DDL, config(), &base).unwrap();
    let nand = db.nand().clone();
    // Two flips per mapped page: every hidden-column page is past the
    // correction budget.
    let ps = nand.config().page_size as u32;
    for phys in db.volume().l2p_snapshot() {
        if phys != u32::MAX {
            nand.corrupt_page(PageAddr(phys), 11).unwrap();
            nand.corrupt_page(PageAddr(phys), ps * 8 - 17).unwrap();
        }
    }
    let err = db
        .query("SELECT Child.cid, Child.tag FROM Child WHERE Child.tag >= 'tag-0'")
        .expect_err("doubly-rotted pages must not answer");
    assert!(
        err.to_string().contains("uncorrectable"),
        "want the uncorrectable diagnostic, got: {err}"
    );
}

/// Past the spare-block budget the engine reports the part worn out —
/// a clean, actionable diagnostic instead of an allocator loop.
#[test]
fn exhausted_spares_are_a_clean_wearout_error() {
    let mut next = lcg(11);
    let stmts = ghostdb_sql::parse_statements(DDL).unwrap();
    let schema = ghostdb_sql::bind_schema(&stmts).unwrap();
    let mut base = Dataset::empty(&schema);
    for i in 0..24i64 {
        base.push_row(TableId(0), child_row(i, &mut next, 8))
            .unwrap();
    }
    for i in 0..8i64 {
        base.push_row(TableId(1), root_row(i, 24, &mut next))
            .unwrap();
    }
    let mut cfg = config();
    cfg.flash.spare_blocks = 2;
    let mut db = GhostDb::create(DDL, cfg, &base).unwrap();
    let nand = db.nand().clone();
    nand.arm_program_failures(3, 1.0);
    let mut batch = Vec::new();
    for i in 0..4i64 {
        batch.push(child_row(24 + i, &mut next, 8));
    }
    db.insert_rows(TableId(0), batch).unwrap();
    let err = db
        .flush_deltas()
        .expect_err("every program fails; the part must wear out");
    assert!(
        err.to_string().contains("flash part worn out"),
        "want the wear-out diagnostic, got: {err}"
    );
    nand.disarm_block_failures();
}

/// Everything the flash layer's refactors must hold still, in one
/// comparable value: simulated time, NAND operation counters, GC
/// counters and reliability counters.
fn flash_fingerprint(db: &GhostDb) -> (u64, FlashStats, GcStats, ReliabilityStats) {
    (
        db.clock().now().0,
        db.nand().stats(),
        db.volume().gc_stats(),
        db.volume().reliability(),
    )
}

/// Golden run: armed rot + grown-bad blocks under DML, queries and
/// merging flushes on a not-yet-sealed volume → seal → WAL-logged DML
/// and re-sealing flushes → torn power cut inside a flush → rot in the
/// unplugged metadata and WAL pages → mount → replay. The simulated
/// clock and every flash counter are pinned to the last digit:
/// GC migration, scrub, evacuation, retirement, and the image / WAL
/// codeword paths all run here, and none of them is visible to the
/// benchmark, which never arms a fault.
#[test]
fn seal_rot_cut_mount_replay_is_pinned() {
    use ghostdb_flash::PageState;
    use ghostdb_types::{ColumnId, RowId, Value};

    let mut next = lcg(1234);
    let stmts = ghostdb_sql::parse_statements(DDL).unwrap();
    let schema = ghostdb_sql::bind_schema(&stmts).unwrap();
    let mut base = Dataset::empty(&schema);
    for i in 0..24i64 {
        base.push_row(TableId(0), child_row(i, &mut next, 8))
            .unwrap();
    }
    for i in 0..40i64 {
        base.push_row(TableId(1), root_row(i, 24, &mut next))
            .unwrap();
    }
    let queries = [
        "SELECT Root.rid, Child.tag FROM Root, Child \
         WHERE Child.tag = 'tag-3' AND Root.cid = Child.cid",
        "SELECT Child.cid, Child.tag FROM Child WHERE Child.tag >= 'tag-3'",
        "SELECT Root.rid FROM Root WHERE Root.amt <= 25",
    ];

    // A part small enough that the allocator's low-watermark GC (and
    // the scrub pass riding on it) runs, with the page cache off so
    // every fault pays — and rots — the NAND.
    let mut cfg = config();
    cfg.flash.num_blocks = 30;
    cfg.flash.page_cache_pages = 0;
    let mut db = GhostDb::create(DDL, cfg.clone(), &base).unwrap();
    let nand = db.nand().clone();
    nand.arm_bit_rot(77, 0.02, 31);
    nand.arm_program_failures(78, 0.004);
    nand.arm_erase_failures(79, 0.004);

    let mut children = 24i64;
    for round in 0..8i64 {
        // GC migrates, and the scrub rewrites, only pages no image pins,
        // and a re-sealing flush pins everything it writes: the rounds
        // before the seal are where both move pages the queries rotted.
        if round == 5 {
            db.seal().unwrap();
        }
        let batch: Vec<_> = (0..3)
            .map(|k| child_row(children + k, &mut next, 8))
            .collect();
        children += 3;
        db.insert_rows(TableId(0), batch).unwrap();
        // Dense keys: each round's delete below returns Root to 40 rows.
        db.insert_rows(TableId(1), vec![root_row(40, children, &mut next)])
            .unwrap();
        db.update_rows(
            TableId(0),
            vec![RowId(round as u32)],
            vec![(ColumnId(2), Value::Int(round))],
        )
        .unwrap();
        db.delete_rows(TableId(1), vec![RowId(0)]).unwrap();
        // Two passes: a page the first pass rotted is read corrected
        // again by the second, which is what gives the scrub work.
        for _ in 0..2 {
            for sql in &queries {
                db.query(sql).unwrap();
            }
        }
        if round % 2 == 1 {
            db.flush_deltas().unwrap(); // merge + re-seal under armed faults
        }
    }
    assert_eq!(
        flash_fingerprint(&db),
        (
            342_576_060,
            FlashStats {
                page_reads: 1870,
                bytes_read: 478_720,
                page_programs: 311,
                bytes_programmed: 79_616,
                block_erases: 37,
            },
            GcStats {
                passes: 9,
                blocks_reclaimed: 15,
                pages_migrated: 59,
                pages_reclaimed: 65,
            },
            ReliabilityStats {
                corrected: 1271,
                uncorrectable: 0,
                retired_blocks: 2,
                spare_blocks: 64,
                scrubbed_pages: 1,
            },
        ),
        "before the cut"
    );

    // One more WAL-logged batch, then the key is yanked (torn page)
    // inside the re-sealing flush.
    db.insert_rows(TableId(0), vec![child_row(children, &mut next, 8)])
        .unwrap();
    nand.arm_power_cut(12, true);
    assert!(db.flush_deltas().is_err(), "the cut must land in the flush");
    assert!(nand.power_cut_tripped());
    drop(db);
    nand.disarm_power_cut();

    // Unplugged: one bit rots in every third programmed page of the
    // reserved region (both metadata slots and the WAL).
    let flash = &cfg.flash;
    for p in (0..flash.reserved_blocks() * flash.pages_per_block).step_by(3) {
        let addr = PageAddr(p as u32);
        if nand.page_state(addr).unwrap() == PageState::Programmed {
            let bit = (p as u32).wrapping_mul(131) % (flash.page_size as u32 * 8);
            nand.corrupt_page(addr, bit).unwrap();
        }
    }

    let db = GhostDb::mount(nand.clone(), cfg.clone()).unwrap();
    assert_eq!(
        db.stats().rows(TableId(0)),
        children as u64 + 1,
        "the cut flush's batches replay from the WAL"
    );
    for sql in &queries {
        db.query(sql).unwrap();
    }
    // The mounted volume's counters restart; the part's do not.
    assert_eq!(
        flash_fingerprint(&db),
        (
            358_523_203,
            FlashStats {
                page_reads: 2078,
                bytes_read: 531_968,
                page_programs: 324,
                bytes_programmed: 82_944,
                block_erases: 37,
            },
            GcStats::default(),
            ReliabilityStats {
                corrected: 68,
                uncorrectable: 0,
                retired_blocks: 2,
                spare_blocks: 64,
                scrubbed_pages: 0,
            },
        ),
        "after the mount"
    );
    nand.disarm_bit_rot();
    nand.disarm_block_failures();
}
