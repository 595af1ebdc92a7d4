//! Flash lifecycle under sustained query churn: temp segments must be
//! reclaimed, the volume must not fill, and wear must stay spread.

mod common;

use ghostdb_flash::{FlashStats, GcStats, Nand, PageAddr, PageState, ReliabilityStats, Volume};
use ghostdb_ram::{RamBudget, RamScope};
use ghostdb_types::{DeviceConfig, FlashConfig, SimClock, TableId};
use ghostdb_workload::{
    game_queries, generate_medical, generate_scale, paper_query, selectivity_query, MedicalConfig,
    ScaleConfig, MEDICAL_DDL, SCALE_DDL,
};

#[test]
fn repeated_spilling_queries_do_not_exhaust_flash() {
    let cfg = MedicalConfig::scaled(3_000);
    let data = generate_medical(&cfg).unwrap();
    // Small-ish flash so leaks would surface quickly (32 MiB) and a
    // tight RAM budget so translations must spill whole blocks of sort
    // runs — the churn that exercises block reclamation.
    let mut device = DeviceConfig::default_2007();
    device.flash.num_blocks = 256;
    device.ram_bytes = 16 * 1024;
    let db = ghostdb::GhostDb::create(MEDICAL_DDL, device, &data).unwrap();

    let live_after_load = db.volume().usage().live_pages;
    let sql = selectivity_query(cfg.date_start, cfg.date_span_days, 0.8);
    let spec = db.bind(&sql).unwrap();
    let p1 = db.plan_pre(&spec);
    let p2 = db.plan_post(&spec);
    let mut rows = None;
    for round in 0..30 {
        let plan = if round % 2 == 0 { &p1 } else { &p2 };
        let out = db.run(&spec, plan).unwrap();
        match &rows {
            None => rows = Some(out.rows.rows),
            Some(r) => assert_eq!(r, &out.rows.rows, "round {round} diverged"),
        }
        let live = db.volume().usage().live_pages;
        assert_eq!(
            live, live_after_load,
            "round {round}: temp pages leaked ({live} vs {live_after_load})"
        );
    }
    // Churn produced erases and recycled blocks.
    let stats = db.volume().nand().stats();
    assert!(stats.block_erases > 0, "no block was ever recycled");
    let (min_wear, max_wear) = db.volume().nand().wear_spread();
    assert!(
        max_wear - min_wear <= max_wear.max(4),
        "wear badly skewed: {min_wear}..{max_wear}"
    );
}

/// The fragmentation case the garbage collector exists to fix: every
/// erase block ends up holding one long-lived dataset page interleaved
/// with temp-spill pages. Freeing the temps leaves no block fully dead,
/// so the seed's recycler (which only erased all-dead blocks) pinned
/// every block and reported "flash volume full" after ~32 rounds on this
/// geometry. With the GC, the volume must survive arbitrarily many
/// rounds, keep the persistent bytes intact across page migration, stay
/// inside the documented wear bound, and still catch double frees.
#[test]
fn interleaved_persistent_and_temp_churn_survives_gc() {
    // 256-block volume, 8 pages per block, 64 B pages (2 KiB blocks).
    let cfg = FlashConfig {
        page_size: 64,
        pages_per_block: 8,
        num_blocks: 256,
        ..FlashConfig::default_2007()
    };
    let vol = Volume::new(Nand::new(cfg, SimClock::new()));
    let budget = RamBudget::new(64 * 1024);
    let scope = RamScope::new(&budget);

    let mut persistent = Vec::new();
    for round in 0..40u32 {
        let tag = (round % 251) as u8;
        // Two writers share the allocation frontier, so their pages
        // interleave physically: one persistent page, then seven temp
        // pages, repeating — every block gets pinned by a keeper page.
        let mut keeper = vol.writer(&scope).unwrap();
        let mut temp = vol.writer(&scope).unwrap();
        for _ in 0..8 {
            keeper.write(&[tag; 64]).unwrap();
            temp.write(&[0xEE; 64 * 7]).unwrap();
        }
        let kseg = keeper.finish().unwrap();
        let tseg = temp.finish().unwrap();
        vol.free(tseg)
            .unwrap_or_else(|e| panic!("round {round}: temp free failed: {e}"));
        persistent.push((kseg, tag));
    }

    // The GC actually ran and reclaimed fragmented blocks.
    let gc = vol.gc_stats();
    assert!(
        gc.blocks_reclaimed > 0,
        "GC never reclaimed a block: {gc:?}"
    );
    assert!(gc.pages_migrated > 0, "GC never migrated a live page");

    // All persistent data survived page migration bit-for-bit.
    for (seg, tag) in &persistent {
        let mut r = vol.reader(&scope, seg).unwrap();
        let mut back = vec![0u8; seg.len() as usize];
        r.read_exact(&mut back).unwrap();
        assert!(
            back.iter().all(|b| b == tag),
            "persistent segment corrupted after GC migration"
        );
    }

    // Wear-aware victim/destination selection keeps the spread bounded:
    // max − min erase count stays within 4 under this churn (the bound
    // documented in ROADMAP.md "Storage architecture").
    let (min_wear, max_wear) = vol.nand().wear_spread();
    assert!(
        max_wear - min_wear <= 4,
        "wear spread {min_wear}..{max_wear} exceeds documented bound of 4"
    );

    // Double-free invariant holds across remapping: a segment freed once
    // cannot be freed again, even after its pages were migrated.
    let (seg, _) = persistent.pop().unwrap();
    vol.free(seg.clone()).unwrap();
    let err = vol.free(seg).unwrap_err();
    assert!(err.to_string().contains("double free"), "{err}");
}

/// Churn with the dying-flash fault model armed — retention flips and
/// read disturb on every read path, blocks growing bad mid-program and
/// mid-erase — must stay invisible to the byte stream: reads come back
/// corrected, bad blocks retire with their live pages evacuated, and
/// the reliability counters prove the machinery actually engaged.
#[test]
fn churn_survives_bit_rot_and_grown_bad_blocks() {
    let cfg = FlashConfig {
        page_size: 64,
        pages_per_block: 8,
        num_blocks: 256,
        spare_blocks: 32,
        ..FlashConfig::default_2007()
    };
    let nand = Nand::new(cfg, SimClock::new());
    let vol = Volume::new(nand.clone());
    let budget = RamBudget::new(64 * 1024);
    let scope = RamScope::new(&budget);

    nand.arm_bit_rot(0xC0FFEE, 0.01, 64);
    nand.arm_program_failures(0xBAD, 0.002);
    nand.arm_erase_failures(0xBAD2, 0.002);

    let ps = vol.page_size();
    let mut persistent = Vec::new();
    for round in 0..40u32 {
        let tag = (round % 251) as u8;
        let mut keeper = vol.writer(&scope).unwrap();
        let mut temp = vol.writer(&scope).unwrap();
        for _ in 0..8 {
            keeper.write(&vec![tag; ps]).unwrap();
            temp.write(&vec![0xEE; ps * 7]).unwrap();
        }
        let kseg = keeper.finish().unwrap();
        let tseg = temp.finish().unwrap();
        vol.free(tseg)
            .unwrap_or_else(|e| panic!("round {round}: temp free failed: {e}"));
        persistent.push((kseg, tag));
    }

    // Every byte reads back exactly as written, rot notwithstanding.
    for (seg, tag) in &persistent {
        let mut r = vol.reader(&scope, seg).unwrap();
        let mut back = vec![0u8; seg.len() as usize];
        r.read_exact(&mut back).unwrap();
        assert!(
            back.iter().all(|b| b == tag),
            "persistent segment corrupted under armed faults"
        );
    }
    let rel = vol.reliability();
    assert!(
        rel.corrected > 0,
        "rot was armed; corrections must have happened: {rel:?}"
    );
    assert_eq!(
        rel.uncorrectable, 0,
        "in-budget rot must never surface as data loss: {rel:?}"
    );
    assert!(
        rel.retired_blocks <= rel.spare_blocks,
        "retirement stayed inside the spare budget: {rel:?}"
    );
    nand.disarm_bit_rot();
    nand.disarm_block_failures();

    // Golden values, captured before the flash layer's PR 14 refactor:
    // the benchmark never arms a fault, so this run is what holds
    // evacuation, retirement and the GC's codeword handling to the
    // same operations and the same simulated time, to the last digit.
    assert_eq!(nand.clock().now().0, 1_807_953_320);
    assert_eq!(
        nand.stats(),
        FlashStats {
            page_reads: 425,
            bytes_read: 27_200,
            page_programs: 2665,
            bytes_programmed: 170_560,
            block_erases: 96,
        }
    );
    assert_eq!(
        vol.gc_stats(),
        GcStats {
            passes: 12,
            blocks_reclaimed: 96,
            pages_migrated: 96,
            pages_reclaimed: 672,
        }
    );
    assert_eq!(
        rel,
        ReliabilityStats {
            corrected: 8,
            uncorrectable: 0,
            retired_blocks: 2,
            spare_blocks: 32,
            scrubbed_pages: 0,
        }
    );
}

#[test]
fn flash_full_is_a_clean_error() {
    // A flash too small for the dataset + indexes must fail with the
    // volume-full error, not corrupt anything.
    let cfg = MedicalConfig::scaled(20_000);
    let data = generate_medical(&cfg).unwrap();
    let mut device = DeviceConfig::default_2007();
    device.flash.num_blocks = 8; // 1 MiB, far below the dataset + indexes
    match ghostdb::GhostDb::create(MEDICAL_DDL, device, &data) {
        Err(e) => assert!(e.to_string().contains("full"), "{e}"),
        Ok(_) => panic!("load cannot fit in 1 MiB"),
    }
}

#[test]
fn simulated_time_is_deterministic() {
    // Two identical databases execute identical queries in *exactly* the
    // same simulated time — the property that makes every experiment in
    // EXPERIMENTS.md reproducible bit-for-bit.
    let cfg = MedicalConfig::scaled(2_000);
    let data = generate_medical(&cfg).unwrap();
    let mk = || ghostdb::GhostDb::create(MEDICAL_DDL, DeviceConfig::default_2007(), &data).unwrap();
    let mut db1 = mk();
    let mut db2 = mk();
    let sql = selectivity_query(cfg.date_start, cfg.date_span_days, 0.3);
    let a = db1.query(&sql).unwrap();
    let b = db2.query(&sql).unwrap();
    assert_eq!(a.rows.rows, b.rows.rows);
    assert_eq!(a.report.total_ns, b.report.total_ns);
    assert_eq!(a.report.ram_peak, b.report.ram_peak);
    assert_eq!(a.report.flash.page_reads, b.report.flash.page_reads);

    // The write path too: the same DML + flush + seal list programs,
    // frees and erases in the same order on both, so the clock, the
    // NAND counters and every block's wear agree exactly.
    let script = "\
        DELETE FROM Prescription WHERE PreID < 40; \
        UPDATE Visit SET Purpose = 'Recheck' WHERE VisID < 25; \
        DELETE FROM Prescription WHERE Quantity > 8; \
        UPDATE Prescription SET Quantity = 3 WHERE PreID < 60;";
    for db in [&mut db1, &mut db2] {
        db.seal().unwrap();
        let doctors = db.stats().rows(TableId(0)) as i64;
        db.execute(&format!(
            "INSERT INTO Doctor VALUES ({doctors}, 'Dr. New', 'Neurology', 75011, 'France');"
        ))
        .unwrap();
        db.execute(script).unwrap();
        assert!(db.flush_deltas().unwrap() > 0, "the flush merged the DML");
        db.execute("UPDATE Visit SET Purpose = 'Followup' WHERE VisID < 10;")
            .unwrap();
        db.seal().unwrap();
    }
    assert_eq!(db1.clock().now(), db2.clock().now());
    assert_eq!(db1.nand().stats(), db2.nand().stats());
    assert_eq!(db1.nand().wear_snapshot(), db2.nand().wear_snapshot());
    assert_eq!(db1.volume().usage(), db2.volume().usage());
}

/// The executor frees a query's flash temps in a fixed order. A free
/// that kills a whole erase block erases it and empties its page-cache
/// slots, so the free order decides which slots the next faults fill
/// and, through the clock hand, what later faults hit. An order that
/// varied per run (a hash map's per-process seed) moved the simulated
/// clock between runs. The paper query fetches two projection temps;
/// four-page erase blocks give each temp blocks of its own, and the
/// anchor-only queries between its repeats fault through the cache.
#[test]
fn temp_free_order_keeps_simulated_time_deterministic() {
    let cfg = MedicalConfig::scaled(12_000);
    let data = generate_medical(&cfg).unwrap();
    let mid = ghostdb_types::Date(cfg.date_start.0 + (cfg.date_span_days / 2) as i32);
    let mut sqls = vec![paper_query(mid)];
    sqls.extend(
        game_queries(cfg.date_start, cfg.date_span_days)
            .into_iter()
            .take(4)
            .map(|q| q.sql),
    );
    let mut device = DeviceConfig::default_2007();
    device.flash.pages_per_block = 4;
    device.flash.num_blocks = 4096;
    let run = || {
        let db = ghostdb::GhostDb::create(MEDICAL_DDL, device.clone(), &data).unwrap();
        for _ in 0..12 {
            for sql in &sqls {
                db.query(sql).unwrap();
            }
        }
        (db.clock().now(), db.nand().stats())
    };
    let first = run();
    for _ in 0..2 {
        assert_eq!(run(), first);
    }
}

/// What a load left on the part: the simulated clock (ns), the NAND
/// counters, the number of programmed pages, and a 64-bit FNV-1a hash
/// over `(page index, bytes)` of every programmed page in index order.
/// The clock and counters are taken first: hashing reads every page,
/// which charges the clock.
fn part_fingerprint(nand: &Nand) -> (u64, FlashStats, usize, u64) {
    let clock = nand.clock().now().0;
    let stats = nand.stats();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash = (hash ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    };
    let mut programmed = 0;
    let mut page = vec![0u8; nand.config().page_size];
    for p in 0..nand.page_count() as u32 {
        if nand.page_state(PageAddr(p)).unwrap() == PageState::Programmed {
            programmed += 1;
            nand.read_into(PageAddr(p), 0, &mut page).unwrap();
            eat(&p.to_le_bytes());
            eat(&page);
        }
    }
    (clock, stats, programmed, hash)
}

/// The secure bulk load writes the same bytes to the same pages in the
/// same order, at the same simulated cost, as the load these constants
/// were captured from — and so does the first seal after it. Two loads:
/// the medical schema (ancestor climbing levels, key indexes, SKTs,
/// hidden and visible text) and the flat scale table (a hidden `CHAR`
/// column with nearly one distinct value per row).
#[test]
fn bulk_load_writes_pinned_bytes() {
    let medical = generate_medical(&MedicalConfig::scaled(20_000)).unwrap();
    let scale = generate_scale(&ScaleConfig::scaled(20_000)).unwrap();
    let stats = |reads: u64, programs: u64, erases: u64| FlashStats {
        page_reads: reads,
        bytes_read: reads * 2048,
        page_programs: programs,
        bytes_programmed: programs * 2048,
        block_erases: erases,
    };
    // Golden values, captured before the load was rewritten to sort
    // instead of hash and the part began allocating blocks lazily.
    let golden = [
        (
            MEDICAL_DDL,
            &medical,
            (
                750_059_072,
                stats(0, 1127, 0),
                1127,
                6_829_137_525_461_809_202,
            ),
            (
                1_022_540_056,
                stats(1127, 1366, 8),
                1366,
                15_149_209_746_411_857_999,
            ),
        ),
        (
            SCALE_DDL,
            &scale,
            (
                355_396_224,
                stats(0, 534, 0),
                534,
                7_035_805_654_173_515_666,
            ),
            (
                538_682_736,
                stats(534, 716, 8),
                716,
                12_217_253_138_367_284_484,
            ),
        ),
    ];
    for (ddl, data, loaded, sealed) in golden {
        let mut db = ghostdb::GhostDb::create(ddl, DeviceConfig::default_2007(), data).unwrap();
        assert_eq!(part_fingerprint(db.nand()), loaded, "after the load");
        db.seal().unwrap();
        assert_eq!(part_fingerprint(db.nand()), sealed, "after the first seal");
    }
}
