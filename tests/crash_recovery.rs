//! Crash-injection recovery: cut power at **every** program/erase
//! boundary of a mixed insert + delete + update + flush workload and
//! prove each mount recovers a consistent, batch-atomic state.
//!
//! The harness arms the NAND's power-cut hook to fail after N
//! state-changing operations, for every N from 0 up to the length of
//! the uninterrupted run — first with clean cuts, then with torn final
//! pages (half the interrupted page commits) and torn erases. After
//! each cut the key is "replugged" (`disarm_power_cut`) and mounted;
//! the recovered state must equal a fresh load of the base dataset plus
//! some *prefix of whole batches* — all three WAL record kinds replay
//! atomically; never a partial batch, never a corrupted structure. The
//! mid-workload flush runs the full compaction (dead rows dropped,
//! survivors renumbered, re-seal), so cuts land inside that too.

use ghostdb::GhostDb;
use ghostdb_storage::Dataset;
use ghostdb_types::{ColumnId, DeviceConfig, RowId, TableId, Value};

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

fn config() -> DeviceConfig {
    let mut config = DeviceConfig::default_2007();
    // Small geometry so the op sweep stays cheap; 2-block metadata
    // slots and WAL keep the reserved region tight.
    config.flash.page_size = 256;
    config.flash.pages_per_block = 8;
    config.flash.num_blocks = 512;
    config.flash.meta_slot_blocks = 4;
    config.flash.wal_blocks = 2;
    // The workload controls its flush point explicitly.
    config.delta_flush_rows = 0;
    config
}

fn doctor(i: i64) -> Vec<Value> {
    vec![
        Value::Int(i),
        Value::Text(format!("doc{i}")),
        Value::Text(if i % 2 == 0 { "France" } else { "Spain" }.into()),
    ]
}

fn visit(i: i64, doctors: i64) -> Vec<Value> {
    let purposes = ["Checkup", "Sclerosis", "Migraine"];
    vec![
        Value::Int(i),
        Value::Int(i % 8),
        Value::Text(purposes[(i % 3) as usize].into()),
        Value::Int(i % doctors),
    ]
}

const BASE_DOCTORS: i64 = 4;
const BASE_VISITS: i64 = 48;

fn base_dataset(schema: &ghostdb_catalog::Schema) -> Dataset {
    let mut data = Dataset::empty(schema);
    for i in 0..BASE_DOCTORS {
        data.push_row(TableId(0), doctor(i)).unwrap();
    }
    for i in 0..BASE_VISITS {
        data.push_row(TableId(1), visit(i, BASE_DOCTORS)).unwrap();
    }
    data
}

/// One committed workload step (= one WAL record).
#[derive(Clone)]
enum Op {
    Insert(TableId, Vec<Vec<Value>>),
    /// Logical row ids.
    Delete(TableId, Vec<u32>),
    /// Logical row ids + assignments.
    Update(TableId, Vec<u32>, Vec<(ColumnId, Value)>),
}

/// The workload's ops, in commit order: inserts (some carrying strings
/// outside the base dictionary), a delete batch and an update batch
/// before the mid-workload flush (so the compaction renumbers under
/// them), and another delete + update after it (so they replay from the
/// WAL on top of the re-sealed image).
fn ops() -> Vec<Op> {
    let v = BASE_VISITS;
    let d = BASE_DOCTORS + 1;
    vec![
        Op::Insert(TableId(0), vec![doctor(4)]),
        Op::Insert(TableId(1), vec![visit(v, d), visit(v + 1, d)]),
        // Three visits die (logical ids 3, 10, 20).
        Op::Delete(TableId(1), vec![3, 10, 20]),
        Op::Update(
            TableId(1),
            vec![5, 17],
            vec![
                (ColumnId(2), Value::Text("Recovered".into())),
                (ColumnId(1), Value::Int(7)),
            ],
        ),
        // The flush (full compaction + re-seal) happens after op 3.
        Op::Insert(TableId(1), vec![visit(v - 3 + 2, d), visit(v - 3 + 3, d)]),
        Op::Delete(TableId(1), vec![0]),
        Op::Update(TableId(1), vec![8], vec![(ColumnId(1), Value::Int(7))]),
    ]
}

/// Index of the op after which the workload flushes.
const FLUSH_AFTER: usize = 3;

/// Apply the mixed workload; any error (the injected cut) aborts it
/// exactly where a real power loss would.
fn run_workload(db: &mut GhostDb) -> ghostdb_types::Result<()> {
    for (k, op) in ops().into_iter().enumerate() {
        match op {
            Op::Insert(table, rows) => {
                db.insert_rows(table, rows)?;
            }
            Op::Delete(table, rows) => {
                db.delete_rows(table, rows.into_iter().map(RowId).collect())?;
            }
            Op::Update(table, rows, assignments) => {
                db.update_rows(table, rows.into_iter().map(RowId).collect(), assignments)?;
            }
        }
        if k == FLUSH_AFTER {
            db.flush_deltas()?;
        }
    }
    Ok(())
}

fn build_sealed() -> GhostDb {
    let stmts = ghostdb_sql::parse_statements(DDL).unwrap();
    let schema = ghostdb_sql::bind_schema(&stmts).unwrap();
    let data = base_dataset(&schema);
    let mut db = GhostDb::create(DDL, config(), &data).unwrap();
    db.seal().unwrap();
    db
}

const PROBES: &[&str] = &[
    "SELECT Vis.VisID, Doc.Name FROM Visit Vis, Doctor Doc \
     WHERE Vis.Purpose = 'Sclerosis' AND Vis.DocID = Doc.DocID",
    "SELECT Vis.VisID, Vis.Purpose FROM Visit Vis WHERE Vis.Severity >= 3",
    "SELECT Doc.DocID FROM Doctor Doc WHERE Doc.Country = 'Spain'",
];

/// Host-side mirror after the first `k` ops, with `Vec::remove`
/// semantics — rows are stored without their primary key, which is the
/// dense position. Only visits are mutated by the workload, and
/// doctors are never deleted, so foreign keys need no renumbering.
fn mirror_after(k: usize) -> (Vec<Vec<Value>>, Vec<Vec<Value>>) {
    let mut docs: Vec<Vec<Value>> = (0..BASE_DOCTORS).map(|i| doctor(i)[1..].to_vec()).collect();
    let mut visits: Vec<Vec<Value>> = (0..BASE_VISITS)
        .map(|i| visit(i, BASE_DOCTORS)[1..].to_vec())
        .collect();
    for op in ops().into_iter().take(k) {
        match op {
            Op::Insert(table, rows) => {
                for r in rows {
                    if table == TableId(0) {
                        docs.push(r[1..].to_vec());
                    } else {
                        visits.push(r[1..].to_vec());
                    }
                }
            }
            Op::Delete(table, ids) => {
                assert_eq!(table, TableId(1), "workload deletes visits only");
                for &i in ids.iter().rev() {
                    visits.remove(i as usize);
                }
            }
            Op::Update(table, ids, assignments) => {
                assert_eq!(table, TableId(1));
                for &i in &ids {
                    for (c, v) in &assignments {
                        visits[i as usize][c.index() - 1] = v.clone();
                    }
                }
            }
        }
    }
    (docs, visits)
}

/// Expected probe results after the first `k` ops committed, from a
/// fresh load of the mirror.
fn reference_rows(k: usize) -> Vec<Vec<Vec<Value>>> {
    let stmts = ghostdb_sql::parse_statements(DDL).unwrap();
    let schema = ghostdb_sql::bind_schema(&stmts).unwrap();
    let (docs, visits) = mirror_after(k);
    let mut data = Dataset::empty(&schema);
    for (i, r) in docs.into_iter().enumerate() {
        let mut row = vec![Value::Int(i as i64)];
        row.extend(r);
        data.push_row(TableId(0), row).unwrap();
    }
    for (i, r) in visits.into_iter().enumerate() {
        let mut row = vec![Value::Int(i as i64)];
        row.extend(r);
        data.push_row(TableId(1), row).unwrap();
    }
    let db = GhostDb::create(DDL, config(), &data).unwrap();
    PROBES
        .iter()
        .map(|sql| db.query(sql).unwrap().rows.rows)
        .collect()
}

/// Row counts per table after `k` ops (batch-atomicity check).
fn prefix_counts(k: usize) -> (u64, u64) {
    let (docs, visits) = mirror_after(k);
    (docs.len() as u64, visits.len() as u64)
}

/// Ops (programs + erases) the uninterrupted post-seal workload issues.
fn workload_ops() -> u64 {
    let mut db = build_sealed();
    let before = db.nand().stats();
    run_workload(&mut db).expect("uninterrupted run");
    let d = db.nand().stats().since(&before);
    d.page_programs + d.block_erases
}

fn sweep(torn: bool) {
    let total = workload_ops();
    assert!(total > 20, "workload too small to be interesting: {total}");
    let references: Vec<_> = (0..=ops().len()).map(reference_rows).collect();
    let mut seen_prefixes = std::collections::HashSet::new();
    for n in 0..total {
        let mut db = build_sealed();
        let nand = db.nand().clone();
        nand.arm_power_cut(n, torn);
        let res = run_workload(&mut db);
        assert!(res.is_err(), "cut at op {n} did not surface");
        assert!(nand.power_cut_tripped());
        drop(db);

        // Power returns; the key is replugged and mounted.
        nand.disarm_power_cut();
        let db = GhostDb::mount(nand, config())
            .unwrap_or_else(|e| panic!("mount after cut at op {n} (torn={torn}): {e}"));

        // Batch atomicity: the recovered state must be *exactly* some
        // whole-op prefix — cardinalities AND every probe's rows (an
        // update batch leaves counts unchanged, so counts alone cannot
        // identify the prefix).
        let doctors = db.stats().rows(TableId(0));
        let visits = db.stats().rows(TableId(1));
        let probed: Vec<_> = PROBES
            .iter()
            .map(|sql| db.query(sql).unwrap().rows.rows)
            .collect();
        let k = (0..=ops().len())
            .find(|&k| prefix_counts(k) == (doctors, visits) && references[k] == probed)
            .unwrap_or_else(|| {
                panic!(
                    "cut at op {n} (torn={torn}): recovered state \
                     ({doctors} doctors, {visits} visits) matches no whole-op prefix"
                )
            });
        seen_prefixes.insert(k);
    }
    // The sweep must actually exercise intermediate prefixes, not just
    // all-or-nothing.
    assert!(
        seen_prefixes.len() >= 4,
        "sweep saw only prefixes {seen_prefixes:?}"
    );
}

#[test]
fn power_cut_at_every_boundary_clean() {
    sweep(false);
}

#[test]
fn power_cut_at_every_boundary_torn() {
    sweep(true);
}

/// Power cut *and* bit rot in the same run: after a torn cut the key
/// sits unplugged while one bit rots in every seventh programmed page —
/// data, metadata, and WAL pages alike. The mount must still recover a
/// consistent whole-op prefix, repairing single-bit rot as it reads
/// (the torn page itself stays invalid: a flip cannot resurrect it).
#[test]
fn power_cut_plus_rotted_pages_still_recovers() {
    use ghostdb_flash::{PageAddr, PageState};
    let total = workload_ops();
    let references: Vec<_> = (0..=ops().len()).map(reference_rows).collect();
    for n in [1, total / 3, 2 * total / 3, total - 1] {
        let mut db = build_sealed();
        let nand = db.nand().clone();
        nand.arm_power_cut(n, true);
        assert!(run_workload(&mut db).is_err(), "cut at op {n}");
        drop(db);
        nand.disarm_power_cut();

        let cfg = nand.config().clone();
        let pages = cfg.num_blocks * cfg.pages_per_block;
        let mut rotted = 0u32;
        for p in (0..pages).step_by(7) {
            let addr = PageAddr(p as u32);
            if nand.page_state(addr).unwrap() == PageState::Programmed {
                let bit = (p as u32).wrapping_mul(131) % (cfg.page_size as u32 * 8);
                nand.corrupt_page(addr, bit).unwrap();
                rotted += 1;
            }
        }
        assert!(rotted > 0, "nothing was programmed at cut {n}");

        let db = GhostDb::mount(nand, config())
            .unwrap_or_else(|e| panic!("mount after cut at op {n} + {rotted} rotted pages: {e}"));
        let doctors = db.stats().rows(TableId(0));
        let visits = db.stats().rows(TableId(1));
        let probed: Vec<_> = PROBES
            .iter()
            .map(|sql| db.query(sql).unwrap().rows.rows)
            .collect();
        assert!(
            (0..=ops().len())
                .any(|k| prefix_counts(k) == (doctors, visits) && references[k] == probed),
            "cut at op {n} with {rotted} rotted pages: recovered state \
             ({doctors} doctors, {visits} visits) matches no whole-op prefix"
        );
    }
}

/// The older metadata slot stands in only for a seal that never
/// finished. Once the newer image is durable, the pages that only the
/// older one maps are released for reuse and the WAL moves on to the
/// newer epoch; if the newer image then rots past repair, the mount
/// must refuse rather than serve the older image over pages that may
/// hold other data by now, and without the batches that image missed.
#[test]
fn rotted_newest_image_does_not_fall_back_to_a_superseded_one() {
    use ghostdb_flash::PageAddr;
    let mut db = build_sealed();
    run_workload(&mut db).unwrap();
    let epoch = db.sealed_epoch().unwrap();
    let nand = db.nand().clone();
    drop(db);
    // Two flips in the newest slot's header page: past the codeword's
    // one-bit budget, so that slot reads as invalid.
    let cfg = nand.config().clone();
    let slot_pages = cfg.meta_slot_blocks * cfg.pages_per_block;
    let header = PageAddr(((epoch % 2) as usize * slot_pages) as u32);
    nand.corrupt_page(header, 3).unwrap();
    nand.corrupt_page(header, 77).unwrap();
    match GhostDb::mount(nand, config()) {
        Ok(db) => panic!(
            "mounted epoch {:?} although epoch {epoch} had superseded it",
            db.sealed_epoch()
        ),
        Err(e) => assert!(
            e.to_string().contains("superseded"),
            "want the superseded-image diagnostic, got: {e}"
        ),
    }
}

/// Sanity: the uninterrupted workload, remounted, equals the full
/// prefix.
#[test]
fn uninterrupted_run_remounts_complete() {
    let mut db = build_sealed();
    run_workload(&mut db).unwrap();
    let nand = db.nand().clone();
    drop(db);
    let db = GhostDb::mount(nand, config()).unwrap();
    let all = ops().len();
    assert_eq!(
        (db.stats().rows(TableId(0)), db.stats().rows(TableId(1))),
        prefix_counts(all)
    );
    for (sql, expect) in PROBES.iter().zip(&reference_rows(all)) {
        assert_eq!(&db.query(sql).unwrap().rows.rows, expect);
    }
}

/// The slot map is a 32-bit mask, so 32-block metadata slots are the
/// largest legal configuration — and the one where "does the map stay
/// inside the slot" shifts by the full bit width. A part sealed with
/// them must mount (it used to be rejected as "no valid sealed image",
/// or overflow-panic in debug builds).
#[test]
fn thirty_two_block_metadata_slots_seal_and_mount() {
    let mut config = config();
    config.flash.meta_slot_blocks = 32;
    let stmts = ghostdb_sql::parse_statements(DDL).unwrap();
    let schema = ghostdb_sql::bind_schema(&stmts).unwrap();
    let mut db = GhostDb::create(DDL, config.clone(), &base_dataset(&schema)).unwrap();
    db.seal().unwrap();
    let expect: Vec<_> = PROBES
        .iter()
        .map(|sql| db.query(sql).unwrap().rows.rows)
        .collect();
    let nand = db.nand().clone();
    drop(db);

    let db = GhostDb::mount(nand, config).unwrap();
    for (sql, rows) in PROBES.iter().zip(&expect) {
        assert_eq!(&db.query(sql).unwrap().rows.rows, rows, "{sql}");
    }
}
