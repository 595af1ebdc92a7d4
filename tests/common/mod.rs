//! Shared helpers for the integration tests.
#![allow(dead_code)] // each test binary uses a different subset

use ghostdb::{GhostDb, QueryOutcome};
use ghostdb_exec::{Plan, QuerySpec};
use ghostdb_types::{DeviceConfig, Value};
use ghostdb_workload::{generate_medical, MedicalConfig, MEDICAL_DDL};

/// Build a loaded medical GhostDB at the given root cardinality.
pub fn medical_db(prescriptions: usize) -> (GhostDb, MedicalConfig) {
    let cfg = MedicalConfig::scaled(prescriptions);
    let data = generate_medical(&cfg).expect("generate");
    let db = GhostDb::create(MEDICAL_DDL, DeviceConfig::default_2007(), &data).expect("create db");
    (db, cfg)
}

/// Build a loaded medical GhostDB plus the raw dataset (for reference
/// checks — the dataset never leaves the test harness).
pub fn medical_db_with_data(
    prescriptions: usize,
) -> (GhostDb, MedicalConfig, ghostdb_storage::Dataset) {
    let cfg = MedicalConfig::scaled(prescriptions);
    let data = generate_medical(&cfg).expect("generate");
    let db = GhostDb::create(MEDICAL_DDL, DeviceConfig::default_2007(), &data).expect("create db");
    (db, cfg, data)
}

/// Compare engine output against the naive reference engine.
pub fn assert_matches_reference(
    db: &GhostDb,
    data: &ghostdb_storage::Dataset,
    sql: &str,
    out: &QueryOutcome,
) {
    let spec = db.bind(sql).expect("bind");
    let base = ghostdb_workload::reference_execute(
        db.schema(),
        db.tree(),
        data,
        spec.anchor,
        &spec.projections,
        &spec.predicates,
    )
    .expect("reference");
    // The reference produces the deduplicated base projections; expand
    // them through the SELECT-list shape (repeated columns re-appear).
    // Aggregating specs have their own oracle (`aggregate_equivalence`).
    let expect: Vec<Vec<Value>> = base
        .into_iter()
        .map(|r| {
            spec.output
                .iter()
                .map(|o| match o {
                    ghostdb_exec::OutputExpr::Column(i) => r[*i].clone(),
                    ghostdb_exec::OutputExpr::Agg { .. } => {
                        panic!("assert_matches_reference cannot check aggregates")
                    }
                })
                .collect()
        })
        .collect();
    assert_eq!(
        out.rows.rows, expect,
        "engine and reference disagree for {sql}"
    );
}

/// Capture fidelity: a snapshot taken now runs `(spec, plan)` to the
/// same rows and the same per-operator tuple counts as the writer it
/// was forked from.
pub fn assert_snapshot_matches(db: &GhostDb, spec: &QuerySpec, plan: &Plan) {
    let live = db.run(spec, plan).expect("writer run");
    let snap = db.snapshot().expect("snapshot");
    let seen = snap.run(spec, plan).expect("snapshot run");
    assert_eq!(
        seen.rows.rows, live.rows.rows,
        "snapshot and writer rows disagree under plan {}: {}",
        plan.label, spec.sql
    );
    let counts = |o: &QueryOutcome| -> Vec<(String, u64, u64)> {
        o.report
            .ops
            .iter()
            .map(|op| (op.name.clone(), op.tuples_in, op.tuples_out))
            .collect()
    };
    assert_eq!(
        counts(&seen),
        counts(&live),
        "snapshot and writer tuple counts disagree under plan {}: {}",
        plan.label,
        spec.sql
    );
}

/// One `Child (cid, vis, hid HIDDEN, tag HIDDEN)` row of the two-table
/// Child/Root fixture the equivalence proptests share. The tag pool
/// size controls how often inserts mint strings the base dictionary
/// has never seen.
pub fn child_row(i: i64, next: &mut impl FnMut() -> i64, tags: usize) -> Vec<Value> {
    vec![
        Value::Int(i),
        Value::Int(next() % 50),
        Value::Int(next() % 50),
        Value::Text(format!("tag-{}", next().rem_euclid(tags as i64))),
    ]
}

/// One `Root (rid, amt HIDDEN, cid HIDDEN → Child)` row of the same
/// fixture, referencing one of `children` child rows.
pub fn root_row(i: i64, children: i64, next: &mut impl FnMut() -> i64) -> Vec<Value> {
    vec![
        Value::Int(i),
        Value::Int(next() % 50),
        Value::Int(next().rem_euclid(children)),
    ]
}

/// Rows as a flat debug string (stable diagnostics).
#[allow(dead_code)]
pub fn rows_digest(rows: &[Vec<Value>]) -> String {
    format!("{rows:?}")
}
