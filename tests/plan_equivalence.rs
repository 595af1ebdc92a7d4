//! Every enumerated plan must return exactly the same rows — the
//! property that makes the demo's plan game playable (only *speed*
//! differs) and a strong whole-engine invariant, exercised here both on
//! fixed queries and property-test style on random predicate mixes.

mod common;

use common::{assert_matches_reference, medical_db_with_data};
use ghostdb::GhostDb;
use ghostdb_exec::{Plan, QuerySpec};
use ghostdb_types::{Date, Value};
use ghostdb_workload::{game_queries, MedicalConfig};
use proptest::prelude::*;

/// The benchmark's top-k shape: a visible `BETWEEN` on `Visit`, only
/// `Prescription` columns projected, ordered and limited on the device.
fn top_k_query(cfg: &MedicalConfig) -> String {
    let day = |frac: f64| Date(cfg.date_start.0 + (cfg.date_span_days as f64 * frac) as i32);
    format!(
        "SELECT Pre.PreID, Pre.Quantity FROM Prescription Pre, Visit Vis \
         WHERE Vis.Date BETWEEN '{}' AND '{}' AND Vis.VisID = Pre.VisID \
         ORDER BY 2 DESC, 1 LIMIT 10",
        day(0.40),
        day(0.45)
    )
}

/// The reference rows of [`top_k_query`]: `(PreID, Quantity)` sorted by
/// quantity descending, then id, first ten.
fn top_k_reference(
    db: &GhostDb,
    data: &ghostdb_storage::Dataset,
    spec: &QuerySpec,
) -> Vec<Vec<Value>> {
    let mut rows = ghostdb_workload::reference_execute(
        db.schema(),
        db.tree(),
        data,
        spec.anchor,
        &spec.projections,
        &spec.predicates,
    )
    .unwrap();
    let int = |v: &Value| match v {
        Value::Int(i) => *i,
        other => panic!("expected an integer, got {other:?}"),
    };
    rows.sort_by_key(|r| (-int(&r[1]), int(&r[0])));
    rows.truncate(10);
    rows
}

/// The plan-game templates Q1–Q5 plus the top-k shape, each with its
/// enumerated plans.
fn game_plans(db: &GhostDb, cfg: &MedicalConfig) -> Vec<(String, QuerySpec, Vec<Plan>)> {
    let mut sqls: Vec<String> = game_queries(cfg.date_start, cfg.date_span_days)
        .into_iter()
        .map(|q| q.sql)
        .collect();
    sqls.push(top_k_query(cfg));
    sqls.into_iter()
        .map(|sql| {
            let spec = db.bind(&sql).unwrap();
            let plans = db
                .plans(&sql)
                .unwrap()
                .into_iter()
                .map(|cp| cp.plan)
                .collect();
            (sql, spec, plans)
        })
        .collect()
}

#[test]
fn every_plan_of_the_game_templates_matches_reference() {
    let (db, cfg, data) = medical_db_with_data(3_000);
    for (sql, spec, plans) in game_plans(&db, &cfg) {
        assert!(!plans.is_empty(), "no plan for {sql}");
        let top_k = spec.limit.map(|_| top_k_reference(&db, &data, &spec));
        for plan in &plans {
            let out = db.query_with_plan(&sql, plan).unwrap();
            match &top_k {
                Some(expect) => {
                    assert!(!expect.is_empty(), "the top-k range selects no row");
                    assert_eq!(&out.rows.rows, expect, "plan {} of {sql}", plan.label);
                }
                None => assert_matches_reference(&db, &data, &sql, &out),
            }
        }
    }
}

/// A plan whose projections and post steps name only the anchor's
/// columns never opens the Subtree Key Table: its candidates are the
/// rows (`anchor-rows`), in the blocked and the scalar pipeline alike.
/// Plans that do reach `Visit` or `Medicine` still report `access-skt`.
#[test]
fn anchor_only_plans_skip_the_skt_in_both_pipelines() {
    let (db, cfg, _data) = medical_db_with_data(3_000);
    let (mut anchor_only, mut through_skt) = (0, 0);
    for (sql, spec, plans) in game_plans(&db, &cfg) {
        for plan in &plans {
            let elsewhere = spec.projections.iter().any(|c| c.table != spec.anchor)
                || plan
                    .post
                    .iter()
                    .any(|s| spec.predicates[s.pred()].column.table != spec.anchor);
            assert_eq!(
                plan.reads_skt(&spec, db.tree()),
                elsewhere,
                "plan {} of {sql}",
                plan.label
            );
            let blocked = db.run(&spec, plan).unwrap();
            let scalar = db.run_scalar(&spec, plan).unwrap();
            assert_eq!(
                blocked.rows.rows, scalar.rows.rows,
                "plan {} of {sql}",
                plan.label
            );
            for out in [&blocked, &scalar] {
                let names: Vec<&str> = out.report.ops.iter().map(|o| o.name.as_str()).collect();
                let (want, never) = if elsewhere {
                    ("access-skt", "anchor-rows")
                } else {
                    ("anchor-rows", "access-skt")
                };
                assert!(
                    names.contains(&want) && !names.contains(&never),
                    "plan {} of {sql} reported {names:?}",
                    plan.label
                );
            }
            if elsewhere {
                through_skt += 1;
            } else {
                anchor_only += 1;
            }
        }
    }
    assert!(
        anchor_only > 0 && through_skt > 0,
        "{anchor_only} anchor-only, {through_skt} SKT plans"
    );
}

#[test]
fn all_plans_agree_on_the_paper_query() {
    let (db, cfg, data) = medical_db_with_data(3_000);
    let cutoff = Date(cfg.date_start.0 + (cfg.date_span_days / 2) as i32);
    let sql = ghostdb_workload::paper_query(cutoff);
    let plans = db.plans(&sql).unwrap();
    assert!(
        plans.len() >= 10,
        "the paper promises a large panel of plans; got {}",
        plans.len()
    );
    let mut first = None;
    for cp in &plans {
        let out = db.query_with_plan(&sql, &cp.plan).unwrap();
        match &first {
            None => {
                assert_matches_reference(&db, &data, &sql, &out);
                first = Some(out.rows.rows);
            }
            Some(expect) => assert_eq!(&out.rows.rows, expect, "plan {} disagrees", cp.plan.label),
        }
    }
}

#[test]
fn all_plans_agree_across_selectivities() {
    let (db, cfg, _data) = medical_db_with_data(2_000);
    for frac in [0.001, 0.05, 0.5, 0.95] {
        let sql = ghostdb_workload::selectivity_query(cfg.date_start, cfg.date_span_days, frac);
        let plans = db.plans(&sql).unwrap();
        let mut first: Option<usize> = None;
        for cp in plans.iter() {
            let out = db.query_with_plan(&sql, &cp.plan).unwrap();
            match first {
                None => first = Some(out.rows.len()),
                Some(n) => assert_eq!(out.rows.len(), n, "frac {frac}"),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12, // each case runs every plan of a query on a real db
        .. ProptestConfig::default()
    })]

    /// Random conjunctive queries over the medical schema: every
    /// enumerated plan agrees with the naive reference engine.
    #[test]
    fn random_queries_all_plans_match_reference(
        quantity in 1i64..10,
        q_op in 0usize..3,
        date_frac in 0.0f64..1.0,
        purpose_sel in prop::sample::select(vec!["Sclerosis", "Checkup", "Diabetes", "Nothing"]),
        use_type in any::<bool>(),
    ) {
        // One shared database per process run would be nicer, but a
        // small one is cheap enough and keeps cases independent.
        let (db, cfg, data) = medical_db_with_data(800);
        let ops = ["=", ">", "<="];
        let cutoff = Date(cfg.date_start.0 + ((cfg.date_span_days as f64) * date_frac) as i32);
        let mut sql = format!(
            "SELECT Pre.PreID, Vis.Purpose, Med.Name \
             FROM Prescription Pre, Visit Vis, Medicine Med \
             WHERE Pre.Quantity {} {} \
               AND Vis.Date > '{}' \
               AND Vis.Purpose = '{}' ",
            ops[q_op], quantity, cutoff, purpose_sel,
        );
        if use_type {
            sql.push_str("AND Med.Type = 'Antibiotic' ");
        }
        sql.push_str("AND Vis.VisID = Pre.VisID AND Med.MedID = Pre.MedID");

        let plans = db.plans(&sql).unwrap();
        prop_assert!(!plans.is_empty());
        let out = db.query_with_plan(&sql, &plans[0].plan).unwrap();
        assert_matches_reference(&db, &data, &sql, &out);
        // Sample a few other plans (first, last, middle) for agreement.
        let picks = [plans.len() / 2, plans.len() - 1];
        for &i in &picks {
            let other = db.query_with_plan(&sql, &plans[i].plan).unwrap();
            prop_assert_eq!(&other.rows.rows, &out.rows.rows, "plan {} disagrees", &plans[i].plan.label);
        }
    }
}
