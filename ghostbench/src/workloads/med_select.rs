//! `med-select`: read-only statements on the paper's Figure 3 medical
//! schema — the five plan-game templates with per-statement date
//! cutoffs and purposes, a `GROUP BY` fold over hidden `Quantity`, and
//! a `BETWEEN … ORDER BY … LIMIT 10` top-k.
//!
//! Parameters are stratified, not drawn independently: each template's
//! instances sweep its cutoff range on an evenly spaced grid, and the
//! seed picks the dataset and the order of the list, so the latency
//! distribution — and with it every percentile — has the same shape
//! on every seed.

use std::cell::OnceCell;
use std::collections::{BTreeMap, HashSet};

use ghostdb_core::GhostDb;
use ghostdb_storage::Dataset;
use ghostdb_types::{Date, GhostError, Result, RowId, Value};
use ghostdb_workload::{
    game_queries, generate_medical, reference_execute, MedicalConfig, MEDICAL_DDL,
};

use super::{check_no_leak, drive, lcg, probe_plans, read_phase_end, select_op, Outcome, Params};
use crate::measure::Meter;
use crate::spec::Workload;

/// Each distinct statement runs this many times, so the reference
/// engine evaluates `ops / REPEATS` texts.
const REPEATS: usize = 8;
/// One statement in this many is leak-checked.
const LEAK_SAMPLE: usize = 16;
/// Purposes substituted into the templates' hidden predicate, in
/// instance order: the paper's `Sclerosis` (1 % of visits) and the
/// generator's ten rarest (1.7–3.2 % each). The frequent ones would
/// turn every template into the same unselective scan.
const PURPOSES: &[&str] = &[
    "Sclerosis",
    "Gastritis",
    "Dermatitis",
    "Obesity",
    "Anemia",
    "Insomnia",
    "Depression",
    "Arthritis",
    "Bronchitis",
    "Allergy",
    "Fracture",
];

fn medical_config(params: &Params) -> MedicalConfig {
    MedicalConfig::scaled(params.rows(Workload::MedSelect)).with_seed(params.derive(1))
}

fn day(cfg: &MedicalConfig, fraction: f64) -> Date {
    Date(cfg.date_start.0 + (cfg.date_span_days as f64 * fraction) as i32)
}

/// The medicine type the paper query's visible predicate selects on:
/// the one held by closest to 10 % of medicines, the selectivity the
/// paper's `Antibiotic` is meant to have. The generator draws only a
/// few hundred medicines, so `Antibiotic` itself lands anywhere from
/// 7 % to 13 % depending on the seed — a third of this workload's
/// simulated time swinging ±20 % on a binomial draw.
fn ten_percent_type(data: &Dataset) -> Result<String> {
    let medicine = ghostdb_workload::medical_schema()?.resolve_table("Medicine")?;
    let n = data.row_count(medicine);
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for r in 0..n {
        if let Some(ty) = data.value(medicine, 3, RowId(r as u32)).as_text() {
            *counts.entry(ty).or_default() += 1;
        }
    }
    counts
        .into_iter()
        .min_by_key(|(_, c)| (*c * 10).abs_diff(n))
        .map(|(ty, _)| ty.to_string())
        .ok_or_else(|| GhostError::exec("no medicines generated"))
}

/// The distinct statements: 2 % GROUP BY, 3 % top-k, the rest split
/// evenly over the five game templates.
fn distinct_statements(
    params: &Params,
    cfg: &MedicalConfig,
    data: &Dataset,
) -> Result<Vec<String>> {
    let med_type = ten_percent_type(data)?;
    let k = (params.ops(Workload::MedSelect) / REPEATS).max(7);
    let n_group = (k * 2).div_ceil(100);
    let n_topk = (k * 3).div_ceil(100);
    let per_game = (k - n_group - n_topk) / 5;
    // Instance j of n sits in the middle of the j-th of n strata. The
    // grid is the same on every seed: with three GROUP BY folds in the
    // list, letting the seed slide their cutoffs moved total simulated
    // time by 12 %. The seed picks the data and the order.
    let grid = |j: usize, n: usize| (j as f64 + 0.5) / n as f64;

    let mut out = Vec::with_capacity(k);
    for j in 0..per_game {
        // `game_queries` cuts at half and at 95 % of the span it is
        // given; sweeping the span sweeps both cutoffs.
        let span = (cfg.date_span_days as f64 * (0.70 + 0.35 * grid(j, per_game))) as u32;
        for (t, q) in game_queries(cfg.date_start, span).into_iter().enumerate() {
            let purpose = PURPOSES[(j * 5 + t) % PURPOSES.len()];
            let from = if q.sql.contains("'Checkup'") {
                "'Checkup'"
            } else {
                "'Sclerosis'"
            };
            out.push(
                q.sql
                    .replace(from, &format!("'{purpose}'"))
                    .replace("'Antibiotic'", &format!("'{med_type}'")),
            );
        }
    }
    for j in 0..n_group {
        let cutoff = day(cfg, 0.85 + 0.12 * grid(j, n_group));
        out.push(format!(
            "SELECT Vis.Purpose, COUNT(*), SUM(Pre.Quantity) \
             FROM Prescription Pre, Visit Vis \
             WHERE Vis.Date > '{cutoff}' AND Vis.VisID = Pre.VisID \
             GROUP BY Vis.Purpose"
        ));
    }
    for j in 0..n_topk {
        let lo = 0.05 + 0.85 * grid(j, n_topk);
        out.push(format!(
            "SELECT Pre.PreID, Pre.Quantity FROM Prescription Pre, Visit Vis \
             WHERE Vis.Date BETWEEN '{}' AND '{}' AND Vis.VisID = Pre.VisID \
             ORDER BY 2 DESC, 1 LIMIT 10",
            day(cfg, lo),
            day(cfg, lo + 0.05)
        ));
    }
    Ok(out)
}

/// The statement list: every distinct statement `REPEATS` times, in a
/// seeded shuffle. Entries index into the distinct list.
fn schedule(params: &Params, distinct: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..distinct * REPEATS).map(|i| i % distinct).collect();
    let mut state = params.derive(7);
    for i in (1..order.len()).rev() {
        order.swap(i, lcg(&mut state) as usize % (i + 1));
    }
    order
}

#[cfg(test)]
pub fn op_list(params: &Params) -> Vec<String> {
    let cfg = medical_config(params);
    let data = generate_medical(&cfg).expect("medical dataset");
    let distinct = distinct_statements(params, &cfg, &data).expect("statements");
    schedule(params, distinct.len())
        .into_iter()
        .map(|i| distinct[i].clone())
        .collect()
}

/// Rows the statement must return, from the naive reference engine
/// over the load-time dataset: the SPJ rows, folded to distinct groups
/// under GROUP BY, cut at LIMIT.
fn expected_rows(db: &GhostDb, data: &Dataset, sql: &str) -> Result<usize> {
    let spec = db.bind(sql)?;
    let rows = reference_execute(
        db.schema(),
        db.tree(),
        data,
        spec.anchor,
        &spec.projections,
        &spec.predicates,
    )?;
    let mut n = if spec.group_by.is_empty() {
        rows.len()
    } else {
        rows.iter()
            .map(|r| spec.group_by.iter().map(|&i| &r[i]).collect::<Vec<_>>())
            .collect::<HashSet<_>>()
            .len()
    };
    if let Some(limit) = spec.limit {
        n = n.min(limit as usize);
    }
    Ok(n)
}

pub fn run(params: &Params) -> Result<Outcome> {
    let cfg = medical_config(params);
    // The reference engine's copy of the data, and its answers, built
    // once outside every clock.
    let data = generate_medical(&cfg)?;
    let distinct = distinct_statements(params, &cfg, &data)?;
    let order = schedule(params, distinct.len());
    let offset = params.derive(4) as usize;
    let expected: OnceCell<Vec<usize>> = OnceCell::new();
    let schema = ghostdb_workload::medical_schema()?;
    let user_bytes: u64 = {
        schema
            .tables()
            .iter()
            .enumerate()
            .map(|(t, def)| {
                let width: u64 = def
                    .columns
                    .iter()
                    .map(|c| match c.ty {
                        ghostdb_types::DataType::Integer => 8,
                        ghostdb_types::DataType::Date => 4,
                        ghostdb_types::DataType::Char(n) => n as u64,
                    })
                    .sum();
                width * data.row_count(ghostdb_types::TableId(t as u16)) as u64
            })
            .sum()
    };
    // Leak sentinels: hidden patient names. The spy check is a raw
    // substring search, and the generator builds doctors' and
    // medicines' (visible) names from the same syllables, so a name
    // that occurs inside one of those crosses the bus legitimately and
    // is no sentinel.
    let mut public_names = Vec::new();
    for table in ["Doctor", "Medicine"] {
        let t = schema.resolve_table(table)?;
        public_names.extend(
            (0..data.row_count(t)).filter_map(|r| data.value(t, 1, RowId(r as u32)).as_text()),
        );
    }
    let patient = schema.resolve_table("Patient")?;
    let sentinels: Vec<&Value> = (0..data.row_count(patient))
        .map(|r| data.value(patient, 1, RowId(r as u32)))
        .filter(|name| {
            name.as_text()
                .is_some_and(|n| !public_names.iter().any(|p| p.contains(n)))
        })
        .take(256)
        .collect();

    let setup = || {
        let data = generate_medical(&cfg)?;
        GhostDb::create(MEDICAL_DDL, params.device_config(), &data)
    };
    let phase = |db: GhostDb, meter: &mut Meter| {
        if expected.get().is_none() {
            let answers: Result<Vec<usize>> = distinct
                .iter()
                .map(|sql| expected_rows(&db, &data, sql))
                .collect();
            let _ = expected.set(answers?);
        }
        let expected = expected.get().expect("just set");
        let clock = db.clock().clone();
        db.set_tracing(meter.traced);
        db.clear_trace();
        db.ram().reset_peak();
        meter.resume(&db);
        for (i, &which) in order.iter().enumerate() {
            let sql = &distinct[which];
            if let Some(out) = select_op(&db, &clock, meter, sql, i + offset) {
                if out.rows.len() != expected[which] {
                    let (got, want) = (out.rows.len(), expected[which]);
                    meter.fail(|| format!("{got} rows, reference has {want} [{sql}]"));
                }
            }
            if i.is_multiple_of(LEAK_SAMPLE) {
                if let Some(name) = sentinels.get(i / LEAK_SAMPLE % sentinels.len().max(1)) {
                    check_no_leak(&db, meter, name);
                }
            }
            db.clear_trace();
        }
        meter.pause(&db);
        read_phase_end(&db, meter, user_bytes);
        if meter.traced {
            probe_plans(&db, meter, distinct.len(), |i| distinct[i].clone())?;
        }
        Ok(())
    };
    drive(Workload::MedSelect, params, setup, phase)
}
