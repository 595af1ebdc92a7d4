//! `point-hot` and `point-cold`: hidden point queries on the 10^6-row
//! scale table, the same layers used two ways. Hot draws keys
//! zipfian(0.99) in bursts of 8, so the working set fits the 16-page
//! cache; cold draws them uniformly, so nearly every lookup descends
//! the index from NAND.

use ghostdb_core::GhostDb;
use ghostdb_types::{Result, Value};
use ghostdb_workload::{
    generate_scale, scale_point_query, scale_row, ScaleConfig, Zipfian, SCALE_DDL,
};

use super::{check_no_leak, drive, lcg, probe_plans, read_phase_end, select_op, Outcome, Params};
use crate::measure::Meter;
use crate::spec::Workload;

/// A drawn key is probed this many times in a row while it is hot.
const BURST: usize = 8;
/// One statement in this many is leak-checked.
const LEAK_SAMPLE: usize = 64;
/// Plaintext bytes of one `Event` row: three 8-byte integers and a
/// `CHAR(12)`.
pub const EVENT_ROW_BYTES: u64 = 36;

pub fn scale_config(workload: Workload, params: &Params) -> ScaleConfig {
    ScaleConfig::scaled(params.rows(workload)).with_seed(params.derive(1))
}

/// The payload keys probed, in order.
fn keys(workload: Workload, params: &Params) -> Vec<i64> {
    let cfg = scale_config(workload, params);
    let n = params.ops(workload);
    let card = cfg.payload_cardinality as u64;
    match workload {
        Workload::PointHot => {
            let mut z = Zipfian::new(card, cfg.theta, params.derive(2));
            (0..n.div_ceil(BURST))
                .flat_map(|_| std::iter::repeat_n(z.next() as i64, BURST))
                .take(n)
                .collect()
        }
        _ => {
            let mut state = params.derive(3);
            (0..n).map(|_| (lcg(&mut state) % card) as i64).collect()
        }
    }
}

#[cfg(test)]
pub fn op_list(workload: Workload, params: &Params) -> Vec<String> {
    keys(workload, params)
        .into_iter()
        .map(scale_point_query)
        .collect()
}

/// Closed form of the answer: the ids in `0..rows` whose generated
/// payload is `key` (see `scale_row`: runs of `span` consecutive ids
/// share a payload, wrapping every `card` runs).
pub fn matching_ids(cfg: &ScaleConfig, rows: u64, key: i64) -> impl Iterator<Item = u64> {
    let card = cfg.payload_cardinality.max(1) as u64;
    let span = (cfg.rows as u64 / card).max(1);
    (key as u64..)
        .step_by(card as usize)
        .map(move |run| run * span)
        .take_while(move |start| *start < rows)
        .flat_map(move |start| start..(start + span).min(rows))
}

pub fn run(workload: Workload, params: &Params) -> Result<Outcome> {
    let cfg = scale_config(workload, params);
    let keys = keys(workload, params);
    let offset = params.derive(4) as usize;
    let setup = || {
        let data = generate_scale(&cfg)?;
        GhostDb::create(SCALE_DDL, params.device_config(), &data)
    };
    let phase = |db: GhostDb, meter: &mut Meter| {
        let clock = db.clock().clone();
        let rows = cfg.rows as u64;
        db.set_tracing(meter.traced);
        db.clear_trace();
        db.ram().reset_peak();
        meter.resume(&db);
        for (i, &key) in keys.iter().enumerate() {
            let sql = scale_point_query(key);
            if let Some(out) = select_op(&db, &clock, meter, &sql, i + offset) {
                let want = matching_ids(&cfg, rows, key);
                let got = out.rows.rows.iter().map(|r| r[0].as_int());
                if !want.map(|id| Some(id as i64)).eq(got) {
                    meter.fail(|| format!("wrong answer for payload {key}"));
                }
            }
            if i.is_multiple_of(LEAK_SAMPLE) {
                if let Some(id) = matching_ids(&cfg, rows, key).next() {
                    let tag: Value = scale_row(&cfg, id as i64).swap_remove(3);
                    check_no_leak(&db, meter, &tag);
                }
            }
            db.clear_trace();
        }
        meter.pause(&db);
        read_phase_end(&db, meter, rows * EVENT_ROW_BYTES);
        if meter.traced {
            probe_plans(&db, meter, keys.len(), |i| scale_point_query(keys[i]))?;
        }
        Ok(())
    };
    drive(workload, params, setup, phase)
}
