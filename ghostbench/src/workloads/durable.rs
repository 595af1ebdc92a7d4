//! `durable-cycle`: WAL-logged single-row DML on a sealed part, with
//! the key unplugged every few thousand operations — the handle is
//! dropped and the database mounted again from the NAND alone. The
//! only workload where `persist` does the work, and the durability
//! check: after every mount, each acknowledged write must be readable.

use std::collections::VecDeque;

use ghostdb_core::GhostDb;
use ghostdb_types::{DeviceConfig, GhostError, Result};
use ghostdb_workload::{generate_scale, scale_point_query, ScaleOp, SCALE_DDL};

use super::mutate::{apply, ops, Model, Op, WriteLog, EVENT};
use super::point::{scale_config, EVENT_ROW_BYTES};
use super::{drive, read_phase_end, Outcome, Params};
use crate::measure::{Meter, OpKind};
use crate::spec::Workload;

/// Blocks per metadata slot. The paper geometry's 8 cannot hold a
/// 10^5-row image; 24 can (32 seals but does not mount — see README).
const META_SLOT_BLOCKS: usize = 24;
/// After each mount the payloads touched by this many most recent
/// acknowledged writes are read back, plus as many spread over the
/// key space.
const VERIFY_RECENT: usize = 32;

fn device_config(params: &Params) -> DeviceConfig {
    let mut config = params.device_config();
    config.flash.meta_slot_blocks = META_SLOT_BLOCKS;
    config
}

/// The mounted database and the model must agree: same row count, and
/// every probed payload answers with the model's count. Each miss is a
/// lost (or phantom) acknowledged write.
fn verify_mounted(db: &GhostDb, meter: &mut Meter, model: &Model, recent: &VecDeque<i64>) {
    let rows = db.stats().rows(EVENT);
    if rows != model.rows() as u64 {
        let want = model.rows();
        meter.fail(|| format!("mounted table has {rows} rows, model has {want}"));
    }
    let card = model.counts().len();
    let spread = (0..VERIFY_RECENT).map(|i| (i * card / VERIFY_RECENT) as i64);
    for key in recent.iter().copied().chain(spread) {
        let want = model.count(key) as usize;
        match db.query(&scale_point_query(key)) {
            Ok(out) if out.rows.len() == want => {}
            Ok(out) => {
                let got = out.rows.len();
                meter.fail(|| format!("after mount payload {key}: {got} rows, model has {want}"));
            }
            Err(e) => meter.fail(|| format!("after mount payload {key}: {e}")),
        }
        db.clear_trace();
    }
}

pub fn run(params: &Params) -> Result<Outcome> {
    let workload = Workload::DurableCycle;
    let cfg = scale_config(workload, params);
    let ops = ops(workload, params);
    let base_model = Model::new(&cfg);
    let offset = params.derive(4) as usize;
    let setup = || {
        let data = generate_scale(&cfg)?;
        let mut db = GhostDb::create(SCALE_DDL, device_config(params), &data)?;
        db.seal()?;
        Ok(db)
    };
    let phase = |mut db: GhostDb, meter: &mut Meter| {
        let clock = db.clock().clone();
        let mut model = base_model.clone();
        let mut log = WriteLog::default();
        let mut recent: VecDeque<i64> = VecDeque::with_capacity(VERIFY_RECENT);
        let first_epoch = db.sealed_epoch().unwrap_or(0);
        db.set_tracing(meter.traced);
        db.clear_trace();
        db.ram().reset_peak();
        meter.resume(&db);
        for (i, op) in ops.iter().enumerate() {
            match *op {
                Op::Dml(op) => {
                    // The payload whose count this write changes.
                    let touched = match op {
                        ScaleOp::Insert => None,
                        ScaleOp::Update(_, value) => Some(value),
                        ScaleOp::Delete(row) => Some(model.payload(row) as i64),
                        ScaleOp::Read(_) => None,
                    };
                    apply(&mut db, &clock, meter, &mut model, &mut log, op, i + offset);
                    let touched =
                        touched.unwrap_or_else(|| model.payload(model.rows() as u32 - 1) as i64);
                    if recent.len() == VERIFY_RECENT {
                        recent.pop_front();
                    }
                    recent.push_back(touched);
                }
                Op::Unplug => {
                    meter.pause(&db);
                    let nand = db.nand().clone();
                    drop(db);
                    meter.resume_after_mount(nand.stats());
                    let mounted = meter.op(OpKind::Mount, &clock, |_| {
                        GhostDb::mount(nand.clone(), device_config(params))
                    });
                    db = mounted.map_err(|e| {
                        GhostError::corrupt(format!("mount after op {i} failed: {e}"))
                    })?;
                    meter.end.replay_rows += log.since_flush;
                    db.set_tracing(meter.traced);
                    meter.pause(&db);
                    verify_mounted(&db, meter, &model, &recent);
                    meter.resume(&db);
                }
            }
        }
        meter.pause(&db);
        read_phase_end(&db, meter, model.rows() as u64 * EVENT_ROW_BYTES);
        meter.end.seal_count = db.sealed_epoch().unwrap_or(0) - first_epoch;
        meter.end.image_bytes = db.seal()?.image_bytes;
        Ok(())
    };
    drive(workload, params, setup, phase)
}
