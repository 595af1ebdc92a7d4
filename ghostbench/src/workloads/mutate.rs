//! The mutating op stream shared by `churn`, `durable-cycle` and the
//! writer of `snap-readers`: seed-generated reads, inserts, updates and
//! deletes on the scale table, applied through the engine's public DML
//! calls and mirrored in a harness-side model that every read is
//! checked against.

use ghostdb_core::GhostDb;
use ghostdb_types::{ColumnId, Result, RowId, SimClock, TableId, Value};
use ghostdb_workload::{
    generate_scale, scale_point_query, scale_row, OpStream, ScaleConfig, ScaleMix, ScaleOp,
    SCALE_DDL,
};

use super::point::{scale_config, EVENT_ROW_BYTES};
use super::{check_no_leak, drive, probe_plans, read_phase_end, select_op, Outcome, Params};
use crate::measure::{Meter, OpKind};
use crate::spec::Workload;

/// `Event` is the only table; `Payload` is its third column.
pub const EVENT: TableId = TableId(0);
const PAYLOAD: ColumnId = ColumnId(2);
/// Plaintext bytes an update writes: one 8-byte integer.
const PAYLOAD_BYTES: u64 = 8;
/// One mutation in this many is leak-checked.
const LEAK_SAMPLE: usize = 64;
/// `durable-cycle` unplugs the key after this many operations.
pub const UNPLUG_EVERY: usize = 2_000;

/// One operation of a mutating workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Dml(ScaleOp),
    /// Drop the handle and mount the database from the NAND alone.
    Unplug,
}

fn mix(workload: Workload) -> ScaleMix {
    match workload {
        Workload::DurableCycle => ScaleMix {
            reads: 0,
            inserts: 60,
            updates: 30,
            deletes: 10,
        },
        _ => ScaleMix::balanced(),
    }
}

/// The op list of `workload` for `params` (on `snap-readers`, the
/// writer's).
pub fn ops(workload: Workload, params: &Params) -> Vec<Op> {
    let cfg = scale_config(workload, params);
    let mut stream = OpStream::new(&cfg, mix(workload), params.derive(5));
    let n = params.ops(workload);
    let unplug_every = if params.smoke {
        UNPLUG_EVERY / 10
    } else {
        UNPLUG_EVERY
    };
    (1..=n)
        .map(|i| {
            if workload == Workload::DurableCycle && i.is_multiple_of(unplug_every) {
                Op::Unplug
            } else {
                Op::Dml(stream.next_op())
            }
        })
        .collect()
}

#[cfg(test)]
pub fn op_list(workload: Workload, params: &Params) -> Vec<String> {
    ops(workload, params)
        .iter()
        .map(|op| format!("{op:?}"))
        .collect()
}

/// The harness-side model of the `Event` table: each live row's
/// payload by dense logical id (deletes are `Vec::remove`, exactly the
/// engine's renumbering contract) and how many live rows carry each
/// payload — the expected answer of every point query.
#[derive(Debug, Clone)]
pub struct Model {
    cfg: ScaleConfig,
    payloads: Vec<u32>,
    counts: Vec<u32>,
}

impl Model {
    pub fn new(cfg: &ScaleConfig) -> Model {
        let mut m = Model {
            cfg: cfg.clone(),
            payloads: Vec::with_capacity(cfg.rows + cfg.rows / 8),
            counts: vec![0; cfg.payload_cardinality.max(1)],
        };
        for id in 0..cfg.rows as i64 {
            m.push(generated_payload(cfg, id));
        }
        m
    }

    fn push(&mut self, payload: u32) {
        self.payloads.push(payload);
        self.counts[payload as usize] += 1;
    }

    pub fn rows(&self) -> usize {
        self.payloads.len()
    }

    /// Live rows whose payload is `key`.
    pub fn count(&self, key: i64) -> u32 {
        self.counts[key as usize]
    }

    pub fn counts(&self) -> &[u32] {
        &self.counts
    }

    /// Payload of logical row `row`.
    pub fn payload(&self, row: u32) -> u32 {
        self.payloads[row as usize]
    }

    fn update(&mut self, row: u32, value: i64) {
        let old = std::mem::replace(&mut self.payloads[row as usize], value as u32);
        self.counts[old as usize] -= 1;
        self.counts[value as usize] += 1;
    }

    fn delete(&mut self, row: u32) {
        let old = self.payloads.remove(row as usize);
        self.counts[old as usize] -= 1;
    }
}

/// `scale_row`'s payload for generated or appended row `id`.
fn generated_payload(cfg: &ScaleConfig, id: i64) -> u32 {
    let card = cfg.payload_cardinality.max(1) as i64;
    let span = (cfg.rows as i64 / card).max(1);
    ((id / span) % card) as u32
}

/// What the write path did so far, kept beside the [`Meter`].
#[derive(Debug, Default)]
pub struct WriteLog {
    /// `delta_rows()` after the previous mutation.
    last_delta_rows: u64,
    /// Mutations applied since the last flush (what a mount replays).
    pub since_flush: u64,
}

/// Apply one DML op through the engine, time it, mirror it in the
/// model and check reads against it. `slot` spreads the traced-pass
/// stage sample.
pub fn apply(
    db: &mut GhostDb,
    clock: &SimClock,
    meter: &mut Meter,
    model: &mut Model,
    log: &mut WriteLog,
    op: ScaleOp,
    slot: usize,
) {
    let leak_checked = slot.is_multiple_of(LEAK_SAMPLE);
    let sealed_before = db.sealed_epoch();
    let (flushed, inserted) = match op {
        ScaleOp::Read(key) => {
            let sql = scale_point_query(key);
            if let Some(out) = select_op(db, clock, meter, &sql, slot) {
                let want = model.count(key) as usize;
                if out.rows.len() != want {
                    let got = out.rows.len();
                    meter.fail(|| format!("payload {key}: {got} rows, model has {want}"));
                }
            }
            db.clear_trace();
            return;
        }
        ScaleOp::Insert => {
            let id = model.rows() as i64;
            let row = scale_row(&model.cfg, id);
            let tag = row[3].clone();
            let res = meter.op(OpKind::Insert, clock, |_| db.insert_rows(EVENT, vec![row]));
            match res {
                Ok(report) => {
                    model.push(generated_payload(&model.cfg, id));
                    meter.end.user_bytes_written += EVENT_ROW_BYTES;
                    if leak_checked {
                        check_no_leak(db, meter, &tag);
                    }
                    (report.flushed, 1)
                }
                Err(e) => {
                    meter.fail(|| format!("INSERT of row {id} failed: {e}"));
                    (false, 0)
                }
            }
        }
        ScaleOp::Update(row, value) => {
            let res = meter.op(OpKind::Update, clock, |_| {
                db.update_rows(EVENT, vec![RowId(row)], vec![(PAYLOAD, Value::Int(value))])
            });
            match res {
                Ok(report) => {
                    model.update(row, value);
                    meter.end.user_bytes_written += PAYLOAD_BYTES;
                    (report.flushed, 0)
                }
                Err(e) => {
                    meter.fail(|| format!("UPDATE of row {row} failed: {e}"));
                    (false, 0)
                }
            }
        }
        ScaleOp::Delete(row) => {
            let res = meter.op(OpKind::Delete, clock, |_| {
                db.delete_rows(EVENT, vec![RowId(row)])
            });
            match res {
                Ok(report) => {
                    model.delete(row);
                    (report.flushed, 0)
                }
                Err(e) => {
                    meter.fail(|| format!("DELETE of row {row} failed: {e}"));
                    (false, 0)
                }
            }
        }
    };
    db.clear_trace();
    // The engine resets the budget's high-water mark at every SELECT,
    // so the phase's peak is the running maximum over operations.
    meter.end.ram_peak_bytes = meter.end.ram_peak_bytes.max(db.ram().peak());
    log.since_flush += 1;
    // A full WAL makes the engine flush and re-seal *before* it logs
    // the statement, and the statement's report does not say so; the
    // sealed epoch does.
    let wal_filled = !flushed && db.sealed_epoch() != sealed_before;
    if flushed {
        meter.mark_flushed();
        meter.end.rows_merged += log.last_delta_rows + inserted;
        log.since_flush = 0;
    } else if wal_filled {
        meter.mark_flushed();
        meter.end.rows_merged += log.last_delta_rows;
        log.since_flush = 1;
    }
    log.last_delta_rows = db.delta_rows();
    meter.end.delta_rows_max = meter.end.delta_rows_max.max(log.last_delta_rows);
}

/// The keys the op list reads, in order, for the post-phase probes.
pub fn read_keys(ops: &[Op]) -> Vec<i64> {
    ops.iter()
        .filter_map(|op| match op {
            Op::Dml(ScaleOp::Read(key)) => Some(*key),
            _ => None,
        })
        .collect()
}

pub fn run_churn(params: &Params) -> Result<Outcome> {
    let workload = Workload::Churn;
    let cfg = scale_config(workload, params);
    let ops = ops(workload, params);
    let base_model = Model::new(&cfg);
    let offset = params.derive(4) as usize;
    let setup = || {
        let data = generate_scale(&cfg)?;
        GhostDb::create(SCALE_DDL, params.device_config(), &data)
    };
    let phase = |mut db: GhostDb, meter: &mut Meter| {
        let clock = db.clock().clone();
        let mut model = base_model.clone();
        let mut log = WriteLog::default();
        db.set_tracing(meter.traced);
        db.clear_trace();
        db.ram().reset_peak();
        meter.resume(&db);
        for (i, op) in ops.iter().enumerate() {
            if let Op::Dml(op) = op {
                apply(
                    &mut db,
                    &clock,
                    meter,
                    &mut model,
                    &mut log,
                    *op,
                    i + offset,
                );
            }
        }
        meter.pause(&db);
        read_phase_end(&db, meter, model.rows() as u64 * EVENT_ROW_BYTES);
        if meter.traced {
            let reads = read_keys(&ops);
            probe_plans(&db, meter, reads.len(), |i| scale_point_query(reads[i]))?;
        }
        Ok(())
    };
    drive(workload, params, setup, phase)
}
