//! `snap-readers`: two threads. The writer runs the `churn` op stream
//! and every [`SNAP_EVERY`] operations captures a snapshot and ships it
//! over a channel; the reader runs zipfian point queries on the newest
//! snapshot (dropping the one before) until the writer finishes.
//! Readers must never block on flush or GC, and capture and drop — the
//! costs ROADMAP item 2 wants O(1) — are timed on their own.
//!
//! The reader's throughput is the median, over the intervals between
//! two snapshot arrivals, of its queries per wall second. Queries ÷
//! wall seconds over the whole phase is three-quarters flush window,
//! and a flush racing a reader for the volume lock on two cores varies
//! by 8 % run to run; the interval median holds 5 %. What the reader
//! sees inside a flush window is `core.reader_host_ms_p99` / `_max`.
//!
//! Snapshots share the writer's `SimClock`, so a per-statement
//! simulated-time delta on either thread absorbs the other thread's
//! charges: per-operation `sim_*` numbers mean nothing here. Only the
//! clock's total advance over the phase (device busy time) is used.

use std::sync::mpsc::{self, Receiver, TryRecvError};
use std::sync::Arc;
use std::time::Instant;

use ghostdb_core::{GhostDb, Snapshot};
use ghostdb_types::{GhostError, Result};
use ghostdb_workload::{generate_scale, scale_point_query, ScaleConfig, Zipfian, SCALE_DDL};

use super::mutate::{apply, ops, read_keys, Model, Op, WriteLog};
use super::point::{scale_config, EVENT_ROW_BYTES};
use super::{drive, probe_plans, read_phase_end, Outcome, Params};
use crate::measure::{Meter, OpKind, OpSample, SelectTotals};
use crate::spec::Workload;

/// The writer captures a snapshot after this many operations.
const SNAP_EVERY: usize = 500;

/// A snapshot and the model's answer table as of its epoch.
type Shipment = (Snapshot, Arc<Vec<u32>>);

/// What the reader thread brings back.
#[derive(Default)]
struct ReaderLog {
    ops: Vec<OpSample>,
    selects: SelectTotals,
    drop_host_us: Vec<f64>,
    /// Queries per wall second between consecutive snapshot arrivals.
    interval_ops_per_s: Vec<f64>,
    failures: Vec<String>,
    failed: u64,
}

impl ReaderLog {
    fn timed_drop(&mut self, old: Shipment) {
        let t = Instant::now();
        drop(old.0);
        self.drop_host_us.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
}

/// Query the newest snapshot until the channel closes. Every answer
/// is checked against the counts shipped with the snapshot.
fn reader_loop(rx: Receiver<Shipment>, cfg: &ScaleConfig, seed: u64) -> ReaderLog {
    let mut log = ReaderLog::default();
    let mut keys = Zipfian::new(cfg.payload_cardinality as u64, cfg.theta, seed);
    let Ok(mut current) = rx.recv() else {
        return log;
    };
    let mut interval = (Instant::now(), 0);
    loop {
        match rx.try_recv() {
            Ok(next) => {
                let done = log.ops.len() - interval.1;
                log.interval_ops_per_s
                    .push(done as f64 / interval.0.elapsed().as_secs_f64());
                interval = (Instant::now(), log.ops.len());
                let old = std::mem::replace(&mut current, next);
                log.timed_drop(old);
                continue;
            }
            Err(TryRecvError::Disconnected) => break,
            Err(TryRecvError::Empty) => {}
        }
        let key = keys.next() as i64;
        let sql = scale_point_query(key);
        let t = Instant::now();
        let result = current.0.query(&sql);
        let host_ns = t.elapsed().as_nanos() as u64;
        match result {
            Ok(out) => {
                log.selects.fold(&out.report);
                log.ops.push(OpSample {
                    kind: OpKind::Select,
                    host_ns,
                    sim_ns: 0,
                    flushed: false,
                });
                let want = current.1[key as usize] as usize;
                if out.rows.len() != want {
                    log.failed += 1;
                    if log.failures.len() < 4 {
                        log.failures.push(format!(
                            "snapshot epoch {}: payload {key} gave {} rows, model had {want}",
                            current.0.epoch(),
                            out.rows.len()
                        ));
                    }
                }
            }
            Err(e) => {
                log.failed += 1;
                if log.failures.len() < 4 {
                    log.failures.push(format!("snapshot read failed: {e}"));
                }
            }
        }
    }
    log.timed_drop(current);
    log
}

pub fn run(params: &Params) -> Result<Outcome> {
    let workload = Workload::SnapReaders;
    let cfg = scale_config(workload, params);
    let ops = ops(workload, params);
    let base_model = Model::new(&cfg);
    let offset = params.derive(4) as usize;
    let reader_seed = params.derive(8);
    let snap_every = if params.smoke {
        SNAP_EVERY / 10
    } else {
        SNAP_EVERY
    };
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
        let sim0 = clock.now();
        let wall = Instant::now();
        let (tx, rx) = mpsc::channel::<Shipment>();
        let reader = std::thread::scope(|scope| -> Result<ReaderLog> {
            let reader = scope.spawn(|| reader_loop(rx, &cfg, reader_seed));
            let ship = |db: &GhostDb, meter: &mut Meter, model: &Model| -> Result<()> {
                let span = meter.open("core.snapshot");
                let t = Instant::now();
                let snap = db.snapshot()?;
                let us = t.elapsed().as_nanos() as f64 / 1e3;
                meter.close(span);
                meter.extra.push(("core.snapshot_host_us", us));
                let deferred = db.volume().pin_stats().snapshot_deferred;
                meter.end.pins_deferred_max = meter.end.pins_deferred_max.max(deferred);
                // A closed channel means the reader died; its panic
                // surfaces at join.
                let _ = tx.send((snap, Arc::new(model.counts().to_vec())));
                Ok(())
            };
            let written = (|| -> Result<()> {
                ship(&db, meter, &model)?;
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
                    if (i + 1).is_multiple_of(snap_every) {
                        ship(&db, meter, &model)?;
                    }
                }
                Ok(())
            })();
            drop(tx);
            let reader = reader
                .join()
                .map_err(|_| GhostError::exec("the reader thread panicked"))?;
            written.map(|()| reader)
        })?;
        meter.end.wall_s = wall.elapsed().as_secs_f64();
        meter.end.clock_advance_ns = clock.now().since(sim0);
        meter.pause(&db);
        meter.end.writer_ops = meter.ops.len() as u64;
        for rate in &reader.interval_ops_per_s {
            meter.extra.push(("reader_interval_ops_per_s", *rate));
        }
        for ms in reader.ops.iter().map(|o| o.host_ns as f64 / 1e6) {
            meter.extra.push(("core.reader_host_ms", ms));
        }
        for us in &reader.drop_host_us {
            meter.extra.push(("core.snapshot_drop_host_us", *us));
        }
        meter.ops.extend(reader.ops);
        meter.selects.merge(&reader.selects);
        meter.failed += reader.failed;
        meter.failures.extend(reader.failures);
        read_phase_end(&db, meter, model.rows() as u64 * EVENT_ROW_BYTES);
        if db.open_snapshots() != 0 {
            meter.fail(|| "snapshots leaked past the phase".to_string());
        }
        if meter.traced {
            let reads = read_keys(&ops);
            probe_plans(&db, meter, reads.len(), |i| scale_point_query(reads[i]))?;
        }
        Ok(())
    };
    drive(workload, params, setup, phase)
}
