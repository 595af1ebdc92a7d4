//! The six workloads and the driver they share: set the database up
//! (timed, several times), run the seed-generated op list through a
//! [`Meter`] once untraced and — when asked — once traced on a fresh
//! database, and hand both passes back.

mod durable;
mod med_select;
mod mutate;
mod point;
mod snap;

use std::time::Instant;

use ghostdb_core::{GhostDb, QueryOutcome};
use ghostdb_sql::parse_statements;
use ghostdb_types::{DeviceConfig, GhostError, Result, SimClock, Value};

use crate::measure::{Meter, OpKind};
use crate::spec::{Workload, RUN_SECONDS, SETUP_REPEATS, SMOKE_DIVISOR};

/// What one invocation asks of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub seed: u64,
    /// Nominal seconds of the timed phase; scales the op count.
    pub seconds: u32,
    pub smoke: bool,
    /// Also run the traced pass (per-layer metrics) on a fresh
    /// database; the untraced pass (end-to-end metrics) always runs.
    pub traced: bool,
    /// How many times the untraced pass sets the database up.
    pub setup_repeats: usize,
}

impl Params {
    pub fn new(seed: u64) -> Params {
        Params {
            seed,
            seconds: RUN_SECONDS,
            smoke: false,
            traced: false,
            setup_repeats: SETUP_REPEATS,
        }
    }

    /// Root-table rows for `w` at this scale.
    pub fn rows(&self, w: Workload) -> usize {
        if self.smoke {
            w.rows() / SMOKE_DIVISOR
        } else {
            w.rows()
        }
    }

    /// Operations in `w`'s timed phase at this scale.
    pub fn ops(&self, w: Workload) -> usize {
        let full = w.ops_per_nominal_second() * self.seconds as usize;
        if self.smoke {
            full / SMOKE_DIVISOR
        } else {
            full
        }
    }

    /// The paper's device: 64 KB RAM, 2007 NAND with a 16-page cache,
    /// full-speed USB, auto-flush at 4096 pending mutations — the
    /// engine's own policy, the same on both sides of any comparison.
    /// Under `--smoke` the flush threshold shrinks with the op counts,
    /// so the flush and re-seal paths still run.
    pub fn device_config(&self) -> DeviceConfig {
        let config = DeviceConfig::default_2007();
        if self.smoke {
            let rows = config.delta_flush_rows / SMOKE_DIVISOR;
            config.with_delta_flush_rows(rows)
        } else {
            config
        }
    }

    /// A seed for one of the workload's generators, derived from
    /// `--seed` alone.
    pub fn derive(&self, stream: u64) -> u64 {
        let mut z = self
            .seed
            .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// The passes a workload ran.
#[derive(Debug)]
pub struct Outcome {
    pub workload: Workload,
    /// Host seconds of each set-up of the untraced pass.
    pub setup_s: Vec<f64>,
    /// The untraced phases, at least one. `snap-readers` runs one on
    /// every set-up (see [`drive`]); end-to-end metrics are medians
    /// over them.
    pub untraced: Vec<Meter>,
    pub traced: Option<Meter>,
}

impl Outcome {
    /// The untraced phase the traced pass and the ungated metrics are
    /// read against.
    pub fn last_untraced(&self) -> &Meter {
        self.untraced.last().expect("at least one untraced phase")
    }
}

/// Run one workload as `params` asks.
pub fn run(workload: Workload, params: &Params) -> Result<Outcome> {
    match workload {
        Workload::MedSelect => med_select::run(params),
        Workload::PointHot | Workload::PointCold => point::run(workload, params),
        Workload::Churn => mutate::run_churn(params),
        Workload::DurableCycle => durable::run(params),
        Workload::SnapReaders => snap::run(params),
    }
}

/// The op list a workload would run for `params`, rendered one op per
/// line — what the determinism self-tests compare.
#[cfg(test)]
pub fn op_list(workload: Workload, params: &Params) -> Vec<String> {
    match workload {
        Workload::MedSelect => med_select::op_list(params),
        Workload::PointHot | Workload::PointCold => point::op_list(workload, params),
        Workload::Churn | Workload::SnapReaders | Workload::DurableCycle => {
            mutate::op_list(workload, params)
        }
    }
}

/// The shared driver. `setup` builds a fresh database from the seed
/// (everything it does is `setup_s`); `phase` runs the op list on it.
fn drive<S>(
    workload: Workload,
    params: &Params,
    setup: impl Fn() -> Result<S>,
    phase: impl Fn(S, &mut Meter) -> Result<()>,
) -> Result<Outcome> {
    // Two busy threads on two cores make `snap-readers` the one noisy
    // workload (its reader rate moves 9 % run to run); it runs its
    // phase on every set-up database, not only the last, and reports
    // the median.
    let every_setup = workload == Workload::SnapReaders;
    let repeats = params.setup_repeats.max(1);
    let mut setup_s = Vec::new();
    let mut untraced = Vec::new();
    for i in 0..repeats {
        // One part at a time: a 1 GiB simulated NAND per instance.
        let t = Instant::now();
        let state = setup()?;
        setup_s.push(t.elapsed().as_secs_f64());
        if every_setup || i + 1 == repeats {
            let mut meter = Meter::new(false);
            phase(state, &mut meter)?;
            untraced.push(meter);
        }
    }
    let traced = if params.traced {
        let mut meter = Meter::new(true);
        phase(setup()?, &mut meter)?;
        Some(meter)
    } else {
        None
    };
    Ok(Outcome {
        workload,
        setup_s,
        untraced,
        traced,
    })
}

/// In a traced pass one SELECT in this many runs stage by stage under
/// the harness's own child spans, and the next one is read back from
/// the engine's flight recorder as a cross-check.
const STAGE_SAMPLE: usize = 16;

/// Run one SELECT as an operation of the phase and fold its report.
/// `slot` is the statement's position plus a seeded offset. An engine
/// error is a failed op; the caller checks the answer.
fn select_op(
    db: &GhostDb,
    clock: &SimClock,
    meter: &mut Meter,
    sql: &str,
    slot: usize,
) -> Option<QueryOutcome> {
    let staged = meter.traced && slot.is_multiple_of(STAGE_SAMPLE);
    let mut enumerated = 0;
    // Pages this lookup touches = NAND reads (in its report) + cache
    // hits (a volume counter, read around the call in traced passes).
    let hits_before = meter.traced.then(|| db.volume().page_cache_stats().hits);
    let result = meter.op(OpKind::Select, clock, |m| {
        if !staged {
            return db.query(sql);
        }
        // The same work `query` does, one public call per stage. Each
        // later stage repeats the earlier ones inside the engine, so
        // stage spans are inclusive of that repetition; only `run`
        // advances the simulated clock.
        m.stage("sql.parse", || parse_statements(sql))?;
        let spec = m.stage("sql.bind", || db.bind(sql))?;
        let plans = m.stage("exec.plan", || db.plans(sql))?;
        enumerated = plans.len();
        let best = plans
            .into_iter()
            .next()
            .ok_or_else(|| GhostError::exec("optimizer enumerated no plan"))?;
        m.stage("exec.execute", || db.run(&spec, &best.plan))
    });
    if staged {
        meter
            .extra
            .push(("exec.plans_enumerated", enumerated as f64));
    } else if meter.traced && slot % STAGE_SAMPLE == 1 {
        if let Some(trace) = db.last_trace() {
            for (stage, name) in [("parse", "engine.parse_ns"), ("bind", "engine.bind_ns")] {
                if let Some(span) = trace.find(stage) {
                    meter.extra.push((name, span.duration_ns() as f64));
                }
            }
        }
    }
    match result {
        Ok(out) => {
            meter.selects.fold(&out.report);
            if let Some(before) = hits_before {
                let hits = db.volume().page_cache_stats().hits - before;
                meter.selects.lookups += 1;
                meter.selects.lookup_pages += out.report.flash.page_reads + hits;
            }
            Some(out)
        }
        Err(e) => {
            meter.fail(|| format!("SELECT failed: {e} [{sql}]"));
            None
        }
    }
}

/// The leak check: a hidden value must never have crossed the spied
/// link. Runs before the per-op `clear_trace`, on the frames of the
/// operation just finished.
fn check_no_leak(db: &GhostDb, meter: &mut Meter, hidden: &Value) {
    if db.spy_sees_value(hidden) {
        meter.fail(|| "a hidden value crossed the bus".to_string());
    }
}

/// One step of a 64-bit LCG (Knuth's MMIX constants), for the
/// harness's own uniform draws and shuffles; returns 31 usable bits.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// Statements the post-phase probes run.
const PROBES: usize = 10;

/// After a traced phase, outside every counter: run [`PROBES`] of the
/// workload's `candidates` SELECTs, evenly spaced, under every
/// enumerated plan (plan regret = chosen plan's simulated time ÷ the
/// best plan's) and compare the optimizer's row estimate at the plan
/// root with the actual count.
fn probe_plans(
    db: &GhostDb,
    meter: &mut Meter,
    candidates: usize,
    sql_of: impl Fn(usize) -> String,
) -> Result<()> {
    let stride = (candidates / PROBES).max(1);
    for sql in (0..candidates).step_by(stride).take(PROBES).map(sql_of) {
        let sql = sql.as_str();
        let spec = db.bind(sql)?;
        let plans = db.plans(sql)?;
        let mut chosen = 0u64;
        let mut best = u64::MAX;
        for (i, cp) in plans.iter().enumerate() {
            let ns = db.run(&spec, &cp.plan)?.report.total_ns;
            if i == 0 {
                chosen = ns;
            }
            best = best.min(ns);
            db.clear_trace();
        }
        if best > 0 && best != u64::MAX {
            meter
                .extra
                .push(("exec.plan_regret", chosen as f64 / best as f64));
        }
        if let Some(cp) = plans.first() {
            let (root, _) = db.analyze_with_plan(&spec, &cp.plan)?;
            db.clear_trace();
            if let (Some(est), Some(actual)) = (root.est_rows, root.actual.as_ref()) {
                let (est, actual) = (est.max(1.0), (actual.rows as f64).max(1.0));
                meter.extra.push((
                    "catalog.rows_estimate_error",
                    est.max(actual) / est.min(actual),
                ));
            }
        }
    }
    Ok(())
}

/// End-of-phase facts every single-handle workload reads the same way.
fn read_phase_end(db: &GhostDb, meter: &mut Meter, user_bytes_live: u64) {
    let page = db.config().flash.page_size as u64;
    meter.end.live_flash_bytes = db.volume().usage().live_pages * page;
    meter.end.user_bytes_live = user_bytes_live;
    meter.end.ram_peak_bytes = meter
        .end
        .ram_peak_bytes
        .max(db.ram().peak())
        .max(meter.selects.report_ram_peak_max);
    meter.end.cache_charged_bytes = db.volume().page_cache_stats().charged_bytes;
    let (lo, hi) = db.nand().wear_spread();
    meter.end.wear_spread = hi - lo;
}
