//! Metrics derived from the passes a workload ran: the end-to-end set
//! from the untraced pass, the per-layer set from the traced one, both
//! in the order `spec` declares them.

use crate::measure::{median, quantile, rss_peak_mb, Meter, OpKind, OpSample};
use crate::spec::{op_metric_name, Workload, END_TO_END, OPERATORS, PER_LAYER, UNGATED_END_TO_END};
use crate::workloads::Outcome;

/// A metric's value under its declared name.
pub type Values = Vec<(String, f64)>;

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn of_kind(ops: &[OpSample], keep: impl Fn(&OpSample) -> bool) -> Vec<&OpSample> {
    ops.iter().filter(|o| keep(o)).collect()
}

fn sim_median(ops: &[&OpSample], unit_ns: f64) -> f64 {
    median(ops.iter().map(|o| o.sim_ns as f64 / unit_ns).collect())
}

/// The gated end-to-end metrics: the median, metric by metric, over
/// the untraced phases of the run (one, except on `snap-readers`).
pub fn end_to_end(outcome: &Outcome) -> Values {
    let phases: Vec<Values> = outcome
        .untraced
        .iter()
        .map(|m| end_to_end_of(outcome, m))
        .collect();
    (0..END_TO_END.len())
        .map(|i| {
            let name = phases[0][i].0.clone();
            (name, median(phases.iter().map(|p| p[i].1).collect()))
        })
        .collect()
}

fn end_to_end_of(outcome: &Outcome, m: &Meter) -> Values {
    let n = m.ops.len() as f64;
    let mut host: Vec<f64> = m.ops.iter().map(|o| o.host_ns as f64 / 1e3).collect();
    let host_ops_per_s = if outcome.workload == Workload::SnapReaders {
        median(m.extras("reader_interval_ops_per_s"))
    } else {
        ratio(n, m.host_seconds())
    };
    let values = vec![
        ("setup_s".into(), median(outcome.setup_s.clone())),
        ("sim_ops_per_s".into(), ratio(n, m.sim_ns() as f64 / 1e9)),
        ("host_us_p50".into(), quantile(&mut host, 0.5)),
        ("host_ops_per_s".into(), host_ops_per_s),
        (
            "flash_bytes_per_user_byte".into(),
            ratio(m.end.live_flash_bytes as f64, m.end.user_bytes_live as f64),
        ),
        ("ram_peak_kb".into(), m.end.ram_peak_bytes as f64 / 1024.0),
        ("host_rss_mb_peak".into(), rss_peak_mb()),
    ];
    in_declared_order(END_TO_END.iter().map(|d| d.name), values)
}

/// The ungated end-to-end metrics, from the same untraced pass.
/// Per-operation simulated latency is undefined on `snap-readers`
/// (shared clock) and reads 0 there.
pub fn ungated_end_to_end(outcome: &Outcome) -> Values {
    let m = outcome.last_untraced();
    let mut sim: Vec<f64> = if outcome.workload == Workload::SnapReaders {
        Vec::new()
    } else {
        m.ops.iter().map(|o| o.sim_ns as f64 / 1e6).collect()
    };
    let values = vec![
        ("sim_ms_p50".into(), quantile(&mut sim, 0.5)),
        ("sim_ms_p99".into(), quantile(&mut sim, 0.99)),
        ("sim_ms_max".into(), quantile(&mut sim, 1.0)),
        (
            "nand_mb_programmed".into(),
            m.counters.flash.bytes_programmed as f64 / 1e6,
        ),
    ];
    in_declared_order(UNGATED_END_TO_END.iter().map(|d| d.name), values)
}

/// The per-layer metrics of a traced pass; `obs.*` also needs the
/// untraced pass of the same invocation.
pub fn per_layer(outcome: &Outcome) -> Option<Values> {
    let t = outcome.traced.as_ref()?;
    let u = outcome.last_untraced();
    let c = &t.counters;
    let s = &t.selects;
    let n = t.ops.len() as f64;
    let span_us = |name: &str| median(t.span_durations(name)) / 1e3;
    let extra = |name: &str| median(t.extras(name));

    let selects = of_kind(&t.ops, |o| o.kind == OpKind::Select);
    let inserts = of_kind(&t.ops, |o| o.kind == OpKind::Insert && !o.flushed);
    let updates = of_kind(&t.ops, |o| o.kind == OpKind::Update && !o.flushed);
    let deletes = of_kind(&t.ops, |o| o.kind == OpKind::Delete && !o.flushed);
    let flushes = of_kind(&t.ops, |o| o.flushed);
    let mounts = of_kind(&t.ops, |o| o.kind == OpKind::Mount);
    let flush_host_ms = median(flushes.iter().map(|o| o.host_ns as f64 / 1e6).collect());
    let mount_host_s: f64 = mounts.iter().map(|o| o.host_ns as f64 / 1e9).sum();
    let durable = c.wal_appends > 0;

    let mut v: Values = vec![
        ("sql.parse_host_us_p50".into(), span_us("sql.parse")),
        ("sql.bind_host_us_p50".into(), span_us("sql.bind")),
        ("exec.plan_host_us_p50".into(), span_us("exec.plan")),
        (
            "exec.plans_enumerated_p50".into(),
            extra("exec.plans_enumerated"),
        ),
        ("exec.execute_host_us_p50".into(), span_us("exec.execute")),
    ];
    for op in OPERATORS {
        v.push((op_metric_name(op), s.op_sim_ns(op) as f64 / 1e6));
    }
    let index_ns = s.op_sim_ns("climbing-index") + s.op_sim_ns("access-skt");
    v.extend([
        (
            "exec.rows_in_per_result_row".into(),
            ratio(s.tuples_in as f64, s.result_rows as f64),
        ),
        ("exec.plan_regret_p50".into(), extra("exec.plan_regret")),
        (
            "index.sim_ms_share".into(),
            ratio(index_ns as f64, s.total_ns as f64),
        ),
        (
            "index.pages_per_lookup".into(),
            ratio(s.lookup_pages as f64, s.lookups as f64),
        ),
        ("bloom.probes".into(), s.bloom_probes as f64),
        (
            "bloom.false_positive_ratio".into(),
            if s.bloom_hits > 0 {
                1.0 - s.bloom_confirmed as f64 / s.bloom_hits as f64
            } else {
                0.0
            },
        ),
        ("storage.delta_rows_max".into(), t.end.delta_rows_max as f64),
        ("storage.rows_merged".into(), t.end.rows_merged as f64),
        (
            "catalog.rows_estimate_error_p50".into(),
            extra("catalog.rows_estimate_error"),
        ),
        ("flash.page_reads".into(), c.flash.page_reads as f64),
        ("flash.mb_read".into(), c.flash.bytes_read as f64 / 1e6),
        ("flash.page_programs".into(), c.flash.page_programs as f64),
        (
            "flash.mb_programmed".into(),
            c.flash.bytes_programmed as f64 / 1e6,
        ),
        ("flash.block_erases".into(), c.flash.block_erases as f64),
        (
            "flash.cache_hit_rate".into(),
            ratio(c.cache_hits as f64, (c.cache_hits + c.cache_misses) as f64),
        ),
        ("flash.cache_evictions".into(), c.cache_evictions as f64),
        ("flash.gc_passes".into(), c.gc_passes as f64),
        ("flash.gc_pages_migrated".into(), c.gc_pages_migrated as f64),
        (
            "flash.gc_pause_sim_ms_sum".into(),
            c.gc_pause_ns as f64 / 1e6,
        ),
        (
            "flash.write_amp".into(),
            ratio(
                c.flash.bytes_programmed as f64,
                t.end.user_bytes_written as f64,
            ),
        ),
        ("flash.wear_spread".into(), t.end.wear_spread as f64),
        ("flash.ecc_corrected".into(), c.ecc_corrected as f64),
        ("flash.page_faults".into(), c.page_faults as f64),
        ("bus.frames_per_op".into(), ratio(c.spy_frames as f64, n)),
        ("bus.spy_bytes_per_op".into(), ratio(c.spy_bytes as f64, n)),
        ("bus.bytes_to_device".into(), s.bus_bytes_to_device as f64),
        ("bus.bytes_to_pc".into(), s.bus_bytes_to_pc as f64),
        ("ram.op_peak_bytes_max".into(), s.op_ram_peak_max as f64),
        (
            "ram.cache_charged_bytes".into(),
            t.end.cache_charged_bytes as f64,
        ),
        ("persist.wal_appends".into(), c.wal_appends as f64),
        ("persist.seal_count".into(), t.end.seal_count as f64),
        ("persist.image_bytes".into(), t.end.image_bytes as f64),
        (
            "persist.reseal_sim_ms_p50".into(),
            if durable {
                sim_median(&flushes, 1e6)
            } else {
                0.0
            },
        ),
        ("persist.mount_sim_ms_p50".into(), sim_median(&mounts, 1e6)),
        (
            "persist.mount_host_ms_p50".into(),
            median(mounts.iter().map(|o| o.host_ns as f64 / 1e6).collect()),
        ),
        (
            "persist.replay_rows_per_host_s".into(),
            ratio(t.end.replay_rows as f64, mount_host_s),
        ),
        ("core.select_sim_ms_p50".into(), sim_median(&selects, 1e6)),
        ("core.insert_sim_us_p50".into(), sim_median(&inserts, 1e3)),
        ("core.update_sim_us_p50".into(), sim_median(&updates, 1e3)),
        ("core.delete_sim_us_p50".into(), sim_median(&deletes, 1e3)),
        ("core.flush_count".into(), flushes.len() as f64),
        ("core.flush_sim_ms_p50".into(), sim_median(&flushes, 1e6)),
        ("core.flush_host_ms_p50".into(), flush_host_ms),
        (
            "core.snapshot_host_us_p50".into(),
            extra("core.snapshot_host_us"),
        ),
        (
            "core.snapshot_drop_host_us_p50".into(),
            extra("core.snapshot_drop_host_us"),
        ),
        (
            "core.writer_host_ops_per_s".into(),
            ratio(t.end.writer_ops as f64, t.end.wall_s),
        ),
        (
            "core.reader_host_ms_p99".into(),
            quantile(&mut t.extras("core.reader_host_ms"), 0.99),
        ),
        (
            "core.reader_host_ms_max".into(),
            quantile(&mut t.extras("core.reader_host_ms"), 1.0),
        ),
        (
            "core.pins_deferred_max".into(),
            t.end.pins_deferred_max as f64,
        ),
    ]);
    let (overhead, sim_ratio) = trace_ratios(outcome.workload, u, t);
    v.push(("obs.trace_overhead_ratio".into(), overhead));
    v.push(("obs.trace_sim_ratio".into(), sim_ratio));
    Some(in_declared_order(PER_LAYER.iter().map(|d| d.name), v))
}

/// Traced ÷ untraced, on host time inside engine calls and on
/// simulated time. On `snap-readers` the reader's query count differs
/// between passes, so both are taken per operation.
pub fn trace_ratios(workload: Workload, untraced: &Meter, traced: &Meter) -> (f64, f64) {
    if workload == Workload::SnapReaders {
        let per_op = |m: &Meter, total: f64| ratio(total, m.ops.len() as f64);
        return (
            ratio(
                per_op(traced, traced.host_seconds()),
                per_op(untraced, untraced.host_seconds()),
            ),
            ratio(
                per_op(traced, traced.sim_ns() as f64),
                per_op(untraced, untraced.sim_ns() as f64),
            ),
        );
    }
    (
        ratio(traced.host_seconds(), untraced.host_seconds()),
        ratio(traced.sim_ns() as f64, untraced.sim_ns() as f64),
    )
}

/// Reorder `values` to the declared order; a declared name that was
/// not computed (or a computed one that is not declared) is a bug.
fn in_declared_order<'a>(declared: impl Iterator<Item = &'a str>, mut values: Values) -> Values {
    let ordered: Values = declared
        .map(|name| {
            let at = values
                .iter()
                .position(|(k, _)| k == name)
                .unwrap_or_else(|| panic!("declared metric {name} was not computed"));
            let (k, v) = values.swap_remove(at);
            (k, if v.is_finite() { v } else { 0.0 })
        })
        .collect();
    assert!(
        values.is_empty(),
        "computed but undeclared metrics: {values:?}"
    );
    ordered
}
