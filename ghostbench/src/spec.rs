//! What the benchmark declares: workloads, metric names, units,
//! directions and regression bounds. `BENCHMARK.json` at the repository
//! root is this module rendered by [`benchmark_json`]; a self-test
//! keeps the file and the code identical, so a name can only change in
//! one place.

/// Nominal length of one timed phase, seconds. Op counts are
/// `rate × seconds` with the per-workload rates in
/// [`Workload::ops_per_nominal_second`],
/// sized on the reference machine so a phase takes about this long;
/// they are never time-boxed, so simulated-time metrics compare
/// op-for-op between two commits.
pub const RUN_SECONDS: u32 = 8;

/// How many times a `--trace 0` run sets the database up; `setup_s`
/// is the median.
pub const SETUP_REPEATS: usize = 3;

/// `--smoke` divides every row count and op count by this.
pub const SMOKE_DIVISOR: usize = 50;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MedSelect,
    PointHot,
    PointCold,
    Churn,
    DurableCycle,
    SnapReaders,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::MedSelect,
        Workload::PointHot,
        Workload::PointCold,
        Workload::Churn,
        Workload::DurableCycle,
        Workload::SnapReaders,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MedSelect => "med-select",
            Workload::PointHot => "point-hot",
            Workload::PointCold => "point-cold",
            Workload::Churn => "churn",
            Workload::DurableCycle => "durable-cycle",
            Workload::SnapReaders => "snap-readers",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (one line, recorded in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::MedSelect => {
                "multi-join SPJ + GROUP BY + top-k on the paper's medical schema: exec, index and bus do the work, scans dwarf the page cache - the control for cache and write-path changes"
            }
            Workload::PointHot => {
                "bursty zipfian hidden point queries at 10^6 rows: the hot set fits the 16-page cache, so cache hits and the per-statement parse/bind/plan front-end dominate"
            }
            Workload::PointCold => {
                "uniform point queries on the same table: working set far beyond the cache, every lookup pays index descent from NAND + ECC; what helps point-hot must not cost here"
            }
            Workload::Churn => {
                "balanced read/insert/update/delete stream with auto-flush at 10^6 rows: delta merge, index flush, statistics rebuild and GC - the flush wall, with reads beside writes"
            }
            Workload::DurableCycle => {
                "WAL-logged single-row DML on a sealed part with periodic unplug + mount: the only workload where persist works, and the check that no acknowledged write is lost"
            }
            Workload::SnapReaders => {
                "a churning writer ships a fresh snapshot every 500 ops to a reader thread running zipfian point queries: readers must never block on flush or GC; capture and drop are timed"
            }
        }
    }

    /// Operations in the timed phase per nominal second, sized from
    /// probes on the 2-core reference machine. On `snap-readers` this
    /// is the writer's list; the reader runs until the writer ends.
    pub fn ops_per_nominal_second(self) -> usize {
        match self {
            Workload::MedSelect => 130,
            Workload::PointHot => 50_000,
            Workload::PointCold => 25_000,
            Workload::Churn => 4_500,
            Workload::DurableCycle => 3_000,
            Workload::SnapReaders => 2_500,
        }
    }

    /// How far the simulated time of two runs of one seed may differ,
    /// as a share: 0 on the read-only workloads (bit-identical); the
    /// fourth digit on the write path, where a flush walks `HashMap`s
    /// of indexes and a re-seal drains a `HashSet` of frees (README,
    /// Findings); `None` on `snap-readers`, whose two threads share one
    /// clock.
    pub fn sim_tolerance(self) -> Option<f64> {
        match self {
            Workload::MedSelect | Workload::PointHot | Workload::PointCold => Some(0.0),
            Workload::Churn | Workload::DurableCycle => Some(0.005),
            Workload::SnapReaders => None,
        }
    }

    /// Rows of the root table at full scale.
    pub fn rows(self) -> usize {
        match self {
            Workload::MedSelect => 250_000,
            Workload::DurableCycle => 100_000,
            _ => 1_000_000,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric. `bound` is the share of the parent's median by
/// which an end-to-end metric may get worse; per-layer metrics carry
/// none.
#[derive(Debug, Clone, Copy)]
pub struct MetricDecl {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics the benchmark driver gates on, printed by a
/// `--trace 0` run for every workload. The driver wants each one
/// defined and non-zero on every workload, and rejects a time that
/// reads the same on every seed; [`UNGATED_END_TO_END`] holds the
/// end-to-end metrics that cannot promise that. Bounds were fixed from
/// the measured spread over ten seeds per workload (README, "Measured
/// spread").
pub const END_TO_END: &[MetricDecl] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("sim_ops_per_s", "ops/s", Higher, 0.10),
    e2e("host_us_p50", "us", Lower, 0.10),
    e2e("host_ops_per_s", "ops/s", Higher, 0.25),
    e2e("flash_bytes_per_user_byte", "ratio", Lower, 0.02),
    e2e("ram_peak_kb", "KiB", Lower, 0.05),
    e2e("host_rss_mb_peak", "MB", Lower, 0.10),
];

/// End-to-end metrics measured on the untraced pass like the ones
/// above and printed beside them, but declared to the driver among the
/// unbounded metrics: simulated latencies are sums of a few fixed
/// device costs, so a percentile reads exactly the same on every seed
/// of the point workloads (and means nothing on `snap-readers`, where
/// two threads share the clock), and read-only workloads program no
/// flash at all. For a fixed seed they repeat exactly, so two commits
/// compare on them as counts.
pub const UNGATED_END_TO_END: &[MetricDecl] = &[
    layer("sim_ms_p50", "ms", Lower),
    layer("sim_ms_p99", "ms", Lower),
    layer("sim_ms_max", "ms", Lower),
    layer("nand_mb_programmed", "MB", Lower),
];

/// Operator names the executor reports in `OpStats.name`; `+` becomes
/// `-` in the metric name.
pub const OPERATORS: &[&str] = &[
    "climbing-index",
    "scan+translate",
    "delegate+translate",
    "cross-filter",
    "merge-intersect",
    "access-skt",
    "anchor-rows",
    "bloom-build",
    "bloom-probe",
    "hidden-verify",
    "fetch-column",
    "project",
    "aggregate",
    "top-k",
    "sort",
];

/// Per-layer metrics, printed by a `--trace 1` run for every workload
/// (0 where a layer does no work on that workload).
pub const PER_LAYER: &[MetricDecl] = &[
    layer("sql.parse_host_us_p50", "us", Lower),
    layer("sql.bind_host_us_p50", "us", Lower),
    layer("exec.plan_host_us_p50", "us", Lower),
    layer("exec.plans_enumerated_p50", "count", Lower),
    layer("exec.execute_host_us_p50", "us", Lower),
    layer("exec.op_sim_ms.climbing-index", "ms", Lower),
    layer("exec.op_sim_ms.scan-translate", "ms", Lower),
    layer("exec.op_sim_ms.delegate-translate", "ms", Lower),
    layer("exec.op_sim_ms.cross-filter", "ms", Lower),
    layer("exec.op_sim_ms.merge-intersect", "ms", Lower),
    layer("exec.op_sim_ms.access-skt", "ms", Lower),
    layer("exec.op_sim_ms.anchor-rows", "ms", Lower),
    layer("exec.op_sim_ms.bloom-build", "ms", Lower),
    layer("exec.op_sim_ms.bloom-probe", "ms", Lower),
    layer("exec.op_sim_ms.hidden-verify", "ms", Lower),
    layer("exec.op_sim_ms.fetch-column", "ms", Lower),
    layer("exec.op_sim_ms.project", "ms", Lower),
    layer("exec.op_sim_ms.aggregate", "ms", Lower),
    layer("exec.op_sim_ms.top-k", "ms", Lower),
    layer("exec.op_sim_ms.sort", "ms", Lower),
    layer("exec.rows_in_per_result_row", "ratio", Lower),
    layer("exec.plan_regret_p50", "ratio", Lower),
    layer("index.sim_ms_share", "ratio", Lower),
    layer("index.pages_per_lookup", "pages", Lower),
    layer("bloom.probes", "count", Lower),
    layer("bloom.false_positive_ratio", "ratio", Lower),
    layer("storage.delta_rows_max", "count", Lower),
    layer("storage.rows_merged", "count", Lower),
    layer("catalog.rows_estimate_error_p50", "ratio", Lower),
    layer("flash.page_reads", "count", Lower),
    layer("flash.mb_read", "MB", Lower),
    layer("flash.page_programs", "count", Lower),
    layer("flash.mb_programmed", "MB", Lower),
    layer("flash.block_erases", "count", Lower),
    layer("flash.cache_hit_rate", "ratio", Higher),
    layer("flash.cache_evictions", "count", Lower),
    layer("flash.gc_passes", "count", Lower),
    layer("flash.gc_pages_migrated", "count", Lower),
    layer("flash.gc_pause_sim_ms_sum", "ms", Lower),
    layer("flash.write_amp", "ratio", Lower),
    layer("flash.wear_spread", "count", Lower),
    layer("flash.ecc_corrected", "count", Lower),
    layer("flash.page_faults", "count", Lower),
    layer("bus.frames_per_op", "count", Lower),
    layer("bus.spy_bytes_per_op", "B", Lower),
    layer("bus.bytes_to_device", "B", Lower),
    layer("bus.bytes_to_pc", "B", Lower),
    layer("ram.op_peak_bytes_max", "B", Lower),
    layer("ram.cache_charged_bytes", "B", Lower),
    layer("persist.wal_appends", "count", Lower),
    layer("persist.seal_count", "count", Lower),
    layer("persist.image_bytes", "B", Lower),
    layer("persist.reseal_sim_ms_p50", "ms", Lower),
    layer("persist.mount_sim_ms_p50", "ms", Lower),
    layer("persist.mount_host_ms_p50", "ms", Lower),
    layer("persist.replay_rows_per_host_s", "rows/s", Higher),
    layer("core.select_sim_ms_p50", "ms", Lower),
    layer("core.insert_sim_us_p50", "us", Lower),
    layer("core.update_sim_us_p50", "us", Lower),
    layer("core.delete_sim_us_p50", "us", Lower),
    layer("core.flush_count", "count", Lower),
    layer("core.flush_sim_ms_p50", "ms", Lower),
    layer("core.flush_host_ms_p50", "ms", Lower),
    layer("core.snapshot_host_us_p50", "us", Lower),
    layer("core.snapshot_drop_host_us_p50", "us", Lower),
    layer("core.writer_host_ops_per_s", "ops/s", Higher),
    layer("core.reader_host_ms_p99", "ms", Lower),
    layer("core.reader_host_ms_max", "ms", Lower),
    layer("core.pins_deferred_max", "count", Lower),
    layer("obs.trace_overhead_ratio", "ratio", Lower),
    layer("obs.trace_sim_ratio", "ratio", Lower),
];

/// The metric name of an executor operator's simulated-time sum.
pub fn op_metric_name(operator: &str) -> String {
    format!("exec.op_sim_ms.{}", operator.replace('+', "-"))
}

/// `BENCHMARK.json`, rendered from the declarations above.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"ghostbench/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"ghostbench\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, w) in Workload::ALL.iter().enumerate() {
        let comma = if i + 1 < Workload::ALL.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}\n",
            w.name(),
            w.why()
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound.expect("end-to-end metrics carry a bound")
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    let unbounded = UNGATED_END_TO_END.len() + PER_LAYER.len();
    for (i, m) in UNGATED_END_TO_END.iter().chain(PER_LAYER).enumerate() {
        let comma = if i + 1 < unbounded { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}\n",
            m.name,
            m.unit,
            m.better.as_str()
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
