//! The harness's own instruments: per-op samples on both clocks,
//! counter deltas read from the engine's public surfaces, and the
//! in-memory span log of a traced pass. Nothing here reaches into the
//! engine; every number is a timed public call or a counter the engine
//! already exposes.

use std::fmt::Write as _;
use std::time::Instant;

use ghostdb_core::GhostDb;
use ghostdb_exec::ExecReport;
use ghostdb_flash::FlashStats;
use ghostdb_obs::MetricValue;
use ghostdb_types::SimClock;

use crate::spec::OPERATORS;

/// Kind of one timed engine call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Select,
    Insert,
    Update,
    Delete,
    Mount,
}

impl OpKind {
    fn span_name(self) -> &'static str {
        match self {
            OpKind::Select => "core.select",
            OpKind::Insert => "core.insert",
            OpKind::Update => "core.update",
            OpKind::Delete => "core.delete",
            OpKind::Mount => "persist.mount",
        }
    }
}

/// One operation of the timed phase, on both clocks.
#[derive(Debug, Clone, Copy)]
pub struct OpSample {
    pub kind: OpKind,
    /// Host time inside the engine call.
    pub host_ns: u64,
    /// `SimClock` advance across the engine call.
    pub sim_ns: u64,
    /// The statement tripped the automatic delta flush.
    pub flushed: bool,
}

/// One harness span of a traced pass. `parent` is 0 for a top-level
/// engine call; ids start at 1.
#[derive(Debug, Clone, Copy)]
pub struct SpanRec {
    pub id: u32,
    pub parent: u32,
    pub op_index: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Sums folded from every SELECT's `ExecReport`.
#[derive(Debug, Clone, Default)]
pub struct SelectTotals {
    pub queries: u64,
    pub total_ns: u64,
    pub tuples_in: u64,
    pub result_rows: u64,
    pub bloom_probes: u64,
    pub bloom_hits: u64,
    pub bloom_confirmed: u64,
    pub bus_bytes_to_device: u64,
    pub bus_bytes_to_pc: u64,
    pub op_ram_peak_max: usize,
    pub report_ram_peak_max: usize,
    /// Writer-side SELECTs of a traced pass whose page touches were
    /// counted, and the pages (NAND reads + cache hits) they touched.
    pub lookups: u64,
    pub lookup_pages: u64,
    /// Simulated ns per operator, indexed like [`OPERATORS`].
    pub op_sim_ns: [u64; OPERATORS.len()],
}

impl SelectTotals {
    pub fn fold(&mut self, report: &ExecReport) {
        self.queries += 1;
        self.total_ns += report.total_ns;
        self.result_rows += report.result_rows;
        self.bus_bytes_to_device += report.bus_bytes_to_device;
        self.bus_bytes_to_pc += report.bus_bytes_to_pc;
        self.report_ram_peak_max = self.report_ram_peak_max.max(report.ram_peak);
        for op in &report.ops {
            self.tuples_in += op.tuples_in;
            self.op_ram_peak_max = self.op_ram_peak_max.max(op.ram_peak);
            if let Some(i) = OPERATORS.iter().position(|n| *n == op.name) {
                self.op_sim_ns[i] += op.sim_ns;
            }
            if op.name == "bloom-probe" {
                for (k, v) in &op.attrs {
                    match *k {
                        "probes" => self.bloom_probes += v,
                        "hits" => self.bloom_hits += v,
                        "confirmed" => self.bloom_confirmed += v,
                        _ => {}
                    }
                }
            }
        }
    }

    /// Add another thread's totals.
    pub fn merge(&mut self, other: &SelectTotals) {
        self.queries += other.queries;
        self.total_ns += other.total_ns;
        self.tuples_in += other.tuples_in;
        self.result_rows += other.result_rows;
        self.bloom_probes += other.bloom_probes;
        self.bloom_hits += other.bloom_hits;
        self.bloom_confirmed += other.bloom_confirmed;
        self.bus_bytes_to_device += other.bus_bytes_to_device;
        self.bus_bytes_to_pc += other.bus_bytes_to_pc;
        self.op_ram_peak_max = self.op_ram_peak_max.max(other.op_ram_peak_max);
        self.report_ram_peak_max = self.report_ram_peak_max.max(other.report_ram_peak_max);
        self.lookups += other.lookups;
        self.lookup_pages += other.lookup_pages;
        for (mine, theirs) in self.op_sim_ns.iter_mut().zip(other.op_sim_ns) {
            *mine += theirs;
        }
    }

    pub fn op_sim_ns(&self, operator: &str) -> u64 {
        OPERATORS
            .iter()
            .position(|n| *n == operator)
            .map_or(0, |i| self.op_sim_ns[i])
    }
}

/// Counters the engine exposes, read at one instant. All fields are
/// cumulative for the life of one `GhostDb` handle except `flash`,
/// which lives in the NAND part and survives a remount.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub flash: FlashStats,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub gc_passes: u64,
    pub gc_pages_migrated: u64,
    pub gc_pause_ns: u64,
    pub ecc_corrected: u64,
    pub page_faults: u64,
    /// Frames and bytes of every kind the spy can see (all but the
    /// secure display's `Result`).
    pub spy_frames: u64,
    pub spy_bytes: u64,
    pub wal_appends: u64,
}

impl Counters {
    /// Read every counter through the public API. Bus totals come from
    /// the registry: `BusTrace::spy_bytes()` clones the whole log.
    pub fn read(db: &GhostDb) -> Counters {
        let cache = db.volume().page_cache_stats();
        let gc = db.volume().gc_stats();
        let snap = db.metrics();
        let mut c = Counters {
            flash: db.nand().stats(),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
            gc_passes: gc.passes,
            gc_pages_migrated: gc.pages_migrated,
            ecc_corrected: db.volume().reliability().corrected,
            page_faults: snap.counter("ghostdb_flash_page_faults_total"),
            wal_appends: snap.counter("ghostdb_wal_appends_total"),
            ..Counters::default()
        };
        for (name, value) in &snap.entries {
            match value {
                MetricValue::Counter(v) if !name.contains("kind=\"Result\"") => {
                    if name.starts_with("ghostdb_bus_frames_total") {
                        c.spy_frames += v;
                    } else if name.starts_with("ghostdb_bus_bytes_total") {
                        c.spy_bytes += v;
                    }
                }
                MetricValue::Histogram(h) if name == "ghostdb_gc_pause_ns" => {
                    c.gc_pause_ns = h.sum;
                }
                _ => {}
            }
        }
        c
    }

    /// `self - base`, field by field.
    pub fn since(&self, base: &Counters) -> Counters {
        Counters {
            flash: self.flash.since(&base.flash),
            cache_hits: self.cache_hits - base.cache_hits,
            cache_misses: self.cache_misses - base.cache_misses,
            cache_evictions: self.cache_evictions - base.cache_evictions,
            gc_passes: self.gc_passes - base.gc_passes,
            gc_pages_migrated: self.gc_pages_migrated - base.gc_pages_migrated,
            gc_pause_ns: self.gc_pause_ns - base.gc_pause_ns,
            ecc_corrected: self.ecc_corrected - base.ecc_corrected,
            page_faults: self.page_faults - base.page_faults,
            spy_frames: self.spy_frames - base.spy_frames,
            spy_bytes: self.spy_bytes - base.spy_bytes,
            wal_appends: self.wal_appends - base.wal_appends,
        }
    }

    pub fn add(&mut self, d: &Counters) {
        self.flash.page_reads += d.flash.page_reads;
        self.flash.bytes_read += d.flash.bytes_read;
        self.flash.page_programs += d.flash.page_programs;
        self.flash.bytes_programmed += d.flash.bytes_programmed;
        self.flash.block_erases += d.flash.block_erases;
        self.cache_hits += d.cache_hits;
        self.cache_misses += d.cache_misses;
        self.cache_evictions += d.cache_evictions;
        self.gc_passes += d.gc_passes;
        self.gc_pages_migrated += d.gc_pages_migrated;
        self.gc_pause_ns += d.gc_pause_ns;
        self.ecc_corrected += d.ecc_corrected;
        self.page_faults += d.page_faults;
        self.spy_frames += d.spy_frames;
        self.spy_bytes += d.spy_bytes;
        self.wal_appends += d.wal_appends;
    }
}

/// Everything one pass over a workload's timed phase records.
#[derive(Debug)]
pub struct Meter {
    pub traced: bool,
    t0: Instant,
    pub ops: Vec<OpSample>,
    pub spans: Vec<SpanRec>,
    stack: Vec<u32>,
    pub selects: SelectTotals,
    /// Counter deltas summed over the measured segments of the phase.
    pub counters: Counters,
    base: Option<Counters>,
    pub failed: u64,
    /// The first few failure messages, for the operator.
    pub failures: Vec<String>,
    /// Named extra samples (`(metric, value)`), e.g. snapshot capture
    /// times; medians are taken when metrics are derived.
    pub extra: Vec<(&'static str, f64)>,
    /// End-of-phase facts the workload fills in.
    pub end: PhaseEnd,
}

/// State read once when the timed phase ends (or maintained as a
/// running maximum during it).
#[derive(Debug, Clone, Default)]
pub struct PhaseEnd {
    pub live_flash_bytes: u64,
    pub user_bytes_live: u64,
    pub user_bytes_written: u64,
    pub ram_peak_bytes: usize,
    pub cache_charged_bytes: usize,
    pub wear_spread: u32,
    pub delta_rows_max: u64,
    pub rows_merged: u64,
    pub pins_deferred_max: usize,
    pub seal_count: u64,
    pub image_bytes: u64,
    pub replay_rows: u64,
    /// `snap-readers`: wall seconds of the phase, the shared clock's
    /// advance across it, and what each thread did.
    pub wall_s: f64,
    pub clock_advance_ns: u64,
    pub writer_ops: u64,
}

impl Meter {
    pub fn new(traced: bool) -> Meter {
        Meter {
            traced,
            t0: Instant::now(),
            ops: Vec::new(),
            spans: Vec::new(),
            stack: Vec::new(),
            selects: SelectTotals::default(),
            counters: Counters::default(),
            base: None,
            failed: 0,
            failures: Vec::new(),
            extra: Vec::new(),
            end: PhaseEnd::default(),
        }
    }

    /// Start (or restart, after [`pause`](Self::pause)) counting: what
    /// the engine's counters read now is the baseline.
    pub fn resume(&mut self, db: &GhostDb) {
        self.base = Some(Counters::read(db));
    }

    /// Start counting on a freshly mounted handle: its own counters
    /// begin at zero, so the mount's work is inside the segment; the
    /// NAND's counters carry over from `flash_before`.
    pub fn resume_after_mount(&mut self, flash_before: FlashStats) {
        self.base = Some(Counters {
            flash: flash_before,
            ..Counters::default()
        });
    }

    /// Fold the counters since the last `resume` into the phase total
    /// and stop counting (harness-side checks run paused).
    pub fn pause(&mut self, db: &GhostDb) {
        if let Some(base) = self.base.take() {
            self.counters.add(&Counters::read(db).since(&base));
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span; a no-op handle when the pass is untraced.
    pub fn open(&mut self, name: &'static str) -> OpenSpan {
        if !self.traced {
            return OpenSpan(None);
        }
        let id = self.spans.len() as u32 + 1;
        self.spans.push(SpanRec {
            id,
            parent: self.stack.last().copied().unwrap_or(0),
            op_index: self.ops.len() as u32,
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(id);
        OpenSpan(Some(id))
    }

    pub fn close(&mut self, span: OpenSpan) {
        if let Some(id) = span.0 {
            let end = self.now_ns();
            self.spans[id as usize - 1].end_ns = end;
            self.stack.pop();
        }
    }

    /// Time one engine call on both clocks and record it as an
    /// operation of the phase. Returns the call's result and the index
    /// of its sample.
    pub fn op<T>(&mut self, kind: OpKind, clock: &SimClock, f: impl FnOnce(&mut Meter) -> T) -> T {
        let span = self.open(kind.span_name());
        let sim0 = clock.now();
        let t = Instant::now();
        let out = f(self);
        let host_ns = t.elapsed().as_nanos() as u64;
        let sim_ns = clock.now().since(sim0);
        self.close(span);
        self.ops.push(OpSample {
            kind,
            host_ns,
            sim_ns,
            flushed: false,
        });
        out
    }

    /// Time a child stage inside an open [`op`](Self::op) (traced
    /// passes only record it; the call always runs).
    pub fn stage<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let span = self.open(name);
        let out = f();
        self.close(span);
        out
    }

    /// Mark the operation just recorded as one that tripped the flush.
    pub fn mark_flushed(&mut self) {
        if let Some(last) = self.ops.last_mut() {
            last.flushed = true;
        }
    }

    /// Count one failed operation.
    pub fn fail(&mut self, why: impl FnOnce() -> String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            let msg = why();
            self.failures.push(format!("op {}: {msg}", self.ops.len()));
        }
    }

    /// Durations, in host ns, of every closed span called `name`.
    pub fn span_durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64)
            .collect()
    }

    pub fn extras(&self, name: &str) -> Vec<f64> {
        self.extra
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .collect()
    }

    /// Σ host time inside engine calls, seconds.
    pub fn host_seconds(&self) -> f64 {
        self.ops.iter().map(|o| o.host_ns).sum::<u64>() as f64 / 1e9
    }

    /// Simulated time of the phase, ns: Σ over engine calls, or the
    /// shared clock's advance where two threads charged it.
    pub fn sim_ns(&self) -> u64 {
        if self.end.clock_advance_ns > 0 {
            return self.end.clock_advance_ns;
        }
        self.ops.iter().map(|o| o.sim_ns).sum()
    }

    /// The span log as a JSON array (one object per span).
    pub fn trace_json(&self, workload: &str) -> String {
        let mut out = String::with_capacity(self.spans.len() * 120 + 2);
        out.push('[');
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"id\":{},\"parent\":{},\"workload\":\"{workload}\",\"op_index\":{},\
                 \"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.op_index, s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("\n]\n");
        out
    }
}

/// Handle of an open span (empty when untraced).
#[must_use]
pub struct OpenSpan(Option<u32>);

/// The `q`-quantile (0..=1) of `values` by nearest rank; 0 for an
/// empty sample.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.total_cmp(b));
    let rank = ((values.len() as f64 * q).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

pub fn median(mut values: Vec<f64>) -> f64 {
    quantile(&mut values, 0.5)
}

/// Peak resident set of this process, MB (`VmHWM`), 0 where `/proc`
/// does not say.
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
