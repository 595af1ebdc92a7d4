//! Shared harness for the figure-regeneration binary and the Criterion
//! benches.
//!
//! Every experiment of the evaluation is driven from here: fixtures are
//! deterministic (seeded generators), measurements report **simulated
//! time** (the paper's metric — deterministic under the hardware model)
//! while Criterion additionally reports host wall time of the simulation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io::Write as _;
use std::path::Path;

use ghostdb_core::GhostDb;
use ghostdb_types::{Date, DeviceConfig, Result};
use ghostdb_workload::{generate_medical, MedicalConfig, MEDICAL_DDL};

/// A loaded database plus its generator config.
pub struct Fixture {
    /// The loaded database.
    pub db: GhostDb,
    /// Generator parameters used.
    pub cfg: MedicalConfig,
}

/// Build the medical fixture at `prescriptions` scale with the paper's
/// default hardware.
pub fn medical_fixture(prescriptions: usize) -> Result<Fixture> {
    medical_fixture_with(prescriptions, DeviceConfig::default_2007())
}

/// Build the medical fixture with custom hardware.
pub fn medical_fixture_with(prescriptions: usize, config: DeviceConfig) -> Result<Fixture> {
    let cfg = MedicalConfig::scaled(prescriptions);
    let data = generate_medical(&cfg)?;
    let db = GhostDb::create(MEDICAL_DDL, config, &data)?;
    Ok(Fixture { db, cfg })
}

impl Fixture {
    /// Mid-range date cutoff (≈50% visible selectivity), as used by the
    /// Figure 6 comparison.
    pub fn mid_date(&self) -> Date {
        Date(self.cfg.date_start.0 + (self.cfg.date_span_days / 2) as i32)
    }
}

/// One measured plan execution.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Plan label.
    pub label: String,
    /// Simulated execution time, ns.
    pub sim_ns: u64,
    /// Device RAM peak, bytes.
    pub ram_peak: usize,
    /// Result rows.
    pub rows: u64,
    /// Spy-visible bytes that crossed toward the device.
    pub bus_to_device: u64,
    /// Flash page reads.
    pub flash_reads: u64,
    /// Flash page programs.
    pub flash_programs: u64,
}

/// Execute `sql` under `plan` and collect the headline numbers.
pub fn measure_plan(db: &GhostDb, sql: &str, plan: &ghostdb_exec::Plan) -> Result<Measured> {
    let out = db.query_with_plan(sql, plan)?;
    Ok(Measured {
        label: plan.label.clone(),
        sim_ns: out.report.total_ns,
        ram_peak: out.report.ram_peak,
        rows: out.report.result_rows,
        bus_to_device: out.report.bus_bytes_to_device,
        flash_reads: out.report.flash.page_reads,
        flash_programs: out.report.flash.page_programs,
    })
}

/// Append rows to `results/<name>.csv` (header written once).
pub fn write_csv(name: &str, header: &str, rows: &[String]) -> std::io::Result<()> {
    let dir = Path::new("results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.csv"));
    let mut f = std::fs::File::create(&path)?;
    writeln!(f, "{header}")?;
    for r in rows {
        writeln!(f, "{r}")?;
    }
    eprintln!("wrote {}", path.display());
    Ok(())
}

/// A unicode bar for quick terminal charts (Figure 6 style).
pub fn bar(value: f64, max: f64, width: usize) -> String {
    let w = if max <= 0.0 {
        0
    } else {
        ((value / max) * width as f64).round() as usize
    };
    "#".repeat(w.min(width))
}

pub mod vectorized {
    //! Payloads for the scalar-vs-blocked pipeline benchmark
    //! (`benches/vectorized.rs`).

    use ghostdb_bloom::{BlockedBloomFilter, BloomFilter};
    use ghostdb_exec::{MergeIntersect, ScalarMergeIntersect};
    use ghostdb_ram::{RamBudget, RamScope};
    use ghostdb_types::{IdStream, Result, RowId, ScalarFallback, SimClock, SliceIdStream};

    /// Two ascending `n`-id lists sharing `overlap` of their ids.
    ///
    /// The unique ids come in alternating runs (~97 ids per list between
    /// shared ids), the shape climbing-index postings take in practice:
    /// children of one parent cluster, so one list's ids arrive in
    /// stretches the other list skips entirely. This is the layout
    /// `seek_at_least` galloping exists for.
    pub fn overlapping_lists(n: usize, overlap: f64) -> (Vec<RowId>, Vec<RowId>) {
        let shared = (((n as f64) * overlap.clamp(0.0, 1.0)).round() as usize).min(n);
        let unique = n - shared;
        let mut a: Vec<RowId> = Vec::with_capacity(n);
        let mut b: Vec<RowId> = Vec::with_capacity(n);
        let run = 97usize;
        let mut next_id = 0u32;
        let (mut ua, mut ub, mut s) = (0usize, 0usize, 0usize);
        // Interleave: run of A-only, run of B-only, one shared id, …
        while ua < unique || ub < unique || s < shared {
            for _ in 0..run.min(unique - ua) {
                a.push(RowId(next_id));
                next_id += 1;
                ua += 1;
            }
            for _ in 0..run.min(unique - ub) {
                b.push(RowId(next_id));
                next_id += 1;
                ub += 1;
            }
            if s < shared {
                a.push(RowId(next_id));
                b.push(RowId(next_id));
                next_id += 1;
                s += 1;
            }
        }
        (a, b)
    }

    /// Intersect with the blocked, galloping merge; returns the match
    /// count. Streams borrow the slices (O(1) setup), so the timing is
    /// pure merge cost.
    pub fn merge_blocked(a: &[RowId], b: &[RowId]) -> Result<u64> {
        let inputs: Vec<Box<dyn IdStream + '_>> = vec![
            Box::new(SliceIdStream::new(a)),
            Box::new(SliceIdStream::new(b)),
        ];
        let mut m = MergeIntersect::new(inputs, SimClock::new(), 1);
        let mut block = ghostdb_types::IdBlock::new();
        let mut count = 0u64;
        loop {
            m.next_block(&mut block)?;
            if block.is_empty() {
                return Ok(count);
            }
            count += block.len() as u64;
        }
    }

    /// Intersect with the seed's id-at-a-time merge; returns the match
    /// count.
    pub fn merge_scalar(a: &[RowId], b: &[RowId]) -> Result<u64> {
        let inputs: Vec<Box<dyn IdStream + '_>> = vec![
            Box::new(ScalarFallback(SliceIdStream::new(a))),
            Box::new(ScalarFallback(SliceIdStream::new(b))),
        ];
        let mut m = ScalarMergeIntersect::new(inputs, SimClock::new(), 1);
        let mut count = 0u64;
        while m.next_id()?.is_some() {
            count += 1;
        }
        Ok(count)
    }

    /// Keys for the Bloom benchmarks: `n` members plus `n` probes with a
    /// 50/50 hit/miss mix.
    pub fn bloom_keys(n: usize) -> (Vec<u64>, Vec<u64>) {
        let members: Vec<u64> = (0..n as u64).map(|i| i * 7 + 3).collect();
        let probes: Vec<u64> = (0..n as u64)
            .map(|i| if i % 2 == 0 { i * 7 + 3 } else { i * 7 + 4 })
            .collect();
        (members, probes)
    }

    /// Build a classic bit-array filter at 1% target fpr (k = 7, the
    /// textbook probe cost) holding `members`.
    pub fn bloom_scalar_filter(members: &[u64], scope: &RamScope) -> Result<BloomFilter> {
        let mut f = BloomFilter::for_capacity(scope, members.len(), 0.01)?;
        for &k in members {
            f.insert(k);
        }
        Ok(f)
    }

    /// Build a cache-line-blocked filter with the same sizing, filled
    /// through `insert_batch`.
    pub fn bloom_blocked_filter(members: &[u64], scope: &RamScope) -> Result<BlockedBloomFilter> {
        let mut f = BlockedBloomFilter::for_capacity(scope, members.len(), 0.01)?;
        f.insert_batch(members);
        Ok(f)
    }

    /// Probe key-at-a-time (the seed's executor inner loop); returns the
    /// hit count.
    pub fn probe_scalar(f: &BloomFilter, probes: &[u64]) -> u64 {
        probes.iter().filter(|&&k| f.contains(k)).count() as u64
    }

    /// Probe through `probe_batch`; `hits` is the reusable result
    /// buffer. Returns the hit count.
    pub fn probe_blocked(f: &BlockedBloomFilter, probes: &[u64], hits: &mut Vec<bool>) -> u64 {
        f.probe_batch(probes, hits);
        hits.iter().filter(|&&h| h).count() as u64
    }

    /// A scratch RAM scope big enough for the bench filters (1.2 MB per
    /// filter at 10^6 keys).
    pub fn bloom_scope() -> RamScope {
        RamScope::new(&RamBudget::new(16 * 1024 * 1024))
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn list_shapes_are_as_specified() {
            let (a, b) = overlapping_lists(100_000, 0.01);
            assert_eq!(a.len(), 100_000);
            assert_eq!(b.len(), 100_000);
            assert!(a.windows(2).all(|w| w[0] < w[1]));
            assert!(b.windows(2).all(|w| w[0] < w[1]));
            let bs: std::collections::HashSet<_> = b.iter().collect();
            let shared = a.iter().filter(|id| bs.contains(id)).count();
            assert_eq!(shared, 1_000);
        }

        #[test]
        fn merges_agree_on_the_bench_payload() {
            for &n in &[1_000usize, 10_000] {
                let (a, b) = overlapping_lists(n, 0.01);
                let expect = (n as f64 * 0.01).round() as u64;
                assert_eq!(merge_blocked(&a, &b).unwrap(), expect);
                assert_eq!(merge_scalar(&a, &b).unwrap(), expect);
            }
        }

        #[test]
        fn blooms_count_all_members() {
            let scope = bloom_scope();
            let (members, probes) = bloom_keys(10_000);
            let scalar_f = bloom_scalar_filter(&members, &scope).unwrap();
            let blocked_f = bloom_blocked_filter(&members, &scope).unwrap();
            let scalar = probe_scalar(&scalar_f, &probes);
            let mut hits = Vec::new();
            let blocked = probe_blocked(&blocked_f, &probes, &mut hits);
            // Every even probe is a member: at least half must hit, and
            // the 1% target fpr keeps both counts close to n/2.
            assert!(scalar >= 5_000);
            assert!(blocked >= 5_000);
            assert!(scalar <= 5_600 && blocked <= 5_600, "{scalar} {blocked}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_builds_and_queries() {
        let f = medical_fixture(1_000).unwrap();
        let sql = ghostdb_workload::paper_query(f.mid_date());
        let spec = f.db.bind(&sql).unwrap();
        let p1 = f.db.plan_pre(&spec);
        let m = measure_plan(&f.db, &sql, &p1).unwrap();
        assert!(m.sim_ns > 0);
        assert_eq!(m.label, "P1");
    }

    #[test]
    fn bars_scale() {
        assert_eq!(bar(5.0, 10.0, 10), "#####");
        assert_eq!(bar(0.0, 10.0, 10), "");
        assert_eq!(bar(20.0, 10.0, 10), "##########");
        assert_eq!(bar(1.0, 0.0, 10), "");
    }
}
