//! Regenerate every table and figure of the GhostDB evaluation.
//!
//! ```text
//! figures [--exp f6|d1|d2a|d2b|s3|b1|b2|scale|game|all] [--scale N]
//! ```
//!
//! Experiment ids follow the paper's figures (f6, d1, ...). Default scale is
//! 100,000 prescriptions; pass `--scale 1000000` for the paper's scale
//! (the load takes a few seconds of host time). Results are printed as
//! paper-style tables and written as CSV under `results/`.

use ghostdb_bench::{bar, measure_plan, medical_fixture, medical_fixture_with};
use ghostdb_bloom::BloomFilter;
use ghostdb_catalog::TreeSchema;
use ghostdb_exec::{climbing_translate_count, grace_hash_join_count, join_index_count};
use ghostdb_flash::{Nand, Volume};
use ghostdb_index::IndexSet;
use ghostdb_ram::{RamBudget, RamScope};
use ghostdb_storage::split_dataset;
use ghostdb_types::{format_ns, BusConfig, DeviceConfig, Result, RowId, SimClock, Value};
use ghostdb_workload::{
    game_queries, generate_medical, paper_query, selectivity_query, MedicalConfig,
};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let exp = flag(&args, "--exp").unwrap_or_else(|| "all".to_string());
    let scale: usize = flag(&args, "--scale")
        .and_then(|s| s.parse().ok())
        .unwrap_or(100_000);
    let run = |name: &str| exp == "all" || exp == name;
    let mut failed = false;
    {
        let mut go = |name: &str, f: &dyn Fn() -> Result<()>| {
            if run(name) {
                println!(
                    "\n================ EXP-{} ================",
                    name.to_uppercase()
                );
                if let Err(e) = f() {
                    eprintln!("experiment {name} failed: {e}");
                    failed = true;
                }
            }
        };
        go("f6", &|| exp_f6(scale));
        go("d2a", &|| exp_d2a(scale));
        go("d2b", &|| exp_d2b(scale));
        go("d1", &|| exp_d1(scale.min(50_000)));
        go("s3", &|| exp_s3(scale.min(100_000)));
        go("b1", &|| exp_b1(scale.min(200_000)));
        go("b2", &exp_b2);
        go("scale", &|| exp_scale(scale));
        go("game", &|| exp_game(scale.min(50_000)));
    }
    if failed {
        std::process::exit(1);
    }
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn csv_err(e: std::io::Error) -> ghostdb_types::GhostError {
    ghostdb_types::GhostError::exec(e.to_string())
}

/// Figure 6: execution time of the ad-hoc plans P1 (pre-filtering) and
/// P2 (post-filtering) for the §4 example query.
fn exp_f6(scale: usize) -> Result<()> {
    println!("Figure 6 — execution time of plans P1/P2, {scale} prescriptions");
    let f = medical_fixture(scale)?;
    let sql = paper_query(f.mid_date());
    let spec = f.db.bind(&sql)?;
    let plans = [f.db.plan_pre(&spec), f.db.plan_post(&spec), {
        let mut p = f.db.plans(&sql)?.remove(0).plan;
        p.label = "best".into();
        p
    }];
    let mut measured = Vec::new();
    for p in &plans {
        measured.push(measure_plan(&f.db, &sql, p)?);
    }
    let max = measured.iter().map(|m| m.sim_ns).max().unwrap_or(1) as f64;
    println!("\n  plan  time         ram      rows   chart (execution time)");
    let mut csv = Vec::new();
    for m in &measured {
        println!(
            "  {:<5} {:<12} {:<8} {:<6} {}",
            m.label,
            format_ns(m.sim_ns),
            m.ram_peak,
            m.rows,
            bar(m.sim_ns as f64, max, 40)
        );
        csv.push(format!(
            "{},{},{},{}",
            m.label, m.sim_ns, m.ram_peak, m.rows
        ));
    }
    ghostdb_bench::write_csv("f6_plans", "plan,sim_ns,ram_peak,rows", &csv).map_err(csv_err)?;
    println!("\n  shape check: both plans return identical rows; the spread between");
    println!("  P1 and P2 at ~50% visible selectivity mirrors the demo's bar chart.");
    Ok(())
}

/// Demo phase 2: Pre vs Post vs best across visible selectivity — the
/// crossover chart.
fn exp_d2a(scale: usize) -> Result<()> {
    println!("Pre/Post/Cross-filtering vs visible selectivity, {scale} prescriptions");
    let f = medical_fixture(scale)?;
    let fracs = [0.001, 0.01, 0.05, 0.10, 0.25, 0.50, 0.75, 0.90];
    println!("\n  vis.sel   P1(pre)       P2(post)      best          winner  P1.ram   P2.ram");
    let mut csv = Vec::new();
    for &frac in &fracs {
        let sql = selectivity_query(f.cfg.date_start, f.cfg.date_span_days, frac);
        let spec = f.db.bind(&sql)?;
        let p1 = measure_plan(&f.db, &sql, &f.db.plan_pre(&spec))?;
        let p2 = measure_plan(&f.db, &sql, &f.db.plan_post(&spec))?;
        let best_plan = f.db.plans(&sql)?.remove(0).plan;
        let best = measure_plan(&f.db, &sql, &best_plan)?;
        let winner = if p1.sim_ns <= p2.sim_ns {
            "pre"
        } else {
            "post"
        };
        println!(
            "  {:<9} {:<13} {:<13} {:<13} {:<7} {:<8} {:<8}",
            frac,
            format_ns(p1.sim_ns),
            format_ns(p2.sim_ns),
            format_ns(best.sim_ns),
            winner,
            p1.ram_peak,
            p2.ram_peak,
        );
        csv.push(format!(
            "{frac},{},{},{},{},{}",
            p1.sim_ns, p2.sim_ns, best.sim_ns, p1.ram_peak, p2.ram_peak
        ));
    }
    ghostdb_bench::write_csv(
        "d2a_filtering_sweep",
        "visible_selectivity,p1_ns,p2_ns,best_ns,p1_ram,p2_ram",
        &csv,
    )
    .map_err(csv_err)?;
    println!("\n  shape check: pre-filtering wins at low visible selectivity,");
    println!("  post-filtering wins as the visible predicate becomes unselective.");
    Ok(())
}

/// Demo phase 2: the per-operator statistics popup for the Figure 5 plan.
fn exp_d2b(scale: usize) -> Result<()> {
    println!("Per-operator statistics (Figure 5 post-filtering plan), {scale} prescriptions");
    let f = medical_fixture(scale)?;
    let sql = paper_query(f.mid_date());
    let spec = f.db.bind(&sql)?;
    let p2 = f.db.plan_post(&spec);
    println!("\n{}", p2.describe(f.db.schema(), f.db.tree(), &spec));
    let out = f.db.query_with_plan(&sql, &p2)?;
    println!("{}", out.report.render());
    let csv: Vec<String> = out
        .report
        .ops
        .iter()
        .map(|o| {
            format!(
                "{},{},{},{},{},{}",
                o.name,
                o.detail.replace(',', ";"),
                o.tuples_in,
                o.tuples_out,
                o.ram_peak,
                o.sim_ns
            )
        })
        .collect();
    ghostdb_bench::write_csv(
        "d2b_operator_stats",
        "operator,detail,tuples_in,tuples_out,ram_peak,sim_ns",
        &csv,
    )
    .map_err(csv_err)?;
    Ok(())
}

/// Demo phase 1: the spy's ledger — bytes per channel per query, zero
/// hidden leakage.
fn exp_d1(scale: usize) -> Result<()> {
    println!("Security trace — bytes observed per channel, {scale} prescriptions");
    let f = medical_fixture(scale)?;
    let queries = [
        (
            "hidden-only",
            "SELECT Vis.VisID FROM Visit Vis WHERE Vis.Purpose = 'Sclerosis'".to_string(),
        ),
        (
            "visible-only",
            "SELECT Doc.Name FROM Doctor Doc WHERE Doc.Country = 'Spain'".to_string(),
        ),
        ("mixed", paper_query(f.mid_date())),
        (
            "projection-heavy",
            format!(
                "SELECT Pat.Name, Vis.Date FROM Patient Pat, Visit Vis, Prescription Pre \
                 WHERE Vis.Date > '{}' AND Vis.PatID = Pat.PatID AND Vis.VisID = Pre.VisID",
                f.mid_date()
            ),
        ),
    ];
    println!("\n  query             spy frames  spy bytes   display bytes  hidden leaks");
    let mut csv = Vec::new();
    for (name, sql) in &queries {
        f.db.clear_trace();
        let out = f.db.query(sql)?;
        let frames = f.db.trace().spy_frames().len();
        let bytes = f.db.trace().spy_bytes();
        let spec = f.db.bind(sql)?;
        let mut leaks = 0;
        for row in out.rows.rows.iter().take(200) {
            for (v, cref) in row.iter().zip(&spec.projections) {
                if f.db.schema().is_hidden(*cref) && f.db.spy_sees_value(v) {
                    leaks += 1;
                }
            }
        }
        let display: u64 =
            f.db.trace()
                .events()
                .iter()
                .filter(|e| !e.spy_visible())
                .map(|e| e.bytes as u64)
                .sum();
        println!(
            "  {:<17} {:<11} {:<11} {:<14} {}",
            name, frames, bytes, display, leaks
        );
        csv.push(format!("{name},{frames},{bytes},{display},{leaks}"));
        assert_eq!(leaks, 0, "hidden data leaked!");
    }
    ghostdb_bench::write_csv(
        "d1_security_trace",
        "query,spy_frames,spy_bytes,display_bytes,hidden_leaks",
        &csv,
    )
    .map_err(csv_err)?;
    Ok(())
}

/// §3 hardware sensitivity: flash write/read ratio × bus speed.
fn exp_s3(scale: usize) -> Result<()> {
    println!("Hardware sweep — flash write/read ratio x link speed, {scale} prescriptions");
    println!("\n  ratio  link        P1(pre)        P2(post)      winner");
    let mut csv = Vec::new();
    for ratio in [3.0, 5.0, 10.0] {
        for (link_name, bus) in [
            ("full12M", BusConfig::usb_full_speed()),
            ("high480M", BusConfig::usb_high_speed()),
        ] {
            let mut config = DeviceConfig::default_2007().with_bus(bus);
            config.flash = config.flash.with_write_read_ratio(ratio);
            let f = medical_fixture_with(scale, config)?;
            let sql = selectivity_query(f.cfg.date_start, f.cfg.date_span_days, 0.5);
            let spec = f.db.bind(&sql)?;
            let p1 = measure_plan(&f.db, &sql, &f.db.plan_pre(&spec))?;
            let p2 = measure_plan(&f.db, &sql, &f.db.plan_post(&spec))?;
            let winner = if p1.sim_ns <= p2.sim_ns {
                "pre"
            } else {
                "post"
            };
            println!(
                "  {:<6} {:<11} {:<14} {:<13} {}",
                ratio,
                link_name,
                format_ns(p1.sim_ns),
                format_ns(p2.sim_ns),
                winner
            );
            csv.push(format!("{ratio},{link_name},{},{}", p1.sim_ns, p2.sim_ns));
        }
    }
    ghostdb_bench::write_csv("s3_hardware_sweep", "ratio,link,p1_ns,p2_ns", &csv)
        .map_err(csv_err)?;
    println!("\n  shape check: higher write cost penalizes spill-heavy pre-filtering;");
    println!("  a faster link helps post-filtering (bulk visible transfer) most.");
    Ok(())
}

/// §4 / ref \[1\]: last-resort joins vs the climbing index.
fn exp_b1(scale: usize) -> Result<()> {
    println!("Baselines — climbing index vs join index vs Grace hash, {scale} prescriptions");
    // Build the device stack directly so the baselines can use internals.
    let cfg = MedicalConfig::scaled(scale);
    let data = generate_medical(&cfg)?;
    let schema = ghostdb_workload::medical_schema()?;
    let tree = TreeSchema::analyze(&schema)?;
    let device = DeviceConfig::default_2007();
    let clock = SimClock::new();
    let volume = Volume::new(Nand::new(device.flash.clone(), clock.clone()));
    let ram = RamBudget::new(device.ram_bytes);
    let scope = RamScope::new(&ram);
    let (hidden, _visible, _stats, encoders) = split_dataset(&volume, &scope, &schema, &data)?;
    let indexes = IndexSet::build(&volume, &scope, &schema, &tree, &data, &encoders)?;
    drop(scope);

    let visit = schema.resolve_table("Visit")?;
    let pre = schema.resolve_table("Prescription")?;
    let doctor = schema.resolve_table("Doctor")?;
    // The join task: all prescriptions of Sclerosis visits.
    let vis_tbl = &data.tables[visit.index()];
    let matching: Vec<RowId> = (0..vis_tbl.rows())
        .filter(|&i| vis_tbl.columns[2][i] == Value::Text("Sclerosis".into()))
        .map(|i| RowId(i as u32))
        .collect();
    println!(
        "  task: join {} matching visits up to prescriptions\n",
        matching.len()
    );

    let fk_col = schema.resolve_column(pre, "VisID")?.column;
    let climb = climbing_translate_count(
        &volume, &ram, &clock, &device, &indexes, visit, &matching, pre,
    )?;
    let jidx = join_index_count(
        &volume, &ram, &clock, &device, &indexes, &tree, visit, &matching, pre,
    )?;
    let grace = grace_hash_join_count(
        &volume, &ram, &clock, &device, &hidden, pre, fk_col, &matching,
    )?;
    assert_eq!(climb.result_count, jidx.result_count);
    assert_eq!(climb.result_count, grace.result_count);

    // Deep task: doctors -> prescriptions (2 hops vs 1 climb).
    let doc_matching: Vec<RowId> = (0..data.tables[doctor.index()].rows() / 4)
        .map(|i| RowId(i as u32))
        .collect();
    let climb2 = climbing_translate_count(
        &volume,
        &ram,
        &clock,
        &device,
        &indexes,
        doctor,
        &doc_matching,
        pre,
    )?;
    let jidx2 = join_index_count(
        &volume,
        &ram,
        &clock,
        &device,
        &indexes,
        &tree,
        doctor,
        &doc_matching,
        pre,
    )?;
    assert_eq!(climb2.result_count, jidx2.result_count);

    println!("  method            matches   time          flash rd  flash wr  ram");
    let rows = [
        ("climbing (1 hop)", &climb),
        ("join-index chain", &jidx),
        ("grace hash join", &grace),
        ("climbing (deep)", &climb2),
        ("join-index (deep)", &jidx2),
    ];
    let mut csv = Vec::new();
    for (name, r) in rows {
        println!(
            "  {:<17} {:<9} {:<13} {:<9} {:<9} {}",
            name,
            r.result_count,
            format_ns(r.sim_ns),
            r.flash_reads,
            r.flash_programs,
            r.ram_peak
        );
        csv.push(format!(
            "{name},{},{},{},{},{}",
            r.result_count, r.sim_ns, r.flash_reads, r.flash_programs, r.ram_peak
        ));
    }
    ghostdb_bench::write_csv(
        "b1_baselines",
        "method,matches,sim_ns,flash_reads,flash_programs,ram_peak",
        &csv,
    )
    .map_err(csv_err)?;
    println!("\n  shape check: grace hash pays the flash write storm (programs >> 0);");
    println!("  the climbing index needs no writes and the fewest reads.");
    Ok(())
}

/// §4 Bloom filter claims: compactness and false-positive rates.
fn exp_b2() -> Result<()> {
    println!("Bloom filters — bytes and observed fpr vs keys and budget");
    println!("\n  keys      budget   bits/key  k   target-fpr  observed-fpr");
    let mut csv = Vec::new();
    for &n in &[1_000usize, 10_000, 100_000, 1_000_000] {
        for &budget_bytes in &[2 * 1024usize, 8 * 1024, 32 * 1024] {
            let ram = RamBudget::new(budget_bytes + 1024);
            let scope = RamScope::new(&ram);
            let mut f = BloomFilter::within_ram(&scope, n, budget_bytes)?;
            for i in 0..n as u64 {
                f.insert(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            }
            let probes = 200_000u64;
            let fp = (0..probes)
                .filter(|i| f.contains(i.wrapping_mul(0xD1B5_4A32_D192_ED03).wrapping_add(7)))
                .count();
            let observed = fp as f64 / probes as f64;
            let bits_per_key = f.m_bits() as f64 / n as f64;
            println!(
                "  {:<9} {:<8} {:<9.2} {:<3} {:<11.5} {:<12.5}",
                n,
                budget_bytes,
                bits_per_key,
                f.k(),
                f.estimated_fpr(),
                observed
            );
            csv.push(format!(
                "{n},{budget_bytes},{bits_per_key:.3},{},{:.6},{observed:.6}",
                f.k(),
                f.estimated_fpr()
            ));
        }
    }
    ghostdb_bench::write_csv(
        "b2_bloom",
        "keys,budget_bytes,bits_per_key,k,estimated_fpr,observed_fpr",
        &csv,
    )
    .map_err(csv_err)?;
    println!("\n  shape check: a few KB keep fpr low up to ~10k keys (the demo's");
    println!("  delegated id lists); million-key sets saturate small filters —");
    println!("  which is exactly why the exact temp verification exists.");
    Ok(())
}

/// Scaling with root cardinality (the paper's 'arbitrarily large tables').
fn exp_scale(max_scale: usize) -> Result<()> {
    println!("Scaling — paper query vs root cardinality (up to {max_scale})");
    let mut scales = vec![10_000usize, 50_000, 100_000, 250_000, 500_000, 1_000_000];
    scales.retain(|&s| s <= max_scale);
    if scales.is_empty() {
        scales.push(max_scale);
    }
    println!("\n  prescriptions  P1(pre)       P2(post)      best          rows");
    let mut csv = Vec::new();
    for &n in &scales {
        let f = medical_fixture(n)?;
        let sql = paper_query(f.mid_date());
        let spec = f.db.bind(&sql)?;
        let p1 = measure_plan(&f.db, &sql, &f.db.plan_pre(&spec))?;
        let p2 = measure_plan(&f.db, &sql, &f.db.plan_post(&spec))?;
        let best_plan = f.db.plans(&sql)?.remove(0).plan;
        let best = measure_plan(&f.db, &sql, &best_plan)?;
        println!(
            "  {:<14} {:<13} {:<13} {:<13} {}",
            n,
            format_ns(p1.sim_ns),
            format_ns(p2.sim_ns),
            format_ns(best.sim_ns),
            best.rows
        );
        csv.push(format!(
            "{n},{},{},{},{}",
            p1.sim_ns, p2.sim_ns, best.sim_ns, best.rows
        ));
    }
    ghostdb_bench::write_csv("scale", "prescriptions,p1_ns,p2_ns,best_ns,rows", &csv)
        .map_err(csv_err)?;
    println!("\n  shape check: time grows with matching volume, not raw table size —");
    println!("  selections never scan the root table.");
    Ok(())
}

/// Demo phase 3: the plan game's search space.
fn exp_game(scale: usize) -> Result<()> {
    println!("Plan game — plan-space size and best/worst spread, {scale} prescriptions");
    let f = medical_fixture(scale)?;
    println!("\n  query                 plans  best          worst         spread  optimizer");
    let mut csv = Vec::new();
    for gq in game_queries(f.cfg.date_start, f.cfg.date_span_days) {
        let plans = f.db.plans(&gq.sql)?;
        let mut times = Vec::new();
        for cp in &plans {
            times.push(measure_plan(&f.db, &gq.sql, &cp.plan)?.sim_ns);
        }
        let best = *times.iter().min().unwrap_or(&0);
        let worst = *times.iter().max().unwrap_or(&0);
        let picked = times[0]; // optimizer's choice = cheapest estimate
        let spread = worst as f64 / best.max(1) as f64;
        let good = picked as f64 <= best as f64 * 1.2;
        println!(
            "  {:<21} {:<6} {:<13} {:<13} {:<7.1} {}",
            gq.name,
            plans.len(),
            format_ns(best),
            format_ns(worst),
            spread,
            if good { "good" } else { "beaten" }
        );
        csv.push(format!(
            "{},{},{best},{worst},{picked},{spread:.2},{good}",
            gq.name,
            plans.len()
        ));
    }
    ghostdb_bench::write_csv(
        "game",
        "query,plans,best_ns,worst_ns,optimizer_ns,spread,optimizer_good",
        &csv,
    )
    .map_err(csv_err)?;
    println!("\n  shape check: order-of-magnitude spreads justify the game — picking");
    println!("  plans by intuition is genuinely hard on this hardware.");
    Ok(())
}
