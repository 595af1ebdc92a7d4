//! The paper's demonstration scenario (§5), phase 2: run the §4 example
//! query under Pre-filtering (P1), Post-filtering (P2) and the
//! optimizer's best plan, comparing time, RAM and per-operator stats.
//!
//! Run with: `cargo run --release --example medical_demo [prescriptions]`
//! (default 50,000; the paper's scale is 1,000,000).

use ghostdb::GhostDb;
use ghostdb_types::{format_ns, Date, DeviceConfig, Result};
use ghostdb_workload::{generate_medical, paper_query, MedicalConfig, MEDICAL_DDL};

fn main() -> Result<()> {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(50_000);
    let cfg = MedicalConfig::scaled(n);
    println!(
        "generating Figure 3 dataset: {} prescriptions, {} visits, {} doctors ...",
        cfg.prescriptions,
        cfg.visits(),
        cfg.doctors
    );
    let data = generate_medical(&cfg)?;
    let db = GhostDb::create(MEDICAL_DDL, DeviceConfig::default_2007(), &data)?;
    println!("loaded. {}\n", db.device_report());

    // The §4 example query; the date literal lands mid-range (~50%
    // visible selectivity on Vis.Date, as in the paper's Figure 5/6
    // discussion).
    let cutoff = Date(cfg.date_start.0 + (cfg.date_span_days / 2) as i32);
    let sql = paper_query(cutoff);
    println!("query:\n  {sql}\n");

    let spec = db.bind(&sql)?;
    let p1 = db.plan_pre(&spec);
    let p2 = db.plan_post(&spec);

    println!("--- P1: Pre-filtering ---");
    println!("{}", p1.describe(db.schema(), db.tree(), &spec));
    let r1 = db.run(&spec, &p1)?;
    println!("{}", r1.report.render());

    println!("--- P2: Post-filtering (Figure 5) ---");
    println!("{}", p2.describe(db.schema(), db.tree(), &spec));
    let r2 = db.run(&spec, &p2)?;
    println!("{}", r2.report.render());

    assert_eq!(r1.rows.rows, r2.rows.rows, "plans must agree");

    println!("--- optimizer ---");
    let best = db.query(&sql)?;
    println!("{}", best.report.render());
    assert_eq!(best.rows.rows, r1.rows.rows);

    println!(
        "result rows: {}   P1: {}   P2: {}   best: {}",
        r1.rows.len(),
        format_ns(r1.report.total_ns),
        format_ns(r2.report.total_ns),
        format_ns(best.report.total_ns),
    );
    println!("\nsample rows:\n{}", best.rows.render(5));
    Ok(())
}
