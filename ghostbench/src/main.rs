//! `ghostbench`: GhostDB's one seeded benchmark.
//!
//! ```text
//! cargo run --release --manifest-path ghostbench/Cargo.toml -- \
//!     --seed <u64> [--workload <name>] [--traced] [--smoke] [--repeat <n>]
//! ```
//!
//! builds each workload's database, runs a fixed, seed-generated
//! operation list from this one process, checks every answer, and
//! prints every metric by name with its unit. The benchmark driver
//! calls it as `--workload <name> --seed <n> --seconds <s> --trace
//! <0|1>` and reads the last line of standard output, one JSON object.
//! See `README.md` beside this crate for the metric definitions.

mod measure;
mod report;
mod spec;
#[cfg(test)]
mod tests;
mod workloads;

use std::process::ExitCode;

use measure::Meter;
use report::Values;
use spec::{MetricDecl, Workload, END_TO_END, PER_LAYER, RUN_SECONDS, UNGATED_END_TO_END};
use workloads::{Outcome, Params};

/// The paper's secure chip: a run whose device RAM high-water passes
/// this is a failed run.
const DEVICE_RAM_BYTES: usize = 64 * 1024;

struct Cli {
    workloads: Vec<Workload>,
    params: Params,
    /// Driver mode (`--trace` given): the JSON line carries exactly one
    /// metric set.
    driver_trace: Option<bool>,
    repeat: usize,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: ghostbench [--workload <{}|all>] [--seed <u64>] [--seconds <n>] \
         [--trace <0|1>] [--traced] [--smoke] [--repeat <n>] [--print-benchmark-json]",
        names.join("|")
    )
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workloads: Workload::ALL.to_vec(),
        params: Params::new(1),
        driver_trace: None,
        repeat: 1,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if name != "all" {
                    let w = Workload::from_name(name)
                        .ok_or_else(|| format!("unknown workload {name}\n{}", usage()))?;
                    cli.workloads = vec![w];
                }
            }
            "--seed" => {
                cli.params.seed = value("a u64")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: u32 = value("whole seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&s) {
                    return Err("--seconds must be 1..=60".into());
                }
                cli.params.seconds = s;
            }
            "--trace" => {
                cli.driver_trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                });
            }
            "--traced" => cli.params.traced = true,
            "--smoke" => cli.params.smoke = true,
            "--repeat" => {
                cli.repeat = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
            }
            "--print-benchmark-json" => {
                print!("{}", spec::benchmark_json());
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    if cli.driver_trace == Some(true) {
        // The traced run supplies the per-layer table; its untraced
        // pass exists only to give `obs.*` a denominator.
        cli.params.traced = true;
        cli.params.setup_repeats = 1;
    }
    Ok(cli)
}

/// What one workload's run amounts to.
struct Verdict {
    attempted: u64,
    failed: u64,
    correct: bool,
    end_to_end: Values,
    ungated: Values,
    per_layer: Option<Values>,
}

fn judge(outcome: &Outcome) -> Verdict {
    let passes: Vec<&Meter> = outcome
        .untraced
        .iter()
        .chain(outcome.traced.as_ref())
        .collect();
    // The untraced pass is the one counted; failures of any count.
    let attempted = (outcome.last_untraced().ops.len() as u64).max(1);
    let failed: u64 = passes.iter().map(|m| m.failed).sum();
    let mut correct = failed == 0;
    for m in &passes {
        for f in &m.failures {
            eprintln!("  FAILED {f}");
        }
        if m.end.ram_peak_bytes > DEVICE_RAM_BYTES {
            eprintln!(
                "  FAILED device RAM peak {} B exceeds the {DEVICE_RAM_BYTES} B budget",
                m.end.ram_peak_bytes
            );
            correct = false;
        }
    }
    if let Some(t) = &outcome.traced {
        // Tracing must not move simulated time beyond what two runs of
        // one seed differ by anyway.
        let (_, sim_ratio) = report::trace_ratios(outcome.workload, outcome.last_untraced(), t);
        if let Some(tolerance) = outcome.workload.sim_tolerance() {
            if (sim_ratio - 1.0).abs() > tolerance {
                eprintln!("  FAILED tracing changed simulated time: ratio {sim_ratio}");
                correct = false;
            }
        }
    }
    Verdict {
        attempted,
        failed: failed.min(attempted),
        correct,
        end_to_end: report::end_to_end(outcome),
        ungated: report::ungated_end_to_end(outcome),
        per_layer: report::per_layer(outcome),
    }
}

fn print_table(decls: &[MetricDecl], values: &Values) {
    for (decl, (name, value)) in decls.iter().zip(values) {
        debug_assert_eq!(decl.name, name);
        println!(
            "    {:<36} {:>16.4} {:<6} ({} is better)",
            name,
            value,
            decl.unit,
            decl.better.as_str()
        );
    }
}

fn json_line(verdict: &Verdict, sets: &[(&[MetricDecl], &Values)]) -> String {
    let mut metrics = Vec::new();
    for (decls, values) in sets {
        for (decl, (name, value)) in decls.iter().zip(values.iter()) {
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                decl.unit
            ));
        }
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        verdict.correct,
        verdict.attempted,
        verdict.failed,
        metrics.join(", ")
    )
}

fn write_trace(outcome: &Outcome) {
    let Some(traced) = &outcome.traced else {
        return;
    };
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("target");
    let path = dir.join(format!("trace-{}.json", outcome.workload.name()));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, traced.trace_json(outcome.workload.name())));
    match written {
        Ok(()) => eprintln!("  {} spans -> {}", traced.spans.len(), path.display()),
        Err(e) => eprintln!("  could not write {}: {e}", path.display()),
    }
}

/// Run one workload once and print it. Returns the verdict.
fn run_once(workload: Workload, cli: &Cli, params: &Params) -> Result<Verdict, String> {
    let outcome = workloads::run(workload, params)
        .map_err(|e| format!("{}: the run could not finish: {e}", workload.name()))?;
    let verdict = judge(&outcome);
    write_trace(&outcome);
    println!(
        "{} (seed {}, {} ops attempted, {} failed{})",
        workload.name(),
        params.seed,
        verdict.attempted,
        verdict.failed,
        if params.smoke { ", smoke scale" } else { "" }
    );
    println!(
        "  end to end, tracing off ({} samples, {} beyond p99)",
        verdict.attempted,
        verdict.attempted / 100
    );
    print_table(END_TO_END, &verdict.end_to_end);
    print_table(UNGATED_END_TO_END, &verdict.ungated);
    if let (Some(values), Some(traced)) = (&verdict.per_layer, &outcome.traced) {
        println!("  per layer, from the traced pass");
        print_table(PER_LAYER, values);
        // The harness's stage spans against the engine's own.
        for (stage, span, engine) in [
            ("parse", "sql.parse", "engine.parse_ns"),
            ("bind", "sql.bind", "engine.bind_ns"),
        ] {
            eprintln!(
                "  cross-check {stage}: harness span p50 {:.3} us, flight recorder p50 {:.3} us",
                measure::median(traced.span_durations(span)) / 1e3,
                measure::median(traced.extras(engine)) / 1e3
            );
        }
    }
    // The driver reads one declared set per run: the bounded metrics
    // with `--trace 0`, every unbounded one with `--trace 1`.
    let mut sets: Vec<(&[MetricDecl], &Values)> = Vec::new();
    if cli.driver_trace != Some(true) {
        sets.push((END_TO_END, &verdict.end_to_end));
    }
    if cli.driver_trace != Some(false) {
        sets.push((UNGATED_END_TO_END, &verdict.ungated));
        if let Some(values) = &verdict.per_layer {
            sets.push((PER_LAYER, values));
        }
    }
    println!("{}", json_line(&verdict, &sets));
    Ok(verdict)
}

/// `statistics.quantiles(values, n=4)` of Python (the exclusive
/// method), which is how the benchmark driver measures spread.
fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    let at = |k: usize| {
        let j = (k * (n + 1) / 4).clamp(1, (n - 1).max(1));
        let delta = (k * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j.min(n - 1)] * delta) / 4.0
    };
    (at(1), at(2), at(3))
}

/// `--repeat n`: run the workload on `n` consecutive seeds and print,
/// per end-to-end metric, median, quartiles, the quartile distance as
/// a share of the median (what the driver compares with the bound) and
/// the largest relative deviation from the median.
fn spread_report(workload: Workload, cli: &Cli) -> Result<bool, String> {
    let mut runs: Vec<Values> = Vec::new();
    let mut all_correct = true;
    for i in 0..cli.repeat {
        let mut params = cli.params;
        params.seed = cli.params.seed + i as u64;
        let verdict = run_once(workload, cli, &params)?;
        all_correct &= verdict.correct;
        runs.push(verdict.end_to_end);
    }
    println!(
        "{}: spread of {} runs, seeds {}..={}",
        workload.name(),
        cli.repeat,
        cli.params.seed,
        cli.params.seed + cli.repeat as u64 - 1
    );
    println!(
        "    {:<28} {:>14} {:>14} {:>14} {:>9} {:>9} {:>7}",
        "metric", "q1", "median", "q3", "iqr/med", "max dev", "bound"
    );
    for (i, decl) in END_TO_END.iter().enumerate() {
        let values: Vec<f64> = runs.iter().filter_map(|r| r.get(i).map(|x| x.1)).collect();
        if values.len() < 2 {
            continue;
        }
        let (q1, med, q3) = quartiles(&values);
        let max_dev = values
            .iter()
            .map(|x| ((x - med) / med).abs())
            .fold(0.0, f64::max);
        println!(
            "    {:<28} {:>14.4} {:>14.4} {:>14.4} {:>8.2}% {:>8.2}% {:>6.0}%",
            decl.name,
            q1,
            med,
            q3,
            100.0 * (q3 - q1) / med,
            100.0 * max_dev,
            100.0 * decl.bound.unwrap_or(0.0)
        );
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    if cli.params.seconds != RUN_SECONDS {
        eprintln!(
            "note: op counts scale with --seconds; BENCHMARK.json records {RUN_SECONDS} s runs"
        );
    }
    let mut all_correct = true;
    for &workload in &cli.workloads {
        let result = if cli.repeat > 1 {
            spread_report(workload, &cli)
        } else {
            run_once(workload, &cli, &cli.params).map(|v| v.correct)
        };
        match result {
            Ok(correct) => all_correct &= correct,
            Err(msg) => {
                eprintln!("{msg}");
                return ExitCode::FAILURE;
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
