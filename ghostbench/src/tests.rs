//! Self-tests of the harness: the declarations are well-formed and
//! match `BENCHMARK.json`, op lists come from the seed alone, and the
//! simulated-time and count metrics of a seed repeat.
//!
//! Run with `cargo test --release --manifest-path ghostbench/Cargo.toml`
//! (the determinism test builds twelve small databases).

use std::collections::BTreeSet;

use crate::report::{self, Values};
use crate::spec::{benchmark_json, Workload, END_TO_END, OPERATORS, PER_LAYER, UNGATED_END_TO_END};
use crate::workloads::{self, Outcome, Params};

fn smoke(seed: u64) -> Params {
    Params {
        smoke: true,
        traced: true,
        setup_repeats: 1,
        ..Params::new(seed)
    }
}

fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    (1..=16).contains(&unit.len()) && unit.chars().all(ok)
}

#[test]
fn declarations_are_well_formed() {
    let mut seen = BTreeSet::new();
    for w in Workload::ALL {
        assert!(valid_name(w.name()), "workload name {}", w.name());
        assert!(seen.insert(w.name()), "duplicate name {}", w.name());
        assert!(w.why().len() <= 200, "{}: why is too long", w.name());
        assert!(!w.why().contains(['\n', '"', '\\']), "{}", w.name());
        assert_eq!(Workload::from_name(w.name()), Some(w));
    }
    for m in END_TO_END.iter().chain(UNGATED_END_TO_END).chain(PER_LAYER) {
        assert!(valid_name(m.name), "metric name {}", m.name);
        assert!(valid_unit(m.unit), "unit {} of {}", m.unit, m.name);
        assert!(seen.insert(m.name), "duplicate name {}", m.name);
    }
    for m in END_TO_END {
        let bound = m.bound.expect("bounded");
        assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
    }
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s"));
    assert!(UNGATED_END_TO_END.len() + PER_LAYER.len() <= 128);
    for op in OPERATORS {
        let name = crate::spec::op_metric_name(op);
        assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
    }
}

#[test]
fn benchmark_json_is_the_rendered_spec() {
    assert_eq!(
        include_str!("../../BENCHMARK.json"),
        benchmark_json(),
        "BENCHMARK.json drifted: regenerate it with --print-benchmark-json"
    );
}

#[test]
fn op_lists_come_from_the_seed_alone() {
    for w in Workload::ALL {
        let a = workloads::op_list(w, &smoke(7));
        assert_eq!(a, workloads::op_list(w, &smoke(7)), "{}", w.name());
        assert_ne!(a, workloads::op_list(w, &smoke(8)), "{}", w.name());
        assert!(!a.is_empty(), "{}", w.name());
    }
}

/// Metrics that depend on the host's clock or scheduler.
fn host_dependent(name: &str) -> bool {
    name.contains("host")
        || name == "setup_s"
        || name == "obs.trace_overhead_ratio"
        || name.starts_with("core.reader_")
}

fn all_values(outcome: &Outcome) -> Values {
    let mut v = report::end_to_end(outcome);
    v.extend(report::ungated_end_to_end(outcome));
    v.extend(report::per_layer(outcome).expect("traced pass ran"));
    v
}

#[test]
fn printed_names_are_the_declared_names() {
    let outcome = workloads::run(Workload::PointHot, &smoke(1)).expect("run");
    let printed: Vec<String> = all_values(&outcome).into_iter().map(|(k, _)| k).collect();
    let declared: Vec<&str> = END_TO_END
        .iter()
        .chain(UNGATED_END_TO_END)
        .chain(PER_LAYER)
        .map(|m| m.name)
        .collect();
    assert_eq!(printed, declared);
}

/// The same seed twice: every simulated-time and count metric repeats
/// bit for bit on the read-only workloads. On the write path
/// ([`Workload::sim_tolerance`] > 0) the hash-ordered flush moves the
/// physical layout, and at smoke scale a page-read count of a thousand
/// moves by 3 %; those are held to 5 %.
#[test]
fn same_seed_repeats_simulated_and_count_metrics() {
    for w in Workload::ALL {
        let Some(tolerance) = w.sim_tolerance() else {
            continue;
        };
        let first = workloads::run(w, &smoke(11)).expect("first run");
        let second = workloads::run(w, &smoke(11)).expect("second run");
        assert_eq!(
            first.last_untraced().failed + second.last_untraced().failed,
            0
        );
        for ((name, a), (_, b)) in all_values(&first).into_iter().zip(all_values(&second)) {
            if host_dependent(&name) {
                continue;
            }
            let allowed = if tolerance == 0.0 {
                0.0
            } else {
                0.05 * a.abs().max(b.abs())
            };
            assert!((a - b).abs() <= allowed, "{}: {name} {a} vs {b}", w.name());
        }
    }
}

#[test]
fn a_different_seed_still_answers_every_operation() {
    let outcome = workloads::run(Workload::Churn, &smoke(12345)).expect("run");
    let phase = outcome.last_untraced();
    assert_eq!(phase.failed, 0, "{:?}", phase.failures);
    assert!(phase.ops.iter().any(|o| o.flushed));
}
