//! Tests of the benchmark itself: its wrappers are transparent, its names
//! are well-formed and match `BENCHMARK.json`, and its correctness checks
//! catch a wrong expected value.

use std::cell::RefCell;
use std::rc::Rc;

use champsim_lite::SystemConfig;
use nsbench::checks::{format_expected, parse_expected, Checks, EXPECTED};
use nsbench::metrics::{result_line, Values, END_TO_END, PER_LAYER};
use nsbench::probe::{Recording, RowProbe, Traced};
use nsbench::workload::{row_fields, run_rep, RowRun, Workload};

fn short_rep(
    workload: Workload,
    probe: impl FnMut(maya_bench::designs::Design) -> RowProbe,
) -> Vec<RowRun> {
    let config = SystemConfig::eight_core_default().with_instructions(5_000, 20_000);
    run_rep(workload, &config, 7, probe).0
}

/// The name rule `BENCHMARK.json` imposes: `[A-Za-z0-9_.-]+`.
fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn wrappers_leave_statistics_bit_identical() {
    for workload in Workload::ALL {
        let bare = short_rep(workload, |_| RowProbe::Plain);
        let mut traced = Vec::new();
        let timed = short_rep(workload, |_| {
            let t = Rc::new(RefCell::new(Traced::new(0.0)));
            traced.push(Rc::clone(&t));
            RowProbe::Traced(t)
        });
        let recorded = short_rep(workload, |_| {
            RowProbe::Recording(Rc::new(RefCell::new(Recording::default())))
        });
        assert_eq!(bare.len(), workload.designs().len());
        for ((b, t), r) in bare.iter().zip(&timed).zip(&recorded) {
            assert_eq!(row_fields(b), row_fields(t), "{}", workload.name());
            assert_eq!(row_fields(b), row_fields(r), "{}", workload.name());
        }
        // The wrappers saw the traffic they claim to measure.
        for (row, t) in timed.iter().zip(&traced) {
            let t = t.borrow();
            // `CacheStats` counts only since the warm-up reset; the wrapper
            // counts every call.
            assert!(t.calls() >= row.result.llc.accesses());
            assert!(t.fill_accesses >= row.accesses);
            assert!(t.samples() > 0);
        }
    }
}

#[test]
fn names_are_well_formed_and_unique() {
    let mut names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    names.extend(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name));
    for name in &names {
        assert!(valid_name(name), "{name:?} is not [A-Za-z0-9_.-]+");
        assert!(name.len() <= 64, "{name:?} is longer than 64");
    }
    let mut sorted = names.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), names.len(), "a name is used twice");
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s"));
}

#[test]
fn benchmark_json_lists_exactly_the_emitted_names() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to the package");
    for w in Workload::ALL {
        assert!(
            json.contains(&format!("\"name\": \"{}\", \"why\": ", w.name())),
            "workload {} missing",
            w.name()
        );
    }
    for m in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!(
            "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            m.name, m.unit, m.better
        );
        assert!(json.contains(&entry), "{entry} missing");
    }
    let listed = json.matches("\"name\": ").count();
    assert_eq!(
        listed,
        Workload::ALL.len() + END_TO_END.len() + PER_LAYER.len()
    );
}

#[test]
fn result_line_carries_every_metric_once() {
    let values: Values = END_TO_END.iter().map(|m| (m.name, 1.5)).collect();
    let line = result_line(END_TO_END, &values, 4, 1);
    assert!(line.starts_with("{\"correct\": false, \"attempted\": 4, \"failed\": 1, "));
    for m in END_TO_END {
        assert_eq!(line.matches(&format!("\"{}\": ", m.name)).count(), 1);
    }
}

#[test]
fn stored_expected_values_parse_and_cover_every_row() {
    let table = parse_expected(EXPECTED).expect("expected.txt parses");
    for w in Workload::ALL {
        for d in w.designs() {
            let key = (w.name().to_string(), 1, d.id());
            assert!(table.contains_key(&key), "no stored row {key:?}");
        }
    }
}

#[test]
fn corrupted_expected_value_fails_a_check() {
    let workload = Workload::LbmMaya;
    let rows = short_rep(workload, |_| RowProbe::Plain);
    let text: String = rows
        .iter()
        .map(|r| format_expected(workload, 7, r))
        .collect();
    let table = parse_expected(&text).expect("formatted rows parse");
    let mut clean = Checks::default();
    for row in &rows {
        clean.row(&table, workload, 7, row);
    }
    assert_eq!(clean.failed, 0, "{:?}", clean.messages);
    assert_eq!(clean.failed_frac(), 0.0);

    let corrupted = text.replacen("llc.data_fills=", "llc.data_fills=1", 1);
    let table = parse_expected(&corrupted).expect("corrupted rows parse");
    let mut checks = Checks::default();
    for row in &rows {
        checks.row(&table, workload, 7, row);
    }
    assert_eq!(checks.failed, 1);
    assert!(checks.failed_frac() > 0.0);
    assert!(
        checks.messages[0].contains("llc.data_fills"),
        "{:?}",
        checks.messages
    );
}
