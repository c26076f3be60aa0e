//! Correctness checks and the stored expected statistics.
//!
//! Every check is counted as attempted, and as failed when it does not
//! hold; `failed_frac` is their ratio. The checks are:
//!
//! * `expected` — a row's simulated statistics equal the values stored in
//!   `expected.txt` for that workload and seed (only seeds stored there);
//! * `audit` — `CacheModel::audit` passes after the row;
//! * `saes` — Maya and Mirage rows see no set-associative eviction;
//! * `transparent` — traced and recording repetitions reproduce the
//!   untraced repetition's statistics exactly;
//! * `replay` — the isolated replays reproduce the recorded LLC responses
//!   and the row's DRAM read and write counts.

use std::collections::BTreeMap;

use maya_bench::designs::Design;

use crate::workload::{row_fields, RowRun, Workload};

/// The stored expected statistics, one line per row:
/// `<workload> <seed> <design> <field>=<value> ...`.
pub const EXPECTED: &str = include_str!("../expected.txt");

/// Stored expected statistics keyed by `(workload, seed, design)`.
pub type ExpectedTable = BTreeMap<(String, u64, String), Vec<(String, u64)>>;

/// Parses the expected-statistics format (`#` starts a comment line).
pub fn parse_expected(text: &str) -> Result<ExpectedTable, String> {
    let mut table = ExpectedTable::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut tokens = line.split_whitespace();
        let (Some(workload), Some(seed), Some(design)) =
            (tokens.next(), tokens.next(), tokens.next())
        else {
            return Err(format!(
                "line {}: expected `<workload> <seed> <design>`",
                n + 1
            ));
        };
        let seed = seed
            .parse()
            .map_err(|e| format!("line {}: bad seed {seed:?}: {e}", n + 1))?;
        let fields = table
            .entry((workload.to_string(), seed, design.to_string()))
            .or_default();
        for kv in tokens {
            let (k, v) = kv
                .split_once('=')
                .ok_or_else(|| format!("line {}: expected `field=value`, got {kv:?}", n + 1))?;
            let v = v
                .parse()
                .map_err(|e| format!("line {}: bad value in {kv:?}: {e}", n + 1))?;
            fields.push((k.to_string(), v));
        }
    }
    Ok(table)
}

/// Formats a row's statistics in the expected-statistics format.
pub fn format_expected(workload: Workload, seed: u64, row: &RowRun) -> String {
    let mut out = String::new();
    let fields = row_fields(row);
    // One line for the row totals, then one per core.
    let mut groups: Vec<(String, Vec<&(String, u64)>)> = Vec::new();
    for f in &fields {
        let group = f.0.split_once('.').map_or("", |(g, _)| g);
        let group = if group.starts_with("core") { group } else { "" };
        match groups.last_mut() {
            Some((g, v)) if g == group => v.push(f),
            _ => groups.push((group.to_string(), vec![f])),
        }
    }
    for (_, fields) in groups {
        out.push_str(&format!("{} {seed} {}", workload.name(), row.design.id()));
        for (k, v) in fields {
            out.push_str(&format!(" {k}={v}"));
        }
        out.push('\n');
    }
    out
}

/// The first difference between two field lists, if any.
pub fn first_difference(want: &[(String, u64)], got: &[(String, u64)]) -> Option<String> {
    for (i, g) in got.iter().enumerate() {
        match want.get(i) {
            Some(w) if w == g => {}
            Some((k, v)) => return Some(format!("{}: expected {k}={v}, got {}", g.0, g.1)),
            None => return Some(format!("{}: not expected", g.0)),
        }
    }
    (want.len() > got.len()).then(|| format!("{}: missing", want[got.len()].0))
}

/// Attempted and failed check counts, with the first few failure messages.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks attempted.
    pub attempted: u64,
    /// Checks that did not hold.
    pub failed: u64,
    /// Descriptions of the first failures.
    pub messages: Vec<String>,
}

impl Checks {
    /// Records one check; `failure` is `Some(reason)` when it did not hold.
    pub fn record(&mut self, name: &str, failure: Option<String>) {
        self.attempted += 1;
        if let Some(reason) = failure {
            self.failed += 1;
            if self.messages.len() < 16 {
                self.messages.push(format!("{name}: {reason}"));
            }
        }
    }

    /// Failed over attempted checks.
    pub fn failed_frac(&self) -> f64 {
        crate::stats::ratio(self.failed as f64, self.attempted as f64)
    }

    /// The per-row checks every repetition makes: `audit`, `saes`, and
    /// `expected` when `table` holds this workload and seed.
    pub fn row(&mut self, table: &ExpectedTable, workload: Workload, seed: u64, row: &RowRun) {
        let id = row.design.id();
        self.record(
            "audit",
            row.audit.as_ref().err().map(|e| format!("{id}: {e}")),
        );
        if matches!(row.design, Design::Maya | Design::Mirage) {
            let saes = row.result.llc.saes;
            self.record(
                "saes",
                (saes != 0).then(|| format!("{id}: {saes} set-associative evictions")),
            );
        }
        let name = workload.name();
        let stored = table.keys().any(|(w, s, _)| w == name && *s == seed);
        if stored {
            let got = row_fields(row);
            let failure = match table.get(&(name.to_string(), seed, id.clone())) {
                Some(want) => first_difference(want, &got).map(|d| format!("{id}: {d}")),
                None => Some(format!("{id}: no stored row")),
            };
            self.record("expected", failure);
        }
    }
}
