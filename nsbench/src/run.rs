//! The untraced and traced runs.
//!
//! The untraced run repeats the workload on bare systems until the time
//! budget is spent and reports the end-to-end metrics. The traced run
//! alternates bare and traced repetitions for the same budget, then runs
//! one recording repetition whose streams feed the isolated replays, and
//! reports the per-layer metrics.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use maya_bench::designs::Design;
use workloads::block::TraceCache;

use crate::checks::{first_difference, parse_expected, Checks, ExpectedTable, EXPECTED};
use crate::metrics::Values;
use crate::probe::{timer_overhead_ns, Recording, RowProbe, Traced};
use crate::reference::{scale, Reference};
use crate::replay;
use crate::stats::{median, ratio};
use crate::workload::{build_row, row_fields, run_rep, run_row, RowRun, Workload};

/// Fewest repetitions (or bare/traced pairs) a run makes, however short
/// its budget.
pub const MIN_REPS: usize = 3;

/// System builds the untraced run times for `setup_s`, before its timed
/// repetitions.
pub const SETUP_REPS: usize = 31;

/// What a run measured and checked.
pub struct Outcome {
    /// Metric values by name.
    pub values: Values,
    /// The correctness checks.
    pub checks: Checks,
    /// Human-readable lines about the measurement itself.
    pub notes: Vec<String>,
}

/// A benchmark invocation.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// Seed of the trace generators.
    pub seed: u64,
    /// Time budget for the timed repetitions.
    pub budget: Duration,
}

fn expected_table() -> ExpectedTable {
    parse_expected(EXPECTED).expect("expected.txt is well-formed (checked by the tests)")
}

fn wall_ns(rows: &[RowRun]) -> f64 {
    rows.iter().map(|r| r.run_s).sum::<f64>() * 1e9
}

fn accesses(rows: &[RowRun]) -> u64 {
    rows.iter().map(|r| r.accesses).sum()
}

/// Peak resident set of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The untraced run: end-to-end metrics.
pub fn untraced(plan: Plan) -> Outcome {
    let Plan {
        workload,
        seed,
        budget,
    } = plan;
    let table = expected_table();
    let config = workload.config();
    let mut checks = Checks::default();
    let mut reference = Reference::default();
    let mut before = reference.measure();
    let mut setup: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let mut cache = TraceCache::default();
            workload
                .designs()
                .iter()
                .map(|&d| build_row(workload, &config, seed, d, &mut cache, &RowProbe::Plain).1)
                .sum()
        })
        .collect();
    let after = reference.measure();
    let setup_s = median(&mut setup) * scale(before, after);
    before = after;
    let (mut ns, mut raw_ns, mut ref_ns) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while ns.len() < MIN_REPS || start.elapsed() < budget {
        let (rows, _) = run_rep(workload, &config, seed, |_| RowProbe::Plain);
        let after = reference.measure();
        for row in &rows {
            checks.row(&table, workload, seed, row);
        }
        let raw = wall_ns(&rows) / accesses(&rows) as f64;
        raw_ns.push(raw);
        ns.push(raw * scale(before, after));
        ref_ns.push((before + after) / 2.0);
        before = after;
    }
    let notes = vec![format!(
        "host: {} repetitions, raw ns_per_access median {:.2} ns, reference kernel median {:.3} ns/op",
        ns.len(),
        median(&mut raw_ns),
        median(&mut ref_ns),
    )];
    let mut values = Values::new();
    values.insert("ns_per_access", median(&mut ns));
    values.insert("setup_s", setup_s);
    values.insert("peak_rss_mib", peak_rss_mib());
    Outcome {
        values,
        checks,
        notes,
    }
}

/// Per-metric samples, one per traced repetition.
#[derive(Default)]
struct Samples(std::collections::BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &'static str, v: f64) {
        self.0.entry(name).or_default().push(v);
    }

    fn medians(mut self) -> Values {
        self.0.iter_mut().map(|(k, v)| (*k, median(v))).collect()
    }
}

const DESIGN_KEYS: [(Design, [&str; 3]); 3] = [
    (
        Design::Baseline,
        [
            "llc.baseline.ns_per_call",
            "llc.baseline.busy_frac",
            "llc.baseline.samples",
        ],
    ),
    (
        Design::Mirage,
        [
            "llc.mirage.ns_per_call",
            "llc.mirage.busy_frac",
            "llc.mirage.samples",
        ],
    ),
    (
        Design::Maya,
        [
            "llc.maya.ns_per_call",
            "llc.maya.busy_frac",
            "llc.maya.samples",
        ],
    ),
];

const KIND_KEYS: [[&str; 3]; 3] = [
    ["llc.read.ns_per_call", "llc.read.calls", "llc.read.samples"],
    [
        "llc.writeback.ns_per_call",
        "llc.writeback.calls",
        "llc.writeback.samples",
    ],
    [
        "llc.prefetch.ns_per_call",
        "llc.prefetch.calls",
        "llc.prefetch.samples",
    ],
];

/// The per-layer values of one traced repetition.
fn traced_rep_values(rows: &[RowRun], traced: &[Traced], streams: (u64, u64), out: &mut Samples) {
    let wall = wall_ns(rows);
    let acc = accesses(rows) as f64;
    let fill_ns: f64 = traced.iter().map(|t| t.fill_ns).sum();
    let llc_ns: f64 = traced.iter().map(Traced::llc_ns).sum();
    let calls: u64 = traced.iter().map(Traced::calls).sum();
    out.push("workloads.fill.ns_per_access", fill_ns / acc);
    out.push("workloads.fill.busy_frac", ratio(fill_ns, wall));
    out.push(
        "workloads.fill.calls",
        traced.iter().map(|t| t.fill_calls).sum::<u64>() as f64,
    );
    out.push("workloads.streams_synthesized", streams.0 as f64);
    out.push("workloads.streams_replayed", streams.1 as f64);
    out.push("sim.self.ns_per_access", (wall - llc_ns - fill_ns) / acc);
    out.push("llc.calls_per_access", calls as f64 / acc);
    out.push("llc.calls", calls as f64);
    out.push(
        "llc.samples",
        traced.iter().map(Traced::samples).sum::<u64>() as f64,
    );
    out.push("llc.ns_per_call", ratio(llc_ns, calls as f64));
    for (design, [ns_key, busy_key, samples_key]) in DESIGN_KEYS {
        let row = rows.iter().zip(traced).find(|(r, _)| r.design == design);
        let (ns, busy, samples) = row.map_or((0.0, 0.0, 0), |(r, t)| {
            (
                ratio(t.llc_ns(), t.calls() as f64),
                ratio(t.llc_ns(), r.run_s * 1e9),
                t.samples(),
            )
        });
        out.push(ns_key, ns);
        out.push(busy_key, busy);
        out.push(samples_key, samples as f64);
    }
    for (k, [ns_key, calls_key, samples_key]) in KIND_KEYS.into_iter().enumerate() {
        let sampled: f64 = traced.iter().map(|t| t.llc_sampled_ns[k]).sum();
        let samples: u64 = traced.iter().map(|t| t.llc_samples[k]).sum();
        out.push(ns_key, ratio(sampled, samples as f64));
        out.push(
            calls_key,
            traced.iter().map(|t| t.llc_calls[k]).sum::<u64>() as f64,
        );
        out.push(samples_key, samples as f64);
    }
    let data_hits: u64 = traced.iter().map(|t| t.llc_events[0]).sum();
    out.push("llc.data_hit_frac", ratio(data_hits as f64, calls as f64));
    let (reads, writes, row_hits) = rows.iter().fold((0, 0, 0), |acc, r| {
        (
            acc.0 + r.result.dram.0,
            acc.1 + r.result.dram.1,
            acc.2 + r.result.dram.2,
        )
    });
    out.push("sim.dram.reads", reads as f64);
    out.push("sim.dram.writes", writes as f64);
    out.push(
        "sim.dram.row_hit_frac",
        ratio(row_hits as f64, reads as f64),
    );
    let maya = &rows.last().expect("every workload has rows").result;
    out.push("sim.ipc_sum", maya.ipc_sum());
    out.push("sim.mpki", maya.avg_mpki());
    out.push(
        "sim.cycles",
        maya.cores.iter().map(|c| c.cycles).max().unwrap_or(0) as f64,
    );
    out.push("llc.tag_only_hits", maya.llc.tag_only_hits as f64);
    out.push("llc.data_fills", maya.llc.data_fills as f64);
    out.push("llc.gte", maya.llc.global_tag_evictions as f64);
    out.push("llc.gde", maya.llc.global_data_evictions as f64);
    out.push("llc.saes", maya.llc.saes as f64);
    out.push("trace.accesses", acc);
    out.push("trace.wall_s", wall / 1e9);
}

/// Records `transparent`: `got` reproduces the bare repetition's `want`.
fn check_transparent(checks: &mut Checks, what: &str, want: &[RowRun], got: &[RowRun]) {
    for (w, g) in want.iter().zip(got) {
        let diff = first_difference(&row_fields(w), &row_fields(g));
        checks.record(
            "transparent",
            diff.map(|d| format!("{what} {}: {d}", g.design.id())),
        );
    }
}

/// The traced run: per-layer metrics.
pub fn traced(plan: Plan) -> Outcome {
    let Plan {
        workload,
        seed,
        budget,
    } = plan;
    let table = expected_table();
    let config = workload.config();
    let timer_ns = timer_overhead_ns();
    let mut checks = Checks::default();
    let mut samples = Samples::default();
    let (mut bare_ns, mut traced_ns) = (Vec::new(), Vec::new());
    let mut bare_rows = Vec::new();
    let mut reference = Reference::default();
    let mut ref_ns = Vec::new();
    let start = Instant::now();
    while traced_ns.len() < MIN_REPS || start.elapsed() < budget {
        ref_ns.push(reference.measure());
        let (bare, _) = run_rep(workload, &config, seed, |_| RowProbe::Plain);
        bare_ns.push(wall_ns(&bare) / accesses(&bare) as f64);
        let mut handles = Vec::new();
        let (rows, streams) = run_rep(workload, &config, seed, |_| {
            let t = Rc::new(RefCell::new(Traced::new(timer_ns)));
            handles.push(Rc::clone(&t));
            RowProbe::Traced(t)
        });
        traced_ns.push(wall_ns(&rows) / accesses(&rows) as f64);
        for row in bare.iter().chain(&rows) {
            checks.row(&table, workload, seed, row);
        }
        check_transparent(&mut checks, "traced", &bare, &rows);
        let traced: Vec<Traced> = handles.iter().map(|t| t.borrow().clone()).collect();
        traced_rep_values(&rows, &traced, streams, &mut samples);
        bare_rows = bare;
    }
    let mut values = samples.medians();
    values.insert("trace.reps", traced_ns.len() as f64);
    let bare_median = median(&mut bare_ns);
    values.insert(
        "trace.overhead_frac",
        median(&mut traced_ns) / bare_median - 1.0,
    );
    values.insert("host.raw_ns_per_access", bare_median);
    values.insert("host.ref_ns_per_op", median(&mut ref_ns));
    values.insert("timer.ns_per_read", timer_ns);
    isolated(workload, seed, &bare_rows, &mut values, &mut checks);
    let in_situ_self = values["sim.self.ns_per_access"];
    let dram_per_access = ratio(
        values["sim.dram.reads"] + values["sim.dram.writes"],
        values["trace.accesses"],
    );
    let explained = values["sim.l1.ns_per_lookup"]
        + values["sim.l2.ns_per_lookup"]
            * ratio(values["sim.l2.lookups"], values["sim.l1.lookups"])
        + values["sim.prefetch.ns_per_observe"]
        + values["sim.dram.ns_per_op"] * dram_per_access;
    values.insert("sim.unexplained_frac", 1.0 - ratio(explained, in_situ_self));
    values.insert("failed_frac", checks.failed_frac());
    Outcome {
        values,
        checks,
        notes: Vec::new(),
    }
}

/// One recording repetition, row by row, and the isolated replays of what
/// each row recorded. The front-end replays use the last (Maya) row.
fn isolated(
    workload: Workload,
    seed: u64,
    bare: &[RowRun],
    values: &mut Values,
    checks: &mut Checks,
) {
    let config = workload.config();
    let mut cache = TraceCache::default();
    let (mut llc_ns, mut llc_calls) = (0.0, 0u64);
    let (mut dram_ns, mut dram_ops) = (0.0, 0u64);
    let designs = workload.designs();
    for (i, &design) in designs.iter().enumerate() {
        let rec = Rc::new(RefCell::new(Recording::default()));
        let row = run_row(
            workload,
            &config,
            seed,
            design,
            &mut cache,
            &RowProbe::Recording(Rc::clone(&rec)),
        );
        check_transparent(
            checks,
            "recording",
            &bare[i..=i],
            std::slice::from_ref(&row),
        );
        let rec = rec.borrow();
        let id = design.id();
        let (llc, diverged) = replay::llc(&rec, design, &config);
        checks.record(
            "replay",
            diverged.map(|at| {
                format!("{id}: isolated LLC response {at} differs from the recorded one")
            }),
        );
        llc_ns += llc.ns_per_op * llc.ops as f64;
        llc_calls += llc.ops;
        let (dram, counts) = replay::dram(&rec, &config);
        let want = (row.result.dram.0, row.result.dram.1);
        checks.record(
            "replay",
            (counts != want).then(|| {
                format!("{id}: recorded LLC traffic implies DRAM (reads, writes) {counts:?}, the row counted {want:?}")
            }),
        );
        dram_ns += dram.ns_per_op * dram.ops as f64;
        dram_ops += dram.ops;
        if i + 1 == designs.len() {
            front_end(workload, seed, &rec, values);
        }
    }
    values.insert("llc.isolated.ns_per_call", ratio(llc_ns, llc_calls as f64));
    values.insert("llc.isolated.calls", llc_calls as f64);
    values.insert("sim.dram.ns_per_op", ratio(dram_ns, dram_ops as f64));
    values.insert("sim.dram.ops", dram_ops as f64);
}

/// The isolated front-end and index replays of the Maya row's recording.
fn front_end(workload: Workload, seed: u64, rec: &Recording, values: &mut Values) {
    let config = workload.config();
    let gen = replay::generation(&workload.specs(&config), seed, rec);
    values.insert("workloads.gen.ns_per_access", gen.ns_per_op);
    values.insert("workloads.gen.accesses", gen.ops as f64);
    let private = replay::private_caches(&rec.streams, &config);
    values.insert("sim.l1.ns_per_lookup", private.l1.ns_per_op);
    values.insert("sim.l1.lookups", private.l1.ops as f64);
    values.insert(
        "sim.l1.hit_frac",
        ratio(private.l1_hits as f64, private.l1.ops as f64),
    );
    values.insert("sim.l2.ns_per_lookup", private.l2.ns_per_op);
    values.insert("sim.l2.lookups", private.l2.ops as f64);
    values.insert(
        "sim.l2.hit_frac",
        ratio(private.l2_hits as f64, private.l2.ops as f64),
    );
    let pf = replay::prefetcher(&rec.streams, &config);
    values.insert("sim.prefetch.ns_per_observe", pf.ns_per_op);
    values.insert("sim.prefetch.observes", pf.ops as f64);
    let index = replay::prince_index(rec, &config);
    values.insert("prince.index.ns_per_call", index.ns_per_op);
    values.insert("prince.index.calls", index.ops as f64);
}
