//! The metric catalogue and the result line.
//!
//! Every metric the benchmark prints is declared here once, with its unit,
//! the direction that counts as better, and the base it is computed over.
//! `BENCHMARK.json` lists the same names; a test keeps the two in step.

use std::collections::BTreeMap;

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// What the value is computed over (its denominator or sample).
    pub base: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    base: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        base,
    }
}

/// End-to-end metrics, printed by the untraced run (`--trace 0`).
pub const END_TO_END: &[Metric] = &[
    m(
        "ns_per_access",
        "ns",
        "lower",
        "median over repetitions of System::run wall time over trace accesses (all rows), at the reference kernel's nominal speed",
    ),
    m(
        "setup_s",
        "s",
        "lower",
        "median of 31 builds of every row's System (Design::build to System::with_generators), at the nominal speed",
    ),
    m(
        "peak_rss_mib",
        "MiB",
        "lower",
        "VmHWM of the process, which runs only this workload",
    ),
];

/// Per-layer metrics, printed by the traced run (`--trace 1`). Timings in
/// situ are medians over traced repetitions; isolated ones are medians of
/// three replays of the recorded streams.
pub const PER_LAYER: &[Metric] = &[
    m("workloads.fill.ns_per_access", "ns", "lower", "fill_block time over trace accesses"),
    m("workloads.fill.busy_frac", "frac", "lower", "fill_block time over traced run wall time"),
    m("workloads.fill.calls", "count", "lower", "timed fill_block calls per traced repetition (every call is timed)"),
    m("workloads.gen.ns_per_access", "ns", "lower", "isolated fresh fill_block synthesis, over workloads.gen.accesses"),
    m("workloads.gen.accesses", "count", "higher", "accesses synthesized per isolated replay"),
    m("workloads.streams_synthesized", "count", "lower", "per repetition, from the TraceCache stats"),
    m("workloads.streams_replayed", "count", "higher", "per repetition, from the TraceCache stats"),
    m("sim.self.ns_per_access", "ns", "lower", "traced wall time minus LLC and fill time, over trace accesses"),
    m("sim.l1.ns_per_lookup", "ns", "lower", "isolated L1D replay, over sim.l1.lookups"),
    m("sim.l1.lookups", "count", "higher", "L1D lookups per isolated replay"),
    m("sim.l1.hit_frac", "frac", "higher", "hits over sim.l1.lookups"),
    m("sim.l2.ns_per_lookup", "ns", "lower", "isolated L2 replay, over sim.l2.lookups"),
    m("sim.l2.lookups", "count", "higher", "L2 lookups per isolated replay"),
    m("sim.l2.hit_frac", "frac", "higher", "hits over sim.l2.lookups"),
    m("sim.prefetch.ns_per_observe", "ns", "lower", "isolated observe_into replay, over sim.prefetch.observes"),
    m("sim.prefetch.observes", "count", "higher", "observe_into calls per isolated replay"),
    m("sim.dram.ns_per_op", "ns", "lower", "isolated DRAM replay of the recorded LLC traffic, over sim.dram.ops"),
    m("sim.dram.ops", "count", "higher", "DRAM reads and writes per isolated replay"),
    m("sim.dram.reads", "count", "lower", "in situ, summed over rows"),
    m("sim.dram.writes", "count", "lower", "in situ, summed over rows"),
    m("sim.dram.row_hit_frac", "frac", "higher", "row hits over sim.dram.reads"),
    m("sim.unexplained_frac", "frac", "lower", "share of sim.self.ns_per_access the isolated L1D, L2, prefetch and DRAM costs do not cover"),
    m("sim.ipc_sum", "ipc", "higher", "Maya row, simulated"),
    m("sim.mpki", "mpki", "lower", "Maya row, simulated, mean over cores"),
    m("sim.cycles", "cycles", "lower", "Maya row, simulated, slowest core"),
    m("llc.calls_per_access", "ratio", "lower", "LLC calls over trace accesses, all rows"),
    m("llc.calls", "count", "lower", "LLC calls per traced repetition, all rows"),
    m("llc.samples", "count", "higher", "timed LLC calls per traced repetition, all rows"),
    m("llc.ns_per_call", "ns", "lower", "in situ, sampled mean per kind times calls per kind, over llc.calls"),
    m("llc.baseline.ns_per_call", "ns", "lower", "baseline row, over its calls (0 without the row)"),
    m("llc.baseline.busy_frac", "frac", "lower", "baseline row LLC time over the row's traced wall time"),
    m("llc.baseline.samples", "count", "higher", "timed calls in the baseline row"),
    m("llc.mirage.ns_per_call", "ns", "lower", "mirage row, over its calls (0 without the row)"),
    m("llc.mirage.busy_frac", "frac", "lower", "mirage row LLC time over the row's traced wall time"),
    m("llc.mirage.samples", "count", "higher", "timed calls in the mirage row"),
    m("llc.maya.ns_per_call", "ns", "lower", "maya row, over its calls"),
    m("llc.maya.busy_frac", "frac", "lower", "maya row LLC time over the row's traced wall time"),
    m("llc.maya.samples", "count", "higher", "timed calls in the maya row"),
    m("llc.read.ns_per_call", "ns", "lower", "mean of the timed read calls, all rows"),
    m("llc.read.calls", "count", "lower", "read calls per traced repetition"),
    m("llc.read.samples", "count", "higher", "timed read calls"),
    m("llc.writeback.ns_per_call", "ns", "lower", "mean of the timed writeback calls, all rows"),
    m("llc.writeback.calls", "count", "lower", "writeback calls per traced repetition"),
    m("llc.writeback.samples", "count", "higher", "timed writeback calls"),
    m("llc.prefetch.ns_per_call", "ns", "lower", "mean of the timed prefetch calls, all rows"),
    m("llc.prefetch.calls", "count", "lower", "prefetch calls per traced repetition"),
    m("llc.prefetch.samples", "count", "higher", "timed prefetch calls"),
    m("llc.data_hit_frac", "frac", "higher", "DataHit responses over llc.calls"),
    m("llc.tag_only_hits", "count", "lower", "Maya row CacheStats, measurement region"),
    m("llc.data_fills", "count", "lower", "Maya row CacheStats, measurement region"),
    m("llc.gte", "count", "lower", "Maya row global tag evictions, measurement region"),
    m("llc.gde", "count", "lower", "Maya row global data evictions, measurement region"),
    m("llc.saes", "count", "lower", "Maya row set-associative evictions, measurement region"),
    m("llc.isolated.ns_per_call", "ns", "lower", "recorded requests replayed into a fresh model per row, over llc.isolated.calls"),
    m("llc.isolated.calls", "count", "higher", "requests per isolated replay, all rows"),
    m("prince.index.ns_per_call", "ns", "lower", "memo-less set_indices_into with Maya's skews and sets, over prince.index.calls"),
    m("prince.index.calls", "count", "higher", "recorded Maya-row LLC lines per isolated replay"),
    m("trace.overhead_frac", "frac", "lower", "median traced ns_per_access over the median untraced one of the same run, minus 1"),
    m("trace.accesses", "count", "higher", "trace accesses per traced repetition"),
    m("trace.wall_s", "s", "lower", "System::run wall time per traced repetition"),
    m("trace.reps", "count", "higher", "traced repetitions (as many untraced ones alternate with them)"),
    m("host.raw_ns_per_access", "ns", "lower", "median bare repetition of this run, raw host ns (not normalized)"),
    m("host.ref_ns_per_op", "ns", "lower", "median reference kernel time before each bare repetition (nominal: 5 ns)"),
    m("timer.ns_per_read", "ns", "lower", "Instant::now plus elapsed, subtracted from every timed region"),
    m("failed_frac", "frac", "lower", "failed over attempted correctness checks"),
];

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// Formats a finite number as JSON with every digit Rust keeps.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// The human-readable report: one line per metric with unit and base.
pub fn report(catalogue: &[Metric], values: &Values) -> String {
    let mut out = String::new();
    for metric in catalogue {
        let v = values.get(metric.name).copied().unwrap_or(0.0);
        out.push_str(&format!(
            "{:<32} {:>16.4} {:<7} {}\n",
            metric.name, v, metric.unit, metric.base
        ));
    }
    out
}

/// The result line: exactly the catalogue's metrics, in catalogue order.
///
/// # Panics
///
/// Panics if `values` lacks a catalogue metric or holds one outside it,
/// which is a bug in the benchmark.
pub fn result_line(catalogue: &[Metric], values: &Values, attempted: u64, failed: u64) -> String {
    assert_eq!(
        values.len(),
        catalogue.len(),
        "measured {:?}",
        values.keys().collect::<Vec<_>>()
    );
    let metrics: Vec<String> = catalogue
        .iter()
        .map(|metric| {
            let v = values
                .get(metric.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", metric.name));
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                metric.name,
                number(*v),
                metric.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    )
}
