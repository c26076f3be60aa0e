//! The benchmark's workloads and the one routine that runs a design row.
//!
//! Every workload is an 8-core homogeneous mix. A repetition builds one
//! [`System`] per design row, runs it, and audits the LLC afterwards. The
//! seed only feeds the trace generators; the LLC keys use the experiment
//! harness's fixed seed, so the program receives nothing but the streams.

use std::time::Instant;

use champsim_lite::{RunResult, System, SystemConfig};
use maya_bench::designs::Design;
use maya_bench::perf::SEED as LLC_SEED;
use maya_core::CacheModel;
use workloads::block::TraceCache;
use workloads::mixes::homogeneous;
use workloads::spec::BenchmarkSpec;
use workloads::TraceGenerator;

use crate::probe::RowProbe;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 8×lbm on Maya with fresh streams: write-heavy streaming with heavy
    /// global tag and data eviction.
    LbmMaya,
    /// 8×mcf on baseline, then Mirage, then Maya; later rows replay the
    /// first row's streams through a `TraceCache`.
    McfGrid,
    /// 8×leela on Maya: LLC-resident, so the front end does the work.
    LeelaMaya,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::LbmMaya, Workload::McfGrid, Workload::LeelaMaya];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LbmMaya => "lbm-maya",
            Workload::McfGrid => "mcf-grid",
            Workload::LeelaMaya => "leela-maya",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The mix's per-core benchmark specs for `config`'s core count.
    pub fn specs(self, config: &SystemConfig) -> Vec<BenchmarkSpec> {
        homogeneous(self.benchmark(), config.cores).specs
    }

    fn benchmark(self) -> &'static str {
        match self {
            Workload::LbmMaya => "lbm",
            Workload::McfGrid => "mcf",
            Workload::LeelaMaya => "leela",
        }
    }

    /// The design rows, in run order. Every workload ends with Maya.
    pub fn designs(self) -> &'static [Design] {
        match self {
            Workload::McfGrid => &[Design::Baseline, Design::Mirage, Design::Maya],
            Workload::LbmMaya | Workload::LeelaMaya => &[Design::Maya],
        }
    }

    /// True when later rows replay the first row's recorded streams.
    pub fn replays_streams(self) -> bool {
        self == Workload::McfGrid
    }

    /// Instructions per core `(warm-up, measurement)`, sized so one
    /// repetition takes one to three seconds on a 2-core x86-64 host.
    fn instructions(self) -> (u64, u64) {
        match self {
            Workload::LbmMaya => (75_000, 300_000),
            Workload::McfGrid => (75_000, 300_000),
            Workload::LeelaMaya => (250_000, 1_000_000),
        }
    }

    /// The Table V 8-core system at this workload's run length.
    pub fn config(self) -> SystemConfig {
        let (warmup, measure) = self.instructions();
        SystemConfig::eight_core_default().with_instructions(warmup, measure)
    }
}

/// What one design row produced.
pub struct RowRun {
    /// The row's design.
    pub design: Design,
    /// Seconds spent in `System::run`.
    pub run_s: f64,
    /// Trace accesses the cores consumed.
    pub accesses: u64,
    /// The simulated statistics.
    pub result: RunResult,
    /// `CacheModel::audit` after the run, outside the timed region.
    pub audit: Result<(), String>,
}

/// Builds one design row's system: `Design::build`, the generators (served
/// from `cache` on the replaying workloads), and `System::with_generators`,
/// with `probe`'s wrappers in between. Returns the system and the seconds
/// the build took.
pub fn build_row(
    workload: Workload,
    config: &SystemConfig,
    seed: u64,
    design: Design,
    cache: &mut TraceCache,
    probe: &RowProbe,
) -> (System, f64) {
    let start = Instant::now();
    let llc: Box<dyn CacheModel> = design.build(config.baseline_llc_lines(), LLC_SEED);
    let gens: Vec<Box<dyn TraceGenerator>> = workload
        .specs(config)
        .iter()
        .enumerate()
        .map(|(core, spec)| -> Box<dyn TraceGenerator> {
            if workload.replays_streams() {
                Box::new(cache.generator(spec, core, seed))
            } else {
                Box::new(spec.generator(core, seed))
            }
        })
        .collect();
    let (llc, gens) = probe.wrap(llc, gens);
    let sys = System::with_generators(config.clone(), llc, gens);
    (sys, start.elapsed().as_secs_f64())
}

/// Builds and runs one design row of `workload` on fresh state (see
/// [`build_row`]), auditing the LLC after the timed run.
pub fn run_row(
    workload: Workload,
    config: &SystemConfig,
    seed: u64,
    design: Design,
    cache: &mut TraceCache,
    probe: &RowProbe,
) -> RowRun {
    let (mut sys, _) = build_row(workload, config, seed, design, cache, probe);
    let start = Instant::now();
    let result = sys.run();
    let run_s = start.elapsed().as_secs_f64();
    RowRun {
        design,
        run_s,
        accesses: sys.trace_accesses(),
        result,
        audit: sys.llc().audit(),
    }
}

/// Runs one repetition of `workload`: every design row once, in order,
/// each wrapped by the probe `probe` returns for its design. Returns the
/// rows and the repetition's `(synthesized, replayed)` stream counts.
pub fn run_rep(
    workload: Workload,
    config: &SystemConfig,
    seed: u64,
    mut probe: impl FnMut(Design) -> RowProbe,
) -> (Vec<RowRun>, (u64, u64)) {
    // One cache per repetition, so every repetition synthesizes in its
    // first row and replays in the later ones.
    let mut cache = TraceCache::default();
    let rows = workload
        .designs()
        .iter()
        .map(|&design| run_row(workload, config, seed, design, &mut cache, &probe(design)))
        .collect();
    (rows, cache.stats())
}

/// A row's simulated statistics as named counters, in a fixed order: the
/// trace accesses, the LLC `CacheStats`, the DRAM counters, and every
/// core's `CoreResult`.
pub fn row_fields(row: &RowRun) -> Vec<(String, u64)> {
    let r = &row.result;
    let s = &r.llc;
    let mut f: Vec<(String, u64)> = vec![("accesses".into(), row.accesses)];
    for (name, v) in [
        ("reads", s.reads),
        ("writebacks_in", s.writebacks_in),
        ("data_hits", s.data_hits),
        ("tag_only_hits", s.tag_only_hits),
        ("tag_misses", s.tag_misses),
        ("data_fills", s.data_fills),
        ("tag_fills", s.tag_fills),
        ("dead_evictions", s.dead_evictions),
        ("reused_evictions", s.reused_evictions),
        ("writebacks_out", s.writebacks_out),
        ("saes", s.saes),
        ("global_data_evictions", s.global_data_evictions),
        ("global_tag_evictions", s.global_tag_evictions),
        ("cross_domain_evictions", s.cross_domain_evictions),
        ("flushes", s.flushes),
    ] {
        f.push((format!("llc.{name}"), v));
    }
    let (reads, writes, row_hits) = r.dram;
    f.push(("dram.reads".into(), reads));
    f.push(("dram.writes".into(), writes));
    f.push(("dram.row_hits".into(), row_hits));
    for (i, c) in r.cores.iter().enumerate() {
        for (name, v) in [
            ("instructions", c.instructions),
            ("cycles", c.cycles),
            ("llc_demand_accesses", c.llc_demand_accesses),
            ("llc_demand_misses", c.llc_demand_misses),
            ("l2_misses", c.l2_misses),
            ("late_prefetch_merges", c.late_prefetch_merges),
            ("timely_prefetch_hits", c.timely_prefetch_hits),
        ] {
            f.push((format!("core{i}.{name}"), v));
        }
    }
    f
}
