//! Conservation laws for the observability layer: the event stream a
//! [`MetricsProbe`] accumulates must reconcile *exactly* with every
//! design's own `CacheStats` and with the cache's resident population —
//! for every design in the catalog, under a long mixed workload with
//! eviction pressure, flushes, and multiple domains.
//!
//! The laws pinned here are what make the metrics trustworthy: a counter
//! that drifts from the model's own accounting would silently corrupt
//! every experiment sidecar.

use std::cell::RefCell;
use std::rc::Rc;

use maya_bench::designs::Design;
use maya_repro::champsim_lite::{System, SystemConfig};
use maya_repro::maya_core::{
    CacheModel, DomainId, MayaCache, MayaConfig, MirageCache, MirageConfig, Request,
};
use maya_repro::maya_obs::{MetricsProbe, NopProbe, ProbeHandle, ProfileHandle, SpanProfiler};
use maya_repro::workloads::mixes::{hetero_mixes, homogeneous};

/// Baseline-equivalent capacity: 1 MB (16K lines), small enough for debug
/// runs, large enough that the mixed workload below forces evictions.
const LINES: usize = 16 * 1024;
const SEED: u64 = 0x0b5e_7ab1e;
const ACCESSES: u64 = 30_000;

fn lcg(x: u64) -> u64 {
    x.wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407)
}

/// A deterministic mixed workload: random lines over a 1.5x-capacity
/// working set, a reuse stream (every third access re-touches a recent
/// line, so Maya promotes), writebacks, four domains (exercising the
/// partitioned designs), and occasional line flushes.
fn drive(c: &mut dyn CacheModel) {
    let ws = 24 * 1024u64;
    let mut x = SEED;
    let mut recent = [0u64; 64];
    for i in 0..ACCESSES {
        x = lcg(x);
        let line = if i % 3 == 0 {
            recent[(x >> 32) as usize % 64]
        } else {
            let l = x % ws;
            recent[(i % 64) as usize] = l;
            l
        };
        let d = DomainId((i % 4) as u16);
        if i % 7 == 0 {
            c.access(Request::writeback(line, d));
        } else {
            c.access(Request::read(line, d));
        }
        if i % 997 == 0 {
            c.flush_line(line, d);
        }
    }
}

fn instrumented(d: Design) -> (Box<dyn CacheModel>, Rc<RefCell<MetricsProbe>>) {
    let mut c = d.build(LINES, SEED);
    let (handle, rc) = ProbeHandle::of(MetricsProbe::new(0));
    c.set_probe(handle);
    (c, rc)
}

/// Every probe-side counter equals the matching `CacheStats` field. The
/// emits sit exactly where the stats increment, so any divergence means an
/// instrumentation hole.
#[test]
fn event_counters_reconcile_with_cache_stats() {
    for d in Design::all() {
        let (mut c, rc) = instrumented(d);
        drive(c.as_mut());
        let p = rc.borrow();
        let s = c.stats();
        let id = d.id();
        assert_eq!(s.data_hits, p.counter("llc.hit.data"), "{id}: data hits");
        assert_eq!(
            s.tag_only_hits,
            p.counter("llc.hit.tag_only"),
            "{id}: tag-only hits"
        );
        assert_eq!(s.tag_misses, p.counter("llc.miss"), "{id}: misses");
        assert_eq!(
            s.tag_fills,
            p.counter("llc.fill.tag_only") + p.counter("llc.fill.data"),
            "{id}: tag fills"
        );
        assert_eq!(
            s.data_fills,
            p.counter("llc.fill.data") + p.counter("llc.promotion"),
            "{id}: data fills"
        );
        assert_eq!(s.saes, p.counter("llc.eviction.sae"), "{id}: SAEs");
        assert_eq!(
            s.global_data_evictions,
            p.counter("llc.eviction.global_data"),
            "{id}: global data evictions"
        );
        assert_eq!(
            s.global_tag_evictions,
            p.counter("llc.eviction.global_tag"),
            "{id}: global tag evictions"
        );
        assert_eq!(s.flushes, p.counter("llc.eviction.flush"), "{id}: flushes");
        assert!(
            s.tag_fills >= s.data_fills,
            "{id}: a data fill always installs a tag"
        );
    }
}

/// Data- and tag-entry conservation: everything that entered the cache is
/// either still resident or left through an observed eviction/downgrade/
/// flush. Holds for every design whose invalidation is eager (CEASER's
/// lazy epoch remap is excluded via the rekey counter; the workload here
/// is shorter than its 100k-access epoch anyway).
#[test]
fn fills_equal_residency_plus_releases() {
    for d in Design::all() {
        let (mut c, rc) = instrumented(d);
        drive(c.as_mut());
        let id = d.id();
        {
            let p = rc.borrow();
            if p.counter("llc.rekey") != 0 {
                continue;
            }
            let data_in = p.counter("llc.fill.data") + p.counter("llc.promotion");
            let data_out = p.counter("llc.data_released") + p.counter("llc.flushed_data");
            assert_eq!(
                data_in,
                p.resident_data() + data_out,
                "{id}: data conservation"
            );
            let tags_in = p.counter("llc.fill.tag_only") + p.counter("llc.fill.data");
            let evictions: u64 = ["sae", "global_data", "global_tag", "replacement", "flush"]
                .iter()
                .map(|cause| p.counter(&format!("llc.eviction.{cause}")))
                .sum();
            let tags_out = evictions - p.counter("llc.eviction_downgraded")
                + p.counter("llc.flushed_data")
                + p.counter("llc.flushed_tag_only");
            assert_eq!(
                tags_in,
                p.resident_data() + p.resident_tag_only() + tags_out,
                "{id}: tag conservation"
            );
        }
        // flush_all folds the entire resident population into the flushed
        // counters; both laws must still balance with zero residency.
        c.flush_all();
        let p = rc.borrow();
        assert_eq!(
            p.resident_data() + p.resident_tag_only(),
            0,
            "{id}: flush_all must zero residency"
        );
        let data_in = p.counter("llc.fill.data") + p.counter("llc.promotion");
        let data_out = p.counter("llc.data_released") + p.counter("llc.flushed_data");
        assert_eq!(data_in, data_out, "{id}: data conservation after flush_all");
    }
}

/// Observability is strictly read-only: a run with no probe, a run with
/// the do-nothing probe, and a run with the full metrics collector must
/// finish with bit-identical statistics.
#[test]
fn probes_never_perturb_results() {
    for d in Design::all() {
        let id = d.id();
        let mut plain = d.build(LINES, SEED);
        drive(plain.as_mut());

        let mut nop = d.build(LINES, SEED);
        let (handle, _rc) = ProbeHandle::of(NopProbe);
        nop.set_probe(handle);
        drive(nop.as_mut());
        assert_eq!(plain.stats(), nop.stats(), "{id}: NopProbe changed results");

        let (mut full, _rc) = instrumented(d);
        drive(full.as_mut());
        assert_eq!(
            plain.stats(),
            full.stats(),
            "{id}: MetricsProbe changed results"
        );
    }
}

/// The span profiler is as read-only as the probes: attaching one must
/// leave every design's statistics bit-identical — including the RNG
/// stream, which a second `drive` pass would expose if any profiled code
/// path consumed extra randomness.
#[test]
fn profiler_never_perturbs_model_results() {
    for d in Design::all() {
        let id = d.id();
        let mut plain = d.build(LINES, SEED);
        let mut profiled = d.build(LINES, SEED);
        let (handle, prof) = ProfileHandle::of(SpanProfiler::new());
        profiled.set_profiler(handle);

        drive(plain.as_mut());
        drive(profiled.as_mut());
        assert_eq!(
            plain.stats(),
            profiled.stats(),
            "{id}: profiler changed results"
        );

        // Continue both runs: any RNG divergence introduced by the profiled
        // pass would surface in the victim choices of this second pass.
        drive(plain.as_mut());
        drive(profiled.as_mut());
        assert_eq!(
            plain.stats(),
            profiled.stats(),
            "{id}: profiler perturbed the RNG stream"
        );

        // With no wall timer attached the tree must be purely simulated-
        // clock data: zero wall nanos everywhere, so it reproduces exactly.
        for (path, stats) in prof.borrow().tree().paths() {
            assert_eq!(
                stats.wall_nanos, 0,
                "{id}: span `{path}` accumulated wall time without a timer"
            );
        }
    }
}

/// System-level transparency: a full multi-core timing run with the
/// profiler attached produces a byte-identical `RunResult` (rendered via
/// `Debug`, which covers every field) for both secure designs, and the
/// resulting span tree contains the expected component hierarchy.
#[test]
fn profiler_never_perturbs_system_runs() {
    let cfg = || SystemConfig {
        cores: 2,
        ..SystemConfig::eight_core_default().with_instructions(20_000, 60_000)
    };
    let lines = 2 * 32 * 1024;
    type BuildFn = fn(usize) -> Box<dyn CacheModel>;
    let designs: [(&str, BuildFn); 2] = [
        ("maya", |n| {
            Box::new(MayaCache::new(MayaConfig::for_baseline_lines(n, 7)))
        }),
        ("mirage", |n| {
            Box::new(MirageCache::new(MirageConfig::for_data_entries(n, 7)))
        }),
    ];
    for (id, build) in designs {
        let mix = homogeneous("mcf", 2);
        let bare = System::new(cfg(), build(lines), &mix, 1).run();

        let mix = homogeneous("mcf", 2);
        let mut sys = System::new(cfg(), build(lines), &mix, 1);
        let (handle, prof) = ProfileHandle::of(SpanProfiler::new());
        sys.set_profiler(handle);
        let profiled = sys.run();

        assert_eq!(
            format!("{bare:?}"),
            format!("{profiled:?}"),
            "{id}: profiler changed the system run"
        );

        let tree = prof.borrow().tree();
        let paths: Vec<String> = tree.paths().into_iter().map(|(p, _)| p).collect();
        for want in [
            "run",
            "run;sched",
            "run;core",
            "run;core;llc",
            "run;core;llc;index_derive",
            "run;core;llc;index_derive;prince",
            "run;core;dram",
        ] {
            assert!(
                paths.iter().any(|p| p == want),
                "{id}: span path `{want}` missing from {paths:?}"
            );
        }
        let (run, _) = tree
            .node_and_child_sum("run")
            .unwrap_or_else(|| panic!("{id}: no run span"));
        assert!(run.cycles > 0, "{id}: run span recorded no cycles");
        assert!(run.accesses > 0, "{id}: run span recorded no accesses");
    }
}

/// The fused dispatch loop (no profiler) and the instrumented one (profiler
/// attached) must agree on full 8-core runs, not just the 2-core case
/// above: a heterogeneous Table VI mix, whose cores reach their
/// instruction targets at different times so finished cores drop out of
/// the fused loop's pick while others run on, plus homogeneous streaming
/// (`lbm`) and cache-friendly (`leela`) mixes.
#[test]
fn fused_and_instrumented_loops_agree_on_eight_cores() {
    let cfg = || SystemConfig::eight_core_default().with_instructions(20_000, 60_000);
    let m4 = hetero_mixes()
        .into_iter()
        .find(|m| m.name == "M4")
        .expect("Table VI has M4");
    let mixes = [m4, homogeneous("lbm", 8), homogeneous("leela", 8)];
    for mix in mixes {
        let build = || {
            let llc = MayaCache::new(MayaConfig::for_baseline_lines(
                cfg().baseline_llc_lines(),
                11,
            ));
            System::new(cfg(), Box::new(llc), &mix, 5)
        };
        let fused = build().run();
        let mut sys = build();
        let (handle, _prof) = ProfileHandle::of(SpanProfiler::new());
        sys.set_profiler(handle);
        let instrumented = sys.run();
        assert_eq!(
            format!("{fused:?}"),
            format!("{instrumented:?}"),
            "{}: fused and instrumented loops diverged",
            mix.name
        );
        if mix.bin.is_some() {
            let cycles: Vec<u64> = fused.cores.iter().map(|c| c.cycles).collect();
            assert!(
                cycles.iter().any(|&c| c != cycles[0]),
                "{}: cores finished together ({cycles:?})",
                mix.name
            );
        }
    }
}

/// Two instrumented runs of the same configuration produce identical
/// counter sets — the event stream is a pure function of (workload, seed).
#[test]
fn instrumented_runs_are_deterministic() {
    let run = |d: Design| {
        let (mut c, rc) = instrumented(d);
        drive(c.as_mut());
        let p = rc.borrow();
        let counters: Vec<(&str, u64)> = p.registry().counters().collect();
        counters
            .iter()
            .map(|(n, v)| format!("{n}={v}"))
            .collect::<Vec<_>>()
            .join(",")
    };
    for d in [Design::Maya, Design::Mirage, Design::Baseline] {
        assert_eq!(run(d), run(d), "{}: counters must reproduce", d.id());
    }
}
