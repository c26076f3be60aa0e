//! Isolated layer timings: a row's recorded streams replayed through each
//! layer's public entry points on fresh state, one layer at a time.
//!
//! Each replay except the LLC's runs [`REPEATS`] times on fresh state built
//! outside the timed region and reports the median. The LLC replay mutates
//! a full-size model, so it runs once.

use std::hint::black_box;
use std::time::Instant;

use champsim_lite::{Dram, PrivateCache, StridePrefetcher, SystemConfig};
use maya_bench::designs::Design;
use maya_bench::perf::SEED as LLC_SEED;
use maya_core::{AccessKind, DomainId, MayaConfig};
use prince_cipher::IndexFunction;
use workloads::block::BLOCK_ACCESSES;
use workloads::spec::BenchmarkSpec;
use workloads::{Access, TraceGenerator};

use crate::probe::Recording;
use crate::stats::median;

/// Timed repetitions of each re-runnable replay.
pub const REPEATS: usize = 3;

/// Simulated cycles between consecutive DRAM requests in the isolated
/// DRAM replay (the recording keeps the request order, not the times).
const DRAM_STEP: u64 = 16;

/// One isolated timing.
#[derive(Debug, Clone, Copy, Default)]
pub struct Isolated {
    /// Median nanoseconds per operation.
    pub ns_per_op: f64,
    /// Operations in one repetition.
    pub ops: u64,
}

/// Runs `run` on fresh state from `setup` [`REPEATS`] times; `run` returns
/// its operation count.
fn time_median<S>(setup: impl Fn() -> S, run: impl Fn(&mut S) -> u64) -> Isolated {
    let mut ops = 0;
    let mut ns: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let mut state = setup();
            let start = Instant::now();
            ops = run(&mut state);
            let elapsed = start.elapsed().as_nanos() as f64;
            black_box(state);
            elapsed / ops.max(1) as f64
        })
        .collect();
    Isolated {
        ns_per_op: median(&mut ns),
        ops,
    }
}

/// Fresh synthesis: as many blocks per core as the row recorded, through
/// `fill_block` on new generators.
pub fn generation(specs: &[BenchmarkSpec], seed: u64, rec: &Recording) -> Isolated {
    time_median(
        || {
            let gens: Vec<_> = specs
                .iter()
                .enumerate()
                .map(|(core, spec)| spec.generator(core, seed))
                .collect();
            let blank = Access {
                addr: 0,
                is_write: false,
                pc: 0,
                gap: 0,
                dependent: false,
            };
            (gens, vec![blank; BLOCK_ACCESSES])
        },
        |(gens, buf)| {
            let mut n = 0u64;
            for (gen, stream) in gens.iter_mut().zip(&rec.streams) {
                for _ in 0..stream.len().div_ceil(BLOCK_ACCESSES) {
                    gen.fill_block(buf);
                    n += buf.len() as u64;
                }
            }
            n
        },
    )
}

/// Isolated private-cache timings with their hit counts.
#[derive(Debug, Clone, Copy, Default)]
pub struct Private {
    /// L1D lookups.
    pub l1: Isolated,
    /// L1D hits in one repetition.
    pub l1_hits: u64,
    /// L2 lookups.
    pub l2: Isolated,
    /// L2 hits in one repetition.
    pub l2_hits: u64,
}

fn private_lookup(
    cache: &mut PrivateCache,
    line: u64,
    write: bool,
) -> champsim_lite::PrivateResponse {
    if write {
        cache.write(line)
    } else {
        cache.read(line)
    }
}

/// Each core's trace line stream through a fresh Table V L1D, and the L1D's
/// misses and dirty victims through a fresh L2, in the simulator's order
/// (victim writeback first, then the demand read). Prefetch fills into the
/// L2 are not part of the replayed L2 stream.
pub fn private_caches(streams: &[Vec<Access>], cfg: &SystemConfig) -> Private {
    let l1 = || PrivateCache::new(cfg.l1d.sets, cfg.l1d.ways);
    let l2_streams: Vec<Vec<(u64, bool)>> = streams
        .iter()
        .map(|stream| {
            let mut cache = l1();
            let mut ops = Vec::new();
            for a in stream {
                let r = private_lookup(&mut cache, a.line(), a.is_write);
                if !r.hit {
                    if let Some(v) = r.writeback {
                        ops.push((v, true));
                    }
                    ops.push((a.line(), false));
                }
            }
            ops
        })
        .collect();
    let hits = std::cell::Cell::new(0u64);
    let l1_time = time_median(
        || streams.iter().map(|_| l1()).collect::<Vec<_>>(),
        |caches| {
            let (mut n, mut h) = (0u64, 0u64);
            for (cache, stream) in caches.iter_mut().zip(streams) {
                for a in stream {
                    h += u64::from(private_lookup(cache, a.line(), a.is_write).hit);
                    n += 1;
                }
            }
            hits.set(h);
            n
        },
    );
    let l1_hits = hits.get();
    let l2_time = time_median(
        || {
            l2_streams
                .iter()
                .map(|_| PrivateCache::new(cfg.l2.sets, cfg.l2.ways))
                .collect::<Vec<_>>()
        },
        |caches| {
            let (mut n, mut h) = (0u64, 0u64);
            for (cache, ops) in caches.iter_mut().zip(&l2_streams) {
                for &(line, write) in ops {
                    h += u64::from(private_lookup(cache, line, write).hit);
                    n += 1;
                }
            }
            hits.set(h);
            n
        },
    );
    Private {
        l1: l1_time,
        l1_hits,
        l2: l2_time,
        l2_hits: hits.get(),
    }
}

/// Each core's `(pc, line)` stream through a fresh stride prefetcher.
pub fn prefetcher(streams: &[Vec<Access>], cfg: &SystemConfig) -> Isolated {
    time_median(
        || {
            let pfs: Vec<_> = streams
                .iter()
                .map(|_| StridePrefetcher::new(cfg.prefetch_degree))
                .collect();
            (pfs, Vec::with_capacity(16))
        },
        |(pfs, buf)| {
            let mut n = 0u64;
            for (pf, stream) in pfs.iter_mut().zip(streams) {
                for a in stream {
                    pf.observe_into(a.pc, a.line(), buf);
                    n += 1;
                }
            }
            black_box(buf.len());
            n
        },
    )
}

/// One DRAM request derived from the recorded LLC traffic.
#[derive(Clone, Copy)]
struct DramOp {
    line: u64,
    domain: DomainId,
    now: u64,
    write: bool,
}

/// The DRAM traffic the recorded LLC stream implies, as `(ops, reads,
/// writes)`: every written-back line is a DRAM write, and every read or
/// prefetch that is not a data hit is a DRAM read.
fn dram_ops(rec: &Recording) -> (Vec<DramOp>, u64, u64) {
    let mut ops = Vec::new();
    let (mut reads, mut writes) = (0, 0);
    for (i, (req, resp)) in rec.llc.iter().enumerate() {
        let now = i as u64 * DRAM_STEP;
        for line in resp.writebacks.iter() {
            ops.push(DramOp {
                line,
                domain: req.domain,
                now,
                write: true,
            });
            writes += 1;
        }
        if req.kind != AccessKind::Writeback && !resp.is_data_hit() {
            ops.push(DramOp {
                line: req.line,
                domain: req.domain,
                now,
                write: false,
            });
            reads += 1;
        }
    }
    (ops, reads, writes)
}

/// The recorded LLC stream's DRAM traffic through a fresh DRAM model, with
/// the `(reads, writes)` that traffic holds.
pub fn dram(rec: &Recording, cfg: &SystemConfig) -> (Isolated, (u64, u64)) {
    let (ops, reads, writes) = dram_ops(rec);
    let timing = time_median(
        || Dram::new(cfg.dram),
        |dram| {
            let mut latency = 0u64;
            for op in &ops {
                if op.write {
                    dram.write(op.line, op.domain, op.now);
                } else {
                    latency = latency.wrapping_add(dram.read(op.line, op.domain, op.now));
                }
            }
            black_box(latency);
            ops.len() as u64
        },
    );
    (timing, (reads, writes))
}

/// The recorded LLC requests through a fresh model of the same design.
/// Returns the timing and the index of the first response that differs
/// from the recorded one, if any.
pub fn llc(rec: &Recording, design: Design, cfg: &SystemConfig) -> (Isolated, Option<usize>) {
    let mut model = design.build(cfg.baseline_llc_lines(), LLC_SEED);
    let mut responses = Vec::with_capacity(rec.llc.len());
    let start = Instant::now();
    for (req, _) in &rec.llc {
        responses.push(model.access(*req));
    }
    let elapsed = start.elapsed().as_nanos() as f64;
    let diverged = rec
        .llc
        .iter()
        .zip(&responses)
        .position(|((_, want), got)| want != got);
    let ops = rec.llc.len() as u64;
    (
        Isolated {
            ns_per_op: elapsed / ops.max(1) as f64,
            ops,
        },
        diverged,
    )
}

/// Memo-less index derivation over the recorded LLC lines, with Maya's
/// skews, sets and key seed.
pub fn prince_index(rec: &Recording, cfg: &SystemConfig) -> Isolated {
    let maya = MayaConfig::for_baseline_lines(cfg.baseline_llc_lines(), LLC_SEED);
    time_median(
        || {
            let index = IndexFunction::from_seed(maya.seed, maya.skews, maya.sets_per_skew);
            (index, vec![0usize; maya.skews])
        },
        |(index, out)| {
            let mut sum = 0usize;
            for (req, _) in &rec.llc {
                index.set_indices_into(req.line, out);
                sum = sum.wrapping_add(out[0]);
            }
            black_box(sum);
            rec.llc.len() as u64
        },
    )
}
