//! Wrappers the benchmark puts around the simulator's two seams: the
//! per-core `TraceGenerator`s and the LLC `CacheModel`.
//!
//! The traced wrappers time every `fill_block` call (one call covers a
//! whole block of accesses) and count every LLC access by kind and
//! outcome, timing a pseudo-random one in [`SAMPLE_EVERY`] of them: a timer
//! read pair costs tens of nanoseconds, too much to add to every LLC call
//! of a few hundred. The recording wrappers keep the streams that the
//! isolated replays need. All of them forward every call unchanged, so the
//! simulated statistics are those of the bare run; the benchmark checks
//! that on every traced repetition.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use maya_core::{
    AccessEvent, AccessKind, CacheModel, CacheStats, DomainId, FaultKind, Request, Response,
};
use maya_obs::{ProbeHandle, ProfileHandle};
use rand::rngs::SmallRng;
use workloads::{Access, TraceGenerator};

/// Mean gap between timed LLC calls.
pub const SAMPLE_EVERY: u64 = 64;

/// What the benchmark attaches to one design row.
pub enum RowProbe {
    /// Nothing: the row runs exactly as a sweep would.
    Plain,
    /// Timing and counting wrappers.
    Traced(Rc<RefCell<Traced>>),
    /// Stream recorders.
    Recording(Rc<RefCell<Recording>>),
}

impl RowProbe {
    /// Wraps the row's LLC and generators as this probe requires.
    pub fn wrap(
        &self,
        llc: Box<dyn CacheModel>,
        gens: Vec<Box<dyn TraceGenerator>>,
    ) -> (Box<dyn CacheModel>, Vec<Box<dyn TraceGenerator>>) {
        match self {
            RowProbe::Plain => (llc, gens),
            RowProbe::Traced(t) => {
                let gens = gens
                    .into_iter()
                    .map(|inner| -> Box<dyn TraceGenerator> {
                        Box::new(TimedGen {
                            inner,
                            traced: Rc::clone(t),
                        })
                    })
                    .collect();
                let llc = Box::new(CountingLlc {
                    inner: llc,
                    traced: Rc::clone(t),
                    next_sample: 0,
                    rng: 0x9e37_79b9_7f4a_7c15,
                });
                (llc, gens)
            }
            RowProbe::Recording(r) => {
                r.borrow_mut().streams = vec![Vec::new(); gens.len()];
                let gens = gens
                    .into_iter()
                    .enumerate()
                    .map(|(core, inner)| -> Box<dyn TraceGenerator> {
                        Box::new(RecordingGen {
                            inner,
                            core,
                            rec: Rc::clone(r),
                        })
                    })
                    .collect();
                let llc = Box::new(RecordingLlc {
                    inner: llc,
                    rec: Rc::clone(r),
                });
                (llc, gens)
            }
        }
    }
}

/// Index of an `AccessKind` in the per-kind arrays.
fn kind_index(kind: AccessKind) -> usize {
    match kind {
        AccessKind::Read => 0,
        AccessKind::Writeback => 1,
        AccessKind::Prefetch => 2,
    }
}

fn event_index(event: AccessEvent) -> usize {
    match event {
        AccessEvent::DataHit => 0,
        AccessEvent::TagHitPromoted => 1,
        AccessEvent::Miss => 2,
    }
}

/// What the traced wrappers measured on one row.
#[derive(Debug, Default, Clone)]
pub struct Traced {
    /// Cost of one timer read pair, subtracted from every timed region.
    pub timer_ns: f64,
    /// `fill_block` calls.
    pub fill_calls: u64,
    /// Accesses the generators produced.
    pub fill_accesses: u64,
    /// Nanoseconds spent in `fill_block`.
    pub fill_ns: f64,
    /// LLC calls per [`kind_index`].
    pub llc_calls: [u64; 3],
    /// LLC outcomes: data hit, tag hit promoted, miss.
    pub llc_events: [u64; 3],
    /// Timed LLC calls per kind.
    pub llc_samples: [u64; 3],
    /// Nanoseconds in the timed LLC calls per kind.
    pub llc_sampled_ns: [f64; 3],
}

impl Traced {
    /// A fresh record that subtracts `timer_ns` per timed region.
    pub fn new(timer_ns: f64) -> Self {
        Traced {
            timer_ns,
            ..Traced::default()
        }
    }

    /// Total LLC calls.
    pub fn calls(&self) -> u64 {
        self.llc_calls.iter().sum()
    }

    /// Total timed LLC calls.
    pub fn samples(&self) -> u64 {
        self.llc_samples.iter().sum()
    }

    /// Estimated nanoseconds in the LLC: each kind's sampled mean times its
    /// call count (the row's overall sampled mean for a kind never timed).
    pub fn llc_ns(&self) -> f64 {
        let overall = self.llc_sampled_ns.iter().sum::<f64>() / self.samples().max(1) as f64;
        (0..3)
            .map(|k| {
                let mean = if self.llc_samples[k] > 0 {
                    self.llc_sampled_ns[k] / self.llc_samples[k] as f64
                } else {
                    overall
                };
                mean * self.llc_calls[k] as f64
            })
            .sum()
    }
}

/// Nanoseconds one `Instant::now()` + `elapsed()` pair costs, as the median
/// of 64 batches of 256 empty timed regions.
pub fn timer_overhead_ns() -> f64 {
    let mut batches: Vec<f64> = (0..64)
        .map(|_| {
            let outer = Instant::now();
            let mut sink = 0u128;
            for _ in 0..256 {
                let t = Instant::now();
                sink = sink.wrapping_add(t.elapsed().as_nanos());
            }
            std::hint::black_box(sink);
            outer.elapsed().as_nanos() as f64 / 256.0
        })
        .collect();
    crate::stats::median(&mut batches)
}

fn timed_ns(start: Instant, timer_ns: f64) -> f64 {
    (start.elapsed().as_nanos() as f64 - timer_ns).max(0.0)
}

struct TimedGen {
    inner: Box<dyn TraceGenerator>,
    traced: Rc<RefCell<Traced>>,
}

impl TraceGenerator for TimedGen {
    fn next_access(&mut self) -> Access {
        self.inner.next_access()
    }

    fn fill_block(&mut self, out: &mut [Access]) {
        let start = Instant::now();
        self.inner.fill_block(out);
        let mut t = self.traced.borrow_mut();
        t.fill_ns += timed_ns(start, t.timer_ns);
        t.fill_calls += 1;
        t.fill_accesses += out.len() as u64;
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Forwards every `CacheModel` method except `access` to `self.inner`.
macro_rules! forward_cache_model {
    () => {
        fn flush_line(&mut self, line: u64, domain: DomainId) -> bool {
            self.inner.flush_line(line, domain)
        }
        fn flush_all(&mut self) {
            self.inner.flush_all()
        }
        fn probe(&self, line: u64, domain: DomainId) -> bool {
            self.inner.probe(line, domain)
        }
        fn stats(&self) -> &CacheStats {
            self.inner.stats()
        }
        fn reset_stats(&mut self) {
            self.inner.reset_stats()
        }
        fn extra_latency(&self) -> u32 {
            self.inner.extra_latency()
        }
        fn capacity_lines(&self) -> usize {
            self.inner.capacity_lines()
        }
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn audit(&self) -> Result<(), String> {
            self.inner.audit()
        }
        fn inject_fault(&mut self, kind: FaultKind, rng: &mut SmallRng) -> Option<String> {
            self.inner.inject_fault(kind, rng)
        }
        fn quarantine(&mut self) -> u64 {
            self.inner.quarantine()
        }
        fn set_probe(&mut self, probe: ProbeHandle) {
            self.inner.set_probe(probe)
        }
        fn set_profiler(&mut self, profiler: ProfileHandle) {
            self.inner.set_profiler(profiler)
        }
    };
}

struct CountingLlc {
    inner: Box<dyn CacheModel>,
    traced: Rc<RefCell<Traced>>,
    /// Calls left before the next timed one.
    next_sample: u64,
    /// xorshift64 state drawing the gaps between timed calls, so the
    /// sample cannot alias with a periodic request pattern.
    rng: u64,
}

impl CountingLlc {
    fn next_gap(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng % (2 * SAMPLE_EVERY - 1)
    }
}

impl CacheModel for CountingLlc {
    fn access(&mut self, req: Request) -> Response {
        let k = kind_index(req.kind);
        let resp = if self.next_sample == 0 {
            self.next_sample = self.next_gap();
            let start = Instant::now();
            let resp = self.inner.access(req);
            let mut t = self.traced.borrow_mut();
            t.llc_sampled_ns[k] += timed_ns(start, t.timer_ns);
            t.llc_samples[k] += 1;
            resp
        } else {
            self.next_sample -= 1;
            self.inner.access(req)
        };
        let mut t = self.traced.borrow_mut();
        t.llc_calls[k] += 1;
        t.llc_events[event_index(resp.event)] += 1;
        resp
    }

    forward_cache_model!();
}

/// The streams one row consumed and produced.
#[derive(Debug, Default)]
pub struct Recording {
    /// Every access each core's generator produced, per core.
    pub streams: Vec<Vec<Access>>,
    /// Every LLC request with the response it got, in order.
    pub llc: Vec<(Request, Response)>,
}

struct RecordingGen {
    inner: Box<dyn TraceGenerator>,
    core: usize,
    rec: Rc<RefCell<Recording>>,
}

impl TraceGenerator for RecordingGen {
    fn next_access(&mut self) -> Access {
        let a = self.inner.next_access();
        self.rec.borrow_mut().streams[self.core].push(a);
        a
    }

    fn fill_block(&mut self, out: &mut [Access]) {
        self.inner.fill_block(out);
        self.rec.borrow_mut().streams[self.core].extend_from_slice(out);
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

struct RecordingLlc {
    inner: Box<dyn CacheModel>,
    rec: Rc<RefCell<Recording>>,
}

impl CacheModel for RecordingLlc {
    fn access(&mut self, req: Request) -> Response {
        let resp = self.inner.access(req);
        self.rec.borrow_mut().llc.push((req, resp));
        resp
    }

    forward_cache_model!();
}
