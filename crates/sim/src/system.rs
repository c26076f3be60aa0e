//! The multi-core system: cores with ROB/MSHR-limited memory-level
//! parallelism, private L1D/L2, a shared pluggable LLC, and shared DRAM.

use maya_core::{AccessKind, CacheModel, DomainId, Request};
use maya_obs::{Component, EventKind, ProbeHandle, ProfileHandle};
use workloads::block::BLOCK_ACCESSES;
use workloads::mixes::Mix;
use workloads::{Access, TraceGenerator};

use crate::config::SystemConfig;
use crate::dram::Dram;
use crate::inflight::InflightTable;
use crate::prefetch::StridePrefetcher;
use crate::private::PrivateCache;
use crate::stats::{CoreResult, RunResult};

/// Initial entry capacity of each core's in-flight-prefetch table. Peak
/// live entries per core on the Table V system are a few hundred (~520 on
/// 8x lbm, ~260 on 8x leela, ~80 on 8x mcf), so 1024 entries (2048
/// 16-byte slots, 32 KiB) hold them at under 1/4 load without growing.
const INFLIGHT_HINT: usize = 1024;

/// MSHR occupancy window: completion times of in-flight misses.
///
/// Only multiset semantics are observable — take the minimum when the
/// window is full, retire everything due, report the maximum at drain —
/// so a flat unordered vector (≤ `mlp` entries, one or two cache lines)
/// with linear scans replaces the `BinaryHeap` the hot loop used to sift
/// on every miss. Equal completion times are indistinguishable (`u64`),
/// so scan order cannot leak into results.
///
/// The window caches its earliest completion (`u64::MAX` when empty), so
/// the retire check every load makes ([`MshrWindow::retire_through`])
/// returns at once when nothing is due. Every mutation keeps the cached
/// value exact.
struct MshrWindow {
    slots: Vec<u64>,
    earliest: u64,
}

impl Default for MshrWindow {
    fn default() -> Self {
        Self {
            slots: Vec::new(),
            earliest: u64::MAX,
        }
    }
}

impl MshrWindow {
    #[inline]
    fn len(&self) -> usize {
        self.slots.len()
    }

    #[inline]
    fn push(&mut self, completion: u64) {
        self.slots.push(completion);
        self.earliest = self.earliest.min(completion);
    }

    /// Removes and returns the earliest completion, if any.
    #[inline]
    fn pop_min(&mut self) -> Option<u64> {
        let min = self.slots.iter().position(|&c| c == self.earliest)?;
        let completion = self.slots.swap_remove(min);
        self.earliest = self.slots.iter().copied().min().unwrap_or(u64::MAX);
        Some(completion)
    }

    /// Retires every miss whose completion is at or before `now`.
    #[inline]
    fn retire_through(&mut self, now: u64) {
        if now < self.earliest {
            return;
        }
        self.slots.retain(|&c| c > now);
        self.earliest = self.slots.iter().copied().min().unwrap_or(u64::MAX);
    }

    /// Latest outstanding completion (the end-of-run drain point).
    #[inline]
    fn max(&self) -> Option<u64> {
        self.slots.iter().copied().max()
    }
}

/// One simulated core and its private hierarchy.
struct Core {
    gen: Box<dyn TraceGenerator>,
    /// Reusable block buffer the generator fills through one virtual call
    /// per [`BLOCK_ACCESSES`] accesses instead of one per access. Pulling
    /// ahead of consumption is transcript-invisible: each core's generator
    /// RNG is self-contained, so extra draws at the end of a run affect
    /// nothing observable.
    block: Vec<Access>,
    /// Next unconsumed index into `block`.
    block_pos: usize,
    /// Trace accesses consumed (for front-end throughput reporting).
    accesses: u64,
    domain: DomainId,
    l1d: PrivateCache,
    l2: PrivateCache,
    prefetcher: StridePrefetcher,
    /// Core clock in cycles.
    t: u64,
    /// Residual instructions not yet converted to whole cycles.
    instr_carry: u32,
    /// Completion times of in-flight misses (MSHR occupancy).
    outstanding: MshrWindow,
    /// Completion time of the most recent load (dependence chain head).
    last_load_completion: u64,
    /// Total instructions retired (warm-up + measurement).
    retired: u64,
    /// Lines with an in-flight prefetch: line -> cycle the data arrives.
    /// A demand that finds its line still in flight merges with the
    /// prefetch (counted as an LLC demand miss, waiting the residual
    /// latency) — this is what keeps an idealized prefetcher from
    /// pretending streams are free. A deterministic open-addressing table
    /// (fixed multiplicative hash, set-semantics only): simulation results
    /// must never depend on hasher iteration order.
    inflight_prefetch: InflightTable,
    /// Scratch buffer the prefetcher emits into; reused every access so
    /// the hot path never allocates.
    prefetch_buf: Vec<u64>,
    measuring: bool,
    meas_start_cycle: u64,
    meas: CoreResult,
}

/// The simulated system (see the crate docs for the model).
pub struct System {
    config: SystemConfig,
    llc: Box<dyn CacheModel>,
    dram: Dram,
    cores: Vec<Core>,
    warmed: usize,
    probe: ProbeHandle,
    profiler: ProfileHandle,
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("cores", &self.cores.len())
            .field("llc", &self.llc.name())
            .finish_non_exhaustive()
    }
}

impl System {
    /// Builds a system running `mix` on the given LLC design.
    ///
    /// # Panics
    ///
    /// Panics if the mix's core count differs from the configuration's.
    pub fn new(config: SystemConfig, llc: Box<dyn CacheModel>, mix: &Mix, seed: u64) -> Self {
        assert_eq!(
            mix.specs.len(),
            config.cores,
            "mix has {} cores but the system is configured for {}",
            mix.specs.len(),
            config.cores
        );
        let gens = mix
            .specs
            .iter()
            .enumerate()
            .map(|(i, spec)| Box::new(spec.generator(i, seed)) as Box<dyn TraceGenerator>)
            .collect();
        Self::with_generators(config, llc, gens)
    }

    /// Builds a system from explicit per-core trace generators (one per
    /// configured core, in core order).
    ///
    /// This is how experiment grids share one synthesized stream across
    /// designs: pass replay cursors from `workloads::block::TraceCache`
    /// instead of fresh generators. The private L1/L2 models draw no
    /// randomness, so no seed is needed here — determinism rests entirely
    /// on the generators and the LLC.
    ///
    /// # Panics
    ///
    /// Panics if the generator count differs from the configuration's
    /// core count.
    pub fn with_generators(
        config: SystemConfig,
        llc: Box<dyn CacheModel>,
        gens: Vec<Box<dyn TraceGenerator>>,
    ) -> Self {
        assert_eq!(
            gens.len(),
            config.cores,
            "got {} generators but the system is configured for {} cores",
            gens.len(),
            config.cores
        );
        let cores = gens
            .into_iter()
            .enumerate()
            .map(|(i, gen)| Core {
                gen,
                block: Vec::new(),
                block_pos: 0,
                accesses: 0,
                domain: DomainId(i as u16),
                l1d: PrivateCache::new(config.l1d.sets, config.l1d.ways),
                l2: PrivateCache::new(config.l2.sets, config.l2.ways),
                prefetcher: StridePrefetcher::new(config.prefetch_degree),
                t: 0,
                instr_carry: 0,
                outstanding: MshrWindow::default(),
                last_load_completion: 0,
                retired: 0,
                inflight_prefetch: InflightTable::with_capacity(INFLIGHT_HINT),
                prefetch_buf: Vec::with_capacity(16),
                measuring: false,
                meas_start_cycle: 0,
                meas: CoreResult::default(),
            })
            .collect();
        Self {
            dram: Dram::new(config.dram),
            llc,
            cores,
            warmed: 0,
            probe: ProbeHandle::none(),
            profiler: ProfileHandle::none(),
            config,
        }
    }

    /// Total trace accesses consumed by all cores so far (warm-up and
    /// measurement; front-end throughput = this over wall time).
    pub fn trace_accesses(&self) -> u64 {
        self.cores.iter().map(|c| c.accesses).sum()
    }

    /// Immutable access to the LLC (e.g. to inspect design-specific state).
    pub fn llc(&self) -> &dyn CacheModel {
        self.llc.as_ref()
    }

    /// Attaches an observability probe to the whole system: the LLC, the
    /// DRAM model, and the core loop all emit through clones of `probe`,
    /// sharing one simulated-cycle clock that [`System::step`] advances to
    /// the stepping core's time.
    pub fn set_probe(&mut self, probe: ProbeHandle) {
        self.llc.set_probe(probe.clone());
        self.dram.set_probe(probe.clone());
        self.probe = probe;
    }

    /// Attaches a span profiler to the whole system. The LLC (and through
    /// it the index/PRINCE layer) receives a clone of the handle, so model
    /// spans nest under the simulator's `run`/`core`/`llc` spans in one
    /// tree. Profiling is strictly observational: attached or not, the
    /// simulation's transcript, statistics, and RNG draws are identical.
    pub fn set_profiler(&mut self, profiler: ProfileHandle) {
        self.llc.set_profiler(profiler.clone());
        self.profiler = profiler;
    }

    /// Runs warm-up plus measurement and returns the results.
    pub fn run(&mut self) -> RunResult {
        self.run_impl(None)
    }

    /// Like [`run`](Self::run), but audits the LLC's structural invariants
    /// (see `CacheModel::audit`) every `AUDIT_INTERVAL` trace records and
    /// once more after the run completes.
    ///
    /// This is the checked-simulation mode used by tests: corruption is
    /// caught within ~10k accesses of its introduction rather than
    /// surfacing as silently wrong statistics.
    ///
    /// # Panics
    ///
    /// Panics with the audit's description if the LLC reports corruption.
    pub fn run_checked(&mut self) -> RunResult {
        const AUDIT_INTERVAL: u64 = 10_000;
        let result = self.run_impl(Some(AUDIT_INTERVAL));
        if let Err(e) = self.llc.audit() {
            panic!("LLC '{}' corrupt after checked run: {e}", self.llc.name());
        }
        result
    }

    fn run_impl(&mut self, audit_every: Option<u64>) -> RunResult {
        let target = self.config.warmup_instructions + self.config.measure_instructions;
        let _run = self.profiler.span(Component::Run);
        // With no probe, no profiler, and no auditing, every per-access
        // instrumentation call in the dispatch loop is a guaranteed no-op —
        // take the fused block-drain path that skips them entirely. The two
        // paths execute the identical schedule and access stream (pinned by
        // the profiled-vs-bare conservation tests), they differ only in
        // observation overhead.
        if self.probe.is_active() || self.profiler.is_active() || audit_every.is_some() {
            self.run_instrumented(target, audit_every);
        } else {
            self.run_fused(target);
        }
        let cores = self
            .cores
            .iter()
            .map(|c| {
                let drain = c.outstanding.max().unwrap_or(c.t);
                let mut m = c.meas.clone();
                m.cycles = drain.max(c.t).saturating_sub(c.meas_start_cycle);
                m
            })
            .collect();
        RunResult {
            cores,
            llc: self.llc.stats().clone(),
            dram: self.dram.counters(),
            llc_name: self.llc.name(),
        }
    }

    /// The observed dispatch loop: one scheduler decision, one profiler
    /// clock advance, and one `sched`/`core` span boundary per access.
    fn run_instrumented(&mut self, target: u64, audit_every: Option<u64>) {
        let mut steps: u64 = 0;
        // The loop alternates between two phase spans via gap-free
        // transitions (one timer sample per boundary), so every cycle of
        // the dispatch loop is attributed to either `sched` or `core` —
        // nothing leaks into `run`'s self time.
        let mut phase = self.profiler.span(Component::Sched);
        loop {
            // Advance the core that is furthest behind in time, so cores
            // interleave at the shared LLC and DRAM realistically.
            let next = (0..self.cores.len())
                .filter(|&i| self.cores[i].retired < target)
                .min_by_key(|&i| self.cores[i].t);
            match next {
                Some(i) => {
                    self.profiler.set_cycle(self.cores[i].t);
                    self.profiler.add_accesses(1);
                    phase = phase.transition(Component::Core);
                    self.step::<true>(i);
                    phase = phase.transition(Component::Sched);
                }
                None => break,
            }
            steps = steps.saturating_add(1);
            if let Some(every) = audit_every {
                if steps.is_multiple_of(every) {
                    let _audit = self.profiler.span(Component::Audit);
                    if let Err(e) = self.llc.audit() {
                        panic!(
                            "LLC '{}' corrupt after {steps} trace records: {e}",
                            self.llc.name()
                        );
                    }
                }
            }
        }
        drop(phase);
    }

    /// The fused dispatch loop: picks the laggard core once, then drains
    /// accesses from it for as long as the pick would not change, without
    /// touching the (inert) probe/profiler handles.
    ///
    /// The scheduler's `min_by_key` in [`Self::run_instrumented`] selects
    /// the *first* unfinished core with minimal time. Here each core has
    /// one `u64` key — its clock while unfinished, `u64::MAX` once done —
    /// so the eight keys of a Table V run share one host cache line and
    /// the pick is the first minimum of one pass over them. Core `i`
    /// remains the pick exactly while `t_i` stays strictly below every
    /// earlier key and not above any later one. Both bounds are constants
    /// during a drain (only core `i`'s clock moves), so the inner loop
    /// needs only two comparisons per access to reproduce the per-access
    /// schedule exactly, and only core `i`'s key is rewritten after it.
    fn run_fused(&mut self, target: u64) {
        let key = |c: &Core| if c.retired < target { c.t } else { u64::MAX };
        let mut keys: Vec<u64> = self.cores.iter().map(key).collect();
        // `min_by_key` returns the first of equal minima.
        while let Some((i, &k)) = keys.iter().enumerate().min_by_key(|&(_, &k)| k) {
            if k == u64::MAX {
                break;
            }
            let before = keys[..i].iter().copied().min().unwrap_or(u64::MAX);
            let after = keys[i + 1..].iter().copied().min().unwrap_or(u64::MAX);
            loop {
                self.step::<false>(i);
                let c = &self.cores[i];
                if c.retired >= target || c.t >= before || c.t > after {
                    break;
                }
            }
            keys[i] = key(&self.cores[i]);
        }
    }

    /// Pulls the next trace record for core `i` from its block buffer,
    /// refilling the buffer through one `fill_block` virtual call when it
    /// runs dry.
    #[inline]
    fn next_access(&mut self, i: usize) -> Access {
        let core = &mut self.cores[i];
        if core.block_pos == core.block.len() {
            if core.block.is_empty() {
                const PLACEHOLDER: Access = Access {
                    addr: 0,
                    is_write: false,
                    pc: 0,
                    gap: 0,
                    dependent: false,
                };
                core.block.resize(BLOCK_ACCESSES, PLACEHOLDER);
            }
            core.gen.fill_block(&mut core.block);
            core.block_pos = 0;
        }
        let a = core.block[core.block_pos];
        core.block_pos = core.block_pos.wrapping_add(1);
        core.accesses = core.accesses.wrapping_add(1);
        a
    }

    /// Executes one trace record (gap instructions plus one memory access)
    /// on core `i`. `OBS` gates every per-access probe/profiler call, here
    /// and in the load/store walks it threads through, so none of them is
    /// compiled into the fused loop. That loop runs with `OBS = false` only
    /// when both handles are inert, where every gated call is a behavioral
    /// no-op — so the two instantiations produce identical transcripts.
    fn step<const OBS: bool>(&mut self, i: usize) {
        // In the instrumented loop the caller has already advanced the
        // profiler clocks and opened the `core` span for this step.
        let access = self.next_access(i);
        let line = access.addr >> 6;
        {
            let core = &mut self.cores[i];
            // Retire the gap instructions at commit width.
            let total = core.instr_carry + access.gap;
            core.t = core
                .t
                .saturating_add(u64::from(total / self.config.commit_width));
            core.instr_carry = total % self.config.commit_width;
            core.retired = core.retired.saturating_add(u64::from(access.gap) + 1);
            if core.measuring {
                core.meas.instructions = core
                    .meas
                    .instructions
                    .saturating_add(u64::from(access.gap) + 1);
            }
        }
        // Stamp subsequent events (LLC, DRAM, prefetch) with the stepping
        // core's clock; cores advance in time order, so the stream is
        // near-monotone.
        if OBS {
            self.probe.set_cycle(self.cores[i].t);
            self.profiler.set_cycle(self.cores[i].t);
            self.probe.emit_with(|| EventKind::Retire {
                instructions: access.gap + 1,
            });
        }
        if access.is_write {
            self.store::<OBS>(i, line, access.pc);
        } else {
            self.load::<OBS>(i, line, access.pc, access.dependent);
        }
        // Warm-up boundary: start measuring this core; when the last core
        // warms up, zero the shared-LLC statistics so Figure-1-style
        // eviction accounting covers only the measurement region.
        if !self.cores[i].measuring && self.cores[i].retired >= self.config.warmup_instructions {
            let core = &mut self.cores[i];
            core.measuring = true;
            core.meas_start_cycle = core.t;
            self.warmed = self.warmed.saturating_add(1);
            if self.warmed == self.cores.len() {
                self.llc.reset_stats();
            }
        }
    }

    fn load<const OBS: bool>(&mut self, i: usize, line: u64, pc: u64, dependent: bool) {
        if dependent {
            let core = &mut self.cores[i];
            core.t = core.t.max(core.last_load_completion);
        }
        // Take the core's scratch buffer for the duration of the access so
        // prefetch targets survive the `&mut self` walk calls below without
        // a per-access allocation (`Vec` moves are pointer swaps).
        let mut prefetches = std::mem::take(&mut self.cores[i].prefetch_buf);
        self.cores[i]
            .prefetcher
            .observe_into(pc, line, &mut prefetches);
        let r1 = self.cores[i].l1d.read(line);
        let l1_lat = u64::from(self.config.l1d.latency);
        let latency = if r1.hit {
            l1_lat
        } else {
            if let Some(v) = r1.writeback {
                self.l2_writeback::<OBS>(i, v);
            }
            l1_lat + self.walk_below_l1::<OBS>(i, line, true)
        };
        let core = &mut self.cores[i];
        if latency > l1_lat {
            // A real miss occupies an MSHR; stall when the window is full.
            if core.outstanding.len() >= self.config.mlp {
                if let Some(free_at) = core.outstanding.pop_min() {
                    core.t = core.t.max(free_at);
                }
            }
            let completion = core.t + latency;
            core.outstanding.push(completion);
            core.last_load_completion = completion;
        } else {
            core.last_load_completion = core.t + latency;
        }
        // Retire completed misses from the window.
        core.outstanding.retire_through(core.t);
        if OBS {
            self.probe.emit_with(|| EventKind::LoadComplete { latency });
        }
        for &p in prefetches.iter() {
            self.prefetch_fill::<OBS>(i, p);
        }
        prefetches.clear();
        self.cores[i].prefetch_buf = prefetches;
    }

    /// Write-allocate store: dirties L1D; a miss issues an RFO that behaves
    /// like a load for the hierarchy and the MSHR window, but the store
    /// itself never stalls retirement (write-buffer semantics).
    fn store<const OBS: bool>(&mut self, i: usize, line: u64, pc: u64) {
        // The L1D prefetcher trains on all demand accesses, stores
        // included — write-heavy streams would otherwise break stride
        // detection.
        let mut prefetches = std::mem::take(&mut self.cores[i].prefetch_buf);
        self.cores[i]
            .prefetcher
            .observe_into(pc, line, &mut prefetches);
        let r1 = self.cores[i].l1d.write(line);
        if !r1.hit {
            if let Some(v) = r1.writeback {
                self.l2_writeback::<OBS>(i, v);
            }
            let latency = self.walk_below_l1::<OBS>(i, line, true);
            let core = &mut self.cores[i];
            if core.outstanding.len() >= self.config.mlp {
                if let Some(free_at) = core.outstanding.pop_min() {
                    core.t = core.t.max(free_at);
                }
            }
            core.outstanding.push(core.t + latency);
        }
        for &p in prefetches.iter() {
            self.prefetch_fill::<OBS>(i, p);
        }
        prefetches.clear();
        self.cores[i].prefetch_buf = prefetches;
    }

    /// L2 → LLC → DRAM walk for a request that missed L1. Returns the
    /// latency beyond the L1 access. `demand` distinguishes demand traffic
    /// (counted in MPKI, waits on in-flight prefetches) from prefetches
    /// (inserted at distant priority, never counted).
    fn walk_below_l1<const OBS: bool>(&mut self, i: usize, line: u64, demand: bool) -> u64 {
        let kind = if demand {
            AccessKind::Read
        } else {
            AccessKind::Prefetch
        };
        // The L2 treats prefetch fills as ordinary fills (normal insertion
        // priority); prefetch-awareness matters at the shared LLC.
        let r2 = self.cores[i].l2.read(line);
        let l2_lat = u64::from(self.config.l2.latency);
        if r2.hit {
            if !demand {
                return l2_lat;
            }
            // Timeliness: a line prefetched but not yet arrived makes this
            // demand a *late-prefetch* miss — it merges with the prefetch
            // and waits out the residual latency.
            let now = self.cores[i].t;
            if let Some(ready_at) = self.cores[i].inflight_prefetch.remove(line) {
                if ready_at > now {
                    self.cores[i].prefetcher.note_late();
                    if OBS {
                        self.probe
                            .emit_with(|| EventKind::PrefetchLateMerge { line });
                    }
                    if self.cores[i].measuring {
                        self.cores[i].meas.l2_misses =
                            self.cores[i].meas.l2_misses.saturating_add(1);
                        self.cores[i].meas.llc_demand_accesses =
                            self.cores[i].meas.llc_demand_accesses.saturating_add(1);
                        self.cores[i].meas.llc_demand_misses =
                            self.cores[i].meas.llc_demand_misses.saturating_add(1);
                        self.cores[i].meas.late_prefetch_merges =
                            self.cores[i].meas.late_prefetch_merges.saturating_add(1);
                    }
                    return (ready_at - now).max(l2_lat);
                }
                self.cores[i].prefetcher.note_timely();
                if self.cores[i].measuring {
                    self.cores[i].meas.timely_prefetch_hits =
                        self.cores[i].meas.timely_prefetch_hits.saturating_add(1);
                }
            }
            return l2_lat;
        }
        // A prefetch reaches here only after `prefetch_fill` proved its line
        // is not in flight; a demand miss may still find one whose line the
        // L2 has since evicted.
        if demand {
            self.cores[i].inflight_prefetch.remove(line);
        }
        if let Some(v) = r2.writeback {
            self.llc_writeback::<OBS>(i, v);
        }
        if demand && self.cores[i].measuring {
            self.cores[i].meas.l2_misses = self.cores[i].meas.l2_misses.saturating_add(1);
            self.cores[i].meas.llc_demand_accesses =
                self.cores[i].meas.llc_demand_accesses.saturating_add(1);
        }
        let domain = self.cores[i].domain;
        let llc_lat = u64::from(self.config.llc_latency) + u64::from(self.llc.extra_latency());
        let r3 = {
            let _llc = OBS.then(|| self.profiler.span(Component::Llc));
            self.llc.access(Request { line, kind, domain })
        };
        let now = self.cores[i].t + l2_lat + llc_lat;
        if !r3.writebacks.is_empty() {
            let _dram = OBS.then(|| self.profiler.span(Component::Dram));
            for wb in r3.writebacks.iter() {
                self.dram.write(wb, domain, now);
            }
        }
        if r3.is_data_hit() {
            return l2_lat + llc_lat;
        }
        if demand && self.cores[i].measuring {
            self.cores[i].meas.llc_demand_misses =
                self.cores[i].meas.llc_demand_misses.saturating_add(1);
        }
        let _dram = OBS.then(|| self.profiler.span(Component::Dram));
        l2_lat + llc_lat + self.dram.read(line, domain, now)
    }

    /// A dirty L2 victim written back to the LLC; its own victims go to
    /// DRAM.
    fn llc_writeback<const OBS: bool>(&mut self, i: usize, line: u64) {
        let domain = self.cores[i].domain;
        let r = {
            let _llc = OBS.then(|| self.profiler.span(Component::Llc));
            self.llc.access(Request::writeback(line, domain))
        };
        let now = self.cores[i].t;
        if !r.writebacks.is_empty() {
            let _dram = OBS.then(|| self.profiler.span(Component::Dram));
            for wb in r.writebacks.iter() {
                self.dram.write(wb, domain, now);
            }
        }
    }

    /// A dirty L1 victim written back into L2 (allocating); L2 victims
    /// cascade to the LLC.
    fn l2_writeback<const OBS: bool>(&mut self, i: usize, line: u64) {
        let r = self.cores[i].l2.write(line);
        if let Some(v) = r.writeback {
            self.llc_writeback::<OBS>(i, v);
        }
    }

    /// A prefetch fill into L2: exercises the LLC and DRAM (occupying
    /// banks), records the line's arrival time for the timeliness check,
    /// and is excluded from demand MPKI. Lines already in L2 or already in
    /// flight are not refetched.
    fn prefetch_fill<const OBS: bool>(&mut self, i: usize, line: u64) {
        if self.cores[i].l2.probe(line) || self.cores[i].inflight_prefetch.contains(line) {
            return;
        }
        if OBS {
            self.probe.emit_with(|| EventKind::PrefetchIssue { line });
        }
        let _prefetch = OBS.then(|| self.profiler.span(Component::Prefetch));
        let latency = self.walk_below_l1::<OBS>(i, line, false);
        let core = &mut self.cores[i];
        core.inflight_prefetch.insert(line, core.t + latency);
        // Bound the table: drop entries whose data already arrived.
        if core.inflight_prefetch.len() > 32 * 1024 {
            core.inflight_prefetch.retain_ready_after(core.t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maya_core::{
        MayaCache, MayaConfig, MirageCache, MirageConfig, Policy, SetAssocCache, SetAssocConfig,
    };
    use workloads::mixes::homogeneous;

    fn small_cfg(cores: usize) -> SystemConfig {
        SystemConfig {
            cores,
            ..SystemConfig::eight_core_default().with_instructions(20_000, 50_000)
        }
    }

    fn baseline_llc(lines: usize) -> Box<dyn CacheModel> {
        Box::new(SetAssocCache::new(SetAssocConfig::new(
            lines / 16,
            16,
            Policy::Srrip,
        )))
    }

    #[test]
    fn mshr_window_tracks_its_earliest_completion_exactly() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut window = MshrWindow::default();
        let mut model: Vec<u64> = Vec::new();
        let mut rng = SmallRng::seed_from_u64(0x3511);
        let mut now = 0u64;
        for n in 0..50_000 {
            match rng.gen_range(0..4u8) {
                0 | 1 if model.len() < 16 => {
                    // Completions land near `now`, duplicates included.
                    let c = now + rng.gen_range(0..40u64);
                    window.push(c);
                    model.push(c);
                }
                2 => {
                    let want = model.iter().copied().min();
                    if let Some(m) = want {
                        let at = model.iter().position(|&c| c == m).expect("present");
                        model.swap_remove(at);
                    }
                    assert_eq!(window.pop_min(), want, "pop_min at step {n}");
                }
                _ => {
                    now += rng.gen_range(0..12u64);
                    window.retire_through(now);
                    model.retain(|&c| c > now);
                }
            }
            let mut got = window.slots.clone();
            got.sort_unstable();
            let mut want = model.clone();
            want.sort_unstable();
            assert_eq!(got, want, "contents at step {n}");
            assert_eq!(window.len(), model.len());
            assert_eq!(
                window.earliest,
                model.iter().copied().min().unwrap_or(u64::MAX),
                "cached earliest at step {n}"
            );
            assert_eq!(window.max(), model.iter().copied().max());
        }
    }

    #[test]
    fn single_core_run_produces_sane_ipc() {
        let cfg = small_cfg(1);
        let mut sys = System::new(cfg, baseline_llc(32 * 1024), &homogeneous("mcf", 1), 1);
        let r = sys.run();
        let ipc = r.cores[0].ipc();
        assert!(ipc > 0.01 && ipc < 4.0, "IPC {ipc} out of range");
        assert!(r.cores[0].mpki() > 1.0, "mcf must be memory-intensive");
    }

    #[test]
    fn llc_fitting_workload_barely_misses() {
        // Needs a long enough run for the (small) working set to warm up.
        let cfg = SystemConfig {
            cores: 1,
            ..SystemConfig::eight_core_default().with_instructions(300_000, 300_000)
        };
        let mut sys = System::new(cfg, baseline_llc(32 * 1024), &homogeneous("leela", 1), 1);
        let r = sys.run();
        assert!(
            r.cores[0].mpki() < 3.0,
            "leela MPKI {} should be tiny",
            r.cores[0].mpki()
        );
    }

    #[test]
    fn streaming_workload_has_high_dead_block_fraction() {
        // The 32K-line LLC must fill and start evicting before dead-block
        // accounting says anything.
        let cfg = SystemConfig {
            cores: 1,
            ..SystemConfig::eight_core_default().with_instructions(100_000, 600_000)
        };
        let mut sys = System::new(cfg, baseline_llc(32 * 1024), &homogeneous("lbm", 1), 1);
        let r = sys.run();
        let dead = r.dead_block_fraction().expect("lbm must evict");
        assert!(dead > 0.9, "lbm dead fraction {dead} must be ~1");
    }

    #[test]
    fn maya_llc_plugs_in_and_runs() {
        let cfg = small_cfg(2);
        let llc = Box::new(MayaCache::new(MayaConfig::for_baseline_lines(64 * 1024, 3)));
        let mut sys = System::new(cfg, llc, &homogeneous("mcf", 2), 1);
        let r = sys.run();
        assert_eq!(r.llc_name, "maya");
        assert_eq!(r.llc.saes, 0, "no SAE expected in a short run");
        assert!(r.cores.iter().all(|c| c.ipc() > 0.0));
    }

    #[test]
    fn mirage_llc_plugs_in_and_runs() {
        let cfg = small_cfg(2);
        let llc = Box::new(MirageCache::new(MirageConfig::for_data_entries(
            64 * 1024,
            3,
        )));
        let mut sys = System::new(cfg, llc, &homogeneous("bwaves", 2), 1);
        let r = sys.run();
        assert_eq!(r.llc_name, "mirage");
        assert!(r.cores.iter().all(|c| c.ipc() > 0.0));
    }

    #[test]
    fn checked_run_audits_maya_and_mirage_without_findings() {
        // run_checked() audits the LLC every 10k records; with 70k records
        // per run this exercises mid-run audits, not just the final one.
        let cfg = small_cfg(1);
        let llc = Box::new(MayaCache::new(MayaConfig::for_baseline_lines(32 * 1024, 5)));
        let mut sys = System::new(cfg.clone(), llc, &homogeneous("mcf", 1), 2);
        let r = sys.run_checked();
        assert!(r.cores[0].ipc() > 0.0);

        let llc = Box::new(MirageCache::new(MirageConfig::for_data_entries(
            32 * 1024,
            5,
        )));
        let mut sys = System::new(cfg, llc, &homogeneous("lbm", 1), 2);
        let r = sys.run_checked();
        assert!(r.cores[0].ipc() > 0.0);
    }

    #[test]
    fn checked_run_matches_unchecked_run_exactly() {
        // Auditing is read-only by contract; the checked mode must not
        // perturb results.
        let build = || {
            let cfg = small_cfg(1);
            let llc = Box::new(MayaCache::new(MayaConfig::for_baseline_lines(32 * 1024, 7)));
            System::new(cfg, llc, &homogeneous("xz", 1), 4)
        };
        let a = build().run();
        let b = build().run_checked();
        assert_eq!(a.cores[0], b.cores[0]);
        assert_eq!(a.dram, b.dram);
    }

    #[test]
    fn identical_seeds_reproduce_results_exactly() {
        let run = || {
            let cfg = small_cfg(1);
            let mut sys = System::new(cfg, baseline_llc(32 * 1024), &homogeneous("xz", 1), 9);
            sys.run()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.cores[0], b.cores[0]);
        assert_eq!(a.dram, b.dram);
    }

    #[test]
    #[should_panic(expected = "configured for")]
    fn core_count_mismatch_panics() {
        let cfg = small_cfg(4);
        System::new(cfg, baseline_llc(1024), &homogeneous("mcf", 2), 1);
    }

    #[test]
    fn pointer_chase_is_slower_than_cached_working_set() {
        let cfg = small_cfg(1);
        let mut chase = System::new(
            cfg.clone(),
            baseline_llc(32 * 1024),
            &homogeneous("mcf", 1),
            1,
        );
        let mut hits = System::new(cfg, baseline_llc(32 * 1024), &homogeneous("leela", 1), 1);
        let slow = chase.run().cores[0].ipc();
        let fast = hits.run().cores[0].ipc();
        assert!(fast > 2.0 * slow, "cache-resident {fast} vs chase {slow}");
    }
}
