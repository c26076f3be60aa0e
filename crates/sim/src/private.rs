//! Set-contiguous private (L1/L2) cache model.
//!
//! The per-core L1D and L2 used to be full [`maya_core::baseline`]
//! `SetAssocCache` instances, but the simulator observes only three things
//! from a private level: hit/miss, at most one dirty-victim writeback per
//! access, and a tag-presence probe. Everything else the baseline tracks —
//! statistics, reuse bits, domains, probes (never attached at these
//! levels), replacement-policy generality — is dead weight paid on every
//! one of the hottest lookups in the simulator (the L1 sees every access,
//! the L2 every L1 miss and prefetch).
//!
//! [`PrivateCache`] keeps exactly the observable state in one `u64` vector,
//! each set a contiguous run of `ways + 2` words:
//!
//! ```text
//! [line 0] .. [line ways-1] [recency] [dirty | len << 16]
//! ```
//!
//! Nothing ever invalidates a private-cache line, so a set's valid ways are
//! always the prefix `0..len`: a miss in a set that is not full fills way
//! `len`. The recency word is a permutation of the valid way numbers, one
//! nibble each, most recent at nibble 0. A hit moves its way to the front;
//! a miss in a full set evicts the way in nibble `ways - 1`, the least
//! recently used one. The low 16 bits of the last word are per-way dirty
//! bits.
//!
//! Behavioral equivalence with `SetAssocCache { Lru, Partitioning::None }`
//! is bit-exact and pinned by twin tests: same set mapping (`line & mask`),
//! the same fill order (the baseline's first invalid way is way `len`),
//! and the same victim. The baseline evicts the way with the smallest LRU
//! stamp from a `u32` clock bumped once per access; while that clock has
//! not wrapped (a cache's first 2^32 accesses) the stamps are distinct and
//! ordered by last touch, so the smallest stamp is the last nibble of the
//! recency word. Past that point the clock mis-orders stamps; the
//! permutation stays true LRU.

/// Most ways a set may have: the recency word holds sixteen 4-bit way
/// numbers, and the dirty mask sixteen bits.
const MAX_WAYS: usize = 16;

/// Bit offset of the valid-way count in a set's last word; the bits below
/// it are the per-way dirty mask.
const LEN_SHIFT: u32 = 16;
/// A one in every nibble.
const NIBBLE_ONES: u64 = 0x1111_1111_1111_1111;
/// The high bit of every nibble.
const NIBBLE_HIGHS: u64 = 0x8888_8888_8888_8888;

/// Outcome of one private-cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrivateResponse {
    /// True when the line was present.
    pub hit: bool,
    /// Dirty victim evicted by the fill, if any (line address).
    pub writeback: Option<u64>,
}

/// A set-associative LRU write-back cache holding only simulator-observable
/// state (see module docs).
#[derive(Debug, Clone)]
pub struct PrivateCache {
    set_mask: u64,
    ways: usize,
    /// The `ways` low nibbles of a recency word.
    order_mask: u64,
    /// `ways + 2` words per set: line words, recency word, dirty | len.
    words: Vec<u64>,
}

/// Moves way `w`, present in the recency word `order`, to nibble 0.
///
/// The nibble holding `w` is the lowest zero nibble of `order ^ w·0x1…1`:
/// the subtract-and-mask test below flags a zero nibble exactly when no
/// lower nibble is zero, so its lowest set bit is exact. Unused nibbles
/// above a non-full set's `len` are zero, but they sit above every valid
/// way's nibble.
#[inline]
fn touch(order: u64, w: usize) -> u64 {
    let x = order ^ (w as u64).wrapping_mul(NIBBLE_ONES);
    let zeros = x.wrapping_sub(NIBBLE_ONES) & !x & NIBBLE_HIGHS;
    let pos = zeros.trailing_zeros() & !3;
    let below = (1u64 << pos) - 1;
    let through = (below << 4) | 0xF;
    (order & !through) | ((order & below) << 4) | w as u64
}

impl PrivateCache {
    /// Creates a cache with `sets` sets (power of two) of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or `ways` is not in
    /// `1..=MAX_WAYS`.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets.is_power_of_two(), "sets must be a power of two");
        assert!(
            (1..=MAX_WAYS).contains(&ways),
            "a private cache holds 1 to {MAX_WAYS} ways per set, got {ways}"
        );
        PrivateCache {
            set_mask: (sets - 1) as u64,
            ways,
            order_mask: u64::MAX >> (64 - 4 * ways),
            words: vec![0; sets * (ways + 2)],
        }
    }

    /// The indices of `line`'s set in `words`.
    #[inline]
    fn set_range(&self, line: u64) -> std::ops::Range<usize> {
        let stride = self.ways + 2;
        let base = (line & self.set_mask) as usize * stride;
        base..base + stride
    }

    /// The way holding `line` among the set's valid ways, if present.
    #[inline]
    fn find(lines: &[u64], meta: u64, line: u64) -> Option<usize> {
        let len = (meta >> LEN_SHIFT) as usize;
        lines[..len].iter().position(|&l| l == line)
    }

    /// True when `line` is present (no LRU update).
    #[inline]
    pub fn probe(&self, line: u64) -> bool {
        let set = &self.words[self.set_range(line)];
        Self::find(&set[..self.ways], set[self.ways + 1], line).is_some()
    }

    /// Demand read: LRU-touch on hit, LRU fill on miss.
    #[inline]
    pub fn read(&mut self, line: u64) -> PrivateResponse {
        self.access(line, false)
    }

    /// Writeback from the level above: marks dirty on hit, installs dirty
    /// on miss.
    #[inline]
    pub fn write(&mut self, line: u64) -> PrivateResponse {
        self.access(line, true)
    }

    #[inline]
    fn access(&mut self, line: u64, is_write: bool) -> PrivateResponse {
        let ways = self.ways;
        let range = self.set_range(line);
        let (lines, tail) = self.words[range].split_at_mut(ways);
        let (order, meta) = (tail[0], tail[1]);
        let dirty = u64::from(is_write);
        let len = (meta >> LEN_SHIFT) as usize;
        let (order, meta, response) = if let Some(w) = Self::find(lines, meta, line) {
            let hit = PrivateResponse {
                hit: true,
                writeback: None,
            };
            (touch(order, w), meta | dirty << w, hit)
        } else if len < ways {
            // Fill the first invalid way and make it the most recent.
            lines[len] = line;
            let miss = PrivateResponse {
                hit: false,
                writeback: None,
            };
            let meta = (meta + (1 << LEN_SHIFT)) | dirty << len;
            ((order << 4) | len as u64, meta, miss)
        } else {
            // Evict the least recent way, the last nibble, and refill it
            // as the most recent.
            let victim = ((order >> (4 * (ways - 1))) & 0xF) as usize;
            let miss = PrivateResponse {
                hit: false,
                writeback: ((meta >> victim) & 1 == 1).then_some(lines[victim]),
            };
            lines[victim] = line;
            let order = ((order << 4) | victim as u64) & self.order_mask;
            (order, (meta & !(1 << victim)) | dirty << victim, miss)
        };
        tail[0] = order;
        tail[1] = meta;
        response
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maya_core::{
        AccessKind, CacheModel, DomainId, Policy, Request, SetAssocCache, SetAssocConfig,
    };
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::VecDeque;

    /// Drives the lean cache and the full baseline with one stream and
    /// asserts every observable (hit, writeback set, probe) matches.
    fn twin_run(sets: usize, ways: usize, accesses: usize, seed: u64, footprint: u64) {
        let mut lean = PrivateCache::new(sets, ways);
        let mut full = SetAssocCache::new(SetAssocConfig::new(sets, ways, Policy::Lru));
        let mut rng = SmallRng::seed_from_u64(seed);
        for n in 0..accesses {
            let line = rng.gen_range(0..footprint);
            let is_write = rng.gen_bool(0.3);
            let lean_r = if is_write {
                lean.write(line)
            } else {
                lean.read(line)
            };
            let kind = if is_write {
                AccessKind::Writeback
            } else {
                AccessKind::Read
            };
            let full_r = full.access(Request {
                line,
                kind,
                domain: DomainId::ANY,
            });
            assert_eq!(
                lean_r.hit,
                full_r.is_data_hit(),
                "hit divergence at access {n} (line {line:#x}, write {is_write})"
            );
            let full_wb: Vec<u64> = full_r.writebacks.iter().collect();
            let lean_wb: Vec<u64> = lean_r.writeback.into_iter().collect();
            assert_eq!(lean_wb, full_wb, "writeback divergence at access {n}");
            let probe_line = rng.gen_range(0..footprint);
            assert_eq!(
                lean.probe(probe_line),
                full.probe(probe_line, DomainId::ANY),
                "probe divergence at access {n}"
            );
        }
    }

    #[test]
    fn twin_of_baseline_at_l1_geometry() {
        twin_run(64, 12, 40_000, 0xA11D, 6_000);
    }

    #[test]
    fn twin_of_baseline_at_l2_geometry() {
        twin_run(1024, 8, 60_000, 0x12DE, 60_000);
    }

    #[test]
    fn twin_of_baseline_tiny_thrashing_set() {
        // 1 set × 2 ways with a footprint of 5 lines exercises the victim
        // tie-break and dirty-writeback path constantly.
        twin_run(1, 2, 20_000, 7, 5);
    }

    /// Drives the cache and a reference true-LRU model (one `VecDeque` per
    /// set, most recent first, each line with its dirty bit) with random
    /// reads, writes and probes, comparing every observable on every step.
    fn lru_model_run(sets: usize, ways: usize, steps: usize, seed: u64, footprint: u64) {
        let mut cache = PrivateCache::new(sets, ways);
        let mut model: Vec<VecDeque<(u64, bool)>> = vec![VecDeque::new(); sets];
        let mut rng = SmallRng::seed_from_u64(seed);
        for n in 0..steps {
            let line = rng.gen_range(0..footprint);
            let set = &mut model[(line as usize) & (sets - 1)];
            match rng.gen_range(0..3u8) {
                0 => {
                    let want = set.iter().any(|&(l, _)| l == line);
                    assert_eq!(cache.probe(line), want, "probe at step {n} (line {line})");
                }
                op => {
                    let is_write = op == 2;
                    let got = if is_write {
                        cache.write(line)
                    } else {
                        cache.read(line)
                    };
                    let want = match set.iter().position(|&(l, _)| l == line) {
                        Some(pos) => {
                            let (_, dirty) = set.remove(pos).expect("present");
                            set.push_front((line, dirty || is_write));
                            PrivateResponse {
                                hit: true,
                                writeback: None,
                            }
                        }
                        None => {
                            let victim = (set.len() == ways).then(|| set.pop_back());
                            set.push_front((line, is_write));
                            PrivateResponse {
                                hit: false,
                                writeback: victim.flatten().filter(|&(_, d)| d).map(|(l, _)| l),
                            }
                        }
                    };
                    assert_eq!(got, want, "step {n} (line {line}, write {is_write})");
                }
            }
        }
    }

    #[test]
    fn true_lru_on_a_tiny_thrashing_set() {
        lru_model_run(1, 2, 20_000, 0x1A2B, 5);
    }

    #[test]
    fn true_lru_at_sixteen_ways() {
        // Sixteen ways fill every nibble of the recency word, so the
        // victim sits in nibble 15 and a hit there shifts the full word.
        lru_model_run(4, 16, 60_000, 0x16, 4 * 16 + 24);
    }

    #[test]
    fn true_lru_at_l1_geometry() {
        lru_model_run(64, 12, 60_000, 0x11D, 64 * 12 * 3 / 2);
    }

    #[test]
    fn true_lru_at_l2_geometry() {
        lru_model_run(1024, 8, 100_000, 0x12, 1024 * 8 * 3 / 2);
    }

    #[test]
    #[should_panic(expected = "1 to 16 ways")]
    fn more_than_sixteen_ways_is_rejected() {
        PrivateCache::new(4, 17);
    }

    #[test]
    fn writeback_miss_installs_dirty() {
        let mut c = PrivateCache::new(1, 1);
        assert_eq!(
            c.write(3),
            PrivateResponse {
                hit: false,
                writeback: None
            }
        );
        // Evicting the dirty line surfaces it as a writeback.
        assert_eq!(
            c.read(9),
            PrivateResponse {
                hit: false,
                writeback: Some(3)
            }
        );
        // A clean victim does not.
        assert_eq!(
            c.read(3),
            PrivateResponse {
                hit: false,
                writeback: None
            }
        );
    }
}
