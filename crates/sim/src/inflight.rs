//! A bounded open-addressing map from cache line to arrival cycle, used
//! for the per-core in-flight-prefetch table.
//!
//! The table replaces a `BTreeMap<u64, u64>` on the simulator's hottest
//! path: every L2 demand hit probes it, every prefetch fill inserts into
//! it. Each slot is one 16-byte `{line, ready}` record, so a probe reads
//! one host line, and deletion shifts the rest of the probe chain back
//! instead of leaving a tombstone, so the table never needs a cleanup
//! rehash. The table allocates only when it grows, which happens only
//! while the live entry count climbs past the constructor's hint — in
//! steady state the slot array is stable.
//!
//! Determinism: the hash is a fixed multiplicative mix of the line address
//! (no per-process seeds, no entropy), probing is linear, and every
//! observable operation (`insert`/`remove`/`contains`/`retain_ready_after`)
//! depends only on the *set* of resident entries — never on slot order — so
//! simulation results are bit-identical to the ordered-map implementation.

/// Line value marking an empty slot. No simulated line reaches it: line
/// addresses are byte addresses shifted right by six, and prefetch
/// targets are non-negative `i64`s.
const EMPTY: u64 = u64::MAX;

/// Fixed multiplicative hash (Fibonacci hashing on 64 bits). Line
/// addresses are sequential-ish; the multiply spreads them across slots.
fn mix(line: u64) -> u64 {
    line.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// One table slot: a resident line and its arrival cycle, or `EMPTY`.
#[derive(Debug, Clone, Copy)]
struct Slot {
    line: u64,
    ready: u64,
}

const EMPTY_SLOT: Slot = Slot {
    line: EMPTY,
    ready: 0,
};

/// A deterministic open-addressing `line -> ready_cycle` map.
///
/// Capacity is always a power of two and the load factor is kept at or
/// below 1/2, so linear probe chains stay short.
#[derive(Debug, Clone)]
pub(crate) struct InflightTable {
    slots: Vec<Slot>,
    /// Resident entries.
    len: usize,
}

impl InflightTable {
    /// An empty table with room for `capacity_hint` entries before it
    /// first grows.
    pub(crate) fn with_capacity(capacity_hint: usize) -> Self {
        let slots = (capacity_hint.max(8) * 2).next_power_of_two();
        Self {
            slots: vec![EMPTY_SLOT; slots],
            len: 0,
        }
    }

    /// Number of resident entries.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    /// The slot `line`'s probe chain starts at.
    fn home(&self, line: u64) -> usize {
        (mix(line) as usize) & self.mask()
    }

    /// Index of `line`'s slot if resident, else of the empty slot that
    /// ends its probe chain.
    fn probe(&self, line: u64) -> Result<usize, usize> {
        debug_assert_ne!(line, EMPTY, "the empty-slot sentinel is not a line");
        let mask = self.mask();
        let mut i = self.home(line);
        loop {
            match self.slots[i].line {
                l if l == line => return Ok(i),
                EMPTY => return Err(i),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Whether `line` is resident.
    pub(crate) fn contains(&self, line: u64) -> bool {
        self.probe(line).is_ok()
    }

    /// Removes `line`, returning its ready cycle if it was resident.
    pub(crate) fn remove(&mut self, line: u64) -> Option<u64> {
        let i = self.probe(line).ok()?;
        let ready = self.slots[i].ready;
        self.remove_at(i);
        Some(ready)
    }

    /// Empties slot `i` by backward-shift deletion: every later entry of
    /// the probe chain whose home does not lie cyclically in `(hole, j]`
    /// moves back into the hole, so chains stay unbroken without
    /// tombstones.
    fn remove_at(&mut self, mut hole: usize) {
        let mask = self.mask();
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let line = self.slots[j].line;
            if line == EMPTY {
                break;
            }
            // Distance from the entry's home to `j` against the distance
            // from the hole to `j`: the entry may fill the hole only if
            // its home is at or before the hole along the chain.
            let home = self.home(line);
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.slots[hole] = self.slots[j];
                hole = j;
            }
        }
        self.slots[hole] = EMPTY_SLOT;
        self.len = self.len.wrapping_sub(1);
    }

    /// Inserts `line -> ready`, replacing any existing entry's cycle.
    pub(crate) fn insert(&mut self, line: u64, ready: u64) {
        if (self.len + 1) * 2 > self.slots.len() {
            self.grow();
        }
        match self.probe(line) {
            Ok(i) => self.slots[i].ready = ready,
            Err(i) => {
                self.slots[i] = Slot { line, ready };
                self.len = self.len.wrapping_add(1);
            }
        }
    }

    /// Drops every entry whose ready cycle is at or before `now` (the
    /// table's bounding sweep: data that already arrived needs no merge
    /// bookkeeping), in place.
    pub(crate) fn retain_ready_after(&mut self, now: u64) {
        // A deletion shifts later chain entries back into slot `i`, so
        // `i` is re-examined before moving on. Entries only ever move
        // backwards into `i` or wrap from the array's start to its end;
        // either way no unvisited entry escapes the sweep, and a wrapped
        // survivor is merely checked twice.
        let mut i = 0;
        while i < self.slots.len() {
            let s = self.slots[i];
            if s.line != EMPTY && s.ready <= now {
                self.remove_at(i);
            } else {
                i = i.wrapping_add(1);
            }
        }
    }

    /// Doubles the slot count and reinserts every resident entry.
    fn grow(&mut self) {
        let grown = vec![EMPTY_SLOT; self.slots.len() * 2];
        let old = std::mem::replace(&mut self.slots, grown);
        let mask = self.mask();
        for s in old {
            if s.line != EMPTY {
                // Lines are unique, so each reinsert ends at the first
                // empty slot of its chain.
                let mut i = self.home(s.line);
                while self.slots[i].line != EMPTY {
                    i = (i + 1) & mask;
                }
                self.slots[i] = s;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn insert_remove_contains_roundtrip() {
        let mut t = InflightTable::with_capacity(4);
        assert_eq!(t.len(), 0);
        t.insert(0, 10); // line 0 is a valid key, not a sentinel
        t.insert(7, 20);
        assert!(t.contains(0) && t.contains(7) && !t.contains(1));
        assert_eq!(t.remove(0), Some(10));
        assert_eq!(t.remove(0), None);
        assert_eq!(t.len(), 1);
        assert_eq!(t.remove(7), Some(20));
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn deletions_do_not_break_probe_chains() {
        let mut t = InflightTable::with_capacity(8);
        // Force collisions: keys that share a probe neighborhood after
        // masking are found across intermediate tombstones.
        let keys: Vec<u64> = (0..12).map(|k| k * 16).collect();
        for &k in &keys {
            t.insert(k, k + 1);
        }
        for &k in keys.iter().step_by(2) {
            assert_eq!(t.remove(k), Some(k + 1));
        }
        for &k in keys.iter().skip(1).step_by(2) {
            assert_eq!(t.remove(k), Some(k + 1), "key {k} lost to a tombstone");
        }
    }

    #[test]
    fn matches_btreemap_under_mixed_churn() {
        // Deterministic LCG-driven fuzz against the reference container the
        // table replaced: the observable set must match at every step.
        let mut t = InflightTable::with_capacity(16);
        let mut m: BTreeMap<u64, u64> = BTreeMap::new();
        let mut x = 0x1a0e_5eed_u64;
        for step in 0..50_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let line = (x >> 16) % 512;
            match x % 5 {
                0 | 1 => {
                    if let std::collections::btree_map::Entry::Vacant(e) = m.entry(line) {
                        e.insert(step);
                        t.insert(line, step);
                    }
                }
                2 => assert_eq!(t.remove(line), m.remove(&line)),
                3 => assert_eq!(t.contains(line), m.contains_key(&line)),
                _ => {
                    if step % 97 == 0 {
                        let now = step.saturating_sub(40);
                        m.retain(|_, &mut ready| ready > now);
                        t.retain_ready_after(now);
                    }
                }
            }
            assert_eq!(t.len(), m.len(), "len diverged at step {step}");
        }
        assert!(m.values().count() > 0, "fuzz must end non-trivially");
    }

    #[test]
    fn growth_preserves_all_entries() {
        let mut t = InflightTable::with_capacity(2);
        for k in 0..10_000u64 {
            t.insert(k, k * 3);
        }
        assert_eq!(t.len(), 10_000);
        for k in 0..10_000u64 {
            assert_eq!(t.remove(k), Some(k * 3));
        }
    }

    #[test]
    fn backward_shift_keeps_wrapped_chains_intact() {
        // Lines homed on the last slot and on slot 0 of a 16-slot table:
        // their shared chain wraps around the end of the array.
        let mut t = InflightTable::with_capacity(8);
        let mask = t.mask();
        let homed = |h: usize| (0u64..).filter(move |&l| (mix(l) as usize) & mask == h);
        let keys: Vec<u64> = homed(mask).take(3).chain(homed(0).take(3)).collect();
        for order in [
            [0usize, 1, 2, 3, 4, 5],
            [3, 0, 4, 1, 5, 2],
            [5, 4, 3, 2, 1, 0],
        ] {
            for &k in &keys {
                t.insert(k, k + 1);
            }
            for (n, &o) in order.iter().enumerate() {
                assert_eq!(t.remove(keys[o]), Some(keys[o] + 1));
                for &p in &order[n + 1..] {
                    assert!(
                        t.contains(keys[p]),
                        "key {} lost after removing {}",
                        keys[p],
                        keys[o]
                    );
                }
            }
            assert_eq!(t.len(), 0);
            assert!(t.slots.iter().all(|s| s.line == EMPTY));
        }
    }

    #[test]
    fn retain_sweeps_in_place() {
        let mut t = InflightTable::with_capacity(128);
        let slots = t.slots.len();
        for k in 0..100u64 {
            t.insert(k * 7, k);
        }
        t.retain_ready_after(49);
        assert_eq!(t.len(), 50);
        for k in 0..100u64 {
            assert_eq!(t.contains(k * 7), k > 49, "line {}", k * 7);
        }
        assert_eq!(t.slots.len(), slots);
    }

    #[test]
    fn steady_churn_never_grows_the_table() {
        // Live entries stay under the hint, so the slot array built by
        // the constructor is the only one the table ever allocates.
        let mut t = InflightTable::with_capacity(1024);
        let slots = t.slots.len();
        for k in 0..200_000u64 {
            t.insert(k, k);
            if k >= 600 {
                assert_eq!(t.remove(k - 600), Some(k - 600));
            }
        }
        assert_eq!(t.len(), 600);
        assert_eq!(t.slots.len(), slots);
    }
}
