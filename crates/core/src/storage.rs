//! Exact storage accounting for the three LLC designs (paper Table VIII).
//!
//! Every quantity is derived from first principles: a 46-bit physical
//! address (40-bit line address), MOESI coherence state, and pointer widths
//! sized as `ceil(log2(entries))`. The module reproduces the paper's
//! table bit-for-bit and generalizes to any geometry for sensitivity
//! studies.

use crate::maya::MayaConfig;
use crate::mirage::MirageConfig;

/// Sentinel for "no pointer" in every arena lane.
pub(crate) const NONE: u32 = u32::MAX;

/// Bit assignments for the arena's packed per-tag `meta` lane.
///
/// Each model uses the subset it needs: Maya encodes its `TagState` as
/// `Invalid = 0`, `Priority0 = VALID`, `Priority1Clean = VALID|DATA`,
/// `Priority1Dirty = VALID|DATA|DIRTY`, with `REUSED` tracking dead-block
/// accounting; Mirage uses `VALID|DATA` for every resident entry plus
/// `DIRTY`/`REUSED`.
pub(crate) mod meta {
    /// The entry holds a valid tag.
    pub const VALID: u8 = 1 << 0;
    /// The entry owns a data-store entry (its `ptr` word is the data
    /// pointer).
    pub const DATA: u8 = 1 << 1;
    /// The data is dirty (must be written back on release).
    pub const DIRTY: u8 = 1 << 2;
    /// The data was re-referenced after its fill (dead-block accounting).
    pub const REUSED: u8 = 1 << 3;
}

/// Bit layout of the arena's packed per-tag `key` lane.
///
/// The three per-tag scalars the way scan needs — state bits, security
/// domain, and a tag-hash filter byte — share one `u32`, so a way scan
/// reads 4 bytes per way:
///
/// ```text
/// bit 31        24 23        16 15                 0
///     [ filt (u8) | meta (u8)  |     sdid (u16)    ]
/// ```
pub(crate) mod key {
    /// Shift of the meta byte inside the packed key word.
    pub const META_SHIFT: u32 = 16;
    /// Shift of the filter byte inside the packed key word.
    pub const FILT_SHIFT: u32 = 24;
    /// The [`super::meta::VALID`] bit, in key-word position.
    pub const VALID: u32 = (super::meta::VALID as u32) << META_SHIFT;
    /// The [`super::meta::DATA`] bit, in key-word position.
    pub const DATA: u32 = (super::meta::DATA as u32) << META_SHIFT;
    /// Mask selecting the sdid half.
    pub const SDID_MASK: u32 = 0xFFFF;
    /// Mask selecting the meta byte.
    pub const META_MASK: u32 = 0xFF << META_SHIFT;
    /// Mask selecting the filter byte.
    pub const FILT_MASK: u32 = 0xFF << FILT_SHIFT;

    /// True when a packed key word encodes Maya's priority-0 state
    /// (valid, no data; `DIRTY`/`REUSED` may ride alongside).
    #[inline]
    pub fn is_p0(k: u32) -> bool {
        k & (VALID | DATA) == VALID
    }
}

/// Struct-of-arrays tag/data arena shared by the decoupled designs
/// (Maya, Mirage) and the set-associative baseline.
///
/// The per-tag state is split into parallel lanes sized so the hot paths
/// touch as few distinct cache lines as possible — at multi-MB tag-store
/// geometries the randomized index functions make every access a cold
/// line, so lane count and lane width, not instruction count, are the
/// cost model:
///
/// ```text
/// tag entry i:   key[i]  (u32: [filt | meta | sdid], see [`key`])
///                tag[i]  (u64, line address)
///                ptr[i]  (u32: data pointer if priority-1, else
///                         priority-0 back-index, else NONE)
/// data entry d:  dslot[d] (u32: position in `allocated`, or next free)
/// allocated[k]:  (data slot, owning tag) pair (u32, u32)
/// presence:      one 4-bit counter per hashed slot, 16 per u64 word
/// ```
///
/// * The `key` lane packs everything a way scan filters on into 4
///   bytes/way. The lane is a plain `Vec<u32>`, so a set's ways are not
///   aligned to host cache lines: Maya's default 15-way sets sit at a
///   60-byte stride and a 16-way set starts at an arbitrary 4-byte
///   offset, so most set scans straddle two 64-byte lines. The filter
///   byte is a hash of the line address, so a non-matching way is
///   rejected without touching the 8-byte `tag` lane at all (the tag lane
///   is read only on filter hits — ~1/256 of non-matching valid ways —
///   and on real hits).
/// * The `ptr` lane is a union. A priority-1 entry (Mirage: every
///   resident entry) stores its forward data pointer there, and a Maya
///   priority-0 entry stores its back-index into `p0_list`. An entry is
///   never both at once — promotion leaves the priority-0 list before it
///   allocates data, and downgrade frees data before it joins the list —
///   so one `u32` per tag serves both. The meta byte says which
///   interpretation is live; invalid entries hold `NONE`.
///
/// All lane writes flow through accessors so the filter byte and the
/// presence filter can never go stale: [`set_tag`](TagArena::set_tag)
/// rewrites the filter byte with the tag, and every validity or tag change
/// adjusts the presence counters. The packing is invisible to behavior —
/// scans reject exactly the ways the unpacked layout rejected, in the same
/// order, and no RNG is consulted anywhere in the arena.
///
/// The cold-start free list is *intrusive*: `free_head` plus the `dslot`
/// words of free slots form a singly-linked LIFO whose pop order
/// reproduces the previous `Vec<u32>` stack exactly (construction links
/// `0,1,2,…` so pops ascend from zero; frees push at the head). The
/// `allocated` list stays a dense vector with the `dslot` back-index
/// because the global random eviction policies need O(1) *positional*
/// uniform sampling — a linked list would change which victim a given RNG
/// draw maps to. Each `allocated` element carries the owning tag (the
/// design's reverse pointer) next to the data slot, so a global data
/// eviction learns its victim tag from the one random `allocated[r]` load
/// instead of a second, dependent load of the slot's record. The eviction
/// still touches several unrelated host lines: `allocated[r]`, the
/// victim's `dslot` word, and the victim's key, tag and ptr lines.
///
/// # Presence filter
///
/// Maya enables a counting presence filter over valid lines: a zero
/// counter *proves* a line absent, so a lookup can miss with one touch of
/// the filter instead of deriving the indices and scanning one random
/// key-lane line per skew. Counters are 4-bit nibbles, sixteen to a `u64`
/// group, and the slot of a line is *blocked*:
///
/// ```text
/// slot(line) = 16·h(line >> 4) + ((line + ρ(line >> 4)) mod 16)
/// ```
///
/// `h` is a Fibonacci (golden-ratio multiplicative) hash of the line's
/// aligned 16-line chunk and `ρ` a per-chunk rotation drawn from the next
/// four bits of the same product. The 16 lines of a chunk land on 16
/// distinct counters of one group — one 8-byte word, inside one host
/// cache line — so a unit-stride stream walks one filter word per 16
/// lines instead of one random host line per line. Consecutive chunks
/// land as far apart as the group count allows (the golden-ratio
/// multiplier's three-distance property), so concurrent streams rarely
/// share a group. Lines 16 or 64 apart fall in different chunks, hence
/// different groups, and the rotation spreads them over all sixteen
/// offsets instead of pinning a strided stream to one nibble column.
/// A counter that reaches 15 sticks there (decrements skip it too), so
/// overflow costs precision, never correctness: the filter can say "maybe
/// present" falsely, never "absent" falsely.
///
/// Keying the filter by address blocks leaks nothing the paper's model
/// can observe. The filter is a host-side accelerator of the simulation,
/// not a structure Maya or MIRAGE contain: it only decides whether the
/// simulator bothers to derive the skew indices of a line it can already
/// prove absent, and every response, RNG draw, eviction and event is the
/// same with or without it. The security argument rests on the
/// PRINCE-keyed skew indices, which the filter never touches.
#[derive(Debug, Clone)]
pub(crate) struct TagArena {
    /// Packed `[filt | meta | sdid]` word per tag entry (see [`key`]).
    key: Vec<u32>,
    /// Line address per tag entry (live when `meta & VALID`).
    tag: Vec<u64>,
    /// Data pointer (priority-1) or priority-0 back-index per tag entry;
    /// `NONE` when the entry holds neither.
    ptr: Vec<u32>,
    /// Priority-0 tag indices, dense for O(1) uniform sampling (Maya).
    pub p0_list: Vec<u32>,
    /// Allocated data entries with their owners, dense for O(1) uniform
    /// sampling.
    pub allocated: Vec<Alloc>,
    /// Per data slot: its position in `allocated` while allocated, the
    /// next free-list link while free (the two lifetimes are disjoint).
    dslot: Vec<u32>,
    /// Head of the intrusive free list (`NONE` when exhausted).
    free_head: u32,
    /// Number of entries on the free list.
    free_len: usize,
    /// Counting presence filter over valid lines (empty when disabled):
    /// one word per 16-counter group, counter `o` in bits `4o..4o+4`.
    /// Maintained inside the lane mutators; every validity or tag change
    /// flows through them, which `audit_presence` verifies.
    presence: Vec<u64>,
    /// Right shift taking a chunk hash to its group index
    /// (`64 - log2(groups)`).
    presence_shift: u32,
}

/// Saturation value of a presence counter (4 bits, sticky).
const PRESENCE_MAX: u64 = 0xF;

/// Lines per presence-filter chunk (one counter group).
const PRESENCE_GROUP: usize = 16;

/// One allocated data slot and the tag entry that owns it (the reverse
/// pointer of the modelled design).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Alloc {
    /// The data slot.
    pub data: u32,
    /// The owning tag entry.
    pub tag: u32,
}

impl TagArena {
    /// An arena for `tag_entries` tags over `data_entries` data slots, all
    /// invalid, with the free list linked in ascending order (so pops
    /// yield `0, 1, 2, …` — the same order the previous
    /// `(0..n).rev().collect()` stack popped).
    pub fn new(tag_entries: usize, data_entries: usize) -> Self {
        let mut a = Self {
            key: vec![0; tag_entries],
            tag: vec![0; tag_entries],
            ptr: vec![NONE; tag_entries],
            p0_list: Vec::new(),
            allocated: Vec::with_capacity(data_entries),
            dslot: vec![NONE; data_entries],
            free_head: NONE,
            free_len: 0,
            presence: Vec::new(),
            presence_shift: 0,
        };
        a.rebuild_free_ascending(|_| true);
        a
    }

    /// Enables the counting presence filter with `slots` counters (a power
    /// of two, at least two groups of 16), rebuilding it from the arena's
    /// current valid entries. Purely an access-path accelerator: lookups
    /// behave identically with or without it.
    pub fn enable_presence(&mut self, slots: usize) {
        assert!(
            slots.is_power_of_two() && slots >= 2 * PRESENCE_GROUP,
            "presence slots must be 2^k and at least 32"
        );
        let groups = slots / PRESENCE_GROUP;
        self.presence = vec![0; groups];
        self.presence_shift = 64 - groups.trailing_zeros();
        for i in 0..self.key.len() {
            if self.key[i] & key::VALID != 0 {
                self.presence_inc(self.tag[i]);
            }
        }
    }

    /// Presence-filter counter of `line` as a flat index `s`: nibble
    /// `s % 16` of group word `s / 16` (the blocked mapping described on
    /// [`TagArena`]). The group is the top bits of the chunk's hash, the
    /// rotation the next four.
    #[inline]
    fn pslot(&self, line: u64) -> usize {
        let x = (line >> 4).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let group = (x >> self.presence_shift) as usize;
        let rot = x >> (self.presence_shift - 4);
        group * PRESENCE_GROUP + (line.wrapping_add(rot) & 0xF) as usize
    }

    /// The value of counter `s` (see [`pslot`](TagArena::pslot)).
    #[inline]
    fn counter(&self, s: usize) -> u64 {
        (self.presence[s / PRESENCE_GROUP] >> (s % PRESENCE_GROUP * 4)) & PRESENCE_MAX
    }

    #[inline]
    fn presence_inc(&mut self, line: u64) {
        if self.presence.is_empty() {
            return;
        }
        let s = self.pslot(line);
        // Sticky saturation: a counter that ever reaches 15 is pinned
        // there (decrements skip it too), so overflow degrades precision,
        // never correctness.
        if self.counter(s) != PRESENCE_MAX {
            self.presence[s / PRESENCE_GROUP] += 1 << (s % PRESENCE_GROUP * 4);
        }
    }

    #[inline]
    fn presence_dec(&mut self, line: u64) {
        if self.presence.is_empty() {
            return;
        }
        let s = self.pslot(line);
        let c = self.counter(s);
        debug_assert_ne!(c, 0, "presence counter underflow for line {line:#x}");
        if c != PRESENCE_MAX && c != 0 {
            self.presence[s / PRESENCE_GROUP] -= 1 << (s % PRESENCE_GROUP * 4);
        }
    }

    /// False only when the filter *proves* no valid entry holds `line`
    /// (always true while the filter is disabled).
    #[inline]
    pub fn maybe_present(&self, line: u64) -> bool {
        self.presence.is_empty() || self.counter(self.pslot(line)) != 0
    }

    /// Verifies the presence filter against a ground-truth recount; part
    /// of the structural audit, catching any validity transition that
    /// bypassed the counting hooks. The recount saturates at 255, which
    /// still tells every exact counter value (below 15) from a wrong one.
    pub fn audit_presence(&self) -> Result<(), String> {
        if self.presence.is_empty() {
            return Ok(());
        }
        let mut expect = vec![0u8; self.presence.len() * PRESENCE_GROUP];
        for i in 0..self.key.len() {
            if self.key[i] & key::VALID != 0 {
                let s = self.pslot(self.tag[i]);
                expect[s] = expect[s].saturating_add(1);
            }
        }
        for (s, &want) in expect.iter().enumerate() {
            let have = self.counter(s);
            if have == PRESENCE_MAX {
                // A sticky-saturated counter may overcount, never under;
                // its exact value is unverifiable by recount.
                continue;
            }
            if have != u64::from(want) {
                return Err(format!(
                    "presence filter slot {s} holds {have} but {want} valid lines hash there"
                ));
            }
        }
        Ok(())
    }

    /// Number of tag entries.
    pub fn tag_entries(&self) -> usize {
        self.key.len()
    }

    /// Number of data slots (free + allocated).
    pub fn data_entries(&self) -> usize {
        self.dslot.len()
    }

    /// The owning tag of data slot `d`, if `d` is allocated (its
    /// back-index names an `allocated` element for `d`).
    #[inline]
    pub fn owner(&self, d: usize) -> Option<u32> {
        match self.allocated.get(self.dslot[d] as usize) {
            Some(a) if a.data as usize == d => Some(a.tag),
            _ => None,
        }
    }

    /// The back-index of *allocated* data slot `d` into `allocated`.
    /// While `d` is free this word holds its free-list link instead.
    #[inline]
    pub fn data_pos(&self, d: usize) -> u32 {
        self.dslot[d]
    }

    /// Rebinds data slot `d` to tag `t` at the tail of `allocated`
    /// (quarantine rebuild; the free list is relinked separately).
    pub fn slot_adopt(&mut self, d: usize, t: u32) {
        self.dslot[d] = self.allocated.len() as u32;
        self.allocated.push(Alloc {
            data: d as u32,
            tag: t,
        });
    }

    /// Clears data slot `d`'s record (quarantine rebuild).
    pub fn slot_clear(&mut self, d: usize) {
        self.dslot[d] = NONE;
    }

    /// Resets every tag to invalid and every data slot to free, relinking
    /// the free list in ascending order. Equivalent to the old layout's
    /// `flush_all` rebuild; touches no RNG.
    pub fn reset(&mut self) {
        self.key.fill(0);
        self.presence.fill(0);
        self.ptr.fill(NONE);
        self.p0_list.clear();
        self.dslot.fill(NONE);
        self.allocated.clear();
        self.rebuild_free_ascending(|_| true);
    }

    // --- packed-lane accessors ---------------------------------------------

    /// Filter byte for `line`, pre-shifted into key-word position. A cheap
    /// multiplicative hash of the *whole* line address: two lines that
    /// collide in a set under a randomized index function almost never
    /// share a filter byte, so set scans reject them from the key lane
    /// alone. Deterministic — no keys, no RNG — and recomputed on every
    /// tag write, so it can never disagree with the stored tag.
    #[inline]
    fn filt(line: u64) -> u32 {
        (((line.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 56) as u32) << key::FILT_SHIFT)
            & key::FILT_MASK
    }

    /// The meta byte of tag entry `i`.
    #[inline]
    pub fn meta(&self, i: usize) -> u8 {
        (self.key[i] >> key::META_SHIFT) as u8
    }

    /// Replaces the meta byte of tag entry `i` (filter and sdid unchanged).
    #[inline]
    pub fn set_meta(&mut self, i: usize, m: u8) {
        let was = self.key[i] & key::VALID != 0;
        let now = m & meta::VALID != 0;
        if was != now {
            let line = self.tag[i];
            if now {
                self.presence_inc(line);
            } else {
                self.presence_dec(line);
            }
        }
        self.key[i] = (self.key[i] & !key::META_MASK) | ((m as u32) << key::META_SHIFT);
    }

    /// ORs `bits` into the meta byte of tag entry `i`.
    #[inline]
    pub fn meta_or(&mut self, i: usize, bits: u8) {
        if bits & meta::VALID != 0 && self.key[i] & key::VALID == 0 {
            self.presence_inc(self.tag[i]);
        }
        self.key[i] |= (bits as u32) << key::META_SHIFT;
    }

    /// ANDs the meta byte of tag entry `i` with `mask`.
    #[inline]
    pub fn meta_and(&mut self, i: usize, mask: u8) {
        if mask & meta::VALID == 0 && self.key[i] & key::VALID != 0 {
            self.presence_dec(self.tag[i]);
        }
        self.key[i] &= ((mask as u32) << key::META_SHIFT) | !key::META_MASK;
    }

    /// XORs `bits` into the meta byte of tag entry `i`.
    #[inline]
    pub fn meta_xor(&mut self, i: usize, bits: u8) {
        if bits & meta::VALID != 0 {
            let line = self.tag[i];
            if self.key[i] & key::VALID != 0 {
                self.presence_dec(line);
            } else {
                self.presence_inc(line);
            }
        }
        self.key[i] ^= (bits as u32) << key::META_SHIFT;
    }

    /// The security-domain id of tag entry `i`.
    #[inline]
    pub fn sdid(&self, i: usize) -> u16 {
        self.key[i] as u16
    }

    /// Replaces the sdid of tag entry `i`.
    #[inline]
    pub fn set_sdid(&mut self, i: usize, d: u16) {
        self.key[i] = (self.key[i] & !key::SDID_MASK) | d as u32;
    }

    /// The line address of tag entry `i`.
    #[inline]
    pub fn tag(&self, i: usize) -> u64 {
        self.tag[i]
    }

    /// Writes the line address of tag entry `i`, keeping the filter byte
    /// coherent. Every tag write — installs, fault injection — must come
    /// through here.
    #[inline]
    pub fn set_tag(&mut self, i: usize, line: u64) {
        if self.key[i] & key::VALID != 0 {
            self.presence_dec(self.tag[i]);
            self.presence_inc(line);
        }
        self.tag[i] = line;
        self.key[i] = (self.key[i] & !key::FILT_MASK) | Self::filt(line);
    }

    /// One-write install: tag, meta, and sdid in a single store per lane
    /// (no read-modify-write of the key word).
    #[inline]
    pub fn install_tag(&mut self, i: usize, line: u64, m: u8, sdid: u16) {
        if self.key[i] & key::VALID != 0 {
            self.presence_dec(self.tag[i]);
        }
        if m & meta::VALID != 0 {
            self.presence_inc(line);
        }
        self.tag[i] = line;
        self.key[i] = Self::filt(line) | ((m as u32) << key::META_SHIFT) | sdid as u32;
    }

    /// The packed key words of ways `[base, base + ways)` (for scans that
    /// need a custom predicate, e.g. Maya's priority-0 victim pick).
    #[inline]
    pub fn keys(&self, base: usize, ways: usize) -> &[u32] {
        &self.key[base..base + ways]
    }

    /// The pointer word of tag entry `i`: its data pointer while it holds
    /// data, its priority-0 back-index while it is priority-0, `NONE`
    /// otherwise (see [`TagArena`]).
    #[inline]
    pub fn ptr(&self, i: usize) -> u32 {
        self.ptr[i]
    }

    /// Replaces the pointer word of tag entry `i`.
    #[inline]
    pub fn set_ptr(&mut self, i: usize, v: u32) {
        self.ptr[i] = v;
    }

    // --- intrusive free list ------------------------------------------------

    /// True when no data slot is free.
    pub fn free_is_empty(&self) -> bool {
        self.free_head == NONE
    }

    /// Number of free data slots.
    pub fn free_len(&self) -> usize {
        self.free_len
    }

    /// Pops the head of the free list (LIFO, like the old `Vec` stack).
    pub fn free_pop(&mut self) -> Option<u32> {
        if self.free_head == NONE {
            return None;
        }
        let d = self.free_head;
        self.free_head = self.dslot[d as usize];
        self.dslot[d as usize] = NONE;
        self.free_len -= 1;
        Some(d)
    }

    /// Pushes `d` at the head of the free list (LIFO).
    pub fn free_push(&mut self, d: u32) {
        self.dslot[d as usize] = self.free_head;
        self.free_head = d;
        self.free_len += 1;
    }

    /// Relinks the free list over exactly the slots `is_free` selects, in
    /// ascending order — reproducing the pop order of the old
    /// `(0..n).rev().filter(is_free).collect()` stack.
    pub fn rebuild_free_ascending(&mut self, is_free: impl Fn(usize) -> bool) {
        self.free_head = NONE;
        self.free_len = 0;
        let mut tail = NONE;
        for d in 0..self.dslot.len() {
            if !is_free(d) {
                // An allocated slot's link word is its live back-index —
                // leave it alone.
                continue;
            }
            if tail == NONE {
                self.free_head = d as u32;
            } else {
                self.dslot[tail as usize] = d as u32;
            }
            self.dslot[d] = NONE;
            tail = d as u32;
            self.free_len += 1;
        }
    }

    /// Walks the free list, calling `f` for each member. Returns an error
    /// if the chain's length disagrees with `free_len` (a cycle or a
    /// truncated chain) before `f`'s own checks get a chance to object.
    pub fn free_for_each(
        &self,
        mut f: impl FnMut(u32) -> Result<(), String>,
    ) -> Result<(), String> {
        let mut seen = 0usize;
        let mut d = self.free_head;
        while d != NONE {
            if seen >= self.dslot.len() {
                return Err(format!(
                    "free list cycles: walked {seen} links with only {} data entries",
                    self.dslot.len()
                ));
            }
            f(d)?;
            seen += 1;
            d = self.dslot[d as usize];
        }
        if seen != self.free_len {
            return Err(format!(
                "free list length drifted: chain has {seen} entries but free_len is {}",
                self.free_len
            ));
        }
        Ok(())
    }

    // --- data-store bookkeeping --------------------------------------------

    /// Allocates a data slot for `tag_idx`: pops the free list (slot 0 if
    /// exhausted — callers evict first; reachable only under fault
    /// injection, left for `audit()` to flag) and appends to `allocated`.
    pub fn data_alloc(&mut self, tag_idx: usize) -> u32 {
        let d = self.free_pop().unwrap_or(0);
        self.slot_adopt(d as usize, tag_idx as u32);
        d
    }

    /// Releases data slot `d` back to the free list (swap-remove from
    /// `allocated`, back-index repair, head push). Returns `false` without
    /// touching anything when `allocated` is empty — a double free,
    /// reachable only under fault injection.
    pub fn data_free(&mut self, d: u32) -> bool {
        let pos = self.dslot[d as usize] as usize;
        let Some(&last) = self.allocated.last() else {
            return false;
        };
        self.allocated.swap_remove(pos);
        if pos < self.allocated.len() {
            self.dslot[last.data as usize] = pos as u32;
        }
        self.free_push(d);
        true
    }

    // --- priority-0 list (Maya) --------------------------------------------

    /// Appends tag `tag_idx` to the priority-0 list.
    pub fn p0_insert(&mut self, tag_idx: usize) {
        self.ptr[tag_idx] = self.p0_list.len() as u32;
        self.p0_list.push(tag_idx as u32);
    }

    /// Swap-removes tag `tag_idx` from the priority-0 list, repairing the
    /// moved entry's back-index and clearing `tag_idx`'s pointer word.
    pub fn p0_remove(&mut self, tag_idx: usize) {
        let pos = self.ptr[tag_idx] as usize;
        debug_assert_eq!(self.p0_list[pos], tag_idx as u32);
        self.p0_list.swap_remove(pos);
        if pos < self.p0_list.len() {
            let moved = self.p0_list[pos] as usize;
            self.ptr[moved] = pos as u32;
        }
        self.ptr[tag_idx] = NONE;
    }

    // --- hot scans ----------------------------------------------------------

    /// First way in `[base, base + ways)` holding a valid `(line, sdid)`
    /// entry. The scan reads only the packed key lane — filter byte, valid
    /// bit, and sdid in one masked compare per way — and touches the tag
    /// lane solely to confirm filter hits, so a miss costs the set's
    /// key-lane span (one or two host lines) and nothing else. Matches exactly the ways the unpacked layout
    /// matched (`tag == line && valid && sdid ==`), in the same order: the
    /// filter byte is a pure function of the tag, so it can only reject
    /// ways whose tag already differs.
    #[inline]
    pub fn find_way(&self, base: usize, ways: usize, line: u64, sdid: u16) -> Option<usize> {
        let want = Self::filt(line) | key::VALID | sdid as u32;
        const MASK: u32 = key::FILT_MASK | key::VALID | key::SDID_MASK;
        let keys = &self.key[base..base + ways];
        for (w, &k) in keys.iter().enumerate() {
            if k & MASK == want && self.tag[base + w] == line {
                return Some(base + w);
            }
        }
        None
    }

    /// First way in `[base, base + ways)` holding a valid `line`,
    /// regardless of domain — for set-associative caches, whose isolation
    /// comes from partitioning rather than the sdid lane.
    #[inline]
    pub fn find_way_any(&self, base: usize, ways: usize, line: u64) -> Option<usize> {
        let want = Self::filt(line) | key::VALID;
        const MASK: u32 = key::FILT_MASK | key::VALID;
        let keys = &self.key[base..base + ways];
        for (w, &k) in keys.iter().enumerate() {
            if k & MASK == want && self.tag[base + w] == line {
                return Some(base + w);
            }
        }
        None
    }

    /// Number of invalid ways in `[base, base + ways)`.
    #[inline]
    pub fn invalid_ways(&self, base: usize, ways: usize) -> usize {
        self.key[base..base + ways]
            .iter()
            .filter(|&&k| k & key::VALID == 0)
            .count()
    }

    /// First invalid way in `[base, base + ways)`, as a flat index.
    #[inline]
    pub fn first_invalid(&self, base: usize, ways: usize) -> Option<usize> {
        self.key[base..base + ways]
            .iter()
            .position(|&k| k & key::VALID == 0)
            .map(|w| base + w)
    }
}

/// Line-address width: 46-bit physical addresses, 64-byte lines.
pub const LINE_ADDR_BITS: u32 = 40;
/// MOESI coherence state bits.
pub const COHERENCE_BITS: u32 = 3;
/// Data payload bits (64-byte line).
pub const DATA_BITS: u32 = 512;
/// SDID width (256 security domains).
pub const SDID_BITS: u32 = 8;

/// Bits needed to index `entries` items.
fn pointer_bits(entries: usize) -> u32 {
    usize::BITS - (entries - 1).leading_zeros()
}

/// Per-design storage breakdown, in the same shape as Table VIII.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageReport {
    /// Design name.
    pub design: &'static str,
    /// Address tag bits per tag entry.
    pub tag_bits: u32,
    /// Coherence bits per tag entry.
    pub coherence_bits: u32,
    /// Priority bits per tag entry (Maya only).
    pub priority_bits: u32,
    /// Forward-pointer bits per tag entry (decoupled designs only).
    pub fptr_bits: u32,
    /// SDID bits per tag entry (secure designs only).
    pub sdid_bits: u32,
    /// Number of tag entries.
    pub tag_entries: usize,
    /// Data payload bits per data entry.
    pub data_bits: u32,
    /// Reverse-pointer bits per data entry (decoupled designs only).
    pub rptr_bits: u32,
    /// Number of data entries.
    pub data_entries: usize,
}

impl StorageReport {
    /// Total bits per tag entry.
    pub fn tag_entry_bits(&self) -> u32 {
        self.tag_bits + self.coherence_bits + self.priority_bits + self.fptr_bits + self.sdid_bits
    }

    /// Total bits per data entry.
    pub fn data_entry_bits(&self) -> u32 {
        self.data_bits + self.rptr_bits
    }

    /// Tag store size in KB (1 KB = 8192 bits).
    pub fn tag_store_kb(&self) -> f64 {
        (self.tag_entries as f64 * f64::from(self.tag_entry_bits())) / 8192.0
    }

    /// Data store size in KB.
    pub fn data_store_kb(&self) -> f64 {
        (self.data_entries as f64 * f64::from(self.data_entry_bits())) / 8192.0
    }

    /// Total storage (tag + data) in KB.
    pub fn total_kb(&self) -> f64 {
        self.tag_store_kb() + self.data_store_kb()
    }

    /// Storage overhead relative to another design (e.g. the baseline);
    /// positive means this design is larger.
    pub fn overhead_vs(&self, other: &StorageReport) -> f64 {
        self.total_kb() / other.total_kb() - 1.0
    }

    /// The non-secure set-associative baseline.
    pub fn baseline(sets: usize, ways: usize) -> Self {
        let entries = sets * ways;
        Self {
            design: "baseline",
            tag_bits: LINE_ADDR_BITS - pointer_bits(sets),
            coherence_bits: COHERENCE_BITS,
            priority_bits: 0,
            fptr_bits: 0,
            sdid_bits: 0,
            tag_entries: entries,
            data_bits: DATA_BITS,
            rptr_bits: 0,
            data_entries: entries,
        }
    }

    /// The Mirage design for a given geometry.
    pub fn mirage(config: &MirageConfig) -> Self {
        let tag_entries = config.sets_per_skew * config.skews * config.ways_per_skew();
        let data_entries = config.data_entries();
        Self {
            design: "mirage",
            tag_bits: LINE_ADDR_BITS,
            coherence_bits: COHERENCE_BITS,
            priority_bits: 0,
            fptr_bits: pointer_bits(data_entries),
            sdid_bits: SDID_BITS,
            tag_entries,
            data_bits: DATA_BITS,
            rptr_bits: pointer_bits(tag_entries),
            data_entries,
        }
    }

    /// The Maya design for a given geometry.
    pub fn maya(config: &MayaConfig) -> Self {
        let tag_entries = config.tag_entries();
        let data_entries = config.data_entries();
        Self {
            design: "maya",
            tag_bits: LINE_ADDR_BITS,
            coherence_bits: COHERENCE_BITS,
            priority_bits: 1,
            fptr_bits: pointer_bits(data_entries),
            sdid_bits: SDID_BITS,
            tag_entries,
            data_bits: DATA_BITS,
            rptr_bits: pointer_bits(tag_entries),
            data_entries,
        }
    }
}

/// The paper's Table VIII configurations for the 8-core, 16 MB-baseline
/// system: `(baseline, mirage, maya)`.
pub fn table_viii_reports() -> (StorageReport, StorageReport, StorageReport) {
    let baseline = StorageReport::baseline(16 * 1024, 16);
    let mirage = StorageReport::mirage(&MirageConfig::for_data_entries(256 * 1024, 0));
    let maya = StorageReport::maya(&MayaConfig::default_12mb(0));
    (baseline, mirage, maya)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Line sequences the presence-filter property runs over: unit
    /// stride, stride 16 (one line per chunk), stride 64, and random.
    fn line_sequence(kind: usize, rng: &mut SmallRng, n: usize) -> Vec<u64> {
        let base = rng.gen_range(0..1u64 << 30);
        match kind {
            0 => (0..n as u64).map(|k| base + k).collect(),
            1 => (0..n as u64).map(|k| base + 16 * k).collect(),
            2 => (0..n as u64).map(|k| base + 64 * k).collect(),
            _ => (0..n).map(|_| rng.gen_range(0..1u64 << 40)).collect(),
        }
    }

    #[test]
    fn presence_filter_tracks_installs_and_invalidations() {
        for seed in 0..8u64 {
            for kind in 0..4 {
                let mut rng = SmallRng::seed_from_u64(seed * 31 + kind as u64);
                // A deliberately small filter (32 counters for 64 tags) so
                // collisions and saturation happen along the way.
                let tags = 64;
                let mut a = TagArena::new(tags, 0);
                a.enable_presence(32);
                let lines = line_sequence(kind, &mut rng, 256);
                let mut next = 0;
                let mut saturated: Vec<usize> = Vec::new();
                for step in 0..2_000 {
                    let i = rng.gen_range(0..tags);
                    if a.key[i] & key::VALID != 0 && rng.gen_bool(0.5) {
                        a.set_meta(i, 0);
                    } else {
                        let line = lines[next % lines.len()];
                        next += 1;
                        a.install_tag(i, line, meta::VALID, 0);
                    }
                    for j in 0..tags {
                        if a.key[j] & key::VALID != 0 {
                            assert!(
                                a.maybe_present(a.tag[j]),
                                "seed {seed} kind {kind} step {step}: valid line {:#x} reported absent",
                                a.tag[j]
                            );
                        }
                    }
                    a.audit_presence()
                        .unwrap_or_else(|e| panic!("seed {seed} kind {kind} step {step}: {e}"));
                    for &c in &saturated {
                        assert_eq!(a.counter(c), PRESENCE_MAX, "saturated counter {c} unpinned");
                    }
                    for c in 0..a.presence.len() * PRESENCE_GROUP {
                        if a.counter(c) == PRESENCE_MAX && !saturated.contains(&c) {
                            saturated.push(c);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn saturated_presence_counter_stays_pinned() {
        let mut a = TagArena::new(32, 0);
        a.enable_presence(32);
        // Seventeen distinct lines sharing one counter.
        let target = a.pslot(0);
        let lines: Vec<u64> = (0u64..)
            .filter(|&l| a.pslot(l) == target)
            .take(17)
            .collect();
        for (i, &l) in lines.iter().enumerate() {
            a.install_tag(i, l, meta::VALID, 0);
        }
        assert_eq!(a.counter(target), PRESENCE_MAX);
        a.audit_presence().unwrap();
        for i in 0..lines.len() {
            a.set_meta(i, 0);
        }
        // Every line is gone, but the pinned counter still says "maybe".
        assert_eq!(a.counter(target), PRESENCE_MAX);
        assert!(lines.iter().all(|&l| a.maybe_present(l)));
        a.audit_presence().unwrap();
        // Neighbouring counters in the same word were never disturbed.
        let word = a.presence[target / PRESENCE_GROUP];
        assert_eq!(word, PRESENCE_MAX << ((target % PRESENCE_GROUP) * 4));
    }

    #[test]
    fn presence_filter_is_blocked_by_aligned_chunk() {
        let mut a = TagArena::new(1024, 0);
        a.enable_presence(1 << 13);
        for chunk in [0u64, 1, 0x1234_5678, (1 << 36) + 77] {
            let lines: Vec<u64> = (0..16).map(|k| chunk * 16 + k).collect();
            let slots: Vec<usize> = lines.iter().map(|&l| a.pslot(l)).collect();
            // One group: one 8-byte word of the counter array, which never
            // straddles a 64-byte host line.
            let group = slots[0] / PRESENCE_GROUP;
            assert!(
                slots.iter().all(|&s| s / PRESENCE_GROUP == group),
                "chunk {chunk:#x} split"
            );
            let byte = group * std::mem::size_of::<u64>();
            assert_eq!(byte / 64, (byte + 7) / 64);
            // Sixteen lines, sixteen distinct counters.
            let mut offs: Vec<usize> = slots.iter().map(|&s| s % PRESENCE_GROUP).collect();
            offs.sort_unstable();
            assert_eq!(offs, (0..16).collect::<Vec<usize>>(), "chunk {chunk:#x}");
        }
        // A stride-16 stream visits one line per chunk; the per-chunk
        // rotation still spreads it over every counter offset.
        for stride in [16u64, 64] {
            let mut seen = [false; 16];
            for k in 0..256u64 {
                seen[a.pslot(5 + stride * k) % PRESENCE_GROUP] = true;
            }
            assert!(
                seen.iter().all(|&s| s),
                "stride {stride} pinned to {seen:?}"
            );
        }
    }

    #[test]
    fn presence_filter_disabled_says_maybe() {
        let mut a = TagArena::new(8, 0);
        assert!(a.maybe_present(42));
        a.install_tag(0, 42, meta::VALID, 0);
        a.set_meta(0, 0);
        assert!(a.maybe_present(42));
        a.audit_presence().unwrap();
    }

    #[test]
    fn pointer_word_switches_roles_with_priority() {
        let mut a = TagArena::new(4, 2);
        a.install_tag(1, 9, meta::VALID, 0);
        a.p0_insert(1);
        assert_eq!((a.ptr(1), a.p0_list.as_slice()), (0, &[1u32][..]));
        a.p0_remove(1);
        assert_eq!(a.ptr(1), NONE);
        let d = a.data_alloc(1);
        a.set_ptr(1, d);
        assert_eq!((a.ptr(1), a.owner(d as usize)), (d, Some(1)));
        a.data_free(d);
        a.p0_insert(1);
        assert_eq!(a.ptr(1), 0);
    }

    #[test]
    fn pointer_bits_round_up() {
        assert_eq!(pointer_bits(2), 1);
        assert_eq!(pointer_bits(196_608), 18);
        assert_eq!(pointer_bits(262_144), 18);
        assert_eq!(pointer_bits(262_145), 19);
        assert_eq!(pointer_bits(458_752), 19);
        assert_eq!(pointer_bits(491_520), 19);
    }

    #[test]
    fn baseline_matches_table_viii() {
        let b = StorageReport::baseline(16 * 1024, 16);
        assert_eq!(b.tag_bits, 26);
        assert_eq!(b.tag_entry_bits(), 29);
        assert_eq!(b.tag_entries, 262_144);
        assert_eq!(b.tag_store_kb(), 928.0);
        assert_eq!(b.data_entry_bits(), 512);
        assert_eq!(b.data_store_kb(), 16_384.0);
        assert_eq!(b.total_kb(), 17_312.0);
    }

    #[test]
    fn mirage_matches_table_viii() {
        let m = StorageReport::mirage(&MirageConfig::for_data_entries(256 * 1024, 0));
        assert_eq!(m.tag_entry_bits(), 69);
        assert_eq!(m.tag_entries, 458_752);
        assert_eq!(m.tag_store_kb(), 3_864.0);
        assert_eq!(m.data_entry_bits(), 531);
        assert_eq!(m.data_entries, 262_144);
        assert_eq!(m.data_store_kb(), 16_992.0);
        assert_eq!(m.total_kb(), 20_856.0);
    }

    #[test]
    fn maya_matches_table_viii() {
        let m = StorageReport::maya(&MayaConfig::default_12mb(0));
        assert_eq!(m.tag_entry_bits(), 70);
        assert_eq!(m.tag_entries, 491_520);
        assert_eq!(m.tag_store_kb(), 4_200.0);
        assert_eq!(m.data_entry_bits(), 531);
        assert_eq!(m.data_entries, 196_608);
        assert_eq!(m.data_store_kb(), 12_744.0);
        // The paper's Table VIII prints 16994 KB, but its own components sum
        // to 4200 + 12744 = 16944 KB; we match the components.
        assert_eq!(m.total_kb(), 16_944.0);
    }

    #[test]
    fn overheads_match_paper_headline_numbers() {
        let (b, mirage, maya) = table_viii_reports();
        // Mirage: +20%; Maya: −2% (paper rounds both).
        assert!((mirage.overhead_vs(&b) - 0.2047).abs() < 0.001);
        assert!((maya.overhead_vs(&b) - (-0.0213)).abs() < 0.001);
    }
}
