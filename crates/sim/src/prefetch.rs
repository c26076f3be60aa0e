//! An IPCP-inspired per-PC stride prefetcher at L1D.
//!
//! IPCP (Pakalapati & Panda, ISCA 2020 — the paper's Table V L1D
//! prefetcher) classifies instruction pointers and issues prefetches for
//! constant-stride streams. This model implements the constant-stride (CS)
//! class, which is the component that matters for the synthetic workloads:
//! streaming scans train it, pointer chases defeat it.

/// One entry of the per-PC tracking table.
#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    tag: u64,
    last_line: u64,
    stride: i64,
    confidence: u8,
}

/// Confidence needed before prefetches are issued.
const CONFIDENT: u8 = 2;
/// Confidence ceiling.
const MAX_CONF: u8 = 3;

/// Entries in the per-PC table (a power of two, so a mask indexes it).
const TABLE_ENTRIES: usize = 256;

/// Lookahead bounds for the adaptive distance throttle.
const MIN_DISTANCE: u32 = 8;
const MAX_DISTANCE: u32 = 256;

/// Per-core stride prefetcher.
#[derive(Debug, Clone)]
pub struct StridePrefetcher {
    table: Box<[Entry; TABLE_ENTRIES]>,
    degree: u32,
    distance: u32,
    issued: u64,
    timely_streak: u32,
}

impl StridePrefetcher {
    /// Creates a prefetcher issuing `degree` prefetches per trained access
    /// (`degree == 0` disables it), starting `distance` strides ahead of
    /// the demand stream. The distance is what makes prefetches *timely*:
    /// the frontier must run further ahead than the memory latency divided
    /// by the per-access time, or every prefetch arrives late (IPCP's
    /// constant-stride class behaves the same way).
    pub fn new(degree: u32) -> Self {
        Self::with_distance(degree, 32)
    }

    /// [`StridePrefetcher::new`] with an explicit lookahead distance.
    pub fn with_distance(degree: u32, distance: u32) -> Self {
        Self {
            table: Box::new([Entry::default(); TABLE_ENTRIES]),
            degree,
            distance,
            issued: 0,
            timely_streak: 0,
        }
    }

    /// Feedback: a demand merged with a still-in-flight prefetch (the
    /// prefetch was late) — run further ahead. Mirrors IPCP's
    /// accuracy/timeliness throttling.
    pub fn note_late(&mut self) {
        self.distance = (self.distance + 8).min(MAX_DISTANCE);
        self.timely_streak = 0;
    }

    /// Feedback: a demand hit a completed prefetch; after a long timely
    /// streak the distance relaxes to limit cache pollution.
    pub fn note_timely(&mut self) {
        self.timely_streak = self.timely_streak.saturating_add(1);
        if self.timely_streak >= 64 {
            self.timely_streak = 0;
            self.distance = self.distance.saturating_sub(1).max(MIN_DISTANCE);
        }
    }

    /// Current lookahead distance (test/inspection hook).
    pub fn distance(&self) -> u32 {
        self.distance
    }

    /// Observes a demand access, clearing `out` and filling it with the
    /// lines to prefetch.
    ///
    /// The caller owns the buffer so the per-access hot path never
    /// allocates: the simulator hands each core's scratch `Vec` back in on
    /// every call, and after the first few accesses its capacity has grown
    /// to `degree` and stays there.
    pub fn observe_into(&mut self, pc: u64, line: u64, out: &mut Vec<u64>) {
        out.clear();
        if self.degree == 0 {
            return;
        }
        let idx = (pc as usize ^ (pc >> 8) as usize) & (TABLE_ENTRIES - 1);
        let e = &mut self.table[idx];
        if e.tag == pc {
            let stride = line as i64 - e.last_line as i64;
            if stride == e.stride && stride != 0 {
                e.confidence = (e.confidence + 1).min(MAX_CONF);
            } else {
                e.confidence = e.confidence.saturating_sub(1);
                if e.confidence == 0 {
                    e.stride = stride;
                }
            }
            if e.confidence >= CONFIDENT && e.stride != 0 {
                for k in 1..=i64::from(self.degree) {
                    let target = line as i64 + e.stride * (k + i64::from(self.distance));
                    if target >= 0 {
                        out.push(target as u64);
                    }
                }
            }
            e.last_line = line;
        } else {
            *e = Entry {
                tag: pc,
                last_line: line,
                stride: 0,
                confidence: 0,
            };
        }
        self.issued = self.issued.saturating_add(out.len() as u64);
    }

    /// [`StridePrefetcher::observe_into`] returning a fresh `Vec` — the
    /// convenient form for tests and one-off callers off the hot path.
    pub fn observe(&mut self, pc: u64, line: u64) -> Vec<u64> {
        let mut out = Vec::new();
        self.observe_into(pc, line, &mut out);
        out
    }

    /// Total prefetches issued.
    pub fn issued(&self) -> u64 {
        self.issued
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_stride_trains_and_prefetches_ahead() {
        let mut p = StridePrefetcher::with_distance(2, 4);
        let pc = 0x400010;
        let mut all = vec![];
        for i in 0..8u64 {
            all.extend(p.observe(pc, 100 + i));
        }
        assert!(!all.is_empty(), "unit stride must train");
        // Prefetches run `distance` strides ahead of the demand stream.
        assert!(all.iter().all(|&l| l > 104));
        assert!(all.contains(&107) || all.contains(&108));
    }

    #[test]
    fn random_pattern_stays_quiet() {
        let mut p = StridePrefetcher::new(2);
        let pc = 0x400020;
        let lines = [5u64, 999, 3, 77777, 12, 400, 2];
        let total: usize = lines.iter().map(|&l| p.observe(pc, l).len()).sum();
        assert_eq!(total, 0, "no confidence, no prefetches");
    }

    #[test]
    fn degree_zero_disables() {
        let mut p = StridePrefetcher::new(0);
        for i in 0..16u64 {
            assert!(p.observe(1, i).is_empty());
        }
        assert_eq!(p.issued(), 0);
    }

    #[test]
    fn negative_strides_are_followed() {
        let mut p = StridePrefetcher::with_distance(1, 2);
        let pc = 7;
        let mut out = vec![];
        for i in (0..20u64).rev() {
            out.extend(p.observe(pc, 1000 + i));
        }
        assert!(
            out.iter().any(|&l| l < 1000),
            "descending stream must prefetch downward"
        );
    }

    #[test]
    fn late_feedback_extends_the_lookahead() {
        let mut p = StridePrefetcher::with_distance(2, 16);
        for _ in 0..10 {
            p.note_late();
        }
        assert!(p.distance() > 64);
        // A long timely streak relaxes it slowly.
        for _ in 0..64 * 10 {
            p.note_timely();
        }
        assert!(p.distance() < 96 && p.distance() >= 8);
    }

    #[test]
    fn distinct_pcs_train_independently() {
        let mut p = StridePrefetcher::with_distance(1, 0);
        for i in 0..6u64 {
            p.observe(0x10, 100 + i);
            p.observe(0x11, 9000 + 2 * i);
        }
        let a = p.observe(0x10, 106);
        let b = p.observe(0x11, 9012);
        assert_eq!(a, vec![107]);
        assert_eq!(b, vec![9014]);
    }
}
