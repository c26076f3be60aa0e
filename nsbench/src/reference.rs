//! The host-speed reference: a fixed kernel the benchmark times next to
//! every repetition, so end-to-end timings can be stated at one reference
//! host speed.
//!
//! On a shared host the machine's own speed drifts by tens of percent over
//! seconds to minutes, and every timed loop drifts with it. The kernel is
//! benchmark code that no change to the program can alter: random
//! read-modify-writes over an 8 MiB buffer, a mix of cache misses and
//! dependent arithmetic like the simulator's. Scaling a repetition's time
//! by `NOMINAL_NS` over the kernel's time around that repetition removes
//! most of the drift while keeping the program's own changes in full.

use std::hint::black_box;
use std::time::Instant;

/// Kernel time per operation, in ns, that normalized timings are stated at
/// (about the kernel's speed on an idle 2-vCPU x86-64 host).
pub const NOMINAL_NS: f64 = 5.0;

/// Buffer words (8 MiB of `u64`).
const WORDS: usize = 1 << 20;

/// Operations per measurement.
const OPS: u32 = 2_000_000;

/// The reference kernel and its buffer.
pub struct Reference {
    buf: Vec<u64>,
}

impl Default for Reference {
    fn default() -> Self {
        Reference {
            buf: vec![0; WORDS],
        }
    }
}

impl Reference {
    /// Runs the kernel once and returns its nanoseconds per operation.
    pub fn measure(&mut self) -> f64 {
        let start = Instant::now();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..OPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x as usize) & (WORDS - 1);
            self.buf[i] = self.buf[i]
                .wrapping_mul(0x2545_f491_4f6c_dd1d)
                .wrapping_add(x);
        }
        black_box(&self.buf);
        start.elapsed().as_nanos() as f64 / f64::from(OPS)
    }
}

/// The factor that states a time measured between two kernel runs, which
/// took `before` and `after` ns per operation, at the nominal speed.
pub fn scale(before: f64, after: f64) -> f64 {
    NOMINAL_NS * 2.0 / (before + after)
}
