//! Support code for the `e2e` benchmark (`benches/e2e.rs`, which
//! documents the workloads, metrics and commands).
//!
//! The benchmark measures the system from outside: every timed region
//! is a call into a public function of `jtlang`, `jtanalysis`, `sfr`,
//! `jtvm` or `asr`, and every output is compared with an oracle that
//! does not share the code path under test.
//!
//! * [`edits`] — seeded edit streams over the generated corpus: constant
//!   tweaks and a pool of structural one-statement mutations.
//! * [`stats`] — median / tail-percentile summaries.
//! * [`oracle`] — the independent answers: a cold policy check on a
//!   fresh parse, hand-written Rust models of the grid blocks, and the
//!   native JPEG reference.
//! * [`trace`] — in-memory spans for the per-layer (`--trace`) run.
//! * [`workloads`] — the four workloads and their metric reports.

pub mod edits;
pub mod oracle;
pub mod stats;
pub mod trace;
pub mod workloads;

/// splitmix64: the benchmark's only source of randomness. The same seed
/// gives the same edit sequence, image stream and input stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        (self.next_u64() % n as u64) as usize
    }

    /// A uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "empty range");
        let span = (hi - lo) as u64 + 1;
        lo + (self.next_u64() % span) as i64
    }
}

#[cfg(test)]
mod tests {
    use super::Rng;

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u64> = (0..4)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..4)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        let c: Vec<u64> = (0..4)
            .scan(Rng::new(8), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = Rng::new(1);
        for _ in 0..1000 {
            assert!(r.below(5) < 5);
            assert!((-3..=3).contains(&r.range(-3, 3)));
        }
    }
}
