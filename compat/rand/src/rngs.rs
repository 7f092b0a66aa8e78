//! Concrete generators (only `SmallRng` is provided).

use crate::{RngCore, SeedableRng};

/// A small, fast, non-cryptographic generator: xoshiro256++, the algorithm
/// real `rand` 0.9 uses for `SmallRng` on 64-bit platforms.
#[derive(Clone, Debug)]
pub struct SmallRng {
    s: [u64; 4],
}

impl SeedableRng for SmallRng {
    fn seed_from_u64(seed: u64) -> Self {
        // SplitMix64 state expansion — guarantees a non-zero xoshiro state.
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Self {
            s: [next(), next(), next(), next()],
        }
    }
}

impl SmallRng {
    /// The raw xoshiro256++ state, for checkpointing. Restoring it with
    /// [`SmallRng::from_state`] resumes the output stream exactly where
    /// [`RngCore::next_u64`] left off.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuilds a generator from a captured [`SmallRng::state`].
    ///
    /// # Panics
    /// Panics on the all-zero state, which is not reachable from any seed
    /// and would make xoshiro emit zeros forever.
    pub fn from_state(s: [u64; 4]) -> Self {
        assert!(s.iter().any(|&w| w != 0), "xoshiro state must be non-zero");
        Self { s }
    }

    /// Overwrites this generator's state in place (resume-from-checkpoint).
    ///
    /// # Panics
    /// Panics on the all-zero state, like [`SmallRng::from_state`].
    pub fn set_state(&mut self, s: [u64; 4]) {
        *self = Self::from_state(s);
    }
}

impl RngCore for SmallRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_vector_xoshiro256plusplus() {
        // State {1, 2, 3, 4} — first outputs of the reference C
        // implementation (Blackman & Vigna).
        let mut rng = SmallRng { s: [1, 2, 3, 4] };
        let expect: [u64; 4] = [41943041, 58720359, 3588806011781223, 3591011842654386];
        for &e in &expect {
            assert_eq!(rng.next_u64(), e);
        }
    }

    #[test]
    fn state_round_trip_resumes_the_stream() {
        let mut rng = SmallRng::seed_from_u64(11);
        let _ = rng.next_u64();
        let saved = rng.state();
        let expect: Vec<u64> = (0..8).map(|_| rng.next_u64()).collect();
        let mut restored = SmallRng::from_state(saved);
        let got: Vec<u64> = (0..8).map(|_| restored.next_u64()).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn moments_of_unit_uniform() {
        use crate::Rng;
        let mut rng = SmallRng::seed_from_u64(99);
        let n = 100_000;
        let mut sum = 0.0f64;
        let mut sq = 0.0f64;
        for _ in 0..n {
            let x: f64 = rng.random();
            sum += x;
            sq += x * x;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
        assert!((var - 1.0 / 12.0).abs() < 0.01, "var {var}");
    }
}
