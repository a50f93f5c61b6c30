//! The workspace's one seeded random-number generator, [`Rng`].
//!
//! Every random draw in the pipeline comes from an [`Rng`], so a result
//! is a pure function of its seed. Each method's doc states its draw
//! rule; changing any rule moves every seeded output.
//!
//! The module also holds the workspace's one FNV-1a loop,
//! [`fnv1a_extend`], which turns names and configurations into seeds,
//! cache salts and snapshot fingerprints.

use std::ops::Range;

/// Weyl-sequence increment (the golden-ratio constant of SplitMix64).
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 output finalizer.
fn finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives an independent sub-seed from `(seed, stream)`: the SplitMix64
/// finalizer of `seed ^ stream * GAMMA`. Adjacent streams of one seed
/// are statistically independent.
pub fn mix_seed(seed: u64, stream: u64) -> u64 {
    finalize(seed ^ stream.wrapping_mul(GAMMA))
}

/// Offset basis of 64-bit FNV-1a: the hash of no bytes.
pub const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The 64-bit FNV prime, 2^40 + 0x1b3.
pub const FNV1A_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into the 64-bit FNV-1a state `h`: per byte, xor it in,
/// then multiply by [`FNV1A_PRIME`]. `fnv1a_extend(FNV1A_OFFSET, b)` is
/// the FNV-1a hash of `b`.
pub fn fnv1a_extend(h: u64, bytes: &[u8]) -> u64 {
    fnv1a_extend_with(FNV1A_PRIME, h, bytes)
}

/// [`fnv1a_extend`] with another multiplier. The simulator seeds every
/// series through `2^44 + 0x1b3`, not the FNV prime; changing it would
/// move every simulated value.
pub fn fnv1a_extend_with(prime: u64, h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(prime))
}

/// A seeded SplitMix64 generator.
///
/// # Examples
///
/// ```
/// use cm_par::Rng;
///
/// let mut a = Rng::new(7);
/// let mut b = Rng::new(7);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// let u = a.next_f64();
/// assert!((0.0..1.0).contains(&u));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Creates a generator whose state is `seed` (no pre-mix); equal
    /// seeds give equal streams.
    pub fn new(seed: u64) -> Self {
        Rng { state: seed }
    }

    /// Opens stream `stream` of `seed`: `Rng::new(mix_seed(seed, stream))`.
    /// Stream `(seed, stream)` is a pure function of its two arguments,
    /// so draw `d` of a resampling loop can run on any thread, in any
    /// order, and always yields the same numbers.
    pub fn stream(seed: u64, stream: u64) -> Self {
        Rng::new(mix_seed(seed, stream))
    }

    /// Next raw 64-bit draw: one SplitMix64 step (Weyl increment, then
    /// the finalizer).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        finalize(self.state)
    }

    /// Uniform draw in `[0, 1)`: the top 53 bits of [`Rng::next_u64`]
    /// over 2^53.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Draw in `[0, bound)` as `next_u64() % bound` (the modulo bias is
    /// far below anything a seeded test can observe); 0 for `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }

    /// Index in `range` as `start + below(end - start)`; `range.start`
    /// for an empty range.
    pub fn range_usize(&mut self, range: Range<usize>) -> usize {
        let span = range.end.saturating_sub(range.start) as u64;
        range.start + self.below(span) as usize
    }

    /// Draw in `[range.start, range.end)` as
    /// `start + (end - start) * next_f64()`.
    pub fn range_f64(&mut self, range: Range<f64>) -> f64 {
        range.start + (range.end - range.start) * self.next_f64()
    }

    /// `true` with probability `p`, as `next_f64() < p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Shuffles `items` in place: Fisher–Yates from the last index,
    /// swapping `i` with `below(i + 1)`.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// Derives an independent generator, advancing this one by one draw.
    ///
    /// # Examples
    ///
    /// ```
    /// use cm_par::Rng;
    ///
    /// let mut parent = Rng::new(1);
    /// let mut child = parent.split();
    /// // The child stream is distinct from the parent's continuation.
    /// assert_ne!(child.next_u64(), parent.clone().next_u64());
    /// ```
    pub fn split(&mut self) -> Rng {
        // Re-mix the draw so parent and child Weyl sequences never align.
        Rng::new(self.next_u64().wrapping_mul(GAMMA) ^ 0xA5A5_A5A5_A5A5_A5A5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draws(mut r: Rng) -> Vec<u64> {
        (0..8).map(|_| r.next_u64()).collect()
    }

    /// Published 64-bit FNV-1a test vectors.
    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a_extend(FNV1A_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_extend(FNV1A_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_extend(FNV1A_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        // Extending is hashing the concatenation.
        assert_eq!(
            fnv1a_extend(fnv1a_extend(FNV1A_OFFSET, b"foo"), b"bar"),
            fnv1a_extend(FNV1A_OFFSET, b"foobar")
        );
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(draws(Rng::new(42)), draws(Rng::new(42)));
        assert_ne!(draws(Rng::new(42)), draws(Rng::new(43)));
        assert_ne!(draws(Rng::stream(1, 0)), draws(Rng::stream(1, 1)));
        assert_ne!(draws(Rng::stream(1, 0)), draws(Rng::stream(2, 0)));
    }

    #[test]
    fn split_streams_diverge() {
        let mut parent = Rng::new(5);
        assert_ne!(draws(parent.split()), draws(parent.split()));
    }

    /// Pins `Rng::new` streams: chaos fault schedules and cm-load op
    /// mixes recorded against a seed replay only while these hold.
    #[test]
    fn new_stream_is_pinned() {
        assert_eq!(
            draws(Rng::new(7)),
            [
                0x63cb_e1e4_5932_0dd7,
                0x044c_3cd7_f43c_661c,
                0xe698_4080_bab1_2a02,
                0x953a_eb70_673e_29cb,
                0x73d3_3b66_6a1e_21da,
                0x3fda_be86_cbbe_aa11,
                0x77cb_c4a1_33c2_d0f6,
                0x53fc_d651_3d02_befe,
            ]
        );
    }

    /// Pins keyed streams: bayes stability scores and the cluster
    /// first-medoid draw replay only while these hold.
    #[test]
    fn keyed_stream_is_pinned() {
        assert_eq!(
            draws(Rng::stream(42, 3)),
            [
                0x7e8f_d405_45bc_dd70,
                0x8baa_2ca0_071f_01ea,
                0xe27d_5dea_2051_8166,
                0x6b52_28ce_9bf3_8d54,
                0xb1c6_86a8_2d99_4e8b,
                0x5103_c528_c3ca_5a8a,
                0x8239_141c_996e_2b91,
                0x0d1f_a89a_1990_f1d8,
            ]
        );
    }

    #[test]
    fn unit_interval_and_bounds_hold() {
        let mut r = Rng::new(9);
        for _ in 0..1000 {
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
            assert!(r.below(7) < 7);
            assert!((3..9).contains(&r.range_usize(3..9)));
            assert!((-2.0..5.0).contains(&r.range_f64(-2.0..5.0)));
        }
        assert_eq!(r.below(0), 0);
        assert_eq!(r.range_usize(4..4), 4);
    }

    #[test]
    fn chance_is_roughly_calibrated() {
        let mut r = Rng::new(11);
        let hits = (0..10_000).filter(|_| r.chance(0.25)).count();
        assert!((2000..3000).contains(&hits), "got {hits}");
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let shuffled = |seed| {
            let mut v: Vec<u32> = (0..20).collect();
            Rng::new(seed).shuffle(&mut v);
            v
        };
        let mut sorted = shuffled(3);
        assert_eq!(shuffled(3), sorted);
        assert_ne!(shuffled(3), shuffled(4));
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
    }
}
