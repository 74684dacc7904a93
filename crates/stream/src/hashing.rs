//! Seeded hash families for the samplers.
//!
//! The paper's samplers need hash functions that map a canonical edge key to
//! a pseudo-random priority, so that both stream appearances of an edge make
//! the same sampling decision (Section 3.3.1's "hash-based sampling method").
//! Everything here is deterministic given a `u64` seed, keeping every
//! experiment replayable.

/// SplitMix64: a fast, well-mixed 64-bit permutation-based generator. Used
/// both as a stateless mixer ([`SplitMix64::mix`]) and as a tiny sequential
/// RNG for seeding.
#[derive(Debug, Clone, Copy)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Construct with the given seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next sequential value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        finalize(self.state)
    }

    /// Stateless mix of `x` with this generator's seed: a fixed random-ish
    /// function `u64 → u64`.
    pub fn mix(&self, x: u64) -> u64 {
        finalize(self.state ^ finalize(x.wrapping_add(0x9E37_79B9_7F4A_7C15)))
    }

    /// The raw internal state, for checkpointing. Feeding it back through
    /// [`SplitMix64::from_state`] resumes the sequence exactly where it
    /// stopped.
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Rebuild a generator from a state captured by [`SplitMix64::state`].
    pub fn from_state(state: u64) -> Self {
        SplitMix64 { state }
    }
}

#[inline]
fn finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded hash function `u64 → u64` suitable for sampling decisions.
///
/// Implemented as two rounds of SplitMix finalization keyed by independent
/// seed words; empirically indistinguishable from random for the adversarial
/// inputs in this repository (sequential ids, packed edge keys), and fully
/// deterministic.
#[derive(Debug, Clone, Copy)]
pub struct HashFn {
    k0: u64,
    k1: u64,
}

impl HashFn {
    /// Derive a hash function from `seed`, distinguished by `stream_id` so
    /// one experiment seed can feed many independent hash functions.
    pub fn from_seed(seed: u64, stream_id: u64) -> Self {
        let mut sm = SplitMix64::new(seed ^ finalize(stream_id));
        HashFn {
            k0: sm.next_u64(),
            k1: sm.next_u64(),
        }
    }

    /// Hash a key to a uniform-looking 64-bit value.
    #[inline]
    pub fn hash(&self, key: u64) -> u64 {
        finalize(finalize(key ^ self.k0).wrapping_add(self.k1))
    }

    /// Hash to the unit interval `[0, 1)`.
    #[inline]
    pub fn unit(&self, key: u64) -> f64 {
        // 53 high bits → f64 in [0,1).
        (self.hash(key) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Word-at-a-time 64-bit checksum for container payloads.
///
/// Processes the input as four independent lanes of 8-byte little-endian
/// words, each folded through SplitMix64's finalizer, then combines the
/// lanes with the total length: the three multiplies per word overlap
/// across lanes instead of chaining a multiply per byte, which matters
/// because file-backed replay re-verifies a trace's checksum on every pass.
/// It is the trailer of every [`crate::frame`] container. Detects
/// corruption (any flipped bit reaches the output); not cryptographic.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut ck = Checksum64::new();
    ck.update(bytes);
    ck.finalize()
}

/// Streaming state of [`checksum64`]: feed the input in arbitrary windows
/// via [`update`](Checksum64::update) and the final digest is byte-for-byte
/// identical to a single [`checksum64`] call over the concatenation.
///
/// This is what lets mmap-backed replay verify a multi-gigabyte `.adjb`
/// container in bounded windows — touching pages incrementally instead of
/// forcing the whole file resident before the first item is served — while
/// keeping the exact on-disk checksum format.
#[derive(Debug, Clone)]
pub struct Checksum64 {
    lanes: [u64; 4],
    /// Partial 32-byte block carried between `update` calls.
    pending: [u8; 32],
    pending_len: usize,
    /// Total bytes absorbed (folded into the final digest).
    len: u64,
}

impl Default for Checksum64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Checksum64 {
    /// Fresh checksum state.
    pub fn new() -> Self {
        Checksum64 {
            lanes: [
                0x243F_6A88_85A3_08D3u64,
                0x1319_8A2E_0370_7344,
                0xA409_3822_299F_31D0,
                0x082E_FA98_EC4E_6C89,
            ],
            pending: [0u8; 32],
            pending_len: 0,
            len: 0,
        }
    }

    #[inline]
    fn absorb_block(lanes: &mut [u64; 4], block: &[u8]) {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = finalize(*lane ^ u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
    }

    /// Absorb the next window of input.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.pending_len > 0 {
            let need = 32 - self.pending_len;
            let take = need.min(bytes.len());
            self.pending[self.pending_len..self.pending_len + take].copy_from_slice(&bytes[..take]);
            self.pending_len += take;
            bytes = &bytes[take..];
            if self.pending_len < 32 {
                return;
            }
            let block = self.pending;
            Self::absorb_block(&mut self.lanes, &block);
            self.pending_len = 0;
        }
        let mut blocks = bytes.chunks_exact(32);
        for block in &mut blocks {
            Self::absorb_block(&mut self.lanes, block);
        }
        let rem = blocks.remainder();
        self.pending[..rem.len()].copy_from_slice(rem);
        self.pending_len = rem.len();
    }

    /// Bytes absorbed so far.
    pub fn bytes_absorbed(&self) -> u64 {
        self.len
    }

    /// Finish: digest of everything absorbed, identical to
    /// [`checksum64`] over the same bytes.
    pub fn finalize(mut self) -> u64 {
        if self.pending_len > 0 {
            // Zero-pad the tail block; the length fold below distinguishes
            // inputs that differ only in trailing zero bytes.
            self.pending[self.pending_len..].fill(0);
            let block = self.pending;
            Self::absorb_block(&mut self.lanes, &block);
        }
        let mut acc = self.len;
        for lane in self.lanes {
            acc = finalize(acc ^ lane);
        }
        acc
    }
}

/// Seed of the default [`FastBuildHasher`]. Fixed, so two maps built with
/// `FastBuildHasher::default()` and fed the same insertion sequence iterate
/// in the same order — in the same process, on another thread, or in another
/// run entirely.
const FAST_HASH_SEED: u64 = 0x5EED_AD75_7EAA_17A1;

/// A seeded [`std::hash::Hasher`] built on SplitMix64 finalization.
///
/// The algorithm-state maps in `crates/core` key on `u32` vertex ids and
/// packed `u64` edge keys; std's default SipHash spends most of a lookup
/// hashing 8 bytes with a 64-bit-secure keyed hash nobody asked for. This
/// hasher folds each written word through [`SplitMix64`]'s finalizer — one
/// multiply-xor round per word — and is *deterministic*: the seed is fixed
/// (or explicitly supplied), never drawn from process randomness like
/// `RandomState`, so map iteration order is a pure function of the insertion
/// sequence. That determinism is what lets batched, threaded replays stay
/// bit-for-bit against the sequential runner even where iteration order
/// leaks into results (those sites are additionally sorted; see DESIGN.md).
///
/// Not DoS-resistant by design: keys here come from the experiment harness,
/// not an adversary.
#[derive(Debug, Clone, Copy)]
pub struct FastHasher {
    state: u64,
}

impl std::hash::Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        finalize(self.state)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Word-at-a-time fold; the trailing partial word is zero-padded and
        // length-tagged so "ab" and "ab\0" hash differently.
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            self.mix(word);
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(tail) ^ ((rest.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, x: u8) {
        self.mix(x as u64);
    }

    #[inline]
    fn write_u16(&mut self, x: u16) {
        self.mix(x as u64);
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.mix(x as u64);
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.mix(x);
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.mix(x as u64);
    }
}

impl FastHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = finalize(self.state ^ word.wrapping_add(0x9E37_79B9_7F4A_7C15));
    }
}

/// Seeded [`std::hash::BuildHasher`] producing [`FastHasher`]s. `Default`
/// uses a fixed seed, so every `FastMap`/`FastSet` in the workspace shares
/// one deterministic hash function.
#[derive(Debug, Clone, Copy)]
pub struct FastBuildHasher {
    seed: u64,
}

impl FastBuildHasher {
    /// A build-hasher keyed by `seed` (for the rare map that wants its own
    /// hash function rather than the workspace-wide default).
    pub fn with_seed(seed: u64) -> Self {
        FastBuildHasher { seed }
    }
}

impl Default for FastBuildHasher {
    fn default() -> Self {
        FastBuildHasher {
            seed: FAST_HASH_SEED,
        }
    }
}

impl std::hash::BuildHasher for FastBuildHasher {
    type Hasher = FastHasher;

    #[inline]
    fn build_hasher(&self) -> FastHasher {
        FastHasher { state: self.seed }
    }
}

/// `HashMap` with the deterministic seeded fast hasher — the map type for
/// algorithm state on every hot path.
pub type FastMap<K, V> = std::collections::HashMap<K, V, FastBuildHasher>;

/// `HashSet` with the deterministic seeded fast hasher.
pub type FastSet<T> = std::collections::HashSet<T, FastBuildHasher>;

/// A 2-universal multiply-shift hash `u64 → [0, 2^out_bits)`, for cases
/// where provable pairwise independence matters (bucket assignment in the
/// estimator combinators).
#[derive(Debug, Clone, Copy)]
pub struct MultiplyShift {
    a: u64,
    b: u64,
    out_bits: u32,
}

impl MultiplyShift {
    /// Draw the (odd) multiplier and offset from `seed`.
    pub fn from_seed(seed: u64, out_bits: u32) -> Self {
        assert!((1..=63).contains(&out_bits));
        let mut sm = SplitMix64::new(seed);
        MultiplyShift {
            a: sm.next_u64() | 1,
            b: sm.next_u64(),
            out_bits,
        }
    }

    /// Hash `key` into `0..2^out_bits`.
    #[inline]
    pub fn hash(&self, key: u64) -> u64 {
        self.a
            .wrapping_mul(key)
            .wrapping_add(self.b)
            .wrapping_shr(64 - self.out_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_sequence_changes() {
        let mut sm = SplitMix64::new(1);
        let a = sm.next_u64();
        let b = sm.next_u64();
        assert_ne!(a, b);
        // Deterministic.
        let mut sm2 = SplitMix64::new(1);
        assert_eq!(sm2.next_u64(), a);
    }

    #[test]
    fn hashfn_is_deterministic_and_seed_sensitive() {
        let h1 = HashFn::from_seed(7, 0);
        let h2 = HashFn::from_seed(7, 0);
        let h3 = HashFn::from_seed(8, 0);
        let h4 = HashFn::from_seed(7, 1);
        assert_eq!(h1.hash(42), h2.hash(42));
        assert_ne!(h1.hash(42), h3.hash(42));
        assert_ne!(h1.hash(42), h4.hash(42));
    }

    #[test]
    fn unit_values_look_uniform() {
        let h = HashFn::from_seed(3, 0);
        let n = 10_000;
        let mean: f64 = (0..n).map(|i| h.unit(i)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
        let below_tenth = (0..n).filter(|&i| h.unit(i) < 0.1).count();
        let frac = below_tenth as f64 / n as f64;
        assert!((frac - 0.1).abs() < 0.02, "frac {frac}");
        assert!((0..n).all(|i| (0.0..1.0).contains(&h.unit(i))));
    }

    #[test]
    fn hash_collision_rate_is_tiny() {
        let h = HashFn::from_seed(11, 0);
        let mut seen = std::collections::HashSet::new();
        for i in 0..100_000u64 {
            seen.insert(h.hash(i));
        }
        assert_eq!(seen.len(), 100_000);
    }

    #[test]
    fn checksum_detects_every_single_bit_flip() {
        let data: Vec<u8> = (0..100u16).map(|i| (i * 7 % 251) as u8).collect();
        let want = checksum64(&data);
        assert_eq!(checksum64(&data), want);
        let mut corrupted = data.clone();
        for at in 0..corrupted.len() {
            for bit in 0..8 {
                corrupted[at] ^= 1 << bit;
                assert_ne!(checksum64(&corrupted), want, "flip at {at} bit {bit}");
                corrupted[at] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn windowed_checksum_matches_one_shot_for_every_split() {
        let data: Vec<u8> = (0..200u16)
            .map(|i| (i.wrapping_mul(31) % 251) as u8)
            .collect();
        let want = checksum64(&data);
        // Every single split point, including block-misaligned ones.
        for split in 0..=data.len() {
            let mut ck = Checksum64::new();
            ck.update(&data[..split]);
            ck.update(&data[split..]);
            assert_eq!(ck.finalize(), want, "split at {split}");
        }
        // Many tiny windows of coprime-to-32 width.
        let mut ck = Checksum64::new();
        for chunk in data.chunks(7) {
            ck.update(chunk);
        }
        assert_eq!(ck.bytes_absorbed(), data.len() as u64);
        assert_eq!(ck.finalize(), want);
        // Empty input and empty updates.
        let mut ck = Checksum64::new();
        ck.update(b"");
        assert_eq!(ck.finalize(), checksum64(b""));
    }

    #[test]
    fn checksum_distinguishes_trailing_zeros_and_lengths() {
        assert_ne!(checksum64(b""), checksum64(b"\0"));
        assert_ne!(checksum64(b"abc"), checksum64(b"abc\0"));
        // Across the 32-byte block boundary, too.
        let long = [0u8; 40];
        assert_ne!(checksum64(&long[..32]), checksum64(&long[..33]));
    }

    #[test]
    fn fast_map_iteration_order_is_a_pure_function_of_insertions() {
        let build = |seed: u64| {
            let mut m: FastMap<u64, u64> = FastMap::default();
            let mut sm = SplitMix64::new(seed);
            for _ in 0..500 {
                let k = sm.next_u64() % 1000;
                m.insert(k, k.wrapping_mul(3));
            }
            m.remove(&(sm.next_u64() % 1000));
            m.keys().copied().collect::<Vec<u64>>()
        };
        assert_eq!(build(9), build(9));
        // A seeded build-hasher scrambles differently but stays deterministic.
        let mut a: std::collections::HashMap<u32, (), FastBuildHasher> =
            std::collections::HashMap::with_hasher(FastBuildHasher::with_seed(1));
        let mut b = std::collections::HashMap::with_hasher(FastBuildHasher::with_seed(1));
        for i in 0..300u32 {
            a.insert(i, ());
            b.insert(i, ());
        }
        assert_eq!(
            a.keys().copied().collect::<Vec<_>>(),
            b.keys().copied().collect::<Vec<_>>()
        );
    }

    #[test]
    fn fast_hasher_separates_close_keys() {
        use std::hash::{BuildHasher, Hasher};
        let bh = FastBuildHasher::default();
        let hash_u64 = |x: u64| {
            let mut h = bh.build_hasher();
            h.write_u64(x);
            h.finish()
        };
        let mut seen = std::collections::HashSet::new();
        for i in 0..100_000u64 {
            seen.insert(hash_u64(i));
        }
        assert_eq!(seen.len(), 100_000);
        // Byte-slice path: length-tagged tail distinguishes padded strings.
        let hash_bytes = |b: &[u8]| {
            let mut h = bh.build_hasher();
            h.write(b);
            h.finish()
        };
        assert_ne!(hash_bytes(b"ab"), hash_bytes(b"ab\0"));
        assert_ne!(hash_bytes(b"abcdefgh"), hash_bytes(b"abcdefg"));
    }

    #[test]
    fn multiply_shift_range() {
        let h = MultiplyShift::from_seed(5, 10);
        for i in 0..1000u64 {
            assert!(h.hash(i) < 1024);
        }
        // Rough balance across two halves.
        let low = (0..10_000u64).filter(|&i| h.hash(i) < 512).count();
        assert!((low as i64 - 5000).abs() < 600, "low {low}");
    }
}
