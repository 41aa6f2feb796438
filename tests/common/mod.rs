//! Shared helpers for the workspace-level integration tests.
//!
//! (`crates/bitio` keeps its own minimal copy of the generator: its tests
//! belong to a different crate that must not depend on the facade.)

/// Deterministic xorshift64* generator for case synthesis — the offline
/// replacement for proptest's case generation. Every test derives its
/// cases from seeds and carries the seed in assertion messages for replay.
pub struct Cases(u64);

#[allow(
    dead_code,
    reason = "each test file uses a different subset of helpers"
)]
impl Cases {
    pub fn new(seed: u64) -> Self {
        Self(seed.max(1))
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform-ish value in `0..n` (modulo bias is irrelevant for case
    /// synthesis).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Value in `lo..hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo)
    }

    /// One of the given options.
    pub fn pick<T: Copy>(&mut self, options: &[T]) -> T {
        options[self.below(options.len() as u64) as usize]
    }

    /// Uniformly random bytes.
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next_u64() as u8).collect()
    }

    /// Structured data with a randomly chosen spread (coarser shifts →
    /// smaller alphabets → more compressible).
    pub fn data(&mut self, len: usize) -> Vec<u8> {
        let shift = self.range(21, 29) as u32;
        let seed = self.next_u64() as u32;
        (0..len as u32)
            .map(|i| ((i.wrapping_add(seed).wrapping_mul(2654435761)) >> shift) as u8)
            .collect()
    }
}
