//! Randomized property tests for the I/O primitives.
//!
//! The registry `proptest` crate is unavailable offline, so these run the
//! same properties over deterministic seeded cases: a small xorshift
//! generator drives the case generation, and every failure message carries
//! the seed for replay.

use recoil_bitio::{BackwardWordReader, BitReader, BitWriter, WordStream};

/// Deterministic xorshift64* generator for case synthesis.
struct Cases(u64);

impl Cases {
    fn new(seed: u64) -> Self {
        Self(seed.max(1))
    }
    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// Arbitrary (value, width) sequences round-trip through the bit codec.
#[test]
fn bit_sequences_round_trip() {
    for seed in 0..64u64 {
        let mut rng = Cases::new(0xB17C0DE ^ seed);
        let len = rng.below(200) as usize;
        let fields: Vec<(u64, u32)> = (0..len)
            .map(|_| (rng.next_u64(), rng.below(65) as u32))
            .collect();

        let mut w = BitWriter::new();
        for &(v, n) in &fields {
            let v = if n == 64 { v } else { v & ((1u64 << n) - 1) };
            w.write(v, n);
        }
        let total: u64 = fields.iter().map(|&(_, n)| n as u64).sum();
        assert_eq!(w.bit_len(), total, "seed {seed}");
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &(v, n) in &fields {
            let v = if n == 64 { v } else { v & ((1u64 << n) - 1) };
            assert_eq!(r.read(n), Some(v), "seed {seed}");
        }
    }
}

/// Reading from any set_pos point equals re-reading from scratch.
#[test]
fn set_pos_is_consistent() {
    for seed in 0..128u64 {
        let mut rng = Cases::new(0x5E7905 ^ seed);
        let len = 1 + rng.below(63) as usize;
        let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let skip = rng.below(256).min(data.len() as u64 * 8);
        let n = rng.below(32) as u32;

        let mut a = BitReader::new(&data);
        a.set_pos(skip);
        let got_a = a.read(n);
        let mut b = BitReader::new(&data);
        let mut left = skip;
        while left > 0 {
            let step = left.min(13) as u32;
            b.read(step).unwrap();
            left -= step as u64;
        }
        assert_eq!(got_a, b.read(n), "seed {seed} skip {skip} n {n}");
    }
}

/// The backward reader yields exactly the reversed word sequence from any
/// interior starting offset.
#[test]
fn backward_reader_reverses() {
    for seed in 0..128u64 {
        let mut rng = Cases::new(0xBAC4 ^ seed);
        let len = 1 + rng.below(99) as usize;
        let words: Vec<u16> = (0..len).map(|_| rng.next_u64() as u16).collect();
        let start = rng.below(words.len() as u64);

        let stream: WordStream = words.iter().copied().collect();
        let mut r = BackwardWordReader::new(stream.as_bytes(), start);
        let got: Vec<u16> = std::iter::from_fn(|| r.next()).collect();
        let expect: Vec<u16> = words[..=start as usize].iter().rev().copied().collect();
        assert_eq!(got, expect, "seed {seed} start {start}");
    }
}
