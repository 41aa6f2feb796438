//! Kernel selection with runtime CPU-feature detection.
//!
//! The interleave depths are chosen by the sweep `interleave_depth_*` of
//! `cargo bench -p recoil-bench --bench decode_kernels`
//! (`crates/bench/benches/decode_kernels.rs`): one thread decoding 2 MB of
//! text-like bytes (5.1 bits/symbol) cut into 1–64 segments, at depths
//! 1–8. Milliseconds per decode, median of nine runs on a 2-vCPU Intel
//! Xeon with AVX-512; packed tables (`n = 11`) unless marked wide (`n =
//! 16`). At one segment every depth runs the `K = 1` loop, and at two and
//! three every depth from 2 up runs the `K = 2` loop (the descent), so
//! those columns differ by noise only.
//!
//! | AVX-512 | 1 seg | 2 seg | 3 seg | 4 seg | 64 seg | 64 seg, wide |
//! |---|---|---|---|---|---|---|
//! | K = 1 | 1.72 | 1.78 | 1.83 | 1.77 | 1.93 | 3.16 |
//! | K = 2 | 1.73 | 0.98 | 1.28 | 0.95 | 1.16 | 1.93 |
//! | **K = 4** | 1.73 | 0.97 | 1.25 | **0.86** | **0.93** | 2.00 |
//! | K = 6 | 1.74 | 0.95 | 1.27 | 0.95 | 1.14 | 2.11 |
//! | K = 8 | 1.78 | 0.93 | 1.26 | 0.97 | 1.09 | 2.56 |
//!
//! | AVX2 | 1 seg | 2 seg | 3 seg | 4 seg | 64 seg | 64 seg, wide |
//! |---|---|---|---|---|---|---|
//! | K = 1 | 1.83 | 1.84 | 1.80 | 1.83 | 1.92 | 3.08 |
//! | **K = 2** | 1.80 | 1.16 | 1.44 | **1.27** | 1.46 | **2.17** |
//! | K = 4 | 1.80 | 1.12 | 1.50 | 1.47 | 1.44 | 2.67 |
//! | K = 6 | 1.81 | 1.34 | 1.54 | 1.31 | 1.65 | 2.44 |
//! | K = 8 | 1.80 | 1.29 | 1.52 | 1.28 | 1.51 | 2.40 |

/// Spans the AVX2 loop decodes interleaved: a span is four `ymm` registers
/// there — four chains already — and a second is what sixteen leave room
/// for; deeper loops spill lane states and read no faster (module docs).
pub(crate) const AVX2_DEPTH: usize = 2;
/// Spans the AVX-512 loop decodes interleaved: a 32-way span is only two
/// `zmm` registers, each a serial chain of some 50 cycles a group; four
/// spans fill the pipeline, and more read slower (module docs).
pub(crate) const AVX512_DEPTH: usize = 4;

/// Which decode kernel to run. The paper's implementations (2) and (3) map
/// to `Avx2` and `Avx512`; its CUDA implementation (4) has no counterpart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Portable scalar reference (paper implementation (1)).
    Scalar,
    /// 8 lanes × 4 registers per span (paper implementation (2)), 2 spans
    /// interleaved.
    Avx2,
    /// 16 lanes × 2 registers per span (paper implementation (3)), 4 spans
    /// interleaved.
    Avx512,
}

impl Kernel {
    /// True if this kernel can run on the current CPU: its vector
    /// extension, and POPCNT, which counts the renormalizing lanes (every
    /// CPU with AVX2 or AVX-512F has it).
    pub fn is_available(self) -> bool {
        match self {
            Kernel::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("popcnt")
            }
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512 => {
                std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("popcnt")
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// The interleave depth `K`: how many independent spans (Recoil
    /// segments, conventional partitions) the kernel decodes interleaved in
    /// one thread, and so how many the engines batch per task. A thread
    /// reaches the kernel's full rate only on a batch of `K`.
    pub const fn interleave_depth(self) -> usize {
        match self {
            // The scalar fast loop carries 32 independent chains already.
            Kernel::Scalar => 1,
            Kernel::Avx2 => AVX2_DEPTH,
            Kernel::Avx512 => AVX512_DEPTH,
        }
    }

    /// The fastest kernel available on this machine ("(2) and (3) can be
    /// selected based on the target platform's AVX support").
    pub fn best() -> Kernel {
        if Kernel::Avx512.is_available() {
            Kernel::Avx512
        } else if Kernel::Avx2.is_available() {
            Kernel::Avx2
        } else {
            Kernel::Scalar
        }
    }

    /// All kernels runnable here, for exhaustive equivalence tests.
    pub fn all_available() -> Vec<Kernel> {
        [Kernel::Scalar, Kernel::Avx2, Kernel::Avx512]
            .into_iter()
            .filter(|k| k.is_available())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_always_available() {
        assert!(Kernel::Scalar.is_available());
        assert!(!Kernel::all_available().is_empty());
    }

    #[test]
    fn best_is_available() {
        assert!(Kernel::best().is_available());
    }
}
