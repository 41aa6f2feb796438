//! Kernel selection with runtime CPU-feature detection.

/// Spans the AVX2 loop decodes interleaved: a span is four `ymm` registers
/// there — four chains already — and a second is what sixteen leave room
/// for. Chosen, like [`AVX512_DEPTH`], by the depth sweep in
/// `crates/bench/benches/decode_kernels.rs`.
pub(crate) const AVX2_DEPTH: usize = 2;
/// Spans the AVX-512 loop decodes interleaved: a 32-way span is only two
/// `zmm` registers, each a serial chain of about 60 cycles a group.
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
    /// True if this kernel can run on the current CPU.
    pub fn is_available(self) -> bool {
        match self {
            Kernel::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
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
