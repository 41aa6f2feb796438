//! The paper's evaluation claims, asserted. Each test states one claim with
//! a tolerance, on inputs of at most 2 MB so that the suite stays tier-1;
//! the `tables` and `fig7` binaries print the same quantities at full
//! dataset sizes.
//!
//! | test | paper | claim |
//! |---|---|---|
//! | `recoil_undercuts_conventional_at_equal_parallelism` | §5.2, Tables 5/6 | sizes order (b) > (c) > (d) > (e) > (a), and Recoil's overhead is below Conventional's at both parallelisms |
//! | `a_split_costs_about_76_bytes_at_32_lanes` | §5.2 | metadata bytes per split lie in `[2W, 2W + 20]` at `W = 32` |
//! | `conventional_overhead_is_linear_in_partitions` | §2.3, Figure 3 | overhead ratios between partition counts are the counts' ratios, ±25 % |
//! | `one_encode_decodes_at_every_width` | §3.3 | every width `1..=64` combined from one 64-split encode decodes byte-identically |
//! | `code_length_is_the_quantized_model_plus_rans_loss` | Yamamoto & Iwata (PAPERS.md) | coded bits exceed the quantized model's ideal length by at least `-W` and at most `N · 2^(n-16) / 100` |
//!
//! Decode rate (Figure 7) is not asserted. Recoil against Conventional at
//! equal parallelism is a wall-clock ratio, and under `cargo test`'s
//! parallel harness on a small shared machine such a ratio would be a
//! flaky gate; `fig7` prints it instead.

use recoil::conventional::encode_conventional;
use recoil::core::metadata_wire_len;
use recoil::data::{exponential_bytes, Dataset};
use recoil::prelude::*;
use recoil::rans::params::INITIAL_STATE;

/// The paper's Large and Small parallelisms (§5.2).
const LARGE: u64 = 2176;
const SMALL: u64 = 16;

/// Lane count of every encode here, the paper's recommended `W`.
const WAYS: u64 = 32;

fn dataset(name: &str, len: usize) -> Vec<u8> {
    Dataset::by_name(name)
        .expect("a Table 4 dataset")
        .generate_bytes(len)
}

/// Payload bytes of the conventional layout: `data` cut into `partitions`
/// independently coded sub-sequences.
fn conventional_bytes(data: &[u8], model: &StaticModelProvider, partitions: u64) -> u64 {
    encode_conventional(data, model, WAYS as u32, partitions as usize).payload_bytes()
}

/// Tables 5/6 (§5.2): at equal parallelism Recoil costs less than
/// Conventional, and both cost more than the single-stream baseline. The
/// variations of one input at level `n`:
///
/// * (a) the plain 32-way rANS stream;
/// * (b) Conventional Large, (d) Conventional Small: re-encoded in 2176 and
///   16 partitions;
/// * (c) Recoil Large: (a) plus 2176-way split metadata;
/// * (e) Recoil Small: (a) plus (c)'s metadata combined down to 16 ways.
///
/// That every variation decodes back to its input is the bench crate's
/// `variations::tests::all_variations_decode_to_the_input`.
#[test]
fn recoil_undercuts_conventional_at_equal_parallelism() {
    let inputs = [
        ("rand_500", dataset("rand_500", 2_000_000)),
        ("enwik9", dataset("enwik9", 2_000_000)),
        ("exponential λ=200", exponential_bytes(2_000_000, 200.0, 1)),
    ];
    for (name, data) in &inputs {
        for n in [11u32, 16] {
            let model = StaticModelProvider::new(CdfTable::of_bytes(data, n));
            let codec = Codec::builder()
                .max_segments(LARGE)
                .quant_bits(n)
                .build()
                .unwrap();
            let large = codec.encode_with_provider(data, &model).unwrap();
            let small = try_combine_splits(&large.metadata, SMALL).unwrap();
            let a = large.stream_bytes();
            let b = conventional_bytes(data, &model, LARGE);
            let c = a + large.metadata_bytes();
            let d = conventional_bytes(data, &model, SMALL);
            let e = a + metadata_wire_len(&small) as u64;
            let ctx = format!("{name}, n = {n}: a={a} b={b} c={c} d={d} e={e}");
            assert!(b > c && c > d && d > e && e > a, "{ctx}");
            // Recoil's overhead over (a) is a fraction of Conventional's.
            let large_ratio = (c - a) as f64 / (b - a) as f64;
            let small_ratio = (e - a) as f64 / (d - a) as f64;
            assert!(large_ratio < 1.0 && small_ratio < 1.0, "{ctx}");
        }
    }
}

/// §5.2: a split costs ≈ 76 bytes at `W = 32` — 16 bits of state per lane
/// (`2W` bytes) plus the difference-coded positions and offset (§4.3).
#[test]
fn a_split_costs_about_76_bytes_at_32_lanes() {
    for name in ["enwik9", "rand_100"] {
        let data = dataset(name, 2_000_000);
        let codec = Codec::builder().max_segments(LARGE).build().unwrap();
        let encoded = codec.encode(&data).unwrap();
        let splits = encoded.container.metadata.num_segments() - 1;
        let per_split = encoded.container.metadata_bytes() as f64 / splits as f64;
        let range = (2 * WAYS) as f64..=(2 * WAYS + 20) as f64;
        assert!(
            range.contains(&per_split),
            "{name}: {per_split:.1} bytes per split over {splits} splits"
        );
    }
}

/// Figure 3 (§2.3): cutting the symbols into partitions before encoding
/// costs a fixed amount per partition — the inflexibility Recoil removes.
/// On 2 MB of enwik9-like data at `n = 11`, the overhead over one partition
/// scales with the partition count within ±25 %.
#[test]
fn conventional_overhead_is_linear_in_partitions() {
    let data = dataset("enwik9", 2_000_000);
    let model = StaticModelProvider::new(CdfTable::of_bytes(&data, 11));
    let one = conventional_bytes(&data, &model, 1);
    let overhead = |partitions| (conventional_bytes(&data, &model, partitions) - one) as f64;
    let (o16, o256, o2176) = (overhead(16), overhead(256), overhead(2176));
    for (got, partitions) in [(o256 / o16, 256.0 / 16.0), (o2176 / o256, 2176.0 / 256.0)] {
        assert!(
            (got / partitions - 1.0).abs() <= 0.25,
            "overhead ratio {got:.2} against partition ratio {partitions} \
             (overheads {o16}, {o256}, {o2176} bytes)"
        );
    }
}

/// §3.3: one bitstream serves every decoder. Encoded once with 64 splits,
/// the metadata combines down to every width `1..=64`, and each decodes to
/// the input on the scalar reference and on a two-thread automatic backend.
#[test]
fn one_encode_decodes_at_every_width() {
    let data = recoil::data::text_like_bytes(256 << 10, 5.1, 27);
    let codec = Codec::builder().max_segments(64).build().unwrap();
    let encoded = codec.encode(&data).unwrap();
    let (stream, stored) = (&encoded.container.stream, &encoded.container.metadata);
    assert_eq!(stored.num_segments(), 64);
    let backends: [&dyn DecodeBackend; 2] = [&ScalarBackend, &AutoBackend::with_threads(2)];
    let mut out = vec![0u8; data.len()];
    for width in 1..=64 {
        let tier = try_combine_splits(stored, width).unwrap();
        assert_eq!(tier.num_segments(), width);
        for backend in backends {
            out.fill(0);
            let model = DecodeModel::Static(&encoded.model);
            let req = DecodeRequest::whole(stream, &tier, model, &mut out);
            backend.decode(req.unwrap()).unwrap();
            assert!(out == data, "width {width}, {}", backend.name());
        }
    }
}

/// The most rANS may lose a symbol against the quantized model, in bits.
/// The loss comes from dividing a state by a frequency in integers, and
/// grows with `2^n` over the states' lower bound `2^16`: the bound is a
/// hundredth of a bit at `n = 16` and halves with every level below.
fn rans_loss_bits(n: u32) -> f64 {
    2f64.powi(n as i32 - 16) / 100.0
}

/// Seeded symbols below `alphabet`, skewed toward small values.
fn skewed(len: usize, alphabet: u32, seed: u64) -> Vec<u8> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let u = (x >> 11) as f64 / (1u64 << 53) as f64;
            (u * u * f64::from(alphabet)) as u8
        })
        .collect()
}

/// Yamamoto & Iwata: the length of an ANS code against the ideal code
/// length of the *quantized* model, `-Σ log2(f(s) / 2^n)`. The coded length
/// is the emitted words plus what the final lane states hold beyond their
/// initial state. It may fall below the ideal by under a bit a lane (a
/// state's information is fractional), and must exceed it by no more than
/// [`rans_loss_bits`] a symbol.
#[test]
fn code_length_is_the_quantized_model_plus_rans_loss() {
    const SYMBOLS: usize = 512 << 10;
    for n in [8u32, 11, 12, 14, 16] {
        for alphabet in [2u32, 16, 256] {
            let data = skewed(SYMBOLS, alphabet, u64::from(n * 1000 + alphabet));
            let model = StaticModelProvider::new(CdfTable::of_bytes(&data, n));
            let codec = Codec::builder()
                .max_segments(1)
                .quant_bits(n)
                .build()
                .unwrap();
            let stream = codec.encode_with_provider(&data, &model).unwrap().stream;
            let ideal = model
                .table()
                .cross_entropy_bits(&Histogram::of_bytes(&data));
            let state_bits: f64 = stream
                .final_states
                .iter()
                .map(|&x| (f64::from(x) / f64::from(INITIAL_STATE)).log2())
                .sum();
            let coded = 16.0 * stream.words.len() as f64 + state_bits;
            let excess = coded - ideal;
            let bound = SYMBOLS as f64 * rans_loss_bits(n);
            assert!(
                (-(WAYS as f64)..=bound).contains(&excess),
                "n = {n}, alphabet {alphabet}: {excess:.1} bits over the ideal {ideal:.0} \
                 (bound {bound:.0})"
            );
        }
    }
}
