//! CRC-32 (IEEE 802.3) — the integrity footer of every versioned wire
//! format in the workspace.
//!
//! The metadata wire format, the container file format, and the network
//! transport all append a little-endian CRC-32 of the preceding bytes, so
//! a flipped bit anywhere in a frame is rejected as [`Wire`] corruption
//! before any of it is structurally interpreted — never decoded into
//! garbage symbols.
//!
//! # Two paths, one register
//!
//! Every bitstream byte a client receives passes through here once, on the
//! receive thread, beside a decoder that now costs well under a nanosecond
//! per byte. At table speed (2.0–2.1 GB/s on the bench box) that was 1.3 ms
//! of a 2.75 MB fetch — a sixth of the whole operation — so
//! [`update_crc32`] selects, per call and from what the host reports:
//!
//! * on `x86_64` with PCLMULQDQ and SSE4.1, every whole 64-byte block at
//!   the front of the input is folded with carry-less multiplies
//!   (`clmul.rs`, 15–16 GB/s on the same box) and the tail shorter than a
//!   block goes through the tables;
//! * everywhere else — other architectures, older CPUs, inputs under 64
//!   bytes, and Miri, which has no shim for the instruction — the tables
//!   take all of it ([`update_crc32_table`]).
//!
//! The register value is the same number on both paths for every input and
//! every way of cutting it into calls; the tests below hold the folding
//! path to the table path at every length and alignment, and the table
//! path to the byte-at-a-time loop.
//!
//! # Table layout
//!
//! The portable path is sliced: sixteen
//! 256-entry tables ([`TABLES`], 16 KiB, built at compile time) let one
//! step fold sixteen input bytes. `TABLES[0]` is the classic byte table —
//! the register contribution of one byte that is the *last* one fed;
//! `TABLES[k][b]` is the contribution of byte `b` followed by `k` zero
//! bytes, i.e. `TABLES[k-1][b]` advanced through one more zero byte. A
//! 16-byte block is xor-ed with the register (which only reaches its first
//! four bytes) and each byte looks itself up in the table matching its
//! distance from the block's end; the xor of the sixteen lookups is the
//! new register. The lookups are independent, so they overlap in the
//! pipeline where the byte loop is one serial dependency per byte. The
//! tail shorter than a block goes through `TABLES[0]` a byte at a time.
//!
//! [`Wire`]: crate::RecoilError::Wire

#[cfg(all(target_arch = "x86_64", not(miri)))]
mod clmul;

/// The reflected IEEE polynomial, the same one Ethernet, gzip and PNG use.
const POLY: u32 = 0xEDB8_8320;

/// Input bytes folded per step of [`update_crc32_table`].
const BLOCK: usize = 16;

/// The slice-by-16 tables (see the module docs), built at compile time.
const TABLES: [[u32; 256]; BLOCK] = {
    let mut tables = [[0u32; 256]; BLOCK];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < BLOCK {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 of `bytes` (init `0xFFFF_FFFF`, final xor, reflected — the
/// standard "crc32" everyone means).
pub fn crc32(bytes: &[u8]) -> u32 {
    update_crc32(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
}

/// Streaming form: feeds `bytes` into a running raw register value.
///
/// Start from `0xFFFF_FFFF`, feed chunks in order, and xor the result with
/// `0xFFFF_FFFF` at the end; `crc32` is exactly that for one chunk. The
/// transport uses this to checksum a chunked payload without buffering it
/// twice.
pub fn update_crc32(state: u32, bytes: &[u8]) -> u32 {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    let (state, bytes) = clmul::fold(state, bytes);
    update_crc32_table(state, bytes)
}

/// [`update_crc32`] on the slice-by-16 tables alone: the path of hosts
/// without carry-less multiply and of every tail, and the reference the
/// folding path is tested (and benchmarked) against.
#[doc(hidden)]
pub fn update_crc32_table(state: u32, bytes: &[u8]) -> u32 {
    let mut crc = state;
    let mut blocks = bytes.chunks_exact(BLOCK);
    for block in &mut blocks {
        let mut x = [0u8; BLOCK];
        x.copy_from_slice(block);
        // The register only overlaps the block's first four bytes.
        let x = (u128::from_le_bytes(x) ^ u128::from(crc)).to_le_bytes();
        crc = TABLES
            .iter()
            .rev()
            .zip(x)
            .fold(0, |acc, (table, b)| acc ^ table[usize::from(b)]);
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time table loop `update_crc32` first was — the
    /// reference the sliced tables are tested against, as they in turn are
    /// the reference for the folding path.
    fn bytewise_update(state: u32, bytes: &[u8]) -> u32 {
        let mut crc = state;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        crc
    }

    /// Register states a call can start from: fresh, mid-stream, and the
    /// one whose xor into the first bytes is a no-op.
    const SEEDS: [u32; 3] = [0xFFFF_FFFF, 0x1234_5678, 0];

    fn pseudo_random(len: usize) -> Vec<u8> {
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (s >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        // Through the dispatching entry point, whatever it selects here.
        // The canonical check value of CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        // Longer than one table step, so the sliced step is pinned to a
        // published value too, not only to the reference loop.
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn sliced_matches_bytewise_at_every_length_and_offset() {
        let backing = pseudo_random(16 + 257);
        for start in 0..16 {
            for len in 0..=257 {
                let bytes = &backing[start..start + len];
                assert_eq!(
                    update_crc32_table(0xFFFF_FFFF, bytes),
                    bytewise_update(0xFFFF_FFFF, bytes),
                    "start {start}, len {len}"
                );
            }
        }
    }

    /// The differential that holds the two production paths together: on a
    /// host that folds, `update_crc32` is the folding path for every input
    /// of a block or more. 0..=320 covers zero to five blocks with every
    /// tail length, 16 start offsets every alignment of the vector loads.
    #[test]
    fn dispatch_matches_the_tables_at_every_length_offset_and_seed() {
        let backing = pseudo_random(16 + 320);
        for seed in SEEDS {
            for start in 0..16 {
                for len in 0..=320 {
                    let bytes = &backing[start..start + len];
                    let reference = update_crc32_table(seed, bytes);
                    assert_eq!(
                        update_crc32(seed, bytes),
                        reference,
                        "seed {seed:#x}, start {start}, len {len}"
                    );
                    // And from an allocation of exactly `len` bytes, where a
                    // vector load past the last whole block is a heap
                    // overflow for the sanitizer job to see.
                    let exact = bytes.to_vec();
                    assert_eq!(update_crc32(seed, &exact), reference);
                }
            }
        }
    }

    #[test]
    fn sliced_matches_bytewise_on_a_large_buffer() {
        // Miri interprets every table lookup; 1 MiB there is minutes.
        let data = pseudo_random(if cfg!(miri) { 8 << 10 } else { 1 << 20 });
        for seed in SEEDS {
            let reference = bytewise_update(seed, &data);
            assert_eq!(update_crc32_table(seed, &data), reference);
            assert_eq!(update_crc32(seed, &data), reference);
        }
    }

    #[test]
    fn streaming_matches_one_shot() {
        // 300 bytes: every table lane, every tail length and — for the
        // folding path — every split of four blocks and a tail between the
        // two calls is, for some cut, what the register is handed across.
        let data = pseudo_random(300);
        let whole = bytewise_update(0xFFFF_FFFF, &data);
        for cut in 0..=data.len() {
            let (head, tail) = data.split_at(cut);
            let state = update_crc32(update_crc32(0xFFFF_FFFF, head), tail);
            assert_eq!(state, whole, "cut {cut}");
            let state = update_crc32_table(update_crc32_table(0xFFFF_FFFF, head), tail);
            assert_eq!(state, whole, "table, cut {cut}");
        }
        let mut state = 0xFFFF_FFFF;
        for chunk in data.chunks(17) {
            state = update_crc32(state, chunk);
        }
        assert_eq!(state ^ 0xFFFF_FFFF, crc32(&data));
        assert_eq!(state, whole);
    }

    /// Which path the differential tests above exercised on this host.
    #[test]
    fn the_folding_path_is_selected_only_where_it_can_run() {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        {
            let folds = clmul::available();
            // An input under one block is left whole for the tables.
            let short = pseudo_random(63);
            assert_eq!(clmul::fold(7, &short), (7, &short[..]));
            let long = pseudo_random(64 + 5);
            let (state, tail) = clmul::fold(7, &long);
            if folds {
                assert_eq!(state, update_crc32_table(7, &long[..64]));
                assert_eq!(tail, &long[64..]);
            } else {
                assert_eq!((state, tail), (7, &long[..]));
            }
        }
        // Miri and other architectures compile the tables alone: there is
        // no second path for `update_crc32` to take.
        #[cfg(not(all(target_arch = "x86_64", not(miri))))]
        assert_eq!(
            update_crc32(7, &pseudo_random(256)),
            update_crc32_table(7, &pseudo_random(256))
        );
    }

    #[test]
    fn detects_single_bit_flips() {
        // One flip at each of the first 48 positions of a 64-byte block:
        // each position is served by one table lane (and one half of one
        // folding lane), and a wrong constant in one of them would miss
        // exactly one residue class.
        let data = pseudo_random(64);
        let reference = crc32(&data);
        for at in 0..48 {
            for bit in [0x01u8, 0x80] {
                let mut corrupt = data.clone();
                corrupt[at] ^= bit;
                assert_ne!(crc32(&corrupt), reference, "flip at {at} undetected");
            }
        }
        let data: Vec<u8> = (0..256u32).map(|i| i as u8).collect();
        let reference = crc32(&data);
        for at in [0usize, 1, 100, 255] {
            let mut corrupt = data.clone();
            corrupt[at] ^= 0x01;
            assert_ne!(crc32(&corrupt), reference, "flip at {at} undetected");
        }
    }
}
