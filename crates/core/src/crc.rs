//! CRC-32 (IEEE 802.3) — the integrity footer of every versioned wire
//! format in the workspace.
//!
//! The metadata wire format, the container file format, and the network
//! transport all append a little-endian CRC-32 of the preceding bytes, so
//! a flipped bit anywhere in a frame is rejected as [`Wire`] corruption
//! before any of it is structurally interpreted — never decoded into
//! garbage symbols.
//!
//! # Table layout
//!
//! The checksum runs on the transport's receive thread beside a decoder
//! that costs about a nanosecond per byte, so it is sliced: sixteen
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
//! Register values are identical to the byte loop's for every input and
//! every way of cutting it into [`update_crc32`] calls.
//!
//! One implementation in safe Rust, on purpose: table indices are bytes
//! into 256-entry arrays and blocks come from `chunks_exact`, so there is
//! no bounds check left to remove with `unsafe`, and no CPU-feature fork
//! (a carry-less-multiply path) to keep bit-identical and test twice while
//! the checksum is a small share of a fetch. The crate stays
//! `#![forbid(unsafe_code)]`.
//!
//! [`Wire`]: crate::RecoilError::Wire

/// The reflected IEEE polynomial, the same one Ethernet, gzip and PNG use.
const POLY: u32 = 0xEDB8_8320;

/// Input bytes folded per step of [`update_crc32`].
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

    /// The byte-at-a-time table loop `update_crc32` used to be — kept as
    /// the reference the sliced version is tested against.
    fn bytewise_update(state: u32, bytes: &[u8]) -> u32 {
        let mut crc = state;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        crc
    }

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
        // The canonical check value of CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        // Longer than one block, so the sliced step is pinned to a
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
                    update_crc32(0xFFFF_FFFF, bytes),
                    bytewise_update(0xFFFF_FFFF, bytes),
                    "start {start}, len {len}"
                );
            }
        }
    }

    #[test]
    fn sliced_matches_bytewise_on_a_large_buffer() {
        // Miri interprets every table lookup; 1 MiB there is minutes.
        let data = pseudo_random(if cfg!(miri) { 8 << 10 } else { 1 << 20 });
        assert_eq!(
            update_crc32(0xFFFF_FFFF, &data),
            bytewise_update(0xFFFF_FFFF, &data)
        );
        // A non-initial register goes through the same fold.
        assert_eq!(
            update_crc32(0x1234_5678, &data),
            bytewise_update(0x1234_5678, &data)
        );
    }

    #[test]
    fn streaming_matches_one_shot() {
        // 300 bytes: every table lane and every tail length is, for some
        // cut, the last thing consumed before the register is handed over.
        let data = pseudo_random(300);
        let whole = bytewise_update(0xFFFF_FFFF, &data);
        for cut in 0..=data.len() {
            let (head, tail) = data.split_at(cut);
            let state = update_crc32(update_crc32(0xFFFF_FFFF, head), tail);
            assert_eq!(state, whole, "cut {cut}");
        }
        let mut state = 0xFFFF_FFFF;
        for chunk in data.chunks(17) {
            state = update_crc32(state, chunk);
        }
        assert_eq!(state ^ 0xFFFF_FFFF, crc32(&data));
    }

    #[test]
    fn detects_single_bit_flips() {
        // One flip at each of the first 48 positions of a 64-byte block:
        // each position is served by one table lane, and a wrong table in
        // one lane would miss exactly one residue class mod 16.
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
