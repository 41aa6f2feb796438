//! A complete self-describing file format: bitstream + final states +
//! quantized model + Recoil metadata in one byte buffer.
//!
//! The paper transmits the model out of band (it is identical across all
//! variations, so the size tables exclude it); real deployments need it on
//! disk. Layout (little-endian):
//!
//! ```text
//! magic "RCLF" | u8 version | u8 n | u16 ways | u32 alphabet
//! u64 num_symbols | u64 num_words
//! alphabet × u16   quantized frequencies (sum 2^n; n = 16 stores f - 1
//!                  never occurs because f <= 2^n - 1 always fits)
//! ways × u32       final states
//! num_words × u16  bitstream words
//! u32 metadata_len | metadata bytes (§4.3 format)
//! u32 crc32        little-endian CRC-32 of every preceding byte
//! ```
//!
//! The version is 2. The parser checks the CRC-32 footer before
//! interpreting any field, so corrupt files fail as [`RecoilError::Wire`]
//! instead of decoding garbage. Any other version is rejected, the
//! footerless version 1 included: a sender cannot choose to skip the check.
//!
//! This is also what a server stores and what PUBLISH carries: the
//! container as its publisher encoded it.

use crate::bounds::{checked_cdf_table, symbols_fit};
use crate::crc::crc32;
use crate::error::RecoilError;
use crate::metadata::RecoilMetadata;
use crate::wire::{metadata_from_bytes, metadata_to_bytes};
use crate::RecoilContainer;
use recoil_models::{CdfTable, StaticModelProvider};
use recoil_rans::{append_words_le, extend_words_from_le, EncodedStream};

const MAGIC: &[u8; 4] = b"RCLF";
/// The format: CRC-32 footer after the metadata section.
const VERSION: u8 = 2;

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], RecoilError> {
        let s = self
            .at
            .checked_add(n)
            .and_then(|end| self.bytes.get(self.at..end))
            .ok_or_else(|| RecoilError::wire("truncated file"))?;
        self.at += n;
        Ok(s)
    }
    fn array<const N: usize>(&mut self) -> Result<[u8; N], RecoilError> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }
    fn u8(&mut self) -> Result<u8, RecoilError> {
        let [b] = self.array()?;
        Ok(b)
    }
    fn u16(&mut self) -> Result<u16, RecoilError> {
        Ok(u16::from_le_bytes(self.array()?))
    }
    fn u32(&mut self) -> Result<u32, RecoilError> {
        Ok(u32::from_le_bytes(self.array()?))
    }
    fn u64(&mut self) -> Result<u64, RecoilError> {
        Ok(u64::from_le_bytes(self.array()?))
    }
}

/// Serializes a container plus its static model into one byte buffer.
pub fn container_to_bytes(container: &RecoilContainer, model: &CdfTable) -> Vec<u8> {
    let stream = &container.stream;
    // xtask: allow(wire-capacity): encode path — sized from the in-memory stream, not the wire.
    let mut out = Vec::with_capacity(stream.words.len() * 2 + 1024);
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    debug_assert!(model.quant_bits() <= 16 && stream.ways <= u32::from(u16::MAX));
    // xtask: allow(wire-cast): encode path — the quantizer caps n at 16.
    out.push(model.quant_bits() as u8);
    // xtask: allow(wire-cast): encode path — lane counts are configuration, far below u16::MAX.
    put_u16(&mut out, stream.ways as u16);
    // xtask: allow(wire-cast): encode path — CdfTable caps the alphabet at 2^16 symbols.
    put_u32(&mut out, model.alphabet_size() as u32);
    put_u64(&mut out, stream.num_symbols);
    put_u64(&mut out, stream.words.len() as u64);
    for s in 0..model.alphabet_size() {
        // f <= 2^n - 1 <= 65535 always fits a u16 (quantizer invariant).
        // xtask: allow(wire-cast): see the quantizer invariant above.
        put_u16(&mut out, model.freq(s) as u16);
    }
    for &st in &stream.final_states {
        put_u32(&mut out, st);
    }
    append_words_le(&mut out, &stream.words);
    let meta = metadata_to_bytes(&container.metadata);
    debug_assert!(u32::try_from(meta.len()).is_ok());
    // xtask: allow(wire-cast): encode path — metadata is built in-process and is tiny.
    put_u32(&mut out, meta.len() as u32);
    out.extend_from_slice(&meta);
    let footer = crc32(&out);
    put_u32(&mut out, footer);
    out
}

/// Parses a file produced by [`container_to_bytes`], rebuilding the decode
/// tables.
pub fn container_from_bytes(
    bytes: &[u8],
) -> Result<(RecoilContainer, StaticModelProvider), RecoilError> {
    let mut c = Cursor { bytes, at: 0 };
    if c.take(4)? != MAGIC {
        return Err(RecoilError::wire("bad magic"));
    }
    if c.u8()? != VERSION {
        return Err(RecoilError::wire("unsupported version"));
    }
    // Verify the integrity footer before interpreting any field.
    if bytes.len() < 5 + 4 {
        return Err(RecoilError::wire("truncated file"));
    }
    let (bytes, footer) = bytes.split_at(bytes.len() - 4);
    let footer: [u8; 4] = footer
        .try_into()
        .map_err(|_| RecoilError::wire("truncated file"))?;
    if crc32(bytes) != u32::from_le_bytes(footer) {
        return Err(RecoilError::wire("file checksum mismatch"));
    }
    let mut c = Cursor { bytes, at: 5 };
    let n = u32::from(c.u8()?);
    let ways = u32::from(c.u16()?);
    let alphabet = usize::try_from(c.u32()?)
        .map_err(|_| RecoilError::wire("alphabet size exceeds the address space"))?;
    if alphabet == 0 || alphabet > 1 << 16 {
        return Err(RecoilError::wire(format!("bad alphabet size {alphabet}")));
    }
    let num_symbols = c.u64()?;
    let num_words = usize::try_from(c.u64()?)
        .map_err(|_| RecoilError::wire("word count exceeds the address space"))?;

    // Reject an impossible symbol count before anything is sized from it.
    if !symbols_fit(n, ways, num_symbols, num_words as u64) {
        return Err(RecoilError::wire(format!(
            "symbol count {num_symbols} impossible for {num_words} words over {ways} lanes"
        )));
    }

    // xtask: allow(wire-capacity): bounded to 2^16 entries (256 KiB) by the check above.
    let mut freqs = Vec::with_capacity(alphabet);
    for _ in 0..alphabet {
        freqs.push(u32::from(c.u16()?));
    }
    let table = checked_cdf_table(freqs, n).map_err(RecoilError::wire)?;

    let lanes = usize::try_from(ways)
        .map_err(|_| RecoilError::wire("lane count exceeds the address space"))?;
    // xtask: allow(wire-capacity): `ways` was read as a u16 above, so this caps at 256 KiB.
    let mut final_states = Vec::with_capacity(lanes);
    for _ in 0..ways {
        final_states.push(c.u32()?);
    }
    let word_bytes = c.take(
        num_words
            .checked_mul(2)
            .ok_or_else(|| RecoilError::wire("word count overflows"))?,
    )?;
    let mut words = Vec::new();
    let dangling = extend_words_from_le(&mut words, None, word_bytes);
    debug_assert!(dangling.is_none(), "an even byte count was taken");

    let meta_len = usize::try_from(c.u32()?)
        .map_err(|_| RecoilError::wire("metadata length exceeds the address space"))?;
    let metadata: RecoilMetadata = metadata_from_bytes(c.take(meta_len)?)?;

    let stream = EncodedStream {
        words,
        final_states,
        num_symbols,
        ways,
    };
    stream
        .validate()
        .map_err(|e| RecoilError::wire(format!("parsed stream is inconsistent: {e}")))?;
    metadata
        .validate_against(&stream)
        .map_err(|e| RecoilError::wire(format!("parsed metadata is inconsistent: {e}")))?;
    Ok((
        RecoilContainer { stream, metadata },
        StaticModelProvider::new(table),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{DecodeBackend, DecodeModel, DecodeRequest, ScalarBackend};
    use crate::codec::Codec;
    use recoil_models::ModelProvider;

    fn sample(len: usize) -> Vec<u8> {
        (0..len as u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 23) as u8)
            .collect()
    }

    /// 32-way container planned for `segments` decoders under `model`.
    fn encode(data: &[u8], model: &StaticModelProvider, segments: u64) -> RecoilContainer {
        Codec::builder()
            .quant_bits(model.quant_bits())
            .max_segments(segments)
            .build()
            .unwrap()
            .encode_with_provider(data, model)
            .unwrap()
    }

    /// Recomputes the v2 CRC footer after a test deliberately corrupts the
    /// body — so the structural check under test fires, not the checksum.
    fn patch_crc(bytes: &mut [u8]) {
        let at = bytes.len() - 4;
        let footer = crc32(&bytes[..at]);
        bytes[at..].copy_from_slice(&footer.to_le_bytes());
    }

    #[test]
    fn file_round_trip_and_decode() {
        let data = sample(120_000);
        let model = StaticModelProvider::new(CdfTable::of_bytes(&data, 11));
        let container = encode(&data, &model, 24);
        let bytes = container_to_bytes(&container, model.table());
        let (back, model2) = container_from_bytes(&bytes).unwrap();
        assert_eq!(back.stream, container.stream);
        assert_eq!(back.metadata, container.metadata);
        let mut decoded = vec![0u8; data.len()];
        let model2 = DecodeModel::Static(&model2);
        let req = DecodeRequest::whole(&back.stream, &back.metadata, model2, &mut decoded);
        ScalarBackend.decode(req.unwrap()).unwrap();
        assert_eq!(decoded, data);
    }

    #[test]
    fn n16_frequencies_fit_u16() {
        let data = sample(50_000);
        let model = StaticModelProvider::new(CdfTable::of_bytes(&data, 16));
        let container = encode(&data, &model, 8);
        let bytes = container_to_bytes(&container, model.table());
        let (_, model2) = container_from_bytes(&bytes).unwrap();
        assert_eq!(model2.table(), model.table());
    }

    #[test]
    fn hostile_symbol_count_rejected_without_allocation() {
        let data = sample(10_000);
        let model = StaticModelProvider::new(CdfTable::of_bytes(&data, 11));
        let container = encode(&data, &model, 4);
        let mut bytes = container_to_bytes(&container, model.table());
        // num_symbols lives at offset 12..20 of the header.
        bytes[12..20].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        patch_crc(&mut bytes);
        let err = match container_from_bytes(&bytes) {
            Err(e) => e,
            Ok(_) => panic!("absurd symbol count must be rejected"),
        };
        assert!(err.to_string().contains("impossible"), "{err}");
    }

    #[test]
    fn truncations_error_cleanly() {
        let data = sample(5_000);
        let model = StaticModelProvider::new(CdfTable::of_bytes(&data, 10));
        let container = encode(&data, &model, 4);
        let bytes = container_to_bytes(&container, model.table());
        for cut in [0, 3, 7, 20, bytes.len() / 2, bytes.len() - 1] {
            assert!(container_from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn corrupt_magic_and_model_rejected() {
        let data = sample(5_000);
        let model = StaticModelProvider::new(CdfTable::of_bytes(&data, 10));
        let container = encode(&data, &model, 4);
        let mut bytes = container_to_bytes(&container, model.table());
        bytes[0] ^= 1;
        assert!(container_from_bytes(&bytes).is_err());
        bytes[0] ^= 1;
        // Break a model frequency without fixing the CRC: the checksum
        // rejects the file before the model is even read.
        bytes[28] ^= 0xFF;
        let err = container_from_bytes(&bytes).expect_err("corruption undetected");
        assert!(err.to_string().contains("checksum"), "{err}");
        // With a freshly patched CRC the structural sum check fires instead.
        patch_crc(&mut bytes);
        let err = container_from_bytes(&bytes).expect_err("bad model accepted");
        assert!(err.to_string().contains("sum"), "{err}");
    }

    #[test]
    fn version1_files_are_rejected() {
        let data = sample(20_000);
        let model = StaticModelProvider::new(CdfTable::of_bytes(&data, 11));
        let container = encode(&data, &model, 8);
        let mut bytes = container_to_bytes(&container, model.table());
        // A v1 file was the same layout minus the footer, tagged version 1.
        // Neither it nor the current bytes retagged v1 (with a valid CRC)
        // may be read: v1 would let the sender skip the checksum.
        bytes[4] = 1;
        let footerless = bytes[..bytes.len() - 4].to_vec();
        patch_crc(&mut bytes);
        for v1 in [&bytes[..], &footerless[..]] {
            let err = match container_from_bytes(v1) {
                Err(e) => e,
                Ok(_) => panic!("v1 file accepted"),
            };
            assert!(matches!(err, RecoilError::Wire { .. }), "{err:?}");
            assert!(err.to_string().contains("version"), "{err}");
        }
    }
}
