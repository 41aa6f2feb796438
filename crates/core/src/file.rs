//! An item's one byte layout — an `.rcl` file, a PUBLISH's container and,
//! without its words, a TRANSMIT — and the one parser that checks it.
//! Everything a decoder needs to plan its parallel work comes before the
//! first word (Said et al., PAPERS.md). Layout (little-endian):
//!
//! ```text
//! magic "RCLF" | u8 version (3)
//! item section:  u32 metadata_len | metadata (§4.3, own CRC-32 footer; the
//!                  one place n, W, N and the word count B are written)
//!                model block: u32 alphabet | alphabet × u16 frequencies
//!                  (each < 2^n) | W × u32 final states | u32 CRC-32 of them
//!                u32 CRC-32 of the words' little-endian bytes
//! B × u16 words (the stream's wire image, `WordStream::as_bytes`)
//! ```
//!
//! [`item_from_bytes`] checks a section before reading it: CRCs first, then
//! the capacity bound (`symbols_fit`) before anything is sized, then the
//! quantizer's invariants (`checked_cdf_table`), then the final states
//! ([`EncodedStream::validate`]); [`check_words_crc`] judges the words, of a
//! file here and of a fetch in the client. Any other version is rejected.

use crate::bounds::{checked_cdf_table, symbols_fit};
use crate::codec::Encoded;
use crate::crc::crc32;
use crate::error::RecoilError;
use crate::metadata::RecoilMetadata;
use crate::wire::{metadata_from_bytes, metadata_to_bytes};
use crate::RecoilContainer;
use recoil_models::{CdfTable, StaticModelProvider};
use recoil_rans::{EncodedStream, WordStream};

const MAGIC: &[u8; 4] = b"RCLF";
/// The format: one item section, then the words.
const VERSION: u8 = 3;

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, at: 0 }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], RecoilError> {
        let s = self
            .at
            .checked_add(n)
            .and_then(|end| self.bytes.get(self.at..end))
            .ok_or_else(|| RecoilError::wire("truncated item"))?;
        self.at += n;
        Ok(s)
    }
    fn array<const N: usize>(&mut self) -> Result<[u8; N], RecoilError> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }
    fn u16(&mut self) -> Result<u16, RecoilError> {
        Ok(u16::from_le_bytes(self.array()?))
    }
    fn u32(&mut self) -> Result<u32, RecoilError> {
        Ok(u32::from_le_bytes(self.array()?))
    }
}

/// An item section, parsed and checked: everything a decoder needs before
/// the first word.
#[derive(Debug)]
pub struct ItemSection {
    /// The metadata: n, W, N and the word count, and the splits.
    pub metadata: RecoilMetadata,
    /// Bytes the metadata took: the §4.3 size transfer sizes count.
    pub metadata_len: usize,
    /// The model, rebuilt from the block's frequencies at the metadata's n.
    pub model: StaticModelProvider,
    /// Per-lane final states.
    pub final_states: Vec<u32>,
    /// CRC-32 of the words' little-endian bytes.
    pub words_crc: u32,
}

/// The model block for `model` and a stream's `final_states`: what a stored
/// item keeps as bytes and writes into every item section it serves.
pub fn model_block(model: &CdfTable, final_states: &[u32]) -> Vec<u8> {
    let mut out = Vec::new();
    // xtask: allow(wire-cast): encode path — CdfTable caps the alphabet at 2^16 symbols.
    put_u32(&mut out, model.alphabet_size() as u32);
    for &f in model.freqs() {
        // xtask: allow(wire-cast): encode path — every frequency is below 2^n <= 2^16 (quantizer invariant).
        out.extend_from_slice(&(f as u16).to_le_bytes());
    }
    for &state in final_states {
        put_u32(&mut out, state);
    }
    let crc = crc32(&out);
    put_u32(&mut out, crc);
    out
}

/// Appends an item section to `out`, from bytes: a server writes one per
/// request from the tier's metadata and what its item holds.
pub fn write_item_section(out: &mut Vec<u8>, metadata: &[u8], model_block: &[u8], words_crc: u32) {
    debug_assert!(u32::try_from(metadata.len()).is_ok());
    // xtask: allow(wire-cast): encode path — metadata is built in-process and far below 4 GiB.
    put_u32(out, metadata.len() as u32);
    out.extend_from_slice(metadata);
    out.extend_from_slice(model_block);
    put_u32(out, words_crc);
}

/// The one verdict on received words: the CRC-32 of their bytes against the
/// CRC their item section carried.
pub fn check_words_crc(computed: u32, carried: u32) -> Result<(), RecoilError> {
    if computed != carried {
        return Err(RecoilError::wire("words checksum mismatch"));
    }
    Ok(())
}

/// Serializes a container plus its static model into one byte buffer.
pub fn container_to_bytes(container: &RecoilContainer, model: &CdfTable) -> Vec<u8> {
    let stream = &container.stream;
    let mut item = Vec::new();
    write_item_section(
        &mut item,
        &metadata_to_bytes(&container.metadata),
        &model_block(model, &stream.final_states),
        crc32(stream.words.as_bytes()),
    );
    container_of_item(&item, &stream.words)
}

/// A container from an item section and the words it describes (a fetch's
/// make the container of its tier).
pub fn container_of_item(item: &[u8], words: &WordStream) -> Vec<u8> {
    [MAGIC.as_slice(), &[VERSION], item, words.as_bytes()].concat()
}

impl Encoded {
    /// This encode's container ([`container_to_bytes`]): an `.rcl` file's
    /// bytes and what a PUBLISH carries.
    pub fn container_bytes(&self) -> Vec<u8> {
        container_to_bytes(&self.container, self.model.table())
    }
}

/// Parses and checks the item section at the front of `bytes` (a
/// container's past its magic and version, a TRANSMIT's past its serving
/// fields) and returns it with the number of bytes it took.
pub fn item_from_bytes(bytes: &[u8]) -> Result<(ItemSection, usize), RecoilError> {
    let mut c = Cursor::new(bytes);
    let metadata_len = usize::try_from(c.u32()?)
        .map_err(|_| RecoilError::wire("metadata length exceeds the address space"))?;
    let metadata = metadata_from_bytes(c.take(metadata_len)?)?;
    let (n, ways) = (metadata.quant_bits, metadata.ways);
    let (symbols, words) = (metadata.num_symbols, metadata.num_words);

    // The alphabet is read ahead of the block's CRC only to find its end.
    let block_at = c.at;
    let alphabet = usize::try_from(c.u32()?)
        .map_err(|_| RecoilError::wire("alphabet size exceeds the address space"))?;
    if alphabet == 0 || alphabet > 1 << 16 {
        return Err(RecoilError::wire(format!("bad alphabet size {alphabet}")));
    }
    let lanes = usize::try_from(ways)
        .map_err(|_| RecoilError::wire("lane count exceeds the address space"))?;
    // At most 2^17 + 2^18 bytes: the metadata caps W at u16::MAX.
    c.take(2 * alphabet + 4 * lanes)?;
    let block = bytes.get(block_at..c.at).unwrap_or_default();
    if crc32(block) != c.u32()? {
        return Err(RecoilError::wire("model block checksum mismatch"));
    }

    // Reject an impossible symbol count before anything is sized from it.
    if !symbols_fit(n, ways, symbols, words) {
        return Err(RecoilError::wire(format!(
            "symbol count {symbols} impossible for {words} words over {ways} lanes"
        )));
    }
    let mut b = Cursor::new(block);
    b.take(4)?;
    let freqs = (0..alphabet)
        .map(|_| b.u16().map(u32::from))
        .collect::<Result<_, _>>()?;
    let table = checked_cdf_table(freqs, n).map_err(RecoilError::wire)?;
    let head = EncodedStream {
        words: WordStream::new(),
        final_states: (0..lanes).map(|_| b.u32()).collect::<Result<_, _>>()?,
        num_symbols: symbols,
        ways,
    };
    head.validate()
        .map_err(|e| RecoilError::wire(format!("parsed stream is inconsistent: {e}")))?;
    let words_crc = c.u32()?;
    let item = ItemSection {
        metadata,
        metadata_len,
        model: StaticModelProvider::new(table),
        final_states: head.final_states,
        words_crc,
    };
    Ok((item, c.at))
}

/// [`container_from_bytes`] plus the words CRC the container carried (and
/// its words were checked against), for a store that keeps it.
pub fn read_container(
    bytes: &[u8],
) -> Result<(RecoilContainer, StaticModelProvider, u32), RecoilError> {
    let mut c = Cursor::new(bytes);
    if c.take(MAGIC.len())? != MAGIC {
        return Err(RecoilError::wire("bad magic"));
    }
    if c.take(1)? != [VERSION] {
        return Err(RecoilError::wire("unsupported version"));
    }
    let body = bytes.get(c.at..).unwrap_or_default();
    let (item, len) = item_from_bytes(body)?;
    let metadata = item.metadata;
    let word_bytes = body.get(len..).unwrap_or_default();
    if word_bytes.len() as u64 != metadata.num_words.saturating_mul(2) {
        return Err(RecoilError::wire("word bytes disagree with the word count"));
    }
    check_words_crc(crc32(word_bytes), item.words_crc)?;
    let mut words = WordStream::new();
    words
        .extend_from_le_bytes(word_bytes)
        .map_err(|odd| RecoilError::wire(odd.to_string()))?;
    let stream = EncodedStream {
        words,
        final_states: item.final_states,
        num_symbols: metadata.num_symbols,
        ways: metadata.ways,
    };
    Ok((
        RecoilContainer { stream, metadata },
        item.model,
        item.words_crc,
    ))
}

/// Parses a file produced by [`container_to_bytes`], rebuilding the decode
/// tables.
pub fn container_from_bytes(
    bytes: &[u8],
) -> Result<(RecoilContainer, StaticModelProvider), RecoilError> {
    read_container(bytes).map(|(container, model, _)| (container, model))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{DecodeBackend, DecodeModel, DecodeRequest, ScalarBackend};
    use crate::codec::Codec;
    use recoil_models::ModelProvider;
    use std::ops::Range;

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

    /// Where a container's two CRC'd header sections lie: the metadata
    /// (footer included) and the model block (its CRC excluded).
    fn sections(bytes: &[u8]) -> (Range<usize>, Range<usize>) {
        let meta_len = u32::from_le_bytes(bytes[5..9].try_into().unwrap()) as usize;
        let meta = 9..9 + meta_len;
        let alphabet = u32::from_le_bytes(bytes[meta.end..meta.end + 4].try_into().unwrap());
        let ways = u16::from_le_bytes(bytes[meta.start + 5..meta.start + 7].try_into().unwrap());
        let block = meta.end..meta.end + 4 + 2 * alphabet as usize + 4 * ways as usize;
        (meta, block)
    }

    /// Recomputes the metadata footer and the model block's CRC after a
    /// test deliberately corrupts either — so the structural check under
    /// test fires, not the checksum.
    fn patch_crc(bytes: &mut [u8]) {
        let (meta, block) = sections(bytes);
        let footer = crc32(&bytes[meta.start..meta.end - 4]);
        bytes[meta.end - 4..meta.end].copy_from_slice(&footer.to_le_bytes());
        let crc = crc32(&bytes[block.clone()]);
        bytes[block.end..block.end + 4].copy_from_slice(&crc.to_le_bytes());
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
        // One segment: no split is placed relative to N, so the capacity
        // bound is the check that meets the absurd count.
        let container = encode(&data, &model, 1);
        let mut bytes = container_to_bytes(&container, model.table());
        // num_symbols is bytes 8..16 of the metadata header.
        let (meta, _) = sections(&bytes);
        let at = meta.start + 8;
        bytes[at..at + 8].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
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
        // rejects the block before the model is even read.
        let (_, block) = sections(&bytes);
        bytes[block.start + 4] ^= 0xFF;
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
        // A v1 file was the v2 layout minus the footer, tagged version 1.
        // Neither it, nor the current bytes retagged v1 or v2, may be read:
        // v1 would let the sender skip the checksum, and no older layout is
        // read at all.
        let mut v2 = bytes.clone();
        v2[4] = 2;
        bytes[4] = 1;
        let footerless = bytes[..bytes.len() - 4].to_vec();
        for old in [&bytes[..], &footerless[..], &v2[..]] {
            let err = match container_from_bytes(old) {
                Err(e) => e,
                Ok(_) => panic!("old-version file accepted"),
            };
            assert!(matches!(err, RecoilError::Wire { .. }), "{err:?}");
            assert!(err.to_string().contains("version"), "{err}");
        }
    }
}
