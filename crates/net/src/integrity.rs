//! The payload integrity rule: what a receiver must check before it may
//! call a chunked transfer complete.
//!
//! A TRANSMIT header declares the word stream (`word_bytes` from its
//! metadata, `payload_crc` from its item section's words CRC) and how many
//! CHUNK frames carry it on this connection; the rule is that those frames
//! arrive in sequence in whole words, never carry more than was declared,
//! end exactly at the declared size, and reassemble to the declared CRC-32
//! (judged by [`recoil_core::check_words_crc`], as a container's words are)
//! — and that when a transfer continues on another node (RESUME at the word
//! offset already held), the new node's header declares the same stream, or
//! the two are not spliced.
//!
//! [`PayloadCheck`] is that rule and nothing else: no socket, no clock, no
//! decoder. CHUNK sequence numbers and lengths go in before a body is read,
//! the bodies where they landed after, and TRANSMIT headers; the resume
//! offset comes out. [`crate::FetchSession`] owns one for the life of a
//! transfer, across every connection it uses, so every fetch — buffered,
//! streaming, or failed over — passes the same check.

use crate::proto::TransmitHeader;
use recoil_core::{check_words_crc, update_crc32, RecoilError};

/// Bytes of the sequence number in front of every CHUNK body.
pub(crate) const CHUNK_SEQ_BYTES: usize = 4;

/// Running state of the integrity rule for one transfer.
#[derive(Debug)]
pub(crate) struct PayloadCheck {
    word_bytes: u64,
    payload_crc: u32,
    /// Bitstream bytes accepted so far, over every connection.
    received: u64,
    crc_state: u32,
    /// CHUNK frames the current connection's header announced / delivered.
    chunk_count: u32,
    next_seq: u32,
}

impl PayloadCheck {
    /// Starts the rule from a transfer's first header. A stream that
    /// arrives in zero chunks is verified here, on the spot.
    pub(crate) fn begin(header: &TransmitHeader) -> Result<Self, RecoilError> {
        let check = Self {
            word_bytes: header.word_bytes,
            payload_crc: header.payload_crc,
            received: 0,
            crc_state: 0xFFFF_FFFF,
            chunk_count: header.chunk_count,
            next_seq: 0,
        };
        check.verify_if_drained()?;
        Ok(check)
    }

    /// Continues the transfer under another node's header, whose chunks
    /// cover the words past [`PayloadCheck::words_received`] and
    /// which must declare the stream the first one did: a node that
    /// disagrees serves different content, and would splice two streams.
    pub(crate) fn resume(&mut self, header: &TransmitHeader) -> Result<(), RecoilError> {
        if header.word_bytes != self.word_bytes || header.payload_crc != self.payload_crc {
            return Err(RecoilError::net(
                "resumed node serves different content (stream size or CRC disagrees \
                 with the original header); refusing to splice streams",
            ));
        }
        self.chunk_count = header.chunk_count;
        self.next_seq = 0;
        self.verify_if_drained()
    }

    /// Judges a CHUNK on its sequence number and body length, before the
    /// body is read, and returns its words. Out of sequence, mid-word (every
    /// CHUNK is whole words) and over the declared size are refused.
    pub(crate) fn admit(&self, seq: u32, body_len: usize) -> Result<usize, RecoilError> {
        if self.next_seq >= self.chunk_count || seq != self.next_seq {
            return Err(RecoilError::net(format!(
                "chunk sequence mismatch: expected {} of {}, got {seq}",
                self.next_seq, self.chunk_count
            )));
        }
        if !body_len.is_multiple_of(2) {
            return Err(RecoilError::net(format!(
                "chunk body of {body_len} bytes ends mid-word"
            )));
        }
        if self.received + body_len as u64 > self.word_bytes {
            return Err(RecoilError::net("chunked payload overruns declared size"));
        }
        Ok(body_len / 2)
    }

    /// Takes the body [`PayloadCheck::admit`] just judged, where it landed;
    /// the header's last frame must close the stream at the declared size
    /// and CRC. A refusal leaves the state untouched.
    pub(crate) fn commit(&mut self, body: &[u8]) -> Result<(), RecoilError> {
        let accepted = Self {
            received: self.received + body.len() as u64,
            crc_state: update_crc32(self.crc_state, body),
            next_seq: self.next_seq + 1,
            ..*self
        };
        accepted.verify_if_drained()?;
        *self = accepted;
        Ok(())
    }

    /// The longest CHUNK payload the rule could still accept: the sequence
    /// prefix plus every declared byte not yet received. A receiver checks
    /// a frame *header* against this before it makes room for the payload,
    /// so a node cannot make it reserve more than the stream it announced.
    pub(crate) fn max_frame_len(&self) -> usize {
        usize::try_from(self.word_bytes - self.received)
            .unwrap_or(usize::MAX)
            .saturating_add(CHUNK_SEQ_BYTES)
    }

    /// Once the current header's chunks are in, the stream must be whole.
    fn verify_if_drained(&self) -> Result<(), RecoilError> {
        if self.next_seq < self.chunk_count {
            return Ok(());
        }
        if self.received != self.word_bytes {
            return Err(RecoilError::net(format!(
                "chunked payload short: {} of {} bytes",
                self.received, self.word_bytes
            )));
        }
        check_words_crc(self.crc_state ^ 0xFFFF_FFFF, self.payload_crc)
    }

    /// CHUNK frames the current connection still owes. Zero means complete
    /// **and verified**: the call that takes it to zero returns the
    /// verification error instead.
    pub(crate) fn remaining_chunks(&self) -> u32 {
        self.chunk_count - self.next_seq
    }

    /// Complete words held so far: the RESUME offset.
    pub(crate) fn words_received(&self) -> u64 {
        self.received / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::PayloadWriter;
    use recoil_core::codec::Codec;
    use recoil_core::{crc32, metadata_to_bytes, model_block, write_item_section};
    use recoil_rans::WordStream;

    /// A real encode cut the way the server cuts it: the TRANSMIT header
    /// and the CHUNK bodies of an 8-segment, 1 KiB-chunk transmission.
    struct Cut {
        header: TransmitHeader,
        bodies: Vec<Vec<u8>>,
        words: WordStream,
    }

    fn cut() -> Cut {
        let data: Vec<u8> = (0..40_000u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 23) as u8)
            .collect();
        let enc = Codec::builder()
            .max_segments(8)
            .build()
            .unwrap()
            .encode(&data)
            .unwrap();
        let stream = &enc.container.stream;
        let bodies: Vec<Vec<u8>> = stream
            .words
            .as_bytes()
            .chunks(1024)
            .map(<[u8]>::to_vec)
            .collect();
        assert!(bodies.len() >= 8, "{} chunks", bodies.len());
        // The TRANSMIT payload as the server writes it, parsed as the
        // client parses it.
        let mut w = PayloadWriter::new();
        w.u64(enc.container.metadata.num_segments());
        w.u8(0);
        w.u64(0);
        write_item_section(
            &mut w.0,
            &metadata_to_bytes(&enc.container.metadata),
            &model_block(enc.model.table(), &stream.final_states),
            crc32(&bodies.concat()),
        );
        w.u32(bodies.len() as u32);
        let (header, ..) = TransmitHeader::decode(&w.0).unwrap();
        assert_eq!(header.word_bytes, stream.words.len() as u64 * 2);
        Cut {
            header,
            bodies,
            words: stream.words.clone(),
        }
    }

    fn frame(seq: u32, body: &[u8]) -> Vec<u8> {
        let mut payload = seq.to_le_bytes().to_vec();
        payload.extend_from_slice(body);
        payload
    }

    /// The rule over one CHUNK frame payload (`[seq: u32 LE][body]`), in a
    /// receiver's order: admitted on its prefix and length, then committed
    /// on its body.
    fn accept(check: &mut PayloadCheck, payload: &[u8]) -> Result<(), RecoilError> {
        let (seq, body) = payload
            .split_first_chunk::<CHUNK_SEQ_BYTES>()
            .expect("a test frame holds its prefix");
        check.admit(u32::from_le_bytes(*seq), body.len())?;
        check.commit(body)
    }

    /// Feeds `bodies` as frames 0.. of the current response, landing each
    /// in `words` as a receiver does: admitted, read into the store, and
    /// committed where it landed.
    fn feed(
        check: &mut PayloadCheck,
        bodies: &[Vec<u8>],
        words: &mut WordStream,
    ) -> Result<(), RecoilError> {
        for (seq, body) in bodies.iter().enumerate() {
            let n = check.admit(seq as u32, body.len())?;
            words.land(n, |dst| {
                dst.copy_from_slice(body);
                check.commit(dst)
            })?;
        }
        Ok(())
    }

    /// Offers a frame the rule must refuse and returns the refusal, having
    /// checked that the refusal changed nothing.
    fn refused(check: &mut PayloadCheck, payload: &[u8]) -> String {
        let before = format!("{check:?}");
        let err = accept(check, payload).unwrap_err();
        assert_eq!(
            format!("{check:?}"),
            before,
            "a rejection touched the state"
        );
        detail(err)
    }

    /// A typed refusal's detail: `Net` for the transfer's shape, `Wire` for
    /// the words' checksum, whose verdict is a container's too.
    fn detail(err: RecoilError) -> String {
        match err {
            RecoilError::Net { detail } => detail,
            RecoilError::Wire { detail } if detail.contains("checksum") => detail,
            other => panic!("expected a typed Net or checksum error, got {other:?}"),
        }
    }

    #[test]
    fn resume_at_every_chunk_boundary_reaches_the_same_verified_words() {
        let cut = cut();
        for at in 0..=cut.bodies.len() {
            let mut words = WordStream::new();
            let mut check = PayloadCheck::begin(&cut.header).unwrap();
            // The first "node" dies after `at` chunks…
            feed(&mut check, &cut.bodies[..at], &mut words).unwrap();
            if at < cut.bodies.len() {
                assert!(check.remaining_chunks() > 0, "cut {at}: not complete yet");
                // …and the second serves the rest, renumbered from zero.
                assert_eq!(check.words_received(), words.len() as u64);
                let resumed = TransmitHeader {
                    chunk_count: (cut.bodies.len() - at) as u32,
                    ..cut.header.clone()
                };
                check.resume(&resumed).unwrap();
                feed(&mut check, &cut.bodies[at..], &mut words).unwrap();
            }
            assert_eq!(check.remaining_chunks(), 0, "cut {at}");
            assert_eq!(words, cut.words, "cut {at}");
        }
    }

    #[test]
    fn a_resume_with_nothing_left_still_verifies() {
        let cut = cut();
        let mut check = PayloadCheck::begin(&cut.header).unwrap();
        let last = cut.bodies.len() - 1;
        feed(&mut check, &cut.bodies[..last], &mut WordStream::new()).unwrap();
        // A node that claims there is nothing left to send is caught short.
        let empty = TransmitHeader {
            chunk_count: 0,
            ..cut.header.clone()
        };
        assert!(detail(check.resume(&empty).unwrap_err()).contains("short"));
        // And an empty stream is verified by `begin` itself.
        let none = TransmitHeader {
            word_bytes: 0,
            payload_crc: 0,
            chunk_count: 0,
            ..cut.header.clone()
        };
        assert_eq!(PayloadCheck::begin(&none).unwrap().remaining_chunks(), 0);
        let bad_crc = TransmitHeader {
            payload_crc: 1,
            ..none
        };
        assert!(detail(PayloadCheck::begin(&bad_crc).unwrap_err()).contains("checksum"));
    }

    #[test]
    fn sequence_and_size_violations_are_typed_errors() {
        let cut = cut();
        let n = cut.bodies.len();
        let mut words = WordStream::new();

        // A skipped sequence number — and the state is untouched by it.
        let mut check = PayloadCheck::begin(&cut.header).unwrap();
        assert!(refused(&mut check, &frame(1, &cut.bodies[1])).contains("sequence"));
        feed(&mut check, &cut.bodies, &mut words).unwrap();
        assert_eq!(words, cut.words);
        // Nothing is accepted past the announced plan.
        assert!(refused(&mut check, &frame(n as u32, &[])).contains("sequence"));

        // One word over: the last body grew.
        let mut check = PayloadCheck::begin(&cut.header).unwrap();
        feed(&mut check, &cut.bodies[..n - 1], &mut words).unwrap();
        let mut over = cut.bodies[n - 1].clone();
        over.extend_from_slice(&[0, 0]);
        assert!(refused(&mut check, &frame(n as u32 - 1, &over)).contains("overruns"));

        // One word short: the last body shrank.
        let mut check = PayloadCheck::begin(&cut.header).unwrap();
        feed(&mut check, &cut.bodies[..n - 1], &mut words).unwrap();
        let short = &cut.bodies[n - 1][..cut.bodies[n - 1].len() - 2];
        assert!(refused(&mut check, &frame(n as u32 - 1, short)).contains("short"));
        // Refused, not consumed: the honest last body still closes the stream.
        accept(&mut check, &frame(n as u32 - 1, &cut.bodies[n - 1])).unwrap();
        assert_eq!(check.remaining_chunks(), 0);
    }

    #[test]
    fn a_flipped_bit_in_the_first_or_last_body_fails_the_checksum() {
        let cut = cut();
        let n = cut.bodies.len();
        for (which, byte) in [(0, 0), (n - 1, cut.bodies[n - 1].len() - 1)] {
            let mut bodies = cut.bodies.clone();
            bodies[which][byte] ^= 0x40;
            let mut check = PayloadCheck::begin(&cut.header).unwrap();
            let mut words = WordStream::new();
            // Every frame but the last is accepted; the last one closes
            // the stream and carries the verdict.
            feed(&mut check, &bodies[..n - 1], &mut words).unwrap();
            let (held, last) = (words.len(), &bodies[n - 1]);
            let owed = check.admit(n as u32 - 1, last.len()).unwrap();
            let verdict = words.land(owed, |dst| {
                dst.copy_from_slice(last);
                check.commit(dst)
            });
            assert!(
                detail(verdict.unwrap_err()).contains("checksum"),
                "body {which}"
            );
            assert_eq!(words.len(), held, "the refused body left the store");
            assert_eq!(check.words_received(), held as u64);
            assert!(
                check.remaining_chunks() > 0,
                "an unverified stream is not done"
            );
            let verdict = refused(&mut check, &frame(n as u32 - 1, &bodies[n - 1]));
            assert!(verdict.contains("checksum"), "body {which}");
        }
    }

    #[test]
    fn a_body_that_ends_mid_word_is_refused() {
        let cut = cut();
        let payload = cut.bodies.concat();
        let header = TransmitHeader {
            chunk_count: 3,
            ..cut.header.clone()
        };
        // The same bytes cut mid-word: refused on the length alone, first
        // or later in the stream, and the state is untouched.
        let mut check = PayloadCheck::begin(&header).unwrap();
        assert!(refused(&mut check, &frame(0, &payload[..101])).contains("mid-word"));
        accept(&mut check, &frame(0, &payload[..100])).unwrap();
        assert!(refused(&mut check, &frame(1, &payload[100..157])).contains("mid-word"));
        assert_eq!(check.words_received(), 50);
        // Cut at whole words, the rest reassembles and verifies.
        let mut words = cut.words.clone();
        words.truncate(50);
        let rest = [payload[100..158].to_vec(), payload[158..].to_vec()];
        let resumed = TransmitHeader {
            chunk_count: 2,
            ..header
        };
        check.resume(&resumed).unwrap();
        feed(&mut check, &rest, &mut words).unwrap();
        assert_eq!(check.remaining_chunks(), 0);
        assert_eq!(words, cut.words);
    }

    #[test]
    fn a_second_header_that_disagrees_is_refused() {
        let cut = cut();
        let mut check = PayloadCheck::begin(&cut.header).unwrap();
        accept(&mut check, &frame(0, &cut.bodies[0])).unwrap();
        let held = check.words_received();
        for evil in [
            TransmitHeader {
                word_bytes: cut.header.word_bytes + 2,
                ..cut.header.clone()
            },
            TransmitHeader {
                payload_crc: cut.header.payload_crc ^ 1,
                ..cut.header.clone()
            },
        ] {
            assert!(detail(check.resume(&evil).unwrap_err()).contains("refusing to splice"));
        }
        // The refusal cost nothing: the transfer continues on a node that
        // agrees.
        let agreeing = TransmitHeader {
            chunk_count: cut.header.chunk_count - 1,
            ..cut.header.clone()
        };
        check.resume(&agreeing).unwrap();
        let mut words = WordStream::new();
        feed(&mut check, &cut.bodies[1..], &mut words).unwrap();
        assert_eq!(held + words.len() as u64, cut.words.len() as u64);
    }

    /// The receive path end to end without a socket: CHUNK frames read off
    /// one byte stream, each body judged on its prefix and length, read
    /// straight into one word store and committed where it landed. A short
    /// frame follows a 64 KiB one; the stream is then cut mid-body, and the
    /// torn body leaves the store at the words received.
    #[test]
    fn bodies_land_in_the_word_store_off_one_byte_stream() {
        use crate::frame::{
            read_exact_patient, read_header, write_frame, FrameType, HeaderOutcome,
        };
        let bodies: Vec<Vec<u8>> = [(64 << 10) - 4, 10 - 4, (64 << 10) - 4]
            .iter()
            .enumerate()
            .map(|(k, &len)| (0..len).map(|i| (i * 7 + k * 31 + 1) as u8).collect())
            .collect();
        let header = TransmitHeader {
            word_bytes: bodies.iter().map(|b| b.len() as u64).sum(),
            payload_crc: crc32(&bodies.concat()),
            chunk_count: 3,
            ..cut().header
        };
        let mut wire = Vec::new();
        for (seq, body) in bodies.iter().enumerate() {
            write_frame(&mut wire, FrameType::Chunk, &frame(seq as u32, body)).unwrap();
        }

        for torn in [false, true] {
            let mut check = PayloadCheck::begin(&header).unwrap();
            let mut reader = &wire[..wire.len() - if torn { 1000 } else { 0 }];
            let mut words = WordStream::new();
            for body in &bodies {
                let HeaderOutcome::Header(FrameType::Chunk, len) =
                    read_header(&mut reader).unwrap()
                else {
                    panic!("expected a CHUNK header");
                };
                assert!(
                    len <= check.max_frame_len(),
                    "an honest frame fits what is owed"
                );
                let mut seq = [0; CHUNK_SEQ_BYTES];
                read_exact_patient(&mut reader, &mut seq).unwrap();
                let n = check
                    .admit(u32::from_le_bytes(seq), len - CHUNK_SEQ_BYTES)
                    .unwrap();
                let got = words.land(n, |dst| {
                    read_exact_patient(&mut reader, dst)?;
                    check.commit(dst)
                });
                if got.is_err() {
                    assert!(torn, "{got:?}");
                    break;
                }
                let landed = &words.as_bytes()[2 * (words.len() - n)..];
                assert_eq!(landed, *body, "the store holds the body's words");
            }
            assert_eq!(words.len() as u64, check.words_received(), "torn={torn}");
            if torn {
                assert_eq!(check.remaining_chunks(), 1);
            } else {
                assert_eq!(check.remaining_chunks(), 0, "verified");
                assert!(matches!(
                    read_header(&mut reader).unwrap(),
                    HeaderOutcome::Eof
                ));
            }
        }
    }

    #[test]
    fn the_frame_bound_is_what_the_transfer_still_owes() {
        let cut = cut();
        let mut check = PayloadCheck::begin(&cut.header).unwrap();
        let total = cut.header.word_bytes as usize;
        assert_eq!(check.max_frame_len(), CHUNK_SEQ_BYTES + total);
        accept(&mut check, &frame(0, &cut.bodies[0])).unwrap();
        assert_eq!(
            check.max_frame_len(),
            CHUNK_SEQ_BYTES + total - cut.bodies[0].len()
        );
        // A resume renumbers the chunks but owes the same bytes.
        let resumed = TransmitHeader {
            chunk_count: cut.header.chunk_count - 1,
            ..cut.header.clone()
        };
        check.resume(&resumed).unwrap();
        assert_eq!(
            check.max_frame_len(),
            CHUNK_SEQ_BYTES + total - cut.bodies[0].len()
        );
    }
}
