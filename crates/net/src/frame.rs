//! The length-prefixed binary framing layer.
//!
//! Every frame on a connection is `[type: u8][len: u32 LE][payload]`. The
//! type byte must be a known [`FrameType`] and `len` must not exceed
//! [`MAX_FRAME_LEN`] — both are checked *before* the payload is read, so a
//! garbage or hostile header can never drive an allocation.
//!
//! Reads are timeout-aware: a timeout before the first header byte is an
//! [`ReadOutcome::Idle`] tick (the caller checks its shutdown flag and
//! retries), while a timeout *mid-frame* is retried a bounded number of
//! times and then reported as a stalled peer.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
#![deny(clippy::as_conversions, clippy::disallowed_methods)]

use recoil_core::RecoilError;
use std::io::{ErrorKind, Read, Write};

/// Protocol version spoken by this build: the whole of a [`crate::Hello`],
/// and the version of every frame, so peers speak it exactly or not at all.
/// Version 2: a PUBLISH carries an encoded container, not raw data and
/// encoder parameters. Version 3: a HELLO carries no capability bits and a
/// TELEMETRY_REPLY no version byte of its own. Version 4: the container is
/// version 3 (one item section, then the words), and a TRANSMIT is its
/// serving fields around the served tier's item section. Version 5: the
/// STATS/STATS_REPLY pair (0x07/0x08) is gone; a node's counters cross the
/// wire in its TELEMETRY_REPLY only.
pub const PROTOCOL_VERSION: u16 = 5;

/// Magic opening every [`crate::Hello`] payload: `"RNET"`.
pub const HELLO_MAGIC: u32 = 0x524E_4554;

/// Hard ceiling on one frame's payload (64 MiB): bigger payloads must be
/// chunked. Checked before allocating.
pub const MAX_FRAME_LEN: u32 = 1 << 26;

/// Bytes of the `[type: u8][len: u32 LE]` header in front of every payload.
pub(crate) const FRAME_HEADER_LEN: usize = 5;

/// How many consecutive read timeouts mid-frame count as a stalled peer.
const MID_FRAME_TIMEOUT_RETRIES: u32 = 120;

/// The frame vocabulary. One byte on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameType {
    /// The protocol version; first frame in each direction.
    Hello = 0x01,
    /// Client → server: store an encoded container under a name.
    Publish = 0x02,
    /// Server → client: the publish succeeded.
    PublishOk = 0x03,
    /// Client → server: content name + the client's parallel capacity.
    Request = 0x04,
    /// Server → client: the serving fields and the served tier's item
    /// section; the bitstream words follow as `Chunk` frames.
    Transmit = 0x05,
    /// One slice of a chunked bitstream payload.
    Chunk = 0x06,
    /// Client → server: ask for the full telemetry snapshot.
    Telemetry = 0x09,
    /// Server → client: the telemetry snapshot — level, named counters,
    /// gauges, histograms, and (at trace level) the drained event ring.
    TelemetryReply = 0x0A,
    /// Client → server: like `Request`, but resuming a transfer that died
    /// mid-stream — carries the word offset already received, so the
    /// server streams only the words from that offset on.
    Resume = 0x0B,
    /// Either direction: a typed error (maps onto [`RecoilError`]).
    Error = 0x0E,
}

impl FrameType {
    /// Parses a wire byte, rejecting unknown types.
    pub fn from_u8(b: u8) -> Result<Self, RecoilError> {
        Ok(match b {
            0x01 => Self::Hello,
            0x02 => Self::Publish,
            0x03 => Self::PublishOk,
            0x04 => Self::Request,
            0x05 => Self::Transmit,
            0x06 => Self::Chunk,
            0x09 => Self::Telemetry,
            0x0A => Self::TelemetryReply,
            0x0B => Self::Resume,
            0x0E => Self::Error,
            other => {
                return Err(RecoilError::net(format!(
                    "unknown frame type 0x{other:02X}"
                )))
            }
        })
    }

    /// The wire byte for this frame type.
    #[expect(
        clippy::as_conversions,
        reason = "repr(u8) discriminant read of a fieldless enum, not a wire-derived value"
    )]
    pub fn byte(self) -> u8 {
        self as u8
    }
}

/// What one blocking read attempt produced.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete frame.
    Frame(FrameType, Vec<u8>),
    /// The peer closed the connection cleanly between frames.
    Eof,
    /// The read timed out before any header byte arrived — the connection
    /// is idle, not broken. Callers poll their shutdown flag and retry.
    Idle,
}

/// What [`read_header`] found where a frame should start.
#[derive(Debug)]
pub(crate) enum HeaderOutcome {
    /// A valid header; the payload length is still on the wire.
    Header(FrameType, usize),
    /// See [`ReadOutcome::Eof`].
    Eof,
    /// See [`ReadOutcome::Idle`].
    Idle,
}

/// True for the error kinds a socket read timeout produces.
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// Maps an I/O failure into the workspace error type.
pub fn io_err(context: &str, e: std::io::Error) -> RecoilError {
    RecoilError::net(format!("{context}: {e}"))
}

/// Fills `buf`, retrying bounded-many read timeouts (the frame has started,
/// so the bytes are owed; a peer that stalls forever is an error).
pub(crate) fn read_exact_patient(r: &mut impl Read, buf: &mut [u8]) -> Result<(), RecoilError> {
    let mut filled = 0;
    let mut stalls = 0;
    while let Some(rest) = buf.get_mut(filled..).filter(|rest| !rest.is_empty()) {
        match r.read(rest) {
            Ok(0) => return Err(RecoilError::net("connection closed mid-frame")),
            Ok(n) => {
                filled += n;
                stalls = 0;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) => {
                stalls += 1;
                if stalls > MID_FRAME_TIMEOUT_RETRIES {
                    return Err(RecoilError::net("peer stalled mid-frame"));
                }
            }
            Err(e) => return Err(io_err("frame read", e)),
        }
    }
    Ok(())
}

/// The frame-header rule, said once for the blocking reader below and the
/// reactor's buffer parser: the type byte must be a known [`FrameType`] and
/// the length must not exceed [`MAX_FRAME_LEN`]. `header` is however much of
/// the header has arrived; each field is judged as soon as it is complete
/// (so a garbage type byte fails before a length is waited for), and
/// `Ok(None)` means the rule holds so far but more header bytes are needed.
/// On `Ok(Some((ty, len)))` the caller may allocate `len` payload bytes.
pub(crate) fn parse_header(header: &[u8]) -> Result<Option<(FrameType, usize)>, RecoilError> {
    let Some(&ty) = header.first() else {
        return Ok(None);
    };
    let ty = FrameType::from_u8(ty)?;
    let Some(&[l0, l1, l2, l3]) = header.get(1..FRAME_HEADER_LEN) else {
        return Ok(None);
    };
    let len = u32::from_le_bytes([l0, l1, l2, l3]);
    if len > MAX_FRAME_LEN {
        return Err(RecoilError::net(format!(
            "oversized frame: {len} bytes exceeds the {MAX_FRAME_LEN}-byte cap"
        )));
    }
    let len = usize::try_from(len)
        .map_err(|_| RecoilError::net("frame length exceeds the address space"))?;
    Ok(Some((ty, len)))
}

/// Reads one frame header, distinguishing idle timeouts and clean EOF from
/// data. All five bytes are asked for at once — a frame that has fully
/// arrived costs one `read` — and whatever part came back is judged by
/// `parse_header` before the rest is waited for: a garbage type byte fails
/// on its own, an oversized length before anyone allocates for it.
pub(crate) fn read_header(r: &mut impl Read) -> Result<HeaderOutcome, RecoilError> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    let arrived = loop {
        match r.read(&mut header) {
            Ok(0) => return Ok(HeaderOutcome::Eof),
            Ok(n) => break n.min(FRAME_HEADER_LEN),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) => return Ok(HeaderOutcome::Idle),
            Err(e) => return Err(io_err("frame header read", e)),
        }
    };
    let (have, owed) = header.split_at_mut(arrived);
    parse_header(have)?;
    read_exact_patient(r, owed)?;
    let (ty, len) =
        parse_header(&header)?.ok_or_else(|| RecoilError::net("incomplete frame header"))?;
    Ok(HeaderOutcome::Header(ty, len))
}

/// Reads a `len`-byte payload into a buffer of its own. `len` must come
/// from a header `parse_header` (and the caller's own bound, if it has a
/// tighter one) accepted.
pub(crate) fn read_payload(r: &mut impl Read, len: usize) -> Result<Vec<u8>, RecoilError> {
    let mut payload = vec![0; len];
    read_exact_patient(r, &mut payload)?;
    Ok(payload)
}

/// Reads one frame into a buffer of its own: [`read_header`], then
/// `read_payload`.
pub fn read_frame(r: &mut impl Read) -> Result<ReadOutcome, RecoilError> {
    Ok(match read_header(r)? {
        HeaderOutcome::Header(ty, len) => ReadOutcome::Frame(ty, read_payload(r, len)?),
        HeaderOutcome::Eof => ReadOutcome::Eof,
        HeaderOutcome::Idle => ReadOutcome::Idle,
    })
}

/// Starts a frame directly inside an in-memory write buffer: appends the
/// type byte and a length placeholder, returning the payload's start
/// offset. The caller appends the payload bytes and then seals the frame
/// with [`end_frame`]. This is how the event-driven server stages
/// responses — straight into the connection's pending-write buffer, no
/// intermediate payload allocation.
pub fn begin_frame(buf: &mut Vec<u8>, ty: FrameType) -> usize {
    buf.push(ty.byte());
    buf.extend_from_slice(&[0u8; 4]);
    buf.len()
}

/// Seals a frame opened with [`begin_frame`] by patching the length field.
/// Fails (leaving the buffer for the caller to roll back) if the payload
/// outgrew [`MAX_FRAME_LEN`] — the peer would kill the connection on its
/// own length check anyway.
pub fn end_frame(buf: &mut [u8], payload_start: usize) -> Result<(), RecoilError> {
    let len = buf
        .len()
        .checked_sub(payload_start)
        .ok_or_else(|| RecoilError::net("frame payload start beyond the buffer"))?;
    let len = u32::try_from(len)
        .ok()
        .filter(|&l| l <= MAX_FRAME_LEN)
        .ok_or_else(|| {
            RecoilError::net(format!(
                "refusing to send an oversized frame: {len} bytes exceeds the {MAX_FRAME_LEN}-byte cap"
            ))
        })?;
    payload_start
        .checked_sub(4)
        .and_then(|at| buf.get_mut(at..payload_start))
        .ok_or_else(|| RecoilError::net("frame length slot missing before the payload"))?
        .copy_from_slice(&len.to_le_bytes());
    Ok(())
}

/// Appends one complete frame to an in-memory write buffer.
pub fn append_frame(buf: &mut Vec<u8>, ty: FrameType, payload: &[u8]) -> Result<(), RecoilError> {
    let at = begin_frame(buf, ty);
    buf.extend_from_slice(payload);
    end_frame(buf, at)
}

/// Writes one frame (header + payload) and flushes nothing — TCP buffering
/// plus `TCP_NODELAY` on both ends keeps latency flat.
///
/// Oversized payloads are rejected here, in release builds too: the peer
/// would kill the connection on the length check anyway, so failing before
/// any bytes move gives the caller a useful error instead of a hangup.
pub fn write_frame(w: &mut impl Write, ty: FrameType, payload: &[u8]) -> Result<(), RecoilError> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&l| l <= MAX_FRAME_LEN)
        .ok_or_else(|| {
            RecoilError::net(format!(
                "refusing to send an oversized frame: {} bytes exceeds the {MAX_FRAME_LEN}-byte cap",
                payload.len()
            ))
        })?;
    let [l0, l1, l2, l3] = len.to_le_bytes();
    let header = [ty.byte(), l0, l1, l2, l3];
    w.write_all(&header).map_err(|e| io_err("frame write", e))?;
    w.write_all(payload).map_err(|e| io_err("frame write", e))
}

// ---------------------------------------------------------------------------
// Payload (de)serialization.
// ---------------------------------------------------------------------------

/// Little-endian appenders for payload construction.
pub struct PayloadWriter(pub Vec<u8>);

impl PayloadWriter {
    pub fn new() -> Self {
        Self(Vec::new())
    }
    /// Encode-side pre-allocation; `cap` is always a locally computed
    /// size, never a wire-derived length.
    #[expect(
        clippy::disallowed_methods,
        reason = "encode path — the capacity comes from in-memory data the caller owns"
    )]
    pub fn preallocated(cap: usize) -> Self {
        Self(Vec::with_capacity(cap))
    }
    pub fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    pub fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    pub fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    pub fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    /// Length-prefixed (u32) byte blob. Blobs over `u32::MAX` cannot occur:
    /// every payload is rejected against [`MAX_FRAME_LEN`] (far below
    /// `u32::MAX`) before any byte reaches the wire.
    pub fn bytes(&mut self, v: &[u8]) {
        debug_assert!(
            u32::try_from(v.len()).is_ok(),
            "blob length must fit the u32 prefix"
        );
        #[expect(
            clippy::as_conversions,
            reason = "encode path — oversized payloads are rejected by the MAX_FRAME_LEN check before hitting the wire"
        )]
        self.u32(v.len() as u32);
        self.0.extend_from_slice(v);
    }
    /// Length-prefixed (u16) UTF-8 string. Callers validate the length at
    /// the API boundary (`NetClient` rejects names over 65535 bytes); a
    /// longer name here would desync the length prefix.
    pub fn name(&mut self, v: &str) {
        debug_assert!(
            v.len() <= usize::from(u16::MAX),
            "name length must be pre-validated"
        );
        #[expect(
            clippy::as_conversions,
            reason = "encode path — the debug_assert above pins the API contract that names fit u16"
        )]
        self.u16(v.len() as u16);
        self.0.extend_from_slice(v.as_bytes());
    }
}

impl Default for PayloadWriter {
    fn default() -> Self {
        Self::new()
    }
}

/// Checked little-endian cursor over a received payload.
pub struct PayloadReader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> PayloadReader<'a> {
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], RecoilError> {
        let end = self
            .at
            .checked_add(n)
            .ok_or_else(|| RecoilError::net("truncated frame payload"))?;
        let s = self
            .bytes
            .get(self.at..end)
            .ok_or_else(|| RecoilError::net("truncated frame payload"))?;
        self.at = end;
        Ok(s)
    }

    /// Takes exactly `N` bytes as a fixed array, for `from_le_bytes`.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], RecoilError> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }

    pub fn u8(&mut self) -> Result<u8, RecoilError> {
        let [b] = self.array()?;
        Ok(b)
    }
    pub fn u16(&mut self) -> Result<u16, RecoilError> {
        Ok(u16::from_le_bytes(self.array()?))
    }
    pub fn u32(&mut self) -> Result<u32, RecoilError> {
        Ok(u32::from_le_bytes(self.array()?))
    }
    pub fn u64(&mut self) -> Result<u64, RecoilError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Length-prefixed (u32) byte blob.
    pub fn bytes(&mut self) -> Result<&'a [u8], RecoilError> {
        let len = usize::try_from(self.u32()?)
            .map_err(|_| RecoilError::net("blob length exceeds the address space"))?;
        self.take(len)
    }

    /// Everything not read yet, for a parser of its own to take from.
    pub fn rest(&mut self) -> &'a [u8] {
        let rest = self.bytes.get(self.at..).unwrap_or_default();
        self.at = self.bytes.len();
        rest
    }

    /// Length-prefixed (u16) UTF-8 string.
    pub fn name(&mut self) -> Result<String, RecoilError> {
        self.name_str().map(str::to_owned)
    }

    /// Length-prefixed (u16) UTF-8 string, borrowed from the payload — the
    /// zero-copy twin of [`PayloadReader::name`] for hot paths that only
    /// need to look the name up.
    pub fn name_str(&mut self) -> Result<&'a str, RecoilError> {
        let len = usize::from(self.u16()?);
        let raw = self.take(len)?;
        std::str::from_utf8(raw).map_err(|_| RecoilError::net("frame name is not valid UTF-8"))
    }

    /// Fails unless the whole payload was consumed — trailing garbage is a
    /// protocol violation, not padding.
    pub fn finish(self) -> Result<(), RecoilError> {
        if self.at == self.bytes.len() {
            Ok(())
        } else {
            Err(RecoilError::net(format!(
                "{} unexpected trailing bytes in frame payload",
                self.bytes.len() - self.at
            )))
        }
    }
}

// ---------------------------------------------------------------------------
// Typed error frames.
// ---------------------------------------------------------------------------

/// Encodes a [`RecoilError`] as an `Error` frame payload: `u16 code` plus a
/// length-prefixed detail string. `NotFound` / `AlreadyPublished` carry the
/// content name so the receiving side reconstructs the exact variant.
pub fn encode_error(e: &RecoilError) -> Vec<u8> {
    let (code, detail): (u16, String) = match e {
        RecoilError::NotFound { name } => (1, name.clone()),
        RecoilError::AlreadyPublished { name } => (2, name.clone()),
        RecoilError::InvalidConfig { .. } => (3, e.to_string()),
        RecoilError::BackendUnavailable { .. } => (4, e.to_string()),
        RecoilError::Decode(_) => (5, e.to_string()),
        RecoilError::Wire { detail } => (6, detail.clone()),
        RecoilError::Net { detail } => (7, detail.clone()),
        RecoilError::UnsupportedSymbol { .. } => (8, e.to_string()),
        RecoilError::Busy { retry_after_ms } => (9, retry_after_ms.to_string()),
    };
    let mut w = PayloadWriter::preallocated(2 + 4 + detail.len());
    w.u16(code);
    w.bytes(detail.as_bytes());
    w.0
}

/// Decodes an `Error` frame payload back into a [`RecoilError`].
///
/// Variants with structured fields that cannot round-trip over a string
/// (`InvalidConfig`'s static field name, `Decode`'s `RansError`) come back
/// as [`RecoilError::Net`] carrying the remote display text.
pub fn decode_error(payload: &[u8]) -> RecoilError {
    let mut r = PayloadReader::new(payload);
    let parsed = (|| -> Result<RecoilError, RecoilError> {
        let code = r.u16()?;
        let detail = String::from_utf8_lossy(r.bytes()?).into_owned();
        Ok(match code {
            1 => RecoilError::NotFound { name: detail },
            2 => RecoilError::AlreadyPublished { name: detail },
            6 => RecoilError::Wire { detail },
            7 => RecoilError::Net { detail },
            // The detail is the decimal retry hint; a peer sending garbage
            // degrades to "retry immediately" rather than a parse failure.
            9 => RecoilError::Busy {
                retry_after_ms: detail.parse().unwrap_or(0),
            },
            _ => RecoilError::net(format!("remote error: {detail}")),
        })
    })();
    parsed.unwrap_or_else(|_| RecoilError::net("malformed error frame"))
}

#[cfg(test)]
#[allow(clippy::as_conversions, reason = "test inputs are built in-process")]
mod tests {
    use super::*;
    use recoil_rans::RansError;

    #[test]
    fn frame_round_trips_through_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameType::Telemetry, b"").unwrap();
        write_frame(&mut buf, FrameType::Chunk, b"hello world").unwrap();
        let mut r = &buf[..];
        match read_frame(&mut r).unwrap() {
            ReadOutcome::Frame(FrameType::Telemetry, p) => assert!(p.is_empty()),
            other => panic!("{other:?}"),
        }
        match read_frame(&mut r).unwrap() {
            ReadOutcome::Frame(FrameType::Chunk, p) => assert_eq!(p, b"hello world"),
            other => panic!("{other:?}"),
        }
        assert!(matches!(read_frame(&mut r).unwrap(), ReadOutcome::Eof));
    }

    #[test]
    fn in_place_framing_matches_write_frame() {
        let mut via_writer = Vec::new();
        write_frame(&mut via_writer, FrameType::Chunk, b"payload bytes").unwrap();

        let mut via_buf = Vec::new();
        let at = begin_frame(&mut via_buf, FrameType::Chunk);
        via_buf.extend_from_slice(b"payload bytes");
        end_frame(&mut via_buf, at).unwrap();
        assert_eq!(via_buf, via_writer);

        let mut appended = Vec::new();
        append_frame(&mut appended, FrameType::Chunk, b"payload bytes").unwrap();
        assert_eq!(appended, via_writer);

        // Frames stack in one buffer.
        let at = begin_frame(&mut via_buf, FrameType::Telemetry);
        end_frame(&mut via_buf, at).unwrap();
        let mut r = &via_buf[..];
        assert!(matches!(
            read_frame(&mut r).unwrap(),
            ReadOutcome::Frame(FrameType::Chunk, p) if p == b"payload bytes"
        ));
        assert!(matches!(
            read_frame(&mut r).unwrap(),
            ReadOutcome::Frame(FrameType::Telemetry, p) if p.is_empty()
        ));
    }

    #[test]
    fn borrowed_names_match_owned_names() {
        let mut w = PayloadWriter::new();
        w.name("movie");
        let bytes = w.0;
        let mut r = PayloadReader::new(&bytes);
        assert_eq!(r.name_str().unwrap(), "movie");
        r.finish().unwrap();
        let mut r = PayloadReader::new(&bytes[..3]);
        assert!(r.name_str().is_err());
    }

    #[test]
    fn unknown_type_and_oversized_length_are_rejected() {
        // 0xAB was never a frame; 0x07 and 0x08 were STATS and STATS_REPLY.
        for ty in [0xAB, 0x07, 0x08] {
            let mut garbage: &[u8] = &[ty, 1, 0, 0, 0, 0];
            assert!(read_frame(&mut garbage)
                .unwrap_err()
                .to_string()
                .contains("unknown frame type"));
        }

        let mut huge = vec![FrameType::Publish as u8];
        huge.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        let mut r = &huge[..];
        assert!(read_frame(&mut r)
            .unwrap_err()
            .to_string()
            .contains("oversized frame"));
    }

    /// A scripted peer: hands out at most `step` bytes per `read`, counts
    /// the calls, and fails any read past the end of its script — a reader
    /// that is asked for bytes nobody owes is a bug in the caller.
    struct Scripted<'a> {
        bytes: &'a [u8],
        step: usize,
        reads: usize,
    }

    impl Read for Scripted<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            if self.bytes.is_empty() {
                return Err(std::io::Error::other("read past the script"));
            }
            let n = self.step.min(buf.len()).min(self.bytes.len());
            let (now, later) = self.bytes.split_at(n);
            buf[..n].copy_from_slice(now);
            self.bytes = later;
            Ok(n)
        }
    }

    #[test]
    fn a_frame_costs_two_reads_when_it_has_arrived_and_survives_a_trickle() {
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameType::Chunk, b"hello world").unwrap();
        // Everything there at once: one read for the header, one for the
        // payload.
        let mut whole = Scripted {
            bytes: &wire,
            step: usize::MAX,
            reads: 0,
        };
        assert!(matches!(
            read_frame(&mut whole).unwrap(),
            ReadOutcome::Frame(FrameType::Chunk, p) if p == b"hello world"
        ));
        assert_eq!(whole.reads, 2);
        // One byte per call: the same frame, a read per byte.
        let mut trickle = Scripted {
            bytes: &wire,
            step: 1,
            reads: 0,
        };
        assert!(matches!(
            read_frame(&mut trickle).unwrap(),
            ReadOutcome::Frame(FrameType::Chunk, p) if p == b"hello world"
        ));
        assert_eq!(trickle.reads, wire.len());
    }

    #[test]
    fn a_bad_header_fails_on_the_bytes_that_make_it_bad() {
        // A garbage type byte is judged alone: the script holds nothing
        // else, so waiting for a length would be a read past it.
        let mut garbage = Scripted {
            bytes: &[0xAB],
            step: 1,
            reads: 0,
        };
        let err = read_frame(&mut garbage).unwrap_err().to_string();
        assert!(err.contains("unknown frame type"), "{err}");
        assert_eq!(garbage.reads, 1);
        // The same byte arriving with a whole header behind it.
        let mut garbage = Scripted {
            bytes: &[0xAB, 1, 0, 0, 0, 0],
            step: usize::MAX,
            reads: 0,
        };
        let err = read_frame(&mut garbage).unwrap_err().to_string();
        assert!(err.contains("unknown frame type"), "{err}");

        // An oversized length fails on the header: no payload byte is asked
        // for, so nothing was allocated to put one in.
        let mut huge = vec![FrameType::Chunk.byte()];
        huge.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        for step in [1, usize::MAX] {
            let mut r = Scripted {
                bytes: &huge,
                step,
                reads: 0,
            };
            let err = read_frame(&mut r).unwrap_err().to_string();
            assert!(err.contains("oversized frame"), "{err}");
            assert_eq!(r.reads, if step == 1 { huge.len() } else { 1 });
        }
    }

    #[test]
    fn a_payload_is_exactly_the_frame() {
        let payload = read_payload(&mut &b"0123456789 and the next frame"[..], 10).unwrap();
        assert_eq!(payload, b"0123456789");
        assert_eq!(read_payload(&mut &[7u8; 300][..], 300).unwrap(), [7u8; 300]);
        assert!(read_payload(&mut &[][..], 0).unwrap().is_empty());
        // A payload that never fully arrives is the connection's failure.
        assert!(read_payload(&mut &[1u8, 2][..], 3).is_err());
    }

    #[test]
    fn truncated_frame_is_a_clean_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameType::Request, b"some payload").unwrap();
        for cut in 1..buf.len() {
            let mut r = &buf[..cut];
            assert!(
                read_frame(&mut r).is_err(),
                "cut {cut} should fail mid-frame"
            );
        }
    }

    #[test]
    fn payload_reader_checks_bounds_and_trailing_bytes() {
        let mut w = PayloadWriter::new();
        w.name("movie");
        w.u64(42);
        let bytes = w.0;
        let mut r = PayloadReader::new(&bytes);
        assert_eq!(r.name().unwrap(), "movie");
        assert_eq!(r.u64().unwrap(), 42);
        r.finish().unwrap();

        let mut r = PayloadReader::new(&bytes);
        assert_eq!(r.name().unwrap(), "movie");
        assert!(r.finish().is_err(), "trailing bytes must be rejected");

        let mut r = PayloadReader::new(&bytes[..3]);
        assert!(r.name().is_err(), "truncated name must be rejected");
    }

    #[test]
    fn error_frames_reconstruct_the_variants_that_can() {
        let nf = RecoilError::NotFound {
            name: "movie".into(),
        };
        assert_eq!(decode_error(&encode_error(&nf)), nf);
        let ap = RecoilError::AlreadyPublished { name: "x".into() };
        assert_eq!(decode_error(&encode_error(&ap)), ap);
        let wire = RecoilError::wire("metadata checksum mismatch");
        assert_eq!(decode_error(&encode_error(&wire)), wire);
        // Structured variants degrade to Net with the display text.
        let cfg = RecoilError::config("parallel_segments", "must be >= 1");
        match decode_error(&encode_error(&cfg)) {
            RecoilError::Net { detail } => assert!(detail.contains("parallel_segments")),
            other => panic!("{other:?}"),
        }
        let dec = RecoilError::Decode(RansError::BitstreamUnderflow { pos: 3 });
        match decode_error(&encode_error(&dec)) {
            RecoilError::Net { detail } => assert!(detail.contains("position 3")),
            other => panic!("{other:?}"),
        }
        let unsup = RecoilError::UnsupportedSymbol { pos: 42, sym: 200 };
        match decode_error(&encode_error(&unsup)) {
            RecoilError::Net { detail } => {
                assert!(detail.contains("200") && detail.contains("42"));
            }
            other => panic!("{other:?}"),
        }
        // Busy round-trips its retry hint exactly: clients schedule
        // backoff from it, so it must survive the wire.
        let busy = RecoilError::busy(125);
        assert_eq!(decode_error(&encode_error(&busy)), busy);
        // A hostile hint degrades to "retry immediately", not a parse error.
        let mut mangled = encode_error(&busy);
        let at = mangled.len() - 3;
        mangled[at..].copy_from_slice(b"abc");
        assert_eq!(
            decode_error(&mangled),
            RecoilError::Busy { retry_after_ms: 0 }
        );
    }
}
