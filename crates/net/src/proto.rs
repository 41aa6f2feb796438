//! Typed payloads for each frame in the protocol.
//!
//! Every message has exactly one encoder and one decoder over the
//! [`PayloadWriter`] / [`PayloadReader`] cursors, and production runs both,
//! on opposite ends of the connection (the crate docs' wire table names
//! each pair). `decode` consumes the whole payload — trailing bytes are
//! protocol violations. Messages a client sends carry their name (and a
//! PUBLISH its container) as borrowed views on the decode side: the server
//! looks a name up, or parses a published container, straight out of its
//! read buffer.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
#![deny(clippy::as_conversions, clippy::disallowed_methods)]

use crate::frame::{PayloadReader, PayloadWriter, HELLO_MAGIC, PROTOCOL_VERSION};
use recoil_core::{item_from_bytes, write_item_section, RecoilError, RecoilMetadata};
use recoil_models::StaticModelProvider;
use recoil_server::{ServerStats, StoredContent, Transmission};
use recoil_telemetry::{
    HistogramSnapshot, Stage, TelemetryLevel, TelemetrySnapshot, TraceEvent, BUCKETS,
};

/// The first frame in each direction: magic and [`PROTOCOL_VERSION`].
///
/// The initiator sends its version and the acceptor answers with its own.
/// Peers speak one version exactly, so the version is all there is to say:
/// what a peer can do follows from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hello {
    /// Protocol version the sender speaks.
    pub version: u16,
}

impl Hello {
    /// The hello this build sends.
    pub fn ours() -> Self {
        Self {
            version: PROTOCOL_VERSION,
        }
    }

    pub fn encode(&self) -> Vec<u8> {
        let mut w = PayloadWriter::preallocated(6);
        w.u32(HELLO_MAGIC);
        w.u16(self.version);
        w.0
    }

    /// The one place either end judges a peer's HELLO: the magic, then the
    /// version. Any version but ours is refused as unsupported whatever
    /// follows it, so an older peer's longer HELLO is told why.
    pub fn decode(payload: &[u8]) -> Result<Self, RecoilError> {
        let mut r = PayloadReader::new(payload);
        if r.u32()? != HELLO_MAGIC {
            return Err(RecoilError::net("bad hello magic"));
        }
        let version = r.u16()?;
        if version != PROTOCOL_VERSION {
            return Err(RecoilError::net(format!(
                "unsupported protocol version {version} (this end speaks {PROTOCOL_VERSION})"
            )));
        }
        r.finish()?;
        Ok(Self { version })
    }
}

/// Client → server: store `container` under `name`.
///
/// The container is an `.rcl` file's bytes (`recoil_core`'s `file.rs`
/// layout: magic, version, the full-width item section — metadata, model
/// block, words CRC — then the words) as its publisher encoded it; the
/// server checks it with [`recoil_core::read_container`] and never encodes.
/// A borrowed view on both ends: the container can be tens of MiB, so the
/// client writes it from the caller's slice into the one payload buffer and
/// the server decodes it in place in the read buffer it lent to the worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PublishRequest<'a> {
    pub name: &'a str,
    pub container: &'a [u8],
}

impl<'a> PublishRequest<'a> {
    pub fn encode(&self) -> Vec<u8> {
        let mut w = PayloadWriter::preallocated(self.container.len() + self.name.len() + 6);
        w.name(self.name);
        w.bytes(self.container);
        w.0
    }

    pub fn decode(payload: &'a [u8]) -> Result<Self, RecoilError> {
        let mut r = PayloadReader::new(payload);
        let msg = Self {
            name: r.name_str()?,
            container: r.bytes()?,
        };
        r.finish()?;
        Ok(msg)
    }
}

/// Server → client: the publish landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PublishOk {
    /// Parallel segments the planner actually placed (best-effort ≤ max).
    pub segments: u64,
    /// Bitstream payload bytes the item will serve.
    pub stream_bytes: u64,
}

impl PublishOk {
    pub fn encode(&self) -> Vec<u8> {
        let mut w = PayloadWriter::preallocated(16);
        w.u64(self.segments);
        w.u64(self.stream_bytes);
        w.0
    }

    pub fn decode(payload: &[u8]) -> Result<Self, RecoilError> {
        let mut r = PayloadReader::new(payload);
        let msg = Self {
            segments: r.u64()?,
            stream_bytes: r.u64()?,
        };
        r.finish()?;
        Ok(msg)
    }
}

/// Client → server: serve `name` for a decoder with this much parallelism.
///
/// Generic over how the name is held: a client owns it (`String`, the
/// default), the server decodes a view into its read buffer (`&str`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContentRequest<N = String> {
    pub name: N,
    /// The client's parallel capacity, straight from the paper's request
    /// header (§3.3).
    pub parallel_segments: u64,
}

impl<N: AsRef<str>> ContentRequest<N> {
    pub fn encode(&self) -> Vec<u8> {
        let name = self.name.as_ref();
        let mut w = PayloadWriter::preallocated(name.len() + 10);
        w.name(name);
        w.u64(self.parallel_segments);
        w.0
    }
}

impl<'a> ContentRequest<&'a str> {
    pub fn decode(payload: &'a [u8]) -> Result<Self, RecoilError> {
        let mut r = PayloadReader::new(payload);
        let msg = Self {
            name: r.name_str()?,
            parallel_segments: r.u64()?,
        };
        r.finish()?;
        Ok(msg)
    }
}

/// Client → server: resume a chunked transfer that died mid-stream.
///
/// `from_word` is how many bitstream words the client already holds (its
/// [`recoil_core::IncrementalDecoder`] received them before the serving
/// node died). The server answers with a fresh [`TransmitHeader`] — the
/// client cross-checks geometry and CRCs against the original — followed
/// by chunks covering **only** words `from_word..`, so no byte feeding an
/// already-decoded segment crosses the wire twice. Generic over the name
/// like [`ContentRequest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResumeRequest<N = String> {
    pub name: N,
    /// The client's parallel capacity — must match the original request so
    /// the replica serves the identical metadata tier.
    pub parallel_segments: u64,
    /// Words already received: every CHUNK body is whole words, so the
    /// replica continues at a word.
    pub from_word: u64,
}

impl<N: AsRef<str>> ResumeRequest<N> {
    pub fn encode(&self) -> Vec<u8> {
        let name = self.name.as_ref();
        let mut w = PayloadWriter::preallocated(name.len() + 18);
        w.name(name);
        w.u64(self.parallel_segments);
        w.u64(self.from_word);
        w.0
    }
}

impl<'a> ResumeRequest<&'a str> {
    pub fn decode(payload: &'a [u8]) -> Result<Self, RecoilError> {
        let mut r = PayloadReader::new(payload);
        let msg = Self {
            name: r.name_str()?,
            parallel_segments: r.u64()?,
            from_word: r.u64()?,
        };
        r.finish()?;
        Ok(msg)
    }
}

/// Server → client: the serving fields around the served tier's item
/// section — `segments: u64`, `cache_hit: u8`, `combine_nanos: u64`, the
/// section (`recoil_core`'s `file.rs` layout: metadata, model block, words
/// CRC), `chunk_count: u32` — then the words as `chunk_count` ordered
/// `Chunk` frames. Behind a container's magic and version, a full-width
/// TRANSMIT's section and its chunk bodies are the published container.
///
/// [`TransmitHeader::decode`] checks the section with
/// [`recoil_core::item_from_bytes`], the parser a container goes through,
/// and keeps what the transfer is checked and written back with; the
/// section's metadata and model come back beside it. This owned struct is
/// the message's **decode side** only: the server writes a TRANSMIT with
/// `write_transmit_header`, from bytes the stored item holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransmitHeader {
    /// Post-clamp segment count actually served.
    pub segments: u64,
    /// Whether the shrunk tier was served without a combine: one the item
    /// holds, or one from its tier cache (which evicts the tier cheapest
    /// to rebuild).
    pub cache_hit: bool,
    /// Server-side real-time combine cost (zero on a cache hit).
    pub combine_nanos: u64,
    /// The served tier's item section, as it crossed the wire.
    pub item: Vec<u8>,
    /// Bytes of the section's metadata: what transfer sizes count.
    pub metadata_len: u64,
    /// Per-lane final states (read first when decoding).
    pub final_states: Vec<u32>,
    /// Total bitstream bytes that will arrive chunked (2 × word count).
    pub word_bytes: u64,
    /// The section's words CRC-32: what the reassembled bodies must match.
    pub payload_crc: u32,
    /// Number of `Chunk` frames that follow.
    pub chunk_count: u32,
}

impl TransmitHeader {
    /// Reads the serving fields, has [`recoil_core::item_from_bytes`] parse
    /// and check the item section between them, and returns the header with
    /// the section's metadata and model.
    pub fn decode(
        payload: &[u8],
    ) -> Result<(Self, RecoilMetadata, StaticModelProvider), RecoilError> {
        let mut r = PayloadReader::new(payload);
        let segments = r.u64()?;
        let cache_hit = r.u8()? != 0;
        let combine_nanos = r.u64()?;
        let rest = r.rest();
        let (section, len) = item_from_bytes(rest)?;
        let (item, tail) = rest.split_at_checked(len).unwrap_or_default();
        let mut r = PayloadReader::new(tail);
        let chunk_count = r.u32()?;
        r.finish()?;
        let header = Self {
            segments,
            cache_hit,
            combine_nanos,
            item: item.to_vec(),
            metadata_len: u64::try_from(section.metadata_len)
                .map_err(|_| RecoilError::wire("metadata length exceeds 64 bits"))?,
            final_states: section.final_states,
            word_bytes: section.metadata.num_words.saturating_mul(2),
            payload_crc: section.words_crc,
            chunk_count,
        };
        Ok((header, section.metadata, section.model))
    }
}

/// A node's serving counters: the store's six and its item count, plus the
/// transport's five facts. Not a message of its own but a typed view of the
/// node's TELEMETRY snapshot: the server writes it in and
/// [`StatsReply::from_snapshot`] reads it back, both through one table of
/// snapshot names (`StatsReply::entries`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsReply {
    pub stats: ServerStats,
    /// Items currently published.
    pub items: u64,
}

/// Which list of a [`TelemetrySnapshot`] an entry lives in.
#[derive(Debug, Clone, Copy)]
enum Series {
    Counter,
    Gauge,
}
use Series::{Counter, Gauge};

impl StatsReply {
    /// The one table between the fields and the snapshot names that carry
    /// them, in the order the server appends them. `evictions` is the
    /// telemetry handle's own counter, so writing it overwrites that entry.
    fn entries(&mut self) -> [(&'static str, Series, &mut u64); 12] {
        let s = &mut self.stats;
        [
            ("server_requests", Counter, &mut s.requests),
            ("server_cache_hits", Counter, &mut s.cache_hits),
            ("server_cache_misses", Counter, &mut s.cache_misses),
            ("server_cache_evictions", Counter, &mut s.cache_evictions),
            ("server_bytes_served", Counter, &mut s.bytes_served),
            ("server_publishes", Counter, &mut s.publishes),
            ("rejected_connections", Counter, &mut s.rejected_connections),
            ("evictions", Counter, &mut s.evicted_connections),
            ("queue_depth", Gauge, &mut s.queue_depth),
            ("open_slots", Gauge, &mut s.open_slots),
            ("active_connections", Gauge, &mut s.active_connections),
            ("server_items", Gauge, &mut self.items),
        ]
    }

    /// Writes every entry into `snapshot`: one the snapshot already holds
    /// takes this value in place, any other is appended behind the
    /// handle's own.
    pub(crate) fn write_into(mut self, snapshot: &mut TelemetrySnapshot) {
        for (name, kind, &mut value) in self.entries() {
            let list = match kind {
                Counter => &mut snapshot.counters,
                Gauge => &mut snapshot.gauges,
            };
            match list.iter_mut().find(|(n, _)| n == name) {
                Some((_, slot)) => *slot = value,
                None => list.push((name.to_string(), value)),
            }
        }
    }

    /// Reads the view back out of a node's snapshot. A snapshot that lacks
    /// any entry is refused as [`RecoilError::Net`].
    pub fn from_snapshot(snapshot: &TelemetrySnapshot) -> Result<Self, RecoilError> {
        let mut reply = Self::default();
        for (name, kind, field) in reply.entries() {
            let value = match kind {
                Counter => snapshot.counter(name),
                Gauge => snapshot.gauge(name),
            };
            *field = value.ok_or_else(|| {
                RecoilError::net(format!("telemetry snapshot lacks the {kind:?} `{name}`"))
            })?;
        }
        Ok(reply)
    }
}

/// Most named instruments (counters + gauges + histograms each) a reply
/// may carry — a hostile count cannot drive a large allocation.
const TELEMETRY_MAX_SERIES: u16 = 1024;

/// Most trace events a reply may carry (the server ring holds 1024; the
/// cap leaves headroom for bigger rings without a protocol version bump).
const TELEMETRY_MAX_TRACE: u32 = 65_536;

/// Server → client: a full telemetry snapshot — its level byte first, then
/// named counters, gauges, histograms (sparse non-zero buckets), and, when
/// the server runs at [`TelemetryLevel::Trace`], the drained event ring.
/// Instruments are *named* on the wire, so new ones can appear without a
/// [`PROTOCOL_VERSION`] bump.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetryReply {
    pub snapshot: TelemetrySnapshot,
    /// `(ticket, event)` pairs in ticket order; empty below trace level.
    pub trace: Vec<(u64, TraceEvent)>,
}

impl TelemetryReply {
    pub fn encode(&self) -> Vec<u8> {
        let s = &self.snapshot;
        let mut w = PayloadWriter::new();
        w.u8(s.level.byte());
        debug_assert!(
            s.counters.len().max(s.gauges.len()).max(s.hists.len())
                <= usize::from(TELEMETRY_MAX_SERIES),
            "snapshot exceeds the wire series cap"
        );
        #[expect(
            clippy::as_conversions,
            reason = "encode path — snapshots carry a fixed small set of named instruments, asserted above"
        )]
        w.u16(s.counters.len() as u16);
        for (name, v) in &s.counters {
            w.name(name);
            w.u64(*v);
        }
        #[expect(
            clippy::as_conversions,
            reason = "encode path — see the series-cap assertion above"
        )]
        w.u16(s.gauges.len() as u16);
        for (name, v) in &s.gauges {
            w.name(name);
            w.u64(*v);
        }
        #[expect(
            clippy::as_conversions,
            reason = "encode path — see the series-cap assertion above"
        )]
        w.u16(s.hists.len() as u16);
        for (name, h) in &s.hists {
            w.name(name);
            w.u64(h.count);
            w.u64(h.sum);
            w.u64(h.max);
            let nonzero = h.buckets.iter().filter(|&&n| n != 0).count();
            #[expect(
                clippy::as_conversions,
                reason = "encode path — at most BUCKETS (64) buckets exist"
            )]
            w.u8(nonzero as u8);
            for (b, &n) in h.buckets.iter().enumerate() {
                if n != 0 {
                    #[expect(
                        clippy::as_conversions,
                        reason = "encode path — bucket indices are < BUCKETS (64)"
                    )]
                    w.u8(b as u8);
                    w.u64(n);
                }
            }
        }
        debug_assert!(
            u32::try_from(self.trace.len()).is_ok_and(|n| n <= TELEMETRY_MAX_TRACE),
            "trace exceeds the wire event cap"
        );
        #[expect(
            clippy::as_conversions,
            reason = "encode path — the server ring is far below the event cap, asserted above"
        )]
        w.u32(self.trace.len() as u32);
        for (ticket, ev) in &self.trace {
            w.u64(*ticket);
            w.u64(ev.conn_gen);
            #[expect(
                clippy::as_conversions,
                reason = "encode path — Stage is repr(u8), the cast is its byte value"
            )]
            w.u8(ev.stage as u8);
            w.u64(ev.t_ns);
            w.u64(ev.detail);
        }
        w.0
    }

    pub fn decode(payload: &[u8]) -> Result<Self, RecoilError> {
        let mut r = PayloadReader::new(payload);
        let level = TelemetryLevel::from_u8(r.u8()?)
            .ok_or_else(|| RecoilError::net("bad telemetry level byte"))?;
        let n_counters = Self::series_count(r.u16()?)?;
        let mut counters = Vec::new();
        for _ in 0..n_counters {
            let name = r.name()?;
            counters.push((name, r.u64()?));
        }
        let n_gauges = Self::series_count(r.u16()?)?;
        let mut gauges = Vec::new();
        for _ in 0..n_gauges {
            let name = r.name()?;
            gauges.push((name, r.u64()?));
        }
        let n_hists = Self::series_count(r.u16()?)?;
        let mut hists = Vec::new();
        for _ in 0..n_hists {
            let name = r.name()?;
            let mut h = HistogramSnapshot {
                count: r.u64()?,
                sum: r.u64()?,
                max: r.u64()?,
                ..HistogramSnapshot::default()
            };
            let nonzero = r.u8()?;
            if usize::from(nonzero) > BUCKETS {
                return Err(RecoilError::net(format!(
                    "bad bucket count {nonzero} in telemetry histogram"
                )));
            }
            for _ in 0..nonzero {
                let b = usize::from(r.u8()?);
                let n = r.u64()?;
                *h.buckets
                    .get_mut(b)
                    .ok_or_else(|| RecoilError::net(format!("bad bucket index {b}")))? = n;
            }
            hists.push((name, h));
        }
        let n_trace = r.u32()?;
        if n_trace > TELEMETRY_MAX_TRACE {
            return Err(RecoilError::net(format!(
                "bad telemetry trace count {n_trace}"
            )));
        }
        let mut trace = Vec::new();
        for _ in 0..n_trace {
            let ticket = r.u64()?;
            let conn_gen = r.u64()?;
            let stage = Stage::from_u8(r.u8()?)
                .ok_or_else(|| RecoilError::net("bad telemetry stage byte"))?;
            trace.push((
                ticket,
                TraceEvent {
                    conn_gen,
                    stage,
                    t_ns: r.u64()?,
                    detail: r.u64()?,
                },
            ));
        }
        r.finish()?;
        Ok(Self {
            snapshot: TelemetrySnapshot {
                level,
                counters,
                gauges,
                hists,
            },
            trace,
        })
    }

    fn series_count(n: u16) -> Result<u16, RecoilError> {
        if n > TELEMETRY_MAX_SERIES {
            return Err(RecoilError::net(format!("bad telemetry series count {n}")));
        }
        Ok(n)
    }
}

/// Encodes the TRANSMIT payload for `(transmission, item)` straight into
/// `w` — the image [`TransmitHeader::decode`] parses, on the reactor's
/// per-request hot path. The item section is copied from bytes the item
/// holds: the tier's metadata, the item's model block and its words CRC,
/// valid for every tier because every tier streams the same words, in
/// `chunk_count` frames from the response's first word on.
pub(crate) fn write_transmit_header(
    w: &mut PayloadWriter,
    transmission: &Transmission,
    item: &StoredContent,
    chunk_count: u32,
) {
    w.u64(transmission.tier.segments);
    w.u8(u8::from(transmission.cache_hit));
    w.u64(u64::try_from(transmission.combine_nanos).unwrap_or(u64::MAX));
    write_item_section(
        &mut w.0,
        transmission.metadata_bytes(),
        item.model_block(),
        item.payload_crc32(),
    );
    w.u32(chunk_count);
}

#[cfg(test)]
#[allow(clippy::as_conversions, reason = "test inputs are built in-process")]
mod tests {
    use super::*;
    use recoil_core::EncoderConfig;
    use recoil_server::ContentServer;
    use std::sync::Arc;

    /// A served tier and its TRANSMIT payload as the reactor writes it.
    fn served_transmit(chunk_count: u32) -> (Transmission, Arc<StoredContent>, Vec<u8>) {
        let data: Vec<u8> = (0..30_000u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 25) as u8)
            .collect();
        let config = EncoderConfig {
            max_segments: 16,
            ..EncoderConfig::default()
        };
        let server = ContentServer::new();
        server.publish("movie", &data, &config).unwrap();
        let (transmission, item) = server.fetch("movie", 4).unwrap();
        let mut w = PayloadWriter::new();
        write_transmit_header(&mut w, &transmission, &item, chunk_count);
        (transmission, item, w.0)
    }

    /// Every message through its one production encoder and its one
    /// production decoder.
    #[test]
    fn every_message_round_trips() {
        let hello = Hello::ours();
        assert_eq!(Hello::decode(&hello.encode()).unwrap(), hello);

        let container: Vec<u8> = (0..1000u32).map(|i| i as u8).collect();
        let publish = PublishRequest {
            name: "movie",
            container: &container,
        };
        assert_eq!(PublishRequest::decode(&publish.encode()).unwrap(), publish);

        let ok = PublishOk {
            segments: 200,
            stream_bytes: 123_456,
        };
        assert_eq!(PublishOk::decode(&ok.encode()).unwrap(), ok);

        // Encoded from the owned form a client holds, decoded as the view
        // the server reads.
        let req = ContentRequest {
            name: "movie".to_string(),
            parallel_segments: 16,
        };
        let view = ContentRequest {
            name: "movie",
            parallel_segments: 16,
        };
        assert_eq!(ContentRequest::decode(&req.encode()).unwrap(), view);
        assert_eq!(view.encode(), req.encode());

        let resume = ResumeRequest {
            name: "movie",
            parallel_segments: 16,
            from_word: 123_456,
        };
        assert_eq!(ResumeRequest::decode(&resume.encode()).unwrap(), resume);
        let mut trailing = resume.encode();
        trailing.push(0);
        assert!(ResumeRequest::decode(&trailing).is_err());
        // REQUEST and RESUME do not parse as each other.
        assert!(ContentRequest::decode(&resume.encode()).is_err());
        assert!(ResumeRequest::decode(&req.encode()).is_err());

        let (transmission, item, payload) = served_transmit(7);
        let (transmit, metadata, model) = TransmitHeader::decode(&payload).unwrap();
        let mut section = Vec::new();
        write_item_section(
            &mut section,
            transmission.metadata_bytes(),
            item.model_block(),
            item.payload_crc32(),
        );
        assert_eq!(
            transmit,
            TransmitHeader {
                segments: 4,
                cache_hit: false,
                combine_nanos: transmission.combine_nanos as u64,
                item: section,
                metadata_len: transmission.metadata_bytes().len() as u64,
                final_states: item.stream.final_states.clone(),
                word_bytes: item.stream.words.len() as u64 * 2,
                payload_crc: item.payload_crc32(),
                chunk_count: 7,
            }
        );
        assert_eq!(&metadata, transmission.metadata());
        assert_eq!(metadata.num_symbols, 30_000);
        assert_eq!(model.table(), item.model.table());

        let mut hist = HistogramSnapshot::default();
        hist.buckets[0] = 2;
        hist.buckets[11] = 5;
        hist.buckets[BUCKETS - 1] = 1;
        hist.count = 8;
        hist.sum = 123_456;
        hist.max = u64::MAX;
        let telemetry = TelemetryReply {
            snapshot: TelemetrySnapshot {
                level: TelemetryLevel::Trace,
                counters: vec![("frames_read".into(), 42), ("evictions".into(), 0)],
                gauges: vec![("queue_depth".into(), 3)],
                hists: vec![("inline_serve_ns".into(), hist)],
            },
            trace: vec![
                (
                    7,
                    TraceEvent {
                        conn_gen: 99,
                        stage: Stage::FrameRead,
                        t_ns: 1_000,
                        detail: 4,
                    },
                ),
                (
                    8,
                    TraceEvent {
                        conn_gen: 99,
                        stage: Stage::WriteFlush,
                        t_ns: 2_000,
                        detail: 512,
                    },
                ),
            ],
        };
        assert_eq!(
            TelemetryReply::decode(&telemetry.encode()).unwrap(),
            telemetry
        );
    }

    /// A node's counters travel in its TELEMETRY snapshot: written through
    /// the one table and read back exactly, across the wire too, while a
    /// snapshot that lacks any one entry is a typed error.
    #[test]
    fn stats_view_round_trips_through_a_snapshot() {
        let reply = StatsReply {
            stats: ServerStats {
                publishes: 1,
                requests: 2,
                cache_hits: 3,
                cache_misses: 4,
                cache_evictions: 5,
                bytes_served: 6,
                active_connections: 7,
                rejected_connections: 8,
                evicted_connections: 9,
                queue_depth: 10,
                open_slots: 11,
            },
            items: 12,
        };
        let handle = recoil_telemetry::Telemetry::new(TelemetryLevel::Counters).snapshot();
        let mut snapshot = handle.clone();
        reply.write_into(&mut snapshot);
        assert_eq!(StatsReply::from_snapshot(&snapshot).unwrap(), reply);
        // The handle's entries stay in front; `evictions` is written in place.
        assert_eq!(snapshot.counters.len(), handle.counters.len() + 7);
        assert_eq!(snapshot.gauges[..handle.gauges.len()], handle.gauges[..]);
        assert_eq!(snapshot.counter("evictions"), Some(9));
        let wire = TelemetryReply {
            snapshot: snapshot.clone(),
            trace: Vec::new(),
        };
        let back = TelemetryReply::decode(&wire.encode()).unwrap().snapshot;
        assert_eq!(StatsReply::from_snapshot(&back).unwrap(), reply);

        for (name, _, _) in StatsReply::default().entries() {
            let mut lacking = snapshot.clone();
            lacking.counters.retain(|(n, _)| n != name);
            lacking.gauges.retain(|(n, _)| n != name);
            match StatsReply::from_snapshot(&lacking) {
                Err(RecoilError::Net { detail }) => assert!(detail.contains(name), "{detail}"),
                other => panic!("a snapshot without {name} gave {other:?}"),
            }
        }
    }

    #[test]
    fn hostile_telemetry_replies_are_rejected() {
        let good = TelemetryReply::default().encode();
        // Bad level byte (the reply starts with it).
        let mut bad = good.clone();
        bad[0] = 7;
        assert!(TelemetryReply::decode(&bad).is_err());
        // Hostile series count (offset 1 is the counter count).
        let mut bad = good.clone();
        bad[1..3].copy_from_slice(&u16::MAX.to_le_bytes());
        assert!(TelemetryReply::decode(&bad).is_err());
        // Trailing garbage.
        let mut bad = good;
        bad.push(0);
        assert!(TelemetryReply::decode(&bad).is_err());
    }

    #[test]
    fn malformed_payloads_are_rejected() {
        assert!(Hello::decode(b"xx").is_err());
        // Wrong magic.
        let mut bad = Hello::ours().encode();
        bad[0] ^= 0xFF;
        assert!(Hello::decode(&bad).is_err());
        // Trailing garbage.
        let mut long = Hello::ours().encode();
        long.push(0);
        assert!(Hello::decode(&long).is_err());
        // Any other version is refused as one, whatever follows it: a
        // version-2 HELLO (magic, version, four capability bytes) included.
        let unsupported = |payload: &[u8]| {
            let err = Hello::decode(payload).unwrap_err().to_string();
            assert!(err.contains("unsupported protocol version"), "{err}");
        };
        unsupported(&Hello { version: 99 }.encode());
        // The previous version is refused as a typed error that names it.
        match Hello::decode(&Hello { version: 4 }.encode()) {
            Err(RecoilError::Net { detail }) => {
                assert!(
                    detail.contains("unsupported protocol version 4 "),
                    "{detail}"
                )
            }
            other => panic!("a version-4 HELLO gave {other:?}"),
        }
        let mut v2 = Hello { version: 2 }.encode();
        v2.extend_from_slice(&7u32.to_le_bytes());
        unsupported(&v2);
        // A name that is not UTF-8 is refused by the borrowed decoders too.
        let mut req = ContentRequest {
            name: "movie",
            parallel_segments: 1,
        }
        .encode();
        req[2] = 0xFF;
        assert!(ContentRequest::decode(&req).is_err());
        // Hostile lane count would otherwise drive a huge allocation.
        let (transmission, item, mut bytes) = served_transmit(0);
        // `ways` is bytes 5..7 of the metadata header, which starts after
        // segments(8) + hit(1) + nanos(8) + the metadata length(4); the
        // footer is re-signed so that the count itself is judged.
        let meta = 21..21 + transmission.metadata_bytes().len();
        let at = meta.start + 5;
        assert_eq!(bytes[at..at + 2], (item.stream.ways as u16).to_le_bytes());
        bytes[at..at + 2].copy_from_slice(&0u16.to_le_bytes());
        let footer = recoil_core::crc32(&bytes[meta.start..meta.end - 4]);
        bytes[meta.end - 4..meta.end].copy_from_slice(&footer.to_le_bytes());
        assert!(TransmitHeader::decode(&bytes).is_err());
    }
}
