//! Loopback plumbing the three socket workloads share: servers on
//! ephemeral ports, raw pipelined connections, and the connect/publish
//! probes that stand behind `setup_s`.

use crate::harness::{Check, Reading};
use crate::stats::Samples;
use crate::trace::{timed, Tracer};
use recoil::net::raw::{read_frame, write_frame, ReadOutcome};
use recoil::net::{ContentRequest, FrameType, Hello, NetClient, NetConfig, NetServer};
use recoil::prelude::*;
use recoil::server::ContentServer;
use std::io::Read;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// A node with an empty store on an ephemeral loopback port.
pub fn bind(config: NetConfig) -> NetServerHandle {
    NetServer::bind(Arc::new(ContentServer::new()), "127.0.0.1:0", config)
        .expect("binding an ephemeral loopback port")
}

/// A raw connection past its HELLO exchange, for pipelining requests down
/// one socket (which `NetClient` does not do).
pub fn raw_handshake(addr: SocketAddr) -> Result<TcpStream, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    write_frame(&mut stream, FrameType::Hello, &Hello::ours().encode())
        .map_err(|e| e.to_string())?;
    match read_frame(&mut stream).map_err(|e| e.to_string())? {
        ReadOutcome::Frame(FrameType::Hello, _) => Ok(stream),
        other => Err(format!("expected a HELLO reply, got {other:?}")),
    }
}

/// One REQUEST frame, header included.
pub fn request_frame(name: &str, parallel_segments: u64) -> Vec<u8> {
    let payload = ContentRequest {
        name: name.to_string(),
        parallel_segments,
    }
    .encode();
    let mut frame = Vec::with_capacity(5 + payload.len());
    frame.push(FrameType::Request as u8);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

/// One reply as it came off the socket: the TRANSMIT payload and the
/// CHUNK payloads that followed it.
#[derive(Debug, PartialEq, Eq)]
pub struct Reply {
    pub frames: Vec<Vec<u8>>,
}

impl Reply {
    /// Bytes on the wire, 5-byte frame headers included.
    pub fn wire_bytes(&self) -> u64 {
        self.frames.iter().map(|f| 5 + f.len() as u64).sum()
    }
}

pub fn read_reply(reader: &mut impl Read) -> Result<Reply, String> {
    let transmit = match read_frame(reader).map_err(|e| e.to_string())? {
        ReadOutcome::Frame(FrameType::Transmit, payload) => payload,
        other => return Err(format!("expected TRANSMIT, got {other:?}")),
    };
    // `chunk_count` is the final u32 of the TRANSMIT payload.
    let tail = transmit.len().checked_sub(4).ok_or("short TRANSMIT")?;
    let chunks = u32::from_le_bytes(transmit[tail..].try_into().expect("4 bytes"));
    let mut frames = vec![transmit];
    for _ in 0..chunks {
        match read_frame(reader).map_err(|e| e.to_string())? {
            ReadOutcome::Frame(FrameType::Chunk, payload) => frames.push(payload),
            other => return Err(format!("expected CHUNK, got {other:?}")),
        }
    }
    Ok(Reply { frames })
}

/// Times one dial: TCP connect plus the HELLO exchange.
pub fn probe_connect(
    tr: &mut Option<Tracer>,
    check: &mut Check,
    op: u64,
    addr: SocketAddr,
    samples: &mut Samples,
) {
    let (client, ns) = timed(tr, "net.connect", op, || NetClient::connect(addr));
    samples.push(ns);
    check.ok("connect", client);
}

/// A publish over the wire that can be repeated beside the reads: the
/// name is unpublished first, in-process, because the wire has no such
/// frame.
pub struct Republish<'a> {
    pub server: &'a NetServerHandle,
    pub client: &'a NetClient,
    pub name: &'a str,
    pub data: &'a [u8],
    pub config: &'a EncoderConfig,
    /// What the same bytes published to before.
    pub stream_bytes: u64,
}

impl Republish<'_> {
    pub fn run(&self, tr: &mut Option<Tracer>, check: &mut Check, op: u64, samples: &mut Samples) {
        self.server.content().unpublish(self.name);
        let (ok, ns) = timed(tr, "net.publish", op, || {
            self.client.publish(self.name, self.data, self.config)
        });
        samples.push(ns);
        if let Some(ok) = check.ok("publish over the wire", ok) {
            check.also(ok.stream_bytes == self.stream_bytes, || {
                format!(
                    "`{}` published to {} stream bytes, expected {}",
                    self.name, ok.stream_bytes, self.stream_bytes
                )
            });
        }
    }
}

/// `net.rejected` and `net.evicted` from a node's STATS reply; either
/// being non-zero is a failure.
pub fn refusal_readings(
    check: &mut Check,
    stats: Result<recoil::net::StatsReply, RecoilError>,
) -> Vec<Reading> {
    let Some(reply) = check.ok("stats", stats) else {
        return Vec::new();
    };
    let (rejected, evicted) = (
        reply.stats.rejected_connections,
        reply.stats.evicted_connections,
    );
    check.also(rejected == 0 && evicted == 0, || {
        format!("the server rejected {rejected} and evicted {evicted} benchmark connections")
    });
    vec![
        Reading::exact("net.rejected", rejected as f64),
        Reading::exact("net.evicted", evicted as f64),
    ]
}

/// The per-layer readings of a workload that dials and publishes beside
/// its reads: what those cost, and whether the server turned anyone away.
pub fn socket_readings(
    check: &mut Check,
    client: &NetClient,
    connect: &mut Samples,
    publish: &mut Samples,
) -> Vec<Reading> {
    let mut out = vec![
        Reading::quantile("net.connect_us_p50", connect, 0.5, 1e3),
        Reading::quantile("net.publish_ms_p50", publish, 0.5, 1e6),
    ];
    out.extend(refusal_readings(check, client.stats()));
    out
}
