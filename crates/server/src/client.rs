//! The decoding client: a machine with a given parallel capacity.
//!
//! A client is a [`DecodeBackend`] (by default `recoil_core`'s
//! [`AutoBackend`]: the best kernel the CPU offers on `threads` threads)
//! and the segment count that backend can keep in flight, which is all it
//! ever tells a server. Replacing the backend replaces the count.

use crate::server::{ContentServer, Transmission};
use recoil_core::backend::{
    preferred_segments, AutoBackend, DecodeBackend, DecodeModel, DecodeRequest,
};
use recoil_core::{metadata_from_bytes, RecoilError};
use recoil_models::StaticModelProvider;
use recoil_rans::EncodedStream;

/// A client decodes with however many threads it has and the best SIMD
/// kernel its CPU offers — the server never needs to know more than the
/// segment count the client asked for.
pub struct Client {
    backend: Box<dyn DecodeBackend>,
    /// Parallel segments this client requests from servers: what its
    /// backend can keep in flight ([`preferred_segments`] — threads × the
    /// kernel's interleave depth, not threads alone: a thread handed one
    /// span runs the vector kernels at about half their rate).
    pub parallel_segments: u64,
}

impl Client {
    /// Client with `threads` decode threads and runtime kernel dispatch
    /// (AVX-512 → AVX2 → scalar).
    pub fn new(threads: usize) -> Self {
        let backend = AutoBackend::with_threads(threads);
        Self {
            parallel_segments: preferred_segments(&backend),
            backend: Box::new(backend),
        }
    }

    /// Replaces the decode backend (tests / measurements) and, with it,
    /// the width this client asks for: a capability belongs to a backend,
    /// and segments the new one cannot use are metadata bytes for nothing.
    /// Write [`Client::parallel_segments`] afterwards to ask for another.
    pub fn with_backend(mut self, backend: impl DecodeBackend + 'static) -> Self {
        self.parallel_segments = preferred_segments(&backend);
        self.backend = Box::new(backend);
        self
    }

    /// The backend this client decodes with.
    pub fn backend(&self) -> &dyn DecodeBackend {
        self.backend.as_ref()
    }

    /// Requests `name` at this client's capacity and decodes the response,
    /// in one call.
    ///
    /// Uses [`ContentServer::fetch`], which resolves the name **once**, so
    /// the transmission and the content it decodes against are the same
    /// item under concurrent unpublishes.
    pub fn fetch_and_decode(
        &self,
        server: &ContentServer,
        name: &str,
    ) -> Result<Vec<u8>, RecoilError> {
        let (transmission, item) = server.fetch(name, self.parallel_segments)?;
        self.decode(&item.stream, &transmission, &item.model)
    }

    /// Decodes a served transmission against the shared bitstream.
    ///
    /// Wire-parses the metadata bytes (what a remote client would do) and
    /// runs the parallel three-phase decoder.
    pub fn decode(
        &self,
        stream: &EncodedStream,
        transmission: &Transmission,
        model: &StaticModelProvider,
    ) -> Result<Vec<u8>, RecoilError> {
        let metadata = metadata_from_bytes(transmission.metadata_bytes())?;
        let mut out = vec![0u8; stream.num_symbols as usize];
        let model = DecodeModel::Static(model);
        self.backend
            .decode(DecodeRequest::whole(stream, &metadata, model, &mut out)?)?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ContentServer;
    use recoil_core::{EncoderConfig, ScalarBackend};

    #[test]
    fn end_to_end_content_delivery() {
        let data: Vec<u8> = (0..500_000u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 23) as u8)
            .collect();
        let server = ContentServer::new();
        let config = EncoderConfig {
            max_segments: 256,
            ..EncoderConfig::default()
        };
        server.publish("video", &data, &config).unwrap();

        // A beefy client and a budget client request the same content —
        // one atomic fetch-and-decode each.
        for threads in [1usize, 2, 8] {
            let client = Client::new(threads);
            let decoded = client.fetch_and_decode(&server, "video").unwrap();
            assert_eq!(decoded, data, "threads={threads}");
        }

        // What a client asks for is what its backend keeps in flight, and
        // the tier it receives has that many segments — or all the item has.
        let depth = preferred_segments(&AutoBackend::new());
        for (threads, max_segments) in [(1usize, 256u64), (2, 256), (3, 256), (64, 256), (2, 3)] {
            let name = format!("video-{max_segments}");
            if server.get(&name).is_none() {
                let config = EncoderConfig {
                    max_segments,
                    ..EncoderConfig::default()
                };
                server.publish(&name, &data, &config).unwrap();
            }
            let client = Client::new(threads);
            assert_eq!(client.parallel_segments, threads as u64 * depth);
            let (transmission, item) = server.fetch(&name, client.parallel_segments).unwrap();
            assert_eq!(
                transmission.metadata().num_segments(),
                client.parallel_segments.min(item.max_segments()),
                "threads={threads}, max_segments={max_segments}"
            );
            let decoded = client
                .decode(&item.stream, &transmission, &item.model)
                .unwrap();
            assert_eq!(decoded, data, "threads={threads}");
        }

        // A forced-scalar client agrees bit for bit — and asks for what a
        // scalar backend can use, not for the width of the one it replaced.
        let scalar = Client::new(4).with_backend(ScalarBackend);
        assert_eq!(scalar.parallel_segments, 1);
        let (one, _) = server.fetch("video", scalar.parallel_segments).unwrap();
        assert_eq!(one.metadata().num_segments(), 1);
        assert_eq!(scalar.fetch_and_decode(&server, "video").unwrap(), data);

        // The budget client transferred fewer bytes than the beefy one.
        let small = server.request("video", 1).unwrap();
        let large = server.request("video", 256).unwrap();
        assert!(small.total_bytes() < large.total_bytes());
    }
}
