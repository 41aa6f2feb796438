//! What a streaming fetch of one decode batch allocates on the thread that
//! calls it.
//!
//! A stream of at most [`preferred_segments`] segments is received, checked
//! and decoded on the calling thread in one batch, into a word store the
//! client (or the fabric router) keeps between fetches. Once one fetch has grown that
//! store, the next allocates its output — the decoded bytes it returns —
//! and a bounded rest: the session's frame buffer (one chunk), the TRANSMIT
//! header, the decoder's copies of the metadata and model. A fresh store
//! per fetch would add the stream's size again, and a copy of every chunk
//! body one allocation per chunk: each fails an assertion below.
//!
//! On the server's side, a warm tier-cache hit of
//! [`ContentServer::request`] allocates nothing: it borrows the item under
//! the shard's read guard and clones the served tier's handle. A miss
//! allocates the tier it writes, a pinned number of times.
//!
//! The global allocator counts the bytes each thread asks for, and reports
//! only the measuring thread's: the server's reactor and the decode pool
//! run on threads of their own.

#![allow(unsafe_code, reason = "a counting allocator that calls `System`")]

use recoil_core::backend::{preferred_segments, AutoBackend};
use recoil_core::{metadata_from_bytes, EncoderConfig, MAX_RESERVED_WORDS};
use recoil_fabric::{FabricRouter, RouterConfig};
use recoil_net::{NetClient, NetConfig, NetServer, NetServerHandle};
use recoil_server::{ContentServer, ServerConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// [`System`], counting the allocations the current thread makes, and their
/// bytes, while [`allocated_by`] measures it.
struct ThreadCounting;

thread_local! {
    // `const` and without `Drop`: reading them never allocates, so the
    // allocator may use them.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
            let _ = CALLS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting beside it touches only
// const-initialized thread-locals and never allocates.
unsafe impl GlobalAlloc for ThreadCounting {
    // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: that contract, passed on unchanged.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: that contract, passed on unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract: `ptr`
    // came from this allocator, so from `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: that contract, passed on unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A reallocation counts what it grows by.
        note(new_size.saturating_sub(layout.size()));
        // SAFETY: that contract, passed on unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: ThreadCounting = ThreadCounting;

/// What one thread allocated.
#[derive(Debug)]
struct Allocated {
    bytes: u64,
    calls: u64,
}

/// Runs `f` and returns its result with what this thread allocated
/// meanwhile.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, Allocated) {
    BYTES.with(|n| n.set(0));
    CALLS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    let allocated = Allocated {
        bytes: BYTES.with(Cell::get),
        calls: CALLS.with(Cell::get),
    };
    (out, allocated)
}

/// The bound every measured fetch meets: its output plus [`REST`] bytes,
/// in fewer allocations than the stream has chunks.
fn assert_bounded(allocated: &Allocated, output: usize, chunks: u32, what: &str) {
    assert!(
        allocated.bytes <= output as u64 + REST,
        "{what}: {allocated:?} for a {output}-byte output"
    );
    assert!(
        allocated.calls < u64::from(chunks),
        "{what}: {allocated:?} for {chunks} chunks, so something is allocated per chunk"
    );
}

/// What a one-batch fetch may allocate on top of the bytes it returns: the
/// copies of the header's contents, about 24 KB on x86-64. Chunk bodies are
/// read straight into the kept word store, so no chunk buffer is among them.
const REST: u64 = 64 * 1024;
/// The ladder's `net_stream` geometry: 4 MiB, 64 KiB chunks, width 2.
const ITEM_LEN: usize = 4 << 20;
const CHUNK_BYTES: usize = 64 * 1024;
const WIDTH: u64 = 2;

/// Bytes that barely compress, so the stream is about as large as the
/// item: well past the word store's header-driven reservation.
fn sample(len: usize, seed: u32) -> Vec<u8> {
    (0..len as u32)
        .map(|i| ((i.wrapping_add(seed).wrapping_mul(2654435761)) >> 23) as u8)
        .collect()
}

fn config() -> EncoderConfig {
    EncoderConfig {
        max_segments: 256,
        ..EncoderConfig::default()
    }
}

fn start_server() -> NetServerHandle {
    NetServer::bind(
        Arc::new(ContentServer::new()),
        "127.0.0.1:0",
        NetConfig {
            workers: 2,
            chunk_bytes: CHUNK_BYTES,
            ..NetConfig::default()
        },
    )
    .unwrap()
}

#[test]
fn a_one_batch_streaming_fetch_allocates_its_output_and_a_bounded_rest() {
    let server = start_server();
    let data = sample(ITEM_LEN, 1);
    let client = NetClient::connect(server.addr())
        .unwrap()
        .with_backend(AutoBackend::with_threads(2));
    assert!(WIDTH <= preferred_segments(client.backend()), "one batch");
    client.publish("movie", &data, &config()).unwrap();

    let warm = client.fetch_and_decode_streaming("movie", WIDTH).unwrap();
    assert_eq!(warm.data, data);
    assert!(
        warm.total_bytes > 2 * MAX_RESERVED_WORDS as u64,
        "past the reservation"
    );

    for round in 0..3 {
        let (fetched, allocated) =
            allocated_by(|| client.fetch_and_decode_streaming("movie", WIDTH).unwrap());
        assert_eq!(fetched.data, data, "round {round}");
        assert_eq!(fetched.decode_batches, 1, "round {round}");
        assert_eq!(fetched.total_bytes, warm.total_bytes, "round {round}");
        let what = format!("round {round}");
        assert_bounded(&allocated, data.len(), fetched.chunk_count, &what);
    }
    server.shutdown();
}

#[test]
fn a_one_batch_router_fetch_allocates_its_output_and_a_bounded_rest() {
    let server = start_server();
    let data = sample(ITEM_LEN, 2);
    let router = FabricRouter::connect(
        &[server.addr()],
        RouterConfig {
            rebalance_interval: 0,
            ..RouterConfig::default()
        },
    )
    .unwrap();
    // The router decodes over every core: on one scalar core its batch is
    // a single segment.
    let width = WIDTH.min(preferred_segments(router.backend()));
    router.publish("movie", &data, &config()).unwrap();

    assert_eq!(router.fetch("movie", width).unwrap().data, data);
    let chunks = NetClient::connect(server.addr())
        .unwrap()
        .start_fetch("movie", width, 0)
        .unwrap()
        .header
        .chunk_count;

    for round in 0..3 {
        let (fetched, allocated) = allocated_by(|| router.fetch("movie", width).unwrap());
        assert_eq!(fetched.data, data, "round {round}");
        assert_bounded(&allocated, data.len(), chunks, &format!("round {round}"));
    }
    server.shutdown();
}

/// What one tier-cache miss allocates: the tier's bytes, its shared handle
/// and the selection of kept splits the bytes are written from.
const MISS_ALLOCATIONS: u64 = 3;

#[test]
fn a_warm_request_hit_allocates_nothing_and_a_miss_a_pinned_count() {
    let server = ContentServer::with_config(ServerConfig {
        shards: 1,
        tier_cache_capacity: 1,
    });
    let item = server
        .publish("movie", &sample(256 << 10, 3), &config())
        .unwrap();
    // The two tiers the item holds, and a combined one from its cache.
    for width in [1, item.max_segments(), 8] {
        server.request("movie", width).unwrap();
        let (tx, allocated) = allocated_by(|| server.request("movie", width).unwrap());
        assert!(tx.cache_hit, "width {width}");
        assert_eq!(
            (allocated.bytes, allocated.calls),
            (0, 0),
            "a hit at width {width} allocated"
        );
    }
    // One slot, two widths in turn: each request is a miss that evicts.
    for width in [4, 8, 4, 8] {
        let (tx, allocated) = allocated_by(|| server.request("movie", width).unwrap());
        assert!(!tx.cache_hit, "width {width}");
        // With debug assertions `WireSplits::tier` parses what it wrote:
        // that is the check's, not the miss's.
        let check = if cfg!(debug_assertions) {
            allocated_by(|| metadata_from_bytes(tx.metadata_bytes()).unwrap())
                .1
                .calls
        } else {
            0
        };
        assert_eq!(
            allocated.calls - check,
            MISS_ALLOCATIONS,
            "a miss at width {width}: {allocated:?}, {check} of them the check's"
        );
    }
}
