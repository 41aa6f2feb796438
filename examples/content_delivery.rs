//! The paper's motivating scenario (§1, §3.3): one server, clients with
//! wildly different parallel capacities.
//!
//! The server encodes each item once under an [`EncoderConfig`] at maximum
//! parallelism. Each client attaches its capacity to the request; the
//! server resolves it to a capacity tier and serves the shrunk metadata —
//! combined in real time on the first request for a tier, straight from the
//! per-content tier cache afterwards (a full cache evicts the tier cheapest
//! to rebuild, aged by how long ago it was served). A client at the
//! encoded maximum needs nothing eliminated: its tier is the published
//! metadata, which the item holds from publish on, so the 2176-way row
//! (clamped to the segments the planner placed) reads "hit" with a 0 ns
//! combine even on its first request. Compare with the conventional
//! approach, where the server must either store one encoding per capacity
//! tier or ship everyone the massively-parallel (largest) file.
//!
//! ```sh
//! cargo run --release --example content_delivery
//! ```

use recoil::conventional::encode_conventional;
use recoil::prelude::*;
use recoil::server::{Client, ContentServer};

fn main() -> Result<(), RecoilError> {
    let data = recoil::data::exponential_bytes(10_000_000, 500.0, 7);
    let model = StaticModelProvider::new(CdfTable::of_bytes(&data, 11));

    // --- Recoil server: encode ONCE at max parallelism (2176 segments). ---
    let config = EncoderConfig {
        ways: 32,
        max_segments: 2176,
        quant_bits: 11,
    };
    let server = ContentServer::new();
    server.publish("rand_500", &data, &config)?;
    let item = server.get("rand_500").expect("just published");
    let baseline = item.stream.payload_bytes();
    println!("baseline (a) payload: {baseline} bytes\n");

    // Publishing twice is rejected instead of silently clobbering content
    // that clients may still be downloading.
    let dup = server.publish("rand_500", &data, &config);
    assert!(matches!(dup, Err(RecoilError::AlreadyPublished { .. })));

    // --- Conventional comparators (fixed at encode time). ---
    let conv_large = encode_conventional(&data, &model, 32, 2176).payload_bytes();
    println!("conventional Large (2176 partitions): {conv_large} bytes");
    println!(
        "  => every client downloads +{} bytes of parallelism overhead\n",
        conv_large - baseline
    );

    // One client per device class, each created once — the decode pool
    // inside a client's backend is reused across all of its requests.
    let capacities = [1usize, 4, 16, 256, 2176];
    let clients: Vec<Client> = capacities.iter().map(|&c| Client::new(c.min(32))).collect();

    println!(
        "{:>8} | {:>12} | {:>14} | {:>12} | {:>9} | cache",
        "client", "segments", "transfer (B)", "overhead", "combine"
    );
    println!("{}", "-".repeat(78));
    for (&threads, client) in capacities.iter().zip(&clients) {
        // `fetch` resolves the name once: transmission and content handle
        // come from the same store lookup (no request/get TOCTOU).
        let (t, item) = server.fetch("rand_500", threads as u64)?;
        // Verify the client actually decodes the response correctly.
        let decoded = client.decode(&item.stream, &t, &item.model)?;
        assert_eq!(decoded, data);
        println!(
            "{:>8} | {:>12} | {:>14} | {:>12} | {:>9.2?} | {}",
            format!("{threads}-way"),
            t.metadata().num_segments(),
            t.total_bytes(),
            format!("+{}", t.total_bytes() - baseline),
            std::time::Duration::from_nanos(t.combine_nanos as u64),
            if t.cache_hit { "hit" } else { "miss" },
        );
    }

    // Headline numbers (§5.2): overhead saved vs serving Conventional Large.
    let small = server.request("rand_500", 16)?;
    assert!(small.cache_hit, "16-way tier was served above");
    let saved = conv_large as f64 - small.total_bytes() as f64;
    println!(
        "\nserving a 16-way client: Recoil {} B vs Conventional-Large {} B",
        small.total_bytes(),
        conv_large
    );
    println!(
        "=> compression-rate overhead reduced by {:.2}% of the baseline size",
        -100.0 * saved / baseline as f64
    );

    let stats = server.stats();
    println!(
        "\nserver stats: {} requests, {} hits / {} misses (hit rate {:.0}%), {} evictions",
        stats.requests,
        stats.cache_hits,
        stats.cache_misses,
        100.0 * stats.hit_rate(),
        stats.cache_evictions
    );
    Ok(())
}
