//! Workload `serve_churn`: an in-process `ContentServer` under a read mix
//! that misses its tier cache about 40 % of the time, with writes beside
//! the reads. `rans` appears only through publishes; `net` does nothing.
//!
//! Op: `ContentServer::request(item, width)`, item and width drawn
//! uniformly. Every 256th operation is a write instead: `unpublish` and
//! `ContentServer::publish` of a rotating item.

use crate::harness::{primary_readings, Check, Ctx, Reading, Trial};
use crate::stats::Samples;
use crate::trace::timed;
use recoil::prelude::*;
use recoil::server::{Client, ContentServer, ServerConfig, ServerStats};
use std::time::Instant;

const ITEMS: usize = 32;
const ITEM_BYTES: usize = 256 << 10;
const ENTROPY_BITS: f64 = 5.1;
const MAX_SEGMENTS: u64 = 256;
const TIER_CACHE: usize = 4;
/// Device classes of the old serve/net benches; the last exceeds every
/// item's maximum and shares the 256 tier.
const WIDTHS: [u64; 8] = [16, 4, 64, 1, 8, 32, 256, 100_000];
const WRITE_EVERY: u64 = 256;
/// Every this-many-th reply is decoded and compared, outside its span;
/// the rest are checked against the item's known geometry.
const DECODE_EVERY: u64 = 1024;
/// `server.hit_ratio` and `server.evictions` are counted between these
/// two operation indices of each trial, so they repeat exactly at a seed
/// however many operations the host fits in the trial.
const COUNT_WINDOW: (u64, u64) = (4096, 12_288);

struct Item {
    name: String,
    data: Vec<u8>,
    stream_bytes: u64,
    segments: u64,
}

pub fn trial(ctx: &mut Ctx) -> Trial {
    let t_setup = Instant::now();
    let mut check = Check::default();
    let server = ContentServer::with_config(ServerConfig {
        tier_cache_capacity: TIER_CACHE,
        ..ServerConfig::default()
    });
    let config = EncoderConfig {
        max_segments: MAX_SEGMENTS,
        ..EncoderConfig::default()
    };
    let decoder = Client::new(1);
    let mut items: Vec<Item> = (0..ITEMS)
        .map(|i| {
            let seed = ctx.seed.wrapping_mul(ITEMS as u64).wrapping_add(i as u64);
            let data = recoil::data::text_like_bytes(ITEM_BYTES, ENTROPY_BITS, seed);
            let name = format!("item{i}");
            let stored = server
                .publish(&name, &data, &config)
                .expect("publishing a fresh name");
            Item {
                name,
                stream_bytes: stored.stream.payload_bytes(),
                segments: stored.max_segments(),
                data,
            }
        })
        .collect();
    // Every item at every width once: warms the tier caches, proves each
    // tier decodes to the payload, and sizes the replies exactly.
    let mut wire_bytes = 0u64;
    for item in &items {
        for width in WIDTHS {
            if let Some((tx, stored)) = check.ok("fetch", server.fetch(&item.name, width)) {
                wire_bytes += tx.total_bytes();
                let decoded = decoder.decode(&stored.stream, &tx, &stored.model);
                check.also(decoded.is_ok_and(|d| d == item.data), || {
                    format!("{} at width {width} decoded other bytes", item.name)
                });
            }
        }
    }
    let size_pct = 100.0 * wire_bytes as f64 / (ITEMS * WIDTHS.len() * ITEM_BYTES) as f64;
    let setup_s = t_setup.elapsed().as_secs_f64();

    let (mut hit, mut miss) = (Samples::default(), Samples::default());
    let (mut publish, mut unpublish) = (Samples::default(), Samples::default());
    let mut rng = ctx.rng(0x5e47e);
    let tr = &mut ctx.tracer;
    let mut window: (ServerStats, Option<ServerStats>) = (server.stats(), None);
    let deadline = Instant::now() + ctx.budget;
    let mut n = 0u64;
    let mut writes = 0usize;
    while Instant::now() < deadline {
        n += 1;
        let op = (ctx.trial as u64) << 32 | n;
        if n == COUNT_WINDOW.0 {
            window.0 = server.stats();
        } else if n == COUNT_WINDOW.1 {
            window.1 = Some(server.stats());
        }
        if n.is_multiple_of(WRITE_EVERY) {
            let item = &mut items[writes % ITEMS];
            writes += 1;
            let (existed, ns) = timed(tr, "server.unpublish", op, || server.unpublish(&item.name));
            unpublish.push(ns);
            check.that(existed, || {
                format!("{} was not there to unpublish", item.name)
            });
            let (stored, ns) = timed(tr, "server.publish", op, || {
                server.publish(&item.name, &item.data, &config)
            });
            publish.push(ns);
            if let Some(stored) = check.ok("publish", stored) {
                check.also(stored.stream.payload_bytes() == item.stream_bytes, || {
                    format!("{} republished to a different stream", item.name)
                });
            }
            continue;
        }
        let item = &items[rng.below(ITEMS)];
        let width = WIDTHS[rng.below(WIDTHS.len())];
        let (tx, ns) = timed(tr, "server.request", op, || {
            server.request(&item.name, width)
        });
        let Some(tx) = check.ok("request", tx) else {
            continue;
        };
        let series = if tx.cache_hit { &mut hit } else { &mut miss };
        series.push(ns);
        check.also(
            tx.stream_bytes == item.stream_bytes
                && tx.metadata().num_segments() == width.min(item.segments),
            || format!("{} at width {width}: wrong reply geometry", item.name),
        );
        if n % DECODE_EVERY == 1 {
            let decoded = server
                .get(&item.name)
                .and_then(|stored| decoder.decode(&stored.stream, &tx, &stored.model).ok());
            check.also(decoded.is_some_and(|d| d == item.data), || {
                format!("{} at width {width} decoded other bytes", item.name)
            });
        }
    }
    let end = window.1.unwrap_or_else(|| server.stats());
    let hits = end.cache_hits - window.0.cache_hits;
    let misses = end.cache_misses - window.0.cache_misses;

    let mut all = hit.clone();
    all.extend(&miss);
    let mut readings = primary_readings(&mut all).to_vec();
    readings.extend([
        Reading::exact("setup_s", setup_s),
        Reading::exact("size_pct", size_pct),
        Reading::exact(
            "server.hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        ),
        Reading::exact(
            "server.evictions",
            (end.cache_evictions - window.0.cache_evictions) as f64,
        ),
        Reading::quantile("server.hit_us_p50", &mut hit, 0.5, 1e3),
        Reading::quantile("server.miss_us_p50", &mut miss, 0.5, 1e3),
        Reading::quantile("server.miss_us_p99", &mut miss, 0.99, 1e3),
        Reading::exact(
            "server.miss_time_share",
            miss.sum() as f64 / (miss.sum() + hit.sum()).max(1) as f64,
        ),
        Reading::quantile("server.publish_ms_p50", &mut publish, 0.5, 1e6),
        Reading::quantile("server.unpublish_us_p50", &mut unpublish, 0.5, 1e3),
    ]);
    Trial {
        check,
        readings,
        payload_bytes: 0,
    }
}
