//! Microbenchmarks of the metadata plane on the ladder's
//! `serve_churn` item (256 KiB, W = 32), each at 16, 64 and 256 segments:
//! `tier` is what one tier-cache miss runs — a selection from the item's
//! `WireSplits`, whose split bodies were written once at publish — and
//! `build` the same tier from bare metadata (combine + validate +
//! serialise, where serialising builds the table and selects every
//! split); then `build`'s two halves, the client's parse of the same tier,
//! and the split planner over the item's recorded renormalization events.
//! `wire-table` is the one-off table build a publish adds. The two
//! `encode` rows are the facade with and without that planning.
//!
//! `plan/{event-scan,record-scan}/{256KiB@256,8MiB@64}` replays an encode's
//! recorded renorm groups into a fresh planner — the ring pushes plus the
//! planning, nothing of the encode — scoring candidates from a backward
//! scan event by event (what the planner did before, and still does for
//! lane counts other than 32) or a record at a time.
//! `publish/{256KiB@256,4MiB@256,8MiB@64}` is `ContentServer::publish` whole
//! (model, encode, plan, store), and `histogram/{1-table,8-table}/8MiB` the
//! model's counting pass by `Histogram::add` and by `Histogram::of_bytes`.
//!
//! `crc32/{table,clmul}/{64B,4KiB,64KiB,4MiB}` puts the checksum's two
//! paths side by side — metadata footers live at the small sizes, chunk
//! bodies at 64 KiB, a whole payload at 4 MiB. `clmul` is the dispatching
//! `update_crc32`, so on a host without carry-less multiply both rows read
//! the table rate.

use recoil::core::{update_crc32, update_crc32_table, WireSplits};
use recoil::models::Histogram;
use recoil::prelude::*;
use recoil::rans::{RenormGroup, RenormSink};
use recoil::server::ContentServer;
use recoil_bench::bench;

const SEGMENTS: [u64; 3] = [16, 64, 256];

fn main() {
    bench_metadata_plane();
    bench_publish();
    bench_crc32();
}

fn bench_metadata_plane() {
    let data = recoil::data::text_like_bytes(256 << 10, 5.1, 5);
    let codec = |segments| Codec::builder().max_segments(segments).build().unwrap();
    let stored = codec(256).encode(&data).unwrap().container.metadata;
    println!("stored metadata: {} segments", stored.num_segments());

    let wire = WireSplits::of(&stored).unwrap();

    let group = "metadata_plane";
    bench(group, "wire-table", 2000, None, || {
        WireSplits::of(&stored).unwrap()
    });
    for s in SEGMENTS {
        let tier = try_combine_splits(&stored, s).unwrap();
        let bytes = metadata_to_bytes(&tier);
        bench(group, &format!("combine/{s}"), 2000, None, || {
            try_combine_splits(&stored, s).unwrap()
        });
        bench(group, &format!("serialise/{s}"), 2000, None, || {
            metadata_to_bytes(&tier)
        });
        bench(group, &format!("tier/{s}"), 2000, None, || {
            wire.tier(s).unwrap()
        });
        bench(group, &format!("build/{s}"), 2000, None, || {
            metadata_to_bytes(&try_combine_splits(&stored, s).unwrap())
        });
        bench(group, &format!("parse/{s}"), 2000, None, || {
            metadata_from_bytes(&bytes).unwrap()
        });
    }

    let model = StaticModelProvider::new(CdfTable::of_bytes(&data, 11));
    let mut enc = InterleavedEncoder::new(&model, 32);
    let mut events = recoil::rans::VecSink::new();
    enc.encode_all_fast(&data, &mut events).unwrap();
    let words = enc.finish().words.len() as u64;
    let n = data.len() as u64;
    for s in SEGMENTS {
        bench(group, &format!("planner/{s}"), 50, None, || {
            recoil::core::plan_from_events(&events.events, 32, n, words, 11, s)
        });
    }
    for s in [1, 256] {
        let codec = codec(s);
        bench(group, &format!("encode/{s}"), 50, None, || {
            codec.encode(&data).unwrap()
        });
    }
}

/// An encode's renorm groups, kept to be replayed.
#[derive(Default)]
struct Recorded {
    /// `(first_pos, mask, offset, renormed)` per group.
    groups: Vec<(u64, u32, u64, [u32; 32])>,
}

impl RenormSink for Recorded {
    fn on_group(&mut self, g: RenormGroup<'_>) {
        self.groups
            .push((g.first_pos, g.mask, g.offset, *g.renormed));
    }
}

impl Recorded {
    fn replay(&self, sink: &mut impl RenormSink) {
        for (first_pos, mask, offset, renormed) in &self.groups {
            sink.on_group(RenormGroup {
                first_pos: *first_pos,
                ways: 32,
                mask: *mask,
                offset: *offset,
                renormed,
            });
        }
    }
}

fn bench_publish() {
    let data = recoil::data::text_like_bytes(8 << 20, 5.1, 5);

    for (label, len, segments) in [("256KiB@256", 256 << 10, 256), ("8MiB@64", 8 << 20, 64)] {
        let data = &data[..len];
        let model = StaticModelProvider::new(CdfTable::of_bytes(data, 11));
        let mut enc = InterleavedEncoder::new(&model, 32);
        let mut recorded = Recorded::default();
        enc.encode_all_fast(data, &mut recorded).unwrap();
        let words = enc.finish().words.len() as u64;
        let plan = |by_records: bool| {
            let mut planner = SplitPlanner::new(32, len as u64, segments);
            if !by_records {
                planner = planner.scanning_event_by_event();
            }
            recorded.replay(&mut planner);
            planner.finish(words, 11)
        };
        assert_eq!(plan(true), plan(false), "same splits either way");
        let samples = if len > 1 << 20 { 20 } else { 300 };
        for (name, by_records) in [("event-scan", false), ("record-scan", true)] {
            bench("plan", &format!("{name}/{label}"), samples, None, || {
                plan(by_records)
            });
        }
    }

    for (label, len, segments) in [
        ("256KiB@256", 256 << 10, 256),
        ("4MiB@256", 4 << 20, 256),
        ("8MiB@64", 8 << 20, 64),
    ] {
        let server = ContentServer::new();
        let config = EncoderConfig {
            max_segments: segments,
            ..EncoderConfig::default()
        };
        let samples = if len > 1 << 20 { 15 } else { 200 };
        let data = &data[..len];
        bench("publish", label, samples, Some(len), || {
            server.unpublish("item");
            server.publish("item", data, &config).unwrap()
        });
    }

    let bytes = Some(data.len());
    bench("histogram", "1-table/8MiB", 20, bytes, || {
        let mut hist = Histogram::new(256);
        for &s in data.iter() {
            hist.add(usize::from(s));
        }
        hist
    });
    bench("histogram", "8-table/8MiB", 20, bytes, || {
        Histogram::of_bytes(&data)
    });
}

fn bench_crc32() {
    let data = recoil::data::text_like_bytes(4 << 20, 5.1, 5);
    for (label, len) in [
        ("64B", 64),
        ("4KiB", 4 << 10),
        ("64KiB", 64 << 10),
        ("4MiB", 4 << 20),
    ] {
        let bytes = &data[..len];
        let samples = if len > 1 << 20 { 50 } else { 2000 };
        bench(
            "crc32",
            &format!("table/{label}"),
            samples,
            Some(len),
            || update_crc32_table(0xFFFF_FFFF, bytes),
        );
        bench(
            "crc32",
            &format!("clmul/{label}"),
            samples,
            Some(len),
            || update_crc32(0xFFFF_FFFF, bytes),
        );
    }
}
