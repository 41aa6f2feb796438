//! A guided tour of Figure 6 and Tables 1–2: encode a tiny 4-way stream,
//! watch the backward scan pick renormalization points, and print the
//! metadata exactly like the paper's tables.
//!
//! ```sh
//! cargo run --example figure6_walkthrough
//! ```

use recoil::core::{metadata_to_bytes, plan_from_events};
use recoil::prelude::*;

fn main() {
    // A small 4-way interleaved stream so individual renorm events are
    // visible (the paper's figures use W = 4 for the same reason).
    let data: Vec<u8> = (0..64u32)
        .map(|i| [7u8, 200, 13, 250, 99][(i % 5) as usize])
        .collect();
    let model = StaticModelProvider::new(CdfTable::of_bytes(&data, 8));

    let mut enc = InterleavedEncoder::new(&model, 4);
    let mut events = VecSink::new();
    enc.encode_all_fast(&data, &mut events)
        .expect("the model was built from this data");
    let stream = enc.finish();

    println!(
        "encoded {} symbols into {} renorm words\n",
        data.len(),
        stream.words.len()
    );
    println!("renormalization events (== words, because b >= n):");
    println!(
        "{:>7} | {:>4} | {:>10} | {:>9}",
        "offset", "lane", "symbol idx", "state<2^16"
    );
    for e in events.events.iter().take(12) {
        println!(
            "{:>7} | {:>4} | {:>10} | {:#9x}",
            e.offset,
            e.lane + 1, // paper lanes are 1-based
            e.pos + 1,  // paper symbol indices are 1-based
            e.state
        );
    }
    println!("   ... ({} more)\n", events.events.len().saturating_sub(12));

    // Plan one split in the middle (M = 2 segments) — the planner runs the
    // backward scan of §4.1 and the H(t, ts) heuristic of Def. 4.1.
    let meta = plan_from_events(
        &events.events,
        4,
        stream.num_symbols,
        stream.words.len() as u64,
        8,
        2,
    );
    let split = &meta.splits[0];
    println!(
        "chosen split: bitstream offset {}, P = s_{}, sync section s_{}..=s_{}",
        split.offset,
        split.split_pos() + 1,
        split.sync_start() + 1,
        split.split_pos() + 1
    );

    // Table 2, our stream's edition.
    println!("\nCodec metadata (cf. Table 2):");
    print!("{:>20}", "Intermediate States");
    for li in split.lanes.iter() {
        print!(" | {:#8x}", li.state);
    }
    print!("\n{:>20}", "Symbol Indices");
    for li in split.lanes.iter() {
        print!(" | {:>8}", li.pos + 1);
    }
    print!("\n{:>20}", "Symbol Group IDs");
    for li in split.lanes.iter() {
        print!(" | {:>8}", li.pos / 4 + 1);
    }
    let anchor = split.lanes.iter().map(|l| l.pos / 4).max().unwrap();
    print!("\n{:>20} | {:>8}", "Max (Anchor)", anchor + 1);
    print!("\n{:>20}", "Differences");
    for li in split.lanes.iter() {
        print!(" | {:>8}", (li.pos / 4) as i64 - anchor as i64);
    }
    println!();

    // Serialize (§4.3 difference coding) and decode both segments.
    let bytes = metadata_to_bytes(&meta);
    println!(
        "\nserialized metadata: {} bytes for {} segments",
        bytes.len(),
        meta.num_segments()
    );

    let mut decoded = vec![0u8; data.len()];
    let request = DecodeRequest::whole(&stream, &meta, DecodeModel::Static(&model), &mut decoded);
    ScalarBackend.decode(request.unwrap()).unwrap();
    assert_eq!(decoded, data);
    println!("parallel 3-phase decode matches the input — done.");
}
