//! Two racing publishes of one name run exactly one encode.
//!
//! The witness is the process-wide decode-table build counter: every encode
//! stands up one `StaticModelProvider` (one `DecodeTables::build`) before it
//! touches the payload, and nothing else in a publish does. This lives in
//! its own test binary so no concurrent test moves the counter.

use recoil_core::codec::EncoderConfig;
use recoil_core::RecoilError;
use recoil_models::decode_table_builds;
use recoil_server::ContentServer;

#[test]
fn racing_same_name_publishes_run_exactly_one_encode() {
    // Regression: the old fast-fail read the store *before* encoding, so
    // two concurrent publishes of one name could both pass it, both run the
    // expensive encode, and one would lose only at the final store insert.
    // The in-flight claim makes the loser fail before encoding.
    let data: Vec<u8> = (0..600_000u32)
        .map(|i| (i.wrapping_mul(2654435761) >> 23) as u8)
        .collect();
    let config = EncoderConfig {
        max_segments: 32,
        ..EncoderConfig::default()
    };
    let server = ContentServer::new();
    let barrier = std::sync::Barrier::new(2);
    let before = decode_table_builds();
    let outcomes: Vec<Result<_, _>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    server.publish("contested", &data, &config)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let oks = outcomes.iter().filter(|r| r.is_ok()).count();
    assert_eq!(oks, 1, "exactly one publisher wins");
    assert!(outcomes
        .iter()
        .any(|r| matches!(r, Err(RecoilError::AlreadyPublished { name }) if name == "contested")));
    assert_eq!(
        decode_table_builds() - before,
        1,
        "the losing publish must fail before encoding"
    );
    // The winner's content is served normally.
    assert!(server.request("contested", 4).is_ok());
}
