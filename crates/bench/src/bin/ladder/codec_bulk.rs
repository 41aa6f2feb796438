//! Workload `codec_bulk`: 8 MiB of text-like bytes through `models`,
//! `rans`, `simd` and `core` on one thread. No server, no socket.
//!
//! Op: `Codec::decode_with_into(&AutoBackend::new(), ..)` of the whole
//! payload. Every round runs every call once (the op four times), never
//! phase by phase, so drift lands on all of them alike.

use crate::harness::{primary_readings, Check, Ctx, Reading, Shifted, Trial};
use crate::stats::Samples;
use crate::trace::timed;
use recoil::prelude::*;
use recoil::rans::decode_interleaved_into;
use std::time::Instant;

const PAYLOAD: usize = 8 << 20;
const ENTROPY_BITS: f64 = 5.1;
const WAYS: u32 = 32;
const QUANT_BITS: u32 = 11;
const MAX_SEGMENTS: u64 = 64;
/// Widths whose combine is timed; 256 is sized only.
const COMBINE_WIDTHS: [u64; 3] = [1, 2, 16];
const PUSH_BYTES: usize = 64 << 10;
const DECODES_PER_ROUND: usize = 4;

#[derive(Default)]
struct Series {
    decode: Samples,
    encode: Samples,
    decode_scalar: Samples,
    decode_threads: Samples,
    models_build: Samples,
    rans_encode: Samples,
    rans_decode: Samples,
    combine: [Samples; COMBINE_WIDTHS.len()],
    metadata_parse: Samples,
    incremental: Samples,
}

fn build_model(data: &[u8]) -> StaticModelProvider {
    StaticModelProvider::new(CdfTable::of_bytes(data, QUANT_BITS))
}

pub fn trial(ctx: &mut Ctx) -> Trial {
    let t_setup = Instant::now();
    let mut check = Check::default();
    let data = Shifted::copy_of(
        &recoil::data::text_like_bytes(PAYLOAD, ENTROPY_BITS, ctx.seed),
        ctx.trial,
    );
    let data = data.as_ref();
    let mut out = Shifted::zeroed(PAYLOAD, ctx.trial);
    let codec = Codec::builder()
        .ways(WAYS)
        .quant_bits(QUANT_BITS)
        .max_segments(MAX_SEGMENTS)
        .build()
        .expect("a valid codec configuration");
    let auto = AutoBackend::new();
    let threads = AutoBackend::with_threads(ctx.nproc);
    let model = build_model(data);
    let reference = codec.encode(data).expect("text-like bytes encode");
    let meta = &reference.container.metadata;
    let stream = &reference.container.stream;
    let meta_bytes = metadata_to_bytes(meta);
    let stream_bytes: Vec<u8> = stream.words.iter().flat_map(|w| w.to_le_bytes()).collect();
    let sized = |w: u64| {
        try_combine_splits(meta, w)
            .map(|m| metadata_to_bytes(&m).len())
            .unwrap_or(0)
    };
    let metadata_sizes = [sized(1), sized(2), sized(16), sized(256)];
    check.that(
        metadata_sizes.windows(2).all(|p| 0 < p[0] && p[0] <= p[1]),
        || format!("metadata bytes not monotone in width: {metadata_sizes:?}"),
    );
    // Warm-up: every decoder once, checked.
    for backend in [&auto as &dyn DecodeBackend, &threads, &ScalarBackend] {
        let res = codec.decode_with_into(backend, &reference, out.as_mut());
        check.ok("warm-up decode", res);
        check.also(out.as_ref() == data, || {
            format!("{} decoded other bytes", backend.name())
        });
    }
    let setup_s = t_setup.elapsed().as_secs_f64();

    let mut s = Series::default();
    let tr = &mut ctx.tracer;
    let deadline = Instant::now() + ctx.budget;
    let mut op = (ctx.trial as u64) << 32;
    loop {
        op += 1;
        let (built, ns) = timed(tr, "models.build", op, || build_model(data));
        s.models_build.push(ns);
        check.that(built.table().freqs() == model.table().freqs(), || {
            "model build is not deterministic".into()
        });

        // Traced, the facade encode is driven one layer down so the model
        // build is a child span of its own; untraced it is the one call.
        let parent = tr.as_mut().map(|t| t.begin("core.encode", op));
        let t0 = Instant::now();
        let encoded = if parent.is_some() {
            let (m, _) = timed(tr, "models.build", op, || build_model(data));
            let (c, _) = timed(tr, "core.encode_with_provider", op, || {
                codec.encode_with_provider(data, &m)
            });
            c.map(|container| Encoded {
                container,
                model: m,
                symbol_bits: 8,
            })
        } else {
            codec.encode(data)
        };
        s.encode.push(t0.elapsed().as_nanos() as u64);
        if let (Some(t), Some(id)) = (tr.as_mut(), parent) {
            t.end(id);
        }
        if let Some(e) = check.ok("Codec::encode", encoded) {
            check.also(
                e.container.stream == *stream && e.container.metadata == *meta,
                || "encode is not deterministic".into(),
            );
        }

        let (kernel, ns) = timed(tr, "rans.encode_all_fast", op, || {
            let mut enc = InterleavedEncoder::new(&model, WAYS);
            enc.encode_all_fast(data, &mut NullSink)
                .map(|()| enc.finish())
        });
        s.rans_encode.push(ns);
        if let Some(k) = check.ok("InterleavedEncoder::encode_all_fast", kernel) {
            check.also(k == *stream, || {
                "kernel stream differs from the facade's".into()
            });
        }

        let mut decode =
            |name: &'static str,
             series: &mut Samples,
             check: &mut Check,
             run: &mut dyn FnMut(&mut [u8]) -> Result<(), String>| {
                out.as_mut()[..64].fill(0);
                let (res, ns) = timed(tr, name, op, || run(out.as_mut()));
                series.push(ns);
                check.ok(name, res);
                check.also(out.as_ref() == data, || {
                    format!("{name} decoded other bytes")
                });
            };
        let via = |backend: &dyn DecodeBackend, out: &mut [u8]| {
            codec
                .decode_with_into(backend, &reference, out)
                .map_err(|e| e.to_string())
        };
        decode(
            "core.decode_scalar",
            &mut s.decode_scalar,
            &mut check,
            &mut |o| via(&ScalarBackend, o),
        );
        decode(
            "rans.decode_interleaved_into",
            &mut s.rans_decode,
            &mut check,
            &mut |o| decode_interleaved_into(stream, &model, o).map_err(|e| e.to_string()),
        );
        for _ in 0..DECODES_PER_ROUND {
            decode("simd.decode_auto", &mut s.decode, &mut check, &mut |o| {
                via(&auto, o)
            });
        }
        decode(
            "simd.decode_auto_threads",
            &mut s.decode_threads,
            &mut check,
            &mut |o| via(&threads, o),
        );
        decode(
            "core.incremental",
            &mut s.incremental,
            &mut check,
            &mut |o| {
                let mut incr = IncrementalDecoder::new(
                    meta.clone(),
                    stream.final_states.clone(),
                    reference.model.clone(),
                )
                .map_err(|e| e.to_string())?;
                for piece in stream_bytes.chunks(PUSH_BYTES) {
                    incr.push_bytes(piece).map_err(|e| e.to_string())?;
                    incr.decode_ready_segments(&auto, o)
                        .map_err(|e| e.to_string())?;
                }
                if incr.is_finished() {
                    Ok(())
                } else {
                    Err("segments left undecoded".into())
                }
            },
        );

        for (w, series) in COMBINE_WIDTHS.iter().zip(s.combine.iter_mut()) {
            let (combined, ns) = timed(tr, "core.try_combine_splits", op, || {
                try_combine_splits(meta, *w)
            });
            series.push(ns);
            if let Some(c) = check.ok("try_combine_splits", combined) {
                check.also(c.num_segments() == (*w).min(meta.num_segments()), || {
                    format!("combine to {w} gave {} segments", c.num_segments())
                });
            }
        }
        let (parsed, ns) = timed(tr, "core.metadata_from_bytes", op, || {
            metadata_from_bytes(&meta_bytes)
        });
        s.metadata_parse.push(ns);
        if let Some(p) = check.ok("metadata_from_bytes", parsed) {
            check.also(p == *meta, || "metadata does not round-trip".into());
        }

        if Instant::now() >= deadline {
            break;
        }
    }

    let mb = |name, samples: &mut Samples| Reading::mb_per_s(name, PAYLOAD as u64, samples);
    let encode = mb("core.encode_mb_s", &mut s.encode);
    let auto_mb = PAYLOAD as f64 * 1e3 / s.decode.q(0.5).max(1.0);
    let scalar = mb("core.decode_scalar_mb_s", &mut s.decode_scalar);
    let rans_enc = mb("rans.encode_mb_s", &mut s.rans_encode);
    let rans_dec = mb("rans.decode_mb_s", &mut s.rans_decode);
    let threads_mb = PAYLOAD as f64 * 1e3 / s.decode_threads.q(0.5).max(1.0);
    let mut readings = primary_readings(&mut s.decode).to_vec();
    readings.extend([
        Reading::exact("setup_s", setup_s),
        Reading::exact(
            "size_pct",
            100.0 * reference.total_bytes() as f64 / PAYLOAD as f64,
        ),
        Reading::quantile("models.build_ms", &mut s.models_build, 0.5, 1e6),
        Reading::exact(
            "rans.words_per_ksym",
            stream.words.len() as f64 * 1e3 / PAYLOAD as f64,
        ),
        Reading::exact("core.encode_facade_ratio", encode.value / rans_enc.value),
        Reading::exact("core.decode_facade_ratio", scalar.value / rans_dec.value),
        Reading::exact("simd.speedup_over_scalar", auto_mb / scalar.value),
        Reading::exact("parallel.decode_speedup", threads_mb / auto_mb),
        Reading::quantile("core.combine_us_w1", &mut s.combine[0], 0.5, 1e3),
        Reading::quantile("core.combine_us_w2", &mut s.combine[1], 0.5, 1e3),
        Reading::quantile("core.combine_us_w16", &mut s.combine[2], 0.5, 1e3),
        Reading::exact("core.metadata_bytes_w1", metadata_sizes[0] as f64),
        Reading::exact("core.metadata_bytes_w2", metadata_sizes[1] as f64),
        Reading::exact("core.metadata_bytes_w16", metadata_sizes[2] as f64),
        Reading::exact("core.metadata_bytes_w256", metadata_sizes[3] as f64),
        Reading::quantile("core.metadata_parse_us", &mut s.metadata_parse, 0.5, 1e3),
        mb("core.incremental_mb_s", &mut s.incremental),
        encode,
        scalar,
        rans_enc,
        rans_dec,
    ]);
    Trial {
        check,
        readings,
        payload_bytes: PAYLOAD as u64,
    }
}
