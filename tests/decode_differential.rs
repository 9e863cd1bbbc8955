//! Differential decode property test: every decoder, on both execution backends, against
//! the sequential reference decoder (`huffman::decode_flat`).
//!
//! Seeded, dependency-free: random canonical codebooks — including the two edge shapes a
//! table-driven fast path is most likely to get wrong, a single-symbol code and a code
//! that reaches `MAX_CODE_LEN` — and random streams of zero, one and many symbols. For
//! every case the full decode, the batched wave, and ranged decodes over random windows
//! must all agree with the reference, and hybrid payloads must round-trip through the
//! `sz` dispatch alone and inside a mixed dense+hybrid wave.

use huffdec::core_decoders::{
    compress_for, decode, decode_batch, decode_range, prepare_decode, Backend, CompressedPayload,
    CpuBackend, DecoderKind, EncodedStream,
};
use huffdec::datasets::Rng;
use huffdec::gpu_sim::{Gpu, GpuConfig};
use huffdec::huffman::{decode_flat, encode_chunked, encode_flat, Codebook, MAX_CODE_LEN};
use huffdec::sz::{decode_payload, decode_payload_batch};
use huffdec_hybrid::compress_hybrid;

const ALPHABET: usize = 1024;

fn backends() -> Vec<Box<dyn Backend>> {
    vec![
        Box::new(Gpu::with_host_threads(GpuConfig::test_tiny(), 2)),
        Box::new(CpuBackend::with_host_threads(GpuConfig::test_tiny(), 2)),
    ]
}

/// Code lengths of a random full binary tree with `leaves` leaves, none deeper than
/// `MAX_CODE_LEN`: start from the two-leaf tree and keep splitting a random leaf.
fn random_tree_lengths(rng: &mut Rng, leaves: usize) -> Vec<u8> {
    let mut depths = vec![1u8, 1];
    while depths.len() < leaves {
        let i = rng.gen_index(depths.len());
        if depths[i] < MAX_CODE_LEN {
            depths[i] += 1;
            depths.push(depths[i]);
        }
    }
    depths
}

/// A codebook giving `depths` to randomly chosen distinct symbols of the alphabet, and
/// the symbols it codes.
fn codebook_from_depths(rng: &mut Rng, depths: &[u8]) -> (Codebook, Vec<u16>) {
    let mut lengths = vec![0u8; ALPHABET];
    let mut coded = Vec::with_capacity(depths.len());
    for &depth in depths {
        let symbol = loop {
            let s = rng.gen_index(ALPHABET);
            if lengths[s] == 0 {
                break s;
            }
        };
        lengths[symbol] = depth;
        coded.push(symbol as u16);
    }
    (Codebook::from_lengths(&lengths), coded)
}

/// The codebooks of one run: a single-symbol code, the maximally skewed code
/// (lengths 1, 2, …, `MAX_CODE_LEN`, `MAX_CODE_LEN`), and random trees of varied size.
fn codebooks(rng: &mut Rng) -> Vec<(Codebook, Vec<u16>)> {
    let mut chain: Vec<u8> = (1..=MAX_CODE_LEN).collect();
    chain.push(MAX_CODE_LEN);
    let mut books = vec![
        codebook_from_depths(rng, &[1]),
        codebook_from_depths(rng, &chain),
    ];
    for leaves in [2, 3, 17, 200, 1024] {
        let depths = random_tree_lengths(rng, leaves);
        books.push(codebook_from_depths(rng, &depths));
    }
    books
}

fn random_stream(rng: &mut Rng, coded: &[u16], len: usize) -> Vec<u16> {
    (0..len)
        .map(|_| coded[rng.gen_index(coded.len())])
        .collect()
}

/// `symbols` under `codebook` in the stream format `kind` consumes.
fn payload_for(kind: DecoderKind, codebook: &Codebook, symbols: &[u16]) -> CompressedPayload {
    match kind {
        DecoderKind::CuszBaseline => CompressedPayload::Chunked {
            encoded: encode_chunked(codebook, symbols, 1000),
            codebook: codebook.clone(),
        },
        DecoderKind::OptimizedGapArray => {
            CompressedPayload::Flat(EncodedStream::encode_with_gap_array(codebook, symbols))
        }
        _ => CompressedPayload::Flat(EncodedStream::encode(codebook, symbols)),
    }
}

#[test]
fn every_decoder_matches_the_sequential_reference_on_both_backends() {
    let mut rng = Rng::seed_from_u64(0xD1FF_DEC0DE);
    let backends = backends();
    for (book, (codebook, coded)) in codebooks(&mut rng).into_iter().enumerate() {
        for len in [0, 1, 2_000 + rng.gen_index(18_000)] {
            let symbols = random_stream(&mut rng, &coded, len);
            let reference = decode_flat(&codebook, &encode_flat(&codebook, &symbols))
                .expect("the reference decodes what the encoder wrote");
            assert_eq!(reference, symbols);
            let case = format!("codebook {} ({} codes), {} symbols", book, coded.len(), len);

            let payloads: Vec<(DecoderKind, CompressedPayload)> = DecoderKind::all()
                .into_iter()
                .map(|kind| (kind, payload_for(kind, &codebook, &symbols)))
                .collect();
            let items: Vec<(DecoderKind, &CompressedPayload)> =
                payloads.iter().map(|(kind, p)| (*kind, p)).collect();
            for gpu in &backends {
                let gpu = gpu.as_ref();
                let (batch, _) = decode_batch(gpu, &items).unwrap();
                for (&(kind, payload), batched) in items.iter().zip(&batch) {
                    let what = format!("{:?} on {}: {}", kind, gpu.kind(), case);
                    let full = decode(gpu, kind, payload).unwrap();
                    assert_eq!(full.symbols, reference, "decode, {}", what);
                    assert_eq!(batched.symbols, reference, "decode_batch, {}", what);

                    let prepared = prepare_decode(gpu, kind, payload).unwrap();
                    for _ in 0..3 {
                        let start = rng.gen_index(len + 1);
                        let count = rng.gen_index(len - start + 1).min(700);
                        let range =
                            decode_range(gpu, kind, payload, &prepared, start as u64, count as u64)
                                .unwrap();
                        assert_eq!(
                            range.symbols,
                            &reference[start..start + count],
                            "decode_range [{}, +{}), {}",
                            start,
                            count,
                            what
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn hybrid_payloads_roundtrip_alone_and_inside_a_mixed_wave() {
    let mut rng = Rng::seed_from_u64(0x4B1D_5EED);
    let zero = (ALPHABET / 2) as u16;
    let backends = backends();
    for zero_pct in [0, 60, 97, 100] {
        for len in [0, 1, 3_000 + rng.gen_index(9_000)] {
            let codes: Vec<u16> = (0..len)
                .map(|_| {
                    if rng.gen_index(100) < zero_pct {
                        zero
                    } else {
                        (zero as usize + 1 + rng.gen_index(60)) as u16
                    }
                })
                .collect();
            let hybrid = compress_hybrid(&codes, ALPHABET);
            let dense = compress_for(DecoderKind::OptimizedGapArray, &codes, ALPHABET);
            let items = [
                (DecoderKind::RleHybrid, &hybrid),
                (DecoderKind::OptimizedGapArray, &dense),
                (DecoderKind::RleHybrid, &hybrid),
            ];
            for gpu in &backends {
                let gpu = gpu.as_ref();
                let what = format!("{}% zeros, {} codes on {}", zero_pct, len, gpu.kind());
                let alone = decode_payload(gpu, DecoderKind::RleHybrid, &hybrid).unwrap();
                assert_eq!(alone.symbols, codes, "decode_payload, {}", what);
                let (wave, stats) = decode_payload_batch(gpu, &items).unwrap();
                assert_eq!(stats.fields, 3);
                for result in &wave {
                    assert_eq!(result.symbols, codes, "decode_payload_batch, {}", what);
                }
            }
        }
    }
}
