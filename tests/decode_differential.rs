//! Differential decode property test: every decoder, on both execution backends, against
//! the sequential reference decoder (`huffman::decode_flat`).
//!
//! Seeded, dependency-free: random canonical codebooks — including the two edge shapes a
//! table-driven fast path is most likely to get wrong, a single-symbol code and a code
//! that reaches `MAX_CODE_LEN` — and random streams of zero, one and many symbols. For
//! every case the full decode, the batched wave, and ranged decodes over random windows
//! must all agree with the reference, and hybrid payloads must round-trip through the
//! `sz` dispatch alone and inside a mixed dense+hybrid wave.
//!
//! `decode_flat` runs on the same decode table as everything it is compared with, so the
//! net also has an independent oracle: a bit-at-a-time decoder built from
//! `Codebook::codewords()` alone. `Codebook::decode_at` must equal it at every bit offset
//! and every limit — for full, single-symbol, `MAX_CODE_LEN`, incomplete (Kraft sum < 1)
//! and short/long-versus-the-direct-lookup codebooks — and the same streams must still
//! decode to the oracle's symbols after a trip through the `HFZ1` and `HFZ2` containers,
//! where the table is built at archive-open time.

use std::collections::HashMap;

use huffdec::container::{
    payload_to_bytes, read_one_archive, read_snapshot_with_info, snapshot_to_bytes_v2, to_bytes_as,
    FormatVersion, SectionKind, Snapshot,
};
use huffdec::core_decoders::{
    compress_for, decode, decode_batch, decode_range, prepare_decode, Backend, CompressedPayload,
    CpuBackend, DecoderKind, EncodedStream,
};
use huffdec::datasets::Rng;
use huffdec::gpu_sim::{Gpu, GpuConfig};
use huffdec::huffman::{
    decode_flat, encode_chunked, encode_flat, BitReader, Codebook, MAX_CODE_LEN,
};
use huffdec::{Compressed, SzConfig};
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
                let alone = decode(gpu, DecoderKind::RleHybrid, &hybrid).unwrap();
                assert_eq!(alone.symbols, codes, "decode, {}", what);
                let (wave, stats) = decode_batch(gpu, &items).unwrap();
                assert_eq!(stats.fields, 3);
                for result in &wave {
                    assert_eq!(result.symbols, codes, "decode_batch, {}", what);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------------------
// The independent oracle.
// ---------------------------------------------------------------------------------------

/// A bit-at-a-time Huffman decoder that knows nothing but the codewords: it reads one
/// bit, asks whether the bits so far are a codeword, and goes on. It states the
/// `decode_at` contract in the plainest terms available — `None` once a bit at or past
/// the limit is needed, `None` once no codeword can match, and a code with no codeword
/// starting in a 1 bit (the single-symbol book) reads its first bit as 0.
struct Oracle {
    by_code: HashMap<(u8, u32), u16>,
    no_leading_one: bool,
}

impl Oracle {
    fn new(codebook: &Codebook) -> Oracle {
        let coded = || {
            let words = codebook.codewords().iter().enumerate();
            words.filter(|(_, c)| c.len > 0)
        };
        Oracle {
            by_code: coded()
                .map(|(symbol, c)| ((c.len, c.bits), symbol as u16))
                .collect(),
            no_leading_one: coded().all(|(_, c)| c.bits >> (c.len - 1) == 0),
        }
    }

    fn decode_at(&self, reader: &BitReader<'_>, pos: u64, limit: u64) -> Option<(u16, u8)> {
        let mut bits = 0u32;
        for len in 1..=MAX_CODE_LEN {
            let at = pos + len as u64 - 1;
            if at >= limit {
                return None;
            }
            let bit = reader.bit(at)? && !(len == 1 && self.no_leading_one);
            bits = bits << 1 | bit as u32;
            if let Some(&symbol) = self.by_code.get(&(len, bits)) {
                return Some((symbol, len));
            }
        }
        None
    }

    /// The first `count` symbols of the stream, decoded back to back from bit 0.
    fn decode_all(&self, units: &[u32], bit_len: u64, count: usize) -> Vec<u16> {
        let reader = BitReader::new(units, bit_len);
        let mut pos = 0u64;
        (0..count)
            .map(|_| {
                let (symbol, len) = self
                    .decode_at(&reader, pos, bit_len)
                    .expect("the oracle decodes what the encoder wrote");
                pos += len as u64;
                symbol
            })
            .collect()
    }
}

/// An incomplete code: `depths` given to random symbols through `from_length_pairs`, the
/// constructor archives use and the only one that admits a Kraft sum below 1.
fn incomplete_codebook(rng: &mut Rng, depths: &[u8]) -> (Codebook, Vec<u16>) {
    let (full, coded) = codebook_from_depths(rng, depths);
    let pairs: Vec<(u16, u8)> = full.length_pairs();
    let kept: Vec<(u16, u8)> = pairs
        .iter()
        .copied()
        .filter(|_| rng.gen_index(3) > 0)
        .collect();
    let kept = if kept.is_empty() || kept.len() == pairs.len() {
        pairs[..pairs.len() - 1].to_vec()
    } else {
        kept
    };
    let coded = coded
        .into_iter()
        .filter(|s| kept.iter().any(|(k, _)| k == s))
        .collect();
    (Codebook::from_length_pairs(ALPHABET, &kept).unwrap(), coded)
}

/// The shapes `decode_at` must get right, beyond `codebooks()`: incomplete codes (among
/// them ones whose surviving codewords all start with 0, and a lone codeword longer than
/// one bit), and codes whose longest codeword sits below, at and above the 11 bits the
/// direct lookup resolves.
fn oracle_codebooks(rng: &mut Rng) -> Vec<(Codebook, Vec<u16>)> {
    let mut books = codebooks(rng);
    for leaves in [3, 9, 40, 300] {
        let depths = random_tree_lengths(rng, leaves);
        books.push(incomplete_codebook(rng, &depths));
    }
    let pairs = |pairs: &[(u16, u8)]| {
        let coded = pairs.iter().map(|&(s, _)| s).collect();
        (Codebook::from_length_pairs(ALPHABET, pairs).unwrap(), coded)
    };
    books.push(pairs(&[(5, 3)]));
    books.push(pairs(&[(900, 2), (17, 2)]));
    books.push(pairs(&[(1, 2), (2, 13), (3, 13), (4, MAX_CODE_LEN)]));
    // Balanced trees: every code 3, 11 and 12 bits long (the last with 8 codes missing).
    for (leaves, depth) in [(8usize, 3u8), (1024, 11), (1016, 12)] {
        books.push(codebook_from_depths(
            rng,
            &vec![depth; leaves.min(ALPHABET)],
        ));
    }
    // A chain that crosses the lookup width: lengths 1..=14, then two of 15.
    let mut chain: Vec<u8> = (1..=14).collect();
    chain.extend([15, 15]);
    books.push(codebook_from_depths(rng, &chain));
    books
}

#[test]
fn decode_at_matches_the_bit_at_a_time_oracle_at_every_offset_and_limit() {
    let mut rng = Rng::seed_from_u64(0x0D_AC1E);
    for (book, (codebook, coded)) in oracle_codebooks(&mut rng).into_iter().enumerate() {
        let oracle = Oracle::new(&codebook);
        // A valid stream, and raw random bits (the only way to reach the invalid
        // prefixes of an incomplete code), each ending mid-unit so the last unit holds
        // stored bits past `bit_len`.
        let encoded = encode_flat(&codebook, &random_stream(&mut rng, &coded, 60));
        let mut noise: Vec<u32> = (0..9).map(|_| rng.gen_index(1 << 32) as u32).collect();
        noise.extend_from_slice(&encoded.units);
        let noise_bits = 9 * 32 - 1 - rng.gen_index(30) as u64;
        let streams = [
            (&encoded.units[..], encoded.bit_len),
            (&noise[..9], noise_bits),
            (&noise[..], noise.len() as u64 * 32),
        ];
        for (units, bit_len) in streams {
            let reader = BitReader::new(units, bit_len);
            for pos in 0..bit_len + 3 {
                let limits = (pos..pos + 35).chain([bit_len, bit_len + 40, u64::MAX]);
                for limit in limits {
                    assert_eq!(
                        codebook.decode_at(&reader, pos, limit),
                        oracle.decode_at(&reader, pos, limit.min(bit_len)),
                        "codebook {} ({} codes), {} bits, pos {}, limit {}",
                        book,
                        coded.len(),
                        bit_len,
                        pos,
                        limit
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------------------
// Through the containers.
// ---------------------------------------------------------------------------------------

/// `payload` as a field archive: a one-dimensional field of `len` codes, no outliers.
fn field_of(kind: DecoderKind, payload: CompressedPayload, len: usize) -> Compressed {
    Compressed {
        payload,
        outliers: Vec::new(),
        dims: huffdec::datasets::Dims::D1(len),
        step: 1.0,
        config: SzConfig {
            decoder: kind,
            alphabet_size: ALPHABET,
            ..SzConfig::default()
        },
        decoded_crc: None,
    }
}

#[test]
fn streams_read_back_from_hfz1_and_hfz2_decode_to_the_oracle_on_both_backends() {
    let mut rng = Rng::seed_from_u64(0xF11E_F0A7);
    let backends = backends();
    let zero = (ALPHABET / 2) as u16;
    for (book, (codebook, coded)) in codebooks(&mut rng).into_iter().enumerate() {
        let oracle = Oracle::new(&codebook);
        for len in [1, 1_500 + rng.gen_index(6_000)] {
            let symbols = random_stream(&mut rng, &coded, len);
            let flat = encode_flat(&codebook, &symbols);
            let expected = oracle.decode_all(&flat.units, flat.bit_len, len);
            assert_eq!(expected, symbols);

            // One field per decoder, all under the same codebook (so the HFZ2 snapshot
            // stores it once and every dense shard carries a dictionary reference), plus
            // a hybrid field, which brings its own two inline codebooks.
            let mut fields: Vec<(String, Compressed, Vec<u16>)> = DecoderKind::all()
                .into_iter()
                .map(|kind| {
                    let payload = payload_for(kind, &codebook, &symbols);
                    (
                        format!("{:?}", kind),
                        field_of(kind, payload, len),
                        expected.clone(),
                    )
                })
                .collect();
            let sparse: Vec<u16> = symbols
                .iter()
                .map(|&s| if rng.gen_index(4) > 0 { zero } else { s })
                .collect();
            let hybrid = field_of(
                DecoderKind::RleHybrid,
                compress_hybrid(&sparse, ALPHABET),
                len,
            );
            fields.push(("hybrid".into(), hybrid, sparse));

            let named: Vec<(&str, &Compressed)> = fields
                .iter()
                .map(|(name, c, _)| (name.as_str(), c))
                .collect();
            let snapshot_bytes = snapshot_to_bytes_v2(&named).unwrap();
            let snapshot = Snapshot::parse(&snapshot_bytes).unwrap();
            assert_eq!(snapshot.codebook_dict().map(|d| d.len()), Some(1));

            for (index, (name, field, expected)) in fields.iter().enumerate() {
                let kind = field.decoder();
                let mut read_back = vec![
                    (
                        "HFZ2 standalone",
                        read_one_archive(&to_bytes_as(field, FormatVersion::V2).unwrap()).unwrap(),
                    ),
                    ("HFZ2 snapshot shard", snapshot.read_field(index).unwrap()),
                ];
                if kind != DecoderKind::RleHybrid {
                    let bytes = payload_to_bytes(&field.payload, kind).unwrap();
                    read_back.push(("HFZ1 payload", read_one_archive(&bytes).unwrap()));
                }
                for (format, archive) in &read_back {
                    for gpu in &backends {
                        let decoded = decode(gpu.as_ref(), kind, archive.payload()).unwrap();
                        assert_eq!(
                            &decoded.symbols,
                            expected,
                            "{} via {} on {}: codebook {}, {} symbols",
                            name,
                            format,
                            gpu.kind(),
                            book,
                            len
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn a_snapshot_of_32_fields_under_three_codebooks_parses_three_pair_tables() {
    let mut rng = Rng::seed_from_u64(0x3C0D_EB00);
    let books: Vec<(Codebook, Vec<u16>)> = [5, 60, 400]
        .into_iter()
        .map(|leaves| {
            let depths = random_tree_lengths(&mut rng, leaves);
            codebook_from_depths(&mut rng, &depths)
        })
        .collect();
    let fields: Vec<(String, Compressed, usize)> = (0..32)
        .map(|i| {
            let (codebook, coded) = &books[i % 3];
            let kind = DecoderKind::all()[i % 4];
            let symbols = random_stream(&mut rng, coded, 500 + i);
            let payload = payload_for(kind, codebook, &symbols);
            (
                format!("f{}", i),
                field_of(kind, payload, symbols.len()),
                i % 3,
            )
        })
        .collect();
    let named: Vec<(&str, &Compressed)> = fields
        .iter()
        .map(|(name, c, _)| (name.as_str(), c))
        .collect();
    let bytes = snapshot_to_bytes_v2(&named).unwrap();

    // The file holds three pair tables — the dictionary's — and no shard has its own, so
    // opening it builds three decode tables; each field's codebook is a clone of its entry.
    let dict = Snapshot::parse(&bytes)
        .unwrap()
        .codebook_dict()
        .cloned()
        .unwrap();
    assert_eq!(dict.len(), 3);
    let (_, read) = read_snapshot_with_info(&bytes).unwrap();
    assert_eq!(read.len(), 32);
    for ((info, archive), (name, _, book)) in read.iter().zip(&fields) {
        assert!(
            info.sections
                .iter()
                .all(|s| s.kind != SectionKind::Codebook),
            "{} stores an inline codebook",
            name
        );
        let entry = dict
            .get(info.dict_id.expect("a dictionary reference"))
            .unwrap();
        assert_eq!(entry, &books[*book].0, "{}", name);
        let codebook = match archive.payload() {
            CompressedPayload::Chunked { codebook, .. } => codebook,
            CompressedPayload::Flat(stream) => &stream.codebook,
            CompressedPayload::Hybrid(_) => unreachable!("every field is dense"),
        };
        assert_eq!(codebook, entry, "{}", name);
    }
}
