//! `Codebook::decode_run` against the symbol-at-a-time loop it replaced in every decoder.
//!
//! `decode_at` is checked bit by bit against a tree-walking oracle in the workspace's
//! `tests/decode_differential.rs`; this file checks the one loop over it. For every start
//! bit and a grid of `stop`, `limit` and `max_symbols`, the run's `(end_bit, count)` and
//! the `(index, symbol)` sequence handed to `emit` must equal a plain loop over
//! `decode_at`. Whatever later replaces the body of `decode_run` (a multi-symbol table, a
//! register-resident bit buffer) has to pass this unchanged.

use huffman::{BitReader, BitWriter, Codebook};

/// Splitmix64: enough randomness for streams, with no dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The four shapes of code the decoders meet, each with the symbols that have a codeword.
fn codebooks() -> Vec<(&'static str, Codebook)> {
    // Quantization-code-like: geometric magnitudes around the centre bin.
    let mut rng = Rng(7);
    let quant: Vec<u16> = (0..4000)
        .map(|_| {
            let r = rng.next();
            let mag = (r.trailing_zeros().min(9)) as i32;
            (512 + if r >> 63 == 1 { mag } else { -mag }) as u16
        })
        .collect();
    // Lengths 1..=14, then two of 15: a chain that crosses the direct-lookup width.
    let mut chain: Vec<u8> = (1..=14).collect();
    chain.extend([15, 15]);
    vec![
        ("quant-like", Codebook::from_symbols(&quant, 1024)),
        // Codes 00, 01, 100 and one 12-bit code: Kraft sum < 1, so some prefixes are dead.
        (
            "incomplete",
            Codebook::from_length_pairs(8, &[(0, 2), (1, 2), (2, 3), (3, 12)]).unwrap(),
        ),
        ("single-symbol", Codebook::from_symbols(&[7u16; 10], 16)),
        ("15-bit chain", Codebook::from_lengths(&chain)),
    ]
}

/// Forty random coded symbols followed by 48 random bits (which reach the dead prefixes of
/// an incomplete code and leave a partial codeword at the end).
fn stream(codebook: &Codebook, rng: &mut Rng) -> (Vec<u32>, u64) {
    let coded: Vec<u16> = codebook.length_pairs().iter().map(|&(s, _)| s).collect();
    let mut w = BitWriter::new();
    for _ in 0..40 {
        let cw = codebook.codeword(coded[rng.next() as usize % coded.len()]);
        w.write_bits(cw.bits, cw.len);
    }
    for _ in 0..48 {
        w.write_bits((rng.next() & 1) as u32, 1);
    }
    w.finish()
}

/// What every decoder's hand-written loop did before `decode_run`.
fn symbol_at_a_time(
    codebook: &Codebook,
    reader: &BitReader<'_>,
    start: u64,
    stop: u64,
    limit: u64,
    max_symbols: u64,
) -> (u64, Vec<(u64, u16)>) {
    let mut pos = start;
    let mut emitted = Vec::new();
    while pos < stop && (emitted.len() as u64) < max_symbols {
        let Some((symbol, len)) = codebook.decode_at(reader, pos, limit) else {
            break;
        };
        emitted.push((emitted.len() as u64, symbol));
        pos += len as u64;
    }
    (pos, emitted)
}

#[test]
fn decode_run_matches_the_symbol_at_a_time_loop_on_every_start_stop_limit_and_cap() {
    let mut rng = Rng(42);
    let mut runs = 0u64;
    let mut stopped_by = [0u64; 4]; // stop, limit or dead prefix, cap, nothing decoded
    for (name, codebook) in codebooks() {
        let (units, bit_len) = stream(&codebook, &mut rng);
        let reader = BitReader::new(&units, bit_len);
        for start in 0..=bit_len + 2 {
            let stops = [
                0,
                start,
                start + 1,
                start + 9,
                start + 70,
                bit_len.saturating_sub(3),
                bit_len,
                bit_len + 50,
                u64::MAX,
            ];
            for stop in stops {
                // Includes limits below `stop` (the limit binds first) and past `bit_len`
                // (the stream's end binds instead).
                let limits = [
                    start,
                    start + 5,
                    stop.saturating_sub(1),
                    stop.saturating_add(4),
                    bit_len - 1,
                    bit_len,
                    bit_len + 40,
                    u64::MAX,
                ];
                for limit in limits {
                    for max_symbols in [0, 1, 3, u64::MAX] {
                        let (want_end, want) =
                            symbol_at_a_time(&codebook, &reader, start, stop, limit, max_symbols);
                        let mut got = Vec::new();
                        let (end, count) = codebook.decode_run(
                            &reader,
                            start,
                            stop,
                            limit,
                            max_symbols,
                            |k, symbol| got.push((k, symbol)),
                        );
                        let case = format!(
                            "{name}: start {start} stop {stop} limit {limit} cap {max_symbols}"
                        );
                        assert_eq!((end, count), (want_end, want.len() as u64), "{case}");
                        // Equal sequences also mean `emit` never ran for a codeword that a
                        // stop condition rejected: there would be one entry too many.
                        assert_eq!(got, want, "{case}");

                        runs += 1;
                        let reason = if count == 0 {
                            3
                        } else if count == max_symbols {
                            2
                        } else if end >= stop {
                            0
                        } else {
                            1
                        };
                        stopped_by[reason] += 1;
                    }
                }
            }
        }
    }
    // The grid is only a gate if it exercises every way a run ends.
    assert!(runs > 100_000, "{runs} runs");
    assert!(stopped_by.iter().all(|&n| n > 1_000), "{stopped_by:?}");
}
