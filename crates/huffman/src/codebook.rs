//! The Huffman codebook: encode table + decode table.
//!
//! A [`Codebook`] bundles everything both the encoder and the decoders need:
//!
//! * the per-symbol canonical [`Codeword`]s (the encode table);
//! * a canonical **decode table**, built once where the codebook is built (from
//!   frequencies, or from the length pairs an archive ships) and shared by every decoder
//!   in the workspace — the structure the GPU decoders keep in global memory ("the
//!   codebook that is used for decoding is kept in global memory; since this codebook is
//!   shared across all thread blocks, it is kept in cache" — §IV-B of the paper). It is a
//!   direct lookup on the next `LUT_BITS` = 11 bits of the stream for the short codes
//!   (8 KB), backed by per-length first-code / first-index arrays over the symbols in
//!   canonical order for codes up to [`MAX_CODE_LEN`] (cudaCompress's
//!   `HuffmanDecodeTable` layout), plus a **multi-symbol table** on the same 11 bits
//!   (16 KB): the two or three whole codewords they hold in a row, when they hold more
//!   than one. Both are cloned with the codebook, so an `HFZ2` dictionary entry carries
//!   them into every field that uses it.
//!
//! # The `decode_at` contract
//!
//! [`Codebook::decode_at`] resolves the one codeword that starts at a bit position and
//! returns `(symbol, bits)`, exactly as a bit-at-a-time walk of the code tree would:
//!
//! * `None` when the codeword would end past `limit` (or past the reader's `bit_len`);
//! * `None` when the bits are a prefix of no codeword, which only an incomplete code
//!   (Kraft sum < 1, admitted by [`Codebook::from_length_pairs`]) has;
//! * a code none of whose codewords starts with a 1 bit — in practice the single-symbol
//!   book, whose one codeword is `0` — ignores the first bit, so both one-bit patterns
//!   decode to that symbol (the encoder writes one bit per symbol either way).
//!
//! Speculative self-synchronization starts, gap-array construction and corrupt-stream
//! detection all rest on these three rules.
//!
//! # The `decode_run` contract
//!
//! [`Codebook::decode_run`] is the per-thread step every decoder repeats, and the only
//! loop outside the tests that advances a bit position by a decoded length: from a start
//! bit it decodes one codeword after another, hands each symbol to `emit` with its index
//! in the run, and returns `(end_bit, count)` — where the next codeword would start, and
//! how many it produced. It stops at the first of four conditions:
//!
//! * the next codeword would *start* at or after `stop` (a subsequence boundary: a
//!   codeword may straddle it, which is how a thread's end becomes its neighbour's
//!   synchronization point; a run with no boundary passes `u64::MAX`);
//! * the next codeword would *end* past `limit` or past the reader's `bit_len` (the end of
//!   the stream: nothing is decoded from bits that are not there);
//! * `max_symbols` symbols have been produced (a declared symbol count; a run that only
//!   counts passes `u64::MAX`);
//! * the bits at the position are a prefix of no codeword.
//!
//! `stop` bounds where codewords begin and `limit` where they end, so `limit < stop`
//! simply makes `limit` the binding one, and a `limit` past `bit_len` is `bit_len`.
//! `emit` is never called for a codeword that a stop condition rejected.
//!
//! The result is exactly that of a loop over `decode_at`, but the run does not call it.
//! It reads the stream through a register bit buffer (one unit load per 32 bits) and
//! takes a multi-symbol table entry's two or three codewords in one step when all of
//! them end at or before `limit`, the end of the stream and `stop`, and the count stays
//! within `max_symbols`. Otherwise it takes one codeword through the resolve step it
//! shares with `decode_at`, so a stop condition that would split a packed entry is met
//! one codeword at a time.

use crate::bitstream::{BitBuffer, BitReader};
use crate::canonical::{assign_canonical, is_prefix_free, Codeword};
use crate::freq::FrequencyTable;
use crate::tree::{code_lengths, kraft_sum, length_limited_code_lengths, MAX_CODE_LEN};

/// Width of the direct-lookup tables in bits: 2¹¹ four-byte single-symbol entries plus
/// 2¹¹ eight-byte multi-symbol entries, 8 KB + 16 KB per codebook.
const LUT_BITS: u32 = 11;
/// Direct-lookup entry for a prefix of no codeword (a real entry is `symbol << 8 | len`).
const LUT_INVALID: u32 = 0;
/// Direct-lookup entry for a prefix of codewords longer than [`LUT_BITS`].
const LUT_LONG: u32 = 0xFF;
/// Most codewords one multi-symbol entry packs: three 16-bit symbols, then its bits and
/// count.
const MULTI_MAX: u64 = 3;

/// The canonical decode table. All lookups take a 32-bit window of the stream,
/// left-aligned (the next stream bit is the MSB).
#[derive(Debug, Clone)]
struct DecodeTable {
    /// Indexed by the window's top [`LUT_BITS`] bits.
    lut: [u32; 1 << LUT_BITS],
    /// Indexed like `lut`: the up to [`MULTI_MAX`] whole codewords those bits hold in a
    /// row, as `sym0 | sym1 << 16 | sym2 << 32 | total_bits << 48 | count << 56`; 0 where
    /// fewer than two fit, which means "take the single-symbol step".
    multi: [u64; 1 << LUT_BITS],
    /// `first_code[len]` is the canonical code of the first symbol of length `len`.
    first_code: [u32; MAX_CODE_LEN as usize + 2],
    /// `first_index[len]` is that symbol's position in `symbols`; the entry after the
    /// last length closes the range, so `first_index[len + 1] - first_index[len]` is the
    /// number of codes of length `len`.
    first_index: [u32; MAX_CODE_LEN as usize + 2],
    /// The coded symbols in canonical order (by length, then by symbol).
    symbols: Vec<u16>,
    /// Clears the window's first bit when no codeword starts with a 1 (see the module
    /// documentation), all ones otherwise. `lut` has the same thing built in: its upper
    /// half then mirrors its lower half.
    first_bit_mask: u32,
}

impl DecodeTable {
    fn build(codewords: &[Codeword]) -> Box<Self> {
        let mut order: Vec<u16> = (0..codewords.len())
            .filter(|&s| codewords[s].len > 0)
            .map(|s| s as u16)
            .collect();
        // Stable: symbols of one length stay in symbol order, which is code order.
        order.sort_by_key(|&s| codewords[s as usize].len);

        let mut lut = [LUT_INVALID; 1 << LUT_BITS];
        let mut first_code = [0u32; MAX_CODE_LEN as usize + 2];
        let mut first_index = [order.len() as u32; MAX_CODE_LEN as usize + 2];
        let mut no_leading_one = true;
        for (index, &symbol) in order.iter().enumerate().rev() {
            let cw = codewords[symbol as usize];
            let len = cw.len as u32;
            first_code[len as usize] = cw.bits;
            first_index[len as usize] = index as u32;
            no_leading_one &= cw.bits >> (len - 1) == 0;
            if len <= LUT_BITS {
                let base = (cw.bits << (LUT_BITS - len)) as usize;
                lut[base..base + (1 << (LUT_BITS - len))].fill((symbol as u32) << 8 | len);
            } else {
                lut[(cw.bits >> (len - LUT_BITS)) as usize] = LUT_LONG;
            }
        }
        // Lengths with no code inherit the next coded length's index (count 0).
        for len in (1..=MAX_CODE_LEN as usize).rev() {
            first_index[len] = first_index[len].min(first_index[len + 1]);
        }
        if no_leading_one {
            lut.copy_within(..1 << (LUT_BITS - 1), 1 << (LUT_BITS - 1));
        }
        Box::new(DecodeTable {
            multi: Self::multi_entries(&lut),
            lut,
            first_code,
            first_index,
            symbols: order,
            first_bit_mask: u32::MAX >> no_leading_one as u32,
        })
    }

    /// The multi-symbol table, by walking `lut` itself along each window: past a decoded
    /// codeword the window shifts left with zeros coming in, and the walk stops at the
    /// first entry that is not a whole short codeword inside the window's real bits. A
    /// codeword that fits there is decoded from real bits alone, so the single-symbol
    /// book's mirrored half and an incomplete code's dead prefixes come out as `lut`
    /// resolves them.
    fn multi_entries(lut: &[u32; 1 << LUT_BITS]) -> [u64; 1 << LUT_BITS] {
        let mut multi = [0u64; 1 << LUT_BITS];
        for (window, slot) in multi.iter_mut().enumerate() {
            let (mut packed, mut bits, mut count) = (0u64, 0u32, 0u64);
            while count < MULTI_MAX {
                let entry = lut[(window << bits) & ((1 << LUT_BITS) - 1)];
                let len = entry & 0xFF;
                if len == LUT_INVALID || len == LUT_LONG || bits + len > LUT_BITS {
                    break;
                }
                packed |= ((entry >> 8) as u64) << (16 * count);
                bits += len;
                count += 1;
            }
            if count >= 2 {
                *slot = packed | (bits as u64) << 48 | count << 56;
            }
        }
        multi
    }

    /// The codeword the window starts with, as `(symbol, length)`.
    #[inline(always)]
    fn lookup(&self, window: u32) -> Option<(u16, u8)> {
        let entry = self.lut[(window >> (32 - LUT_BITS)) as usize];
        match entry & 0xFF {
            LUT_INVALID => None,
            LUT_LONG => self.lookup_long(window & self.first_bit_mask),
            len => Some(((entry >> 8) as u16, len as u8)),
        }
    }

    /// [`DecodeTable::lookup`] past the direct table: the first length at which the
    /// window's prefix falls inside that length's run of canonical codes.
    #[cold]
    fn lookup_long(&self, window: u32) -> Option<(u16, u8)> {
        (LUT_BITS + 1..=MAX_CODE_LEN as u32).find_map(|len| {
            let offset = (window >> (32 - len)).wrapping_sub(self.first_code[len as usize]);
            let first = self.first_index[len as usize];
            (offset < self.first_index[len as usize + 1] - first)
                .then(|| (self.symbols[(first + offset) as usize], len as u8))
        })
    }
}

/// A complete Huffman codebook over a `u16` alphabet.
///
/// Equality compares the canonical codewords (and alphabet size): the decode table is
/// derived from them, so two codebooks with the same codewords decode identically.
#[derive(Debug, Clone)]
pub struct Codebook {
    alphabet_size: usize,
    codewords: Vec<Codeword>,
    table: Box<DecodeTable>,
}

impl PartialEq for Codebook {
    fn eq(&self, other: &Self) -> bool {
        self.alphabet_size == other.alphabet_size && self.codewords == other.codewords
    }
}

impl Eq for Codebook {}

impl Codebook {
    /// Builds a codebook from symbol frequencies. Falls back to length-limited
    /// construction if the unconstrained code would exceed [`MAX_CODE_LEN`] bits.
    pub fn from_frequencies(freq: &FrequencyTable) -> Self {
        let lengths = match code_lengths(freq) {
            Some(l) => l,
            None => length_limited_code_lengths(freq, MAX_CODE_LEN),
        };
        Self::from_lengths(&lengths)
    }

    /// Builds a codebook from the symbols that will be encoded.
    pub fn from_symbols(symbols: &[u16], alphabet_size: usize) -> Self {
        let freq = FrequencyTable::from_symbols(symbols, alphabet_size);
        Self::from_frequencies(&freq)
    }

    /// Builds a codebook directly from canonical code lengths (e.g. when reconstructing a
    /// codebook shipped in a compressed archive header).
    pub fn from_lengths(lengths: &[u8]) -> Self {
        debug_assert!(kraft_sum(lengths) <= 1.0 + 1e-9);
        let codewords = assign_canonical(lengths);
        debug_assert!(is_prefix_free(&codewords));
        let table = DecodeTable::build(&codewords);
        Codebook {
            alphabet_size: lengths.len(),
            codewords,
            table,
        }
    }

    /// The alphabet size the codebook was built for.
    pub fn alphabet_size(&self) -> usize {
        self.alphabet_size
    }

    /// The canonical codeword for a symbol (length 0 if the symbol has no code).
    pub fn codeword(&self, symbol: u16) -> Codeword {
        self.codewords[symbol as usize]
    }

    /// All codewords, indexed by symbol.
    pub fn codewords(&self) -> &[Codeword] {
        &self.codewords
    }

    /// The per-symbol code lengths.
    pub fn lengths(&self) -> Vec<u8> {
        self.codewords.iter().map(|c| c.len).collect()
    }

    /// Number of symbols that actually have a codeword (non-zero length) — the number of
    /// `(symbol, length)` pairs [`Codebook::length_pairs`] serializes.
    pub fn coded_symbols(&self) -> usize {
        self.codewords.iter().filter(|c| c.len > 0).count()
    }

    /// Serializes the codebook compactly as `(symbol, code length)` pairs for the symbols
    /// that actually have codes, sorted by symbol. Canonical codes are fully determined
    /// by their lengths, so this is all an archive needs to ship — typically a few dozen
    /// pairs out of a 1024-entry alphabet for quantization-code streams.
    pub fn length_pairs(&self) -> Vec<(u16, u8)> {
        self.codewords
            .iter()
            .enumerate()
            .filter(|(_, c)| c.len > 0)
            .map(|(sym, c)| (sym as u16, c.len))
            .collect()
    }

    /// Rebuilds a codebook from compact `(symbol, length)` pairs over an alphabet of
    /// `alphabet_size` symbols, validating the input instead of trusting it (the pairs
    /// may come from a corrupted or hostile archive).
    ///
    /// Returns a static description of the defect when the pairs do not describe a valid
    /// canonical code: symbol out of range, duplicate symbol, zero or oversized length,
    /// or a length set violating the Kraft inequality.
    pub fn from_length_pairs(
        alphabet_size: usize,
        pairs: &[(u16, u8)],
    ) -> Result<Codebook, &'static str> {
        if alphabet_size == 0 || alphabet_size > u16::MAX as usize + 1 {
            return Err("alphabet size out of range");
        }
        let mut lengths = vec![0u8; alphabet_size];
        for &(sym, len) in pairs {
            if sym as usize >= alphabet_size {
                return Err("codebook symbol outside the alphabet");
            }
            if len == 0 {
                return Err("zero code length in codebook");
            }
            if len > MAX_CODE_LEN {
                return Err("code length exceeds the maximum");
            }
            if lengths[sym as usize] != 0 {
                return Err("duplicate symbol in codebook");
            }
            lengths[sym as usize] = len;
        }
        // Exact integer Kraft check (sum of 2^(MAX-len) against 2^MAX): a float
        // comparison with tolerance would admit marginal violations (e.g. an excess of
        // 2^-31) that the canonical code construction rejects with a panic.
        let kraft: u64 = lengths
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 1u64 << (MAX_CODE_LEN - l))
            .sum();
        if kraft > 1u64 << MAX_CODE_LEN {
            return Err("code lengths violate the Kraft inequality");
        }
        Ok(Codebook::from_lengths(&lengths))
    }

    /// Decodes the codeword that starts at bit `pos` of `reader`: `(symbol, bits)`, or
    /// `None` if it would end past `limit` or the end of the stream, or if the bits are a
    /// prefix of no codeword (the full contract is in the module documentation). This is
    /// the per-symbol reference; [`Codebook::decode_run`]'s single-symbol step is the same
    /// resolve on a buffered window.
    ///
    /// `inline(always)`, with [`BitReader::peek32`] and the table lookup: left to the
    /// inliner this stayed a call, the reader went through memory on every symbol, and
    /// `decode_flat` ran 30 % slower.
    #[inline(always)]
    pub fn decode_at(&self, reader: &BitReader<'_>, pos: u64, limit: u64) -> Option<(u16, u8)> {
        self.resolve(reader.peek32(pos), pos, limit.min(reader.bit_len()))
    }

    /// The codeword a left-aligned 32-bit `window` of the stream at bit `pos` starts with,
    /// if it ends at or before `end`: the single-symbol contract, in one place.
    #[inline(always)]
    fn resolve(&self, window: u32, pos: u64, end: u64) -> Option<(u16, u8)> {
        let (symbol, len) = self.table.lookup(window)?;
        (pos + len as u64 <= end).then_some((symbol, len))
    }

    /// Decodes codewords from bit `start` while the next one starts before `stop`, ends at
    /// or before `limit` (and the end of the stream), fewer than `max_symbols` have been
    /// produced and the bits resolve to a symbol. Each symbol goes to `emit` with its index
    /// in the run, in order; returns `(end_bit, count)`, the start of the codeword the run
    /// stopped at and the number produced (the full contract is in the module
    /// documentation).
    ///
    /// It does not loop over [`Codebook::decode_at`]: each step takes a multi-symbol table
    /// entry's two or three codewords when every stop condition admits all of them, and
    /// otherwise the one codeword `decode_at` would, through the resolve step the two
    /// share.
    ///
    /// `inline(always)` for the reason [`Codebook::decode_at`] is, and so that a caller
    /// that only counts compiles its empty `emit` away.
    #[inline(always)]
    pub fn decode_run(
        &self,
        reader: &BitReader<'_>,
        start: u64,
        stop: u64,
        limit: u64,
        max_symbols: u64,
        mut emit: impl FnMut(u64, u16),
    ) -> (u64, u64) {
        let end = limit.min(reader.bit_len());
        // Ending at or before `stop` is stricter than what a packed step needs (its last
        // codeword only has to start before it), and cheaper to check.
        let multi_end = end.min(stop);
        let mut bits = BitBuffer::new(reader, start);
        let (mut pos, mut count) = (start, 0u64);
        while pos < stop && count < max_symbols {
            let window = bits.peek32();
            let entry = self.table.multi[(window >> (32 - LUT_BITS)) as usize];
            let (total, n) = ((entry >> 48) as u8, entry >> 56);
            if n != 0 && pos + total as u64 <= multi_end && n <= max_symbols - count {
                emit(count, entry as u16);
                emit(count + 1, (entry >> 16) as u16);
                if n == MULTI_MAX {
                    emit(count + 2, (entry >> 32) as u16);
                }
                bits.consume(total as u32);
                pos += total as u64;
                count += n;
            } else {
                let Some((symbol, len)) = self.resolve(window, pos, end) else {
                    break;
                };
                emit(count, symbol);
                bits.consume(len as u32);
                pos += len as u64;
                count += 1;
            }
        }
        (pos, count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitstream::BitWriter;

    /// `bits` packed into units, with the bit count.
    fn pack(bits: &[bool]) -> (Vec<u32>, u64) {
        let mut w = BitWriter::new();
        bits.iter().for_each(|&b| w.write_bit(b));
        w.finish()
    }

    fn encode_to_bits(cb: &Codebook, symbols: &[u16]) -> (Vec<u32>, u64) {
        let mut w = BitWriter::new();
        for &s in symbols {
            let cw = cb.codeword(s);
            assert!(cw.len > 0, "symbol {} has no code", s);
            w.write_bits(cw.bits, cw.len);
        }
        w.finish()
    }

    fn decode_all(cb: &Codebook, units: &[u32], bit_len: u64) -> Vec<u16> {
        let reader = BitReader::new(units, bit_len);
        let mut pos = 0u64;
        let mut decoded = Vec::new();
        while pos < bit_len {
            let (sym, n) = cb.decode_at(&reader, pos, bit_len).unwrap();
            decoded.push(sym);
            pos += n as u64;
        }
        decoded
    }

    /// Splitmix64 of counter `i` under `seed`.
    fn mix(seed: u64, i: u64) -> u64 {
        let mut z = seed.wrapping_add((i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Quantization-code-like symbols: geometric magnitudes around the centre bin, so the
    /// centre codewords are 1–3 bits and one window holds several.
    fn quant_like(n: u64, seed: u64) -> Vec<u16> {
        (0..n)
            .map(|i| {
                let r = mix(seed, i);
                let mag = r.trailing_zeros().min(9) as i32;
                (512 + if r >> 63 == 1 { mag } else { -mag }) as u16
            })
            .collect()
    }

    /// The four code shapes `tests/decode_run.rs` holds `decode_run` to.
    fn code_shapes() -> Vec<(&'static str, Codebook)> {
        let mut chain: Vec<u8> = (1..=14).collect();
        chain.extend([15, 15]);
        vec![
            (
                "quant-like",
                Codebook::from_symbols(&quant_like(4000, 7), 1024),
            ),
            (
                "incomplete",
                Codebook::from_length_pairs(8, &[(0, 2), (1, 2), (2, 3), (3, 12)]).unwrap(),
            ),
            ("single-symbol", Codebook::from_symbols(&[7u16; 10], 16)),
            ("15-bit chain", Codebook::from_lengths(&chain)),
        ]
    }

    /// A plain `decode_at` loop under `decode_run`'s stop conditions: `(end_bit, emitted)`.
    fn symbol_at_a_time(
        cb: &Codebook,
        reader: &BitReader<'_>,
        start: u64,
        stop: u64,
        limit: u64,
        max_symbols: u64,
    ) -> (u64, Vec<(u64, u16)>) {
        let (mut pos, mut emitted) = (start, Vec::new());
        while pos < stop && (emitted.len() as u64) < max_symbols {
            let Some((symbol, len)) = cb.decode_at(reader, pos, limit) else {
                break;
            };
            emitted.push((emitted.len() as u64, symbol));
            pos += len as u64;
        }
        (pos, emitted)
    }

    #[test]
    fn multi_symbol_entries_agree_with_decode_at() {
        let window_bits = LUT_BITS as u64;
        for (name, cb) in code_shapes() {
            let mut packed = 0;
            for window in 0..1u32 << LUT_BITS {
                // Successive `decode_at` calls inside the window's bits, up to an entry's
                // worth.
                let units = [window << (32 - LUT_BITS)];
                let reader = BitReader::new(&units, window_bits);
                let (mut pos, mut want) = (0, Vec::new());
                while want.len() < MULTI_MAX as usize {
                    let Some((symbol, len)) = cb.decode_at(&reader, pos, window_bits) else {
                        break;
                    };
                    want.push((symbol, len));
                    pos += len as u64;
                }
                let entry = cb.table.multi[window as usize];
                let case = format!("{name}: window {window:011b}");
                if want.len() < 2 {
                    assert_eq!(entry, 0, "{case}");
                    continue;
                }
                let got: Vec<(u16, u8)> = (0..entry >> 56)
                    .map(|i| (entry >> (16 * i)) as u16)
                    .map(|symbol| (symbol, cb.codeword(symbol).len))
                    .collect();
                assert_eq!(got, want, "{case}");
                assert_eq!((entry >> 48) as u8 as u64, pos, "{case}");
                packed += 1;
            }
            // Every shape has codewords of at most 5 bits, so the comparison above ran.
            assert!(packed > 0, "{name}: no window packs two codewords");
        }
    }

    #[test]
    fn decode_run_matches_decode_at_where_caps_and_stops_split_a_packed_step() {
        let symbols = quant_like(200_000, 11);
        let cb = Codebook::from_symbols(&symbols, 1024);
        let (units, bit_len) = encode_to_bits(&cb, &symbols);
        let reader = BitReader::new(&units, bit_len);
        let mut start = 0;
        let mut got = Vec::new();
        for (i, &symbol) in symbols.iter().enumerate() {
            // Caps 1..=7 past a multiple of 3 symbols, and stops 1..=11 bits past the start:
            // both land inside, at and past one packed entry's worth.
            let above = 3 * (i as u64 % 4);
            let caps = (1..=7).map(|c| (u64::MAX, above + c));
            let stops = (1..=11).map(|d| (start + d, u64::MAX));
            for (stop, cap) in caps.chain(stops) {
                got.clear();
                let (end, count) =
                    cb.decode_run(&reader, start, stop, bit_len, cap, |k, s| got.push((k, s)));
                let (want_end, want) = symbol_at_a_time(&cb, &reader, start, stop, bit_len, cap);
                assert_eq!(
                    (end, count, &got),
                    (want_end, want.len() as u64, &want),
                    "start {start} stop {stop} cap {cap}"
                );
            }
            start += cb.codeword(symbol).len as u64;
        }
    }

    #[test]
    fn roundtrip_through_decode_table() {
        let symbols: Vec<u16> = vec![0, 1, 2, 3, 0, 0, 0, 2, 1, 0, 3, 3];
        let cb = Codebook::from_symbols(&symbols, 4);
        let (units, bit_len) = encode_to_bits(&cb, &symbols);
        assert_eq!(decode_all(&cb, &units, bit_len), symbols);
    }

    #[test]
    fn single_symbol_codebook_roundtrip() {
        let symbols = vec![7u16; 100];
        let cb = Codebook::from_symbols(&symbols, 16);
        assert_eq!(cb.codeword(7).len, 1);
        let (units, bit_len) = encode_to_bits(&cb, &symbols);
        assert_eq!(bit_len, 100);
        let reader = BitReader::new(&units, bit_len);
        assert_eq!(cb.decode_at(&reader, 0, bit_len), Some((7, 1)));
        // The lone codeword is `0`, but a 1 bit decodes to the symbol as well.
        let (ones, _) = pack(&[true; 3]);
        assert_eq!(cb.decode_at(&BitReader::new(&ones, 3), 1, 3), Some((7, 1)));
    }

    #[test]
    fn decode_past_end_returns_none() {
        let cb = Codebook::from_symbols(&[0, 1, 2, 3, 4, 5, 6, 7], 8);
        let (units, bit_len) = pack(&[true]);
        // Codes are 3 bits; one bit is not enough.
        let reader = BitReader::new(&units, bit_len);
        assert!(cb.decode_at(&reader, 0, bit_len).is_none());
        // Nor are three bits of which the limit admits two.
        let (units, _) = pack(&[true; 3]);
        let reader = BitReader::new(&units, 3);
        assert_eq!(cb.decode_at(&reader, 0, 3), Some((7, 3)));
        assert!(cb.decode_at(&reader, 0, 2).is_none());
    }

    #[test]
    fn invalid_prefix_of_an_incomplete_code_is_none() {
        // Codes 00, 01 and 100 (one 12-bit code too, past the direct lookup): Kraft < 1.
        let cb = Codebook::from_length_pairs(8, &[(0, 2), (1, 2), (2, 3), (3, 12)]).unwrap();
        let decode = |bits: &[bool]| {
            let (units, bit_len) = pack(bits);
            cb.decode_at(&BitReader::new(&units, bit_len), 0, bit_len)
        };
        assert_eq!(decode(&[false, true]), Some((1, 2)));
        assert_eq!(decode(&[true, false, false]), Some((2, 3)));
        let mut long = vec![true, false, true];
        long.resize(12, false);
        assert_eq!(decode(&long), Some((3, 12)));
        assert_eq!(decode(&long[..11]), None); // runs out of bits
        long[11] = true;
        assert_eq!(decode(&long), None); // 101000000001 starts no codeword
        assert_eq!(decode(&[true; 12]), None); // nor does 11
    }

    #[test]
    fn skewed_codebook_properties() {
        let mut symbols = vec![0u16; 10_000];
        symbols.extend(vec![1u16; 100]);
        symbols.extend(vec![2u16; 10]);
        symbols.extend(vec![3u16; 1]);
        let cb = Codebook::from_symbols(&symbols, 4);
        assert_eq!(cb.codeword(0).len, 1);
        assert!(cb.codeword(3).len >= cb.codeword(1).len);
        assert!(cb.lengths().iter().all(|&len| len <= 3));
    }

    #[test]
    fn from_lengths_reconstructs_same_codewords() {
        let symbols: Vec<u16> = (0..1000u16).map(|i| i % 37).collect();
        let cb = Codebook::from_symbols(&symbols, 64);
        let cb2 = Codebook::from_lengths(&cb.lengths());
        assert_eq!(cb.codewords(), cb2.codewords());
    }

    #[test]
    fn alphabet_size_preserved() {
        let cb = Codebook::from_symbols(&[0, 5, 9], 1024);
        assert_eq!(cb.alphabet_size(), 1024);
        assert_eq!(cb.codeword(100).len, 0);
    }

    #[test]
    fn length_pairs_roundtrip() {
        let symbols: Vec<u16> = (0..3000u16).map(|i| 500 + i % 41).collect();
        let cb = Codebook::from_symbols(&symbols, 1024);
        let pairs = cb.length_pairs();
        assert!(pairs.len() <= 41);
        assert_eq!(pairs.len(), cb.coded_symbols());
        let cb2 = Codebook::from_length_pairs(1024, &pairs).unwrap();
        assert_eq!(cb.codewords(), cb2.codewords());
    }

    #[test]
    fn from_length_pairs_validates_untrusted_input() {
        assert!(Codebook::from_length_pairs(16, &[(20, 3)]).is_err()); // out of alphabet
        assert!(Codebook::from_length_pairs(16, &[(1, 0)]).is_err()); // zero length
        assert!(Codebook::from_length_pairs(16, &[(1, 40)]).is_err()); // oversized length
        assert!(Codebook::from_length_pairs(16, &[(1, 2), (1, 3)]).is_err()); // duplicate
        assert!(Codebook::from_length_pairs(16, &[(0, 1), (1, 1), (2, 1)]).is_err());
        // kraft
    }

    #[test]
    fn marginal_kraft_violation_rejected_exactly() {
        // One code of each length 1..=31 sums to exactly 1 - 2^-31; two extra 31-bit
        // codes push the sum to 1 + 2^-31. A float comparison with a 1e-9 tolerance
        // would admit this, and the canonical construction would then panic — the check
        // must be exact.
        let mut pairs: Vec<(u16, u8)> = (1..=31u8).map(|len| ((len - 1) as u16, len)).collect();
        pairs.push((31, 31));
        assert!(Codebook::from_length_pairs(64, &pairs).is_ok()); // exactly 1: fine
        pairs.push((32, 31));
        assert!(Codebook::from_length_pairs(64, &pairs).is_err()); // 1 + 2^-31: rejected
    }

    #[test]
    fn large_alphabet_quantization_like_roundtrip() {
        // Gaussian-concentrated symbols around 512, alphabet 1024 — like cuSZ quant codes.
        let mut symbols = Vec::new();
        for i in 0..5000u32 {
            let wobble = ((i as f64 * 0.37).sin() * 8.0) as i32;
            symbols.push((512 + wobble) as u16);
        }
        let cb = Codebook::from_symbols(&symbols, 1024);
        let (units, bit_len) = encode_to_bits(&cb, &symbols);
        assert_eq!(decode_all(&cb, &units, bit_len), symbols);
    }
}
