//! CRC-32 (IEEE 802.3, the zlib/gzip polynomial), implemented locally so the workspace
//! stays dependency-free.
//!
//! Two paths compute it, bit for bit alike:
//! - On x86-64 with PCLMULQDQ (checked once per process by `is_x86_feature_detected!`),
//!   [`Crc32::update`] folds the 16-byte multiple of any input of at least 64 bytes
//!   with carry-less multiplies, as Intel's "Fast CRC Computation for Generic
//!   Polynomials Using PCLMULQDQ" lays out for the reflected polynomial 0xEDB88320:
//!   four 128-bit lanes fold 64 bytes a step, then fold into one lane, and a Barrett
//!   reduction takes that to 32 bits. On a 2-vCPU Intel Xeon the benchmark's
//!   `core.crc32_mbps` reads 5.0–5.9 GB/s this way and 1.6–1.8 GB/s through the
//!   tables.
//! - Slicing-by-16 tables: sixteen bytes a step, as four 32-bit words, through sixteen
//!   256-entry tables (16 KB), the last bytes one at a time through the first. They
//!   stay for the fold's tail (under 16 bytes), for inputs under 64 bytes, where the
//!   fold's set-up and reduction would cost more than it saves, and for every other
//!   CPU.
//!
//! This lives in `huffdec-core` (rather than the container crate, which re-exports it)
//! because the pipeline itself checksums *decoded symbol streams*: `sz::compress` stamps
//! every archive with [`crc32_symbols`] over its quantization codes, which is what
//! `hfz verify --deep` and the `hfzd` daemon's `VERIFY` command compare against. That
//! stamp reads every code of every compress, so it is not a negligible fraction of one:
//! byte at a time it cost ≈ 24 ms of a 4 M-element compress on the measured backend.
//! [`Crc32::update_symbols`] therefore stages nothing: on a little-endian target it
//! hands the codes' own bytes to [`Crc32::update`], and elsewhere it builds each table
//! word straight from two codes. A parallel pass checksums its blocks separately and
//! joins them with [`crc32_combine`], zlib's shift of a running CRC over GF(2).

/// The reflected CRC-32 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Bytes one step of the sliced loop consumes.
const SLICE: usize = 16;

/// The slicing-by-16 tables for the reflected polynomial 0xEDB88320, built at compile
/// time: `TABLES[0]` is the classic byte-at-a-time table, and `TABLES[k][b]` is the CRC
/// of byte `b` followed by `k` zero bytes, so byte `i` of a 16-byte step goes through
/// `TABLES[15 - i]`.
const TABLES: [[u32; 256]; SLICE] = build_tables();

/// `BYTE_SHIFTS[k]` is x^(8·2^k) modulo the polynomial: the shift of a CRC past 2^k
/// bytes, one entry per bit of a `u64` length ([`crc32_combine`]).
const BYTE_SHIFTS: [u32; 64] = build_byte_shifts();

const fn build_tables() -> [[u32; 256]; SLICE] {
    let mut tables = [[0u32; 256]; SLICE];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < SLICE {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// `a · b` modulo the polynomial, in the reflected order (bit 31 is x⁰). `a` must not be
/// zero; every power of x is not.
const fn mult_mod_p(a: u32, mut b: u32) -> u32 {
    let mut m = 1u32 << 31;
    let mut p = 0;
    loop {
        if a & m != 0 {
            p ^= b;
            if a & (m - 1) == 0 {
                return p;
            }
        }
        m >>= 1;
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
    }
}

const fn build_byte_shifts() -> [u32; 64] {
    let mut shifts = [0u32; 64];
    // x¹, squared three times: x⁸.
    let mut p = 1u32 << 30;
    let mut k = 0;
    while k < 3 {
        p = mult_mod_p(p, p);
        k += 1;
    }
    let mut k = 0;
    while k < 64 {
        shifts[k] = p;
        p = mult_mod_p(p, p);
        k += 1;
    }
    shifts
}

/// The CRC-32 of `a ‖ b` from `crc_a = crc32(a)`, `crc_b = crc32(b)` and `len_b`, the
/// length of `b` in bytes. Appending `b` multiplies `a`'s CRC by x^(8·len_b) modulo the
/// polynomial; the pre- and post-conditioning cancel, so that product XOR `crc_b` is
/// the answer (zlib's `crc32_combine`). It costs O(log len_b) and reads no data.
pub fn crc32_combine(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
    // x^(8·len_b) is the product of BYTE_SHIFTS[k] over the set bits k of len_b.
    let mut shift = 1u32 << 31;
    for (k, &s) in BYTE_SHIFTS.iter().enumerate() {
        if len_b >> k & 1 != 0 {
            shift = mult_mod_p(s, shift);
        }
    }
    mult_mod_p(shift, crc_a) ^ crc_b
}

/// A streaming CRC-32 accumulator.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Starts a fresh checksum.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feeds `bytes` into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        let bytes = clmul::fold(&mut self.state, bytes);
        self.update_tables(bytes);
    }

    /// [`Crc32::update`] through the slicing-by-16 tables alone.
    fn update_tables(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(SLICE);
        for c in &mut chunks {
            let word = |i: usize| u32::from_le_bytes([c[i], c[i + 1], c[i + 2], c[i + 3]]);
            self.step([word(0), word(4), word(8), word(12)]);
        }
        self.update_bytewise(chunks.remainder());
    }

    /// Feeds `symbols` into the checksum, serialized as little-endian u16s.
    pub fn update_symbols(&mut self, symbols: &[u16]) {
        #[cfg(target_endian = "little")]
        {
            // SAFETY: the bytes are those of `symbols`, which stays borrowed for their
            // lifetime; `u8` has no alignment or validity requirement, and
            // `2 * symbols.len()` bytes is the slice's own size, so it cannot overflow.
            let bytes = unsafe {
                std::slice::from_raw_parts(symbols.as_ptr().cast::<u8>(), 2 * symbols.len())
            };
            self.update(bytes);
        }
        #[cfg(not(target_endian = "little"))]
        self.update_symbols_tables(symbols);
    }

    /// [`Crc32::update_symbols`] through the tables, on any byte order: each word of a
    /// step is two symbols, the first in its low half, exactly as the bytes would read.
    #[cfg_attr(target_endian = "little", allow(dead_code))]
    fn update_symbols_tables(&mut self, symbols: &[u16]) {
        let mut chunks = symbols.chunks_exact(SLICE / 2);
        for c in &mut chunks {
            let word = |i: usize| c[i] as u32 | (c[i + 1] as u32) << 16;
            self.step([word(0), word(2), word(4), word(6)]);
        }
        for s in chunks.remainder() {
            self.update_bytewise(&s.to_le_bytes());
        }
    }

    /// One slicing-by-16 step over four little-endian words.
    #[inline(always)]
    fn step(&mut self, mut words: [u32; 4]) {
        let t = &TABLES;
        words[0] ^= self.state;
        let mut crc = 0;
        for (k, &w) in words.iter().enumerate() {
            let top = SLICE - 1 - 4 * k;
            crc ^= t[top][(w & 0xFF) as usize]
                ^ t[top - 1][((w >> 8) & 0xFF) as usize]
                ^ t[top - 2][((w >> 16) & 0xFF) as usize]
                ^ t[top - 3][(w >> 24) as usize];
        }
        self.state = crc;
    }

    fn update_bytewise(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state = (self.state >> 8) ^ TABLES[0][((self.state ^ b as u32) & 0xFF) as usize];
        }
    }

    /// Finishes and returns the checksum value.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// The carry-less-multiply fold (module docs), on x86-64 CPUs that have PCLMULQDQ.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si32, _mm_cvtsi32_si128,
        _mm_loadu_si128, _mm_set_epi64x, _mm_setr_epi32, _mm_srli_si128, _mm_xor_si128,
    };

    /// Bytes one step of the four-lane fold consumes; no shorter input is folded.
    const FOLD_BYTES: usize = 64;

    /// Folding constants for the reflected polynomial, from the Intel paper: x^(4·128±32)
    /// and x^(128±32) modulo P, bit-reflected and shifted left by one, for the fold by
    /// four lanes and by one; x^64 modulo P for the 128-to-64-bit step; and P itself
    /// with the Barrett quotient μ = ⌊x^64 / P⌋, both reflected.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0xccaa_009e;
    const K5: i64 = 0x1_63cd_6124;
    const P: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;

    /// Folds the longest prefix of `bytes` that is a multiple of 16 bytes into `state`
    /// (the running, pre-inverted CRC register) and returns the rest, when `bytes` holds
    /// at least 64 and the CPU has PCLMULQDQ; otherwise returns `bytes` untouched.
    pub(super) fn fold<'a>(state: &mut u32, bytes: &'a [u8]) -> &'a [u8] {
        if bytes.len() < FOLD_BYTES || !is_x86_feature_detected!("pclmulqdq") {
            return bytes;
        }
        let (head, rest) = bytes.split_at(bytes.len() & !15);
        // SAFETY: the CPU has PCLMULQDQ (checked just above) and SSE2 (every x86-64
        // has), the two features `fold_pclmul` is compiled for; `head` holds at least
        // 64 bytes and a multiple of 16, as it requires.
        *state = unsafe { fold_pclmul(*state, head) };
        rest
    }

    /// The CRC register after `state` has taken in `bytes`, by the Intel paper's fold.
    ///
    /// # Safety
    ///
    /// The CPU must have PCLMULQDQ, and `bytes.len()` must be a multiple of 16 and at
    /// least 64.
    #[target_feature(enable = "pclmulqdq")]
    unsafe fn fold_pclmul(state: u32, bytes: &[u8]) -> u32 {
        debug_assert!(bytes.len() >= FOLD_BYTES && bytes.len() % 16 == 0);
        let (first, rest) = bytes.split_at(FOLD_BYTES);
        let mut lanes = [0, 16, 32, 48].map(|at| load(&first[at..]));
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(state as i32));
        let mut steps = rest.chunks_exact(FOLD_BYTES);
        let k1k2 = _mm_set_epi64x(K2, K1);
        for step in &mut steps {
            lanes[0] = fold_onto(lanes[0], k1k2, load(step));
            lanes[1] = fold_onto(lanes[1], k1k2, load(&step[16..]));
            lanes[2] = fold_onto(lanes[2], k1k2, load(&step[32..]));
            lanes[3] = fold_onto(lanes[3], k1k2, load(&step[48..]));
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold_onto(lanes[0], k3k4, lanes[1]);
        x = fold_onto(x, k3k4, lanes[2]);
        x = fold_onto(x, k3k4, lanes[3]);
        for block in steps.remainder().chunks_exact(16) {
            x = fold_onto(x, k3k4, load(block));
        }
        // 128 bits to 64: the low half times K4 onto the high half, then the low 32
        // bits of that times K5 onto the rest.
        let low32 = _mm_setr_epi32(!0, 0, !0, 0);
        x = _mm_xor_si128(_mm_srli_si128(x, 8), _mm_clmulepi64_si128(x, k3k4, 0x10));
        let k5 = _mm_set_epi64x(0, K5);
        let high = _mm_srli_si128(x, 4);
        x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), k5, 0x00),
            high,
        );
        // Barrett reduction to 32 bits: T1 = (R mod x^32)·μ, T2 = (T1 mod x^32)·P, and
        // the CRC is bits 32..64 of R XOR T2.
        let poly = _mm_set_epi64x(MU, P);
        let mut t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), poly, 0x10);
        t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
        _mm_cvtsi128_si32(_mm_srli_si128(_mm_xor_si128(x, t), 4)) as u32
    }

    /// The lane `x` carried forward by the distance its constants `k` were built for
    /// (each 64-bit half times its constant), XOR the lane `next` found there.
    ///
    /// # Safety
    ///
    /// The CPU must have PCLMULQDQ.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    unsafe fn fold_onto(x: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let low = _mm_clmulepi64_si128(x, k, 0x00);
        let high = _mm_clmulepi64_si128(x, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(high, low), next)
    }

    /// The first 16 bytes of `block`, as one lane.
    #[inline]
    fn load(block: &[u8]) -> __m128i {
        let block = &block[..16];
        // SAFETY: `block` holds 16 readable bytes, all an unaligned load reads; SSE2,
        // which the load needs, is part of every x86-64 CPU.
        unsafe { _mm_loadu_si128(block.as_ptr().cast::<__m128i>()) }
    }
}

/// Checksum of a byte slice in one call.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

/// Checksum of a decoded symbol stream: the CRC-32 of the symbols serialized as
/// little-endian u16s. This is the digest the `HFZ1` decoded-CRC trailer section stores,
/// letting `verify --deep` catch archives that are CRC-valid section by section but
/// decode to the wrong quantization codes.
pub fn crc32_symbols(symbols: &[u16]) -> u32 {
    let mut c = Crc32::new();
    c.update_symbols(symbols);
    c.finish()
}

/// The byte-at-a-time loop slicing-by-8 replaced, kept as its oracle.
#[cfg(test)]
fn crc32_bytewise(bytes: &[u8]) -> u32 {
    let mut state = 0xFFFF_FFFFu32;
    for &b in bytes {
        state = (state >> 8) ^ TABLES[0][((state ^ b as u32) & 0xFF) as usize];
    }
    state ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard CRC-32/ISO-HDLC check values.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let mut c = Crc32::new();
        for chunk in data.chunks(37) {
            c.update(chunk);
        }
        assert_eq!(c.finish(), crc32(&data));
    }

    #[test]
    fn symbol_crc_matches_byte_serialization() {
        let symbols: Vec<u16> = (0..1000u16).map(|i| i.wrapping_mul(257)).collect();
        let bytes: Vec<u8> = symbols.iter().flat_map(|s| s.to_le_bytes()).collect();
        assert_eq!(crc32_symbols(&symbols), crc32(&bytes));
        assert_eq!(crc32_symbols(&[]), crc32(b""));
        // Order-sensitive: a swap changes the digest.
        let mut swapped = symbols.clone();
        swapped.swap(3, 700);
        assert_ne!(crc32_symbols(&swapped), crc32_symbols(&symbols));
    }

    #[test]
    fn symbol_crc_matches_the_bytes_at_every_length_and_split() {
        let symbols: Vec<u16> = (0..40u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 9) as u16)
            .collect();
        for n in 0..=symbols.len() {
            let run = &symbols[..n];
            let bytes: Vec<u8> = run.iter().flat_map(|s| s.to_le_bytes()).collect();
            let expect = crc32(&bytes);
            assert_eq!(crc32_symbols(run), expect, "{n} symbols");
            for split in 0..=n {
                let mut c = Crc32::new();
                c.update_symbols(&run[..split]);
                c.update_symbols(&run[split..]);
                assert_eq!(c.finish(), expect, "{n} symbols split at {split}");
            }
        }
    }

    #[test]
    fn slicing_by_8_matches_the_bytewise_loop() {
        let data: Vec<u8> = (0..72u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        for start in 0..8 {
            for len in 0..=64 {
                let bytes = &data[start..start + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bytewise(bytes),
                    "start {start} len {len}"
                );
            }
        }
    }

    /// The checksum of `bytes` through the slicing-by-16 tables alone, whatever the CPU.
    fn crc32_tables(bytes: &[u8]) -> u32 {
        let mut c = Crc32::new();
        c.update_tables(bytes);
        c.finish()
    }

    #[test]
    fn the_carry_less_fold_matches_the_tables() {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("pclmulqdq") {
            // This CPU folds: 100 bytes leave a tail of 4 to the tables.
            let mut state = !0;
            assert_eq!(clmul::fold(&mut state, &[7; 100]).len(), 4);
        }
        let long = 3 << 20;
        let data: Vec<u8> = (0..long as u32 + 16)
            .map(|i| (i.wrapping_mul(2654435761) >> 11) as u8)
            .collect();
        for start in 0..16 {
            for len in 0..=300 {
                let bytes = &data[start..start + len];
                let want = crc32_bytewise(bytes);
                assert_eq!(crc32_tables(bytes), want, "tables, start {start} len {len}");
                assert_eq!(crc32(bytes), want, "start {start} len {len}");
            }
            let bytes = &data[start..start + long - start % 5];
            assert_eq!(crc32(bytes), crc32_tables(bytes), "start {start}, long");
        }
        let bytes = &data[..300];
        for split in 0..=bytes.len() {
            let mut c = Crc32::new();
            c.update(&bytes[..split]);
            c.update(&bytes[split..]);
            assert_eq!(c.finish(), crc32_bytewise(bytes), "split at {split}");
        }
    }

    #[test]
    fn symbol_crcs_match_the_tables_on_odd_counts() {
        let symbols: Vec<u16> = (0..1_000_010u32)
            .map(|i| (i.wrapping_mul(40503) >> 3) as u16)
            .collect();
        let counts = (1..=301).step_by(2).chain([65_537, 999_999]);
        for (n, start) in counts.flat_map(|n| (0..8).map(move |start| (n, start))) {
            let run = &symbols[start..start + n];
            let bytes: Vec<u8> = run.iter().flat_map(|s| s.to_le_bytes()).collect();
            let mut tables = Crc32::new();
            tables.update_symbols_tables(run);
            let want = crc32_tables(&bytes);
            assert_eq!(tables.finish(), want, "tables, {n} symbols from {start}");
            assert_eq!(crc32_symbols(run), want, "{n} symbols from {start}");
            if n <= 301 {
                assert_eq!(want, crc32_bytewise(&bytes), "{n} symbols from {start}");
            }
        }
    }

    #[test]
    fn combine_equals_the_crc_of_the_concatenation() {
        let data: Vec<u8> = (0..72u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 11) as u8)
            .collect();
        for split in 0..=data.len() {
            let (a, b) = data.split_at(split);
            assert_eq!(
                crc32_combine(crc32(a), crc32(b), b.len() as u64),
                crc32(&data),
                "split {split}"
            );
        }
        let long: Vec<u8> = (0..1u32 << 20).map(|i| (i ^ i >> 9) as u8).collect();
        let whole: Vec<u8> = data.iter().chain(&long).copied().collect();
        assert_eq!(
            crc32_combine(crc32(&data), crc32(&long), long.len() as u64),
            crc32(&whole)
        );
    }

    #[test]
    fn folding_block_symbol_crcs_equals_the_whole_streams() {
        let symbols: Vec<u16> = (0..20_000u32)
            .map(|i| (i.wrapping_mul(40503) >> 5) as u16)
            .collect();
        for block in [1, 3, 777, 4097] {
            let folded = symbols.chunks(block).fold(crc32(b""), |crc, run| {
                crc32_combine(crc, crc32_symbols(run), run.len() as u64 * 2)
            });
            assert_eq!(folded, crc32_symbols(&symbols), "blocks of {block}");
        }
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let mut data = vec![0u8; 256];
        let base = crc32(&data);
        for byte in 0..256 {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(crc32(&data), base, "flip at {}:{} undetected", byte, bit);
                data[byte] ^= 1 << bit;
            }
        }
    }
}
