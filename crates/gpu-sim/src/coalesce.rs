//! Memory-coalescing analysis.
//!
//! On CUDA hardware, the 32 addresses issued by a warp's load or store instruction are
//! combined into memory transactions. Addresses falling into the same 128-byte segment are
//! serviced together, and DRAM traffic is counted in 32-byte sectors. A perfectly coalesced
//! warp access of 4-byte elements therefore touches 1 segment (4 sectors = 128 bytes); a
//! fully strided access can touch 32 segments (32 sectors = 1024 bytes of traffic for 128
//! useful bytes). This asymmetry is the root cause of the performance collapse of the
//! unoptimized fine-grained Huffman decoders on highly-compressible data (§IV-B of the
//! paper), so the simulator models it explicitly.

/// Result of coalescing a single warp-wide memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CoalesceResult {
    /// Number of distinct 128-byte segments touched (transaction count).
    pub segments: u64,
    /// Number of distinct 32-byte sectors touched (DRAM traffic = sectors * 32 bytes).
    pub sectors: u64,
    /// Bytes the warp actually requested (lanes * element size).
    pub useful_bytes: u64,
}

/// Analyzes a warp access where lane `i` accesses element index `base_elem + i *
/// stride_elems` of an array of `elem_bytes`-sized elements. Stride 1 is the canonical
/// coalesced pattern; a larger stride is the pattern of the unoptimized decoders' output
/// writes, where the stride is the number of symbols each thread decodes.
///
/// The lane addresses are a non-decreasing arithmetic progression, so the first and last
/// sector (and segment) of each lane's element never decrease from one lane to the next:
/// a lane adds exactly the units of its element that lie above the previous lane's last.
pub fn coalesce_strided(
    base_elem: u64,
    lanes: u32,
    stride_elems: u64,
    elem_bytes: u32,
    sector_bytes: u32,
    segment_bytes: u32,
) -> CoalesceResult {
    debug_assert!(sector_bytes.is_power_of_two());
    debug_assert!(segment_bytes.is_power_of_two());
    let mut sectors = DistinctUnits::new(sector_bytes);
    let mut segments = DistinctUnits::new(segment_bytes);
    for lane in 0..lanes as u64 {
        let first_byte = (base_elem + lane * stride_elems) * elem_bytes as u64;
        let last_byte = first_byte + elem_bytes as u64 - 1;
        sectors.cover(first_byte, last_byte);
        segments.cover(first_byte, last_byte);
    }
    CoalesceResult {
        segments: segments.count,
        sectors: sectors.count,
        useful_bytes: lanes as u64 * elem_bytes as u64,
    }
}

/// Counts the distinct `unit_bytes`-sized units under byte ranges whose bounds arrive in
/// non-decreasing order.
struct DistinctUnits {
    unit_bytes: u64,
    /// One past the highest unit counted so far.
    next_uncounted: u64,
    count: u64,
}

impl DistinctUnits {
    fn new(unit_bytes: u32) -> Self {
        DistinctUnits {
            unit_bytes: unit_bytes as u64,
            next_uncounted: 0,
            count: 0,
        }
    }

    fn cover(&mut self, first_byte: u64, last_byte: u64) {
        let first = (first_byte / self.unit_bytes).max(self.next_uncounted);
        let end = last_byte / self.unit_bytes + 1;
        if end > first {
            self.count += end - first;
            self.next_uncounted = end;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SECTOR: u32 = 32;
    const SEGMENT: u32 = 128;

    /// The oracle: analyzes one warp-wide access given the *byte* addresses accessed by
    /// the active lanes, in any order and with repeats, by listing every sector and
    /// segment touched and counting the distinct ones.
    fn coalesce_access(
        byte_addrs: &[u64],
        elem_bytes: u32,
        sector_bytes: u32,
        segment_bytes: u32,
    ) -> CoalesceResult {
        let distinct = |unit_bytes: u32| {
            let mut units: Vec<u64> = byte_addrs
                .iter()
                .flat_map(|&addr| {
                    addr / unit_bytes as u64..=(addr + elem_bytes as u64 - 1) / unit_bytes as u64
                })
                .collect();
            units.sort_unstable();
            units.dedup();
            units.len() as u64
        };
        CoalesceResult {
            segments: distinct(segment_bytes),
            sectors: distinct(sector_bytes),
            useful_bytes: byte_addrs.len() as u64 * elem_bytes as u64,
        }
    }

    #[test]
    fn progression_counter_equals_the_address_list_oracle() {
        let bases = [0u64, 1, 3, 7, 15, 16, 31, 33, 1000, 123_457];
        let strides = [0u64, 1, 2, 3, 5, 8, 17, 24, 64, 1000, 4096];
        for base in bases {
            for lanes in 0..=32u32 {
                for stride in strides {
                    for elem_bytes in [1u32, 2, 4, 8, 12] {
                        let addrs: Vec<u64> = (0..lanes as u64)
                            .map(|i| (base + i * stride) * elem_bytes as u64)
                            .collect();
                        assert_eq!(
                            coalesce_strided(base, lanes, stride, elem_bytes, SECTOR, SEGMENT),
                            coalesce_access(&addrs, elem_bytes, SECTOR, SEGMENT),
                            "base {} lanes {} stride {} width {}",
                            base,
                            lanes,
                            stride,
                            elem_bytes
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fully_coalesced_u32_access_is_one_segment() {
        let r = coalesce_strided(0, 32, 1, 4, SECTOR, SEGMENT);
        assert_eq!(r.segments, 1);
        assert_eq!(r.sectors, 4);
        assert_eq!(r.useful_bytes, 128);
    }

    #[test]
    fn fully_coalesced_u16_access_is_half_segment() {
        // 32 lanes * 2 bytes = 64 bytes = 2 sectors, 1 segment.
        let r = coalesce_strided(0, 32, 1, 2, SECTOR, SEGMENT);
        assert_eq!(r.segments, 1);
        assert_eq!(r.sectors, 2);
        assert_eq!(r.useful_bytes, 64);
    }

    #[test]
    fn large_stride_touches_one_sector_per_lane() {
        // Stride of 1024 elements of 2 bytes = 2048 bytes apart: every lane hits its own
        // sector and segment, 32 sectors of traffic for 64 useful bytes.
        let r = coalesce_strided(0, 32, 1024, 2, SECTOR, SEGMENT);
        assert_eq!(r.segments, 32);
        assert_eq!(r.sectors, 32);
        assert_eq!(r.useful_bytes, 64);
    }

    #[test]
    fn small_stride_partial_coalescing() {
        // Stride of 4 u32 elements = 16 bytes: two lanes per sector, 8 lanes per segment.
        let r = coalesce_strided(0, 32, 4, 4, SECTOR, SEGMENT);
        assert_eq!(r.segments, 4);
        assert_eq!(r.sectors, 16);
    }

    #[test]
    fn broadcast_access_is_single_sector() {
        let r = coalesce_strided(64, 32, 0, 4, SECTOR, SEGMENT);
        assert_eq!(r.segments, 1);
        assert_eq!(r.sectors, 1);
        assert_eq!(r, coalesce_access(&[256; 32], 4, SECTOR, SEGMENT));
    }

    #[test]
    fn misaligned_element_spans_two_sectors() {
        // Element 2 of a 12-byte-wide array is bytes 24..=35, across the boundary at 32.
        let r = coalesce_strided(2, 1, 1, 12, SECTOR, SEGMENT);
        assert_eq!(r.sectors, 2);
        assert_eq!(r, coalesce_access(&[24], 12, SECTOR, SEGMENT));
    }

    #[test]
    fn empty_access() {
        let r = coalesce_strided(5, 0, 3, 4, SECTOR, SEGMENT);
        assert_eq!(r, CoalesceResult::default());
        assert_eq!(r, coalesce_access(&[], 4, SECTOR, SEGMENT));
    }
}
