//! Per-block execution context and cost recording.
//!
//! Simulated kernels are written at *block* granularity: the kernel's `block` function is
//! called once per thread block and manages its own per-thread state (index arrays, local
//! buffers). SIMT costs — instruction issue (a warp in lock-step pays its slowest lane, so
//! kernels charge the maximum over lanes), global-memory transactions, shared-memory
//! accesses, warp votes, barriers — are reported through the [`BlockContext`], which
//! maintains a clock per warp. When the block finishes, its cost is the maximum warp
//! clock, exactly as a real block's latency is determined by its slowest warp.
//!
//! A context of an *unmodeled* launch (the CPU backend's, see
//! [`crate::Gpu::launch_unmodeled`]) keeps the block's identity and geometry but records
//! nothing: every charge call returns at its top and no warp clock is allocated.

use crate::coalesce::coalesce_strided;
use crate::config::GpuConfig;

/// Default instruction cost constants (in cycles) used by the cost model.
///
/// These are issue-cost approximations, not latencies: latency is modelled separately via
/// the occupancy-dependent latency-hiding term in [`crate::timing`].
pub mod cost {
    /// Cost of issuing one arithmetic/logic instruction for a warp.
    pub const ALU: f64 = 1.0;
    /// Issue cost of a global-memory transaction (per 32-byte sector).
    pub const GLOBAL_SECTOR_ISSUE: f64 = 2.0;
    /// Cost of one conflict-free shared-memory access for a warp.
    pub const SHARED_ACCESS: f64 = 2.0;
    /// Cost of a block-wide barrier (`__syncthreads`).
    pub const BARRIER: f64 = 20.0;
    /// Cost of a warp-level vote/shuffle (`__all_sync`, `__ballot_sync`, `__shfl_sync`).
    pub const WARP_PRIMITIVE: f64 = 2.0;
    /// Approximate cost of decoding a single Huffman codeword bit-by-bit (table walk:
    /// dependent load from the cached codebook, compare, shift). The dependent-load chain
    /// is only partially hidden even when the codebook sits in L1/L2, so the effective
    /// issue cost per bit is well above a single ALU operation.
    pub const DECODE_PER_BIT: f64 = 12.0;
}

/// Aggregated global-memory statistics for a block or kernel.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MemStats {
    /// Warp-level load instructions issued.
    pub load_requests: u64,
    /// Warp-level store instructions issued.
    pub store_requests: u64,
    /// 128-byte segments (transactions) touched by loads.
    pub load_segments: u64,
    /// 128-byte segments (transactions) touched by stores.
    pub store_segments: u64,
    /// 32-byte sectors touched by loads (DRAM read traffic / 32).
    pub load_sectors: u64,
    /// 32-byte sectors touched by stores (DRAM write traffic / 32).
    pub store_sectors: u64,
    /// Bytes actually requested by loads.
    pub useful_load_bytes: u64,
    /// Bytes actually requested by stores.
    pub useful_store_bytes: u64,
    /// Shared-memory access instructions issued.
    pub shared_accesses: u64,
}

impl MemStats {
    /// Total DRAM traffic in bytes (reads + writes), derived from sector counts.
    pub fn dram_bytes(&self, sector_bytes: u32) -> u64 {
        (self.load_sectors + self.store_sectors) * sector_bytes as u64
    }

    /// Accumulates another `MemStats` into this one.
    pub fn merge(&mut self, o: &MemStats) {
        self.load_requests += o.load_requests;
        self.store_requests += o.store_requests;
        self.load_segments += o.load_segments;
        self.store_segments += o.store_segments;
        self.load_sectors += o.load_sectors;
        self.store_sectors += o.store_sectors;
        self.useful_load_bytes += o.useful_load_bytes;
        self.useful_store_bytes += o.useful_store_bytes;
        self.shared_accesses += o.shared_accesses;
    }
}

/// Final cost summary for one executed block.
#[derive(Debug, Clone, Copy, Default)]
pub struct BlockStats {
    /// The block's latency in cycles: the maximum warp clock at block completion.
    pub cycles: f64,
    /// Sum of all warp clocks (total issue work in the block).
    pub total_warp_cycles: f64,
    /// Global/shared memory statistics.
    pub mem: MemStats,
    /// Number of `__syncthreads` barriers executed.
    pub barriers: u64,
}

/// Execution context handed to a kernel's `block` function: identifies the block and
/// records SIMT costs.
pub struct BlockContext<'a> {
    config: &'a GpuConfig,
    block_idx: u32,
    grid_dim: u32,
    block_dim: u32,
    shared_mem_bytes: u32,
    /// `false` on an unmodeled launch: every charge returns at its top and
    /// `warp_cycles` stays empty.
    modeled: bool,
    warp_cycles: Vec<f64>,
    mem: MemStats,
    barriers: u64,
}

impl<'a> BlockContext<'a> {
    /// Creates a context for block `block_idx` of a grid of `grid_dim` blocks with
    /// `block_dim` threads each; an unmodeled one (`modeled == false`) records nothing.
    pub(crate) fn new(
        config: &'a GpuConfig,
        block_idx: u32,
        grid_dim: u32,
        block_dim: u32,
        shared_mem_bytes: u32,
        modeled: bool,
    ) -> Self {
        assert!(block_dim > 0, "block_dim must be positive");
        let warp_cycles = if modeled {
            vec![0.0; block_dim.div_ceil(config.warp_size) as usize]
        } else {
            Vec::new()
        };
        BlockContext {
            config,
            block_idx,
            grid_dim,
            block_dim,
            shared_mem_bytes,
            modeled,
            warp_cycles,
            mem: MemStats::default(),
            barriers: 0,
        }
    }

    /// The GPU configuration this block runs under.
    pub fn config(&self) -> &GpuConfig {
        self.config
    }

    /// `blockIdx.x`.
    pub fn block_idx(&self) -> u32 {
        self.block_idx
    }

    /// `gridDim.x`.
    pub fn grid_dim(&self) -> u32 {
        self.grid_dim
    }

    /// `blockDim.x`.
    pub fn block_dim(&self) -> u32 {
        self.block_dim
    }

    /// Shared memory bytes allocated to this block at launch.
    pub fn shared_mem_bytes(&self) -> u32 {
        self.shared_mem_bytes
    }

    /// Number of warps in the block.
    pub fn warp_count(&self) -> u32 {
        self.block_dim.div_ceil(self.config.warp_size)
    }

    fn warp_mut(&mut self, warp: u32) -> &mut f64 {
        &mut self.warp_cycles[warp as usize]
    }

    /// Charges `cycles` of uniform (convergent) compute to a warp.
    #[inline]
    pub fn compute(&mut self, warp: u32, cycles: f64) {
        if !self.modeled {
            return;
        }
        *self.warp_mut(warp) += cycles;
    }

    /// Charges a warp-level primitive (`__all_sync`, `__ballot_sync`, shuffle, ...).
    #[inline]
    pub fn warp_primitive(&mut self, warp: u32) {
        if !self.modeled {
            return;
        }
        *self.warp_mut(warp) += cost::WARP_PRIMITIVE;
    }

    /// Charges one warp-wide global access whose lane `i` touches element
    /// `base_elem + i * stride_elems`: the traffic it coalesces into, and the issue cost
    /// of its sectors.
    fn charge_global(
        &mut self,
        warp: u32,
        base_elem: u64,
        lanes: u32,
        stride_elems: u64,
        elem_bytes: u32,
        is_store: bool,
    ) {
        let r = coalesce_strided(
            base_elem,
            lanes,
            stride_elems,
            elem_bytes,
            self.config.sector_bytes,
            self.config.segment_bytes,
        );
        if is_store {
            self.mem.store_requests += 1;
            self.mem.store_segments += r.segments;
            self.mem.store_sectors += r.sectors;
            self.mem.useful_store_bytes += r.useful_bytes;
        } else {
            self.mem.load_requests += 1;
            self.mem.load_segments += r.segments;
            self.mem.load_sectors += r.sectors;
            self.mem.useful_load_bytes += r.useful_bytes;
        }
        *self.warp_mut(warp) += cost::GLOBAL_SECTOR_ISSUE * r.sectors as f64;
    }

    /// Records a perfectly contiguous warp load: lane `i` reads element `base_elem + i`.
    #[inline]
    pub fn global_load_contiguous(
        &mut self,
        warp: u32,
        base_elem: u64,
        lanes: u32,
        elem_bytes: u32,
    ) {
        if !self.modeled {
            return;
        }
        self.charge_global(warp, base_elem, lanes, 1, elem_bytes, false);
    }

    /// Records a perfectly contiguous warp store: lane `i` writes element `base_elem + i`.
    #[inline]
    pub fn global_store_contiguous(
        &mut self,
        warp: u32,
        base_elem: u64,
        lanes: u32,
        elem_bytes: u32,
    ) {
        if !self.modeled {
            return;
        }
        self.charge_global(warp, base_elem, lanes, 1, elem_bytes, true);
    }

    /// Records a strided warp load: lane `i` reads element `base_elem + i * stride_elems`.
    #[inline]
    pub fn global_load_strided(
        &mut self,
        warp: u32,
        base_elem: u64,
        lanes: u32,
        stride_elems: u64,
        elem_bytes: u32,
    ) {
        if !self.modeled {
            return;
        }
        self.charge_global(warp, base_elem, lanes, stride_elems, elem_bytes, false);
    }

    /// Records a strided warp store: lane `i` writes element `base_elem + i * stride_elems`.
    #[inline]
    pub fn global_store_strided(
        &mut self,
        warp: u32,
        base_elem: u64,
        lanes: u32,
        stride_elems: u64,
        elem_bytes: u32,
    ) {
        if !self.modeled {
            return;
        }
        self.charge_global(warp, base_elem, lanes, stride_elems, elem_bytes, true);
    }

    /// Records `accesses` conflict-free warp-wide shared-memory accesses: the decoders'
    /// threads write disjoint sequential runs of the staging buffer, the cooperative copy
    /// reads consecutive words, and the encoder's lanes each step their own count table.
    #[inline]
    pub fn shared_access_contiguous(&mut self, warp: u32, accesses: u64) {
        if !self.modeled {
            return;
        }
        self.mem.shared_accesses += accesses;
        *self.warp_mut(warp) += cost::SHARED_ACCESS * accesses as f64;
    }

    /// Executes a block-wide barrier (`__syncthreads`): all warp clocks advance to the
    /// maximum clock plus the barrier cost.
    #[inline]
    pub fn syncthreads(&mut self) {
        if !self.modeled {
            return;
        }
        let max = self.warp_cycles.iter().cloned().fold(0.0, f64::max);
        for c in &mut self.warp_cycles {
            *c = max + cost::BARRIER;
        }
        self.barriers += 1;
    }

    /// Finalizes the block and returns its cost summary.
    pub(crate) fn finish(self) -> BlockStats {
        let cycles = self.warp_cycles.iter().cloned().fold(0.0, f64::max);
        let total: f64 = self.warp_cycles.iter().sum();
        BlockStats {
            cycles,
            total_warp_cycles: total,
            mem: self.mem,
            barriers: self.barriers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(cfg: &GpuConfig) -> BlockContext<'_> {
        BlockContext::new(cfg, 0, 4, 128, 0, true)
    }

    #[test]
    fn warp_count_matches_block_dim() {
        let cfg = GpuConfig::v100();
        let c = BlockContext::new(&cfg, 1, 8, 96, 0, true);
        assert_eq!(c.warp_count(), 3);
        assert_eq!(c.block_idx(), 1);
        assert_eq!(c.grid_dim(), 8);
    }

    #[test]
    fn compute_accumulates_per_warp() {
        let cfg = GpuConfig::v100();
        let mut c = ctx(&cfg);
        c.compute(0, 10.0);
        c.compute(1, 30.0);
        let stats = c.finish();
        assert!((stats.cycles - 30.0).abs() < 1e-9);
        assert!((stats.total_warp_cycles - 40.0).abs() < 1e-9);
    }

    #[test]
    fn coalesced_store_produces_few_sectors() {
        let cfg = GpuConfig::v100();
        let mut c = ctx(&cfg);
        c.global_store_contiguous(0, 0, 32, 2);
        let stats = c.finish();
        assert_eq!(stats.mem.store_sectors, 2);
        assert_eq!(stats.mem.store_segments, 1);
        assert_eq!(stats.mem.useful_store_bytes, 64);
    }

    #[test]
    fn strided_store_produces_many_sectors() {
        let cfg = GpuConfig::v100();
        let mut c = ctx(&cfg);
        c.global_store_strided(0, 0, 32, 1000, 2);
        let stats = c.finish();
        // 64 useful bytes cost 32 sectors of traffic.
        assert_eq!(stats.mem.store_sectors, 32);
        assert_eq!(stats.mem.useful_store_bytes, 64);
        assert_eq!(stats.mem.dram_bytes(cfg.sector_bytes), 1024);
    }

    #[test]
    fn syncthreads_aligns_warp_clocks() {
        let cfg = GpuConfig::v100();
        let mut c = ctx(&cfg);
        c.compute(0, 100.0);
        c.compute(1, 10.0);
        c.syncthreads();
        c.compute(1, 5.0);
        let stats = c.finish();
        assert!((stats.cycles - (100.0 + cost::BARRIER + 5.0)).abs() < 1e-9);
        assert_eq!(stats.barriers, 1);
    }

    #[test]
    fn mem_stats_merge_and_efficiency() {
        let mut a = MemStats {
            load_sectors: 4,
            useful_load_bytes: 128,
            ..Default::default()
        };
        let b = MemStats {
            store_sectors: 8,
            useful_store_bytes: 64,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.dram_bytes(32), 12 * 32);
        assert_eq!(a.useful_load_bytes + a.useful_store_bytes, 192);
    }
}
