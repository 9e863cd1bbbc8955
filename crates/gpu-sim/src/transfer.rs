//! Host ↔ device transfer model (PCIe).
//!
//! Figure 5 of the paper adds the host-to-device copy of the compressed data to the
//! decompression time, which compresses the end-to-end speedup from 2.43× to 1.65×. The
//! transfer model is a simple latency + bandwidth model, which is adequate for multi-
//! megabyte transfers.

use crate::config::GpuConfig;

/// Direction of a PCIe transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferDirection {
    /// Host to device (`cudaMemcpyHostToDevice`).
    HostToDevice,
    /// Device to host (`cudaMemcpyDeviceToHost`).
    DeviceToHost,
}

/// Estimated time of a single contiguous transfer of `bytes` bytes.
pub fn transfer_time_s(cfg: &GpuConfig, bytes: u64, dir: TransferDirection) -> f64 {
    let bw = match dir {
        TransferDirection::HostToDevice => cfg.pcie_h2d_gbps,
        TransferDirection::DeviceToHost => cfg.pcie_d2h_gbps,
    };
    cfg.pcie_latency_us * 1e-6 + bytes as f64 / (bw * 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn large_transfer_approaches_link_bandwidth() {
        let cfg = GpuConfig::v100();
        let bytes = 1u64 << 30;
        let gbs =
            bytes as f64 / transfer_time_s(&cfg, bytes, TransferDirection::HostToDevice) / 1e9;
        assert!(gbs > 0.95 * cfg.pcie_h2d_gbps && gbs <= cfg.pcie_h2d_gbps);
    }

    #[test]
    fn small_transfer_dominated_by_latency() {
        let cfg = GpuConfig::v100();
        let t = transfer_time_s(&cfg, 64, TransferDirection::DeviceToHost);
        assert!(t >= cfg.pcie_latency_us * 1e-6);
        assert!(64.0 / t / 1e9 < 0.1);
    }

    #[test]
    fn time_monotone_in_bytes() {
        let cfg = GpuConfig::v100();
        let mut last = 0.0;
        for shift in 10..30 {
            let t = transfer_time_s(&cfg, 1 << shift, TransferDirection::HostToDevice);
            assert!(t > last);
            last = t;
        }
    }
}
