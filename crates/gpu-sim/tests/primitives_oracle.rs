//! The device primitives against a sequential oracle, on both backends.
//!
//! The primitives borrow their input and hand their output back by move; none of that may
//! show in what they compute or in what the model charges. Results are checked against a
//! sequential oracle at the sizes where tiling can go wrong (0, 1, tile − 1, tile,
//! tile + 1) and at 1 M elements; the simulator's modeled `PhaseTime` is pinned to the
//! values it had before the copy-in / copy-out convention was removed, and the CPU backend
//! must launch the same grids as the simulator.

use gpu_sim::primitives::{device_exclusive_prefix_sum, device_histogram};
use gpu_sim::{Backend, CpuBackend, Gpu, GpuConfig, PhaseTime};

const SCAN_TILE: usize = 256 * 4;
const HISTOGRAM_TILE: usize = 256 * 8;
const BINS: usize = 1024;

fn sizes(tile: usize) -> [usize; 6] {
    [0, 1, tile - 1, tile, tile + 1, 1 << 20]
}

fn values(n: usize) -> Vec<u64> {
    (0..n as u64)
        .map(|i| i.wrapping_mul(2654435761) % 23)
        .collect()
}

fn keys(n: usize) -> Vec<u32> {
    (0..n as u32)
        .map(|i| i.wrapping_mul(2654435761).rotate_left(7) % BINS as u32)
        .collect()
}

/// The CPU backend keeps the launch geometry of the simulator.
fn assert_same_launches(sim: &PhaseTime, cpu: &PhaseTime) {
    assert_eq!(sim.kernels.len(), cpu.kernels.len());
    for (s, c) in sim.kernels.iter().zip(&cpu.kernels) {
        assert_eq!(s.name, c.name);
        assert_eq!(s.grid_dim, c.grid_dim);
    }
}

#[test]
fn exclusive_prefix_sum_matches_the_oracle_and_the_pinned_model() {
    // Modeled V100 seconds per size, recorded at the parent of this test.
    let pinned = [
        0.0,
        1.2139130434782607e-5,
        1.2220289855072464e-5,
        1.2220289855072464e-5,
        1.2220289855072464e-5,
        4.928270222222222e-5,
    ];
    let sim = Gpu::with_host_threads(GpuConfig::v100(), 2);
    let cpu = CpuBackend::with_host_threads(GpuConfig::v100(), 2);
    for (n, pinned_seconds) in sizes(SCAN_TILE).into_iter().zip(pinned) {
        let input = values(n);
        let mut expect = Vec::with_capacity(n);
        let mut total = 0u64;
        for v in &input {
            expect.push(total);
            total += v;
        }
        let (sim_out, sim_total, sim_phase) = device_exclusive_prefix_sum(&sim, &input);
        let (cpu_out, cpu_total, cpu_phase) = device_exclusive_prefix_sum(&cpu, &input);
        assert_eq!(sim_out, expect, "sim scan of {} elements", n);
        assert_eq!(cpu_out, expect, "cpu scan of {} elements", n);
        assert_eq!((sim_total, cpu_total), (total, total));
        assert_eq!(
            sim_phase.seconds, pinned_seconds,
            "modeled scan time, n = {}",
            n
        );
        assert_same_launches(&sim_phase, &cpu_phase);
    }
}

#[test]
fn histogram_matches_the_oracle_and_the_pinned_model() {
    // Modeled V100 seconds per size, recorded at the parent of this test.
    let pinned = [
        0.0,
        8.270567632850241e-6,
        8.270567632850241e-6,
        8.270567632850241e-6,
        8.2706038647343e-6,
        1.323495884057971e-5,
    ];
    let sim = Gpu::with_host_threads(GpuConfig::v100(), 2);
    let cpu = CpuBackend::with_host_threads(GpuConfig::v100(), 2);
    assert!(sim.is_modeled() && !cpu.is_modeled());
    for (n, pinned_seconds) in sizes(HISTOGRAM_TILE).into_iter().zip(pinned) {
        let input = keys(n);
        let mut expect = vec![0u64; BINS];
        for &k in &input {
            expect[k as usize] += 1;
        }
        let (sim_out, sim_phase) = device_histogram(&sim, &input, BINS);
        let (cpu_out, cpu_phase) = device_histogram(&cpu, &input, BINS);
        assert_eq!(sim_out, expect, "sim histogram of {} keys", n);
        assert_eq!(cpu_out, expect, "cpu histogram of {} keys", n);
        assert_eq!(
            sim_phase.seconds, pinned_seconds,
            "modeled histogram time, n = {}",
            n
        );
        assert_same_launches(&sim_phase, &cpu_phase);
    }
}
