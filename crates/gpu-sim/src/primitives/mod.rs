//! Device-wide primitives modelled on CUB: exclusive prefix sum, histogram and key-value
//! radix sort.
//!
//! The paper's online shared-memory tuning (Algorithm 2) is built from exactly these
//! primitives — "The algorithm used is the same variation of Gómez-Luna et al. that is
//! used in cuSZ" (histogram) and "the DeviceRadixSort routine in CUB" (key-value sort) —
//! so they are implemented here as real multi-kernel algorithms running on the simulator,
//! both to exercise the execution model and to charge the tuner a faithful overhead
//! (several kernel launches on small arrays, dominated by launch latency, which is why the
//! paper measures a roughly constant ~220 µs tuning cost).

pub mod histogram;
pub mod radix_sort;
pub mod scan;

pub use histogram::device_histogram;
pub use radix_sort::device_radix_sort_pairs;
pub use scan::device_exclusive_prefix_sum;
