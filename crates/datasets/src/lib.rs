//! # datasets — synthetic scientific dataset generators
//!
//! Stand-ins for the eight real-world datasets of the paper's evaluation (Table III).
//! The real datasets (HACC, EXAALT, CESM-ATM, Nyx, Hurricane ISABEL, QMCPack, RTM,
//! GAMESS) are hundreds of megabytes of production simulation output that are not
//! available in this environment; each is replaced (construction: [`generators`],
//! per-dataset calibration: [`registry`])
//! by a synthetic single-precision field generator with the same dimensionality and tuned
//! so that cuSZ-style Lorenzo prediction + quantization at relative error bound 1e-3
//! lands in the same compression-ratio regime the paper reports for that dataset.
//!
//! The decoders only see the statistics of the resulting quantization-code stream, so
//! matching dimensionality and compressibility is what preserves the experiments' shape.

#![warn(missing_docs)]

pub mod field;
pub mod generators;
pub mod registry;
pub mod rng;

pub use field::{Dims, Field};
pub use generators::{generate, generate_with_dims};
pub use registry::{all_datasets, dataset_by_name, DatasetSpec, ScienceDomain};
pub use rng::Rng;
