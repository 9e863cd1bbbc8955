//! The dataset registry: one [`DatasetSpec`] per dataset of the paper's evaluation
//! (Table III), carrying both the paper's metadata (dimensions, snapshot size, the
//! compression ratio cuSZ reaches at relative error bound 1e-3) and the parameters of the
//! synthetic generator that stands in for the real data.

use crate::field::Dims;

/// Scientific domain of a dataset (as described in Table III of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScienceDomain {
    /// Cosmological simulation (HACC, Nyx).
    Cosmology,
    /// Molecular dynamics (EXAALT / LAMMPS).
    MolecularDynamics,
    /// Climate simulation (CESM-ATM, Hurricane ISABEL).
    Climate,
    /// Quantum circuit / electronic-structure simulation (QMCPack).
    QuantumSimulation,
    /// Quantum chemistry two-electron integrals (GAMESS).
    QuantumChemistry,
    /// Seismic imaging / reverse time migration (RTM).
    Seismic,
}

/// Specification of one evaluation dataset: paper metadata plus synthetic-generator
/// parameters chosen so the generated field compresses like the real one (the calibration
/// target is [`DatasetSpec::paper_cr_1e3`], the knob [`DatasetSpec::noise_sigma`]; `repro
/// table4_compression_ratio` prints the two ratios side by side).
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// Dataset name as used in the paper's tables.
    pub name: &'static str,
    /// Scientific domain.
    pub domain: ScienceDomain,
    /// Full dimensions of one snapshot field, as listed in Table III.
    pub full_dims: Dims,
    /// Snapshot size in MiB as reported in Table III (all fields of the snapshot).
    pub paper_size_mib: f64,
    /// Number of fields in the snapshot, per Table III.
    pub num_fields: u32,
    /// Example field names from Table III.
    pub example_fields: &'static [&'static str],
    /// Huffman compression ratio of the baseline cuSZ encoding at relative error bound
    /// 1e-3 (Table IV, "baseline cuSZ" row) — quantization-code bytes over compressed
    /// bytes. The synthetic generator is tuned to land near this value.
    pub paper_cr_1e3: f64,
    /// Standard deviation of the white-noise component of the synthetic field, in the
    /// same (absolute) units as the unit-amplitude sparse features. Because the value
    /// range of a generated field is pinned near 1.0 by the features, this is the knob
    /// that controls how predictable the field is for a Lorenzo predictor and therefore
    /// the quantization-code entropy — independent of the generated resolution.
    pub noise_sigma: f64,
    /// Fraction of elements that are centres of localized features (Gaussian bumps of
    /// amplitude up to 1.0). Features carry the field's dynamic range, as the sharp
    /// structures in real scientific fields do, while contributing only a negligible
    /// fraction of the quantization codes.
    pub feature_density: f64,
    /// Radius of the features, in samples.
    pub feature_width: f64,
}

impl DatasetSpec {
    /// Total number of elements of a full-size snapshot field.
    pub fn full_elements(&self) -> usize {
        self.full_dims.len()
    }
}

/// All eight evaluation datasets, in the order the paper's tables list them.
pub fn all_datasets() -> Vec<DatasetSpec> {
    vec![
        DatasetSpec {
            name: "HACC",
            domain: ScienceDomain::Cosmology,
            full_dims: Dims::D1(280_953_867),
            paper_size_mib: 1071.75,
            num_fields: 6,
            example_fields: &["xx", "vx"],
            paper_cr_1e3: 3.20,
            noise_sigma: 0.0115,
            feature_density: 1e-4,
            feature_width: 1.5,
        },
        DatasetSpec {
            name: "EXAALT",
            domain: ScienceDomain::MolecularDynamics,
            full_dims: Dims::D2(2338, 106_711),
            paper_size_mib: 951.73,
            num_fields: 6,
            example_fields: &["dataset2.x"],
            paper_cr_1e3: 2.40,
            noise_sigma: 0.0258,
            feature_density: 1e-4,
            feature_width: 1.5,
        },
        DatasetSpec {
            name: "CESM",
            domain: ScienceDomain::Climate,
            full_dims: Dims::D3(26, 1800, 3600),
            paper_size_mib: 642.70,
            num_fields: 33,
            example_fields: &["CLDICE", "RELHUM"],
            paper_cr_1e3: 9.06,
            noise_sigma: 0.00036,
            feature_density: 5e-5,
            feature_width: 1.5,
        },
        DatasetSpec {
            name: "Nyx",
            domain: ScienceDomain::Cosmology,
            full_dims: Dims::D3(512, 512, 512),
            paper_size_mib: 512.0,
            num_fields: 6,
            example_fields: &["baryon_density"],
            paper_cr_1e3: 15.64,
            noise_sigma: 0.000075,
            feature_density: 2.5e-5,
            feature_width: 1.5,
        },
        DatasetSpec {
            name: "Hurricane",
            domain: ScienceDomain::Climate,
            full_dims: Dims::D4(4, 100, 500, 500),
            paper_size_mib: 381.47,
            num_fields: 13,
            example_fields: &["CLDICE", "QRAIN"],
            paper_cr_1e3: 9.78,
            noise_sigma: 0.00024,
            feature_density: 5e-5,
            feature_width: 1.5,
        },
        DatasetSpec {
            name: "QMCPack",
            domain: ScienceDomain::QuantumSimulation,
            full_dims: Dims::D4(115, 69, 69, 288),
            paper_size_mib: 601.52,
            num_fields: 2,
            example_fields: &["einspline", "einspline.pre"],
            paper_cr_1e3: 2.46,
            noise_sigma: 0.0115,
            feature_density: 1e-4,
            feature_width: 1.5,
        },
        DatasetSpec {
            name: "RTM",
            domain: ScienceDomain::Seismic,
            full_dims: Dims::D3(449, 449, 235),
            paper_size_mib: 180.73,
            num_fields: 1,
            example_fields: &["snapshot-1000"],
            paper_cr_1e3: 8.41,
            noise_sigma: 0.00033,
            feature_density: 5e-5,
            feature_width: 1.5,
        },
        DatasetSpec {
            name: "GAMESS",
            domain: ScienceDomain::QuantumChemistry,
            full_dims: Dims::D1(80_265_168),
            paper_size_mib: 306.19,
            num_fields: 3,
            example_fields: &["dddd", "ffdd", "ffff"],
            paper_cr_1e3: 12.10,
            noise_sigma: 0.00036,
            feature_density: 5e-5,
            feature_width: 1.5,
        },
    ]
}

/// Looks a dataset up by its (case-insensitive) paper name.
pub fn dataset_by_name(name: &str) -> Option<DatasetSpec> {
    all_datasets()
        .into_iter()
        .find(|d| d.name.eq_ignore_ascii_case(name))
}

#[cfg(test)]
impl DatasetSpec {
    /// Target bits per 16-bit quantization symbol implied by the paper's compression
    /// ratio (16 / CR).
    pub(crate) fn target_bits_per_symbol(&self) -> f64 {
        16.0 / self.paper_cr_1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_datasets_in_paper_order() {
        let names: Vec<&str> = all_datasets().iter().map(|d| d.name).collect();
        assert_eq!(
            names,
            vec![
                "HACC",
                "EXAALT",
                "CESM",
                "Nyx",
                "Hurricane",
                "QMCPack",
                "RTM",
                "GAMESS"
            ]
        );
    }

    #[test]
    fn lookup_by_name_case_insensitive() {
        assert!(dataset_by_name("hacc").is_some());
        assert!(dataset_by_name("NYX").is_some());
        assert!(dataset_by_name("does-not-exist").is_none());
    }

    #[test]
    fn nyx_dimensions_match_paper() {
        let nyx = dataset_by_name("Nyx").unwrap();
        assert_eq!(nyx.full_dims, Dims::D3(512, 512, 512));
        assert_eq!(nyx.full_elements(), 512 * 512 * 512);
        // One 512^3 f32 field is exactly the 512 MiB snapshot the paper lists.
        assert!(
            (nyx.full_elements() as f64 * 4.0 / (1024.0 * 1024.0) - nyx.paper_size_mib).abs() < 1.0
        );
    }

    #[test]
    fn scale_factor_shrinks_to_target() {
        let nyx = dataset_by_name("Nyx").unwrap();
        let got = nyx.full_dims.scaled_to_elements(2_000_000).len() as f64;
        assert!(got > 1_000_000.0 && got < 4_000_000.0, "scaled to {}", got);
        // Requesting more than full size never upscales.
        assert_eq!(nyx.full_dims.scaled_to_elements(usize::MAX), nyx.full_dims);
    }

    #[test]
    fn target_bits_per_symbol_sane() {
        for d in all_datasets() {
            let b = d.target_bits_per_symbol();
            assert!(b > 0.5 && b < 8.0, "{}: {} bits/symbol", d.name, b);
        }
    }

    #[test]
    fn compression_ratio_ordering_matches_paper() {
        // Nyx is the most compressible, EXAALT the least.
        let cr: Vec<f64> = all_datasets().iter().map(|d| d.paper_cr_1e3).collect();
        let max = cr.iter().cloned().fold(f64::MIN, f64::max);
        let min = cr.iter().cloned().fold(f64::MAX, f64::min);
        assert_eq!(dataset_by_name("Nyx").unwrap().paper_cr_1e3, max);
        assert_eq!(dataset_by_name("EXAALT").unwrap().paper_cr_1e3, min);
    }
}
