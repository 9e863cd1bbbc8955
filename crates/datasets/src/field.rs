//! Multi-dimensional single-precision fields.
//!
//! A [`Field`] is the unit of compression in the evaluation: one named variable of one
//! dataset snapshot (e.g. HACC `xx`, CESM `CLDICE`), stored as a flat `Vec<f32>` in
//! row-major order with explicit dimensions. All eight paper datasets are 1D–4D
//! single-precision fields; cuSZ (and this reproduction) compresses them one field at a
//! time.

/// Dimensions of a field, 1D through 4D, matching the dimensionalities in Table III of
/// the paper. Row-major (last dimension fastest).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dims {
    /// One-dimensional data (HACC particle arrays, GAMESS integral blocks).
    D1(usize),
    /// Two-dimensional data (EXAALT / LAMMPS).
    D2(usize, usize),
    /// Three-dimensional data (CESM-ATM, Nyx, RTM).
    D3(usize, usize, usize),
    /// Four-dimensional data (Hurricane ISABEL, QMCPack).
    D4(usize, usize, usize, usize),
}

impl Dims {
    /// Total number of elements.
    pub fn len(&self) -> usize {
        match *self {
            Dims::D1(a) => a,
            Dims::D2(a, b) => a * b,
            Dims::D3(a, b, c) => a * b * c,
            Dims::D4(a, b, c, d) => a * b * c * d,
        }
    }

    /// True if the field has no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of dimensions (1–4).
    pub fn ndim(&self) -> usize {
        match self {
            Dims::D1(..) => 1,
            Dims::D2(..) => 2,
            Dims::D3(..) => 3,
            Dims::D4(..) => 4,
        }
    }

    /// Dimensions as a vector, slowest-varying first.
    pub fn as_vec(&self) -> Vec<usize> {
        match *self {
            Dims::D1(a) => vec![a],
            Dims::D2(a, b) => vec![a, b],
            Dims::D3(a, b, c) => vec![a, b, c],
            Dims::D4(a, b, c, d) => vec![a, b, c, d],
        }
    }

    /// Builds `Dims` from a slice of 1–4 extents.
    ///
    /// # Panics
    /// Panics if the slice is empty or longer than 4.
    pub fn from_slice(dims: &[usize]) -> Dims {
        match dims {
            [a] => Dims::D1(*a),
            [a, b] => Dims::D2(*a, *b),
            [a, b, c] => Dims::D3(*a, *b, *c),
            [a, b, c, d] => Dims::D4(*a, *b, *c, *d),
            _ => panic!("expected 1-4 dimensions, got {}", dims.len()),
        }
    }

    /// Scales every extent by `factor` (rounding, with a floor of 4 per extent unless the
    /// original extent was smaller) so the total size approaches `factor^ndim` times the
    /// original. Used to shrink the paper's multi-hundred-megabyte snapshots to
    /// benchmark-friendly sizes while preserving dimensionality.
    pub fn scaled(&self, factor: f64) -> Dims {
        let scale_one = |x: usize| -> usize {
            if x <= 4 {
                return x;
            }
            (((x as f64) * factor).round() as usize).clamp(4, x)
        };
        Dims::from_slice(
            &self
                .as_vec()
                .iter()
                .map(|&x| scale_one(x))
                .collect::<Vec<_>>(),
        )
    }

    /// Scales the dimensions so the total element count lands near `target_elements`,
    /// iterating to compensate for extents that hit the floor of 4 (strongly anisotropic
    /// datasets like CESM's 26-level or Hurricane's 4-slot dimensions).
    pub fn scaled_to_elements(&self, target_elements: usize) -> Dims {
        let full = self.len();
        if target_elements == 0 || full == 0 || target_elements >= full {
            return *self;
        }
        let ndim = self.ndim() as f64;
        let mut factor = (target_elements as f64 / full as f64).powf(1.0 / ndim);
        let mut best = self.scaled(factor);
        for _ in 0..12 {
            let got = best.len();
            if got <= target_elements + target_elements / 4 {
                break;
            }
            factor *= (target_elements as f64 / got as f64).powf(1.0 / ndim);
            best = self.scaled(factor);
        }
        best
    }
}

/// One named single-precision field.
#[derive(Debug, Clone)]
pub struct Field {
    /// Field name (e.g. `"xx"`, `"CLDICE"`).
    pub name: String,
    /// Dimensions; `dims.len() == data.len()`.
    pub dims: Dims,
    /// Row-major data.
    pub data: Vec<f32>,
}

impl Field {
    /// Creates a field, checking that the data length matches the dimensions.
    pub fn new(name: impl Into<String>, dims: Dims, data: Vec<f32>) -> Self {
        assert_eq!(
            dims.len(),
            data.len(),
            "field data length must match dimensions"
        );
        Field {
            name: name.into(),
            dims,
            data,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the field has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Size in bytes of the uncompressed single-precision data.
    pub fn bytes(&self) -> u64 {
        self.data.len() as u64 * 4
    }

    /// Minimum and maximum values (`(0.0, 0.0)` for an empty field). NaNs are skipped:
    /// an all-NaN field gives `(inf, -inf)`.
    ///
    /// Eight independent lanes keep a running minimum and maximum each, by compare and
    /// select: a NaN compares false and never replaces a lane's value. Lanes have no
    /// dependency on one another, so the pass is not one long chain of dependent
    /// compares, and the compiler can hold the lanes in vector registers.
    pub fn value_range(&self) -> (f32, f32) {
        if self.data.is_empty() {
            return (0.0, 0.0);
        }
        const LANES: usize = 8;
        let below = |v: f32, lo: f32| if v < lo { v } else { lo };
        let above = |v: f32, hi: f32| if v > hi { v } else { hi };
        let mut min = [f32::INFINITY; LANES];
        let mut max = [f32::NEG_INFINITY; LANES];
        let mut chunks = self.data.chunks_exact(LANES);
        for chunk in &mut chunks {
            for ((lo, hi), &v) in min.iter_mut().zip(&mut max).zip(chunk) {
                *lo = below(v, *lo);
                *hi = above(v, *hi);
            }
        }
        let tail = chunks.remainder().iter().map(|&v| (v, v));
        min.into_iter()
            .zip(max)
            .chain(tail)
            .fold((f32::INFINITY, f32::NEG_INFINITY), |(lo, hi), (a, b)| {
                (below(a, lo), above(b, hi))
            })
    }

    /// The value span `max - min`, used to convert relative error bounds to absolute.
    pub fn range_span(&self) -> f32 {
        let (min, max) = self.value_range();
        max - min
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dims_len_and_ndim() {
        assert_eq!(Dims::D1(10).len(), 10);
        assert_eq!(Dims::D2(3, 4).len(), 12);
        assert_eq!(Dims::D3(2, 3, 4).len(), 24);
        assert_eq!(Dims::D4(2, 2, 2, 2).len(), 16);
        assert_eq!(Dims::D3(2, 3, 4).ndim(), 3);
        assert_eq!(Dims::D4(1, 1, 1, 1).as_vec(), vec![1, 1, 1, 1]);
    }

    #[test]
    fn dims_from_slice_roundtrip() {
        for d in [
            Dims::D1(7),
            Dims::D2(5, 6),
            Dims::D3(3, 4, 5),
            Dims::D4(2, 3, 4, 5),
        ] {
            assert_eq!(Dims::from_slice(&d.as_vec()), d);
        }
    }

    #[test]
    #[should_panic(expected = "expected 1-4 dimensions")]
    fn dims_from_bad_slice_panics() {
        let _ = Dims::from_slice(&[1, 2, 3, 4, 5]);
    }

    #[test]
    fn dims_scaling_reduces_total_size() {
        let d = Dims::D3(512, 512, 512);
        let s = d.scaled(0.125);
        assert_eq!(s, Dims::D3(64, 64, 64));
        assert_eq!(d.scaled(1.0), d);
        // Scaling never goes below the floor of 4.
        assert_eq!(Dims::D3(512, 512, 512).scaled(1e-6), Dims::D3(4, 4, 4));
    }

    #[test]
    fn field_construction_and_range() {
        let f = Field::new("t", Dims::D2(2, 3), vec![1.0, -2.0, 3.0, 0.5, 0.0, 2.5]);
        assert_eq!(f.len(), 6);
        assert_eq!(f.bytes(), 24);
        assert_eq!(f.value_range(), (-2.0, 3.0));
        assert_eq!(f.range_span(), 5.0);
    }

    /// The `f32::min`/`max` fold the lanes replaced, kept as their reference.
    fn folded_range(data: &[f32]) -> (f32, f32) {
        if data.is_empty() {
            return (0.0, 0.0);
        }
        data.iter()
            .fold((f32::INFINITY, f32::NEG_INFINITY), |(lo, hi), &v| {
                (lo.min(v), hi.max(v))
            })
    }

    #[test]
    fn lane_range_matches_the_min_max_fold() {
        let specials = [
            f32::NAN,
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MAX,
            f32::MIN,
            1.5,
            -2.25,
        ];
        let mut state = 0x2545_F491u32;
        for len in 0..=17 {
            for _ in 0..200 {
                let data: Vec<f32> = (0..len)
                    .map(|_| {
                        state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                        specials[(state >> 24) as usize % specials.len()]
                    })
                    .collect();
                let range = Field::new("t", Dims::D1(len), data.clone()).value_range();
                // Compared with `==`: the fold leaves the sign of a zero min or max
                // unspecified, and a NaN never reaches either result.
                assert_eq!(range, folded_range(&data), "{:?}", data);
            }
        }
        let nans = Field::new("nan", Dims::D1(9), vec![f32::NAN; 9]);
        assert_eq!(nans.value_range(), (f32::INFINITY, f32::NEG_INFINITY));
        // On nonzero data the two agree to the bit, and so does the span.
        for spec in crate::all_datasets() {
            let field = crate::generate(&spec, 20_011, 5);
            let (lo, hi) = field.value_range();
            let (flo, fhi) = folded_range(&field.data);
            assert_eq!([lo, hi].map(f32::to_bits), [flo, fhi].map(f32::to_bits));
        }
    }

    #[test]
    #[should_panic(expected = "must match dimensions")]
    fn field_length_mismatch_panics() {
        let _ = Field::new("bad", Dims::D1(3), vec![1.0]);
    }

    #[test]
    fn empty_field_range() {
        let f = Field::new("empty", Dims::D1(0), vec![]);
        assert!(f.is_empty());
        assert_eq!(f.value_range(), (0.0, 0.0));
    }
}
