//! Error-bound modes.
//!
//! SZ-family compressors are *error bounded*: the user chooses a bound and the compressor
//! guarantees `|reconstructed - original| <= bound` point-wise. The paper's evaluation
//! uses the point-wise **relative** error bound mode (relative to the field's value
//! range), with 1e-3 as the headline setting; Fig. 2 sweeps it.

/// An error bound specification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ErrorBound {
    /// Absolute point-wise bound: `|x' - x| <= value`.
    Absolute(f64),
    /// Range-relative point-wise bound: `|x' - x| <= value * (max - min)`.
    Relative(f64),
}

impl ErrorBound {
    /// The paper's headline setting: relative error bound 1e-3.
    pub fn paper_default() -> Self {
        ErrorBound::Relative(1e-3)
    }

    /// Converts the bound to an absolute bound for a field with the given value range.
    ///
    /// A degenerate (zero-range) field gets a tiny positive bound so quantization is
    /// still well-defined.
    pub fn to_absolute(&self, value_range: f64) -> f64 {
        let abs = match *self {
            ErrorBound::Absolute(v) => v,
            ErrorBound::Relative(v) => v * value_range.abs(),
        };
        if abs <= 0.0 {
            f64::EPSILON
        } else {
            abs
        }
    }

    /// The numeric parameter of the bound (used for labelling experiment output).
    pub fn value(&self) -> f64 {
        match *self {
            ErrorBound::Absolute(v) | ErrorBound::Relative(v) => v,
        }
    }

    /// Stable `(mode tag, value)` pair used by serialized archive formats
    /// (0 = absolute, 1 = relative).
    pub fn wire_parts(&self) -> (u8, f64) {
        match *self {
            ErrorBound::Absolute(v) => (0, v),
            ErrorBound::Relative(v) => (1, v),
        }
    }

    /// Inverse of [`ErrorBound::wire_parts`]; `None` for unknown tags or non-finite
    /// values (which can only come from a corrupted archive).
    pub fn from_wire_parts(tag: u8, value: f64) -> Option<ErrorBound> {
        if !value.is_finite() {
            return None;
        }
        match tag {
            0 => Some(ErrorBound::Absolute(value)),
            1 => Some(ErrorBound::Relative(value)),
            _ => None,
        }
    }
}

#[cfg(test)]
impl ErrorBound {
    /// True if this is a relative bound.
    pub(crate) fn is_relative(&self) -> bool {
        matches!(self, ErrorBound::Relative(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_bound_scales_with_range() {
        let eb = ErrorBound::Relative(1e-3);
        assert!((eb.to_absolute(100.0) - 0.1).abs() < 1e-12);
        assert!((eb.to_absolute(1.0) - 1e-3).abs() < 1e-15);
    }

    #[test]
    fn absolute_bound_ignores_range() {
        let eb = ErrorBound::Absolute(0.5);
        assert_eq!(eb.to_absolute(100.0), 0.5);
        assert_eq!(eb.to_absolute(0.0), 0.5);
    }

    #[test]
    fn zero_range_still_positive() {
        let eb = ErrorBound::Relative(1e-3);
        assert!(eb.to_absolute(0.0) > 0.0);
    }

    #[test]
    fn paper_default_is_relative_1e3() {
        let eb = ErrorBound::paper_default();
        assert!(eb.is_relative());
        assert!((eb.value() - 1e-3).abs() < 1e-15);
    }
}
