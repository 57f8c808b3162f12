//! Temporal and spatial sampling characteristics.
//!
//! The paper's `td_iter_param_init(begin, end, step)` describes *which*
//! iterations (temporal characteristic) and *which* locations (spatial
//! characteristic) the collector should sample. [`IterParam`] is that tuple
//! of three, with inclusive bounds, plus the membership and enumeration
//! queries the collector needs on every iteration.

use crate::error::{Error, Result};

/// An inclusive `begin..=end` range walked with a positive `step`.
///
/// ```
/// use insitu::IterParam;
///
/// // The LULESH example from the paper: iterations 50..=373 every 10 steps.
/// let temporal = IterParam::new(50, 373, 10).unwrap();
/// assert!(temporal.contains(50));
/// assert!(temporal.contains(60));
/// assert!(!temporal.contains(55));
/// assert_eq!(temporal.len(), 33);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IterParam {
    begin: u64,
    end: u64,
    step: u64,
}

impl IterParam {
    /// Creates a sampling range from `begin` to `end` inclusive with the
    /// given stride.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidRange`] if `step` is zero or `end < begin`.
    pub fn new(begin: u64, end: u64, step: u64) -> Result<Self> {
        if step == 0 {
            return Err(Error::InvalidRange {
                what: "step must be positive".into(),
            });
        }
        if end < begin {
            return Err(Error::InvalidRange {
                what: format!("end ({end}) must not precede begin ({begin})"),
            });
        }
        Ok(Self { begin, end, step })
    }

    /// A range containing every value from `begin` to `end` inclusive.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidRange`] if `end < begin`.
    pub fn dense(begin: u64, end: u64) -> Result<Self> {
        Self::new(begin, end, 1)
    }

    /// A range containing the single value `only`.
    pub fn single(only: u64) -> Self {
        Self {
            begin: only,
            end: only,
            step: 1,
        }
    }

    /// First value of the range.
    pub fn begin(&self) -> u64 {
        self.begin
    }

    /// Last admissible value of the range (inclusive bound; the last
    /// *sampled* value may be smaller if the stride does not land on it).
    pub fn end(&self) -> u64 {
        self.end
    }

    /// Stride between sampled values.
    pub fn step(&self) -> u64 {
        self.step
    }

    /// Number of sampled values.
    pub fn len(&self) -> usize {
        ((self.end - self.begin) / self.step + 1) as usize
    }

    /// Whether the range samples no values (never true for a valid value).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether `value` is one of the sampled points.
    pub fn contains(&self, value: u64) -> bool {
        value >= self.begin && value <= self.end && (value - self.begin).is_multiple_of(self.step)
    }

    /// The position of `value` within the sampled sequence, if it is sampled.
    pub fn index_of(&self, value: u64) -> Option<usize> {
        if self.contains(value) {
            Some(((value - self.begin) / self.step) as usize)
        } else {
            None
        }
    }

    /// The `index`-th sampled value, if it exists.
    pub fn nth(&self, index: usize) -> Option<u64> {
        let candidate = self
            .begin
            .checked_add(self.step.checked_mul(index as u64)?)?;
        (candidate <= self.end).then_some(candidate)
    }

    /// Iterates over all sampled values in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        (self.begin..=self.end).step_by(self.step as usize)
    }

    /// A copy of this range truncated to the first `fraction` (0..=1) of its
    /// sampled values — how "training data from N % of total iterations" is
    /// expressed in the paper's accuracy studies.
    pub fn truncate_fraction(&self, fraction: f64) -> IterParam {
        let frac = fraction.clamp(0.0, 1.0);
        let keep = ((self.len() as f64) * frac).round().max(1.0) as usize;
        let last = self.nth(keep - 1).unwrap_or(self.begin);
        IterParam {
            begin: self.begin,
            end: last,
            step: self.step,
        }
    }
}

impl IntoIterator for IterParam {
    type Item = u64;
    type IntoIter = std::iter::StepBy<std::ops::RangeInclusive<u64>>;

    fn into_iter(self) -> Self::IntoIter {
        (self.begin..=self.end).step_by(self.step as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_validation() {
        assert!(IterParam::new(0, 10, 0).is_err());
        assert!(IterParam::new(10, 5, 1).is_err());
        let p = IterParam::new(5, 5, 3).unwrap();
        assert_eq!(p.len(), 1);
        assert!(p.contains(5));
    }

    #[test]
    fn membership_respects_stride() {
        let p = IterParam::new(6, 10, 1).unwrap();
        assert_eq!(p.len(), 5);
        assert!(p.contains(6) && p.contains(10));
        assert!(!p.contains(5) && !p.contains(11));

        let strided = IterParam::new(50, 373, 10).unwrap();
        assert!(strided.contains(370));
        assert!(!strided.contains(373));
        assert_eq!(strided.len(), 33);
    }

    #[test]
    fn index_of_and_nth_are_inverse() {
        let p = IterParam::new(3, 30, 3).unwrap();
        for (idx, value) in p.iter().enumerate() {
            assert_eq!(p.index_of(value), Some(idx));
            assert_eq!(p.nth(idx), Some(value));
        }
        assert_eq!(p.nth(p.len()), None);
        assert_eq!(p.index_of(4), None);
    }

    #[test]
    fn iteration_yields_expected_sequence() {
        let p = IterParam::new(0, 9, 4).unwrap();
        let values: Vec<u64> = p.iter().collect();
        assert_eq!(values, vec![0, 4, 8]);
        let via_into: Vec<u64> = p.into_iter().collect();
        assert_eq!(via_into, values);
    }

    #[test]
    fn truncate_fraction_keeps_prefix_of_samples() {
        let p = IterParam::new(0, 100, 10).unwrap(); // 11 samples
        let t = p.truncate_fraction(0.4); // keep round(4.4) = 4 samples
        assert_eq!(t.len(), 4);
        assert_eq!(t.end(), 30);
        assert_eq!(p.truncate_fraction(2.0).len(), p.len());
        assert_eq!(p.truncate_fraction(0.0).len(), 1);
    }

    #[test]
    fn single_contains_only_its_value() {
        let p = IterParam::single(7);
        assert_eq!(p.len(), 1);
        assert!(p.contains(7));
        assert!(!p.contains(8));
    }
}
