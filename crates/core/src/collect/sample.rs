//! A single collected observation.

/// One observation of the diagnostic variable: which iteration, which
/// location, what value.
///
/// ```
/// use insitu::collect::Sample;
///
/// let s = Sample::new(50, 6, 3.2);
/// assert_eq!(s.iteration, 50);
/// assert_eq!(s.location, 6);
/// assert_eq!(s.value, 3.2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Simulation iteration at which the value was observed.
    pub iteration: u64,
    /// Location id (the spatial characteristic) that was sampled.
    pub location: usize,
    /// Observed value of the diagnostic variable.
    pub value: f64,
}

impl Sample {
    /// Creates a sample.
    pub fn new(iteration: u64, location: usize, value: f64) -> Self {
        Self {
            iteration,
            location,
            value,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_is_plain_data() {
        let a = Sample::new(1, 2, 3.0);
        let b = a;
        assert_eq!(a, b);
        assert!(format!("{a:?}").contains("iteration"));
    }
}
