//! Delay-time extraction (white-dwarf detonation case study).

use serde::{Deserialize, Serialize};

use crate::error::{Error, Result};

/// Result of a delay-time extraction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DelayTimeResult {
    /// The extracted delay time, in the same units as the time axis handed
    /// to the extractor (simulation time or timestep index).
    pub delay_time: f64,
    /// Index of the inflection point in the series.
    pub index: usize,
    /// Value of the diagnostic variable at the inflection.
    pub value: f64,
    /// Magnitude of the gradient change across the inflection (used to rank
    /// candidate inflections).
    pub gradient_drop: f64,
}

/// Extracts the delay time of a regime change from a diagnostic time series.
///
/// The paper identifies the detonation as the point where "the rate of
/// increase in [the variable's] value suddenly decreases" — the strongest
/// inflection. The extractor smooths the series lightly (a centred moving
/// average), collects two kinds of candidates — inflections (extrema of the
/// gradient) and jumps between consecutive gradients — ranks them by
/// gradient drop and reports the timestamp of the winning sample.
///
/// Extraction is one streaming pass over the series that allocates nothing,
/// so an engine can re-run it on the simulation thread every step. It is
/// bit-identical to composing the public
/// [`moving_average`](crate::tracking::moving_average),
/// [`find_inflections`](crate::tracking::find_inflections) and
/// [`gradients`](crate::tracking::gradients) passes the same way.
///
/// ```
/// use insitu::extract::DelayTimeExtractor;
///
/// // Temperature rising fast, then slowly after t = 30.
/// let times: Vec<f64> = (0..100).map(|t| t as f64).collect();
/// let temp: Vec<f64> = times
///     .iter()
///     .map(|&t| if t < 30.0 { 0.1 * t } else { 3.0 + 0.005 * (t - 30.0) })
///     .collect();
/// let ex = DelayTimeExtractor::new();
/// let result = ex.extract(&times, &temp).unwrap();
/// assert!((result.delay_time - 30.0).abs() < 2.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DelayTimeExtractor {
    smoothing_half_window: usize,
    minimum_gradient_drop: f64,
}

impl DelayTimeExtractor {
    /// Creates an extractor with a light default smoothing (half-window 1)
    /// and no minimum gradient drop.
    pub fn new() -> Self {
        Self {
            smoothing_half_window: 1,
            minimum_gradient_drop: 0.0,
        }
    }

    /// Sets the smoothing half-window applied before inflection detection.
    pub fn with_smoothing(mut self, half_window: usize) -> Self {
        self.smoothing_half_window = half_window;
        self
    }

    /// Requires candidate inflections to change the gradient by at least
    /// this much; weaker regime changes are ignored.
    pub fn with_minimum_gradient_drop(mut self, minimum: f64) -> Self {
        self.minimum_gradient_drop = minimum.max(0.0);
        self
    }

    /// Extracts the delay time from parallel `times` / `values` series.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotEnoughData`] if fewer than five samples are
    /// available and [`Error::FeatureNotFound`] if no inflection satisfies
    /// the minimum gradient drop.
    ///
    /// # Panics
    ///
    /// Panics if the two slices differ in length.
    pub fn extract(&self, times: &[f64], values: &[f64]) -> Result<DelayTimeResult> {
        assert_eq!(times.len(), values.len(), "times and values must align");
        self.extract_with_time_axis(values, |idx| times[idx])
    }

    /// Extracts the delay time directly from a sample history's columnar
    /// views: the `iterations` column serves as the time axis (converted
    /// per-index, so no scratch `Vec<f64>` of timestamps is gathered). The
    /// result is bit-identical to [`DelayTimeExtractor::extract`] over
    /// `iterations.map(|it| it as f64)`.
    ///
    /// # Errors
    ///
    /// Same as [`DelayTimeExtractor::extract`].
    ///
    /// # Panics
    ///
    /// Panics if the two columns differ in length.
    pub fn extract_sampled(&self, iterations: &[u64], values: &[f64]) -> Result<DelayTimeResult> {
        assert_eq!(
            iterations.len(),
            values.len(),
            "iterations and values must align"
        );
        self.extract_with_time_axis(values, |idx| iterations[idx] as f64)
    }

    /// Shared kernel: locates the strongest regime change in `values` and
    /// reads the timestamp of the winning index off `time_of`.
    ///
    /// One streaming pass over the smoothed series `s` (the
    /// [`moving_average`](crate::tracking::moving_average) of `values`) and
    /// its gradients `g[i] = s[i + 1] - s[i]`, holding four smoothed samples
    /// at a time — nothing is allocated. Candidate regime changes come from
    /// two complementary detectors:
    ///
    /// * inflections ([`find_inflections`](crate::tracking::find_inflections)):
    ///   extrema of the gradient, which mark smooth, logistic-like
    ///   transitions — candidate `(i + 1, |g[i] - g[i + 1]|)`;
    /// * gradient jumps: the change between consecutive gradients, which
    ///   marks piecewise "knee" transitions where the gradient steps without
    ///   peaking — candidate `(i, |g[i] - g[i - 1]|)`, skipping the gradients
    ///   whose smoothing window was truncated at the series boundary (the
    ///   truncation itself produces a spurious slope change there).
    ///
    /// The winner is the largest drop at or above the minimum, ranked as if
    /// all inflections preceded all jumps and the last maximum won
    /// (`Iterator::max_by`); each detector keeps its own running best, and
    /// the two are combined by the same rule at the end.
    fn extract_with_time_axis<F>(&self, values: &[f64], time_of: F) -> Result<DelayTimeResult>
    where
        F: Fn(usize) -> f64,
    {
        let n = values.len();
        if n < 5 {
            return Err(Error::NotEnoughData {
                available: n,
                required: 5,
            });
        }
        let half = self.smoothing_half_window;
        let smoothed = |i: usize| {
            if half == 0 {
                values[i]
            } else {
                let lo = i.saturating_sub(half);
                let hi = (i + half + 1).min(n);
                values[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
            }
        };
        let margin = half + 1;
        let jumps = margin..(n - 1).saturating_sub(margin);

        let mut best_inflection: Option<(usize, f64)> = None;
        let mut best_jump: Option<(usize, f64)> = None;
        let offer = |best: &mut Option<(usize, f64)>, index: usize, drop: f64| {
            if drop >= self.minimum_gradient_drop {
                *best = Some(match *best {
                    Some(held) if last_max_keeps(held, (index, drop)) => held,
                    _ => (index, drop),
                });
            }
        };
        // Rolling window s[i - 1], s[i], s[i + 1], s[i + 2].
        let (mut s0, mut s1, mut s2) = (smoothed(0), smoothed(1), smoothed(2));
        for i in 1..n - 2 {
            let s3 = smoothed(i + 2);
            let (g_prev, g, g_next) = (s1 - s0, s2 - s1, s3 - s2);
            let (k2, k3) = (g - g_prev, g_next - g);
            if (k2 > 0.0 && k3 < 0.0) || (k2 < 0.0 && k3 > 0.0) {
                offer(&mut best_inflection, i + 1, (g - g_next).abs());
            }
            if jumps.contains(&i) {
                offer(&mut best_jump, i, (g - g_prev).abs());
            }
            (s0, s1, s2) = (s1, s2, s3);
        }

        let best = match (best_inflection, best_jump) {
            (Some(inflection), Some(jump)) if last_max_keeps(inflection, jump) => Some(inflection),
            (inflection, jump) => jump.or(inflection),
        };
        let (idx, drop) = best.ok_or_else(|| Error::FeatureNotFound {
            what: "no inflection point with sufficient gradient change".into(),
        })?;
        Ok(DelayTimeResult {
            delay_time: time_of(idx),
            index: idx,
            value: values[idx],
            gradient_drop: drop,
        })
    }
}

/// `Iterator::max_by`'s rule for a running best `held` and the next
/// candidate: `held` survives only when it compares strictly greater, so
/// the last maximum wins and incomparable (NaN) drops count as equal.
fn last_max_keeps(held: (usize, f64), next: (usize, f64)) -> bool {
    held.1.partial_cmp(&next.1) == Some(std::cmp::Ordering::Greater)
}

impl Default for DelayTimeExtractor {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn knee_series(knee: f64, n: usize) -> (Vec<f64>, Vec<f64>) {
        let times: Vec<f64> = (0..n).map(|t| t as f64).collect();
        let values = times
            .iter()
            .map(|&t| {
                if t < knee {
                    0.2 * t
                } else {
                    0.2 * knee + 0.01 * (t - knee)
                }
            })
            .collect();
        (times, values)
    }

    #[test]
    fn finds_knee_of_piecewise_linear_series() {
        let (times, values) = knee_series(30.0, 100);
        let ex = DelayTimeExtractor::new();
        let r = ex.extract(&times, &values).unwrap();
        assert!((r.delay_time - 30.0).abs() < 2.5, "delay {}", r.delay_time);
    }

    #[test]
    fn works_for_decreasing_variables_too() {
        // Angular momentum: falling fast, then slowly.
        let times: Vec<f64> = (0..100).map(|t| t as f64).collect();
        let values: Vec<f64> = times
            .iter()
            .map(|&t| {
                if t < 32.0 {
                    10.0 - 0.25 * t
                } else {
                    2.0 - 0.01 * (t - 32.0)
                }
            })
            .collect();
        let r = DelayTimeExtractor::new().extract(&times, &values).unwrap();
        assert!((r.delay_time - 32.0).abs() < 2.5, "delay {}", r.delay_time);
    }

    #[test]
    fn respects_minimum_gradient_drop() {
        let (times, values) = knee_series(30.0, 100);
        let strict = DelayTimeExtractor::new().with_minimum_gradient_drop(1e6);
        assert!(matches!(
            strict.extract(&times, &values),
            Err(Error::FeatureNotFound { .. })
        ));
    }

    #[test]
    fn too_few_samples_is_an_error() {
        let ex = DelayTimeExtractor::new();
        assert!(matches!(
            ex.extract(&[0.0, 1.0], &[1.0, 2.0]),
            Err(Error::NotEnoughData { .. })
        ));
    }

    #[test]
    fn extract_sampled_is_bit_identical_to_extract_on_cast_iterations() {
        let (times, values) = knee_series(30.0, 100);
        let iterations: Vec<u64> = (0..100u64).collect();
        let ex = DelayTimeExtractor::new();
        let from_times = ex.extract(&times, &values).unwrap();
        let from_columns = ex.extract_sampled(&iterations, &values).unwrap();
        assert_eq!(from_times.index, from_columns.index);
        assert_eq!(
            from_times.delay_time.to_bits(),
            from_columns.delay_time.to_bits()
        );
        assert_eq!(
            from_times.gradient_drop.to_bits(),
            from_columns.gradient_drop.to_bits()
        );
    }

    /// The extraction as the allocating `moving_average` →
    /// `find_inflections` → `gradients` chain computed it.
    fn reference(
        half: usize,
        minimum: f64,
        times: &[f64],
        values: &[f64],
    ) -> Result<DelayTimeResult> {
        use crate::tracking::{find_inflections, gradients, moving_average};

        if values.len() < 5 {
            return Err(Error::NotEnoughData {
                available: values.len(),
                required: 5,
            });
        }
        let smoothed = moving_average(values, half);
        let mut candidates: Vec<(usize, f64)> = find_inflections(&smoothed)
            .into_iter()
            .map(|p| (p.index, p.gradient_drop()))
            .collect();
        let grads = gradients(&smoothed);
        let margin = half + 1;
        let lo = margin.min(grads.len());
        let hi = grads.len().saturating_sub(margin);
        for i in lo.max(1)..hi {
            candidates.push((i, (grads[i] - grads[i - 1]).abs()));
        }
        let (index, drop) = candidates
            .into_iter()
            .filter(|(_, drop)| *drop >= minimum)
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            .ok_or_else(|| Error::FeatureNotFound {
                what: "no inflection point with sufficient gradient change".into(),
            })?;
        Ok(DelayTimeResult {
            delay_time: times[index],
            index,
            value: values[index],
            gradient_drop: drop,
        })
    }

    fn result_bits(result: &Result<DelayTimeResult>) -> std::result::Result<[u64; 4], String> {
        match result {
            Ok(r) => Ok([
                r.delay_time.to_bits(),
                r.index as u64,
                r.value.to_bits(),
                r.gradient_drop.to_bits(),
            ]),
            Err(e) => Err(e.to_string()),
        }
    }

    #[test]
    fn streaming_extraction_matches_the_allocating_chain_bit_for_bit() {
        // A small palette makes ties between drops common; NaN and ±inf
        // poison the smoothed series and its gradients.
        let palette = [
            0.0,
            1.0,
            -1.0,
            2.5,
            0.5,
            1e300,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        let mut compared = 0;
        for case in 0..4_000 {
            let n = match case % 6 {
                0..=3 => 5 + (case % 4),
                4 => 12,
                _ => 40,
            };
            let poisoned = case % 3 == 0;
            let values: Vec<f64> = (0..n)
                .map(|_| {
                    let pick = next(if poisoned { 9 } else { 6 }) as usize;
                    if pick == 4 && !poisoned {
                        next(1000) as f64 / 7.0
                    } else {
                        palette[pick]
                    }
                })
                .collect();
            let times: Vec<f64> = (0..n).map(|i| 10.0 + 0.5 * i as f64).collect();
            let iterations: Vec<u64> = (0..n as u64).map(|i| 3 * i + 1).collect();
            let cast: Vec<f64> = iterations.iter().map(|&it| it as f64).collect();
            for half in [0, 1, 2] {
                for minimum in [0.0, 0.75, 2.0] {
                    let ex = DelayTimeExtractor::new()
                        .with_smoothing(half)
                        .with_minimum_gradient_drop(minimum);
                    let want = reference(half, minimum, &times, &values);
                    let got = ex.extract(&times, &values);
                    assert_eq!(
                        result_bits(&got),
                        result_bits(&want),
                        "values {values:?}, half {half}, minimum {minimum}"
                    );
                    let want = reference(half, minimum, &cast, &values);
                    let got = ex.extract_sampled(&iterations, &values);
                    assert_eq!(result_bits(&got), result_bits(&want));
                    compared += 1;
                }
            }
        }
        assert_eq!(compared, 4_000 * 9);
    }

    #[test]
    fn time_axis_units_are_respected() {
        // Same knee expressed on a scaled time axis.
        let (times, values) = knee_series(30.0, 100);
        let scaled_times: Vec<f64> = times.iter().map(|t| t * 0.5).collect();
        let r = DelayTimeExtractor::new()
            .extract(&scaled_times, &values)
            .unwrap();
        assert!((r.delay_time - 15.0).abs() < 1.5);
    }
}
