//! Delay-time extraction (white-dwarf detonation case study).

use crate::collect::{Column, SampleHistory};
use crate::error::{Error, Result};

/// Result of a delay-time extraction.
#[derive(Debug, Clone, Copy, PartialEq)]
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
/// Extraction is one streaming pass over the series that allocates
/// nothing, and the pass is resumable: an engine keeps its state between
/// steps, folds each new sample into it once and re-reads only the few
/// newest samples whose smoothing window is still open, so extracting on
/// the simulation thread every step costs O(half-window) a step rather than
/// a pass over the whole series. [`DelayTimeExtractor::extract`] and
/// [`DelayTimeExtractor::extract_sampled`] run the same pass from an empty
/// state. Either way the result is bit-identical to composing the public
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
#[derive(Debug, Clone, Copy, PartialEq)]
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
        self.resume(&mut DelayTimeScan::default(), Column::from(values), |idx| {
            times[idx]
        })
    }

    /// Extracts the delay time directly from a sample history's views: the
    /// `iterations` column serves as the time axis (converted per-index, so
    /// no scratch `Vec<f64>` of timestamps is gathered) and `values` is read
    /// in place through its stride, in the same order as a slice. The
    /// result is bit-identical to [`DelayTimeExtractor::extract`] over
    /// `iterations.map(|it| it as f64)` and `values.to_vec()`.
    ///
    /// # Errors
    ///
    /// Same as [`DelayTimeExtractor::extract`].
    ///
    /// # Panics
    ///
    /// Panics if the two columns differ in length.
    pub fn extract_sampled(
        &self,
        iterations: &[u64],
        values: Column<'_>,
    ) -> Result<DelayTimeResult> {
        assert_eq!(
            iterations.len(),
            values.len(),
            "iterations and values must align"
        );
        self.resume(&mut DelayTimeScan::default(), values, |idx| {
            iterations[idx] as f64
        })
    }

    /// Extracts the delay time of `location`'s series in `history`,
    /// resuming the pass carried in `scan` instead of re-running it over the
    /// whole series. `None` while the location holds no samples.
    ///
    /// The state is kept while `location` and the history's revision are
    /// unchanged — the series has then only grown by appends — and restarts
    /// otherwise, so the result is bit-identical to
    /// [`DelayTimeExtractor::extract_sampled`] over the same
    /// [`iterations_of`](SampleHistory::iterations_of) and
    /// [`values_of`](SampleHistory::values_of) views. Restoring a snapshot
    /// into the history replaces it wholesale: start again from a fresh
    /// [`DelayTimeScan`] then.
    pub(crate) fn extract_resumed(
        &self,
        scan: &mut DelayTimeScan,
        history: &SampleHistory,
        location: usize,
    ) -> Option<Result<DelayTimeResult>> {
        let key = Some((location, history.revision()));
        if scan.key != key {
            *scan = DelayTimeScan {
                key,
                ..DelayTimeScan::default()
            };
        }
        let iterations = history.iterations_of(location)?;
        let values = history.values_of(location)?;
        Some(self.resume(scan, values, |idx| iterations[idx] as f64))
    }

    /// The pass: locates the strongest regime change in `values` and reads
    /// the timestamp of the winning index off `time_of`, folding only the
    /// steps `scan` has not settled yet.
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
    ///
    /// Step `i` reads `s[i - 1..=i + 2]` and tests `i` against the jump
    /// range `half + 1..n - half - 2`. For `i < n - half - 2` neither
    /// changes when samples are appended — none of those smoothed samples
    /// has its window truncated at the series end, and the jump membership
    /// is final — so those steps are settled: they are folded into `scan`
    /// once. The remaining `≤ half + 1` tail steps are folded into a copy
    /// of the carried bests on every call. Both ranges run through one
    /// rolling window, so a pass from an empty state reads every smoothed
    /// sample exactly once, like a single loop.
    fn resume<F>(
        &self,
        scan: &mut DelayTimeScan,
        values: Column<'_>,
        time_of: F,
    ) -> Result<DelayTimeResult>
    where
        F: Fn(usize) -> f64,
    {
        let n = values.len();
        if n < scan.len {
            *scan = DelayTimeScan {
                key: scan.key,
                ..DelayTimeScan::default()
            };
        }
        if n < 5 {
            return Err(Error::NotEnoughData {
                available: n,
                required: 5,
            });
        }
        scan.len = n;
        let half = self.smoothing_half_window;
        let smoothed = |i: usize| {
            if half == 0 {
                values[i]
            } else {
                let lo = i.saturating_sub(half);
                let hi = (i + half + 1).min(n);
                (lo..hi).map(|i| values[i]).sum::<f64>() / (hi - lo) as f64
            }
        };
        let margin = half + 1;
        let jumps = margin..(n - 1).saturating_sub(margin);

        let offer = |best: &mut Option<(usize, f64)>, index: usize, drop: f64| {
            if drop >= self.minimum_gradient_drop {
                *best = Some(match *best {
                    Some(held) if last_max_keeps(held, (index, drop)) => held,
                    _ => (index, drop),
                });
            }
        };
        // Rolling window s[i - 1], s[i], s[i + 1], carried from the settled
        // steps into the tail.
        let first = scan.next.max(1);
        let (mut s0, mut s1, mut s2) = (smoothed(first - 1), smoothed(first), smoothed(first + 1));
        let mut fold = |steps: std::ops::Range<usize>, bests: &mut Bests| {
            for i in steps {
                let s3 = smoothed(i + 2);
                let (g_prev, g, g_next) = (s1 - s0, s2 - s1, s3 - s2);
                let (k2, k3) = (g - g_prev, g_next - g);
                if (k2 > 0.0 && k3 < 0.0) || (k2 < 0.0 && k3 > 0.0) {
                    offer(&mut bests.inflection, i + 1, (g - g_next).abs());
                }
                if jumps.contains(&i) {
                    offer(&mut bests.jump, i, (g - g_prev).abs());
                }
                (s0, s1, s2) = (s1, s2, s3);
            }
        };
        let settled = n.saturating_sub(half + 2).max(first);
        fold(first..settled, &mut scan.bests);
        scan.next = settled;
        let mut bests = scan.bests;
        fold(settled..n - 2, &mut bests);

        let best = match (bests.inflection, bests.jump) {
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

/// The running best `(index, drop)` of each detector.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Bests {
    inflection: Option<(usize, f64)>,
    jump: Option<(usize, f64)>,
}

/// The carried state of a resumable delay-time pass over one growing
/// series: how far the settled steps are folded and the running bests over
/// them (see [`DelayTimeExtractor::extract_resumed`]). A few words, derived
/// from the series and valid for one extractor configuration; the default
/// state is the empty pass.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct DelayTimeScan {
    /// The `(location, history revision)` the state was folded from.
    key: Option<(usize, u64)>,
    /// First step not folded yet (the pass's steps start at 1).
    next: usize,
    /// Series length of the last call.
    len: usize,
    bests: Bests,
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
        let from_columns = ex
            .extract_sampled(&iterations, Column::from(&values[..]))
            .unwrap();
        assert_eq!(from_times.index, from_columns.index);
        assert_eq!(
            from_times.delay_time.to_bits(),
            from_columns.delay_time.to_bits()
        );
        assert_eq!(
            from_times.gradient_drop.to_bits(),
            from_columns.gradient_drop.to_bits()
        );
        // The same column read through a stride (the middle value of
        // three-wide rows) extracts the same bits.
        let rows: Vec<f64> = values.iter().flat_map(|&v| [-1.0, v, 7.0]).collect();
        let strided = ex
            .extract_sampled(&iterations, Column::strided(&rows[1..], 3, values.len()))
            .unwrap();
        assert_eq!(strided.index, from_columns.index);
        assert_eq!(strided.value.to_bits(), from_columns.value.to_bits());
        assert_eq!(
            strided.gradient_drop.to_bits(),
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
                    let got = ex.extract_sampled(&iterations, Column::from(&values[..]));
                    assert_eq!(result_bits(&got), result_bits(&want));
                    compared += 1;
                }
            }
        }
        assert_eq!(compared, 4_000 * 9);
    }

    /// A fresh pass over the history's views: what a resumed extraction
    /// must reproduce bit for bit.
    fn fresh(
        ex: &DelayTimeExtractor,
        h: &SampleHistory,
        location: usize,
    ) -> Option<Result<DelayTimeResult>> {
        let iterations = h.iterations_of(location)?;
        Some(ex.extract_sampled(iterations, h.values_of(location)?))
    }

    #[test]
    fn resumed_extraction_matches_a_fresh_pass_after_every_operation() {
        use crate::collect::Retention;
        use crate::snapshot::{Dec, Enc};
        use crate::IterParam;

        let encode = |h: &SampleHistory| {
            let mut enc = Enc::default();
            h.snapshot_encode(&mut enc);
            enc.buf
        };
        let decode = |bytes: &[u8], spatial: IterParam| {
            let mut dec = Dec::new(bytes);
            let h = SampleHistory::snapshot_decode(&mut dec, spatial).unwrap();
            dec.finish().unwrap();
            h
        };
        let palette = [1e300, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        let mut state = 0x51_7CC1_B727_220Au64;
        let mut next = move |bound: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % bound
        };
        let extractors: Vec<DelayTimeExtractor> = [0, 1, 2]
            .into_iter()
            .flat_map(|half| {
                [0.0, 0.75, 2.0].map(|minimum| {
                    DelayTimeExtractor::new()
                        .with_smoothing(half)
                        .with_minimum_gradient_drop(minimum)
                })
            })
            .collect();
        let spatial = IterParam::new(1, 3, 1).unwrap();
        let (mut compared, mut resumed) = (0, 0);
        for case in 0..24 {
            let retention = match case % 3 {
                0 => Retention::Window(1 + next(12) as usize),
                _ => Retention::Full,
            };
            let poisoned = case % 4 == 1;
            let mut h = SampleHistory::with_retention(spatial, retention);
            let mut scans = vec![DelayTimeScan::default(); extractors.len()];
            let mut saved = encode(&h);
            let mut location = 3;
            let mut iteration = 0u64;
            let mut trend = 0.0;
            for op in 0..300 {
                let roll = next(100);
                match roll {
                    0 => h.clear(),
                    // A restore replaces the history wholesale, and the
                    // analysis restarts its carried pass (`snapshot_apply`).
                    1..=2 => {
                        h = decode(&encode(&h), spatial);
                        scans.fill(DelayTimeScan::default());
                    }
                    3 => {
                        h = decode(&saved, spatial);
                        scans.fill(DelayTimeScan::default());
                    }
                    4 => saved = encode(&h),
                    5 => location = 1 + next(3) as usize,
                    _ => {
                        iteration = match roll {
                            // Same iteration: an overwrite.
                            6..=13 => iteration,
                            // An older iteration.
                            14..=16 => iteration.saturating_sub(1 + next(4)),
                            // A gap.
                            17..=24 => iteration + 2 + next(3),
                            _ => iteration + 1,
                        };
                        // A knee-shaped trend with noise, so both detectors
                        // fire, sometimes poisoned or tied.
                        trend += if iteration < 60 { 1.0 } else { 0.1 };
                        let row: Vec<f64> = (0..3)
                            .map(|_| match next(20) {
                                0 if poisoned => palette[next(4) as usize],
                                1..=3 => trend,
                                _ => trend + next(8) as f64 * 0.25,
                            })
                            .collect();
                        h.record_step(iteration, &row);
                    }
                }
                // The engine extracts only once an analysis is done: let
                // some operations pile up between extractions.
                if next(3) == 0 {
                    continue;
                }
                for (ex, scan) in extractors.iter().zip(&mut scans) {
                    let carried = scan.key == Some((location, h.revision())) && scan.next > 1;
                    let got = ex.extract_resumed(scan, &h, location);
                    let want = fresh(ex, &h, location);
                    assert_eq!(
                        got.as_ref().map(result_bits),
                        want.as_ref().map(result_bits),
                        "case {case} ({retention:?}) op {op} roll {roll}, {ex:?}"
                    );
                    compared += 1;
                    resumed += usize::from(carried);
                }
            }
        }
        assert!(compared > 24 * 150 * extractors.len());
        // Most extractions must actually have resumed a carried pass.
        assert!(resumed * 2 > compared, "resumed {resumed} of {compared}");
    }

    #[test]
    fn a_clear_between_extractions_restarts_the_pass() {
        // The cleared series regrows past its old length before the next
        // extraction, so only the revision tells the carried pass is stale.
        let mut h = SampleHistory::new(crate::IterParam::single(0));
        let ex = DelayTimeExtractor::new();
        let mut scan = DelayTimeScan::default();
        for it in 0..8u64 {
            h.record_step(it, &[if it < 4 { 5.0 * it as f64 } else { 20.0 }]);
        }
        let before = ex.extract_resumed(&mut scan, &h, 0).unwrap().unwrap();
        h.clear();
        for it in 0..12u64 {
            h.record_step(it, &[0.1 * it as f64 + if it > 8 { 3.0 } else { 0.0 }]);
        }
        let got = ex.extract_resumed(&mut scan, &h, 0);
        let want = fresh(&ex, &h, 0);
        assert_eq!(
            got.as_ref().map(result_bits),
            want.as_ref().map(result_bits)
        );
        assert_ne!(got.unwrap().unwrap().index, before.index);
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
