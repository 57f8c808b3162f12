//! Threshold-based search on curves and spatial profiles.
//!
//! The paper's threshold-based feature extraction compares predicted values
//! against a user threshold; "if a predicted value does not exceed the
//! threshold, the location is adjusted by a specified radius, enabling a
//! more refined search for critical data points". These helpers implement
//! the crossing queries and that radius-refined search.

/// Direction of a threshold crossing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrossingDirection {
    /// The series rises through the threshold.
    Upward,
    /// The series falls through the threshold.
    Downward,
}

/// Index of the first sample at which the series crosses the threshold in
/// the given direction, if it ever does.
pub fn first_crossing(
    values: &[f64],
    threshold: f64,
    direction: CrossingDirection,
) -> Option<usize> {
    for i in 1..values.len() {
        let (prev, cur) = (values[i - 1], values[i]);
        match direction {
            CrossingDirection::Upward if prev < threshold && cur >= threshold => return Some(i),
            CrossingDirection::Downward if prev > threshold && cur <= threshold => return Some(i),
            _ => {}
        }
    }
    None
}

/// Index of the last sample whose value is below the threshold, if any.
pub fn last_below(values: &[f64], threshold: f64) -> Option<usize> {
    values.iter().rposition(|&v| v < threshold)
}

/// Radius-refined search over a value-at-location oracle: starting from
/// `start`, step outward by `radius` until the predicate holds, then bisect
/// back in unit steps to the first location satisfying it. Returns `None`
/// if the predicate never holds within `max_location`.
///
/// The oracle is typically "the model's predicted peak value at this
/// location"; the predicate "below the safety threshold".
pub fn radius_search<F, P>(
    start: usize,
    max_location: usize,
    radius: usize,
    oracle: F,
    predicate: P,
) -> Option<usize>
where
    F: Fn(usize) -> f64,
    P: Fn(f64) -> bool,
{
    let radius = radius.max(1);
    let mut loc = start;
    // Coarse outward sweep.
    let mut hit = None;
    while loc <= max_location {
        if predicate(oracle(loc)) {
            hit = Some(loc);
            break;
        }
        loc = match loc.checked_add(radius) {
            Some(next) => next,
            None => break,
        };
    }
    let coarse = hit?;
    // Refine: walk back toward `start` while the predicate still holds.
    let mut refined = coarse;
    while refined > start && predicate(oracle(refined - 1)) {
        refined -= 1;
    }
    Some(refined)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_crossing_in_both_directions() {
        let rise = [0.0, 0.2, 0.4, 0.6, 0.8];
        assert_eq!(
            first_crossing(&rise, 0.5, CrossingDirection::Upward),
            Some(3)
        );
        assert_eq!(
            first_crossing(&rise, 0.5, CrossingDirection::Downward),
            None
        );

        let fall = [1.0, 0.7, 0.4, 0.1];
        assert_eq!(
            first_crossing(&fall, 0.5, CrossingDirection::Downward),
            Some(2)
        );
        assert_eq!(first_crossing(&fall, 2.0, CrossingDirection::Upward), None);
    }

    #[test]
    fn last_below_finds_rightmost_small_value() {
        let v = [0.1, 5.0, 0.2, 7.0, 0.3, 9.0];
        assert_eq!(last_below(&v, 1.0), Some(4));
        assert_eq!(last_below(&v, 0.05), None);
    }

    #[test]
    fn radius_search_finds_first_location_meeting_predicate() {
        // Peak velocity decays with the radius; find where it drops below 0.1.
        let peak = |loc: usize| 1.0 / (1.0 + loc as f64);
        let found = radius_search(0, 100, 5, peak, |v| v < 0.1).unwrap();
        // 1/(1+loc) < 0.1  =>  loc > 9  => first such loc is 10.
        assert_eq!(found, 10);
    }

    #[test]
    fn radius_search_respects_bounds_and_missing_targets() {
        let peak = |_loc: usize| 1.0;
        assert_eq!(radius_search(0, 50, 5, peak, |v| v < 0.1), None);
        // Already satisfied at the start.
        let low = |_loc: usize| 0.0;
        assert_eq!(radius_search(3, 50, 7, low, |v| v < 0.1), Some(3));
    }

    #[test]
    fn radius_search_with_coarse_step_still_refines_exactly() {
        let peak = |loc: usize| if loc >= 23 { 0.0 } else { 1.0 };
        for radius in [1, 2, 5, 10, 50] {
            assert_eq!(radius_search(0, 100, radius, peak, |v| v < 0.5), Some(23));
        }
    }
}
