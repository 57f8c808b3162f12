//! Storage of collected samples: a step-major store with incremental
//! extraction statistics.
//!
//! # The step-major layout
//!
//! A [`SampleHistory`] is built from the spatial characteristic
//! ([`IterParam`]) its collector samples, and every sampled step is
//! recorded whole by [`SampleHistory::record_step`]: one iteration stamp
//! appended to the store's single iteration column, and one contiguous
//! **row** holding one value per location, in spatial order. A location is
//! a column offset, `spatial.index_of(location)`, so every lookup is index
//! arithmetic — there is no per-location map, header or iteration column.
//!
//! Recording a step touches the tail of the iteration column, one row and
//! the per-column peaks; assembling a step's training rows reads the target
//! row and the lagged row, each resolved once per step. A location's series
//! is a strided [`Column`] view over the rows.
//!
//! # Incremental extraction statistics
//!
//! The per-location reductions the extractors consume are maintained at
//! record time instead of being recomputed by rescanning the series on
//! every extraction:
//!
//! * [`SampleHistory::peak_profile`] — the `(location, peak)` radial
//!   profile the break-point and outlier extractors read, in location
//!   order, updated in place as steps arrive;
//! * [`SampleHistory::latest_of`] / [`SampleHistory::iter_latest`] — the
//!   newest row (the per-step "wave front" scan);
//! * [`SampleHistory::representative`] — the location with the most
//!   recorded samples, ties to the largest id. Every column is recorded on
//!   every step, so that is the largest location once any step exists.
//!
//! # Retention
//!
//! [`Retention::Full`] (the default) keeps every step.
//! [`Retention::Window(n)`](Retention::Window) keeps only the `n` most
//! recent steps, in at most `2n` physical rows (amortized O(1) eviction by
//! compaction), so a long-running analysis samples forever in constant
//! memory. The incremental statistics cover evicted samples too: the peak
//! profile is the peak over *everything ever recorded*, not just the
//! surviving window.
//!
//! ```
//! use insitu::collect::SampleHistory;
//! use insitu::IterParam;
//!
//! // Locations 3 and 5.
//! let mut h = SampleHistory::new(IterParam::new(3, 5, 2).unwrap());
//! h.record_step(0, &[1.0, 4.0]);
//! h.record_step(10, &[2.0, 3.0]);
//! assert_eq!(h.value_at(3, 10), Some(2.0));
//! assert_eq!(h.values_of(5).unwrap().to_vec(), [4.0, 3.0]);
//! assert_eq!(h.iterations_of(5), Some(&[0, 10][..]));
//! assert_eq!(h.peak_profile(), &[(3, 2.0), (5, 4.0)]);
//! ```

use std::cmp::Ordering;

use crate::params::IterParam;

/// How much of the per-location series a [`SampleHistory`] keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Retention {
    /// Keep every sample for the lifetime of the analysis (the original
    /// behaviour; memory grows with the number of sampled iterations).
    #[default]
    Full,
    /// Keep only the most recent `n` sampled steps, in a bounded
    /// ring-style buffer. The incremental statistics (peak profile, latest,
    /// counts) still cover evicted samples; point lookups
    /// ([`SampleHistory::value_at`]) and series views only reach the
    /// surviving window.
    ///
    /// Features derived from the incremental statistics (break-point,
    /// outliers) are unaffected by eviction. Features that analyse a whole
    /// series — delay time ranks inflections over every retained sample —
    /// see only the window, so pair windowed retention with them only when
    /// a "most recent `n` samples" analysis is what you want.
    Window(usize),
}

impl Retention {
    /// The per-location sample budget, if bounded.
    pub fn window(self) -> Option<usize> {
        match self {
            Retention::Full => None,
            Retention::Window(n) => Some(n.max(1)),
        }
    }
}

/// One location's retained values, oldest first: a strided view down one
/// column of the step-major rows (stride = the number of locations), or
/// a plain slice (stride 1, via `From<&[f64]>`).
///
/// ```
/// use insitu::collect::Column;
///
/// let column = Column::from(&[1.0, 2.0, 3.0][..]);
/// assert_eq!(column.len(), 3);
/// assert_eq!(column[1], 2.0);
/// assert_eq!(column.tail(2).unwrap().to_vec(), [2.0, 3.0]);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Column<'a> {
    /// Starts at the first element; element `i` is `values[i * stride]`.
    values: &'a [f64],
    stride: usize,
    len: usize,
}

impl<'a> Column<'a> {
    /// The `len` values `values[0]`, `values[stride]`, …
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero or `values` is too short to hold them.
    pub(crate) fn strided(values: &'a [f64], stride: usize, len: usize) -> Self {
        assert!(stride > 0, "a column stride must be positive");
        let span = match len {
            0 => 0,
            n => (n - 1) * stride + 1,
        };
        Self {
            values: &values[..span],
            stride,
            len,
        }
    }

    /// Number of values in the column.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the column holds no values.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates the values, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = f64> + 'a {
        self.values.iter().step_by(self.stride).copied()
    }

    /// The newest `count` values, or `None` if fewer are held.
    pub fn tail(&self, count: usize) -> Option<Column<'a>> {
        let skip = self.len.checked_sub(count)?;
        Some(Column::strided(
            &self.values[(skip * self.stride).min(self.values.len())..],
            self.stride,
            count,
        ))
    }

    /// The values gathered into a fresh vector, oldest first.
    pub fn to_vec(&self) -> Vec<f64> {
        self.iter().collect()
    }
}

impl std::ops::Index<usize> for Column<'_> {
    type Output = f64;

    fn index(&self, index: usize) -> &f64 {
        assert!(index < self.len, "column index {index} out of range");
        &self.values[index * self.stride]
    }
}

impl<'a> From<&'a [f64]> for Column<'a> {
    fn from(values: &'a [f64]) -> Self {
        Column::strided(values, 1, values.len())
    }
}

impl PartialEq for Column<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

/// Whether `visible` — the surviving iterations of a store that evicted
/// `evicted` steps — is the strictly increasing progression
/// `first + stride · k` the record path maintains for a regular cadence:
/// the invariant that lets [`SampleHistory::value_at`] locate a step from
/// its position alone. Checked on snapshot decode.
fn on_progression(visible: &[u64], first: u64, stride: u64, evicted: usize) -> bool {
    let recorded = evicted.saturating_add(visible.len());
    (stride > 0 || recorded <= 1)
        && visible.iter().enumerate().all(|(i, &iteration)| {
            let position = (evicted as u64).checked_add(i as u64);
            position
                .and_then(|k| stride.checked_mul(k))
                .and_then(|offset| first.checked_add(offset))
                == Some(iteration)
        })
}

/// All samples collected so far: one row per sampled step, one column per
/// location of the spatial characteristic.
///
/// The history is the collector's working memory: the batch assembler reads
/// lagged rows out of it, the extractors read the incremental profiles and
/// per-location column views out of it, and the accuracy studies compare
/// it against model predictions. See the [module docs](crate::collect) for
/// the step-major layout and the retention policy.
#[derive(Debug, Clone)]
pub struct SampleHistory {
    spatial: IterParam,
    /// Values per row: one per location of `spatial`.
    width: usize,
    retention: Retention,
    /// One stamp per physical row. The visible steps are
    /// `iterations[start..]`.
    iterations: Vec<u64>,
    /// Row-major values: physical row `r` is
    /// `values[r * width..(r + 1) * width]`.
    values: Vec<f64>,
    /// Physical index of the first visible (non-evicted) row.
    start: usize,
    /// Steps evicted by the retention window.
    evicted: usize,
    /// First iteration ever recorded (anchor of the regular-cadence index).
    first_iteration: u64,
    /// Iteration stride between consecutive steps (0 = not yet known).
    stride: u64,
    /// Whether the whole logical iteration column is an arithmetic
    /// progression — true for every run a simulation produces, enabling
    /// O(1) row lookups without a binary search.
    regular: bool,
    /// `(location, peak)` per column, in location order: the running peak
    /// over everything ever recorded (evicted included). Readers only see
    /// it once a step exists.
    profile: Vec<(usize, f64)>,
    /// Running peak over evicted values only, per column (seeds the rare
    /// overwrite-of-the-peak rescan under windowed retention).
    evicted_peak: Vec<f64>,
    /// Reused gather buffer for that rescan.
    rescan: Vec<f64>,
}

/// Logical content equality: two histories are equal when they have the
/// same spatial characteristic and retention policy and hold the same
/// steps (surviving rows, evicted counts and peaks) — regardless of
/// compaction state or reserved capacity.
impl PartialEq for SampleHistory {
    fn eq(&self, other: &Self) -> bool {
        self.spatial == other.spatial
            && self.retention == other.retention
            && self.evicted == other.evicted
            && self.peak_profile() == other.peak_profile()
            && self.visible_iterations() == other.visible_iterations()
            && self.visible_values() == other.visible_values()
    }
}

impl SampleHistory {
    /// Creates an empty history over the locations of `spatial` that keeps
    /// every step.
    pub fn new(spatial: IterParam) -> Self {
        Self::with_retention(spatial, Retention::Full)
    }

    /// Creates an empty history over the locations of `spatial` with an
    /// explicit [`Retention`] policy.
    pub fn with_retention(spatial: IterParam, retention: Retention) -> Self {
        let width = spatial.len();
        Self {
            spatial,
            width,
            retention,
            iterations: Vec::new(),
            values: Vec::new(),
            start: 0,
            evicted: 0,
            first_iteration: 0,
            stride: 0,
            regular: true,
            profile: spatial
                .iter()
                .map(|location| (location as usize, f64::NEG_INFINITY))
                .collect(),
            evicted_peak: vec![f64::NEG_INFINITY; width],
            rescan: Vec::new(),
        }
    }

    /// The spatial characteristic whose locations are the columns.
    pub(crate) fn spatial(&self) -> IterParam {
        self.spatial
    }

    /// The configured retention policy.
    pub fn retention(&self) -> Retention {
        self.retention
    }

    /// Reserves room for `steps` rows, so steady-state recording appends
    /// without reallocating. Under [`Retention::Window`] the reservation is
    /// capped at the window's bounded backing storage.
    pub fn reserve(&mut self, steps: usize) {
        let window = self.retention.window();
        // ≤ 2·window physical rows (see `SampleHistory::evict_oldest`).
        let rows = window.map_or(steps, |window| steps.min(2 * window));
        let more = rows.saturating_sub(self.iterations.len());
        self.iterations.reserve(more);
        self.values.reserve(more.saturating_mul(self.width));
        if let Some(window) = window {
            // The rescan gathers at most the visible window.
            self.rescan.reserve(window.min(rows));
        }
    }

    /// Records one sampled step: `row` holds one value per location, in
    /// spatial order. Steps are expected in increasing iteration order (the
    /// natural order of a running simulation); a step at the newest
    /// iteration overwrites that row.
    ///
    /// # Panics
    ///
    /// Panics if `row` does not hold one value per location.
    pub fn record_step(&mut self, iteration: u64, row: &[f64]) {
        assert_eq!(
            row.len(),
            self.width,
            "a step holds one value per location of the spatial characteristic"
        );
        if let Some(&last) = self.iterations.last() {
            if last == iteration {
                self.overwrite_newest(row);
                return;
            }
            if iteration < last {
                // An older iteration violates the documented contract. Keep
                // the data and disable the regular-cadence fast path; point
                // lookups on the now unsorted column are unreliable — exactly
                // as the original map-based store behaved when its
                // sorted-series invariant was broken the same way.
                self.regular = false;
            }
        }

        // Maintain the regular-cadence index.
        let recorded = self.recorded_steps();
        match recorded {
            0 => self.first_iteration = iteration,
            1 if self.regular => self.stride = iteration - self.first_iteration,
            _ => {
                if self.regular {
                    let expected = self
                        .first_iteration
                        .wrapping_add(self.stride.wrapping_mul(recorded as u64));
                    if iteration != expected {
                        self.regular = false;
                    }
                }
            }
        }

        self.iterations.push(iteration);
        self.values.extend_from_slice(row);
        for (entry, &value) in self.profile.iter_mut().zip(row) {
            if value > entry.1 {
                entry.1 = value;
            }
        }
        if let Some(window) = self.retention.window() {
            if self.visible_steps() > window {
                self.evict_oldest(window);
            }
        }
    }

    /// Same-iteration overwrite of the newest row (never an evicted one).
    fn overwrite_newest(&mut self, row: &[f64]) {
        let width = self.width;
        let newest = self.values.len() - width;
        for (column, &value) in row.iter().enumerate() {
            let old = std::mem::replace(&mut self.values[newest + column], value);
            let peak = &mut self.profile[column].1;
            if value >= *peak {
                *peak = value;
            } else if old >= *peak {
                // The overwritten value was the peak and the new one is
                // smaller: rescan the survivors (cold path). The column is
                // gathered so the scalar 4-lane max runs over a contiguous
                // slice, exactly as it did over a per-location column.
                self.rescan.clear();
                self.rescan.extend(
                    self.values[self.start * width + column..]
                        .iter()
                        .step_by(width)
                        .copied(),
                );
                *peak =
                    crate::kernels::scalar().max_seeded(self.evicted_peak[column], &self.rescan);
            }
        }
    }

    /// Evicts the oldest visible row, folding it into the evicted peaks.
    fn evict_oldest(&mut self, window: usize) {
        let width = self.width;
        let oldest = &self.values[self.start * width..(self.start + 1) * width];
        for (peak, &value) in self.evicted_peak.iter_mut().zip(oldest) {
            *peak = peak.max(value);
        }
        self.start += 1;
        self.evicted += 1;
        if self.start >= window {
            // Amortized compaction: copy the survivors to the front so the
            // rows stay contiguous in ≤ 2·window physical rows.
            let rows = self.iterations.len();
            self.iterations.copy_within(self.start..rows, 0);
            self.values.copy_within(self.start * width.., 0);
            self.iterations.truncate(rows - self.start);
            self.values.truncate((rows - self.start) * width);
            self.start = 0;
        }
    }

    /// Number of steps currently held (window survivors).
    fn visible_steps(&self) -> usize {
        self.iterations.len() - self.start
    }

    /// Number of steps ever recorded (evicted included).
    fn recorded_steps(&self) -> usize {
        self.evicted + self.visible_steps()
    }

    fn visible_iterations(&self) -> &[u64] {
        &self.iterations[self.start..]
    }

    fn visible_values(&self) -> &[f64] {
        &self.values[self.start * self.width..]
    }

    /// The column of `location`, while any step is held.
    fn column(&self, location: usize) -> Option<usize> {
        if self.visible_steps() == 0 {
            return None;
        }
        self.spatial.index_of(location as u64)
    }

    /// The physical row recorded at `iteration`: O(1) on a regular cadence,
    /// a binary search over the iteration column otherwise.
    fn row_index(&self, iteration: u64) -> Option<usize> {
        let visible = self.visible_steps();
        if visible == 0 {
            return None;
        }
        if self.regular {
            let delta = iteration.checked_sub(self.first_iteration)?;
            let logical = if self.stride == 0 {
                // Only one distinct iteration recorded so far.
                if delta != 0 {
                    return None;
                }
                0
            } else {
                if delta % self.stride != 0 {
                    return None;
                }
                (delta / self.stride) as usize
            };
            let rel = logical.checked_sub(self.evicted)?;
            (rel < visible).then_some(self.start + rel)
        } else {
            self.visible_iterations()
                .binary_search(&iteration)
                .ok()
                .map(|idx| self.start + idx)
        }
    }

    /// The row recorded at `iteration` (one value per location, in spatial
    /// order), if it is still retained — the lookup behind
    /// [`SampleHistory::value_at`], resolved once per step by the batch
    /// assembler.
    pub(crate) fn row_at(&self, iteration: u64) -> Option<&[f64]> {
        let row = self.row_index(iteration)?;
        Some(&self.values[row * self.width..(row + 1) * self.width])
    }

    /// The newest row, if any step is held.
    fn latest_row(&self) -> Option<&[f64]> {
        (self.visible_steps() > 0).then(|| &self.values[self.values.len() - self.width..])
    }

    /// Total number of samples recorded (evicted samples included).
    pub fn len(&self) -> usize {
        self.recorded_steps() * self.width
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.recorded_steps() == 0
    }

    /// Iterates the locations that have at least one sample, in increasing
    /// order, without allocating: every location once a step exists.
    pub fn iter_locations(&self) -> impl Iterator<Item = usize> + '_ {
        self.peak_profile().iter().map(|&(location, _)| location)
    }

    /// One location's values, oldest first (window survivors under
    /// [`Retention::Window`]). `None` for locations outside the spatial
    /// characteristic, and for every location while no step is held.
    pub fn values_of(&self, location: usize) -> Option<Column<'_>> {
        let column = self.column(location)?;
        Some(Column::strided(
            &self.visible_values()[column..],
            self.width,
            self.visible_steps(),
        ))
    }

    /// The iteration column of one location's series, parallel to
    /// [`SampleHistory::values_of`] — the one column every location shares.
    pub fn iterations_of(&self, location: usize) -> Option<&[u64]> {
        self.column(location)?;
        Some(self.visible_iterations())
    }

    /// Number of samples currently held for `location` (0 when unknown).
    /// Under [`Retention::Window`] this is the surviving window length; see
    /// [`SampleHistory::recorded_of`] for the ever-recorded count.
    pub fn series_len(&self, location: usize) -> usize {
        self.column(location).map_or(0, |_| self.visible_steps())
    }

    /// Number of samples ever recorded for `location`, evicted included.
    pub fn recorded_of(&self, location: usize) -> usize {
        self.column(location).map_or(0, |_| self.recorded_steps())
    }

    /// The most recent iteration recorded at `location`, if any.
    pub fn last_iteration_of(&self, location: usize) -> Option<u64> {
        self.column(location)?;
        self.iterations.last().copied()
    }

    /// The location with the most samples ever recorded, ties broken by
    /// the largest location id. Every step records every location, so this
    /// is the largest location once any step exists — O(1).
    pub fn representative(&self) -> Option<usize> {
        self.peak_profile().last().map(|&(location, _)| location)
    }

    /// The value observed at `(location, iteration)`, if it was sampled and
    /// still retained. O(1) for the regular cadence a simulation produces.
    pub fn value_at(&self, location: usize, iteration: u64) -> Option<f64> {
        let column = self.spatial.index_of(location as u64)?;
        self.row_at(iteration).map(|row| row[column])
    }

    /// The most recent value observed at `location`, if any — O(1).
    pub fn latest_of(&self, location: usize) -> Option<f64> {
        let column = self.column(location)?;
        self.latest_row().map(|row| row[column])
    }

    /// Iterates `(location, latest value)` over every sampled location in
    /// increasing location order, without allocating — the newest row
    /// zipped with the locations.
    pub fn iter_latest(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.iter_locations()
            .zip(self.latest_row().unwrap_or_default().iter().copied())
    }

    /// The location of the largest newest value (the last one on ties) —
    /// the "wave front" the LULESH case study broadcasts. One scan over
    /// the newest row.
    pub(crate) fn front_location(&self) -> Option<usize> {
        self.iter_latest()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(Ordering::Equal))
            .map(|(location, _)| location)
    }

    /// The most recent `count` values observed at `location` (oldest
    /// first). Returns `None` if fewer than `count` samples are retained.
    pub fn recent_values_of(&self, location: usize, count: usize) -> Option<Column<'_>> {
        self.values_of(location)?.tail(count)
    }

    /// The peak (maximum) value ever observed per location, in location
    /// order — the radial profile the break-point extractor consumes.
    /// Maintained incrementally at record time; this is a borrowed view,
    /// O(1) and allocation-free no matter how long the series are. Under
    /// [`Retention::Window`] the peaks still cover evicted samples.
    pub fn peak_profile(&self) -> &[(usize, f64)] {
        if self.is_empty() {
            &[]
        } else {
            &self.profile
        }
    }

    /// Removes all samples while keeping the allocations, used when an
    /// analysis is re-armed after early termination was declined.
    pub fn clear(&mut self) {
        self.iterations.clear();
        self.values.clear();
        self.start = 0;
        self.evicted = 0;
        self.first_iteration = 0;
        self.stride = 0;
        self.regular = true;
        for entry in &mut self.profile {
            entry.1 = f64::NEG_INFINITY;
        }
        self.evicted_peak.fill(f64::NEG_INFINITY);
    }

    /// Appends the history to a snapshot payload in the version-1 layout:
    /// retention, then one per-location record per column (the shared
    /// iteration column, cadence and eviction fields repeated in each),
    /// then the peak profile.
    pub(crate) fn snapshot_encode(&self, enc: &mut crate::snapshot::Enc) {
        match self.retention {
            Retention::Full => enc.put_u8(0),
            Retention::Window(n) => {
                enc.put_u8(1);
                enc.put_usize(n);
            }
        }
        enc.put_usize(self.len());
        enc.put_usize(self.width);
        let sampled = !self.is_empty();
        for (column, &(location, peak)) in self.profile.iter().enumerate() {
            enc.put_usize(location);
            enc.put_u64_slice(&self.iterations);
            enc.put_usize(self.iterations.len());
            for row in self.values.chunks_exact(self.width) {
                enc.put_f64(row[column]);
            }
            enc.put_usize(self.start);
            enc.put_usize(self.evicted);
            enc.put_f64(peak);
            enc.put_f64(self.evicted_peak[column]);
            enc.put_u64(self.first_iteration);
            enc.put_u64(self.stride);
            enc.put_bool(self.regular);
            enc.put_opt_usize(sampled.then_some(column));
        }
        let profile = self.peak_profile();
        enc.put_usize(profile.len());
        for &(location, peak) in profile {
            enc.put_usize(location);
            enc.put_f64(peak);
        }
    }

    /// Decodes a history written by [`SampleHistory::snapshot_encode`] for
    /// the configured `spatial` characteristic, rebuilding the rows from
    /// the per-location records.
    ///
    /// Fails closed on any payload lockstep recording cannot produce:
    /// records that differ in iteration column, `start`, `evicted`, cadence
    /// or length, or that leave the configured location order, are
    /// [`Error::SnapshotCorrupt`](crate::Error::SnapshotCorrupt); a
    /// different location set is
    /// [`Error::SnapshotMismatch`](crate::Error::SnapshotMismatch).
    pub(crate) fn snapshot_decode(
        dec: &mut crate::snapshot::Dec<'_>,
        spatial: IterParam,
    ) -> crate::error::Result<Self> {
        use crate::snapshot::corrupt;

        let retention = match dec.take_u8()? {
            0 => Retention::Full,
            1 => Retention::Window(dec.take_usize()?),
            t => return Err(corrupt(format!("invalid retention tag {t}"))),
        };
        let total = dec.take_usize()?;
        let records = dec.take_usize()?;
        // Fixed fields per record: location, two column lengths, start,
        // evicted, two peaks, first_iteration, stride (8 bytes each) plus
        // the regular flag and the profile-pos option tag.
        dec.check_count(records, 9 * 8 + 2)?;
        let mismatch = |what: String| crate::error::Error::SnapshotMismatch { what };
        if records != spatial.len() {
            return Err(mismatch(format!(
                "snapshot samples {records} locations, the analysis samples {}",
                spatial.len()
            )));
        }
        let mut h = Self::with_retention(spatial, retention);
        let width = h.width;
        let mut columns: Vec<Vec<f64>> = Vec::with_capacity(records);
        let mut profile_pos = Vec::with_capacity(records);
        for column in 0..records {
            let location = dec.take_usize()?;
            let iterations = dec.take_u64_vec()?;
            let values = dec.take_f64_vec()?;
            let start = dec.take_usize()?;
            let evicted = dec.take_usize()?;
            let peak = dec.take_f64()?;
            let evicted_peak = dec.take_f64()?;
            let first_iteration = dec.take_u64()?;
            let stride = dec.take_u64()?;
            let regular = dec.take_bool()?;
            profile_pos.push(dec.take_opt_usize()?);
            match spatial.index_of(location as u64) {
                Some(index) if index == column => {}
                Some(_) => return Err(corrupt("location records leave the spatial order")),
                None => {
                    return Err(mismatch(format!(
                        "snapshot samples location {location} outside the analysis' spatial \
                         characteristic"
                    )))
                }
            }
            if iterations.len() != values.len() {
                return Err(corrupt("location record columns are not parallel"));
            }
            if column == 0 {
                if start > values.len() {
                    return Err(corrupt(
                        "location record start index past the end of its columns",
                    ));
                }
                if regular
                    && !on_progression(&iterations[start..], first_iteration, stride, evicted)
                {
                    return Err(corrupt(
                        "regular location record's iterations leave its progression",
                    ));
                }
                h.iterations = iterations;
                h.start = start;
                h.evicted = evicted;
                h.first_iteration = first_iteration;
                h.stride = stride;
                h.regular = regular;
            } else {
                if iterations.len() != h.iterations.len() {
                    return Err(corrupt("location records differ in length"));
                }
                if iterations != h.iterations {
                    return Err(corrupt(
                        "location records differ in their iteration columns",
                    ));
                }
                if (start, evicted) != (h.start, h.evicted) {
                    return Err(corrupt("location records differ in their eviction state"));
                }
                if (first_iteration, stride, regular) != (h.first_iteration, h.stride, h.regular) {
                    return Err(corrupt("location records differ in their cadence"));
                }
            }
            h.profile[column].1 = peak;
            h.evicted_peak[column] = evicted_peak;
            columns.push(values);
        }
        let profile_len = dec.take_usize()?;
        dec.check_count(profile_len, 16)?;
        let mut profile = Vec::with_capacity(profile_len);
        for _ in 0..profile_len {
            let location = dec.take_usize()?;
            let peak = dec.take_f64()?;
            if let Some(&(last, _)) = profile.last() {
                if location <= last {
                    return Err(corrupt("peak profile is not sorted by location"));
                }
            }
            profile.push((location, peak));
        }

        // Cross-check the bookkeeping the rest of the store relies on.
        let recorded = h
            .evicted
            .checked_add(h.visible_steps())
            .ok_or_else(|| corrupt("sample totals overflow"))?;
        for (column, pos) in profile_pos.into_iter().enumerate() {
            let (location, peak) = h.profile[column];
            match pos {
                None if recorded == 0 => {}
                None => return Err(corrupt("sampled location missing from the peak profile")),
                Some(_) if recorded == 0 => {
                    return Err(corrupt("unsampled location anchored in the peak profile"))
                }
                Some(pos) => {
                    let anchored = profile
                        .get(pos)
                        .is_some_and(|&(loc, p)| loc == location && p.to_bits() == peak.to_bits());
                    if !anchored {
                        return Err(corrupt("location peak disagrees with the peak profile"));
                    }
                }
            }
        }
        if profile.len() != if recorded == 0 { 0 } else { width } {
            return Err(corrupt(
                "peak profile length disagrees with the sampled locations",
            ));
        }
        if recorded.checked_mul(width) != Some(total) {
            return Err(corrupt("sample total disagrees with the location records"));
        }

        // Interleave the per-location columns into rows.
        let rows = h.iterations.len();
        h.values = Vec::with_capacity(rows * width);
        for row in 0..rows {
            h.values.extend(columns.iter().map(|column| column[row]));
        }
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{Dec, Enc};

    fn spatial(begin: u64, end: u64, step: u64) -> IterParam {
        IterParam::new(begin, end, step).unwrap()
    }

    /// Locations 1..=3, iterations 0..=40 step 10, `V = 10·loc + step`.
    fn filled() -> SampleHistory {
        let mut h = SampleHistory::new(spatial(1, 3, 1));
        for it in 0..5u64 {
            let row: Vec<f64> = (1..=3).map(|loc| loc as f64 * 10.0 + it as f64).collect();
            h.record_step(it * 10, &row);
        }
        h
    }

    #[test]
    fn record_and_query() {
        let h = filled();
        assert_eq!(h.len(), 15);
        assert_eq!(h.iter_locations().collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(h.value_at(2, 30), Some(23.0));
        assert_eq!(h.value_at(2, 31), None);
        assert_eq!(h.value_at(2, 50), None, "past the recorded range");
        assert_eq!(h.value_at(4, 30), None, "outside the spatial range");
        assert_eq!(h.latest_of(3), Some(34.0));
        assert_eq!(h.last_iteration_of(3), Some(40));
        assert_eq!(h.series_len(2), 5);
        assert_eq!(h.recorded_of(2), 5);
    }

    #[test]
    fn columns_are_parallel_soa_views() {
        let h = filled();
        assert_eq!(h.iterations_of(1), Some(&[0, 10, 20, 30, 40][..]));
        assert_eq!(
            h.values_of(1).unwrap().to_vec(),
            [10.0, 11.0, 12.0, 13.0, 14.0]
        );
        assert_eq!(h.values_of(3).unwrap()[2], 32.0);
        assert!(h.values_of(9).is_none());
    }

    #[test]
    fn duplicate_iteration_overwrites() {
        let mut h = SampleHistory::new(IterParam::single(0));
        h.record_step(5, &[1.0]);
        h.record_step(5, &[2.0]);
        assert_eq!(h.len(), 1);
        assert_eq!(h.value_at(0, 5), Some(2.0));
        assert_eq!(h.peak_profile(), &[(0, 2.0)]);
        // Overwriting the peak downward rescans the survivors.
        h.record_step(5, &[0.5]);
        assert_eq!(h.peak_profile(), &[(0, 0.5)]);
    }

    #[test]
    fn recent_values_return_borrowed_tail_in_order() {
        let h = filled();
        assert_eq!(
            h.recent_values_of(1, 3).unwrap().to_vec(),
            [12.0, 13.0, 14.0]
        );
        assert!(h.recent_values_of(1, 0).unwrap().is_empty());
        assert!(h.recent_values_of(1, 6).is_none());
    }

    #[test]
    fn spatial_profile_collects_one_value_per_location() {
        let h = filled();
        let profile: Vec<(usize, f64)> = h
            .iter_locations()
            .filter_map(|loc| h.value_at(loc, 20).map(|v| (loc, v)))
            .collect();
        assert_eq!(profile, vec![(1, 12.0), (2, 22.0), (3, 32.0)]);
    }

    #[test]
    fn peak_profile_is_maintained_incrementally() {
        let h = filled();
        assert_eq!(h.peak_profile(), &[(1, 14.0), (2, 24.0), (3, 34.0)]);
        assert_eq!(h.iter_locations().collect::<Vec<_>>(), vec![1, 2, 3]);
    }

    #[test]
    fn profile_insertion_order_is_location_sorted() {
        // The columns are the spatial characteristic's locations in
        // increasing order, so every per-location view is location-sorted.
        let mut h = SampleHistory::new(spatial(2, 8, 2));
        h.record_step(0, &[7.0, 2.0, 9.0, 4.0]);
        assert_eq!(h.peak_profile(), &[(2, 7.0), (4, 2.0), (6, 9.0), (8, 4.0)]);
        assert_eq!(
            h.iter_latest().collect::<Vec<_>>(),
            vec![(2, 7.0), (4, 2.0), (6, 9.0), (8, 4.0)]
        );
        // And the entries keep tracking their columns.
        h.record_step(1, &[0.5, 70.0, 1.0, 4.5]);
        assert_eq!(h.peak_profile(), &[(2, 7.0), (4, 70.0), (6, 9.0), (8, 4.5)]);
        assert_eq!(h.front_location(), Some(4));
    }

    #[test]
    fn reserve_presizes_without_fabricating_samples() {
        let mut h = SampleHistory::new(spatial(1, 3, 1));
        h.reserve(100);
        assert!(h.is_empty());
        assert!(h.values.capacity() >= 300);
        assert_eq!(h.iter_locations().count(), 0, "no step, no locations");
        assert!(h.values_of(1).is_none());
        assert!(h.peak_profile().is_empty());
        assert_eq!(h.representative(), None);
        h.record_step(0, &[1.0, 7.0, 3.0]);
        assert_eq!(h.iter_locations().collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(h.peak_profile(), &[(1, 1.0), (2, 7.0), (3, 3.0)]);
    }

    #[test]
    fn clear_empties_history() {
        let mut h = filled();
        h.clear();
        assert!(h.is_empty());
        assert!(h.values_of(1).is_none());
        assert!(h.peak_profile().is_empty());
        // The store keeps working after re-arming.
        h.record_step(0, &[5.0, 6.0, 7.0]);
        assert_eq!(h.peak_profile(), &[(1, 5.0), (2, 6.0), (3, 7.0)]);
        assert_eq!(h.value_at(1, 0), Some(5.0));
    }

    #[test]
    fn irregular_cadence_falls_back_to_binary_search() {
        let mut h = SampleHistory::new(IterParam::single(1));
        for &it in &[0u64, 10, 20, 25, 40] {
            h.record_step(it, &[it as f64]);
        }
        assert_eq!(h.value_at(1, 25), Some(25.0));
        assert_eq!(h.value_at(1, 30), None);
        assert_eq!(h.value_at(1, 40), Some(40.0));
    }

    #[test]
    fn windowed_retention_keeps_only_the_tail_but_remembers_peaks() {
        let mut h = SampleHistory::with_retention(IterParam::single(1), Retention::Window(3));
        for it in 0..10u64 {
            // Peak (9 - it) arrives first, so it is evicted early.
            h.record_step(it, &[(9 - it) as f64]);
        }
        assert_eq!(h.series_len(1), 3);
        assert_eq!(h.recorded_of(1), 10);
        assert_eq!(h.len(), 10, "len counts evicted samples too");
        assert_eq!(h.values_of(1).unwrap().to_vec(), [2.0, 1.0, 0.0]);
        assert_eq!(h.iterations_of(1), Some(&[7, 8, 9][..]));
        // Point lookups reach only the window…
        assert_eq!(h.value_at(1, 8), Some(1.0));
        assert_eq!(h.value_at(1, 2), None);
        // …but the incremental peak covers everything ever recorded.
        assert_eq!(h.peak_profile(), &[(1, 9.0)]);
        assert_eq!(h.latest_of(1), Some(0.0));
    }

    #[test]
    fn windowed_storage_stays_bounded() {
        let window = 16;
        let mut h = SampleHistory::with_retention(spatial(1, 5, 1), Retention::Window(window));
        h.reserve(1_000_000);
        for it in 0..10_000u64 {
            h.record_step(it, &[it as f64; 5]);
        }
        assert_eq!(h.series_len(1), window);
        assert!(
            h.iterations.capacity() <= 2 * window && h.values.capacity() <= 2 * window * 5,
            "backing storage must stay ≤ 2×window rows ({} rows)",
            h.iterations.capacity()
        );
    }

    #[test]
    fn equality_is_logical_not_representational() {
        // Same steps, different reserved capacity and a snapshot round
        // trip: the representation differs, the content does not.
        let mut a = SampleHistory::new(spatial(2, 7, 5));
        let mut b = SampleHistory::new(spatial(2, 7, 5));
        a.reserve(64);
        for it in 0..3u64 {
            for h in [&mut a, &mut b] {
                h.record_step(it, &[2.0 + it as f64, 7.0 + it as f64]);
            }
        }
        assert_eq!(a, b);
        assert_eq!(round_trip(&a), b);
        b.record_step(3, &[0.0, 0.0]);
        assert_ne!(a, b);
        // Differing retention policies or locations are never equal, even
        // while empty.
        assert_ne!(
            SampleHistory::new(spatial(2, 7, 5)),
            SampleHistory::with_retention(spatial(2, 7, 5), Retention::Window(4))
        );
        assert_ne!(
            SampleHistory::new(spatial(2, 7, 5)),
            SampleHistory::new(spatial(2, 8, 6))
        );
    }

    #[test]
    fn huge_location_ids_do_not_balloon_the_dense_map() {
        // A location is a column offset: huge ids cost nothing beyond their
        // one value per row — there is no id-indexed map to grow.
        let huge = (usize::MAX / 2) as u64;
        let mut h = SampleHistory::new(spatial(huge, huge + 6, 3));
        h.record_step(0, &[1.0, 2.0, 3.0]);
        assert!(h.values.capacity() < 64);
        assert_eq!(h.value_at(huge as usize, 0), Some(1.0));
        assert_eq!(h.value_at(huge as usize + 1, 0), None);
        assert_eq!(
            h.peak_profile(),
            &[
                (huge as usize, 1.0),
                (huge as usize + 3, 2.0),
                (huge as usize + 6, 3.0)
            ]
        );
    }

    fn encode(h: &SampleHistory) -> Vec<u8> {
        let mut enc = Enc::default();
        h.snapshot_encode(&mut enc);
        enc.buf
    }

    fn decode(bytes: &[u8], spatial: IterParam) -> crate::error::Result<SampleHistory> {
        let mut dec = Dec::new(bytes);
        let h = SampleHistory::snapshot_decode(&mut dec, spatial)?;
        dec.finish()?;
        Ok(h)
    }

    fn round_trip(h: &SampleHistory) -> SampleHistory {
        decode(&encode(h), h.spatial()).unwrap()
    }

    #[test]
    fn snapshot_round_trip_preserves_everything() {
        let mut h = SampleHistory::with_retention(spatial(2, 40, 19), Retention::Window(3));
        for it in 0..10u64 {
            let row: Vec<f64> = [2.0, 21.0, 40.0]
                .iter()
                .map(|loc| (it as f64 - loc).sin())
                .collect();
            h.record_step(it, &row);
        }
        let restored = round_trip(&h);
        assert_eq!(h, restored);
        // Internal bookkeeping (not covered by the logical PartialEq) must
        // also match so recording continues identically after restore.
        assert_eq!(h.iterations, restored.iterations);
        assert_eq!(h.start, restored.start);
        assert_eq!(h.stride, restored.stride);
        assert_eq!(h.regular, restored.regular);
        let bits = |peaks: &[f64]| peaks.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&h.evicted_peak), bits(&restored.evicted_peak));
        assert_eq!(encode(&h), encode(&restored), "re-encoding is byte-stable");
        // And recording keeps behaving identically.
        let mut restored = restored;
        for it in 10..20u64 {
            let row = [(it as f64 * 0.3).cos(); 3];
            h.record_step(it, &row);
            restored.record_step(it, &row);
        }
        assert_eq!(h, restored);
    }

    /// The record-time representative against the scan it replaced.
    fn assert_representative(h: &SampleHistory, what: &str) {
        let scanned = h.iter_locations().max_by_key(|&loc| h.recorded_of(loc));
        assert_eq!(h.representative(), scanned, "{what}");
    }

    #[test]
    fn representative_tracks_the_most_recorded_location() {
        for retention in [Retention::Full, Retention::Window(3)] {
            let mut h = SampleHistory::with_retention(spatial(1, 4, 1), retention);
            h.reserve(8);
            assert_representative(&h, "empty");
            // A small LCG drives records, overwrites, out-of-order arrivals,
            // clears and snapshot round trips.
            let mut state = 0x2545_F491_4F6C_DD1Du64;
            let mut next = |bound: u64| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 33) % bound
            };
            let mut iteration = 0u64;
            for op in 0..600 {
                match next(40) {
                    0 => {
                        h.clear();
                        assert_representative(&h, "after clear");
                    }
                    1 => {
                        h = round_trip(&h);
                        assert_representative(&h, "after decode");
                    }
                    roll => {
                        // Mostly forward; sometimes the same iteration (an
                        // overwrite) or an older one (out of order).
                        iteration = match roll {
                            2..=4 => iteration,
                            5 => iteration.saturating_sub(next(4)),
                            _ => iteration + 1 + next(2),
                        };
                        let row: Vec<f64> = (0..4).map(|_| next(100) as f64).collect();
                        h.record_step(iteration, &row);
                    }
                }
                assert_representative(&h, &format!("{retention:?} op {op}"));
            }
        }
    }

    #[test]
    fn representative_ties_go_to_the_largest_location() {
        // Every step records every location, so the counts always tie and
        // the largest location wins once any step exists.
        let mut h = SampleHistory::new(spatial(2, 8, 3));
        assert_eq!(h.representative(), None);
        h.record_step(0, &[5.0, 2.0, 1.0]);
        assert_eq!(h.representative(), Some(8));
        // An overwrite does not add a sample.
        h.record_step(0, &[1.0, 1.0, 1.0]);
        assert_eq!(h.representative(), Some(8));
        h.clear();
        assert_eq!(h.representative(), None);
    }

    #[test]
    fn snapshot_decode_rejects_a_regular_slot_off_its_progression() {
        // Two samples at one iteration on a "regular" slot with stride 0:
        // a state recording can never reach, where a positional lookup
        // and a binary search would disagree.
        let mut enc = Enc::default();
        enc.put_u8(0); // Retention::Full
        enc.put_usize(2); // total
        enc.put_usize(1); // one slot
        enc.put_usize(1); // location
        enc.put_u64_slice(&[5, 5]);
        enc.put_f64_slice(&[1.0, 2.0]);
        enc.put_usize(0); // start
        enc.put_usize(0); // evicted
        enc.put_f64(2.0); // peak
        enc.put_f64(f64::NEG_INFINITY); // evicted peak
        enc.put_u64(5); // first iteration
        enc.put_u64(0); // stride
        enc.put_bool(true); // regular
        enc.put_opt_usize(Some(0));
        enc.put_usize(1);
        enc.put_usize(1);
        enc.put_f64(2.0);
        let err = decode(&enc.buf, IterParam::single(1)).unwrap_err();
        assert!(err.to_string().contains("progression"), "{err}");
    }

    #[test]
    fn snapshot_decode_rejects_inconsistent_payloads() {
        // Torn columns: iteration and value columns of different lengths.
        let mut enc = Enc::default();
        enc.put_u8(0); // Retention::Full
        enc.put_usize(1); // total
        enc.put_usize(1); // one slot
        enc.put_usize(5); // location
        enc.put_u64_slice(&[1, 2]);
        enc.put_f64_slice(&[1.0]);
        assert!(decode(&enc.buf, IterParam::single(5)).is_err());

        // Disagreeing total.
        let mut good = SampleHistory::new(IterParam::single(1));
        good.record_step(5, &[2.0]);
        let bytes = encode(&good);
        let mut tampered = Enc::default();
        tampered.put_u8(0);
        tampered.put_usize(7); // wrong total
        tampered.buf.extend_from_slice(&bytes[9..]);
        assert!(decode(&tampered.buf, IterParam::single(1)).is_err());
    }

    /// One decoded version-1 location record, for crafting payloads that
    /// lockstep recording cannot produce.
    #[derive(Clone)]
    struct Record {
        location: usize,
        iterations: Vec<u64>,
        values: Vec<f64>,
        start: usize,
        evicted: usize,
        peak: f64,
        evicted_peak: f64,
        first_iteration: u64,
        stride: u64,
        regular: bool,
        profile_pos: Option<usize>,
    }

    /// A recorded history's payload, split into its parts.
    struct Payload {
        head: Vec<u8>,
        records: Vec<Record>,
        profile: Vec<(usize, f64)>,
    }

    impl Payload {
        fn of(h: &SampleHistory) -> Self {
            let bytes = encode(h);
            let mut dec = Dec::new(&bytes);
            let tag = dec.take_u8().unwrap();
            let head_len = if tag == 0 { 9 } else { 17 };
            let mut dec = Dec::new(&bytes[head_len..]);
            let count = dec.take_usize().unwrap();
            let records = (0..count)
                .map(|_| Record {
                    location: dec.take_usize().unwrap(),
                    iterations: dec.take_u64_vec().unwrap(),
                    values: dec.take_f64_vec().unwrap(),
                    start: dec.take_usize().unwrap(),
                    evicted: dec.take_usize().unwrap(),
                    peak: dec.take_f64().unwrap(),
                    evicted_peak: dec.take_f64().unwrap(),
                    first_iteration: dec.take_u64().unwrap(),
                    stride: dec.take_u64().unwrap(),
                    regular: dec.take_bool().unwrap(),
                    profile_pos: dec.take_opt_usize().unwrap(),
                })
                .collect();
            let profile = (0..dec.take_usize().unwrap())
                .map(|_| (dec.take_usize().unwrap(), dec.take_f64().unwrap()))
                .collect();
            dec.finish().unwrap();
            Self {
                head: bytes[..head_len].to_vec(),
                records,
                profile,
            }
        }

        fn bytes(&self) -> Vec<u8> {
            let mut enc = Enc::default();
            enc.buf.extend_from_slice(&self.head);
            enc.put_usize(self.records.len());
            for r in &self.records {
                enc.put_usize(r.location);
                enc.put_u64_slice(&r.iterations);
                enc.put_f64_slice(&r.values);
                enc.put_usize(r.start);
                enc.put_usize(r.evicted);
                enc.put_f64(r.peak);
                enc.put_f64(r.evicted_peak);
                enc.put_u64(r.first_iteration);
                enc.put_u64(r.stride);
                enc.put_bool(r.regular);
                enc.put_opt_usize(r.profile_pos);
            }
            enc.put_usize(self.profile.len());
            for &(location, peak) in &self.profile {
                enc.put_usize(location);
                enc.put_f64(peak);
            }
            enc.buf
        }
    }

    /// Locations 1..=3 under `Window(3)`, eight steps: evicted rows, a
    /// non-zero `start` and distinct per-location peaks.
    fn windowed() -> SampleHistory {
        let mut h = SampleHistory::with_retention(spatial(1, 3, 1), Retention::Window(3));
        for it in 0..8u64 {
            let row: Vec<f64> = (1..=3).map(|loc| ((it * loc) % 5) as f64).collect();
            h.record_step(it * 2, &row);
        }
        assert!(h.start > 0 && h.evicted > 0);
        h
    }

    fn assert_rejected(payload: &Payload, spatial: IterParam, corrupt: bool, what: &str) {
        match decode(&payload.bytes(), spatial) {
            Err(crate::Error::SnapshotCorrupt { .. }) if corrupt => {}
            Err(crate::Error::SnapshotMismatch { .. }) if !corrupt => {}
            other => panic!("{what}: expected a typed rejection, got {other:?}"),
        }
    }

    #[test]
    fn snapshot_payload_helpers_rebuild_the_recorded_bytes() {
        let h = windowed();
        let payload = Payload::of(&h);
        assert_eq!(payload.bytes(), encode(&h));
        assert_eq!(decode(&payload.bytes(), h.spatial()).unwrap(), h);
    }

    #[test]
    fn snapshot_decode_rejects_differing_iteration_columns() {
        let mut payload = Payload::of(&windowed());
        let last = payload.records[1].iterations.len() - 1;
        payload.records[1].iterations[last] += 1;
        assert_rejected(&payload, spatial(1, 3, 1), true, "iteration column");
    }

    #[test]
    fn snapshot_decode_rejects_differing_start_or_evicted() {
        let mut payload = Payload::of(&windowed());
        payload.records[2].start -= 1;
        assert_rejected(&payload, spatial(1, 3, 1), true, "start");
        let mut payload = Payload::of(&windowed());
        payload.records[1].evicted += 1;
        assert_rejected(&payload, spatial(1, 3, 1), true, "evicted");
        let mut payload = Payload::of(&windowed());
        payload.records[2].stride += 1;
        assert_rejected(&payload, spatial(1, 3, 1), true, "cadence");
    }

    #[test]
    fn snapshot_decode_rejects_differing_lengths() {
        let mut payload = Payload::of(&windowed());
        payload.records[1].iterations.pop();
        payload.records[1].values.pop();
        assert_rejected(&payload, spatial(1, 3, 1), true, "length");
    }

    #[test]
    fn snapshot_decode_rejects_a_foreign_location() {
        let h = windowed();
        let mut payload = Payload::of(&h);
        payload.records[2].location = 40;
        payload.profile[2].0 = 40;
        assert_rejected(&payload, h.spatial(), false, "foreign location");
        // A snapshot of a different location set is rejected the same way.
        assert_rejected(&Payload::of(&h), spatial(1, 4, 1), false, "wider set");
        assert_rejected(&Payload::of(&h), spatial(2, 4, 1), false, "shifted set");
    }

    #[test]
    fn snapshot_decode_rejects_slots_out_of_spatial_order() {
        let h = windowed();
        let mut payload = Payload::of(&h);
        payload.records.swap(0, 2);
        for (pos, record) in payload.records.iter_mut().enumerate() {
            record.profile_pos = Some(pos);
        }
        assert_rejected(&payload, h.spatial(), true, "order");
    }

    /// A location's series under the original per-location slot semantics,
    /// stated naively: every value ever recorded, in arrival order.
    #[derive(Default)]
    struct ModelSlot {
        iterations: Vec<u64>,
        values: Vec<f64>,
    }

    impl ModelSlot {
        fn record(&mut self, iteration: u64, value: f64) {
            if self.iterations.last() == Some(&iteration) {
                *self.values.last_mut().unwrap() = value;
            } else {
                self.iterations.push(iteration);
                self.values.push(value);
            }
        }

        /// The surviving tail under `window`.
        fn visible(&self, window: Option<usize>) -> usize {
            window.map_or(self.values.len(), |w| self.values.len().min(w))
        }
    }

    /// The naive per-location store the step-major one replaced.
    struct Model {
        slots: std::collections::BTreeMap<usize, ModelSlot>,
        window: Option<usize>,
    }

    impl Model {
        fn check(&self, h: &SampleHistory, probe_iterations: u64, what: &str) {
            let total: usize = self.slots.values().map(|s| s.values.len()).sum();
            assert_eq!(h.len(), total, "{what}: len");
            let profile: Vec<(usize, f64)> = self
                .slots
                .iter()
                .filter(|(_, s)| !s.values.is_empty())
                .map(|(&loc, s)| {
                    (
                        loc,
                        s.values.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b)),
                    )
                })
                .collect();
            assert_eq!(h.peak_profile(), &profile[..], "{what}: peak profile");
            let representative = self
                .slots
                .iter()
                .filter(|(_, s)| !s.values.is_empty())
                .max_by_key(|(&loc, s)| (s.values.len(), loc))
                .map(|(&loc, _)| loc);
            assert_eq!(h.representative(), representative, "{what}: representative");
            let front = self
                .slots
                .iter()
                .filter_map(|(&loc, s)| s.values.last().map(|&v| (loc, v)))
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(Ordering::Equal))
                .map(|(loc, _)| loc);
            assert_eq!(h.front_location(), front, "{what}: front location");
            for (&loc, s) in self.slots.iter().chain([(&99, &ModelSlot::default())]) {
                let kept = s.visible(self.window);
                let iterations = &s.iterations[s.iterations.len() - kept..];
                let values = &s.values[s.values.len() - kept..];
                assert_eq!(h.series_len(loc), kept, "{what}: series_len({loc})");
                assert_eq!(h.recorded_of(loc), s.values.len(), "{what}: recorded_of");
                assert_eq!(h.latest_of(loc), values.last().copied(), "{what}: latest");
                assert_eq!(
                    h.iterations_of(loc),
                    (kept > 0).then_some(iterations),
                    "{what}: iterations_of({loc})"
                );
                assert_eq!(
                    h.values_of(loc).map(|c| c.to_vec()),
                    (kept > 0).then(|| values.to_vec()),
                    "{what}: values_of({loc})"
                );
                // A binary search over the survivors: the answer the
                // regular fast path must reproduce on an unbroken cadence.
                for it in 0..probe_iterations {
                    let want = iterations.binary_search(&it).ok().map(|i| values[i]);
                    assert_eq!(
                        h.value_at(loc, it).map(f64::to_bits),
                        want.map(f64::to_bits),
                        "{what}: value_at({loc}, {it})"
                    );
                }
            }
        }
    }

    #[test]
    fn step_major_store_matches_the_per_location_model() {
        let locations = spatial(3, 15, 4);
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move |bound: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % bound
        };
        for case in 0..24 {
            let retention = match case % 3 {
                0 => Retention::Full,
                _ => Retention::Window(1 + next(6) as usize),
            };
            let mut h = SampleHistory::with_retention(locations, retention);
            let mut model = Model {
                slots: locations
                    .iter()
                    .map(|l| (l as usize, ModelSlot::default()))
                    .collect(),
                window: retention.window(),
            };
            let mut iteration = 0u64;
            let mut row = vec![0.0; locations.len()];
            for op in 0..300 {
                let roll = next(100);
                let what = format!("case {case} ({retention:?}) op {op} roll {roll}");
                match roll {
                    0..=1 => {
                        h.clear();
                        for slot in model.slots.values_mut() {
                            *slot = ModelSlot::default();
                        }
                    }
                    2..=4 => h = round_trip(&h),
                    _ => {
                        iteration = match roll {
                            // Same iteration: an overwrite, half of them
                            // lowering every value (the peak rescan).
                            5..=19 => iteration,
                            // An older iteration.
                            20..=22 => iteration.saturating_sub(1 + next(4)),
                            // A gap.
                            23..=32 => iteration + 2 + next(3),
                            _ => iteration + 1,
                        };
                        let lower = roll <= 12;
                        for (value, (&loc, slot)) in row.iter_mut().zip(&model.slots) {
                            *value = match (lower, slot.values.last()) {
                                (true, Some(&last)) => last - 1.0 - next(3) as f64,
                                _ => next(40) as f64 - 20.0 + (loc % 3) as f64 * 0.5,
                            };
                        }
                        h.record_step(iteration, &row);
                        for (&value, slot) in row.iter().zip(model.slots.values_mut()) {
                            slot.record(iteration, value);
                        }
                    }
                }
                model.check(&h, iteration + 3, &what);
            }
        }
    }
}
