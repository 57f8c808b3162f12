//! Storage of collected samples: a slot-indexed, struct-of-arrays store
//! with incremental extraction statistics.
//!
//! # The slot / SoA layout
//!
//! Every sampled location owns one **slot**. A dense `location → slot` map
//! (plain array indexing for the small location ids the sampling
//! characteristics produce, a tree for pathological ids) is built when the
//! locations are registered — [`Collector::new`](crate::collect::Collector)
//! knows the whole spatial characteristic up front — so recording a sample
//! is an O(1) slot-addressed append, no tree walk per sample.
//!
//! Within a slot the series is stored **columnar** (struct-of-arrays, like
//! [`MiniBatch`](crate::collect::MiniBatch)): `iterations: Vec<u64>` and
//! `values: Vec<f64>` as separate contiguous columns rather than
//! interleaved `(u64, f64)` pairs, so value-only scans (the extractors, the
//! assembler's lagged reads) stream at full cache-line density.
//!
//! # Incremental extraction statistics
//!
//! The per-location reductions the extractors consume are maintained in
//! O(1) at record time instead of being recomputed by rescanning the
//! series on every extraction:
//!
//! * [`SampleHistory::peak_profile`] — the `(location, peak)` radial
//!   profile the break-point and outlier extractors read, kept sorted by
//!   location and updated in place as samples arrive;
//! * [`SampleHistory::latest_of`] / [`SampleHistory::iter_latest`] — the
//!   most recent value per location (the per-step "wave front" scan);
//! * per-slot sample counts and last iterations;
//! * [`SampleHistory::representative`] — the location with the most
//!   recorded samples, kept current as samples are appended.
//!
//! # Retention
//!
//! [`Retention::Full`] (the default) keeps every sample, exactly like the
//! original map-of-rows store. [`Retention::Window(n)`](Retention::Window)
//! keeps only the `n` most recent samples per location in a bounded buffer
//! (amortized O(1) eviction, ≤ `2n` slots of backing storage per column),
//! so a long-running analysis samples forever in constant memory. The
//! incremental statistics cover evicted samples too: the peak profile is
//! the peak over *everything ever recorded*, not just the surviving window.
//!
//! ```
//! use insitu::collect::{Sample, SampleHistory};
//!
//! let mut h = SampleHistory::new();
//! h.record(Sample::new(0, 3, 1.0));
//! h.record(Sample::new(10, 3, 2.0));
//! assert_eq!(h.value_at(3, 10), Some(2.0));
//! assert_eq!(h.values_of(3), Some(&[1.0, 2.0][..]));
//! assert_eq!(h.peak_profile(), &[(3, 2.0)]);
//! ```

use std::collections::BTreeMap;

use super::sample::Sample;

/// How much of the per-location series a [`SampleHistory`] keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Retention {
    /// Keep every sample for the lifetime of the analysis (the original
    /// behaviour; memory grows with the number of sampled iterations).
    #[default]
    Full,
    /// Keep only the most recent `n` samples per location, in a bounded
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

/// Opaque handle to one location's slot, resolved once via
/// [`SampleHistory::slot_of`] and then used for O(1) recording
/// ([`SampleHistory::record_in_slot`]) without re-touching the
/// location map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotId(u32);

/// Sentinel for "location has no slot" in the dense map.
const NO_SLOT: u32 = u32::MAX;

/// Location ids below this resolve through the dense array; pathological
/// ids fall back to the tree so a stray huge id cannot balloon the map.
const DENSE_LOCATION_LIMIT: usize = 1 << 20;

/// One location's series and running statistics (struct-of-arrays: the
/// iteration and value columns are separate contiguous vectors).
#[derive(Debug, Clone)]
struct Slot {
    location: usize,
    /// Iteration column. The visible series is `iterations[start..]`.
    iterations: Vec<u64>,
    /// Value column, parallel to `iterations`.
    values: Vec<f64>,
    /// Physical index of the first visible (non-evicted) sample.
    start: usize,
    /// Samples evicted by the retention window (logical prefix length).
    evicted: usize,
    /// Running peak over everything ever recorded (evicted included).
    peak: f64,
    /// Running peak over evicted samples only (supports the rare
    /// overwrite-of-the-peak rescan under windowed retention).
    evicted_peak: f64,
    /// First iteration ever recorded (anchor of the regular-cadence index).
    first_iteration: u64,
    /// Iteration stride between consecutive samples (0 = not yet known).
    stride: u64,
    /// Whether the whole logical series is an arithmetic progression in the
    /// iteration column — true for every series a running simulation
    /// produces, enabling O(1) `value_at` without a binary search.
    regular: bool,
    /// Index of this location's entry in the shared peak profile
    /// (`usize::MAX` while the slot has no samples).
    profile_pos: usize,
}

impl Slot {
    fn new(location: usize) -> Self {
        Self {
            location,
            iterations: Vec::new(),
            values: Vec::new(),
            start: 0,
            evicted: 0,
            peak: f64::NEG_INFINITY,
            evicted_peak: f64::NEG_INFINITY,
            first_iteration: 0,
            stride: 0,
            regular: true,
            profile_pos: usize::MAX,
        }
    }

    /// Number of samples currently held (window survivors).
    fn visible_len(&self) -> usize {
        self.values.len() - self.start
    }

    /// Number of samples ever recorded (evicted included).
    fn logical_len(&self) -> usize {
        self.evicted + self.visible_len()
    }

    fn visible_values(&self) -> &[f64] {
        &self.values[self.start..]
    }

    fn visible_iterations(&self) -> &[u64] {
        &self.iterations[self.start..]
    }

    /// O(1) lookup on regular-cadence series, binary search otherwise.
    fn value_at(&self, iteration: u64) -> Option<f64> {
        if self.visible_len() == 0 {
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
            if rel >= self.visible_len() {
                return None;
            }
            Some(self.values[self.start + rel])
        } else {
            self.visible_iterations()
                .binary_search(&iteration)
                .ok()
                .map(|idx| self.values[self.start + idx])
        }
    }

    /// The value `back` samples before the newest, if that sample was
    /// recorded at `iteration`; otherwise whatever [`Slot::value_at`] finds.
    /// On a regular series a sample's position fixes its iteration
    /// (`first_iteration + stride · position`, the progression the record
    /// path checks every append against), so the match is decided without
    /// reading the iteration column and is exactly the sample `value_at`
    /// would return.
    #[inline]
    fn probe(&self, back: usize, iteration: u64) -> Option<f64> {
        if self.regular && back < self.visible_len() {
            let position = (self.logical_len() - 1 - back) as u64;
            if self
                .first_iteration
                .wrapping_add(self.stride.wrapping_mul(position))
                == iteration
            {
                return Some(self.values[self.values.len() - 1 - back]);
            }
        }
        self.value_at(iteration)
    }

    /// Appends a sample, evicting past the retention window. Returns the
    /// slot's new ever-recorded count when a sample was appended (`None`
    /// for a same-iteration overwrite) and whether the shared peak profile
    /// entry must change.
    fn record(&mut self, iteration: u64, value: f64, window: Option<usize>) -> RecordOutcome {
        if let Some(&last_it) = self.iterations.last() {
            if last_it == iteration {
                // Overwrite of the newest sample (never an evicted one).
                let last = self.values.last_mut().expect("columns are parallel");
                let old = *last;
                *last = value;
                let peak_changed = if value >= self.peak {
                    self.peak = value;
                    value != old
                } else if old >= self.peak {
                    // The overwritten value was the peak and the new one is
                    // smaller: rescan the survivors (cold path, the scalar
                    // 4-lane max over the contiguous value column).
                    let rescanned = crate::kernels::scalar()
                        .max_seeded(self.evicted_peak, self.visible_values());
                    let changed = rescanned != self.peak;
                    self.peak = rescanned;
                    changed
                } else {
                    false
                };
                return RecordOutcome {
                    recorded: None,
                    peak_changed,
                };
            }
            if iteration < last_it {
                // Out-of-order arrival violates the documented contract
                // (non-decreasing per location). Keep the data and disable
                // the regular-cadence fast path; point lookups on the now
                // unsorted column are unreliable — exactly as the previous
                // map-based store behaved when its sorted-series invariant
                // was broken the same way.
                self.regular = false;
            }
        }

        // Maintain the regular-cadence index.
        match self.logical_len() {
            0 => self.first_iteration = iteration,
            1 if self.regular => self.stride = iteration - self.first_iteration,
            _ => {
                if self.regular {
                    let expected = self
                        .first_iteration
                        .wrapping_add(self.stride.wrapping_mul(self.logical_len() as u64));
                    if iteration != expected {
                        self.regular = false;
                    }
                }
            }
        }

        self.iterations.push(iteration);
        self.values.push(value);
        let peak_changed = value > self.peak;
        if peak_changed {
            self.peak = value;
        }

        if let Some(window) = window {
            if self.visible_len() > window {
                let falling_out = self.values[self.start];
                self.evicted_peak = self.evicted_peak.max(falling_out);
                self.start += 1;
                self.evicted += 1;
                if self.start >= window {
                    // Amortized compaction: copy the survivors to the front
                    // so the columns stay contiguous with ≤ 2·window slots
                    // of backing storage.
                    let len = self.values.len();
                    self.values.copy_within(self.start..len, 0);
                    self.iterations.copy_within(self.start..len, 0);
                    self.values.truncate(len - self.start);
                    self.iterations.truncate(len - self.start);
                    self.start = 0;
                }
            }
        }
        RecordOutcome {
            recorded: Some(self.logical_len()),
            peak_changed,
        }
    }

    fn clear(&mut self) {
        self.iterations.clear();
        self.values.clear();
        self.start = 0;
        self.evicted = 0;
        self.peak = f64::NEG_INFINITY;
        self.evicted_peak = f64::NEG_INFINITY;
        self.first_iteration = 0;
        self.stride = 0;
        self.regular = true;
        self.profile_pos = usize::MAX;
    }
}

/// Whether `visible` — the surviving iterations of a slot that evicted
/// `evicted` samples — is the strictly increasing progression
/// `first + stride · k` the record path maintains for a regular slot: the
/// invariant that lets [`Slot::probe`] and [`Slot::value_at`] locate a
/// sample from its position alone. Checked on snapshot decode.
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

struct RecordOutcome {
    /// The ever-recorded count after an append; `None` for an overwrite.
    recorded: Option<usize>,
    peak_changed: bool,
}

/// The dense-first `location → slot` map.
#[derive(Debug, Clone, Default)]
struct SlotMap {
    /// `dense[location]` is the slot index, or [`NO_SLOT`]. Covers every
    /// registered location below [`DENSE_LOCATION_LIMIT`].
    dense: Vec<u32>,
    /// Fallback for pathological location ids.
    sparse: BTreeMap<usize, u32>,
}

impl SlotMap {
    #[inline]
    fn get(&self, location: usize) -> Option<u32> {
        if location < self.dense.len() {
            let slot = self.dense[location];
            (slot != NO_SLOT).then_some(slot)
        } else if location < DENSE_LOCATION_LIMIT {
            None
        } else {
            self.sparse.get(&location).copied()
        }
    }

    fn insert(&mut self, location: usize, slot: u32) {
        if location < DENSE_LOCATION_LIMIT {
            if location >= self.dense.len() {
                self.dense.resize(location + 1, NO_SLOT);
            }
            self.dense[location] = slot;
        } else {
            self.sparse.insert(location, slot);
        }
    }
}

/// All samples collected so far, organized per location in iteration order.
///
/// The history is the collector's working memory: the batch assembler reads
/// lagged values out of it, the extractors read the incremental profiles
/// and per-location column views out of it, and the accuracy studies
/// compare it against model predictions. See the
/// [module docs](crate::collect) for the slot/SoA layout and the
/// retention policy.
#[derive(Debug, Clone, Default)]
pub struct SampleHistory {
    map: SlotMap,
    /// Slot storage, in registration order.
    slots: Vec<Slot>,
    /// Slot indices sorted by location id — the iteration order of every
    /// per-location view (matches the old `BTreeMap` semantics).
    sorted: Vec<u32>,
    /// `(location, peak)` for every location with at least one sample,
    /// sorted by location — maintained incrementally at record time and
    /// handed to the extractors as a borrowed slice.
    profile: Vec<(usize, f64)>,
    /// `(recorded count, location)` of the representative location: the
    /// maximum over every sampled slot, updated as samples are appended
    /// (counts never shrink, so the maximum only moves up).
    representative: Option<(usize, usize)>,
    retention: Retention,
    total: usize,
}

/// Logical content equality: two histories are equal when they have the
/// same retention policy and hold the same samples per location (surviving
/// columns, evicted counts and peaks) — regardless of the order locations
/// were first touched in or any internal bookkeeping (slot numbering,
/// compaction state), which the old map-based store's derived equality
/// also ignored.
impl PartialEq for SampleHistory {
    fn eq(&self, other: &Self) -> bool {
        self.retention == other.retention
            && self.total == other.total
            // The profiles are sorted by location, so this also checks that
            // both histories sampled the same location set with equal peaks.
            && self.profile == other.profile
            && self.iter_locations().all(|loc| {
                self.iterations_of(loc) == other.iterations_of(loc)
                    && self.values_of(loc) == other.values_of(loc)
                    && self.recorded_of(loc) == other.recorded_of(loc)
            })
    }
}

impl SampleHistory {
    /// Creates an empty history that keeps every sample.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty history with an explicit [`Retention`] policy.
    pub fn with_retention(retention: Retention) -> Self {
        Self {
            retention,
            ..Self::default()
        }
    }

    /// The configured retention policy.
    pub fn retention(&self) -> Retention {
        self.retention
    }

    /// Registers `locations` (creating their slots) with room for
    /// `samples_per_location` entries each, so steady-state recording
    /// appends without reallocating. Registered-but-never-sampled locations
    /// stay invisible to every query. Under [`Retention::Window`] the
    /// reservation is capped at the window's bounded backing storage.
    pub fn reserve(&mut self, locations: &[usize], samples_per_location: usize) {
        let per_slot = match self.retention.window() {
            // ≤ 2·window physical slots per column (see `Slot::record`).
            Some(window) => samples_per_location.min(2 * window),
            None => samples_per_location,
        };
        for &location in locations {
            let slot = self.slot_index_or_insert(location);
            let slot = &mut self.slots[slot as usize];
            let len = slot.values.len();
            slot.values.reserve(per_slot.saturating_sub(len));
            slot.iterations.reserve(per_slot.saturating_sub(len));
        }
        self.profile.reserve(locations.len());
    }

    /// Resolves the slot handle for a location, registering it if needed.
    /// Callers that sample the same locations every iteration (the
    /// collector) resolve slots once and then record through
    /// [`SampleHistory::record_in_slot`].
    pub fn slot_of(&mut self, location: usize) -> SlotId {
        SlotId(self.slot_index_or_insert(location))
    }

    fn slot_index_or_insert(&mut self, location: usize) -> u32 {
        if let Some(slot) = self.map.get(location) {
            return slot;
        }
        let slot = u32::try_from(self.slots.len()).expect("fewer than 2^32 locations");
        self.slots.push(Slot::new(location));
        self.map.insert(location, slot);
        let pos = self
            .sorted
            .binary_search_by_key(&location, |&s| self.slots[s as usize].location)
            .expect_err("location was absent from the map");
        self.sorted.insert(pos, slot);
        slot
    }

    /// Records one sample. Samples are expected to arrive in non-decreasing
    /// iteration order per location (the natural order of a running
    /// simulation); ties overwrite the previous value for that iteration.
    pub fn record(&mut self, sample: Sample) {
        let slot = self.slot_of(sample.location);
        self.record_in_slot(slot, sample.iteration, sample.value);
    }

    /// O(1) slot-addressed record: appends to the slot's columns and
    /// updates its running statistics without consulting the location map.
    pub fn record_in_slot(&mut self, slot: SlotId, iteration: u64, value: f64) {
        let window = self.retention.window();
        let s = &mut self.slots[slot.0 as usize];
        let outcome = s.record(iteration, value, window);
        let (location, peak, profile_pos) = (s.location, s.peak, s.profile_pos);
        if let Some(recorded) = outcome.recorded {
            self.total += 1;
            if self
                .representative
                .is_none_or(|best| (recorded, location) >= best)
            {
                self.representative = Some((recorded, location));
            }
            if recorded == 1 {
                self.insert_profile_entry(slot.0);
                return;
            }
        }
        if outcome.peak_changed {
            self.profile[profile_pos].1 = peak;
        }
    }

    /// First sample of a location: splice its `(location, peak)` entry into
    /// the sorted profile (cold path — runs once per location).
    fn insert_profile_entry(&mut self, slot: u32) {
        let (location, peak) = {
            let s = &self.slots[slot as usize];
            (s.location, s.peak)
        };
        let pos = self
            .profile
            .binary_search_by_key(&location, |&(loc, _)| loc)
            .expect_err("first sample of a location not yet profiled");
        self.profile.insert(pos, (location, peak));
        self.slots[slot as usize].profile_pos = pos;
        // Re-anchor the entries displaced by the insertion.
        for entry in &self.profile[pos + 1..] {
            let displaced = self
                .map
                .get(entry.0)
                .expect("profiled locations have slots");
            self.slots[displaced as usize].profile_pos += 1;
        }
    }

    /// The slot handle of a registered location, without registering it.
    pub(crate) fn slot_id(&self, location: usize) -> Option<SlotId> {
        self.map.get(location).map(SlotId)
    }

    /// O(1) slot-addressed point lookup: the sample `back` entries before
    /// the slot's newest, if it was recorded at `iteration`. When it was
    /// not, or the series is irregular, this falls back to
    /// [`SampleHistory::value_at`], so it always returns exactly what
    /// `value_at(location, iteration)` returns for the slot's location.
    /// `back` is only a hint: the batch assembler derives it from the
    /// sampling cadence once per target iteration.
    #[inline]
    pub(crate) fn probe(&self, slot: SlotId, back: usize, iteration: u64) -> Option<f64> {
        self.slots[slot.0 as usize].probe(back, iteration)
    }

    fn slot(&self, location: usize) -> Option<&Slot> {
        let slot = self.map.get(location)?;
        let slot = &self.slots[slot as usize];
        (slot.visible_len() > 0).then_some(slot)
    }

    /// Total number of samples recorded (evicted samples included).
    pub fn len(&self) -> usize {
        self.total
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Iterates the locations that have at least one sample, in increasing
    /// order, without allocating. Registered-but-empty slots are skipped.
    pub fn iter_locations(&self) -> impl Iterator<Item = usize> + '_ {
        self.profile.iter().map(|&(loc, _)| loc)
    }

    /// The value column of one location's series, oldest first (window
    /// survivors under [`Retention::Window`]). Locations that were
    /// registered but never sampled report `None`.
    pub fn values_of(&self, location: usize) -> Option<&[f64]> {
        self.slot(location).map(Slot::visible_values)
    }

    /// The iteration column of one location's series, parallel to
    /// [`SampleHistory::values_of`].
    pub fn iterations_of(&self, location: usize) -> Option<&[u64]> {
        self.slot(location).map(Slot::visible_iterations)
    }

    /// Number of samples currently held for `location` (0 when unknown).
    /// Under [`Retention::Window`] this is the surviving window length; see
    /// [`SampleHistory::recorded_of`] for the ever-recorded count.
    pub fn series_len(&self, location: usize) -> usize {
        self.slot(location).map_or(0, Slot::visible_len)
    }

    /// Number of samples ever recorded for `location`, evicted included.
    pub fn recorded_of(&self, location: usize) -> usize {
        self.slot(location).map_or(0, Slot::logical_len)
    }

    /// The most recent iteration recorded at `location`, if any.
    pub fn last_iteration_of(&self, location: usize) -> Option<u64> {
        self.slot(location)
            .and_then(|s| s.visible_iterations().last().copied())
    }

    /// The location with the most samples ever recorded, ties broken by
    /// the largest location id — `iter_locations().max_by_key(recorded_of)`,
    /// kept current at record time, O(1).
    pub fn representative(&self) -> Option<usize> {
        self.representative.map(|(_, location)| location)
    }

    /// The value observed at `(location, iteration)`, if it was sampled and
    /// still retained. O(1) for the regular cadence a simulation produces.
    pub fn value_at(&self, location: usize, iteration: u64) -> Option<f64> {
        self.slot(location)?.value_at(iteration)
    }

    /// The most recent value observed at `location`, if any — maintained
    /// incrementally, O(1).
    pub fn latest_of(&self, location: usize) -> Option<f64> {
        self.slot(location)
            .and_then(|s| s.visible_values().last().copied())
    }

    /// Iterates `(location, latest value)` over every sampled location in
    /// increasing location order, without allocating — the per-step
    /// wave-front scan.
    pub fn iter_latest(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.profile.iter().map(|&(loc, _)| {
            let slot = self.map.get(loc).expect("profiled locations have slots");
            let slot = &self.slots[slot as usize];
            (
                loc,
                *slot.visible_values().last().expect("profiled ⇒ non-empty"),
            )
        })
    }

    /// The most recent `count` values observed at `location` (oldest
    /// first), as a borrowed tail of the value column. Returns `None` if
    /// fewer than `count` samples are retained.
    pub fn recent_values_of(&self, location: usize, count: usize) -> Option<&[f64]> {
        let values = self.values_of(location)?;
        if values.len() < count {
            return None;
        }
        Some(&values[values.len() - count..])
    }

    /// The peak (maximum) value ever observed per location, in location
    /// order — the radial profile the break-point extractor consumes.
    /// Maintained incrementally at record time; this is a borrowed view,
    /// O(1) and allocation-free no matter how long the series are. Under
    /// [`Retention::Window`] the peaks still cover evicted samples.
    pub fn peak_profile(&self) -> &[(usize, f64)] {
        &self.profile
    }

    /// Removes all samples while keeping every slot's allocation, used when
    /// an analysis is re-armed after early termination was declined.
    pub fn clear(&mut self) {
        for slot in &mut self.slots {
            slot.clear();
        }
        self.profile.clear();
        self.representative = None;
        self.total = 0;
    }

    /// Appends the history to a snapshot payload: retention, every slot's
    /// columns and running statistics (in registration order, which the
    /// decoder preserves so slot indices — and therefore outstanding
    /// [`SlotId`]s resolved against an identically-registered history —
    /// stay valid), and the shared peak profile.
    pub(crate) fn snapshot_encode(&self, enc: &mut crate::snapshot::Enc) {
        match self.retention {
            Retention::Full => enc.put_u8(0),
            Retention::Window(n) => {
                enc.put_u8(1);
                enc.put_usize(n);
            }
        }
        enc.put_usize(self.total);
        enc.put_usize(self.slots.len());
        for slot in &self.slots {
            enc.put_usize(slot.location);
            enc.put_u64_slice(&slot.iterations);
            enc.put_f64_slice(&slot.values);
            enc.put_usize(slot.start);
            enc.put_usize(slot.evicted);
            enc.put_f64(slot.peak);
            enc.put_f64(slot.evicted_peak);
            enc.put_u64(slot.first_iteration);
            enc.put_u64(slot.stride);
            enc.put_bool(slot.regular);
            enc.put_opt_usize((slot.profile_pos != usize::MAX).then_some(slot.profile_pos));
        }
        enc.put_usize(self.profile.len());
        for &(location, peak) in &self.profile {
            enc.put_usize(location);
            enc.put_f64(peak);
        }
    }

    /// Decodes a history written by [`SampleHistory::snapshot_encode`],
    /// rebuilding the location map and sorted index from the slot locations
    /// and cross-checking every internal invariant (parallel columns,
    /// eviction bounds, profile anchoring), so a crafted payload cannot
    /// smuggle in a state the store could never reach.
    pub(crate) fn snapshot_decode(
        dec: &mut crate::snapshot::Dec<'_>,
    ) -> crate::error::Result<Self> {
        use crate::snapshot::corrupt;

        let retention = match dec.take_u8()? {
            0 => Retention::Full,
            1 => Retention::Window(dec.take_usize()?),
            t => return Err(corrupt(format!("invalid retention tag {t}"))),
        };
        let total = dec.take_usize()?;
        let slot_count = dec.take_usize()?;
        // Fixed fields per slot: location, two column lengths, start,
        // evicted, two peaks, first_iteration, stride (8 bytes each) plus
        // the regular flag and the profile-pos option tag.
        dec.check_count(slot_count, 9 * 8 + 2)?;
        let mut slots = Vec::with_capacity(slot_count);
        for _ in 0..slot_count {
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
            let profile_pos = dec.take_opt_usize()?.unwrap_or(usize::MAX);
            if iterations.len() != values.len() {
                return Err(corrupt("slot columns are not parallel"));
            }
            if start > values.len() {
                return Err(corrupt("slot start index past the end of its columns"));
            }
            if regular && !on_progression(&iterations[start..], first_iteration, stride, evicted) {
                return Err(corrupt("regular slot's iterations leave its progression"));
            }
            slots.push(Slot {
                location,
                iterations,
                values,
                start,
                evicted,
                peak,
                evicted_peak,
                first_iteration,
                stride,
                regular,
                profile_pos,
            });
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

        // Rebuild the derived indices and cross-check the invariants the
        // rest of the store relies on.
        let mut map = SlotMap::default();
        for (idx, slot) in slots.iter().enumerate() {
            if map.get(slot.location).is_some() {
                return Err(corrupt(format!(
                    "duplicate slot location {}",
                    slot.location
                )));
            }
            map.insert(slot.location, idx as u32);
        }
        let mut sorted: Vec<u32> = (0..slots.len() as u32).collect();
        sorted.sort_by_key(|&s| slots[s as usize].location);

        let mut sampled = 0usize;
        let mut recorded = 0usize;
        let mut representative = None;
        for slot in &slots {
            recorded = recorded
                .checked_add(slot.logical_len())
                .ok_or_else(|| corrupt("sample totals overflow"))?;
            if slot.logical_len() == 0 {
                if slot.profile_pos != usize::MAX {
                    return Err(corrupt("empty slot anchored in the peak profile"));
                }
                continue;
            }
            sampled += 1;
            representative = representative.max(Some((slot.logical_len(), slot.location)));
            let anchored = profile.get(slot.profile_pos).is_some_and(|&(loc, peak)| {
                loc == slot.location && peak.to_bits() == slot.peak.to_bits()
            });
            if !anchored {
                return Err(corrupt("slot peak disagrees with the peak profile"));
            }
        }
        if sampled != profile.len() {
            return Err(corrupt(
                "peak profile length disagrees with the sampled slots",
            ));
        }
        if recorded != total {
            return Err(corrupt("sample total disagrees with the slot columns"));
        }

        Ok(Self {
            map,
            slots,
            sorted,
            profile,
            representative,
            retention,
            total,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled() -> SampleHistory {
        let mut h = SampleHistory::new();
        for loc in 1..=3usize {
            for it in 0..5u64 {
                h.record(Sample::new(it * 10, loc, (loc as f64) * 10.0 + it as f64));
            }
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
        assert_eq!(h.latest_of(3), Some(34.0));
        assert_eq!(h.last_iteration_of(3), Some(40));
        assert_eq!(h.series_len(2), 5);
        assert_eq!(h.recorded_of(2), 5);
    }

    #[test]
    fn columns_are_parallel_soa_views() {
        let h = filled();
        assert_eq!(h.iterations_of(1), Some(&[0, 10, 20, 30, 40][..]));
        assert_eq!(h.values_of(1), Some(&[10.0, 11.0, 12.0, 13.0, 14.0][..]));
        assert!(h.values_of(9).is_none());
    }

    #[test]
    fn duplicate_iteration_overwrites() {
        let mut h = SampleHistory::new();
        h.record(Sample::new(5, 0, 1.0));
        h.record(Sample::new(5, 0, 2.0));
        assert_eq!(h.len(), 1);
        assert_eq!(h.value_at(0, 5), Some(2.0));
        assert_eq!(h.peak_profile(), &[(0, 2.0)]);
        // Overwriting the peak downward rescans the survivors.
        h.record(Sample::new(5, 0, 0.5));
        assert_eq!(h.peak_profile(), &[(0, 0.5)]);
    }

    #[test]
    fn recent_values_return_borrowed_tail_in_order() {
        let h = filled();
        assert_eq!(h.recent_values_of(1, 3), Some(&[12.0, 13.0, 14.0][..]));
        assert_eq!(h.recent_values_of(1, 6), None);
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
        // Locations first sampled out of order still profile sorted.
        let mut h = SampleHistory::new();
        for &loc in &[7usize, 2, 9, 4] {
            h.record(Sample::new(0, loc, loc as f64));
        }
        assert_eq!(h.peak_profile(), &[(2, 2.0), (4, 4.0), (7, 7.0), (9, 9.0)]);
        assert_eq!(
            h.iter_latest().collect::<Vec<_>>(),
            vec![(2, 2.0), (4, 4.0), (7, 7.0), (9, 9.0)]
        );
        // And the entries keep tracking their slots after the splices.
        h.record(Sample::new(1, 7, 70.0));
        h.record(Sample::new(1, 2, 0.5));
        assert_eq!(h.peak_profile(), &[(2, 2.0), (4, 4.0), (7, 70.0), (9, 9.0)]);
    }

    #[test]
    fn reserve_presizes_without_fabricating_samples() {
        let mut h = SampleHistory::new();
        h.reserve(&[1, 2, 3], 100);
        assert!(h.is_empty());
        assert_eq!(
            h.iter_locations().count(),
            0,
            "reserved locations stay hidden"
        );
        assert!(h.values_of(1).is_none());
        assert!(h.peak_profile().is_empty());
        h.record(Sample::new(0, 2, 7.0));
        assert_eq!(h.iter_locations().collect::<Vec<_>>(), vec![2]);
        assert_eq!(h.peak_profile(), &[(2, 7.0)]);
    }

    #[test]
    fn clear_empties_history() {
        let mut h = filled();
        h.clear();
        assert!(h.is_empty());
        assert!(h.values_of(1).is_none());
        assert!(h.peak_profile().is_empty());
        // Slots survive and keep working after re-arming.
        h.record(Sample::new(0, 1, 5.0));
        assert_eq!(h.peak_profile(), &[(1, 5.0)]);
        assert_eq!(h.value_at(1, 0), Some(5.0));
    }

    #[test]
    fn irregular_cadence_falls_back_to_binary_search() {
        let mut h = SampleHistory::new();
        for &it in &[0u64, 10, 20, 25, 40] {
            h.record(Sample::new(it, 1, it as f64));
        }
        assert_eq!(h.value_at(1, 25), Some(25.0));
        assert_eq!(h.value_at(1, 30), None);
        assert_eq!(h.value_at(1, 40), Some(40.0));
    }

    #[test]
    fn windowed_retention_keeps_only_the_tail_but_remembers_peaks() {
        let mut h = SampleHistory::with_retention(Retention::Window(3));
        for it in 0..10u64 {
            // Peak (9 - it) arrives first, so it is evicted early.
            h.record(Sample::new(it, 1, (9 - it) as f64));
        }
        assert_eq!(h.series_len(1), 3);
        assert_eq!(h.recorded_of(1), 10);
        assert_eq!(h.len(), 10, "len counts evicted samples too");
        assert_eq!(h.values_of(1), Some(&[2.0, 1.0, 0.0][..]));
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
        let mut h = SampleHistory::with_retention(Retention::Window(window));
        h.reserve(&[1], 1_000_000);
        for it in 0..10_000u64 {
            h.record(Sample::new(it, 1, it as f64));
        }
        assert_eq!(h.series_len(1), window);
        let slot = h.slot(1).unwrap();
        assert!(
            slot.values.capacity() <= 2 * window,
            "backing storage must stay ≤ 2×window ({} slots)",
            slot.values.capacity()
        );
    }

    #[test]
    fn equality_is_logical_not_representational() {
        // Same samples, locations first touched in different orders: the
        // slot numbering and profile splice history differ, the content
        // does not.
        let mut a = SampleHistory::new();
        let mut b = SampleHistory::new();
        a.reserve(&[2, 7], 4);
        for it in 0..3u64 {
            for &loc in &[7usize, 2] {
                a.record(Sample::new(it, loc, (loc as f64) + it as f64));
            }
            for &loc in &[2usize, 7] {
                b.record(Sample::new(it, loc, (loc as f64) + it as f64));
            }
        }
        assert_eq!(a, b);
        b.record(Sample::new(3, 2, 0.0));
        assert_ne!(a, b);
        // Differing retention policies are never equal, even while empty.
        assert_ne!(
            SampleHistory::new(),
            SampleHistory::with_retention(Retention::Window(4))
        );
    }

    #[test]
    fn huge_location_ids_do_not_balloon_the_dense_map() {
        let mut h = SampleHistory::new();
        let huge = usize::MAX / 2;
        h.record(Sample::new(0, huge, 1.0));
        h.record(Sample::new(0, 3, 2.0));
        assert!(h.map.dense.len() <= 4);
        assert_eq!(h.value_at(huge, 0), Some(1.0));
        assert_eq!(h.peak_profile(), &[(3, 2.0), (huge, 1.0)]);
    }

    fn round_trip(h: &SampleHistory) -> SampleHistory {
        let mut enc = crate::snapshot::Enc::default();
        h.snapshot_encode(&mut enc);
        let bytes = {
            let mut c = crate::snapshot::Container::new();
            c.section(crate::snapshot::SECTION_REGION, enc);
            c.finish()
        };
        let sections = crate::snapshot::parse_container(&bytes).unwrap();
        let mut dec = crate::snapshot::Dec::new(sections[0].1);
        let restored = SampleHistory::snapshot_decode(&mut dec).unwrap();
        dec.finish().unwrap();
        restored
    }

    #[test]
    fn snapshot_round_trip_preserves_everything() {
        let mut h = SampleHistory::with_retention(Retention::Window(3));
        for it in 0..10u64 {
            for loc in [7usize, 2, 40] {
                h.record(Sample::new(it, loc, (it as f64 - loc as f64).sin()));
            }
        }
        // A registered-but-never-sampled slot must survive too.
        h.reserve(&[99], 4);
        let restored = round_trip(&h);
        assert_eq!(h, restored);
        // Internal bookkeeping (not covered by the logical PartialEq) must
        // also match so recording continues identically after restore.
        assert_eq!(h.total, restored.total);
        for (a, b) in h.slots.iter().zip(&restored.slots) {
            assert_eq!(a.location, b.location);
            assert_eq!(a.start, b.start);
            assert_eq!(a.evicted, b.evicted);
            assert_eq!(a.stride, b.stride);
            assert_eq!(a.regular, b.regular);
            assert_eq!(a.profile_pos, b.profile_pos);
            assert_eq!(a.evicted_peak.to_bits(), b.evicted_peak.to_bits());
        }
        // And recording keeps behaving identically.
        let mut restored = restored;
        for it in 10..20u64 {
            for loc in [7usize, 2, 40, 99] {
                h.record(Sample::new(it, loc, (it as f64 * 0.3).cos()));
                restored.record(Sample::new(it, loc, (it as f64 * 0.3).cos()));
            }
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
            let mut h = SampleHistory::with_retention(retention);
            h.reserve(&[1, 2, 3, 4], 8);
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
                        let location = [1, 2, 3, 4, 9][next(5) as usize];
                        h.record(Sample::new(iteration, location, next(100) as f64));
                    }
                }
                assert_representative(&h, &format!("{retention:?} op {op}"));
            }
        }
    }

    #[test]
    fn representative_ties_go_to_the_largest_location() {
        let mut h = SampleHistory::new();
        for &loc in &[5usize, 2, 8, 3] {
            h.record(Sample::new(0, loc, 1.0));
        }
        assert_eq!(h.representative(), Some(8));
        h.record(Sample::new(1, 3, 1.0));
        assert_eq!(h.representative(), Some(3));
        // An overwrite does not add a sample.
        h.record(Sample::new(0, 8, 2.0));
        assert_eq!(h.representative(), Some(3));
        h.record(Sample::new(1, 8, 2.0));
        assert_eq!(h.representative(), Some(8));
    }

    #[test]
    fn probe_returns_exactly_what_value_at_returns() {
        let mut gapped = SampleHistory::with_retention(Retention::Window(4));
        let mut out_of_order = SampleHistory::new();
        for it in [0u64, 3, 6, 9, 12, 18, 21, 24, 27] {
            gapped.record(Sample::new(it, 1, it as f64 * 0.5));
        }
        for it in [0u64, 3, 6, 9, 6, 12, 15] {
            out_of_order.record(Sample::new(it, 1, it as f64 + 0.25));
        }
        for h in [&filled(), &gapped, &out_of_order] {
            for loc in 1..=3usize {
                let Some(slot) = h.slot_id(loc) else {
                    continue;
                };
                for back in 0..12 {
                    for it in 0..50u64 {
                        assert_eq!(
                            h.probe(slot, back, it).map(f64::to_bits),
                            h.value_at(loc, it).map(f64::to_bits),
                            "location {loc}, back {back}, iteration {it}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn snapshot_decode_rejects_a_regular_slot_off_its_progression() {
        use crate::snapshot::{Dec, Enc};

        // Two samples at one iteration on a "regular" slot with stride 0:
        // a state recording can never reach, where a positional probe
        // and `value_at` would disagree.
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
        let err = SampleHistory::snapshot_decode(&mut Dec::new(&enc.buf)).unwrap_err();
        assert!(err.to_string().contains("progression"), "{err}");
    }

    #[test]
    fn snapshot_decode_rejects_inconsistent_payloads() {
        use crate::snapshot::{Dec, Enc};

        // Torn columns: iteration and value columns of different lengths.
        let mut enc = Enc::default();
        enc.put_u8(0); // Retention::Full
        enc.put_usize(1); // total
        enc.put_usize(1); // one slot
        enc.put_usize(5); // location
        enc.put_u64_slice(&[1, 2]);
        enc.put_f64_slice(&[1.0]);
        let mut dec = Dec::new(&enc.buf);
        assert!(SampleHistory::snapshot_decode(&mut dec).is_err());

        // Disagreeing total.
        let mut good = SampleHistory::new();
        good.record(Sample::new(5, 1, 2.0));
        let mut enc = Enc::default();
        good.snapshot_encode(&mut enc);
        let mut tampered = Enc::default();
        tampered.put_u8(0);
        tampered.put_usize(7); // wrong total
        tampered.buf.extend_from_slice(&enc.buf[9..]);
        let mut dec = Dec::new(&tampered.buf);
        assert!(SampleHistory::snapshot_decode(&mut dec).is_err());
    }
}
