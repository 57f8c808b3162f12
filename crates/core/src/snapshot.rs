//! Versioned binary snapshots of a running engine.
//!
//! A snapshot captures everything an [`Engine`](crate::engine::Engine)
//! needs to resume **bit-identically**: every analysis' slot store
//! (iteration/value columns, eviction state, incremental peak/latest
//! statistics, regular-cadence index), the partially filled mini-batch,
//! the fitted [`ArModel`](crate::model::ArModel), both online scalers,
//! the optimizer's internal state (momentum velocity, Adagrad
//! accumulator), the loss history and convergence streak, and every
//! region's status. What it does
//! **not** capture is configuration: providers are closures and cannot be
//! serialized, so [`Engine::restore`](crate::engine::Engine::restore)
//! overlays a snapshot onto an engine that was re-built from the same
//! specs (the serve crate does exactly this from its wire `SessionSpec`).
//!
//! # Container format (version 1)
//!
//! All integers are little-endian; every `f64` is stored as its raw IEEE
//! bit pattern (`to_bits`), so NaN payloads, signed zeros and subnormals
//! survive the round trip and restored arithmetic is bit-identical.
//!
//! ```text
//! [magic   8 bytes]  "ISNPSHT\0"
//! [version u32]      1
//! [count   u32]      number of sections
//! count × sections, each:
//!   [id       u16]   section kind (1 = engine header, 2 = region)
//!   [len      u64]   payload byte length
//!   [checksum u64]   FNV-1a 64 over the payload
//!   [payload  len bytes]
//! ```
//!
//! The stream must end exactly after the last section. Readers reject —
//! with typed [`Error`] values, never a panic — bad
//! magic, unknown versions, oversized or torn sections, checksum
//! mismatches, unknown section ids, trailing bytes, and payloads whose
//! internal structure is inconsistent. Restore is **fail-closed**: the
//! whole snapshot is decoded and validated into intermediate state before
//! the first engine field is touched, so a corrupt file leaves the engine
//! exactly as it was.
//!
//! # Example
//!
//! Checkpoint a running engine, resurrect the state into a freshly
//! configured one, and continue both — they stay bit-identical:
//!
//! ```
//! use insitu::engine::Engine;
//! use insitu::extract::FeatureKind;
//! use insitu::region::AnalysisSpec;
//! use insitu::IterParam;
//!
//! # fn main() -> insitu::Result<()> {
//! // Providers are closures and cannot travel in the snapshot, so both
//! // engines are built from the same spec; restore overlays the state.
//! fn spec() -> AnalysisSpec<Vec<f64>> {
//!     AnalysisSpec::builder()
//!         .name("velocity")
//!         .provider(|domain: &Vec<f64>, loc: usize| domain[loc])
//!         .spatial(IterParam::new(0, 7, 1).unwrap())
//!         .temporal(IterParam::new(0, 100, 1).unwrap())
//!         .feature(FeatureKind::Breakpoint { threshold: 0.05 })
//!         .build()
//!         .unwrap()
//! }
//!
//! let mut engine: Engine<Vec<f64>> = Engine::new();
//! let region = engine.add_region("blast")?;
//! engine.add_analysis(region, spec())?;
//! let domain: Vec<f64> = (0..8).map(|loc| 1.0 / (1.0 + loc as f64)).collect();
//! for iteration in 0..20 {
//!     engine.step(iteration).complete(&domain);
//! }
//!
//! let blob = engine.snapshot();
//! let mut restored: Engine<Vec<f64>> = Engine::new();
//! let restored_region = restored.add_region("blast")?;
//! restored.add_analysis(restored_region, spec())?;
//! restored.restore(&blob)?;
//!
//! for iteration in 20..40 {
//!     engine.step(iteration).complete(&domain);
//!     restored.step(iteration).complete(&domain);
//! }
//! assert_eq!(engine.status(region), restored.status(restored_region));
//! # Ok(())
//! # }
//! ```

use crate::error::{Error, Result};

/// Magic bytes opening every snapshot.
pub const MAGIC: [u8; 8] = *b"ISNPSHT\0";

/// The (single) container version this build writes and reads.
pub const VERSION: u32 = 1;

/// Section id of the engine header (counts + engine-level counters).
pub(crate) const SECTION_ENGINE: u16 = 1;

/// Section id of one region's state (repeated, in registration order).
pub(crate) const SECTION_REGION: u16 = 2;

/// Upper bound on a single section payload (64 MiB): large enough for any
/// realistic analysis state, small enough that a corrupt length field
/// cannot trigger an unbounded allocation.
const MAX_SECTION_LEN: u64 = 64 << 20;

/// FNV-1a 64-bit checksum — cheap, dependency-free, and plenty to reject
/// torn writes and bit flips (corruption detection, not cryptography).
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Shorthand for a [`Error::SnapshotCorrupt`] with the given description,
/// shared by every per-module decoder.
pub(crate) fn corrupt(what: impl Into<String>) -> Error {
    Error::SnapshotCorrupt { what: what.into() }
}

// ---- encoder ---------------------------------------------------------------

/// Append-only payload encoder. Plain byte pushes — the writer cannot fail.
#[derive(Debug, Default)]
pub(crate) struct Enc {
    pub(crate) buf: Vec<u8>,
}

impl Enc {
    pub(crate) fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    pub(crate) fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Raw bit pattern — the bit-identity contract of the whole format.
    pub(crate) fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    pub(crate) fn put_opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(v) => {
                self.put_u8(1);
                self.put_f64(v);
            }
            None => self.put_u8(0),
        }
    }

    pub(crate) fn put_opt_usize(&mut self, v: Option<usize>) {
        match v {
            Some(v) => {
                self.put_u8(1);
                self.put_usize(v);
            }
            None => self.put_u8(0),
        }
    }

    pub(crate) fn put_str(&mut self, s: &str) {
        self.put_usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    pub(crate) fn put_f64_slice(&mut self, values: &[f64]) {
        self.put_usize(values.len());
        for &v in values {
            self.put_f64(v);
        }
    }

    pub(crate) fn put_u64_slice(&mut self, values: &[u64]) {
        self.put_usize(values.len());
        for &v in values {
            self.put_u64(v);
        }
    }
}

// ---- decoder ---------------------------------------------------------------

/// Bounds-checked payload decoder. Every `take_*` either yields a value or
/// a typed [`Error::SnapshotCorrupt`] — out-of-bounds reads are impossible.
#[derive(Debug)]
pub(crate) struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| corrupt("section payload ended inside a field"))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    pub(crate) fn take_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn take_bool(&mut self) -> Result<bool> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(corrupt(format!("invalid bool byte {b}"))),
        }
    }

    pub(crate) fn take_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    pub(crate) fn take_usize(&mut self) -> Result<usize> {
        usize::try_from(self.take_u64()?)
            .map_err(|_| corrupt("length field exceeds the address space"))
    }

    pub(crate) fn take_f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    pub(crate) fn take_opt_f64(&mut self) -> Result<Option<f64>> {
        Ok(match self.take_u8()? {
            0 => None,
            1 => Some(self.take_f64()?),
            b => return Err(corrupt(format!("invalid option tag {b}"))),
        })
    }

    pub(crate) fn take_opt_usize(&mut self) -> Result<Option<usize>> {
        Ok(match self.take_u8()? {
            0 => None,
            1 => Some(self.take_usize()?),
            b => return Err(corrupt(format!("invalid option tag {b}"))),
        })
    }

    /// Guards a `count`-element loop: the remaining payload must hold at
    /// least `count * min_element_bytes`, so a corrupt count cannot drive
    /// an unbounded pre-allocation.
    pub(crate) fn check_count(&self, count: usize, min_element_bytes: usize) -> Result<()> {
        let need = count
            .checked_mul(min_element_bytes)
            .ok_or_else(|| corrupt("element count overflows"))?;
        if need > self.bytes.len() - self.pos {
            return Err(corrupt("element count exceeds the section payload"));
        }
        Ok(())
    }

    pub(crate) fn take_str(&mut self) -> Result<String> {
        let len = self.take_usize()?;
        self.check_count(len, 1)?;
        String::from_utf8(self.take(len)?.to_vec()).map_err(|_| corrupt("invalid UTF-8 string"))
    }

    pub(crate) fn take_f64_vec(&mut self) -> Result<Vec<f64>> {
        let len = self.take_usize()?;
        self.check_count(len, 8)?;
        (0..len).map(|_| self.take_f64()).collect()
    }

    pub(crate) fn take_u64_vec(&mut self) -> Result<Vec<u64>> {
        let len = self.take_usize()?;
        self.check_count(len, 8)?;
        (0..len).map(|_| self.take_u64()).collect()
    }

    /// The payload must be fully consumed — trailing bytes are corruption.
    pub(crate) fn finish(self) -> Result<()> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(corrupt("trailing bytes after the last field"))
        }
    }
}

// ---- container -------------------------------------------------------------

/// Writes the container: header, then each `(id, payload)` section with its
/// length prefix and checksum.
pub(crate) struct Container {
    out: Vec<u8>,
    count: u32,
}

impl Container {
    pub(crate) fn new() -> Self {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes()); // patched by `finish`
        Self { out, count: 0 }
    }

    pub(crate) fn section(&mut self, id: u16, payload: Enc) {
        self.count += 1;
        self.out.extend_from_slice(&id.to_le_bytes());
        self.out
            .extend_from_slice(&(payload.buf.len() as u64).to_le_bytes());
        self.out
            .extend_from_slice(&fnv1a64(&payload.buf).to_le_bytes());
        self.out.extend_from_slice(&payload.buf);
    }

    pub(crate) fn finish(mut self) -> Vec<u8> {
        self.out[12..16].copy_from_slice(&self.count.to_le_bytes());
        self.out
    }
}

/// Parses and fully validates the container: magic, version, section
/// framing, per-section checksums and exact termination. Returns the
/// sections as `(id, payload)` borrows.
pub(crate) fn parse_container(bytes: &[u8]) -> Result<Vec<(u16, &[u8])>> {
    if bytes.len() < 16 {
        return Err(corrupt("shorter than the fixed header"));
    }
    if bytes[..8] != MAGIC {
        return Err(corrupt("bad magic"));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4"));
    if version != VERSION {
        return Err(Error::SnapshotVersion {
            found: version,
            supported: VERSION,
        });
    }
    let count = u32::from_le_bytes(bytes[12..16].try_into().expect("4"));
    let mut sections = Vec::new();
    let mut pos = 16usize;
    for _ in 0..count {
        if bytes.len() - pos < 18 {
            return Err(corrupt("truncated section header"));
        }
        let id = u16::from_le_bytes(bytes[pos..pos + 2].try_into().expect("2"));
        let len = u64::from_le_bytes(bytes[pos + 2..pos + 10].try_into().expect("8"));
        let checksum = u64::from_le_bytes(bytes[pos + 10..pos + 18].try_into().expect("8"));
        if len > MAX_SECTION_LEN {
            return Err(corrupt(format!("section length {len} exceeds the cap")));
        }
        let len = len as usize;
        pos += 18;
        if bytes.len() - pos < len {
            return Err(corrupt("section payload torn off"));
        }
        let payload = &bytes[pos..pos + len];
        if fnv1a64(payload) != checksum {
            return Err(corrupt(format!("checksum mismatch in section id {id}")));
        }
        if !matches!(id, SECTION_ENGINE | SECTION_REGION) {
            return Err(corrupt(format!("unknown section id {id}")));
        }
        sections.push((id, payload));
        pos += len;
    }
    if pos != bytes.len() {
        return Err(corrupt("trailing bytes after the last section"));
    }
    Ok(sections)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_is_stable_and_sensitive() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a64(b"a"), fnv1a64(b"b"));
    }

    #[test]
    fn container_round_trips() {
        let mut c = Container::new();
        let mut payload = Enc::default();
        payload.put_u64(7);
        payload.put_f64(-0.0);
        c.section(SECTION_ENGINE, payload);
        let bytes = c.finish();
        let sections = parse_container(&bytes).unwrap();
        assert_eq!(sections.len(), 1);
        assert_eq!(sections[0].0, SECTION_ENGINE);
        let mut dec = Dec::new(sections[0].1);
        assert_eq!(dec.take_u64().unwrap(), 7);
        assert_eq!(dec.take_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        dec.finish().unwrap();
    }

    #[test]
    fn hostile_containers_fail_closed() {
        let mut c = Container::new();
        let mut payload = Enc::default();
        payload.put_u64(7);
        c.section(SECTION_REGION, payload);
        let good = c.finish();

        // Truncated anywhere.
        for cut in 0..good.len() {
            assert!(
                parse_container(&good[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
        // Any flipped bit is caught by magic, framing or the checksum.
        for byte in 0..good.len() {
            let mut bad = good.clone();
            bad[byte] ^= 0x40;
            assert!(
                parse_container(&bad).is_err(),
                "flip in byte {byte} must fail"
            );
        }
        // Trailing bytes.
        let mut bad = good.clone();
        bad.push(0);
        assert!(matches!(
            parse_container(&bad),
            Err(Error::SnapshotCorrupt { .. })
        ));
        // Version bump.
        let mut bad = good.clone();
        bad[8] = VERSION as u8 + 1;
        assert!(matches!(
            parse_container(&bad),
            Err(Error::SnapshotVersion { found, supported })
                if found == VERSION + 1 && supported == VERSION
        ));
    }

    #[test]
    fn decoder_rejects_hostile_counts_and_tags() {
        let mut enc = Enc::default();
        enc.put_u64(u64::MAX);
        let mut dec = Dec::new(&enc.buf);
        assert!(dec.take_f64_vec().is_err(), "hostile length must not OOM");

        let mut enc = Enc::default();
        enc.put_u8(9);
        assert!(Dec::new(&enc.buf).take_opt_f64().is_err());
        assert!(Dec::new(&enc.buf).take_bool().is_err());

        let mut enc = Enc::default();
        enc.put_u8(0);
        enc.put_u8(0);
        let mut dec = Dec::new(&enc.buf);
        dec.take_u8().unwrap();
        assert!(dec.finish().is_err(), "trailing byte must be rejected");
    }
}
