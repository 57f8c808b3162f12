//! Opt-in fault injection for robustness testing.
//!
//! The serve crate's crash-recovery machinery (snapshot/restore, lane
//! panic isolation, client deadlines and reconnect backoff) only earns
//! trust when something actually fails. This module is the switchboard:
//! a process-global [`FaultPlan`] that, when armed, makes specific
//! failure modes happen deterministically —
//!
//! * **session panics**: a session whose name matches
//!   [`FaultPlan::panic_session`] panics inside its step, exercising the
//!   lane's `catch_unwind` eviction path (the poisoned session gets an
//!   `ErrorReply` and dies; its lane and the sessions sharing it do not);
//! * **lane stalls**: every step sleeps [`FaultPlan::stall`] on its lane
//!   thread, creating the backlog that exercises shed-don't-stall
//!   backpressure under degraded service;
//! * **snapshot mangling**: [`FaultPlan::truncate_snapshot`] /
//!   [`FaultPlan::corrupt_snapshot`] damage every serialized blob
//!   (truncated tail, flipped bit), proving restore fails closed with a
//!   typed error instead of resurrecting silently-wrong state.
//!
//! Connection-level faults (resets, mid-frame truncation, garbage bytes)
//! need no hooks — a client can commit those crimes unaided, and the
//! chaos harness ([`crate::loadgen`]) does.
//!
//! **Zero cost when off**: every hook first reads one relaxed atomic;
//! unarmed processes never take the lock behind it. Arm programmatically
//! with [`arm`] (tests, the chaos harness) or via the `INSITU_FAULTS`
//! environment variable (the server/loadgen binaries), e.g.
//!
//! ```text
//! INSITU_FAULTS=panic-session=poison,stall-us=200,corrupt-snapshot
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, Once};
use std::time::Duration;

/// Which faults to inject. The default plan injects nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Sessions with exactly this name panic inside their step (the
    /// deliberately-poisoned provider), exercising lane panic isolation.
    pub panic_session: Option<String>,
    /// Every session step sleeps this long on its lane thread first,
    /// simulating a degraded/stalled lane.
    pub stall: Option<Duration>,
    /// Serialized snapshot blobs lose the second half of their bytes.
    pub truncate_snapshot: bool,
    /// Serialized snapshot blobs get one payload bit flipped.
    pub corrupt_snapshot: bool,
}

impl FaultPlan {
    /// Parses the `INSITU_FAULTS` syntax: comma-separated
    /// `panic-session=<name>`, `stall-us=<micros>`, `truncate-snapshot`,
    /// `corrupt-snapshot`. Returns `None` (and injects nothing) on
    /// unknown directives rather than guessing.
    pub fn parse(text: &str) -> Option<Self> {
        let mut plan = FaultPlan::default();
        for directive in text.split(',').filter(|d| !d.is_empty()) {
            match directive.split_once('=') {
                Some(("panic-session", name)) => plan.panic_session = Some(name.to_string()),
                Some(("stall-us", micros)) => {
                    plan.stall = Some(Duration::from_micros(micros.parse().ok()?));
                }
                None if directive == "truncate-snapshot" => plan.truncate_snapshot = true,
                None if directive == "corrupt-snapshot" => plan.corrupt_snapshot = true,
                _ => return None,
            }
        }
        Some(plan)
    }

    fn is_noop(&self) -> bool {
        *self == FaultPlan::default()
    }
}

/// Fast-path gate: hooks return immediately while this is false.
static ARMED: AtomicBool = AtomicBool::new(false);
static PLAN: Mutex<Option<FaultPlan>> = Mutex::new(None);
static ENV_INIT: Once = Once::new();

/// Arms the given fault plan process-wide (replacing any previous one).
/// Arming a default (no-op) plan is equivalent to [`disarm`].
pub fn arm(plan: FaultPlan) {
    let off = plan.is_noop();
    *PLAN.lock().expect("fault plan lock") = if off { None } else { Some(plan) };
    ARMED.store(!off, Ordering::Release);
}

/// Disarms fault injection process-wide.
pub fn disarm() {
    arm(FaultPlan::default());
}

/// Whether any fault plan is currently armed.
pub fn armed() -> bool {
    ensure_env_init();
    ARMED.load(Ordering::Acquire)
}

fn ensure_env_init() {
    ENV_INIT.call_once(|| {
        if let Ok(text) = std::env::var("INSITU_FAULTS") {
            if let Some(plan) = FaultPlan::parse(&text) {
                arm(plan);
            } else {
                eprintln!("INSITU_FAULTS: unrecognized directive in {text:?}; injecting nothing");
            }
        }
    });
}

fn with_plan<R>(f: impl FnOnce(&FaultPlan) -> R) -> Option<R> {
    if !armed() {
        return None;
    }
    PLAN.lock().expect("fault plan lock").as_ref().map(f)
}

/// Step hook, called on the lane thread before a session's step runs:
/// applies the lane stall, then panics if this session is the poisoned
/// one.
pub(crate) fn before_step(session_name: &str) {
    let Some((stall, poison)) =
        with_plan(|p| (p.stall, p.panic_session.as_deref() == Some(session_name)))
    else {
        return;
    };
    if let Some(stall) = stall {
        std::thread::sleep(stall);
    }
    if poison {
        panic!("injected fault: session {session_name:?} panicked in its provider");
    }
}

/// Applies the armed plan's lane stall (if any) on the calling thread.
/// This is the step hook's stall half exposed for overload tests: a
/// provider closure that calls `stall()` makes every *sample* expensive,
/// which — unlike the lane-level `before_step` stall — lands inside the
/// engine's own stage clocks and therefore drives the telemetry budget's
/// shedding machinery. Zero cost while no plan is armed.
pub fn stall() {
    if let Some(Some(stall)) = with_plan(|p| p.stall) {
        std::thread::sleep(stall);
    }
}

/// Snapshot hook: damages a freshly serialized blob according to the
/// armed plan. Returns whether anything was changed.
pub(crate) fn mangle_snapshot(data: &mut Vec<u8>) -> bool {
    let Some((truncate, corrupt)) = with_plan(|p| (p.truncate_snapshot, p.corrupt_snapshot)) else {
        return false;
    };
    let mut mangled = false;
    if truncate && !data.is_empty() {
        data.truncate(data.len() / 2);
        mangled = true;
    }
    if corrupt && !data.is_empty() {
        // Flip a bit past the header so the damage lands in a payload
        // (checksummed) region whenever the blob has one.
        let at = data.len() / 2;
        data[at] ^= 0x10;
        mangled = true;
    }
    mangled
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_the_documented_directives() {
        let plan = FaultPlan::parse("panic-session=poison,stall-us=200,corrupt-snapshot").unwrap();
        assert_eq!(plan.panic_session.as_deref(), Some("poison"));
        assert_eq!(plan.stall, Some(Duration::from_micros(200)));
        assert!(plan.corrupt_snapshot);
        assert!(!plan.truncate_snapshot);
        assert_eq!(FaultPlan::parse(""), Some(FaultPlan::default()));
        assert!(FaultPlan::parse("unknown-fault").is_none());
        assert!(FaultPlan::parse("stall-us=abc").is_none());
    }

    #[test]
    fn mangle_is_a_noop_without_an_armed_plan() {
        // Relies on the suite not arming a global plan in parallel with
        // this test; the chaos harness and eviction tests arm/disarm
        // around their own sections.
        let mut data = vec![1u8, 2, 3, 4];
        let before = data.clone();
        if !armed() {
            assert!(!mangle_snapshot(&mut data));
            assert_eq!(data, before);
        }
    }
}
