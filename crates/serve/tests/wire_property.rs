//! Fuzz-style property tests of the wire codec: every frame kind
//! round-trips bit-exactly through encode/decode under randomized
//! content, and truncated, bit-flipped, or oversized inputs are rejected
//! with errors — never panics, never runaway allocations.
//!
//! Same discipline as the workspace-level `property_invariants.rs`: a
//! deterministic xorshift64* PRNG with fixed seeds, so every run checks
//! the identical case set without a `proptest` dependency.

use insitu::collect::{PredictorLayout, Retention};
use insitu::extract::{BreakpointResult, DelayTimeResult, FeatureKind, OutlierReport};
use insitu::model::{ConvergenceCriteria, OptimizerKind, TrainerConfig};
use insitu::region::FeatureValue;
use insitu::IterParam;
use serve::wire::{read_frame, ErrorCode, Frame, SessionSpec, SessionStatus, WireError};

const CASES: u64 = 64;

/// xorshift64* — deterministic, dependency-free case generator.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(2685821657736338717).max(1))
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(2685821657736338717)
    }

    fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi);
        lo + self.next_u64() % (hi - lo)
    }

    fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range_u64(lo as u64, hi as u64) as usize
    }

    fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + unit * (hi - lo)
    }

    fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    fn opt_f64(&mut self) -> Option<f64> {
        self.bool().then(|| self.range_f64(-10.0, 10.0))
    }

    fn name(&mut self) -> String {
        let len = self.range_usize(0, 24);
        (0..len)
            .map(|_| char::from(b'a' + (self.next_u64() % 26) as u8))
            .collect()
    }
}

fn random_feature(rng: &mut Rng) -> FeatureValue {
    match rng.range_u64(0, 3) {
        0 => FeatureValue::Breakpoint(BreakpointResult {
            threshold_value: rng.range_f64(0.0, 1.0),
            radius: rng.range_usize(0, 4096),
            bounded: rng.bool(),
        }),
        1 => FeatureValue::DelayTime(DelayTimeResult {
            delay_time: rng.range_f64(0.0, 1e4),
            index: rng.range_usize(0, 4096),
            value: rng.range_f64(-1e6, 1e6),
            gradient_drop: rng.range_f64(0.0, 1.0),
        }),
        _ => FeatureValue::Outliers(OutlierReport {
            threshold: rng.range_f64(0.5, 4.0),
            outliers: (0..rng.range_usize(0, 12))
                .map(|_| (rng.range_usize(0, 4096), rng.range_f64(-10.0, 10.0)))
                .collect(),
            inspected: rng.range_usize(0, 1 << 20),
        }),
    }
}

fn random_spec(rng: &mut Rng) -> SessionSpec {
    let begin = rng.range_u64(0, 100);
    let spatial = IterParam::new(
        begin,
        begin + rng.range_u64(0, 500),
        1 + rng.range_u64(0, 4),
    )
    .expect("valid spatial");
    let t0 = rng.range_u64(0, 100);
    let temporal =
        IterParam::new(t0, t0 + rng.range_u64(0, 5000), 1 + rng.range_u64(0, 4)).expect("valid");
    SessionSpec {
        name: rng.name(),
        spatial,
        temporal,
        layout: match rng.range_u64(0, 3) {
            0 => PredictorLayout::SpatioTemporal,
            1 => PredictorLayout::Temporal,
            _ => PredictorLayout::Spatial,
        },
        feature: match rng.range_u64(0, 3) {
            0 => FeatureKind::Breakpoint {
                threshold: rng.range_f64(0.01, 1.0),
            },
            1 => FeatureKind::DelayTime,
            _ => FeatureKind::Outliers {
                threshold: rng.range_f64(0.5, 4.0),
            },
        },
        lag: rng.range_u64(0, 500),
        batch_capacity: rng.range_usize(1, 256),
        trainer: TrainerConfig {
            order: rng.range_usize(1, 12),
            optimizer: match rng.range_u64(0, 3) {
                0 => OptimizerKind::Sgd {
                    learning_rate: rng.range_f64(1e-4, 0.5),
                },
                1 => OptimizerKind::Momentum {
                    learning_rate: rng.range_f64(1e-4, 0.5),
                    beta: rng.range_f64(0.0, 0.999),
                },
                _ => OptimizerKind::Adagrad {
                    learning_rate: rng.range_f64(1e-4, 0.5),
                },
            },
            epochs_per_batch: rng.range_usize(1, 8),
            convergence: ConvergenceCriteria {
                loss_threshold: rng.range_f64(1e-8, 1e-2),
                patience: rng.range_usize(1, 10),
                max_batches: rng.range_usize(1, 1000),
            },
        },
        retention: if rng.bool() {
            Retention::Full
        } else {
            Retention::Window(rng.range_usize(1, 512))
        },
    }
}

fn random_frame(rng: &mut Rng) -> Frame {
    match rng.range_u64(0, 17) {
        0 => Frame::OpenSession(random_spec(rng)),
        1 => {
            let count = rng.range_usize(0, 200);
            Frame::StepSamples {
                session: rng.next_u64(),
                iteration: rng.range_u64(0, 1 << 32),
                locations: (0..count).map(|_| rng.range_u64(0, 1 << 20)).collect(),
                values: (0..count).map(|_| rng.range_f64(-1e9, 1e9)).collect(),
            }
        }
        2 => Frame::Extract {
            session: rng.next_u64(),
        },
        3 => Frame::Features {
            session: rng.next_u64(),
        },
        4 => Frame::Poll {
            session: rng.next_u64(),
        },
        5 => Frame::CloseSession {
            session: rng.next_u64(),
        },
        6 => Frame::SessionOpened {
            session: rng.next_u64(),
        },
        7 => Frame::StepAck {
            session: rng.next_u64(),
            iteration: rng.range_u64(0, 1 << 32),
            samples: rng.range_u64(0, 1 << 20),
            batches_trained: rng.range_u64(0, 1 << 20),
        },
        8 => Frame::FeatureReport {
            session: rng.next_u64(),
            features: (0..rng.range_usize(0, 6))
                .map(|_| (rng.name(), random_feature(rng)))
                .collect(),
        },
        9 => Frame::Status {
            session: rng.next_u64(),
            status: SessionStatus {
                iteration: rng.range_u64(0, 1 << 32),
                samples_collected: rng.range_u64(0, 1 << 32),
                batches_trained: rng.range_u64(0, 1 << 20),
                last_loss: rng.opt_f64(),
                converged: rng.bool(),
                should_terminate: rng.bool(),
                front_location: rng.bool().then(|| rng.range_u64(0, 1 << 20)),
                predicted_value: rng.opt_f64(),
            },
        },
        10 => Frame::Busy {
            session: rng.next_u64(),
            depth: rng.range_u64(1, 1 << 16) as u32,
        },
        11 => Frame::Closed {
            session: rng.next_u64(),
        },
        12 => Frame::Subscribe {
            session: rng.next_u64(),
        },
        13 => Frame::Unsubscribe {
            session: rng.next_u64(),
        },
        14 => Frame::SubscriptionAck {
            session: rng.next_u64(),
            subscribed: rng.bool(),
        },
        15 => Frame::FeatureEvent {
            session: rng.next_u64(),
            iteration: rng.range_u64(0, 1 << 32),
            features: (0..rng.range_usize(0, 6))
                .map(|_| (rng.name(), random_feature(rng)))
                .collect(),
        },
        _ => Frame::ErrorReply {
            session: rng.next_u64(),
            code: match rng.range_u64(0, 4) {
                0 => ErrorCode::UnknownSession,
                1 => ErrorCode::BadSpec,
                2 => ErrorCode::Protocol,
                _ => ErrorCode::Internal,
            },
            message: rng.name(),
        },
    }
}

#[test]
fn every_frame_round_trips_under_randomized_content() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed + 1);
        for _ in 0..8 {
            let frame = random_frame(&mut rng);
            let mut buf = Vec::new();
            frame.encode(&mut buf);
            let decoded = Frame::decode(&buf[4..])
                .unwrap_or_else(|e| panic!("seed {seed}: decode failed: {e} for {frame:?}"));
            assert_eq!(decoded, frame, "seed {seed}");
            // And through the stream reader, including the length prefix.
            let mut scratch = Vec::new();
            let streamed = read_frame(&mut buf.as_slice(), &mut scratch)
                .expect("stream decode")
                .expect("one frame");
            assert_eq!(streamed, frame, "seed {seed}");
        }
    }
}

#[test]
fn truncation_at_every_boundary_errors_without_panicking() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed + 101);
        let frame = random_frame(&mut rng);
        let mut buf = Vec::new();
        frame.encode(&mut buf);
        let body = &buf[4..];
        // Every strict prefix of the body must be rejected (the codec is
        // prefix-free per kind), and must never panic.
        for cut in 0..body.len() {
            assert!(
                Frame::decode(&body[..cut]).is_err(),
                "seed {seed}: truncation to {cut}/{} bytes decoded",
                body.len()
            );
        }
        // A truncated stream is Truncated, not a clean EOF.
        for cut in 1..buf.len().min(24) {
            let mut scratch = Vec::new();
            let result = read_frame(&mut &buf[..cut], &mut scratch);
            assert!(
                matches!(
                    result,
                    Err(WireError::Truncated | WireError::Oversized { .. })
                ),
                "seed {seed}: cut {cut} gave {result:?}"
            );
        }
    }
}

#[test]
fn random_byte_flips_never_panic_and_trailing_bytes_are_rejected() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed + 211);
        let frame = random_frame(&mut rng);
        let mut buf = Vec::new();
        frame.encode(&mut buf);
        for _ in 0..16 {
            let mut corrupt = buf[4..].to_vec();
            let at = rng.range_usize(0, corrupt.len());
            corrupt[at] ^= 1 << rng.range_u64(0, 8);
            // A flip may still decode (e.g. a session-id bit); it must
            // simply never panic or hang.
            let _ = Frame::decode(&corrupt);
        }
        let mut padded = buf[4..].to_vec();
        padded.push(rng.next_u64() as u8);
        assert!(
            Frame::decode(&padded).is_err(),
            "seed {seed}: trailing byte accepted"
        );
    }
}

#[test]
fn corrupt_length_prefixes_cannot_trigger_huge_allocations() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed + 307);
        // Arbitrary oversized lengths (up to u32::MAX) must be rejected
        // before any allocation, including absurd element counts inside an
        // otherwise well-framed body.
        let len = rng.range_u64(
            u64::from(serve::wire::MAX_FRAME_LEN) + 1,
            u64::from(u32::MAX),
        ) as u32;
        let mut stream = Vec::from(len.to_le_bytes());
        stream.extend_from_slice(&[0u8; 16]);
        let mut scratch = Vec::new();
        assert!(matches!(
            read_frame(&mut stream.as_slice(), &mut scratch),
            Err(WireError::Oversized { .. })
        ));

        // A StepSamples body whose count field promises ~4 billion
        // elements in a tiny payload: rejected by the remaining-bytes
        // guard, no allocation attempted.
        let mut body = vec![0x02u8];
        body.extend_from_slice(&rng.next_u64().to_le_bytes());
        body.extend_from_slice(&rng.next_u64().to_le_bytes());
        body.extend_from_slice(&(rng.range_u64(1 << 24, 1 << 32) as u32).to_le_bytes());
        assert!(matches!(
            Frame::decode(&body),
            Err(WireError::Truncated | WireError::Malformed(_))
        ));
    }
}

#[test]
fn garbage_streams_error_cleanly() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed + 401);
        let len = rng.range_usize(0, 256);
        let garbage: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let mut scratch = Vec::new();
        // Reading a garbage stream must terminate with Ok(None) (empty),
        // an error, or a decoded frame (if the bytes happen to parse) —
        // never a panic; decode of the raw bytes likewise.
        let _ = read_frame(&mut garbage.as_slice(), &mut scratch);
        let _ = Frame::decode(&garbage);
    }
}
