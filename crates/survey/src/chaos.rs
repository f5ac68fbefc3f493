//! Deterministic fault injection for the distributed campaign
//! protocol.
//!
//! [`ChaosTransport`] wraps any [`WorkerTransport`] or
//! [`ServeTransport`] and injects seeded SplitMix64 faults at every
//! protocol step: connection resets, dropped replies, duplicated
//! requests, delayed delivery, and truncated or bit-flipped frames.
//! Corruption faults are driven through the *real* CRC framing layer —
//! the frame is rendered, a seeded bit is flipped (or the frame cut
//! short), and [`crate::frame::decode_bytes`] must reject it; the
//! rejection is tallied so tests can assert that every injected flip
//! was caught. The chaos matrix test
//! (`crates/survey/tests/chaos_matrix.rs`) runs a full campaign with
//! every fault kind enabled on both ends of both transports and
//! requires the merged artifacts to be byte-identical to a fault-free
//! single-host run.
//!
//! Faults are injected *around* the inner transport, so the observable
//! failure modes are exactly what a real flaky network produces:
//!
//! * a reset or a corrupted request never reaches the coordinator
//!   (client side: a retryable error; server side: a [`Reply::Retry`]);
//! * a dropped or corrupted reply loses the answer to a request the
//!   coordinator *did* handle — the dangerous case for `Submit`, which
//!   the worker retry layer resolves by idempotent resend;
//! * a duplicated request reaches the coordinator twice (idempotence
//!   drill);
//! * a delay just arrives late.

use crate::frame::{self, WireCounters, WireStats};
use crate::transport::{Reply, Request, ServeTransport, WorkerTransport};
use crate::{Error, Result};
use gf2poly::SplitMix64;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Per-fault-kind injection rates (percent, 0–100) plus the RNG seed.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Seed of the fault-decision stream (each wrapped end should get
    /// its own seed; decisions are deterministic in call order).
    pub seed: u64,
    /// Connection reset / request lost before delivery (percent).
    pub reset_pct: u8,
    /// Reply dropped after the coordinator handled the request
    /// (percent).
    pub drop_reply_pct: u8,
    /// Request delivered twice (percent).
    pub duplicate_pct: u8,
    /// Delivery delayed (percent).
    pub delay_pct: u8,
    /// Maximum injected delay in milliseconds (uniform in
    /// `1..=delay_ms_max`).
    pub delay_ms_max: u64,
    /// One bit of the frame flipped in flight (percent; rolled
    /// independently for the request and reply legs).
    pub corrupt_pct: u8,
    /// Frame truncated in flight (percent; request and reply legs).
    pub truncate_pct: u8,
}

impl ChaosConfig {
    /// Every fault kind at the same rate — the chaos-matrix setting.
    pub fn all(seed: u64, pct: u8) -> ChaosConfig {
        ChaosConfig {
            seed,
            reset_pct: pct,
            drop_reply_pct: pct,
            duplicate_pct: pct,
            delay_pct: pct,
            delay_ms_max: 5,
            corrupt_pct: pct,
            truncate_pct: pct,
        }
    }
}

/// Cumulative injection (and detection) counts, shared across the
/// threads a chaos end serves.
#[derive(Debug, Default)]
pub struct ChaosTally {
    /// Connection resets / requests lost before delivery.
    pub resets: AtomicU64,
    /// Replies dropped after the request was handled.
    pub dropped_replies: AtomicU64,
    /// Requests delivered twice.
    pub duplicates: AtomicU64,
    /// Deliveries delayed.
    pub delays: AtomicU64,
    /// Frames with one bit flipped.
    pub corrupted: AtomicU64,
    /// Frames truncated.
    pub truncated: AtomicU64,
    /// Damaged frames the CRC framing layer rejected on verify-on-read
    /// (should equal `corrupted + truncated`: CRC-32 catches every
    /// single-bit flip and every truncation of this frame format).
    pub crc_rejections: AtomicU64,
}

/// A plain-value copy of [`ChaosTally`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Connection resets / requests lost before delivery.
    pub resets: u64,
    /// Replies dropped after the request was handled.
    pub dropped_replies: u64,
    /// Requests delivered twice.
    pub duplicates: u64,
    /// Deliveries delayed.
    pub delays: u64,
    /// Frames with one bit flipped.
    pub corrupted: u64,
    /// Frames truncated.
    pub truncated: u64,
    /// Damaged frames rejected by CRC verify-on-read.
    pub crc_rejections: u64,
}

impl ChaosStats {
    /// Total faults injected.
    pub fn injected(&self) -> u64 {
        self.resets
            + self.dropped_replies
            + self.duplicates
            + self.delays
            + self.corrupted
            + self.truncated
    }
}

impl ChaosTally {
    fn bump(&self, field: &AtomicU64) {
        field.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> ChaosStats {
        ChaosStats {
            resets: self.resets.load(Ordering::Relaxed),
            dropped_replies: self.dropped_replies.load(Ordering::Relaxed),
            duplicates: self.duplicates.load(Ordering::Relaxed),
            delays: self.delays.load(Ordering::Relaxed),
            corrupted: self.corrupted.load(Ordering::Relaxed),
            truncated: self.truncated.load(Ordering::Relaxed),
            crc_rejections: self.crc_rejections.load(Ordering::Relaxed),
        }
    }
}

/// Rolls one percent-probability fault decision off the seeded stream.
fn roll(rng: &mut SplitMix64, pct: u8) -> bool {
    pct > 0 && rng.next_below(100) < u64::from(pct)
}

/// Flips one seeded bit of a rendered frame.
fn flip_one_bit(line: &str, rng: &mut SplitMix64) -> Vec<u8> {
    let mut bytes = line.as_bytes().to_vec();
    let i = rng.next_below(bytes.len() as u64) as usize;
    let bit = rng.next_below(8) as u32;
    bytes[i] ^= 1u8 << bit;
    bytes
}

/// Cuts a rendered frame short at a seeded point (always at least one
/// byte shorter).
fn truncate_frame(line: &str, rng: &mut SplitMix64) -> Vec<u8> {
    let cut = rng.next_below(line.len() as u64) as usize;
    line.as_bytes()[..cut].to_vec()
}

/// Runs a rendered frame through damage + the real verify-on-read path
/// and records the detection. Returns `true` when the CRC layer
/// rejected the damage (the overwhelmingly common case; a surviving
/// frame is delivered untouched upstream, which is exactly what an
/// undetected corruption of a *verified* field-free protocol would
/// look like).
fn damaged_frame_rejected(
    payload: &str,
    truncate: bool,
    rng: &mut SplitMix64,
    tally: &ChaosTally,
    wire: &WireCounters,
) -> bool {
    let framed = frame::encode(payload);
    let mangled = if truncate {
        tally.bump(&tally.truncated);
        truncate_frame(&framed, rng)
    } else {
        tally.bump(&tally.corrupted);
        flip_one_bit(&framed, rng)
    };
    wire.count_chaos();
    if frame::decode_bytes(&mangled).is_err() {
        tally.bump(&tally.crc_rejections);
        wire.count_rejected();
        true
    } else {
        false
    }
}

/// A fault-injecting wrapper around either end of a transport.
///
/// Wrap a worker's client to shake the request path, a coordinator's
/// server to shake the reply path, or both at once (with different
/// seeds) for the full matrix.
#[derive(Debug)]
pub struct ChaosTransport<T> {
    inner: T,
    cfg: ChaosConfig,
    rng: SplitMix64,
    tally: Arc<ChaosTally>,
    wire: Arc<WireCounters>,
}

impl<T> ChaosTransport<T> {
    /// Wraps `inner` with the fault plan in `cfg`.
    pub fn new(inner: T, cfg: ChaosConfig) -> ChaosTransport<T> {
        ChaosTransport {
            inner,
            cfg,
            rng: SplitMix64::new(cfg.seed),
            tally: Arc::new(ChaosTally::default()),
            wire: Arc::new(WireCounters::default()),
        }
    }

    /// The injection/detection tallies (cloneable handle; stays valid
    /// while worker threads drive the transport).
    pub fn tally(&self) -> Arc<ChaosTally> {
        Arc::clone(&self.tally)
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }
}

impl<T: WorkerTransport> WorkerTransport for ChaosTransport<T> {
    fn call(&mut self, req: &Request) -> Result<Reply> {
        // Request leg: faults that keep the request from arriving.
        if roll(&mut self.rng, self.cfg.reset_pct) {
            self.tally.bump(&self.tally.resets);
            self.wire.count_chaos();
            return Err(Error::Io(
                "chaos: connection reset before the request was delivered".into(),
            ));
        }
        for truncate in [false, true] {
            let pct = if truncate {
                self.cfg.truncate_pct
            } else {
                self.cfg.corrupt_pct
            };
            if roll(&mut self.rng, pct)
                && damaged_frame_rejected(
                    &req.to_json().render_compact(),
                    truncate,
                    &mut self.rng,
                    &self.tally,
                    &self.wire,
                )
            {
                // The (emulated) server rejected the damaged frame; a
                // real server would answer Retry or drop. Surface the
                // retryable class directly.
                return Err(Error::Frame(
                    "chaos: request frame damaged in flight (CRC rejected)".into(),
                ));
            }
        }
        if roll(&mut self.rng, self.cfg.duplicate_pct) {
            self.tally.bump(&self.tally.duplicates);
            self.wire.count_chaos();
            let _ = self.inner.call(req);
        }
        if roll(&mut self.rng, self.cfg.delay_pct) {
            self.tally.bump(&self.tally.delays);
            self.wire.count_chaos();
            let ms = 1 + self.rng.next_below(self.cfg.delay_ms_max.max(1));
            std::thread::sleep(Duration::from_millis(ms));
        }
        let reply = self.inner.call(req)?;
        // Reply leg: the coordinator handled the request, but the
        // answer never (cleanly) arrives.
        if roll(&mut self.rng, self.cfg.drop_reply_pct) {
            self.tally.bump(&self.tally.dropped_replies);
            self.wire.count_chaos();
            return Err(Error::Io("chaos: reply dropped in flight".into()));
        }
        for truncate in [false, true] {
            let pct = if truncate {
                self.cfg.truncate_pct
            } else {
                self.cfg.corrupt_pct
            };
            if roll(&mut self.rng, pct)
                && damaged_frame_rejected(
                    &reply.to_json().render_compact(),
                    truncate,
                    &mut self.rng,
                    &self.tally,
                    &self.wire,
                )
            {
                return Err(Error::Frame(
                    "chaos: reply frame damaged in flight (CRC rejected)".into(),
                ));
            }
        }
        Ok(reply)
    }

    fn wire_stats(&self) -> WireStats {
        self.inner.wire_stats().merged(self.wire.snapshot())
    }
}

impl<T: ServeTransport> ServeTransport for ChaosTransport<T> {
    fn serve_one(&mut self, handler: &mut dyn FnMut(Request) -> Reply) -> Result<bool> {
        let cfg = self.cfg;
        let rng = &mut self.rng;
        let tally = &self.tally;
        let wire = &self.wire;
        self.inner.serve_one(&mut |req| {
            // Request leg: the frame never (cleanly) reaches the
            // coordinator. The transport already attributed the sender,
            // so answer with the retryable signal a real server sends
            // for damaged traffic.
            if roll(rng, cfg.reset_pct) {
                tally.bump(&tally.resets);
                wire.count_chaos();
                wire.count_retry();
                return Reply::Retry {
                    reason: "chaos: request dropped before handling".into(),
                };
            }
            for truncate in [false, true] {
                let pct = if truncate {
                    cfg.truncate_pct
                } else {
                    cfg.corrupt_pct
                };
                if roll(rng, pct)
                    && damaged_frame_rejected(
                        &req.to_json().render_compact(),
                        truncate,
                        rng,
                        tally,
                        wire,
                    )
                {
                    wire.count_retry();
                    return Reply::Retry {
                        reason: "chaos: request frame damaged in flight (CRC rejected)".into(),
                    };
                }
            }
            if roll(rng, cfg.delay_pct) {
                tally.bump(&tally.delays);
                wire.count_chaos();
                let ms = 1 + rng.next_below(cfg.delay_ms_max.max(1));
                std::thread::sleep(Duration::from_millis(ms));
            }
            let reply = handler(req.clone());
            if roll(rng, cfg.duplicate_pct) {
                // Duplicated delivery: the coordinator handles the same
                // request again; the extra reply goes nowhere.
                tally.bump(&tally.duplicates);
                wire.count_chaos();
                let _ = handler(req);
            }
            // Reply leg: the coordinator's state already changed, but
            // the client only learns "resend" — the idempotence drill.
            if roll(rng, cfg.drop_reply_pct) {
                tally.bump(&tally.dropped_replies);
                wire.count_chaos();
                wire.count_retry();
                return Reply::Retry {
                    reason: "chaos: reply lost after handling".into(),
                };
            }
            for truncate in [false, true] {
                let pct = if truncate {
                    cfg.truncate_pct
                } else {
                    cfg.corrupt_pct
                };
                if roll(rng, pct)
                    && damaged_frame_rejected(
                        &reply.to_json().render_compact(),
                        truncate,
                        rng,
                        tally,
                        wire,
                    )
                {
                    wire.count_retry();
                    return Reply::Retry {
                        reason: "chaos: reply frame damaged in flight (CRC rejected)".into(),
                    };
                }
            }
            reply
        })
    }

    fn finish(&mut self) -> Result<()> {
        self.inner.finish()
    }

    fn wire_stats(&self) -> WireStats {
        self.inner.wire_stats().merged(self.wire.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A loopback transport whose handler is a fixed echo.
    struct Loopback {
        calls: u64,
    }

    impl WorkerTransport for Loopback {
        fn call(&mut self, _req: &Request) -> Result<Reply> {
            self.calls += 1;
            Ok(Reply::Wait { backoff_ms: 1 })
        }
    }

    #[test]
    fn chaos_decisions_are_deterministic_in_seed() {
        let run = |seed: u64| {
            let mut t = ChaosTransport::new(Loopback { calls: 0 }, ChaosConfig::all(seed, 25));
            let req = Request::Lease {
                worker: "w1".into(),
            };
            let outcomes: Vec<bool> = (0..200).map(|_| t.call(&req).is_ok()).collect();
            (outcomes, t.tally().snapshot())
        };
        let (a, sa) = run(42);
        let (b, sb) = run(42);
        assert_eq!(a, b, "same seed, same fault schedule");
        assert_eq!(sa, sb);
        let (c, _) = run(43);
        assert_ne!(a, c, "different seed, different schedule");
    }

    #[test]
    fn injected_corruption_is_always_caught() {
        let cfg = ChaosConfig {
            seed: 7,
            reset_pct: 0,
            drop_reply_pct: 0,
            duplicate_pct: 0,
            delay_pct: 0,
            delay_ms_max: 1,
            corrupt_pct: 50,
            truncate_pct: 50,
        };
        let mut t = ChaosTransport::new(Loopback { calls: 0 }, cfg);
        let req = Request::Hello {
            worker: "w1".into(),
        };
        for _ in 0..500 {
            let _ = t.call(&req);
        }
        let s = t.tally().snapshot();
        assert!(s.corrupted > 0 && s.truncated > 0, "faults were injected");
        assert_eq!(
            s.crc_rejections,
            s.corrupted + s.truncated,
            "every injected flip/truncation must be rejected by the CRC layer"
        );
    }

    #[test]
    fn zero_rates_are_transparent() {
        let mut t = ChaosTransport::new(Loopback { calls: 0 }, ChaosConfig::all(1, 0));
        let req = Request::Lease {
            worker: "w1".into(),
        };
        for _ in 0..50 {
            assert_eq!(t.call(&req).unwrap(), Reply::Wait { backoff_ms: 1 });
        }
        assert_eq!(t.inner().calls, 50);
        assert_eq!(t.tally().snapshot().injected(), 0);
    }
}
