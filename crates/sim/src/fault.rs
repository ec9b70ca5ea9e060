//! Deterministic DRAM fault injection.
//!
//! The paper evaluates on an ideal Max4 Maia memory system; real boards
//! exhibit latency jitter, bandwidth throttling windows, and transient
//! burst failures. [`FaultConfig`] models all three as *additive* penalties
//! on the [`crate::Dram`] channel so a faulted run is never faster than the
//! fault-free run of the same design, and every fault decision is drawn
//! from a seeded generator so the same seed reproduces the same
//! [`crate::SimReport`] bit-for-bit.
//!
//! The generator is the same xoshiro256++/SplitMix64 pair used by
//! `pphw-testkit` (`testkit` depends on this crate, so the few dozen lines
//! are mirrored here rather than imported; the streams agree bit-for-bit
//! for the same seed).

use crate::error::SimError;

/// Fault-injection parameters. `FaultConfig::none()` (the default) injects
/// nothing and makes `simulate_with_faults` take the exact code path of
/// the fault-free simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Seed for every fault decision; same seed ⇒ same report.
    pub seed: u64,
    /// Maximum extra request latency in cycles; each latency-bearing
    /// request draws a uniform jitter in `[0, max]`. `0` disables.
    pub latency_jitter_max: u64,
    /// Period of the bandwidth-degradation square wave, in cycles.
    pub degrade_period: u64,
    /// Leading portion of each period during which transfers are degraded,
    /// in cycles. `0` disables degradation.
    pub degrade_window: u64,
    /// Transfer-time multiplier inside a degradation window (`>= 1.0`;
    /// `1.0` disables).
    pub degrade_factor: f64,
    /// Probability that a burst transfer fails in transit and must be
    /// retried (`0.0` disables; must be `< 1.0`).
    pub burst_fail_rate: f64,
    /// Bound on retries per request; after this many failed attempts the
    /// final attempt is assumed to succeed (the channel never livelocks).
    pub max_retries: u32,
    /// Base backoff in cycles added before retry `k` as `backoff << k`.
    pub retry_backoff: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::none()
    }
}

impl FaultConfig {
    /// The inert configuration: nothing is injected.
    #[must_use]
    pub fn none() -> FaultConfig {
        FaultConfig {
            seed: 0,
            latency_jitter_max: 0,
            degrade_period: 0,
            degrade_window: 0,
            degrade_factor: 1.0,
            burst_fail_rate: 0.0,
            max_retries: 4,
            retry_backoff: 16,
        }
    }

    /// Sets the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the maximum latency jitter in cycles.
    #[must_use]
    pub fn with_latency_jitter(mut self, max_cycles: u64) -> Self {
        self.latency_jitter_max = max_cycles;
        self
    }

    /// Enables bandwidth degradation: transfers arriving in the first
    /// `window` cycles of every `period` take `factor` times as long.
    #[must_use]
    pub fn with_degradation(mut self, period: u64, window: u64, factor: f64) -> Self {
        self.degrade_period = period;
        self.degrade_window = window;
        self.degrade_factor = factor;
        self
    }

    /// Sets the transient burst-failure probability.
    #[must_use]
    pub fn with_burst_fail_rate(mut self, rate: f64) -> Self {
        self.burst_fail_rate = rate;
        self
    }

    /// Sets the retry bound and base backoff.
    #[must_use]
    pub fn with_retry(mut self, max_retries: u32, backoff_cycles: u64) -> Self {
        self.max_retries = max_retries;
        self.retry_backoff = backoff_cycles;
        self
    }

    /// `true` when this configuration injects nothing at all. An inert
    /// config makes the faulted simulator bit-identical to the fault-free
    /// one (no generator is even constructed).
    #[must_use]
    pub fn is_inert(&self) -> bool {
        self.latency_jitter_max == 0
            && (self.degrade_window == 0 || self.degrade_factor <= 1.0)
            && self.burst_fail_rate == 0.0
    }

    /// Rejects out-of-domain parameters.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidFaultConfig`] naming the offending field.
    pub fn validate(&self) -> Result<(), SimError> {
        if !self.burst_fail_rate.is_finite() || !(0.0..1.0).contains(&self.burst_fail_rate) {
            return Err(SimError::InvalidFaultConfig {
                field: "burst_fail_rate",
                value: format!("{}", self.burst_fail_rate),
                reason: "must be finite and in [0, 1)",
            });
        }
        if !self.degrade_factor.is_finite() || self.degrade_factor < 1.0 {
            return Err(SimError::InvalidFaultConfig {
                field: "degrade_factor",
                value: format!("{}", self.degrade_factor),
                reason: "must be finite and >= 1.0",
            });
        }
        if self.degrade_window > 0 && self.degrade_period < self.degrade_window {
            return Err(SimError::InvalidFaultConfig {
                field: "degrade_window",
                value: format!("{} (period {})", self.degrade_window, self.degrade_period),
                reason: "window must not exceed period",
            });
        }
        if self.burst_fail_rate > 0.0 && self.max_retries == 0 {
            return Err(SimError::InvalidFaultConfig {
                field: "max_retries",
                value: "0".into(),
                reason: "burst failures need at least one retry attempt",
            });
        }
        Ok(())
    }
}

/// Counters accumulated by the fault model during one run. All zeros for a
/// fault-free (or inert-config) run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultStats {
    /// Total extra latency cycles injected as jitter.
    pub jitter_cycles: u64,
    /// Requests whose transfer fell inside a degradation window.
    pub degraded_requests: u64,
    /// Total retried burst transfers.
    pub retries: u64,
    /// Total channel cycles spent on retransmissions and backoff.
    pub retry_cycles: f64,
}

/// One SplitMix64 step — the workspace's one copy: it seeds
/// [`Xoshiro256pp`] here, `pphw_testkit::rng` re-exports it for seeded
/// tests and workloads, `pphw_dse::model` ranks calibration samples with
/// it and the daemon's retry client draws backoff jitter from it.
#[must_use]
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seedable xoshiro256++ — the workspace's one generator core, seeded
/// through SplitMix64 as the xoshiro authors recommend. The fault model
/// draws from it directly; `pphw_testkit::rng::Rng` wraps it with range
/// sampling, so a fault schedule and a test input drawn from one seed see
/// one stream.
#[derive(Debug, Clone)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Creates a generator from a 64-bit seed (SplitMix64 expansion).
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Xoshiro256pp {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for w in &mut s {
            *w = splitmix64(sm);
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
        }
        // All-zero state is the one degenerate seed for xoshiro.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Xoshiro256pp { s }
    }

    /// The next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform f64 in `[0, 1)` (53 mantissa bits).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    pub(crate) fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Uniform in `[0, bound]` (inclusive), widening-multiply method.
    pub(crate) fn uniform_inclusive(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        ((u128::from(self.next_u64()) * (u128::from(bound) + 1)) >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    #[test]
    fn inert_detection() {
        assert!(FaultConfig::none().is_inert());
        assert!(FaultConfig::none().with_seed(99).is_inert());
        // A window with factor 1.0 injects nothing.
        assert!(FaultConfig::none()
            .with_degradation(1000, 100, 1.0)
            .is_inert());
        assert!(!FaultConfig::none().with_latency_jitter(8).is_inert());
        assert!(!FaultConfig::none()
            .with_degradation(1000, 100, 2.0)
            .is_inert());
        assert!(!FaultConfig::none().with_burst_fail_rate(0.01).is_inert());
    }

    #[test]
    fn validation_rejects_bad_fields() {
        assert!(FaultConfig::none().validate().is_ok());
        let bad_rate = FaultConfig::none().with_burst_fail_rate(1.0);
        assert!(matches!(
            bad_rate.validate(),
            Err(SimError::InvalidFaultConfig {
                field: "burst_fail_rate",
                ..
            })
        ));
        let nan_rate = FaultConfig::none().with_burst_fail_rate(f64::NAN);
        assert!(nan_rate.validate().is_err());
        let bad_factor = FaultConfig::none().with_degradation(100, 10, 0.5);
        assert!(matches!(
            bad_factor.validate(),
            Err(SimError::InvalidFaultConfig {
                field: "degrade_factor",
                ..
            })
        ));
        let bad_window = FaultConfig::none().with_degradation(10, 100, 2.0);
        assert!(matches!(
            bad_window.validate(),
            Err(SimError::InvalidFaultConfig {
                field: "degrade_window",
                ..
            })
        ));
        let no_retry = FaultConfig::none()
            .with_burst_fail_rate(0.1)
            .with_retry(0, 16);
        assert!(matches!(
            no_retry.validate(),
            Err(SimError::InvalidFaultConfig {
                field: "max_retries",
                ..
            })
        ));
    }

    #[test]
    fn rng_deterministic_and_seed_sensitive() {
        let mut r = Xoshiro256pp::seed_from_u64(42);
        let mut s = Xoshiro256pp::seed_from_u64(42);
        for _ in 0..64 {
            assert_eq!(r.next_u64(), s.next_u64());
        }
        let mut a = Xoshiro256pp::seed_from_u64(7);
        let mut b = Xoshiro256pp::seed_from_u64(8);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn uniform_inclusive_respects_bound() {
        let mut r = Xoshiro256pp::seed_from_u64(3);
        for _ in 0..1000 {
            assert!(r.uniform_inclusive(10) <= 10);
        }
        assert_eq!(r.uniform_inclusive(0), 0);
    }
}
