//! DRAM channel model.

use pphw_hw::design::DramStream;

use crate::error::SimError;
use crate::fault::{FaultConfig, FaultStats, Xoshiro256pp};

/// Simulation parameters (defaults match the paper's Max4 Maia board).
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Fabric clock in MHz.
    pub clock_mhz: f64,
    /// Peak DRAM bandwidth in GB/s.
    pub dram_gbps: f64,
    /// Request-to-first-data latency in fabric cycles.
    pub dram_latency: u64,
    /// DRAM burst size in bytes.
    pub burst_bytes: u64,
    /// Word size in bytes.
    pub word_bytes: u64,
    /// Per-burst request turnaround for synchronous (non-prefetched)
    /// streams, in cycles — the cost of not keeping outstanding requests.
    pub sync_gap: u64,
    /// Watchdog budget on simulated cycles: a run whose clock passes this
    /// bound aborts with [`SimError::BudgetExceeded`] instead of hanging
    /// or overflowing the `f64`-to-`u64` cycle conversion. The default is
    /// `2^53`, the largest cycle count `f64` still counts exactly.
    pub cycle_budget: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            clock_mhz: 150.0,
            dram_gbps: 76.8,
            dram_latency: 60,
            burst_bytes: 384,
            word_bytes: 4,
            sync_gap: 6,
            cycle_budget: 1 << 53,
        }
    }
}

impl SimConfig {
    /// Channel bandwidth in bytes per fabric cycle.
    pub fn bytes_per_cycle(&self) -> f64 {
        self.dram_gbps * 1e9 / (self.clock_mhz * 1e6)
    }

    /// Converts a cycle count to seconds.
    pub fn cycles_to_seconds(&self, cycles: f64) -> f64 {
        cycles / (self.clock_mhz * 1e6)
    }

    /// Sets the fabric clock.
    #[must_use]
    pub fn with_clock_mhz(mut self, mhz: f64) -> Self {
        self.clock_mhz = mhz;
        self
    }

    /// Sets the peak DRAM bandwidth.
    #[must_use]
    pub fn with_dram_gbps(mut self, gbps: f64) -> Self {
        self.dram_gbps = gbps;
        self
    }

    /// Sets the request-to-first-data latency.
    #[must_use]
    pub fn with_dram_latency(mut self, cycles: u64) -> Self {
        self.dram_latency = cycles;
        self
    }

    /// Sets the DRAM burst size.
    #[must_use]
    pub fn with_burst_bytes(mut self, bytes: u64) -> Self {
        self.burst_bytes = bytes;
        self
    }

    /// Sets the watchdog cycle budget.
    #[must_use]
    pub fn with_cycle_budget(mut self, cycles: u64) -> Self {
        self.cycle_budget = cycles;
        self
    }

    /// Rejects out-of-domain parameters before they can produce NaN
    /// timings, divide-by-zero bandwidth, or wrapped cycle counts.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<(), SimError> {
        if !self.clock_mhz.is_finite() || self.clock_mhz <= 0.0 {
            return Err(SimError::InvalidConfig {
                field: "clock_mhz",
                value: format!("{}", self.clock_mhz),
                reason: "must be finite and > 0",
            });
        }
        if !self.dram_gbps.is_finite() || self.dram_gbps <= 0.0 {
            return Err(SimError::InvalidConfig {
                field: "dram_gbps",
                value: format!("{}", self.dram_gbps),
                reason: "must be finite and > 0",
            });
        }
        if self.word_bytes == 0 {
            return Err(SimError::InvalidConfig {
                field: "word_bytes",
                value: "0".into(),
                reason: "must be > 0",
            });
        }
        if self.burst_bytes < self.word_bytes {
            return Err(SimError::InvalidConfig {
                field: "burst_bytes",
                value: format!("{} (word_bytes {})", self.burst_bytes, self.word_bytes),
                reason: "burst must hold at least one word",
            });
        }
        if self.cycle_budget == 0 {
            return Err(SimError::InvalidConfig {
                field: "cycle_budget",
                value: "0".into(),
                reason: "must be > 0",
            });
        }
        if !self.bytes_per_cycle().is_finite() || self.bytes_per_cycle() <= 0.0 {
            return Err(SimError::InvalidConfig {
                field: "dram_gbps/clock_mhz",
                value: format!("{}", self.bytes_per_cycle()),
                reason: "bandwidth per cycle must be finite and > 0",
            });
        }
        Ok(())
    }

    /// A stable, canonical identity string for this configuration — every
    /// field, with floats rendered via their bit pattern so two configs
    /// hash equal iff they simulate identically. Used as a cache-key
    /// component by the design-space explorer.
    #[must_use]
    pub fn canonical_key(&self) -> String {
        format!(
            "clk={:016x},bw={:016x},lat={},burst={},word={},gap={},budget={}",
            self.clock_mhz.to_bits(),
            self.dram_gbps.to_bits(),
            self.dram_latency,
            self.burst_bytes,
            self.word_bytes,
            self.sync_gap,
            self.cycle_budget
        )
    }

    /// Named substrate variants worth sweeping in design-space exploration
    /// and differential timing checks: the paper's Max4 Maia board, a
    /// faster-fabric build, and a bandwidth-starved board.
    #[must_use]
    pub fn named_variants() -> Vec<(&'static str, SimConfig)> {
        vec![
            ("max4", SimConfig::default()),
            ("fast-clock", SimConfig::default().with_clock_mhz(200.0)),
            ("low-bw", SimConfig::default().with_dram_gbps(38.4)),
        ]
    }
}

/// The shared DRAM channel.
///
/// Busy time is tracked as a sorted list of occupied intervals; a request
/// is placed into the earliest gap at or after its arrival that fits its
/// transfer. This keeps the model robust to the simulator visiting
/// overlapped metapipeline stages out of timestamp order (a small store
/// simulated "later" must not push an earlier tile load backwards).
#[derive(Debug)]
pub struct Dram<'a> {
    cfg: &'a SimConfig,
    /// Sorted, disjoint busy intervals (recent window only), kept
    /// canonical: no neighboring pair within merging distance.
    busy: Vec<(f64, f64)>,
    /// Requests earlier than this start no earlier than here (intervals
    /// before the window have been pruned).
    floor: f64,
    /// Total bytes moved over the channel (including burst padding).
    pub bytes_moved: f64,
    /// Total useful words requested.
    pub words_requested: u64,
    /// Fault injection, when active. `None` (the fault-free and
    /// inert-config case) takes the identical code path as before faults
    /// existed, so zero-fault runs are bit-identical.
    faults: Option<FaultState>,
}

/// Live fault-injection state: the configuration, the seeded generator
/// drawing every fault decision, and the accumulated counters.
#[derive(Debug)]
struct FaultState {
    cfg: FaultConfig,
    rng: Xoshiro256pp,
    stats: FaultStats,
}

impl<'a> Dram<'a> {
    /// Creates a fault-free channel borrowing the caller's configuration
    /// for its whole lifetime (one simulation run), instead of cloning it
    /// per call.
    pub fn new(cfg: &'a SimConfig) -> Self {
        Dram {
            cfg,
            busy: Vec::new(),
            floor: 0.0,
            bytes_moved: 0.0,
            words_requested: 0,
            faults: None,
        }
    }

    /// Creates a channel with fault injection. An inert fault config is
    /// dropped entirely so the run is bit-identical to [`Dram::new`].
    pub fn with_faults(cfg: &'a SimConfig, faults: &FaultConfig) -> Self {
        let mut d = Dram::new(cfg);
        if !faults.is_inert() {
            d.faults = Some(FaultState {
                cfg: faults.clone(),
                rng: Xoshiro256pp::seed_from_u64(faults.seed),
                stats: FaultStats::default(),
            });
        }
        d
    }

    /// Access to the configuration.
    pub fn config(&self) -> &SimConfig {
        self.cfg
    }

    /// The fault counters accumulated so far (all zeros when fault
    /// injection is off).
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.as_ref().map(|f| f.stats).unwrap_or_default()
    }

    /// Applies the fault model to one request: possibly stretches the
    /// transfer (degradation window, burst retries with exponential
    /// backoff) and returns extra request latency (jitter). Every decision
    /// comes from the seeded generator in call order, so runs are
    /// reproducible; every penalty is additive, so a faulted run is never
    /// faster than the fault-free one.
    fn apply_faults(&mut self, at: f64, transfer: &mut f64, bytes: f64, jittered: bool) -> f64 {
        let Some(fs) = self.faults.as_mut() else {
            return 0.0;
        };
        if fs.cfg.degrade_window > 0 && fs.cfg.degrade_factor > 1.0 && fs.cfg.degrade_period > 0 {
            let phase = (at.max(0.0) as u64) % fs.cfg.degrade_period;
            if phase < fs.cfg.degrade_window {
                *transfer *= fs.cfg.degrade_factor;
                fs.stats.degraded_requests += 1;
            }
        }
        if fs.cfg.burst_fail_rate > 0.0 {
            let base = *transfer;
            for attempt in 0..fs.cfg.max_retries {
                if !fs.rng.gen_bool(fs.cfg.burst_fail_rate) {
                    break;
                }
                let backoff = fs.cfg.retry_backoff.saturating_mul(1 << attempt.min(31)) as f64;
                *transfer += base + backoff;
                self.bytes_moved += bytes;
                fs.stats.retries += 1;
                fs.stats.retry_cycles += base + backoff;
            }
        }
        if jittered && fs.cfg.latency_jitter_max > 0 {
            let j = fs.rng.uniform_inclusive(fs.cfg.latency_jitter_max);
            fs.stats.jitter_cycles += j;
            j as f64
        } else {
            0.0
        }
    }

    /// Reserves `duration` cycles of channel time starting no earlier than
    /// `at`; returns the reservation start.
    ///
    /// The busy list is kept *canonical* — sorted, disjoint, with no
    /// neighboring pair within merging distance — so a reservation only
    /// ever merges with its immediate predecessor and/or a chain of
    /// successors. That makes the update local (a splice around the
    /// insertion point) instead of a full-list rebuild per request, with
    /// bit-identical results.
    fn reserve(&mut self, at: f64, duration: f64) -> f64 {
        // Find the first gap that fits. Intervals ending at or before `t`
        // cannot matter, and ends are sorted, so binary-search past them.
        let mut t = at.max(self.floor);
        let first = self.busy.partition_point(|&(_, e)| e <= t);
        let mut insert_pos = self.busy.len();
        for (i, &(s, e)) in self.busy.iter().enumerate().skip(first) {
            if e <= t {
                continue;
            }
            if s >= t + duration {
                insert_pos = i;
                break;
            }
            // Overlaps the candidate slot: move past this interval.
            t = t.max(e);
        }
        if insert_pos == self.busy.len() {
            insert_pos = self.busy.partition_point(|&(s, _)| s < t);
        }
        // Splice in the reservation, merging neighbors locally.
        let mut new_s = t;
        let mut new_e = t + duration;
        let mut lo = insert_pos;
        if insert_pos > 0 && new_s <= self.busy[insert_pos - 1].1 + 1e-9 {
            lo = insert_pos - 1;
            new_s = self.busy[lo].0;
            new_e = new_e.max(self.busy[lo].1);
        }
        let mut hi = insert_pos;
        while hi < self.busy.len() && self.busy[hi].0 <= new_e + 1e-9 {
            new_e = new_e.max(self.busy[hi].1);
            hi += 1;
        }
        if lo == hi {
            self.busy.insert(lo, (new_s, new_e));
        } else {
            self.busy[lo] = (new_s, new_e);
            if hi > lo + 1 {
                self.busy.drain(lo + 1..hi);
            }
        }
        // Bound the window: the simulator's out-of-order issue distance is
        // one metapipeline iteration, so distant history can be pruned.
        const MAX_INTERVALS: usize = 512;
        if self.busy.len() > MAX_INTERVALS {
            let cut = self.busy.len() - MAX_INTERVALS;
            self.floor = self.floor.max(self.busy[cut - 1].1);
            self.busy.drain(..cut);
        }
        t
    }

    /// Issues a stream at time `at` (cycles); returns its completion time.
    ///
    /// Transfer time is burst-quantized: each contiguous run moves
    /// `ceil(run_bytes / burst) * burst` bytes over the channel. Prefetched
    /// streams pay the request latency once; synchronous streams pay a
    /// per-burst turnaround gap, modeling a design that only issues the
    /// next request after consuming the previous burst.
    pub fn request(&mut self, at: f64, stream: &DramStream) -> f64 {
        if stream.words == 0 {
            return at;
        }
        let run = stream.run_words.max(1);
        let runs = stream.words.div_ceil(run);
        let run_bytes = run * self.cfg.word_bytes;
        let bursts_per_run = run_bytes.div_ceil(self.cfg.burst_bytes);
        let total_bursts = runs * bursts_per_run;
        let bytes = (total_bursts * self.cfg.burst_bytes) as f64;
        let mut transfer = bytes / self.cfg.bytes_per_cycle();

        self.words_requested += stream.words;
        self.bytes_moved += bytes;

        // Jitter only applies where request latency is paid (reads).
        let jitter = self.apply_faults(at, &mut transfer, bytes, !stream.write);
        let start = self.reserve(at, transfer);

        if stream.write {
            // Posted writes: done when the channel has accepted the data.
            start + transfer
        } else if stream.prefetch {
            start + self.cfg.dram_latency as f64 + jitter + transfer
        } else {
            // Synchronous: latency once, plus a turnaround gap per
            // non-contiguous run (within a run, bursts stream naturally).
            start
                + self.cfg.dram_latency as f64
                + jitter
                + transfer
                + (runs.saturating_sub(1) * self.cfg.sync_gap) as f64
        }
    }

    /// Issues a synchronous stream whose request latency has already been
    /// charged by the caller (one latency per pattern instance, however
    /// many operand streams it reads): transfer plus per-run turnaround.
    /// `efficiency` derates the achieved bandwidth (interleaving several
    /// synchronous streams without outstanding requests halves it).
    pub fn request_sync_body(&mut self, at: f64, stream: &DramStream, efficiency: f64) -> f64 {
        if stream.words == 0 {
            return at;
        }
        let run = stream.run_words.max(1);
        let runs = stream.words.div_ceil(run);
        let run_bytes = run * self.cfg.word_bytes;
        let bursts_per_run = run_bytes.div_ceil(self.cfg.burst_bytes);
        let total_bursts = runs * bursts_per_run;
        let bytes = (total_bursts * self.cfg.burst_bytes) as f64;
        let mut transfer = bytes / self.cfg.bytes_per_cycle() / efficiency.clamp(0.1, 1.0);
        self.words_requested += stream.words;
        self.bytes_moved += bytes;
        // The caller charged the request latency, so jitter lands on the
        // completion time here.
        let jitter = self.apply_faults(at, &mut transfer, bytes, true);
        let start = self.reserve(at, transfer);
        start + jitter + transfer + (runs.saturating_sub(1) * self.cfg.sync_gap) as f64
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    fn stream(words: u64, run: u64, prefetch: bool, write: bool) -> DramStream {
        DramStream {
            words,
            run_words: run,
            prefetch,
            write,
        }
    }

    #[test]
    fn prefetched_stream_pays_latency_once() {
        let cfg = SimConfig::default();
        let bpc = cfg.bytes_per_cycle();
        let mut d = Dram::new(&cfg);
        let t = d.request(0.0, &stream(9600, 9600, true, false)); // 100 bursts
        let expected = cfg.dram_latency as f64 + (100.0 * 384.0) / bpc;
        assert!((t - expected).abs() < 1e-6, "{t} vs {expected}");
    }

    #[test]
    fn sync_stream_pays_gap_per_run() {
        let cfg = SimConfig::default();
        let mut d = Dram::new(&cfg);
        // 100 runs of 96 words: 99 turnaround gaps.
        let t_sync = d.request(0.0, &stream(9600, 96, false, false));
        let mut d2 = Dram::new(&cfg);
        let t_pre = d2.request(0.0, &stream(9600, 96, true, false));
        assert!(
            t_sync > t_pre + (99 * cfg.sync_gap - 1) as f64,
            "sync {t_sync} vs prefetch {t_pre}"
        );
        // A single contiguous run pays no gaps.
        let mut d3 = Dram::new(&cfg);
        let t_one = d3.request(0.0, &stream(9600, 9600, false, false));
        let mut d4 = Dram::new(&cfg);
        let t_one_pre = d4.request(0.0, &stream(9600, 9600, true, false));
        assert!((t_one - t_one_pre).abs() < 1e-6);
    }

    #[test]
    fn short_runs_waste_bandwidth() {
        let cfg = SimConfig::default();
        let mut d = Dram::new(&cfg);
        // 96 words in runs of 1: each word costs a full burst.
        d.request(0.0, &stream(96, 1, true, false));
        assert!((d.bytes_moved - 96.0 * 384.0).abs() < 1e-6);
        let mut d2 = Dram::new(&cfg);
        // 96 words contiguous: one burst.
        d2.request(0.0, &stream(96, 96, true, false));
        assert!((d2.bytes_moved - 384.0).abs() < 1e-6);
    }

    #[test]
    fn channel_serializes_requests() {
        let cfg = SimConfig::default();
        let mut d = Dram::new(&cfg);
        let t1 = d.request(0.0, &stream(96_000, 96_000, true, false));
        let t2 = d.request(0.0, &stream(96_000, 96_000, true, false));
        assert!(t2 > t1, "second request must queue behind the first");
    }

    #[test]
    fn writes_skip_latency() {
        let cfg = SimConfig::default();
        let bpc = cfg.bytes_per_cycle();
        let mut d = Dram::new(&cfg);
        let t = d.request(0.0, &stream(96, 96, true, true));
        assert!((t - 384.0 / bpc).abs() < 1e-6);
    }

    #[test]
    fn canonical_key_distinguishes_configs() {
        let a = SimConfig::default();
        let b = SimConfig::default().with_clock_mhz(200.0);
        let c = SimConfig::default().with_dram_gbps(38.4);
        assert_eq!(a.canonical_key(), SimConfig::default().canonical_key());
        assert_ne!(a.canonical_key(), b.canonical_key());
        assert_ne!(a.canonical_key(), c.canonical_key());
        assert_ne!(b.canonical_key(), c.canonical_key());
    }

    #[test]
    fn named_variants_have_unique_keys() {
        let vars = SimConfig::named_variants();
        assert!(vars.len() >= 3);
        for (i, (_, a)) in vars.iter().enumerate() {
            for (_, b) in vars.iter().skip(i + 1) {
                assert_ne!(a.canonical_key(), b.canonical_key());
            }
        }
    }

    #[test]
    fn empty_stream_is_free() {
        let cfg = SimConfig::default();
        let mut d = Dram::new(&cfg);
        assert_eq!(d.request(5.0, &stream(0, 1, true, false)), 5.0);
    }

    #[test]
    fn validate_rejects_degenerate_configs() {
        assert!(SimConfig::default().validate().is_ok());
        for (cfg, field) in [
            (SimConfig::default().with_clock_mhz(0.0), "clock_mhz"),
            (SimConfig::default().with_clock_mhz(-5.0), "clock_mhz"),
            (SimConfig::default().with_clock_mhz(f64::NAN), "clock_mhz"),
            (SimConfig::default().with_dram_gbps(0.0), "dram_gbps"),
            (
                SimConfig::default().with_dram_gbps(f64::INFINITY),
                "dram_gbps",
            ),
            (
                SimConfig {
                    word_bytes: 0,
                    ..SimConfig::default()
                },
                "word_bytes",
            ),
            (SimConfig::default().with_burst_bytes(2), "burst_bytes"),
            (SimConfig::default().with_cycle_budget(0), "cycle_budget"),
        ] {
            match cfg.validate() {
                Err(SimError::InvalidConfig { field: f, .. }) => assert_eq!(f, field),
                other => panic!("expected InvalidConfig for {field}, got {other:?}"),
            }
        }
    }

    #[test]
    fn inert_faults_take_the_fault_free_path() {
        let cfg = SimConfig::default();
        let mut plain = Dram::new(&cfg);
        let mut inert = Dram::with_faults(&cfg, &FaultConfig::none().with_seed(1234));
        for at in [0.0, 100.0, 5000.0] {
            let a = plain.request(at, &stream(9600, 96, true, false));
            let b = inert.request(at, &stream(9600, 96, true, false));
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(plain.bytes_moved.to_bits(), inert.bytes_moved.to_bits());
        assert_eq!(inert.fault_stats(), FaultStats::default());
    }

    #[test]
    fn burst_failures_retransmit_bytes_and_never_speed_up() {
        let cfg = SimConfig::default();
        let faults = FaultConfig::none()
            .with_seed(7)
            .with_burst_fail_rate(0.8)
            .with_retry(4, 16);
        let mut plain = Dram::new(&cfg);
        let mut faulty = Dram::with_faults(&cfg, &faults);
        let mut any_retry = false;
        for i in 0..32 {
            let at = i as f64 * 10.0;
            let a = plain.request(at, &stream(960, 960, true, false));
            let b = faulty.request(at, &stream(960, 960, true, false));
            assert!(b >= a, "faulted completion {b} earlier than clean {a}");
            any_retry |= faulty.fault_stats().retries > 0;
        }
        assert!(any_retry, "rate 0.8 over 32 requests must retry");
        assert!(faulty.bytes_moved > plain.bytes_moved);
        assert!(faulty.fault_stats().retry_cycles > 0.0);
    }

    #[test]
    fn degradation_window_slows_only_in_window_arrivals() {
        let cfg = SimConfig::default();
        // Window covers the full period: every request degraded.
        let always = FaultConfig::none().with_degradation(1000, 1000, 2.0);
        let mut d = Dram::with_faults(&cfg, &always);
        let t = d.request(0.0, &stream(9600, 9600, true, false));
        let mut clean = Dram::new(&cfg);
        let t0 = clean.request(0.0, &stream(9600, 9600, true, false));
        let transfer = t0 - SimConfig::default().dram_latency as f64;
        assert!((t - (t0 + transfer)).abs() < 1e-6, "{t} vs 2x transfer");
        assert_eq!(d.fault_stats().degraded_requests, 1);
    }

    #[test]
    fn same_seed_reproduces_fault_decisions() {
        let cfg = SimConfig::default();
        let faults = FaultConfig::none()
            .with_seed(99)
            .with_latency_jitter(32)
            .with_burst_fail_rate(0.3);
        let run = || {
            let mut d = Dram::with_faults(&cfg, &faults);
            let ends: Vec<u64> = (0..64)
                .map(|i| {
                    d.request(i as f64 * 7.0, &stream(960, 96, true, false))
                        .to_bits()
                })
                .collect();
            (ends, d.fault_stats())
        };
        let (e1, s1) = run();
        let (e2, s2) = run();
        assert_eq!(e1, e2);
        assert_eq!(s1, s2);
        assert!(s1.jitter_cycles > 0);
    }
}
