//! What every workload shares: run parameters, the correctness-check
//! ledger, segment and latency statistics, and the result a run prints.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use crate::spec::{self, WorkloadSpec};

/// Parameters of one run.
#[derive(Debug, Clone)]
pub struct Params {
    /// Drives every generated input.
    pub seed: u64,
    /// `--seconds / 15`: scales the fixed op counts.
    pub scale: f64,
    /// Run the units a second time under the span recorder.
    pub trace: bool,
    /// Test hook: corrupt the first expected value a check compares
    /// against, to prove the correctness checks can fail.
    pub sabotage: bool,
    /// Where span files and the cache file go.
    pub out_dir: PathBuf,
}

impl Params {
    /// Parameters for `--seconds` of timed work.
    #[must_use]
    pub fn new(seed: u64, seconds: f64, trace: bool) -> Params {
        let scale = seconds / spec::BASE_SECONDS as f64;
        Params {
            seed,
            scale,
            trace,
            sabotage: false,
            out_dir: PathBuf::from(spec::PATH).join("out"),
        }
    }

    /// Units of `w` this run repeats.
    #[must_use]
    pub fn units(&self, w: &WorkloadSpec) -> u64 {
        w.units(self.scale, self.trace)
    }
}

/// Ledger of correctness checks and timed ops: what was attempted, what
/// failed, and why.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks and ops attempted.
    pub attempted: u64,
    /// Checks and ops that failed, were refused, or answered wrongly.
    pub failed: u64,
    /// First few failure messages.
    pub messages: Vec<String>,
    sabotage_pending: bool,
}

impl Checks {
    /// A ledger; with `sabotage`, the first [`Checks::eq`] is handed a
    /// deliberately wrong expected value.
    #[must_use]
    pub fn new(sabotage: bool) -> Checks {
        Checks {
            sabotage_pending: sabotage,
            ..Checks::default()
        }
    }

    /// Records one check.
    pub fn that(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.messages.len() < 8 {
                self.messages.push(what());
            }
        }
    }

    /// Records `got == want` for an exact integer.
    pub fn eq(&mut self, what: &str, got: u64, want: u64) {
        let want = if std::mem::take(&mut self.sabotage_pending) {
            want.wrapping_add(1)
        } else {
            want
        };
        self.that(got == want, || {
            format!("{what}: got {got}, expected {want}")
        });
    }

    /// Records `n` timed ops of which `failed` failed.
    pub fn ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }
}

/// One segment of a run: consecutive units, the ops they completed, the
/// wall time they took and the latency of each sample in them.
#[derive(Debug, Clone, Default)]
pub struct Segment {
    /// Ops completed.
    pub ops: u64,
    /// Wall seconds taken (the sum of the units' own times; whatever runs
    /// between units is not in it).
    pub secs: f64,
    /// Latency samples in nanoseconds.
    pub latencies_ns: Vec<u64>,
}

/// Most segments a run is cut into; a run with fewer units than this has
/// one segment per unit.
pub const SEGMENTS: u64 = 100;

/// What the timed part of a run produced.
#[derive(Debug)]
pub struct Timed {
    /// Equal runs of consecutive units.
    pub segments: Vec<Segment>,
    units: u64,
    /// What a latency sample is, for the printed line.
    pub latency_of: &'static str,
    /// Quality of what was produced (simulated cycles).
    pub design_cycles: f64,
    /// Order-sensitive digest of every output; a traced run must match
    /// the untraced one.
    pub digest: u64,
}

/// The time-based figures of a run, in wall time: each is the figure of
/// one segment, see [`Timed::rates`].
#[derive(Debug, Clone, PartialEq)]
pub struct Rates {
    /// Ops per second.
    pub ops_per_s: f64,
    /// Median latency, microseconds.
    pub p50_us: f64,
    /// Nearest-rank 99th percentile latency, microseconds.
    pub p99_us: f64,
    /// Latency samples over all segments.
    pub samples: usize,
    /// Ops per second of the median segment (printed beside the reported
    /// one, not a metric).
    pub median_ops_per_s: f64,
}

impl Timed {
    /// An empty record for a run of `units` units.
    #[must_use]
    pub fn new(units: u64, latency_of: &'static str, design_cycles: f64) -> Timed {
        let n = usize::try_from(units.clamp(1, SEGMENTS)).expect("at most SEGMENTS");
        Timed {
            segments: vec![Segment::default(); n],
            units: units.max(1),
            latency_of,
            design_cycles,
            digest: DIGEST_SEED,
        }
    }

    /// Adds unit number `unit` (counted from 0) to its segment.
    pub fn record(
        &mut self,
        unit: u64,
        ops: u64,
        secs: f64,
        latencies_ns: impl IntoIterator<Item = u64>,
    ) {
        let at = usize::try_from(unit * self.segments.len() as u64 / self.units)
            .expect("below SEGMENTS");
        let seg = &mut self.segments[at];
        seg.ops += ops;
        seg.secs += secs;
        seg.latencies_ns.extend(latencies_ns);
    }

    /// Ops over all segments.
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.segments.iter().map(|s| s.ops).sum()
    }

    /// How many times longer this run's segments took than `other`'s, as
    /// the median over the segment pairs (the two runs alternated segment
    /// by segment, so each pair met the same host).
    #[must_use]
    pub fn slowdown_over(&self, other: &Timed) -> f64 {
        let per_op = |s: &Segment| s.secs / s.ops as f64;
        let pairs: Vec<f64> = self
            .segments
            .iter()
            .zip(&other.segments)
            .map(|(mine, theirs)| per_op(mine) / per_op(theirs))
            .collect();
        median(&pairs)
    }

    /// The run's time-based figures. Each is computed per segment, the
    /// segments are ranked from best to worst (highest throughput, lowest
    /// median latency, lowest 99th percentile), and the figure
    /// `skip_fastest` of the way down the ranking is reported: with 0 the
    /// **fastest segment's**.
    ///
    /// Why not the median segment: the sandbox runs at one of two speeds
    /// about 30% apart and moves between them in bursts of less than a
    /// second and in stretches of tens of seconds, and the share of a run
    /// spent at each changes from run to run. The median segment lands on
    /// either speed and spread up to 24% over ten runs of one binary;
    /// whatever the host does can only slow a single-threaded segment, so
    /// the fastest one is the one it left alone, and it spread 0.6-4%
    /// (README, "How steady the numbers are").
    ///
    /// Why `serve_mix` skips the fastest tenth: its two client and the
    /// daemon's two worker threads share two CPUs, and a chunk in which
    /// the kernel happens to place them well runs up to 50% faster than
    /// the typical one; such chunks come and go, and the fastest of 100
    /// spread 20% over ten runs where the tenth-fastest spread 6%.
    ///
    /// A segment with fewer than 100 samples has its largest sample as its
    /// 99th percentile.
    ///
    /// # Panics
    ///
    /// Panics if a segment holds no unit or no latency sample.
    #[must_use]
    pub fn rates(&self, skip_fastest: f64) -> Rates {
        let at = (skip_fastest * (self.segments.len() - 1) as f64) as usize;
        let mut rates: Vec<f64> = self
            .segments
            .iter()
            .map(|s| s.ops as f64 / s.secs)
            .collect();
        rates.sort_by(|a, b| b.total_cmp(a));
        let ranked_us = |p: f64| {
            let mut of: Vec<u64> = self
                .segments
                .iter()
                .map(|seg| {
                    let mut lat = seg.latencies_ns.clone();
                    lat.sort_unstable();
                    percentile(&lat, p)
                })
                .collect();
            of.sort_unstable();
            of[at] as f64 / 1e3
        };
        Rates {
            ops_per_s: rates[at],
            p50_us: ranked_us(0.50),
            p99_us: ranked_us(0.99),
            samples: self.segments.iter().map(|s| s.latencies_ns.len()).sum(),
            median_ops_per_s: median(&rates),
        }
    }
}

/// The unit ranges of a run's segments, in order. A traced run does
/// segment 0 untraced, segment 0 traced, segment 1 untraced and so on, so
/// that each pair it compares (`trace_overhead`) meets the same host; an
/// untraced run does the segments one after the other.
pub fn blocks(units: u64) -> impl Iterator<Item = std::ops::Range<u64>> {
    let k = units.clamp(1, SEGMENTS);
    // Unit `u` is in segment `u * k / units`, so segment `b` starts at the
    // first `u` with `u * k >= b * units`.
    (0..k).map(move |b| (b * units).div_ceil(k)..((b + 1) * units).div_ceil(k))
}

/// Median of a non-empty slice.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Distance between the first and the third quartile over the median, the
/// quartiles as Python's `statistics.quantiles(values, n=4)` gives them;
/// `None` for fewer than four values.
#[must_use]
pub fn spread(xs: &[f64]) -> Option<f64> {
    if xs.len() < 4 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((quartile(3) - quartile(1)) / median(&v))
}

/// Folds a value into an FNV-1a digest.
pub fn mix(digest: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *digest ^= u64::from(b);
        *digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// FNV-1a offset basis: where a digest starts.
pub const DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Nearest-rank percentile of a sorted non-empty slice.
#[must_use]
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> T {
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `VmHWM` of this process in MiB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A workload's set-up, repeated through a run and each repetition timed;
/// `setup_s` is the fastest (for the reason the fastest segment is
/// reported, see [`Timed::rates`]). The first repetition comes before the
/// first block of units, its correctness checks are the ones counted and
/// its state is the one the timed units use; the others are spread evenly
/// between the blocks - back to back they would all meet the same host -
/// and what they build is dropped at once, outside any timed region.
#[derive(Debug)]
pub struct Setups {
    reps: u64,
    blocks: u64,
    times: Vec<f64>,
}

impl Setups {
    /// `reps` repetitions over a run of `units` units (cut into blocks as
    /// [`blocks`] cuts them).
    #[must_use]
    pub fn new(reps: u64, units: u64) -> Setups {
        Setups {
            reps: reps.max(1),
            blocks: units.clamp(1, SEGMENTS),
            times: Vec::new(),
        }
    }

    /// Runs and times one repetition.
    pub fn time<S>(&mut self, setup: impl FnOnce() -> S) -> S {
        let t = Instant::now();
        let state = setup();
        self.times.push(t.elapsed().as_secs_f64());
        state
    }

    /// Before block `block` (counted from 0): runs the repetitions due by
    /// then, so that the last one comes before the last block.
    pub fn between<S>(&mut self, block: u64, mut setup: impl FnMut() -> S) {
        let due = (self.reps * (block + 1)).div_ceil(self.blocks);
        while (self.times.len() as u64) < due.min(self.reps) {
            drop(self.time(&mut setup));
        }
    }

    /// Seconds of the fastest repetition.
    ///
    /// # Panics
    ///
    /// Panics if no repetition ran.
    #[must_use]
    pub fn fastest(&self) -> f64 {
        assert!(!self.times.is_empty(), "no set-up ran");
        self.times.iter().copied().fold(f64::MAX, f64::min)
    }
}

/// Everything one run reports.
#[derive(Debug)]
pub struct RunResult {
    /// Workload name.
    pub workload: &'static str,
    /// End-to-end metrics by name (tracing off).
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metrics by name (traced run only).
    pub layers: Option<BTreeMap<&'static str, f64>>,
    /// Checks and ops attempted.
    pub attempted: u64,
    /// Checks and ops failed.
    pub failed: u64,
    /// Failure messages and remarks (sample counts, omitted measurements).
    pub notes: Vec<String>,
    /// Units of the timed part, as the spec counts them.
    pub units: u64,
    /// Ops of the timed part.
    pub ops: u64,
}

impl RunResult {
    /// Derives the end-to-end metrics from a timed part.
    #[must_use]
    pub fn from_timed(
        w: &'static WorkloadSpec,
        units: u64,
        setup_s: f64,
        timed: &Timed,
    ) -> RunResult {
        let rates = timed.rates(w.skip_fastest);
        let mut e2e = BTreeMap::new();
        e2e.insert("setup_s", setup_s);
        e2e.insert("ops_per_s", rates.ops_per_s);
        e2e.insert("op_p50_us", rates.p50_us);
        e2e.insert("op_p99_us", rates.p99_us);
        e2e.insert("peak_rss_mb", peak_rss_mb());
        e2e.insert("design_cycles", timed.design_cycles);
        let notes = vec![
            format!(
                "wall time; ops_per_s, op_p50_us and op_p99_us are those of the {} of {} segments (the median segment did {:.6} ops/s)",
                if w.skip_fastest > 0.0 {
                    "fastest but a tenth"
                } else {
                    "fastest"
                },
                timed.segments.len(),
                rates.median_ops_per_s
            ),
            format!(
                "{} latency samples, one per {}",
                rates.samples, timed.latency_of
            ),
        ];
        // The op count is a constant of the workload and the scale, never
        // of the clock: a run that did more or fewer ops measured something
        // else.
        let mut checks = Checks::default();
        checks.eq("ops of the timed part", timed.ops(), units * w.ops_per_unit);
        let mut result = RunResult {
            workload: w.name,
            e2e,
            layers: None,
            attempted: 0,
            failed: 0,
            notes,
            units,
            ops: timed.ops(),
        };
        result.absorb(checks);
        result
    }

    /// Sets `fig7_logerr`. It is the same number on every workload (a
    /// property of the timing model, not of the workload); the workloads
    /// whose set-up does not build the Figure 7 fixture compute it after
    /// their timed part and after `peak_rss_mb` was read.
    pub fn fig7_logerr(&mut self, logerr: f64) {
        self.e2e.insert("fig7_logerr", logerr);
    }

    /// Adds a ledger's counts and failure messages to the result.
    pub fn absorb(&mut self, checks: Checks) {
        self.attempted += checks.attempted;
        self.failed += checks.failed;
        self.notes
            .extend(checks.messages.into_iter().map(|m| format!("FAILED {m}")));
        // `ok_share` is `1 - fail_share`: a bounded metric may never read 0.
        let ok = (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64;
        self.e2e.insert("ok_share", ok);
    }

    /// Whether every check and op succeeded and every metric is a number.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.attempted > 0
            && self.e2e.values().all(|v| v.is_finite())
            && self
                .layers
                .as_ref()
                .is_none_or(|l| l.values().all(|v| v.is_finite()))
    }

    /// The one-line JSON object the driver reads: the end-to-end metrics
    /// of an untraced run, the per-layer metrics of a traced one.
    #[must_use]
    pub fn result_line(&self) -> String {
        let metrics = self.layers.as_ref().unwrap_or(&self.e2e);
        let body: Vec<String> = metrics
            .iter()
            .map(|(name, value)| {
                let unit = spec::unit_of(name).expect("every printed metric is in the spec");
                let value = if value.is_finite() { *value } else { -1.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }

    /// The human-readable report: every metric by name with its unit.
    #[must_use]
    pub fn to_text(&self) -> String {
        let w = spec::workload(self.workload).expect("a workload of the spec");
        let mut out = format!(
            "workload {}: {} x {} = {} ops\n  op = {}\n  unit = {}\n",
            self.workload, self.units, w.ops_per_unit, self.ops, w.op, w.unit
        );
        for (name, value) in &self.e2e {
            let unit = spec::unit_of(name).unwrap_or("?");
            out.push_str(&format!("  {name:<34} {value:>18.6} {unit}\n"));
        }
        out.push_str(&format!(
            "  {:<34} {:>18.6} ratio (1 - ok_share: {} failed of {} attempted)\n",
            "fail_share",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        ));
        if let Some(layers) = &self.layers {
            out.push_str("  per-layer metrics of the traced run:\n");
            for (name, value) in layers {
                let unit = spec::unit_of(name).unwrap_or("?");
                out.push_str(&format!("  {name:<34} {value:>18.6} {unit}\n"));
            }
        }
        for note in &self.notes {
            out.push_str(&format!("  note: {note}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile_follow_their_definitions() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.50), 50.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&[7.0, 9.0], 0.99), 9.0);
        assert_eq!(percentile(&[7.0], 0.50), 7.0);
    }

    #[test]
    fn rates_are_those_of_the_fastest_segment() {
        // 5 units, one per segment, 10 ops and 10 samples each; the host
        // slows three of them down.
        let mut t = Timed::new(5, "op", 1.0);
        for unit in 0..5u64 {
            let slow = if unit % 2 == 0 { 3 } else { 1 };
            t.record(unit, 10, 0.5 * slow as f64, [1000 * slow + unit; 10]);
        }
        let r = t.rates(0.0);
        assert_eq!(r.ops_per_s, 20.0, "the fastest segment");
        assert_eq!(r.median_ops_per_s, 20.0 / 3.0);
        assert_eq!((r.p50_us, r.p99_us), (1.001, 1.001), "{r:?}");
        assert_eq!(r.samples, 50);
        assert_eq!(t.ops(), 50);
        // Many samples in a segment: its nearest-rank 99th percentile.
        let mut many = Timed::new(1, "op", 1.0);
        many.record(0, 200, 1.0, (1..=200).map(|k| k * 1000));
        let r = many.rates(0.0);
        assert_eq!((r.p50_us, r.p99_us), (100.0, 198.0));
        // Skipping the fastest tenth of 21 segments reports the third best.
        let mut ranked = Timed::new(21, "op", 1.0);
        for unit in 0..21u64 {
            ranked.record(unit, 10, (unit + 1) as f64, [1000 * (unit + 1)]);
        }
        let r = ranked.rates(0.1);
        assert_eq!((r.ops_per_s, r.p50_us, r.p99_us), (10.0 / 3.0, 3.0, 3.0));
    }

    #[test]
    fn a_traced_run_is_compared_with_the_untraced_one_segment_by_segment() {
        let (mut plain, mut traced) = (Timed::new(3, "op", 1.0), Timed::new(3, "op", 1.0));
        // The host doubles the time of the second pair; tracing costs 10%.
        for (unit, host) in [(0u64, 1.0), (1, 2.0), (2, 1.0)] {
            plain.record(unit, 10, host, [1]);
            traced.record(unit, 10, host * 1.1, [1]);
        }
        assert!((traced.slowdown_over(&plain) - 1.1).abs() < 1e-12);
    }

    #[test]
    fn units_fall_into_equal_consecutive_segments() {
        let mut t = Timed::new(64, "op", 1.0);
        for unit in 0..64u64 {
            t.record(unit, 1, 1.0, [unit]);
        }
        assert_eq!(t.segments.len(), 64, "fewer units than SEGMENTS");
        let mut t = Timed::new(4 * SEGMENTS, "op", 1.0);
        for unit in 0..4 * SEGMENTS {
            t.record(unit, 1, 1.0, [unit]);
        }
        assert_eq!(t.segments.len() as u64, SEGMENTS);
        assert!(t.segments.iter().all(|s| s.ops == 4));
        assert_eq!(t.segments[15].latencies_ns, vec![60, 61, 62, 63]);
        // Fewer units than segments: one segment per unit.
        assert_eq!(Timed::new(6, "op", 1.0).segments.len(), 6);
    }

    #[test]
    fn sabotage_corrupts_exactly_one_expected_value() {
        let mut c = Checks::new(true);
        c.eq("first", 5, 5);
        c.eq("second", 5, 5);
        assert_eq!((c.attempted, c.failed), (2, 1));
        assert!(c.messages[0].starts_with("first"));
        let mut clean = Checks::new(false);
        clean.eq("first", 5, 5);
        clean.ops(10, 0);
        assert_eq!((clean.attempted, clean.failed), (11, 0));
    }

    #[test]
    fn spread_is_the_interquartile_range_over_the_median() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&xs), Some(1.0));
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        assert_eq!(spread(&[8.0, 1.0, 4.0, 2.0]), Some(5.75 / 3.0));
        assert_eq!(spread(&[1.0, 2.0, 3.0]), None);
    }

    #[test]
    fn blocks_are_the_segments_unit_ranges() {
        for units in [1u64, 2, 10, 100, 150, 800, 1234] {
            let mut t = Timed::new(units, "op", 1.0);
            for (b, range) in blocks(units).enumerate() {
                for unit in range {
                    t.record(unit, 1, 1.0, [b as u64]);
                }
            }
            assert_eq!(t.ops(), units, "every unit once");
            for (b, seg) in t.segments.iter().enumerate() {
                assert!(seg.ops >= 1, "{units} units: segment {b} is empty");
                assert!(seg.latencies_ns.iter().all(|x| *x == b as u64));
            }
        }
        assert_eq!(blocks(2).collect::<Vec<_>>(), vec![0..1, 1..2]);
    }

    #[test]
    fn setups_are_spread_between_the_blocks() {
        // Which block each repetition precedes.
        let schedule = |reps: u64, units: u64| {
            let mut s = Setups::new(reps, units);
            s.time(|| ());
            let mut before = vec![0u64];
            for block in 0..s.blocks {
                let done = s.times.len();
                s.between(block, || ());
                before.extend(std::iter::repeat_n(block, s.times.len() - done));
            }
            assert!(s.fastest() >= 0.0);
            before
        };
        assert_eq!(schedule(5, 100), [0, 20, 40, 60, 80]);
        assert_eq!(
            schedule(5, 800),
            [0, 20, 40, 60, 80],
            "800 units are 100 blocks"
        );
        assert_eq!(schedule(8, 4), [0, 0, 1, 1, 2, 2, 3, 3]);
        assert_eq!(schedule(3, 20), [0, 6, 13]);
        assert_eq!(schedule(1, 100), [0]);
        assert_eq!(schedule(4, 1), [0, 0, 0, 0]);
    }

    #[test]
    fn ok_share_is_one_minus_the_failed_share() {
        let w = spec::workload("sim_faulted").unwrap();
        let mut t = Timed::new(1, "op", 1.0);
        t.record(0, w.ops_per_unit, 1.0, [1]);
        let mut r = RunResult::from_timed(w, 1, 0.1, &t);
        r.fig7_logerr(0.2);
        assert_eq!((r.attempted, r.failed, r.e2e["ok_share"]), (1, 0, 1.0));
        let mut bad = Checks::default();
        bad.ops(3, 1);
        r.absorb(bad);
        assert_eq!(r.e2e["ok_share"], 0.75);
        assert!(!r.correct());
        assert_eq!(r.e2e.len(), spec::END_TO_END.len());
    }

    #[test]
    fn peak_rss_reads_a_positive_number() {
        assert!(peak_rss_mb() > 0.0);
    }
}
