//! Static dataflow-balance analyzer (the fourth analyzer family).
//!
//! Works over the producer→consumer channel graph that
//! [`pphw_hw::channel`] derives from `Unit::{reads,writes}` within each
//! metapipeline: SDF-style balance equations over per-stage token rates
//! (`Unit::{elems, lanes, depth}`, `Ctrl::iters`) classify every channel
//! by how many producer tokens its memory can hold at once
//! ([`Channel::slots`]):
//!
//! - **0 slots** (`PPHW041`): the producer cannot complete even one
//!   token — a statically-guaranteed deadlock.
//! - **1 slot** on a forward channel of an iterating metapipeline
//!   (`PPHW042`): the producer must wait for the consumer to drain each
//!   token, so the stages serialize — a stall-guaranteed undersized
//!   channel that defeats the metapipeline.
//! - **FIFO rate imbalance** (`PPHW040`): FIFO reads are destructive,
//!   so a producer and consumer moving different volumes per controller
//!   iteration either accumulate tokens without bound or underflow.
//! - **Starved channel** (`PPHW043`): a FIFO/double buffer read by some
//!   unit but written by none — its consumer waits forever.
//! - **Over-provisioned channel** (`PPHW044`, warning): capacity beyond
//!   the minimal safe depth buys no overlap a double buffer doesn't
//!   already provide; [`infer_capacities`] would reclaim the area.
//!
//! Backward channels (consumer stage precedes the producer) are
//! loop-carried paths whose serialization is inherent in the wavefront
//! schedule, so only their deadlock case is an error.
//!
//! The module also hosts the *sharpness* half of the analysis: a static
//! per-stage busy-cycle predictor ([`predict_stage_loads`]) mirroring
//! the simulator's unit timing, whose argmax is cross-checked against
//! the simulator's busiest stage on every benchmark.

use std::collections::BTreeMap;

use pphw_hw::channel::{channels, Channel};
use pphw_hw::design::{BufId, BufferKind, CtrlKind, Design, Node, Unit, UnitKind};

use crate::{DiagCode, Severity, VerifyConfig, VerifyReport};

/// Checks the design's channel graph, appending findings to `report`.
pub fn check_design(design: &Design, _cfg: &VerifyConfig, report: &mut VerifyReport) {
    check_starved(design, report);
    for ch in channels(design) {
        check_channel(design, &ch, report);
    }
}

fn check_starved(design: &Design, report: &mut VerifyReport) {
    let mut written = vec![false; design.buffers.len()];
    let mut read = vec![false; design.buffers.len()];
    design.root.visit_units(&mut |u| {
        for w in &u.writes {
            if let Some(slot) = written.get_mut(w.0) {
                *slot = true;
            }
        }
        for r in &u.reads {
            if let Some(slot) = read.get_mut(r.0) {
                *slot = true;
            }
        }
    });
    for b in &design.buffers {
        if matches!(b.kind, BufferKind::Fifo | BufferKind::DoubleBuffer)
            && read[b.id.0]
            && !written[b.id.0]
        {
            report.push(
                DiagCode::StarvedChannel,
                Severity::Error,
                format!("{}/{}", design.name, b.name),
                format!(
                    "{} `{}` is read but never written: its consumer waits forever",
                    b.kind, b.name
                ),
            );
        }
    }
}

fn check_channel(design: &Design, ch: &Channel, report: &mut VerifyReport) {
    let path = format!("{}/{}/{}", design.name, ch.ctrl, ch.buf_name);
    if ch.kind == BufferKind::Fifo && ch.producer_words != ch.consumer_words {
        report.push(
            DiagCode::RateMismatch,
            Severity::Error,
            path.clone(),
            format!(
                "FIFO `{}` is rate-inconsistent: stage `{}` enqueues {} words per iteration \
                 but stage `{}` dequeues {}",
                ch.buf_name,
                ch.producer_name,
                ch.producer_words,
                ch.consumer_name,
                ch.consumer_words
            ),
        );
    }
    let slots = ch.slots();
    if slots == 0 {
        report.push(
            DiagCode::ChannelDeadlock,
            Severity::Error,
            path,
            format!(
                "{} `{}` holds {} words but stage `{}` hands stage `{}` {}-word tokens: \
                 no token ever fits, the metapipeline deadlocks",
                ch.kind,
                ch.buf_name,
                ch.capacity_words,
                ch.producer_name,
                ch.consumer_name,
                ch.token_words
            ),
        );
        return;
    }
    if ch.is_backward() {
        return;
    }
    if slots == 1 && ch.iters > 1 {
        report.push(
            DiagCode::ChannelStall,
            Severity::Error,
            path,
            format!(
                "{} `{}` holds a single {}-word token: stage `{}` must stall until stage \
                 `{}` drains each token, serializing the metapipeline",
                ch.kind, ch.buf_name, ch.token_words, ch.producer_name, ch.consumer_name
            ),
        );
    } else if minimal_words(ch) < design.buffer(ch.buf).words {
        report.push(
            DiagCode::OverProvisionedChannel,
            Severity::Warning,
            path,
            format!(
                "{} `{}` has {} words where {} suffice for full overlap; \
                 capacity inference would reclaim the area",
                ch.kind,
                ch.buf_name,
                design.buffer(ch.buf).words,
                minimal_words(ch)
            ),
        );
    }
}

/// The minimal safe `Buffer::words` for a channel's memory: two token
/// slots for forward channels (ping + pong, full overlap), one for
/// backward channels (the wavefront serializes them anyway). A double
/// buffer's physical capacity is `2 x words`, so one word-sized half per
/// token already yields two slots.
fn minimal_words(ch: &Channel) -> u64 {
    match (ch.kind, ch.is_backward()) {
        (BufferKind::DoubleBuffer, false) => ch.token_words,
        (BufferKind::DoubleBuffer, true) => ch.token_words.div_ceil(2),
        (_, false) => ch.token_words.saturating_mul(2),
        (_, true) => ch.token_words,
    }
}

/// One capacity rewrite performed by [`infer_capacities`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapacityChange {
    /// The rewritten buffer.
    pub buf: BufId,
    /// Its display name.
    pub name: String,
    /// Capacity before, in words.
    pub old_words: u64,
    /// Capacity after, in words.
    pub new_words: u64,
}

/// Rewrites `Buffer::words` of every FIFO/double buffer that carries a
/// channel to the minimal safe depth (two token slots for forward
/// channels, one for backward), flowing straight into the area model.
/// Memories shared by several channels take the largest requirement.
/// Returns the changes actually applied; a design the generator already
/// sized minimally (the normal case) yields an empty vector.
pub fn infer_capacities(design: &mut Design) -> Vec<CapacityChange> {
    let mut required: BTreeMap<usize, u64> = BTreeMap::new();
    for ch in channels(design) {
        let words = minimal_words(&ch);
        let slot = required.entry(ch.buf.0).or_insert(0);
        *slot = (*slot).max(words);
    }
    let mut changes = Vec::new();
    for (idx, words) in required {
        let b = &mut design.buffers[idx];
        if b.words != words {
            changes.push(CapacityChange {
                buf: b.id,
                name: b.name.clone(),
                old_words: b.words,
                new_words: words,
            });
            b.words = words;
        }
    }
    changes
}

/// Scales every channel-carrying FIFO/double buffer to
/// `words * permille / 1000`, rounding down — the mutation the flow
/// cross-check (`tests/flow_crosscheck.rs`) applies to prove generated
/// depths minimal. `1000` is the identity. Returns the applied changes.
pub fn scale_capacities(design: &mut Design, permille: u32) -> Vec<CapacityChange> {
    if permille == 1000 {
        return Vec::new();
    }
    let carried: BTreeMap<usize, ()> = channels(design).iter().map(|c| (c.buf.0, ())).collect();
    let mut changes = Vec::new();
    for (idx, ()) in carried {
        let b = &mut design.buffers[idx];
        let words = b.words.saturating_mul(permille as u64) / 1000;
        if b.words != words {
            changes.push(CapacityChange {
                buf: b.id,
                name: b.name.clone(),
                old_words: b.words,
                new_words: words,
            });
            b.words = words;
        }
    }
    changes
}

/// Substrate timing constants for the static busy-cycle predictor — the
/// fields of `pphw_sim::SimConfig` it reads, without a dependency on the
/// simulator. It has no default: callers derive it from the `SimConfig`
/// they simulate with (`pphw::flow_timing`), so the two cannot drift.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowTiming {
    /// DRAM channel bandwidth in bytes per fabric cycle.
    pub bytes_per_cycle: f64,
    /// Request-to-first-data latency in cycles.
    pub dram_latency: u64,
    /// DRAM burst size in bytes.
    pub burst_bytes: u64,
    /// Word size in bytes.
    pub word_bytes: u64,
    /// Per-run turnaround for synchronous streams, in cycles.
    pub sync_gap: u64,
}

/// Predicted steady-state load of one stage (unit name), aggregated over
/// the whole run.
#[derive(Debug, Clone, PartialEq)]
pub struct StageLoad {
    /// Unit display name (units sharing a name share a row, matching the
    /// simulator's per-stage statistics).
    pub name: String,
    /// Predicted total busy cycles across all invocations.
    pub busy_cycles: f64,
    /// Total invocations (product of enclosing controller trip counts).
    pub invocations: u64,
}

impl FlowTiming {
    /// Burst-quantized channel transfer time for a stream, and its run
    /// count (mirrors the simulator's DRAM request quantization, minus
    /// contention).
    fn transfer(&self, words: u64, run_words: u64) -> (f64, u64) {
        if words == 0 {
            return (0.0, 0);
        }
        let run = run_words.max(1);
        let runs = words.div_ceil(run);
        let run_bytes = run * self.word_bytes;
        let bursts_per_run = run_bytes.div_ceil(self.burst_bytes);
        let bytes = (runs * bursts_per_run * self.burst_bytes) as f64;
        (bytes / self.bytes_per_cycle, runs)
    }

    /// Channel occupancy of one invocation's read streams: burst
    /// transfer time only, excluding issue latency and inter-run gaps
    /// (latency and gaps overlap across streams; bursts do not). This is
    /// the amount every *later* concurrent stream must queue behind.
    fn read_service(&self, u: &Unit) -> f64 {
        let reads = u.streams.iter().filter(|s| !s.write).count();
        let efficiency: f64 = if reads > 1 { 0.5 } else { 1.0 };
        u.streams
            .iter()
            .filter(|s| !s.write)
            .map(|s| self.transfer(s.words, s.run_words).0 / efficiency.clamp(0.1, 1.0))
            .sum()
    }

    /// Busy cycles of one unit invocation, contention-free: the same
    /// initiation-interval model the simulator applies per invocation
    /// (pipeline fill + one element per lane per cycle, max'd against
    /// stream transfers; synchronous reads serialize a request
    /// round-trip in front).
    fn unit_busy(&self, u: &Unit) -> f64 {
        let lanes = u.kind.lanes().max(1) as u64;
        let is_mem = matches!(
            u.kind,
            UnitKind::TileLoad { .. } | UnitKind::TileStore { .. }
        );
        let compute = if is_mem {
            0.0
        } else {
            u.elems.div_ceil(lanes) as f64
        };
        let depth = f64::from(u.depth);
        let has_sync_reads = u.streams.iter().any(|s| !s.write && !s.prefetch);
        if has_sync_reads {
            let sync_reads = u.streams.iter().filter(|s| !s.write).count();
            let efficiency: f64 = if sync_reads > 1 { 0.5 } else { 1.0 };
            let issue = self.dram_latency as f64;
            let mut mem_end = issue;
            for s in u.streams.iter().filter(|s| !s.write) {
                let (t, runs) = self.transfer(s.words, s.run_words);
                mem_end += t / efficiency.clamp(0.1, 1.0)
                    + (runs.saturating_sub(1) * self.sync_gap) as f64;
            }
            let mut end = mem_end.max(issue + depth + compute);
            for s in u.streams.iter().filter(|s| s.write) {
                let (t, _) = self.transfer(s.words, s.run_words);
                end = end.max(issue + t);
            }
            end
        } else {
            let mut end = depth + compute;
            for s in &u.streams {
                let (t, _) = self.transfer(s.words, s.run_words);
                let done = if s.write {
                    t
                } else {
                    self.dram_latency as f64 + t
                };
                end = end.max(done);
            }
            end
        }
    }
}

fn accumulate(node: &Node, mult: u64, t: &FlowTiming, acc: &mut BTreeMap<String, StageLoad>) {
    match node {
        Node::Unit(u) => {
            let load = acc.entry(u.name.clone()).or_insert_with(|| StageLoad {
                name: u.name.clone(),
                busy_cycles: 0.0,
                invocations: 0,
            });
            load.busy_cycles += mult as f64 * t.unit_busy(u);
            load.invocations += mult;
        }
        Node::Ctrl(c) => {
            // A sequential controller wrapping a single pipelined unit
            // streams its iterations at the initiation interval: the fill
            // depth is paid once, not per iteration (the simulator's
            // `gate < end` model). Everything else invokes each stage
            // `iters` times.
            let iters = c.iters.max(1);
            if c.kind == CtrlKind::Sequential && iters > 1 && c.stages.len() == 1 {
                if let Node::Unit(u) = &c.stages[0] {
                    if !u.streams.iter().any(|s| !s.write && !s.prefetch) {
                        let load = acc.entry(u.name.clone()).or_insert_with(|| StageLoad {
                            name: u.name.clone(),
                            busy_cycles: 0.0,
                            invocations: 0,
                        });
                        let per_iter = t.unit_busy(u) - f64::from(u.depth);
                        load.busy_cycles +=
                            mult as f64 * (iters as f64 * per_iter + f64::from(u.depth));
                        load.invocations += mult * iters;
                        return;
                    }
                }
            }
            // Parallel stages issue their DRAM reads in the same cycle,
            // and the shared channel serves them in stage order: each
            // reading stage queues behind every earlier sibling's
            // transfer (the simulator's shared-channel serialization —
            // busy ladders of `latency + k*transfer`, e.g. tpchq6's four
            // concurrent column loads).
            let mut queue = 0.0;
            for s in &c.stages {
                let m = mult.saturating_mul(iters);
                if c.kind == CtrlKind::Parallel {
                    if let Node::Unit(u) = s {
                        if u.streams.iter().any(|st| !st.write) {
                            let load = acc.entry(u.name.clone()).or_insert_with(|| StageLoad {
                                name: u.name.clone(),
                                busy_cycles: 0.0,
                                invocations: 0,
                            });
                            load.busy_cycles += m as f64 * (t.unit_busy(u) + queue);
                            load.invocations += m;
                            queue += t.read_service(u);
                            continue;
                        }
                    }
                }
                accumulate(s, m, t, acc);
            }
        }
    }
}

/// Predicts every stage's total busy cycles, contention-free, by walking
/// the controller tree and multiplying per-invocation busy time by the
/// product of enclosing trip counts. Rows merge by unit name and sort by
/// name, matching the simulator's per-stage statistics table.
#[must_use]
pub fn predict_stage_loads(design: &Design, t: &FlowTiming) -> Vec<StageLoad> {
    let mut acc = BTreeMap::new();
    accumulate(&design.root, 1, t, &mut acc);
    acc.into_values().collect()
}

/// The statically predicted bottleneck: the stage with the most total
/// busy cycles (first alphabetically on exact ties). `None` for a design
/// with no units.
#[must_use]
pub fn predict_bottleneck(design: &Design, t: &FlowTiming) -> Option<String> {
    predict_stage_loads(design, t)
        .into_iter()
        .reduce(|best, l| {
            if l.busy_cycles > best.busy_cycles {
                l
            } else {
                best
            }
        })
        .map(|l| l.name)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use pphw_hw::design::{
        BufId, Buffer, BufferKind, Ctrl, CtrlKind, Design, DesignStyle, DramStream, Node, Unit,
        UnitKind,
    };

    use super::*;
    use crate::{DiagCode, VerifyConfig, VerifyReport};

    fn buf(id: usize, name: &str, words: u64, kind: BufferKind) -> Buffer {
        Buffer {
            id: BufId(id),
            name: name.into(),
            words,
            word_bytes: 4,
            kind,
            banks: 1,
            readers: 1,
            writers: 1,
        }
    }

    fn unit(name: &str, elems: u64, reads: Vec<BufId>, writes: Vec<BufId>) -> Node {
        Node::Unit(Unit {
            name: name.into(),
            kind: UnitKind::Vector { lanes: 1 },
            elems,
            ops_per_elem: 1,
            depth: 4,
            streams: vec![],
            reads,
            writes,
        })
    }

    /// The board the predictor tests below do their arithmetic on.
    fn timing() -> FlowTiming {
        FlowTiming {
            bytes_per_cycle: 512.0,
            dram_latency: 60,
            burst_bytes: 384,
            word_bytes: 4,
            sync_gap: 6,
        }
    }

    fn pipe(buffers: Vec<Buffer>, stages: Vec<Node>, iters: u64) -> Design {
        Design {
            name: "t".into(),
            style: DesignStyle::Metapipelined,
            root: Node::Ctrl(Ctrl {
                name: "top".into(),
                kind: CtrlKind::Metapipeline,
                iters,
                stages,
            }),
            buffers,
        }
    }

    fn check(d: &Design) -> VerifyReport {
        let mut r = VerifyReport::new();
        check_design(d, &VerifyConfig::default(), &mut r);
        r
    }

    fn two_stage(words: u64, kind: BufferKind) -> Design {
        pipe(
            vec![buf(0, "tile", words, kind)],
            vec![
                unit("prod", 64, vec![], vec![BufId(0)]),
                unit("cons", 64, vec![BufId(0)], vec![]),
            ],
            8,
        )
    }

    #[test]
    fn exact_token_double_buffer_is_clean() {
        assert!(check(&two_stage(64, BufferKind::DoubleBuffer)).is_clean());
    }

    #[test]
    fn zero_slot_channel_is_deadlock() {
        let r = check(&two_stage(31, BufferKind::DoubleBuffer));
        assert!(r.has(DiagCode::ChannelDeadlock), "{}", r.to_text());
    }

    #[test]
    fn one_slot_channel_is_stall() {
        // words = token - 1 = 63: capacity 126, one 64-word token fits.
        let r = check(&two_stage(63, BufferKind::DoubleBuffer));
        assert!(r.has(DiagCode::ChannelStall), "{}", r.to_text());
        assert!(!r.has(DiagCode::ChannelDeadlock));
    }

    #[test]
    fn over_provisioned_channel_warns_without_failing() {
        let r = check(&two_stage(128, BufferKind::DoubleBuffer));
        assert!(r.has(DiagCode::OverProvisionedChannel), "{}", r.to_text());
        assert!(r.is_clean(), "warnings must not fail verification");
    }

    #[test]
    fn fifo_rate_mismatch_flagged() {
        let d = pipe(
            vec![buf(0, "q", 256, BufferKind::Fifo)],
            vec![
                unit("prod", 64, vec![], vec![BufId(0)]),
                unit("cons", 32, vec![BufId(0)], vec![]),
            ],
            8,
        );
        let r = check(&d);
        assert!(r.has(DiagCode::RateMismatch), "{}", r.to_text());
    }

    #[test]
    fn starved_channel_flagged() {
        let d = pipe(
            vec![buf(0, "q", 64, BufferKind::Fifo)],
            vec![unit("cons", 64, vec![BufId(0)], vec![])],
            8,
        );
        let r = check(&d);
        assert!(r.has(DiagCode::StarvedChannel), "{}", r.to_text());
    }

    #[test]
    fn backward_single_slot_is_tolerated() {
        // Loop-carried feedback: tail writes what head reads next
        // iteration; one token of capacity is the natural minimum.
        let d = pipe(
            vec![buf(0, "fb", 32, BufferKind::Fifo)],
            vec![
                unit("head", 32, vec![BufId(0)], vec![]),
                unit("tail", 32, vec![], vec![BufId(0)]),
            ],
            8,
        );
        let r = check(&d);
        assert!(r.is_clean(), "{}", r.to_text());
    }

    #[test]
    fn backward_zero_capacity_is_still_deadlock() {
        let d = pipe(
            vec![buf(0, "fb", 16, BufferKind::Fifo)],
            vec![
                unit("head", 32, vec![BufId(0)], vec![]),
                unit("tail", 32, vec![], vec![BufId(0)]),
            ],
            8,
        );
        assert!(check(&d).has(DiagCode::ChannelDeadlock));
    }

    #[test]
    fn infer_capacities_restores_minimal_depth() {
        let mut d = two_stage(128, BufferKind::DoubleBuffer);
        let changes = infer_capacities(&mut d);
        assert_eq!(changes.len(), 1);
        assert_eq!(changes[0].old_words, 128);
        assert_eq!(changes[0].new_words, 64);
        assert_eq!(d.buffers[0].words, 64);
        assert!(check(&d).is_clean());
        // Idempotent: a minimally sized design is untouched.
        assert!(infer_capacities(&mut d).is_empty());
    }

    #[test]
    fn infer_capacities_grows_undersized_fifos() {
        let mut d = pipe(
            vec![buf(0, "q", 10, BufferKind::Fifo)],
            vec![
                unit("prod", 64, vec![], vec![BufId(0)]),
                unit("cons", 64, vec![BufId(0)], vec![]),
            ],
            8,
        );
        assert!(check(&d).has(DiagCode::ChannelDeadlock));
        let changes = infer_capacities(&mut d);
        assert_eq!(changes[0].new_words, 128, "two 64-word slots");
        assert!(check(&d).is_clean());
    }

    #[test]
    fn infer_capacities_takes_max_over_shared_channels() {
        // One double buffer read by two consumers with different volumes.
        let mut d = pipe(
            vec![buf(0, "tile", 8, BufferKind::DoubleBuffer)],
            vec![
                unit("prod", 64, vec![], vec![BufId(0)]),
                unit("small", 16, vec![BufId(0)], vec![]),
                unit("big", 64, vec![BufId(0)], vec![]),
            ],
            8,
        );
        infer_capacities(&mut d);
        assert_eq!(d.buffers[0].words, 64, "largest token wins");
    }

    #[test]
    fn scale_capacities_is_identity_at_1000() {
        let mut d = two_stage(64, BufferKind::DoubleBuffer);
        assert!(scale_capacities(&mut d, 1000).is_empty());
        assert_eq!(d.buffers[0].words, 64);
        let changes = scale_capacities(&mut d, 500);
        assert_eq!(changes[0].new_words, 32);
    }

    #[test]
    fn scaling_below_one_half_deadlocks_an_exact_token_channel() {
        // The generator sizes every channel memory at exactly one token
        // per double-buffer half (two slots), so below one half no slot
        // is left; at or above it one is.
        for permille in [250, 499, 500, 750, 1000] {
            let mut d = two_stage(64, BufferKind::DoubleBuffer);
            scale_capacities(&mut d, permille);
            assert_eq!(
                check(&d).has(DiagCode::ChannelDeadlock),
                permille < 500,
                "permille {permille}"
            );
        }
    }

    #[test]
    fn predictor_ranks_the_heavier_stage() {
        let mut stages = vec![
            unit("light", 64, vec![], vec![BufId(0)]),
            unit("heavy", 4096, vec![BufId(0)], vec![]),
        ];
        if let Node::Unit(u) = &mut stages[0] {
            u.streams = vec![DramStream {
                words: 64,
                run_words: 64,
                prefetch: true,
                write: false,
            }];
        }
        let d = pipe(
            vec![buf(0, "tile", 64, BufferKind::DoubleBuffer)],
            stages,
            8,
        );
        assert_eq!(predict_bottleneck(&d, &timing()).as_deref(), Some("heavy"));
        let loads = predict_stage_loads(&d, &timing());
        assert_eq!(loads.len(), 2);
        let heavy = loads.iter().find(|l| l.name == "heavy").unwrap();
        assert_eq!(heavy.invocations, 8);
        // 8 iterations x (depth 4 + 4096 elems / 1 lane).
        assert!((heavy.busy_cycles - 8.0 * 4100.0).abs() < 1e-9);
    }

    #[test]
    fn predictor_accounts_for_stream_transfer() {
        // A tile load moving 96k words at 512 B/cyc: the transfer
        // (~750 cycles + latency) dominates its zero compute.
        let load = Node::Unit(Unit {
            name: "load".into(),
            kind: UnitKind::TileLoad { buf: BufId(0) },
            elems: 96_000,
            ops_per_elem: 0,
            depth: 4,
            streams: vec![DramStream {
                words: 96_000,
                run_words: 96_000,
                prefetch: true,
                write: false,
            }],
            reads: vec![],
            writes: vec![BufId(0)],
        });
        let d = pipe(
            vec![buf(0, "tile", 96_000, BufferKind::DoubleBuffer)],
            vec![load, unit("cons", 96_000, vec![BufId(0)], vec![])],
            1,
        );
        let loads = predict_stage_loads(&d, &timing());
        let l = loads.iter().find(|l| l.name == "load").unwrap();
        // 96000 words = 384000 bytes = 1000 bursts; 750 transfer + 60.
        assert!((l.busy_cycles - 810.0).abs() < 1e-6, "{}", l.busy_cycles);
    }
}
