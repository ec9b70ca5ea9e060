//! The simulation engine: controller scheduling over the shared DRAM
//! channel.
//!
//! Before the event loop runs, the design tree is *lowered* once: stage
//! names are interned into dense ids ([`StageInterner`]), per-unit `f64`
//! timing constants (pipeline depth, compute cycles, the DRAM request
//! latency) are precomputed, and metapipeline controllers get reusable
//! scratch vectors. The loop itself then touches no `String`s, performs
//! no map lookups, and allocates nothing — statistics accumulate into a
//! flat `Vec<StageStat>` indexed by stage id and are sorted by name only
//! when the report is built, reproducing the retired
//! `BTreeMap<String, StageStat>` accumulation bit for bit.
//!
//! A controller loop whose subtree issues no DRAM stream does not step
//! all of its iterations: once one iteration has moved every
//! loop-carried time by the same amount, [`fast_forward`] advances the
//! rest in closed form, whenever it can prove the result bit-identical
//! to stepping (DESIGN.md, "Closed-form advance of periodic loops").

use pphw_hw::channel::metapipeline_channels;
use pphw_hw::design::{Buffer, CtrlKind, Design, DramStream, Node, StageInterner, Unit, UnitKind};

use crate::dram::{Dram, SimConfig};
use crate::error::SimError;
use crate::fault::FaultConfig;
use crate::report::{SimReport, StageStat};

/// Simulates a design, returning timing and traffic statistics.
///
/// # Errors
///
/// [`SimError::InvalidConfig`] for an out-of-domain configuration,
/// [`SimError::BudgetExceeded`] when the run outlives the watchdog cycle
/// budget (or the internal event cap), [`SimError::NonFinite`] if a timing
/// quantity degenerates.
pub fn simulate(design: &Design, cfg: &SimConfig) -> Result<SimReport, SimError> {
    simulate_with_faults(design, cfg, &FaultConfig::none())
}

/// Simulates a design under deterministic DRAM fault injection.
///
/// Same seed ⇒ identical report; an inert `faults` (see
/// [`FaultConfig::is_inert`]) reproduces [`simulate`] bit-for-bit; fault
/// penalties are additive, so a faulted run never finishes earlier than
/// the fault-free run of the same design.
///
/// # Errors
///
/// As [`simulate`], plus [`SimError::InvalidFaultConfig`] for an
/// out-of-domain fault configuration.
pub fn simulate_with_faults(
    design: &Design,
    cfg: &SimConfig,
    faults: &FaultConfig,
) -> Result<SimReport, SimError> {
    run(design, cfg, faults, false)
}

/// [`simulate_with_faults`] with every loop iteration stepped: the
/// reference the closed-form advance is tested against. Reports and
/// errors must equal [`simulate_with_faults`]'s bit for bit.
///
/// # Errors
///
/// As [`simulate_with_faults`].
#[doc(hidden)]
pub fn simulate_stepping(
    design: &Design,
    cfg: &SimConfig,
    faults: &FaultConfig,
) -> Result<SimReport, SimError> {
    run(design, cfg, faults, true)
}

fn run(
    design: &Design,
    cfg: &SimConfig,
    faults: &FaultConfig,
    stepping: bool,
) -> Result<SimReport, SimError> {
    cfg.validate()?;
    faults.validate()?;
    let mut interner = StageInterner::new();
    let mut root = lower_node(&design.root, &design.buffers, &mut interner)?;
    let stats = interner
        .names()
        .map(|name| StageStat {
            name: name.to_string(),
            invocations: 0,
            busy_cycles: 0.0,
            dram_words: 0,
        })
        .collect();
    let mut cx = SimCx {
        dram: Dram::with_faults(cfg, faults),
        stats,
        wd: Watchdog::new(cfg.cycle_budget),
        stepping,
        latency: cfg.dram_latency as f64,
    };
    let Timing { end, .. } = sim_node(&mut root, 0.0, &mut cx)?;
    let cycles = checked_cycles(end, cfg.cycle_budget)?;
    let mut stages = cx.stats;
    stages.retain(|s| s.invocations > 0);
    stages.sort_by(|a, b| a.name.cmp(&b.name));
    Ok(SimReport {
        design: design.name.clone(),
        style: design.style,
        cycles,
        seconds: cfg.cycles_to_seconds(end),
        dram_bytes: checked_u64(cx.dram.bytes_moved, "DRAM byte count")?,
        dram_words: cx.dram.words_requested,
        faults: cx.dram.fault_stats(),
        stages,
    })
}

/// Converts the final simulated time to a cycle count, rejecting
/// non-finite or over-budget values instead of wrapping in the cast.
fn checked_cycles(end: f64, budget: u64) -> Result<u64, SimError> {
    if !end.is_finite() || end < 0.0 {
        return Err(SimError::NonFinite {
            what: "cycle count",
        });
    }
    let c = end.ceil();
    if c > budget as f64 {
        return Err(SimError::BudgetExceeded {
            what: "cycle budget",
            budget,
        });
    }
    Ok(c as u64)
}

/// Guards an accumulated `f64` quantity before casting to `u64`.
fn checked_u64(v: f64, what: &'static str) -> Result<u64, SimError> {
    if !v.is_finite() || v < 0.0 || v >= u64::MAX as f64 {
        return Err(SimError::NonFinite { what });
    }
    Ok(v as u64)
}

/// Runaway protection: a configurable bound on simulated time plus a fixed
/// cap on engine events, so designs that loop without advancing the clock
/// (e.g. adversarial controllers with empty stage lists and huge trip
/// counts) still terminate with a structured error.
struct Watchdog {
    budget: f64,
    budget_cycles: u64,
    events: u64,
}

/// Engine-event cap. Legitimate benchmark runs are well under a million
/// events; this bounds adversarial configurations without slowing them.
const MAX_EVENTS: u64 = 20_000_000;

impl Watchdog {
    fn new(cycle_budget: u64) -> Watchdog {
        Watchdog {
            budget: cycle_budget as f64,
            budget_cycles: cycle_budget,
            events: 0,
        }
    }

    fn tick(&mut self, now: f64) -> Result<(), SimError> {
        self.events += 1;
        if self.events > MAX_EVENTS {
            return Err(SimError::BudgetExceeded {
                what: "event watchdog",
                budget: MAX_EVENTS,
            });
        }
        if now.is_nan() {
            return Err(SimError::NonFinite { what: "timestamp" });
        }
        if now > self.budget {
            return Err(SimError::BudgetExceeded {
                what: "cycle budget",
                budget: self.budget_cycles,
            });
        }
        Ok(())
    }
}

/// The two times a stage invocation produces: when its *data* is complete
/// (`end`) and when the unit itself is free to accept the next iteration
/// (`gate`). Pipelined units have `gate < end`: successive metapipeline
/// iterations enter at the occupancy interval while fill latency overlaps.
#[derive(Debug, Clone, Copy)]
struct Timing {
    end: f64,
    gate: f64,
}

/// Per-run simulation state threaded through the recursion: the DRAM
/// channel (borrowing the run's `SimConfig`), the id-indexed statistics,
/// the watchdog, and constants hoisted out of the event loop.
struct SimCx<'a> {
    dram: Dram<'a>,
    stats: Vec<StageStat>,
    wd: Watchdog,
    /// Step every iteration ([`simulate_stepping`]).
    stepping: bool,
    /// `cfg.dram_latency as f64`, hoisted.
    latency: f64,
}

/// A leaf unit with its per-invocation constants precomputed: everything
/// `sim_unit` needs that does not change between invocations.
struct LUnit<'d> {
    /// Dense stage id (index into [`SimCx::stats`]).
    id: u32,
    /// DRAM streams issued per invocation.
    streams: &'d [DramStream],
    /// `depth as f64`.
    depth: f64,
    /// Compute cycles per invocation: `ceil(elems / lanes)` (0 for
    /// tile-memory units).
    compute: f64,
    /// Whether any read stream is synchronous (the HLS-baseline shape).
    has_sync_reads: bool,
    /// Bandwidth derate when several synchronous streams interleave.
    efficiency: f64,
    /// Total words across all streams (per-invocation traffic counter).
    stream_words: u64,
    /// Tile-store leaf (posted hand-off in sequential controllers).
    is_store: bool,
}

/// A single-slot metapipeline channel: the producer stage cannot start
/// writing token *t* until the consumer has drained token *t−1* (there
/// is no second buffer half to write into). `cons_end_prev` rings the
/// consumer's previous-iteration completion forward to the producer.
/// Channels with two or more slots impose nothing beyond the existing
/// double-buffer gate, so only single-slot forward channels are lowered.
struct LChannel {
    producer: usize,
    consumer: usize,
    cons_end_prev: f64,
}

/// Which of the four loops [`sim_ctrl`] runs for a controller.
#[derive(Clone, Copy)]
enum Shape {
    /// A sequential controller iterating one pipelined unit.
    SeqUnit,
    /// Any other sequential controller.
    Seq,
    Parallel,
    Metapipeline,
}

/// A lowered controller. Metapipelines carry their wavefront scratch
/// vectors here so repeated invocations (a metapipeline nested under an
/// iterating parent) reuse the same backing storage.
struct LCtrl<'d> {
    shape: Shape,
    /// Trip count (at least 1).
    iters: u64,
    stages: Vec<LNode<'d>>,
    gate_scratch: Vec<f64>,
    end_scratch: Vec<f64>,
    channels: Vec<LChannel>,
    /// How many of the loop's [`Carried`] locals it really carries.
    live: usize,
    /// No unit below issues a DRAM stream.
    dram_free: bool,
    /// Present when the loop may be advanced in closed form: it is
    /// `dram_free` and has more iterations than [`probe_limit`] steps
    /// anyway.
    jump: Option<JumpScratch>,
}

/// What [`fast_forward`] remembers about the state before the iteration
/// it is probing. Lives in the controller so probing allocates nothing.
struct JumpScratch {
    /// Stat ids of the units below the controller, each once.
    stat_ids: Vec<u32>,
    /// The loop-carried times.
    times: Vec<f64>,
    /// `(invocations, busy_cycles)` per entry of `stat_ids`.
    stats: Vec<(u64, f64)>,
}

/// A lowered design-tree node.
enum LNode<'d> {
    Unit(LUnit<'d>),
    Ctrl(LCtrl<'d>),
}

impl LNode<'_> {
    fn dram_free(&self) -> bool {
        match self {
            LNode::Unit(u) => u.streams.is_empty(),
            LNode::Ctrl(c) => c.dram_free,
        }
    }

    /// Adds the stat ids of the units below this node to `out`.
    fn stat_ids(&self, out: &mut Vec<u32>) {
        match self {
            LNode::Unit(u) => out.push(u.id),
            LNode::Ctrl(c) => c.stages.iter().for_each(|s| s.stat_ids(out)),
        }
    }
}

fn lower_unit<'d>(u: &'d Unit, interner: &mut StageInterner) -> LUnit<'d> {
    let lanes = u.kind.lanes().max(1) as u64;
    let is_mem = matches!(
        u.kind,
        UnitKind::TileLoad { .. } | UnitKind::TileStore { .. }
    );
    let compute = if is_mem {
        0.0
    } else {
        (u.elems.div_ceil(lanes)) as f64
    };
    let sync_reads = u.streams.iter().filter(|s| !s.write).count();
    LUnit {
        id: interner.intern(&u.name),
        streams: &u.streams,
        depth: u.depth as f64,
        compute,
        has_sync_reads: u.streams.iter().any(|s| !s.write && !s.prefetch),
        efficiency: if sync_reads > 1 { 0.5 } else { 1.0 },
        stream_words: u.streams.iter().map(|s| s.words).sum(),
        is_store: matches!(u.kind, UnitKind::TileStore { .. }),
    }
}

/// Lowers the tree, visiting controllers in [`Node::visit_ctrls`] order.
///
/// # Errors
///
/// [`SimError::ChannelDeadlock`] for the first channel that cannot hold
/// one producer token: it can never make progress, so the run fails up
/// front (the static flow analyzer flags the same condition as PPHW041)
/// instead of spinning against the watchdog.
fn lower_node<'d>(
    node: &'d Node,
    buffers: &[Buffer],
    interner: &mut StageInterner,
) -> Result<LNode<'d>, SimError> {
    let c = match node {
        Node::Unit(u) => return Ok(LNode::Unit(lower_unit(u, interner))),
        Node::Ctrl(c) => c,
    };
    let all = metapipeline_channels(c, buffers);
    if let Some(ch) = all.iter().find(|ch| ch.slots() == 0) {
        return Err(SimError::ChannelDeadlock {
            channel: format!("{}/{}", ch.ctrl, ch.buf_name),
        });
    }
    // Forward channels squeezed down to a single token slot serialize
    // their endpoints; backward (loop-carried) channels are already
    // serialized by the wavefront itself.
    let channels: Vec<LChannel> = all
        .iter()
        .filter(|ch| ch.slots() == 1 && !ch.is_backward())
        .map(|ch| LChannel {
            producer: ch.producer,
            consumer: ch.consumer,
            cons_end_prev: 0.0,
        })
        .collect();
    let stages = c
        .stages
        .iter()
        .map(|s| lower_node(s, buffers, interner))
        .collect::<Result<Vec<_>, _>>()?;
    let shape = match c.kind {
        CtrlKind::Sequential if matches!(stages[..], [LNode::Unit(_)]) => Shape::SeqUnit,
        CtrlKind::Sequential => Shape::Seq,
        CtrlKind::Parallel => Shape::Parallel,
        CtrlKind::Metapipeline => Shape::Metapipeline,
    };
    // (metapipeline scratch length, carried locals)
    let (n, live) = match shape {
        Shape::SeqUnit => (0, 2),
        // Without a store stage `drain` stays at `start`, behind `t`.
        Shape::Seq => {
            let has_store = stages
                .iter()
                .any(|s| matches!(s, LNode::Unit(u) if u.is_store));
            (0, 1 + usize::from(has_store))
        }
        Shape::Parallel => (0, 1),
        Shape::Metapipeline => (stages.len(), 0),
    };
    let iters = c.iters.max(1);
    let dram_free = stages.iter().all(LNode::dram_free);
    let jump = (dram_free && iters > probe_limit(stages.len())).then(|| {
        let mut stat_ids = Vec::new();
        stages.iter().for_each(|s| s.stat_ids(&mut stat_ids));
        stat_ids.sort_unstable();
        stat_ids.dedup();
        JumpScratch {
            times: Vec::with_capacity(live + 2 * n + channels.len()),
            stats: Vec::with_capacity(stat_ids.len()),
            stat_ids,
        }
    });
    Ok(LNode::Ctrl(LCtrl {
        shape,
        iters,
        stages,
        gate_scratch: vec![0.0; n],
        end_scratch: vec![0.0; n],
        channels,
        live,
        dram_free,
        jump,
    }))
}

fn sim_node(node: &mut LNode, start: f64, cx: &mut SimCx) -> Result<Timing, SimError> {
    match node {
        LNode::Unit(u) => sim_unit(u, start, cx),
        LNode::Ctrl(c) => sim_ctrl(c, start, cx),
    }
}

/// One invocation of a leaf unit.
///
/// * Tile loads/stores: prefetched streams — latency once, channel-rate
///   transfer; the unit is busy for the transfer only.
/// * Compute units reading on-chip buffers: pipelined — `depth` fill plus
///   one element per lane per cycle.
/// * Compute units with synchronous DRAM read streams (the HLS-style
///   baseline): memory and compute are *serialized* — the design fetches
///   its operand set, then computes, with no prefetch overlap. This is the
///   behavior tiling + metapipelining removes (§4, §6.2).
fn sim_unit(u: &LUnit, start: f64, cx: &mut SimCx) -> Result<Timing, SimError> {
    let timing = if u.has_sync_reads {
        // Baseline-style leaf: one request round-trip per invocation, then
        // the operand streams transfer back-to-back. Within the instance
        // the pipeline consumes data as it arrives (the "pipelined
        // parallelism within patterns" every design shares), so compute
        // overlaps the streams; but nothing overlaps across instances.
        let issue = start + cx.latency;
        let mut mem_end = issue;
        for s in u.streams.iter().filter(|s| !s.write) {
            mem_end = cx.dram.request_sync_body(mem_end, s, u.efficiency);
        }
        let mut end = mem_end.max(issue + u.depth + u.compute);
        for s in u.streams.iter().filter(|s| s.write) {
            let done = cx.dram.request(issue, s);
            end = end.max(done);
        }
        Timing { end, gate: end }
    } else {
        // Pipelined unit: reads gate data-readiness; occupancy is the
        // larger of compute and channel transfer.
        let mut end = start + u.depth + u.compute;
        let mut gate = start + u.compute.max(1.0);
        for s in u.streams {
            let done = cx.dram.request(start, s);
            if s.write {
                end = end.max(done);
                gate = gate.max(done - start + start);
            } else {
                end = end.max(done);
                // The unit is occupied for the transfer (latency overlaps
                // with the next iteration's request).
                gate = gate.max(done - cx.latency);
            }
        }
        Timing {
            end,
            gate: gate.min(end),
        }
    };

    #[cfg(test)]
    tests::UNITS_STEPPED.with(|n| n.set(n.get() + 1));
    let stat = &mut cx.stats[u.id as usize];
    stat.invocations += 1;
    stat.busy_cycles += timing.end - start;
    stat.dram_words += u.stream_words;
    cx.wd.tick(timing.end)?;
    Ok(timing)
}

/// The loop-carried times a non-metapipeline loop keeps in locals (a
/// metapipeline's live in its scratch vectors): `[gate, end]` for
/// [`Shape::SeqUnit`], `[t, drain]` for [`Shape::Seq`], `[end, _]` for
/// [`Shape::Parallel`]. Only the first [`LCtrl::live`] are carried.
type Carried = [f64; 2];

/// One iteration of a controller loop: `(controller, its start, carried
/// locals, run state)`. The four bodies below are shared by the plain
/// loops in [`sim_ctrl`] and the probing prefix in [`fast_forward`].
type IterFn =
    for<'d, 'a> fn(&mut LCtrl<'d>, f64, &mut Carried, &mut SimCx<'a>) -> Result<(), SimError>;

/// A single pipelined unit iterated many times streams its iterations
/// back-to-back (initiation-interval pipelining — present in every
/// design, including the baseline; this is the paper's "pipelined
/// parallelism within patterns").
#[inline(always)]
fn seq_unit_iter(
    c: &mut LCtrl,
    _start: f64,
    v: &mut Carried,
    cx: &mut SimCx,
) -> Result<(), SimError> {
    let t = sim_node(&mut c.stages[0], v[0], cx)?;
    *v = [t.gate, t.end];
    Ok(())
}

/// Multiple stages run strictly back-to-back. Posted tile stores hand
/// their data to the store unit and let the next stage proceed; only the
/// final drain extends the total.
#[inline(always)]
fn seq_iter(c: &mut LCtrl, _start: f64, v: &mut Carried, cx: &mut SimCx) -> Result<(), SimError> {
    let [mut t, mut drain] = *v;
    cx.wd.tick(t)?;
    for s in &mut c.stages {
        let is_store = matches!(s, LNode::Unit(u) if u.is_store);
        let r = sim_node(s, t, cx)?;
        if is_store {
            drain = drain.max(r.end);
            t += 4.0; // hand-off to the store FIFO
        } else {
            t = r.end;
        }
    }
    *v = [t, drain];
    Ok(())
}

#[inline(always)]
fn parallel_iter(
    c: &mut LCtrl,
    _start: f64,
    v: &mut Carried,
    cx: &mut SimCx,
) -> Result<(), SimError> {
    let end = v[0];
    cx.wd.tick(end)?;
    let mut iter_end = end;
    for s in &mut c.stages {
        iter_end = iter_end.max(sim_node(s, end, cx)?.end);
    }
    v[0] = iter_end;
    Ok(())
}

/// Wavefront with II-pipelining: stage s of iteration t starts when its
/// input data is ready (stage s-1 of iteration t done) and the unit has
/// accepted iteration t-1 through its pipeline (the `gate`, enforced by
/// the double-buffer swap).
#[inline(always)]
fn metapipeline_iter(
    c: &mut LCtrl,
    start: f64,
    _v: &mut Carried,
    cx: &mut SimCx,
) -> Result<(), SimError> {
    let mut prev_stage_end = start;
    cx.wd.tick(prev_stage_end)?;
    for (s, stage) in c.stages.iter_mut().enumerate() {
        let mut st = prev_stage_end.max(c.gate_scratch[s]);
        for ch in &c.channels {
            if ch.producer == s {
                st = st.max(ch.cons_end_prev);
            }
        }
        let t = sim_node(stage, st, cx)?;
        c.gate_scratch[s] = t.gate;
        c.end_scratch[s] = t.end;
        for ch in &mut c.channels {
            if ch.consumer == s {
                ch.cons_end_prev = t.end;
            }
        }
        prev_stage_end = t.end;
    }
    Ok(())
}

fn sim_ctrl(c: &mut LCtrl, start: f64, cx: &mut SimCx) -> Result<Timing, SimError> {
    let mut v: Carried = [start; 2];
    let end = match c.shape {
        Shape::SeqUnit => {
            for _ in fast_forward(c, start, &mut v, seq_unit_iter, cx)?..c.iters {
                seq_unit_iter(c, start, &mut v, cx)?;
            }
            v[1]
        }
        Shape::Seq => {
            for _ in fast_forward(c, start, &mut v, seq_iter, cx)?..c.iters {
                seq_iter(c, start, &mut v, cx)?;
            }
            v[0].max(v[1])
        }
        Shape::Parallel => {
            for _ in fast_forward(c, start, &mut v, parallel_iter, cx)?..c.iters {
                parallel_iter(c, start, &mut v, cx)?;
            }
            v[0]
        }
        Shape::Metapipeline => {
            c.gate_scratch.fill(start);
            c.end_scratch.fill(start);
            for ch in &mut c.channels {
                ch.cons_end_prev = start;
            }
            for _ in fast_forward(c, start, &mut v, metapipeline_iter, cx)?..c.iters {
                metapipeline_iter(c, start, &mut v, cx)?;
            }
            c.end_scratch.iter().copied().fold(start, f64::max)
        }
    };
    Ok(Timing { end, gate: end })
}

/// Times the closed-form advance may touch are multiples of `1 / GRID`
/// no larger than `GRID_MAX`: 20 + 32 bits, so every sum of two of them
/// that stays in range is exact in `f64`.
const GRID_BITS: u32 = 20;
const GRID: f64 = (1u64 << GRID_BITS) as f64;
const GRID_MAX: f64 = (1u64 << 32) as f64;
/// `GRID_MAX` in `1 / GRID` units.
const GRID_MAX_UNITS: u64 = 1 << (32 + GRID_BITS);

/// `x` in `1 / GRID` units, if it lies on the grid.
fn on_grid(x: f64) -> Option<u64> {
    let scaled = x * GRID; // exact: a power of two
    let units = scaled as u64;
    ((0.0..=GRID_MAX).contains(&x) && units as f64 == scaled).then_some(units)
}

/// How many iterations [`fast_forward`] steps, at most, while it waits
/// for a loop over `stages` stages to settle: the wavefront fills in
/// about one iteration per stage.
fn probe_limit(stages: usize) -> u64 {
    stages as u64 + 4
}

/// The loop-carried times of `c`'s current invocation: the live locals,
/// then every stage's gate and end, then the single-slot channels.
fn carried<'s>(c: &'s mut LCtrl, v: &'s mut Carried) -> impl Iterator<Item = &'s mut f64> {
    v[..c.live]
        .iter_mut()
        .chain(&mut c.gate_scratch)
        .chain(&mut c.end_scratch)
        .chain(c.channels.iter_mut().map(|ch| &mut ch.cons_end_prev))
}

/// Runs the first iterations of a loop that draws nothing from DRAM and,
/// once one of them has moved every loop-carried time by the same λ > 0,
/// advances as many of the remaining ones as it can prove exact in
/// closed form. Returns how many iterations are done; the caller steps
/// the rest.
///
/// Below such a loop every time is `start` plus integers combined by
/// `max`/`min`, and nested loops reset their state on entry, so an
/// iteration is a function of the carried times alone (a metapipeline
/// reads `start` only in a `max` with its first stage's gate, which is
/// never earlier) that commutes with shifting them all by λ: iteration
/// *i + k* repeats iteration *i*, `kλ` later, with the same invocation
/// counts and busy times. That holds for the `f64` values only while
/// every add is exact, hence the grid: `k` is cut so that no time and no
/// `busy_cycles` sum passes `GRID_MAX`. It is also cut so that no
/// skipped iteration could have tripped the watchdog — every time shown
/// to it while iteration *i* runs is at most the largest carried time
/// after *i* — which leaves the iteration that does trip it to the
/// caller's plain loop. Nothing is drawn from the fault generator, so
/// all of this holds under fault injection too.
#[inline(always)]
fn fast_forward(
    c: &mut LCtrl,
    start: f64,
    v: &mut Carried,
    step: IterFn,
    cx: &mut SimCx,
) -> Result<u64, SimError> {
    // A loop that cannot advance pays these two tests and nothing else;
    // one that starts off the grid pays a call.
    if c.jump.is_none() || cx.stepping {
        return Ok(0);
    }
    probe(c, start, v, step, cx)
}

#[inline(never)]
fn probe(
    c: &mut LCtrl,
    start: f64,
    v: &mut Carried,
    step: IterFn,
    cx: &mut SimCx,
) -> Result<u64, SimError> {
    if on_grid(start).is_none() {
        return Ok(0);
    }
    let Some(mut before) = c.jump.take() else {
        return Ok(0);
    };
    let done = probe_with(c, &mut before, start, v, step, cx);
    c.jump = Some(before);
    done
}

fn probe_with(
    c: &mut LCtrl,
    before: &mut JumpScratch,
    start: f64,
    v: &mut Carried,
    step: IterFn,
    cx: &mut SimCx,
) -> Result<u64, SimError> {
    let limit = probe_limit(c.stages.len());
    for done in 1..=limit {
        before.times.clear();
        before.times.extend(carried(c, v).map(|t| *t));
        before.stats.clear();
        before.stats.extend(before.stat_ids.iter().map(|&id| {
            let s = &cx.stats[id as usize];
            (s.invocations, s.busy_cycles)
        }));
        let events = cx.wd.events;
        step(c, start, v, cx)?;
        if let Some(lambda) = uniform_shift(&before.times, carried(c, v)) {
            let remaining = c.iters - done;
            let now = carried(c, v).map(|t| *t);
            let k = exact_iterations(now, before, lambda, events, remaining, cx);
            let shift = k as f64 * lambda;
            carried(c, v).for_each(|t| *t += shift);
            for (&id, &(invocations, busy)) in before.stat_ids.iter().zip(&before.stats) {
                let s = &mut cx.stats[id as usize];
                s.invocations += k * (s.invocations - invocations);
                s.busy_cycles += k as f64 * (s.busy_cycles - busy);
            }
            cx.wd.events += k * (cx.wd.events - events);
            return Ok(done + k);
        }
    }
    Ok(limit)
}

/// The amount by which every time in `after` exceeds its counterpart in
/// `before`, if that is one positive amount.
fn uniform_shift<'s>(before: &[f64], after: impl Iterator<Item = &'s mut f64>) -> Option<f64> {
    let mut shifts = after.zip(before).map(|(after, before)| *after - before);
    let lambda = shifts.next()?;
    (lambda > 0.0 && shifts.all(|s| s == lambda)).then_some(lambda)
}

/// How many of the `remaining` iterations can be skipped with every
/// skipped `f64` add exact and no watchdog trip among them (see
/// [`fast_forward`]): `0` as soon as one value is off the grid.
fn exact_iterations(
    times: impl Iterator<Item = f64>,
    before: &JumpScratch,
    lambda: f64,
    events_before: u64,
    remaining: u64,
    cx: &SimCx,
) -> u64 {
    let (Some(lambda), Some(limit)) = (on_grid(lambda), on_grid(cx.wd.budget.min(GRID_MAX))) else {
        return 0;
    };
    let mut latest = 0;
    for t in times {
        match on_grid(t) {
            Some(t) => latest = latest.max(t),
            None => return 0,
        }
    }
    let events_per_iter = (cx.wd.events - events_before).max(1);
    let mut k = remaining
        .min(limit.saturating_sub(latest) / lambda)
        .min(MAX_EVENTS.saturating_sub(cx.wd.events) / events_per_iter);
    for (&id, &(_, busy)) in before.stat_ids.iter().zip(&before.stats) {
        let (Some(busy), Some(now)) = (on_grid(busy), on_grid(cx.stats[id as usize].busy_cycles))
        else {
            return 0;
        };
        if now > busy {
            k = k.min((GRID_MAX_UNITS - now) / (now - busy));
        }
    }
    k
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use pphw_hw::design::{BufId, Buffer, BufferKind, Ctrl, DesignStyle};

    thread_local! {
        /// Units this thread really stepped: the report cannot tell a
        /// stepped invocation from one advanced over.
        pub(super) static UNITS_STEPPED: std::cell::Cell<u64> =
            const { std::cell::Cell::new(0) };
    }

    /// Simulates, returning `(invocations reported, units stepped)`.
    fn reported_and_stepped(d: &Design, cfg: &SimConfig) -> (u64, u64) {
        UNITS_STEPPED.with(|n| n.set(0));
        let report = simulate(d, cfg);
        let stepped = UNITS_STEPPED.with(std::cell::Cell::get);
        assert_eq!(
            Ok(&report),
            simulate_stepping(d, cfg, &FaultConfig::none()).as_ref()
        );
        (report.stages.iter().map(|s| s.invocations).sum(), stepped)
    }

    /// A 100-word tile load (1.5 cycles of transfer on the default
    /// substrate) feeding a DRAM-free metapipeline of `iters` iterations,
    /// three tiles long.
    fn tile_then_inner(iters: u64, first: u64, second: u64) -> Design {
        let mut a = compute_unit(first, 1);
        a.name = "a".into();
        a.reads.clear();
        let inner = Node::Ctrl(Ctrl {
            name: "inner".into(),
            kind: CtrlKind::Metapipeline,
            iters,
            stages: vec![Node::Unit(a), Node::Unit(compute_unit(second, 1))],
        });
        design(
            CtrlKind::Metapipeline,
            3,
            vec![Node::Unit(load_unit(100)), inner],
        )
    }

    #[test]
    fn periodic_dram_free_loop_is_advanced_on_dyadic_substrates() {
        let d = tile_then_inner(4096, 9, 2);
        for (name, cfg) in SimConfig::named_variants() {
            let (reported, stepped) = reported_and_stepped(&d, &cfg);
            assert_eq!(reported, 3 + 3 * 4096 * 2, "{name}");
            assert!(stepped < 40, "{name}: stepped {stepped} units");
        }
    }

    #[test]
    fn off_grid_substrate_steps_every_iteration() {
        // 7 bursts at 76.8 bytes per cycle: the load ends off the grid.
        let cfg = SimConfig::default()
            .with_clock_mhz(250.0)
            .with_dram_gbps(19.2)
            .with_burst_bytes(64);
        let (reported, stepped) = reported_and_stepped(&tile_then_inner(4096, 9, 2), &cfg);
        assert_eq!(stepped, reported);
    }

    #[test]
    fn loop_whose_stages_drift_apart_keeps_stepping() {
        // The second stage is the slower one: the first runs ahead of it
        // by 7 more cycles every iteration, so no single shift describes
        // an iteration.
        let (reported, stepped) =
            reported_and_stepped(&tile_then_inner(4096, 2, 9), &SimConfig::default());
        assert_eq!(stepped, reported);
    }

    /// Shadows the fallible entry point: every design in these timing
    /// tests is valid and in budget.
    fn simulate(d: &Design, cfg: &SimConfig) -> SimReport {
        super::simulate(d, cfg).expect("test design simulates")
    }

    fn load_unit(words: u64) -> Unit {
        Unit {
            name: "load".into(),
            kind: UnitKind::TileLoad { buf: BufId(0) },
            elems: words,
            ops_per_elem: 0,
            depth: 4,
            streams: vec![DramStream {
                words,
                run_words: words,
                prefetch: true,
                write: false,
            }],
            reads: vec![],
            writes: vec![BufId(0)],
        }
    }

    fn compute_unit(elems: u64, lanes: u32) -> Unit {
        Unit {
            name: "compute".into(),
            kind: UnitKind::Vector { lanes },
            elems,
            ops_per_elem: 1,
            depth: 8,
            streams: vec![],
            reads: vec![BufId(0)],
            writes: vec![],
        }
    }

    fn design(kind: CtrlKind, iters: u64, stages: Vec<Node>) -> Design {
        Design {
            name: "t".into(),
            style: DesignStyle::Metapipelined,
            root: Node::Ctrl(Ctrl {
                name: "root".into(),
                kind,
                iters,
                stages,
            }),
            // Sized to hold the largest token these tests stream (the
            // 96k-word loads): the channel capacity model would reject a
            // metapipeline whose double buffer cannot hold one token.
            buffers: vec![Buffer {
                id: BufId(0),
                name: "b".into(),
                words: 131_072,
                word_bytes: 4,
                kind: BufferKind::DoubleBuffer,
                banks: 1,
                readers: 1,
                writers: 1,
            }],
        }
    }

    #[test]
    fn metapipeline_overlaps_stages() {
        // Balanced stages: load transfer (~810 cyc) vs compute (~758 cyc).
        let stages = || {
            vec![
                Node::Unit(load_unit(96_000)),
                Node::Unit(compute_unit(96_000, 128)),
            ]
        };
        let seq = simulate(
            &design(CtrlKind::Sequential, 64, stages()),
            &SimConfig::default(),
        );
        let meta = simulate(
            &design(CtrlKind::Metapipeline, 64, stages()),
            &SimConfig::default(),
        );
        assert!(
            (meta.cycles as f64) < 0.75 * seq.cycles as f64,
            "meta {} should clearly beat seq {}",
            meta.cycles,
            seq.cycles
        );
    }

    #[test]
    fn metapipeline_bounded_by_slowest_stage() {
        let stages = vec![
            Node::Unit(load_unit(256)),
            Node::Unit(compute_unit(65536, 1)),
        ];
        let meta = simulate(
            &design(CtrlKind::Metapipeline, 16, stages),
            &SimConfig::default(),
        );
        // Slowest stage: 65536 elems / 1 lane = 65536 cycles, 16 iterations.
        assert!(meta.cycles as f64 >= 16.0 * 65536.0);
        assert!((meta.cycles as f64) < 16.0 * 65536.0 * 1.1);
    }

    #[test]
    fn parallel_takes_max_of_members() {
        let stages = vec![
            Node::Unit(compute_unit(1000, 1)),
            Node::Unit(compute_unit(100, 1)),
        ];
        let par = simulate(
            &design(CtrlKind::Parallel, 1, stages),
            &SimConfig::default(),
        );
        assert!(par.cycles >= 1008 && par.cycles < 1200, "{}", par.cycles);
    }

    #[test]
    fn dram_contention_serializes_loads() {
        // Two parallel loads share the channel: total time ~ sum of
        // transfers, not max.
        let stages = vec![Node::Unit(load_unit(96_000)), Node::Unit(load_unit(96_000))];
        let par = simulate(
            &design(CtrlKind::Parallel, 1, stages),
            &SimConfig::default(),
        );
        let single = simulate(
            &design(CtrlKind::Parallel, 1, vec![Node::Unit(load_unit(96_000))]),
            &SimConfig::default(),
        );
        let t2 = par.cycles as f64;
        let t1 = single.cycles as f64;
        assert!(t2 > 1.7 * (t1 - 60.0), "two loads {} vs one {}", t2, t1);
    }

    #[test]
    fn report_tracks_traffic() {
        let r = simulate(
            &design(CtrlKind::Sequential, 4, vec![Node::Unit(load_unit(96))]),
            &SimConfig::default(),
        );
        assert_eq!(r.dram_words, 4 * 96);
        assert_eq!(r.dram_bytes, 4 * 384);
        assert_eq!(r.stages.len(), 1);
        assert_eq!(r.stages[0].invocations, 4);
    }

    /// A compute unit that fetches its operands through a *synchronous*
    /// (non-prefetched) DRAM stream — the HLS-style baseline shape.
    fn sync_compute_unit(elems: u64) -> Unit {
        Unit {
            name: "sync_compute".into(),
            kind: UnitKind::Vector { lanes: 1 },
            elems,
            ops_per_elem: 1,
            depth: 8,
            streams: vec![DramStream {
                words: elems,
                run_words: elems,
                prefetch: false,
                write: false,
            }],
            reads: vec![],
            writes: vec![],
        }
    }

    /// The documented `gate < end` pipelining invariant, observed through a
    /// sequential controller iterating one pipelined unit: successive
    /// iterations enter at the occupancy interval (`gate`, ~compute) while
    /// the fill latency (`depth`) overlaps, so N iterations cost
    /// ~`depth + N*compute`, not `N*(depth + compute)`.
    #[test]
    fn pipelined_unit_gate_precedes_end() {
        let iters = 32u64;
        let (depth_free, per_iter) = (32.0, 64.0);
        let mut unit = compute_unit(64, 1);
        unit.depth = 32;
        let r = simulate(
            &design(CtrlKind::Sequential, iters, vec![Node::Unit(unit)]),
            &SimConfig::default(),
        );
        let pipelined = iters as f64 * per_iter + depth_free;
        let serialized = iters as f64 * (per_iter + depth_free);
        assert!(
            r.cycles as f64 >= iters as f64 * per_iter,
            "cannot beat pure compute: {}",
            r.cycles
        );
        assert!(
            (r.cycles as f64) <= pipelined * 1.05,
            "fill latency must overlap across iterations (gate < end): \
             got {} cycles, pipelined bound {pipelined}, serialized {serialized}",
            r.cycles
        );
    }

    /// The same invariant inside a metapipelined controller: the
    /// double-buffer swap admits iteration t+1 at the stage's `gate`, so a
    /// one-stage metapipeline streams at the initiation interval.
    #[test]
    fn metapipeline_gate_admits_next_iteration_early() {
        let iters = 32u64;
        let mut unit = compute_unit(64, 1);
        unit.depth = 32;
        let r = simulate(
            &design(CtrlKind::Metapipeline, iters, vec![Node::Unit(unit)]),
            &SimConfig::default(),
        );
        assert!(r.cycles as f64 >= 32.0 * 64.0);
        assert!(
            (r.cycles as f64) <= (32.0 * 64.0 + 32.0) * 1.05,
            "metapipeline must II-pipeline its stage: {}",
            r.cycles
        );
    }

    /// The HLS-style baseline serializes memory and compute: a unit with a
    /// synchronous read stream pays the full request latency on every
    /// invocation (`gate == end`, no cross-invocation overlap), unlike the
    /// same compute fed from prefetched streams.
    #[test]
    fn sync_reads_serialize_memory_and_compute() {
        let cfg = SimConfig::default();
        let iters = 4u64;
        let elems = 1000u64;

        let sync = simulate(
            &design(
                CtrlKind::Sequential,
                iters,
                vec![Node::Unit(sync_compute_unit(elems))],
            ),
            &cfg,
        );
        // Every invocation pays latency + fill + compute, back-to-back.
        let per_invocation = (cfg.dram_latency + 8 + elems) as f64;
        assert!(
            sync.cycles as f64 >= iters as f64 * per_invocation * 0.99,
            "baseline invocations must serialize: {} < {}",
            sync.cycles,
            iters as f64 * per_invocation
        );

        // The identical compute with prefetched operands pipelines across
        // invocations and beats the baseline by ~the per-invocation
        // latency+fill overhead.
        let mut prefetched = compute_unit(elems, 1);
        prefetched.depth = 8;
        prefetched.streams = vec![DramStream {
            words: elems,
            run_words: elems,
            prefetch: true,
            write: false,
        }];
        let pipe = simulate(
            &design(CtrlKind::Sequential, iters, vec![Node::Unit(prefetched)]),
            &cfg,
        );
        assert!(
            pipe.cycles + (iters - 1) * cfg.dram_latency / 2 < sync.cycles,
            "prefetched {} should clearly beat serialized {}",
            pipe.cycles,
            sync.cycles
        );
    }

    /// Cycle counts are a pure function of (design, config): repeated
    /// `simulate` calls agree exactly.
    #[test]
    fn simulate_deterministic_across_calls() {
        let cfg = SimConfig::default();
        let stages = || {
            vec![
                Node::Unit(load_unit(96_000)),
                Node::Unit(compute_unit(96_000, 128)),
                Node::Unit(sync_compute_unit(512)),
            ]
        };
        let d = design(CtrlKind::Metapipeline, 16, stages());
        let first = simulate(&d, &cfg);
        for _ in 0..4 {
            let again = simulate(&d, &cfg);
            assert_eq!(
                first.cycles, again.cycles,
                "cycle count must be deterministic"
            );
            assert_eq!(first.dram_words, again.dram_words);
            assert_eq!(first.dram_bytes, again.dram_bytes);
            assert_eq!(first.stages.len(), again.stages.len());
            for (a, b) in first.stages.iter().zip(&again.stages) {
                assert_eq!(a.invocations, b.invocations);
                assert!((a.busy_cycles - b.busy_cycles).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn seconds_consistent_with_cycles() {
        let cfg = SimConfig::default();
        let r = simulate(
            &design(
                CtrlKind::Sequential,
                1,
                vec![Node::Unit(compute_unit(1500, 1))],
            ),
            &cfg,
        );
        let expected = r.cycles as f64 / (cfg.clock_mhz * 1e6);
        assert!((r.seconds - expected).abs() / expected < 0.01);
    }

    #[test]
    fn invalid_config_rejected_before_simulation() {
        let d = design(
            CtrlKind::Sequential,
            1,
            vec![Node::Unit(compute_unit(16, 1))],
        );
        let err = super::simulate(&d, &SimConfig::default().with_clock_mhz(0.0)).unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig { .. }));
        let err = super::simulate_with_faults(
            &d,
            &SimConfig::default(),
            &FaultConfig::none().with_burst_fail_rate(2.0),
        )
        .unwrap_err();
        assert!(matches!(err, SimError::InvalidFaultConfig { .. }));
    }

    /// A configuration whose runtime blows past the watchdog budget fails
    /// with a structured error instead of grinding on (or, for genuinely
    /// astronomical trip counts, wrapping the cycle cast).
    #[test]
    fn over_budget_run_is_a_structured_error() {
        let d = design(
            CtrlKind::Sequential,
            1_000_000,
            vec![Node::Unit(compute_unit(1000, 1))],
        );
        let cfg = SimConfig::default().with_cycle_budget(10_000);
        match super::simulate(&d, &cfg) {
            Err(SimError::BudgetExceeded { budget: 10_000, .. }) => {}
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
    }

    /// A controller that never advances the clock (empty stage list, huge
    /// trip count) would previously hang; the event watchdog converts it
    /// into an error.
    #[test]
    fn runaway_controller_hits_event_watchdog() {
        let d = design(CtrlKind::Parallel, u64::MAX, vec![]);
        match super::simulate(&d, &SimConfig::default()) {
            Err(SimError::BudgetExceeded {
                what: "event watchdog",
                ..
            }) => {}
            other => panic!("expected event-watchdog trip, got {other:?}"),
        }
    }

    /// The tentpole's bit-identity guarantee: an inert fault config takes
    /// the exact fault-free code path.
    #[test]
    fn zero_fault_config_reproduces_simulate_bit_identically() {
        let cfg = SimConfig::default();
        let stages = vec![
            Node::Unit(load_unit(96_000)),
            Node::Unit(compute_unit(96_000, 128)),
            Node::Unit(sync_compute_unit(512)),
        ];
        let d = design(CtrlKind::Metapipeline, 16, stages);
        let clean = super::simulate(&d, &cfg).unwrap();
        let inert =
            super::simulate_with_faults(&d, &cfg, &FaultConfig::none().with_seed(0xDEAD)).unwrap();
        assert_eq!(clean.cycles, inert.cycles);
        assert_eq!(clean.seconds.to_bits(), inert.seconds.to_bits());
        assert_eq!(clean.dram_bytes, inert.dram_bytes);
        assert_eq!(clean.dram_words, inert.dram_words);
        assert_eq!(inert.faults, crate::fault::FaultStats::default());
        for (a, b) in clean.stages.iter().zip(&inert.stages) {
            assert_eq!(a.busy_cycles.to_bits(), b.busy_cycles.to_bits());
        }
    }

    /// A metapipeline double buffer that cannot hold one producer token
    /// is rejected before the event loop, naming the channel.
    #[test]
    fn zero_slot_channel_errors_up_front() {
        let stages = vec![
            Node::Unit(load_unit(96_000)),
            Node::Unit(compute_unit(96_000, 128)),
        ];
        let mut d = design(CtrlKind::Metapipeline, 8, stages);
        d.buffers[0].words = 40_000; // capacity 80k < one 96k-word token
        match super::simulate(&d, &SimConfig::default()) {
            Err(SimError::ChannelDeadlock { channel }) => assert_eq!(channel, "root/b"),
            other => panic!("expected ChannelDeadlock, got {other:?}"),
        }
    }

    /// The channel capacity model: a single-slot channel serializes its
    /// endpoints (strictly slower than the double-buffered run), while
    /// slack beyond two slots changes nothing — the two-slot schedule is
    /// already fully overlapped.
    #[test]
    fn single_slot_serializes_and_extra_slots_are_free() {
        let cfg = SimConfig::default();
        let stages = || {
            vec![
                Node::Unit(load_unit(96_000)),
                Node::Unit(compute_unit(96_000, 128)),
            ]
        };
        let run = |words: u64| {
            let mut d = design(CtrlKind::Metapipeline, 8, stages());
            d.buffers[0].words = words;
            super::simulate(&d, &cfg).expect("simulates")
        };
        let minimal = run(96_000); // exactly one token per half: 2 slots
        let slack = run(384_000); // 8 slots
        let single = run(95_999); // capacity 191,998: one token fits
        assert_eq!(minimal.cycles, slack.cycles, "extra slots must be free");
        assert_eq!(minimal.seconds.to_bits(), slack.seconds.to_bits());
        for (a, b) in minimal.stages.iter().zip(&slack.stages) {
            assert_eq!(a.busy_cycles.to_bits(), b.busy_cycles.to_bits());
        }
        assert!(
            single.cycles > minimal.cycles,
            "one slot must stall the producer: {} vs {}",
            single.cycles,
            minimal.cycles
        );
    }

    /// Same seed ⇒ identical faulted report; fault-free cycles never
    /// exceed faulted cycles (penalties are additive).
    #[test]
    fn faulted_runs_deterministic_and_never_faster_than_clean() {
        let cfg = SimConfig::default();
        let stages = || {
            vec![
                Node::Unit(load_unit(96_000)),
                Node::Unit(compute_unit(96_000, 128)),
            ]
        };
        let d = design(CtrlKind::Metapipeline, 32, stages());
        let clean = super::simulate(&d, &cfg).unwrap();
        for seed in [1u64, 42, 0xFEED] {
            let faults = FaultConfig::none()
                .with_seed(seed)
                .with_latency_jitter(24)
                .with_degradation(2048, 256, 1.5)
                .with_burst_fail_rate(0.05);
            let a = super::simulate_with_faults(&d, &cfg, &faults).unwrap();
            let b = super::simulate_with_faults(&d, &cfg, &faults).unwrap();
            assert_eq!(a.cycles, b.cycles, "seed {seed} must reproduce");
            assert_eq!(a.dram_bytes, b.dram_bytes);
            assert_eq!(a.faults, b.faults);
            assert!(
                clean.cycles <= a.cycles,
                "seed {seed}: faulted run {} beat clean {}",
                a.cycles,
                clean.cycles
            );
            assert!(
                a.faults.retries > 0 || a.faults.jitter_cycles > 0,
                "seed {seed}: fault model injected nothing"
            );
        }
    }
}
