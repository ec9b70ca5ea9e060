//! Hardware generation: tiled PPL programs to template-based designs (§5).
//!
//! The generator walks the (tiled) IR and maps each construct to the
//! templates of Table 4:
//!
//! * explicit tile copies → tile-load units feeding on-chip buffers;
//! * outer patterns containing multiple inner patterns → metapipeline
//!   controllers whose stages come from a topological pass over the body;
//! * inner patterns over scalars → vector units, reduction trees,
//!   parallel FIFOs and CAMs;
//! * statically-sized arrays → buffers; non-affine main-memory accesses →
//!   caches; dynamically-sized outputs → FIFOs;
//! * `MultiFold` accumulators whose outer update is an elementwise merge
//!   are *elided*: the inner pattern accumulates directly into the outer
//!   buffer (the paper's redundant-accumulator removal);
//! * every buffer written in one metapipeline stage and read in a later
//!   one is promoted to a double buffer (WAR hazard avoidance).
//!
//! Generating from an *untiled* program with [`HwConfig::baseline`] yields
//! the paper's comparison baseline: sequential composition, inner
//! parallelism only, and synchronous burst-granularity DRAM streams.

use std::collections::{BTreeMap, BTreeSet};

use pphw_ir::access::{classify_index, IndexClass};
use pphw_ir::block::{Block, Op, SliceDim, Stmt};
use pphw_ir::expr::Expr;
use pphw_ir::pattern::Pattern;
use pphw_ir::program::Program;
use pphw_ir::size::{Size, SizeEnv};
use pphw_ir::types::{Sym, Type};

use crate::config::HwConfig;
use crate::design::{
    BufId, Buffer, BufferKind, Ctrl, CtrlKind, Design, DesignStyle, DramStream, Node, Unit,
    UnitKind,
};

/// Errors produced during hardware generation.
#[derive(Debug, Clone, PartialEq)]
pub enum HwError {
    /// A size expression could not be evaluated with the provided sizes.
    Size(String),
    /// The program has an unsupported structure.
    Unsupported(String),
}

impl std::fmt::Display for HwError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HwError::Size(m) => write!(f, "size evaluation failed: {m}"),
            HwError::Unsupported(m) => write!(f, "unsupported program structure: {m}"),
        }
    }
}

impl std::error::Error for HwError {}

/// The last element of a pattern's domain/parameter list, or a typed
/// error for adversarial IR with an empty list.
fn last_or_unsupported<'x, T>(xs: &'x [T], what: &'static str) -> Result<&'x T, HwError> {
    xs.last()
        .ok_or_else(|| HwError::Unsupported(format!("pattern has empty {what}")))
}

/// Generates a hardware design from a program with concrete sizes.
///
/// # Errors
///
/// Returns [`HwError`] if sizes cannot be evaluated or the program uses an
/// unsupported structure.
pub fn generate(
    prog: &Program,
    env: &SizeEnv,
    cfg: &HwConfig,
    style: DesignStyle,
) -> Result<Design, HwError> {
    let mut g = Gen {
        prog,
        env,
        cfg,
        baseline: style == DesignStyle::Baseline,
        buffers: Vec::new(),
        buf_of: BTreeMap::new(),
        slice_base: BTreeMap::new(),
        dram: prog.inputs.iter().copied().collect(),
        cache_of: BTreeMap::new(),
        scope: BTreeSet::new(),
        vector_dim: None,
        vector_dim_applied: false,
    };
    // Program outputs live in DRAM.
    for s in prog.outputs() {
        g.dram.insert(*s);
    }

    let mut stages = Vec::new();
    for stmt in &prog.body.stmts {
        if let Some(node) = g.gen_stmt(stmt, true)? {
            stages.push(node);
        }
    }
    let root = match (stages.pop(), stages.is_empty()) {
        (Some(only), true) => only,
        (popped, _) => {
            stages.extend(popped);
            Node::Ctrl(Ctrl {
                name: format!("{}_top", prog.name),
                kind: CtrlKind::Sequential,
                iters: 1,
                stages,
            })
        }
    };
    let mut design = Design {
        name: prog.name.clone(),
        style,
        root,
        buffers: g.buffers,
    };
    promote_double_buffers(&mut design);
    bank_buffers(&mut design);
    Ok(design)
}

struct Gen<'a> {
    prog: &'a Program,
    env: &'a SizeEnv,
    cfg: &'a HwConfig,
    /// Generating the HLS-style baseline (from an untiled program).
    baseline: bool,
    buffers: Vec<Buffer>,
    /// IR symbol → on-chip buffer.
    buf_of: BTreeMap<Sym, BufId>,
    /// Slice view → base tensor symbol.
    slice_base: BTreeMap<Sym, Sym>,
    /// DRAM-resident symbols.
    dram: BTreeSet<Sym>,
    /// DRAM tensor → cache buffer (for non-affine accesses).
    cache_of: BTreeMap<Sym, BufId>,
    /// Pattern indices of all enclosing controllers (used to distinguish
    /// outer-indexed affine accesses from data-dependent ones).
    scope: BTreeSet<Sym>,
    /// Baseline map vectorization: the innermost map index and the lane
    /// factor. Leaf DRAM reads varying with this index are scaled to cover
    /// one vector of instances.
    vector_dim: Option<(Sym, u64)>,
    /// Whether the most recent map controller vectorized its instances.
    vector_dim_applied: bool,
}

impl<'a> Gen<'a> {
    fn eval(&self, s: &Size) -> Result<u64, HwError> {
        s.eval(self.env)
            .map(|v| v as u64)
            .map_err(|e| HwError::Size(format!("{s}: {e}")))
    }

    fn shape_elems(&self, shape: &[Size]) -> Result<u64, HwError> {
        let mut n = 1u64;
        for s in shape {
            n = n.saturating_mul(self.eval(s)?);
        }
        Ok(n)
    }

    fn alloc_buffer(&mut self, name: &str, words: u64, word_bytes: u32, kind: BufferKind) -> BufId {
        let id = BufId(self.buffers.len());
        self.buffers.push(Buffer {
            id,
            name: name.to_string(),
            words,
            word_bytes,
            kind,
            banks: 1,
            readers: 0,
            writers: 0,
        });
        id
    }

    fn base_of(&self, sym: Sym) -> Sym {
        let mut s = sym;
        while let Some(&b) = self.slice_base.get(&s) {
            s = b;
        }
        s
    }

    /// Generates a node for one top-level or nested statement. Returns
    /// `None` for statements that don't become stages (scalar glue,
    /// slices).
    fn gen_stmt(&mut self, stmt: &Stmt, top: bool) -> Result<Option<Node>, HwError> {
        match &stmt.op {
            Op::Expr(_) | Op::VarVec(_) => Ok(None),
            Op::Slice(s) => {
                self.slice_base.insert(stmt.sym(), s.tensor);
                Ok(None)
            }
            Op::Copy(c) => {
                let tile = stmt.sym();
                let (words, word_bytes) = self.tensor_words(tile)?;
                let buf =
                    self.alloc_buffer(&self.name_of(tile), words, word_bytes, BufferKind::Buffer);
                self.buf_of.insert(tile, buf);
                let base = self.base_of(c.tensor);
                let run = self.copy_run(base, &c.dims)?;
                Ok(Some(Node::Unit(Unit {
                    name: format!("load_{}", self.name_of(tile)),
                    kind: UnitKind::TileLoad { buf },
                    elems: words,
                    ops_per_elem: 0,
                    depth: 4,
                    streams: vec![DramStream {
                        words,
                        run_words: run,
                        prefetch: true,
                        write: false,
                    }],
                    reads: vec![],
                    writes: vec![buf],
                })))
            }
            Op::Pattern(p) => self.gen_pattern(stmt, p, top).map(Some),
        }
    }

    fn name_of(&self, sym: Sym) -> String {
        self.prog.syms.info(sym).name.clone()
    }

    fn tensor_words(&self, sym: Sym) -> Result<(u64, u32), HwError> {
        match self.prog.ty(sym) {
            Type::Tensor { elem, shape } => Ok((
                self.shape_elems(shape)?.saturating_mul(elem.width() as u64),
                4,
            )),
            Type::Scalar(s) => Ok((s.width() as u64, 4)),
            Type::DynVec { .. } => Ok((self.cfg.cam_entries, 4)),
            Type::Dict { .. } => Ok((self.cfg.cam_entries, 8)),
        }
    }

    /// Contiguous run length (in words) for a tile copy: the product of
    /// trailing fully-covered dimensions times the last windowed extent.
    fn copy_run(&self, tensor: Sym, dims: &[SliceDim]) -> Result<u64, HwError> {
        let shape = self.prog.ty(tensor).shape().to_vec();
        let mut run = 1u64;
        for (d, full) in dims.iter().zip(&shape).rev() {
            match d {
                SliceDim::Full => {
                    run = run.saturating_mul(self.eval(full)?);
                }
                SliceDim::Window { len, .. } => {
                    let l = self.eval(len)?;
                    let covers = self.eval(full)? == l;
                    run = run.saturating_mul(l);
                    if !covers {
                        break;
                    }
                }
                SliceDim::Point(_) => break,
            }
        }
        Ok(run.max(1))
    }

    fn gen_pattern(&mut self, stmt: &Stmt, p: &Pattern, top: bool) -> Result<Node, HwError> {
        if is_leaf(p) {
            return self.gen_leaf(stmt, p, top);
        }
        self.gen_outer(stmt, p, top)
    }

    // ---- outer (controller) patterns ----

    fn gen_outer(&mut self, stmt: &Stmt, p: &Pattern, top: bool) -> Result<Node, HwError> {
        let iters = {
            let mut n = 1u64;
            for d in p.domain() {
                n = n.saturating_mul(self.eval(d)?);
            }
            n
        };
        let name = self.name_of(stmt.syms[0]);
        let scope_added: Vec<Sym> = p
            .param_syms()
            .into_iter()
            .filter(|s| self.scope.insert(*s))
            .collect();

        let mut stages: Vec<Node> = Vec::new();
        match p {
            Pattern::MultiFold(mf) => {
                // Allocate accumulator storage for outputs first.
                let acc_bufs = self.alloc_acc_buffers(stmt, mf, top)?;
                // Detect elided merges so inner partials alias the output
                // buffers.
                if self.cfg.elide_accumulators {
                    self.alias_elided_partials(mf, &acc_bufs);
                }
                for s in &mf.pre.stmts {
                    if let Some(node) = self.gen_stmt(s, false)? {
                        stages.push(node);
                    }
                }
                // Update stages.
                for (q, u) in mf.updates.iter().enumerate() {
                    let acc_sym = stmt.syms[q];
                    let region_words = if u.shape.is_empty() {
                        self.acc_elem_width(mf, q)
                    } else {
                        self.shape_elems(&u.shape)?
                            .saturating_mul(self.acc_elem_width(mf, q))
                    };
                    match self.classify_update(mf, q) {
                        UpdateKind::WriteThrough(partial) => {
                            if self.dram.contains(&acc_sym) {
                                // Store region to DRAM per iteration.
                                let src = self.buf_of.get(&partial).copied();
                                let run = region_store_run(self, mf, q)?;
                                stages.push(Node::Unit(Unit {
                                    name: format!("store_{name}"),
                                    kind: UnitKind::TileStore {
                                        buf: src.unwrap_or(BufId(0)),
                                    },
                                    elems: region_words,
                                    ops_per_elem: 0,
                                    depth: 4,
                                    streams: vec![DramStream {
                                        words: region_words,
                                        run_words: run,
                                        prefetch: true,
                                        write: true,
                                    }],
                                    reads: src.into_iter().collect(),
                                    writes: vec![],
                                }));
                            }
                            // On-chip write-through: no stage needed.
                        }
                        UpdateKind::Elided => {
                            // Inner pattern accumulates in place; if the
                            // accumulator is a DRAM output, store it after
                            // the loop (handled by the final store pass).
                        }
                        UpdateKind::Compute => {
                            // The update body carries real nested compute
                            // (e.g. the interchanged map-of-fold of Table 3):
                            // its pattern statements become stages. The
                            // accumulator parameter and the body result both
                            // alias the accumulator buffer so reads/writes
                            // are attributed correctly.
                            let acc_buf = acc_bufs.get(q).copied().flatten();
                            if let Some(buf) = acc_buf {
                                self.buf_of.insert(u.acc_param, buf);
                                for r in &u.body.result {
                                    self.buf_of.insert(*r, buf);
                                }
                            }
                            for s in &u.body.stmts {
                                if let Some(node) = self.gen_stmt(s, false)? {
                                    stages.push(node);
                                }
                            }
                        }
                        UpdateKind::Merge => {
                            let ops = block_flops(&u.body);
                            let acc_buf = acc_bufs.get(q).copied().flatten();
                            let mut reads: Vec<BufId> = acc_buf.into_iter().collect();
                            reads.extend(self.block_buffer_reads(&u.body));
                            stages.push(Node::Unit(Unit {
                                name: format!("acc_{name}"),
                                kind: UnitKind::Vector {
                                    lanes: self.cfg.inner_par.min(region_words.max(1) as u32),
                                },
                                elems: region_words,
                                ops_per_elem: ops.max(1),
                                depth: 6,
                                streams: vec![],
                                reads,
                                writes: acc_buf.into_iter().collect(),
                            }));
                        }
                    }
                }
                // DRAM-resident accumulator updated with elision/merge
                // still needs a final store after the loop: emitted by the
                // caller via `final_store`.
            }
            Pattern::Map(m) => {
                let saved_vector = self.vector_dim.take();
                if self.baseline {
                    let vsym = *last_or_unsupported(&m.body.params, "map params")?;
                    // Vectorize map instances only when it coalesces
                    // memory: some DRAM read's last dimension is indexed
                    // directly by the innermost map index (a gather that
                    // becomes a lane-contiguous read, e.g. gemm's columns
                    // of y). Otherwise the baseline simply pipelines
                    // instances.
                    if self.subtree_has_gather(&m.body.body, vsym) {
                        let innermost = self.eval(last_or_unsupported(&m.domain, "map domain")?)?;
                        let factor = (self.cfg.inner_par as u64).min(innermost).max(1);
                        self.vector_dim = Some((vsym, factor));
                        self.vector_dim_applied = true;
                    } else {
                        self.vector_dim_applied = false;
                    }
                }
                for s in &m.body.body.stmts {
                    if let Some(node) = self.gen_stmt(s, false)? {
                        stages.push(node);
                    }
                }
                self.vector_dim = saved_vector;
                // Epilogue scalar work (selects etc. after nested folds).
                let ops = exprs_flops(&m.body.body);
                if ops > 0 {
                    stages.push(Node::Unit(Unit {
                        name: format!("{name}_epi"),
                        kind: UnitKind::Vector { lanes: 1 },
                        elems: 1,
                        ops_per_elem: ops,
                        depth: 4,
                        streams: vec![],
                        reads: self.block_buffer_reads(&m.body.body),
                        writes: self
                            .buf_of
                            .get(&stmt.syms[0])
                            .copied()
                            .into_iter()
                            .collect(),
                    }));
                }
                // Allocate output storage; DRAM outputs are streamed out
                // one element per iteration (row-major).
                self.ensure_value_buffer(stmt.syms[0], top)?;
                if self.dram.contains(&stmt.syms[0]) {
                    let run = self.eval(last_or_unsupported(&m.domain, "map domain")?)?;
                    stages.push(Node::Unit(Unit {
                        name: format!("store_{name}"),
                        kind: UnitKind::TileStore { buf: BufId(0) },
                        elems: 1,
                        ops_per_elem: 0,
                        depth: 4,
                        streams: vec![DramStream {
                            words: 1,
                            run_words: run.max(1),
                            prefetch: true,
                            write: true,
                        }],
                        reads: vec![],
                        writes: vec![],
                    }));
                }
            }
            Pattern::FlatMap(fm) => {
                self.ensure_value_buffer(stmt.syms[0], top)?;
                for s in &fm.body.body.stmts {
                    if let Some(node) = self.gen_stmt(s, false)? {
                        stages.push(node);
                    }
                }
            }
            Pattern::GroupByFold(g) => {
                self.ensure_value_buffer(stmt.syms[0], top)?;
                for s in &g.pre.stmts {
                    if let Some(node) = self.gen_stmt(s, false)? {
                        stages.push(node);
                    }
                }
                // Merge stage into the CAM.
                let cam = self.buf_of.get(&stmt.syms[0]).copied();
                stages.push(Node::Unit(Unit {
                    name: format!("{name}_merge"),
                    kind: UnitKind::Cam,
                    elems: self.cfg.cam_entries.min(64),
                    ops_per_elem: block_flops(&g.combine.body).max(1),
                    depth: 6,
                    streams: vec![],
                    reads: self.block_buffer_reads(&g.pre),
                    writes: cam.into_iter().collect(),
                }));
            }
        }

        for s in &scope_added {
            self.scope.remove(s);
        }
        // Baseline vectorization of map nests: the HLS-style design
        // vectorizes the innermost map dimension across `inner_par` lanes,
        // so `inner_par` consecutive instances execute as one invocation;
        // reads whose location varies with that dimension become
        // lane-contiguous gathers.
        let mut iters = iters;
        if self.baseline && matches!(p, Pattern::Map(_)) && self.vector_dim_applied {
            // The compute stage is the single non-store unit (map nests
            // over DRAM outputs also carry a per-iteration store stage).
            let compute_stages: Vec<usize> = stages
                .iter()
                .enumerate()
                .filter(|(_, n)| {
                    !matches!(n, Node::Unit(u) if matches!(u.kind, UnitKind::TileStore { .. }))
                })
                .map(|(i, _)| i)
                .collect();
            if compute_stages.len() == 1 {
                let domain = p.domain();
                let innermost = self.eval(last_or_unsupported(domain, "domain")?)?;
                let factor = (self.cfg.inner_par as u64).min(innermost).max(1);
                iters = iters.div_ceil(factor);
                // Per-iteration stores now cover `factor` elements.
                for n in stages.iter_mut() {
                    if let Node::Unit(su) = n {
                        if matches!(su.kind, UnitKind::TileStore { .. }) {
                            for st in &mut su.streams {
                                st.words = st.words.saturating_mul(factor);
                                st.run_words = st.run_words.max(factor);
                            }
                        }
                    }
                }
            }
        }
        if stages.is_empty() {
            return Err(HwError::Unsupported(format!(
                "outer pattern `{name}` produced no stages"
            )));
        }

        // Independent adjacent tile loads start simultaneously under a
        // Parallel controller (Table 4).
        let stages = group_parallel_loads(stages);
        // Controllers whose stages involve no DRAM tile transfers are pure
        // compute loops; their iterations pipeline in every design (the
        // "pipelined parallelism within patterns" all levels share).
        // Overlapping *memory* stages with compute is the metapipelining
        // optimization proper.
        let has_mem_stage = stages.iter().any(|n| {
            let mut found = false;
            n.visit_units(&mut |u| {
                if !u.streams.is_empty() {
                    found = true;
                }
            });
            found
        });
        let kind = if stages.len() > 1 && (self.cfg.metapipeline || !has_mem_stage) {
            CtrlKind::Metapipeline
        } else {
            CtrlKind::Sequential
        };
        Ok(Node::Ctrl(Ctrl {
            name,
            kind,
            iters,
            stages,
        }))
    }

    /// Allocates accumulator buffers for a MultiFold statement's outputs.
    /// Top-level program outputs stay in DRAM (stores are emitted per
    /// region); everything else gets an on-chip buffer.
    fn alloc_acc_buffers(
        &mut self,
        stmt: &Stmt,
        mf: &pphw_ir::pattern::MultiFoldPat,
        _top: bool,
    ) -> Result<Vec<Option<BufId>>, HwError> {
        let mut out = Vec::with_capacity(stmt.syms.len());
        for (q, sym) in stmt.syms.iter().enumerate() {
            let is_output = self.prog.outputs().contains(sym)
                && matches!(self.prog.ty(*sym), Type::Tensor { .. });
            let (words, wb) = self.tensor_words(*sym)?;
            let bytes = words as u128 * wb as u128;
            let fits = bytes <= self.cfg.on_chip_budget_bytes as u128;
            let _ = self.update_is_write_through(mf, q);
            if is_output {
                // Streamed to DRAM region by region.
                self.dram.insert(*sym);
                out.push(None);
            } else if fits {
                let buf = self.alloc_buffer(&self.name_of(*sym), words, wb, BufferKind::Buffer);
                self.buf_of.insert(*sym, buf);
                self.dram.remove(sym);
                out.push(Some(buf));
            } else {
                self.dram.insert(*sym);
                out.push(None);
            }
        }
        Ok(out)
    }

    fn acc_elem_width(&self, mf: &pphw_ir::pattern::MultiFoldPat, q: usize) -> u64 {
        mf.accs[q].elem.width() as u64
    }

    fn update_is_write_through(&self, mf: &pphw_ir::pattern::MultiFoldPat, q: usize) -> bool {
        matches!(self.classify_update(mf, q), UpdateKind::WriteThrough(_))
    }

    fn classify_update(&self, mf: &pphw_ir::pattern::MultiFoldPat, q: usize) -> UpdateKind {
        let u = &mf.updates[q];
        if u.body.stmts.is_empty() && u.body.result.len() == 1 {
            return UpdateKind::WriteThrough(u.body.result[0]);
        }
        // A *pure* elementwise merge map over the FULL accumulator (as
        // produced by strip mining): single Map whose body is scalar
        // expressions only. These are elided (the paper's redundant-
        // accumulator removal). Partial-region updates (e.g. k-means'
        // per-point scatter at a data-dependent location) are real work,
        // and maps with nested structure are compute stages.
        if u.body.stmts.len() == 1 {
            if let Op::Pattern(Pattern::Map(m)) = &u.body.stmts[0].op {
                let pure = m
                    .body
                    .body
                    .stmts
                    .iter()
                    .all(|s| matches!(s.op, Op::Expr(_)));
                if pure
                    && self.cfg.elide_accumulators
                    && u.is_full(&mf.accs[q])
                    && is_identity_merge(m, u.acc_param)
                {
                    return UpdateKind::Elided;
                }
                if !pure {
                    return UpdateKind::Compute;
                }
            }
        }
        if u.body
            .stmts
            .iter()
            .any(|s| matches!(s.op, Op::Pattern(_) | Op::Copy(_)))
        {
            return UpdateKind::Compute;
        }
        UpdateKind::Merge
    }

    /// For elided merges, the inner partial accumulator uses the same
    /// buffer as the outer accumulator.
    fn alias_elided_partials(
        &mut self,
        mf: &pphw_ir::pattern::MultiFoldPat,
        acc_bufs: &[Option<BufId>],
    ) {
        // Partial symbols are the outputs of the inner pattern statement in
        // the pre-block; updates reference them through their bodies.
        let partial_syms: Vec<Vec<Sym>> = mf
            .pre
            .stmts
            .iter()
            .filter(|s| matches!(s.op, Op::Pattern(_)))
            .map(|s| s.syms.clone())
            .collect();
        for (q, u) in mf.updates.iter().enumerate() {
            if !matches!(self.classify_update(mf, q), UpdateKind::Elided) {
                continue;
            }
            let Some(buf) = acc_bufs.get(q).copied().flatten() else {
                continue;
            };
            let frees = u.body.free_syms();
            for syms in &partial_syms {
                for s in syms {
                    if frees.contains(s) {
                        self.buf_of.insert(*s, buf);
                    }
                }
            }
        }
    }

    /// Ensures a value produced by a pattern has on-chip storage (or is
    /// marked DRAM if it is a program output / too large).
    fn ensure_value_buffer(&mut self, sym: Sym, _top: bool) -> Result<(), HwError> {
        if self.buf_of.contains_key(&sym) {
            return Ok(());
        }
        let is_output = self.prog.outputs().contains(&sym);
        let (words, wb) = self.tensor_words(sym)?;
        let kind = match self.prog.ty(sym) {
            Type::DynVec { .. } => BufferKind::Fifo,
            Type::Dict { .. } => BufferKind::Cam,
            _ => BufferKind::Buffer,
        };
        let bytes = words as u128 * wb as u128;
        // Tensor program outputs are streamed to DRAM; only scalar outputs
        // accumulate on chip (their final store is negligible).
        if is_output && matches!(self.prog.ty(sym), Type::Tensor { .. } | Type::DynVec { .. }) {
            self.dram.insert(sym);
            return Ok(());
        }
        if bytes <= self.cfg.on_chip_budget_bytes as u128 {
            let buf = self.alloc_buffer(&self.name_of(sym), words, wb, kind);
            self.buf_of.insert(sym, buf);
            self.dram.remove(&sym);
        } else {
            self.dram.insert(sym);
        }
        Ok(())
    }

    // ---- leaf (compute unit) patterns ----

    fn gen_leaf(&mut self, stmt: &Stmt, p: &Pattern, top: bool) -> Result<Node, HwError> {
        let name = self.name_of(stmt.syms[0]);
        let domain = p.domain();
        let mut elems = 1u64;
        for d in domain {
            elems = elems.saturating_mul(self.eval(d)?);
        }
        let lanes = (self.cfg.inner_par as u64).min(elems.max(1)).max(1) as u32;

        let ops: u32 = p
            .child_blocks()
            .iter()
            .map(|b| block_flops(b))
            .sum::<u32>()
            .max(1);

        let kind = match p {
            Pattern::Map(_) => UnitKind::Vector { lanes },
            Pattern::MultiFold(_) => UnitKind::ReduceTree { lanes },
            Pattern::FlatMap(_) => UnitKind::ParallelFifo { lanes },
            Pattern::GroupByFold(_) => UnitKind::Cam,
        };
        let depth = 8 + (lanes as f64).log2().ceil() as u32 + ops.min(24);

        // Output storage.
        for s in &stmt.syms {
            self.ensure_value_buffer(*s, top)?;
        }
        let writes: Vec<BufId> = stmt
            .syms
            .iter()
            .filter_map(|s| self.buf_of.get(s).copied())
            .collect();

        // Buffer reads and DRAM streams from the pattern's blocks.
        let mut reads = Vec::new();
        let mut streams = Vec::new();
        self.collect_leaf_traffic(p, elems, &mut reads, &mut streams)?;
        reads.sort();
        reads.dedup();

        // DRAM stores for write-once leaf outputs that are DRAM-resident.
        for s in &stmt.syms {
            if self.dram.contains(s) && self.prog.outputs().contains(s) {
                let (words, _) = self.tensor_words(*s)?;
                streams.push(DramStream {
                    words,
                    run_words: words.max(1),
                    prefetch: true,
                    write: true,
                });
            }
        }

        Ok(Node::Unit(Unit {
            name,
            kind,
            elems,
            ops_per_elem: ops,
            depth,
            streams,
            reads,
            writes,
        }))
    }

    /// Collects buffer reads and DRAM streams for a leaf pattern.
    fn collect_leaf_traffic(
        &mut self,
        p: &Pattern,
        elems: u64,
        reads: &mut Vec<BufId>,
        streams: &mut Vec<DramStream>,
    ) -> Result<(), HwError> {
        let idx: BTreeSet<Sym> = p.param_syms().into_iter().collect();
        let inner = self.innermost_of(p)?;
        let mut dram_words: BTreeMap<Sym, (u64, u64)> = BTreeMap::new(); // sym -> (words, run)
        for b in p.child_blocks() {
            self.leaf_block_traffic(b, elems, &idx, inner, reads, &mut dram_words)?;
        }
        let _ = &self.scope;
        for (sym, (words, run)) in dram_words {
            // Non-affine or direct DRAM access: infer a cache when the
            // access is data-dependent, otherwise stream directly.
            let ty_bytes = self.tensor_words(sym)?.0 * 4;
            let cached = self.cache_of.get(&sym).copied();
            if let Some(cache) = cached {
                reads.push(cache);
                let miss_words = if ty_bytes <= self.cfg.cache_bytes {
                    self.tensor_words(sym)?.0 // cold misses only
                } else {
                    words
                };
                streams.push(DramStream {
                    words: miss_words,
                    run_words: run,
                    prefetch: false,
                    write: false,
                });
            } else {
                streams.push(DramStream {
                    words,
                    run_words: run,
                    prefetch: false,
                    write: false,
                });
            }
        }
        Ok(())
    }

    /// The innermost iteration variable of a pattern and its extent.
    fn innermost_of(&self, p: &Pattern) -> Result<Option<(Sym, u64)>, HwError> {
        let (sym, size) = match p {
            Pattern::Map(m) => (
                *last_or_unsupported(&m.body.params, "map params")?,
                last_or_unsupported(&m.domain, "map domain")?.clone(),
            ),
            Pattern::MultiFold(mf) => (
                *last_or_unsupported(&mf.idx, "fold indices")?,
                last_or_unsupported(&mf.domain, "fold domain")?.clone(),
            ),
            Pattern::FlatMap(fm) => (fm.body.params[0], fm.domain.clone()),
            Pattern::GroupByFold(g) => (g.idx, g.domain.clone()),
        };
        Ok(Some((sym, self.eval(&size)?)))
    }

    #[allow(clippy::too_many_arguments)]
    fn leaf_block_traffic(
        &mut self,
        block: &Block,
        mult: u64,
        idx: &BTreeSet<Sym>,
        inner: Option<(Sym, u64)>,
        reads: &mut Vec<BufId>,
        dram: &mut BTreeMap<Sym, (u64, u64)>,
    ) -> Result<(), HwError> {
        for stmt in &block.stmts {
            match &stmt.op {
                Op::Slice(s) => {
                    self.slice_base.insert(stmt.sym(), s.tensor);
                }
                Op::Copy(_) => {
                    return Err(HwError::Unsupported("tile copy inside leaf pattern".into()))
                }
                Op::Expr(_) | Op::VarVec(_) => {}
                Op::Pattern(q) => {
                    let mut inner_mult = mult;
                    for d in q.domain() {
                        inner_mult = inner_mult.saturating_mul(self.eval(d)?);
                    }
                    let mut idx2 = idx.clone();
                    idx2.extend(q.param_syms());
                    let inner2 = self.innermost_of(q)?;
                    for b in q.child_blocks() {
                        self.leaf_block_traffic(b, inner_mult, &idx2, inner2, reads, dram)?;
                    }
                }
            }
        }
        // Expression-level reads. Contiguity (`run`) is judged against the
        // leaf's *own* indices (what varies within one invocation); cache
        // inference is judged against the full enclosing scope (anything
        // affine in an enclosing controller index is predictable, anything
        // else is data-dependent).
        let full_scope: BTreeSet<Sym> = self.scope.union(idx).copied().collect();
        let mut handle_read = |this: &mut Self, tensor: Sym, index: &[Expr]| {
            let base = this.base_of(tensor);
            if let Some(&buf) = this.buf_of.get(&base).or_else(|| this.buf_of.get(&tensor)) {
                reads.push(buf);
                return;
            }
            if this.dram.contains(&base) {
                let is_local_unit = |e: &Expr| -> bool {
                    match classify_index(e, idx) {
                        IndexClass::Affine { terms, .. } => {
                            terms.len() == 1 && terms.values().next() == Some(&Size::Const(1))
                        }
                        _ => false,
                    }
                };
                let last_local = index.last().map(&is_local_unit).unwrap_or(false);
                let affine_in_scope = index.iter().all(|e| {
                    !matches!(classify_index(e, &full_scope), IndexClass::NonAffine)
                        && !matches!(
                            classify_index(e, &full_scope),
                            IndexClass::AffineDynamic { .. }
                        )
                });
                // Contiguity extends across every trailing dimension swept
                // by a unit-coefficient local index (e.g. the whole k×d
                // centroid array streams as one run when both j and p are
                // pattern indices).
                let mut run = 1u64;
                if last_local {
                    // Align trailing dimensions (the index may come from a
                    // view with fewer dimensions than the base tensor).
                    let shape = this.prog.ty(base).shape().to_vec();
                    for (e, extent) in index.iter().rev().zip(shape.iter().rev()) {
                        if !is_local_unit(e) {
                            break;
                        }
                        let ext = extent.eval(this.env).unwrap_or(1) as u64;
                        run = run.saturating_mul(ext);
                    }
                }
                let mut run = run.max(1);
                // Baseline vectorization: a read varying with the
                // vectorized map index covers `factor` lane instances per
                // invocation; lane-contiguous gathers raise the run.
                let mut scale = 1u64;
                if let Some((vsym, factor)) = this.vector_dim {
                    let varies = index.iter().any(|e| e.syms().contains(&vsym));
                    if varies {
                        scale = factor;
                        let last_is_vdim = match index.last() {
                            Some(Expr::Var(s)) => *s == vsym,
                            _ => false,
                        };
                        if last_is_vdim && run == 1 {
                            run = factor;
                        }
                    }
                }
                if !affine_in_scope && !this.cache_of.contains_key(&base) {
                    let cache = this.alloc_buffer(
                        &format!("{}_cache", this.name_of(base)),
                        this.cfg.cache_bytes / 4,
                        4,
                        BufferKind::Cache,
                    );
                    this.cache_of.insert(base, cache);
                }
                // A value invariant to the innermost iteration is held in a
                // register across it (e.g. outerprod's x(i) across j), so
                // it is fetched once per outer step, not per element.
                let mut eff_mult = mult;
                if let Some((isym, iext)) = inner {
                    let mentions = index.iter().any(|e| e.syms().contains(&isym));
                    if !mentions && iext > 1 {
                        eff_mult = (eff_mult / iext).max(1);
                    }
                }
                let e = dram.entry(base).or_insert((0, run));
                e.0 = e.0.saturating_add(eff_mult.saturating_mul(scale));
                e.1 = e.1.max(run);
            }
        };
        // Walk expressions in the block (only this block's own statements;
        // nested patterns were handled above).
        for stmt in &block.stmts {
            let mut exprs: Vec<&Expr> = Vec::new();
            match &stmt.op {
                Op::Expr(e) => exprs.push(e),
                Op::VarVec(items) => {
                    for it in items {
                        if let Some(g) = &it.guard {
                            exprs.push(g);
                        }
                        exprs.push(&it.value);
                    }
                }
                _ => {}
            }
            for e in exprs {
                e.visit(&mut |sub| {
                    if let Expr::Read { tensor, index } = sub {
                        handle_read(self, *tensor, index);
                    }
                });
            }
        }
        Ok(())
    }

    /// Returns true if some DRAM tensor read in the subtree has its last
    /// dimension indexed directly by `vsym`.
    fn subtree_has_gather(&self, block: &Block, vsym: Sym) -> bool {
        let mut found = false;
        fn walk(g: &Gen<'_>, b: &Block, vsym: Sym, found: &mut bool) {
            for stmt in &b.stmts {
                match &stmt.op {
                    Op::Expr(e) => check_expr(g, e, vsym, found),
                    Op::VarVec(items) => {
                        for it in items {
                            if let Some(gd) = &it.guard {
                                check_expr(g, gd, vsym, found);
                            }
                            check_expr(g, &it.value, vsym, found);
                        }
                    }
                    Op::Pattern(p) => {
                        for cb in p.child_blocks() {
                            walk(g, cb, vsym, found);
                        }
                    }
                    _ => {}
                }
            }
        }
        fn check_expr(g: &Gen<'_>, e: &Expr, vsym: Sym, found: &mut bool) {
            e.visit(&mut |sub| {
                if let Expr::Read { tensor, index } = sub {
                    let base = g.base_of(*tensor);
                    if g.dram.contains(&base)
                        && matches!(index.last(), Some(Expr::Var(s)) if *s == vsym)
                    {
                        *found = true;
                    }
                }
            });
        }
        walk(self, block, vsym, &mut found);
        found
    }

    /// Buffers read by expressions in a block (transitively through slices).
    fn block_buffer_reads(&self, block: &Block) -> Vec<BufId> {
        let mut out = Vec::new();
        let visit_block = |b: &Block, out: &mut Vec<BufId>| {
            for s in b.free_syms() {
                let base = self.base_of(s);
                if let Some(&buf) = self.buf_of.get(&base) {
                    out.push(buf);
                }
            }
        };
        visit_block(block, &mut out);
        out.sort();
        out.dedup();
        out
    }
}

enum UpdateKind {
    /// The update body is exactly the inner partial: region write-through.
    WriteThrough(Sym),
    /// Elementwise merge map, elided by accumulator aliasing.
    Elided,
    /// The update body carries nested patterns: real compute stages.
    Compute,
    /// Scalar merge kept as a small compute stage.
    Merge,
}

/// Recognizes the merge map strip mining produces: every tensor read is
/// indexed by exactly the map's parameters in order (an elementwise zip of
/// the accumulator with one partial). Anything else — different index
/// orders (outer products), extra operands — is real compute and must not
/// be elided.
fn is_identity_merge(m: &pphw_ir::pattern::MapPat, acc_param: Sym) -> bool {
    let params = &m.body.params;
    let mut tensors = BTreeSet::new();
    let mut identity = true;
    for stmt in &m.body.body.stmts {
        if let Op::Expr(e) = &stmt.op {
            e.visit(&mut |sub| {
                if let Expr::Read { tensor, index } = sub {
                    tensors.insert(*tensor);
                    let id = index.len() == params.len()
                        && index
                            .iter()
                            .zip(params)
                            .all(|(e, p)| matches!(e, Expr::Var(s) if s == p));
                    if !id {
                        identity = false;
                    }
                }
            });
        }
    }
    identity && tensors.contains(&acc_param) && tensors.len() == 2
}

/// Wraps runs of two or more consecutive tile-load stages in a Parallel
/// controller so independent tile fetches start together.
fn group_parallel_loads(stages: Vec<Node>) -> Vec<Node> {
    let is_load =
        |n: &Node| matches!(n, Node::Unit(u) if matches!(u.kind, UnitKind::TileLoad { .. }));
    let mut out: Vec<Node> = Vec::with_capacity(stages.len());
    let mut run: Vec<Node> = Vec::new();
    for stage in stages {
        if is_load(&stage) {
            run.push(stage);
            continue;
        }
        flush_load_run(&mut run, &mut out);
        out.push(stage);
    }
    flush_load_run(&mut run, &mut out);
    out
}

fn flush_load_run(run: &mut Vec<Node>, out: &mut Vec<Node>) {
    match (run.len(), run.pop()) {
        (_, None) => {}
        (1, Some(only)) => out.push(only),
        (_, Some(popped)) => {
            run.push(popped);
            out.push(Node::Ctrl(Ctrl {
                name: "loads".into(),
                kind: CtrlKind::Parallel,
                iters: 1,
                stages: std::mem::take(run),
            }));
        }
    }
}

fn is_leaf(p: &Pattern) -> bool {
    fn block_has_structure(b: &Block) -> bool {
        b.stmts
            .iter()
            .any(|s| matches!(&s.op, Op::Pattern(_) | Op::Copy(_)))
    }
    !p.child_blocks().iter().any(|b| block_has_structure(b))
}

/// Counts floating-point operations in a block's own expressions.
fn exprs_flops(block: &Block) -> u32 {
    let mut n = 0;
    for stmt in &block.stmts {
        match &stmt.op {
            Op::Expr(e) => n += e.flop_count(),
            Op::VarVec(items) => {
                for it in items {
                    if let Some(g) = &it.guard {
                        n += g.flop_count();
                    }
                    n += it.value.flop_count();
                }
            }
            _ => {}
        }
    }
    n
}

/// Counts flops recursively through nested blocks.
fn block_flops(block: &Block) -> u32 {
    let mut n = exprs_flops(block);
    for stmt in &block.stmts {
        if let Op::Pattern(p) = &stmt.op {
            for b in p.child_blocks() {
                n += block_flops(b);
            }
        }
    }
    n
}

/// Contiguous run for a region store: trailing fully-covered dims.
fn region_store_run(
    g: &Gen<'_>,
    mf: &pphw_ir::pattern::MultiFoldPat,
    q: usize,
) -> Result<u64, HwError> {
    let acc = &mf.accs[q];
    let u = &mf.updates[q];
    if u.shape.is_empty() {
        return Ok(1);
    }
    let mut run = 1u64;
    for (r, full) in u.shape.iter().zip(&acc.shape).rev() {
        let rl = g.eval(r)?;
        run = run.saturating_mul(rl);
        if g.eval(full)? != rl {
            break;
        }
    }
    Ok(run.max(1))
}

/// Promotes buffers written in one metapipeline stage and read in a later
/// stage to double buffers.
fn promote_double_buffers(design: &mut Design) {
    let mut promote: BTreeSet<BufId> = BTreeSet::new();
    collect_promotions(&design.root, &mut promote);
    for b in &mut design.buffers {
        if promote.contains(&b.id) && matches!(b.kind, BufferKind::Buffer | BufferKind::Fifo) {
            b.kind = BufferKind::DoubleBuffer;
        }
    }
}

fn stage_rw(node: &Node) -> (BTreeSet<BufId>, BTreeSet<BufId>) {
    let mut reads = BTreeSet::new();
    let mut writes = BTreeSet::new();
    node.visit_units(&mut |u| {
        reads.extend(u.reads.iter().copied());
        writes.extend(u.writes.iter().copied());
    });
    (reads, writes)
}

fn collect_promotions(node: &Node, promote: &mut BTreeSet<BufId>) {
    if let Node::Ctrl(c) = node {
        if c.kind == CtrlKind::Metapipeline {
            let rw: Vec<_> = c.stages.iter().map(stage_rw).collect();
            for i in 0..rw.len() {
                for rw_j in rw.iter().skip(i + 1) {
                    for w in &rw[i].1 {
                        if rw_j.0.contains(w) {
                            promote.insert(*w);
                        }
                    }
                }
            }
        }
        for s in &c.stages {
            collect_promotions(s, promote);
        }
    }
}

/// Sets buffer banking to match the widest vector access.
fn bank_buffers(design: &mut Design) {
    let mut banks: BTreeMap<BufId, u32> = BTreeMap::new();
    let mut ports: BTreeMap<BufId, (u32, u32)> = BTreeMap::new();
    design.root.visit_units(&mut |u| {
        let lanes = u.kind.lanes();
        for r in &u.reads {
            let e = banks.entry(*r).or_insert(1);
            *e = (*e).max(lanes);
            ports.entry(*r).or_insert((0, 0)).0 += 1;
        }
        for w in &u.writes {
            let e = banks.entry(*w).or_insert(1);
            *e = (*e).max(lanes);
            ports.entry(*w).or_insert((0, 0)).1 += 1;
        }
    });
    for b in &mut design.buffers {
        if let Some(&k) = banks.get(&b.id) {
            // One bank serves an 8-word-wide port; lanes beyond that need
            // additional banks.
            b.banks = k.div_ceil(8).min(b.words.max(1) as u32).max(1);
        }
        if let Some(&(r, w)) = ports.get(&b.id) {
            b.readers = r.max(1);
            b.writers = w.max(1);
        } else {
            b.readers = 1;
            b.writers = 1;
        }
    }
}
