//! The request engine: decodes lines, runs methods against the shared
//! caches, and renders response lines.
//!
//! One [`Service`] lives for the whole daemon process and is shared by
//! every connection. Three layers of sharing make warm traffic cheap:
//!
//! 1. **Response memo** — every work request (compile / verify /
//!    simulate / dse) is keyed by its canonical payload fingerprint in a
//!    [`DesignCache`], the exactly-once `OnceLock` table from the DSE
//!    fast lane. Identical requests *in flight* block on the first
//!    arrival's slot and share its evaluation; identical requests later
//!    are served straight from the memo. [`ServiceStats::dedup_hits`]
//!    counts both.
//! 2. **Design cache** — compile artifacts shared across requests that
//!    differ only in simulation substrate, and with the `dse` method's
//!    sweeps (one [`DesignCache`] instance for the whole process).
//! 3. **Eval cache** — the persistent measurement memo
//!    ([`EvalCache`]), loaded at startup and saved at shutdown, shared
//!    between direct `simulate` requests and `dse` sweeps.
//!
//! Layers 2 and 3 are shared with sweeps by construction: `compile`,
//! `verify` and `simulate` reach designs and measurements through the
//! same [`CompileEvaluator`] a sweep evaluates candidates with, so keys,
//! salt, compile options and budget verdict cannot differ between them.
//!
//! Every request runs under a watchdog cycle budget clamped to the
//! server's [`Limits`]: a pathological request degrades to a typed
//! [`codes::BUDGET`](crate::protocol::codes::BUDGET) error, and the
//! worker moves on. Source programs are cache-keyed by *content hash*
//! (appended to the program name), so two clients whose programs share a
//! name can never poison each other's artifacts.

use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use pphw::dse::{explore_with_caches, CompileEvaluator, DesignArtifact};
use pphw::{CompileOptions, PphwError};
use pphw_dse::cache::{config_key, fnv1a64, DesignCache, EvalCache};
use pphw_dse::pool::panic_message;
use pphw_dse::space::Candidate;
use pphw_dse::{DseConfig, EvalOutcome, Evaluate, SearchSpace};
use pphw_frontend::ParseOutput;
use pphw_ir::json::{self, Json, Obj};
use pphw_sim::{SimConfig, SimError};
use pphw_verify::VerifyConfig;

use crate::protocol::{
    codes, err_line, opt_name, overload_inflight, response_line, DseRequest, ErrorBody, Limits,
    Method, ProgramRef, Request, WorkRequest,
};

/// Counter snapshot reported by the `stats` method and the daemon's exit
/// banner.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Total request lines answered (including errors).
    pub requests: u64,
    /// Responses that carried `"ok":false`.
    pub errors: u64,
    /// Work requests served from the response memo — either a concurrent
    /// in-flight duplicate that shared one evaluation, or a later repeat.
    pub dedup_hits: u64,
    /// Work requests that actually evaluated (first sighting of a
    /// fingerprint).
    pub dedup_builds: u64,
    /// Designs compiled by this process.
    pub design_builds: u64,
    /// Design lookups served from an existing artifact.
    pub design_reuses: u64,
    /// Measurement-cache hits.
    pub eval_hits: u64,
    /// Measurement-cache misses.
    pub eval_misses: u64,
    /// Entries currently in the measurement cache.
    pub eval_len: u64,
    /// Work requests shed with a typed `EOVERLOAD` because the in-flight
    /// budget was full (never evaluated, never cached).
    pub shed_requests: u64,
    /// Connections refused at accept because the connection cap was full.
    pub shed_connections: u64,
    /// Connections accepted into a handler thread.
    pub accepted_connections: u64,
    /// Request handlers that panicked and were contained as `EINTERNAL`.
    pub panics: u64,
    /// Eval-cache save/checkpoint attempts that failed (logged, counted,
    /// and serving continued).
    pub save_failures: u64,
}

impl ServiceStats {
    /// Renders the stats as the `stats` result object.
    #[must_use]
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.field("requests", self.requests)
                .field("errors", self.errors)
                .field("dedup_hits", self.dedup_hits)
                .field("dedup_builds", self.dedup_builds)
                .field("design_builds", self.design_builds)
                .field("design_reuses", self.design_reuses)
                .field("eval_hits", self.eval_hits)
                .field("eval_misses", self.eval_misses)
                .field("eval_len", self.eval_len)
                .field("shed_requests", self.shed_requests)
                .field("shed_connections", self.shed_connections)
                .field("accepted_connections", self.accepted_connections)
                .field("panics", self.panics)
                .field("save_failures", self.save_failures);
        })
    }
}

/// The memoized outcome of one work request: whether it succeeded and the
/// rendered `result` (or error object) JSON, without the id envelope.
type MemoBody = (bool, String);

/// The shared request engine. See the module docs for the cache layers.
pub struct Service {
    limits: Limits,
    /// Worker threads handed to the `dse` method's internal sweep.
    dse_threads: usize,
    designs: Arc<DesignCache<DesignArtifact>>,
    evals: EvalCache,
    memo: DesignCache<MemoBody>,
    requests: AtomicU64,
    errors: AtomicU64,
    shutdown: AtomicBool,
    /// Work requests currently evaluating (gauge, bounded by
    /// `limits.max_inflight`).
    inflight: AtomicUsize,
    /// Open connections (gauge, maintained by the TCP front).
    connections: AtomicUsize,
    shed_requests: AtomicU64,
    shed_connections: AtomicU64,
    accepted_connections: AtomicU64,
    panics: AtomicU64,
    save_failures: AtomicU64,
}

/// RAII slot in the in-flight work budget: acquired before a work request
/// evaluates, released (even across panics) when the request finishes.
struct WorkGuard<'s>(&'s AtomicUsize);

impl Drop for WorkGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

impl Service {
    /// Creates a service with fresh in-memory caches and the given
    /// (possibly preloaded) measurement cache.
    #[must_use]
    pub fn new(limits: Limits, dse_threads: usize, evals: EvalCache) -> Service {
        Service {
            limits,
            dse_threads: dse_threads.max(1),
            designs: Arc::new(DesignCache::new()),
            evals,
            memo: DesignCache::new(),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            inflight: AtomicUsize::new(0),
            connections: AtomicUsize::new(0),
            shed_requests: AtomicU64::new(0),
            shed_connections: AtomicU64::new(0),
            accepted_connections: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            save_failures: AtomicU64::new(0),
        }
    }

    /// The server limits this service enforces.
    #[must_use]
    pub fn limits(&self) -> &Limits {
        &self.limits
    }

    /// Whether a `shutdown` request has been accepted.
    #[must_use]
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Requests shutdown (also reachable through the wire method).
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// The persistent measurement cache (for saving at shutdown).
    #[must_use]
    pub fn eval_cache(&self) -> &EvalCache {
        &self.evals
    }

    /// Records a failed eval-cache save/checkpoint (the satellite fix:
    /// persistence failures are logged *and* counted, never silent).
    pub fn note_save_failure(&self) {
        self.save_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Tries to admit one connection under the connection cap. On `true`
    /// the caller owns a slot and must pair it with
    /// [`Service::connection_closed`]; on `false` the connection was
    /// counted shed and must be refused.
    #[must_use]
    pub fn try_admit_connection(&self) -> bool {
        let prev = self.connections.fetch_add(1, Ordering::SeqCst);
        if prev >= self.limits.max_connections {
            self.connections.fetch_sub(1, Ordering::SeqCst);
            self.shed_connections.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        self.accepted_connections.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Releases a connection slot taken by [`Service::try_admit_connection`].
    pub fn connection_closed(&self) {
        self.connections.fetch_sub(1, Ordering::SeqCst);
    }

    /// Tries to reserve one slot of the in-flight work budget.
    fn try_acquire_work(&self) -> Option<WorkGuard<'_>> {
        let prev = self.inflight.fetch_add(1, Ordering::SeqCst);
        if prev >= self.limits.max_inflight {
            self.inflight.fetch_sub(1, Ordering::SeqCst);
            self.shed_requests.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        Some(WorkGuard(&self.inflight))
    }

    /// The `health` result object: liveness plus every overload and
    /// degradation gauge a load balancer or operator needs.
    #[must_use]
    pub fn health_json(&self) -> String {
        json::object(|o| {
            o.field("healthy", true)
                .field("inflight", self.inflight.load(Ordering::SeqCst))
                .field("max_inflight", self.limits.max_inflight)
                .field("connections", self.connections.load(Ordering::SeqCst))
                .field("max_connections", self.limits.max_connections)
                .field("shed_requests", self.shed_requests.load(Ordering::Relaxed))
                .field(
                    "shed_connections",
                    self.shed_connections.load(Ordering::Relaxed),
                )
                .field("panics", self.panics.load(Ordering::Relaxed))
                .field("save_failures", self.save_failures.load(Ordering::Relaxed))
                .field("eval_len", self.evals.len())
                .field("journaled", self.evals.is_journaled());
        })
    }

    /// Current counter snapshot.
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            requests: self.requests.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            dedup_hits: self.memo.hits(),
            dedup_builds: self.memo.builds(),
            design_builds: self.designs.builds(),
            design_reuses: self.designs.hits(),
            eval_hits: self.evals.hits(),
            eval_misses: self.evals.misses(),
            eval_len: self.evals.len() as u64,
            shed_requests: self.shed_requests.load(Ordering::Relaxed),
            shed_connections: self.shed_connections.load(Ordering::Relaxed),
            accepted_connections: self.accepted_connections.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            save_failures: self.save_failures.load(Ordering::Relaxed),
        }
    }

    /// Handles one request line end to end, returning the response line
    /// (no trailing newline). Blank lines get no response. Never panics:
    /// every failure renders as a typed error response.
    pub fn handle_line(&self, line: &str) -> Option<String> {
        match self.answer_now(line) {
            Ok(response) => response,
            Err(req) => Some(self.evaluate(&req)),
        }
    }

    /// Answers `line` if that takes no evaluation: a blank line (no
    /// response), an undecodable one, a control method, a shed, or a work
    /// request whose response is already in the memo. Anything else comes
    /// back decoded, for [`Service::evaluate`].
    pub(crate) fn answer_now(&self, line: &str) -> Result<Option<String>, Box<Request>> {
        let line = line.trim();
        if line.is_empty() {
            return Ok(None);
        }
        self.requests.fetch_add(1, Ordering::Relaxed);
        let req = match Request::decode(line, &self.limits) {
            Ok(req) => req,
            Err((id, err)) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                return Ok(Some(err_line(&id, &err)));
            }
        };
        let body = match &req.method {
            Method::Ping => flag("pong"),
            Method::Stats => self.stats().to_json(),
            Method::Health => self.health_json(),
            Method::Shutdown => {
                self.request_shutdown();
                flag("shutting_down")
            }
            // A work request: shed, a memo hit, or left to evaluate.
            _ => {
                let Some(_guard) = self.try_acquire_work() else {
                    return Ok(Some(self.shed(&req.id)));
                };
                return match self.memo.get(req.fingerprint()) {
                    Some(memo) => Ok(Some(self.respond(&req.id, memo.0, &memo.1))),
                    None => Err(Box::new(req)),
                };
            }
        };
        Ok(Some(response_line(&req.id, true, &body)))
    }

    /// Evaluates a work request [`Service::answer_now`] handed back and
    /// renders its response.
    pub(crate) fn evaluate(&self, req: &Request) -> String {
        let Some(_guard) = self.try_acquire_work() else {
            return self.shed(&req.id);
        };
        // Exactly-once evaluation per fingerprint: concurrent duplicates
        // block on the slot, later repeats hit the memo. A panicking
        // handler unwinds out of `get_or_compute` leaving the slot
        // uninitialized (std's `OnceLock` does not poison), so the panic is
        // contained as a typed `EINTERNAL` that is never memoized — a retry
        // re-runs the work — and the connection survives.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.memo
                .get_or_compute(req.fingerprint(), || self.run_work(&req.method))
        }));
        match outcome {
            Ok(memo) => self.respond(&req.id, memo.0, &memo.1),
            Err(payload) => {
                self.panics.fetch_add(1, Ordering::Relaxed);
                let what = panic_message(&payload);
                let err =
                    ErrorBody::new(codes::INTERNAL, format!("request handler panicked: {what}"));
                self.respond(&req.id, false, &err.to_json())
            }
        }
    }

    /// The in-flight budget is full: a typed, retryable refusal. Nothing
    /// was evaluated and nothing entered the memo, so a retry after
    /// backoff gets a full evaluation.
    fn shed(&self, id: &Json) -> String {
        let err = overload_inflight(self.limits.max_inflight);
        self.respond(id, false, &err.to_json())
    }

    /// A work request's response line, counting it if it is an error.
    fn respond(&self, id: &Json, ok: bool, body: &str) -> String {
        if !ok {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        response_line(id, ok, body)
    }

    fn run_work(&self, method: &Method) -> MemoBody {
        let out = match method {
            Method::Compile(w) => self.compile_method(w),
            Method::Verify(w) => self.verify_method(w),
            Method::Simulate(w) => self.simulate_method(w),
            Method::Dse(d) => self.dse_method(d),
            // Deliberate crash to prove containment (decoded only when
            // `Limits::debug_methods` is on).
            Method::TestPanic => panic!("injected panic (__panic debug method)"),
            // `answer_now` answers the control methods.
            _ => Err(ErrorBody::new(codes::METHOD, "not a work method")),
        };
        let (ok, mut body) = match out {
            Ok(result) => (true, result),
            Err(err) => (false, err.to_json()),
        };
        // The memo holds the body for the life of the process: keep none
        // of the writer's spare capacity.
        body.shrink_to_fit();
        (ok, body)
    }

    // ---- request resolution -------------------------------------------

    /// The request's program with its source map and text, and its
    /// options. A bench is its cached parse under the paper's options; a
    /// source is parsed, under defaults, and renamed to `name@hash`.
    fn resolve<'w>(&self, w: &'w WorkRequest) -> Result<Resolved<'w>, ErrorBody> {
        let (parsed, text, display_name, mut opts) = match &w.program {
            ProgramRef::Bench(name) => {
                let spec =
                    pphw_apps::benchmark(name).map_err(|e| ErrorBody::new(codes::BENCH, e))?;
                let parsed = Cow::Borrowed(spec.source.parsed());
                (
                    parsed,
                    spec.source.text,
                    spec.name.to_string(),
                    spec.options(),
                )
            }
            ProgramRef::Source { text, file } => {
                let mut out = pphw_frontend::parse_program(text, file)
                    .map_err(|errs| ppl_error(&errs, text, file))?;
                let display = out.program.name.clone();
                // Key source programs by content, not by their (client
                // chosen) name: the shared design/eval caches must never
                // serve one client's artifact for another's program.
                out.rename(format!("{display}@{:016x}", fnv1a64(text.as_bytes())));
                let sizes: Vec<(&str, i64)> = out
                    .program
                    .size_vars
                    .iter()
                    .map(|sv| (sv.as_str(), 8))
                    .collect();
                let opts = CompileOptions::new(&sizes).inner_par(4);
                (Cow::Owned(out), text.as_str(), display, opts)
            }
        };
        for (k, v) in &w.sizes {
            match opts.sizes.iter_mut().find(|(name, _)| name == k) {
                Some(slot) => slot.1 = *v,
                None => opts.sizes.push((k.clone(), *v)),
            }
        }
        if !w.tiles.is_empty() {
            opts.tiles.clone_from(&w.tiles);
        }
        if let Some(par) = w.inner_par {
            opts.inner_par = par;
        }
        opts.opt = w.opt;
        let mut sim = w.sim.clone();
        sim.cycle_budget = w
            .cycle_budget
            .unwrap_or(self.limits.default_cycle_budget)
            .min(self.limits.max_cycle_budget);
        Ok(Resolved {
            parsed,
            text,
            display_name,
            opts,
            sim,
        })
    }

    /// The evaluator a resolved request reaches its design and its
    /// measurement through — the one a `dse` sweep over the same base
    /// options builds, over the process-wide design cache.
    fn evaluator<'r>(&self, r: &'r Resolved) -> CompileEvaluator<'r> {
        CompileEvaluator::with_design_cache(&r.parsed.program, &r.opts, Arc::clone(&self.designs))
    }

    // ---- methods ------------------------------------------------------

    fn compile_method(&self, w: &WorkRequest) -> Result<String, ErrorBody> {
        let r = self.resolve(w)?;
        match &*self.evaluator(&r).artifact(&r.candidate()) {
            Ok(compiled) => {
                let hgl = compiled.emit_hgl();
                Ok(json::object(|o| {
                    design_fields(o, &r)
                        .field("on_chip_bytes", compiled.design.on_chip_bytes())
                        .field("buffers", compiled.design.buffers.len())
                        .field("area", compiled.area())
                        .field("hgl_fnv1a64", format!("{:016x}", fnv1a64(hgl.as_bytes())))
                        .field("hgl_lines", hgl.lines().count());
                }))
            }
            Err(why) => Err(ErrorBody::new(codes::COMPILE, why.clone())),
        }
    }

    fn verify_method(&self, w: &WorkRequest) -> Result<String, ErrorBody> {
        let r = self.resolve(w)?;
        let cfg = VerifyConfig {
            inner_par: r.opts.inner_par,
            ..VerifyConfig::default()
        };
        let mut report = pphw_verify::verify_program(&r.parsed.program, &cfg);
        // Design-level families (hazards, dataflow balance) need the
        // compiled design; a request whose design cannot compile still
        // gets its program-level diagnostics.
        if let Ok(compiled) = &*self.evaluator(&r).artifact(&r.candidate()) {
            report.merge(pphw_verify::verify_design(&compiled.design, &cfg));
        }
        report.attach_spans(&r.parsed.source_map, r.text);
        Ok(json::object(|o| {
            o.field("program", &r.display_name)
                .field("inner_par", r.opts.inner_par)
                .field("error_count", report.error_count())
                .field("report", &report);
        }))
    }

    fn simulate_method(&self, w: &WorkRequest) -> Result<String, ErrorBody> {
        let r = self.resolve(w)?;
        let (evaluator, cand) = (self.evaluator(&r), r.candidate());
        let ckey = config_key(
            &r.parsed.program.name,
            &r.opts.sizes,
            &evaluator.cache_salt(),
            &cand,
        );
        let outcome = if let Some(hit) = self.evals.get(ckey) {
            hit
        } else {
            // A failed simulation returns here, typed and uncached.
            let fresh = match &*evaluator.artifact(&cand) {
                Ok(compiled) => {
                    EvalOutcome::Feasible(compiled.measure(&cand.sim).map_err(sim_error)?)
                }
                Err(why) => EvalOutcome::Infeasible(why.clone()),
            };
            self.evals.insert(ckey, fresh.clone());
            fresh
        };
        match outcome {
            EvalOutcome::Feasible(m) => Ok(json::object(|o| {
                design_fields(o, &r)
                    .field("cycles", m.cycles)
                    .field("dram_words", m.dram_words)
                    .field("on_chip_bytes", m.on_chip_bytes)
                    .field("area", m.area);
            })),
            // `Failed` is never stored (`EvalCache::insert`) nor built
            // above; the arm only keeps the match exhaustive.
            EvalOutcome::Infeasible(e) | EvalOutcome::Failed(e) => {
                Err(ErrorBody::new(codes::COMPILE, e))
            }
        }
    }

    fn dse_method(&self, d: &DseRequest) -> Result<String, ErrorBody> {
        let r = self.resolve(&d.base)?;
        let sizes = &r.opts.sizes;
        let size_pairs: Vec<(&str, i64)> = sizes.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        let mut space = SearchSpace::new(&size_pairs);
        let tile_candidates: Vec<(String, Vec<i64>)> = if d.tile_candidates.is_empty() {
            let tiles = r.opts.tiles.iter();
            tiles.map(|(k, v)| (k.clone(), vec![*v])).collect()
        } else {
            d.tile_candidates.clone()
        };
        for (dim, cands) in &tile_candidates {
            if !sizes.iter().any(|(k, _)| k == dim) {
                return Err(ErrorBody::new(
                    codes::PROTO,
                    format!("tile dimension `{dim}` has no concrete size"),
                ));
            }
            space = space.with_tile_candidates(dim, cands);
        }
        let pars = if d.inner_pars.is_empty() {
            vec![r.opts.inner_par]
        } else {
            d.inner_pars.clone()
        };
        space = space.with_inner_pars(&pars);
        let named = SimConfig::named_variants();
        let mut variants: Vec<(&str, SimConfig)> = Vec::new();
        if d.sims.is_empty() {
            variants.push(("max4", budgeted(SimConfig::default(), r.sim.cycle_budget)));
        } else {
            for want in &d.sims {
                let Some((name, cfg)) = named.iter().find(|(n, _)| *n == want.as_str()) else {
                    let known: Vec<&str> = named.iter().map(|(n, _)| *n).collect();
                    return Err(ErrorBody::new(
                        codes::PROTO,
                        format!("unknown sim variant `{want}`; known: {}", known.join(", ")),
                    ));
                };
                variants.push((*name, budgeted(cfg.clone(), r.sim.cycle_budget)));
            }
        }
        space = space.with_sim_variants(&variants);
        if space.is_empty() {
            return Err(ErrorBody::new(codes::DSE, "search space is empty"));
        }
        if space.len() > self.limits.max_space {
            return Err(ErrorBody::new(
                codes::LIMIT,
                format!(
                    "space enumerates {} candidates, limit is {}",
                    space.len(),
                    self.limits.max_space
                ),
            ));
        }
        let cfg = DseConfig {
            threads: self.dse_threads,
            strategy: d.strategy,
            objective: d.objective,
            ..DseConfig::default()
        };
        let report = explore_with_caches(
            &r.parsed.program,
            &r.opts,
            &space,
            &cfg,
            &self.evals,
            Arc::clone(&self.designs),
        )
        .map_err(|e| ErrorBody::new(codes::DSE, e.to_string()))?;
        let (best, s) = (&report.best, report.stats);
        Ok(json::object(|o| {
            o.field("program", &r.display_name)
                .obj("best", |b| {
                    b.field("label", &best.label)
                        .field("cycles", best.cycles)
                        .field("area_score", best.area_score);
                })
                .field("space", s.exhaustive)
                .field("evaluated", report.evaluated.len())
                .field("frontier", report.frontier.len())
                .field("failures", report.failures.len())
                .field("pruned", s.pruned_total())
                .field("simulated", s.simulated)
                .field("sampled", s.sampled)
                .field("skipped_model", s.skipped_model);
        }))
    }
}

/// A fully-resolved work request: the program with the source map and
/// text its findings locate in, and the effective configuration.
struct Resolved<'w> {
    parsed: Cow<'w, ParseOutput>,
    text: &'w str,
    display_name: String,
    /// Sizes, tiles, parallelism and opt level after the request's
    /// overrides; the base options of a `dse` sweep.
    opts: CompileOptions,
    sim: SimConfig,
}

impl Resolved<'_> {
    /// The request's one design point, as a sweep would enumerate it.
    fn candidate(&self) -> Candidate {
        Candidate {
            tiles: self.opts.tiles.clone(),
            inner_par: self.opts.inner_par,
            sim_label: "req".to_string(),
            sim: self.sim.clone(),
        }
    }
}

/// A failed simulation as its typed wire error: a watchdog overrun is
/// `EBUDGET`, anything else the simulator rejects is `ESIM`.
fn sim_error(e: PphwError) -> ErrorBody {
    match e {
        PphwError::Sim(SimError::BudgetExceeded { what, budget }) => ErrorBody::new(
            codes::BUDGET,
            format!("simulation exceeded its {what} of {budget} (request clamped to the server's per-request watchdog)"),
        ),
        e => ErrorBody::new(codes::SIM, e.to_string()),
    }
}

/// `{"<key>":true}`: the `ping` and `shutdown` results.
fn flag(key: &str) -> String {
    json::object(|o| {
        o.field(key, true);
    })
}

/// The fields `compile` and `simulate` results open with: the program,
/// its optimization level, tiles (sorted by dimension) and parallelism.
fn design_fields<'o, 'w>(o: &'o mut Obj<'w>, r: &Resolved) -> &'o mut Obj<'w> {
    let mut tiles: Vec<_> = r.opts.tiles.iter().collect();
    tiles.sort();
    o.field("program", &r.display_name)
        .field("opt", opt_name(r.opts.opt))
        .obj("tiles", |t| {
            for (dim, tile) in tiles {
                t.field(dim, tile);
            }
        })
        .field("inner_par", r.opts.inner_par)
}

fn budgeted(mut sim: SimConfig, cycle_budget: u64) -> SimConfig {
    sim.cycle_budget = cycle_budget;
    sim
}

/// Renders frontend parse errors as a [`codes::PPL`] error with a spanned
/// diagnostics array.
fn ppl_error(errs: &[pphw_frontend::ParseError], src: &str, file: &str) -> ErrorBody {
    ErrorBody {
        diagnostics: errs.iter().map(|e| e.locate(src, file)).collect(),
        ..ErrorBody::new(
            codes::PPL,
            format!("{} parse error(s) in {file}", errs.len()),
        )
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::json::{escape, Json};

    fn service() -> Service {
        Service::new(Limits::default(), 1, EvalCache::new())
    }

    fn get<'j>(v: &'j Json, path: &[&str]) -> &'j Json {
        let mut cur = v;
        for p in path {
            cur = cur.get(p).unwrap_or_else(|| panic!("missing field {p}"));
        }
        cur
    }

    fn call(svc: &Service, line: &str) -> Json {
        let resp = svc.handle_line(line).expect("response expected");
        crate::json::parse_json(&resp).expect("response is valid JSON")
    }

    #[test]
    fn ping_stats_and_shutdown_round_trip() {
        let svc = service();
        let pong = call(&svc, "{\"id\":1,\"method\":\"ping\"}");
        assert_eq!(get(&pong, &["result", "pong"]).as_bool(), Some(true));
        let stats = call(&svc, "{\"id\":2,\"method\":\"stats\"}");
        assert_eq!(get(&stats, &["result", "requests"]).as_u64(), Some(2));
        assert!(!svc.is_shutdown());
        let bye = call(&svc, "{\"id\":3,\"method\":\"shutdown\"}");
        assert_eq!(
            get(&bye, &["result", "shutting_down"]).as_bool(),
            Some(true)
        );
        assert!(svc.is_shutdown());
    }

    #[test]
    fn simulate_bench_is_cached_and_deduped() {
        let svc = service();
        let line = "{\"id\":1,\"method\":\"simulate\",\"bench\":\"gemm\"}";
        let a = call(&svc, line);
        let cycles = get(&a, &["result", "cycles"]).as_u64().unwrap();
        assert!(cycles > 0);
        let before = svc.stats();
        assert_eq!(before.dedup_builds, 1);
        assert_eq!(before.design_builds, 1);
        // Repeat: memo hit, no new design build, bit-identical result.
        let b = call(
            &svc,
            "{\"id\":2,\"method\":\"simulate\",\"bench\":\"gemm\"}",
        );
        assert_eq!(get(&a, &["result"]), get(&b, &["result"]));
        let after = svc.stats();
        assert_eq!(after.dedup_hits, before.dedup_hits + 1);
        assert_eq!(after.design_builds, 1);
    }

    #[test]
    fn compile_and_simulate_share_one_design() {
        let svc = service();
        call(
            &svc,
            "{\"id\":1,\"method\":\"compile\",\"bench\":\"sumrows\"}",
        );
        assert_eq!(svc.stats().design_builds, 1);
        call(
            &svc,
            "{\"id\":2,\"method\":\"simulate\",\"bench\":\"sumrows\"}",
        );
        let s = svc.stats();
        assert_eq!(
            s.design_builds, 1,
            "simulate must reuse the compile artifact"
        );
        assert!(s.design_reuses >= 1);
    }

    #[test]
    fn over_budget_simulation_is_a_typed_error() {
        let svc = service();
        let resp = call(
            &svc,
            "{\"id\":9,\"method\":\"simulate\",\"bench\":\"gemm\",\"cycle_budget\":1}",
        );
        assert_eq!(get(&resp, &["ok"]).as_bool(), Some(false));
        assert_eq!(get(&resp, &["error", "code"]).as_str(), Some(codes::BUDGET));
        // The failure is not pinned in the measurement cache: a bigger
        // budget succeeds.
        let ok = call(
            &svc,
            "{\"id\":10,\"method\":\"simulate\",\"bench\":\"gemm\"}",
        );
        assert_eq!(get(&ok, &["ok"]).as_bool(), Some(true));
    }

    #[test]
    fn source_programs_verify_with_spans_and_parse_errors_are_typed() {
        let svc = service();
        let src = std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/gemm.ppl"),
        )
        .unwrap();
        let line = format!(
            "{{\"id\":1,\"method\":\"verify\",\"source\":{}}}",
            escape(&src)
        );
        let resp = call(&svc, &line);
        assert_eq!(get(&resp, &["ok"]).as_bool(), Some(true));
        assert_eq!(get(&resp, &["result", "error_count"]).as_u64(), Some(0));

        let bad = call(
            &svc,
            "{\"id\":2,\"method\":\"verify\",\"source\":\"prog broken { x = }\"}",
        );
        assert_eq!(get(&bad, &["ok"]).as_bool(), Some(false));
        assert_eq!(get(&bad, &["error", "code"]).as_str(), Some(codes::PPL));
        let diags = get(&bad, &["error", "diagnostics"]).as_arr().unwrap();
        assert!(!diags.is_empty());
        assert!(get(&diags[0], &["span", "line"]).as_u64().is_some());
    }

    #[test]
    fn source_simulate_runs_end_to_end() {
        let svc = service();
        let src = std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/sumrows.ppl"),
        )
        .unwrap();
        let line = format!(
            "{{\"id\":1,\"method\":\"simulate\",\"source\":{},\"sizes\":{{\"m\":16,\"n\":16}},\"inner_par\":4}}",
            escape(&src)
        );
        let resp = call(&svc, &line);
        assert_eq!(get(&resp, &["ok"]).as_bool(), Some(true), "{resp:?}");
        assert!(get(&resp, &["result", "cycles"]).as_u64().unwrap() > 0);
    }

    #[test]
    fn dse_method_sweeps_a_bounded_space() {
        let svc = service();
        let resp = call(
            &svc,
            "{\"id\":1,\"method\":\"dse\",\"bench\":\"sumrows\",\
             \"tile_candidates\":{\"m\":[4,8]},\"inner_pars\":[16]}",
        );
        assert_eq!(get(&resp, &["ok"]).as_bool(), Some(true), "{resp:?}");
        assert_eq!(get(&resp, &["result", "space"]).as_u64(), Some(2));
        assert!(get(&resp, &["result", "best", "cycles"]).as_u64().unwrap() > 0);
        // The dse sweep populated the shared caches; a direct simulate
        // of either swept config — the winner included — compiles and
        // measures nothing.
        let swept = svc.stats();
        let direct: Vec<u64> = [4, 8]
            .iter()
            .map(|m| {
                let resp = call(
                    &svc,
                    &format!(
                        "{{\"method\":\"simulate\",\"bench\":\"sumrows\",\
                         \"tiles\":{{\"m\":{m}}},\"inner_par\":16}}"
                    ),
                );
                get(&resp, &["result", "cycles"]).as_u64().unwrap()
            })
            .collect();
        let after = svc.stats();
        assert_eq!(after.design_builds, swept.design_builds);
        assert_eq!(after.eval_misses, swept.eval_misses);
        assert_eq!(after.eval_hits, swept.eval_hits + 2);
        assert_eq!(
            get(&resp, &["result", "best", "cycles"]).as_u64(),
            direct.iter().copied().min()
        );

        let over = call(
            &svc,
            "{\"id\":2,\"method\":\"dse\",\"bench\":\"sumrows\",\
             \"inner_pars\":[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,\
             21,22,23,24,25,26,27,28,29,30,31,32,33,34,35,36,37,38,39,40,41,42,\
             43,44,45,46,47,48,49,50,51,52,53,54,55,56,57,58,59,60,61,62,63,64,\
             65,66,67,68,69,70,71,72,73,74,75,76,77,78,79,80,81,82,83,84,85,86,\
             87,88,89,90,91,92,93,94,95,96,97,98,99,100],\
             \"tile_candidates\":{\"m\":[4,8,16],\"n\":[4,8]},\
             \"sims\":[\"max4\"]}",
        );
        assert_eq!(get(&over, &["ok"]).as_bool(), Some(false));
        assert_eq!(get(&over, &["error", "code"]).as_str(), Some(codes::LIMIT));
    }

    #[test]
    fn dse_method_counts_a_repeated_value_once() {
        let resp = call(
            &service(),
            "{\"method\":\"dse\",\"bench\":\"sumrows\",\"sizes\":{\"m\":64,\"n\":64},\
             \"tile_candidates\":{\"m\":[8,16,16],\"n\":[16]},\"inner_pars\":[16,16]}",
        );
        assert_eq!(get(&resp, &["ok"]).as_bool(), Some(true), "{resp:?}");
        for key in ["space", "evaluated", "simulated"] {
            assert_eq!(get(&resp, &["result", key]).as_u64(), Some(2), "{key}");
        }
    }

    /// The gate on "a design point becomes a design and its numbers in one
    /// place": a direct `simulate` and a one-point `dse` over the same
    /// point meet in the design and measurement caches, in either order.
    #[test]
    fn direct_requests_and_sweeps_share_cache_entries() {
        let svc = service();
        let simulate = |m: u32| {
            format!(
                "{{\"method\":\"simulate\",\"bench\":\"sumrows\",\
                 \"sizes\":{{\"m\":{m},\"n\":8}},\"inner_par\":16}}"
            )
        };
        let dse = |m: u32| {
            format!(
                "{{\"method\":\"dse\",\"bench\":\"sumrows\",\
                 \"sizes\":{{\"m\":{m},\"n\":8}},\"inner_pars\":[16]}}"
            )
        };
        for (first, second) in [(simulate(8), dse(8)), (dse(4), simulate(4))] {
            let resp = call(&svc, &first);
            assert_eq!(get(&resp, &["ok"]).as_bool(), Some(true), "{resp:?}");
            let before = svc.stats();
            let resp = call(&svc, &second);
            assert_eq!(get(&resp, &["ok"]).as_bool(), Some(true), "{resp:?}");
            let after = svc.stats();
            assert_eq!(after.dedup_builds, before.dedup_builds + 1, "{second}");
            assert_eq!(after.eval_hits, before.eval_hits + 1, "{second}");
            assert_eq!(after.eval_misses, before.eval_misses, "{second}");
            assert_eq!(after.design_builds, before.design_builds, "{second}");
        }
        let s = svc.stats();
        assert_eq!((s.eval_hits, s.design_builds), (2, 2));
    }

    /// The same source under two diagnostic file names is two requests:
    /// each answer cites its own name, in reports and in parse errors.
    fn verify_as(svc: &Service, src: &str, file: &str) -> Json {
        let src = escape(src);
        call(
            svc,
            &format!("{{\"method\":\"verify\",\"source\":{src},\"file\":\"{file}\"}}"),
        )
    }

    #[test]
    fn source_requests_answer_with_their_own_file_name() {
        let svc = service();
        let src = std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/sumrows.ppl"),
        )
        .unwrap();
        for file in ["a.ppl", "b.ppl"] {
            let resp = verify_as(&svc, &src, file);
            let cited = get(&resp, &["result", "report", "file"]).as_str();
            assert_eq!(cited, Some(file), "{resp:?}");
        }
        // One design for both: the name keys the response, not the program.
        assert_eq!(svc.stats().design_builds, 1);
    }

    #[test]
    fn parse_errors_cite_the_file_name_of_their_own_request() {
        let svc = service();
        for file in ["a.ppl", "b.ppl"] {
            let resp = verify_as(&svc, "prog broken { x = }", file);
            assert_eq!(get(&resp, &["error", "code"]).as_str(), Some(codes::PPL));
            let message = get(&resp, &["error", "message"]).as_str().unwrap();
            assert!(message.ends_with(&format!("in {file}")), "{message}");
            for diag in get(&resp, &["error", "diagnostics"]).as_arr().unwrap() {
                assert_eq!(get(diag, &["file"]).as_str(), Some(file), "{resp:?}");
            }
        }
    }

    /// Every decoded field of a work or `dse` request is part of the
    /// response memo's key: changing one alone changes the fingerprint
    /// (`Request::canonical` destructures both structs, so a new field
    /// cannot skip it; this walks the ones there are).
    #[test]
    fn every_request_field_changes_the_fingerprint() {
        let fp = |fields: &str| {
            let line = format!("{{\"method\":\"dse\",\"source\":\"prog p {{ }}\"{fields}}}");
            let req = Request::decode(&line, &Limits::default());
            req.unwrap_or_else(|e| panic!("{line}: {e:?}"))
                .fingerprint()
        };
        let guided = ",\"strategy\":\"guided\"";
        let base = [("", ""), (guided, "")];
        let rows = [
            ("", ",\"file\":\"a.ppl\""),
            ("", ",\"sizes\":{\"m\":16}"),
            ("", ",\"tiles\":{\"m\":4}"),
            ("", ",\"inner_par\":8"),
            ("", ",\"opt\":\"tiled\""),
            ("", ",\"sim\":{\"clock_mhz\":200}"),
            ("", ",\"sim\":{\"dram_gbps\":38.4}"),
            ("", ",\"sim\":{\"dram_latency\":61}"),
            ("", ",\"sim\":{\"burst_bytes\":64}"),
            ("", ",\"cycle_budget\":1000"),
            ("", ",\"tile_candidates\":{\"m\":[4]}"),
            ("", ",\"inner_pars\":[8]"),
            ("", ",\"sims\":[\"max4\"]"),
            ("", ",\"objective\":\"min-cycles\""),
            ("", ",\"area_cap\":0.5"),
            (guided, ",\"sample\":3"),
            (guided, ",\"top_k\":3"),
            (guided, ",\"explore\":3"),
            (guided, ",\"seed\":3"),
        ];
        let mut seen = Vec::new();
        for (prefix, field) in base.iter().chain(&rows) {
            let changed = fp(&format!("{prefix}{field}"));
            assert!(
                !seen.contains(&changed),
                "{field} is not in the fingerprint"
            );
            seen.push(changed);
        }
        // The id and the order of keys are not part of the payload.
        assert_eq!(fp(",\"id\":7"), fp(""));
        assert_eq!(
            fp(",\"tiles\":{\"m\":4,\"n\":8},\"inner_par\":8"),
            fp(",\"inner_par\":8,\"tiles\":{\"n\":8,\"m\":4}")
        );
    }

    #[test]
    fn dse_method_honors_strategy_and_objective() {
        let svc = service();
        // Guided run over a 12-point space: the calibration sample plus
        // the top slice must land under the full space size.
        let resp = call(
            &svc,
            "{\"id\":1,\"method\":\"dse\",\"bench\":\"sumrows\",\
             \"tile_candidates\":{\"m\":[4,8,16],\"n\":[4,8]},\"inner_pars\":[4,16],\
             \"strategy\":\"guided\",\"sample\":4,\"top_k\":2,\"explore\":1}",
        );
        assert_eq!(get(&resp, &["ok"]).as_bool(), Some(true), "{resp:?}");
        assert_eq!(get(&resp, &["result", "space"]).as_u64(), Some(12));
        let simulated = get(&resp, &["result", "simulated"]).as_u64().unwrap();
        let sampled = get(&resp, &["result", "sampled"]).as_u64().unwrap();
        assert!(sampled >= 1, "{resp:?}");
        assert!(simulated < 12, "guided should skip some points: {resp:?}");

        // The same space under min-cycles must report a best at least as
        // fast as the default lexicographic objective's.
        let full = call(
            &svc,
            "{\"id\":2,\"method\":\"dse\",\"bench\":\"sumrows\",\
             \"tile_candidates\":{\"m\":[4,8,16],\"n\":[4,8]},\"inner_pars\":[4,16]}",
        );
        let fastest = call(
            &svc,
            "{\"id\":3,\"method\":\"dse\",\"bench\":\"sumrows\",\
             \"tile_candidates\":{\"m\":[4,8,16],\"n\":[4,8]},\"inner_pars\":[4,16],\
             \"objective\":\"min-cycles\"}",
        );
        assert_eq!(get(&fastest, &["ok"]).as_bool(), Some(true), "{fastest:?}");
        let default_cycles = get(&full, &["result", "best", "cycles"]).as_u64().unwrap();
        let min_cycles = get(&fastest, &["result", "best", "cycles"])
            .as_u64()
            .unwrap();
        assert!(min_cycles <= default_cycles, "{fastest:?} vs {full:?}");

        // An impossible cap degrades to the typed DSE error.
        let capped = call(
            &svc,
            "{\"id\":4,\"method\":\"dse\",\"bench\":\"sumrows\",\
             \"tile_candidates\":{\"m\":[4,8]},\"inner_pars\":[4],\
             \"area_cap\":0.000001}",
        );
        assert_eq!(get(&capped, &["ok"]).as_bool(), Some(false), "{capped:?}");
        assert_eq!(get(&capped, &["error", "code"]).as_str(), Some(codes::DSE));
    }

    #[test]
    fn unknown_bench_is_typed() {
        let svc = service();
        let resp = call(&svc, "{\"id\":1,\"method\":\"compile\",\"bench\":\"nope\"}");
        assert_eq!(get(&resp, &["error", "code"]).as_str(), Some(codes::BENCH));
    }

    #[test]
    fn zero_inflight_budget_sheds_work_with_typed_retryable_overload() {
        let svc = Service::new(
            Limits {
                max_inflight: 0,
                ..Limits::default()
            },
            1,
            EvalCache::new(),
        );
        // Work requests are shed...
        let resp = call(
            &svc,
            "{\"id\":1,\"method\":\"simulate\",\"bench\":\"gemm\"}",
        );
        assert_eq!(get(&resp, &["ok"]).as_bool(), Some(false));
        assert_eq!(
            get(&resp, &["error", "code"]).as_str(),
            Some(codes::OVERLOAD)
        );
        assert_eq!(
            get(&resp, &["error", "retryable"]).as_bool(),
            Some(true),
            "sheds must be marked retryable"
        );
        // ...and nothing was evaluated or memoized.
        let s = svc.stats();
        assert_eq!(s.shed_requests, 1);
        assert_eq!(s.dedup_builds, 0);
        assert_eq!(s.design_builds, 0);
        // Control methods still answer.
        let pong = call(&svc, "{\"id\":2,\"method\":\"ping\"}");
        assert_eq!(get(&pong, &["result", "pong"]).as_bool(), Some(true));
        let health = call(&svc, "{\"id\":3,\"method\":\"health\"}");
        assert_eq!(get(&health, &["result", "shed_requests"]).as_u64(), Some(1));
        assert_eq!(get(&health, &["result", "inflight"]).as_u64(), Some(0));
    }

    #[test]
    fn admitted_work_releases_its_inflight_slot() {
        let svc = Service::new(
            Limits {
                max_inflight: 1,
                ..Limits::default()
            },
            1,
            EvalCache::new(),
        );
        // Sequential requests each fit the budget of one.
        for id in 0..3 {
            let resp = call(
                &svc,
                &format!("{{\"id\":{id},\"method\":\"simulate\",\"bench\":\"sumrows\"}}"),
            );
            assert_eq!(get(&resp, &["ok"]).as_bool(), Some(true), "{resp:?}");
        }
        assert_eq!(svc.stats().shed_requests, 0);
    }

    #[test]
    fn panicking_handler_is_contained_as_einternal_and_not_memoized() {
        let svc = Service::new(
            Limits {
                debug_methods: true,
                ..Limits::default()
            },
            1,
            EvalCache::new(),
        );
        for round in 0..2 {
            let resp = call(&svc, "{\"id\":1,\"method\":\"__panic\"}");
            assert_eq!(get(&resp, &["ok"]).as_bool(), Some(false));
            assert_eq!(
                get(&resp, &["error", "code"]).as_str(),
                Some(codes::INTERNAL),
                "round {round}"
            );
            assert!(get(&resp, &["error", "message"])
                .as_str()
                .unwrap()
                .contains("injected panic"));
            assert!(
                get(&resp, &["error"]).get("retryable").is_none(),
                "EINTERNAL is final, not retryable"
            );
        }
        let s = svc.stats();
        // Both rounds actually ran: the panic response is never memoized.
        assert_eq!(s.panics, 2);
        assert_eq!(s.dedup_hits, 0);
        // The dispatcher survived: normal work still runs afterwards.
        let ok = call(&svc, "{\"id\":2,\"method\":\"ping\"}");
        assert_eq!(get(&ok, &["result", "pong"]).as_bool(), Some(true));
    }

    #[test]
    fn panic_method_is_unknown_without_debug_methods() {
        let svc = service();
        let resp = call(&svc, "{\"id\":1,\"method\":\"__panic\"}");
        assert_eq!(get(&resp, &["error", "code"]).as_str(), Some(codes::METHOD));
        assert_eq!(svc.stats().panics, 0);
    }

    #[test]
    fn connection_accounting_caps_and_releases() {
        let svc = Service::new(
            Limits {
                max_connections: 2,
                ..Limits::default()
            },
            1,
            EvalCache::new(),
        );
        assert!(svc.try_admit_connection());
        assert!(svc.try_admit_connection());
        assert!(!svc.try_admit_connection(), "third connection must shed");
        svc.connection_closed();
        assert!(svc.try_admit_connection(), "slot freed by close");
        let s = svc.stats();
        assert_eq!(s.accepted_connections, 3);
        assert_eq!(s.shed_connections, 1);
    }

    #[test]
    fn save_failures_are_counted() {
        let svc = service();
        assert_eq!(svc.stats().save_failures, 0);
        svc.note_save_failure();
        let health = call(&svc, "{\"id\":1,\"method\":\"health\"}");
        assert_eq!(get(&health, &["result", "save_failures"]).as_u64(), Some(1));
        assert_eq!(svc.stats().save_failures, 1);
    }

    #[test]
    fn malformed_lines_never_drop_the_dispatcher() {
        let svc = service();
        for bad in ["{", "[]", "{\"id\":{},\"method\":\"ping\"}", "\u{1}", "42"] {
            let resp = call(&svc, bad);
            assert_eq!(get(&resp, &["ok"]).as_bool(), Some(false), "line {bad:?}");
        }
        assert!(svc.handle_line("   ").is_none());
    }
}
