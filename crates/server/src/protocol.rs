//! The wire protocol: newline-framed JSON requests and responses.
//!
//! One request per line, one response per line, always in request order.
//! A request is a JSON object with a `method` field and an optional `id`
//! (number or string) that is echoed verbatim in the response; every
//! response is either
//!
//! ```text
//! {"id":ID,"ok":true,"result":{…}}
//! {"id":ID,"ok":false,"error":{"code":"E…","message":"…"}}
//! ```
//!
//! Error codes are stable and typed (see [`codes`]): a malformed line, an
//! unknown method, an over-limit payload, or an over-budget simulation
//! each map to a fixed code — never a dropped connection, never a panic.
//! The full request vocabulary is documented in the README's "Serving"
//! section; this module owns decoding (with limits enforced during
//! decode) and the canonical request fingerprint used for in-flight
//! deduplication.

use crate::json::{escape, parse_json, to_string, Json};
use pphw::OptLevel;
use pphw_dse::cache::fnv1a64;
use pphw_dse::{GuidedConfig, Objective, Strategy};
use pphw_sim::SimConfig;

/// Stable wire-protocol error codes.
pub mod codes {
    /// The line is not valid JSON.
    pub const PARSE: &str = "EPARSE";
    /// The request is well-formed JSON but violates the schema (missing
    /// or wrongly-typed field, bad enum value).
    pub const PROTO: &str = "EPROTO";
    /// The `method` field names no known method.
    pub const METHOD: &str = "EMETHOD";
    /// A payload exceeds a server limit (line length, source size,
    /// dimension product, space size).
    pub const LIMIT: &str = "ELIMIT";
    /// The simulation exceeded its per-request watchdog cycle budget.
    pub const BUDGET: &str = "EBUDGET";
    /// The `.ppl` source failed to parse or lower; the error carries the
    /// spanned diagnostics.
    pub const PPL: &str = "EPPL";
    /// The named built-in benchmark does not exist.
    pub const BENCH: &str = "EBENCH";
    /// Compilation (tiling or hardware generation) rejected the request.
    pub const COMPILE: &str = "ECOMPILE";
    /// Simulation rejected the configuration (not a budget overrun).
    pub const SIM: &str = "ESIM";
    /// Design-space exploration failed (empty space, nothing feasible).
    pub const DSE: &str = "EDSE";
    /// The server shed this request (or connection) because its in-flight
    /// work budget or connection cap is full. Always retryable: the error
    /// object carries `"retryable":true`, nothing was evaluated, and
    /// nothing was cached.
    pub const OVERLOAD: &str = "EOVERLOAD";
    /// The request handler panicked. The connection survives, the panic
    /// is reported typed, and the response is never memoized (a retry
    /// re-runs the work).
    pub const INTERNAL: &str = "EINTERNAL";
}

/// A typed protocol error: a stable code, a message, and optional extra
/// JSON (e.g. a diagnostics array) spliced into the error object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorBody {
    /// One of the [`codes`] constants.
    pub code: &'static str,
    /// Human-readable description.
    pub message: String,
    /// Extra `"key":value` fragments for the error object, already
    /// rendered as JSON (empty for most errors).
    pub extra: Vec<(String, String)>,
}

impl ErrorBody {
    /// A plain code + message error.
    pub fn new(code: &'static str, message: impl Into<String>) -> ErrorBody {
        ErrorBody {
            code,
            message: message.into(),
            extra: Vec::new(),
        }
    }

    /// Whether the error object carries `"retryable":true` — the client
    /// may safely resend the identical request after a backoff.
    #[must_use]
    pub fn is_retryable(&self) -> bool {
        self.extra
            .iter()
            .any(|(k, v)| k == "retryable" && v == "true")
    }

    /// Renders the `{"code":…,"message":…}` object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"code\":{},\"message\":{}",
            escape(self.code),
            escape(&self.message)
        );
        for (k, v) in &self.extra {
            use std::fmt::Write as _;
            let _ = write!(out, ",{}:{v}", escape(k));
        }
        out.push('}');
        out
    }
}

/// The typed shed error for a full in-flight work budget. Marked
/// retryable: the server did no work and cached nothing.
#[must_use]
pub fn overload_inflight(limit: usize) -> ErrorBody {
    let mut err = ErrorBody::new(
        codes::OVERLOAD,
        format!(
            "server overloaded: in-flight work budget reached (limit {limit}); retry with backoff"
        ),
    );
    err.extra
        .push(("retryable".to_string(), "true".to_string()));
    err
}

/// The typed shed error for a full connection cap. Marked retryable: the
/// daemon wrote this one line and closed the connection without reading.
#[must_use]
pub fn overload_connections(limit: usize) -> ErrorBody {
    let mut err = ErrorBody::new(
        codes::OVERLOAD,
        format!("server overloaded: connection limit reached (limit {limit}); retry with backoff"),
    );
    err.extra
        .push(("retryable".to_string(), "true".to_string()));
    err
}

/// Renders a success response line (no trailing newline).
#[must_use]
pub fn ok_line(id: &Json, result: &str) -> String {
    format!(
        "{{\"id\":{},\"ok\":true,\"result\":{result}}}",
        to_string(id)
    )
}

/// Renders an error response line (no trailing newline).
#[must_use]
pub fn err_line(id: &Json, err: &ErrorBody) -> String {
    format!(
        "{{\"id\":{},\"ok\":false,\"error\":{}}}",
        to_string(id),
        err.to_json()
    )
}

/// Server-enforced request limits. Every limit degrades to a typed
/// [`codes::LIMIT`] error, so a hostile request costs one bounded parse,
/// not a worker.
#[derive(Debug, Clone)]
pub struct Limits {
    /// Maximum request line length in bytes (frames longer than this are
    /// rejected and the connection closed, since it cannot resync).
    pub max_line_bytes: usize,
    /// Maximum `.ppl` source size in bytes.
    pub max_source_bytes: usize,
    /// Maximum product of concrete dimension sizes (bounds compile and
    /// interpreter work).
    pub max_size_product: i64,
    /// Maximum innermost-parallelism factor.
    pub max_inner_par: u32,
    /// Maximum enumerated design-space size for one `dse` request.
    pub max_space: usize,
    /// Hard ceiling on the per-request watchdog cycle budget; client
    /// requests are clamped to this.
    pub max_cycle_budget: u64,
    /// Watchdog cycle budget applied when the request names none.
    pub default_cycle_budget: u64,
    /// Maximum simultaneously-open connections; an accept beyond the cap
    /// is answered with one [`codes::OVERLOAD`] line and closed.
    pub max_connections: usize,
    /// Maximum work requests (compile / verify / simulate / dse) allowed
    /// in flight at once; requests beyond the budget get an immediate
    /// [`codes::OVERLOAD`] instead of queuing without bound. `0` sheds
    /// every work request (useful for drain mode and tests).
    pub max_inflight: usize,
    /// Enables test-only debug methods (currently `__panic`, which
    /// exercises the panic containment path). Off by default: a
    /// production daemon answers `__panic` with [`codes::METHOD`].
    pub debug_methods: bool,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits {
            max_line_bytes: 4 << 20,
            max_source_bytes: 1 << 20,
            max_size_product: 1 << 24,
            max_inner_par: 1024,
            max_space: 512,
            max_cycle_budget: 1 << 40,
            default_cycle_budget: 1 << 32,
            max_connections: 256,
            max_inflight: 64,
            debug_methods: false,
        }
    }
}

/// The program a work request operates on.
#[derive(Debug, Clone, PartialEq)]
pub enum ProgramRef {
    /// A named built-in benchmark (Table 5).
    Bench(String),
    /// Inline `.ppl` source text plus the file name used in diagnostics.
    Source {
        /// The program text.
        text: String,
        /// Diagnostic file name (defaults to `<request>`).
        file: String,
    },
}

impl ProgramRef {
    /// A stable identity token for cache keys: the bench name, or a
    /// content hash of the source text. Source programs are keyed by
    /// *content*, so two different programs that happen to share a
    /// `prog` name can never collide in the shared caches.
    #[must_use]
    pub fn cache_ident(&self) -> String {
        match self {
            ProgramRef::Bench(name) => format!("bench:{name}"),
            ProgramRef::Source { text, .. } => {
                format!("src:{:016x}", fnv1a64(text.as_bytes()))
            }
        }
    }
}

/// A decoded compile / verify / simulate request body.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkRequest {
    /// The program to operate on.
    pub program: ProgramRef,
    /// Concrete size overrides (`{"m":64}`).
    pub sizes: Vec<(String, i64)>,
    /// Tile size overrides (`{"m":8}`).
    pub tiles: Vec<(String, i64)>,
    /// Innermost parallelism override.
    pub inner_par: Option<u32>,
    /// Optimization level (`"baseline" | "tiled" | "meta"`).
    pub opt: OptLevel,
    /// Simulation substrate (defaults overridden field by field).
    pub sim: SimConfig,
    /// Requested watchdog cycle budget (clamped by the server).
    pub cycle_budget: Option<u64>,
}

/// A decoded `dse` request: a base work request plus the swept space.
#[derive(Debug, Clone, PartialEq)]
pub struct DseRequest {
    /// Program, sizes, opt level, and budget for every candidate.
    pub base: WorkRequest,
    /// Tile candidates per tuned dimension (`{"m":[4,8]}`); empty means
    /// the benchmark's default tile dimensions with power-of-two
    /// candidates.
    pub tile_candidates: Vec<(String, Vec<i64>)>,
    /// Parallelism factors swept (defaults to the base `inner_par`).
    pub inner_pars: Vec<u32>,
    /// Named substrate variants swept (defaults to `["max4"]`).
    pub sims: Vec<String>,
    /// Exhaustive (the default) or model-guided measurement
    /// (`"strategy":"guided"` plus optional `sample`/`top_k`/`explore`/
    /// `seed` tuning fields).
    pub strategy: Strategy,
    /// Ranking objective (`"objective":"min-cycles" | "cycles-area" |
    /// "area-cap"`; `area_cap` alone implies the capped objective).
    pub objective: Objective,
}

/// A decoded request: the echoed id plus the method payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Echoed verbatim in the response (`Json::Null` when absent).
    pub id: Json,
    /// The dispatched method.
    pub method: Method,
}

/// The method vocabulary.
#[derive(Debug, Clone, PartialEq)]
pub enum Method {
    /// Liveness probe; returns `{"pong":true}`.
    Ping,
    /// Cache / dedup / request counters.
    Stats,
    /// Overload / degradation gauges: in-flight work, open connections,
    /// shed counts, panics, persistence failures.
    Health,
    /// Test-only (gated on [`Limits::debug_methods`]): panics inside the
    /// work path to prove the daemon contains it as a typed
    /// [`codes::INTERNAL`] error.
    TestPanic,
    /// Clean daemon shutdown (responds, then stops accepting).
    Shutdown,
    /// Compile to a design summary (no simulation).
    Compile(WorkRequest),
    /// Static analysis; spanned diagnostics for source programs.
    Verify(WorkRequest),
    /// Compile + cycle-accurate simulation under the watchdog budget.
    Simulate(WorkRequest),
    /// Design-space exploration over a bounded space.
    Dse(DseRequest),
}

impl Method {
    /// Whether this method does compile/simulate work that should be
    /// deduplicated and memoized (the control methods are not).
    #[must_use]
    pub fn is_work(&self) -> bool {
        matches!(
            self,
            Method::Compile(_)
                | Method::Verify(_)
                | Method::Simulate(_)
                | Method::Dse(_)
                | Method::TestPanic
        )
    }
}

fn proto(message: impl Into<String>) -> ErrorBody {
    ErrorBody::new(codes::PROTO, message)
}

fn limit(message: impl Into<String>) -> ErrorBody {
    ErrorBody::new(codes::LIMIT, message)
}

/// Decodes `{"m":64,…}` into name/value pairs, requiring positive exact
/// integers.
fn dim_pairs(v: &Json, what: &str) -> Result<Vec<(String, i64)>, ErrorBody> {
    let fields = v
        .as_obj()
        .ok_or_else(|| proto(format!("`{what}` must be an object of integers")))?;
    let mut out = Vec::with_capacity(fields.len());
    for (k, val) in fields {
        let n = val
            .as_i64()
            .filter(|n| *n > 0)
            .ok_or_else(|| proto(format!("`{what}.{k}` must be a positive integer")))?;
        out.push((k.clone(), n));
    }
    Ok(out)
}

fn decode_sim(v: Option<&Json>, limits: &Limits) -> Result<SimConfig, ErrorBody> {
    let mut sim = SimConfig::default();
    let Some(v) = v else { return Ok(sim) };
    let fields = v.as_obj().ok_or_else(|| proto("`sim` must be an object"))?;
    for (k, val) in fields {
        match k.as_str() {
            "clock_mhz" => {
                sim.clock_mhz = val
                    .as_f64()
                    .ok_or_else(|| proto("`sim.clock_mhz` must be a number"))?;
            }
            "dram_gbps" => {
                sim.dram_gbps = val
                    .as_f64()
                    .ok_or_else(|| proto("`sim.dram_gbps` must be a number"))?;
            }
            "dram_latency" => {
                sim.dram_latency = val
                    .as_u64()
                    .ok_or_else(|| proto("`sim.dram_latency` must be a non-negative integer"))?;
            }
            "burst_bytes" => {
                sim.burst_bytes = val
                    .as_u64()
                    .ok_or_else(|| proto("`sim.burst_bytes` must be a non-negative integer"))?;
            }
            other => return Err(proto(format!("unknown `sim` field `{other}`"))),
        }
    }
    // The watchdog budget is set by the request's `cycle_budget`, never
    // through `sim`; silently pre-clamp so validation below cannot be
    // used to smuggle an unbounded run.
    sim.cycle_budget = limits.default_cycle_budget;
    Ok(sim)
}

fn decode_work(obj: &Json, limits: &Limits) -> Result<WorkRequest, ErrorBody> {
    let program = match (obj.get("bench"), obj.get("source")) {
        (Some(_), Some(_)) => {
            return Err(proto("give either `bench` or `source`, not both"));
        }
        (Some(b), None) => {
            let name = b
                .as_str()
                .ok_or_else(|| proto("`bench` must be a string"))?;
            ProgramRef::Bench(name.to_string())
        }
        (None, Some(s)) => {
            let text = s
                .as_str()
                .ok_or_else(|| proto("`source` must be a string"))?;
            if text.len() > limits.max_source_bytes {
                return Err(limit(format!(
                    "source is {} bytes, limit is {}",
                    text.len(),
                    limits.max_source_bytes
                )));
            }
            let file = match obj.get("file") {
                Some(f) => f
                    .as_str()
                    .ok_or_else(|| proto("`file` must be a string"))?
                    .to_string(),
                None => "<request>".to_string(),
            };
            ProgramRef::Source {
                text: text.to_string(),
                file,
            }
        }
        (None, None) => return Err(proto("missing `bench` or `source`")),
    };
    let sizes = match obj.get("sizes") {
        Some(v) => dim_pairs(v, "sizes")?,
        None => Vec::new(),
    };
    let product: i64 = sizes
        .iter()
        .map(|(_, v)| *v)
        .fold(1i64, i64::saturating_mul);
    if product > limits.max_size_product {
        return Err(limit(format!(
            "size product {product} exceeds limit {}",
            limits.max_size_product
        )));
    }
    let tiles = match obj.get("tiles") {
        Some(v) => dim_pairs(v, "tiles")?,
        None => Vec::new(),
    };
    let inner_par = match obj.get("inner_par") {
        Some(v) => {
            let p = v
                .as_u64()
                .filter(|p| *p >= 1)
                .ok_or_else(|| proto("`inner_par` must be a positive integer"))?;
            if p > u64::from(limits.max_inner_par) {
                return Err(limit(format!(
                    "inner_par {p} exceeds limit {}",
                    limits.max_inner_par
                )));
            }
            // Bounded by the u32 limit just checked, so this never falls
            // back.
            Some(u32::try_from(p).unwrap_or(limits.max_inner_par))
        }
        None => None,
    };
    let opt = match obj.get("opt") {
        None => OptLevel::Metapipelined,
        Some(v) => match v.as_str() {
            Some("baseline") => OptLevel::Baseline,
            Some("tiled") => OptLevel::Tiled,
            Some("meta") => OptLevel::Metapipelined,
            _ => return Err(proto("`opt` must be \"baseline\", \"tiled\", or \"meta\"")),
        },
    };
    let cycle_budget = match obj.get("cycle_budget") {
        Some(v) => Some(
            v.as_u64()
                .filter(|b| *b >= 1)
                .ok_or_else(|| proto("`cycle_budget` must be a positive integer"))?,
        ),
        None => None,
    };
    Ok(WorkRequest {
        program,
        sizes,
        tiles,
        inner_par,
        opt,
        sim: decode_sim(obj.get("sim"), limits)?,
        cycle_budget,
    })
}

fn decode_dse(obj: &Json, limits: &Limits) -> Result<DseRequest, ErrorBody> {
    let base = decode_work(obj, limits)?;
    let tile_candidates = match obj.get("tile_candidates") {
        None => Vec::new(),
        Some(v) => {
            let fields = v
                .as_obj()
                .ok_or_else(|| proto("`tile_candidates` must be an object of integer arrays"))?;
            let mut out = Vec::with_capacity(fields.len());
            for (dim, arr) in fields {
                let items = arr
                    .as_arr()
                    .ok_or_else(|| proto(format!("`tile_candidates.{dim}` must be an array")))?;
                let mut cands = Vec::with_capacity(items.len());
                for item in items {
                    cands.push(item.as_i64().filter(|n| *n > 0).ok_or_else(|| {
                        proto(format!(
                            "`tile_candidates.{dim}` entries must be positive integers"
                        ))
                    })?);
                }
                out.push((dim.clone(), cands));
            }
            out
        }
    };
    let inner_pars = match obj.get("inner_pars") {
        None => Vec::new(),
        Some(v) => {
            let items = v
                .as_arr()
                .ok_or_else(|| proto("`inner_pars` must be an array"))?;
            let mut out = Vec::with_capacity(items.len());
            for item in items {
                let p = item
                    .as_u64()
                    .filter(|p| *p >= 1 && *p <= u64::from(limits.max_inner_par))
                    .ok_or_else(|| {
                        proto(format!(
                            "`inner_pars` entries must be integers in 1..={}",
                            limits.max_inner_par
                        ))
                    })?;
                // Bounded by `max_inner_par: u32` via the filter above.
                out.push(u32::try_from(p).unwrap_or(limits.max_inner_par));
            }
            out
        }
    };
    let sims = match obj.get("sims") {
        None => Vec::new(),
        Some(v) => {
            let items = v.as_arr().ok_or_else(|| proto("`sims` must be an array"))?;
            let mut out = Vec::with_capacity(items.len());
            for item in items {
                out.push(
                    item.as_str()
                        .ok_or_else(|| proto("`sims` entries must be strings"))?
                        .to_string(),
                );
            }
            out
        }
    };
    let strategy = decode_strategy(obj)?;
    let objective = decode_objective(obj)?;
    Ok(DseRequest {
        base,
        tile_candidates,
        inner_pars,
        sims,
        strategy,
        objective,
    })
}

/// Decodes the optional `strategy` field and its guided tuning knobs.
fn decode_strategy(obj: &Json) -> Result<Strategy, ErrorBody> {
    let tuning_present = ["sample", "top_k", "explore", "seed"]
        .iter()
        .any(|k| obj.get(k).is_some());
    let strategy = match obj.get("strategy") {
        None => None,
        Some(v) => Some(
            v.as_str()
                .ok_or_else(|| proto("`strategy` must be a string"))?,
        ),
    };
    match strategy {
        None | Some("exhaustive") => {
            if tuning_present {
                return Err(proto(
                    "`sample`/`top_k`/`explore`/`seed` need \"strategy\":\"guided\"",
                ));
            }
            Ok(Strategy::Exhaustive)
        }
        Some("guided") => {
            let d = GuidedConfig::default();
            let count = |name: &str, dflt: usize| -> Result<usize, ErrorBody> {
                match obj.get(name) {
                    None => Ok(dflt),
                    Some(v) => v
                        .as_u64()
                        .filter(|n| *n >= 1 && *n <= 1_000_000)
                        .and_then(|n| usize::try_from(n).ok())
                        .ok_or_else(|| {
                            proto(format!("`{name}` must be an integer in 1..=1000000"))
                        }),
                }
            };
            let seed = match obj.get("seed") {
                None => d.seed,
                Some(v) => v
                    .as_u64()
                    .ok_or_else(|| proto("`seed` must be an unsigned integer"))?,
            };
            Ok(Strategy::Guided(GuidedConfig {
                sample: count("sample", d.sample)?,
                top_k: count("top_k", d.top_k)?,
                explore: count("explore", d.explore)?,
                seed,
            }))
        }
        Some(other) => Err(proto(format!(
            "unknown strategy `{other}`; known: exhaustive, guided"
        ))),
    }
}

/// Decodes the optional `objective` / `area_cap` fields. `area_cap`
/// alone implies the capped objective, mirroring the `dse` binary.
fn decode_objective(obj: &Json) -> Result<Objective, ErrorBody> {
    let area_cap = match obj.get("area_cap") {
        None => None,
        Some(v) => Some(
            v.as_f64()
                .filter(|f| f.is_finite() && *f > 0.0)
                .ok_or_else(|| proto("`area_cap` must be a positive finite number"))?,
        ),
    };
    let objective = match obj.get("objective") {
        None => None,
        Some(v) => Some(
            v.as_str()
                .ok_or_else(|| proto("`objective` must be a string"))?,
        ),
    };
    match (objective, area_cap) {
        (None | Some("cycles-area"), None) => Ok(Objective::CyclesThenArea),
        (Some("min-cycles"), None) => Ok(Objective::MinCycles),
        (Some("area-cap") | None, Some(area_cap)) => {
            Ok(Objective::FastestUnderAreaCap { area_cap })
        }
        (Some("area-cap"), None) => Err(proto("\"objective\":\"area-cap\" needs `area_cap`")),
        (Some("min-cycles" | "cycles-area"), Some(_)) => Err(proto(
            "`area_cap` only makes sense with \"objective\":\"area-cap\"",
        )),
        (Some(other), _) => Err(proto(format!(
            "unknown objective `{other}`; known: min-cycles, cycles-area, area-cap"
        ))),
    }
}

impl Request {
    /// Decodes one request line. The returned error pairs the best-known
    /// id (so the client can correlate) with the typed failure.
    ///
    /// # Errors
    ///
    /// `(id, ErrorBody)` for malformed JSON ([`codes::PARSE`]),
    /// schema violations ([`codes::PROTO`]), unknown methods
    /// ([`codes::METHOD`]), or limit violations ([`codes::LIMIT`]).
    pub fn decode(line: &str, limits: &Limits) -> Result<Request, (Json, ErrorBody)> {
        let v = parse_json(line)
            .map_err(|e| (Json::Null, ErrorBody::new(codes::PARSE, e.to_string())))?;
        if v.as_obj().is_none() {
            return Err((Json::Null, proto("request must be a JSON object")));
        }
        let id = match v.get("id") {
            None => Json::Null,
            Some(id @ (Json::Null | Json::Num(_) | Json::Str(_))) => id.clone(),
            Some(_) => {
                return Err((Json::Null, proto("`id` must be a number or string")));
            }
        };
        let fail = |e: ErrorBody| (id.clone(), e);
        let method = v
            .get("method")
            .and_then(Json::as_str)
            .ok_or_else(|| fail(proto("missing string field `method`")))?;
        let method = match method {
            "ping" => Method::Ping,
            "stats" => Method::Stats,
            "health" => Method::Health,
            "shutdown" => Method::Shutdown,
            "__panic" if limits.debug_methods => Method::TestPanic,
            "compile" => Method::Compile(decode_work(&v, limits).map_err(fail)?),
            "verify" => Method::Verify(decode_work(&v, limits).map_err(fail)?),
            "simulate" => Method::Simulate(decode_work(&v, limits).map_err(fail)?),
            "dse" => Method::Dse(decode_dse(&v, limits).map_err(fail)?),
            other => {
                return Err(fail(ErrorBody::new(
                    codes::METHOD,
                    format!("unknown method `{other}`"),
                )));
            }
        };
        Ok(Request { id, method })
    }

    /// The canonical fingerprint of the request *payload* (the id is
    /// excluded): two requests with equal fingerprints demand identical
    /// work, so in-flight duplicates share one evaluation and repeats are
    /// served from the response memo.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        fnv1a64(self.canonical().as_bytes())
    }

    /// Canonical text form of the payload. Dimension maps are sorted so
    /// field order on the wire cannot split cache entries.
    #[must_use]
    pub fn canonical(&self) -> String {
        fn dims(pairs: &[(String, i64)]) -> String {
            let mut sorted: Vec<_> = pairs.iter().collect();
            sorted.sort();
            sorted
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(",")
        }
        fn work(tag: &str, w: &WorkRequest) -> String {
            format!(
                "{tag}|prog={}|sizes={}|tiles={}|par={:?}|opt={:?}|sim={}|budget={:?}",
                w.program.cache_ident(),
                dims(&w.sizes),
                dims(&w.tiles),
                w.inner_par,
                w.opt,
                w.sim.canonical_key(),
                w.cycle_budget
            )
        }
        match &self.method {
            Method::Ping => "ping".to_string(),
            Method::Stats => "stats".to_string(),
            Method::Health => "health".to_string(),
            Method::Shutdown => "shutdown".to_string(),
            Method::TestPanic => "__panic".to_string(),
            Method::Compile(w) => work("compile", w),
            Method::Verify(w) => work("verify", w),
            Method::Simulate(w) => work("simulate", w),
            Method::Dse(d) => {
                let mut tiles: Vec<_> = d
                    .tile_candidates
                    .iter()
                    .map(|(k, v)| format!("{k}={v:?}"))
                    .collect();
                tiles.sort();
                format!(
                    "dse|{}|cands={}|pars={:?}|sims={:?}|strat={:?}|obj={:?}",
                    work("base", &d.base),
                    tiles.join(","),
                    d.inner_pars,
                    d.sims,
                    d.strategy,
                    d.objective
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)]

    use super::*;

    fn lim() -> Limits {
        Limits::default()
    }

    #[test]
    fn decodes_a_full_simulate_request() {
        let line = "{\"id\":7,\"method\":\"simulate\",\"bench\":\"gemm\",\
                    \"tiles\":{\"m\":8,\"n\":8},\"inner_par\":32,\"opt\":\"tiled\",\
                    \"sim\":{\"clock_mhz\":200},\"cycle_budget\":100000}";
        let req = Request::decode(line, &lim()).unwrap();
        assert_eq!(req.id, Json::Num(7.0));
        let Method::Simulate(w) = &req.method else {
            panic!("wrong method")
        };
        assert_eq!(w.program, ProgramRef::Bench("gemm".into()));
        assert_eq!(w.tiles.len(), 2);
        assert_eq!(w.inner_par, Some(32));
        assert_eq!(w.opt, OptLevel::Tiled);
        assert_eq!(w.sim.clock_mhz, 200.0);
        assert_eq!(w.cycle_budget, Some(100_000));
    }

    #[test]
    fn typed_errors_for_each_failure_class() {
        let cases: &[(&str, &str)] = &[
            ("{not json", codes::PARSE),
            ("[1,2,3]", codes::PROTO),
            ("{\"id\":1}", codes::PROTO),
            ("{\"method\":\"frobnicate\"}", codes::METHOD),
            ("{\"method\":\"compile\"}", codes::PROTO),
            (
                "{\"method\":\"compile\",\"bench\":\"gemm\",\"source\":\"x\"}",
                codes::PROTO,
            ),
            (
                "{\"method\":\"compile\",\"bench\":\"gemm\",\"opt\":\"hyper\"}",
                codes::PROTO,
            ),
            (
                "{\"method\":\"compile\",\"bench\":\"gemm\",\"inner_par\":1000000}",
                codes::LIMIT,
            ),
            (
                "{\"method\":\"compile\",\"bench\":\"gemm\",\"sizes\":{\"m\":99999999}}",
                codes::LIMIT,
            ),
            (
                "{\"method\":\"simulate\",\"bench\":\"gemm\",\"cycle_budget\":0}",
                codes::PROTO,
            ),
            (
                "{\"method\":\"simulate\",\"bench\":\"gemm\",\"sim\":{\"warp\":9}}",
                codes::PROTO,
            ),
        ];
        for (line, want) in cases {
            let (_, err) = Request::decode(line, &lim()).unwrap_err();
            assert_eq!(err.code, *want, "line {line}");
        }
    }

    #[test]
    fn id_is_preserved_through_decode_errors_when_parseable() {
        let (id, err) =
            Request::decode("{\"id\":\"abc\",\"method\":\"nope\"}", &lim()).unwrap_err();
        assert_eq!(id, Json::Str("abc".into()));
        assert_eq!(err.code, codes::METHOD);
    }

    #[test]
    fn fingerprint_ignores_id_and_field_order_but_not_payload() {
        let a = Request::decode(
            "{\"id\":1,\"method\":\"simulate\",\"bench\":\"gemm\",\"tiles\":{\"m\":8,\"n\":4}}",
            &lim(),
        )
        .unwrap();
        let b = Request::decode(
            "{\"tiles\":{\"n\":4,\"m\":8},\"method\":\"simulate\",\"id\":99,\"bench\":\"gemm\"}",
            &lim(),
        )
        .unwrap();
        let c = Request::decode(
            "{\"id\":1,\"method\":\"simulate\",\"bench\":\"gemm\",\"tiles\":{\"m\":4,\"n\":4}}",
            &lim(),
        )
        .unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        let d = Request::decode(
            "{\"id\":1,\"method\":\"compile\",\"bench\":\"gemm\",\"tiles\":{\"m\":8,\"n\":4}}",
            &lim(),
        )
        .unwrap();
        assert_ne!(a.fingerprint(), d.fingerprint());
    }

    /// The response memo is keyed by these: literals captured before the
    /// diagnostic file name joined the fingerprint (`bench` requests carry
    /// no file, so they must not move) and never edited to make a change
    /// pass.
    #[test]
    fn bench_request_fingerprints_are_pinned() {
        let fp = |line: &str| Request::decode(line, &lim()).unwrap().fingerprint();
        assert_eq!(
            fp("{\"id\":1,\"method\":\"simulate\",\"bench\":\"gemm\",\
                \"tiles\":{\"m\":8,\"n\":4},\"inner_par\":32,\"opt\":\"tiled\",\
                \"sim\":{\"clock_mhz\":200},\"cycle_budget\":100000}"),
            0x0311_4fd9_ca7e_9842
        );
        assert_eq!(
            fp(
                "{\"method\":\"dse\",\"bench\":\"sumrows\",\"sizes\":{\"m\":64},\
                \"tile_candidates\":{\"m\":[4,8],\"n\":[4]},\"inner_pars\":[4,16],\
                \"sims\":[\"max4\"],\"strategy\":\"guided\",\"sample\":4,\"top_k\":2,\
                \"explore\":1,\"seed\":7,\"area_cap\":0.5}"
            ),
            0x86d8_e0be_c73b_c4dd
        );
    }

    #[test]
    fn dse_strategy_and_objective_decode_with_defaults_and_overrides() {
        let d = Request::decode("{\"method\":\"dse\",\"bench\":\"sumrows\"}", &lim()).unwrap();
        let Method::Dse(req) = &d.method else {
            panic!("not a dse request")
        };
        assert_eq!(req.strategy, Strategy::Exhaustive);
        assert_eq!(req.objective, Objective::CyclesThenArea);

        let g = Request::decode(
            "{\"method\":\"dse\",\"bench\":\"sumrows\",\"strategy\":\"guided\",\
             \"sample\":5,\"top_k\":7,\"seed\":9,\"objective\":\"min-cycles\"}",
            &lim(),
        )
        .unwrap();
        let Method::Dse(req) = &g.method else {
            panic!("not a dse request")
        };
        assert_eq!(
            req.strategy,
            Strategy::Guided(GuidedConfig {
                sample: 5,
                top_k: 7,
                explore: GuidedConfig::default().explore,
                seed: 9,
            })
        );
        assert_eq!(req.objective, Objective::MinCycles);

        // `area_cap` alone implies the capped objective.
        let c = Request::decode(
            "{\"method\":\"dse\",\"bench\":\"sumrows\",\"area_cap\":0.5}",
            &lim(),
        )
        .unwrap();
        let Method::Dse(req) = &c.method else {
            panic!("not a dse request")
        };
        assert_eq!(
            req.objective,
            Objective::FastestUnderAreaCap { area_cap: 0.5 }
        );

        // Requests that differ only in strategy or objective must not
        // dedup onto each other.
        assert_ne!(d.fingerprint(), g.fingerprint());
        assert_ne!(d.fingerprint(), c.fingerprint());
    }

    #[test]
    fn dse_strategy_and_objective_schema_violations_are_typed() {
        let cases = [
            "{\"method\":\"dse\",\"bench\":\"sumrows\",\"strategy\":\"random\"}",
            "{\"method\":\"dse\",\"bench\":\"sumrows\",\"strategy\":7}",
            "{\"method\":\"dse\",\"bench\":\"sumrows\",\"sample\":4}",
            "{\"method\":\"dse\",\"bench\":\"sumrows\",\"strategy\":\"guided\",\"sample\":0}",
            "{\"method\":\"dse\",\"bench\":\"sumrows\",\"objective\":\"best\"}",
            "{\"method\":\"dse\",\"bench\":\"sumrows\",\"objective\":\"area-cap\"}",
            "{\"method\":\"dse\",\"bench\":\"sumrows\",\"objective\":\"min-cycles\",\"area_cap\":0.5}",
            "{\"method\":\"dse\",\"bench\":\"sumrows\",\"area_cap\":-1.0}",
        ];
        for line in cases {
            let (_, err) = Request::decode(line, &lim()).unwrap_err();
            assert_eq!(err.code, codes::PROTO, "line {line}");
        }
    }

    #[test]
    fn source_programs_are_keyed_by_content_not_name() {
        let a = Request::decode("{\"method\":\"compile\",\"source\":\"prog p { }\"}", &lim());
        let b = Request::decode(
            "{\"method\":\"compile\",\"source\":\"prog p { } \"}",
            &lim(),
        );
        // Both decode (source validity is checked at execution); their
        // fingerprints differ because the text differs.
        let (a, b) = (a.unwrap(), b.unwrap());
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn response_lines_render_stably() {
        assert_eq!(
            ok_line(&Json::Num(3.0), "{\"pong\":true}"),
            "{\"id\":3,\"ok\":true,\"result\":{\"pong\":true}}"
        );
        assert_eq!(
            err_line(
                &Json::Null,
                &ErrorBody::new(codes::METHOD, "unknown method `x`")
            ),
            "{\"id\":null,\"ok\":false,\"error\":{\"code\":\"EMETHOD\",\
             \"message\":\"unknown method `x`\"}}"
        );
    }
}
