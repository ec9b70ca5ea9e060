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

use pphw::OptLevel;
use pphw_dse::cache::fnv1a64;
use pphw_dse::{Objective, Strategy};
use pphw_frontend::LocatedError;
use pphw_ir::json::{self, parse_json, Json};
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

/// A typed protocol error: a stable code, a message, and the two extras
/// some errors carry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorBody {
    /// One of the [`codes`] constants.
    pub code: &'static str,
    /// Human-readable description.
    pub message: String,
    /// Written as `"retryable":true` when set (the [`codes::OVERLOAD`]
    /// sheds: nothing ran and nothing was cached).
    pub retryable: bool,
    /// Written as `"diagnostics":[…]` when non-empty (the spanned frontend
    /// errors of a [`codes::PPL`] error).
    pub diagnostics: Vec<LocatedError>,
}

impl ErrorBody {
    /// A plain code + message error.
    pub fn new(code: &'static str, message: impl Into<String>) -> ErrorBody {
        ErrorBody {
            code,
            message: message.into(),
            retryable: false,
            diagnostics: Vec::new(),
        }
    }

    /// Renders the `{"code":…,"message":…}` object.
    #[must_use]
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.field("code", self.code).field("message", &self.message);
            if self.retryable {
                o.field("retryable", true);
            }
            if !self.diagnostics.is_empty() {
                o.list("diagnostics", &self.diagnostics);
            }
        })
    }
}

/// The typed shed error for a full in-flight work budget. Marked
/// retryable: the server did no work and cached nothing.
#[must_use]
pub fn overload_inflight(limit: usize) -> ErrorBody {
    overloaded(&format!("in-flight work budget reached (limit {limit})"))
}

/// The typed shed error for a full connection cap. Marked retryable: the
/// daemon wrote this one line and closed the connection without reading.
#[must_use]
pub fn overload_connections(limit: usize) -> ErrorBody {
    overloaded(&format!("connection limit reached (limit {limit})"))
}

fn overloaded(why: &str) -> ErrorBody {
    ErrorBody {
        retryable: true,
        ..ErrorBody::new(
            codes::OVERLOAD,
            format!("server overloaded: {why}; retry with backoff"),
        )
    }
}

/// Renders a response line (no trailing newline) around an already
/// rendered `result` (when `ok`) or `error` object.
#[must_use]
pub fn response_line(id: &Json, ok: bool, body: &str) -> String {
    let mut out = String::with_capacity(body.len() + 32);
    json::write_object(&mut out, |o| {
        o.field("id", id)
            .field("ok", ok)
            .raw(if ok { "result" } else { "error" }, body);
    });
    out
}

/// Renders an error response line (no trailing newline).
#[must_use]
pub fn err_line(id: &Json, err: &ErrorBody) -> String {
    response_line(id, false, &err.to_json())
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

fn proto(message: impl Into<String>) -> ErrorBody {
    ErrorBody::new(codes::PROTO, message)
}

fn limit(message: impl Into<String>) -> ErrorBody {
    ErrorBody::new(codes::LIMIT, message)
}

/// The wire name of an optimization level: what results echo and — read
/// backwards over [`OptLevel::all`] — what the `opt` field decodes.
pub(crate) fn opt_name(opt: OptLevel) -> &'static str {
    match opt {
        OptLevel::Baseline => "baseline",
        OptLevel::Tiled => "tiled",
        OptLevel::Metapipelined => "meta",
    }
}

/// An optional field read by `conv`. Present but unreadable is the typed
/// error "`key` must be …": every field's type check is this one line.
fn field<'j, T>(
    obj: &'j Json,
    key: &str,
    must_be: &str,
    conv: impl FnOnce(&'j Json) -> Option<T>,
) -> Result<Option<T>, ErrorBody> {
    obj.get(key)
        .map(|v| conv(v).ok_or_else(|| proto(format!("`{key}` must be {must_be}"))))
        .transpose()
}

/// Decodes `{"m":64,…}` into name/value pairs, requiring positive exact
/// integers.
fn dim_pairs(obj: &Json, what: &str) -> Result<Vec<(String, i64)>, ErrorBody> {
    let fields = field(obj, what, "an object of integers", Json::as_obj)?.unwrap_or_default();
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

fn decode_sim(obj: &Json, limits: &Limits) -> Result<SimConfig, ErrorBody> {
    let mut sim = SimConfig::default();
    // Without a `sim` field the default budget stands — the service
    // overwrites it either way, but it is in the pinned fingerprints.
    let Some(fields) = field(obj, "sim", "an object", Json::as_obj)? else {
        return Ok(sim);
    };
    for (k, val) in fields {
        let number = || {
            val.as_f64()
                .ok_or_else(|| proto(format!("`sim.{k}` must be a number")))
        };
        let count = || {
            val.as_u64()
                .ok_or_else(|| proto(format!("`sim.{k}` must be a non-negative integer")))
        };
        match k.as_str() {
            "clock_mhz" => sim.clock_mhz = number()?,
            "dram_gbps" => sim.dram_gbps = number()?,
            "dram_latency" => sim.dram_latency = count()?,
            "burst_bytes" => sim.burst_bytes = count()?,
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
    let bench = field(obj, "bench", "a string", Json::as_str)?;
    let source = field(obj, "source", "a string", Json::as_str)?;
    let program = match (bench, source) {
        (Some(_), Some(_)) => {
            return Err(proto("give either `bench` or `source`, not both"));
        }
        (Some(name), None) => ProgramRef::Bench(name.to_string()),
        (None, Some(text)) => {
            if text.len() > limits.max_source_bytes {
                return Err(limit(format!(
                    "source is {} bytes, limit is {}",
                    text.len(),
                    limits.max_source_bytes
                )));
            }
            let file = field(obj, "file", "a string", Json::as_str)?.unwrap_or("<request>");
            ProgramRef::Source {
                text: text.to_string(),
                file: file.to_string(),
            }
        }
        (None, None) => return Err(proto("missing `bench` or `source`")),
    };
    let sizes = dim_pairs(obj, "sizes")?;
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
    let positive = |v: &Json| v.as_u64().filter(|n| *n >= 1);
    let inner_par = match field(obj, "inner_par", "a positive integer", positive)? {
        // `try_from` only fails past `u32`, which is past the limit too.
        Some(p) => Some(
            u32::try_from(p)
                .ok()
                .filter(|p| *p <= limits.max_inner_par)
                .ok_or_else(|| {
                    limit(format!(
                        "inner_par {p} exceeds limit {}",
                        limits.max_inner_par
                    ))
                })?,
        ),
        None => None,
    };
    let opt = match obj.get("opt") {
        None => OptLevel::Metapipelined,
        Some(v) => OptLevel::all()
            .into_iter()
            .find(|level| v.as_str() == Some(opt_name(*level)))
            .ok_or_else(|| {
                let known = OptLevel::all().map(opt_name).join(", ");
                proto(format!("`opt` must be one of {known}"))
            })?,
    };
    Ok(WorkRequest {
        program,
        sizes,
        tiles: dim_pairs(obj, "tiles")?,
        inner_par,
        opt,
        sim: decode_sim(obj, limits)?,
        cycle_budget: field(obj, "cycle_budget", "a positive integer", positive)?,
    })
}

/// An optional array (absent = empty) called `name`, each entry read by
/// `conv`; an unreadable entry is "`name` entries must be …".
fn entries<T>(
    v: Option<&Json>,
    name: &str,
    must_be: &str,
    conv: impl Fn(&Json) -> Option<T>,
) -> Result<Vec<T>, ErrorBody> {
    let Some(v) = v else { return Ok(Vec::new()) };
    let items = v
        .as_arr()
        .ok_or_else(|| proto(format!("`{name}` must be an array")))?;
    let entry =
        |item| conv(item).ok_or_else(|| proto(format!("`{name}` entries must be {must_be}")));
    items.iter().map(entry).collect()
}

fn decode_dse(obj: &Json, limits: &Limits) -> Result<DseRequest, ErrorBody> {
    let base = decode_work(obj, limits)?;
    let dims = field(
        obj,
        "tile_candidates",
        "an object of integer arrays",
        Json::as_obj,
    )?;
    let mut tile_candidates = Vec::new();
    for (dim, arr) in dims.unwrap_or_default() {
        let name = format!("tile_candidates.{dim}");
        let positive = |item: &Json| item.as_i64().filter(|n| *n > 0);
        let cands = entries(Some(arr), &name, "positive integers", positive)?;
        tile_candidates.push((dim.clone(), cands));
    }
    let par_range = format!("integers in 1..={}", limits.max_inner_par);
    let inner_pars = entries(obj.get("inner_pars"), "inner_pars", &par_range, |item| {
        let p = u32::try_from(item.as_u64()?).ok()?;
        (1..=limits.max_inner_par).contains(&p).then_some(p)
    })?;
    let sims = entries(obj.get("sims"), "sims", "strings", |item| {
        item.as_str().map(str::to_string)
    })?;
    // Types and wire bounds are checked here; which names exist and what
    // combines with what is the parsers' call, shared with the `dse` binary.
    let count = |key: &str| {
        field(obj, key, "an integer in 1..=1000000", |v| {
            let n = usize::try_from(v.as_u64()?).ok()?;
            (1..=1_000_000).contains(&n).then_some(n)
        })
    };
    let strategy = Strategy::parse(
        field(obj, "strategy", "a string", Json::as_str)?,
        count("sample")?,
        count("top_k")?,
        count("explore")?,
        field(obj, "seed", "an unsigned integer", Json::as_u64)?,
    );
    let objective = Objective::parse(
        field(obj, "objective", "a string", Json::as_str)?,
        field(obj, "area_cap", "a number", Json::as_f64)?,
    );
    Ok(DseRequest {
        base,
        tile_candidates,
        inner_pars,
        sims,
        strategy: strategy.map_err(proto)?,
        objective: objective.map_err(proto)?,
    })
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
    /// field order on the wire cannot split cache entries. Both request
    /// structs are destructured without `..`: a field added to `decode`
    /// does not build (under `-D warnings`) until it is written here.
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
            let WorkRequest {
                program,
                sizes,
                tiles,
                inner_par,
                opt,
                sim,
                cycle_budget,
            } = w;
            let prog = match program {
                ProgramRef::Bench(name) => format!("bench:{name}"),
                // Source programs are identified by content, never by
                // their (client-chosen) `prog` name. The diagnostic file
                // name is part of the answer — reports and `EPPL` errors
                // cite it — so it is part of the request's identity too,
                // and of nothing else: design and measurement keys stay
                // content-only.
                ProgramRef::Source { text, file } => {
                    format!("src:{:016x}|file={file:?}", fnv1a64(text.as_bytes()))
                }
            };
            format!(
                "{tag}|prog={prog}|sizes={}|tiles={}|par={inner_par:?}|opt={opt:?}|sim={}|\
                 budget={cycle_budget:?}",
                dims(sizes),
                dims(tiles),
                sim.canonical_key(),
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
                let DseRequest {
                    base,
                    tile_candidates,
                    inner_pars,
                    sims,
                    strategy,
                    objective,
                } = d;
                let mut tiles: Vec<_> = tile_candidates
                    .iter()
                    .map(|(k, v)| format!("{k}={v:?}"))
                    .collect();
                tiles.sort();
                format!(
                    "dse|{}|cands={}|pars={inner_pars:?}|sims={sims:?}|strat={strategy:?}|\
                     obj={objective:?}",
                    work("base", base),
                    tiles.join(","),
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

    /// The response memo is keyed by these. `bench` requests carry no
    /// diagnostic file name, so its place in the fingerprint of `source`
    /// requests must not move them; the literals are never edited to make
    /// a change pass.
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
            Strategy::Guided(pphw_dse::GuidedConfig {
                sample: 5,
                top_k: 7,
                explore: pphw_dse::GuidedConfig::default().explore,
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
            response_line(&Json::Num(3.0), true, "{\"pong\":true}"),
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
