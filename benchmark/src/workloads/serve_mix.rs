//! `serve_mix`: a closed loop against an in-process daemon. Two
//! connections each keep one pipelined batch of 16 request lines in
//! flight: write 16, read 16 responses, write the next 16. 97% of the
//! requests are drawn uniformly from a hot set of 32 distinct lines the
//! daemon has answered before (response-memo hits: JSON, protocol, memo
//! and wire only); 3% are `simulate` requests it has never seen, which
//! really reach the design cache and the simulator.

use std::net::SocketAddr;
use std::ops::Range;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use pphw::{compile, CompileOptions};
use pphw_apps::all_benchmarks;
use pphw_dse::cache::EvalCache;
use pphw_ir::pretty::emit_program;
use pphw_server::json::{escape, parse_json, Json};
use pphw_server::{Client, Limits, Server, Service, ServiceStats};
use pphw_sim::SimConfig;
use pphw_testkit::rng::{splitmix64, Rng};

use crate::fixture::{self, geomean};
use crate::harness::{blocks, mix, Checks, Params, RunResult, Setups, Timed, SEGMENTS};
use crate::layers::{self, ns_per_op};
use crate::spec;
use crate::trace::{span, Tracer};

/// Connections in the closed loop.
const CONNECTIONS: u64 = 2;
/// Requests in one pipelined batch.
const DEPTH: usize = 16;
/// One request in this many is a never-seen `simulate` (3%).
const UNIQUE_PER_MILLE: u64 = 30;
/// One unique response in this many has its `cycles` checked against a
/// direct `compile` + `simulate`.
const CHECK_EVERY: u64 = 64;
/// `m` and `n` of a never-seen gemm request: 32..144 step 16.
const DIMS: [i64; 7] = [32, 48, 64, 80, 96, 112, 128];

/// The in-process daemon; dropping it shuts it down and joins it.
struct Daemon {
    addr: SocketAddr,
    service: Arc<Service>,
    thread: Option<JoinHandle<ServiceStats>>,
}

impl Daemon {
    /// # Panics
    ///
    /// Panics if the loopback socket cannot be bound: without a daemon
    /// there is nothing to measure.
    fn start() -> Daemon {
        let service = Arc::new(Service::new(Limits::default(), 1, EvalCache::new()));
        let server = Server::bind("127.0.0.1:0", Arc::clone(&service), 2)
            .expect("the loopback interface accepts a listener");
        let addr = server
            .local_addr()
            .expect("a bound listener has an address");
        let thread = std::thread::spawn(move || server.run().unwrap_or_default());
        Daemon {
            addr,
            service,
            thread: Some(thread),
        }
    }

    fn connect(&self) -> Client {
        Client::connect(&self.addr).expect("the in-process daemon accepts connections")
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(mut c) = Client::connect(&self.addr) {
            let _ = c.call("{\"id\":\"bye\",\"method\":\"shutdown\"}");
        }
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// The 32 hot lines: ping, and compile / verify / simulate over small
/// builder benchmarks, two inline `.ppl` sources and three opt levels.
fn hot_lines() -> Vec<String> {
    let mut lines = vec!["{\"id\":0,\"method\":\"ping\"}".to_string()];
    let mut push = |body: String| {
        let id = lines.len();
        lines.push(format!("{{\"id\":{id},{body}}}"));
    };
    for bench in ["sumrows", "outerprod", "gemm"] {
        for scale in [8, 16] {
            for method in ["simulate", "compile", "verify"] {
                push(format!(
                    "\"method\":\"{method}\",\"bench\":\"{bench}\",\"sizes\":{{\"m\":{scale},\"n\":{scale},\"p\":{scale}}},\
                     \"tiles\":{{\"m\":4,\"n\":4}},\"inner_par\":4"
                ));
            }
        }
    }
    for n in [32, 64] {
        for method in ["simulate", "compile"] {
            push(format!(
                "\"method\":\"{method}\",\"bench\":\"tpchq6\",\"sizes\":{{\"n\":{n}}},\"tiles\":{{\"n\":16}},\"inner_par\":4"
            ));
        }
    }
    for spec in all_benchmarks()
        .iter()
        .filter(|s| matches!(s.name, "sumrows" | "outerprod"))
    {
        let source = escape(&emit_program(&(spec.program)()));
        push(format!("\"method\":\"verify\",\"source\":{source}"));
        push(format!(
            "\"method\":\"simulate\",\"source\":{source},\"sizes\":{{\"m\":8,\"n\":8}},\"inner_par\":4"
        ));
    }
    for bench in ["gemm", "sumrows"] {
        for opt in ["tiled", "baseline"] {
            push(format!(
                "\"method\":\"simulate\",\"bench\":\"{bench}\",\"opt\":\"{opt}\",\"sizes\":{{\"m\":16,\"n\":16,\"p\":16}},\
                 \"tiles\":{{\"m\":4,\"n\":4}},\"inner_par\":4"
            ));
        }
    }
    push("\"method\":\"verify\",\"bench\":\"tpchq6\"".to_string());
    lines
}

/// A never-seen request: gemm with `m`, `n` in 32..144 step 16, `p` = 32,
/// tiles 16, 16 lanes; `sim.dram_latency` makes it unique.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Unique {
    m: i64,
    n: i64,
    dram_latency: u64,
}

impl Unique {
    /// The `k`-th unique request of connection `conn` in phase `phase`;
    /// no two (phase, conn, k) share a latency.
    fn draw(rng: &mut Rng, phase: u64, conn: u64, k: u64) -> Unique {
        let dim = |rng: &mut Rng| DIMS[rng.gen_range(0usize..DIMS.len())];
        Unique {
            m: dim(rng),
            n: dim(rng),
            dram_latency: 64 + phase + 4 * (conn + CONNECTIONS * k),
        }
    }

    /// One request per `m` x `n` design (phase 1, which no loop uses): what
    /// set-up sends to check the never-seen path against the library and
    /// to fill the daemon's design cache before the clock starts.
    fn one_per_design() -> impl Iterator<Item = Unique> {
        (0u64..)
            .zip(DIMS.iter().flat_map(|m| DIMS.iter().map(move |n| (*m, *n))))
            .map(|(k, (m, n))| Unique {
                m,
                n,
                dram_latency: 64 + 1 + 4 * k,
            })
    }

    fn line(&self, id: u64) -> String {
        format!(
            "{{\"id\":{id},\"method\":\"simulate\",\"bench\":\"gemm\",\"sizes\":{{\"m\":{},\"n\":{},\"p\":32}},\
             \"tiles\":{{\"m\":16,\"n\":16,\"p\":16}},\"inner_par\":16,\"sim\":{{\"dram_latency\":{}}}}}",
            self.m, self.n, self.dram_latency
        )
    }

    /// What the library answers for the same request.
    fn library_cycles(&self) -> Option<u64> {
        let gemm = all_benchmarks().into_iter().find(|s| s.name == "gemm")?;
        let opts = CompileOptions::new(&[("m", self.m), ("n", self.n), ("p", 32)])
            .tiles(&[("m", 16), ("n", 16), ("p", 16)])
            .inner_par(16);
        let compiled = compile(&(gemm.program)(), &opts).ok()?;
        let sim = SimConfig::default().with_dram_latency(self.dram_latency);
        Some(compiled.simulate(&sim).ok()?.cycles)
    }
}

fn response_cycles(resp: &str) -> Option<u64> {
    let v = parse_json(resp).ok()?;
    if v.get("ok").and_then(Json::as_bool) != Some(true) {
        return None;
    }
    v.get("result")?.get("cycles")?.as_u64()
}

struct State {
    // Field order is drop order: the connections close before the daemon
    // shuts down, so its handlers see end-of-file and leave at once.
    clients: Vec<Client>,
    daemon: Daemon,
    hot: Vec<String>,
    /// Geomean of the cycles the daemon answered for the hot `simulate`s.
    hot_cycles: f64,
}

/// Starts the daemon, has it answer the hot set once (so the loop's hot
/// requests are response-memo hits) and one never-seen request per gemm
/// design (checked against the library, and filling the design cache).
fn setup(checks: &mut Checks) -> State {
    let daemon = Daemon::start();
    let hot = hot_lines();
    let mut first = daemon.connect();
    let mut cycles = Vec::new();
    for line in &hot {
        let resp = first.call(line).unwrap_or_default();
        checks.that(resp.contains("\"ok\":true"), || {
            format!("hot request refused: {line} -> {resp}")
        });
        if line.contains("\"simulate\"") {
            cycles.extend(response_cycles(&resp));
        }
    }
    checks.eq(
        "hot simulate requests answered with cycles",
        cycles.len() as u64,
        14,
    );
    for (id, u) in (100u64..).zip(Unique::one_per_design()) {
        let resp = first.call(&u.line(id)).unwrap_or_default();
        checks.eq(
            &format!("{u:?}: daemon's cycles vs compile + simulate"),
            response_cycles(&resp).unwrap_or(0),
            u.library_cycles().unwrap_or(u64::MAX),
        );
    }
    let second = daemon.connect();
    State {
        clients: vec![first, second],
        daemon,
        hot,
        hot_cycles: geomean(cycles),
    }
}

/// What one connection did in one chunk.
struct ChunkLog {
    latencies_ns: Vec<u64>,
    refused: u64,
    digest: u64,
    /// Unique requests whose answer is checked after the run.
    samples: Vec<(Unique, Option<u64>)>,
    uniques: u64,
}

/// What drives one connection of the closed loop.
struct Lane {
    conn: u64,
    rng: Rng,
    /// Never-seen requests sent so far.
    sent_unique: u64,
}

/// One connection's share of one chunk: `batches` batches in closed loop.
fn drive(
    lane: &mut Lane,
    client: &mut Client,
    hot: &[String],
    batches: Range<u64>,
    tracer: Option<&Tracer>,
) -> ChunkLog {
    let Lane {
        conn,
        rng,
        sent_unique,
    } = lane;
    let conn = *conn;
    let mut log = ChunkLog {
        latencies_ns: Vec::new(),
        refused: 0,
        digest: 0,
        samples: Vec::new(),
        uniques: 0,
    };
    for batch in batches {
        let mut wire = String::new();
        let mut uniques: Vec<(usize, Unique)> = Vec::new();
        for slot in 0..DEPTH {
            if slot > 0 {
                wire.push('\n');
            }
            if rng.gen_range(0u64..1000) < UNIQUE_PER_MILLE {
                let u = Unique::draw(rng, 0, conn, *sent_unique);
                *sent_unique += 1;
                wire.push_str(&u.line(*sent_unique));
                uniques.push((slot, u));
            } else {
                wire.push_str(rng.choose::<String>(hot));
            }
        }
        log.uniques += uniques.len() as u64;
        let op = batch * CONNECTIONS + conn;
        span(tracer, None, op, "bench.batch", |me| {
            let sent = Instant::now();
            if client.send(&wire).is_err() {
                log.refused += DEPTH as u64;
                return;
            }
            for slot in 0..DEPTH {
                // One span per response, from the previous arrival (or
                // the send) to this one: together they tile the batch.
                let resp = span(tracer, me, op, "server.response", |_| {
                    client.recv().unwrap_or_default()
                });
                log.latencies_ns
                    .push(u64::try_from(sent.elapsed().as_nanos()).unwrap_or(u64::MAX));
                if !resp.contains("\"ok\":true") {
                    log.refused += 1;
                }
                mix(&mut log.digest, resp.len() as u64);
                if let Some((_, u)) = uniques.iter().find(|(s, _)| *s == slot) {
                    if u.dram_latency / 4 % CHECK_EVERY == 0 {
                        log.samples.push((*u, response_cycles(&resp)));
                    }
                }
            }
        });
    }
    log
}

/// The closed loop of one kind (untraced or traced) of a run against a
/// daemon of its own, cut into chunks (the segments) at which both
/// connections meet; resumable block by block.
struct Loop {
    st: State,
    lanes: Vec<Lane>,
    /// Batches each connection sends.
    per_conn: u64,
    /// Chunks the loop is cut into.
    chunks: u64,
    timed: Timed,
    refused: u64,
    uniques: u64,
    samples: Vec<(Unique, Option<u64>)>,
}

impl Loop {
    fn new(st: State, p: &Params, batches: u64) -> Loop {
        let per_conn = (batches / CONNECTIONS).max(1);
        let chunks = per_conn.min(SEGMENTS);
        Loop {
            lanes: (0..CONNECTIONS)
                .map(|conn| Lane {
                    conn,
                    rng: Rng::seed_from_u64(splitmix64(p.seed ^ (0x5e7e + conn))),
                    sent_unique: 0,
                })
                .collect(),
            per_conn,
            chunks,
            timed: Timed::new(
                chunks,
                "request, from its batch's send to its response",
                st.hot_cycles,
            ),
            refused: 0,
            uniques: 0,
            samples: Vec::new(),
            st,
        }
    }

    fn go(&mut self, chunks: Range<u64>, tracer: Option<&Tracer>) {
        // Batch `per_conn * c / chunks` is the first of chunk `c`: every
        // batch is in exactly one chunk, whatever the remainder.
        let (per_conn, all) = (self.per_conn, self.chunks);
        let first_of = |chunk: u64| per_conn * chunk / all;
        for chunk in chunks {
            let hot = &self.st.hot;
            let t = Instant::now();
            let logs: Vec<ChunkLog> = std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .lanes
                    .iter_mut()
                    .zip(self.st.clients.iter_mut())
                    .map(|(lane, client)| {
                        scope.spawn(move || {
                            let batches = first_of(chunk)..first_of(chunk + 1);
                            drive(lane, client, hot, batches, tracer)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("a client thread panicked"))
                    .collect()
            });
            let secs = t.elapsed().as_secs_f64();
            let ops = logs.iter().map(|l| l.latencies_ns.len() as u64).sum();
            for l in &logs {
                self.refused += l.refused;
                self.uniques += l.uniques;
                mix(&mut self.timed.digest, l.digest);
            }
            self.timed.record(
                chunk,
                ops,
                secs,
                logs.iter().flat_map(|l| l.latencies_ns.iter().copied()),
            );
            self.samples
                .extend(logs.into_iter().flat_map(|l| l.samples));
        }
    }
}

/// The sampled unique answers equal the library's.
fn samples_match_library(samples: &[(Unique, Option<u64>)], checks: &mut Checks) {
    for (u, answered) in samples {
        checks.eq(
            &format!("{u:?}: daemon's cycles vs compile + simulate"),
            answered.unwrap_or(0),
            u.library_cycles().unwrap_or(u64::MAX),
        );
    }
}

/// Single-layer timings no closed loop can separate: JSON parsing alone,
/// `Service::handle_line` called directly for a memo hit and for a
/// never-seen request, and a depth-1 call over the socket.
fn probe_layers(st: &mut State, p: &Params, tracer: &Tracer) {
    let t = Some(tracer);
    let mut rng = Rng::seed_from_u64(splitmix64(p.seed ^ 0x9a0b));
    for round in 0..10u64 {
        for line in &st.hot {
            span(t, None, round, "server.json_parse", |_| {
                parse_json(line).is_ok()
            });
        }
        for line in &st.hot {
            span(t, None, round, "server.handle_hot", |_| {
                st.daemon.service.handle_line(line)
            });
        }
        for line in &st.hot {
            span(t, None, round, "server.call_hot", |_| {
                st.clients[0].call(line).is_ok()
            });
        }
    }
    for k in 0..64 {
        // Phase 3: latencies no closed loop of this run has used.
        let line = Unique::draw(&mut rng, 3, 0, k).line(k);
        span(t, None, k, "server.handle_unique", |_| {
            st.daemon.service.handle_line(&line)
        });
    }
}

/// Runs the workload.
#[must_use]
pub fn run(p: &Params) -> RunResult {
    let w = spec::workload("serve_mix").expect("serve_mix is in the spec");
    // The two connections share the batches equally.
    let batches = p.units(w) / CONNECTIONS * CONNECTIONS;
    let mut checks = Checks::new(p.sabotage);
    let mut setups = Setups::new(w.setup_reps, batches / CONNECTIONS);
    let st = setups.time(|| setup(&mut checks));
    let mut plain = Loop::new(st, p, batches);
    // The traced loop gets a daemon of its own, so that its unique
    // requests are as new to it as the untraced loop's are to the other.
    let mut traced = p.trace.then(|| {
        let st = setup(&mut Checks::default());
        (Loop::new(st, p, batches), Tracer::new())
    });
    for (i, block) in (0..).zip(blocks(plain.chunks)) {
        setups.between(i, || setup(&mut Checks::default()));
        plain.go(block.clone(), None);
        if let Some((traced, tracer)) = &mut traced {
            traced.go(block, Some(tracer));
        }
    }
    checks.ops(plain.timed.ops(), plain.refused);
    samples_match_library(&plain.samples, &mut checks);
    let plain_stats = plain.st.daemon.service.stats();
    checks.eq("requests shed by the daemon", plain_stats.shed_requests, 0);
    checks.eq("error responses", plain_stats.errors, 0);
    let mut result = RunResult::from_timed(w, batches, setups.fastest(), &plain.timed);
    if let Some((mut traced, tracer)) = traced {
        checks.ops(traced.timed.ops(), traced.refused);
        checks.eq("traced run digest", traced.timed.digest, plain.timed.digest);
        let stats = traced.st.daemon.service.stats();
        let unit_spans = tracer.len();
        probe_layers(&mut traced.st, p, &tracer);
        let spans = tracer.into_spans();
        let (mut l, totals, _) =
            layers::from_spans(&spans, unit_spans, &traced.timed, &plain.timed);
        let parse = ns_per_op(&totals, "server.json_parse");
        let hot = ns_per_op(&totals, "server.handle_hot");
        let unique = ns_per_op(&totals, "server.handle_unique");
        let wire = ns_per_op(&totals, "server.call_hot") - hot;
        l.insert("server.json_parse_ns_per_req", parse);
        l.insert("server.handle_hot_ns_per_req", hot);
        l.insert("server.handle_unique_ns_per_req", unique);
        l.insert("server.wire_ns_per_req", wire);
        // Handler time of the never-seen requests over the time the
        // two connections spent waiting on their batches.
        let batch_ns = totals["bench.batch"].total_ns as f64;
        l.insert(
            "server.unique_time_share",
            traced.uniques as f64 * unique / batch_ns,
        );
        l.insert("server.dedup_hits", stats.dedup_hits as f64);
        l.insert("server.dedup_builds", stats.dedup_builds as f64);
        l.insert("server.design_builds", stats.design_builds as f64);
        l.insert("server.eval_misses", stats.eval_misses as f64);
        l.insert("server.overload_sheds", stats.shed_requests as f64);
        l.insert("server.errors", stats.errors as f64);
        result.layers = Some(l);
        result.notes.push(format!(
            "{} of {} traced requests were never-seen simulates; server.unique_time_share = \
             their count x handle_unique over the summed batch time of both connections; the \
             daemon's counters include the 81 set-up requests",
            traced.uniques,
            traced.timed.ops()
        ));
        super::write_trace(p, w.name, &spans, &mut result.notes);
    }
    result.fig7_logerr(fixture::build(p.seed, &mut checks).logerr);
    result.absorb(checks);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn the_hot_set_is_32_distinct_requests_the_protocol_accepts() {
        let hot = hot_lines();
        assert_eq!(hot.len(), 32);
        let limits = Limits::default();
        let prints: BTreeSet<u64> = hot
            .iter()
            .map(|l| {
                pphw_server::protocol::Request::decode(l, &limits)
                    .unwrap_or_else(|(_, e)| panic!("{l}: {}", e.to_json()))
                    .fingerprint()
            })
            .collect();
        assert_eq!(prints.len(), 32, "no two hot lines ask for the same work");
        assert_eq!(
            hot.iter().filter(|l| l.contains("\"simulate\"")).count(),
            14
        );
    }

    #[test]
    fn unique_requests_never_repeat_within_a_run() {
        let mut rng = Rng::seed_from_u64(1);
        let mut seen = BTreeSet::new();
        for phase in [0, 3] {
            for conn in 0..CONNECTIONS {
                for k in 0..100 {
                    let u = Unique::draw(&mut rng, phase, conn, k);
                    assert!((32..144).contains(&u.m) && u.m % 16 == 0);
                    assert!(seen.insert(u.dram_latency));
                }
            }
        }
        let designs: Vec<Unique> = Unique::one_per_design().collect();
        assert_eq!(designs.len(), 49);
        assert!(designs.iter().all(|u| seen.insert(u.dram_latency)));
    }
}
