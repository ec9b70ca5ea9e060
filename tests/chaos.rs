//! Chaos end-to-end: the serving stack under a hostile network and a
//! hard crash, driven through the public surfaces only.
//!
//! Three guarantees are executed here:
//!
//! 1. **Exactly one typed outcome.** Every logical request sent through
//!    the seeded fault-injecting proxy (delays, trickle writes, torn and
//!    duplicated bytes, mid-stream disconnects) resolves to exactly one
//!    typed response via the retrying client — never a hang, never an
//!    untyped failure.
//! 2. **Crash-safe persistence.** A daemon serving over a journaled eval
//!    cache that dies without any clean shutdown loses nothing it wrote:
//!    a restarted daemon recovers every evaluation from the records
//!    appended to the cache file and replays the workload with zero
//!    misses and zero design builds.
//! 3. **Typed overload.** A daemon with a zero in-flight budget sheds
//!    every work request as retryable `EOVERLOAD`; the retrying client
//!    backs off, retries, and reports honest exhaustion — it never
//!    mistakes a shed for success.

use std::sync::Arc;

use pphw_dse::cache::EvalCache;
use pphw_server::json::{parse_json, Json};
use pphw_server::{codes, CallOutcome, Client, Limits, RetryClient, RetryConfig, Server, Service};
use pphw_testkit::chaos::{population_line, ChaosConfig, ChaosProxy};
use pphw_testkit::TempDir;

fn spawn_daemon(
    limits: Limits,
    evals: EvalCache,
) -> (
    std::net::SocketAddr,
    Arc<Service>,
    std::thread::JoinHandle<pphw_server::ServiceStats>,
) {
    let service = Arc::new(Service::new(limits, 2, evals));
    let server = Server::bind("127.0.0.1:0", Arc::clone(&service), 4).expect("bind");
    let addr = server.local_addr().expect("local_addr");
    let handle = std::thread::spawn(move || server.run().expect("serve"));
    (addr, service, handle)
}

fn shutdown(
    addr: &std::net::SocketAddr,
    handle: std::thread::JoinHandle<pphw_server::ServiceStats>,
) -> pphw_server::ServiceStats {
    let mut c = Client::connect(addr).expect("connect");
    c.call("{\"id\":\"bye\",\"method\":\"shutdown\"}")
        .expect("shutdown");
    handle.join().expect("join")
}

#[test]
fn every_request_through_chaos_reaches_exactly_one_typed_outcome() {
    let (addr, _service, handle) = spawn_daemon(Limits::default(), EvalCache::new());
    let proxy = ChaosProxy::spawn(
        addr,
        ChaosConfig {
            seed: 0xC4A0_5EED,
            ..ChaosConfig::default()
        },
    )
    .expect("proxy");
    let paddr = proxy.addr();

    const CLIENTS: usize = 2;
    const REQUESTS: usize = 16;
    let outcomes: Vec<(usize, usize, CallOutcome)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut rc = RetryClient::new(
                        paddr,
                        RetryConfig {
                            jitter_seed: c as u64,
                            read_timeout: std::time::Duration::from_secs(2),
                            ..RetryConfig::default()
                        },
                    );
                    (0..REQUESTS)
                        .map(|i| (c, i, rc.call(&population_line(c, i))))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client"))
            .collect()
    });

    assert_eq!(outcomes.len(), CLIENTS * REQUESTS);
    for (c, i, outcome) in &outcomes {
        match outcome {
            CallOutcome::Typed(resp) => {
                let v = parse_json(resp)
                    .unwrap_or_else(|e| panic!("client {c} request {i}: bad final JSON: {e}"));
                let ok = v.get("ok").and_then(Json::as_bool) == Some(true);
                let coded = v
                    .get("error")
                    .and_then(|e| e.get("code"))
                    .and_then(Json::as_str)
                    .is_some();
                assert!(
                    ok || coded,
                    "client {c} request {i}: final outcome neither ok nor coded: {resp}"
                );
            }
            CallOutcome::Exhausted { attempts, last } => {
                panic!("client {c} request {i} exhausted after {attempts} attempts: {last}")
            }
        }
    }

    let faults = proxy.stop();
    assert!(faults.chunks > 0, "nothing flowed through the proxy");
    assert!(
        faults.disconnects
            + faults.corruptions
            + faults.duplicates
            + faults.trickles
            + faults.delays
            > 0,
        "the chaos schedule never fired — the run proved nothing: {faults:?}"
    );
    shutdown(&addr, handle);
}

#[test]
fn daemon_killed_without_shutdown_recovers_from_the_journal_alone() {
    let dir = TempDir::new("chaos-kill-recovery");
    let snapshot = dir.path().join("evals.pphwc");

    // First life: journaled cache, serve a workload, then tear the server
    // down WITHOUT checkpointing or saving — the appended records are all
    // that survives, exactly as after `kill -9`.
    let cache = EvalCache::open_journaled(&snapshot).expect("journaled open");
    let (addr, service, handle) = spawn_daemon(Limits::default(), cache);
    let mut c = Client::connect(&addr).expect("connect");
    for client in 0..2 {
        for i in 0..12 {
            let resp = c.call(&population_line(client, i)).expect("call");
            let v = parse_json(&resp).expect("json");
            assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
        }
    }
    let first_life_misses = service.stats().eval_misses;
    assert!(first_life_misses > 0, "workload never evaluated anything");
    drop(c);
    shutdown(&addr, handle);

    // Second life: a fresh daemon over the same path recovers everything
    // and replays the identical workload without a single re-evaluation;
    // only verify's design-level analysis may compile a design.
    let recovered = EvalCache::open_journaled(&snapshot).expect("reopen");
    let stats = recovered.journal_stats().expect("journal stats");
    assert_eq!(
        stats.recovered_snapshot, 0,
        "nothing was sealed — recovery must come from the appended records"
    );
    assert_eq!(stats.recovered_journal, first_life_misses);
    let (addr, service, handle) = spawn_daemon(Limits::default(), recovered);
    let mut c = Client::connect(&addr).expect("connect");
    for client in 0..2 {
        for i in 0..12 {
            let resp = c.call(&population_line(client, i)).expect("call");
            let v = parse_json(&resp).expect("json");
            assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
        }
    }
    let s = service.stats();
    assert_eq!(
        s.eval_misses, 0,
        "recovery gate: the journal should have made every evaluation a hit"
    );
    // Verify requests carry design-level flow analysis, so each distinct
    // verified design compiles once per daemon life (the design cache is
    // in-memory and not journaled); simulate requests must still never
    // reach the design cache — their eval hits short-circuit first.
    let verified: std::collections::BTreeSet<usize> = (0..2)
        .flat_map(|c| (0..12).filter(|i| i % 4 == 3).map(move |i| (c + i) % 3))
        .collect();
    assert_eq!(
        s.design_builds as usize,
        verified.len(),
        "recovery gate: only the verify requests' designs may compile; \
         simulate eval-cache hits must short-circuit before the design cache"
    );
    assert_eq!(s.eval_hits, first_life_misses);
    drop(c);
    shutdown(&addr, handle);
}

#[test]
fn zero_budget_daemon_sheds_typed_and_retry_client_reports_honest_exhaustion() {
    let (addr, service, handle) = spawn_daemon(
        Limits {
            max_inflight: 0,
            ..Limits::default()
        },
        EvalCache::new(),
    );
    let mut rc = RetryClient::new(
        addr,
        RetryConfig {
            max_attempts: 4,
            base_delay: std::time::Duration::from_millis(1),
            max_delay: std::time::Duration::from_millis(4),
            ..RetryConfig::default()
        },
    );

    // Control traffic is never shed: ping succeeds even at zero budget.
    let ping = rc.call("{\"id\":1,\"method\":\"ping\"}");
    match &ping {
        CallOutcome::Typed(resp) => {
            let v = parse_json(resp).expect("json");
            assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
        }
        CallOutcome::Exhausted { .. } => panic!("ping must not be shed: {ping:?}"),
    }

    // Work is shed every time; the client retries with backoff and then
    // reports exhaustion naming the shed, not a fake success.
    let work = rc.call(
        "{\"id\":2,\"method\":\"simulate\",\"bench\":\"sumrows\",\
         \"sizes\":{\"m\":8,\"n\":8},\"inner_par\":2}",
    );
    match work {
        CallOutcome::Exhausted { attempts, last } => {
            assert_eq!(attempts, 4);
            assert!(
                last.contains(codes::OVERLOAD),
                "exhaustion should name the typed shed: {last}"
            );
        }
        CallOutcome::Typed(resp) => panic!("a zero-budget daemon returned work: {resp}"),
    }
    assert_eq!(rc.stats().retried_overload, 4);
    assert!(service.stats().shed_requests >= 4);
    shutdown(&addr, handle);
}
