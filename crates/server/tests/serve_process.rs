//! The real `serve` binary as a child process: what the in-process tests
//! (`tests/server_e2e.rs`, `tests/chaos.rs` at the workspace root) cannot
//! reach — argument parsing, `--print-addr` on an ephemeral port, the
//! exit status after `shutdown`, and a true SIGKILL between two lives of
//! one `--cache` file.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, ChildStdout, Command, ExitStatus, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use pphw_server::json::{parse_json, Json};
use pphw_server::{codes, CallOutcome, Client, RetryClient, RetryConfig};
use pphw_testkit::chaos::{population_line, ChaosConfig, ChaosProxy};
use pphw_testkit::TempDir;

/// How long a daemon may take to report its address, and to exit once it
/// has been told to.
const PATIENCE: Duration = Duration::from_secs(10);

/// A child process that cannot outlive its owner: killed and reaped on
/// drop, so a failing assert never leaks a daemon.
struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// A running `serve` child and the address it printed.
struct Daemon {
    child: Reaped,
    addr: SocketAddr,
    /// Held so the daemon's stdout stays open for its whole life.
    _stdout: BufReader<ChildStdout>,
}

impl Daemon {
    /// Starts `serve --addr 127.0.0.1:0 --print-addr <extra>` and waits for
    /// the address line.
    fn spawn(extra: &[&str]) -> Daemon {
        let mut child = Reaped(
            Command::new(env!("CARGO_BIN_EXE_serve"))
                .args(["--addr", "127.0.0.1:0", "--print-addr"])
                .args(extra)
                .stdout(Stdio::piped())
                .stderr(Stdio::null())
                .spawn()
                .expect("spawn serve"),
        );
        let mut stdout = BufReader::new(child.0.stdout.take().expect("piped stdout"));
        // The blocking read runs on its own thread so a daemon that never
        // prints fails the test instead of hanging it.
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let mut line = String::new();
            let _ = stdout.read_line(&mut line);
            let _ = tx.send((line, stdout));
        });
        let (line, stdout) = rx
            .recv_timeout(PATIENCE)
            .expect("serve never reported its address");
        let addr = line
            .trim_end()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected first line from serve: {line:?}"))
            .parse()
            .expect("socket address");
        Daemon {
            child,
            addr,
            _stdout: stdout,
        }
    }

    /// Waits for a daemon that has been asked to shut down.
    fn wait_exit(mut self) -> ExitStatus {
        let deadline = Instant::now() + PATIENCE;
        loop {
            if let Some(status) = self.child.0.try_wait().expect("try_wait") {
                return status;
            }
            assert!(Instant::now() < deadline, "serve did not exit on shutdown");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// SIGKILL: no shutdown request, no checkpoint, no snapshot save.
    fn kill(mut self) {
        self.child.0.kill().expect("kill");
        self.child.0.wait().expect("reap");
    }
}

fn call(client: &mut Client, line: &str) -> Json {
    let resp = client.call(line).unwrap_or_else(|e| panic!("{line}: {e}"));
    parse_json(&resp).unwrap_or_else(|e| panic!("{line}: bad response {resp}: {e}"))
}

/// The `result` of a response that must have succeeded.
fn result(resp: &Json) -> &Json {
    assert_eq!(
        resp.get("ok").and_then(Json::as_bool),
        Some(true),
        "request failed: {resp:?}"
    );
    resp.get("result").expect("result")
}

/// The `error` of a response that must have failed with `code`.
fn error<'a>(resp: &'a Json, code: &str) -> &'a Json {
    assert_eq!(
        resp.get("ok").and_then(Json::as_bool),
        Some(false),
        "{resp:?}"
    );
    let err = resp.get("error").expect("error");
    assert_eq!(
        err.get("code").and_then(Json::as_str),
        Some(code),
        "{resp:?}"
    );
    err
}

fn counter(stats: &Json, name: &str) -> u64 {
    stats
        .get(name)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("stats has no {name}: {stats:?}"))
}

/// A usage error is refused with one `serve: ...` line and exit 2 before
/// the daemon binds or prints anything.
#[test]
fn bad_flags_are_refused_before_binding() {
    for flags in [
        &["--bogus"][..],
        &["--threads", "many"],
        &["--max-space"],
        &["--cache-sync-every", "1"],
        &["--cache-compact-bytes", "4096"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_serve"))
            .args(["--addr", "127.0.0.1:0", "--print-addr"])
            .args(flags)
            .output()
            .expect("run serve");
        assert_eq!(out.status.code(), Some(2), "{flags:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.lines().count() == 1 && stderr.starts_with("serve: "),
            "{flags:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{flags:?} bound before refusing");
    }
}

#[test]
fn mixed_batch_then_shutdown_exits_cleanly() {
    let daemon = Daemon::spawn(&[]);
    let mut c = Client::connect(&daemon.addr).expect("connect");

    let compiled = call(
        &mut c,
        "{\"id\":1,\"method\":\"compile\",\"bench\":\"gemm\",\
         \"sizes\":{\"m\":16,\"n\":16,\"p\":16},\"tiles\":{\"m\":8,\"n\":8},\"inner_par\":4}",
    );
    assert!(counter(result(&compiled), "on_chip_bytes") > 0);

    // Bad source is a typed error whose diagnostics carry source spans.
    let bad = call(
        &mut c,
        "{\"id\":2,\"method\":\"verify\",\"source\":\"prog nope {\"}",
    );
    let first_line = error(&bad, codes::PPL)
        .get("diagnostics")
        .and_then(Json::as_arr)
        .and_then(|d| d.first())
        .and_then(|d| d.get("span"))
        .and_then(|s| s.get("line"))
        .and_then(Json::as_u64);
    assert_eq!(first_line, Some(1), "{bad:?}");

    let simulated = call(
        &mut c,
        "{\"id\":3,\"method\":\"simulate\",\"bench\":\"sumrows\",\"sizes\":{\"m\":16,\"n\":16}}",
    );
    assert!(counter(result(&simulated), "cycles") > 0);

    // Two identical requests pipelined in one write: same answer twice,
    // and the dedup counter must see the pair.
    let dup = "{\"id\":4,\"method\":\"simulate\",\"bench\":\"outerprod\",\
               \"sizes\":{\"m\":8,\"n\":8},\"inner_par\":2}";
    c.send(&format!("{dup}\n{dup}")).expect("send pair");
    let (a, b) = (c.recv().expect("first"), c.recv().expect("second"));
    assert_eq!(a, b);
    result(&parse_json(&a).expect("json"));

    let over = call(
        &mut c,
        "{\"id\":5,\"method\":\"simulate\",\"bench\":\"sumrows\",\
         \"sizes\":{\"m\":16,\"n\":16},\"cycle_budget\":1}",
    );
    error(&over, codes::BUDGET);

    let stats = call(&mut c, "{\"id\":6,\"method\":\"stats\"}");
    assert!(counter(result(&stats), "dedup_hits") >= 1, "{stats:?}");

    let bye = call(&mut c, "{\"id\":7,\"method\":\"shutdown\"}");
    assert_eq!(
        result(&bye).get("shutting_down").and_then(Json::as_bool),
        Some(true)
    );
    assert!(daemon.wait_exit().success());
}

#[test]
fn sigkilled_daemon_restarts_warm_from_its_journal() {
    const CLIENTS: usize = 2;
    const REQUESTS: usize = 20;
    let population: Vec<String> = (0..CLIENTS)
        .flat_map(|c| (0..REQUESTS).map(move |i| population_line(c, i)))
        .collect();
    let replay = |addr: &SocketAddr| {
        let mut c = Client::connect(addr).expect("connect");
        for line in &population {
            result(&call(&mut c, line));
        }
        c
    };

    let dir = TempDir::new("serve-kill-recovery");
    let cache = dir.path().join("evals.pphwc");
    let cache_arg = cache.to_str().expect("UTF-8 temp path");

    // First life: every evaluation is appended to the cache file as it
    // lands; SIGKILL does not lose written pages. The population arrives
    // through the fault-injecting proxy; each logical request must still
    // end in exactly one typed response.
    let first = Daemon::spawn(&["--cache", cache_arg]);
    let proxy = ChaosProxy::spawn(
        first.addr,
        ChaosConfig {
            seed: 42,
            ..ChaosConfig::default()
        },
    )
    .expect("proxy");
    let proxy_addr = proxy.addr();
    std::thread::scope(|scope| {
        for (c, lines) in population.chunks(REQUESTS).enumerate() {
            scope.spawn(move || {
                let mut rc = RetryClient::new(
                    proxy_addr,
                    RetryConfig {
                        jitter_seed: c as u64,
                        read_timeout: Duration::from_secs(2),
                        ..RetryConfig::default()
                    },
                );
                for line in lines {
                    match rc.call(line) {
                        CallOutcome::Typed(resp) => {
                            parse_json(&resp).unwrap_or_else(|e| panic!("{line}: {resp}: {e}"));
                        }
                        CallOutcome::Exhausted { attempts, last } => {
                            panic!("{line}: exhausted after {attempts} attempts: {last}")
                        }
                    }
                }
            });
        }
    });
    let faults = proxy.stop();
    assert!(
        faults.disconnects
            + faults.corruptions
            + faults.duplicates
            + faults.trickles
            + faults.delays
            > 0,
        "the chaos schedule never fired: {faults:?}"
    );
    // Settle pass, straight at the daemon: every key is evaluated and
    // journaled whichever chaos requests ended in typed errors.
    drop(replay(&first.addr));
    first.kill();
    assert!(
        std::fs::metadata(&cache).is_ok_and(|m| m.len() > 20),
        "nothing appended to {cache:?} before SIGKILL"
    );

    // Second life on the same `--cache`: the appended records make every
    // evaluation a hit. Only verify's design-level analysis may compile,
    // once per distinct verified benchmark (the design cache is in-memory).
    let second = Daemon::spawn(&["--cache", cache_arg]);
    let mut c = replay(&second.addr);
    let verified: BTreeSet<String> = population
        .iter()
        .map(|line| parse_json(line).expect("population line"))
        .filter(|req| req.get("method").and_then(Json::as_str) == Some("verify"))
        .filter_map(|req| req.get("bench").and_then(Json::as_str).map(str::to_string))
        .collect();
    let stats = call(&mut c, "{\"id\":\"stats\",\"method\":\"stats\"}");
    let stats = result(&stats);
    assert_eq!(counter(stats, "eval_misses"), 0, "{stats:?}");
    assert!(counter(stats, "eval_hits") > 0, "{stats:?}");
    assert!(
        counter(stats, "design_builds") <= verified.len() as u64,
        "{stats:?}"
    );
    result(&call(&mut c, "{\"id\":\"bye\",\"method\":\"shutdown\"}"));
    assert!(second.wait_exit().success());
}
