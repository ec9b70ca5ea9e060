//! The compilation-as-a-service daemon.
//!
//! Usage:
//! `cargo run --release -p pphw-server --bin serve [--addr HOST:PORT]
//!  [--threads N] [--dse-threads N] [--cache PATH] [--max-space N]
//!  [--max-connections N] [--max-inflight N] [--default-cycle-budget N]
//!  [--max-cycle-budget N] [--debug-methods] [--print-addr]`
//!
//! - `--addr HOST:PORT`  listen address (default `127.0.0.1:7340`; port
//!   `0` picks an ephemeral port — combine with `--print-addr`)
//! - `--threads N`       worker threads shared by every connection (default 4)
//! - `--dse-threads N`   worker threads inside one `dse` request
//!   (default 2 — a serving daemon balances many requests rather than
//!   racing one sweep)
//! - `--cache PATH`      persistent measurement cache, one file opened
//!   **journaled**: its intact records are recovered at startup, every
//!   evaluation is appended to `PATH` as it lands, and a clean shutdown
//!   checkpoints (rewrites) it compacted. `kill -9` loses nothing the
//!   daemon wrote; a power loss at most the last unsynced batch of eight.
//! - `--max-space N`     per-request DSE candidate ceiling
//! - `--max-connections N` / `--max-inflight N`  overload protection:
//!   connections beyond the cap get one typed retryable `EOVERLOAD` line;
//!   work beyond the in-flight budget is shed the same way
//! - `--default-cycle-budget N` / `--max-cycle-budget N`  watchdog
//!   defaults and clamp for simulation requests
//! - `--debug-methods`   expose fault-injection debug methods
//!   (`__panic`) — test harnesses only, never production
//! - `--print-addr`      print `listening on ADDR` once bound (scripts
//!   parse this to find an ephemeral port)
//!
//! The daemon runs until a client sends `{"method":"shutdown"}`, then
//! checkpoints the cache (if `--cache`) and prints the final counters.
//!
//! A usage error (unknown flag, missing or malformed value) prints
//! `serve: <message>` and exits 2 before anything is opened or bound.

use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

use pphw_dse::cache::EvalCache;
use pphw_server::{Limits, Server, Service};

struct Args {
    addr: String,
    threads: usize,
    dse_threads: usize,
    cache: Option<String>,
    limits: Limits,
    print_addr: bool,
}

/// A flag's value as a number.
fn num<T: std::str::FromStr>(flag: &str, text: String) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag} takes a number, got `{text}`"))
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7340".to_string(),
        threads: 4,
        dse_threads: 2,
        cache: None,
        limits: Limits::default(),
        print_addr: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--addr" => args.addr = val()?,
            "--threads" => args.threads = num(&flag, val()?)?,
            "--dse-threads" => args.dse_threads = num(&flag, val()?)?,
            "--cache" => args.cache = Some(val()?),
            "--max-space" => args.limits.max_space = num(&flag, val()?)?,
            "--max-connections" => args.limits.max_connections = num(&flag, val()?)?,
            "--max-inflight" => args.limits.max_inflight = num(&flag, val()?)?,
            "--default-cycle-budget" => args.limits.default_cycle_budget = num(&flag, val()?)?,
            "--max-cycle-budget" => args.limits.max_cycle_budget = num(&flag, val()?)?,
            "--debug-methods" => args.limits.debug_methods = true,
            "--print-addr" => args.print_addr = true,
            other => return Err(format!("unknown flag {other} (see the module docs)")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("serve: {e}");
            return ExitCode::from(2);
        }
    };
    let evals = match &args.cache {
        Some(p) => match EvalCache::open_journaled(Path::new(p)) {
            Ok(cache) => {
                let js = cache.journal_stats().unwrap_or_default();
                eprintln!(
                    "eval cache: {} entries recovered from {p} \
                     ({} sealed + {} appended, {} torn byte(s) discarded)",
                    cache.len(),
                    js.recovered_snapshot,
                    js.recovered_journal,
                    js.torn_tail_bytes
                );
                cache
            }
            Err(e) => {
                // Degraded: serve what a strict load reads, without
                // crash-safety, rather than refuse to start.
                eprintln!("eval cache: journal open failed ({e}); running unjournaled");
                let cache = EvalCache::load_or_cold(Path::new(p));
                eprintln!("eval cache: {} entries preloaded from {p}", cache.len());
                cache
            }
        },
        None => EvalCache::new(),
    };
    let service = Arc::new(Service::new(args.limits, args.dse_threads, evals));
    let server = match Server::bind(&args.addr, Arc::clone(&service), args.threads) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bind {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    match server.local_addr() {
        Ok(addr) if args.print_addr => println!("listening on {addr}"),
        Ok(addr) => eprintln!("listening on {addr}"),
        Err(e) => {
            eprintln!("local_addr: {e}");
            return ExitCode::FAILURE;
        }
    }
    let stats = match server.run() {
        Ok(stats) => stats,
        Err(e) => {
            eprintln!("serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(p) = &args.cache {
        let cache = service.eval_cache();
        let result = if cache.is_journaled() {
            // Compact the file: every entry sealed once.
            cache.checkpoint().map_err(|e| e.to_string())
        } else {
            cache.save(Path::new(p)).map_err(|e| e.to_string())
        };
        match result {
            Ok(()) => eprintln!("eval cache: {} entries saved to {p}", cache.len()),
            Err(e) => {
                service.note_save_failure();
                eprintln!("eval cache: save failed: {e}");
            }
        }
        if let Some(js) = cache.journal_stats() {
            eprintln!(
                "eval cache: {} appended, {} sync(s), {} checkpoint(s), {} io error(s)",
                js.appended, js.syncs, js.compactions, js.io_errors
            );
        }
    }
    eprintln!("final stats: {}", stats.to_json());
    ExitCode::SUCCESS
}
