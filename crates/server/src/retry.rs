//! A retrying wire client for hostile networks.
//!
//! [`RetryClient`] wraps [`Client`](crate::server::Client) with the
//! discipline the chaos harness demands: every logical request ends in
//! **exactly one** final outcome. Transport anomalies (I/O errors, torn
//! or duplicated bytes, a desynced response stream) cost a reconnect and
//! a retry; typed errors marked `"retryable":true` (the server's
//! `EOVERLOAD` sheds) cost a deterministic exponential backoff with
//! seeded jitter and a resend. Everything else — success or a
//! non-retryable typed error — is final and returned as-is.
//!
//! Retrying is safe because the protocol is idempotent: work requests are
//! deduplicated server-side by canonical payload fingerprint, so a
//! request whose response was swallowed by the network re-runs as a memo
//! hit, not a second evaluation.
//!
//! The jitter is driven by a seeded generator, so a chaos run with a
//! fixed seed produces the same backoff schedule every time.

use std::io;
use std::net::SocketAddr;
use std::time::Duration;

use pphw_sim::fault::splitmix64;

use crate::json::{parse_json, Json};
use crate::server::Client;

/// Tuning for [`RetryClient`].
#[derive(Debug, Clone)]
pub struct RetryConfig {
    /// Maximum attempts per logical request (first try included).
    pub max_attempts: usize,
    /// Backoff before retry `n` is `base_delay * 2^(n-1)` (capped at
    /// [`RetryConfig::max_delay`]), halved-to-full by jitter.
    pub base_delay: Duration,
    /// Upper bound on one backoff sleep.
    pub max_delay: Duration,
    /// Per-receive socket timeout: a response the network swallowed
    /// becomes a retry after this long, not a hang.
    pub read_timeout: Duration,
    /// Seed for the deterministic backoff jitter.
    pub jitter_seed: u64,
}

impl Default for RetryConfig {
    fn default() -> RetryConfig {
        RetryConfig {
            max_attempts: 25,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(250),
            read_timeout: Duration::from_secs(30),
            jitter_seed: 0,
        }
    }
}

/// Lifetime counters for one [`RetryClient`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Wire attempts issued (≥ logical requests).
    pub attempts: u64,
    /// Connections (re-)established.
    pub reconnects: u64,
    /// Retries caused by a retryable typed error (`EOVERLOAD`).
    pub retried_overload: u64,
    /// Retries caused by transport trouble: I/O error, unparseable
    /// response, or a response id that did not match the request.
    pub retried_transport: u64,
}

/// The single final outcome of one logical request.
#[derive(Debug, Clone, PartialEq)]
pub enum CallOutcome {
    /// A final typed response line — `"ok":true`, or a typed error that
    /// is not retryable. The protocol guarantees exactly one of these per
    /// logical request when the server is reachable at all.
    Typed(String),
    /// Every attempt failed; `last` describes the final failure. The
    /// chaos gate treats any of these as a harness bug (the fault
    /// schedule is bounded, the server is healthy).
    Exhausted {
        /// Attempts issued.
        attempts: usize,
        /// Human-readable description of the last failure.
        last: String,
    },
}

/// A lock-step client that turns transport faults and shed responses into
/// bounded retries. See the module docs for the retry discipline.
pub struct RetryClient {
    addr: SocketAddr,
    cfg: RetryConfig,
    client: Option<Client>,
    rng_state: u64,
    stats: RetryStats,
}

impl RetryClient {
    /// Creates a client for `addr`; the connection is established lazily
    /// on the first call (and re-established after any transport fault).
    #[must_use]
    pub fn new(addr: SocketAddr, cfg: RetryConfig) -> RetryClient {
        let rng_state = cfg.jitter_seed;
        RetryClient {
            addr,
            cfg,
            client: None,
            rng_state,
            stats: RetryStats::default(),
        }
    }

    /// Counters so far.
    #[must_use]
    pub fn stats(&self) -> RetryStats {
        self.stats
    }

    /// Sends one logical request to its single final outcome: retries
    /// transport faults (reconnecting) and retryable typed errors
    /// (backing off), returns the first final typed response, and gives
    /// up with [`CallOutcome::Exhausted`] after
    /// [`RetryConfig::max_attempts`].
    pub fn call(&mut self, line: &str) -> CallOutcome {
        let want_id = parse_json(line)
            .ok()
            .and_then(|v| v.get("id").cloned())
            .unwrap_or(Json::Null);
        let mut last = "never attempted".to_string();
        for attempt in 0..self.cfg.max_attempts {
            if attempt > 0 {
                std::thread::sleep(self.backoff(attempt));
            }
            self.stats.attempts += 1;
            let resp = match self.exchange(line) {
                Ok(resp) => resp,
                Err(e) => {
                    self.disconnect();
                    self.stats.retried_transport += 1;
                    last = format!("transport: {e}");
                    continue;
                }
            };
            let Ok(v) = parse_json(&resp) else {
                // Torn/duplicated bytes produced garbage: the stream can
                // no longer be trusted, resync with a fresh connection.
                self.disconnect();
                self.stats.retried_transport += 1;
                last = format!("unparseable response ({} bytes)", resp.len());
                continue;
            };
            if v.get("id") != Some(&want_id) {
                // A stale or duplicated response from a corrupted
                // exchange earlier on this connection: resync.
                self.disconnect();
                self.stats.retried_transport += 1;
                last = "response id mismatch (stream desync)".to_string();
                continue;
            }
            let ok_true = v.get("ok").and_then(Json::as_bool) == Some(true);
            let has_code = v
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str)
                .is_some();
            if !ok_true && !has_code {
                // Parsed, id matches, but the shape is not a protocol
                // response (e.g. one corrupted byte turned `"ok"` into
                // `"oK"`): the stream can't be trusted, resync.
                self.disconnect();
                self.stats.retried_transport += 1;
                last = "malformed response shape (corrupted stream)".to_string();
                continue;
            }
            let retryable = v
                .get("error")
                .and_then(|e| e.get("retryable"))
                .and_then(Json::as_bool)
                == Some(true);
            if retryable {
                self.stats.retried_overload += 1;
                last = resp;
                continue;
            }
            return CallOutcome::Typed(resp);
        }
        CallOutcome::Exhausted {
            attempts: self.cfg.max_attempts,
            last,
        }
    }

    /// One lock-step send/recv over the current (or a fresh) connection.
    fn exchange(&mut self, line: &str) -> io::Result<String> {
        if self.client.is_none() {
            let client = Client::connect(&self.addr)?;
            client.set_read_timeout(Some(self.cfg.read_timeout))?;
            self.client = Some(client);
            self.stats.reconnects += 1;
        }
        let client = self
            .client
            .as_mut()
            .ok_or_else(|| io::Error::other("client vanished"))?;
        client.call(line)
    }

    fn disconnect(&mut self) {
        self.client = None;
    }

    /// Deterministic jittered exponential backoff: half to all of
    /// `base * 2^(attempt-1)`, capped at `max_delay`.
    fn backoff(&mut self, attempt: usize) -> Duration {
        let exp = u32::try_from(attempt.saturating_sub(1))
            .unwrap_or(16)
            .min(16);
        let ceiling = self
            .cfg
            .base_delay
            .saturating_mul(2u32.saturating_pow(exp))
            .min(self.cfg.max_delay);
        let ceiling_ms = u64::try_from(ceiling.as_millis())
            .unwrap_or(u64::MAX)
            .max(1);
        let half = ceiling_ms / 2;
        let jitter = self.next_u64() % (ceiling_ms - half + 1);
        Duration::from_millis(half + jitter)
    }

    /// A splitmix64 stream — tiny, seedable, and good enough for jitter.
    fn next_u64(&mut self) -> u64 {
        let out = splitmix64(self.rng_state);
        self.rng_state = self.rng_state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        out
    }
}
