//! A deterministic fault-injecting TCP proxy for chaos testing.
//!
//! [`ChaosProxy`] sits between a client and an upstream daemon and
//! injects network faults into each forwarded chunk: added latency,
//! byte-at-a-time trickle writes, single-byte corruption, duplicated
//! chunks, and mid-stream disconnects. The *fault decision sequence* is a
//! pure function of `(seed, connection ordinal, direction, chunk
//! ordinal)` via [`FaultSchedule`] — same seed, same schedule, so a chaos
//! failure reproduces under the seed that found it. (Chunk *framing*
//! follows kernel read timing, so byte layouts can shift between runs;
//! the decisions per chunk index cannot.)
//!
//! The proxy never drops traffic silently except by the scheduled
//! `Disconnect` fault, and it counts every injected fault in
//! [`ChaosStats`] so a harness can assert the run actually exercised the
//! fault paths it claims to.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pphw_ir::json;

use crate::rng::{splitmix64, Rng};

/// Per-chunk fault probabilities and magnitudes. Probabilities are
/// evaluated in the order disconnect → corrupt → duplicate → trickle →
/// delay from a single uniform draw, so they must sum to at most 1.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Master seed: the entire fault schedule derives from it.
    pub seed: u64,
    /// Probability a chunk triggers a mid-stream disconnect of the whole
    /// proxied connection.
    pub disconnect_prob: f64,
    /// Probability one byte of the chunk is flipped (torn frame).
    pub corrupt_prob: f64,
    /// Probability the chunk is written twice (duplicated bytes).
    pub duplicate_prob: f64,
    /// Probability the chunk is trickled a few bytes at a time with tiny
    /// pauses (throttled writer).
    pub trickle_prob: f64,
    /// Probability the chunk is forwarded after an added delay.
    pub delay_prob: f64,
    /// Upper bound (exclusive) on an injected delay, in milliseconds.
    pub max_delay_ms: u64,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig {
            seed: 0,
            disconnect_prob: 0.02,
            corrupt_prob: 0.03,
            duplicate_prob: 0.03,
            trickle_prob: 0.05,
            delay_prob: 0.10,
            max_delay_ms: 20,
        }
    }
}

/// Traffic direction through the proxy (each direction has its own
/// schedule stream).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Bytes flowing client → upstream.
    ClientToServer,
    /// Bytes flowing upstream → client.
    ServerToClient,
}

impl Direction {
    fn tag(self) -> u64 {
        match self {
            Direction::ClientToServer => 0x636c_6965_6e74,
            Direction::ServerToClient => 0x7365_7276_6572,
        }
    }
}

/// The fault chosen for one chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Forward unchanged.
    None,
    /// Kill the proxied connection now.
    Disconnect,
    /// Flip one byte at the given chunk offset (modulo chunk length).
    Corrupt {
        /// Byte position to corrupt, reduced modulo the chunk length.
        offset: usize,
    },
    /// Forward the chunk twice.
    Duplicate,
    /// Forward a few bytes at a time with tiny pauses.
    Trickle,
    /// Sleep this long, then forward.
    Delay {
        /// Injected latency in milliseconds.
        ms: u64,
    },
}

/// The deterministic per-(connection, direction) fault stream. Decisions
/// come out in chunk order; two schedules with the same `(seed, conn,
/// direction)` produce identical sequences.
#[derive(Debug, Clone)]
pub struct FaultSchedule {
    rng: Rng,
    cfg: ChaosConfig,
}

impl FaultSchedule {
    /// The schedule for connection ordinal `conn` in `direction` under
    /// `cfg.seed`.
    #[must_use]
    pub fn new(cfg: &ChaosConfig, conn: u64, direction: Direction) -> FaultSchedule {
        let stream_seed =
            splitmix64(cfg.seed ^ conn.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ direction.tag());
        FaultSchedule {
            rng: Rng::seed_from_u64(stream_seed),
            cfg: cfg.clone(),
        }
    }

    /// The fault for the next chunk.
    pub fn next_fault(&mut self) -> Fault {
        let draw = self.rng.next_f64();
        let c = &self.cfg;
        let mut edge = c.disconnect_prob;
        if draw < edge {
            return Fault::Disconnect;
        }
        edge += c.corrupt_prob;
        if draw < edge {
            let offset = self.rng.next_u64() as usize;
            return Fault::Corrupt { offset };
        }
        edge += c.duplicate_prob;
        if draw < edge {
            return Fault::Duplicate;
        }
        edge += c.trickle_prob;
        if draw < edge {
            return Fault::Trickle;
        }
        edge += c.delay_prob;
        if draw < edge {
            let ms = if c.max_delay_ms == 0 {
                0
            } else {
                self.rng.next_u64() % c.max_delay_ms
            };
            return Fault::Delay { ms };
        }
        Fault::None
    }
}

/// Counters of what the proxy actually injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Connections accepted and proxied.
    pub connections: u64,
    /// Chunks forwarded (both directions).
    pub chunks: u64,
    /// Scheduled disconnects executed.
    pub disconnects: u64,
    /// Chunks with a flipped byte.
    pub corruptions: u64,
    /// Chunks forwarded twice.
    pub duplicates: u64,
    /// Chunks trickled.
    pub trickles: u64,
    /// Chunks delayed.
    pub delays: u64,
}

#[derive(Default)]
struct Counters {
    connections: AtomicU64,
    chunks: AtomicU64,
    disconnects: AtomicU64,
    corruptions: AtomicU64,
    duplicates: AtomicU64,
    trickles: AtomicU64,
    delays: AtomicU64,
}

/// A running fault-injecting proxy. Connect clients to
/// [`ChaosProxy::addr`]; traffic is forwarded to the upstream address the
/// proxy was spawned with, with faults injected per the seeded schedule.
pub struct ChaosProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    counters: Arc<Counters>,
    accept_handle: Option<std::thread::JoinHandle<()>>,
}

impl ChaosProxy {
    /// Binds an ephemeral local port and starts proxying to `upstream`.
    ///
    /// # Errors
    ///
    /// Returns the bind/local-addr error verbatim.
    pub fn spawn(upstream: SocketAddr, cfg: ChaosConfig) -> std::io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(Counters::default());
        let accept_stop = Arc::clone(&stop);
        let accept_counters = Arc::clone(&counters);
        listener.set_nonblocking(true)?;
        let accept_handle = std::thread::spawn(move || {
            let mut conn_ordinal: u64 = 0;
            let mut pumps: Vec<std::thread::JoinHandle<()>> = Vec::new();
            while !accept_stop.load(Ordering::SeqCst) {
                let client = match listener.accept() {
                    Ok((s, _)) => s,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                        continue;
                    }
                    Err(_) => break,
                };
                let Ok(server) = TcpStream::connect(upstream) else {
                    // Upstream gone (e.g. killed mid-chaos): drop the
                    // client, which sees a clean connection error.
                    continue;
                };
                accept_counters.connections.fetch_add(1, Ordering::Relaxed);
                let conn = conn_ordinal;
                conn_ordinal += 1;
                let c2s = FaultSchedule::new(&cfg, conn, Direction::ClientToServer);
                let s2c = FaultSchedule::new(&cfg, conn, Direction::ServerToClient);
                let (Ok(client_r), Ok(server_r)) = (client.try_clone(), server.try_clone()) else {
                    continue;
                };
                let cnt = Arc::clone(&accept_counters);
                let st = Arc::clone(&accept_stop);
                pumps.push(std::thread::spawn(move || {
                    pump(&client_r, &server, c2s, &cnt, &st);
                }));
                let cnt = Arc::clone(&accept_counters);
                let st = Arc::clone(&accept_stop);
                pumps.push(std::thread::spawn(move || {
                    pump(&server_r, &client, s2c, &cnt, &st);
                }));
                pumps.retain(|p| !p.is_finished());
            }
            for p in pumps {
                let _ = p.join();
            }
        });
        Ok(ChaosProxy {
            addr,
            stop,
            counters,
            accept_handle: Some(accept_handle),
        })
    }

    /// The proxy's listen address (point clients here).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A snapshot of the injected-fault counters.
    #[must_use]
    pub fn stats(&self) -> ChaosStats {
        ChaosStats {
            connections: self.counters.connections.load(Ordering::Relaxed),
            chunks: self.counters.chunks.load(Ordering::Relaxed),
            disconnects: self.counters.disconnects.load(Ordering::Relaxed),
            corruptions: self.counters.corruptions.load(Ordering::Relaxed),
            duplicates: self.counters.duplicates.load(Ordering::Relaxed),
            trickles: self.counters.trickles.load(Ordering::Relaxed),
            delays: self.counters.delays.load(Ordering::Relaxed),
        }
    }

    /// Stops accepting and joins the acceptor (live pump threads drain as
    /// their connections close).
    pub fn stop(mut self) -> ChaosStats {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        self.stats()
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
    }
}

/// Request `i` of client `client` in the chaos tests' deterministic
/// population, as one wire-protocol line: ping / simulate / verify over
/// three benchmarks at two sizes. Restricted to methods whose replay is
/// exactly reproducible from the eval-cache journal (simulate
/// short-circuits on an eval hit *before* touching the design cache; ping
/// builds nothing; verify compiles only its design-level analysis target,
/// once per distinct benchmark), so a recovery check can demand zero
/// misses and bound the design builds by the distinct verified benches.
#[must_use]
pub fn population_line(client: usize, i: usize) -> String {
    let benches = ["sumrows", "outerprod", "gemm"];
    let bench = benches[(client + i) % benches.len()];
    let scale = if i.is_multiple_of(2) { 8 } else { 16 };
    json::object(|o| {
        o.field("id", client * 1000 + i);
        match i % 4 {
            0 => o.field("method", "ping"),
            1 | 2 => o
                .field("method", "simulate")
                .field("bench", bench)
                .obj("sizes", |s| {
                    s.field("m", scale).field("n", scale).field("p", scale);
                })
                .obj("tiles", |t| {
                    t.field("m", 4).field("n", 4);
                })
                .field("inner_par", 4),
            _ => o.field("method", "verify").field("bench", bench),
        };
    })
}

/// Forwards `from` → `to` one chunk at a time, applying the scheduled
/// fault per chunk, until EOF, error, stop, or a scheduled disconnect.
fn pump(
    from: &TcpStream,
    to: &TcpStream,
    mut schedule: FaultSchedule,
    counters: &Counters,
    stop: &AtomicBool,
) {
    let _ = from.set_read_timeout(Some(Duration::from_millis(50)));
    let mut from_reader = from;
    let mut to_writer = to;
    let mut buf = [0u8; 1024];
    loop {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let n = match from_reader.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break,
        };
        counters.chunks.fetch_add(1, Ordering::Relaxed);
        let chunk = &mut buf[..n];
        match schedule.next_fault() {
            Fault::None => {
                if to_writer.write_all(chunk).is_err() {
                    break;
                }
            }
            Fault::Disconnect => {
                counters.disconnects.fetch_add(1, Ordering::Relaxed);
                break;
            }
            Fault::Corrupt { offset } => {
                counters.corruptions.fetch_add(1, Ordering::Relaxed);
                chunk[offset % n] ^= 0x20;
                if to_writer.write_all(chunk).is_err() {
                    break;
                }
            }
            Fault::Duplicate => {
                counters.duplicates.fetch_add(1, Ordering::Relaxed);
                if to_writer.write_all(chunk).is_err() || to_writer.write_all(chunk).is_err() {
                    break;
                }
            }
            Fault::Trickle => {
                counters.trickles.fetch_add(1, Ordering::Relaxed);
                let mut failed = false;
                for piece in chunk.chunks(7) {
                    if to_writer.write_all(piece).is_err() {
                        failed = true;
                        break;
                    }
                    let _ = to_writer.flush();
                    std::thread::sleep(Duration::from_micros(500));
                }
                if failed {
                    break;
                }
            }
            Fault::Delay { ms } => {
                counters.delays.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(ms));
                if to_writer.write_all(chunk).is_err() {
                    break;
                }
            }
        }
    }
    // Tear down both halves so the peer sees EOF promptly (and a
    // scheduled disconnect kills the whole proxied connection, matching
    // a real mid-line network failure).
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    fn decisions(cfg: &ChaosConfig, conn: u64, dir: Direction, n: usize) -> Vec<Fault> {
        let mut s = FaultSchedule::new(cfg, conn, dir);
        (0..n).map(|_| s.next_fault()).collect()
    }

    #[test]
    fn same_seed_same_schedule() {
        let cfg = ChaosConfig {
            seed: 42,
            ..ChaosConfig::default()
        };
        assert_eq!(
            decisions(&cfg, 3, Direction::ClientToServer, 256),
            decisions(&cfg, 3, Direction::ClientToServer, 256)
        );
    }

    #[test]
    fn different_seed_conn_or_direction_changes_the_schedule() {
        let base = ChaosConfig {
            seed: 42,
            ..ChaosConfig::default()
        };
        let other_seed = ChaosConfig {
            seed: 43,
            ..ChaosConfig::default()
        };
        let a = decisions(&base, 0, Direction::ClientToServer, 512);
        assert_ne!(a, decisions(&other_seed, 0, Direction::ClientToServer, 512));
        assert_ne!(a, decisions(&base, 1, Direction::ClientToServer, 512));
        assert_ne!(a, decisions(&base, 0, Direction::ServerToClient, 512));
    }

    #[test]
    fn schedule_exercises_every_fault_kind() {
        let cfg = ChaosConfig {
            seed: 7,
            ..ChaosConfig::default()
        };
        let faults = decisions(&cfg, 0, Direction::ClientToServer, 4096);
        let has = |f: fn(&Fault) -> bool| faults.iter().any(f);
        assert!(has(|f| matches!(f, Fault::Disconnect)));
        assert!(has(|f| matches!(f, Fault::Corrupt { .. })));
        assert!(has(|f| matches!(f, Fault::Duplicate)));
        assert!(has(|f| matches!(f, Fault::Trickle)));
        assert!(has(|f| matches!(f, Fault::Delay { .. })));
        assert!(has(|f| matches!(f, Fault::None)));
    }

    #[test]
    fn inert_config_forwards_faithfully() {
        // A zero-probability config proxies an echo conversation intact.
        let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
        let upstream_addr = upstream.local_addr().unwrap();
        let echo = std::thread::spawn(move || {
            let (mut s, _) = upstream.accept().unwrap();
            let mut buf = [0u8; 256];
            loop {
                match s.read(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => {
                        if s.write_all(&buf[..n]).is_err() {
                            break;
                        }
                    }
                }
            }
        });
        let cfg = ChaosConfig {
            seed: 1,
            disconnect_prob: 0.0,
            corrupt_prob: 0.0,
            duplicate_prob: 0.0,
            trickle_prob: 0.0,
            delay_prob: 0.0,
            max_delay_ms: 0,
        };
        let proxy = ChaosProxy::spawn(upstream_addr, cfg).unwrap();
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        for round in 0..10u8 {
            let msg = [round; 64];
            c.write_all(&msg).unwrap();
            let mut got = [0u8; 64];
            c.read_exact(&mut got).unwrap();
            assert_eq!(got, msg, "round {round}");
        }
        drop(c);
        let stats = proxy.stop();
        assert_eq!(stats.connections, 1);
        assert!(stats.chunks >= 10);
        assert_eq!(stats.corruptions + stats.disconnects + stats.duplicates, 0);
        echo.join().unwrap();
    }
}
