//! The TCP front: newline-framed request lines in, response lines out.
//!
//! Each connection gets one handler thread that reads request lines and
//! answers them **in request order**. Pipelined clients get batching for
//! free: after the first blocking read, every complete line already
//! sitting in the read buffer joins the same batch, and the batch is
//! dispatched across the work-stealing pool ([`pphw_dse::pool`]) — so a
//! client that writes ten requests before reading gets them evaluated
//! concurrently, while a lock-step client costs no extra threads.
//!
//! Shutdown is cooperative: the `shutdown` method flips the service flag,
//! each handler drains its current batch and closes (idle handlers notice
//! within one [`SHUTDOWN_POLL`] interval, so a lingering peer cannot pin
//! the daemon's exit), and the acceptor is woken by a loopback connection
//! so `run` can return and the caller can persist the measurement cache.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pphw_dse::pool;

use crate::service::{Service, ServiceStats};

/// How long a connection may sit idle mid-line before the handler gives
/// up on it (dead peers must not pin handler threads forever).
const READ_TIMEOUT: Duration = Duration::from_mins(2);

/// The socket-level read timeout. Reads wake at this interval so an idle
/// handler notices a cooperative shutdown promptly instead of pinning
/// `run`'s final join for the full [`READ_TIMEOUT`]; the idle budget
/// itself is enforced by the read loop, not the socket.
const SHUTDOWN_POLL: Duration = Duration::from_millis(250);

/// How long a response write may block before the handler gives up on the
/// connection: a stalled reader (full socket buffer, frozen peer) costs
/// the daemon one closed connection, never a wedged handler thread.
const WRITE_TIMEOUT: Duration = Duration::from_mins(1);

/// A bound listener plus the shared service it answers from.
pub struct Server {
    service: Arc<Service>,
    listener: TcpListener,
    /// Worker threads for intra-batch parallelism on each connection.
    batch_threads: usize,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and prepares to
    /// serve with the given worker parallelism per connection batch.
    ///
    /// # Errors
    ///
    /// Returns the bind error verbatim.
    pub fn bind(addr: &str, service: Arc<Service>, batch_threads: usize) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        Ok(Server {
            service,
            listener,
            batch_threads: batch_threads.max(1),
        })
    }

    /// The actual bound address (resolves ephemeral ports).
    ///
    /// # Errors
    ///
    /// Returns the socket error verbatim.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accepts connections until a `shutdown` request is served, then
    /// joins every live handler and returns the final counters. The
    /// caller owns persistence (saving the eval cache) after this
    /// returns.
    ///
    /// # Errors
    ///
    /// Returns an accept error that is not a transient refusal.
    pub fn run(self) -> io::Result<ServiceStats> {
        let addr = self.listener.local_addr()?;
        let live = Arc::new(AtomicUsize::new(0));
        let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        for conn in self.listener.incoming() {
            if self.service.is_shutdown() {
                break;
            }
            let stream = match conn {
                Ok(s) => s,
                // A peer that vanished between accept and handshake is
                // its own problem, not the daemon's.
                Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => continue,
                Err(e) => return Err(e),
            };
            if !self.service.try_admit_connection() {
                // Beyond the cap: one typed, retryable refusal line, then
                // close. No handler thread is spawned, so a connection
                // flood costs the daemon one bounded write per peer.
                shed_connection(&stream, self.service.limits().max_connections);
                continue;
            }
            let service = Arc::clone(&self.service);
            let live = Arc::clone(&live);
            let threads = self.batch_threads;
            live.fetch_add(1, Ordering::SeqCst);
            let handle = std::thread::spawn(move || {
                // Connection errors only end this peer's session.
                let was_shutdown = service.is_shutdown();
                let _ = serve_connection(&service, stream, threads);
                service.connection_closed();
                live.fetch_sub(1, Ordering::SeqCst);
                // The handler that *served* the shutdown request wakes
                // the acceptor with a loopback connection.
                if !was_shutdown && service.is_shutdown() {
                    let _ = TcpStream::connect(addr);
                }
            });
            handlers.push(handle);
            // Opportunistically reap finished handlers so a long-lived
            // daemon's join list stays bounded.
            handlers.retain(|h| !h.is_finished());
        }
        for h in handlers {
            let _ = h.join();
        }
        Ok(self.service.stats())
    }
}

/// Writes the connection-cap refusal line to a shed peer (best effort,
/// bounded by the write timeout) and lets the stream drop.
fn shed_connection(stream: &TcpStream, limit: usize) {
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let err = crate::protocol::overload_connections(limit);
    let line = crate::protocol::err_line(&crate::json::Json::Null, &err);
    let mut stream = stream;
    let _ = stream.write_all(line.as_bytes());
    let _ = stream.write_all(b"\n");
}

/// Serves one connection until EOF or shutdown: reads a batch of pipelined
/// request lines, evaluates the batch on the pool, writes responses in
/// request order.
fn serve_connection(service: &Service, stream: TcpStream, threads: usize) -> io::Result<()> {
    stream.set_read_timeout(Some(SHUTDOWN_POLL))?;
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    stream.set_nodelay(true)?;
    let writer = stream.try_clone()?;
    let mut writer = io::BufWriter::new(writer);
    let max_line = service.limits().max_line_bytes;
    let mut reader = BufReader::new(stream);
    let mut batch: Vec<String> = Vec::new();
    loop {
        batch.clear();
        // First line: block (bounded by the idle budget, waking at the
        // poll interval so a cooperative shutdown is noticed promptly).
        match read_bounded_line(&mut reader, max_line, service)? {
            ReadLine::Eof => return Ok(()),
            ReadLine::TooLong => {
                write_oversize_error(&mut writer, max_line)?;
                return Ok(());
            }
            ReadLine::Line(l) => batch.push(l),
        }
        // Drain every *complete* line already buffered: these were
        // pipelined by the client and can run concurrently.
        while reader.buffer().contains(&b'\n') {
            match read_bounded_line(&mut reader, max_line, service)? {
                ReadLine::Eof => break,
                ReadLine::TooLong => {
                    write_oversize_error(&mut writer, max_line)?;
                    return Ok(());
                }
                ReadLine::Line(l) => batch.push(l),
            }
        }
        let responses: Vec<Option<String>> = if batch.len() == 1 {
            vec![service.handle_line(&batch[0])]
        } else {
            pool::run_indexed(threads, &batch, |_, line| service.handle_line(line))
        };
        for resp in responses.into_iter().flatten() {
            writer.write_all(resp.as_bytes())?;
            writer.write_all(b"\n")?;
        }
        writer.flush()?;
        if service.is_shutdown() {
            return Ok(());
        }
    }
}

enum ReadLine {
    Line(String),
    Eof,
    TooLong,
}

/// Reads one newline-terminated line without ever buffering more than
/// `max` bytes of it: a peer streaming an endless line gets a bounded
/// refusal, not an unbounded allocation.
///
/// The socket wakes every [`SHUTDOWN_POLL`]; on each wake-up a shutdown
/// in progress ends the read as EOF (the daemon is going down, a
/// half-received request is dropped like any other in-flight network
/// state), and a peer idle past [`READ_TIMEOUT`] gets its timeout error
/// surfaced as before.
fn read_bounded_line(
    reader: &mut BufReader<TcpStream>,
    max: usize,
    service: &Service,
) -> io::Result<ReadLine> {
    let mut line = Vec::new();
    let mut last_byte = std::time::Instant::now();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => {
                return Ok(if line.is_empty() {
                    ReadLine::Eof
                } else {
                    ReadLine::Line(String::from_utf8_lossy(&line).into_owned())
                });
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    return Ok(ReadLine::Line(String::from_utf8_lossy(&line).into_owned()));
                }
                last_byte = std::time::Instant::now();
                line.push(byte[0]);
                if line.len() > max {
                    return Ok(ReadLine::TooLong);
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if service.is_shutdown() {
                    return Ok(ReadLine::Eof);
                }
                if last_byte.elapsed() >= READ_TIMEOUT {
                    return Err(e);
                }
            }
            Err(e) => return Err(e),
        }
    }
}

fn write_oversize_error(writer: &mut impl Write, max: usize) -> io::Result<()> {
    let err = crate::protocol::ErrorBody::new(
        crate::protocol::codes::LIMIT,
        format!("request line exceeds {max} bytes"),
    );
    let line = crate::protocol::err_line(&crate::json::Json::Null, &err);
    writer.write_all(line.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

/// A minimal blocking client for the wire protocol, used by the smoke
/// tests and the load harness. Supports both lock-step `call` and
/// pipelined `send`/`recv`.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a running daemon.
    ///
    /// # Errors
    ///
    /// Returns the connect error verbatim.
    pub fn connect(addr: &SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one request line without waiting for the response.
    ///
    /// # Errors
    ///
    /// Returns the write error verbatim.
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")
    }

    /// Reads one response line (blocks until the daemon answers).
    ///
    /// # Errors
    ///
    /// Fails on connection errors or a daemon that closed mid-response.
    pub fn recv(&mut self) -> io::Result<String> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        Ok(line.trim_end().to_string())
    }

    /// Lock-step request/response.
    ///
    /// # Errors
    ///
    /// Propagates [`Client::send`] / [`Client::recv`] errors.
    pub fn call(&mut self, line: &str) -> io::Result<String> {
        self.send(line)?;
        self.recv()
    }

    /// Bounds how long [`Client::recv`] may block (used by the retrying
    /// chaos client so a swallowed response becomes a retry, not a hang).
    ///
    /// # Errors
    ///
    /// Returns the socket error verbatim.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::json::parse_json;
    use crate::protocol::Limits;
    use pphw_dse::cache::EvalCache;

    fn spawn_server() -> (SocketAddr, std::thread::JoinHandle<ServiceStats>) {
        let service = Arc::new(Service::new(Limits::default(), 2, EvalCache::new()));
        let server = Server::bind("127.0.0.1:0", service, 2).expect("bind");
        let addr = server.local_addr().expect("addr");
        let handle = std::thread::spawn(move || server.run().expect("run"));
        (addr, handle)
    }

    #[test]
    fn ping_and_shutdown_over_tcp() {
        let (addr, handle) = spawn_server();
        let mut c = Client::connect(&addr).expect("connect");
        let resp = c.call("{\"id\":1,\"method\":\"ping\"}").expect("ping");
        let v = parse_json(&resp).expect("json");
        assert_eq!(v.get("ok").and_then(crate::json::Json::as_bool), Some(true));
        c.call("{\"id\":2,\"method\":\"shutdown\"}")
            .expect("shutdown");
        let stats = handle.join().expect("join");
        assert_eq!(stats.requests, 2);
    }

    #[test]
    fn pipelined_batch_preserves_request_order() {
        let (addr, handle) = spawn_server();
        let mut c = Client::connect(&addr).expect("connect");
        for id in 0..8 {
            c.send(&format!("{{\"id\":{id},\"method\":\"ping\"}}"))
                .expect("send");
        }
        for id in 0..8 {
            let v = parse_json(&c.recv().expect("recv")).expect("json");
            assert_eq!(v.get("id").and_then(crate::json::Json::as_u64), Some(id));
        }
        c.call("{\"id\":99,\"method\":\"shutdown\"}")
            .expect("shutdown");
        handle.join().expect("join");
    }

    #[test]
    fn connection_cap_sheds_with_one_typed_line_and_daemon_survives() {
        let service = Arc::new(Service::new(
            Limits {
                max_connections: 1,
                ..Limits::default()
            },
            1,
            EvalCache::new(),
        ));
        let server = Server::bind("127.0.0.1:0", Arc::clone(&service), 1).expect("bind");
        let addr = server.local_addr().expect("addr");
        let handle = std::thread::spawn(move || server.run().expect("run"));

        // First connection occupies the only slot.
        let mut first = Client::connect(&addr).expect("connect");
        let pong = first.call("{\"id\":1,\"method\":\"ping\"}").expect("ping");
        assert!(pong.contains("\"pong\":true"));

        // Second connection: one EOVERLOAD line, then close.
        let mut second = Client::connect(&addr).expect("connect");
        let refusal = second.recv().expect("shed line");
        let v = parse_json(&refusal).expect("json");
        let code = v
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(crate::json::Json::as_str);
        assert_eq!(code, Some(crate::protocol::codes::OVERLOAD));
        assert_eq!(
            v.get("error")
                .and_then(|e| e.get("retryable"))
                .and_then(crate::json::Json::as_bool),
            Some(true)
        );
        assert!(second.recv().is_err(), "shed connection must close");

        // Closing the first frees the slot for a third.
        drop(first);
        let mut third = loop {
            // The slot frees when the handler notices the close; retry
            // briefly rather than racing it.
            let mut c = Client::connect(&addr).expect("connect");
            match c.call("{\"id\":2,\"method\":\"ping\"}") {
                Ok(resp) if resp.contains("\"pong\":true") => break c,
                _ => std::thread::sleep(Duration::from_millis(10)),
            }
        };
        third
            .call("{\"id\":3,\"method\":\"shutdown\"}")
            .expect("shutdown");
        let stats = handle.join().expect("join");
        assert!(stats.shed_connections >= 1);
        assert!(stats.accepted_connections >= 2);
    }

    #[test]
    fn oversized_line_gets_a_bounded_refusal() {
        let service = Arc::new(Service::new(
            Limits {
                max_line_bytes: 64,
                ..Limits::default()
            },
            1,
            EvalCache::new(),
        ));
        let server = Server::bind("127.0.0.1:0", Arc::clone(&service), 1).expect("bind");
        let addr = server.local_addr().expect("addr");
        let handle = std::thread::spawn(move || server.run().expect("run"));
        let mut c = Client::connect(&addr).expect("connect");
        let long = format!("{{\"id\":1,\"junk\":\"{}\"}}", "x".repeat(256));
        let resp = c.call(&long).expect("call");
        let v = parse_json(&resp).expect("json");
        assert_eq!(
            v.get("error")
                .and_then(|e| e.get("code"))
                .and_then(crate::json::Json::as_str),
            Some(crate::protocol::codes::LIMIT)
        );
        // The refusal closes only this connection; the daemon lives on.
        let mut c2 = Client::connect(&addr).expect("reconnect");
        c2.call("{\"id\":2,\"method\":\"shutdown\"}")
            .expect("shutdown");
        handle.join().expect("join");
    }
}
