//! The TCP front: newline-framed request lines in, response lines out.
//!
//! Each connection gets one handler thread that reads request lines and
//! answers them **in request order**. After the first blocking read,
//! every complete line already sitting in the read buffer joins the same
//! batch. The handler answers on its own thread every line that needs no
//! evaluation — control methods, malformed lines, sheds and response-memo
//! hits — and queues the rest on one set of long-lived workers shared by
//! every connection. A client that pipelines ten misses gets them
//! evaluated concurrently, a memo hit costs no hand-off, and the daemon
//! evaluates on a fixed number of threads however many connections are
//! open.
//!
//! Shutdown is cooperative: the `shutdown` method flips the service flag,
//! each handler drains its current batch and closes (idle handlers notice
//! within one [`SHUTDOWN_POLL`] interval, so a lingering peer cannot pin
//! the daemon's exit), and the acceptor is woken by a loopback connection
//! so `run` can join the handlers, then the workers, and return; the
//! caller then persists the measurement cache.

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::protocol::Request;
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
    /// Worker threads shared by every connection: the only threads that
    /// evaluate.
    batch_threads: usize,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and prepares to
    /// serve with `batch_threads` workers shared by every connection.
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

    /// Starts the workers, accepts connections until a `shutdown` request
    /// is served, then joins every live handler, then the workers, and
    /// returns the final counters. The caller owns persistence (saving
    /// the eval cache) after this returns.
    ///
    /// # Errors
    ///
    /// Returns an accept error that is not a transient refusal, after
    /// shutting down as a `shutdown` request would.
    pub fn run(self) -> io::Result<ServiceStats> {
        let pool = Arc::new(Pool::default());
        let workers: Vec<JoinHandle<()>> = (0..self.batch_threads)
            .map(|_| {
                let (pool, service) = (Arc::clone(&pool), Arc::clone(&self.service));
                std::thread::spawn(move || pool.work(&service))
            })
            .collect();
        let accepted = self.accept(&pool);
        pool.close();
        for w in workers {
            let _ = w.join();
        }
        accepted.map(|()| self.service.stats())
    }

    /// The accept loop: one handler thread per admitted connection, all
    /// joined before it returns.
    fn accept(&self, pool: &Arc<Pool>) -> io::Result<()> {
        let addr = self.listener.local_addr()?;
        let mut handlers: Vec<JoinHandle<()>> = Vec::new();
        let mut result = Ok(());
        for conn in self.listener.incoming() {
            if self.service.is_shutdown() {
                break;
            }
            let stream = match conn {
                Ok(s) => s,
                // A peer that vanished between accept and handshake is
                // its own problem, not the daemon's.
                Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => continue,
                Err(e) => {
                    // Drain the handlers as for `shutdown`: their queued
                    // work needs the workers `run` joins after them.
                    self.service.request_shutdown();
                    result = Err(e);
                    break;
                }
            };
            if !self.service.try_admit_connection() {
                // Beyond the cap: one typed, retryable refusal line, then
                // close. No handler thread is spawned, so a connection
                // flood costs the daemon one bounded write per peer.
                shed_connection(&stream, self.service.limits().max_connections);
                continue;
            }
            let service = Arc::clone(&self.service);
            let pool = Arc::clone(pool);
            let handle = std::thread::spawn(move || {
                // Connection errors only end this peer's session.
                let was_shutdown = service.is_shutdown();
                let _ = serve_connection(&service, &pool, stream);
                service.connection_closed();
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
        result
    }
}

/// The workers' one queue. It needs no bound of its own: a handler waits
/// for its batch, so it holds at most one batch per admitted connection,
/// and a batch at most the complete lines of one read buffer.
#[derive(Default)]
struct Pool {
    queue: Mutex<Queue>,
    /// Signalled when a job is queued or the pool closes.
    ready: Condvar,
}

#[derive(Default)]
struct Queue {
    jobs: VecDeque<Job>,
    closed: bool,
}

/// A request to evaluate and its slot in its batch's responses.
struct Job {
    req: Box<Request>,
    slot: usize,
    batch: Arc<Batch>,
}

/// One batch's evaluated responses, by slot, as the workers finish them.
#[derive(Default)]
struct Batch {
    done: Mutex<Vec<(usize, String)>>,
    finished: Condvar,
}

/// Every update to the pool's and batches' state is one push or pop, so
/// the state stays valid even if a holder panicked.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Pool {
    /// A worker's life: evaluate queued jobs until the pool is closed and
    /// drained. The service contains every panic of an evaluation.
    fn work(&self, service: &Service) {
        loop {
            let job = {
                let mut queue = lock(&self.queue);
                loop {
                    if let Some(job) = queue.jobs.pop_front() {
                        break job;
                    }
                    if queue.closed {
                        return;
                    }
                    queue = self
                        .ready
                        .wait(queue)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            let response = service.evaluate(&job.req);
            lock(&job.batch.done).push((job.slot, response));
            job.batch.finished.notify_one();
        }
    }

    /// Evaluates each miss on the workers into its slot of `responses`,
    /// returning once all are in.
    fn evaluate(&self, misses: Vec<(usize, Box<Request>)>, responses: &mut [Option<String>]) {
        let (batch, n) = (Arc::new(Batch::default()), misses.len());
        lock(&self.queue)
            .jobs
            .extend(misses.into_iter().map(|(slot, req)| Job {
                req,
                slot,
                batch: Arc::clone(&batch),
            }));
        for _ in 0..n {
            self.ready.notify_one();
        }
        let mut done = lock(&batch.done);
        while done.len() < n {
            done = batch
                .finished
                .wait(done)
                .unwrap_or_else(PoisonError::into_inner);
        }
        for (slot, response) in done.drain(..) {
            responses[slot] = Some(response);
        }
    }

    /// Lets the workers exit once the queue is empty.
    fn close(&self) {
        lock(&self.queue).closed = true;
        self.ready.notify_all();
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

/// Serves one connection until EOF, an oversized line or shutdown: reads
/// a batch of pipelined request lines, answers it, writes the responses
/// in request order.
fn serve_connection(service: &Service, pool: &Pool, stream: TcpStream) -> io::Result<()> {
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
        // Then drain every *complete* line already buffered: these were
        // pipelined by the client and form one batch. An EOF or an
        // oversized line ends the batch and, once it is answered, the
        // connection.
        let mut end = None;
        loop {
            match read_bounded_line(&mut reader, max_line, service)? {
                ReadLine::Line(l) => batch.push(l),
                last => {
                    end = Some(last);
                    break;
                }
            }
            if !reader.buffer().contains(&b'\n') {
                break;
            }
        }
        answer_batch(service, pool, &batch, &mut writer)?;
        match end {
            Some(ReadLine::TooLong) => return write_oversize_error(&mut writer, max_line),
            Some(_) => return Ok(()),
            None if service.is_shutdown() => return Ok(()),
            None => {}
        }
    }
}

/// Answers one batch: on this thread every line that needs no
/// evaluation, on the workers the rest; then writes every response in
/// request order.
fn answer_batch(
    service: &Service,
    pool: &Pool,
    batch: &[String],
    writer: &mut impl Write,
) -> io::Result<()> {
    let mut responses = Vec::with_capacity(batch.len());
    let mut misses = Vec::new();
    for line in batch {
        match service.answer_now(line) {
            Ok(response) => responses.push(response),
            Err(req) => {
                misses.push((responses.len(), req));
                responses.push(None);
            }
        }
    }
    if !misses.is_empty() {
        pool.evaluate(misses, &mut responses);
    }
    for response in responses.into_iter().flatten() {
        writer.write_all(response.as_bytes())?;
        writer.write_all(b"\n")?;
    }
    writer.flush()
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
    use crate::json::{parse_json, Json};
    use crate::protocol::{codes, Limits};
    use pphw_dse::cache::EvalCache;

    fn spawn_server(limits: Limits) -> (SocketAddr, Arc<Service>, JoinHandle<ServiceStats>) {
        let service = Arc::new(Service::new(limits, 1, EvalCache::new()));
        let server = Server::bind("127.0.0.1:0", Arc::clone(&service), 2).expect("bind");
        let addr = server.local_addr().expect("addr");
        let handle = std::thread::spawn(move || server.run().expect("run"));
        (addr, service, handle)
    }

    fn error_code(resp: &str) -> Option<String> {
        let v = parse_json(resp).expect("json");
        let code = v.get("error").and_then(|e| e.get("code"));
        code.and_then(Json::as_str).map(str::to_string)
    }

    #[test]
    fn ping_and_shutdown_over_tcp() {
        let (addr, _, handle) = spawn_server(Limits::default());
        let mut c = Client::connect(&addr).expect("connect");
        let resp = c.call("{\"id\":1,\"method\":\"ping\"}").expect("ping");
        let v = parse_json(&resp).expect("json");
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        c.call("{\"id\":2,\"method\":\"shutdown\"}")
            .expect("shutdown");
        let stats = handle.join().expect("join");
        assert_eq!(stats.requests, 2);
    }

    #[test]
    fn pipelined_batch_preserves_request_order() {
        let (addr, _, handle) = spawn_server(Limits::default());
        let mut c = Client::connect(&addr).expect("connect");
        for id in 0..8 {
            c.send(&format!("{{\"id\":{id},\"method\":\"ping\"}}"))
                .expect("send");
        }
        for id in 0..8 {
            let v = parse_json(&c.recv().expect("recv")).expect("json");
            assert_eq!(v.get("id").and_then(Json::as_u64), Some(id));
        }
        c.call("{\"id\":99,\"method\":\"shutdown\"}")
            .expect("shutdown");
        handle.join().expect("join");
    }

    /// One batch mixing every kind of line: what needs no evaluation is
    /// answered on the connection's thread, the misses on the workers,
    /// and the responses still come back in request order.
    #[test]
    fn a_mixed_batch_answers_in_order_and_evaluates_each_miss_once() {
        let (addr, service, handle) = spawn_server(Limits::default());
        let simulate = |id: u32, m: u32| {
            format!(
                "{{\"id\":{id},\"method\":\"simulate\",\"bench\":\"sumrows\",\
                 \"sizes\":{{\"m\":{m},\"n\":8}},\"inner_par\":4}}"
            )
        };
        let mut c = Client::connect(&addr).expect("connect");
        assert!(c
            .call(&simulate(0, 8))
            .expect("warm")
            .contains("\"ok\":true"));
        let before = service.stats();
        let batch = [
            "{\"id\":1,\"method\":\"ping\"}".to_string(),
            simulate(2, 8),
            simulate(3, 16),
            simulate(4, 16),
            "{\"id\":5,".to_string(),
            simulate(6, 32),
        ];
        c.writer
            .write_all(format!("{}\n", batch.join("\n")).as_bytes())
            .expect("one write");
        let ids: Vec<Json> = (0..batch.len())
            .map(|_| {
                let resp = c.recv().expect("recv");
                let v = parse_json(&resp).expect("json");
                let ok = v.get("ok").and_then(Json::as_bool);
                assert_eq!(ok, Some(error_code(&resp).is_none()), "{resp}");
                v.get("id").cloned().expect("id")
            })
            .collect();
        let n = Json::Num;
        assert_eq!(ids, [n(1.0), n(2.0), n(3.0), n(4.0), Json::Null, n(6.0)]);
        let after = service.stats();
        assert_eq!(after.dedup_builds, before.dedup_builds + 2, "m=16 and m=32");
        assert_eq!(after.dedup_hits, before.dedup_hits + 2, "id 2 and id 4");
        assert_eq!(after.requests, before.requests + 6);
        assert_eq!(after.errors, before.errors + 1, "the malformed line");
        c.call("{\"id\":7,\"method\":\"shutdown\"}")
            .expect("shutdown");
        handle.join().expect("join");
    }

    #[test]
    fn connection_cap_sheds_with_one_typed_line_and_daemon_survives() {
        let (addr, _, handle) = spawn_server(Limits {
            max_connections: 1,
            ..Limits::default()
        });

        // First connection occupies the only slot.
        let mut first = Client::connect(&addr).expect("connect");
        let pong = first.call("{\"id\":1,\"method\":\"ping\"}").expect("ping");
        assert!(pong.contains("\"pong\":true"));

        // Second connection: one EOVERLOAD line, then close.
        let mut second = Client::connect(&addr).expect("connect");
        let refusal = second.recv().expect("shed line");
        assert_eq!(error_code(&refusal).as_deref(), Some(codes::OVERLOAD));
        let v = parse_json(&refusal).expect("json");
        assert_eq!(
            v.get("error")
                .and_then(|e| e.get("retryable"))
                .and_then(Json::as_bool),
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
        let (addr, _, handle) = spawn_server(Limits {
            max_line_bytes: 64,
            ..Limits::default()
        });
        let long = format!("{{\"id\":1,\"junk\":\"{}\"}}", "x".repeat(256));
        // Alone, and after a request pipelined in the same write, which
        // is answered before the refusal.
        for before in [None, Some("{\"id\":0,\"method\":\"ping\"}")] {
            let mut c = Client::connect(&addr).expect("connect");
            let wire = before.map_or(format!("{long}\n"), |b| format!("{b}\n{long}\n"));
            c.writer.write_all(wire.as_bytes()).expect("one write");
            if before.is_some() {
                assert!(c.recv().expect("pong").contains("\"pong\":true"));
            }
            let refusal = c.recv().expect("refusal");
            assert_eq!(error_code(&refusal).as_deref(), Some(codes::LIMIT));
            assert!(c.recv().is_err(), "the refusal closes the connection");
        }
        // The refusal closes only its connection; the daemon lives on.
        let mut c2 = Client::connect(&addr).expect("reconnect");
        c2.call("{\"id\":2,\"method\":\"shutdown\"}")
            .expect("shutdown");
        handle.join().expect("join");
    }
}
