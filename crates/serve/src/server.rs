//! The `finsqld` server: a hand-rolled non-blocking readiness loop over
//! `std::net` sockets feeding the existing [`BatchScheduler`].
//!
//! The workspace vendors every dependency and forbids `unsafe`, so there
//! is no epoll/mio: the event loop polls non-blocking sockets in rounds —
//! accept until `WouldBlock`, read/decode/dispatch per connection, poll
//! outstanding [`Ticket`]s, flush write buffers — and sleeps briefly only
//! when a full round did no work. One driver thread therefore serves any
//! number of connections; no thread is ever parked per request.
//!
//! **Admission control.** Requests occupy one in-flight slot from decode
//! until their response bytes are queued. Over budget —
//! [`ServeConfig::max_in_flight`] reached, or the scheduler's bounded
//! queue refuses with [`SubmitError::QueueFull`] — the request is
//! answered [`Status::Busy`] immediately: load is shed at the wire, a
//! `Busy` is never a wrong answer, and the bounded MPMC queue's
//! backpressure reaches the client instead of blocking the driver.
//!
//! **Cache hits skip the batch.** [`BatchScheduler::try_submit`] probes
//! the answer cache on the driver thread. A hit comes back already
//! answered and its `Ok` response is queued in the same round, with no
//! [`Pending`] entry. Only misses are queued and polled: a scheduler
//! worker takes each one together with whatever else is already queued
//! and computes that micro-batch at once, never waiting for more.
//!
//! **Byte identity.** Hits and misses alike are answered by the
//! scheduler: a hit is the cached answer the batched engine computed for
//! an earlier miss, and a miss is computed by the batched engine itself.
//! So every `Ok` answer is byte-identical to the library path
//! ([`FinSql::answer`] — the property `bench_serve` re-checks over real
//! sockets).

use crate::wire::{encode_response_into, Frame, FrameDecoder, Kind, Status};
use bull::DbId;
use finsql_core::batch::{BatchConfig, BatchScheduler, SubmitError, Ticket};
use finsql_core::cache::AnswerCache;
use finsql_core::metrics::{EvalMetrics, LatencyHistogram};
use finsql_core::pipeline::FinSql;
use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Knobs of one [`Server`].
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Admission budget: most requests simultaneously between decode and
    /// response enqueue. Beyond it every request is answered
    /// [`Status::Busy`] without touching the scheduler.
    pub max_in_flight: usize,
    /// A connection whose write buffer backs up past this many bytes is
    /// not read from until the peer drains it — per-connection
    /// backpressure with bounded memory.
    pub write_buf_cap: usize,
    /// How long the driver sleeps after a round in which no socket was
    /// readable, no ticket resolved and no byte was written.
    pub idle_sleep: Duration,
    /// The scheduler the server feeds.
    pub batch: BatchConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_in_flight: 256,
            write_buf_cap: 1 << 20,
            idle_sleep: Duration::from_micros(100),
            batch: BatchConfig::default(),
        }
    }
}

/// Counters of one server's lifetime, also the substance of the `STATS`
/// protocol verb.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeReport {
    /// Requests answered [`Status::Ok`].
    pub served: u64,
    /// The part of `served` answered from the cache at submit.
    pub cache_hits: u64,
    /// Requests shed with [`Status::Busy`] (admission budget or queue
    /// full).
    pub busy_rejected: u64,
    /// Frames rejected as [`Status::BadFrame`] (protocol violations).
    pub bad_frames: u64,
    /// Requests refused with [`Status::Shutdown`] during drain.
    pub shutdown_rejected: u64,
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
}

/// One client connection's driver state.
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Bytes queued for the peer; drained opportunistically each round.
    out: Vec<u8>,
    /// Prefix of `out` already written.
    out_pos: usize,
    /// Close once `out` is flushed (EOF from peer, or a protocol error).
    closing: bool,
}

impl Conn {
    fn queue(&mut self, frame: &Frame) {
        frame.encode_into(&mut self.out);
    }

    /// Frames a response straight onto the write buffer: one payload
    /// copy (building a `Frame::response` first would copy the answer
    /// twice).
    fn queue_response(&mut self, request_id: u64, status: Status, flags: u8, answer: &str) {
        encode_response_into(&mut self.out, request_id, status, flags, answer);
    }

    /// Drops the flushed prefix once it dominates the buffer.
    fn compact_out(&mut self) {
        if self.out_pos > 0 && self.out_pos * 2 >= self.out.len() {
            self.out.drain(..self.out_pos);
            self.out_pos = 0;
        }
    }

    fn backlog(&self) -> usize {
        self.out.len() - self.out_pos
    }
}

/// The serving latency histograms, decode to response enqueue: every
/// `Ok` answer, and the same answers split into cache hits and misses.
#[derive(Default)]
struct ServeLatency {
    all: LatencyHistogram,
    hits: LatencyHistogram,
    misses: LatencyHistogram,
}

impl ServeLatency {
    fn record(&self, cache_hit: bool, elapsed: Duration) {
        self.all.record(elapsed);
        if cache_hit {
            self.hits.record(elapsed);
        } else {
            self.misses.record(elapsed);
        }
    }
}

/// One admitted cache miss awaiting its scheduler answer.
struct Pending {
    conn_id: u64,
    request_id: u64,
    flags: u8,
    ticket: Ticket,
    received: Instant,
}

/// A running `finsqld` instance bound to a TCP address.
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    scheduler: BatchScheduler,
    config: ServeConfig,
    latency: ServeLatency,
    report: ServeReport,
}

impl Server {
    /// Binds a listener and starts the scheduler's worker pool. `addr`
    /// may use port 0 to let the OS pick (see [`Server::local_addr`]).
    pub fn bind(
        addr: &str,
        engine: Arc<FinSql>,
        cache: Option<Arc<AnswerCache>>,
        metrics: Option<Arc<EvalMetrics>>,
        config: ServeConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let scheduler = BatchScheduler::new(engine, cache, metrics, config.batch);
        Ok(Server {
            listener,
            local_addr,
            scheduler,
            config,
            latency: ServeLatency::default(),
            report: ServeReport::default(),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Runs the readiness loop until a client sends a `Shutdown` frame
    /// or `stop` is raised externally. Shutdown is graceful: in-flight
    /// requests drain to completion, their responses are flushed, the
    /// scheduler pool is joined, and the lifetime report is returned.
    pub fn run(mut self, stop: &AtomicBool) -> ServeReport {
        let mut conns: BTreeMap<u64, Conn> = BTreeMap::new();
        let mut pending: Vec<Pending> = Vec::new();
        let mut next_conn_id = 0u64;
        let mut draining = false;
        loop {
            let mut progressed = false;
            if !draining && stop.load(Ordering::Relaxed) {
                draining = true;
            }

            // 1. Accept — refuse nothing at the socket level; admission
            // happens per request. Accepting continues during drain so a
            // handshake that raced shutdown gets explicit `Shutdown`
            // responses instead of a silently dropped connection.
            loop {
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        // Nagle would buffer our small frames against
                        // the latency measurement; best effort.
                        let _ = stream.set_nodelay(true);
                        self.report.connections += 1;
                        conns.insert(
                            next_conn_id,
                            Conn {
                                stream,
                                decoder: FrameDecoder::new(),
                                out: Vec::new(),
                                out_pos: 0,
                                closing: false,
                            },
                        );
                        next_conn_id += 1;
                        progressed = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(_) => break,
                }
            }

            // 2. Read + decode + dispatch per connection.
            let mut dead: Vec<u64> = Vec::new();
            for (&conn_id, conn) in conns.iter_mut() {
                if conn.closing {
                    continue;
                }
                // Backpressure: a peer that won't drain its responses
                // doesn't get to queue unbounded new work.
                if conn.backlog() >= self.config.write_buf_cap {
                    continue;
                }
                let mut buf = [0u8; 4096];
                loop {
                    match conn.stream.read(&mut buf) {
                        Ok(0) => {
                            conn.closing = true;
                            progressed = true;
                            break;
                        }
                        Ok(n) => {
                            progressed = true;
                            conn.decoder.push(&buf[..n]);
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                        Err(_) => {
                            dead.push(conn_id);
                            break;
                        }
                    }
                }
                if dead.last() == Some(&conn_id) {
                    continue;
                }
                // Drain every complete frame buffered so far.
                loop {
                    match conn.decoder.next_frame() {
                        Ok(Some(frame)) => {
                            progressed = true;
                            dispatch(
                                frame,
                                Instant::now(),
                                conn_id,
                                conn,
                                &self.scheduler,
                                &self.latency,
                                &mut self.report,
                                &mut pending,
                                &mut draining,
                                self.config.max_in_flight,
                            );
                        }
                        Ok(None) => break,
                        Err(_) => {
                            // Framing is lost; tell the peer and close.
                            self.report.bad_frames += 1;
                            conn.queue_response(0, Status::BadFrame, 0, "");
                            conn.closing = true;
                            progressed = true;
                            break;
                        }
                    }
                }
            }
            for conn_id in dead.drain(..) {
                conns.remove(&conn_id);
            }

            // 3. Poll outstanding miss tickets; completed answers are
            // framed onto their connection's write buffer.
            pending.retain(|p| {
                let Some(answer) = p.ticket.try_answer() else { return true };
                self.latency.record(false, p.received.elapsed());
                self.report.served += 1;
                progressed = true;
                if let Some(conn) = conns.get_mut(&p.conn_id) {
                    conn.queue_response(p.request_id, Status::Ok, p.flags, &answer);
                }
                false
            });

            // 4. Flush write buffers; reap finished connections.
            for (&conn_id, conn) in conns.iter_mut() {
                while conn.backlog() > 0 {
                    match conn.stream.write(&conn.out[conn.out_pos..]) {
                        Ok(0) => {
                            dead.push(conn_id);
                            break;
                        }
                        Ok(n) => {
                            progressed = true;
                            conn.out_pos += n;
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                        Err(_) => {
                            dead.push(conn_id);
                            break;
                        }
                    }
                }
                conn.compact_out();
                if conn.closing && conn.backlog() == 0 {
                    dead.push(conn_id);
                }
            }
            for conn_id in dead.drain(..) {
                conns.remove(&conn_id);
            }

            // 5. Drain-to-exit: once shutdown began, leave only after
            // every admitted request is answered and every response byte
            // is either flushed or its connection is gone.
            if draining && pending.is_empty() && conns.values().all(|c| c.backlog() == 0) {
                break;
            }
            if !progressed {
                // finlint: blocking — idle backoff: the loop naps only
                // when no socket, frame or ticket made progress this
                // round, so no admitted request is ever behind the sleep.
                std::thread::sleep(self.config.idle_sleep);
            }
        }
        // finlint: blocking — graceful exit: joins the worker pool after
        // the drain barrier above has answered and flushed everything.
        self.scheduler.shutdown();
        self.report
    }

    /// Starts the server on its own thread, returning a handle that can
    /// stop it and collect the report. The bound address is resolved
    /// before spawning, so the caller can connect immediately.
    pub fn spawn(self) -> ServeHandle {
        let addr = self.local_addr;
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || self.run(&stop))
        };
        ServeHandle { addr, stop, thread }
    }
}

/// Handles one decoded frame on `conn`; `received` is when it was
/// decoded, the start of its serving latency.
#[allow(clippy::too_many_arguments)]
fn dispatch(
    frame: Frame,
    received: Instant,
    conn_id: u64,
    conn: &mut Conn,
    scheduler: &BatchScheduler,
    latency: &ServeLatency,
    report: &mut ServeReport,
    pending: &mut Vec<Pending>,
    draining: &mut bool,
    max_in_flight: usize,
) {
    let request_id = frame.request_id;
    let flags = frame.flags;
    match frame.kind {
        Kind::Request => {
            if *draining {
                report.shutdown_rejected += 1;
                conn.queue_response(request_id, Status::Shutdown, flags, "");
                return;
            }
            let Some(&db) = DbId::ALL.get(frame.code as usize) else {
                report.bad_frames += 1;
                conn.queue_response(request_id, Status::BadFrame, flags, "");
                conn.closing = true;
                return;
            };
            let Ok(question) = String::from_utf8(frame.payload) else {
                report.bad_frames += 1;
                conn.queue_response(request_id, Status::BadFrame, flags, "");
                conn.closing = true;
                return;
            };
            if pending.len() >= max_in_flight {
                report.busy_rejected += 1;
                conn.queue_response(request_id, Status::Busy, flags, "");
                return;
            }
            // A hit is probed on the decoded String and never copies it.
            // A miss makes one `Arc<str>` of it, which the queue, the
            // cache key and the response share.
            match scheduler.try_submit(db, question) {
                Ok(ticket) if ticket.is_cache_hit() => {
                    // Answered at submit: respond in this round.
                    if let Some(answer) = ticket.try_answer() {
                        latency.record(true, received.elapsed());
                        report.served += 1;
                        report.cache_hits += 1;
                        conn.queue_response(request_id, Status::Ok, flags, &answer);
                    }
                }
                Ok(ticket) => pending.push(Pending { conn_id, request_id, flags, ticket, received }),
                Err(SubmitError::QueueFull) => {
                    report.busy_rejected += 1;
                    conn.queue_response(request_id, Status::Busy, flags, "");
                }
                Err(SubmitError::ShuttingDown) => {
                    report.shutdown_rejected += 1;
                    conn.queue_response(request_id, Status::Shutdown, flags, "");
                }
            }
        }
        Kind::Stats => {
            // STATS is an operator verb: one JSON build per explicit
            // stats request, never on the per-query serving path.
            let json = stats_json(report, pending.len(), latency); // finlint: alloc — stats verb
            conn.queue(&Frame::stats_response(request_id, &json)); // finlint: alloc — stats verb
        }
        Kind::Shutdown => {
            *draining = true;
            conn.queue_response(request_id, Status::Shutdown, flags, "");
        }
        // A client sending server-side frame kinds has lost the plot;
        // treat it as a protocol violation.
        Kind::Response | Kind::StatsResponse => {
            report.bad_frames += 1;
            conn.queue_response(request_id, Status::BadFrame, flags, "");
            conn.closing = true;
        }
    }
}

/// The `STATS` payload: hand-formatted JSON (the workspace has no serde
/// registry dep), nanosecond quantiles from the serving histograms. The
/// hit/miss split follows the `latency` object under key names of its
/// own, so a reader that takes the first `"key":` match of an older key
/// still reads the overall figure.
fn stats_json(report: &ServeReport, in_flight: usize, latency: &ServeLatency) -> String {
    let (all, hits, misses) =
        (latency.all.snapshot(), latency.hits.snapshot(), latency.misses.snapshot());
    format!(
        "{{\"served\":{},\"busy_rejected\":{},\"bad_frames\":{},\"shutdown_rejected\":{},\
         \"connections\":{},\"in_flight\":{},\"latency\":{{\"count\":{},\"p50_ns\":{},\
         \"p99_ns\":{},\"p999_ns\":{}}},\"hits\":{},\"hit_p50_ns\":{},\"hit_p99_ns\":{},\
         \"miss_p50_ns\":{},\"miss_p99_ns\":{}}}",
        report.served,
        report.busy_rejected,
        report.bad_frames,
        report.shutdown_rejected,
        report.connections,
        in_flight,
        all.count(),
        all.p50().as_nanos(),
        all.p99().as_nanos(),
        all.p999().as_nanos(),
        report.cache_hits,
        hits.p50().as_nanos(),
        hits.p99().as_nanos(),
        misses.p50().as_nanos(),
        misses.p99().as_nanos(),
    )
}

/// A server running on its own thread.
pub struct ServeHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<ServeReport>,
}

impl ServeHandle {
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Raises the stop flag; the driver drains and exits on its next
    /// round.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    /// Waits for the driver to exit and returns its lifetime report.
    /// `Err` carries the driver thread's panic payload.
    pub fn join(self) -> std::thread::Result<ServeReport> {
        self.thread.join()
    }

    /// [`ServeHandle::stop`] then [`ServeHandle::join`].
    pub fn shutdown(self) -> std::thread::Result<ServeReport> {
        self.stop();
        self.join()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_json_appends_the_hit_miss_split_after_latency() {
        let report = ServeReport {
            served: 3,
            cache_hits: 2,
            busy_rejected: 1,
            bad_frames: 0,
            shutdown_rejected: 0,
            connections: 1,
        };
        let latency = ServeLatency::default();
        // Two hits in [1024, 2047] ns, one miss in [2^21, 2^22) ns.
        latency.record(true, Duration::from_nanos(1500));
        latency.record(true, Duration::from_nanos(1500));
        latency.record(false, Duration::from_millis(3));
        assert_eq!(
            stats_json(&report, 4, &latency),
            "{\"served\":3,\"busy_rejected\":1,\"bad_frames\":0,\"shutdown_rejected\":0,\
             \"connections\":1,\"in_flight\":4,\"latency\":{\"count\":3,\"p50_ns\":2047,\
             \"p99_ns\":4194303,\"p999_ns\":4194303},\"hits\":2,\"hit_p50_ns\":2047,\
             \"hit_p99_ns\":2047,\"miss_p50_ns\":4194303,\"miss_p99_ns\":4194303}"
        );
    }
}
