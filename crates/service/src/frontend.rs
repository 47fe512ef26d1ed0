//! The event-driven NDJSON frontend: one reactor thread multiplexing
//! every connection over the vendored `krsp-reactor` epoll/poll loop.
//!
//! ## Shape
//!
//! The reactor thread owns the listener, every connection socket, and all
//! per-connection state (read framing, write buffers, ordering queues).
//! It never solves: `Solve` requests go through
//! [`Service::provision_async`], run on the service's worker pool, and
//! complete by pushing a rendered response line onto a shared completion
//! queue and waking the reactor through its wake pipe. Total threads are
//! therefore O(workers) + 1 regardless of connection count.
//!
//! ## Ordering model
//!
//! Requests carrying an `"id"` member are dispatched immediately and
//! answered in completion order (out-of-order pipelining). Requests
//! without an id keep the historical blocking semantics: each one is
//! evaluated only after the previous id-less response on the same
//! connection was produced, so legacy clients observe the same ordering
//! *and* the same side-effect timing (a pipelined `"Metrics"` still
//! counts the solve before it) as a one-at-a-time blocking server.
//!
//! ## Fairness and protection
//!
//! * Reads are level-triggered and budgeted per readiness event, so one
//!   firehose connection cannot starve the rest of the loop.
//! * A connection stalled mid-line past [`ServeOptions::read_timeout`] is
//!   dropped by the housekeeping sweep (the slow-loris defense); idle
//!   connections *between* lines never time out.
//! * A client that stops draining responses trips
//!   [`ServeOptions::write_timeout`] and is dropped.
//! * Accepts beyond [`ServeOptions::max_conns`] /
//!   [`ServeOptions::per_client_conns`] are answered with a `"shed"`
//!   error line and closed; `Solve` floods beyond the per-address token
//!   bucket get `"rate_limited"` errors.
//!
//! The housekeeping sweep runs on a reactor timer every
//! [`ServeOptions::poll`]; it is also where the shutdown flag (set from a
//! signal handler that cannot wake the reactor itself) is noticed, so the
//! daemon parks in `epoll_wait` when idle instead of spin-polling.

use crate::metrics::FrontendStats;
use crate::proto::{
    self, health_reply, solve_response, DecodedRequest, ErrorKind, ServeOptions, SolveBatchRequest,
    SolveRequest, WireRequest, WireResponse, MAX_LINE_BYTES,
};
use crate::service::{Request, Service};
use crate::sync_util::{lock_recover, saturating_deadline};
use krsp_reactor::{Event, Interest, Mode, Reactor, Token, Waker};
use serde::Content;
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind as IoErrorKind, Read, Write};
use std::net::{IpAddr, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const LISTENER: Token = Token(0);
const SWEEP: Token = Token(1);
const FIRST_CONN_TOKEN: usize = 2;

/// Read budget per readiness event per connection. Level-triggered
/// registration re-reports the descriptor on the next poll, so capping a
/// single drain bounds how long one chatty connection can hog the loop.
const READ_BUDGET: usize = 256 * 1024;
const READ_CHUNK: usize = 64 * 1024;

/// Compact the write buffer once this many bytes are already flushed.
const OUT_COMPACT: usize = 64 * 1024;

/// Runs the event-driven server until shutdown drains it.
pub(crate) fn serve_event_driven(
    service: &Service,
    listener: TcpListener,
    shutdown: Arc<AtomicBool>,
    opts: ServeOptions,
) -> std::io::Result<()> {
    Frontend::new(service.clone(), Reactor::new()?, listener, shutdown, opts)
        .and_then(Frontend::run)
}

/// One response produced off-thread, addressed by connection token.
struct Completion {
    token: usize,
    line: String,
    /// Whether this response belongs to the connection's id-less ordered
    /// stream (its completion unblocks the next queued request).
    ordered: bool,
}

/// Work parked behind the connection's in-order (id-less) stream.
enum Queued {
    /// A response decided at receipt time (parse error, oversize line,
    /// rate limit), waiting its turn to be written. Boxed: `WireResponse`
    /// dwarfs the request variant and queues hold many of these.
    Respond(Box<WireResponse>),
    /// A request evaluated when it reaches the front of the queue.
    Request(WireRequest),
}

/// A complete line produced by the incremental framer.
enum Framed {
    Line(Vec<u8>),
    /// The line blew past [`MAX_LINE_BYTES`]. The framer kept the line's
    /// first [`ID_PREFIX`] bytes, so a pipelined request's `"id"` member
    /// (which the canonical encoders place first) survives the discard and
    /// the oversize error can still be matched by the client.
    TooLong(Option<Content>),
}

/// How many bytes of an oversize line the framer retains for id recovery.
/// The canonical id splice is `{"id":<u64>,...`, so 256 bytes is generous;
/// anything fancier than a leading integer id falls back to a bare error.
const ID_PREFIX: usize = 256;

struct Conn {
    stream: TcpStream,
    peer: IpAddr,
    /// Bytes of the current (incomplete) request line.
    line: Vec<u8>,
    /// The current line blew past [`MAX_LINE_BYTES`]; bytes are dropped
    /// until its newline, then one oversize error is emitted. While set,
    /// `line` holds the frozen [`ID_PREFIX`]-byte head of the oversize
    /// line (for id recovery), not live framing state.
    discarding: bool,
    /// When the current partial line started arriving (the slow-loris
    /// clock); `None` between lines.
    partial_since: Option<Instant>,
    /// Pending output; `[out_pos..]` is unwritten.
    out: Vec<u8>,
    out_pos: usize,
    /// When the socket first refused bytes; cleared on full flush.
    write_stall_since: Option<Instant>,
    /// Registered for writable interest (pending output).
    wants_write: bool,
    /// Dispatched requests (ordered + id-carrying) not yet answered.
    in_flight: usize,
    /// Id-less work awaiting its turn (see the module ordering model).
    queue: VecDeque<Queued>,
    /// An id-less request is currently dispatched; the queue is paused.
    ordered_busy: bool,
    /// Peer EOF seen: close once everything queued is answered+flushed.
    read_closed: bool,
}

impl Conn {
    fn new(stream: TcpStream, peer: IpAddr) -> Conn {
        Conn {
            stream,
            peer,
            line: Vec::new(),
            discarding: false,
            partial_since: None,
            out: Vec::new(),
            out_pos: 0,
            write_stall_since: None,
            wants_write: false,
            in_flight: 0,
            queue: VecDeque::new(),
            ordered_busy: false,
            read_closed: false,
        }
    }

    /// Nothing in flight, queued, or buffered.
    fn idle(&self) -> bool {
        self.in_flight == 0 && self.queue.is_empty() && self.out_pos == self.out.len()
    }
}

/// Per-address token bucket for `Solve` admission.
struct Bucket {
    tokens: f64,
    last: Instant,
}

struct Frontend {
    service: Service,
    opts: ServeOptions,
    tick: Duration,
    reactor: Reactor,
    waker: Waker,
    /// `None` once draining (the listener is closed to stop accepts).
    listener: Option<TcpListener>,
    shutdown: Arc<AtomicBool>,
    stats: Arc<FrontendStats>,
    conns: HashMap<usize, Conn>,
    per_client: HashMap<IpAddr, usize>,
    buckets: HashMap<IpAddr, Bucket>,
    completions: Arc<Mutex<Vec<Completion>>>,
    next_token: usize,
    draining: bool,
    drain_deadline: Option<Instant>,
}

impl Frontend {
    fn new(
        service: Service,
        mut reactor: Reactor,
        listener: TcpListener,
        shutdown: Arc<AtomicBool>,
        opts: ServeOptions,
    ) -> std::io::Result<Frontend> {
        listener.set_nonblocking(true)?;
        reactor.register(
            listener.as_raw_fd(),
            LISTENER,
            Interest::READABLE,
            Mode::Level,
        )?;
        let stats = Arc::new(FrontendStats::default());
        service.attach_frontend_stats(Arc::clone(&stats));
        let waker = reactor.waker();
        Ok(Frontend {
            tick: opts.poll.max(Duration::from_millis(1)),
            service,
            opts,
            waker,
            listener: Some(listener),
            shutdown,
            stats,
            conns: HashMap::new(),
            per_client: HashMap::new(),
            buckets: HashMap::new(),
            completions: Arc::new(Mutex::new(Vec::new())),
            next_token: FIRST_CONN_TOKEN,
            reactor,
            draining: false,
            drain_deadline: None,
        })
    }

    fn run(mut self) -> std::io::Result<()> {
        let mut events: Vec<Event> = Vec::new();
        self.reactor
            .set_timer(saturating_deadline(Instant::now(), self.tick), SWEEP);
        loop {
            self.reactor.poll(&mut events, None)?;
            // Off-thread completions first: their responses unblock queued
            // work and free connections before new events pile on more.
            self.apply_completions();
            for ev in &events {
                match ev.token {
                    LISTENER => self.accept_ready()?,
                    SWEEP => self.sweep(),
                    Token(token) => self.conn_event(token, *ev),
                }
            }
            // Completions that landed while handling events are picked up
            // next iteration — the waker guarantees the poll returns
            // immediately rather than parking.
            if self.draining && self.conns.is_empty() {
                break;
            }
            if let Some(deadline) = self.drain_deadline {
                if Instant::now() >= deadline {
                    let tokens: Vec<usize> = self.conns.keys().copied().collect();
                    for token in tokens {
                        self.drop_conn(token);
                    }
                    break;
                }
            }
        }
        let grace_left = self.drain_deadline.map_or(Duration::ZERO, |d| {
            d.saturating_duration_since(Instant::now())
        });
        self.service.drain(grace_left);
        Ok(())
    }

    // ---- accept path ---------------------------------------------------

    fn accept_ready(&mut self) -> std::io::Result<()> {
        loop {
            let accepted = match self.listener.as_ref() {
                None => return Ok(()), // draining: stray readiness
                Some(listener) => listener.accept(),
            };
            match accepted {
                Ok((stream, peer)) => self.admit_conn(stream, peer),
                Err(e) if e.kind() == IoErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == IoErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    fn admit_conn(&mut self, stream: TcpStream, peer: SocketAddr) {
        let ip = peer.ip();
        if self.conns.len() >= self.opts.max_conns {
            self.stats.shed_total_cap();
            proto::shed_at_accept(stream, "server connection limit reached");
            return;
        }
        if self
            .per_client
            .get(&ip)
            .is_some_and(|&n| n >= self.opts.per_client_conns)
        {
            self.stats.shed_per_client();
            proto::shed_at_accept(stream, "per-client connection limit reached");
            return;
        }
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        // Replies leave in one write each; no Nagle hold on the socket.
        let _ = stream.set_nodelay(true);
        let token = self.next_token;
        self.next_token += 1;
        if self
            .reactor
            .register(
                stream.as_raw_fd(),
                Token(token),
                Interest::READABLE,
                Mode::Level,
            )
            .is_err()
        {
            return;
        }
        self.conns.insert(token, Conn::new(stream, ip));
        *self.per_client.entry(ip).or_insert(0) += 1;
        self.stats.conn_opened();
    }

    // ---- connection events ----------------------------------------------

    fn conn_event(&mut self, token: usize, ev: Event) {
        if ev.writable {
            self.flush(token);
        }
        if ev.readable {
            self.conn_readable(token);
        }
        self.maybe_close(token);
    }

    fn conn_readable(&mut self, token: usize) {
        // Chaos-testing hook: `proto.read=err(...)` fails the read like a
        // torn connection would (the same site the router's reads honor).
        if read_failpoint().is_err() {
            self.drop_conn(token);
            return;
        }
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let mut framed: Vec<Framed> = Vec::new();
        let mut chunk = [0u8; READ_CHUNK];
        let mut budget = READ_BUDGET;
        loop {
            if budget == 0 {
                break; // level-triggered: the rest re-reports next poll
            }
            match conn.stream.read(&mut chunk[..READ_CHUNK.min(budget)]) {
                Ok(0) => {
                    // Peer EOF. An unterminated trailing line still counts
                    // as a line (matching the blocking reader).
                    if conn.discarding {
                        conn.discarding = false;
                        framed.push(Framed::TooLong(take_oversize_id(conn)));
                    } else if !conn.line.is_empty() {
                        framed.push(Framed::Line(std::mem::take(&mut conn.line)));
                    }
                    conn.read_closed = true;
                    break;
                }
                Ok(n) => {
                    budget -= n;
                    frame_chunk(conn, &chunk[..n], &mut framed);
                }
                Err(e) if e.kind() == IoErrorKind::WouldBlock => break,
                Err(e) if e.kind() == IoErrorKind::Interrupted => continue,
                Err(_) => {
                    self.drop_conn(token);
                    return;
                }
            }
        }
        // The slow-loris clock: ticking iff a line is mid-flight. A stall
        // that starts between sweeps arms its own wake-up at the exact
        // reap deadline — with a coarse sweep tick the reap would
        // otherwise slip by up to a whole tick past `read_timeout`.
        if conn.line.is_empty() && !conn.discarding {
            conn.partial_since = None;
        } else if conn.partial_since.is_none() {
            let since = Instant::now();
            conn.partial_since = Some(since);
            self.reactor
                .set_timer(saturating_deadline(since, self.opts.read_timeout), SWEEP);
        }
        for item in framed {
            if !self.conns.contains_key(&token) {
                return; // an earlier line's handling dropped the conn
            }
            match item {
                Framed::TooLong(id) => {
                    let msg = format!("request line exceeds {MAX_LINE_BYTES} bytes");
                    let error = proto::wire_error(ErrorKind::OversizeLine, msg);
                    match id {
                        // A recovered id: answer immediately and id-matched,
                        // like any other out-of-order response — an in-flight
                        // pipelined solve must not be charged with this error.
                        Some(id) => {
                            let line = proto::encode_response_line(Some(&id), &error);
                            self.queue_response(token, &line);
                        }
                        None => self.enqueue_ordered(token, Queued::Respond(Box::new(error))),
                    }
                }
                Framed::Line(raw) => self.handle_line(token, &raw),
            }
        }
    }

    fn handle_line(&mut self, token: usize, raw: &[u8]) {
        let text = String::from_utf8_lossy(raw);
        if text.trim().is_empty() {
            return;
        }
        let DecodedRequest { id, request } = proto::decode_request_line(&text);
        match (id, request) {
            // Unparseable request: the error is matched to its id when one
            // was recoverable, otherwise it joins the ordered stream.
            (id @ Some(_), Err(msg)) => {
                let line = proto::encode_response_line(
                    id.as_ref(),
                    &proto::wire_error(ErrorKind::Parse, msg),
                );
                self.queue_response(token, &line);
            }
            (None, Err(msg)) => {
                self.enqueue_ordered(
                    token,
                    Queued::Respond(Box::new(proto::wire_error(ErrorKind::Parse, msg))),
                );
            }
            // Batches fan out immediately: every query carries its own id
            // (an envelope id would be ambiguous across N responses and is
            // ignored), so responses are out-of-order like any pipelined
            // solve, one per query.
            (_, Ok(WireRequest::SolveBatch(batch))) => self.handle_batch(token, batch),
            // Id-carrying requests dispatch immediately (out-of-order).
            (Some(id), Ok(WireRequest::Metrics)) => {
                let line = proto::encode_response_line(
                    Some(&id),
                    &WireResponse::Metrics(self.service.metrics()),
                );
                self.queue_response(token, &line);
            }
            (Some(id), Ok(WireRequest::Health)) => {
                let response = WireResponse::Health(self.local_health());
                let line = proto::encode_response_line(Some(&id), &response);
                self.queue_response(token, &line);
            }
            // Epoch control-plane requests are synchronous cache/registry
            // operations (no solver pool): evaluated inline, like Metrics.
            (Some(id), Ok(request @ (WireRequest::Register(_) | WireRequest::Epoch(_)))) => {
                let response = proto::dispatch(&self.service, request);
                let line = proto::encode_response_line(Some(&id), &response);
                self.queue_response(token, &line);
            }
            (Some(id), Ok(WireRequest::Solve(solve))) => {
                if let Some(refused) = self.screen_solve(token, &solve) {
                    let line = proto::encode_response_line(Some(&id), &refused);
                    self.queue_response(token, &line);
                    return;
                }
                self.dispatch_solve(token, Some(id), false, solve);
            }
            // Id-less requests keep blocking-server semantics: strictly
            // in order, evaluated only when their turn comes.
            (None, Ok(WireRequest::Solve(solve))) => {
                if let Some(refused) = self.screen_solve(token, &solve) {
                    self.enqueue_ordered(token, Queued::Respond(Box::new(refused)));
                    return;
                }
                self.enqueue_ordered(token, Queued::Request(WireRequest::Solve(solve)));
            }
            (None, Ok(request)) => self.enqueue_ordered(token, Queued::Request(request)),
        }
    }

    /// Fans a `SolveBatch` out to one dispatched solve per query. The
    /// token bucket charges the *batch* (one wire request, one token —
    /// batching is the sanctioned way to amortize); admission, deadlines,
    /// and the degradation ladder then apply per query, and every
    /// response — including refusals — is id-matched to its query.
    fn handle_batch(&mut self, token: usize, batch: SolveBatchRequest) {
        let Some(peer) = self.conns.get(&token).map(|conn| conn.peer) else {
            return;
        };
        if batch.queries.is_empty() {
            self.enqueue_ordered(
                token,
                Queued::Respond(Box::new(proto::wire_error(
                    ErrorKind::Parse,
                    "empty SolveBatch: no queries",
                ))),
            );
            return;
        }
        self.stats.batch(batch.queries.len() as u64);
        let rate_refused = if self.rate_allow(peer) {
            None
        } else {
            self.stats.rate_limited();
            Some(proto::wire_error(
                ErrorKind::RateLimited,
                "per-client request rate exceeded",
            ))
        };
        for query in batch.queries {
            let id = Content::Int(i128::from(query.id));
            let refused =
                rate_refused.clone().or_else(|| {
                    query.instance.validate().err().map(|e| {
                        proto::wire_error(ErrorKind::Parse, format!("invalid instance: {e}"))
                    })
                });
            if let Some(response) = refused {
                let line = proto::encode_response_line(Some(&id), &response);
                self.queue_response(token, &line);
                continue;
            }
            self.dispatch_solve(
                token,
                Some(id),
                false,
                SolveRequest {
                    instance: query.instance,
                    deadline_ms: query.deadline_ms,
                    kernel: query.kernel,
                },
            );
        }
    }

    /// Receipt-time checks shared by both dispatch paths: the per-address
    /// token bucket, then instance validation.
    fn screen_solve(&mut self, token: usize, solve: &SolveRequest) -> Option<WireResponse> {
        let peer = self.conns.get(&token)?.peer;
        if !self.rate_allow(peer) {
            self.stats.rate_limited();
            return Some(proto::wire_error(
                ErrorKind::RateLimited,
                "per-client request rate exceeded",
            ));
        }
        if let Err(e) = solve.instance.validate() {
            return Some(proto::wire_error(
                ErrorKind::Parse,
                format!("invalid instance: {e}"),
            ));
        }
        None
    }

    fn rate_allow(&mut self, ip: IpAddr) -> bool {
        if self.opts.rate_per_sec == 0 {
            return true;
        }
        let rate = self.opts.rate_per_sec as f64;
        let burst = if self.opts.rate_burst == 0 {
            2.0 * rate
        } else {
            self.opts.rate_burst as f64
        };
        let now = Instant::now();
        let bucket = self.buckets.entry(ip).or_insert(Bucket {
            tokens: burst,
            last: now,
        });
        bucket.tokens =
            (bucket.tokens + now.duration_since(bucket.last).as_secs_f64() * rate).min(burst);
        bucket.last = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    fn enqueue_ordered(&mut self, token: usize, item: Queued) {
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.queue.push_back(item);
        }
        self.pump_queue(token);
    }

    /// Advances the connection's in-order stream: answers everything up
    /// to (and excluding) the next `Solve`, then dispatches that solve
    /// and pauses until its completion unblocks the queue.
    fn pump_queue(&mut self, token: usize) {
        loop {
            let item = {
                let Some(conn) = self.conns.get_mut(&token) else {
                    return;
                };
                if conn.ordered_busy {
                    return;
                }
                match conn.queue.pop_front() {
                    Some(item) => item,
                    None => return,
                }
            };
            match item {
                Queued::Respond(response) => {
                    let line = proto::encode_response_line(None, &response);
                    self.queue_response(token, &line);
                }
                Queued::Request(WireRequest::Metrics) => {
                    // Evaluated here, not at receipt: every earlier id-less
                    // request has completed, so the snapshot observes them
                    // exactly as the blocking server's did.
                    let line = proto::encode_response_line(
                        None,
                        &WireResponse::Metrics(self.service.metrics()),
                    );
                    self.queue_response(token, &line);
                }
                Queued::Request(WireRequest::Health) => {
                    let response = WireResponse::Health(self.local_health());
                    let line = proto::encode_response_line(None, &response);
                    self.queue_response(token, &line);
                }
                Queued::Request(WireRequest::Solve(solve)) => {
                    if let Some(conn) = self.conns.get_mut(&token) {
                        conn.ordered_busy = true;
                    }
                    self.dispatch_solve(token, None, true, solve);
                    return;
                }
                Queued::Request(request @ (WireRequest::Register(_) | WireRequest::Epoch(_))) => {
                    // In the ordered stream these wait their turn, so an
                    // id-less client can Solve → Epoch → Solve and observe
                    // the advance exactly between the two answers.
                    let response = proto::dispatch(&self.service, request);
                    let line = proto::encode_response_line(None, &response);
                    self.queue_response(token, &line);
                }
                // Unreachable: batches fan out at receipt (handle_line)
                // and never join the id-less ordered stream.
                Queued::Request(WireRequest::SolveBatch(batch)) => {
                    self.handle_batch(token, batch);
                }
            }
        }
    }

    fn dispatch_solve(
        &mut self,
        token: usize,
        id: Option<Content>,
        ordered: bool,
        solve: SolveRequest,
    ) {
        let depth = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            conn.in_flight += 1;
            conn.in_flight as u64
        };
        self.stats.observe_pipeline_depth(depth);
        let completions = Arc::clone(&self.completions);
        let waker = self.waker.clone();
        self.service.provision_async(
            Request {
                instance: solve.instance,
                deadline: solve.deadline_ms.map(Duration::from_millis),
                kernel: solve.kernel,
            },
            move |out| {
                // Rendering happens on the worker, off the reactor thread.
                let line = proto::encode_response_line(id.as_ref(), &solve_response(out));
                lock_recover(&completions).push(Completion {
                    token,
                    line,
                    ordered,
                });
                waker.wake();
            },
        );
    }

    fn local_health(&self) -> crate::proto::HealthReply {
        self.stats.health_probe();
        health_reply(
            &self.service,
            Some((self.conns.len() as u64, self.opts.max_conns as u64)),
        )
    }

    fn apply_completions(&mut self) {
        let batch = std::mem::take(&mut *lock_recover(&self.completions));
        for done in batch {
            let Some(conn) = self.conns.get_mut(&done.token) else {
                continue; // the connection died while its solve ran
            };
            conn.in_flight -= 1;
            if done.ordered {
                conn.ordered_busy = false;
            }
            self.queue_response(done.token, &done.line);
            if done.ordered {
                self.pump_queue(done.token);
            }
            self.maybe_close(done.token);
        }
    }

    // ---- write path -----------------------------------------------------

    fn queue_response(&mut self, token: usize, line: &str) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        conn.out.extend_from_slice(line.as_bytes());
        conn.out.push(b'\n');
        self.flush(token);
    }

    fn flush(&mut self, token: usize) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        while conn.out_pos < conn.out.len() {
            match conn.stream.write(&conn.out[conn.out_pos..]) {
                Ok(0) => {
                    self.drop_conn(token);
                    return;
                }
                Ok(n) => conn.out_pos += n,
                Err(e) if e.kind() == IoErrorKind::WouldBlock => {
                    if conn.out_pos >= OUT_COMPACT {
                        conn.out.drain(..conn.out_pos);
                        conn.out_pos = 0;
                    }
                    if conn.write_stall_since.is_none() {
                        // Same deal as the read-stall clock: arm a wake-up
                        // at the reap deadline so a coarse sweep tick does
                        // not stretch `write_timeout`.
                        let since = Instant::now();
                        conn.write_stall_since = Some(since);
                        self.reactor
                            .set_timer(saturating_deadline(since, self.opts.write_timeout), SWEEP);
                    }
                    if !conn.wants_write {
                        conn.wants_write = true;
                        let fd = conn.stream.as_raw_fd();
                        if self
                            .reactor
                            .reregister(fd, Token(token), Interest::BOTH, Mode::Level)
                            .is_err()
                        {
                            self.drop_conn(token);
                        }
                    }
                    return;
                }
                Err(e) if e.kind() == IoErrorKind::Interrupted => {}
                Err(_) => {
                    self.drop_conn(token);
                    return;
                }
            }
        }
        conn.out.clear();
        conn.out_pos = 0;
        conn.write_stall_since = None;
        if conn.wants_write {
            conn.wants_write = false;
            let fd = conn.stream.as_raw_fd();
            if self
                .reactor
                .reregister(fd, Token(token), Interest::READABLE, Mode::Level)
                .is_err()
            {
                self.drop_conn(token);
            }
        }
    }

    // ---- lifecycle ------------------------------------------------------

    fn maybe_close(&mut self, token: usize) {
        let Some(conn) = self.conns.get(&token) else {
            return;
        };
        if conn.idle() && (conn.read_closed || self.draining) {
            self.drop_conn(token);
        }
    }

    fn drop_conn(&mut self, token: usize) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.reactor.deregister(conn.stream.as_raw_fd());
            if let Some(n) = self.per_client.get_mut(&conn.peer) {
                *n -= 1;
                if *n == 0 {
                    self.per_client.remove(&conn.peer);
                }
            }
            self.stats.conn_closed();
        }
    }

    /// The housekeeping tick: notices the shutdown flag, enforces the
    /// stall timeouts, prunes cold rate buckets, and re-arms itself.
    fn sweep(&mut self) {
        let now = Instant::now();
        if !self.draining && self.shutdown.load(Ordering::Acquire) {
            self.begin_drain(now);
        }
        let mut read_dead = Vec::new();
        let mut write_dead = Vec::new();
        let mut drain_idle = Vec::new();
        for (&token, conn) in &self.conns {
            if conn
                .partial_since
                .is_some_and(|since| now.duration_since(since) >= self.opts.read_timeout)
            {
                read_dead.push(token);
            } else if conn
                .write_stall_since
                .is_some_and(|since| now.duration_since(since) >= self.opts.write_timeout)
            {
                write_dead.push(token);
            } else if self.draining && conn.idle() {
                drain_idle.push(token);
            }
        }
        for token in read_dead {
            self.stats.read_timeout();
            self.drop_conn(token);
        }
        for token in write_dead {
            self.drop_conn(token);
        }
        for token in drain_idle {
            self.drop_conn(token);
        }
        // Buckets refill to full and then carry no state worth keeping;
        // drop those with no open connection so one-shot clients cannot
        // grow the map unboundedly.
        let burst = if self.opts.rate_burst == 0 {
            2.0 * self.opts.rate_per_sec as f64
        } else {
            self.opts.rate_burst as f64
        };
        let per_client = &self.per_client;
        let rate = self.opts.rate_per_sec as f64;
        self.buckets.retain(|ip, bucket| {
            let refilled =
                (bucket.tokens + now.duration_since(bucket.last).as_secs_f64() * rate).min(burst);
            per_client.contains_key(ip) || refilled < burst
        });
        // Re-arm at the next interesting instant, not a fixed tick out:
        // a surviving stalled connection's reap deadline may land well
        // inside the tick, and sleeping the full tick would stretch its
        // configured timeout by up to a whole sweep period.
        let mut next = saturating_deadline(now, self.tick);
        for conn in self.conns.values() {
            if let Some(since) = conn.partial_since {
                next = next.min(saturating_deadline(since, self.opts.read_timeout));
            }
            if let Some(since) = conn.write_stall_since {
                next = next.min(saturating_deadline(since, self.opts.write_timeout));
            }
        }
        self.reactor.set_timer(next.max(now), SWEEP);
    }

    fn begin_drain(&mut self, now: Instant) {
        self.draining = true;
        self.drain_deadline = Some(saturating_deadline(now, self.opts.grace));
        // Stop accepting: deregister and close the listener so the port
        // frees immediately, then flip the service (new solves shed, in-
        // flight ones degrade to their cheapest rung and finish).
        if let Some(listener) = self.listener.take() {
            let _ = self.reactor.deregister(listener.as_raw_fd());
        }
        self.service.begin_shutdown();
        let idle: Vec<usize> = self
            .conns
            .iter()
            .filter(|(_, conn)| conn.idle())
            .map(|(&token, _)| token)
            .collect();
        for token in idle {
            self.drop_conn(token);
        }
    }
}

/// Feeds one read chunk through the incremental framer, appending
/// complete lines (and oversize markers) to `framed`.
fn frame_chunk(conn: &mut Conn, mut rest: &[u8], framed: &mut Vec<Framed>) {
    while let Some(pos) = rest.iter().position(|&b| b == b'\n') {
        let (head, tail) = rest.split_at(pos);
        rest = &tail[1..];
        if conn.discarding {
            conn.discarding = false;
            framed.push(Framed::TooLong(take_oversize_id(conn)));
        } else if conn.line.len() + head.len() > MAX_LINE_BYTES {
            keep_id_prefix(conn, head);
            framed.push(Framed::TooLong(take_oversize_id(conn)));
        } else {
            conn.line.extend_from_slice(head);
            framed.push(Framed::Line(std::mem::take(&mut conn.line)));
        }
    }
    if !rest.is_empty() && !conn.discarding {
        if conn.line.len() + rest.len() > MAX_LINE_BYTES {
            // Stop buffering: the line already blew the cap; keep only its
            // [`ID_PREFIX`]-byte head (for id recovery) until its newline.
            keep_id_prefix(conn, rest);
            conn.discarding = true;
        } else {
            conn.line.extend_from_slice(rest);
        }
    }
}

/// Truncates `conn.line` to the oversize line's first [`ID_PREFIX`] bytes,
/// topping it up from `next` (the chunk that blew the cap) if the buffered
/// part was shorter than the prefix.
fn keep_id_prefix(conn: &mut Conn, next: &[u8]) {
    if conn.line.len() < ID_PREFIX {
        let want = ID_PREFIX - conn.line.len();
        conn.line.extend_from_slice(&next[..want.min(next.len())]);
    }
    conn.line.truncate(ID_PREFIX);
}

/// Consumes the retained oversize-line prefix, recovering its `"id"`.
fn take_oversize_id(conn: &mut Conn) -> Option<Content> {
    let prefix = std::mem::take(&mut conn.line);
    recover_line_id(&prefix)
}

/// Strictly parses the canonical pipelined-request head `{"id":<int>` out
/// of an oversize line's retained prefix. Only the exact splice the
/// [`proto::encode_request_with_id`]-family encoders emit (optional
/// whitespace, then a leading integer `"id"` member) is recognized —
/// guessing at arbitrary JSON from a truncated prefix risks matching an
/// id the client never sent, and a miss only downgrades the oversize
/// error to the historical bare form.
fn recover_line_id(prefix: &[u8]) -> Option<Content> {
    let mut rest = prefix;
    let skip_ws = |bytes: &mut &[u8]| {
        while let [b' ' | b'\t' | b'\r', tail @ ..] = *bytes {
            *bytes = tail;
        }
    };
    skip_ws(&mut rest);
    rest = rest.strip_prefix(b"{")?;
    skip_ws(&mut rest);
    rest = rest.strip_prefix(b"\"id\"")?;
    skip_ws(&mut rest);
    rest = rest.strip_prefix(b":")?;
    skip_ws(&mut rest);
    let negative = if let Some(tail) = rest.strip_prefix(b"-") {
        rest = tail;
        true
    } else {
        false
    };
    let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
    // The id must end inside the prefix (at a member separator), or a
    // truncated longer number would be misread as a shorter id.
    if digits == 0 || digits == rest.len() {
        return None;
    }
    let text = std::str::from_utf8(&rest[..digits]).ok()?;
    let n: i128 = text.parse().ok()?;
    Some(Content::Int(if negative { -n } else { n }))
}

/// The `proto.read` failpoint as a fallible call site (the macro's `Err`
/// form returns from the enclosing function).
fn read_failpoint() -> std::io::Result<()> {
    krsp_failpoint::fail_point!("proto.read", |msg| Err(std::io::Error::other(msg)));
    Ok(())
}
