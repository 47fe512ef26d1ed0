//! Integration tests for the event-driven NDJSON frontend: pipelined
//! out-of-order responses matched by id, slow-loris isolation and
//! read-timeout enforcement, incremental framing under oversize lines and
//! mid-line disconnects, connection caps, per-address rate limiting, the
//! `Health` probe, the pinned reply bytes of id-less and id'd lines, and
//! (ignored by default) a ≥512-connection scaling smoke with O(workers)
//! server threads.
//!
//! Tests that arm failpoints serialize on [`FP_LOCK`] — the registry is
//! process-global — and clear it on drop, pass or fail.

use krsp::Instance;
use krsp_graph::{DiGraph, NodeId};
use krsp_service::proto::{
    self, BatchQuery, SolveBatchRequest, SolveRequest, WireRequest, WireResponse,
};
use krsp_service::{
    serve_with_shutdown, ErrorKind, HealthStatus, ServeOptions, Service, ServiceConfig,
};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

static FP_LOCK: Mutex<()> = Mutex::new(());

struct FpGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Drop for FpGuard {
    fn drop(&mut self) {
        krsp_failpoint::clear();
    }
}

fn fp_lock() -> FpGuard {
    FpGuard(FP_LOCK.lock().unwrap_or_else(|e| e.into_inner()))
}

/// A small feasible 2-path instance; `cost_scale` perturbs the weights so
/// distinct scales produce distinct cache keys.
fn instance(cost_scale: i64) -> Instance {
    let g = DiGraph::from_edges(
        4,
        &[
            (0, 1, cost_scale, 5),
            (1, 3, cost_scale, 5),
            (0, 2, 4 * cost_scale, 1),
            (2, 3, 4 * cost_scale, 1),
        ],
    );
    Instance::new(g, NodeId(0), NodeId(3), 2, 20).expect("test instance is well-formed")
}

fn solve_line(inst: &Instance) -> String {
    serde_json::to_string(&WireRequest::Solve(SolveRequest {
        instance: inst.clone(),
        deadline_ms: None,
        kernel: None,
    }))
    .expect("request serializes")
}

struct TestServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl TestServer {
    fn start(cfg: ServiceConfig, opts: ServeOptions) -> TestServer {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener
            .local_addr()
            .expect("bound listener has an address");
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let handle = std::thread::spawn(move || {
            let service = Service::new(cfg);
            serve_with_shutdown(&service, listener, flag, opts)
        });
        TestServer {
            addr,
            shutdown,
            handle: Some(handle),
        }
    }

    fn connect(&self) -> BufReader<TcpStream> {
        BufReader::new(TcpStream::connect(self.addr).expect("connect to test server"))
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let joined = handle.join().expect("server thread must not panic");
            joined.expect("server exits cleanly");
        }
    }
}

fn send_line(conn: &mut BufReader<TcpStream>, line: &str) {
    let s = conn.get_mut();
    s.write_all(line.as_bytes()).expect("write request");
    s.write_all(b"\n").expect("write newline");
}

fn read_reply(conn: &mut BufReader<TcpStream>) -> String {
    let mut reply = String::new();
    let n = conn.read_line(&mut reply).expect("read reply");
    assert!(n > 0, "server closed the connection unexpectedly");
    reply.trim().to_string()
}

fn quick_opts() -> ServeOptions {
    ServeOptions {
        poll: Duration::from_millis(20),
        grace: Duration::from_secs(5),
        ..ServeOptions::default()
    }
}

#[test]
fn pipelined_responses_come_back_out_of_order_and_id_matched() {
    let _fp = fp_lock();
    let server = TestServer::start(
        ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
        quick_opts(),
    );
    let mut conn = server.connect();

    // Warm the cache with instance B so its pipelined solve is a fast hit.
    send_line(&mut conn, &solve_line(&instance(2)));
    let warm = read_reply(&mut conn);
    let (warm_id, warm_resp) = proto::decode_response_line(&warm).expect("warm reply parses");
    assert_eq!(warm_id, None, "id-less request must get an id-less reply");
    let warm_cost = match warm_resp {
        WireResponse::Solved(r) => r.cost,
        other => panic!("warmup did not solve: {other:?}"),
    };

    // Slow every fresh solve, then pipeline: id 1 = a cache miss (slow),
    // id 2 = the warmed instance (fast hit). The hit must overtake.
    krsp_failpoint::cfg("service.solve", "delay(200)").expect("arm failpoint");
    let batch = format!(
        "{}\n{}\n",
        proto::encode_request_with_id(
            1,
            &WireRequest::Solve(SolveRequest {
                instance: instance(1),
                deadline_ms: None,
                kernel: None,
            })
        ),
        proto::encode_request_with_id(
            2,
            &WireRequest::Solve(SolveRequest {
                instance: instance(2),
                deadline_ms: None,
                kernel: None,
            })
        ),
    );
    conn.get_mut()
        .write_all(batch.as_bytes())
        .expect("write pipelined batch");

    let first = proto::decode_response_line(&read_reply(&mut conn)).expect("first reply parses");
    let second = proto::decode_response_line(&read_reply(&mut conn)).expect("second reply parses");
    assert_eq!(first.0, Some(2), "the cache hit must complete first");
    assert_eq!(second.0, Some(1), "the delayed miss completes second");
    match (first.1, second.1) {
        (WireResponse::Solved(hit), WireResponse::Solved(miss)) => {
            assert!(hit.cache_hit, "id 2 was warmed and must hit the cache");
            assert_eq!(hit.cost, warm_cost, "same instance, same answer");
            assert!(!miss.cache_hit);
        }
        other => panic!("expected two Solved replies, got {other:?}"),
    }
}

#[test]
fn idless_pipelining_keeps_order_and_historical_wire_format() {
    let server = TestServer::start(
        ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
        quick_opts(),
    );
    let mut conn = server.connect();

    // Three id-less lines at once: two solves and a metrics probe. The
    // replies must come back in submission order, the metrics snapshot
    // must already count both solves (evaluated at its queue turn, not at
    // receipt), and no reply may grow an "id" member.
    let batch = format!(
        "{}\n{}\n\"Metrics\"\n",
        solve_line(&instance(1)),
        solve_line(&instance(3))
    );
    conn.get_mut()
        .write_all(batch.as_bytes())
        .expect("write batch");

    let first = read_reply(&mut conn);
    let second = read_reply(&mut conn);
    let third = read_reply(&mut conn);
    assert!(
        first.starts_with("{\"Solved\"") && second.starts_with("{\"Solved\""),
        "id-less replies keep the historical byte format: {first} / {second}"
    );
    let metrics = match serde_json::from_str::<WireResponse>(&third) {
        Ok(WireResponse::Metrics(m)) => m,
        other => panic!("third reply must be Metrics: {other:?}"),
    };
    assert_eq!(
        metrics.completed, 2,
        "a queued Metrics observes every id-less solve before it"
    );
}

#[test]
fn slow_loris_is_isolated_and_reaped_by_the_read_timeout() {
    let opts = ServeOptions {
        read_timeout: Duration::from_millis(250),
        ..quick_opts()
    };
    let server = TestServer::start(ServiceConfig::default(), opts);

    // The loris: half a request line, then silence.
    let mut loris = server.connect();
    loris
        .get_mut()
        .write_all(b"{\"Solve\": {\"inst")
        .expect("write partial line");

    // A well-behaved client on another connection is not blocked.
    let mut good = server.connect();
    let started = Instant::now();
    send_line(&mut good, &solve_line(&instance(1)));
    let reply = read_reply(&mut good);
    assert!(
        reply.starts_with("{\"Solved\""),
        "healthy connection must be served during the loris stall: {reply}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "healthy reply took {:?}",
        started.elapsed()
    );

    // The loris connection is dropped once its mid-line stall exceeds the
    // read timeout.
    loris
        .get_mut()
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set client read timeout");
    let mut buf = [0u8; 16];
    let n = loris.get_mut().read(&mut buf).expect("loris read");
    assert_eq!(n, 0, "server must close the timed-out loris connection");

    send_line(&mut good, "\"Metrics\"");
    let metrics = match serde_json::from_str::<WireResponse>(&read_reply(&mut good)) {
        Ok(WireResponse::Metrics(m)) => m,
        other => panic!("expected Metrics: {other:?}"),
    };
    assert!(
        metrics.frontend.read_timeouts >= 1,
        "the reap must be counted: {:?}",
        metrics.frontend
    );
}

#[test]
fn oversize_lines_and_midline_disconnects_leave_the_server_healthy() {
    let server = TestServer::start(ServiceConfig::default(), quick_opts());

    // A connection that dies mid-line (unterminated junk, then drop).
    {
        let mut dying = server.connect();
        dying
            .get_mut()
            .write_all(b"{\"Solve\": {\"trunca")
            .expect("write partial");
    }

    // An oversize line: the framer must discard it without buffering,
    // answer one oversize error, and keep the connection usable. The
    // follow-up request is pipelined behind it with an id to prove the
    // stream recovers into id-matched service.
    let mut conn = server.connect();
    let junk = vec![b'x'; proto::MAX_LINE_BYTES + 1024];
    conn.get_mut()
        .write_all(&junk)
        .expect("write oversize line");
    let follow_up = format!(
        "\n{}\n",
        proto::encode_request_with_id(
            9,
            &WireRequest::Solve(SolveRequest {
                instance: instance(1),
                deadline_ms: None,
                kernel: None,
            })
        )
    );
    conn.get_mut()
        .write_all(follow_up.as_bytes())
        .expect("write follow-up");

    let first = read_reply(&mut conn);
    match serde_json::from_str::<WireResponse>(&first) {
        Ok(WireResponse::Error(e)) => assert_eq!(e.kind, ErrorKind::OversizeLine),
        other => panic!("expected an oversize error, got {other:?}"),
    }
    let (id, resp) = proto::decode_response_line(&read_reply(&mut conn)).expect("reply parses");
    assert_eq!(id, Some(9), "the stream recovers into id-matched replies");
    assert!(matches!(resp, WireResponse::Solved(_)));
}

#[test]
fn connection_caps_shed_at_accept_and_health_reports_state() {
    let opts = ServeOptions {
        max_conns: 2,
        ..quick_opts()
    };
    let server = TestServer::start(ServiceConfig::default(), opts);

    let mut first = server.connect();
    send_line(&mut first, "\"Health\"");
    let health = match serde_json::from_str::<WireResponse>(&read_reply(&mut first)) {
        Ok(WireResponse::Health(h)) => h,
        other => panic!("expected Health: {other:?}"),
    };
    assert_eq!(health.status, HealthStatus::Ready);
    assert!(health.conns_open >= 1);
    assert!(health.workers >= 1);

    let _second = server.connect();
    // Give the reactor a beat to register both before the over-cap accept.
    std::thread::sleep(Duration::from_millis(100));
    let mut third = server.connect();
    let shed = read_reply(&mut third);
    match serde_json::from_str::<WireResponse>(&shed) {
        Ok(WireResponse::Error(e)) => assert_eq!(e.kind, ErrorKind::Shed),
        other => panic!("over-cap accept must shed, got {other:?}"),
    }
    let mut buf = [0u8; 8];
    let n = third.get_mut().read(&mut buf).expect("read after shed");
    assert_eq!(n, 0, "shed connections are closed after the error line");

    send_line(&mut first, "\"Metrics\"");
    let metrics = match serde_json::from_str::<WireResponse>(&read_reply(&mut first)) {
        Ok(WireResponse::Metrics(m)) => m,
        other => panic!("expected Metrics: {other:?}"),
    };
    assert!(metrics.frontend.shed_total_cap >= 1);
    assert!(metrics.frontend.conns_peak >= 2);
}

#[test]
fn per_address_rate_limit_rejects_excess_solves() {
    let opts = ServeOptions {
        rate_per_sec: 1,
        rate_burst: 1,
        ..quick_opts()
    };
    let server = TestServer::start(ServiceConfig::default(), opts);
    let mut conn = server.connect();

    let batch = (1..=3)
        .map(|id| {
            proto::encode_request_with_id(
                id,
                &WireRequest::Solve(SolveRequest {
                    instance: instance(1),
                    deadline_ms: None,
                    kernel: None,
                }),
            ) + "\n"
        })
        .collect::<String>();
    conn.get_mut()
        .write_all(batch.as_bytes())
        .expect("write burst");

    let mut solved = 0;
    let mut limited = 0;
    for _ in 0..3 {
        let (_, resp) = proto::decode_response_line(&read_reply(&mut conn)).expect("reply parses");
        match resp {
            WireResponse::Solved(_) => solved += 1,
            WireResponse::Error(e) if e.kind == ErrorKind::RateLimited => limited += 1,
            other => panic!("unexpected reply under rate limit: {other:?}"),
        }
    }
    assert_eq!(solved, 1, "burst capacity 1 admits exactly one solve");
    assert_eq!(limited, 2, "the rest are rate-limited, connection stays up");

    send_line(&mut conn, "\"Health\"");
    let health = match serde_json::from_str::<WireResponse>(&read_reply(&mut conn)) {
        Ok(WireResponse::Health(h)) => h,
        other => panic!("expected Health: {other:?}"),
    };
    assert_eq!(health.status, HealthStatus::Ready);
}

/// Counts this process's live threads via /proc (Linux-only; returns 0
/// elsewhere so the assertion is skipped rather than wrong).
fn thread_count() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Threads:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|n| n.parse().ok())
        })
        .unwrap_or(0)
}

/// ≥512 concurrent connections served with O(workers) threads and zero
/// dropped responses. Ignored by default (hundreds of sockets); run via
/// `cargo test --release -- --ignored scaling` or scripts/ci.sh.
#[test]
#[ignore = "scaling smoke: hundreds of sockets; run via scripts/ci.sh"]
fn scaling_smoke_512_connections_bounded_threads() {
    const CONNS: usize = 512;
    let opts = ServeOptions {
        max_conns: CONNS + 64,
        per_client_conns: CONNS + 64,
        ..quick_opts()
    };
    let server = TestServer::start(
        ServiceConfig {
            workers: 2,
            // Every connection's solve is admitted at once; the queue must
            // hold them all or admission control (correctly) sheds.
            queue_capacity: CONNS,
            ..ServiceConfig::default()
        },
        opts,
    );

    let before = thread_count();
    let mut conns: Vec<BufReader<TcpStream>> = (0..CONNS).map(|_| server.connect()).collect();

    // One id-tagged solve per connection, all written before any read.
    for (i, conn) in conns.iter_mut().enumerate() {
        let line = proto::encode_request_with_id(
            i as u64,
            &WireRequest::Solve(SolveRequest {
                instance: instance(1 + (i % 3) as i64),
                deadline_ms: None,
                kernel: None,
            }),
        );
        send_line(conn, &line);
    }

    let during = thread_count();
    if before > 0 && during > 0 {
        assert!(
            during.saturating_sub(before) <= 8,
            "{CONNS} connections must not grow threads: {before} -> {during}"
        );
    }

    let mut answered = 0;
    for (i, conn) in conns.iter_mut().enumerate() {
        let (id, resp) = proto::decode_response_line(&read_reply(conn)).expect("reply parses");
        assert_eq!(id, Some(i as u64), "replies are id-matched per connection");
        match resp {
            WireResponse::Solved(_) => answered += 1,
            other => panic!("connection {i} got {other:?}"),
        }
    }
    assert_eq!(answered, CONNS, "zero dropped responses at {CONNS} conns");
}

/// Regression (ISSUE 7): an oversize line that triggers discard-to-newline
/// while id'd requests are in flight must answer with an *id-matched*
/// structured error. The old framer dropped the line's head before the id
/// could be read and emitted a bare ordered error, which a pipelined
/// client charges to the wrong request.
#[test]
fn oversize_error_is_id_matched_while_solves_are_in_flight() {
    let _fp = fp_lock();
    // Hold the in-flight solve long enough that the oversize error must
    // overtake it — proving the error is answered out-of-order by id, not
    // spliced into the ordered stream ahead of the solve's response.
    krsp_failpoint::cfg("service.solve", "delay(300)").expect("arm service.solve");
    let server = TestServer::start(
        ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
        quick_opts(),
    );
    let mut conn = server.connect();

    send_line(
        &mut conn,
        &proto::encode_request_with_id(
            1,
            &WireRequest::Solve(SolveRequest {
                instance: instance(1),
                deadline_ms: None,
                kernel: None,
            }),
        ),
    );
    // An id-carrying line that blows the cap: the canonical client splice
    // (`{"id":7,...`) followed by enough padding to cross MAX_LINE_BYTES.
    let mut oversize = String::from("{\"id\":7,\"Solve\":\"");
    oversize.push_str(&"x".repeat(proto::MAX_LINE_BYTES + 1024));
    send_line(&mut conn, &oversize);

    let first = proto::decode_response_line(&read_reply(&mut conn)).expect("first reply parses");
    match first {
        (Some(7), WireResponse::Error(e)) => assert_eq!(e.kind, ErrorKind::OversizeLine),
        other => panic!("expected the id-matched oversize error first, got {other:?}"),
    }
    let second = proto::decode_response_line(&read_reply(&mut conn)).expect("second reply parses");
    assert_eq!(second.0, Some(1), "the delayed solve keeps its own id");
    assert!(matches!(second.1, WireResponse::Solved(_)));
}

/// `SolveBatch` round-trip through the reactor frontend: one request line,
/// one id-matched response per query, mixed outcomes kept per-query, and
/// the batch counters visible in `Metrics`.
#[test]
fn solve_batch_round_trips_with_per_query_responses() {
    let _fp = fp_lock();
    let server = TestServer::start(
        ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
        quick_opts(),
    );
    let mut conn = server.connect();

    // d = 3 is below the instance's best achievable total delay (12):
    // query 12 must come back `Rejected` without touching its siblings.
    let tight = {
        let feasible = instance(3);
        Instance::new(
            feasible.graph.clone(),
            feasible.s,
            feasible.t,
            feasible.k,
            3,
        )
        .expect("tight instance is well-formed")
    };
    let batch = WireRequest::SolveBatch(SolveBatchRequest {
        queries: vec![
            BatchQuery {
                id: 10,
                instance: instance(1),
                deadline_ms: None,
                kernel: None,
            },
            BatchQuery {
                id: 11,
                instance: instance(2),
                deadline_ms: Some(5000),
                kernel: None,
            },
            BatchQuery {
                id: 12,
                instance: tight,
                deadline_ms: None,
                kernel: None,
            },
        ],
    });
    send_line(
        &mut conn,
        &serde_json::to_string(&batch).expect("batch serializes"),
    );

    let mut outcomes = std::collections::HashMap::new();
    for _ in 0..3 {
        let (id, resp) = proto::decode_response_line(&read_reply(&mut conn)).expect("reply parses");
        outcomes.insert(id.expect("every batch response carries its query id"), resp);
    }
    assert!(
        matches!(outcomes.get(&10), Some(WireResponse::Solved(r)) if r.delay <= 20),
        "query 10: {:?}",
        outcomes.get(&10)
    );
    assert!(
        matches!(outcomes.get(&11), Some(WireResponse::Solved(_))),
        "query 11: {:?}",
        outcomes.get(&11)
    );
    assert!(
        matches!(outcomes.get(&12), Some(WireResponse::Rejected(_))),
        "query 12: {:?}",
        outcomes.get(&12)
    );

    // An empty batch is a parse error, not silence.
    send_line(&mut conn, "{\"SolveBatch\":{\"queries\":[]}}");
    match serde_json::from_str::<WireResponse>(&read_reply(&mut conn)) {
        Ok(WireResponse::Error(e)) => assert_eq!(e.kind, ErrorKind::Parse),
        other => panic!("expected a parse error for an empty batch, got {other:?}"),
    }

    send_line(&mut conn, "\"Metrics\"");
    match serde_json::from_str::<WireResponse>(&read_reply(&mut conn)) {
        Ok(WireResponse::Metrics(m)) => {
            assert_eq!(m.frontend.batches, 1, "one SolveBatch line served");
            assert_eq!(m.frontend.batch_queries, 3);
            assert_eq!(m.completed + m.infeasible, 3, "metrics: {m:?}");
        }
        other => panic!("expected Metrics, got {other:?}"),
    }
}

#[test]
fn reap_latency_is_bounded_by_the_timeout_not_the_sweep_tick() {
    // A deliberately coarse sweep tick (2 s) with a tight read timeout
    // (50 ms): the stall-transition wake-up must reap the loris near its
    // deadline instead of letting it linger until the next fixed tick.
    let opts = ServeOptions {
        poll: Duration::from_secs(2),
        read_timeout: Duration::from_millis(50),
        grace: Duration::from_secs(5),
        ..ServeOptions::default()
    };
    let server = TestServer::start(ServiceConfig::default(), opts);

    let mut loris = server.connect();
    loris
        .get_mut()
        .write_all(b"{\"Solve\": {\"inst")
        .expect("write partial line");
    let stalled_at = Instant::now();
    loris
        .get_mut()
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set client read timeout");
    let mut buf = [0u8; 16];
    let n = loris.get_mut().read(&mut buf).expect("loris read");
    let reaped_after = stalled_at.elapsed();
    assert_eq!(n, 0, "server must close the timed-out loris connection");
    assert!(
        reaped_after < Duration::from_secs(1),
        "reap took {reaped_after:?} — the sweep slept a full tick past the 50 ms timeout"
    );
}

#[test]
fn register_and_epoch_requests_are_served_by_the_frontend() {
    let server = TestServer::start(
        ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
        quick_opts(),
    );
    let mut conn = server.connect();
    let inst = instance(1);

    // Id-less requests travel the ordered stream: Register → Solve →
    // Epoch → Solve observes the advance exactly between the solves.
    let register = serde_json::to_string(&WireRequest::Register(krsp_service::RegisterRequest {
        graph: inst.graph.clone(),
    }))
    .expect("register serializes");
    send_line(&mut conn, &register);
    let reply = read_reply(&mut conn);
    let topo = match serde_json::from_str::<WireResponse>(&reply) {
        Ok(WireResponse::Registered(r)) => {
            assert_eq!(r.epoch, 0);
            r.topo
        }
        other => panic!("expected Registered, got {other:?}"),
    };

    send_line(&mut conn, &solve_line(&inst));
    assert!(read_reply(&mut conn).starts_with("{\"Solved\""));

    let advance = serde_json::to_string(&WireRequest::Epoch(krsp_service::EpochRequest {
        topo,
        changes: vec![krsp_service::WireChange {
            edge: 0,
            cost: 1,
            delay: 5,
        }],
    }))
    .expect("epoch serializes");
    send_line(&mut conn, &advance);
    match serde_json::from_str::<WireResponse>(&read_reply(&mut conn)) {
        Ok(WireResponse::Epoch(e)) => {
            assert_eq!(e.epoch, 1);
            assert_eq!(e.retained + e.evicted, 1, "the solve's entry is tracked");
        }
        other => panic!("expected Epoch, got {other:?}"),
    }

    send_line(&mut conn, &solve_line(&inst));
    assert!(read_reply(&mut conn).starts_with("{\"Solved\""));
}

/// Replaces the value of every `"name":<digits>` member with `_`, for
/// members that carry a timing.
fn mask(line: &str, name: &str) -> String {
    let key = format!("\"{name}\":");
    let mut out = String::new();
    let mut rest = line;
    while let Some(at) = rest.find(&key) {
        let (head, tail) = rest.split_at(at + key.len());
        out.push_str(head);
        out.push('_');
        rest = tail.trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

/// The top-level member names of the object under `tag` in `line`.
fn member_names(line: &str, tag: &str) -> Vec<String> {
    let content = serde_json::parse_value(line).expect("reply is JSON");
    match content.field(tag).expect("tagged reply") {
        serde::Content::Map(entries) => entries.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("{tag} payload is not a map: {other:?}"),
    }
}

/// The reactor's reply bytes, pinned: an id-less request gets the
/// historical line and an id'd one the same line with `"id"` first — for
/// `Solve`, `Metrics`, `Health` and `Error` replies.
#[test]
fn reply_bytes_are_pinned_for_idless_and_id_lines() {
    let _fp = fp_lock();
    let server = TestServer::start(
        ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
        quick_opts(),
    );
    let mut conn = server.connect();
    let with_id = |id: u64, line: &str| format!("{{\"id\":{id},{}", &line[1..]);
    let mut ask = |line: &str| {
        send_line(&mut conn, line);
        read_reply(&mut conn)
    };

    let solve = solve_line(&instance(1));
    let solved = r#""Solved":{"cost":10,"delay":12,"edges":[0,1,2,3],"rung":"Full","guarantee":{"cost_factor":2,"delay_factor":1},"kernel":"classic","cache_hit":CACHE_HIT,"coalesced":false,"latency_us":_,"deadline_missed":false}}"#;
    assert_eq!(
        mask(&ask(&solve), "latency_us"),
        format!("{{{}", solved.replace("CACHE_HIT", "false"))
    );
    assert_eq!(
        mask(&ask(&with_id(7, &solve)), "latency_us"),
        format!("{{\"id\":7,{}", solved.replace("CACHE_HIT", "true"))
    );

    let error = r#""Error":{"kind":"parse","message":"bad request: unknown variant `Bogus` of WireRequest"}}"#;
    assert_eq!(ask("{\"Bogus\":1}"), format!("{{{error}"));
    assert_eq!(ask("{\"id\":9,\"Bogus\":1}"), format!("{{\"id\":9,{error}"));

    // `Health` and `Metrics` are bare strings: they cannot carry an id,
    // and a map-shaped attempt is an id-matched parse error.
    assert_eq!(
        ask("\"Health\""),
        format!(
            "{}{}{}",
            r#"{"Health":{"status":"ready","width":"#,
            krsp::solver_width(),
            r#","workers":2,"in_flight":0,"queue_limit":66,"conns_open":1,"cache_hits":1,"cache_misses":1,"cache_evictions":0,"kernel":"classic","kernels":[{"rung":"Full","kernel":"classic"},{"rung":"SingleProbe","kernel":"classic"},{"rung":"LpRounding","kernel":"classic"},{"rung":"MinDelay","kernel":"classic"}]}}"#
        )
    );
    assert_eq!(
        ask("{\"id\":3,\"Health\":null}"),
        r#"{"id":3,"Error":{"kind":"parse","message":"bad request: unknown variant `Health` of WireRequest"}}"#
    );
    // The metrics payload carries timings; pin its head and member order.
    let metrics = ask("\"Metrics\"");
    let head = r#"{"Metrics":{"admitted":2,"rejected_queue_full":0,"rejected_expired":0,"completed":2,"infeasible":0,"cache_hits":1,"cache_misses":1,"cache_evictions":0,"cache_invalidations":0,"disk_hits":0,"disk_misses":0,"disk_recovered":0,"disk_dropped":0,"warm_starts":0,"epoch_advances":0,"epoch_retained":0,"epoch_evicted":0,"epoch":0,"coalesced":0,"per_shard":["#;
    assert!(metrics.starts_with(head), "{metrics}");
    assert_eq!(
        member_names(&metrics, "Metrics"),
        [
            "admitted",
            "rejected_queue_full",
            "rejected_expired",
            "completed",
            "infeasible",
            "cache_hits",
            "cache_misses",
            "cache_evictions",
            "cache_invalidations",
            "disk_hits",
            "disk_misses",
            "disk_recovered",
            "disk_dropped",
            "warm_starts",
            "epoch_advances",
            "epoch_retained",
            "epoch_evicted",
            "epoch",
            "coalesced",
            "per_shard",
            "deadline_missed",
            "per_rung",
            "solver_panics",
            "quarantined",
            "rejected_shutdown",
            "latency",
            "frontend",
        ]
    );
    assert_eq!(
        ask("{\"id\":4,\"Metrics\":null}"),
        r#"{"id":4,"Error":{"kind":"parse","message":"bad request: unknown variant `Metrics` of WireRequest"}}"#
    );
}
