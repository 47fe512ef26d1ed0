//! Closed-loop load generator: replays `krsp-gen` workloads against an
//! in-process [`Service`] at a target arrival rate.
//!
//! Each request is assigned a scheduled start time on a fixed-rate arrival
//! clock (`i / qps`); client threads pick requests off a shared index,
//! sleep until their slot, and issue them. Latencies are recorded exactly
//! (client-side, every sample kept), so the reported percentiles are true
//! order statistics rather than histogram reconstructions. The report is
//! serializable — `krsp-load` prints it as JSON for committing under
//! `results/`.
//!
//! [`run_remote`] and [`run_rolling`] replay over the NDJSON wire protocol
//! against a running `krsp-cli serve` (or `route`) through one client
//! engine: a window of requests in flight on one connection, replies
//! matched by id, and on a connection death a reconnect with jittered
//! exponential backoff that reissues the whole window, so a restarting or
//! briefly absent server does not fail the replay. Window depth 1 is the
//! classic one-at-a-time client; `--pipeline N` widens the window to N
//! ids; `--batch N` frames each window of N queries as one `SolveBatch`
//! line.

use crate::degrade::Rung;
use crate::metrics::MetricsSnapshot;
use crate::proto::{self, ErrorKind, SolveRequest, WireRequest, WireResponse};
use crate::service::{Rejection, Request, Service};
use crate::sync_util::lock_recover;
use krsp_gen::{Family, Regime, Workload};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What to replay.
#[derive(Clone, Debug)]
pub struct LoadSpec {
    /// Total requests to issue.
    pub requests: usize,
    /// Target arrival rate in requests/second; 0 = open throttle.
    pub qps: f64,
    /// Number of distinct instances cycled round-robin (1 = pure cache-hit
    /// traffic after warmup; `requests` = pure miss traffic).
    pub unique: usize,
    /// Client threads issuing requests.
    pub clients: usize,
    /// Topology family for the generated instances.
    pub family: Family,
    /// Node count per instance.
    pub n: usize,
    /// Disjoint paths per request.
    pub k: usize,
    /// Delay-budget tightness ∈ (0, 1].
    pub tightness: f64,
    /// Base PRNG seed; instance `u` uses `seed + 1000·u`.
    pub seed: u64,
    /// Per-request deadline in milliseconds; `None` uses the service
    /// default.
    pub deadline_ms: Option<u64>,
    /// Requests kept in flight per connection in remote replays. `0`/`1`
    /// is the classic one-at-a-time round trip; `N > 1` pipelines with
    /// per-request ids and matches responses out of order. Ignored by
    /// in-process replays (clients are the concurrency there).
    pub pipeline: usize,
    /// Queries grouped into each `SolveBatch` wire request in remote
    /// replays. `0`/`1` sends classic one-query `Solve` lines; `N > 1`
    /// sends one batch line per `N` claimed requests and matches the
    /// per-query responses by id. Mutually exclusive with `pipeline > 1`;
    /// ignored by in-process replays.
    pub batch: usize,
    /// RSP-kernel override stamped on every issued request; `None` leaves
    /// the server's configured kernel ladder in charge.
    pub kernel: Option<krsp::KernelKind>,
}

impl Default for LoadSpec {
    fn default() -> Self {
        LoadSpec {
            requests: 200,
            qps: 0.0,
            unique: 20,
            clients: 4,
            family: Family::Gnm,
            n: 60,
            k: 2,
            tightness: 0.5,
            seed: 42,
            deadline_ms: None,
            pipeline: 1,
            batch: 1,
            kernel: None,
        }
    }
}

/// Exact latency statistics (µs) over one outcome class.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Sample count.
    pub count: u64,
    /// Median.
    pub p50_us: u64,
    /// 95th percentile.
    pub p95_us: u64,
    /// 99th percentile.
    pub p99_us: u64,
    /// Mean.
    pub mean_us: f64,
    /// Maximum.
    pub max_us: u64,
}

/// Exact 1-based quantile rank: `ceil(q · count)` clamped to
/// `[1, count]`, computed without going through `f64` multiplication.
/// `(q * count as f64).ceil()` misrounds once `count` exceeds f64's
/// 53-bit mantissa (`count as f64` itself rounds, so e.g. `q = 1.0`
/// could yield a rank below `count` and select the wrong order
/// statistic); instead take `q` in 2⁻³² fixed point — exact for the
/// conversion — and compute `ceil(q_fp · count / 2³²)` in u128. The
/// same rank the metrics histogram uses (`metrics::LatencyHistogram`).
fn quantile_rank(q: f64, count: u64) -> u64 {
    const FP: u128 = 1 << 32;
    let q_fp = (q.clamp(0.0, 1.0) * FP as f64).round() as u128;
    let rank = (q_fp * u128::from(count)).div_ceil(FP);
    u64::try_from(rank.min(u128::from(count)))
        .expect("rank is clamped to count")
        .max(1)
}

impl LatencySummary {
    fn from_samples(mut samples: Vec<u64>) -> Self {
        // Empty replays (every request rejected) must report zeros, not a
        // 0/0 = NaN mean — NaN is not valid JSON and corrupts the report.
        if samples.is_empty() {
            return LatencySummary::default();
        }
        samples.sort_unstable();
        let pick = |q: f64| {
            let rank = quantile_rank(q, samples.len() as u64) as usize;
            samples[rank - 1]
        };
        LatencySummary {
            count: samples.len() as u64,
            p50_us: pick(0.50),
            p95_us: pick(0.95),
            p99_us: pick(0.99),
            mean_us: samples.iter().sum::<u64>() as f64 / samples.len() as f64,
            max_us: *samples.last().expect("nonempty"),
        }
    }
}

/// One ladder rung's advertised guarantee plus its fresh-solve count in a
/// replay.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct RungGuarantee {
    /// Rung name (`full`, `single_probe`, `lp_rounding`, `min_delay`).
    pub rung: String,
    /// Fresh solves served at this rung.
    pub requests: u64,
    /// Advertised cost factor vs the LP lower bound; `None` = uncertified.
    pub cost_factor: Option<u32>,
    /// Advertised delay-bound relaxation factor.
    pub delay_factor: u32,
}

/// The replay outcome, serializable for `results/`.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct LoadReport {
    /// Requests issued.
    pub issued: u64,
    /// Requests answered with a solution.
    pub completed: u64,
    /// Requests rejected by backpressure.
    pub rejected_queue_full: u64,
    /// Requests rejected by strict deadline enforcement.
    pub rejected_expired: u64,
    /// Requests that proved infeasible.
    pub infeasible: u64,
    /// Answers that arrived past their deadline.
    pub deadline_missed: u64,
    /// Answers served from the cache.
    pub cache_hits: u64,
    /// Answers that piggybacked on a concurrent identical request's solve
    /// (singleflight followers).
    pub coalesced: u64,
    /// Structured error replies: contained solver panics, quarantined
    /// keys, and (remote replay) transport failures that exhausted their
    /// retry budget.
    pub wire_errors: u64,
    /// Reconnect-and-reissue attempts after transport errors (remote
    /// replay only; 0 in-process).
    pub transport_retries: u64,
    /// Requests kept in flight per connection (1 = sequential round
    /// trips). Latencies are measured **per id** — send of a request to
    /// receipt of the response carrying its id — so pipelined numbers are
    /// true per-request latencies, not batch times.
    pub pipeline_depth: u64,
    /// Queries per `SolveBatch` wire request (1 = plain `Solve` lines).
    /// Latencies are per query — send of the batch line to receipt of the
    /// response carrying that query's id.
    pub batch_size: u64,
    /// Responses that arrived before an earlier-submitted request's
    /// response on the same connection (pipelined replays only).
    pub out_of_order_replies: u64,
    /// Deepest observed reordering: the most earlier-submitted requests
    /// still unanswered when a response arrived.
    pub reorder_depth_max: u64,
    /// Wall-clock duration of the replay in seconds.
    pub wall_s: f64,
    /// Achieved throughput (completed / wall).
    pub achieved_qps: f64,
    /// Fresh solves per rung (`[full, single_probe, lp_rounding,
    /// min_delay]`).
    pub per_rung: [u64; 4],
    /// The advertised approximation guarantee of every ladder rung,
    /// alongside how many fresh solves it served — so the report records
    /// which factor bound each answer carries.
    pub rung_guarantees: Vec<RungGuarantee>,
    /// Latency over all answered requests.
    pub latency: LatencySummary,
    /// Latency over cache hits only.
    pub latency_cache_hit: LatencySummary,
    /// Latency over cache misses only.
    pub latency_cache_miss: LatencySummary,
    /// Latency over all answered requests measured from each request's
    /// **last** transmission — the (re)issue that was actually answered —
    /// rather than its first. [`LoadReport::latency`] spans every failed
    /// attempt and the reconnect backoff between them (the caller's
    /// view); this distribution excludes them (the replica's view).
    /// The two are identical when no transport retries occurred.
    pub latency_last_send: LatencySummary,
    /// The service's own counters after the run.
    pub service_metrics: MetricsSnapshot,
}

#[derive(Default)]
struct Tally {
    completed: u64,
    rejected_queue_full: u64,
    rejected_expired: u64,
    infeasible: u64,
    deadline_missed: u64,
    cache_hits: u64,
    coalesced: u64,
    wire_errors: u64,
    out_of_order: u64,
    reorder_depth_max: u64,
    per_rung: [u64; 4],
    hit_latencies: Vec<u64>,
    miss_latencies: Vec<u64>,
    last_send_latencies: Vec<u64>,
}

impl Tally {
    fn record_solved(
        &mut self,
        rung: Rung,
        cache_hit: bool,
        coalesced: bool,
        deadline_missed: bool,
        latency_us: u64,
        latency_last_us: u64,
    ) {
        self.completed += 1;
        self.per_rung[rung.index()] += u64::from(!cache_hit && !coalesced);
        self.deadline_missed += u64::from(deadline_missed);
        self.cache_hits += u64::from(cache_hit);
        self.coalesced += u64::from(coalesced);
        if cache_hit {
            self.hit_latencies.push(latency_us);
        } else {
            self.miss_latencies.push(latency_us);
        }
        self.last_send_latencies.push(latency_last_us);
    }

    /// Classifies one wire reply (or its absence) into the tally.
    fn record(&mut self, reply: Reply) {
        if reply.overtaken > 0 {
            self.out_of_order += 1;
            self.reorder_depth_max = self.reorder_depth_max.max(reply.overtaken);
        }
        match reply.response {
            Some(WireResponse::Solved(r)) => self.record_solved(
                r.rung,
                r.cache_hit,
                r.coalesced,
                r.deadline_missed,
                reply.first_us,
                reply.last_us,
            ),
            Some(WireResponse::Rejected(_)) => self.infeasible += 1,
            Some(WireResponse::Error(e)) => match e.kind {
                ErrorKind::Shed => self.rejected_queue_full += 1,
                ErrorKind::Timeout => self.rejected_expired += 1,
                _ => self.wire_errors += 1,
            },
            // Transport failure past the retry budget, or a reply that did
            // not parse (including an unexpected `Metrics` payload).
            _ => self.wire_errors += 1,
        }
    }
}

/// Builds the distinct instance pool for `spec`. Public so callers can
/// pre-validate a spec before replaying it.
#[must_use]
pub fn build_pool(spec: &LoadSpec) -> Vec<krsp::Instance> {
    (0..spec.unique.max(1))
        .filter_map(|u| {
            let w = Workload {
                family: spec.family,
                n: spec.n,
                m: spec.n * 4,
                regime: Regime::Anticorrelated,
                k: spec.k,
                tightness: spec.tightness,
                seed: spec.seed.wrapping_add(1000 * u as u64),
            };
            krsp_gen::instantiate_with_retries(w, 50)
        })
        .collect()
}

/// Replays `spec` against `service` and reports.
///
/// # Panics
/// Panics when no feasible instance can be generated from the spec.
#[must_use]
pub fn run(service: &Service, spec: &LoadSpec) -> LoadReport {
    let pool = build_pool(spec);
    assert!(
        !pool.is_empty(),
        "load spec generated no feasible instances"
    );

    let next = AtomicUsize::new(0);
    let tally = Mutex::new(Tally::default());
    let start = Instant::now();
    let interval = (spec.qps > 0.0).then(|| Duration::from_secs_f64(1.0 / spec.qps));

    std::thread::scope(|s| {
        for _ in 0..spec.clients.max(1) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= spec.requests {
                    break;
                }
                pace(start, interval, i);
                let out = service.provision(Request {
                    instance: pool[i % pool.len()].clone(),
                    deadline: spec.deadline_ms.map(Duration::from_millis),
                    kernel: spec.kernel,
                });
                let mut t = lock_recover(&tally);
                match out {
                    Ok(r) => {
                        let us = r.latency.as_micros().min(u128::from(u64::MAX)) as u64;
                        // In-process there is no transport, so the first
                        // and last send coincide.
                        t.record_solved(
                            r.rung,
                            r.cache_hit,
                            r.coalesced,
                            r.deadline_missed,
                            us,
                            us,
                        );
                    }
                    Err(Rejection::QueueFull) => t.rejected_queue_full += 1,
                    Err(Rejection::DeadlineExpired) => t.rejected_expired += 1,
                    Err(Rejection::Infeasible | Rejection::ShuttingDown) => t.infeasible += 1,
                    Err(Rejection::SolverPanic(_) | Rejection::Quarantined) => t.wire_errors += 1,
                }
            });
        }
    });

    let wall = start.elapsed();
    let t = tally.into_inner().unwrap_or_else(|e| e.into_inner());
    build_report(spec.requests as u64, wall, t, 0, 1, 1, service.metrics())
}

fn build_report(
    issued: u64,
    wall: Duration,
    t: Tally,
    transport_retries: u64,
    pipeline_depth: u64,
    batch_size: u64,
    service_metrics: MetricsSnapshot,
) -> LoadReport {
    let all: Vec<u64> = t
        .hit_latencies
        .iter()
        .chain(t.miss_latencies.iter())
        .copied()
        .collect();
    LoadReport {
        issued,
        completed: t.completed,
        rejected_queue_full: t.rejected_queue_full,
        rejected_expired: t.rejected_expired,
        infeasible: t.infeasible,
        deadline_missed: t.deadline_missed,
        cache_hits: t.cache_hits,
        coalesced: t.coalesced,
        wire_errors: t.wire_errors,
        transport_retries,
        pipeline_depth,
        batch_size,
        out_of_order_replies: t.out_of_order,
        reorder_depth_max: t.reorder_depth_max,
        wall_s: wall.as_secs_f64(),
        achieved_qps: if wall.as_secs_f64() > 0.0 {
            t.completed as f64 / wall.as_secs_f64()
        } else {
            0.0
        },
        per_rung: t.per_rung,
        rung_guarantees: Rung::LADDER
            .iter()
            .map(|&rg| {
                let g = rg.guarantee();
                RungGuarantee {
                    rung: rg.to_string(),
                    requests: t.per_rung[rg.index()],
                    cost_factor: g.cost_factor,
                    delay_factor: g.delay_factor,
                }
            })
            .collect(),
        latency: LatencySummary::from_samples(all),
        latency_cache_hit: LatencySummary::from_samples(t.hit_latencies),
        latency_cache_miss: LatencySummary::from_samples(t.miss_latencies),
        latency_last_send: LatencySummary::from_samples(t.last_send_latencies),
        service_metrics,
    }
}

/// Where and how [`run_remote`] replays over the wire.
#[derive(Clone, Debug)]
pub struct RemoteSpec {
    /// Server address (`host:port`), or a comma-separated list of
    /// addresses. With a list, clients spread their initial connections
    /// across the targets and rotate to the next one on each reconnect,
    /// so a replay keeps going while any listed replica answers.
    pub addr: String,
    /// Reconnect-and-reissue attempts per request after a transport
    /// error, with jittered exponential backoff between attempts.
    pub retries: u32,
}

impl RemoteSpec {
    /// The individual target addresses in [`RemoteSpec::addr`]. Never
    /// empty: a list with no usable entries falls back to the raw string
    /// so the connection error surfaces where it is acted on.
    #[must_use]
    pub fn addrs(&self) -> Vec<&str> {
        let list: Vec<&str> = self
            .addr
            .split(',')
            .map(str::trim)
            .filter(|a| !a.is_empty())
            .collect();
        if list.is_empty() {
            vec![self.addr.as_str()]
        } else {
            list
        }
    }
}

/// Deterministic jittered exponential backoff: base 10 ms doubling per
/// attempt, capped at 500 ms, with the top half of the window jittered by
/// an LCG step so concurrent clients do not reconnect in lockstep.
fn backoff_delay(attempt: u32, salt: u64) -> Duration {
    let cap = 10u64.saturating_mul(1 << attempt.min(6)).min(500);
    let j = salt
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407)
        >> 33;
    Duration::from_millis(cap / 2 + j % (cap / 2 + 1))
}

/// Sleeps until request `i`'s slot on the fixed-rate arrival clock.
fn pace(start: Instant, interval: Option<Duration>, i: usize) {
    if let Some(step) = interval {
        let slot = start + step * i as u32;
        let now = Instant::now();
        if slot > now {
            std::thread::sleep(slot - now);
        }
    }
}

fn micros(since: Instant) -> u64 {
    since.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
}

/// The bare metrics request. Bare strings cannot carry an id, so it only
/// goes out on an empty window ([`Engine::call`]).
const METRICS_LINE: &str = "\"Metrics\"";

/// How the engine puts its window on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Framing {
    /// One id-less line per request: the classic one-at-a-time client.
    Plain,
    /// One line per request with its id spliced in first (`--pipeline`).
    Ids,
    /// One `SolveBatch` line per window, the ids inside its queries
    /// (`--batch`).
    Batch,
}

/// Renders `(id, id-less request line)` jobs as the writes that put them
/// on the wire, one `String` per write, each a whole line including its
/// `\n`. Only `Solve` lines may be batched.
fn frame<'a>(framing: Framing, jobs: impl Iterator<Item = (u64, &'a str)>) -> Vec<String> {
    match framing {
        Framing::Plain => jobs.map(|(_, line)| format!("{line}\n")).collect(),
        Framing::Ids => jobs
            .map(|(id, line)| match line.strip_prefix('{') {
                Some(rest) => format!("{{\"id\":{id},{rest}\n"),
                None => format!("{line}\n"),
            })
            .collect(),
        Framing::Batch => {
            let queries: Vec<String> = jobs
                .map(|(id, line)| {
                    // `{"Solve":{"instance":…}}` → `{"id":7,"instance":…}`.
                    let payload = line
                        .strip_prefix("{\"Solve\":{")
                        .and_then(|rest| rest.strip_suffix('}'))
                        .expect("batch framing carries only Solve lines");
                    format!("{{\"id\":{id},{payload}")
                })
                .collect();
            if queries.is_empty() {
                Vec::new()
            } else {
                vec![format!(
                    "{{\"SolveBatch\":{{\"queries\":[{}]}}}}\n",
                    queries.join(",")
                )]
            }
        }
    }
}

/// A request in the engine's window.
struct Pending<'a> {
    id: u64,
    /// The id-less request line, kept for reissue after a connection death.
    line: &'a str,
    /// When it entered the window: first-send latency spans reconnects and
    /// backoff (the caller's view).
    first_send: Instant,
    /// When it was last written: last-send latency covers only the attempt
    /// that was answered (the replica's view).
    last_send: Instant,
    /// Whether it is on the current connection.
    sent: bool,
}

impl Pending<'_> {
    fn reply(&self, response: Option<WireResponse>, overtaken: usize) -> Reply {
        Reply {
            response,
            first_us: micros(self.first_send),
            last_us: micros(self.last_send),
            overtaken: overtaken as u64,
        }
    }
}

/// What the engine hands back per request.
struct Reply {
    /// The response; `None` when the retry budget ran out or the reply
    /// did not parse.
    response: Option<WireResponse>,
    /// Microseconds since the request entered the window.
    first_us: u64,
    /// Microseconds since its last (re)issue.
    last_us: u64,
    /// Earlier-sent requests still unanswered when this reply arrived.
    overtaken: u64,
}

/// Writes the window's unsent requests, each line in one write, and
/// stamps their last send.
fn write_unsent(
    framing: Framing,
    window: &mut VecDeque<Pending<'_>>,
    out: &mut impl Write,
) -> std::io::Result<()> {
    let now = Instant::now();
    let unsent = window.iter().filter(|p| !p.sent).map(|p| (p.id, p.line));
    for write in frame(framing, unsent) {
        out.write_all(write.as_bytes())?;
    }
    for p in window.iter_mut().filter(|p| !p.sent) {
        p.sent = true;
        p.last_send = now;
    }
    Ok(())
}

/// The wire client behind every remote replay: one connection keeping up
/// to `depth` requests in flight, replies matched by id. A connection
/// death rotates to the next target, backs off with seeded jitter, and
/// reissues everything outstanding (the protocol is stateless per line,
/// so a reissue is safe); a window that exhausts the retry budget is
/// handed back unanswered.
struct Engine {
    addrs: Vec<String>,
    target: usize,
    retries: u32,
    salt: u64,
    framing: Framing,
    /// Requests in flight at most.
    depth: usize,
    conn: Option<BufReader<TcpStream>>,
    /// Reconnect-and-reissue attempts made so far.
    retries_made: u64,
}

impl Engine {
    /// `pipeline` ids in flight, or one `SolveBatch` line of `batch`
    /// queries; both at 1 is the classic one-at-a-time client. A list of
    /// targets is entered at a salt-determined one, so concurrent clients
    /// spread across replicas.
    fn new(remote: &RemoteSpec, salt: u64, pipeline: usize, batch: usize) -> Engine {
        let addrs: Vec<String> = remote.addrs().into_iter().map(str::to_string).collect();
        let (framing, depth) = if batch > 1 {
            (Framing::Batch, batch)
        } else if pipeline > 1 {
            (Framing::Ids, pipeline)
        } else {
            (Framing::Plain, 1)
        };
        Engine {
            target: salt as usize % addrs.len(),
            addrs,
            retries: remote.retries,
            salt,
            framing,
            depth,
            conn: None,
            retries_made: 0,
        }
    }

    /// Sends every request `next` yields and hands each one's reply to
    /// `on_reply`; returns once `next` runs dry and the window is empty.
    fn drive<'a>(
        &mut self,
        mut next: impl FnMut() -> Option<(u64, &'a str)>,
        mut on_reply: impl FnMut(Reply),
    ) {
        let mut window: VecDeque<Pending<'a>> = VecDeque::new();
        let mut exhausted = false;
        let mut attempt = 0u32;
        loop {
            let mut ok = true;
            // A batch window refills only once fully answered, so each
            // window is one `SolveBatch` line.
            let refill = self.framing != Framing::Batch || window.is_empty();
            while refill && ok && !exhausted && window.len() < self.depth {
                let Some((id, line)) = next() else {
                    exhausted = true;
                    break;
                };
                let now = Instant::now();
                window.push_back(Pending {
                    id,
                    line,
                    first_send: now,
                    last_send: now,
                    sent: false,
                });
                // Lines depart as they are claimed, so a paced replay
                // keeps its schedule; a batch departs whole.
                if self.framing != Framing::Batch {
                    ok = self.send(&mut window).is_ok();
                }
            }
            if window.is_empty() {
                return;
            }
            if ok && self.send(&mut window).is_ok() && self.receive(&mut window, &mut on_reply) {
                attempt = 0;
                continue;
            }
            // The connection died or never came up: rotate, then reissue
            // the window after a backoff, or hand it back unanswered once
            // the retry budget is spent.
            self.conn = None;
            self.target = (self.target + 1) % self.addrs.len();
            for p in &mut window {
                p.sent = false;
            }
            if attempt >= self.retries {
                for p in window.drain(..) {
                    on_reply(p.reply(None, 0));
                }
                attempt = 0;
            } else {
                self.retries_made += 1;
                self.salt = self.salt.wrapping_add(0x9e37_79b9_7f4a_7c15);
                std::thread::sleep(backoff_delay(attempt, self.salt));
                attempt += 1;
            }
        }
    }

    /// Connects if needed and writes the window's unsent requests.
    fn send(&mut self, window: &mut VecDeque<Pending<'_>>) -> std::io::Result<()> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(&self.addrs[self.target])?;
            stream.set_nodelay(true)?;
            self.conn = Some(BufReader::new(stream));
        }
        let conn = self.conn.as_mut().expect("connected above");
        write_unsent(self.framing, window, conn.get_mut())
    }

    /// Reads one reply and hands it back with the request it answers: the
    /// one whose id it echoes, else (an id-less line, an unknown id, a
    /// line that does not parse) the oldest in the window. `false` when
    /// the connection died.
    fn receive(
        &mut self,
        window: &mut VecDeque<Pending<'_>>,
        on_reply: &mut impl FnMut(Reply),
    ) -> bool {
        let conn = self.conn.as_mut().expect("send connected");
        let mut line = String::new();
        if !matches!(conn.read_line(&mut line), Ok(n) if n > 0) {
            return false;
        }
        let decoded = proto::decode_response_line(line.trim()).ok();
        let at = match &decoded {
            Some((Some(id), _)) => window.iter().position(|p| p.id == *id),
            _ => None,
        }
        .unwrap_or(0);
        let pending = window.remove(at).expect("the window is not empty");
        on_reply(pending.reply(decoded.map(|(_, r)| r), at));
        true
    }

    /// One request on an empty window: the only way a bare `"Metrics"`
    /// line goes out. `None` when no parseable reply came back.
    fn call(&mut self, line: &str) -> Option<WireResponse> {
        let mut job = Some((0, line));
        let mut response = None;
        self.drive(|| job.take(), |reply| response = reply.response);
        response
    }

    /// The server's metrics snapshot; the default (all-zero) snapshot
    /// when the server cannot answer.
    fn metrics(&mut self) -> MetricsSnapshot {
        match self.call(METRICS_LINE) {
            Some(WireResponse::Metrics(m)) => m,
            _ => MetricsSnapshot::default(),
        }
    }
}

/// The id-less `Solve` line for each pool instance.
fn solve_lines(pool: &[krsp::Instance], spec: &LoadSpec) -> std::io::Result<Vec<String>> {
    pool.iter()
        .map(|inst| {
            serde_json::to_string(&WireRequest::Solve(SolveRequest {
                instance: inst.clone(),
                deadline_ms: spec.deadline_ms,
                kernel: spec.kernel,
            }))
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
        })
        .collect()
}

/// Replays `spec` over the NDJSON wire protocol against the server (or
/// comma-separated servers) at `remote.addr`, one connection per client
/// thread, each driven by the window engine. With multiple targets,
/// clients spread their initial connections across the list and rotate to
/// the next target on each reconnect.
///
/// Transport errors reconnect and reissue with backoff; a request that
/// exhausts its retry budget is tallied under `wire_errors` rather than
/// failing the replay. Answered requests contribute to two latency
/// distributions: [`LoadReport::latency`] from the first send (spans
/// retries and backoff) and [`LoadReport::latency_last_send`] from the
/// answered attempt's send. The final metrics snapshot is fetched over a
/// fresh connection (left at its default if the server is already gone).
///
/// [`LoadSpec::pipeline`] > 1 keeps that many ids in flight per
/// connection and matches the responses in completion order; the report
/// then carries the observed reordering (`out_of_order_replies`,
/// `reorder_depth_max`). [`LoadSpec::batch`] > 1 sends each window of that
/// many queries as one `SolveBatch` line instead, once the window is
/// claimed (under [`LoadSpec::qps`] pacing, when its last query is due);
/// per-query latency runs from the query's claim to the response carrying
/// its id.
///
/// # Errors
/// Returns an error when a request line cannot be serialized or when
/// `pipeline` and `batch` are both above 1 (they prescribe conflicting
/// framings for the same connection) — transport failures are absorbed
/// into the report instead.
///
/// # Panics
/// Panics when no feasible instance can be generated from the spec.
pub fn run_remote(spec: &LoadSpec, remote: &RemoteSpec) -> std::io::Result<LoadReport> {
    let pool = build_pool(spec);
    assert!(
        !pool.is_empty(),
        "load spec generated no feasible instances"
    );
    let lines = solve_lines(&pool, spec)?;
    let depth = spec.pipeline.max(1);
    let batch = spec.batch.max(1);
    if depth > 1 && batch > 1 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "pipeline and batch are mutually exclusive",
        ));
    }

    let next = AtomicUsize::new(0);
    let tally = Mutex::new(Tally::default());
    let start = Instant::now();
    let interval = (spec.qps > 0.0).then(|| Duration::from_secs_f64(1.0 / spec.qps));
    let client_retries: u64 = std::thread::scope(|s| {
        let clients: Vec<_> = (0..spec.clients.max(1))
            .map(|c| {
                let (next, tally, lines) = (&next, &tally, &lines);
                s.spawn(move || {
                    let mut engine = Engine::new(remote, spec.seed ^ (c as u64 + 1), depth, batch);
                    let claim = || {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        (i < spec.requests).then(|| {
                            pace(start, interval, i);
                            (i as u64, lines[i % lines.len()].as_str())
                        })
                    };
                    engine.drive(claim, |reply| lock_recover(tally).record(reply));
                    engine.retries_made
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("load client thread"))
            .sum()
    });

    let wall = start.elapsed();
    let t = tally.into_inner().unwrap_or_else(|e| e.into_inner());
    let mut fetch = Engine::new(remote, spec.seed, 1, 1);
    let service_metrics = fetch.metrics();
    Ok(build_report(
        spec.requests as u64,
        wall,
        t,
        client_retries + fetch.retries_made,
        depth as u64,
        batch as u64,
        service_metrics,
    ))
}

/// Shape of a rolling-update replay: windows of repeat traffic separated
/// by epoch advances that ramp a few edge costs, exercising the
/// epoch-aware cache (retention + warm starts) instead of the cold path a
/// plain replay with mutated weights would take.
#[derive(Clone, Debug)]
pub struct RollingSpec {
    /// Replay windows. The first runs against the freshly registered
    /// lineages at epoch 0; each later window runs after one epoch
    /// advance per lineage.
    pub windows: usize,
    /// Edges whose cost is ramped in each advance (per lineage).
    pub ramp_edges: usize,
    /// Cost scale numerator: each picked edge's cost becomes
    /// `ceil(cost · num / den)`. `num ≥ den` keeps the delta
    /// non-decreasing, which is what lets untouched entries survive.
    pub ramp_num: i64,
    /// Cost scale denominator.
    pub ramp_den: i64,
}

impl Default for RollingSpec {
    fn default() -> Self {
        RollingSpec {
            windows: 3,
            ramp_edges: 1,
            ramp_num: 11,
            ramp_den: 10,
        }
    }
}

/// One window of a rolling replay: its traffic outcome plus what the
/// epoch advance that *preceded* it did to the cache (zeros for the
/// first window — nothing precedes it).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct WindowReport {
    /// Window index (0-based).
    pub window: u64,
    /// Requests issued in this window.
    pub issued: u64,
    /// Requests answered with a solution.
    pub completed: u64,
    /// Answers served from the cache (memory or disk tier).
    pub cache_hits: u64,
    /// Structured error replies and exhausted-retry transport failures.
    pub wire_errors: u64,
    /// Warm-started fresh solves during this window (server-side counter
    /// delta across the window).
    pub warm_starts: u64,
    /// Disk-tier hits during this window (server-side counter delta).
    pub disk_hits: u64,
    /// Cached entries the preceding advance rekeyed into the new epoch.
    pub advance_retained: u64,
    /// Cached entries the preceding advance evicted.
    pub advance_evicted: u64,
    /// Warm-start seeds the preceding advance left waiting.
    pub advance_seeds: u64,
    /// Latency over all answered requests in this window.
    pub latency: LatencySummary,
    /// Latency over this window's cache hits only.
    pub latency_cache_hit: LatencySummary,
    /// Latency over this window's cache misses only.
    pub latency_cache_miss: LatencySummary,
}

/// The outcome of a rolling-update replay, serializable for `results/`.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct RollingReport {
    /// Topology lineages registered (one per distinct instance).
    pub lineages: u64,
    /// Replay windows in order.
    pub windows: Vec<WindowReport>,
    /// Reconnect-and-reissue attempts across the whole replay.
    pub transport_retries: u64,
    /// The server's counters after the final window.
    pub service_metrics: MetricsSnapshot,
}

/// Replays a rolling-update scenario over the wire: registers every pool
/// instance's topology as a lineage, then alternates traffic windows with
/// epoch advances whose cost ramps are mirrored onto the client-side
/// instances (so each window's requests match the lineage's *current*
/// weights and land in the epoch-scoped cache lane rather than missing
/// into canonical keys). Every request, registrations and advances
/// included, goes through one classic (depth-1) window engine.
///
/// Each window's report carries both client-side outcomes (completion,
/// hits, exact latency order statistics) and server-side counter deltas
/// (`warm_starts`, `disk_hits`) captured from metrics snapshots bracketing
/// the window, plus what the preceding advance retained/evicted/seeded.
///
/// # Errors
/// Returns an error when registration or an advance gets no reply or the
/// wrong one, when a request line cannot be serialized, or when a ramped
/// instance no longer validates — transport failures *during* a window
/// are absorbed into that window's `wire_errors` instead.
///
/// # Panics
/// Panics when no feasible instance can be generated from the spec.
pub fn run_rolling(
    spec: &LoadSpec,
    rolling: &RollingSpec,
    remote: &RemoteSpec,
) -> std::io::Result<RollingReport> {
    let invalid = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
    let mut pool = build_pool(spec);
    assert!(
        !pool.is_empty(),
        "load spec generated no feasible instances"
    );

    let mut engine = Engine::new(remote, spec.seed, 1, 1);
    let call = |engine: &mut Engine, request: &WireRequest| {
        let line = serde_json::to_string(request).map_err(|e| invalid(e.to_string()))?;
        engine
            .call(&line)
            .ok_or_else(|| invalid(format!("no reply to {line:.40}…")))
    };

    // Register every instance's topology; the handle (a hex structural
    // digest) names the lineage in later Epoch advances.
    let mut topos: Vec<String> = Vec::with_capacity(pool.len());
    for inst in &pool {
        let register = WireRequest::Register(proto::RegisterRequest {
            graph: inst.graph.clone(),
        });
        match call(&mut engine, &register)? {
            WireResponse::Registered(r) => topos.push(r.topo),
            other => {
                return Err(invalid(format!(
                    "registration got a non-Registered reply: {other:?}"
                )))
            }
        }
    }

    let mut windows = Vec::with_capacity(rolling.windows.max(1));
    let mut last_metrics = MetricsSnapshot::default();
    for w in 0..rolling.windows.max(1) {
        // Between windows: one epoch advance per lineage, mirrored onto
        // the client-side instance so its weights keep matching.
        let (mut retained, mut evicted, mut seeds) = (0u64, 0u64, 0u64);
        if w > 0 {
            for (i, inst) in pool.iter_mut().enumerate() {
                let changes = krsp_gen::cost_ramp(
                    &inst.graph,
                    rolling.ramp_edges,
                    rolling.ramp_num,
                    rolling.ramp_den,
                    spec.seed
                        .wrapping_add(7919 * w as u64)
                        .wrapping_add(i as u64),
                );
                let advance = WireRequest::Epoch(proto::EpochRequest {
                    topo: topos[i].clone(),
                    changes: changes
                        .iter()
                        .map(|c| proto::WireChange {
                            edge: c.edge.0,
                            cost: c.cost,
                            delay: c.delay,
                        })
                        .collect(),
                });
                match call(&mut engine, &advance)? {
                    WireResponse::Epoch(r) => {
                        retained += r.retained;
                        evicted += r.evicted;
                        seeds += r.seeds;
                    }
                    other => {
                        return Err(invalid(format!(
                            "epoch advance got a non-Epoch reply: {other:?}"
                        )))
                    }
                }
                let graph = krsp_gen::apply_changes(&inst.graph, &changes);
                *inst = krsp::Instance::new(graph, inst.s, inst.t, inst.k, inst.delay_bound)
                    .map_err(|e| invalid(format!("ramped instance no longer validates: {e}")))?;
            }
        }

        let lines = solve_lines(&pool, spec)?;
        let before = engine.metrics();
        let mut t = Tally::default();
        let mut jobs = (0..spec.requests).map(|i| (i as u64, lines[i % lines.len()].as_str()));
        engine.drive(|| jobs.next(), |reply| t.record(reply));
        let after = engine.metrics();

        let all: Vec<u64> = t
            .hit_latencies
            .iter()
            .chain(t.miss_latencies.iter())
            .copied()
            .collect();
        windows.push(WindowReport {
            window: w as u64,
            issued: spec.requests as u64,
            completed: t.completed,
            cache_hits: t.cache_hits,
            wire_errors: t.wire_errors,
            warm_starts: after.warm_starts.saturating_sub(before.warm_starts),
            disk_hits: after.disk_hits.saturating_sub(before.disk_hits),
            advance_retained: retained,
            advance_evicted: evicted,
            advance_seeds: seeds,
            latency: LatencySummary::from_samples(all),
            latency_cache_hit: LatencySummary::from_samples(t.hit_latencies),
            latency_cache_miss: LatencySummary::from_samples(t.miss_latencies),
        });
        last_metrics = after;
    }

    Ok(RollingReport {
        lineages: pool.len() as u64,
        windows,
        transport_retries: engine.retries_made,
        service_metrics: last_metrics,
    })
}

/// Formats a human-readable one-screen summary of a rolling replay: one
/// line per window.
#[must_use]
pub fn render_rolling(report: &RollingReport) -> String {
    let mut out = format!("lineages {}  windows:", report.lineages);
    for w in &report.windows {
        out.push_str(&format!(
            "\n  w{}: completed {}/{}  hits {}  warm {}  disk {}  \
             advance(retained/evicted/seeds) {}/{}/{}  p50 {} µs (hit {} | miss {})",
            w.window,
            w.completed,
            w.issued,
            w.cache_hits,
            w.warm_starts,
            w.disk_hits,
            w.advance_retained,
            w.advance_evicted,
            w.advance_seeds,
            w.latency.p50_us,
            w.latency_cache_hit.p50_us,
            w.latency_cache_miss.p50_us,
        ));
    }
    out
}

/// Formats a human-readable one-screen summary of a report.
#[must_use]
pub fn render(report: &LoadReport) -> String {
    let r = report;
    let rung_line = Rung::LADDER
        .iter()
        .map(|rg| format!("{rg}={}{}", r.per_rung[rg.index()], rg.guarantee()))
        .collect::<Vec<_>>()
        .join(" ");
    let pipeline_line = if r.pipeline_depth > 1 {
        format!(
            "\npipeline: depth {}  out-of-order {}  (max reorder depth {})",
            r.pipeline_depth, r.out_of_order_replies, r.reorder_depth_max
        )
    } else if r.batch_size > 1 {
        format!(
            "\nbatch: size {}  out-of-order {}  (max reorder depth {})",
            r.batch_size, r.out_of_order_replies, r.reorder_depth_max
        )
    } else {
        String::new()
    };
    let retry_line = if r.transport_retries > 0 {
        format!(
            "\nlast-send µs: p50 {}  p99 {}  max {}  (excludes reconnect backoff)",
            r.latency_last_send.p50_us, r.latency_last_send.p99_us, r.latency_last_send.max_us
        )
    } else {
        String::new()
    };
    format!(
        "issued {}  completed {}  rejected(queue/deadline) {}/{}  infeasible {}  errors {}  retries {}\n\
         wall {:.3}s  throughput {:.1} req/s  deadline-missed {}\n\
         latency µs: p50 {}  p95 {}  p99 {}  mean {:.0}  max {}{retry_line}\n\
         cache: hits {}  coalesced {}  (hit p50 {} µs | miss p50 {} µs)\n\
         rungs: {rung_line}{pipeline_line}",
        r.issued,
        r.completed,
        r.rejected_queue_full,
        r.rejected_expired,
        r.infeasible,
        r.wire_errors,
        r.transport_retries,
        r.wall_s,
        r.achieved_qps,
        r.deadline_missed,
        r.latency.p50_us,
        r.latency.p95_us,
        r.latency.p99_us,
        r.latency.mean_us,
        r.latency.max_us,
        r.cache_hits,
        r.coalesced,
        r.latency_cache_hit.p50_us,
        r.latency_cache_miss.p50_us,
    )
}

#[cfg(test)]
// Tests may unwrap: a panic is exactly the failure report we want there.
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use std::sync::Arc;

    #[test]
    fn replay_reaches_the_cache() {
        let svc = Service::new(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        let spec = LoadSpec {
            requests: 24,
            unique: 3,
            clients: 2,
            n: 24,
            ..LoadSpec::default()
        };
        let report = run(&svc, &spec);
        assert_eq!(report.issued, 24);
        assert_eq!(
            report.completed + report.infeasible + report.rejected_queue_full,
            24
        );
        assert!(report.cache_hits > 0, "no cache hits in cycled replay");
        assert!(report.latency.count >= report.cache_hits);
        let text = serde_json::to_string(&report).unwrap();
        let back: LoadReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back.completed, report.completed);
        assert!(!render(&report).is_empty());
    }

    /// The exact lines the engine writes, one write per line with its
    /// `\n`, in all three framings — and the canonical encoders agree.
    #[test]
    fn window_engine_writes_golden_lines() {
        let g = krsp_graph::DiGraph::from_edges(2, &[(0, 1, 3, 4)]);
        let inst =
            krsp::Instance::new(g, krsp_graph::NodeId(0), krsp_graph::NodeId(1), 1, 9).unwrap();
        let solve = SolveRequest {
            instance: inst,
            deadline_ms: Some(250),
            kernel: None,
        };
        let line = serde_json::to_string(&WireRequest::Solve(solve.clone())).unwrap();
        let payload = concat!(
            r#""instance":{"graph":{"n":2,"edges":[{"src":0,"dst":1,"cost":3,"delay":4}]},"#,
            r#""s":0,"t":1,"k":1,"delay_bound":9},"deadline_ms":250}"#
        );
        assert_eq!(line, format!("{{\"Solve\":{{{payload}}}"));

        let writes = |framing: Framing| {
            let mut window: VecDeque<Pending> = [7u64, 8]
                .into_iter()
                .map(|id| Pending {
                    id,
                    line: &line,
                    first_send: Instant::now(),
                    last_send: Instant::now(),
                    sent: id == 8 && framing == Framing::Plain,
                })
                .collect();
            let mut out = Writes(Vec::new());
            write_unsent(framing, &mut window, &mut out).unwrap();
            assert!(
                window.iter().all(|p| p.sent),
                "{framing:?} left a request unsent"
            );
            // A second flush has nothing left to write.
            write_unsent(framing, &mut window, &mut out).unwrap();
            out.0
        };
        // Depth 1 writes the historical id-less line (the second request
        // is already on the wire, so only the first goes out).
        assert_eq!(writes(Framing::Plain), vec![format!("{line}\n")]);
        assert_eq!(
            writes(Framing::Ids),
            vec![
                format!("{{\"id\":7,\"Solve\":{{{payload}}}\n"),
                format!("{{\"id\":8,\"Solve\":{{{payload}}}\n"),
            ]
        );
        assert_eq!(
            writes(Framing::Batch),
            vec![format!(
                "{{\"SolveBatch\":{{\"queries\":[{{\"id\":7,{payload},{{\"id\":8,{payload}]}}}}\n"
            )]
        );

        let request = WireRequest::Solve(solve.clone());
        assert_eq!(
            writes(Framing::Ids)[0],
            format!("{}\n", proto::encode_request_with_id(7, &request))
        );
        let batch = WireRequest::SolveBatch(proto::SolveBatchRequest {
            queries: [7, 8]
                .into_iter()
                .map(|id| proto::BatchQuery {
                    id,
                    instance: solve.instance.clone(),
                    deadline_ms: solve.deadline_ms,
                    kernel: solve.kernel,
                })
                .collect(),
        });
        assert_eq!(
            writes(Framing::Batch),
            vec![format!("{}\n", serde_json::to_string(&batch).unwrap())]
        );
        // The bare metrics request is the historical one and never gets
        // an id spliced in.
        assert_eq!(
            serde_json::to_string(&WireRequest::Metrics).unwrap(),
            METRICS_LINE
        );
        assert_eq!(
            frame(Framing::Ids, std::iter::once((3, METRICS_LINE))),
            vec![format!("{METRICS_LINE}\n")]
        );
    }

    /// Records every `write` call separately.
    struct Writes(Vec<String>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(String::from_utf8(buf.to_vec()).unwrap());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A scripted stand-in server. When `drop_first`, the first
    /// connection is closed after one line without an answer. Otherwise
    /// every request gets an id-echoing `Rejected`, answered `window`
    /// requests at a time in reverse order; a bare line (`"Metrics"`) is
    /// answered at once with an `Error`. Also returns the count of
    /// request lines answered.
    fn scripted_server(drop_first: bool, window: usize) -> (String, Arc<AtomicUsize>) {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let lines = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&lines);
        std::thread::spawn(move || {
            for (n, stream) in listener.incoming().enumerate() {
                let Ok(stream) = stream else { return };
                let counter = Arc::clone(&counter);
                std::thread::spawn(move || {
                    let mut reader = BufReader::new(stream);
                    let mut held: Vec<Option<u64>> = Vec::new();
                    let mut line = String::new();
                    while matches!(reader.read_line(&mut line), Ok(k) if k > 0) {
                        if n == 0 && drop_first {
                            return;
                        }
                        let request = serde_json::parse_value(line.trim()).unwrap();
                        line.clear();
                        counter.fetch_add(1, Ordering::Relaxed);
                        let id = |c: &serde::Content| match c.field("id") {
                            Ok(serde::Content::Int(id)) => Some(*id as u64),
                            _ => None,
                        };
                        let mut out = String::new();
                        match &request {
                            serde::Content::Str(_) => out.push_str(
                                "{\"Error\":{\"kind\":\"internal\",\"message\":\"scripted\"}}\n",
                            ),
                            c => match c.field("SolveBatch") {
                                Ok(batch) => match batch.field("queries").unwrap() {
                                    serde::Content::Seq(qs) => held.extend(qs.iter().map(id)),
                                    other => panic!("queries: {other:?}"),
                                },
                                Err(_) => held.push(id(c)),
                            },
                        }
                        if held.len() >= window {
                            for id in held.drain(..).rev() {
                                match id {
                                    Some(id) => out.push_str(&format!(
                                        "{{\"id\":{id},\"Rejected\":\"scripted\"}}\n"
                                    )),
                                    None => out.push_str("{\"Rejected\":\"scripted\"}\n"),
                                }
                            }
                        }
                        if reader.get_mut().write_all(out.as_bytes()).is_err() {
                            return;
                        }
                    }
                });
            }
        });
        (addr, lines)
    }

    fn framings() -> [(usize, usize); 3] {
        // (pipeline, batch): classic, pipelined, batched.
        [(1, 1), (4, 1), (1, 4)]
    }

    #[test]
    fn window_engine_matches_replies_by_id_out_of_order() {
        for (pipeline, batch) in framings() {
            let window = pipeline.max(batch);
            let spec = LoadSpec {
                requests: 16,
                unique: 2,
                clients: 1,
                n: 24,
                pipeline,
                batch,
                ..LoadSpec::default()
            };
            let (addr, lines) = scripted_server(false, window);
            let remote = RemoteSpec { addr, retries: 0 };
            let report = run_remote(&spec, &remote).unwrap();
            let label = format!("pipeline {pipeline} batch {batch}");
            assert_eq!(report.infeasible, 16, "{label}: {report:?}");
            // One line per request, or one per window of `batch` queries,
            // plus the final `"Metrics"`.
            assert_eq!(lines.load(Ordering::Relaxed), 16 / batch + 1, "{label}");
            assert_eq!(report.wire_errors, 0, "{label}");
            assert_eq!(report.transport_retries, 0, "{label}");
            assert_eq!(
                (report.pipeline_depth, report.batch_size),
                (pipeline as u64, batch as u64)
            );
            if window == 1 {
                assert_eq!(report.out_of_order_replies, 0, "{label}");
            } else {
                // Reversed windows: the newest id overtakes every older one.
                assert!(report.out_of_order_replies > 0, "{label}: {report:?}");
                assert_eq!(report.reorder_depth_max, window as u64 - 1, "{label}");
            }
        }
    }

    #[test]
    fn window_engine_reissues_the_window_after_a_connection_death() {
        for (pipeline, batch) in framings() {
            let spec = LoadSpec {
                requests: 8,
                unique: 2,
                clients: 1,
                n: 24,
                pipeline,
                batch,
                ..LoadSpec::default()
            };
            let remote = RemoteSpec {
                addr: scripted_server(true, 1).0,
                retries: 3,
            };
            let report = run_remote(&spec, &remote).unwrap();
            let label = format!("pipeline {pipeline} batch {batch}");
            assert_eq!(
                report.infeasible, 8,
                "{label}: a request was lost: {report:?}"
            );
            assert_eq!(report.wire_errors, 0, "{label}");
            assert!(report.transport_retries >= 1, "{label}: {report:?}");
        }

        // With no retry budget the dropped window is charged to
        // `wire_errors`, request by request, and the replay goes on.
        let spec = LoadSpec {
            requests: 8,
            unique: 2,
            clients: 1,
            n: 24,
            pipeline: 4,
            ..LoadSpec::default()
        };
        let remote = RemoteSpec {
            addr: scripted_server(true, 1).0,
            retries: 0,
        };
        let report = run_remote(&spec, &remote).unwrap();
        assert_eq!(report.transport_retries, 0);
        assert!(report.wire_errors >= 1, "{report:?}");
        assert_eq!(report.wire_errors + report.infeasible, 8, "{report:?}");
    }

    #[test]
    fn latency_summary_is_exact() {
        let s = LatencySummary::from_samples((1..=100).collect());
        assert_eq!(s.p50_us, 50);
        assert_eq!(s.p95_us, 95);
        assert_eq!(s.p99_us, 99);
        assert_eq!(s.max_us, 100);
        assert_eq!(s.count, 100);
    }

    #[test]
    fn quantile_rank_is_exact_past_f64_mantissa() {
        // `count as f64` rounds once count exceeds the 53-bit mantissa, so
        // the old `(q * count as f64).ceil()` rank loses the top sample
        // even at q = 1.0. The fixed-point rank must not.
        let count = (1u64 << 53) + 1;
        assert_eq!(quantile_rank(1.0, count), count);
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
        let old = (1.0f64 * count as f64).ceil() as u64;
        assert!(
            old < count,
            "the f64 formula must misround here or this regression is vacuous"
        );
        // In the exactly-representable range the two ranks agree.
        for count in [1u64, 2, 3, 7, 100, 1000] {
            for q in [0.0, 0.25, 0.5, 0.95, 0.99, 1.0] {
                #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
                let old = ((q * count as f64).ceil() as u64).clamp(1, count);
                assert_eq!(quantile_rank(q, count), old, "q={q} count={count}");
            }
        }
    }

    #[test]
    fn empty_samples_summarize_to_zeros_not_nan() {
        let s = LatencySummary::from_samples(Vec::new());
        assert_eq!(s.count, 0);
        assert_eq!(s.p50_us, 0);
        assert_eq!(s.max_us, 0);
        assert!(
            s.mean_us == 0.0 && s.mean_us.is_finite(),
            "empty replay must report a zero mean, not 0/0 = NaN"
        );
        // NaN would serialize as `null` and fail to deserialize back into
        // an f64 — the report must survive a JSON round trip.
        let text = serde_json::to_string(&s).unwrap();
        assert!(!text.contains("null"), "NaN leaked into the JSON: {text}");
        let back: LatencySummary = serde_json::from_str(&text).unwrap();
        assert_eq!(back.count, 0);
    }

    #[test]
    fn every_framing_round_trips_over_the_wire() {
        use crate::proto::serve_on;
        use std::net::TcpListener;

        let svc = Service::new(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        {
            let svc = svc.clone();
            std::thread::spawn(move || {
                let _ = serve_on(&svc, listener);
            });
        }
        let remote = RemoteSpec {
            addr: addr.to_string(),
            retries: 2,
        };
        for (pipeline, batch) in framings() {
            let spec = LoadSpec {
                requests: 24,
                unique: 2,
                clients: 2,
                pipeline,
                batch,
                n: 24,
                ..LoadSpec::default()
            };
            let report = run_remote(&spec, &remote).unwrap();
            let label = format!("pipeline {pipeline} batch {batch}");
            assert_eq!(report.issued, 24);
            assert_eq!(report.batch_size, batch as u64);
            assert_eq!(report.pipeline_depth, pipeline as u64);
            assert_eq!(report.wire_errors, 0, "{label}: wire errors");
            assert_eq!(
                report.completed + report.infeasible + report.rejected_queue_full,
                24,
                "{label}: every query must be answered exactly once"
            );
            assert!(report.latency.count > 0);
            assert!(
                report.service_metrics.completed > 0,
                "{label}: no final metrics"
            );
            if batch > 1 {
                assert!(render(&report).contains("batch: size 4"));
            }
        }

        // pipeline and batch together is an input error, not a replay.
        let bad = LoadSpec {
            pipeline: 2,
            batch: 2,
            ..LoadSpec::default()
        };
        assert!(run_remote(&bad, &remote).is_err());
    }

    #[test]
    fn remote_spec_splits_and_never_yields_an_empty_list() {
        let spec = RemoteSpec {
            addr: "a:1, b:2 ,,c:3".to_string(),
            retries: 0,
        };
        assert_eq!(spec.addrs(), vec!["a:1", "b:2", "c:3"]);
        let empty = RemoteSpec {
            addr: String::new(),
            retries: 0,
        };
        assert_eq!(empty.addrs(), vec![""]);
    }

    #[test]
    fn retried_requests_rotate_targets_and_report_both_latency_views() {
        use crate::proto::serve_on;
        use std::net::TcpListener;

        let svc = Service::new(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        // A dead target (bound then dropped, so connects are refused) in
        // front of a live one: the client must start on the dead target,
        // burn one retry with backoff, rotate, and complete everything.
        let dead = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let live = listener.local_addr().unwrap();
        {
            let svc = svc.clone();
            std::thread::spawn(move || {
                let _ = serve_on(&svc, listener);
            });
        }
        // One client: salt = seed ^ 1 must be even so the initial target
        // (salt % 2) is the dead address.
        let spec = LoadSpec {
            requests: 8,
            unique: 2,
            clients: 1,
            seed: 43, // 43 ^ 1 == 42
            n: 24,
            ..LoadSpec::default()
        };
        let remote = RemoteSpec {
            addr: format!("{dead},{live}"),
            retries: 2,
        };
        let report = run_remote(&spec, &remote).unwrap();
        assert_eq!(
            report.wire_errors, 0,
            "rotation did not reach the live target"
        );
        assert_eq!(report.completed + report.infeasible, 8);
        assert!(
            report.transport_retries >= 1,
            "the dead target must have cost at least one retry"
        );
        // Both distributions cover every answered request; the first-send
        // view additionally carries the reconnect backoff (≥ 5 ms for the
        // first attempt), the last-send view must not.
        assert_eq!(report.latency_last_send.count, report.latency.count);
        assert!(
            report.latency.max_us >= 5_000,
            "first-send latency should include the backoff: {:?}",
            report.latency
        );
        assert!(
            report.latency.max_us >= report.latency_last_send.max_us,
            "last-send latency exceeded first-send: {:?} vs {:?}",
            report.latency_last_send,
            report.latency
        );
        assert!(render(&report).contains("last-send"));
    }

    #[test]
    fn rolling_replay_advances_epochs_between_windows() {
        use crate::proto::serve_on;
        use std::net::TcpListener;

        let svc = Service::new(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        {
            let svc = svc.clone();
            std::thread::spawn(move || {
                let _ = serve_on(&svc, listener);
            });
        }
        let spec = LoadSpec {
            requests: 8,
            unique: 2,
            clients: 1,
            n: 24,
            ..LoadSpec::default()
        };
        let rolling = RollingSpec {
            windows: 3,
            ramp_edges: 1,
            ramp_num: 11,
            ramp_den: 10,
        };
        let remote = RemoteSpec {
            addr: addr.to_string(),
            retries: 2,
        };
        let report = run_rolling(&spec, &rolling, &remote).unwrap();
        assert_eq!(report.lineages, 2);
        assert_eq!(report.windows.len(), 3);
        for w in &report.windows {
            assert_eq!(w.issued, 8);
            assert_eq!(w.wire_errors, 0, "window {} hit wire errors", w.window);
            assert_eq!(w.completed, 8, "window {} lost answers", w.window);
        }
        // Cycling 2 instances through 8 requests repeats each 4× — the
        // repeats must hit the (epoch-scoped) cache in every window.
        assert!(
            report.windows.iter().all(|w| w.cache_hits >= 4),
            "epoch-scoped keys missed the cache: {report:?}"
        );
        // The first window has no preceding advance; every later one
        // swept each lineage's cache and accounted every entry.
        assert_eq!(report.windows[0].advance_retained, 0);
        assert_eq!(report.windows[0].advance_evicted, 0);
        for w in &report.windows[1..] {
            assert!(
                w.advance_retained + w.advance_evicted > 0,
                "advance before window {} touched no entries: {report:?}",
                w.window
            );
        }
        assert!(report.service_metrics.epoch_advances >= 4);
        let text = serde_json::to_string(&report).unwrap();
        let back: RollingReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back.windows.len(), 3);
        assert!(render_rolling(&report).contains("w2:"));
    }
}
