//! The three workloads and the closed-loop client that drives them.
//!
//! Every input is derived from the run's seed; the server only ever sees
//! the generated request lines. One client thread per connection, as many
//! connections as the host has CPUs, each with one request in flight.

use crate::check::{self, Expect, Verdict};
use crate::ledger::ReqInfo;
use crate::stack::{Conn, Counters, Replica, Ring, Stack};
use crate::trace::Tracer;
use krsp::{rsp_kernel, CancelToken, DpScratch, Instance, SearchScratch};
use krsp_gen::{Family, Regime, WeightChange};
use krsp_service::{
    canonical_key, decode_response_line, proto::dispatch_line, EpochRequest, RegisterRequest,
    Request, Rung, Service, ServiceConfig, SolveRequest, SolvedReply, WireChange, WireRequest,
    WireResponse,
};
use std::collections::HashSet;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The workloads, by their `--workload` names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    HitWire,
    MissWire,
    RingRolling,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::HitWire, Kind::MissWire, Kind::RingRolling];

    pub fn name(self) -> &'static str {
        match self {
            Kind::HitWire => "hit_wire",
            Kind::MissWire => "miss_wire",
            Kind::RingRolling => "ring_rolling",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// The size of each workload. `smoke` keeps the shape but shrinks every
/// count so a run takes seconds.
#[derive(Clone, Debug)]
pub struct Params {
    /// Distinct instances replayed (`hit_wire`) or lineages (`ring_rolling`).
    pub pool: usize,
    pub family: Family,
    pub n: usize,
    /// Paths per request (`miss_wire`: every fourth request has `k = 1`).
    pub k: usize,
    /// `ring_rolling`: one epoch advance per this many solves per client.
    pub epoch_every: usize,
    /// Fresh instances solved during set-up (`miss_wire`).
    pub warmup: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Replies re-checked against an in-process solve after the run.
    pub sample: usize,
}

impl Params {
    pub fn new(kind: Kind, smoke: bool) -> Params {
        let (pool, setup_reps, sample) = if smoke { (8, 1, 4) } else { (64, 3, 16) };
        match kind {
            Kind::HitWire => Params {
                pool,
                family: Family::Gnm,
                n: 120,
                k: 2,
                epoch_every: 0,
                warmup: 0,
                setup_reps,
                sample,
            },
            Kind::MissWire => Params {
                pool: 0,
                family: Family::Layered,
                n: 200,
                k: 4,
                epoch_every: 0,
                warmup: if smoke { 2 } else { 4 },
                setup_reps,
                sample,
            },
            Kind::RingRolling => Params {
                pool: pool / 2,
                family: Family::Gnm,
                n: 120,
                k: 2,
                epoch_every: if smoke { 2 } else { 8 },
                warmup: 0,
                setup_reps,
                sample,
            },
        }
    }

    /// One line of JSON for the provenance record.
    pub fn json(&self) -> String {
        format!(
            "{{\"pool\":{},\"family\":\"{:?}\",\"n\":{},\"k\":{},\"k1_share\":{},\"epoch_every\":{},\"ramp_edges\":{},\"warmup\":{},\"setup_reps\":{},\"reference_sample\":{},\"regime\":\"Anticorrelated\",\"tightness\":{}}}",
            self.pool,
            self.family,
            self.n,
            self.k,
            if self.family == Family::Layered { 0.25 } else { 0.0 },
            self.epoch_every,
            if self.epoch_every > 0 { RAMP_EDGES } else { 0 },
            self.warmup,
            self.setup_reps,
            self.sample,
            TIGHTNESS
        )
    }
}

const TIGHTNESS: f64 = 0.5;

/// Edges whose cost each `ring_rolling` epoch ramps by 11/10 (the
/// `run_rolling` ramp). With one edge an advance almost never touches a
/// cached answer's paths; sixteen of the 480 evict roughly one answer in
/// three, so the workload rekeys, evicts and warm-starts.
const RAMP_EDGES: usize = 16;

// Salts separating the seed streams of the different inputs.
const SALT_POOL: u64 = 1;
const SALT_FRESH: u64 = 2;
const SALT_WARM: u64 = 3;
const SALT_RAMP: u64 = 4;
const SALT_SAMPLE: u64 = 5;

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn mix(seed: u64, salt: u64, i: u64) -> u64 {
    splitmix(splitmix(seed ^ salt.rotate_left(32)) ^ i)
}

/// One request's input: the instance and its encoded request line.
pub struct Item {
    pub inst: Instance,
    /// The `Solve` line, `\n`-terminated, with no `"id"`.
    pub line: String,
    /// Pool index, lineage index or fresh-instance index.
    pub index: u64,
}

impl Item {
    fn new(inst: Instance, index: u64) -> Item {
        let line = encode(&WireRequest::Solve(SolveRequest {
            instance: inst.clone(),
            deadline_ms: None,
            kernel: None,
        }));
        Item { inst, line, index }
    }

    /// The line without its newline, as `dispatch_line` takes it.
    fn bare(&self) -> &str {
        self.line.trim_end()
    }
}

fn encode(request: &WireRequest) -> String {
    let mut line = serde_json::to_string(request).expect("requests serialize");
    line.push('\n');
    line
}

fn generate(params: &Params, k: usize, seed: u64) -> Option<Instance> {
    krsp_gen::instantiate_with_retries(
        krsp_gen::Workload {
            family: params.family,
            n: params.n,
            m: params.n * 4,
            regime: Regime::Anticorrelated,
            k,
            tightness: TIGHTNESS,
            seed,
        },
        50,
    )
}

/// A cold solve slower than this screens a candidate out of a replayed
/// pool: about 100 times the median gnm n=120 solve.
pub const SCREEN_CAP: Duration = Duration::from_millis(250);

/// `count` instances with pairwise distinct cache keys, plus the
/// generator seeds of the candidates screened out.
///
/// About 0.5% of gnm n=120 instances take seconds to a minute to solve
/// cold (most of the time in the Ĉ probes), against ~1 ms for the median.
/// A pool replayed for the whole run must not hold one. It would be solved
/// past the service deadline, answered on a degraded rung, and that answer
/// would then be served on every hit. So each candidate is solved once
/// in-process under a deadline. A candidate that does not finish in time is
/// replaced, and its seed is reported in the provenance line.
/// `miss_wire`, the solver workload, is never screened.
fn pool(params: &Params, seed: u64, count: usize) -> Result<(Vec<Arc<Item>>, Vec<u64>), String> {
    let cfg = ServiceConfig::default().solver;
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(count);
    let mut screened = Vec::new();
    let mut u = 0u64;
    while out.len() < count {
        if u > 100 * count as u64 + 100 {
            return Err("could not generate enough distinct feasible instances".into());
        }
        let candidate = mix(seed, SALT_POOL, u);
        u += 1;
        let Some(inst) = generate(params, params.k, candidate) else {
            continue;
        };
        if !seen.insert(canonical_key(&inst).0) {
            continue;
        }
        let mut scratch = SearchScratch::new();
        scratch.set_cancel(CancelToken::with_deadline(Instant::now() + SCREEN_CAP));
        let start = Instant::now();
        if krsp::solve_with(&inst, &cfg, &mut scratch).is_err() || start.elapsed() > SCREEN_CAP {
            screened.push(candidate);
            continue;
        }
        out.push(Arc::new(Item::new(inst, out.len() as u64)));
    }
    Ok((out, screened))
}

/// Fresh `miss_wire` instance `index` of stream `salt`. A client's `j`-th
/// request has `k = 1` when `j % 4 == 3`, so the mix is the same on every
/// connection whatever its speed. `seen` keeps every request distinct, so
/// none can hit.
fn fresh(
    params: &Params,
    seed: u64,
    salt: u64,
    (index, j): (u64, u64),
    seen: &Mutex<HashSet<u128>>,
) -> Result<Item, String> {
    let k = if j % 4 == 3 { 1 } else { params.k };
    for attempt in 0..64u64 {
        if let Some(inst) = generate(params, k, mix(seed, salt, index ^ (attempt << 48))) {
            let key = canonical_key(&inst).0;
            if seen.lock().expect("key set lock").insert(key) {
                return Ok(Item::new(inst, index));
            }
        }
    }
    Err(format!("no fresh feasible instance for index {index}"))
}

/// Outcomes of one client over one phase.
#[derive(Default)]
pub struct Tally {
    /// Solves and epoch advances sent.
    pub attempted: u64,
    /// Solves answered and passing every check.
    pub answered: u64,
    /// Errors, rejections and transport failures.
    pub refused: u64,
    /// Answers that failed a check.
    pub wrong: u64,
    pub hits: u64,
    pub coalesced: u64,
    pub full_rung: u64,
    /// Client send → reply, per answered solve.
    pub latency_ms: Vec<f64>,
    pub epochs: u64,
    pub retained: u64,
    pub evicted: u64,
    /// The first few failure messages.
    pub notes: Vec<String>,
}

impl Tally {
    fn note(&mut self, msg: String) {
        if self.notes.len() < 8 {
            self.notes.push(msg);
        }
    }

    pub fn failed(&self) -> u64 {
        self.refused + self.wrong
    }

    pub fn merge(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.answered += o.answered;
        self.refused += o.refused;
        self.wrong += o.wrong;
        self.hits += o.hits;
        self.coalesced += o.coalesced;
        self.full_rung += o.full_rung;
        self.latency_ms.extend(o.latency_ms);
        self.epochs += o.epochs;
        self.retained += o.retained;
        self.evicted += o.evicted;
        for n in o.notes {
            self.note(n);
        }
    }
}

/// A reply kept for the post-run reference check.
pub enum Sample {
    /// Must equal an in-process cold solve's cost.
    SameCost(Arc<Item>, i64),
    /// Must be within the full rung's `2·C_LP` certificate.
    LpBound(Arc<Item>, SolvedReply),
}

impl Sample {
    pub fn check(&self) -> Result<(), String> {
        match self {
            Sample::SameCost(item, cost) => check::same_cost(&item.inst, *cost),
            Sample::LpBound(item, reply) => check::within_lp_bound(&item.inst, reply),
        }
    }
}

/// Services fed the same requests as the stack under test, one per layer
/// below the wire, so each layer's call sees the same cache state as the
/// served request (traced runs only).
pub struct Twins {
    /// `ring_rolling`: a reactor replica outside the ring, for the direct
    /// round trip the router hop is measured against.
    pub direct: Option<Replica>,
    /// Called through `dispatch_line`.
    pub dispatch: Service,
    /// Called through `provision`.
    pub provision: Service,
}

impl Twins {
    fn start(ring: bool) -> std::io::Result<Twins> {
        Ok(Twins {
            direct: if ring { Some(Replica::start()?) } else { None },
            dispatch: Service::new(ServiceConfig::default()),
            provision: Service::new(ServiceConfig::default()),
        })
    }

    fn services(&self) -> impl Iterator<Item = &Service> {
        self.direct
            .iter()
            .map(|r| &r.svc)
            .chain([&self.dispatch, &self.provision])
    }

    fn register(&self, inst: &Instance) {
        for svc in self.services() {
            black_box(svc.register_topology(&inst.graph));
        }
    }

    fn warm(&self, item: &Item) {
        if let Some(direct) = &self.direct {
            black_box(direct.svc.provision(request(&item.inst)).ok());
        }
        black_box(dispatch_line(&self.dispatch, item.bare()));
        black_box(self.provision.provision(request(&item.inst)).ok());
    }

    fn stop(self) -> Result<(), String> {
        self.direct.map_or(Ok(()), Replica::stop)
    }
}

fn request(inst: &Instance) -> Request {
    Request {
        instance: inst.clone(),
        deadline: None,
        kernel: None,
    }
}

/// Whether a reply line is a solved cache hit; `None` when it is not a
/// solution at all.
fn solved_hit(line: &str) -> Option<bool> {
    match decode_response_line(line) {
        Ok((_, WireResponse::Solved(r))) => Some(r.cache_hit),
        _ => None,
    }
}

/// A registered `ring_rolling` lineage owned by one client.
struct Lineage {
    item: Arc<Item>,
    topo: String,
    structural: u128,
    steps: u64,
}

/// Where a client's next request comes from.
enum Source {
    /// `hit_wire`: the shared pool, round-robin, with each instance's
    /// answered cost from set-up.
    Pool {
        items: Arc<Vec<Arc<Item>>>,
        costs: Arc<Vec<Option<i64>>>,
        next: usize,
    },
    /// `miss_wire`: fresh instances; this client's `j`-th request has index
    /// `first + stride·j`.
    Fresh { first: u64, stride: u64, j: u64 },
    /// `ring_rolling`: this client's lineages, round-robin, with an epoch
    /// advance every `epoch_every` solves.
    Lineages {
        items: Vec<Lineage>,
        next: usize,
        since_epoch: usize,
        epochs: u64,
    },
}

type Next = (Arc<Item>, Expect, Option<i64>);

/// Read-only context shared by the client threads.
pub struct Ctx<'a> {
    pub kind: Kind,
    pub seed: u64,
    pub params: &'a Params,
    pub stack: &'a Stack,
    pub twins: Option<&'a Twins>,
    pub seen: &'a Mutex<HashSet<u128>>,
}

/// One connection's client.
pub struct Client {
    id: u64,
    conn: Conn,
    /// `ring_rolling` traced runs: a connection to the direct twin.
    direct: Option<Conn>,
    source: Source,
    reqs: u64,
    samples_left: usize,
    pub samples: Vec<Sample>,
    pub tracer: Tracer,
    pub infos: Vec<ReqInfo>,
    scratch: SearchScratch,
    dp: DpScratch,
}

impl Client {
    fn reconnect(&mut self, addr: std::net::SocketAddr, tally: &mut Tally) -> bool {
        match Conn::connect(addr) {
            Ok(conn) => {
                self.conn = conn;
                true
            }
            Err(e) => {
                tally.note(format!("reconnect failed: {e}"));
                false
            }
        }
    }

    /// Runs the closed loop until `until`.
    fn run(&mut self, ctx: &Ctx, until: Instant, traced: bool) -> Tally {
        let mut tally = Tally::default();
        while Instant::now() < until {
            let (item, expect, cost) = match self.next(ctx, traced, &mut tally) {
                Ok(Some(next)) => next,
                Ok(None) => continue,
                Err(e) => {
                    tally.wrong += 1;
                    tally.note(e);
                    break;
                }
            };
            if !self.solve(ctx, &item, expect, cost, traced, &mut tally) {
                break;
            }
        }
        tally
    }

    /// The next solve with its cache expectation and, on `hit_wire`, the
    /// cost it must return. `Ok(None)` means an epoch advance took this
    /// turn.
    fn next(&mut self, ctx: &Ctx, traced: bool, tally: &mut Tally) -> Result<Option<Next>, String> {
        let due = match &mut self.source {
            Source::Lineages {
                items,
                since_epoch,
                epochs,
                ..
            } if *since_epoch >= ctx.params.epoch_every => {
                *since_epoch = 0;
                *epochs += 1;
                Some((*epochs as usize - 1) % items.len())
            }
            _ => None,
        };
        if let Some(at) = due {
            self.advance(ctx, at, traced, tally)?;
            return Ok(None);
        }
        match &mut self.source {
            Source::Pool { items, costs, next } => {
                let at = *next % items.len();
                *next += 1;
                Ok(Some((Arc::clone(&items[at]), Expect::Hit, costs[at])))
            }
            Source::Fresh { first, stride, j } => {
                let at = (*first + *stride * *j, *j);
                *j += 1;
                let item = fresh(ctx.params, ctx.seed, SALT_FRESH, at, ctx.seen)?;
                Ok(Some((Arc::new(item), Expect::Miss, None)))
            }
            Source::Lineages {
                items,
                next,
                since_epoch,
                ..
            } => {
                *since_epoch += 1;
                let at = *next % items.len();
                *next += 1;
                Ok(Some((Arc::clone(&items[at].item), Expect::Any, None)))
            }
        }
    }

    /// One `ring_rolling` epoch advance: a seeded cost ramp on one lineage,
    /// sent through the router and mirrored onto the client's instance.
    fn advance(
        &mut self,
        ctx: &Ctx,
        at: usize,
        traced: bool,
        tally: &mut Tally,
    ) -> Result<(), String> {
        let Client {
            id,
            conn,
            source,
            reqs,
            tracer,
            ..
        } = self;
        let Source::Lineages { items, .. } = source else {
            unreachable!("only lineage sources advance epochs");
        };
        let lineage = &mut items[at];
        lineage.steps += 1;
        let inst = &lineage.item.inst;
        let changes: Vec<WeightChange> = krsp_gen::cost_ramp(
            &inst.graph,
            RAMP_EDGES,
            11,
            10,
            mix(
                ctx.seed,
                SALT_RAMP,
                (lineage.item.index << 32) | lineage.steps,
            ),
        );
        let line = encode(&WireRequest::Epoch(EpochRequest {
            topo: lineage.topo.clone(),
            changes: changes
                .iter()
                .map(|c| WireChange {
                    edge: c.edge.0,
                    cost: c.cost,
                    delay: c.delay,
                })
                .collect(),
        }));
        tally.attempted += 1;
        tally.epochs += 1;
        *reqs += 1;
        let req = (*id << 32) | *reqs;
        let start = Instant::now();
        let reply = conn.roundtrip(&line).map(str::to_owned);
        let end = Instant::now();
        if traced {
            tracer.record("wire.epoch_rtt", req, 0, start, end);
        }
        match reply.as_deref().map(decode_response_line) {
            Ok(Ok((None, WireResponse::Epoch(r)))) => {
                tally.retained += r.retained;
                tally.evicted += r.evicted;
            }
            other => {
                tally.refused += 1;
                tally.note(format!("epoch advance failed: {other:?}"));
                return Ok(());
            }
        }
        let graph = krsp_gen::apply_changes(&inst.graph, &changes);
        let next = Instance::new(graph, inst.s, inst.t, inst.k, inst.delay_bound)
            .map_err(|e| format!("ramped instance invalid: {e:?}"))?;
        lineage.item = Arc::new(Item::new(next, lineage.item.index));
        if let Some(twins) = ctx.twins {
            for svc in twins.services() {
                let advanced = if traced && std::ptr::eq(svc, &twins.provision) {
                    tracer.time("epoch.advance", req, 0, || {
                        svc.advance_epoch(lineage.structural, &changes)
                    })
                } else {
                    svc.advance_epoch(lineage.structural, &changes)
                };
                if let Err(e) = advanced {
                    return Err(format!("twin epoch advance failed: {e}"));
                }
            }
        }
        Ok(())
    }

    /// One solve over the wire, checked; traced runs then call each layer
    /// below on the same request. Returns false when the connection is lost
    /// for good.
    fn solve(
        &mut self,
        ctx: &Ctx,
        item: &Arc<Item>,
        expect: Expect,
        cost: Option<i64>,
        traced: bool,
        tally: &mut Tally,
    ) -> bool {
        self.reqs += 1;
        let req = (self.id << 32) | self.reqs;
        tally.attempted += 1;
        let root = traced.then(|| self.tracer.open("request", req, Instant::now()));
        let first_span = self.tracer.spans.len().saturating_sub(1);
        let start = Instant::now();
        let reply = self.conn.roundtrip(&item.line).map(str::to_owned);
        let end = Instant::now();
        let reply = match reply {
            Ok(r) => r,
            Err(e) => {
                tally.refused += 1;
                tally.note(format!("transport: {e}"));
                if let Some((_, at)) = root {
                    self.tracer.close(at);
                }
                return self.reconnect(ctx.stack.addr(), tally);
            }
        };
        let mut main_hit = None;
        match check::reply(&item.inst, &reply, expect) {
            Verdict::Answered(r) if cost.is_some_and(|c| c != r.cost) => {
                tally.wrong += 1;
                tally.note(format!(
                    "hit returned cost {} but the warm answer cost {cost:?}",
                    r.cost
                ));
            }
            Verdict::Answered(r) => {
                tally.answered += 1;
                tally.latency_ms.push((end - start).as_secs_f64() * 1e3);
                tally.hits += u64::from(r.cache_hit);
                tally.coalesced += u64::from(r.coalesced);
                tally.full_rung += u64::from(r.rung == Rung::Full);
                main_hit = Some(r.cache_hit);
                self.keep_sample(ctx, item, r);
            }
            Verdict::Refused(e) => {
                tally.refused += 1;
                tally.note(format!("refused: {e}"));
            }
            Verdict::Wrong(e) => {
                tally.wrong += 1;
                tally.note(format!("wrong answer: {e}"));
            }
        }
        if let Some((root_id, at)) = root {
            self.tracer.record("wire.rtt", req, root_id, start, end);
            self.probe(ctx, item, req, root_id, main_hit, &reply);
            self.tracer.close(at);
            if let Some(info) = self.infos.last_mut() {
                info.spans = first_span..self.tracer.spans.len();
            }
        }
        true
    }

    /// Keeps a seeded sample of replies for the post-run reference check.
    fn keep_sample(&mut self, ctx: &Ctx, item: &Arc<Item>, r: SolvedReply) {
        // `hit_wire` checks every reply against its set-up answer, whose
        // sample is checked against in-process solves.
        if ctx.kind == Kind::HitWire
            || self.samples_left == 0
            || !mix(ctx.seed, SALT_SAMPLE, self.reqs).is_multiple_of(8)
        {
            return;
        }
        self.samples_left -= 1;
        self.samples.push(match ctx.kind {
            // Answers after epoch advances may be warm starts or rekeyed
            // entries: only the certificate is reproducible.
            Kind::RingRolling => Sample::LpBound(Arc::clone(item), r),
            Kind::HitWire | Kind::MissWire => Sample::SameCost(Arc::clone(item), r.cost),
        });
    }

    /// Calls each layer below the wire on the same request, each against a
    /// twin in the same cache state; where a layer missed, calls it again
    /// for its hit time.
    fn probe(
        &mut self,
        ctx: &Ctx,
        item: &Item,
        req: u64,
        root: u64,
        main_hit: Option<bool>,
        reply: &str,
    ) {
        let twins = ctx.twins.expect("traced runs have twins");
        let line = item.bare();
        let inst = &item.inst;
        let cfg = ServiceConfig::default();
        let t = &mut self.tracer;
        let mut info = ReqInfo {
            bytes: line.len(),
            main_hit,
            front_hit: main_hit,
            ..ReqInfo::default()
        };
        if let Some(router) = ctx.stack.router() {
            let direct = self
                .direct
                .as_mut()
                .expect("ring traced runs connect to the twin");
            let start = Instant::now();
            let r = direct.roundtrip(&item.line).map(str::to_owned);
            t.record("wire.direct_rtt", req, root, start, Instant::now());
            info.front_hit = r.ok().as_deref().and_then(solved_hit);
            black_box(t.time("router.handle_line", req, root, || router.handle_line(line)));
        }
        let d = t.time("proto.dispatch_line", req, root, || {
            dispatch_line(&twins.dispatch, line)
        });
        info.d_hit = solved_hit(&d);
        let rq = request(inst);
        let p = t.time("service.provision", req, root, || {
            twins.provision.provision(rq)
        });
        info.p_hit = p.as_ref().ok().map(|r| r.cache_hit);
        black_box(t.time("hash.canonical_key", req, root, || canonical_key(inst)));
        if info.p_hit == Some(false) {
            if inst.k == 1 {
                let kernel = rsp_kernel(cfg.kernels.for_rung(Rung::Full));
                let dp = &mut self.dp;
                black_box(
                    t.time("kernel.rsp_solve", req, root, || {
                        kernel.solve_with(&inst.graph, inst.s, inst.t, inst.delay_bound, 1, 1, dp)
                    })
                    .is_ok(),
                );
            } else {
                let scratch = &mut self.scratch;
                let solved = t.time("solve.solve_with", req, root, || {
                    krsp::solve_with(inst, &cfg.solver, scratch)
                });
                if let Ok(s) = &solved {
                    info.probes = Some(s.stats.probes);
                    info.iterations = Some(s.stats.iterations.len());
                }
                black_box(
                    t.time("solve.phase1_run", req, root, || {
                        krsp::phase1::run(inst, cfg.solver.phase1_backend)
                    })
                    .is_ok(),
                );
            }
        }
        if info.front_hit == Some(false) {
            let conn = match ctx.stack.router() {
                Some(_) => self
                    .direct
                    .as_mut()
                    .expect("ring traced runs connect to the twin"),
                None => &mut self.conn,
            };
            let start = Instant::now();
            black_box(conn.roundtrip(&item.line).is_ok());
            t.record("wire.rtt_hit", req, root, start, Instant::now());
        }
        if info.d_hit == Some(false) {
            black_box(t.time("proto.dispatch_line_hit", req, root, || {
                dispatch_line(&twins.dispatch, line)
            }));
        }
        if info.p_hit == Some(false) {
            let rq = request(inst);
            black_box(
                t.time("service.provision_hit", req, root, || {
                    twins.provision.provision(rq)
                })
                .ok(),
            );
        }
        black_box(
            t.time("proto.decode_response", req, root, || {
                decode_response_line(reply)
            })
            .is_ok(),
        );
        self.infos.push(info);
    }
}

/// A set-up stack with its connected clients.
pub struct Bed {
    pub stack: Stack,
    pub twins: Option<Twins>,
    pub clients: Vec<Client>,
    /// Set-up outcomes (warm-up answers, registrations).
    pub tally: Tally,
    /// Cold answers from set-up, re-checked after the run.
    pub samples: Vec<Sample>,
    /// Generator seeds of pool candidates screened out as too slow.
    pub screened: Vec<u64>,
}

/// Generates the inputs, starts the stack, connects `nproc` clients and
/// warms the caches (registering lineages first on `ring_rolling`).
pub fn setup(
    kind: Kind,
    params: &Params,
    seed: u64,
    nproc: usize,
    traced: bool,
    origin: Instant,
    seen: &Mutex<HashSet<u128>>,
) -> Result<Bed, String> {
    fn io(what: &'static str) -> impl Fn(std::io::Error) -> String {
        move |e| format!("{what}: {e}")
    }
    // Every ring client needs at least one lineage of its own.
    let count = match kind {
        Kind::RingRolling => params.pool.max(nproc),
        Kind::HitWire | Kind::MissWire => params.pool,
    };
    let (items, screened) = pool(params, seed, count)?;
    let stack = match kind {
        Kind::RingRolling => Stack::Ring(Ring::start(2).map_err(io("ring start"))?),
        Kind::HitWire | Kind::MissWire => {
            Stack::Direct(Replica::start().map_err(io("server start"))?)
        }
    };
    let twins = if traced {
        Some(Twins::start(kind == Kind::RingRolling).map_err(io("twin start"))?)
    } else {
        None
    };
    let mut clients = Vec::with_capacity(nproc);
    for c in 0..nproc {
        let direct = match twins.as_ref().and_then(|t| t.direct.as_ref()) {
            Some(d) => Some(Conn::connect(d.addr).map_err(io("twin connect"))?),
            None => None,
        };
        clients.push(Client {
            id: c as u64,
            conn: Conn::connect(stack.addr()).map_err(io("connect"))?,
            direct,
            source: Source::Fresh {
                first: c as u64,
                stride: nproc as u64,
                j: 0,
            },
            reqs: 0,
            samples_left: params.sample.div_ceil(nproc),
            samples: Vec::new(),
            tracer: Tracer::new(origin, c as u64),
            infos: Vec::new(),
            scratch: SearchScratch::new(),
            dp: DpScratch::new(),
        });
    }

    // Warm-up: each client warms its share over its own connection.
    let twins_ref = twins.as_ref();
    let warmed: Vec<Warmed> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let items = &items;
                s.spawn(move || warm(kind, params, seed, nproc, c, client, items, twins_ref, seen))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm-up thread panicked"))
            .collect()
    });

    let mut tally = Tally::default();
    let mut costs = vec![None; items.len()];
    let mut lineages: Vec<Vec<Lineage>> = Vec::new();
    for (t, c, l) in warmed {
        tally.merge(t);
        for (at, cost) in c {
            costs[at] = cost;
        }
        lineages.push(l);
    }
    let mut samples = Vec::new();
    if kind != Kind::MissWire {
        let mut order: Vec<usize> = (0..items.len()).collect();
        order.sort_by_key(|&i| mix(seed, SALT_SAMPLE, i as u64));
        for &i in order.iter().take(params.sample) {
            if let Some(cost) = costs[i] {
                samples.push(Sample::SameCost(Arc::clone(&items[i]), cost));
            }
        }
    }
    let items = Arc::new(items);
    let costs = Arc::new(costs);
    for (client, lineage) in clients.iter_mut().zip(lineages) {
        client.source = match kind {
            Kind::HitWire => Source::Pool {
                items: Arc::clone(&items),
                costs: Arc::clone(&costs),
                next: (client.id as usize * items.len()) / nproc,
            },
            Kind::MissWire => Source::Fresh {
                first: client.id,
                stride: nproc as u64,
                j: 0,
            },
            Kind::RingRolling => Source::Lineages {
                items: lineage,
                next: 0,
                since_epoch: 0,
                epochs: 0,
            },
        };
    }
    Ok(Bed {
        stack,
        twins,
        clients,
        tally,
        samples,
        screened,
    })
}

/// One client's share of the warm-up: its tally, the answered cost of each
/// pool item it warmed, and (ring) the lineages it owns.
type Warmed = (Tally, Vec<(usize, Option<i64>)>, Vec<Lineage>);

/// Warms one client's share of the pool over its own connection.
#[allow(clippy::too_many_arguments)]
fn warm(
    kind: Kind,
    params: &Params,
    seed: u64,
    nproc: usize,
    c: usize,
    client: &mut Client,
    items: &[Arc<Item>],
    twins: Option<&Twins>,
    seen: &Mutex<HashSet<u128>>,
) -> Warmed {
    let mut tally = Tally::default();
    let mut costs = Vec::new();
    let mut lineages = Vec::new();
    let solve = |client: &mut Client, tally: &mut Tally, item: &Item| -> Option<i64> {
        tally.attempted += 1;
        let reply = match client.conn.roundtrip(&item.line) {
            Ok(r) => r.to_owned(),
            Err(e) => {
                tally.refused += 1;
                tally.note(format!("warm-up transport: {e}"));
                return None;
            }
        };
        if let Some(t) = twins {
            t.warm(item);
        }
        match check::reply(&item.inst, &reply, Expect::Miss) {
            Verdict::Answered(r) => {
                tally.answered += 1;
                Some(r.cost)
            }
            Verdict::Refused(e) => {
                tally.refused += 1;
                tally.note(format!("warm-up refused: {e}"));
                None
            }
            Verdict::Wrong(e) => {
                tally.wrong += 1;
                tally.note(format!("warm-up wrong answer: {e}"));
                None
            }
        }
    };
    match kind {
        Kind::HitWire => {
            for (at, item) in items.iter().enumerate().filter(|(i, _)| i % nproc == c) {
                costs.push((at, solve(client, &mut tally, item)));
            }
        }
        Kind::MissWire => {
            for w in (c..params.warmup).step_by(nproc) {
                let at = (w as u64, (w / nproc) as u64);
                match fresh(params, seed, SALT_WARM, at, seen) {
                    Ok(item) => {
                        solve(client, &mut tally, &item);
                    }
                    Err(e) => {
                        tally.refused += 1;
                        tally.note(e);
                    }
                }
            }
        }
        Kind::RingRolling => {
            for (at, item) in items.iter().enumerate().filter(|(i, _)| i % nproc == c) {
                tally.attempted += 1;
                let line = encode(&WireRequest::Register(RegisterRequest {
                    graph: item.inst.graph.clone(),
                }));
                let topo = match client.conn.roundtrip(&line).map(decode_response_line) {
                    Ok(Ok((None, WireResponse::Registered(r)))) => r.topo,
                    other => {
                        tally.refused += 1;
                        tally.note(format!("registration failed: {other:?}"));
                        continue;
                    }
                };
                let Ok(structural) = u128::from_str_radix(&topo, 16) else {
                    tally.wrong += 1;
                    tally.note(format!("registration returned a bad topo {topo:?}"));
                    continue;
                };
                tally.answered += 1;
                if let Some(t) = twins {
                    t.register(&item.inst);
                }
                costs.push((at, solve(client, &mut tally, item)));
                lineages.push(Lineage {
                    item: Arc::clone(item),
                    topo,
                    structural,
                    steps: 0,
                });
            }
        }
    }
    (tally, costs, lineages)
}

/// Runs every client's closed loop for `secs`; returns the merged tally,
/// the measured wall time, and server counters before and after.
pub fn phase(
    clients: &mut [Client],
    ctx: &Ctx,
    secs: f64,
    traced: bool,
) -> (Tally, f64, Counters, Counters) {
    let before = ctx.stack.counters();
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(secs);
    let tallies: Vec<Tally> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| s.spawn(move || client.run(ctx, until, traced)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    let after = ctx.stack.counters();
    let mut tally = Tally::default();
    for t in tallies {
        tally.merge(t);
    }
    (tally, elapsed, before, after)
}

impl Bed {
    /// Closes the clients and stops every server.
    pub fn stop(self) -> Result<(), String> {
        drop(self.clients);
        let twins = self.twins.map_or(Ok(()), Twins::stop);
        self.stack.stop().and(twins)
    }
}
