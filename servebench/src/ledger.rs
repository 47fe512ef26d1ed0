//! The per-layer ledger of a traced run.
//!
//! A layer's time is the median, over requests, of the difference between
//! the call into that layer and the call into the layer below on the same
//! request. A difference is only taken when both calls saw the same cache
//! state (both hits or both misses), since a hit and a miss of the same
//! request differ by a whole solve.

use crate::stack::Counters;
use crate::stats::{mean, median, quantile};
use crate::trace::{find, self_times, Span};
use crate::workload::Tally;
use std::ops::Range;

/// Every per-layer metric a traced run prints, with its unit.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("kernel.rsp_p50_us", "us"),
    ("kernel.calls", "count"),
    ("phase1.run_p50_us", "us"),
    ("phase1.share", "share"),
    ("solve.total_p50_us", "us"),
    ("solve.total_p99_us", "us"),
    ("solve.search_p50_us", "us"),
    ("solve.probes_mean", "count"),
    ("solve.iterations_mean", "count"),
    ("hash.canonical_key_p50_us", "us"),
    ("service.provision_hit_p50_us", "us"),
    ("service.miss_overhead_p50_us", "us"),
    ("service.cache_hit_ratio", "share"),
    ("service.coalesced", "count"),
    ("service.warm_starts", "count"),
    ("service.rejected", "count"),
    ("proto.request_bytes", "bytes"),
    ("proto.dispatch_hit_p50_us", "us"),
    ("proto.codec_p50_us", "us"),
    ("proto.decode_response_p50_us", "us"),
    ("frontend.rtt_hit_p50_us", "us"),
    ("frontend.hop_p50_us", "us"),
    ("frontend.pipelined_peak", "count"),
    ("frontend.read_timeouts", "count"),
    ("router.handle_line_p50_us", "us"),
    ("router.hop_p50_us", "us"),
    ("router.retries", "count"),
    ("router.hedges_fired", "count"),
    ("router.rejected", "count"),
    ("epoch.advance_p50_us", "us"),
    ("epoch.retained", "count"),
    ("epoch.evicted", "count"),
    ("trace.overhead_p50_us", "us"),
    ("trace.spans", "count"),
    ("trace.request_self_p50_us", "us"),
    ("trace.requests", "count"),
];

/// What one traced request did at each layer.
#[derive(Clone, Debug, Default)]
pub struct ReqInfo {
    /// Its spans in the client's span log.
    pub spans: Range<usize>,
    /// Request line length, newline excluded.
    pub bytes: usize,
    /// Cache hit on the served request.
    pub main_hit: Option<bool>,
    /// Cache hit at the reactor frontend: the served request, or on the
    /// ring the direct twin.
    pub front_hit: Option<bool>,
    /// Cache hit of the `dispatch_line` call.
    pub d_hit: Option<bool>,
    /// Cache hit of the `provision` call.
    pub p_hit: Option<bool>,
    pub probes: Option<usize>,
    pub iterations: Option<usize>,
}

/// Everything a traced phase recorded.
pub struct Traced<'a> {
    /// Each client's span log and request records.
    pub threads: Vec<(&'a [Span], &'a [ReqInfo])>,
    pub tally: &'a Tally,
    pub before: &'a Counters,
    pub after: &'a Counters,
    /// Whether the served request went through the router.
    pub ring: bool,
    /// Median client round trip of the untraced phase of the same run.
    pub untraced_rtt_p50_ms: f64,
}

impl Traced<'_> {
    /// One value per request where `f` yields one.
    fn per_request(&self, f: impl Fn(&[Span], &ReqInfo) -> Option<f64>) -> Vec<f64> {
        self.threads
            .iter()
            .flat_map(|(spans, infos)| infos.iter().filter_map(|i| f(&spans[i.spans.clone()], i)))
            .collect()
    }

    /// Durations of every span named `name`.
    fn all(&self, name: &str) -> Vec<f64> {
        self.threads
            .iter()
            .flat_map(|(spans, _)| spans.iter().filter(|s| s.name == name).map(Span::us))
            .collect()
    }

    /// A layer's hit time: its first call when that hit, else the repeat.
    fn hit_time(
        &self,
        first: &'static str,
        repeat: &'static str,
        hit: fn(&ReqInfo) -> Option<bool>,
    ) -> f64 {
        median(&self.per_request(|s, i| match hit(i) {
            Some(true) => find(s, first),
            Some(false) => find(s, repeat),
            None => None,
        }))
    }

    /// `upper − lower` on requests where both layers saw the same state.
    fn hop(&self, upper: &'static str, lower: &'static str, same: fn(&ReqInfo) -> bool) -> f64 {
        median(&self.per_request(|s, i| {
            if same(i) {
                Some(find(s, upper)? - find(s, lower)?)
            } else {
                None
            }
        }))
    }

    /// The ledger, in [`PER_LAYER`] order.
    pub fn metrics(&self) -> Vec<f64> {
        let (b, a) = (self.before, self.after);
        let kernel = self.all("kernel.rsp_solve");
        let solve = self.all("solve.solve_with");
        let front = if self.ring {
            "wire.direct_rtt"
        } else {
            "wire.rtt"
        };
        let router = |f: fn(&krsp_service::RingReply) -> u64| match (&b.router, &a.router) {
            (Some(x), Some(y)) => f(y).saturating_sub(f(x)) as f64,
            _ => 0.0,
        };
        let spans: Vec<Span> = self
            .threads
            .iter()
            .flat_map(|(s, _)| s.iter().copied())
            .collect();
        let request_self = self_times(&spans)
            .into_iter()
            .find(|row| row.0 == "request")
            .map_or(0.0, |row| row.3);
        let answered = self.tally.answered.max(1) as f64;
        let traced_rtt_p50_ms = median(&self.tally.latency_ms);
        vec![
            median(&kernel),
            kernel.len() as f64,
            median(&self.all("solve.phase1_run")),
            median(&self.per_request(|s, _| {
                Some(find(s, "solve.phase1_run")? / find(s, "solve.solve_with")?)
            })),
            median(&solve),
            quantile(&solve, 0.99),
            median(&self.per_request(|s, _| {
                Some(find(s, "solve.solve_with")? - find(s, "solve.phase1_run")?)
            })),
            mean(&self.per_request(|_, i| i.probes.map(|p| p as f64))),
            mean(&self.per_request(|_, i| i.iterations.map(|p| p as f64))),
            median(&self.all("hash.canonical_key")),
            self.hit_time("service.provision", "service.provision_hit", |i| i.p_hit),
            median(&self.per_request(|s, i| {
                if i.p_hit != Some(false) {
                    return None;
                }
                let below = find(s, "solve.solve_with").or_else(|| find(s, "kernel.rsp_solve"))?;
                Some(find(s, "service.provision")? - below)
            })),
            self.tally.hits as f64 / answered,
            self.tally.coalesced as f64,
            a.warm_starts.saturating_sub(b.warm_starts) as f64,
            a.rejected.saturating_sub(b.rejected) as f64,
            median(&self.per_request(|_, i| Some(i.bytes as f64))),
            self.hit_time("proto.dispatch_line", "proto.dispatch_line_hit", |i| {
                i.d_hit
            }),
            self.hop("proto.dispatch_line", "service.provision", |i| {
                i.d_hit.is_some() && i.d_hit == i.p_hit
            }),
            median(&self.all("proto.decode_response")),
            self.hit_time(front, "wire.rtt_hit", |i| i.front_hit),
            self.hop(front, "proto.dispatch_line", |i| {
                i.front_hit.is_some() && i.front_hit == i.d_hit
            }),
            a.pipelined_peak as f64,
            a.read_timeouts.saturating_sub(b.read_timeouts) as f64,
            median(&self.all("router.handle_line")),
            if self.ring {
                self.hop("wire.rtt", "wire.direct_rtt", |i| {
                    i.main_hit.is_some() && i.main_hit == i.front_hit
                })
            } else {
                0.0
            },
            router(|r| r.retries),
            router(|r| r.hedges_fired),
            router(|r| r.rejected),
            median(&self.all("epoch.advance")),
            self.tally.retained as f64,
            self.tally.evicted as f64,
            (traced_rtt_p50_ms - self.untraced_rtt_p50_ms) * 1e3,
            spans.len() as f64,
            request_self,
            self.threads
                .iter()
                .map(|(_, infos)| infos.len())
                .sum::<usize>() as f64,
        ]
    }
}
