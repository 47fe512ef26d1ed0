//! Answer checks: every reply is decoded with the client decoder and
//! audited against the instance that was sent; a seeded sample is also
//! compared with an in-process solve.

use krsp::{audit, rsp_kernel, Instance, Solution};
use krsp_graph::{EdgeId, EdgeSet};
use krsp_service::{decode_response_line, Rung, ServiceConfig, SolvedReply, WireResponse};

/// What the workload requires of the cache on a reply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    /// Must be served from the cache.
    Hit,
    /// Must not be served from the cache.
    Miss,
    /// Either.
    Any,
}

/// The verdict on one reply.
pub enum Verdict {
    /// A solution that passed every check.
    Answered(SolvedReply),
    /// An error or rejection instead of a solution.
    Refused(String),
    /// A solution that failed a check.
    Wrong(String),
}

/// Decodes `line` and checks it as the answer to `inst`: the `(1, 2)`
/// rung, `k` edge-disjoint `s–t` paths, delay within the budget, the
/// recorded cost and delay, and the workload's cache expectation.
pub fn reply(inst: &Instance, line: &str, expect: Expect) -> Verdict {
    let solved = match decode_response_line(line) {
        Err(e) => return Verdict::Wrong(format!("undecodable reply: {e}")),
        Ok((Some(id), _)) => {
            return Verdict::Wrong(format!("id {id} echoed on an id-less request"))
        }
        Ok((None, WireResponse::Solved(r))) => r,
        Ok((None, other)) => return Verdict::Refused(format!("{other:?}")),
    };
    match solution(inst, &solved) {
        Err(e) => Verdict::Wrong(e),
        Ok(_) if solved.rung != Rung::Full || solved.guarantee != Rung::Full.guarantee() => {
            Verdict::Wrong(format!("answered on rung {} not full", solved.rung))
        }
        Ok(_) if expect == Expect::Hit && !solved.cache_hit => {
            Verdict::Wrong("expected a cache hit, got a miss".into())
        }
        Ok(_) if expect == Expect::Miss && solved.cache_hit => {
            Verdict::Wrong("expected a cache miss, got a hit".into())
        }
        Ok(_) => Verdict::Answered(solved),
    }
}

/// Rebuilds the claimed solution and audits it against `inst`.
fn solution(inst: &Instance, r: &SolvedReply) -> Result<Solution, String> {
    let m = inst.m();
    if r.edges.windows(2).any(|w| w[0] >= w[1]) {
        return Err("edge ids not strictly ascending".into());
    }
    if r.edges.iter().any(|&e| e as usize >= m) {
        return Err(format!("edge id out of range (m = {m})"));
    }
    let edges: Vec<EdgeId> = r.edges.iter().map(|&e| EdgeId(e)).collect();
    let sol = Solution {
        edges: EdgeSet::from_edges(m, &edges),
        cost: r.cost,
        delay: r.delay,
        lower_bound: None,
    };
    let violations = audit(inst, &sol, None);
    if violations.is_empty() {
        Ok(sol)
    } else {
        Err(format!("audit: {violations:?}"))
    }
}

/// Checks a replied cost against the cost the default service computes
/// for `inst` on a cold full-rung solve, recomputed in-process: the RSP
/// kernel at ε = 1 for `k = 1` (the ladder's fast path), `krsp::solve`
/// otherwise.
pub fn same_cost(inst: &Instance, cost: i64) -> Result<(), String> {
    let cfg = ServiceConfig::default();
    let want = if inst.k == 1 {
        let path = rsp_kernel(cfg.kernels.for_rung(Rung::Full))
            .solve(&inst.graph, inst.s, inst.t, inst.delay_bound, 1, 1)
            .map_err(|e| e.to_string())?
            .ok_or("kernel found no path")?;
        Solution::from_edge_set(inst, EdgeSet::from_edges(inst.m(), &path.edges))
            .ok_or("kernel path is not a 1-flow")?
            .cost
    } else {
        krsp::solve(inst, &cfg.solver)
            .map_err(|e| e.to_string())?
            .solution
            .cost
    };
    if want == cost {
        Ok(())
    } else {
        Err(format!("cost {cost} differs from in-process solve {want}"))
    }
}

/// Checks `cost ≤ 2·C_LP` exactly — the full rung's certificate — for
/// answers that may come from a warm start or a rekeyed cache entry, where
/// a cold solve's exact cost need not be reproduced.
pub fn within_lp_bound(inst: &Instance, r: &SolvedReply) -> Result<(), String> {
    let p1 = krsp::phase1::run(inst, ServiceConfig::default().solver.phase1_backend)
        .map_err(|e| format!("phase 1 failed: {e:?}"))?;
    let sol = solution(inst, r)?;
    let violations = audit(inst, &sol, Some((p1.lp_bound, 2)));
    if violations.is_empty() {
        Ok(())
    } else {
        Err(format!("audit against 2·C_LP: {violations:?}"))
    }
}
