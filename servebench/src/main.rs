//! Serving benchmark for the krsp stack: runs one workload against the
//! default `Service` behind the reactor frontend (and, for `ring_rolling`,
//! the router) on loopback, checks every answer, and prints its metrics.
//!
//! ```text
//! servebench --workload <hit_wire|miss_wire|ring_rolling> --seed N
//!            --seconds S --trace <0|1> [--smoke] [--trace-out PATH]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs a traced
//! half and an untraced half and prints the per-layer ledger, writing the
//! spans to `--trace-out` (default
//! `.bench_build/servebench/<workload>-seed<N>.ndjson`). The last line of
//! stdout is the result object; the line before it records provenance.
//! See `servebench/README.md` for the workloads and the predictions.

mod check;
mod ledger;
mod stack;
mod stats;
mod trace;
mod workload;

use std::collections::HashSet;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::Instant;
use workload::{phase, setup, Ctx, Kind, Params, Sample};

/// Every end-to-end metric an untraced run prints, with its unit.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("success_share", "share"),
    ("full_rung_share", "share"),
    ("peak_rss_mb", "MB"),
];

const USAGE: &str = "usage: servebench --workload <hit_wire|miss_wire|ring_rolling> --seed N \
                     --seconds S --trace <0|1> [--smoke] [--trace-out PATH]";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    trace_out: Option<PathBuf>,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut smoke, mut trace_out) = (false, None);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                kind = Some(Kind::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                });
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value()?)),
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
        trace_out,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::from(1)
        }
    }
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn run(args: &Args) -> Result<(), String> {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let params = Params::new(args.kind, args.smoke);
    let origin = Instant::now();
    let seen = Mutex::new(HashSet::new());

    // Set up several times and keep the last stack for the timed phase.
    let reps = if args.trace { 1 } else { params.setup_reps };
    let mut setup_s = Vec::with_capacity(reps);
    let mut bed = None;
    for rep in 0..reps {
        let start = Instant::now();
        let b = setup(
            args.kind, &params, args.seed, nproc, args.trace, origin, &seen,
        )?;
        setup_s.push(start.elapsed().as_secs_f64());
        if rep + 1 < reps {
            b.stop()?;
            seen.lock().expect("key set lock").clear();
        } else {
            bed = Some(b);
        }
    }
    let mut bed = bed.expect("at least one set-up");
    let mut total = std::mem::take(&mut bed.tally);
    let screened = std::mem::take(&mut bed.screened);
    for seed in &screened {
        eprintln!(
            "screened out a pool candidate (generator seed {seed}): cold solve over {:?}",
            workload::SCREEN_CAP
        );
    }

    let ctx = Ctx {
        kind: args.kind,
        seed: args.seed,
        params: &params,
        stack: &bed.stack,
        twins: bed.twins.as_ref(),
        seen: &seen,
    };
    // A traced run traces its first half and leaves the second untraced;
    // the gap between the two is the tracing overhead.
    let secs = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let traced = args
        .trace
        .then(|| phase(&mut bed.clients, &ctx, secs, true));
    let (timed, elapsed, before, after) = phase(&mut bed.clients, &ctx, secs, false);

    // Run-level checks: the hit workload must never reach the solver.
    let mut run_failures = Vec::new();
    if args.kind == Kind::HitWire {
        let solved = after.cache_misses - before.cache_misses
            + traced
                .as_ref()
                .map_or(0, |t| t.3.cache_misses - t.2.cache_misses);
        if solved > 0 {
            run_failures.push(format!("hit_wire ran {solved} solves in the timed phase"));
        }
    }
    // Post-run reference checks (outside every timed window).
    let samples: Vec<&Sample> = bed
        .samples
        .iter()
        .chain(bed.clients.iter().flat_map(|c| c.samples.iter()))
        .collect();
    for s in &samples {
        if let Err(e) = s.check() {
            run_failures.push(format!("reference check: {e}"));
        }
    }
    let checked = samples.len();
    drop(samples);

    let mut ledger = None;
    if let Some((t_tally, _, t_before, t_after)) = &traced {
        let threads: Vec<_> = bed
            .clients
            .iter()
            .map(|c| (c.tracer.spans.as_slice(), c.infos.as_slice()))
            .collect();
        let all_spans: Vec<trace::Span> =
            threads.iter().flat_map(|t| t.0.iter().copied()).collect();
        let view = ledger::Traced {
            threads,
            tally: t_tally,
            before: t_before,
            after: t_after,
            ring: args.kind == Kind::RingRolling,
            untraced_rtt_p50_ms: stats::median(&timed.latency_ms),
        };
        ledger = Some(view.metrics());
        let path = args.trace_out.clone().unwrap_or_else(|| {
            PathBuf::from(format!(
                ".bench_build/servebench/{}-seed{}.ndjson",
                args.kind.name(),
                args.seed
            ))
        });
        eprintln!("span self times (name, count, p50 µs, p50 self µs):");
        for (name, count, p50, slf) in trace::self_times(&all_spans) {
            eprintln!("  {name:<28} {count:>7} {p50:>12.1} {slf:>12.1}");
        }
        let header = format!(
            "{{\"provenance\":{{\"workload\":\"{}\",\"seed\":{},\"nproc\":{nproc},\"params\":{}}}}}",
            args.kind.name(),
            args.seed,
            params.json()
        );
        trace::write(&path, &header, &all_spans)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("spans written to {}", path.display());
    }
    bed.stop()?;

    // Totals over set-up, both phases and the reference checks.
    if let Some((t, ..)) = traced {
        total.merge(t);
    }
    let timed_latency = timed.latency_ms.clone();
    let (answered, full) = (timed.answered, timed.full_rung);
    total.merge(timed);
    total.attempted += checked as u64 + u64::from(args.kind == Kind::HitWire);
    total.wrong += run_failures.len() as u64;
    let failed = total.failed();
    let correct = total.wrong == 0 && total.answered > 0;
    for note in total.notes.iter().chain(run_failures.iter()) {
        eprintln!("failure: {note}");
    }

    let p99_tail = stats::tail_count(&timed_latency, 0.99);
    if !args.trace && p99_tail < 10 {
        eprintln!("warning: only {p99_tail} samples above p99; lengthen --seconds");
    }
    let provenance = format!(
        "{{\"provenance\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"smoke\":{},\"nproc\":{nproc},\"connections\":{nproc},\"params\":{},\"samples\":{},\"p99_tail_samples\":{p99_tail},\"setup_s_each\":[{}],\"timed_s\":{},\"attempted\":{},\"failed\":{failed},\"failed_share\":{},\"hits\":{},\"epochs\":{},\"reference_checked\":{},\"screened_seeds\":[{}]}}}}",
        args.kind.name(),
        args.seed,
        num(args.seconds),
        u8::from(args.trace),
        args.smoke,
        params.json(),
        timed_latency.len(),
        setup_s.iter().map(|s| num(*s)).collect::<Vec<_>>().join(","),
        num(elapsed),
        total.attempted,
        num(failed as f64 / total.attempted.max(1) as f64),
        total.hits,
        total.epochs,
        checked,
        screened.iter().map(u64::to_string).collect::<Vec<_>>().join(","),
    );
    println!("{provenance}");

    let metrics: Vec<(&str, f64, &str)> = match ledger {
        Some(values) => ledger::PER_LAYER
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect(),
        None => {
            let values = [
                stats::median(&setup_s),
                answered as f64 / elapsed,
                stats::median(&timed_latency),
                stats::quantile(&timed_latency, 0.99),
                1.0 - failed as f64 / total.attempted.max(1) as f64,
                full as f64 / answered.max(1) as f64,
                stats::peak_rss_mb(),
            ];
            END_TO_END
                .iter()
                .zip(values)
                .map(|(&(name, unit), v)| (name, v, unit))
                .collect()
        }
    };
    for (name, value, unit) in &metrics {
        eprintln!("  {name:<32} {value:>14.4} {unit}");
    }
    let body = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                num(*value)
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{body}}}}}",
        total.attempted.max(1)
    );
    Ok(())
}
