//! End-to-end and per-layer wall-clock benchmark of the qurk engine.
//!
//! ```text
//! qurk-perfbench --workload <join-sort|service-mix|serve-wire>
//!                --seed N --seconds S --trace <0|1> [--serve-bin PATH]
//! ```
//!
//! Every workload is a closed loop driven by one client thread. With
//! `--trace 0` the run prints the end-to-end metrics; with `--trace 1`
//! it prints the per-layer metrics, timed from outside the engine: a
//! timing `CrowdBackend` around the marketplace, direct calls into the
//! front-end functions, and client-side timing of `qurk-serve`. The
//! last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `BENCHMARK.json`
//! at the repository root lists the workloads and metrics.

mod frontend;
mod join_sort;
mod measure;
mod serve_wire;
mod service_mix;
mod timing;

use std::process::ExitCode;

use measure::RunResult;

/// End-to-end metrics, printed by every workload with `--trace 0`.
const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("op_s.p50", "s"),
    ("op_s.tail", "s"),
    ("ops_per_s", "1/s"),
    ("hits", "count"),
    ("dollars", "USD"),
    ("quality", "ratio"),
    ("success_rate", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`. A
/// layer a workload cannot observe reads 0.
const PER_LAYER: [(&str, &str); 36] = [
    ("crowd.market.run_s", "s"),
    ("crowd.market.post_s", "s"),
    ("crowd.market.assignments_s", "s"),
    ("crowd.market.calls", "count"),
    ("crowd.market.ns_per_hit", "ns"),
    ("crowd.market.share", "ratio"),
    ("crowd.market.ns_per_hit_growth", "ratio"),
    ("crowd.virtual_s", "s"),
    ("lang.parse_us", "us"),
    ("plan.plan_us", "us"),
    ("opt.compile_ms", "ms"),
    ("analyze.ms", "ms"),
    ("ops.sort.plan_groups_ms", "ms"),
    ("frontend.share", "ratio"),
    ("session.report_s", "s"),
    ("engine.self_s", "s"),
    ("service.submit_us", "us"),
    ("service.run_pending_s", "s"),
    ("service.machine_s", "s"),
    ("service.rounds", "count"),
    ("service.rounds_shared", "count"),
    ("service.cache_hits", "count"),
    ("service.cache_misses", "count"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.cache_evictions", "count"),
    ("service.queue_wait_virtual_s", "s"),
    ("store.bytes_per_query", "B"),
    ("store.open_s", "s"),
    ("store.recover_s", "s"),
    ("relation.build_s", "s"),
    ("relation.rss_mb", "MB"),
    ("serve.rtt_us.query", "us"),
    ("serve.rtt_us.run", "us"),
    ("serve.rtt_us.stats", "us"),
    ("protocol.frame_us", "us"),
    ("trace.overhead", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// The `qurk-serve` binary; `serve-wire` needs it.
    serve_bin: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut serve_bin = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("seconds must be positive, got {value:?}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            "--serve-bin" => serve_bin = Some(value),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        serve_bin,
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("qurk-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result: RunResult = match args.workload.as_str() {
        "join-sort" => join_sort::run(args.seed, args.seconds, args.trace),
        "service-mix" => service_mix::run(args.seed, args.seconds, args.trace),
        "serve-wire" => {
            let Some(bin) = &args.serve_bin else {
                eprintln!("qurk-perfbench: serve-wire requires --serve-bin");
                return ExitCode::from(2);
            };
            match serve_wire::run(bin, args.seed, args.seconds, args.trace) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("qurk-perfbench: serve-wire: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        other => {
            eprintln!("qurk-perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };

    let failed = result.failed_ops + result.checks.failures.len() as u64;
    let attempted = result.attempted.max(1);
    let mut metrics = result.metrics;
    metrics.set(
        "success_rate",
        (1.0 - failed as f64 / attempted as f64).max(0.0),
    );
    let unit_of = |name: &str| {
        END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .find(|&&(n, _)| n == name)
            .map(|&(_, unit)| unit)
    };
    let unknown: Vec<&str> = metrics
        .0
        .iter()
        .map(|(n, _)| n.as_str())
        .filter(|n| unit_of(n).is_none())
        .collect();
    if !unknown.is_empty() {
        eprintln!("qurk-perfbench: metrics missing from the metric tables: {unknown:?}");
        return ExitCode::FAILURE;
    }
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let fields: Vec<String> = wanted
        .iter()
        .map(|&(name, unit)| {
            let value = metrics
                .0
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0.0, |m| m.1);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            )
        })
        .collect();

    for note in &result.notes {
        println!("# {note}");
    }
    for (name, value) in &metrics.0 {
        println!("# {name} = {value} {}", unit_of(name).unwrap_or_default());
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables and `BENCHMARK.json` name the same metrics
    /// with the same units.
    #[test]
    fn tables_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\",");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            json.matches("{\"name\": ").count(),
            END_TO_END.len() + PER_LAYER.len() + json.matches("\"why\": ").count(),
            "BENCHMARK.json names a metric the tables lack"
        );
    }
}
