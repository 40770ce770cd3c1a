//! The repository benchmark: the PragFormer advisor as its users meet
//! it, served over loopback TCP to an IDE and run in-process by a CI bot
//! sweeping translation units.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ide_open|hot_closed|ci_sweep|ci_sweep_int8> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Inputs are generated from `--seed`; every answer is checked bit for
//! bit against direct `Advisor::advise` calls on an identically seeded
//! advisor. With `--trace 0` the run prints the end-to-end metrics; with
//! `--trace 1` it prints the per-layer metrics and writes its spans to
//! `perfbench/out/`. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`. A wrong
//! answer makes the exit code 1. See `perfbench/README.md` for the
//! workloads and what each metric should move.

mod inputs;
mod layers;
mod loadgen;
mod report;
mod sweep;
mod trace;

use report::{json_str, Metric};

const WORKLOADS: [&str; 4] = ["ide_open", "hot_closed", "ci_sweep", "ci_sweep_int8"];

/// The `--trace 0` metrics, in print order.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
];

/// The `--trace 1` metrics, in print order, with their units. A layer a
/// workload does not run (the server, on a sweep) reads 0.
const PER_LAYER: [(&str, &str); 33] = [
    ("serve.requests", "count"),
    ("serve.batches", "count"),
    ("serve.batch_size_mean", "count"),
    ("serve.batch_full_frac", "frac"),
    ("serve.deadline_wait_mean_ms", "ms"),
    ("serve.queue_hwm", "count"),
    ("serve.collector_busy_frac", "frac"),
    ("serve.cache_lookups", "count"),
    ("serve.cache_hit_frac", "frac"),
    ("serve.cache_evictions", "count"),
    ("serve.wire_parse_us", "us"),
    ("serve.wire_format_us", "us"),
    ("loadgen.late_p99_ms", "ms"),
    ("core.prepare_us", "us"),
    ("core.head_probs_us", "us"),
    ("core.post_us", "us"),
    ("core.advise_batch_us", "us"),
    ("core.forward_share", "frac"),
    ("cparse.parse_us", "us"),
    ("baselines.compar_us", "us"),
    ("tokenize.encode_us", "us"),
    ("model.snippets", "count"),
    ("model.forwards", "count"),
    ("model.rows", "count"),
    ("model.rows_per_forward", "count"),
    ("model.dedup_frac", "frac"),
    ("model.tokens_valid", "count"),
    ("model.tokens_padded", "count"),
    ("model.valid_token_frac", "frac"),
    ("tensor.gemm_flops_per_snippet", "flop"),
    ("tensor.gemm_gflops", "GFLOP/s"),
    ("obs.trace_overhead_frac", "frac"),
    ("obs.spans", "count"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(i + 1).cloned().ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; one of {WORKLOADS:?}"));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args { workload, seed, seconds, trace })
}

/// Orders `metrics` as `names` lists them. Every end-to-end metric must
/// be present; an absent per-layer metric reads 0.
fn in_order(
    mut metrics: Vec<Metric>,
    names: &[(&'static str, &'static str)],
    fill: bool,
) -> Vec<Metric> {
    names
        .iter()
        .map(|&(name, unit)| match metrics.iter().position(|m| m.name == name) {
            Some(i) => {
                let m = metrics.swap_remove(i);
                assert_eq!(m.unit, unit, "unit of {name}");
                m
            }
            None if fill => report::metric(name, 0.0, unit),
            None => panic!("workload did not measure {name}"),
        })
        .collect()
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    println!(
        "perfbench: workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let mut outcome = match args.workload.as_str() {
        "ide_open" | "hot_closed" => {
            loadgen::run(&args.workload, args.seed, args.seconds, args.trace)
        }
        _ => sweep::run(&args.workload, args.seed, args.seconds, args.trace),
    };

    let metrics = std::mem::take(&mut outcome.metrics);
    outcome.metrics = if args.trace {
        let trace = outcome.trace.as_ref().expect("a traced run keeps its spans");
        let mut m = metrics;
        m.push(report::metric("obs.spans", trace.spans.len() as f64, "count"));
        in_order(m, &PER_LAYER, true)
    } else {
        in_order(metrics, &END_TO_END, false)
    };
    if let Some(trace) = &outcome.trace {
        let path = std::path::PathBuf::from(format!(
            "perfbench/out/trace-{}-seed{}.ndjson",
            args.workload, args.seed
        ));
        match trace.write(&path) {
            Ok(()) => outcome.notes.push(format!(
                "  spans: {} written to {}",
                trace.spans.len(),
                path.display()
            )),
            Err(e) => outcome.notes.push(format!("  spans: not written ({e})")),
        }
        outcome.notes.extend(trace.table());
    }

    let kernel = pragformer_tensor::kernel::describe();
    let attribution: Vec<(String, String)> = vec![
        ("workload".into(), json_str(&args.workload)),
        ("seed".into(), args.seed.to_string()),
        ("seconds".into(), report::json_num(args.seconds)),
        ("trace".into(), (args.trace as u8).to_string()),
        ("git_sha".into(), json_str(&report::git_sha())),
        ("cpu".into(), json_str(&report::cpu_model())),
        ("nproc".into(), report::nproc().to_string()),
        ("kernel".into(), json_str(&kernel)),
        ("obs_enabled".into(), pragformer_obs::enabled().to_string()),
    ];
    report::print(&outcome, &attribution);
    if outcome.tally.mismatched > 0 {
        eprintln!("perfbench: {} answers differ from the reference", outcome.tally.mismatched);
        std::process::exit(1);
    }
}
