//! The in-process workloads: a CI bot advising whole translation units
//! with `Advisor::advise_batch`, from one caller thread, no server.
//! `ci_sweep_int8` runs the same inputs with the int8 kernel tier
//! selected before the advisor is built.

use crate::inputs::{self, SCALE};
use crate::layers::{self, Tokenizer};
use crate::loadgen::SETUPS;
use crate::report::{median, metric, ratio, windowed, Outcome, Tally, Windowed, TAIL_P};
use crate::trace::Trace;
use pragformer_core::{Advisor, KernelTier};
use pragformer_serve::ServeError;
use std::time::{Duration, Instant};

/// Distinct snippets per translation unit.
const TU_SNIPPETS: usize = 64;

/// Translation units in the pool; the sweep cycles through them.
const TU_COUNT: usize = 32;

/// Sweeps are cut into windows of this many seconds: about 150
/// `advise_batch` calls each, so p90 has at least 10 samples beyond it.
const WINDOW_S: f64 = 4.0;

/// What the sweep saw.
struct Sweep {
    start: Instant,
    seconds: f64,
    /// Start and duration of each `advise_batch` call.
    calls: Vec<(Instant, Duration)>,
    tally: Tally,
}

/// Advises the translation units round-robin for `seconds`, checking
/// every answer against the reference outside the timed call.
fn sweep(
    advisor: &mut Advisor,
    tus: &[Vec<&str>],
    refs: &[String],
    seconds: f64,
    mut trace: Option<&mut Trace>,
) -> Sweep {
    let start = Instant::now();
    let mut s = Sweep { start, seconds, calls: Vec::new(), tally: Tally::default() };
    let mut k = 0;
    while start.elapsed().as_secs_f64() < seconds {
        let tu = &tus[k % tus.len()];
        let t0 = Instant::now();
        let out = advisor.advise_batch(tu);
        let t1 = Instant::now();
        if let Some(t) = trace.as_mut() {
            t.record("client.advise_batch", k as u64, None, t0, t1);
        }
        s.calls.push((t0, t1 - t0));
        let base = (k % tus.len()) * TU_SNIPPETS;
        for (j, result) in out.into_iter().enumerate() {
            s.tally.attempted += 1;
            let got = inputs::response_suffix(result.map_err(ServeError::Parse));
            s.tally.score(got.as_bytes(), &refs[base + j]);
        }
        k += 1;
    }
    s
}

impl Sweep {
    fn windowed(&self) -> Windowed {
        windowed(&self.calls, self.start, self.seconds, WINDOW_S)
    }

    /// Each window's snippets per second of `advise_batch` time.
    fn window_throughputs(&self) -> Vec<f64> {
        let w = self.windowed();
        w.windows
            .iter()
            .map(|ms| ratio((ms.len() * TU_SNIPPETS) as f64, ms.iter().sum::<f64>() / 1e3))
            .collect()
    }

    /// Median per-window snippets per second of `advise_batch` time.
    fn throughput(&self) -> f64 {
        median(&self.window_throughputs())
    }
}

/// Runs `ci_sweep` or `ci_sweep_int8`.
pub fn run(workload: &str, seed: u64, seconds: f64, traced: bool) -> Outcome {
    if workload == "ci_sweep_int8" {
        pragformer_tensor::kernel::set_tier(KernelTier::Int8).expect("the int8 tier runs anywhere");
    }
    // Set-up is the advisor build alone; the first advisor answers the
    // reference calls, the last one is measured.
    let mut times = Vec::new();
    let mut advisors: Vec<Advisor> = (0..SETUPS)
        .map(|_| {
            let t = Instant::now();
            let a = Advisor::untrained(SCALE, seed);
            times.push(t.elapsed().as_secs_f64());
            a
        })
        .collect();
    let mut advisor = advisors.pop().expect("SETUPS > 0");
    let mut reference = advisors.swap_remove(0);

    let corpus = inputs::corpus_snippets(seed);
    let pool = &corpus[..TU_COUNT * TU_SNIPPETS];
    let refs = inputs::reference_suffixes(&mut reference, pool);
    let tus: Vec<Vec<&str>> =
        pool.chunks(TU_SNIPPETS).map(|c| c.iter().map(String::as_str).collect()).collect();

    let lengths = if traced { vec![seconds / 2.0; 2] } else { vec![seconds] };
    let mut trace = traced.then(|| Trace::new(Instant::now()));
    let runs: Vec<Sweep> = lengths
        .iter()
        .enumerate()
        .map(|(i, &len)| sweep(&mut advisor, &tus, &refs, len, trace.as_mut().filter(|_| i == 1)))
        .collect();

    let mut tally = Tally::default();
    for r in &runs {
        tally.add(r.tally);
    }
    let mut notes = Vec::new();
    let mut record = vec![("tu_snippets".to_string(), TU_SNIPPETS.to_string())];
    let metrics = if let Some(trace) = trace.as_mut() {
        let overhead = 1.0 - ratio(runs[1].throughput(), runs[0].throughput());
        let replay: Vec<&str> = pool.iter().map(String::as_str).collect();
        let tokenizer = Tokenizer::new(seed);
        let root = trace.open("replay", 0, None);
        let mut m =
            layers::replay(&mut reference, &tokenizer, &replay, None, TU_SNIPPETS, trace, root);
        trace.close(root);
        notes.push(format!(
            "  replay: {} snippets in translation units of {TU_SNIPPETS}",
            replay.len()
        ));
        m.push(metric("obs.trace_overhead_frac", overhead, "frac"));
        m
    } else {
        let w = runs[0].windowed();
        let (fewest, most) = w.sample_range();
        notes.push(format!(
            "  {} advise_batch calls in {} windows of {fewest}..{most}; per-window medians: \
             p50 {:.3} ms, p{TAIL_P} {:.3} ms (latency_tail_ms)",
            w.samples(),
            w.windows.len(),
            w.percentile(50.0),
            w.percentile(TAIL_P)
        ));
        let per_window: Vec<String> =
            runs[0].window_throughputs().iter().map(|t| format!("{t:.0}")).collect();
        notes.push(format!("  per-window throughput: {}", per_window.join(" ")));
        record.push(("samples".to_string(), w.samples().to_string()));
        record.push(("windows".to_string(), w.windows.len().to_string()));
        record.push(("window_throughputs".to_string(), format!("[{}]", per_window.join(","))));
        record.push(("tail_percentile".to_string(), TAIL_P.to_string()));
        vec![
            metric("setup_s", median(&times), "s"),
            metric("throughput_rps", runs[0].throughput(), "1/s"),
            metric("latency_p50_ms", w.percentile(50.0), "ms"),
            metric("latency_tail_ms", w.percentile(TAIL_P), "ms"),
        ]
    };
    Outcome { tally, metrics, notes, record, trace }
}
