//! Statistics, attribution and the printed result.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Requests (or snippets) attempted, and how many failed, by cause.
#[derive(Clone, Copy, Default)]
pub struct Tally {
    pub attempted: u64,
    /// Error responses.
    pub errors: u64,
    /// Answers that differ from the reference.
    pub mismatched: u64,
    /// Requests still unanswered at the end of the run.
    pub unanswered: u64,
    /// Requests on connections the server refused.
    pub refused: u64,
}

impl Tally {
    pub fn add(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.errors += o.errors;
        self.mismatched += o.mismatched;
        self.unanswered += o.unanswered;
        self.refused += o.refused;
    }

    pub fn failed(&self) -> u64 {
        self.errors + self.mismatched + self.unanswered + self.refused
    }

    pub fn fail_frac(&self) -> f64 {
        ratio(self.failed() as f64, self.attempted as f64)
    }

    /// Scores one answer — the response text after its id — against the
    /// reference; true when it is correct.
    pub fn score(&mut self, suffix: &[u8], reference: &str) -> bool {
        if suffix.starts_with(b",\"ok\":false") {
            self.errors += 1;
            false
        } else if suffix != reference.as_bytes() {
            self.mismatched += 1;
            false
        } else {
            true
        }
    }
}

/// What one run measured.
pub struct Outcome {
    pub tally: Tally,
    /// The contract metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Extra lines for the human-readable report (bases of ratios, the
    /// span table).
    pub notes: Vec<String>,
    /// Extra `key: value` JSON members for the run record.
    pub record: Vec<(String, String)>,
    /// The traced run's spans.
    pub trace: Option<crate::trace::Trace>,
}

/// `a / b`, or 0 when `b` is 0, so no printed value is ever NaN.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The percentile `latency_tail_ms` reports, on every workload. With two
/// CPU hogs sharing the 2-vCPU host, served p50 rose 18–20 %, p90 27 %
/// and p99 33–40 %: p99 mostly measures how busy the host is, so it is
/// printed beside the result but not gated.
pub const TAIL_P: f64 = 90.0;

/// Nearest-rank percentile `p` (0..100) of `sorted`; 0 when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// The middle value, or the mean of the two middle values; 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Per-window figures of one run, summarised as medians over windows: a
/// stall of the shared host moves the windows it hits, not the run's
/// result.
pub struct Windowed {
    /// Each window's latencies, ms, sorted.
    pub windows: Vec<Vec<f64>>,
    /// Window length, seconds.
    pub width: f64,
}

/// Cuts `samples` — `(start, latency)` — into windows of about
/// `window_s` over `seconds` from `start`, by start time.
pub fn windowed(
    samples: &[(Instant, Duration)],
    start: Instant,
    seconds: f64,
    window_s: f64,
) -> Windowed {
    let n = ((seconds / window_s).floor() as usize).max(1);
    let width = seconds / n as f64;
    let mut windows: Vec<Vec<f64>> = vec![Vec::new(); n];
    for &(at, latency) in samples {
        let w = (at.saturating_duration_since(start).as_secs_f64() / width) as usize;
        if w < n {
            windows[w].push(latency.as_secs_f64() * 1e3);
        }
    }
    Windowed { windows: windows.into_iter().map(sorted).collect(), width }
}

impl Windowed {
    /// The median over windows of `f(window)`.
    pub fn median_of(&self, f: impl Fn(&[f64]) -> f64) -> f64 {
        median(&self.windows.iter().map(|w| f(w)).collect::<Vec<_>>())
    }

    /// Median per-window percentile `p`.
    pub fn percentile(&self, p: f64) -> f64 {
        self.median_of(|w| percentile(w, p))
    }

    /// Samples in the emptiest and the fullest window.
    pub fn sample_range(&self) -> (usize, usize) {
        let lens = self.windows.iter().map(Vec::len);
        (lens.clone().min().unwrap_or(0), lens.max().unwrap_or(0))
    }

    pub fn samples(&self) -> usize {
        self.windows.iter().map(Vec::len).sum()
    }
}

/// The repository commit, read from `.git` without running git; a
/// checkout without `.git` reports `unknown`.
pub fn git_sha() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else { return "unknown".into() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    if let Some(sha) = read(&format!(".git/{reference}")) {
        return sha;
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| l.strip_suffix(reference).map(|s| s.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The CPU brand string, from CPUID.
pub fn cpu_model() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid;
        if __cpuid(0x8000_0000).eax >= 0x8000_0004 {
            let mut bytes = Vec::with_capacity(48);
            for leaf in 0x8000_0002u32..=0x8000_0004 {
                let r = __cpuid(leaf);
                for word in [r.eax, r.ebx, r.ecx, r.edx] {
                    bytes.extend_from_slice(&word.to_le_bytes());
                }
            }
            return String::from_utf8_lossy(&bytes).trim_matches(['\0', ' ']).to_string();
        }
    }
    "unknown".into()
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn json_str(s: &str) -> String {
    format!("\"{}\"", pragformer_serve::wire::escape_json(s))
}

/// A JSON number with all its digits (Rust's shortest round-trip form).
pub fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "metric values are finite by construction");
    format!("{v}")
}

/// Prints the report, the run record, and — last — the contract line.
pub fn print(outcome: &Outcome, attribution: &[(String, String)]) {
    let t = &outcome.tally;
    println!(
        "  fail_frac {:.6} = {} failed / {} attempted ({} error responses, {} refused, \
         {} unanswered, {} mismatched)",
        t.fail_frac(),
        t.failed(),
        t.attempted,
        t.errors,
        t.refused,
        t.unanswered,
        t.mismatched
    );
    for note in &outcome.notes {
        println!("{note}");
    }
    for m in &outcome.metrics {
        println!("  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let failures = [
        ("fail_frac".to_string(), json_num(t.fail_frac())),
        ("mismatched".to_string(), t.mismatched.to_string()),
    ];
    let mut record = String::from("{\"record\":{");
    for (i, (k, v)) in attribution.iter().chain(&failures).chain(&outcome.record).enumerate() {
        let _ = write!(record, "{}{}:{v}", if i > 0 { "," } else { "" }, json_str(k));
    }
    record.push_str("}}");
    println!("{record}");

    let mut line = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        t.mismatched == 0,
        t.attempted,
        t.failed()
    );
    for (i, m) in outcome.metrics.iter().enumerate() {
        let _ = write!(
            line,
            "{}{}:{{\"value\":{},\"unit\":{}}}",
            if i > 0 { "," } else { "" },
            json_str(m.name),
            json_num(m.value),
            json_str(m.unit)
        );
    }
    line.push_str("}}");
    println!("{line}");
}
