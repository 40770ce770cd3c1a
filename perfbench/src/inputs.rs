//! Workload inputs, every one a pure function of the run seed.

use pragformer_core::{Advice, Advisor, Scale};
use pragformer_corpus::{generate, GeneratorConfig};
use pragformer_serve::{wire, ServeError};
use std::collections::HashSet;

/// The advisor every workload serves: `Advisor::untrained(SCALE, seed)`.
/// Latency does not depend on weight values, so no training run is paid.
pub const SCALE: Scale = Scale::Small;

/// Records drawn for the snippet pool. Larger than the serve cache
/// (4,096 entries), so a stream of distinct snippets misses on every
/// lookup and keeps evicting.
const CORPUS_RECORDS: usize = 12_000;

/// The loop idioms a numerical translation unit keeps repeating (the
/// set `crates/bench/benches/serve_throughput.rs` uses).
const IDIOMS: [&str; 8] = [
    "for (i = 0; i < n; i++) y[i] = alpha * x[i] + y[i];",
    "for (i = 0; i < n; i++) v[i] = v[i] / norm;",
    "s = 0.0;\nfor (i = 0; i < n; i++) s += a[i] * b[i];",
    "for (i = 0; i < n; i++) { t = a[i]; a[i] = b[i]; b[i] = t; }",
    "for (i = 0; i < n; i++)\n  for (j = 0; j < m; j++)\n    c[i][j] = a[i][j] + b[i][j];",
    "for (i = 0; i < n; i++)\n  for (j = 0; j < n; j++)\n    x1[i] = x1[i] + A[i][j] * y_1[j];",
    "acc = 0.0;\nfor (i = 0; i < n; i++) { acc += in[i]; out[i] = acc; }",
    "for (i = 1; i < n; i++)\n  for (j = 1; j < m; j++)\n    u[i][j] = 0.25 * (u[i-1][j] + u[i+1][j] + u[i][j-1] + u[i][j+1]);",
];

/// Size of the `hot_closed` popularity pool: the idioms plus the
/// shortest corpus snippets.
pub const HOT_POOL: usize = 64;

/// Zipf exponent of the `hot_closed` popularity law.
const ZIPF_S: f64 = 1.0;

/// SplitMix64: a small seeded generator, so inputs depend on nothing but
/// the seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Distinct corpus snippets (`Record::code()`), in a seeded order.
pub fn corpus_snippets(seed: u64) -> Vec<String> {
    let db =
        generate(&GeneratorConfig { target_records: CORPUS_RECORDS, seed, ..Default::default() });
    let mut seen = HashSet::new();
    let mut out: Vec<String> =
        db.records().iter().map(|r| r.code()).filter(|c| seen.insert(c.clone())).collect();
    Rng::new(seed ^ 0x5EED_C0DE).shuffle(&mut out);
    out
}

/// The `hot_closed` pool: the idioms, then the shortest distinct corpus
/// snippets, up to [`HOT_POOL`] in all.
pub fn hot_pool(corpus: &[String]) -> Vec<String> {
    let mut short: Vec<&String> = corpus.iter().filter(|c| !IDIOMS.contains(&c.as_str())).collect();
    short.sort_by(|a, b| a.len().cmp(&b.len()).then(a.cmp(b)));
    IDIOMS.iter().map(|s| s.to_string()).chain(short.into_iter().cloned()).take(HOT_POOL).collect()
}

/// Zipf sampler over `n` items whose popularity ranks are shuffled by
/// the seed.
pub struct Zipf {
    cdf: Vec<f64>,
    item_of_rank: Vec<usize>,
}

impl Zipf {
    pub fn new(n: usize, seed: u64) -> Zipf {
        let weights: Vec<f64> = (1..=n).map(|r| 1.0 / (r as f64).powf(ZIPF_S)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        let mut item_of_rank: Vec<usize> = (0..n).collect();
        Rng::new(seed ^ 0x21BF).shuffle(&mut item_of_rank);
        Zipf { cdf, item_of_rank }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        let rank = self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1);
        self.item_of_rank[rank]
    }
}

/// Poisson arrival offsets (seconds) at `rate` per second over
/// `[0, seconds)`.
pub fn poisson_schedule(rate: f64, seconds: f64, seed: u64) -> Vec<f64> {
    let mut rng = Rng::new(seed ^ 0xA771_7A15);
    let mut t = 0.0;
    let mut out = Vec::with_capacity((rate * seconds * 1.1) as usize);
    loop {
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= seconds {
            return out;
        }
        out.push(t);
    }
}

/// One NDJSON request line, newline included.
pub fn request_line(id: u64, code: &str) -> Vec<u8> {
    format!("{{\"id\":{id},\"code\":\"{}\"}}\n", wire::escape_json(code)).into_bytes()
}

/// The part of a response line after its id: `format_response` prints
/// floats in shortest round-trip form, so two suffixes are equal exactly
/// when every field, every probability bit included, is equal.
pub fn response_suffix(result: Result<Advice, ServeError>) -> String {
    let line = wire::format_response(0, &result);
    line.strip_prefix("{\"id\":0").expect("format_response starts with the id").to_string()
}

/// Reference answers from direct `Advisor::advise` calls, as response
/// suffixes, one per snippet.
pub fn reference_suffixes(advisor: &mut Advisor, snippets: &[String]) -> Vec<String> {
    snippets.iter().map(|s| response_suffix(advisor.advise(s).map_err(ServeError::Parse))).collect()
}

/// Splits a response line into its id and the suffix after it.
pub fn split_response(line: &[u8]) -> Option<(u64, &[u8])> {
    let rest = line.strip_prefix(b"{\"id\":")?;
    let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
    let id = std::str::from_utf8(&rest[..digits]).ok()?.parse().ok()?;
    Some((id, &rest[digits..]))
}
