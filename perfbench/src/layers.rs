//! Per-layer measurement: a replay of a workload's inputs through each
//! crate's public functions, timed from here, plus the counters the
//! program already exports.

use crate::inputs::SCALE;
use crate::report::{metric, ratio, Metric};
use crate::trace::Trace;
use pragformer_baselines::{analyze_snippet, Strictness};
use pragformer_core::{Advice, Advisor, PreparedSnippet};
use pragformer_corpus::generate;
use pragformer_cparse::parse_snippet;
use pragformer_model::batching::bucket_len;
use pragformer_obs as obs;
use pragformer_serve::wire;
use pragformer_tokenize::{tokens_for, Representation, Vocab};
use std::collections::{BTreeMap, HashSet};

/// Trace ids of replay spans start here, clear of request ids.
const REPLAY_TRACE: u64 = 1 << 48;

/// `(count, sum)` over every registered histogram of `family`, limited to
/// `span="<span>"` when given.
pub fn hist_totals(family: &str, span: Option<&str>) -> (f64, f64) {
    obs::histogram_snapshots()
        .iter()
        .filter(|h| h.name == family && span.is_none_or(|s| h.label("span") == Some(s)))
        .fold((0.0, 0.0), |(c, s), h| (c + h.count as f64, s + h.sum))
}

/// Seconds the serve collector spent in the advise stages so far.
pub fn collector_busy_secs() -> f64 {
    ["advise.prepare", "advise.bucket", "advise.forward"]
        .iter()
        .map(|s| hist_totals(obs::SPAN_SECONDS, Some(s)).1)
        .sum()
}

/// f32 plus int8 GEMM flops counted so far, read from the Prometheus
/// exposition (the registry has no counter snapshot API).
fn gemm_flops() -> f64 {
    obs::render_prometheus()
        .lines()
        .filter(|l| {
            l.starts_with("pragformer_gemm_flops_total")
                || l.starts_with("pragformer_int8_gemm_flops_total")
        })
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

/// A vocabulary built the way `Advisor::untrained` builds its own.
pub struct Tokenizer {
    vocab: Vocab,
    max_len: usize,
}

impl Tokenizer {
    pub fn new(seed: u64) -> Tokenizer {
        let db = generate(&SCALE.generator(seed));
        let (min_freq, max_vocab) = SCALE.vocab_limits();
        let tokens: Vec<Vec<String>> =
            db.records().iter().map(|r| tokens_for(&r.stmts, Representation::Text)).collect();
        Tokenizer {
            vocab: Vocab::build(tokens.iter(), min_freq, max_vocab),
            max_len: SCALE.model(8).max_len,
        }
    }
}

/// Replays `snippets` in chunks of `chunk` through the advisor's stages
/// and each crate's public functions, under spans parented to `parent`.
/// `lines` are the request lines the workload sent for these snippets,
/// when it served them over the wire.
pub fn replay(
    advisor: &mut Advisor,
    tokenizer: &Tokenizer,
    snippets: &[&str],
    lines: Option<&[Vec<u8>]>,
    chunk: usize,
    trace: &mut Trace,
    parent: usize,
) -> Vec<Metric> {
    let chunks: Vec<&[&str]> = snippets.chunks(chunk.max(1)).collect();
    let ids = |k: usize| REPLAY_TRACE + k as u64;

    // Pass 1, chunk by chunk: the advisor's two stages with the model's
    // work counted, then the whole `advise_batch` on the same chunk, to
    // account for its wall time (advice assembly is the stage the two do
    // not run).
    let forward_sum = || hist_totals(obs::SPAN_SECONDS, Some("advise.forward")).1;
    let post_sum = || hist_totals(obs::SPAN_SECONDS, Some("advise.post")).1;
    let (mut flops, mut forward_secs, mut post_secs) = (0.0, 0.0, 0.0);
    let (mut rows, mut forwards, mut tok_valid, mut tok_padded, mut ok) = (0, 0, 0, 0, 0);
    let mut advice: Vec<Option<Advice>> = Vec::with_capacity(snippets.len());
    for (k, c) in chunks.iter().enumerate() {
        let span = trace.open("replay.chunk", ids(k), Some(parent));
        let prepared =
            trace.time("core.prepare_batch", ids(k), Some(span), || advisor.prepare_batch(c));
        let refs: Vec<&PreparedSnippet> = prepared.iter().filter_map(|p| p.as_ref().ok()).collect();
        let (flops0, forward0) = (gemm_flops(), forward_sum());
        trace.time("core.head_probs_batch", ids(k), Some(span), || advisor.head_probs_batch(&refs));
        flops += gemm_flops() - flops0;
        forward_secs += forward_sum() - forward0;
        let post0 = post_sum();
        let out = trace.time("core.advise_batch", ids(k), Some(span), || advisor.advise_batch(c));
        post_secs += post_sum() - post0;
        advice.extend(out.into_iter().map(Result::ok));
        trace.close(span);
        // Mirror the advisor's bucketing and in-bucket dedup.
        let mut buckets: BTreeMap<usize, HashSet<Vec<usize>>> = BTreeMap::new();
        for p in &refs {
            let key = p.cache_key();
            buckets.entry(bucket_len(key.len(), advisor.max_len())).or_default().insert(key);
        }
        ok += refs.len();
        forwards += buckets.len();
        for (len, keys) in &buckets {
            rows += keys.len();
            tok_padded += keys.len() * len;
            tok_valid += keys.iter().map(Vec::len).sum::<usize>();
        }
    }

    // Pass 2: the single-snippet layers, and the wire on served workloads.
    let micro = trace.open("replay.layers", REPLAY_TRACE, Some(parent));
    for (i, src) in snippets.iter().enumerate() {
        let id = ids(i);
        let Ok(stmts) = trace.time("cparse.parse_snippet", id, Some(micro), || parse_snippet(src))
        else {
            continue;
        };
        trace.time("tokenize.encode", id, Some(micro), || {
            let tokens = tokens_for(&stmts, Representation::Text);
            std::hint::black_box(tokenizer.vocab.encode(&tokens, tokenizer.max_len));
        });
        trace.time("baselines.analyze_snippet", id, Some(micro), || {
            std::hint::black_box(analyze_snippet(src, Strictness::Strict))
        });
        if let (Some(lines), Some(a)) = (lines, &advice[i]) {
            let line = std::str::from_utf8(&lines[i]).expect("request lines are UTF-8");
            trace.time("serve.wire.parse_request", id, Some(micro), || {
                std::hint::black_box(wire::parse_request(line).expect("own request line parses"))
            });
            let result = Ok(a.clone());
            trace.time("serve.wire.format_response", id, Some(micro), || {
                std::hint::black_box(wire::format_response(i as u64, &result))
            });
        }
    }
    trace.close(micro);

    let totals = trace.totals();
    let per_snippet_us =
        |name: &str| ratio(totals.get(name).map_or(0, |t| t.total_ns) as f64 / 1e3, ok as f64);
    let mean_us = |name: &str| {
        totals.get(name).map_or(0.0, |t| ratio(t.total_ns as f64 / 1e3, t.count as f64))
    };
    let (prepare, head) =
        (per_snippet_us("core.prepare_batch"), per_snippet_us("core.head_probs_batch"));
    vec![
        metric("serve.wire_parse_us", mean_us("serve.wire.parse_request"), "us"),
        metric("serve.wire_format_us", mean_us("serve.wire.format_response"), "us"),
        metric("core.prepare_us", prepare, "us"),
        metric("core.head_probs_us", head, "us"),
        metric("core.post_us", ratio(post_secs * 1e6, ok as f64), "us"),
        metric("core.advise_batch_us", per_snippet_us("core.advise_batch"), "us"),
        metric("core.forward_share", ratio(head, prepare + head), "frac"),
        metric("cparse.parse_us", mean_us("cparse.parse_snippet"), "us"),
        metric("baselines.compar_us", mean_us("baselines.analyze_snippet"), "us"),
        metric("tokenize.encode_us", mean_us("tokenize.encode"), "us"),
        metric("model.snippets", ok as f64, "count"),
        metric("model.forwards", forwards as f64, "count"),
        metric("model.rows", rows as f64, "count"),
        metric("model.rows_per_forward", ratio(rows as f64, forwards as f64), "count"),
        metric("model.dedup_frac", 1.0 - ratio(rows as f64, ok as f64), "frac"),
        metric("model.tokens_valid", tok_valid as f64, "count"),
        metric("model.tokens_padded", tok_padded as f64, "count"),
        metric("model.valid_token_frac", ratio(tok_valid as f64, tok_padded as f64), "frac"),
        metric("tensor.gemm_flops_per_snippet", ratio(flops, ok as f64), "flop"),
        metric("tensor.gemm_gflops", ratio(flops / 1e9, forward_secs), "GFLOP/s"),
    ]
}
