//! The on-the-fly parallelization advisor (§2.1 of the paper).
//!
//! The paper positions PragFormer as "an immediate 'advisor' for
//! developers to identify locations that can benefit from an OpenMP
//! directive", optionally cross-checked against an S2S compiler ("in
//! cases both the model and the S2S compilers agree on a directive, it
//! will remain"). [`Advisor`] packages exactly that: three fine-tuned
//! classifiers (directive / private / reduction) plus the ComPar-style
//! engine for agreement checks and clause-variable synthesis.
//!
//! ## Batched advising
//!
//! A CI bot or IDE sweep asks about *every* loop of a translation unit at
//! once, so [`Advisor::advise_batch`] is the primary entry point:
//!
//! 1. snippets are parsed, tokenized, encoded and dependence-analyzed in
//!    parallel on the persistent thread pool;
//! 2. encoded sequences are **bucketed by padded length** (the smallest
//!    power of two ≥ the token count, capped at `max_len`), so short
//!    loops don't pay `max_len²` attention;
//! 3. within a bucket, **identical encoded sequences are deduplicated**
//!    — repeated loop idioms (ubiquitous in real translation units) are
//!    classified once and the result fanned out;
//! 4. each bucket runs through the directive/private/reduction heads as
//!    one batched forward each — three large GEMM pipelines instead of
//!    `3 × batch` small ones.
//!
//! Because every kernel is bitwise-deterministic per row regardless of
//! batch size and padding length (see `pragformer_tensor::ops`), the
//! returned [`Advice`] — including every probability, bit for bit — is
//! identical to what per-snippet [`Advisor::advise`] calls would produce.
//! [`Advisor::advise`] is in fact a batch of one.

use crate::encode::encode_dataset;
use crate::scale::Scale;
use pragformer_baselines::compar::analyze_stmts;
use pragformer_baselines::{check_tokens, ComparResult, Strictness};
use pragformer_corpus::{generate, ClauseKind, Database, Dataset};
use pragformer_cparse::omp::{OmpClause, OmpDirective};
use pragformer_cparse::{lex, parse_tokens, ParseError};
use pragformer_model::multitask::{self, MultiTaskConfig, MultiTaskExample, Task};
use pragformer_model::trainer::Trainer;
use pragformer_model::{MultiTaskPragFormer, PragFormer, TrunkWeightBytes};
use pragformer_obs as obs;
use pragformer_tensor::init::SeededRng;
use pragformer_tensor::kernel::KernelTier;
use pragformer_tensor::parallel::par_map_indexed;
use pragformer_tokenize::{encode_text, tokens_for, Representation, Vocab};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Advice for one code snippet.
#[derive(Clone, Debug)]
pub struct Advice {
    /// Should this loop get `#pragma omp parallel for`?
    pub needs_directive: bool,
    /// Model probability behind `needs_directive`.
    pub confidence: f32,
    /// Probability a `private` clause is needed (only meaningful when
    /// `needs_directive`).
    pub private_probability: f32,
    /// Probability a `reduction` clause is needed.
    pub reduction_probability: f32,
    /// Whether the deterministic S2S engine agrees a directive fits
    /// (`None` when it failed to parse the snippet).
    pub compar_agrees: Option<bool>,
    /// A synthesized directive: presence decided by the model, clause
    /// *variables* filled in from the S2S analysis when available.
    pub suggestion: Option<OmpDirective>,
}

/// The three head probabilities for one snippet — the model output an
/// [`Advice`] is assembled from.
///
/// This is exactly the data a serving layer may cache: it depends only on
/// the encoded id sequence (see [`PreparedSnippet::cache_key`]), never on
/// the surrounding batch, so a cached value is bitwise-equal to a fresh
/// forward of the same snippet.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HeadProbs {
    /// P(needs `#pragma omp parallel for`).
    pub directive: f32,
    /// P(needs a `private` clause).
    pub private: f32,
    /// P(needs a `reduction` clause).
    pub reduction: f32,
}

/// The front-end result for one snippet: encoded ids plus the S2S
/// dependence analysis, ready for a batched forward.
///
/// Produced by [`Advisor::prepare_batch`]; consumed by
/// [`Advisor::head_probs_batch`]. Splitting the pipeline here lets a
/// serving layer interpose a cross-request cache between the (cheap,
/// stateless) front-end and the (expensive) model forwards.
pub struct PreparedSnippet {
    /// Ids padded to `max_len` (buckets slice a prefix).
    ids: Vec<usize>,
    /// Count of meaningful leading ids; everything after is PAD.
    valid: usize,
    /// The ComPar-style dependence analysis of the source text.
    compar: ComparResult,
}

impl PreparedSnippet {
    /// The key under which this snippet's [`HeadProbs`] may be cached:
    /// the valid prefix of the encoded id sequence.
    ///
    /// Padding is deterministic (always the PAD id, to `max_len`) and the
    /// kernels are bitwise padding-invariant, so two snippets with equal
    /// valid prefixes — regardless of whitespace, comments, or identifier
    /// spelling that tokenizes identically — produce bit-identical
    /// probabilities. This is the in-batch dedup key of
    /// [`Advisor::advise_batch`], generalized across requests.
    pub fn cache_key(&self) -> Vec<usize> {
        self.ids[..self.valid].to_vec()
    }

    /// The S2S dependence-analysis result for this snippet.
    pub fn compar(&self) -> &ComparResult {
        &self.compar
    }
}

/// Which model architecture backs an [`Advisor`].
///
/// Both backends share the tokenizer, bucketing, dedup, ComPar engine,
/// wire formats and [`PreparedSnippet::cache_key`] semantics; they differ
/// only in how the three head probabilities are produced.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AdvisorBackend {
    /// The paper-faithful ensemble: three complete [`PragFormer`] models,
    /// three full transformer forwards per snippet.
    PerHead,
    /// One shared [`MultiTaskPragFormer`] trunk with three classifier
    /// heads: **one** transformer forward per snippet plus three cheap
    /// head projections (~3× less inference compute and weights). The
    /// default.
    #[default]
    SharedTrunk,
}

impl AdvisorBackend {
    /// Parses `per-head` / `shared-trunk` (CLI flags).
    pub fn parse(s: &str) -> Option<AdvisorBackend> {
        match s {
            "per-head" => Some(AdvisorBackend::PerHead),
            "shared-trunk" => Some(AdvisorBackend::SharedTrunk),
            _ => None,
        }
    }

    /// Stable lowercase name (metric labels, logs) — the inverse of
    /// [`AdvisorBackend::parse`].
    pub fn name(self) -> &'static str {
        match self {
            AdvisorBackend::PerHead => "per-head",
            AdvisorBackend::SharedTrunk => "shared-trunk",
        }
    }
}

/// Cached observability handles for one `(backend, kernel tier)` pair:
/// the four per-stage span histograms
/// (`pragformer_span_seconds{span="advise.*", backend, tier}`) plus the
/// per-backend snippet counters. The registry is consulted once per pair
/// (a lock plus allocations); every later batch reuses the `Arc`s
/// wait-free. Returns `None` when observability is disabled, so the
/// disabled hot path is a single atomic load with no clock reads.
struct StageObs {
    prepare: Arc<obs::Histogram>,
    bucket: Arc<obs::Histogram>,
    forward: Arc<obs::Histogram>,
    post: Arc<obs::Histogram>,
    snippets: Arc<obs::Counter>,
    parse_errors: Arc<obs::Counter>,
}

impl StageObs {
    fn get(backend: AdvisorBackend, tier: KernelTier) -> Option<&'static StageObs> {
        if !obs::enabled() {
            return None;
        }
        static CELLS: [[OnceLock<StageObs>; 2]; 3] = [const { [const { OnceLock::new() }; 2] }; 3];
        let t = match tier {
            KernelTier::Scalar => 0,
            KernelTier::Avx2 => 1,
            KernelTier::Int8 => 2,
        };
        let b = match backend {
            AdvisorBackend::PerHead => 0,
            AdvisorBackend::SharedTrunk => 1,
        };
        Some(CELLS[t][b].get_or_init(|| {
            let labels = [("backend", backend.name()), ("tier", tier.name())];
            StageObs {
                prepare: obs::span_histogram("advise.prepare", &labels),
                bucket: obs::span_histogram("advise.bucket", &labels),
                forward: obs::span_histogram("advise.forward", &labels),
                post: obs::span_histogram("advise.post", &labels),
                snippets: obs::counter(
                    "pragformer_advise_snippets_total",
                    "Snippets through the advise front-end",
                    &[("backend", backend.name())],
                ),
                parse_errors: obs::counter(
                    "pragformer_advise_parse_errors_total",
                    "Snippets that failed to parse",
                    &[("backend", backend.name())],
                ),
            }
        }))
    }
}

/// The models behind an advisor — one variant per [`AdvisorBackend`].
/// Boxed: a model is a page-plus of inline layer state, and the enum
/// lives inside every `Advisor` moved across threads by the serve layer.
enum Models {
    PerHead { directive: Box<PragFormer>, private: Box<PragFormer>, reduction: Box<PragFormer> },
    SharedTrunk(Box<MultiTaskPragFormer>),
}

/// A trained advisor.
pub struct Advisor {
    vocab: Vocab,
    models: Models,
    max_len: usize,
}

/// The exact `(directive, private, reduction)` datasets
/// [`Advisor::train_backend`] fits on — one constructor shared with the
/// backend-parity experiment, so its held-out test splits can never
/// drift out of sync with what the models trained on.
pub(crate) fn training_datasets(
    db: &Database,
    seed: u64,
) -> (Dataset<'_>, Dataset<'_>, Dataset<'_>) {
    (
        Dataset::directive(db, seed),
        Dataset::clause(db, ClauseKind::Private, seed ^ 0xAAAA).balanced(seed ^ 0xAAAA ^ 1),
        Dataset::clause(db, ClauseKind::Reduction, seed ^ 0xBBBB).balanced(seed ^ 0xBBBB ^ 1),
    )
}

impl Advisor {
    /// Trains the default ([`AdvisorBackend::SharedTrunk`]) advisor on a
    /// database.
    pub fn train(db: &Database, scale: Scale, seed: u64) -> Advisor {
        Advisor::train_backend(db, scale, seed, AdvisorBackend::default())
    }

    /// Trains an advisor with an explicit backend.
    ///
    /// Both backends train on identical datasets and a shared vocabulary
    /// (built from the directive task's training split): the directive
    /// task over the full corpus plus the balanced `private`/`reduction`
    /// clause subsets. `PerHead` fits three separate models sequentially;
    /// `SharedTrunk` interleaves the three datasets through the
    /// multi-task engine ([`pragformer_model::multitask::fit`]) with a
    /// seeded deterministic task schedule.
    pub fn train_backend(
        db: &Database,
        scale: Scale,
        seed: u64,
        backend: AdvisorBackend,
    ) -> Advisor {
        let (min_freq, max_vocab) = scale.vocab_limits();
        let max_len = scale.model(8).max_len;

        let (directive_ds, private_ds, reduction_ds) = training_datasets(db, seed);
        let enc =
            encode_dataset(db, &directive_ds, Representation::Text, max_len, min_freq, max_vocab);
        let mut rng = SeededRng::new(seed);
        let model_cfg = scale.model(enc.vocab.len());

        // Tokenize + encode every record exactly once with the shared
        // vocabulary; the clause datasets (and their balanced subsets,
        // which overlap heavily) index into this instead of re-running
        // the tokenizer per head × example. Lazy per slot: records no
        // clause dataset touches are never encoded.
        let mut record_enc: Vec<Option<(Vec<usize>, usize)>> = vec![None; db.records().len()];
        let mut encode_examples =
            |examples: &[pragformer_corpus::Example]| -> Vec<(Vec<usize>, usize, bool)> {
                examples
                    .iter()
                    .map(|ex| {
                        let (ids, valid) = record_enc[ex.record]
                            .get_or_insert_with(|| {
                                let toks = tokens_for(
                                    &db.records()[ex.record].stmts,
                                    Representation::Text,
                                );
                                enc.vocab.encode(&toks, max_len)
                            })
                            .clone();
                        (ids, valid, ex.label)
                    })
                    .collect()
            };
        let private_train = encode_examples(&private_ds.split.train);
        let private_valid = encode_examples(&private_ds.split.valid);
        let reduction_train = encode_examples(&reduction_ds.split.train);
        let reduction_valid = encode_examples(&reduction_ds.split.valid);

        let models = match backend {
            AdvisorBackend::PerHead => {
                let trainer = Trainer::new(scale.train(seed));
                let mut directive = PragFormer::new(&model_cfg, &mut rng);
                trainer.fit(&mut directive, &enc.train, &enc.valid);
                let mut train_clause = |train: &[(Vec<usize>, usize, bool)],
                                        valid: &[(Vec<usize>, usize, bool)]|
                 -> PragFormer {
                    let mut model = PragFormer::new(&model_cfg, &mut rng);
                    let to_examples = |set: &[(Vec<usize>, usize, bool)]| {
                        set.iter()
                            .map(|(ids, valid, label)| {
                                pragformer_model::trainer::EncodedExample::new(
                                    ids.clone(),
                                    *valid,
                                    *label,
                                )
                            })
                            .collect::<Vec<_>>()
                    };
                    let train = to_examples(train);
                    if train.is_empty() {
                        return model; // degenerate corpus (tests); untrained
                    }
                    trainer.fit(&mut model, &train, &to_examples(valid));
                    model
                };
                let private = train_clause(&private_train, &private_valid);
                let reduction = train_clause(&reduction_train, &reduction_valid);
                Models::PerHead {
                    directive: Box::new(directive),
                    private: Box::new(private),
                    reduction: Box::new(reduction),
                }
            }
            AdvisorBackend::SharedTrunk => {
                let mut model = MultiTaskPragFormer::new(&model_cfg, &mut rng);
                let mut train: Vec<MultiTaskExample> = Vec::new();
                let mut valid: Vec<MultiTaskExample> = Vec::new();
                for ex in &enc.train {
                    train.push(MultiTaskExample {
                        ids: ex.ids.clone(),
                        label: ex.label,
                        task: Task::Directive,
                    });
                }
                for ex in &enc.valid {
                    valid.push(MultiTaskExample {
                        ids: ex.ids.clone(),
                        label: ex.label,
                        task: Task::Directive,
                    });
                }
                let push = |set: &mut Vec<MultiTaskExample>,
                            src: &[(Vec<usize>, usize, bool)],
                            task: Task| {
                    for (ids, valid, label) in src {
                        set.push(MultiTaskExample::new(ids.clone(), *valid, *label, task));
                    }
                };
                push(&mut train, &private_train, Task::Private);
                push(&mut valid, &private_valid, Task::Private);
                push(&mut train, &reduction_train, Task::Reduction);
                push(&mut valid, &reduction_valid, Task::Reduction);
                if !train.is_empty() {
                    let cfg = MultiTaskConfig { train: scale.train(seed), weights: [1.0; 3] };
                    multitask::fit(&mut model, &cfg, &train, &valid);
                }
                Models::SharedTrunk(Box::new(model))
            }
        };

        let mut advisor = Advisor { vocab: enc.vocab, models, max_len };
        // Training is over; everything from here is inference. Pack (or
        // quantize) eagerly so the first request pays no one-time cost.
        advisor.prepack_for_inference();
        advisor
    }

    /// Convenience: generate a corpus and train, in one call.
    pub fn train_from_scratch(scale: Scale, seed: u64) -> Advisor {
        let db = generate(&scale.generator(seed));
        Advisor::train(&db, scale, seed)
    }

    /// The backend this advisor runs on.
    pub fn backend(&self) -> AdvisorBackend {
        match &self.models {
            Models::PerHead { .. } => AdvisorBackend::PerHead,
            Models::SharedTrunk(_) => AdvisorBackend::SharedTrunk,
        }
    }

    /// The process-wide kernel tier the advisor's GEMMs dispatch on
    /// (reported by serve/CLI startup lines and experiment logs).
    pub fn kernel_tier(&self) -> KernelTier {
        pragformer_tensor::kernel::active_tier()
    }

    /// Advisor-local int8 override, forwarded to every backing trunk:
    /// `Some(true)` runs quantized trunk inference, `Some(false)` forces
    /// f32, `None` follows the process kernel tier. Model-local, so
    /// parity harnesses can compare both paths without flipping the
    /// global tier under other threads.
    pub fn set_int8(&mut self, force: Option<bool>) {
        match &mut self.models {
            Models::PerHead { directive, private, reduction } => {
                directive.set_int8_override(force);
                private.set_int8_override(force);
                reduction.set_int8_override(force);
            }
            Models::SharedTrunk(model) => model.set_int8_override(force),
        }
    }

    /// Advisor-local pre-packing override, forwarded to every backing
    /// trunk: `Some(true)` runs zero-repack f32 inference, `Some(false)`
    /// forces pack-per-call, `None` follows the process-wide
    /// `PRAGFORMER_PREPACK` switch. Either way every probability is
    /// bitwise identical — packing moves work, never bits.
    pub fn set_prepack(&mut self, force: Option<bool>) {
        match &mut self.models {
            Models::PerHead { directive, private, reduction } => {
                directive.set_prepack_override(force);
                private.set_prepack_override(force);
                reduction.set_prepack_override(force);
            }
            Models::SharedTrunk(model) => model.set_prepack_override(force),
        }
    }

    /// Advisor-local fused-attention override, forwarded to every
    /// backing trunk: `Some(true)` runs the fused QKV +
    /// single-pass-softmax fast path, `Some(false)` the legacy split
    /// path, `None` follows the process-wide `PRAGFORMER_ATTN` switch.
    /// Either way every probability is bitwise identical per kernel
    /// tier — fusion moves work, never bits.
    pub fn set_attn_fused(&mut self, force: Option<bool>) {
        match &mut self.models {
            Models::PerHead { directive, private, reduction } => {
                directive.set_attn_fused_override(force);
                private.set_attn_fused_override(force);
                reduction.set_attn_fused_override(force);
            }
            Models::SharedTrunk(model) => model.set_attn_fused_override(force),
        }
    }

    /// Bytes retained by attention backward caches across every backing
    /// trunk. The advise path runs eval-mode (cache-free) forwards only,
    /// so this is always zero for a serving advisor — the invariant the
    /// `profile_advise` example asserts in steady state.
    pub fn retained_attention_bytes(&self) -> usize {
        match &self.models {
            Models::PerHead { directive, private, reduction } => {
                directive.retained_attention_bytes()
                    + private.retained_attention_bytes()
                    + reduction.retained_attention_bytes()
            }
            Models::SharedTrunk(model) => model.retained_attention_bytes(),
        }
    }

    /// Eagerly builds the inference weight caches every backing model
    /// would build on its first eval forward (packed f32 panels, or int8
    /// copies under that tier), so the first advise request pays no
    /// one-time pack cost. Construction calls this; it is idempotent.
    pub fn prepack_for_inference(&mut self) {
        match &mut self.models {
            Models::PerHead { directive, private, reduction } => {
                directive.prepack_for_inference();
                private.prepack_for_inference();
                reduction.prepack_for_inference();
            }
            Models::SharedTrunk(model) => model.prepack_for_inference(),
        }
    }

    /// Static f32-vs-int8 weight accounting over the advisor's trunk(s):
    /// `(f32_bytes, int8_bytes)` summed across backing models.
    pub fn trunk_weight_bytes(&self) -> (usize, usize) {
        let sum = |parts: &[TrunkWeightBytes]| {
            parts.iter().fold((0usize, 0usize), |(a, b), w| (a + w.f32_bytes, b + w.int8_bytes))
        };
        match &self.models {
            Models::PerHead { directive, private, reduction } => sum(&[
                directive.trunk_weight_bytes(),
                private.trunk_weight_bytes(),
                reduction.trunk_weight_bytes(),
            ]),
            Models::SharedTrunk(model) => sum(&[model.trunk_weight_bytes()]),
        }
    }

    /// Builds an advisor with freshly initialized, **untrained** weights
    /// on the default backend.
    ///
    /// Inference latency does not depend on weight values, so benchmarks
    /// (`pragformer-bench`'s `inference_latency`) use this to measure the
    /// advise path without paying a training run. Predictions are
    /// meaningless; everything else (tokenizer, bucketing, batching,
    /// ComPar agreement) behaves exactly like a trained advisor.
    pub fn untrained(scale: Scale, seed: u64) -> Advisor {
        Advisor::untrained_backend(scale, seed, AdvisorBackend::default())
    }

    /// [`Advisor::untrained`] with an explicit backend (benchmarks use
    /// this to compare `PerHead` and `SharedTrunk` inference cost).
    pub fn untrained_backend(scale: Scale, seed: u64, backend: AdvisorBackend) -> Advisor {
        let db = generate(&scale.generator(seed));
        let (min_freq, max_vocab) = scale.vocab_limits();
        let max_len = scale.model(8).max_len;
        let tokens: Vec<Vec<String>> =
            db.records().iter().map(|r| tokens_for(&r.stmts, Representation::Text)).collect();
        let vocab = Vocab::build(tokens.iter(), min_freq, max_vocab);
        let cfg = scale.model(vocab.len());
        let mut rng = SeededRng::new(seed);
        let models = match backend {
            AdvisorBackend::PerHead => Models::PerHead {
                directive: Box::new(PragFormer::new(&cfg, &mut rng)),
                private: Box::new(PragFormer::new(&cfg, &mut rng)),
                reduction: Box::new(PragFormer::new(&cfg, &mut rng)),
            },
            AdvisorBackend::SharedTrunk => {
                Models::SharedTrunk(Box::new(MultiTaskPragFormer::new(&cfg, &mut rng)))
            }
        };
        let mut advisor = Advisor { vocab, models, max_len };
        advisor.prepack_for_inference();
        advisor
    }

    /// Classifies a C snippet. Errors if the snippet does not parse.
    ///
    /// Equivalent to — and implemented as — [`Advisor::advise_batch`]
    /// over a batch of one.
    pub fn advise(&mut self, source: &str) -> Result<Advice, ParseError> {
        self.advise_batch(&[source]).pop().expect("advise_batch returns one result per snippet")
    }

    /// Classifies a whole batch of C snippets in one pass.
    ///
    /// Returns one `Result` per input snippet, in input order; snippets
    /// that fail to parse report their [`ParseError`] without affecting
    /// the rest of the batch.
    ///
    /// The pipeline: parallel parse/tokenize/encode + ComPar dependence
    /// analysis on the persistent thread pool, then one batched forward
    /// per (length bucket × model head). Probabilities are **bitwise
    /// identical** to per-snippet [`Advisor::advise`] calls — batching
    /// and length-bucketing never change an answer (see the module docs).
    pub fn advise_batch(&mut self, sources: &[&str]) -> Vec<Result<Advice, ParseError>> {
        // Phase 0 — dedup by source text: repeated snippets (ubiquitous
        // in real translation units) go through the front-end and the
        // models exactly once; only advice assembly runs per input.
        let mut slot_of_source: std::collections::HashMap<&str, usize> =
            std::collections::HashMap::with_capacity(sources.len());
        let mut unique: Vec<&str> = Vec::with_capacity(sources.len());
        let slots: Vec<usize> = sources
            .iter()
            .map(|&src| {
                *slot_of_source.entry(src).or_insert_with(|| {
                    unique.push(src);
                    unique.len() - 1
                })
            })
            .collect();

        // Phase 1 — parallel front-end over unique snippets.
        let prepared = self.prepare_batch(&unique);

        // Phases 2–3 — bucketed, deduplicated forwards over the parseable
        // snippets.
        let parsed: Vec<&PreparedSnippet> =
            prepared.iter().filter_map(|p| p.as_ref().ok()).collect();
        let probs = self.head_probs_batch(&parsed);
        let mut probs_of =
            vec![HeadProbs { directive: 0.0, private: 0.0, reduction: 0.0 }; unique.len()];
        let mut next = 0;
        for (u, p) in prepared.iter().enumerate() {
            if p.is_ok() {
                probs_of[u] = probs[next];
                next += 1;
            }
        }

        // Phase 4 — assemble per-input advice in input order (duplicates
        // share their unique slot's front-end + model results).
        let stage = StageObs::get(self.backend(), self.kernel_tier());
        let t_post = stage.map(|_| Instant::now());
        let out: Vec<Result<Advice, ParseError>> = slots
            .into_iter()
            .map(|u| match &prepared[u] {
                Ok(p) => Ok(Self::advice_from_parts(probs_of[u], &p.compar)),
                Err(e) => Err(e.clone()),
            })
            .collect();
        if let (Some(s), Some(t0)) = (stage, t_post) {
            s.post.observe(t0.elapsed().as_secs_f64());
        }
        out
    }

    /// The advisor's maximum (padded) sequence length.
    pub fn max_len(&self) -> usize {
        self.max_len
    }

    /// The front-end for one snippet: parse, tokenize, encode, and run
    /// the S2S dependence analysis. No model weights are touched.
    ///
    /// The source is lexed once and those tokens are parsed once. The
    /// ComPar strict gate ([`check_tokens`]) reads the same token slice
    /// and ComPar's analysis ([`analyze_stmts`]) runs on the same AST, so
    /// `compar` equals [`analyze_snippet`] on the source. The model ids
    /// come from printing that AST once, lexing the printed text once and
    /// looking each token up by borrowed text ([`encode_text`]), so they
    /// equal encoding [`tokens_for`]'s Text tokens. A lex or parse error
    /// is the same [`ParseError`] [`parse_snippet`] reports.
    ///
    /// [`analyze_snippet`]: pragformer_baselines::analyze_snippet
    /// [`tokens_for`]: pragformer_tokenize::tokens_for
    /// [`parse_snippet`]: pragformer_cparse::parse_snippet
    pub fn prepare(&self, source: &str) -> Result<PreparedSnippet, ParseError> {
        let tokens = lex(source)?;
        let stmts = parse_tokens(&tokens)?;
        let compar = match check_tokens(&tokens, Strictness::Strict) {
            Ok(()) => analyze_stmts(&stmts),
            Err(reason) => ComparResult::ParseFailure(reason),
        };
        let (ids, valid) = encode_text(&stmts, &self.vocab, self.max_len);
        Ok(PreparedSnippet { ids, valid, compar })
    }

    /// [`Advisor::prepare`] over a batch, parallelized on the persistent
    /// thread pool. Per-snippet parse errors surface in their own slot.
    ///
    /// Observability: records the whole pass into
    /// `pragformer_span_seconds{span="advise.prepare"}` and advances the
    /// per-backend snippet/parse-error counters.
    pub fn prepare_batch(&self, sources: &[&str]) -> Vec<Result<PreparedSnippet, ParseError>> {
        let stage = StageObs::get(self.backend(), self.kernel_tier());
        let start = stage.map(|_| Instant::now());
        let out = par_map_indexed(sources.len(), 4, |u| self.prepare(sources[u]));
        if let (Some(s), Some(t0)) = (stage, start) {
            s.prepare.observe(t0.elapsed().as_secs_f64());
            s.snippets.add(sources.len() as u64);
            s.parse_errors.add(out.iter().filter(|r| r.is_err()).count() as u64);
        }
        out
    }

    /// Runs the three classifier heads over a set of prepared snippets,
    /// returning one [`HeadProbs`] per input, in input order.
    ///
    /// Snippets are bucketed by padded length (smallest power of two ≥
    /// the token count, capped at `max_len`) and identical encoded
    /// sequences within a bucket are classified once. Per bucket, the
    /// [`AdvisorBackend::SharedTrunk`] backend then runs **one** batched
    /// trunk forward followed by the three head projections; the
    /// paper-faithful [`AdvisorBackend::PerHead`] backend runs one full
    /// batched forward per head. Every returned probability is **bitwise
    /// identical** to a batch-of-one forward of the same snippet — the
    /// kernel row-determinism contract of `pragformer_tensor::ops` —
    /// which is what lets a serving layer cache these values across
    /// requests, under either backend.
    pub fn head_probs_batch(&mut self, snippets: &[&PreparedSnippet]) -> Vec<HeadProbs> {
        let stage = StageObs::get(self.backend(), self.kernel_tier());
        let max_len = self.max_len;
        // Bucket by padded length. The bucketing/dedup sections across
        // all buckets accumulate into one `advise.bucket` observation and
        // the model forwards into one `advise.forward` observation, so
        // the two spans partition this call's wall clock per batch.
        let mut bucket_secs = 0.0f64;
        let mut forward_secs = 0.0f64;
        let t0 = stage.map(|_| Instant::now());
        let mut buckets: std::collections::BTreeMap<usize, Vec<usize>> =
            std::collections::BTreeMap::new();
        for (u, p) in snippets.iter().enumerate() {
            buckets.entry(Self::bucket_len(p.valid, max_len)).or_default().push(u);
        }
        if let Some(t0) = t0 {
            bucket_secs += t0.elapsed().as_secs_f64();
        }

        let zero = HeadProbs { directive: 0.0, private: 0.0, reduction: 0.0 };
        let mut out = vec![zero; snippets.len()];
        for (&seq, members) in &buckets {
            let t_dedup = stage.map(|_| Instant::now());
            let mut ids = Vec::new();
            let mut valid = Vec::new();
            // members[i] -> row in the deduplicated batch. Distinct
            // sources can encode to identical id sequences (whitespace,
            // comments), so the forward batch dedups on the encoded key
            // and fans results out.
            let mut row_of: Vec<usize> = Vec::with_capacity(members.len());
            let mut seen: std::collections::HashMap<(&[usize], usize), usize> =
                std::collections::HashMap::with_capacity(members.len());
            for &u in members {
                let p = snippets[u];
                let key = (&p.ids[..seq], p.valid);
                let next_row = seen.len();
                let row = *seen.entry(key).or_insert_with(|| {
                    ids.extend_from_slice(&p.ids[..seq]);
                    valid.push(p.valid);
                    next_row
                });
                row_of.push(row);
            }
            let t_forward = stage.map(|_| Instant::now());
            if let (Some(td), Some(tf)) = (t_dedup, t_forward) {
                bucket_secs += (tf - td).as_secs_f64();
            }
            let probs: Vec<HeadProbs> = match &mut self.models {
                Models::PerHead { directive, private, reduction } => {
                    let dir = directive.predict_proba_batch(&ids, &valid, seq);
                    let priv_ = private.predict_proba_batch(&ids, &valid, seq);
                    let red = reduction.predict_proba_batch(&ids, &valid, seq);
                    (0..valid.len())
                        .map(|r| HeadProbs {
                            directive: dir[r],
                            private: priv_[r],
                            reduction: red[r],
                        })
                        .collect()
                }
                Models::SharedTrunk(model) => model
                    .predict_probs_batch(&ids, &valid, seq)
                    .into_iter()
                    .map(|[directive, private, reduction]| HeadProbs {
                        directive,
                        private,
                        reduction,
                    })
                    .collect(),
            };
            if let Some(tf) = t_forward {
                forward_secs += tf.elapsed().as_secs_f64();
            }
            for (slot, &u) in members.iter().enumerate() {
                out[u] = probs[row_of[slot]];
            }
        }
        if let Some(s) = stage {
            s.bucket.observe(bucket_secs);
            s.forward.observe(forward_secs);
        }
        out
    }

    /// Assembles an [`Advice`] from head probabilities and the snippet's
    /// dependence analysis — the last pipeline stage, shared by
    /// [`Advisor::advise_batch`] and serving layers that cache
    /// [`HeadProbs`] across requests.
    pub fn advice_from_parts(probs: HeadProbs, compar: &ComparResult) -> Advice {
        Self::build_advice(probs.directive, probs.private, probs.reduction, compar)
    }

    /// Smallest power of two ≥ `valid` (and ≥ 2, for the CLS + one token
    /// minimum), capped at `max_len`. Sequences padded to the bucket
    /// length produce bitwise-identical predictions to `max_len` padding,
    /// so the bucket choice is purely a throughput knob: a 9-token loop
    /// in a 16-bucket does ~5% of the attention work `max_len = 72`
    /// would. Shared with the training engine
    /// ([`pragformer_model::batching::bucket_len`]) so training and
    /// inference bucket identically.
    fn bucket_len(valid: usize, max_len: usize) -> usize {
        pragformer_model::batching::bucket_len(valid, max_len)
    }

    /// Turns the three head probabilities plus the S2S analysis into an
    /// [`Advice`] (shared by the batched and single paths).
    fn build_advice(p_dir: f32, p_priv: f32, p_red: f32, compar: &ComparResult) -> Advice {
        let needs_directive = p_dir > 0.5;
        let compar_agrees = match compar {
            ComparResult::ParseFailure(_) => None,
            other => Some(other.predicts_directive()),
        };

        let suggestion = if needs_directive {
            let mut d = OmpDirective::parallel_for();
            // Clause variables come from the dependence analysis when it
            // succeeded; otherwise the clause is suggested without
            // variables (presence-only, like the paper's task definition).
            let analyzed = match compar {
                ComparResult::Parallelized(cd) => Some(cd.clone()),
                _ => None,
            };
            if p_priv > 0.5 {
                let vars: Vec<String> = analyzed
                    .as_ref()
                    .map(|cd| cd.private_vars().iter().map(|s| s.to_string()).collect())
                    .unwrap_or_default();
                d = d.with(OmpClause::Private(if vars.is_empty() {
                    vec!["<var>".to_string()]
                } else {
                    vars
                }));
            }
            if p_red > 0.5 {
                let from_compar = analyzed.as_ref().and_then(|cd| {
                    cd.clauses.iter().find_map(|c| match c {
                        OmpClause::Reduction { op, vars } => {
                            Some(OmpClause::Reduction { op: *op, vars: vars.clone() })
                        }
                        _ => None,
                    })
                });
                d = d.with(from_compar.unwrap_or(OmpClause::Reduction {
                    op: pragformer_cparse::omp::ReductionOp::Add,
                    vars: vec!["<var>".to_string()],
                }));
            }
            Some(d)
        } else {
            None
        };

        Advice {
            needs_directive,
            confidence: if needs_directive { p_dir } else { 1.0 - p_dir },
            private_probability: p_priv,
            reduction_probability: p_red,
            compar_agrees,
            suggestion,
        }
    }

    /// The tokenizer vocabulary size (for reports).
    pub fn vocab_size(&self) -> usize {
        self.vocab.len()
    }

    /// The tokenizer vocabulary [`Advisor::prepare`] encodes with.
    pub fn vocab(&self) -> &Vocab {
        &self.vocab
    }

    /// Probability that a *token sequence* needs a directive — the
    /// black-box interface LIME perturbs (Figure 8). Works on either
    /// backend.
    pub fn directive_probability_of_tokens(&mut self, tokens: &[String]) -> f32 {
        let (ids, valid) = self.vocab.encode(tokens, self.max_len);
        match &mut self.models {
            Models::PerHead { directive, .. } => directive.predict_proba(&ids, &[valid])[0],
            Models::SharedTrunk(model) => {
                let max_len = self.max_len;
                model.predict_proba_task(Task::Directive, &ids, &[valid], max_len)[0]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, OnceLock};

    /// Training even the tiny advisor costs tens of seconds; every test
    /// shares one instance.
    fn shared() -> &'static Mutex<Advisor> {
        static ADVISOR: OnceLock<Mutex<Advisor>> = OnceLock::new();
        ADVISOR.get_or_init(|| Mutex::new(Advisor::train_from_scratch(Scale::Tiny, 21)))
    }

    #[test]
    fn advisor_end_to_end_tiny() {
        let mut advisor = shared().lock().unwrap();
        // A canonical parallel loop.
        let pos = advisor.advise("for (i = 0; i < n; i++) a[i] = b[i] + c[i];").unwrap();
        assert!(pos.confidence > 0.5);
        // An I/O loop.
        let neg = advisor.advise("for (i = 0; i < n; i++) printf(\"%d\\n\", a[i]);").unwrap();
        // At tiny scale the model may err, but the call contract holds.
        assert!((0.0..=1.0).contains(&neg.private_probability));
        assert!((0.0..=1.0).contains(&neg.reduction_probability));
        if pos.needs_directive {
            assert!(pos.suggestion.is_some());
        }
        // ComPar agreement is well-defined on parseable snippets.
        assert!(pos.compar_agrees.is_some());
    }

    #[test]
    fn advise_rejects_unparseable_code() {
        let mut advisor = shared().lock().unwrap();
        assert!(advisor.advise("for (i = 0; i < ; i++ {").is_err());
    }

    #[test]
    fn advise_batch_matches_sequential_bitwise() {
        let mut advisor = shared().lock().unwrap();
        let snippets: Vec<&str> = vec![
            "for (i = 0; i < n; i++) a[i] = b[i] + c[i];",
            "for (i = 0; i < n; i++) printf(\"%d\\n\", a[i]);",
            "for (i = 0; i < ; i++ {", // parse error mid-batch
            "s = 0.0;\nfor (i = 0; i < n; i++) s += a[i] * b[i];",
            "for (i = 0; i < n; i++)\n  for (j = 0; j < n; j++)\n    x[i] = x[i] + A[i][j] * y[j];",
        ];
        let batched = advisor.advise_batch(&snippets);
        assert_eq!(batched.len(), snippets.len());
        assert!(batched[2].is_err(), "parse error must surface in its slot");
        for (i, src) in snippets.iter().enumerate() {
            let single = advisor.advise(src);
            match (&batched[i], &single) {
                (Ok(b), Ok(s)) => {
                    assert_eq!(b.needs_directive, s.needs_directive, "snippet {i}");
                    assert_eq!(
                        b.confidence.to_bits(),
                        s.confidence.to_bits(),
                        "snippet {i}: batched {} vs sequential {}",
                        b.confidence,
                        s.confidence
                    );
                    assert_eq!(b.private_probability.to_bits(), s.private_probability.to_bits());
                    assert_eq!(
                        b.reduction_probability.to_bits(),
                        s.reduction_probability.to_bits()
                    );
                    assert_eq!(b.compar_agrees, s.compar_agrees);
                    assert_eq!(
                        b.suggestion.as_ref().map(|d| d.to_string()),
                        s.suggestion.as_ref().map(|d| d.to_string())
                    );
                }
                (Err(_), Err(_)) => {}
                other => panic!("snippet {i}: batched/sequential disagree: {other:?}"),
            }
        }
    }

    #[test]
    fn advise_batch_of_empty_and_large_inputs() {
        let mut advisor = shared().lock().unwrap();
        assert!(advisor.advise_batch(&[]).is_empty());
        // A batch large enough to exercise several buckets and the
        // parallel front-end.
        let snippets: Vec<String> = (0..32)
            .map(|i| format!("for (i = 0; i < {}; i++) a[i] = a[i] * {};", 10 + i, i + 1))
            .collect();
        let refs: Vec<&str> = snippets.iter().map(|s| s.as_str()).collect();
        let out = advisor.advise_batch(&refs);
        assert_eq!(out.len(), 32);
        for r in out {
            let advice = r.expect("all snippets parse");
            assert!((0.0..=1.0).contains(&advice.confidence));
        }
    }

    #[test]
    fn advise_batch_deduplicates_repeated_snippets_without_changing_results() {
        let mut advisor = shared().lock().unwrap();
        let unique = "for (i = 0; i < n; i++) a[i] = b[i] + c[i];";
        // 1 idiom repeated 15 times + 1 distinct snippet.
        let mut snippets = vec![unique; 15];
        snippets.push("for (i = 0; i < n; i++) printf(\"%d\\n\", a[i]);");
        let batched = advisor.advise_batch(&snippets);
        let lone = advisor.advise(unique).unwrap();
        for r in &batched[..15] {
            let a = r.as_ref().unwrap();
            assert_eq!(a.confidence.to_bits(), lone.confidence.to_bits());
            assert_eq!(a.private_probability.to_bits(), lone.private_probability.to_bits());
        }
        let last = batched[15].as_ref().unwrap();
        let lone_last = advisor.advise(snippets[15]).unwrap();
        assert_eq!(last.confidence.to_bits(), lone_last.confidence.to_bits());
    }

    #[test]
    fn bucket_len_is_monotone_and_capped() {
        for max_len in [8usize, 48, 72, 110] {
            let mut prev = 0;
            for valid in 1..=max_len {
                let b = Advisor::bucket_len(valid, max_len);
                assert!(b >= valid, "bucket {b} < valid {valid}");
                assert!(b <= max_len);
                assert!(b >= prev, "bucket must be monotone in valid");
                prev = b;
            }
        }
    }

    #[test]
    fn backends_produce_identically_shaped_advice_on_parse_errors() {
        // Weight values are irrelevant to error handling and advice
        // shape, so untrained advisors suffice here.
        let mut per_head = Advisor::untrained_backend(Scale::Tiny, 3, AdvisorBackend::PerHead);
        let mut shared = Advisor::untrained_backend(Scale::Tiny, 3, AdvisorBackend::SharedTrunk);
        assert_eq!(per_head.backend(), AdvisorBackend::PerHead);
        assert_eq!(shared.backend(), AdvisorBackend::SharedTrunk);
        let snippets: Vec<&str> = vec![
            "for (i = 0; i < ; i++ {",                     // parse error
            "for (i = 0; i < n; i++) a[i] = b[i] + c[i];", // fine
            "while (",                                     // parse error
        ];
        let a = per_head.advise_batch(&snippets);
        let b = shared.advise_batch(&snippets);
        assert_eq!(a.len(), b.len());
        for (i, (ra, rb)) in a.iter().zip(&b).enumerate() {
            match (ra, rb) {
                (Err(ea), Err(eb)) => {
                    assert_eq!(ea.to_string(), eb.to_string(), "snippet {i}");
                }
                (Ok(aa), Ok(ab)) => {
                    // Same populated fields (values differ: different
                    // weights), same ComPar verdict (model-independent).
                    assert_eq!(aa.compar_agrees, ab.compar_agrees, "snippet {i}");
                    assert!((0.0..=1.0).contains(&aa.confidence));
                    assert!((0.0..=1.0).contains(&ab.confidence));
                }
                other => panic!("snippet {i}: backends disagree on ok/err: {other:?}"),
            }
        }
    }

    #[test]
    fn shared_trunk_batch_matches_sequential_bitwise() {
        // The PR 1 bitwise contract must survive the shared-trunk path:
        // one trunk forward over a coalesced batch reproduces per-snippet
        // calls bit for bit.
        let mut advisor = Advisor::untrained_backend(Scale::Tiny, 5, AdvisorBackend::SharedTrunk);
        let snippets: Vec<&str> = vec![
            "for (i = 0; i < n; i++) a[i] = b[i] + c[i];",
            "s = 0.0;\nfor (i = 0; i < n; i++) s += a[i] * b[i];",
            "for (i = 0; i < n; i++) printf(\"%d\\n\", a[i]);",
        ];
        let batched = advisor.advise_batch(&snippets);
        for (i, src) in snippets.iter().enumerate() {
            let single = advisor.advise(src).unwrap();
            let b = batched[i].as_ref().unwrap();
            assert_eq!(b.confidence.to_bits(), single.confidence.to_bits(), "snippet {i}");
            assert_eq!(
                b.private_probability.to_bits(),
                single.private_probability.to_bits(),
                "snippet {i}"
            );
            assert_eq!(
                b.reduction_probability.to_bits(),
                single.reduction_probability.to_bits(),
                "snippet {i}"
            );
        }
    }

    #[test]
    fn int8_advice_is_shape_identical_and_batch_invariant() {
        // The int8 trunk must change only probability *values*: parse
        // errors, advice shape and the batched == sequential bitwise
        // contract all hold exactly as in f32. Model-local override —
        // the global tier is never touched.
        let mut advisor = Advisor::untrained_backend(Scale::Tiny, 9, AdvisorBackend::SharedTrunk);
        let snippets: Vec<&str> = vec![
            "for (i = 0; i < n; i++) a[i] = b[i] + c[i];",
            "for (i = 0; i < ; i++ {", // parse error mid-batch
            "s = 0.0;\nfor (i = 0; i < n; i++) s += a[i] * b[i];",
        ];
        advisor.set_int8(Some(false));
        let f32_out = advisor.advise_batch(&snippets);
        advisor.set_int8(Some(true));
        let int8_out = advisor.advise_batch(&snippets);
        for (i, (a, b)) in f32_out.iter().zip(&int8_out).enumerate() {
            match (a, b) {
                (Err(ea), Err(eb)) => assert_eq!(ea.to_string(), eb.to_string(), "snippet {i}"),
                (Ok(fa), Ok(ib)) => {
                    assert_eq!(fa.compar_agrees, ib.compar_agrees, "snippet {i}");
                    assert!((0.0..=1.0).contains(&ib.confidence), "snippet {i}");
                }
                other => panic!("snippet {i}: int8 changed ok/err shape: {other:?}"),
            }
        }
        // Batched == sequential, bit for bit, under the quantized trunk.
        let single = advisor.advise(snippets[0]).unwrap();
        let batched = int8_out[0].as_ref().unwrap();
        assert_eq!(batched.confidence.to_bits(), single.confidence.to_bits());
        assert_eq!(batched.private_probability.to_bits(), single.private_probability.to_bits());
        let (f32_bytes, int8_bytes) = advisor.trunk_weight_bytes();
        assert!(int8_bytes < f32_bytes, "int8 accounting must shrink the trunk");
    }

    #[test]
    fn prepacked_advice_is_bitwise_identical_to_repack() {
        // The zero-repack acceptance gate: pre-packed panels must change
        // *where* packing happens, never a single probability bit, on
        // every advice arm — including through a mid-batch parse error.
        // Model-local override; the process-wide switch is untouched.
        let mut advisor = Advisor::untrained_backend(Scale::Tiny, 17, AdvisorBackend::SharedTrunk);
        let snippets: Vec<&str> = vec![
            "for (i = 0; i < n; i++) a[i] = b[i] + c[i];",
            "for (i = 0; i < ; i++ {", // parse error mid-batch
            "s = 0.0;\nfor (i = 0; i < n; i++) s += a[i] * b[i];",
        ];
        advisor.set_prepack(Some(false));
        let repack = advisor.advise_batch(&snippets);
        advisor.set_prepack(Some(true));
        let prepacked = advisor.advise_batch(&snippets);
        for (i, (a, b)) in repack.iter().zip(&prepacked).enumerate() {
            match (a, b) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.confidence.to_bits(), b.confidence.to_bits(), "snippet {i}");
                    assert_eq!(
                        a.private_probability.to_bits(),
                        b.private_probability.to_bits(),
                        "snippet {i}"
                    );
                    assert_eq!(
                        a.reduction_probability.to_bits(),
                        b.reduction_probability.to_bits(),
                        "snippet {i}"
                    );
                    assert_eq!(a.compar_agrees, b.compar_agrees, "snippet {i}");
                }
                (Err(ea), Err(eb)) => assert_eq!(ea.to_string(), eb.to_string(), "snippet {i}"),
                other => panic!("snippet {i}: prepack changed ok/err shape: {other:?}"),
            }
        }
        // The per-head backend routes through the same Trunk gating but
        // a different fan-out arm; pin it too.
        let mut per_head = Advisor::untrained_backend(Scale::Tiny, 17, AdvisorBackend::PerHead);
        per_head.set_prepack(Some(false));
        let off = per_head.advise(snippets[0]).unwrap();
        per_head.set_prepack(Some(true));
        let on = per_head.advise(snippets[0]).unwrap();
        assert_eq!(off.confidence.to_bits(), on.confidence.to_bits());
        assert_eq!(off.private_probability.to_bits(), on.private_probability.to_bits());
        assert_eq!(off.reduction_probability.to_bits(), on.reduction_probability.to_bits());
    }

    #[test]
    fn backend_parse_roundtrip() {
        assert_eq!(AdvisorBackend::parse("per-head"), Some(AdvisorBackend::PerHead));
        assert_eq!(AdvisorBackend::parse("shared-trunk"), Some(AdvisorBackend::SharedTrunk));
        assert_eq!(AdvisorBackend::parse("both"), None);
        assert_eq!(AdvisorBackend::default(), AdvisorBackend::SharedTrunk);
    }

    #[test]
    fn advise_stages_land_in_the_span_registry() {
        if !obs::enabled() {
            return; // PRAGFORMER_OBS=off in the environment
        }
        let mut advisor = shared().lock().unwrap();
        let labels =
            [("backend", advisor.backend().name()), ("tier", advisor.kernel_tier().name())];
        let stages: Vec<Arc<obs::Histogram>> =
            ["advise.prepare", "advise.bucket", "advise.forward", "advise.post"]
                .iter()
                .map(|s| obs::span_histogram(s, &labels))
                .collect();
        let before: Vec<u64> = stages.iter().map(|h| h.count()).collect();
        advisor
            .advise_batch(&["for (i = 0; i < n; i++) a[i] = b[i] + c[i];"])
            .pop()
            .unwrap()
            .unwrap();
        for (h, b) in stages.iter().zip(&before) {
            assert!(h.count() > *b, "every advise stage must observe at least once per batch");
        }
    }

    #[test]
    fn obs_off_advice_is_bitwise_identical_and_registers_nothing() {
        // Hold the shared advisor for the whole test: serializing against
        // the other advise tests keeps the registry quiet while disabled.
        let mut advisor = shared().lock().unwrap();
        let snippets: Vec<&str> = vec![
            "for (i = 0; i < n; i++) a[i] = b[i] + c[i];",
            "s = 0.0;\nfor (i = 0; i < n; i++) s += a[i] * b[i];",
            "for (i = 0; i < ; i++ {", // parse error mid-batch
        ];
        obs::set_enabled(true);
        let on = advisor.advise_batch(&snippets); // warm every registration
        obs::set_enabled(false);
        let len = obs::registry_len();
        let off = advisor.advise_batch(&snippets);
        assert_eq!(obs::registry_len(), len, "disabled advise must not register metrics");
        obs::set_enabled(true);
        for (i, (a, b)) in on.iter().zip(&off).enumerate() {
            match (a, b) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.confidence.to_bits(), b.confidence.to_bits(), "snippet {i}");
                    assert_eq!(
                        a.private_probability.to_bits(),
                        b.private_probability.to_bits(),
                        "snippet {i}"
                    );
                    assert_eq!(
                        a.reduction_probability.to_bits(),
                        b.reduction_probability.to_bits(),
                        "snippet {i}"
                    );
                    assert_eq!(a.compar_agrees, b.compar_agrees, "snippet {i}");
                }
                (Err(ea), Err(eb)) => assert_eq!(ea.to_string(), eb.to_string()),
                other => panic!("snippet {i}: obs toggle changed ok/err shape: {other:?}"),
            }
        }
    }

    #[test]
    fn backend_name_roundtrips_through_parse() {
        for b in [AdvisorBackend::PerHead, AdvisorBackend::SharedTrunk] {
            assert_eq!(AdvisorBackend::parse(b.name()), Some(b));
        }
    }

    #[test]
    fn token_probability_interface_is_stable() {
        let mut advisor = shared().lock().unwrap();
        let toks: Vec<String> =
            ["for", "(", "i", "=", "0", ";", ")"].iter().map(|s| s.to_string()).collect();
        let a = advisor.directive_probability_of_tokens(&toks);
        let b = advisor.directive_probability_of_tokens(&toks);
        assert_eq!(a, b);
        assert!((0.0..=1.0).contains(&a));
    }
}
