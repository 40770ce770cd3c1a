//! Multi-head self-attention with padding masks, an analytic backward,
//! and a fused inference fast path.
//!
//! Activations are `[batch*seq, d_model]` tensors; per-sequence valid
//! lengths implement the padding mask: every query row attends only to
//! the first `valid[b]` key positions of its sequence. Every row is a key
//! and a value, but [`MultiHeadSelfAttention::forward_residual`] takes a
//! `q_rows` argument: only the `q_rows` leading rows of each sequence run
//! as queries, and the output holds just those rows. The full graph
//! passes `q_rows = seq`; the classifier's final block passes `1`,
//! because CLS pooling reads row 0 of each sequence and nothing else (see
//! `Encoder::forward_cls`).
//!
//! ## Execution model
//!
//! Every forward runs in three stages:
//!
//! 1. **Projection.** The Q/K/V projections run as `[batch·seq ×
//!    d_model]` GEMMs over every row regardless of batch size or
//!    `q_rows`, which is where batching pays. In training (and with the
//!    `PRAGFORMER_ATTN=unfused` kill switch thrown) they are three
//!    separate GEMMs through the [`Linear`] layers; at inference the fast
//!    path concatenates `wq|wk|wv` column-wise into one `[d_model,
//!    3·d_model]` matrix (the private `FusedQkv` cache) — pre-packed
//!    panels on the f32 tiers, an int8 copy on the quantized tier — so
//!    **one** GEMM produces `Q|K|V` side by side. Because every GEMM
//!    accumulates each output column in one ascending-`k` chain and
//!    quantization scales are per column, concatenating columns changes
//!    no per-column arithmetic: fused and unfused projections are
//!    **bitwise identical** on every kernel tier (pinned by
//!    `fused_attention_proptests`).
//! 2. **Score/context tiles.** Each `(batch, head)` pair gets a
//!    `[q_rows, seq]` score tile and a `[q_rows, d_head]` context tile —
//!    `[seq, seq]` and `[seq, d_head]` on the full graph, one score row
//!    and one context row at the CLS rows. The tiles are inherently
//!    block-diagonal, so they are dispatched across the persistent
//!    thread pool ([`pragformer_tensor::parallel`]) — each pair's small
//!    GEMMs run inline on one worker (nested parallel calls don't
//!    re-dispatch). Head tiles gather from the projection output by
//!    column offset (`Q` at `h·d_head`, `K` at `d_model + h·d_head`,
//!    `V` at `2·d_model + h·d_head` in the fused layout), ride
//!    [`scratch`] capacity, and go back to the arena as soon as they
//!    are consumed. The score epilogue on the fast path is the fused
//!    single-pass `·scale` + masked softmax
//!    ([`ops::softmax_rows_scaled_uniform`]); the legacy path keeps the
//!    two-pass `map_in_place` + [`ops::softmax_rows_uniform`] — also
//!    bitwise identical, per tier. GEMM, softmax and quantization rows
//!    are independent, so a `q_rows < seq` tile holds bitwise the
//!    leading rows of the full one.
//! 3. **Merge.** Context tiles scatter-add into an **arena-backed**
//!    `[batch·q_rows, d_model]` output in a fixed serial order, so
//!    results stay bitwise deterministic for any batch size and worker
//!    split. The out-projection and residual then run on those rows
//!    only.
//!
//! ## Mode semantics (Train vs Infer)
//!
//! The `train` flag picks the mode. A **Train** forward needs every
//! query row (`q_rows = seq`), stores the backward cache (projected
//! Q/K/V plus the per-`(batch, head)` probability tiles, which
//! [`MultiHeadSelfAttention::last_probs`] exposes to explainability
//! tools) and always takes the unfused path —
//! [`MultiHeadSelfAttention::backward`] differentiates the split
//! projections. An **Infer** forward is cache-free: it neither clones
//! into nor retains the backward cache (a previous train cache is
//! dropped), and every intermediate — projections, score tiles, context
//! tiles, the merged context — is recycled through the scratch arena,
//! so steady-state inference retains zero attention bytes and allocates
//! nothing.

use pragformer_obs as obs;
use pragformer_tensor::init::SeededRng;
use pragformer_tensor::kernel::quantize::{
    matmul_quant_reuse, QuantEpilogue, QuantizedActivations, QuantizedMatrix,
};
use pragformer_tensor::nn::{Layer, Linear, Param};
use pragformer_tensor::ops::{self, PackedWeights};
use pragformer_tensor::parallel::par_map_indexed;
use pragformer_tensor::{scratch, Tensor};
use std::sync::{Arc, OnceLock};

/// Counts one per-`(batch, head)` score/context tile into
/// `pragformer_attn_tile_dispatch_total{path}`.
#[inline]
fn record_tile_dispatch(fused: bool) {
    if !obs::enabled() {
        return;
    }
    static CELLS: [OnceLock<Arc<obs::Counter>>; 2] = [const { OnceLock::new() }; 2];
    CELLS[fused as usize]
        .get_or_init(|| {
            obs::counter(
                "pragformer_attn_tile_dispatch_total",
                "Per-(batch, head) attention score/context tiles dispatched",
                &[("path", if fused { "fused" } else { "split" })],
            )
        })
        .inc();
}

/// Counts one fused-QKV cache build into
/// `pragformer_attn_fused_qkv_builds_total` — a steady-state inference
/// loop shows a zero delta here once warm.
#[inline]
fn record_fused_build() {
    if !obs::enabled() {
        return;
    }
    static BUILDS: OnceLock<Arc<obs::Counter>> = OnceLock::new();
    BUILDS
        .get_or_init(|| {
            obs::counter(
                "pragformer_attn_fused_qkv_builds_total",
                "Fused QKV weight cache builds (pack or quantize of wq|wk|wv)",
                &[],
            )
        })
        .inc();
}

/// Counts one fused single-GEMM QKV projection into
/// `pragformer_attn_fused_qkv_hits_total`.
#[inline]
fn record_fused_hit() {
    if !obs::enabled() {
        return;
    }
    static HITS: OnceLock<Arc<obs::Counter>> = OnceLock::new();
    HITS.get_or_init(|| {
        obs::counter(
            "pragformer_attn_fused_qkv_hits_total",
            "QKV projections served by the fused single-GEMM fast path",
            &[],
        )
    })
    .inc();
}

/// The `rows` leading rows of every `seq`-row sequence of `x`
/// (`[batch*seq, d]` → `[batch*rows, d]`), on arena capacity — the CLS
/// gather when `rows == 1`.
pub(crate) fn leading_rows(x: &Tensor, seq: usize, rows: usize) -> Tensor {
    let (batch, d) = (x.rows() / seq, x.cols());
    let mut data = scratch::take(batch * rows * d);
    for b in 0..batch {
        data.extend_from_slice(&x.data()[b * seq * d..(b * seq + rows) * d]);
    }
    Tensor::from_vec(&[batch * rows, d], data)
}

/// Multi-head self-attention block (projections + scaled dot-product +
/// output projection). See the [module docs](self) for the execution
/// model and the Train/Infer mode semantics.
pub struct MultiHeadSelfAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    n_heads: usize,
    d_model: usize,
    cache: Option<Cache>,
    /// Inference-only fused `wq|wk|wv` cache; present iff the fast path
    /// is configured (see [`Self::configure_inference_caches`]).
    fused: Option<FusedQkv>,
}

struct Cache {
    batch: usize,
    seq: usize,
    /// Projected Q/K/V, `[batch*seq, d_model]`.
    q: Tensor,
    k: Tensor,
    v: Tensor,
    /// Attention probabilities per (batch, head): `[seq, seq]`.
    probs: Vec<Tensor>,
}

/// The fused `[d_model, 3·d_model]` Q|K|V projection cache: the three
/// weight matrices concatenated column-wise (`Q` columns first, then
/// `K`, then `V`) plus the matching `[3·d_model]` bias. Like the
/// [`Linear`] caches it is inference-only, superseded by any parameter
/// mutation, and dropped by `visit_params`.
struct FusedQkv {
    /// Concatenated `bq|bk|bv`.
    bias: Tensor,
    form: FusedForm,
}

/// Which kernel path the fused QKV GEMM runs on — mirrors the
/// per-[`Linear`] cache lattice (int8 wins, then prepacked f32, then
/// pack-per-call f32).
enum FusedForm {
    /// Pre-packed f32 panels (zero-repack inference).
    Packed(PackedWeights),
    /// Plain concatenated f32 weights (pack-per-call, the
    /// `PRAGFORMER_PREPACK=off` regime).
    Plain(Tensor),
    /// Per-column int8 copy (quantized inference).
    Quant(QuantizedMatrix),
}

/// The projection stage's output: one fused `[batch*seq, 3·d_model]`
/// tensor, or the legacy three `[batch*seq, d_model]` tensors.
enum Proj {
    Fused(Tensor),
    Split(Tensor, Tensor, Tensor),
}

impl MultiHeadSelfAttention {
    /// Creates the four projection layers.
    pub fn new(name: &str, d_model: usize, n_heads: usize, rng: &mut SeededRng) -> Self {
        assert_eq!(d_model % n_heads, 0, "d_model must divide into heads");
        Self {
            wq: Linear::named(&format!("{name}.wq"), d_model, d_model, rng),
            wk: Linear::named(&format!("{name}.wk"), d_model, d_model, rng),
            wv: Linear::named(&format!("{name}.wv"), d_model, d_model, rng),
            wo: Linear::named(&format!("{name}.wo"), d_model, d_model, rng),
            n_heads,
            d_model,
            cache: None,
            fused: None,
        }
    }

    /// The concatenated `[d_model, 3·d_model]` Q|K|V weight matrix, on
    /// arena capacity (transient: the ensure methods consume or return
    /// it).
    fn fused_weight(&self) -> Tensor {
        let d = self.d_model;
        let mut data = scratch::take(d * 3 * d);
        for p in 0..d {
            data.extend_from_slice(self.wq.w.value.row(p));
            data.extend_from_slice(self.wk.w.value.row(p));
            data.extend_from_slice(self.wv.w.value.row(p));
        }
        Tensor::from_vec(&[d, 3 * d], data)
    }

    /// The concatenated `[3·d_model]` Q|K|V bias.
    fn fused_bias(&self) -> Tensor {
        let mut data = Vec::with_capacity(3 * self.d_model);
        data.extend_from_slice(self.wq.b.value.data());
        data.extend_from_slice(self.wk.b.value.data());
        data.extend_from_slice(self.wv.b.value.data());
        Tensor::from_vec(&[3 * self.d_model], data)
    }

    /// Builds (or keeps) the f32 fused QKV cache: pre-packed panels when
    /// `packed`, the plain concatenated matrix otherwise. Idempotent per
    /// form; switching forms rebuilds.
    fn ensure_fused_f32(&mut self, packed: bool) {
        let have = matches!(
            (&self.fused, packed),
            (Some(FusedQkv { form: FusedForm::Packed(_), .. }), true)
                | (Some(FusedQkv { form: FusedForm::Plain(_), .. }), false)
        );
        if have {
            return;
        }
        let w = self.fused_weight();
        let form = if packed {
            let pw = PackedWeights::pack(&w);
            scratch::give(w.into_data());
            FusedForm::Packed(pw)
        } else {
            FusedForm::Plain(w)
        };
        record_fused_build();
        self.fused = Some(FusedQkv { bias: self.fused_bias(), form });
    }

    /// Builds (or keeps) the int8 fused QKV cache. Per-column scales of
    /// the concatenation are exactly the three matrices' scales side by
    /// side, so fused int8 projections stay bitwise identical to three
    /// quantized GEMMs over the same quantized activations.
    fn ensure_fused_int8(&mut self) {
        if matches!(&self.fused, Some(FusedQkv { form: FusedForm::Quant(_), .. })) {
            return;
        }
        let w = self.fused_weight();
        let qw = QuantizedMatrix::quantize(&w);
        scratch::give(w.into_data());
        record_fused_build();
        self.fused = Some(FusedQkv { bias: self.fused_bias(), form: FusedForm::Quant(qw) });
    }

    /// Configures every inference weight cache this block holds in one
    /// idempotent pass: int8 / packed per-[`Linear`] caches, and the
    /// fused QKV cache when `fused`. While the fused cache is up the
    /// per-projection `wq`/`wk`/`wv` caches are redundant (the fused
    /// panels supersede them at — for `NR`-multiple `d_model` — the
    /// same byte cost) and are dropped; `wo` keeps its own cache in
    /// every regime because its epilogues are call-site specific.
    pub fn configure_inference_caches(&mut self, int8: bool, packed: bool, fused: bool) {
        if fused {
            if int8 {
                self.ensure_fused_int8();
            } else {
                self.ensure_fused_f32(packed);
            }
        } else {
            self.fused = None;
        }
        for lin in [&mut self.wq, &mut self.wk, &mut self.wv] {
            if int8 && !fused {
                lin.ensure_quantized();
            } else {
                lin.drop_quantized();
            }
            if packed && !int8 && !fused {
                lin.ensure_packed();
            } else {
                lin.drop_packed();
            }
        }
        if int8 {
            self.wo.ensure_quantized();
        } else {
            self.wo.drop_quantized();
        }
        if packed && !int8 {
            self.wo.ensure_packed();
        } else {
            self.wo.drop_packed();
        }
    }

    /// Whether the fused QKV fast-path cache is currently built.
    pub fn fused_active(&self) -> bool {
        self.fused.is_some()
    }

    /// Extracts a `[rows, d_head]` tile — `rows` consecutive rows from
    /// `row0`, starting at column `col0` — from a `[*, *]` activation
    /// tensor. Head `h` of a split projection sits at `col0 = h·d_head`;
    /// the fused layout adds a section offset (`0` / `d_model` /
    /// `2·d_model` for Q/K/V). The tile rides on [`scratch`] capacity (no
    /// zero fill); the forward pass gives it back once consumed, so
    /// steady-state tiles allocate nothing.
    fn head_tile(&self, x: &Tensor, row0: usize, col0: usize, rows: usize) -> Tensor {
        let dh = self.d_model / self.n_heads;
        let mut data = scratch::take(rows * dh);
        for r in row0..row0 + rows {
            data.extend_from_slice(&x.row(r)[col0..col0 + dh]);
        }
        Tensor::from_vec(&[rows, dh], data)
    }

    /// Like [`Self::head_tile`] but transposed: `[d_head, rows]`. Score
    /// GEMMs (`Q·Kᵀ` and `dCtx·Vᵀ`) consume the transposed tile so both
    /// operands stream contiguously through the GEMM inner loop.
    fn head_tile_t(&self, x: &Tensor, row0: usize, col0: usize, rows: usize) -> Tensor {
        let dh = self.d_model / self.n_heads;
        let mut data = scratch::take(dh * rows);
        for d in 0..dh {
            for r in row0..row0 + rows {
                data.push(x.row(r)[col0 + d]);
            }
        }
        Tensor::from_vec(&[dh, rows], data)
    }

    /// Adds a `[rows, d_head]` tile back into head `h`, rows `row0..`.
    fn add_head_tile(&self, x: &mut Tensor, tile: &Tensor, row0: usize, h: usize) {
        let dh = self.d_model / self.n_heads;
        for t in 0..tile.rows() {
            let dst = &mut x.row_mut(row0 + t)[h * dh..(h + 1) * dh];
            for (d, s) in dst.iter_mut().zip(tile.row(t)) {
                *d += *s;
            }
        }
    }

    /// Forward pass over the full graph (every row is a query).
    ///
    /// `x` is `[batch*seq, d_model]`; `valid[b]` is the non-pad prefix of
    /// sequence `b` (≥ 1, counting CLS). `train` picks the mode (see the
    /// [module docs](self)): only a train forward retains the backward
    /// cache and probabilities.
    pub fn forward(
        &mut self,
        x: &Tensor,
        batch: usize,
        seq: usize,
        valid: &[usize],
        train: bool,
    ) -> Tensor {
        let context = self.context_from(x, batch, seq, seq, valid, train);
        let y = self.wo.forward(&context, train);
        scratch::give(context.into_data());
        y
    }

    /// Forward pass fused with the residual connection: returns
    /// `x + MHSA(x)` at the `q_rows` leading rows of each sequence,
    /// `[batch*q_rows, d_model]`.
    ///
    /// `q_rows` (`1..=seq`) is how many leading rows of each sequence act
    /// as queries: every row is still projected and attended over as a
    /// key and value, but only the query rows get a context row, an
    /// out-projection and a residual — `seq` for the full graph, `1` for
    /// the CLS-only final block. A train forward needs every query row.
    ///
    /// On the int8 tier the output projection runs the fused
    /// dequantize+bias+residual epilogue, so the residual add costs no
    /// extra pass over the activations. On the f32 tiers this is exactly
    /// `x.add(&self.forward(..))` — the same bits as the unfused form.
    pub fn forward_residual(
        &mut self,
        x: &Tensor,
        batch: usize,
        seq: usize,
        q_rows: usize,
        valid: &[usize],
        train: bool,
    ) -> Tensor {
        let context = self.context_from(x, batch, seq, q_rows, valid, train);
        let gathered = (q_rows < seq).then(|| leading_rows(x, seq, q_rows));
        let res = gathered.as_ref().unwrap_or(x);
        let out = if self.wo.is_quantized() {
            let qc = QuantizedActivations::quantize(&context);
            let out = self.wo.forward_quant_residual(&qc, res);
            qc.recycle();
            out
        } else {
            res.add(&self.wo.forward(&context, train))
        };
        scratch::give(context.into_data());
        if let Some(g) = gathered {
            scratch::give(g.into_data());
        }
        out
    }

    /// Runs the projection stage: the fused single GEMM at inference
    /// when the fast-path cache is up, the legacy three GEMMs otherwise
    /// (with `x` quantized **once** for all three when the projection
    /// weights hold int8 copies — the quantize-once reuse pinned by the
    /// tensor crate's `int8_kernel_proptests`).
    fn project(&mut self, x: &Tensor, train: bool) -> Proj {
        if !train {
            if let Some(f) = &self.fused {
                record_fused_hit();
                let out = match &f.form {
                    FusedForm::Quant(qw) => {
                        let qx = QuantizedActivations::quantize(x);
                        let y = matmul_quant_reuse(&qx, qw, QuantEpilogue::Bias(f.bias.data()));
                        qx.recycle();
                        y
                    }
                    FusedForm::Packed(pw) => {
                        let mut y = ops::matmul_prepacked(x, pw);
                        ops::add_bias(&mut y, &f.bias);
                        y
                    }
                    FusedForm::Plain(w) => {
                        let mut y = ops::matmul(x, w);
                        ops::add_bias(&mut y, &f.bias);
                        y
                    }
                };
                return Proj::Fused(out);
            }
        }
        if self.wq.is_quantized() {
            let qx = QuantizedActivations::quantize(x);
            let q = self.wq.forward_quant(&qx);
            let k = self.wk.forward_quant(&qx);
            let v = self.wv.forward_quant(&qx);
            qx.recycle();
            Proj::Split(q, k, v)
        } else {
            Proj::Split(
                self.wq.forward(x, train),
                self.wk.forward(x, train),
                self.wv.forward(x, train),
            )
        }
    }

    /// Projects Q/K/V, runs the masked score/context tiles for the
    /// `q_rows` leading query rows of each sequence, and returns the
    /// merged `[batch*q_rows, d_model]` context (pre output-projection)
    /// on arena capacity. Train forwards store the backward cache;
    /// inference forwards recycle every intermediate (see the
    /// [module docs](self)).
    fn context_from(
        &mut self,
        x: &Tensor,
        batch: usize,
        seq: usize,
        q_rows: usize,
        valid: &[usize],
        train: bool,
    ) -> Tensor {
        assert_eq!(x.rows(), batch * seq, "activation rows");
        assert_eq!(valid.len(), batch, "valid lengths");
        assert!((1..=seq).contains(&q_rows), "q_rows {q_rows} outside 1..={seq}");
        assert!(!train || q_rows == seq, "train forwards keep every query row for backward");
        let d = self.d_model;
        let proj = self.project(x, train);
        let fused_path = matches!(proj, Proj::Fused(_));
        let dh = d / self.n_heads;
        let scale = 1.0 / (dh as f32).sqrt();
        let mut context =
            Tensor::from_vec(&[batch * q_rows, d], scratch::take_zeroed(batch * q_rows * d));
        // Score/context tiles per (batch, head) pair, computed across the
        // pool. Each pair is independent; the merge below runs serially in
        // a fixed order so results don't depend on scheduling.
        let tiles = par_map_indexed(batch * self.n_heads, 2, |bh| {
            let (b, h) = (bh / self.n_heads, bh % self.n_heads);
            let vb = valid[b].clamp(1, seq);
            record_tile_dispatch(fused_path);
            let (q, k, v, col0) = match &proj {
                Proj::Fused(qkv) => (qkv, qkv, qkv, [0, d, 2 * d]),
                Proj::Split(q, k, v) => (q, k, v, [0, 0, 0]),
            };
            let qt = self.head_tile(q, b * seq, col0[0] + h * dh, q_rows);
            let ktt = self.head_tile_t(k, b * seq, col0[1] + h * dh, seq);
            let vt = self.head_tile(v, b * seq, col0[2] + h * dh, seq);
            // The per-call K/V tiles are too transient to pre-pack:
            // matmul_unpacked runs the simple kernel (bitwise identical
            // to the packed path) with zero pack builds per call. Its
            // rows are independent, so a `[q_rows, seq]` score tile holds
            // bitwise the leading rows of the full `[seq, seq]` one.
            let mut scores = ops::matmul_unpacked(&qt, &ktt);
            if fused_path {
                // Single-pass masked epilogue — bitwise identical to the
                // two-pass scale-then-softmax below on every tier.
                ops::softmax_rows_scaled_uniform(&mut scores, scale, vb);
            } else {
                scores.map_in_place(|s| s * scale);
                ops::softmax_rows_uniform(&mut scores, vb);
            }
            let ctx = ops::matmul_unpacked(&scores, &vt);
            scratch::give(qt.into_data());
            scratch::give(ktt.into_data());
            scratch::give(vt.into_data());
            if train {
                (Some(scores), ctx)
            } else {
                scratch::give(scores.into_data());
                (None, ctx)
            }
        });
        let mut probs = Vec::with_capacity(if train { batch * self.n_heads } else { 0 });
        for (bh, (scores, ctx)) in tiles.into_iter().enumerate() {
            let (b, h) = (bh / self.n_heads, bh % self.n_heads);
            self.add_head_tile(&mut context, &ctx, b * q_rows, h);
            scratch::give(ctx.into_data());
            if let Some(p) = scores {
                probs.push(p);
            }
        }
        // Train retains the backward cache; inference retains nothing —
        // not even a previous train forward's cache.
        self.cache = match proj {
            Proj::Split(q, k, v) if train => Some(Cache { batch, seq, q, k, v, probs }),
            Proj::Split(q, k, v) => {
                scratch::give(q.into_data());
                scratch::give(k.into_data());
                scratch::give(v.into_data());
                None
            }
            Proj::Fused(qkv) => {
                scratch::give(qkv.into_data());
                None
            }
        };
        context
    }

    /// Backward pass; returns gradient w.r.t. the input activations.
    /// Requires a preceding **train** forward (inference forwards are
    /// cache-free) and refuses to run while the inference-only fused
    /// cache is up, mirroring the [`Linear`] backward asserts.
    pub fn backward(&mut self, dy: &Tensor) -> Tensor {
        assert!(self.fused.is_none(), "attention backward with fused (inference-only) caches");
        let cache = self.cache.take().expect("attention backward before forward");
        let Cache { batch, seq, q, k, v, probs } = cache;
        let dh = self.d_model / self.n_heads;
        let scale = 1.0 / (dh as f32).sqrt();
        let dcontext = self.wo.backward(dy);
        let mut dq = Tensor::zeros(&[batch * seq, self.d_model]);
        let mut dk = Tensor::zeros(&[batch * seq, self.d_model]);
        let mut dv = Tensor::zeros(&[batch * seq, self.d_model]);
        // Per-(batch, head) gradient tiles across the pool, merged
        // serially (mirrors the forward pass).
        let tiles = par_map_indexed(batch * self.n_heads, 2, |bh| {
            let (b, h) = (bh / self.n_heads, bh % self.n_heads);
            let p = &probs[bh];
            let dctx = self.head_tile(&dcontext, b * seq, h * dh, seq);
            let qt = self.head_tile(&q, b * seq, h * dh, seq);
            let kt = self.head_tile(&k, b * seq, h * dh, seq);
            let vtt = self.head_tile_t(&v, b * seq, h * dh, seq);
            // dV = Pᵀ · dCtx
            let dvt = ops::matmul_tn(p, &dctx);
            // dP = dCtx · Vᵀ
            let dp = ops::matmul(&dctx, &vtt);
            // dS = softmax'(P, dP) (masked cols have P = 0 ⇒ dS = 0)
            let mut ds = ops::softmax_backward(p, &dp);
            ds.map_in_place(|s| s * scale);
            // dQ = dS · K ; dK = dSᵀ · Q
            let dqt = ops::matmul(&ds, &kt);
            let dkt = ops::matmul_tn(&ds, &qt);
            (dqt, dkt, dvt)
        });
        for (bh, (dqt, dkt, dvt)) in tiles.into_iter().enumerate() {
            let (b, h) = (bh / self.n_heads, bh % self.n_heads);
            self.add_head_tile(&mut dq, &dqt, b * seq, h);
            self.add_head_tile(&mut dk, &dkt, b * seq, h);
            self.add_head_tile(&mut dv, &dvt, b * seq, h);
        }
        let mut dx = self.wq.backward(&dq);
        dx.add_assign(&self.wk.backward(&dk));
        dx.add_assign(&self.wv.backward(&dv));
        dx
    }

    /// Visits the four projection layers' parameters. Handing out
    /// `&mut Param` can change the weights, so the fused QKV cache (a
    /// derived copy, like the per-layer int8/packed ones) is dropped.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.fused = None;
        self.wq.visit_params(f);
        self.wk.visit_params(f);
        self.wv.visit_params(f);
        self.wo.visit_params(f);
    }

    /// Visits the four projection layers themselves (int8 cache
    /// management, weight accounting).
    pub fn for_each_linear(&mut self, f: &mut dyn FnMut(&mut Linear)) {
        f(&mut self.wq);
        f(&mut self.wk);
        f(&mut self.wv);
        f(&mut self.wo);
    }

    /// Attention probabilities of the last **train** forward, per
    /// `(batch, head)` in row-major order — used by explainability
    /// tools. `None` after an inference forward (cache-free mode).
    pub fn last_probs(&self) -> Option<&[Tensor]> {
        self.cache.as_ref().map(|c| c.probs.as_slice())
    }

    /// Bytes currently retained by this block's backward cache
    /// (projected Q/K/V plus every probability tile). Exactly zero after
    /// an inference forward — the invariant `profile_advise` asserts in
    /// steady state.
    pub fn retained_cache_bytes(&self) -> usize {
        self.cache.as_ref().map_or(0, |c| {
            let probs: usize = c.probs.iter().map(Tensor::len).sum();
            (c.q.len() + c.k.len() + c.v.len() + probs) * 4
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SeededRng {
        SeededRng::new(12)
    }

    #[test]
    fn forward_shapes_and_finiteness() {
        let mut r = rng();
        let mut attn = MultiHeadSelfAttention::new("a", 8, 2, &mut r);
        let x = Tensor::randn(&[2 * 5, 8], 1.0, &mut r);
        let y = attn.forward(&x, 2, 5, &[5, 3], false);
        assert_eq!(y.shape(), &[10, 8]);
        assert!(y.all_finite());
    }

    #[test]
    fn padding_positions_get_zero_attention() {
        let mut r = rng();
        let mut attn = MultiHeadSelfAttention::new("a", 8, 2, &mut r);
        let x = Tensor::randn(&[4, 8], 1.0, &mut r);
        // Train mode: probabilities are only retained for backward /
        // explainability there.
        let _ = attn.forward(&x, 1, 4, &[2], true);
        let probs = attn.last_probs().unwrap();
        for p in probs {
            for row in 0..4 {
                assert_eq!(p.at2(row, 2), 0.0);
                assert_eq!(p.at2(row, 3), 0.0);
                let s: f32 = p.row(row).iter().sum();
                assert!((s - 1.0).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn inference_forward_is_cache_free_and_bitwise_equal_to_train() {
        let mut r = rng();
        let mut attn = MultiHeadSelfAttention::new("a", 8, 2, &mut r);
        let x = Tensor::randn(&[2 * 4, 8], 1.0, &mut r);
        let y_train = attn.forward(&x, 2, 4, &[4, 2], true);
        assert!(attn.last_probs().is_some(), "train forward must retain probs");
        attn.cache = None;
        let y_infer = attn.forward(&x, 2, 4, &[4, 2], false);
        assert_eq!(y_train, y_infer, "mode must not change bits");
        assert!(attn.last_probs().is_none(), "infer forward must retain nothing");
        // An inference forward must also drop a previous train cache.
        let _ = attn.forward(&x, 2, 4, &[4, 2], true);
        assert!(attn.last_probs().is_some());
        let _ = attn.forward(&x, 2, 4, &[4, 2], false);
        assert!(attn.last_probs().is_none(), "infer forward kept an older train cache");
    }

    #[test]
    fn fused_paths_are_bitwise_equal_to_split() {
        // The fused single-GEMM projection + single-pass softmax must be
        // bitwise identical to the legacy path in every cache regime,
        // including a d_model that is not a multiple of the pack width.
        for (d_model, n_heads, batch, seq) in [(8usize, 2usize, 2usize, 5usize), (12, 3, 1, 7)] {
            let mut r = SeededRng::new(d_model as u64);
            let mut attn = MultiHeadSelfAttention::new("a", d_model, n_heads, &mut r);
            let x = Tensor::randn(&[batch * seq, d_model], 1.0, &mut r);
            let valid: Vec<usize> = (0..batch).map(|b| seq - b).collect();
            let baseline = attn.forward(&x, batch, seq, &valid, false);
            for (int8, packed) in [(false, false), (false, true), (true, false)] {
                attn.configure_inference_caches(int8, packed, true);
                assert!(attn.fused_active());
                let fused = attn.forward(&x, batch, seq, &valid, false);
                if int8 {
                    // int8 quantizes; compare against the unfused int8 path.
                    attn.configure_inference_caches(true, false, false);
                    let split = attn.forward(&x, batch, seq, &valid, false);
                    assert_eq!(fused, split, "int8 fused != split (d={d_model})");
                } else {
                    assert_eq!(
                        fused, baseline,
                        "f32 fused(packed={packed}) != split (d={d_model})"
                    );
                }
            }
            attn.configure_inference_caches(false, false, false);
            assert!(!attn.fused_active());
        }
    }

    #[test]
    fn leading_query_rows_are_bitwise_the_full_rows() {
        // Query rows are independent: running only the first `q_rows`
        // queries of each sequence reproduces those rows of the full
        // forward bit for bit, in every cache regime.
        let (d_model, n_heads, batch, seq) = (12usize, 3usize, 3usize, 6usize);
        let mut r = rng();
        let mut attn = MultiHeadSelfAttention::new("a", d_model, n_heads, &mut r);
        let x = Tensor::randn(&[batch * seq, d_model], 1.0, &mut r);
        let valid = [6usize, 1, 4];
        for (int8, packed, fused) in
            [(false, false, false), (false, true, true), (true, false, false), (true, false, true)]
        {
            attn.configure_inference_caches(int8, packed, fused);
            let full = attn.forward_residual(&x, batch, seq, seq, &valid, false);
            for q_rows in [1, 2] {
                let part = attn.forward_residual(&x, batch, seq, q_rows, &valid, false);
                assert_eq!(part, leading_rows(&full, seq, q_rows), "q_rows={q_rows} int8={int8}");
            }
        }
    }

    #[test]
    fn visit_params_drops_fused_cache() {
        let mut r = rng();
        let mut attn = MultiHeadSelfAttention::new("a", 8, 2, &mut r);
        attn.configure_inference_caches(false, true, true);
        assert!(attn.fused_active());
        attn.visit_params(&mut |_| {});
        assert!(!attn.fused_active(), "fused cache survived visit_params");
    }

    #[test]
    fn changing_masked_token_does_not_change_valid_outputs() {
        let mut r = rng();
        let mut attn = MultiHeadSelfAttention::new("a", 8, 2, &mut r);
        let x1 = Tensor::randn(&[4, 8], 1.0, &mut r);
        let mut x2 = x1.clone();
        // Perturb the padded position (index 3, valid = 3).
        for d in 0..8 {
            *x2.at2_mut(3, d) += 5.0;
        }
        let y1 = attn.forward(&x1, 1, 4, &[3], false);
        let y2 = attn.forward(&x2, 1, 4, &[3], false);
        for t in 0..3 {
            for d in 0..8 {
                assert!(
                    (y1.at2(t, d) - y2.at2(t, d)).abs() < 1e-5,
                    "valid row {t} affected by padding"
                );
            }
        }
    }

    #[test]
    fn gradcheck_attention_inputs() {
        // Finite-difference check on the input gradient for a tiny shape.
        let mut r = rng();
        let mut attn = MultiHeadSelfAttention::new("a", 4, 2, &mut r);
        let x = Tensor::randn(&[3, 4], 0.5, &mut r);
        let (batch, seq, valid) = (1usize, 3usize, vec![3usize]);

        let loss = |attn: &mut MultiHeadSelfAttention, x: &Tensor| -> f32 {
            let y = attn.forward(x, batch, seq, &valid, true);
            y.data().iter().map(|v| v.sin()).sum()
        };
        let y = attn.forward(&x, batch, seq, &valid, true);
        let dy = y.map(|v| v.cos());
        let dx = attn.backward(&dy);

        let eps = 1e-2f32;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let fp = loss(&mut attn, &xp);
            attn.cache = None;
            let fm = loss(&mut attn, &xm);
            attn.cache = None;
            let num = (fp - fm) / (2.0 * eps);
            let ana = dx.data()[i];
            let denom = num.abs().max(ana.abs()).max(1.0);
            assert!(
                ((num - ana) / denom).abs() < 3e-2,
                "input grad mismatch at {i}: {num} vs {ana}"
            );
        }
    }

    #[test]
    fn gradcheck_attention_parameters() {
        let mut r = rng();
        let mut attn = MultiHeadSelfAttention::new("a", 4, 2, &mut r);
        let x = Tensor::randn(&[3, 4], 0.5, &mut r);
        let (batch, seq, valid) = (1usize, 3usize, vec![3usize]);

        let y = attn.forward(&x, batch, seq, &valid, true);
        let dy = y.map(|v| v.cos());
        let _ = attn.backward(&dy);

        let mut grads: Vec<(u64, Tensor)> = Vec::new();
        attn.visit_params(&mut |p| grads.push((p.id, p.grad.clone())));

        let eps = 1e-2f32;
        for (pid, g) in grads {
            for i in [0usize, g.len() / 2, g.len() - 1] {
                let probe = |delta: f32, attn: &mut MultiHeadSelfAttention| {
                    attn.visit_params(&mut |p| {
                        if p.id == pid {
                            p.value.data_mut()[i] += delta;
                        }
                    });
                    let y = attn.forward(&x, batch, seq, &valid, true);
                    attn.cache = None;
                    attn.visit_params(&mut |p| {
                        if p.id == pid {
                            p.value.data_mut()[i] -= delta;
                        }
                    });
                    y.data().iter().map(|v| v.sin()).sum::<f32>()
                };
                let fp = probe(eps, &mut attn);
                let fm = probe(-eps, &mut attn);
                let num = (fp - fm) / (2.0 * eps);
                let ana = g.data()[i];
                let denom = num.abs().max(ana.abs()).max(1.0);
                assert!(
                    ((num - ana) / denom).abs() < 3e-2,
                    "param {pid} grad mismatch at {i}: {num} vs {ana}"
                );
            }
        }
    }
}
