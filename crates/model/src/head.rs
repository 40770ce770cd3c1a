//! The trunk/head split of the PragFormer classifier.
//!
//! §4.3's "FC layer" (two dense layers with a ReLU between them, plus
//! dropout) used to live inline in [`crate::PragFormer`]; it is now a
//! standalone [`ClassifierHead`] so several heads can share **one**
//! [`Trunk`] forward — the shared-trunk multi-task model
//! ([`crate::multitask::MultiTaskPragFormer`]) runs the encoder once per
//! snippet and only the cheap `[batch, d_model] → [batch, n_classes]`
//! head projections per task.
//!
//! [`Trunk`] owns everything below the heads: the embedding + encoder
//! stack ([`Encoder`]) and CLS pooling. Its `[batch, d_model]` CLS output
//! is the hand-off point: bitwise identical regardless of batch size and
//! padded length (the `pragformer_tensor::ops` row-determinism contract),
//! which is what lets heads, caches and serving layers treat it as a pure
//! function of the encoded id sequence.

use crate::attention::leading_rows;
use crate::config::ModelConfig;
use crate::encoder::Encoder;
use pragformer_tensor::init::SeededRng;
use pragformer_tensor::kernel::quantize::{
    QuantizedActivations, QuantizedEmbedding, QuantizedMatrix,
};
use pragformer_tensor::kernel::{active_tier, attn_fused_enabled, prepack_enabled, KernelTier};
use pragformer_tensor::nn::{Activation, ActivationKind, Dropout, Layer, Linear, Param};
use pragformer_tensor::ops::PackedWeights;
use pragformer_tensor::Tensor;

/// The shared lower stack: embeddings + encoder blocks + CLS pooling.
///
/// `forward_cls` returns row `b·seq` of each sequence (the CLS position)
/// as a `[batch, d_model]` matrix — eval forwards compute nothing else in
/// the final encoder block; `backward_cls` scatters CLS gradients back
/// and completes the encoder backward pass. One trunk forward feeds any
/// number of [`ClassifierHead`]s.
pub struct Trunk {
    encoder: Encoder,
    cache: Option<(usize, usize)>,
    /// Per-model override of the int8 decision: `Some(true)` forces the
    /// quantized trunk, `Some(false)` forces f32, `None` follows the
    /// process-wide kernel tier. Model-local so parity harnesses can
    /// compare both paths without flipping the global tier under
    /// concurrently running models.
    int8_override: Option<bool>,
    /// Per-model override of the f32 pre-packing decision: `Some(true)`
    /// forces packed panels, `Some(false)` forces pack-per-call, `None`
    /// follows the process-wide [`prepack_enabled`] switch. Irrelevant
    /// while the int8 path is active (int8 wins).
    prepack_override: Option<bool>,
    /// Per-model override of the fused-attention decision: `Some(true)`
    /// forces the fused QKV + single-pass-softmax fast path at
    /// inference, `Some(false)` forces the legacy split path, `None`
    /// follows the process-wide [`attn_fused_enabled`] switch
    /// (`PRAGFORMER_ATTN`). Orthogonal to the int8/prepack axes — the
    /// fused cache takes whatever form the active tier implies.
    attn_fused_override: Option<bool>,
}

impl Trunk {
    /// Builds a trunk from a config and seed.
    pub fn new(cfg: &ModelConfig, rng: &mut SeededRng) -> Self {
        Self {
            encoder: Encoder::new(cfg, rng),
            cache: None,
            int8_override: None,
            prepack_override: None,
            attn_fused_override: None,
        }
    }

    /// Wraps an already-built encoder (e.g. one restored from MLM
    /// pre-training).
    pub fn from_encoder(encoder: Encoder) -> Self {
        Self {
            encoder,
            cache: None,
            int8_override: None,
            prepack_override: None,
            attn_fused_override: None,
        }
    }

    /// Sets the model-local int8 override (see the field docs). Takes
    /// effect on the next eval forward.
    pub fn set_int8_override(&mut self, force: Option<bool>) {
        self.int8_override = force;
    }

    /// The current model-local int8 override.
    pub fn int8_override(&self) -> Option<bool> {
        self.int8_override
    }

    /// Sets the model-local pre-packing override (see the field docs).
    /// Takes effect on the next eval forward.
    pub fn set_prepack_override(&mut self, force: Option<bool>) {
        self.prepack_override = force;
    }

    /// The current model-local pre-packing override.
    pub fn prepack_override(&self) -> Option<bool> {
        self.prepack_override
    }

    /// Sets the model-local fused-attention override (see the field
    /// docs). Takes effect on the next eval forward.
    pub fn set_attn_fused_override(&mut self, force: Option<bool>) {
        self.attn_fused_override = force;
    }

    /// The current model-local fused-attention override.
    pub fn attn_fused_override(&self) -> Option<bool> {
        self.attn_fused_override
    }

    /// Whether the next eval forward will run on pre-packed f32 panels
    /// (the override, or the process-wide switch when unset; always
    /// `false` when the int8 path wins).
    pub fn wants_prepack(&self) -> bool {
        self.inference_wants().1
    }

    /// The cache regimes an eval forward runs under: `(int8, packed,
    /// fused_attn)` after applying the model-local overrides on top of
    /// the process-wide switches (int8 wins over packed; fused attention
    /// is orthogonal and takes whichever form the winner implies).
    fn inference_wants(&self) -> (bool, bool, bool) {
        let int8 = self.int8_override.unwrap_or_else(|| active_tier() == KernelTier::Int8);
        let packed = !int8 && self.prepack_override.unwrap_or_else(prepack_enabled);
        let fused = self.attn_fused_override.unwrap_or_else(attn_fused_enabled);
        (int8, packed, fused)
    }

    /// Eagerly builds the weight caches the next eval forward would use
    /// (int8 copies, pre-packed f32 panels, fused QKV panels), moving
    /// the one-time pack/quantize cost out of the first request.
    pub fn prepack_for_inference(&mut self) {
        let (int8, packed, fused) = self.inference_wants();
        self.encoder.configure_inference_caches(int8, packed, fused);
        if pragformer_obs::enabled() && pragformer_obs::log_enabled(pragformer_obs::Level::Info) {
            let wb = self.weight_bytes();
            pragformer_obs::log_kv(
                pragformer_obs::Level::Info,
                "model.trunk",
                "trunk inference caches built",
                &[
                    ("path", if int8 { "int8" } else { "f32" }),
                    ("f32_bytes", &wb.f32_bytes.to_string()),
                    ("int8_bytes", &wb.int8_bytes.to_string()),
                    ("quant_scratch_bytes", &wb.quant_scratch_bytes.to_string()),
                ],
            );
        }
    }

    /// Model configuration.
    pub fn config(&self) -> &ModelConfig {
        self.encoder.config()
    }

    /// Read access to the underlying encoder (attention maps etc.).
    pub fn encoder(&self) -> &Encoder {
        &self.encoder
    }

    /// Bytes retained by the encoder's attention backward caches — zero
    /// after any inference forward (see [`crate::attention`]).
    pub fn retained_attention_bytes(&self) -> usize {
        self.encoder.retained_attention_bytes()
    }

    /// Forward over `batch × seq` flattened ids (`seq ≤ max_len`),
    /// returning the `[batch, d_model]` CLS representations.
    ///
    /// Per row, the result is **bitwise identical** for every batch size
    /// and every padded length `seq ≥ valid[b]` (see
    /// [`Encoder::forward_seq`]) — the property every head, cache and
    /// serving layer above this trunk relies on. Eval forwards exploit
    /// the same property from the inside, twice:
    ///
    /// - the padded length is clamped to the batch's longest valid
    ///   prefix before the encoder runs, so rows the attention mask
    ///   would discard are never embedded, projected, or normalized;
    /// - the final encoder block runs at the CLS rows only
    ///   ([`Encoder::forward_cls`]): only they leave it, so its other
    ///   query rows, score rows, out-projection, LayerNorms and FFN rows
    ///   are never computed.
    ///
    /// Both are output-invisible by the row-determinism contract above
    /// (pinned by the padding-invariance and `cls_only_proptests`
    /// proptests). An eval forward keeps no state, so it leaves nothing
    /// for [`Trunk::backward_cls`]. Training runs the full-row graph at
    /// the caller's padding and records the geometry backward needs.
    pub fn forward_cls(
        &mut self,
        ids: &[usize],
        valid: &[usize],
        seq: usize,
        train: bool,
    ) -> Tensor {
        // Inference cache regimes are gated here (not in the layers):
        // eval forwards under the Int8 tier — or a model-local override
        // — run on int8 weight copies, f32 eval forwards on pre-packed
        // panels, and the attention blocks on fused QKV caches; training
        // always runs plain f32 with everything torn down (backward
        // refuses to run over inference caches). The configure pass is
        // idempotent and the copies are invalidated by any parameter
        // mutation, so this stays correct across train/eval
        // interleavings and checkpoint restores.
        let batch = ids.len() / seq.max(1);
        if train {
            self.encoder.configure_inference_caches(false, false, false);
            let h = self.encoder.forward_seq(ids, valid, seq, true);
            self.cache = Some((batch, seq));
            return leading_rows(&h, seq, 1);
        }
        let (int8, packed, fused) = self.inference_wants();
        self.encoder.configure_inference_caches(int8, packed, fused);
        self.cache = None;
        // Eval-only padded-length clamp (see the doc comment): run at
        // the longest valid prefix instead of the caller's padding.
        let run_seq = valid.iter().copied().max().unwrap_or(seq).clamp(1, seq.max(1));
        if run_seq == seq || batch <= 1 {
            self.encoder.forward_cls(&ids[..batch * run_seq], valid, run_seq)
        } else {
            let gathered: Vec<usize> =
                ids.chunks(seq).flat_map(|row| &row[..run_seq]).copied().collect();
            self.encoder.forward_cls(&gathered, valid, run_seq)
        }
    }

    /// Backward from CLS gradients (`[batch, d_model]`) into every
    /// encoder parameter. Must follow a matching [`Trunk::forward_cls`].
    pub fn backward_cls(&mut self, dcls: &Tensor) {
        let (batch, seq) = self.cache.take().expect("Trunk backward before forward");
        let d_model = self.config().d_model;
        let mut dh = Tensor::zeros(&[batch * seq, d_model]);
        for b in 0..batch {
            dh.row_mut(b * seq).copy_from_slice(dcls.row(b));
        }
        self.encoder.backward(&dh);
    }

    /// Drops the forward cache (train forwards that skip backward; eval
    /// forwards leave none).
    pub fn clear_cache(&mut self) {
        self.cache = None;
    }

    /// Parameter traversal over the encoder stack.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.encoder.visit_params(f);
    }

    /// Static weight-memory accounting for this trunk (f32 vs the int8
    /// tier). Pure shape arithmetic from the config — building the int8
    /// caches is not required and nothing is invalidated.
    pub fn weight_bytes(&self) -> TrunkWeightBytes {
        let cfg = self.config();
        let (d, dff) = (cfg.d_model, cfg.d_ff);
        let mut f32_bytes = 0usize;
        let mut int8_bytes = 0usize;
        let mut prepacked_bytes = 0usize;
        // Embedding tables: quantized per row under int8; never
        // pre-packed (lookups are gathers, not GEMMs).
        for (rows, dim) in [(cfg.vocab, d), (cfg.max_len, d)] {
            f32_bytes += rows * dim * 4;
            int8_bytes += QuantizedEmbedding::bytes_for(rows, dim);
        }
        // Weight matrices: quantized per output column under int8,
        // panel-packed (column-padded to the kernel's NR) when prepacked.
        let mats_per_layer = [(d, d), (d, d), (d, d), (d, d), (d, dff), (dff, d)];
        for (rows, cols) in mats_per_layer.into_iter().cycle().take(6 * cfg.n_layers) {
            f32_bytes += rows * cols * 4;
            int8_bytes += QuantizedMatrix::bytes_for(rows, cols);
            prepacked_bytes += PackedWeights::bytes_for(rows, cols);
        }
        // Biases and LayerNorm affine params stay f32 in both tiers:
        // embedding LN (2d) + per layer 4 attention biases (4d), two
        // LNs (4d), and the FFN biases (dff + d).
        let small = 2 * d + cfg.n_layers * (4 * d + 4 * d + dff + d);
        f32_bytes += small * 4;
        int8_bytes += small * 4;
        // Quantized-activation scratch at the worst-case batch of one
        // max_len sequence: the arena retains one d_model-wide i8 lane
        // (shared in turn by the Q/K/V input, the attention output and
        // the FFN input) plus the wider d_ff lane for the FFN midpoint.
        let quant_scratch_bytes = QuantizedActivations::bytes_for(cfg.max_len, d)
            + QuantizedActivations::bytes_for(cfg.max_len, dff);
        TrunkWeightBytes { f32_bytes, int8_bytes, prepacked_bytes, quant_scratch_bytes }
    }
}

/// Byte totals for a trunk's weights in the f32 and int8 tiers
/// (see [`Trunk::weight_bytes`]).
#[derive(Clone, Copy, Debug)]
pub struct TrunkWeightBytes {
    /// Total bytes of every trunk parameter held as f32.
    pub f32_bytes: usize,
    /// Total bytes with every weight matrix / embedding table in its
    /// int8 form (i8 values + f32 scales); biases and LN params stay f32.
    pub int8_bytes: usize,
    /// *Additional* bytes held while zero-repack inference is active:
    /// one panel-packed copy per weight matrix (`⌈n/NR⌉·k·NR` floats
    /// each). Embedding tables, biases and LN params hold no packed
    /// form, so this is ≈ +1× the weight-matrix share of `f32_bytes`.
    /// With the fused attention fast path active the per-layer Q/K/V
    /// panels are held as one `[d, 3d]` pack instead of three `[d, d]`
    /// packs — identical bytes for `NR`-multiple `d_model` (every real
    /// profile) and never more, so this total stays an exact/upper
    /// accounting either way.
    pub prepacked_bytes: usize,
    /// *Additional* bytes retained by the scratch arena's i8 lane while
    /// int8 inference is active: per-sequence quantized activations
    /// (values + per-row scales) at the worst-case `max_len` shape —
    /// one `d_model`-wide buffer and one `d_ff`-wide buffer. Scales with
    /// batch rows, not with weights, and is zero on the f32 tiers.
    pub quant_scratch_bytes: usize,
}

impl TrunkWeightBytes {
    /// `int8_bytes / f32_bytes` — the compression ratio the int8
    /// acceptance gate bounds (≤ 0.30 at evaluation scales).
    pub fn ratio(&self) -> f64 {
        self.int8_bytes as f64 / self.f32_bytes as f64
    }
}

/// One classification head: `fc1 → ReLU → dropout → fc2` over CLS
/// representations (§4.3's two-dense FC block).
///
/// Parameters are named `{name}.fc1` / `{name}.fc2`, so the single-head
/// [`crate::PragFormer`] (name `"head"`) keeps its historical state-dict
/// keys and the multi-task heads get distinct ones
/// (`head.directive.fc1`, …).
pub struct ClassifierHead {
    fc1: Linear,
    act: Activation,
    drop: Dropout,
    fc2: Linear,
}

impl ClassifierHead {
    /// Builds a head whose parameters are named under `name`.
    pub fn new(name: &str, cfg: &ModelConfig, rng: &mut SeededRng) -> Self {
        Self {
            fc1: Linear::named(&format!("{name}.fc1"), cfg.d_model, cfg.d_model, rng),
            act: Activation::new(ActivationKind::Relu),
            drop: Dropout::new(cfg.dropout, rng),
            fc2: Linear::named(&format!("{name}.fc2"), cfg.d_model, cfg.n_classes, rng),
        }
    }

    /// `[batch, d_model]` CLS rows → `[batch, n_classes]` logits.
    pub fn forward(&mut self, cls: &Tensor, train: bool) -> Tensor {
        let z = self.fc1.forward(cls, train);
        let z = self.act.forward(&z, train);
        let z = self.drop.forward(&z, train);
        self.fc2.forward(&z, train)
    }

    /// Backward from logit gradients; returns the CLS gradient.
    pub fn backward(&mut self, dlogits: &Tensor) -> Tensor {
        let dz = self.fc2.backward(dlogits);
        let dz = self.drop.backward(&dz);
        let dz = self.act.backward(&dz);
        self.fc1.backward(&dz)
    }

    /// Parameter traversal.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.fc1.visit_params(f);
        self.act.visit_params(f);
        self.drop.visit_params(f);
        self.fc2.visit_params(f);
    }

    /// Visits both dense layers (cache management, weight accounting).
    pub fn for_each_linear(&mut self, f: &mut dyn FnMut(&mut Linear)) {
        f(&mut self.fc1);
        f(&mut self.fc2);
    }

    /// Builds (or keeps) pre-packed panels for both dense layers. Heads
    /// always run f32 — the int8 tier quantizes only the trunk — so
    /// head packing applies under every kernel tier.
    pub fn ensure_packed(&mut self) {
        self.fc1.ensure_packed();
        self.fc2.ensure_packed();
    }

    /// Drops the packed copies; forwards return to pack-per-call f32.
    pub fn drop_packed(&mut self) {
        self.fc1.drop_packed();
        self.fc2.drop_packed();
    }

    /// Whether the packed copies are currently built.
    pub fn is_packed(&self) -> bool {
        self.fc1.is_packed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trunk_cls_shape_and_determinism() {
        let cfg = ModelConfig::tiny(12);
        let mut rng = SeededRng::new(1);
        let mut trunk = Trunk::new(&cfg, &mut rng);
        let ids: Vec<usize> = (0..3 * cfg.max_len).map(|i| i % 12).collect();
        let cls = trunk.forward_cls(&ids, &[5, 7, 9], cfg.max_len, false);
        trunk.clear_cache();
        assert_eq!(cls.shape(), &[3, cfg.d_model]);
        let again = trunk.forward_cls(&ids, &[5, 7, 9], cfg.max_len, false);
        trunk.clear_cache();
        assert_eq!(cls, again);
    }

    #[test]
    #[should_panic(expected = "Trunk backward before forward")]
    fn eval_forward_leaves_nothing_for_backward() {
        // A train forward arms backward; the eval forward after it holds
        // no full-row state, so it must disarm backward again.
        let cfg = ModelConfig::tiny(12);
        let mut rng = SeededRng::new(4);
        let mut trunk = Trunk::new(&cfg, &mut rng);
        let ids: Vec<usize> = (0..2 * cfg.max_len).map(|i| i % 12).collect();
        let _ = trunk.forward_cls(&ids, &[5, 7], cfg.max_len, true);
        let cls = trunk.forward_cls(&ids, &[5, 7], cfg.max_len, false);
        trunk.backward_cls(&Tensor::zeros(cls.shape()));
    }

    #[test]
    fn weight_bytes_f32_total_matches_param_traversal() {
        let cfg = ModelConfig::tiny(12);
        let mut rng = SeededRng::new(5);
        let mut trunk = Trunk::new(&cfg, &mut rng);
        let wb = trunk.weight_bytes();
        let mut traversed = 0usize;
        trunk.visit_params(&mut |p| traversed += p.value.len() * 4);
        assert_eq!(wb.f32_bytes, traversed, "static accounting drifted from real params");
        assert!(wb.int8_bytes < wb.f32_bytes);
        // Packed panels cover exactly the weight matrices (no embeddings,
        // no biases), padded up to the kernel's NR column multiple.
        let (d, dff) = (cfg.d_model, cfg.d_ff);
        let mat_f32 = cfg.n_layers * (4 * d * d + 2 * d * dff) * 4;
        assert!(
            wb.prepacked_bytes >= mat_f32 && wb.prepacked_bytes < wb.f32_bytes,
            "prepacked {} outside [{mat_f32}, {})",
            wb.prepacked_bytes,
            wb.f32_bytes
        );
        // Tiny dims carry proportionally more scale overhead than the
        // eval scales the ≤0.30 gate targets; still far below 1.
        assert!(wb.ratio() < 0.45, "ratio {}", wb.ratio());
        // Quantized-activation scratch: exactly the two worst-case
        // per-sequence buffers (values + f32 row scales).
        let expect = (cfg.max_len * (d + dff)) + 2 * cfg.max_len * 4;
        assert_eq!(wb.quant_scratch_bytes, expect, "quant scratch accounting drifted");
    }

    #[test]
    fn int8_override_quantizes_eval_and_training_restores_f32() {
        let cfg = ModelConfig::tiny(12);
        let mut rng = SeededRng::new(6);
        let mut trunk = Trunk::new(&cfg, &mut rng);
        let ids: Vec<usize> = (0..2 * cfg.max_len).map(|i| i % 12).collect();
        let valid = [7usize, 9];
        // Pin the f32 baseline model-locally so the test holds even when
        // the process-wide tier is forced to int8 (CI's int8 sweep).
        trunk.set_int8_override(Some(false));
        let f32_cls = trunk.forward_cls(&ids, &valid, cfg.max_len, false);
        trunk.clear_cache();
        assert!(!trunk.encoder().int8_active());
        trunk.set_int8_override(Some(true));
        let q_cls = trunk.forward_cls(&ids, &valid, cfg.max_len, false);
        trunk.clear_cache();
        assert!(trunk.encoder().int8_active(), "override must build int8 caches");
        assert_ne!(f32_cls, q_cls, "quantization should perturb some bits");
        for (a, b) in f32_cls.data().iter().zip(q_cls.data()) {
            assert!((a - b).abs() < 0.35, "int8 CLS {b} too far from f32 {a}");
        }
        // A training forward must tear the int8 caches down even while
        // the override is still set.
        let _ = trunk.forward_cls(&ids, &valid, cfg.max_len, true);
        trunk.clear_cache();
        assert!(!trunk.encoder().int8_active(), "train forward left int8 caches up");
        trunk.set_int8_override(Some(false));
        let back = trunk.forward_cls(&ids, &valid, cfg.max_len, false);
        trunk.clear_cache();
        assert_eq!(back, f32_cls, "f32 path must restore bitwise");
    }

    #[test]
    fn prepack_override_is_bitwise_and_training_restores() {
        let cfg = ModelConfig::tiny(12);
        let mut rng = SeededRng::new(8);
        let mut trunk = Trunk::new(&cfg, &mut rng);
        let ids: Vec<usize> = (0..2 * cfg.max_len).map(|i| i % 12).collect();
        let valid = [7usize, 9];
        // Prepack semantics are f32-only; pin the model off int8 so a
        // process-wide int8 tier (CI's int8 sweep) can't preempt them.
        trunk.set_int8_override(Some(false));
        trunk.set_prepack_override(Some(false));
        let plain = trunk.forward_cls(&ids, &valid, cfg.max_len, false);
        trunk.clear_cache();
        assert!(!trunk.encoder().packed_active());
        trunk.set_prepack_override(Some(true));
        assert!(trunk.wants_prepack());
        let packed = trunk.forward_cls(&ids, &valid, cfg.max_len, false);
        trunk.clear_cache();
        assert!(trunk.encoder().packed_active(), "override must build packed caches");
        // Same tier, same panel bytes: zero-repack must be bit-for-bit.
        assert_eq!(plain, packed, "prepacked CLS diverged from pack-per-call");
        // A training forward must tear the packed caches down even while
        // the override is still set (backward refuses to run with them).
        let _ = trunk.forward_cls(&ids, &valid, cfg.max_len, true);
        trunk.clear_cache();
        assert!(!trunk.encoder().packed_active(), "train forward left packed caches up");
    }

    #[test]
    fn attn_fused_override_is_bitwise_and_training_restores() {
        let cfg = ModelConfig::tiny(12);
        let mut rng = SeededRng::new(10);
        let mut trunk = Trunk::new(&cfg, &mut rng);
        let ids: Vec<usize> = (0..2 * cfg.max_len).map(|i| i % 12).collect();
        let valid = [7usize, 9];
        // Pin the model off int8 so the comparison is pure f32 under
        // every process-wide tier (CI's int8 sweep).
        trunk.set_int8_override(Some(false));
        trunk.set_attn_fused_override(Some(false));
        let split = trunk.forward_cls(&ids, &valid, cfg.max_len, false);
        trunk.clear_cache();
        assert!(!trunk.encoder().attn_fused_active());
        trunk.set_attn_fused_override(Some(true));
        let fused = trunk.forward_cls(&ids, &valid, cfg.max_len, false);
        trunk.clear_cache();
        assert!(trunk.encoder().attn_fused_active(), "override must build fused caches");
        // One QKV GEMM + single-pass softmax must not move a bit.
        assert_eq!(split, fused, "fused attention CLS diverged from split path");
        // A training forward must tear the fused caches down even while
        // the override is still set (backward refuses to run with them).
        let _ = trunk.forward_cls(&ids, &valid, cfg.max_len, true);
        trunk.clear_cache();
        assert!(!trunk.encoder().attn_fused_active(), "train forward left fused caches up");
    }

    #[test]
    fn prepack_for_inference_packs_eagerly() {
        let cfg = ModelConfig::tiny(12);
        let mut rng = SeededRng::new(9);
        let mut trunk = Trunk::new(&cfg, &mut rng);
        // Start pinned to f32 so eager packing is what's under test even
        // when the process-wide tier is forced to int8 (CI's int8 sweep).
        trunk.set_int8_override(Some(false));
        trunk.set_prepack_override(Some(true));
        assert!(!trunk.encoder().packed_active());
        trunk.prepack_for_inference();
        assert!(trunk.encoder().packed_active(), "eager packing did nothing");
        // int8 wins: with the int8 override set, eager packing builds
        // the quantized caches instead of f32 panels.
        trunk.set_int8_override(Some(true));
        assert!(!trunk.wants_prepack());
        trunk.prepack_for_inference();
        assert!(trunk.encoder().int8_active(), "int8 override must quantize eagerly");
    }

    #[test]
    fn int8_cls_rows_are_batch_invariant() {
        let cfg = ModelConfig::tiny(12);
        let mut rng = SeededRng::new(7);
        let mut trunk = Trunk::new(&cfg, &mut rng);
        trunk.set_int8_override(Some(true));
        let ids: Vec<usize> = (0..3 * cfg.max_len).map(|i| (i * 3 + 1) % 12).collect();
        let valid = [5usize, 8, 11];
        let batched = trunk.forward_cls(&ids, &valid, cfg.max_len, false);
        trunk.clear_cache();
        for b in 0..3 {
            let one = trunk.forward_cls(
                &ids[b * cfg.max_len..(b + 1) * cfg.max_len],
                &valid[b..b + 1],
                cfg.max_len,
                false,
            );
            trunk.clear_cache();
            assert_eq!(one.row(0), batched.row(b), "int8 CLS row {b} not batch invariant");
        }
    }

    #[test]
    fn head_forward_backward_shapes() {
        let cfg = ModelConfig::tiny(12);
        let mut rng = SeededRng::new(2);
        let mut head = ClassifierHead::new("head", &cfg, &mut rng);
        let cls = Tensor::full(&[4, cfg.d_model], 0.1);
        let logits = head.forward(&cls, true);
        assert_eq!(logits.shape(), &[4, cfg.n_classes]);
        let dcls = head.backward(&Tensor::full(&[4, cfg.n_classes], 0.5));
        assert_eq!(dcls.shape(), &[4, cfg.d_model]);
        let mut names = Vec::new();
        head.visit_params(&mut |p| names.push(p.name.clone()));
        assert!(names.iter().any(|n| n == "head.fc1.w"));
        assert!(names.iter().any(|n| n == "head.fc2.b"));
    }

    #[test]
    fn head_names_follow_prefix() {
        let cfg = ModelConfig::tiny(12);
        let mut rng = SeededRng::new(3);
        let mut head = ClassifierHead::new("head.private", &cfg, &mut rng);
        let mut names = Vec::new();
        head.visit_params(&mut |p| names.push(p.name.clone()));
        assert!(!names.is_empty());
        for n in &names {
            assert!(n.starts_with("head.private.fc"), "unexpected param name {n}");
        }
    }
}
