//! Property test for the CLS-only final encoder block.
//!
//! The contract: an eval [`Trunk::forward_cls`] — which clamps the padded
//! length to the longest valid prefix and runs the final block at the CLS
//! rows only — returns **bitwise** row `b·seq` of the full-row graph,
//! [`Encoder::forward_seq`]`(.., false)` at the caller's padding, for every
//! sequence `b`. Swept over the scalar and AVX2 float tiers, the int8 trunk
//! (through the model-local override), fused and split attention, batches
//! of 1–8 with mixed valid lengths (including `valid = 1` and
//! `valid = seq`), and extra padding.
//!
//! The float tier is process-wide, so this file holds a single test and
//! is its own test binary: switching tiers here cannot race another test.

use pragformer_model::encoder::Encoder;
use pragformer_model::{ModelConfig, Trunk};
use pragformer_tensor::init::SeededRng;
use pragformer_tensor::kernel::{active_tier, avx2_available, set_tier, KernelTier};
use pragformer_tensor::Tensor;
use proptest::prelude::*;

const VOCAB: usize = 18;
const MAX_LEN: usize = 16;

fn tiny_cfg() -> ModelConfig {
    ModelConfig {
        vocab: VOCAB,
        d_model: 16,
        n_heads: 2,
        n_layers: 2,
        d_ff: 32,
        max_len: MAX_LEN,
        dropout: 0.0,
        n_classes: 2,
    }
}

fn bits_of(row: &[f32]) -> Vec<u32> {
    row.iter().map(|v| v.to_bits()).collect()
}

/// Restores the process-wide float tier when the test ends, pass or fail.
struct TierGuard(KernelTier);

impl Drop for TierGuard {
    fn drop(&mut self) {
        let _ = set_tier(self.0);
    }
}

/// The full-row oracle: a twin encoder (same seed) with the same inference
/// caches, run over every row at the caller's padding.
fn full_graph_cls(
    model_seed: u64,
    caches: (bool, bool, bool),
    ids: &[usize],
    valid: &[usize],
    seq: usize,
) -> Vec<Vec<u32>> {
    let mut enc = Encoder::new(&tiny_cfg(), &mut SeededRng::new(model_seed));
    let (int8, packed, fused) = caches;
    enc.configure_inference_caches(int8, packed, fused);
    let h: Tensor = enc.forward_seq(ids, valid, seq, false);
    (0..valid.len()).map(|b| bits_of(h.row(b * seq))).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn eval_cls_rows_are_bitwise_the_full_graph(
        lens in proptest::collection::vec(1usize..13, 1..9),
        singleton in any::<bool>(),
        pad_extra in 0usize..5,
        model_seed in 0u64..1_000,
        data_seed in 0u64..1_000,
    ) {
        let _restore = TierGuard(active_tier());
        // Mixed valid lengths; `singleton` adds a `valid = 1` sequence,
        // and `pad_extra = 0` makes the longest one exactly `valid = seq`.
        let mut valid = lens;
        if singleton {
            valid[0] = 1;
        }
        let seq = valid.iter().copied().max().unwrap() + pad_extra;
        let mut rng = SeededRng::new(data_seed);
        let mut ids = Vec::with_capacity(valid.len() * seq);
        for &v in &valid {
            ids.extend((0..seq).map(|t| if t < v { rng.below(VOCAB) } else { 0 }));
        }
        let mut float_tiers = vec![KernelTier::Scalar];
        if avx2_available() {
            float_tiers.push(KernelTier::Avx2);
        }
        let mut trunk = Trunk::new(&tiny_cfg(), &mut SeededRng::new(model_seed));
        for tier in float_tiers {
            set_tier(tier).unwrap();
            for int8 in [false, true] {
                for fused in [false, true] {
                    trunk.set_int8_override(Some(int8));
                    trunk.set_attn_fused_override(Some(fused));
                    let cls = trunk.forward_cls(&ids, &valid, seq, false);
                    let caches = (int8, trunk.wants_prepack(), fused);
                    let oracle = full_graph_cls(model_seed, caches, &ids, &valid, seq);
                    for (b, want) in oracle.iter().enumerate() {
                        prop_assert_eq!(
                            &bits_of(cls.row(b)), want,
                            "tier={:?} int8={} fused={} seq={} valid={:?}: CLS row {} diverged",
                            tier, int8, fused, seq, &valid, b
                        );
                    }
                }
            }
        }
    }
}
