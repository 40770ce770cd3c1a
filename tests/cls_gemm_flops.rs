//! Count-based guard for the CLS-only final encoder block.
//!
//! One eval `Trunk::forward_cls` must issue exactly the GEMM flops of
//! blocks `0..n-1` at every row plus a final block that projects Q|K|V for
//! every row but runs its score/context tiles, out-projection and FFN at
//! the `batch` CLS rows only. A regression to a full-row final block adds
//! flops and fails here.
//!
//! The GEMM flop counters are process-global, so this file holds a single
//! test and is its own test binary: no other test can move them mid-count.

use pragformer_model::{ModelConfig, Trunk};
use pragformer_obs as obs;
use pragformer_tensor::init::SeededRng;

/// Sum of `pragformer_gemm_flops_total` over every `op`/`simd` label.
fn f32_gemm_flops() -> u64 {
    let mut total = 0;
    for op in ["nn", "nt", "tn"] {
        for simd in ["scalar", "avx2"] {
            total += obs::counter("pragformer_gemm_flops_total", "", &[("op", op), ("simd", simd)])
                .get();
        }
    }
    total
}

/// Sum of `pragformer_int8_gemm_flops_total` over every `simd` label.
fn int8_gemm_flops() -> u64 {
    ["scalar", "avx2"]
        .iter()
        .map(|&simd| obs::counter("pragformer_int8_gemm_flops_total", "", &[("simd", simd)]).get())
        .sum()
}

/// `(dense, tiles)` flops of one eval forward at `batch` sequences of
/// `seq` rows: `dense` counts the weight GEMMs (QKV, out-projection, FFN),
/// `tiles` the per-(sequence, head) score and context GEMMs.
fn expected_flops(cfg: &ModelConfig, batch: usize, seq: usize) -> (u64, u64) {
    let (d, dff) = (cfg.d_model as u64, cfg.d_ff as u64);
    let (b, s) = (batch as u64, seq as u64);
    let qkv = 2 * b * s * d * 3 * d;
    // Out-projection + ff1 + ff2 per row.
    let dense_per_row = 2 * (d * d + 2 * d * dff);
    // Scores `[q, s]·d_head` plus context `[q, s]·d_head`, summed over heads.
    let tiles_per_query = 4 * s * d;
    let full = cfg.n_layers as u64 - 1;
    let dense = cfg.n_layers as u64 * qkv + full * b * s * dense_per_row + b * dense_per_row;
    let tiles = full * b * s * tiles_per_query + b * tiles_per_query;
    (dense, tiles)
}

#[test]
fn eval_forward_runs_the_final_block_at_cls_rows_only() {
    obs::set_enabled(true);
    let cfg = ModelConfig { n_layers: 2, ..ModelConfig::tiny(12) };
    let mut trunk = Trunk::new(&cfg, &mut SeededRng::new(3));
    let seq = cfg.max_len;
    let valid = [5usize, 9, 7];
    let ids: Vec<usize> = (0..valid.len() * seq).map(|i| (i * 7 + 1) % 12).collect();
    // The eval forward clamps the padding to the longest valid prefix.
    let run_seq = 9;
    let (dense, tiles) = expected_flops(&cfg, valid.len(), run_seq);
    for int8 in [false, true] {
        trunk.set_int8_override(Some(int8));
        // Warm once so cache builds stay out of the counted forward.
        let _ = trunk.forward_cls(&ids, &valid, seq, false);
        let (f0, q0) = (f32_gemm_flops(), int8_gemm_flops());
        let _ = trunk.forward_cls(&ids, &valid, seq, false);
        let (df, dq) = (f32_gemm_flops() - f0, int8_gemm_flops() - q0);
        if int8 {
            assert_eq!((df, dq), (tiles, dense), "int8 trunk: (f32, int8) GEMM flops");
        } else {
            assert_eq!((df, dq), (dense + tiles, 0), "f32 trunk: (f32, int8) GEMM flops");
        }
    }
}
