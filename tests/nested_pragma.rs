//! `#pragma omp` lines below the top level of a snippet.
//!
//! A directive is the label, never model input, at any nesting depth: a
//! snippet with nested pragmas must get advice, and the ids the model sees
//! (its cache key) must equal those of the same snippet with every pragma
//! line deleted.

use pragformer_core::{Advisor, Scale};

/// Snippets with a pragma inside a loop body, in a block, twice nested,
/// and nested under a top-level pragma.
const NESTED: &[&str] = &[
    "for (i = 0; i < n; i++) {\n  #pragma omp parallel for\n  for (j = 0; j < m; j++)\n    a[i][j] = 0;\n}",
    "s = 0.0;\nfor (i = 0; i < n; i++)\n#pragma omp parallel for reduction(+: s)\n  for (j = 0; j < m; j++) s += a[i][j];",
    "{\n#pragma omp for private(t)\nfor (k = 0; k < n; k++) { t = x[k]; y[k] = t * t; }\n}",
    "for (i = 0; i < n; i++)\n  for (j = 0; j < n; j++) {\n    #pragma omp parallel for private(k) schedule(dynamic)\n    for (k = 0; k < n; k++) c[i][j] += a[i][k] * b[k][j];\n  }",
    "#pragma omp parallel for private(j)\nfor (i = 0; i < n; i++) {\n  #pragma omp parallel for\n  for (j = 0; j < n; j++) x[i][j] = y[j][i];\n}",
];

/// Ordinary snippets advised in the same batch.
const ORDINARY: &[&str] = &[
    "for (i = 0; i < n; i++) a[i] = b[i] + c[i];",
    "#pragma omp parallel for\nfor (i = 0; i < n; i++) v[i] = v[i] / norm;",
    "for (i = 0; i < n; i++) printf(\"%d\\n\", a[i]);",
];

/// `src` with every pragma line deleted.
fn without_pragmas(src: &str) -> String {
    src.lines().filter(|l| !l.trim_start().starts_with("#pragma")).collect::<Vec<_>>().join("\n")
}

#[test]
fn nested_pragmas_get_advice_keyed_as_if_deleted() {
    let mut advisor = Advisor::untrained(Scale::Tiny, 5);
    let batch: Vec<&str> = NESTED.iter().chain(ORDINARY).copied().collect();
    let out = advisor.advise_batch(&batch);
    assert_eq!(out.len(), batch.len());
    for (src, advice) in batch.iter().zip(&out) {
        assert!(advice.is_ok(), "{src:?}: {:?}", advice.as_ref().err());
    }
    for (src, advice) in NESTED.iter().zip(&out) {
        let stripped = without_pragmas(src);
        assert!(!stripped.contains("pragma"), "{stripped:?}");
        let key = advisor.prepare(src).expect("nested snippet parses").cache_key();
        let want = advisor.prepare(&stripped).expect("stripped snippet parses").cache_key();
        assert_eq!(key, want, "{src:?}");
        // Equal ids, so the model's answer is the stripped snippet's, bit
        // for bit.
        let (got, alone) = (advice.as_ref().unwrap(), advisor.advise(&stripped).unwrap());
        assert_eq!(got.confidence.to_bits(), alone.confidence.to_bits(), "{src:?}");
        assert_eq!(got.private_probability.to_bits(), alone.private_probability.to_bits());
        assert_eq!(got.reduction_probability.to_bits(), alone.reduction_probability.to_bits());
    }
}
