//! `Advisor::prepare` against the front-end it replaced.
//!
//! `prepare` lexes a snippet once, parses those tokens once, gates and
//! analyzes the same tokens and AST for ComPar, and encodes the printed
//! AST by borrowed token text. The oracle here is the older composition,
//! kept only in this test: `parse_snippet`, strip the top-level pragma,
//! print, lex, map each token to an owned `String`, `Vocab::encode`; and
//! ComPar's `check_frontend` on the source followed by a second
//! `parse_snippet`. Both must agree on the cache key, the ComPar result
//! and the error text for every input.

use pragformer_baselines::compar::{analyze_stmts, check_frontend};
use pragformer_baselines::{ComparResult, Strictness};
use pragformer_core::{Advisor, Scale};
use pragformer_corpus::{generate, suites};
use pragformer_cparse::printer::print_stmts;
use pragformer_cparse::{lex, parse_snippet, ParseError, Stmt, Token, MAX_NESTING};
use pragformer_tokenize::{encode_text, tokens_for, Representation, Vocab};

/// The oracle's Text tokens: strip top-level pragmas, print, lex, one
/// owned `String` per token.
fn oracle_tokens(stmts: &[Stmt]) -> Vec<String> {
    let clean: Vec<Stmt> = stmts
        .iter()
        .map(|s| match s {
            Stmt::Pragma { stmt, .. } => (**stmt).clone(),
            other => other.clone(),
        })
        .collect();
    lex(&print_stmts(&clean))
        .expect("printer output re-lexes")
        .into_iter()
        .map(|s| match s.tok {
            Token::Ident(name) => name,
            Token::Keyword(k) => k.as_str().to_string(),
            Token::IntLit(_, text) | Token::FloatLit(_, text) => text,
            Token::CharLit(c) => format!("'{c}'"),
            Token::StrLit(content) if content.contains('%') => "\"<fmt>\"".to_string(),
            Token::StrLit(_) => "\"<str>\"".to_string(),
            Token::Punct(p) => p.as_str().to_string(),
            Token::OmpPragma(_) => panic!("equivalence inputs carry no nested pragma"),
        })
        .collect()
}

/// The oracle's ComPar result: the gate on the source, then a second
/// parse.
fn oracle_compar(src: &str) -> ComparResult {
    if let Err(reason) = check_frontend(src, Strictness::Strict) {
        return ComparResult::ParseFailure(reason);
    }
    match parse_snippet(src) {
        Ok(stmts) => analyze_stmts(&stmts),
        Err(e) => ComparResult::ParseFailure(e.to_string()),
    }
}

/// The oracle's cache key, or its parse error.
fn oracle_key(vocab: &Vocab, max_len: usize, src: &str) -> Result<Vec<usize>, ParseError> {
    let (ids, valid) = vocab.encode(&oracle_tokens(&parse_snippet(src)?), max_len);
    Ok(ids[..valid].to_vec())
}

/// Asserts `prepare(src)` ≡ the oracle on `src`; returns whether it
/// parsed.
fn assert_equivalent(advisor: &Advisor, src: &str) -> bool {
    let (vocab, max_len) = (advisor.vocab(), advisor.max_len());
    match (advisor.prepare(src), oracle_key(vocab, max_len, src)) {
        (Ok(p), Ok(key)) => {
            assert_eq!(p.cache_key(), key, "cache key of {src:?}");
            assert_eq!(p.compar(), &oracle_compar(src), "compar of {src:?}");
            true
        }
        (Err(got), Err(want)) => {
            assert_eq!(got.to_string(), want.to_string(), "error of {src:?}");
            false
        }
        (got, want) => {
            panic!("{src:?}: prepare {:?} vs oracle {:?}", got.map(|p| p.cache_key()), want)
        }
    }
}

/// Token-level check with a vocabulary covering every token, so no two
/// distinct texts share `<unk>`: `tokens_for` and `encode_text` both match
/// the oracle's tokens.
fn assert_tokens_match(sources: &[String]) {
    let parsed: Vec<Vec<Stmt>> = sources.iter().filter_map(|s| parse_snippet(s).ok()).collect();
    let oracle: Vec<Vec<String>> = parsed.iter().map(|s| oracle_tokens(s)).collect();
    let vocab = Vocab::build(oracle.iter(), 1, usize::MAX);
    let max_len = 1 + oracle.iter().map(Vec::len).max().unwrap_or(0);
    for (stmts, want) in parsed.iter().zip(&oracle) {
        assert_eq!(&tokens_for(stmts, Representation::Text), want);
        assert_eq!(encode_text(stmts, &vocab, max_len), vocab.encode(want, max_len));
    }
}

#[test]
fn prepare_matches_the_two_pass_front_end_on_corpus_suites_and_edge_cases() {
    let advisor = Advisor::untrained(Scale::Small, 7);

    // A debug-fast sample of the corpus, as the loop alone and as the full
    // record source (pragma and helpers included).
    let db = generate(&Scale::Small.generator(7));
    let mut sources: Vec<String> =
        db.records().iter().step_by(12).flat_map(|r| [r.code(), r.full_source()]).collect();
    // The held-out suites: unexpanded macros, `register`, typedef casts,
    // struct member chains.
    for suite in [suites::polybench(7), suites::spec_omp(7)] {
        sources.extend(suite.records().iter().flat_map(|r| [r.code(), r.full_source()]));
    }
    assert!(sources.len() > 500, "sample too small: {}", sources.len());

    // Hand-written cases, by the outcome `prepare` must reach.
    let deep_parens = |n: usize| {
        format!("for (i = 0; i < n; i++) a[i] = {}b[i]{};", "(".repeat(n), ")".repeat(n))
    };
    let deep_blocks = |n: usize| {
        format!("{}for (i = 0; i < n; i++) a[i] = b[i];{}", "{".repeat(n), "}".repeat(n))
    };
    let gate_fails = [
        "register int i;\nfor (i = 0; i < n; i++) a[i] = i;",
        "for (i = 0; i < n; i++) p->v[i] = 0;",
        "for (i = 0; i < n; i++) img.px[i] = 0;",
        "for (i = 0; i < POLYBENCH_LOOP_BOUND(4000, n); i++) a[i] = i;",
        "for (i = 0; i < n; i++) b[i] = (ssize_t) a[i];",
        "IndexPacket q;\nfor (i = 0; i < n; i++) a[i] = i;",
    ]
    .map(String::from);
    let gate_passes = [
        "n = (size_t) m;\nfor (i = 0; i < n; i++) a[i] = MAXGRID + i;",
        "result value;",
        "x = 3.5 + 0.25e-3f;\nfor (i = 0; i < 100; i++) s[i] = 'c';",
        "fprintf(stderr, \"%0.2lf \", x[i]); puts(\"done\");",
        "#include <stdio.h>\n#define N 100\n// note\nfor (i = 0; i < N; i++) /* c */ a[i] = i;",
        "#pragma omp parallel for private(i) reduction(+: s)\nfor (i = 0; i < n; i++) s += a[i];",
        "",
    ]
    .map(String::from)
    .into_iter()
    .chain([deep_parens(MAX_NESTING / 4), deep_blocks(MAX_NESTING / 4)]);
    let errors = [
        // Lex errors.
        "\"unterminated",
        "for (i = 0; i < n; i++) a[i] = `x`;",
        // Parse errors, with and without a gate failure before them.
        "for (i = 0; i < ; i++ {",
        "register int ;",
        "union u v;",
        "a[i] = ;",
        "#pragma omp parallel for\n",
        "#pragma omp parallel for bogus(x)\nfor (;;) ;",
    ]
    .map(String::from)
    .into_iter()
    .chain([deep_parens(MAX_NESTING + 1), deep_blocks(MAX_NESTING + 1)]);

    for src in &sources {
        assert_equivalent(&advisor, src);
    }
    for src in gate_fails {
        assert!(assert_equivalent(&advisor, &src), "{src:?} must parse");
        assert!(advisor.prepare(&src).unwrap().compar().is_parse_failure(), "{src:?}");
        sources.push(src);
    }
    for src in gate_passes {
        assert!(assert_equivalent(&advisor, &src), "{src:?} must parse");
        assert!(!advisor.prepare(&src).unwrap().compar().is_parse_failure(), "{src:?}");
        sources.push(src);
    }
    for src in errors {
        assert!(!assert_equivalent(&advisor, &src), "{src:?} must not parse");
    }
    assert_tokens_match(&sources);
}
