//! The four code representations of §4.2.
//!
//! | Representation | Source | Identifier replacement |
//! |----------------|--------|------------------------|
//! | `Text`         | lexical C tokens | no |
//! | `ReplacedText` | lexical C tokens | yes |
//! | `Ast`          | DFS of the pycparser-style AST | no |
//! | `ReplacedAst`  | DFS of the AST | yes |
//!
//! All four are produced from the parsed AST so the pipeline has a single
//! source of truth. The Text variants are the lexical tokens of the
//! printer's output ([`print_stmts`]), so printer output remains the
//! definition of Text. `#pragma omp` directives are the *label*, never
//! part of the model input: the Text variants drop every
//! [`Token::OmpPragma`] of the re-lexed output and the AST variants drop
//! every `Pragma:` marker, at every nesting depth. The AST is never
//! copied to strip them.
//!
//! [`encode_text`] is the advisor's path to model ids: the same Text
//! tokens as [`tokens_for`], through the same token-to-text mapping,
//! looked up in the vocabulary by borrowed text.

use crate::replace::rename_identifiers;
use crate::vocab::Vocab;
use pragformer_cparse::printer::print_stmts;
use pragformer_cparse::{dfs, lex, SpannedToken, Stmt, Token};
use std::borrow::Cow;

/// Input representation fed to the tokenizer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Representation {
    /// Raw lexical tokens of the C source.
    Text,
    /// Lexical tokens with identifiers canonicalized (`var0`, `arr0`, …).
    ReplacedText,
    /// DFS-serialized AST labels, split into sub-tokens.
    Ast,
    /// DFS AST with canonicalized identifiers.
    ReplacedAst,
}

impl Representation {
    /// All four, in the order the paper's figures list them.
    pub const ALL: [Representation; 4] = [
        Representation::Text,
        Representation::ReplacedText,
        Representation::Ast,
        Representation::ReplacedAst,
    ];

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Representation::Text => "Text",
            Representation::ReplacedText => "Replaced Text",
            Representation::Ast => "AST",
            Representation::ReplacedAst => "Replaced AST",
        }
    }

    /// True for the two replaced variants.
    pub fn is_replaced(self) -> bool {
        matches!(self, Representation::ReplacedText | Representation::ReplacedAst)
    }
}

/// Renders a snippet into the token sequence for the given representation.
pub fn tokens_for(stmts: &[Stmt], repr: Representation) -> Vec<String> {
    let renamed;
    let subject = if repr.is_replaced() {
        renamed = rename_identifiers(stmts).0;
        &renamed
    } else {
        stmts
    };
    match repr {
        Representation::Text | Representation::ReplacedText => {
            printed_tokens(subject).iter().filter_map(text_token).map(Cow::into_owned).collect()
        }
        Representation::Ast | Representation::ReplacedAst => ast_tokens(subject),
    }
}

/// `vocab.encode(&tokens_for(stmts, Representation::Text), max_len)`,
/// without allocating a `String` per token.
pub fn encode_text(stmts: &[Stmt], vocab: &Vocab, max_len: usize) -> (Vec<usize>, usize) {
    let printed = printed_tokens(stmts);
    let tokens: Vec<Cow<'_, str>> = printed.iter().filter_map(text_token).collect();
    vocab.encode(&tokens, max_len)
}

/// C lexical tokens of the printed snippet.
fn printed_tokens(stmts: &[Stmt]) -> Vec<SpannedToken> {
    lex(&print_stmts(stmts)).expect("printer output must re-lex")
}

/// The Text token of one printed token; `None` for a pragma line. String
/// literals collapse to a single `"<str>"`-style token (their exact
/// content is rarely predictive and would blow up the vocabulary);
/// numbers keep their source text.
fn text_token(spanned: &SpannedToken) -> Option<Cow<'_, str>> {
    Some(match &spanned.tok {
        Token::Ident(name) => Cow::Borrowed(name.as_str()),
        Token::Keyword(k) => Cow::Borrowed(k.as_str()),
        Token::IntLit(_, text) | Token::FloatLit(_, text) => Cow::Borrowed(text.as_str()),
        Token::CharLit(c) => Cow::Owned(format!("'{c}'")),
        // Keep format-string-ish flavor: one token per literal, bucketed
        // by whether it looks like a format string.
        Token::StrLit(content) if content.contains('%') => Cow::Borrowed("\"<fmt>\""),
        Token::StrLit(_) => Cow::Borrowed("\"<str>\""),
        Token::Punct(p) => Cow::Borrowed(p.as_str()),
        Token::OmpPragma(_) => return None,
    })
}

/// AST DFS labels split into whitespace-delimited sub-tokens, e.g.
/// `"Assignment: ="` → `["Assignment:", "="]`. `Pragma:` markers are
/// dropped.
fn ast_tokens(stmts: &[Stmt]) -> Vec<String> {
    dfs::serialize_stmts(stmts)
        .iter()
        .filter(|label| label.as_str() != "Pragma:")
        .flat_map(|label| label.split_whitespace().map(str::to_string))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pragformer_cparse::parse_snippet;

    const LOOP: &str = "for (i = 0; i < len; i++) a[i] = i;";

    #[test]
    fn text_tokens_match_paper_table6() {
        let stmts = parse_snippet(LOOP).unwrap();
        let toks = tokens_for(&stmts, Representation::Text);
        assert_eq!(
            toks,
            vec![
                "for", "(", "i", "=", "0", ";", "i", "<", "len", ";", "i", "++", ")", "a", "[",
                "i", "]", "=", "i", ";"
            ]
        );
    }

    #[test]
    fn replaced_text_matches_paper_table6() {
        let stmts = parse_snippet(LOOP).unwrap();
        let toks = tokens_for(&stmts, Representation::ReplacedText);
        assert_eq!(
            toks,
            vec![
                "for", "(", "var0", "=", "0", ";", "var0", "<", "var1", ";", "var0", "++", ")",
                "arr0", "[", "var0", "]", "=", "var0", ";"
            ]
        );
    }

    #[test]
    fn ast_tokens_match_paper_table6() {
        let stmts = parse_snippet(LOOP).unwrap();
        let toks = tokens_for(&stmts, Representation::Ast);
        let joined = toks.join(" ");
        assert_eq!(
            joined,
            "For: Assignment: = ID: i Constant: int, 0 BinaryOp: < ID: i ID: len UnaryOp: p++ \
             ID: i Assignment: = ArrayRef: ID: a ID: i ID: i"
        );
    }

    #[test]
    fn replaced_ast_tokens() {
        let stmts = parse_snippet(LOOP).unwrap();
        let toks = tokens_for(&stmts, Representation::ReplacedAst);
        let joined = toks.join(" ");
        assert!(joined.contains("ID: var0"), "{joined}");
        assert!(joined.contains("ID: arr0"), "{joined}");
        assert!(!joined.contains("ID: len"), "{joined}");
    }

    #[test]
    fn pragma_never_leaks_into_any_representation() {
        let top = "#pragma omp parallel for private(i) reduction(+: s)\nfor (i = 0; i < n; i++) s += a[i];";
        let stmts = parse_snippet(top).unwrap();
        for repr in Representation::ALL {
            let toks = tokens_for(&stmts, repr);
            let joined = toks.join(" ");
            assert!(!joined.to_lowercase().contains("pragma"), "{repr:?}: {joined}");
            assert!(!joined.contains("omp"), "{repr:?}: {joined}");
            assert!(!joined.contains("private"), "{repr:?}: {joined}");
            assert!(!joined.contains("reduction"), "{repr:?}: {joined}");
        }
        // At any depth, a directive leaves exactly the tokens of the code
        // without it.
        let nested = "for (j = 0; j < m; j++) {\n  #pragma omp parallel for reduction(+: s)\n  \
                      for (i = 0; i < n; i++) s += a[i];\n}";
        let pairs = [
            (top, "for (i = 0; i < n; i++) s += a[i];"),
            (nested, "for (j = 0; j < m; j++) { for (i = 0; i < n; i++) s += a[i]; }"),
        ];
        for (with, without) in pairs {
            let (with, without) = (parse_snippet(with).unwrap(), parse_snippet(without).unwrap());
            for repr in Representation::ALL {
                assert_eq!(tokens_for(&with, repr), tokens_for(&without, repr), "{repr:?}");
            }
        }
    }

    #[test]
    fn ast_is_longer_than_text_on_average() {
        // Table 7: AST avg length 37 vs Text 33 — the AST adds operator-
        // describing words. Check the direction on a small sample.
        let samples = [
            LOOP,
            "for (i = 0; i < n; i++) { s += a[i] * b[i]; }",
            "for (i = 0; i < n; i++) if (a[i] > m) m = a[i];",
        ];
        let mut text_total = 0usize;
        let mut ast_total = 0usize;
        for src in samples {
            let stmts = parse_snippet(src).unwrap();
            text_total += tokens_for(&stmts, Representation::Text).len();
            ast_total += tokens_for(&stmts, Representation::Ast).len();
        }
        assert!(
            ast_total as f64 > 0.8 * text_total as f64,
            "AST stream unexpectedly short: {ast_total} vs {text_total}"
        );
    }

    #[test]
    fn string_literals_are_bucketed() {
        let stmts = parse_snippet("fprintf(stderr, \"%0.2lf \", x[i]); puts(\"done\");").unwrap();
        let toks = tokens_for(&stmts, Representation::Text);
        assert!(toks.contains(&"\"<fmt>\"".to_string()));
        assert!(toks.contains(&"\"<str>\"".to_string()));
        assert!(toks.contains(&"fprintf".to_string()));
        assert!(toks.contains(&"stderr".to_string()));
    }

    #[test]
    fn representation_names() {
        assert_eq!(Representation::Text.name(), "Text");
        assert_eq!(Representation::ReplacedAst.name(), "Replaced AST");
        assert!(Representation::ReplacedText.is_replaced());
        assert!(!Representation::Ast.is_replaced());
    }
}
