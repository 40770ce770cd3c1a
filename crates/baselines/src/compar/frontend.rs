//! The strict front-end gate.
//!
//! Industrial S2S compilers parse far less of C than a modern compiler:
//! the paper reports ComPar failing on 221 of 1,274 Open-OMP test
//! snippets ("complex structure definitions and operations unrecognized
//! by its internal parser") and on SPEC snippets with "unrecognized
//! keywords, such as `register`". This module reproduces that behaviour
//! by scanning the token stream for constructs outside the engine's
//! grammar before analysis begins.

use pragformer_cparse::lexer::{lex, Keyword, Punct, SpannedToken, Token};

/// Front-end strictness.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strictness {
    /// ComPar-like: reject `register`, non-standard typedef names, and
    /// struct-member operations (the documented failure modes).
    Strict,
    /// Ablation mode (EXPERIMENTS.md §A4): accept everything the main
    /// parser accepts.
    Lenient,
}

/// Typedef-ish identifiers the strict front-end knows (mirrors a C89
/// header set; notably *excludes* `ssize_t` and project typedefs like
/// `IndexPacket`, which is what broke ComPar on SPEC).
const KNOWN_TYPEDEFS: &[&str] = &["size_t", "FILE"];

/// Identifiers that look like typedef names (heuristic: used in a cast or
/// declaration position) but are not in [`KNOWN_TYPEDEFS`].
fn is_unknown_typedef(name: &str) -> bool {
    let known = KNOWN_TYPEDEFS.contains(&name);
    let looks_typedefish = name.ends_with("_t")
        || name.chars().next().map(|c| c.is_ascii_uppercase()).unwrap_or(false)
            && name.chars().any(|c| c.is_ascii_lowercase());
    !known && looks_typedefish
}

/// Checks a snippet against the strict grammar. `Ok(())` means the
/// engine may proceed; `Err(reason)` is a parse failure. Lexes `source`
/// and runs [`check_tokens`] on the result.
pub fn check_frontend(source: &str, strictness: Strictness) -> Result<(), String> {
    check_tokens(&lex_for_gate(source)?, strictness)
}

/// Lexes a snippet for the gate; a lex error is a parse failure in either
/// strictness.
pub(super) fn lex_for_gate(source: &str) -> Result<Vec<SpannedToken>, String> {
    lex(source).map_err(|e| format!("lex error: {e}"))
}

/// The strict-grammar gate over an already-lexed snippet: the same
/// verdicts and failure texts as [`check_frontend`] on its source.
pub fn check_tokens(tokens: &[SpannedToken], strictness: Strictness) -> Result<(), String> {
    if strictness == Strictness::Lenient {
        return Ok(());
    }
    for (pos, spanned) in tokens.iter().enumerate() {
        match &spanned.tok {
            Token::Keyword(Keyword::Register) => {
                return Err(format!(
                    "unrecognized keyword 'register' at {}:{}",
                    spanned.line, spanned.col
                ));
            }
            Token::Keyword(Keyword::Union) | Token::Keyword(Keyword::Enum) => {
                return Err(format!("unsupported construct at {}:{}", spanned.line, spanned.col));
            }
            Token::Punct(Punct::Arrow) | Token::Punct(Punct::Dot) => {
                // `p->field` / `s.field`: struct operations. `.` also
                // appears in float literals, but those lex as FloatLit, so
                // a Dot token here is genuinely member access.
                return Err(format!(
                    "complex structure operation at {}:{}",
                    spanned.line, spanned.col
                ));
            }
            Token::Ident(name) => {
                // Function-like macro invocation: ALL-CAPS name followed
                // by `(`. S2S tool-chains see the source before macro
                // expansion, and unexpanded benchmark macros
                // (`POLYBENCH_LOOP_BOUND(...)`, `SCALAR_VAL(...)`) are a
                // documented reason ComPar scores 0.43 on PolyBench.
                let next_is_lparen = tokens
                    .get(pos + 1)
                    .is_some_and(|t| matches!(t.tok, Token::Punct(Punct::LParen)));
                let all_caps = name.len() > 1
                    && name
                        .chars()
                        .all(|c| c.is_ascii_uppercase() || c == '_' || c.is_ascii_digit());
                if next_is_lparen && all_caps {
                    return Err(format!(
                        "unexpanded function-like macro '{name}' at {}:{}",
                        spanned.line, spanned.col
                    ));
                }
                // A cast `(Name)` or declaration `Name ident` with an
                // unknown typedef-like name.
                let prev_is_lparen =
                    pos > 0 && matches!(tokens[pos - 1].tok, Token::Punct(Punct::LParen));
                let next_is_rparen = tokens
                    .get(pos + 1)
                    .is_some_and(|t| matches!(t.tok, Token::Punct(Punct::RParen)));
                let next_is_ident =
                    tokens.get(pos + 1).is_some_and(|t| matches!(t.tok, Token::Ident(_)));
                let in_type_position = (prev_is_lparen && next_is_rparen) || next_is_ident;
                if in_type_position && is_unknown_typedef(name) {
                    return Err(format!(
                        "unknown type name '{name}' at {}:{}",
                        spanned.line, spanned.col
                    ));
                }
            }
            _ => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`check_frontend`] on `src`, asserted equal to [`check_tokens`] on
    /// its tokens whenever it lexes.
    fn gate(src: &str, strictness: Strictness) -> Result<(), String> {
        let verdict = check_frontend(src, strictness);
        if let Ok(tokens) = lex(src) {
            assert_eq!(check_tokens(&tokens, strictness), verdict, "{src:?}");
        }
        verdict
    }

    #[test]
    fn accepts_plain_loops() {
        assert!(gate("for (i = 0; i < n; i++) a[i] = i;", Strictness::Strict).is_ok());
    }

    #[test]
    fn rejects_register() {
        let src = "register int i;";
        let err = gate(src, Strictness::Strict).unwrap_err();
        assert!(err.contains("register"), "{err}");
        assert!(gate(src, Strictness::Lenient).is_ok());
    }

    #[test]
    fn rejects_struct_operations() {
        for src in ["p->next = q;", "image.width = 3;"] {
            assert!(gate(src, Strictness::Strict).is_err(), "{src}");
        }
    }

    #[test]
    fn float_literals_do_not_trip_the_dot_rule() {
        assert!(gate("x = 3.5 + 0.25;", Strictness::Strict).is_ok());
    }

    #[test]
    fn rejects_unknown_typedef_casts() {
        let err = gate("n = (ssize_t) m;", Strictness::Strict).unwrap_err();
        assert!(err.contains("ssize_t"), "{err}");
        let err = gate("IndexPacket p;", Strictness::Strict).unwrap_err();
        assert!(err.contains("IndexPacket"), "{err}");
    }

    #[test]
    fn size_t_is_known() {
        assert!(gate("n = (size_t) m;", Strictness::Strict).is_ok());
    }

    #[test]
    fn function_like_macros_are_rejected() {
        let src = "for (i = 0; i < POLYBENCH_LOOP_BOUND(4000, n); i++) a[i] = i;";
        let err = gate(src, Strictness::Strict).unwrap_err();
        assert!(err.contains("POLYBENCH_LOOP_BOUND"), "{err}");
        assert!(gate(src, Strictness::Lenient).is_ok());
        // Ordinary calls are fine; so are ALL-CAPS identifiers not
        // followed by parentheses (plain object-like macro constants).
        assert!(gate("y = sqrt(x);", Strictness::Strict).is_ok());
        assert!(gate("n = MAXGRID + 1;", Strictness::Strict).is_ok());
    }

    #[test]
    fn lowercase_identifiers_are_not_typedefs() {
        // `foo bar` would be an unknown-typedef declaration only if `foo`
        // looks typedef-ish; plain words pass the gate (and fail later in
        // the real parser if malformed).
        assert!(gate("result value;", Strictness::Strict).is_ok());
    }

    #[test]
    fn lex_errors_are_parse_failures_in_both_modes() {
        assert!(gate("\"unterminated", Strictness::Strict).is_err());
        assert!(gate("\"unterminated", Strictness::Lenient).is_err());
    }
}
