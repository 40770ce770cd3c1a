//! # pragformer-cparse
//!
//! A self-contained C front-end playing the role pycparser plays in the
//! PragFormer paper: turning C source into an AST, extracting `#pragma omp`
//! directives, and serializing the AST in the DFS order the paper feeds to
//! its models (Tables 2 and 6).
//!
//! The grammar covers the C subset that loop-level parallelization actually
//! touches — declarations, expressions with full operator precedence,
//! control flow, function definitions and calls, arrays, pointers, struct
//! member access and casts. Preprocessor lines other than `#pragma omp`
//! are skipped, exactly like the paper's pipeline which works on post-crawl
//! raw files.
//!
//! Entry points:
//!
//! * [`lex`] — token stream with source positions;
//! * [`parse_translation_unit`] — whole files (functions + globals);
//! * [`parse_snippet`] — statement lists, the shape of Open-OMP records
//!   ([`lex`] followed by [`parse_tokens`]);
//! * [`parse_tokens`] — statement lists from an already-lexed token slice,
//!   for callers that read the same tokens for something else too (the
//!   advisor lexes a snippet once for the parser and the ComPar gate);
//! * [`omp::OmpDirective::parse`] — OpenMP pragma lines;
//! * [`dfs::serialize_stmts`] — pycparser-style DFS token stream;
//! * [`printer`] — AST → C source (used by the corpus generator, so the
//!   "Text" representation in this reproduction *is* printer output).
//!
//! ## Example
//!
//! ```
//! use pragformer_cparse::{parse_snippet, dfs};
//! let code = "for (i = 0; i < n; i++) a[i] = i;";
//! let stmts = parse_snippet(code).unwrap();
//! let tokens = dfs::serialize_stmts(&stmts);
//! assert_eq!(tokens[0], "For:");
//! assert!(tokens.contains(&"ArrayRef:".to_string()));
//! ```

pub mod ast;
pub mod dfs;
pub mod lexer;
pub mod omp;
pub mod parser;
pub mod printer;

pub use ast::*;
pub use lexer::{lex, LexError, SpannedToken, Token};
pub use parser::{parse_snippet, parse_tokens, parse_translation_unit, ParseError, MAX_NESTING};

/// Result of parsing: either value or positioned error.
pub type ParseResult<T> = Result<T, ParseError>;
