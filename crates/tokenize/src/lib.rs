//! # pragformer-tokenize
//!
//! Code tokenization for PragFormer: the four input representations of
//! §4.2 (Text, Replaced-Text, AST, Replaced-AST), identifier replacement,
//! and the frequency-built vocabulary that maps token streams to model
//! inputs.
//!
//! The paper reuses the DeepSCC-RoBERTa BPE tokenizer; that checkpoint is
//! unavailable offline, so this crate implements a word-level code
//! tokenizer with an explicit vocabulary and `<unk>` handling — the same
//! OOV semantics the paper measures in Table 7 ("OOV types").
//!
//! ```
//! use pragformer_tokenize::{encode_text, tokens_for, Representation, Vocab};
//! use pragformer_cparse::parse_snippet;
//! let stmts = parse_snippet("for (i = 0; i < len; i++) a[i] = i;").unwrap();
//! let text = tokens_for(&stmts, Representation::Text);
//! assert_eq!(text[0], "for");
//! let replaced = tokens_for(&stmts, Representation::ReplacedText);
//! assert!(replaced.contains(&"var0".to_string()));
//! let vocab = Vocab::build([text.clone()].iter(), 1, 1000);
//! let (ids, len) = vocab.encode(&text, 32);
//! assert_eq!(ids.len(), 32);
//! assert!(len > 0);
//! // The advisor's path: the same ids, looked up by borrowed text.
//! assert_eq!(encode_text(&stmts, &vocab, 32), (ids, len));
//! ```

pub mod replace;
pub mod repr;
pub mod stats;
pub mod vocab;

pub use replace::rename_identifiers;
pub use repr::{encode_text, tokens_for, Representation};
pub use stats::{corpus_stats, ReprStats};
pub use vocab::Vocab;
