//! # pragformer-baselines
//!
//! The two systems PragFormer is compared against in §5:
//!
//! * [`compar`] — a deterministic source-to-source auto-parallelizer in
//!   the mould of ComPar/Cetus: a strict front-end, canonical-loop
//!   recognition, array data-dependence tests (ZIV / strong SIV / GCD),
//!   scalar privatization and reduction-pattern detection, and directive
//!   emission. Its engineered failure modes match the ones the paper
//!   documents: parse failures on `register`/unknown typedefs, refusals on
//!   unknown function calls, explicit `private(i)` where developers leave
//!   the loop variable implicit, and never emitting `schedule(dynamic)`;
//! * [`bow`] — the bag-of-words + logistic-regression statistical
//!   baseline.

pub mod bow;
pub mod compar;

pub use bow::{BowModel, BowTrainConfig};
pub use compar::{analyze_snippet, check_tokens, ComparResult, Reason, Strictness};
