//! Hostile nesting through the whole advise pipeline on a 2 MiB stack,
//! the stack size of pool workers and TCP handlers.
//!
//! A 100,000-deep snippet must come back as a `ParseError` in its own
//! slot of an `advise_batch` call, its neighbours must still get advice,
//! and the deepest snippet the parser accepts must survive every
//! recursive stage after parsing (tokenizer, ComPar analysis). A stack
//! overflow cannot be caught, so a regression aborts this test binary.

use pragformer_core::{Advisor, Scale};
use pragformer_cparse::{parse_snippet, MAX_NESTING};

/// Runs `f` on a fresh thread with a 2 MiB stack.
fn on_2mib_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .expect("spawn 2 MiB thread")
        .join()
        .expect("2 MiB thread panicked")
}

/// A loop whose body assignment is wrapped in `n` parentheses.
fn deep_parens(n: usize) -> String {
    format!("for (i = 0; i < n; i++) a[i] = {}b[i]{};", "(".repeat(n), ")".repeat(n))
}

/// A loop wrapped in `n` nested blocks.
fn deep_blocks(n: usize) -> String {
    format!("{}for (i = 0; i < n; i++) a[i] = b[i];{}", "{".repeat(n), "}".repeat(n))
}

/// The deepest `make(n)` the parser accepts.
fn deepest_accepted(make: fn(usize) -> String) -> String {
    let n = (1..=MAX_NESTING + 1)
        .take_while(|&n| parse_snippet(&make(n)).is_ok())
        .last()
        .expect("depth 1 parses");
    make(n)
}

#[test]
fn depth_100k_snippets_error_in_their_slots_and_the_batch_survives() {
    on_2mib_stack(|| {
        let mut advisor = Advisor::untrained(Scale::Tiny, 1);
        let ok = "for (i = 0; i < n; i++) a[i] = b[i] + 1;";
        let parens = deep_parens(100_000);
        let blocks = deep_blocks(100_000);
        let at_limit = [deepest_accepted(deep_parens), deepest_accepted(deep_blocks)];
        let batch = [ok, &parens, &at_limit[0], &blocks, &at_limit[1]];
        let out = advisor.advise_batch(&batch);
        assert_eq!(out.len(), batch.len());
        for slot in [1, 3] {
            let err = out[slot].as_ref().expect_err("100k-deep snippet must not parse");
            assert!(err.msg.contains("nesting"), "slot {slot}: {err}");
        }
        for slot in [0, 2, 4] {
            assert!(out[slot].is_ok(), "slot {slot}: {:?}", out[slot].as_ref().err());
        }
        // The hostile snippets changed nothing for their neighbour.
        let alone = advisor.advise(ok).expect("plain loop parses");
        let batched = out[0].as_ref().unwrap();
        assert_eq!(alone.confidence.to_bits(), batched.confidence.to_bits());
    });
}
