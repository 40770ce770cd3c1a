//! Hostile nesting: the parser's depth limit turns inputs that would
//! overflow the stack into `ParseError`s.
//!
//! Every input runs on a 2 MiB thread, the stack size of pool workers and
//! TCP handlers. A stack overflow cannot be caught, so a regression aborts
//! this test binary rather than failing one test.

use pragformer_cparse::{dfs, parse_snippet, printer, Stmt, MAX_NESTING};

/// Nesting depth of the hostile inputs, far past any limit.
const HOSTILE: usize = 100_000;

/// Runs `f` on a fresh thread with a 2 MiB stack.
fn on_2mib_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .expect("spawn 2 MiB thread")
        .join()
        .expect("2 MiB thread panicked")
}

/// `x = ((…(1)…));` with `n` parentheses.
fn parens(n: usize) -> String {
    format!("x = {}1{};", "(".repeat(n), ")".repeat(n))
}

/// `{{…{}…}}` with `n` braces.
fn blocks(n: usize) -> String {
    format!("{}{}", "{".repeat(n), "}".repeat(n))
}

/// Every shape of unbounded nesting the grammar has: recursive descent
/// (parentheses, blocks, statements, unary and assignment chains) and
/// left-deep chains built in loops (binary, postfix and comma chains).
fn hostile_inputs(n: usize) -> Vec<(&'static str, String)> {
    vec![
        ("parentheses", parens(n)),
        ("blocks", blocks(n)),
        ("for bodies", format!("{}x = 1;", "for (;;) ".repeat(n))),
        ("else-if chain", format!("{}x = 1;", "if (a) x = 1; else ".repeat(n))),
        ("pragmas", format!("{}x = 1;", "#pragma omp parallel for\n".repeat(n))),
        ("unary chain", format!("x = {}1;", "!".repeat(n))),
        ("cast chain", format!("x = {}1;", "(int)".repeat(n))),
        ("assignment chain", format!("{}1;", "a = ".repeat(n))),
        ("ternary chain", format!("x = {}1;", "a ? b : ".repeat(n))),
        ("binary chain", format!("x = 1{};", " + 1".repeat(n))),
        ("index chain", format!("x = a{};", "[0]".repeat(n))),
        ("call chain", format!("x = f{};", "()".repeat(n))),
        ("comma chain", format!("x = 1{};", ", 1".repeat(n))),
    ]
}

#[test]
fn depth_100k_inputs_are_parse_errors_on_a_2mib_stack() {
    for (shape, src) in hostile_inputs(HOSTILE) {
        let result = on_2mib_stack(move || parse_snippet(&src).map(|_| ()));
        let err = result.expect_err(shape);
        assert!(err.msg.contains("nesting"), "{shape}: unexpected error {err}");
    }
}

#[test]
fn moderate_nesting_still_parses() {
    // Deeper than real loop nests, and inside the limit.
    for (shape, src) in hostile_inputs(MAX_NESTING / 4) {
        on_2mib_stack(move || parse_snippet(&src).map(|_| ()))
            .unwrap_or_else(|e| panic!("{shape}: {e}"));
    }
}

#[test]
fn deepest_accepted_trees_survive_recursive_walks_on_a_2mib_stack() {
    // The deepest parenthesized expression and block nest the limit lets
    // through must also survive the recursive walks after parsing (DFS
    // serialization, printing, dropping the tree) on a worker-sized stack.
    for make in [parens as fn(usize) -> String, blocks] {
        let (tokens, printed) = on_2mib_stack(move || {
            let deepest = (1..=MAX_NESTING + 1)
                .take_while(|&n| parse_snippet(&make(n)).is_ok())
                .last()
                .expect("depth 1 parses");
            assert!(deepest <= MAX_NESTING, "limit never reached for {:?}", make(1));
            let stmts: Vec<Stmt> = parse_snippet(&make(deepest)).expect("deepest accepted");
            (dfs::serialize_stmts(&stmts), printer::print_stmts(&stmts))
        });
        assert!(!tokens.is_empty() && !printed.is_empty(), "{:?} walked to nothing", make(1));
    }
}
