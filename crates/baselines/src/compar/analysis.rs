//! Loop dependence analysis: canonical-loop recognition, array subscript
//! tests (ZIV / strong SIV / GCD) and scalar classification
//! (private / reduction / carried).
//!
//! The tests follow the classical dependence-analysis playbook the paper
//! cites (Kennedy & Allen): subscripts are normalized to `a·i + b + Σσ`
//! with integer `a`, `b` and loop-invariant symbols `σ`; pairs of accesses
//! to the same array are independent across iterations when some
//! dimension proves it, and conservatively dependent otherwise.

use super::Reason;
use pragformer_cparse::omp::ReductionOp;
use pragformer_cparse::{AssignOp, BinOp, Expr, ForInit, Init, Stmt, UnOp};
use std::collections::{HashMap, HashSet};

/// Result of analyzing one loop nest.
#[derive(Clone, Debug, Default)]
pub struct LoopAnalysis {
    /// Outer loop variable.
    pub loop_var: String,
    /// Constant trip count when bounds are literal.
    pub trip_count: Option<i64>,
    /// Everything that blocks parallelization (empty ⇒ parallelizable).
    pub blockers: Vec<Reason>,
    /// Privatizable scalars (inner loop counters + write-first
    /// temporaries), excluding the loop variable itself.
    pub private: Vec<String>,
    /// Detected reductions.
    pub reductions: Vec<(ReductionOp, String)>,
}

/// Functions assumed pure (math library).
const PURE_FUNCS: &[&str] = &[
    "sqrt",
    "exp",
    "log",
    "sin",
    "cos",
    "tan",
    "fabs",
    "abs",
    "pow",
    "floor",
    "ceil",
    "tanh",
    "fmin",
    "fmax",
    "hypot",
    "POLYBENCH_LOOP_BOUND",
];

/// I/O routines.
const IO_FUNCS: &[&str] = &[
    "printf", "fprintf", "sprintf", "snprintf", "scanf", "fscanf", "sscanf", "puts", "fputs",
    "gets", "fgets", "fread", "fwrite", "fopen", "fclose", "putchar", "getchar", "perror",
    "strcat", "strcpy", "strtok",
];

/// Allocator routines.
const ALLOC_FUNCS: &[&str] = &["malloc", "calloc", "realloc", "free"];

/// Analyzes the first for-loop in `loop_stmt` (context carries preceding
/// declarations, currently used only for documentation parity with the
/// paper's record layout).
pub fn analyze_loop(loop_stmt: &Stmt, _context: &[Stmt]) -> LoopAnalysis {
    let mut out = LoopAnalysis::default();
    let Stmt::For { init, cond, step, body } = loop_stmt else {
        out.blockers.push(Reason::NoLoop);
        return out;
    };

    // ---- canonical form ---------------------------------------------------
    let Some((loop_var, lower)) = canonical_init(init) else {
        out.blockers.push(Reason::NonCanonicalLoop);
        return out;
    };
    let Some(upper) = canonical_cond(cond.as_ref(), &loop_var) else {
        out.blockers.push(Reason::NonCanonicalLoop);
        return out;
    };
    let Some(stride) = canonical_step(step.as_ref(), &loop_var) else {
        out.blockers.push(Reason::NonCanonicalLoop);
        return out;
    };
    out.loop_var = loop_var.clone();
    if let (Some(lo), CanonicalBound::Const(hi, inclusive)) = (lower, &upper) {
        let span = hi - lo + i64::from(*inclusive);
        if span >= 0 {
            out.trip_count =
                Some(span.div_euclid(stride.max(1)) + i64::from(span % stride.max(1) != 0));
        }
    }
    if let Some(trip) = out.trip_count {
        if trip <= super::MIN_PROFITABLE_TRIP {
            out.blockers.push(Reason::LowTripCount(trip));
        }
    }

    // ---- variance sets ------------------------------------------------------
    let inner_vars = inner_loop_vars(body);
    let body_decls = body_declared(body);
    let written = written_scalars(body);
    let mut variant: HashSet<String> = inner_vars.iter().cloned().collect();
    variant.insert(loop_var.clone());
    variant.extend(written.iter().cloned());

    // ---- event collection ---------------------------------------------------
    let mut ctx = Collector {
        loop_var: loop_var.clone(),
        variant,
        events: Vec::new(),
        blockers: Vec::new(),
        reduction_candidates: HashMap::new(),
        inner_vars: inner_vars.clone(),
    };
    ctx.scan_stmt(body, 0);
    out.blockers.extend(ctx.blockers.iter().cloned());

    // ---- array dependence tests ---------------------------------------------
    let mut flagged: HashSet<String> = HashSet::new();
    let writes: Vec<&ArrayAccess> = ctx
        .events
        .iter()
        .filter_map(|e| match e {
            Event::Array(acc) if acc.is_write => Some(acc),
            _ => None,
        })
        .collect();
    for w in &writes {
        if flagged.contains(&w.name) {
            continue;
        }
        // A write must land on distinct cells across iterations: some
        // dimension affine in i with a ≠ 0.
        let self_ok = w.subs.iter().any(|s| matches!(s, SubForm::Affine { a, .. } if *a != 0));
        if !self_ok {
            flagged.insert(w.name.clone());
            out.blockers.push(Reason::CarriedDependence(w.name.clone()));
            continue;
        }
        // Pairwise against every other access to the same array.
        for other in ctx.events.iter().filter_map(|e| match e {
            Event::Array(acc) if acc.name == w.name => Some(acc),
            _ => None,
        }) {
            if std::ptr::eq(*w, other) {
                continue;
            }
            if !pair_independent(&w.subs, &other.subs) {
                if flagged.insert(w.name.clone()) {
                    out.blockers.push(Reason::CarriedDependence(w.name.clone()));
                }
                break;
            }
        }
    }

    // ---- scalar classification ------------------------------------------------
    let mut scalars: Vec<String> = written
        .iter()
        .filter(|s| **s != loop_var && !inner_vars.contains(*s) && !body_decls.contains(*s))
        .cloned()
        .collect();
    scalars.sort();
    for s in scalars {
        let first = ctx.events.iter().find_map(|e| match e {
            Event::ScalarRead(name) if *name == s => Some(Access::Read),
            Event::ScalarWrite { name, plain } if *name == s => {
                Some(if *plain { Access::PlainWrite } else { Access::Rmw })
            }
            _ => None,
        });
        let reds = ctx.reduction_candidates.get(&s);
        let other_reads = ctx
            .events
            .iter()
            .filter(|e| matches!(e, Event::ScalarRead(name) if *name == s))
            .count();
        let other_writes = ctx
            .events
            .iter()
            .filter(|e| matches!(e, Event::ScalarWrite { name, .. } if *name == s))
            .count();
        match first {
            Some(Access::PlainWrite) => out.private.push(s),
            None => {
                // Only seen in recognized reduction statements.
                if let Some(ops) = reds {
                    if let Some(op) = uniform_op(ops) {
                        out.reductions.push((op, s));
                    } else {
                        out.blockers.push(Reason::ScalarDependence(s));
                    }
                }
            }
            Some(_) => {
                // Read (or RMW) first: reduction only if *all* activity on
                // the scalar is the recognized pattern.
                match reds {
                    Some(ops) if other_reads == 0 && other_writes == 0 => {
                        if let Some(op) = uniform_op(ops) {
                            out.reductions.push((op, s));
                        } else {
                            out.blockers.push(Reason::ScalarDependence(s));
                        }
                    }
                    _ => out.blockers.push(Reason::ScalarDependence(s)),
                }
            }
        }
    }
    // Inner loop counters are privatizable by construction.
    for v in inner_vars {
        if !body_decls.contains(&v) && !out.private.contains(&v) {
            out.private.push(v);
        }
    }
    out.private.sort();
    out.reductions.sort_by(|a, b| a.1.cmp(&b.1));
    out
}

fn uniform_op(ops: &[ReductionOp]) -> Option<ReductionOp> {
    let first = *ops.first()?;
    ops.iter().all(|o| *o == first).then_some(first)
}

enum Access {
    Read,
    PlainWrite,
    Rmw,
}

// ---- canonical loop pieces ---------------------------------------------

fn canonical_init(init: &ForInit) -> Option<(String, Option<i64>)> {
    match init {
        ForInit::Expr(Expr::Assign { op: AssignOp::Assign, lhs, rhs }) => {
            if let Expr::Id(v) = lhs.as_ref() {
                Some((v.clone(), const_value(rhs)))
            } else {
                None
            }
        }
        ForInit::Decl(decls) => {
            let d = decls.first()?;
            let lower = match &d.init {
                Some(Init::Expr(e)) => const_value(e),
                _ => None,
            };
            Some((d.name.clone(), lower))
        }
        _ => None,
    }
}

enum CanonicalBound {
    Const(i64, bool), // value, inclusive
    Symbolic,
}

fn canonical_cond(cond: Option<&Expr>, var: &str) -> Option<CanonicalBound> {
    match cond? {
        Expr::Binary { op, l, r } => {
            let inclusive = match op {
                BinOp::Lt => false,
                BinOp::Le => true,
                _ => return None,
            };
            if !matches!(l.as_ref(), Expr::Id(v) if v == var) {
                return None;
            }
            Some(match const_value(r) {
                Some(c) => CanonicalBound::Const(c, inclusive),
                None => CanonicalBound::Symbolic,
            })
        }
        _ => None,
    }
}

fn canonical_step(step: Option<&Expr>, var: &str) -> Option<i64> {
    match step? {
        Expr::Unary { op: UnOp::PostInc | UnOp::PreInc, expr } => {
            matches!(expr.as_ref(), Expr::Id(v) if v == var).then_some(1)
        }
        Expr::Assign { op: AssignOp::Add, lhs, rhs } => {
            if matches!(lhs.as_ref(), Expr::Id(v) if v == var) {
                const_value(rhs).filter(|c| *c > 0)
            } else {
                None
            }
        }
        Expr::Assign { op: AssignOp::Assign, lhs, rhs } => {
            // i = i + c
            if !matches!(lhs.as_ref(), Expr::Id(v) if v == var) {
                return None;
            }
            match rhs.as_ref() {
                Expr::Binary { op: BinOp::Add, l, r } => {
                    if matches!(l.as_ref(), Expr::Id(v) if v == var) {
                        const_value(r).filter(|c| *c > 0)
                    } else if matches!(r.as_ref(), Expr::Id(v) if v == var) {
                        const_value(l).filter(|c| *c > 0)
                    } else {
                        None
                    }
                }
                _ => None,
            }
        }
        _ => None,
    }
}

fn const_value(e: &Expr) -> Option<i64> {
    match e {
        Expr::IntLit(v, _) => Some(*v),
        Expr::Unary { op: UnOp::Neg, expr } => const_value(expr).map(|v| -v),
        Expr::Cast { expr, .. } => const_value(expr),
        Expr::Binary { op, l, r } => {
            let (a, b) = (const_value(l)?, const_value(r)?);
            Some(match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div if b != 0 => a / b,
                _ => return None,
            })
        }
        _ => None,
    }
}

// ---- helper scans ---------------------------------------------------------

fn inner_loop_vars(body: &Stmt) -> Vec<String> {
    let mut vars = Vec::new();
    body.walk(&mut |s| {
        if let Stmt::For { init, .. } = s {
            if let Some((v, _)) = canonical_init(init) {
                if !vars.contains(&v) {
                    vars.push(v);
                }
            }
        }
    });
    vars
}

fn body_declared(body: &Stmt) -> HashSet<String> {
    let mut names = HashSet::new();
    body.walk(&mut |s| {
        if let Stmt::Decl(decls) = s {
            for d in decls {
                names.insert(d.name.clone());
            }
        }
    });
    names
}

fn written_scalars(body: &Stmt) -> HashSet<String> {
    let mut names = HashSet::new();
    body.walk_exprs(&mut |e| match e {
        Expr::Assign { lhs, .. } => {
            if let Expr::Id(v) = lhs.as_ref() {
                names.insert(v.clone());
            }
        }
        Expr::Unary { op: UnOp::PostInc | UnOp::PostDec | UnOp::PreInc | UnOp::PreDec, expr } => {
            if let Expr::Id(v) = expr.as_ref() {
                names.insert(v.clone());
            }
        }
        _ => {}
    });
    names
}

// ---- subscript normal form --------------------------------------------------

/// A subscript normalized against the outer loop variable.
#[derive(Clone, Debug, PartialEq)]
enum SubForm {
    /// `a·i + b + Σ sym·coeff` with loop-invariant symbols.
    Affine { a: i64, b: i64, syms: Vec<(String, i64)> },
    /// Anything else (inner loop vars, written scalars, products of
    /// symbols, …).
    Variant,
}

fn normalize(e: &Expr, loop_var: &str, variant: &HashSet<String>) -> SubForm {
    use SubForm::*;
    match e {
        Expr::IntLit(v, _) => Affine { a: 0, b: *v, syms: vec![] },
        Expr::Id(v) if v == loop_var => Affine { a: 1, b: 0, syms: vec![] },
        Expr::Id(v) => {
            if variant.contains(v) {
                Variant
            } else {
                Affine { a: 0, b: 0, syms: vec![(v.clone(), 1)] }
            }
        }
        Expr::Cast { expr, .. } => normalize(expr, loop_var, variant),
        Expr::Unary { op: UnOp::Neg, expr } => match normalize(expr, loop_var, variant) {
            Affine { a, b, syms } => {
                Affine { a: -a, b: -b, syms: syms.into_iter().map(|(s, c)| (s, -c)).collect() }
            }
            Variant => Variant,
        },
        Expr::Binary { op, l, r } => {
            let (lf, rf) = (normalize(l, loop_var, variant), normalize(r, loop_var, variant));
            match (op, lf, rf) {
                (BinOp::Add, Affine { a, b, syms }, Affine { a: a2, b: b2, syms: s2 }) => {
                    Affine { a: a + a2, b: b + b2, syms: merge_syms(syms, s2, 1) }
                }
                (BinOp::Sub, Affine { a, b, syms }, Affine { a: a2, b: b2, syms: s2 }) => {
                    Affine { a: a - a2, b: b - b2, syms: merge_syms(syms, s2, -1) }
                }
                (BinOp::Mul, Affine { a, b, syms }, Affine { a: a2, b: b2, syms: s2 }) => {
                    // Only constant × affine stays affine.
                    if a == 0 && syms.is_empty() {
                        Affine {
                            a: b * a2,
                            b: b * b2,
                            syms: s2.into_iter().map(|(s, c)| (s, c * b)).collect(),
                        }
                    } else if a2 == 0 && s2.is_empty() {
                        Affine {
                            a: a * b2,
                            b: b * b2,
                            syms: syms.into_iter().map(|(s, c)| (s, c * b2)).collect(),
                        }
                    } else {
                        Variant
                    }
                }
                _ => Variant,
            }
        }
        _ => Variant,
    }
}

fn merge_syms(mut a: Vec<(String, i64)>, b: Vec<(String, i64)>, sign: i64) -> Vec<(String, i64)> {
    for (s, c) in b {
        match a.iter_mut().find(|(name, _)| *name == s) {
            Some((_, existing)) => *existing += sign * c,
            None => a.push((s, sign * c)),
        }
    }
    a.retain(|(_, c)| *c != 0);
    a.sort();
    a
}

/// Cross-iteration independence test for a pair of subscript vectors.
fn pair_independent(w: &[SubForm], other: &[SubForm]) -> bool {
    let dims = w.len().min(other.len());
    for d in 0..dims {
        match (&w[d], &other[d]) {
            (SubForm::Affine { a, b, syms }, SubForm::Affine { a: a2, b: b2, syms: s2 }) => {
                if a == a2 && *a != 0 {
                    if b == b2 && syms == s2 {
                        // Identical affine subscripts: distinct iterations
                        // touch distinct cells in this dimension.
                        return true;
                    }
                    if syms == s2 && (b - b2) % a != 0 {
                        // Offset not a multiple of the stride: no integer
                        // iteration distance (strong SIV).
                        return true;
                    }
                } else if *a != 0 && *a2 != 0 && syms == s2 {
                    // GCD test: a·i1 − a2·i2 = b2 − b must have an integer
                    // solution.
                    let g = gcd(a.unsigned_abs(), a2.unsigned_abs()) as i64;
                    if g != 0 && (b2 - b) % g != 0 {
                        return true;
                    }
                }
            }
            _ => continue,
        }
    }
    false
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

// ---- event collection -------------------------------------------------------

#[derive(Debug)]
struct ArrayAccess {
    name: String,
    subs: Vec<SubForm>,
    is_write: bool,
}

#[derive(Debug)]
enum Event {
    ScalarRead(String),
    ScalarWrite { name: String, plain: bool },
    Array(ArrayAccess),
}

struct Collector {
    loop_var: String,
    variant: HashSet<String>,
    events: Vec<Event>,
    blockers: Vec<Reason>,
    reduction_candidates: HashMap<String, Vec<ReductionOp>>,
    inner_vars: Vec<String>,
}

impl Collector {
    fn scan_stmt(&mut self, s: &Stmt, depth: usize) {
        match s {
            Stmt::Compound(stmts) => {
                for st in stmts {
                    self.scan_stmt(st, depth);
                }
            }
            Stmt::Decl(decls) => {
                for d in decls {
                    if let Some(Init::Expr(e)) = &d.init {
                        self.scan_expr(e, false);
                    }
                }
            }
            Stmt::Expr(e) => self.scan_top_expr(e),
            Stmt::If { cond, then, else_ } => {
                if self.try_minmax_pattern(cond, then, else_.as_deref()) {
                    return;
                }
                self.scan_expr(cond, false);
                self.scan_stmt(then, depth);
                if let Some(e) = else_ {
                    self.scan_stmt(e, depth);
                }
            }
            Stmt::For { init, cond, step, body } => {
                match init {
                    ForInit::Expr(e) => self.scan_expr(e, false),
                    ForInit::Decl(decls) => {
                        for d in decls {
                            if let Some(Init::Expr(e)) = &d.init {
                                self.scan_expr(e, false);
                            }
                        }
                    }
                    ForInit::Empty => {}
                }
                if let Some(c) = cond {
                    self.scan_expr(c, false);
                }
                if let Some(st) = step {
                    // Inner counter updates are structural, not data flow.
                    if !is_counter_update(st, &self.inner_vars) {
                        self.scan_expr(st, false);
                    }
                }
                self.scan_stmt(body, depth + 1);
            }
            Stmt::While { cond, body } => {
                self.scan_expr(cond, false);
                self.scan_stmt(body, depth + 1);
            }
            Stmt::DoWhile { body, cond } => {
                self.scan_stmt(body, depth + 1);
                self.scan_expr(cond, false);
            }
            Stmt::Break => {
                if depth == 0 {
                    self.blockers.push(Reason::EarlyExit);
                }
            }
            Stmt::Return(_) => self.blockers.push(Reason::EarlyExit),
            Stmt::Pragma { stmt, .. } => self.scan_stmt(stmt, depth),
            Stmt::Continue | Stmt::Empty => {}
        }
    }

    /// Statement-level expressions get reduction-pattern recognition.
    fn scan_top_expr(&mut self, e: &Expr) {
        if let Some((name, op, rhs)) = self.reduction_statement(e) {
            self.reduction_candidates.entry(name).or_default().push(op);
            // The folded expression's reads still participate in array
            // dependence testing (`s += a[i]` reads `a[i]`).
            if let Some(rhs) = rhs {
                self.scan_expr(rhs, false);
            }
            return;
        }
        self.scan_expr(e, false);
    }

    /// Recognizes `s += e`, `s -= e`, `s *= e`, `s = s ⊕ e`, `s++` where
    /// `e` does not mention `s`. Returns the scalar, the reduction op and
    /// the folded expression.
    fn reduction_statement<'e>(
        &self,
        e: &'e Expr,
    ) -> Option<(String, ReductionOp, Option<&'e Expr>)> {
        let (name, op, rhs): (&str, ReductionOp, Option<&Expr>) = match e {
            Expr::Assign { op, lhs, rhs } => {
                let Expr::Id(name) = lhs.as_ref() else { return None };
                match op {
                    AssignOp::Add => (name, ReductionOp::Add, Some(rhs)),
                    AssignOp::Sub => (name, ReductionOp::Sub, Some(rhs)),
                    AssignOp::Mul => (name, ReductionOp::Mul, Some(rhs)),
                    AssignOp::Assign => {
                        // s = s + e / s = e + s / s = s * e / s = e * s
                        let Expr::Binary { op: bop, l, r } = rhs.as_ref() else {
                            return None;
                        };
                        let red = match bop {
                            BinOp::Add => ReductionOp::Add,
                            BinOp::Mul => ReductionOp::Mul,
                            _ => return None,
                        };
                        let other = if matches!(l.as_ref(), Expr::Id(v) if v == name) {
                            r.as_ref()
                        } else if matches!(r.as_ref(), Expr::Id(v) if v == name) {
                            l.as_ref()
                        } else {
                            return None;
                        };
                        (name, red, Some(other))
                    }
                    _ => return None,
                }
            }
            Expr::Unary { op: UnOp::PostInc | UnOp::PreInc, expr } => {
                let Expr::Id(name) = expr.as_ref() else { return None };
                (name, ReductionOp::Add, None)
            }
            _ => return None,
        };
        // The folded expression must not read the accumulator, and the
        // accumulator must not be the loop variable.
        if name == self.loop_var {
            return None;
        }
        if let Some(rhs) = rhs {
            let mut mentions = false;
            rhs.walk(&mut |x| {
                if matches!(x, Expr::Id(v) if v == name) {
                    mentions = true;
                }
            });
            if mentions {
                return None;
            }
        }
        Some((name.to_string(), op, rhs))
    }

    /// Recognizes `if (e ⋛ s) s = e;` max/min update patterns.
    fn try_minmax_pattern(&mut self, cond: &Expr, then: &Stmt, else_: Option<&Stmt>) -> bool {
        if else_.is_some() {
            return false;
        }
        let Expr::Binary { op, l, r } = cond else { return false };
        // Unwrap `then` to a single assignment.
        let assign = match then {
            Stmt::Expr(e) => e,
            Stmt::Compound(v) if v.len() == 1 => match &v[0] {
                Stmt::Expr(e) => e,
                _ => return false,
            },
            _ => return false,
        };
        let Expr::Assign { op: AssignOp::Assign, lhs, rhs } = assign else {
            return false;
        };
        let Expr::Id(target) = lhs.as_ref() else { return false };
        if target == &self.loop_var {
            return false;
        }
        // Shape: cond compares rhs against target.
        let (source, red) = if matches!(r.as_ref(), Expr::Id(v) if v == target)
            && rhs.as_ref() == l.as_ref()
        {
            match op {
                BinOp::Gt | BinOp::Ge => (l.as_ref(), ReductionOp::Max),
                BinOp::Lt | BinOp::Le => (l.as_ref(), ReductionOp::Min),
                _ => return false,
            }
        } else if matches!(l.as_ref(), Expr::Id(v) if v == target) && rhs.as_ref() == r.as_ref() {
            match op {
                BinOp::Lt | BinOp::Le => (r.as_ref(), ReductionOp::Max),
                BinOp::Gt | BinOp::Ge => (r.as_ref(), ReductionOp::Min),
                _ => return false,
            }
        } else {
            return false;
        };
        // The compared expression must not mention the accumulator.
        let mut mentions = false;
        source.walk(&mut |x| {
            if matches!(x, Expr::Id(v) if v == target) {
                mentions = true;
            }
        });
        if mentions {
            return false;
        }
        // Record the source expression's ordinary reads.
        self.scan_expr(source, false);
        self.reduction_candidates.entry(target.clone()).or_default().push(red);
        true
    }

    /// General expression scan. `writing` marks lvalue context.
    fn scan_expr(&mut self, e: &Expr, writing: bool) {
        match e {
            Expr::Id(v) => {
                if v == &self.loop_var {
                    return;
                }
                if writing {
                    self.events.push(Event::ScalarWrite { name: v.clone(), plain: false });
                } else {
                    self.events.push(Event::ScalarRead(v.clone()));
                }
            }
            Expr::Assign { op, lhs, rhs } => {
                // rhs evaluates first.
                self.scan_expr(rhs, false);
                match lhs.as_ref() {
                    Expr::Id(v) => {
                        if *op != AssignOp::Assign {
                            self.events.push(Event::ScalarRead(v.clone()));
                        }
                        if v != &self.loop_var {
                            let mut plain = *op == AssignOp::Assign;
                            if plain {
                                // `s = expr` reading s is not write-first.
                                rhs.walk(&mut |x| {
                                    if matches!(x, Expr::Id(n) if n == v) {
                                        plain = false;
                                    }
                                });
                            }
                            self.events.push(Event::ScalarWrite { name: v.clone(), plain });
                        }
                    }
                    Expr::Index { .. } => {
                        if *op != AssignOp::Assign {
                            self.record_array(lhs, false);
                        }
                        self.record_array(lhs, true);
                    }
                    Expr::Member { .. } | Expr::Unary { op: UnOp::Deref, .. } => {
                        self.blockers.push(Reason::OpaqueWrite);
                    }
                    other => {
                        self.scan_expr(other, false);
                        self.blockers.push(Reason::OpaqueWrite);
                    }
                }
            }
            Expr::Unary { op, expr } => match op {
                UnOp::PostInc | UnOp::PostDec | UnOp::PreInc | UnOp::PreDec => {
                    match expr.as_ref() {
                        Expr::Id(v) => {
                            if v != &self.loop_var {
                                self.events.push(Event::ScalarRead(v.clone()));
                                self.events
                                    .push(Event::ScalarWrite { name: v.clone(), plain: false });
                            }
                        }
                        Expr::Index { .. } => {
                            self.record_array(expr, false);
                            self.record_array(expr, true);
                        }
                        _ => self.blockers.push(Reason::OpaqueWrite),
                    }
                }
                _ => self.scan_expr(expr, writing),
            },
            Expr::Index { .. } => self.record_array(e, writing),
            Expr::Binary { l, r, .. } => {
                self.scan_expr(l, false);
                self.scan_expr(r, false);
            }
            Expr::Ternary { cond, then, else_ } => {
                self.scan_expr(cond, false);
                self.scan_expr(then, false);
                self.scan_expr(else_, false);
            }
            Expr::Call { callee, args } => {
                let name = match callee.as_ref() {
                    Expr::Id(n) => n.clone(),
                    other => {
                        self.scan_expr(other, false);
                        self.blockers.push(Reason::UnknownCall("<indirect>".into()));
                        for a in args {
                            self.scan_expr(a, false);
                        }
                        return;
                    }
                };
                if IO_FUNCS.contains(&name.as_str()) {
                    self.blockers.push(Reason::IoCall(name));
                } else if ALLOC_FUNCS.contains(&name.as_str()) {
                    self.blockers.push(Reason::AllocCall(name));
                } else if !PURE_FUNCS.contains(&name.as_str()) {
                    // Everything else — including stateful PRNGs like
                    // rand() — has unknown side effects.
                    self.blockers.push(Reason::UnknownCall(name));
                }
                for a in args {
                    // &x arguments are writes the callee may perform.
                    if let Expr::Unary { op: UnOp::AddrOf, .. } = a {
                        self.blockers.push(Reason::OpaqueWrite);
                    }
                    self.scan_expr(a, false);
                }
            }
            Expr::Member { base, .. } => {
                self.scan_expr(base, false);
            }
            Expr::Cast { expr, .. } => self.scan_expr(expr, writing),
            Expr::Sizeof(arg) => {
                if let pragformer_cparse::SizeofArg::Expr(e) = arg.as_ref() {
                    self.scan_expr(e, false);
                }
            }
            Expr::Comma(a, b) => {
                self.scan_expr(a, false);
                self.scan_expr(b, false);
            }
            Expr::IntLit(..) | Expr::FloatLit(..) | Expr::CharLit(_) | Expr::StrLit(_) => {}
        }
    }

    /// Flattens an index chain into an [`ArrayAccess`] event.
    fn record_array(&mut self, e: &Expr, is_write: bool) {
        let mut subs_exprs: Vec<&Expr> = Vec::new();
        let mut base = e;
        while let Expr::Index { base: b, idx } = base {
            subs_exprs.push(idx);
            base = b;
        }
        subs_exprs.reverse();
        let name = match base {
            Expr::Id(n) => n.clone(),
            _ => {
                if is_write {
                    self.blockers.push(Reason::OpaqueWrite);
                }
                return;
            }
        };
        // Subscript expressions are also reads.
        for sub in &subs_exprs {
            self.scan_expr(sub, false);
        }
        let subs = subs_exprs.iter().map(|s| normalize(s, &self.loop_var, &self.variant)).collect();
        self.events.push(Event::Array(ArrayAccess { name, subs, is_write }));
    }
}

fn is_counter_update(e: &Expr, inner_vars: &[String]) -> bool {
    match e {
        Expr::Unary { op: UnOp::PostInc | UnOp::PreInc | UnOp::PostDec | UnOp::PreDec, expr } => {
            matches!(expr.as_ref(), Expr::Id(v) if inner_vars.contains(v))
        }
        Expr::Assign { lhs, .. } => {
            matches!(lhs.as_ref(), Expr::Id(v) if inner_vars.contains(v))
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pragformer_cparse::parse_snippet;

    fn analyze(src: &str) -> LoopAnalysis {
        let stmts = parse_snippet(src).unwrap();
        let loop_stmt =
            stmts.iter().find(|s| matches!(s, Stmt::For { .. })).expect("no loop in test snippet");
        analyze_loop(loop_stmt, &stmts)
    }

    #[test]
    fn independent_loop_is_clean() {
        let a = analyze("for (i = 0; i < n; i++) a[i] = b[i] + 1;");
        assert!(a.blockers.is_empty(), "{:?}", a.blockers);
        assert_eq!(a.loop_var, "i");
        assert!(a.reductions.is_empty());
    }

    #[test]
    fn trip_count_constant_bounds() {
        let a = analyze("for (i = 0; i < 100; i++) a[i] = i;");
        assert_eq!(a.trip_count, Some(100));
        let b = analyze("for (i = 0; i <= 100; i++) a[i] = i;");
        assert_eq!(b.trip_count, Some(101));
        let c = analyze("for (i = 0; i < n; i++) a[i] = i;");
        assert_eq!(c.trip_count, None);
    }

    #[test]
    fn flow_dependence_detected() {
        let a = analyze("for (i = 1; i < n; i++) a[i] = a[i - 1] * 2;");
        assert!(a.blockers.contains(&Reason::CarriedDependence("a".into())), "{:?}", a.blockers);
    }

    #[test]
    fn anti_dependence_detected() {
        let a = analyze("for (i = 0; i < n - 1; i++) a[i] = a[i + 1];");
        assert!(a.blockers.contains(&Reason::CarriedDependence("a".into())), "{:?}", a.blockers);
    }

    #[test]
    fn same_subscript_rw_is_fine() {
        let a = analyze("for (i = 0; i < n; i++) a[i] = a[i] * 2;");
        assert!(a.blockers.is_empty(), "{:?}", a.blockers);
    }

    #[test]
    fn strided_accesses_gcd() {
        // write a[2i], read a[2i+1]: gcd 2 does not divide 1 → independent.
        let ok = analyze("for (i = 0; i < n; i++) a[2 * i] = a[2 * i + 1];");
        assert!(ok.blockers.is_empty(), "{:?}", ok.blockers);
        // write a[2i], read a[2i+2]: distance 1 iteration → dependence.
        let bad = analyze("for (i = 0; i < n; i++) a[2 * i] = a[2 * i + 2];");
        assert!(bad.blockers.contains(&Reason::CarriedDependence("a".into())));
    }

    #[test]
    fn symbolic_offsets_match_syntactically() {
        let ok = analyze("for (i = 0; i < n; i++) a[i + off] = b[i];");
        assert!(ok.blockers.is_empty(), "{:?}", ok.blockers);
        // Different symbolic offsets on the same array: conservative refusal.
        let bad = analyze("for (i = 0; i < n; i++) a[i + p] = a[i + q];");
        assert!(
            bad.blockers.contains(&Reason::CarriedDependence("a".into())),
            "{:?}",
            bad.blockers
        );
    }

    #[test]
    fn write_without_loop_var_is_carried() {
        let a = analyze("for (i = 0; i < n; i++) a[k] = i;");
        assert!(a.blockers.contains(&Reason::CarriedDependence("a".into())));
        // Inner-variable-only subscripts share cells across outer iterations.
        let b = analyze("for (i = 0; i < n; i++) for (j = 0; j < m; j++) hist[j] = hist[j] + 1;");
        assert!(b.blockers.contains(&Reason::CarriedDependence("hist".into())), "{:?}", b.blockers);
    }

    #[test]
    fn two_d_row_partitioning_is_independent() {
        let a =
            analyze("for (i = 0; i < n; i++) for (j = 0; j < m; j++) c[i][j] = c[i][j] + a[i][j];");
        assert!(a.blockers.is_empty(), "{:?}", a.blockers);
        assert!(a.private.contains(&"j".to_string()));
    }

    #[test]
    fn sum_and_product_reductions() {
        let a = analyze("for (i = 0; i < n; i++) s += a[i];");
        assert_eq!(a.reductions, vec![(ReductionOp::Add, "s".to_string())]);
        let b = analyze("for (i = 0; i < n; i++) p *= a[i];");
        assert_eq!(b.reductions, vec![(ReductionOp::Mul, "p".to_string())]);
        let c = analyze("for (i = 0; i < n; i++) s = s + a[i] * b[i];");
        assert_eq!(c.reductions, vec![(ReductionOp::Add, "s".to_string())]);
    }

    #[test]
    fn max_min_reductions() {
        let a = analyze("for (i = 0; i < n; i++) if (a[i] > m) m = a[i];");
        assert_eq!(a.reductions, vec![(ReductionOp::Max, "m".to_string())]);
        let b = analyze("for (i = 0; i < n; i++) if (a[i] < m) m = a[i];");
        assert_eq!(b.reductions, vec![(ReductionOp::Min, "m".to_string())]);
    }

    #[test]
    fn guarded_count_is_a_reduction() {
        let a = analyze("for (i = 0; i < n; i++) if (a[i] > t) c++;");
        assert_eq!(a.reductions, vec![(ReductionOp::Add, "c".to_string())]);
        assert!(a.blockers.is_empty(), "{:?}", a.blockers);
    }

    #[test]
    fn prefix_sum_is_not_a_reduction() {
        let a = analyze("for (i = 0; i < n; i++) { s += a[i]; out[i] = s; }");
        assert!(a.reductions.is_empty(), "{:?}", a.reductions);
        assert!(a.blockers.contains(&Reason::ScalarDependence("s".into())), "{:?}", a.blockers);
    }

    #[test]
    fn running_max_stored_is_not_a_reduction() {
        let a = analyze("for (i = 0; i < n; i++) { if (a[i] > m) m = a[i]; out[i] = m; }");
        assert!(a.reductions.is_empty());
        assert!(a.blockers.contains(&Reason::ScalarDependence("m".into())));
    }

    #[test]
    fn write_first_temporary_is_private() {
        let a = analyze("for (i = 0; i < n; i++) { t = a[i] + 1.0; b[i] = t * t; }");
        assert!(a.blockers.is_empty(), "{:?}", a.blockers);
        assert!(a.private.contains(&"t".to_string()), "{:?}", a.private);
    }

    #[test]
    fn matvec_private_accumulator() {
        let a = analyze(
            "for (i = 0; i < n; i++) { s = 0.0; for (j = 0; j < m; j++) s += A[i][j] * x[j]; y[i] = s; }",
        );
        assert!(a.blockers.is_empty(), "{:?}", a.blockers);
        assert!(a.private.contains(&"s".to_string()));
        assert!(a.private.contains(&"j".to_string()));
        assert!(a.reductions.is_empty());
    }

    #[test]
    fn non_canonical_loops_are_refused() {
        for src in [
            "for (i = n; i > 0; i--) a[i] = i;",
            "for (; i < n; i++) a[i] = i;",
            "for (i = 0; i != n; i++) a[i] = i;",
            "for (i = 0; i < n; i *= 2) a[i] = i;",
        ] {
            let a = analyze(src);
            assert!(a.blockers.contains(&Reason::NonCanonicalLoop), "{src}: {:?}", a.blockers);
        }
    }

    #[test]
    fn address_of_argument_is_opaque() {
        let a = analyze("for (i = 0; i < n; i++) scanf(\"%d\", &x[i]);");
        assert!(a.blockers.iter().any(|r| matches!(r, Reason::IoCall(_))));
        assert!(a.blockers.contains(&Reason::OpaqueWrite));
    }

    #[test]
    fn struct_write_is_opaque() {
        let a = analyze("for (p = head; p; p = p->next) s += p->value;");
        // Non-canonical (pointer loop) — refused before anything else.
        assert!(a.blockers.contains(&Reason::NonCanonicalLoop));
    }

    #[test]
    fn induction_scalar_is_a_dependence() {
        let a = analyze("for (i = 0; i < n; i++) { b[pos] = a[i]; pos += step; }");
        assert!(
            a.blockers.iter().any(|r| matches!(r, Reason::ScalarDependence(s) if s == "pos"))
                || a.blockers.iter().any(|r| matches!(r, Reason::CarriedDependence(s) if s == "b")),
            "{:?}",
            a.blockers
        );
    }
}
