//! Recursive-descent parser for the C subset.
//!
//! C cannot be parsed without a typedef table; like pycparser with its
//! fake-libc headers, we keep a list of well-known typedef names
//! ([`WELL_KNOWN_TYPEDEFS`]) and additionally treat `Ident Ident …` at
//! statement level as a declaration. That resolves the declaration/
//! expression ambiguity for all code the corpus generator and the paper's
//! examples produce (`ssize_t i`, `IndexPacket p`, `size_t n = 0`, …).

use crate::ast::*;
use crate::lexer::{lex, Keyword, Punct, SpannedToken, Token};
use crate::omp::OmpDirective;
use std::fmt;

/// Typedef names accepted as type specifiers without a declaration in
/// scope (mirrors pycparser's fake libc headers).
pub const WELL_KNOWN_TYPEDEFS: &[&str] = &[
    "size_t",
    "ssize_t",
    "ptrdiff_t",
    "FILE",
    "int8_t",
    "int16_t",
    "int32_t",
    "int64_t",
    "uint8_t",
    "uint16_t",
    "uint32_t",
    "uint64_t",
    "bool",
    "IndexPacket",
    "PixelPacket",
    "MagickBooleanType",
    "intptr_t",
    "uintptr_t",
];

/// Deepest nesting of statements, blocks and expressions the parser
/// accepts.
///
/// Recursive descent spends stack per nesting level, and so do the
/// recursive AST walks after it (DFS serialization, the ComPar analysis,
/// dropping the tree). Unbounded, a few KB of `((((…` would overflow a
/// 2 MiB worker stack and abort the process; past this depth parsing
/// fails with a [`ParseError`] instead. Every nested statement,
/// assignment-level expression and unary operand is one level, and so is
/// every link of a left-deep chain built in a loop (`a + b + …`,
/// `a[i][j]…`, `f()()`, `a, b, …`), because it nests the AST as deeply.
/// The deepest generated corpus snippet uses 17 levels; at 64, even an
/// unoptimized build parses the deepest accepted input within 2 MiB.
pub const MAX_NESTING: usize = 64;

/// Parse failure with source position.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    /// Human-readable description.
    pub msg: String,
    /// 1-based line (0 when at end of input).
    pub line: usize,
    /// 1-based column (0 when at end of input).
    pub col: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}:{}: {}", self.line, self.col, self.msg)
    }
}

impl std::error::Error for ParseError {}

impl From<crate::lexer::LexError> for ParseError {
    fn from(e: crate::lexer::LexError) -> Self {
        ParseError { msg: e.msg, line: e.line, col: e.col }
    }
}

/// Parses a full file: function definitions and global declarations.
pub fn parse_translation_unit(src: &str) -> Result<TranslationUnit, ParseError> {
    let tokens = lex(src)?;
    let mut p = Parser::new(&tokens);
    let mut items = Vec::new();
    while !p.at_end() {
        items.push(p.item()?);
    }
    Ok(TranslationUnit { items })
}

/// Parses a statement list — the shape of an Open-OMP record (a loop nest
/// possibly preceded by declarations and a pragma). Lexes `src`, then
/// [`parse_tokens`].
pub fn parse_snippet(src: &str) -> Result<Vec<Stmt>, ParseError> {
    parse_tokens(&lex(src)?)
}

/// Parses an already-lexed statement list. A caller that also needs the
/// tokens (a front-end gate over the same snippet) lexes once and passes
/// the slice to both.
pub fn parse_tokens(tokens: &[SpannedToken]) -> Result<Vec<Stmt>, ParseError> {
    let mut p = Parser::new(tokens);
    let mut stmts = Vec::new();
    while !p.at_end() {
        stmts.push(p.statement()?);
    }
    Ok(stmts)
}

struct Parser<'a> {
    toks: &'a [SpannedToken],
    pos: usize,
    /// Current nesting level, bounded by [`MAX_NESTING`].
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(toks: &'a [SpannedToken]) -> Self {
        Self { toks, pos: 0, depth: 0 }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    fn peek(&self) -> Option<&Token> {
        self.toks.get(self.pos).map(|t| &t.tok)
    }

    fn peek_at(&self, offset: usize) -> Option<&Token> {
        self.toks.get(self.pos + offset).map(|t| &t.tok)
    }

    fn bump(&mut self) -> Option<&'a Token> {
        let t = self.toks.get(self.pos).map(|t| &t.tok);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        match self.toks.get(self.pos.min(self.toks.len().saturating_sub(1))) {
            Some(t) => ParseError { msg: msg.into(), line: t.line, col: t.col },
            None => ParseError { msg: msg.into(), line: 0, col: 0 },
        }
    }

    /// Enters one nesting level; fails past [`MAX_NESTING`]. A failed
    /// parse is never resumed, so error paths need not restore `depth`.
    fn descend(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_NESTING {
            return Err(self.err(format!("nesting deeper than {MAX_NESTING} levels")));
        }
        Ok(())
    }

    /// Runs `parse` one nesting level down.
    fn nested<T>(
        &mut self,
        parse: fn(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        self.descend()?;
        let out = parse(self)?;
        self.depth -= 1;
        Ok(out)
    }

    fn eat_punct(&mut self, p: Punct) -> bool {
        if self.peek() == Some(&Token::Punct(p)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: Punct) -> Result<(), ParseError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(self.err(format!("expected '{}', found {}", p.as_str(), self.describe_here())))
        }
    }

    fn eat_keyword(&mut self, k: Keyword) -> bool {
        if self.peek() == Some(&Token::Keyword(k)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn describe_here(&self) -> String {
        match self.peek() {
            Some(t) => format!("'{t}'"),
            None => "end of input".to_string(),
        }
    }

    // ---- types -----------------------------------------------------------

    /// True when the token at `offset` could start a type specifier.
    fn is_type_start_at(&self, offset: usize) -> bool {
        match self.peek_at(offset) {
            Some(Token::Keyword(k)) => matches!(
                k,
                Keyword::Void
                    | Keyword::Char
                    | Keyword::Short
                    | Keyword::Int
                    | Keyword::Long
                    | Keyword::Float
                    | Keyword::Double
                    | Keyword::Signed
                    | Keyword::Unsigned
                    | Keyword::Const
                    | Keyword::Static
                    | Keyword::Register
                    | Keyword::Volatile
                    | Keyword::Extern
                    | Keyword::Struct
                    | Keyword::Inline
            ),
            Some(Token::Ident(name)) => WELL_KNOWN_TYPEDEFS.contains(&name.as_str()),
            _ => false,
        }
    }

    fn is_type_start(&self) -> bool {
        // `Ident Ident` (e.g. `MyType x`) also opens a declaration.
        if self.is_type_start_at(0) {
            return true;
        }
        matches!((self.peek(), self.peek_at(1)), (Some(Token::Ident(_)), Some(Token::Ident(_))))
    }

    /// Parses declaration specifiers (storage classes, qualifiers, base).
    fn type_specifiers(&mut self) -> Result<Type, ParseError> {
        let mut ty = Type::default();
        let mut base: Option<BaseType> = None;
        let mut longs = 0usize;
        let mut saw_any = false;
        loop {
            match self.peek() {
                Some(Token::Keyword(k)) => {
                    let k = *k;
                    match k {
                        Keyword::Const => ty.is_const = true,
                        Keyword::Static => ty.is_static = true,
                        Keyword::Register => ty.is_register = true,
                        Keyword::Volatile
                        | Keyword::Extern
                        | Keyword::Inline
                        | Keyword::Restrict => {}
                        Keyword::Unsigned => ty.unsigned = true,
                        Keyword::Signed => {}
                        Keyword::Void => base = Some(BaseType::Void),
                        Keyword::Char => base = Some(BaseType::Char),
                        Keyword::Short => base = Some(BaseType::Short),
                        Keyword::Int => {
                            if base.is_none() {
                                base = Some(BaseType::Int);
                            }
                        }
                        Keyword::Long => longs += 1,
                        Keyword::Float => base = Some(BaseType::Float),
                        Keyword::Double => base = Some(BaseType::Double),
                        Keyword::Struct | Keyword::Union | Keyword::Enum => {
                            self.bump();
                            let name = match self.bump() {
                                Some(Token::Ident(n)) => n.clone(),
                                other => {
                                    return Err(self.err(format!(
                                        "expected struct/union/enum tag, found {other:?}"
                                    )))
                                }
                            };
                            base = Some(BaseType::Struct(name));
                            saw_any = true;
                            continue;
                        }
                        _ => break,
                    }
                    saw_any = true;
                    self.bump();
                }
                Some(Token::Ident(name))
                    if base.is_none()
                        && longs == 0
                        && (WELL_KNOWN_TYPEDEFS.contains(&name.as_str())
                            || matches!(self.peek_at(1), Some(Token::Ident(_)))) =>
                {
                    base = Some(BaseType::Named(name.clone()));
                    saw_any = true;
                    self.bump();
                    break; // a typedef name terminates the specifier list
                }
                _ => break,
            }
        }
        if !saw_any {
            return Err(self.err("expected type specifier"));
        }
        ty.base = match (base, longs) {
            (Some(BaseType::Double), _) => BaseType::Double, // long double → double
            (b, 0) => b.unwrap_or(BaseType::Int),
            (None, 1) | (Some(BaseType::Int), 1) => BaseType::Long,
            (None, _) | (Some(BaseType::Int), _) => BaseType::LongLong,
            (Some(b), _) => b,
        };
        Ok(ty)
    }

    /// Parses `*`s + name + array dims for one declarator.
    fn declarator(&mut self, base: &Type) -> Result<Decl, ParseError> {
        let mut ty = base.clone();
        while self.eat_punct(Punct::Star) {
            ty.pointers += 1;
            // `const` may follow the star.
            while self.eat_keyword(Keyword::Const) || self.eat_keyword(Keyword::Restrict) {}
        }
        let name = match self.bump() {
            Some(Token::Ident(n)) => n.clone(),
            other => return Err(self.err(format!("expected declarator name, found {other:?}"))),
        };
        let mut array_dims = Vec::new();
        while self.eat_punct(Punct::LBracket) {
            if self.eat_punct(Punct::RBracket) {
                array_dims.push(None);
            } else {
                let dim = self.expression()?;
                self.expect_punct(Punct::RBracket)?;
                array_dims.push(Some(dim));
            }
        }
        let init = if self.eat_punct(Punct::Eq) {
            if self.eat_punct(Punct::LBrace) {
                let mut items = Vec::new();
                while !self.eat_punct(Punct::RBrace) {
                    items.push(self.assignment_expr()?);
                    if !self.eat_punct(Punct::Comma)
                        && self.peek() != Some(&Token::Punct(Punct::RBrace))
                    {
                        return Err(self.err("expected ',' or '}' in initializer list"));
                    }
                }
                Some(Init::List(items))
            } else {
                Some(Init::Expr(self.assignment_expr()?))
            }
        } else {
            None
        };
        Ok(Decl { name, ty, array_dims, init })
    }

    /// Parses a whole declaration line `type d1, d2, …;` (semicolon eaten).
    fn declaration(&mut self) -> Result<Vec<Decl>, ParseError> {
        let base = self.type_specifiers()?;
        let mut decls = vec![self.declarator(&base)?];
        while self.eat_punct(Punct::Comma) {
            decls.push(self.declarator(&base)?);
        }
        self.expect_punct(Punct::Semicolon)?;
        Ok(decls)
    }

    // ---- top level --------------------------------------------------------

    fn item(&mut self) -> Result<Item, ParseError> {
        let checkpoint = self.pos;
        let base = self.type_specifiers()?;
        // Look ahead: pointer stars, name, then '(' means function.
        let mut probe = self.pos;
        while self.toks.get(probe).map(|t| &t.tok) == Some(&Token::Punct(Punct::Star)) {
            probe += 1;
        }
        let is_func = matches!(self.toks.get(probe).map(|t| &t.tok), Some(Token::Ident(_)))
            && self.toks.get(probe + 1).map(|t| &t.tok) == Some(&Token::Punct(Punct::LParen));
        if is_func {
            let mut ret = base;
            while self.eat_punct(Punct::Star) {
                ret.pointers += 1;
            }
            let name = match self.bump() {
                Some(Token::Ident(n)) => n.clone(),
                _ => unreachable!("probed an identifier"),
            };
            self.expect_punct(Punct::LParen)?;
            let mut params = Vec::new();
            if !self.eat_punct(Punct::RParen) {
                loop {
                    if self.peek() == Some(&Token::Keyword(Keyword::Void))
                        && self.peek_at(1) == Some(&Token::Punct(Punct::RParen))
                    {
                        self.bump();
                        self.expect_punct(Punct::RParen)?;
                        break;
                    }
                    let pbase = self.type_specifiers()?;
                    let mut pty = pbase.clone();
                    while self.eat_punct(Punct::Star) {
                        pty.pointers += 1;
                        while self.eat_keyword(Keyword::Const)
                            || self.eat_keyword(Keyword::Restrict)
                        {}
                    }
                    let pname = match self.peek() {
                        Some(Token::Ident(_)) => match self.bump() {
                            Some(Token::Ident(n)) => n.clone(),
                            _ => unreachable!(),
                        },
                        _ => String::new(),
                    };
                    let mut dims = Vec::new();
                    while self.eat_punct(Punct::LBracket) {
                        if self.eat_punct(Punct::RBracket) {
                            dims.push(None);
                        } else {
                            let d = self.expression()?;
                            self.expect_punct(Punct::RBracket)?;
                            dims.push(Some(d));
                        }
                    }
                    params.push(ParamDecl { name: pname, ty: pty, array_dims: dims });
                    if self.eat_punct(Punct::RParen) {
                        break;
                    }
                    self.expect_punct(Punct::Comma)?;
                }
            }
            if self.eat_punct(Punct::Semicolon) {
                // Prototype: surface as a declaration of the name.
                return Ok(Item::Decl(vec![Decl {
                    name,
                    ty: ret,
                    array_dims: Vec::new(),
                    init: None,
                }]));
            }
            let body = self.compound()?;
            return Ok(Item::Func(FuncDef { ret, name, params, body }));
        }
        // Not a function: rewind and parse a declaration line.
        self.pos = checkpoint;
        let decls = self.declaration()?;
        Ok(Item::Decl(decls))
    }

    // ---- statements -------------------------------------------------------

    fn compound(&mut self) -> Result<Stmt, ParseError> {
        self.expect_punct(Punct::LBrace)?;
        let mut stmts = Vec::new();
        while !self.eat_punct(Punct::RBrace) {
            if self.at_end() {
                return Err(self.err("unterminated block"));
            }
            stmts.push(self.statement()?);
        }
        Ok(Stmt::Compound(stmts))
    }

    fn statement(&mut self) -> Result<Stmt, ParseError> {
        self.nested(Self::statement_body)
    }

    fn statement_body(&mut self) -> Result<Stmt, ParseError> {
        match self.peek() {
            Some(Token::OmpPragma(_)) => {
                let raw = match self.bump() {
                    Some(Token::OmpPragma(r)) => r,
                    _ => unreachable!(),
                };
                let directive =
                    OmpDirective::parse(raw).map_err(|e| self.err(format!("in pragma: {e}")))?;
                let stmt = self.statement()?;
                Ok(Stmt::Pragma { directive, stmt: Box::new(stmt) })
            }
            Some(Token::Punct(Punct::LBrace)) => self.compound(),
            Some(Token::Punct(Punct::Semicolon)) => {
                self.bump();
                Ok(Stmt::Empty)
            }
            Some(Token::Keyword(Keyword::If)) => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let cond = self.expression()?;
                self.expect_punct(Punct::RParen)?;
                let then = Box::new(self.statement()?);
                let else_ = if self.eat_keyword(Keyword::Else) {
                    Some(Box::new(self.statement()?))
                } else {
                    None
                };
                Ok(Stmt::If { cond, then, else_ })
            }
            Some(Token::Keyword(Keyword::For)) => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let init = if self.eat_punct(Punct::Semicolon) {
                    ForInit::Empty
                } else if self.is_type_start() {
                    let base = self.type_specifiers()?;
                    let mut decls = vec![self.declarator(&base)?];
                    while self.eat_punct(Punct::Comma) {
                        decls.push(self.declarator(&base)?);
                    }
                    self.expect_punct(Punct::Semicolon)?;
                    ForInit::Decl(decls)
                } else {
                    let e = self.expression()?;
                    self.expect_punct(Punct::Semicolon)?;
                    ForInit::Expr(e)
                };
                let cond = if self.peek() == Some(&Token::Punct(Punct::Semicolon)) {
                    None
                } else {
                    Some(self.expression()?)
                };
                self.expect_punct(Punct::Semicolon)?;
                let step = if self.peek() == Some(&Token::Punct(Punct::RParen)) {
                    None
                } else {
                    Some(self.expression()?)
                };
                self.expect_punct(Punct::RParen)?;
                let body = Box::new(self.statement()?);
                Ok(Stmt::For { init, cond, step, body })
            }
            Some(Token::Keyword(Keyword::While)) => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let cond = self.expression()?;
                self.expect_punct(Punct::RParen)?;
                let body = Box::new(self.statement()?);
                Ok(Stmt::While { cond, body })
            }
            Some(Token::Keyword(Keyword::Do)) => {
                self.bump();
                let body = Box::new(self.statement()?);
                if !self.eat_keyword(Keyword::While) {
                    return Err(self.err("expected 'while' after do-body"));
                }
                self.expect_punct(Punct::LParen)?;
                let cond = self.expression()?;
                self.expect_punct(Punct::RParen)?;
                self.expect_punct(Punct::Semicolon)?;
                Ok(Stmt::DoWhile { body, cond })
            }
            Some(Token::Keyword(Keyword::Return)) => {
                self.bump();
                if self.eat_punct(Punct::Semicolon) {
                    Ok(Stmt::Return(None))
                } else {
                    let e = self.expression()?;
                    self.expect_punct(Punct::Semicolon)?;
                    Ok(Stmt::Return(Some(e)))
                }
            }
            Some(Token::Keyword(Keyword::Break)) => {
                self.bump();
                self.expect_punct(Punct::Semicolon)?;
                Ok(Stmt::Break)
            }
            Some(Token::Keyword(Keyword::Continue)) => {
                self.bump();
                self.expect_punct(Punct::Semicolon)?;
                Ok(Stmt::Continue)
            }
            Some(Token::Keyword(Keyword::Goto)) | Some(Token::Keyword(Keyword::Switch)) => {
                Err(self.err("goto/switch are outside the supported C subset"))
            }
            _ if self.is_type_start() => Ok(Stmt::Decl(self.declaration()?)),
            Some(_) => {
                let e = self.expression()?;
                self.expect_punct(Punct::Semicolon)?;
                Ok(Stmt::Expr(e))
            }
            None => Err(self.err("expected statement, found end of input")),
        }
    }

    // ---- expressions ------------------------------------------------------

    fn expression(&mut self) -> Result<Expr, ParseError> {
        let depth = self.depth;
        let mut e = self.assignment_expr()?;
        while self.eat_punct(Punct::Comma) {
            self.descend()?;
            let r = self.assignment_expr()?;
            e = Expr::Comma(Box::new(e), Box::new(r));
        }
        self.depth = depth;
        Ok(e)
    }

    fn assignment_expr(&mut self) -> Result<Expr, ParseError> {
        self.nested(Self::assignment_body)
    }

    fn assignment_body(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.ternary_expr()?;
        let op = match self.peek() {
            Some(Token::Punct(Punct::Eq)) => AssignOp::Assign,
            Some(Token::Punct(Punct::PlusEq)) => AssignOp::Add,
            Some(Token::Punct(Punct::MinusEq)) => AssignOp::Sub,
            Some(Token::Punct(Punct::StarEq)) => AssignOp::Mul,
            Some(Token::Punct(Punct::SlashEq)) => AssignOp::Div,
            Some(Token::Punct(Punct::PercentEq)) => AssignOp::Mod,
            Some(Token::Punct(Punct::ShlEq)) => AssignOp::Shl,
            Some(Token::Punct(Punct::ShrEq)) => AssignOp::Shr,
            Some(Token::Punct(Punct::AmpEq)) => AssignOp::BitAnd,
            Some(Token::Punct(Punct::PipeEq)) => AssignOp::BitOr,
            Some(Token::Punct(Punct::CaretEq)) => AssignOp::BitXor,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.assignment_expr()?; // right-associative
        Ok(Expr::Assign { op, lhs: Box::new(lhs), rhs: Box::new(rhs) })
    }

    fn ternary_expr(&mut self) -> Result<Expr, ParseError> {
        let cond = self.binary_expr(0)?;
        if self.eat_punct(Punct::Question) {
            let then = self.assignment_expr()?;
            self.expect_punct(Punct::Colon)?;
            let else_ = self.assignment_expr()?;
            Ok(Expr::Ternary { cond: Box::new(cond), then: Box::new(then), else_: Box::new(else_) })
        } else {
            Ok(cond)
        }
    }

    /// Precedence-climbing binary expression parser.
    fn binary_expr(&mut self, min_prec: u8) -> Result<Expr, ParseError> {
        let depth = self.depth;
        let mut lhs = self.unary_expr()?;
        loop {
            let (op, prec) = match self.peek() {
                Some(Token::Punct(Punct::PipePipe)) => (BinOp::Or, 1),
                Some(Token::Punct(Punct::AmpAmp)) => (BinOp::And, 2),
                Some(Token::Punct(Punct::Pipe)) => (BinOp::BitOr, 3),
                Some(Token::Punct(Punct::Caret)) => (BinOp::BitXor, 4),
                Some(Token::Punct(Punct::Amp)) => (BinOp::BitAnd, 5),
                Some(Token::Punct(Punct::EqEq)) => (BinOp::Eq, 6),
                Some(Token::Punct(Punct::NotEq)) => (BinOp::Ne, 6),
                Some(Token::Punct(Punct::Lt)) => (BinOp::Lt, 7),
                Some(Token::Punct(Punct::Gt)) => (BinOp::Gt, 7),
                Some(Token::Punct(Punct::Le)) => (BinOp::Le, 7),
                Some(Token::Punct(Punct::Ge)) => (BinOp::Ge, 7),
                Some(Token::Punct(Punct::Shl)) => (BinOp::Shl, 8),
                Some(Token::Punct(Punct::Shr)) => (BinOp::Shr, 8),
                Some(Token::Punct(Punct::Plus)) => (BinOp::Add, 9),
                Some(Token::Punct(Punct::Minus)) => (BinOp::Sub, 9),
                Some(Token::Punct(Punct::Star)) => (BinOp::Mul, 10),
                Some(Token::Punct(Punct::Slash)) => (BinOp::Div, 10),
                Some(Token::Punct(Punct::Percent)) => (BinOp::Mod, 10),
                _ => break,
            };
            if prec < min_prec {
                break;
            }
            self.bump();
            self.descend()?;
            let rhs = self.binary_expr(prec + 1)?;
            lhs = Expr::Binary { op, l: Box::new(lhs), r: Box::new(rhs) };
        }
        self.depth = depth;
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr, ParseError> {
        self.nested(Self::unary_body)
    }

    fn unary_body(&mut self) -> Result<Expr, ParseError> {
        match self.peek() {
            Some(Token::Punct(Punct::Minus)) => {
                self.bump();
                Ok(Expr::Unary { op: UnOp::Neg, expr: Box::new(self.unary_expr()?) })
            }
            Some(Token::Punct(Punct::Not)) => {
                self.bump();
                Ok(Expr::Unary { op: UnOp::Not, expr: Box::new(self.unary_expr()?) })
            }
            Some(Token::Punct(Punct::Tilde)) => {
                self.bump();
                Ok(Expr::Unary { op: UnOp::BitNot, expr: Box::new(self.unary_expr()?) })
            }
            Some(Token::Punct(Punct::PlusPlus)) => {
                self.bump();
                Ok(Expr::Unary { op: UnOp::PreInc, expr: Box::new(self.unary_expr()?) })
            }
            Some(Token::Punct(Punct::MinusMinus)) => {
                self.bump();
                Ok(Expr::Unary { op: UnOp::PreDec, expr: Box::new(self.unary_expr()?) })
            }
            Some(Token::Punct(Punct::Star)) => {
                self.bump();
                Ok(Expr::Unary { op: UnOp::Deref, expr: Box::new(self.unary_expr()?) })
            }
            Some(Token::Punct(Punct::Amp)) => {
                self.bump();
                Ok(Expr::Unary { op: UnOp::AddrOf, expr: Box::new(self.unary_expr()?) })
            }
            Some(Token::Punct(Punct::Plus)) => {
                self.bump();
                self.unary_expr()
            }
            Some(Token::Keyword(Keyword::Sizeof)) => {
                self.bump();
                if self.peek() == Some(&Token::Punct(Punct::LParen)) && self.is_type_start_at(1) {
                    self.expect_punct(Punct::LParen)?;
                    let mut ty = self.type_specifiers()?;
                    while self.eat_punct(Punct::Star) {
                        ty.pointers += 1;
                    }
                    self.expect_punct(Punct::RParen)?;
                    Ok(Expr::Sizeof(Box::new(SizeofArg::Type(ty))))
                } else {
                    let e = self.unary_expr()?;
                    Ok(Expr::Sizeof(Box::new(SizeofArg::Expr(e))))
                }
            }
            // Cast: '(' type ')' unary
            Some(Token::Punct(Punct::LParen)) if self.is_type_start_at(1) => {
                self.bump();
                let mut ty = self.type_specifiers()?;
                while self.eat_punct(Punct::Star) {
                    ty.pointers += 1;
                }
                self.expect_punct(Punct::RParen)?;
                let e = self.unary_expr()?;
                Ok(Expr::Cast { ty, expr: Box::new(e) })
            }
            _ => self.postfix_expr(),
        }
    }

    fn postfix_expr(&mut self) -> Result<Expr, ParseError> {
        let depth = self.depth;
        let mut e = self.primary_expr()?;
        loop {
            match self.peek() {
                Some(Token::Punct(Punct::LBracket)) => {
                    self.bump();
                    let idx = self.expression()?;
                    self.expect_punct(Punct::RBracket)?;
                    e = Expr::Index { base: Box::new(e), idx: Box::new(idx) };
                }
                Some(Token::Punct(Punct::LParen)) => {
                    self.bump();
                    let mut args = Vec::new();
                    if !self.eat_punct(Punct::RParen) {
                        loop {
                            args.push(self.assignment_expr()?);
                            if self.eat_punct(Punct::RParen) {
                                break;
                            }
                            self.expect_punct(Punct::Comma)?;
                        }
                    }
                    e = Expr::Call { callee: Box::new(e), args };
                }
                Some(Token::Punct(Punct::Dot)) => {
                    self.bump();
                    let field = match self.bump() {
                        Some(Token::Ident(n)) => n.clone(),
                        other => return Err(self.err(format!("expected field, found {other:?}"))),
                    };
                    e = Expr::Member { base: Box::new(e), field, arrow: false };
                }
                Some(Token::Punct(Punct::Arrow)) => {
                    self.bump();
                    let field = match self.bump() {
                        Some(Token::Ident(n)) => n.clone(),
                        other => return Err(self.err(format!("expected field, found {other:?}"))),
                    };
                    e = Expr::Member { base: Box::new(e), field, arrow: true };
                }
                Some(Token::Punct(Punct::PlusPlus)) => {
                    self.bump();
                    e = Expr::Unary { op: UnOp::PostInc, expr: Box::new(e) };
                }
                Some(Token::Punct(Punct::MinusMinus)) => {
                    self.bump();
                    e = Expr::Unary { op: UnOp::PostDec, expr: Box::new(e) };
                }
                _ => break,
            }
            // Each postfix link nests the chain one level deeper.
            self.descend()?;
        }
        self.depth = depth;
        Ok(e)
    }

    fn primary_expr(&mut self) -> Result<Expr, ParseError> {
        match self.bump() {
            Some(Token::Ident(n)) => Ok(Expr::Id(n.clone())),
            Some(Token::IntLit(v, text)) => Ok(Expr::IntLit(*v, text.clone())),
            Some(Token::FloatLit(v, text)) => Ok(Expr::FloatLit(*v, text.clone())),
            Some(Token::CharLit(c)) => Ok(Expr::CharLit(*c)),
            Some(Token::StrLit(s)) => Ok(Expr::StrLit(s.clone())),
            Some(Token::Punct(Punct::LParen)) => {
                let e = self.expression()?;
                self.expect_punct(Punct::RParen)?;
                Ok(e)
            }
            other => Err(self.err(format!("expected expression, found {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snippet(src: &str) -> Vec<Stmt> {
        parse_snippet(src).unwrap_or_else(|e| panic!("{e} in {src}"))
    }

    #[test]
    fn canonical_for_loop() {
        let s = snippet("for (i = 0; i < n; i++) a[i] = i;");
        match &s[0] {
            Stmt::For { init: ForInit::Expr(_), cond: Some(_), step: Some(_), body } => {
                match body.as_ref() {
                    Stmt::Expr(Expr::Assign { .. }) => {}
                    other => panic!("body: {other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn for_with_declaration_init() {
        let s = snippet("for (int i = 0; i < 10; ++i) sum += i;");
        match &s[0] {
            Stmt::For { init: ForInit::Decl(decls), .. } => {
                assert_eq!(decls[0].name, "i");
                assert!(decls[0].ty.is_integer());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn pragma_attaches_to_loop() {
        let s = snippet("#pragma omp parallel for private(j)\nfor (i = 0; i < n; i++) x[i] = 0;");
        match &s[0] {
            Stmt::Pragma { directive, stmt } => {
                assert!(directive.parallel && directive.for_loop);
                assert_eq!(directive.private_vars(), vec!["j"]);
                assert!(matches!(stmt.as_ref(), Stmt::For { .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn operator_precedence() {
        let s = snippet("x = a + b * c;");
        match &s[0] {
            Stmt::Expr(Expr::Assign { rhs, .. }) => match rhs.as_ref() {
                Expr::Binary { op: BinOp::Add, r, .. } => {
                    assert!(matches!(r.as_ref(), Expr::Binary { op: BinOp::Mul, .. }));
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn relational_binds_tighter_than_logical() {
        let s = snippet("if (a < b && c > d) x = 1;");
        match &s[0] {
            Stmt::If { cond: Expr::Binary { op: BinOp::And, l, r }, .. } => {
                assert!(matches!(l.as_ref(), Expr::Binary { op: BinOp::Lt, .. }));
                assert!(matches!(r.as_ref(), Expr::Binary { op: BinOp::Gt, .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn nested_loops_and_arrays() {
        let s = snippet(
            "for (i = 0; i < n; i++)\n  for (j = 0; j < m; j++)\n    c[i][j] = a[i][j] + b[i][j];",
        );
        let mut for_count = 0;
        s[0].walk(&mut |st| {
            if matches!(st, Stmt::For { .. }) {
                for_count += 1;
            }
        });
        assert_eq!(for_count, 2);
    }

    #[test]
    fn cast_and_member_access() {
        let s = snippet("image->colormap[i].opacity = (IndexPacket) i;");
        match &s[0] {
            Stmt::Expr(Expr::Assign { lhs, rhs, .. }) => {
                assert!(matches!(lhs.as_ref(), Expr::Member { arrow: false, .. }));
                match rhs.as_ref() {
                    Expr::Cast { ty, .. } => {
                        assert_eq!(ty.base, BaseType::Named("IndexPacket".into()));
                    }
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn ssize_t_cast_from_the_paper() {
        // Table 12, example 3.
        let s = snippet(
            "for (i = 0; i < ((ssize_t) image->colors); i++)\n  image->colormap[i].opacity = (IndexPacket) i;",
        );
        assert!(matches!(&s[0], Stmt::For { .. }));
    }

    #[test]
    fn io_loop_from_the_paper() {
        // Table 12, example 2.
        let s = snippet(
            "for (i = 0; i < n; i++) {\n  fprintf(stderr, \"%0.2lf \", x[i]);\n  if ((i % 20) == 0)\n    fprintf(stderr, \" \\n\");\n}",
        );
        let mut calls = 0;
        s[0].walk_exprs(&mut |e| {
            if let Expr::Call { callee, .. } = e {
                if matches!(callee.as_ref(), Expr::Id(n) if n == "fprintf") {
                    calls += 1;
                }
            }
        });
        assert_eq!(calls, 2);
    }

    #[test]
    fn function_definition() {
        let tu = parse_translation_unit(
            "double dot(double *a, double *b, int n) {\n  int i; double s = 0.0;\n  for (i = 0; i < n; i++) s += a[i] * b[i];\n  return s;\n}",
        )
        .unwrap();
        match &tu.items[0] {
            Item::Func(f) => {
                assert_eq!(f.name, "dot");
                assert_eq!(f.params.len(), 3);
                assert_eq!(f.params[0].ty.pointers, 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn declaration_forms() {
        let s = snippet(
            "unsigned long long x = 1; static const double eps = 1e-9; int a[10][20], *p, q = 3;",
        );
        match &s[0] {
            Stmt::Decl(d) => {
                assert_eq!(d[0].ty.base, BaseType::LongLong);
                assert!(d[0].ty.unsigned);
            }
            other => panic!("{other:?}"),
        }
        match &s[2] {
            Stmt::Decl(d) => {
                assert_eq!(d.len(), 3);
                assert_eq!(d[0].array_dims.len(), 2);
                assert_eq!(d[1].ty.pointers, 1);
                assert!(matches!(d[2].init, Some(Init::Expr(_))));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn register_keyword_parses_in_lenient_frontend() {
        // The *strict* ComPar front-end (baselines crate) rejects this; the
        // main parser accepts it like pycparser does.
        let s = snippet("register int i; for (i = 0; i < n; i++) a[i] = 0;");
        match &s[0] {
            Stmt::Decl(d) => assert!(d[0].ty.is_register),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn do_while_and_while() {
        let s = snippet("do { x++; } while (x < 10); while (p) p = next(p);");
        assert!(matches!(&s[0], Stmt::DoWhile { .. }));
        assert!(matches!(&s[1], Stmt::While { .. }));
    }

    #[test]
    fn ternary_and_comma() {
        let s = snippet("m = a > b ? a : b; for (i = 0, j = n; i < j; i++, j--) t[i] = t[j];");
        assert!(matches!(&s[0], Stmt::Expr(Expr::Assign { .. })));
        match &s[1] {
            Stmt::For {
                init: ForInit::Expr(Expr::Comma(..)), step: Some(Expr::Comma(..)), ..
            } => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn sizeof_forms() {
        let s = snippet("n = sizeof(double) * len; m = sizeof x;");
        match &s[0] {
            Stmt::Expr(Expr::Assign { rhs, .. }) => match rhs.as_ref() {
                Expr::Binary { l, .. } => {
                    assert!(matches!(l.as_ref(), Expr::Sizeof(_)));
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn error_positions_are_reported() {
        let err = parse_snippet("for (i = 0; i < n; i++ a[i] = i;").unwrap_err();
        assert!(err.line >= 1);
        assert!(err.msg.contains("expected"));
    }

    #[test]
    fn goto_is_rejected() {
        assert!(parse_snippet("goto done;").is_err());
    }

    #[test]
    fn unknown_pragma_clause_is_an_error() {
        assert!(parse_snippet("#pragma omp parallel for bogus(x)\nfor(;;) ;").is_err());
    }
}
