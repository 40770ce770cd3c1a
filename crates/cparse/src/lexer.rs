//! C lexer with source positions.
//!
//! Comments are skipped; preprocessor lines are skipped *except*
//! `#pragma omp …`, which becomes a [`Token::OmpPragma`] carrying the raw
//! clause text (with backslash line-continuations spliced) so the parser
//! can attach it to the following statement.

use std::fmt;

/// Lexical token kinds.
#[derive(Clone, Debug, PartialEq)]
pub enum Token {
    /// Identifier or non-keyword word.
    Ident(String),
    /// Reserved word (`for`, `int`, …).
    Keyword(Keyword),
    /// Integer literal (value + original text for faithful printing).
    IntLit(i64, String),
    /// Floating literal (value + original text).
    FloatLit(f64, String),
    /// Character literal.
    CharLit(char),
    /// String literal (unescaped content).
    StrLit(String),
    /// Punctuation / operator.
    Punct(Punct),
    /// `#pragma omp <raw>`; `raw` excludes the `#pragma omp` prefix.
    OmpPragma(String),
}

/// C keywords recognized by the subset grammar.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Keyword {
    Void,
    Char,
    Short,
    Int,
    Long,
    Float,
    Double,
    Signed,
    Unsigned,
    For,
    While,
    Do,
    If,
    Else,
    Return,
    Break,
    Continue,
    Const,
    Static,
    Register,
    Volatile,
    Extern,
    Struct,
    Union,
    Enum,
    Typedef,
    Sizeof,
    Goto,
    Switch,
    Case,
    Default,
    Inline,
    Restrict,
}

impl Keyword {
    /// Keyword spelling as written in source.
    pub fn as_str(self) -> &'static str {
        use Keyword::*;
        match self {
            Void => "void",
            Char => "char",
            Short => "short",
            Int => "int",
            Long => "long",
            Float => "float",
            Double => "double",
            Signed => "signed",
            Unsigned => "unsigned",
            For => "for",
            While => "while",
            Do => "do",
            If => "if",
            Else => "else",
            Return => "return",
            Break => "break",
            Continue => "continue",
            Const => "const",
            Static => "static",
            Register => "register",
            Volatile => "volatile",
            Extern => "extern",
            Struct => "struct",
            Union => "union",
            Enum => "enum",
            Typedef => "typedef",
            Sizeof => "sizeof",
            Goto => "goto",
            Switch => "switch",
            Case => "case",
            Default => "default",
            Inline => "inline",
            Restrict => "restrict",
        }
    }

    fn from_str(s: &str) -> Option<Keyword> {
        use Keyword::*;
        Some(match s {
            "void" => Void,
            "char" => Char,
            "short" => Short,
            "int" => Int,
            "long" => Long,
            "float" => Float,
            "double" => Double,
            "signed" => Signed,
            "unsigned" => Unsigned,
            "for" => For,
            "while" => While,
            "do" => Do,
            "if" => If,
            "else" => Else,
            "return" => Return,
            "break" => Break,
            "continue" => Continue,
            "const" => Const,
            "static" => Static,
            "register" => Register,
            "volatile" => Volatile,
            "extern" => Extern,
            "struct" => Struct,
            "union" => Union,
            "enum" => Enum,
            "typedef" => Typedef,
            "sizeof" => Sizeof,
            "goto" => Goto,
            "switch" => Switch,
            "case" => Case,
            "default" => Default,
            "inline" => Inline,
            "restrict" => Restrict,
            _ => return None,
        })
    }
}

/// Operators and punctuation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Punct {
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Semicolon,
    Comma,
    Colon,
    Question,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    PlusPlus,
    MinusMinus,
    Eq,
    PlusEq,
    MinusEq,
    StarEq,
    SlashEq,
    PercentEq,
    AmpEq,
    PipeEq,
    CaretEq,
    ShlEq,
    ShrEq,
    EqEq,
    NotEq,
    Lt,
    Gt,
    Le,
    Ge,
    AmpAmp,
    PipePipe,
    Not,
    Amp,
    Pipe,
    Caret,
    Tilde,
    Shl,
    Shr,
    Arrow,
    Dot,
}

impl Punct {
    /// Operator spelling as written in source.
    pub fn as_str(self) -> &'static str {
        use Punct::*;
        match self {
            LParen => "(",
            RParen => ")",
            LBrace => "{",
            RBrace => "}",
            LBracket => "[",
            RBracket => "]",
            Semicolon => ";",
            Comma => ",",
            Colon => ":",
            Question => "?",
            Plus => "+",
            Minus => "-",
            Star => "*",
            Slash => "/",
            Percent => "%",
            PlusPlus => "++",
            MinusMinus => "--",
            Eq => "=",
            PlusEq => "+=",
            MinusEq => "-=",
            StarEq => "*=",
            SlashEq => "/=",
            PercentEq => "%=",
            AmpEq => "&=",
            PipeEq => "|=",
            CaretEq => "^=",
            ShlEq => "<<=",
            ShrEq => ">>=",
            EqEq => "==",
            NotEq => "!=",
            Lt => "<",
            Gt => ">",
            Le => "<=",
            Ge => ">=",
            AmpAmp => "&&",
            PipePipe => "||",
            Not => "!",
            Amp => "&",
            Pipe => "|",
            Caret => "^",
            Tilde => "~",
            Shl => "<<",
            Shr => ">>",
            Arrow => "->",
            Dot => ".",
        }
    }
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::Keyword(k) => write!(f, "{}", k.as_str()),
            Token::IntLit(_, text) => write!(f, "{text}"),
            Token::FloatLit(_, text) => write!(f, "{text}"),
            Token::CharLit(c) => write!(f, "'{c}'"),
            Token::StrLit(s) => write!(f, "\"{s}\""),
            Token::Punct(p) => write!(f, "{}", p.as_str()),
            Token::OmpPragma(raw) => write!(f, "#pragma omp{raw}"),
        }
    }
}

/// A token plus its 1-based source position.
#[derive(Clone, Debug, PartialEq)]
pub struct SpannedToken {
    /// The token.
    pub tok: Token,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
}

/// Lexing failure with position.
#[derive(Clone, Debug, PartialEq)]
pub struct LexError {
    /// Human-readable description.
    pub msg: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at {}:{}: {}", self.line, self.col, self.msg)
    }
}

impl std::error::Error for LexError {}

struct Cursor<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
    col: usize,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn err(&self, msg: impl Into<String>) -> LexError {
        LexError { msg: msg.into(), line: self.line, col: self.col }
    }
}

/// Tokenizes C source.
pub fn lex(src: &str) -> Result<Vec<SpannedToken>, LexError> {
    let mut cur = Cursor { src: src.as_bytes(), pos: 0, line: 1, col: 1 };
    let mut out = Vec::new();
    let mut at_line_start = true;
    while let Some(c) = cur.peek() {
        // Whitespace.
        if c.is_ascii_whitespace() {
            if c == b'\n' {
                at_line_start = true;
            }
            cur.bump();
            continue;
        }
        // Comments.
        if c == b'/' && cur.peek2() == Some(b'/') {
            while let Some(c) = cur.peek() {
                if c == b'\n' {
                    break;
                }
                cur.bump();
            }
            continue;
        }
        if c == b'/' && cur.peek2() == Some(b'*') {
            cur.bump();
            cur.bump();
            loop {
                match cur.bump() {
                    Some(b'*') if cur.peek() == Some(b'/') => {
                        cur.bump();
                        break;
                    }
                    Some(_) => {}
                    None => return Err(cur.err("unterminated block comment")),
                }
            }
            continue;
        }
        // Preprocessor.
        if c == b'#' && at_line_start {
            let (line, col) = (cur.line, cur.col);
            let mut text = String::new();
            loop {
                match cur.peek() {
                    Some(b'\\') if cur.peek2() == Some(b'\n') => {
                        // Line splice: swallow both, keep going.
                        cur.bump();
                        cur.bump();
                        text.push(' ');
                    }
                    Some(b'\n') | None => break,
                    Some(ch) => {
                        text.push(ch as char);
                        cur.bump();
                    }
                }
            }
            let trimmed = text.trim_start_matches('#').trim_start();
            if let Some(rest) = trimmed.strip_prefix("pragma") {
                let rest = rest.trim_start();
                if let Some(omp) = rest.strip_prefix("omp") {
                    out.push(SpannedToken { tok: Token::OmpPragma(omp.to_string()), line, col });
                }
                // Non-omp pragmas are skipped like other preprocessor lines.
            }
            at_line_start = true;
            continue;
        }
        at_line_start = false;
        let (line, col) = (cur.line, cur.col);
        let tok = lex_one(&mut cur)?;
        out.push(SpannedToken { tok, line, col });
    }
    Ok(out)
}

fn lex_one(cur: &mut Cursor) -> Result<Token, LexError> {
    let c = cur.peek().expect("lex_one on empty input");
    if c.is_ascii_alphabetic() || c == b'_' {
        let start = cur.pos;
        while cur.peek().is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_') {
            cur.bump();
        }
        let word = std::str::from_utf8(&cur.src[start..cur.pos]).expect("ASCII word");
        return Ok(match Keyword::from_str(word) {
            Some(k) => Token::Keyword(k),
            None => Token::Ident(word.to_string()),
        });
    }
    if c.is_ascii_digit() || (c == b'.' && cur.peek2().is_some_and(|d| d.is_ascii_digit())) {
        return lex_number(cur);
    }
    if c == b'\'' {
        return lex_char(cur);
    }
    if c == b'"' {
        return lex_string(cur);
    }
    lex_punct(cur)
}

fn lex_number(cur: &mut Cursor) -> Result<Token, LexError> {
    let mut text = String::new();
    let mut is_float = false;
    // Hex?
    if cur.peek() == Some(b'0') && matches!(cur.peek2(), Some(b'x') | Some(b'X')) {
        text.push(cur.bump().unwrap() as char);
        text.push(cur.bump().unwrap() as char);
        while let Some(c) = cur.peek() {
            if c.is_ascii_hexdigit() {
                text.push(c as char);
                cur.bump();
            } else {
                break;
            }
        }
        let v = i64::from_str_radix(&text[2..], 16)
            .map_err(|_| cur.err(format!("bad hex literal {text}")))?;
        skip_int_suffix(cur, &mut text);
        return Ok(Token::IntLit(v, text));
    }
    while let Some(c) = cur.peek() {
        match c {
            b'0'..=b'9' => {
                text.push(c as char);
                cur.bump();
            }
            b'.' if !is_float => {
                is_float = true;
                text.push('.');
                cur.bump();
            }
            b'e' | b'E' => {
                is_float = true;
                text.push(c as char);
                cur.bump();
                if matches!(cur.peek(), Some(b'+') | Some(b'-')) {
                    text.push(cur.bump().unwrap() as char);
                }
            }
            _ => break,
        }
    }
    if is_float {
        let v: f64 = text.parse().map_err(|_| cur.err(format!("bad float literal {text}")))?;
        if matches!(cur.peek(), Some(b'f') | Some(b'F') | Some(b'l') | Some(b'L')) {
            text.push(cur.bump().unwrap() as char);
        }
        Ok(Token::FloatLit(v, text))
    } else {
        let v: i64 = if text.len() > 1 && text.starts_with('0') {
            i64::from_str_radix(&text[1..], 8)
                .map_err(|_| cur.err(format!("bad octal literal {text}")))?
        } else {
            text.parse().map_err(|_| cur.err(format!("bad int literal {text}")))?
        };
        skip_int_suffix(cur, &mut text);
        Ok(Token::IntLit(v, text))
    }
}

fn skip_int_suffix(cur: &mut Cursor, text: &mut String) {
    while matches!(cur.peek(), Some(b'u') | Some(b'U') | Some(b'l') | Some(b'L')) {
        text.push(cur.bump().unwrap() as char);
    }
}

fn lex_char(cur: &mut Cursor) -> Result<Token, LexError> {
    cur.bump(); // opening quote
    let c = match cur.bump() {
        Some(b'\\') => match cur.bump() {
            Some(b'n') => '\n',
            Some(b't') => '\t',
            Some(b'r') => '\r',
            Some(b'0') => '\0',
            Some(b'\\') => '\\',
            Some(b'\'') => '\'',
            Some(b'"') => '"',
            _ => return Err(cur.err("bad escape in char literal")),
        },
        Some(c) => c as char,
        None => return Err(cur.err("unterminated char literal")),
    };
    if cur.bump() != Some(b'\'') {
        return Err(cur.err("unterminated char literal"));
    }
    Ok(Token::CharLit(c))
}

fn lex_string(cur: &mut Cursor) -> Result<Token, LexError> {
    cur.bump(); // opening quote
    let mut s = String::new();
    loop {
        match cur.bump() {
            Some(b'"') => break,
            Some(b'\\') => match cur.bump() {
                Some(b'n') => s.push('\n'),
                Some(b't') => s.push('\t'),
                Some(b'r') => s.push('\r'),
                Some(b'0') => s.push('\0'),
                Some(b'\\') => s.push('\\'),
                Some(b'"') => s.push('"'),
                Some(b'\'') => s.push('\''),
                Some(b'%') => {
                    s.push('\\');
                    s.push('%');
                }
                _ => return Err(cur.err("bad escape in string literal")),
            },
            Some(b'\n') | None => return Err(cur.err("unterminated string literal")),
            Some(c) => s.push(c as char),
        }
    }
    Ok(Token::StrLit(s))
}

fn lex_punct(cur: &mut Cursor) -> Result<Token, LexError> {
    use Punct::*;
    let c = cur.bump().unwrap();
    let two = |cur: &mut Cursor, next: u8, yes: Punct, no: Punct| {
        if cur.peek() == Some(next) {
            cur.bump();
            yes
        } else {
            no
        }
    };
    let p = match c {
        b'(' => LParen,
        b')' => RParen,
        b'{' => LBrace,
        b'}' => RBrace,
        b'[' => LBracket,
        b']' => RBracket,
        b';' => Semicolon,
        b',' => Comma,
        b'?' => Question,
        b':' => Colon,
        b'~' => Tilde,
        b'.' => Dot,
        b'+' => match cur.peek() {
            Some(b'+') => {
                cur.bump();
                PlusPlus
            }
            Some(b'=') => {
                cur.bump();
                PlusEq
            }
            _ => Plus,
        },
        b'-' => match cur.peek() {
            Some(b'-') => {
                cur.bump();
                MinusMinus
            }
            Some(b'=') => {
                cur.bump();
                MinusEq
            }
            Some(b'>') => {
                cur.bump();
                Arrow
            }
            _ => Minus,
        },
        b'*' => two(cur, b'=', StarEq, Star),
        b'/' => two(cur, b'=', SlashEq, Slash),
        b'%' => two(cur, b'=', PercentEq, Percent),
        b'=' => two(cur, b'=', EqEq, Eq),
        b'!' => two(cur, b'=', NotEq, Not),
        b'<' => match cur.peek() {
            Some(b'=') => {
                cur.bump();
                Le
            }
            Some(b'<') => {
                cur.bump();
                two(cur, b'=', ShlEq, Shl)
            }
            _ => Lt,
        },
        b'>' => match cur.peek() {
            Some(b'=') => {
                cur.bump();
                Ge
            }
            Some(b'>') => {
                cur.bump();
                two(cur, b'=', ShrEq, Shr)
            }
            _ => Gt,
        },
        b'&' => match cur.peek() {
            Some(b'&') => {
                cur.bump();
                AmpAmp
            }
            Some(b'=') => {
                cur.bump();
                AmpEq
            }
            _ => Amp,
        },
        b'|' => match cur.peek() {
            Some(b'|') => {
                cur.bump();
                PipePipe
            }
            Some(b'=') => {
                cur.bump();
                PipeEq
            }
            _ => Pipe,
        },
        b'^' => two(cur, b'=', CaretEq, Caret),
        other => return Err(cur.err(format!("unexpected character '{}'", other as char))),
    };
    Ok(Token::Punct(p))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Token> {
        lex(src).unwrap().into_iter().map(|s| s.tok).collect()
    }

    #[test]
    fn simple_for_loop() {
        let t = toks("for (i = 0; i < n; i++) a[i] = i;");
        assert_eq!(t[0], Token::Keyword(Keyword::For));
        assert_eq!(t[1], Token::Punct(Punct::LParen));
        assert_eq!(t[2], Token::Ident("i".into()));
        assert!(t.contains(&Token::Punct(Punct::PlusPlus)));
        assert!(t.contains(&Token::Punct(Punct::LBracket)));
    }

    #[test]
    fn numbers_dec_hex_octal_float() {
        let t = toks("42 0x2A 052 3.5 1e3 2.5f 7ul");
        assert_eq!(t[0], Token::IntLit(42, "42".into()));
        assert_eq!(t[1], Token::IntLit(42, "0x2A".into()));
        assert_eq!(t[2], Token::IntLit(42, "052".into()));
        assert!(matches!(t[3], Token::FloatLit(v, _) if (v - 3.5).abs() < 1e-12));
        assert!(matches!(t[4], Token::FloatLit(v, _) if (v - 1000.0).abs() < 1e-9));
        assert!(matches!(&t[5], Token::FloatLit(v, s) if (*v - 2.5).abs() < 1e-12 && s == "2.5f"));
        assert!(matches!(&t[6], Token::IntLit(7, s) if s == "7ul"));
    }

    #[test]
    fn comments_are_skipped() {
        let t = toks("a // line comment\n/* block\ncomment */ b");
        assert_eq!(t, vec![Token::Ident("a".into()), Token::Ident("b".into())]);
    }

    #[test]
    fn pragma_omp_is_kept_other_preprocessor_skipped() {
        let src =
            "#include <stdio.h>\n#define N 100\n#pragma omp parallel for private(i)\nfor(;;);";
        let t = toks(src);
        assert_eq!(t[0], Token::OmpPragma(" parallel for private(i)".into()));
        assert_eq!(t[1], Token::Keyword(Keyword::For));
    }

    #[test]
    fn pragma_line_continuation_is_spliced() {
        let src = "#pragma omp parallel for \\\n  private(j)\nx;";
        let t = toks(src);
        match &t[0] {
            Token::OmpPragma(raw) => assert!(raw.contains("private(j)"), "{raw}"),
            other => panic!("expected pragma, got {other:?}"),
        }
    }

    #[test]
    fn multi_char_operators() {
        let t = toks("a <<= b >> c != d && e || f -> g . h");
        assert!(t.contains(&Token::Punct(Punct::ShlEq)));
        assert!(t.contains(&Token::Punct(Punct::Shr)));
        assert!(t.contains(&Token::Punct(Punct::NotEq)));
        assert!(t.contains(&Token::Punct(Punct::AmpAmp)));
        assert!(t.contains(&Token::Punct(Punct::PipePipe)));
        assert!(t.contains(&Token::Punct(Punct::Arrow)));
        assert!(t.contains(&Token::Punct(Punct::Dot)));
    }

    #[test]
    fn string_and_char_literals() {
        let t = toks(r#"printf("%0.2lf \n", x) 'a' '\n'"#);
        assert!(matches!(&t[2], Token::StrLit(s) if s.contains("%0.2lf")));
        assert!(t.contains(&Token::CharLit('a')));
        assert!(t.contains(&Token::CharLit('\n')));
    }

    #[test]
    fn positions_are_tracked() {
        let spanned = lex("a\n  b").unwrap();
        assert_eq!((spanned[0].line, spanned[0].col), (1, 1));
        assert_eq!((spanned[1].line, spanned[1].col), (2, 3));
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(lex("\"abc").is_err());
        assert!(lex("/* never closed").is_err());
    }

    #[test]
    fn keywords_vs_identifiers() {
        let t = toks("inti int register registers");
        assert_eq!(t[0], Token::Ident("inti".into()));
        assert_eq!(t[1], Token::Keyword(Keyword::Int));
        assert_eq!(t[2], Token::Keyword(Keyword::Register));
        assert_eq!(t[3], Token::Ident("registers".into()));
    }
}
