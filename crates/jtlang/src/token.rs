//! Tokens and source spans.

use std::fmt;

/// A half-open byte range into the source text, with 1-based line/column
/// of its start for diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Span {
    /// Byte offset of the first character.
    pub start: usize,
    /// Byte offset one past the last character.
    pub end: usize,
    /// 1-based line of `start`.
    pub line: u32,
    /// 1-based column of `start`.
    pub col: u32,
}

impl Span {
    /// Creates a span covering `start..end` at the given position.
    pub fn new(start: usize, end: usize, line: u32, col: u32) -> Self {
        Span {
            start,
            end,
            line,
            col,
        }
    }

    /// The smallest span covering both `self` and `other`.
    pub fn to(self, other: Span) -> Span {
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
            line: self.line.min(other.line),
            col: if other.line < self.line { other.col } else { self.col },
        }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Token kinds of the JT language.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TokenKind {
    // Literals and identifiers.
    Int(i64),
    Ident(String),
    // Keywords.
    Class,
    Extends,
    Public,
    Private,
    Protected,
    Static,
    Final,
    Void,
    IntTy,
    BooleanTy,
    If,
    Else,
    While,
    Do,
    For,
    Return,
    Break,
    Continue,
    New,
    This,
    Null,
    True,
    False,
    // Punctuation.
    LBrace,
    RBrace,
    LParen,
    RParen,
    LBracket,
    RBracket,
    Semi,
    Comma,
    Dot,
    // Operators.
    Assign,
    PlusAssign,
    MinusAssign,
    StarAssign,
    SlashAssign,
    PercentAssign,
    PlusPlus,
    MinusMinus,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Not,
    AndAnd,
    OrOr,
    EqEq,
    NotEq,
    Lt,
    Le,
    Gt,
    Ge,
    /// End of input.
    Eof,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TokenKind::Int(i) => return write!(f, "{i}"),
            TokenKind::Ident(n) => return write!(f, "{n}"),
            TokenKind::Class => "class",
            TokenKind::Extends => "extends",
            TokenKind::Public => "public",
            TokenKind::Private => "private",
            TokenKind::Protected => "protected",
            TokenKind::Static => "static",
            TokenKind::Final => "final",
            TokenKind::Void => "void",
            TokenKind::IntTy => "int",
            TokenKind::BooleanTy => "boolean",
            TokenKind::If => "if",
            TokenKind::Else => "else",
            TokenKind::While => "while",
            TokenKind::Do => "do",
            TokenKind::For => "for",
            TokenKind::Return => "return",
            TokenKind::Break => "break",
            TokenKind::Continue => "continue",
            TokenKind::New => "new",
            TokenKind::This => "this",
            TokenKind::Null => "null",
            TokenKind::True => "true",
            TokenKind::False => "false",
            TokenKind::LBrace => "{",
            TokenKind::RBrace => "}",
            TokenKind::LParen => "(",
            TokenKind::RParen => ")",
            TokenKind::LBracket => "[",
            TokenKind::RBracket => "]",
            TokenKind::Semi => ";",
            TokenKind::Comma => ",",
            TokenKind::Dot => ".",
            TokenKind::Assign => "=",
            TokenKind::PlusAssign => "+=",
            TokenKind::MinusAssign => "-=",
            TokenKind::StarAssign => "*=",
            TokenKind::SlashAssign => "/=",
            TokenKind::PercentAssign => "%=",
            TokenKind::PlusPlus => "++",
            TokenKind::MinusMinus => "--",
            TokenKind::Plus => "+",
            TokenKind::Minus => "-",
            TokenKind::Star => "*",
            TokenKind::Slash => "/",
            TokenKind::Percent => "%",
            TokenKind::Not => "!",
            TokenKind::AndAnd => "&&",
            TokenKind::OrOr => "||",
            TokenKind::EqEq => "==",
            TokenKind::NotEq => "!=",
            TokenKind::Lt => "<",
            TokenKind::Le => "<=",
            TokenKind::Gt => ">",
            TokenKind::Ge => ">=",
            TokenKind::Eof => "<eof>",
        };
        f.write_str(s)
    }
}

/// A token with its source span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// What was lexed.
    pub kind: TokenKind,
    /// Where it was lexed.
    pub span: Span,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_join_covers_both() {
        let a = Span::new(0, 3, 1, 1);
        let b = Span::new(10, 12, 2, 4);
        let j = a.to(b);
        assert_eq!((j.start, j.end), (0, 12));
        assert_eq!((j.line, j.col), (1, 1));
        // Symmetric case keeps the earlier position.
        let k = b.to(a);
        assert_eq!((k.start, k.end), (0, 12));
        assert_eq!(k.line, 1);
    }

    #[test]
    fn display_of_tokens() {
        assert_eq!(TokenKind::Int(42).to_string(), "42");
        assert_eq!(TokenKind::Ident("foo".into()).to_string(), "foo");
        assert_eq!(TokenKind::PlusAssign.to_string(), "+=");
        assert_eq!(TokenKind::Eof.to_string(), "<eof>");
        assert_eq!(Span::new(0, 1, 3, 7).to_string(), "3:7");
    }
}
